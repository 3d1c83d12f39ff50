#!/usr/bin/env python3
"""Build and run the LBICA simulator benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload paper --seed 1 --seconds 20 --trace 0

Builds the benchmark crate in this directory (release profile, offline)
into $CARGO_TARGET_DIR, or `.bench_build` under the current directory when
that is unset, then runs it with the same arguments. The last line of
stdout is the result: one JSON object with `correct`, `attempted`, `failed`
and `metrics`. Exits non-zero without a result if the repository's crates
are missing, the build fails or the run does not finish in time.
"""

import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def main() -> int:
    crates = ROOT / "crates"
    missing = [c for c in ("trace", "storage", "cache", "tier", "sim", "lab")
               if not (crates / c / "Cargo.toml").is_file()]
    if missing or not (ROOT / "BENCH_sim.json").is_file():
        print(f"error: {ROOT} lacks the simulator sources "
              f"(missing crates: {', '.join(missing) or 'none'}; BENCH_sim.json is needed too)",
              file=sys.stderr)
        return 2

    env = dict(os.environ)
    target = pathlib.Path(env.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = pathlib.Path.cwd() / target
    env["CARGO_TARGET_DIR"] = str(target)
    build = ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", str(HERE / "Cargo.toml"), "--bin", "perfbench"]
    try:
        built = subprocess.run(build, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("error: the build timed out", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("error: the build failed", file=sys.stderr)
        return 1

    exe = target / "release" / "perfbench"
    # One malloc arena: the sweep executor starts a worker thread per pass,
    # and per-thread arenas make the peak resident set vary by megabytes
    # from run to run with no change in the work done.
    env["MALLOC_ARENA_MAX"] = "1"
    args = [str(exe), *sys.argv[1:], "--out", str(ROOT / ".bench_out")]
    try:
        run = subprocess.run(args, env=env, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("error: the run timed out", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
