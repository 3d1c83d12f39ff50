//! Command line of the LBICA simulator benchmark.
//!
//! ```text
//! perfbench --workload paper|zipf-tier2|replay-ckpt [--seed N] [--seconds S]
//!           [--trace 0|1] [--out DIR]
//! ```
//!
//! Prints every metric with its unit and the gate's counts to stderr, and
//! the result as one JSON object on the last line of stdout.

use std::path::PathBuf;
use std::process::ExitCode;

use lbica_perfbench::metrics::result_json;
use lbica_perfbench::workload::{Scale, Workload, CANONICAL_SEED};
use lbica_perfbench::{run, RunConfig};

const USAGE: &str = "usage: perfbench --workload paper|zipf-tier2|replay-ckpt [--seed N] \
                     [--seconds S] [--trace 0|1] [--out DIR]";

fn parse_seed(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse(args: &[String]) -> Result<RunConfig, String> {
    let mut config = RunConfig {
        workload: Workload::Paper,
        scale: Scale::harness(),
        seed: CANONICAL_SEED,
        seconds: 10.0,
        trace: false,
        out_dir: None,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => config.seed = parse_seed(value).ok_or("--seed takes an integer")?,
            "--seconds" => {
                config.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?;
            }
            "--trace" => {
                config.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                };
            }
            "--out" => config.out_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    config.workload = workload.ok_or("--workload is required")?;
    Ok(config)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse(&args) {
        Ok(config) => config,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&config) {
        Ok(outcome) => {
            eprint!("{}", outcome.table());
            println!(
                "{}",
                result_json(
                    outcome.gate.attempted,
                    outcome.gate.failed,
                    outcome.defs,
                    &outcome.values
                )
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
