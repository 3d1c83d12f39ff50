//! Hostile-input property test of the JSON reader and the validators built
//! on it: every rendered document kind the workspace persists, with random
//! bits flipped, random truncations and random bytes inserted, must parse
//! to `Ok` or a typed error — never a panic or a stack overflow.

use lbica_obs::json::{self, Error};
use lbica_obs::ring::{SmallLabel, TraceEvent, TraceEventKind, TraceRing};
use lbica_obs::{chrome, validate, MetricsRegistry, Phase, PhaseProfiler, PhaseSink};

/// A `sweep --shard` partial as `lbica-lab` renders it.
const PARTIAL: &str = r#"{
  "schema": "lbica-partial-sweep/v2",
  "matrix": "tiny",
  "fingerprint": "d6dfd061b5e91c0d",
  "shard_index": 0,
  "shard_count": 18,
  "cells_total": 36,
  "cell_start": 0,
  "cell_end": 2,
  "cells": [
    {"index": 0, "id": "tpcc/tiny/WB/s0", "workload": "tpcc", "config": "tiny", "controller": "WB", "seed": 0, "app_completed": 7492, "avg_latency_us": 78738, "p50_latency_us": 44842, "p95_latency_us": 254864, "p99_latency_us": 254864, "max_latency_us": 254864, "intervals": 21, "cache_load_sum_us": 2114289, "disk_load_sum_us": 492229, "policy_changes": 0, "bypassed_requests": 0, "burst_intervals": 0},
    {"index": 1, "id": "tpcc/tiny/WB/s1", "workload": "tpcc", "config": "tiny", "controller": "WB", "seed": 1, "app_completed": 7428, "avg_latency_us": 77121, "p50_latency_us": 44842, "p95_latency_us": 251513, "p99_latency_us": 251513, "max_latency_us": 251513, "intervals": 21, "cache_load_sum_us": 2093543, "disk_load_sum_us": 485612, "policy_changes": 0, "bypassed_requests": 0, "burst_intervals": 0}
  ]
}
"#;

/// A `sweep --telemetry` stream as `lbica-lab` renders it.
const TELEMETRY: &str = r#"{"type": "start", "schema": "lbica-telemetry/v1", "matrix": "tiny", "cells": 2, "jobs": 2}
{"type": "cell", "index": 1, "id": "tpcc/tiny/WB/s1", "worker": 1, "wall_us": 3347, "events": 18530, "events_per_sec": 5536301.165, "app_completed": 7428, "completed": 1, "total": 2}
{"type": "cell", "index": 0, "id": "tpcc/tiny/WB/s0", "worker": 0, "wall_us": 7002, "events": 18657, "events_per_sec": 2664524.422, "app_completed": 7492, "completed": 2, "total": 2}
{"type": "shard_merged", "shard_index": 0, "shard_count": 1, "cells": 2}
{"type": "end", "matrix": "tiny", "jobs": 2, "cells": 2, "wall_us": 7146, "events": 37187, "events_per_sec": 5203890.288, "worker_busy_us": [7002, 3347], "worker_utilization": 0.7241}
"#;

/// A `bench diff --out` report as `lbica-bench` renders it.
const BENCH_DIFF: &str = r#"{
  "schema": "lbica-bench-diff/v1",
  "matrix": "paper",
  "tolerance_pct": 10.000,
  "old_serial_wall_us": 75000,
  "new_serial_wall_us": 81000,
  "serial_delta_pct": 8.000,
  "regressions": 1,
  "events_mismatches": 0,
  "cells": [
    {"id": "tpcc/paper/WB/s1", "old_wall_us": 50000, "new_wall_us": 56000, "delta_pct": 12.000, "events_match": true, "regression": true},
    {"id": "tpcc/paper/LBICA/s1", "old_wall_us": 25000, "new_wall_us": 25000, "delta_pct": -0.004, "events_match": false, "regression": false}
  ]
}"#;

/// The committed `lbica-bench-sim/v2` ledger.
const BENCH_SIM: &str = include_str!("../../../BENCH_sim.json");

fn metrics_doc() -> String {
    let mut reg = MetricsRegistry::new();
    let ops = reg.counter("lbica_ops_total", "ops with \"quotes\"");
    reg.add(ops, 7);
    let depth = reg.gauge("lbica_depth", "queue depth");
    reg.set(depth, 3);
    let lat = reg.histogram("lbica_lat_us", "latency");
    reg.record_us(lat, 1_500);
    reg.snapshot().render_json()
}

fn profile_doc() -> String {
    let mut prof = PhaseProfiler::new();
    let mark = prof.mark();
    prof.record(Phase::CacheMap, mark);
    prof.render_json("hostile \\ label")
}

fn trace_doc() -> String {
    let mut ring = TraceRing::new(16);
    let kinds = [
        TraceEventKind::IntervalRollover { interval: 0, cache_completed: 3, disk_completed: 1 },
        TraceEventKind::BurstDetected { interval: 1 },
        TraceEventKind::PolicyChange { interval: 1, policy: SmallLabel::new("WO") },
        TraceEventKind::Bypass { interval: 2, requests: 9 },
    ];
    for (i, kind) in kinds.into_iter().enumerate() {
        ring.record(TraceEvent { ts_us: i as u64 * 1_000, dur_us: 1_000, kind });
    }
    chrome::render(&ring, "cell \"0\"")
}

/// Runs the reader and, for the kinds this crate validates, the
/// validator. Returning at all is the property: a panic fails the test.
fn read_all(kind: &str, text: &str) -> bool {
    let parsed = json::parse(text).is_ok();
    let validated = match kind {
        "metrics" => validate::metrics_json(text).is_ok(),
        "profile" => validate::profile_json(text).is_ok(),
        "trace" => validate::chrome_trace(text).is_ok(),
        "telemetry" => validate::telemetry_jsonl(text).is_ok(),
        "bench-diff" => validate::bench_diff_json(text).is_ok(),
        _ => parsed,
    };
    // A document that validates must have parsed (JSONL parses per line).
    assert!(!validated || parsed || kind == "telemetry", "{kind} validated without parsing");
    validated
}

/// splitmix64: a deterministic case stream without a dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

#[test]
fn mutated_documents_of_every_kind_end_in_ok_or_a_typed_error() {
    let docs: Vec<(&str, String)> = vec![
        ("partial", PARTIAL.to_string()),
        ("bench-sim", BENCH_SIM.to_string()),
        ("bench-diff", BENCH_DIFF.to_string()),
        ("metrics", metrics_doc()),
        ("profile", profile_doc()),
        ("telemetry", TELEMETRY.to_string()),
        ("trace", trace_doc()),
    ];
    const NOISE: &[u8] = b"{}[]\",:\\ \n-.0123456789eEtfnu\x01\x7f\xc3\xa9";
    let mut rng = Rng(0x1b1c_a000);
    for (kind, doc) in &docs {
        assert!(read_all(kind, doc), "the unmutated {kind} document must validate");
        let bytes = doc.as_bytes();
        for _ in 0..400 {
            let mut mutated = bytes.to_vec();
            for _ in 0..1 + rng.below(3) {
                match rng.below(3) {
                    0 => {
                        let at = rng.below(mutated.len().max(1));
                        if let Some(b) = mutated.get_mut(at) {
                            *b ^= 1 << rng.below(8);
                        }
                    }
                    1 => mutated.truncate(rng.below(mutated.len() + 1)),
                    _ => {
                        let at = rng.below(mutated.len() + 1);
                        let run: Vec<u8> =
                            (0..1 + rng.below(8)).map(|_| NOISE[rng.below(NOISE.len())]).collect();
                        mutated.splice(at..at, run);
                    }
                }
            }
            read_all(kind, &String::from_utf8_lossy(&mutated));
        }
    }
}

#[test]
fn garbage_injected_after_a_field_is_refused_by_every_reader() {
    for (kind, doc) in [("bench-sim", BENCH_SIM.to_string()), ("metrics", metrics_doc())] {
        let anchor = doc.find(",\n").expect("a field separator");
        let garbled = format!("{},,, 12 garbage :::{}", &doc[..anchor], &doc[anchor..]);
        assert!(!read_all(kind, &garbled), "{kind} accepted injected garbage");
        assert!(json::parse(&garbled).is_err());
    }
}

#[test]
fn nesting_200_000_deep_is_the_typed_depth_error() {
    for text in ["[".repeat(200_000), "{\"k\": ".repeat(200_000), "[{\"a\": ".repeat(100_000)] {
        assert!(matches!(json::parse(&text), Err(Error::TooDeep { .. })));
        assert!(matches!(validate::metrics_json(&text), Err(Error::TooDeep { .. })));
    }
}
