//! End-to-end and per-layer benchmark of the LBICA simulator.
//!
//! A run generates a workload's inputs from a seed, runs one untimed
//! reference pass, then repeats timed passes for a fixed host-time budget
//! and reports the sum of each stage's shortest time (see
//! [`metrics::end_to_end`]) and medians. With tracing on, the timed passes
//! are pairs of stepwise replays of the same cells, one under spans and one
//! without, and the per-layer metrics replace the end-to-end ones. Every cell of
//! every pass goes through the correctness gate. See `README.md` beside
//! this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gate;
pub mod metrics;
pub mod pass;
pub mod spans;
pub mod stepwise;
pub mod workload;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use gate::Gate;
use metrics::{MetricDef, END_TO_END, PER_LAYER};
use spans::NoSpans;
use workload::{setup, CellKey, Inputs, Scale, Workload};

/// The lowest share of the traced pass's wall time the layer spans must
/// cover (the rest is the benchmark's glue between calls).
pub const MIN_SPAN_COVERAGE_PCT: f64 = 95.0;

/// Fewest timed passes of each kind, however short the time budget.
const MIN_PASSES: usize = 3;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Its sizes.
    pub scale: Scale,
    /// The workload seed the inputs are generated from.
    pub seed: u64,
    /// Host-time budget of the timed passes.
    pub seconds: f64,
    /// Report per-layer (traced) metrics instead of end-to-end ones.
    pub trace: bool,
    /// Where the traced run writes its spans, if anywhere.
    pub out_dir: Option<PathBuf>,
}

/// What a run measured.
#[derive(Debug)]
pub struct RunOutcome {
    /// The correctness gate over every cell of every pass.
    pub gate: Gate,
    /// The reported metrics.
    pub defs: &'static [MetricDef],
    /// Their values, in `defs` order.
    pub values: Vec<f64>,
    /// Timed passes (with tracing on, pairs of traced and plain passes).
    pub passes: usize,
    /// Wall time of each timed pass (with tracing on, each traced pass),
    /// s, in run order.
    pub pass_wall_s: Vec<f64>,
}

impl RunOutcome {
    /// The value of metric `name`.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.defs.iter().position(|d| d.name == name).map(|i| self.values[i])
    }

    /// A human-readable table of every metric with its unit and the gate's
    /// counts.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (d, v) in self.defs.iter().zip(&self.values) {
            let _ = writeln!(out, "{:<34} {:>18.6} {}", d.name, v, d.unit);
        }
        let _ = writeln!(
            out,
            "cells: {} attempted, {} failed ({} timed passes)",
            self.gate.attempted, self.gate.failed, self.passes
        );
        let walls: Vec<String> = self.pass_wall_s.iter().map(|w| format!("{w:.4}")).collect();
        let _ = writeln!(out, "pass wall_s: {}", walls.join(" "));
        for failure in &self.gate.failures {
            let _ = writeln!(out, "FAILED {failure}");
        }
        out
    }
}

/// Runs the benchmark.
///
/// # Errors
///
/// Returns an error if the spans cannot be written to `out_dir`.
pub fn run(config: &RunConfig) -> std::io::Result<RunOutcome> {
    let inputs = Inputs::generate(config.workload, config.scale, config.seed);
    let keys = CellKey::all(&setup(&inputs, &mut NoSpans).matrix);
    let mut gate = Gate::default();

    // The reference pass: every timed pass must reproduce its reports. It
    // also warms the allocator and the page cache, so it is not timed.
    let reference = pass::untraced(&inputs);

    let mut untraced = Vec::new();
    let mut traced_samples = Vec::new();
    let mut traced_walls = Vec::new();
    let mut last_traced = None;
    let deadline = Instant::now() + Duration::from_secs_f64(config.seconds);
    loop {
        if config.trace {
            // Alternate which of the pair runs first, so that a drift in
            // host speed does not land on one side of the overhead.
            let (traced, plain) = if traced_samples.len() % 2 == 0 {
                let traced = pass::traced(&inputs);
                (traced, pass::plain(&inputs))
            } else {
                let plain = pass::plain(&inputs);
                (pass::traced(&inputs), plain)
            };
            gate.check_repeat(&keys, &reference.reports, &traced.reports);
            gate.check_repeat(&keys, &reference.reports, &plain.reports);
            traced_samples.push(metrics::per_layer_sample(&inputs, &traced, plain.wall_s));
            traced_walls.push(traced.wall_s);
            last_traced = Some(traced);
        } else {
            let u = pass::untraced(&inputs);
            gate.check_repeat(&keys, &reference.reports, &u.reports);
            untraced.push(u.times);
        }
        let passes = untraced.len().max(traced_samples.len());
        if Instant::now() >= deadline && passes >= MIN_PASSES {
            break;
        }
    }
    // Read before the gate's traced pass, whose span buffer and cache probes
    // would otherwise set the peak.
    let peak_rss_mb = peak_rss_mb();

    let traced = match last_traced {
        Some(t) => t,
        None => pass::traced(&inputs),
    };
    let unsplit: Option<Vec<pass::CellReport>> =
        (config.workload == Workload::ReplayCkpt).then(|| {
            let matrix = setup(&inputs, &mut NoSpans).matrix;
            (0..matrix.len())
                .map(|i| Ok(matrix.cell(i).expect("index within the matrix").run()))
                .collect()
        });
    gate.check_cells(
        &inputs,
        &keys,
        &reference.reports,
        &traced.reports,
        &traced.records,
        unsplit.as_deref(),
    );

    let (defs, values, pass_wall_s): (&'static [MetricDef], Vec<f64>, Vec<f64>) = if config.trace {
        if let Some(dir) = &config.out_dir {
            std::fs::create_dir_all(dir)?;
            let path = dir.join(format!("{}-spans.tsv", config.workload.name()));
            std::fs::write(path, traced.spans.to_tsv())?;
        }
        (&PER_LAYER, metrics::per_layer(&traced_samples), traced_walls)
    } else {
        let values = metrics::end_to_end(&keys, &reference.reports, &untraced, peak_rss_mb);
        (&END_TO_END, values, untraced.iter().map(|p| p.wall_s).collect())
    };
    Ok(RunOutcome { gate, defs, values, passes: pass_wall_s.len(), pass_wall_s })
}

/// The process's peak resident set (`VmHWM`), MB; 0 where the kernel does
/// not report it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
