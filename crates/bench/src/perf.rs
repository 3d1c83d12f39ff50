//! Simulator-throughput measurement and the `BENCH_sim.json` schema.
//!
//! [`ThroughputRun`] is what the `bench_throughput` binary measures and
//! emits: per-cell wall-clock and event counts for a scenario matrix, the
//! aggregate events-per-second figure, and (optionally) a baseline
//! comparison so the repo can track its performance trajectory across
//! PRs. The JSON emitter is hand-rolled like `lbica-lab`'s sinks, and
//! [`validate_report`] parses a rendered document with
//! [`lbica_obs::json`] and checks it against the schema, which CI uses to
//! guard the artifact.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

use lbica_obs::{escape, json};

/// The schema identifier stamped into every emitted document. Bump when a
/// field changes meaning or disappears.
///
/// v2: added `detected_cores` and the `scaling` table (best-of-iters
/// whole-matrix wall per jobs count), so `parallel_wall_us` is one labelled
/// point on a curve instead of a single unexplained number; the validator
/// cross-checks the serial-vs-parallel relation against the jobs/core
/// metadata.
pub const SCHEMA: &str = "lbica-bench-sim/v2";

/// Measurements of one matrix cell, best-of-`iters` wall clock.
#[derive(Debug, Clone, PartialEq)]
pub struct CellPerf {
    /// Stable cell id (`workload/config/controller/s<seed>`).
    pub id: String,
    /// Workload-axis name.
    pub workload: String,
    /// Controller-axis label.
    pub controller: String,
    /// Best (minimum) wall-clock across iterations, µs.
    pub wall_us: u64,
    /// Discrete events the cell's simulation processes (deterministic).
    pub events: u64,
    /// `events / wall_us`, scaled to events per second.
    pub events_per_sec: f64,
    /// Peak event-queue depth during the run (deterministic).
    pub peak_event_queue_depth: usize,
    /// Application requests completed (sanity anchor for the event count).
    pub app_completed: u64,
}

impl CellPerf {
    /// Computes the derived throughput figure from `events` and `wall_us`.
    pub fn events_per_sec(events: u64, wall_us: u64) -> f64 {
        if wall_us == 0 {
            return 0.0;
        }
        events as f64 * 1_000_000.0 / wall_us as f64
    }
}

/// A baseline to compare against (an earlier commit's measurement).
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    /// What the baseline is (e.g. a commit hash or "seed structures").
    pub label: String,
    /// The baseline's serial wall-clock for the same matrix, µs.
    pub wall_us: u64,
}

/// One point of the multi-core scaling curve: the best-of-iters wall clock
/// of a whole-matrix executor sweep at a given worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScalingPoint {
    /// Worker threads of the sweep.
    pub jobs: usize,
    /// Best (minimum) whole-matrix wall-clock across iterations, µs.
    pub wall_us: u64,
}

/// A complete throughput measurement of one matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputRun {
    /// Matrix name (`paper`, `tiny`, ...).
    pub matrix: String,
    /// Worker threads used for the headline parallel-wall measurement.
    pub jobs: usize,
    /// Iterations per cell (wall times are best-of).
    pub iters: u32,
    /// Cores the benchmark host exposed
    /// (`std::thread::available_parallelism`) — the context that explains
    /// the serial-vs-parallel relation. On a 1-core box `parallel_wall_us`
    /// legitimately exceeds `serial_wall_us` (scheduling overhead, no
    /// parallelism to win); on a multi-core box it must not.
    pub detected_cores: usize,
    /// Per-cell measurements, in cell-enumeration order.
    pub cells: Vec<CellPerf>,
    /// Wall-clock of a whole-matrix sweep at `jobs` workers, µs (the
    /// `scaling` entry matching `jobs`).
    pub parallel_wall_us: u64,
    /// The scaling curve: one entry per measured jobs count, ascending.
    pub scaling: Vec<ScalingPoint>,
}

impl ThroughputRun {
    /// Sum of per-cell event counts.
    pub fn total_events(&self) -> u64 {
        self.cells.iter().map(|c| c.events).sum()
    }

    /// Sum of best per-cell wall times — the serial cost of the matrix, µs.
    pub fn serial_wall_us(&self) -> u64 {
        self.cells.iter().map(|c| c.wall_us).sum()
    }

    /// Aggregate serial throughput: total events over total serial wall.
    pub fn events_per_sec(&self) -> f64 {
        CellPerf::events_per_sec(self.total_events(), self.serial_wall_us())
    }

    /// Largest per-cell peak event-queue depth.
    pub fn peak_event_queue_depth(&self) -> usize {
        self.cells.iter().map(|c| c.peak_event_queue_depth).max().unwrap_or(0)
    }

    /// Renders the document, embedding `baseline` (with its derived
    /// events/sec over the *same* event totals — valid because the
    /// simulation semantics are pinned byte-identical across versions)
    /// when one is provided.
    pub fn render_json(&self, baseline: Option<&Baseline>) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"schema\": \"{SCHEMA}\",");
        let _ = writeln!(out, "  \"matrix\": \"{}\",", escape::json(&self.matrix));
        let _ = writeln!(out, "  \"jobs\": {},", self.jobs);
        let _ = writeln!(out, "  \"iters\": {},", self.iters);
        let _ = writeln!(out, "  \"detected_cores\": {},", self.detected_cores);
        let _ = writeln!(out, "  \"total_events\": {},", self.total_events());
        let _ = writeln!(out, "  \"serial_wall_us\": {},", self.serial_wall_us());
        let _ = writeln!(out, "  \"parallel_wall_us\": {},", self.parallel_wall_us);
        let _ = writeln!(out, "  \"events_per_sec\": {:.1},", self.events_per_sec());
        let _ = writeln!(out, "  \"peak_event_queue_depth\": {},", self.peak_event_queue_depth());
        let _ = writeln!(out, "  \"scaling\": [");
        for (i, point) in self.scaling.iter().enumerate() {
            let comma = if i + 1 < self.scaling.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"jobs\": {}, \"wall_us\": {}}}{comma}",
                point.jobs, point.wall_us
            );
        }
        let _ = writeln!(out, "  ],");
        if let Some(base) = baseline {
            let base_eps = CellPerf::events_per_sec(self.total_events(), base.wall_us);
            let speedup = if base.wall_us == 0 {
                0.0
            } else {
                base.wall_us as f64 / self.serial_wall_us().max(1) as f64
            };
            let _ = writeln!(out, "  \"baseline\": {{");
            let _ = writeln!(out, "    \"label\": \"{}\",", escape::json(&base.label));
            let _ = writeln!(out, "    \"serial_wall_us\": {},", base.wall_us);
            let _ = writeln!(out, "    \"events_per_sec\": {base_eps:.1}");
            let _ = writeln!(out, "  }},");
            let _ = writeln!(out, "  \"speedup_vs_baseline\": {speedup:.2},");
        }
        let _ = writeln!(out, "  \"cells\": [");
        for (i, cell) in self.cells.iter().enumerate() {
            let comma = if i + 1 < self.cells.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"id\": \"{}\", \"workload\": \"{}\", \"controller\": \"{}\", \
                 \"wall_us\": {}, \"events\": {}, \"events_per_sec\": {:.1}, \
                 \"peak_event_queue_depth\": {}, \"app_completed\": {}}}{comma}",
                escape::json(&cell.id),
                escape::json(&cell.workload),
                escape::json(&cell.controller),
                cell.wall_us,
                cell.events,
                cell.events_per_sec,
                cell.peak_event_queue_depth,
                cell.app_completed,
            );
        }
        let _ = writeln!(out, "  ]");
        let _ = write!(out, "}}");
        out
    }

    /// Renders and writes the document to `path`.
    pub fn write_to(&self, path: &Path, baseline: Option<&Baseline>) -> io::Result<()> {
        fs::write(path, self.render_json(baseline))
    }
}

/// Validates a rendered `BENCH_sim.json` document: it parses, carries the
/// schema marker and every field the emitter writes with its type, has at
/// least one cell entry, and passes the serial-vs-parallel cross-check —
/// the document must carry jobs/core metadata that *explains* its
/// parallel wall figure:
///
/// * the `scaling` table must exist and contain a `jobs = 1` row plus a
///   row matching the headline `jobs`, whose wall equals
///   `parallel_wall_us` (the headline is a labelled point on the curve,
///   not a free-floating number);
/// * a claimed parallel *speedup* (`parallel_wall_us` < `serial_wall_us`
///   by more than measurement noise) requires `jobs >= 2` **and**
///   `detected_cores >= 2`;
/// * a parallel wall *worse* than serial with `jobs >= 2` is only
///   acceptable on a single-core host (`detected_cores == 1`) — on a
///   multi-core box that relation is the misleading artifact v2 exists to
///   reject.
pub fn validate_report(text: &str) -> Result<(), String> {
    let ([jobs, cores, serial, parallel], scaling) =
        read_report(text).map_err(|e| e.to_string())?;
    if jobs == 0 || cores == 0 {
        return Err("jobs and detected_cores must be at least 1".to_string());
    }
    if !scaling.iter().any(|&(j, _)| j == 1) {
        return Err("scaling table lacks the jobs = 1 row".to_string());
    }
    match scaling.iter().find(|&&(j, _)| j == jobs) {
        None => return Err(format!("scaling table lacks the headline jobs = {jobs} row")),
        Some(&(_, wall)) if wall != parallel => {
            return Err(format!(
                "parallel_wall_us ({parallel}) disagrees with the scaling row at jobs = {jobs} \
                 ({wall})"
            ));
        }
        Some(_) => {}
    }
    // A >10% speedup needs actual parallelism: multiple workers on
    // multiple cores. (Within 10% is measurement noise — a lone worker's
    // single sweep can beat the sum of best-of-iters serial times slightly.)
    if u128::from(parallel) * 10 < u128::from(serial) * 9 && (jobs < 2 || cores < 2) {
        return Err(format!(
            "parallel_wall_us ({parallel}) claims a speedup over serial_wall_us ({serial}) that \
             jobs = {jobs} / detected_cores = {cores} cannot explain"
        ));
    }
    // The v1 artifact this schema replaces: a parallel wall *worse* than
    // serial presented next to jobs >= 2. Only a single-core host explains
    // that; on a multi-core box the document is misleading and rejected.
    if parallel > serial && jobs >= 2 && cores >= 2 {
        return Err(format!(
            "parallel_wall_us ({parallel}) exceeds serial_wall_us ({serial}) although jobs = \
             {jobs} workers ran on detected_cores = {cores} cores"
        ));
    }
    Ok(())
}

/// What the cross-checks read: `[jobs, detected_cores, serial_wall_us,
/// parallel_wall_us]` and the `scaling` table as (jobs, wall_us) rows.
type Relation = ([u64; 4], Vec<(u64, u64)>);

/// Parses a document and checks every field the emitter writes.
fn read_report(text: &str) -> Result<Relation, json::Error> {
    let doc = json::parse_tagged(text, SCHEMA)?;
    let root = doc.root();
    root.get("matrix")?.str()?;
    root.get("events_per_sec")?.f64()?;
    for key in ["iters", "total_events", "peak_event_queue_depth"] {
        root.get(key)?.int::<u64>()?;
    }
    let cells = root.get("cells")?;
    let entries = cells.items()?;
    if entries.is_empty() {
        return Err(cells.error("no cell entries"));
    }
    for cell in &entries {
        for key in ["id", "workload", "controller"] {
            cell.get(key)?.str()?;
        }
        for key in ["wall_us", "events", "peak_event_queue_depth", "app_completed"] {
            cell.get(key)?.int::<u64>()?;
        }
        cell.get("events_per_sec")?.f64()?;
    }
    let scaling = (root.get("scaling")?.items()?.iter())
        .map(|row| Ok((row.get("jobs")?.int()?, row.get("wall_us")?.int()?)))
        .collect::<Result<_, json::Error>>()?;
    let [jobs, cores, serial, parallel] =
        ["jobs", "detected_cores", "serial_wall_us", "parallel_wall_us"]
            .map(|key| root.get(key).and_then(|n| n.int::<u64>()));
    Ok(([jobs?, cores?, serial?, parallel?], scaling))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run() -> ThroughputRun {
        let cell = |id: &str, wall: u64, events: u64| CellPerf {
            id: id.to_string(),
            workload: "tpcc".to_string(),
            controller: "WB".to_string(),
            wall_us: wall,
            events,
            events_per_sec: CellPerf::events_per_sec(events, wall),
            peak_event_queue_depth: 1400,
            app_completed: 1000,
        };
        ThroughputRun {
            matrix: "paper".to_string(),
            jobs: 2,
            iters: 3,
            detected_cores: 4,
            cells: vec![cell("tpcc/paper/WB/s1", 50_000, 400_000), cell("b", 25_000, 100_000)],
            parallel_wall_us: 60_000,
            scaling: vec![
                ScalingPoint { jobs: 1, wall_us: 76_000 },
                ScalingPoint { jobs: 2, wall_us: 60_000 },
                ScalingPoint { jobs: 4, wall_us: 42_000 },
            ],
        }
    }

    #[test]
    fn aggregates_are_consistent() {
        let r = run();
        assert_eq!(r.total_events(), 500_000);
        assert_eq!(r.serial_wall_us(), 75_000);
        assert!((r.events_per_sec() - 500_000.0 * 1_000_000.0 / 75_000.0).abs() < 1e-6);
        assert_eq!(r.peak_event_queue_depth(), 1400);
    }

    #[test]
    fn rendered_document_validates() {
        let r = run();
        let text = r.render_json(None);
        validate_report(&text).expect("valid document");
        let with_base =
            r.render_json(Some(&Baseline { label: "seed".to_string(), wall_us: 150_000 }));
        validate_report(&with_base).expect("valid document with baseline");
        assert!(with_base.contains("\"speedup_vs_baseline\": 2.00"));
        assert!(with_base.contains("\"label\": \"seed\""));
    }

    #[test]
    fn validator_rejects_broken_documents() {
        assert!(validate_report("{}").is_err());
        let r = run();
        let text = r.render_json(None);
        let truncated = &text[..text.len() - 10];
        assert!(validate_report(truncated).is_err());
        let wrong_schema = text.replace(SCHEMA, "other/v9");
        assert!(validate_report(&wrong_schema).is_err());
    }

    #[test]
    fn zero_wall_is_guarded() {
        assert_eq!(CellPerf::events_per_sec(100, 0), 0.0);
    }

    #[test]
    fn validator_rejects_unexplained_parallel_relations() {
        // Multi-core speedup claimed on a single-core host.
        let mut r = run();
        r.detected_cores = 1;
        let text = r.render_json(None);
        let err = validate_report(&text).expect_err("1-core speedup must be rejected");
        assert!(err.contains("cannot explain"), "{err}");

        // Parallel worse than serial although jobs and cores are plural —
        // the misleading v1 artifact.
        let mut r = run();
        r.parallel_wall_us = 90_000;
        r.scaling[1].wall_us = 90_000;
        let err = validate_report(&r.render_json(None))
            .expect_err("a multi-core slowdown must be rejected");
        assert!(err.contains("exceeds serial_wall_us"), "{err}");

        // ...but on a 1-core host the same slowdown is explained, and valid.
        r.detected_cores = 1;
        validate_report(&r.render_json(None)).expect("1-core slowdown is legitimate");
    }

    #[test]
    fn validator_requires_a_consistent_scaling_table() {
        // No jobs = 1 anchor row.
        let mut r = run();
        r.scaling.remove(0);
        let err = validate_report(&r.render_json(None)).expect_err("missing jobs=1 row");
        assert!(err.contains("jobs = 1"), "{err}");

        // No row for the headline jobs value.
        let mut r = run();
        let headline = r.jobs;
        r.scaling.retain(|p| p.jobs != headline);
        let err = validate_report(&r.render_json(None)).expect_err("missing headline row");
        assert!(err.contains("headline"), "{err}");

        // Headline row disagreeing with parallel_wall_us.
        let mut r = run();
        r.scaling[1].wall_us += 1;
        let err = validate_report(&r.render_json(None)).expect_err("inconsistent headline row");
        assert!(err.contains("disagrees"), "{err}");
    }

    #[test]
    fn within_noise_single_worker_parallel_walls_pass() {
        // jobs = 1 on a 1-core box, parallel a hair under serial: noise,
        // not an impossible speedup.
        let mut r = run();
        r.jobs = 1;
        r.detected_cores = 1;
        r.parallel_wall_us = 74_000;
        r.scaling = vec![ScalingPoint { jobs: 1, wall_us: 74_000 }];
        validate_report(&r.render_json(None)).expect("within-noise document validates");
    }

    #[test]
    fn labels_with_quotes_and_backslashes_are_escaped() {
        let r = run();
        let text = r.render_json(Some(&Baseline {
            label: "ref \"A\" at C:\\builds\nline2".to_string(),
            wall_us: 100_000,
        }));
        assert!(text.contains("ref \\\"A\\\" at C:\\\\builds\\nline2"));
        validate_report(&text).expect("escaped document stays valid");
    }

    #[test]
    fn validator_handles_strings_ending_in_escaped_backslash() {
        let r = run();
        let text = r.render_json(Some(&Baseline {
            label: "trailing-backslash\\".to_string(),
            wall_us: 100_000,
        }));
        assert!(text.contains("trailing-backslash\\\\\","));
        validate_report(&text).expect("a \\\\-terminated string must not swallow its quote");
    }
}
