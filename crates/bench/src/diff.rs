//! The perf-regression ledger: `bench diff` and `bench history`.
//!
//! [`BenchDoc::parse`] reads a rendered `lbica-bench-sim/v2` document back
//! into the fields the ledger needs, parsing it with [`lbica_obs::json`]
//! as [`perf::validate_report`](crate::perf::validate_report) does, so
//! the document's layout (line breaks, key order) does not matter.
//! [`DiffReport`] compares two
//! documents of the *same matrix* cell-by-cell under a configurable noise
//! tolerance: a cell whose wall-clock grew beyond the tolerance is a
//! *regression*, and the `bench diff` binary exits non-zero when any cell
//! regresses. Event counts are deterministic, so a mismatch there is
//! flagged as *semantic drift* — the two documents measured different
//! simulations and their wall deltas are apples-to-oranges — but it is
//! reported rather than failed: re-pinning simulation semantics is a
//! deliberate act that the figure-pin tests already police.
//!
//! [`history_table`] folds any number of parsed documents into a
//! trajectory table (one row per document, in the order given), which is
//! how the repo reads its committed `BENCH_sim.json` lineage.

use std::fmt::Write as _;

use lbica_obs::validate::BENCH_DIFF_SCHEMA;
use lbica_obs::{escape, json};

use crate::perf::SCHEMA;

/// The per-cell measurements `bench diff` compares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchCell {
    /// Stable cell id (`workload/config/controller/s<seed>`).
    pub id: String,
    /// Best-of-iters wall-clock, µs.
    pub wall_us: u64,
    /// Deterministic event count of the cell's simulation.
    pub events: u64,
}

/// A parsed `lbica-bench-sim/v2` document, reduced to the ledger's fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchDoc {
    /// Matrix name the document measured.
    pub matrix: String,
    /// Top-level deterministic event total.
    pub total_events: u64,
    /// Sum of best per-cell wall times, µs.
    pub serial_wall_us: u64,
    /// Per-cell measurements, in document order.
    pub cells: Vec<BenchCell>,
}

impl BenchDoc {
    /// Parses a rendered `lbica-bench-sim/v2` document: the schema marker
    /// is required, and each entry of the `cells` array yields one
    /// [`BenchCell`].
    pub fn parse(text: &str) -> Result<BenchDoc, String> {
        Self::read(text).map_err(|e| format!("not a valid document of schema {SCHEMA}: {e}"))
    }

    fn read(text: &str) -> Result<BenchDoc, json::Error> {
        let doc = json::parse_tagged(text, SCHEMA)?;
        let root = doc.root();
        let cells_node = root.get("cells")?;
        let cells = cells_node
            .items()?
            .iter()
            .map(|cell| {
                Ok(BenchCell {
                    id: cell.get("id")?.str()?.to_string(),
                    wall_us: cell.get("wall_us")?.int()?,
                    events: cell.get("events")?.int()?,
                })
            })
            .collect::<Result<Vec<_>, json::Error>>()?;
        if cells.is_empty() {
            return Err(cells_node.error("document contains no cell entries"));
        }
        Ok(BenchDoc {
            matrix: root.get("matrix")?.str()?.to_string(),
            total_events: root.get("total_events")?.int()?,
            serial_wall_us: root.get("serial_wall_us")?.int()?,
            cells,
        })
    }

    /// Aggregate serial throughput of the document, events per second.
    pub fn events_per_sec(&self) -> f64 {
        crate::perf::CellPerf::events_per_sec(self.total_events, self.serial_wall_us)
    }
}

/// One cell's delta between two documents.
#[derive(Debug, Clone, PartialEq)]
pub struct CellDelta {
    /// Cell id shared by both documents.
    pub id: String,
    /// Old wall-clock, µs.
    pub old_wall_us: u64,
    /// New wall-clock, µs.
    pub new_wall_us: u64,
    /// `(new - old) / old`, percent; positive means slower.
    pub delta_pct: f64,
    /// Whether the deterministic event counts agree. A mismatch means the
    /// two documents measured different simulation semantics.
    pub events_match: bool,
    /// Whether `delta_pct` exceeds the tolerance — a perf regression.
    pub regression: bool,
}

/// The result of comparing two bench documents cell-by-cell.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    /// Matrix both documents measured.
    pub matrix: String,
    /// Noise tolerance applied, percent.
    pub tolerance_pct: f64,
    /// Old document's serial wall, µs.
    pub old_serial_wall_us: u64,
    /// New document's serial wall, µs.
    pub new_serial_wall_us: u64,
    /// Whole-matrix serial-wall delta, percent; positive means slower.
    pub serial_delta_pct: f64,
    /// Per-cell deltas, in the old document's cell order.
    pub cells: Vec<CellDelta>,
}

fn pct(old: u64, new: u64) -> f64 {
    if old == 0 {
        return 0.0;
    }
    (new as f64 - old as f64) * 100.0 / old as f64
}

/// Compares `new` against `old` under a noise tolerance (percent).
///
/// Errors (rather than reporting) when the documents are not comparable:
/// different matrices, or different cell sets.
pub fn diff(old: &BenchDoc, new: &BenchDoc, tolerance_pct: f64) -> Result<DiffReport, String> {
    if old.matrix != new.matrix {
        return Err(format!(
            "documents measure different matrices ({:?} vs {:?})",
            old.matrix, new.matrix
        ));
    }
    let mut cells = Vec::with_capacity(old.cells.len());
    for old_cell in &old.cells {
        let new_cell =
            new.cells.iter().find(|c| c.id == old_cell.id).ok_or_else(|| {
                format!("cell {:?} is missing from the new document", old_cell.id)
            })?;
        let delta_pct = pct(old_cell.wall_us, new_cell.wall_us);
        cells.push(CellDelta {
            id: old_cell.id.clone(),
            old_wall_us: old_cell.wall_us,
            new_wall_us: new_cell.wall_us,
            delta_pct,
            events_match: old_cell.events == new_cell.events,
            regression: delta_pct > tolerance_pct,
        });
    }
    if let Some(extra) = new.cells.iter().find(|c| !old.cells.iter().any(|o| o.id == c.id)) {
        return Err(format!("cell {:?} is missing from the old document", extra.id));
    }
    Ok(DiffReport {
        matrix: old.matrix.clone(),
        tolerance_pct,
        old_serial_wall_us: old.serial_wall_us,
        new_serial_wall_us: new.serial_wall_us,
        serial_delta_pct: pct(old.serial_wall_us, new.serial_wall_us),
        cells,
    })
}

impl DiffReport {
    /// Number of cells beyond the tolerance — non-zero fails `bench diff`.
    pub fn regressions(&self) -> usize {
        self.cells.iter().filter(|c| c.regression).count()
    }

    /// Number of cells whose deterministic event counts disagree.
    pub fn events_mismatches(&self) -> usize {
        self.cells.iter().filter(|c| !c.events_match).count()
    }

    /// Renders the per-cell and per-matrix delta tables.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<40} {:>12} {:>12} {:>9}  flags",
            "cell", "old-wall-us", "new-wall-us", "delta"
        );
        for c in &self.cells {
            let mut flags = String::new();
            if c.regression {
                flags.push_str("REGRESSION");
            }
            if !c.events_match {
                if !flags.is_empty() {
                    flags.push(' ');
                }
                flags.push_str("EVENTS-DRIFT");
            }
            let _ = writeln!(
                out,
                "{:<40} {:>12} {:>12} {:>+8.1}%  {}",
                c.id, c.old_wall_us, c.new_wall_us, c.delta_pct, flags
            );
        }
        let _ = writeln!(
            out,
            "\nmatrix {:<12} serial wall {} -> {} us ({:+.1}%), tolerance {:.1}%: \
             {} regression(s), {} event-count mismatch(es)",
            self.matrix,
            self.old_serial_wall_us,
            self.new_serial_wall_us,
            self.serial_delta_pct,
            self.tolerance_pct,
            self.regressions(),
            self.events_mismatches(),
        );
        out
    }

    /// Renders the `lbica-bench-diff/v1` report document.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"schema\": \"{BENCH_DIFF_SCHEMA}\",");
        let _ = writeln!(out, "  \"matrix\": \"{}\",", escape::json(&self.matrix));
        let _ = writeln!(out, "  \"tolerance_pct\": {:.3},", self.tolerance_pct);
        let _ = writeln!(out, "  \"old_serial_wall_us\": {},", self.old_serial_wall_us);
        let _ = writeln!(out, "  \"new_serial_wall_us\": {},", self.new_serial_wall_us);
        let _ = writeln!(out, "  \"serial_delta_pct\": {:.3},", self.serial_delta_pct);
        let _ = writeln!(out, "  \"regressions\": {},", self.regressions());
        let _ = writeln!(out, "  \"events_mismatches\": {},", self.events_mismatches());
        let _ = writeln!(out, "  \"cells\": [");
        for (i, c) in self.cells.iter().enumerate() {
            let comma = if i + 1 < self.cells.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"id\": \"{}\", \"old_wall_us\": {}, \"new_wall_us\": {}, \
                 \"delta_pct\": {:.3}, \"events_match\": {}, \"regression\": {}}}{comma}",
                escape::json(&c.id),
                c.old_wall_us,
                c.new_wall_us,
                c.delta_pct,
                c.events_match,
                c.regression,
            );
        }
        let _ = writeln!(out, "  ]");
        let _ = write!(out, "}}");
        out
    }
}

/// Folds parsed documents, in the order given, into a trajectory table —
/// one row per document. Documents may measure different matrices (the
/// matrix is a column); the table is a ledger, not a comparison.
pub fn history_table(docs: &[BenchDoc]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>3}  {:<12} {:>6} {:>14} {:>16} {:>14}",
        "#", "matrix", "cells", "total-events", "serial-wall-us", "events/sec"
    );
    for (i, doc) in docs.iter().enumerate() {
        let _ = writeln!(
            out,
            "{:>3}  {:<12} {:>6} {:>14} {:>16} {:>14.0}",
            i + 1,
            doc.matrix,
            doc.cells.len(),
            doc.total_events,
            doc.serial_wall_us,
            doc.events_per_sec(),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::{CellPerf, ScalingPoint, ThroughputRun};
    use lbica_obs::validate::bench_diff_json;

    fn run(walls: [u64; 2]) -> ThroughputRun {
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
            jobs: 1,
            iters: 1,
            detected_cores: 1,
            cells: vec![
                cell("tpcc/paper/WB/s1", walls[0], 400_000),
                cell("tpcc/paper/LBICA/s1", walls[1], 100_000),
            ],
            parallel_wall_us: walls[0] + walls[1],
            scaling: vec![ScalingPoint { jobs: 1, wall_us: walls[0] + walls[1] }],
        }
    }

    #[test]
    fn parse_roundtrips_the_rendered_document() {
        let r = run([50_000, 25_000]);
        let doc = BenchDoc::parse(&r.render_json(None)).expect("parseable document");
        assert_eq!(doc.matrix, "paper");
        assert_eq!(doc.total_events, 500_000);
        assert_eq!(doc.serial_wall_us, 75_000);
        assert_eq!(doc.cells.len(), 2);
        assert_eq!(doc.cells[0].id, "tpcc/paper/WB/s1");
        assert_eq!(doc.cells[0].wall_us, 50_000);
        assert_eq!(doc.cells[1].events, 100_000);
    }

    #[test]
    fn parse_rejects_broken_documents() {
        assert!(BenchDoc::parse("{}").is_err());
        let text = run([1, 1]).render_json(None);
        assert!(BenchDoc::parse(&text.replace(SCHEMA, "other/v9")).is_err());
        assert!(BenchDoc::parse(&text.replace("\"id\": ", "\"di\": ")).is_err());
    }

    #[test]
    fn flipped_and_truncated_ledgers_read_without_panicking() {
        let text = run([50_000, 25_000]).render_json(None);
        let mut bytes = text.clone().into_bytes();
        for at in (0..bytes.len()).step_by(3) {
            for bit in [0, 3, 6] {
                bytes[at] ^= 1 << bit;
                let mutated = String::from_utf8_lossy(&bytes);
                let _ = crate::perf::validate_report(&mutated);
                if let Ok(doc) = BenchDoc::parse(&mutated) {
                    let _ = diff(&doc, &doc, 0.0).map(|report| report.render_json());
                }
                bytes[at] ^= 1 << bit;
            }
            assert!(BenchDoc::parse(&text[..at]).is_err(), "truncation to {at} parsed");
        }
    }

    #[test]
    fn one_line_documents_read_like_the_rendered_layout() {
        let text = run([50_000, 25_000]).render_json(None);
        let one_line = text.replace('\n', "");
        assert_eq!(BenchDoc::parse(&one_line), BenchDoc::parse(&text));
        crate::perf::validate_report(&one_line).expect("layout carries no meaning");
        let garbled = text.replacen("\"jobs\": 1,", "\"jobs\": 1, ,,, garbage :::", 1);
        assert_ne!(garbled, text);
        assert!(BenchDoc::parse(&garbled).is_err());
        assert!(crate::perf::validate_report(&garbled).is_err());
    }

    #[test]
    fn self_comparison_has_no_regressions() {
        let doc = BenchDoc::parse(&run([50_000, 25_000]).render_json(None)).unwrap();
        let report = diff(&doc, &doc, 0.0).expect("comparable");
        assert_eq!(report.regressions(), 0);
        assert_eq!(report.events_mismatches(), 0);
        assert_eq!(report.serial_delta_pct, 0.0);
    }

    #[test]
    fn regression_beyond_tolerance_is_flagged() {
        let old = BenchDoc::parse(&run([50_000, 25_000]).render_json(None)).unwrap();
        let new = BenchDoc::parse(&run([80_000, 25_000]).render_json(None)).unwrap();
        // +60% on cell 0; tolerance 20% flags it, tolerance 100% does not.
        let strict = diff(&old, &new, 20.0).unwrap();
        assert_eq!(strict.regressions(), 1);
        assert!(strict.cells[0].regression);
        assert!(!strict.cells[1].regression);
        let lax = diff(&old, &new, 100.0).unwrap();
        assert_eq!(lax.regressions(), 0);
        // An improvement is never a regression, at any tolerance.
        let improved = diff(&new, &old, 0.0).unwrap();
        assert_eq!(improved.regressions(), 0);
    }

    #[test]
    fn event_count_drift_is_reported_but_not_a_regression() {
        let old = BenchDoc::parse(&run([50_000, 25_000]).render_json(None)).unwrap();
        let mut drifted = old.clone();
        drifted.cells[1].events += 7;
        let report = diff(&old, &drifted, 50.0).unwrap();
        assert_eq!(report.events_mismatches(), 1);
        assert_eq!(report.regressions(), 0);
        assert!(report.render_table().contains("EVENTS-DRIFT"));
    }

    #[test]
    fn incomparable_documents_are_errors() {
        let a = BenchDoc::parse(&run([1, 1]).render_json(None)).unwrap();
        let mut other_matrix = a.clone();
        other_matrix.matrix = "tiny".to_string();
        assert!(diff(&a, &other_matrix, 0.0).is_err());
        let mut missing_cell = a.clone();
        missing_cell.cells.pop();
        assert!(diff(&a, &missing_cell, 0.0).is_err());
        assert!(diff(&missing_cell, &a, 0.0).is_err());
    }

    #[test]
    fn rendered_report_passes_the_obs_validator() {
        let doc = BenchDoc::parse(&run([50_000, 25_000]).render_json(None)).unwrap();
        let report = diff(&doc, &doc, 10.0).unwrap();
        let json = report.render_json();
        let stats = bench_diff_json(&json).expect("validator accepts the report");
        assert_eq!(stats.cells, 2);
        assert_eq!(stats.regressions, 0);
    }

    #[test]
    fn history_table_has_one_row_per_document() {
        let a = BenchDoc::parse(&run([50_000, 25_000]).render_json(None)).unwrap();
        let b = BenchDoc::parse(&run([40_000, 20_000]).render_json(None)).unwrap();
        let table = history_table(&[a, b]);
        assert_eq!(table.lines().count(), 3);
        assert!(table.lines().next().unwrap().contains("events/sec"));
    }
}
