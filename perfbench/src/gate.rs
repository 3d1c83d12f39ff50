//! The correctness gate every cell must pass.
//!
//! A cell fails if any of these breaks:
//!
//! * request conservation: `app_completed` equals the records generated;
//! * the traced replay's report equals the untraced run's;
//! * (`replay-ckpt`) the checkpointed run's report equals the unsplit run's;
//! * (`paper`, canonical seed) `events` and `app_completed` equal the flat
//!   cells of the committed `BENCH_sim.json`;
//! * (every timed pass) the report equals the gate pass's, so each timed
//!   pass did the same work.

use lbica_sim::SimulationReport;
use lbica_trace::workload::WorkloadScale;

use crate::pass::CellReport;
use crate::workload::{CellKey, Inputs, Workload, CANONICAL_SEED};

/// The perf ledger whose flat `paper` cells pin the canonical seed.
const BENCH_SIM_JSON: &str = include_str!("../../BENCH_sim.json");

/// Attempted and failed cells, with the first few failure messages.
#[derive(Debug, Default, Clone)]
pub struct Gate {
    /// Cells checked.
    pub attempted: u64,
    /// Cells that broke at least one check.
    pub failed: u64,
    /// Why, for the first failures.
    pub failures: Vec<String>,
}

impl Gate {
    fn record(&mut self, id: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(format!("{id}: {}", problems.join("; ")));
            }
        }
    }

    /// Checks the gate pass: the untraced reports against the traced ones,
    /// the records each traced cell generated, the unsplit references
    /// (`replay-ckpt`) and the committed ledger (`paper`).
    pub fn check_cells(
        &mut self,
        inputs: &Inputs,
        keys: &[CellKey],
        untraced: &[CellReport],
        traced: &[CellReport],
        records: &[u64],
        unsplit: Option<&[CellReport]>,
    ) {
        // The ledger pins harness-scale cells only.
        let ledger =
            inputs.workload == Workload::Paper && inputs.scale.workload == WorkloadScale::harness();
        for (i, key) in keys.iter().enumerate() {
            let mut problems = Vec::new();
            match (&untraced[i], &traced[i]) {
                (Ok(u), Ok(t)) => {
                    if u.app_completed != records[i] {
                        problems.push(format!(
                            "conservation: {} completed of {} generated",
                            u.app_completed, records[i]
                        ));
                    }
                    if let Some(diff) = first_difference(u, t) {
                        problems.push(format!("traced replay differs in {diff}"));
                    }
                    if let Some(unsplit) = unsplit {
                        match &unsplit[i] {
                            Ok(r) => {
                                if let Some(diff) = first_difference(r, u) {
                                    problems.push(format!("checkpointed run differs in {diff}"));
                                }
                            }
                            Err(e) => problems.push(format!("unsplit run failed: {e}")),
                        }
                    }
                    if ledger && key.seed == CANONICAL_SEED {
                        match ledger_cell(&key.id) {
                            Some((events, completed)) => {
                                if (u.perf.events_processed, u.app_completed) != (events, completed)
                                {
                                    problems.push(format!(
                                        "ledger: events/app_completed {}/{} != {events}/{completed}",
                                        u.perf.events_processed, u.app_completed
                                    ));
                                }
                            }
                            None => problems.push("ledger has no such cell".to_string()),
                        }
                    }
                }
                (u, t) => {
                    for e in [u, t].into_iter().filter_map(|r| r.as_ref().err()) {
                        problems.push(e.clone());
                    }
                }
            }
            self.record(&key.id, problems);
        }
    }

    /// Checks a timed pass's reports against the gate pass's.
    pub fn check_repeat(&mut self, keys: &[CellKey], reference: &[CellReport], run: &[CellReport]) {
        for (i, key) in keys.iter().enumerate() {
            let problems = match (&reference[i], &run[i]) {
                (Ok(a), Ok(b)) => first_difference(a, b)
                    .map(|d| vec![format!("repeat differs in {d}")])
                    .unwrap_or_default(),
                (_, Err(e)) | (Err(e), _) => vec![e.clone()],
            };
            self.record(&key.id, problems);
        }
    }
}

/// Names the first field in which two reports differ.
fn first_difference(a: &SimulationReport, b: &SimulationReport) -> Option<&'static str> {
    let fields: [(&'static str, bool); 8] = [
        ("events", a.perf.events_processed == b.perf.events_processed),
        ("app_completed", a.app_completed == b.app_completed),
        ("p50", a.app_p50_latency_us == b.app_p50_latency_us),
        ("p99", a.app_p99_latency_us == b.app_p99_latency_us),
        ("intervals", a.intervals == b.intervals),
        ("policy_changes", a.policy_changes == b.policy_changes),
        ("cache_stats", a.cache_stats == b.cache_stats),
        ("report", a == b),
    ];
    fields.into_iter().find(|(_, same)| !same).map(|(name, _)| name)
}

/// `(events, app_completed)` of ledger cell `id` in `BENCH_sim.json`.
fn ledger_cell(id: &str) -> Option<(u64, u64)> {
    let key = format!("\"id\": \"{id}\"");
    let line = BENCH_SIM_JSON.lines().find(|l| l.contains(&key))?;
    Some((json_u64(line, "events")?, json_u64(line, "app_completed")?))
}

fn json_u64(line: &str, field: &str) -> Option<u64> {
    let key = format!("\"{field}\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_holds_the_nine_flat_paper_cells() {
        for workload in ["tpcc", "mail-server", "web-server"] {
            for controller in ["WB", "SIB", "LBICA"] {
                let id = format!("{workload}/paper/{controller}/s{CANONICAL_SEED}");
                let (events, completed) = ledger_cell(&id).expect("cell in the ledger");
                assert!(events > completed && completed > 0, "{id}");
            }
        }
        assert_eq!(ledger_cell("tpcc/paper/WB/s454860800"), Some((396_203, 160_072)));
    }
}
