//! Serializable partial sweeps: the shard-and-merge layer of a
//! distributed sweep.
//!
//! A sweep of a [`ScenarioMatrix`] distributes across processes (or
//! machines) as N contiguous cell ranges ([`ScenarioMatrix::shard`]).
//! Each shard runs its range and emits a [`PartialSweep`]: a versioned
//! header identifying *which* matrix and *which* shard, plus one
//! [`CellSummary`] per cell — exactly the integer quantities the
//! [`Aggregator`] folds. [`PartialSweep::merge`]
//! validates that a set of partials is complete and mutually compatible,
//! then folds every cell through the same aggregation arithmetic a
//! single-process sweep uses, so the merged summary — and therefore the
//! CSV/JSON sink output — is byte-identical to running the whole matrix
//! in one process.
//!
//! The JSON document is rendered by hand in the same style as
//! [`JsonSink`](crate::JsonSink) and read back with the workspace's JSON
//! reader, [`lbica_obs::json`]; its schema is versioned by
//! [`PARTIAL_SCHEMA`] and documented in `docs/ARCHITECTURE.md`.

use std::fmt;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;
use std::sync::Mutex;

use lbica_obs::escape;
use lbica_obs::json::{self, Node};

use crate::aggregate::{Aggregator, CellSummary, SweepSummary};
use crate::executor::SweepExecutor;
use crate::matrix::{CellRange, ScenarioMatrix};
use crate::telemetry::{NullTelemetry, TelemetryHook};

/// Schema identifier stamped into (and required of) every partial-sweep
/// document. Bump the `/v2` suffix on any incompatible layout change;
/// merge refuses documents written by a different version outright.
/// (`/v2` added the per-cell latency percentile fields.)
pub const PARTIAL_SCHEMA: &str = "lbica-partial-sweep/v2";

/// The output of one shard of a distributed sweep: a compatibility header
/// plus the per-cell summaries of the shard's cell range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartialSweep {
    /// Name of the matrix the shard ran (keys the merged output files).
    pub matrix: String,
    /// [`ScenarioMatrix::fingerprint`] of the matrix definition.
    pub fingerprint: u64,
    /// Which shard this is, `0..shard_count`.
    pub shard_index: usize,
    /// Total number of shards the matrix was split into.
    pub shard_count: usize,
    /// Total number of cells in the (whole) matrix.
    pub cells_total: usize,
    /// The contiguous cell range this shard ran.
    pub range: CellRange,
    /// One summary per cell of `range`, in enumeration order.
    pub cells: Vec<CellSummary>,
}

impl PartialSweep {
    /// Runs shard `shard_index` of `shard_count` of `matrix` on
    /// `executor` and collects the partial. `matrix_name` is recorded in
    /// the header so `merge` can name its output files.
    ///
    /// # Panics
    ///
    /// Panics if `shard_count == 0` or `shard_index >= shard_count`.
    pub fn collect(
        executor: &SweepExecutor,
        matrix: &ScenarioMatrix,
        matrix_name: &str,
        shard_index: usize,
        shard_count: usize,
    ) -> Self {
        Self::collect_with_telemetry(
            executor,
            matrix,
            matrix_name,
            shard_index,
            shard_count,
            &NullTelemetry,
        )
    }

    /// [`PartialSweep::collect`] with full execution telemetry: the hook
    /// sees the shard's start, every cell completion (with wall-clock
    /// timings) and the final worker-utilization summary. The collected
    /// partial reads only deterministic simulation quantities and is
    /// byte-identical for any `jobs` and any hook.
    pub fn collect_with_telemetry(
        executor: &SweepExecutor,
        matrix: &ScenarioMatrix,
        matrix_name: &str,
        shard_index: usize,
        shard_count: usize,
        hook: &dyn TelemetryHook,
    ) -> Self {
        let range = matrix.shard(shard_index, shard_count);
        let slots: Mutex<Vec<Option<CellSummary>>> = Mutex::new(vec![None; range.len()]);
        executor.run_with_telemetry(
            matrix,
            range,
            matrix_name,
            hook,
            None,
            |index, scenario, report| {
                let cell = CellSummary::capture(index, scenario, report);
                slots.lock().expect("slot lock")[index - range.start] = Some(cell);
            },
        );
        let cells = slots
            .into_inner()
            .expect("slot lock")
            .into_iter()
            .map(|c| c.expect("every cell in the range produced a summary"))
            .collect();
        PartialSweep {
            matrix: matrix_name.to_string(),
            fingerprint: matrix.fingerprint(),
            shard_index,
            shard_count,
            cells_total: matrix.len(),
            range,
            cells,
        }
    }

    /// Renders the partial as a JSON document (one cell per line).
    pub fn render(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"schema\": \"{PARTIAL_SCHEMA}\",");
        let _ = writeln!(out, "  \"matrix\": \"{}\",", escape::json(&self.matrix));
        let _ = writeln!(out, "  \"fingerprint\": \"{:016x}\",", self.fingerprint);
        let _ = writeln!(out, "  \"shard_index\": {},", self.shard_index);
        let _ = writeln!(out, "  \"shard_count\": {},", self.shard_count);
        let _ = writeln!(out, "  \"cells_total\": {},", self.cells_total);
        let _ = writeln!(out, "  \"cell_start\": {},", self.range.start);
        let _ = writeln!(out, "  \"cell_end\": {},", self.range.end);
        out.push_str("  \"cells\": [");
        for (i, cell) in self.cells.iter().enumerate() {
            out.push_str(if i > 0 { ",\n    " } else { "\n    " });
            let _ = write!(
                out,
                "{{\"index\": {}, \"id\": \"{}\", \"workload\": \"{}\", \"config\": \"{}\", \
                 \"controller\": \"{}\", \"seed\": {}, \"app_completed\": {}, \
                 \"avg_latency_us\": {}, \"p50_latency_us\": {}, \"p95_latency_us\": {}, \
                 \"p99_latency_us\": {}, \"max_latency_us\": {}, \"intervals\": {}, \
                 \"cache_load_sum_us\": {}, \"disk_load_sum_us\": {}, \
                 \"policy_changes\": {}, \"bypassed_requests\": {}, \"burst_intervals\": {}}}",
                cell.index,
                escape::json(&cell.id),
                escape::json(&cell.workload),
                escape::json(&cell.config),
                escape::json(&cell.controller),
                cell.seed,
                cell.app_completed,
                cell.avg_latency_us,
                cell.p50_latency_us,
                cell.p95_latency_us,
                cell.p99_latency_us,
                cell.max_latency_us,
                cell.intervals,
                cell.cache_load_sum_us,
                cell.disk_load_sum_us,
                cell.policy_changes,
                cell.bypassed_requests,
                cell.burst_intervals,
            );
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Renders and writes the partial to `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_to(&self, path: &Path) -> io::Result<()> {
        fs::write(path, self.render())
    }

    /// Parses a partial-sweep JSON document, validating the schema
    /// version and the document's internal consistency (shard arithmetic,
    /// cell count, cell indices).
    ///
    /// # Errors
    ///
    /// [`PartialError::Parse`] for malformed JSON or missing/mistyped
    /// fields, [`PartialError::Schema`] for an unknown schema version and
    /// [`PartialError::Invalid`] for a well-formed document whose header
    /// and cells disagree.
    pub fn parse(text: &str) -> Result<Self, PartialError> {
        let doc = json::parse(text)?;
        let root = doc.root();
        let schema = root.get("schema")?.str()?;
        if schema != PARTIAL_SCHEMA {
            return Err(PartialError::Schema(schema.to_string()));
        }
        let fingerprint = root.get("fingerprint")?;
        let fingerprint_hex = fingerprint.str()?;
        let partial = PartialSweep {
            matrix: root.get("matrix")?.str()?.to_string(),
            fingerprint: u64::from_str_radix(fingerprint_hex, 16)
                .map_err(|_| fingerprint.error(format!("not a hex u64: `{fingerprint_hex}`")))?,
            shard_index: root.get("shard_index")?.int()?,
            shard_count: root.get("shard_count")?.int()?,
            cells_total: root.get("cells_total")?.int()?,
            range: CellRange {
                start: root.get("cell_start")?.int()?,
                end: root.get("cell_end")?.int()?,
            },
            cells: root
                .get("cells")?
                .items()?
                .iter()
                .map(Self::parse_cell)
                .collect::<Result<Vec<_>, _>>()?,
        };
        partial.validate()?;
        Ok(partial)
    }

    /// Reads and parses the partial at `path`.
    ///
    /// # Errors
    ///
    /// Filesystem errors surface as [`PartialError::Parse`] with the
    /// path in the message; everything else as [`PartialSweep::parse`].
    pub fn read_from(path: &Path) -> Result<Self, PartialError> {
        let text = fs::read_to_string(path)
            .map_err(|e| PartialError::Parse(format!("cannot read {}: {e}", path.display())))?;
        Self::parse(&text)
    }

    fn parse_cell(cell: &Node<'_>) -> Result<CellSummary, json::Error> {
        Ok(CellSummary {
            index: cell.get("index")?.int()?,
            id: cell.get("id")?.str()?.to_string(),
            workload: cell.get("workload")?.str()?.to_string(),
            config: cell.get("config")?.str()?.to_string(),
            controller: cell.get("controller")?.str()?.to_string(),
            seed: cell.get("seed")?.int()?,
            app_completed: cell.get("app_completed")?.int()?,
            avg_latency_us: cell.get("avg_latency_us")?.int()?,
            p50_latency_us: cell.get("p50_latency_us")?.int()?,
            p95_latency_us: cell.get("p95_latency_us")?.int()?,
            p99_latency_us: cell.get("p99_latency_us")?.int()?,
            max_latency_us: cell.get("max_latency_us")?.int()?,
            intervals: cell.get("intervals")?.int()?,
            cache_load_sum_us: cell.get("cache_load_sum_us")?.int()?,
            disk_load_sum_us: cell.get("disk_load_sum_us")?.int()?,
            policy_changes: cell.get("policy_changes")?.int()?,
            bypassed_requests: cell.get("bypassed_requests")?.int()?,
            burst_intervals: cell.get("burst_intervals")?.int()?,
        })
    }

    fn validate(&self) -> Result<(), PartialError> {
        if self.shard_count == 0 {
            return Err(PartialError::Invalid("shard_count is zero".to_string()));
        }
        if self.shard_index >= self.shard_count {
            return Err(PartialError::Invalid(format!(
                "shard_index {} out of range for {} shard(s)",
                self.shard_index, self.shard_count
            )));
        }
        let expected = CellRange::shard_of(self.cells_total, self.shard_index, self.shard_count);
        if self.range != expected {
            return Err(PartialError::Invalid(format!(
                "cell range [{}, {}) does not match shard {}/{} of {} cells \
                 (expected [{}, {}))",
                self.range.start,
                self.range.end,
                self.shard_index,
                self.shard_count,
                self.cells_total,
                expected.start,
                expected.end,
            )));
        }
        if self.cells.len() != self.range.len() {
            return Err(PartialError::Invalid(format!(
                "shard {} carries {} cell(s) but its range holds {}",
                self.shard_index,
                self.cells.len(),
                self.range.len()
            )));
        }
        for (offset, cell) in self.cells.iter().enumerate() {
            let expected = self.range.start + offset;
            if cell.index != expected {
                return Err(PartialError::Invalid(format!(
                    "cell `{}` carries index {} where {} was expected",
                    cell.id, cell.index, expected
                )));
            }
        }
        Ok(())
    }

    /// Merges a complete, mutually compatible set of partials into the
    /// whole-matrix summary.
    ///
    /// Compatibility means: same matrix name, same
    /// [`ScenarioMatrix::fingerprint`], same shard count and cell total,
    /// and shard indices `0..shard_count` each present exactly once. The
    /// fold itself is order-independent (integer accumulators), so the
    /// partials may be passed in any order.
    ///
    /// # Errors
    ///
    /// A [`MergeError`] naming the first incompatibility found.
    pub fn merge(partials: &[PartialSweep]) -> Result<MergedSweep, MergeError> {
        let first = partials.first().ok_or(MergeError::Empty)?;
        let mut indices = Vec::with_capacity(partials.len());
        for p in partials {
            if p.matrix != first.matrix {
                return Err(MergeError::MatrixMismatch {
                    expected: first.matrix.clone(),
                    found: p.matrix.clone(),
                });
            }
            if p.fingerprint != first.fingerprint {
                return Err(MergeError::FingerprintMismatch {
                    expected: first.fingerprint,
                    found: p.fingerprint,
                });
            }
            if p.shard_count != first.shard_count {
                return Err(MergeError::ShardCountMismatch {
                    expected: first.shard_count,
                    found: p.shard_count,
                });
            }
            if p.cells_total != first.cells_total {
                return Err(MergeError::TotalMismatch {
                    expected: first.cells_total,
                    found: p.cells_total,
                });
            }
            indices.push(p.shard_index);
        }
        // Sorting the indices, rather than marking a table of
        // `shard_count` slots, keeps a forged count from sizing an
        // allocation.
        indices.sort_unstable();
        if let Some(pair) = indices.windows(2).find(|pair| pair[0] == pair[1]) {
            return Err(MergeError::DuplicateShard(pair[0]));
        }
        // Sorted and distinct, so shard `i` is present iff `indices[i] == i`.
        let missing =
            indices.iter().enumerate().position(|(i, &s)| i != s).unwrap_or(indices.len());
        if missing < first.shard_count {
            return Err(MergeError::MissingShard(missing));
        }
        let mut aggregator = Aggregator::new();
        for p in partials {
            for cell in &p.cells {
                aggregator.observe_cell(cell);
            }
        }
        Ok(MergedSweep {
            matrix: first.matrix.clone(),
            cells: aggregator.cells(),
            summary: aggregator.summary(),
        })
    }
}

/// The result of merging a complete set of [`PartialSweep`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct MergedSweep {
    /// The matrix name shared by the partials.
    pub matrix: String,
    /// Total cells folded across all shards.
    pub cells: u64,
    /// The whole-matrix summary — bit-identical to a single-process run.
    pub summary: SweepSummary,
}

/// Why a partial-sweep document could not be loaded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartialError {
    /// The document is not valid JSON, a field is missing or mistyped, or
    /// the file could not be read.
    Parse(String),
    /// The document's schema version is not [`PARTIAL_SCHEMA`].
    Schema(String),
    /// The document parsed but its header and cells are inconsistent.
    Invalid(String),
}

impl fmt::Display for PartialError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartialError::Parse(msg) => write!(f, "malformed partial sweep: {msg}"),
            PartialError::Schema(found) => write!(
                f,
                "unsupported partial-sweep schema `{found}` (this build reads `{PARTIAL_SCHEMA}`)"
            ),
            PartialError::Invalid(msg) => write!(f, "inconsistent partial sweep: {msg}"),
        }
    }
}

impl std::error::Error for PartialError {}

impl From<json::Error> for PartialError {
    fn from(e: json::Error) -> Self {
        PartialError::Parse(e.to_string())
    }
}

/// Why a set of [`PartialSweep`]s could not be merged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    /// No partials were given.
    Empty,
    /// Two partials name different matrices.
    MatrixMismatch {
        /// Matrix name of the first partial.
        expected: String,
        /// The conflicting matrix name.
        found: String,
    },
    /// Two partials carry different matrix fingerprints — they were run
    /// against different matrix definitions.
    FingerprintMismatch {
        /// Fingerprint of the first partial.
        expected: u64,
        /// The conflicting fingerprint.
        found: u64,
    },
    /// Two partials disagree on how many shards the sweep was split into.
    ShardCountMismatch {
        /// Shard count of the first partial.
        expected: usize,
        /// The conflicting shard count.
        found: usize,
    },
    /// Two partials disagree on the matrix's total cell count.
    TotalMismatch {
        /// Cell total of the first partial.
        expected: usize,
        /// The conflicting cell total.
        found: usize,
    },
    /// The same shard index appears more than once.
    DuplicateShard(usize),
    /// A shard index in `0..shard_count` has no partial.
    MissingShard(usize),
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::Empty => write!(f, "no partial sweeps to merge"),
            MergeError::MatrixMismatch { expected, found } => {
                write!(f, "partials name different matrices: `{expected}` vs `{found}`")
            }
            MergeError::FingerprintMismatch { expected, found } => write!(
                f,
                "partials were run against different matrix definitions \
                 (fingerprint {expected:016x} vs {found:016x})"
            ),
            MergeError::ShardCountMismatch { expected, found } => {
                write!(f, "partials disagree on the shard count: {expected} vs {found}")
            }
            MergeError::TotalMismatch { expected, found } => {
                write!(f, "partials disagree on the matrix cell total: {expected} vs {found}")
            }
            MergeError::DuplicateShard(index) => {
                write!(f, "shard {index} appears more than once")
            }
            MergeError::MissingShard(index) => write!(f, "shard {index} is missing"),
        }
    }
}

impl std::error::Error for MergeError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_partials(count: usize) -> Vec<PartialSweep> {
        let matrix = ScenarioMatrix::smoke();
        (0..count)
            .map(|i| PartialSweep::collect(&SweepExecutor::serial(), &matrix, "smoke", i, count))
            .collect()
    }

    #[test]
    fn render_parse_round_trips_exactly() {
        for partial in smoke_partials(2) {
            let parsed = PartialSweep::parse(&partial.render()).expect("round trip");
            assert_eq!(parsed, partial);
        }
    }

    #[test]
    fn non_ascii_and_escaped_strings_round_trip() {
        let mut partial = smoke_partials(1).remove(0);
        partial.matrix = "größe→\"q\"\\n".to_string();
        partial.cells[0].id = "tab\there\nline\u{1}ctl/😀".to_string();
        partial.cells[0].workload = "ünïcode only".to_string();
        partial.cells[0].config = "\\\"\\".to_string();
        let parsed = PartialSweep::parse(&partial.render()).expect("round trip");
        assert_eq!(parsed, partial);
        // `\/` and `\uXXXX` are accepted on input even though the renderer
        // never emits them.
        let value = json::parse(r#"{"s": "a\/b\u00e9c€"}"#).expect("valid JSON");
        assert_eq!(value.root().get("s").and_then(|s| s.str()).unwrap(), "a/béc€");
    }

    #[test]
    fn merged_partials_equal_a_single_process_aggregate() {
        let matrix = ScenarioMatrix::smoke();
        let single = SweepExecutor::serial().aggregate(&matrix);
        let partials = smoke_partials(3);
        let merged = PartialSweep::merge(&partials).expect("compatible partials");
        assert_eq!(merged.matrix, "smoke");
        assert_eq!(merged.cells, matrix.len() as u64);
        assert_eq!(merged.summary, single);
    }

    #[test]
    fn merge_is_order_independent() {
        let partials = smoke_partials(3);
        let forward = PartialSweep::merge(&partials).expect("merge");
        let shuffled = vec![partials[2].clone(), partials[0].clone(), partials[1].clone()];
        assert_eq!(PartialSweep::merge(&shuffled).expect("merge").summary, forward.summary);
    }

    #[test]
    fn merge_rejects_incomplete_and_inconsistent_sets() {
        let partials = smoke_partials(2);
        assert_eq!(PartialSweep::merge(&[]), Err(MergeError::Empty));
        assert_eq!(PartialSweep::merge(&partials[..1]), Err(MergeError::MissingShard(1)));
        let duplicated = vec![partials[0].clone(), partials[0].clone()];
        assert_eq!(PartialSweep::merge(&duplicated), Err(MergeError::DuplicateShard(0)));
        let mut other_count = partials[1].clone();
        other_count.shard_count = 3;
        // Re-fit the header so the partial itself stays self-consistent.
        other_count.range = CellRange::shard_of(other_count.cells_total, 1, 3);
        assert_eq!(
            PartialSweep::merge(&[partials[0].clone(), other_count]),
            Err(MergeError::ShardCountMismatch { expected: 2, found: 3 })
        );
        let mut other_matrix = partials[1].clone();
        other_matrix.matrix = "tiny".to_string();
        assert!(matches!(
            PartialSweep::merge(&[partials[0].clone(), other_matrix]),
            Err(MergeError::MatrixMismatch { .. })
        ));
        let mut other_fingerprint = partials[1].clone();
        other_fingerprint.fingerprint ^= 1;
        assert!(matches!(
            PartialSweep::merge(&[partials[0].clone(), other_fingerprint]),
            Err(MergeError::FingerprintMismatch { .. })
        ));
    }

    #[test]
    fn a_forged_shard_count_is_a_missing_shard_not_an_allocation() {
        let mut forged = smoke_partials(1).remove(0);
        forged.shard_count = usize::MAX / 2;
        forged.cells_total = 0;
        forged.range = CellRange::shard_of(0, 0, forged.shard_count);
        forged.cells.clear();
        let parsed = PartialSweep::parse(&forged.render()).expect("self-consistent partial");
        assert_eq!(PartialSweep::merge(&[parsed]), Err(MergeError::MissingShard(1)));
    }

    #[test]
    fn flipped_and_truncated_partials_parse_and_merge_without_panicking() {
        let text = smoke_partials(2).remove(0).render();
        let mut bytes = text.clone().into_bytes();
        for at in (0..bytes.len()).step_by(3) {
            for bit in [0, 3, 6] {
                bytes[at] ^= 1 << bit;
                if let Ok(partial) = PartialSweep::parse(&String::from_utf8_lossy(&bytes)) {
                    let _ = PartialSweep::merge(&[partial]);
                }
                bytes[at] ^= 1 << bit;
            }
            assert!(PartialSweep::parse(&text[..at]).is_err(), "truncation to {at} parsed");
        }
    }

    #[test]
    fn parse_rejects_foreign_schemas_and_malformed_documents() {
        let good = smoke_partials(1).remove(0).render();
        let foreign = good.replace(PARTIAL_SCHEMA, "lbica-partial-sweep/v0");
        assert!(matches!(PartialSweep::parse(&foreign), Err(PartialError::Schema(_))));
        assert!(matches!(PartialSweep::parse("not json"), Err(PartialError::Parse(_))));
        assert!(matches!(PartialSweep::parse("{}"), Err(PartialError::Parse(_))));
        let truncated = &good[..good.len() / 2];
        assert!(matches!(PartialSweep::parse(truncated), Err(PartialError::Parse(_))));
        let trailing = format!("{good}garbage");
        assert!(matches!(PartialSweep::parse(&trailing), Err(PartialError::Parse(_))));
    }

    #[test]
    fn parse_rejects_internally_inconsistent_documents() {
        let partial = smoke_partials(2).remove(0);
        // A cell range that does not match the shard arithmetic.
        let skewed = partial.render().replacen("\"cell_start\": 0", "\"cell_start\": 1", 1);
        assert!(matches!(PartialSweep::parse(&skewed), Err(PartialError::Invalid(_))));
        // A shard index outside the shard count.
        let out_of_range = partial.render().replacen("\"shard_index\": 0", "\"shard_index\": 7", 1);
        assert!(matches!(PartialSweep::parse(&out_of_range), Err(PartialError::Invalid(_))));
    }

    #[test]
    fn errors_render_actionable_messages() {
        let err = MergeError::FingerprintMismatch { expected: 0xabc, found: 0xdef };
        assert!(err.to_string().contains("different matrix definitions"));
        assert!(MergeError::MissingShard(3).to_string().contains("shard 3 is missing"));
        assert!(PartialError::Schema("x/v9".into()).to_string().contains(PARTIAL_SCHEMA));
    }

    #[test]
    fn write_and_read_round_trip_through_the_filesystem() {
        let partial = smoke_partials(1).remove(0);
        let dir = std::env::temp_dir().join("lbica-partial-test");
        fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("part_0.json");
        partial.write_to(&path).expect("write");
        assert_eq!(PartialSweep::read_from(&path).expect("read"), partial);
        assert!(matches!(
            PartialSweep::read_from(&dir.join("nope.json")),
            Err(PartialError::Parse(_))
        ));
        let _ = fs::remove_dir_all(&dir);
    }
}
