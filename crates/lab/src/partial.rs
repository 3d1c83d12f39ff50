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
//! The JSON document is hand-rolled in the same style as
//! [`JsonSink`](crate::JsonSink) (the build environment has no
//! `serde_json`); its schema is versioned by [`PARTIAL_SCHEMA`] and
//! documented in `docs/ARCHITECTURE.md`.

use std::fmt;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;
use std::sync::Mutex;

use crate::aggregate::{Aggregator, CellSummary, SweepSummary};
use crate::executor::SweepExecutor;
use crate::matrix::{CellRange, ScenarioMatrix};
use crate::sink::json_string;
use crate::telemetry::{NullTelemetry, ProgressHook, TelemetryHook};

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

    /// [`PartialSweep::collect`] with a `(completed, shard_total)`
    /// progress callback invoked after every cell.
    pub fn collect_with_progress(
        executor: &SweepExecutor,
        matrix: &ScenarioMatrix,
        matrix_name: &str,
        shard_index: usize,
        shard_count: usize,
        progress: impl Fn(usize, usize) + Sync,
    ) -> Self {
        Self::collect_with_telemetry(
            executor,
            matrix,
            matrix_name,
            shard_index,
            shard_count,
            &ProgressHook(progress),
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
        let _ = writeln!(out, "  \"schema\": {},", json_string(PARTIAL_SCHEMA));
        let _ = writeln!(out, "  \"matrix\": {},", json_string(&self.matrix));
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
                "{{\"index\": {}, \"id\": {}, \"workload\": {}, \"config\": {}, \
                 \"controller\": {}, \"seed\": {}, \"app_completed\": {}, \
                 \"avg_latency_us\": {}, \"p50_latency_us\": {}, \"p95_latency_us\": {}, \
                 \"p99_latency_us\": {}, \"max_latency_us\": {}, \"intervals\": {}, \
                 \"cache_load_sum_us\": {}, \"disk_load_sum_us\": {}, \
                 \"policy_changes\": {}, \"bypassed_requests\": {}, \"burst_intervals\": {}}}",
                cell.index,
                json_string(&cell.id),
                json_string(&cell.workload),
                json_string(&cell.config),
                json_string(&cell.controller),
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
        let schema = doc.str_field("schema")?;
        if schema != PARTIAL_SCHEMA {
            return Err(PartialError::Schema(schema.to_string()));
        }
        let fingerprint_hex = doc.str_field("fingerprint")?;
        let fingerprint = u64::from_str_radix(fingerprint_hex, 16).map_err(|_| {
            PartialError::Parse(format!("`fingerprint` is not a hex u64: `{fingerprint_hex}`"))
        })?;
        let partial = PartialSweep {
            matrix: doc.str_field("matrix")?.to_string(),
            fingerprint,
            shard_index: doc.usize_field("shard_index")?,
            shard_count: doc.usize_field("shard_count")?,
            cells_total: doc.usize_field("cells_total")?,
            range: CellRange {
                start: doc.usize_field("cell_start")?,
                end: doc.usize_field("cell_end")?,
            },
            cells: doc
                .array_field("cells")?
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

    fn parse_cell(value: &json::Value) -> Result<CellSummary, PartialError> {
        Ok(CellSummary {
            index: value.usize_field("index")?,
            id: value.str_field("id")?.to_string(),
            workload: value.str_field("workload")?.to_string(),
            config: value.str_field("config")?.to_string(),
            controller: value.str_field("controller")?.to_string(),
            seed: value.u64_field("seed")?,
            app_completed: value.u64_field("app_completed")?,
            avg_latency_us: value.u64_field("avg_latency_us")?,
            p50_latency_us: value.u64_field("p50_latency_us")?,
            p95_latency_us: value.u64_field("p95_latency_us")?,
            p99_latency_us: value.u64_field("p99_latency_us")?,
            max_latency_us: value.u64_field("max_latency_us")?,
            intervals: value.u64_field("intervals")?,
            cache_load_sum_us: value.u128_field("cache_load_sum_us")?,
            disk_load_sum_us: value.u128_field("disk_load_sum_us")?,
            policy_changes: value.u64_field("policy_changes")?,
            bypassed_requests: value.u64_field("bypassed_requests")?,
            burst_intervals: value.u64_field("burst_intervals")?,
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
        let mut seen = vec![false; first.shard_count];
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
            if std::mem::replace(&mut seen[p.shard_index], true) {
                return Err(MergeError::DuplicateShard(p.shard_index));
            }
        }
        if let Some(missing) = seen.iter().position(|s| !s) {
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

/// A minimal strict JSON reader for the partial-sweep document: objects,
/// arrays, strings and non-negative integers (the only shapes the schema
/// uses). Anything else — floats, negatives, booleans, `null`, trailing
/// garbage — is a parse error, which doubles as validation.
mod json {
    use super::PartialError;

    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum Value {
        Object(Vec<(String, Value)>),
        Array(Vec<Value>),
        Str(String),
        Num(u128),
    }

    impl Value {
        fn field(&self, name: &str) -> Result<&Value, PartialError> {
            match self {
                Value::Object(fields) => fields
                    .iter()
                    .find(|(k, _)| k == name)
                    .map(|(_, v)| v)
                    .ok_or_else(|| PartialError::Parse(format!("missing field `{name}`"))),
                _ => Err(PartialError::Parse(format!(
                    "expected an object while looking for `{name}`"
                ))),
            }
        }

        pub fn str_field(&self, name: &str) -> Result<&str, PartialError> {
            match self.field(name)? {
                Value::Str(s) => Ok(s),
                _ => Err(PartialError::Parse(format!("field `{name}` is not a string"))),
            }
        }

        pub fn u128_field(&self, name: &str) -> Result<u128, PartialError> {
            match self.field(name)? {
                Value::Num(n) => Ok(*n),
                _ => Err(PartialError::Parse(format!("field `{name}` is not an integer"))),
            }
        }

        pub fn u64_field(&self, name: &str) -> Result<u64, PartialError> {
            u64::try_from(self.u128_field(name)?)
                .map_err(|_| PartialError::Parse(format!("field `{name}` overflows u64")))
        }

        pub fn usize_field(&self, name: &str) -> Result<usize, PartialError> {
            usize::try_from(self.u128_field(name)?)
                .map_err(|_| PartialError::Parse(format!("field `{name}` overflows usize")))
        }

        pub fn array_field(&self, name: &str) -> Result<&[Value], PartialError> {
            match self.field(name)? {
                Value::Array(items) => Ok(items),
                _ => Err(PartialError::Parse(format!("field `{name}` is not an array"))),
            }
        }
    }

    pub fn parse(text: &str) -> Result<Value, PartialError> {
        let mut p = Parser { text, bytes: text.as_bytes(), pos: 0 };
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing data after the document"));
        }
        Ok(value)
    }

    struct Parser<'a> {
        text: &'a str,
        bytes: &'a [u8],
        pos: usize,
    }

    impl Parser<'_> {
        fn error(&self, msg: &str) -> PartialError {
            PartialError::Parse(format!("{msg} at byte {}", self.pos))
        }

        fn skip_ws(&mut self) {
            while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.pos += 1;
            }
        }

        fn expect(&mut self, byte: u8) -> Result<(), PartialError> {
            self.skip_ws();
            if self.bytes.get(self.pos) == Some(&byte) {
                self.pos += 1;
                Ok(())
            } else {
                Err(self.error(&format!("expected `{}`", byte as char)))
            }
        }

        fn value(&mut self) -> Result<Value, PartialError> {
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b'{') => self.object(),
                Some(b'[') => self.array(),
                Some(b'"') => Ok(Value::Str(self.string()?)),
                Some(b'0'..=b'9') => self.number(),
                _ => Err(self.error("expected an object, array, string or integer")),
            }
        }

        fn object(&mut self) -> Result<Value, PartialError> {
            self.expect(b'{')?;
            let mut fields = Vec::new();
            self.skip_ws();
            if self.bytes.get(self.pos) == Some(&b'}') {
                self.pos += 1;
                return Ok(Value::Object(fields));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.expect(b':')?;
                let value = self.value()?;
                fields.push((key, value));
                self.skip_ws();
                match self.bytes.get(self.pos) {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Value::Object(fields));
                    }
                    _ => return Err(self.error("expected `,` or `}`")),
                }
            }
        }

        fn array(&mut self) -> Result<Value, PartialError> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.bytes.get(self.pos) == Some(&b']') {
                self.pos += 1;
                return Ok(Value::Array(items));
            }
            loop {
                items.push(self.value()?);
                self.skip_ws();
                match self.bytes.get(self.pos) {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(Value::Array(items));
                    }
                    _ => return Err(self.error("expected `,` or `]`")),
                }
            }
        }

        fn string(&mut self) -> Result<String, PartialError> {
            if self.bytes.get(self.pos) != Some(&b'"') {
                return Err(self.error("expected `\"`"));
            }
            self.pos += 1;
            let mut out = String::new();
            loop {
                match self.bytes.get(self.pos) {
                    None => return Err(self.error("unterminated string")),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        match self.bytes.get(self.pos) {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'n') => out.push('\n'),
                            Some(b't') => out.push('\t'),
                            Some(b'r') => out.push('\r'),
                            Some(b'u') => {
                                let hex = self
                                    .bytes
                                    .get(self.pos + 1..self.pos + 5)
                                    .and_then(|h| std::str::from_utf8(h).ok())
                                    .and_then(|h| u32::from_str_radix(h, 16).ok())
                                    .ok_or_else(|| self.error("bad \\u escape"))?;
                                out.push(
                                    char::from_u32(hex)
                                        .ok_or_else(|| self.error("bad \\u escape"))?,
                                );
                                self.pos += 4;
                            }
                            _ => return Err(self.error("bad escape")),
                        }
                        self.pos += 1;
                    }
                    Some(_) => {
                        // Copy the whole run up to the next quote or
                        // backslash. Both are ASCII, so the run starts and
                        // ends on char boundaries of the `&str` input.
                        let run = self.bytes[self.pos..]
                            .iter()
                            .position(|b| matches!(b, b'"' | b'\\'))
                            .unwrap_or(self.bytes.len() - self.pos);
                        out.push_str(&self.text[self.pos..self.pos + run]);
                        self.pos += run;
                    }
                }
            }
        }

        fn number(&mut self) -> Result<Value, PartialError> {
            let start = self.pos;
            while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            let digits = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
            digits.parse::<u128>().map(Value::Num).map_err(|_| self.error("integer overflows u128"))
        }
    }
}

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
        assert_eq!(value.str_field("s").unwrap(), "a/béc€");
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
