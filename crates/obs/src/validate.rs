//! Schema validators for observability artifacts.
//!
//! Each validator parses its document with the workspace's one JSON
//! reader ([`crate::json`]) and then checks the parsed tree against the
//! schema its renderer writes: the schema marker, every required field
//! with its type, and the cross-field facts the summary counts rely on.
//! Text that is not JSON, a field of the wrong type or a truncated file
//! is a typed [`Error`]; the returned `*Stats` count the parsed
//! entries.

use crate::json::{self, parse_tagged, Error, Node};
use crate::metrics::METRICS_SCHEMA;
use crate::prof::{Phase, PROF_SCHEMA};

/// Schema identifier stamped on the first record of a telemetry JSONL
/// stream.
pub const TELEMETRY_SCHEMA: &str = "lbica-telemetry/v1";

/// Schema identifier stamped on `bench diff` regression reports.
///
/// The report itself is rendered by `lbica-bench`'s `diff` module; the
/// constant lives here so the validator and the renderer agree on it
/// (bench depends on obs, not the other way around).
pub const BENCH_DIFF_SCHEMA: &str = "lbica-bench-diff/v1";

/// Checks that each named field of `node` is a non-negative integer.
fn require_u64(node: &Node<'_>, keys: &[&str]) -> Result<(), Error> {
    keys.iter().try_for_each(|key| node.get(key)?.int::<u64>().map(drop))
}

/// Summary of a validated metrics snapshot document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsStats {
    /// Number of scalar entries (counters plus gauges).
    pub scalars: usize,
    /// Number of histogram entries.
    pub histograms: usize,
}

/// Validates a JSON metrics snapshot rendered by
/// [`MetricsSnapshot::render_json`](crate::MetricsSnapshot::render_json).
pub fn metrics_json(s: &str) -> Result<MetricsStats, Error> {
    let doc = parse_tagged(s, METRICS_SCHEMA)?;
    let root = doc.root();
    let mut scalars = 0;
    for key in ["counters", "gauges"] {
        for entry in root.get(key)?.items()? {
            entry.get("name")?.str()?;
            entry.get("value")?.int::<u64>()?;
            scalars += 1;
        }
    }
    let histograms = root.get("histograms")?.items()?;
    for entry in &histograms {
        entry.get("name")?.str()?;
        let fields = ["count", "sum_us", "min_us", "max_us", "p50_us", "p95_us", "p99_us"];
        require_u64(entry, &fields)?;
    }
    Ok(MetricsStats { scalars, histograms: histograms.len() })
}

/// Summary of a validated Chrome trace document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStats {
    /// Total trace events (including metadata records).
    pub events: usize,
    /// Complete ("X") span events.
    pub spans: usize,
    /// Counter ("C") events.
    pub counters: usize,
}

/// Validates a Chrome trace-event JSON document rendered by
/// [`chrome::render`](crate::chrome::render): metadata (`M`), span
/// (`X`), instant (`i`) and counter (`C`) events only, at least one of
/// them metadata.
pub fn chrome_trace(s: &str) -> Result<TraceStats, Error> {
    let doc = json::parse(s)?;
    let events = doc.root().get("traceEvents")?;
    let items = events.items()?;
    let (mut metadata, mut spans, mut counters) = (0, 0, 0);
    for event in &items {
        event.get("name")?.str()?;
        event.get("pid")?.int::<u64>()?;
        let ph = event.get("ph")?;
        match ph.str()? {
            "M" => metadata += 1,
            "X" => {
                require_u64(event, &["ts", "dur"])?;
                spans += 1;
            }
            kind @ ("C" | "i") => {
                event.get("ts")?.int::<u64>()?;
                counters += usize::from(kind == "C");
            }
            _ => return Err(ph.error("unknown event phase")),
        }
    }
    if metadata == 0 {
        return Err(events.error("trace is missing metadata (process/thread name) events"));
    }
    Ok(TraceStats { events: items.len(), spans, counters })
}

/// Summary of a validated telemetry JSONL stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryStats {
    /// Total records in the stream.
    pub records: usize,
    /// Per-cell records.
    pub cells: usize,
    /// Shard-merge records.
    pub shards: usize,
}

/// Validates a telemetry JSONL stream: every line is a JSON object with a
/// known `type` tag, the stream opens with a schema-tagged `start` record
/// and closes with an `end` record. Errors name the line as their path.
pub fn telemetry_jsonl(s: &str) -> Result<TelemetryStats, Error> {
    let lines: Vec<&str> = s.lines().filter(|l| !l.trim().is_empty()).collect();
    if lines.len() < 2 {
        let reason = "a stream needs a start and an end record".to_string();
        return Err(Error::Schema { path: String::new(), reason });
    }
    let last = lines.len() - 1;
    let mut stats = TelemetryStats { records: 0, cells: 0, shards: 0 };
    for (i, line) in lines.iter().enumerate() {
        let at_line = |reason: String| Error::Schema { path: format!("line {}", i + 1), reason };
        let doc = if i == 0 { parse_tagged(line, TELEMETRY_SCHEMA) } else { json::parse(line) };
        let doc = doc.map_err(|e| at_line(e.to_string()))?;
        let kind =
            doc.root().get("type").and_then(|t| t.str()).map_err(|e| at_line(e.to_string()))?;
        match kind {
            "start" if i == 0 => {}
            _ if i == 0 => return Err(at_line("first record must have type \"start\"".into())),
            "end" if i == last => {}
            _ if i == last => return Err(at_line("last record must have type \"end\"".into())),
            "cell" => stats.cells += 1,
            "shard_merged" => stats.shards += 1,
            other => return Err(at_line(format!("unexpected {other:?} record"))),
        }
        stats.records += 1;
    }
    Ok(stats)
}

/// Summary of a validated phase-profile document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfileStats {
    /// Number of per-phase entries in the document.
    pub phases: usize,
}

/// Validates a `lbica-prof/v1` document rendered by
/// [`PhaseProfiler::render_json`](crate::PhaseProfiler::render_json):
/// schema-tagged, and carrying one entry per phase in [`Phase::ALL`]
/// order.
pub fn profile_json(s: &str) -> Result<ProfileStats, Error> {
    let doc = parse_tagged(s, PROF_SCHEMA)?;
    let root = doc.root();
    root.get("label")?.str()?;
    require_u64(&root, &["total_ns", "total_calls"])?;
    let phases = root.get("phases")?;
    let entries = phases.items()?;
    if entries.len() != Phase::ALL.len() {
        let reason =
            format!("{} entries, expected one per phase ({})", entries.len(), Phase::ALL.len());
        return Err(phases.error(reason));
    }
    for (entry, phase) in entries.iter().zip(Phase::ALL) {
        let name = entry.get("phase")?;
        if name.str()? != phase.name() {
            return Err(name.error(format!("expected phase {:?}", phase.name())));
        }
        require_u64(entry, &["total_ns", "calls"])?;
        entry.get("mean_ns")?.f64()?;
    }
    Ok(ProfileStats { phases: entries.len() })
}

/// Summary of a validated `bench diff` report document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchDiffStats {
    /// Per-cell delta entries in the report.
    pub cells: usize,
    /// Cells flagged as regressions beyond the tolerance.
    pub regressions: usize,
}

/// Validates a `lbica-bench-diff/v1` report rendered by `bench diff`:
/// schema-tagged, carrying the tolerance and at least one per-cell delta
/// entry, with a `regressions` total that counts the flagged cells.
pub fn bench_diff_json(s: &str) -> Result<BenchDiffStats, Error> {
    let doc = parse_tagged(s, BENCH_DIFF_SCHEMA)?;
    let root = doc.root();
    root.get("tolerance_pct")?.f64()?;
    let cells = root.get("cells")?;
    let entries = cells.items()?;
    if entries.is_empty() {
        return Err(cells.error("report contains no per-cell deltas"));
    }
    let mut regressions = 0;
    for entry in &entries {
        entry.get("id")?.str()?;
        regressions += usize::from(entry.get("regression")?.bool()?);
    }
    let total = root.get("regressions")?;
    if total.int::<usize>()? != regressions {
        return Err(total.error(format!("disagrees with the {regressions} flagged cell(s)")));
    }
    Ok(BenchDiffStats { cells: entries.len(), regressions })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;
    use crate::prof::{PhaseProfiler, PhaseSink};
    use crate::ring::{TraceEvent, TraceEventKind, TraceRing};

    #[test]
    fn accepts_rendered_metrics_snapshot() {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("lbica_ops_total", "ops");
        reg.add(c, 3);
        reg.histogram("lbica_lat_us", "latency");
        let stats = metrics_json(&reg.snapshot().render_json()).expect("valid snapshot");
        assert_eq!(stats.histograms, 1);
    }

    #[test]
    fn rejects_truncated_or_untagged_metrics() {
        let mut reg = MetricsRegistry::new();
        reg.counter("lbica_ops_total", "ops");
        let json = reg.snapshot().render_json();
        assert!(metrics_json(&json[..json.len() - 3]).is_err());
        assert!(metrics_json(&json.replace("lbica-metrics/v1", "lbica-metrics/v0")).is_err());
        assert!(metrics_json("").is_err());
        let garbage = json.replace("\"counters\": [", "\"counters\": [,,, 12 garbage :::");
        assert!(metrics_json(&garbage).is_err());
        let string_valued = json.replace("\"value\": 0", "\"value\": \"0\"");
        assert_ne!(string_valued, json);
        assert!(metrics_json(&string_valued)
            .unwrap_err()
            .to_string()
            .contains("counters[0].value"));
    }

    #[test]
    fn accepts_rendered_chrome_trace() {
        let mut ring = TraceRing::new(8);
        ring.record(TraceEvent {
            ts_us: 0,
            dur_us: 1_000,
            kind: TraceEventKind::IntervalRollover {
                interval: 0,
                cache_completed: 1,
                disk_completed: 1,
            },
        });
        let json = crate::chrome::render(&ring, "cell");
        let stats = chrome_trace(&json).expect("valid trace");
        assert_eq!(stats.spans, 1);
        assert!(stats.events >= 4); // 3 metadata + 1 span
    }

    #[test]
    fn rejects_broken_chrome_trace() {
        assert!(chrome_trace("{\"traceEvents\": [").is_err());
        assert!(chrome_trace("{\"notTraceEvents\": []}").is_err());
        // Balanced but event-free.
        assert!(chrome_trace("{\"traceEvents\": []}").is_err());
    }

    #[test]
    fn validates_telemetry_stream_shape() {
        let stream = format!(
            "{{\"type\": \"start\", \"schema\": \"{TELEMETRY_SCHEMA}\", \"cells\": 2}}\n\
             {{\"type\": \"cell\", \"index\": 0}}\n\
             {{\"type\": \"cell\", \"index\": 1}}\n\
             {{\"type\": \"end\", \"wall_us\": 10}}\n"
        );
        let stats = telemetry_jsonl(&stream).expect("valid stream");
        assert_eq!(stats.records, 4);
        assert_eq!(stats.cells, 2);

        // Missing end record.
        let truncated: String = stream.lines().take(3).map(|l| format!("{l}\n")).collect();
        assert!(telemetry_jsonl(&truncated).is_err());
        // Wrong schema.
        assert!(telemetry_jsonl(&stream.replace("/v1", "/v0")).is_err());
        // Unbalanced line.
        assert!(telemetry_jsonl(&stream.replace("\"index\": 0}", "\"index\": 0")).is_err());
        assert!(telemetry_jsonl("").is_err());
    }

    #[test]
    fn accepts_rendered_phase_profile() {
        let mut prof = PhaseProfiler::new();
        let mark = prof.mark();
        prof.record(Phase::CacheMap, mark);
        let json = prof.render_json("tiny");
        let stats = profile_json(&json).expect("valid profile");
        assert_eq!(stats.phases, Phase::ALL.len());
    }

    #[test]
    fn rejects_broken_phase_profile() {
        let json = PhaseProfiler::new().render_json("tiny");
        assert!(profile_json(&json[..json.len() - 3]).is_err());
        assert!(profile_json(&json.replace("lbica-prof/v1", "lbica-prof/v0")).is_err());
        assert!(profile_json(&json.replace("cache_map", "cache_mop")).is_err());
        assert!(profile_json("").is_err());
    }

    #[test]
    fn validates_bench_diff_report_shape() {
        let report = format!(
            "{{\n  \"schema\": \"{BENCH_DIFF_SCHEMA}\",\n  \"tolerance_pct\": 20.0,\n  \
             \"regressions\": 1,\n  \"cells\": [\n    \
             {{\"id\": \"a\", \"regression\": false}},\n    \
             {{\"id\": \"b\", \"regression\": true}}\n  ]\n}}\n"
        );
        let stats = bench_diff_json(&report).expect("valid report");
        assert_eq!(stats.cells, 2);
        assert_eq!(stats.regressions, 1);

        assert!(bench_diff_json(&report[..report.len() - 4]).is_err());
        assert!(bench_diff_json(&report.replace("/v1", "/v0")).is_err());
        assert!(bench_diff_json(&report.replace("\"id\"", "\"di\"")).is_err());
        assert!(bench_diff_json("").is_err());
    }
}
