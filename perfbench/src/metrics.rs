//! Metric definitions and how each is computed from the passes of a run.

use lbica_lab::ControllerKind;

use crate::pass::{CellReport, PassTimes, Traced};
use crate::workload::{CellKey, Inputs};

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub const fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric's name, unit and direction.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// The end-to-end metrics (`--trace 0`). `wall_s` and `events_per_s` sum
/// each stage's shortest time over the timed passes (see [`end_to_end`]);
/// `setup_s` is the median over the timed passes; `sim_*` values are
/// modelled time and repeat exactly for a given seed.
pub const END_TO_END: [MetricDef; 8] = [
    def("wall_s", "s", Lower),
    def("setup_s", "s", Lower),
    def("events_per_s", "1/s", Higher),
    def("peak_rss_mb", "MB", Lower),
    def("sim_lat_p50_us", "us", Lower),
    def("sim_lat_p99_us", "us", Lower),
    def("sim_cache_load_us", "us", Lower),
    def("sim_load_cut_vs_wb_pct", "%", Higher),
];

/// The per-layer metrics (`--trace 1`): self times of the spans placed
/// around each layer's public calls (medians over the traced passes, per
/// pass) and work counts read from the simulated systems (per pass).
pub const PER_LAYER: [MetricDef; 44] = [
    def("trace.generate_s", "s", Lower),
    def("trace.generate_share_pct", "%", Lower),
    def("trace.records", "count", Lower),
    def("trace.ns_per_record", "ns", Lower),
    def("trace.import_s", "s", Lower),
    def("trace.decode_s", "s", Lower),
    def("trace.import_bytes", "bytes", Lower),
    def("sim.alloc_s", "s", Lower),
    def("sim.reset_s", "s", Lower),
    def("sim.schedule_s", "s", Lower),
    def("sim.run_until_s", "s", Lower),
    def("sim.ns_per_event", "ns", Lower),
    def("sim.events", "count", Lower),
    def("sim.peak_event_queue_depth", "count", Lower),
    def("sim.end_interval_s", "s", Lower),
    def("sim.drain_s", "s", Lower),
    def("sim.ckpt_encode_s", "s", Lower),
    def("sim.ckpt_decode_s", "s", Lower),
    def("sim.ckpt_bytes", "bytes", Lower),
    def("sim.resume_s", "s", Lower),
    def("cache.access_ns", "ns", Lower),
    def("cache.accesses", "count", Lower),
    def("cache.hit_ratio", "ratio", Higher),
    def("cache.evictions", "count", Lower),
    def("cache.flushes", "count", Lower),
    def("tier.access_ns", "ns", Lower),
    def("tier.promotions", "count", Lower),
    def("tier.demotions", "count", Lower),
    def("tier.spills", "count", Lower),
    def("tier.l1_hits", "count", Higher),
    def("core.on_interval_s", "s", Lower),
    def("core.apply_bypass_s", "s", Lower),
    def("core.bypassed", "count", Lower),
    def("core.policy_changes", "count", Lower),
    def("core.burst_intervals", "count", Lower),
    def("storage.cache_completed", "count", Higher),
    def("storage.disk_completed", "count", Lower),
    def("storage.cache_peak_queue_depth", "count", Lower),
    def("lab.expand_s", "s", Lower),
    def("lab.aggregate_s", "s", Lower),
    def("lab.render_s", "s", Lower),
    def("bench.traced_wall_s", "s", Lower),
    def("bench.tracing_overhead_pct", "%", Lower),
    def("bench.span_coverage_pct", "%", Higher),
];

/// Spans that are not a layer's call but the benchmark's own glue between
/// calls: their self time is what the spans do not cover.
const GLUE_SPANS: [&str; 3] = ["pass", "setup", "cell"];
/// The cache probes' span: replays outside the simulation, kept out of the
/// traced pass's wall time.
const PROBE_SPAN: &str = "probe";

/// The median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The shortest of `values`.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn min(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().reduce(f64::min).expect("the minimum of no values")
}

/// The end-to-end metrics, in [`END_TO_END`] order.
///
/// A pass is a chain of stages: set-up, one per cell, then aggregation and
/// rendering. `wall_s` is the sum over the stages of each one's shortest
/// time in any timed pass, and `events_per_s` divides a pass's events by
/// the same sum over the cell stages alone. The host slows the benchmark
/// down, never speeds it up, and it does so in bursts of seconds to
/// minutes; a stage of a few to a hundred milliseconds, timed once per
/// pass, almost always meets a quiet moment in some pass, so the sum of
/// the stage minima tracks the program and not the host far better than
/// any statistic of whole passes. `setup_s` is the median over the passes.
///
/// # Panics
///
/// Panics if `passes` is empty or its passes report different cell counts.
pub fn end_to_end(
    keys: &[CellKey],
    reports: &[CellReport],
    passes: &[PassTimes],
    peak_rss_mb: f64,
) -> Vec<f64> {
    let cells = passes[0].cells_s.len();
    assert!(passes.iter().all(|p| p.cells_s.len() == cells), "passes ran different cells");
    let setup_min = min(passes.iter().map(|p| p.setup_s));
    let run_min: f64 = (0..cells).map(|i| min(passes.iter().map(|p| p.cells_s[i]))).sum();
    let tail_min = min(passes.iter().map(|p| p.tail_s));
    let setup: Vec<f64> = passes.iter().map(|p| p.setup_s).collect();
    let model = ModelMetrics::of(keys, reports);
    vec![
        setup_min + run_min + tail_min,
        median(&setup),
        ratio(passes[0].events as f64, run_min),
        peak_rss_mb,
        model.p50_us,
        model.p99_us,
        model.cache_load_us,
        model.load_cut_pct,
    ]
}

/// The modelled (simulated-time) metrics over LBICA cells.
///
/// Per-cell values are combined by geometric mean: the cells span workloads
/// whose latencies differ by orders of magnitude, so every cell's relative
/// change counts equally, and one capture seed that drives the cache into a
/// backlog does not dominate the figure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelMetrics {
    /// Geometric mean of the LBICA cells' median application latency, µs.
    pub p50_us: f64,
    /// Geometric mean of the LBICA cells' 99th-percentile application
    /// latency, µs.
    pub p99_us: f64,
    /// Geometric mean of the LBICA cells' `avg_cache_load_us`.
    pub cache_load_us: f64,
    /// `100 × (1 − Σ LBICA load / Σ WB load)` over cells matched on
    /// workload, config and seed.
    pub load_cut_pct: f64,
}

impl ModelMetrics {
    /// Computes the modelled metrics of a pass's reports.
    pub fn of(keys: &[CellKey], reports: &[CellReport]) -> Self {
        let mut p50 = Vec::new();
        let mut p99 = Vec::new();
        let mut load = Vec::new();
        let (mut lbica_sum, mut wb_sum) = (0.0, 0.0);
        for (key, report) in keys.iter().zip(reports) {
            let Ok(report) = report else { continue };
            if key.controller != ControllerKind::Lbica {
                continue;
            }
            p50.push(report.app_p50_latency_us as f64);
            p99.push(report.app_p99_latency_us as f64);
            load.push(report.avg_cache_load_us());
            let wb = keys
                .iter()
                .zip(reports)
                .find(|(k, _)| k.controller == ControllerKind::Wb && k.matches(key));
            if let Some((_, Ok(wb))) = wb {
                lbica_sum += report.avg_cache_load_us();
                wb_sum += wb.avg_cache_load_us();
            }
        }
        let geomean = |v: &[f64]| ratio(v.iter().map(|x| x.ln()).sum(), v.len() as f64).exp();
        ModelMetrics {
            p50_us: geomean(&p50),
            p99_us: geomean(&p99),
            cache_load_us: geomean(&load),
            load_cut_pct: 100.0 * (1.0 - ratio(lbica_sum, wb_sum)),
        }
    }
}

/// The per-layer figures of one traced pass, in [`PER_LAYER`] order.
/// `plain_wall_s` is the wall time of the same stepwise pass run without
/// spans (and without cache probes), the tracing overhead's baseline.
pub fn per_layer_sample(inputs: &Inputs, pass: &Traced, plain_wall_s: f64) -> Vec<f64> {
    let folded = pass.spans.fold();
    let self_ns = |name: &str| folded.get(name).map_or(0, |f| f.self_ns) as f64;
    let total_ns = |name: &str| folded.get(name).map_or(0, |f| f.total_ns) as f64;
    let s = |name: &str| self_ns(name) / 1e9;
    let c = &pass.counts;

    let wall_ns = total_ns("pass") - total_ns(PROBE_SPAN);
    let glue_ns: f64 = GLUE_SPANS.iter().map(|n| self_ns(n)).sum();
    vec![
        s("trace.generate"),
        100.0 * ratio(self_ns("trace.generate"), wall_ns),
        c.records as f64,
        ratio(self_ns("trace.generate"), c.records as f64),
        s("trace.import"),
        s("trace.decode"),
        inputs.import_bytes() as f64,
        s("sim.alloc"),
        s("sim.reset"),
        s("sim.schedule"),
        s("sim.run_until"),
        ratio(self_ns("sim.run_until") + self_ns("sim.drain"), c.events as f64),
        c.events as f64,
        c.peak_event_queue_depth as f64,
        s("sim.end_interval"),
        s("sim.drain"),
        s("sim.ckpt_encode"),
        s("sim.ckpt_decode"),
        c.ckpt_bytes as f64,
        s("sim.resume"),
        ratio(self_ns("probe.cache"), c.probe_cache_accesses as f64),
        c.cache_accesses as f64,
        ratio(c.cache_hits as f64, c.cache_accesses as f64),
        c.cache_evictions as f64,
        c.cache_flushes as f64,
        ratio(self_ns("probe.tier"), c.probe_tier_accesses as f64),
        c.tier_promotions as f64,
        c.tier_demotions as f64,
        c.tier_spills as f64,
        c.tier_l1_hits as f64,
        s("core.on_interval"),
        s("core.apply_bypass"),
        c.bypassed as f64,
        c.policy_changes as f64,
        c.burst_intervals as f64,
        c.storage_cache_completed as f64,
        c.storage_disk_completed as f64,
        c.storage_cache_peak_queue_depth as f64,
        s("lab.expand"),
        s("lab.aggregate"),
        s("lab.render"),
        pass.wall_s,
        100.0 * (pass.wall_s - plain_wall_s) / plain_wall_s,
        100.0 * (1.0 - ratio(glue_ns, wall_ns)),
    ]
}

/// Per-metric medians over the traced passes' samples.
pub fn per_layer(samples: &[Vec<f64>]) -> Vec<f64> {
    (0..PER_LAYER.len())
        .map(|i| median(&samples.iter().map(|s| s[i]).collect::<Vec<_>>()))
        .collect()
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and every metric with its unit.
///
/// # Panics
///
/// Panics if `defs` and `values` differ in length or a value is not finite.
pub fn result_json(attempted: u64, failed: u64, defs: &[MetricDef], values: &[f64]) -> String {
    assert_eq!(defs.len(), values.len(), "one value per metric");
    let metrics: Vec<String> = defs
        .iter()
        .zip(values)
        .map(|(d, v)| {
            assert!(v.is_finite(), "metric {} is not finite: {v}", d.name);
            format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", d.name, d.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_and_rate_sum_each_stage_minimum() {
        let pass = |setup_s: f64, cells_s: Vec<f64>, tail_s: f64| PassTimes {
            wall_s: setup_s + cells_s.iter().sum::<f64>() + tail_s,
            setup_s,
            cells_s,
            tail_s,
            events: 300,
        };
        let passes = [pass(0.1, vec![1.0, 2.0], 0.5), pass(0.2, vec![1.5, 1.0], 0.3)];
        let values = end_to_end(&[], &[], &passes, 1.0);
        assert!((values[0] - 2.4).abs() < 1e-12, "wall_s = {}", values[0]);
        assert!((values[1] - 0.15).abs() < 1e-12, "setup_s = {}", values[1]);
        assert!((values[2] - 150.0).abs() < 1e-9, "events_per_s = {}", values[2]);
    }
}
