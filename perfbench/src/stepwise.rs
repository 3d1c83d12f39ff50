//! The traced replay of one cell through the simulator's public stepwise
//! API, with a span around every call into a layer.
//!
//! The interval loop mirrors `Simulation::run_in` (and, for split cells,
//! `run_to_checkpoint` + `resume_from_checkpoint`) call for call, so the
//! report it builds must equal the untraced run's; the correctness gate
//! checks that it does.

use lbica_cache::{CacheModule, CacheOutcome, WritePolicy};
use lbica_lab::Scenario;
use lbica_sim::{
    CacheController, ControllerContext, ControllerDecision, PolicyChange, ReplayCheckpoint,
    SimArena, SimPerf, SimulationConfig, SimulationReport, StorageSystem, TierLoad,
    TieredStorageSystem,
};
use lbica_storage::snap::{SnapReader, SnapWriter};
use lbica_storage::{IoRequest, SimTime};
use lbica_tier::{TieredCacheModule, TieredOutcome};
use lbica_trace::monitor::IntervalReport;
use lbica_trace::record::TraceRecord;

use crate::spans::Spans;

/// Work counts the traced run reads from the simulated system, summed over
/// the cells of a pass (peaks take the maximum).
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct LayerCounts {
    /// Trace records generated (or replayed).
    pub records: u64,
    /// Simulator events processed.
    pub events: u64,
    /// Largest pending-event count of any cell.
    pub peak_event_queue_depth: u64,
    /// Application accesses seen by the flat cache.
    pub cache_accesses: u64,
    /// Of those, hits (reads hit + writes absorbed).
    pub cache_hits: u64,
    /// Flat-cache evictions, clean and dirty.
    pub cache_evictions: u64,
    /// Dirty blocks flushed by the flat cache's background flusher.
    pub cache_flushes: u64,
    /// Tier promotions into any level.
    pub tier_promotions: u64,
    /// Tier demotions into any level.
    pub tier_demotions: u64,
    /// Requests spilled to a lower level (writes and reads).
    pub tier_spills: u64,
    /// Hits served by cache level 1 (the warm tier; level 0 is hot).
    pub tier_l1_hits: u64,
    /// Requests the controllers bypassed to the disk.
    pub bypassed: u64,
    /// Policy switches after the initial policy.
    pub policy_changes: u64,
    /// Intervals flagged as bursts.
    pub burst_intervals: u64,
    /// Requests completed by the cache device(s) during intervals.
    pub storage_cache_completed: u64,
    /// Requests completed by the disk subsystem during intervals.
    pub storage_disk_completed: u64,
    /// Deepest hot-tier queue of any interval.
    pub storage_cache_peak_queue_depth: u64,
    /// Encoded checkpoint bytes.
    pub ckpt_bytes: u64,
    /// Accesses replayed through `CacheModule::access_into`.
    pub probe_cache_accesses: u64,
    /// Accesses replayed through `TieredCacheModule::access_into`.
    pub probe_tier_accesses: u64,
}

/// The outcome of one traced cell.
#[derive(Debug)]
pub struct TracedCell {
    /// The report built from the stepwise run.
    pub report: SimulationReport,
    /// Records fed to the system.
    pub records: u64,
}

enum System {
    Flat(StorageSystem),
    Tiered(TieredStorageSystem),
}

impl System {
    fn fresh(config: &SimulationConfig) -> Self {
        if config.is_tiered() {
            System::Tiered(TieredStorageSystem::new(config))
        } else {
            System::Flat(StorageSystem::new(config))
        }
    }

    fn take(arena: &mut SimArena, config: &SimulationConfig) -> Self {
        if config.is_tiered() {
            System::Tiered(arena.take_tiered(config))
        } else {
            System::Flat(arena.take_flat(config))
        }
    }

    fn store(self, arena: &mut SimArena, config: SimulationConfig) {
        match self {
            System::Flat(s) => arena.store_flat(config, s),
            System::Tiered(s) => arena.store_tiered(config, s),
        }
    }

    fn initial_label(&mut self, policy: WritePolicy) -> String {
        match self {
            System::Flat(s) => {
                s.set_policy(policy);
                policy.label().to_string()
            }
            System::Tiered(s) => {
                s.set_policy(policy);
                tier_policy_label(s.level_policies())
            }
        }
    }

    fn schedule_record(&mut self, record: &TraceRecord) {
        match self {
            System::Flat(s) => s.schedule_record(record),
            System::Tiered(s) => s.schedule_record(record),
        }
    }

    fn run_until(&mut self, limit: SimTime) {
        match self {
            System::Flat(s) => s.run_until(limit),
            System::Tiered(s) => s.run_until(limit),
        }
    }

    fn drain(&mut self) {
        // The runner's cap: 600 steps of 100 ms.
        match self {
            System::Flat(s) => s.drain(600),
            System::Tiered(s) => s.drain(600),
        };
    }

    fn snap_to(&self, w: &mut SnapWriter) {
        match self {
            System::Flat(s) => s.snap_to(w),
            System::Tiered(s) => s.snap_to(w),
        }
    }

    fn snap_state_from(&mut self, r: &mut SnapReader<'_>) -> Result<(), lbica_sim::SnapError> {
        match self {
            System::Flat(s) => s.snap_state_from(r),
            System::Tiered(s) => s.snap_state_from(r),
        }
    }
}

/// The per-cell loop state the checkpoint carries across a split.
struct Progress {
    intervals: Vec<IntervalReport>,
    policy_changes: Vec<PolicyChange>,
    bypassed: u64,
    tier_loads: Vec<TierLoad>,
    records: u64,
}

/// Replays `scenario` stepwise. With `split` set, the cell runs to a
/// checkpoint at that interval, encodes and decodes it, and resumes on a
/// freshly built system, as `Scenario::run_checkpointed` does; otherwise
/// the system comes from `arena`, as in a sweep worker.
///
/// # Errors
///
/// Returns the checkpoint decoder's or restorer's error as text.
pub fn trace_cell<S: Spans>(
    scenario: &Scenario,
    arena: &mut SimArena,
    split: Option<u32>,
    spans: &mut S,
    counts: &mut LayerCounts,
) -> Result<TracedCell, String> {
    spans.enter("cell");
    let result = run_cell(scenario, arena, split, spans, counts);
    spans.exit();
    result
}

fn run_cell<S: Spans>(
    scenario: &Scenario,
    arena: &mut SimArena,
    split: Option<u32>,
    spans: &mut S,
    counts: &mut LayerCounts,
) -> Result<TracedCell, String> {
    let config = *scenario.config();
    let spec = scenario.workload();
    let seed = scenario.stream_seed();
    let total = spec.total_intervals();
    let mut controller = scenario.controller().build();

    let mut system = if split.is_some() {
        spans.enter("sim.alloc");
        let system = System::fresh(&config);
        spans.exit();
        system
    } else {
        spans.enter("sim.reset");
        let system = System::take(arena, &config);
        spans.exit();
        system
    };
    let initial = system.initial_label(controller.initial_policy());
    let mut progress = Progress {
        intervals: Vec::with_capacity(total as usize),
        policy_changes: vec![PolicyChange { interval: 0, policy: initial }],
        bypassed: 0,
        tier_loads: Vec::new(),
        records: 0,
    };

    let first_end = split.unwrap_or(total);
    for index in 0..first_end {
        step(&mut system, controller.as_mut(), scenario, index, &mut progress, spans);
    }

    if let Some(split) = split {
        spans.enter("sim.ckpt_encode");
        let mut w = SnapWriter::new();
        system.snap_to(&mut w);
        controller.save_state(&mut w);
        let checkpoint = ReplayCheckpoint {
            workload: spec.name().to_string(),
            controller: controller.name().to_string(),
            seed,
            tiered: config.is_tiered(),
            next_interval: split,
            total_intervals: total,
            bypassed_total: progress.bypassed,
            intervals: std::mem::take(&mut progress.intervals),
            policy_changes: std::mem::take(&mut progress.policy_changes),
            state: w.into_bytes(),
        };
        let bytes = checkpoint.to_bytes();
        spans.exit();
        counts.ckpt_bytes += bytes.len() as u64;
        drop(system);

        spans.enter("sim.ckpt_decode");
        let checkpoint = ReplayCheckpoint::from_bytes(&bytes);
        spans.exit();
        let checkpoint = checkpoint.map_err(|e| format!("checkpoint decode: {e}"))?;

        spans.enter("sim.resume");
        spans.enter("sim.alloc");
        system = System::fresh(&config);
        spans.exit();
        controller = scenario.controller().build();
        let mut r = SnapReader::new(&checkpoint.state);
        let restored = system
            .snap_state_from(&mut r)
            .and_then(|()| controller.restore_state(&mut r))
            .and_then(|()| r.finish());
        spans.exit();
        restored.map_err(|e| format!("checkpoint restore: {e}"))?;
        progress.intervals = checkpoint.intervals;
        progress.policy_changes = checkpoint.policy_changes;
        progress.bypassed = checkpoint.bypassed_total;

        for index in split..total {
            step(&mut system, controller.as_mut(), scenario, index, &mut progress, spans);
        }
    }

    spans.enter("sim.drain");
    system.drain();
    spans.exit();

    let report = report(&system, controller.as_ref(), scenario, &mut progress);
    count(&system, &report, &progress, counts);
    if split.is_none() {
        system.store(arena, config);
    }
    Ok(TracedCell { report, records: progress.records })
}

/// One monitoring interval, as `Simulation`'s interval loop runs it.
fn step<S: Spans>(
    system: &mut System,
    controller: &mut dyn CacheController,
    scenario: &Scenario,
    index: u32,
    progress: &mut Progress,
    spans: &mut S,
) {
    let spec = scenario.workload();
    spans.enter("trace.generate");
    let records = spec.generate_interval(index, scenario.stream_seed());
    spans.exit();

    spans.enter("sim.schedule");
    for record in &records {
        system.schedule_record(record);
    }
    spans.exit();
    progress.records += records.len() as u64;

    spans.enter("sim.run_until");
    system.run_until(SimTime::from_micros((u64::from(index) + 1) * spec.interval_us()));
    spans.exit();

    match system {
        System::Flat(s) => {
            spans.enter("sim.end_interval");
            let mut report = s.end_interval(index);
            spans.exit();
            spans.enter("core.on_interval");
            let decision = controller.on_interval(&ControllerContext {
                interval_index: index,
                now: s.now(),
                cache_queue_depth: report.cache.queue_depth,
                disk_queue_depth: report.disk.queue_depth,
                cache_avg_latency: s.cache_avg_latency(),
                disk_avg_latency: s.disk_avg_latency(),
                cache_queue_mix: report.cache_queue_mix,
                current_policy: s.policy(),
                cache_queue: s.cache_queue(),
                tier_loads: &[],
                tier_policies: &[],
            });
            spans.exit();
            report.burst_detected = decision.burst_detected;
            if decision.policy != s.policy() {
                s.set_policy(decision.policy);
                progress.policy_changes.push(PolicyChange {
                    interval: index + 1,
                    policy: decision.policy.label().to_string(),
                });
            }
            spans.enter("core.apply_bypass");
            progress.bypassed += s.apply_bypass(&decision.bypass) as u64;
            spans.exit();
            progress.intervals.push(report);
        }
        System::Tiered(s) => {
            spans.enter("sim.end_interval");
            let mut report = s.end_interval(index);
            s.tier_loads_into(&mut progress.tier_loads);
            spans.exit();
            spans.enter("core.on_interval");
            let decision = controller.on_interval(&ControllerContext {
                interval_index: index,
                now: s.now(),
                cache_queue_depth: report.cache.queue_depth,
                disk_queue_depth: report.disk.queue_depth,
                cache_avg_latency: s.cache_avg_latency(),
                disk_avg_latency: s.disk_avg_latency(),
                cache_queue_mix: report.cache_queue_mix,
                current_policy: s.policy(),
                cache_queue: s.cache_queue(),
                tier_loads: &progress.tier_loads,
                tier_policies: s.level_policies(),
            });
            spans.exit();
            report.burst_detected = decision.burst_detected;
            apply_tier_policies(s, &decision, index, &mut progress.policy_changes);
            spans.enter("core.apply_bypass");
            let spilled_before = s.spilled_requests() + s.spilled_reads();
            let moved = s.apply_bypass(&decision.bypass) as u64;
            let spilled = s.spilled_requests() + s.spilled_reads() - spilled_before;
            spans.exit();
            progress.bypassed += moved - spilled;
            progress.intervals.push(report);
        }
    }
}

fn apply_tier_policies(
    s: &mut TieredStorageSystem,
    decision: &ControllerDecision,
    index: u32,
    changes: &mut Vec<PolicyChange>,
) {
    if decision.tier_policies.is_empty() {
        if decision.policy != s.policy() {
            s.set_policy(decision.policy);
            changes.push(PolicyChange {
                interval: index + 1,
                policy: tier_policy_label(s.level_policies()),
            });
        }
    } else if s.level_policies() != decision.tier_policies.as_slice() {
        s.set_level_policies(&decision.tier_policies);
        changes.push(PolicyChange {
            interval: index + 1,
            policy: tier_policy_label(&decision.tier_policies),
        });
    }
}

/// The label the runner records for a per-level policy assignment.
fn tier_policy_label(policies: &[WritePolicy]) -> String {
    if policies.windows(2).all(|w| w[0] == w[1]) {
        policies[0].label().to_string()
    } else {
        policies.iter().map(|p| p.label()).collect::<Vec<_>>().join("/")
    }
}

fn report(
    system: &System,
    controller: &dyn CacheController,
    scenario: &Scenario,
    progress: &mut Progress,
) -> SimulationReport {
    macro_rules! build {
        ($s:expr, $cache_stats:expr, $tier_stats:expr) => {
            SimulationReport {
                workload: scenario.workload().name().to_string(),
                controller: controller.name().to_string(),
                total_intervals: scenario.workload().total_intervals(),
                intervals: std::mem::take(&mut progress.intervals),
                policy_changes: std::mem::take(&mut progress.policy_changes),
                app_completed: $s.app_completed(),
                app_avg_latency_us: $s.app_avg_latency_us(),
                app_max_latency_us: $s.app_max_latency_us(),
                app_p50_latency_us: $s.app_percentile_us(50.0),
                app_p95_latency_us: $s.app_percentile_us(95.0),
                app_p99_latency_us: $s.app_percentile_us(99.0),
                bypassed_requests: progress.bypassed,
                cache_stats: $cache_stats,
                perf: SimPerf {
                    events_processed: $s.events_processed(),
                    peak_event_queue_depth: $s.peak_event_queue_depth(),
                },
                tier_stats: $tier_stats,
            }
        };
    }
    match system {
        System::Flat(s) => build!(s, *s.cache().stats(), Vec::new()),
        System::Tiered(s) => build!(s, *s.cache().stats(0), s.tier_level_stats()),
    }
}

fn count(system: &System, report: &SimulationReport, progress: &Progress, c: &mut LayerCounts) {
    c.records += progress.records;
    c.events += report.perf.events_processed;
    c.peak_event_queue_depth =
        c.peak_event_queue_depth.max(report.perf.peak_event_queue_depth as u64);
    c.bypassed += report.bypassed_requests;
    c.policy_changes += (report.policy_changes.len() as u64).saturating_sub(1);
    c.burst_intervals += report.burst_intervals() as u64;
    for interval in &report.intervals {
        c.storage_cache_completed += interval.cache.completed;
        c.storage_disk_completed += interval.disk.completed;
        c.storage_cache_peak_queue_depth =
            c.storage_cache_peak_queue_depth.max(interval.cache.peak_queue_depth as u64);
    }
    match system {
        System::Flat(s) => {
            let stats = s.cache().stats();
            c.cache_accesses += stats.reads() + stats.writes();
            c.cache_hits += stats.read_hits + stats.write_hits;
            c.cache_evictions += stats.evictions();
            c.cache_flushes += stats.flushes;
        }
        System::Tiered(s) => {
            let (promotions, demotions) = s.movement_totals();
            c.tier_promotions += promotions;
            c.tier_demotions += demotions;
            c.tier_spills += s.spilled_requests() + s.spilled_reads();
            if s.tier_count() > 1 {
                let warm = s.cache().stats(1);
                c.tier_l1_hits += warm.read_hits + warm.write_hits;
            }
        }
    }
}

/// Replays a cell's records through a standalone, prewarmed cache module of
/// the cell's geometry: `CacheModule::access_into` on flat cells,
/// `TieredCacheModule::access_into` (committing moves once per interval, as
/// the system does) on tiered ones. Only the access loop is timed, as the
/// `probe.cache` / `probe.tier` span; the whole probe, including
/// regenerating the records, sits in a `probe` span that the metrics keep
/// out of the traced pass's wall time. It measures the cache layer's cost
/// per access, not the simulation.
pub fn probe_cache<S: Spans>(scenario: &Scenario, spans: &mut S, counts: &mut LayerCounts) {
    spans.enter("probe");
    let spec = scenario.workload();
    let mut id = 0;
    let batches: Vec<Vec<IoRequest>> = (0..spec.total_intervals())
        .map(|index| {
            spec.generate_interval(index, scenario.stream_seed())
                .iter()
                .map(|r| {
                    id += 1;
                    r.to_request(id)
                })
                .collect()
        })
        .collect();
    let config = scenario.config();
    match config.tiers {
        Some(topology) if config.is_tiered() => {
            let mut cache = TieredCacheModule::new(topology);
            if config.prewarm_cache {
                cache.prewarm_to_capacity();
            }
            let mut outcome = TieredOutcome::new();
            spans.enter("probe.tier");
            for batch in &batches {
                for request in batch {
                    cache.access_into(request, &mut outcome);
                }
                cache.commit_moves();
            }
            spans.exit();
            std::hint::black_box(cache.movement(0));
            counts.probe_tier_accesses += id;
        }
        _ => {
            let mut cache = CacheModule::new(config.cache);
            if config.prewarm_cache {
                cache.prewarm_full();
            }
            let mut outcome = CacheOutcome::new();
            spans.enter("probe.cache");
            for request in batches.iter().flatten() {
                cache.access_into(request, &mut outcome);
            }
            spans.exit();
            std::hint::black_box(cache.stats());
            counts.probe_cache_accesses += id;
        }
    }
    drop(batches);
    spans.exit();
}
