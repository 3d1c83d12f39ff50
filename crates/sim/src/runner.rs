//! The per-workload simulation driver.

use std::ops::Range;

use lbica_cache::{CacheStats, WritePolicy};
use lbica_obs::{NoProf, Phase, PhaseProfiler, PhaseSink, QueueTier, SimObserver};
use lbica_trace::workload::WorkloadSpec;

use crate::arena::SimArena;
use crate::checkpoint::ReplayCheckpoint;
use crate::config::SimulationConfig;
use crate::controller::{
    BypassDirective, CacheController, ControllerContext, ControllerDecision, TierLoad,
};
use crate::report::{PolicyChange, SimPerf, SimulationReport, TierLevelStats};
use crate::system::StorageSystem;
use crate::tiered::TieredStorageSystem;
use crate::tracker::AppTracker;

use lbica_storage::snap::{SnapError, SnapReader, SnapWriter};
use lbica_storage::time::SimTime;
use lbica_trace::monitor::IntervalReport;
use lbica_trace::record::TraceRecord;

/// Drives one [`WorkloadSpec`] through a [`StorageSystem`] under a
/// [`CacheController`], interval by interval, producing a
/// [`SimulationReport`].
///
/// The loop mirrors the paper's deployment: the workload runs continuously;
/// once per monitoring interval the `iostat`/`blktrace` measurements are
/// gathered, handed to the controller, and the controller's policy /
/// bypass decision is applied before the next interval starts.
#[derive(Debug)]
pub struct Simulation {
    config: SimulationConfig,
    spec: WorkloadSpec,
    seed: u64,
    drain_at_end: bool,
    observer: Option<SimObserver>,
    profiler: Option<PhaseProfiler>,
}

/// The steps of the interval loop in which the flat [`StorageSystem`] and
/// the N-level [`TieredStorageSystem`] differ. The one loop is generic over
/// this trait, so each system gets its own monomorphized copy and no call
/// on the per-interval or per-event path is dynamic.
pub(crate) trait Datapath: Sized {
    /// Takes a system for `config` from `arena`: the stored one, reset,
    /// when its config matches; a freshly built one otherwise.
    fn take(arena: &mut SimArena, config: &SimulationConfig) -> Self;
    /// Returns the system to `arena` for the next run of `config`.
    fn store(self, arena: &mut SimArena, config: SimulationConfig);
    /// Assigns the controller's initial policy and returns the run's first
    /// Fig. 6 policy label.
    fn start(&mut self, policy: WritePolicy) -> String;
    /// Schedules the arrival of one application request.
    fn schedule_record(&mut self, record: &TraceRecord);
    /// Runs the event loop up to `limit`.
    fn run_until_with<P: PhaseSink>(&mut self, limit: SimTime, prof: &mut P);
    /// Drains outstanding work in at most `max_steps` 100 ms steps.
    fn drain_with<P: PhaseSink>(&mut self, max_steps: u32, prof: &mut P);
    /// Closes interval `index` and refills `tier_loads` with the per-level
    /// loads handed to the controller (left empty on the flat system).
    fn close_interval<P: PhaseSink>(
        &mut self,
        index: u32,
        tier_loads: &mut Vec<TierLoad>,
        prof: &mut P,
    ) -> IntervalReport;
    /// The controller's view of the system at the end of interval `index`.
    fn context<'a>(
        &'a self,
        index: u32,
        report: &IntervalReport,
        tier_loads: &'a [TierLoad],
    ) -> ControllerContext<'a>;
    /// Applies the decision's write policy; returns the new Fig. 6 label
    /// when the assignment changed.
    fn apply_policy(&mut self, decision: &ControllerDecision) -> Option<String>;
    /// Applies a bypass directive and returns `(bypassed, spilled_writes,
    /// spilled_reads)`: the requests reclassified to the disk, and those
    /// re-homed at a lower cache level instead.
    fn bypass(&mut self, directive: &BypassDirective) -> (u64, u64, u64);
    /// Cumulative (promotions, demotions) over every cache level.
    fn movement_totals(&self) -> (u64, u64);
    /// The application-request accounting.
    fn app(&self) -> &AppTracker;
    /// The event loop's deterministic work counters.
    fn perf(&self) -> SimPerf;
    /// The headline cache stats: the level every application request is
    /// judged against (the hot tier of a hierarchy).
    fn cache_stats(&self) -> CacheStats;
    /// The per-level breakdown (empty on the flat system).
    fn tier_stats(&self) -> Vec<TierLevelStats>;
    /// Serializes the mid-flight state for a replay checkpoint.
    fn snap_to(&self, w: &mut SnapWriter);
    /// Restores state written by [`Datapath::snap_to`].
    fn snap_state_from(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError>;
}

/// What a run accumulates interval by interval, and what a checkpoint
/// carries across its split.
struct Progress {
    intervals: Vec<IntervalReport>,
    policy_changes: Vec<PolicyChange>,
    bypassed_total: u64,
}

impl Progress {
    fn start(first_label: String, capacity: u32) -> Self {
        Progress {
            intervals: Vec::with_capacity(capacity as usize),
            policy_changes: vec![PolicyChange { interval: 0, policy: first_label }],
            bypassed_total: 0,
        }
    }
}

impl Simulation {
    /// Creates a simulation of `spec` with the given configuration and
    /// random seed.
    pub fn new(config: SimulationConfig, spec: WorkloadSpec, seed: u64) -> Self {
        Simulation { config, spec, seed, drain_at_end: true, observer: None, profiler: None }
    }

    /// Disables draining outstanding requests after the last interval
    /// (builder style). Draining is enabled by default so that conservation
    /// checks and aggregate latencies cover every request.
    pub fn without_drain(mut self) -> Self {
        self.drain_at_end = false;
        self
    }

    /// Attaches an observer that records interval-granularity trace events
    /// and metrics during the run (builder style). Observability is
    /// strictly out-of-band: the report of an observed run is byte-identical
    /// to an unobserved one, and with no observer attached the run pays
    /// zero instrumentation cost.
    pub fn with_observer(mut self, observer: SimObserver) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Detaches and returns the observer (with everything it recorded),
    /// if one was attached.
    pub fn take_observer(&mut self) -> Option<SimObserver> {
        self.observer.take()
    }

    /// Attaches a phase profiler that attributes the run's *wall* time to
    /// the hot loop's subsystems (builder style). Like the observer, the
    /// profiler is write-only: a profiled run's report is byte-identical
    /// to an unprofiled one, and with no profiler attached the loop runs
    /// its [`lbica_obs::NoProf`] monomorphization — the exact pre-profiler
    /// code, zero instrumentation cost.
    pub fn with_profiler(mut self, profiler: PhaseProfiler) -> Self {
        self.profiler = Some(profiler);
        self
    }

    /// Detaches and returns the profiler (with the run's accumulated
    /// phase totals), if one was attached.
    pub fn take_profiler(&mut self) -> Option<PhaseProfiler> {
        self.profiler.take()
    }

    /// The workload being simulated.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// The configuration in use.
    pub const fn config(&self) -> &SimulationConfig {
        &self.config
    }

    /// Runs the full workload under `controller` and returns the report.
    ///
    /// Configurations describing two or more cache levels run on the
    /// tiered datapath ([`TieredStorageSystem`]);
    /// everything else takes
    /// the paper's flat single-SSD path, which is untouched by the tier
    /// subsystem (single-tier results are bit-identical to the seed).
    pub fn run(&mut self, controller: &mut dyn CacheController) -> SimulationReport {
        let mut arena = SimArena::new();
        self.run_in(controller, &mut arena)
    }

    /// Like [`Simulation::run`], but sourcing (and returning) the simulated
    /// system's backing stores from `arena`, so consecutive runs of the same
    /// [`SimulationConfig`] on one thread reuse their allocations instead of
    /// rebuilding them per run. Reset is observationally equivalent to fresh
    /// construction (see [`SimArena`]), so the report — and any observed
    /// trace — is byte-identical to [`Simulation::run`]'s.
    pub fn run_in(
        &mut self,
        controller: &mut dyn CacheController,
        arena: &mut SimArena,
    ) -> SimulationReport {
        // The profiler is threaded as a generic PhaseSink so the
        // no-profiler path monomorphizes to the uninstrumented loop; it is
        // taken out of `self` for the duration of the run and restored
        // afterwards (mirroring how callers retrieve it via
        // `take_profiler`).
        match self.profiler.take() {
            Some(mut prof) => {
                let report = self.run_with(controller, arena, &mut prof);
                self.profiler = Some(prof);
                report
            }
            None => self.run_with(controller, arena, &mut NoProf),
        }
    }

    fn run_with<P: PhaseSink>(
        &mut self,
        controller: &mut dyn CacheController,
        arena: &mut SimArena,
        prof: &mut P,
    ) -> SimulationReport {
        if self.config.is_tiered() {
            self.run_on::<TieredStorageSystem, P>(controller, arena, prof)
        } else {
            self.run_on::<StorageSystem, P>(controller, arena, prof)
        }
    }

    /// [`Simulation::run_in`] on one datapath: every interval, then the
    /// drain and the report.
    fn run_on<S: Datapath, P: PhaseSink>(
        &mut self,
        controller: &mut dyn CacheController,
        arena: &mut SimArena,
        prof: &mut P,
    ) -> SimulationReport {
        let mut system = S::take(arena, &self.config);
        let total = self.spec.total_intervals();
        let mut progress = Progress::start(system.start(controller.initial_policy()), total);
        self.run_intervals(&mut system, controller, 0..total, &mut progress, prof);
        let report = self.finish(&mut system, controller, progress, prof);
        system.store(arena, self.config);
        report
    }

    /// Runs intervals `[0, split_at)` and pauses, returning a
    /// [`ReplayCheckpoint`] that [`Simulation::resume_from_checkpoint`]
    /// continues byte-identically to the unsplit run.
    ///
    /// Checkpoints are taken at monitoring-interval boundaries, where the
    /// iostat/blktrace accumulators are freshly reset — the only points at
    /// which the monitors carry no state that would have to be serialized.
    /// `split_at` may equal the workload's interval count, in which case the
    /// resume only drains and builds the report. Checkpointed runs execute
    /// unobserved and unprofiled: attach neither, or this returns an error.
    pub fn run_to_checkpoint(
        &mut self,
        controller: &mut dyn CacheController,
        split_at: u32,
    ) -> Result<ReplayCheckpoint, SnapError> {
        if self.observer.is_some() || self.profiler.is_some() {
            return Err(SnapError::Corrupt("checkpoint runs execute unobserved"));
        }
        if split_at > self.spec.total_intervals() {
            return Err(SnapError::Corrupt("checkpoint split beyond workload end"));
        }
        Ok(if self.config.is_tiered() {
            self.checkpoint_on::<TieredStorageSystem>(controller, split_at)
        } else {
            self.checkpoint_on::<StorageSystem>(controller, split_at)
        })
    }

    fn checkpoint_on<S: Datapath>(
        &mut self,
        controller: &mut dyn CacheController,
        split_at: u32,
    ) -> ReplayCheckpoint {
        let mut system = S::take(&mut SimArena::new(), &self.config);
        let mut progress = Progress::start(system.start(controller.initial_policy()), split_at);
        self.run_intervals(&mut system, controller, 0..split_at, &mut progress, &mut NoProf);
        let mut w = SnapWriter::new();
        system.snap_to(&mut w);
        controller.save_state(&mut w);
        ReplayCheckpoint {
            workload: self.spec.name().to_string(),
            controller: controller.name().to_string(),
            seed: self.seed,
            tiered: self.config.is_tiered(),
            next_interval: split_at,
            total_intervals: self.spec.total_intervals(),
            bypassed_total: progress.bypassed_total,
            intervals: progress.intervals,
            policy_changes: progress.policy_changes,
            state: w.into_bytes(),
        }
    }

    /// Continues a run paused by [`Simulation::run_to_checkpoint`], restoring
    /// the storage system and the controller and executing the remaining
    /// intervals. The returned report is byte-identical to the report the
    /// unsplit run would have produced.
    ///
    /// The checkpoint's identity fields are validated against this
    /// simulation and `controller`; any mismatch (different workload, seed,
    /// controller, datapath, or interval count) is a typed error, never a
    /// silently wrong replay.
    pub fn resume_from_checkpoint(
        &mut self,
        controller: &mut dyn CacheController,
        cp: &ReplayCheckpoint,
    ) -> Result<SimulationReport, SnapError> {
        if self.observer.is_some() || self.profiler.is_some() {
            return Err(SnapError::Corrupt("checkpoint runs execute unobserved"));
        }
        if cp.tiered != self.config.is_tiered() {
            return Err(SnapError::Corrupt("checkpoint datapath mismatch"));
        }
        if cp.workload != self.spec.name() {
            return Err(SnapError::Corrupt("checkpoint workload mismatch"));
        }
        if cp.seed != self.seed {
            return Err(SnapError::Corrupt("checkpoint seed mismatch"));
        }
        if cp.controller != controller.name() {
            return Err(SnapError::Corrupt("checkpoint controller mismatch"));
        }
        if cp.total_intervals != self.spec.total_intervals() {
            return Err(SnapError::Corrupt("checkpoint interval count mismatch"));
        }
        if cp.next_interval > cp.total_intervals {
            return Err(SnapError::Corrupt("checkpoint interval beyond workload end"));
        }
        if cp.tiered {
            self.resume_on::<TieredStorageSystem>(controller, cp)
        } else {
            self.resume_on::<StorageSystem>(controller, cp)
        }
    }

    fn resume_on<S: Datapath>(
        &mut self,
        controller: &mut dyn CacheController,
        cp: &ReplayCheckpoint,
    ) -> Result<SimulationReport, SnapError> {
        let mut system = S::take(&mut SimArena::new(), &self.config);
        // The restored cache carries the checkpointed write policy;
        // `start(initial)` is deliberately *not* replayed.
        let mut r = SnapReader::new(&cp.state);
        system.snap_state_from(&mut r)?;
        controller.restore_state(&mut r)?;
        r.finish()?;
        let mut progress = Progress {
            intervals: cp.intervals.clone(),
            policy_changes: cp.policy_changes.clone(),
            bypassed_total: cp.bypassed_total,
        };
        let span = cp.next_interval..cp.total_intervals;
        self.run_intervals(&mut system, controller, span, &mut progress, &mut NoProf);
        Ok(self.finish(&mut system, controller, progress, &mut NoProf))
    }

    /// The paper's control loop over the intervals in `span`.
    fn run_intervals<S: Datapath, P: PhaseSink>(
        &mut self,
        system: &mut S,
        controller: &mut dyn CacheController,
        span: Range<u32>,
        progress: &mut Progress,
        prof: &mut P,
    ) {
        let interval_us = self.spec.interval_us();
        let mut tier_loads = Vec::new();
        // Cumulative (promotions, demotions) at the last observed interval,
        // so the observer can trace per-interval movement deltas.
        let mut observed_moves = (0u64, 0u64);

        for index in span {
            // 1. Feed the interval's arrivals and run the event loop to the
            //    interval boundary.
            let mark = prof.mark();
            for record in self.spec.generate_interval(index, self.seed) {
                system.schedule_record(&record);
            }
            prof.record(Phase::EventQueue, mark);
            let boundary = SimTime::from_micros((index as u64 + 1) * interval_us);
            system.run_until_with(boundary, prof);

            // 2. Gather the iostat/blktrace measurements for the interval.
            let mut report = system.close_interval(index, &mut tier_loads, prof);

            // 3. Consult the controller and apply its decision.
            let mark = prof.mark();
            let decision = controller.on_interval(&system.context(index, &report, &tier_loads));
            report.burst_detected = decision.burst_detected;
            let policy_switched = match system.apply_policy(&decision) {
                Some(policy) => {
                    progress.policy_changes.push(PolicyChange { interval: index + 1, policy });
                    true
                }
                None => false,
            };
            // `bypassed_requests` counts requests reclassified *to the
            // disk*. Spills (write and read alike) stay in the hierarchy
            // and are accounted separately (tier_stats).
            let (bypassed, spill_writes, spill_reads) = system.bypass(&decision.bypass);
            progress.bypassed_total += bypassed;
            prof.record(Phase::Controller, mark);

            // Out-of-band observability: reads interval measurements, never
            // feeds anything back into the system or the report. The
            // observer drops zero counts, so the flat system's (always
            // zero) spills and tier movement leave no trace.
            if let Some(obs) = self.observer.as_mut() {
                let start_us = index as u64 * interval_us;
                let end_us = start_us + interval_us;
                let (cache, disk) = (&report.cache, &report.disk);
                obs.interval_rollover(
                    index,
                    start_us,
                    interval_us,
                    cache.completed,
                    disk.completed,
                );
                obs.queue_high_water(
                    end_us,
                    index,
                    QueueTier::Cache,
                    cache.peak_queue_depth as u64,
                );
                obs.queue_high_water(end_us, index, QueueTier::Disk, disk.peak_queue_depth as u64);
                if decision.burst_detected {
                    obs.burst(end_us, index);
                }
                if policy_switched {
                    let label = &progress.policy_changes.last().expect("just pushed").policy;
                    obs.policy_change(end_us, index + 1, label);
                }
                obs.bypass(end_us, index, bypassed);
                obs.spill_writes(end_us, index, spill_writes);
                obs.spill_reads(end_us, index, spill_reads);
                let (promotions, demotions) = system.movement_totals();
                obs.promotions(end_us, index, promotions - observed_moves.0);
                obs.demotions(end_us, index, demotions - observed_moves.1);
                observed_moves = (promotions, demotions);
            }

            progress.intervals.push(report);
        }
    }

    /// Drains the tail, closes the observer's books and builds the report.
    fn finish<S: Datapath, P: PhaseSink>(
        &mut self,
        system: &mut S,
        controller: &mut dyn CacheController,
        progress: Progress,
        prof: &mut P,
    ) -> SimulationReport {
        if self.drain_at_end {
            // Let in-flight and queued requests finish so aggregate latencies
            // cover the whole workload. 600 × 100 ms = 60 simulated seconds,
            // a hard cap: a backlog the system cannot clear in that window
            // is truncated rather than chased forever.
            system.drain_with(600, prof);
        }

        let app = system.app();
        let perf = system.perf();
        if let Some(obs) = self.observer.as_mut() {
            controller.export_obs(obs, self.spec.interval_us());
            obs.run_totals(
                perf.events_processed,
                app.completed(),
                perf.peak_event_queue_depth as u64,
            );
            obs.observe_app_latency(app.latency_histogram());
        }

        let mark = prof.mark();
        let report = SimulationReport {
            workload: self.spec.name().to_string(),
            controller: controller.name().to_string(),
            total_intervals: self.spec.total_intervals(),
            intervals: progress.intervals,
            policy_changes: progress.policy_changes,
            app_completed: app.completed(),
            app_avg_latency_us: app.avg_latency_us(),
            app_max_latency_us: app.max_latency_us(),
            app_p50_latency_us: app.percentile_us(50.0),
            app_p95_latency_us: app.percentile_us(95.0),
            app_p99_latency_us: app.percentile_us(99.0),
            bypassed_requests: progress.bypassed_total,
            cache_stats: system.cache_stats(),
            perf,
            tier_stats: system.tier_stats(),
        };
        prof.record(Phase::Report, mark);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::StaticPolicyController;
    use lbica_cache::WritePolicy;
    use lbica_trace::workload::{WorkloadScale, WorkloadSpec};

    fn tiny_sim(spec: WorkloadSpec) -> Simulation {
        Simulation::new(SimulationConfig::tiny(), spec, 7)
    }

    #[test]
    fn wb_baseline_completes_every_interval() {
        let spec = WorkloadSpec::tpcc_scaled(WorkloadScale::tiny());
        let total = spec.total_intervals();
        let mut sim = tiny_sim(spec);
        let report = sim.run(&mut StaticPolicyController::write_back());
        assert_eq!(report.intervals.len() as u32, total);
        assert_eq!(report.controller, "WB");
        assert_eq!(report.workload, "tpcc");
        assert!(report.app_completed > 100);
        assert_eq!(report.policy_changes.len(), 1);
        assert_eq!(report.bypassed_requests, 0);
        // Every interval carries the WB label.
        assert!(report.policy_series().iter().all(|p| *p == "WB"));
    }

    #[test]
    fn burst_intervals_show_higher_cache_load_than_the_preceding_calm_ones() {
        let spec = WorkloadSpec::tpcc_scaled(WorkloadScale::tiny());
        let first_burst = (0..spec.total_intervals())
            .find(|i| spec.is_burst_interval(*i))
            .expect("tpcc has burst intervals");
        let mut sim = tiny_sim(spec.clone());
        let report = sim.run(&mut StaticPolicyController::write_back());
        let burst_avg = mean_at(&report, |i| spec.is_burst_interval(i));
        // Compare against the calm intervals *before* the first burst: the
        // intervals after a burst still drain its backlog and are not a fair
        // "moderate" baseline.
        let pre_burst_avg = mean_at(&report, |i| i < first_burst);
        assert!(
            burst_avg > pre_burst_avg,
            "burst avg {burst_avg} should exceed pre-burst avg {pre_burst_avg}"
        );
    }

    fn mean_at(report: &SimulationReport, pred: impl Fn(u32) -> bool) -> f64 {
        let vals: Vec<u64> = report
            .intervals
            .iter()
            .filter(|i| pred(i.index))
            .map(|i| i.cache.max_latency_us)
            .collect();
        vals.iter().sum::<u64>() as f64 / vals.len().max(1) as f64
    }

    #[test]
    fn static_read_only_controller_pushes_writes_to_disk() {
        let spec = WorkloadSpec::mail_server_scaled(WorkloadScale::tiny());
        let mut wb_sim = tiny_sim(spec.clone());
        let wb = wb_sim.run(&mut StaticPolicyController::write_back());
        let mut ro_sim = tiny_sim(spec);
        let ro = ro_sim.run(&mut StaticPolicyController::new(WritePolicy::ReadOnly));
        let wb_disk: u64 = wb.intervals.iter().map(|i| i.disk.completed).sum();
        let ro_disk: u64 = ro.intervals.iter().map(|i| i.disk.completed).sum();
        assert!(
            ro_disk > wb_disk,
            "read-only cache must send more work to the disk ({ro_disk} vs {wb_disk})"
        );
    }

    #[test]
    fn runs_are_deterministic_for_a_fixed_seed() {
        let spec = WorkloadSpec::web_server_scaled(WorkloadScale::tiny());
        let a = Simulation::new(SimulationConfig::tiny(), spec.clone(), 3)
            .run(&mut StaticPolicyController::write_back());
        let b = Simulation::new(SimulationConfig::tiny(), spec, 3)
            .run(&mut StaticPolicyController::write_back());
        assert_eq!(a, b);
    }

    #[test]
    fn tiered_runs_complete_and_surface_per_tier_stats() {
        let spec = WorkloadSpec::mail_server_scaled(WorkloadScale::tiny());
        let total = spec.total_intervals();
        let mut sim = Simulation::new(SimulationConfig::tiny_two_tier(), spec, 7);
        let report = sim.run(&mut StaticPolicyController::write_back());
        assert_eq!(report.intervals.len() as u32, total);
        assert!(report.app_completed > 100);
        assert_eq!(report.tier_stats.len(), 2);
        assert_eq!(report.tier_count(), 2);
        assert!(report.tier(0).unwrap().hits > 0, "hot tier serves traffic");
        assert!(report.tier(0).unwrap().completed > 0);
        assert!(report.tier(1).is_some());
        assert!(report.tier(2).is_none());
    }

    #[test]
    fn tiered_runs_are_deterministic_for_a_fixed_seed() {
        let spec = WorkloadSpec::web_server_scaled(WorkloadScale::tiny());
        let a = Simulation::new(SimulationConfig::tiny_two_tier(), spec.clone(), 3)
            .run(&mut StaticPolicyController::write_back());
        let b = Simulation::new(SimulationConfig::tiny_two_tier(), spec, 3)
            .run(&mut StaticPolicyController::write_back());
        assert_eq!(a, b);
    }

    #[test]
    fn flat_reports_carry_no_tier_stats() {
        let spec = WorkloadSpec::web_server_scaled(WorkloadScale::tiny());
        let report = tiny_sim(spec).run(&mut StaticPolicyController::write_back());
        assert!(report.tier_stats.is_empty());
        assert_eq!(report.tier_count(), 1);
        assert_eq!(report.spilled_requests(), 0);
    }

    #[test]
    fn configured_per_tier_policies_survive_run_start() {
        let spec = WorkloadSpec::mail_server_scaled(WorkloadScale::tiny());
        let uniform = Simulation::new(SimulationConfig::tiny_two_tier(), spec.clone(), 7)
            .run(&mut StaticPolicyController::write_back());
        let warm_wt =
            SimulationConfig::tiny_two_tier().with_tier_level_policy(1, WritePolicy::WriteThrough);
        let wt = Simulation::new(warm_wt, spec, 7).run(&mut StaticPolicyController::write_back());
        // The initial Fig. 6 label is the composite hot-to-cold assignment.
        assert_eq!(wt.policy_changes[0].policy, "WB/WT");
        assert_eq!(uniform.policy_changes[0].policy, "WB");
        assert_ne!(uniform, wt, "a write-through warm tier must change behaviour");
        // Writes owned by the WT warm tier additionally reach the disk.
        let disk = |r: &SimulationReport| r.intervals.iter().map(|i| i.disk.completed).sum::<u64>();
        assert!(
            disk(&wt) > disk(&uniform),
            "warm-tier write-through traffic must show up at the disk ({} vs {})",
            disk(&wt),
            disk(&uniform)
        );
    }

    #[test]
    fn observed_runs_produce_identical_reports_to_unobserved_ones() {
        for config in [SimulationConfig::tiny(), SimulationConfig::tiny_two_tier()] {
            let spec = WorkloadSpec::tpcc_scaled(WorkloadScale::tiny());
            let plain = Simulation::new(config, spec.clone(), 11)
                .run(&mut StaticPolicyController::write_back());
            let mut observed =
                Simulation::new(config, spec, 11).with_observer(lbica_obs::SimObserver::new());
            let report = observed.run(&mut StaticPolicyController::write_back());
            assert_eq!(plain, report, "observer must not perturb the report");

            let obs = observed.take_observer().expect("observer attached");
            assert!(observed.take_observer().is_none());
            // One rollover + two queue marks per interval, at minimum.
            assert!(obs.ring().len() >= plain.intervals.len() * 3);
            let snap = obs.snapshot();
            let intervals = snap
                .counters
                .iter()
                .find(|c| c.name == "lbica_sim_intervals_total")
                .expect("interval counter registered");
            assert_eq!(intervals.value, plain.intervals.len() as u64);
            let events = snap
                .counters
                .iter()
                .find(|c| c.name == "lbica_sim_events_processed_total")
                .expect("events counter registered");
            assert_eq!(events.value, plain.perf.events_processed);
        }
    }

    #[test]
    fn profiled_runs_produce_identical_reports_to_unprofiled_ones() {
        use lbica_obs::{Phase, PhaseProfiler};
        for config in [SimulationConfig::tiny(), SimulationConfig::tiny_two_tier()] {
            let spec = WorkloadSpec::tpcc_scaled(WorkloadScale::tiny());
            let plain = Simulation::new(config, spec.clone(), 11)
                .run(&mut StaticPolicyController::write_back());
            let mut profiled =
                Simulation::new(config, spec, 11).with_profiler(PhaseProfiler::new());
            let report = profiled.run(&mut StaticPolicyController::write_back());
            assert_eq!(plain, report, "profiler must not perturb the report");

            let prof = profiled.take_profiler().expect("profiler attached");
            assert!(profiled.take_profiler().is_none());
            // Every event pops through the EventQueue phase, plus one feed
            // region per interval.
            assert!(
                prof.calls(Phase::EventQueue) > plain.perf.events_processed,
                "event-queue regions cover every pop"
            );
            assert!(prof.calls(Phase::CacheMap) > 0);
            assert_eq!(prof.calls(Phase::Controller), plain.intervals.len() as u64);
            if config.is_tiered() {
                assert_eq!(prof.calls(Phase::TierMovement), plain.intervals.len() as u64);
            } else {
                assert_eq!(prof.calls(Phase::TierMovement), 0, "flat runs never move tiers");
            }
            assert!(prof.calls(Phase::Report) > plain.intervals.len() as u64);
        }
    }

    #[test]
    fn observed_traces_are_deterministic() {
        let run = || {
            let spec = WorkloadSpec::web_server_scaled(WorkloadScale::tiny());
            let mut sim = Simulation::new(SimulationConfig::tiny(), spec, 5)
                .with_observer(lbica_obs::SimObserver::new());
            sim.run(&mut StaticPolicyController::write_back());
            sim.take_observer().unwrap().render_chrome_trace("cell")
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn reports_surface_app_latency_percentiles() {
        let spec = WorkloadSpec::tpcc_scaled(WorkloadScale::tiny());
        let report = tiny_sim(spec).run(&mut StaticPolicyController::write_back());
        assert!(report.app_p50_latency_us > 0);
        assert!(report.app_p50_latency_us <= report.app_p95_latency_us);
        assert!(report.app_p95_latency_us <= report.app_p99_latency_us);
        assert!(report.app_p99_latency_us <= report.app_max_latency_us);
    }

    #[test]
    fn arena_reuse_reproduces_fresh_runs_exactly() {
        let mut arena = SimArena::new();
        for config in [
            SimulationConfig::tiny(),
            SimulationConfig::tiny_two_tier(),
            SimulationConfig::tiny_three_tier(),
        ] {
            let spec = WorkloadSpec::tpcc_scaled(WorkloadScale::tiny());
            let fresh = Simulation::new(config, spec.clone(), 13)
                .run(&mut StaticPolicyController::write_back());
            // First pass may build fresh; second pass reuses the stored
            // system via reset. Both must equal the from-scratch run.
            for pass in 0..2 {
                let reused = Simulation::new(config, spec.clone(), 13)
                    .run_in(&mut StaticPolicyController::write_back(), &mut arena);
                assert_eq!(fresh, reused, "pass {pass} diverged");
            }
        }
        // Cycling back to an earlier config after the arena holds a
        // different shape rebuilds fresh — and still matches.
        let spec = WorkloadSpec::tpcc_scaled(WorkloadScale::tiny());
        let fresh = Simulation::new(SimulationConfig::tiny(), spec.clone(), 13)
            .run(&mut StaticPolicyController::write_back());
        let reused = Simulation::new(SimulationConfig::tiny(), spec, 13)
            .run_in(&mut StaticPolicyController::write_back(), &mut arena);
        assert_eq!(fresh, reused);
    }

    #[test]
    fn checkpointed_flat_replay_equals_the_unsplit_run() {
        let spec = WorkloadSpec::tpcc_scaled(WorkloadScale::tiny());
        let total = spec.total_intervals();
        let unsplit = Simulation::new(SimulationConfig::tiny(), spec.clone(), 7)
            .run(&mut StaticPolicyController::write_back());
        // Every boundary is a legal split point, including 0 (resume runs
        // everything) and total (resume only drains and reports).
        for split in [0, 1, total / 2, total - 1, total] {
            let cp = Simulation::new(SimulationConfig::tiny(), spec.clone(), 7)
                .run_to_checkpoint(&mut StaticPolicyController::write_back(), split)
                .unwrap();
            let cp = ReplayCheckpoint::from_bytes(&cp.to_bytes()).unwrap();
            let resumed = Simulation::new(SimulationConfig::tiny(), spec.clone(), 7)
                .resume_from_checkpoint(&mut StaticPolicyController::write_back(), &cp)
                .unwrap();
            assert_eq!(unsplit, resumed, "split at {split} diverged");
        }
    }

    #[test]
    fn checkpointed_tiered_replay_equals_the_unsplit_run() {
        let spec = WorkloadSpec::mail_server_scaled(WorkloadScale::tiny());
        let total = spec.total_intervals();
        let unsplit = Simulation::new(SimulationConfig::tiny_two_tier(), spec.clone(), 7)
            .run(&mut StaticPolicyController::write_back());
        for split in [1, total / 2, total] {
            let cp = Simulation::new(SimulationConfig::tiny_two_tier(), spec.clone(), 7)
                .run_to_checkpoint(&mut StaticPolicyController::write_back(), split)
                .unwrap();
            let cp = ReplayCheckpoint::from_bytes(&cp.to_bytes()).unwrap();
            let resumed = Simulation::new(SimulationConfig::tiny_two_tier(), spec.clone(), 7)
                .resume_from_checkpoint(&mut StaticPolicyController::write_back(), &cp)
                .unwrap();
            assert_eq!(unsplit, resumed, "split at {split} diverged");
        }
    }

    #[test]
    fn checkpoints_refuse_to_resume_against_the_wrong_cell() {
        use lbica_storage::snap::SnapError;
        let spec = WorkloadSpec::tpcc_scaled(WorkloadScale::tiny());
        let cp = Simulation::new(SimulationConfig::tiny(), spec.clone(), 7)
            .run_to_checkpoint(&mut StaticPolicyController::write_back(), 2)
            .unwrap();
        // Wrong seed.
        let err = Simulation::new(SimulationConfig::tiny(), spec.clone(), 8)
            .resume_from_checkpoint(&mut StaticPolicyController::write_back(), &cp)
            .unwrap_err();
        assert_eq!(err, SnapError::Corrupt("checkpoint seed mismatch"));
        // Wrong workload.
        let other = WorkloadSpec::web_server_scaled(WorkloadScale::tiny());
        let err = Simulation::new(SimulationConfig::tiny(), other, 7)
            .resume_from_checkpoint(&mut StaticPolicyController::write_back(), &cp)
            .unwrap_err();
        assert_eq!(err, SnapError::Corrupt("checkpoint workload mismatch"));
        // Wrong controller.
        let err = Simulation::new(SimulationConfig::tiny(), spec.clone(), 7)
            .resume_from_checkpoint(&mut StaticPolicyController::new(WritePolicy::ReadOnly), &cp)
            .unwrap_err();
        assert_eq!(err, SnapError::Corrupt("checkpoint controller mismatch"));
        // Wrong datapath.
        let err = Simulation::new(SimulationConfig::tiny_two_tier(), spec.clone(), 7)
            .resume_from_checkpoint(&mut StaticPolicyController::write_back(), &cp)
            .unwrap_err();
        assert_eq!(err, SnapError::Corrupt("checkpoint datapath mismatch"));
        // Split past the end of the workload.
        let err = Simulation::new(SimulationConfig::tiny(), spec, 7)
            .run_to_checkpoint(&mut StaticPolicyController::write_back(), cp.total_intervals + 1)
            .unwrap_err();
        assert_eq!(err, SnapError::Corrupt("checkpoint split beyond workload end"));
    }

    #[test]
    fn checkpoint_paths_reject_observed_runs() {
        let spec = WorkloadSpec::tpcc_scaled(WorkloadScale::tiny());
        let err = Simulation::new(SimulationConfig::tiny(), spec, 7)
            .with_observer(lbica_obs::SimObserver::new())
            .run_to_checkpoint(&mut StaticPolicyController::write_back(), 1)
            .unwrap_err();
        assert_eq!(
            err,
            lbica_storage::snap::SnapError::Corrupt("checkpoint runs execute unobserved")
        );
    }

    #[test]
    fn tiered_checkpoints_refuse_a_resized_hot_tier() {
        let spec = WorkloadSpec::mail_server_scaled(WorkloadScale::tiny());
        let cp = Simulation::new(SimulationConfig::tiny_two_tier(), spec.clone(), 7)
            .run_to_checkpoint(&mut StaticPolicyController::write_back(), 2)
            .unwrap();
        let resized = SimulationConfig::tiny_two_tier().with_cache_sets(64);
        let err = Simulation::new(resized, spec, 7)
            .resume_from_checkpoint(&mut StaticPolicyController::write_back(), &cp)
            .unwrap_err();
        assert_eq!(err, SnapError::Corrupt("tier geometry mismatch"));
    }

    /// Restores a snapshot of `config`'s system whose one live request id
    /// is overwritten with ids no allocation could index.
    fn forged_live_ids_are_rejected<S: Datapath>(config: SimulationConfig) {
        use lbica_storage::request::RequestKind;
        let mut arena = SimArena::new();
        let mut system = S::take(&mut arena, &config);
        system.schedule_record(&TraceRecord::new(0, 0, 8, RequestKind::Write));
        system.run_until_with(SimTime::from_micros(1), &mut NoProf);
        assert_eq!(system.app().outstanding(), 1, "one request in flight");
        let mut w = SnapWriter::new();
        system.snap_to(&mut w);
        let state = w.into_bytes();
        let mut w = SnapWriter::new();
        system.app().snap_to(&mut w);
        let tracker = w.into_bytes();
        // The tracker section ends with the live (id, arrival, ops) triple.
        let id_at =
            state.windows(tracker.len()).position(|s| s == tracker).unwrap() + tracker.len() - 20;
        for forged in [1u64 << 40, u64::MAX] {
            let mut bytes = state.clone();
            bytes[id_at..id_at + 8].copy_from_slice(&forged.to_le_bytes());
            let mut fresh = S::take(&mut arena, &config);
            assert_eq!(
                fresh.snap_state_from(&mut SnapReader::new(&bytes)),
                Err(SnapError::Corrupt("live request id was never issued")),
                "id {forged:#x}"
            );
        }
    }

    #[test]
    fn forged_live_request_ids_are_typed_errors_on_both_datapaths() {
        forged_live_ids_are_rejected::<StorageSystem>(SimulationConfig::tiny());
        forged_live_ids_are_rejected::<TieredStorageSystem>(SimulationConfig::tiny_two_tier());
    }

    #[test]
    fn without_drain_skips_the_tail() {
        let spec = WorkloadSpec::tpcc_scaled(WorkloadScale::tiny());
        let drained = Simulation::new(SimulationConfig::tiny(), spec.clone(), 9)
            .run(&mut StaticPolicyController::write_back());
        let undrained = Simulation::new(SimulationConfig::tiny(), spec, 9)
            .without_drain()
            .run(&mut StaticPolicyController::write_back());
        assert!(drained.app_completed >= undrained.app_completed);
    }
}
