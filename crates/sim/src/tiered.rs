//! The simulated *tiered* storage system: an N-level cache hierarchy in
//! front of the disk subsystem.
//!
//! This is the multi-SSD generalization of [`crate::StorageSystem`]: one
//! [`DeviceStation`] per cache level (hot tier first) plus the disk
//! station, with the [`TieredCacheModule`] deciding which station every
//! derived operation lands on. The flat system remains the single-tier
//! special case and is untouched by this module — `Simulation` dispatches
//! here only when the configuration describes two or more levels.

use lbica_cache::{CacheStats, WritePolicy};
use lbica_obs::{NoProf, Phase, PhaseSink};
use lbica_storage::device::{AnyDeviceModel, DeviceModel, HddModel, SsdModel};
use lbica_storage::queue::DeviceQueue;
use lbica_storage::request::{IoRequest, RequestClass, RequestId, RequestOrigin};
use lbica_storage::snap::{SnapError, SnapReader, SnapWriter};
use lbica_storage::time::{SimDuration, SimTime};
use lbica_tier::{TierTarget, TieredCacheModule, TieredOutcome, MAX_TIERS};
use lbica_trace::monitor::{BlktraceProbe, IntervalReport, IostatCollector, Tier};
use lbica_trace::record::TraceRecord;

use crate::arena::SimArena;
use crate::config::{DiskDeviceConfig, SimulationConfig};
use crate::controller::{BypassDirective, ControllerContext, ControllerDecision, TierLoad};
use crate::event::{EventKind, EventQueue};
use crate::report::{SimPerf, TierLevelStats};
use crate::runner::Datapath;
use crate::system::{DeviceStation, TierId};
use crate::tracker::AppTracker;

/// Per-level completion counters the stations cannot track themselves.
#[derive(Debug, Clone, Copy, Default)]
struct LevelCounters {
    completed: u64,
    total_latency_us: u64,
    max_latency_us: u64,
}

/// The full simulated tiered system: application entry point, the tiered
/// cache module, one station per cache level, the disk station, monitors
/// and the event queue.
#[derive(Debug)]
pub struct TieredStorageSystem {
    cache: TieredCacheModule,
    levels: Vec<DeviceStation>,
    disk: DeviceStation,
    counters: Vec<LevelCounters>,
    events: EventQueue,
    clock: SimTime,
    iostat: IostatCollector,
    probe: BlktraceProbe,
    app: AppTracker,
    next_id: RequestId,
    events_processed: u64,
    spilled_requests: u64,
    spilled_reads: u64,
    /// Reused per-arrival outcome buffer (no allocation in the hot loop).
    outcome_scratch: TieredOutcome,
}

impl TieredStorageSystem {
    /// Builds a tiered system from a [`SimulationConfig`] carrying a tier
    /// topology.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has no tier topology.
    pub fn new(config: &SimulationConfig) -> Self {
        let topology = config.tiers.expect("a tiered system needs a tier topology");
        let mut cache = TieredCacheModule::new(topology);
        if config.prewarm_cache {
            cache.prewarm_to_capacity();
        }
        let levels: Vec<DeviceStation> = topology
            .levels()
            .enumerate()
            .map(|(i, spec)| {
                let model = AnyDeviceModel::Ssd(SsdModel::new(spec.device));
                DeviceStation::new(format!("tier{i}-ssd"), model, spec.parallelism)
            })
            .collect();
        let disk_model = match config.disk_device {
            DiskDeviceConfig::MidrangeSsd(cfg) => AnyDeviceModel::Ssd(SsdModel::new(cfg)),
            DiskDeviceConfig::Hdd(cfg) => AnyDeviceModel::Hdd(HddModel::new(cfg)),
        };
        let n = levels.len();
        TieredStorageSystem {
            cache,
            levels,
            disk: DeviceStation::new("disk-subsystem", disk_model, config.disk_parallelism),
            counters: vec![LevelCounters::default(); n],
            events: EventQueue::new(),
            clock: SimTime::ZERO,
            iostat: IostatCollector::new(),
            probe: BlktraceProbe::new(),
            app: AppTracker::new(),
            next_id: 1,
            events_processed: 0,
            spilled_requests: 0,
            spilled_reads: 0,
            outcome_scratch: TieredOutcome::new(),
        }
    }

    /// Returns the system to the state [`TieredStorageSystem::new`] would
    /// produce for the same config, reusing every backing allocation (see
    /// [`crate::StorageSystem`]'s reset for the flat analogue). The caller
    /// (the [`crate::SimArena`]) guarantees the config — including the tier
    /// topology — is identical to the one the system was built with.
    pub(crate) fn reset(&mut self, config: &SimulationConfig) {
        self.cache.reset();
        if config.prewarm_cache {
            self.cache.prewarm_to_capacity();
        }
        for station in &mut self.levels {
            station.reset();
        }
        self.disk.reset();
        self.counters.fill(LevelCounters::default());
        self.events.reset();
        self.clock = SimTime::ZERO;
        self.iostat.reset();
        self.probe.reset();
        self.app.reset();
        self.next_id = 1;
        self.events_processed = 0;
        self.spilled_requests = 0;
        self.spilled_reads = 0;
        self.outcome_scratch.clear();
    }

    /// The current simulated time.
    pub const fn now(&self) -> SimTime {
        self.clock
    }

    /// The tiered cache module (policy, per-level stats, contents).
    pub fn cache(&self) -> &TieredCacheModule {
        &self.cache
    }

    /// Number of cache levels.
    pub fn tier_count(&self) -> usize {
        self.levels.len()
    }

    /// The station of cache level `level` (0 = hot tier).
    pub fn level(&self, level: usize) -> &DeviceStation {
        &self.levels[level]
    }

    /// The disk-subsystem station.
    pub fn disk(&self) -> &DeviceStation {
        &self.disk
    }

    /// Number of application requests fully completed so far.
    pub fn app_completed(&self) -> u64 {
        self.app.completed()
    }

    /// Mean end-to-end latency of completed application requests, µs.
    pub fn app_avg_latency_us(&self) -> u64 {
        self.app.avg_latency_us()
    }

    /// Maximum end-to-end latency of completed application requests, µs.
    pub const fn app_max_latency_us(&self) -> u64 {
        self.app.max_latency_us()
    }

    /// End-to-end application latency at `pct` (0–100), µs, log-bucketed.
    pub fn app_percentile_us(&self, pct: f64) -> u64 {
        self.app.percentile_us(pct)
    }

    /// The end-to-end application latency distribution.
    pub fn app_latency_histogram(&self) -> &lbica_storage::histogram::LatencyHistogram {
        self.app.latency_histogram()
    }

    /// Total number of discrete events processed by the event loop.
    pub const fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// The largest event-queue depth ever reached.
    pub const fn peak_event_queue_depth(&self) -> usize {
        self.events.peak_len()
    }

    /// Write requests the balancer spilled from the hot tier into a lower
    /// level (as opposed to bypassing all the way to the disk).
    pub const fn spilled_requests(&self) -> u64 {
        self.spilled_requests
    }

    /// Read requests the balancer spilled from the hot tier into a lower
    /// level (the Group-2 read-burst action; reads never fall through to
    /// the disk).
    pub const fn spilled_reads(&self) -> u64 {
        self.spilled_reads
    }

    fn fresh_id(&mut self) -> RequestId {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Schedules the arrival of an application request described by a trace
    /// record.
    pub fn schedule_record(&mut self, record: &TraceRecord) {
        let id = self.fresh_id();
        let request = record.to_request(id);
        self.events.schedule(request.arrival(), EventKind::Arrival(request));
    }

    /// Runs the event loop until every event at or before `limit` has been
    /// processed, then advances the clock to `limit`.
    pub fn run_until(&mut self, limit: SimTime) {
        self.run_until_with(limit, &mut NoProf);
    }

    /// [`TieredStorageSystem::run_until`] with a [`PhaseSink`] attributing
    /// wall time to the hot loop's phases (see
    /// [`crate::StorageSystem::run_until_with`] for the contract).
    pub fn run_until_with<P: PhaseSink>(&mut self, limit: SimTime, prof: &mut P) {
        loop {
            let mark = prof.mark();
            let popped = self.events.pop_until(limit);
            prof.record(Phase::EventQueue, mark);
            let Some(event) = popped else { break };
            self.clock = event.time;
            self.events_processed += 1;
            match event.kind {
                EventKind::Arrival(request) => self.handle_arrival(request, prof),
                EventKind::LevelCompletion { level, request } => {
                    self.handle_level_completion(level, request, prof)
                }
                EventKind::Completion { tier: TierId::Disk, request } => {
                    self.handle_disk_completion(request, prof)
                }
                EventKind::Completion { tier: TierId::Ssd, .. } => {
                    unreachable!("the tiered system addresses cache levels by index")
                }
            }
        }
        self.clock = limit;
    }

    fn handle_arrival<P: PhaseSink>(&mut self, request: IoRequest, prof: &mut P) {
        let now = self.clock;
        let mut outcome = std::mem::take(&mut self.outcome_scratch);
        let mark = prof.mark();
        self.cache.access_into(&request, &mut outcome);
        prof.record(Phase::CacheMap, mark);
        let datapath_ops =
            outcome.ops().iter().filter(|op| op.origin == RequestOrigin::Application).count()
                as u32;
        let mark = prof.mark();
        self.app.register(request.id(), now, datapath_ops);
        prof.record(Phase::Tracker, mark);
        let mark = prof.mark();
        self.enqueue_outcome(request.id(), &outcome, now);
        prof.record(Phase::DeviceModel, mark);
        self.outcome_scratch = outcome;
    }

    fn enqueue_outcome(&mut self, parent: RequestId, outcome: &TieredOutcome, now: SimTime) {
        // One slot per possible cache level plus the disk at the end.
        let mut touched = [false; MAX_TIERS + 1];
        for op in outcome.ops() {
            let id = self.fresh_id();
            let derived = IoRequest::from_range(id, op.kind, op.origin, op.range)
                .with_arrival(now)
                .with_parent(parent);
            match op.target {
                TierTarget::Level(level) => {
                    touched[level] = true;
                    self.enqueue_at_level(level, derived);
                }
                TierTarget::Disk => {
                    touched[MAX_TIERS] = true;
                    self.enqueue_at_disk(derived);
                }
            }
        }
        for level in (0..self.levels.len()).filter(|&l| touched[l]) {
            self.try_dispatch_level(level);
        }
        if touched[MAX_TIERS] {
            self.try_dispatch_disk();
        }
    }

    fn enqueue_at_level(&mut self, level: usize, request: IoRequest) {
        self.iostat.record_enqueue(Tier::Cache);
        if level == 0 {
            // The blktrace-style probe watches the *hot tier's* queue — the
            // paper's I/O-cache queue, which the characterizer classifies.
            self.probe.observe_class(request.class());
        }
        let station = &mut self.levels[level];
        station.queue.enqueue(request);
        let depth = station.queue.depth();
        self.iostat.observe_queue_depth(Tier::Cache, depth);
    }

    fn enqueue_at_disk(&mut self, request: IoRequest) {
        self.iostat.record_enqueue(Tier::Disk);
        self.disk.queue.enqueue(request);
        let depth = self.disk.queue.depth();
        self.iostat.observe_queue_depth(Tier::Disk, depth);
    }

    fn try_dispatch_level(&mut self, level: usize) {
        let now = self.clock;
        loop {
            let station = &mut self.levels[level];
            if station.in_service >= station.parallelism || station.queue.is_empty() {
                break;
            }
            let mut request = match station.queue.dispatch(now) {
                Some(r) => r,
                None => break,
            };
            let service = station.model.service_time(&request);
            station.in_service += 1;
            let completion_time = now + service;
            request.mark_completed(completion_time);
            self.events.schedule(completion_time, EventKind::LevelCompletion { level, request });
        }
    }

    fn try_dispatch_disk(&mut self) {
        let now = self.clock;
        loop {
            if self.disk.in_service >= self.disk.parallelism || self.disk.queue.is_empty() {
                break;
            }
            let mut request = match self.disk.queue.dispatch(now) {
                Some(r) => r,
                None => break,
            };
            let service = self.disk.model.service_time(&request);
            self.disk.in_service += 1;
            let completion_time = now + service;
            request.mark_completed(completion_time);
            self.events
                .schedule(completion_time, EventKind::Completion { tier: TierId::Disk, request });
        }
    }

    fn handle_level_completion<P: PhaseSink>(
        &mut self,
        level: usize,
        request: IoRequest,
        prof: &mut P,
    ) {
        let now = self.clock;
        let mark = prof.mark();
        self.levels[level].in_service -= 1;
        let latency = request.latency().map(|d| d.as_micros()).unwrap_or_default();
        self.iostat.record_completion(Tier::Cache, latency);
        let counters = &mut self.counters[level];
        counters.completed += 1;
        counters.total_latency_us += latency;
        counters.max_latency_us = counters.max_latency_us.max(latency);
        prof.record(Phase::DeviceModel, mark);
        if request.origin() == RequestOrigin::Application {
            if let Some(parent) = request.parent() {
                let mark = prof.mark();
                self.app.complete_op(parent, now);
                prof.record(Phase::Tracker, mark);
            }
        }
        let mark = prof.mark();
        self.try_dispatch_level(level);
        prof.record(Phase::DeviceModel, mark);
    }

    fn handle_disk_completion<P: PhaseSink>(&mut self, request: IoRequest, prof: &mut P) {
        let now = self.clock;
        let mark = prof.mark();
        self.disk.in_service -= 1;
        let latency = request.latency().map(|d| d.as_micros()).unwrap_or_default();
        self.iostat.record_completion(Tier::Disk, latency);
        prof.record(Phase::DeviceModel, mark);
        if request.origin() == RequestOrigin::Application {
            if let Some(parent) = request.parent() {
                let mark = prof.mark();
                self.app.complete_op(parent, now);
                prof.record(Phase::Tracker, mark);
            }
        }
        let mark = prof.mark();
        self.try_dispatch_disk();
        prof.record(Phase::DeviceModel, mark);
    }

    /// Closes monitoring interval `index`, returning its report. The cache
    /// tier aggregates every level's completions; the queue depth reported
    /// is the *hot tier's* (the signal the paper's detector watches).
    pub fn end_interval(&mut self, index: u32) -> lbica_trace::monitor::IntervalReport {
        self.end_interval_with(index, &mut NoProf)
    }

    /// [`TieredStorageSystem::end_interval`] with phase attribution: the
    /// deferred tier-movement commit lands in [`Phase::TierMovement`], the
    /// measurement gathering in [`Phase::Report`].
    pub fn end_interval_with<P: PhaseSink>(
        &mut self,
        index: u32,
        prof: &mut P,
    ) -> lbica_trace::monitor::IntervalReport {
        // Fold the interval's deferred tier-movement deltas into the base
        // counters in one pass. Observationally invisible —
        // `TieredCacheModule::movement` always reports base + pending — but
        // it keeps the deferred buffer's folding cost off the per-event path
        // and bounds it to one add per level per interval.
        let mark = prof.mark();
        self.cache.commit_moves();
        prof.record(Phase::TierMovement, mark);
        let mark = prof.mark();
        let cache_depth = self.levels[0].outstanding();
        let disk_depth = self.disk.outstanding();
        let mut report = self.iostat.finish_interval(index, cache_depth, disk_depth);
        report.cache_queue_mix = self.probe.take();
        report.policy_label = self.cache.policy().label().to_string();
        prof.record(Phase::Report, mark);
        report
    }

    /// Fills `out` with one [`TierLoad`] per cache level, hot tier first —
    /// the tier vector handed to tier-aware controllers.
    pub fn tier_loads_into(&self, out: &mut Vec<TierLoad>) {
        out.clear();
        for station in &self.levels {
            out.push(TierLoad {
                queue_depth: station.outstanding(),
                avg_latency: station.avg_latency(),
            });
        }
    }

    /// The hot tier's blended average device latency (`ssdLatency`).
    pub fn cache_avg_latency(&self) -> SimDuration {
        self.levels[0].avg_latency()
    }

    /// The disk subsystem's blended average latency (`hddLatency`).
    pub fn disk_avg_latency(&self) -> SimDuration {
        self.disk.avg_latency()
    }

    /// The current write policy of the hierarchy.
    pub fn policy(&self) -> WritePolicy {
        self.cache.policy()
    }

    /// Applies the single policy knob: every level of a uniform-configured
    /// hierarchy, or the hot tier only when per-level policies were
    /// explicitly configured (see [`TieredCacheModule::set_policy`]).
    pub fn set_policy(&mut self, policy: WritePolicy) {
        self.cache.set_policy(policy);
    }

    /// Assigns per-level write policies, hot tier first (see
    /// [`TieredCacheModule::set_level_policies`]).
    ///
    /// # Panics
    ///
    /// Panics if `policies` does not hold exactly one entry per level.
    pub fn set_level_policies(&mut self, policies: &[WritePolicy]) {
        self.cache.set_level_policies(policies);
    }

    /// The per-level write policies currently in force, hot tier first.
    pub fn level_policies(&self) -> &[WritePolicy] {
        self.cache.level_policies()
    }

    /// Read-only access to the hot tier's queue (for controller contexts).
    pub fn cache_queue(&self) -> &DeviceQueue {
        self.levels[0].queue()
    }

    /// Applies a controller's bypass directive. Tail spills re-home the
    /// drained requests at a lower cache level; plain bypasses and SIB-style
    /// victim lists redirect to the disk subsystem exactly like the flat
    /// system. Returns how many requests were moved or cancelled.
    pub fn apply_bypass(&mut self, directive: &BypassDirective) -> usize {
        match directive {
            BypassDirective::None => 0,
            BypassDirective::SpillTailWrites { max_requests, target_level } => {
                self.spill_tail(*max_requests, *target_level, RequestClass::Write)
            }
            BypassDirective::SpillTailReads { max_requests, target_level } => {
                self.spill_tail(*max_requests, *target_level, RequestClass::Read)
            }
            BypassDirective::TailWrites { max_requests } => {
                let moved = self.levels[0]
                    .queue
                    .drain_tail(*max_requests, |r| r.class() == RequestClass::Write);
                self.redirect_all_to_disk(moved)
            }
            BypassDirective::Requests(ids) => {
                let moved = self.levels[0].queue.remove_by_ids(ids);
                self.redirect_all_to_disk(moved)
            }
        }
    }

    /// The spill-chain action: drain application requests of `class` off
    /// the hot tier's tail and serve them from cache level `target_level`
    /// instead, moving their block metadata (and any demotions the
    /// re-homing causes) with them. Writes re-home dirty per the target's
    /// policy (`absorb_spill`); reads keep their current state
    /// (`absorb_read_spill`).
    fn spill_tail(
        &mut self,
        max_requests: usize,
        target_level: usize,
        class: RequestClass,
    ) -> usize {
        let target = target_level.min(self.levels.len() - 1).max(1);
        let moved = self.levels[0].queue.drain_tail(max_requests, |r| r.class() == class);
        let count = moved.len();
        if count == 0 {
            return 0;
        }
        let now = self.clock;
        let mut outcome = std::mem::take(&mut self.outcome_scratch);
        for request in moved {
            outcome.clear();
            for block in request.range().block_indices() {
                match class {
                    RequestClass::Write => self.cache.absorb_spill(block, target, &mut outcome),
                    _ => self.cache.absorb_read_spill(block, target, &mut outcome),
                }
            }
            // Demotions caused by re-homing the block fan out first, then
            // the spilled request itself joins the target level's queue.
            let parent = request.parent().unwrap_or(request.id());
            self.enqueue_outcome(parent, &outcome, now);
            self.enqueue_at_level(target, request);
        }
        self.outcome_scratch = outcome;
        match class {
            RequestClass::Write => self.spilled_requests += count as u64,
            _ => self.spilled_reads += count as u64,
        }
        self.try_dispatch_level(target);
        count
    }

    fn redirect_all_to_disk(&mut self, moved: Vec<IoRequest>) -> usize {
        let count = moved.len();
        for request in moved {
            self.redirect_to_disk(request);
        }
        if count > 0 {
            self.try_dispatch_disk();
        }
        count
    }

    fn redirect_to_disk(&mut self, request: IoRequest) {
        match request.class() {
            RequestClass::Write | RequestClass::Read => {
                for block in request.range().block_indices() {
                    if request.class() == RequestClass::Write {
                        self.cache.invalidate_block(block);
                    }
                }
                self.enqueue_at_disk(request);
            }
            RequestClass::Promote => {
                for block in request.range().block_indices() {
                    self.cache.invalidate_block(block);
                }
            }
            RequestClass::Evict => {
                // Evictions carry victim data between cache levels; they
                // must stay where they were queued.
                self.levels[0].queue.enqueue(request);
            }
        }
    }

    /// Serializes the full mid-flight system state for a replay checkpoint
    /// (the tiered twin of [`crate::StorageSystem::snap_to`]; same
    /// interval-boundary contract — including the monitors' in-progress
    /// accumulators, which boundary-time bypasses may already have fed).
    pub fn snap_to(&self, w: &mut SnapWriter) {
        self.cache.snap_to(w);
        w.put_usize(self.levels.len());
        for station in &self.levels {
            station.snap_to(w);
        }
        self.disk.snap_to(w);
        for c in &self.counters {
            w.put_u64(c.completed);
            w.put_u64(c.total_latency_us);
            w.put_u64(c.max_latency_us);
        }
        self.events.snap_to(w);
        w.put_u64(self.clock.as_micros());
        w.put_u64(self.next_id);
        self.app.snap_to(w);
        w.put_u64(self.events_processed);
        w.put_u64(self.spilled_requests);
        w.put_u64(self.spilled_reads);
        self.iostat.snap_to(w);
        self.probe.snap_to(w);
    }

    /// Restores state written by [`TieredStorageSystem::snap_to`] into this
    /// config-built system.
    pub fn snap_state_from(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.cache.snap_state_from(r)?;
        if r.get_usize()? != self.levels.len() {
            return Err(SnapError::Corrupt("station level count mismatch"));
        }
        for station in &mut self.levels {
            station.snap_state_from(r)?;
        }
        self.disk.snap_state_from(r)?;
        for c in &mut self.counters {
            c.completed = r.get_u64()?;
            c.total_latency_us = r.get_u64()?;
            c.max_latency_us = r.get_u64()?;
        }
        self.events.snap_state_from(r)?;
        self.clock = SimTime::from_micros(r.get_u64()?);
        self.next_id = r.get_u64()?;
        self.app.snap_state_below(r, self.next_id)?;
        self.events_processed = r.get_u64()?;
        self.spilled_requests = r.get_u64()?;
        self.spilled_reads = r.get_u64()?;
        self.iostat.snap_state_from(r)?;
        self.probe.snap_state_from(r)?;
        Ok(())
    }

    /// Number of events still pending (for drain loops at the end of a run).
    pub fn pending_events(&self) -> usize {
        self.events.len()
    }

    /// Drains outstanding work in fixed 100 ms steps, bounded by
    /// `max_steps`; returns `true` if the system fully drained.
    pub fn drain(&mut self, max_steps: u32) -> bool {
        self.drain_with(max_steps, &mut NoProf)
    }

    /// [`TieredStorageSystem::drain`] with phase attribution (see
    /// [`TieredStorageSystem::run_until_with`]).
    pub fn drain_with<P: PhaseSink>(&mut self, max_steps: u32, prof: &mut P) -> bool {
        let step = SimDuration::from_millis(100);
        let mut steps = 0;
        while self.pending_events() > 0 {
            if steps >= max_steps {
                return false;
            }
            let boundary = self.now() + step;
            self.run_until_with(boundary, prof);
            steps += 1;
        }
        true
    }

    /// Cumulative (promotions, demotions) summed over all levels — cheap
    /// enough to sample once per interval so an observer can trace
    /// per-interval movement deltas.
    pub fn movement_totals(&self) -> (u64, u64) {
        (0..self.levels.len()).fold((0, 0), |(p, d), level| {
            let movement = self.cache.movement(level);
            (p + movement.promotions_in, d + movement.demotions_in)
        })
    }

    /// Snapshot of the cumulative per-level statistics — the
    /// [`TierLevelStats`] rows surfaced on the simulation report.
    pub fn tier_level_stats(&self) -> Vec<TierLevelStats> {
        (0..self.levels.len())
            .map(|level| {
                let stats = self.cache.stats(level);
                let movement = self.cache.movement(level);
                let counters = &self.counters[level];
                let queue_stats = self.levels[level].queue().stats();
                TierLevelStats {
                    level,
                    hits: stats.read_hits + stats.write_hits,
                    promotions_in: movement.promotions_in,
                    demotions_in: movement.demotions_in,
                    spills_in: movement.spills_in,
                    read_spills_in: movement.read_spills_in,
                    back_invalidations: movement.back_invalidations,
                    enqueued: queue_stats.enqueued,
                    completed: counters.completed,
                    peak_queue_depth: queue_stats.peak_depth,
                    avg_latency_us: counters
                        .total_latency_us
                        .checked_div(counters.completed)
                        .unwrap_or(0),
                    max_latency_us: counters.max_latency_us,
                    cached_blocks: self.cache.cached_blocks(level),
                    dirty_blocks: self.cache.dirty_blocks(level),
                }
            })
            .collect()
    }
}

impl Datapath for TieredStorageSystem {
    fn take(arena: &mut SimArena, config: &SimulationConfig) -> Self {
        arena.take_tiered(config)
    }

    fn store(self, arena: &mut SimArena, config: SimulationConfig) {
        arena.store_tiered(config, self);
    }

    /// On an explicitly per-tier topology `set_policy` drives the hot tier
    /// only (lower levels are config-pinned; see
    /// `TieredCacheModule::set_policy`), so a configured warm-tier policy
    /// survives run start, every burst switch and every revert.
    fn start(&mut self, policy: WritePolicy) -> String {
        self.set_policy(policy);
        tier_policy_label(self.level_policies())
    }

    fn schedule_record(&mut self, record: &TraceRecord) {
        self.schedule_record(record);
    }

    fn run_until_with<P: PhaseSink>(&mut self, limit: SimTime, prof: &mut P) {
        self.run_until_with(limit, prof);
    }

    fn drain_with<P: PhaseSink>(&mut self, max_steps: u32, prof: &mut P) {
        self.drain_with(max_steps, prof);
    }

    fn close_interval<P: PhaseSink>(
        &mut self,
        index: u32,
        tier_loads: &mut Vec<TierLoad>,
        prof: &mut P,
    ) -> IntervalReport {
        let report = self.end_interval_with(index, prof);
        let mark = prof.mark();
        self.tier_loads_into(tier_loads);
        prof.record(Phase::Report, mark);
        report
    }

    fn context<'a>(
        &'a self,
        index: u32,
        report: &IntervalReport,
        tier_loads: &'a [TierLoad],
    ) -> ControllerContext<'a> {
        ControllerContext {
            interval_index: index,
            now: self.now(),
            cache_queue_depth: report.cache.queue_depth,
            disk_queue_depth: report.disk.queue_depth,
            cache_avg_latency: self.cache_avg_latency(),
            disk_avg_latency: self.disk_avg_latency(),
            cache_queue_mix: report.cache_queue_mix,
            current_policy: self.policy(),
            cache_queue: self.cache_queue(),
            tier_loads,
            tier_policies: self.level_policies(),
        }
    }

    fn apply_policy(&mut self, decision: &ControllerDecision) -> Option<String> {
        if decision.tier_policies.is_empty() {
            // The paper's single policy knob (which drives the hot tier
            // only on an explicitly per-tier stack); the recorded label is
            // the resulting hot-to-cold assignment.
            if decision.policy == self.policy() {
                return None;
            }
            self.set_policy(decision.policy);
            Some(tier_policy_label(self.level_policies()))
        } else if self.level_policies() != decision.tier_policies.as_slice() {
            // Tier-aware assignment: one policy per level, recorded as a
            // composite hot-to-cold label (e.g. "WO/WB").
            self.set_level_policies(&decision.tier_policies);
            Some(tier_policy_label(&decision.tier_policies))
        } else {
            None
        }
    }

    fn bypass(&mut self, directive: &BypassDirective) -> (u64, u64, u64) {
        let (writes_before, reads_before) = (self.spilled_requests, self.spilled_reads);
        let moved = self.apply_bypass(directive) as u64;
        let spill_writes = self.spilled_requests - writes_before;
        let spill_reads = self.spilled_reads - reads_before;
        (moved - (spill_writes + spill_reads), spill_writes, spill_reads)
    }

    fn movement_totals(&self) -> (u64, u64) {
        self.movement_totals()
    }

    fn app(&self) -> &AppTracker {
        &self.app
    }

    fn perf(&self) -> SimPerf {
        SimPerf {
            events_processed: self.events_processed,
            peak_event_queue_depth: self.events.peak_len(),
        }
    }

    fn cache_stats(&self) -> CacheStats {
        *self.cache.stats(0)
    }

    fn tier_stats(&self) -> Vec<TierLevelStats> {
        self.tier_level_stats()
    }

    fn snap_to(&self, w: &mut SnapWriter) {
        self.snap_to(w);
    }

    fn snap_state_from(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.snap_state_from(r)
    }
}

/// The Fig. 6-style label of a per-tier policy assignment: the plain policy
/// label when every level agrees, a hot-to-cold `"WO/WB"` composite when
/// they differ.
fn tier_policy_label(policies: &[WritePolicy]) -> String {
    if policies.windows(2).all(|w| w[0] == w[1]) {
        policies[0].label().to_string()
    } else {
        policies.iter().map(|p| p.label()).collect::<Vec<_>>().join("/")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbica_storage::request::RequestKind;

    fn record(ts: u64, sector: u64, kind: RequestKind) -> TraceRecord {
        TraceRecord::new(ts, sector, 8, kind)
    }

    fn two_tier_system() -> TieredStorageSystem {
        TieredStorageSystem::new(&SimulationConfig::tiny_two_tier())
    }

    #[test]
    fn prewarmed_hot_tier_read_completes_on_the_hot_ssd_only() {
        let mut sys = two_tier_system();
        sys.schedule_record(&record(0, 0, RequestKind::Read));
        sys.run_until(SimTime::from_millis(10));
        assert_eq!(sys.app_completed(), 1);
        let report = sys.end_interval(0);
        assert_eq!(report.cache.completed, 1);
        assert_eq!(report.disk.completed, 0);
        assert_eq!(report.cache.max_latency_us, 90, "hot tier services the hit");
    }

    #[test]
    fn warm_tier_hit_is_served_and_promoted() {
        let mut sys = two_tier_system();
        // Block 600 is prewarmed into the warm tier (hot holds 0..512).
        sys.schedule_record(&record(0, 600 * 8, RequestKind::Read));
        sys.run_until(SimTime::from_millis(10));
        assert_eq!(sys.app_completed(), 1);
        let report = sys.end_interval(0);
        assert_eq!(report.disk.completed, 0, "a warm-tier hit never touches the disk");
        assert!(report.cache.completed >= 2, "warm read + hot promote");
        let stats = sys.tier_level_stats();
        assert_eq!(stats[1].hits, 1);
        assert_eq!(stats[0].promotions_in, 1);
        assert_eq!(sys.cache().resident_level(600), Some(0), "the block moved up");
    }

    #[test]
    fn full_miss_touches_disk_and_fills_hot_tier() {
        let mut sys = two_tier_system();
        sys.schedule_record(&record(0, 10_000_000, RequestKind::Read));
        sys.run_until(SimTime::from_millis(50));
        let report = sys.end_interval(0);
        assert_eq!(report.disk.completed, 1);
        assert_eq!(sys.app_completed(), 1);
        assert_eq!(sys.cache().stats(0).read_misses, 1);
    }

    #[test]
    fn spill_moves_queued_writes_to_the_warm_tier() {
        let mut sys = two_tier_system();
        for i in 0..100u64 {
            sys.schedule_record(&record(1, (i % 500) * 8, RequestKind::Write));
        }
        sys.run_until(SimTime::from_micros(1_000));
        let before_hot = sys.level(0).outstanding();
        let moved = sys
            .apply_bypass(&BypassDirective::SpillTailWrites { max_requests: 40, target_level: 1 });
        assert!(moved > 0);
        assert!(sys.level(0).outstanding() < before_hot);
        assert!(sys.level(1).outstanding() > 0, "spilled writes queue at the warm tier");
        assert_eq!(sys.disk().outstanding(), 0, "the spill chain spares the disk");
        assert_eq!(sys.spilled_requests(), moved as u64);
        let stats = sys.tier_level_stats();
        assert_eq!(stats[1].spills_in, moved as u64);
    }

    #[test]
    fn read_spill_moves_queued_reads_to_the_warm_tier() {
        let mut sys = two_tier_system();
        // Prewarmed hot tier: every read hits and queues at level 0.
        for i in 0..100u64 {
            sys.schedule_record(&record(1, (i % 500) * 8, RequestKind::Read));
        }
        sys.run_until(SimTime::from_micros(1_000));
        let before_hot = sys.level(0).outstanding();
        let moved = sys
            .apply_bypass(&BypassDirective::SpillTailReads { max_requests: 40, target_level: 1 });
        assert!(moved > 0);
        assert!(sys.level(0).outstanding() < before_hot);
        assert!(sys.level(1).outstanding() > 0, "spilled reads queue at the warm tier");
        assert_eq!(sys.disk().outstanding(), 0, "reads never fall through to the disk");
        assert_eq!(sys.spilled_reads(), moved as u64);
        assert_eq!(sys.spilled_requests(), 0, "write-spill accounting is untouched");
        let stats = sys.tier_level_stats();
        assert_eq!(stats[1].read_spills_in, moved as u64);
        assert_eq!(stats[1].spills_in, 0);
        // The drained requests still complete.
        assert!(sys.drain(600));
        assert_eq!(sys.app_completed(), 100);
    }

    #[test]
    fn per_level_policies_split_the_hierarchy() {
        let mut sys = two_tier_system();
        sys.set_level_policies(&[WritePolicy::ReadOnly, WritePolicy::WriteBack]);
        assert_eq!(sys.level_policies(), &[WritePolicy::ReadOnly, WritePolicy::WriteBack]);
        assert_eq!(sys.policy(), WritePolicy::ReadOnly, "the hot tier's policy is the headline");
        // A write owned by the hot tier (block 0 is prewarmed there)
        // bypasses; a write owned by the warm tier (block 600) is absorbed.
        sys.schedule_record(&record(0, 0, RequestKind::Write));
        sys.schedule_record(&record(1, 600 * 8, RequestKind::Write));
        sys.run_until(SimTime::from_millis(10));
        let report = sys.end_interval(0);
        assert_eq!(report.disk.completed, 1, "only the RO-owned write reaches the disk");
        assert_eq!(sys.cache().stats(0).write_bypasses, 1);
        assert_eq!(sys.cache().stats(1).write_hits, 1);
    }

    #[test]
    fn plain_tail_bypass_still_reaches_the_disk() {
        let mut sys = two_tier_system();
        for i in 0..100u64 {
            sys.schedule_record(&record(1, (i % 500) * 8, RequestKind::Write));
        }
        sys.run_until(SimTime::from_micros(1_000));
        let moved = sys.apply_bypass(&BypassDirective::TailWrites { max_requests: 40 });
        assert!(moved > 0);
        assert!(sys.disk().outstanding() > 0);
    }

    #[test]
    fn tier_loads_report_every_level() {
        let mut sys = two_tier_system();
        for i in 0..50u64 {
            sys.schedule_record(&record(1, (i % 500) * 8, RequestKind::Write));
        }
        sys.run_until(SimTime::from_micros(500));
        let mut loads = Vec::new();
        sys.tier_loads_into(&mut loads);
        assert_eq!(loads.len(), 2);
        assert!(loads[0].queue_depth > 0);
        assert!(loads[0].avg_latency > SimDuration::ZERO);
    }

    #[test]
    fn mid_flight_snapshot_resumes_identically_to_the_unsplit_run() {
        let config = SimulationConfig::tiny_two_tier();
        let mut sys = TieredStorageSystem::new(&config);
        for i in 0..200u64 {
            let kind = if i % 3 == 0 { RequestKind::Write } else { RequestKind::Read };
            sys.schedule_record(&record(i * 5, (i % 1_500) * 8, kind));
        }
        sys.run_until(SimTime::from_micros(500));
        let _ = sys.end_interval(0);
        assert!(sys.pending_events() > 0, "the snapshot must cover in-flight work");

        let mut w = SnapWriter::new();
        sys.snap_to(&mut w);
        let bytes = w.into_bytes();
        let mut restored = TieredStorageSystem::new(&config);
        let mut r = SnapReader::new(&bytes);
        restored.snap_state_from(&mut r).unwrap();
        r.finish().unwrap();

        for s in [&mut sys, &mut restored] {
            for i in 0..50u64 {
                s.schedule_record(&record(520 + i * 3, (i % 900) * 8, RequestKind::Read));
            }
            s.run_until(SimTime::from_micros(1_000));
        }
        assert_eq!(restored.now(), sys.now());
        assert_eq!(restored.end_interval(1), sys.end_interval(1));
        assert_eq!(restored.events_processed(), sys.events_processed());
        assert_eq!(restored.app_completed(), sys.app_completed());
        assert_eq!(restored.tier_level_stats(), sys.tier_level_stats());
        assert!(restored.drain(600) && sys.drain(600));
        assert_eq!(restored.app_completed(), sys.app_completed());
        assert_eq!(restored.tier_level_stats(), sys.tier_level_stats());
    }

    #[test]
    fn conservation_all_scheduled_requests_eventually_complete() {
        let mut sys = two_tier_system();
        for i in 0..300u64 {
            sys.schedule_record(&record(
                i * 20,
                (i % 3_000) * 8,
                if i % 3 == 0 { RequestKind::Write } else { RequestKind::Read },
            ));
        }
        sys.run_until(SimTime::from_secs(10));
        assert_eq!(sys.app_completed(), 300);
        assert_eq!(sys.pending_events(), 0);
        assert_eq!(sys.level(0).outstanding(), 0);
        assert_eq!(sys.level(1).outstanding(), 0);
        assert_eq!(sys.disk().outstanding(), 0);
    }

    #[test]
    fn drain_completes_a_finite_backlog() {
        let mut sys = two_tier_system();
        for i in 0..50u64 {
            sys.schedule_record(&record(0, (i % 500) * 8, RequestKind::Write));
        }
        assert!(sys.drain(600));
        assert_eq!(sys.app_completed(), 50);
    }

    #[test]
    fn policy_switch_affects_the_whole_hierarchy() {
        let mut sys = two_tier_system();
        sys.set_policy(WritePolicy::ReadOnly);
        sys.schedule_record(&record(0, 600 * 8, RequestKind::Write));
        sys.run_until(SimTime::from_millis(10));
        let report = sys.end_interval(0);
        assert_eq!(report.disk.completed, 1, "RO bypasses the write to the disk");
        assert_eq!(sys.cache().resident_level(600), None, "the stale warm copy is gone");
    }
}
