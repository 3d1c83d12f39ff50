//! The simulated storage system: cache module + two device stations.

use lbica_cache::{CacheModule, CacheOutcome, CacheStats, TargetDevice, WritePolicy};
use lbica_obs::{NoProf, Phase, PhaseSink};
use lbica_storage::device::{AnyDeviceModel, DeviceModel, HddModel, SsdModel};
use lbica_storage::queue::DeviceQueue;
use lbica_storage::request::{IoRequest, RequestClass, RequestId, RequestOrigin};
use lbica_storage::snap::{SnapError, SnapReader, SnapWriter};
use lbica_storage::time::{SimDuration, SimTime};
use lbica_trace::monitor::{BlktraceProbe, IntervalReport, IostatCollector, Tier};
use lbica_trace::record::TraceRecord;

use crate::arena::SimArena;
use crate::config::{DiskDeviceConfig, SimulationConfig};
use crate::controller::{BypassDirective, ControllerContext, ControllerDecision, TierLoad};
use crate::event::{EventKind, EventQueue};
use crate::report::{SimPerf, TierLevelStats};
use crate::runner::Datapath;
use crate::tracker::AppTracker;

/// Identifies one of the two device stations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TierId {
    /// The SSD cache device.
    Ssd,
    /// The disk subsystem.
    Disk,
}

impl TierId {
    fn monitor_tier(self) -> Tier {
        match self {
            TierId::Ssd => Tier::Cache,
            TierId::Disk => Tier::Disk,
        }
    }
}

/// A device and the queue in front of it, with a fixed number of concurrent
/// service slots.
pub struct DeviceStation {
    pub(crate) queue: DeviceQueue,
    pub(crate) model: AnyDeviceModel,
    pub(crate) parallelism: usize,
    pub(crate) in_service: usize,
}

impl std::fmt::Debug for DeviceStation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeviceStation")
            .field("queue_depth", &self.queue.depth())
            .field("parallelism", &self.parallelism)
            .field("in_service", &self.in_service)
            .finish()
    }
}

impl DeviceStation {
    /// Creates a station with the given service model and parallelism.
    ///
    /// # Panics
    ///
    /// Panics if `parallelism` is zero.
    pub fn new(
        name: impl Into<String>,
        model: impl Into<AnyDeviceModel>,
        parallelism: usize,
    ) -> Self {
        assert!(parallelism > 0, "a device needs at least one service slot");
        // Merging is disabled at the station level: each derived request is
        // tied to the application request it serves, and coalescing two
        // requests would conflate their completions.
        DeviceStation {
            queue: DeviceQueue::without_merging(name),
            model: model.into(),
            parallelism,
            in_service: 0,
        }
    }

    /// The pending-request queue.
    pub fn queue(&self) -> &DeviceQueue {
        &self.queue
    }

    /// Number of requests currently being serviced.
    pub const fn in_service(&self) -> usize {
        self.in_service
    }

    /// Total outstanding work: queued plus in service.
    pub fn outstanding(&self) -> usize {
        self.queue.depth() + self.in_service
    }

    /// The device's blended average latency (Eq. 1's `ssdLatency` /
    /// `hddLatency`).
    pub fn avg_latency(&self) -> SimDuration {
        self.model.avg_latency()
    }

    /// Returns the station to its freshly constructed state — empty queue,
    /// zeroed statistics, no in-service requests, device history forgotten —
    /// while keeping the queue's ring buffer allocated.
    pub(crate) fn reset(&mut self) {
        self.queue.reset();
        self.model.reset_history();
        self.in_service = 0;
    }

    /// Serializes the station for a replay checkpoint: the queue (pending
    /// requests and statistics), the device model's service-relevant state
    /// and the in-service slot count. Parallelism and the device config are
    /// not stored — they are rebuilt from the simulation config.
    pub(crate) fn snap_to(&self, w: &mut SnapWriter) {
        self.queue.snap_to(w);
        self.model.snap_state_to(w);
        w.put_usize(self.in_service);
    }

    /// Restores state written by [`DeviceStation::snap_to`] into this
    /// config-built station.
    pub(crate) fn snap_state_from(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.queue = DeviceQueue::snap_from(r)?;
        self.model.snap_state_from(r)?;
        self.in_service = r.get_usize()?;
        if self.in_service > self.parallelism {
            return Err(SnapError::Corrupt("in-service count exceeds parallelism"));
        }
        Ok(())
    }
}

/// The full simulated system: application entry point, cache module, SSD and
/// disk stations, monitors and the event queue.
#[derive(Debug)]
pub struct StorageSystem {
    cache: CacheModule,
    ssd: DeviceStation,
    disk: DeviceStation,
    events: EventQueue,
    clock: SimTime,
    iostat: IostatCollector,
    probe: BlktraceProbe,
    app: AppTracker,
    next_id: RequestId,
    events_processed: u64,
    /// Reused per-arrival outcome buffer (no allocation in the hot loop).
    outcome_scratch: CacheOutcome,
}

impl StorageSystem {
    /// Builds a system from a [`SimulationConfig`].
    pub fn new(config: &SimulationConfig) -> Self {
        let mut cache = CacheModule::new(config.cache);
        if config.prewarm_cache {
            cache.prewarm_full();
        }
        let ssd_model = AnyDeviceModel::Ssd(SsdModel::new(config.cache_device));
        let disk_model = match config.disk_device {
            DiskDeviceConfig::MidrangeSsd(cfg) => AnyDeviceModel::Ssd(SsdModel::new(cfg)),
            DiskDeviceConfig::Hdd(cfg) => AnyDeviceModel::Hdd(HddModel::new(cfg)),
        };
        StorageSystem {
            cache,
            ssd: DeviceStation::new("ssd-cache", ssd_model, config.ssd_parallelism),
            disk: DeviceStation::new("disk-subsystem", disk_model, config.disk_parallelism),
            events: EventQueue::new(),
            clock: SimTime::ZERO,
            iostat: IostatCollector::new(),
            probe: BlktraceProbe::new(),
            app: AppTracker::new(),
            next_id: 1,
            events_processed: 0,
            outcome_scratch: CacheOutcome::new(),
        }
    }

    /// Returns the system to the state [`StorageSystem::new`] would produce
    /// for the same config, reusing every backing allocation: cache slot
    /// arenas, device-queue ring buffers, event-queue lanes and payload
    /// slab, tracker slabs and monitor histories all keep their capacity.
    /// The caller (the [`crate::SimArena`]) guarantees the config is
    /// identical to the one the system was built with.
    pub(crate) fn reset(&mut self, config: &SimulationConfig) {
        self.cache.reset();
        if config.prewarm_cache {
            self.cache.prewarm_full();
        }
        self.ssd.reset();
        self.disk.reset();
        self.events.reset();
        self.clock = SimTime::ZERO;
        self.iostat.reset();
        self.probe.reset();
        self.app.reset();
        self.next_id = 1;
        self.events_processed = 0;
        self.outcome_scratch.clear();
    }

    /// The current simulated time.
    pub const fn now(&self) -> SimTime {
        self.clock
    }

    /// The cache module (policy, stats, contents).
    pub fn cache(&self) -> &CacheModule {
        &self.cache
    }

    /// The SSD cache station.
    pub fn ssd(&self) -> &DeviceStation {
        &self.ssd
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

    /// [`StorageSystem::run_until`] with a [`PhaseSink`] attributing wall
    /// time to the hot loop's phases. The [`NoProf`] monomorphization is
    /// the unprofiled loop exactly — every sink call inlines to nothing —
    /// and a real profiler never feeds anything back, so the simulation is
    /// byte-identical either way.
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
                EventKind::Completion { tier, request } => {
                    self.handle_completion(tier, request, prof)
                }
                EventKind::LevelCompletion { .. } => {
                    unreachable!("the flat storage system schedules no tiered-level completions")
                }
            }
        }
        self.clock = limit;
    }

    fn handle_arrival<P: PhaseSink>(&mut self, request: IoRequest, prof: &mut P) {
        let now = self.clock;
        // Temporarily take the scratch buffer so the cache can fill it
        // while `self` stays borrowable for the enqueue fan-out.
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

    fn enqueue_outcome(&mut self, parent: RequestId, outcome: &CacheOutcome, now: SimTime) {
        let mut touched = [false; 2];
        for op in outcome.ops() {
            let id = self.fresh_id();
            let derived = IoRequest::from_range(id, op.kind, op.origin, op.range)
                .with_arrival(now)
                .with_parent(parent);
            let tier = match op.target {
                TargetDevice::Ssd => TierId::Ssd,
                TargetDevice::Hdd => TierId::Disk,
            };
            touched[(tier == TierId::Disk) as usize] = true;
            self.enqueue_at(tier, derived);
        }
        // A tier that received nothing cannot have become dispatchable:
        // capacity only frees on completion, which dispatches that tier
        // itself — so skipping it is a semantic no-op.
        if touched[0] {
            self.try_dispatch(TierId::Ssd);
        }
        if touched[1] {
            self.try_dispatch(TierId::Disk);
        }
    }

    fn enqueue_at(&mut self, tier: TierId, request: IoRequest) {
        self.iostat.record_enqueue(tier.monitor_tier());
        if tier == TierId::Ssd {
            // The blktrace-style probe counts every request that enters the
            // cache queue during the interval.
            self.probe.observe_class(request.class());
        }
        let station = self.station_mut(tier);
        station.queue.enqueue(request);
        let depth = station.queue.depth();
        self.iostat.observe_queue_depth(tier.monitor_tier(), depth);
    }

    fn station_mut(&mut self, tier: TierId) -> &mut DeviceStation {
        match tier {
            TierId::Ssd => &mut self.ssd,
            TierId::Disk => &mut self.disk,
        }
    }

    fn try_dispatch(&mut self, tier: TierId) {
        let now = self.clock;
        loop {
            let station = self.station_mut(tier);
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
            self.events.schedule(completion_time, EventKind::Completion { tier, request });
        }
    }

    fn handle_completion<P: PhaseSink>(&mut self, tier: TierId, request: IoRequest, prof: &mut P) {
        let now = self.clock;
        let mark = prof.mark();
        {
            let station = self.station_mut(tier);
            station.in_service -= 1;
        }
        let latency = request.latency().map(|d| d.as_micros()).unwrap_or_default();
        self.iostat.record_completion(tier.monitor_tier(), latency);
        prof.record(Phase::DeviceModel, mark);
        if request.origin() == RequestOrigin::Application {
            if let Some(parent) = request.parent() {
                let mark = prof.mark();
                self.app.complete_op(parent, now);
                prof.record(Phase::Tracker, mark);
            }
        }
        let mark = prof.mark();
        self.try_dispatch(tier);
        prof.record(Phase::DeviceModel, mark);
    }

    /// Closes monitoring interval `index`, returning its report (queue
    /// depths, latencies and the interval's cache-queue class mix).
    pub fn end_interval(&mut self, index: u32) -> lbica_trace::monitor::IntervalReport {
        let cache_depth = self.ssd.outstanding();
        let disk_depth = self.disk.outstanding();
        let mut report = self.iostat.finish_interval(index, cache_depth, disk_depth);
        report.cache_queue_mix = self.probe.take();
        report.policy_label = self.cache.policy().label().to_string();
        report
    }

    /// The cache device's blended average latency (`ssdLatency`).
    pub fn cache_avg_latency(&self) -> SimDuration {
        self.ssd.avg_latency()
    }

    /// The disk subsystem's blended average latency (`hddLatency`).
    pub fn disk_avg_latency(&self) -> SimDuration {
        self.disk.avg_latency()
    }

    /// The current write policy of the cache.
    pub fn policy(&self) -> WritePolicy {
        self.cache.policy()
    }

    /// Assigns a new write policy to the cache module.
    pub fn set_policy(&mut self, policy: WritePolicy) {
        self.cache.set_policy(policy);
    }

    /// Applies a controller's bypass directive: moves the selected requests
    /// out of the cache queue and serves them from the disk subsystem.
    /// Returns how many requests were moved or cancelled.
    pub fn apply_bypass(&mut self, directive: &BypassDirective) -> usize {
        let moved = match directive {
            BypassDirective::None => Vec::new(),
            // A spill on a flat system has nowhere to go but the disk, so
            // the two tail directives coincide here.
            BypassDirective::TailWrites { max_requests }
            | BypassDirective::SpillTailWrites { max_requests, .. } => {
                self.ssd.queue.drain_tail(*max_requests, |r| r.class() == RequestClass::Write)
            }
            // A read spill has no flat analogue: there is no lower level to
            // serve from, and the paper never bypasses reads to the disk
            // subsystem, so the directive is a no-op here.
            BypassDirective::SpillTailReads { .. } => Vec::new(),
            BypassDirective::Requests(ids) => self.ssd.queue.remove_by_ids(ids),
        };
        let count = moved.len();
        for request in moved {
            self.redirect_to_disk(request);
        }
        if count > 0 {
            self.try_dispatch(TierId::Disk);
        }
        count
    }

    fn redirect_to_disk(&mut self, request: IoRequest) {
        match request.class() {
            RequestClass::Write | RequestClass::Read => {
                // The block's cached copy (if any) is stale or redundant once
                // the request is served by the disk subsystem.
                for block in request.range().block_indices() {
                    if request.class() == RequestClass::Write {
                        self.cache.invalidate_block(block);
                    }
                }
                self.enqueue_at(TierId::Disk, request);
            }
            RequestClass::Promote => {
                // Cancelling a promotion: the block never makes it into the
                // cache, so drop the metadata entry that was pre-created.
                for block in request.range().block_indices() {
                    self.cache.invalidate_block(block);
                }
            }
            RequestClass::Evict => {
                // Evictions carry dirty victim data; they must stay on the
                // cache device. Put the request back.
                self.ssd.queue.enqueue(request);
            }
        }
    }

    /// Read-only access to the cache queue (for controller contexts).
    pub fn cache_queue(&self) -> &DeviceQueue {
        self.ssd.queue()
    }

    /// Serializes the full mid-flight system state for a replay checkpoint.
    ///
    /// Meant to be called at a monitoring-interval boundary (after
    /// [`StorageSystem::end_interval`]). The monitors' *in-progress*
    /// accumulators are stored too: they are usually fresh at a boundary,
    /// but a boundary-time controller action — a bypass moving queued
    /// requests to the disk subsystem — has already fed the next interval's
    /// counters by the time the snapshot is taken. The finished-interval
    /// history is not stored; the runner's accumulated reports carry it.
    pub fn snap_to(&self, w: &mut SnapWriter) {
        self.cache.snap_to(w);
        self.ssd.snap_to(w);
        self.disk.snap_to(w);
        self.events.snap_to(w);
        w.put_u64(self.clock.as_micros());
        w.put_u64(self.next_id);
        self.app.snap_to(w);
        w.put_u64(self.events_processed);
        self.iostat.snap_to(w);
        self.probe.snap_to(w);
    }

    /// Restores state written by [`StorageSystem::snap_to`] into this
    /// config-built system. The config must match the one the snapshot was
    /// taken under; geometry mismatches surface as typed
    /// [`SnapError::Corrupt`] errors.
    pub fn snap_state_from(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.cache.snap_state_from(r)?;
        self.ssd.snap_state_from(r)?;
        self.disk.snap_state_from(r)?;
        self.events.snap_state_from(r)?;
        self.clock = SimTime::from_micros(r.get_u64()?);
        self.next_id = r.get_u64()?;
        self.app.snap_state_below(r, self.next_id)?;
        self.events_processed = r.get_u64()?;
        self.iostat.snap_state_from(r)?;
        self.probe.snap_state_from(r)?;
        Ok(())
    }

    /// Number of events still pending (for drain loops at the end of a run).
    pub fn pending_events(&self) -> usize {
        self.events.len()
    }

    /// Drains outstanding work by running the event loop in fixed 100 ms
    /// steps until no events remain, but for at most `max_steps` steps —
    /// a hard cap that bounds the wall-clock cost of a pathological
    /// backlog. Returns `true` if the system fully drained.
    pub fn drain(&mut self, max_steps: u32) -> bool {
        self.drain_with(max_steps, &mut NoProf)
    }

    /// [`StorageSystem::drain`] with phase attribution (see
    /// [`StorageSystem::run_until_with`]).
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
}

impl Datapath for StorageSystem {
    fn take(arena: &mut SimArena, config: &SimulationConfig) -> Self {
        arena.take_flat(config)
    }

    fn store(self, arena: &mut SimArena, config: SimulationConfig) {
        arena.store_flat(config, self);
    }

    fn start(&mut self, policy: WritePolicy) -> String {
        self.set_policy(policy);
        policy.label().to_string()
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
        _tier_loads: &mut Vec<TierLoad>,
        prof: &mut P,
    ) -> IntervalReport {
        let mark = prof.mark();
        let report = self.end_interval(index);
        prof.record(Phase::Report, mark);
        report
    }

    fn context<'a>(
        &'a self,
        index: u32,
        report: &IntervalReport,
        _tier_loads: &'a [TierLoad],
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
            tier_loads: &[],
            tier_policies: &[],
        }
    }

    /// The paper's single policy knob; per-level assignments have no
    /// flat analogue and are ignored.
    fn apply_policy(&mut self, decision: &ControllerDecision) -> Option<String> {
        if decision.policy == self.policy() {
            return None;
        }
        self.set_policy(decision.policy);
        Some(decision.policy.label().to_string())
    }

    fn bypass(&mut self, directive: &BypassDirective) -> (u64, u64, u64) {
        (self.apply_bypass(directive) as u64, 0, 0)
    }

    fn movement_totals(&self) -> (u64, u64) {
        (0, 0)
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
        *self.cache.stats()
    }

    fn tier_stats(&self) -> Vec<TierLevelStats> {
        Vec::new()
    }

    fn snap_to(&self, w: &mut SnapWriter) {
        self.snap_to(w);
    }

    fn snap_state_from(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.snap_state_from(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbica_storage::request::RequestKind;

    fn record(ts: u64, sector: u64, kind: RequestKind) -> TraceRecord {
        TraceRecord::new(ts, sector, 8, kind)
    }

    fn tiny_system() -> StorageSystem {
        StorageSystem::new(&SimulationConfig::tiny())
    }

    #[test]
    fn prewarmed_read_hits_complete_on_the_ssd_only() {
        let mut sys = tiny_system();
        sys.schedule_record(&record(0, 0, RequestKind::Read));
        sys.run_until(SimTime::from_millis(10));
        assert_eq!(sys.app_completed(), 1);
        let report = sys.end_interval(0);
        assert_eq!(report.cache.completed, 1);
        assert_eq!(report.disk.completed, 0);
        // A single uncontended SSD read: latency equals the device's read
        // latency.
        assert_eq!(report.cache.max_latency_us, 90);
    }

    #[test]
    fn read_miss_touches_both_tiers() {
        let mut sys = tiny_system();
        // Address far outside the prewarmed region.
        sys.schedule_record(&record(0, 10_000_000, RequestKind::Read));
        sys.run_until(SimTime::from_millis(50));
        let report = sys.end_interval(0);
        assert_eq!(report.disk.completed, 1, "miss data comes from the disk subsystem");
        assert!(report.cache.completed >= 1, "the promote lands on the SSD");
        assert_eq!(sys.app_completed(), 1);
        assert_eq!(sys.cache().stats().read_misses, 1);
    }

    #[test]
    fn app_latency_tracks_slowest_datapath_leg() {
        let mut sys = tiny_system();
        sys.schedule_record(&record(0, 10_000_000, RequestKind::Read));
        sys.run_until(SimTime::from_millis(50));
        // Miss served by the mid-range-SSD disk tier: ~350 µs.
        assert!(sys.app_avg_latency_us() >= 300, "got {}", sys.app_avg_latency_us());
        assert!(sys.app_max_latency_us() >= sys.app_avg_latency_us());
    }

    #[test]
    fn queue_builds_up_when_arrivals_exceed_service_rate() {
        let mut sys = tiny_system();
        // 200 writes arriving in the same microsecond: the single-slot SSD
        // cannot keep up.
        for i in 0..200u64 {
            sys.schedule_record(&record(1, (i % 500) * 8, RequestKind::Write));
        }
        sys.run_until(SimTime::from_micros(2_000));
        assert!(sys.ssd().outstanding() > 50, "outstanding {}", sys.ssd().outstanding());
        let report = sys.end_interval(0);
        assert!(report.cache.queue_depth > 50);
        assert!(report.cache_queue_mix.writes >= 150);
    }

    #[test]
    fn bypass_tail_writes_moves_load_to_the_disk() {
        let mut sys = tiny_system();
        for i in 0..100u64 {
            sys.schedule_record(&record(1, (i % 500) * 8, RequestKind::Write));
        }
        sys.run_until(SimTime::from_micros(1_000));
        let before = sys.ssd().outstanding();
        let moved = sys.apply_bypass(&BypassDirective::TailWrites { max_requests: 40 });
        assert!(moved > 0);
        assert!(sys.ssd().outstanding() < before);
        assert!(sys.disk().outstanding() > 0);
        // Invalidations were recorded for the redirected writes.
        assert!(sys.cache().stats().invalidations > 0);
    }

    #[test]
    fn bypass_none_is_a_no_op() {
        let mut sys = tiny_system();
        sys.schedule_record(&record(0, 0, RequestKind::Write));
        sys.run_until(SimTime::from_micros(10));
        assert_eq!(sys.apply_bypass(&BypassDirective::None), 0);
    }

    #[test]
    fn policy_switch_takes_effect_for_future_accesses() {
        let mut sys = tiny_system();
        sys.set_policy(WritePolicy::ReadOnly);
        assert_eq!(sys.policy(), WritePolicy::ReadOnly);
        sys.schedule_record(&record(0, 0, RequestKind::Write));
        sys.run_until(SimTime::from_millis(10));
        let report = sys.end_interval(0);
        // The write bypassed the cache entirely.
        assert_eq!(report.disk.completed, 1);
        assert_eq!(report.cache.completed, 0);
    }

    #[test]
    fn interval_reports_reset_between_intervals() {
        let mut sys = tiny_system();
        sys.schedule_record(&record(0, 0, RequestKind::Read));
        sys.run_until(SimTime::from_millis(1));
        let r0 = sys.end_interval(0);
        assert_eq!(r0.cache.completed, 1);
        sys.run_until(SimTime::from_millis(2));
        let r1 = sys.end_interval(1);
        assert_eq!(r1.cache.completed, 0);
        assert_eq!(r1.index, 1);
    }

    #[test]
    fn drain_completes_a_finite_backlog_and_reports_success() {
        let mut sys = tiny_system();
        for i in 0..50u64 {
            sys.schedule_record(&record(0, (i % 500) * 8, RequestKind::Write));
        }
        assert!(sys.drain(600), "50 requests drain well within the cap");
        assert_eq!(sys.app_completed(), 50);
        assert_eq!(sys.pending_events(), 0);
    }

    #[test]
    fn drain_terminates_on_a_pathological_backlog() {
        let mut sys = tiny_system();
        // 20 000 simultaneous writes through a single-slot SSD (~90 µs
        // each) need ~1.8 simulated seconds — far beyond a 3-step
        // (300 ms) cap. The old open-ended loop would keep extending its
        // deadline; `drain` must give up instead.
        for i in 0..20_000u64 {
            sys.schedule_record(&record(0, (i % 500) * 8, RequestKind::Write));
        }
        assert!(!sys.drain(3), "the cap must trip before the backlog clears");
        assert!(sys.pending_events() > 0);
        // The clock advanced exactly max_steps × 100 ms.
        assert_eq!(sys.now(), SimTime::from_millis(300));
    }

    #[test]
    fn mid_flight_snapshot_resumes_identically_to_the_unsplit_run() {
        let config = SimulationConfig::tiny();
        let schedule_first = |sys: &mut StorageSystem| {
            for i in 0..200u64 {
                let kind = if i % 3 == 0 { RequestKind::Write } else { RequestKind::Read };
                sys.schedule_record(&record(i * 5, (i % 700) * 8, kind));
            }
        };
        let mut sys = StorageSystem::new(&config);
        schedule_first(&mut sys);
        sys.run_until(SimTime::from_micros(500));
        let _ = sys.end_interval(0);
        assert!(sys.pending_events() > 0, "the snapshot must cover in-flight work");

        let mut w = SnapWriter::new();
        sys.snap_to(&mut w);
        let bytes = w.into_bytes();
        let mut restored = StorageSystem::new(&config);
        let mut r = SnapReader::new(&bytes);
        restored.snap_state_from(&mut r).unwrap();
        r.finish().unwrap();

        // Drive both through an identical second interval.
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
        assert_eq!(restored.app_avg_latency_us(), sys.app_avg_latency_us());
        assert_eq!(restored.cache().stats(), sys.cache().stats());
        assert_eq!(restored.pending_events(), sys.pending_events());
        assert!(restored.drain(600) && sys.drain(600));
        assert_eq!(restored.app_completed(), sys.app_completed());
        assert_eq!(restored.app_max_latency_us(), sys.app_max_latency_us());
    }

    #[test]
    fn conservation_all_scheduled_requests_eventually_complete() {
        let mut sys = tiny_system();
        for i in 0..300u64 {
            sys.schedule_record(&record(
                i * 20,
                (i % 2_000) * 8,
                if i % 3 == 0 { RequestKind::Write } else { RequestKind::Read },
            ));
        }
        // Run far past the last arrival so every queue drains.
        sys.run_until(SimTime::from_secs(10));
        assert_eq!(sys.app_completed(), 300);
        assert_eq!(sys.pending_events(), 0);
        assert_eq!(sys.ssd().outstanding(), 0);
        assert_eq!(sys.disk().outstanding(), 0);
    }
}
