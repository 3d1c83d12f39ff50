//! Outstanding-application-request accounting.
//!
//! Request ids are dense and sequential (the system hands them out from a
//! counter), so keying a `HashMap` by them pays SipHash for nothing. The
//! tracker instead keeps a flat id→slot index (4 bytes per id ever issued)
//! into a free-list slab of live entries: register and complete are both a
//! pair of array indexing operations.

use lbica_storage::histogram::LatencyHistogram;
use lbica_storage::request::RequestId;
use lbica_storage::snap::{SnapError, SnapReader, SnapWriter};
use lbica_storage::time::SimTime;

/// Sentinel for "no slot" in the id→slot index.
const NIL: u32 = u32::MAX;

/// One outstanding application request.
#[derive(Debug, Clone, Copy)]
struct AppEntry {
    arrival: SimTime,
    pending_ops: u32,
}

/// Tracks in-flight application requests and aggregates end-to-end latency
/// over completed ones.
///
/// ```
/// use lbica_sim::tracker::AppTracker;
/// use lbica_storage::time::SimTime;
///
/// let mut t = AppTracker::new();
/// t.register(1, SimTime::ZERO, 2);
/// t.complete_op(1, SimTime::from_micros(100));
/// t.complete_op(1, SimTime::from_micros(250));
/// assert_eq!(t.completed(), 1);
/// assert_eq!(t.total_latency_us(), 250);
/// ```
#[derive(Debug, Default)]
pub struct AppTracker {
    /// Request id → slab slot (`NIL` when the id has no live entry). Grows
    /// to the highest registered id; ids are dense, so this stays compact.
    index: Vec<u32>,
    /// Live entries, slots reused via `free`.
    slots: Vec<AppEntry>,
    free: Vec<u32>,
    completed: u64,
    total_latency_us: u64,
    max_latency_us: u64,
    /// End-to-end latency distribution over completed requests, feeding the
    /// report's p50/p95/p99 columns.
    latency: LatencyHistogram,
}

impl AppTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        AppTracker::default()
    }

    /// Number of application requests fully completed.
    pub const fn completed(&self) -> u64 {
        self.completed
    }

    /// Sum of end-to-end latencies of completed requests, µs.
    pub const fn total_latency_us(&self) -> u64 {
        self.total_latency_us
    }

    /// Mean end-to-end latency of completed requests, µs (0 before the
    /// first completion).
    pub(crate) fn avg_latency_us(&self) -> u64 {
        self.total_latency_us.checked_div(self.completed).unwrap_or(0)
    }

    /// Largest end-to-end latency of a completed request, µs.
    pub const fn max_latency_us(&self) -> u64 {
        self.max_latency_us
    }

    /// End-to-end latency at the given percentile (0–100), µs, log-bucketed.
    pub fn percentile_us(&self, pct: f64) -> u64 {
        self.latency.percentile(pct).as_micros()
    }

    /// The full end-to-end latency distribution over completed requests.
    pub fn latency_histogram(&self) -> &LatencyHistogram {
        &self.latency
    }

    /// Number of requests currently in flight.
    pub fn outstanding(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Clears all accounting while keeping the id→slot index, the entry
    /// slab, and the free list allocated, so a reused tracker registers
    /// requests without growing any Vec. Observationally identical to a
    /// freshly constructed tracker afterwards.
    pub fn reset(&mut self) {
        self.index.clear();
        self.slots.clear();
        self.free.clear();
        self.completed = 0;
        self.total_latency_us = 0;
        self.max_latency_us = 0;
        self.latency.reset();
    }

    /// Serializes the tracker for a replay checkpoint: the completed-side
    /// aggregates plus every in-flight request as an `(id, arrival,
    /// pending_ops)` triple in id order. Slab slot assignments are *not*
    /// recorded — they are unobservable bookkeeping, rebuilt on restore.
    pub fn snap_to(&self, w: &mut SnapWriter) {
        w.put_u64(self.completed);
        w.put_u64(self.total_latency_us);
        w.put_u64(self.max_latency_us);
        self.latency.snap_to(w);
        w.put_usize(self.outstanding());
        for (id, &slot) in self.index.iter().enumerate() {
            if slot != NIL {
                let entry = &self.slots[slot as usize];
                w.put_u64(id as u64);
                w.put_u64(entry.arrival.as_micros());
                w.put_u32(entry.pending_ops);
            }
        }
    }

    /// Restores state written by [`AppTracker::snap_to`] into this tracker
    /// (whose own accounting is discarded). A live id whose index cannot
    /// be allocated is a typed error, not an abort; a system's restore
    /// also bounds the ids by its id counter.
    pub fn snap_state_from(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.snap_state_below(r, RequestId::MAX)
    }

    /// [`AppTracker::snap_state_from`] for a system whose id counter stands
    /// at `next_id`: every live id must be one it has already issued, so a
    /// corrupt id is rejected before it can size the id index.
    pub(crate) fn snap_state_below(
        &mut self,
        r: &mut SnapReader<'_>,
        next_id: RequestId,
    ) -> Result<(), SnapError> {
        self.reset();
        self.completed = r.get_u64()?;
        self.total_latency_us = r.get_u64()?;
        self.max_latency_us = r.get_u64()?;
        self.latency = LatencyHistogram::snap_from(r)?;
        let live = r.get_usize()?;
        for _ in 0..live {
            let id = r.get_u64()?;
            let arrival = SimTime::from_micros(r.get_u64()?);
            let pending_ops = r.get_u32()?;
            if pending_ops == 0 {
                return Err(SnapError::Corrupt("live request with zero pending ops"));
            }
            if id >= next_id {
                return Err(SnapError::Corrupt("live request id was never issued"));
            }
            let len = usize::try_from(id)
                .ok()
                .and_then(|id| id.checked_add(1))
                .ok_or(SnapError::Corrupt("live request id too large"))?;
            if self.index.get(len - 1).is_some_and(|&s| s != NIL) {
                return Err(SnapError::Corrupt("duplicate live request id"));
            }
            if let Some(extra) = len.checked_sub(self.index.len()) {
                self.index
                    .try_reserve(extra)
                    .map_err(|_| SnapError::Corrupt("live request id too large"))?;
            }
            self.register(id, arrival, pending_ops);
        }
        Ok(())
    }

    /// Registers an application request that fans out into `pending_ops`
    /// datapath operations.
    pub fn register(&mut self, id: RequestId, arrival: SimTime, pending_ops: u32) {
        if pending_ops == 0 {
            // Nothing in the datapath (cannot normally happen) — count as an
            // instantaneous completion.
            self.completed += 1;
            self.latency.record_us(0);
            return;
        }
        let id = id as usize;
        if self.index.len() <= id {
            self.index.resize(id + 1, NIL);
        }
        debug_assert_eq!(self.index[id], NIL, "request id registered twice");
        let entry = AppEntry { arrival, pending_ops };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = entry;
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("slab fits u32 indices");
                self.slots.push(entry);
                slot
            }
        };
        self.index[id] = slot;
    }

    /// Records the completion of one datapath operation belonging to
    /// application request `parent`. When the last one lands the request's
    /// end-to-end latency is folded into the aggregates. Unknown parents
    /// are ignored (their request completed through another path).
    pub fn complete_op(&mut self, parent: RequestId, now: SimTime) {
        let Some(&slot) = self.index.get(parent as usize) else {
            return;
        };
        if slot == NIL {
            return;
        }
        let entry = &mut self.slots[slot as usize];
        entry.pending_ops -= 1;
        if entry.pending_ops == 0 {
            let latency = now.saturating_since(entry.arrival).as_micros();
            self.completed += 1;
            self.total_latency_us += latency;
            self.max_latency_us = self.max_latency_us.max(latency);
            self.latency.record_us(latency);
            self.index[parent as usize] = NIL;
            self.free.push(slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unindexable_live_ids_are_typed_errors() {
        // Ids whose index no allocation can hold: rejected before any
        // allocation is attempted.
        for id in [u64::MAX, u64::MAX - 1] {
            let mut w = SnapWriter::new();
            AppTracker::new().snap_to(&mut w);
            let mut bytes = w.into_bytes();
            // Patch the empty live list into a one-entry list.
            let count_at = bytes.len() - 8;
            bytes[count_at..].copy_from_slice(&1u64.to_le_bytes());
            bytes.extend_from_slice(&id.to_le_bytes());
            bytes.extend_from_slice(&0u64.to_le_bytes());
            bytes.extend_from_slice(&1u32.to_le_bytes());
            let err = AppTracker::new().snap_state_from(&mut SnapReader::new(&bytes)).unwrap_err();
            assert!(matches!(err, SnapError::Corrupt(_)), "id {id:#x}: {err:?}");
        }
    }

    #[test]
    fn zero_op_registration_counts_as_instant_completion() {
        let mut t = AppTracker::new();
        t.register(1, SimTime::ZERO, 0);
        assert_eq!(t.completed(), 1);
        assert_eq!(t.outstanding(), 0);
        assert_eq!(t.total_latency_us(), 0);
    }

    #[test]
    fn latency_is_taken_from_the_last_op() {
        let mut t = AppTracker::new();
        t.register(5, SimTime::from_micros(100), 3);
        t.complete_op(5, SimTime::from_micros(150));
        t.complete_op(5, SimTime::from_micros(200));
        assert_eq!(t.completed(), 0);
        assert_eq!(t.outstanding(), 1);
        t.complete_op(5, SimTime::from_micros(400));
        assert_eq!(t.completed(), 1);
        assert_eq!(t.total_latency_us(), 300);
        assert_eq!(t.max_latency_us(), 300);
        assert_eq!(t.outstanding(), 0);
    }

    #[test]
    fn unknown_parents_are_ignored() {
        let mut t = AppTracker::new();
        t.complete_op(42, SimTime::from_micros(10));
        t.register(1, SimTime::ZERO, 1);
        t.complete_op(99, SimTime::from_micros(10));
        assert_eq!(t.completed(), 0);
        assert_eq!(t.outstanding(), 1);
    }

    #[test]
    fn slots_are_reused_across_request_generations() {
        let mut t = AppTracker::new();
        for id in 1..=100u64 {
            t.register(id, SimTime::from_micros(id), 1);
            t.complete_op(id, SimTime::from_micros(id + 7));
        }
        assert_eq!(t.completed(), 100);
        assert_eq!(t.outstanding(), 0);
        // One request in flight at a time → one slab slot, ever.
        assert_eq!(t.slots.len(), 1);
        assert_eq!(t.total_latency_us(), 700);
        assert_eq!(t.max_latency_us(), 7);
    }

    #[test]
    fn interleaved_requests_complete_independently() {
        let mut t = AppTracker::new();
        t.register(1, SimTime::ZERO, 2);
        t.register(2, SimTime::from_micros(50), 1);
        t.complete_op(1, SimTime::from_micros(60));
        t.complete_op(2, SimTime::from_micros(80));
        assert_eq!(t.completed(), 1);
        t.complete_op(1, SimTime::from_micros(120));
        assert_eq!(t.completed(), 2);
        assert_eq!(t.max_latency_us(), 120);
        assert_eq!(t.total_latency_us(), 150);
    }

    #[test]
    fn snapshot_round_trip_restores_aggregates_and_in_flight_requests() {
        let mut t = AppTracker::new();
        for id in 1..=20u64 {
            t.register(id, SimTime::from_micros(id), 1);
            t.complete_op(id, SimTime::from_micros(id + 5));
        }
        t.register(21, SimTime::from_micros(100), 2);
        t.register(22, SimTime::from_micros(110), 1);
        t.complete_op(21, SimTime::from_micros(120));

        let mut w = SnapWriter::new();
        t.snap_to(&mut w);
        let bytes = w.into_bytes();
        let mut restored = AppTracker::new();
        let mut r = SnapReader::new(&bytes);
        restored.snap_state_from(&mut r).unwrap();
        r.finish().unwrap();

        assert_eq!(restored.completed(), t.completed());
        assert_eq!(restored.total_latency_us(), t.total_latency_us());
        assert_eq!(restored.max_latency_us(), t.max_latency_us());
        assert_eq!(restored.outstanding(), 2);
        assert_eq!(restored.percentile_us(50.0), t.percentile_us(50.0));
        // The restored tracker finishes the in-flight requests identically.
        restored.complete_op(21, SimTime::from_micros(300));
        t.complete_op(21, SimTime::from_micros(300));
        restored.complete_op(22, SimTime::from_micros(310));
        t.complete_op(22, SimTime::from_micros(310));
        assert_eq!(restored.completed(), t.completed());
        assert_eq!(restored.total_latency_us(), t.total_latency_us());
        assert_eq!(restored.max_latency_us(), t.max_latency_us());
    }

    #[test]
    fn zero_pending_ops_in_a_snapshot_is_rejected() {
        let mut t = AppTracker::new();
        t.register(7, SimTime::from_micros(5), 3);
        let mut w = SnapWriter::new();
        t.snap_to(&mut w);
        let mut bytes = w.into_bytes();
        // The trailing u32 is the live entry's pending_ops.
        let n = bytes.len();
        bytes[n - 4..].fill(0);
        let err = AppTracker::new().snap_state_from(&mut SnapReader::new(&bytes)).unwrap_err();
        assert!(matches!(err, SnapError::Corrupt("live request with zero pending ops")));
    }

    #[test]
    fn percentiles_track_completed_latencies() {
        let mut t = AppTracker::new();
        for id in 1..=100u64 {
            t.register(id, SimTime::ZERO, 1);
            t.complete_op(id, SimTime::from_micros(id * 100));
        }
        assert_eq!(t.latency_histogram().count(), 100);
        let p50 = t.percentile_us(50.0);
        let p99 = t.percentile_us(99.0);
        assert!((4_000..=6_500).contains(&p50), "p50 {p50}");
        assert!(p99 >= p50 && p99 <= t.max_latency_us());
    }
}
