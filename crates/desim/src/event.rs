//! The pending-event set: a bucketed **calendar queue** with stable FIFO
//! ordering for simultaneous events and O(1) lazy cancellation.
//!
//! Determinism matters more than raw speed here: two events scheduled for
//! the same instant are delivered in the order they were scheduled, so a
//! simulation run is a pure function of (configuration, master seed).
//! Pop order is the total order `(time, insertion seq)` ascending — the
//! same contract the previous binary-heap implementation satisfied — and
//! because that order is total (seqs are unique), it is independent of
//! the queue's internal layout: bucket count, bucket width and resize
//! instants cannot change what is popped, only how fast.
//!
//! # Structure
//!
//! A classic calendar queue (Brown 1988): `nbuckets` (a power of two)
//! "days", each `width` ticks long, wrapping around a "year" of
//! `nbuckets × width` ticks. An event at time `t` lives in bucket
//! `(t / width) mod nbuckets`. Each bucket is a `Vec` kept sorted
//! *descending* by `(time, seq)` so the bucket minimum pops from the
//! back in O(1). Pop scans forward from the current day and delivers the
//! bucket head that falls inside the day's current-year window
//! `[cur_top − width, cur_top)`; a full fruitless year falls back to a
//! direct minimum search that re-anchors the scan. Small queues
//! (`live ≤ COMPACT_MIN_HEAP`) collapse to a single sorted bucket — for
//! the simulator's typical handful of pending events that degenerate
//! case is the fast path: binary-search insert, pop from the back,
//! no hashing anywhere.
//!
//! # Cancellation
//!
//! `cancel` is O(1): event ids are `(slot index, generation)` pairs into
//! a slab of generation counters, so validity is one array compare — no
//! hash set on the hot path. A cancelled event's physical entry stays in
//! its bucket as a tombstone (generation mismatch) and is dropped when a
//! scan reaches it; once tombstones outnumber live events the buckets
//! are compacted (the PR-4 memory bound `retained ≤ 2·live +
//! COMPACT_MIN_HEAP` is preserved).

use crate::time::SimTime;

/// Opaque handle to a scheduled event, usable for cancellation.
///
/// Internally `(generation << 32) | slot`: the slot indexes the queue's
/// generation slab and the generation (odd while the event is pending)
/// detects stale handles, so cancel-after-fire and double-cancel are
/// rejected with a single compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(u64);

impl EventId {
    #[inline]
    fn new(slot: u32, gen: u32) -> Self {
        EventId(((gen as u64) << 32) | slot as u64)
    }

    #[inline]
    fn slot(self) -> usize {
        (self.0 & 0xffff_ffff) as usize
    }

    #[inline]
    fn gen(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// One scheduled event as stored in a bucket: 24 bytes of ordering key
/// and identity. The payload itself lives out-of-band in the queue's
/// slot-indexed `payloads` table, so sorted inserts move only these
/// small keys and never copy payloads around.
struct Slot {
    time: SimTime,
    /// Insertion sequence number: the FIFO tie-breaker for equal times.
    seq: u64,
    /// The id handed out for this entry; stale (generation mismatch
    /// against the slab) once cancelled or fired ⇒ tombstone.
    id: EventId,
}

impl Slot {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

/// A time-ordered event queue (bucketed calendar queue).
///
/// * `push` schedules a payload at an absolute time and returns an
///   [`EventId`].
/// * `cancel` lazily removes a scheduled event (tombstoned; skipped on
///   scan).
/// * `pop` yields events in `(time, insertion order)` order.
pub struct EventQueue<E> {
    /// `nbuckets` power-of-two day buckets, each sorted descending by
    /// `(time, seq)` — the bucket minimum is at the back.
    buckets: Vec<Vec<Slot>>,
    /// `nbuckets − 1`, for masking day indices.
    mask: usize,
    /// Ticks per day bucket (≥ 1; meaningless while `mask == 0`).
    /// Always a power of two so the day of a timestamp is a shift, not
    /// a division — `push` and every scan compute it.
    width: u64,
    /// `log2(width)`: `day(t) = t >> width_shift`.
    width_shift: u32,
    /// The day the scan is currently on.
    cur_bucket: usize,
    /// Exclusive upper edge (in ticks) of `cur_bucket`'s window in the
    /// current year. `u128` so year advances can never overflow. The
    /// scan invariant: no live event is earlier than `cur_top − width`.
    cur_top: u128,
    /// Scheduled-and-not-cancelled events.
    live: usize,
    /// Cancelled entries still physically present in some bucket.
    tombstones: usize,
    /// Generation per id slot; odd = pending, even = free.
    slab: Vec<u32>,
    /// Payload per id slot (`Some` exactly while the slot is pending).
    payloads: Vec<Option<E>>,
    /// Free id slots.
    free: Vec<u32>,
    next_seq: u64,
}

/// Tombstones are compacted away only once the queue is at least this
/// large; below it the dead entries cost less than a rebuild. Doubles as
/// the live count at which the single sorted bucket splits into a true
/// multi-bucket calendar.
const COMPACT_MIN_HEAP: usize = 64;

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue.
    pub fn new() -> Self {
        EventQueue {
            buckets: vec![Vec::new()],
            mask: 0,
            width: 1,
            width_shift: 0,
            cur_bucket: 0,
            cur_top: 1,
            live: 0,
            tombstones: 0,
            slab: Vec::new(),
            payloads: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
        }
    }

    /// Is `id` a currently pending (scheduled, not cancelled, not fired)
    /// event?
    #[inline]
    fn is_live(&self, id: EventId) -> bool {
        self.slab.get(id.slot()).copied() == Some(id.gen())
    }

    /// Day bucket holding time `t`.
    #[inline]
    fn bucket_of(&self, t: SimTime) -> usize {
        ((t.ticks() >> self.width_shift) as usize) & self.mask
    }

    /// Schedule `payload` to fire at absolute time `time`.
    pub fn push(&mut self, time: SimTime, payload: E) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        let id = match self.free.pop() {
            Some(slot) => {
                let gen = self.slab[slot as usize].wrapping_add(1);
                self.slab[slot as usize] = gen;
                self.payloads[slot as usize] = Some(payload);
                EventId::new(slot, gen)
            }
            None => {
                let slot = self.slab.len() as u32;
                self.slab.push(1);
                self.payloads.push(Some(payload));
                EventId::new(slot, 1)
            }
        };
        let b = if self.mask == 0 {
            0
        } else {
            // An event earlier than the scan's window start would be
            // missed for up to a year; rewind the scan to its day.
            // (The engine never schedules into the past, but the queue
            // does not rely on that.)
            let day = time.ticks() >> self.width_shift;
            let top = (day as u128 + 1) << self.width_shift;
            if top < self.cur_top {
                self.cur_top = top;
                self.cur_bucket = (day as usize) & self.mask;
            }
            (day as usize) & self.mask
        };
        let bucket = &mut self.buckets[b];
        let key = (time, seq);
        let at = bucket.partition_point(|s| s.key() > key);
        bucket.insert(at, Slot { time, seq, id });
        self.live += 1;
        if self.live > COMPACT_MIN_HEAP && self.live > 2 * (self.mask + 1) {
            self.rebuild();
        }
        id
    }

    /// Cancel a previously scheduled event.
    ///
    /// Returns `true` if the event was still pending. Cancelling an
    /// already-fired or already-cancelled event returns `false` and has
    /// no other effect.
    ///
    /// Cancellation is lazy — the bucket entry becomes a tombstone — but
    /// once tombstones outnumber live events the buckets are compacted,
    /// so a cancel-heavy workload holds O(live) memory instead of
    /// growing without bound until the dead entries happen to be
    /// scanned.
    pub fn cancel(&mut self, id: EventId) -> bool {
        if !self.is_live(id) {
            return false;
        }
        self.slab[id.slot()] = id.gen().wrapping_add(1);
        self.payloads[id.slot()] = None;
        self.free.push(id.slot() as u32);
        self.live -= 1;
        self.tombstones += 1;
        let physical = self.live + self.tombstones;
        if physical >= COMPACT_MIN_HEAP && physical > 2 * self.live {
            if self.shrink_due() {
                self.rebuild();
            } else {
                self.compact();
            }
        } else if self.shrink_due() {
            self.rebuild();
        }
        true
    }

    /// Should the calendar drop to fewer buckets?
    #[inline]
    fn shrink_due(&self) -> bool {
        self.mask > 0 && 4 * self.live < self.mask + 1
    }

    /// Drop every tombstone in place (bucket layout unchanged). O(n);
    /// amortized O(1) per cancel because at least half the entries are
    /// discarded each time. Pop order is unaffected: it is fixed by the
    /// total `(time, seq)` order, not by physical layout.
    fn compact(&mut self) {
        for b in &mut self.buckets {
            b.retain(|s| self.slab.get(s.id.slot()).copied() == Some(s.id.gen()));
        }
        self.tombstones = 0;
    }

    /// Re-bucket every live event for the current size: one sorted
    /// bucket while small, otherwise ~one event per bucket with the
    /// width set to the mean inter-event gap. Also discards all
    /// tombstones. Deterministically triggered by live-count thresholds
    /// only — and even if the parameters were chosen badly, pop order
    /// would be unaffected (the `(time, seq)` order is total).
    fn rebuild(&mut self) {
        let mut slots: Vec<Slot> = Vec::with_capacity(self.live);
        for b in &mut self.buckets {
            for s in b.drain(..) {
                if self.slab.get(s.id.slot()).copied() == Some(s.id.gen()) {
                    slots.push(s);
                }
            }
        }
        self.tombstones = 0;
        debug_assert_eq!(slots.len(), self.live);
        let nbuckets = if self.live <= COMPACT_MIN_HEAP {
            1
        } else {
            self.live.next_power_of_two()
        };
        self.buckets.truncate(nbuckets);
        self.buckets.resize_with(nbuckets, Vec::new);
        self.mask = nbuckets - 1;
        if slots.is_empty() {
            self.width = 1;
            self.width_shift = 0;
            self.cur_bucket = 0;
            self.cur_top = 1;
            return;
        }
        let mut min_t = u64::MAX;
        let mut max_t = 0u64;
        for s in &slots {
            min_t = min_t.min(s.time.ticks());
            max_t = max_t.max(s.time.ticks());
        }
        // Mean inter-event gap as the day width, rounded up to a power
        // of two so day extraction is a shift: with next_power_of_two
        // buckets this spreads the live set over about half a year to a
        // year.
        self.width = ((max_t - min_t) / slots.len() as u64)
            .max(1)
            .next_power_of_two();
        self.width_shift = self.width.trailing_zeros();
        if self.mask == 0 {
            // Single sorted bucket: sort once, descending.
            slots.sort_unstable_by_key(|s| core::cmp::Reverse(s.key()));
            self.buckets[0] = slots;
            self.cur_bucket = 0;
            self.cur_top = 1;
        } else {
            for s in slots {
                let b = self.bucket_of(s.time);
                self.buckets[b].push(s);
            }
            for b in &mut self.buckets {
                b.sort_unstable_by_key(|s| core::cmp::Reverse(s.key()));
            }
            // Anchor the scan at the earliest event's day.
            let day = min_t >> self.width_shift;
            self.cur_bucket = (day as usize) & self.mask;
            self.cur_top = (day as u128 + 1) << self.width_shift;
        }
    }

    /// Advance the scan until the global minimum live event sits at the
    /// back of `buckets[cur_bucket]`. Returns `false` iff no live event
    /// remains. Removes any tombstone it touches.
    fn find_min(&mut self) -> bool {
        if self.live == 0 {
            return false;
        }
        // Single-bucket fast path: the back is the minimum.
        if self.mask == 0 {
            let slab = &self.slab;
            let b = &mut self.buckets[0];
            while let Some(s) = b.last() {
                if slab.get(s.id.slot()).copied() == Some(s.id.gen()) {
                    return true;
                }
                b.pop();
                self.tombstones -= 1;
            }
            unreachable!("live > 0 but no live entry in single bucket");
        }
        let nbuckets = self.mask + 1;
        let mut advanced = 0usize;
        loop {
            let slab = &self.slab;
            let b = &mut self.buckets[self.cur_bucket];
            while let Some(s) = b.last() {
                if slab.get(s.id.slot()).copied() == Some(s.id.gen()) {
                    break;
                }
                b.pop();
                self.tombstones -= 1;
            }
            if let Some(s) = b.last() {
                if (s.time.ticks() as u128) < self.cur_top {
                    return true;
                }
            }
            self.cur_bucket = (self.cur_bucket + 1) & self.mask;
            self.cur_top += self.width as u128;
            advanced += 1;
            if advanced >= nbuckets {
                // A whole year with nothing due: the live set is sparse
                // relative to the calendar. Find the minimum directly
                // and re-anchor the scan on its day. Ties cannot span
                // buckets (equal times share a day), so comparing bucket
                // heads by (time, seq) preserves FIFO.
                let mut best: Option<(u64, u64, usize)> = None;
                for i in 0..self.buckets.len() {
                    let b = &mut self.buckets[i];
                    while let Some(s) = b.last() {
                        if self.slab.get(s.id.slot()).copied() == Some(s.id.gen()) {
                            break;
                        }
                        b.pop();
                        self.tombstones -= 1;
                    }
                    if let Some(s) = b.last() {
                        let k = (s.time.ticks(), s.seq);
                        if best.is_none_or(|(t, q, _)| k < (t, q)) {
                            best = Some((k.0, k.1, i));
                        }
                    }
                }
                let (min_t, _, bi) = best.expect("live > 0 but no live entry in any bucket");
                let day = min_t >> self.width_shift;
                self.cur_bucket = bi;
                self.cur_top = (day as u128 + 1) << self.width_shift;
                debug_assert_eq!((day as usize) & self.mask, bi);
                return true;
            }
        }
    }

    /// Remove and return the earliest live event, skipping tombstones.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if !self.find_min() {
            return None;
        }
        Some(self.take_min())
    }

    /// Remove and return the earliest live event **iff** its time is at
    /// or before `horizon`. Returns `None` both when the queue is
    /// drained and when the earliest event is past the horizon
    /// (distinguish via [`EventQueue::is_empty`]): one scan where the
    /// engine's bounded run loop would otherwise peek, then pop.
    pub fn pop_at_or_before(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        if !self.find_min() {
            return None;
        }
        let b = &self.buckets[self.cur_bucket];
        if b.last().expect("find_min positioned a minimum").time > horizon {
            return None;
        }
        Some(self.take_min())
    }

    /// Pop the minimum that [`EventQueue::find_min`] positioned.
    fn take_min(&mut self) -> (SimTime, E) {
        let s = self.buckets[self.cur_bucket]
            .pop()
            .expect("find_min positioned a minimum");
        self.slab[s.id.slot()] = s.id.gen().wrapping_add(1);
        let payload = self.payloads[s.id.slot()]
            .take()
            .expect("pending slot holds a payload");
        self.free.push(s.id.slot() as u32);
        self.live -= 1;
        if self.shrink_due() {
            self.rebuild();
        }
        (s.time, payload)
    }

    /// Number of live (scheduled, not cancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Entries physically held by the queue, tombstones included —
    /// `retained() - len()` is the current tombstone count. Exposed so
    /// memory-behavior tests (and diagnostics) can observe compaction.
    pub fn retained(&self) -> usize {
        self.live + self.tombstones
    }

    /// Current number of day buckets (1 while the queue is small).
    /// Exposed for resize-behavior tests and diagnostics.
    pub fn n_buckets(&self) -> usize {
        self.mask + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(30), "c");
        q.push(t(10), "a");
        q.push(t(20), "b");
        assert_eq!(q.pop(), Some((t(10), "a")));
        assert_eq!(q.pop(), Some((t(20), "b")));
        assert_eq!(q.pop(), Some((t(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn simultaneous_events_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(t(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t(5), i)));
        }
    }

    #[test]
    fn cancel_removes_event() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), "a");
        q.push(t(2), "b");
        assert_eq!(q.len(), 2);
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double-cancel is a no-op");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((t(2), "b")));
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), "a");
        assert_eq!(q.pop(), Some((t(1), "a")));
        assert!(!q.cancel(a));
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_unknown_id_rejected() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(!q.cancel(EventId::new(42, 1)));
        q.push(t(1), 7);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((t(1), 7)));
    }

    #[test]
    fn id_slot_reuse_does_not_alias() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), "a");
        q.cancel(a);
        // The new event reuses a's slab slot with a bumped generation;
        // the stale handle must not be able to cancel it.
        let b = q.push(t(2), "b");
        assert_eq!(b.slot(), a.slot());
        assert!(!q.cancel(a));
        assert_eq!(q.pop(), Some((t(2), "b")));
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(t(10), 1);
        q.push(t(5), 0);
        assert_eq!(q.pop(), Some((t(5), 0)));
        q.push(t(7), 9);
        assert_eq!(q.pop(), Some((t(7), 9)));
        assert_eq!(q.pop(), Some((t(10), 1)));
    }

    #[test]
    fn cancel_heavy_compacts_tombstones() {
        let mut q = EventQueue::new();
        let ids: Vec<_> = (0..10_000).map(|i| q.push(t(i), i)).collect();
        // Cancel all but every 100th event, scattered across the heap.
        for (i, &id) in ids.iter().enumerate() {
            if i % 100 != 0 {
                q.cancel(id);
            }
        }
        assert_eq!(q.len(), 100);
        // Compaction bounds physical memory: at most 2× live (+ the
        // below-threshold slack), not the 10 000 entries pushed.
        assert!(
            q.retained() <= 2 * q.len() + COMPACT_MIN_HEAP,
            "retained {} for {} live events",
            q.retained(),
            q.len()
        );
        // Survivors pop in exactly the original time order.
        for i in (0..10_000).step_by(100) {
            assert_eq!(q.pop(), Some((t(i), i)));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn interleaved_cancel_push_pop_keeps_order_and_memory() {
        let mut q = EventQueue::new();
        let mut expected = Vec::new();
        let mut peak_live = 0usize;
        // Waves of push-many / cancel-most / pop-some, with colliding
        // timestamps, exercising compaction mid-stream.
        for wave in 0u64..50 {
            let ids: Vec<_> = (0u64..200)
                .map(|i| q.push(t(wave * 10 + i % 7), (wave, i)))
                .collect();
            for (i, &id) in ids.iter().enumerate() {
                let i = i as u64;
                if i % 10 != 3 {
                    assert!(q.cancel(id));
                    assert!(!q.cancel(id), "double cancel must be a no-op");
                } else {
                    expected.push((t(wave * 10 + i % 7), (wave, i)));
                }
            }
            peak_live = peak_live.max(q.len());
            assert!(
                q.retained() <= 2 * q.len() + COMPACT_MIN_HEAP,
                "wave {wave}: retained {} for {} live",
                q.retained(),
                q.len()
            );
        }
        // Same (time, insertion order) sort the queue guarantees.
        expected.sort_by_key(|&(time, (wave, i))| (time, wave, i));
        let mut popped = Vec::new();
        while let Some(e) = q.pop() {
            popped.push(e);
        }
        assert_eq!(popped, expected);
        assert!(peak_live >= 20, "test must actually hold live events");
    }

    #[test]
    fn small_heaps_skip_compaction() {
        let mut q = EventQueue::new();
        let ids: Vec<_> = (0..COMPACT_MIN_HEAP as u64 - 4)
            .map(|i| q.push(t(i), i))
            .collect();
        for &id in &ids[1..] {
            q.cancel(id);
        }
        // Below the threshold the tombstones simply sit in the bucket.
        assert_eq!(q.retained(), COMPACT_MIN_HEAP - 4);
        assert_eq!(q.pop(), Some((t(0), 0)));
        assert!(q.is_empty());
    }

    #[test]
    fn times_can_repeat_across_pushes() {
        let mut q = EventQueue::new();
        let base = t(3) + SimDuration::from_micros(0);
        q.push(base, "x");
        q.pop();
        q.push(base, "y"); // same instant after a pop
        assert_eq!(q.pop(), Some((base, "y")));
    }

    #[test]
    fn grows_into_calendar_and_shrinks_back() {
        let mut q = EventQueue::new();
        assert_eq!(q.n_buckets(), 1);
        let mut ids = Vec::new();
        for i in 0..1000u64 {
            ids.push(q.push(t(1 + i * 37 % 997), i));
        }
        assert!(q.n_buckets() > 1, "large queue must split into buckets");
        // Drain most of it: the calendar must shrink back down and the
        // pop order must still be the global (time, seq) sort.
        let mut last = (SimTime::ZERO, 0u64);
        for _ in 0..990 {
            let (time, i) = q.pop().unwrap();
            let key = (time, i);
            assert!(
                (last.0, last.1) <= (time, i),
                "order violated: {last:?} then {key:?}"
            );
            last = key;
        }
        assert_eq!(q.len(), 10);
        assert_eq!(q.n_buckets(), 1, "drained queue collapses to one bucket");
    }

    #[test]
    fn bimodal_cluster_gap_crosses_year_boundary() {
        // Two clusters much further apart than one calendar year
        // (nbuckets × width): after the first cluster drains, the scan
        // wraps a whole fruitless year and must fall back to the direct
        // minimum search. Pop order must still be the global sort.
        let mut q = EventQueue::new();
        for i in 0..120u64 {
            q.push(t(i), i);
        }
        for i in 0..120u64 {
            q.push(t(1_000_000 + i), 1000 + i);
        }
        assert!(q.n_buckets() > 1);
        let mut prev = None;
        for _ in 0..240 {
            let (time, v) = q.pop().unwrap();
            if let Some(p) = prev {
                assert!(p < (time, v), "order violated: {p:?} then {:?}", (time, v));
            }
            prev = Some((time, v));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn push_earlier_than_scan_rewinds() {
        let mut q = EventQueue::new();
        for i in 0..600u64 {
            q.push(t(1000 + i), i);
        }
        assert!(q.n_buckets() > 1);
        // Advance the scan deep into the calendar (not far enough to
        // shrink back to a single bucket)…
        for _ in 0..400 {
            q.pop();
        }
        assert!(q.n_buckets() > 1);
        // …then schedule before every remaining event (legal for the
        // queue even though the engine never schedules into the past).
        q.push(t(1), 999);
        assert_eq!(q.pop(), Some((t(1), 999)));
        assert_eq!(q.pop(), Some((t(1400), 400)));
    }

    #[test]
    fn pop_at_or_before_respects_horizon() {
        let mut q = EventQueue::new();
        q.push(t(10), "a");
        q.push(t(20), "b");
        assert_eq!(q.pop_at_or_before(t(5)), None);
        assert!(!q.is_empty(), "horizon miss leaves the event pending");
        // An event exactly at the horizon is delivered.
        assert_eq!(q.pop_at_or_before(t(10)), Some((t(10), "a")));
        assert_eq!(q.pop_at_or_before(t(10)), None);
        assert_eq!(q.pop_at_or_before(t(20)), Some((t(20), "b")));
        assert_eq!(q.pop_at_or_before(t(20)), None);
        assert!(q.is_empty(), "drained and horizon miss are distinguished");
    }
}
