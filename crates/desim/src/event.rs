//! The pending-event set: a calendar queue whose days are linked lists
//! threaded through one slot arena, FIFO-stable for simultaneous events,
//! with O(1) cancellation.
//!
//! Determinism matters more than raw speed here: a simulation run must
//! be a pure function of (configuration, master seed). Pop order is the
//! total order `(time, seq)` ascending, where `seq` counts pushes — two
//! events scheduled for the same instant fire in the order they were
//! scheduled.
//!
//! # Structure
//!
//! Every pending event owns one slot of an arena, the slot its
//! [`EventId`] names: its `(time, seq)` key, a generation, its payload
//! and `(prev, next)` links. A Brown (1988) calendar of `days` (a power
//! of two) days, each `width` (a power of two) ticks long, wraps around a
//! year of `days × width` ticks; day `d` is an unordered doubly-linked
//! list through the arena of the events with `(t / width) mod days == d`,
//! and costs the calendar one `u32` head. The scan stands on one day,
//! whose window ends at `cur_top`; the events due before `cur_top` sit in
//! `today`, one run sorted descending by `(time, seq)`.
//!
//! * `push` of an event due before `cur_top` is a sorted insert into
//!   `today`; any later one is an O(1) link onto its day.
//! * `cancel` unlinks a linked event in O(1), or removes a `today` entry
//!   found by binary search; either way its slot is free at once.
//! * `pop` takes the back of `today`. When `today` is empty the scan
//!   steps to the next day and sorts that day's due events into `today`;
//!   a whole year with nothing due re-anchors it on the earliest event.
//! * A resize — to `days` ≈ the live count and `width` ≈ the mean gap
//!   between live events, whenever the live count doubles or quarters
//!   against `days` — re-links the live slots in place.
//!
//! At or below `COMPACT_MAX` live events the queue is `today` alone (its
//! window never ends): a binary-search insert, a pop from the back, no
//! day arithmetic — the simulator's usual handful of pending events.
//!
//! # Exactness
//!
//! One invariant: `today` holds exactly the live events before `cur_top`,
//! and every linked event is at or after it. So the back of `today` is
//! the minimum of all live events, and when `today` runs dry the next
//! window's events all hang on the next day's list. Because `(time,
//! seq)` is a total order (seqs are unique), what pops is independent of
//! the layout: day count, width and resize instants change only how fast.

use core::cmp::Reverse;

use crate::time::SimTime;

/// Opaque handle to a scheduled event, usable for cancellation.
///
/// Internally `(generation << 32) | slot`: the slot indexes the queue's
/// arena and the generation (odd while the event is pending) detects
/// stale handles, so cancel-after-fire and double-cancel are rejected
/// with a single compare.
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

/// End of a day list or of the free list.
const NIL: u32 = u32::MAX;
/// The `prev` of a slot whose event sits in `today`, not on a day list.
const TODAY: u32 = u32::MAX - 1;

/// The live count at or below which the queue is `today` alone.
const COMPACT_MAX: usize = 64;

/// One arena slot: a pending event, or a link of the free list.
struct Slot<E> {
    time: SimTime,
    /// Push sequence number: the FIFO tie-breaker for equal times.
    seq: u64,
    /// Odd while the event is pending, even while the slot is free.
    gen: u32,
    /// Day-list neighbours (`NIL` at either end). `prev` is `TODAY`
    /// while the event sits in `today`; `next` links the free list
    /// while the slot is free.
    prev: u32,
    next: u32,
    /// `Some` exactly while the event is pending.
    payload: Option<E>,
}

/// An entry of the sorted `today` run: the key, copied so the binary
/// search stays in one array, and the slot.
struct Due {
    time: SimTime,
    seq: u64,
    slot: u32,
}

impl Due {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

/// A time-ordered event queue (a calendar queue over a slot arena).
///
/// * `push` schedules a payload at an absolute time and returns an
///   [`EventId`].
/// * `cancel` removes a scheduled event.
/// * `pop` yields events in `(time, insertion order)` order.
pub struct EventQueue<E> {
    /// One slot per event id; free slots are threaded through `next`.
    slots: Vec<Slot<E>>,
    /// First free slot (`NIL`: none).
    free: u32,
    /// First slot of each day's list (`NIL`: empty); one day while
    /// compact.
    heads: Vec<u32>,
    /// `log2(width)`: `day(t) = (t >> width_shift) mod days`.
    width_shift: u32,
    /// The day the scan stands on.
    cur_day: usize,
    /// Exclusive end (in ticks) of the scan's window; `u128::MAX` while
    /// compact, so that every event is due.
    cur_top: u128,
    /// The live events before `cur_top`, sorted descending by `(time,
    /// seq)`: the next event is at the back.
    today: Vec<Due>,
    /// Scheduled-and-not-cancelled events.
    live: usize,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue.
    pub fn new() -> Self {
        EventQueue {
            slots: Vec::new(),
            free: NIL,
            heads: vec![NIL],
            width_shift: 0,
            cur_day: 0,
            cur_top: u128::MAX,
            today: Vec::new(),
            live: 0,
            next_seq: 0,
        }
    }

    /// Is `id` a currently pending (scheduled, not cancelled, not fired)
    /// event?
    #[inline]
    fn is_live(&self, id: EventId) -> bool {
        self.slots.get(id.slot()).is_some_and(|s| s.gen == id.gen())
    }

    /// The calendar day holding time `t`.
    #[inline]
    fn day_of(&self, t: SimTime) -> usize {
        ((t.ticks() >> self.width_shift) as usize) & (self.heads.len() - 1)
    }

    /// Schedule `payload` to fire at absolute time `time`.
    pub fn push(&mut self, time: SimTime, payload: E) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free {
            NIL => {
                self.slots.push(Slot {
                    time,
                    seq,
                    gen: 0,
                    prev: NIL,
                    next: NIL,
                    payload: None,
                });
                (self.slots.len() - 1) as u32
            }
            free => {
                self.free = self.slots[free as usize].next;
                free
            }
        };
        let s = &mut self.slots[slot as usize];
        s.time = time;
        s.seq = seq;
        s.gen = s.gen.wrapping_add(1);
        s.payload = Some(payload);
        let id = EventId::new(slot, s.gen);
        if (time.ticks() as u128) < self.cur_top {
            let key = (time, seq);
            let at = self.today.partition_point(|d| d.key() > key);
            self.today.insert(at, Due { time, seq, slot });
            self.slots[slot as usize].prev = TODAY;
        } else {
            self.link(slot);
        }
        self.live += 1;
        if self.live > COMPACT_MAX && self.live > 2 * self.heads.len() {
            self.resize();
        }
        id
    }

    /// Cancel a previously scheduled event.
    ///
    /// Returns `true` if the event was still pending. Cancelling an
    /// already-fired or already-cancelled event returns `false` and has
    /// no other effect. The event's slot is free for the next push at
    /// once, so a cancel-heavy workload holds only its live events.
    pub fn cancel(&mut self, id: EventId) -> bool {
        if !self.is_live(id) {
            return false;
        }
        let s = &self.slots[id.slot()];
        if s.prev == TODAY {
            let key = (s.time, s.seq);
            let at = self.today.partition_point(|d| d.key() > key);
            self.today.remove(at);
        } else {
            self.unlink(id.slot() as u32);
        }
        self.release(id.slot() as u32);
        true
    }

    /// Put `slot` at the head of its day's list.
    fn link(&mut self, slot: u32) {
        let day = self.day_of(self.slots[slot as usize].time);
        let next = self.heads[day];
        if next != NIL {
            self.slots[next as usize].prev = slot;
        }
        let s = &mut self.slots[slot as usize];
        s.prev = NIL;
        s.next = next;
        self.heads[day] = slot;
    }

    /// Take `slot` off its day's list.
    fn unlink(&mut self, slot: u32) {
        let s = &self.slots[slot as usize];
        let (prev, next) = (s.prev, s.next);
        match prev {
            NIL => {
                let day = self.day_of(s.time);
                self.heads[day] = next;
            }
            prev => self.slots[prev as usize].next = next,
        }
        if next != NIL {
            self.slots[next as usize].prev = prev;
        }
    }

    /// Hand `slot`, already off `today` and its day list, to the free
    /// list and return its payload; shrink the calendar once the live
    /// count falls to a quarter of the days.
    fn release(&mut self, slot: u32) -> E {
        let s = &mut self.slots[slot as usize];
        s.gen = s.gen.wrapping_add(1);
        s.next = self.free;
        self.free = slot;
        let payload = s.payload.take().expect("pending slot holds a payload");
        self.live -= 1;
        if self.heads.len() > 1 && 4 * self.live < self.heads.len() {
            self.resize();
        }
        payload
    }

    /// Put the scan on the day holding tick `t`.
    fn anchor(&mut self, t: u64) {
        let day = t >> self.width_shift;
        self.cur_day = (day as usize) & (self.heads.len() - 1);
        self.cur_top = (day as u128 + 1) << self.width_shift;
    }

    /// Move `slot` into `today` if it is due before `cur_top` (unsorted:
    /// the caller sorts), onto its day's list otherwise.
    fn settle(&mut self, slot: u32) {
        let s = &mut self.slots[slot as usize];
        if (s.time.ticks() as u128) < self.cur_top {
            s.prev = TODAY;
            self.today.push(Due {
                time: s.time,
                seq: s.seq,
                slot,
            });
        } else {
            self.link(slot);
        }
    }

    /// Lay the live events out for the live count: `today` alone at or
    /// below `COMPACT_MAX`, otherwise about one day per live event with
    /// the mean gap between them, rounded up to a power of two, as the
    /// width. Re-links the slots in place.
    fn resize(&mut self) {
        let days = if self.live <= COMPACT_MAX {
            1
        } else {
            self.live.next_power_of_two()
        };
        self.heads.clear();
        self.heads.resize(days, NIL);
        self.today.clear();
        if days == 1 {
            self.width_shift = 0;
            self.cur_day = 0;
            self.cur_top = u128::MAX;
        } else {
            let (min_t, max_t) = self
                .slots
                .iter()
                .filter(|s| s.payload.is_some())
                .fold((u64::MAX, 0), |(lo, hi), s| {
                    (lo.min(s.time.ticks()), hi.max(s.time.ticks()))
                });
            let width = ((max_t - min_t) / self.live as u64)
                .max(1)
                .next_power_of_two();
            self.width_shift = width.trailing_zeros();
            self.anchor(min_t);
        }
        for slot in 0..self.slots.len() as u32 {
            if self.slots[slot as usize].payload.is_some() {
                self.settle(slot);
            }
        }
        self.today.sort_unstable_by_key(|d| Reverse(d.key()));
    }

    /// Make the back of `today` the earliest live event. Returns `false`
    /// iff no live event remains.
    fn find_min(&mut self) -> bool {
        if !self.today.is_empty() {
            return true;
        }
        if self.live == 0 {
            return false;
        }
        // `today` is dry, so every live event is linked at or after
        // `cur_top` — the queue is a calendar (compact, all are due).
        debug_assert!(self.heads.len() > 1);
        let mask = self.heads.len() - 1;
        for _ in 0..self.heads.len() {
            self.cur_day = (self.cur_day + 1) & mask;
            self.cur_top += 1u128 << self.width_shift;
            self.take_day();
            if !self.today.is_empty() {
                return true;
            }
        }
        // A whole year with nothing due: the live set is sparse against
        // the calendar. Re-anchor the scan on the earliest event's day.
        let min_t = self
            .slots
            .iter()
            .filter(|s| s.payload.is_some())
            .map(|s| s.time.ticks())
            .min()
            .expect("live > 0 but no pending slot");
        self.anchor(min_t);
        self.take_day();
        true
    }

    /// Move the scan day's events due before `cur_top` off its list
    /// into `today`, sorted.
    fn take_day(&mut self) {
        let mut at = self.heads[self.cur_day];
        while at != NIL {
            let next = self.slots[at as usize].next;
            if (self.slots[at as usize].time.ticks() as u128) < self.cur_top {
                self.unlink(at);
                self.settle(at);
            }
            at = next;
        }
        self.today.sort_unstable_by_key(|d| Reverse(d.key()));
    }

    /// Remove and return the earliest live event.
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
        if !self.find_min() || self.today.last().is_some_and(|d| d.time > horizon) {
            return None;
        }
        Some(self.take_min())
    }

    /// Pop the minimum that [`EventQueue::find_min`] put at the back of
    /// `today`.
    fn take_min(&mut self) -> (SimTime, E) {
        let due = self.today.pop().expect("find_min positioned a minimum");
        (due.time, self.release(due.slot))
    }

    /// Number of live (scheduled, not cancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Entries the queue's structure holds, counted by walking it:
    /// `today` plus every day list. Equal to [`EventQueue::len`] while
    /// every cancel and pop unhooks its event; exposed so memory tests
    /// can see that nothing dead stays reachable.
    pub fn retained(&self) -> usize {
        let mut n = self.today.len();
        for &head in &self.heads {
            let mut at = head;
            while at != NIL {
                n += 1;
                at = self.slots[at as usize].next;
            }
        }
        n
    }

    /// Current number of calendar days (1 while the queue is compact).
    /// Exposed for resize-behavior tests.
    pub fn n_buckets(&self) -> usize {
        self.heads.len()
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
        // The new event reuses a's arena slot with a bumped generation;
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
    fn cancel_heavy_holds_only_live_events() {
        let mut q = EventQueue::new();
        let ids: Vec<_> = (0..10_000).map(|i| q.push(t(i), i)).collect();
        // Cancel all but every 100th event, scattered across the calendar.
        for (i, &id) in ids.iter().enumerate() {
            if i % 100 != 0 {
                q.cancel(id);
            }
        }
        assert_eq!(q.len(), 100);
        assert_eq!(q.retained(), q.len(), "a cancel leaves nothing behind");
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
        // Waves of push-many / cancel-most, with colliding timestamps,
        // cancelling out of `today` and off day lists alike.
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
            assert_eq!(q.retained(), q.len(), "wave {wave}");
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
        assert!(q.n_buckets() > 1, "large queue must split into days");
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
        assert_eq!(q.n_buckets(), 1, "drained queue is compact again");
    }

    #[test]
    fn bimodal_cluster_gap_crosses_year_boundary() {
        // Two clusters much further apart than one calendar year
        // (days × width): after the first cluster drains, the scan
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
    fn push_earlier_than_scan_pops_first() {
        let mut q = EventQueue::new();
        for i in 0..600u64 {
            q.push(t(1000 + i), i);
        }
        assert!(q.n_buckets() > 1);
        // Advance the scan deep into the calendar (not far enough to
        // shrink back to the compact run)…
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

    /// A hold model (pop the minimum, push it back later) whose live set
    /// is skewed the way a Zipf flow population makes it: a few hot
    /// events re-arm within about a day, while the rest spread over the
    /// year and set the day width. Beside it a timer is re-armed every
    /// step and its previous arming cancelled, alternately due today and
    /// linked a year out, and cancelled before the next pop. Over several calendar years the arena must
    /// stay at the peak live count: a cancelled slot is reused at once.
    #[test]
    fn hold_model_keeps_arena_slots_at_the_live_count() {
        use crate::rng::RngFactory;
        use rand::Rng;
        const LIVE: usize = 10_000;
        const HOT: usize = 32;
        const COLD_SPAN: u64 = 1 << 24;
        let mut rng = RngFactory::new(34).stream("hold");
        let mut q = EventQueue::new();
        for i in 0..LIVE {
            let span = if i < HOT { 1 } else { COLD_SPAN };
            q.push(SimTime::from_ticks(rng.gen_range(0..span)), i < HOT);
        }
        let width = 1u64 << q.width_shift;
        let year = width * q.n_buckets() as u64;
        let mut timer = None;
        let mut cancels = 0u64;
        let mut now = SimTime::ZERO;
        while now.ticks() < 3 * year {
            if let Some(armed) = timer.take() {
                assert!(q.cancel(armed));
                cancels += 1;
            }
            let (t, hot) = q.pop().unwrap();
            now = t;
            let span = if hot { 2 * width } else { COLD_SPAN };
            q.push(
                SimTime::from_ticks(now.ticks() + rng.gen_range(1..span)),
                hot,
            );
            let ahead = if cancels.is_multiple_of(2) { 1 } else { year };
            timer = Some(q.push(SimTime::from_ticks(now.ticks() + ahead), false));
        }
        assert_eq!(q.len(), LIVE + 1);
        assert!(
            q.slots.len() <= LIVE + 1,
            "{} arena slots for {} live events after {cancels} cancels",
            q.slots.len(),
            q.len()
        );
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
