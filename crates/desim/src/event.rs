//! The pending-event set: a 4-ary min-heap over one slot arena,
//! FIFO-stable for simultaneous events, with O(log n) cancellation.
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
//! [`EventId`] names: a generation, its payload and the index of its
//! entry in the heap. The heap is one array of `{ key, slot }` entries,
//! `key = time << 64 | seq` packed into a `u128`, so an order test is one
//! integer compare and the entries of a node's four children share a
//! cache line or two.
//!
//! * `push` appends an entry and sifts it up.
//! * `pop` takes the root, moves the last entry there and sifts it down.
//! * `cancel` finds its entry through the slot, moves the last entry
//!   into the hole and sifts that one up or down, whichever its key asks.
//!
//! Every move of an entry rewrites its slot's heap index, and a popped
//! or cancelled event's slot is free for the next push at once.
//!
//! # Exactness
//!
//! Keys are unique (seqs are), so `(time, seq)` is a total order and the
//! heap's root is always the one live event that order puts first. What
//! pops is therefore independent of the heap's shape or the instants of
//! its moves.

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

/// End of the free list.
const NIL: u32 = u32::MAX;

/// Children per heap node.
const ARITY: usize = 4;

/// One arena slot: a pending event, or a link of the free list.
struct Slot<E> {
    /// Odd while the event is pending, even while the slot is free.
    gen: u32,
    /// While pending, the index of the event's entry in the heap; while
    /// free, the next free slot (`NIL`: none).
    link: u32,
    /// `Some` exactly while the event is pending.
    payload: Option<E>,
}

/// A heap entry: the event's `(time, seq)` key and its slot.
#[derive(Clone, Copy)]
struct Entry {
    /// `time.ticks() << 64 | seq`.
    key: u128,
    slot: u32,
}

impl Entry {
    #[inline]
    fn time(&self) -> SimTime {
        SimTime::from_ticks((self.key >> 64) as u64)
    }
}

/// A time-ordered event queue (a 4-ary indexed heap over a slot arena).
///
/// * `push` schedules a payload at an absolute time and returns an
///   [`EventId`].
/// * `cancel` removes a scheduled event.
/// * `pop` yields events in `(time, insertion order)` order.
pub struct EventQueue<E> {
    /// One entry per live event; every parent's key is below its
    /// children's.
    heap: Vec<Entry>,
    /// One slot per event id; free slots are threaded through `link`.
    slots: Vec<Slot<E>>,
    /// First free slot (`NIL`: none).
    free: u32,
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
            heap: Vec::new(),
            slots: Vec::new(),
            free: NIL,
            next_seq: 0,
        }
    }

    /// Schedule `payload` to fire at absolute time `time`.
    pub fn push(&mut self, time: SimTime, payload: E) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free {
            NIL => {
                self.slots.push(Slot {
                    gen: 0,
                    link: NIL,
                    payload: None,
                });
                (self.slots.len() - 1) as u32
            }
            free => {
                self.free = self.slots[free as usize].link;
                free
            }
        };
        let s = &mut self.slots[slot as usize];
        s.gen = s.gen.wrapping_add(1);
        s.payload = Some(payload);
        let id = EventId::new(slot, s.gen);
        let key = ((time.ticks() as u128) << 64) | seq as u128;
        self.heap.push(Entry { key, slot });
        self.sift_up(self.heap.len() - 1);
        id
    }

    /// Cancel a previously scheduled event.
    ///
    /// Returns `true` if the event was still pending. Cancelling an
    /// already-fired or already-cancelled event returns `false` and has
    /// no other effect. The event's slot is free for the next push at
    /// once, so a cancel-heavy workload holds only its live events.
    pub fn cancel(&mut self, id: EventId) -> bool {
        match self.slots.get(id.slot()) {
            Some(s) if s.gen == id.gen() => {
                let at = s.link as usize;
                let entry = self.remove(at);
                self.release(entry.slot);
                true
            }
            _ => false,
        }
    }

    /// Remove and return the earliest live event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.heap.is_empty() {
            return None;
        }
        Some(self.take_min())
    }

    /// Remove and return the earliest live event **iff** its time is at
    /// or before `horizon`. Returns `None` both when the queue is
    /// drained and when the earliest event is past the horizon
    /// (distinguish via [`EventQueue::is_empty`]): one look at the root
    /// where a run loop bounded by a horizon would otherwise peek, then pop.
    pub fn pop_at_or_before(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        if self.heap.first().is_none_or(|e| e.time() > horizon) {
            return None;
        }
        Some(self.take_min())
    }

    /// Number of live (scheduled, not cancelled) events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no live events remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Pop the root of a non-empty heap.
    fn take_min(&mut self) -> (SimTime, E) {
        let min = self.remove(0);
        (min.time(), self.release(min.slot))
    }

    /// Take the entry at heap index `at` out, filling the hole with the
    /// last entry and sifting that one to its place.
    fn remove(&mut self, at: usize) -> Entry {
        let last = self.heap.pop().expect("remove from a non-empty heap");
        if at == self.heap.len() {
            return last;
        }
        let removed = self.heap[at];
        self.heap[at] = last;
        if at > 0 && last.key < self.heap[(at - 1) / ARITY].key {
            self.sift_up(at);
        } else {
            self.sift_down(at);
        }
        removed
    }

    /// Put `entry` at heap index `at` and point its slot there.
    #[inline]
    fn place(&mut self, at: usize, entry: Entry) {
        self.slots[entry.slot as usize].link = at as u32;
        self.heap[at] = entry;
    }

    /// Move the entry at `at` up past every parent with a larger key.
    fn sift_up(&mut self, mut at: usize) {
        let entry = self.heap[at];
        while at > 0 {
            let parent = (at - 1) / ARITY;
            if self.heap[parent].key < entry.key {
                break;
            }
            self.place(at, self.heap[parent]);
            at = parent;
        }
        self.place(at, entry);
    }

    /// Move the entry at `at` down past every smallest child with a
    /// smaller key.
    fn sift_down(&mut self, mut at: usize) {
        let entry = self.heap[at];
        let n = self.heap.len();
        loop {
            let first = ARITY * at + 1;
            if first >= n {
                break;
            }
            let mut min = first;
            for child in first + 1..(first + ARITY).min(n) {
                if self.heap[child].key < self.heap[min].key {
                    min = child;
                }
            }
            if entry.key < self.heap[min].key {
                break;
            }
            self.place(at, self.heap[min]);
            at = min;
        }
        self.place(at, entry);
    }

    /// Hand `slot`, whose entry has left the heap, to the free list and
    /// return its payload.
    fn release(&mut self, slot: u32) -> E {
        let s = &mut self.slots[slot as usize];
        s.gen = s.gen.wrapping_add(1);
        s.link = self.free;
        self.free = slot;
        s.payload.take().expect("pending slot holds a payload")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    /// Every parent orders before its children, and every live slot
    /// names its entry's heap index.
    fn assert_indexed_heap<E>(q: &EventQueue<E>) {
        for (at, e) in q.heap.iter().enumerate() {
            assert_eq!(
                q.slots[e.slot as usize].link as usize, at,
                "slot of entry {at}"
            );
            if at > 0 {
                assert!(
                    q.heap[(at - 1) / ARITY].key < e.key,
                    "entry {at} above its parent"
                );
            }
        }
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
        // Cancel all but every 100th event, scattered across the heap.
        for (i, &id) in ids.iter().enumerate() {
            if i % 100 != 0 {
                q.cancel(id);
            }
        }
        assert_eq!(q.len(), 100);
        assert_indexed_heap(&q);
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
        // cancelling the root, leaves and interior entries alike.
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
            assert_indexed_heap(&q);
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
    fn scattered_population_drains_in_order() {
        let mut q = EventQueue::new();
        for i in 0..1000u64 {
            q.push(t(1 + i * 37 % 997), i);
        }
        // Drain most of it: the pop order is the global (time, seq) sort.
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
        assert_indexed_heap(&q);
    }

    #[test]
    fn distant_clusters_pop_in_order() {
        // Two clusters far apart in time, pushed one after the other:
        // pop order is the global sort.
        let mut q = EventQueue::new();
        for i in 0..120u64 {
            q.push(t(i), i);
        }
        for i in 0..120u64 {
            q.push(t(1_000_000 + i), 1000 + i);
        }
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
    fn push_earlier_than_every_pending_pops_first() {
        let mut q = EventQueue::new();
        for i in 0..600u64 {
            q.push(t(1000 + i), i);
        }
        for _ in 0..400 {
            q.pop();
        }
        // Schedule before every remaining event, and before the last pop
        // (legal for the queue even though a run loop never schedules
        // into the past).
        q.push(t(1), 999);
        assert_eq!(q.pop(), Some((t(1), 999)));
        assert_eq!(q.pop(), Some((t(1400), 400)));
    }

    /// A hold model (pop the minimum, push it back later) whose live set
    /// is skewed the way a Zipf flow population makes it: a few hot
    /// events re-arm within `HOT_SPAN`, while the rest spread over
    /// `COLD_SPAN`. Beside it a timer is re-armed every step and its
    /// previous arming cancelled, alternately due a tick ahead (near the
    /// root) and `SPAN` ahead (deep in the heap), and cancelled before
    /// the next pop. Over several `SPAN`s the arena must stay at the
    /// peak live count: a cancelled slot is reused at once.
    #[test]
    fn hold_model_keeps_arena_slots_at_the_live_count() {
        use crate::rng::RngFactory;
        use rand::Rng;
        const LIVE: usize = 10_000;
        const HOT: usize = 32;
        const HOT_SPAN: u64 = 1 << 12;
        const COLD_SPAN: u64 = 1 << 24;
        const SPAN: u64 = 1 << 25;
        let mut rng = RngFactory::new(34).stream("hold");
        let mut q = EventQueue::new();
        for i in 0..LIVE {
            let span = if i < HOT { 1 } else { COLD_SPAN };
            q.push(SimTime::from_ticks(rng.gen_range(0..span)), i < HOT);
        }
        let mut timer = None;
        let mut cancels = 0u64;
        let mut now = SimTime::ZERO;
        while now.ticks() < 3 * SPAN {
            if let Some(armed) = timer.take() {
                assert!(q.cancel(armed));
                cancels += 1;
            }
            let (t, hot) = q.pop().unwrap();
            now = t;
            let span = if hot { HOT_SPAN } else { COLD_SPAN };
            q.push(
                SimTime::from_ticks(now.ticks() + rng.gen_range(1..span)),
                hot,
            );
            let ahead = if cancels.is_multiple_of(2) { 1 } else { SPAN };
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

    /// The one cancel whose hole is refilled from below its parent: the
    /// heap's last entry orders before the cancelled entry's parent, so
    /// it must sift up, not down.
    #[test]
    fn cancel_sifts_the_moved_entry_up_past_the_holes_parent() {
        let mut q = EventQueue::new();
        // Each push keys at or after its parent's, so entry i stays at
        // heap index i: root 0; 100 over four 200s at 5..=8; 10 over 20
        // at 9, the last entry.
        let times = [0, 100, 10, 10, 10, 200, 200, 200, 200, 20];
        let ids: Vec<_> = times.iter().map(|&us| q.push(t(us), us)).collect();
        for (at, e) in q.heap.iter().enumerate() {
            assert_eq!(e.slot as usize, at, "push order is heap order");
        }
        // Entry 5's parent is entry 1 (100); the last entry (20) fills
        // its hole.
        assert!(q.cancel(ids[5]));
        assert_indexed_heap(&q);
        let mut popped = Vec::new();
        while let Some((_, us)) = q.pop() {
            popped.push(us);
        }
        assert_eq!(popped, [0, 10, 10, 10, 20, 100, 200, 200, 200]);
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
