//! The pending-event set: a 4-ary min-heap, FIFO-stable for
//! simultaneous events.
//!
//! Determinism matters more than raw speed here: a simulation run must
//! be a pure function of (configuration, master seed). Pop order is the
//! total order `(time, seq)` ascending, where `seq` counts pushes — two
//! events scheduled for the same instant fire in the order they were
//! scheduled.
//!
//! # Structure
//!
//! The heap is one array of `{ key, payload }` entries,
//! `key = time << 64 | seq` packed into a `u128`, so an order test is
//! one integer compare and the entries of a node's four children share a
//! cache line or two.
//!
//! * `push` appends an entry and sifts it up.
//! * `pop` takes the root, moves the last entry there and sifts it down.
//!
//! There is no cancellation: every pushed event pops, so the queue holds
//! exactly its pending events.
//!
//! # Exactness
//!
//! Keys are unique (seqs are), so `(time, seq)` is a total order and the
//! heap's root is always the one pending event that order puts first.
//! What pops is therefore independent of the heap's shape or the
//! instants of its moves.

use crate::time::SimTime;

/// Children per heap node.
const ARITY: usize = 4;

/// A heap entry: the event's `(time, seq)` key and its payload.
struct Entry<E> {
    /// `time.ticks() << 64 | seq`.
    key: u128,
    payload: E,
}

impl<E> Entry<E> {
    #[inline]
    fn time(&self) -> SimTime {
        SimTime::from_ticks((self.key >> 64) as u64)
    }
}

/// A time-ordered event queue (a 4-ary min-heap).
///
/// * `push` schedules a payload at an absolute time.
/// * `pop` yields events in `(time, insertion order)` order.
pub struct EventQueue<E> {
    /// One entry per pending event; every parent's key is below its
    /// children's.
    heap: Vec<Entry<E>>,
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
            next_seq: 0,
        }
    }

    /// Schedule `payload` to fire at absolute time `time`.
    pub fn push(&mut self, time: SimTime, payload: E) {
        let key = ((time.ticks() as u128) << 64) | self.next_seq as u128;
        self.next_seq += 1;
        self.heap.push(Entry { key, payload });
        self.sift_up(self.heap.len() - 1);
    }

    /// Remove and return the earliest pending event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.heap.is_empty() {
            return None;
        }
        Some(self.take_min())
    }

    /// Remove and return the earliest pending event **iff** its time is
    /// at or before `horizon`. Returns `None` both when the queue is
    /// drained and when the earliest event is past the horizon
    /// (distinguish via [`EventQueue::is_empty`]): one look at the root
    /// where a run loop bounded by a horizon would otherwise peek, then pop.
    pub fn pop_at_or_before(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        if self.heap.first().is_none_or(|e| e.time() > horizon) {
            return None;
        }
        Some(self.take_min())
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Pop the root of a non-empty heap: the last entry fills the root
    /// and sifts down to its place.
    fn take_min(&mut self) -> (SimTime, E) {
        let last = self.heap.pop().expect("take_min on a non-empty heap");
        let min = match self.heap.first_mut() {
            None => last,
            Some(root) => {
                let min = std::mem::replace(root, last);
                self.sift_down(0);
                min
            }
        };
        (min.time(), min.payload)
    }

    /// Move the entry at `at` up past every parent with a larger key.
    fn sift_up(&mut self, mut at: usize) {
        let key = self.heap[at].key;
        while at > 0 {
            let parent = (at - 1) / ARITY;
            if self.heap[parent].key < key {
                break;
            }
            self.heap.swap(at, parent);
            at = parent;
        }
    }

    /// Move the entry at `at` down past every smallest child with a
    /// smaller key.
    fn sift_down(&mut self, mut at: usize) {
        let key = self.heap[at].key;
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
            if key < self.heap[min].key {
                break;
            }
            self.heap.swap(at, min);
            at = min;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    /// Every parent orders before its children.
    fn assert_heap<E>(q: &EventQueue<E>) {
        for (at, e) in q.heap.iter().enumerate().skip(1) {
            assert!(
                q.heap[(at - 1) / ARITY].key < e.key,
                "entry {at} above its parent"
            );
        }
    }

    #[test]
    fn an_entry_of_a_two_word_payload_is_32_bytes() {
        assert_eq!(std::mem::size_of::<Entry<(u64, u64)>>(), 32);
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
    fn colliding_waves_pop_in_time_then_push_order() {
        use std::collections::BTreeSet;
        let mut q = EventQueue::new();
        // (time, wave, i) sorts as (time, insertion order) does.
        let mut pending = BTreeSet::new();
        // Waves of pushes whose timestamps collide within and across
        // waves, each wave then popping most of what is pending.
        for wave in 0u64..50 {
            for i in 0u64..200 {
                let time = t(wave * 10 + i % 7);
                q.push(time, (wave, i));
                pending.insert((time, wave, i));
            }
            assert_heap(&q);
            for _ in 0..180 {
                let (time, wave, i) = pending.pop_first().unwrap();
                assert_eq!(q.pop(), Some((time, (wave, i))));
            }
        }
        while let Some((time, wave, i)) = pending.pop_first() {
            assert_eq!(q.pop(), Some((time, (wave, i))));
        }
        assert_eq!(q.pop(), None);
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
        assert_heap(&q);
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
