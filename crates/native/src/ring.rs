//! Bounded FIFO run-queue.
//!
//! Each worker owns one of these as its run queue, which the dispatcher
//! fills and only that worker pops: steals are claims the dispatcher
//! resolves before a job reaches any ring, and a crashed worker drains
//! its own ring into its orphans. In the pipeline every ring therefore
//! has one producer and one consumer. The type itself makes no such
//! assumption, so any thread may push or pop.
//!
//! It is std's: a `VecDeque` behind a `Mutex`, allocated once at its
//! rounded-up capacity and never grown. Every operation, a batch pop
//! included, is one lock acquisition, and no schedule or trace value
//! reads the queue's state. The real-thread stress tests in the
//! workspace's `tests/ring_queue.rs` check that nothing pushed is lost
//! or popped twice, and that with one producer each consumer sees the
//! pushed order.

use std::collections::VecDeque;
use std::sync::Mutex;

use crate::worker::lock;

/// Bounded FIFO queue, safe for any number of producers and consumers;
/// the pipeline gives each ring one of each.
pub struct RingQueue<T> {
    capacity: usize,
    items: Mutex<VecDeque<T>>,
}

impl<T> RingQueue<T> {
    /// A queue holding at least `capacity` items (rounded up to a power
    /// of two, minimum 2).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(2).next_power_of_two();
        RingQueue {
            capacity,
            items: Mutex::new(VecDeque::with_capacity(capacity)),
        }
    }

    /// Enqueue `value`; on a full queue the value is handed back so the
    /// caller can retry (the dispatcher blocks — the runtime is
    /// lossless by construction).
    pub fn push(&self, value: T) -> Result<(), T> {
        let mut items = lock(&self.items);
        if items.len() == self.capacity {
            return Err(value);
        }
        items.push_back(value);
        Ok(())
    }

    /// Dequeue the oldest item, or `None` when the queue is empty.
    pub fn pop(&self) -> Option<T> {
        lock(&self.items).pop_front()
    }

    /// Dequeue up to `max` items under **one** lock acquisition,
    /// appending them to `out` in FIFO order and returning how many were
    /// taken.
    ///
    /// Items come out in exactly the order `k` single [`pop`](Self::pop)
    /// calls would have produced; the batch boundary never reorders or
    /// splits the FIFO stream, which is what keeps batched runs
    /// bit-identical to per-packet runs on per-worker queues.
    pub fn pop_batch(&self, out: &mut Vec<T>, max: usize) -> usize {
        let mut items = lock(&self.items);
        let k = max.min(items.len());
        out.extend(items.drain(..k));
        k
    }

    /// Occupancy at the instant of the call. It backs
    /// [`is_empty`](Self::is_empty), a worker's exit check; no schedule
    /// or trace value reads it.
    pub fn len(&self) -> usize {
        lock(&self.items).len()
    }

    /// Whether the queue is empty (see [`len`](Self::len)).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    #[test]
    fn fifo_within_capacity() {
        let q = RingQueue::with_capacity(8);
        for i in 0..8 {
            q.push(i).unwrap();
        }
        assert_eq!(q.len(), 8);
        for i in 0..8 {
            assert_eq!(q.pop(), Some(i));
        }
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn push_full_hands_value_back() {
        let q = RingQueue::with_capacity(2);
        q.push(1).unwrap();
        q.push(2).unwrap();
        assert_eq!(q.push(3), Err(3));
        assert_eq!(q.pop(), Some(1));
        q.push(3).unwrap();
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
    }

    #[test]
    fn capacity_rounds_up() {
        for (asked, held) in [(0, 2), (3, 4), (1024, 1024)] {
            let q = RingQueue::<u8>::with_capacity(asked);
            let pushed = (0..=held).take_while(|_| q.push(0).is_ok()).count();
            assert_eq!(pushed, held, "with_capacity({asked})");
        }
    }

    #[test]
    fn wraparound_many_laps() {
        let q = RingQueue::with_capacity(4);
        for lap in 0u64..100 {
            for i in 0..4 {
                q.push(lap * 4 + i).unwrap();
            }
            for i in 0..4 {
                assert_eq!(q.pop(), Some(lap * 4 + i));
            }
        }
    }

    #[test]
    fn drop_releases_queued_values() {
        let v = std::sync::Arc::new(());
        {
            let q = RingQueue::with_capacity(4);
            q.push(std::sync::Arc::clone(&v)).unwrap();
            q.push(std::sync::Arc::clone(&v)).unwrap();
        }
        assert_eq!(std::sync::Arc::strong_count(&v), 1);
    }

    #[test]
    fn pop_batch_matches_singles_in_order() {
        let q = RingQueue::with_capacity(16);
        for i in 0..10 {
            q.push(i).unwrap();
        }
        let mut out = Vec::new();
        // Bounded batch takes exactly `max` when enough is published.
        assert_eq!(q.pop_batch(&mut out, 4), 4);
        assert_eq!(out, vec![0, 1, 2, 3]);
        // A short queue yields a short train, never blocks.
        assert_eq!(q.pop_batch(&mut out, 64), 6);
        assert_eq!(out, (0..10).collect::<Vec<_>>());
        assert_eq!(q.pop_batch(&mut out, 8), 0);
        assert_eq!(q.pop_batch(&mut out, 0), 0);
        assert!(q.is_empty());
    }

    #[test]
    fn pop_batch_wraps_laps() {
        let q = RingQueue::with_capacity(4);
        let mut expect = Vec::new();
        let mut got = Vec::new();
        let mut n = 0u64;
        for _ in 0..50 {
            for _ in 0..3 {
                q.push(n).unwrap();
                expect.push(n);
                n += 1;
            }
            assert_eq!(q.pop_batch(&mut got, 3), 3);
        }
        assert_eq!(got, expect);
    }

    #[test]
    fn concurrent_batch_and_single_consumers_conserve_items() {
        // Mixed consumers: one batch popper and two single poppers.
        // Every pushed id must come out exactly once.
        use std::sync::atomic::AtomicBool;
        use std::sync::Mutex;
        const N: u64 = 20_000;
        let q = RingQueue::with_capacity(64);
        let done = AtomicBool::new(false);
        let seen = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut local = Vec::new();
                loop {
                    if q.pop_batch(&mut local, 8) == 0 {
                        if done.load(Ordering::Acquire) && q.is_empty() {
                            break;
                        }
                        std::thread::yield_now();
                    }
                }
                seen.lock().unwrap().extend(local);
            });
            for _ in 0..2 {
                s.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        match q.pop() {
                            Some(v) => local.push(v),
                            None => {
                                if done.load(Ordering::Acquire) && q.is_empty() {
                                    break;
                                }
                                std::thread::yield_now();
                            }
                        }
                    }
                    seen.lock().unwrap().extend(local);
                });
            }
            for i in 0..N {
                let mut item = i;
                while let Err(back) = q.push(item) {
                    item = back;
                    std::thread::yield_now();
                }
            }
            done.store(true, Ordering::Release);
        });
        let mut all = seen.into_inner().unwrap();
        all.sort_unstable();
        assert_eq!(all, (0..N).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_producer_consumers_conserve_items() {
        // Stress: 1 producer, 3 consumers that pop one item at a time, assert
        // the multiset of received ids equals the sent set.
        use std::sync::atomic::AtomicBool;
        use std::sync::Mutex;
        const N: u64 = 20_000;
        let q = RingQueue::with_capacity(64);
        let done = AtomicBool::new(false);
        let seen = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        match q.pop() {
                            Some(v) => local.push(v),
                            None => {
                                if done.load(Ordering::Acquire) && q.is_empty() {
                                    break;
                                }
                                std::thread::yield_now();
                            }
                        }
                    }
                    seen.lock().unwrap().extend(local);
                });
            }
            for i in 0..N {
                let mut item = i;
                while let Err(back) = q.push(item) {
                    item = back;
                    std::thread::yield_now();
                }
            }
            done.store(true, Ordering::Release);
        });
        let mut all = seen.into_inner().unwrap();
        all.sort_unstable();
        assert_eq!(all, (0..N).collect::<Vec<_>>());
    }
}
