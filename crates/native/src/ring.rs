//! Bounded lock-free ring run-queue.
//!
//! Each worker owns one of these as its run queue, which the dispatcher
//! fills and only that worker pops: steals are claims the dispatcher
//! resolves before a job reaches any ring. The queue is still MPMC, for
//! two reasons. The serving frame pool is one too, and every worker
//! pushes its spent buffers back into it. And the dispatcher pops a
//! job ring itself, once its worker has exited (orphan recovery) or
//! while it unwinds, when a live worker may be popping the same ring.
//! So the queue implements the bounded MPMC array-queue algorithm
//! (per-cell sequence numbers, in the style of Vyukov's bounded queue):
//! each cell carries an atomic sequence stamp that encodes, relative to
//! the head/tail counters, whether the cell is empty-for-lap-N or
//! full-for-lap-N. Producers and consumers claim a position with a CAS
//! on their counter and then publish the cell with a release store of
//! the next stamp.
//!
//! Properties the interleaving tests (`tests/interleave.rs`) check:
//!
//! * no packet is lost: everything pushed is popped exactly once;
//! * no packet is double-delivered, even with concurrent consumers;
//! * `push` fails (returning the value) only when the queue is full,
//!   `pop` returns `None` only when it is (transiently) empty.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};

struct Cell<T> {
    /// Lap stamp: `index` when empty and writable by the producer that
    /// claims position `index`; `index + 1` when filled and readable by
    /// the consumer that claims position `index`; `index + capacity`
    /// once consumed (empty for the next lap).
    seq: AtomicUsize,
    value: UnsafeCell<MaybeUninit<T>>,
}

/// Bounded multi-producer/multi-consumer ring queue.
pub struct RingQueue<T> {
    mask: usize,
    cells: Box<[Cell<T>]>,
    enqueue_pos: AtomicUsize,
    dequeue_pos: AtomicUsize,
}

// SAFETY: cells are only touched by the thread that won the CAS on the
// corresponding position counter, and the seq stamps order the handoff
// (release on publish, acquire on claim) — so sending T between threads
// is the only requirement.
unsafe impl<T: Send> Send for RingQueue<T> {}
unsafe impl<T: Send> Sync for RingQueue<T> {}

impl<T> RingQueue<T> {
    /// A queue holding at least `capacity` items (rounded up to a power
    /// of two, minimum 2).
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.max(2).next_power_of_two();
        let cells: Box<[Cell<T>]> = (0..cap)
            .map(|i| Cell {
                seq: AtomicUsize::new(i),
                value: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect();
        RingQueue {
            mask: cap - 1,
            cells,
            enqueue_pos: AtomicUsize::new(0),
            dequeue_pos: AtomicUsize::new(0),
        }
    }

    /// The rounded-up capacity.
    pub fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Enqueue `value`; on a full queue the value is handed back so the
    /// caller can retry (the dispatcher blocks — the runtime is
    /// lossless by construction).
    pub fn push(&self, value: T) -> Result<(), T> {
        let mut pos = self.enqueue_pos.load(Ordering::Relaxed);
        loop {
            let cell = &self.cells[pos & self.mask];
            let seq = cell.seq.load(Ordering::Acquire);
            let dif = seq as isize - pos as isize;
            if dif == 0 {
                match self.enqueue_pos.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: winning the CAS makes this thread the
                        // unique owner of the cell for this lap.
                        unsafe { (*cell.value.get()).write(value) };
                        cell.seq.store(pos.wrapping_add(1), Ordering::Release);
                        return Ok(());
                    }
                    Err(actual) => pos = actual,
                }
            } else if dif < 0 {
                // The cell still holds last lap's value: full.
                return Err(value);
            } else {
                pos = self.enqueue_pos.load(Ordering::Relaxed);
            }
        }
    }

    /// Dequeue the oldest item, or `None` when the queue is empty (or a
    /// producer has claimed a slot but not yet published it).
    pub fn pop(&self) -> Option<T> {
        let mut pos = self.dequeue_pos.load(Ordering::Relaxed);
        loop {
            let cell = &self.cells[pos & self.mask];
            let seq = cell.seq.load(Ordering::Acquire);
            let dif = seq as isize - pos.wrapping_add(1) as isize;
            if dif == 0 {
                match self.dequeue_pos.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: winning the CAS makes this thread the
                        // unique reader of the published value.
                        let value = unsafe { (*cell.value.get()).assume_init_read() };
                        cell.seq
                            .store(pos.wrapping_add(self.mask + 1), Ordering::Release);
                        return Some(value);
                    }
                    Err(actual) => pos = actual,
                }
            } else if dif < 0 {
                return None;
            } else {
                pos = self.dequeue_pos.load(Ordering::Relaxed);
            }
        }
    }

    /// Dequeue up to `max` items in **one** synchronized claim,
    /// appending them to `out` in FIFO order and returning how many were
    /// taken.
    ///
    /// The batch is claimed with a single CAS on the dequeue counter, so
    /// a train of `k` packets costs one synchronization instead of `k` —
    /// the amortization the sustained-ingest serving path rides on.
    /// Items come out in exactly the order `k` single [`pop`](Self::pop)
    /// calls would have produced; the batch boundary never reorders or
    /// splits the FIFO stream, which is what keeps batched runs
    /// bit-identical to per-packet runs on per-worker queues.
    ///
    /// Only items already *published* at claim time are taken: the scan
    /// stops at the first cell a producer has claimed but not yet
    /// released, so the claim can never wait on a slow producer.
    pub fn pop_batch(&self, out: &mut Vec<T>, max: usize) -> usize {
        if max == 0 {
            return 0;
        }
        loop {
            let pos = self.dequeue_pos.load(Ordering::Relaxed);
            // Scan forward over published cells: cell `pos + i` is ready
            // exactly when its lap stamp is `pos + i + 1`.
            let mut k = 0usize;
            while k < max {
                let cell = &self.cells[pos.wrapping_add(k) & self.mask];
                let seq = cell.seq.load(Ordering::Acquire);
                if seq != pos.wrapping_add(k).wrapping_add(1) {
                    break;
                }
                k += 1;
            }
            if k == 0 {
                // Either empty, or our view of the counter is stale and
                // the head cell was consumed under us: distinguish by
                // re-reading the counter.
                if self.dequeue_pos.load(Ordering::Relaxed) == pos {
                    return 0;
                }
                continue;
            }
            // Claim all `k` cells at once. A concurrent consumer moved
            // the counter ⇒ retry from its new value.
            if self
                .dequeue_pos
                .compare_exchange_weak(
                    pos,
                    pos.wrapping_add(k),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                )
                .is_err()
            {
                continue;
            }
            // SAFETY: winning the CAS makes this thread the unique
            // reader of cells pos..pos+k for this lap; each cell was
            // observed published (seq == pos+i+1) with Acquire above.
            for i in 0..k {
                let cell = &self.cells[pos.wrapping_add(i) & self.mask];
                let value = unsafe { (*cell.value.get()).assume_init_read() };
                cell.seq.store(
                    pos.wrapping_add(i).wrapping_add(self.mask + 1),
                    Ordering::Release,
                );
                out.push(value);
            }
            return k;
        }
    }

    /// Approximate occupancy (exact when quiescent; a racy snapshot
    /// under concurrency). It backs [`is_empty`](Self::is_empty), a
    /// worker's exit check; no schedule or trace value reads it.
    pub fn len(&self) -> usize {
        let tail = self.enqueue_pos.load(Ordering::Relaxed);
        let head = self.dequeue_pos.load(Ordering::Relaxed);
        tail.wrapping_sub(head).min(self.capacity())
    }

    /// Whether the queue looks empty (same caveats as [`len`](Self::len)).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Drop for RingQueue<T> {
    fn drop(&mut self) {
        while self.pop().is_some() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(RingQueue::<u8>::with_capacity(0).capacity(), 2);
        assert_eq!(RingQueue::<u8>::with_capacity(3).capacity(), 4);
        assert_eq!(RingQueue::<u8>::with_capacity(1024).capacity(), 1024);
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
        // Mixed consumers: one batch popper (the owner), two single
        // poppers (thieves). Every pushed id must come out exactly once.
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
        // Stress: 1 producer, 3 consumers (owner + 2 thieves), assert
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
