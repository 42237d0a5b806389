//! Real-thread stress tests for the native run queue
//! (`afs_native::RingQueue`, a bounded `Mutex<VecDeque>`).
//!
//! Steals are claims the dispatcher resolves before a job reaches any
//! ring, so no owner and thief ever race to pop one ring. What still
//! needs several consumers is recovery: the dispatcher pops a dead
//! worker's ring while live workers pop their own, and every worker
//! pushes spent frames back into the one serving pool. These runs check,
//! under genuine hardware concurrency and the runtime's done-flag
//! termination protocol, that nothing pushed is lost or delivered twice
//! while producers retry on a full queue, and that with one producer
//! each consumer sees the pushed order.

use afs_native::RingQueue;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

#[test]
fn stress_steal_handoff_conserves_and_orders() {
    const N: u64 = 50_000;
    let q = RingQueue::with_capacity(32);
    let done = AtomicBool::new(false);
    let logs: Mutex<Vec<Vec<u64>>> = Mutex::new(Vec::new());
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
                logs.lock().unwrap().push(local);
            });
        }
        for i in 0..N {
            let mut v = i;
            while let Err(back) = q.push(v) {
                v = back;
                std::thread::yield_now();
            }
        }
        done.store(true, Ordering::Release);
    });
    let logs = logs.into_inner().unwrap();
    // Each consumer's view is monotonically increasing: pop claims
    // strictly increasing positions, and the single producer pushed in
    // increasing order.
    for log in &logs {
        assert!(
            log.windows(2).all(|w| w[0] < w[1]),
            "per-consumer order broken"
        );
    }
    let mut all: Vec<u64> = logs.concat();
    all.sort_unstable();
    assert_eq!(all, (0..N).collect::<Vec<_>>(), "loss or double delivery");
}

#[test]
fn stress_mpmc_two_producers() {
    const PER: u64 = 30_000;
    let q = RingQueue::with_capacity(16);
    let done = AtomicBool::new(false);
    let logs: Mutex<Vec<Vec<u64>>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
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
                logs.lock().unwrap().push(local);
            });
        }
        let producers: Vec<_> = (0..2u64)
            .map(|p| {
                let q = &q;
                s.spawn(move || {
                    for i in 0..PER {
                        let mut v = p * PER + i;
                        while let Err(back) = q.push(v) {
                            v = back;
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        for h in producers {
            h.join().unwrap();
        }
        done.store(true, Ordering::Release);
    });
    let mut all: Vec<u64> = logs.into_inner().unwrap().concat();
    all.sort_unstable();
    assert_eq!(all, (0..2 * PER).collect::<Vec<_>>());
}
