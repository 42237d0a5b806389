//! A seeded, order-preserving parallel executor for independent
//! simulation runs.
//!
//! Every experiment in this workspace is a *map* over independent
//! configurations: each simulation run is a pure function of its
//! `(SystemConfig, seed)` — the RNG substreams are derived from the
//! config's own seed, no run shares mutable state with another, and no
//! run reads the clock. That purity is what makes fan-out safe: a run
//! computes the same bits on any thread at any time, so the only thing
//! parallelism could perturb is *ordering* — and [`parallel_map`]
//! removes that degree of freedom by writing each result into the slot
//! indexed by its submission position and reassembling in submission
//! order. The output is therefore byte-identical to the serial loop for
//! any worker count, which the committed golden artifacts (and
//! `tests/determinism_matrix.rs`) pin.
//!
//! ## Execution model
//!
//! Workers are `std::thread::scope` threads sharing one atomic work cursor
//! (a degenerate work-stealing deque: since run order is irrelevant,
//! a single shared FIFO cursor gives the same load balance without
//! per-worker deques). Each worker claims the next unclaimed index,
//! computes `f(&items[i])`, stores the result in slot `i`, and repeats
//! until the cursor passes the end. Long runs therefore never convoy
//! behind short ones beyond the last item's tail.
//!
//! ## What is and is not allowed to thread
//!
//! Safe: independent full runs (sweep points, replications, scenario
//! cells, whole capacity searches). Not safe: anything *inside* one run
//! (the event loop is inherently sequential), and any *adaptive* probe
//! sequence where probe `k+1` depends on probe `k`'s result (the
//! bisection inside [`crate::sweep::capacity_search`]) — parallelizing
//! those would change which configurations get evaluated, and with them
//! the artifact bytes.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Environment variable selecting the worker-thread count for
/// [`parallel_map`]. Unset or invalid → all available cores; `1` (or
/// `0`) → the serial fallback path.
pub const JOBS_ENV: &str = "AFS_JOBS";

/// The worker count [`parallel_map`] uses: `AFS_JOBS` if set to a
/// positive integer, else the host's available parallelism. `AFS_JOBS=1`
/// selects the serial fallback (same bytes, one thread).
pub fn jobs_from_env() -> usize {
    match std::env::var(JOBS_ENV) {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => 1.max(default_jobs()),
        },
        Err(_) => default_jobs(),
    }
}

/// Host parallelism fallback (1 if the query fails).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Map `f` over `items` with the [`jobs_from_env`] worker count.
///
/// Results are returned in submission (input) order regardless of
/// completion order, so the output is byte-identical to
/// `items.iter().map(f).collect()` whenever `f` is pure — which every
/// simulation run in this workspace is.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    parallel_map_jobs(jobs_from_env(), items, f)
}

/// [`parallel_map`] with an explicit worker count (`jobs <= 1` runs the
/// serial fallback on the calling thread). Tests use this to compare
/// worker counts without racing on the process environment.
pub fn parallel_map_jobs<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    let workers = jobs.min(n);
    if workers <= 1 {
        // Serial fallback: the reference path the parallel one must
        // reproduce byte-for-byte.
        return items.iter().map(f).collect();
    }

    // One slot per item; workers claim indices from the shared cursor
    // and deposit into their own slot, so submission order survives any
    // completion order. Each slot's mutex is uncontended (exactly one
    // worker ever touches it) — it exists to hand out interior
    // mutability without unsafe code.
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let f = &f;
    // A worker's panic resurfaces from `scope` once every thread joined.
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(&items[i]);
                *slots[i].lock().expect("result slot poisoned") = Some(r);
            });
        }
    });

    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("every index claimed exactly once")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_submission_order() {
        let items: Vec<u64> = (0..257).collect();
        // A deliberately skewed workload: late items finish first.
        let out = parallel_map_jobs(8, &items, |&x| {
            if x % 17 == 0 {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            x * x
        });
        assert_eq!(out, items.iter().map(|&x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree_for_every_job_count() {
        let items: Vec<u64> = (0..100).collect();
        let reference = parallel_map_jobs(1, &items, |&x| x.wrapping_mul(0x9E3779B97F4A7C15));
        for jobs in [2, 3, 8, 64] {
            let out = parallel_map_jobs(jobs, &items, |&x| x.wrapping_mul(0x9E3779B97F4A7C15));
            assert_eq!(out, reference, "jobs = {jobs}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = vec![];
        assert!(parallel_map_jobs(8, &empty, |&x| x).is_empty());
        assert_eq!(parallel_map_jobs(8, &[41u32], |&x| x + 1), vec![42]);
    }

    #[test]
    fn more_workers_than_items_is_fine() {
        let out = parallel_map_jobs(64, &[1u32, 2, 3], |&x| x * 10);
        assert_eq!(out, vec![10, 20, 30]);
    }

    #[test]
    fn jobs_env_parses_positive_integers_only() {
        // Pure parsing contract (no env mutation: tests run threaded).
        assert!(default_jobs() >= 1);
        assert!(jobs_from_env() >= 1);
    }

    #[test]
    fn borrows_from_caller_stack() {
        let base = [100u64, 200, 300];
        let items = [0usize, 1, 2];
        let out = parallel_map_jobs(2, &items, |&i| base[i] + i as u64);
        assert_eq!(out, vec![100, 201, 302]);
    }
}
