//! The serving path's allocation-free steady-state contract, pinned by
//! a counting global allocator.
//!
//! Strategy: run the same serving configuration twice, identical except
//! for how many packets arrive *after* warm-up, with the allocator's
//! counter armed at the warm-up boundary (`ServeConfig::on_steady`
//! fires on the dispatcher thread the instant the warm-up packet count
//! is reached). Everything either run allocates while armed — teardown,
//! report assembly, the RSS gauge — is common to both; the only thing
//! that differs is thousands of extra steady-state packets. If the
//! armed counts are *equal*, those packets allocated nothing: stage 6
//! built their frames into recycled pool buffers, and every table
//! (router MRU, front-end steering, resident LRUs, the feedback heap,
//! the staged claims) stayed within its pre-sized footprint.
//!
//! The policy is an input: the owner-routed rung (one and two workers),
//! IPS with stealing (claims staged until the model resolves them) and
//! Locking (claims resolved through the shared pool), all offered past
//! capacity, so drops and claim arbitration are part of the measured
//! steady state. The single-worker case is fully deterministic (no lock
//! contention, so no lazily created parking structures); the
//! multi-worker cases exercise the lock path as well, whose parking
//! allocations are forced during warm-up by sustained contention.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use affinity_sched::native::{run_serve, FrontEndKind, Pinning, PolicySpec, ServeConfig};

struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// The counter is process-global and the test runner is parallel: one
/// measured run at a time, or one test's warm-up allocations land in
/// the other's armed window.
static SERIAL: Mutex<()> = Mutex::new(());

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn arm() {
    ARMED.store(true, Ordering::SeqCst);
}

/// Warm-up packets, then the two horizons compared: the full counts in
/// release, a bounded tier under the debug tier-1 command.
const COUNTS: [u64; 3] = if cfg!(debug_assertions) {
    [2_000, 4_000, 7_000]
} else {
    [6_000, 14_000, 22_000]
};
const WARMUP: u64 = COUNTS[0];
const SHORT: u64 = COUNTS[1];
const LONG: u64 = COUNTS[2];

/// Armed allocation count for one serving run of `total` packets. The
/// population is far past the Flow-Director table, so steering misses —
/// and under Locking the pooled claims they resolve through — go on
/// throughout the measured window.
fn armed_allocs(workers: usize, policy: PolicySpec, total: u64) -> u64 {
    let mut cfg = ServeConfig::new(workers, 20_000, FrontEndKind::FlowDirector, policy);
    cfg.native.pinning = Pinning::Off;
    cfg.native.queue_capacity = 64;
    // Past two workers' sustained rate: drops and pool backpressure are
    // part of the steady state being measured.
    cfg.offered_pps = 20_000.0;
    cfg.total_packets = total;
    cfg.warmup_packets = WARMUP;
    cfg.snapshot_every = None;
    cfg.on_steady = Some(arm);
    // A failed sibling test poisons the lock; the `()` it guards cannot
    // be left invalid.
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    ARMED.store(false, Ordering::SeqCst);
    ALLOCS.store(0, Ordering::SeqCst);
    let report = run_serve(&cfg, None);
    let count = ALLOCS.load(Ordering::SeqCst);
    ARMED.store(false, Ordering::SeqCst);
    assert!(report.ledger_balanced(), "serving ledger must balance");
    assert_eq!(report.offered, total);
    assert!(report.dropped > 0, "{policy:?}: the load must overload");
    count
}

/// The armed counts of the short and the long horizon.
fn short_and_long(workers: usize, policy: PolicySpec) {
    let short = armed_allocs(workers, policy, SHORT);
    let long = armed_allocs(workers, policy, LONG);
    assert_eq!(
        short,
        long,
        "{} extra steady-state packets must not allocate under {policy:?} on {workers} \
         worker(s) (armed counts: {short} vs {long})",
        LONG - SHORT
    );
}

#[test]
fn steady_state_serving_allocates_nothing_single_worker() {
    short_and_long(1, PolicySpec::MinReload);
}

#[test]
fn steady_state_serving_allocates_nothing_multi_worker() {
    short_and_long(2, PolicySpec::MinReload);
}

#[test]
fn steady_state_serving_allocates_nothing_with_staged_steal_claims() {
    short_and_long(2, PolicySpec::Ips);
}

#[test]
fn steady_state_serving_allocates_nothing_with_pooled_claims() {
    short_and_long(2, PolicySpec::Locking);
}
