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
//! armed counts are *equal*, those packets allocated nothing: the frame
//! buffers recycled through the pool, the generator refilled them in
//! place, and every table (router MRU, front-end steering, resident
//! LRUs, the feedback heap) stayed within its pre-sized footprint.
//!
//! The single-worker case is fully deterministic (no lock contention,
//! so no lazily created parking structures) and must match exactly.
//! The multi-worker case exercises the shared-stack lock path as well;
//! its parking allocations are forced during warm-up by the sustained
//! contention on the one shared engine.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use afs_native::{run_serve, FrontEndKind, Pinning, PolicySpec, ServeConfig};

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

/// Armed allocation count for one serving run of `total` packets.
fn armed_allocs(workers: usize, total: u64) -> u64 {
    let mut cfg = ServeConfig::new(
        workers,
        64,
        FrontEndKind::FlowDirector,
        PolicySpec::MinReload,
    );
    cfg.native.pinning = Pinning::Off;
    cfg.native.queue_capacity = 64;
    // Past two workers' sustained rate: drops and pool backpressure are
    // part of the steady state being measured.
    cfg.offered_pps = 20_000.0;
    cfg.total_packets = total;
    cfg.warmup_packets = 6_000;
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
    count
}

#[test]
fn steady_state_serving_allocates_nothing_single_worker() {
    let short = armed_allocs(1, 14_000);
    let long = armed_allocs(1, 22_000);
    assert_eq!(
        short, long,
        "8000 extra steady-state packets must not allocate (armed counts: \
         {short} vs {long})"
    );
}

#[test]
fn steady_state_serving_allocates_nothing_multi_worker() {
    let short = armed_allocs(2, 14_000);
    let long = armed_allocs(2, 22_000);
    assert_eq!(
        short, long,
        "8000 extra steady-state packets must not allocate (armed counts: \
         {short} vs {long})"
    );
}
