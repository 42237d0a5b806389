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
//! armed counts are *equal*, those packets allocated nothing: each
//! worker rewrote the header bytes and the FCS of its one frame, whose
//! payload it wrote when it started, and every table
//! (router MRU, front-end steering, resident LRUs, the feedback heap,
//! the staged claims) stayed within its pre-sized footprint.
//!
//! The policy is an input: the owner-routed rung (one and two workers),
//! IPS with stealing (claims staged until the model resolves them, at
//! 64 B and at 4 KiB payloads) and Locking (claims resolved through the
//! shared pool), all offered past capacity, so drops and claim
//! arbitration are part of the measured steady state. The single-worker
//! case is fully deterministic (no lock contention, so no lazily created
//! parking structures); the multi-worker cases exercise the lock path as
//! well, whose parking allocations are forced during warm-up by
//! sustained contention.
//!
//! The simulator rows pin the other half of a long run's memory: a
//! simulated run's heap is a function of its live state, not of its
//! horizon. The allocator also keeps a per-thread heap gauge (bytes live
//! since the gauge opened, and their peak); one configuration is run at
//! several horizons on the test's own thread, and the peak must not
//! grow with the horizon. Streaming batch means, and an event queue that
//! holds exactly its pending events, are what make it so.
//!
//! The same gauge pins a recorded native run's trace merge: folding the
//! per-thread slices into one trace holds the trace once. It also pins
//! what a serving run's dispatcher allocates up front: the rings hold
//! the pipeline, so they do not grow with the admission bound, and hold
//! descriptors, so they do not grow with the payload either (a worker
//! builds each frame it processes).
//!
//! The counter also pins a replay's input: building a replay workload
//! allocates each frame once, at its final size.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use affinity_sched::core::crossval::stream_matrix;
use affinity_sched::core::prelude::*;
use affinity_sched::native::{
    poisson_workload, run_serve, zipf_workload, FrontEndKind, Pinning, PolicySpec, ServeConfig,
};
use affinity_sched::obs::{MemRecorder, ObsEvent, Recorder};
use affinity_sched::xkernel::driver::PacketFactory;
use affinity_sched::xkernel::StreamId;

struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// The counter is process-global and the test runner is parallel: one
/// measured run at a time, or one test's warm-up allocations land in
/// the other's armed window.
static SERIAL: Mutex<()> = Mutex::new(());

thread_local! {
    /// This thread's heap gauge while one is open: bytes allocated minus
    /// bytes freed since it opened, and the largest that difference was.
    static HEAP: Cell<Option<(isize, isize)>> = const { Cell::new(None) };
}

/// Book `delta` bytes on this thread's gauge, if one is open.
fn book(delta: isize) {
    // `try_with`: the gauge is gone while the thread is torn down.
    let _ = HEAP.try_with(|h| {
        if let Some((live, peak)) = h.get() {
            let live = live + delta;
            h.set(Some((live, peak.max(live))));
        }
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwarded as received; our caller keeps `GlobalAlloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            book(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwarded as received; our caller keeps `GlobalAlloc`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            book(layout.size() as isize);
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from this allocator, which is `System`'s; the
        // rest is forwarded as received.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            book(new_size as isize - layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`'s.
        unsafe { System.dealloc(ptr, layout) };
        book(-(layout.size() as isize));
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
fn armed_allocs(workers: usize, policy: PolicySpec, payload_bytes: usize, total: u64) -> u64 {
    let mut cfg = ServeConfig::new(workers, 20_000, FrontEndKind::FlowDirector, policy);
    cfg.native.pinning = Pinning::Off;
    cfg.payload_bytes = payload_bytes;
    cfg.native.queue_capacity = 64;
    // Past two workers' sustained rate: drops and ring backpressure are
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

/// The armed counts of the short and the long horizon, at 64 B payloads.
fn short_and_long(workers: usize, policy: PolicySpec) {
    short_and_long_at(workers, policy, 64);
}

/// [`short_and_long`] at `payload_bytes` payloads.
fn short_and_long_at(workers: usize, policy: PolicySpec, payload_bytes: usize) {
    let short = armed_allocs(workers, policy, payload_bytes, SHORT);
    let long = armed_allocs(workers, policy, payload_bytes, LONG);
    assert_eq!(
        short,
        long,
        "{} extra steady-state packets must not allocate under {policy:?} on {workers} \
         worker(s) at {payload_bytes} B payloads (armed counts: {short} vs {long})",
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
fn steady_state_serving_allocates_nothing_with_staged_steal_claims_at_4_kib() {
    short_and_long_at(2, PolicySpec::Ips, 4_096);
}

#[test]
fn steady_state_serving_allocates_nothing_with_pooled_claims() {
    short_and_long(2, PolicySpec::Locking);
}

/// Peak bytes `f` holds live at once on this thread, over what was live
/// when it started. A simulator run is single-threaded, so this is the
/// run's whole heap.
fn peak_heap<R>(f: impl FnOnce() -> R) -> (usize, R) {
    HEAP.with(|h| h.set(Some((0, 0))));
    let out = f();
    let (_, peak) = HEAP.with(|h| h.replace(None)).expect("gauge open");
    (peak as usize, out)
}

/// Peak heap of a short serving run on the calling thread, which is the
/// dispatcher: it allocates the rings and the routing tables; the
/// workers' frame buffers are on their own threads. `payload_bytes`
/// payloads at `batch` 64, one worker, admission bound `queue_capacity`.
fn serving_peak_heap(queue_capacity: usize, payload_bytes: usize) -> usize {
    let mut cfg = ServeConfig::new(1, 20_000, FrontEndKind::FlowDirector, PolicySpec::MinReload);
    cfg.native.pinning = Pinning::Off;
    cfg.native.batch = 64;
    cfg.native.queue_capacity = queue_capacity;
    cfg.payload_bytes = payload_bytes;
    cfg.total_packets = 2_000;
    cfg.warmup_packets = 400;
    cfg.snapshot_every = None;
    let (peak, report) = peak_heap(|| run_serve(&cfg, None));
    assert!(report.ledger_balanced(), "serving ledger must balance");
    assert_eq!(report.offered, cfg.total_packets);
    peak
}

/// The admission bound is a modeled backlog, not a host buffer: raising
/// it 8× may grow the serving run's peak heap by the structures that
/// follow the modeled backlog (the completion-feedback heap's reserve),
/// never by rings or frame buffers. When the rings, and the frame pool
/// the dispatcher then kept, were sized by the bound, the pool alone
/// grew by 7 168 buffers of 4 160 B, ≈29.8 MB.
#[test]
fn serving_heap_does_not_follow_the_admission_bound() {
    // Off the serving rows' armed windows, which count every thread.
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let at_1k = serving_peak_heap(1_024, 4_096);
    let at_8k = serving_peak_heap(8_192, 4_096);
    assert!(
        at_8k < at_1k + (1 << 20),
        "peak heap grows with queue_capacity: {at_1k} B at 1 024, {at_8k} B at 8 192"
    );
}

/// The dispatcher places descriptors, so its heap does not follow the
/// payload: a 4 KiB run peaks within 64 KiB of the same run at 64 B.
/// While the dispatcher built every frame into a pool of its own, the
/// 384 buffers of 4 160 B put the 4 KiB run ≈1.5 MB higher.
#[test]
fn serving_heap_does_not_follow_the_payload() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let at_64 = serving_peak_heap(1_024, 64);
    let at_4k = serving_peak_heap(1_024, 4_096);
    assert!(
        at_4k < at_64 + (64 << 10),
        "peak heap grows with the payload: {at_64} B at 64 B, {at_4k} B at 4 KiB"
    );
}

/// Slack between horizons' peaks. A run's peak comes as its report is
/// built, on top of what the run holds at its horizon: the queue
/// backlogs then differ between horizons by a few KiB at most. That is
/// the live state at one instant; a store that grows with the horizon
/// moves the peak by megabytes (the Locking/MRU row read 1.2 / 4.3 /
/// 16.9 MB while batch means stored every delay).
const HEAP_SLACK: usize = 4 * 1024;

/// Runs `cfg_at(m)` for each multiplier and asserts one peak heap.
fn peak_heap_is_flat(label: &str, multipliers: &[u64], cfg_at: impl Fn(u64) -> SystemConfig) {
    // Off the serving rows' armed windows, which count every thread.
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let mut peaks = Vec::new();
    let mut delivered = 0;
    for &m in multipliers {
        let cfg = cfg_at(m);
        let (peak, report) = peak_heap(|| run(&cfg));
        assert!(report.stable, "{label} ×{m}: unstable run");
        assert!(
            report.delivered > delivered,
            "{label} ×{m}: the horizon must grow"
        );
        delivered = report.delivered;
        peaks.push((m, peak));
    }
    let lo = peaks.iter().map(|&(_, p)| p).min().unwrap();
    let hi = peaks.iter().map(|&(_, p)| p).max().unwrap();
    assert!(
        hi - lo <= HEAP_SLACK,
        "{label}: peak heap grows with the horizon (multiplier, bytes): {peaks:?}"
    );
}

/// Measured seconds of the shortest simulator horizon: bounded under the
/// debug tier-1 command.
const SIM_SECONDS: f64 = if cfg!(debug_assertions) { 0.25 } else { 10.0 };

/// The paper's base case, Locking/MRU over 16 streams, at 1×, 4× and
/// 16× the horizon: every post-warm-up delay feeds batch means.
#[test]
fn simulated_heap_does_not_grow_with_the_horizon_locking_mru() {
    peak_heap_is_flat("locking/mru", &[1, 4, 16], |m| {
        let mut cfg = SystemConfig::new(
            Paradigm::Locking {
                policy: LockPolicy::Mru,
            },
            Population::homogeneous_poisson(16, 700.0),
        );
        cfg.warmup = SimDuration::from_millis(100);
        cfg.horizon = cfg.warmup + SimDuration::from_secs_f64(SIM_SECONDS * m as f64);
        cfg
    });
}

/// A 10⁴-flow Zipf population behind Flow Director with the min-reload
/// fallback, at 1× and 4× the packets: the per-flow state (steering
/// table, stream cache, order high-water marks) must not grow with the
/// horizon either. Its arrivals are one source, one pending event.
#[test]
fn simulated_heap_does_not_grow_with_the_horizon_fdir_flows() {
    let s = stream_matrix()[1];
    assert_eq!(s.streams, 10_000);
    let packets = if cfg!(debug_assertions) {
        100_000
    } else {
        200_000
    };
    peak_heap_is_flat("fdir+min-reload, 10^4 flows", &[1, 4], |m| {
        let mut s = s;
        s.total_packets = packets * m;
        s.sim_config(FrontEndKind::FlowDirector, PolicySpec::MinReload)
    });
}

/// Merging a recorded run's trace slices grows the longest slice's
/// buffer by the others' length and copies nothing else: sorted slices
/// of n and 4n events merge within n events' bytes above the inputs.
/// A copy into a third vector, re-sorted per slice, needs five or more
/// times n events plus the sort's scratch. Stamping the merged trace's
/// queue depths, as a recorded native run does next, keeps a count per
/// queue and fits in the same bound.
#[test]
fn merging_trace_slices_holds_the_trace_once() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let n = 20_000;
    // Interleaved keys: a slice stamps its event `i` at `i · step`.
    let slice = |len: usize, step: usize| {
        let mut r = MemRecorder::with_event_capacity(len);
        for i in 0..len {
            r.record(ObsEvent::Enqueue {
                t_us: (i * step) as f64,
                seq: i as u64,
                stream: step as u32,
                queue: 0,
                depth: 1,
            });
        }
        r
    };
    let slices = vec![slice(n, 4), slice(4 * n, 1)];
    let mut out = MemRecorder::new();
    let (peak, tally) = peak_heap(|| {
        out.merge(slices);
        out.stamp_queue_depths()
    });
    assert_eq!(out.events.len(), 5 * n);
    assert!(out.events.is_sorted_by_key(ObsEvent::merge_key));
    assert_eq!(tally.end, [5 * n as i64]);
    assert_eq!(out.counters.max_queue_depth, 5 * n as u64);
    let bound = n * std::mem::size_of::<ObsEvent>() + HEAP_SLACK;
    assert!(
        peak <= bound,
        "merge peaked {peak} B above its inputs (bound {bound} B)"
    );
}

/// A replay workload's frames are built once each, at their final
/// length: `N` frames cost `N` allocations plus the workload's own few
/// (the key and packet vectors, one RNG stream name per source). Grown
/// from empty, a 64 B frame took five (8 → 16 → 32 → 64 → 128 bytes).
#[test]
fn building_a_replay_workload_allocates_each_frame_once() {
    let (streams, per_stream) = (16, 500);
    let n = (streams * per_stream) as u64;
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    ALLOCS.store(0, Ordering::SeqCst);
    arm();
    let packets = poisson_workload(streams, per_stream, 2_000.0, 64, 7);
    ARMED.store(false, Ordering::SeqCst);
    let count = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(packets.len() as u64, n);
    assert!(
        count <= n + 64,
        "{n} frames took {count} allocations (bound {})",
        n + 64
    );
    let exact = |what: &str, bytes: &Vec<u8>| {
        assert_eq!(bytes.capacity(), bytes.len(), "{what}: frame capacity");
    };
    for p in &packets {
        exact("poisson_workload", &p.bytes);
    }
    for p in &zipf_workload(64, 2_000, 30_000.0, 1.1, 4.0, None, 64, 11) {
        exact("zipf_workload", &p.bytes);
    }
    let mut factory = PacketFactory::new();
    for payload in [0, 64, 1_400, 4_096] {
        exact("frame_for", &factory.frame_for(StreamId(3), payload));
    }
}
