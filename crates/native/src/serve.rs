//! The sustained-ingest serving path.
//!
//! [`run_serve`] runs the native pipeline (DESIGN.md §9) as a
//! long-running serving engine. It differs from replay
//! ([`crate::runtime::run_native`]) in exactly three things it hands the
//! shared dispatcher:
//!
//! * **The arrival source** is an open-loop Zipf × compound-Poisson
//!   generator ([`crate::runtime::ZipfPacketGen`]) instead of a
//!   materialized `Vec`, so run length does not bound memory. Frame
//!   buffers live in a fixed-size object pool ([`RingQueue<Vec<u8>>`]):
//!   the source pops a spent buffer and refills it in place
//!   ([`ZipfPacketGen::next_into`]), the processing worker returns it
//!   after the engine's borrow ends. Every per-flow table is pre-sized,
//!   so after warm-up the per-packet path never calls the allocator —
//!   pinned by the counting-allocator test in `tests/alloc_free.rs`.
//! * **The admission bound** is [`NativeConfig::queue_capacity`] instead
//!   of none: a packet whose steered worker already holds that many
//!   modeled-backlog packets on the router's drain clock is tail-dropped
//!   at the NIC. The decision is keyed on the deterministic virtual-load
//!   model rather than a racy host-side ring occupancy, so the drop
//!   ledger (`offered = admitted + dropped`) is a pure function of the
//!   seed. Admitted packets are never lost: the physical ring push
//!   blocks (backpressure) until the worker drains.
//! * **No recorder**; instead, at a configurable packet interval the
//!   dispatcher publishes an [`afs_obs::ServeSnapshot`] JSONL line (wall
//!   time and RSS are explicitly host gauges; every committed artifact
//!   uses only the virtual-domain fields of the final [`ServeReport`]).
//!
//! All five policy rungs serve; the work-conserving ones ride the claim
//! protocol (DESIGN.md §3, `afs-sched::claim`) exactly as they do under replay.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use afs_core::exec::ExecParams;
use afs_obs::ServeSnapshot;
use afs_sched::{FrontEndKind, FrontEndPlan, PolicySpec};

use crate::crossval::NATIVE_SESSION_SPACE;
use crate::dispatch::{dispatch, Arrival, Ledger, Pipeline, Tick};
use crate::pin::CorePinner;
use crate::ring::RingQueue;
use crate::runtime::{NativeConfig, OutcomeTotals, WorkerStats, ZipfPacketGen};

/// Default Flow-Director steering-table capacity for serving runs
/// (matches the stream-scenario experiments' order of magnitude).
pub const DEFAULT_TABLE_CAPACITY: usize = 4096;

/// Default aggregate resident stream-cache slots for serving runs.
pub const DEFAULT_STREAM_CACHE: usize = 8192;

/// Configuration of one serving run.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The backend configuration. Must carry a NIC front-end plan
    /// (serving is NIC-steered by construction) and an empty fault
    /// plan; [`NativeConfig::batch`] and
    /// [`NativeConfig::queue_capacity`] are honoured.
    pub native: NativeConfig,
    /// Flow population size.
    pub streams: u32,
    /// Zipf popularity exponent.
    pub alpha: f64,
    /// Mean geometric burst length (1 = pure Poisson).
    pub batch_mean: f64,
    /// Offered aggregate arrival rate, packets per virtual second.
    pub offered_pps: f64,
    /// UDP payload bytes per packet.
    pub payload_bytes: usize,
    /// Open-loop horizon: how many packets to offer.
    pub total_packets: u64,
    /// Offered packets before the statistics window opens (replaces the
    /// replay path's horizon-fraction warm-up, which needs the horizon
    /// up front).
    pub warmup_packets: u64,
    /// Publish a snapshot every this many offered packets (`None` = no
    /// snapshots).
    pub snapshot_every: Option<u64>,
    /// Test hook: called once, on the dispatcher thread, the moment the
    /// warm-up budget is exhausted (the counting-allocator test arms
    /// its steady-state window here).
    pub on_steady: Option<fn()>,
}

impl ServeConfig {
    /// A serving config for `workers` cores steered by `kind` with
    /// `policy`'s router as the miss-path fallback, mirroring the
    /// stream-scenario construction (bounded steering table, bounded
    /// resident set, session fold). Rate and horizon defaults are
    /// CI-scale; override for real runs.
    pub fn new(workers: usize, streams: u32, kind: FrontEndKind, policy: PolicySpec) -> Self {
        let mut native = NativeConfig::new(workers, policy);
        native.frontend = Some(FrontEndPlan::new(
            kind,
            DEFAULT_TABLE_CAPACITY,
            policy.native_layout().router,
        ));
        native.stream_cache = Some(DEFAULT_STREAM_CACHE);
        native.session_space = Some(NATIVE_SESSION_SPACE.min(streams));
        ServeConfig {
            native,
            streams,
            alpha: 1.1,
            batch_mean: 4.0,
            offered_pps: 50_000.0 * workers as f64,
            payload_bytes: 64,
            total_packets: 200_000,
            warmup_packets: 40_000,
            snapshot_every: None,
            on_steady: None,
        }
    }

    /// The configuration's rated service capacity, packets per second:
    /// `workers / t_warm` with `t_warm` the calibrated model's all-warm
    /// per-packet service time. The optimistic bound — cold reloads and
    /// migrations only lower it — which makes it the natural unit for
    /// offered-load sweeps (`offered = load × rated capacity`).
    pub fn rated_capacity_pps(&self) -> f64 {
        self.native.workers as f64 * 1e6 / ExecParams::calibrated().model.bounds.t_warm_us
    }
}

/// What a serving run reports. The virtual-domain fields (ledger,
/// delay/service moments, makespan) are deterministic for a seed; the
/// host gauges (`wall_s`, `pkts_per_wall_s`, `rss_kb`) are measurement
/// artifacts and must stay out of committed goldens.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Scheduling rung label.
    pub policy: &'static str,
    /// Front-end label.
    pub frontend: &'static str,
    /// Worker count.
    pub workers: usize,
    /// Dequeue/dispatch batch bound the run used.
    pub batch: usize,
    /// Packets the generator offered.
    pub offered: u64,
    /// Packets admitted past the NIC (offered − dropped).
    pub admitted: u64,
    /// Packets tail-dropped at admission (modeled backlog full).
    pub dropped: u64,
    /// Receive-path outcomes of every admitted packet.
    pub outcomes: OutcomeTotals,
    /// Packets inside the statistics window.
    pub recorded: u64,
    /// Mean end-to-end delay (queueing + service), µs, post-warm-up.
    pub mean_delay_us: f64,
    /// Mean modeled service time, µs, post-warm-up.
    pub mean_service_us: f64,
    /// Mean queueing wait, µs, post-warm-up.
    pub mean_wait_us: f64,
    /// Worst post-warm-up delay, µs.
    pub max_delay_us: f64,
    /// Virtual arrival stamp of the last offered packet, µs.
    pub last_arrival_us: f64,
    /// Final virtual clock of the slowest worker, µs.
    pub makespan_us: f64,
    /// Per-worker telemetry.
    pub per_worker: Vec<WorkerStats>,
    /// Front-end steering-table misses over the run.
    pub table_misses: u64,
    /// Flow-to-worker rebinds over the run.
    pub rebinds: u64,
    /// Host wall-clock seconds the run took (gauge).
    pub wall_s: f64,
    /// Processed packets per host wall-clock second (gauge).
    pub pkts_per_wall_s: f64,
    /// Resident set at teardown, KiB (gauge; 0 where unsupported).
    pub rss_kb: u64,
}

impl ServeReport {
    /// Delivered packets per *virtual* second of makespan.
    pub fn goodput_pps(&self) -> f64 {
        if self.makespan_us <= 0.0 {
            return 0.0;
        }
        self.outcomes.delivered as f64 * 1e6 / self.makespan_us
    }

    /// Fraction of offered packets tail-dropped at admission.
    pub fn drop_frac(&self) -> f64 {
        self.dropped as f64 / self.offered.max(1) as f64
    }

    /// The overload-degradation contract: every offered packet is
    /// accounted exactly once — admitted or dropped at the NIC, and
    /// every admitted packet reached exactly one receive-path outcome.
    pub fn ledger_balanced(&self) -> bool {
        let o = &self.outcomes;
        self.offered == self.admitted + self.dropped
            && self.admitted == o.delivered + o.no_session + o.queue_full + o.rejected
    }
}

/// Resident set size of the current process in KiB (Linux `/proc`;
/// 0 elsewhere). A host gauge — never part of a committed artifact.
pub fn current_rss_kb() -> u64 {
    if let Ok(s) = std::fs::read_to_string("/proc/self/status") {
        for line in s.lines() {
            if let Some(rest) = line.strip_prefix("VmRSS:") {
                return rest
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse()
                    .unwrap_or(0);
            }
        }
    }
    0
}

/// Run a serving session, streaming snapshots into `sink` (one JSONL
/// line per interval) when both a sink and
/// [`ServeConfig::snapshot_every`] are given.
pub fn run_serve(cfg: &ServeConfig, sink: Option<&mut dyn Write>) -> ServeReport {
    run_serve_with_pinner(cfg, sink, cfg.native.pinning.pinner())
}

/// [`run_serve`] with an explicit pinner (tests inject no-op pinners).
///
/// Serving as a run of the shared pipeline: an open-loop generator
/// refilling pooled frame buffers as the arrival source, the modeled
/// backlog bound [`NativeConfig::queue_capacity`] as the admission
/// bound, and no recorder.
pub fn run_serve_with_pinner(
    cfg: &ServeConfig,
    mut sink: Option<&mut dyn Write>,
    pinner: &dyn CorePinner,
) -> ServeReport {
    let n = &cfg.native;
    let w = n.workers;
    assert!(cfg.streams >= 1 && cfg.offered_pps > 0.0 && cfg.batch_mean >= 1.0);
    let plan = n
        .frontend
        .expect("the serving path is NIC-steered: set NativeConfig::frontend");
    assert!(
        n.faults.is_noop(),
        "fault plans are a replay-path feature; the serving path has no watchdog"
    );
    let t0 = Instant::now();

    // The frame-buffer object pool: sized to cover every buffer that
    // can be in flight at once (ring slots + in-service trains + the
    // dispatcher's hand) and minted eagerly at setup, each with the
    // full frame capacity (49 header bytes + payload, with slack), so
    // the steady-state loop never calls the allocator — not even on a
    // host-scheduling hiccup that drains the pool deeper than any
    // previous instant. A stealing layout stages admitted packets
    // (buffers and all) in the claim table until the model resolves
    // their claimant, so its in-flight population can transiently reach
    // a second ring's worth on top of the physical rings. The other
    // rungs keep the original sizing — the allocation-free pin in
    // `tests/alloc_free.rs` measures exactly that footprint.
    let batch = n.batch.max(1);
    let rings = if n.layout.steal.is_some() { 2 } else { 1 };
    let max_bufs = rings * w * n.queue_capacity + w * batch + 64;
    let pool: RingQueue<Vec<u8>> = RingQueue::with_capacity(max_bufs);
    for _ in 0..max_bufs {
        pool.push(Vec::with_capacity(cfg.payload_bytes + 64))
            .expect("pool ring sized for the full population");
    }

    let mut gen = ZipfPacketGen::new(
        cfg.streams,
        cfg.offered_pps,
        cfg.alpha,
        cfg.batch_mean,
        n.session_space,
        cfg.payload_bytes,
        n.seed,
    );
    let mut offered = 0u64;
    let arrivals = std::iter::from_fn(|| {
        // A spent buffer from the pre-minted population. With every
        // buffer in flight the dispatcher waits for a worker to hand
        // one back — backpressure through the pool, the same
        // degradation contract as a full ring.
        let mut bytes = loop {
            match pool.pop() {
                Some(b) => break b,
                None => std::thread::yield_now(),
            }
        };
        let (stream, arrival_us) = gen.next_into(&mut bytes);
        offered += 1;
        if offered == cfg.warmup_packets {
            if let Some(hook) = cfg.on_steady {
                hook();
            }
        }
        Some(Arrival {
            bytes,
            stream,
            arrival_us,
            record: offered > cfg.warmup_packets,
        })
    })
    .take(usize::try_from(cfg.total_packets).unwrap_or(usize::MAX));

    let mut publish;
    let mut tick: Option<&mut Tick<'_>> = None;
    let every = cfg.snapshot_every.filter(|&every| every > 0);
    if let (Some(out), Some(every)) = (sink.as_deref_mut(), every) {
        publish = move |ledger: &Ledger, processed: u64, vclocks: &[AtomicU64]| {
            if ledger.offered.is_multiple_of(every) {
                let clocks = vclocks
                    .iter()
                    .map(|c| f64::from_bits(c.load(Ordering::Acquire)));
                write_snapshot(out, snapshot(t0, ledger, processed, clocks));
            }
        };
        tick = Some(&mut publish);
    }
    let pipeline = Pipeline {
        cfg: n,
        pinner,
        flows: cfg.streams,
        admit: Some(n.queue_capacity),
        obs: None,
        pool: Some(&pool),
        tick,
    };
    let t = dispatch(pipeline, arrivals);

    let wall_s = t0.elapsed().as_secs_f64();
    let processed: u64 = t.per_worker.iter().map(|s| s.processed).sum();
    // Emit a closing snapshot so a streamed log always ends on the
    // final ledger and the joined final clocks.
    if let (Some(out), Some(_)) = (sink, cfg.snapshot_every) {
        let clocks = t.per_worker.iter().map(|s| s.vclock_us);
        write_snapshot(out, snapshot(t0, &t.ledger, processed, clocks));
    }
    ServeReport {
        policy: n.spec.label(),
        frontend: plan.config.kind.label(),
        workers: w,
        batch,
        offered: t.ledger.offered,
        admitted: t.ledger.admitted,
        dropped: t.ledger.dropped,
        outcomes: t.outcomes,
        recorded: t.delay.count(),
        mean_delay_us: t.delay.mean(),
        mean_service_us: t.service.mean(),
        mean_wait_us: t.wait.mean(),
        max_delay_us: t.delay.max(),
        last_arrival_us: t.ledger.last_arrival_us,
        makespan_us: t.makespan_us(),
        table_misses: t.table_misses,
        rebinds: t.rebinds,
        per_worker: t.per_worker,
        wall_s,
        pkts_per_wall_s: processed as f64 / wall_s.max(1e-9),
        rss_kb: current_rss_kb(),
    }
}

/// A snapshot of the ledger and the given worker clocks (an exited
/// worker's live clock slot reads ∞ and is skipped).
fn snapshot(
    t0: Instant,
    ledger: &Ledger,
    processed: u64,
    clocks: impl Iterator<Item = f64>,
) -> ServeSnapshot {
    let (lo, hi) = clocks
        .filter(|v| v.is_finite())
        .fold((f64::INFINITY, 0.0f64), |(lo, hi), v| {
            (lo.min(v), hi.max(v))
        });
    ServeSnapshot {
        wall_s: t0.elapsed().as_secs_f64(),
        offered: ledger.offered,
        admitted: ledger.admitted,
        dropped: ledger.dropped,
        processed,
        arrival_us: ledger.last_arrival_us,
        min_worker_vclock_us: if lo.is_finite() { lo } else { 0.0 },
        max_worker_vclock_us: hi,
        rss_kb: current_rss_kb(),
    }
}

fn write_snapshot(out: &mut dyn Write, snap: ServeSnapshot) {
    let mut line = String::new();
    snap.write_jsonl(&mut line);
    let _ = out.write_all(line.as_bytes());
    let _ = out.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pin::NoopPinner;
    use crate::runtime::Pinning;

    fn small(kind: FrontEndKind, policy: PolicySpec) -> ServeConfig {
        let mut cfg = ServeConfig::new(2, 64, kind, policy);
        cfg.native.pinning = Pinning::Off;
        cfg.native.queue_capacity = 64;
        cfg.offered_pps = 40_000.0;
        cfg.total_packets = 12_000;
        cfg.warmup_packets = 3_000;
        cfg
    }

    #[test]
    fn ledger_balances_for_every_frontend_and_fallback() {
        // All five policy rungs, including the claim-arbitrated
        // locking pool and IPS stealing (DESIGN.md §3, `afs-sched::claim`).
        for kind in [
            FrontEndKind::Rss,
            FrontEndKind::FlowDirector,
            FrontEndKind::TransportFriendly,
        ] {
            for policy in PolicySpec::ALL {
                let cfg = small(kind, policy);
                let r = run_serve_with_pinner(&cfg, None, &NoopPinner);
                assert!(r.ledger_balanced(), "{kind:?}/{policy:?}: {r:?}");
                assert_eq!(r.offered, cfg.total_packets);
                assert!(r.outcomes.delivered > 0);
                assert!(r.recorded > 0);
            }
        }
    }

    #[test]
    fn overload_drops_deterministically_and_underload_drops_nothing() {
        let mut cfg = small(FrontEndKind::FlowDirector, PolicySpec::MruLoad);
        cfg.native.queue_capacity = 16;
        cfg.offered_pps = 4_000_000.0; // far past 2 workers' capacity
        let a = run_serve_with_pinner(&cfg, None, &NoopPinner);
        let b = run_serve_with_pinner(&cfg, None, &NoopPinner);
        assert!(a.dropped > 0, "overload must shed: {a:?}");
        assert!(a.ledger_balanced());
        // Drops are decided on the virtual clock: identical across runs.
        assert_eq!(a.dropped, b.dropped);
        assert_eq!(a.admitted, b.admitted);
        assert_eq!(a.outcomes, b.outcomes);

        // Two workers at ~180µs modeled service sustain ~11k pps; 4k
        // offered is comfortably under capacity.
        let mut calm = small(FrontEndKind::FlowDirector, PolicySpec::MruLoad);
        calm.offered_pps = 4_000.0;
        let c = run_serve_with_pinner(&calm, None, &NoopPinner);
        assert_eq!(c.dropped, 0, "underload must be lossless: {c:?}");
    }

    #[test]
    fn batching_leaves_the_virtual_results_bit_identical() {
        // The claim-arbitrated rungs (Locking's pooled fallback, IPS
        // stealing) must be exactly as batch-transparent as the
        // direct-push rungs: resolution happens dispatcher-side, so
        // train size cannot move a single virtual result.
        for (kind, policy) in [
            (FrontEndKind::TransportFriendly, PolicySpec::MinReload),
            (FrontEndKind::FlowDirector, PolicySpec::Locking),
            (FrontEndKind::Rss, PolicySpec::Ips),
        ] {
            let base = {
                let cfg = small(kind, policy);
                run_serve_with_pinner(&cfg, None, &NoopPinner)
            };
            for b in [8usize, 64] {
                let mut cfg = small(kind, policy);
                cfg.native.batch = b;
                let r = run_serve_with_pinner(&cfg, None, &NoopPinner);
                assert_eq!(r.offered, base.offered, "{kind:?}/{policy:?}");
                assert_eq!(r.admitted, base.admitted, "{kind:?}/{policy:?}");
                assert_eq!(r.dropped, base.dropped, "{kind:?}/{policy:?}");
                assert_eq!(r.outcomes, base.outcomes, "{kind:?}/{policy:?}");
                assert_eq!(r.recorded, base.recorded, "{kind:?}/{policy:?}");
                assert_eq!(r.mean_delay_us.to_bits(), base.mean_delay_us.to_bits());
                assert_eq!(r.mean_service_us.to_bits(), base.mean_service_us.to_bits());
                assert_eq!(r.makespan_us.to_bits(), base.makespan_us.to_bits());
                assert_eq!(r.table_misses, base.table_misses);
                assert_eq!(r.rebinds, base.rebinds);
            }
        }
    }

    /// A panic on the dispatcher thread must release the workers (they
    /// spin on the run flags inside the scope) so the scope joins and the
    /// panic reaches the caller. Timed from outside: a wedged run fails
    /// the test with a different message instead of hanging it.
    #[test]
    #[should_panic(expected = "steady-state hook exploded")]
    fn dispatcher_panic_reaches_the_caller() {
        let mut cfg = small(FrontEndKind::Rss, PolicySpec::MruLoad);
        cfg.on_steady = Some(|| panic!("steady-state hook exploded"));
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let run = || run_serve_with_pinner(&cfg, None, &NoopPinner);
            let _ = tx.send(std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)));
        });
        match rx.recv_timeout(std::time::Duration::from_secs(60)) {
            Ok(Err(panic)) => std::panic::resume_unwind(panic),
            Ok(Ok(_)) => panic!("the hook never fired"),
            Err(_) => panic!("the dispatcher panic wedged the run: workers were never released"),
        }
    }

    #[test]
    fn snapshots_stream_jsonl_lines() {
        let mut cfg = small(FrontEndKind::Rss, PolicySpec::Oblivious);
        cfg.snapshot_every = Some(4_000);
        let mut out: Vec<u8> = Vec::new();
        let r = run_serve_with_pinner(&cfg, Some(&mut out), &NoopPinner);
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // 12k offered / 4k interval = 3 interval snapshots + 1 closing.
        assert_eq!(lines.len(), 4, "{text}");
        assert!(lines.iter().all(|l| l.starts_with("{\"e\":\"serve\"")));
        let last = lines.last().unwrap();
        assert!(last.contains(&format!("\"offered\":{}", r.offered)));
        assert!(last.contains(&format!("\"dropped\":{}", r.dropped)));
    }
}
