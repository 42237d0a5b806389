//! The sustained-ingest serving path.
//!
//! [`run_serve`] runs the native pipeline (DESIGN.md §8) as a
//! long-running serving engine. It differs from replay
//! ([`crate::runtime::run_native`]) in exactly three things it hands the
//! shared dispatcher:
//!
//! * **The arrival source** is an open-loop Zipf × compound-Poisson
//!   generator ([`crate::runtime::ZipfPacketGen`]) instead of a
//!   materialized `Vec`, so run length does not bound memory. It yields
//!   descriptors (flow, arrival stamp), and the dispatcher places them
//!   as such (DESIGN.md §8). The worker that processes an admitted packet
//!   rewrites its one frame as that packet's, byte-identical to the
//!   generator's own, right before the engine reads it in place: the
//!   payload was written once, when the worker started, and per packet
//!   only the header bytes and the FCS are, on the core that reads them.
//!   A dropped packet never has a frame. Every per-flow table is
//!   pre-sized, so after warm-up the per-packet path never calls the
//!   allocator — pinned by the counting-allocator test in
//!   `tests/alloc_free.rs`.
//! * **The admission bound** is [`NativeConfig::queue_capacity`] instead
//!   of none: a packet whose steered worker already holds that many
//!   modeled-backlog packets on the router's drain clock is tail-dropped
//!   at the NIC. The decision is keyed on the deterministic virtual-load
//!   model rather than a racy host-side ring occupancy, so the drop
//!   ledger (`offered = admitted + dropped`) is a pure function of the
//!   seed. Admitted packets are never lost: the physical ring push
//!   blocks (backpressure) until the worker drains. The bound is
//!   modeled only; it sizes no ring.
//! * **No recorder**; instead, at a configurable packet interval the
//!   dispatcher publishes an [`afs_obs::ServeSnapshot`] JSONL line (wall
//!   time and RSS are explicitly host gauges). The run returns the
//!   [`NativeReport`] replay does; no host gauge is in it.
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
use crate::runtime::{NativeConfig, NativeReport, ZipfPacketGen};

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

/// What a serving run reports: the replay report, whose `dropped`
/// counts the packets admission shed. The name stays for callers that
/// still spell it.
pub type ServeReport = NativeReport;

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
///
/// Serving as a run of the shared pipeline: an open-loop generator of
/// packet descriptors as the arrival source, the modeled
/// backlog bound [`NativeConfig::queue_capacity`] as the admission
/// bound, and no recorder.
pub fn run_serve(cfg: &ServeConfig, mut sink: Option<&mut dyn Write>) -> NativeReport {
    let n = &cfg.native;
    assert!(cfg.streams >= 1 && cfg.offered_pps > 0.0 && cfg.batch_mean >= 1.0);
    assert!(
        n.frontend.is_some(),
        "the serving path is NIC-steered: set NativeConfig::frontend"
    );
    assert!(
        n.faults.is_noop(),
        "fault plans are a replay-path feature; the serving path has no watchdog"
    );
    let t0 = Instant::now();
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
        let (stream, arrival_us) = gen.next_arrival();
        offered += 1;
        if offered == cfg.warmup_packets {
            if let Some(hook) = cfg.on_steady {
                hook();
            }
        }
        Some(Arrival {
            bytes: Vec::new(),
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
        flows: cfg.streams,
        admit: Some(n.queue_capacity),
        obs: None,
        frames: Some(cfg.payload_bytes),
        tick,
    };
    let r = dispatch(pipeline, arrivals);

    // Emit a closing snapshot so a streamed log always ends on the
    // final ledger and the joined final clocks.
    if let (Some(out), Some(_)) = (sink, cfg.snapshot_every) {
        let ledger = Ledger {
            offered: r.offered,
            admitted: r.admitted,
            dropped: r.dropped,
            last_arrival_us: r.last_arrival_us,
            ..Ledger::default()
        };
        let processed = r.per_worker.iter().map(|s| s.processed).sum();
        let clocks = r.per_worker.iter().map(|s| s.vclock_us);
        write_snapshot(out, snapshot(t0, &ledger, processed, clocks));
    }
    r
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
                let r = run_serve(&cfg, None);
                assert!(r.ledger_balanced(), "{kind:?}/{policy:?}: {r:?}");
                assert_eq!(r.offered, cfg.total_packets);
                assert!(r.outcomes.delivered > 0);
                assert!(r.recorded > 0);
            }
        }
    }

    /// That an overload run replays bit for bit, at every dequeue batch,
    /// is a serve row of `tests/determinism_matrix.rs`.
    #[test]
    fn overload_sheds_and_underload_drops_nothing() {
        let mut cfg = small(FrontEndKind::FlowDirector, PolicySpec::MruLoad);
        cfg.native.queue_capacity = 16;
        cfg.offered_pps = 4_000_000.0; // far past 2 workers' capacity
        let a = run_serve(&cfg, None);
        assert!(a.dropped > 0, "overload must shed: {a:?}");
        assert!(a.ledger_balanced());

        // Two workers at ~180µs modeled service sustain ~11k pps; 4k
        // offered is comfortably under capacity.
        let mut calm = small(FrontEndKind::FlowDirector, PolicySpec::MruLoad);
        calm.offered_pps = 4_000.0;
        let c = run_serve(&calm, None);
        assert_eq!(c.dropped, 0, "underload must be lossless: {c:?}");
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
            let run = || run_serve(&cfg, None);
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
        let r = run_serve(&cfg, Some(&mut out));
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
