//! The replay entry points and the backend's configuration, workload
//! and report types.
//!
//! The backend executes the real [`ProtocolEngine`][afs_xkernel::ProtocolEngine]
//! receive path on OS threads — the same instrumented UDP/IP/FDDI code
//! the calibration experiments run — under the scheduling rungs of the
//! shared policy crate ([`PolicySpec`]): it consumes a [`NativeLayout`]
//! (structural knobs) plus the `afs-sched` decision objects
//! ([`afs_sched::Router`], [`afs_sched::StealPolicy`]) and contains no
//! policy `match` of its own. One dispatcher feeds per-worker ring
//! run-queues (DESIGN.md §8); [`run_native`] replays a pre-generated
//! workload through it, [`crate::serve::run_serve`] an open-loop
//! generator. Each worker owns a *private* memory hierarchy (its
//! processor's caches) and advances a virtual clock:
//!
//! ```text
//! start   = max(worker_vclock, packet.arrival_us)
//! vclock  = start + modeled_service_us
//! delay   = vclock - packet.arrival_us        (queueing + service)
//! ```
//!
//! so delays are deterministic functions of the modeled cache behaviour
//! and the dispatch order — host wall-clock noise never enters the
//! numbers.
//!
//! ## How affinity shows up in the model
//!
//! Per-worker hierarchies have no shared bus, so migration cost is made
//! explicit: the dispatcher stamps every packet with the previous owner
//! of its stream state and thread stack (tracked in virtual dispatch
//! order), and a worker that was not the previous owner purges that
//! entity's address range from its own hierarchy before processing —
//! the reload transient the paper measures. Shared-stack policies
//! additionally charge the Section 5.1 lock overhead
//! ([`afs_xkernel::lock_overhead_cycles`]) per packet; the IPS owner
//! path is lock-free and charges it only on stolen packets (the steal
//! handoff).
//!
//! ## Deterministic arbitration (the claim protocol)
//!
//! Shared-pool pops and work stealing are arbitrated on the dispatcher
//! thread by [`afs_sched::ClaimTable`]: every pooled pop or steal is a
//! `(start, seq, claimant)` claim resolved in total virtual order, the
//! job is then pushed to the claimant's own ring, and workers only ever
//! pop their own ring in FIFO order. Victim selection, migration
//! accounting and previous-owner stamping are therefore pure functions
//! of the arrival stream — bit-identical at any worker count and any
//! dequeue batch, with or without a fault plan (DESIGN.md §3, `afs-sched::claim`).

use afs_core::procfault::ProcFaultPlan;
use afs_desim::dist::Dist;
use afs_desim::rng::RngFactory;
use afs_obs::MemRecorder;
use afs_sched::{NativeLayout, PolicySpec};
use afs_workload::{ZipfArrivals, ZipfSpec};
use afs_xkernel::driver::PacketFactory;
use afs_xkernel::engine::CostModel;
use afs_xkernel::{DropReason, RxOutcome, StreamId};

use crate::dispatch::{dispatch, Arrival, Pipeline};
use crate::pin::{CorePinner, NoopPinner, OsPinner};

/// Whether workers attempt to pin themselves to cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pinning {
    /// Try `sched_setaffinity`; on failure continue unpinned
    /// (the CI-safe default).
    Auto,
    /// Never attempt the syscall.
    Off,
}

impl Pinning {
    /// The pinner this mode selects.
    pub(crate) fn pinner(self) -> &'static dyn CorePinner {
        match self {
            Pinning::Auto => &OsPinner,
            Pinning::Off => &NoopPinner,
        }
    }
}

/// Configuration of one native run.
#[derive(Debug, Clone)]
pub struct NativeConfig {
    /// Worker (processor) count.
    pub workers: usize,
    /// The scheduling rung (labels, reporting).
    pub spec: PolicySpec,
    /// The structural layout derived from [`NativeConfig::spec`] —
    /// overridable after construction (tests disable stealing by setting
    /// `layout.steal = None`).
    pub layout: NativeLayout,
    /// Core-pinning mode.
    pub pinning: Pinning,
    /// The serving path's admission bound: a packet whose steered
    /// worker already holds this many modeled-backlog packets is
    /// tail-dropped ([`crate::run_serve`]). Replay admits everything and
    /// does not read it. It does not size the host rings: each worker's
    /// ring holds a pipeline's worth of trains, set by
    /// [`NativeConfig::batch`], and a full ring blocks the dispatcher.
    pub queue_capacity: usize,
    /// Protocol cost model (defaults are the paper's calibration).
    pub cost: CostModel,
    /// Fraction of the arrival horizon treated as warm-up: packets
    /// arriving before it are processed but excluded from the delay and
    /// service statistics.
    pub warmup_frac: f64,
    /// Seed for the placement RNG (workload generation seeds itself).
    pub seed: u64,
    /// The processor-fault plan (crashes, stalls, slowdowns on the
    /// virtual clock). Empty by default — a clean run is untouched.
    pub faults: ProcFaultPlan,
    /// NIC front-end steering (`None` = the dispatcher routes through
    /// [`NativeLayout::router`]). When set, the front-end steers every
    /// arrival into the per-worker rings and the layout's router only
    /// serves as its miss-path fallback; each core runs its own thread
    /// (no rotating pool threads). The work-conserving rungs keep their
    /// claim arbitration behind it: a pooled layout resolves steering
    /// misses through the shared pool, a stealing layout lets idle
    /// workers steal what the NIC steered elsewhere.
    pub frontend: Option<afs_sched::FrontEndPlan>,
    /// Bound on resident stream footprints per run (`None` = every
    /// stream's state stays cache-resident once touched, the legacy
    /// model). `Some(c)` splits `c` slots across the workers' hashed
    /// LRU resident sets: a flow evicted from a worker's set pays a
    /// full cold stream-state reload on its next packet there — the
    /// native counterpart of the simulator's `stream_cache`.
    pub stream_cache: Option<usize>,
    /// Bound on the engine's session space (`None` = one session per
    /// stream, the legacy layout). `Some(m)` binds `m` sessions, whichever
    /// flows arrive, and demultiplexes flows onto `flow % m` of them —
    /// how a real host carries 10⁵–10⁶ flows over a bounded session
    /// table (and over the driver's 16-bit port
    /// space, which carries at most
    /// [`PORT_STREAMS`][afs_xkernel::driver::PORT_STREAMS] = 60 536
    /// distinct sessions; a run needing more panics at start). The
    /// workload generator must be built with the same `m`
    /// ([`zipf_workload`] takes it as a parameter).
    pub session_space: Option<u32>,
    /// Dequeue batch bound. `1` (the default) is the historical
    /// per-packet path. `> 1` turns on train pops: a worker claims up to
    /// `batch` queued packets from its ring in one
    /// synchronized [`RingQueue::pop_batch`][crate::ring::RingQueue::pop_batch]
    /// operation. Result-transparent — [`NativeReport`]s and ledgers are
    /// bit-identical across batch sizes, which `tests/determinism_matrix.rs`
    /// pins. Every layout honours the bound: steering is recomputed per
    /// packet and pooled and stealing arbitration happen dispatcher-side
    /// in the claim table, so train pops never change a placement.
    pub batch: usize,
}

impl NativeConfig {
    /// A config with the calibrated cost model and CI-safe defaults.
    pub fn new(workers: usize, spec: PolicySpec) -> Self {
        NativeConfig {
            workers,
            spec,
            layout: spec.native_layout(),
            pinning: Pinning::Auto,
            queue_capacity: 1024,
            cost: CostModel::default(),
            warmup_frac: 0.2,
            seed: 0xAF5_0002,
            faults: ProcFaultPlan::none(),
            frontend: None,
            stream_cache: None,
            session_space: None,
            batch: 1,
        }
    }
}

/// One pre-generated packet: wire bytes plus its Poisson arrival stamp.
#[derive(Debug, Clone)]
pub struct NativePacket {
    /// The full FDDI frame.
    pub bytes: Vec<u8>,
    /// The stream it belongs to.
    pub stream: StreamId,
    /// Arrival time on the virtual clock, µs from run start.
    pub arrival_us: f64,
}

/// Build the workload: `streams` independent Poisson sources, each
/// offering exactly `packets_per_stream` packets at
/// `rate_pps_per_stream`, merged into one global arrival order the
/// dispatcher replays. Deterministic for a fixed seed (each source draws
/// from its own named RNG stream).
///
/// Every arrival is drawn first, stream by stream (stream `s` from
/// `native-arrivals-{s}`), so generation index `i` is packet
/// `i % packets_per_stream` of stream `i / packets_per_stream`. The
/// arrivals are then stably sorted by `f64::total_cmp`, so equal stamps
/// keep generation order. Only then is each frame built, in arrival
/// order and at its final size, with IP ident `i + 1` (mod 2¹⁶).
pub fn poisson_workload(
    streams: u32,
    packets_per_stream: u32,
    rate_pps_per_stream: f64,
    payload_bytes: usize,
    seed: u64,
) -> Vec<NativePacket> {
    assert!(streams >= 1 && rate_pps_per_stream > 0.0);
    let mean_interarrival_us = 1e6 / rate_pps_per_stream;
    let factory = RngFactory::new(seed);
    let exp = Dist::exponential(mean_interarrival_us);
    // (arrival stamp, generation index)
    let mut arrivals: Vec<(f64, usize)> =
        Vec::with_capacity(streams as usize * packets_per_stream as usize);
    for s in 0..streams {
        let mut rng = factory.stream(&format!("native-arrivals-{s}"));
        let mut t = 0.0f64;
        for _ in 0..packets_per_stream {
            t += exp.sample(&mut rng);
            arrivals.push((t, arrivals.len()));
        }
    }
    arrivals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let packets = PacketFactory::new();
    arrivals
        .into_iter()
        .map(|(arrival_us, i)| {
            let stream = StreamId((i / packets_per_stream as usize) as u32);
            let ident = (i as u16).wrapping_add(1);
            let mut bytes = Vec::new();
            packets.frame_at(ident, stream, payload_bytes, &mut bytes);
            NativePacket {
                bytes,
                stream,
                arrival_us,
            }
        })
        .collect()
}

/// Build a Zipf-popularity workload: `total_packets` packets offered at
/// `aggregate_rate_pps` across `streams` flows whose per-flow shares
/// follow [`afs_workload::zipf_weights`]`(streams, alpha)`. Arrivals
/// come in geometric batches of mean `batch_mean` (1 = pure Poisson);
/// each batch belongs to one flow drawn categorically by weight. Every
/// draw comes from [`afs_workload::ZipfArrivals`], the one source the
/// simulator's [`afs_workload::Population::zipf_bursty`] runs too: from
/// the same seed both backends offer the same `(flow, t)` sequence.
///
/// `session_space` must equal the run's
/// [`NativeConfig::session_space`]: each frame's UDP port encodes the
/// flow's session `flow % m` while [`NativePacket::stream`] keeps the
/// real flow id for steering and tracing. Deterministic for a fixed
/// seed.
#[allow(clippy::too_many_arguments)]
pub fn zipf_workload(
    streams: u32,
    total_packets: u64,
    aggregate_rate_pps: f64,
    alpha: f64,
    batch_mean: f64,
    session_space: Option<u32>,
    payload_bytes: usize,
    seed: u64,
) -> Vec<NativePacket> {
    let mut gen = ZipfPacketGen::new(
        streams,
        aggregate_rate_pps,
        alpha,
        batch_mean,
        session_space,
        payload_bytes,
        seed,
    );
    let mut all = Vec::with_capacity(total_packets as usize);
    for _ in 0..total_packets {
        let mut bytes = Vec::new();
        let (stream, arrival_us) = gen.next_into(&mut bytes);
        all.push(NativePacket {
            bytes,
            stream,
            arrival_us,
        });
    }
    all
}

/// Streaming form of [`zipf_workload`]: draws one packet at a time so a
/// serving loop can run open-ended in bounded memory instead of
/// materializing `Vec::with_capacity(total_packets)` up front. It is the
/// Zipf source ([`afs_workload::ZipfArrivals`]) plus a frame builder, so
/// for the same parameters the n-th packet from this generator is byte-
/// and stamp-identical to `zipf_workload(..)[n]`; [`zipf_workload`] is
/// itself implemented on top of this type to keep that true by
/// construction.
pub struct ZipfPacketGen {
    arrivals: ZipfArrivals,
    sessions: u32,
    payload_bytes: usize,
    factory: PacketFactory,
}

impl ZipfPacketGen {
    /// See [`zipf_workload`] for the parameter contract (`session_space`
    /// must equal the run's [`NativeConfig::session_space`]).
    pub fn new(
        streams: u32,
        aggregate_rate_pps: f64,
        alpha: f64,
        batch_mean: f64,
        session_space: Option<u32>,
        payload_bytes: usize,
        seed: u64,
    ) -> Self {
        let spec = ZipfSpec {
            flows: streams,
            aggregate_rate_pps,
            alpha,
            batch_mean,
        };
        ZipfPacketGen {
            arrivals: ZipfArrivals::new(spec, seed),
            sessions: session_space.unwrap_or(streams).max(1),
            payload_bytes,
            factory: PacketFactory::new(),
        }
    }

    /// Draw the next packet, building its frame in place into `buf`
    /// (cleared first; allocation-free once the buffer's capacity covers
    /// the frame). Returns the packet's flow id and arrival stamp.
    pub fn next_into(&mut self, buf: &mut Vec<u8>) -> (StreamId, f64) {
        let (flow, t) = self.next_arrival();
        self.factory
            .frame_into(StreamId(flow.0 % self.sessions), self.payload_bytes, buf);
        (flow, t)
    }

    /// [`next_into`](Self::next_into) without the frame: the packet's
    /// flow id and arrival stamp. A serving run draws only these; each
    /// admitted packet's frame is built by the worker that processes it.
    pub(crate) fn next_arrival(&mut self) -> (StreamId, f64) {
        let (flow, t) = self.arrivals.next_arrival();
        (StreamId(flow), t)
    }
}

/// Per-worker telemetry (hardware-agnostic: all counters come from the
/// runtime and the simulated hierarchy, never from host PMUs).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkerStats {
    /// Worker index.
    pub worker: usize,
    /// Packets this worker processed.
    pub processed: u64,
    /// Packets it delivered to a user queue.
    pub delivered: u64,
    /// Packets it stole from other workers' queues (IPS only).
    pub steals: u64,
    /// Packets whose stream state last ran on a different worker.
    pub stream_migrations: u64,
    /// Packets whose thread stack last ran on a different worker.
    pub thread_migrations: u64,
    /// Modeled busy time (cycle charge), µs.
    pub busy_us: f64,
    /// Final virtual-clock reading, µs.
    pub vclock_us: f64,
}

/// Delivery/shed totals across all workers, by typed outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutcomeTotals {
    /// `RxOutcome::Delivered`.
    pub delivered: u64,
    /// `RxOutcome::Dropped { reason: NoSession }`.
    pub no_session: u64,
    /// `RxOutcome::Dropped { reason: UserQueueFull }`.
    pub queue_full: u64,
    /// `RxOutcome::Error` (malformed).
    pub rejected: u64,
}

impl OutcomeTotals {
    /// Count one receive-path verdict in its bucket.
    pub fn add(&mut self, outcome: &RxOutcome) {
        match outcome {
            RxOutcome::Delivered(_) => self.delivered += 1,
            RxOutcome::Dropped {
                reason: DropReason::NoSession(_),
                ..
            } => self.no_session += 1,
            RxOutcome::Dropped {
                reason: DropReason::UserQueueFull(_),
                ..
            } => self.queue_full += 1,
            RxOutcome::Error { .. } => self.rejected += 1,
        }
    }

    /// All packets that completed a receive-path traversal.
    pub fn total(&self) -> u64 {
        self.delivered + self.no_session + self.queue_full + self.rejected
    }
}

/// The result of one native run.
#[derive(Debug, Clone, PartialEq)]
pub struct NativeReport {
    /// Policy label (`oblivious` / `locking` / `ips`).
    pub policy: &'static str,
    /// Worker count.
    pub workers: usize,
    /// Packets offered by the dispatcher.
    pub offered: u64,
    /// Packets admitted past the NIC (`offered` on replay, which has no
    /// admission bound).
    pub admitted: u64,
    /// Packets tail-dropped at admission, modeled backlog full (0 on
    /// replay).
    pub dropped: u64,
    /// Typed outcome totals (sums to `admitted` — an admitted packet is
    /// never lost).
    pub outcomes: OutcomeTotals,
    /// Mean delay (queueing + service) over recorded packets, µs.
    pub mean_delay_us: f64,
    /// Mean modeled service time over recorded packets, µs.
    pub mean_service_us: f64,
    /// Mean queueing wait over recorded packets, µs.
    pub mean_wait_us: f64,
    /// Largest recorded delay, µs.
    pub max_delay_us: f64,
    /// Packets included in the delay statistics (post-warm-up).
    pub recorded: u64,
    /// Total steals across workers.
    pub steals: u64,
    /// Total stream-state migrations across workers.
    pub stream_migrations: u64,
    /// Total thread-stack migrations across workers.
    pub thread_migrations: u64,
    /// Last arrival stamp, µs (the offered horizon).
    pub last_arrival_us: f64,
    /// Largest final worker vclock, µs (the virtual makespan).
    pub makespan_us: f64,
    /// Plan crashes (permanent or revived) that took effect inside the
    /// statistics window: the dispatcher masked the worker at an arrival
    /// past the warm-up cut, or — for a permanent crash past the last
    /// arrival — the worker reached it with work in hand and orphaned
    /// that work. The simulator's `RunReport::proc_crashes` counts the
    /// same plan crashes, fired past its warm-up.
    pub workers_crashed: u64,
    /// Packets orphaned on crashed workers: every job that reached a
    /// dead worker's ring from its fatal job on.
    pub orphaned: u64,
    /// Orphans recovery re-dispatched; always equals `orphaned` —
    /// the conservation invariant the fault tests pin down.
    pub requeued: u64,
    /// Per-worker telemetry.
    pub per_worker: Vec<WorkerStats>,
    /// Delivered packets per stream (from the engines' session tables;
    /// per *session*, one entry per bound session, when
    /// [`NativeConfig::session_space`] folds flows).
    pub per_stream_delivered: Vec<u64>,
    /// NIC-table lookup misses (front-end runs only; zero otherwise).
    pub table_misses: u64,
    /// Flow-to-queue rebinds the front-end performed (front-end runs
    /// only; structurally zero under RSS and transport-friendly).
    pub rebinds: u64,
    /// Out-of-order deliveries. Always zero straight out of the run —
    /// delivery order is a property of the workers' actual completion
    /// order, which only a recorded run can observe — and filled in by
    /// the crossval harness from the merged trace's
    /// [`SequenceChecker`][afs_obs::SequenceChecker] verdict.
    pub ooo_deliveries: u64,
}

impl NativeReport {
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
        self.offered == self.admitted + self.dropped && self.admitted == self.outcomes.total()
    }
}

/// Run the workload under `cfg`, pinning workers as
/// [`NativeConfig::pinning`] says.
pub fn run_native(cfg: &NativeConfig, workload: Vec<NativePacket>) -> NativeReport {
    replay(cfg, workload, None)
}

/// Run the workload and capture the unified observability trace: every
/// worker records into its own [`MemRecorder`] (no cross-thread traffic
/// on the hot path), the dispatcher records arrivals, and the slices are
/// merged into one deterministic-ordered stream on join.
///
/// All events are stamped with *virtual* time — arrival stamps and
/// worker vclocks — so host wall-clock never leaks into a trace. Queue
/// depths are counted from the merged trace by
/// [`MemRecorder::stamp_queue_depths`], never read off a ring: no trace
/// value reads host state.
pub fn run_native_recorded(
    cfg: &NativeConfig,
    workload: Vec<NativePacket>,
) -> (NativeReport, MemRecorder) {
    let mut out = MemRecorder::new();
    let report = replay(cfg, workload, Some(&mut out));
    (report, out)
}

/// Replay as a run of the shared pipeline: a materialized arrival
/// source, no admission bound (a full ring blocks the dispatcher, so
/// nothing is dropped), and a statistics window that opens
/// [`NativeConfig::warmup_frac`] of the way through the arrival horizon.
fn replay(
    cfg: &NativeConfig,
    workload: Vec<NativePacket>,
    obs: Option<&mut MemRecorder>,
) -> NativeReport {
    assert!(
        (0.0..1.0).contains(&cfg.warmup_frac),
        "warmup_frac must be in [0, 1)"
    );
    let flows = workload.iter().map(|p| p.stream.0 + 1).max().unwrap_or(0);
    let warmup_cut_us = cfg.warmup_frac * workload.last().map_or(0.0, |p| p.arrival_us);
    let arrivals = workload.into_iter().map(|p| Arrival {
        record: p.arrival_us >= warmup_cut_us,
        bytes: p.bytes,
        stream: p.stream,
        arrival_us: p.arrival_us,
    });
    let pipeline = Pipeline {
        cfg,
        flows,
        admit: None,
        obs,
        frames: None,
        tick: None,
    };
    dispatch(pipeline, arrivals)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_workload(streams: u32, per_stream: u32) -> Vec<NativePacket> {
        poisson_workload(streams, per_stream, 2_000.0, 32, 7)
    }

    fn cfg(workers: usize, spec: PolicySpec) -> NativeConfig {
        let mut c = NativeConfig::new(workers, spec);
        c.pinning = Pinning::Off;
        c
    }

    /// The IPS rung with stealing disabled (strict partitioning).
    fn ips_no_steal(workers: usize) -> NativeConfig {
        let mut c = cfg(workers, PolicySpec::Ips);
        c.layout.steal = None;
        c
    }

    #[test]
    fn workload_is_sorted_and_complete() {
        let w = small_workload(4, 25);
        assert_eq!(w.len(), 100);
        assert!(w.windows(2).all(|p| p[0].arrival_us <= p[1].arrival_us));
        assert!(w.iter().all(|p| p.stream.0 < 4));
        // Deterministic for a fixed seed.
        let again = small_workload(4, 25);
        assert_eq!(w.len(), again.len());
        assert!(w
            .iter()
            .zip(&again)
            .all(|(a, b)| a.arrival_us == b.arrival_us && a.stream == b.stream));
    }

    #[test]
    fn every_policy_is_lossless() {
        let mut configs: Vec<NativeConfig> =
            PolicySpec::ALL.into_iter().map(|p| cfg(3, p)).collect();
        configs.push(ips_no_steal(3));
        for c in &configs {
            let r = run_native(c, small_workload(6, 20));
            let label = (c.spec, c.layout.steal);
            assert_eq!(r.offered, 120, "{label:?}");
            assert_eq!(r.outcomes.total(), 120, "{label:?}");
            assert_eq!(r.outcomes.delivered, 120, "{label:?}");
            assert_eq!(r.per_stream_delivered, vec![20; 6], "{label:?}");
            assert!(r.mean_delay_us > 0.0 && r.mean_service_us > 0.0);
            assert!(r.recorded > 0 && r.recorded <= 120);
        }
    }

    /// Engines bind *folded* sessions (`flow % m`) to their owners, so
    /// the home stack must be computed from the folded id too — for any
    /// session space, not only the ones the worker count divides.
    #[test]
    fn folded_sessions_find_their_home_stack() {
        for (w, m) in [(3usize, 50u32), (4, 50), (2, 50), (3, 48)] {
            let mut c = cfg(w, PolicySpec::Ips);
            c.session_space = Some(m);
            let workload = zipf_workload(200, 4_000, 30_000.0, 1.1, 4.0, Some(m), 64, 11);
            let r = run_native(&c, workload);
            assert_eq!(r.outcomes.no_session, 0, "w={w} m={m}");
            assert_eq!(r.outcomes.delivered, r.offered, "w={w} m={m}");
        }
    }

    #[test]
    fn ips_without_steal_partitions_streams() {
        let r = run_native(&ips_no_steal(2), small_workload(4, 30));
        assert_eq!(r.steals, 0);
        // Strict partitioning: stream state never migrates.
        assert_eq!(r.stream_migrations, 0);
        assert_eq!(r.thread_migrations, 0);
    }

    #[test]
    fn oblivious_migrates_more_than_affinity_policies() {
        let workload = small_workload(8, 40);
        let obl = run_native(&cfg(4, PolicySpec::Oblivious), workload.clone());
        for spec in [PolicySpec::Ips, PolicySpec::MruLoad, PolicySpec::MinReload] {
            let aff = run_native(&cfg(4, spec), workload.clone());
            assert!(
                obl.stream_migrations > aff.stream_migrations,
                "oblivious {} vs {} {}",
                obl.stream_migrations,
                spec.label(),
                aff.stream_migrations
            );
        }
    }

    #[test]
    fn single_worker_all_policies_agree_on_accounting() {
        let w = small_workload(3, 10);
        let mut configs: Vec<NativeConfig> =
            PolicySpec::ALL.into_iter().map(|p| cfg(1, p)).collect();
        configs.push(ips_no_steal(1));
        for c in &configs {
            let r = run_native(c, w.clone());
            assert_eq!(r.outcomes.delivered, 30, "{:?}", c.spec);
            assert_eq!(r.per_worker.len(), 1);
            assert_eq!(r.per_worker[0].processed, 30);
        }
    }

    #[test]
    fn steal_relieves_a_loaded_owner() {
        // Two workers, but every stream is owned by worker 0 (even ids
        // under the modulo partition): worker 1 has nothing of its own
        // and must steal once worker 0 falls virtually behind.
        use afs_xkernel::driver::PacketFactory;
        let mut factory = PacketFactory::new();
        let mut workload = Vec::new();
        let mut t = 0.0;
        for i in 0..200u32 {
            let s = StreamId(if i % 2 == 0 { 0 } else { 2 });
            t += 60.0; // 60 µs spacing: far past one worker's capacity
            workload.push(NativePacket {
                bytes: factory.frame_for(s, 32),
                stream: s,
                arrival_us: t,
            });
        }
        let c = cfg(2, PolicySpec::Ips);
        let r = run_native(&c, workload);
        assert_eq!(r.outcomes.total(), 200);
        assert_eq!(r.outcomes.delivered, 200);
        assert!(r.steals > 0, "idle worker must relieve the loaded owner");
        let thief = &r.per_worker[1];
        assert!(thief.steals > 0 && thief.processed == thief.steals);
    }

    #[test]
    fn recorded_run_traces_every_packet() {
        for policy in PolicySpec::ALL {
            let (r, rec) = run_native_recorded(&cfg(3, policy), small_workload(6, 20));
            let c = &rec.counters;
            assert_eq!(c.enqueued, r.offered, "{policy:?}");
            assert_eq!(c.dispatched, r.offered, "{policy:?}");
            assert_eq!(c.completed, r.offered, "{policy:?}");
            assert_eq!(c.evicted, 0, "the native runtime is lossless");
            assert_eq!(c.in_flight(), 0, "{policy:?}");
            // Counter definitions agree with the runtime's own stats.
            assert_eq!(c.steals, r.steals, "{policy:?}");
            assert_eq!(c.stream_migrations, r.stream_migrations, "{policy:?}");
            assert_eq!(c.thread_migrations, r.thread_migrations, "{policy:?}");
            assert_eq!(c.completed_ok, r.outcomes.delivered, "{policy:?}");
            // Merged stream is in deterministic merge order.
            assert!(
                rec.events
                    .windows(2)
                    .all(|w| w[0].merge_key() <= w[1].merge_key()),
                "{policy:?}"
            );
            // Virtual stamps only: nothing precedes the first arrival.
            assert!(rec.events.iter().all(|e| e.t_us() >= 0.0));
        }
    }

    #[test]
    fn recording_does_not_change_the_deterministic_report() {
        // The recorder must reproduce the unobserved report exactly;
        // without steals the IPS owner path takes no lock.
        let w = small_workload(4, 30);
        let c = ips_no_steal(2);
        let plain = run_native(&c, w.clone());
        let (recorded, rec) = run_native_recorded(&c, w);
        assert_eq!(plain, recorded);
        assert_eq!(rec.counters.steals, 0);
        assert_eq!(rec.counters.lock_charges, 0, "IPS owner path is lock-free");
    }

    #[test]
    fn recorded_steals_carry_the_victim() {
        use afs_obs::ObsEvent;
        let mut factory = PacketFactory::new();
        let mut workload = Vec::new();
        let mut t = 0.0;
        for i in 0..200u32 {
            let s = StreamId(if i % 2 == 0 { 0 } else { 2 });
            t += 60.0;
            workload.push(NativePacket {
                bytes: factory.frame_for(s, 32),
                stream: s,
                arrival_us: t,
            });
        }
        let c = cfg(2, PolicySpec::Ips);
        let (r, rec) = run_native_recorded(&c, workload);
        assert!(r.steals > 0);
        // (seq, victim, thief) of every steal claim.
        let claims: Vec<_> = rec
            .events
            .iter()
            .filter_map(|e| match *e {
                ObsEvent::StealClaim { seq, from, to, .. } => Some((seq, from, to)),
                _ => None,
            })
            .collect();
        assert_eq!(claims.len() as u64, r.steals);
        // Both streams are owned by worker 0; only worker 1 can steal.
        assert!(claims.iter().all(|&(_, from, to)| from == 0 && to == 1));
        // Every stolen dispatch executes the one claim of its seq.
        let mut stolen = 0;
        for e in &rec.events {
            if let ObsEvent::Dispatch {
                seq,
                worker,
                stolen: true,
                ..
            } = *e
            {
                stolen += 1;
                let of_seq: Vec<_> = claims.iter().filter(|c| c.0 == seq).collect();
                assert_eq!(of_seq.len(), 1, "seq {seq}");
                assert_eq!(of_seq[0].2, worker, "seq {seq}");
            }
        }
        assert_eq!(stolen, r.steals);
        // Stolen packets pay the handoff lock.
        assert_eq!(rec.counters.lock_charges, r.steals);
    }

    #[test]
    #[should_panic(expected = "60537 sessions exceed the 60536 distinct UDP ports")]
    fn a_session_space_past_the_port_space_is_rejected() {
        // No session fold, and a flow id one past the port space.
        let last = NativePacket {
            bytes: Vec::new(),
            stream: StreamId(afs_xkernel::driver::PORT_STREAMS),
            arrival_us: 1.0,
        };
        run_native(&cfg(1, PolicySpec::Locking), vec![last]);
    }

    #[test]
    fn warmup_excludes_early_packets() {
        let mut c = cfg(1, PolicySpec::Locking);
        c.warmup_frac = 0.5;
        let r = run_native(&c, small_workload(2, 40));
        assert_eq!(r.outcomes.total(), 80);
        assert!(r.recorded < 80, "warm-up must trim the sample");
    }

    mod procfault {
        use super::*;
        use afs_core::procfault::{FaultLoad, ProcFault, ProcFaultKind, ProcFaultPlan};
        use afs_obs::ObsEvent;

        fn crash(proc: usize, at_us: f64, revive_at_us: Option<f64>) -> ProcFaultPlan {
            ProcFaultPlan {
                faults: vec![ProcFault {
                    proc,
                    at_us,
                    kind: ProcFaultKind::Crash { revive_at_us },
                }],
            }
        }

        /// A 60 µs-spaced workload on streams 1 and 3: under two workers
        /// both streams belong to worker 1, which falls far behind — a
        /// guaranteed deep ring backlog on the (future) crash victim.
        fn backlog_on_worker_1(n: u32) -> Vec<NativePacket> {
            let mut factory = PacketFactory::new();
            let mut t = 0.0;
            (0..n)
                .map(|i| {
                    let s = StreamId(if i % 2 == 0 { 1 } else { 3 });
                    t += 60.0;
                    NativePacket {
                        bytes: factory.frame_for(s, 32),
                        stream: s,
                        arrival_us: t,
                    }
                })
                .collect()
        }

        #[test]
        fn clean_run_reports_no_fault_activity() {
            let r = run_native(&cfg(3, PolicySpec::Ips), small_workload(6, 20));
            assert_eq!((r.workers_crashed, r.orphaned, r.requeued), (0, 0, 0));
        }

        #[test]
        fn permanent_crash_recovers_every_orphan() {
            let mut c = ips_no_steal(2);
            c.faults = crash(1, 3_000.0, None);
            let r = run_native(&c, backlog_on_worker_1(200));
            assert_eq!(r.workers_crashed, 1);
            assert!(r.orphaned > 0, "a backlogged crash must orphan work");
            assert_eq!(r.orphaned, r.requeued, "conservation across the crash");
            // Lossless: every packet still completes a receive-path
            // traversal and finds its session (recovered work runs on
            // the dead worker's stack).
            assert_eq!(r.outcomes.total(), 200);
            assert_eq!(r.outcomes.delivered, 200);
            assert_eq!(r.outcomes.no_session, 0);
            // The survivor did the recovered work.
            assert!(r.per_worker[0].processed > 0);
            assert_eq!(r.per_worker[0].processed + r.per_worker[1].processed, 200);
        }

        #[test]
        fn crash_is_lossless_for_every_policy() {
            let mut configs: Vec<NativeConfig> =
                PolicySpec::ALL.into_iter().map(|p| cfg(3, p)).collect();
            configs.push(ips_no_steal(3));
            for c in &mut configs {
                c.faults = crash(1, 2_000.0, None);
                let r = run_native(c, small_workload(6, 40));
                let label = (c.spec, c.layout.steal);
                assert_eq!(r.offered, 240, "{label:?}");
                assert_eq!(r.outcomes.total(), 240, "{label:?}");
                assert_eq!(r.outcomes.delivered, 240, "{label:?}");
                assert_eq!(r.orphaned, r.requeued, "{label:?}");
                // The crash at 2 ms precedes the warm-up cut (a fifth
                // of the ~20 ms arrival span): it counts nowhere.
                assert_eq!(r.workers_crashed, 0, "{label:?}");
            }
        }

        #[test]
        fn crash_with_revive_reboots_inline() {
            let mut c = ips_no_steal(2);
            c.faults = crash(1, 3_000.0, Some(6_000.0));
            let (r, rec) = run_native_recorded(&c, backlog_on_worker_1(200));
            // A reboot is a crash that orphans nothing: the worker
            // rejoins with cold caches and keeps processing.
            assert_eq!((r.workers_crashed, r.orphaned, r.requeued), (1, 0, 0));
            assert_eq!(r.outcomes.total(), 200);
            assert_eq!(r.outcomes.delivered, 200);
            let down = rec.events.iter().any(
                |e| matches!(*e, ObsEvent::WorkerDown { t_us, worker } if worker == 1 && t_us == 3_000.0),
            );
            let up = rec.events.iter().any(
                |e| matches!(*e, ObsEvent::WorkerUp { t_us, worker } if worker == 1 && t_us == 6_000.0),
            );
            assert!(down && up, "the reboot must be visible in the trace");
            // The backlog guarantees work straddles the window, so the
            // displaced restart shows up as added delay.
            assert!(r.max_delay_us > 3_000.0);
        }

        #[test]
        fn stall_displaces_and_slowdown_scales() {
            let base = {
                let c = cfg(1, PolicySpec::Locking);
                run_native(&c, small_workload(2, 40))
            };
            // A single long stall: same work, later completions.
            let mut c = cfg(1, PolicySpec::Locking);
            c.faults = ProcFaultPlan {
                faults: vec![ProcFault {
                    proc: 0,
                    at_us: 1_000.0,
                    kind: ProcFaultKind::Stall {
                        duration_us: 5_000.0,
                    },
                }],
            };
            let stalled = run_native(&c, small_workload(2, 40));
            assert_eq!(stalled.outcomes.delivered, 80);
            assert_eq!((stalled.workers_crashed, stalled.orphaned), (0, 0));
            assert!(
                stalled.mean_delay_us > base.mean_delay_us,
                "a stall window must push completions back: {} vs {}",
                stalled.mean_delay_us,
                base.mean_delay_us
            );
            // A 2× slow core: same packets, double the modeled service.
            let mut c = cfg(1, PolicySpec::Locking);
            c.faults = ProcFaultPlan {
                faults: vec![ProcFault {
                    proc: 0,
                    at_us: 0.0,
                    kind: ProcFaultKind::Slowdown { factor: 2.0 },
                }],
            };
            let slow = run_native(&c, small_workload(2, 40));
            let ratio = slow.mean_service_us / base.mean_service_us;
            assert!(
                (1.8..=2.2).contains(&ratio),
                "slowdown should double modeled service, got ×{ratio:.3}"
            );
        }

        #[test]
        fn crash_runs_replay_the_conserved_structure() {
            // No-steal + per-worker rings: dispatch, the fatal-job
            // decision and recovery (sorted by seq) are plan-driven, and
            // each worker prices on its own stack, so a faulted run
            // replays whole.
            let mut c = ips_no_steal(2);
            c.faults = crash(1, 3_080.0, None);
            let a = run_native(&c, backlog_on_worker_1(200));
            let b = run_native(&c, backlog_on_worker_1(200));
            assert!(a.orphaned > 0);
            assert_eq!(a, b);
        }

        #[test]
        fn recorded_fault_runs_balance_the_conservation_ledger() {
            // Seeded heavy fault plans across every policy rung: the
            // merged trace's counters must balance — every arrival
            // completes exactly once, and every orphan is requeued.
            let workload = small_workload(8, 40);
            let horizon = workload.last().unwrap().arrival_us;
            for policy in PolicySpec::ALL {
                let mut c = cfg(4, policy);
                c.faults =
                    ProcFaultPlan::seeded(0xFA17, 4, (0.2 * horizon, horizon), &FaultLoad::heavy());
                let (r, rec) = run_native_recorded(&c, workload.clone());
                let cs = &rec.counters;
                assert_eq!(cs.enqueued, r.offered, "{policy:?}");
                assert_eq!(cs.completed, r.offered, "{policy:?}");
                assert_eq!(cs.in_flight(), 0, "{policy:?}");
                assert_eq!(cs.orphaned, r.orphaned, "{policy:?}");
                assert_eq!(cs.requeued, r.requeued, "{policy:?}");
                assert_eq!(cs.orphaned, cs.requeued, "{policy:?}");
                assert_eq!(r.outcomes.total(), r.offered, "{policy:?}");
                // No packet completes twice: every seq's Complete is
                // unique in the merged stream.
                let mut seen = std::collections::HashSet::new();
                for e in &rec.events {
                    if let ObsEvent::Complete { seq, .. } = *e {
                        assert!(seen.insert(seq), "{policy:?}: double completion of {seq}");
                    }
                }
            }
        }
    }
}
