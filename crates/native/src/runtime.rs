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
//! run-queues (DESIGN.md §9); [`run_native`] replays a pre-generated
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
use afs_xkernel::driver::PacketFactory;
use afs_xkernel::engine::CostModel;
use afs_xkernel::StreamId;
use rand::rngs::StdRng;
use rand::Rng;

use crate::dispatch::{dispatch, Arrival, Pipeline};
use crate::pin::{CorePinner, NoopPinner, OsPinner};

/// Whether workers attempt to pin themselves to cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pinning {
    /// Try `sched_setaffinity`; record failure and continue unpinned
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
    /// Per-ring capacity (the dispatcher blocks when full — lossless).
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
    /// stream, the legacy layout). `Some(m)` demultiplexes flows onto
    /// `flow % m` UDP sessions — how a real host carries 10⁵–10⁶ flows
    /// over a bounded session table (and over the driver's 16-bit port
    /// space, which caps distinct native sessions near 60 000). The
    /// workload generator must be built with the same `m`
    /// ([`zipf_workload`] takes it as a parameter).
    pub session_space: Option<u32>,
    /// Dequeue batch bound. `1` (the default) is the historical
    /// per-packet path. `> 1` turns on train pops: a worker claims up to
    /// `batch` already-published packets from its ring in one
    /// synchronized [`RingQueue::pop_batch`][crate::ring::RingQueue::pop_batch]
    /// operation. Result-transparent — `RunReport`s and ledgers are
    /// bit-identical across batch sizes, which the differential tests
    /// pin. Every layout honours the bound: steering is recomputed per
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
    let mut packets = PacketFactory::new();
    let mut all = Vec::with_capacity(streams as usize * packets_per_stream as usize);
    for s in 0..streams {
        let mut rng = factory.stream(&format!("native-arrivals-{s}"));
        let mut t = 0.0f64;
        for _ in 0..packets_per_stream {
            t += exp.sample(&mut rng);
            all.push(NativePacket {
                bytes: packets.frame_for(StreamId(s), payload_bytes),
                stream: StreamId(s),
                arrival_us: t,
            });
        }
    }
    all.sort_by(|a, b| a.arrival_us.total_cmp(&b.arrival_us));
    all
}

/// Build a Zipf-popularity workload: `total_packets` packets offered at
/// `aggregate_rate_pps` across `streams` flows whose per-flow shares
/// follow [`afs_workload::zipf_weights`]`(streams, alpha)`. Arrivals
/// come in geometric batches of mean `batch_mean` (1 = pure Poisson);
/// each batch belongs to one flow drawn categorically by weight. By
/// Poisson superposition this is the same law as the simulator's
/// [`afs_workload::Population::zipf_bursty`] — the superposed per-flow
/// compound-Poisson processes *are* an aggregate compound-Poisson
/// process whose batch marks are weight-distributed — generated in one
/// stream instead of 10⁵ so the native replay scales to million-flow
/// populations.
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
/// materializing `Vec::with_capacity(total_packets)` up front. The draw
/// order (gap, categorical flow, full geometric burst — then emit the
/// burst's packets) matches the batch builder's exactly, so for the same
/// parameters the n-th packet from this generator is byte- and
/// stamp-identical to `zipf_workload(..)[n]`; [`zipf_workload`] is
/// itself implemented on top of this type to keep that true by
/// construction.
pub struct ZipfPacketGen {
    cum: Vec<f64>,
    sessions: u32,
    payload_bytes: usize,
    gaps_rng: StdRng,
    flow_rng: StdRng,
    batch_rng: StdRng,
    gap: Dist,
    p_more: f64,
    batch_mean: f64,
    factory: PacketFactory,
    t: f64,
    pending_flow: u32,
    pending: u64,
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
        assert!(streams >= 1 && aggregate_rate_pps > 0.0 && batch_mean >= 1.0);
        let weights = afs_workload::zipf_weights(streams as usize, alpha);
        let mut cum = Vec::with_capacity(weights.len());
        let mut acc = 0.0f64;
        for w in &weights {
            acc += w;
            cum.push(acc);
        }
        let factory = RngFactory::new(seed);
        ZipfPacketGen {
            cum,
            sessions: session_space.unwrap_or(streams).max(1),
            payload_bytes,
            gaps_rng: factory.stream("native-zipf-gaps"),
            flow_rng: factory.stream("native-zipf-flows"),
            batch_rng: factory.stream("native-zipf-batches"),
            gap: Dist::exponential(batch_mean * 1e6 / aggregate_rate_pps),
            p_more: 1.0 - 1.0 / batch_mean,
            batch_mean,
            factory: PacketFactory::new(),
            t: 0.0,
            pending_flow: 0,
            pending: 0,
        }
    }

    /// Draw the next packet, building its frame in place into `buf`
    /// (cleared first; allocation-free once the buffer's capacity covers
    /// the frame). Returns the packet's flow id and arrival stamp.
    pub fn next_into(&mut self, buf: &mut Vec<u8>) -> (StreamId, f64) {
        if self.pending == 0 {
            self.t += self.gap.sample(&mut self.gaps_rng);
            // Categorical flow draw by cumulative weight (binary search).
            let u: f64 = self.flow_rng.gen_range(0.0..1.0);
            self.pending_flow = self
                .cum
                .partition_point(|&c| c <= u)
                .min(self.cum.len() - 1) as u32;
            // Geometric batch on {1, 2, …} with mean `batch_mean`: the
            // whole burst arrives back-to-back on the wire, all of one
            // flow — the arrival pattern that turns a mid-burst rebind
            // into reordering.
            let mut burst = 1u64;
            while self.batch_mean > 1.0 && self.batch_rng.gen_range(0.0..1.0) < self.p_more {
                burst += 1;
            }
            self.pending = burst;
        }
        self.pending -= 1;
        self.factory.frame_into(
            StreamId(self.pending_flow % self.sessions),
            self.payload_bytes,
            buf,
        );
        (StreamId(self.pending_flow), self.t)
    }
}

/// Per-worker telemetry (hardware-agnostic: all counters come from the
/// runtime and the simulated hierarchy, never from host PMUs).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkerStats {
    /// Worker index.
    pub worker: usize,
    /// The core this worker asked for.
    pub core: usize,
    /// Whether the affinity syscall took effect.
    pub pinned: bool,
    /// Packets this worker processed.
    pub processed: u64,
    /// Packets it delivered to a user queue.
    pub delivered: u64,
    /// Packets it stole from other workers' queues (IPS only).
    pub steals: u64,
    /// Times it found the shared-stack lock already held.
    pub lock_contended: u64,
    /// Packets whose stream state last ran on a different worker.
    pub stream_migrations: u64,
    /// Packets whose thread stack last ran on a different worker.
    pub thread_migrations: u64,
    /// Deepest run-queue backlog it observed on its own queue.
    pub max_queue_depth: usize,
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
    /// Typed outcome totals (sums to `offered` — the runtime is
    /// lossless).
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
    /// Whether every worker's pin attempt succeeded.
    pub all_pinned: bool,
    /// Workers that crashed (permanent plan crashes that fired).
    pub workers_crashed: u64,
    /// Packets orphaned on crashed workers (in flight at the crash or
    /// stranded in the dead worker's ring).
    pub orphaned: u64,
    /// Orphans the watchdog re-dispatched; always equals `orphaned` —
    /// the conservation invariant the fault tests pin down.
    pub requeued: u64,
    /// Per-worker telemetry.
    pub per_worker: Vec<WorkerStats>,
    /// Delivered packets per stream (from the engines' session tables;
    /// per *session* when [`NativeConfig::session_space`] folds flows).
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

/// Run the workload under `cfg`, choosing the pinner from
/// [`NativeConfig::pinning`].
pub fn run_native(cfg: &NativeConfig, workload: Vec<NativePacket>) -> NativeReport {
    run_native_with_pinner(cfg, workload, cfg.pinning.pinner())
}

/// Run the workload with an explicit [`CorePinner`] (tests inject
/// recording or no-op pinners here).
pub fn run_native_with_pinner(
    cfg: &NativeConfig,
    workload: Vec<NativePacket>,
    pinner: &dyn CorePinner,
) -> NativeReport {
    replay(cfg, workload, pinner, None)
}

/// Run the workload and capture the unified observability trace: every
/// worker records into its own [`MemRecorder`] (no cross-thread traffic
/// on the hot path), the dispatcher records arrivals, and the slices are
/// merged into one deterministic-ordered stream on join.
///
/// All events are stamped with *virtual* time — arrival stamps and
/// worker vclocks — so host wall-clock never leaks into a trace.
pub fn run_native_recorded(
    cfg: &NativeConfig,
    workload: Vec<NativePacket>,
) -> (NativeReport, MemRecorder) {
    run_native_recorded_with_pinner(cfg, workload, cfg.pinning.pinner())
}

/// [`run_native_recorded`] with an explicit pinner (for tests).
pub fn run_native_recorded_with_pinner(
    cfg: &NativeConfig,
    workload: Vec<NativePacket>,
    pinner: &dyn CorePinner,
) -> (NativeReport, MemRecorder) {
    let mut out = MemRecorder::new();
    let report = replay(cfg, workload, pinner, Some(&mut out));
    (report, out)
}

/// Replay as a run of the shared pipeline: a materialized arrival
/// source, no admission bound (a full ring blocks the dispatcher, so
/// nothing is dropped), and a statistics window that opens
/// [`NativeConfig::warmup_frac`] of the way through the arrival horizon.
fn replay(
    cfg: &NativeConfig,
    workload: Vec<NativePacket>,
    pinner: &dyn CorePinner,
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
        pinner,
        flows,
        admit: None,
        obs,
        pool: None,
        tick: None,
    };
    let t = dispatch(pipeline, arrivals);
    NativeReport {
        policy: cfg.spec.label(),
        workers: cfg.workers,
        offered: t.ledger.offered,
        outcomes: t.outcomes,
        mean_delay_us: t.delay.mean(),
        mean_service_us: t.service.mean(),
        mean_wait_us: t.wait.mean(),
        max_delay_us: t.delay.max(),
        recorded: t.delay.count(),
        steals: t.per_worker.iter().map(|s| s.steals).sum(),
        stream_migrations: t.per_worker.iter().map(|s| s.stream_migrations).sum(),
        thread_migrations: t.per_worker.iter().map(|s| s.thread_migrations).sum(),
        last_arrival_us: t.ledger.last_arrival_us,
        makespan_us: t.makespan_us(),
        all_pinned: t.per_worker.iter().all(|s| s.pinned),
        workers_crashed: t.workers_crashed,
        orphaned: t.ledger.orphaned,
        requeued: t.ledger.requeued,
        per_stream_delivered: t.per_session_delivered(),
        table_misses: t.table_misses,
        rebinds: t.rebinds,
        ooo_deliveries: 0,
        per_worker: t.per_worker,
    }
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
        let mut c = cfg(2, PolicySpec::Ips);
        c.queue_capacity = 16; // keep the ring backlog visible to thieves
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
            assert_eq!(c.stolen_dispatches, r.steals, "{policy:?}");
            assert_eq!(c.stream_migrations, r.stream_migrations, "{policy:?}");
            assert_eq!(c.thread_migrations, r.thread_migrations, "{policy:?}");
            assert_eq!(c.completed_ok, r.outcomes.delivered, "{policy:?}");
            assert_eq!(
                c.flushes,
                r.stream_migrations + r.thread_migrations,
                "{policy:?}"
            );
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
        // IPS without stealing is deterministic (per-queue FIFO, no
        // cross-worker races), so the recorder must reproduce the
        // unobserved report exactly — except `max_queue_depth`, which
        // samples queue length at pop time and therefore races against
        // the dispatcher's pushes at host speed.
        let w = small_workload(4, 30);
        let c = ips_no_steal(2);
        let mut plain = run_native(&c, w.clone());
        let (mut recorded, rec) = run_native_recorded(&c, w);
        for r in [&mut plain, &mut recorded] {
            for ws in &mut r.per_worker {
                ws.max_queue_depth = 0;
            }
        }
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
        let mut c = cfg(2, PolicySpec::Ips);
        c.queue_capacity = 16;
        let (r, rec) = run_native_recorded(&c, workload);
        assert!(r.steals > 0);
        let steal_events: Vec<_> = rec
            .events
            .iter()
            .filter_map(|e| match *e {
                ObsEvent::Steal { from, to, .. } => Some((from, to)),
                _ => None,
            })
            .collect();
        assert_eq!(steal_events.len() as u64, r.steals);
        // Both streams are owned by worker 0; only worker 1 can steal.
        assert!(steal_events.iter().all(|&(from, to)| from == 0 && to == 1));
        // Stolen packets pay the handoff lock.
        assert_eq!(rec.counters.lock_charges, r.steals);
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
                assert!(r.workers_crashed <= 1, "{label:?}");
            }
        }

        #[test]
        fn crash_with_revive_reboots_inline() {
            let mut c = ips_no_steal(2);
            c.faults = crash(1, 3_000.0, Some(6_000.0));
            let (r, rec) = run_native_recorded(&c, backlog_on_worker_1(200));
            // A reboot is not a permanent crash: nothing orphans, the
            // worker rejoins with cold caches and keeps processing.
            assert_eq!((r.workers_crashed, r.orphaned, r.requeued), (0, 0, 0));
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
            // decision, and watchdog recovery (sorted by seq) are all
            // plan-driven, so the *structure* of a faulted run — who
            // crashed, what orphaned, who processed what, where every
            // packet landed — replays exactly. Micro-timing does not:
            // once worker 0 runs diverted stream-1 work on worker 1's
            // engine while worker 1 is still draining its own backlog,
            // the two threads' host interleaving on that shared engine
            // perturbs cache warmth — a racily-attributed migration
            // charge can shift the victim's whole vclock trajectory by
            // ~10 µs. The crash instant therefore sits mid-gap between
            // job-start boundaries (~165 µs apart here), so the fatal
            // decision — and with it who orphans what — replays exactly
            // despite that slack.
            let mut c = ips_no_steal(2);
            c.faults = crash(1, 3_080.0, None);
            let a = run_native(&c, backlog_on_worker_1(200));
            let b = run_native(&c, backlog_on_worker_1(200));
            assert!(a.orphaned > 0);
            assert_eq!(a.workers_crashed, b.workers_crashed);
            assert_eq!(a.orphaned, b.orphaned);
            assert_eq!(a.requeued, b.requeued);
            assert_eq!(a.outcomes, b.outcomes);
            assert_eq!(a.per_stream_delivered, b.per_stream_delivered);
            assert_eq!(a.steals, b.steals);
            assert_eq!(a.recorded, b.recorded);
            let processed = |r: &NativeReport| {
                r.per_worker
                    .iter()
                    .map(|ws| ws.processed)
                    .collect::<Vec<_>>()
            };
            assert_eq!(processed(&a), processed(&b));
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
