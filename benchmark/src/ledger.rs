//! The traced pass: the per-layer ledger of one workload, timed from
//! outside by calling each layer's public functions.
//!
//! * **Native workloads** get a single-threaded *layer replay* of the
//!   first 20 000 packets of the workload's own input. Every 64-packet
//!   block is one root span with child spans `workload.gen →
//!   sched.steer → sched.claim → native.ring → xkernel.receive`; the
//!   replay mirrors the dispatcher and `worker_loop` stage by stage
//!   (same routing state, same claim table, same migration purges,
//!   DMA-cold packet buffers, eight rotating buffer slots, `consume()`
//!   on delivery), so its exact counters are the real run's — which the
//!   pass checks: the real entry point runs the same packets, and the
//!   replay's admitted / delivered / table-miss counts and mean modeled
//!   service time must equal its report bit for bit.
//! * **Simulator workloads** cannot be split per packet from outside, so
//!   their pass is `run_observed` (exact op counts and live-event
//!   occupancy) plus isolated per-op timings multiplied by those counts.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::time::Instant;

use afs_cache::model::DispatchPricer;
use afs_cache::sim::{HierarchyStats, MemoryHierarchy, Region};
use afs_core::sweep::rate_sweep_jobs;
use afs_core::{ExecParams, LockPolicy, Paradigm, SystemConfig};
use afs_desim::{RngFactory, SimDuration, Welford};
use afs_native::{run_native, run_serve, NativeConfig, NativePacket, RingQueue, ZipfPacketGen};
use afs_obs::MemRecorder;
use afs_sched::{Claim, ClaimTable, FrontEndState, HashedLru, Route, RouterState, SchedView as _};
use afs_workload::Population;
use afs_xkernel::driver::RxFrame;
use afs_xkernel::mem::MemLayout;
use afs_xkernel::mt::owner_of;
use afs_xkernel::{lock_overhead_cycles, ProtocolEngine, StreamId, ThreadId};
use rand::Rng;

use crate::micro;
use crate::spans::{self_times_ns, SpanRecorder};
use crate::stats;
use crate::workloads::{build, Input, Outcome, Workload};

/// Packets per traced block (one root span each).
pub const BLOCK: usize = 64;

/// Packets of the workload's input the layer replay covers at scale 1.
pub const REPLAY_PACKETS: usize = 20_000;

/// `Job::prev_*_owner` sentinel: first touch.
const NO_OWNER: u32 = u32::MAX;

/// The names of the replay's stage spans, in pipeline order.
pub const STAGES: [&str; 5] = [
    "workload.gen",
    "sched.steer",
    "sched.claim",
    "native.ring",
    "xkernel.receive",
];

/// What a traced pass produced.
#[derive(Debug, Default)]
pub struct Ledger {
    /// `(metric name, value)` for every per-layer metric measured; the
    /// rest read 0.
    pub values: Vec<(&'static str, f64)>,
    /// `(metric name, why it was not measured)`.
    pub unmeasured: Vec<(&'static str, String)>,
    /// Correctness-gate findings (empty = clean).
    pub problems: Vec<String>,
    /// Packets the untraced reference run gave a verdict.
    pub attempted: u64,
    /// Operations failed in the reference run.
    pub failed: u64,
    /// The pass's spans (written out as a Chrome trace by the caller).
    pub spans: Option<SpanRecorder>,
}

impl Ledger {
    fn set(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    /// The value recorded for `name` (0 when the workload does not
    /// exercise that layer).
    pub fn get(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t = Instant::now();
    let r = f();
    (t.elapsed().as_secs_f64(), r)
}

/// Run the traced pass of `workload`.
pub fn traced_pass(workload: Workload, seed: u64, workers: usize, scale: f64) -> Ledger {
    let mut ledger = Ledger::default();
    ledger.set("trace.timer_ns", crate::spans::timer_cost_ns());
    let input = build(workload, seed, workers, scale);
    // The untraced reference every traced number is compared with: the
    // entry point's fixed cost (one-packet horizon), then the faster of
    // two timed runs (the first doubles as the host warm-up) — the
    // ledger is compared with what the code costs, not with what a
    // neighbour cost it.
    let (fixed_s, _) = timed(|| input.one_packet().execute());
    let (wall_a, reference) = timed(|| input.clone().execute());
    let (wall_b, again) = timed(|| input.clone().execute());
    let wall = wall_a.min(wall_b);
    if let Some(diff) = reference.first_difference(&again) {
        ledger
            .problems
            .push(format!("two runs of one (config, seed) differ in {diff}"));
    }
    ledger.set("ledger.fixed_s", fixed_s);
    ledger.attempted = reference.offered;
    ledger.failed = reference.failed;
    ledger.problems.extend(reference.problems.iter().cloned());
    ledger.set("ledger.untraced_wall_s", wall);
    ledger.set("virt_drop_frac", reference.drop_frac());
    ledger.set("failed_frac", reference.failed_frac());
    let kpkt = reference.offered.max(1) as f64 / 1e3;
    ledger.set("sched.rebinds_per_kpkt", reference.rebinds as f64 / kpkt);
    ledger.set(
        "sched.migrations_per_kpkt",
        reference.migrations as f64 / kpkt,
    );
    let t_pass = Instant::now();
    match input {
        Input::Sim(cfg) => sim_pass(&mut ledger, &cfg, &reference, wall, seed, scale),
        Input::Serve(cfg) => {
            ledger.set("sched.steals_per_kpkt", reference.steals as f64 / kpkt);
            ledger.set("native.worker_imbalance", reference.worker_imbalance());
            let make_source = || Source::Serve {
                gen: Box::new(ZipfPacketGen::new(
                    cfg.streams,
                    cfg.offered_pps,
                    cfg.alpha,
                    cfg.batch_mean,
                    cfg.native.session_space,
                    cfg.payload_bytes,
                    cfg.native.seed,
                )),
                payload: cfg.payload_bytes,
            };
            let shape = Shape {
                native: cfg.native.clone(),
                streams: cfg.streams,
                alpha: cfg.alpha,
                payload: cfg.payload_bytes,
                admission: true,
                offered: cfg.total_packets,
            };
            let real_prefix = |packets: usize| {
                let mut c = cfg.clone();
                c.total_packets = packets as u64;
                c.warmup_packets = 0;
                let r = run_serve(&c, None);
                PrefixCounters {
                    offered: r.offered,
                    admitted: r.admitted,
                    delivered: r.outcomes.delivered,
                    table_misses: r.table_misses,
                    mean_service_us: r.mean_service_us,
                }
            };
            native_pass(
                &mut ledger,
                &shape,
                &make_source,
                &real_prefix,
                &reference,
                seed,
                scale,
            );
        }
        Input::Replay { cfg, packets, .. } => {
            ledger.set("sched.steals_per_kpkt", reference.steals as f64 / kpkt);
            ledger.set("native.worker_imbalance", reference.worker_imbalance());
            ledger.set(
                "obs.events_per_pkt",
                reference.recorded_events as f64 / reference.offered.max(1) as f64,
            );
            ledger.set(
                "obs.record_ns_per_event",
                micro::record_ns_per_event(scaled(3_000_000, scale)),
            );
            // The unrecorded twin: same virtual report, and the wall
            // difference is what recording costs end to end.
            let twin = Input::Replay {
                cfg: cfg.clone(),
                packets: packets.clone(),
                recorded: false,
            };
            let (twin_a, twin_out) = timed(|| twin.clone().execute());
            let (twin_b, _) = timed(|| twin.execute());
            let twin_wall = twin_a.min(twin_b);
            if let Some(diff) = reference.first_difference(&twin_out) {
                ledger.problems.push(format!(
                    "run_native_recorded differs from run_native: {diff}"
                ));
                ledger.failed = ledger.attempted;
            }
            ledger.set("obs.trace_overhead_frac", (wall - twin_wall) / twin_wall);
            let shape = Shape {
                streams: 16,
                alpha: 0.0,
                payload: packets
                    .first()
                    .map_or(64, |p| p.bytes.len().saturating_sub(49)),
                admission: false,
                offered: packets.len() as u64,
                native: cfg,
            };
            // Replay's "generation" is the materialisation it pays before
            // the run; per packet, that is what a generator change moves.
            let (build_s, _) = timed(|| build(workload, seed, workers, scale));
            ledger.set(
                "workload.gen_ns_per_pkt",
                build_s * 1e9 / packets.len().max(1) as f64,
            );
            let replayed = packets
                .len()
                .min((REPLAY_PACKETS as f64 * scale) as usize + BLOCK);
            let make_source = || {
                let head = packets[..replayed].to_vec();
                Source::Replay {
                    packets: head.into_iter(),
                }
            };
            let real_prefix = |n: usize| {
                let mut c = shape.native.clone();
                c.warmup_frac = 0.0;
                let r = run_native(&c, packets[..n].to_vec());
                PrefixCounters {
                    offered: r.offered,
                    admitted: r.offered,
                    delivered: r.outcomes.delivered,
                    table_misses: r.table_misses,
                    mean_service_us: r.mean_service_us,
                }
            };
            native_pass(
                &mut ledger,
                &shape,
                &make_source,
                &real_prefix,
                &reference,
                seed,
                scale,
            );
        }
    }
    ledger.set("ledger.traced_wall_s", t_pass.elapsed().as_secs_f64());
    ledger
}

fn scaled(n: u64, scale: f64) -> u64 {
    ((n as f64 * scale) as u64).max(1_000)
}

// ---------------------------------------------------------------------
// Simulator workloads
// ---------------------------------------------------------------------

fn sim_pass(
    ledger: &mut Ledger,
    cfg: &SystemConfig,
    reference: &Outcome,
    wall: f64,
    seed: u64,
    scale: f64,
) {
    let mut spans = SpanRecorder::new(true);
    let root = spans.begin("sim.traced_pass", None, 0);
    let mut block = 0u32;
    let mut measure = |spans: &mut SpanRecorder, name: &'static str| {
        block += 1;
        spans.begin(name, Some(root), block)
    };

    // The observed twin: exact op counts, live-event occupancy, and —
    // being the same run with a recorder attached — the tracing overhead.
    let s = measure(&mut spans, "core.run_observed");
    let mut rec = MemRecorder::with_event_capacity(1 << 16);
    let (obs_wall, (report, probe)) = timed(|| afs_core::sim::run_observed(cfg, &mut rec));
    spans.end(s);
    let observed = crate::workloads::sim_outcome(&report);
    if let Some(diff) = reference.first_difference(&observed) {
        ledger
            .problems
            .push(format!("run_observed differs from run: {diff}"));
        ledger.failed = ledger.attempted;
    }
    let verdicts = reference.offered.max(1) as f64;
    let events = rec.events.len() as u64 + rec.dropped_events();
    let overhead = (obs_wall - wall) / wall;
    ledger.set("desim.events_per_pkt", probe.steps as f64 / verdicts);
    ledger.set("desim.pending_mean", probe.pending.mean());
    ledger.set("desim.pending_max", probe.max_pending as f64);
    ledger.set("obs.events_per_pkt", events as f64 / verdicts);
    ledger.set("obs.trace_overhead_frac", overhead);
    ledger.set("trace.overhead_frac", overhead);
    ledger.set(
        "core.sim_ns_per_event",
        wall * 1e9 / probe.steps.max(1) as f64,
    );
    ledger.set(
        "sched.steals_per_kpkt",
        rec.counters.steals as f64 / (verdicts / 1e3),
    );
    ledger.set("xkernel.modeled_service_us", reference.mean_service_us);
    ledger.set(
        "xkernel.delivered_frac",
        reference.delivered as f64 / verdicts,
    );

    // Isolated per-op timings, each at this workload's operating point.
    let s = measure(&mut spans, "desim.event_queue");
    let pending = probe.pending.mean().round().max(1.0) as usize;
    let event_ns = micro::event_ns_per_op(pending, scaled(2_000_000, scale), seed);
    spans.end(s);
    let s = measure(&mut spans, "desim.stats");
    let stats_ns = micro::stats_ns_per_record(scaled(4_000_000, scale), seed);
    spans.end(s);
    let s = measure(&mut spans, "cache.pricer");
    let pricer = DispatchPricer::new(&cfg.exec.model);
    let (disp_ns, pricer_ns) = micro::pricer_ns_per_call(&pricer, scaled(2_000_000, scale), seed);
    spans.end(s);
    let s = measure(&mut spans, "workload.arrivals");
    let arrival_ns = micro::arrival_ns_per_gap(
        cfg.population.streams[0].arrivals.clone(),
        scaled(4_000_000, scale),
        seed,
    );
    spans.end(s);
    let s = measure(&mut spans, "obs.record");
    ledger.set(
        "obs.record_ns_per_event",
        micro::record_ns_per_event(scaled(3_000_000, scale)),
    );
    spans.end(s);
    ledger.set("desim.event_ns_per_op", event_ns);
    ledger.set("desim.stats_ns_per_record", stats_ns);
    ledger.set("cache.displacement_ns_per_call", disp_ns);
    ledger.set("cache.pricer_ns_per_call", pricer_ns);
    ledger.set("workload.arrival_ns_per_gap", arrival_ns);

    // Flow-scale extras: the NIC steering table and the resident-set
    // LRU exist only when the configuration carries them.
    let mut steer_ns = 0.0;
    let mut lru_ns = 0.0;
    if let Some(plan) = cfg.frontend {
        let s = measure(&mut spans, "sched.steer");
        let n_flows = cfg.n_streams() as u32;
        let keys = micro::zipf_keys(n_flows, 1.1, seed);
        let rate = cfg.population.total_rate_per_sec();
        steer_ns = steer_ns_per_pkt(
            plan,
            cfg.n_procs,
            &pricer,
            &keys,
            n_flows,
            1e6 / rate,
            scaled(1_000_000, scale),
            seed,
        );
        spans.end(s);
        let s = measure(&mut spans, "sched.lru");
        let caps = [
            plan.config.table_capacity,
            cfg.stream_cache.unwrap_or(plan.config.table_capacity),
        ];
        lru_ns = micro::lru_ns_per_op(&caps, &keys, scaled(2_000_000, scale));
        spans.end(s);
        ledger.set("sched.steer_ns_per_pkt", steer_ns);
        ledger.set("sched.lru_ns_per_op", lru_ns);
        ledger.set(
            "sched.table_hit_frac",
            1.0 - reference.table_misses as f64 / report.offered_total.max(1) as f64,
        );
    }

    // The ledger: layer ns × exact op count, against the untraced wall.
    let attributed = 2.0 * probe.steps as f64 * event_ns
        + report.completed_total as f64 * (stats_ns + pricer_ns + lru_ns)
        + report.offered_total as f64 * (arrival_ns + steer_ns);
    ledger.set("core.unattributed_frac", 1.0 - attributed / (wall * 1e9));

    let s = measure(&mut spans, "core.par_sweep");
    match par_speedup(seed) {
        Ok(x) => ledger.set("core.par_speedup", x),
        Err(why) => ledger.unmeasured.push(("core.par_speedup", why)),
    }
    spans.end(s);
    spans.end(root);
    ledger.spans = Some(spans);
}

/// `FrontEndState::route_flow` + `RouterState::note_routed` (+ the Flow
/// Director completion feedback that keeps its table learning) over a
/// Zipf flow sequence arriving every `gap_us`.
#[allow(clippy::too_many_arguments)]
fn steer_ns_per_pkt(
    plan: afs_sched::FrontEndPlan,
    workers: usize,
    pricer: &DispatchPricer,
    keys: &[u32],
    n_flows: u32,
    gap_us: f64,
    packets: u64,
    seed: u64,
) -> f64 {
    let mut place = RngFactory::new(seed).stream("bench-placement");
    let mut rstate = RouterState::new(workers, pricer.t_warm_us());
    rstate.reserve_flows(n_flows);
    let mut fes = FrontEndState::new(plan);
    fes.reserve_flows(n_flows);
    let mut feedback: BinaryHeap<Reverse<(u64, u64, u32, u32)>> = BinaryHeap::new();
    let mut t_us = 0.0;
    let t = Instant::now();
    for seq in 0..packets {
        t_us += gap_us;
        let flow = keys[seq as usize % keys.len()];
        while let Some(&Reverse((bits, _, s, w))) = feedback.peek() {
            if f64::from_bits(bits) > t_us {
                break;
            }
            fes.note_complete(s, w);
            feedback.pop();
        }
        let route = fes.route_flow(
            &rstate.view_at(t_us),
            flow,
            &mut |n| place.gen_range(0..n),
            pricer,
        );
        let target = match route {
            Route::Worker(w) => w,
            Route::Shared => 0,
        };
        rstate.note_routed(flow, target, t_us);
        if fes.wants_completion_feedback() {
            feedback.push(Reverse((
                rstate.vfinish_us(target).to_bits(),
                seq,
                flow,
                target as u32,
            )));
        }
    }
    std::hint::black_box(fes.rebinds);
    t.elapsed().as_nanos() as f64 / packets.max(1) as f64
}

/// Serial ÷ parallel wall of the 8-point MRU rate sweep, with the two
/// series asserted bit-identical. `Err` (never a 1.0× placeholder) when
/// the host cannot run two jobs at once.
fn par_speedup(seed: u64) -> Result<f64, String> {
    let nproc = crate::host::nproc();
    if nproc < 2 {
        return Err(format!(
            "nproc = {nproc}: a parallel speed-up is not measurable"
        ));
    }
    let jobs = nproc.min(4);
    let mut tpl = SystemConfig::new(
        Paradigm::Locking {
            policy: LockPolicy::Mru,
        },
        Population::homogeneous_poisson(16, 100.0),
    );
    tpl.n_procs = 8;
    tpl.seed = seed;
    tpl.warmup = SimDuration::from_millis(300);
    tpl.horizon = SimDuration::from_millis(2_300);
    let rates: Vec<f64> = (1..=8).map(|i| 250.0 * i as f64).collect();
    let (t_serial, serial) = timed(|| rate_sweep_jobs(1, "mru", &tpl, &rates));
    let (t_par, par) = timed(|| rate_sweep_jobs(jobs, "mru", &tpl, &rates));
    let identical = serial
        .points
        .iter()
        .zip(&par.points)
        .all(|(a, b)| a.report == b.report);
    if !identical {
        return Err("parallel sweep is not bit-identical to the serial sweep".into());
    }
    Ok(t_serial / t_par.max(1e-9))
}

// ---------------------------------------------------------------------
// Native workloads: the layer replay
// ---------------------------------------------------------------------

/// Where the replay's packets come from.
enum Source {
    /// The serving path's open-loop generator.
    Serve {
        gen: Box<ZipfPacketGen>,
        payload: usize,
    },
    /// The replay path's materialised arrival sequence.
    Replay {
        packets: std::vec::IntoIter<NativePacket>,
    },
}

/// What the replay needs to know about the workload besides packets.
struct Shape {
    native: NativeConfig,
    streams: u32,
    alpha: f64,
    payload: usize,
    /// Serving applies virtual-domain taildrop; replay admits all.
    admission: bool,
    /// Packets the full workload offers.
    offered: u64,
}

/// The replay's unit of work between stages (the runtime's `Job`, which
/// is crate-private there).
struct Job {
    bytes: Vec<u8>,
    stream: u32,
    arrival_us: f64,
    seq: u64,
    thread: u32,
    home_stack: u32,
    prev_stream_owner: u32,
    prev_thread_owner: u32,
    claimant: usize,
}

/// Exact counters and per-stage wall of one replay.
#[derive(Debug, Default)]
struct ReplayResult {
    offered: u64,
    admitted: u64,
    delivered: u64,
    /// Modeled service time per packet, one accumulator per worker,
    /// merged in worker order as the runtime merges its workers'.
    service: Vec<Welford>,
    table_hits: u64,
    table_misses: u64,
    hier: Vec<HierarchyStats>,
    /// Packets each stage handled, per block (`STAGES` order).
    block_counts: Vec<[u32; 5]>,
    wall_s: f64,
}

impl ReplayResult {
    /// What the real entry point must report over the same packets.
    fn counters(&self) -> PrefixCounters {
        let mut service = Welford::new();
        for w in &self.service {
            service.merge(w);
        }
        PrefixCounters {
            offered: self.offered,
            admitted: self.admitted,
            delivered: self.delivered,
            table_misses: self.table_misses,
            mean_service_us: service.mean(),
        }
    }
}

/// The exact counters the layer replay and the real entry point must
/// agree on over one packet prefix (warm-up 0, so every packet counts).
#[derive(Debug, Clone, Copy)]
struct PrefixCounters {
    offered: u64,
    admitted: u64,
    delivered: u64,
    table_misses: u64,
    mean_service_us: f64,
}

impl PrefixCounters {
    /// The first counter on which `self` (the replay) and `real` differ.
    fn first_difference(&self, real: &PrefixCounters) -> Option<String> {
        let counts = [
            ("offered", self.offered, real.offered),
            ("admitted", self.admitted, real.admitted),
            ("delivered", self.delivered, real.delivered),
            ("table_misses", self.table_misses, real.table_misses),
            (
                "mean_service_us (bits)",
                self.mean_service_us.to_bits(),
                real.mean_service_us.to_bits(),
            ),
        ];
        counts
            .into_iter()
            .find(|(_, replay, real)| replay != real)
            .map(|(name, replay, real)| format!("{name}: replay {replay} vs real run {real}"))
    }
}

/// Everything mutable the replay carries across blocks: the
/// dispatcher's routing state and one modeled worker per `W`.
struct Replay<'a> {
    shape: &'a Shape,
    pricer: DispatchPricer,
    place: rand::rngs::StdRng,
    rstate: RouterState,
    fes: Option<FrontEndState>,
    feedback: BinaryHeap<Reverse<(u64, u64, u32, u32)>>,
    claims: Option<ClaimTable>,
    steal_mode: bool,
    staged: HashMap<u64, Job>,
    resolved: Vec<Claim>,
    prev_stream: Vec<u32>,
    prev_thread: Vec<u32>,
    ring: RingQueue<Job>,
    pool: Vec<Vec<u8>>,
    engines: Vec<ProtocolEngine>,
    hiers: Vec<MemoryHierarchy>,
    residents: Vec<Option<HashedLru<()>>>,
    slots: Vec<u32>,
    sessions: u32,
    layout: MemLayout,
    lock_cycles: f64,
    seq: u64,
    out: ReplayResult,
}

impl<'a> Replay<'a> {
    fn new(shape: &'a Shape) -> Self {
        let n = &shape.native;
        let w = n.workers;
        let sessions = match n.session_space {
            Some(m) => m.min(shape.streams.max(1)),
            None => shape.streams,
        };
        let shared = n.layout.shared_stack;
        let engines = (0..if shared { 1 } else { w })
            .map(|stack| {
                let mut e = ProtocolEngine::new(n.cost);
                for s in 0..sessions {
                    if shared || owner_of(StreamId(s), w) == stack {
                        e.bind_stream(StreamId(s));
                    }
                }
                e
            })
            .collect();
        let pricer = DispatchPricer::new(&ExecParams::calibrated().model);
        let frontend_on = n.frontend.is_some();
        let pooled = n.layout.pooled_queue && (shape.admission || !frontend_on);
        let steal = n.layout.steal.filter(|_| shape.admission || !frontend_on);
        let claims = if pooled {
            Some(ClaimTable::pooled(w, pricer.t_warm_us()))
        } else {
            steal.map(|sp| ClaimTable::stealing(w, pricer.t_warm_us(), sp))
        };
        let mut rstate = RouterState::new(w, pricer.t_warm_us());
        rstate.reserve_flows(shape.streams);
        Replay {
            shape,
            pricer,
            place: RngFactory::new(n.seed).stream("native-placement"),
            rstate,
            fes: n.frontend.map(|plan| {
                let mut fes = FrontEndState::new(plan);
                fes.reserve_flows(shape.streams);
                fes
            }),
            feedback: BinaryHeap::new(),
            steal_mode: claims.is_some() && !pooled,
            claims,
            staged: HashMap::new(),
            resolved: Vec::new(),
            prev_stream: vec![NO_OWNER; shape.streams as usize],
            prev_thread: vec![NO_OWNER; w],
            ring: RingQueue::with_capacity((2 * BLOCK).next_power_of_two().max(n.batch)),
            pool: Vec::new(),
            engines,
            hiers: (0..w).map(|_| n.cost.hierarchy()).collect(),
            residents: (0..w)
                .map(|_| {
                    n.stream_cache
                        .map(|cap| HashedLru::new((cap / w.max(1)).max(1)))
                })
                .collect(),
            slots: vec![0; w],
            sessions: sessions.max(1),
            layout: MemLayout::new(),
            lock_cycles: lock_overhead_cycles(&n.cost),
            seq: 0,
            out: ReplayResult {
                service: vec![Welford::new(); w],
                ..ReplayResult::default()
            },
        }
    }

    /// `workload.gen`: the next `n` packets, frames built in place.
    fn generate(&mut self, source: &mut Source, n: usize, into: &mut Vec<(Vec<u8>, u32, f64)>) {
        match source {
            Source::Serve { gen, payload } => {
                for _ in 0..n {
                    let mut buf = self
                        .pool
                        .pop()
                        .unwrap_or_else(|| Vec::with_capacity(*payload + 64));
                    let (stream, t) = gen.next_into(&mut buf);
                    into.push((buf, stream.0, t));
                }
            }
            Source::Replay { packets } => {
                into.extend(packets.take(n).map(|p| (p.bytes, p.stream.0, p.arrival_us)));
            }
        }
    }

    /// `sched.steer`: completion feedback, the steering decision, and —
    /// on the serving path — virtual-domain admission. Returns the
    /// routed target, or `None` for a tail-dropped packet.
    fn steer(&mut self, stream: u32, arrival_us: f64) -> Option<(usize, Route)> {
        let n = &self.shape.native;
        let place = &mut self.place;
        let route = match self.fes.as_mut() {
            Some(fes) => {
                while let Some(&Reverse((bits, _, s, wkr))) = self.feedback.peek() {
                    if f64::from_bits(bits) > arrival_us {
                        break;
                    }
                    fes.note_complete(s, wkr);
                    self.feedback.pop();
                }
                fes.route_flow(
                    &self.rstate.view_at(arrival_us),
                    stream,
                    &mut |k| place.gen_range(0..k),
                    &self.pricer,
                )
            }
            None => n.layout.router.route(
                &self.rstate.view_at(arrival_us),
                stream,
                &mut |k| place.gen_range(0..k),
                &self.pricer,
            ),
        };
        let target = match route {
            Route::Worker(t) => {
                let full = self.shape.admission
                    && self.rstate.view_at(arrival_us).queue_depth(t) >= n.queue_capacity;
                if full {
                    return None;
                }
                self.rstate.note_routed(stream, t, arrival_us);
                t
            }
            Route::Shared => {
                let tbl = self
                    .claims
                    .as_ref()
                    .expect("shared routes need a pooled table");
                if self.shape.admission && tbl.min_model_depth(arrival_us) >= n.queue_capacity {
                    return None;
                }
                0
            }
        };
        if let (Some(fes), Route::Worker(_)) = (self.fes.as_ref(), route) {
            if fes.wants_completion_feedback() {
                self.feedback.push(Reverse((
                    self.rstate.vfinish_us(target).to_bits(),
                    self.seq,
                    stream,
                    target as u32,
                )));
            }
        }
        Some((target, route))
    }

    /// Stamp previous owners in claim order and hand the job on.
    fn deliver(&mut self, mut job: Job, claimant: usize, ready: &mut Vec<Job>) {
        let slot = &mut self.prev_stream[job.stream as usize];
        job.prev_stream_owner = *slot;
        *slot = claimant as u32;
        let tid = if job.thread == u32::MAX {
            claimant
        } else {
            job.thread as usize
        };
        let tslot = &mut self.prev_thread[tid];
        job.prev_thread_owner = *tslot;
        *tslot = claimant as u32;
        job.claimant = claimant;
        ready.push(job);
    }

    /// `sched.claim`: resolve who executes the job — immediately for a
    /// routed worker or the pooled table, in total virtual order for the
    /// stealing table (which may resolve earlier staged jobs too).
    fn claim(&mut self, job: Job, target: usize, route: Route, ready: &mut Vec<Job>) {
        let (seq, arrival_us, stream) = (job.seq, job.arrival_us, job.stream);
        if self.steal_mode {
            self.staged.insert(seq, job);
            self.resolved.clear();
            let tbl = self.claims.as_mut().expect("steal mode has a table");
            tbl.offer(seq, target, arrival_us, &mut self.resolved);
            for c in std::mem::take(&mut self.resolved) {
                let job = self.staged.remove(&c.seq).expect("claimed job was staged");
                self.deliver(job, c.claimant, ready);
            }
            return;
        }
        let claimant = match (self.claims.as_mut(), route) {
            (Some(tbl), Route::Shared) => {
                self.resolved.clear();
                tbl.offer(seq, 0, arrival_us, &mut self.resolved);
                let c = self.resolved[0].claimant;
                if let Some(fes) = self.fes.as_mut() {
                    fes.note_placement(stream, c);
                }
                self.rstate.note_routed(stream, c, arrival_us);
                c
            }
            (Some(tbl), Route::Worker(_)) => {
                tbl.note_assigned(target, arrival_us);
                target
            }
            (None, _) => target,
        };
        self.deliver(job, claimant, ready);
    }

    /// `native.ring`: one push per job, trains of `batch` back out.
    fn ring(&mut self, ready: &mut Vec<Job>, popped: &mut Vec<Job>) {
        let batch = self.shape.native.batch.max(1);
        for job in ready.drain(..) {
            if let Err(job) = self.ring.push(job) {
                // Ring full: drain a train first, as a worker would.
                self.ring.pop_batch(popped, batch);
                self.ring.push(job).ok().expect("ring drained");
            }
        }
        while self.ring.pop_batch(popped, batch) > 0 {}
    }

    /// `xkernel.receive`: one packet's full processing on its
    /// claimant's modeled caches, exactly as `worker_loop` does it.
    fn receive(&mut self, job: Job) {
        let n = &self.shape.native;
        let me = job.claimant as u32;
        let hier = &mut self.hiers[job.claimant];
        let stream_bytes = n.cost.stream_read_bytes + n.cost.stream_write_bytes;
        if job.prev_stream_owner != me {
            hier.purge_range(self.layout.stream(job.stream), stream_bytes);
        }
        let tid = if job.thread == u32::MAX {
            me
        } else {
            job.thread
        };
        if job.prev_thread_owner != me {
            hier.purge_range(
                self.layout.thread(tid),
                n.cost.thread_read_bytes + n.cost.thread_write_bytes,
            );
        }
        if let Some(lru) = self.residents[job.claimant].as_mut() {
            let hit = lru.get(job.stream as u64).is_some();
            lru.insert(job.stream as u64, ());
            if !hit {
                hier.purge_range(self.layout.stream(job.stream), stream_bytes);
            }
        }
        hier.purge_region(Region::PacketData);
        let slot = &mut self.slots[job.claimant];
        let frame = RxFrame {
            bytes: job.bytes,
            stream: StreamId(job.stream % self.sessions),
            buf_addr: self.layout.packet(*slot % 8),
        };
        *slot = slot.wrapping_add(1);
        let stack = if n.layout.shared_stack {
            0
        } else if job.home_stack != u32::MAX {
            job.home_stack as usize
        } else {
            job.claimant
        };
        let start = hier.stats.cycles;
        if n.layout.shared_stack || stack != job.claimant {
            hier.charge_cycles(self.lock_cycles);
        }
        let engine = &mut self.engines[stack];
        let outcome = engine.receive_outcome(hier, &frame, ThreadId(tid));
        if outcome.is_delivered() {
            self.out.delivered += 1;
            if let Some(session) = engine.table.session_mut(frame.stream) {
                session.consume();
            }
        }
        self.out.service[job.claimant].add(hier.platform().cycles_to_us(hier.stats.cycles - start));
        self.pool.push(frame.bytes);
    }

    fn run(mut self, mut source: Source, packets: usize, spans: &mut SpanRecorder) -> ReplayResult {
        let n = self.shape.native.clone();
        let w = n.workers;
        let mut fresh: Vec<(Vec<u8>, u32, f64)> = Vec::with_capacity(BLOCK);
        let mut routed: Vec<(Job, usize, Route)> = Vec::with_capacity(BLOCK);
        let mut ready: Vec<Job> = Vec::with_capacity(2 * BLOCK);
        let mut popped: Vec<Job> = Vec::with_capacity(2 * BLOCK);
        let t0 = Instant::now();
        let mut left = packets;
        let mut block = 0u32;
        while left > 0 || self.claims.as_ref().is_some_and(|t| t.staged() > 0) {
            let take = left.min(BLOCK);
            let last = take == 0;
            let root = spans.begin("block", None, block);

            let s = spans.begin(STAGES[0], Some(root), block);
            self.generate(&mut source, take, &mut fresh);
            spans.end(s);
            let mut counts = [fresh.len() as u32; 5];
            left -= take.min(left);
            if fresh.len() < take {
                left = 0; // the source ran dry (a short replay input)
            }

            let s = spans.begin(STAGES[1], Some(root), block);
            for (bytes, stream, arrival_us) in fresh.drain(..) {
                self.out.offered += 1;
                let seq = self.seq;
                match self.steer(stream, arrival_us) {
                    None => self.pool.push(bytes),
                    Some((target, route)) => {
                        self.out.admitted += 1;
                        let thread = if n.layout.rotating_threads && n.frontend.is_none() {
                            (seq % w as u64) as u32
                        } else {
                            u32::MAX
                        };
                        let home = if n.layout.shared_stack {
                            u32::MAX
                        } else {
                            owner_of(StreamId(stream % self.sessions), w) as u32
                        };
                        let job = Job {
                            bytes,
                            stream,
                            arrival_us,
                            seq,
                            thread,
                            home_stack: home,
                            prev_stream_owner: NO_OWNER,
                            prev_thread_owner: NO_OWNER,
                            claimant: target,
                        };
                        routed.push((job, target, route));
                    }
                }
                self.seq += 1;
            }
            spans.end(s);

            counts[2] = routed.len() as u32;
            let s = spans.begin(STAGES[2], Some(root), block);
            for (job, target, route) in routed.drain(..) {
                self.claim(job, target, route, &mut ready);
            }
            if last {
                // End of input: every staged job resolves now.
                self.resolved.clear();
                let tbl = self.claims.as_mut().expect("only staged jobs reach here");
                tbl.flush(&mut self.resolved);
                for c in std::mem::take(&mut self.resolved) {
                    let job = self.staged.remove(&c.seq).expect("claimed job was staged");
                    self.deliver(job, c.claimant, &mut ready);
                }
            }
            spans.end(s);

            let s = spans.begin(STAGES[3], Some(root), block);
            self.ring(&mut ready, &mut popped);
            spans.end(s);
            counts[3] = popped.len() as u32;
            counts[4] = popped.len() as u32;
            self.out.block_counts.push(counts);

            let s = spans.begin(STAGES[4], Some(root), block);
            for job in popped.drain(..) {
                self.receive(job);
            }
            spans.end(s);

            spans.end(root);
            block += 1;
        }
        self.out.wall_s = t0.elapsed().as_secs_f64();
        if let Some(fes) = self.fes.as_ref() {
            self.out.table_hits = fes.table_hits();
            self.out.table_misses = fes.table_misses();
        }
        self.out.hier = self.hiers.iter().map(|h| h.stats).collect();
        self.out
    }
}

fn native_pass(
    ledger: &mut Ledger,
    shape: &Shape,
    make_source: &dyn Fn() -> Source,
    real_prefix: &dyn Fn(usize) -> PrefixCounters,
    reference: &Outcome,
    seed: u64,
    scale: f64,
) {
    let n = &shape.native;
    let wall = ledger.get("ledger.untraced_wall_s");
    let packets = ((REPLAY_PACKETS as f64 * scale) as usize)
        .max(BLOCK)
        .min(shape.offered as usize);

    // Twice over the same packets: once with the span clock off (the
    // untraced twin), once with it on.
    let plain = Replay::new(shape).run(make_source(), packets, &mut SpanRecorder::new(false));
    let mut spans = SpanRecorder::new(true);
    let traced = Replay::new(shape).run(make_source(), packets, &mut spans);
    let counters = traced.counters();
    if let Some(diff) = plain.counters().first_difference(&counters) {
        ledger
            .problems
            .push(format!("layer replay is not deterministic: {diff}"));
    }
    // The replay re-implements the dispatcher and `worker_loop`; the
    // real entry point over the same packets says whether it still
    // mirrors them.
    let (prefix_wall, real) = timed(|| real_prefix(packets));
    ledger.set("ledger.prefix_wall_s", prefix_wall);
    if let Some(diff) = counters.first_difference(&real) {
        ledger.problems.push(format!(
            "layer replay no longer mirrors the runtime over {packets} packets: {diff}"
        ));
    }
    ledger.set(
        "trace.overhead_frac",
        (traced.wall_s - plain.wall_s) / plain.wall_s,
    );

    // Per-stage wall from the spans: totals for the ledger, per-block
    // self time per packet for the percentiles.
    let offered = traced.offered.max(1) as f64;
    let admitted = traced.admitted.max(1) as f64;
    let selfs = self_times_ns(spans.spans());
    let mut stage_total = [0.0f64; 5];
    let mut stage_samples: [Vec<f64>; 5] = Default::default();
    let mut root_samples = Vec::new();
    for (span, self_ns) in spans.spans().iter().zip(&selfs) {
        let counts = traced.block_counts[span.block as usize];
        match STAGES.iter().position(|s| *s == span.name) {
            Some(stage) => {
                stage_total[stage] += span.duration_ns() as f64;
                if counts[stage] > 0 {
                    stage_samples[stage].push(*self_ns as f64 / counts[stage] as f64);
                }
            }
            None if counts[0] > 0 => root_samples.push(*self_ns as f64 / counts[0] as f64),
            None => {}
        }
    }
    let [gen_ns, steer_ns, claim_ns, ring_ns, receive_ns] = [
        stage_total[0] / offered,
        stage_total[1] / offered,
        stage_total[2] / admitted,
        stage_total[3] / admitted,
        stage_total[4] / admitted,
    ];
    ledger.set("span.blocks", traced.block_counts.len() as f64);
    let names: [(&'static str, &'static str); 5] = [
        ("span.gen_p50_ns", "span.gen_p95_ns"),
        ("span.steer_p50_ns", "span.steer_p95_ns"),
        ("span.claim_p50_ns", "span.claim_p95_ns"),
        ("span.ring_p50_ns", "span.ring_p95_ns"),
        ("span.receive_p50_ns", "span.receive_p95_ns"),
    ];
    for ((p50, p95), samples) in names.into_iter().zip(&stage_samples) {
        let sorted = stats::sorted(samples);
        ledger.set(p50, stats::percentile(&sorted, 50.0).unwrap_or(0.0));
        ledger.set(p95, stats::percentile(&sorted, 95.0).unwrap_or(0.0));
    }
    let sorted = stats::sorted(&root_samples);
    ledger.set(
        "span.root_self_p50_ns",
        stats::percentile(&sorted, 50.0).unwrap_or(0.0),
    );
    ledger.set(
        "span.root_self_p95_ns",
        stats::percentile(&sorted, 95.0).unwrap_or(0.0),
    );

    // Exact counters of the modeled hierarchy over the replay.
    let mut hier = HierarchyStats::default();
    for h in &traced.hier {
        hier.accesses += h.accesses;
        hier.l1_hits += h.l1_hits;
        hier.l2_hits += h.l2_hits;
        hier.mem_fills += h.mem_fills;
    }
    let refs = hier.accesses.max(1) as f64;
    let refs_per_pkt = hier.accesses as f64 / admitted;
    let (l1_frac, l2_frac) = (hier.l1_hits as f64 / refs, hier.l2_hits as f64 / refs);
    ledger.set("cache.refs_per_pkt", refs_per_pkt);
    ledger.set("cache.l1_hit_frac", l1_frac);
    ledger.set("cache.l2_hit_frac", l2_frac);
    ledger.set("cache.mem_fills_per_pkt", hier.mem_fills as f64 / admitted);
    ledger.set("xkernel.delivered_frac", traced.delivered as f64 / admitted);
    ledger.set("xkernel.modeled_service_us", counters.mean_service_us);
    if traced.table_hits + traced.table_misses > 0 {
        ledger.set(
            "sched.table_hit_frac",
            traced.table_hits as f64 / (traced.table_hits + traced.table_misses) as f64,
        );
    }

    // Isolated per-op timings at this workload's operating point.
    let hier_ns = micro::hier_ns_per_ref(
        n.cost.hierarchy(),
        l1_frac,
        l2_frac,
        scaled(4_000_000, scale),
        seed,
    );
    ledger.set("cache.hier_ns_per_ref", hier_ns);
    ledger.set("xkernel.receive_ns_per_pkt", receive_ns);
    ledger.set(
        "xkernel.receive_self_ns_per_pkt",
        receive_ns - refs_per_pkt * hier_ns,
    );
    ledger.set(
        "xkernel.frame_build_ns_per_pkt",
        micro::frame_build_ns_per_pkt(
            shape.payload,
            // ≈0.2 s at any payload: building a frame is linear in it.
            scaled(40_000_000 / (shape.payload as u64 + 64), scale),
        ),
    );
    ledger.set("sched.steer_ns_per_pkt", steer_ns);
    ledger.set(
        "sched.claim_ns_per_pkt",
        micro::claim_ns_per_pkt(
            n.layout.steal.is_some(),
            DispatchPricer::new(&ExecParams::calibrated().model).t_warm_us(),
            scaled(1_000_000, scale),
            seed,
        ),
    );
    if let Some(cap) = n.stream_cache {
        let keys = micro::zipf_keys(shape.streams, shape.alpha, seed);
        ledger.set(
            "sched.lru_ns_per_op",
            micro::lru_ns_per_op(
                &[(cap / n.workers.max(1)).max(1)],
                &keys,
                scaled(2_000_000, scale),
            ),
        );
    }
    ledger.set(
        "native.ring_ns_per_item",
        micro::ring_ns_per_item(n.batch, scaled(4_000_000, scale)),
    );
    if shape.admission {
        ledger.set("workload.gen_ns_per_pkt", gen_ns);
    }

    // The critical path: the dispatcher thread runs gen + steer per
    // offered packet and claim + ring per admitted one; the W workers
    // share ring + receive per admitted packet. Whichever side is longer
    // should, with the entry point's fixed cost, account for a real
    // run's wall.
    let path_ns = |offered: f64, admitted: f64| {
        let dispatch = (gen_ns + steer_ns) * offered + (claim_ns + ring_ns) * admitted;
        let engine = (ring_ns + receive_ns) * admitted;
        (dispatch, engine)
    };
    let full_offered = reference.offered as f64;
    let full_admitted = (reference.offered - reference.dropped) as f64;
    let (dispatch, engine) = path_ns(full_offered, full_admitted);
    ledger.set(
        "ledger.dispatch_ns_per_offered",
        dispatch / full_offered.max(1.0),
    );
    ledger.set(
        "ledger.engine_ns_per_admitted",
        engine / full_admitted.max(1.0),
    );
    // Replay and real runs are timed seconds apart on a host whose speed
    // moves in steps of 1.5x within seconds, so each side is taken at
    // its fastest: the stage costs scaled to the faster of the two
    // replays, against whichever real run they explain more of — the
    // untraced reference (stage costs x its counts) or the real run over
    // the replayed packets themselves.
    let faster = plain.wall_s.min(traced.wall_s) / traced.wall_s;
    let fixed_ns = ledger.get("ledger.fixed_s") * 1e9;
    let frac = |(dispatch, engine): (f64, f64), wall_s: f64| {
        (fixed_ns + faster * dispatch.max(engine / n.workers.max(1) as f64)) / (wall_s * 1e9)
    };
    ledger.set(
        "native.critical_path_frac",
        frac((dispatch, engine), wall).max(frac(path_ns(offered, admitted), prefix_wall)),
    );
    ledger.spans = Some(spans);
}
