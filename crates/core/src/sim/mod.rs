//! The multiprocessor protocol-scheduling simulator.
//!
//! Follows the paper's simulation model: N processors serve packet
//! streams under a parallelization paradigm (Locking or IPS) and an
//! affinity scheduling policy, while the general non-protocol workload
//! occupies every cycle the protocol does not use and erodes cached
//! protocol state according to the analytic `F1/F2` displacement curves.
//!
//! Event structure:
//!
//! * `Arrival(stream)` — a packet joins the appropriate queue (global
//!   FIFO, per-processor wired queue, or per-stack queue) and the next
//!   arrival is scheduled: that stream's, or for a Zipf population the
//!   one source's next packet, of whichever flow it draws.
//! * `Completion(proc)` — the processor finishes its packet, all
//!   affinity bookkeeping is updated, and dispatch runs again.
//!
//! Dispatch prices each packet at the moment it starts service: the
//! component ages (code/global on the processor, thread stack, stream
//! state) translate through the reload-transient model into a service
//! time; Locking adds its per-packet lock overhead, and the
//! data-touching knob `V` adds its fixed uncached cost. Protocol service
//! is non-preemptible; the non-protocol workload yields instantly.
//!
//! The module splits along the paper's own seams:
//!
//! * `events` — event mechanics: arrivals, wire faults, bounded-queue
//!   admission, completion bookkeeping.
//! * `dispatch` — the [`afs_sched::SchedView`] adapters and the
//!   dispatch loops that execute the shared policy crate's decisions
//!   ([`afs_sched::LockPolicy::select`], [`afs_sched::IpsPolicy::select`];
//!   enqueue routing goes through [`afs_sched::Router`]). No scheduling
//!   decision is made in this crate: the simulator supplies state views
//!   and executes typed decisions.
//!
//! A started packet's whole in-flight record — what runs it, its
//! service time, its completion instant — lives in its processor's
//! [`ProcActivity::Protocol`](crate::state::ProcActivity::Protocol);
//! its completion reads it from there. Processor faults act at packet
//! boundaries: a crash or a stall never cancels or moves a completion.

mod dispatch;
mod events;
#[cfg(test)]
mod tests;

pub use events::Event;

use std::collections::VecDeque;

use rand::rngs::StdRng;

use afs_cache::model::pricer::DispatchPricer;
use afs_desim::event::EventQueue;
use afs_desim::rng::RngFactory;
use afs_desim::time::SimTime;
use afs_obs::{EngineProbe, Recorder};
use afs_workload::{ArrivalGen, Population, ZipfArrivals};

use afs_sched::FrontEndState;

use crate::config::{Paradigm, SystemConfig};
// Glob-imported by the test modules (`use super::super::*`), which
// exercise every policy and drop configuration.
#[cfg(test)]
use crate::config::IpsPolicy;
use crate::metrics::{Collector, RunReport};
use crate::procfault::ProcFaultKind;
use crate::state::{LocTable, Packet, Procs, StreamTable};
#[cfg(test)]
use afs_desim::time::SimDuration;

/// IPS stack state, field-major like the rest of the hot state: the
/// per-stack queues, the running flags the dispatch scan reads, and the
/// stack footprint locations.
#[derive(Debug)]
struct Stacks {
    queue: Vec<VecDeque<Packet>>,
    running: Vec<bool>,
    loc: LocTable,
}

impl Stacks {
    fn new(n: usize) -> Self {
        Stacks {
            queue: (0..n).map(|_| VecDeque::new()).collect(),
            running: vec![false; n],
            loc: LocTable::new(n),
        }
    }

    fn len(&self) -> usize {
        self.running.len()
    }
}

/// The population's arrival processes: a generator and an RNG per
/// stream, or a Zipf population's one source, which holds one pending
/// arrival for all its flows.
enum Arrivals {
    PerStream {
        gens: Vec<ArrivalGen>,
        rngs: Vec<StdRng>,
    },
    Zipf(ZipfArrivals),
}

impl Arrivals {
    fn new(pop: &Population, seed: u64, factory: &RngFactory) -> Self {
        let Some(spec) = pop.zipf else {
            let rngs = factory.family("arrivals");
            return Arrivals::PerStream {
                gens: pop.streams.iter().map(|s| s.arrivals.clone()).collect(),
                rngs: (0..pop.len()).map(|s| rngs.stream(s as u64)).collect(),
            };
        };
        Arrivals::Zipf(ZipfArrivals::new(spec, seed))
    }

    /// The first arrivals: one per stream, or the source's first.
    fn first(&mut self) -> Vec<(u32, SimTime)> {
        let sources = match self {
            Arrivals::PerStream { gens, .. } => gens.len() as u32,
            Arrivals::Zipf(_) => 1,
        };
        (0..sources).map(|s| self.next(SimTime::ZERO, s)).collect()
    }

    /// The arrival that follows `stream`'s at `now`: that stream's next
    /// packet, or the source's next packet of any flow.
    fn next(&mut self, now: SimTime, stream: u32) -> (u32, SimTime) {
        match self {
            Arrivals::PerStream { gens, rngs } => {
                let s = stream as usize;
                (stream, now + gens[s].next_gap(&mut rngs[s]))
            }
            Arrivals::Zipf(source) => {
                let (flow, t_us) = source.next_arrival();
                (flow, SimTime::from_micros_f64(t_us))
            }
        }
    }
}

/// The simulator: the model's state, and the clock and pending events
/// that its run loop (`SchedSim::run_to`) advances it by.
///
/// The lifetime parameter scopes the borrowed configuration and the
/// optional observability recorder ([`SchedSim::obs`]); plain runs use
/// the elided `'_` and never notice it.
pub struct SchedSim<'r> {
    /// The (immutable) run configuration. Borrowed, not cloned: a sweep
    /// can fan hundreds of runs out of one template without a per-run
    /// deep copy of the population and policy tables.
    cfg: &'r SystemConfig,
    /// Configuration-constant folding of `cfg.exec.model` (reload spans,
    /// cold/remote component costs, SST line constants) and its `F1/F2`
    /// table — tick-identical to the plain model, built once per run.
    pricer: DispatchPricer,
    procs: Procs,
    /// Protocol thread locations (Locking). Under per-processor pools
    /// thread `p` is pinned to processor `p`; under the shared pool
    /// threads rotate.
    threads: LocTable,
    /// Free thread ids for the shared pool (Baseline policy).
    shared_pool: VecDeque<usize>,
    /// Per-stream state locations (dense, or a bounded hashed cache
    /// under `cfg.stream_cache`).
    streams: StreamTable,
    /// NIC front-end steering state, when `cfg.frontend` is set. Owns
    /// arrival routing into `proc_q`; the Locking policy then only
    /// orders dispatch.
    frontend: Option<FrontEndState>,
    /// Per-stream completion high-water sequence number (`u64::MAX` =
    /// no completion yet) — the online out-of-order delivery counter,
    /// definitionally identical to `afs_obs::SequenceChecker` over the
    /// emission-ordered trace.
    ooo_seen: Vec<u64>,
    /// Completions below their stream's high-water mark (whole run).
    ooo_deliveries: u64,
    /// IPS stacks.
    stacks: Stacks,
    /// Locking: the global FIFO.
    global_q: VecDeque<Packet>,
    /// Locking Wired/Hybrid and the enqueue-routed policies:
    /// per-processor queues.
    proc_q: Vec<VecDeque<Packet>>,
    /// IPS round-robin scan offset (fairness across stacks).
    stack_scan: usize,
    /// Where the next arrivals come from.
    arrivals: Arrivals,
    /// One size RNG per entry of the population's `streams` (a Zipf
    /// population's flows share its one entry).
    size_rngs: Vec<StdRng>,
    /// Whether backlog statistics were reset at warm-up.
    warmup_reset: bool,
    /// Midpoint of the measurement window (backlog growth check).
    midpoint: SimTime,
    /// RNG for affinity-oblivious (random) placement decisions.
    policy_rng: StdRng,
    /// RNG for wire-fault decisions (its own substream: a clean wire
    /// draws nothing, leaving every other stream's path untouched).
    fault_rng: StdRng,
    /// Metrics.
    pub collector: Collector,
    /// Optional observability recorder (the unified `afs-obs` schema).
    /// Events are emitted for the whole run, warm-up included, and
    /// recording is pure observation: attaching a recorder changes no
    /// metric and no golden-artifact byte.
    pub obs: Option<&'r mut dyn Recorder>,
    /// Next per-packet observability sequence number.
    next_seq: u64,
    /// The pending events, popped in `(time, seq)` order.
    queue: EventQueue<Event>,
    /// The clock: the time of the last delivered event, or the horizon
    /// once a run stops there.
    now: SimTime,
    /// Pending-set pressure sampled after every delivered event, when a
    /// recorder is attached.
    probe: Option<EngineProbe>,
}

impl<'r> SchedSim<'r> {
    /// Build the model: fold `cfg.exec.model` into the run's pricer and
    /// seed the per-stream generators.
    fn new(cfg: &'r SystemConfig) -> Self {
        cfg.validate();
        let n = cfg.n_procs;
        let k = cfg.population.len();
        let factory = RngFactory::new(cfg.seed);
        let n_stacks = match &cfg.paradigm {
            Paradigm::Ips { n_stacks, .. } => *n_stacks,
            _ => 0,
        };
        let warm_us = cfg.warmup.as_micros_f64();
        let hor_us = cfg.horizon.as_micros_f64();
        SchedSim {
            procs: Procs::new(n),
            threads: LocTable::new(n),
            shared_pool: (0..n).collect(),
            streams: match cfg.stream_cache {
                None => StreamTable::dense(k),
                Some(cap) => StreamTable::hashed(cap),
            },
            frontend: cfg.frontend.map(FrontEndState::new),
            ooo_seen: vec![u64::MAX; k],
            ooo_deliveries: 0,
            stacks: Stacks::new(n_stacks),
            global_q: VecDeque::new(),
            proc_q: vec![VecDeque::new(); n],
            stack_scan: 0,
            arrivals: Arrivals::new(&cfg.population, cfg.seed, &factory),
            size_rngs: {
                let sizes = factory.family("sizes");
                let specs = cfg.population.streams.len();
                (0..specs).map(|s| sizes.stream(s as u64)).collect()
            },
            warmup_reset: false,
            midpoint: SimTime::from_micros_f64((warm_us + hor_us) * 0.5),
            policy_rng: factory.stream("policy"),
            fault_rng: factory.stream("faults"),
            collector: Collector::new(SimTime::from_micros_f64(warm_us), k),
            obs: None,
            next_seq: 0,
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            probe: None,
            pricer: DispatchPricer::new(&cfg.exec.model),
            cfg,
        }
    }

    /// V (uncached per-packet overhead) for a packet, µs.
    fn v_us(&self, size_bytes: f64) -> f64 {
        self.cfg.v_fixed_us + self.cfg.copy_us_per_byte * size_bytes
    }

    /// Fill the report fields the simulator owns directly rather than
    /// through the [`Collector`]: per-processor serve counts, the
    /// online reordering count, and the front-end steering totals.
    fn finalize_report(&self, report: &mut RunReport) {
        report.per_proc_served = self.procs.served().to_vec();
        report.ooo_deliveries = self.ooo_deliveries;
        if let Some(fes) = &self.frontend {
            report.table_misses = fes.table_misses();
            report.rebinds = fes.rebinds;
        }
    }

    /// Schedule `event` at `at`, which must not precede the clock.
    fn schedule_at(&mut self, at: SimTime, event: Event) {
        assert!(
            at >= self.now,
            "scheduling into the past: at={at} now={}",
            self.now
        );
        self.queue.push(at, event);
    }

    /// Schedule the first arrivals and the processor-fault plan's
    /// injection and recovery (stall end, crash revive) events: faults
    /// are plan-driven, so both are known up front. An empty plan
    /// schedules nothing, leaving the clean run's event stream untouched.
    fn prime(&mut self) {
        for (stream, at) in self.arrivals.first() {
            self.schedule_at(at, Event::Arrival { stream });
        }
        let cfg = self.cfg;
        for (idx, fault) in cfg.proc_faults.faults.iter().enumerate() {
            let idx = idx as u32;
            self.schedule_at(
                SimTime::from_micros_f64(fault.at_us),
                Event::ProcFault { idx },
            );
            let recover_at = match fault.kind {
                ProcFaultKind::Stall { duration_us } => Some(fault.at_us + duration_us),
                ProcFaultKind::Crash { revive_at_us } => revive_at_us,
                ProcFaultKind::Slowdown { .. } => None,
            };
            if let Some(at) = recover_at {
                self.schedule_at(SimTime::from_micros_f64(at), Event::ProcRecover { idx });
            }
        }
    }

    /// The run loop: deliver every pending event stamped at or before
    /// `horizon` (inclusive), in the queue's `(time, seq)` order, and
    /// sample the probe after each. The clock ends at the last delivered
    /// event if the queue drains, else at `max(now, horizon)`: the report
    /// covers the whole requested window, and a horizon already passed
    /// never runs the clock back.
    fn run_to(&mut self, horizon: SimTime) {
        while let Some((time, event)) = self.queue.pop_at_or_before(horizon) {
            debug_assert!(time >= self.now, "clock went backwards");
            self.now = time;
            self.handle(time, event);
            if let Some(p) = &mut self.probe {
                p.on_step(time.as_micros_f64(), self.queue.len());
            }
        }
        if !self.queue.is_empty() {
            self.now = self.now.max(horizon);
        }
    }
}

/// The one run behind every public entry point: build the model,
/// optionally attach `rec` (and with it the probe), run to the horizon
/// and report. The probe is default unless recorded.
fn run_inner<'r>(
    cfg: &'r SystemConfig,
    rec: Option<&'r mut dyn Recorder>,
) -> (RunReport, EngineProbe) {
    let mut sim = SchedSim::new(cfg);
    if rec.is_some() {
        sim.probe = Some(EngineProbe::new());
    }
    sim.obs = rec;
    sim.prime();
    sim.run_to(SimTime::ZERO + cfg.horizon);
    let mut report = sim.collector.report(sim.now, cfg.n_procs);
    sim.finalize_report(&mut report);
    (report, sim.probe.unwrap_or_default())
}

/// Run a configuration to completion and report.
///
/// Takes the configuration by reference — the simulator borrows it for
/// the run's duration (no clone at all), so fan-out layers like
/// [`crate::par::parallel_map`] can share one template across workers.
/// The run is a pure function of `(cfg, cfg.seed)`: identical inputs
/// produce a bit-identical report on any thread.
pub fn run(cfg: &SystemConfig) -> RunReport {
    run_inner(cfg, None).0
}

/// Run a configuration with an observability recorder attached: every
/// scheduling event of the whole run (warm-up included) streams through
/// `rec` in the unified `afs-obs` schema, and the run loop's probe is
/// returned alongside the report. Attaching the recorder is pure
/// observation — the report is bit-identical to [`run`]'s.
pub fn run_observed<'r>(
    cfg: &'r SystemConfig,
    rec: &'r mut dyn Recorder,
) -> (RunReport, EngineProbe) {
    run_inner(cfg, Some(rec))
}
