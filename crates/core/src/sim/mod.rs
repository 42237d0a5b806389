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
//!   arrival of that stream is scheduled.
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
//!   dispatch loops that consume the shared policy crate's
//!   [`afs_sched::DispatchPolicy`] decisions. No scheduling decision is
//!   made in this crate anymore: the simulator supplies state views and
//!   executes typed decisions.

mod dispatch;
mod events;
#[cfg(test)]
mod tests;

pub use events::Event;

use std::collections::VecDeque;

use rand::rngs::StdRng;

use afs_cache::model::pricer::DispatchPricer;
use afs_desim::engine::Engine;
use afs_desim::event::EventId;
use afs_desim::rng::RngFactory;
use afs_desim::time::{SimDuration, SimTime};
use afs_obs::{EngineProbe, Recorder};
use afs_workload::ArrivalGen;

use afs_sched::FrontEndState;

use crate::config::{Paradigm, SystemConfig};
// Glob-imported by the test modules (`use super::super::*`), which
// exercise every policy and drop configuration.
#[cfg(test)]
use crate::config::IpsPolicy;
use crate::metrics::{Collector, RunReport};
use crate::state::{LocTable, Packet, Procs, StreamTable};

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

/// The simulator model.
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
    /// IPS: stream → stack assignment (round-robin).
    stream_to_stack: Vec<u32>,
    /// IPS stacks.
    stacks: Stacks,
    /// Locking: the global FIFO.
    global_q: VecDeque<Packet>,
    /// Locking Wired/Hybrid and the enqueue-routed policies:
    /// per-processor queues.
    proc_q: Vec<VecDeque<Packet>>,
    /// IPS round-robin scan offset (fairness across stacks).
    stack_scan: usize,
    /// Per-stream arrival generators and RNGs.
    gens: Vec<ArrivalGen>,
    arr_rngs: Vec<StdRng>,
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
    /// Thread id in use per processor (Locking), cleared at completion.
    pending_thread: Vec<Option<usize>>,
    /// Whether the in-use thread came from the shared pool (the
    /// policy's [`afs_sched::ThreadSource`]) and must return to it at
    /// completion.
    pending_pooled: Vec<bool>,
    /// Service duration of the in-flight packet per processor.
    pending_service: Vec<SimDuration>,
    /// Scheduled completion event per processor, so processor faults can
    /// cancel (crash) or push back (stall) an in-flight service. `None`
    /// whenever the processor has no packet in service.
    pending_completion: Vec<Option<EventId>>,
    /// Metrics.
    pub collector: Collector,
    /// Optional observability recorder (the unified `afs-obs` schema).
    /// Events are emitted for the whole run, warm-up included, and
    /// recording is pure observation: attaching a recorder changes no
    /// metric and no golden-artifact byte.
    pub obs: Option<&'r mut dyn Recorder>,
    /// Next per-packet observability sequence number.
    next_seq: u64,
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
            stream_to_stack: (0..k).map(|s| (s % n_stacks.max(1)) as u32).collect(),
            stacks: Stacks::new(n_stacks),
            global_q: VecDeque::new(),
            proc_q: vec![VecDeque::new(); n],
            stack_scan: 0,
            gens: cfg
                .population
                .streams
                .iter()
                .map(|s| s.arrivals.clone())
                .collect(),
            arr_rngs: (0..k)
                .map(|s| factory.stream_indexed("arrivals", s as u64))
                .collect(),
            size_rngs: (0..k)
                .map(|s| factory.stream_indexed("sizes", s as u64))
                .collect(),
            warmup_reset: false,
            midpoint: SimTime::from_micros_f64((warm_us + hor_us) * 0.5),
            policy_rng: factory.stream("policy"),
            fault_rng: factory.stream("faults"),
            pending_thread: vec![None; n],
            pending_pooled: vec![false; n],
            pending_service: vec![SimDuration::ZERO; n],
            pending_completion: vec![None; n],
            collector: Collector::new(SimTime::from_micros_f64(warm_us), k),
            obs: None,
            next_seq: 0,
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
}

/// The one run loop behind every public entry point: build the model,
/// optionally capture the per-packet delay series, optionally attach
/// `rec` (which also attaches the engine probe), run to the horizon and
/// report. The series is empty unless captured, the probe default unless
/// recorded.
fn run_inner<'r>(
    cfg: &'r SystemConfig,
    capture: bool,
    rec: Option<&'r mut dyn Recorder>,
) -> (RunReport, Vec<f64>, EngineProbe) {
    let mut engine = Engine::new(SchedSim::new(cfg));
    if capture {
        engine.model_mut().collector.capture_series();
    }
    if rec.is_some() {
        engine.attach_probe();
    }
    engine.model_mut().obs = rec;
    engine_prime(&mut engine);
    engine.run_until(SimTime::ZERO + cfg.horizon);
    let end = engine.now();
    let mut report = engine.model_mut().collector.report(end, cfg.n_procs);
    engine.model().finalize_report(&mut report);
    let series = engine
        .model_mut()
        .collector
        .full_series
        .take()
        .unwrap_or_default();
    (report, series, engine.take_probe().unwrap_or_default())
}

/// Run a configuration to completion and report.
///
/// Takes the configuration by reference — the simulator borrows it for
/// the run's duration (no clone at all), so fan-out layers like
/// [`crate::par::parallel_map`] can share one template across workers.
/// The run is a pure function of `(cfg, cfg.seed)`: identical inputs
/// produce a bit-identical report on any thread.
pub fn run(cfg: &SystemConfig) -> RunReport {
    run_inner(cfg, false, None).0
}

/// Run a configuration; optionally also return the full per-packet delay
/// series (µs, completion order, warm-up included) for output analysis
/// such as MSER-5 warm-up validation.
pub fn run_with_series(cfg: &SystemConfig, capture: bool) -> (RunReport, Vec<f64>) {
    let (report, series, _) = run_inner(cfg, capture, None);
    (report, series)
}

/// Run a configuration with an observability recorder attached: every
/// scheduling event of the whole run (warm-up included) streams through
/// `rec` in the unified `afs-obs` schema, and the desim engine's probe
/// is returned alongside the report. Attaching the recorder is pure
/// observation — the report is bit-identical to [`run`]'s.
pub fn run_observed<'r>(
    cfg: &'r SystemConfig,
    rec: &'r mut dyn Recorder,
) -> (RunReport, EngineProbe) {
    let (report, _, probe) = run_inner(cfg, false, Some(rec));
    (report, probe)
}

/// Prime helper: schedules every stream's first arrival plus the
/// processor-fault plan's injection (and recovery) events.
fn engine_prime(engine: &mut Engine<SchedSim<'_>>) {
    // Split borrows: scheduler and model are distinct fields, so prime
    // through a small dance — collect the gaps first.
    let gaps: Vec<(u32, SimDuration)> = {
        let model = engine.model_mut();
        (0..model.gens.len())
            .map(|s| {
                let gap = model.gens[s].next_gap(&mut model.arr_rngs[s]);
                (s as u32, gap)
            })
            .collect()
    };
    for (stream, gap) in gaps {
        engine
            .scheduler()
            .schedule_at(SimTime::ZERO + gap, Event::Arrival { stream });
    }
    // Processor faults are plan-driven, so both the injection and its
    // recovery (stall end, crash revive) are known up front. An empty
    // plan schedules nothing — the clean-run event stream is untouched.
    let faults = engine.model().cfg.proc_faults.faults.clone();
    for (idx, fault) in faults.iter().enumerate() {
        let idx = idx as u32;
        engine.scheduler().schedule_at(
            SimTime::from_micros_f64(fault.at_us),
            Event::ProcFault { idx },
        );
        let recover_at = match fault.kind {
            crate::procfault::ProcFaultKind::Stall { duration_us } => {
                Some(fault.at_us + duration_us)
            }
            crate::procfault::ProcFaultKind::Crash { revive_at_us } => revive_at_us,
            crate::procfault::ProcFaultKind::Slowdown { .. } => None,
        };
        if let Some(at) = recover_at {
            engine
                .scheduler()
                .schedule_at(SimTime::from_micros_f64(at), Event::ProcRecover { idx });
        }
    }
}
