//! The one dispatcher behind every native entry point.
//!
//! [`dispatch`] builds the protocol stacks and the per-worker rings,
//! spawns the pinned [`Worker`]s, and then runs every arrival through
//! the same stages, in this order (DESIGN.md §8 states each stage's
//! contract):
//!
//! 1. **liveness mask** — plan-driven: an arrival inside a worker's
//!    crash window sees that worker masked out of routing and claiming;
//! 2. **completion feedback** — modeled completions at or before the
//!    arrival are fed back to a learning front-end;
//! 3. **steer** — the NIC front-end or, with no front-end, the
//!    layout's router, over the dispatcher's deterministic virtual-load
//!    model, recomputed for every packet;
//! 4. **admit** — `None` = every arrival is admitted and a full ring
//!    blocks the dispatcher; `Some(capacity)` = virtual-domain taildrop
//!    against the modeled backlog;
//! 5. **claim** — pooled or stealing [`ClaimTable`] arbitration, chosen
//!    from the [`afs_sched::NativeLayout`] alone;
//! 6. **enqueue** — previous-owner stamping, the blocking ring push and
//!    the placement trace events, in claim order (a serving packet goes
//!    as a descriptor: the worker that processes it writes its frame);
//! 7. **recovery** — after the last arrival, the workers the plan kills
//!    for good are joined for their orphans, which re-enter at stage 3.
//!
//! Replay and serve differ only in what they hand this function: the
//! arrival source, the admission bound, and whether a recorder is
//! attached.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use afs_cache::model::pricer::DispatchPricer;
use afs_core::exec::ExecParams;
use afs_desim::rng::RngFactory;
use afs_desim::stats::Welford;
use afs_obs::{MemRecorder, ObsEvent, Recorder as _};
use afs_sched::{ClaimTable, FrontEndState, Route, RouterState, SchedView as _};
use afs_xkernel::driver::PORT_STREAMS;
use afs_xkernel::mt::owner_of;
use afs_xkernel::{lock_overhead_cycles, ProtocolEngine, StreamId};
use rand::rngs::StdRng;
use rand::Rng;

use crate::ring::RingQueue;
use crate::runtime::{NativeConfig, NativeReport, OutcomeTotals, WorkerStats};
use crate::watchdog::WorkerFaults;
use crate::worker::{Job, Shared, Worker, WorkerResult, PREV_NONE};

/// One packet handed to the dispatcher by its arrival source.
pub(crate) struct Arrival {
    /// The frame; empty on a serving run, whose processing worker
    /// writes it.
    pub(crate) bytes: Vec<u8>,
    pub(crate) stream: StreamId,
    pub(crate) arrival_us: f64,
    /// Whether the packet falls inside the statistics window.
    pub(crate) record: bool,
}

/// Everything that distinguishes one run of the pipeline from another.
pub(crate) struct Pipeline<'a> {
    pub(crate) cfg: &'a NativeConfig,
    /// Size of the flow-id space; the dense per-flow tables are
    /// pre-sized to it so steady-state dispatch never grows them.
    pub(crate) flows: u32,
    /// The admission bound (stage 4).
    pub(crate) admit: Option<usize>,
    /// Where to merge the run's observability trace, if recording.
    pub(crate) obs: Option<&'a mut MemRecorder>,
    /// `Some(payload bytes)`: the arrivals are descriptors, and the
    /// worker that processes a packet writes its frame.
    pub(crate) frames: Option<usize>,
    /// Called on the dispatcher thread after every offered packet.
    pub(crate) tick: Option<&'a mut Tick<'a>>,
}

/// A live-gauge callback: the ledger, the processed-packet count and
/// the workers' published virtual clocks (f64 bit patterns).
pub(crate) type Tick<'a> = dyn FnMut(&Ledger, u64, &[AtomicU64]) + 'a;

/// The dispatcher-side packet ledger.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Ledger {
    pub(crate) offered: u64,
    pub(crate) admitted: u64,
    pub(crate) dropped: u64,
    pub(crate) last_arrival_us: f64,
    pub(crate) orphaned: u64,
    pub(crate) requeued: u64,
    /// Plan crashes that took effect inside the statistics window.
    pub(crate) crashes: u64,
}

/// Releases the workers when the dispatcher is done with them — or
/// unwinds: without the flags they would spin forever inside the scope
/// and a dispatcher panic would never reach the caller. Every worker,
/// dead or alive, drains its own ring before it exits.
struct ReleaseWorkers<'a>(Shared<'a>);

impl Drop for ReleaseWorkers<'_> {
    fn drop(&mut self) {
        self.0.done.store(true, Ordering::Release);
        self.0.recovery_done.store(true, Ordering::Release);
    }
}

/// Run `arrivals` through the pipeline `p` describes, join the workers
/// and report the run. Both entry points return this report.
pub(crate) fn dispatch(p: Pipeline<'_>, arrivals: impl Iterator<Item = Arrival>) -> NativeReport {
    let cfg = p.cfg;
    let w = cfg.workers;
    assert!(w >= 1, "need at least one worker");
    if let Err(e) = cfg.faults.validate(w) {
        panic!("invalid processor-fault plan: {e}");
    }
    // Session space: flows fold onto `flow % sessions` engine sessions
    // (the identity when unbounded). A bounded space binds all of its
    // sessions, whichever flows the arrivals reach, so a replay and a
    // serve of one population bind the same sessions.
    let sessions = cfg.session_space.unwrap_or(p.flows);
    assert!(
        sessions <= PORT_STREAMS,
        "{sessions} sessions exceed the {PORT_STREAMS} distinct UDP ports; \
         bound NativeConfig::session_space"
    );
    // Engines: one shared stack for the locked policies, one per worker
    // for IPS. Sessions bind to the stack that owns them.
    let shared_stack = cfg.layout.shared_stack;
    let engines: Vec<Mutex<ProtocolEngine>> = (0..if shared_stack { 1 } else { w })
        .map(|stack| {
            let mut e = ProtocolEngine::new(cfg.cost);
            let owned = || {
                (0..sessions)
                    .map(StreamId)
                    .filter(|&s| shared_stack || owner_of(s, w) == stack)
            };
            owned().for_each(|s| e.bind_stream(s));
            Mutex::new(e)
        })
        .collect();
    // Run queues: one per worker in *every* layout. The shared pool and
    // stealing are arbitrated dispatcher-side by the claim table, so a
    // pooled packet lands directly on its claimant's ring.
    let depth = ring_depth(cfg.batch);
    let queues: Vec<RingQueue<Job>> = (0..w).map(|_| RingQueue::with_capacity(depth)).collect();
    let vclocks: Vec<AtomicU64> = (0..w).map(|_| AtomicU64::new(0)).collect();
    let (done, recovery_done) = (AtomicBool::new(false), AtomicBool::new(false));
    let progress = AtomicU64::new(0);
    let worker_faults: Vec<WorkerFaults> = (0..w)
        .map(|i| WorkerFaults::from_plan(&cfg.faults, i))
        .collect();
    let sh = Shared {
        cfg,
        engines: &engines,
        queues: &queues,
        vclocks: &vclocks,
        done: &done,
        recovery_done: &recovery_done,
        lock_cycles: lock_overhead_cycles(&cfg.cost),
        sessions: sessions.max(1),
        frames: p.frames,
        progress: p.tick.is_some().then_some(&progress),
    };
    let record_obs = p.obs.is_some();
    let mut d = Dispatcher::new(sh, &p, &worker_faults);
    let mut tick = p.tick;
    let mut results: Vec<WorkerResult> = std::thread::scope(|scope| {
        let mut handles: Vec<Option<_>> = worker_faults
            .iter()
            .enumerate()
            .map(|(wid, faults)| {
                Some(scope.spawn(move || Worker::new(wid, sh, faults, record_obs).run()))
            })
            .collect();
        let mut join = |wid: usize| {
            let handle = handles[wid].take();
            handle.map(|h| h.join().expect("worker panicked"))
        };
        let release = ReleaseWorkers(sh);
        for (seq, arrival) in arrivals.enumerate() {
            d.on_arrival(seq as u64, arrival);
            if let Some(tick) = tick.as_mut() {
                tick(&d.ledger, progress.load(Ordering::Relaxed), &vclocks);
            }
        }
        d.flush_claims();
        done.store(true, Ordering::Release);
        // A worker the plan kills for good drains its own ring and exits
        // once the arrivals are done: join it for its orphans.
        let mut results: Vec<Option<WorkerResult>> = (0..w)
            .map(|wid| match worker_faults[wid].crash {
                Some((_, None)) => join(wid),
                _ => None,
            })
            .collect();
        d.recover(results.iter_mut().flatten());
        drop(release);
        results
            .into_iter()
            .enumerate()
            .map(|(wid, r)| {
                r.or_else(|| join(wid))
                    .expect("every worker is joined once")
            })
            .collect()
    });

    let Dispatcher {
        ledger, fes, rec, ..
    } = d;
    // Merge the dispatcher's and each worker's trace slice into one
    // stream, sorted by the deterministic merge key (virtual time, seq,
    // causal rank); ties keep slice order: dispatcher, then worker 0, 1, …
    // Then stamp every queue depth from that one order.
    if let Some(out) = p.obs {
        let workers = results.iter_mut().filter_map(|r| r.rec.take());
        out.merge(rec.into_iter().chain(workers).collect());
        // A drained run leaves every queue empty, and none went below.
        let tally = out.stamp_queue_depths();
        debug_assert!(
            tally.low == 0 && tally.end.iter().all(|&n| n == 0),
            "{tally:?}"
        );
    }
    let engines = engines
        .into_iter()
        .map(|e| e.into_inner().unwrap_or_else(PoisonError::into_inner));
    report(
        cfg,
        &ledger,
        fes.as_ref(),
        results,
        engines.collect(),
        sessions,
    )
}

/// The one report of a run, replay or serve: the dispatcher's ledger
/// and steering counters, the joined workers' statistics, and the
/// delivered packets of each of the `sessions` sessions the engines
/// bound.
fn report(
    cfg: &NativeConfig,
    ledger: &Ledger,
    fes: Option<&FrontEndState>,
    results: Vec<WorkerResult>,
    engines: Vec<ProtocolEngine>,
    sessions: u32,
) -> NativeReport {
    let (mut delay, mut service, mut wait) = (Welford::new(), Welford::new(), Welford::new());
    let mut outcomes = OutcomeTotals::default();
    let mut per_worker = Vec::with_capacity(results.len());
    for r in results {
        delay.merge(&r.delay);
        service.merge(&r.service);
        wait.merge(&r.wait);
        outcomes.delivered += r.outcomes.delivered;
        outcomes.no_session += r.outcomes.no_session;
        outcomes.queue_full += r.outcomes.queue_full;
        outcomes.rejected += r.outcomes.rejected;
        per_worker.push(r.stats);
    }
    let per_stream_delivered = (0..sessions)
        .map(|s| {
            engines
                .iter()
                .filter_map(|e| e.table.session(StreamId(s)))
                .map(|ss| ss.packets)
                .sum()
        })
        .collect();
    let sum = |f: fn(&WorkerStats) -> u64| -> u64 { per_worker.iter().map(f).sum() };
    NativeReport {
        policy: cfg.spec.label(),
        workers: cfg.workers,
        offered: ledger.offered,
        admitted: ledger.admitted,
        dropped: ledger.dropped,
        outcomes,
        mean_delay_us: delay.mean(),
        mean_service_us: service.mean(),
        mean_wait_us: wait.mean(),
        max_delay_us: delay.max(),
        recorded: delay.count(),
        steals: sum(|s| s.steals),
        stream_migrations: sum(|s| s.stream_migrations),
        thread_migrations: sum(|s| s.thread_migrations),
        last_arrival_us: ledger.last_arrival_us,
        makespan_us: per_worker.iter().map(|s| s.vclock_us).fold(0.0, f64::max),
        workers_crashed: ledger.crashes,
        orphaned: ledger.orphaned,
        requeued: ledger.requeued,
        per_stream_delivered,
        table_misses: fes.map_or(0, |f| f.table_misses()),
        rebinds: fes.map_or(0, |f| f.rebinds),
        ooo_deliveries: 0,
        per_worker,
    }
}

/// Each worker ring's depth: a pipeline's worth of trains, never less
/// than 64, as a power of two. It depends on `batch` alone. Admission
/// is decided on the modeled backlog and claims on the virtual clock,
/// and a full ring blocks the dispatcher, so the depth never changes a
/// result; it only bounds how far the dispatcher runs ahead, and so how
/// many jobs are in flight.
fn ring_depth(batch: usize) -> usize {
    (4 * batch.max(1)).max(64).next_power_of_two()
}

const NO_POOL: &str = "a shared-pool route requires a pooled layout";

/// Dispatcher-thread state: the routing models, the claim table and the
/// deterministic owner tracking. One method per stage.
struct Dispatcher<'a> {
    sh: Shared<'a>,
    admit: Option<usize>,
    worker_faults: &'a [WorkerFaults],
    /// The placement RNG randomized routers draw from.
    place: StdRng,
    pricer: DispatchPricer,
    /// The deterministic virtual-load model routing and admission read
    /// (never racy worker-side state).
    rstate: RouterState,
    fes: Option<FrontEndState>,
    /// Flow-Director completion feedback, modeled: each placed packet
    /// schedules a `(vfinish, seq, flow, worker)` entry on the router
    /// model's drain clock.
    feedback: BinaryHeap<Reverse<(u64, u64, u32, u32)>>,
    /// Deterministic owner tracking (see `Job::prev_stream_owner`),
    /// stamped in virtual order by `enqueue`.
    prev_stream: Vec<u32>,
    prev_thread: Vec<u32>,
    /// Virtual-order arbitration for the shared pool and for stealing.
    /// Jobs under a stealing layout are *staged* until the model
    /// resolves their claimant; the pooled mode resolves immediately.
    claims: Option<ClaimTable>,
    stealing: bool,
    staged: HashMap<u64, Job>,
    resolved: Vec<afs_sched::Claim>,
    rec: Option<MemRecorder>,
    ledger: Ledger,
}

impl<'a> Dispatcher<'a> {
    fn new(sh: Shared<'a>, p: &Pipeline<'_>, worker_faults: &'a [WorkerFaults]) -> Self {
        let (cfg, flows, admit) = (sh.cfg, p.flows, p.admit);
        let w = cfg.workers;
        let pricer = DispatchPricer::new(&ExecParams::calibrated().model);
        let t_warm = pricer.t_warm_us();
        let mut rstate = RouterState::new(w, t_warm);
        rstate.reserve_flows(flows);
        let fes = cfg.frontend.map(|plan| {
            let mut fes = FrontEndState::new(plan);
            fes.reserve_flows(flows);
            fes
        });
        let claims = if cfg.layout.pooled_queue {
            Some(ClaimTable::pooled(w, t_warm))
        } else {
            cfg.layout
                .steal
                .map(|policy| ClaimTable::stealing(w, t_warm, policy))
        };
        // A worker's undelivered completions are spaced one estimated
        // service apart on its drain clock, so there are never more of
        // them than its modeled backlog — which admission holds at or
        // under the bound. The heap never outgrows this reserve. Staged
        // claims are jobs not yet started on the claim model's clocks,
        // which drain at the same rate, and stay under the same bound;
        // at twice it, the map clears the tombstones removals leave by
        // rehashing in place instead of growing.
        let backlog_reserve = admit.map_or(0, |cap| w * (cap + 2));
        let stealing = claims.is_some() && !cfg.layout.pooled_queue;
        Dispatcher {
            sh,
            admit,
            worker_faults,
            place: RngFactory::new(cfg.seed).stream("native-placement"),
            pricer,
            rstate,
            fes,
            feedback: BinaryHeap::with_capacity(backlog_reserve),
            prev_stream: vec![PREV_NONE; flows as usize],
            prev_thread: vec![PREV_NONE; w],
            stealing,
            claims,
            staged: HashMap::with_capacity(if stealing { 2 * backlog_reserve } else { 0 }),
            resolved: Vec::new(),
            rec: p.obs.is_some().then(MemRecorder::new),
            ledger: Ledger::default(),
        }
    }

    fn trace(&mut self, ev: ObsEvent) {
        if let Some(r) = self.rec.as_mut() {
            r.record(ev);
        }
    }

    /// One arrival through stages 1–6.
    fn on_arrival(&mut self, seq: u64, a: Arrival) {
        let (flow, t) = (a.stream.0, a.arrival_us);
        self.ledger.offered += 1;
        self.ledger.last_arrival_us = t;
        self.mask_liveness(t, a.record);
        self.deliver_feedback(t);
        let (route, rebind_from) = self.steer(flow, t, seq);
        if !self.admits(route, t) {
            self.ledger.dropped += 1;
            return;
        }
        self.ledger.admitted += 1;
        let target = self.place(route, flow, seq, t, rebind_from);
        self.schedule_feedback(seq, flow, target);
        let cfg = self.sh.cfg;
        let w = cfg.workers;
        let job = Job {
            pkt: a,
            seq,
            // Pool threads rotate only when the dispatcher routes: a
            // NIC front-end feeds each core's own thread.
            thread: (cfg.layout.rotating_threads && self.fes.is_none())
                .then_some((seq % w as u64) as u32),
            home_stack: (!cfg.layout.shared_stack)
                .then(|| owner_of(StreamId(flow % self.sh.sessions), w) as u32),
            prev_stream_owner: PREV_NONE,
            prev_thread_owner: PREV_NONE,
            stolen_from: None,
        };
        if self.stealing {
            // Stage on the steered owner's model queue, then deliver
            // every claim this arrival makes causally final — in total
            // virtual order, never at routing time.
            self.staged.insert(seq, job);
            self.resolved.clear();
            let tbl = self.claims.as_mut().expect("stealing has a claim table");
            tbl.offer(seq, target, t, &mut self.resolved);
            self.deliver_resolved();
        } else {
            self.enqueue(job, target, None);
        }
    }

    /// Stage 1. A packet arriving inside a worker's crash window
    /// (crash..revive, or crash..∞ for a permanent crash) is routed
    /// around it — the policy's own fallback scan over a degraded view,
    /// not a runtime special case. The claim model's mask flips in
    /// lockstep with the router's, at the same arrival instants: dead
    /// workers neither claim nor get stolen from while down. A crash
    /// counts in the report when its mask goes up at a `record`ed
    /// arrival, as the simulator counts the crashes it fires past its
    /// warm-up.
    fn mask_liveness(&mut self, t: f64, record: bool) {
        for (i, f) in self.worker_faults.iter().enumerate() {
            let live = match f.crash {
                Some((crash, revive)) if t >= crash => revive.is_some_and(|r| t >= r),
                _ => true,
            };
            if self.rstate.is_live(i) != live {
                self.ledger.crashes += u64::from(record && !live);
                self.set_live(i, live);
            }
        }
    }

    fn set_live(&mut self, worker: usize, live: bool) {
        self.rstate.set_live(worker, live);
        if let Some(tbl) = self.claims.as_mut() {
            tbl.set_live(worker, live);
        }
    }

    /// Stage 2. Modeled completions at or before `t` reach the NIC
    /// before the arrival at `t` is steered. Keying on the virtual-load
    /// model (not racy worker clocks) keeps routing a pure function of
    /// the workload.
    fn deliver_feedback(&mut self, t: f64) {
        let Some(fes) = self.fes.as_mut() else {
            return;
        };
        while let Some(&Reverse((vfinish, _, flow, worker))) = self.feedback.peek() {
            if f64::from_bits(vfinish) > t {
                break;
            }
            self.feedback.pop();
            fes.note_complete(flow, worker);
        }
    }

    fn schedule_feedback(&mut self, seq: u64, flow: u32, target: usize) {
        if self
            .fes
            .as_ref()
            .is_some_and(|f| f.wants_completion_feedback())
        {
            let vfinish = self.rstate.vfinish_us(target).to_bits();
            self.feedback
                .push(Reverse((vfinish, seq, flow, target as u32)));
        }
    }

    /// Stage 3. Returns the route and, under a front-end, the worker the
    /// flow's previous packet went to (the `from` side of a possible
    /// rebind).
    fn steer(&mut self, flow: u32, t: f64, seq: u64) -> (Route, Option<usize>) {
        let view = self.rstate.view_at(t);
        let place = &mut self.place;
        let mut draw = |n: usize| place.gen_range(0..n);
        let Some(fes) = self.fes.as_mut() else {
            let router = &self.sh.cfg.layout.router;
            return (router.route(&view, flow, &mut draw, &self.pricer), None);
        };
        let prev = fes.previous_route(flow);
        let misses_before = fes.table_misses();
        let route = fes.route_flow(&view, flow, &mut draw, &self.pricer);
        if fes.table_misses() > misses_before {
            self.trace(ObsEvent::TableMiss {
                t_us: t,
                seq,
                stream: flow,
            });
        }
        (route, prev)
    }

    /// Stage 4. Virtual-domain taildrop, per route flavor: a steered
    /// packet drops when its worker's modeled backlog is full; a
    /// shared-pool packet drops only when even the least-loaded
    /// worker's is (a work-conserving pool saturates only when everyone
    /// does).
    fn admits(&self, route: Route, t: f64) -> bool {
        let Some(capacity) = self.admit else {
            return true;
        };
        let depth = match route {
            Route::Worker(target) => self.rstate.view_at(t).queue_depth(target),
            Route::Shared => self.claims.as_ref().expect(NO_POOL).min_model_depth(t),
        };
        depth < capacity
    }

    /// Stage 5, the immediate half: turn a route into the worker whose
    /// model queue the packet joins, and tell the models. A shared-pool
    /// route resolves its pooled claim here (pooled claims are final at
    /// offer time) and reports the claimant back to the front-end, so
    /// steering memory and rebind ledger see the actual placement.
    fn place(&mut self, route: Route, flow: u32, seq: u64, t: f64, from: Option<usize>) -> usize {
        let target = match route {
            Route::Worker(target) => {
                // A steer that named a worker bypassed the pool: charge
                // the pooled model anyway so later claims arbitrate
                // over the worker's real modeled load.
                if let Some(tbl) = self.claims.as_mut() {
                    tbl.note_assigned(target, t);
                }
                target
            }
            Route::Shared => {
                self.resolved.clear();
                let tbl = self.claims.as_mut().expect(NO_POOL);
                tbl.offer(seq, 0, t, &mut self.resolved);
                let claimant = self.resolved[0].claimant;
                if let Some(fes) = self.fes.as_mut() {
                    fes.note_placement(flow, claimant);
                }
                claimant
            }
        };
        self.rstate.note_routed(flow, target, t);
        if let Some(from) = from.filter(|&from| from != target) {
            self.trace(ObsEvent::Rebind {
                t_us: t,
                seq,
                stream: flow,
                from: from as u32,
                to: target as u32,
            });
        }
        target
    }

    /// Stage 5, the deferred half: hand every claim the stealing model
    /// just resolved to `enqueue`, in resolution order.
    fn deliver_resolved(&mut self) {
        for i in 0..self.resolved.len() {
            let c = self.resolved[i];
            let mut job = self
                .staged
                .remove(&c.seq)
                .expect("claim resolved for a job that was never staged");
            if let Some(victim) = c.victim {
                job.stolen_from = Some(victim as u32);
                // The claim is the arbitration decision, stamped with
                // the model's steal instant; the thief's `Dispatch`,
                // flagged `stolen`, later records it executing it.
                self.trace(ObsEvent::StealClaim {
                    t_us: c.start_us,
                    seq: c.seq,
                    from: victim as u32,
                    to: c.claimant as u32,
                });
            }
            self.enqueue(job, c.claimant, None);
        }
    }

    /// End of the arrival stream: the model can no longer be changed by
    /// a future arrival, so every staged job resolves now.
    fn flush_claims(&mut self) {
        if let Some(tbl) = self.claims.as_mut() {
            self.resolved.clear();
            tbl.flush(&mut self.resolved);
            self.deliver_resolved();
            debug_assert!(self.staged.is_empty(), "claim flush left jobs staged");
        }
    }

    /// Stage 6: the single point where a job becomes visible to a
    /// worker. Called strictly in placement order — arrival order for
    /// routed jobs, claim-resolution order for arbitrated ones, seq
    /// order for orphans recovery requeues at `requeued_at` — so
    /// previous-owner stamping, ring content and the trace are pure
    /// functions of the arrival stream at any worker count and any
    /// batch size.
    fn enqueue(&mut self, mut job: Job, claimant: usize, requeued_at: Option<f64>) {
        let me = claimant as u32;
        let (seq, stream, arrival_us) = (job.seq, job.pkt.stream.0, job.pkt.arrival_us);
        let tid = job.thread.map_or(claimant, |pool| pool as usize);
        job.prev_stream_owner = std::mem::replace(&mut self.prev_stream[stream as usize], me);
        job.prev_thread_owner = std::mem::replace(&mut self.prev_thread[tid], me);
        // Admitted ⇒ delivered: a full ring blocks the dispatcher until
        // the worker drains (back-pressure, never loss). A dead worker
        // drains too, into its orphans.
        while let Err(back) = self.sh.queues[claimant].push(job) {
            job = back;
            std::thread::yield_now();
        }
        if let Some(r) = self.rec.as_mut() {
            r.record(match requeued_at {
                Some(t_us) => ObsEvent::Requeue {
                    t_us,
                    seq,
                    queue: me,
                },
                // Stamped with the message's arrival (the recorder
                // sorts by the virtual merge key at the end, so
                // late-resolved staged jobs land in their causal
                // place); the depth is stamped from the merged trace.
                None => ObsEvent::Enqueue {
                    t_us: arrival_us,
                    seq,
                    stream,
                    queue: me,
                    depth: 0,
                },
            });
        }
    }

    /// Stage 7, recovery (runs on the dispatcher thread): given the
    /// joined workers with a permanent plan crash, mask them dead and
    /// re-dispatch their orphans — every job that reached a dead
    /// worker's ring from its fatal job on — through stages 3, 5 and 6
    /// over the degraded view. `recovery_done` holds live workers in
    /// their loops until every orphan is back in a live ring, so
    /// recovered work is drained. Without a permanent crash in the
    /// plan there is nothing orphaned. A crash past the last arrival,
    /// which no arrival masked, counts once its worker reached it with
    /// work in hand.
    fn recover<'r>(&mut self, dead: impl Iterator<Item = &'r mut WorkerResult>) {
        let mut orphans: Vec<(u32, Job)> = Vec::new();
        for r in dead {
            let wid = r.stats.worker;
            self.ledger.crashes += u64::from(self.rstate.is_live(wid) && r.orphans.is_some());
            self.set_live(wid, false);
            let jobs = r.orphans.iter_mut().flat_map(std::mem::take);
            orphans.extend(jobs.map(|job| (wid as u32, job)));
        }
        // One order across the dead workers, whatever their pop order.
        orphans.sort_by_key(|(_, j)| j.seq);
        for (dead, mut job) in orphans {
            self.ledger.orphaned += 1;
            // The dead thief's claim is spent: its survivor runs the
            // job as routed, not as a steal from the old victim.
            job.stolen_from = None;
            let crash_at = self.worker_faults[dead as usize]
                .crash
                .map_or(0.0, |(c, _)| c);
            // The re-route decision happens at the instant the crash
            // was detected, never before the orphan's own arrival.
            let t_us = job.pkt.arrival_us.max(crash_at);
            let flow = job.pkt.stream.0;
            let (route, rebind_from) = self.steer(flow, t_us, job.seq);
            let target = self.place(route, flow, job.seq, t_us, rebind_from);
            // Re-dispatch is a second (virtual-order) placement of the
            // same message: `enqueue` re-stamps the previous owners so
            // the recovered job's purge accounting reflects where the
            // stream actually ran last. Under per-worker stacks it still
            // runs on its home stack — the dead worker's engine holds
            // the session, under a now uncontended lock.
            self.trace(ObsEvent::Orphaned {
                t_us,
                seq: job.seq,
                worker: dead,
            });
            self.enqueue(job, target, Some(t_us));
            self.ledger.requeued += 1;
        }
    }
}
