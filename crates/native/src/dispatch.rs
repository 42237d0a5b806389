//! The one dispatcher behind every native entry point.
//!
//! [`dispatch`] builds the protocol stacks, the per-worker rings and the
//! health board, spawns the pinned [`Worker`]s, and then runs every
//! arrival through the same stages, in this order (DESIGN.md §9 states
//! each stage's contract):
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
//!    the placement trace events, in claim order;
//! 7. **watchdog recovery** — after the last arrival, orphans of
//!    permanently crashed workers re-enter at stage 3.
//!
//! Replay and serve differ only in what they hand this function: the
//! arrival source, the admission bound, and whether a recorder is
//! attached.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use afs_cache::model::pricer::DispatchPricer;
use afs_core::exec::ExecParams;
use afs_desim::rng::RngFactory;
use afs_desim::stats::Welford;
use afs_obs::{MemRecorder, ObsEvent, Recorder as _};
use afs_sched::{ClaimTable, FrontEndState, Route, RouterState, SchedView as _};
use afs_xkernel::mt::owner_of;
use afs_xkernel::{lock_overhead_cycles, ProtocolEngine, StreamId};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::Rng;

use crate::pin::CorePinner;
use crate::ring::RingQueue;
use crate::runtime::{NativeConfig, OutcomeTotals, WorkerStats};
use crate::watchdog::{HealthBoard, WorkerFaults};
use crate::worker::{Job, Shared, Worker, WorkerResult, PREV_NONE};

/// One packet handed to the dispatcher by its arrival source.
pub(crate) struct Arrival {
    pub(crate) bytes: Vec<u8>,
    pub(crate) stream: StreamId,
    pub(crate) arrival_us: f64,
    /// Whether the packet falls inside the statistics window.
    pub(crate) record: bool,
}

/// Everything that distinguishes one run of the pipeline from another.
pub(crate) struct Pipeline<'a> {
    pub(crate) cfg: &'a NativeConfig,
    pub(crate) pinner: &'a dyn CorePinner,
    /// Size of the flow-id space; the dense per-flow tables are
    /// pre-sized to it so steady-state dispatch never grows them.
    pub(crate) flows: u32,
    /// The admission bound (stage 4).
    pub(crate) admit: Option<usize>,
    /// Where to merge the run's observability trace, if recording.
    pub(crate) obs: Option<&'a mut MemRecorder>,
    /// Frame-buffer pool spent and tail-dropped buffers return to.
    pub(crate) pool: Option<&'a RingQueue<Vec<u8>>>,
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
}

/// What one run produced; both report types are filled from this.
pub(crate) struct Totals {
    pub(crate) ledger: Ledger,
    pub(crate) delay: Welford,
    pub(crate) service: Welford,
    pub(crate) wait: Welford,
    pub(crate) outcomes: OutcomeTotals,
    pub(crate) per_worker: Vec<WorkerStats>,
    pub(crate) table_misses: u64,
    pub(crate) rebinds: u64,
    pub(crate) workers_crashed: u64,
    engines: Vec<Mutex<ProtocolEngine>>,
    sessions: u32,
}

impl Totals {
    /// Largest final worker vclock, µs.
    pub(crate) fn makespan_us(&self) -> f64 {
        self.per_worker
            .iter()
            .map(|s| s.vclock_us)
            .fold(0.0, f64::max)
    }

    /// Delivered packets per session, from the engines' session tables.
    pub(crate) fn per_session_delivered(&self) -> Vec<u64> {
        (0..self.sessions)
            .map(|s| {
                self.engines
                    .iter()
                    .filter_map(|e| e.lock().table.session(StreamId(s)).map(|ss| ss.packets))
                    .sum()
            })
            .collect()
    }
}

/// Releases the workers when the dispatcher is done with them — or
/// unwinds: without the flags they would spin forever inside the scope
/// and a dispatcher panic would never reach the caller.
struct ReleaseWorkers<'a>(Shared<'a>);

impl Drop for ReleaseWorkers<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // Live workers exit only once every ring is empty; nobody
            // will ever drain what a dead worker left behind.
            for q in self.0.queues {
                while q.pop().is_some() {}
            }
        }
        self.0.done.store(true, Ordering::Release);
        self.0.recovery_done.store(true, Ordering::Release);
    }
}

/// Run `arrivals` through the pipeline `p` describes and join the
/// workers.
pub(crate) fn dispatch(p: Pipeline<'_>, arrivals: impl Iterator<Item = Arrival>) -> Totals {
    let cfg = p.cfg;
    let w = cfg.workers;
    assert!(w >= 1, "need at least one worker");
    if let Err(e) = cfg.faults.validate(w) {
        panic!("invalid processor-fault plan: {e}");
    }
    // Session space: flows fold onto `flow % sessions` engine sessions
    // (the identity when unbounded).
    let sessions = cfg.session_space.map_or(p.flows, |m| m.min(p.flows.max(1)));
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
            e.table.reserve(owned().count());
            owned().for_each(|s| e.bind_stream(s));
            Mutex::new(e)
        })
        .collect();
    // Run queues: one per worker in *every* layout. The shared pool and
    // stealing are arbitrated dispatcher-side by the claim table, so a
    // pooled packet lands directly on its claimant's ring.
    let queues: Vec<RingQueue<Job>> = (0..w)
        .map(|_| RingQueue::with_capacity(cfg.queue_capacity))
        .collect();
    let vclocks: Vec<AtomicU64> = (0..w).map(|_| AtomicU64::new(0)).collect();
    let (done, recovery_done) = (AtomicBool::new(false), AtomicBool::new(false));
    let board = HealthBoard::new(w);
    let escrow: Mutex<Vec<(u32, Job)>> = Mutex::new(Vec::new());
    let progress = AtomicU64::new(0);
    let worker_faults: Vec<WorkerFaults> = (0..w)
        .map(|i| WorkerFaults::from_plan(&cfg.faults, i))
        .collect();
    let sh = Shared {
        cfg,
        pinner: p.pinner,
        engines: &engines,
        queues: &queues,
        vclocks: &vclocks,
        done: &done,
        recovery_done: &recovery_done,
        board: &board,
        escrow: &escrow,
        lock_cycles: lock_overhead_cycles(&cfg.cost),
        sessions: sessions.max(1),
        recycle: p.pool,
        progress: p.tick.is_some().then_some(&progress),
    };
    let record_obs = p.obs.is_some();
    let mut tick = p.tick;
    let mut results: Vec<WorkerResult> = Vec::with_capacity(w);
    let mut d = Dispatcher::new(sh, p.flows, p.admit, &worker_faults, record_obs);
    std::thread::scope(|scope| {
        let handles: Vec<_> = worker_faults
            .iter()
            .enumerate()
            .map(|(wid, faults)| {
                scope.spawn(move || Worker::new(wid, sh, faults, record_obs).run())
            })
            .collect();
        let release = ReleaseWorkers(sh);
        for (seq, arrival) in arrivals.enumerate() {
            d.on_arrival(seq as u64, arrival);
            if let Some(tick) = tick.as_mut() {
                tick(&d.ledger, progress.load(Ordering::Relaxed), &vclocks);
            }
        }
        d.flush_claims();
        done.store(true, Ordering::Release);
        d.recover();
        drop(release);
        results.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked")),
        );
    });

    let Dispatcher {
        ledger, fes, rec, ..
    } = d;
    let mut totals = Totals {
        ledger,
        delay: Welford::new(),
        service: Welford::new(),
        wait: Welford::new(),
        outcomes: OutcomeTotals::default(),
        per_worker: Vec::with_capacity(w),
        table_misses: fes.as_ref().map_or(0, |f| f.table_misses()),
        rebinds: fes.as_ref().map_or(0, |f| f.rebinds),
        workers_crashed: board.downs(),
        engines,
        sessions,
    };
    // Fold the dispatcher's and each worker's trace slice into one
    // stream, sorted by the deterministic merge key (virtual time, seq,
    // causal rank) — worker order does not affect the merged trace.
    let mut slices: Vec<MemRecorder> = rec.into_iter().collect();
    for r in results {
        totals.delay.merge(&r.delay);
        totals.service.merge(&r.service);
        totals.wait.merge(&r.wait);
        totals.outcomes.delivered += r.outcomes.delivered;
        totals.outcomes.no_session += r.outcomes.no_session;
        totals.outcomes.queue_full += r.outcomes.queue_full;
        totals.outcomes.rejected += r.outcomes.rejected;
        totals.per_worker.push(r.stats);
        slices.extend(r.rec);
    }
    if let Some(out) = p.obs {
        for slice in slices {
            out.absorb(slice);
        }
    }
    totals
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
    fn new(
        sh: Shared<'a>,
        flows: u32,
        admit: Option<usize>,
        worker_faults: &'a [WorkerFaults],
        record_obs: bool,
    ) -> Self {
        let cfg = sh.cfg;
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
        // under the bound. The heap never outgrows this reserve.
        let feedback_reserve = admit.map_or(0, |cap| w * (cap + 2));
        Dispatcher {
            sh,
            admit,
            worker_faults,
            place: RngFactory::new(cfg.seed).stream("native-placement"),
            pricer,
            rstate,
            fes,
            feedback: BinaryHeap::with_capacity(feedback_reserve),
            prev_stream: vec![PREV_NONE; flows as usize],
            prev_thread: vec![PREV_NONE; w],
            stealing: claims.is_some() && !cfg.layout.pooled_queue,
            claims,
            staged: HashMap::new(),
            resolved: Vec::new(),
            rec: record_obs.then(MemRecorder::new),
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
        self.mask_liveness(t);
        self.deliver_feedback(t);
        let (route, rebind_from) = self.steer(flow, t, seq);
        if !self.admits(route, t) {
            self.ledger.dropped += 1;
            if let Some(pool) = self.sh.recycle {
                let _ = pool.push(a.bytes);
            }
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
    /// workers neither claim nor get stolen from while down.
    fn mask_liveness(&mut self, t: f64) {
        for (i, f) in self.worker_faults.iter().enumerate() {
            let live = match f.crash {
                Some((crash, revive)) if t >= crash => revive.is_some_and(|r| t >= r),
                _ => true,
            };
            if self.rstate.is_live(i) != live {
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
                // the model's steal instant; the worker-side Steal
                // event later records the thief executing it.
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
    /// order for orphans the watchdog requeues at `requeued_at` — so
    /// previous-owner stamping, ring content and the trace are pure
    /// functions of the arrival stream at any worker count and any
    /// batch size.
    fn enqueue(&mut self, mut job: Job, claimant: usize, requeued_at: Option<f64>) {
        let me = claimant as u32;
        let (seq, stream, arrival_us) = (job.seq, job.pkt.stream.0, job.pkt.arrival_us);
        let tid = job.thread.map_or(claimant, |pool| pool as usize);
        job.prev_stream_owner = std::mem::replace(&mut self.prev_stream[stream as usize], me);
        job.prev_thread_owner = std::mem::replace(&mut self.prev_thread[tid], me);
        let ring = &self.sh.queues[claimant];
        // Admitted ⇒ delivered: a full ring blocks the dispatcher until
        // the worker drains (back-pressure, never loss).
        while let Err(back) = ring.push(job) {
            job = back;
            // A crashed worker stopped draining its ring; blocking on
            // it would wedge the run (the watchdog only runs after the
            // last arrival). Park the job in escrow — the watchdog
            // re-routes it with the other orphans.
            if self.sh.board.is_down(claimant) {
                self.sh.escrow.lock().push((me, job));
                break;
            }
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
                // place); depth is a racy sample (workers pop
                // concurrently), which is all a depth gauge promises.
                None => ObsEvent::Enqueue {
                    t_us: arrival_us,
                    seq,
                    stream,
                    queue: me,
                    depth: ring.len() as u32,
                },
            });
        }
    }

    /// Stage 7, the watchdog (runs on the dispatcher thread): once
    /// every worker with a permanent plan crash has stopped touching
    /// its ring, recover the orphans — escrowed in-flight fatal jobs
    /// plus whatever is stranded in dead rings — and re-dispatch each
    /// one through stages 3, 5 and 6 over the degraded view.
    /// `recovery_done` holds live workers in their loops until every
    /// orphan is back in a live ring, so recovered work is drained.
    /// Without a permanent crash in the plan there is nothing to wait
    /// for and nothing orphaned.
    fn recover(&mut self) {
        let permanent: Vec<usize> = (0..self.worker_faults.len())
            .filter(|&i| matches!(self.worker_faults[i].crash, Some((_, None))))
            .collect();
        for &p in &permanent {
            while !self.sh.board.has_exited(p) {
                std::thread::yield_now();
            }
            self.set_live(p, false);
        }
        let mut orphans: Vec<(u32, Job)> = std::mem::take(&mut *self.sh.escrow.lock());
        for &p in &permanent {
            while let Some(job) = self.sh.queues[p].pop() {
                orphans.push((p as u32, job));
            }
        }
        // Deterministic recovery order regardless of which worker
        // escrowed first on the host clock.
        orphans.sort_by_key(|(_, j)| j.seq);
        for (dead, job) in orphans {
            self.ledger.orphaned += 1;
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
