//! The pinned worker: one OS thread draining one ring.
//!
//! Every layout gives each worker its own ring, fed in claim order by
//! the dispatcher; a worker only ever pops its own ring, FIFO. Pool and
//! steal arbitration happened dispatcher-side (the claim table), so
//! there is no worker-side victim scan or shared-pool gate here. The
//! loop is `pop_train → fatal_check → process → account`:
//!
//! * **pop_train** claims up to [`NativeConfig::batch`] published
//!   packets in one ring operation — legal for every layout, because a
//!   train pop can only drain what arbitration already decided.
//! * **fatal_check** asks the fault plan whether starting the next job
//!   would carry the virtual clock past this worker's permanent crash
//!   instant; if so the worker dies and the job (with the rest of its
//!   train) is escrowed for the watchdog.
//! * **process** runs the real receive path over this worker's private
//!   [`MemoryHierarchy`]: fault displacement, migration purges driven by
//!   the dispatcher-stamped previous owners, the stack lock (charged
//!   where the policy pays it), and the modeled service time.
//! * **account** advances the virtual clock and books the packet into
//!   the statistics, the trace and the published gauges.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use afs_cache::sim::{MemoryHierarchy, Region};
use afs_desim::stats::Welford;
use afs_obs::{ChargeKind, MemRecorder, ObsEvent, Recorder as _};
use afs_sched::HashedLru;
use afs_xkernel::driver::RxFrame;
use afs_xkernel::mem::MemLayout;
use afs_xkernel::{DropReason, ProtocolEngine, RxOutcome, StreamId, ThreadId};
use parking_lot::Mutex;

use crate::dispatch::Arrival;
use crate::pin::CorePinner;
use crate::ring::RingQueue;
use crate::runtime::{NativeConfig, OutcomeTotals, Pinning, WorkerStats};
use crate::watchdog::{HealthBoard, WorkerFaults};

/// A queued unit of work: an arrival plus the dispatcher's stamps.
pub(crate) struct Job {
    pub(crate) pkt: Arrival,
    /// Global arrival sequence number (the observability trace key).
    pub(crate) seq: u64,
    /// Pool thread to run as (`None` = the worker's own thread).
    pub(crate) thread: Option<u32>,
    /// Stack holding this packet's session (`None` = the one shared
    /// stack). Under per-worker stacks a stream's folded session lives
    /// on its owner's engine, so the packet runs there whoever drains
    /// it — a thief, a worker a crashed owner's traffic was routed
    /// around to, or the survivor an orphan was requeued on — under
    /// that stack's lock, exactly the steal handoff path.
    pub(crate) home_stack: Option<u32>,
    /// Dispatcher-stamped previous owner of this packet's stream state
    /// ([`PREV_NONE`] = first touch).
    ///
    /// The dispatcher always knows the virtual-order predecessor of
    /// every stream/thread touch: routing decides the processing worker
    /// directly, and when it does not (shared pool, stealing) the claim
    /// table resolves the claimant in total virtual order before the
    /// job reaches any ring. Orphans recovered from a failed worker are
    /// re-stamped when the watchdog requeues them. Migration detection
    /// — and through the cache purges it drives, every modeled service
    /// time — is therefore a pure function of the workload in *every*
    /// configuration; there is no racy fallback.
    pub(crate) prev_stream_owner: u32,
    /// Dispatcher-stamped previous owner of this packet's thread stack
    /// (same encoding as `prev_stream_owner`).
    pub(crate) prev_thread_owner: u32,
    /// Worker whose queue this packet was stolen from, per the resolved
    /// claim. Drives the steal statistics, the `Steal` trace event, and
    /// the locked steal-handoff path.
    pub(crate) stolen_from: Option<u32>,
}

/// `Job::prev_*_owner`: deterministic first touch (no previous owner).
pub(crate) const PREV_NONE: u32 = u32::MAX - 1;

/// What the dispatcher shares with every worker thread.
#[derive(Clone, Copy)]
pub(crate) struct Shared<'a> {
    pub(crate) cfg: &'a NativeConfig,
    pub(crate) pinner: &'a dyn CorePinner,
    pub(crate) engines: &'a [Mutex<ProtocolEngine>],
    pub(crate) queues: &'a [RingQueue<Job>],
    /// Published per-worker virtual clocks (f64 bit patterns;
    /// nonnegative floats order the same as their bits) — the live
    /// snapshot gauge.
    pub(crate) vclocks: &'a [AtomicU64],
    /// Set once the arrival stream is exhausted.
    pub(crate) done: &'a AtomicBool,
    /// Set by the watchdog once every orphan is back in a live ring;
    /// live workers hold their exit on it so recovered work is drained.
    pub(crate) recovery_done: &'a AtomicBool,
    /// Shared health state (crash flags, exit flags).
    pub(crate) board: &'a HealthBoard,
    /// Fatal jobs parked for the watchdog, tagged with the dead worker.
    pub(crate) escrow: &'a Mutex<Vec<(u32, Job)>>,
    pub(crate) lock_cycles: f64,
    /// Engine session space: flows fold onto `flow % sessions` bound
    /// sessions (the identity when `session_space` is unset).
    pub(crate) sessions: u32,
    /// Frame-buffer pool: after a frame is processed its byte buffer is
    /// returned here for the arrival source to refill (allocation-free
    /// steady state). `None` drops buffers.
    pub(crate) recycle: Option<&'a RingQueue<Vec<u8>>>,
    /// Live progress gauge: incremented once per processed packet.
    pub(crate) progress: Option<&'a AtomicU64>,
}

/// What each worker thread hands back on join.
pub(crate) struct WorkerResult {
    pub(crate) stats: WorkerStats,
    pub(crate) delay: Welford,
    pub(crate) service: Welford,
    pub(crate) wait: Welford,
    pub(crate) outcomes: OutcomeTotals,
    /// This worker's slice of the observability trace (present only on
    /// a recorded run).
    pub(crate) rec: Option<MemRecorder>,
}

/// What `process` measured for one packet, handed to `account`.
struct Served {
    start_v: f64,
    service_us: f64,
    stream_migrated: bool,
    thread_migrated: bool,
    locked: bool,
    qdepth: u32,
    outcome: RxOutcome,
}

/// One worker's private state: its processor's caches, its virtual
/// clock and its books.
pub(crate) struct Worker<'a> {
    wid: usize,
    sh: Shared<'a>,
    /// This worker's slice of the processor-fault plan.
    faults: &'a WorkerFaults,
    hier: MemoryHierarchy,
    layout: MemLayout,
    /// Bounded resident stream-state set: `stream_cache` slots split
    /// across workers, each tracking which flows' footprints its caches
    /// still hold. A flow falling out pays a full cold stream reload on
    /// its next packet even without an intervening migration.
    resident: Option<HashedLru<()>>,
    vclock: f64,
    /// Rotating simulated packet-buffer slot.
    slot: u32,
    out: WorkerResult,
}

impl<'a> Worker<'a> {
    /// Build the worker *on its own thread*: pins the calling thread.
    pub(crate) fn new(
        wid: usize,
        sh: Shared<'a>,
        faults: &'a WorkerFaults,
        record_obs: bool,
    ) -> Self {
        let cfg = sh.cfg;
        let core = wid % sh.pinner.cores().max(1);
        let pinned = matches!(cfg.pinning, Pinning::Auto) && sh.pinner.pin_current(core).is_ok();
        Worker {
            wid,
            sh,
            faults,
            hier: cfg.cost.hierarchy(),
            layout: MemLayout::new(),
            resident: cfg
                .stream_cache
                .map(|cap| HashedLru::new((cap / cfg.workers.max(1)).max(1))),
            vclock: 0.0,
            slot: 0,
            out: WorkerResult {
                stats: WorkerStats {
                    worker: wid,
                    core,
                    pinned,
                    ..WorkerStats::default()
                },
                delay: Welford::new(),
                service: Welford::new(),
                wait: Welford::new(),
                outcomes: OutcomeTotals::default(),
                rec: record_obs.then(MemRecorder::new),
            },
        }
    }

    /// Drain the ring until the run is over (or the plan kills us).
    pub(crate) fn run(mut self) -> WorkerResult {
        let batch = self.sh.cfg.batch.max(1);
        let mut train: Vec<Job> = Vec::with_capacity(batch);
        'main: loop {
            let depth = self.sh.queues[self.wid].len();
            self.out.stats.max_queue_depth = self.out.stats.max_queue_depth.max(depth);
            if self.pop_train(&mut train, batch) {
                let mut jobs = train.drain(..);
                while let Some(job) = jobs.next() {
                    if let Some(crash_at) = self.fatal_check(&job) {
                        self.die(crash_at, job, jobs);
                        break 'main;
                    }
                    self.process(job);
                }
                continue;
            }
            if self.may_exit() {
                break;
            }
            std::thread::yield_now();
        }
        // Park the published clock at infinity so live snapshot readers
        // see an exited worker as never-again-busy; then let the
        // watchdog know this thread will never touch a ring again.
        self.sh.vclocks[self.wid].store(f64::INFINITY.to_bits(), Ordering::Release);
        self.sh.board.mark_exited(self.wid);
        self.out.stats.vclock_us = self.vclock;
        self.out
    }

    /// Claim the next train off our ring; `false` when it was empty.
    fn pop_train(&self, train: &mut Vec<Job>, batch: usize) -> bool {
        let queue = &self.sh.queues[self.wid];
        if batch > 1 {
            return queue.pop_batch(train, batch) > 0;
        }
        train.extend(queue.pop());
        !train.is_empty()
    }

    /// Would starting `job` at the current virtual instant kill us?
    /// Displacement first: a stall window can push the start past the
    /// crash instant, and the crash wins. Returns the crash instant.
    fn fatal_check(&self, job: &Job) -> Option<f64> {
        let start = self.faults.displace(self.vclock.max(job.pkt.arrival_us));
        self.faults.fatal_at(start.start_v)
    }

    /// The worker dies at `crash_at`: park the fatal job with the
    /// watchdog, which re-routes it once we have exited. The rest of
    /// the claimed train is already off the ring, so it orphans with
    /// the fatal job — the watchdog re-routes the lot in seq order.
    fn die(&mut self, crash_at: f64, job: Job, rest: impl Iterator<Item = Job>) {
        let me = self.wid as u32;
        if let Some(r) = self.out.rec.as_mut() {
            r.record(ObsEvent::WorkerDown {
                t_us: crash_at,
                worker: me,
            });
        }
        self.sh.board.mark_down(self.wid);
        let mut escrow = self.sh.escrow.lock();
        escrow.push((me, job));
        escrow.extend(rest.map(|j| (me, j)));
    }

    /// With the ring empty: is the run over for this worker? A worker
    /// the plan permanently kills exits as soon as its own work is gone
    /// — the watchdog waits on that exit before draining its ring, so
    /// it must not gate on global emptiness. Live workers additionally
    /// hold until orphan recovery finished, so requeued work is drained.
    fn may_exit(&self) -> bool {
        if !self.sh.done.load(Ordering::Acquire) {
            return false;
        }
        if matches!(self.faults.crash, Some((_, None))) {
            return self.sh.queues[self.wid].is_empty();
        }
        self.sh.recovery_done.load(Ordering::Acquire) && self.sh.queues.iter().all(|q| q.is_empty())
    }

    /// Touch an entity the dispatcher stamped with its previous owner:
    /// if it last ran elsewhere (or never ran), its lines are not in
    /// our caches — purge them so the next reads run cold. Returns
    /// whether that was a migration (a real previous owner).
    fn reload_if_remote(&mut self, prev_owner: u32, addr: u64, bytes: u64) -> bool {
        if prev_owner == self.wid as u32 {
            return false;
        }
        self.hier.purge_range(addr, bytes);
        prev_owner != PREV_NONE
    }

    /// One packet's full processing: fault displacement, migration
    /// purges, lock acquisition (with overhead charge where the policy
    /// pays it) and the real receive path.
    fn process(&mut self, mut job: Job) {
        let me = self.wid as u32;
        let cost = &self.sh.cfg.cost;
        let qdepth = self.sh.queues[self.wid].len() as u32;
        // Push the virtual service start through any stall window (and
        // the reboot window of a crash-with-revive) containing it. The
        // vclock is monotone, so each window is crossed at most once —
        // no dedup flags needed for the events.
        let disp = self.faults.displace(self.vclock.max(job.pkt.arrival_us));
        if disp.rebooted {
            // The crash lost this worker's caches: the revived worker
            // re-touches all state cold. Ownership stamps are
            // dispatcher-side and unaffected — a post-reboot remote
            // touch still counts as a migration, deterministically.
            self.hier = cost.hierarchy();
        }
        if let Some(r) = self.out.rec.as_mut() {
            let stalls = disp.stall_hits.iter().map(|&ix| self.faults.stalls[ix]);
            let reboot = match self.faults.crash {
                Some((crash, Some(revive))) if disp.rebooted => Some((crash, revive)),
                _ => None,
            };
            for (down, up) in stalls.chain(reboot) {
                r.record(ObsEvent::WorkerDown {
                    t_us: down,
                    worker: me,
                });
                r.record(ObsEvent::WorkerUp {
                    t_us: up,
                    worker: me,
                });
            }
        }
        let stream_bytes = cost.stream_read_bytes + cost.stream_write_bytes;
        let stream_addr = self.layout.stream(job.pkt.stream.0);
        let stream_migrated =
            self.reload_if_remote(job.prev_stream_owner, stream_addr, stream_bytes);
        // Thread stacks migrate only for rotating pool threads.
        let tid = job.thread.unwrap_or(me);
        let thread_migrated = self.reload_if_remote(
            job.prev_thread_owner,
            self.layout.thread(tid),
            cost.thread_read_bytes + cost.thread_write_bytes,
        );
        // Bounded resident set: touching a flow promotes it; a miss
        // (first touch or re-touch after eviction) means its state fell
        // out of this worker's caches.
        if let Some(lru) = self.resident.as_mut() {
            let key = job.pkt.stream.0 as u64;
            let hit = lru.get(key).is_some();
            lru.insert(key, ());
            if !hit {
                self.hier.purge_range(stream_addr, stream_bytes);
            }
        }
        // Packet buffers arrive DMA-cold, as in the calibration runs.
        self.hier.purge_region(Region::PacketData);

        let frame = RxFrame {
            bytes: std::mem::take(&mut job.pkt.bytes),
            // The engine demuxes by port, i.e. by folded session id;
            // steering and migration tracking above use the real flow.
            stream: StreamId(job.pkt.stream.0 % self.sh.sessions),
            buf_addr: self.layout.packet(self.slot % 8),
        };
        self.slot = self.slot.wrapping_add(1);

        // A packet runs on the stack that holds its session; any
        // off-stack run pays the lock — shared-stack policies always,
        // steals and orphan recovery under per-worker stacks.
        let stack = job.home_stack.map_or(0, |home| home as usize);
        let locked = self.sh.cfg.layout.shared_stack || stack != self.wid;
        let start_cycles = self.hier.stats.cycles;
        let outcome = {
            let engine = &self.sh.engines[stack];
            let mut guard = engine.try_lock().unwrap_or_else(|| {
                self.out.stats.lock_contended += 1;
                engine.lock()
            });
            if locked {
                self.hier.charge_cycles(self.sh.lock_cycles);
            }
            let outcome = guard.receive_outcome(&mut self.hier, &frame, ThreadId(tid));
            // The user process reads each datagram as it lands (its cost
            // is already priced into the receive path's user stage);
            // without this the 64-deep session queue would overflow on
            // any run longer than it.
            if outcome.is_delivered() {
                if let Some(session) = guard.table.session_mut(frame.stream) {
                    session.consume();
                }
            }
            outcome
        };
        // The engine only borrowed the frame, so its byte buffer is
        // free here — hand it back for refilling instead of dropping it.
        // A full pool (impossible when sized to the buffer population)
        // just drops the buffer.
        if let Some(pool) = self.sh.recycle {
            let _ = pool.push(frame.bytes);
        }
        let cycles = self.hier.stats.cycles - start_cycles;
        let service_us = self
            .faults
            .scale_service(disp.start_v, self.hier.platform().cycles_to_us(cycles));
        self.account(
            &job,
            Served {
                start_v: disp.start_v,
                service_us,
                stream_migrated,
                thread_migrated,
                locked,
                qdepth,
                outcome,
            },
        );
    }

    /// Advance the virtual clock past one served packet and book it:
    /// telemetry, trace events (every stamp virtual), typed outcome,
    /// the post-warm-up moments and the published gauges.
    fn account(&mut self, job: &Job, s: Served) {
        let me = self.wid as u32;
        self.vclock = s.start_v + s.service_us;
        let delay_us = self.vclock - job.pkt.arrival_us;
        let stats = &mut self.out.stats;
        stats.processed += 1;
        stats.busy_us += s.service_us;
        stats.steals += job.stolen_from.is_some() as u64;
        stats.stream_migrations += s.stream_migrated as u64;
        stats.thread_migrations += s.thread_migrated as u64;
        if let Some(r) = self.out.rec.as_mut() {
            // For a steal, `queue` names the victim ring the packet was
            // lifted from.
            if let Some(victim) = job.stolen_from {
                r.record(ObsEvent::Steal {
                    t_us: s.start_v,
                    seq: job.seq,
                    from: victim,
                    to: me,
                });
            }
            r.record(ObsEvent::Dispatch {
                t_us: s.start_v,
                seq: job.seq,
                stream: job.pkt.stream.0,
                worker: me,
                service_us: s.service_us,
                stream_migrated: s.stream_migrated,
                thread_migrated: s.thread_migrated,
                stolen: job.stolen_from.is_some(),
            });
            let lock_us = self.hier.platform().cycles_to_us(self.sh.lock_cycles);
            for (charged, kind, amount_us) in [
                (s.stream_migrated, ChargeKind::Flush, 0.0),
                (s.thread_migrated, ChargeKind::Flush, 0.0),
                (s.locked, ChargeKind::Lock, lock_us),
            ] {
                if charged {
                    r.record(ObsEvent::CacheCharge {
                        t_us: s.start_v,
                        worker: me,
                        kind,
                        amount_us,
                    });
                }
            }
            r.record(ObsEvent::QueueDepth {
                t_us: s.start_v,
                queue: job.stolen_from.unwrap_or(me),
                depth: s.qdepth,
            });
            r.record(ObsEvent::Complete {
                t_us: self.vclock,
                seq: job.seq,
                stream: job.pkt.stream.0,
                worker: me,
                delay_us,
                ok: s.outcome.is_delivered(),
            });
        }
        let outcomes = &mut self.out.outcomes;
        match s.outcome {
            RxOutcome::Delivered(_) => {
                stats.delivered += 1;
                outcomes.delivered += 1;
            }
            RxOutcome::Dropped { reason, .. } => match reason {
                DropReason::NoSession(_) => outcomes.no_session += 1,
                DropReason::UserQueueFull(_) => outcomes.queue_full += 1,
            },
            RxOutcome::Error { .. } => outcomes.rejected += 1,
        }
        if job.pkt.record {
            self.out.delay.add(delay_us);
            self.out.service.add(s.service_us);
            self.out.wait.add(s.start_v - job.pkt.arrival_us);
        }
        self.sh.vclocks[self.wid].store(self.vclock.to_bits(), Ordering::Release);
        if let Some(p) = self.sh.progress {
            p.fetch_add(1, Ordering::Relaxed);
        }
    }
}
