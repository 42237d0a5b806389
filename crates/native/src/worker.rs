//! The pinned worker: one OS thread draining one ring.
//!
//! Every layout gives each worker its own ring, fed in claim order by
//! the dispatcher; a worker only ever pops its own ring, FIFO. Pool and
//! steal arbitration happened dispatcher-side (the claim table), so
//! there is no worker-side victim scan or shared-pool gate here. The
//! loop is `pop_train → serve → process → account`:
//!
//! * **pop_train** claims up to [`NativeConfig::batch`] queued
//!   packets in one ring operation — legal for every layout, because a
//!   train pop can only drain what arbitration already decided.
//! * **serve** displaces the job's start through the fault plan and
//!   asks whether it reaches this worker's permanent crash instant; if
//!   so the worker dies there. A dead worker keeps draining its own
//!   ring, but every job it pops, the fatal one first, becomes an
//!   orphan it hands back on join for the dispatcher to re-route.
//! * **process** runs the real receive path over this worker's private
//!   [`MemoryHierarchy`]: migration purges driven by the
//!   dispatcher-stamped previous owners, the stack lock (charged where
//!   the policy pays it), and the modeled service time. On a serving
//!   run the job is a descriptor: the worker rewrites its one frame as
//!   the job's first. The payload was written when the worker started;
//!   per packet only the header bytes and the FCS are, on this core,
//!   and the engine parses the frame where it lies.
//! * **account** advances the virtual clock and books the packet into
//!   the statistics, the trace and the published gauges.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use afs_cache::sim::{MemoryHierarchy, Region};
use afs_desim::stats::Welford;
use afs_obs::{ChargeKind, MemRecorder, ObsEvent, Recorder as _};
use afs_sched::HashedLru;
use afs_xkernel::driver::{FrameTemplate, RxFrame};
use afs_xkernel::mem::MemLayout;
use afs_xkernel::{ProtocolEngine, RxOutcome, StreamId, ThreadId};

use crate::dispatch::Arrival;
use crate::ring::RingQueue;
use crate::runtime::{NativeConfig, OutcomeTotals, WorkerStats};
use crate::watchdog::{Displaced, WorkerFaults};

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
    /// re-stamped when recovery requeues them. Migration detection
    /// — and through the cache purges it drives, every modeled service
    /// time — is therefore a pure function of the workload in *every*
    /// configuration; there is no racy fallback.
    pub(crate) prev_stream_owner: u32,
    /// Dispatcher-stamped previous owner of this packet's thread stack
    /// (same encoding as `prev_stream_owner`).
    pub(crate) prev_thread_owner: u32,
    /// Worker whose queue this packet was stolen from, per the resolved
    /// claim. Drives the steal statistics, the `Dispatch.stolen` trace
    /// flag, and the locked steal-handoff path.
    pub(crate) stolen_from: Option<u32>,
}

/// `Job::prev_*_owner`: deterministic first touch (no previous owner).
pub(crate) const PREV_NONE: u32 = u32::MAX - 1;

/// Rewrite `frame`, built by `template`, as the `seq`-th offered
/// packet's frame, the one the serving generator would have built: its
/// factory's per-call ident counter gives that packet ident `seq + 1`.
fn frame_of(template: &FrameTemplate, seq: u64, session: StreamId, frame: &mut [u8]) {
    template.rewrite((seq as u16).wrapping_add(1), session, frame);
}

/// Lock `m` even if a thread panicked holding it: a panicked worker
/// must not wedge the dispatcher, the other workers or the report.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What the dispatcher shares with every worker thread.
#[derive(Clone, Copy)]
pub(crate) struct Shared<'a> {
    pub(crate) cfg: &'a NativeConfig,
    pub(crate) engines: &'a [Mutex<ProtocolEngine>],
    pub(crate) queues: &'a [RingQueue<Job>],
    /// Published per-worker virtual clocks (f64 bit patterns;
    /// nonnegative floats order the same as their bits) — the live
    /// snapshot gauge.
    pub(crate) vclocks: &'a [AtomicU64],
    /// Set once the arrival stream is exhausted.
    pub(crate) done: &'a AtomicBool,
    /// Set once every orphan is back in a live ring; live workers hold
    /// their exit on it so recovered work is drained.
    pub(crate) recovery_done: &'a AtomicBool,
    pub(crate) lock_cycles: f64,
    /// Engine session space: flows fold onto `flow % sessions` bound
    /// sessions (the identity when `session_space` is unset).
    pub(crate) sessions: u32,
    /// [`crate::dispatch::Pipeline::frames`], handed to every worker.
    pub(crate) frames: Option<usize>,
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
    /// `Some` once the plan has killed this worker: every job it popped
    /// from its fatal job on, unserved, in pop order.
    pub(crate) orphans: Option<Vec<Job>>,
}

/// What `process` measured for one packet, handed to `account`.
struct Served {
    start_v: f64,
    service_us: f64,
    stream_migrated: bool,
    thread_migrated: bool,
    locked: bool,
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
    /// What the engine reads next: on a serving run this worker's one
    /// frame, rewritten per packet by `template`; on a replay run the
    /// job's own frame, which arrives built.
    frame: RxFrame,
    /// A serving run's frame template (`None` on a replay run).
    template: Option<FrameTemplate>,
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
        // Best-effort: `Pinning::Off` selects the no-op pinner, which
        // always fails, and a refused pin changes no result.
        let pinner = cfg.pinning.pinner();
        let _ = pinner.pin_current(wid % pinner.cores().max(1));
        let mut frame = RxFrame {
            bytes: Vec::new(),
            stream: StreamId(0),
            buf_addr: 0,
        };
        let template = sh
            .frames
            .map(|payload| FrameTemplate::new(payload, &mut frame.bytes));
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
            frame,
            template,
            out: WorkerResult {
                stats: WorkerStats {
                    worker: wid,
                    ..WorkerStats::default()
                },
                delay: Welford::new(),
                service: Welford::new(),
                wait: Welford::new(),
                outcomes: OutcomeTotals::default(),
                rec: record_obs.then(MemRecorder::new),
                orphans: None,
            },
        }
    }

    /// Drain the ring until the run is over.
    pub(crate) fn run(mut self) -> WorkerResult {
        let batch = self.sh.cfg.batch.max(1);
        let mut train: Vec<Job> = Vec::with_capacity(batch);
        loop {
            if self.pop_train(&mut train, batch) {
                for job in train.drain(..) {
                    self.serve(job);
                }
                continue;
            }
            if self.may_exit() {
                break;
            }
            std::thread::yield_now();
        }
        // Park the published clock at infinity so live snapshot readers
        // see an exited worker as never-again-busy.
        self.sh.vclocks[self.wid].store(f64::INFINITY.to_bits(), Ordering::Release);
        self.out.stats.vclock_us = self.vclock;
        self.out
    }

    /// Claim the next train off our ring; `false` when it was empty.
    fn pop_train(&self, train: &mut Vec<Job>, batch: usize) -> bool {
        self.sh.queues[self.wid].pop_batch(train, batch) > 0
    }

    /// Serve one popped job, or orphan it. The start is displaced
    /// first, through any stall window (and the reboot window of a
    /// crash-with-revive) containing it: a stall can push it past the
    /// permanent crash instant, and the crash wins. The job whose start
    /// reaches that instant kills the worker; from then on every job it
    /// pops is an orphan.
    fn serve(&mut self, job: Job) {
        if let Some(orphans) = self.out.orphans.as_mut() {
            orphans.push(job);
            return;
        }
        let disp = self.faults.displace(self.vclock.max(job.pkt.arrival_us));
        let Some(crash_at) = self.faults.fatal_at(disp.start_v) else {
            self.process(job, disp);
            return;
        };
        if let Some(r) = self.out.rec.as_mut() {
            r.record(ObsEvent::WorkerDown {
                t_us: crash_at,
                worker: self.wid as u32,
            });
        }
        self.out.orphans = Some(vec![job]);
    }

    /// With the ring empty: is the run over for this worker? Only this
    /// worker pops its ring, so once the arrivals are done an empty ring
    /// stays empty, except for the orphans recovery places. A worker the
    /// plan kills for good is never a recovery target, and recovery
    /// joins it for its orphans, so it exits without waiting on it.
    fn may_exit(&self) -> bool {
        self.sh.done.load(Ordering::Acquire)
            && (matches!(self.faults.crash, Some((_, None)))
                || self.sh.recovery_done.load(Ordering::Acquire))
            && self.sh.queues[self.wid].is_empty()
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

    /// One packet's full processing from its displaced start: fault
    /// events, migration purges, lock acquisition (with overhead charge
    /// where the policy pays it) and the real receive path.
    fn process(&mut self, mut job: Job, disp: Displaced) {
        let me = self.wid as u32;
        let cost = &self.sh.cfg.cost;
        // The vclock is monotone, so each window is crossed at most
        // once — no dedup flags needed for the events.
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

        // The engine demuxes by port, i.e. by folded session id;
        // steering and migration tracking above use the real flow.
        let session = StreamId(job.pkt.stream.0 % self.sh.sessions);
        match &self.template {
            Some(template) => frame_of(template, job.seq, session, &mut self.frame.bytes),
            None => self.frame.bytes = std::mem::take(&mut job.pkt.bytes),
        }
        self.frame.stream = session;
        self.frame.buf_addr = self.layout.packet(self.slot % 8);
        self.slot = self.slot.wrapping_add(1);

        // A packet runs on the stack that holds its session; any
        // off-stack run pays the lock — shared-stack policies always,
        // steals and orphan recovery under per-worker stacks.
        let stack = job.home_stack.map_or(0, |home| home as usize);
        let locked = self.sh.cfg.layout.shared_stack || stack != self.wid;
        let start_cycles = self.hier.stats.cycles;
        let outcome = {
            let mut guard = lock(&self.sh.engines[stack]);
            if locked {
                self.hier.charge_cycles(self.sh.lock_cycles);
            }
            let outcome = guard.receive_outcome(&mut self.hier, &self.frame, ThreadId(tid));
            // The user process reads each datagram as it lands (its cost
            // is already priced into the receive path's user stage);
            // without this the 64-deep session queue would overflow on
            // any run longer than it.
            if outcome.is_delivered() {
                if let Some(session) = guard.table.session_mut(session) {
                    session.consume();
                }
            }
            outcome
        };
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
        stats.delivered += s.outcome.is_delivered() as u64;
        if let Some(r) = self.out.rec.as_mut() {
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
            if s.locked {
                r.record(ObsEvent::CacheCharge {
                    t_us: s.start_v,
                    worker: me,
                    kind: ChargeKind::Lock,
                    amount_us: self.hier.platform().cycles_to_us(self.sh.lock_cycles),
                });
            }
            // Its depth is stamped from the merged trace; for a steal,
            // `queue` names the victim ring the packet was lifted from.
            r.record(ObsEvent::QueueDepth {
                t_us: s.start_v,
                queue: job.stolen_from.unwrap_or(me),
                depth: 0,
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
        self.out.outcomes.add(&s.outcome);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::zipf_workload;

    #[test]
    fn worker_built_frames_equal_the_generators_across_the_ident_wrap() {
        let (sessions, payload_bytes) = (7, 16);
        let packets = zipf_workload(100, 65_538, 1e5, 1.1, 4.0, Some(sessions), payload_bytes, 3);
        let mut frame = Vec::new();
        let template = FrameTemplate::new(payload_bytes, &mut frame);
        for seq in 65_534..65_538u64 {
            let p = &packets[seq as usize];
            frame_of(&template, seq, StreamId(p.stream.0 % sessions), &mut frame);
            assert_eq!(frame, p.bytes, "seq {seq}");
        }
    }

    #[test]
    fn lock_outlives_a_panicked_holder() {
        let m = Mutex::new(5u32);
        let holder_panicked = std::thread::scope(|s| {
            s.spawn(|| {
                *lock(&m) += 1;
                let _held = lock(&m);
                panic!("a worker dies holding the stack");
            })
            .join()
            .is_err()
        });
        assert!(holder_panicked && m.is_poisoned());
        assert_eq!(*lock(&m), 6);
    }
}
