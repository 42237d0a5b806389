//! Event mechanics: arrivals (with wire faults), bounded-queue
//! admission, enqueue routing and completion bookkeeping.
//!
//! *Where* an arriving packet queues is a scheduling decision, so the
//! Locking-side routing is delegated to the shared policy crate: the
//! policy names a [`afs_sched::Router`] per stream
//! ([`afs_sched::LockPolicy::router`]) and the router decides over the
//! simulator's view. This module owns everything mechanical around it —
//! fault draws, drop policies, eviction, and the affinity bookkeeping at
//! completion.

use std::collections::VecDeque;

use afs_desim::time::SimTime;
use afs_obs::{ObsEvent, SHARED_QUEUE};
use afs_sched::Route;

use crate::config::{DropPolicy, Paradigm};
use crate::procfault::ProcFaultKind;
use crate::state::{InFlight, Packet, ProcActivity, ProcHealth, Runner};

use super::dispatch::LockView;
use super::SchedSim;

/// Simulation events.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// A packet of this stream arrives.
    Arrival {
        /// The arriving stream's id.
        stream: u32,
    },
    /// The processor's in-flight packet completes.
    Completion {
        /// The completing processor's index.
        proc: usize,
    },
    /// A processor fault from the plan fires (crash, stall or slowdown).
    ProcFault {
        /// Index into [`crate::procfault::ProcFaultPlan::faults`].
        idx: u32,
    },
    /// A faulted processor recovers (stall window ends, crash revives).
    ProcRecover {
        /// Index into [`crate::procfault::ProcFaultPlan::faults`].
        idx: u32,
    },
}

/// The queue an admitted packet joins.
#[derive(Debug, Clone, Copy)]
enum Target {
    /// The shared Locking run queue.
    Shared,
    /// A processor's own queue (enqueue-routed Locking, or front-end
    /// steered).
    Proc(usize),
    /// An IPS stack's queue.
    Stack(usize),
}

impl<'r> SchedSim<'r> {
    /// The queue a Locking packet joins, as decided by the policy's
    /// router over the state at an explicit decision instant: the
    /// normal enqueue path decides at the packet's arrival, crash
    /// recovery re-decides at the crash instant over the degraded
    /// (dead-worker-masked) view. No Locking router consumes randomness
    /// — the draw hook is a poisoned closure so any that tried would
    /// fail loudly instead of silently skewing the placement RNG stream.
    fn lock_route_at(&self, now: SimTime, stream: u32) -> Route {
        let policy = match &self.cfg.paradigm {
            Paradigm::Locking { policy } => policy,
            Paradigm::Ips { .. } => unreachable!("lock_route under IPS"),
        };
        let view = self.lock_view(now);
        policy.router(stream).route(
            &view,
            stream,
            &mut |_| unreachable!("enqueue routing draws no randomness"),
            &self.pricer,
        )
    }

    /// Steer one packet through the NIC front-end. The route is
    /// computed exactly once per packet: steering lookups mutate state
    /// (LRU promotion, the rebind ledger) and a randomized fallback
    /// router draws from the policy RNG, so routing twice would skew
    /// both. Emits the steering observability events, so the obs
    /// counters stay exactly equal to the front-end's own totals.
    fn route_via_frontend(&mut self, now: SimTime, seq: u64, stream: u32) -> usize {
        use rand::Rng as _;
        let fes = self.frontend.as_mut().expect("front-end active");
        let prev = fes.previous_route(stream);
        let misses_before = fes.table_misses();
        let view = LockView {
            procs: &self.procs,
            threads: &self.threads,
            streams: &self.streams,
            proc_q: &self.proc_q,
            now,
        };
        let rng = &mut self.policy_rng;
        let w = fes.route(&view, stream, &mut |n| rng.gen_range(0..n), &self.pricer);
        let missed = fes.table_misses() > misses_before;
        if let Some(rec) = self.obs.as_deref_mut() {
            let t_us = now.as_micros_f64();
            if missed {
                rec.record(ObsEvent::TableMiss { t_us, seq, stream });
            }
            if let Some(p) = prev {
                if p != w {
                    rec.record(ObsEvent::Rebind {
                        t_us,
                        seq,
                        stream,
                        from: p as u32,
                        to: w as u32,
                    });
                }
            }
        }
        w
    }

    /// Resolve the queue a packet joins at `now` — its arrival on the
    /// enqueue path, the crash instant for an orphan: front-end steer,
    /// the Locking policy's routing rule, or the stream's IPS stack,
    /// exactly once per decision (see [`Self::route_via_frontend`] for
    /// why twice would be wrong).
    fn target_of(&mut self, now: SimTime, pkt: &Packet) -> Target {
        if self.frontend.is_some() {
            return Target::Proc(self.route_via_frontend(now, pkt.seq, pkt.stream));
        }
        match &self.cfg.paradigm {
            Paradigm::Locking { .. } => match self.lock_route_at(now, pkt.stream) {
                Route::Worker(p) => Target::Proc(p),
                Route::Shared => Target::Shared,
            },
            // IPS: streams take the stacks round-robin.
            Paradigm::Ips { .. } => Target::Stack(pkt.stream as usize % self.stacks.len()),
        }
    }

    /// The queue behind `target` and its id in the observability stream.
    fn queue_of(&mut self, target: Target) -> (&mut VecDeque<Packet>, u32) {
        match target {
            Target::Shared => (&mut self.global_q, SHARED_QUEUE),
            Target::Proc(p) => (&mut self.proc_q[p], p as u32),
            Target::Stack(w) => (&mut self.stacks.queue[w], w as u32),
        }
    }

    /// Packets waiting across every queue (backpressure's shared bound).
    fn total_backlog(&self) -> usize {
        self.global_q.len()
            + self.proc_q.iter().map(|q| q.len()).sum::<usize>()
            + self.stacks.queue.iter().map(|q| q.len()).sum::<usize>()
    }

    /// Evict the oldest packet of the currently longest queue.
    fn evict_from_longest(&mut self, now: SimTime) {
        let longest_proc = (0..self.proc_q.len()).max_by_key(|&p| self.proc_q[p].len());
        let longest_stack = (0..self.stacks.len()).max_by_key(|&w| self.stacks.queue[w].len());
        let global_len = self.global_q.len();
        let proc_len = longest_proc.map_or(0, |p| self.proc_q[p].len());
        let stack_len = longest_stack.map_or(0, |w| self.stacks.queue[w].len());
        let (evicted, queue) = if global_len >= proc_len && global_len >= stack_len {
            (self.global_q.pop_front(), SHARED_QUEUE)
        } else if proc_len >= stack_len {
            (
                longest_proc.and_then(|p| self.proc_q[p].pop_front()),
                longest_proc.map_or(SHARED_QUEUE, |p| p as u32),
            )
        } else {
            (
                longest_stack.and_then(|w| self.stacks.queue[w].pop_front()),
                longest_stack.map_or(SHARED_QUEUE, |w| w as u32),
            )
        };
        if let Some(pkt) = evicted {
            self.collector.on_evicted(now);
            if let Some(rec) = self.obs.as_deref_mut() {
                rec.record(ObsEvent::Evict {
                    t_us: now.as_micros_f64(),
                    seq: pkt.seq,
                    queue,
                });
            }
        }
    }

    /// Admit one packet through the bounded-queue policy, updating the
    /// collector's offered/backlog/shed accounting. The route decision
    /// happens even for a packet the bound then sheds — the NIC steered
    /// it; the queue overflowed afterwards — which keeps the steering
    /// counters a pure function of the arrival stream. On the default
    /// configuration (unbounded queues) this is exactly the historical
    /// count-then-enqueue path.
    fn admit(&mut self, now: SimTime, pkt: Packet) {
        let target = self.target_of(now, &pkt);
        let bound = self.cfg.queue_bound;
        if bound != usize::MAX {
            let target_full = |sim: &mut Self| sim.queue_of(target).0.len() >= bound;
            let policy = self.cfg.drop_policy;
            match policy {
                DropPolicy::Backpressure if self.total_backlog() >= bound => {
                    self.collector.on_offered_only(now);
                    if self.collector.recording(now) {
                        self.collector.shed_at_source += 1;
                    }
                    return;
                }
                DropPolicy::TailDrop if target_full(self) => {
                    self.collector.on_offered_only(now);
                    if self.collector.recording(now) {
                        self.collector.queue_drops += 1;
                    }
                    return;
                }
                DropPolicy::DropLongestQueue if target_full(self) => self.evict_from_longest(now),
                _ => {}
            }
        }
        self.collector.on_arrival(now);
        let (queue, id) = self.queue_of(target);
        queue.push_back(pkt);
        let depth = queue.len() as u32;
        if let Some(rec) = self.obs.as_deref_mut() {
            rec.record(ObsEvent::Enqueue {
                t_us: pkt.arrival.as_micros_f64(),
                seq: pkt.seq,
                stream: pkt.stream,
                queue: id,
                depth,
            });
        }
    }

    /// Crash processor `p` at a packet boundary: it takes no new work,
    /// and its queued backlog is orphaned and immediately re-routed
    /// through the *policy's own* routing rule over the degraded view
    /// (dead workers masked out). Its in-flight packet, if any,
    /// completes on time; its cache state dies now if it is idle, else
    /// right after that completion. The orphan/requeue pair is
    /// synchronous, so the conservation identity never observes an
    /// intermediate state and no packet is lost or double-completed.
    fn crash_proc(&mut self, now: SimTime, p: usize) {
        if self.procs.health(p) == ProcHealth::Down {
            return;
        }
        self.procs.set_health(p, ProcHealth::Down);
        if self.collector.recording(now) {
            self.collector.proc_crashes += 1;
        }
        if let Some(rec) = self.obs.as_deref_mut() {
            rec.record(ObsEvent::WorkerDown {
                t_us: now.as_micros_f64(),
                worker: p as u32,
            });
        }
        match self.procs.activity(p) {
            ProcActivity::Protocol(f) => {
                let f = InFlight { crashed: true, ..f };
                self.procs.set_activity(p, ProcActivity::Protocol(f));
            }
            ProcActivity::NonProtocol => self.forget_proc(p),
        }
        for pkt in std::mem::take(&mut self.proc_q[p]) {
            self.requeue_orphan(now, pkt, p);
        }
    }

    /// Cache death of crashed processor `p`: it loses its protocol code
    /// footprint, and every migratable entity last resident there is
    /// cold everywhere from now on.
    fn forget_proc(&mut self, p: usize) {
        self.procs.forget_cache(p);
        self.streams.evict_proc(p);
        self.threads.evict_proc(p);
        self.stacks.loc.evict_proc(p);
    }

    /// Re-route one queued orphan of crashed processor `dead` over the
    /// degraded view (the dead worker is masked out of the front-end's
    /// `next_live` and the policy's router alike), at the back of its
    /// new queue, and account for it.
    fn requeue_orphan(&mut self, now: SimTime, pkt: Packet, dead: usize) {
        let target = self.target_of(now, &pkt);
        let (queue, id) = self.queue_of(target);
        queue.push_back(pkt);
        if self.collector.recording(now) {
            self.collector.orphaned += 1;
            self.collector.requeued += 1;
        }
        if let Some(rec) = self.obs.as_deref_mut() {
            let t_us = now.as_micros_f64();
            rec.record(ObsEvent::Orphaned {
                t_us,
                seq: pkt.seq,
                worker: dead as u32,
            });
            rec.record(ObsEvent::Requeue {
                t_us,
                seq: pkt.seq,
                queue: id,
            });
        }
    }

    /// Stall processor `p` until its window ends: it finishes its
    /// in-flight packet on time but takes no new work. The non-protocol
    /// clock keeps running, so its cached state *ages* through the
    /// stall (the conservative reading: a stalled processor defends no
    /// cache lines against the interrupting workload).
    fn stall_proc(&mut self, now: SimTime, p: usize) {
        if self.procs.health(p) != ProcHealth::Up {
            return;
        }
        self.procs.set_health(p, ProcHealth::Stalled);
        if self.collector.recording(now) {
            self.collector.proc_stalls += 1;
        }
        if let Some(rec) = self.obs.as_deref_mut() {
            rec.record(ObsEvent::WorkerDown {
                t_us: now.as_micros_f64(),
                worker: p as u32,
            });
        }
    }

    /// Recovery for fault `idx`: the end of a stall window or a crash
    /// revive. Guarded by the health state the fault left behind, so a
    /// crash that lands inside a stall window wins (the stall's recovery
    /// then fires as a no-op).
    fn proc_recover(&mut self, now: SimTime, idx: u32) {
        let fault = self.cfg.proc_faults.faults[idx as usize];
        let p = fault.proc;
        let recovered = match fault.kind {
            ProcFaultKind::Stall { .. } => self.procs.health(p) == ProcHealth::Stalled,
            ProcFaultKind::Crash { .. } => self.procs.health(p) == ProcHealth::Down,
            ProcFaultKind::Slowdown { .. } => false,
        };
        if !recovered {
            return;
        }
        self.procs.set_health(p, ProcHealth::Up);
        if let Some(rec) = self.obs.as_deref_mut() {
            rec.record(ObsEvent::WorkerUp {
                t_us: now.as_micros_f64(),
                worker: p as u32,
            });
        }
    }

    /// Deliver one event at `now`, the clock's time.
    pub(super) fn handle(&mut self, now: SimTime, event: Event) {
        // Warm-up reset and midpoint capture for the growth check.
        if !self.warmup_reset && self.collector.recording(now) {
            self.collector.backlog.reset(now);
            self.warmup_reset = true;
        }
        if self.collector.backlog_first_half.is_none() && now >= self.midpoint {
            self.collector.backlog_first_half = Some(self.collector.backlog.average(now));
        }

        match event {
            Event::Arrival { stream } => {
                // The stream's own spec, or a Zipf population's one.
                let spec = self.cfg.population.zipf.map_or(stream as usize, |_| 0);
                let size = self.cfg.population.streams[spec]
                    .sizes
                    .0
                    .sample(&mut self.size_rngs[spec]);
                let mut pkt = Packet {
                    seq: 0, // assigned per admitted copy below
                    stream,
                    arrival: now,
                    size_bytes: size,
                    corrupt: false,
                };
                // Wire faults (dedicated RNG substream; the clean wire
                // draws nothing). Fixed draw order: drop, then corrupt,
                // then duplicate.
                let mut copies = 1usize;
                if !self.cfg.faults.is_noop() {
                    use rand::Rng as _;
                    let f = self.cfg.faults;
                    if f.drop_p > 0.0 && self.fault_rng.gen::<f64>() < f.drop_p {
                        copies = 0;
                        self.collector.on_offered_only(now);
                        if self.collector.recording(now) {
                            self.collector.wire_drops += 1;
                        }
                    } else {
                        if f.corrupt_p > 0.0 && self.fault_rng.gen::<f64>() < f.corrupt_p {
                            pkt.corrupt = true;
                        }
                        if f.duplicate_p > 0.0 && self.fault_rng.gen::<f64>() < f.duplicate_p {
                            copies = 2;
                        }
                    }
                }
                for _ in 0..copies {
                    pkt.seq = self.next_seq;
                    self.next_seq += 1;
                    self.admit(now, pkt);
                }
                let (stream, at) = self.arrivals.next(now, stream);
                self.schedule_at(at, Event::Arrival { stream });
                self.try_dispatch(now);
            }
            Event::Completion { proc } => {
                let ProcActivity::Protocol(InFlight {
                    packet,
                    runner,
                    service,
                    done_at,
                    crashed,
                }) = self.procs.take_activity(proc)
                else {
                    // A completion without an in-flight packet is an
                    // event-bookkeeping bug; surface it in debug builds
                    // but don't take a long experiment down in release.
                    debug_assert!(false, "completion on an idle processor");
                    return;
                };
                debug_assert_eq!(done_at, now);
                // Clock bookkeeping: protocol time does not advance np.
                let np = self.procs.note_protocol_end(proc, now, service);

                if !packet.corrupt {
                    // Corrupt packets are rejected before the session
                    // stage: stream state is never brought into this
                    // processor's cache.
                    self.streams.record(packet.stream as usize, proc, np);
                }
                if let Some(fes) = self.frontend.as_mut() {
                    // Flow-Director completion feedback: the NIC learns
                    // the flow's next binding from the core that just
                    // finished it (RSS/transport-friendly ignore this).
                    fes.note_complete(packet.stream, proc as u32);
                }
                {
                    // Out-of-order delivery: a completion whose arrival
                    // sequence precedes the stream's completion
                    // high-water mark. Counted whole-run, corrupt
                    // completions included, mirroring the offline
                    // `afs_obs::SequenceChecker` exactly.
                    let s = packet.stream as usize;
                    let hw = self.ooo_seen[s];
                    if hw != u64::MAX && packet.seq < hw {
                        self.ooo_deliveries += 1;
                    } else {
                        self.ooo_seen[s] = packet.seq;
                    }
                }
                match runner {
                    Runner::Stack(w) => {
                        self.stacks.running[w as usize] = false;
                        self.stacks.loc.record(w as usize, proc, np);
                    }
                    Runner::Thread { id, pooled } => {
                        self.threads.record(id, proc, np);
                        // A pool thread goes back to the shared FIFO; the
                        // dispatcher recorded the policy's thread source,
                        // so no policy is consulted here.
                        if pooled {
                            self.shared_pool.push_back(id);
                        }
                    }
                }
                if crashed {
                    self.forget_proc(proc);
                }

                if let Some(rec) = self.obs.as_deref_mut() {
                    rec.record(ObsEvent::Complete {
                        t_us: now.as_micros_f64(),
                        seq: packet.seq,
                        stream: packet.stream,
                        worker: proc as u32,
                        delay_us: now.since(packet.arrival).as_micros_f64(),
                        ok: !packet.corrupt,
                    });
                }
                if packet.corrupt {
                    self.collector.on_corrupt_completion(now, service);
                } else {
                    self.collector
                        .on_completion(now, packet.arrival, packet.stream, service);
                }
                self.try_dispatch(now);
            }
            Event::ProcFault { idx } => {
                let fault = self.cfg.proc_faults.faults[idx as usize];
                match fault.kind {
                    ProcFaultKind::Crash { .. } => self.crash_proc(now, fault.proc),
                    ProcFaultKind::Stall { .. } => self.stall_proc(now, fault.proc),
                    ProcFaultKind::Slowdown { factor } => {
                        self.procs.set_slow_factor(fault.proc, factor);
                    }
                }
                // Requeued orphans may be dispatchable on live idle
                // processors right away.
                self.try_dispatch(now);
            }
            Event::ProcRecover { idx } => {
                self.proc_recover(now, idx);
                self.try_dispatch(now);
            }
        }
    }
}
