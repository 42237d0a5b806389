//! Dispatch: [`SchedView`] adapters over the simulator's state plus the
//! loops that execute `afs-sched` decisions.
//!
//! Every scheduling *decision* (which processor, which thread source,
//! whether to stall) is delegated to the shared policy crate's
//! [`afs_sched::LockPolicy::select`] and [`afs_sched::IpsPolicy::select`]; this
//! module only builds read-only views of the simulator's state, forwards
//! RNG draws from the run's policy stream, and executes the returned
//! typed decisions with the historical queue-pop and bookkeeping order —
//! bit-identical to the pre-split dispatcher.

use std::collections::VecDeque;

use rand::Rng as _;

use afs_cache::model::exec_time::{Age, ComponentAges};
use afs_desim::time::{SimDuration, SimTime};
use afs_obs::{ChargeKind, ObsEvent, SHARED_QUEUE};
use afs_sched::{SchedView, ThreadSource};

use crate::config::{Paradigm, SystemConfig};
use crate::state::{
    FootprintTable, InFlight, LocTable, Packet, ProcActivity, ProcHealth, Procs, Runner,
    StreamTable,
};

use super::{Event, SchedSim, Stacks};

/// The Locking paradigm's [`SchedView`]: processors, per-processor
/// threads, per-stream MRU state and the wired/load-aware worker queues,
/// frozen at one decision instant. Every accessor indexes a field-major
/// array, so a policy's worker scan walks contiguous memory.
pub(super) struct LockView<'a> {
    pub procs: &'a Procs,
    pub threads: &'a LocTable,
    pub streams: &'a StreamTable,
    pub proc_q: &'a [VecDeque<Packet>],
    pub now: SimTime,
}

impl SchedView for LockView<'_> {
    fn n_workers(&self) -> usize {
        self.procs.len()
    }

    fn is_idle(&self, w: usize) -> bool {
        // Schedulability, not raw activity: a stalled or crashed
        // processor must never look dispatchable to a policy. On a clean
        // run this is exactly `is_idle`.
        self.procs.is_available(w)
    }

    fn is_live(&self, w: usize) -> bool {
        self.procs.health(w) == ProcHealth::Up
    }

    fn service_scale(&self, w: usize) -> f64 {
        self.procs.slow_factor(w)
    }

    fn last_protocol_end(&self, w: usize) -> Option<u64> {
        self.procs.last_protocol_end(w).map(|t| t.ticks())
    }

    fn queue_depth(&self, w: usize) -> usize {
        // Occupancy, not just backlog: a busy processor counts its
        // in-service packet, matching the native dispatcher's virtual
        // drain clocks — otherwise load-aware routing queues behind a
        // busy worker it believes is free.
        self.proc_q[w].len() + usize::from(!self.procs.is_idle(w))
    }

    fn last_worker(&self, stream: u32) -> Option<usize> {
        self.streams.last_proc(stream as usize)
    }

    fn ages_on(&self, w: usize, stream: u32) -> ComponentAges {
        let np = self.procs.np_now(w, self.now);
        ComponentAges {
            code_global: self.procs.code_age(w, self.now),
            thread: self.threads.age_on(w, w, np),
            stream: self.streams.age_on(stream as usize, w, np),
        }
    }
}

/// The IPS paradigm's [`SchedView`]: the schedulable entity is the
/// *stack*, whose location bundles thread + stream footprints.
pub(super) struct IpsView<'a> {
    pub procs: &'a Procs,
    pub stacks: &'a Stacks,
}

impl SchedView for IpsView<'_> {
    fn n_workers(&self) -> usize {
        self.procs.len()
    }

    fn is_idle(&self, w: usize) -> bool {
        self.procs.is_available(w)
    }

    fn is_live(&self, w: usize) -> bool {
        self.procs.health(w) == ProcHealth::Up
    }

    fn service_scale(&self, w: usize) -> f64 {
        self.procs.slow_factor(w)
    }

    fn last_protocol_end(&self, w: usize) -> Option<u64> {
        self.procs.last_protocol_end(w).map(|t| t.ticks())
    }

    fn queue_depth(&self, _w: usize) -> usize {
        // IPS queues hang off stacks, not processors, and no IPS policy
        // consults processor backlog.
        0
    }

    fn last_worker(&self, stack: u32) -> Option<usize> {
        self.stacks.loc.last_proc(stack as usize)
    }
}

impl<'r> SchedSim<'r> {
    /// The Locking view at `now` (borrows disjoint fields, so the RNG
    /// and the queues stay independently borrowable).
    pub(super) fn lock_view(&self, now: SimTime) -> LockView<'_> {
        LockView {
            procs: &self.procs,
            threads: &self.threads,
            streams: &self.streams,
            proc_q: &self.proc_q,
            now,
        }
    }

    /// Start serving `pkt` on processor `p`, run by `runner`.
    pub(super) fn begin_service(&mut self, p: usize, pkt: Packet, runner: Runner, now: SimTime) {
        debug_assert!(self.procs.is_available(p));
        let np = self.procs.np_now(p, now);
        let code_age = self.procs.code_age(p, now);

        let recording = self.collector.recording(now);
        // A corrupt packet is rejected at validation, before the
        // session/user stage: its stream state is never touched, so it
        // pays no stream reload and causes no stream migration.
        let (thread_age, stream_age, s_mig, t_mig) = match runner {
            Runner::Stack(w) => {
                // Stack state bundles the thread and stream footprints.
                let a = self.stacks.loc.age_on(w as usize, p, np);
                let mig = self.stacks.loc.migrates_to(w as usize, p);
                if recording && mig {
                    if !pkt.corrupt {
                        self.collector.stream_migrations += 1;
                    }
                    self.collector.thread_migrations += 1;
                }
                (
                    a,
                    if pkt.corrupt { Age::Warm } else { a },
                    !pkt.corrupt && mig,
                    mig,
                )
            }
            Runner::Thread { id: t, .. } => {
                let ta = self.threads.age_on(t, p, np);
                let sa = if pkt.corrupt {
                    Age::Warm
                } else {
                    self.streams.age_on(pkt.stream as usize, p, np)
                };
                let t_mig = self.threads.migrates_to(t, p);
                let s_mig = !pkt.corrupt && self.streams.migrates_to(pkt.stream as usize, p);
                if recording && t_mig {
                    self.collector.thread_migrations += 1;
                }
                if recording && s_mig {
                    self.collector.stream_migrations += 1;
                }
                (ta, sa, s_mig, t_mig)
            }
        };

        // One pricing call: the service time, and the code/global
        // displacement it read for the dispatch telemetry.
        let ages = ComponentAges {
            code_global: code_age,
            thread: thread_age,
            stream: stream_age,
        };
        let (mut proto, code_disp) = self.pricer.price(ages);
        match (code_age, code_disp) {
            (_, Some(d)) => {
                self.collector.f1_at_dispatch.add(d.f1);
                self.collector.f2_at_dispatch.add(d.f2);
            }
            (Age::Cold, _) => {
                self.collector.f1_at_dispatch.add(1.0);
                self.collector.f2_at_dispatch.add(1.0);
            }
            _ => {}
        }
        if pkt.corrupt {
            // Partial traversal: the checksum rejects the packet part-way
            // through the path. The fraction of the (already reduced —
            // no stream component) work it burned still warmed the
            // code/thread footprints and occupied the processor.
            proto = SimDuration::from_micros_f64(
                proto.as_micros_f64() * self.cfg.faults.corrupt_work_frac,
            );
        }
        let lock_us = if self.cfg.paradigm.is_locking() {
            self.cfg.exec.lock_overhead_us
        } else {
            0.0
        };
        let overhead = SimDuration::from_micros_f64(self.v_us(pkt.size_bytes) + lock_us);
        let mut service = proto + overhead;
        // Persistent-slowdown fault: everything this processor runs is
        // uniformly slower. Gated so the unfaulted path never roundtrips
        // the duration through a multiply (bit-exact goldens).
        let slow = self.procs.slow_factor(p);
        if slow != 1.0 {
            service = SimDuration::from_micros_f64(service.as_micros_f64() * slow);
        }
        let done_at = now + service;

        if let Some(rec) = self.obs.as_deref_mut() {
            let t_us = now.as_micros_f64();
            let worker = p as u32;
            rec.record(ObsEvent::Dispatch {
                t_us,
                seq: pkt.seq,
                stream: pkt.stream,
                worker,
                service_us: service.as_micros_f64(),
                stream_migrated: s_mig,
                thread_migrated: t_mig,
                stolen: false,
            });
            // Only priced charges: the migrations are the flags above.
            let reload = self.cfg.exec.reload_transient_us(proto.as_micros_f64());
            if !pkt.corrupt && reload > 1e-9 {
                rec.record(ObsEvent::CacheCharge {
                    t_us,
                    worker,
                    kind: ChargeKind::ReloadTransient,
                    amount_us: reload,
                });
            }
            if lock_us > 0.0 {
                rec.record(ObsEvent::CacheCharge {
                    t_us,
                    worker,
                    kind: ChargeKind::Lock,
                    amount_us: lock_us,
                });
            }
        }
        // Thread and stack bookkeeping is deferred to completion, which
        // reads the runner back from the in-flight record (a pool thread
        // stays parked out of the shared pool until then).
        self.schedule_at(done_at, Event::Completion { proc: p });
        self.procs.set_activity(
            p,
            ProcActivity::Protocol(InFlight {
                packet: pkt,
                runner,
                service,
                done_at,
                crashed: false,
            }),
        );
    }

    /// One Locking dispatch attempt. Returns true if a packet started.
    fn dispatch_locking(&mut self, now: SimTime) -> bool {
        // Saturated system: every select below would stall, drawing no
        // RNG and recording nothing (policies count idle workers before
        // drawing), so the whole attempt is a provable no-op. At load
        // this skips the vast majority of dispatch scans.
        if !self.procs.any_available() {
            return false;
        }
        // `self.cfg` is a shared borrow with the run's own lifetime, so
        // the policy can be borrowed out from under the `&mut self`
        // methods below — no per-dispatch clone of the policy (which
        // carries a Vec for the Hybrid wired table).
        let cfg: &SystemConfig = self.cfg;
        let policy = match &cfg.paradigm {
            Paradigm::Locking { policy } => policy,
            _ => unreachable!("dispatch_locking under IPS"),
        };

        // Worker queues first: an enqueue-routed packet may only use its
        // queue's processor (wired binding or load-aware placement). A
        // NIC front-end routes *every* arrival to a worker queue, so
        // front-end mode forces the scan even under policies (Baseline,
        // Pools) that never use worker queues themselves.
        if self.frontend.is_some() || policy.uses_worker_queues() {
            for p in 0..self.cfg.n_procs {
                if self.procs.is_available(p) {
                    if let Some(pkt) = self.proc_q[p].pop_front() {
                        if let Some(rec) = self.obs.as_deref_mut() {
                            rec.record(ObsEvent::QueueDepth {
                                t_us: now.as_micros_f64(),
                                queue: p as u32,
                                depth: self.proc_q[p].len() as u32,
                            });
                        }
                        // Worker-queue dispatch always uses the
                        // processor's own thread.
                        let own = Runner::Thread {
                            id: p,
                            pooled: false,
                        };
                        self.begin_service(p, pkt, own, now);
                        return true;
                    }
                }
            }
        }

        // Global FIFO head: the policy picks the processor and the
        // thread source; the simulator owns the RNG stream and the
        // queue/pool pops.
        let Some(&head) = self.global_q.front() else {
            return false;
        };
        let assignment = {
            let view = LockView {
                procs: &self.procs,
                threads: &self.threads,
                streams: &self.streams,
                proc_q: &self.proc_q,
                now,
            };
            let rng = &mut self.policy_rng;
            policy.select(&view, &mut |n| rng.gen_range(0..n))
        };
        let Some(a) = assignment else { return false };
        let runner = match a.thread {
            // The shared pool hands out threads FIFO, so a woken thread
            // almost always last ran on a different processor — the
            // affinity loss footnote 7's per-processor pools eliminate.
            // A free thread exists whenever a processor is idle; if that
            // invariant ever breaks, stall the dispatch instead of
            // crashing mid-run.
            ThreadSource::SharedPool => match self.shared_pool.pop_front() {
                Some(id) => Runner::Thread { id, pooled: true },
                None => return false,
            },
            ThreadSource::Own => Runner::Thread {
                id: a.worker,
                pooled: false,
            },
        };
        self.global_q.pop_front();
        if let Some(rec) = self.obs.as_deref_mut() {
            rec.record(ObsEvent::QueueDepth {
                t_us: now.as_micros_f64(),
                queue: SHARED_QUEUE,
                depth: self.global_q.len() as u32,
            });
        }
        self.begin_service(a.worker, head, runner, now);
        true
    }

    /// One IPS dispatch attempt.
    fn dispatch_ips(&mut self, now: SimTime) -> bool {
        // Same proof as the Locking early-out: no idle worker means
        // every stack's select stalls with zero side effects.
        if !self.procs.any_available() {
            return false;
        }
        let policy = match &self.cfg.paradigm {
            Paradigm::Ips { policy, .. } => *policy,
            _ => unreachable!("dispatch_ips under Locking"),
        };
        let n_stacks = self.stacks.len();
        for off in 0..n_stacks {
            let w = (self.stack_scan + off) % n_stacks;
            let runnable = !self.stacks.running[w] && !self.stacks.queue[w].is_empty();
            if !runnable {
                continue;
            }
            let placement = {
                let view = IpsView {
                    procs: &self.procs,
                    stacks: &self.stacks,
                };
                let rng = &mut self.policy_rng;
                policy.select(&view, w as u32, &mut |n| rng.gen_range(0..n))
            };
            if let Some(proc) = placement {
                let Some(pkt) = self.stacks.queue[w].pop_front() else {
                    // `runnable` checked non-emptiness; stay graceful if
                    // that ever changes.
                    continue;
                };
                self.stacks.running[w] = true;
                self.stack_scan = (w + 1) % n_stacks;
                if let Some(rec) = self.obs.as_deref_mut() {
                    rec.record(ObsEvent::QueueDepth {
                        t_us: now.as_micros_f64(),
                        queue: w as u32,
                        depth: self.stacks.queue[w].len() as u32,
                    });
                }
                self.begin_service(proc, pkt, Runner::Stack(w as u32), now);
                return true;
            }
        }
        false
    }

    /// Dispatch until no more work can start.
    pub(super) fn try_dispatch(&mut self, now: SimTime) {
        loop {
            let dispatched = match &self.cfg.paradigm {
                Paradigm::Locking { .. } => self.dispatch_locking(now),
                Paradigm::Ips { .. } => self.dispatch_ips(now),
            };
            if !dispatched {
                break;
            }
        }
    }
}
