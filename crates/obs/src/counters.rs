//! Aggregate counters derived from the event stream.
//!
//! [`Counters`] folds [`ObsEvent`]s into scalar counts, per-worker lanes
//! and [`LogHistogram`]s. The backend-independent definitions here are
//! what the differential tests compare across the simulator and the
//! native backend: an *affinity hit* is a dispatch whose stream state was
//! still resident on the executing worker; migrations and steals are read
//! off the `Dispatch` flags (`stream_migrated`, `thread_migrated`,
//! `stolen`), and the dispatcher's [`ObsEvent::StealClaim`]s are counted
//! separately so the two can be cross-checked. Cache charges carry a
//! priced amount and are summed by [`ChargeKind`].

use crate::event::{ChargeKind, ObsEvent};
use crate::hist::LogHistogram;

/// Per-worker slice of the counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WorkerLane {
    /// Messages this worker began servicing.
    pub dispatched: u64,
    /// Messages this worker finished.
    pub completed: u64,
    /// Dispatches that found the stream state resident here.
    pub affinity_hits: u64,
    /// Dispatches whose stream state migrated in from another worker.
    pub stream_migrations: u64,
    /// Dispatches whose protocol thread last ran elsewhere.
    pub thread_migrations: u64,
    /// Messages this worker executed after stealing them.
    pub steals_in: u64,
    /// Total service time executed here (µs of virtual time).
    pub busy_us: f64,
}

/// Aggregated metrics for one run (or one worker, before merging).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counters {
    /// Messages enqueued.
    pub enqueued: u64,
    /// Messages dispatched.
    pub dispatched: u64,
    /// Messages completed (any outcome).
    pub completed: u64,
    /// Messages completed with useful (non-corrupt) work.
    pub completed_ok: u64,
    /// Messages evicted from a queue by an overload drop policy.
    pub evicted: u64,
    /// Dispatches flagged as operating on a stolen message.
    pub steals: u64,
    /// Steal claims resolved by the dispatcher's virtual-order claim
    /// table (must equal [`Counters::steals`] in a consistent trace:
    /// every executed steal was arbitrated by exactly one claim).
    pub steal_claims: u64,
    /// Dispatches with the stream state resident (affinity preserved).
    pub affinity_hits: u64,
    /// Dispatches that migrated stream state between workers.
    pub stream_migrations: u64,
    /// Dispatches that migrated a protocol thread between workers.
    pub thread_migrations: u64,
    /// Reload-transient charges.
    pub reload_charges: u64,
    /// Total reload-transient virtual time charged (µs).
    pub reload_transient_us: f64,
    /// Lock-overhead charges.
    pub lock_charges: u64,
    /// Total lock-overhead virtual time charged (µs).
    pub lock_us: f64,

    /// Workers observed leaving service (crash or stall window start).
    pub worker_downs: u64,
    /// Workers observed returning to service.
    pub worker_ups: u64,
    /// Messages orphaned by a worker failure.
    pub orphaned: u64,
    /// Orphaned messages re-routed into a queue. Conservation across
    /// failures requires `requeued == orphaned`: nothing a failed
    /// worker held may be lost, and [`Counters::in_flight`] is
    /// unchanged by the orphan/requeue pair (the message was already
    /// enqueued once and completes at most once).
    pub requeued: u64,

    /// NIC front-end steering-table misses (bounded flow table lookups
    /// that fell through to the fallback routing policy).
    pub table_misses: u64,
    /// NIC front-end flow rebinds (a flow routed to a different worker
    /// than its previous packet).
    pub rebinds: u64,

    /// Queueing + service delay distribution (µs).
    pub delay_us: LogHistogram,
    /// Service-time distribution (µs).
    pub service_us: LogHistogram,
    /// Queue-depth samples (unitless).
    pub queue_depth: LogHistogram,
    /// Deepest queue observed.
    pub max_queue_depth: u64,

    /// Per-worker lanes, indexed by worker id (grown on demand; the
    /// shared-queue sentinel never lands here).
    pub by_worker: Vec<WorkerLane>,
}

impl Counters {
    /// Empty counters.
    pub fn new() -> Self {
        Self::default()
    }

    fn lane(&mut self, worker: u32) -> &mut WorkerLane {
        let w = worker as usize;
        if w >= self.by_worker.len() {
            self.by_worker.resize(w + 1, WorkerLane::default());
        }
        &mut self.by_worker[w]
    }

    /// Fold one event into the counters.
    pub fn observe(&mut self, ev: &ObsEvent) {
        match *ev {
            ObsEvent::Enqueue { depth, .. } => {
                self.enqueued += 1;
                self.queue_depth.record(depth as f64);
                self.max_queue_depth = self.max_queue_depth.max(depth as u64);
            }
            ObsEvent::Dispatch {
                worker,
                service_us,
                stream_migrated,
                thread_migrated,
                stolen,
                ..
            } => {
                self.dispatched += 1;
                self.service_us.record(service_us);
                if stolen {
                    self.steals += 1;
                }
                if stream_migrated {
                    self.stream_migrations += 1;
                } else {
                    self.affinity_hits += 1;
                }
                if thread_migrated {
                    self.thread_migrations += 1;
                }
                let lane = self.lane(worker);
                lane.dispatched += 1;
                lane.busy_us += service_us;
                if stream_migrated {
                    lane.stream_migrations += 1;
                } else {
                    lane.affinity_hits += 1;
                }
                if thread_migrated {
                    lane.thread_migrations += 1;
                }
                if stolen {
                    lane.steals_in += 1;
                }
            }
            ObsEvent::StealClaim { .. } => {
                self.steal_claims += 1;
            }
            ObsEvent::Complete {
                worker,
                delay_us,
                ok,
                ..
            } => {
                self.completed += 1;
                if ok {
                    self.completed_ok += 1;
                }
                self.delay_us.record(delay_us);
                self.lane(worker).completed += 1;
            }
            ObsEvent::Evict { .. } => {
                self.evicted += 1;
            }
            ObsEvent::CacheCharge {
                kind, amount_us, ..
            } => match kind {
                ChargeKind::ReloadTransient => {
                    self.reload_charges += 1;
                    self.reload_transient_us += amount_us;
                }
                ChargeKind::Lock => {
                    self.lock_charges += 1;
                    self.lock_us += amount_us;
                }
            },
            ObsEvent::QueueDepth { depth, .. } => {
                self.queue_depth.record(depth as f64);
                self.max_queue_depth = self.max_queue_depth.max(depth as u64);
            }
            ObsEvent::WorkerDown { .. } => {
                self.worker_downs += 1;
            }
            ObsEvent::WorkerUp { .. } => {
                self.worker_ups += 1;
            }
            ObsEvent::Orphaned { .. } => {
                self.orphaned += 1;
            }
            ObsEvent::Requeue { .. } => {
                self.requeued += 1;
            }
            ObsEvent::TableMiss { .. } => {
                self.table_misses += 1;
            }
            ObsEvent::Rebind { .. } => {
                self.rebinds += 1;
            }
        }
    }

    /// Messages enqueued but neither completed nor evicted (still queued
    /// or in service when observation stopped).
    pub fn in_flight(&self) -> i64 {
        self.enqueued as i64 - self.completed as i64 - self.evicted as i64
    }

    /// Fraction of dispatches that preserved stream affinity; 0 when no
    /// dispatch was observed.
    pub fn affinity_hit_rate(&self) -> f64 {
        ratio(self.affinity_hits, self.dispatched)
    }

    /// Steals per dispatch.
    pub fn steal_rate(&self) -> f64 {
        ratio(self.steals, self.dispatched)
    }

    /// Fold `other` into `self` (commutative up to per-worker vec
    /// length; used to merge per-worker recorders).
    pub fn merge(&mut self, other: &Counters) {
        self.enqueued += other.enqueued;
        self.dispatched += other.dispatched;
        self.completed += other.completed;
        self.completed_ok += other.completed_ok;
        self.evicted += other.evicted;
        self.steals += other.steals;
        self.steal_claims += other.steal_claims;
        self.affinity_hits += other.affinity_hits;
        self.stream_migrations += other.stream_migrations;
        self.thread_migrations += other.thread_migrations;
        self.reload_charges += other.reload_charges;
        self.reload_transient_us += other.reload_transient_us;
        self.lock_charges += other.lock_charges;
        self.lock_us += other.lock_us;
        self.worker_downs += other.worker_downs;
        self.worker_ups += other.worker_ups;
        self.orphaned += other.orphaned;
        self.requeued += other.requeued;
        self.table_misses += other.table_misses;
        self.rebinds += other.rebinds;
        self.delay_us.merge(&other.delay_us);
        self.service_us.merge(&other.service_us);
        self.queue_depth.merge(&other.queue_depth);
        self.max_queue_depth = self.max_queue_depth.max(other.max_queue_depth);
        if self.by_worker.len() < other.by_worker.len() {
            self.by_worker
                .resize(other.by_worker.len(), WorkerLane::default());
        }
        for (mine, theirs) in self.by_worker.iter_mut().zip(other.by_worker.iter()) {
            mine.dispatched += theirs.dispatched;
            mine.completed += theirs.completed;
            mine.affinity_hits += theirs.affinity_hits;
            mine.stream_migrations += theirs.stream_migrations;
            mine.thread_migrations += theirs.thread_migrations;
            mine.steals_in += theirs.steals_in;
            mine.busy_us += theirs.busy_us;
        }
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lifecycle(seq: u64, worker: u32, migrated: bool) -> Vec<ObsEvent> {
        vec![
            ObsEvent::Enqueue {
                t_us: seq as f64,
                seq,
                stream: 1,
                queue: worker,
                depth: 1,
            },
            ObsEvent::Dispatch {
                t_us: seq as f64 + 1.0,
                seq,
                stream: 1,
                worker,
                service_us: 10.0,
                stream_migrated: migrated,
                thread_migrated: false,
                stolen: false,
            },
            ObsEvent::Complete {
                t_us: seq as f64 + 11.0,
                seq,
                stream: 1,
                worker,
                delay_us: 11.0,
                ok: true,
            },
        ]
    }

    #[test]
    fn counts_follow_lifecycle() {
        let mut c = Counters::new();
        for ev in lifecycle(0, 0, false)
            .iter()
            .chain(lifecycle(1, 1, true).iter())
        {
            c.observe(ev);
        }
        assert_eq!(c.enqueued, 2);
        assert_eq!(c.dispatched, 2);
        assert_eq!(c.completed, 2);
        assert_eq!(c.affinity_hits, 1);
        assert_eq!(c.stream_migrations, 1);
        assert_eq!(c.in_flight(), 0);
        assert_eq!(c.affinity_hit_rate(), 0.5);
        assert_eq!(c.by_worker.len(), 2);
        assert_eq!(c.by_worker[1].stream_migrations, 1);
        assert_eq!(c.delay_us.count(), 2);
    }

    #[test]
    fn steals_counted_from_stolen_dispatches() {
        let mut c = Counters::new();
        c.observe(&ObsEvent::StealClaim {
            t_us: 0.0,
            seq: 7,
            from: 0,
            to: 1,
        });
        c.observe(&ObsEvent::Dispatch {
            t_us: 1.0,
            seq: 7,
            stream: 0,
            worker: 1,
            service_us: 5.0,
            stream_migrated: true,
            thread_migrated: true,
            stolen: true,
        });
        assert_eq!(c.steals, 1);
        assert_eq!(c.steal_claims, 1);
        assert_eq!(c.by_worker[1].steals_in, 1);
        assert_eq!((c.stream_migrations, c.thread_migrations), (1, 1));
    }

    #[test]
    fn charges_split_by_kind() {
        let mut c = Counters::new();
        c.observe(&ObsEvent::CacheCharge {
            t_us: 0.0,
            worker: 0,
            kind: ChargeKind::ReloadTransient,
            amount_us: 8.5,
        });
        c.observe(&ObsEvent::CacheCharge {
            t_us: 0.0,
            worker: 0,
            kind: ChargeKind::Lock,
            amount_us: 1.0,
        });
        assert_eq!((c.reload_charges, c.lock_charges), (1, 1));
        assert!((c.reload_transient_us - 8.5).abs() < 1e-12);
        assert!((c.lock_us - 1.0).abs() < 1e-12);
    }

    #[test]
    fn merge_matches_sequential_observation() {
        let mut a = Counters::new();
        let mut b = Counters::new();
        let mut whole = Counters::new();
        for seq in 0..10 {
            let evs = lifecycle(seq, (seq % 3) as u32, seq % 2 == 0);
            for ev in &evs {
                if seq % 2 == 0 {
                    a.observe(ev)
                } else {
                    b.observe(ev)
                }
                whole.observe(ev);
            }
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn orphan_requeue_pair_conserves_in_flight() {
        let mut c = Counters::new();
        c.observe(&ObsEvent::Enqueue {
            t_us: 0.0,
            seq: 3,
            stream: 0,
            queue: 1,
            depth: 1,
        });
        c.observe(&ObsEvent::WorkerDown {
            t_us: 5.0,
            worker: 1,
        });
        c.observe(&ObsEvent::Orphaned {
            t_us: 5.0,
            seq: 3,
            worker: 1,
        });
        c.observe(&ObsEvent::Requeue {
            t_us: 5.0,
            seq: 3,
            queue: 0,
        });
        // The orphan/requeue ledger balances and does not disturb the
        // enqueue/complete conservation identity.
        assert_eq!(c.orphaned, 1);
        assert_eq!(c.requeued, 1);
        assert_eq!(c.worker_downs, 1);
        assert_eq!(c.in_flight(), 1);
        c.observe(&ObsEvent::Complete {
            t_us: 9.0,
            seq: 3,
            stream: 0,
            worker: 0,
            delay_us: 9.0,
            ok: true,
        });
        assert_eq!(c.in_flight(), 0);
        c.observe(&ObsEvent::WorkerUp {
            t_us: 20.0,
            worker: 1,
        });
        assert_eq!(c.worker_ups, 1);
    }

    #[test]
    fn frontend_events_counted() {
        let mut c = Counters::new();
        c.observe(&ObsEvent::TableMiss {
            t_us: 0.0,
            seq: 1,
            stream: 9,
        });
        c.observe(&ObsEvent::Rebind {
            t_us: 0.0,
            seq: 1,
            stream: 9,
            from: 0,
            to: 2,
        });
        assert_eq!(c.table_misses, 1);
        assert_eq!(c.rebinds, 1);
        // Steering events are observations, not ledger entries.
        assert_eq!(c.in_flight(), 0);
        let mut merged = Counters::new();
        merged.merge(&c);
        assert_eq!(merged.table_misses, 1);
        assert_eq!(merged.rebinds, 1);
    }

    #[test]
    fn evictions_tracked_in_flight() {
        let mut c = Counters::new();
        c.observe(&ObsEvent::Enqueue {
            t_us: 0.0,
            seq: 0,
            stream: 0,
            queue: 0,
            depth: 5,
        });
        c.observe(&ObsEvent::Evict {
            t_us: 1.0,
            seq: 0,
            queue: 0,
        });
        assert_eq!(c.evicted, 1);
        assert_eq!(c.in_flight(), 0);
        assert_eq!(c.max_queue_depth, 5);
    }
}
