//! The structured event schema shared by every backend.
//!
//! One vocabulary covers the discrete-event simulator (`afs-core::sim`,
//! timestamped with [`SimTime`] microseconds) and the native pinned-thread
//! backend (`afs-native::runtime`, timestamped with per-worker *virtual
//! clocks* — host time never leaks into a trace). Events are small `Copy`
//! structs so emitting one costs a couple of stores; whether anything
//! further happens is up to the [`Recorder`](crate::Recorder) behind it.
//!
//! [`SimTime`]: https://docs.rs/afs-desim

/// Queue identifier used when a message lands in a *shared* queue (the
/// Locking-paradigm global run queue, or the native pooled ring) rather
/// than a per-worker/per-processor one.
pub const SHARED_QUEUE: u32 = u32::MAX;

/// What a [`ObsEvent::CacheCharge`] is paying for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChargeKind {
    /// Reload-transient cycles charged on top of the warm bound
    /// (the paper's `D + RC` displacement cost).
    ReloadTransient,
    /// Lock acquisition/contention overhead (Locking paradigm or a
    /// contended native shared structure).
    Lock,
}

impl ChargeKind {
    /// Short stable label used by the JSONL sink.
    pub fn label(self) -> &'static str {
        match self {
            ChargeKind::ReloadTransient => "reload",
            ChargeKind::Lock => "lock",
        }
    }
}

/// One structured observation. All timestamps are in *virtual*
/// microseconds: simulation time on the desim backend, the executing
/// worker's vclock on the native backend.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ObsEvent {
    /// A message entered a run queue.
    Enqueue {
        /// Virtual timestamp (µs).
        t_us: f64,
        /// Per-run unique message sequence number.
        seq: u64,
        /// Stream (connection) the message belongs to.
        stream: u32,
        /// Queue it landed in (worker/processor index, or [`SHARED_QUEUE`]).
        queue: u32,
        /// Queue depth *after* the insert, counting this message (the
        /// one definition is [`crate::depth`]'s; the native backend's
        /// is stamped by [`MemRecorder::stamp_queue_depths`]).
        ///
        /// [`MemRecorder::stamp_queue_depths`]: crate::MemRecorder::stamp_queue_depths
        depth: u32,
    },
    /// A worker began servicing a message.
    Dispatch {
        /// Virtual timestamp (µs).
        t_us: f64,
        /// Message sequence number.
        seq: u64,
        /// Stream the message belongs to.
        stream: u32,
        /// Worker/processor executing the message.
        worker: u32,
        /// Total service time charged (µs), including reload transient
        /// and lock overhead.
        service_us: f64,
        /// The stream's per-connection state last lived on a different
        /// worker (an affinity miss).
        stream_migrated: bool,
        /// The protocol thread (Locking paradigm) last ran elsewhere.
        thread_migrated: bool,
        /// The message was obtained by work stealing (the victim is on
        /// the [`ObsEvent::StealClaim`] of the same `seq`).
        stolen: bool,
    },
    /// The dispatcher's claim table resolved a steal in virtual order:
    /// message `seq`, queued on `from`, was claimed by thief `to` at
    /// model start instant `t_us` (native backend). The claim is the
    /// arbitration *decision*; the thief's `Dispatch` of the same `seq`
    /// (flagged `stolen`) executes it.
    StealClaim {
        /// Virtual timestamp (µs): the claim's model start instant.
        t_us: f64,
        /// Message sequence number.
        seq: u64,
        /// Victim worker (the queue owner).
        from: u32,
        /// Claimant (thief) worker.
        to: u32,
    },
    /// A message finished service.
    Complete {
        /// Virtual timestamp (µs).
        t_us: f64,
        /// Message sequence number.
        seq: u64,
        /// Stream the message belongs to.
        stream: u32,
        /// Worker/processor that executed it.
        worker: u32,
        /// Queueing + service delay since arrival (µs).
        delay_us: f64,
        /// `false` when the message was corrupted/faulted and its work
        /// was wasted.
        ok: bool,
    },
    /// A queued message was evicted by an overload drop policy before
    /// ever being serviced.
    Evict {
        /// Virtual timestamp (µs).
        t_us: f64,
        /// Message sequence number.
        seq: u64,
        /// Queue it was evicted from.
        queue: u32,
    },
    /// Priced cache/lock cycles charged against a worker. Every charge
    /// carries its amount; unpriced facts (migrations, steals) are
    /// `Dispatch` flags, not charges.
    CacheCharge {
        /// Virtual timestamp (µs).
        t_us: f64,
        /// Worker/processor charged.
        worker: u32,
        /// What the charge pays for.
        kind: ChargeKind,
        /// Amount (µs), part of the dispatch's `service_us`.
        amount_us: f64,
    },
    /// A queue-depth sample, emitted by each dispatch.
    QueueDepth {
        /// Virtual timestamp (µs).
        t_us: f64,
        /// Queue sampled (worker/processor index, or [`SHARED_QUEUE`]);
        /// on the native backend, the victim of a steal.
        queue: u32,
        /// Depth just after the dispatch that emitted the sample (the
        /// one definition is [`crate::depth`]'s; the native backend's
        /// is stamped by [`MemRecorder::stamp_queue_depths`]).
        ///
        /// [`MemRecorder::stamp_queue_depths`]: crate::MemRecorder::stamp_queue_depths
        depth: u32,
    },
    /// A worker left service (processor fault: crash or stall window).
    WorkerDown {
        /// Virtual timestamp (µs).
        t_us: f64,
        /// The worker that went down.
        worker: u32,
    },
    /// A worker returned to service (stall ended, or a crash revived it
    /// with cold caches).
    WorkerUp {
        /// Virtual timestamp (µs).
        t_us: f64,
        /// The worker that came back.
        worker: u32,
    },
    /// A message was orphaned by its worker's failure (it was in flight
    /// or queued there) and must be re-routed. Every `Orphaned` is
    /// followed by exactly one [`ObsEvent::Requeue`] of the same `seq`
    /// — the pair is the conservation ledger across a failure.
    Orphaned {
        /// Virtual timestamp (µs).
        t_us: f64,
        /// Message sequence number.
        seq: u64,
        /// The failed worker it was recovered from.
        worker: u32,
    },
    /// An orphaned message re-entered a queue via the policy's own
    /// routing decision over the degraded view.
    Requeue {
        /// Virtual timestamp (µs).
        t_us: f64,
        /// Message sequence number.
        seq: u64,
        /// Queue it landed in (worker index, or [`SHARED_QUEUE`]).
        queue: u32,
    },
    /// A NIC front-end steering lookup missed its bounded flow table
    /// (Flow Director) or placed a flow for the first time
    /// (transport-friendly): the packet fell through to the fallback
    /// routing policy.
    TableMiss {
        /// Virtual timestamp (µs).
        t_us: f64,
        /// Message sequence number.
        seq: u64,
        /// Stream (flow) that missed.
        stream: u32,
    },
    /// A NIC front-end routed a flow to a *different* worker than the
    /// flow's previous packet — the migration that breaks affinity and
    /// (for Flow Director under bursty arrivals) reorders deliveries.
    Rebind {
        /// Virtual timestamp (µs).
        t_us: f64,
        /// Message sequence number.
        seq: u64,
        /// Stream (flow) that was rebound.
        stream: u32,
        /// Worker the flow's previous packet was routed to.
        from: u32,
        /// Worker this packet was routed to.
        to: u32,
    },
}

impl ObsEvent {
    /// Virtual timestamp of the event (µs).
    pub fn t_us(&self) -> f64 {
        match *self {
            ObsEvent::Enqueue { t_us, .. }
            | ObsEvent::Dispatch { t_us, .. }
            | ObsEvent::StealClaim { t_us, .. }
            | ObsEvent::Complete { t_us, .. }
            | ObsEvent::Evict { t_us, .. }
            | ObsEvent::CacheCharge { t_us, .. }
            | ObsEvent::QueueDepth { t_us, .. }
            | ObsEvent::WorkerDown { t_us, .. }
            | ObsEvent::WorkerUp { t_us, .. }
            | ObsEvent::Orphaned { t_us, .. }
            | ObsEvent::Requeue { t_us, .. }
            | ObsEvent::TableMiss { t_us, .. }
            | ObsEvent::Rebind { t_us, .. } => t_us,
        }
    }

    /// Message sequence number, for per-message events.
    pub fn seq(&self) -> Option<u64> {
        match *self {
            ObsEvent::Enqueue { seq, .. }
            | ObsEvent::Dispatch { seq, .. }
            | ObsEvent::StealClaim { seq, .. }
            | ObsEvent::Complete { seq, .. }
            | ObsEvent::Evict { seq, .. }
            | ObsEvent::Orphaned { seq, .. }
            | ObsEvent::Requeue { seq, .. }
            | ObsEvent::TableMiss { seq, .. }
            | ObsEvent::Rebind { seq, .. } => Some(seq),
            ObsEvent::CacheCharge { .. }
            | ObsEvent::QueueDepth { .. }
            | ObsEvent::WorkerDown { .. }
            | ObsEvent::WorkerUp { .. } => None,
        }
    }

    /// Causal rank used to order events that share a timestamp when
    /// per-worker streams are merged: a front-end steering decision
    /// (table miss, rebind) records before the enqueue it produced, a
    /// message is enqueued before it is evicted or stolen, a steal
    /// *claim* (the dispatcher's virtual-order arbitration decision)
    /// before the dispatch executing it, dispatched (and charged) before
    /// completed. Failure events slot in causally too: within one
    /// message's timestamp an orphan records before its requeue, and a
    /// requeue before any claim/dispatch of the same message. The
    /// *relative* order of the kinds is fixed, so merged traces sort
    /// identically whatever kinds are added or removed (ranks are never
    /// serialized).
    pub fn kind_rank(&self) -> u8 {
        match self {
            ObsEvent::TableMiss { .. } => 0,
            ObsEvent::Rebind { .. } => 1,
            ObsEvent::Enqueue { .. } => 2,
            ObsEvent::Evict { .. } => 3,
            ObsEvent::WorkerDown { .. } => 4,
            ObsEvent::WorkerUp { .. } => 5,
            ObsEvent::Orphaned { .. } => 6,
            ObsEvent::Requeue { .. } => 7,
            ObsEvent::StealClaim { .. } => 8,
            ObsEvent::Dispatch { .. } => 9,
            ObsEvent::CacheCharge { .. } => 10,
            ObsEvent::QueueDepth { .. } => 11,
            ObsEvent::Complete { .. } => 12,
        }
    }

    /// Deterministic total-order key for merging per-worker event
    /// streams: `(virtual time, sequence number, causal rank)`.
    pub fn merge_key(&self) -> (u64, u64, u8) {
        // f64 timestamps are non-negative here; their bit patterns order
        // identically to their values, giving a total order without
        // pulling `f64: Ord` tricks into every call site.
        (
            self.t_us().to_bits(),
            self.seq().unwrap_or(u64::MAX),
            self.kind_rank(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_follow_message_lifecycle() {
        let enq = ObsEvent::Enqueue {
            t_us: 1.0,
            seq: 0,
            stream: 0,
            queue: 0,
            depth: 1,
        };
        let claim = ObsEvent::StealClaim {
            t_us: 1.0,
            seq: 0,
            from: 0,
            to: 1,
        };
        let disp = ObsEvent::Dispatch {
            t_us: 1.0,
            seq: 0,
            stream: 0,
            worker: 1,
            service_us: 5.0,
            stream_migrated: true,
            thread_migrated: false,
            stolen: true,
        };
        let done = ObsEvent::Complete {
            t_us: 1.0,
            seq: 0,
            stream: 0,
            worker: 1,
            delay_us: 6.0,
            ok: true,
        };
        assert!(enq.kind_rank() < claim.kind_rank());
        assert!(claim.kind_rank() < disp.kind_rank());
        assert_eq!(claim.seq(), Some(0));
        assert!(disp.kind_rank() < done.kind_rank());
        assert!(enq.merge_key() < done.merge_key());
    }

    #[test]
    fn merge_key_orders_by_time_first() {
        let late = ObsEvent::Enqueue {
            t_us: 2.0,
            seq: 0,
            stream: 0,
            queue: 0,
            depth: 1,
        };
        let early = ObsEvent::Complete {
            t_us: 1.0,
            seq: 9,
            stream: 0,
            worker: 0,
            delay_us: 0.5,
            ok: true,
        };
        assert!(early.merge_key() < late.merge_key());
    }

    #[test]
    fn fault_events_order_causally_within_a_message() {
        let orphan = ObsEvent::Orphaned {
            t_us: 3.0,
            seq: 4,
            worker: 1,
        };
        let requeue = ObsEvent::Requeue {
            t_us: 3.0,
            seq: 4,
            queue: 2,
        };
        let disp = ObsEvent::Dispatch {
            t_us: 3.0,
            seq: 4,
            stream: 0,
            worker: 2,
            service_us: 5.0,
            stream_migrated: true,
            thread_migrated: false,
            stolen: false,
        };
        assert!(orphan.merge_key() < requeue.merge_key());
        assert!(requeue.merge_key() < disp.merge_key());
        let down = ObsEvent::WorkerDown {
            t_us: 3.0,
            worker: 1,
        };
        let up = ObsEvent::WorkerUp {
            t_us: 3.0,
            worker: 1,
        };
        assert_eq!(down.seq(), None);
        assert_eq!(up.seq(), None);
        assert!(down.merge_key() < up.merge_key());
        assert_eq!(down.t_us(), 3.0);
    }

    #[test]
    fn frontend_events_order_before_their_enqueue() {
        let miss = ObsEvent::TableMiss {
            t_us: 4.0,
            seq: 6,
            stream: 2,
        };
        let rebind = ObsEvent::Rebind {
            t_us: 4.0,
            seq: 6,
            stream: 2,
            from: 0,
            to: 3,
        };
        let enq = ObsEvent::Enqueue {
            t_us: 4.0,
            seq: 6,
            stream: 2,
            queue: 3,
            depth: 1,
        };
        assert!(miss.merge_key() < rebind.merge_key());
        assert!(rebind.merge_key() < enq.merge_key());
        assert_eq!(miss.seq(), Some(6));
        assert_eq!(rebind.seq(), Some(6));
        assert_eq!(rebind.t_us(), 4.0);
    }

    #[test]
    fn seq_absent_for_samples() {
        let qd = ObsEvent::QueueDepth {
            t_us: 0.0,
            queue: 3,
            depth: 7,
        };
        assert_eq!(qd.seq(), None);
        assert_eq!(qd.t_us(), 0.0);
    }
}
