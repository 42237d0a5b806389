#![warn(missing_docs)]

//! # afs-obs — the unified observability layer
//!
//! One trace schema for every backend: the discrete-event simulator
//! (`afs-core::sim` on `afs-desim`) and the native pinned-thread runtime
//! (`afs-native::runtime`) emit the same structured [`ObsEvent`]s through
//! a [`Recorder`], so per-message scheduling/cache telemetry — affinity
//! hits, migrations, steals, reload-transient charges, queueing delay — can
//! be compared *across* backends and regression-tested without rerunning
//! full experiments.
//!
//! Design rules:
//!
//! * **Zero cost when off.** Backends hold an `Option<&mut dyn Recorder>`
//!   and skip emission entirely when none is attached; events are `Copy`
//!   structs built on the stack, and [`MemRecorder`] preallocates, so the
//!   observed hot path allocates nothing per message.
//! * **Virtual time only.** Every timestamp is simulation time or a
//!   native worker's virtual clock. Host wall-clock time never enters a
//!   trace, which is what makes seeded replays byte-identical.
//! * **Recording is pure observation.** Attaching a recorder must not
//!   change a single metric or golden-artifact byte; the proptests and
//!   differential suite enforce this.
//!
//! Modules:
//!
//! * [`event`] — the [`ObsEvent`] schema and merge ordering.
//! * [`recorder`] — the [`Recorder`] trait and [`MemRecorder`].
//! * [`counters`] — [`Counters`]/[`WorkerLane`] aggregation.
//! * [`depth`] — the one queue-depth definition, stamped onto a merged
//!   native trace by [`MemRecorder::stamp_queue_depths`].
//! * [`hist`] — [`LogHistogram`], the HDR-style fixed-footprint
//!   histogram behind the delay/service/depth percentiles.
//! * [`jsonl`] — deterministic JSONL trace rendering.
//! * [`order`] — [`SequenceChecker`], the independent per-stream
//!   delivery-order judge behind the reordering differential tests.
//! * [`serve`] — [`ServeSnapshot`], the live serving-run gauge line.
//! * [`summary`] — compact text summary for experiment output.
//! * [`profile`] — [`EngineProbe`], the simulator run loop's per-event
//!   pending-set sampler.
//!
//! How closely the backends' traces must agree is cross-validation
//! policy, not schema: those bands live in `afs_core::crossval`.

pub mod counters;
pub mod depth;
pub mod event;
pub mod hist;
pub mod jsonl;
pub mod order;
pub mod profile;
pub mod recorder;
pub mod serve;
pub mod summary;

pub use counters::{Counters, WorkerLane};
pub use depth::QueueTally;
pub use event::{ChargeKind, ObsEvent, SHARED_QUEUE};
pub use hist::LogHistogram;
pub use order::{SequenceChecker, SequenceReport};
pub use profile::EngineProbe;
pub use recorder::{MemRecorder, Recorder};
pub use serve::ServeSnapshot;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_surface_round_trip() {
        let mut rec = MemRecorder::new();
        rec.record(ObsEvent::Enqueue {
            t_us: 0.5,
            seq: 0,
            stream: 1,
            queue: SHARED_QUEUE,
            depth: 1,
        });
        rec.record(ObsEvent::Dispatch {
            t_us: 1.0,
            seq: 0,
            stream: 1,
            worker: 0,
            service_us: 9.0,
            stream_migrated: false,
            thread_migrated: false,
            stolen: false,
        });
        rec.record(ObsEvent::CacheCharge {
            t_us: 1.0,
            worker: 0,
            kind: ChargeKind::ReloadTransient,
            amount_us: 2.5,
        });
        rec.record(ObsEvent::Complete {
            t_us: 10.0,
            seq: 0,
            stream: 1,
            worker: 0,
            delay_us: 9.5,
            ok: true,
        });
        assert_eq!(rec.counters.enqueued, 1);
        assert_eq!(rec.counters.affinity_hits, 1);
        assert_eq!(rec.counters.in_flight(), 0);
        let trace = jsonl::render(&rec.events);
        assert_eq!(trace.lines().count(), 4);
        let text = summary::render(&rec.counters);
        assert!(text.contains("1 enqueued"), "{text}");
    }
}
