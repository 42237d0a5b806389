//! The backend-state window policies decide through.

use afs_cache::model::exec_time::ComponentAges;

/// A backend's scheduler state, as seen by a [`crate::DispatchPolicy`].
///
/// Each backend implements this over its own structures — the simulator
/// over its field-major `Procs`/`LocTable` arrays at the current
/// simulation time, the native runtime over its ring queues, atomic
/// last-owner tables and published virtual clocks. Policies only *read*
/// through it; every mutation (queue pops, RNG draws, bookkeeping)
/// stays in the backend.
///
/// The `entity` argument of the per-entity methods is whatever unit the
/// calling paradigm schedules: the stream id under Locking, the stack id
/// under IPS. A view is constructed for one decision at one instant, so
/// the interpretation is fixed per call site.
pub trait SchedView {
    /// Number of workers (processors) the backend schedules over.
    fn n_workers(&self) -> usize;

    /// Whether worker `w` can take protocol work right now. Backends
    /// whose policies never consult idleness (enqueue-time routing on
    /// the native dispatcher) may approximate.
    fn is_idle(&self, w: usize) -> bool;

    /// A monotone stamp (simulation ticks) of the last protocol
    /// completion on `w`; `None` if protocol work never ran there.
    /// Drives the most-recently-protocol-active tie-break of MRU's
    /// overflow path.
    fn last_protocol_end(&self, w: usize) -> Option<u64> {
        let _ = w;
        None
    }

    /// Worker `w`'s queue occupancy in packets: its queued backlog
    /// *plus* any packet currently in service. Counting the in-service
    /// packet keeps load-aware routing honest about waiting cost — a
    /// busy worker with an empty queue is one service away from free,
    /// not free.
    fn queue_depth(&self, w: usize) -> usize;

    /// The worker that last ran `entity` (stream or stack), if any —
    /// the MRU table.
    fn last_worker(&self, entity: u32) -> Option<usize>;

    /// Component ages a dispatch of `entity` on `w` would see, for
    /// pricer-driven policies. The default (everything cold) makes such
    /// policies degenerate gracefully on views that cannot price.
    fn ages_on(&self, w: usize, entity: u32) -> ComponentAges {
        let _ = (w, entity);
        ComponentAges::ALL_COLD
    }

    /// Worker `w`'s published virtual clock as ordered bits (nonnegative
    /// f64 bit patterns order like the floats). Only the native backend
    /// has one; the steal policy uses it to gate on *virtual* lag.
    fn vclock_bits(&self, w: usize) -> u64 {
        let _ = w;
        0
    }

    /// Whether worker `w` may receive *new* work: not crashed and not
    /// inside a stall window. Policies must never route, select, or
    /// steal toward a non-live worker; backends without processor
    /// faults keep the default (everything live), which leaves every
    /// decision — and every RNG draw — exactly as it was before the
    /// fault layer existed.
    fn is_live(&self, w: usize) -> bool {
        let _ = w;
        true
    }

    /// Multiplier on worker `w`'s service times (`1.0` = nominal, `2.0`
    /// = a core running at half speed). Cost-pricing policies scale
    /// their estimates by it so degraded cores attract less work.
    fn service_scale(&self, w: usize) -> f64 {
        let _ = w;
        1.0
    }
}
