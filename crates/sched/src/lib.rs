#![warn(missing_docs)]

//! # afs-sched — the backend-agnostic scheduling-policy layer
//!
//! The paper's contribution is a *family* of affinity scheduling
//! policies, not one scheduler: Baseline → Pools → MRU → Wired → Hybrid
//! under the Locking paradigm, Random/MRU/Wired under IPS, plus bounded
//! work stealing on the native backend. This crate holds every one of
//! those decision procedures exactly once, as pure functions over an
//! abstract [`SchedView`] of the backend's scheduler state:
//!
//! * [`paradigm`] — the policy vocabulary ([`Paradigm`], [`LockPolicy`],
//!   [`IpsPolicy`]), including the two policies added on top of the
//!   unified layer: [`LockPolicy::MruLoad`] (MRU with a load threshold,
//!   after Durbhakula's load-aware affinity scheduling) and
//!   [`LockPolicy::MinReload`] (pick the worker minimizing the
//!   `DispatchPricer` reload estimate plus a backlog term).
//! * [`view`] — the [`SchedView`] trait: idle set, per-worker queue
//!   depths, per-entity MRU tables, monotone protocol-end stamps,
//!   published virtual clocks. Each backend implements it over its own
//!   state; the policies never see a clock, an RNG, or a queue.
//! * [`decision`] — the typed decisions policies return: enqueue
//!   [`Route`]s, dispatch [`Assignment`]s, [`StealDecision`]s.
//! * [`policy`] — the decision procedures as plain methods:
//!   [`LockPolicy::router`] (the Locking enqueue [`Router`]),
//!   [`LockPolicy::select`], [`IpsPolicy::select`] and the bounded
//!   [`StealPolicy::steal`]. Randomized choices draw through a
//!   caller-supplied closure, so the backend keeps RNG-stream ownership
//!   (and its bit-exact draw order).
//! * [`spec`] — the canonical cross-backend [`PolicySpec`]: one enum
//!   both backends' configurations derive from, replacing the
//!   hand-rolled per-backend mappings.
//! * [`router`] — [`Router`], the one enqueue-time routing rule both
//!   backends evaluate, and [`RouterState`], the dispatcher-side
//!   deterministic virtual-load model the native backend evaluates it
//!   over without consulting racy host queue lengths.
//! * `drain` (private) — the per-worker drain model [`RouterState`] and
//!   [`ClaimTable`] both embed: estimated-service drain clocks, the
//!   backlog they imply, the liveness mask.
//! * [`claim`] — [`ClaimTable`], the virtual-order claim protocol that
//!   makes shared-pool pops and work stealing deterministic: every
//!   pop/steal becomes a `(start, seq, claimant)` [`Claim`] resolved in
//!   total virtual order on the dispatcher, so arbitration outcomes are
//!   pure functions of the arrival stream at any worker count.
//! * [`lru`] — [`HashedLru`], the deterministic bounded hashed-LRU
//!   table behind million-flow steering and stream-state caches.
//! * [`frontend`] — the NIC-dispatch layer ([`FrontEndState`]): RSS
//!   hashing, the Flow-Director learning table (with its documented
//!   reordering pathology) and the transport-friendly per-flow pin,
//!   implemented once for both backends.
//!
//! Decisions are deterministic functions of `(view, entity, draws)`:
//! same view and same draw results ⇒ same decision, on any backend.

pub mod claim;
pub mod decision;
mod drain;
pub mod frontend;
pub mod lru;
pub mod paradigm;
pub mod policy;
pub mod router;
pub mod spec;
pub mod view;

pub use claim::{Claim, ClaimTable};
pub use decision::{Assignment, Route, StealDecision, ThreadSource};
pub use frontend::{FrontEndConfig, FrontEndKind, FrontEndPlan, FrontEndState};
pub use lru::{splitmix64, HashedLru, LruStats};
pub use paradigm::{IpsPolicy, LockPolicy, Paradigm};
pub use policy::{
    min_reload_route, mru_load_route, newest_idle, next_live, random_idle, shallowest_queue,
    StealPolicy,
};
pub use router::{Router, RouterState};
pub use spec::{NativeLayout, PolicySpec, DEFAULT_MRU_LOAD_BOUND};
pub use view::SchedView;
