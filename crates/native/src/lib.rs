#![warn(missing_docs)]
#![deny(unsafe_code)]
#![warn(clippy::too_many_lines)]

//! # afs-native — the pinned-thread execution backend
//!
//! The paper demonstrates affinity scheduling's payoff with a simulator
//! parameterized by measurement. This crate closes the loop from the
//! other side: it *executes* the instrumented x-kernel receive path
//! (`afs-xkernel`) on real OS threads pinned to cores, under the same
//! `afs-sched` policy rungs the simulator models, and the cross-validation
//! harness (`ext22_native`, run in tier-1 by `tests/experiment_checks.rs`) checks that both
//! backends agree on the paper's qualitative claims — the policy
//! ordering and the size of the affinity win.
//!
//! One dispatcher and one worker implementation serve every entry point
//! (DESIGN.md §8): replay and serving differ only in the arrival source,
//! the admission bound and whether a recorder is attached.
//!
//! * [`pin`] — best-effort core pinning (`sched_setaffinity` behind the
//!   [`pin::CorePinner`] trait; unprivileged CI degrades gracefully).
//! * [`ring`] — the bounded FIFO (a `Mutex<VecDeque>`) each worker uses
//!   as its run queue.
//! * [`runtime`] — configuration, workload generators, the one report
//!   ([`NativeReport`], which [`run_serve`] returns too) and the replay
//!   entry points ([`run_native`], [`run_native_recorded`]): a
//!   pre-generated workload, lossless back-pressure, optional trace.
//! * [`serve`] — the serving entry points ([`run_serve`]): an open-loop
//!   generator feeding the same pipeline for an unbounded horizon in
//!   bounded memory, with deterministic taildrop under overload.
//! * [`crossval`] — the native mapping of the shared scenario matrix
//!   defined in `afs_core::crossval`.
//! * [`watchdog`] — plan-driven worker health: each worker's
//!   crash/stall/slowdown schedule on the virtual clock.
//!
//! The runtime also speaks the unified `afs-obs` observability schema:
//! [`runtime::run_native_recorded`] has every worker record
//! vclock-stamped scheduling events into a private in-memory recorder
//! (no cross-thread traffic on the hot path) and merges the slices into
//! one deterministically ordered trace — directly comparable, event for
//! event, with the simulator's trace from `afs_core::sim::run_observed`.
//!
//! Time is *virtual* throughout: packets carry Poisson arrival stamps,
//! workers advance per-worker virtual clocks by the modeled service
//! time, and delays are derived from those clocks — so results are
//! insensitive to host speed and interference, while still exercising
//! real concurrency (real threads, real rings, real locks). No race
//! decides a placement: the dispatcher resolves every one before it
//! enqueues the packet.

pub mod crossval;
mod dispatch;
pub mod pin;
pub mod ring;
pub mod runtime;
pub mod serve;
pub mod watchdog;
mod worker;

pub use afs_core::procfault::{FaultLoad, ProcFault, ProcFaultKind, ProcFaultPlan};
pub use afs_sched::{FrontEndKind, FrontEndPlan, NativeLayout, PolicySpec, Router, StealPolicy};
pub use pin::{CorePinner, NoopPinner, OsPinner, PinError};
pub use ring::RingQueue;
pub use runtime::{
    poisson_workload, run_native, run_native_recorded, zipf_workload, NativeConfig, NativePacket,
    NativeReport, OutcomeTotals, Pinning, WorkerStats, ZipfPacketGen,
};
pub use serve::{current_rss_kb, run_serve, ServeConfig, ServeReport};
pub use watchdog::WorkerFaults;
