#![warn(missing_docs)]
#![warn(clippy::too_many_lines)]

//! # afs-native — the pinned-thread execution backend
//!
//! The paper demonstrates affinity scheduling's payoff with a simulator
//! parameterized by measurement. This crate closes the loop from the
//! other side: it *executes* the instrumented x-kernel receive path
//! (`afs-xkernel`) on real OS threads pinned to cores, under the same
//! `afs-sched` policy rungs the simulator models, and the cross-validation
//! harness (`ext22_native`, `tests/crossval_native.rs`) checks that both
//! backends agree on the paper's qualitative claims — the policy
//! ordering and the size of the affinity win.
//!
//! One dispatcher and one worker implementation serve every entry point
//! (DESIGN.md §9): replay and serving differ only in the arrival source,
//! the admission bound and whether a recorder is attached.
//!
//! * [`pin`] — best-effort core pinning (`sched_setaffinity` behind the
//!   [`pin::CorePinner`] trait; unprivileged CI degrades gracefully).
//! * [`ring`] — the bounded lock-free ring each worker uses as its run
//!   queue.
//! * [`runtime`] — configuration, workload generators, report types and
//!   the replay entry points ([`run_native`], [`run_native_recorded`]):
//!   a pre-generated workload, lossless back-pressure, optional trace.
//! * [`serve`] — the serving entry points ([`run_serve`]): an open-loop
//!   generator feeding the same pipeline for an unbounded horizon in
//!   bounded memory, with deterministic taildrop under overload.
//! * [`crossval`] — the native mapping of the shared scenario matrix
//!   defined in `afs_core::crossval`.
//! * [`watchdog`] — plan-driven worker health (crash/stall/slowdown
//!   schedules on the virtual clock) and the shared health board whose
//!   crash and exit flags sequence orphan-work recovery.
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
//! real concurrency (real threads, real rings, real locks, real races
//! in dispatch order).

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
    poisson_workload, run_native, run_native_recorded, run_native_recorded_with_pinner,
    run_native_with_pinner, zipf_workload, NativeConfig, NativePacket, NativeReport, OutcomeTotals,
    Pinning, WorkerStats, ZipfPacketGen,
};
pub use serve::{current_rss_kb, run_serve, run_serve_with_pinner, ServeConfig, ServeReport};
pub use watchdog::{HealthBoard, WorkerFaults};
