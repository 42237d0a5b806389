#![warn(missing_docs)]

//! # affinity-sched
//!
//! A Rust reproduction of Salehi, Kurose & Towsley, *"The Performance
//! Impact of Scheduling for Cache Affinity in Parallel Network
//! Processing"* (HPDC-4, 1995) — processor-cache affinity scheduling of
//! parallel protocol processing on a shared-memory multiprocessor that
//! concurrently runs a general non-protocol workload.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`desim`] — discrete-event simulation substrate (clock, events,
//!   RNG streams, statistics).
//! * [`cache`] — analytic cache models (SST footprint, binomial
//!   displacement, reload transient) and a trace-driven cache-hierarchy
//!   simulator.
//! * [`xkernel`] — the instrumented x-kernel-style UDP/IP/FDDI protocol
//!   substrate and the Section-4 calibration experiments.
//! * [`workload`] — Poisson / bursty / packet-train traffic and stream
//!   populations.
//! * [`core`] — the affinity-scheduling simulator itself: Locking & IPS
//!   paradigms, scheduling policies, sweeps and analyses.
//! * [`native`] — the pinned-thread execution backend: the same receive
//!   path on real OS threads with per-worker run queues and
//!   affinity-aware work stealing, cross-validated against the
//!   simulator (`core::crossval`).
//! * [`obs`] — the unified observability layer: structured per-message
//!   events, aggregate counters and histograms, and trace sinks.
//! * [`sched`] — the shared scheduling-decision layer both backends
//!   consume: policy rungs, routers, steal policies, and the NIC
//!   front-ends (RSS / Flow-Director / transport-friendly steering)
//!   with their bounded hashed-LRU tables.
//!
//! ```
//! use affinity_sched::prelude::*;
//!
//! // 8 streams of 300 pkts/s each on the calibrated 8-CPU platform.
//! let pop = Population::homogeneous_poisson(8, 300.0);
//! let mut cfg = SystemConfig::new(Paradigm::Locking { policy: LockPolicy::Mru }, pop);
//! cfg.horizon = SimDuration::from_millis(400);
//! cfg.warmup = SimDuration::from_millis(80);
//! let report = run(&cfg);
//! assert!(report.stable);
//! ```

pub use afs_cache as cache;
pub use afs_core as core;
pub use afs_desim as desim;
pub use afs_native as native;
pub use afs_obs as obs;
pub use afs_sched as sched;
pub use afs_workload as workload;
pub use afs_xkernel as xkernel;

/// One-stop imports.
pub mod prelude {
    pub use afs_core::prelude::*;
    pub use afs_xkernel::{calibrate, Calibration, CostModel};
}
