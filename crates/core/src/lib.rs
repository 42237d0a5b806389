#![warn(missing_docs)]

//! # afs-core — cache-affinity scheduling of parallel network processing
//!
//! The primary contribution of the reproduced paper (Salehi, Kurose &
//! Towsley, HPDC-4 1995): a discrete-event simulation of N processors
//! serving packet streams under the **Locking** and **IPS** protocol
//! parallelization paradigms and a family of **affinity scheduling
//! policies**, with packet execution times driven by the calibrated
//! reload-transient cache model.
//!
//! * [`config`] — paradigms ([`Paradigm`]), policies ([`LockPolicy`],
//!   [`IpsPolicy`]) and the [`SystemConfig`] describing a run.
//! * [`exec`] — calibrated execution-time parameters ([`ExecParams`]),
//!   sourced from the `afs-xkernel` Section-4 experiments.
//! * [`state`] — processors, non-protocol clocks, migratable footprints.
//! * [`sim`] — the event loop; [`sim::run`] executes one configuration.
//! * [`metrics`] — delay/throughput/migration reporting with stability
//!   detection and Little's-law checks.
//! * [`sweep`] — rate sweeps and capacity search ([`sweep::rate_sweep`],
//!   [`sweep::capacity_search`]).
//! * [`par`] — the seeded, order-preserving parallel executor
//!   ([`par::parallel_map`], `AFS_JOBS`) that fans independent runs out
//!   across threads with byte-identical results.
//! * [`mod@replicate`] — independent replications with cross-run
//!   confidence intervals.
//! * [`analysis`] — percent-delay-reduction curves, crossover detection
//!   (Figures 10/11 and the policy trade-offs), and MSER-5 warm-up
//!   validation.
//!
//! The simulator also emits the unified `afs-obs` observability schema:
//! [`sim::run_observed`] streams every scheduling event (enqueue,
//! dispatch, cache charge, completion, eviction, queue-depth sample)
//! through an [`afs_obs::Recorder`], vclock/sim-time stamped, with zero
//! effect on the metrics — the same schema the native backend emits, so
//! traces are directly comparable across backends.
//!
//! ## Quick start
//!
//! ```
//! use afs_core::prelude::*;
//!
//! let pop = Population::homogeneous_poisson(8, 200.0); // 8 streams
//! let mut cfg = SystemConfig::new(
//!     Paradigm::Locking { policy: LockPolicy::Mru },
//!     pop,
//! );
//! cfg.horizon = afs_desim::SimDuration::from_millis(300);
//! cfg.warmup = afs_desim::SimDuration::from_millis(50);
//! let report = afs_core::sim::run(&cfg);
//! assert!(report.stable);
//! assert!(report.mean_delay_us > 0.0);
//! ```

pub mod analysis;
pub mod config;
pub mod crossval;
pub mod exec;
pub mod metrics;
pub mod par;
pub mod procfault;
pub mod replicate;
pub mod sim;
pub mod state;
pub mod sweep;

pub use config::{DropPolicy, FaultProfile, IpsPolicy, LockPolicy, Paradigm, SystemConfig};
pub use crossval::{sim_matrix, CrossPolicy, CrossvalScenario, SimCell};
pub use crossval::{sim_stream_matrix, SimStreamCell, StreamScenario, STREAM_POLICIES};
pub use exec::ExecParams;
pub use metrics::RunReport;
pub use par::{jobs_from_env, parallel_map, parallel_map_jobs};
pub use procfault::{FaultLoad, ProcFault, ProcFaultKind, ProcFaultPlan};
pub use replicate::{replicate, MetricSummary, ReplicationSummary};
pub use sweep::{capacity_search, rate_sweep, Series, SweepPoint};

/// One-stop imports for examples and benches.
pub mod prelude {
    pub use crate::config::{
        DropPolicy, FaultProfile, IpsPolicy, LockPolicy, Paradigm, SystemConfig,
    };
    pub use crate::exec::ExecParams;
    pub use crate::metrics::RunReport;
    pub use crate::par::{parallel_map, parallel_map_jobs};
    pub use crate::procfault::{FaultLoad, ProcFaultPlan};
    pub use crate::replicate::{replicate, ReplicationSummary};
    pub use crate::sim::{run, run_observed};
    pub use crate::sweep::{capacity_search, rate_sweep, Series};
    pub use afs_desim::time::{SimDuration, SimTime};
    pub use afs_obs::{MemRecorder, Recorder};
    pub use afs_workload::{ArrivalGen, Population};
}
