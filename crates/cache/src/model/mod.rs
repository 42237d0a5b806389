//! Analytic models: footprint growth, binomial displacement, two-level
//! `F1(x)/F2(x)` curves, the reload-transient execution-time model, the
//! platform description, and least-squares SST fitting.

pub mod exec_time;
pub mod fit;
pub mod flush;
pub mod footprint;
pub mod hierarchy;
pub mod platform;
pub mod pricer;

pub use exec_time::{Age, ComponentAges, ComponentWeights, ExecTimeModel, TimeBounds};
pub use fit::{fit_sst, FootprintObs};
pub use flush::flushed_fraction;
pub use footprint::{LineFootprint, SstParams, MVS_WORKLOAD};
pub use hierarchy::{Displacement, FlushModel};
pub use platform::{CacheGeometry, Platform};
pub use pricer::DispatchPricer;
