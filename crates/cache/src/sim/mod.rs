//! Trace-driven simulation: region-tagged references, a set-associative
//! cache, the two-level hierarchy with inclusion and cycle accounting,
//! and a synthetic SST-like workload generator for cross-validation.

pub mod cache;
pub mod hierarchy;
pub mod synth;
pub mod trace;

pub use cache::{AccessResult, Cache, CacheStats};
pub use hierarchy::{HierarchyStats, MemoryHierarchy, ServedBy};
pub use synth::{measure_growth, SynthParams, SynthWorkload};
pub use trace::{MemRef, Region, TraceBuffer, TraceSink};
