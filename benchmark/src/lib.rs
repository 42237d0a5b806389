//! The repo benchmark: five workloads over both backends (the `afs-core`
//! simulator and the `afs-native` runtime), end-to-end metrics measured
//! with tracing off, and a per-layer ledger timed from outside by
//! calling each workspace crate's public functions. See `README.md`.

pub mod driver;
pub mod host;
pub mod json;
pub mod ledger;
pub mod metrics;
pub mod micro;
pub mod spans;
pub mod stats;
pub mod workloads;
