#![warn(missing_docs)]

//! # afs-workload — offered traffic models
//!
//! Arrival processes and stream populations for the scheduling
//! simulator:
//!
//! * [`arrivals`] — Poisson, compound-Poisson batch (intra-stream
//!   burstiness) and Jain–Routhier packet-train generators, all with
//!   exact mean-rate accounting.
//! * [`population`] — stream sets (homogeneous, hot/cold mixes) and
//!   the packet-size distribution each stream draws from.

pub mod arrivals;
pub mod population;

pub use arrivals::ArrivalGen;
pub use population::{zipf_weights, Population, SizeDist, StreamSpec};
