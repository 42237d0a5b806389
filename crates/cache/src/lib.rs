#![warn(missing_docs)]

//! # afs-cache — cache behaviour, analytic and simulated
//!
//! Everything the HPDC-95 paper needs to reason about caches:
//!
//! * [`model`] — the analytic side. The Singh–Stone–Thiebaut footprint
//!   function `u(R, L)` with the published MVS-workload constants, the
//!   binomial set-conflict displacement model `F = P[X ≥ A]`, the
//!   two-level `F1(x)/F2(x)` curves for the SGI Challenge / R4400
//!   platform, and the reload-transient execution-time interpolation
//!   `T(x) = t_warm + F1·(t_L2 − t_warm) + F2·(t_cold − t_L2)` with
//!   per-component (code/thread/stream) aging. A least-squares fitter
//!   recovers SST constants from measured `(R, L, u)` triples.
//! * [`sim`] — the executable side. A region-tagged, trace-driven
//!   direct-mapped cache hierarchy (split L1 over an inclusive unified
//!   L2 with back-invalidation, 2^k sets at each level) standing in for the
//!   paper's hardware, plus a synthetic power-law workload generator used
//!   to cross-validate the analytic displacement curves.

pub mod model;
pub mod sim;
