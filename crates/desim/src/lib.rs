#![warn(missing_docs)]

//! # afs-desim — discrete-event simulation substrate
//!
//! The simulation kernel underlying the `affinity-sched` workspace, the
//! Rust reproduction of Salehi, Kurose & Towsley, *"The Performance Impact
//! of Scheduling for Cache Affinity in Parallel Network Processing"*
//! (HPDC-4, 1995).
//!
//! The crate is deliberately generic — nothing in here knows about caches,
//! protocols or processors, and it depends on no other workspace crate.
//! It provides the pieces a run loop is built from (the simulator's own
//! loop lives with its model, in `afs-core`'s `sim` module):
//!
//! * [`time`] — fixed-point simulation clock types ([`SimTime`],
//!   [`SimDuration`]); integer nanosecond ticks, so event ordering is
//!   exact and runs are bit-reproducible.
//! * [`event`] — a stable (FIFO-on-ties) time-ordered event queue: a
//!   4-ary min-heap of keyed payloads, without cancellation.
//! * [`rng`] — named deterministic RNG substreams supporting
//!   common-random-number comparisons across scheduling policies.
//! * [`dist`] — inverse-CDF samplers (deterministic, exponential,
//!   empirical) and the geometric count distribution.
//! * [`stats`] — Welford accumulators, time-weighted averages, quantile
//!   histograms, batch-means confidence intervals and a Little's-law
//!   consistency check.
//! * [`warmup`] — MSER-5 initial-transient detection for choosing the
//!   truncation point of steady-state output series.

pub mod dist;
pub mod event;
pub mod rng;
pub mod stats;
pub mod time;
pub mod warmup;

pub use dist::{CountDist, Dist};
pub use event::EventQueue;
pub use rng::RngFactory;
pub use stats::{BatchMeans, ConfInterval, Histogram, TimeWeighted, Welford};
pub use time::{SimDuration, SimTime};
pub use warmup::{mser5, WarmupEstimate};
