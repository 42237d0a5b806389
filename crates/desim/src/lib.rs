#![warn(missing_docs)]

//! # afs-desim — discrete-event simulation substrate
//!
//! The simulation kernel underlying the `affinity-sched` workspace, the
//! Rust reproduction of Salehi, Kurose & Towsley, *"The Performance Impact
//! of Scheduling for Cache Affinity in Parallel Network Processing"*
//! (HPDC-4, 1995).
//!
//! The crate is deliberately generic — nothing in here knows about caches,
//! protocols or processors. It provides:
//!
//! * [`time`] — fixed-point simulation clock types ([`SimTime`],
//!   [`SimDuration`]); integer nanosecond ticks, so event ordering is
//!   exact and runs are bit-reproducible.
//! * [`event`] — a stable (FIFO-on-ties) time-ordered event queue with
//!   O(log n) cancellation: a 4-ary indexed heap over one slot arena.
//! * [`engine`] — the [`Simulate`] trait and the [`Engine`] driver with
//!   horizon / event-budget stop conditions.
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
pub mod engine;
pub mod event;
pub mod rng;
pub mod stats;
pub mod time;
pub mod warmup;

pub use dist::{CountDist, Dist};
pub use engine::{Engine, Scheduler, Simulate, StopReason};
pub use event::{EventId, EventQueue};
pub use rng::RngFactory;
pub use stats::{BatchMeans, ConfInterval, Histogram, TimeWeighted, Welford};
pub use time::{SimDuration, SimTime};
pub use warmup::{mser5, WarmupEstimate};
