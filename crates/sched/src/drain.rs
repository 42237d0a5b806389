//! The per-worker drain model both dispatcher-side models embed:
//! [`RouterState`](crate::RouterState) routes over it and
//! [`ClaimTable`](crate::ClaimTable) arbitrates claims over it.
//!
//! Each worker has a virtual drain clock, the instant the work charged
//! to it so far is done. Charging a job that may start at `t` costs one
//! estimated service from `max(clock, t)`; a worker's backlog at `t` is
//! how many estimated services its clock sits past `t`. A plan-derived
//! liveness mask rides along. The model never reads worker-side state,
//! so everything decided over it is a pure function of the arrivals.

/// Per-worker drain clocks, the estimated service they are charged,
/// and the liveness mask.
#[derive(Debug, Clone)]
pub(crate) struct DrainModel {
    /// The virtual instant each worker's charged work drains.
    pub(crate) clock_us: Vec<f64>,
    /// Estimated per-job service charged to the clocks.
    est_service_us: f64,
    /// `false` masks a worker out of every decision over the model.
    pub(crate) live: Vec<bool>,
}

impl DrainModel {
    /// `workers` idle, live workers charged `est_service_us` per job
    /// (at least 1e-9, so a backlog is always finite).
    pub(crate) fn new(workers: usize, est_service_us: f64) -> Self {
        DrainModel {
            clock_us: vec![0.0; workers],
            est_service_us: est_service_us.max(1e-9),
            live: vec![true; workers],
        }
    }

    /// Charge worker `w` one job that may start at `t`: it starts at
    /// `max(clock, t)` and the clock moves one estimated service past
    /// that. Returns the start.
    pub(crate) fn charge(&mut self, w: usize, t: f64) -> f64 {
        let start = self.clock_us[w].max(t);
        self.clock_us[w] = start + self.est_service_us;
        start
    }

    /// Worker `w`'s backlog at `t`, in estimated services: 0 once its
    /// clock is at or before `t`.
    pub(crate) fn backlog(&self, w: usize, t: f64) -> usize {
        let lag = self.clock_us[w] - t;
        if lag <= 0.0 {
            0
        } else {
            (lag / self.est_service_us).ceil() as usize
        }
    }
}
