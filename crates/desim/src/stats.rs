//! Output-analysis statistics for simulation runs.
//!
//! * [`Welford`] — numerically stable streaming mean/variance.
//! * [`TimeWeighted`] — time-averaged piecewise-constant quantities
//!   (queue lengths, utilizations).
//! * [`Histogram`] — fixed-width bins with tail overflow; quantile reads.
//! * [`BatchMeans`] — confidence intervals for correlated output series by
//!   the method of non-overlapping batch means.
//! * [`littles_law_gap`] — consistency check `L = λ·W` for a completed run.

use crate::time::SimTime;

/// Streaming mean and variance (Welford's algorithm).
#[derive(Debug, Clone, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// An empty accumulator.
    pub fn new() -> Self {
        Welford {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one observation.
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 for n < 2).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Smallest observation (`NaN`-free input assumed).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation.
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Merge another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += delta * n2 / n;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Time-weighted average of a piecewise-constant signal, e.g. queue length.
///
/// Call [`TimeWeighted::set`] at every change; the average weights each
/// value by how long it was held.
#[derive(Debug, Clone)]
pub struct TimeWeighted {
    last_change: SimTime,
    current: f64,
    integral: f64,
    start: SimTime,
}

impl TimeWeighted {
    /// Start tracking at `start` with initial value `initial`.
    pub fn new(start: SimTime, initial: f64) -> Self {
        TimeWeighted {
            last_change: start,
            current: initial,
            integral: 0.0,
            start,
        }
    }

    /// Record that the signal takes value `value` from time `now` on.
    pub fn set(&mut self, now: SimTime, value: f64) {
        debug_assert!(now >= self.last_change, "time went backwards");
        self.integral += self.current * now.since(self.last_change).as_secs_f64();
        self.last_change = now;
        self.current = value;
    }

    /// Adjust the signal by `delta` at time `now`.
    pub fn add(&mut self, now: SimTime, delta: f64) {
        let v = self.current + delta;
        self.set(now, v);
    }

    /// Current (instantaneous) value.
    pub fn current(&self) -> f64 {
        self.current
    }

    /// Time-weighted average over `[start, now]`.
    pub fn average(&self, now: SimTime) -> f64 {
        let total = now.since(self.start).as_secs_f64();
        if total <= 0.0 {
            return self.current;
        }
        let integral = self.integral + self.current * now.since(self.last_change).as_secs_f64();
        integral / total
    }

    /// Reset the accumulated history, keeping the current value. Used to
    /// discard a warm-up transient.
    pub fn reset(&mut self, now: SimTime) {
        self.integral = 0.0;
        self.start = now;
        self.last_change = now;
    }
}

/// A fixed-width histogram over `[0, width × bins)` with an overflow tail.
#[derive(Debug, Clone)]
pub struct Histogram {
    width: f64,
    counts: Vec<u64>,
    overflow: u64,
    total: u64,
}

impl Histogram {
    /// `bins` bins of `width` each (both > 0).
    pub fn new(width: f64, bins: usize) -> Self {
        assert!(width > 0.0 && bins > 0);
        Histogram {
            width,
            counts: vec![0; bins],
            overflow: 0,
            total: 0,
        }
    }

    /// Record one observation (negative values count in bin 0).
    pub fn add(&mut self, x: f64) {
        let idx = (x / self.width).floor().max(0.0) as usize;
        if idx < self.counts.len() {
            self.counts[idx] += 1;
        } else {
            self.overflow += 1;
        }
        self.total += 1;
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Approximate `q`-quantile (bin upper edge), `q ∈ [0, 1]`.
    ///
    /// Returns `None` when empty or when the quantile falls in the
    /// overflow tail (the histogram cannot bound it).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q));
        if self.total == 0 {
            return None;
        }
        let target = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return Some((i as f64 + 1.0) * self.width);
            }
        }
        None
    }
}

/// Confidence interval via the method of non-overlapping batch means.
///
/// Observations are grouped into `num_batches` equal batches in arrival
/// order; the batch means are treated as approximately i.i.d. normal and a
/// Student-t interval is formed. Standard practice for steady-state
/// simulation output, which is serially correlated.
#[derive(Debug, Clone)]
pub struct BatchMeans {
    values: Vec<f64>,
    num_batches: usize,
}

/// A symmetric confidence interval `mean ± half_width`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfInterval {
    /// Point estimate.
    pub mean: f64,
    /// Half-width of the interval.
    pub half_width: f64,
}

/// Two-sided Student-t 0.975 quantiles for small d.o.f.; 1.96 beyond.
fn t_975(df: usize) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    if df == 0 {
        f64::INFINITY
    } else if df <= 30 {
        TABLE[df - 1]
    } else {
        1.96
    }
}

impl BatchMeans {
    /// Accumulate into `num_batches` batches (≥ 2).
    pub fn new(num_batches: usize) -> Self {
        assert!(num_batches >= 2);
        BatchMeans {
            values: Vec::new(),
            num_batches,
        }
    }

    /// Record one observation.
    pub fn add(&mut self, x: f64) {
        self.values.push(x);
    }

    /// Number of observations so far.
    pub fn count(&self) -> usize {
        self.values.len()
    }

    /// 95 % confidence interval for the steady-state mean, or `None` when
    /// there are fewer than `num_batches` observations.
    pub fn interval(&self) -> Option<ConfInterval> {
        let b = self.num_batches;
        let n = self.values.len();
        if n < b {
            return None;
        }
        let per = n / b; // drop the ragged tail
        let mut means = Welford::new();
        for i in 0..b {
            let chunk = &self.values[i * per..(i + 1) * per];
            let m = chunk.iter().sum::<f64>() / per as f64;
            means.add(m);
        }
        let se = (means.variance() / b as f64).sqrt();
        Some(ConfInterval {
            mean: means.mean(),
            half_width: t_975(b - 1) * se,
        })
    }
}

/// Little's-law consistency gap for a completed run.
///
/// Given time-average population `l`, throughput `lambda` (per second) and
/// mean time-in-system `w` (seconds), returns the relative gap
/// `|l − λ·w| / max(l, λ·w)`. Small values (≲ a few %) indicate the
/// run's bookkeeping is self-consistent.
pub fn littles_law_gap(l: f64, lambda_per_sec: f64, w_secs: f64) -> f64 {
    let rhs = lambda_per_sec * w_secs;
    let denom = l.max(rhs);
    if denom <= 0.0 {
        return 0.0;
    }
    (l - rhs).abs() / denom
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.add(x);
        }
        assert_eq!(w.count(), 8);
        assert!((w.mean() - 5.0).abs() < 1e-12);
        // Naive unbiased variance = 32/7.
        assert!((w.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(w.min(), 2.0);
        assert_eq!(w.max(), 9.0);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0 + 20.0).collect();
        let mut whole = Welford::new();
        for &x in &xs {
            whole.add(x);
        }
        let mut a = Welford::new();
        let mut b = Welford::new();
        for &x in &xs[..37] {
            a.add(x);
        }
        for &x in &xs[37..] {
            b.add(x);
        }
        a.merge(&b);
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn empty_welford_is_zeroed() {
        let w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
        assert_eq!(w.count(), 0);
    }

    #[test]
    fn time_weighted_average() {
        let t0 = SimTime::ZERO;
        let mut tw = TimeWeighted::new(t0, 0.0);
        tw.set(SimTime::from_micros(10), 2.0); // 0 for 10us
        tw.set(SimTime::from_micros(30), 1.0); // 2 for 20us
        let avg = tw.average(SimTime::from_micros(40)); // 1 for 10us
                                                        // (0*10 + 2*20 + 1*10) / 40 = 50/40
        assert!((avg - 1.25).abs() < 1e-12);
        assert_eq!(tw.current(), 1.0);
    }

    #[test]
    fn time_weighted_reset_discards_history() {
        let mut tw = TimeWeighted::new(SimTime::ZERO, 5.0);
        tw.set(SimTime::from_micros(100), 1.0);
        tw.reset(SimTime::from_micros(100));
        let avg = tw.average(SimTime::from_micros(200));
        assert!((avg - 1.0).abs() < 1e-12);
    }

    #[test]
    fn time_weighted_add_delta() {
        let mut tw = TimeWeighted::new(SimTime::ZERO, 1.0);
        tw.add(SimTime::from_micros(10), 2.0);
        assert_eq!(tw.current(), 3.0);
        tw.add(SimTime::from_micros(20), -3.0);
        assert_eq!(tw.current(), 0.0);
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = Histogram::new(1.0, 100);
        for i in 0..100 {
            h.add(i as f64 + 0.5);
        }
        assert_eq!(h.count(), 100);
        let median = h.quantile(0.5).unwrap();
        assert!((median - 50.0).abs() <= 1.0, "median {median}");
        let p99 = h.quantile(0.99).unwrap();
        assert!((p99 - 99.0).abs() <= 1.0, "p99 {p99}");
    }

    #[test]
    fn histogram_overflow() {
        let mut h = Histogram::new(1.0, 10);
        h.add(5.0);
        h.add(100.0);
        assert_eq!(h.quantile(0.9), None, "quantile in overflow tail");
        assert!(h.quantile(0.5).is_some());
    }

    #[test]
    fn batch_means_interval_covers_iid_mean() {
        use crate::rng::RngFactory;
        use rand::Rng;
        let mut rng = RngFactory::new(77).stream("bm");
        let mut bm = BatchMeans::new(10);
        for _ in 0..10_000 {
            bm.add(rng.gen::<f64>()); // U(0,1), mean 0.5
        }
        let ci = bm.interval().unwrap();
        assert!(
            (ci.mean - 0.5).abs() < ci.half_width + 0.02,
            "mean {} hw {}",
            ci.mean,
            ci.half_width
        );
        assert!(ci.half_width < 0.05);
    }

    #[test]
    fn batch_means_needs_enough_data() {
        let mut bm = BatchMeans::new(10);
        for _ in 0..5 {
            bm.add(1.0);
        }
        assert!(bm.interval().is_none());
    }

    #[test]
    fn littles_law_gap_zero_when_consistent() {
        assert!(littles_law_gap(2.0, 4.0, 0.5) < 1e-12);
        assert!(littles_law_gap(0.0, 0.0, 0.0) == 0.0);
        assert!(littles_law_gap(2.0, 4.0, 1.0) > 0.4);
    }

    #[test]
    fn t_table_monotone_toward_normal() {
        assert!(t_975(1) > t_975(5));
        assert!(t_975(5) > t_975(30));
        assert_eq!(t_975(31), 1.96);
    }
}
