//! Order statistics for repeated timings.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), because that is what the acceptance
//! driver computes over this benchmark's outputs — the harness and the
//! driver must agree on what a "spread" is.

/// Sort a copy of `values` ascending (total order; NaN sorts last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (mean of the two middle samples when the count is
/// even). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[n / 2]),
        n => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First, second and third quartile by the exclusive method. `None`
/// with fewer than two samples (the method is undefined there).
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Nearest-rank percentile `p` in `[0, 100]` of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// What the report prints beside every host-time median.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// First quartile (equals the median below two samples).
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile (equals the median below two samples).
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarise `values`; `None` when empty.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let med = median(values)?;
        let v = sorted(values);
        let [q1, _, q3] = quartiles(values).unwrap_or([med; 3]);
        Some(Summary {
            n: v.len(),
            min: v[0],
            q1,
            median: med,
            q3,
            max: v[v.len() - 1],
        })
    }

    /// Inter-quartile distance as a share of the median — the spread
    /// the acceptance driver bounds.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}
