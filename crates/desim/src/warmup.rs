//! Warm-up (initial-transient) detection for steady-state output series.
//!
//! Picking the truncation point by eye is the classic source of bias in
//! steady-state simulation; the widely used heuristic is **MSER-5**
//! (White 1997): average the raw series into batches of 5, then choose
//! the truncation index `d` that minimizes the *marginal standard error*
//! of the remaining batch means,
//!
//! ```text
//! MSER(d) = s²(d) / (m − d)
//! ```
//!
//! where `s²(d)` is the variance of batches `d..m`. Dividing by the
//! remaining count twice (once inside the variance of the mean, once for
//! the confidence in it) penalizes both keeping biased head batches and
//! truncating so much that the tail is noisy.
//!
//! The simulator's `warmup` configuration can be validated against this
//! estimate (see the tests and `afs-core`'s analysis utilities).

/// Result of an MSER-5 scan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WarmupEstimate {
    /// Recommended truncation point, as an index into the raw series.
    pub truncate_at: usize,
    /// The MSER statistic at the chosen point.
    pub mser: f64,
    /// Mean of the retained observations.
    pub steady_mean: f64,
}

/// MSER batch size (the "5" in MSER-5).
const BATCH: usize = 5;

/// Estimate the warm-up truncation point of `series` with MSER-5.
///
/// Returns `None` when the series is too short to say anything
/// (fewer than 10 batches). By convention the scan is restricted to the
/// first half of the batches — truncating more than half the data is
/// taken as "no steady state detected", and the scan returns the best
/// point in the allowed range.
pub fn mser5(series: &[f64]) -> Option<WarmupEstimate> {
    let m = series.len() / BATCH;
    if m < 10 {
        return None;
    }
    let batches: Vec<f64> = (0..m)
        .map(|i| series[i * BATCH..(i + 1) * BATCH].iter().sum::<f64>() / BATCH as f64)
        .collect();

    let mut best: Option<(usize, f64)> = None;
    for d in 0..m / 2 {
        let tail = &batches[d..];
        let n = tail.len() as f64;
        let mean = tail.iter().sum::<f64>() / n;
        let var = tail.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        let mser = var / n;
        if best.is_none_or(|(_, b)| mser < b) {
            best = Some((d, mser));
        }
    }
    let (d, mser) = best?;
    let steady = &series[d * BATCH..];
    Some(WarmupEstimate {
        truncate_at: d * BATCH,
        mser,
        steady_mean: steady.iter().sum::<f64>() / steady.len() as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A series with a decaying transient head and flat tail.
    fn transient_series(head: usize, tail: usize) -> Vec<f64> {
        let mut v = Vec::with_capacity(head + tail);
        for i in 0..head {
            // Decays from 100 toward 10.
            v.push(10.0 + 90.0 * (-(i as f64) / (head as f64 / 3.0)).exp());
        }
        for i in 0..tail {
            // Flat around 10 with small deterministic wiggle.
            v.push(10.0 + 0.5 * ((i as f64) * 0.7).sin());
        }
        v
    }

    #[test]
    fn detects_transient_head() {
        let series = transient_series(100, 400);
        let est = mser5(&series).expect("long enough");
        assert!(
            (40..=160).contains(&est.truncate_at),
            "truncate_at = {} should land near the 100-sample transient",
            est.truncate_at
        );
        assert!(
            (est.steady_mean - 10.0).abs() < 1.0,
            "steady mean {}",
            est.steady_mean
        );
    }

    #[test]
    fn flat_series_truncates_near_zero() {
        let series: Vec<f64> = (0..300)
            .map(|i| 5.0 + 0.1 * ((i as f64) * 1.3).sin())
            .collect();
        let est = mser5(&series).expect("long enough");
        assert!(est.truncate_at <= 30, "truncate_at = {}", est.truncate_at);
        assert!((est.steady_mean - 5.0).abs() < 0.2);
    }

    #[test]
    fn too_short_series_rejected() {
        assert!(mser5(&[1.0; 49]).is_none());
        assert!(mser5(&[]).is_none());
        assert!(mser5(&[1.0; 50]).is_some());
    }

    #[test]
    fn truncation_never_exceeds_half() {
        // Even a series that trends forever only truncates half.
        let series: Vec<f64> = (0..500).map(|i| i as f64).collect();
        let est = mser5(&series).expect("long enough");
        assert!(est.truncate_at <= 250);
    }

    #[test]
    fn steady_mean_excludes_the_transient() {
        let series = transient_series(150, 600);
        let est = mser5(&series).expect("long enough");
        let naive: f64 = series.iter().sum::<f64>() / series.len() as f64;
        // The truncated mean must be closer to the true steady value (10)
        // than the naive mean, which the transient biases upward.
        assert!((est.steady_mean - 10.0).abs() < (naive - 10.0).abs());
    }
}
