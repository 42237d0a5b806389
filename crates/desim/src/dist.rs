//! Sampling distributions for interarrival times, service components and
//! batch sizes.
//!
//! All continuous distributions sample a non-negative `f64` (interpreted by
//! callers as microseconds unless stated otherwise) via inverse-CDF
//! transforms of a single uniform draw, so one logical sample consumes one
//! RNG draw — which keeps common-random-number comparisons aligned across
//! policies.

use rand::Rng;

use crate::rng::unit_uniform;
use crate::time::SimDuration;

/// A continuous non-negative distribution.
#[derive(Debug, Clone, PartialEq)]
pub enum Dist {
    /// Always `value`.
    Deterministic {
        /// The constant value returned by every draw.
        value: f64,
    },
    /// Exponential with the given mean (`rate = 1/mean`).
    Exponential {
        /// Mean of the distribution.
        mean: f64,
    },
    /// Empirical distribution: draw uniformly from recorded samples
    /// (e.g. a measured packet-size or interarrival trace).
    Empirical {
        /// The recorded samples (all finite, non-negative).
        samples: std::sync::Arc<Vec<f64>>,
    },
}

impl Dist {
    /// A deterministic point mass.
    pub fn constant(value: f64) -> Self {
        assert!(
            value >= 0.0 && value.is_finite(),
            "invalid constant {value}"
        );
        Dist::Deterministic { value }
    }

    /// An exponential with the given mean.
    pub fn exponential(mean: f64) -> Self {
        assert!(mean > 0.0 && mean.is_finite(), "invalid mean {mean}");
        Dist::Exponential { mean }
    }

    /// The mean of the distribution (exact, not sampled).
    pub fn mean(&self) -> f64 {
        match *self {
            Dist::Deterministic { value } => value,
            Dist::Exponential { mean } => mean,
            Dist::Empirical { ref samples } => samples.iter().sum::<f64>() / samples.len() as f64,
        }
    }

    /// Draw one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u = unit_uniform(rng);
        match *self {
            Dist::Deterministic { value } => value,
            Dist::Exponential { mean } => {
                // Inverse CDF; guard u == 0 to avoid ln(0).
                let u = u.max(f64::MIN_POSITIVE);
                -mean * u.ln()
            }
            Dist::Empirical { ref samples } => {
                let idx = (u * samples.len() as f64) as usize;
                samples[idx.min(samples.len() - 1)]
            }
        }
    }

    /// Draw one sample as a [`SimDuration`] in microseconds.
    pub fn sample_duration_us<R: Rng + ?Sized>(&self, rng: &mut R) -> SimDuration {
        SimDuration::from_micros_f64(self.sample(rng))
    }
}

/// A discrete positive-integer distribution (batch / train sizes).
#[derive(Debug, Clone, PartialEq)]
pub enum CountDist {
    /// Geometric on {1, 2, …} with success probability `p` (mean `1/p`).
    Geometric {
        /// Per-trial success probability.
        p: f64,
    },
}

impl CountDist {
    /// Geometric with the given mean ≥ 1.
    pub fn geometric_with_mean(mean: f64) -> Self {
        assert!(mean >= 1.0, "geometric mean must be >= 1");
        CountDist::Geometric { p: 1.0 / mean }
    }

    /// Expected value.
    pub fn mean(&self) -> f64 {
        match *self {
            CountDist::Geometric { p } => 1.0 / p,
        }
    }

    /// Draw one sample (always ≥ 1).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        match *self {
            CountDist::Geometric { p } => {
                let u = unit_uniform(rng).max(f64::MIN_POSITIVE);
                // Inverse CDF of the {1,2,...} geometric.
                let n = (u.ln() / (1.0 - p).ln()).ceil();
                (n as u64).max(1)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::RngFactory;

    fn sample_mean(d: &Dist, n: usize) -> f64 {
        let mut rng = RngFactory::new(123).stream("dist-test");
        (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn deterministic_is_constant() {
        let d = Dist::constant(7.5);
        let mut rng = RngFactory::new(1).stream("c");
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), 7.5);
        }
        assert_eq!(d.mean(), 7.5);
    }

    #[test]
    fn exponential_mean_converges() {
        let d = Dist::exponential(100.0);
        let m = sample_mean(&d, 200_000);
        assert!((m - 100.0).abs() < 2.0, "sample mean {m}");
    }

    #[test]
    fn geometric_counts() {
        let d = CountDist::geometric_with_mean(8.0);
        let mut rng = RngFactory::new(3).stream("g");
        let n = 200_000;
        let mut sum = 0u64;
        for _ in 0..n {
            let x = d.sample(&mut rng);
            assert!(x >= 1);
            sum += x;
        }
        let m = sum as f64 / n as f64;
        assert!((m - 8.0).abs() < 0.1, "sample mean {m}");
    }

    #[test]
    fn empirical_draws_only_recorded_values_and_matches_mean() {
        let d = Dist::Empirical {
            samples: std::sync::Arc::new(vec![1.0, 5.0, 10.0, 100.0]),
        };
        assert_eq!(d.mean(), 29.0);
        let mut rng = RngFactory::new(11).stream("e");
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..400 {
            let x = d.sample(&mut rng);
            assert!([1.0, 5.0, 10.0, 100.0].contains(&x));
            seen.insert(x as u64);
        }
        assert_eq!(seen.len(), 4, "all samples eventually drawn");
        let m = sample_mean(&d, 400_000);
        assert!((m - 29.0).abs() < 0.5, "sample mean {m}");
    }

    #[test]
    fn sample_duration_us_matches_f64() {
        let d = Dist::constant(284.3);
        let mut rng = RngFactory::new(1).stream("d");
        let dur = d.sample_duration_us(&mut rng);
        assert!((dur.as_micros_f64() - 284.3).abs() < 1e-3);
    }
}
