//! Stream populations: the set of concurrent connections offered to the
//! host, with per-stream arrival processes and packet sizes.
//!
//! The paper's figures sweep the per-stream arrival rate for a fixed
//! population of homogeneous streams (K = N and K > N cases); the
//! capacity results ask how many concurrent streams the host can carry.
//! [`Population`] builds these configurations and computes exact offered
//! loads.

use afs_desim::dist::Dist;

use crate::arrivals::ArrivalGen;

/// Packet-size (payload bytes) distributions.
///
/// Most packets in real environments are small (the paper, citing
/// Gusella and Kay–Pasquale, uses this to justify the fixed-overhead
/// focus); the FDDI maximum is 4432 bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct SizeDist(pub Dist);

impl SizeDist {
    /// 1-byte packets: isolates fixed per-packet costs (the paper's
    /// calibration configuration).
    pub fn tiny() -> Self {
        SizeDist(Dist::constant(1.0))
    }
}

/// Normalized Zipf popularity weights for ranks `1..=k`: weight of
/// rank `r` is `r^-alpha / H_k(alpha)`, so the vector sums to 1.
///
/// This is the locality model of Jain's destination-address study (and
/// of most flow-popularity measurements since): a few head streams
/// carry most of the traffic while a long tail of cold streams keeps
/// the population — and any bounded state table — under pressure.
/// `alpha = 0` degenerates to a uniform population. Both backends draw
/// their Zipf traffic from this one function, so the sim's per-stream
/// rates and the native generator's per-packet stream draw follow the
/// same law.
pub fn zipf_weights(k: usize, alpha: f64) -> Vec<f64> {
    assert!(k >= 1, "zipf population must be non-empty");
    assert!(
        alpha.is_finite() && alpha >= 0.0,
        "zipf exponent must be finite and non-negative"
    );
    let mut w: Vec<f64> = (1..=k).map(|r| (r as f64).powf(-alpha)).collect();
    let h: f64 = w.iter().sum();
    for x in &mut w {
        *x /= h;
    }
    w
}

/// One stream's offered traffic.
#[derive(Debug, Clone)]
pub struct StreamSpec {
    /// Arrival process.
    pub arrivals: ArrivalGen,
    /// Payload-size distribution.
    pub sizes: SizeDist,
}

/// A complete offered workload: one spec per stream.
#[derive(Debug, Clone, Default)]
pub struct Population {
    /// Per-stream specifications, indexed by stream id.
    pub streams: Vec<StreamSpec>,
}

impl Population {
    /// `k` identical Poisson streams of `rate_per_sec` each, tiny packets.
    pub fn homogeneous_poisson(k: usize, rate_per_sec: f64) -> Self {
        Population {
            streams: (0..k)
                .map(|_| StreamSpec {
                    arrivals: ArrivalGen::poisson(rate_per_sec),
                    sizes: SizeDist::tiny(),
                })
                .collect(),
        }
    }

    /// `k` identical bursty streams (geometric batches of mean
    /// `batch_mean`) of `rate_per_sec` each.
    pub fn homogeneous_bursty(k: usize, rate_per_sec: f64, batch_mean: f64) -> Self {
        Population {
            streams: (0..k)
                .map(|_| StreamSpec {
                    arrivals: ArrivalGen::bursty(rate_per_sec, batch_mean),
                    sizes: SizeDist::tiny(),
                })
                .collect(),
        }
    }

    /// `k` Poisson streams with Zipf(`alpha`)-distributed popularity:
    /// stream `s` (rank `s + 1`) offers `aggregate_rate_pps ×`
    /// [`zipf_weights`]`[s]` packets/second, so the population's total
    /// rate is exactly `aggregate_rate_pps` at any `k`. Tiny packets.
    pub fn zipf(k: usize, aggregate_rate_pps: f64, alpha: f64) -> Self {
        assert!(aggregate_rate_pps > 0.0, "aggregate rate must be positive");
        Population {
            streams: zipf_weights(k, alpha)
                .into_iter()
                .map(|w| StreamSpec {
                    arrivals: ArrivalGen::poisson(aggregate_rate_pps * w),
                    sizes: SizeDist::tiny(),
                })
                .collect(),
        }
    }

    /// [`Population::zipf`] with bursty (compound-Poisson) arrivals:
    /// each stream's packets come in geometric batches of mean
    /// `batch_mean`. The burstiness is what turns Flow Director's
    /// mid-burst rebinds into observable reordering — a rebind between
    /// two widely spaced packets reorders nothing.
    pub fn zipf_bursty(k: usize, aggregate_rate_pps: f64, alpha: f64, batch_mean: f64) -> Self {
        assert!(aggregate_rate_pps > 0.0, "aggregate rate must be positive");
        Population {
            streams: zipf_weights(k, alpha)
                .into_iter()
                .map(|w| StreamSpec {
                    arrivals: ArrivalGen::bursty(aggregate_rate_pps * w, batch_mean),
                    sizes: SizeDist::tiny(),
                })
                .collect(),
        }
    }

    /// A hot/cold mix: `hot` streams at `hot_rate`, `cold` streams at
    /// `cold_rate` (Poisson, tiny packets). Exercises the hybrid policy:
    /// wire the hot streams, MRU the rest.
    pub fn hot_cold(hot: usize, hot_rate: f64, cold: usize, cold_rate: f64) -> Self {
        let mut streams = Vec::with_capacity(hot + cold);
        for _ in 0..hot {
            streams.push(StreamSpec {
                arrivals: ArrivalGen::poisson(hot_rate),
                sizes: SizeDist::tiny(),
            });
        }
        for _ in 0..cold {
            streams.push(StreamSpec {
                arrivals: ArrivalGen::poisson(cold_rate),
                sizes: SizeDist::tiny(),
            });
        }
        Population { streams }
    }

    /// Number of streams.
    pub fn len(&self) -> usize {
        self.streams.len()
    }

    /// True when no streams are configured.
    pub fn is_empty(&self) -> bool {
        self.streams.is_empty()
    }

    /// Aggregate offered packet rate (packets/second), exact.
    pub fn total_rate_per_sec(&self) -> f64 {
        self.streams.iter().map(|s| s.arrivals.rate_per_sec()).sum()
    }

    /// Replace every stream's rate, keeping processes/sizes (for sweeps).
    pub fn with_rate(mut self, rate_per_sec: f64) -> Self {
        for s in &mut self.streams {
            s.arrivals = match &s.arrivals {
                ArrivalGen::Poisson { .. } => ArrivalGen::poisson(rate_per_sec),
                ArrivalGen::Replay { gaps, .. } => {
                    // Rescale every recorded gap so the trace's mean rate
                    // becomes `rate_per_sec`, preserving its shape.
                    let old_rate = gaps.len() as f64 * 1e6 / gaps.iter().sum::<f64>();
                    let k = old_rate / rate_per_sec;
                    ArrivalGen::replay(gaps.iter().map(|g| g * k).collect())
                }
                ArrivalGen::Batch { batch, .. } => ArrivalGen::bursty(rate_per_sec, batch.mean()),
                ArrivalGen::Train {
                    inter_car, cars, ..
                } => ArrivalGen::train(rate_per_sec, cars.mean(), inter_car.mean()),
            };
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homogeneous_population_rates() {
        let p = Population::homogeneous_poisson(16, 250.0);
        assert_eq!(p.len(), 16);
        assert!((p.total_rate_per_sec() - 4000.0).abs() < 1e-9);
    }

    #[test]
    fn hot_cold_split() {
        let p = Population::hot_cold(2, 2000.0, 6, 100.0);
        assert_eq!(p.len(), 8);
        assert!((p.total_rate_per_sec() - 4600.0).abs() < 1e-9);
    }

    #[test]
    fn with_rate_rescales_preserving_shape() {
        let p = Population::homogeneous_bursty(4, 100.0, 8.0).with_rate(400.0);
        assert!((p.total_rate_per_sec() - 1600.0).abs() < 1e-9);
        match &p.streams[0].arrivals {
            ArrivalGen::Batch { batch, .. } => assert!((batch.mean() - 8.0).abs() < 1e-12),
            other => panic!("expected batch arrivals, got {other:?}"),
        }
    }

    #[test]
    fn zipf_weights_are_normalized_and_monotone() {
        let w = zipf_weights(1000, 1.1);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(w.windows(2).all(|p| p[0] >= p[1]), "must decay with rank");
        // Analytic spot check: w[0]/w[1] = 2^alpha.
        assert!((w[0] / w[1] - 2f64.powf(1.1)).abs() < 1e-9);
        // alpha = 0 is uniform.
        let u = zipf_weights(8, 0.0);
        assert!(u.iter().all(|&x| (x - 0.125).abs() < 1e-12));
    }

    #[test]
    fn zipf_population_rate_is_exact() {
        let p = Population::zipf(5000, 4000.0, 1.0);
        assert_eq!(p.len(), 5000);
        assert!((p.total_rate_per_sec() - 4000.0).abs() < 1e-6);
        // The head stream carries the largest rate.
        let head = p.streams[0].arrivals.rate_per_sec();
        let tail = p.streams[4999].arrivals.rate_per_sec();
        assert!(head > 100.0 * tail);
    }

    #[test]
    fn zipf_bursty_keeps_rate_and_shape() {
        let p = Population::zipf_bursty(64, 1000.0, 1.0, 8.0);
        assert!((p.total_rate_per_sec() - 1000.0).abs() < 1e-9);
        match &p.streams[0].arrivals {
            ArrivalGen::Batch { batch, .. } => assert!((batch.mean() - 8.0).abs() < 1e-12),
            other => panic!("expected batch arrivals, got {other:?}"),
        }
    }

    #[test]
    fn empty_population() {
        let p = Population::default();
        assert!(p.is_empty());
        assert_eq!(p.total_rate_per_sec(), 0.0);
    }
}
