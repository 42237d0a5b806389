//! Stream populations: the set of concurrent connections offered to the
//! host, with their arrival processes and packet sizes.
//!
//! The paper's figures sweep the per-stream arrival rate for a fixed
//! population of homogeneous streams (K = N and K > N cases); the
//! capacity results ask how many concurrent streams the host can carry.
//! [`Population`] builds these configurations and computes exact offered
//! loads. A Zipf flow population is not a list of streams: it is one
//! aggregate arrival source, [`ZipfArrivals`], which both backends draw
//! from.

use afs_desim::dist::Dist;
use afs_desim::rng::RngFactory;
use rand::rngs::StdRng;
use rand::Rng;

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
/// `alpha = 0` degenerates to a uniform population. [`ZipfArrivals`]
/// draws its flows by these weights.
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

/// The parameters of a Zipf flow population's arrival source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZipfSpec {
    /// Flows, ranked by popularity (flow `f` has rank `f + 1`).
    pub flows: u32,
    /// Packet rate of the whole population, packets/s.
    pub aggregate_rate_pps: f64,
    /// Zipf exponent of the per-flow weights ([`zipf_weights`]).
    pub alpha: f64,
    /// Mean geometric burst size (1 = Poisson).
    pub batch_mean: f64,
}

/// The one Zipf arrival source: a compound-Poisson process at the
/// aggregate rate whose every burst belongs to one flow drawn by
/// [`zipf_weights`].
///
/// Superposed independent compound-Poisson flows with one common burst
/// law are exactly this process, so one source stands for 10⁵ per-flow
/// generators and holds one pending arrival. Each burst draws one
/// exponential gap, one categorical flow (binary search over the
/// cumulative weights) and one geometric size, each from its own RNG
/// stream, in that order.
#[derive(Debug, Clone)]
pub struct ZipfArrivals {
    cum: Vec<f64>,
    gaps_rng: StdRng,
    flow_rng: StdRng,
    batch_rng: StdRng,
    gap: Dist,
    /// Chance a burst grows by one more packet; 0 (and no draw) for
    /// Poisson flows.
    p_more: f64,
    t: f64,
    pending_flow: u32,
    pending: u64,
}

impl ZipfArrivals {
    /// The source of `spec`'s population, seeded by `seed`.
    pub fn new(spec: ZipfSpec, seed: u64) -> Self {
        assert!(spec.flows >= 1 && spec.aggregate_rate_pps > 0.0 && spec.batch_mean >= 1.0);
        let mut acc = 0.0f64;
        let cum = zipf_weights(spec.flows as usize, spec.alpha)
            .into_iter()
            .map(|w| {
                acc += w;
                acc
            })
            .collect();
        // The stream names are the native backend's, which drew from
        // them first; renaming them would move every native value.
        let factory = RngFactory::new(seed);
        ZipfArrivals {
            cum,
            gaps_rng: factory.stream("native-zipf-gaps"),
            flow_rng: factory.stream("native-zipf-flows"),
            batch_rng: factory.stream("native-zipf-batches"),
            gap: Dist::exponential(spec.batch_mean * 1e6 / spec.aggregate_rate_pps),
            p_more: 1.0 - 1.0 / spec.batch_mean,
            t: 0.0,
            pending_flow: 0,
            pending: 0,
        }
    }

    /// The next packet: its flow and its arrival time, µs from the
    /// start. A burst's packets share one time.
    pub fn next_arrival(&mut self) -> (u32, f64) {
        if self.pending == 0 {
            self.t += self.gap.sample(&mut self.gaps_rng);
            let u: f64 = self.flow_rng.gen_range(0.0..1.0);
            self.pending_flow = self
                .cum
                .partition_point(|&c| c <= u)
                .min(self.cum.len() - 1) as u32;
            // Geometric burst on {1, 2, …} with mean `batch_mean`: the
            // whole burst arrives back-to-back, all of one flow — the
            // pattern that turns a mid-burst rebind into reordering.
            let mut burst = 1u64;
            while self.p_more > 0.0 && self.batch_rng.gen_range(0.0..1.0) < self.p_more {
                burst += 1;
            }
            self.pending = burst;
        }
        self.pending -= 1;
        (self.pending_flow, self.t)
    }
}

/// One stream's offered traffic.
#[derive(Debug, Clone)]
pub struct StreamSpec {
    /// Arrival process.
    pub arrivals: ArrivalGen,
    /// Payload-size distribution.
    pub sizes: SizeDist,
}

/// A complete offered workload: one spec per stream, or one Zipf
/// source for a whole flow population.
#[derive(Debug, Clone, Default)]
pub struct Population {
    /// Per-stream specifications, indexed by stream id. A Zipf
    /// population holds one: its aggregate arrival law (the law its
    /// source draws, which sets the offered rate) and the size law every
    /// flow shares.
    pub streams: Vec<StreamSpec>,
    /// The source of a Zipf flow population (`None`: one arrival
    /// process per entry of [`Population::streams`]).
    pub zipf: Option<ZipfSpec>,
}

impl Population {
    /// `k` identical Poisson streams of `rate_per_sec` each, tiny packets.
    pub fn homogeneous_poisson(k: usize, rate_per_sec: f64) -> Self {
        Self::from_arrivals((0..k).map(|_| ArrivalGen::poisson(rate_per_sec)))
    }

    /// `k` identical bursty streams (geometric batches of mean
    /// `batch_mean`) of `rate_per_sec` each.
    pub fn homogeneous_bursty(k: usize, rate_per_sec: f64, batch_mean: f64) -> Self {
        Self::from_arrivals((0..k).map(|_| ArrivalGen::bursty(rate_per_sec, batch_mean)))
    }

    /// One tiny-packet stream per arrival process.
    pub fn from_arrivals(arrivals: impl Iterator<Item = ArrivalGen>) -> Self {
        Population {
            streams: arrivals
                .map(|arrivals| StreamSpec {
                    arrivals,
                    sizes: SizeDist::tiny(),
                })
                .collect(),
            zipf: None,
        }
    }

    /// `k` Poisson flows with Zipf(`alpha`)-distributed popularity:
    /// flow `s` (rank `s + 1`) offers `aggregate_rate_pps ×`
    /// [`zipf_weights`]`[s]` packets/second, so the population's total
    /// rate is exactly `aggregate_rate_pps` at any `k`. Tiny packets.
    pub fn zipf(k: usize, aggregate_rate_pps: f64, alpha: f64) -> Self {
        Self::zipf_bursty(k, aggregate_rate_pps, alpha, 1.0)
    }

    /// [`Population::zipf`] with bursty (compound-Poisson) arrivals:
    /// each flow's packets come in geometric batches of mean
    /// `batch_mean`. The burstiness is what turns Flow Director's
    /// mid-burst rebinds into observable reordering — a rebind between
    /// two widely spaced packets reorders nothing.
    pub fn zipf_bursty(k: usize, aggregate_rate_pps: f64, alpha: f64, batch_mean: f64) -> Self {
        assert!(aggregate_rate_pps > 0.0, "aggregate rate must be positive");
        let aggregate = if batch_mean > 1.0 {
            ArrivalGen::bursty(aggregate_rate_pps, batch_mean)
        } else {
            ArrivalGen::poisson(aggregate_rate_pps)
        };
        Population {
            zipf: Some(ZipfSpec {
                flows: u32::try_from(k).expect("flow ids are u32"),
                aggregate_rate_pps,
                alpha,
                batch_mean,
            }),
            ..Self::from_arrivals(std::iter::once(aggregate))
        }
    }

    /// A hot/cold mix: `hot` streams at `hot_rate`, `cold` streams at
    /// `cold_rate` (Poisson, tiny packets). Exercises the hybrid policy:
    /// wire the hot streams, MRU the rest.
    pub fn hot_cold(hot: usize, hot_rate: f64, cold: usize, cold_rate: f64) -> Self {
        let rates = std::iter::repeat_n(hot_rate, hot).chain(std::iter::repeat_n(cold_rate, cold));
        Self::from_arrivals(rates.map(ArrivalGen::poisson))
    }

    /// Number of streams (flows, for a Zipf population).
    pub fn len(&self) -> usize {
        self.zipf.map_or(self.streams.len(), |z| z.flows as usize)
    }

    /// True when no streams are configured.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Aggregate offered packet rate (packets/second), exact.
    pub fn total_rate_per_sec(&self) -> f64 {
        self.streams.iter().map(|s| s.arrivals.rate_per_sec()).sum()
    }

    /// Replace every stream's rate, keeping processes/sizes (for sweeps).
    /// A Zipf population keeps its shape: its mean flow rate becomes
    /// `rate_per_sec`.
    pub fn with_rate(mut self, rate_per_sec: f64) -> Self {
        if let Some(z) = &mut self.zipf {
            z.aggregate_rate_pps = rate_per_sec * z.flows as f64;
        }
        let rate_per_sec = self.zipf.map_or(rate_per_sec, |z| z.aggregate_rate_pps);
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

    /// `n` packets from `p`'s source: per-flow counts, the number of
    /// distinct arrival times (bursts) and the last arrival time.
    fn draw(p: &Population, n: usize) -> (Vec<u32>, usize, f64) {
        let mut src = ZipfArrivals::new(p.zipf.expect("a Zipf population"), 7);
        let (mut counts, mut bursts, mut last) = (vec![0u32; p.len()], 0, -1.0);
        for _ in 0..n {
            let (flow, t) = src.next_arrival();
            counts[flow as usize] += 1;
            bursts += usize::from(t != last);
            last = t;
        }
        (counts, bursts, last)
    }

    #[test]
    fn zipf_population_rate_is_exact() {
        let p = Population::zipf(5000, 4000.0, 1.0);
        assert_eq!(p.len(), 5000);
        assert!((p.total_rate_per_sec() - 4000.0).abs() < 1e-6);
        let (counts, bursts, end_us) = draw(&p, 40_000);
        assert_eq!(bursts, 40_000, "Poisson flows arrive one at a time");
        let rate = 40_000.0 * 1e6 / end_us;
        assert!((rate / 4000.0 - 1.0).abs() < 0.03, "drawn rate {rate}");
        // The head flow carries the largest share by far.
        let tail = counts[2500..].iter().max().copied().unwrap_or(0);
        assert!(
            counts[0] > 100 * tail.max(1),
            "head {} tail {tail}",
            counts[0]
        );
    }

    #[test]
    fn zipf_bursty_keeps_rate_and_shape() {
        let p = Population::zipf_bursty(64, 1000.0, 1.0, 8.0);
        assert!((p.total_rate_per_sec() - 1000.0).abs() < 1e-9);
        assert_eq!(p.zipf.map(|z| z.batch_mean), Some(8.0));
        let (_, bursts, end_us) = draw(&p, 40_000);
        let mean = 40_000.0 / bursts as f64;
        assert!((mean / 8.0 - 1.0).abs() < 0.05, "mean burst {mean}");
        let rate = 40_000.0 * 1e6 / end_us;
        assert!((rate / 1000.0 - 1.0).abs() < 0.05, "drawn rate {rate}");
        // A sweep keeps the shape and sets the mean flow rate.
        let q = p.with_rate(50.0);
        assert!((q.total_rate_per_sec() - 3200.0).abs() < 1e-9);
        assert_eq!(q.zipf.map(|z| z.aggregate_rate_pps), Some(3200.0));
    }

    #[test]
    fn empty_population() {
        let p = Population::default();
        assert!(p.is_empty());
        assert_eq!(p.total_rate_per_sec(), 0.0);
    }
}
