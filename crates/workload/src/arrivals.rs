//! Per-stream packet arrival processes.
//!
//! Three generator families cover the paper's traffic assumptions and its
//! extension experiments:
//!
//! * [`ArrivalGen::Poisson`] — the baseline used for the delay-vs-rate
//!   figures.
//! * [`ArrivalGen::Batch`] — compound-Poisson batch arrivals: batches of
//!   geometric size arrive at exponential gaps. The batch-size mean is
//!   the *intra-stream burstiness* knob behind the robustness results
//!   (IPS serializes a burst on one stack; Locking fans it out).
//! * [`ArrivalGen::Train`] — the Jain–Routhier Packet-Train model cited
//!   by the paper's future-work list (extension E13): trains of packets
//!   separated by inter-car gaps, trains separated by inter-train gaps.
//!
//! All generators expose one contract: [`ArrivalGen::next_gap`] returns
//! the time from the previous arrival to the next one (zero gaps encode
//! simultaneous batch members). Mean rates are exact, not sampled.

use rand::rngs::StdRng;

use afs_desim::dist::{CountDist, Dist};
use afs_desim::time::SimDuration;

/// A per-stream arrival-time generator.
#[derive(Debug, Clone)]
pub enum ArrivalGen {
    /// Poisson arrivals: i.i.d. exponential gaps.
    Poisson {
        /// Mean gap between packets (µs).
        mean_gap_us: f64,
    },
    /// Batch (compound Poisson) arrivals.
    Batch {
        /// Mean gap between batches (µs).
        mean_batch_gap_us: f64,
        /// Batch-size distribution (≥ 1).
        batch: CountDist,
        /// Packets remaining in the current batch (state).
        remaining: u64,
    },
    /// Replay a recorded interarrival-gap trace cyclically — for
    /// reproducing measured traffic (the reproducibility counterpart of
    /// the paper's trace-driven methodology).
    Replay {
        /// Recorded gaps in µs (finite, non-negative, non-empty).
        gaps: std::sync::Arc<Vec<f64>>,
        /// Cursor into the trace (state).
        cursor: usize,
    },
    /// Jain–Routhier packet trains.
    Train {
        /// Gap between the last car of a train and the first of the next.
        inter_train: Dist,
        /// Gap between cars within a train.
        inter_car: Dist,
        /// Cars per train (≥ 1).
        cars: CountDist,
        /// Cars remaining in the current train (state).
        remaining: u64,
    },
}

impl ArrivalGen {
    /// Poisson arrivals at `rate` packets/second.
    pub fn poisson(rate_per_sec: f64) -> Self {
        assert!(rate_per_sec > 0.0, "rate must be positive");
        ArrivalGen::Poisson {
            mean_gap_us: 1e6 / rate_per_sec,
        }
    }

    /// Batch arrivals with geometric batches of mean `batch_mean`,
    /// tuned so the long-run packet rate equals `rate_per_sec`.
    pub fn bursty(rate_per_sec: f64, batch_mean: f64) -> Self {
        assert!(rate_per_sec > 0.0 && batch_mean >= 1.0);
        // Packet rate = batch_mean / batch_gap ⇒ gap = batch_mean / rate.
        ArrivalGen::Batch {
            mean_batch_gap_us: batch_mean * 1e6 / rate_per_sec,
            batch: CountDist::geometric_with_mean(batch_mean),
            remaining: 0,
        }
    }

    /// Packet trains with `cars_mean` cars at `inter_car_us` spacing,
    /// tuned so the long-run packet rate equals `rate_per_sec`.
    pub fn train(rate_per_sec: f64, cars_mean: f64, inter_car_us: f64) -> Self {
        assert!(rate_per_sec > 0.0 && cars_mean >= 1.0 && inter_car_us >= 0.0);
        // Cycle = inter_train + (cars−1)·inter_car, packets = cars.
        // rate = cars / cycle ⇒ inter_train = cars/rate − (cars−1)·inter_car.
        let cycle_us = cars_mean * 1e6 / rate_per_sec;
        let inter_train_us = cycle_us - (cars_mean - 1.0) * inter_car_us;
        assert!(
            inter_train_us > 0.0,
            "rate {rate_per_sec}/s unreachable with these train parameters"
        );
        ArrivalGen::Train {
            inter_train: Dist::exponential(inter_train_us),
            inter_car: if inter_car_us == 0.0 {
                Dist::constant(0.0)
            } else {
                Dist::exponential(inter_car_us)
            },
            cars: CountDist::geometric_with_mean(cars_mean),
            remaining: 0,
        }
    }

    /// Replay a recorded gap trace (µs), cycling when exhausted.
    pub fn replay(gaps: Vec<f64>) -> Self {
        assert!(!gaps.is_empty(), "replay trace must be non-empty");
        assert!(
            gaps.iter().all(|g| g.is_finite() && *g >= 0.0),
            "replay gaps must be finite and non-negative"
        );
        assert!(
            gaps.iter().sum::<f64>() > 0.0,
            "replay trace must span positive time"
        );
        ArrivalGen::Replay {
            gaps: std::sync::Arc::new(gaps),
            cursor: 0,
        }
    }

    /// Long-run mean packet rate (packets/second), exact.
    pub fn rate_per_sec(&self) -> f64 {
        match self {
            ArrivalGen::Poisson { mean_gap_us } => 1e6 / mean_gap_us,
            ArrivalGen::Replay { gaps, .. } => gaps.len() as f64 * 1e6 / gaps.iter().sum::<f64>(),
            ArrivalGen::Batch {
                mean_batch_gap_us,
                batch,
                ..
            } => batch.mean() * 1e6 / mean_batch_gap_us,
            ArrivalGen::Train {
                inter_train,
                inter_car,
                cars,
                ..
            } => {
                let cycle = inter_train.mean() + (cars.mean() - 1.0) * inter_car.mean();
                cars.mean() * 1e6 / cycle
            }
        }
    }

    /// Gap from the previous arrival to the next (zero inside a batch).
    pub fn next_gap(&mut self, rng: &mut StdRng) -> SimDuration {
        match self {
            ArrivalGen::Poisson { mean_gap_us } => {
                Dist::exponential(*mean_gap_us).sample_duration_us(rng)
            }
            ArrivalGen::Replay { gaps, cursor } => {
                let g = gaps[*cursor];
                *cursor = (*cursor + 1) % gaps.len();
                SimDuration::from_micros_f64(g)
            }
            ArrivalGen::Batch {
                mean_batch_gap_us,
                batch,
                remaining,
            } => {
                if *remaining > 0 {
                    *remaining -= 1;
                    SimDuration::ZERO
                } else {
                    *remaining = batch.sample(rng) - 1;
                    Dist::exponential(*mean_batch_gap_us).sample_duration_us(rng)
                }
            }
            ArrivalGen::Train {
                inter_train,
                inter_car,
                cars,
                remaining,
            } => {
                if *remaining > 0 {
                    *remaining -= 1;
                    inter_car.sample_duration_us(rng)
                } else {
                    *remaining = cars.sample(rng) - 1;
                    inter_train.sample_duration_us(rng)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afs_desim::rng::RngFactory;

    fn measured_rate(gen: &mut ArrivalGen, n: usize, seed: u64) -> f64 {
        let mut rng = RngFactory::new(seed).stream("arrivals");
        let mut total_us = 0.0;
        for _ in 0..n {
            total_us += gen.next_gap(&mut rng).as_micros_f64();
        }
        n as f64 / (total_us / 1e6)
    }

    #[test]
    fn poisson_rate_matches() {
        let mut g = ArrivalGen::poisson(500.0);
        assert!((g.rate_per_sec() - 500.0).abs() < 1e-9);
        let r = measured_rate(&mut g, 100_000, 1);
        assert!((r - 500.0).abs() / 500.0 < 0.02, "measured {r}/s");
    }

    #[test]
    fn bursty_rate_matches_and_is_bursty() {
        let mut g = ArrivalGen::bursty(500.0, 8.0);
        assert!((g.rate_per_sec() - 500.0).abs() < 1e-9);
        let r = measured_rate(&mut g, 200_000, 2);
        assert!((r - 500.0).abs() / 500.0 < 0.03, "measured {r}/s");
        // A healthy fraction of gaps are zero (inside batches).
        let mut rng = RngFactory::new(3).stream("z");
        let mut zeros = 0;
        let mut g = ArrivalGen::bursty(500.0, 8.0);
        for _ in 0..10_000 {
            if g.next_gap(&mut rng) == SimDuration::ZERO {
                zeros += 1;
            }
        }
        // Mean batch 8 → 7/8 of arrivals are batch-followers.
        assert!((zeros as f64 / 10_000.0 - 0.875).abs() < 0.03);
    }

    #[test]
    fn batch_mean_one_degenerates_to_poisson_rate() {
        let mut g = ArrivalGen::bursty(300.0, 1.0);
        let r = measured_rate(&mut g, 100_000, 4);
        assert!((r - 300.0).abs() / 300.0 < 0.03, "measured {r}/s");
    }

    #[test]
    fn train_rate_matches() {
        let mut g = ArrivalGen::train(800.0, 10.0, 100.0);
        assert!((g.rate_per_sec() - 800.0).abs() < 1e-6);
        let r = measured_rate(&mut g, 200_000, 5);
        assert!((r - 800.0).abs() / 800.0 < 0.03, "measured {r}/s");
    }

    #[test]
    fn train_cars_cluster() {
        // With tight cars and long inter-train gaps, gap distribution is
        // strongly bimodal: most gaps near inter_car, a few large.
        let mut g = ArrivalGen::train(100.0, 10.0, 50.0);
        let mut rng = RngFactory::new(6).stream("t");
        let mut small = 0;
        let n = 10_000;
        for _ in 0..n {
            if g.next_gap(&mut rng).as_micros_f64() < 500.0 {
                small += 1;
            }
        }
        assert!(
            small as f64 / n as f64 > 0.8,
            "expected ≥80% intra-train gaps, got {}",
            small as f64 / n as f64
        );
    }

    #[test]
    #[should_panic(expected = "unreachable")]
    fn impossible_train_rate_rejected() {
        // 10 cars at 200 µs spacing cannot average 10 000 pkts/s.
        ArrivalGen::train(10_000.0, 10.0, 200.0);
    }

    #[test]
    fn replay_cycles_exactly() {
        let mut g = ArrivalGen::replay(vec![10.0, 20.0, 30.0]);
        assert!((g.rate_per_sec() - 3e6 / 60.0).abs() < 1e-9);
        let mut rng = RngFactory::new(1).stream("r");
        let gaps: Vec<f64> = (0..7)
            .map(|_| g.next_gap(&mut rng).as_micros_f64())
            .collect();
        assert_eq!(gaps, vec![10.0, 20.0, 30.0, 10.0, 20.0, 30.0, 10.0]);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn replay_rejects_empty() {
        ArrivalGen::replay(vec![]);
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = ArrivalGen::bursty(100.0, 4.0);
        let mut b = ArrivalGen::bursty(100.0, 4.0);
        let mut ra = RngFactory::new(9).stream("x");
        let mut rb = RngFactory::new(9).stream("x");
        for _ in 0..100 {
            assert_eq!(a.next_gap(&mut ra), b.next_gap(&mut rb));
        }
    }
}
