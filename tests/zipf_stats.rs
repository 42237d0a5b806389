//! Statistical validation of the Zipf stream-population generators on
//! both backends.
//!
//! The million-stream experiments only mean something if the offered
//! flow-popularity law is actually Zipfian: the bounded NIC tables and
//! stream caches are sized against the analytic head/tail mass split,
//! so a sampler that distorts the law would silently change what
//! "table far below the population" tests. The reference distribution
//! is computed *independently* here (`w_i ∝ (i+1)^{-α}`, normalized) —
//! it must not be read back from the code under test.
//!
//! * The native aggregate sampler (`zipf_workload`: one categorical
//!   draw per batch over the cumulative weights) reproduces the head
//!   flow's mass and the tail half's mass across several seeds.
//! * The simulator reproduces the same masses in its event trace. It
//!   runs the same aggregate source (`afs_workload::ZipfArrivals`), one
//!   pending arrival for the whole population, which stands for the
//!   superposition of independent per-flow Poisson processes at their
//!   Zipf rates (superposition theorem). `tests/zipf_source.rs` checks
//!   that the two backends offer the same packets; this file checks
//!   that what they offer is the law.
//! * Both samplers are deterministic functions of the seed.

use affinity_sched::core::config::{LockPolicy, Paradigm, SystemConfig};
use affinity_sched::core::sim::run_observed;
use affinity_sched::native::zipf_workload;
use affinity_sched::obs::{MemRecorder, ObsEvent};
use affinity_sched::workload::Population;

/// Independent analytic Zipf pmf: `w_i ∝ (i+1)^{-α}`, flows ranked by
/// popularity.
fn analytic_zipf(k: usize, alpha: f64) -> Vec<f64> {
    let raw: Vec<f64> = (1..=k).map(|i| (i as f64).powf(-alpha)).collect();
    let total: f64 = raw.iter().sum();
    raw.into_iter().map(|w| w / total).collect()
}

/// Empirical per-flow frequencies → (head mass, tail-half mass).
fn masses(counts: &[u64], total: u64) -> (f64, f64) {
    let head = counts[0] as f64 / total as f64;
    let tail: u64 = counts[counts.len() / 2..].iter().sum();
    (head, tail as f64 / total as f64)
}

const STREAMS: usize = 1_000;
const ALPHA: f64 = 1.1;
/// Relative tolerance on the head flow's mass (≈5 400 samples at the
/// head flow per run → sampling noise ~1.4 %; the band is ~7 σ).
const HEAD_TOL: f64 = 0.10;
/// Absolute tolerance on the tail half's mass (a small number, ≈0.07,
/// summed over 500 flows — absolute is the right scale).
const TAIL_TOL: f64 = 0.02;

#[test]
fn native_zipf_sampler_matches_the_analytic_law_across_seeds() {
    let w = analytic_zipf(STREAMS, ALPHA);
    let head_ref = w[0];
    let tail_ref: f64 = w[STREAMS / 2..].iter().sum();
    for seed in [11u64, 2_222, 333_333] {
        let packets = zipf_workload(
            STREAMS as u32,
            30_000,
            15_000.0,
            ALPHA,
            1.0, // pure Poisson: every arrival an independent draw
            None,
            64,
            seed,
        );
        let mut counts = vec![0u64; STREAMS];
        for p in &packets {
            counts[p.stream.0 as usize] += 1;
        }
        let (head, tail) = masses(&counts, packets.len() as u64);
        assert!(
            (head - head_ref).abs() / head_ref <= HEAD_TOL,
            "seed {seed}: head mass {head:.4} vs analytic {head_ref:.4}"
        );
        assert!(
            (tail - tail_ref).abs() <= TAIL_TOL,
            "seed {seed}: tail-half mass {tail:.4} vs analytic {tail_ref:.4}"
        );
        // Popularity must actually decay: the head flow dominates any
        // single tail flow by an order of magnitude.
        let max_tail = *counts[STREAMS / 2..].iter().max().unwrap();
        assert!(counts[0] > 10 * max_tail.max(1));
    }
}

#[test]
fn sim_superposition_realizes_the_same_law() {
    let w = analytic_zipf(STREAMS, ALPHA);
    let head_ref = w[0];
    let tail_ref: f64 = w[STREAMS / 2..].iter().sum();
    let mut cfg = SystemConfig::new(
        Paradigm::Locking {
            policy: LockPolicy::Baseline,
        },
        Population::zipf(STREAMS, 15_000.0, ALPHA),
    );
    cfg.warmup = affinity_sched::desim::SimDuration::from_millis(0);
    cfg.horizon = affinity_sched::desim::SimDuration::from_secs_f64(2.0);
    cfg.seed = 77;
    let mut rec = MemRecorder::new();
    let (_, _) = run_observed(&cfg, &mut rec);
    let mut counts = vec![0u64; STREAMS];
    let mut total = 0u64;
    for ev in &rec.events {
        if let ObsEvent::Enqueue { stream, .. } = ev {
            counts[*stream as usize] += 1;
            total += 1;
        }
    }
    assert!(total > 20_000, "horizon must offer a real sample: {total}");
    let (head, tail) = masses(&counts, total);
    assert!(
        (head - head_ref).abs() / head_ref <= HEAD_TOL,
        "sim head mass {head:.4} vs analytic {head_ref:.4}"
    );
    assert!(
        (tail - tail_ref).abs() <= TAIL_TOL,
        "sim tail-half mass {tail:.4} vs analytic {tail_ref:.4}"
    );
}

#[test]
fn both_zipf_generators_are_deterministic_in_the_seed() {
    // Native: the full packet sequence replays bit-for-bit, and a
    // different seed actually changes it.
    let a = zipf_workload(256, 4_000, 12_000.0, ALPHA, 4.0, Some(100), 64, 9);
    let b = zipf_workload(256, 4_000, 12_000.0, ALPHA, 4.0, Some(100), 64, 9);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.stream, y.stream);
        assert_eq!(x.arrival_us.to_bits(), y.arrival_us.to_bits());
    }
    let c = zipf_workload(256, 4_000, 12_000.0, ALPHA, 4.0, Some(100), 64, 10);
    assert!(
        a.iter()
            .zip(&c)
            .any(|(x, y)| x.stream != y.stream || x.arrival_us.to_bits() != y.arrival_us.to_bits()),
        "different seeds must produce different workloads"
    );

    // Simulator: a bursty-Zipf run is a pure function of the seed.
    let mut cfg = SystemConfig::new(
        Paradigm::Locking {
            policy: LockPolicy::Baseline,
        },
        Population::zipf_bursty(512, 10_000.0, ALPHA, 4.0),
    );
    cfg.warmup = affinity_sched::desim::SimDuration::from_millis(50);
    cfg.horizon = affinity_sched::desim::SimDuration::from_millis(400);
    cfg.seed = 0x5A;
    let r1 = affinity_sched::core::sim::run(&cfg);
    let r2 = affinity_sched::core::sim::run(&cfg);
    assert_eq!(r1.arrivals, r2.arrivals);
    assert_eq!(r1.mean_delay_us.to_bits(), r2.mean_delay_us.to_bits());
}
