//! Property-based tests for the traffic models: gap validity, exact-rate
//! accounting, and rescaling invariants over randomized parameters.

use proptest::prelude::*;

use afs_desim::rng::RngFactory;
use afs_workload::{ArrivalGen, Population};

fn gen_strategy() -> impl Strategy<Value = ArrivalGen> {
    prop_oneof![
        (1.0f64..20_000.0).prop_map(ArrivalGen::poisson),
        (1.0f64..20_000.0, 1.0f64..32.0).prop_map(|(r, b)| ArrivalGen::bursty(r, b)),
        (1.0f64..2_000.0, 1.0f64..20.0, 0.0f64..200.0).prop_filter_map(
            "train rate reachable",
            |(r, cars, gap)| {
                // inter_train must stay positive.
                if cars * 1e6 / r > (cars - 1.0) * gap {
                    Some(ArrivalGen::train(r, cars, gap))
                } else {
                    None
                }
            }
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn gaps_are_finite_and_nonnegative(mut gen in gen_strategy(), seed in any::<u64>()) {
        let mut rng = RngFactory::new(seed).stream("wl");
        for _ in 0..500 {
            let g = gen.next_gap(&mut rng);
            prop_assert!(g.as_micros_f64().is_finite());
        }
    }

    #[test]
    fn measured_rate_tracks_analytic(mut gen in gen_strategy(), seed in any::<u64>()) {
        let analytic = gen.rate_per_sec();
        prop_assert!(analytic.is_finite() && analytic > 0.0);
        let mut rng = RngFactory::new(seed).stream("wl");
        let n = 60_000u64;
        let mut total_us = 0.0;
        for _ in 0..n {
            total_us += gen.next_gap(&mut rng).as_micros_f64();
        }
        let measured = n as f64 / (total_us / 1e6);
        // Worst case: 32-packet batches -> ~1.9k exponential gaps in the
        // sample; 6 sigma of the total-time estimator is ~14%.
        prop_assert!(
            (measured - analytic).abs() < 0.15 * analytic,
            "measured {measured} vs analytic {analytic}"
        );
    }

    #[test]
    fn with_rate_rescales_exactly(
        k in 1usize..32,
        r0 in 10.0f64..5_000.0,
        r1 in 10.0f64..5_000.0,
        batch in 1.0f64..16.0,
    ) {
        let p = Population::homogeneous_bursty(k, r0, batch).with_rate(r1);
        let expect = r1 * k as f64;
        prop_assert!((p.total_rate_per_sec() - expect).abs() < 1e-6 * expect);
    }

    #[test]
    fn generators_deterministic_per_seed(gen in gen_strategy(), seed in any::<u64>()) {
        let mut a = gen.clone();
        let mut b = gen;
        let mut ra = RngFactory::new(seed).stream("d");
        let mut rb = RngFactory::new(seed).stream("d");
        for _ in 0..200 {
            prop_assert_eq!(a.next_gap(&mut ra), b.next_gap(&mut rb));
        }
    }
}
