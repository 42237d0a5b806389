//! Property tests for the native backend's processor-fault machinery:
//! arbitrary crash/revive/stall/slowdown schedules on real threads must
//! never lose a packet, and the orphan-recovery protocol must balance
//! its books on every policy rung.
//!
//! The deterministic unit tests in `runtime.rs` pin specific fault
//! shapes; this suite drives the same machinery with randomized plans
//! (victim, instant, revive, degradation mix) and checks only the
//! invariants that must hold for *every* schedule:
//!
//! * lossless delivery — every offered packet lands in exactly one
//!   typed-outcome bucket, and none is dropped for a missing session
//!   (the home-stack routing keeps diverted streams on their sessions);
//! * `orphaned == requeued` — the watchdog re-dispatches everything a
//!   dead worker stranded;
//! * the observability ledger balances — enqueued = completed =
//!   offered, nothing in flight at join, fault counters mirror the
//!   report.

use proptest::prelude::*;

use afs_core::procfault::{ProcFault, ProcFaultKind, ProcFaultPlan};
use afs_native::{poisson_workload, run_native_recorded, NativeConfig, Pinning, PolicySpec};

const RATE_PPS: f64 = 400.0;

/// 50/50 `None`/`Some` over `s` (the vendored proptest has no
/// `prop::option` module).
fn opt<S>(s: S) -> impl Strategy<Value = Option<S::Value>>
where
    S: Strategy + 'static,
    S::Value: Clone + 'static,
{
    prop_oneof![Just(None), s.prop_map(Some)]
}

proptest! {
    // Each case spawns real worker threads; keep the count modest (the
    // vendored proptest honours PROPTEST_CASES as a CI cap).
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn arbitrary_fault_schedules_conserve_packets(
        workers in 2usize..=4,
        streams in 2u32..=5,
        pkts in 30u32..=60,
        policy_ix in 0usize..PolicySpec::ALL.len(),
        seed in any::<u64>(),
        // Crash: victim selector, instant and optional revive delta as
        // fractions of the arrival horizon.
        crash in opt((0.0f64..1.0, 0.05f64..0.85, opt(0.05f64..0.4))),
        // Stall: worker selector, start fraction, duration fraction.
        stall in opt((0.0f64..1.0, 0.0f64..0.7, 0.02f64..0.25)),
        // Slowdown: worker selector, onset fraction, factor.
        slow in opt((0.0f64..1.0, 0.0f64..0.8, 1.0f64..3.0)),
    ) {
        let horizon_us = pkts as f64 / RATE_PPS * 1e6;
        let pick = |r: f64, lo: usize, n: usize| lo + ((r * (n - lo) as f64) as usize).min(n - lo - 1);
        let mut faults = Vec::new();
        if let Some((vr, at, revive)) = crash {
            // Never kill worker 0 permanently: the validator's survivor
            // guarantee, same rule as seeded plans.
            faults.push(ProcFault {
                proc: pick(vr, 1, workers),
                at_us: at * horizon_us,
                kind: ProcFaultKind::Crash {
                    revive_at_us: revive.map(|d| (at + d) * horizon_us),
                },
            });
        }
        if let Some((vr, at, dur)) = stall {
            faults.push(ProcFault {
                proc: pick(vr, 0, workers),
                at_us: at * horizon_us,
                kind: ProcFaultKind::Stall {
                    duration_us: dur * horizon_us,
                },
            });
        }
        if let Some((vr, at, factor)) = slow {
            faults.push(ProcFault {
                proc: pick(vr, 0, workers),
                at_us: at * horizon_us,
                kind: ProcFaultKind::Slowdown { factor },
            });
        }
        let plan = ProcFaultPlan { faults };
        prop_assert!(plan.validate(workers).is_ok(), "constructed plan invalid");

        let mut cfg = NativeConfig::new(workers, PolicySpec::ALL[policy_ix]);
        cfg.pinning = Pinning::Off;
        cfg.seed = seed;
        cfg.faults = plan;
        let workload = poisson_workload(streams, pkts, RATE_PPS, 64, seed);
        let offered = workload.len() as u64;
        // The crash counts where the dispatcher masks it — at the first
        // arrival inside its down window, if that arrival is past the
        // warm-up cut — or, past the last arrival, if it orphans work.
        let arrivals: Vec<f64> = workload.iter().map(|p| p.arrival_us).collect();
        let cut = cfg.warmup_frac * arrivals.last().copied().unwrap_or(0.0);
        let (report, rec) = run_native_recorded(&cfg, workload);
        let want_crashed = crash.map_or(0, |(_, at, revive)| {
            let (down, up) = (at * horizon_us, revive.map(|d| (at + d) * horizon_us));
            match arrivals.iter().find(|&&t| t >= down) {
                Some(&t) if up.is_none_or(|up| t < up) => u64::from(t >= cut),
                Some(_) => 0,
                None => u64::from(report.orphaned > 0),
            }
        });

        // Lossless across any schedule: every packet delivered (valid
        // frames, sessions preserved by home-stack routing), none lost.
        prop_assert_eq!(report.offered, offered);
        prop_assert_eq!(report.outcomes.total(), offered, "lost packets: {report:?}");
        prop_assert_eq!(report.outcomes.delivered, offered, "dropped packets: {report:?}");

        // Orphan recovery balances, and only crashes create orphans.
        prop_assert_eq!(report.orphaned, report.requeued, "{report:?}");
        prop_assert_eq!(report.workers_crashed, want_crashed, "{report:?}");
        if report.orphaned > 0 {
            prop_assert!(
                matches!(crash, Some((_, _, None))),
                "orphans without a permanent crash"
            );
        }

        // The unified trace ledger agrees with the report.
        let c = &rec.counters;
        prop_assert_eq!(c.enqueued, offered);
        prop_assert_eq!(c.completed, offered);
        prop_assert_eq!(c.in_flight(), 0);
        prop_assert_eq!(c.evicted, 0);
        prop_assert_eq!(c.orphaned, c.requeued);
        prop_assert_eq!(c.orphaned, report.orphaned);
        if report.orphaned > 0 {
            prop_assert!(c.worker_downs > 0, "crash without a WorkerDown event");
        }
    }
}
