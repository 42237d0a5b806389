//! Differential trace tests: the unified observability layer must tell
//! the *same affinity story* on the discrete-event simulator and the
//! native pinned-thread backend.
//!
//! Both backends emit the shared `afs_obs` event schema, so the derived
//! per-dispatch rates — stream migration (= 1 − affinity hit), thread
//! migration, steals — are directly comparable. The
//! backends price time differently by design, but the *rates* are
//! properties of the scheduling policy, not of the clock; they must
//! agree within the tolerances documented in `afs_core::crossval`.
//!
//! The suite also locks down recorder purity (attaching a recorder must
//! not change a deterministic run's report — including the full-horizon
//! fig06 golden cells) and internal trace consistency on both backends.

use affinity_sched::core::crossval::{
    smoke_matrix, CrossvalScenario, STEAL_RATE_MAX, STREAM_MIGRATION_RATE_TOL,
    THREAD_MIGRATION_RATE_TOL,
};
use affinity_sched::core::sim::{run, run_observed};
use affinity_sched::native::crossval::{native_config, native_workload};
use affinity_sched::native::{run_native, run_native_recorded, FaultLoad};
use affinity_sched::obs::{Counters, MemRecorder};
use affinity_sched::sched::PolicySpec;

/// Per-dispatch rates derived from a trace, the cross-backend currency.
#[derive(Debug, Clone, Copy)]
struct Rates {
    stream_migration: f64,
    thread_migration: f64,
    steal: f64,
    affinity_hit: f64,
}

fn rates(c: &Counters) -> Rates {
    let d = c.dispatched.max(1) as f64;
    Rates {
        stream_migration: c.stream_migrations as f64 / d,
        thread_migration: c.thread_migrations as f64 / d,
        steal: c.steals as f64 / d,
        affinity_hit: c.affinity_hit_rate(),
    }
}

/// Run one (scenario, policy) cell through both backends with the
/// recorder attached and return the two traces' counters and the native
/// report's steal count.
fn both(s: &CrossvalScenario, p: PolicySpec) -> (Counters, Counters, u64) {
    let none = FaultLoad::none();
    let mut sim_rec = MemRecorder::new();
    let (sim_report, _probe) = run_observed(&s.sim_config(p, &none), &mut sim_rec);
    assert!(
        sim_report.stable,
        "{} {}: sim run unstable",
        s.label(),
        p.label()
    );

    let (nat_report, nat_rec) =
        run_native_recorded(&native_config(s, p, &none), native_workload(s));
    assert_eq!(
        nat_rec.counters.enqueued,
        nat_report.offered,
        "{} {}: native trace lost packets",
        s.label(),
        p.label()
    );
    (sim_rec.counters, nat_rec.counters, nat_report.steals)
}

#[test]
fn backends_agree_on_trace_derived_rates() {
    for s in smoke_matrix() {
        for p in PolicySpec::ALL {
            let (sim, nat, _) = both(&s, p);
            let (sr, nr) = (rates(&sim), rates(&nat));
            let ctx = format!("{} {}: sim {sr:?} native {nr:?}", s.label(), p.label());

            assert!(
                (sr.stream_migration - nr.stream_migration).abs() <= STREAM_MIGRATION_RATE_TOL,
                "stream-migration rates diverge — {ctx}"
            );
            assert!(
                (sr.thread_migration - nr.thread_migration).abs() <= THREAD_MIGRATION_RATE_TOL,
                "thread-migration rates diverge — {ctx}"
            );
            assert!(
                sr.steal <= STEAL_RATE_MAX && nr.steal <= STEAL_RATE_MAX,
                "steal churn — {ctx}"
            );

            // The affinity structure itself, on both backends: IPS pins
            // stream state (hits ~1), the oblivious baseline scatters it.
            if p == PolicySpec::Ips {
                assert!(
                    sr.affinity_hit > 0.9 && nr.affinity_hit > 0.9,
                    "IPS lost its affinity — {ctx}"
                );
            }
            if p == PolicySpec::Oblivious {
                // Neither backend's oblivious placement may look like an
                // affinity policy.
                assert!(
                    sr.affinity_hit < 0.95 && nr.affinity_hit < 0.95,
                    "oblivious placement suspiciously sticky — {ctx}"
                );
            }
        }
    }
}

#[test]
fn traces_are_internally_consistent_on_both_backends() {
    let s = &smoke_matrix()[0];
    for p in PolicySpec::ALL {
        let (sim, nat, nat_steals) = both(s, p);
        // The simulator never steals.
        for (backend, c, steals) in [("sim", &sim, 0), ("native", &nat, nat_steals)] {
            let ctx = format!("{backend} {} {}", s.label(), p.label());
            assert_eq!(
                c.enqueued as i64,
                c.completed as i64 + c.evicted as i64 + c.in_flight(),
                "{ctx}: conservation violated"
            );
            assert_eq!(
                (c.steal_claims, c.steals),
                (steals, steals),
                "{ctx}: steal claims, stolen dispatch flags and the report's steals disagree"
            );
            if backend == "native" && p == PolicySpec::Ips {
                assert!(
                    c.steals > 0,
                    "{ctx}: no steal, so the check above is vacuous"
                );
            }
            assert_eq!(
                c.dispatched,
                c.affinity_hits + c.stream_migrations,
                "{ctx}: every dispatch is a hit or a migration"
            );
            assert!(c.delay_us.count() > 0, "{ctx}: no delay samples");
            let lanes: u64 = c.by_worker.iter().map(|l| l.dispatched).sum();
            assert_eq!(lanes, c.dispatched, "{ctx}: per-worker lanes don't sum up");
        }
    }
}

#[test]
fn recorder_attach_does_not_change_the_simulator_report() {
    for s in smoke_matrix() {
        for p in PolicySpec::ALL {
            let cfg = s.sim_config(p, &FaultLoad::none());
            let plain = run(&cfg);
            let mut rec = MemRecorder::new();
            let (observed, _probe) = run_observed(&cfg, &mut rec);
            assert_eq!(
                plain,
                observed,
                "{} {}: attaching the recorder changed the report",
                s.label(),
                p.label()
            );
        }
    }
}

#[test]
fn recorder_attach_does_not_change_native_accounting() {
    let s = &smoke_matrix()[0];
    for p in PolicySpec::ALL {
        let cfg = native_config(s, p, &FaultLoad::none());
        let plain = run_native(&cfg, native_workload(s));
        let (recorded, _rec) = run_native_recorded(&cfg, native_workload(s));
        assert_eq!(
            plain,
            recorded,
            "{} {}: attaching the recorder changed the report",
            s.label(),
            p.label()
        );
    }
}

/// The acceptance bar from the issue: the fig06 golden cells are
/// byte-identical with the recorder *enabled*. (The disabled case is
/// `tests/golden_artifacts.rs`.) Two full-horizon cells keep the test
/// affordable; any recorder side effect on the hot path would already
/// perturb these.
#[test]
fn fig06_golden_cells_survive_recorder_attachment() {
    use affinity_sched::prelude::*;

    let committed = std::fs::read_to_string(
        std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results/fig06.csv"),
    )
    .expect("committed results/fig06.csv");
    // (rate row, column index after the rate, policy)
    let cells = [
        (1400.0, 0, LockPolicy::Baseline),
        (1400.0, 2, LockPolicy::Mru),
    ];
    for (rate, col, policy) in cells {
        let mut cfg = afs_bench::template_with(Paradigm::Locking { policy }, 8, false);
        cfg.population = cfg.population.clone().with_rate(rate);
        let mut rec = MemRecorder::new();
        let (report, _probe) = run_observed(&cfg, &mut rec);

        let want = committed
            .lines()
            .skip(1)
            .find_map(|l| {
                let mut f = l.split(',');
                let r: f64 = f.next()?.parse().ok()?;
                (r == rate).then(|| f.nth(col).unwrap().to_string())
            })
            .expect("rate row present in committed fig06.csv");
        assert_eq!(
            format!("{:.2}", report.mean_delay_us),
            want,
            "fig06 cell (rate {rate}, col {col}) drifted with the recorder attached"
        );
        assert!(!rec.events.is_empty(), "recorder saw no events");
    }
}
