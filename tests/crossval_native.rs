//! Cross-validation: the native pinned-thread backend and the
//! discrete-event simulator must agree on the paper's claims.
//!
//! Both backends run the shared smoke scenario from
//! `afs_core::crossval` (the same matrix `ext22_native --smoke` uses)
//! and the tests assert the policy *structure* — ordering and the size
//! of the affinity win — rather than absolute delays, which the two
//! methodologies price differently by design (see the module docs of
//! `afs_core::crossval` for the documented tolerances).

use affinity_sched::core::crossval::{
    relative_improvement, smoke_matrix, stream_smoke_matrix, IMPROVEMENT_TOLERANCE, ORDERING_SLACK,
    STEERING_AGREEMENT_FACTOR, STREAM_POLICIES,
};
use affinity_sched::core::metrics::RunReport;
use affinity_sched::core::sim::run;
use affinity_sched::native::crossval::{
    native_config, native_workload, run_stream_scenario_recorded,
};
use affinity_sched::native::{run_native, FaultLoad, FrontEndKind, NativeReport};
use affinity_sched::sched::PolicySpec;

/// Run the whole smoke matrix once through both backends — every rung
/// of [`PolicySpec::ALL`], the classic trio plus the policies added on
/// the unified `afs-sched` layer.
fn run_matrix() -> Vec<[(RunReport, NativeReport); 5]> {
    let none = FaultLoad::none();
    smoke_matrix()
        .iter()
        .map(|s| {
            PolicySpec::ALL.map(|p| {
                let native = run_native(&native_config(s, p, &none), native_workload(s));
                (run(&s.sim_config(p, &none)), native)
            })
        })
        .collect()
}

#[test]
fn backends_agree_on_policy_structure() {
    for cells in run_matrix() {
        let [(sim_obl, nat_obl), (sim_lck, nat_lck), (sim_ips, nat_ips), (sim_mru, nat_mru), (sim_mrl, nat_mrl)] =
            &cells;

        // Native bookkeeping: lossless, typed outcomes account for
        // every offered packet, statistics were actually recorded.
        for (_, n) in &cells {
            assert_eq!(n.outcomes.total(), n.offered, "{}: lost packets", n.policy);
            assert_eq!(
                n.outcomes.delivered, n.offered,
                "{}: non-delivery",
                n.policy
            );
            assert!(
                n.recorded > 0 && n.mean_delay_us > 0.0,
                "{}: no stats",
                n.policy
            );
        }
        for (s, _) in &cells {
            assert!(s.stable, "simulator run went unstable");
        }

        // Delay ordering IPS <= locking <= oblivious on both backends.
        assert!(
            sim_ips.mean_delay_us <= ORDERING_SLACK * sim_lck.mean_delay_us
                && sim_lck.mean_delay_us <= ORDERING_SLACK * sim_obl.mean_delay_us,
            "sim ordering broken: ips {:.1} lck {:.1} obl {:.1}",
            sim_ips.mean_delay_us,
            sim_lck.mean_delay_us,
            sim_obl.mean_delay_us
        );
        assert!(
            nat_ips.mean_delay_us <= ORDERING_SLACK * nat_lck.mean_delay_us
                && nat_lck.mean_delay_us <= ORDERING_SLACK * nat_obl.mean_delay_us,
            "native ordering broken: ips {:.1} lck {:.1} obl {:.1}",
            nat_ips.mean_delay_us,
            nat_lck.mean_delay_us,
            nat_obl.mean_delay_us
        );

        // The affinity win (service-time improvement of IPS over the
        // oblivious baseline) is positive on both backends and its
        // magnitude agrees within the documented tolerance.
        let sim_impr = relative_improvement(sim_obl.mean_service_us, sim_ips.mean_service_us);
        let nat_impr = relative_improvement(nat_obl.mean_service_us, nat_ips.mean_service_us);
        assert!(
            sim_impr > 0.0 && nat_impr > 0.0,
            "affinity win must be positive: sim {sim_impr:.3} native {nat_impr:.3}"
        );
        assert!(
            (sim_impr - nat_impr).abs() <= IMPROVEMENT_TOLERANCE,
            "improvement bands diverge: sim {sim_impr:.3} native {nat_impr:.3} \
             (tolerance {IMPROVEMENT_TOLERANCE})"
        );

        // Migration telemetry: the shared-stack policies bounce stream
        // state across workers; IPS pins it modulo rare steals. The
        // bound is looser than it was under the host-racy engine: the
        // virtual-order claim protocol (DESIGN.md §3, `afs-sched::claim`) both calms the
        // shared-stack rungs (the pooled claimant is the argmin of the
        // model clocks, not whichever worker won a ring race) and
        // resolves steals against modeled backlog instead of
        // host-observed ring occupancy, so the deterministic ratio sits
        // near ~5-7x rather than the racy engine's >10x.
        let ips_migr = nat_ips.stream_migrations.max(1);
        assert!(
            nat_obl.stream_migrations > 4 * ips_migr && nat_lck.stream_migrations > 4 * ips_migr,
            "migration telemetry inverted: obl {} lck {} ips {}",
            nat_obl.stream_migrations,
            nat_lck.stream_migrations,
            nat_ips.stream_migrations
        );

        // The new unified-layer policies (mru-load, min-reload): on both
        // backends each beats the oblivious baseline on delay and shows
        // a positive affinity win whose magnitude agrees across backends
        // within the documented tolerance.
        for (label, (sim_new, nat_new)) in [
            ("mru-load", (sim_mru, nat_mru)),
            ("min-reload", (sim_mrl, nat_mrl)),
        ] {
            assert!(
                sim_new.mean_delay_us <= ORDERING_SLACK * sim_obl.mean_delay_us,
                "sim {label} slower than oblivious: {:.1} vs {:.1}",
                sim_new.mean_delay_us,
                sim_obl.mean_delay_us
            );
            assert!(
                nat_new.mean_delay_us <= ORDERING_SLACK * nat_obl.mean_delay_us,
                "native {label} slower than oblivious: {:.1} vs {:.1}",
                nat_new.mean_delay_us,
                nat_obl.mean_delay_us
            );
            let sim_impr = relative_improvement(sim_obl.mean_service_us, sim_new.mean_service_us);
            let nat_impr = relative_improvement(nat_obl.mean_service_us, nat_new.mean_service_us);
            assert!(
                sim_impr > 0.0 && nat_impr > 0.0,
                "{label} affinity win must be positive: sim {sim_impr:.3} native {nat_impr:.3}"
            );
            assert!(
                (sim_impr - nat_impr).abs() <= IMPROVEMENT_TOLERANCE,
                "{label} improvement bands diverge: sim {sim_impr:.3} native {nat_impr:.3} \
                 (tolerance {IMPROVEMENT_TOLERANCE})"
            );
            // Both keep stream state far more local than the baseline.
            assert!(
                nat_new.stream_migrations < nat_obl.stream_migrations,
                "native {label} migrates more than oblivious: {} vs {}",
                nat_new.stream_migrations,
                nat_obl.stream_migrations
            );
        }
    }
}

/// The ext25 front-end cells: both backends steer the same Zipf flow
/// population through the same bounded tables, and must agree on the
/// steering *structure* — order preservation, miss volume (within the
/// documented [`STEERING_AGREEMENT_FACTOR`] band), and the benefit of
/// an affinity-aware miss path under Flow-Director.
#[test]
fn backends_agree_on_frontend_structure() {
    let within_band = |a: u64, b: u64| {
        let (lo, hi) = (a.min(b).max(1) as f64, a.max(b) as f64);
        hi / lo <= STEERING_AGREEMENT_FACTOR
    };
    for s in &stream_smoke_matrix() {
        for kind in FrontEndKind::ALL {
            let mut by_policy = Vec::new();
            for &policy in &STREAM_POLICIES {
                let sim = run(&s.sim_config(kind, policy));
                let (native, _) = run_stream_scenario_recorded(s, kind, policy);
                // Flow-Director cells may legitimately saturate — the
                // churning table plus an oblivious miss path is the
                // pathology under study, not a harness defect.
                if kind != FrontEndKind::FlowDirector {
                    assert!(
                        sim.stable,
                        "{} {:?}: sim went unstable",
                        kind.label(),
                        policy
                    );
                }
                assert_eq!(
                    native.outcomes.delivered,
                    native.offered,
                    "{} {:?}: native lost packets",
                    kind.label(),
                    policy
                );
                match kind {
                    FrontEndKind::Rss | FrontEndKind::TransportFriendly => {
                        assert_eq!(sim.ooo_deliveries, 0, "{}: sim reordered", kind.label());
                        assert_eq!(
                            native.ooo_deliveries,
                            0,
                            "{}: native reordered",
                            kind.label()
                        );
                    }
                    FrontEndKind::FlowDirector => {
                        assert!(
                            sim.table_misses > 0 && native.table_misses > 0,
                            "learning table far below the population must miss on both"
                        );
                    }
                }
                if kind != FrontEndKind::Rss {
                    assert!(
                        within_band(sim.table_misses, native.table_misses),
                        "{} {:?}: miss volumes diverge beyond the documented band: \
                         sim {} native {}",
                        kind.label(),
                        policy,
                        sim.table_misses,
                        native.table_misses
                    );
                }
                by_policy.push((policy, sim, native));
            }
            // Under Flow-Director the fallback router is the policy
            // axis: an affinity/load-aware miss path must not lose to
            // the oblivious one on either backend.
            if kind == FrontEndKind::FlowDirector {
                let get = |p: PolicySpec| {
                    by_policy
                        .iter()
                        .find(|(q, _, _)| *q == p)
                        .expect("cell ran")
                };
                let (_, obl_sim, obl_nat) = get(PolicySpec::Oblivious);
                for p in [PolicySpec::MruLoad, PolicySpec::MinReload] {
                    let (_, sim, nat) = get(p);
                    assert!(
                        sim.mean_delay_us <= ORDERING_SLACK * obl_sim.mean_delay_us,
                        "sim fdir {p:?} lost to the oblivious miss path: {:.1} vs {:.1}",
                        sim.mean_delay_us,
                        obl_sim.mean_delay_us
                    );
                    assert!(
                        nat.mean_delay_us <= ORDERING_SLACK * obl_nat.mean_delay_us,
                        "native fdir {p:?} lost to the oblivious miss path: {:.1} vs {:.1}",
                        nat.mean_delay_us,
                        obl_nat.mean_delay_us
                    );
                }
            }
        }
    }
}

#[test]
fn native_backend_is_deterministic_where_promised() {
    // Every rung, stealing included, at several workers: routing and
    // claims run on the dispatcher's virtual model, so the full report
    // reproduces bit for bit. (Every perturbation that must not move it
    // is a column of `tests/determinism_matrix.rs`.)
    use affinity_sched::native::{poisson_workload, run_native, NativeConfig, Pinning};
    let workload = || poisson_workload(4, 50, 1_000.0, 48, 0xD0_0D);
    for policy in PolicySpec::ALL {
        let mut cfg = NativeConfig::new(3, policy);
        cfg.pinning = Pinning::Off;
        let first = run_native(&cfg, workload());
        for _ in 0..2 {
            let again = run_native(&cfg, workload());
            assert_eq!(first, again, "{policy:?} run must be reproducible");
        }
    }
}
