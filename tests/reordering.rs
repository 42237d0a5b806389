//! Differential reordering battery: per-flow delivery order under the
//! NIC front-ends, judged by an independent checker on both backends.
//!
//! The judge is `afs_obs::SequenceChecker` — it reconstructs per-stream
//! delivery order from nothing but `Complete` events in the unified
//! trace, sharing no state with either backend's scheduler. The claims:
//!
//! * The simulator's *online* out-of-order counter agrees exactly with
//!   the offline checker run over its own trace, cell by cell.
//! * The checker finds **zero** out-of-order packets in every RSS and
//!   transport-friendly cell's trace on both backends — order is
//!   structural.
//! * At the pinned pathology cell (bursty arrivals, table far below the
//!   population) the checker sees the Flow-Director reordering the
//!   simulator reports — the Wu et al. pathology; the native report's
//!   count is the checker's verdict on its trace.
//! * Steering telemetry in the trace (table misses, rebinds) matches
//!   the reports, so the counters the experiments gate on are exactly
//!   what an external observer of the trace would compute.
//!
//! The reports' own counts — zero reordering and rebinds under RSS and
//! the transport pin, Flow-Director reordering and RSS order at the
//! pathology cell — are `ext25_streams` checks, run in tier-1 by
//! `tests/experiment_checks.rs`.

use affinity_sched::core::crossval::{
    stream_pathology_scenario, stream_smoke_matrix, STREAM_POLICIES,
};
use affinity_sched::core::sim::run_observed;
use affinity_sched::native::crossval::run_stream_scenario_recorded;
use affinity_sched::native::FrontEndKind;
use affinity_sched::obs::{MemRecorder, SequenceChecker};
use affinity_sched::sched::PolicySpec;

#[test]
fn sim_online_ooo_counter_matches_the_offline_checker() {
    for s in &stream_smoke_matrix() {
        for kind in FrontEndKind::ALL {
            for &policy in &STREAM_POLICIES {
                let cfg = s.sim_config(kind, policy);
                let mut rec = MemRecorder::new();
                let (report, _) = run_observed(&cfg, &mut rec);
                let verdict = SequenceChecker::check(&rec.events);
                assert_eq!(
                    report.ooo_deliveries,
                    verdict.ooo_deliveries,
                    "{} {}: online counter disagrees with the offline checker",
                    kind.label(),
                    policy.label()
                );
                assert_eq!(
                    report.table_misses,
                    rec.counters.table_misses,
                    "{} {}: table-miss trace counter drifted",
                    kind.label(),
                    policy.label()
                );
                assert_eq!(
                    report.rebinds,
                    rec.counters.rebinds,
                    "{} {}: rebind trace counter drifted",
                    kind.label(),
                    policy.label()
                );
            }
        }
    }
}

#[test]
fn order_preserving_frontends_never_reorder_on_either_backend() {
    for s in &stream_smoke_matrix() {
        for kind in [FrontEndKind::Rss, FrontEndKind::TransportFriendly] {
            for &policy in &STREAM_POLICIES {
                let cfg = s.sim_config(kind, policy);
                let mut rec = MemRecorder::new();
                run_observed(&cfg, &mut rec);
                let (_, trace) = run_stream_scenario_recorded(s, kind, policy);
                for (backend, events) in [("sim", &rec.events), ("native", &trace.events)] {
                    assert_eq!(
                        SequenceChecker::check(events).ooo_deliveries,
                        0,
                        "{backend} {} {} must preserve per-flow order",
                        kind.label(),
                        policy.label()
                    );
                }
            }
        }
    }
}

#[test]
fn flow_director_reorders_at_the_pathology_cell_on_both_backends() {
    let s = stream_pathology_scenario();
    let cfg = s.sim_config(FrontEndKind::FlowDirector, PolicySpec::Oblivious);
    let mut rec = MemRecorder::new();
    let (sim, _) = run_observed(&cfg, &mut rec);
    assert!(sim.rebinds > 0 && sim.table_misses > 0);
    // The independent judge sees the same pathology in the trace.
    assert_eq!(
        SequenceChecker::check(&rec.events).ooo_deliveries,
        sim.ooo_deliveries
    );

    let (native, trace) =
        run_stream_scenario_recorded(&s, FrontEndKind::FlowDirector, PolicySpec::Oblivious);
    assert!(native.rebinds > 0 && native.table_misses > 0);
    assert_eq!(trace.counters.table_misses, native.table_misses);
    assert_eq!(trace.counters.rebinds, native.rebinds);
}
