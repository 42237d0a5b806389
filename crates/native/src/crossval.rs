//! Native side of the cross-validation harness.
//!
//! `afs_core::crossval` defines the shared scenario matrix and the
//! simulator mapping; this module supplies the native mapping so
//! the `ext22_native`–`ext25_streams` experiments (run in tier-1 by
//! `tests/experiment_checks.rs`) can run the *same* scenario through
//! both backends and compare the policy structure.
//! A cell is `run_native{,_recorded}(&native_config(..), native_workload(..))`.

use afs_core::crossval::{CrossvalScenario, StreamScenario};
use afs_core::procfault::FaultLoad;
use afs_obs::{MemRecorder, SequenceChecker};
use afs_sched::{FrontEndKind, PolicySpec};

use crate::runtime::{
    poisson_workload, run_native_recorded, zipf_workload, NativeConfig, NativePacket, NativeReport,
};

/// The native configuration for one `(policy, fault level)` cell of a
/// scenario. The policy→layout mapping is the canonical one in
/// `afs-sched` (`PolicySpec::native_layout`), shared with the simulator
/// side. The fault plan is the simulator's
/// ([`CrossvalScenario::fault_plan`]) over the post-warm-up portion of
/// the arrival horizon — each backend's own measurement span, since
/// their clocks differ; [`FaultLoad::none`] leaves it empty.
pub fn native_config(s: &CrossvalScenario, policy: PolicySpec, load: &FaultLoad) -> NativeConfig {
    let mut cfg = NativeConfig::new(s.workers, policy);
    cfg.seed = s.seed ^ 0xA71;
    // Expected last arrival on the virtual clock, µs.
    let horizon_us = s.packets_per_stream as f64 / s.rate_pps_per_stream * 1e6;
    cfg.faults = s.fault_plan((cfg.warmup_frac * horizon_us, horizon_us), load);
    cfg
}

/// The shared workload for a scenario (identical bytes and arrival
/// stamps for every policy rung — paired comparison).
pub fn native_workload(s: &CrossvalScenario) -> Vec<NativePacket> {
    poisson_workload(
        s.streams,
        s.packets_per_stream,
        s.rate_pps_per_stream,
        s.payload_bytes,
        s.seed,
    )
}

/// Bound on distinct engine sessions for the million-stream scenarios.
///
/// Native sessions demux by UDP port, a u16 space the driver fills from
/// `PORT_BASE` — so the backend can carry at most
/// [`PORT_STREAMS`][afs_xkernel::driver::PORT_STREAMS] = 60 536
/// *sessions* (a run needing more panics at start), while the NIC
/// front-end steers the full flow population. Flows fold
/// onto `flow % m` sessions (the fold is the identity for populations
/// under the bound), exactly how a real host carries 10⁵–10⁶ flows over
/// a bounded session table.
pub const NATIVE_SESSION_SPACE: u32 = 50_000;

/// The native configuration for one `(front-end, policy)` cell of a
/// stream scenario: the same [`FrontEndPlan`][afs_sched::FrontEndPlan]
/// the simulator consumes, the same hashed-LRU stream-state bound, and
/// the session fold sized by [`NATIVE_SESSION_SPACE`].
pub fn native_stream_config(
    s: &StreamScenario,
    kind: FrontEndKind,
    policy: PolicySpec,
) -> NativeConfig {
    let mut cfg = NativeConfig::new(s.workers, policy);
    cfg.seed = s.seed ^ 0xA71;
    cfg.frontend = Some(s.frontend_plan(kind, policy));
    cfg.stream_cache = Some(s.cache_capacity);
    cfg.session_space = Some(NATIVE_SESSION_SPACE.min(s.streams));
    cfg
}

/// The shared Zipf workload for a stream scenario (identical frames and
/// arrival stamps for every front-end × policy cell — paired
/// comparison). The session fold matches [`native_stream_config`].
pub fn native_stream_workload(s: &StreamScenario) -> Vec<NativePacket> {
    zipf_workload(
        s.streams,
        s.total_packets,
        s.aggregate_rate_pps,
        s.alpha,
        s.batch_mean,
        Some(NATIVE_SESSION_SPACE.min(s.streams)),
        s.payload_bytes,
        s.seed,
    )
}

/// Run one `(scenario, front-end, policy)` cell on the native backend
/// with the unified observability trace captured — the entry point
/// `ext25_streams` and the differential reordering tests use. The
/// report's reordering count is filled from the merged trace (the
/// dispatcher cannot observe completion order; the checker can).
pub fn run_stream_scenario_recorded(
    s: &StreamScenario,
    kind: FrontEndKind,
    policy: PolicySpec,
) -> (NativeReport, MemRecorder) {
    let (mut report, rec) = run_native_recorded(
        &native_stream_config(s, kind, policy),
        native_stream_workload(s),
    );
    report.ooo_deliveries = SequenceChecker::check(&rec.events).ooo_deliveries;
    (report, rec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use afs_core::crossval::{fault_levels, procfault_smoke_scenario};
    use std::mem::discriminant;

    #[test]
    fn both_backends_get_the_same_fault_structure() {
        let s = procfault_smoke_scenario();
        let p = PolicySpec::Oblivious;
        for (level, load) in fault_levels() {
            let sim = s.sim_config(p, &load).proc_faults;
            let native = native_config(&s, p, &load).faults;
            assert_eq!(sim.faults.len(), native.faults.len(), "{level}: plan sizes");
            for (a, b) in sim.faults.iter().zip(&native.faults) {
                assert_eq!(a.proc, b.proc, "{level}: victims");
                assert_eq!(
                    discriminant(&a.kind),
                    discriminant(&b.kind),
                    "{level}: kinds"
                );
            }
            let clean = level == "none";
            assert_eq!(sim.is_noop(), clean, "{level}: sim plan");
            assert_eq!(native.is_noop(), clean, "{level}: native plan");
        }
    }
}

#[cfg(test)]
mod stream_tests {
    use super::*;
    use afs_core::crossval::{stream_pathology_scenario, stream_smoke_matrix};

    #[test]
    fn zipf_workload_is_deterministic_and_time_ordered() {
        let a = zipf_workload(512, 2_000, 10_000.0, 1.1, 4.0, Some(100), 64, 42);
        let b = zipf_workload(512, 2_000, 10_000.0, 1.1, 4.0, Some(100), 64, 42);
        assert_eq!(a.len(), 2_000);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.stream, y.stream);
            assert_eq!(x.arrival_us, y.arrival_us);
            assert_eq!(x.bytes, y.bytes);
        }
        let mut last = f64::NEG_INFINITY;
        for p in &a {
            assert!(p.arrival_us >= last, "arrivals must be time-ordered");
            last = p.arrival_us;
            assert!(p.stream.0 < 512, "flow ids span the population");
        }
        // The fold keeps the *flow* id on the packet; only the frame's
        // port (and hence the engine session) is folded, so steering
        // still sees flows past the session bound.
        assert!(
            a.iter().any(|p| p.stream.0 >= 100),
            "flows beyond the session bound must still appear"
        );
    }

    #[test]
    fn every_frontend_is_lossless_on_the_smoke_cell() {
        let s = stream_smoke_matrix()[0];
        for kind in FrontEndKind::ALL {
            let (r, _) = run_stream_scenario_recorded(&s, kind, PolicySpec::Oblivious);
            assert_eq!(
                r.outcomes.delivered, r.offered,
                "{kind:?}: every offered packet must be delivered"
            );
            match kind {
                FrontEndKind::Rss | FrontEndKind::TransportFriendly => {
                    assert_eq!(r.ooo_deliveries, 0, "{kind:?} is structurally in order");
                    assert_eq!(r.rebinds, 0, "{kind:?} never rebinds");
                }
                FrontEndKind::FlowDirector => {
                    assert!(r.table_misses > 0, "table far below population must miss");
                }
            }
        }
    }

    #[test]
    fn flow_director_pathology_reorders_where_rss_does_not() {
        let s = stream_pathology_scenario();
        let (fdir, _) =
            run_stream_scenario_recorded(&s, FrontEndKind::FlowDirector, PolicySpec::Oblivious);
        assert!(fdir.rebinds > 0, "churning table must rebind flows");
        assert!(
            fdir.ooo_deliveries > 0,
            "Flow-Director churn must reorder at the pinned pathology seed"
        );
        let (rss, _) = run_stream_scenario_recorded(&s, FrontEndKind::Rss, PolicySpec::Oblivious);
        assert_eq!(rss.ooo_deliveries, 0, "hash steering keeps per-flow order");
    }
}
