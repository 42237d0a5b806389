//! The shared simulator/native cross-validation matrix.
//!
//! The paper's central claim — affinity-based scheduling cuts
//! protocol-processing delay relative to affinity-oblivious dispatch —
//! is demonstrated twice in this workspace: by the discrete-event
//! simulator (`crate::sim`, the paper's own methodology) and by the
//! `afs-native` pinned-thread backend, which executes the real
//! `ProtocolEngine` receive path on OS threads. This module defines the
//! *shared* stream/packet matrix both backends run, the mapping from
//! the cross-backend policy rungs onto simulator configurations,
//! and the documented agreement tolerances the cross-validation harness
//! (`ext22_native`, `tests/crossval_native.rs`) asserts.
//!
//! ## What must agree
//!
//! Absolute delays cannot match: the simulator prices service with the
//! analytic reload-transient model (component ages + F1/F2 displacement
//! under a background workload), while the native backend prices it with
//! the trace-driven cache hierarchy and coherence-style invalidation on
//! migration. What both backends must reproduce is the paper's *policy
//! structure*:
//!
//! 1. **Ordering** — mean delay obeys `IPS ≤ locking-pool ≤ oblivious`
//!    (each comparison with [`ORDERING_SLACK`] multiplicative slack).
//! 2. **Improvement band** — the relative *service-time* improvement of
//!    IPS over the oblivious baseline (the pure cache-affinity signal,
//!    uncontaminated by the backends' different queueing disciplines)
//!    agrees within [`IMPROVEMENT_TOLERANCE`] absolute.

use afs_desim::time::SimDuration;
use afs_workload::Population;

use crate::config::SystemConfig;
use crate::procfault::{FaultLoad, ProcFaultPlan};

/// The cross-backend policy rungs — the canonical [`afs_sched`] spec.
///
/// Every rung is defined exactly once, in the scheduling crate, as a
/// [`PolicySpec`][afs_sched::PolicySpec]: the simulator realizes a rung
/// through [`PolicySpec::sim_paradigm`][afs_sched::PolicySpec::sim_paradigm]
/// (used by [`CrossvalScenario::sim_config`] below) and the native
/// backend through [`PolicySpec::native_layout`][afs_sched::PolicySpec::native_layout].
/// The historical hand-rolled `CrossPolicy → {SystemConfig, NativeConfig}`
/// mappings are gone; both backends consume the same table.
pub use afs_sched::PolicySpec as CrossPolicy;

/// One cell of the shared matrix: a (workers, streams, rate, length)
/// tuple both backends execute.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrossvalScenario {
    /// Processors (native workers == simulator `n_procs`).
    pub workers: usize,
    /// Concurrent streams.
    pub streams: u32,
    /// Packets per stream offered to the native backend (also sets the
    /// simulator horizon so both backends see comparable sample sizes).
    pub packets_per_stream: u32,
    /// Per-stream Poisson arrival rate, packets/second.
    pub rate_pps_per_stream: f64,
    /// UDP payload bytes per packet.
    pub payload_bytes: usize,
    /// Master seed; both backends derive their RNG streams from it.
    pub seed: u64,
}

impl CrossvalScenario {
    /// Aggregate offered rate in packets/second.
    pub fn aggregate_rate_pps(&self) -> f64 {
        self.rate_pps_per_stream * self.streams as f64
    }

    /// Total packets the native backend offers.
    pub fn total_packets(&self) -> u64 {
        self.streams as u64 * self.packets_per_stream as u64
    }

    /// Compact label for rows: `w2k8`.
    pub fn label(&self) -> String {
        format!("w{}k{}", self.workers, self.streams)
    }

    /// The simulator configuration for one policy rung of this scenario.
    ///
    /// The horizon is sized so the measurement window carries the same
    /// expected packet count as the native run.
    pub fn sim_config(&self, policy: CrossPolicy) -> SystemConfig {
        let paradigm = policy.sim_paradigm(self.workers);
        let mut cfg = SystemConfig::new(
            paradigm,
            Population::homogeneous_poisson(self.streams as usize, self.rate_pps_per_stream),
        );
        cfg.n_procs = self.workers;
        cfg.seed = self.seed ^ 0xC105_5A1E;
        let measure_s = self.total_packets() as f64 / self.aggregate_rate_pps();
        cfg.warmup = SimDuration::from_millis(150);
        cfg.horizon = cfg.warmup + SimDuration::from_secs_f64(measure_s);
        cfg
    }
}

/// The default matrix `ext22_native` runs: two host scales at a
/// low-to-moderate utilization (~0.3 on the locking rung), where service
/// time — the affinity signal — dominates delay.
pub fn default_matrix() -> Vec<CrossvalScenario> {
    vec![
        CrossvalScenario {
            workers: 2,
            streams: 8,
            packets_per_stream: 1500,
            rate_pps_per_stream: 380.0,
            payload_bytes: 64,
            seed: 0xAF5_2200,
        },
        CrossvalScenario {
            workers: 4,
            streams: 16,
            packets_per_stream: 1000,
            rate_pps_per_stream: 380.0,
            payload_bytes: 64,
            seed: 0xAF5_2201,
        },
    ]
}

/// The bounded matrix for CI smoke runs (`ext22_native --smoke`) and the
/// debug-profile cross-validation test: one small scenario.
pub fn smoke_matrix() -> Vec<CrossvalScenario> {
    vec![CrossvalScenario {
        workers: 2,
        streams: 8,
        packets_per_stream: 400,
        rate_pps_per_stream: 380.0,
        payload_bytes: 64,
        seed: 0xAF5_2202,
    }]
}

/// The scenario `ext24_procfaults` sweeps fault levels over: enough
/// workers that seeded plans can kill one and degrade others while the
/// plan's survivor guarantee still leaves real capacity.
pub fn procfault_scenario() -> CrossvalScenario {
    CrossvalScenario {
        workers: 4,
        streams: 16,
        packets_per_stream: 800,
        rate_pps_per_stream: 380.0,
        payload_bytes: 64,
        seed: 0xAF5_2400,
    }
}

/// The bounded `ext24_procfaults --smoke` scenario.
pub fn procfault_smoke_scenario() -> CrossvalScenario {
    CrossvalScenario {
        workers: 4,
        streams: 8,
        packets_per_stream: 250,
        rate_pps_per_stream: 380.0,
        payload_bytes: 64,
        seed: 0xAF5_2401,
    }
}

/// The fault levels ext24 sweeps, in severity order.
pub fn fault_levels() -> Vec<(&'static str, FaultLoad)> {
    vec![
        ("none", FaultLoad::none()),
        ("light", FaultLoad::light()),
        ("heavy", FaultLoad::heavy()),
    ]
}

/// Seed offset that decouples the fault plan's RNG from the workload
/// and placement streams (both backends use the same offset, so the
/// plan is identical across backends up to the time window it spans).
pub const FAULT_PLAN_SALT: u64 = 0xFA17;

/// The simulator configuration for one (scenario, policy, fault-level)
/// cell: [`CrossvalScenario::sim_config`] plus a seeded fault plan over
/// the measurement window (warm-up untouched, so the faulted runs stay
/// comparable to the clean ones over the same recorded packets).
pub fn sim_fault_config(
    s: &CrossvalScenario,
    policy: CrossPolicy,
    load: &FaultLoad,
) -> SystemConfig {
    let mut cfg = s.sim_config(policy);
    cfg.proc_faults = ProcFaultPlan::seeded(
        s.seed ^ FAULT_PLAN_SALT,
        s.workers,
        (cfg.warmup.as_micros_f64(), cfg.horizon.as_micros_f64()),
        load,
    );
    cfg
}

/// One simulator cell of the fault matrix.
#[derive(Debug, Clone)]
pub struct SimFaultCell {
    /// The fault-level label (`none` / `light` / `heavy`).
    pub level: &'static str,
    /// The policy rung simulated.
    pub policy: CrossPolicy,
    /// The report for `sim_fault_config(scenario, policy, level)`.
    pub report: crate::metrics::RunReport,
}

/// Run the simulator side of the ext24 fault sweep — every
/// `(fault level, policy)` cell of one scenario — on the [`crate::par`]
/// executor. Cells are pure, independent runs; results come back in
/// row-major order (levels in the given order, [`CrossPolicy::ALL`]
/// within each), byte-identical for any `AFS_JOBS` worker count.
pub fn sim_fault_matrix(
    scenario: &CrossvalScenario,
    levels: &[(&'static str, FaultLoad)],
) -> Vec<SimFaultCell> {
    sim_fault_matrix_jobs(crate::par::jobs_from_env(), scenario, levels)
}

/// [`sim_fault_matrix`] with an explicit worker count (the determinism
/// test pins `jobs` instead of racing on the process environment).
pub fn sim_fault_matrix_jobs(
    jobs: usize,
    scenario: &CrossvalScenario,
    levels: &[(&'static str, FaultLoad)],
) -> Vec<SimFaultCell> {
    let cells: Vec<(&'static str, FaultLoad, CrossPolicy)> = levels
        .iter()
        .flat_map(|(label, load)| {
            CrossPolicy::ALL
                .into_iter()
                .map(move |p| (*label, *load, p))
        })
        .collect();
    crate::par::parallel_map_jobs(jobs, &cells, |(level, load, policy)| {
        let cfg = sim_fault_config(scenario, *policy, load);
        SimFaultCell {
            level,
            policy: *policy,
            report: crate::sim::run(&cfg),
        }
    })
}

/// One simulator cell of the cross-validation matrix: the scenario, the
/// policy rung, and the run's report.
#[derive(Debug, Clone)]
pub struct SimCell {
    /// The scenario this cell belongs to.
    pub scenario: CrossvalScenario,
    /// The policy rung simulated.
    pub policy: CrossPolicy,
    /// The simulator's report for `scenario.sim_config(policy)`.
    pub report: crate::metrics::RunReport,
}

/// Run the simulator side of a cross-validation matrix — every
/// `(scenario, policy)` cell — on the [`crate::par`] executor.
///
/// Cells are independent runs, so they fan out across `AFS_JOBS`
/// workers; results come back in row-major order (scenarios in the
/// given order, [`CrossPolicy::ALL`] within each), byte-identical to
/// the serial nested loop. The native side of the matrix stays serial:
/// its runs share the host's real caches and threads, so running them
/// concurrently would perturb the very effect being measured.
pub fn sim_matrix(scenarios: &[CrossvalScenario]) -> Vec<SimCell> {
    sim_matrix_jobs(crate::par::jobs_from_env(), scenarios)
}

/// [`sim_matrix`] with an explicit worker count (determinism tests pin
/// `jobs` instead of racing on the process environment).
pub fn sim_matrix_jobs(jobs: usize, scenarios: &[CrossvalScenario]) -> Vec<SimCell> {
    let cells: Vec<(CrossvalScenario, CrossPolicy)> = scenarios
        .iter()
        .flat_map(|&s| CrossPolicy::ALL.into_iter().map(move |p| (s, p)))
        .collect();
    crate::par::parallel_map_jobs(jobs, &cells, |&(scenario, policy)| {
        let cfg = scenario.sim_config(policy);
        SimCell {
            scenario,
            policy,
            report: crate::sim::run(&cfg),
        }
    })
}

/// The policy axis of the million-stream front-end matrix (`ext25`):
/// the rungs whose router steers per-worker queues, on both backends.
/// `Locking` and `Ips` are excluded here because the *simulator* side
/// of the cross-validation has no claim arbitration — the native
/// serving path runs all five rungs (its `SharedQueue` fallback and
/// stealing layout resolve through [`afs_sched::ClaimTable`]; the
/// `ext26_serve` sweep exercises the full ladder).
pub const STREAM_POLICIES: [CrossPolicy; 3] = [
    CrossPolicy::Oblivious,
    CrossPolicy::MruLoad,
    CrossPolicy::MinReload,
];

/// One cell shape of the stream-scale matrix: a Zipf-weighted flow
/// population steered by a NIC front-end through bounded stream tables.
/// Both backends run every `(front-end, policy)` combination of it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamScenario {
    /// Processors (native workers == simulator `n_procs`).
    pub workers: usize,
    /// Flow-population size (the experiment sweeps 10³–10⁵).
    pub streams: u32,
    /// Total packets offered (sets the native packet budget and the
    /// simulator horizon, so both backends see comparable samples).
    pub total_packets: u64,
    /// Aggregate offered rate across the whole population, packets/s.
    pub aggregate_rate_pps: f64,
    /// Zipf exponent of the per-flow rate weights.
    pub alpha: f64,
    /// Mean arrival-batch size (1 = pure Poisson; larger = bursty, the
    /// regime where Flow-Director churn reorders).
    pub batch_mean: f64,
    /// NIC learning-table slots (Flow-Director only; ≪ `streams`).
    pub table_capacity: usize,
    /// Host stream-state slots: the hashed-LRU bound on resident stream
    /// footprints (≪ `streams`; an eviction prices a full cold reload).
    pub cache_capacity: usize,
    /// UDP payload bytes per packet (native backend).
    pub payload_bytes: usize,
    /// Master seed; both backends derive their RNG streams from it.
    pub seed: u64,
}

impl StreamScenario {
    /// Compact label for rows: `w4s100000`.
    pub fn label(&self) -> String {
        format!("w{}s{}", self.workers, self.streams)
    }

    /// The front-end plan for one `(kind, policy)` cell: the NIC table
    /// bound plus the rung's router as the miss-path fallback — the
    /// same [`Router`][afs_sched::Router] object the native dispatcher
    /// consumes, so the policy axis is defined exactly once.
    pub fn frontend_plan(
        &self,
        kind: afs_sched::FrontEndKind,
        policy: CrossPolicy,
    ) -> afs_sched::FrontEndPlan {
        afs_sched::FrontEndPlan::new(kind, self.table_capacity, policy.native_layout().router)
    }

    /// The Zipf flow population both backends offer.
    pub fn population(&self) -> Population {
        if self.batch_mean > 1.0 {
            Population::zipf_bursty(
                self.streams as usize,
                self.aggregate_rate_pps,
                self.alpha,
                self.batch_mean,
            )
        } else {
            Population::zipf(self.streams as usize, self.aggregate_rate_pps, self.alpha)
        }
    }

    /// The simulator configuration for one `(front-end, policy)` cell.
    pub fn sim_config(&self, kind: afs_sched::FrontEndKind, policy: CrossPolicy) -> SystemConfig {
        let mut cfg = SystemConfig::new(policy.sim_paradigm(self.workers), self.population());
        cfg.n_procs = self.workers;
        cfg.seed = self.seed ^ 0xC105_5A1E;
        cfg.frontend = Some(self.frontend_plan(kind, policy));
        cfg.stream_cache = Some(self.cache_capacity);
        let measure_s = self.total_packets as f64 / self.aggregate_rate_pps;
        cfg.warmup = SimDuration::from_millis(150);
        cfg.horizon = cfg.warmup + SimDuration::from_secs_f64(measure_s);
        cfg
    }
}

/// The default `ext25_streams` sweep: three decades of flow-population
/// size at a fixed moderate utilization, tables held far below the
/// population so steering churn and stream-state eviction are both
/// live effects. Arrivals are bursty (batched) — the regime in which
/// Flow-Director's migration pathology reorders.
pub fn stream_matrix() -> Vec<StreamScenario> {
    [
        (1_000u32, 30_000u64, 64usize, 128usize),
        (10_000, 30_000, 256, 1_024),
        (100_000, 40_000, 1_024, 4_096),
    ]
    .into_iter()
    .enumerate()
    .map(
        |(i, (streams, total_packets, table, cache))| StreamScenario {
            workers: 4,
            streams,
            total_packets,
            aggregate_rate_pps: 15_000.0,
            alpha: 1.1,
            batch_mean: 4.0,
            table_capacity: table,
            cache_capacity: cache,
            payload_bytes: 64,
            seed: 0xAF5_2500 + i as u64,
        },
    )
    .collect()
}

/// The bounded matrix for CI smoke runs (`ext25_streams --smoke`) and
/// the debug-profile cross-validation test: one small scenario.
pub fn stream_smoke_matrix() -> Vec<StreamScenario> {
    vec![StreamScenario {
        workers: 4,
        streams: 2_048,
        total_packets: 5_000,
        aggregate_rate_pps: 12_000.0,
        alpha: 1.1,
        batch_mean: 4.0,
        table_capacity: 64,
        cache_capacity: 256,
        payload_bytes: 64,
        seed: 0xAF5_2510,
    }]
}

/// The pinned reordering-pathology cell: a learning table far below the
/// flow population under bursty arrivals, at a seed verified to make
/// Flow-Director churn visibly reorder on both backends
/// (`tests/reordering.rs` asserts the strict inequality).
pub fn stream_pathology_scenario() -> StreamScenario {
    StreamScenario {
        workers: 4,
        streams: 2_048,
        total_packets: 8_000,
        aggregate_rate_pps: 15_000.0,
        alpha: 1.1,
        batch_mean: 8.0,
        table_capacity: 32,
        cache_capacity: 256,
        payload_bytes: 64,
        seed: 0xAF5_2520,
    }
}

/// One simulator cell of the stream matrix.
#[derive(Debug, Clone)]
pub struct SimStreamCell {
    /// The scenario this cell belongs to.
    pub scenario: StreamScenario,
    /// The NIC front-end steering the cell.
    pub frontend: afs_sched::FrontEndKind,
    /// The policy rung supplying the miss-path fallback and dispatch.
    pub policy: CrossPolicy,
    /// The simulator's report for `scenario.sim_config(frontend, policy)`.
    pub report: crate::metrics::RunReport,
}

/// Run the simulator side of the stream matrix — every
/// `(scenario, front-end, policy)` cell — on the [`crate::par`]
/// executor. Results come back in row-major order (scenarios in the
/// given order, [`afs_sched::FrontEndKind::ALL`] within each,
/// [`STREAM_POLICIES`] innermost), byte-identical for any `AFS_JOBS`.
pub fn sim_stream_matrix(scenarios: &[StreamScenario]) -> Vec<SimStreamCell> {
    sim_stream_matrix_jobs(crate::par::jobs_from_env(), scenarios)
}

/// [`sim_stream_matrix`] with an explicit worker count (determinism
/// tests pin `jobs` instead of racing on the process environment).
pub fn sim_stream_matrix_jobs(jobs: usize, scenarios: &[StreamScenario]) -> Vec<SimStreamCell> {
    let cells: Vec<(StreamScenario, afs_sched::FrontEndKind, CrossPolicy)> = scenarios
        .iter()
        .flat_map(|&s| {
            afs_sched::FrontEndKind::ALL
                .into_iter()
                .flat_map(move |k| STREAM_POLICIES.into_iter().map(move |p| (s, k, p)))
        })
        .collect();
    crate::par::parallel_map_jobs(jobs, &cells, |&(scenario, frontend, policy)| {
        let cfg = scenario.sim_config(frontend, policy);
        SimStreamCell {
            scenario,
            frontend,
            policy,
            report: crate::sim::run(&cfg),
        }
    })
}

/// Relative improvement of `better` over `base` (positive = `better`
/// is faster). Returns 0 when `base` is not positive.
pub fn relative_improvement(base: f64, better: f64) -> f64 {
    if base > 0.0 {
        (base - better) / base
    } else {
        0.0
    }
}

/// Multiplicative slack allowed on each delay-ordering comparison
/// (`a ≤ slack·b`): absorbs scheduler-interleaving noise in the native
/// backend and CI-runner variance without masking a real inversion.
pub const ORDERING_SLACK: f64 = 1.05;

/// Documented absolute tolerance on the IPS-vs-oblivious *service-time*
/// relative improvement between backends. The simulator's analytic
/// reload transient and the native backend's trace-driven hierarchy
/// price a migration differently (the simulator's background workload
/// erodes caches between visits; the native model only invalidates on
/// ownership transfer), so the affinity signal's magnitude — typically
/// 10–25 % at the default matrix — is required to agree only within
/// this band, while its *sign and ordering* are required exactly.
pub const IMPROVEMENT_TOLERANCE: f64 = 0.15;

/// Documented multiplicative band on front-end *steering telemetry*
/// between backends: table-miss and first-placement counts must agree
/// within this factor (`max/min ≤ factor`) for the same stream
/// scenario. The counts cannot match exactly — each backend draws its
/// own arrival randomness, and Flow-Director churn depends on
/// completion timing, which the two methodologies price differently —
/// but both look up the *same* bounded tables over the *same* Zipf
/// population, so the miss volume must land in the same band. The
/// structural facts (RSS/transport-friendly deliver in order, the
/// learning table far below the population misses, Flow-Director
/// reorders at the pathology cell) are required exactly.
pub const STEERING_AGREEMENT_FACTOR: f64 = 2.5;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_configs_validate() {
        for s in default_matrix().iter().chain(smoke_matrix().iter()) {
            for p in CrossPolicy::ALL {
                let cfg = s.sim_config(p);
                cfg.validate();
                assert_eq!(cfg.n_procs, s.workers);
                assert_eq!(cfg.n_streams(), s.streams as usize);
            }
        }
    }

    #[test]
    fn policy_mapping_matches_paper_rungs() {
        use crate::config::Paradigm;
        let s = &smoke_matrix()[0];
        assert!(s.sim_config(CrossPolicy::Oblivious).paradigm.is_locking());
        assert!(s.sim_config(CrossPolicy::Locking).paradigm.is_locking());
        assert!(s.sim_config(CrossPolicy::MruLoad).paradigm.is_locking());
        assert!(s.sim_config(CrossPolicy::MinReload).paradigm.is_locking());
        let ips = s.sim_config(CrossPolicy::Ips);
        match ips.paradigm {
            Paradigm::Ips { n_stacks, .. } => assert_eq!(n_stacks, s.workers),
            _ => panic!("IPS rung must map to the IPS paradigm"),
        }
    }

    #[test]
    fn improvement_is_signed_fraction() {
        assert!((relative_improvement(200.0, 150.0) - 0.25).abs() < 1e-12);
        assert!(relative_improvement(200.0, 250.0) < 0.0);
        assert_eq!(relative_improvement(0.0, 1.0), 0.0);
    }

    #[test]
    fn matrix_labels_are_distinct() {
        let m = default_matrix();
        assert_ne!(m[0].label(), m[1].label());
        assert_eq!(m[0].label(), "w2k8");
    }

    #[test]
    fn stream_configs_validate_for_every_cell() {
        for s in stream_smoke_matrix()
            .iter()
            .chain([stream_pathology_scenario()].iter())
        {
            for kind in afs_sched::FrontEndKind::ALL {
                for p in STREAM_POLICIES {
                    let cfg = s.sim_config(kind, p);
                    cfg.validate();
                    assert_eq!(cfg.n_procs, s.workers);
                    assert_eq!(cfg.n_streams(), s.streams as usize);
                    assert_eq!(cfg.stream_cache, Some(s.cache_capacity));
                    assert!(cfg.frontend.is_some());
                }
            }
        }
        // The full matrix's configs validate too (cheap: no runs).
        for s in stream_matrix() {
            s.sim_config(afs_sched::FrontEndKind::Rss, CrossPolicy::Oblivious)
                .validate();
        }
    }

    #[test]
    fn stream_tables_are_far_below_the_population() {
        for s in stream_matrix() {
            assert!(s.table_capacity * 8 <= s.streams as usize, "{s:?}");
            assert!(s.cache_capacity * 4 <= s.streams as usize, "{s:?}");
        }
    }

    #[test]
    fn locking_rung_frontend_plan_defers_to_claim_arbitration() {
        // Since the claim protocol (DESIGN.md §3, `afs-sched::claim`), a `SharedQueue`
        // steering fallback is a valid plan: a table miss returns
        // `Route::Shared` and the backend's pooled claim table names
        // the claimant. Every rung's plan validates.
        let s = stream_smoke_matrix()[0];
        for p in CrossPolicy::ALL {
            let plan = s.frontend_plan(afs_sched::FrontEndKind::Rss, p);
            plan.validate();
        }
        assert_eq!(
            s.frontend_plan(afs_sched::FrontEndKind::Rss, CrossPolicy::Locking)
                .fallback,
            afs_sched::Router::SharedQueue
        );
    }
}
