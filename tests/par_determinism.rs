//! Determinism contract of the parallel experiment executor: for any
//! worker count, every fan-out layer (`rate_sweep`, `replicate`, the
//! crossval experiments' cell lists) must produce output *bit-identical* to the
//! serial path. This is what lets the committed golden artifacts stay
//! byte-for-byte stable while the experiments run on all cores.
//!
//! The comparisons here are `to_bits()` on every floating-point field —
//! not approximate equality. A run is a pure function of
//! `(SystemConfig, seed)`; the executor only reorders *scheduling*, so
//! any bit that moves is a real defect.

use afs_bench::template_with;
use afs_core::config::{LockPolicy, Paradigm, SystemConfig};
use afs_core::crossval::{
    fault_levels, procfault_smoke_scenario, smoke_matrix, stream_smoke_matrix, STREAM_POLICIES,
};
use afs_core::metrics::RunReport;
use afs_core::par::parallel_map_jobs;
use afs_core::procfault::FaultLoad;
use afs_core::replicate::replicate_jobs;
use afs_core::sim::run;
use afs_core::sweep::rate_sweep_jobs;
use afs_sched::{FrontEndKind, PolicySpec};

/// The worker counts compared against the serial reference. `1` pins
/// the degenerate executor (single worker, but still the parallel code
/// path and its channel plumbing) against the same reference.
const JOB_COUNTS: [usize; 4] = [1, 2, 8, 32];

fn assert_reports_identical(a: &RunReport, b: &RunReport, ctx: &str) {
    assert_eq!(a.arrivals, b.arrivals, "{ctx}: arrivals");
    assert_eq!(a.delivered, b.delivered, "{ctx}: delivered");
    assert_eq!(a.stable, b.stable, "{ctx}: stability");
    for (name, x, y) in [
        ("mean_delay_us", a.mean_delay_us, b.mean_delay_us),
        ("mean_service_us", a.mean_service_us, b.mean_service_us),
        ("throughput_pps", a.throughput_pps, b.throughput_pps),
        ("utilization", a.utilization, b.utilization),
        ("mean_f1", a.mean_f1, b.mean_f1),
        ("mean_f2", a.mean_f2, b.mean_f2),
        (
            "stream_migration_rate",
            a.stream_migration_rate,
            b.stream_migration_rate,
        ),
        (
            "thread_migration_rate",
            a.thread_migration_rate,
            b.thread_migration_rate,
        ),
    ] {
        assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: {name} drifted");
    }
    assert_eq!(
        a.per_proc_served, b.per_proc_served,
        "{ctx}: per-proc counts"
    );
    // Fault accounting (zero on clean runs) must replay exactly too.
    assert_eq!(a.proc_crashes, b.proc_crashes, "{ctx}: proc_crashes");
    assert_eq!(a.proc_stalls, b.proc_stalls, "{ctx}: proc_stalls");
    assert_eq!(a.orphaned, b.orphaned, "{ctx}: orphaned");
    assert_eq!(a.requeued, b.requeued, "{ctx}: requeued");
    // Front-end steering accounting (zero without a front-end) too.
    assert_eq!(a.ooo_deliveries, b.ooo_deliveries, "{ctx}: ooo_deliveries");
    assert_eq!(a.table_misses, b.table_misses, "{ctx}: table_misses");
    assert_eq!(a.rebinds, b.rebinds, "{ctx}: rebinds");
}

/// Figure 6's cells (Locking K = 8, the committed golden grid) swept
/// serially and with several worker counts: every point bit-identical.
#[test]
fn fig06_cells_parallel_sweep_is_bit_identical() {
    // Figure 6's policy grid on the smoke horizon: same configurations,
    // bounded runtime.
    let rates = [200.0, 800.0, 2000.0, 3600.0, 4800.0];
    for policy in [LockPolicy::Baseline, LockPolicy::Mru, LockPolicy::Wired] {
        let t = template_with(
            Paradigm::Locking {
                policy: policy.clone(),
            },
            8,
            true,
        );
        let serial = rate_sweep_jobs(1, "s", &t, &rates);
        for jobs in JOB_COUNTS {
            let par = rate_sweep_jobs(jobs, "p", &t, &rates);
            assert_eq!(serial.points.len(), par.points.len());
            for (a, b) in serial.points.iter().zip(&par.points) {
                assert_eq!(a.rate_per_stream.to_bits(), b.rate_per_stream.to_bits());
                assert_eq!(a.offered_pps.to_bits(), b.offered_pps.to_bits());
                assert_reports_identical(
                    &a.report,
                    &b.report,
                    &format!("fig06 {policy:?} rate {} jobs {jobs}", a.rate_per_stream),
                );
            }
        }
    }
}

/// Simulate `cells` serially, then through the executor at every
/// [`JOB_COUNTS`]: every report bit-identical, in cell order. Returns
/// the serial reports for the caller's non-vacuity checks.
fn sim_cells_are_bit_identical<T: Sync + std::fmt::Debug>(
    name: &str,
    cells: &[T],
    config: impl Fn(&T) -> SystemConfig + Sync,
) -> Vec<RunReport> {
    let sim = |cell: &T| run(&config(cell));
    let serial: Vec<RunReport> = cells.iter().map(sim).collect();
    for jobs in JOB_COUNTS {
        let par = parallel_map_jobs(jobs, cells, sim);
        assert_eq!(serial.len(), par.len());
        for ((cell, a), b) in cells.iter().zip(&serial).zip(&par) {
            assert_reports_identical(a, b, &format!("{name} {cell:?} jobs {jobs}"));
        }
    }
    serial
}

/// The ext22 cross-validation cells' simulator side (smoke matrix ×
/// every rung), serial vs parallel: every report bit-identical.
#[test]
fn crossval_sim_matrix_parallel_is_bit_identical() {
    let cells: Vec<_> = smoke_matrix()
        .into_iter()
        .flat_map(|s| PolicySpec::ALL.map(|p| (s, p)))
        .collect();
    sim_cells_are_bit_identical("ext22", &cells, |(s, p)| {
        s.sim_config(*p, &FaultLoad::none())
    });
}

/// The ext24 fault cells' simulator side — crash, stall and slow-core
/// injection over every policy rung — serial vs parallel: a faulted run
/// is still a pure function of `(config, seed)`, so every cell
/// (including its orphan/requeue accounting) must come back
/// bit-identical for any `AFS_JOBS` worker count.
#[test]
fn ext24_fault_matrix_parallel_is_bit_identical() {
    let s = procfault_smoke_scenario();
    let cells: Vec<_> = fault_levels()
        .into_iter()
        .flat_map(|(level, load)| PolicySpec::ALL.map(|p| (level, load, p)))
        .collect();
    let serial =
        sim_cells_are_bit_identical("ext24", &cells, |(_, load, p)| s.sim_config(*p, load));
    // The faulted levels actually fire in this scenario; otherwise the
    // test degenerates into the clean ext22 case above.
    assert!(
        serial.iter().any(|r| r.proc_crashes > 0),
        "smoke scenario must exercise the fault machinery"
    );
}

/// The ext25 stream cells' simulator side — NIC front-ends steering a
/// Zipf flow population through bounded learning tables and hashed-LRU
/// stream caches — serial vs parallel: steering, reordering and
/// eviction accounting are all part of the pure `(config, seed)`
/// function, so every cell must come back bit-identical for any
/// `AFS_JOBS` worker count.
#[test]
fn ext25_stream_matrix_parallel_is_bit_identical() {
    let cells: Vec<_> = stream_smoke_matrix()
        .into_iter()
        .flat_map(|s| {
            FrontEndKind::ALL
                .into_iter()
                .flat_map(move |k| STREAM_POLICIES.map(|p| (s, k, p)))
        })
        .collect();
    let serial = sim_cells_are_bit_identical("ext25", &cells, |(s, k, p)| s.sim_config(*k, *p));
    // The front-end machinery must actually fire; otherwise this test
    // degenerates into the clean ext22 case above.
    assert!(
        serial.iter().any(|r| r.table_misses > 0),
        "stream smoke matrix must exercise the steering tables"
    );
    assert!(
        serial.iter().any(|r| r.ooo_deliveries > 0),
        "stream smoke matrix must exercise the reordering counter"
    );
}

/// The native backend's arbitration telemetry under executor fan-out:
/// `stream_migrations` and the steal counter are resolved by the
/// virtual-order claim protocol (DESIGN.md §3, `crates/sched`), so a
/// native cell is a pure function of its config — running the
/// claim-arbitrated rungs at every backend worker count in {1, 2, 4, 8}
/// inside the parallel executor must reproduce the serial counters
/// bit-for-bit for any `AFS_JOBS` worker count.
#[test]
fn native_claim_telemetry_parallel_is_bit_identical() {
    use affinity_sched::native::{run_native, zipf_workload, NativeConfig, Pinning};

    let cells: Vec<(PolicySpec, usize)> = [PolicySpec::Locking, PolicySpec::Ips]
        .into_iter()
        .flat_map(|p| [1usize, 2, 4, 8].map(|w| (p, w)))
        .collect();
    let run_cell = |&(policy, workers): &(PolicySpec, usize)| {
        let mut cfg = NativeConfig::new(workers, policy);
        cfg.pinning = Pinning::Off;
        cfg.seed = 0xC1A1;
        let r = run_native(
            &cfg,
            zipf_workload(64, 1_500, 30_000.0, 1.1, 4.0, None, 64, 0xC1A1),
        );
        (r.stream_migrations, r.steals, r.outcomes)
    };
    let serial: Vec<_> = cells.iter().map(run_cell).collect();
    // Non-vacuous: the grid actually migrates and steals somewhere.
    assert!(serial.iter().any(|&(m, _, _)| m > 0), "no migrations");
    assert!(serial.iter().any(|&(_, s, _)| s > 0), "no steals");
    for jobs in JOB_COUNTS {
        let par = parallel_map_jobs(jobs, &cells, run_cell);
        for (((policy, workers), a), b) in cells.iter().zip(&serial).zip(&par) {
            assert_eq!(
                a, b,
                "{policy:?} w={workers} jobs={jobs}: claim telemetry drifted"
            );
        }
    }
}

/// Replication summaries (Welford accumulation over per-seed runs) are
/// bit-identical for any worker count: reports come back in seed order
/// and are folded in that order.
#[test]
fn replication_parallel_is_bit_identical() {
    let mut cfg = SystemConfig::new(
        Paradigm::Locking {
            policy: LockPolicy::Mru,
        },
        afs_workload::Population::homogeneous_poisson(8, 500.0),
    );
    cfg.warmup = afs_desim::SimDuration::from_millis(50);
    cfg.horizon = afs_desim::SimDuration::from_millis(350);
    let serial = replicate_jobs(1, &cfg, 6);
    for jobs in JOB_COUNTS {
        let par = replicate_jobs(jobs, &cfg, 6);
        assert_eq!(serial.stable_count, par.stable_count);
        for (name, x, y) in [
            ("mean", serial.mean_delay_us.mean, par.mean_delay_us.mean),
            (
                "ci_half",
                serial.mean_delay_us.ci_half,
                par.mean_delay_us.ci_half,
            ),
            (
                "throughput mean",
                serial.throughput_pps.mean,
                par.throughput_pps.mean,
            ),
            (
                "service mean",
                serial.mean_service_us.mean,
                par.mean_service_us.mean,
            ),
        ] {
            assert_eq!(x.to_bits(), y.to_bits(), "replicate jobs {jobs}: {name}");
        }
        for (a, b) in serial.reports.iter().zip(&par.reports) {
            assert_reports_identical(a, b, &format!("replicate jobs {jobs}"));
        }
    }
}
