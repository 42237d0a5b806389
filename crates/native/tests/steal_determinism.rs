//! The determinism the claim protocol buys (DESIGN.md §3,
//! `crates/sched`): with the stealing (IPS) or locking-pool rungs
//! active, the native backend's steal schedule is a pure function of
//! the arrival stream. At every worker count in {1, 2, 4, 8} and every
//! dequeue batch in {1, 8, 64}, repeat runs produce bit-identical
//! reports — including `stream_migrations` and the steal counters the
//! racy engine could only reproduce at a single worker — with and
//! without a seeded processor-fault plan.

use afs_core::procfault::{FaultLoad, ProcFaultPlan};
use afs_native::{run_native, zipf_workload, NativeConfig, NativePacket, Pinning, PolicySpec};

const WORKERS: [usize; 4] = [1, 2, 4, 8];
const BATCHES: [usize; 3] = [1, 8, 64];

/// The rungs whose arbitration goes through the claim table: the
/// locking pool (pooled claims) and IPS (steal claims).
const ENGAGED: [PolicySpec; 2] = [PolicySpec::Locking, PolicySpec::Ips];

fn workload() -> Vec<NativePacket> {
    zipf_workload(64, 2_000, 30_000.0, 1.1, 4.0, None, 64, 0x0057_EA1D)
}

fn config(workers: usize, policy: PolicySpec, faults: Option<&ProcFaultPlan>) -> NativeConfig {
    let mut cfg = NativeConfig::new(workers, policy);
    cfg.pinning = Pinning::Off;
    cfg.seed = 0x0057_EA1D;
    if let Some(plan) = faults {
        cfg.faults = plan.clone();
    }
    cfg
}

fn assert_schedule_pinned(policy: PolicySpec, faults: Option<&ProcFaultPlan>) {
    for workers in WORKERS {
        // A fault plan is drawn per worker count (victims are worker
        // indices), but within a worker count every batch and every
        // repeat sees the same plan.
        let plan = faults.map(|_| {
            let horizon = workload().last().unwrap().arrival_us;
            ProcFaultPlan::seeded(
                0xFA11,
                workers,
                (0.2 * horizon, horizon),
                &FaultLoad::light(),
            )
        });
        let base = run_native(&config(workers, policy, plan.as_ref()), workload());
        assert_eq!(base.outcomes.total(), base.offered, "lossy ledger");
        for batch in BATCHES {
            for repeat in 0..2 {
                let mut cfg = config(workers, policy, plan.as_ref());
                cfg.batch = batch;
                let got = run_native(&cfg, workload());
                // The full report must be bit-identical, and the
                // counters the racy engine could not pin are called
                // out by name so a regression reads directly.
                assert_eq!(
                    got.stream_migrations, base.stream_migrations,
                    "{policy:?} w={workers} batch={batch} rep={repeat}: migrations diverged"
                );
                assert_eq!(
                    got.steals, base.steals,
                    "{policy:?} w={workers} batch={batch} rep={repeat}: steal count diverged"
                );
                assert_eq!(
                    got, base,
                    "{policy:?} w={workers} batch={batch} rep={repeat} diverged"
                );
            }
        }
    }
}

#[test]
fn steal_schedules_are_bit_identical_without_faults() {
    for policy in ENGAGED {
        assert_schedule_pinned(policy, None);
    }
}

#[test]
fn steal_schedules_are_bit_identical_under_seeded_fault_plans() {
    let marker = ProcFaultPlan::default();
    for policy in ENGAGED {
        assert_schedule_pinned(policy, Some(&marker));
    }
}

/// The determinism claim is not vacuous: at multiple workers the IPS
/// rung actually steals under this workload, and the locking pool
/// actually migrates streams.
#[test]
fn the_pinned_schedules_exercise_arbitration() {
    let ips = run_native(&config(4, PolicySpec::Ips, None), workload());
    assert!(ips.steals > 0, "IPS never stole — the pin proves nothing");
    let lck = run_native(&config(4, PolicySpec::Locking, None), workload());
    assert!(
        lck.stream_migrations > ips.stream_migrations,
        "the pool must bounce streams more than IPS (lck {} vs ips {})",
        lck.stream_migrations,
        ips.stream_migrations
    );
}
