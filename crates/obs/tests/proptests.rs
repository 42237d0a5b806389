//! Property tests for the unified observability layer, driven by the
//! *real* backends (dev-dependency cycle, permitted by cargo): random
//! small configurations run through the simulator and the native
//! pinned-thread runtime, and the resulting traces must satisfy the
//! schema's lifecycle invariants regardless of policy, load or seed.
//!
//! The invariants:
//! * exactly one `Enqueue` per message, at most one `Dispatch` and one
//!   `Complete`, and a `Complete` only after a `Dispatch`;
//! * per-worker dispatch timestamps are monotone (virtual clocks never
//!   run backwards);
//! * steal conservation: `StealClaim` events and stolen-dispatch flags
//!   describe the same set of messages, and the `steals` counter counts
//!   them;
//! * attaching a recorder changes nothing about a simulator run;
//! * identical seed + config ⇒ byte-identical JSONL (seeded replay).

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;

use afs_core::prelude::*;
use afs_native::{poisson_workload, run_native, run_native_recorded, NativeConfig, PolicySpec};
use afs_obs::{MemRecorder, ObsEvent};

const CASES: u32 = 24;

/// A small random simulator configuration: short horizon, any paradigm.
fn sim_cfg(policy_ix: u8, streams: u8, rate: f64, procs: u8, seed: u64) -> SystemConfig {
    let paradigm = match policy_ix % 7 {
        0 => Paradigm::Locking {
            policy: LockPolicy::Baseline,
        },
        1 => Paradigm::Locking {
            policy: LockPolicy::Pools,
        },
        2 => Paradigm::Locking {
            policy: LockPolicy::Mru,
        },
        3 => Paradigm::Locking {
            policy: LockPolicy::Wired,
        },
        4 => Paradigm::Locking {
            policy: LockPolicy::MruLoad { max_backlog: 2 },
        },
        5 => Paradigm::Locking {
            policy: LockPolicy::MinReload,
        },
        _ => Paradigm::Ips {
            policy: IpsPolicy::Mru,
            n_stacks: 1 + (procs as usize).min(3),
        },
    };
    let mut cfg = SystemConfig::new(
        paradigm,
        Population::homogeneous_poisson(1 + streams as usize % 6, 80.0 + rate),
    );
    cfg.n_procs = 1 + procs as usize % 4;
    cfg.seed = seed;
    cfg.warmup = SimDuration::from_millis(10);
    cfg.horizon = SimDuration::from_millis(70);
    cfg
}

/// A small random native configuration plus its workload.
fn native_case(
    policy_ix: u8,
    workers: u8,
    streams: u8,
    rate: f64,
    seed: u64,
) -> (NativeConfig, Vec<afs_native::NativePacket>) {
    let spec = match policy_ix % 6 {
        0 => PolicySpec::Oblivious,
        1 => PolicySpec::Locking,
        2 | 3 => PolicySpec::Ips,
        4 => PolicySpec::MruLoad,
        _ => PolicySpec::MinReload,
    };
    let mut cfg = NativeConfig::new(1 + workers as usize % 3, spec);
    if policy_ix % 6 == 2 {
        cfg.layout.steal = None;
    }
    cfg.seed = seed ^ 0x0B5;
    let workload = poisson_workload(1 + streams as u32 % 6, 40, 60.0 + rate, 64, seed);
    (cfg, workload)
}

/// Check the lifecycle invariants on one event stream.
fn assert_lifecycle(events: &[ObsEvent]) -> Result<(), TestCaseError> {
    let mut enq: HashMap<u64, u32> = HashMap::new();
    let mut disp: HashMap<u64, u32> = HashMap::new();
    let mut comp: HashMap<u64, u32> = HashMap::new();
    let mut evicted: HashSet<u64> = HashSet::new();
    let mut last_dispatch_t: HashMap<u32, f64> = HashMap::new();
    let mut claim_seqs: HashSet<u64> = HashSet::new();
    let mut stolen_dispatch_seqs: HashSet<u64> = HashSet::new();

    for ev in events {
        match *ev {
            ObsEvent::Enqueue { seq, .. } => *enq.entry(seq).or_insert(0) += 1,
            ObsEvent::Dispatch {
                t_us,
                seq,
                worker,
                stolen,
                ..
            } => {
                *disp.entry(seq).or_insert(0) += 1;
                let last = last_dispatch_t.entry(worker).or_insert(f64::NEG_INFINITY);
                prop_assert!(
                    t_us >= *last,
                    "worker {worker} dispatch clock ran backwards: {t_us} < {last}"
                );
                *last = t_us;
                if stolen {
                    stolen_dispatch_seqs.insert(seq);
                }
            }
            ObsEvent::StealClaim { seq, from, to, .. } => {
                prop_assert!(from != to, "self-claim of seq {seq}");
                claim_seqs.insert(seq);
            }
            ObsEvent::Complete { seq, .. } => *comp.entry(seq).or_insert(0) += 1,
            ObsEvent::Evict { seq, .. } => {
                evicted.insert(seq);
            }
            ObsEvent::CacheCharge { .. }
            | ObsEvent::QueueDepth { .. }
            | ObsEvent::WorkerDown { .. }
            | ObsEvent::WorkerUp { .. }
            | ObsEvent::Orphaned { .. }
            | ObsEvent::Requeue { .. }
            | ObsEvent::TableMiss { .. }
            | ObsEvent::Rebind { .. } => {}
        }
    }

    for (&seq, &n) in &enq {
        prop_assert_eq!(n, 1, "message {} enqueued {} times", seq, n);
    }
    for (&seq, &n) in &disp {
        prop_assert_eq!(n, 1, "message {} dispatched {} times", seq, n);
        prop_assert!(enq.contains_key(&seq), "dispatch of never-enqueued {seq}");
        prop_assert!(!evicted.contains(&seq), "dispatch of evicted {seq}");
    }
    for (&seq, &n) in &comp {
        prop_assert_eq!(n, 1, "message {} completed {} times", seq, n);
        prop_assert!(
            disp.contains_key(&seq),
            "completion of never-dispatched {seq}"
        );
    }
    prop_assert_eq!(
        claim_seqs,
        stolen_dispatch_seqs,
        "steal claims and stolen dispatch flags describe different messages"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn simulator_traces_satisfy_the_lifecycle_invariants(
        policy_ix in 0u8..5,
        streams in 0u8..6,
        rate in 0.0f64..400.0,
        procs in 0u8..4,
        seed in any::<u64>(),
    ) {
        let mut rec = MemRecorder::new();
        let (report, _probe) = run_observed(&sim_cfg(policy_ix, streams, rate, procs, seed), &mut rec);
        assert_lifecycle(&rec.events)?;

        let c = &rec.counters;
        prop_assert_eq!(
            c.enqueued as i64,
            c.completed as i64 + c.evicted as i64 + c.in_flight(),
            "conservation violated"
        );
        prop_assert_eq!(c.dispatched, c.affinity_hits + c.stream_migrations);
        prop_assert!(c.completed_ok <= c.completed);
        prop_assert!(report.offered_total >= c.completed);
    }

    #[test]
    fn recorder_attachment_is_invisible_to_the_simulator(
        policy_ix in 0u8..5,
        streams in 0u8..6,
        rate in 0.0f64..400.0,
        procs in 0u8..4,
        seed in any::<u64>(),
    ) {
        let cfg = sim_cfg(policy_ix, streams, rate, procs, seed);
        let plain = run(&cfg);
        let mut rec = MemRecorder::new();
        let (observed, _probe) = run_observed(&cfg, &mut rec);
        prop_assert_eq!(plain, observed, "recorder changed the report");
    }

    #[test]
    fn identical_seed_and_config_replay_to_identical_jsonl(
        policy_ix in 0u8..5,
        streams in 0u8..6,
        rate in 0.0f64..400.0,
        procs in 0u8..4,
        seed in any::<u64>(),
    ) {
        let mut a = MemRecorder::new();
        let mut b = MemRecorder::new();
        let (ra, _) = run_observed(&sim_cfg(policy_ix, streams, rate, procs, seed), &mut a);
        let (rb, _) = run_observed(&sim_cfg(policy_ix, streams, rate, procs, seed), &mut b);
        prop_assert_eq!(ra, rb, "report replay diverged");
        prop_assert_eq!(
            afs_obs::jsonl::render(&a.events),
            afs_obs::jsonl::render(&b.events),
            "JSONL replay diverged"
        );
    }

    #[test]
    fn native_traces_satisfy_the_lifecycle_invariants(
        policy_ix in 0u8..4,
        workers in 0u8..3,
        streams in 0u8..6,
        rate in 0.0f64..300.0,
        seed in any::<u64>(),
    ) {
        let (cfg, workload) = native_case(policy_ix, workers, streams, rate, seed);
        let (report, rec) = run_native_recorded(&cfg, workload);
        assert_lifecycle(&rec.events)?;

        // The native runtime is lossless: the merged trace accounts for
        // every offered packet exactly once through each stage.
        let c = &rec.counters;
        prop_assert_eq!(c.enqueued, report.offered);
        prop_assert_eq!(c.dispatched, report.offered);
        prop_assert_eq!(c.completed, report.offered);
        prop_assert_eq!(c.evicted, 0);
        prop_assert_eq!(c.in_flight(), 0);
        prop_assert_eq!(c.steals, report.steals);
    }

    #[test]
    fn native_accounting_ignores_the_recorder(
        policy_ix in 0u8..4,
        workers in 0u8..3,
        streams in 0u8..6,
        rate in 0.0f64..300.0,
        seed in any::<u64>(),
    ) {
        let (cfg, workload) = native_case(policy_ix, workers, streams, rate, seed);
        let plain = run_native(&cfg, workload.clone());
        let (recorded, _rec) = run_native_recorded(&cfg, workload);
        prop_assert_eq!(plain.offered, recorded.offered);
        prop_assert_eq!(plain.outcomes, recorded.outcomes);
    }
}
