//! The determinism contract, pinned in one place: a run is a pure
//! function of its (config, seed).
//!
//! Every row is one configuration (its worker count `W` and its fault
//! plan included), run once as its base. Every column reruns the row
//! under a perturbation that must not move a bit: the dequeue batch
//! (1, 8, 64), the `AFS_JOBS` fan-out (1, 8), the recorder (off, on) or
//! nothing at all (a repeat). Each column's whole report is checked
//! against the base with `assert_eq!`, and a recorded row's rendered
//! JSONL against the row's first recorded column. No field is picked
//! out anywhere.
//!
//! | rows | columns |
//! |---|---|
//! | simulator: Figure 6's sweep, the ext22 / ext24 / ext25 smoke cells, a replication study | `AFS_JOBS` 8 |
//! | replay: the ext25 stream cells (front end × rung), the router layouts (every rung at `W = 3`), the Locking / IPS claim rows (`W` ∈ {1, 2, 4, 8} × no faults / a seeded plan), the dead worker whose ring overflows | batch {1 (the repeat), 8, 64} × recorder {off, on}; all at `AFS_JOBS` 8 |
//! | serve: direct, pooled and stealing rungs, under- and overloaded | repeat, batch 8, batch 64; all at `AFS_JOBS` 8 |
//!
//! Bases run at `AFS_JOBS` 1. Release runs the full packet counts (CI's
//! determinism matrix step); the debug tier-1 run divides them by
//! [`SHRINK`]. Each row family also checks that it exercises what it
//! pins: steals, migrations, crashes, orphans, table misses, reordering,
//! drops and deep queues.

use std::fmt::Debug;

use affinity_sched::native::crossval::{native_stream_config, native_stream_workload};
use affinity_sched::native::{
    run_native, run_native_recorded, run_serve, zipf_workload, NativeConfig, NativePacket,
    NativeReport, Pinning, ProcFault, ProcFaultKind, ServeConfig,
};
use affinity_sched::obs::jsonl;
use affinity_sched::xkernel::driver::PacketFactory;
use affinity_sched::xkernel::StreamId;
use afs_bench::template_with;
use afs_core::config::{LockPolicy, Paradigm, SystemConfig};
use afs_core::crossval::{
    fault_levels, procfault_smoke_scenario, smoke_matrix, stream_smoke_matrix, STREAM_POLICIES,
};
use afs_core::metrics::RunReport;
use afs_core::par::parallel_map_jobs;
use afs_core::procfault::{FaultLoad, ProcFaultPlan};
use afs_core::replicate::replicate_jobs;
use afs_core::sim::run;
use afs_core::sweep::rate_sweep_jobs;
use afs_sched::{FrontEndKind, PolicySpec};

/// The fanned-out column's `AFS_JOBS`; bases run at 1.
const JOBS: usize = 8;

/// Packet counts are divided by this in the debug tier-1 run.
const SHRINK: u64 = if cfg!(debug_assertions) { 4 } else { 1 };

/// A replay row's columns: (batch, recorder on). Batch 1 with the
/// recorder off is the repeat.
const REPLAY_COLUMNS: [(usize, bool); 6] = [
    (1, false),
    (8, false),
    (64, false),
    (1, true),
    (8, true),
    (64, true),
];

/// A serve row's columns: the batch.
const SERVE_COLUMNS: [usize; 3] = [1, 8, 64];

// ---- simulator rows ----

/// Simulate `cells` at `AFS_JOBS` 1 and 8: every report equal, in cell
/// order. Returns the bases for the caller's vacuity checks.
fn check_sim_rows<T: Sync + Debug>(
    name: &str,
    cells: &[T],
    config: impl Fn(&T) -> SystemConfig + Sync,
) -> Vec<RunReport> {
    let sim = |cell: &T| run(&config(cell));
    let base = parallel_map_jobs(1, cells, sim);
    let fanned = parallel_map_jobs(JOBS, cells, sim);
    for ((cell, a), b) in cells.iter().zip(&base).zip(&fanned) {
        assert_eq!(b, a, "{name} {cell:?} at AFS_JOBS {JOBS}");
    }
    base
}

/// Figure 6's policy grid (Locking K = 8) on the smoke horizon.
#[test]
fn simulator_fig06_rows() {
    let rates = [200.0, 800.0, 2000.0, 3600.0, 4800.0];
    for policy in [LockPolicy::Baseline, LockPolicy::Mru, LockPolicy::Wired] {
        let t = template_with(Paradigm::Locking { policy }, 8, true);
        let base = rate_sweep_jobs(1, "fig06", &t, &rates);
        assert_eq!(rate_sweep_jobs(JOBS, "fig06", &t, &rates), base);
    }
}

/// The ext22 cross-validation cells' simulator side.
#[test]
fn simulator_crossval_rows() {
    let cells: Vec<_> = smoke_matrix()
        .into_iter()
        .flat_map(|s| PolicySpec::ALL.map(|p| (s, p)))
        .collect();
    check_sim_rows("ext22", &cells, |(s, p)| {
        s.sim_config(*p, &FaultLoad::none())
    });
}

/// The ext24 fault cells' simulator side: crash, stall and slow-core
/// plans over every rung.
#[test]
fn simulator_fault_rows() {
    let s = procfault_smoke_scenario();
    let cells: Vec<_> = fault_levels()
        .into_iter()
        .flat_map(|(level, load)| PolicySpec::ALL.map(|p| (level, load, p)))
        .collect();
    let base = check_sim_rows("ext24", &cells, |(_, load, p)| s.sim_config(*p, load));
    assert!(base.iter().any(|r| r.proc_crashes > 0), "no crash fired");
}

/// The ext25 stream cells' simulator side: NIC front ends steering a
/// Zipf population through bounded tables and stream caches.
#[test]
fn simulator_stream_rows() {
    let cells: Vec<_> = stream_smoke_matrix()
        .into_iter()
        .flat_map(|s| {
            FrontEndKind::ALL
                .into_iter()
                .flat_map(move |k| STREAM_POLICIES.map(|p| (s, k, p)))
        })
        .collect();
    let base = check_sim_rows("ext25", &cells, |(s, k, p)| s.sim_config(*k, *p));
    assert!(base.iter().any(|r| r.table_misses > 0), "no table miss");
    assert!(base.iter().any(|r| r.ooo_deliveries > 0), "no reordering");
}

/// A replication study: per-seed runs folded in seed order.
#[test]
fn simulator_replication_rows() {
    let mut cfg = SystemConfig::new(
        Paradigm::Locking {
            policy: LockPolicy::Mru,
        },
        afs_workload::Population::homogeneous_poisson(8, 500.0),
    );
    cfg.warmup = afs_desim::SimDuration::from_millis(50);
    cfg.horizon = afs_desim::SimDuration::from_millis(350);
    assert_eq!(replicate_jobs(JOBS, &cfg, 6), replicate_jobs(1, &cfg, 6));
}

// ---- replay rows ----

struct Replay {
    label: String,
    cfg: NativeConfig,
    packets: Vec<NativePacket>,
}

impl Replay {
    fn new(label: String, mut cfg: NativeConfig, packets: Vec<NativePacket>) -> Self {
        cfg.pinning = Pinning::Off;
        Replay {
            label,
            cfg,
            packets,
        }
    }

    /// The run of one column, and its rendered trace and deepest queue
    /// when recorded.
    fn run(&self, batch: usize, recorded: bool) -> (NativeReport, Option<(String, u64)>) {
        let mut cfg = self.cfg.clone();
        cfg.batch = batch;
        if !recorded {
            return (run_native(&cfg, self.packets.clone()), None);
        }
        let (report, rec) = run_native_recorded(&cfg, self.packets.clone());
        let trace = jsonl::render(&rec.events);
        (report, Some((trace, rec.counters.max_queue_depth)))
    }
}

/// Run every row's base at `AFS_JOBS` 1, then every row's columns with
/// the rows fanned out at `AFS_JOBS` 8: every base is lossless, every
/// column's report equals its base and the recorded columns render one
/// JSONL. Returns each row's base and its deepest recorded queue.
fn check_replay_rows(rows: &[Replay]) -> Vec<(NativeReport, u64)> {
    let bases = parallel_map_jobs(1, rows, |row| row.run(1, false).0);
    let rows: Vec<(&Replay, NativeReport)> = rows.iter().zip(bases).collect();
    parallel_map_jobs(JOBS, &rows, |(row, base)| {
        // Replay is lossless: every packet reaches one outcome.
        let offered = row.packets.len() as u64;
        assert_eq!(
            (base.offered, base.outcomes.total()),
            (offered, offered),
            "{}",
            row.label
        );
        let mut first: Option<String> = None;
        let mut deepest = 0;
        for (batch, recorded) in REPLAY_COLUMNS {
            let column = format!("{}: batch {batch}, recorded {recorded}", row.label);
            let (report, trace) = row.run(batch, recorded);
            assert_eq!(&report, base, "{column}");
            if let Some((trace, depth)) = trace {
                deepest = deepest.max(depth);
                match &first {
                    Some(want) => assert!(&trace == want, "{column}: the JSONL moved"),
                    None => first = Some(trace),
                }
            }
        }
        (base.clone(), deepest)
    })
}

#[test]
fn replay_stream_rows() {
    let mut rows = Vec::new();
    for mut s in stream_smoke_matrix() {
        s.total_packets /= SHRINK;
        for kind in FrontEndKind::ALL {
            for policy in STREAM_POLICIES {
                let label = format!("{} {} {}", s.label(), kind.label(), policy.label());
                let cfg = native_stream_config(&s, kind, policy);
                rows.push(Replay::new(label, cfg, native_stream_workload(&s)));
            }
        }
    }
    let bases = check_replay_rows(&rows);
    let fdir = |row: &Replay| {
        row.cfg
            .frontend
            .is_some_and(|plan| plan.config.kind == FrontEndKind::FlowDirector)
    };
    let misses: Vec<u64> = rows
        .iter()
        .zip(&bases)
        .filter(|(row, _)| fdir(row))
        .map(|(_, (r, _))| r.table_misses)
        .collect();
    assert!(
        !misses.is_empty() && misses.iter().all(|&m| m > 0),
        "an fdir row never missed: {misses:?}"
    );
}

/// Every rung routed by its own layout (no front end) at `W = 3`, on a
/// Zipf load that overloads the workers: the virtual backlog runs past
/// the 64 slots of a batch-1 ring.
#[test]
fn replay_router_rows() {
    const SEED: u64 = 0x0D3E_7A11;
    let packets = zipf_workload(64, 6_000 / SHRINK, 30_000.0, 1.1, 4.0, None, 64, SEED);
    let rows: Vec<Replay> = PolicySpec::ALL
        .into_iter()
        .map(|policy| {
            let mut cfg = NativeConfig::new(3, policy);
            cfg.seed = SEED;
            Replay::new(policy.label().to_owned(), cfg, packets.clone())
        })
        .collect();
    for (row, (base, deepest)) in rows.iter().zip(check_replay_rows(&rows)) {
        assert!(deepest > 64, "{}: the queues never ran deep", row.label);
        if row.cfg.layout.steal.is_some() {
            assert!(
                base.steals > 0,
                "{}: the stealing row never stole",
                row.label
            );
        }
    }
}

/// The rungs whose arbitration goes through the claim table — the
/// Locking pool (pooled claims) and IPS (steal claims) — at every worker
/// count, with and without a seeded processor-fault plan (drawn per
/// worker count: victims are worker indices).
#[test]
fn replay_claim_rows() {
    const SEED: u64 = 0x0057_EA1D;
    let packets = zipf_workload(64, 2_000 / SHRINK, 30_000.0, 1.1, 4.0, None, 64, SEED);
    let horizon = packets.last().unwrap().arrival_us;
    let mut rows = Vec::new();
    for policy in [PolicySpec::Locking, PolicySpec::Ips] {
        for workers in [1, 2, 4, 8] {
            let plan = ProcFaultPlan::seeded(
                0xFA11,
                workers,
                (0.2 * horizon, horizon),
                &FaultLoad::light(),
            );
            for faults in [ProcFaultPlan::none(), plan] {
                let mut cfg = NativeConfig::new(workers, policy);
                cfg.seed = SEED;
                let label = format!(
                    "{} W={workers} faults={}",
                    policy.label(),
                    faults.faults.len()
                );
                cfg.faults = faults;
                rows.push(Replay::new(label, cfg, packets.clone()));
            }
        }
    }
    let bases = check_replay_rows(&rows);
    let base = |policy: PolicySpec, workers: usize| {
        let at = rows.iter().position(|row| {
            row.cfg.spec == policy && row.cfg.workers == workers && row.cfg.faults.is_noop()
        });
        &bases[at.expect("the row ran")].0
    };
    let (ips, locking) = (base(PolicySpec::Ips, 4), base(PolicySpec::Locking, 4));
    assert!(ips.steals > 0, "IPS never stole");
    assert!(
        locking.stream_migrations > ips.stream_migrations,
        "the pool must bounce streams more than IPS (locking {} vs ips {})",
        locking.stream_migrations,
        ips.stream_migrations
    );
    assert!(
        bases.iter().any(|(r, _)| r.orphaned > 0),
        "no fault plan crashed a worker with work on it"
    );
}

/// A worker the plan kills for good drains its own ring into its
/// orphans (the scenario of `tests/worker_crash.rs`): IPS without
/// stealing on two workers, streams 1 and 3 both on worker 1, which
/// crashes after its first packet with 299 more — past the 64 slots of
/// a batch-1 ring — still to come.
#[test]
fn replay_worker_crash_row() {
    let mut factory = PacketFactory::new();
    let packets = (0..300u32)
        .map(|i| {
            let stream = StreamId(if i % 2 == 0 { 1 } else { 3 });
            NativePacket {
                bytes: factory.frame_for(stream, 32),
                stream,
                arrival_us: f64::from(i + 1) * 0.001,
            }
        })
        .collect();
    let mut cfg = NativeConfig::new(2, PolicySpec::Ips);
    cfg.layout.steal = None;
    cfg.faults = ProcFaultPlan {
        faults: vec![ProcFault {
            proc: 1,
            at_us: 0.5,
            kind: ProcFaultKind::Crash { revive_at_us: None },
        }],
    };
    let rows = [Replay::new("worker crash".into(), cfg, packets)];
    let (base, _) = &check_replay_rows(&rows)[0];
    assert_eq!(base.workers_crashed, 1);
    assert!(base.orphaned > 64, "{} orphans", base.orphaned);
}

// ---- serve rows ----

/// Serve every row's base at `AFS_JOBS` 1, then its columns with the
/// rows fanned out at `AFS_JOBS` 8: every column's report equals the
/// base. Returns the bases.
fn check_serve_rows(rows: &[(&str, ServeConfig)]) -> Vec<NativeReport> {
    let bases = parallel_map_jobs(1, rows, |(_, cfg)| run_serve(cfg, None));
    let rows: Vec<_> = rows.iter().zip(&bases).collect();
    parallel_map_jobs(JOBS, &rows, |((label, cfg), base)| {
        for batch in SERVE_COLUMNS {
            let mut cfg = cfg.clone();
            cfg.native.batch = batch;
            assert_eq!(&run_serve(&cfg, None), *base, "{label}: batch {batch}");
        }
    });
    bases
}

#[test]
fn serve_rows() {
    let small = |kind: FrontEndKind, policy: PolicySpec| {
        let mut cfg = ServeConfig::new(2, 64, kind, policy);
        cfg.native.pinning = Pinning::Off;
        cfg.native.queue_capacity = 64;
        cfg.offered_pps = 40_000.0;
        cfg.total_packets = 12_000 / SHRINK;
        cfg.warmup_packets = cfg.total_packets / 4;
        cfg
    };
    let mut overload = small(FrontEndKind::FlowDirector, PolicySpec::MruLoad);
    overload.native.queue_capacity = 16;
    overload.offered_pps = 4_000_000.0;
    // The 4 KiB stealing overload at a 20 000-flow population.
    let mut stealing = ServeConfig::new(3, 20_000, FrontEndKind::FlowDirector, PolicySpec::Ips);
    stealing.native.pinning = Pinning::Off;
    stealing.native.queue_capacity = 64;
    stealing.payload_bytes = 4_096;
    stealing.offered_pps = 2.0 * stealing.rated_capacity_pps();
    stealing.total_packets = 12_000 / SHRINK;
    stealing.warmup_packets = stealing.total_packets / 5;
    let rows = [
        (
            "tf/min-reload",
            small(FrontEndKind::TransportFriendly, PolicySpec::MinReload),
        ),
        (
            "fdir/locking",
            small(FrontEndKind::FlowDirector, PolicySpec::Locking),
        ),
        ("rss/ips", small(FrontEndKind::Rss, PolicySpec::Ips)),
        ("fdir/mru-load overload", overload),
        ("fdir/ips 4 KiB overload", stealing),
    ];
    let bases = check_serve_rows(&rows);
    for ((label, _), r) in rows.iter().zip(&bases) {
        assert!(r.ledger_balanced(), "{label}");
        if label.contains("overload") {
            assert!(r.dropped > 0, "{label}: the overload row never dropped");
        }
        if label.contains("ips") {
            assert!(r.steals > 0, "{label}: the stealing row never stole");
        }
    }
}
