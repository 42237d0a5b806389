//! Differential pin of the trait-driven simulator against the
//! pre-refactor dispatch code.
//!
//! The bit patterns below were captured from the simulator *before* the
//! scheduling decisions moved into `afs-sched` (same seeds, same
//! configs). The refactor's contract is byte-for-byte equivalence: every
//! RNG draw, tie-break and dispatch ordering must survive the move, so
//! every report field must still reproduce these exact `f64` bits — a
//! tolerance comparison would hide a drifted draw order. One pin was
//! re-captured since, when its offered packets changed on purpose
//! ([`FDIR_MRU_LOAD_BITS`]).

use afs_core::analysis::validate_warmup;
use afs_core::crossval::{smoke_matrix, stream_smoke_matrix};
use afs_core::prelude::*;
use afs_core::sim::run;
use afs_sched::{FrontEndKind, PolicySpec};

/// (policy label, mean_delay_us, mean_service_us, throughput_pps) bits
/// for `smoke_matrix()[0]` under the three classic cross-policies,
/// captured pre-refactor.
const SMOKE_BITS: [(&str, u64, u64, u64); 3] = [
    (
        "oblivious",
        0x406de8cee2d86068,
        0x406bcdce2781af4f,
        0x40a7ed9999947623,
    ),
    (
        "locking",
        0x406da14e3a5edbb7,
        0x406b921bf1fe8be8,
        0x40a7ed9999947623,
    ),
    (
        "ips",
        0x406a9476a78789ff,
        0x40666a7138265683,
        0x40a7ed9999947623,
    ),
];

/// Same capture for the fig06 grid template (k = 8 streams, full
/// horizon, offered rate 1400 pps) under all five Locking policy rungs.
/// The first three were captured before the PR-5 `afs-sched` extraction;
/// the `mru_load`/`min_reload` rows were captured from that engine
/// before the PR-7 calendar-queue + SoA rewrite. Together they pin the
/// current core bit-for-bit to both predecessors.
const FIG06_BITS: [(u64, u64, u64); 5] = [
    (0x406dbf51aab9c032, 0x406db9d920bdd670, 0x40c601c000000000),
    (0x406bc104db54dc1c, 0x406bbdb8ad901361, 0x40c601c000000000),
    (0x406e8551e0dd2a4d, 0x40698c5eb57e3cf9, 0x40c6018000000000),
    (0x406dd5b2ea5a3d02, 0x40693b1af5ec58af, 0x40c6018000000000),
    (0x406b09e22fd8adf6, 0x406b01c6163f58e7, 0x40c601c000000000),
];

/// (mean_delay_us, mean_service_us, throughput_pps) bits of the variants
/// the pins above leave out, captured before the policy decisions became
/// plain methods and Locking enqueue routing moved onto `Router`: the
/// Hybrid with a mixed wired mask and IPS Random / Wired, each on the
/// fig06 template at 1400 pps.
const VARIANT_BITS: [(&str, (u64, u64, u64)); 3] = [
    (
        "hybrid",
        (0x406e49f08ec5e949, 0x4069ec1759be7844, 0x40c601c000000000),
    ),
    (
        "ips_random",
        (0x40701e35b78b158e, 0x406a938ad8b2932c, 0x40c6018000000000),
    ),
    (
        "ips_wired",
        (0x406a63c0f284c86b, 0x4066a4159c984746, 0x40c6018000000000),
    ),
];

/// Flow Director + MruLoad on `stream_smoke_matrix()[0]`: the three
/// report bits plus (ooo_deliveries, table_misses, rebinds). Captured
/// with [`VARIANT_BITS`], then re-captured once when the Zipf flows
/// became one arrival source seeded like the native workload: the
/// offered packets changed (mean delay 1 016.5 → 895.4 µs; 721, 3 046,
/// 2 361 before).
const FDIR_MRU_LOAD_BITS: ((u64, u64, u64), (u64, u64, u64)) = (
    (0x408bfafdc63da779, 0x4067c05bbec99e53, 0x40c66dffffb2eea4),
    (687, 2761, 2044),
);

/// `validate_warmup(..).recommended` in ticks for the Locking/MRU
/// config of `warmup_recommendation_is_pinned`, captured with
/// [`VARIANT_BITS`].
const WARMUP_RECOMMENDED_TICKS: u64 = 1_018_560;

fn assert_report_bits(label: &str, r: &RunReport, (delay, svc, thr): (u64, u64, u64)) {
    let got = (
        r.mean_delay_us.to_bits(),
        r.mean_service_us.to_bits(),
        r.throughput_pps.to_bits(),
    );
    assert_eq!(
        got,
        (delay, svc, thr),
        "{label}: (delay, service, throughput) bits drifted (got {got:x?})"
    );
}

#[test]
fn hybrid_and_ips_variants_are_bit_identical_to_pre_refactor() {
    let wired = (0..8).map(|s| s % 2 == 0).collect();
    let paradigms = [
        Paradigm::Locking {
            policy: LockPolicy::Hybrid { wired },
        },
        afs_bench::ips(IpsPolicy::Random, 8),
        afs_bench::ips(IpsPolicy::Wired, 8),
    ];
    for (paradigm, (label, bits)) in paradigms.into_iter().zip(VARIANT_BITS) {
        let mut cfg = afs_bench::template_with(paradigm, 8, false);
        cfg.population = cfg.population.clone().with_rate(1400.0);
        assert_report_bits(label, &run(&cfg), bits);
    }
}

#[test]
fn flow_director_mru_load_cell_is_bit_identical_to_pre_refactor() {
    let s = stream_smoke_matrix()[0];
    let r = run(&s.sim_config(FrontEndKind::FlowDirector, PolicySpec::MruLoad));
    let (bits, counts) = FDIR_MRU_LOAD_BITS;
    assert_report_bits("fdir/mru-load", &r, bits);
    assert_eq!(
        (r.ooo_deliveries, r.table_misses, r.rebinds),
        counts,
        "fdir/mru-load: (ooo, misses, rebinds) drifted"
    );
}

#[test]
fn warmup_recommendation_is_pinned() {
    let mut cfg = SystemConfig::new(
        Paradigm::Locking {
            policy: LockPolicy::Mru,
        },
        Population::homogeneous_poisson(8, 600.0),
    );
    cfg.warmup = SimDuration::from_millis(150);
    cfg.horizon = SimDuration::from_millis(900);
    let check = validate_warmup(&cfg).expect("enough completions");
    assert_eq!(check.recommended.ticks(), WARMUP_RECOMMENDED_TICKS);
}

#[test]
fn smoke_crossval_cells_are_bit_identical_to_pre_refactor() {
    let s = &smoke_matrix()[0];
    for (label, delay, svc, thr) in SMOKE_BITS {
        let p = PolicySpec::ALL
            .into_iter()
            .find(|p| p.label() == label)
            .expect("classic policy present");
        let r = run(&s.sim_config(p, &FaultLoad::none()));
        assert_eq!(
            r.mean_delay_us.to_bits(),
            delay,
            "{label}: mean delay drifted (got {:#018x})",
            r.mean_delay_us.to_bits()
        );
        assert_eq!(
            r.mean_service_us.to_bits(),
            svc,
            "{label}: mean service drifted (got {:#018x})",
            r.mean_service_us.to_bits()
        );
        assert_eq!(
            r.throughput_pps.to_bits(),
            thr,
            "{label}: throughput drifted (got {:#018x})",
            r.throughput_pps.to_bits()
        );
    }
}

#[test]
fn fig06_template_cells_are_bit_identical_to_pre_refactor() {
    let policies = [
        ("baseline", LockPolicy::Baseline),
        ("mru", LockPolicy::Mru),
        ("wired", LockPolicy::Wired),
        (
            "mru_load",
            LockPolicy::MruLoad {
                max_backlog: afs_sched::DEFAULT_MRU_LOAD_BOUND,
            },
        ),
        ("min_reload", LockPolicy::MinReload),
    ];
    for ((label, policy), (delay, svc, thr)) in policies.into_iter().zip(FIG06_BITS) {
        let mut cfg = afs_bench::template_with(Paradigm::Locking { policy }, 8, false);
        cfg.population = cfg.population.clone().with_rate(1400.0);
        let r = run(&cfg);
        assert_eq!(
            r.mean_delay_us.to_bits(),
            delay,
            "fig06 {label}: mean delay drifted (got {:#018x})",
            r.mean_delay_us.to_bits()
        );
        assert_eq!(
            r.mean_service_us.to_bits(),
            svc,
            "fig06 {label}: mean service drifted (got {:#018x})",
            r.mean_service_us.to_bits()
        );
        assert_eq!(
            r.throughput_pps.to_bits(),
            thr,
            "fig06 {label}: throughput drifted (got {:#018x})",
            r.throughput_pps.to_bits()
        );
    }
}
