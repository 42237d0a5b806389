//! The table-driven dispatch pricer is exact to the tick — tier-1 smoke.
//!
//! `afs_cache::model::pricer::DispatchPricer::price` reads `F1/F2` from
//! a table of cubics and lets the model's own libm expression decide
//! whenever the table cannot (module docs there; the full-size battery
//! is `cargo test --release -p afs-cache pricer`). Two bounded pieces of
//! that battery run here, from outside the crate, plus the claim that
//! matters downstream: whole simulator runs reproduce, field by field
//! and bit for bit, the reports captured at the parent commit (3ef27fa,
//! the libm-only pricer) — everything but `mean_f1`/`mean_f2`, which
//! average the displacements the table read and may move by ≤ 1e-8.
//!
//! One field per cell was re-captured since: `delay_ci_half_us`, when
//! batch means became streaming (16–31 closed batches of a power-of-two
//! size instead of 16 equal batches of every stored delay). The
//! estimator changed, not the run: every other field is the 3ef27fa
//! capture. Locking/MRU 0.566 → 0.573 µs, IPS 2.045 → 2.315 µs, the
//! faulted FDir cell 131.5 → 124.3 µs.
//!
//! The faulted FDir cell was re-captured whole once more, when its
//! Zipf flows became one arrival source seeded like the native
//! workload: the offered packets changed, so every field moved (mean
//! delay 1 001.0 → 975.1 µs, 4 831 → 4 789 arrivals). The pricer did
//! not change; the two Locking and IPS cells are still the 3ef27fa
//! capture.

use affinity_sched::cache::model::{Age, ComponentAges, DispatchPricer};
use affinity_sched::core::crossval::stream_smoke_matrix;
use affinity_sched::core::prelude::*;
use affinity_sched::native::FrontEndKind;
use affinity_sched::sched::PolicySpec;

/// splitmix64.
fn rng(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed;
    move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let z = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// `Warm`/`Cold`/`Remote` one draw in eight each, else `Elapsed`
/// log-uniform over 1 ns – 2 000 s.
fn random_age(next: &mut impl FnMut() -> u64) -> Age {
    match next() % 8 {
        0 => Age::Warm,
        1 => Age::Cold,
        2 => Age::Remote,
        _ => {
            let unit = (next() >> 11) as f64 / (1u64 << 53) as f64;
            Age::Elapsed(SimDuration::from_ticks((2e12f64.ln() * unit).exp() as u64))
        }
    }
}

#[test]
fn price_is_tick_exact_over_seeded_triples() {
    let model = ExecParams::calibrated().model;
    let pricer = DispatchPricer::new(&model);
    let mut next = rng(0x5eed_2301);
    for i in 0..150_000u32 {
        let code_global = random_age(&mut next);
        let thread = if i % 4 == 0 {
            code_global
        } else {
            random_age(&mut next)
        };
        let stream = if i % 2 == 0 {
            thread
        } else {
            random_age(&mut next)
        };
        let ages = ComponentAges {
            code_global,
            thread,
            stream,
        };
        assert_eq!(
            pricer.price(ages).0,
            model.protocol_time(ages),
            "tick diverged for {ages:?}"
        );
    }
}

/// Ages whose *model* time lies within 0.001 ns of a `k + ½` boundary:
/// the table's sum is within 0.0004 ns of it, hence inside the pricer's
/// `δ = 0.002 ns` — the exact path must decide, and decide as the model.
#[test]
fn ages_at_a_half_tick_boundary_take_the_model_tick() {
    let model = ExecParams::calibrated().model;
    let pricer = DispatchPricer::new(&model);
    let b = model.bounds;
    let w = model.weights;
    let mut forced = 0;
    for ticks in (2_000u64..).step_by(13).take(100_000) {
        let x = SimDuration::from_ticks(ticks);
        let ages = ComponentAges::uniform(x);
        let d = model.flush.displacement(x);
        let reload = d.f1 * (b.t_l2_us - b.t_warm_us) + d.f2 * (b.t_cold_us - b.t_l2_us);
        let ns =
            (b.t_warm_us + w.code_global * reload + w.thread * reload + w.stream * reload) * 1e3;
        if ((ns - ns.floor()) - 0.5).abs() < 1e-3 {
            forced += 1;
            assert_eq!(pricer.price(ages).0, model.protocol_time(ages), "{ns} ns");
        }
    }
    assert!(forced >= 100, "only {forced} boundary ages in the scan");
}

/// Every `RunReport` field but `mean_f1`/`mean_f2`, by bit pattern (the
/// two vectors folded); the destructuring fails to compile when a field
/// is added without a decision here.
fn fields(r: &RunReport) -> Vec<(&'static str, u64)> {
    let RunReport {
        mean_delay_us,
        delay_ci_half_us,
        p95_delay_us,
        max_delay_us,
        mean_service_us,
        throughput_pps,
        offered_pps,
        delivered,
        arrivals,
        utilization,
        mean_f1: _,
        mean_f2: _,
        stream_migration_rate,
        thread_migration_rate,
        per_stream_delay_us,
        per_proc_served,
        littles_gap,
        stable,
        goodput_pps,
        drop_rate,
        wire_drops,
        queue_drops,
        shed_at_source,
        corrupted,
        proc_crashes,
        proc_stalls,
        orphaned,
        requeued,
        wasted_service_frac,
        offered_total,
        completed_total,
        shed_total,
        in_flight,
        ooo_deliveries,
        table_misses,
        rebinds,
    } = r;
    let fold = |it: &mut dyn Iterator<Item = u64>| {
        it.fold(0xcbf2_9ce4_8422_2325u64, |h, x| {
            (h ^ x).wrapping_mul(0x0100_0000_01b3)
        })
    };
    vec![
        ("mean_delay_us", mean_delay_us.to_bits()),
        ("delay_ci_half_us", delay_ci_half_us.to_bits()),
        ("p95_delay_us", p95_delay_us.unwrap_or(f64::NAN).to_bits()),
        ("max_delay_us", max_delay_us.to_bits()),
        ("mean_service_us", mean_service_us.to_bits()),
        ("throughput_pps", throughput_pps.to_bits()),
        ("offered_pps", offered_pps.to_bits()),
        ("delivered", *delivered),
        ("arrivals", *arrivals),
        ("utilization", utilization.to_bits()),
        ("stream_migration_rate", stream_migration_rate.to_bits()),
        ("thread_migration_rate", thread_migration_rate.to_bits()),
        (
            "per_stream_delay_us",
            fold(&mut per_stream_delay_us.iter().map(|x| x.to_bits())),
        ),
        (
            "per_proc_served",
            fold(&mut per_proc_served.iter().copied()),
        ),
        ("littles_gap", littles_gap.to_bits()),
        ("stable", u64::from(*stable)),
        ("goodput_pps", goodput_pps.to_bits()),
        ("drop_rate", drop_rate.to_bits()),
        ("wire_drops", *wire_drops),
        ("queue_drops", *queue_drops),
        ("shed_at_source", *shed_at_source),
        ("corrupted", *corrupted),
        ("proc_crashes", *proc_crashes),
        ("proc_stalls", *proc_stalls),
        ("orphaned", *orphaned),
        ("requeued", *requeued),
        ("wasted_service_frac", wasted_service_frac.to_bits()),
        ("offered_total", *offered_total),
        ("completed_total", *completed_total),
        ("shed_total", *shed_total),
        ("in_flight", *in_flight),
        ("ooo_deliveries", *ooo_deliveries),
        ("table_misses", *table_misses),
        ("rebinds", *rebinds),
    ]
}

/// One cell's capture at the parent commit: [`fields`] in order, then
/// `mean_f1` and `mean_f2` as the libm-only pricer averaged them.
struct Captured {
    fields: [u64; 34],
    mean_f1: f64,
    mean_f2: f64,
}

fn population() -> Population {
    Population::homogeneous_poisson(16, 700.0)
}

fn short(mut cfg: SystemConfig) -> SystemConfig {
    cfg.warmup = SimDuration::from_millis(100);
    cfg.horizon = SimDuration::from_millis(900);
    cfg
}

/// The paper's base case: Locking/MRU, 8 processors, 16 streams.
fn locking_mru_cell() -> SystemConfig {
    short(SystemConfig::new(
        Paradigm::Locking {
            policy: LockPolicy::Mru,
        },
        population(),
    ))
}

/// IPS/MRU over 8 stacks with a data-touching overhead.
fn ips_cell() -> SystemConfig {
    let mut cfg = short(SystemConfig::new(
        Paradigm::Ips {
            policy: IpsPolicy::Mru,
            n_stacks: 8,
        },
        population(),
    ));
    cfg.v_fixed_us = 30.0;
    cfg
}

/// Flow Director over a min-reload fallback (one priced candidate per
/// live worker per routed packet), half the cores slowed ×1.7 and one
/// packet in twenty corrupt.
fn fdir_min_reload_faulted_cell() -> SystemConfig {
    let s = stream_smoke_matrix()[0];
    let mut cfg = s.sim_config(FrontEndKind::FlowDirector, PolicySpec::MinReload);
    cfg.faults.corrupt_p = 0.05;
    let load = FaultLoad {
        slow_frac: 0.5,
        slow_factor: 1.7,
        ..FaultLoad::none()
    };
    let window = (cfg.warmup.as_micros_f64(), cfg.horizon.as_micros_f64());
    cfg.proc_faults = ProcFaultPlan::seeded(0xAF5_2300, cfg.n_procs, window, &load);
    assert_eq!(cfg.proc_faults.faults.len(), 2, "two slowed cores");
    cfg
}

const LOCKING_MRU: Captured = Captured {
    fields: [
        0x406bea5502eb7f53, // mean_delay_us
        0x3fe259a2fac4b90a, // delay_ci_half_us
        0x4071300000000000, // p95_delay_us
        0x4076c6624dd2f1aa, // max_delay_us
        0x406be3e03e2f8008, // mean_service_us
        0x40c6288000000000, // throughput_pps
        0x40c629c000000000, // offered_pps
        0x0000000000002374, // delivered
        0x0000000000002376, // arrivals
        0x3fd4401f024eb9c3, // utilization
        0x3fea19f3235071ba, // stream_migration_rate
        0x0000000000000000, // thread_migration_rate
        0x556c7bd442b90480, // per_stream_delay_us
        0x430d62e3b27c01f5, // per_proc_served
        0x3f02a701d6c4f3a0, // littles_gap
        0x0000000000000001, // stable
        0x40c6288000000000, // goodput_pps
        0x0000000000000000, // drop_rate
        0x0000000000000000, // wire_drops
        0x0000000000000000, // queue_drops
        0x0000000000000000, // shed_at_source
        0x0000000000000000, // corrupted
        0x0000000000000000, // proc_crashes
        0x0000000000000000, // proc_stalls
        0x0000000000000000, // orphaned
        0x0000000000000000, // requeued
        0x0000000000000000, // wasted_service_frac
        0x00000000000027ad, // offered_total
        0x00000000000027a8, // completed_total
        0x0000000000000000, // shed_total
        0x0000000000000005, // in_flight
        0x000000000000002e, // ooo_deliveries
        0x0000000000000000, // table_misses
        0x0000000000000000, // rebinds
    ],
    mean_f1: 0.28991281602703356,
    mean_f2: 0.03334196408756224,
};

const IPS: Captured = Captured {
    fields: [
        0x406f7fc7f1aaad4a, // mean_delay_us
        0x4002846ee0e771b1, // delay_ci_half_us
        0x407a900000000000, // p95_delay_us
        0x40894dac083126e9, // max_delay_us
        0x406a17da2f80fc6d, // mean_service_us
        0x40c6288000000000, // throughput_pps
        0x40c629c000000000, // offered_pps
        0x0000000000002374, // delivered
        0x0000000000002376, // arrivals
        0x3fd2f21b6e1a8e49, // utilization
        0x3faf3235071ba463, // stream_migration_rate
        0x3faf3235071ba463, // thread_migration_rate
        0x45c3d68d1c25a528, // per_stream_delay_us
        0xe2697d57394d5370, // per_proc_served
        0x3ef62bb3f896acd6, // littles_gap
        0x0000000000000001, // stable
        0x40c6288000000000, // goodput_pps
        0x0000000000000000, // drop_rate
        0x0000000000000000, // wire_drops
        0x0000000000000000, // queue_drops
        0x0000000000000000, // shed_at_source
        0x0000000000000000, // corrupted
        0x0000000000000000, // proc_crashes
        0x0000000000000000, // proc_stalls
        0x0000000000000000, // orphaned
        0x0000000000000000, // requeued
        0x0000000000000000, // wasted_service_frac
        0x00000000000027ad, // offered_total
        0x00000000000027a7, // completed_total
        0x0000000000000000, // shed_total
        0x0000000000000006, // in_flight
        0x0000000000000000, // ooo_deliveries
        0x0000000000000000, // table_misses
        0x0000000000000000, // rebinds
    ],
    mean_f1: 0.3061966819295117,
    mean_f2: 0.03305665857794137,
};

const FDIR_MIN_RELOAD_FAULTED: Captured = Captured {
    fields: [
        0x408e78b5479f34db, // mean_delay_us
        0x406a90ba7f07a9fd, // delay_ci_half_us
        0x40a6120000000000, // p95_delay_us
        0x40bed5a5e353f7cf, // max_delay_us
        0x4068c07752bf7752, // mean_service_us
        0x40c666cccc7fd42e, // throughput_pps
        0x40c672cccc7faaf2, // offered_pps
        0x00000000000011a0, // delivered
        0x00000000000012b5, // arrivals
        0x3fe1b3a43854eae4, // utilization
        0x3fb3b01d0cb58f6f, // stream_migration_rate
        0x0000000000000000, // thread_migration_rate
        0xfd9b686f8f4f83ea, // per_stream_delay_us
        0x59c284827793fa9d, // per_proc_served
        0x3f74f2f649d80ba9, // littles_gap
        0x0000000000000001, // stable
        0x40c52666661dbaaa, // goodput_pps
        0x0000000000000000, // drop_rate
        0x0000000000000000, // wire_drops
        0x0000000000000000, // queue_drops
        0x0000000000000000, // shed_at_source
        0x000000000000010b, // corrupted
        0x0000000000000000, // proc_crashes
        0x0000000000000000, // proc_stalls
        0x0000000000000000, // orphaned
        0x0000000000000000, // requeued
        0x3f9fae06e4dabdfa, // wasted_service_frac
        0x0000000000001a26, // offered_total
        0x0000000000001a1c, // completed_total
        0x0000000000000000, // shed_total
        0x000000000000000a, // in_flight
        0x00000000000001dd, // ooo_deliveries
        0x0000000000000acc, // table_misses
        0x000000000000084c, // rebinds
    ],
    mean_f1: 0.09740456788069152,
    mean_f2: 0.011202279643220181,
};

#[test]
fn whole_runs_reproduce_the_parent_commit_reports() {
    for (label, cfg, want) in [
        ("locking/mru", locking_mru_cell(), LOCKING_MRU),
        ("ips/mru", ips_cell(), IPS),
        (
            "fdir+min-reload, slowed, corrupt",
            fdir_min_reload_faulted_cell(),
            FDIR_MIN_RELOAD_FAULTED,
        ),
    ] {
        let r = run(&cfg);
        assert!(r.delivered > 2_000, "{label}: {} delivered", r.delivered);
        for ((name, got), want) in fields(&r).into_iter().zip(want.fields) {
            assert_eq!(got, want, "{label}: {name} moved (got {got:#018x})");
        }
        for (name, got, want) in [
            ("mean_f1", r.mean_f1, want.mean_f1),
            ("mean_f2", r.mean_f2, want.mean_f2),
        ] {
            assert!(
                (got - want).abs() <= 1e-8,
                "{label}: {name} {got:?} vs {want:?}"
            );
        }
    }
}
