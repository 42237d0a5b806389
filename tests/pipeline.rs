//! Cross-crate integration: the measurement→model→simulation pipeline.
//!
//! These tests exercise the same end-to-end path the experiments use:
//! instrumented protocol engine over simulated caches → calibrated
//! analytic model → scheduling simulation, plus the queueing-theoretic
//! sanity anchors.

use affinity_sched::prelude::*;
use afs_cache::model::exec_time::ComponentAges;
use afs_cache::sim::trace::Region;
use afs_desim::stats::littles_law_gap;

/// A small, fast configuration for debug-mode integration runs.
fn quick(paradigm: Paradigm, k: usize, rate: f64) -> SystemConfig {
    let mut cfg = SystemConfig::new(paradigm, Population::homogeneous_poisson(k, rate));
    cfg.warmup = SimDuration::from_millis(80);
    cfg.horizon = SimDuration::from_millis(480);
    cfg
}

#[test]
fn calibration_feeds_simulation_consistently() {
    let cal = calibrate(&CostModel::default());
    let exec = ExecParams::calibrated();
    // The simulation's model must reproduce the calibrated bounds.
    let warm = exec.protocol_time(ComponentAges::ALL_WARM).as_micros_f64();
    let cold = exec.protocol_time(ComponentAges::ALL_COLD).as_micros_f64();
    // SimDuration rounds to nanosecond ticks: tolerate that.
    assert!((warm - cal.bounds.t_warm_us).abs() < 1e-3);
    assert!((cold - cal.bounds.t_cold_us).abs() < 1e-3);
    // And a simulated service time must live between them (plus lock).
    let r = afs_core::sim::run(&quick(
        Paradigm::Locking {
            policy: LockPolicy::Mru,
        },
        8,
        300.0,
    ));
    assert!(r.mean_service_us >= warm + exec.lock_overhead_us - 1.0);
    assert!(
        r.mean_service_us
            <= cold + exec.lock_overhead_us + 0.35 * cal.bounds.reload_span_us() + 1.0
    );
}

#[test]
fn protocol_engine_agrees_with_wire_formats() {
    // The instrumented engine and the plain parsers must agree on real
    // frames end to end.
    use afs_xkernel::driver::{PacketFactory, RxFrame};
    use afs_xkernel::mem::MemLayout;
    use afs_xkernel::{ProtocolEngine, StreamId, ThreadId};
    let mut eng = ProtocolEngine::new(CostModel::default());
    eng.bind_stream(StreamId(5));
    let mut hier = CostModel::default().hierarchy();
    let mut factory = PacketFactory::new();
    // Max UDP payload: 4432-byte FDDI payload minus IP + UDP headers.
    for len in [0usize, 1, 57, 1024, 4404] {
        let frame = RxFrame {
            bytes: factory.frame_for(StreamId(5), len),
            stream: StreamId(5),
            buf_addr: MemLayout::new().packet(0),
        };
        let out = eng.receive_outcome(&mut hier, &frame, ThreadId(0));
        assert!(out.is_delivered(), "parse ok");
        let t = out.timing();
        assert_eq!(t.payload_bytes, len);
        assert_eq!(t.stream, StreamId(5));
    }
    assert_eq!(eng.table.session(StreamId(5)).unwrap().packets, 5);
}

#[test]
fn mm1_sanity_single_processor() {
    // One processor, one stream, constant-ish service: delay must sit
    // between the M/D/1 and M/M/1 predictions' neighbourhood.
    let mut cfg = quick(
        Paradigm::Locking {
            policy: LockPolicy::Wired,
        },
        1,
        2_000.0,
    );
    cfg.n_procs = 1;
    cfg.horizon = SimDuration::from_millis(900);
    let r = afs_core::sim::run(&cfg);
    assert!(r.stable);
    let svc = r.mean_service_us;
    let rho = 2_000.0 * svc / 1e6;
    assert!(rho < 0.5, "test assumes moderate load, rho = {rho}");
    // M/D/1 wait = rho*svc/(2(1-rho)); M/M/1 wait = rho*svc/(1-rho).
    let md1 = svc + rho * svc / (2.0 * (1.0 - rho));
    let mm1 = svc + rho * svc / (1.0 - rho);
    assert!(
        r.mean_delay_us >= md1 * 0.97 && r.mean_delay_us <= mm1 * 1.03,
        "delay {} outside [{md1:.1}, {mm1:.1}]",
        r.mean_delay_us
    );
}

#[test]
fn littles_law_on_full_pipeline() {
    let r = afs_core::sim::run(&quick(
        Paradigm::Ips {
            policy: IpsPolicy::Wired,
            n_stacks: 8,
        },
        8,
        900.0,
    ));
    assert!(r.stable);
    let gap = littles_law_gap(
        // Recompute from the report's own fields.
        r.throughput_pps * r.mean_delay_us / 1e6,
        r.throughput_pps,
        r.mean_delay_us / 1e6,
    );
    assert!(gap < 1e-9, "self-consistency");
    assert!(r.littles_gap < 0.1, "measured gap {}", r.littles_gap);
}

#[test]
fn cache_sim_analytic_agreement_smoke() {
    // A compressed version of the Figure 5 cross-validation.
    use afs_cache::model::fit::fit_sst;
    use afs_cache::model::flush::flushed_fraction;
    use afs_cache::sim::cache::Cache;
    use afs_cache::sim::synth::{measure_growth, SynthParams, SynthWorkload};
    let platform = afs_cache::model::platform::Platform::sgi_challenge_r4400();
    let obs = measure_growth(
        3,
        SynthParams::mvs_like(),
        &[4_000, 16_000, 64_000],
        &[16, 32, 64, 128],
    );
    let fitted = fit_sst(&obs).expect("fit");

    let mut l1 = Cache::new(platform.l1);
    let lines: Vec<u64> = (0..512).collect();
    for &l in &lines {
        l1.access(l * 16, Region::Code);
    }
    let mut gen = SynthWorkload::new(9, 1 << 32, SynthParams::mvs_like());
    let refs = 30_000u64;
    for _ in 0..refs {
        let r = gen.next_ref();
        if r.addr & 4 == 0 {
            l1.access(r.addr, Region::NonProtocol);
        }
    }
    let sim_f1 = 1.0 - l1.resident_fraction(&lines);
    let u = fitted.footprint(refs as f64 * 0.5, 16.0);
    let model_f1 = flushed_fraction(u, platform.l1.sets(), 1);
    assert!(
        (sim_f1 - model_f1).abs() < 0.2,
        "sim {sim_f1:.3} vs model {model_f1:.3}"
    );
}

#[test]
fn end_to_end_determinism() {
    let a = afs_core::sim::run(&quick(
        Paradigm::Locking {
            policy: LockPolicy::Baseline,
        },
        12,
        500.0,
    ));
    let b = afs_core::sim::run(&quick(
        Paradigm::Locking {
            policy: LockPolicy::Baseline,
        },
        12,
        500.0,
    ));
    assert_eq!(a.mean_delay_us, b.mean_delay_us);
    assert_eq!(a.delivered, b.delivered);
    assert_eq!(a.stream_migration_rate, b.stream_migration_rate);
}

#[test]
fn real_threads_match_simulated_demux() {
    // Both paradigms on actual pinned OS threads deliver exactly what
    // the single-threaded engine would: every packet, to its own stream.
    use affinity_sched::native::{poisson_workload, run_native, NativeConfig, PolicySpec};
    let workload = || poisson_workload(5, 8, 1_000.0, 16, 0xAF5);
    let lock = run_native(&NativeConfig::new(3, PolicySpec::Locking), workload());
    let ips = run_native(&NativeConfig::new(2, PolicySpec::Ips), workload());
    assert_eq!(lock.outcomes.delivered, 40);
    assert_eq!(ips.outcomes.delivered, 40);
    assert_eq!(lock.per_stream_delivered, vec![8; 5]);
    assert_eq!(lock.per_stream_delivered, ips.per_stream_delivered);
}
