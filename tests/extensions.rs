//! Cross-crate integration for the extension features: TCP-calibrated
//! simulation, trace-replay workloads, empirical packet sizes, and the
//! ICMP error path under simulated load.

use affinity_sched::prelude::*;
use afs_cache::model::exec_time::{ComponentWeights, TimeBounds};
use afs_workload::{ArrivalGen, SizeDist, StreamSpec};

fn quick(paradigm: Paradigm, population: Population) -> SystemConfig {
    let mut cfg = SystemConfig::new(paradigm, population);
    cfg.warmup = SimDuration::from_millis(60);
    cfg.horizon = SimDuration::from_millis(400);
    cfg
}

#[test]
fn tcp_bounds_through_the_scheduler() {
    // TCP-ish bounds (≈15 % over UDP) pushed through the full simulator:
    // affinity ordering must be preserved.
    let exec = ExecParams::from_bounds(
        TimeBounds::new(173.8, 254.0, 315.7),
        ComponentWeights::nominal(),
        24.6,
    );
    let mk = |policy: LockPolicy| {
        let mut c = quick(
            Paradigm::Locking { policy },
            Population::homogeneous_poisson(12, 500.0),
        );
        c.exec = exec;
        run(&c)
    };
    let base = mk(LockPolicy::Baseline);
    let mru = mk(LockPolicy::Mru);
    assert!(base.stable && mru.stable);
    assert!(
        mru.mean_delay_us < base.mean_delay_us,
        "affinity ordering must hold under TCP bounds: {} vs {}",
        mru.mean_delay_us,
        base.mean_delay_us
    );
    // Service levels reflect the heavier TCP path.
    assert!(mru.mean_service_us > 195.0, "svc {}", mru.mean_service_us);
}

#[test]
fn replayed_trace_drives_the_simulator_deterministically() {
    // A recorded gap trace (bursty: pairs of back-to-back packets) as
    // the offered workload.
    let gaps = vec![0.0, 2_000.0, 0.0, 6_000.0, 0.0, 4_000.0];
    let population = Population {
        streams: (0..6)
            .map(|_| StreamSpec {
                arrivals: ArrivalGen::replay(gaps.clone()),
                sizes: SizeDist::tiny(),
            })
            .collect(),
    };
    let expected_rate = population.total_rate_per_sec();
    let cfg = quick(
        Paradigm::Locking {
            policy: LockPolicy::Mru,
        },
        population,
    );
    let a = run(&cfg);
    let b = run(&cfg);
    assert!(a.stable);
    assert_eq!(a.mean_delay_us, b.mean_delay_us, "replay is deterministic");
    // Offered rate matches the trace's analytic rate closely (the trace
    // itself is deterministic; only phase effects remain).
    assert!(
        (a.offered_pps - expected_rate).abs() < 0.05 * expected_rate,
        "offered {} vs trace rate {}",
        a.offered_pps,
        expected_rate
    );
}

#[test]
fn empirical_packet_sizes_flow_through_copy_costs() {
    // Empirical sizes + the paper's 32 B/µs copy rate: mean service must
    // shift by mean(size)/32 µs.
    let sizes = vec![64.0, 64.0, 512.0, 4096.0];
    let mean_size = sizes.iter().sum::<f64>() / sizes.len() as f64;
    let mut population = Population::homogeneous_poisson(8, 300.0);
    for s in &mut population.streams {
        s.sizes = SizeDist(afs_desim::Dist::empirical(sizes.clone()));
    }
    let mut with_copy = quick(
        Paradigm::Locking {
            policy: LockPolicy::Mru,
        },
        population.clone(),
    );
    with_copy.copy_us_per_byte = 1.0 / 32.0;
    let mut without = with_copy.clone();
    without.copy_us_per_byte = 0.0;
    let rc = run(&with_copy);
    let r0 = run(&without);
    let diff = rc.mean_service_us - r0.mean_service_us;
    let expect = mean_size / 32.0;
    assert!(
        (diff - expect).abs() < 0.25 * expect,
        "copy cost shift {diff:.1} vs expected {expect:.1}"
    );
}

#[test]
fn icmp_errors_scale_with_unbound_traffic() {
    use afs_xkernel::driver::{PacketFactory, RxFrame};
    use afs_xkernel::mem::MemLayout;
    use afs_xkernel::{ProtocolEngine, StreamId, ThreadId};
    let mut eng = ProtocolEngine::new(CostModel::default());
    eng.bind_stream(StreamId(0));
    let mut hier = CostModel::default().hierarchy();
    let mut f = PacketFactory::new();
    let layout = MemLayout::new();
    let mut bounced = 0;
    for i in 0..50u32 {
        // Alternate bound and unbound streams.
        let sid = StreamId(i % 2);
        let frame = RxFrame {
            bytes: f.frame_for(sid, 8),
            stream: sid,
            buf_addr: layout.packet(i % 8),
        };
        if !eng
            .receive_outcome(&mut hier, &frame, ThreadId(0))
            .is_delivered()
        {
            bounced += 1;
        }
    }
    assert_eq!(bounced, 25);
    assert_eq!(eng.icmp_egress.len(), 25, "one ICMP per bounced datagram");
    assert_eq!(eng.table.session(StreamId(0)).unwrap().packets, 25);
}

#[test]
fn mser_validates_experiment_scale_warmup() {
    // The experiment harness' standard template must have an adequate
    // warm-up per MSER-5 — guarding every figure's methodology.
    let mut cfg = quick(
        Paradigm::Locking {
            policy: LockPolicy::Mru,
        },
        Population::homogeneous_poisson(16, 700.0),
    );
    cfg.warmup = SimDuration::from_millis(150);
    cfg.horizon = SimDuration::from_millis(1_000);
    let check = afs_core::analysis::validate_warmup(&cfg).expect("enough data");
    assert!(check.adequate, "{check:?}");
}
