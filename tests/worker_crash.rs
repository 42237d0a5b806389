//! A worker the fault plan kills for good keeps draining its own ring:
//! every job it pops from its fatal job on is an orphan it hands back
//! when the dispatcher joins it, and recovery re-routes them in seq
//! order. Here the dead worker's backlog outgrows its ring, so the
//! dispatcher's blocking push must be relieved by the dead worker
//! itself.
//!
//! Two workers, IPS without stealing: streams 1 and 3 both belong to
//! worker 1. It serves the first of 300 packets, which all arrive
//! within 0.3 µs, and its clock is then past its crash instant
//! (0.5 µs), so the other 299 — more than the 64 slots of a batch-1
//! ring — are orphans the survivor serves on worker 1's stack. That the
//! run replays whole at every dequeue batch is its row of
//! `tests/determinism_matrix.rs`.
//!
//! Both backends fault a processor at a packet boundary: a packet in
//! service when its processor crashes or stalls completes there, at the
//! instant it would have without the fault, and is never orphaned.

use affinity_sched::core::crossval::{procfault_smoke_scenario, CrossvalScenario};
use affinity_sched::core::sim::run_observed;
use affinity_sched::native::crossval::{native_config, native_workload};
use affinity_sched::native::{
    run_native, run_native_recorded, FaultLoad, NativeConfig, NativePacket, NativeReport, Pinning,
    PolicySpec, ProcFault, ProcFaultKind, ProcFaultPlan,
};
use affinity_sched::obs::{MemRecorder, ObsEvent};
use affinity_sched::xkernel::driver::PacketFactory;
use affinity_sched::xkernel::StreamId;

const PACKETS: u64 = 300;

fn workload() -> Vec<NativePacket> {
    let mut factory = PacketFactory::new();
    (0..PACKETS)
        .map(|i| {
            let stream = StreamId(if i % 2 == 0 { 1 } else { 3 });
            NativePacket {
                bytes: factory.frame_for(stream, 32),
                stream,
                arrival_us: (i + 1) as f64 * 0.001,
            }
        })
        .collect()
}

fn run() -> NativeReport {
    let mut cfg = NativeConfig::new(2, PolicySpec::Ips);
    cfg.pinning = Pinning::Off;
    cfg.layout.steal = None;
    cfg.faults = ProcFaultPlan {
        faults: vec![ProcFault {
            proc: 1,
            at_us: 0.5,
            kind: ProcFaultKind::Crash { revive_at_us: None },
        }],
    };
    run_native(&cfg, workload())
}

#[test]
fn a_dead_workers_overflowing_ring_is_recovered_whole() {
    let r = run();
    assert_eq!(r.workers_crashed, 1);
    assert_eq!((r.orphaned, r.requeued), (PACKETS - 1, PACKETS - 1));
    assert_eq!(r.outcomes.total(), PACKETS);
    assert_eq!(r.outcomes.delivered, PACKETS);
    let processed: Vec<u64> = r.per_worker.iter().map(|w| w.processed).collect();
    assert_eq!(processed, [PACKETS - 1, 1]);
}

/// The first packet a fault-free trace dispatches past half its span:
/// `(seq, worker, start, service)`.
fn mid_run_dispatch(events: &[ObsEvent]) -> (u64, u32, f64, f64) {
    let end = events.iter().map(ObsEvent::t_us).fold(0.0, f64::max);
    events
        .iter()
        .find_map(|ev| match *ev {
            ObsEvent::Dispatch {
                t_us,
                seq,
                worker,
                service_us,
                ..
            } if t_us > end / 2.0 && service_us > 0.0 => Some((seq, worker, t_us, service_us)),
            _ => None,
        })
        .expect("a dispatch past mid-run")
}

/// Where and when `seq` completed.
fn completion(events: &[ObsEvent], seq: u64) -> (u32, f64) {
    events
        .iter()
        .find_map(|ev| match *ev {
            ObsEvent::Complete {
                t_us,
                seq: s,
                worker,
                ..
            } if s == seq => Some((worker, t_us)),
            _ => None,
        })
        .expect("every packet completes")
}

/// Crash, then stall, the processor of a fault-free run's mid-run
/// packet at its mid-service instant: the packet still completes on
/// that processor at its fault-free stamp, and is never orphaned.
fn assert_faults_act_at_packet_boundaries(
    backend: &str,
    trace: impl Fn(ProcFaultPlan) -> Vec<ObsEvent>,
) {
    let clean = trace(ProcFaultPlan::none());
    let (seq, p, start, service) = mid_run_dispatch(&clean);
    let done = completion(&clean, seq);
    assert_eq!(done.0, p);
    let mid = start + service / 2.0;
    for kind in [
        ProcFaultKind::Crash { revive_at_us: None },
        ProcFaultKind::Stall {
            duration_us: 2_000.0,
        },
    ] {
        let plan = ProcFaultPlan {
            faults: vec![ProcFault {
                proc: p as usize,
                at_us: mid,
                kind,
            }],
        };
        let events = trace(plan);
        assert_eq!(
            completion(&events, seq),
            done,
            "{backend}: {kind:?} of worker {p} at {mid} µs moved seq {seq}"
        );
        assert!(
            !events
                .iter()
                .any(|ev| matches!(*ev, ObsEvent::Orphaned { seq: s, .. } if s == seq)),
            "{backend}: {kind:?} of worker {p} at {mid} µs orphaned seq {seq}"
        );
    }
}

#[test]
fn a_packet_in_service_finishes_on_its_faulted_processor_on_both_backends() {
    let s = CrossvalScenario {
        packets_per_stream: 100,
        ..procfault_smoke_scenario()
    };
    let policy = PolicySpec::MruLoad;
    assert_faults_act_at_packet_boundaries("native", |plan| {
        let mut cfg = native_config(&s, policy, &FaultLoad::none());
        cfg.pinning = Pinning::Off;
        cfg.faults = plan;
        run_native_recorded(&cfg, native_workload(&s)).1.events
    });
    assert_faults_act_at_packet_boundaries("simulator", |plan| {
        let mut cfg = s.sim_config(policy, &FaultLoad::none());
        cfg.proc_faults = plan;
        let mut rec = MemRecorder::new();
        run_observed(&cfg, &mut rec);
        rec.events
    });
}
