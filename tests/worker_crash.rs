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

use affinity_sched::native::{
    run_native, NativeConfig, NativePacket, NativeReport, Pinning, PolicySpec, ProcFault,
    ProcFaultKind, ProcFaultPlan,
};
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
