//! Figure 2 (reconstructed) — the reload transient.
//!
//! Per-packet execution time versus packet index after a full cache
//! flush, measured on the instrumented protocol engine: the first packet
//! pays ≈ t_cold, later packets converge to t_warm as the footprint
//! reloads — the transient whose linear interpolation underlies the
//! analytic model.

use crate::{Artifact, Checks};
use afs_cache::sim::trace::Region;
use afs_xkernel::driver::{PacketFactory, RxFrame};
use afs_xkernel::mem::MemLayout;
use afs_xkernel::{CostModel, ProtocolEngine, StreamId, ThreadId};

pub fn experiment(_quick: bool, checks: &mut Checks) -> Vec<Artifact> {
    let cost = CostModel::default();
    let mut eng = ProtocolEngine::new(cost);
    eng.bind_stream(StreamId(0));
    let mut factory = PacketFactory::new();
    let mut hier = cost.hierarchy();
    let layout = MemLayout::new();

    // Warm fully first, then flush and observe the transient.
    for i in 0..40u32 {
        hier.purge_region(Region::PacketData);
        let frame = RxFrame {
            bytes: factory.frame_for(StreamId(0), 1),
            stream: StreamId(0),
            buf_addr: layout.packet(i % 8),
        };
        eng.receive_outcome(&mut hier, &frame, ThreadId(0));
    }
    hier.flush_all();

    let mut rows = Vec::new();
    let mut times = Vec::new();
    println!("{:>8} {:>12}", "packet", "time (us)");
    for i in 0..25u32 {
        hier.purge_region(Region::PacketData);
        let frame = RxFrame {
            bytes: factory.frame_for(StreamId(0), 1),
            stream: StreamId(0),
            buf_addr: layout.packet(i % 8),
        };
        let t = *eng.receive_outcome(&mut hier, &frame, ThreadId(0)).timing();
        println!("{:>8} {:>12.1}", i + 1, t.us);
        rows.push(format!("{},{:.2}", i + 1, t.us));
        times.push(t.us);
    }

    checks.expect(
        "first packet near t_cold (within 10% of 284.3 us)",
        (times[0] - 284.3).abs() / 284.3 < 0.10,
    );
    let tail: f64 = times[20..].iter().sum::<f64>() / 5.0;
    checks.expect(
        "steady state within 5% of t_warm (150.8 us)",
        (tail - 150.8).abs() / 150.8 < 0.05,
    );
    checks.expect(
        "second packet already within 2% of steady state (the fast path
         touches its whole footprint every packet, so one packet reloads it)",
        (times[1] - tail).abs() < 0.02 * tail,
    );
    checks.expect(
        "transient never undershoots the warm floor",
        times.iter().all(|&t| t >= tail * 0.99),
    );
    vec![Artifact::csv(
        "fig02.csv",
        "packet_index,exec_time_us",
        &rows,
    )]
}
