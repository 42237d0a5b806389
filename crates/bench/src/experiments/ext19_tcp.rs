//! Extension E19 — TCP receive-side processing under affinity
//! scheduling.
//!
//! The paper: *"Although TCP is a far more complex protocol than UDP, our
//! results are likely to hold directly for TCP … the breakdowns of
//! overall processing time overheads for TCP and UDP packets are very
//! similar, \[and\] at its most influential (1-byte packets) TCP-specific
//! processing only accounts for around 15 % of overall packet execution
//! time"* — and names TCP affinity scheduling as a compelling problem.
//!
//! This experiment (1) calibrates the TCP receive path the same way
//! Section 4 calibrates UDP, verifying the ~15 % share; (2) re-runs the
//! Locking policy comparison with the TCP-calibrated bounds, verifying
//! the paper's conjecture that the conclusions carry over.

use super::path_bounds;
use crate::{delay_or_inf, locking, template_with, Artifact, Checks, K_STREAMS};
use afs_cache::model::exec_time::{ComponentWeights, TimeBounds};
use afs_core::prelude::*;
use afs_xkernel::driver::{PacketFactory, RxFrame};
use afs_xkernel::mem::MemLayout;
use afs_xkernel::{CostModel, ProtocolEngine, StreamId, ThreadId};

pub fn experiment(quick: bool, checks: &mut Checks) -> Vec<Artifact> {
    // (1) TCP bounds via the Section-4 method.
    let [t_warm, t_l2, t_cold] = path_bounds(|| {
        let mut eng = ProtocolEngine::new(CostModel::default());
        eng.bind_tcp_stream(StreamId(0), 0);
        let mut factory = PacketFactory::new();
        let layout = MemLayout::new();
        move |hier, i| {
            let frame = RxFrame {
                bytes: factory.tcp_frame_for(StreamId(0), i, b"x"),
                stream: StreamId(0),
                buf_addr: layout.packet(i % 8),
            };
            let (out, _) = eng.receive_tcp_outcome(hier, &frame, ThreadId(0));
            assert!(out.is_delivered(), "calibration frames are valid");
            out.timing().us
        }
    });
    println!("TCP receive bounds: warm {t_warm:.1} / L2 {t_l2:.1} / cold {t_cold:.1} us");
    println!("  (UDP:             warm 151.1 / L2 226.3 / cold 284.1 us)");
    let warm_share = t_warm / 151.1 - 1.0;
    let cold_share = t_cold / 284.1 - 1.0;
    println!(
        "  TCP-specific share: {:.1}% warm, {:.1}% cold   [paper: ~15%]",
        100.0 * warm_share,
        100.0 * cold_share
    );

    // (2) The Locking policy comparison with TCP bounds.
    let exec = ExecParams::from_bounds(
        TimeBounds::new(t_warm, t_l2.clamp(t_warm, t_cold), t_cold),
        ComponentWeights::nominal(),
        ExecParams::calibrated().lock_overhead_us,
    );
    let k = K_STREAMS;
    let rates = [200.0, 800.0, 1600.0, 2200.0];
    println!(
        "\n{:>10} {:>12} {:>12} {:>12} {:>12}",
        "rate/s", "baseline", "mru", "wired", "reduction%"
    );
    let mut rows = vec![
        format!("t_warm_us,{t_warm:.2}"),
        format!("t_l2_us,{t_l2:.2}"),
        format!("t_cold_us,{t_cold:.2}"),
    ];
    let mut gains = Vec::new();
    for &r in &rates {
        let at_rate = |policy: LockPolicy| {
            let mut c = template_with(locking(policy), k, quick);
            c.exec = exec;
            c.population = c.population.clone().with_rate(r);
            run(&c)
        };
        let base = at_rate(LockPolicy::Baseline);
        let mru = at_rate(LockPolicy::Mru);
        let wired = delay_or_inf(&at_rate(LockPolicy::Wired));
        if base.stable && mru.stable {
            let red = 100.0 * (1.0 - mru.mean_delay_us.min(wired) / base.mean_delay_us);
            println!(
                "{r:>10.0} {:>12.1} {:>12.1} {wired:>12.1} {red:>12.1}",
                base.mean_delay_us, mru.mean_delay_us
            );
            rows.push(format!("reduction_at_{r:.0},{red:.2}"));
            gains.push(red);
        }
    }

    checks.expect(
        "TCP-specific warm share near the paper's ~15% (8-25%)",
        (0.08..0.25).contains(&warm_share),
    );
    checks.expect(
        "TCP-specific share SMALLER at cold (fixed costs dominate)",
        cold_share < warm_share,
    );
    checks.expect(
        "TCP bounds ordered warm < L2 < cold",
        t_warm < t_l2 && t_l2 < t_cold,
    );
    checks.expect(
        "affinity conclusions carry over to TCP (positive gains everywhere)",
        !gains.is_empty() && gains.iter().all(|&g| g > 3.0),
    );
    vec![Artifact::csv("ext19_tcp.csv", "key,value", &rows)]
}
