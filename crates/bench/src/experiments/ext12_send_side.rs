//! Extension E12 — send-side UDP/IP/FDDI processing (paper's future
//! work item i).
//!
//! Calibrates the send path the same way Section 4 calibrates the
//! receive path (warm / L2 / cold bounds over the simulated hierarchy),
//! then runs the affinity comparison with send-side bounds.

use super::path_bounds;
use crate::{locking, template_with, Artifact, Checks};
use afs_cache::model::exec_time::{ComponentWeights, TimeBounds};
use afs_core::prelude::*;
use afs_xkernel::mem::MemLayout;
use afs_xkernel::{CostModel, ProtocolEngine, StreamId, ThreadId};

pub fn experiment(quick: bool, checks: &mut Checks) -> Vec<Artifact> {
    let [t_warm, t_l2, t_cold] = path_bounds(|| {
        let mut eng = ProtocolEngine::new(CostModel::default());
        eng.bind_stream(StreamId(0));
        let layout = MemLayout::new();
        move |hier, i| {
            let buf = layout.packet(i % 8);
            let (t, _) = eng.send(hier, StreamId(0), &[0u8; 64], ThreadId(0), buf);
            t.us
        }
    });
    println!("send-side bounds: warm {t_warm:.1} us, L2 {t_l2:.1} us, cold {t_cold:.1} us");
    println!("  (receive-side: 150.8 / 221.2 / 287.2 us — send is lighter: no validation loops)");

    // Run the policy face-off with send-side bounds.
    let bounds = TimeBounds::new(t_warm, t_l2.clamp(t_warm, t_cold), t_cold);
    let exec = ExecParams::from_bounds(bounds, ComponentWeights::nominal(), 11.2);
    let k = 16;
    let rates = [200.0, 800.0, 1600.0, 2400.0];
    println!(
        "\n{:>10} {:>12} {:>12} {:>12}",
        "rate/s", "baseline", "mru", "reduction%"
    );
    let mut rows = vec![
        format!("t_warm_us,{t_warm:.2}"),
        format!("t_l2_us,{t_l2:.2}"),
        format!("t_cold_us,{t_cold:.2}"),
    ];
    let mut any_gain = false;
    for &r in &rates {
        let at_rate = |policy: LockPolicy| {
            let mut c = template_with(locking(policy), k, quick);
            c.exec = exec;
            c.population = c.population.clone().with_rate(r);
            run(&c)
        };
        let base = at_rate(LockPolicy::Baseline);
        let mru = at_rate(LockPolicy::Mru);
        if base.stable && mru.stable {
            let red = 100.0 * (1.0 - mru.mean_delay_us / base.mean_delay_us);
            println!(
                "{r:>10.0} {:>12.1} {:>12.1} {red:>12.1}",
                base.mean_delay_us, mru.mean_delay_us
            );
            rows.push(format!("reduction_at_{r:.0},{red:.2}"));
            if red > 5.0 {
                any_gain = true;
            }
        }
    }

    checks.expect(
        "send bounds ordered warm < L2 < cold",
        t_warm < t_l2 && t_l2 < t_cold,
    );
    checks.expect("send path cheaper than receive path (warm)", t_warm < 150.8);
    checks.expect(
        "send-side reload span in a similar band (25-60% of cold)",
        {
            let f = (t_cold - t_warm) / t_cold;
            (0.25..0.60).contains(&f)
        },
    );
    checks.expect(
        "affinity scheduling also pays off on the send side (>5%)",
        any_gain,
    );
    vec![Artifact::csv("ext12_send_side.csv", "key,value", &rows)]
}
