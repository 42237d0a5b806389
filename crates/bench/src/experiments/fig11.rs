//! Figure 11 — percent reduction in mean delay from affinity scheduling
//! under IPS, as a function of arrival rate, with `V` as curve parameter.
//!
//! The IPS analogue of Figure 10: the affinity-oblivious reference
//! places each runnable stack on a random idle processor; the affinity
//! curves use the better of stack-MRU and stack-wiring at each point.
//! Same methodology as Figure 10: reductions are read where the
//! reference is not yet saturated.

use super::{midpoint_capacity, reduction_curve};
use crate::{ips, template_with, write_csv, Checks, K_STREAMS};
use afs_core::prelude::*;

/// Pre-saturation reduction curve for one V; `(rate, reduction %)`.
fn curve_at(v: f64, k: usize, quick: bool) -> Vec<(f64, f64)> {
    let cap = midpoint_capacity(&ExecParams::calibrated(), v, false, k);
    let rates = [0.15, 0.3, 0.45, 0.6, 0.72, 0.82, 0.9, 0.95].map(|f| f * cap);
    let at_v = |policy: IpsPolicy| {
        let mut c = template_with(ips(policy, k), k, quick);
        c.v_fixed_us = v;
        c
    };
    reduction_curve(
        &at_v(IpsPolicy::Random),
        [&at_v(IpsPolicy::Mru), &at_v(IpsPolicy::Wired)],
        &rates,
    )
    .into_iter()
    .filter(|&(_, _, saturated)| !saturated)
    .map(|(rate, pct, _)| (rate, pct))
    .collect()
}

pub fn experiment(quick: bool, checks: &mut Checks) {
    let k = K_STREAMS;
    let vs = [0.0, 35.0, 70.0, 139.0];
    let mut rows = Vec::new();
    let mut peaks = Vec::new();
    println!("{:>6} {:>10} {:>12}", "V(us)", "rate/s", "reduction%");
    // Independent V families fan out on the AFS_JOBS executor (their
    // sweeps parallelize internally too); print in V order afterwards.
    let curves = parallel_map(&vs, |&v| curve_at(v, k, quick));
    for (&v, curve) in vs.iter().zip(&curves) {
        let mut peak = 0.0f64;
        for (r, pct) in curve {
            println!("{v:>6.0} {r:>10.0} {pct:>12.1}");
            rows.push(format!("{v},{r:.0},{pct:.2}"));
            peak = peak.max(*pct);
        }
        println!("  V={v:>3.0}: peak reduction {peak:.1}%");
        peaks.push(peak);
    }
    write_csv("fig11", "v_us,rate_per_stream,reduction_pct", &rows);

    checks.expect("V=0 peak reduction positive (>= 5%)", peaks[0] >= 5.0);
    checks.expect(
        "larger V yields smaller peak reduction (dilution, monotone)",
        peaks.windows(2).all(|w| w[1] <= w[0] + 1.0),
    );
    checks.expect(
        "V=139 cuts the benefit vs V=0 by >25% relatively",
        peaks[3] < 0.75 * peaks[0],
    );
}
