//! Figure 6 — affinity scheduling under Locking (K = N = 8 streams).
//!
//! Mean packet delay vs per-stream arrival rate for the Locking
//! paradigm, showing the marginal contribution of each affinity policy:
//! affinity-oblivious baseline → per-processor thread pools → MRU
//! processor scheduling → Wired-Streams.

use crate::{artifacts, print_table, Checks};
use afs_core::analysis::dominates;

pub fn experiment(quick: bool, checks: &mut Checks) {
    let data = artifacts::fig06(quick);
    print_table("pkts/s/stream", &data.rates, &data.series);
    data.artifact.write();

    let base = &data.series[0];
    let pools = &data.series[1];
    let mru = &data.series[2];
    checks.expect(
        "per-processor pools dominate the baseline",
        dominates(pools, base, 0.02),
    );
    checks.expect(
        "MRU dominates per-processor pools",
        dominates(mru, pools, 0.02),
    );
    checks.expect("MRU dominates the baseline", dominates(mru, base, 0.0));
    // Affinity gain at a low-to-moderate rate.
    let gain = 1.0 - mru.points[1].report.mean_delay_us / base.points[1].report.mean_delay_us;
    checks.expect("MRU cuts delay vs baseline by >8% at low load", gain > 0.08);
}
