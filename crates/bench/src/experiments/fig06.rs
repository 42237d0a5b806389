//! Figure 6 — affinity scheduling under Locking (K = N = 8 streams).
//!
//! Mean packet delay vs per-stream arrival rate for the Locking
//! paradigm, showing the marginal contribution of each affinity policy:
//! affinity-oblivious baseline → per-processor thread pools → MRU
//! processor scheduling → Wired-Streams. `results/fig06.csv` is a
//! golden file: `tests/golden_artifacts.rs` runs this entry at full
//! horizon and diffs what it returns.

use crate::{locking, print_table, series_csv, template_with, Artifact, Checks};
use afs_core::analysis::dominates;
use afs_core::prelude::*;

pub fn experiment(quick: bool, checks: &mut Checks) -> Vec<Artifact> {
    let k = 8;
    let rates: Vec<f64> = vec![
        200.0, 400.0, 800.0, 1400.0, 2000.0, 2800.0, 3600.0, 4200.0, 4800.0, 5200.0,
    ];
    // Series order matches the plot legend.
    let series: Vec<Series> = [
        ("baseline", LockPolicy::Baseline),
        ("pools", LockPolicy::Pools),
        ("mru", LockPolicy::Mru),
        ("wired", LockPolicy::Wired),
    ]
    .into_iter()
    .map(|(label, p)| rate_sweep(label, &template_with(locking(p), k, quick), &rates))
    .collect();
    print_table("pkts/s/stream", &rates, &series);

    let base = &series[0];
    let pools = &series[1];
    let mru = &series[2];
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
    vec![series_csv("fig06.csv", &rates, &series)]
}
