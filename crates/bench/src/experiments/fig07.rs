//! Figure 7 — Locking with many streams (K = 32 > N): the MRU/Wired
//! crossover.
//!
//! The paper's conclusion: "Under Locking, processors should be managed
//! MRU — except under high arrival rate, when Wired-Streams scheduling
//! performs better." With K = 32 streams over 8 processors, MRU wins at
//! low and moderate load (work-conserving, keeps the code footprint
//! concentrated) but saturates earlier than Wired, which never migrates
//! stream state and therefore has the lower service time — and the
//! higher capacity — at the top of the range. `results/fig07.csv` is a
//! golden file, like fig06's.

use crate::{locking, print_table, series_csv, template_with, Artifact, Checks};
use afs_core::analysis::crossover_index;
use afs_core::prelude::*;

pub fn experiment(quick: bool, checks: &mut Checks) -> Vec<Artifact> {
    let k = 32;
    let rates: Vec<f64> = vec![
        50.0, 100.0, 200.0, 350.0, 500.0, 700.0, 900.0, 1100.0, 1250.0, 1350.0, 1450.0,
    ];
    let series: Vec<Series> = [
        ("baseline", LockPolicy::Baseline),
        ("mru", LockPolicy::Mru),
        ("wired", LockPolicy::Wired),
    ]
    .into_iter()
    .map(|(label, p)| rate_sweep(label, &template_with(locking(p), k, quick), &rates))
    .collect();
    print_table("pkts/s/stream", &rates, &series);

    let mru = &series[1];
    let wired = &series[2];
    checks.expect(
        "MRU better than Wired at low rate",
        mru.points[0].report.mean_delay_us < wired.points[0].report.mean_delay_us,
    );
    let cross = crossover_index(mru, wired);
    checks.expect(
        "a crossover exists: Wired wins at high rate",
        cross.is_some(),
    );
    if let Some(i) = cross {
        println!(
            "  crossover at ~{:.0} pkts/s/stream ({:.0} aggregate)",
            rates[i],
            rates[i] * k as f64
        );
        checks.expect(
            "crossover in the upper half of the range",
            i >= rates.len() / 2,
        );
    }
    checks.expect(
        "Wired survives to higher rates than MRU (capacity extension)",
        wired.max_stable_rate().unwrap_or(0.0) >= mru.max_stable_rate().unwrap_or(0.0),
    );
    vec![series_csv("fig07.csv", &rates, &series)]
}
