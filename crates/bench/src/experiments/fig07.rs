//! Figure 7 — Locking with many streams (K = 32 > N): the MRU/Wired
//! crossover.
//!
//! The paper's conclusion: "Under Locking, processors should be managed
//! MRU — except under high arrival rate, when Wired-Streams scheduling
//! performs better." With K = 32 streams over 8 processors, MRU wins at
//! low and moderate load (work-conserving, keeps the code footprint
//! concentrated) but saturates earlier than Wired, which never migrates
//! stream state and therefore has the lower service time — and the
//! higher capacity — at the top of the range.

use crate::{artifacts, print_table, Checks};
use afs_core::analysis::crossover_index;

pub fn experiment(quick: bool, checks: &mut Checks) {
    let k = 32;
    let data = artifacts::fig07(quick);
    print_table("pkts/s/stream", &data.rates, &data.series);
    data.artifact.write();
    let rates = &data.rates;

    let mru = &data.series[1];
    let wired = &data.series[2];
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
}
