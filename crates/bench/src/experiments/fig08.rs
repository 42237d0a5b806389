//! Figure 8 (reconstructed) — IPS vs Locking, and the IPS Wired/MRU
//! crossover.
//!
//! Abstract: "IPS (which maximizes cache affinity) delivers much lower
//! message latency and significantly higher message throughput
//! capacity." Conclusion: "Under IPS, independent stacks should be wired
//! to processors — except under low arrival rate, when MRU processor
//! scheduling performs better."
//!
//! Locking's capacity lies in the grid's top four rates, so those cells
//! decide the capacity claim, and they run at the full horizon in smoke
//! too: the stability test flags a backlog that grows linearly from the
//! start only when the horizon exceeds five warm-ups, which the smoke
//! horizon (650 ms after 150 ms) does not — it judges Locking-Wired
//! stable at 38 ms mean delay.

use crate::{ips, locking, print_table, series_csv, template_with, Artifact, Checks, K_STREAMS};
use afs_core::prelude::*;

pub fn experiment(quick: bool, checks: &mut Checks) -> Vec<Artifact> {
    let k = K_STREAMS;
    let rates: Vec<f64> = vec![
        100.0, 200.0, 400.0, 700.0, 1000.0, 1400.0, 1800.0, 2200.0, 2500.0, 2700.0, 2900.0, 3100.0,
    ];
    let (below, saturating) = rates.split_at(rates.len() - 4);
    let series: Vec<Series> = [
        ("lock-mru", locking(LockPolicy::Mru)),
        ("lock-wired", locking(LockPolicy::Wired)),
        ("ips-mru", ips(IpsPolicy::Mru, k)),
        ("ips-wired", ips(IpsPolicy::Wired, k)),
    ]
    .into_iter()
    .map(|(label, paradigm)| {
        let mut s = rate_sweep(label, &template_with(paradigm.clone(), k, quick), below);
        let top = rate_sweep(label, &template_with(paradigm, k, false), saturating);
        s.points.extend(top.points);
        s
    })
    .collect();
    print_table("pkts/s/stream", &rates, &series);

    let lock_mru = &series[0];
    let lock_wired = &series[1];
    let ips_mru = &series[2];
    let ips_wired = &series[3];

    // IPS latency advantage at every mutually stable rate vs best Locking.
    let mut ips_lower_everywhere = true;
    for i in 0..rates.len() {
        let best_lock = lock_mru.points[i]
            .report
            .mean_delay_us
            .min(lock_wired.points[i].report.mean_delay_us);
        let best_lock_stable =
            lock_mru.points[i].report.stable || lock_wired.points[i].report.stable;
        let best_ips = ips_mru.points[i]
            .report
            .mean_delay_us
            .min(ips_wired.points[i].report.mean_delay_us);
        let best_ips_stable = ips_mru.points[i].report.stable || ips_wired.points[i].report.stable;
        if best_lock_stable && best_ips_stable && best_ips > best_lock * 1.02 {
            ips_lower_everywhere = false;
        }
    }
    checks.expect(
        "best IPS delay <= best Locking delay at every rate",
        ips_lower_everywhere,
    );
    // Capacity: IPS stable where Locking is not.
    let lock_cap = lock_mru
        .max_stable_rate()
        .unwrap_or(0.0)
        .max(lock_wired.max_stable_rate().unwrap_or(0.0));
    let ips_cap = ips_mru
        .max_stable_rate()
        .unwrap_or(0.0)
        .max(ips_wired.max_stable_rate().unwrap_or(0.0));
    println!("  capacity (max stable rate/stream): Locking {lock_cap:.0}, IPS {ips_cap:.0}");
    checks.expect("IPS capacity exceeds Locking capacity", ips_cap > lock_cap);
    // IPS crossover: MRU wins at the lowest rate, Wired at the top.
    checks.expect(
        "IPS-MRU better at the lowest rate",
        ips_mru.points[0].report.mean_delay_us < ips_wired.points[0].report.mean_delay_us,
    );
    let top_stable = (0..rates.len())
        .rev()
        .find(|&i| ips_mru.points[i].report.stable && ips_wired.points[i].report.stable);
    checks.expect(
        "IPS-Wired better at the highest mutually stable rate",
        top_stable.is_some_and(|i| {
            ips_wired.points[i].report.mean_delay_us < ips_mru.points[i].report.mean_delay_us
        }),
    );
    vec![series_csv("fig08.csv", &rates, &series)]
}
