//! Extension E14 — varying the number of independent stacks under IPS
//! (paper's future-work item iii).
//!
//! Fewer stacks than streams coarsens the serialization unit (more
//! head-of-line coupling between streams sharing a stack); more stacks
//! than processors creates wiring collisions. The sweep exposes the
//! trade-off at a moderate and a high load.

use crate::{delay_or_inf, ips, template_with, Artifact, Checks, K_STREAMS};
use afs_core::prelude::*;

pub fn experiment(quick: bool, checks: &mut Checks) -> Vec<Artifact> {
    let k = K_STREAMS;
    let stack_counts = [2usize, 4, 8, 16];
    let rates = [600.0, 1800.0, 2600.0];
    println!(
        "{:>8} {:>10} {:>14} {:>14}",
        "stacks", "rate/s", "wired (us)", "mru (us)"
    );
    let mut rows = Vec::new();
    let mut wired_at = std::collections::HashMap::new();
    // All (stacks, rate, policy) cells are independent runs: fan them
    // out on the AFS_JOBS executor and reassemble in cell order.
    let cells: Vec<(usize, f64)> = stack_counts
        .iter()
        .flat_map(|&ns| rates.iter().map(move |&r| (ns, r)))
        .collect();
    let reports = parallel_map(&cells, |&(ns, r)| {
        let under = |policy: IpsPolicy| {
            let mut cfg = template_with(ips(policy, ns), k, quick);
            cfg.population = cfg.population.clone().with_rate(r);
            run(&cfg)
        };
        (under(IpsPolicy::Wired), under(IpsPolicy::Mru))
    });
    for (&(ns, r), (w, m)) in cells.iter().zip(&reports) {
        let (wd, md) = (delay_or_inf(w), delay_or_inf(m));
        println!("{ns:>8} {r:>10.0} {wd:>14.1} {md:>14.1}");
        rows.push(format!("{ns},{r},{wd:.2},{md:.2}"));
        wired_at.insert((ns, r as u64), (w.stable, w.mean_delay_us));
    }

    // Aggregate capacity grows with stack count until stacks ≥ procs.
    let few = wired_at[&(2, 2600)];
    let eight = wired_at[&(8, 2600)];
    checks.expect(
        "2 stacks cannot carry what 8 stacks carry at 2600/s/stream",
        !few.0 || (eight.0 && eight.1 < few.1),
    );
    let full = wired_at[&(16, 600)];
    let eight_mid = wired_at[&(8, 600)];
    println!(
        "  at 600/s: 8 stacks {:.1} us vs 16 stacks {:.1} us",
        eight_mid.1, full.1
    );
    checks.expect(
        "at moderate load, 8 and 16 stacks perform within 15%",
        (full.1 - eight_mid.1).abs() / eight_mid.1 < 0.15,
    );
    checks.expect("8-stack wired stable at 2600/s/stream", eight.0);
    vec![Artifact::csv(
        "ext14_num_stacks.csv",
        "stacks,rate,wired_us,mru_us",
        &rows,
    )]
}
