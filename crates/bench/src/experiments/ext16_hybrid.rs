//! Extension E16 — the hybrid policy of TR-94-075.
//!
//! "These observations lead us to propose a hybrid approach for a
//! specific class of streams, which offers the best overall performance:
//! high message throughput, high intra-stream scalability, and
//! robustness in the presence of bursty arrivals."
//!
//! Realization: streams that need *intra-stream scalability* — hot
//! streams whose rate exceeds a single processor — are pooled through
//! MRU scheduling (they can fan out), while the moderate tail is *wired*
//! for perfect affinity. Pure Wired collapses when one stream outgrows
//! its processor; pure MRU sacrifices the tail's affinity; the hybrid
//! keeps both properties.

use crate::{delay_or_inf, locking, template_with, Artifact, Checks};
use afs_core::prelude::*;

pub fn experiment(quick: bool, checks: &mut Checks) -> Vec<Artifact> {
    // 2 hot streams (up to beyond single-processor capacity) + 14
    // moderate streams.
    let hot = 2usize;
    let k = 16usize;
    let moderate_rate = 400.0;
    let hot_rates = [3000.0, 5000.0, 7000.0, 8000.0];
    // Hybrid mask: wire everything EXCEPT the hot streams.
    let wired_mask: Vec<bool> = (0..k).map(|s| s >= hot).collect();

    println!(
        "{:>10} {:>12} {:>12} {:>12} {:>14}",
        "hot rate", "mru (us)", "wired (us)", "hybrid (us)", "hybrid tail(us)"
    );
    let mut rows = Vec::new();
    let mut outcome = Vec::new();
    for &hr in &hot_rates {
        let pop = Population::hot_cold(hot, hr, k - hot, moderate_rate);
        let mk = |policy: LockPolicy| {
            let mut c = template_with(locking(policy), k, quick);
            c.population = pop.clone();
            c
        };
        let mru = run(&mk(LockPolicy::Mru));
        let wired = run(&mk(LockPolicy::Wired));
        let hybrid = run(&mk(LockPolicy::Hybrid {
            wired: wired_mask.clone(),
        }));
        let tail_delay = |r: &RunReport| {
            let tail = &r.per_stream_delay_us[hot..];
            tail.iter().sum::<f64>() / tail.len() as f64
        };
        let [m, w, h] = [&mru, &wired, &hybrid].map(delay_or_inf);
        println!(
            "{hr:>10.0} {m:>12.1} {w:>12.1} {h:>12.1} {:>14.1}",
            tail_delay(&hybrid),
        );
        rows.push(format!("{hr},{m:.2},{w:.2},{h:.2}"));
        outcome.push((mru, wired, hybrid));
    }

    checks.expect(
        "pure Wired collapses once a hot stream outgrows one processor",
        outcome.iter().any(|(_, w, _)| !w.stable),
    );
    checks.expect(
        "hybrid stays stable at every hot rate (intra-stream scalability)",
        outcome.iter().all(|(_, _, h)| h.stable),
    );
    checks.expect(
        "hybrid dominates pure Wired at every load",
        outcome
            .iter()
            .all(|(_, w, h)| !w.stable || (h.stable && h.mean_delay_us <= w.mean_delay_us)),
    );
    checks.expect(
        "hybrid overall within 10% of MRU or better",
        outcome
            .iter()
            .all(|(m, _, h)| !m.stable || h.mean_delay_us <= m.mean_delay_us * 1.10),
    );
    vec![Artifact::csv(
        "ext16_hybrid.csv",
        "hot_rate,mru_us,wired_us,hybrid_us",
        &rows,
    )]
}
