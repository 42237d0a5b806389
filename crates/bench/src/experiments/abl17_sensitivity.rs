//! Ablation A17 — the affinity benefit as a function of cache-erosion
//! speed.
//!
//! The benefit of affinity scheduling is necessarily **unimodal** in the
//! erosion rate of the non-protocol workload: if intervening work never
//! displaces the protocol footprint, every policy runs warm (no benefit);
//! if it always displaces everything instantly, every policy runs cold
//! (no benefit). Affinity scheduling pays off in between — exactly when
//! the *scheduling decision* determines whether the footprint survives.
//!
//! This ablation sweeps the non-protocol working-set scale `W` across
//! orders of magnitude around the paper's MVS value and locates the
//! calibrated configuration on that curve. It quantifies the discussion
//! in EXPERIMENTS.md of why our peak V = 0 reduction reads below the
//! paper's 40–50 % band at matched (pre-saturation) rates.

use super::{midpoint_capacity, reduction_curve};
use crate::{locking, template_with, Artifact, Checks, K_STREAMS};
use afs_cache::model::footprint::SstParams;
use afs_core::prelude::*;

/// Peak pre-saturation reduction of best-affinity vs baseline (Locking).
fn peak_reduction_for(exec: ExecParams, quick: bool) -> f64 {
    let k = K_STREAMS;
    let cap = midpoint_capacity(&exec, 0.0, true, k);
    let rates = [0.2, 0.45, 0.65, 0.82, 0.93].map(|f| f * cap);
    let with_exec = |policy: LockPolicy| {
        let mut c = template_with(locking(policy), k, quick);
        c.exec = exec;
        c
    };
    reduction_curve(
        &with_exec(LockPolicy::Baseline),
        [&with_exec(LockPolicy::Mru), &with_exec(LockPolicy::Wired)],
        &rates,
    )
    .into_iter()
    .filter(|&(_, _, saturated)| !saturated)
    .fold(0.0f64, |best, (_, pct, _)| best.max(pct))
}

pub fn experiment(quick: bool, checks: &mut Checks) -> Vec<Artifact> {
    let calibrated = ExecParams::calibrated();
    let multipliers = [0.02, 0.2, 1.0, 8.0, 64.0, 512.0];
    println!("{:>10} {:>18}", "W scale", "peak V=0 red. %");
    let mut rows = Vec::new();
    let mut peaks = Vec::new();
    for &m in &multipliers {
        let mut exec = calibrated;
        exec.model.flush.workload = SstParams {
            w: exec.model.flush.workload.w * m,
            ..exec.model.flush.workload
        };
        let p = peak_reduction_for(exec, quick);
        println!("{m:>10} {p:>18.1}");
        rows.push(format!("{m},{p:.2}"));
        peaks.push(p);
    }

    let max = peaks.iter().fold(0.0f64, |a, &b| a.max(b));
    let min = peaks.iter().fold(f64::INFINITY, |a, &b| a.min(b));
    println!(
        "  calibrated (x1): {:.1}%; range over 4+ orders of magnitude: {:.1}-{:.1}%",
        peaks[2], min, max
    );
    println!("  reading: the pre-saturation benefit is dominated by the erosion-INDEPENDENT");
    println!("  migration penalties (remote stream/thread fetches), which is why it moves");
    println!("  so little with W — and why the paper's 40-50% bound (pure reload-span");
    println!("  economics) is only approached near baseline saturation (see fig10).");

    checks.expect(
        "affinity scheduling pays off at every erosion speed (all peaks > 3%)",
        peaks.iter().all(|&p| p > 3.0),
    );
    checks.expect(
        "pre-saturation benefit varies <3x across 4+ orders of magnitude of W          (migration-dominated at this calibration)",
        max / min.max(1e-9) < 3.0,
    );
    checks.expect(
        "calibrated configuration shows a solid benefit (>= 5%)",
        peaks[2] >= 5.0,
    );
    vec![Artifact::csv(
        "abl17_sensitivity.csv",
        "w_multiplier,peak_reduction_pct",
        &rows,
    )]
}
