//! Figure 5 — the displacement curves `F1(x)`, `F2(x)`.
//!
//! The paper: "F(x) has been computed for the 100-MHz clock rate of the
//! MIPS R4400, assuming an average of 5 clock cycles per memory
//! reference (m = 5). Note that the protocol footprint is flushed much
//! more slowly from L2 than from L1, reflecting its much larger size."
//!
//! We additionally cross-validate the analytic curves against the
//! trace-driven cache simulator: a protocol-like footprint is preloaded,
//! a synthetic workload with SST-fitted locality runs for the same
//! reference budget, and the surviving fraction is measured directly.

use crate::{write_csv, Checks};
use afs_cache::model::fit::fit_sst;
use afs_cache::model::flush::flushed_fraction;
use afs_cache::model::footprint::MVS_WORKLOAD;
use afs_cache::model::hierarchy::FlushModel;
use afs_cache::model::platform::Platform;
use afs_cache::sim::cache::Cache;
use afs_cache::sim::synth::{measure_growth, SynthParams, SynthWorkload};
use afs_cache::sim::trace::Region;
use afs_desim::time::SimDuration;

/// Preload `lines` footprint lines (one per stride) and displace them
/// with `refs` synthetic references; return the displaced fraction.
fn simulate_displacement(platform: &Platform, refs: u64, seed: u64) -> (f64, f64) {
    let mut l1 = Cache::new(platform.l1);
    let mut l2 = Cache::new(platform.l2);
    // A protocol-like footprint: 12 KB of contiguous lines.
    let footprint_bytes = 12 * 1024u64;
    let l1_lines: Vec<u64> = (0..footprint_bytes / platform.l1.line_bytes as u64).collect();
    let l2_lines: Vec<u64> = (0..footprint_bytes / platform.l2.line_bytes as u64).collect();
    for &l in &l1_lines {
        l1.access(l * platform.l1.line_bytes as u64, Region::Code);
    }
    for &l in &l2_lines {
        l2.access(l * platform.l2.line_bytes as u64, Region::Code);
    }
    let mut gen = SynthWorkload::new(seed, 1 << 32, SynthParams::mvs_like());
    for _ in 0..refs {
        let r = gen.next_ref();
        // Split stream: half the references go to the (data) L1.
        if r.addr & 4 == 0 {
            l1.access(r.addr, Region::NonProtocol);
        }
        l2.access(r.addr, Region::NonProtocol);
    }
    (
        1.0 - l1.resident_fraction(&l1_lines),
        1.0 - l2.resident_fraction(&l2_lines),
    )
}

pub fn experiment(_quick: bool, checks: &mut Checks) {
    let platform = Platform::sgi_challenge_r4400();
    let model = FlushModel::new(platform, MVS_WORKLOAD);

    println!("analytic curves (MVS constants):");
    println!("{:>12} {:>10} {:>10}", "x (us)", "F1(x)", "F2(x)");
    let xs_us = [
        50.0, 100.0, 200.0, 500.0, 1e3, 2e3, 5e3, 1e4, 2e4, 5e4, 1e5, 2e5, 5e5, 1e6,
    ];
    let mut rows = Vec::new();
    for &x in &xs_us {
        let d = model.displacement(SimDuration::from_micros_f64(x));
        println!("{x:>12.0} {:>10.3} {:>10.3}", d.f1, d.f2);
        rows.push(format!("{x},{:.4},{:.4}", d.f1, d.f2));
    }
    write_csv("fig05_analytic", "x_us,F1,F2", &rows);

    // Cross-validation: fit SST constants to the *synthetic generator's*
    // measured growth, predict displacement, compare to direct simulation.
    println!("\ncross-validation (synthetic workload, trace-driven simulator):");
    let obs = measure_growth(
        42,
        SynthParams::mvs_like(),
        &[2_000, 8_000, 32_000, 128_000, 512_000],
        &[16, 32, 64, 128],
    );
    let fitted = fit_sst(&obs).expect("fit synthetic constants");
    println!(
        "  fitted SST constants: W = {:.3}, a = {:.4}, b = {:.4}, log d = {:.4}",
        fitted.w, fitted.a, fitted.b, fitted.log_d
    );
    println!(
        "{:>12} {:>10} {:>10} {:>10} {:>10}",
        "refs", "F1 sim", "F1 model", "F2 sim", "F2 model"
    );
    let mut rows = Vec::new();
    let mut max_err = 0.0f64;
    for &refs in &[10_000u64, 40_000, 160_000, 640_000] {
        let (f1_sim, f2_sim) = simulate_displacement(&platform, refs, 7);
        let u1 = fitted.footprint(refs as f64 * 0.5, platform.l1.line_bytes as f64);
        let u2 = fitted.footprint(refs as f64, platform.l2.line_bytes as f64);
        let f1_model = flushed_fraction(u1, platform.l1.sets(), platform.l1.associativity);
        let f2_model = flushed_fraction(u2, platform.l2.sets(), platform.l2.associativity);
        println!("{refs:>12} {f1_sim:>10.3} {f1_model:>10.3} {f2_sim:>10.3} {f2_model:>10.3}");
        rows.push(format!(
            "{refs},{f1_sim:.4},{f1_model:.4},{f2_sim:.4},{f2_model:.4}"
        ));
        max_err = max_err
            .max((f1_sim - f1_model).abs())
            .max((f2_sim - f2_model).abs());
    }
    write_csv(
        "fig05_crossval",
        "refs,F1_sim,F1_model,F2_sim,F2_model",
        &rows,
    );

    let d1ms = model.displacement(SimDuration::from_micros(1_000));
    let d100ms = model.displacement(SimDuration::from_micros(100_000));
    checks.expect("F1 and F2 monotone, in [0,1]", {
        let mut ok = true;
        let mut prev = (0.0, 0.0);
        for &x in &xs_us {
            let d = model.displacement(SimDuration::from_micros_f64(x));
            ok &= d.f1 >= prev.0 && d.f2 >= prev.1 && d.f1 <= 1.0 && d.f2 <= 1.0;
            prev = (d.f1, d.f2);
        }
        ok
    });
    checks.expect(
        "L2 flushes much more slowly than L1 (paper's observation)",
        d1ms.f1 > 5.0 * d1ms.f2 && d100ms.f1 > 0.99 && d100ms.f2 < 0.9,
    );
    checks.expect(
        "analytic model tracks trace-driven simulation within 0.15",
        max_err < 0.15,
    );
}
