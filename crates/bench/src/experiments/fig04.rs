//! Figure 4 (reconstructed) — the SST footprint function `u(R, L)`.
//!
//! Unique cache lines touched by the non-protocol workload as a function
//! of the reference count, for the L1 (16 B) and L2 (128 B) line sizes,
//! using the paper's published MVS constants (W = 2.19827, a = 0.033233,
//! b = 0.827457, log d = −0.13025).

use crate::{write_csv, Checks};
use afs_cache::model::footprint::MVS_WORKLOAD;

pub fn experiment(_quick: bool, checks: &mut Checks) {
    println!(
        "{:>12} {:>14} {:>14} {:>12}",
        "refs R", "u(R, 16B)", "u(R, 128B)", "KB @128B"
    );
    let mut rows = Vec::new();
    let mut prev16 = 0.0;
    let mut monotone = true;
    for e in 1..=8 {
        for m in [1.0, 3.0] {
            let r = m * 10f64.powi(e);
            let u16 = MVS_WORKLOAD.footprint(r, 16.0);
            let u128 = MVS_WORKLOAD.footprint(r, 128.0);
            println!(
                "{:>12.0} {:>14.1} {:>14.1} {:>12.1}",
                r,
                u16,
                u128,
                u128 * 128.0 / 1024.0
            );
            rows.push(format!("{r},{u16:.2},{u128:.2}"));
            if u16 < prev16 {
                monotone = false;
            }
            prev16 = u16;
        }
    }
    write_csv("fig04", "refs,u_16B,u_128B", &rows);

    checks.expect("u(R,16) monotone increasing in R", monotone);
    checks.expect(
        "larger lines capture more spatial locality (u128 < u16)",
        MVS_WORKLOAD.footprint(1e6, 128.0) < MVS_WORKLOAD.footprint(1e6, 16.0),
    );
    checks.expect(
        "u bounded by R",
        MVS_WORKLOAD.footprint(100.0, 16.0) <= 100.0,
    );
    // The spot value the reproduction pins (DESIGN.md): u(20000, 16) ≈ 1850.
    let u = MVS_WORKLOAD.footprint(20_000.0, 16.0);
    checks.expect(
        "regression anchor u(20000,16) ~ 1.85e3",
        (u - 1850.0).abs() / 1850.0 < 0.02,
    );
}
