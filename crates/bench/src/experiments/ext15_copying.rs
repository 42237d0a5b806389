//! Extension E15 — incorporating the overhead of copying uncached packet
//! data (paper's future-work item iv).
//!
//! Copying proceeds at 32 bytes/µs on the paper's platform, so a packet
//! of `s` payload bytes adds `s/32` µs of affinity-insensitive work (the
//! paper's 4432-byte worst case is ≈ 139 µs). The experiment sweeps
//! payload size and reports both the delay and the relative benefit of
//! affinity scheduling, which shrinks as copying grows.

use crate::{locking, template_with, Artifact, Checks, K_STREAMS};
use afs_core::prelude::*;
use afs_workload::SizeDist;

/// The paper's copy rate: 32 bytes per microsecond.
const COPY_RATE_BYTES_PER_US: f64 = 32.0;

pub fn experiment(quick: bool, checks: &mut Checks) -> Vec<Artifact> {
    let k = K_STREAMS;
    let sizes = [1.0, 256.0, 1024.0, 2048.0, 4432.0];
    let rate = 900.0;
    println!(
        "{:>8} {:>10} {:>14} {:>14} {:>12}",
        "bytes", "copy(us)", "baseline(us)", "mru(us)", "reduction%"
    );
    let mut rows = Vec::new();
    let mut reductions = Vec::new();
    for &size in &sizes {
        let copy_us = size / COPY_RATE_BYTES_PER_US;
        // Rescale the rate so utilization stays comparable as service
        // grows with size (else large packets saturate).
        let svc = ExecParams::calibrated().warm_service_us(copy_us, true);
        let r = rate * 162.0 / svc;
        let mk = |policy: LockPolicy| {
            let mut c = template_with(locking(policy), k, quick);
            c.copy_us_per_byte = 1.0 / COPY_RATE_BYTES_PER_US;
            for s in &mut c.population.streams {
                s.sizes = SizeDist(afs_desim::Dist::constant(size));
            }
            c.population = c.population.clone().with_rate(r);
            c
        };
        let base = run(&mk(LockPolicy::Baseline));
        let mru = run(&mk(LockPolicy::Mru));
        let red = 100.0 * (1.0 - mru.mean_delay_us / base.mean_delay_us);
        println!(
            "{size:>8.0} {copy_us:>10.1} {:>14.1} {:>14.1} {red:>12.1}",
            base.mean_delay_us, mru.mean_delay_us
        );
        rows.push(format!(
            "{size},{copy_us:.2},{:.2},{:.2},{red:.2}",
            base.mean_delay_us, mru.mean_delay_us
        ));
        reductions.push(red);
    }

    checks.expect(
        "relative affinity benefit shrinks as copying grows",
        reductions.windows(2).all(|w| w[1] <= w[0] + 0.5),
    );
    checks.expect(
        "benefit at 1 byte clearly exceeds the benefit at 4432 bytes (>1.2x)",
        reductions[0] > 1.2 * reductions[4].max(0.1),
    );
    checks.expect(
        "worst-case copy cost ~139 us (4432 B at 32 B/us)",
        (4432.0 / COPY_RATE_BYTES_PER_US - 138.5).abs() < 0.1,
    );
    vec![Artifact::csv(
        "ext15_copying.csv",
        "payload_bytes,copy_us,baseline_us,mru_us,reduction_pct",
        &rows,
    )]
}
