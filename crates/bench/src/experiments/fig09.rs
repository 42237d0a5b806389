//! Figure 9 (reconstructed) — robustness and scalability trade-offs.
//!
//! The abstract's two caveats about IPS:
//!
//! * (a) "less robust response to intra-stream burstiness" — mean delay
//!   vs batch size at fixed mean rate: a burst on one stream serializes
//!   on its stack under IPS but fans out across processors under
//!   Locking.
//! * (b) "limited intra-stream scalability" — maximum throughput of a
//!   *single* stream vs processor count: one stream rides one stack (≈
//!   one processor) under IPS, while Locking spreads its packets over
//!   all processors.

use crate::{ips, locking, template_with, Artifact, Checks, K_STREAMS};
use afs_core::prelude::*;

fn burst_experiment(quick: bool) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let k = K_STREAMS;
    let batch_means = vec![1.0, 2.0, 4.0, 8.0, 16.0, 32.0];
    let rate = 700.0; // per stream; moderate aggregate load
    let delay = |paradigm: Paradigm, b: f64| {
        let mut cfg = template_with(paradigm, k, quick);
        cfg.population = Population::homogeneous_bursty(k, rate, b);
        run(&cfg).mean_delay_us
    };
    // Each batch size's two runs are independent: fan the cells out on
    // the AFS_JOBS executor and reassemble in batch order.
    let cells = parallel_map(&batch_means, |&b| {
        (
            delay(locking(LockPolicy::Mru), b),
            delay(ips(IpsPolicy::Wired, k), b),
        )
    });
    let (lock, ipsd) = cells.into_iter().unzip();
    (batch_means, lock, ipsd)
}

fn scalability_experiment(quick: bool) -> (Vec<usize>, Vec<f64>, Vec<f64>) {
    // One stream, N processors: find the max sustainable rate. Whole
    // capacity searches are independent, so they run concurrently; the
    // bisection inside each stays serial (its probe sequence is
    // adaptive — see `afs_core::sweep::capacity_search`).
    let procs = vec![1usize, 2, 4, 8];
    let capacity = |paradigm: Paradigm, n: usize| {
        let mut t = template_with(paradigm, 1, quick);
        t.n_procs = n;
        capacity_search(&t, 500.0, 60_000.0, 0.05)
    };
    let cells = parallel_map(&procs, |&n| {
        (
            capacity(locking(LockPolicy::Mru), n),
            capacity(ips(IpsPolicy::Wired, 1), n),
        )
    });
    let (lock, ipsd) = cells.into_iter().unzip();
    (procs, lock, ipsd)
}

pub fn experiment(quick: bool, checks: &mut Checks) -> Vec<Artifact> {
    println!("(a) mean delay (us) vs intra-stream batch size, 700 pkts/s/stream:");
    let (batches, lock_d, ips_d) = burst_experiment(quick);
    println!("{:>10} {:>12} {:>12}", "batch", "locking-mru", "ips-wired");
    let mut rows = Vec::new();
    for i in 0..batches.len() {
        println!(
            "{:>10.0} {:>12.1} {:>12.1}",
            batches[i], lock_d[i], ips_d[i]
        );
        rows.push(format!("{},{:.2},{:.2}", batches[i], lock_d[i], ips_d[i]));
    }
    let burst = Artifact::csv(
        "fig09a.csv",
        "batch_mean,locking_mru_us,ips_wired_us",
        &rows,
    );

    println!("\n(b) max single-stream throughput (pkts/s) vs processors:");
    let (procs, lock_c, ips_c) = scalability_experiment(quick);
    println!("{:>10} {:>12} {:>12}", "procs", "locking-mru", "ips");
    let mut rows = Vec::new();
    for i in 0..procs.len() {
        println!("{:>10} {:>12.0} {:>12.0}", procs[i], lock_c[i], ips_c[i]);
        rows.push(format!("{},{:.0},{:.0}", procs[i], lock_c[i], ips_c[i]));
    }
    let scaling = Artifact::csv(
        "fig09b.csv",
        "procs,locking_capacity_pps,ips_capacity_pps",
        &rows,
    );

    // (a) IPS delay grows faster with burstiness.
    let lock_growth = lock_d.last().unwrap() / lock_d[0];
    let ips_growth = ips_d.last().unwrap() / ips_d[0];
    println!("  delay growth x32 bursts: locking {lock_growth:.2}x, ips {ips_growth:.2}x");
    checks.expect(
        "IPS delay grows faster with burst size than Locking",
        ips_growth > 1.3 * lock_growth,
    );
    checks.expect(
        "IPS still wins at batch = 1 (Poisson)",
        ips_d[0] < lock_d[0],
    );
    // (b) Locking scales with N; IPS is flat.
    let lock_scaling = lock_c[3] / lock_c[0];
    let ips_scaling = ips_c[3] / ips_c[0];
    println!("  single-stream capacity 8p/1p: locking {lock_scaling:.2}x, ips {ips_scaling:.2}x");
    checks.expect(
        "Locking single-stream capacity scales >2x from 1 to 8 procs",
        lock_scaling > 2.0,
    );
    checks.expect(
        "IPS single-stream capacity flat in N (<1.3x)",
        ips_scaling < 1.3,
    );
    vec![burst, scaling]
}
