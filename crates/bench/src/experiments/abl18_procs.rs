//! Ablation A18 — host scalability: aggregate capacity vs processor
//! count.
//!
//! The paper's platform has 8 processors; this ablation asks how each
//! paradigm's *aggregate* throughput capacity scales as the machine
//! grows (2 → 16 CPUs) with the stream population fixed at 16. Locking
//! pools every processor but pays lock overhead and migration; wired
//! IPS scales with min(stacks, N) and pays neither — so IPS holds a
//! roughly constant per-processor edge until stacks run out.

use crate::{ips, locking, template_with, write_csv, Checks, K_STREAMS};
use afs_core::prelude::*;

fn capacity(paradigm: Paradigm, n_procs: usize, quick: bool) -> f64 {
    let mut t = template_with(paradigm, K_STREAMS, quick);
    t.n_procs = n_procs;
    // Per-stream capacity; convert to aggregate.
    let per_stream = capacity_search(&t, 20.0, 8_000.0, 0.03);
    per_stream * K_STREAMS as f64
}

pub fn experiment(quick: bool, checks: &mut Checks) {
    let procs = [2usize, 4, 8, 16];
    println!(
        "{:>8} {:>16} {:>16} {:>10}",
        "procs", "locking-mru pps", "ips-wired pps", "IPS edge"
    );
    let mut rows = Vec::new();
    let mut lock_caps = Vec::new();
    let mut ips_caps = Vec::new();
    for &n in &procs {
        let lock = capacity(locking(LockPolicy::Mru), n, quick);
        let ipsc = capacity(ips(IpsPolicy::Wired, K_STREAMS), n, quick);
        let edge = ipsc / lock;
        println!("{n:>8} {lock:>16.0} {ipsc:>16.0} {edge:>10.2}");
        rows.push(format!("{n},{lock:.0},{ipsc:.0},{edge:.3}"));
        lock_caps.push(lock);
        ips_caps.push(ipsc);
    }
    write_csv("abl18_procs", "procs,locking_pps,ips_pps,ips_edge", &rows);

    checks.expect(
        "Locking capacity scales near-linearly 2->16 procs (>= 6x)",
        lock_caps[3] / lock_caps[0] >= 6.0,
    );
    checks.expect(
        "IPS capacity scales while stacks outnumber processors (>= 6x)",
        ips_caps[3] / ips_caps[0] >= 6.0,
    );
    checks.expect(
        "IPS holds a capacity edge over Locking at every size",
        ips_caps
            .iter()
            .zip(&lock_caps)
            .all(|(i, l)| i > &(l * 0.98)),
    );
}
