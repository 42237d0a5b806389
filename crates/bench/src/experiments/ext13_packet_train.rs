//! Extension E13 — burstiness and source locality under the
//! Jain–Routhier Packet-Train model (paper's future-work item ii).
//!
//! Streams emit *trains* of packets: closely spaced cars separated by
//! long inter-train gaps. Affinity scheduling benefits from trains — the
//! first car of a train warms the caches for the rest — so longer trains
//! at a fixed mean rate improve delay under affinity policies.

use crate::{ips, locking, template_with, Artifact, Checks, K_STREAMS};
use afs_core::prelude::*;
use afs_workload::ArrivalGen;

fn train_population(k: usize, rate: f64, cars: f64, inter_car_us: f64) -> Population {
    Population::from_arrivals((0..k).map(|_| ArrivalGen::train(rate, cars, inter_car_us)))
}

pub fn experiment(quick: bool, checks: &mut Checks) -> Vec<Artifact> {
    let k = K_STREAMS;
    let rate = 600.0; // per stream, fixed mean rate
    let inter_car_us = 300.0;
    let train_lengths = [1.0, 2.0, 4.0, 8.0, 16.0];
    println!(
        "{:>8} {:>14} {:>14} {:>14}",
        "cars", "lock-mru (us)", "lock-base (us)", "ips-wired (us)"
    );
    let mut rows = Vec::new();
    let mut mru_delays = Vec::new();
    let mut base_delays = Vec::new();
    // Each train length's three runs are independent: fan the cells out
    // on the AFS_JOBS executor and print in train-length order.
    let cells = parallel_map(&train_lengths, |&cars| {
        let under = |paradigm: Paradigm| {
            let mut cfg = template_with(paradigm, k, quick);
            cfg.population = train_population(k, rate, cars, inter_car_us);
            run(&cfg)
        };
        (
            under(locking(LockPolicy::Mru)),
            under(locking(LockPolicy::Baseline)),
            under(ips(IpsPolicy::Wired, k)),
        )
    });
    for (&cars, (mru, base, ipsr)) in train_lengths.iter().zip(&cells) {
        println!(
            "{cars:>8.0} {:>14.1} {:>14.1} {:>14.1}",
            mru.mean_delay_us, base.mean_delay_us, ipsr.mean_delay_us
        );
        rows.push(format!(
            "{cars},{:.2},{:.2},{:.2}",
            mru.mean_delay_us, base.mean_delay_us, ipsr.mean_delay_us
        ));
        mru_delays.push(mru.mean_delay_us);
        base_delays.push(base.mean_delay_us);
    }

    // Source locality: trains make affinity more valuable — the relative
    // gain of MRU over baseline grows with train length.
    let gain_first = 1.0 - mru_delays[0] / base_delays[0];
    let gain_last = 1.0 - mru_delays[4] / base_delays[4];
    println!(
        "  mru-vs-baseline gain: cars=1 {:.1}%, cars=16 {:.1}%",
        gain_first * 100.0,
        gain_last * 100.0
    );
    checks.expect(
        "affinity gain grows with train length (source locality)",
        gain_last > gain_first,
    );
    checks.expect("affinity gain positive at every train length", {
        mru_delays.iter().zip(&base_delays).all(|(m, b)| m < b)
    });
    vec![Artifact::csv(
        "ext13_packet_train.csv",
        "cars,lock_mru_us,lock_base_us,ips_wired_us",
        &rows,
    )]
}
