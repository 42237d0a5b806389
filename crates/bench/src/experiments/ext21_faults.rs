//! Extension E21 — fault injection & overload resilience.
//!
//! The paper's experiments assume a perfect wire and infinite queues.
//! This extension measures how the scheduling-policy ranking holds up
//! when neither assumption does:
//!
//! * **Part 1 — fault-rate sweep.** A lossy/corrupting/duplicating wire
//!   at moderate load: goodput falls with the fault rate, corrupt
//!   packets waste service without delivering, and the affinity
//!   advantage (MRU over the oblivious baseline) must survive.
//! * **Part 2 — overload × queue bound.** An offered load far past
//!   saturation: unbounded queues diverge (unstable, delay grows with
//!   the horizon), while bounded queues with a drop policy degrade
//!   gracefully — finite delay, nonzero drop rate, full utilization.
//!
//! Emits `results/ext21_faults.json` with one record per
//! (part, policy, fault rate, queue bound, drop policy) cell.

use crate::{delay_or_inf, ips, json_object, locking, write_json, Checks, N_PROCS};
use afs_core::prelude::*;

const MODERATE_RATE: f64 = 700.0;
const OVERLOAD_RATE: f64 = 8_000.0;
const K_STREAMS: usize = 8;

fn base_cfg(paradigm: Paradigm, rate: f64, quick: bool) -> SystemConfig {
    let mut cfg = SystemConfig::new(paradigm, Population::homogeneous_poisson(K_STREAMS, rate));
    cfg.n_procs = N_PROCS;
    if quick {
        cfg.warmup = SimDuration::from_millis(100);
        cfg.horizon = SimDuration::from_millis(500);
    } else {
        cfg.warmup = SimDuration::from_millis(200);
        cfg.horizon = SimDuration::from_millis(1_400);
    }
    cfg
}

fn policies() -> Vec<(&'static str, Paradigm)> {
    vec![
        ("lock-baseline", locking(LockPolicy::Baseline)),
        ("lock-mru", locking(LockPolicy::Mru)),
        ("ips-mru", ips(IpsPolicy::Mru, K_STREAMS)),
    ]
}

/// A wire where a fraction `p` of frames is lost, another `p/2`
/// corrupted (half a service consumed before rejection), and `p/4`
/// duplicated.
fn faults_at(p: f64) -> FaultProfile {
    FaultProfile {
        drop_p: p,
        corrupt_p: p / 2.0,
        duplicate_p: p / 4.0,
        corrupt_work_frac: 0.5,
    }
}

fn fmt_bound(bound: usize) -> String {
    if bound == usize::MAX {
        "\"unbounded\"".into()
    } else {
        format!("{bound}")
    }
}

fn record(
    part: &str,
    policy: &str,
    fault_p: f64,
    bound: usize,
    drop_policy: &str,
    r: &RunReport,
) -> String {
    json_object(&[
        ("part", format!("\"{part}\"")),
        ("policy", format!("\"{policy}\"")),
        ("fault_p", format!("{fault_p}")),
        ("queue_bound", fmt_bound(bound)),
        ("drop_policy", format!("\"{drop_policy}\"")),
        ("stable", format!("{}", r.stable)),
        ("throughput_pps", format!("{:.2}", r.throughput_pps)),
        ("goodput_pps", format!("{:.2}", r.goodput_pps)),
        ("drop_rate", format!("{:.4}", r.drop_rate)),
        (
            "mean_delay_us",
            if r.stable {
                format!("{:.2}", r.mean_delay_us)
            } else {
                "null".into()
            },
        ),
        ("max_delay_us", format!("{:.2}", r.max_delay_us)),
        ("utilization", format!("{:.4}", r.utilization)),
        ("wire_drops", format!("{}", r.wire_drops)),
        ("queue_drops", format!("{}", r.queue_drops)),
        ("shed_at_source", format!("{}", r.shed_at_source)),
        ("corrupted", format!("{}", r.corrupted)),
        (
            "wasted_service_frac",
            format!("{:.4}", r.wasted_service_frac),
        ),
    ])
}

pub fn experiment(quick: bool, checks: &mut Checks) {
    println!(
        "{K_STREAMS} streams x {N_PROCS} processors; moderate load {MODERATE_RATE:.0} pkts/s/stream, overload {OVERLOAD_RATE:.0} pkts/s/stream\n"
    );

    let mut records: Vec<String> = Vec::new();
    let policies = policies();

    // ---- Part 1: fault-rate sweep, unbounded queues -----------------
    println!("Part 1: goodput under a faulty wire (unbounded queues)");
    println!(
        "{:<16} {:>8} {:>12} {:>12} {:>10} {:>10}",
        "policy", "fault_p", "goodput", "throughput", "drop_rate", "wasted"
    );
    let fault_rates = [0.0, 0.05, 0.15, 0.30];
    let mut sweep: Vec<Vec<RunReport>> = Vec::new(); // [policy][fault index]
    for (name, paradigm) in &policies {
        let mut row = Vec::new();
        for &p in &fault_rates {
            let mut cfg = base_cfg(paradigm.clone(), MODERATE_RATE, quick);
            cfg.faults = faults_at(p);
            let r = run(&cfg);
            println!(
                "{name:<16} {p:>8.2} {:>12.1} {:>12.1} {:>10.4} {:>10.4}",
                r.goodput_pps, r.throughput_pps, r.drop_rate, r.wasted_service_frac
            );
            records.push(record("fault_sweep", name, p, usize::MAX, "tail_drop", &r));
            row.push(r);
        }
        sweep.push(row);
    }
    println!();

    for (i, (name, _)) in policies.iter().enumerate() {
        checks.expect(
            &format!("{name}: zero faults means zero drops and goodput == throughput"),
            sweep[i][0].drop_rate == 0.0 && sweep[i][0].goodput_pps == sweep[i][0].throughput_pps,
        );
        checks.expect(
            &format!("{name}: goodput falls monotonically with the fault rate"),
            sweep[i]
                .windows(2)
                .all(|w| w[1].goodput_pps < w[0].goodput_pps),
        );
        checks.expect(
            &format!("{name}: drop rate rises monotonically with the fault rate"),
            sweep[i].windows(2).all(|w| w[1].drop_rate > w[0].drop_rate),
        );
        checks.expect(
            &format!("{name}: corrupt packets waste service without delivering"),
            sweep[i][2].corrupted > 0 && sweep[i][2].wasted_service_frac > 0.0,
        );
    }
    // Below saturation every stable policy delivers whatever the wire
    // lets through, so goodput is policy-independent; the affinity
    // advantage is in *delay* and must survive a faulty wire
    // (policies() order: 0 = baseline, 1 = lock-mru).
    checks.expect(
        "the affinity advantage survives faults: lock-mru mean delay < baseline at fault_p 0.15",
        sweep[0][2].stable
            && sweep[1][2].stable
            && sweep[1][2].mean_delay_us < sweep[0][2].mean_delay_us,
    );

    // ---- Part 2: overload x queue bound -----------------------------
    println!("Part 2: overload response by queue bound (lock-baseline + lock-mru)");
    println!(
        "{:<16} {:>10} {:>18} {:>8} {:>12} {:>10}",
        "policy", "bound", "drop_policy", "stable", "mean_delay", "drop_rate"
    );
    // (row label, policy name, paradigm, queue bound, drop policy)
    let mut cases = Vec::new();
    for (name, paradigm) in policies.iter().take(2) {
        for bound in [usize::MAX, 128, 32] {
            let tail_drop = ("tail_drop", DropPolicy::TailDrop);
            cases.push((name.to_string(), *name, paradigm, bound, tail_drop));
        }
    }
    // Alternative drop policies at the tightest bound.
    for dp in [
        ("drop_longest_queue", DropPolicy::DropLongestQueue),
        ("backpressure", DropPolicy::Backpressure),
    ] {
        let label = format!("lock-baseline/{}", dp.0);
        cases.push((label, "lock-baseline", &policies[0].1, 32, dp));
    }
    let mut overload: Vec<(String, usize, RunReport)> = Vec::new();
    for (label, name, paradigm, bound, (dp_name, dp)) in cases {
        let mut cfg = base_cfg(paradigm.clone(), OVERLOAD_RATE, quick);
        cfg.queue_bound = bound;
        cfg.drop_policy = dp;
        let r = run(&cfg);
        println!(
            "{name:<16} {:>10} {dp_name:>18} {:>8} {:>12.1} {:>10.4}",
            fmt_bound(bound),
            r.stable,
            delay_or_inf(&r),
            r.drop_rate
        );
        records.push(record("overload", name, 0.0, bound, dp_name, &r));
        overload.push((label, bound, r));
    }
    println!();

    for (name, bound, r) in &overload {
        if *bound == usize::MAX {
            checks.expect(
                &format!("{name}: unbounded queues diverge under overload"),
                !r.stable,
            );
        } else {
            checks.expect(
                &format!("{name}: bound {bound} degrades gracefully (stable, sheds load)"),
                r.stable && r.drop_rate > 0.2,
            );
            checks.expect(
                &format!("{name}: bound {bound} keeps the worst-case delay near bound x service"),
                r.max_delay_us < 2.0 * (*bound as f64) * r.mean_service_us,
            );
        }
    }
    let bp = &overload.last().expect("backpressure row ran").2;
    checks.expect(
        "backpressure sheds at the source, never from the queues",
        bp.shed_at_source > 0 && bp.queue_drops == 0,
    );

    let mut body = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        body.push_str("  ");
        body.push_str(r);
        if i + 1 < records.len() {
            body.push(',');
        }
        body.push('\n');
    }
    body.push_str("]\n");
    write_json("ext21_faults", &body);
}
