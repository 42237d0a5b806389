//! Extension E24 — scheduling for affinity under processor faults.
//!
//! The paper's machines did not lose processors mid-run; real ones do.
//! This harness injects seeded processor-fault plans — permanent
//! crashes, crash-and-revive reboots, stall windows, slow cores — into
//! *both* backends and asks whether the paper's claim survives
//! degradation:
//!
//! * **Conservation** — no packet is lost or double-completed across a
//!   crash: everything orphaned by a dead worker is re-dispatched
//!   through the policy's own router over the degraded view, on the
//!   simulator and on real threads alike (`orphaned == requeued`, and
//!   the observability ledger balances).
//! * **The affinity win persists** — at every fault level the IPS rung
//!   still beats the oblivious baseline on modeled service time, on
//!   both backends, and the improvement bands agree across backends.
//! * **Graceful degradation** — fault levels strictly reduce delivered
//!   capacity headroom (delay rises with the fault level for every
//!   policy) rather than collapsing or deadlocking.
//!
//! `--smoke` (or `AFS_QUICK=1`) runs the bounded CI scenario. Emits
//! `results/ext24_procfaults.csv`.

use crate::{Artifact, Checks};
use afs_core::crossval::{
    fault_levels, procfault_scenario, procfault_smoke_scenario, relative_improvement,
    IMPROVEMENT_TOLERANCE,
};
use afs_core::prelude::*;
use afs_native::crossval::{native_config, native_workload};
use afs_native::{run_native_recorded, NativeReport, PolicySpec};
use afs_obs::Counters;

/// Both backends' numbers for one (fault level, policy) cell.
struct Cell {
    sim: RunReport,
    native: NativeReport,
    counters: Counters,
}

pub fn experiment(smoke: bool, checks: &mut Checks) -> Vec<Artifact> {
    let s = if smoke {
        procfault_smoke_scenario()
    } else {
        procfault_scenario()
    };
    let levels = fault_levels();
    println!(
        "scenario {}: {} workers, {} streams, {:.0} pkts/s/stream, {} pkts/stream{}",
        s.label(),
        s.workers,
        s.streams,
        s.rate_pps_per_stream,
        s.packets_per_stream,
        if smoke { " (smoke)" } else { "" }
    );
    println!(
        "fault levels: {}\n",
        levels
            .iter()
            .map(|(l, _)| *l)
            .collect::<Vec<_>>()
            .join(" / ")
    );

    // Both sides of every cell, in the order the loop below reads them,
    // are pure and fan out on the AFS_JOBS executor; a native cell keeps
    // only its trace's counters.
    let cells: Vec<_> = levels
        .iter()
        .flat_map(|(_, load)| PolicySpec::ALL.map(|p| (load, p)))
        .collect();
    let mut runs = parallel_map(&cells, |&(load, p)| {
        let (native, trace) = run_native_recorded(&native_config(&s, p, load), native_workload(&s));
        Cell {
            sim: run(&s.sim_config(p, load)),
            native,
            counters: trace.counters,
        }
    })
    .into_iter();

    let mut rows: Vec<String> = Vec::new();
    let mut by_level: Vec<(&str, Vec<(PolicySpec, Cell)>)> = Vec::new();

    for (level, _) in &levels {
        println!("fault level: {level}");
        println!(
            "{:<12} {:>12} {:>12} {:>12} {:>12} {:>7} {:>7} {:>9} {:>9}",
            "policy",
            "sim delay",
            "nat delay",
            "sim svc",
            "nat svc",
            "crash",
            "ncrash",
            "orphaned",
            "requeued"
        );
        let cells: Vec<(PolicySpec, Cell)> =
            PolicySpec::ALL.into_iter().zip(runs.by_ref()).collect();
        for (p, c) in &cells {
            println!(
                "{:<12} {:>12.1} {:>12.1} {:>12.1} {:>12.1} {:>7} {:>7} {:>4}/{:<4} {:>4}/{:<4}",
                p.label(),
                c.sim.mean_delay_us,
                c.native.mean_delay_us,
                c.sim.mean_service_us,
                c.native.mean_service_us,
                c.sim.proc_crashes,
                c.native.workers_crashed,
                c.sim.orphaned,
                c.native.orphaned,
                c.sim.requeued,
                c.native.requeued,
            );
            rows.push(format!(
                "{},{},{:.3},{:.3},{:.3},{:.3},{},{},{},{},{},{},{},{}",
                level,
                p.label(),
                c.sim.mean_delay_us,
                c.native.mean_delay_us,
                c.sim.mean_service_us,
                c.native.mean_service_us,
                c.sim.proc_crashes,
                c.sim.proc_stalls,
                c.sim.orphaned,
                c.sim.requeued,
                c.native.workers_crashed,
                c.native.orphaned,
                c.native.requeued,
                c.native.steals,
            ));
        }

        // Conservation, both backends, every cell.
        for (p, c) in &cells {
            checks.expect(
                &format!("{level} {}: sim conserves every packet", p.label()),
                c.sim.offered_total == c.sim.completed_total + c.sim.shed_total + c.sim.in_flight
                    && c.sim.orphaned == c.sim.requeued,
            );
            checks.expect(
                &format!("{level} {}: native run is lossless", p.label()),
                c.native.outcomes.total() == c.native.offered
                    && c.native.outcomes.delivered == c.native.offered
                    && c.native.orphaned == c.native.requeued,
            );
            let cs = &c.counters;
            checks.expect(
                &format!("{level} {}: native obs ledger balances", p.label()),
                cs.enqueued == c.native.offered
                    && cs.completed == c.native.offered
                    && cs.in_flight() == 0
                    && cs.orphaned == cs.requeued
                    && cs.orphaned == c.native.orphaned,
            );
        }

        // The clean level reports no fault activity anywhere; at the
        // faulted levels the seeded plan's crashes fire on both
        // backends, the same number past the warm-up on each.
        let fault_activity =
            |c: &Cell| c.sim.proc_crashes + c.sim.proc_stalls + c.native.workers_crashed;
        if *level == "none" {
            checks.expect(
                "none: no fault activity on either backend",
                cells
                    .iter()
                    .all(|(_, c)| fault_activity(c) == 0 && c.native.orphaned == 0),
            );
        } else {
            checks.expect(
                &format!("{level}: the seeded plan fires on both backends, the same crashes"),
                cells.iter().all(|(_, c)| {
                    c.sim.proc_crashes > 0 && c.native.workers_crashed == c.sim.proc_crashes
                }),
            );
        }

        // The affinity win persists under degradation, on both
        // backends, and the bands agree.
        let get = |p: PolicySpec| &cells.iter().find(|(q, _)| *q == p).expect("cell ran").1;
        let obl = get(PolicySpec::Oblivious);
        let ips = get(PolicySpec::Ips);
        let sim_impr = relative_improvement(obl.sim.mean_service_us, ips.sim.mean_service_us);
        let native_impr =
            relative_improvement(obl.native.mean_service_us, ips.native.mean_service_us);
        println!(
            "  affinity win (ips vs oblivious service): sim {:.1}%, native {:.1}%",
            100.0 * sim_impr,
            100.0 * native_impr
        );
        checks.expect(
            &format!("{level}: affinity win positive on both backends"),
            sim_impr > 0.0 && native_impr > 0.0,
        );
        checks.expect(
            &format!(
                "{level}: improvement bands agree within {:.0} points",
                100.0 * IMPROVEMENT_TOLERANCE
            ),
            (sim_impr - native_impr).abs() <= IMPROVEMENT_TOLERANCE,
        );
        println!();
        by_level.push((level, cells));
    }

    // Graceful degradation: losing/degrading processors never *helps* —
    // at the heavy level every policy's mean delay is at least its
    // clean-level delay on both backends.
    let find = |lvl: &str| {
        &by_level
            .iter()
            .find(|(l, _)| *l == lvl)
            .expect("level ran")
            .1
    };
    let clean = find("none");
    let heavy = find("heavy");
    for ((p, c0), (q, c2)) in clean.iter().zip(heavy.iter()) {
        assert_eq!(p, q);
        checks.expect(
            &format!("heavy faults cost {} delay on both backends", p.label()),
            c2.sim.mean_delay_us >= c0.sim.mean_delay_us
                && c2.native.mean_delay_us >= c0.native.mean_delay_us,
        );
    }

    vec![Artifact::csv(
        "ext24_procfaults.csv",
        "fault_level,policy,sim_delay_us,native_delay_us,sim_service_us,native_service_us,\
         sim_crashes,sim_stalls,sim_orphaned,sim_requeued,native_crashed,native_orphaned,\
         native_requeued,native_steals",
        &rows,
    )]
}
