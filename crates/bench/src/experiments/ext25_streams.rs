//! Extension E25 — NIC front-ends over large stream populations.
//!
//! The paper's workload is tens of streams; a modern host terminates
//! 10⁵–10⁶ flows, and *which queue the NIC picks* is itself an affinity
//! scheduling decision made before any policy in this repo runs. This
//! harness sweeps the three shared front-ends — RSS hashing,
//! Flow-Director learning-table steering, and the transport-friendly
//! host pin — across Zipf flow populations of 10³–10⁵ on **both**
//! backends, with NIC tables and host stream-state bounds held far
//! below the population, and asks:
//!
//! * **Conservation** — every cell, both backends: nothing offered is
//!   lost, and the observability ledger balances.
//! * **Order is structural, not incidental** — RSS and the
//!   transport-friendly pin deliver every flow in order in every cell
//!   (zero out-of-order completions, zero rebinds), while the
//!   Flow-Director learning table — rebinding flows to the last core
//!   that completed them mid-burst — reproduces the reordering
//!   pathology of Wu et al. at the pinned pathology cell.
//! * **Tables far below the population actually miss** — Flow-Director
//!   lookup misses and stream-state evictions are live effects in
//!   every cell, priced as cold stream reloads.
//!
//! `--smoke` (or `AFS_QUICK=1`) runs the bounded CI scenario. Emits
//! `results/ext25_streams.csv`.

use crate::{write_csv, Checks};
use afs_core::crossval::{
    sim_stream_matrix, stream_matrix, stream_pathology_scenario, stream_smoke_matrix, CrossPolicy,
    StreamScenario, STREAM_POLICIES,
};
use afs_core::prelude::*;
use afs_native::crossval::run_stream_scenario_recorded;
use afs_native::{FrontEndKind, NativeReport};
use afs_obs::MemRecorder;

/// Both backends' numbers for one (scenario, front-end, policy) cell.
struct Cell {
    sim: RunReport,
    native: NativeReport,
    trace: MemRecorder,
}

pub fn experiment(smoke: bool, checks: &mut Checks) {
    let scenarios = if smoke {
        stream_smoke_matrix()
    } else {
        stream_matrix()
    };
    for s in &scenarios {
        println!(
            "scenario {}: {} workers, {} flows, {:.0} pkts/s aggregate, α={}, batch {}, \
             NIC table {}, stream cache {}",
            s.label(),
            s.workers,
            s.streams,
            s.aggregate_rate_pps,
            s.alpha,
            s.batch_mean,
            s.table_capacity,
            s.cache_capacity,
        );
    }
    println!();

    // Simulator cells are pure and fan out on the AFS_JOBS executor
    // (row-major: scenarios × front-ends × policies); the native cells
    // run serially (real threads, shared host caches).
    let sim_cells = sim_stream_matrix(&scenarios);

    let mut rows: Vec<String> = Vec::new();
    let mut si = 0usize;

    for s in &scenarios {
        println!("scenario {}", s.label());
        println!(
            "{:<10} {:<10} {:>11} {:>11} {:>9} {:>9} {:>10} {:>10} {:>9} {:>9}",
            "frontend",
            "policy",
            "sim delay",
            "nat delay",
            "sim ooo",
            "nat ooo",
            "sim miss",
            "nat miss",
            "sim rebd",
            "nat rebd"
        );
        for kind in FrontEndKind::ALL {
            for &policy in &STREAM_POLICIES {
                let sim = &sim_cells[si];
                si += 1;
                debug_assert_eq!(sim.frontend, kind);
                debug_assert_eq!(sim.policy, policy);
                let (native, trace) = run_stream_scenario_recorded(s, kind, policy);
                let c = Cell {
                    sim: sim.report.clone(),
                    native,
                    trace,
                };
                println!(
                    "{:<10} {:<10} {:>11.1} {:>11.1} {:>9} {:>9} {:>10} {:>10} {:>9} {:>9}",
                    kind.label(),
                    policy.label(),
                    c.sim.mean_delay_us,
                    c.native.mean_delay_us,
                    c.sim.ooo_deliveries,
                    c.native.ooo_deliveries,
                    c.sim.table_misses,
                    c.native.table_misses,
                    c.sim.rebinds,
                    c.native.rebinds,
                );
                rows.push(format!(
                    "{},{},{},{},{:.3},{:.3},{:.3},{:.3},{},{},{},{},{},{}",
                    s.label(),
                    s.streams,
                    kind.label(),
                    policy.label(),
                    c.sim.mean_delay_us,
                    c.native.mean_delay_us,
                    c.sim.mean_service_us,
                    c.native.mean_service_us,
                    c.sim.ooo_deliveries,
                    c.native.ooo_deliveries,
                    c.sim.table_misses,
                    c.native.table_misses,
                    c.sim.rebinds,
                    c.native.rebinds,
                ));
                check_cell(checks, s, kind, policy, &c);
            }
        }
        println!();
    }

    // The pinned pathology cell: a learning table far below the flow
    // population under bursty arrivals. Flow-Director must visibly
    // reorder on both backends; RSS at the same cell must not.
    let p = stream_pathology_scenario();
    println!(
        "pathology cell {} (NIC table {})",
        p.label(),
        p.table_capacity
    );
    let sim_fdir =
        afs_core::sim::run(&p.sim_config(FrontEndKind::FlowDirector, CrossPolicy::Oblivious));
    let (nat_fdir, _) =
        run_stream_scenario_recorded(&p, FrontEndKind::FlowDirector, CrossPolicy::Oblivious);
    let sim_rss = afs_core::sim::run(&p.sim_config(FrontEndKind::Rss, CrossPolicy::Oblivious));
    let (nat_rss, _) = run_stream_scenario_recorded(&p, FrontEndKind::Rss, CrossPolicy::Oblivious);
    println!(
        "  fdir ooo: sim {} native {}  |  rss ooo: sim {} native {}",
        sim_fdir.ooo_deliveries,
        nat_fdir.ooo_deliveries,
        sim_rss.ooo_deliveries,
        nat_rss.ooo_deliveries
    );
    checks.expect(
        "pathology: Flow-Director reorders on both backends",
        sim_fdir.ooo_deliveries > 0 && nat_fdir.ooo_deliveries > 0,
    );
    checks.expect(
        "pathology: RSS keeps per-flow order on both backends",
        sim_rss.ooo_deliveries == 0 && nat_rss.ooo_deliveries == 0,
    );

    write_csv(
        "ext25_streams",
        "scenario,streams,frontend,policy,sim_delay_us,native_delay_us,sim_service_us,\
         native_service_us,sim_ooo,native_ooo,sim_table_misses,native_table_misses,\
         sim_rebinds,native_rebinds",
        &rows,
    );
}

/// Conservation + structural-order checks for one cell.
fn check_cell(
    checks: &mut Checks,
    s: &StreamScenario,
    kind: FrontEndKind,
    policy: CrossPolicy,
    c: &Cell,
) {
    let tag = format!("{} {} {}", s.label(), kind.label(), policy.label());
    checks.expect(
        &format!("{tag}: sim conserves every packet"),
        c.sim.offered_total == c.sim.completed_total + c.sim.shed_total + c.sim.in_flight,
    );
    checks.expect(
        &format!("{tag}: native run is lossless"),
        c.native.outcomes.total() == c.native.offered
            && c.native.outcomes.delivered == c.native.offered,
    );
    let cs = &c.trace.counters;
    checks.expect(
        &format!("{tag}: native obs ledger balances"),
        cs.enqueued == c.native.offered && cs.completed == c.native.offered && cs.in_flight() == 0,
    );
    checks.expect(
        &format!("{tag}: native obs steering counters match the report"),
        cs.table_misses == c.native.table_misses && cs.rebinds == c.native.rebinds,
    );
    match kind {
        FrontEndKind::Rss => {
            checks.expect(
                &format!("{tag}: RSS is structurally in order, no table"),
                c.sim.ooo_deliveries == 0
                    && c.native.ooo_deliveries == 0
                    && c.sim.rebinds == 0
                    && c.native.rebinds == 0
                    && c.sim.table_misses == 0
                    && c.native.table_misses == 0,
            );
        }
        FrontEndKind::TransportFriendly => {
            checks.expect(
                &format!("{tag}: transport pin is sticky and in order"),
                c.sim.ooo_deliveries == 0
                    && c.native.ooo_deliveries == 0
                    && c.sim.rebinds == 0
                    && c.native.rebinds == 0
                    // misses = first placements: one per flow that sent.
                    && c.sim.table_misses >= 1
                    && c.sim.table_misses <= s.streams as u64
                    && c.native.table_misses >= 1
                    && c.native.table_misses <= s.streams as u64,
            );
        }
        FrontEndKind::FlowDirector => {
            checks.expect(
                &format!("{tag}: learning table far below the population misses"),
                c.sim.table_misses > 0 && c.native.table_misses > 0,
            );
        }
    }
}
