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
//!   every cell, priced as cold stream reloads, and the two backends'
//!   miss volumes agree within `STEERING_AGREEMENT_FACTOR`.
//! * **The miss path is the policy axis** — under Flow-Director an
//!   affinity/load-aware fallback router (mru-load, min-reload) never
//!   loses to the oblivious one on either backend, which is what makes
//!   the churning table survivable (Wu et al.).
//!
//! The simulator stays stable in every RSS and transport cell; a
//! Flow-Director cell may saturate — the churning table behind an
//! oblivious miss path is the pathology under study.
//!
//! `--smoke` (or `AFS_QUICK=1`) runs the bounded CI scenario. Emits
//! `results/ext25_streams.csv`.

use crate::{Artifact, Checks};
use afs_core::crossval::{
    stream_matrix, stream_pathology_scenario, stream_smoke_matrix, StreamScenario, ORDERING_SLACK,
    STEERING_AGREEMENT_FACTOR, STREAM_POLICIES,
};
use afs_core::prelude::*;
use afs_native::crossval::run_stream_scenario_recorded;
use afs_native::{FrontEndKind, NativeReport, PolicySpec};
use afs_obs::Counters;

/// Both backends' numbers for one (scenario, front-end, policy) cell.
struct Cell {
    sim: RunReport,
    native: NativeReport,
    counters: Counters,
}

pub fn experiment(smoke: bool, checks: &mut Checks) -> Vec<Artifact> {
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

    // Both sides of every cell, in the order the loop below reads them,
    // are pure and fan out on the AFS_JOBS executor; a native cell keeps
    // only its trace's counters.
    let cells: Vec<_> = scenarios
        .iter()
        .flat_map(|s| steering_cells().map(move |(kind, policy)| (s, kind, policy)))
        .collect();
    let mut runs = parallel_map(&cells, |&(s, k, p)| {
        let (native, trace) = run_stream_scenario_recorded(s, k, p);
        Cell {
            sim: run(&s.sim_config(k, p)),
            native,
            counters: trace.counters,
        }
    })
    .into_iter();

    let mut rows: Vec<String> = Vec::new();

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
        let cells: Vec<_> = steering_cells().zip(runs.by_ref()).collect();
        for &((kind, policy), ref c) in &cells {
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
            check_cell(checks, s, kind, policy, c);
        }
        // Under Flow-Director the fallback router is the policy axis: an
        // affinity/load-aware miss path must not lose to the oblivious one.
        let fdir = |p: PolicySpec| {
            let key = (FrontEndKind::FlowDirector, p);
            &cells.iter().find(|(k, _)| *k == key).expect("cell ran").1
        };
        let obl = fdir(PolicySpec::Oblivious);
        for p in [PolicySpec::MruLoad, PolicySpec::MinReload] {
            let (c, tag) = (fdir(p), format!("{} fdir {}", s.label(), p.label()));
            checks.expect(
                &format!("{tag}: no slower than the oblivious miss path, both backends"),
                c.sim.mean_delay_us <= ORDERING_SLACK * obl.sim.mean_delay_us
                    && c.native.mean_delay_us <= ORDERING_SLACK * obl.native.mean_delay_us,
            );
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
        afs_core::sim::run(&p.sim_config(FrontEndKind::FlowDirector, PolicySpec::Oblivious));
    let (nat_fdir, _) =
        run_stream_scenario_recorded(&p, FrontEndKind::FlowDirector, PolicySpec::Oblivious);
    let sim_rss = afs_core::sim::run(&p.sim_config(FrontEndKind::Rss, PolicySpec::Oblivious));
    let (nat_rss, _) = run_stream_scenario_recorded(&p, FrontEndKind::Rss, PolicySpec::Oblivious);
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

    vec![Artifact::csv(
        "ext25_streams.csv",
        "scenario,streams,frontend,policy,sim_delay_us,native_delay_us,sim_service_us,\
         native_service_us,sim_ooo,native_ooo,sim_table_misses,native_table_misses,\
         sim_rebinds,native_rebinds",
        &rows,
    )]
}

/// The `(front-end, policy)` cells of one scenario, in run and print order.
fn steering_cells() -> impl Iterator<Item = (FrontEndKind, PolicySpec)> {
    FrontEndKind::ALL
        .into_iter()
        .flat_map(|kind| STREAM_POLICIES.map(|policy| (kind, policy)))
}

/// Conservation, stability, miss-volume agreement and structural-order
/// checks for one cell.
fn check_cell(
    checks: &mut Checks,
    s: &StreamScenario,
    kind: FrontEndKind,
    policy: PolicySpec,
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
    if kind != FrontEndKind::FlowDirector {
        checks.expect(&format!("{tag}: sim stays stable"), c.sim.stable);
    }
    let (sm, nm) = (c.sim.table_misses, c.native.table_misses);
    checks.expect(
        &format!("{tag}: miss volumes agree within {STEERING_AGREEMENT_FACTOR}x"),
        sm.max(nm) as f64 / sm.min(nm).max(1) as f64 <= STEERING_AGREEMENT_FACTOR,
    );
    let cs = &c.counters;
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
