//! `trace-summary` — human-readable digest of the unified observability
//! layer on both backends.
//!
//! Runs one representative scenario through the simulator (with a full
//! in-memory trace plus the engine probe) and the same-shaped workload
//! through the native pinned-thread runtime, then prints the
//! `afs_obs::summary` renderings side by side. Meant as the quick
//! profiling entry point: "what is the scheduler actually doing" without
//! wiring up a figure. Also sanity-checks the invariants the differential
//! suite locks down (conservation, recorder purity), so a broken trace
//! shows up here first.
//!
//! `--smoke` / `AFS_QUICK=1` shrinks the horizon; output is console-only
//! (no `results/` artifacts).

use crate::{locking, template_with, Checks};
use afs_core::crossval::{smoke_matrix, CrossPolicy};
use afs_core::prelude::*;
use afs_native::crossval::{run_scenario, run_scenario_recorded};
use afs_obs::summary;

pub fn experiment(quick: bool, checks: &mut Checks) {
    // ------------------------------------------------------------------
    // Simulator: MRU vs baseline at a moderate load, full trace kept.
    // ------------------------------------------------------------------
    for (label, paradigm) in [
        ("locking/baseline", locking(LockPolicy::Baseline)),
        ("locking/mru", locking(LockPolicy::Mru)),
    ] {
        let mut cfg = template_with(paradigm, 8, quick);
        cfg.population = cfg.population.clone().with_rate(1400.0);
        let plain = run(&cfg);
        let mut rec = MemRecorder::new();
        let (report, probe) = run_observed(&cfg, &mut rec);

        println!("sim {label} @ 1400 pps/stream");
        println!("  {}", summary::render(&rec.counters));
        println!("  {}", probe.render());
        println!(
            "  report: mean delay {:.1} us over {} packets, stable={}",
            report.mean_delay_us, report.delivered, report.stable
        );
        println!();

        checks.expect(
            &format!("{label}: recorder attach changes nothing"),
            plain == report,
        );
        let c = &rec.counters;
        checks.expect(
            &format!("{label}: enqueued = completed + evicted + in-flight"),
            c.enqueued as i64 == c.completed as i64 + c.evicted as i64 + c.in_flight(),
        );
        checks.expect(
            &format!("{label}: trace events are non-trivial"),
            rec.events.len() as u64 >= c.enqueued + c.completed,
        );
    }

    // ------------------------------------------------------------------
    // Native: the smoke crossval scenario across all three policies.
    // ------------------------------------------------------------------
    let scenario = &smoke_matrix()[0];
    for p in CrossPolicy::ALL {
        let plain = run_scenario(scenario, p);
        let (report, rec) = run_scenario_recorded(scenario, p);
        println!("native {} {}", scenario.label(), p.label());
        println!("  {}", summary::render(&rec.counters));
        println!(
            "  report: mean delay {:.1} us, offered {}, steals {}",
            report.mean_delay_us, report.offered, report.steals
        );
        println!();

        let c = &rec.counters;
        checks.expect(
            &format!("native {}: lossless accounting from trace", p.label()),
            c.enqueued == report.offered && c.completed == report.offered && c.in_flight() == 0,
        );
        checks.expect(
            &format!(
                "native {}: steal events match the runtime's count",
                p.label()
            ),
            c.steals == report.steals,
        );
        checks.expect(
            &format!(
                "native {}: offered totals agree with the plain run",
                p.label()
            ),
            plain.offered == report.offered,
        );
    }
}
