//! Extension E23 — policy curves from the observability trace alone.
//!
//! Everything the paper's figures report is, in principle, derivable
//! from the per-message event stream: if the unified `afs-obs` trace is
//! complete and correctly stamped, folding its `Complete` events must
//! reproduce the Figure 6 delay curves without consulting the
//! simulator's own collector. This harness does exactly that:
//!
//! * **Simulator** — reruns the fig06 grid (Locking, K = 8 = N,
//!   baseline/pools/mru/wired) with a streaming recorder that keeps no
//!   events, only a post-warm-up Welford over `Complete` events and the
//!   aggregate counters. The trace-derived mean delay must match the
//!   `RunReport` and, for stable cells, the *committed*
//!   `results/fig06.csv` bytes — the policy ordering and the affinity
//!   win re-emerge from trace data alone.
//! * **Native** — runs the cross-validation scenario matrix through
//!   `run_scenario_recorded` and derives the same per-policy delays from
//!   the merged vclock-stamped trace, checking the IPS-over-oblivious
//!   affinity win on real threads, again from trace data alone.
//!
//! `--smoke` (or `AFS_QUICK=1`) restricts the rate grid and scenario
//! matrix but keeps the full fig06 horizon, so every cell it does run
//! stays comparable to the committed CSV. Emits `results/ext23_obs.csv`
//! and the golden trace `results/ext23_trace_golden.jsonl`.

use std::fs;

use crate::artifacts::{obs_trace_golden, OBS_TRACE_GOLDEN_FILE};
use crate::{locking, results_dir, template_with, write_csv, Checks};
use afs_core::crossval::{default_matrix, smoke_matrix, CrossPolicy, ORDERING_SLACK};
use afs_core::prelude::*;
use afs_core::sim::run_observed;
use afs_desim::stats::Welford;
use afs_native::crossval::run_scenario_recorded;
use afs_obs::{Counters, ObsEvent};

/// A streaming recorder that derives figure cells from the trace: the
/// aggregate [`Counters`] plus a post-warm-up Welford over successful
/// completions. Keeps no events, so full-horizon cells cost no memory.
struct TraceDelay {
    warm_us: f64,
    delay: Welford,
    counters: Counters,
}

impl TraceDelay {
    fn new(warm_us: f64) -> Self {
        TraceDelay {
            warm_us,
            delay: Welford::new(),
            counters: Counters::new(),
        }
    }
}

impl Recorder for TraceDelay {
    fn record(&mut self, ev: ObsEvent) {
        self.counters.observe(&ev);
        if let ObsEvent::Complete {
            t_us,
            delay_us,
            ok: true,
            ..
        } = ev
        {
            if t_us >= self.warm_us {
                self.delay.add(delay_us);
            }
        }
    }
}

/// One fig06 cell derived twice: from the report and from the trace.
struct Cell {
    stable: bool,
    report_delay_us: f64,
    report_delivered: u64,
    trace_delay_us: f64,
    trace_count: u64,
    counters: Counters,
}

impl Cell {
    /// The trace-derived mean delay, or ∞ for an unstable cell.
    fn trace_delay_or_inf(&self) -> f64 {
        if self.stable {
            self.trace_delay_us
        } else {
            f64::INFINITY
        }
    }
}

fn run_cell(policy: LockPolicy, rate: f64) -> Cell {
    let mut cfg = template_with(locking(policy), 8, false);
    cfg.population = cfg.population.clone().with_rate(rate);
    let mut rec = TraceDelay::new(cfg.warmup.as_micros_f64());
    let (report, _probe) = run_observed(&cfg, &mut rec);
    Cell {
        stable: report.stable,
        report_delay_us: report.mean_delay_us,
        report_delivered: report.delivered,
        trace_delay_us: rec.delay.mean(),
        trace_count: rec.delay.count(),
        counters: rec.counters,
    }
}

/// The committed fig06 value for (rate row, series column), if the file
/// and the cell exist. `None` for missing files and `inf` cells.
fn committed_fig06(rate: f64, column: usize) -> Option<f64> {
    let text = fs::read_to_string(results_dir().join("fig06.csv")).ok()?;
    for line in text.lines().skip(1) {
        let mut fields = line.split(',');
        let r: f64 = fields.next()?.parse().ok()?;
        if (r - rate).abs() < 1e-9 {
            return fields.nth(column)?.parse::<f64>().ok();
        }
    }
    None
}

pub fn experiment(smoke: bool, checks: &mut Checks) {
    // ------------------------------------------------------------------
    // Simulator: the fig06 grid through the streaming trace recorder.
    // ------------------------------------------------------------------
    let full_rates = [
        200.0, 400.0, 800.0, 1400.0, 2000.0, 2800.0, 3600.0, 4200.0, 4800.0, 5200.0,
    ];
    let smoke_rates = [200.0, 1400.0, 2800.0];
    let rates: &[f64] = if smoke { &smoke_rates } else { &full_rates };
    let policies = [
        ("baseline", LockPolicy::Baseline),
        ("pools", LockPolicy::Pools),
        ("mru", LockPolicy::Mru),
        ("wired", LockPolicy::Wired),
    ];
    println!(
        "simulator: {} rates x {} policies, full fig06 horizon{}\n",
        rates.len(),
        policies.len(),
        if smoke { " (smoke grid)" } else { "" }
    );

    // cells[policy][rate]
    let cells: Vec<Vec<Cell>> = policies
        .iter()
        .map(|(label, p)| {
            let row: Vec<Cell> = rates.iter().map(|&r| run_cell(p.clone(), r)).collect();
            println!(
                "  {label:<9} trace delays: {}",
                row.iter()
                    .map(|c| format!("{:.1}", c.trace_delay_or_inf()))
                    .collect::<Vec<_>>()
                    .join(" ")
            );
            row
        })
        .collect();

    // The trace must reproduce the collector, cell by cell.
    let mut max_gap: f64 = 0.0;
    let mut conserved = true;
    let mut counted = true;
    for row in &cells {
        for c in row {
            if c.stable {
                max_gap = max_gap.max((c.trace_delay_us - c.report_delay_us).abs());
            }
            let k = &c.counters;
            conserved &= k.enqueued as i64 == k.completed as i64 + k.evicted as i64 + k.in_flight();
            counted &= k.completed <= k.dispatched
                && k.dispatched <= k.enqueued
                && c.trace_count == c.report_delivered;
        }
    }
    checks.expect(
        &format!("trace-derived mean delay == report mean delay (max gap {max_gap:.2e} µs)"),
        max_gap < 1e-6,
    );
    checks.expect(
        "conservation: enqueued = completed + evicted + in-flight",
        conserved,
    );
    checks.expect(
        "lifecycle: completed <= dispatched <= enqueued, trace samples == report delivered",
        counted,
    );

    // Stable cells must match the committed fig06.csv at its own
    // precision — the curves really are re-derivable from traces.
    let mut compared = 0u32;
    let mut matched = 0u32;
    for (pi, row) in cells.iter().enumerate() {
        for (ri, c) in row.iter().enumerate() {
            if let (true, Some(want)) = (c.stable, committed_fig06(rates[ri], pi)) {
                compared += 1;
                if format!("{:.2}", c.trace_delay_us) == format!("{want:.2}") {
                    matched += 1;
                }
            }
        }
    }
    checks.expect(
        &format!("trace cells match committed fig06.csv ({matched}/{compared} cells)"),
        compared > 0 && matched == compared,
    );

    // The affinity win, from trace data alone: at every rate where both
    // are stable, MRU beats baseline.
    let (base_row, mru_row) = (&cells[0], &cells[2]);
    let affinity_win = base_row
        .iter()
        .zip(mru_row.iter())
        .filter(|(b, m)| b.stable && m.stable)
        .all(|(b, m)| m.trace_delay_us < b.trace_delay_us);
    checks.expect(
        "affinity win (mru < baseline) at every mutually stable rate",
        affinity_win,
    );
    let hit_ordered = base_row
        .iter()
        .zip(mru_row.iter())
        .all(|(b, m)| m.counters.affinity_hit_rate() >= b.counters.affinity_hit_rate());
    checks.expect(
        "mru affinity-hit rate >= baseline at every rate",
        hit_ordered,
    );

    let (header, rows) = {
        let mut header = String::from("rate_per_stream");
        for (label, _) in &policies {
            header.push_str(&format!(",{label}"));
        }
        for (label, _) in &policies {
            header.push_str(&format!(",{label}_hit_rate"));
        }
        let rows: Vec<String> = rates
            .iter()
            .enumerate()
            .map(|(ri, r)| {
                let mut row = format!("{r}");
                for row_cells in &cells {
                    row.push_str(&format!(",{:.2}", row_cells[ri].trace_delay_or_inf()));
                }
                for row_cells in &cells {
                    row.push_str(&format!(
                        ",{:.4}",
                        row_cells[ri].counters.affinity_hit_rate()
                    ));
                }
                row
            })
            .collect();
        (header, rows)
    };
    write_csv("ext23_obs", &header, &rows);

    // ------------------------------------------------------------------
    // Native backend: the same derivation on real threads.
    // ------------------------------------------------------------------
    let matrix = if smoke {
        smoke_matrix()
    } else {
        default_matrix()
    };
    let labels: Vec<&str> = CrossPolicy::ALL.iter().map(|p| p.label()).collect();
    println!(
        "\nnative: {} scenario(s), policies {}",
        matrix.len(),
        labels.join(" / ")
    );
    for s in &matrix {
        let mut delays = Vec::new();
        for p in CrossPolicy::ALL {
            let (report, rec) = run_scenario_recorded(s, p);
            let cut = report.last_arrival_us * 0.2; // NativeConfig::new warmup_frac
            let mut w = Welford::new();
            for ev in &rec.events {
                if let ObsEvent::Complete { t_us, delay_us, .. } = *ev {
                    if t_us - delay_us >= cut {
                        w.add(delay_us);
                    }
                }
            }
            println!(
                "  {} {:<9} trace delay {:>10.1} µs (report {:>10.1}), hit rate {:.3}, steals {}",
                s.label(),
                p.label(),
                w.mean(),
                report.mean_delay_us,
                rec.counters.affinity_hit_rate(),
                rec.counters.steals
            );
            let c = &rec.counters;
            checks.expect(
                &format!(
                    "{} {}: trace accounts for every offered packet",
                    s.label(),
                    p.label()
                ),
                c.enqueued == report.offered && c.completed == report.offered && c.in_flight() == 0,
            );
            checks.expect(
                &format!(
                    "{} {}: trace sample count == report recorded count",
                    s.label(),
                    p.label()
                ),
                w.count() == report.recorded,
            );
            checks.expect(
                &format!(
                    "{} {}: trace mean within 1e-6 of report",
                    s.label(),
                    p.label()
                ),
                (w.mean() - report.mean_delay_us).abs() <= 1e-6 * report.mean_delay_us.max(1.0),
            );
            delays.push((p, w.mean()));
        }
        let get = |want: CrossPolicy| {
            delays
                .iter()
                .find(|(p, _)| *p == want)
                .map(|&(_, d)| d)
                .unwrap_or(f64::NAN)
        };
        checks.expect(
            &format!(
                "{}: affinity win from traces (ips <= slack * oblivious)",
                s.label()
            ),
            get(CrossPolicy::Ips) <= ORDERING_SLACK * get(CrossPolicy::Oblivious),
        );
    }

    // ------------------------------------------------------------------
    // Golden trace: regenerate and persist the seeded-replay artifact.
    // ------------------------------------------------------------------
    let (golden_report, golden_trace) = obs_trace_golden();
    let (replay_report, replay_trace) = obs_trace_golden();
    checks.expect(
        "golden trace: identical seed+config => byte-identical JSONL",
        golden_trace == replay_trace && golden_report == replay_report,
    );
    let path = results_dir().join(OBS_TRACE_GOLDEN_FILE);
    fs::write(&path, &golden_trace).expect("write golden trace");
    println!(
        "\n  wrote {} ({} events)",
        path.display(),
        golden_trace.lines().count()
    );
}
