//! Benchmark snapshot — the committed performance baseline.
//!
//! Times the workspace's representative experiment families and writes
//! `results/BENCH_perf.json`: simulated packets per wall-clock second
//! on the single-run hot path, wall time per experiment family, and the
//! serial-vs-parallel speedup of the `afs_core::par` executor — the
//! trajectory document future sessions diff their optimizations
//! against.
//!
//! The snapshot also *verifies* while it measures: the parallel sweep's
//! delays must be bit-identical to the serial sweep's (the executor's
//! core contract), and the process exits non-zero if they are not.
//!
//! It also writes `results/size.json` — code lines per crate, non-test
//! versus test — so a PR that grows or shrinks a crate shows up as a
//! diff in a committed file. That file is host- and mode-independent.
//!
//! `AFS_QUICK=1` shrinks the horizons for CI smoke runs; a committed
//! baseline should be regenerated without it. Wall-clock numbers are
//! machine-dependent — the JSON records the host's core count and the
//! worker count used so a diff is read in context.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use afs_bench::{
    banner, json_object, quick_mode, results_dir, template, write_json, Checks, K_STREAMS,
};
use afs_core::crossval::{sim_matrix_jobs, smoke_matrix};
use afs_core::par::{default_jobs, jobs_from_env};
use afs_core::prelude::*;
use afs_core::replicate::replicate_jobs;
use afs_core::state::{LocTable, Procs};
use afs_core::sweep::rate_sweep_jobs;
use afs_desim::event::EventQueue;
use afs_desim::time::SimTime;
use afs_native::{run_serve, ServeConfig};
use afs_sched::{ClaimTable, StealPolicy};

/// Wall time of `f` in seconds alongside its result.
fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let r = f();
    (t0.elapsed().as_secs_f64(), r)
}

/// A committed baseline number, read from `results/BENCH_perf.json`
/// *before* this run overwrites it. `None` when the file is absent,
/// unparseable, or predates the field (first run on a fresh tree).
fn committed_baseline(field: &str) -> Option<f64> {
    let text = std::fs::read_to_string(results_dir().join("BENCH_perf.json")).ok()?;
    let tail = text.split(&format!("\"{field}\":")).nth(1)?;
    tail.trim_start()
        .split([',', '}'])
        .next()?
        .trim()
        .parse()
        .ok()
}

/// The attribute that opens a source file's unit tests (spelled in two
/// halves so this file does not trip its own rule).
const TEST_MARKER: &str = concat!("#[cfg(", "test)]");

/// Code lines of one Rust source as `(non_test, test)`. A code line is
/// non-blank and does not start with `//`; everything from the first
/// [`TEST_MARKER`] on is test code.
fn code_lines(text: &str) -> (u64, u64) {
    let (mut non_test, mut test, mut in_tests) = (0, 0, false);
    for line in text.lines().map(str::trim_start) {
        in_tests |= line.contains(TEST_MARKER);
        if line.is_empty() || line.starts_with("//") {
            continue;
        }
        *if in_tests { &mut test } else { &mut non_test } += 1;
    }
    (non_test, test)
}

/// Code lines of every `.rs` file under `dir` (recursively, in sorted
/// order), summed as `(non_test, test)`. A missing directory is empty.
fn dir_code_lines(dir: &Path) -> (u64, u64) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return (0, 0);
    };
    let mut paths: Vec<PathBuf> = entries.map(|e| e.expect("dir entry").path()).collect();
    paths.sort();
    paths.iter().fold((0, 0), |(n, t), path| {
        let (dn, dt) = if path.is_dir() {
            dir_code_lines(path)
        } else if path.extension().is_some_and(|x| x == "rs") {
            code_lines(&std::fs::read_to_string(path).expect("read source"))
        } else {
            (0, 0)
        };
        (n + dn, t + dt)
    })
}

/// Write `results/size.json`: per package, `src/` by the rule of
/// [`code_lines`], plus `tests/` and `benches/` counted wholly as test
/// code. One package per line, sorted, so growth reads as a line diff.
fn write_size_snapshot() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut packages = vec![("affinity-sched".to_string(), root.clone())];
    let mut crates: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))
        .expect("list crates/")
        .map(|e| e.expect("dir entry").path())
        .collect();
    crates.sort();
    for dir in crates {
        let name = dir.file_name().expect("crate dir name").to_string_lossy();
        packages.push((format!("crates/{name}"), dir));
    }
    let mut body = format!(
        "{{\n  \"rule\": \"code line = non-blank, not starting with //; src/ from the first \
         {TEST_MARKER} on, tests/ and benches/ count as test\",\n  \"packages\": {{\n"
    );
    let (mut all_non_test, mut all_test) = (0, 0);
    for (i, (name, dir)) in packages.iter().enumerate() {
        let (non_test, unit) = dir_code_lines(&dir.join("src"));
        let (a, b) = dir_code_lines(&dir.join("tests"));
        let (c, d) = dir_code_lines(&dir.join("benches"));
        let test = unit + a + b + c + d;
        all_non_test += non_test;
        all_test += test;
        let sep = if i + 1 < packages.len() { "," } else { "" };
        let _ = writeln!(
            body,
            "    \"{name}\": {{\"non_test\": {non_test}, \"test\": {test}}}{sep}"
        );
    }
    let _ = write!(
        body,
        "  }},\n  \"total\": {{\"non_test\": {all_non_test}, \"test\": {all_test}}}\n}}\n"
    );
    write_json("size", &body);
}

/// Event-queue op rate: a standing-population push/pop churn loop over
/// the calendar queue, the exact access pattern of the simulator's
/// schedule/fire cycle. Returns ops/second (one push or one pop = one
/// op).
fn event_queue_ops_per_s(pairs: u64) -> f64 {
    let mut q = EventQueue::new();
    for i in 0..1024u64 {
        q.push(SimTime::from_micros(i), i);
    }
    let (t, _) = timed(|| {
        let mut t_now = 1024u64;
        let mut acc = 0u64;
        for _ in 0..pairs {
            let (_, v) = q.pop().expect("standing population");
            acc ^= v;
            t_now += 1 + (acc & 7); // irregular gaps, data-dependent
            q.push(SimTime::from_micros(t_now), v);
        }
        acc
    });
    (2 * pairs) as f64 / t
}

/// Claim-arbitration op rate: drive a [`ClaimTable`] through a bursty
/// synthetic arrival stream and count resolved claims per wall second
/// (one offer -> one eventual claim; the stealing model's staging,
/// event scan, and steal visits are all on this path). This is the
/// dispatcher-side cost the virtual-order claim protocol (DESIGN.md
/// §17) added to every pooled pop and steal, so it gets its own
/// committed trajectory number.
fn claim_ops_per_s(jobs: u64, workers: usize, stealing: bool) -> f64 {
    const EST_US: f64 = 100.0;
    let (t, resolved) = timed(|| {
        let mut table = if stealing {
            ClaimTable::stealing(workers, EST_US, StealPolicy::default())
        } else {
            ClaimTable::pooled(workers, EST_US)
        };
        let mut out = Vec::with_capacity(1024);
        let mut resolved = 0u64;
        let mut t_us = 0.0;
        let mut acc = 0x9E37u64;
        for seq in 0..jobs {
            // Bursty irregular gaps around the service estimate and a
            // hot owner 0: owner pops, backlogs, and steal visits all
            // exercise; the data dependence defeats dead-code folding.
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            t_us += ((acc >> 33) & 127) as f64;
            let owner = if acc & 3 == 0 {
                (seq as usize) % workers
            } else {
                0
            };
            table.offer(seq, owner, t_us, &mut out);
            if out.len() >= 1024 {
                resolved += out.len() as u64;
                out.clear();
            }
        }
        table.flush(&mut out);
        resolved + out.len() as u64
    });
    assert_eq!(resolved, jobs, "claim churn lost jobs");
    resolved as f64 / t
}

fn main() {
    banner(
        "BENCH SNAPSHOT",
        "wall-clock baseline for the simulator hot path and the parallel executor",
        "methodology artifact: committed as results/BENCH_perf.json",
    );
    write_size_snapshot();
    let quick = quick_mode();
    let host_cores = default_jobs();
    let jobs = jobs_from_env();
    println!("host cores: {host_cores}; AFS_JOBS resolved to {jobs}; quick = {quick}\n");

    // The committed baselines, read before this run overwrites the
    // file: the perf-regression gates below compare the fresh hot-path
    // and claim-arbitration numbers against them.
    let baseline_pkts_per_s = committed_baseline("sim_pkts_per_wall_s");
    let baseline_claim_steal_ops = committed_baseline("claim_steal_ops_per_s");

    let mru = Paradigm::Locking {
        policy: LockPolicy::Mru,
    };

    // Family 0 — the event core in isolation: calendar-queue ops/s under
    // the simulator's own schedule/fire churn pattern, plus the static
    // hot-state cost of one dispatch. Together they give future perf
    // PRs a finer-grained trajectory than the end-to-end number alone.
    let eq_pairs: u64 = if quick { 300_000 } else { 3_000_000 };
    let eq_ops_per_s = event_queue_ops_per_s(eq_pairs);
    // One Locking dispatch reads/writes one processor record and two
    // location records (thread stack + stream state).
    let hot_bytes_per_packet = Procs::hot_bytes_per_proc() + 2 * LocTable::hot_bytes_per_entity();
    println!(
        "event queue: {:.0} ops/s ({} push+pop pairs); hot state: {} B/proc, {} B/entity, {} B/packet",
        eq_ops_per_s,
        eq_pairs,
        Procs::hot_bytes_per_proc(),
        LocTable::hot_bytes_per_entity(),
        hot_bytes_per_packet
    );

    // Family 0b — steal-claim arbitration in isolation: resolved claims
    // per wall second through the dispatcher-side claim table, in both
    // modes, at the serving path's worker count.
    let claim_jobs: u64 = if quick { 200_000 } else { 2_000_000 };
    let claim_steal_ops = claim_ops_per_s(claim_jobs, 4, true);
    let claim_pooled_ops = claim_ops_per_s(claim_jobs, 4, false);
    println!(
        "claim arbitration ({claim_jobs} jobs, 4 workers): stealing {:.0} claims/s, pooled {:.0} claims/s",
        claim_steal_ops, claim_pooled_ops
    );

    // Family 1 — single-run hot path: simulated packets per wall second.
    // One moderate-load run, the unit every sweep point costs.
    let mut single = template(mru.clone(), K_STREAMS);
    single.population = single.population.clone().with_rate(700.0);
    let (t_single, report) = timed(|| run(&single));
    let sim_pkts_per_wall_s = report.delivered as f64 / t_single;
    println!(
        "single run: {} pkts delivered in {:.3} s wall = {:.0} simulated pkts/s",
        report.delivered, t_single, sim_pkts_per_wall_s
    );

    // Family 2 — a figure-style rate sweep, serial then parallel. The
    // speedup of this family is the executor's headline number; the
    // byte-identity of the two series is its correctness contract.
    let rates: Vec<f64> = (1..=8).map(|i| 250.0 * i as f64).collect();
    let sweep_tpl = template(mru.clone(), K_STREAMS);
    let (t_serial, serial) = timed(|| rate_sweep_jobs(1, "mru", &sweep_tpl, &rates));
    let (t_parallel, parallel) = timed(|| rate_sweep_jobs(jobs, "mru", &sweep_tpl, &rates));
    let sweep_speedup = t_serial / t_parallel.max(1e-9);
    let identical = serial.points.iter().zip(&parallel.points).all(|(a, b)| {
        a.report.mean_delay_us.to_bits() == b.report.mean_delay_us.to_bits()
            && a.report.delivered == b.report.delivered
    });
    println!(
        "rate sweep ({} pts): serial {:.3} s, parallel({jobs}) {:.3} s -> {:.2}x, bit-identical: {identical}",
        rates.len(),
        t_serial,
        t_parallel,
        sweep_speedup
    );

    // Family 3 — independent replications (the burst-figure workload).
    let mut rep_cfg = template(mru, K_STREAMS);
    rep_cfg.population = rep_cfg.population.clone().with_rate(600.0);
    let n_reps = if quick { 4 } else { 8 };
    let (t_replicate, reps) = timed(|| replicate_jobs(jobs, &rep_cfg, n_reps));
    println!(
        "replications ({n_reps}): {:.3} s, {} stable",
        t_replicate, reps.stable_count
    );

    // Family 4 — the cross-validation matrix's simulator side.
    let (t_crossval, cells) = timed(|| sim_matrix_jobs(jobs, &smoke_matrix()));
    println!(
        "crossval sim matrix ({} cells): {:.3} s",
        cells.len(),
        t_crossval
    );

    // Family 5 — the sustained-ingest serving path (`afs-serve`): host
    // packets per wall second through open-loop generation, admission,
    // batched dispatch and the real protocol engine, at rated load.
    // Batch 1 vs 64 is the dispatch-batching ablation; the virtual
    // results of the two runs must be bit-identical (the serving
    // path's transparency contract), so the speedup is pure host
    // mechanics. RSS after the run is the steady-state footprint of
    // the pooled, allocation-free pipeline.
    let serve_packets: u64 = if quick { 20_000 } else { 60_000 };
    let serve_trials = if quick { 1 } else { 3 };
    let serve_cell = |batch: usize| {
        let mut cfg = ServeConfig::new(
            2,
            20_000,
            afs_native::FrontEndKind::FlowDirector,
            afs_native::PolicySpec::MinReload,
        );
        cfg.native.pinning = afs_native::Pinning::Off;
        cfg.native.batch = batch;
        cfg.offered_pps = cfg.rated_capacity_pps();
        cfg.total_packets = serve_packets;
        cfg.warmup_packets = serve_packets / 5;
        run_serve(&cfg, None)
    };
    // Best of N trials per batch size: host wall time on a shared box
    // is contaminated by scheduling noise in one direction only, so the
    // fastest trial is the cleanest estimate (virtual results are
    // deterministic and identical across trials regardless).
    let serve_best = |batch: usize| {
        let mut best = serve_cell(batch);
        for _ in 1..serve_trials {
            let r = serve_cell(batch);
            if r.pkts_per_wall_s > best.pkts_per_wall_s {
                best = r;
            }
        }
        best
    };
    let serve1 = serve_best(1);
    let serve64 = serve_best(64);
    let serve_speedup = serve64.pkts_per_wall_s / serve1.pkts_per_wall_s.max(1e-9);
    let serve_identical = serve1.admitted == serve64.admitted
        && serve1.dropped == serve64.dropped
        && serve1.mean_delay_us.to_bits() == serve64.mean_delay_us.to_bits()
        && serve1.makespan_us.to_bits() == serve64.makespan_us.to_bits()
        && serve1.rebinds == serve64.rebinds;
    println!(
        "serve ({serve_packets} pkts @ rated load): batch 1 {:.0} pkts/s, batch 64 {:.0} pkts/s \
         -> {:.2}x, bit-identical: {serve_identical}, rss {} KiB",
        serve1.pkts_per_wall_s, serve64.pkts_per_wall_s, serve_speedup, serve64.rss_kb
    );

    let body = json_object(&[
        ("schema", "\"afs-bench-perf-v4\"".to_string()),
        ("quick", quick.to_string()),
        ("host_cores", host_cores.to_string()),
        ("afs_jobs", jobs.to_string()),
        ("sim_pkts_per_wall_s", format!("{sim_pkts_per_wall_s:.0}")),
        ("single_run_wall_s", format!("{t_single:.4}")),
        ("event_queue_ops_per_s", format!("{eq_ops_per_s:.0}")),
        ("claim_steal_ops_per_s", format!("{claim_steal_ops:.0}")),
        ("claim_pooled_ops_per_s", format!("{claim_pooled_ops:.0}")),
        (
            "hot_state_bytes_per_proc",
            Procs::hot_bytes_per_proc().to_string(),
        ),
        (
            "hot_state_bytes_per_entity",
            LocTable::hot_bytes_per_entity().to_string(),
        ),
        (
            "hot_state_bytes_per_packet",
            hot_bytes_per_packet.to_string(),
        ),
        ("sweep_points", rates.len().to_string()),
        ("sweep_serial_wall_s", format!("{t_serial:.4}")),
        ("sweep_parallel_wall_s", format!("{t_parallel:.4}")),
        ("sweep_speedup", format!("{sweep_speedup:.3}")),
        ("sweep_bit_identical", identical.to_string()),
        ("replicate_runs", n_reps.to_string()),
        ("replicate_wall_s", format!("{t_replicate:.4}")),
        ("crossval_cells", cells.len().to_string()),
        ("crossval_sim_wall_s", format!("{t_crossval:.4}")),
        ("serve_packets", serve_packets.to_string()),
        (
            "native_serve_pkts_per_wall_s",
            format!("{:.0}", serve64.pkts_per_wall_s),
        ),
        (
            "serve_batch1_pkts_per_wall_s",
            format!("{:.0}", serve1.pkts_per_wall_s),
        ),
        ("serve_batch_speedup", format!("{serve_speedup:.3}")),
        ("serve_bit_identical", serve_identical.to_string()),
        ("serve_rss_kb", serve64.rss_kb.to_string()),
    ]);
    write_json("BENCH_perf", &body);

    let mut checks = Checks::new();
    checks.expect("parallel sweep bit-identical to serial sweep", identical);
    checks.expect("single run delivered packets", report.delivered > 0);
    // Perf-regression gate against the committed baseline. The margin
    // is deliberately wide (0.5x) because wall-clock numbers cross
    // hosts and the CI smoke run uses shortened horizons — the gate is
    // for algorithmic regressions in the event core / hot state (an
    // accidental O(n) queue shows up as 10-100x, not 2x), while honest
    // same-host comparisons read the JSON diff instead.
    match baseline_pkts_per_s {
        Some(base) => checks.expect(
            "hot path not slower than 0.5x the committed baseline",
            sim_pkts_per_wall_s >= 0.5 * base,
        ),
        None => println!("  [SKIP] no committed baseline to gate against"),
    }
    // The same 0.5x gate covers the claim-arbitration family: the
    // stealing-mode table is on the dispatch path of every pooled and
    // IPS serving run, so an accidentally quadratic model scan must
    // fail the snapshot, not surface as a mystery serving slowdown.
    match baseline_claim_steal_ops {
        Some(base) => checks.expect(
            "claim arbitration not slower than 0.5x the committed baseline",
            claim_steal_ops >= 0.5 * base,
        ),
        None => println!("  [SKIP] no committed claim-arbitration baseline to gate against"),
    }
    checks.expect(
        "parallel sweep not slower than 1.5x serial (sanity, any host)",
        t_parallel < 1.5 * t_serial + 0.25,
    );
    checks.expect(
        "serving ledger balances at both batch sizes",
        serve1.ledger_balanced() && serve64.ledger_balanced(),
    );
    checks.expect(
        "batch-64 serving bit-identical to batch-1 in the virtual domain",
        serve_identical,
    );
    // Same philosophy as the hot-path gate: this end-to-end ratio only
    // catches batching *hurting* materially. Per admitted packet the
    // engine executes ~µs of real protocol work while a ring op costs
    // ~ns, so on small/shared hosts the end-to-end ablation is OS
    // noise; the per-op amortization is pinned by the `ring_batch`
    // criterion group instead.
    checks.expect(
        "batched serving not materially slower than per-packet dispatch",
        serve_speedup >= 0.75,
    );
    if host_cores >= 4 {
        checks.expect(
            "parallel sweep at least 2x faster on a >=4-core host",
            sweep_speedup >= 2.0,
        );
    } else {
        println!("  [SKIP] >=2x speedup check needs >=4 cores (host has {host_cores})");
    }
    checks.finish();
}
