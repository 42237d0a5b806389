//! Extension E26 — the sustained-ingest serving path under offered-load
//! sweep.
//!
//! The replay harness (E22–E25) materializes its workload up front and
//! never drops: fine for cross-validation, wrong for asking the
//! serving question — *what does the pinned pipeline do when the
//! offered load is not a fit*? This harness drives the `afs-serve`
//! path (`afs_native::run_serve`: open-loop chunk generation, pooled
//! frame buffers, virtual-domain taildrop, batched dequeue) across
//! offered loads from half to twice the rated capacity, dequeue
//! batches {1, 8, 64}, and **all five policy rungs** behind a
//! Flow-Director front-end — including the locking pool and IPS
//! stealing, which serve through the virtual-order claim protocol
//! (DESIGN.md §3, `afs-sched::claim`) — and records the degradation surface: goodput,
//! drop fraction, and delay.
//!
//! Pinned claims:
//!
//! * **The ledger balances in every cell** — `offered = admitted +
//!   dropped`, every admitted packet reaching exactly one outcome; no
//!   packet is unaccounted at any load.
//! * **Batching is result-transparent while serving** — for every
//!   (policy, load), batches 8 and 64 reproduce batch 1's virtual
//!   results bit-for-bit (same admissions, same drops, same delay
//!   moments, same steering counters). With claim arbitration this now
//!   covers the stealing and pooled rows too. The CSV makes this
//!   visible: rows differing only in `batch` are identical in every
//!   virtual column.
//! * **Every row replays bit-identically** — the virtual projection of
//!   each (policy, load) cell is a pure function of its config: a
//!   re-run reproduces it exactly, at every worker count probed
//!   ({1, 2, 4} at rated load), steal schedules included.
//! * **Degradation is graceful** — goodput rises with load until the
//!   rated knee and then saturates (it never collapses); past the
//!   knee the surplus shows up as tail drops, not lost accounting.
//!
//! Delay under overload keeps growing with the horizon rather than
//! saturating: admission drains the virtual queue model at the
//! optimistic all-warm service time, so a true-service backlog
//! accumulates ahead of the admitted stream. The committed artifact
//! reads `mean_delay_us` as "how far behind the pipeline ran at this
//! horizon", not a steady-state latency.
//!
//! `--smoke` (or `AFS_QUICK=1`) shrinks the horizon. Emits
//! `results/ext26_serve.csv`.

use crate::{write_csv, Checks};
use afs_native::{run_serve, FrontEndKind, Pinning, PolicySpec, ServeConfig, ServeReport};

const WORKERS: usize = 2;
const STREAMS: u32 = 20_000;
const QUEUE_CAPACITY: usize = 256;
const LOADS: [f64; 5] = [0.5, 0.8, 1.0, 1.5, 2.0];
const BATCHES: [usize; 3] = [1, 8, 64];
/// Worker counts the rated-load determinism probe replays at.
const DETERMINISM_WORKERS: [usize; 3] = [1, 2, 4];

fn cell(workers: usize, policy: PolicySpec, load: f64, batch: usize, packets: u64) -> ServeReport {
    let mut cfg = ServeConfig::new(workers, STREAMS, FrontEndKind::FlowDirector, policy);
    cfg.native.pinning = Pinning::Off;
    cfg.native.queue_capacity = QUEUE_CAPACITY;
    cfg.native.batch = batch;
    cfg.offered_pps = load * cfg.rated_capacity_pps();
    cfg.total_packets = packets;
    cfg.warmup_packets = packets / 5;
    run_serve(&cfg, None)
}

/// The virtual-domain projection two batch sizes (or two replays) must
/// agree on to the bit. Host gauges (wall time, RSS, pkts/s-of-wall)
/// and the racy per-worker depth/contention samples are excluded by
/// construction.
fn virtual_key(r: &ServeReport) -> (u64, u64, u64, u64, u64, u64, u64, u64, u64, u64) {
    (
        r.admitted,
        r.dropped,
        r.outcomes.delivered,
        r.recorded,
        r.mean_delay_us.to_bits(),
        r.mean_service_us.to_bits(),
        r.makespan_us.to_bits(),
        r.table_misses,
        r.rebinds,
        r.per_worker
            .iter()
            .map(|w| w.stream_migrations)
            .sum::<u64>(),
    )
}

pub fn experiment(smoke: bool, checks: &mut Checks) {
    let packets: u64 = if smoke { 10_000 } else { 40_000 };
    println!(
        "{WORKERS} workers, {STREAMS} flows, fdir front-end, queue capacity {QUEUE_CAPACITY}, \
         {packets} packets per cell, all {} policy rungs\n",
        PolicySpec::ALL.len()
    );

    let mut rows = Vec::new();
    for policy in PolicySpec::ALL {
        println!(
            "{:<11} {:>5} {:>6} {:>12} {:>9} {:>9} {:>10} {:>12} {:>10}",
            "policy",
            "load",
            "batch",
            "offered_pps",
            "admitted",
            "dropped",
            "goodput",
            "delay_us",
            "rebinds"
        );
        for &load in &LOADS {
            let mut base: Option<ServeReport> = None;
            for &batch in &BATCHES {
                let r = cell(WORKERS, policy, load, batch, packets);
                println!(
                    "{:<11} {:>5.2} {:>6} {:>12.1} {:>9} {:>9} {:>10.1} {:>12.1} {:>10}",
                    r.policy,
                    load,
                    batch,
                    load * cell_capacity(),
                    r.admitted,
                    r.dropped,
                    r.goodput_pps(),
                    r.mean_delay_us,
                    r.rebinds,
                );
                checks.expect(
                    "serving ledger balances (offered = admitted + dropped = outcomes)",
                    r.ledger_balanced(),
                );
                if let Some(b) = &base {
                    checks.expect(
                        "batched serving bit-identical to batch 1 in the virtual domain",
                        virtual_key(&r) == virtual_key(b),
                    );
                } else {
                    // Re-run the base cell: every row's virtual
                    // projection must replay bit-identically (the claim
                    // protocol pins the steal/pool schedule too).
                    let again = cell(WORKERS, policy, load, batch, packets);
                    checks.expect(
                        "serving row replays bit-identically",
                        virtual_key(&again) == virtual_key(&r),
                    );
                    base = Some(r.clone());
                }
                rows.push(format!(
                    "{},{},{:.2},{:.1},{},{},{},{:.4},{:.1},{:.3},{:.3},{:.3},{},{},{}",
                    r.policy,
                    batch,
                    load,
                    load * cell_capacity(),
                    r.offered,
                    r.admitted,
                    r.dropped,
                    r.drop_frac(),
                    r.goodput_pps(),
                    r.mean_delay_us,
                    r.mean_service_us,
                    r.max_delay_us,
                    r.table_misses,
                    r.rebinds,
                    r.per_worker
                        .iter()
                        .map(|w| w.stream_migrations)
                        .sum::<u64>(),
                ));
            }
        }
        println!();
    }

    // Determinism across worker counts at rated load: at every probed
    // worker count each rung's virtual projection replays exactly —
    // the claim-arbitrated rungs are no longer a single-worker promise.
    for policy in PolicySpec::ALL {
        for &workers in &DETERMINISM_WORKERS {
            let a = cell(workers, policy, 1.0, 1, packets.min(10_000));
            let b = cell(workers, policy, 1.0, 1, packets.min(10_000));
            checks.expect(
                "rated-load cell replays bit-identically at every worker count",
                virtual_key(&a) == virtual_key(&b),
            );
        }
    }

    // Graceful-degradation shape, per policy: goodput at 2x load is at
    // least the goodput at 1x (saturation, not collapse), underload
    // drops (almost) nothing, and heavy overload visibly tail-drops.
    for pi in 0..PolicySpec::ALL.len() {
        let row = |load_idx: usize| {
            // Rows are laid out policy-major, then load, then batch.
            let idx = pi * LOADS.len() * BATCHES.len() + load_idx * BATCHES.len();
            rows[idx].split(',').map(String::from).collect::<Vec<_>>()
        };
        let goodput = |load_idx: usize| row(load_idx)[8].parse::<f64>().unwrap();
        let dropf = |load_idx: usize| row(load_idx)[7].parse::<f64>().unwrap();
        checks.expect(
            "goodput saturates rather than collapses past the knee",
            goodput(4) >= 0.95 * goodput(2),
        );
        checks.expect("half load sheds (almost) nothing", dropf(0) < 0.005);
        checks.expect("double load visibly tail-drops", dropf(4) > 0.2);
    }

    write_csv(
        "ext26_serve",
        "policy,batch,load,offered_pps,offered,admitted,dropped,drop_frac,goodput_pps,\
         mean_delay_us,mean_service_us,max_delay_us,table_misses,rebinds,stream_migrations",
        &rows,
    );
}

/// Rated capacity of the sweep's fixed configuration, pps (the warm
/// service estimate is policy-independent).
fn cell_capacity() -> f64 {
    ServeConfig::new(
        WORKERS,
        STREAMS,
        FrontEndKind::FlowDirector,
        PolicySpec::Oblivious,
    )
    .rated_capacity_pps()
}
