//! The unification contract of the native pipeline: serving is replay
//! with a streaming arrival source and an admission bound, nothing more.
//!
//! For every NIC front-end × every policy rung × dequeue batch {1, 8},
//! `run_serve` over an open-loop Zipf generator and `run_native` over
//! the materialized `zipf_workload` of the *same* parameters must agree
//! bit for bit on every virtual field the two reports share — ledger,
//! delay/service/wait moments, makespan, steering counters and the
//! per-worker telemetry — as long as admission sheds nothing (replay
//! has no admission bound, so a drop is the one legitimate difference;
//! the load is held at 0.4 × rated capacity and `dropped == 0` is
//! asserted, as is `steals > 0` on the IPS rows so the stealing cells
//! are not vacuous).
//!
//! Every cell above carries 64 B payloads; the claim-arbitrated rungs
//! (IPS stealing, Locking's shared pool) also run at 4 KiB. Serving
//! builds each frame on the worker that processes the packet (a thief
//! or a pooled claimant included), in that worker's run order, while
//! replay's frames were built up front in arrival order: a frame built
//! for the wrong packet, length or session would price or demultiplex
//! differently. (The bytes themselves, ident wrap included, are pinned
//! by the unit test beside `worker::frame_of`.)

use affinity_sched::native::{
    run_native, run_serve, zipf_workload, FrontEndKind, Pinning, PolicySpec, ServeConfig,
    WorkerStats,
};

/// Packets per cell: the full count in release (the `serving` CI job),
/// a bounded smoke tier under the debug tier-1 command.
const PACKETS: u64 = if cfg!(debug_assertions) { 600 } else { 4_000 };

fn cell(kind: FrontEndKind, policy: PolicySpec, batch: usize, payload_bytes: usize) -> ServeConfig {
    let mut cfg = ServeConfig::new(3, 2_000, kind, policy);
    cfg.native.pinning = Pinning::Off;
    cfg.native.batch = batch;
    cfg.payload_bytes = payload_bytes;
    cfg.offered_pps = 0.4 * cfg.rated_capacity_pps();
    cfg.total_packets = PACKETS;
    cfg.warmup_packets = 0;
    cfg
}

/// A worker's telemetry with the host's `pinned` dropped, and the f64
/// clocks as bit patterns.
fn pinned_fields(w: &WorkerStats) -> [u64; 9] {
    [
        w.worker as u64,
        w.core as u64,
        w.processed,
        w.delivered,
        w.steals,
        w.stream_migrations,
        w.thread_migrations,
        w.busy_us.to_bits(),
        w.vclock_us.to_bits(),
    ]
}

#[test]
fn serve_and_replay_agree_bit_for_bit_on_every_cell() {
    let mut cells = Vec::new();
    for kind in FrontEndKind::ALL {
        for policy in PolicySpec::ALL {
            cells.extend([(kind, policy, 1usize, 64usize), (kind, policy, 8, 64)]);
        }
        for policy in [PolicySpec::Ips, PolicySpec::Locking] {
            cells.push((kind, policy, 1, 4096));
        }
    }
    for (kind, policy, batch, payload_bytes) in cells {
        let label = format!(
            "{}/{} batch={batch} payload={payload_bytes}",
            kind.label(),
            policy.label()
        );
        let cfg = cell(kind, policy, batch, payload_bytes);
        let serve = run_serve(&cfg, None);

        let mut native = cfg.native.clone();
        native.warmup_frac = 0.0;
        let workload = zipf_workload(
            cfg.streams,
            cfg.total_packets,
            cfg.offered_pps,
            cfg.alpha,
            cfg.batch_mean,
            native.session_space,
            cfg.payload_bytes,
            native.seed,
        );
        let replay = run_native(&native, workload);

        assert_eq!(serve.dropped, 0, "{label}: the load must shed nothing");
        assert!(serve.ledger_balanced(), "{label}");
        if policy == PolicySpec::Ips {
            assert!(replay.steals > 0, "{label}: the stealing cell is vacuous");
        }
        assert_eq!(serve.policy, replay.policy, "{label}");
        assert_eq!(serve.workers, replay.workers, "{label}");
        assert_eq!(serve.offered, replay.offered, "{label}");
        assert_eq!(serve.admitted, replay.offered, "{label}");
        assert_eq!(serve.outcomes, replay.outcomes, "{label}");
        assert_eq!(serve.recorded, replay.recorded, "{label}");
        assert_eq!(serve.table_misses, replay.table_misses, "{label}");
        assert_eq!(serve.rebinds, replay.rebinds, "{label}");
        for (name, s, r) in [
            ("mean_delay_us", serve.mean_delay_us, replay.mean_delay_us),
            (
                "mean_service_us",
                serve.mean_service_us,
                replay.mean_service_us,
            ),
            ("mean_wait_us", serve.mean_wait_us, replay.mean_wait_us),
            ("max_delay_us", serve.max_delay_us, replay.max_delay_us),
            (
                "last_arrival_us",
                serve.last_arrival_us,
                replay.last_arrival_us,
            ),
            ("makespan_us", serve.makespan_us, replay.makespan_us),
        ] {
            assert_eq!(s.to_bits(), r.to_bits(), "{label}: {name} {s} vs {r}");
        }
        assert_eq!(
            serve
                .per_worker
                .iter()
                .map(pinned_fields)
                .collect::<Vec<_>>(),
            replay
                .per_worker
                .iter()
                .map(pinned_fields)
                .collect::<Vec<_>>(),
            "{label}: per-worker telemetry"
        );
    }
}
