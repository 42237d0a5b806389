//! The unification contract of the native pipeline: serving is replay
//! with a streaming arrival source and an admission bound, nothing more.
//!
//! For every NIC front-end × every policy rung × dequeue batch {1, 8},
//! `run_serve` over an open-loop Zipf generator and `run_native` over
//! the materialized `zipf_workload` of the *same* parameters must return
//! equal reports, whole, as long as admission sheds nothing (replay has
//! no admission bound, so a drop is the one legitimate difference; the
//! load is held at 0.4 × rated capacity and `dropped == 0` is asserted,
//! as is `steals > 0` on the IPS rows so the stealing cells are not
//! vacuous). Both bind the configured session space, so even the
//! per-session delivery counts agree.
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
        assert_eq!(serve, replay, "{label}");
    }
}
