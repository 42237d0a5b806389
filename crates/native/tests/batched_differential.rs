//! Batched dispatch is result-transparent: for every front-end × policy
//! cell of the stream matrix, running the identical workload with
//! dequeue batches of 8 and 64 (train pops + flow-run fusion) yields a
//! `NativeReport` bit-identical to the historical per-packet path
//! (batch 1) — the ledger, the delay/service/wait moments, the
//! steering counters, and the per-stream delivery counts all match
//! exactly, and so does every per-worker counter.

use afs_core::crossval::{stream_smoke_matrix, STREAM_POLICIES};
use afs_native::crossval::{native_stream_config, native_stream_workload};
use afs_native::{run_native, FrontEndKind, Pinning};

#[test]
fn batched_dispatch_is_bit_identical_across_the_stream_matrix() {
    for s in stream_smoke_matrix() {
        for kind in FrontEndKind::ALL {
            for &policy in &STREAM_POLICIES {
                let mut cfg = native_stream_config(&s, kind, policy);
                cfg.pinning = Pinning::Off;
                let base = run_native(&cfg, native_stream_workload(&s));
                assert_eq!(base.offered, s.total_packets);
                for batch in [8usize, 64] {
                    let mut cfg_b = cfg.clone();
                    cfg_b.batch = batch;
                    let got = run_native(&cfg_b, native_stream_workload(&s));
                    assert_eq!(
                        got,
                        base,
                        "batch={batch} diverged for {}/{} on {}",
                        kind.label(),
                        policy.label(),
                        s.label(),
                    );
                }
            }
        }
    }
}

/// The router-dispatched (no front-end) layouts must also be
/// unaffected — including the stealing and shared-pool rungs, whose
/// arbitration is dispatcher-side claim resolution (DESIGN.md §3,
/// `crates/sched`, the claim protocol) and therefore independent of
/// how many packets a worker pops per train.
#[test]
fn batched_dispatch_is_bit_identical_on_legacy_layouts() {
    use afs_native::{zipf_workload, NativeConfig, PolicySpec};
    for policy in PolicySpec::ALL {
        let mut cfg = NativeConfig::new(2, policy);
        cfg.pinning = Pinning::Off;
        cfg.seed = 0xBA7C;
        let workload = || zipf_workload(64, 4_000, 30_000.0, 1.1, 4.0, None, 64, 0xBA7C);
        let base = run_native(&cfg, workload());
        for batch in [8usize, 64] {
            let mut cfg_b = cfg.clone();
            cfg_b.batch = batch;
            let got = run_native(&cfg_b, workload());
            assert_eq!(got, base, "batch={batch} diverged for {}", policy.label());
        }
    }
}
