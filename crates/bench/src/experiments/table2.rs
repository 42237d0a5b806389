//! Table 2 — components of affinity overhead.
//!
//! The paper's Section-4 experimental method isolates the individual
//! components of affinity-related overhead: what a packet pays when only
//! the thread stack, only the stream (connection) state, or only the
//! code+globals have been displaced — and what a migrated (remote-cache)
//! fetch costs relative to a memory fill.

use crate::{Artifact, Checks};
use afs_cache::model::exec_time::{Age, ComponentAges};
use afs_cache::sim::trace::Region;
use afs_core::ExecParams;
use afs_xkernel::{calibrate, CostModel};

pub fn experiment(_quick: bool, checks: &mut Checks) -> Vec<Artifact> {
    let cal = calibrate(&CostModel::default());
    let warm = cal.bounds.t_warm_us;
    println!("per-packet cost over t_warm = {warm:.1} us when one component is displaced:");
    println!(
        "  thread stack purged     +{:>7.1} us   (weight {:.3})",
        cal.t_thread_us - warm,
        cal.weights.thread
    );
    println!(
        "  stream state purged     +{:>7.1} us   (weight {:.3})",
        cal.t_stream_us - warm,
        cal.weights.stream
    );
    println!(
        "  code+globals purged     +{:>7.1} us   (weight {:.3})",
        cal.t_code_global_us - warm,
        cal.weights.code_global
    );
    println!(
        "  everything purged       +{:>7.1} us   (the full reload span)",
        cal.bounds.reload_span_us()
    );

    // Migration penalties via the analytic model: remote fetch vs cold.
    let exec = ExecParams::calibrated();
    let warm_ages = ComponentAges::ALL_WARM;
    let t_warm = exec.protocol_time(warm_ages).as_micros_f64();
    let stream_cold = exec
        .protocol_time(ComponentAges {
            stream: Age::Cold,
            ..warm_ages
        })
        .as_micros_f64();
    let stream_remote = exec
        .protocol_time(ComponentAges {
            stream: Age::Remote,
            ..warm_ages
        })
        .as_micros_f64();
    let thread_remote = exec
        .protocol_time(ComponentAges {
            thread: Age::Remote,
            ..warm_ages
        })
        .as_micros_f64();
    println!("\nmigration penalties (analytic model):");
    println!(
        "  stream state, memory fill    +{:>6.1} us",
        stream_cold - t_warm
    );
    println!(
        "  stream state, remote cache   +{:>6.1} us",
        stream_remote - t_warm
    );
    println!(
        "  thread stack, remote cache   +{:>6.1} us",
        thread_remote - t_warm
    );
    println!(
        "  locking overhead              {:>6.1} us/packet",
        cal.lock_overhead_us
    );
    println!(
        "  dirty stream state in L2      {:>6} B of {} B resident (migrates cache-to-cache)",
        cal.dirty_stream_bytes,
        cal.l2_footprint_bytes[Region::Stream.index()]
    );

    let rows = vec![
        format!("thread_purged_extra_us,{:.2}", cal.t_thread_us - warm),
        format!("stream_purged_extra_us,{:.2}", cal.t_stream_us - warm),
        format!("code_purged_extra_us,{:.2}", cal.t_code_global_us - warm),
        format!("full_span_us,{:.2}", cal.bounds.reload_span_us()),
        format!("w_thread,{:.4}", cal.weights.thread),
        format!("w_stream,{:.4}", cal.weights.stream),
        format!("w_code_global,{:.4}", cal.weights.code_global),
        format!("stream_remote_extra_us,{:.2}", stream_remote - t_warm),
        format!("lock_overhead_us,{:.2}", cal.lock_overhead_us),
    ];

    checks.expect("components sum approximately to the full span", {
        let sum =
            (cal.t_thread_us - warm) + (cal.t_stream_us - warm) + (cal.t_code_global_us - warm);
        (sum - cal.bounds.reload_span_us()).abs() / cal.bounds.reload_span_us() < 0.25
    });
    checks.expect(
        "code+globals is the largest component (text dominates)",
        cal.t_code_global_us > cal.t_stream_us && cal.t_code_global_us > cal.t_thread_us,
    );
    checks.expect(
        "remote fetch costs more than a memory fill",
        stream_remote > stream_cold,
    );
    vec![Artifact::csv("table2.csv", "key,value", &rows)]
}
