//! Trace debugging: watch individual scheduling decisions — which
//! processor served which stream, when streams migrated, and what each
//! dispatch cost — using the `afs-obs` event trace and the replication
//! API.
//!
//! ```sh
//! cargo run --release --example trace_debugging
//! ```

use affinity_sched::prelude::*;
use afs_core::sim::run_observed;
use afs_obs::{MemRecorder, ObsEvent};

fn main() {
    let k = 6;
    let mut cfg = SystemConfig::new(
        Paradigm::Locking {
            policy: LockPolicy::Mru,
        },
        Population::homogeneous_poisson(k, 400.0),
    );
    cfg.warmup = SimDuration::from_millis(50);
    cfg.horizon = SimDuration::from_millis(400);

    let mut rec = MemRecorder::new();
    let (report, _) = run_observed(&cfg, &mut rec);
    // (time, stream, processor, service, stream-state-migrated) per dispatch.
    let dispatches: Vec<(f64, u32, u32, f64, bool)> = rec
        .events
        .iter()
        .filter_map(|ev| match *ev {
            ObsEvent::Dispatch {
                t_us,
                stream,
                worker,
                service_us,
                stream_migrated,
                ..
            } => Some((t_us, stream, worker, service_us, stream_migrated)),
            _ => None,
        })
        .collect();
    println!(
        "run: {} dispatches traced, mean delay {:.1} us\n",
        dispatches.len(),
        report.mean_delay_us
    );

    println!("per-stream processor history (first 14 dispatches each):");
    for s in 0..k as u32 {
        let hist: Vec<u32> = dispatches
            .iter()
            .filter(|&&(_, stream, ..)| stream == s)
            .map(|&(_, _, proc, ..)| proc)
            .collect();
        let shown: Vec<String> = hist.iter().take(14).map(|p| p.to_string()).collect();
        println!(
            "  stream {s}: [{}]  ({} migrations / {} dispatches)",
            shown.join(" "),
            hist.windows(2).filter(|w| w[0] != w[1]).count(),
            hist.len()
        );
    }

    println!("\nfirst 8 dispatch decisions in detail:");
    for &(t_us, stream, proc, service_us, stream_migrated) in dispatches.iter().take(8) {
        println!(
            "  t={t_us:>9.1}us  stream {stream} -> proc {proc}  service {service_us:>6.1}us{}",
            if stream_migrated {
                "  [stream state migrated]"
            } else {
                ""
            }
        );
    }

    println!(
        "\nper-processor packets served: {:?}",
        report.per_proc_served
    );

    // Cross-check the headline number with independent replications.
    let reps = replicate(&cfg, 5);
    println!(
        "\nreplication check (5 seeds): delay {:.1} ± {:.1} us (min {:.1}, max {:.1})",
        reps.mean_delay_us.mean,
        reps.mean_delay_us.ci_half,
        reps.mean_delay_us.min,
        reps.mean_delay_us.max
    );
}
