//! Compact text summary of a [`Counters`] snapshot, suitable for
//! appending to experiment output.

use std::fmt::Write as _;

use crate::counters::Counters;

/// Render a human-readable multi-line summary.
pub fn render(c: &Counters) -> String {
    let mut out = String::with_capacity(512);
    let _ = writeln!(
        out,
        "obs: {} enqueued / {} dispatched / {} completed ({} ok, {} evicted, {} in flight)",
        c.enqueued,
        c.dispatched,
        c.completed,
        c.completed_ok,
        c.evicted,
        c.in_flight()
    );
    let _ = writeln!(
        out,
        "  affinity: {:.1}% hits | {} stream migrations | {} thread migrations",
        100.0 * c.affinity_hit_rate(),
        c.stream_migrations,
        c.thread_migrations
    );
    let _ = writeln!(
        out,
        "  steals: {} ({:.2}% of dispatches) | reload {:.1}us over {} charges | lock {:.1}us over {} charges",
        c.steals,
        100.0 * c.steal_rate(),
        c.reload_transient_us,
        c.reload_charges,
        c.lock_us,
        c.lock_charges
    );
    let _ = writeln!(
        out,
        "  delay us: mean {:.2} p50 {:.2} p95 {:.2} p99 {:.2} max {:.2}",
        c.delay_us.mean(),
        c.delay_us.quantile(0.50),
        c.delay_us.quantile(0.95),
        c.delay_us.quantile(0.99),
        c.delay_us.max()
    );
    let _ = writeln!(
        out,
        "  service us: mean {:.2} p95 {:.2} | queue depth: mean {:.2} max {}",
        c.service_us.mean(),
        c.service_us.quantile(0.95),
        c.queue_depth.mean(),
        c.max_queue_depth
    );
    if c.worker_downs > 0 || c.orphaned > 0 {
        let _ = writeln!(
            out,
            "  proc faults: {} down, {} up | {} orphaned, {} requeued ({})",
            c.worker_downs,
            c.worker_ups,
            c.orphaned,
            c.requeued,
            if c.requeued == c.orphaned {
                "conserved"
            } else {
                "IMBALANCED"
            }
        );
    }
    for (w, lane) in c.by_worker.iter().enumerate() {
        if lane.dispatched == 0 {
            continue;
        }
        let _ = writeln!(
            out,
            "  worker {w}: {} dispatched, {} completed, {:.1}% affinity, {} steals in, busy {:.0}us",
            lane.dispatched,
            lane.completed,
            100.0 * lane.affinity_hits as f64 / lane.dispatched as f64,
            lane.steals_in,
            lane.busy_us
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ObsEvent;

    #[test]
    fn summary_mentions_the_headline_numbers() {
        let mut c = Counters::new();
        for seq in 0..4u64 {
            c.observe(&ObsEvent::Enqueue {
                t_us: 0.0,
                seq,
                stream: 0,
                queue: 0,
                depth: 1,
            });
            c.observe(&ObsEvent::Dispatch {
                t_us: 1.0,
                seq,
                stream: 0,
                worker: 0,
                service_us: 10.0,
                stream_migrated: seq == 0,
                thread_migrated: false,
                stolen: false,
            });
            c.observe(&ObsEvent::Complete {
                t_us: 11.0,
                seq,
                stream: 0,
                worker: 0,
                delay_us: 11.0,
                ok: true,
            });
        }
        let s = render(&c);
        assert!(s.contains("4 enqueued"), "{s}");
        assert!(s.contains("75.0% hits"), "{s}");
        assert!(s.contains("worker 0: 4 dispatched"), "{s}");
        // No processor-fault line when no worker went down.
        assert!(!s.contains("proc faults:"), "{s}");
    }
}
