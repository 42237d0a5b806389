//! Deterministic JSONL rendering of an event stream.
//!
//! One event per line, fixed key order, fixed float formatting
//! (timestamps with nanosecond precision, durations with 4 decimals), so
//! an identical event stream always renders to identical bytes — the
//! property the seeded-replay golden test pins down. The workspace
//! carries no serde; every value here is program-generated and needs no
//! escaping.

use std::fmt::Write as _;

use crate::event::ObsEvent;

/// Append one event as a JSON line (including the trailing newline).
pub fn write_event(out: &mut String, ev: &ObsEvent) {
    match *ev {
        ObsEvent::Enqueue {
            t_us,
            seq,
            stream,
            queue,
            depth,
        } => {
            let _ = writeln!(
                out,
                "{{\"e\":\"enq\",\"t\":{t_us:.3},\"seq\":{seq},\"stream\":{stream},\"queue\":{queue},\"depth\":{depth}}}"
            );
        }
        ObsEvent::Dispatch {
            t_us,
            seq,
            stream,
            worker,
            service_us,
            stream_migrated,
            thread_migrated,
            stolen,
        } => {
            let _ = writeln!(
                out,
                "{{\"e\":\"disp\",\"t\":{t_us:.3},\"seq\":{seq},\"stream\":{stream},\"worker\":{worker},\"service\":{service_us:.4},\"smig\":{stream_migrated},\"tmig\":{thread_migrated},\"stolen\":{stolen}}}"
            );
        }
        ObsEvent::StealClaim {
            t_us,
            seq,
            from,
            to,
        } => {
            let _ = writeln!(
                out,
                "{{\"e\":\"claim\",\"t\":{t_us:.3},\"seq\":{seq},\"from\":{from},\"to\":{to}}}"
            );
        }
        ObsEvent::Complete {
            t_us,
            seq,
            stream,
            worker,
            delay_us,
            ok,
        } => {
            let _ = writeln!(
                out,
                "{{\"e\":\"done\",\"t\":{t_us:.3},\"seq\":{seq},\"stream\":{stream},\"worker\":{worker},\"delay\":{delay_us:.4},\"ok\":{ok}}}"
            );
        }
        ObsEvent::Evict { t_us, seq, queue } => {
            let _ = writeln!(
                out,
                "{{\"e\":\"evict\",\"t\":{t_us:.3},\"seq\":{seq},\"queue\":{queue}}}"
            );
        }
        ObsEvent::CacheCharge {
            t_us,
            worker,
            kind,
            amount_us,
        } => {
            let _ = writeln!(
                out,
                "{{\"e\":\"charge\",\"t\":{t_us:.3},\"worker\":{worker},\"kind\":\"{}\",\"amount\":{amount_us:.4}}}",
                kind.label()
            );
        }
        ObsEvent::QueueDepth { t_us, queue, depth } => {
            let _ = writeln!(
                out,
                "{{\"e\":\"qdepth\",\"t\":{t_us:.3},\"queue\":{queue},\"depth\":{depth}}}"
            );
        }
        ObsEvent::WorkerDown { t_us, worker } => {
            let _ = writeln!(
                out,
                "{{\"e\":\"wdown\",\"t\":{t_us:.3},\"worker\":{worker}}}"
            );
        }
        ObsEvent::WorkerUp { t_us, worker } => {
            let _ = writeln!(out, "{{\"e\":\"wup\",\"t\":{t_us:.3},\"worker\":{worker}}}");
        }
        ObsEvent::Orphaned { t_us, seq, worker } => {
            let _ = writeln!(
                out,
                "{{\"e\":\"orphan\",\"t\":{t_us:.3},\"seq\":{seq},\"worker\":{worker}}}"
            );
        }
        ObsEvent::Requeue { t_us, seq, queue } => {
            let _ = writeln!(
                out,
                "{{\"e\":\"requeue\",\"t\":{t_us:.3},\"seq\":{seq},\"queue\":{queue}}}"
            );
        }
        ObsEvent::TableMiss { t_us, seq, stream } => {
            let _ = writeln!(
                out,
                "{{\"e\":\"tmiss\",\"t\":{t_us:.3},\"seq\":{seq},\"stream\":{stream}}}"
            );
        }
        ObsEvent::Rebind {
            t_us,
            seq,
            stream,
            from,
            to,
        } => {
            let _ = writeln!(
                out,
                "{{\"e\":\"rebind\",\"t\":{t_us:.3},\"seq\":{seq},\"stream\":{stream},\"from\":{from},\"to\":{to}}}"
            );
        }
    }
}

/// Render a whole event stream as JSONL.
pub fn render(events: &[ObsEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 96);
    for ev in events {
        write_event(&mut out, ev);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ChargeKind;

    #[test]
    fn rendering_is_deterministic_and_line_oriented() {
        let events = vec![
            ObsEvent::Enqueue {
                t_us: 1.2345,
                seq: 0,
                stream: 2,
                queue: u32::MAX,
                depth: 1,
            },
            ObsEvent::Dispatch {
                t_us: 2.0,
                seq: 0,
                stream: 2,
                worker: 1,
                service_us: 10.55555,
                stream_migrated: true,
                thread_migrated: false,
                stolen: false,
            },
            ObsEvent::StealClaim {
                t_us: 2.0,
                seq: 1,
                from: 0,
                to: 1,
            },
            ObsEvent::Complete {
                t_us: 12.5,
                seq: 0,
                stream: 2,
                worker: 1,
                delay_us: 11.2655,
                ok: true,
            },
            ObsEvent::Evict {
                t_us: 13.0,
                seq: 3,
                queue: 0,
            },
            ObsEvent::CacheCharge {
                t_us: 2.0,
                worker: 1,
                kind: ChargeKind::ReloadTransient,
                amount_us: 8.5,
            },
            ObsEvent::QueueDepth {
                t_us: 2.0,
                queue: 0,
                depth: 4,
            },
            ObsEvent::WorkerDown {
                t_us: 14.0,
                worker: 2,
            },
            ObsEvent::Orphaned {
                t_us: 14.0,
                seq: 4,
                worker: 2,
            },
            ObsEvent::Requeue {
                t_us: 14.0,
                seq: 4,
                queue: 1,
            },
            ObsEvent::WorkerUp {
                t_us: 20.0,
                worker: 2,
            },
            ObsEvent::TableMiss {
                t_us: 21.0,
                seq: 5,
                stream: 7,
            },
            ObsEvent::Rebind {
                t_us: 21.0,
                seq: 5,
                stream: 7,
                from: 1,
                to: 0,
            },
        ];
        let a = render(&events);
        let b = render(&events);
        assert_eq!(a, b);
        assert_eq!(a.lines().count(), events.len());
        assert!(a.starts_with("{\"e\":\"enq\",\"t\":1.234,"), "{a}");
        assert!(a.contains("\"kind\":\"reload\""));
        assert!(a.contains("{\"e\":\"claim\",\"t\":2.000,\"seq\":1,\"from\":0,\"to\":1}"));
        assert!(a.contains("\"queue\":4294967295"));
        assert!(a.contains("{\"e\":\"wdown\",\"t\":14.000,\"worker\":2}"));
        assert!(a.contains("{\"e\":\"orphan\",\"t\":14.000,\"seq\":4,\"worker\":2}"));
        assert!(a.contains("{\"e\":\"requeue\",\"t\":14.000,\"seq\":4,\"queue\":1}"));
        assert!(a.contains("{\"e\":\"wup\",\"t\":20.000,\"worker\":2}"));
        assert!(a.contains("{\"e\":\"tmiss\",\"t\":21.000,\"seq\":5,\"stream\":7}"));
        assert!(a.contains(
            "{\"e\":\"rebind\",\"t\":21.000,\"seq\":5,\"stream\":7,\"from\":1,\"to\":0}"
        ));
        for line in a.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }
}
