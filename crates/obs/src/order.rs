//! Per-stream delivery-order checking over an event trace.
//!
//! TCP (and every other ordered transport) pays for each out-of-order
//! delivery with buffering, delayed acks, and — under enough reordering
//! — spurious fast retransmits, which is why NIC steering designs are
//! judged on whether they preserve per-flow order. [`SequenceChecker`]
//! is the *independent* judge: it reconstructs per-stream delivery
//! order from nothing but [`ObsEvent::Complete`] records, so it shares
//! no state with either backend's scheduler and can arbitrate between
//! the sim's online out-of-order counter and the native runtime's
//! merged per-worker traces.
//!
//! Definition: message sequence numbers are assigned globally in
//! arrival order, so within one stream the `seq` order *is* the
//! arrival order. A delivery is out of order when a stream completes a
//! message whose `seq` is below the stream's completion high-water
//! mark. Every completion (corrupt or not) counts as a delivery: a
//! mis-ordered corrupt frame still occupies the transport's resequencing
//! buffer.
//!
//! The checker processes events **in the order given** — it never
//! re-sorts. Simulator traces arrive in emission (virtual-time) order;
//! native per-worker traces must be merged by
//! [`ObsEvent::merge_key`](crate::ObsEvent::merge_key) first, which is
//! exactly what [`MemRecorder::merge`](crate::MemRecorder::merge) does.

use crate::event::ObsEvent;

/// What [`SequenceChecker`] found in a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SequenceReport {
    /// Deliveries observed ([`ObsEvent::Complete`] events).
    pub completions: u64,
    /// Deliveries whose `seq` was below the stream's high-water mark.
    pub ooo_deliveries: u64,
    /// Distinct streams that suffered at least one out-of-order
    /// delivery.
    pub ooo_streams: u64,
}

/// Streaming per-stream order checker. Feed it events (or a whole
/// trace via [`SequenceChecker::check`]) and read the totals.
#[derive(Debug, Clone, Default)]
pub struct SequenceChecker {
    /// Per-stream completion high-water `seq`; `u64::MAX` = none yet.
    high_water: Vec<u64>,
    /// Per-stream flag: this stream already has an OOO delivery.
    tainted: Vec<bool>,
    report: SequenceReport,
}

impl SequenceChecker {
    /// Fresh checker with no streams observed.
    pub fn new() -> Self {
        Self::default()
    }

    /// One-shot: run a fresh checker over `events` in the order given.
    pub fn check(events: &[ObsEvent]) -> SequenceReport {
        let mut c = SequenceChecker::new();
        for ev in events {
            c.observe(ev);
        }
        c.report()
    }

    /// Fold one event. Only [`ObsEvent::Complete`] affects the report;
    /// everything else is ignored, so the checker can be driven with a
    /// full mixed trace.
    pub fn observe(&mut self, ev: &ObsEvent) {
        let ObsEvent::Complete { seq, stream, .. } = *ev else {
            return;
        };
        let s = stream as usize;
        if s >= self.high_water.len() {
            self.high_water.resize(s + 1, u64::MAX);
            self.tainted.resize(s + 1, false);
        }
        self.report.completions += 1;
        let hw = self.high_water[s];
        if hw != u64::MAX && seq < hw {
            self.report.ooo_deliveries += 1;
            if !self.tainted[s] {
                self.tainted[s] = true;
                self.report.ooo_streams += 1;
            }
        } else {
            self.high_water[s] = seq;
        }
    }

    /// Totals so far.
    pub fn report(&self) -> SequenceReport {
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn done(t_us: f64, seq: u64, stream: u32) -> ObsEvent {
        ObsEvent::Complete {
            t_us,
            seq,
            stream,
            worker: 0,
            delay_us: 1.0,
            ok: true,
        }
    }

    #[test]
    fn in_order_deliveries_are_clean() {
        let trace = vec![
            done(1.0, 0, 0),
            done(2.0, 1, 1),
            done(3.0, 2, 0),
            done(4.0, 3, 1),
        ];
        let r = SequenceChecker::check(&trace);
        assert_eq!(
            r,
            SequenceReport {
                completions: 4,
                ooo_deliveries: 0,
                ooo_streams: 0,
            }
        );
    }

    #[test]
    fn cross_stream_interleaving_is_not_reordering() {
        // Stream 1's seq 5 completing before stream 0's seq 2 is fine:
        // order is per-stream only.
        let trace = vec![done(1.0, 5, 1), done(2.0, 2, 0), done(3.0, 7, 1)];
        assert_eq!(SequenceChecker::check(&trace).ooo_deliveries, 0);
    }

    #[test]
    fn regression_below_high_water_counts_once_per_delivery() {
        let trace = vec![
            done(1.0, 0, 3),
            done(2.0, 4, 3), // high water 4
            done(3.0, 1, 3), // OOO
            done(4.0, 2, 3), // OOO (still below 4)
            done(5.0, 9, 3), // new high water
            done(6.0, 8, 3), // OOO
        ];
        let r = SequenceChecker::check(&trace);
        assert_eq!(r.completions, 6);
        assert_eq!(r.ooo_deliveries, 3);
        assert_eq!(r.ooo_streams, 1);
    }

    #[test]
    fn corrupt_completions_still_count_as_deliveries() {
        let mut c = SequenceChecker::new();
        c.observe(&done(1.0, 3, 0));
        c.observe(&ObsEvent::Complete {
            t_us: 2.0,
            seq: 1,
            stream: 0,
            worker: 2,
            delay_us: 1.5,
            ok: false,
        });
        assert_eq!(c.report().ooo_deliveries, 1);
    }

    #[test]
    fn non_completion_events_are_ignored() {
        let mut c = SequenceChecker::new();
        c.observe(&ObsEvent::Enqueue {
            t_us: 0.0,
            seq: 9,
            stream: 0,
            queue: 0,
            depth: 1,
        });
        c.observe(&ObsEvent::TableMiss {
            t_us: 0.0,
            seq: 9,
            stream: 0,
        });
        c.observe(&ObsEvent::Rebind {
            t_us: 0.0,
            seq: 9,
            stream: 0,
            from: 0,
            to: 1,
        });
        assert_eq!(c.report(), SequenceReport::default());
        // The high-water mark comes only from completions: seq 9 events
        // above did not move it, so delivering seq 0 now is in order.
        c.observe(&done(1.0, 0, 0));
        assert_eq!(c.report().ooo_deliveries, 0);
    }
}
