//! The `Recorder` trait and the built-in sinks.
//!
//! Backends emit [`ObsEvent`]s through a `&mut dyn Recorder`; what the
//! recorder does with them is its own business. Backends hold an
//! `Option` of one and skip recording entirely when none is attached, so
//! the un-observed hot path pays nothing. [`MemRecorder`] keeps the full
//! event stream plus live [`Counters`] — it preallocates its event
//! buffer so steady-state recording does not allocate.

use crate::counters::Counters;
use crate::event::ObsEvent;

/// A sink for structured scheduling events.
///
/// Implementations must be pure observers: recording an event must not
/// feed back into the system under observation (no RNG draws, no shared
/// state the scheduler reads). The differential tests enforce this by
/// asserting byte-identical run reports with the recorder on and off.
pub trait Recorder {
    /// Record one event.
    fn record(&mut self, ev: ObsEvent);
}

/// In-memory recorder: the full event stream plus folded [`Counters`].
///
/// When constructed with [`MemRecorder::with_event_capacity`], at most
/// that many events are retained (counters keep counting; the overflow
/// is reported in [`MemRecorder::dropped_events`]).
#[derive(Debug, Default, Clone)]
pub struct MemRecorder {
    /// Retained events, in emission order (see [`MemRecorder::sort_events`]).
    pub events: Vec<ObsEvent>,
    /// Counters folded from *every* event, including unretained ones.
    pub counters: Counters,
    cap: usize,
    dropped: u64,
}

impl MemRecorder {
    /// Unbounded recorder with a modest preallocation.
    pub fn new() -> Self {
        MemRecorder {
            events: Vec::with_capacity(4096),
            counters: Counters::new(),
            cap: usize::MAX,
            dropped: 0,
        }
    }

    /// Recorder retaining at most `cap` events (preallocated up front).
    pub fn with_event_capacity(cap: usize) -> Self {
        MemRecorder {
            events: Vec::with_capacity(cap),
            counters: Counters::new(),
            cap,
            dropped: 0,
        }
    }

    /// Events that arrived after the retention cap was reached.
    pub fn dropped_events(&self) -> u64 {
        self.dropped
    }

    /// Sort retained events by the deterministic merge key
    /// `(virtual time, seq, causal rank)`. Used after folding several
    /// per-worker recorders into one trace.
    pub fn sort_events(&mut self) {
        self.events.sort_by_key(|e| e.merge_key());
    }

    /// Fold another recorder's events and counters into this one, then
    /// re-sort into deterministic merge order.
    pub fn absorb(&mut self, other: MemRecorder) {
        self.counters.merge(&other.counters);
        self.dropped += other.dropped;
        for ev in other.events {
            if self.events.len() < self.cap {
                self.events.push(ev);
            } else {
                self.dropped += 1;
            }
        }
        self.sort_events();
    }
}

impl Recorder for MemRecorder {
    fn record(&mut self, ev: ObsEvent) {
        self.counters.observe(&ev);
        if self.events.len() < self.cap {
            self.events.push(ev);
        } else {
            self.dropped += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: f64, seq: u64) -> ObsEvent {
        ObsEvent::Enqueue {
            t_us: t,
            seq,
            stream: 0,
            queue: 0,
            depth: 1,
        }
    }

    #[test]
    fn mem_recorder_keeps_events_and_counts() {
        let mut r = MemRecorder::new();
        r.record(ev(0.0, 0));
        r.record(ev(1.0, 1));
        assert_eq!(r.events.len(), 2);
        assert_eq!(r.counters.enqueued, 2);
        assert_eq!(r.dropped_events(), 0);
    }

    #[test]
    fn capacity_caps_events_but_not_counters() {
        let mut r = MemRecorder::with_event_capacity(1);
        r.record(ev(0.0, 0));
        r.record(ev(1.0, 1));
        assert_eq!(r.events.len(), 1);
        assert_eq!(r.counters.enqueued, 2);
        assert_eq!(r.dropped_events(), 1);
    }

    #[test]
    fn absorb_merges_and_sorts() {
        let mut a = MemRecorder::new();
        let mut b = MemRecorder::new();
        a.record(ev(2.0, 2));
        b.record(ev(1.0, 1));
        a.absorb(b);
        assert_eq!(a.events.len(), 2);
        assert_eq!(a.counters.enqueued, 2);
        assert!(a
            .events
            .windows(2)
            .all(|w| w[0].merge_key() <= w[1].merge_key()));
    }
}
