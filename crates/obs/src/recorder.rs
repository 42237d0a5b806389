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
    /// Retained events, in emission order (merge order after
    /// [`MemRecorder::merge`]).
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

    /// Fold per-thread trace slices, in the order given, into this
    /// recorder's trace, in deterministic merge order (see
    /// [`ObsEvent::merge_key`]).
    ///
    /// The result is the stable sort, by merge key, of this recorder's
    /// events followed by every slice's events, of which at most the
    /// first `cap` are retained (the rest count as dropped). A stable
    /// merge of stably sorted runs is exactly that sort, ties still
    /// broken by slice order; so each run is scanned once and sorted
    /// only if it is out of order, and the runs are merged from the
    /// back into the largest one's own buffer, which grows by the
    /// others' length. Only sorting an out-of-order run takes scratch.
    pub fn merge(&mut self, slices: Vec<MemRecorder>) {
        let mut room = self.cap.saturating_sub(self.events.len());
        let mut runs = Vec::with_capacity(slices.len() + 1);
        runs.push(std::mem::take(&mut self.events));
        for s in slices {
            self.counters.merge(&s.counters);
            let mut run = s.events;
            let kept = run.len().min(room);
            self.dropped += s.dropped + (run.len() - kept) as u64;
            run.truncate(kept);
            room -= kept;
            runs.push(run);
        }
        for run in &mut runs {
            if !run.is_sorted_by_key(ObsEvent::merge_key) {
                run.sort_by_key(ObsEvent::merge_key);
            }
        }
        self.events = merge_runs(runs);
    }
}

/// Stable merge of sorted runs, ties to the earlier run, into the
/// longest run's buffer: filled from the back, its own unread events
/// are never overwritten, and once the other runs are spent the rest
/// is already in place.
fn merge_runs(mut runs: Vec<Vec<ObsEvent>>) -> Vec<ObsEvent> {
    let total: usize = runs.iter().map(Vec::len).sum();
    let big = (0..runs.len()).max_by_key(|&i| runs[i].len()).unwrap_or(0);
    let mut out = std::mem::take(&mut runs[big]);
    let Some(&fill) = out.first() else {
        return out;
    };
    // Unmerged events left in each run; `big`'s are `out[..ends[big]]`.
    let mut ends: Vec<usize> = runs.iter().map(Vec::len).collect();
    ends[big] = out.len();
    out.reserve_exact(total - out.len());
    out.resize(total, fill);
    for w in (0..total).rev() {
        if ends[big] == w + 1 {
            break;
        }
        let tail = |i: usize| {
            let run = if i == big { &out[..] } else { &runs[i][..] };
            ends[i].checked_sub(1).map(|j| run[j].merge_key())
        };
        // The last of the greatest tails: a later run's event goes later.
        let (mut from, mut best) = (big, None);
        for i in 0..runs.len() {
            let key = tail(i);
            if key.is_some() && key >= best {
                (from, best) = (i, key);
            }
        }
        ends[from] -= 1;
        out[w] = if from == big {
            out[ends[big]]
        } else {
            runs[from][ends[from]]
        };
    }
    out
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
    fn merge_sorts_and_folds_counters() {
        let mut a = MemRecorder::new();
        let mut b = MemRecorder::new();
        a.record(ev(2.0, 2));
        b.record(ev(1.0, 1));
        let mut out = MemRecorder::new();
        out.merge(vec![a, b]);
        assert_eq!(out.events, [ev(1.0, 1), ev(2.0, 2)]);
        assert_eq!(out.counters.enqueued, 2);
    }
}
