//! Queue depth, defined once and stamped from the merged trace.
//!
//! A queue's depth is the number of packets that have arrived on it and
//! not yet started: a packet counts on queue `q` from the
//! [`ObsEvent::Enqueue`] or [`ObsEvent::Requeue`] that names `q` until
//! the [`ObsEvent::Dispatch`] or [`ObsEvent::Orphaned`] that takes it
//! off. `Enqueue.depth` counts the packet itself; `QueueDepth.depth` is
//! the count just after the dispatch that emitted it. These are the
//! simulator's semantics, which it reads off its own queues as it goes.
//!
//! A native run cannot read them off its rings: a ring's length says how
//! far the dispatcher ran ahead of the worker on the host. So the native
//! backend records placeholder depths and stamps them here, once, after
//! the per-thread slices are merged ([`MemRecorder::stamp_queue_depths`]).
//! Every count comes from the trace's own virtual-time order, so a
//! recorded native run is a pure function of its configuration and seed.
//!
//! On the native backend a packet is run by the worker whose ring it
//! was put on, so a `Dispatch` takes its packet off `worker`'s queue and
//! the pass keeps no per-packet state. The exception is an orphan: it
//! was enqueued on the worker that failed, and the survivor it is
//! requeued on starts it at `max(vclock, arrival)`, which can precede
//! the `Orphaned`/`Requeue` stamps at the failure instant. A scan ahead
//! of the pass collects the orphans (a handful per failure), and an
//! orphan dispatched before its `Orphaned` leaves the failed worker's
//! queue at the dispatch; the later pair then moves nothing.
//!
//! A stolen packet's `QueueDepth` samples its victim's queue. The victim
//! is on the dispatcher's [`ObsEvent::StealClaim`] of the same `seq`,
//! which the same scan collects.

use crate::event::{ObsEvent, SHARED_QUEUE};
use crate::hist::LogHistogram;
use crate::recorder::MemRecorder;

/// What [`MemRecorder::stamp_queue_depths`] counted, per queue.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueueTally {
    /// Each worker queue's count after the last event: zero for every
    /// queue of a run that drained all it admitted.
    pub end: Vec<i64>,
    /// The lowest count any queue reached (never below zero on a
    /// well-formed trace).
    pub low: i64,
}

impl QueueTally {
    /// Move `delta` packets on or off `queue`; the new count.
    fn add(&mut self, queue: u32, delta: i64) -> i64 {
        assert_ne!(queue, SHARED_QUEUE, "a native trace names worker queues");
        let q = queue as usize;
        if q >= self.end.len() {
            self.end.resize(q + 1, 0);
        }
        self.end[q] += delta;
        self.low = self.low.min(self.end[q]);
        self.end[q]
    }

    fn depth(&self, queue: u32) -> u32 {
        let count = self.end.get(queue as usize).copied().unwrap_or(0);
        u32::try_from(count).unwrap_or(0)
    }
}

/// An orphan, as far as the pass has read: the queue it counts on, if
/// any, and whether it has started.
struct Orphan {
    seq: u64,
    on: Option<u32>,
    started: bool,
}

impl MemRecorder {
    /// Stamp the depth of every `Enqueue` and `QueueDepth` event from the
    /// trace itself (see [`crate::depth`]), and rebuild
    /// [`Counters::queue_depth`](crate::Counters::queue_depth) and
    /// [`Counters::max_queue_depth`](crate::Counters::max_queue_depth)
    /// from the stamped values of the retained events.
    ///
    /// The trace must be in merge order ([`MemRecorder::merge`]): a
    /// worker's `QueueDepth` follows every seq-carrying event at its
    /// instant, and `QueueDepth`s at one instant are in worker order, so
    /// the first one naming queue `q` belongs to the lowest worker that
    /// dispatched at that instant with `q` as its sampled queue (the
    /// victim for a steal, its own otherwise).
    pub fn stamp_queue_depths(&mut self) -> QueueTally {
        let mut orphans: Vec<Orphan> = Vec::new();
        // (seq, victim) of every steal claim.
        let mut victims: Vec<(u64, u32)> = Vec::new();
        for ev in &self.events {
            match *ev {
                ObsEvent::Orphaned { seq, worker, .. } => orphans.push(Orphan {
                    seq,
                    on: Some(worker),
                    started: false,
                }),
                ObsEvent::StealClaim { seq, from, .. } => victims.push((seq, from)),
                _ => {}
            }
        }
        orphans.sort_unstable_by_key(|o| o.seq);
        victims.sort_unstable();
        let mut tally = QueueTally::default();
        // Per worker: (instant bits, sampled queue, depth) of its latest
        // dispatch, until the `QueueDepth` it emitted takes it.
        let mut sampled: Vec<Option<(u64, u32, u32)>> = Vec::new();
        let (mut hist, mut max) = (LogHistogram::new(), 0u64);
        for ev in &mut self.events {
            match ev {
                ObsEvent::Enqueue { queue, depth, .. } => {
                    *depth = u32::try_from(tally.add(*queue, 1)).unwrap_or(0);
                }
                ObsEvent::Requeue { seq, queue, .. } => {
                    if let Some(o) = find(&mut orphans, *seq).filter(|o| !o.started) {
                        o.on = Some(*queue);
                        tally.add(*queue, 1);
                    }
                }
                ObsEvent::Orphaned { seq, .. } => {
                    if let Some(q) = find(&mut orphans, *seq).and_then(|o| o.on.take()) {
                        tally.add(q, -1);
                    }
                }
                ObsEvent::Dispatch {
                    t_us,
                    seq,
                    worker,
                    stolen,
                    ..
                } => {
                    let off = match find(&mut orphans, *seq) {
                        Some(o) => {
                            o.started = true;
                            o.on.take()
                        }
                        None => Some(*worker),
                    };
                    if let Some(q) = off {
                        tally.add(q, -1);
                    }
                    let queue = match victims.binary_search_by_key(seq, |&(s, _)| s) {
                        Ok(i) if *stolen => victims[i].1,
                        _ => *worker,
                    };
                    let w = *worker as usize;
                    if w >= sampled.len() {
                        sampled.resize(w + 1, None);
                    }
                    sampled[w] = Some((t_us.to_bits(), queue, tally.depth(queue)));
                }
                ObsEvent::QueueDepth { t_us, queue, depth } => {
                    let at = (t_us.to_bits(), *queue);
                    if let Some(s) = sampled
                        .iter_mut()
                        .find(|s| s.is_some_and(|(t, q, _)| (t, q) == at))
                    {
                        *depth = s.take().map_or(0, |(_, _, d)| d);
                    }
                }
                _ => {}
            }
            if let ObsEvent::Enqueue { depth, .. } | ObsEvent::QueueDepth { depth, .. } = *ev {
                hist.record(depth as f64);
                max = max.max(depth as u64);
            }
        }
        self.counters.queue_depth = hist;
        self.counters.max_queue_depth = max;
        tally
    }
}

fn find(orphans: &mut [Orphan], seq: u64) -> Option<&mut Orphan> {
    let i = orphans.binary_search_by_key(&seq, |o| o.seq).ok()?;
    Some(&mut orphans[i])
}
