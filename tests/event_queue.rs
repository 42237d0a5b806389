//! `EventQueue` against an ordered-map reference at flow scale.
//!
//! The queue must pop in the total `(time, push order)` order whatever
//! its heap's shape, so a `BTreeMap<(time, seq), _>` — whose first key is
//! the next event by definition — is the reference. Every operation is
//! applied to both and every pop compared. The live set is a Zipf hold
//! model: one pending arrival per flow, flow `i` re-arming a mean of
//! `(i + 1)` base gaps later, the shape a Flow-Director population of
//! 10⁴ (debug) or 10⁵ (release) flows gives the simulator. Around it the
//! test pushes one-shot events near the root, before the last pop and in
//! ties with pending ones, moves the whole live set far ahead, and grows
//! and drains the heap through a few to a few hundred live events.

use std::collections::BTreeMap;

use afs_desim::event::EventQueue;
use afs_desim::rng::RngFactory;
use afs_desim::time::SimTime;
use rand::rngs::StdRng;
use rand::Rng;

/// The payload's flow for an event no flow re-arms.
const ONE_SHOT: u32 = u32::MAX;

/// Mean gap, in ticks, of the hottest flow.
const BASE_GAP: f64 = 1_000.0;

/// Flows in the hold model.
const FLOWS: u32 = if cfg!(debug_assertions) {
    10_000
} else {
    100_000
};

/// The queue under test and the reference, fed the same operations.
struct Pair {
    queue: EventQueue<(u64, u32)>,
    reference: BTreeMap<(u64, u64), u32>,
    next_seq: u64,
    /// Time of the last pop.
    now: u64,
    pops: u64,
}

impl Pair {
    fn new() -> Self {
        Pair {
            queue: EventQueue::new(),
            reference: BTreeMap::new(),
            next_seq: 0,
            now: 0,
            pops: 0,
        }
    }

    fn push(&mut self, t: u64, flow: u32) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(SimTime::from_ticks(t), (seq, flow));
        self.reference.insert((t, seq), flow);
    }

    /// Pop from both, compare, and return the event's `(time, flow)`.
    fn pop(&mut self) -> Option<(u64, u32)> {
        self.pop_at_or_before(u64::MAX)
    }

    fn pop_at_or_before(&mut self, horizon: u64) -> Option<(u64, u32)> {
        let got = self
            .queue
            .pop_at_or_before(SimTime::from_ticks(horizon))
            .map(|(t, (seq, flow))| (t.ticks(), seq, flow));
        let due = self
            .reference
            .first_key_value()
            .filter(|(k, _)| k.0 <= horizon);
        let want = due.map(|(&(t, seq), &flow)| (t, seq, flow));
        assert_eq!(got, want, "pop {} at or before {horizon}", self.pops);
        if let Some((t, seq, _)) = got {
            self.reference.remove(&(t, seq));
            self.now = self.now.max(t);
            self.pops += 1;
        }
        assert_eq!(self.queue.len(), self.reference.len());
        got.map(|(t, _, flow)| (t, flow))
    }

    /// The first live key at or after tick `t`, if any.
    fn live_at_or_after(&self, t: u64) -> Option<(u64, u64)> {
        self.reference.range((t, 0)..).next().map(|(&k, _)| k)
    }

    fn drain(&mut self) {
        while self.pop().is_some() {}
        assert!(self.queue.is_empty());
    }
}

/// An exponential gap for `flow`: Zipf (s = 1) rates, one tick at least.
fn gap(rng: &mut StdRng, flow: u32) -> u64 {
    let mean = BASE_GAP * (flow as f64 + 1.0);
    (-mean * (1.0 - rng.gen::<f64>()).ln()).max(1.0) as u64
}

/// The Zipf hold model with one-shot pushes near the root, before the
/// last pop and in ties, then a jump of the whole live set far ahead,
/// then drained.
#[test]
fn zipf_hold_model_pops_in_reference_order() {
    let mut rng = RngFactory::new(35).stream("event_queue");
    let mut pair = Pair::new();
    for flow in 0..FLOWS {
        let t = gap(&mut rng, flow);
        pair.push(t, flow);
    }
    // The live span: the rarest flow's mean gap.
    let span = (BASE_GAP * FLOWS as f64) as u64;
    for step in 0..3 * FLOWS as u64 {
        let (now, flow) = pair.pop().expect("the hold model stays live");
        if flow != ONE_SHOT {
            let t = now + gap(&mut rng, flow);
            pair.push(t, flow);
        }
        match step % 16 {
            // A timer a tick ahead sits near the root.
            1 | 9 => pair.push(now + 1, ONE_SHOT),
            // Earlier than the last pop.
            5 => {
                pair.push(
                    now.saturating_sub(rng.gen_range(0..4 * BASE_GAP as u64)),
                    ONE_SHOT,
                );
            }
            // A tie with an event already pending.
            13 => {
                if let Some((t, _)) = pair.live_at_or_after(now) {
                    pair.push(t, ONE_SHOT);
                }
            }
            _ => {}
        }
    }
    // Every flow jumps far beyond the live span, one pop at a time, so
    // for a while the heap holds two clusters 2⁴⁰ ticks apart.
    let jump = pair.now + (1u64 << 40);
    for _ in 0..pair.reference.len() {
        let (_, flow) = pair.pop().expect("live");
        if flow != ONE_SHOT {
            let t = jump + gap(&mut rng, flow);
            pair.push(t, flow);
        }
    }
    for _ in 0..FLOWS {
        let (now, flow) = pair.pop().expect("the hold model stays live");
        if flow != ONE_SHOT {
            let t = now + gap(&mut rng, flow);
            pair.push(t, flow);
        }
    }
    // Horizon-bounded pops first, then the rest.
    let horizon = pair.now + span;
    while pair.pop_at_or_before(horizon).is_some() {}
    assert!(pair.live_at_or_after(0).is_none_or(|(t, _)| t > horizon));
    pair.drain();
}

/// Repeated growth to a few hundred live events and drains back to a
/// few.
#[test]
fn heap_growth_and_drain_rounds_pop_in_reference_order() {
    let mut rng = RngFactory::new(35).stream("crossings");
    let mut pair = Pair::new();
    for round in 0..200u64 {
        let grow = rng.gen_range(1..300);
        let spread = [1u64, 50, 10_000, 1 << 30][round as usize % 4];
        for _ in 0..grow {
            let t = pair.now + rng.gen_range(0..spread);
            pair.push(t, ONE_SHOT);
        }
        // Drain to a random level under 100.
        let level = rng.gen_range(0..100);
        while pair.reference.len() > level {
            pair.pop();
        }
    }
    pair.drain();
}
