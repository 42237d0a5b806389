//! The simulation driver.
//!
//! A model implements [`Simulate`]; the [`Engine`] owns the clock and the
//! pending-event set and repeatedly delivers the earliest event to the
//! model. Handlers schedule follow-up events through the [`Scheduler`]
//! passed to them — scheduling into the past is a logic error and panics.
//!
//! ```
//! use afs_desim::engine::{Engine, Scheduler, Simulate};
//! use afs_desim::time::{SimDuration, SimTime};
//!
//! struct Counter {
//!     fired: u32,
//! }
//!
//! impl Simulate for Counter {
//!     type Event = ();
//!     fn handle(&mut self, now: SimTime, _ev: (), sched: &mut Scheduler<()>) {
//!         self.fired += 1;
//!         if self.fired < 10 {
//!             sched.schedule_at(now + SimDuration::from_micros(5), ());
//!         }
//!     }
//! }
//!
//! let mut engine = Engine::new(Counter { fired: 0 });
//! engine.scheduler().schedule_at(SimTime::ZERO, ());
//! engine.run();
//! assert_eq!(engine.model().fired, 10);
//! assert_eq!(engine.now(), SimTime::from_micros(45));
//! ```

use afs_obs::EngineProbe;

use crate::event::{EventId, EventQueue};
use crate::time::SimTime;

/// A discrete-event model: a state machine advanced one event at a time.
pub trait Simulate {
    /// The event payload type delivered to [`Simulate::handle`].
    type Event;

    /// Handle one event at simulation time `now`, scheduling any follow-up
    /// events through `sched`.
    fn handle(&mut self, now: SimTime, event: Self::Event, sched: &mut Scheduler<Self::Event>);
}

/// Scheduling facade handed to event handlers.
///
/// Wraps the event queue, enforcing that events are never scheduled before
/// the current clock.
pub struct Scheduler<E> {
    queue: EventQueue<E>,
    now: SimTime,
}

impl<E> Scheduler<E> {
    fn new() -> Self {
        Scheduler {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
        }
    }

    /// Schedule `event` at the absolute time `at` (which must not precede
    /// the current clock).
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> EventId {
        assert!(
            at >= self.now,
            "scheduling into the past: at={at} now={}",
            self.now
        );
        self.queue.push(at, event)
    }

    /// Cancel a pending event. Returns `true` if it was still pending.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.queue.cancel(id)
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Current simulation time as seen by the scheduler.
    pub fn now(&self) -> SimTime {
        self.now
    }
}

/// Why [`Engine::run_until`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The pending-event set drained before the horizon.
    Drained,
    /// The horizon was reached with events still pending.
    Horizon,
    /// The per-run event budget was exhausted (runaway-model guard).
    EventBudget,
}

/// Owns a model, the clock, and the event queue, and advances the model.
pub struct Engine<M: Simulate> {
    model: M,
    sched: Scheduler<M::Event>,
    events_handled: u64,
    probe: Option<EngineProbe>,
}

impl<M: Simulate> Engine<M> {
    /// Create an engine at time zero with an empty event set.
    pub fn new(model: M) -> Self {
        Engine {
            model,
            sched: Scheduler::new(),
            events_handled: 0,
            probe: None,
        }
    }

    /// Attach an [`EngineProbe`] that samples pending-set pressure after
    /// every delivered event. Costs two compares and a histogram record
    /// per step; nothing is paid when no probe is attached.
    pub fn attach_probe(&mut self) {
        self.probe = Some(EngineProbe::new());
    }

    /// The attached probe, if any.
    pub fn probe(&self) -> Option<&EngineProbe> {
        self.probe.as_ref()
    }

    /// Detach and return the probe, if one was attached.
    pub fn take_probe(&mut self) -> Option<EngineProbe> {
        self.probe.take()
    }

    /// Current simulation time (time of the last delivered event).
    pub fn now(&self) -> SimTime {
        self.sched.now
    }

    /// Immutable access to the model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Mutable access to the model (for pre-run setup / post-run readout).
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }

    /// Access the scheduler for priming initial events.
    pub fn scheduler(&mut self) -> &mut Scheduler<M::Event> {
        &mut self.sched
    }

    /// Total number of events delivered so far.
    pub fn events_handled(&self) -> u64 {
        self.events_handled
    }

    /// Run until the event set drains.
    pub fn run(&mut self) -> StopReason {
        self.run_until(SimTime::MAX)
    }

    /// Run until the event set drains or the clock would pass `horizon`.
    ///
    /// Events stamped exactly at `horizon` are delivered; later ones are
    /// left pending.
    pub fn run_until(&mut self, horizon: SimTime) -> StopReason {
        self.run_limited(horizon, u64::MAX)
    }

    /// Run until drained, the horizon, or at most `max_events` deliveries.
    pub fn run_limited(&mut self, horizon: SimTime, max_events: u64) -> StopReason {
        let mut budget = max_events;
        loop {
            if budget == 0 {
                return StopReason::EventBudget;
            }
            // Pop-if-due fuses the peek + pop pair into one queue scan.
            match self.sched.queue.pop_at_or_before(horizon) {
                Some((time, event)) => {
                    debug_assert!(time >= self.sched.now, "clock went backwards");
                    self.sched.now = time;
                    self.events_handled += 1;
                    self.model.handle(time, event, &mut self.sched);
                    if let Some(p) = &mut self.probe {
                        p.on_step(time.as_micros_f64(), self.sched.queue.len());
                    }
                    budget -= 1;
                }
                None if self.sched.queue.is_empty() => return StopReason::Drained,
                None => {
                    // Advance the clock to the horizon so elapsed-time
                    // metrics cover the full requested window — never
                    // back, when the horizon is one already passed.
                    self.sched.now = self.sched.now.max(horizon);
                    return StopReason::Horizon;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    /// A model that fires a chain of `n` events spaced `gap` apart and
    /// records delivery times.
    struct Chain {
        remaining: u32,
        gap: SimDuration,
        seen: Vec<SimTime>,
    }

    impl Simulate for Chain {
        type Event = u32;
        fn handle(&mut self, now: SimTime, ev: u32, sched: &mut Scheduler<u32>) {
            self.seen.push(now);
            if self.remaining > 0 {
                self.remaining -= 1;
                sched.schedule_at(now + self.gap, ev + 1);
            }
        }
    }

    fn chain(n: u32, gap_us: u64) -> Engine<Chain> {
        let mut e = Engine::new(Chain {
            remaining: n,
            gap: SimDuration::from_micros(gap_us),
            seen: Vec::new(),
        });
        e.scheduler().schedule_at(SimTime::ZERO, 0);
        e
    }

    #[test]
    fn runs_to_drain() {
        let mut e = chain(4, 10);
        assert_eq!(e.run(), StopReason::Drained);
        assert_eq!(e.model().seen.len(), 5);
        assert_eq!(e.now(), SimTime::from_micros(40));
        assert_eq!(e.events_handled(), 5);
    }

    #[test]
    fn horizon_stops_and_advances_clock() {
        let mut e = chain(100, 10);
        assert_eq!(e.run_until(SimTime::from_micros(35)), StopReason::Horizon);
        // Events at 0,10,20,30 delivered; clock parked at the horizon.
        assert_eq!(e.model().seen.len(), 4);
        assert_eq!(e.now(), SimTime::from_micros(35));
        // Resuming picks up where it left off.
        assert_eq!(e.run_until(SimTime::from_micros(40)), StopReason::Horizon);
        assert_eq!(e.model().seen.len(), 5);
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn scheduling_before_a_passed_horizon_panics() {
        let mut e = chain(10, 100);
        e.run_until(SimTime::from_micros(50));
        assert_eq!(e.run_until(SimTime::from_micros(10)), StopReason::Horizon);
        assert_eq!(
            e.now(),
            SimTime::from_micros(50),
            "the clock never runs back"
        );
        e.scheduler().schedule_at(SimTime::from_micros(20), 0);
    }

    #[test]
    fn event_exactly_at_horizon_is_delivered() {
        let mut e = chain(10, 10);
        e.run_until(SimTime::from_micros(20));
        assert_eq!(e.model().seen.last(), Some(&SimTime::from_micros(20)));
    }

    #[test]
    fn event_budget_guard() {
        let mut e = chain(1_000_000, 1);
        assert_eq!(e.run_limited(SimTime::MAX, 10), StopReason::EventBudget);
        assert_eq!(e.events_handled(), 10);
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn scheduling_into_past_panics() {
        struct Bad;
        impl Simulate for Bad {
            type Event = ();
            fn handle(&mut self, now: SimTime, _: (), sched: &mut Scheduler<()>) {
                sched.schedule_at(now - SimDuration::from_micros(1), ());
            }
        }
        let mut e = Engine::new(Bad);
        e.scheduler().schedule_at(SimTime::from_micros(5), ());
        e.run();
    }

    #[test]
    fn probe_samples_every_step_and_detaches() {
        let mut e = chain(4, 10);
        assert!(e.probe().is_none());
        e.attach_probe();
        e.run();
        let p = e.take_probe().expect("probe attached");
        assert_eq!(p.steps, e.events_handled());
        assert_eq!(p.last_t_us, 40.0);
        assert!(e.probe().is_none());
        // The chain keeps exactly one event pending until the last one.
        assert_eq!(p.max_pending, 1);
    }
}
