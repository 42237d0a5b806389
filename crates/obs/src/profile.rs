//! Profiling of a discrete-event run loop.
//!
//! [`EngineProbe`] is an optional attachment for the simulator's run
//! loop: a cheap per-step sampler of event-set pressure. It answers
//! "where did the simulation spend its events" questions without
//! touching model code, and its overhead (two compares and a histogram
//! record per step) is only paid when a probe is attached.

use crate::hist::LogHistogram;

/// Per-step run-loop statistics: event counts and pending-set pressure.
#[derive(Debug, Clone, Default)]
pub struct EngineProbe {
    /// Events delivered while the probe was attached.
    pub steps: u64,
    /// Largest pending-event set observed.
    pub max_pending: u64,
    /// Pending-set size sampled after each delivery (unitless).
    pub pending: LogHistogram,
    /// Virtual timestamp of the last delivered event (µs).
    pub last_t_us: f64,
}

impl EngineProbe {
    /// Fresh probe.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one step: the delivered event's timestamp and the
    /// pending-set size after delivery.
    pub fn on_step(&mut self, t_us: f64, pending: usize) {
        self.steps += 1;
        self.max_pending = self.max_pending.max(pending as u64);
        self.pending.record(pending as f64);
        self.last_t_us = t_us;
    }

    /// One-line summary for experiment output.
    pub fn render(&self) -> String {
        format!(
            "engine: {} events to t={:.0}us | pending mean {:.1} p95 {:.0} max {}",
            self.steps,
            self.last_t_us,
            self.pending.mean(),
            self.pending.quantile(0.95),
            self.max_pending
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_tracks_steps_and_pressure() {
        let mut p = EngineProbe::new();
        p.on_step(1.0, 3);
        p.on_step(2.0, 7);
        p.on_step(3.0, 5);
        assert_eq!(p.steps, 3);
        assert_eq!(p.max_pending, 7);
        assert_eq!(p.last_t_us, 3.0);
        let s = p.render();
        assert!(s.contains("3 events"), "{s}");
        assert!(s.contains("max 7"), "{s}");
    }
}
