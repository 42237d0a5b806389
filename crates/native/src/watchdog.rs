//! Plan-driven worker health: per-worker fault schedules extracted from
//! the shared [`ProcFaultPlan`], and the atomic health board workers and
//! the dispatcher-side watchdog communicate through.
//!
//! ## Why the plan, not wall-clock observation, drives recovery
//!
//! The native runtime measures *virtual* time: a worker's progress is
//! its vclock, not the host scheduler's mood. Fault injection follows
//! the same rule — a worker crashes when its **virtual** clock reaches
//! the plan's crash instant (the next packet it would start at or after
//! `crash_at` is fatal), and the watchdog routes orphans around the set
//! of workers the *plan* says are down. Observing host-time heartbeat
//! lag instead would make recovery depend on CI load, destroying the
//! determinism the cross-validation suite pins down.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

use afs_core::procfault::ProcFaultPlan;

/// Health-board state: healthy / schedulable.
pub const UP: u32 = 0;
/// Health-board state: permanently crashed (orphans need recovery).
pub const DOWN: u32 = 1;

/// Shared per-worker health state: the crash flags workers publish and
/// the watchdog consumes, and exit flags that sequence orphan recovery
/// after the owner has stopped touching its ring.
#[derive(Debug)]
pub struct HealthBoard {
    health: Vec<AtomicU32>,
    exited: Vec<AtomicBool>,
}

impl HealthBoard {
    /// A board with every worker up and running.
    pub fn new(workers: usize) -> Self {
        HealthBoard {
            health: (0..workers).map(|_| AtomicU32::new(UP)).collect(),
            exited: (0..workers).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    /// Worker count on the board.
    pub fn workers(&self) -> usize {
        self.health.len()
    }

    /// Worker `w` declares itself crashed.
    pub fn mark_down(&self, w: usize) {
        self.health[w].store(DOWN, Ordering::Release);
    }

    /// Is worker `w` crashed?
    pub fn is_down(&self, w: usize) -> bool {
        self.health[w].load(Ordering::Acquire) == DOWN
    }

    /// Count of crashed workers.
    pub fn downs(&self) -> u64 {
        (0..self.workers()).filter(|&w| self.is_down(w)).count() as u64
    }

    /// Worker `w` declares its thread is about to return (it will never
    /// touch its ring again — the watchdog may drain it).
    pub fn mark_exited(&self, w: usize) {
        self.exited[w].store(true, Ordering::Release);
    }

    /// Has worker `w`'s thread stopped?
    pub fn has_exited(&self, w: usize) -> bool {
        self.exited[w].load(Ordering::Acquire)
    }
}

/// One worker's slice of a [`ProcFaultPlan`], pre-resolved so the hot
/// loop consults plain fields instead of scanning the plan.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkerFaults {
    /// Crash instant and optional revive instant (virtual µs).
    pub crash: Option<(f64, Option<f64>)>,
    /// Stall windows as `(start_us, end_us)`, sorted by start.
    pub stalls: Vec<(f64, f64)>,
    /// Persistent slowdown as `(onset, factor)`.
    pub slowdown: Option<(f64, f64)>,
}

/// What displacing a service start through the fault schedule did —
/// the worker emits one `WorkerDown`/`WorkerUp` pair per newly crossed
/// stall window and one per reboot.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Displaced {
    /// The displaced start instant.
    pub start_v: f64,
    /// Indices into [`WorkerFaults::stalls`] the start was pushed past.
    pub stall_hits: Vec<usize>,
    /// Whether the start crossed the crash→revive reboot window.
    pub rebooted: bool,
}

impl WorkerFaults {
    /// Extract worker `w`'s schedule from the plan.
    pub fn from_plan(plan: &ProcFaultPlan, w: usize) -> Self {
        WorkerFaults {
            crash: plan.crash_for(w),
            stalls: plan.stalls_for(w),
            slowdown: plan.slowdown_for(w),
        }
    }

    /// Is a packet starting at `start_v` fatal — i.e. does this worker
    /// have a *permanent* crash at or before that instant? Returns the
    /// crash instant (the `WorkerDown` stamp).
    pub fn fatal_at(&self, start_v: f64) -> Option<f64> {
        match self.crash {
            Some((at, None)) if start_v >= at => Some(at),
            _ => None,
        }
    }

    /// Push a service start past every stall window (and the reboot
    /// window of a crash-with-revive) that contains it. Windows are
    /// sorted and non-overlapping, so one ascending pass converges.
    pub fn displace(&self, mut start_v: f64) -> Displaced {
        let mut d = Displaced {
            start_v,
            ..Displaced::default()
        };
        for (ix, &(s, e)) in self.stalls.iter().enumerate() {
            if start_v >= s && start_v < e {
                start_v = e;
                d.stall_hits.push(ix);
            }
        }
        if let Some((c, Some(r))) = self.crash {
            if start_v >= c && start_v < r {
                start_v = r;
                d.rebooted = true;
                // A reboot may land the start inside a later stall
                // window; the plan validator keeps these rare, but stay
                // correct: re-run the stall pass once.
                for (ix, &(s, e)) in self.stalls.iter().enumerate() {
                    if start_v >= s && start_v < e && !d.stall_hits.contains(&ix) {
                        start_v = e;
                        d.stall_hits.push(ix);
                    }
                }
            }
        }
        d.start_v = start_v;
        d
    }

    /// The slowdown-scaled service time for work starting at `start_v`.
    pub fn scale_service(&self, start_v: f64, service_us: f64) -> f64 {
        match self.slowdown {
            Some((at, factor)) if start_v >= at => service_us * factor,
            _ => service_us,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afs_core::procfault::{ProcFault, ProcFaultKind};

    fn plan() -> ProcFaultPlan {
        ProcFaultPlan {
            faults: vec![
                ProcFault {
                    proc: 1,
                    at_us: 100.0,
                    kind: ProcFaultKind::Crash { revive_at_us: None },
                },
                ProcFault {
                    proc: 2,
                    at_us: 50.0,
                    kind: ProcFaultKind::Crash {
                        revive_at_us: Some(80.0),
                    },
                },
                ProcFault {
                    proc: 0,
                    at_us: 10.0,
                    kind: ProcFaultKind::Stall { duration_us: 5.0 },
                },
                ProcFault {
                    proc: 0,
                    at_us: 30.0,
                    kind: ProcFaultKind::Stall { duration_us: 5.0 },
                },
                ProcFault {
                    proc: 2,
                    at_us: 0.0,
                    kind: ProcFaultKind::Slowdown { factor: 2.0 },
                },
            ],
        }
    }

    #[test]
    fn from_plan_splits_by_worker() {
        let p = plan();
        let w0 = WorkerFaults::from_plan(&p, 0);
        assert_eq!(w0.crash, None);
        assert_eq!(w0.stalls, vec![(10.0, 15.0), (30.0, 35.0)]);
        let w1 = WorkerFaults::from_plan(&p, 1);
        assert_eq!(w1.crash, Some((100.0, None)));
        assert!(w1.stalls.is_empty());
        let w2 = WorkerFaults::from_plan(&p, 2);
        assert_eq!(w2.crash, Some((50.0, Some(80.0))));
        assert_eq!(w2.slowdown, Some((0.0, 2.0)));
    }

    #[test]
    fn fatal_only_for_permanent_crashes() {
        let p = plan();
        let w1 = WorkerFaults::from_plan(&p, 1);
        assert_eq!(w1.fatal_at(99.9), None);
        assert_eq!(w1.fatal_at(100.0), Some(100.0));
        assert_eq!(w1.fatal_at(1e9), Some(100.0));
        // A crash with a revive is a reboot, never fatal.
        let w2 = WorkerFaults::from_plan(&p, 2);
        assert_eq!(w2.fatal_at(1e9), None);
    }

    #[test]
    fn displace_pushes_through_windows_in_order() {
        let p = plan();
        let w0 = WorkerFaults::from_plan(&p, 0);
        // Clean start: untouched.
        let d = w0.displace(20.0);
        assert_eq!(d.start_v, 20.0);
        assert!(d.stall_hits.is_empty() && !d.rebooted);
        // Inside the first window: pushed to its end only.
        let d = w0.displace(12.0);
        assert_eq!(d.start_v, 15.0);
        assert_eq!(d.stall_hits, vec![0]);
        // Reboot window displaces and flags.
        let w2 = WorkerFaults::from_plan(&p, 2);
        let d = w2.displace(60.0);
        assert_eq!(d.start_v, 80.0);
        assert!(d.rebooted);
    }

    #[test]
    fn slowdown_scales_only_after_onset() {
        let wf = WorkerFaults {
            slowdown: Some((40.0, 2.5)),
            ..WorkerFaults::default()
        };
        assert_eq!(wf.scale_service(39.0, 10.0), 10.0);
        assert_eq!(wf.scale_service(40.0, 10.0), 25.0);
    }

    #[test]
    fn board_roundtrip() {
        let b = HealthBoard::new(3);
        assert_eq!(b.downs(), 0);
        b.mark_down(2);
        assert!(b.is_down(2) && !b.is_down(0));
        assert_eq!(b.downs(), 1);
        assert!(!b.has_exited(2));
        b.mark_exited(2);
        assert!(b.has_exited(2));
    }
}
