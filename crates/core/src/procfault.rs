//! Seed-driven processor-fault plans.
//!
//! PR 1's [`crate::config::FaultProfile`] injects *packet*-level faults
//! (wire drops, duplicates, corruption); this module injects
//! *processor*-level faults: crashes (optionally revived), transient
//! stall windows, and persistent slow-core degradation. The paper's
//! affinity argument makes losing a processor uniquely expensive — the
//! warm cache state dies with it and every migrated stream repays the
//! cold reload transient — so the fault plan is the knob the ext24
//! experiment sweeps to measure how each scheduling rung's affinity win
//! survives degradation.
//!
//! A [`ProcFaultPlan`] is pure data: both backends consume the same
//! plan, the simulator by priming fault events, the native runtime by
//! deriving per-worker fault rules and dispatcher routing masks from
//! it. Plans are either hand-built or drawn deterministically from a
//! named RNG stream ([`ProcFaultPlan::seeded`]), so a faulted run stays
//! a pure function of `(config, seed)`.

use afs_desim::rng::{unit_uniform, RngFactory};
use rand::Rng as _;

/// What happens to the processor when the fault fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProcFaultKind {
    /// The processor dies at a packet boundary: it finishes its
    /// in-flight packet, its queued work is orphaned and re-routed, and
    /// its cache state is lost. With `revive_at_us` it later returns —
    /// cold — to service.
    Crash {
        /// Absolute revival time, if the processor comes back.
        revive_at_us: Option<f64>,
    },
    /// The processor stalls for `duration_us`: it finishes its
    /// in-flight packet on time but starts nothing during the window,
    /// then resumes with its cache intact.
    Stall {
        /// Window length in microseconds (> 0).
        duration_us: f64,
    },
    /// From the fault time on, every service on this processor takes
    /// `factor`× its nominal time (a degraded/slow core).
    Slowdown {
        /// Service-time multiplier (≥ 1).
        factor: f64,
    },
}

/// One planned fault on one processor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcFault {
    /// The processor it strikes.
    pub proc: usize,
    /// Absolute fault time in microseconds.
    pub at_us: f64,
    /// What happens.
    pub kind: ProcFaultKind,
}

/// A complete processor-fault schedule for one run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProcFaultPlan {
    /// The planned faults, in generation order.
    pub faults: Vec<ProcFault>,
}

/// Fault intensity knobs for [`ProcFaultPlan::seeded`]: fractions of
/// the worker set hit by each fault class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultLoad {
    /// Fraction of workers that crash permanently (worker 0 is always
    /// exempt, so at least one processor survives any load).
    pub crash_frac: f64,
    /// Fraction of workers that stall once.
    pub stall_frac: f64,
    /// Stall window length in microseconds.
    pub stall_us: f64,
    /// Fraction of workers degraded to a slow core.
    pub slow_frac: f64,
    /// Slow-core service multiplier (≥ 1).
    pub slow_factor: f64,
}

impl FaultLoad {
    /// No faults at all.
    pub fn none() -> Self {
        FaultLoad {
            crash_frac: 0.0,
            stall_frac: 0.0,
            stall_us: 0.0,
            slow_frac: 0.0,
            slow_factor: 1.0,
        }
    }

    /// The ext24 "light" level: roughly one worker in four crashes,
    /// stalls, or slows (×1.5).
    pub fn light() -> Self {
        FaultLoad {
            crash_frac: 0.25,
            stall_frac: 0.25,
            stall_us: 40_000.0,
            slow_frac: 0.25,
            slow_factor: 1.5,
        }
    }

    /// The ext24 "heavy" level: half the workers crash, half stall for
    /// a long window, half run at 2.5× service time.
    pub fn heavy() -> Self {
        FaultLoad {
            crash_frac: 0.5,
            stall_frac: 0.5,
            stall_us: 120_000.0,
            slow_frac: 0.5,
            slow_factor: 2.5,
        }
    }
}

impl ProcFaultPlan {
    /// The empty plan — the default of every configuration, and the
    /// guarantee that all pre-fault goldens stay byte-identical.
    pub fn none() -> Self {
        ProcFaultPlan { faults: Vec::new() }
    }

    /// Whether this plan injects nothing.
    pub fn is_noop(&self) -> bool {
        self.faults.is_empty()
    }

    /// Draw a plan from `seed` for a `workers`-processor run, placing
    /// fault times uniformly inside `window = (start_us, end_us)`.
    ///
    /// Both backends call this with the *same seed and load* but their
    /// own measurement window, so the fault structure (which workers,
    /// in which order) is identical across backends while the absolute
    /// times map affinely onto each backend's timeline. Seeded crashes
    /// are permanent (no revive) and never strike worker 0.
    pub fn seeded(seed: u64, workers: usize, window: (f64, f64), load: &FaultLoad) -> Self {
        let mut rng = RngFactory::new(seed).stream("procfaults");
        let span = (window.1 - window.0).max(0.0);
        let mut faults = Vec::new();

        // Distinct crash victims, drawn without replacement from the
        // workers that are allowed to die (never worker 0).
        let n_crash =
            ((load.crash_frac * workers as f64).round() as usize).min(workers.saturating_sub(1));
        let mut pool: Vec<usize> = (1..workers).collect();
        for _ in 0..n_crash {
            let victim = pool.swap_remove(rng.gen_range(0..pool.len()));
            let at_us = window.0 + unit_uniform(&mut rng) * span;
            faults.push(ProcFault {
                proc: victim,
                at_us,
                kind: ProcFaultKind::Crash { revive_at_us: None },
            });
        }

        // Stalls may hit any worker (transient, nothing is lost); the
        // window is clipped so it ends inside the measurement span.
        let n_stall = ((load.stall_frac * workers as f64).round() as usize).min(workers);
        let mut pool: Vec<usize> = (0..workers).collect();
        for _ in 0..n_stall {
            let victim = pool.swap_remove(rng.gen_range(0..pool.len()));
            let free = (span - load.stall_us).max(0.0);
            let at_us = window.0 + unit_uniform(&mut rng) * free;
            if load.stall_us > 0.0 {
                faults.push(ProcFault {
                    proc: victim,
                    at_us,
                    kind: ProcFaultKind::Stall {
                        duration_us: load.stall_us,
                    },
                });
            }
        }

        // Slow cores degrade from their fault time to the end of the run.
        let n_slow = ((load.slow_frac * workers as f64).round() as usize).min(workers);
        let mut pool: Vec<usize> = (0..workers).collect();
        for _ in 0..n_slow {
            let victim = pool.swap_remove(rng.gen_range(0..pool.len()));
            let at_us = window.0 + unit_uniform(&mut rng) * span;
            if load.slow_factor > 1.0 {
                faults.push(ProcFault {
                    proc: victim,
                    at_us,
                    kind: ProcFaultKind::Slowdown {
                        factor: load.slow_factor,
                    },
                });
            }
        }

        ProcFaultPlan { faults }
    }

    /// Validate against a `n_procs`-processor run. Checks every fault
    /// targets an existing processor at a finite nonnegative time, at
    /// most one crash per processor (revives strictly after the crash),
    /// per-processor stall windows do not overlap, stall durations are
    /// positive, slowdown factors are ≥ 1, and at least one processor
    /// never permanently crashes (someone must absorb the orphans).
    pub fn validate(&self, n_procs: usize) -> Result<(), String> {
        let mut crashes = vec![0usize; n_procs];
        let mut perma = vec![false; n_procs];
        let mut stalls: Vec<Vec<(f64, f64)>> = vec![Vec::new(); n_procs];
        for f in &self.faults {
            if f.proc >= n_procs {
                return Err(format!("fault targets processor {} of {n_procs}", f.proc));
            }
            if !f.at_us.is_finite() || f.at_us < 0.0 {
                return Err(format!("fault time {} is not a finite time", f.at_us));
            }
            match f.kind {
                ProcFaultKind::Crash { revive_at_us } => {
                    crashes[f.proc] += 1;
                    match revive_at_us {
                        None => perma[f.proc] = true,
                        Some(r) if !(r.is_finite() && r > f.at_us) => {
                            return Err(format!("revive {r} not after crash {}", f.at_us));
                        }
                        Some(_) => {}
                    }
                }
                ProcFaultKind::Stall { duration_us } => {
                    if !(duration_us.is_finite() && duration_us > 0.0) {
                        return Err(format!("stall duration {duration_us} must be > 0"));
                    }
                    stalls[f.proc].push((f.at_us, f.at_us + duration_us));
                }
                ProcFaultKind::Slowdown { factor } => {
                    if !(factor.is_finite() && factor >= 1.0) {
                        return Err(format!("slowdown factor {factor} must be >= 1"));
                    }
                }
            }
        }
        if crashes.iter().any(|&c| c > 1) {
            return Err("at most one crash per processor".into());
        }
        if n_procs > 0 && perma.iter().all(|&p| p) {
            return Err("every processor crashes permanently; no survivor".into());
        }
        for windows in &mut stalls {
            windows.sort_by(|a, b| a.0.total_cmp(&b.0));
            if windows.windows(2).any(|w| w[1].0 < w[0].1) {
                return Err("stall windows overlap on one processor".into());
            }
        }
        Ok(())
    }

    /// The crash planned for `proc`, as `(at_us, revive_at_us)`.
    pub fn crash_for(&self, proc: usize) -> Option<(f64, Option<f64>)> {
        self.faults.iter().find_map(|f| match f.kind {
            ProcFaultKind::Crash { revive_at_us } if f.proc == proc => {
                Some((f.at_us, revive_at_us))
            }
            _ => None,
        })
    }

    /// The stall windows planned for `proc`, as sorted
    /// `(start_us, end_us)` pairs.
    pub fn stalls_for(&self, proc: usize) -> Vec<(f64, f64)> {
        let mut windows: Vec<(f64, f64)> = self
            .faults
            .iter()
            .filter_map(|f| match f.kind {
                ProcFaultKind::Stall { duration_us } if f.proc == proc => {
                    Some((f.at_us, f.at_us + duration_us))
                }
                _ => None,
            })
            .collect();
        windows.sort_by(|a, b| a.0.total_cmp(&b.0));
        windows
    }

    /// The first slowdown planned for `proc`, as `(at_us, factor)`.
    pub fn slowdown_for(&self, proc: usize) -> Option<(f64, f64)> {
        self.faults.iter().find_map(|f| match f.kind {
            ProcFaultKind::Slowdown { factor } if f.proc == proc => Some((f.at_us, factor)),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_noop_and_valid() {
        let p = ProcFaultPlan::none();
        assert!(p.is_noop());
        assert!(p.validate(4).is_ok());
        assert_eq!(p.crash_for(0), None);
        assert!(p.stalls_for(0).is_empty());
        assert_eq!(p.slowdown_for(0), None);
    }

    #[test]
    fn seeded_plans_are_reproducible_and_valid() {
        let w = (100_000.0, 900_000.0);
        let a = ProcFaultPlan::seeded(7, 8, w, &FaultLoad::heavy());
        let b = ProcFaultPlan::seeded(7, 8, w, &FaultLoad::heavy());
        assert_eq!(a, b);
        assert!(!a.is_noop());
        assert!(a.validate(8).is_ok());
        // A different seed reshuffles victims and times.
        let c = ProcFaultPlan::seeded(8, 8, w, &FaultLoad::heavy());
        assert_ne!(a, c);
        // Worker 0 never crashes.
        assert_eq!(a.crash_for(0), None);
        assert_eq!(c.crash_for(0), None);
        // The none load draws nothing.
        assert!(ProcFaultPlan::seeded(7, 8, w, &FaultLoad::none()).is_noop());
    }

    #[test]
    fn same_seed_different_window_maps_structure_affinely() {
        let a = ProcFaultPlan::seeded(11, 4, (0.0, 1_000_000.0), &FaultLoad::light());
        let b = ProcFaultPlan::seeded(11, 4, (500_000.0, 1_500_000.0), &FaultLoad::light());
        assert_eq!(a.faults.len(), b.faults.len());
        for (fa, fb) in a.faults.iter().zip(&b.faults) {
            assert_eq!(fa.proc, fb.proc, "same victims in the same order");
            assert!(fb.at_us >= 500_000.0);
        }
    }

    #[test]
    fn validation_rejects_malformed_plans() {
        let bad = ProcFaultPlan {
            faults: vec![ProcFault {
                proc: 9,
                at_us: 0.0,
                kind: ProcFaultKind::Crash { revive_at_us: None },
            }],
        };
        assert!(bad.validate(4).is_err());
        let orphaned_world = ProcFaultPlan {
            faults: (0..2)
                .map(|p| ProcFault {
                    proc: p,
                    at_us: 10.0,
                    kind: ProcFaultKind::Crash { revive_at_us: None },
                })
                .collect(),
        };
        assert!(orphaned_world.validate(2).is_err());
        let bad_revive = ProcFaultPlan {
            faults: vec![ProcFault {
                proc: 1,
                at_us: 10.0,
                kind: ProcFaultKind::Crash {
                    revive_at_us: Some(5.0),
                },
            }],
        };
        assert!(bad_revive.validate(2).is_err());
        let overlap = ProcFaultPlan {
            faults: vec![
                ProcFault {
                    proc: 1,
                    at_us: 10.0,
                    kind: ProcFaultKind::Stall { duration_us: 20.0 },
                },
                ProcFault {
                    proc: 1,
                    at_us: 25.0,
                    kind: ProcFaultKind::Stall { duration_us: 5.0 },
                },
            ],
        };
        assert!(overlap.validate(2).is_err());
        let bad_factor = ProcFaultPlan {
            faults: vec![ProcFault {
                proc: 0,
                at_us: 0.0,
                kind: ProcFaultKind::Slowdown { factor: 0.5 },
            }],
        };
        assert!(bad_factor.validate(2).is_err());
    }
}
