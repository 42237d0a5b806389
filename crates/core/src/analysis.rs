//! Derived analyses: crossover detection (the MRU/Wired trade-offs),
//! dominance between delay curves, and MSER-5 warm-up validation.

use afs_desim::time::SimDuration;
use afs_desim::warmup::mser5;

use crate::config::SystemConfig;
use crate::sim::run_with_series;
use crate::sweep::Series;

/// Verdict of an MSER-5 warm-up validation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WarmupCheck {
    /// The warm-up the configuration uses.
    pub configured: SimDuration,
    /// The truncation MSER-5 recommends, converted to simulated time by
    /// assuming completions are spread evenly over the horizon.
    pub recommended: SimDuration,
    /// True when the configured warm-up covers the recommendation.
    pub adequate: bool,
}

/// Validate a configuration's warm-up against MSER-5 on its own delay
/// series. Returns `None` when the run produced too few completions for
/// the heuristic (< 50).
pub fn validate_warmup(cfg: &SystemConfig) -> Option<WarmupCheck> {
    let horizon = cfg.horizon;
    let configured = cfg.warmup;
    let (_, series) = run_with_series(cfg, true);
    let est = mser5(&series)?;
    let frac = est.truncate_at as f64 / series.len() as f64;
    let recommended = horizon.mul_f64(frac);
    Some(WarmupCheck {
        configured,
        recommended,
        adequate: configured >= recommended,
    })
}

/// Where curve `a` stops beating curve `b`: returns the index of the
/// first point (scanning in sweep order) at which `b`'s delay is lower
/// than `a`'s, considering only points where both are stable. `None`
/// means no crossover in the swept range.
pub fn crossover_index(a: &Series, b: &Series) -> Option<usize> {
    for (i, (pa, pb)) in a.points.iter().zip(&b.points).enumerate() {
        match (pa.report.stable, pb.report.stable) {
            (true, true) if pb.report.mean_delay_us < pa.report.mean_delay_us => return Some(i),
            // `a` saturated while `b` survives: that is the crossover.
            (false, true) => return Some(i),
            _ => {}
        }
    }
    None
}

/// True when series `a` dominates `b` (lower or equal delay at every
/// mutually stable point, strictly lower somewhere).
pub fn dominates(a: &Series, b: &Series, slack: f64) -> bool {
    let mut strictly = false;
    for (pa, pb) in a.points.iter().zip(&b.points) {
        if pa.report.stable && pb.report.stable {
            if pa.report.mean_delay_us > pb.report.mean_delay_us * (1.0 + slack) {
                return false;
            }
            if pa.report.mean_delay_us < pb.report.mean_delay_us {
                strictly = true;
            }
        }
        if !pa.report.stable && pb.report.stable {
            return false;
        }
    }
    strictly
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::RunReport;
    use crate::sweep::SweepPoint;

    fn fake_report(delay: f64, stable: bool) -> RunReport {
        RunReport {
            mean_delay_us: delay,
            delay_ci_half_us: 1.0,
            p95_delay_us: Some(delay * 2.0),
            max_delay_us: delay * 3.0,
            mean_service_us: 150.0,
            throughput_pps: 1000.0,
            offered_pps: 1000.0,
            delivered: 1000,
            arrivals: 1000,
            utilization: 0.2,
            mean_f1: 0.5,
            mean_f2: 0.1,
            stream_migration_rate: 0.0,
            thread_migration_rate: 0.0,
            per_stream_delay_us: vec![],
            per_proc_served: vec![],
            littles_gap: 0.01,
            stable,
            goodput_pps: 1000.0,
            drop_rate: 0.0,
            wire_drops: 0,
            queue_drops: 0,
            shed_at_source: 0,
            corrupted: 0,
            proc_crashes: 0,
            proc_stalls: 0,
            orphaned: 0,
            requeued: 0,
            wasted_service_frac: 0.0,
            offered_total: 1000,
            completed_total: 1000,
            shed_total: 0,
            in_flight: 0,
            ooo_deliveries: 0,
            table_misses: 0,
            rebinds: 0,
        }
    }

    fn series(label: &str, delays: &[(f64, bool)]) -> Series {
        Series {
            label: label.into(),
            points: delays
                .iter()
                .enumerate()
                .map(|(i, &(d, s))| SweepPoint {
                    rate_per_stream: (i + 1) as f64 * 100.0,
                    offered_pps: (i + 1) as f64 * 800.0,
                    report: fake_report(d, s),
                })
                .collect(),
        }
    }

    #[test]
    fn crossover_detection() {
        // a wins early, b wins late.
        let a = series("mru", &[(100.0, true), (200.0, true), (900.0, true)]);
        let b = series("wired", &[(150.0, true), (250.0, true), (400.0, true)]);
        assert_eq!(crossover_index(&a, &b), Some(2));
        // saturation counts as crossover
        let a2 = series("mru", &[(100.0, true), (0.0, false)]);
        let b2 = series("wired", &[(150.0, true), (400.0, true)]);
        assert_eq!(crossover_index(&a2, &b2), Some(1));
        // no crossover
        let b3 = series("wired", &[(150.0, true), (250.0, true)]);
        let a3 = series("mru", &[(100.0, true), (200.0, true)]);
        assert_eq!(crossover_index(&a3, &b3), None);
    }

    #[test]
    fn dominance() {
        let good = series("ips", &[(100.0, true), (150.0, true)]);
        let bad = series("lock", &[(180.0, true), (260.0, true)]);
        assert!(dominates(&good, &bad, 0.0));
        assert!(!dominates(&bad, &good, 0.0));
        // Slack tolerates small wobbles: `wobbly` is 2 % worse at one
        // point but clearly better at the other.
        let wobbly = series("a", &[(102.0, true), (120.0, true)]);
        assert!(dominates(&wobbly, &bad, 0.0));
        assert!(!dominates(&wobbly, &good, 0.0), "2% worse without slack");
        assert!(dominates(&wobbly, &good, 0.05), "2% within 5% slack");
    }

    #[test]
    fn warmup_validation_on_default_template() {
        use crate::config::{LockPolicy, Paradigm};
        let mut cfg = crate::config::SystemConfig::new(
            Paradigm::Locking {
                policy: LockPolicy::Mru,
            },
            afs_workload::Population::homogeneous_poisson(8, 600.0),
        );
        cfg.warmup = afs_desim::SimDuration::from_millis(150);
        cfg.horizon = afs_desim::SimDuration::from_millis(900);
        let check = validate_warmup(&cfg).expect("enough completions");
        assert!(
            check.adequate,
            "default warm-up should cover MSER-5's recommendation: {check:?}"
        );
        assert!(check.recommended < check.configured);
    }
}
