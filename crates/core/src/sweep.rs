//! Parameter sweeps and capacity search — the machinery behind every
//! delay-vs-rate figure and throughput-capacity claim.

use crate::config::SystemConfig;
use crate::metrics::RunReport;
use crate::par;
use crate::sim::run;

/// One point of a rate sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Per-stream arrival rate (packets/second).
    pub rate_per_stream: f64,
    /// Aggregate offered rate.
    pub offered_pps: f64,
    /// The run's report.
    pub report: RunReport,
}

/// A labelled series (one curve of a figure).
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Curve label (policy/paradigm).
    pub label: String,
    /// Points in sweep order.
    pub points: Vec<SweepPoint>,
}

impl Series {
    /// Mean delays (µs) in sweep order; unstable points reported as
    /// `f64::INFINITY` (the paper's curves shoot up at saturation).
    pub fn delays_us(&self) -> Vec<f64> {
        self.points
            .iter()
            .map(|p| {
                if p.report.stable {
                    p.report.mean_delay_us
                } else {
                    f64::INFINITY
                }
            })
            .collect()
    }

    /// The largest per-stream rate that remained stable (None if none).
    pub fn max_stable_rate(&self) -> Option<f64> {
        self.points
            .iter()
            .filter(|p| p.report.stable)
            .map(|p| p.rate_per_stream)
            .fold(None, |acc: Option<f64>, r| {
                Some(acc.map_or(r, |a| a.max(r)))
            })
    }
}

/// Sweep per-stream arrival rate over `rates` for a fixed paradigm.
///
/// `base_population` supplies the stream count and arrival-process
/// *shape*; each point rescales its rate via
/// [`Population::with_rate`](afs_workload::Population::with_rate).
///
/// Points run in parallel on the [`crate::par`] executor (`AFS_JOBS`
/// workers): each is an independent run of a rate-rescaled clone of the
/// template, and results are reassembled in rate order, so the series —
/// and every artifact rendered from it — is byte-identical to the
/// serial loop.
pub fn rate_sweep(label: impl Into<String>, template: &SystemConfig, rates: &[f64]) -> Series {
    rate_sweep_jobs(par::jobs_from_env(), label, template, rates)
}

/// [`rate_sweep`] with an explicit worker count (determinism tests pin
/// `jobs` instead of racing on the process environment).
pub fn rate_sweep_jobs(
    jobs: usize,
    label: impl Into<String>,
    template: &SystemConfig,
    rates: &[f64],
) -> Series {
    let points = par::parallel_map_jobs(jobs, rates, |&r| {
        let mut cfg = template.clone();
        cfg.population = cfg.population.clone().with_rate(r);
        let offered = cfg.population.total_rate_per_sec();
        let report = run(&cfg);
        SweepPoint {
            rate_per_stream: r,
            offered_pps: offered,
            report,
        }
    });
    Series {
        label: label.into(),
        points,
    }
}

/// Binary-search the largest stable per-stream rate in
/// `[lo, hi]` packets/second (tolerance `tol` relative).
///
/// The two bracket probes are independent and run in parallel; the
/// bisection itself is *deliberately serial* — each probe's rate depends
/// on every previous verdict, so fanning it out would change which
/// configurations are evaluated and with them the returned capacity
/// (and any artifact derived from it). Callers wanting parallelism
/// across *several* searches fan those out with
/// [`crate::par::parallel_map`] instead.
pub fn capacity_search(template: &SystemConfig, lo: f64, hi: f64, tol: f64) -> f64 {
    assert!(lo > 0.0 && hi > lo && tol > 0.0);
    let stable_at = |rate: f64| -> bool {
        let mut cfg = template.clone();
        cfg.population = cfg.population.clone().with_rate(rate);
        run(&cfg).report_stability()
    };
    let mut lo = lo;
    let mut hi = hi;
    // Both ends of the bracket are always needed when the search
    // proceeds, so probe them concurrently. (When `lo` is already
    // unstable the `hi` probe is wasted work, but never changes the
    // result: runs are pure.)
    let ends = par::parallel_map(&[lo, hi], |&r| stable_at(r));
    if !ends[0] {
        return 0.0;
    }
    if ends[1] {
        return hi;
    }
    while (hi - lo) / lo > tol {
        let mid = 0.5 * (lo + hi);
        if stable_at(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

impl RunReport {
    /// Stability with a delay sanity guard (used by the capacity search:
    /// a "stable" run whose mean delay exceeds 20× the mean service time
    /// is treated as saturated).
    pub fn report_stability(&self) -> bool {
        self.stable && self.mean_delay_us < 20.0 * self.mean_service_us.max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{LockPolicy, Paradigm};
    use afs_desim::time::SimDuration;
    use afs_workload::Population;

    fn template() -> SystemConfig {
        let mut cfg = SystemConfig::new(
            Paradigm::Locking {
                policy: LockPolicy::Mru,
            },
            Population::homogeneous_poisson(8, 100.0),
        );
        cfg.warmup = SimDuration::from_millis(100);
        cfg.horizon = SimDuration::from_millis(900);
        cfg.n_procs = 4;
        cfg
    }

    #[test]
    fn sweep_produces_points_in_order() {
        let s = rate_sweep("mru", &template(), &[50.0, 100.0]);
        assert_eq!(s.points.len(), 2);
        assert!(s.points[0].rate_per_stream < s.points[1].rate_per_stream);
        assert!(s.points[0].offered_pps > 0.0);
        assert_eq!(s.delays_us().len(), 2);
    }

    #[test]
    fn capacity_search_brackets() {
        // 4 procs, 8 streams, service ≥ ~160 µs ⇒ aggregate capacity
        // < 4/160µs = 25 000 pps ⇒ per-stream < 3125. Low rates stable.
        let cap = capacity_search(&template(), 100.0, 6000.0, 0.2);
        assert!(cap >= 100.0, "cap {cap}");
        assert!(cap < 6000.0, "cap {cap}");
    }
}
