//! Independent replications: run one configuration under several seeds
//! and form confidence intervals *across* runs.
//!
//! Batch means (within one run) and independent replications (across
//! runs) are the two standard routes to interval estimates for
//! steady-state simulation; replications are the more robust of the two
//! when runs are short or the warm-up is uncertain, at the price of
//! simulating the warm-up once per replication. The experiment harness
//! uses batch means for speed; this module provides replications for
//! verification and for the figures where run-to-run variability itself
//! matters (burst response).

use afs_desim::stats::{ConfInterval, Welford};

use crate::config::SystemConfig;
use crate::metrics::RunReport;
use crate::par;
use crate::sim::run;

/// Cross-replication summary of one scalar metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricSummary {
    /// Mean across replications.
    pub mean: f64,
    /// Half-width of the 95 % Student-t interval across replications.
    pub ci_half: f64,
    /// Smallest replication value.
    pub min: f64,
    /// Largest replication value.
    pub max: f64,
}

impl MetricSummary {
    fn from(acc: &Welford) -> Self {
        let n = acc.count() as f64;
        // Student-t 0.975 quantile via the same table BatchMeans uses
        // (approximate beyond 30 d.o.f.).
        let t = match acc.count() {
            0 | 1 => f64::INFINITY,
            2 => 12.706,
            3 => 4.303,
            4 => 3.182,
            5 => 2.776,
            6 => 2.571,
            7 => 2.447,
            8 => 2.365,
            9 => 2.306,
            10 => 2.262,
            _ => 2.0,
        };
        MetricSummary {
            mean: acc.mean(),
            ci_half: t * (acc.variance() / n).sqrt(),
            min: acc.min(),
            max: acc.max(),
        }
    }

    /// The interval as a [`ConfInterval`].
    pub fn interval(&self) -> ConfInterval {
        ConfInterval {
            mean: self.mean,
            half_width: self.ci_half,
        }
    }
}

/// Results of a replication study.
#[derive(Debug, Clone)]
pub struct ReplicationSummary {
    /// Number of replications run.
    pub replications: usize,
    /// Replications that were stable.
    pub stable_count: usize,
    /// Mean packet delay (µs) across stable replications.
    pub mean_delay_us: MetricSummary,
    /// Mean service time (µs) across stable replications.
    pub mean_service_us: MetricSummary,
    /// Throughput (pkts/s) across stable replications.
    pub throughput_pps: MetricSummary,
    /// The individual reports, in seed order.
    pub reports: Vec<RunReport>,
}

/// Run `n` independent replications of `cfg`, deriving each seed from
/// the configuration's seed. Metrics are summarized over the *stable*
/// replications (an unstable replication's delay is meaningless).
///
/// Replications are independent runs, so they fan out on the
/// [`crate::par`] executor (`AFS_JOBS` workers); the reports come back
/// in seed order and the Welford accumulators fold them in that same
/// order afterwards, so every summary statistic is bit-identical to the
/// serial loop's.
pub fn replicate(cfg: &SystemConfig, n: usize) -> ReplicationSummary {
    replicate_jobs(par::jobs_from_env(), cfg, n)
}

/// [`replicate`] with an explicit worker count (determinism tests pin
/// `jobs` instead of racing on the process environment).
pub fn replicate_jobs(jobs: usize, cfg: &SystemConfig, n: usize) -> ReplicationSummary {
    assert!(n >= 2, "need at least two replications for an interval");
    let indices: Vec<u64> = (0..n as u64).collect();
    let reports = par::parallel_map_jobs(jobs, &indices, |&i| {
        let mut c = cfg.clone();
        // Distinct, deterministic seeds per replication.
        c.seed = cfg
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i + 1));
        run(&c)
    });
    let mut delay = Welford::new();
    let mut service = Welford::new();
    let mut throughput = Welford::new();
    let mut stable_count = 0;
    for r in &reports {
        if r.stable {
            stable_count += 1;
            delay.add(r.mean_delay_us);
            service.add(r.mean_service_us);
            throughput.add(r.throughput_pps);
        }
    }
    ReplicationSummary {
        replications: n,
        stable_count,
        mean_delay_us: MetricSummary::from(&delay),
        mean_service_us: MetricSummary::from(&service),
        throughput_pps: MetricSummary::from(&throughput),
        reports,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{LockPolicy, Paradigm};
    use afs_desim::time::SimDuration;
    use afs_workload::Population;

    fn quick() -> SystemConfig {
        let mut cfg = SystemConfig::new(
            Paradigm::Locking {
                policy: LockPolicy::Mru,
            },
            Population::homogeneous_poisson(8, 500.0),
        );
        cfg.warmup = SimDuration::from_millis(50);
        cfg.horizon = SimDuration::from_millis(350);
        cfg
    }

    #[test]
    fn replications_differ_but_agree() {
        let s = replicate(&quick(), 5);
        assert_eq!(s.replications, 5);
        assert_eq!(s.stable_count, 5);
        // Different seeds → different sample paths.
        let delays: Vec<f64> = s.reports.iter().map(|r| r.mean_delay_us).collect();
        let all_same = delays.windows(2).all(|w| w[0] == w[1]);
        assert!(!all_same, "replications should differ: {delays:?}");
        // But they estimate the same steady state: CI is tight relative
        // to the mean.
        assert!(s.mean_delay_us.ci_half < 0.1 * s.mean_delay_us.mean);
        assert!(s.mean_delay_us.min <= s.mean_delay_us.mean);
        assert!(s.mean_delay_us.max >= s.mean_delay_us.mean);
    }

    #[test]
    fn batch_means_ci_consistent_with_replications() {
        // The single-run batch-means interval should overlap the
        // cross-replication interval — two estimators of one quantity.
        let s = replicate(&quick(), 6);
        let single = crate::sim::run(&quick());
        let lo = s.mean_delay_us.mean - s.mean_delay_us.ci_half - single.delay_ci_half_us;
        let hi = s.mean_delay_us.mean + s.mean_delay_us.ci_half + single.delay_ci_half_us;
        assert!(
            (lo..=hi).contains(&single.mean_delay_us),
            "batch-means {} outside replication band [{lo:.1}, {hi:.1}]",
            single.mean_delay_us
        );
    }

    #[test]
    fn replication_is_deterministic() {
        let a = replicate(&quick(), 3);
        let b = replicate(&quick(), 3);
        assert_eq!(a.mean_delay_us.mean, b.mean_delay_us.mean);
    }

    #[test]
    fn unstable_replications_excluded_from_metrics() {
        let mut cfg = quick();
        cfg.population = Population::homogeneous_poisson(8, 9_000.0); // overload
        let s = replicate(&cfg, 3);
        assert_eq!(s.stable_count, 0);
        assert_eq!(s.mean_delay_us.mean, 0.0);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn one_replication_rejected() {
        replicate(&quick(), 1);
    }
}
