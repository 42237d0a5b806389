//! The simulator's behavioural test suite (moved verbatim from the
//! pre-split `sim.rs`; the inner modules keep their original names so
//! test paths stay stable).

// The original top-level `mod tests` now nests under `sim::tests`.
#![allow(clippy::module_inception)]

#[cfg(test)]
mod tests {
    use super::super::*;
    use crate::config::{IpsPolicy, LockPolicy};
    use afs_workload::Population;

    fn quick(paradigm: Paradigm, k: usize, rate: f64) -> SystemConfig {
        let mut cfg = SystemConfig::new(paradigm, Population::homogeneous_poisson(k, rate));
        cfg.warmup = SimDuration::from_millis(100);
        cfg.horizon = SimDuration::from_millis(600);
        cfg
    }

    #[test]
    fn low_load_delay_near_service_time() {
        let r = run(&quick(
            Paradigm::Locking {
                policy: LockPolicy::Mru,
            },
            8,
            50.0,
        ));
        assert!(r.stable);
        // At ~1 % utilization, queueing is negligible: delay ≈ service.
        assert!(
            (r.mean_delay_us - r.mean_service_us).abs() < 0.05 * r.mean_service_us,
            "delay {} vs service {}",
            r.mean_delay_us,
            r.mean_service_us
        );
        // Service between warm and cold bounds (plus lock overhead).
        let b = r.mean_service_us;
        assert!((150.0..320.0).contains(&b), "service {b}");
    }

    #[test]
    fn delay_increases_toward_saturation() {
        let lo = run(&quick(
            Paradigm::Locking {
                policy: LockPolicy::Mru,
            },
            8,
            1000.0,
        ));
        let hi = run(&quick(
            Paradigm::Locking {
                policy: LockPolicy::Mru,
            },
            8,
            5000.0,
        ));
        assert!(lo.stable);
        assert!(
            !hi.stable || hi.mean_delay_us > 2.0 * lo.mean_delay_us,
            "lo {} hi {} (stable={})",
            lo.mean_delay_us,
            hi.mean_delay_us,
            hi.stable
        );
    }

    #[test]
    fn overload_detected_unstable() {
        // 8 streams × 8000/s × ≥160 µs ≫ 8 processors.
        let r = run(&quick(
            Paradigm::Locking {
                policy: LockPolicy::Baseline,
            },
            8,
            8000.0,
        ));
        assert!(!r.stable, "overload must be flagged: {r:?}");
    }

    #[test]
    fn determinism_same_seed() {
        let a = run(&quick(
            Paradigm::Ips {
                policy: IpsPolicy::Mru,
                n_stacks: 8,
            },
            8,
            400.0,
        ));
        let b = run(&quick(
            Paradigm::Ips {
                policy: IpsPolicy::Mru,
                n_stacks: 8,
            },
            8,
            400.0,
        ));
        assert_eq!(a.mean_delay_us, b.mean_delay_us);
        assert_eq!(a.delivered, b.delivered);
    }

    #[test]
    fn different_seed_differs() {
        let mut cfg = quick(
            Paradigm::Locking {
                policy: LockPolicy::Mru,
            },
            8,
            400.0,
        );
        let a = run(&cfg);
        cfg.seed ^= 0xDEAD;
        let b = run(&cfg);
        assert_ne!(a.mean_delay_us, b.mean_delay_us);
    }

    #[test]
    fn wired_never_migrates_streams() {
        let r = run(&quick(
            Paradigm::Locking {
                policy: LockPolicy::Wired,
            },
            16,
            600.0,
        ));
        assert_eq!(r.stream_migration_rate, 0.0);
        assert_eq!(r.thread_migration_rate, 0.0);
    }

    #[test]
    fn ips_wired_never_migrates() {
        let r = run(&quick(
            Paradigm::Ips {
                policy: IpsPolicy::Wired,
                n_stacks: 16,
            },
            16,
            600.0,
        ));
        assert_eq!(r.stream_migration_rate, 0.0);
    }

    #[test]
    fn baseline_migrates_heavily_at_low_load() {
        let r = run(&quick(
            Paradigm::Locking {
                policy: LockPolicy::Baseline,
            },
            16,
            200.0,
        ));
        // Random placement over 8 processors: ~7/8 of packets migrate.
        assert!(
            r.stream_migration_rate > 0.7,
            "smig {}",
            r.stream_migration_rate
        );
        assert!(
            r.thread_migration_rate > 0.7,
            "tmig {}",
            r.thread_migration_rate
        );
    }

    #[test]
    fn per_processor_pools_eliminate_thread_migration_cost_vs_baseline() {
        let base = run(&quick(
            Paradigm::Locking {
                policy: LockPolicy::Baseline,
            },
            16,
            300.0,
        ));
        let pools = run(&quick(
            Paradigm::Locking {
                policy: LockPolicy::Pools,
            },
            16,
            300.0,
        ));
        assert_eq!(pools.thread_migration_rate, 0.0);
        assert!(
            pools.mean_delay_us < base.mean_delay_us,
            "pools {} !< base {}",
            pools.mean_delay_us,
            base.mean_delay_us
        );
    }

    #[test]
    fn mru_beats_baseline_at_moderate_load() {
        let base = run(&quick(
            Paradigm::Locking {
                policy: LockPolicy::Baseline,
            },
            16,
            500.0,
        ));
        let mru = run(&quick(
            Paradigm::Locking {
                policy: LockPolicy::Mru,
            },
            16,
            500.0,
        ));
        assert!(
            mru.mean_delay_us < 0.97 * base.mean_delay_us,
            "mru {} !< base {}",
            mru.mean_delay_us,
            base.mean_delay_us
        );
    }

    #[test]
    fn littles_law_holds() {
        let r = run(&quick(
            Paradigm::Locking {
                policy: LockPolicy::Mru,
            },
            8,
            800.0,
        ));
        assert!(r.littles_gap < 0.08, "gap {}", r.littles_gap);
    }

    #[test]
    fn conservation_delivered_close_to_offered_when_stable() {
        let r = run(&quick(
            Paradigm::Ips {
                policy: IpsPolicy::Wired,
                n_stacks: 8,
            },
            8,
            600.0,
        ));
        assert!(r.stable);
        let ratio = r.throughput_pps / r.offered_pps;
        assert!((0.95..=1.05).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn v_overhead_adds_to_service() {
        let mut cfg = quick(
            Paradigm::Locking {
                policy: LockPolicy::Mru,
            },
            8,
            200.0,
        );
        let r0 = run(&cfg);
        cfg.v_fixed_us = 139.0;
        let r139 = run(&cfg);
        let diff = r139.mean_service_us - r0.mean_service_us;
        assert!(
            (diff - 139.0).abs() < 10.0,
            "V=139 should add ≈139 µs: diff {diff}"
        );
    }

    #[test]
    fn copy_overhead_scales_with_size() {
        let mut cfg = quick(
            Paradigm::Locking {
                policy: LockPolicy::Mru,
            },
            8,
            200.0,
        );
        cfg.copy_us_per_byte = 1.0 / 32.0;
        for s in &mut cfg.population.streams {
            s.sizes = afs_workload::SizeDist(afs_desim::Dist::constant(4432.0));
        }
        let r = run(&cfg);
        cfg.copy_us_per_byte = 0.0;
        let r0 = run(&cfg);
        let diff = r.mean_service_us - r0.mean_service_us;
        // 4432 bytes / 32 bytes/µs = 138.5 µs — the paper's worst case.
        assert!((diff - 138.5).abs() < 10.0, "copy diff {diff}");
    }

    #[test]
    fn hybrid_routes_wired_and_unwired() {
        let k = 8;
        let mut wired = vec![false; k];
        wired[0] = true;
        wired[1] = true;
        let r = run(&quick(
            Paradigm::Locking {
                policy: LockPolicy::Hybrid { wired },
            },
            k,
            400.0,
        ));
        assert!(r.stable);
        assert!(r.delivered > 0);
    }

    #[test]
    fn single_processor_single_stream_is_a_queue() {
        let mut cfg = quick(
            Paradigm::Locking {
                policy: LockPolicy::Mru,
            },
            1,
            1000.0,
        );
        cfg.n_procs = 1;
        let r = run(&cfg);
        assert!(r.stable);
        // M/G/1 at ρ ≈ 0.2: delay modestly above service.
        assert!(r.mean_delay_us >= r.mean_service_us);
        assert!(r.mean_delay_us < 3.0 * r.mean_service_us);
    }

    #[test]
    fn ips_respects_stack_serialization() {
        // One stack, 8 processors: throughput capped near 1/service even
        // though processors abound.
        let mut cfg = quick(
            Paradigm::Ips {
                policy: IpsPolicy::Mru,
                n_stacks: 1,
            },
            4,
            2000.0, // aggregate 8000/s > 1/svc ≈ 6000/s
        );
        cfg.horizon = SimDuration::from_millis(800);
        let r = run(&cfg);
        assert!(!r.stable, "one stack cannot carry 8000 pps");
        // Delivered rate respects the single-server bound.
        assert!(
            r.throughput_pps < 7_500.0,
            "throughput {} exceeds one-stack bound",
            r.throughput_pps
        );
    }

    #[test]
    fn per_stream_delays_are_balanced_for_homogeneous_traffic() {
        let r = run(&quick(
            Paradigm::Locking {
                policy: LockPolicy::Mru,
            },
            8,
            500.0,
        ));
        let mean = r.mean_delay_us;
        for (s, d) in r.per_stream_delay_us.iter().enumerate() {
            assert!(
                (d - mean).abs() < 0.25 * mean,
                "stream {s} delay {d} far from mean {mean}"
            );
        }
    }
}

#[cfg(test)]
mod fault_tests {
    use super::super::*;
    use crate::config::{DropPolicy, FaultProfile, LockPolicy};
    use afs_workload::Population;

    fn quick(paradigm: Paradigm, k: usize, rate: f64) -> SystemConfig {
        let mut cfg = SystemConfig::new(paradigm, Population::homogeneous_poisson(k, rate));
        cfg.warmup = SimDuration::from_millis(100);
        cfg.horizon = SimDuration::from_millis(600);
        cfg
    }

    fn mru() -> Paradigm {
        Paradigm::Locking {
            policy: LockPolicy::Mru,
        }
    }

    /// The drop-policy accounting identity every run must satisfy
    /// exactly, warm-up included: everything offered to the system was
    /// either completed, shed (wire drop, queue drop, backpressure), or
    /// still in flight when the horizon closed.
    fn assert_conservation(r: &crate::metrics::RunReport) {
        assert_eq!(
            r.offered_total,
            r.completed_total + r.shed_total + r.in_flight,
            "offered = completed + shed + in-flight violated: \
             offered={} completed={} shed={} in_flight={}",
            r.offered_total,
            r.completed_total,
            r.shed_total,
            r.in_flight
        );
    }

    #[test]
    fn noop_faults_and_unbounded_queues_change_nothing() {
        // Explicitly setting the defaults must reproduce the default
        // run bit-for-bit (the opt-in guarantee).
        let base = run(&quick(mru(), 8, 700.0));
        let mut cfg = quick(mru(), 8, 700.0);
        cfg.faults = FaultProfile::none();
        cfg.queue_bound = usize::MAX;
        cfg.drop_policy = DropPolicy::DropLongestQueue; // irrelevant when unbounded
        let with_knobs = run(&cfg);
        assert_eq!(base, with_knobs);
        assert_eq!(base.drop_rate, 0.0);
        assert_eq!(base.goodput_pps, base.throughput_pps);
        assert_eq!(base.wasted_service_frac, 0.0);
    }

    #[test]
    fn deterministic_replay_same_seed_same_fault_plan() {
        // The fault-injection satellite's replay guarantee: identical
        // (seed, FaultProfile, bounds) ⇒ identical RunReport.
        let make = || {
            let mut cfg = quick(mru(), 8, 700.0);
            cfg.faults = FaultProfile {
                drop_p: 0.05,
                duplicate_p: 0.03,
                corrupt_p: 0.08,
                corrupt_work_frac: 0.5,
            };
            cfg.queue_bound = 64;
            cfg.drop_policy = DropPolicy::TailDrop;
            cfg
        };
        let a = run(&make());
        let b = run(&make());
        assert_eq!(a, b);
        assert!(a.wire_drops > 0, "5% wire loss must show: {a:?}");
        assert!(a.corrupted > 0);
    }

    #[test]
    fn wire_drops_cut_goodput_not_stability() {
        let mut cfg = quick(mru(), 8, 700.0);
        cfg.faults = FaultProfile {
            drop_p: 0.2,
            ..FaultProfile::none()
        };
        let r = run(&cfg);
        assert_conservation(&r);
        let clean = run(&quick(mru(), 8, 700.0));
        assert!(r.stable, "a lossy wire is not instability: {r:?}");
        assert!(
            (0.1..0.3).contains(&r.drop_rate),
            "20% wire loss, got drop_rate {}",
            r.drop_rate
        );
        assert!(r.goodput_pps < 0.9 * clean.goodput_pps);
    }

    #[test]
    fn corrupt_packets_waste_service_without_goodput() {
        let mut cfg = quick(mru(), 8, 700.0);
        cfg.faults = FaultProfile {
            corrupt_p: 0.3,
            corrupt_work_frac: 0.5,
            ..FaultProfile::none()
        };
        let r = run(&cfg);
        assert!(r.corrupted > 0);
        assert!(r.wasted_service_frac > 0.05, "{r:?}");
        assert!(
            r.goodput_pps < r.throughput_pps,
            "corrupt completions count as throughput, not goodput"
        );
        // Corrupt packets never touch stream state, so they must not
        // inflate the stream migration rate's numerator.
        assert!(r.stream_migration_rate <= 1.0);
    }

    #[test]
    fn duplicates_raise_offered_load() {
        let mut cfg = quick(mru(), 8, 400.0);
        cfg.faults = FaultProfile {
            duplicate_p: 0.5,
            ..FaultProfile::none()
        };
        let r = run(&cfg);
        let clean = run(&quick(mru(), 8, 400.0));
        assert!(
            r.offered_pps > 1.3 * clean.offered_pps,
            "50% duplication: {} vs {}",
            r.offered_pps,
            clean.offered_pps
        );
    }

    #[test]
    fn bounded_queues_turn_overload_into_graceful_degradation() {
        // The same offered load that diverges with unbounded queues
        // (see `overload_detected_unstable`) terminates with a finite
        // delay and a nonzero drop rate once queues are bounded.
        let unbounded = run(&quick(
            Paradigm::Locking {
                policy: LockPolicy::Baseline,
            },
            8,
            8000.0,
        ));
        assert!(!unbounded.stable);

        let mut cfg = quick(
            Paradigm::Locking {
                policy: LockPolicy::Baseline,
            },
            8,
            8000.0,
        );
        cfg.queue_bound = 32;
        cfg.drop_policy = DropPolicy::TailDrop;
        let r = run(&cfg);
        assert_conservation(&r);
        assert!(
            r.stable,
            "bounded overload must degrade, not diverge: {r:?}"
        );
        assert!(r.queue_drops > 0);
        assert!(r.drop_rate > 0.2, "heavy overload sheds a lot: {r:?}");
        assert!(
            r.mean_delay_us < unbounded.mean_delay_us,
            "bounded delay {} must be finite and far below the divergent {}",
            r.mean_delay_us,
            unbounded.mean_delay_us
        );
        // With a 32-slot global queue the worst-case wait is bounded by
        // roughly bound × service; leave generous slack.
        assert!(r.max_delay_us < 64.0 * r.mean_service_us, "{r:?}");
    }

    #[test]
    fn backpressure_sheds_at_source() {
        let mut cfg = quick(mru(), 8, 8000.0);
        cfg.queue_bound = 64;
        cfg.drop_policy = DropPolicy::Backpressure;
        let r = run(&cfg);
        assert_conservation(&r);
        assert!(r.stable, "{r:?}");
        assert!(r.shed_at_source > 0);
        assert_eq!(r.queue_drops, 0, "backpressure sheds before the queue");
    }

    #[test]
    fn drop_longest_queue_rebalances_wired_overload() {
        // Wired queues + one bound: drop-longest keeps per-queue backlog
        // near the bound and still delivers on every processor.
        let mut cfg = quick(
            Paradigm::Locking {
                policy: LockPolicy::Wired,
            },
            16,
            4000.0,
        );
        cfg.queue_bound = 16;
        cfg.drop_policy = DropPolicy::DropLongestQueue;
        let r = run(&cfg);
        assert_conservation(&r);
        assert!(r.stable, "{r:?}");
        assert!(r.queue_drops > 0);
        assert!(r.per_proc_served.iter().all(|&c| c > 0));
    }

    #[test]
    fn ips_bounded_queues_also_degrade_gracefully() {
        let mut cfg = quick(
            Paradigm::Ips {
                policy: IpsPolicy::Mru,
                n_stacks: 8,
            },
            8,
            6000.0,
        );
        cfg.queue_bound = 16;
        cfg.drop_policy = DropPolicy::TailDrop;
        let r = run(&cfg);
        assert_conservation(&r);
        assert!(r.stable, "{r:?}");
        assert!(r.queue_drops > 0);
        assert!(r.goodput_pps > 0.0);
    }

    #[test]
    fn degradation_curve_goodput_saturates_with_fault_rate() {
        // Sweep the uniform fault rate: goodput must be non-increasing
        // (modulo noise) as the wire gets more hostile.
        let goodput_at = |p: f64| {
            let mut cfg = quick(mru(), 8, 700.0);
            cfg.faults = FaultProfile {
                drop_p: p,
                corrupt_p: p,
                corrupt_work_frac: 0.5,
                ..FaultProfile::none()
            };
            run(&cfg).goodput_pps
        };
        let g0 = goodput_at(0.0);
        let g2 = goodput_at(0.2);
        let g5 = goodput_at(0.5);
        assert!(g2 < g0, "{g2} !< {g0}");
        assert!(g5 < g2, "{g5} !< {g2}");
    }
}

#[cfg(test)]
mod balance_tests {
    use super::super::*;
    use crate::config::{IpsPolicy, LockPolicy};
    use afs_workload::Population;

    fn quick(paradigm: Paradigm, k: usize, rate: f64) -> SystemConfig {
        let mut cfg = SystemConfig::new(paradigm, Population::homogeneous_poisson(k, rate));
        cfg.warmup = SimDuration::from_millis(50);
        cfg.horizon = SimDuration::from_millis(400);
        cfg
    }

    #[test]
    fn wired_partitions_evenly_for_k_multiple_of_n() {
        // 16 streams on 8 processors, wired: each processor owns exactly
        // 2 streams; served counts should be near-equal.
        let r = run(&quick(
            Paradigm::Locking {
                policy: LockPolicy::Wired,
            },
            16,
            600.0,
        ));
        assert_eq!(r.per_proc_served.len(), 8);
        let max = *r.per_proc_served.iter().max().unwrap() as f64;
        let min = *r.per_proc_served.iter().min().unwrap() as f64;
        assert!(min > 0.0);
        assert!(
            max / min < 1.3,
            "wired should balance: {:?}",
            r.per_proc_served
        );
    }

    #[test]
    fn mru_concentrates_at_low_load() {
        // Global processor-MRU at light load keeps work on few
        // processors: the busiest handles many times the quietest.
        let r = run(&quick(
            Paradigm::Locking {
                policy: LockPolicy::Mru,
            },
            16,
            60.0,
        ));
        let mut sorted = r.per_proc_served.clone();
        sorted.sort_unstable();
        let top2: u64 = sorted.iter().rev().take(2).sum();
        let total: u64 = sorted.iter().sum();
        assert!(
            top2 as f64 > 0.5 * total as f64,
            "MRU should concentrate: {:?}",
            r.per_proc_served
        );
    }

    #[test]
    fn ips_wired_stacks_map_to_their_processors() {
        // 8 stacks on 8 processors, wired: every processor serves only
        // its stack's share.
        let r = run(&quick(
            Paradigm::Ips {
                policy: IpsPolicy::Wired,
                n_stacks: 8,
            },
            16,
            400.0,
        ));
        assert!(r.per_proc_served.iter().all(|&c| c > 0));
    }
}

#[cfg(test)]
mod obs_tests {
    use super::super::*;
    use crate::config::LockPolicy;
    use afs_obs::{MemRecorder, ObsEvent};
    use afs_workload::Population;

    fn quick(policy: LockPolicy, k: usize, rate: f64) -> SystemConfig {
        let mut cfg = SystemConfig::new(
            Paradigm::Locking { policy },
            Population::homogeneous_poisson(k, rate),
        );
        cfg.warmup = SimDuration::from_millis(20);
        cfg.horizon = SimDuration::from_millis(200);
        cfg
    }

    /// The processors that served `stream`, in dispatch order.
    fn processor_history(rec: &MemRecorder, stream: u32) -> Vec<u32> {
        rec.events
            .iter()
            .filter_map(|ev| match *ev {
                ObsEvent::Dispatch {
                    stream: s, worker, ..
                } if s == stream => Some(worker),
                _ => None,
            })
            .collect()
    }

    /// Processor switches in a stream's service history.
    fn migrations_of(rec: &MemRecorder, stream: u32) -> usize {
        processor_history(rec, stream)
            .windows(2)
            .filter(|w| w[0] != w[1])
            .count()
    }

    fn recorded(cfg: &SystemConfig) -> (RunReport, MemRecorder) {
        let mut rec = MemRecorder::new();
        let (report, _) = run_observed(cfg, &mut rec);
        (report, rec)
    }

    #[test]
    fn recorder_is_pure_observation() {
        let cfg = quick(LockPolicy::Mru, 4, 300.0);
        let plain = run(&cfg);
        let mut rec = MemRecorder::new();
        let (observed, probe) = run_observed(&cfg, &mut rec);
        assert_eq!(plain, observed, "attaching a recorder changed the run");
        assert!(probe.steps > 0);
        assert!(rec.counters.dispatched > 0);
    }

    #[test]
    fn trace_records_every_packet() {
        let (report, rec) = recorded(&quick(LockPolicy::Mru, 4, 300.0));
        let (mut dispatches, mut completions) = (0u64, 0u64);
        for ev in &rec.events {
            match ev {
                ObsEvent::Dispatch { .. } => dispatches += 1,
                ObsEvent::Complete { .. } => completions += 1,
                _ => {}
            }
        }
        // Work still in service at the horizon was dispatched but never
        // completed.
        assert!(dispatches >= completions);
        // Completions in the trace cover the whole run (warm-up included),
        // so they are at least the post-warmup delivered count.
        assert!(completions >= report.delivered);
    }

    #[test]
    fn wired_trace_shows_static_assignment() {
        let k = 8;
        let (_, rec) = recorded(&quick(LockPolicy::Wired, k, 400.0));
        for s in 0..k as u32 {
            let history = processor_history(&rec, s);
            assert!(!history.is_empty());
            assert!(
                history.iter().all(|&p| p == s % 8),
                "stream {s} strayed: {history:?}"
            );
            assert_eq!(migrations_of(&rec, s), 0);
        }
    }

    #[test]
    fn baseline_trace_shows_migrations() {
        let (_, rec) = recorded(&quick(LockPolicy::Baseline, 4, 500.0));
        let total_migrations: usize = (0..4).map(|s| migrations_of(&rec, s)).sum();
        assert!(total_migrations > 10, "baseline should bounce streams");
    }

    #[test]
    fn trace_timestamps_nondecreasing() {
        let (_, rec) = recorded(&quick(LockPolicy::Mru, 4, 300.0));
        let times: Vec<f64> = rec.events.iter().map(ObsEvent::t_us).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn obs_counts_are_self_consistent() {
        let mut rec = MemRecorder::new();
        let (report, _) = run_observed(&quick(LockPolicy::Baseline, 6, 400.0), &mut rec);
        let c = &rec.counters;
        // Whole-run conservation as seen by the trace: every enqueued
        // packet completed, was evicted, or is still in flight.
        assert_eq!(c.enqueued, c.completed + c.evicted + c.in_flight() as u64);
        // The trace and the collector agree on the whole-run totals
        // (wire faults are off: everything offered was enqueued).
        assert_eq!(c.enqueued, report.offered_total);
        assert_eq!(c.completed, report.completed_total);
        // Dispatches never outrun enqueues, completions never outrun
        // dispatches.
        assert!(c.dispatched <= c.enqueued);
        assert!(c.completed <= c.dispatched);
        // The simulator never steals.
        assert_eq!(c.steals, 0);
        // Every cache charge is priced: migrations are dispatch flags.
        assert!(c.stream_migrations > 0);
        assert!(rec.events.iter().all(|ev| match *ev {
            ObsEvent::CacheCharge { amount_us, .. } => amount_us > 0.0,
            _ => true,
        }));
        // Delay percentiles exist once packets completed.
        assert!(c.delay_us.count() > 0);
        assert!(c.delay_us.quantile(0.95) >= c.delay_us.quantile(0.5));
    }

    #[test]
    fn trace_mean_delay_matches_report_post_warmup() {
        let cfg = quick(LockPolicy::Mru, 4, 300.0);
        let warm = cfg.warmup.as_micros_f64();
        let mut rec = MemRecorder::new();
        let (report, _) = run_observed(&cfg, &mut rec);
        let mut w = afs_desim::stats::Welford::new();
        for ev in &rec.events {
            if let afs_obs::ObsEvent::Complete {
                t_us,
                delay_us,
                ok: true,
                ..
            } = ev
            {
                if *t_us >= warm {
                    w.add(*delay_us);
                }
            }
        }
        assert_eq!(w.count(), report.delivered);
        assert!(
            (w.mean() - report.mean_delay_us).abs() < 1e-9,
            "trace mean {} vs report {}",
            w.mean(),
            report.mean_delay_us
        );
    }
}

#[cfg(test)]
mod fairness_tests {
    use super::super::*;
    use crate::config::{IpsPolicy, LockPolicy};
    use afs_workload::Population;

    #[test]
    fn ips_rotating_scan_serves_contending_stacks_fairly() {
        // Two stacks wired to the same processor (2 stacks, 1 proc):
        // the rotating scan must not starve either.
        let mut cfg = SystemConfig::new(
            Paradigm::Ips {
                policy: IpsPolicy::Wired,
                n_stacks: 2,
            },
            Population::homogeneous_poisson(2, 1_500.0),
        );
        cfg.n_procs = 1;
        cfg.warmup = SimDuration::from_millis(50);
        cfg.horizon = SimDuration::from_millis(500);
        let r = run(&cfg);
        assert!(r.stable);
        let d0 = r.per_stream_delay_us[0];
        let d1 = r.per_stream_delay_us[1];
        assert!(
            (d0 - d1).abs() < 0.2 * d0.max(d1),
            "stack starvation: {d0:.1} vs {d1:.1}"
        );
    }

    #[test]
    fn hybrid_does_not_starve_pooled_streams() {
        // Wired streams keep their processors busy; the pooled (global
        // queue) streams must still progress through idle gaps.
        let k = 10usize;
        // Streams 0..8 wired (one per processor), 8..10 pooled.
        let wired: Vec<bool> = (0..k).map(|s| s < 8).collect();
        let mut pop = Population::homogeneous_poisson(8, 2_000.0);
        pop.streams
            .extend(Population::homogeneous_poisson(2, 500.0).streams);
        let mut cfg = SystemConfig::new(
            Paradigm::Locking {
                policy: LockPolicy::Hybrid { wired },
            },
            pop,
        );
        cfg.warmup = SimDuration::from_millis(60);
        cfg.horizon = SimDuration::from_millis(500);
        let r = run(&cfg);
        assert!(r.stable, "hybrid mix should be stable");
        // The pooled streams completed packets at a sane delay.
        for s in 8..10 {
            let d = r.per_stream_delay_us[s];
            assert!(d > 0.0, "pooled stream {s} starved");
            assert!(
                d < 5.0 * r.mean_service_us,
                "pooled stream {s} delay {d:.0} indicates starvation"
            );
        }
    }
}

/// Processor-fault injection at packet boundaries: crashes orphan and
/// requeue queued work through the policy's own routing, stalls delay
/// starts, in-flight packets complete on time, and slowdowns scale
/// service — all without perturbing a clean run.
mod procfault_tests {
    use super::super::*;
    use crate::config::LockPolicy;
    use crate::procfault::{FaultLoad, ProcFault, ProcFaultKind, ProcFaultPlan};
    use afs_obs::MemRecorder;
    use afs_workload::Population;

    fn quick(policy: LockPolicy, k: usize, rate: f64) -> SystemConfig {
        let mut cfg = SystemConfig::new(
            Paradigm::Locking { policy },
            Population::homogeneous_poisson(k, rate),
        );
        cfg.warmup = SimDuration::from_millis(100);
        cfg.horizon = SimDuration::from_millis(600);
        cfg
    }

    fn assert_conservation(r: &crate::metrics::RunReport) {
        assert_eq!(
            r.offered_total,
            r.completed_total + r.shed_total + r.in_flight,
            "offered = completed + shed + in-flight violated: {r:?}"
        );
        assert_eq!(r.orphaned, r.requeued, "orphan/requeue imbalance: {r:?}");
    }

    #[test]
    fn empty_plan_changes_nothing() {
        let base = run(&quick(LockPolicy::Mru, 8, 700.0));
        let mut cfg = quick(LockPolicy::Mru, 8, 700.0);
        cfg.proc_faults = ProcFaultPlan::none();
        let with_plan = run(&cfg);
        assert_eq!(base, with_plan);
        assert_eq!(base.proc_crashes, 0);
        assert_eq!(base.orphaned, 0);
        assert_eq!(base.requeued, 0);
    }

    #[test]
    fn crash_orphans_and_requeues_wired_backlog() {
        // Wired + overload: processor 1's queue is certainly non-empty
        // at the crash instant, so the crash must orphan backlog and
        // re-route every packet through the policy's live-masked route.
        let mut cfg = quick(LockPolicy::Wired, 8, 6000.0);
        cfg.proc_faults = ProcFaultPlan {
            faults: vec![ProcFault {
                proc: 1,
                at_us: 300_000.0,
                kind: ProcFaultKind::Crash { revive_at_us: None },
            }],
        };
        let r = run(&cfg);
        assert_conservation(&r);
        assert_eq!(r.proc_crashes, 1);
        assert!(r.orphaned > 0, "overloaded wired queue must orphan: {r:?}");
        // The dead processor served only the first half of the run.
        assert!(
            r.per_proc_served[1] < r.per_proc_served[2],
            "crashed proc kept serving: {:?}",
            r.per_proc_served
        );
    }

    #[test]
    fn crash_revive_restores_capacity() {
        let make = |revive: Option<f64>| {
            let mut cfg = quick(LockPolicy::Mru, 4, 4000.0);
            cfg.n_procs = 2;
            cfg.proc_faults = ProcFaultPlan {
                faults: vec![ProcFault {
                    proc: 1,
                    at_us: 250_000.0,
                    kind: ProcFaultKind::Crash {
                        revive_at_us: revive,
                    },
                }],
            };
            run(&cfg)
        };
        let dead = make(None);
        let revived = make(Some(320_000.0));
        assert_conservation(&dead);
        assert_conservation(&revived);
        assert!(
            revived.delivered > dead.delivered,
            "revive must restore capacity: dead {} revived {}",
            dead.delivered,
            revived.delivered
        );
        // The revived processor comes back cold but keeps serving.
        assert!(revived.per_proc_served[1] > dead.per_proc_served[1]);
    }

    #[test]
    fn stalls_delay_starts_only() {
        use afs_obs::ObsEvent;
        use std::collections::HashMap;
        let base = run(&quick(LockPolicy::Mru, 16, 800.0));
        let mut cfg = quick(LockPolicy::Mru, 16, 800.0);
        // A staggered window on every processor.
        let window = |p: u32| {
            let start = 250_000.0 + 10_000.0 * p as f64;
            start..start + 50_000.0
        };
        cfg.proc_faults = ProcFaultPlan {
            faults: (0..8)
                .map(|p| ProcFault {
                    proc: p,
                    at_us: window(p as u32).start,
                    kind: ProcFaultKind::Stall {
                        duration_us: 50_000.0,
                    },
                })
                .collect(),
        };
        let mut rec = MemRecorder::new();
        let (r, _) = run_observed(&cfg, &mut rec);
        assert_conservation(&r);
        assert_eq!(r.proc_stalls, 8);
        assert_eq!(r.orphaned, 0, "stalls never orphan");
        assert_eq!(r.offered_total, base.offered_total, "arrivals unperturbed");
        // Nothing starts on a stalled processor, and whatever was in
        // service when its stall began completes on time.
        let mut done_at = HashMap::new();
        let mut finished_inside = 0;
        for ev in &rec.events {
            match *ev {
                ObsEvent::Dispatch {
                    t_us,
                    seq,
                    worker,
                    service_us,
                    ..
                } => {
                    assert!(
                        !window(worker).contains(&t_us),
                        "seq {seq} started on stalled processor {worker} at {t_us}"
                    );
                    done_at.insert(seq, (worker, t_us + service_us));
                }
                ObsEvent::Complete {
                    t_us, seq, worker, ..
                } => {
                    let (w, due) = done_at.remove(&seq).expect("dispatched first");
                    assert_eq!(w, worker);
                    assert!((t_us - due).abs() < 1e-3, "seq {seq} due {due} done {t_us}");
                    finished_inside += usize::from(window(worker).contains(&t_us));
                }
                _ => {}
            }
        }
        assert!(finished_inside > 0, "no packet was in service at a stall");
    }

    #[test]
    fn slowdown_scales_service() {
        let base = run(&quick(LockPolicy::Mru, 2, 300.0));
        let mut cfg = quick(LockPolicy::Mru, 2, 300.0);
        cfg.proc_faults = ProcFaultPlan {
            faults: (0..8)
                .map(|p| ProcFault {
                    proc: p,
                    at_us: 0.0,
                    kind: ProcFaultKind::Slowdown { factor: 2.0 },
                })
                .collect(),
        };
        let r = run(&cfg);
        assert_conservation(&r);
        let ratio = r.mean_service_us / base.mean_service_us;
        assert!(
            (1.8..2.2).contains(&ratio),
            "uniform 2x slowdown must double mean service: ratio {ratio}"
        );
    }

    #[test]
    fn seeded_plan_replays_identically_and_differs_by_seed() {
        let window = (150_000.0, 550_000.0);
        let plan = |seed: u64| ProcFaultPlan::seeded(seed, 8, window, &FaultLoad::heavy());
        assert_eq!(plan(7), plan(7));
        assert_ne!(plan(7), plan(8));
        let mut cfg = quick(LockPolicy::Mru, 8, 2000.0);
        cfg.proc_faults = plan(7);
        cfg.proc_faults.validate(8).expect("seeded plan valid");
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a, b, "fault-plan replay diverged");
        assert_conservation(&a);
        assert!(a.proc_crashes > 0 && a.proc_stalls > 0);
    }

    #[test]
    fn obs_trace_conserves_and_never_double_completes_under_faults() {
        use std::collections::HashMap;
        for policy in [
            LockPolicy::Baseline,
            LockPolicy::Wired,
            LockPolicy::MruLoad { max_backlog: 2 },
            LockPolicy::MinReload,
        ] {
            let mut cfg = quick(policy.clone(), 8, 3000.0);
            cfg.proc_faults =
                ProcFaultPlan::seeded(42, 8, (150_000.0, 550_000.0), &FaultLoad::heavy());
            let mut rec = MemRecorder::new();
            let (r, _) = run_observed(&cfg, &mut rec);
            assert_conservation(&r);
            let c = &rec.counters;
            assert_eq!(
                c.enqueued as i64,
                c.completed as i64 + c.evicted as i64 + c.in_flight(),
                "obs conservation violated under faults ({policy:?})"
            );
            assert_eq!(c.orphaned, c.requeued, "obs orphan/requeue imbalance");
            assert!(c.worker_downs >= c.worker_ups, "more ups than downs");
            let mut completions: HashMap<u64, u32> = HashMap::new();
            for ev in &rec.events {
                if let afs_obs::ObsEvent::Complete { seq, .. } = ev {
                    *completions.entry(*seq).or_insert(0) += 1;
                }
            }
            for (seq, n) in completions {
                assert_eq!(n, 1, "seq {seq} completed {n} times ({policy:?})");
            }
        }
    }

    #[test]
    fn an_ips_crash_orphans_nothing() {
        let mut cfg = SystemConfig::new(
            Paradigm::Ips {
                policy: IpsPolicy::Mru,
                n_stacks: 4,
            },
            Population::homogeneous_poisson(4, 3000.0),
        );
        cfg.warmup = SimDuration::from_millis(100);
        cfg.horizon = SimDuration::from_millis(600);
        cfg.n_procs = 2;
        cfg.proc_faults = ProcFaultPlan {
            faults: vec![ProcFault {
                proc: 1,
                at_us: 300_000.0,
                kind: ProcFaultKind::Crash { revive_at_us: None },
            }],
        };
        let r = run(&cfg);
        assert_conservation(&r);
        assert_eq!(r.proc_crashes, 1);
        // IPS keeps its backlog on stack queues and the in-flight packet
        // completes, so a crash leaves nothing to re-route.
        assert_eq!((r.orphaned, r.requeued), (0, 0));
        assert!(r.per_proc_served[0] > r.per_proc_served[1]);
    }

    /// A crash lands mid-service: the packet completes on time on the
    /// crashed processor, and then no footprint survives there, even
    /// when a revive came before that completion.
    #[test]
    fn a_crash_mid_service_forgets_the_cache_after_the_completion() {
        use crate::state::{FootprintTable, ProcActivity};
        use afs_cache::model::exec_time::Age;
        use afs_obs::ObsEvent;
        let clean = quick(LockPolicy::Mru, 4, 2000.0);
        let mut rec = MemRecorder::new();
        run_observed(&clean, &mut rec);
        let (seq, stream, start, service) = rec
            .events
            .iter()
            .find_map(|ev| match *ev {
                ObsEvent::Dispatch {
                    t_us,
                    seq,
                    stream,
                    worker: 0,
                    service_us,
                    ..
                } if t_us > 200_000.0 => Some((seq, stream, t_us, service_us)),
                _ => None,
            })
            .expect("processor 0 serves past 200 ms");
        let crash = start + service / 2.0;
        for revive in [None, Some(crash + service / 4.0)] {
            let mut cfg = clean.clone();
            cfg.proc_faults = ProcFaultPlan {
                faults: vec![ProcFault {
                    proc: 0,
                    at_us: crash,
                    kind: ProcFaultKind::Crash {
                        revive_at_us: revive,
                    },
                }],
            };
            let mut sim = SchedSim::new(&cfg);
            sim.prime();
            sim.run_to(SimTime::from_micros_f64(revive.unwrap_or(crash)));
            // The crash left the packet and its warm state in place.
            let ProcActivity::Protocol(f) = sim.procs.activity(0) else {
                panic!("processor 0 is serving seq {seq}");
            };
            assert_eq!(f.packet.seq, seq);
            assert_ne!(sim.procs.code_age(0, sim.now), Age::Cold);
            let served = sim.procs.served()[0];
            sim.run_to(f.done_at);
            assert_eq!(sim.procs.served()[0], served + 1, "revive {revive:?}");
            assert_eq!(
                sim.procs.code_age(0, sim.now),
                Age::Cold,
                "revive {revive:?}"
            );
            assert_eq!(sim.streams.last_proc(stream as usize), None);
            assert!((0..sim.threads.len()).all(|i| sim.threads.last_proc(i) != Some(0)));
        }
    }
}

#[cfg(test)]
mod frontend_tests {
    use super::super::*;
    use crate::config::LockPolicy;
    use afs_obs::{MemRecorder, SequenceChecker};
    use afs_sched::FrontEndKind::FlowDirector;
    use afs_sched::{FrontEndKind, FrontEndPlan, Router};
    use afs_workload::Population;

    /// A front-ended configuration: `streams` Zipf(α)-weighted flows at
    /// an aggregate rate, steered by `kind` over a `table` slot NIC
    /// table with a random-worker miss fallback, into a `cache`-slot
    /// hashed host stream table.
    fn frontend_cfg(
        kind: FrontEndKind,
        streams: usize,
        table: usize,
        cache: usize,
        bursty: bool,
    ) -> SystemConfig {
        let pop = if bursty {
            Population::zipf_bursty(streams, 18_000.0, 1.1, 8.0)
        } else {
            Population::zipf(streams, 18_000.0, 1.1)
        };
        let mut cfg = SystemConfig::new(
            Paradigm::Locking {
                policy: LockPolicy::Baseline,
            },
            pop,
        );
        cfg.warmup = SimDuration::from_millis(50);
        cfg.horizon = SimDuration::from_millis(400);
        cfg.frontend = Some(FrontEndPlan::new(kind, table, Router::RandomWorker));
        cfg.stream_cache = Some(cache);
        cfg
    }

    fn assert_conservation(r: &crate::metrics::RunReport) {
        assert_eq!(
            r.offered_total,
            r.completed_total + r.shed_total + r.in_flight,
            "conservation violated: {r:?}"
        );
    }

    #[test]
    fn rss_is_structurally_in_order() {
        // Hash steering never splits a live flow across queues, and the
        // per-worker FIFOs are served in order: zero reordering, zero
        // table traffic, by construction.
        let r = run(&frontend_cfg(FrontEndKind::Rss, 512, 64, 256, true));
        assert_conservation(&r);
        assert!(r.completed_total > 0);
        assert_eq!(r.ooo_deliveries, 0, "RSS must never reorder: {r:?}");
        assert_eq!(r.table_misses, 0);
        assert_eq!(r.rebinds, 0);
    }

    #[test]
    fn transport_friendly_is_sticky_and_in_order() {
        let r = run(&frontend_cfg(
            FrontEndKind::TransportFriendly,
            512,
            64,
            256,
            true,
        ));
        assert_conservation(&r);
        assert_eq!(r.ooo_deliveries, 0, "sticky routing must not reorder");
        assert_eq!(r.rebinds, 0, "a pinned flow never moves");
        // Every distinct flow pays exactly one first-placement "miss".
        assert!(r.table_misses >= 1 && r.table_misses <= 512);
    }

    #[test]
    fn flow_director_reorders_under_bursty_arrivals() {
        // A learning table far smaller than the flow population churns;
        // evicted flows re-route through the random fallback while
        // packets from the old binding still queue — the Wu et al.
        // migration/reordering pathology.
        let r = run(&frontend_cfg(FlowDirector, 2048, 32, 256, true));
        assert_conservation(&r);
        assert!(r.table_misses > 0, "tiny table must churn: {r:?}");
        assert!(r.rebinds > 0, "churn must rebind flows: {r:?}");
        assert!(
            r.ooo_deliveries > 0,
            "Flow-Director churn must reorder under bursty load: {r:?}"
        );
    }

    #[test]
    fn online_ooo_matches_offline_checker_and_obs_counters() {
        // The report's counters are pure functions of the obs trace:
        // the offline SequenceChecker over the emitted events must land
        // on exactly the online out-of-order count, and the recorder's
        // steering counters on exactly the front-end's totals.
        let cfg = frontend_cfg(FlowDirector, 1024, 32, 128, true);
        let mut rec = MemRecorder::new();
        let (report, _) = run_observed(&cfg, &mut rec);
        assert_conservation(&report);
        let seq = SequenceChecker::check(&rec.events);
        assert_eq!(seq.ooo_deliveries, report.ooo_deliveries);
        assert_eq!(seq.completions, report.completed_total);
        assert_eq!(rec.counters.table_misses, report.table_misses);
        assert_eq!(rec.counters.rebinds, report.rebinds);
    }

    #[test]
    fn frontend_recorder_is_pure_observation() {
        let cfg = frontend_cfg(FlowDirector, 1024, 32, 128, true);
        let plain = run(&cfg);
        let mut rec = MemRecorder::new();
        let (observed, _) = run_observed(&cfg, &mut rec);
        assert_eq!(plain, observed, "recorder perturbed a front-end run");
    }

    #[test]
    fn stream_cache_eviction_prices_cold_reloads() {
        // Shrinking the host stream table below the hot set forces
        // evicted flows to pay full cold stream-footprint reloads: mean
        // service must rise, everything else held fixed.
        let mut roomy = frontend_cfg(FrontEndKind::Rss, 512, 64, 512, false);
        let mut tiny = frontend_cfg(FrontEndKind::Rss, 512, 64, 8, false);
        roomy.seed = 0xCAFE;
        tiny.seed = 0xCAFE;
        let r_roomy = run(&roomy);
        let r_tiny = run(&tiny);
        assert_conservation(&r_roomy);
        assert_conservation(&r_tiny);
        assert!(
            r_tiny.mean_service_us > r_roomy.mean_service_us,
            "8-slot cache {} µs must out-price 512-slot {} µs",
            r_tiny.mean_service_us,
            r_roomy.mean_service_us
        );
    }

    #[test]
    fn frontend_taildrop_sheds_after_routing_exactly_once() {
        // The NIC steers every offered packet — also the ones the bound
        // then sheds — and exactly once: one learning-table lookup per
        // offer, so hits + misses balance the offered count.
        let mut cfg = frontend_cfg(FlowDirector, 512, 32, 256, true);
        cfg.queue_bound = 4;
        cfg.drop_policy = crate::config::DropPolicy::TailDrop;
        let mut sim = SchedSim::new(&cfg);
        sim.prime();
        sim.run_to(SimTime::ZERO + cfg.horizon);
        let report = sim.collector.report(sim.now, cfg.n_procs);
        assert_conservation(&report);
        assert!(report.queue_drops > 0, "the bound must bite: {report:?}");
        assert_eq!(report.shed_at_source, 0);
        let fes = sim.frontend.as_ref().expect("front-end on");
        assert_eq!(fes.table_hits() + fes.table_misses(), report.offered_total);
    }

    #[test]
    fn frontend_survives_a_crash() {
        // A mid-run crash orphans the dead worker's backlog; the NIC
        // re-steers every orphan over the degraded view and the run
        // still conserves packets.
        let mut cfg = frontend_cfg(FlowDirector, 512, 32, 256, true);
        cfg.proc_faults = crate::procfault::ProcFaultPlan {
            faults: vec![crate::procfault::ProcFault {
                proc: 3,
                at_us: 150_000.0,
                kind: crate::procfault::ProcFaultKind::Crash { revive_at_us: None },
            }],
        };
        let r = run(&cfg);
        assert_conservation(&r);
        assert_eq!(r.proc_crashes, 1);
        assert!(r.per_proc_served[3] < *r.per_proc_served.iter().max().unwrap());
    }
}

#[cfg(test)]
mod loop_tests {
    use super::super::*;
    use crate::config::LockPolicy;
    use crate::procfault::{ProcFault, ProcFaultPlan};
    use afs_workload::Population;

    fn cfg() -> SystemConfig {
        let mut cfg = SystemConfig::new(
            Paradigm::Locking {
                policy: LockPolicy::Mru,
            },
            Population::homogeneous_poisson(4, 1000.0),
        );
        cfg.warmup = SimDuration::from_millis(10);
        cfg.horizon = SimDuration::from_millis(50);
        cfg
    }

    #[test]
    fn an_event_fits_two_words() {
        // With its u128 key, a pending event's heap entry is 32 bytes.
        assert!(std::mem::size_of::<Event>() <= 16);
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn scheduling_before_the_clock_panics() {
        let cfg = cfg();
        let mut sim = SchedSim::new(&cfg);
        sim.prime();
        sim.run_to(SimTime::from_micros(20_000));
        // A horizon already passed never runs the clock back...
        sim.run_to(SimTime::from_micros(10_000));
        assert_eq!(sim.now, SimTime::from_micros(20_000));
        // ...and nothing may be scheduled before it.
        sim.schedule_at(SimTime::from_micros(15_000), Event::Arrival { stream: 0 });
    }

    #[test]
    fn an_event_stamped_at_the_horizon_is_delivered() {
        let cfg = cfg();
        let mut sim = SchedSim::new(&cfg);
        let horizon = SimTime::from_micros(1_000);
        sim.schedule_at(horizon, Event::Arrival { stream: 0 });
        sim.schedule_at(
            SimTime::from_ticks(horizon.ticks() + 1),
            Event::Arrival { stream: 1 },
        );
        sim.run_to(horizon);
        assert_eq!(
            sim.next_seq, 1,
            "only the arrival at the horizon is admitted"
        );
        assert_eq!(sim.now, horizon);
    }

    #[test]
    fn the_clock_ends_at_the_horizon_unless_the_queue_drains() {
        // Events still pending: the clock, and with it the report's
        // measurement window, ends at the horizon.
        let cfg = cfg();
        let horizon = SimTime::ZERO + cfg.horizon;
        let mut sim = SchedSim::new(&cfg);
        sim.prime();
        sim.run_to(horizon);
        assert_eq!(sim.now, horizon);
        let report = sim.collector.report(sim.now, cfg.n_procs);
        let window = horizon.since(SimTime::ZERO + cfg.warmup).as_secs_f64();
        assert!(report.arrivals > 0);
        assert_eq!(report.offered_pps, report.arrivals as f64 / window);

        // A queue that drains leaves the clock at its last event, and
        // the probe has sampled each delivered event.
        let mut cfg = cfg;
        cfg.proc_faults = ProcFaultPlan {
            faults: vec![ProcFault {
                proc: 0,
                at_us: 5_000.0,
                kind: ProcFaultKind::Slowdown { factor: 1.0 },
            }],
        };
        let mut sim = SchedSim::new(&cfg);
        sim.probe = Some(EngineProbe::new());
        sim.schedule_at(SimTime::from_micros(5_000), Event::ProcFault { idx: 0 });
        sim.run_to(horizon);
        assert_eq!(sim.now, SimTime::from_micros(5_000));
        let probe = sim.probe.expect("probe attached");
        assert_eq!((probe.steps, probe.max_pending), (1, 0));
        assert_eq!(probe.last_t_us, 5_000.0);
    }
}
