//! Run-level metrics: delay, throughput, utilization, migration and
//! cache-state telemetry, with stability detection.

use afs_desim::stats::{littles_law_gap, BatchMeans, Histogram, TimeWeighted, Welford};
use afs_desim::time::{SimDuration, SimTime};

/// A running mean, updated as [`Welford::add`] updates its mean, so the
/// two agree bit for bit: a per-flow slot of 16 bytes, not 40.
#[derive(Debug, Clone, Copy, Default)]
struct StreamMean {
    n: u64,
    mean: f64,
}

impl StreamMean {
    fn add(&mut self, x: f64) {
        self.n += 1;
        self.mean += (x - self.mean) / self.n as f64;
    }
}

/// Collected during a run (post-warmup unless noted).
#[derive(Debug)]
pub struct Collector {
    warmup: SimTime,
    /// Packet delays (µs), post-warmup.
    pub delay: Welford,
    /// Batch-means accumulator over the same delays (streamed: at most 32
    /// batch sums, however long the run).
    pub delay_batches: BatchMeans,
    /// Delay histogram (bin 25 µs, 4000 bins → 100 ms span).
    pub delay_hist: Histogram,
    /// Service times (µs).
    pub service: Welford,
    /// F1 at dispatch (code/global component only when elapsed).
    pub f1_at_dispatch: Welford,
    /// F2 at dispatch.
    pub f2_at_dispatch: Welford,
    /// Per-stream delay means (the report reads nothing else).
    per_stream_delay: Vec<StreamMean>,
    /// Packets whose stream state migrated between processors.
    pub stream_migrations: u64,
    /// Packets whose thread stack migrated.
    pub thread_migrations: u64,
    /// Packets delivered post-warmup.
    pub delivered: u64,
    /// Packets that arrived post-warmup.
    pub arrivals: u64,
    /// Time-weighted backlog (queued + in service), whole run.
    pub backlog: TimeWeighted,
    /// Backlog average over the first post-warmup half (for the growth
    /// check), captured at the midpoint.
    pub backlog_first_half: Option<f64>,
    /// Total protocol busy µs across processors (post-warmup, approx.).
    pub proto_busy_us: f64,
    /// Packets lost on the wire before reaching any queue (post-warmup).
    pub wire_drops: u64,
    /// Packets shed by a full bounded queue (post-warmup).
    pub queue_drops: u64,
    /// Packets shed at the source by backpressure (post-warmup).
    pub shed_at_source: u64,
    /// Corrupted packets that completed their (partial) service without
    /// producing goodput (post-warmup).
    pub corrupt_completions: u64,
    /// Processor crash events taken from the fault plan (post-warmup).
    pub proc_crashes: u64,
    /// Processor stall windows entered (post-warmup).
    pub proc_stalls: u64,
    /// Packets orphaned by a processor crash — queued on the dead
    /// worker at crash time (post-warmup).
    pub orphaned: u64,
    /// Orphaned packets re-routed to a live queue. Conservation requires
    /// `requeued == orphaned`: the crash handler requeues every orphan
    /// synchronously, so neither `live_backlog` nor the offered /
    /// completed / shed identity ever observes an intermediate state.
    pub requeued: u64,
    /// Service µs consumed by corrupted packets (post-warmup).
    pub wasted_service_us: f64,
    /// Packets offered over the *whole* run (warm-up included): every
    /// arrival the wire produced, whether it was enqueued or shed.
    pub offered_total: u64,
    /// Packets that finished service over the whole run (useful or
    /// corrupt).
    pub completed_total: u64,
    /// Packets shed over the whole run (wire drops + queue drops +
    /// source sheds + evictions).
    pub shed_total: u64,
    /// Packets currently enqueued or in service. Unlike the time-weighted
    /// [`Collector::backlog`], this is an exact integer population count,
    /// which is what makes the conservation identity
    /// `offered_total == completed_total + shed_total + in_flight` hold
    /// exactly at any instant.
    pub live_backlog: u64,
}

impl Collector {
    /// New collector for a run with the given warmup and stream count.
    pub fn new(warmup: SimTime, n_streams: usize) -> Self {
        Collector {
            warmup,
            delay: Welford::new(),
            delay_batches: BatchMeans::new(16),
            delay_hist: Histogram::new(25.0, 4000),
            service: Welford::new(),
            f1_at_dispatch: Welford::new(),
            f2_at_dispatch: Welford::new(),
            per_stream_delay: vec![StreamMean::default(); n_streams],
            stream_migrations: 0,
            thread_migrations: 0,
            delivered: 0,
            arrivals: 0,
            backlog: TimeWeighted::new(SimTime::ZERO, 0.0),
            backlog_first_half: None,
            proto_busy_us: 0.0,
            wire_drops: 0,
            queue_drops: 0,
            shed_at_source: 0,
            corrupt_completions: 0,
            proc_crashes: 0,
            proc_stalls: 0,
            orphaned: 0,
            requeued: 0,
            wasted_service_us: 0.0,
            offered_total: 0,
            completed_total: 0,
            shed_total: 0,
            live_backlog: 0,
        }
    }

    /// Should events at `now` be recorded?
    pub fn recording(&self, now: SimTime) -> bool {
        now >= self.warmup
    }

    /// Record an arrival (always update backlog; count post-warmup).
    pub fn on_arrival(&mut self, now: SimTime) {
        self.backlog.add(now, 1.0);
        self.offered_total += 1;
        self.live_backlog += 1;
        if self.recording(now) {
            self.arrivals += 1;
        }
    }

    /// Record a packet that was offered but never entered a queue (wire
    /// drop, queue overflow, or source shed): it counts toward the
    /// offered load but not the backlog.
    pub fn on_offered_only(&mut self, now: SimTime) {
        self.offered_total += 1;
        self.shed_total += 1;
        if self.recording(now) {
            self.arrivals += 1;
        }
    }

    /// Record the eviction of an already-queued packet (drop-longest
    /// policy): the backlog shrinks without a completion.
    pub fn on_evicted(&mut self, now: SimTime) {
        self.backlog.add(now, -1.0);
        self.shed_total += 1;
        self.live_backlog = self.live_backlog.saturating_sub(1);
        if self.recording(now) {
            self.queue_drops += 1;
        }
    }

    /// Record a corrupted packet finishing its partial service: the
    /// processor time is spent (and counted in utilization) but nothing
    /// is delivered.
    pub fn on_corrupt_completion(&mut self, now: SimTime, service: SimDuration) {
        self.backlog.add(now, -1.0);
        self.completed_total += 1;
        self.live_backlog = self.live_backlog.saturating_sub(1);
        if !self.recording(now) {
            return;
        }
        self.corrupt_completions += 1;
        let us = service.as_micros_f64();
        self.wasted_service_us += us;
        self.proto_busy_us += us;
    }

    /// Record a completed packet.
    pub fn on_completion(
        &mut self,
        now: SimTime,
        arrival: SimTime,
        stream: u32,
        service: SimDuration,
    ) {
        self.backlog.add(now, -1.0);
        self.completed_total += 1;
        self.live_backlog = self.live_backlog.saturating_sub(1);
        if !self.recording(now) {
            return;
        }
        let d = now.since(arrival).as_micros_f64();
        self.delay.add(d);
        self.delay_batches.add(d);
        self.delay_hist.add(d);
        self.service.add(service.as_micros_f64());
        if let Some(m) = self.per_stream_delay.get_mut(stream as usize) {
            m.add(d);
        }
        self.delivered += 1;
        self.proto_busy_us += service.as_micros_f64();
    }

    /// Final report for a run ending at `end`.
    pub fn report(&mut self, end: SimTime, n_procs: usize) -> RunReport {
        let measured = end.since(self.warmup.min(end)).as_secs_f64();
        // Throughput counts all packets that consumed a full or partial
        // service slot; goodput (below) counts only useful deliveries.
        let throughput = if measured > 0.0 {
            (self.delivered + self.corrupt_completions) as f64 / measured
        } else {
            0.0
        };
        let offered = if measured > 0.0 {
            self.arrivals as f64 / measured
        } else {
            0.0
        };
        let backlog_avg = self.backlog.average(end);
        let first_half = self.backlog_first_half.unwrap_or(backlog_avg);
        // Linear queue growth ⇒ the second half's average is well above
        // the first half's; allow noise slack.
        let second_half = 2.0 * backlog_avg - first_half;
        let growing = second_half > 2.0 * first_half + 0.05 * self.delivered.max(20) as f64 / 20.0
            && second_half - first_half > 2.0;
        // Every offered packet must be accounted for — delivered,
        // rejected as corrupt after service, or deliberately shed. A
        // system that sheds under overload but keeps pace is degrading
        // gracefully, not diverging.
        let shed = self.wire_drops + self.queue_drops + self.shed_at_source;
        let accounted = self.delivered + self.corrupt_completions + shed;
        let completion_ratio = if self.arrivals == 0 {
            1.0
        } else {
            accounted as f64 / self.arrivals as f64
        };
        let goodput = if measured > 0.0 {
            self.delivered as f64 / measured
        } else {
            0.0
        };
        let drop_rate = if self.arrivals == 0 {
            0.0
        } else {
            shed as f64 / self.arrivals as f64
        };
        let busy = self.proto_busy_us;
        let ci = self.delay_batches.interval();
        RunReport {
            mean_delay_us: self.delay.mean(),
            delay_ci_half_us: ci.map(|c| c.half_width).unwrap_or(f64::INFINITY),
            p95_delay_us: self.delay_hist.quantile(0.95),
            max_delay_us: self.delay.max(),
            mean_service_us: self.service.mean(),
            throughput_pps: throughput,
            offered_pps: offered,
            delivered: self.delivered,
            arrivals: self.arrivals,
            utilization: self.proto_busy_us / 1e6 / (measured.max(1e-12) * n_procs as f64),
            mean_f1: self.f1_at_dispatch.mean(),
            mean_f2: self.f2_at_dispatch.mean(),
            stream_migration_rate: self.stream_migrations as f64 / self.delivered.max(1) as f64,
            thread_migration_rate: self.thread_migrations as f64 / self.delivered.max(1) as f64,
            per_stream_delay_us: self.per_stream_delay.iter().map(|m| m.mean).collect(),
            per_proc_served: Vec::new(), // filled by the simulator

            littles_gap: littles_law_gap(backlog_avg, throughput, self.delay.mean() / 1e6),
            stable: !growing && completion_ratio > 0.9,
            goodput_pps: goodput,
            drop_rate,
            wire_drops: self.wire_drops,
            queue_drops: self.queue_drops,
            shed_at_source: self.shed_at_source,
            corrupted: self.corrupt_completions,
            proc_crashes: self.proc_crashes,
            proc_stalls: self.proc_stalls,
            orphaned: self.orphaned,
            requeued: self.requeued,
            wasted_service_frac: if busy > 0.0 {
                self.wasted_service_us / busy
            } else {
                0.0
            },
            offered_total: self.offered_total,
            completed_total: self.completed_total,
            shed_total: self.shed_total,
            in_flight: self.live_backlog,
            // Owned by the simulator (and the native runtime), not the
            // collector — filled in after the report is built, like
            // `per_proc_served`.
            ooo_deliveries: 0,
            table_misses: 0,
            rebinds: 0,
        }
    }
}

/// The summary a run returns.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Mean packet delay (queueing + service), µs.
    pub mean_delay_us: f64,
    /// Half-width of the 95 % batch-means CI on the mean delay: the
    /// Student-t interval over 16–31 closed batches of one power-of-two
    /// size, streamed by [`BatchMeans`] (the delays after the last closed
    /// batch are left out); infinite below 16 post-warm-up delays.
    pub delay_ci_half_us: f64,
    /// 95th-percentile delay (None if it fell past the histogram).
    pub p95_delay_us: Option<f64>,
    /// Largest observed delay.
    pub max_delay_us: f64,
    /// Mean service time, µs.
    pub mean_service_us: f64,
    /// Delivered packets per second (post-warmup).
    pub throughput_pps: f64,
    /// Arrived packets per second (post-warmup).
    pub offered_pps: f64,
    /// Packets delivered post-warmup.
    pub delivered: u64,
    /// Packets that arrived post-warmup. `delivered` may exceed this by
    /// the backlog standing at the warm-up boundary (those packets
    /// arrived before the measurement window but completed inside it).
    pub arrivals: u64,
    /// Fraction of processor-time spent in protocol code.
    pub utilization: f64,
    /// Mean L1 displacement of the code/global component at dispatch.
    pub mean_f1: f64,
    /// Mean L2 displacement at dispatch.
    pub mean_f2: f64,
    /// Fraction of packets whose stream state migrated.
    pub stream_migration_rate: f64,
    /// Fraction of packets whose thread stack migrated.
    pub thread_migration_rate: f64,
    /// Mean delay per stream, µs.
    pub per_stream_delay_us: Vec<f64>,
    /// Packets served per processor (whole run) — exposes the load
    /// balance each policy strikes (Wired partitions, MRU concentrates).
    pub per_proc_served: Vec<u64>,
    /// Little's-law consistency gap (small = bookkeeping is sound).
    pub littles_gap: f64,
    /// Whether the system looked stable (no queue growth, and every
    /// offered packet accounted for — delivered, rejected, or shed).
    pub stable: bool,
    /// Useful deliveries per second: `throughput_pps` minus the rate of
    /// corrupted packets that consumed service without delivering.
    pub goodput_pps: f64,
    /// Fraction of offered packets shed before service (wire + queue +
    /// source), i.e. excluding corrupt packets that *were* served.
    pub drop_rate: f64,
    /// Packets lost on the wire (fault injection).
    pub wire_drops: u64,
    /// Packets shed by full bounded queues.
    pub queue_drops: u64,
    /// Packets shed at the source under backpressure.
    pub shed_at_source: u64,
    /// Corrupted packets that consumed (partial) service.
    pub corrupted: u64,
    /// Processor crashes injected by the fault plan (post-warmup).
    pub proc_crashes: u64,
    /// Processor stall windows entered (post-warmup).
    pub proc_stalls: u64,
    /// Packets orphaned on crashed processors (post-warmup).
    pub orphaned: u64,
    /// Orphans re-routed to live queues; equals `orphaned` whenever the
    /// fault plan is valid (a live processor always exists).
    pub requeued: u64,
    /// Fraction of protocol busy time wasted on corrupted packets — the
    /// degradation-curve companion to `goodput_pps`.
    pub wasted_service_frac: f64,
    /// Packets offered over the whole run, warm-up included.
    pub offered_total: u64,
    /// Packets that finished service over the whole run (useful or
    /// corrupt).
    pub completed_total: u64,
    /// Packets shed over the whole run (wire + queue + source +
    /// eviction).
    pub shed_total: u64,
    /// Packets still enqueued or in service at the end of the run. The
    /// conservation identity `offered_total == completed_total +
    /// shed_total + in_flight` holds exactly for every drop policy.
    pub in_flight: u64,
    /// Completions delivered out of per-stream arrival order (whole
    /// run, like `offered_total`): a completion whose sequence number
    /// is below its stream's completion high-water mark. Zero without a
    /// NIC front-end (per-stream FIFO service is structural) and
    /// structurally zero for the RSS and transport-friendly front-ends;
    /// Flow Director's mid-burst rebinds make it positive.
    pub ooo_deliveries: u64,
    /// NIC front-end steering-table misses over the whole run (learning
    /// table misses for Flow Director, first placements for the
    /// transport-friendly pin, zero for RSS). Zero without a front-end.
    pub table_misses: u64,
    /// NIC front-end flow rebinds over the whole run (a packet routed
    /// to a different worker than its flow's previous packet). Zero
    /// without a front-end.
    pub rebinds: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn stream_mean_is_welford_mean_bit_for_bit() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(37);
        let (mut m, mut w) = (StreamMean::default(), Welford::new());
        assert_eq!(m.mean.to_bits(), w.mean().to_bits());
        for _ in 0..10_000 {
            let x = rng.gen::<f64>() * 10f64.powi(rng.gen_range(-3..6));
            m.add(x);
            w.add(x);
            assert_eq!(m.mean.to_bits(), w.mean().to_bits(), "after {x}");
        }
    }

    #[test]
    fn warmup_gates_recording() {
        let mut c = Collector::new(t(1000), 1);
        c.on_arrival(t(500));
        c.on_completion(t(800), t(500), 0, SimDuration::from_micros(300));
        assert_eq!(c.delivered, 0);
        assert_eq!(c.arrivals, 0);
        c.on_arrival(t(1500));
        c.on_completion(t(1900), t(1500), 0, SimDuration::from_micros(400));
        assert_eq!(c.delivered, 1);
        assert_eq!(c.arrivals, 1);
        assert!((c.delay.mean() - 400.0).abs() < 1e-9);
    }

    #[test]
    fn report_throughput_and_utilization() {
        let mut c = Collector::new(t(0), 2);
        // 10 packets over 1 s, 100 µs service each, 1 processor.
        for i in 0..10u64 {
            let a = t(i * 100_000);
            c.on_arrival(a);
            c.on_completion(
                a + SimDuration::from_micros(100),
                a,
                (i % 2) as u32,
                SimDuration::from_micros(100),
            );
        }
        let r = c.report(t(1_000_000), 1);
        assert!((r.throughput_pps - 10.0).abs() < 1e-9);
        assert!((r.utilization - 0.001).abs() < 1e-9);
        assert!((r.mean_delay_us - 100.0).abs() < 1e-9);
        assert!(r.stable);
        assert_eq!(r.per_stream_delay_us.len(), 2);
    }

    #[test]
    fn growth_detection_flags_instability() {
        let mut c = Collector::new(t(0), 1);
        // Arrivals pile up: 200 arrivals, only 30 completions.
        for i in 0..200u64 {
            c.on_arrival(t(i * 1000));
        }
        c.backlog_first_half = Some(20.0); // pretend the midpoint showed 20
        for i in 0..30u64 {
            c.on_completion(
                t(200_000 + i * 100),
                t(i * 1000),
                0,
                SimDuration::from_micros(50),
            );
        }
        let r = c.report(t(250_000), 1);
        assert!(!r.stable, "should flag growth: {r:?}");
    }

    #[test]
    fn conservation_identity_holds_across_outcomes() {
        let mut c = Collector::new(t(1000), 1);
        // Mix every outcome, some before the warm-up boundary: the
        // whole-run totals must balance regardless.
        c.on_arrival(t(100)); // completes below
        c.on_offered_only(t(200)); // wire drop pre-warmup
        c.on_completion(t(500), t(100), 0, SimDuration::from_micros(100));
        c.on_arrival(t(1500)); // evicted below
        c.on_evicted(t(1600));
        c.on_arrival(t(1700)); // corrupt completion below
        c.on_corrupt_completion(t(1900), SimDuration::from_micros(50));
        c.on_arrival(t(2000)); // still in flight
        c.on_offered_only(t(2100)); // shed post-warmup
        let r = c.report(t(3000), 1);
        assert_eq!(r.offered_total, 6);
        assert_eq!(r.completed_total, 2);
        assert_eq!(r.shed_total, 3);
        assert_eq!(r.in_flight, 1);
        assert_eq!(
            r.offered_total,
            r.completed_total + r.shed_total + r.in_flight
        );
    }

    #[test]
    fn littles_gap_small_for_consistent_run() {
        let mut c = Collector::new(t(0), 1);
        // Deterministic D/D/1-ish: arrival every 200 µs, 100 µs service.
        for i in 0..5000u64 {
            let a = t(i * 200);
            c.on_arrival(a);
            c.on_completion(
                a + SimDuration::from_micros(100),
                a,
                0,
                SimDuration::from_micros(100),
            );
        }
        let r = c.report(t(1_000_000), 1);
        assert!(r.littles_gap < 0.05, "gap {}", r.littles_gap);
    }
}
