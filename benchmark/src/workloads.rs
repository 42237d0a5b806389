//! The five workloads: what each builds from `(seed, W)`, how one run
//! of it is executed through the backend's public entry point, and what
//! the correctness gate checks on the result.
//!
//! Workload names are normative — `BENCHMARK.json`, the README and the
//! committed results all key on them.

use afs_core::crossval::StreamScenario;
use afs_core::{LockPolicy, Paradigm, RunReport, SystemConfig};
use afs_desim::SimDuration;
use afs_native::{
    poisson_workload, run_native, run_native_recorded, run_serve, FrontEndKind, NativeConfig,
    NativePacket, NativeReport, Pinning, PolicySpec, ServeConfig, ServeReport, WorkerStats,
};
use afs_workload::Population;

/// Seed used when none is given on the command line.
pub const DEFAULT_SEED: u64 = 0xAF5;

/// Share of the horizon one *slice* of a simulator workload runs: the
/// input cut to its first tenth and run from a fresh start through the
/// same entry point. The host-time rate is taken over slices — identical
/// work every time, and short enough (0.2–0.4 s) to fall inside one of
/// the host's speed states instead of averaging several. One slice also
/// serves as the in-process warm-up before the full run (fills allocator
/// arenas, page cache and branch history; its results are discarded).
pub const SIM_SLICE_FRAC: f64 = 0.10;

/// The same for a native workload: a twentieth (3 000–4 500 packets,
/// 0.2–0.4 s). Native packets cost 50–80 µs each, so the shorter prefix
/// still spends over nine tenths of its time past thread start-up and
/// session binding, and twice as many slices fit the budget — twice as
/// many chances that one ran undisturbed.
pub const NATIVE_SLICE_FRAC: f64 = 0.05;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's base case on the simulator (compact-heap event mode).
    SimMru16,
    /// 10⁵-flow Zipf population through Flow Director on the simulator
    /// (calendar event mode, hashed-LRU tables far below the population).
    SimZipfFdir100k,
    /// Engine-bound serving at the smallest packet.
    ServeFdirSteady,
    /// The drop path: 2× rated load at 4 KiB payloads under IPS stealing.
    ServeIpsOverload4k,
    /// The replay path with the observability recorder attached.
    ReplayLockingRecorded,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 5] = [
        Workload::SimMru16,
        Workload::SimZipfFdir100k,
        Workload::ServeFdirSteady,
        Workload::ServeIpsOverload4k,
        Workload::ReplayLockingRecorded,
    ];

    /// The normative name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SimMru16 => "sim_mru_16",
            Workload::SimZipfFdir100k => "sim_zipf_fdir_100k",
            Workload::ServeFdirSteady => "serve_fdir_steady",
            Workload::ServeIpsOverload4k => "serve_ips_overload_4k",
            Workload::ReplayLockingRecorded => "replay_locking_recorded",
        }
    }

    /// One line on why the workload exists (`BENCHMARK.json`'s `why`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::SimMru16 => {
                "paper base case: 8 procs, Locking/MRU, 16 Poisson streams; ~19 live events (heap mode), pricer/libm share largest"
            }
            Workload::SimZipfFdir100k => {
                "same simulator at flow scale: 100k Zipf flows, Flow Director + min-reload, ~100k live events (calendar mode), hashed-LRU tables far below the population"
            }
            Workload::ServeFdirSteady => {
                "engine-bound serving at 64 B: receive_outcome + hierarchy walk dominate; where a fast native pricing path must show"
            }
            Workload::ServeIpsOverload4k => {
                "drop path at 2x rated load, 4 KiB payloads, IPS stealing: ~48% taildrop, so generator+steering+admission run per offered packet"
            }
            Workload::ReplayLockingRecorded => {
                "replay path with the afs-obs recorder on (serve never records); guards dispatcher unification and recorder cost"
            }
        }
    }

    /// Look a workload up by its normative name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Share of the horizon one slice of the workload runs.
    pub fn slice_frac(self) -> f64 {
        if self.is_sim() {
            SIM_SLICE_FRAC
        } else {
            NATIVE_SLICE_FRAC
        }
    }

    /// Whether the workload runs on the simulator (single-threaded).
    pub fn is_sim(self) -> bool {
        matches!(self, Workload::SimMru16 | Workload::SimZipfFdir100k)
    }
}

/// Aggregate offered rate of the flow-scale simulator workload, pkts per
/// virtual second. Held at 0.19 × the 8-processor rated capacity: the
/// Zipf(1.1) head flow alone carries 13.5 % of the traffic onto one
/// Flow-Director queue, and above ≈20 k pps that queue saturates on
/// some seeds (mean delay then varies 300-fold seed to seed); at 12 k
/// the ten-seed spread of mean delay is still 4–5 %, at 10 k it is 2 %.
pub const ZIPF_SIM_RATE_PPS: f64 = 10_000.0;

/// Per-stream rate of the replay workload is this × `W`, pkts per
/// virtual second: utilisation ≈ 0.75 of the Locking rung's modeled
/// capacity, so delay is a steady-state quantity rather than backlog
/// accumulated over the horizon.
pub const REPLAY_RATE_PER_WORKER_PPS: f64 = 250.0;

/// Native workers bind themselves to processors `0..W`, and every child
/// process of the benchmark binds its main thread — the dispatcher — to
/// the last processor (`W = nproc − 1` leaves it one of its own). With
/// each thread on a known processor, the calibration kernel can be timed
/// where the work runs (`host::calibrate_on`). Binding is advisory: where
/// the OS refuses, the run goes on unbound.
pub const NATIVE_PINNING: Pinning = Pinning::Auto;

/// A workload's materialised input: everything a run needs, built from
/// `(seed, W, scale)` before the timed window opens.
#[derive(Debug, Clone)]
pub enum Input {
    /// A simulator configuration.
    Sim(SystemConfig),
    /// A serving configuration (arrivals are generated open-loop inside
    /// the run; nothing to materialise).
    Serve(ServeConfig),
    /// A replay configuration and its pre-generated packets.
    Replay {
        /// Backend configuration.
        cfg: NativeConfig,
        /// The merged arrival sequence.
        packets: Vec<NativePacket>,
        /// Whether the run attaches the recorder (the workload's point;
        /// the traced pass also runs the unrecorded twin).
        recorded: bool,
    },
}

/// Build `workload`'s input. `scale` multiplies every horizon (1.0 =
/// the committed sizes; `--quick` passes 0.1).
pub fn build(workload: Workload, seed: u64, workers: usize, scale: f64) -> Input {
    match workload {
        Workload::SimMru16 => {
            let mut cfg = SystemConfig::new(
                Paradigm::Locking {
                    policy: LockPolicy::Mru,
                },
                Population::homogeneous_poisson(16, 700.0),
            );
            cfg.n_procs = 8;
            cfg.seed = seed;
            cfg.horizon = SimDuration::from_secs_f64(400.0 * scale);
            cfg.warmup = SimDuration::from_secs_f64(20.0 * scale);
            Input::Sim(cfg)
        }
        Workload::SimZipfFdir100k => {
            let scenario = StreamScenario {
                workers: 8,
                streams: 100_000,
                total_packets: (3_000_000.0 * scale) as u64,
                aggregate_rate_pps: ZIPF_SIM_RATE_PPS,
                alpha: 1.1,
                batch_mean: 4.0,
                table_capacity: 1_024,
                cache_capacity: 4_096,
                payload_bytes: 64,
                seed,
            };
            Input::Sim(scenario.sim_config(FrontEndKind::FlowDirector, PolicySpec::MinReload))
        }
        Workload::ServeFdirSteady => {
            let mut cfg = serve_base(workers, PolicySpec::MinReload, seed);
            cfg.native.batch = 8;
            cfg.payload_bytes = 64;
            cfg.offered_pps = 0.4 * cfg.rated_capacity_pps();
            cfg.total_packets = (60_000.0 * scale) as u64;
            cfg.warmup_packets = cfg.total_packets / 5;
            Input::Serve(cfg)
        }
        Workload::ServeIpsOverload4k => {
            let mut cfg = serve_base(workers, PolicySpec::Ips, seed);
            cfg.native.batch = 64;
            cfg.payload_bytes = 4_096;
            cfg.offered_pps = 2.0 * cfg.rated_capacity_pps();
            cfg.total_packets = (90_000.0 * scale) as u64;
            cfg.warmup_packets = cfg.total_packets / 5;
            Input::Serve(cfg)
        }
        Workload::ReplayLockingRecorded => {
            let mut cfg = NativeConfig::new(workers, PolicySpec::Locking);
            cfg.pinning = NATIVE_PINNING;
            cfg.seed = seed;
            cfg.batch = 8;
            let per_stream = ((2_800.0 * scale) as u32).max(1);
            let packets = poisson_workload(
                16,
                per_stream,
                REPLAY_RATE_PER_WORKER_PPS * workers as f64,
                64,
                seed,
            );
            Input::Replay {
                cfg,
                packets,
                recorded: true,
            }
        }
    }
}

fn serve_base(workers: usize, policy: PolicySpec, seed: u64) -> ServeConfig {
    let mut cfg = ServeConfig::new(workers, 20_000, FrontEndKind::FlowDirector, policy);
    cfg.native.pinning = NATIVE_PINNING;
    cfg.native.seed = seed;
    cfg
}

impl Input {
    /// The same input cut to `frac` of its horizon (a slice).
    pub fn fraction(&self, frac: f64) -> Input {
        match self {
            Input::Sim(cfg) => {
                let mut c = cfg.clone();
                c.horizon = cfg.horizon.mul_f64(frac);
                c.warmup = cfg.warmup.mul_f64(frac);
                Input::Sim(c)
            }
            Input::Serve(cfg) => {
                let mut c = cfg.clone();
                c.total_packets = ((cfg.total_packets as f64 * frac) as u64).max(1);
                c.warmup_packets = c.total_packets / 5;
                Input::Serve(c)
            }
            Input::Replay {
                cfg,
                packets,
                recorded,
            } => {
                let n = ((packets.len() as f64 * frac) as usize).clamp(1, packets.len());
                Input::Replay {
                    cfg: cfg.clone(),
                    packets: packets[..n].to_vec(),
                    recorded: *recorded,
                }
            }
        }
    }

    /// The same entry point on a one-packet horizon: what is left is the
    /// run's fixed cost (session binding, buffer-pool minting, model
    /// folds), which `setup_s` charges.
    pub fn one_packet(&self) -> Input {
        match self {
            Input::Sim(cfg) => {
                let mut c = cfg.clone();
                let rate = cfg.population.total_rate_per_sec();
                c.warmup = SimDuration::ZERO;
                c.horizon = SimDuration::from_secs_f64(1.5 / rate);
                Input::Sim(c)
            }
            Input::Serve(cfg) => {
                let mut c = cfg.clone();
                c.total_packets = 1;
                c.warmup_packets = 0;
                Input::Serve(c)
            }
            Input::Replay { .. } => self.fraction(0.0),
        }
    }

    /// Run the input through its backend's public entry point.
    pub fn execute(self) -> Outcome {
        match self {
            Input::Sim(cfg) => sim_outcome(&afs_core::sim::run(&cfg)),
            Input::Serve(cfg) => serve_outcome(&run_serve(&cfg, None)),
            Input::Replay {
                cfg,
                packets,
                recorded,
            } => {
                if recorded {
                    let (report, rec) = run_native_recorded(&cfg, packets);
                    let mut out = native_outcome(&report);
                    out.recorded_events = rec.events.len() as u64 + rec.dropped_events();
                    out
                } else {
                    native_outcome(&run_native(&cfg, packets))
                }
            }
        }
    }
}

/// What one run produced, reduced to what the benchmark reports and
/// checks.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Packets given a verdict (delivered, shed, or tail-dropped).
    pub offered: u64,
    /// Packets delivered.
    pub delivered: u64,
    /// Packets the model dropped on purpose (NIC taildrop, bounded
    /// queues) — a verdict, not a failure.
    pub dropped: u64,
    /// Operations that failed: ledger shortfall, rejected / no-session /
    /// queue-full outcomes, simulator packets unaccounted for.
    pub failed: u64,
    /// Post-warm-up mean packet delay, virtual µs.
    pub mean_delay_us: f64,
    /// Delivered packets per virtual second.
    pub goodput_pps: f64,
    /// Mean modeled service time, virtual µs.
    pub mean_service_us: f64,
    /// Steals, flow rebinds, stream + thread migrations, steering-table
    /// misses over the run.
    pub steals: u64,
    /// See `steals`.
    pub rebinds: u64,
    /// See `steals`.
    pub migrations: u64,
    /// See `steals`.
    pub table_misses: u64,
    /// Packets processed per worker / processor.
    pub per_worker_processed: Vec<u64>,
    /// Events the recorder saw (recorded replay only).
    pub recorded_events: u64,
    /// Every virtual-domain field by name, as raw bits: two runs of one
    /// `(config, seed)` must agree on all of them.
    pub fields: Vec<(String, u64)>,
    /// What the correctness gate found wrong (empty = clean).
    pub problems: Vec<String>,
}

impl Outcome {
    /// Dropped ÷ offered.
    pub fn drop_frac(&self) -> f64 {
        self.dropped as f64 / self.offered.max(1) as f64
    }

    /// Failed ÷ offered.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.offered.max(1) as f64
    }

    /// Max ÷ mean of packets processed per worker (1 = perfectly even).
    pub fn worker_imbalance(&self) -> f64 {
        let n = self.per_worker_processed.len().max(1) as f64;
        let total: u64 = self.per_worker_processed.iter().sum();
        let max = self.per_worker_processed.iter().copied().max().unwrap_or(0);
        if total == 0 {
            0.0
        } else {
            max as f64 / (total as f64 / n)
        }
    }

    /// The first field on which `self` and `other` differ bitwise.
    pub fn first_difference(&self, other: &Outcome) -> Option<String> {
        if self.fields.len() != other.fields.len() {
            return Some(format!(
                "field count {} vs {}",
                self.fields.len(),
                other.fields.len()
            ));
        }
        self.fields
            .iter()
            .zip(&other.fields)
            .find(|(a, b)| a != b)
            .map(|((name, a), (_, b))| {
                format!(
                    "{name}: {a:#018x} ({}) vs {b:#018x} ({})",
                    f64::from_bits(*a),
                    f64::from_bits(*b)
                )
            })
    }
}

/// Accumulates an [`Outcome`]'s named bit fields.
struct Fields(Vec<(String, u64)>);

impl Fields {
    fn f(&mut self, name: &str, x: f64) {
        self.0.push((name.to_string(), x.to_bits()));
    }
    fn u(&mut self, name: &str, x: u64) {
        self.0.push((name.to_string(), x));
    }
    /// Fold a vector into one order-sensitive FNV-1a word.
    fn fold(&mut self, name: &str, xs: impl Iterator<Item = u64>) {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for x in xs {
            for b in x.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        self.u(name, h);
    }
    fn workers(&mut self, ws: &[WorkerStats]) {
        // Only the virtual-order fields: `pinned`, `lock_contended` and
        // `max_queue_depth` are host-order observations.
        self.fold("per_worker.processed", ws.iter().map(|w| w.processed));
        self.fold("per_worker.delivered", ws.iter().map(|w| w.delivered));
        self.fold("per_worker.steals", ws.iter().map(|w| w.steals));
        self.fold(
            "per_worker.stream_migrations",
            ws.iter().map(|w| w.stream_migrations),
        );
        self.fold(
            "per_worker.thread_migrations",
            ws.iter().map(|w| w.thread_migrations),
        );
        self.fold("per_worker.busy_us", ws.iter().map(|w| w.busy_us.to_bits()));
        self.fold(
            "per_worker.vclock_us",
            ws.iter().map(|w| w.vclock_us.to_bits()),
        );
    }
}

pub fn sim_outcome(r: &RunReport) -> Outcome {
    let mut f = Fields(Vec::new());
    f.f("mean_delay_us", r.mean_delay_us);
    f.f("delay_ci_half_us", r.delay_ci_half_us);
    f.f("p95_delay_us", r.p95_delay_us.unwrap_or(f64::NAN));
    f.f("max_delay_us", r.max_delay_us);
    f.f("mean_service_us", r.mean_service_us);
    f.f("throughput_pps", r.throughput_pps);
    f.f("offered_pps", r.offered_pps);
    f.u("delivered", r.delivered);
    f.u("arrivals", r.arrivals);
    f.f("utilization", r.utilization);
    f.f("mean_f1", r.mean_f1);
    f.f("mean_f2", r.mean_f2);
    f.f("stream_migration_rate", r.stream_migration_rate);
    f.f("thread_migration_rate", r.thread_migration_rate);
    f.fold(
        "per_stream_delay_us",
        r.per_stream_delay_us.iter().map(|x| x.to_bits()),
    );
    f.fold("per_proc_served", r.per_proc_served.iter().copied());
    f.f("littles_gap", r.littles_gap);
    f.u("stable", r.stable as u64);
    f.f("goodput_pps", r.goodput_pps);
    f.f("drop_rate", r.drop_rate);
    f.u("offered_total", r.offered_total);
    f.u("completed_total", r.completed_total);
    f.u("shed_total", r.shed_total);
    f.u("in_flight", r.in_flight);
    f.u("ooo_deliveries", r.ooo_deliveries);
    f.u("table_misses", r.table_misses);
    f.u("rebinds", r.rebinds);

    let mut problems = Vec::new();
    let accounted = r.completed_total + r.shed_total + r.in_flight;
    let unaccounted = r.offered_total.abs_diff(accounted);
    if unaccounted != 0 {
        problems.push(format!(
            "sim conservation: offered_total {} != completed {} + shed {} + in_flight {}",
            r.offered_total, r.completed_total, r.shed_total, r.in_flight
        ));
    }
    if !r.stable {
        problems.push("sim run not stable (queue growth or unaccounted packets)".into());
    }
    let verdicts = r.completed_total + r.shed_total;
    Outcome {
        offered: verdicts,
        delivered: r.completed_total,
        dropped: r.shed_total,
        failed: if r.stable { unaccounted } else { verdicts },
        mean_delay_us: r.mean_delay_us,
        goodput_pps: r.goodput_pps,
        mean_service_us: r.mean_service_us,
        steals: 0,
        rebinds: r.rebinds,
        migrations: ((r.stream_migration_rate + r.thread_migration_rate) * r.delivered as f64)
            .round() as u64,
        table_misses: r.table_misses,
        per_worker_processed: r.per_proc_served.clone(),
        recorded_events: 0,
        fields: f.0,
        problems,
    }
}

fn serve_outcome(r: &ServeReport) -> Outcome {
    let o = &r.outcomes;
    let mut f = Fields(Vec::new());
    f.u("offered", r.offered);
    f.u("admitted", r.admitted);
    f.u("dropped", r.dropped);
    f.u("outcomes.delivered", o.delivered);
    f.u("outcomes.no_session", o.no_session);
    f.u("outcomes.queue_full", o.queue_full);
    f.u("outcomes.rejected", o.rejected);
    f.u("recorded", r.recorded);
    f.f("mean_delay_us", r.mean_delay_us);
    f.f("mean_service_us", r.mean_service_us);
    f.f("mean_wait_us", r.mean_wait_us);
    f.f("max_delay_us", r.max_delay_us);
    f.f("last_arrival_us", r.last_arrival_us);
    f.f("makespan_us", r.makespan_us);
    f.u("table_misses", r.table_misses);
    f.u("rebinds", r.rebinds);
    f.workers(&r.per_worker);

    let mut problems = Vec::new();
    if r.offered != r.admitted + r.dropped {
        problems.push(format!(
            "serve ledger: offered {} != admitted {} + dropped {}",
            r.offered, r.admitted, r.dropped
        ));
    }
    if r.admitted != o.total() {
        problems.push(format!(
            "serve ledger: admitted {} != outcomes {} (delivered {} no_session {} queue_full {} rejected {})",
            r.admitted,
            o.total(),
            o.delivered,
            o.no_session,
            o.queue_full,
            o.rejected
        ));
    }
    let shortfall = r.offered.abs_diff(r.admitted + r.dropped) + r.admitted.abs_diff(o.total());
    Outcome {
        offered: r.offered,
        delivered: o.delivered,
        dropped: r.dropped,
        failed: shortfall + o.no_session + o.queue_full + o.rejected,
        mean_delay_us: r.mean_delay_us,
        goodput_pps: r.goodput_pps(),
        mean_service_us: r.mean_service_us,
        steals: r.per_worker.iter().map(|w| w.steals).sum(),
        rebinds: r.rebinds,
        migrations: r
            .per_worker
            .iter()
            .map(|w| w.stream_migrations + w.thread_migrations)
            .sum(),
        table_misses: r.table_misses,
        per_worker_processed: r.per_worker.iter().map(|w| w.processed).collect(),
        recorded_events: 0,
        fields: f.0,
        problems,
    }
}

fn native_outcome(r: &NativeReport) -> Outcome {
    let o = &r.outcomes;
    let mut f = Fields(Vec::new());
    f.u("offered", r.offered);
    f.u("outcomes.delivered", o.delivered);
    f.u("outcomes.no_session", o.no_session);
    f.u("outcomes.queue_full", o.queue_full);
    f.u("outcomes.rejected", o.rejected);
    f.f("mean_delay_us", r.mean_delay_us);
    f.f("mean_service_us", r.mean_service_us);
    f.f("mean_wait_us", r.mean_wait_us);
    f.f("max_delay_us", r.max_delay_us);
    f.u("recorded", r.recorded);
    f.u("steals", r.steals);
    f.u("stream_migrations", r.stream_migrations);
    f.u("thread_migrations", r.thread_migrations);
    f.f("last_arrival_us", r.last_arrival_us);
    f.f("makespan_us", r.makespan_us);
    f.u("workers_crashed", r.workers_crashed);
    f.u("orphaned", r.orphaned);
    f.u("requeued", r.requeued);
    f.fold(
        "per_stream_delivered",
        r.per_stream_delivered.iter().copied(),
    );
    f.u("table_misses", r.table_misses);
    f.u("rebinds", r.rebinds);
    f.workers(&r.per_worker);

    let mut problems = Vec::new();
    if o.total() != r.offered {
        problems.push(format!(
            "replay ledger: offered {} != outcomes {} (the replay path is lossless)",
            r.offered,
            o.total()
        ));
    }
    let goodput_pps = if r.makespan_us > 0.0 {
        o.delivered as f64 * 1e6 / r.makespan_us
    } else {
        0.0
    };
    Outcome {
        offered: r.offered,
        delivered: o.delivered,
        dropped: 0,
        failed: r.offered.abs_diff(o.total()) + o.no_session + o.queue_full + o.rejected,
        mean_delay_us: r.mean_delay_us,
        goodput_pps,
        mean_service_us: r.mean_service_us,
        steals: r.steals,
        rebinds: r.rebinds,
        migrations: r.stream_migrations + r.thread_migrations,
        table_misses: r.table_misses,
        per_worker_processed: r.per_worker.iter().map(|w| w.processed).collect(),
        recorded_events: 0,
        fields: f.0,
        problems,
    }
}
