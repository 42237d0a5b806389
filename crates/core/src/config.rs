//! Simulation configuration: paradigms, scheduling policies and the full
//! system description.

use afs_desim::time::SimDuration;
use afs_workload::Population;

use crate::exec::ExecParams;
use crate::procfault::ProcFaultPlan;

/// The parallelization-paradigm vocabulary now lives in the
/// backend-agnostic policy crate; these re-exports keep the historical
/// `afs_core::config::{Paradigm, LockPolicy, IpsPolicy}` paths working.
pub use afs_sched::{IpsPolicy, LockPolicy, Paradigm};

/// Flow-level fault model for the scheduling simulator (E21).
/// Probabilities are per generated packet and drawn from the dedicated
/// `"faults"` RNG substream, so a no-op profile consumes no randomness
/// and leaves every other stream's sample path untouched.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultProfile {
    /// Probability a packet is lost on the wire (never enqueued; no
    /// processing cost).
    pub drop_p: f64,
    /// Probability a packet arrives twice (duplicate admission).
    pub duplicate_p: f64,
    /// Probability a packet is corrupted: it consumes
    /// [`corrupt_work_frac`](FaultProfile::corrupt_work_frac) of its
    /// protocol service (validation work done before the checksum
    /// rejects it, polluting the cache) but produces no goodput and
    /// never touches stream state.
    pub corrupt_p: f64,
    /// Fraction of the full protocol service a corrupted packet consumes
    /// before rejection (the paper's path rejects at the IP checksum,
    /// roughly half-way through the non-data-touching path).
    pub corrupt_work_frac: f64,
}

impl FaultProfile {
    /// The clean wire: nothing injected, nothing drawn.
    pub const fn none() -> Self {
        FaultProfile {
            drop_p: 0.0,
            duplicate_p: 0.0,
            corrupt_p: 0.0,
            corrupt_work_frac: 0.5,
        }
    }

    /// True when no fault can fire (no RNG draws are made).
    pub fn is_noop(&self) -> bool {
        self.drop_p <= 0.0 && self.duplicate_p <= 0.0 && self.corrupt_p <= 0.0
    }
}

impl Default for FaultProfile {
    fn default() -> Self {
        FaultProfile::none()
    }
}

/// What happens when a packet arrives to a full (bounded) queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropPolicy {
    /// Drop the arriving packet (classic tail drop on the target queue).
    TailDrop,
    /// Evict the oldest packet of the currently longest queue in the
    /// system to make room, then admit the arrival — sheds load where
    /// the backlog actually is instead of where it happens to land.
    DropLongestQueue,
    /// Shared-buffer backpressure: the arrival is shed at the source
    /// whenever the *total* queued backlog (across all queues) has
    /// reached the bound.
    Backpressure,
}

/// The full system description for one run.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Number of processors (the paper's platform has 8).
    pub n_procs: usize,
    /// Parallelization paradigm and policy.
    pub paradigm: Paradigm,
    /// Offered traffic.
    pub population: Population,
    /// Execution-time parameters (calibrated bounds + flush curves).
    pub exec: ExecParams,
    /// Fixed uncached per-packet overhead `V` in µs (the data-touching
    /// knob of Figures 10/11; 139 µs ≈ checksumming a 4432-byte packet
    /// at 32 bytes/µs).
    pub v_fixed_us: f64,
    /// Additional uncached overhead per payload byte (µs/byte), for the
    /// copying-cost extension E15 (1/32 µs per byte on the paper's
    /// platform).
    pub copy_us_per_byte: f64,
    /// Master RNG seed.
    pub seed: u64,
    /// Statistics discarded before this time.
    pub warmup: SimDuration,
    /// Simulation end.
    pub horizon: SimDuration,
    /// Wire-level fault model (default: clean wire).
    pub faults: FaultProfile,
    /// Processor-level fault schedule (default: no faults — the empty
    /// plan is guaranteed behaviorally invisible).
    pub proc_faults: ProcFaultPlan,
    /// Per-queue capacity in packets (`usize::MAX` = unbounded, the
    /// paper's implicit assumption). Under
    /// [`DropPolicy::Backpressure`] the bound applies to the total
    /// backlog instead.
    pub queue_bound: usize,
    /// Overflow behaviour when a bound is hit.
    pub drop_policy: DropPolicy,
    /// NIC front-end steering (`None` = legacy enqueue routing via the
    /// policy, byte-identical to every committed golden). When set, the
    /// front-end owns arrival routing into per-processor queues and the
    /// Locking policy supplies only the dispatch order; requires the
    /// Locking paradigm.
    pub frontend: Option<afs_sched::FrontEndPlan>,
    /// Bound on the host's stream-state table (`None` = dense, one slot
    /// per stream). `Some(c)` caches at most `c` streams in a hashed
    /// LRU: an evicted stream's next packet pays the full cold
    /// stream-footprint reload — the capacity model of the
    /// million-stream experiments.
    pub stream_cache: Option<usize>,
}

impl SystemConfig {
    /// A conventional starting point: 8 processors, calibrated execution
    /// parameters, no data touching, 2 s horizon with 0.2 s warm-up.
    pub fn new(paradigm: Paradigm, population: Population) -> Self {
        SystemConfig {
            n_procs: 8,
            paradigm,
            population,
            exec: ExecParams::calibrated(),
            v_fixed_us: 0.0,
            copy_us_per_byte: 0.0,
            seed: 0xAF5_0001,
            warmup: SimDuration::from_millis(200),
            horizon: SimDuration::from_secs(2),
            faults: FaultProfile::none(),
            proc_faults: ProcFaultPlan::none(),
            queue_bound: usize::MAX,
            drop_policy: DropPolicy::TailDrop,
            frontend: None,
            stream_cache: None,
        }
    }

    /// Number of streams offered.
    pub fn n_streams(&self) -> usize {
        self.population.len()
    }

    /// Validate internal consistency (panics with a description).
    pub fn validate(&self) {
        assert!(self.n_procs >= 1, "need at least one processor");
        assert!(!self.population.is_empty(), "population is empty");
        assert!(self.v_fixed_us >= 0.0 && self.copy_us_per_byte >= 0.0);
        assert!(self.warmup < self.horizon, "warmup must precede horizon");
        for (name, p) in [
            ("drop_p", self.faults.drop_p),
            ("duplicate_p", self.faults.duplicate_p),
            ("corrupt_p", self.faults.corrupt_p),
            ("corrupt_work_frac", self.faults.corrupt_work_frac),
        ] {
            assert!(
                (0.0..=1.0).contains(&p),
                "fault parameter {name} = {p} outside [0, 1]"
            );
        }
        assert!(self.queue_bound >= 1, "queue bound must admit one packet");
        if let Err(e) = self.proc_faults.validate(self.n_procs) {
            panic!("invalid processor-fault plan: {e}");
        }
        if let Paradigm::Locking {
            policy: LockPolicy::Hybrid { wired },
        } = &self.paradigm
        {
            assert_eq!(
                wired.len(),
                self.population.len(),
                "hybrid mask must cover every stream"
            );
        }
        if let Paradigm::Ips { n_stacks, .. } = &self.paradigm {
            assert!(*n_stacks >= 1, "need at least one stack");
        }
        if let Some(plan) = &self.frontend {
            assert!(
                self.paradigm.is_locking(),
                "the NIC front-end steers per-processor queues; IPS routes by stack"
            );
            plan.validate();
        }
        if let Some(cap) = self.stream_cache {
            assert!(cap >= 1, "stream cache must hold at least one stream");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        let l = Paradigm::Locking {
            policy: LockPolicy::Mru,
        };
        assert_eq!(l.label(), "Locking/mru");
        assert!(l.is_locking());
        let i = Paradigm::Ips {
            policy: IpsPolicy::Wired,
            n_stacks: 16,
        };
        assert_eq!(i.label(), "IPS(16)/wired");
        assert!(!i.is_locking());
    }

    #[test]
    fn config_validates() {
        let c = SystemConfig::new(
            Paradigm::Locking {
                policy: LockPolicy::Baseline,
            },
            afs_workload::Population::homogeneous_poisson(4, 100.0),
        );
        c.validate();
        assert_eq!(c.n_streams(), 4);
    }

    #[test]
    #[should_panic(expected = "hybrid mask")]
    fn hybrid_mask_must_match() {
        let mut c = SystemConfig::new(
            Paradigm::Locking {
                policy: LockPolicy::Hybrid { wired: vec![true] },
            },
            afs_workload::Population::homogeneous_poisson(4, 100.0),
        );
        c.n_procs = 2;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "IPS routes by stack")]
    fn frontend_requires_locking() {
        let mut c = SystemConfig::new(
            Paradigm::Ips {
                policy: IpsPolicy::Wired,
                n_stacks: 4,
            },
            afs_workload::Population::homogeneous_poisson(4, 100.0),
        );
        c.frontend = Some(afs_sched::FrontEndPlan::new(
            afs_sched::FrontEndKind::Rss,
            16,
            afs_sched::Router::StreamOwner,
        ));
        c.validate();
    }

    #[test]
    #[should_panic(expected = "population is empty")]
    fn empty_population_rejected() {
        SystemConfig::new(
            Paradigm::Locking {
                policy: LockPolicy::Baseline,
            },
            afs_workload::Population::default(),
        )
        .validate();
    }
}
