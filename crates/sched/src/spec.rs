//! The canonical cross-backend policy specification.
//!
//! One [`PolicySpec`] names one scheduling regime; both backends derive
//! their configurations from it (`CrossvalScenario::sim_config` builds
//! the simulator [`Paradigm`], `NativeConfig::new` builds the native
//! [`NativeLayout`]), so the policy↔backend mapping exists exactly once.

use crate::paradigm::{IpsPolicy, LockPolicy, Paradigm};
use crate::policy::StealPolicy;
use crate::router::Router;

/// Default backlog bound of the cross-backend
/// [mru-load](PolicySpec::MruLoad) cells. Occupancy counts the
/// in-service packet, so a bound of 1 keeps a stream on its last
/// processor while that processor is idle or merely busy, and spills to
/// the shallowest queue the moment real waiting would start stacking —
/// at the matrix's ~0.3 utilization that preserves most of the affinity
/// win without giving up work conservation.
pub const DEFAULT_MRU_LOAD_BOUND: usize = 1;

/// The cross-backend policy rungs, in decreasing shared-state coupling.
///
/// The first three are the paper's comparison; the last two are the
/// policies added on top of the unified decision layer, implemented once
/// in `afs-sched` and runnable on both backends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicySpec {
    /// The affinity-oblivious baseline: any packet lands on any
    /// processor with no regard for cache state (native: uniform random
    /// placement + rotating shared thread pool; simulator:
    /// `Locking/baseline`).
    Oblivious,
    /// One shared stack behind locks with a work-conserving shared run
    /// pool and per-processor threads (native: a pool claimed in virtual
    /// order on the dispatcher + per-worker threads; simulator:
    /// `Locking/pools`, the paper's footnote 7).
    Locking,
    /// Independent per-processor protocol stacks with affinity-preserving
    /// scheduling (native: pinned per-worker pools + bounded stealing;
    /// simulator: `IPS/mru` with one stack per processor).
    Ips,
    /// MRU with a load threshold ([`LockPolicy::MruLoad`]): packets
    /// follow their stream's last processor until its backlog exceeds
    /// [`DEFAULT_MRU_LOAD_BOUND`], then overflow to the shallowest
    /// queue. Enqueue-routed on both backends.
    MruLoad,
    /// Minimum-expected-reload ([`LockPolicy::MinReload`]): packets go
    /// to the processor minimizing the priced reload transient plus a
    /// backlog waiting term. Enqueue-routed on both backends.
    MinReload,
}

impl PolicySpec {
    /// Every rung, in the order reports print them.
    pub const ALL: [PolicySpec; 5] = [
        PolicySpec::Oblivious,
        PolicySpec::Locking,
        PolicySpec::Ips,
        PolicySpec::MruLoad,
        PolicySpec::MinReload,
    ];

    /// Short label for tables and CSV columns.
    pub fn label(&self) -> &'static str {
        match self {
            PolicySpec::Oblivious => "oblivious",
            PolicySpec::Locking => "locking",
            PolicySpec::Ips => "ips",
            PolicySpec::MruLoad => "mru-load",
            PolicySpec::MinReload => "min-reload",
        }
    }

    /// The simulator paradigm for this rung on a `workers`-processor
    /// host.
    pub fn sim_paradigm(&self, workers: usize) -> Paradigm {
        match self {
            PolicySpec::Oblivious => Paradigm::Locking {
                policy: LockPolicy::Baseline,
            },
            PolicySpec::Locking => Paradigm::Locking {
                policy: LockPolicy::Pools,
            },
            PolicySpec::Ips => Paradigm::Ips {
                policy: IpsPolicy::Mru,
                n_stacks: workers,
            },
            PolicySpec::MruLoad => Paradigm::Locking {
                policy: LockPolicy::MruLoad {
                    max_backlog: DEFAULT_MRU_LOAD_BOUND,
                },
            },
            PolicySpec::MinReload => Paradigm::Locking {
                policy: LockPolicy::MinReload,
            },
        }
    }

    /// The native runtime's structural layout for this rung.
    pub fn native_layout(&self) -> NativeLayout {
        match self {
            PolicySpec::Oblivious => NativeLayout {
                shared_stack: true,
                pooled_queue: false,
                rotating_threads: true,
                steal: None,
                router: Router::RandomWorker,
            },
            PolicySpec::Locking => NativeLayout {
                shared_stack: true,
                pooled_queue: true,
                rotating_threads: false,
                steal: None,
                router: Router::SharedQueue,
            },
            PolicySpec::Ips => NativeLayout {
                shared_stack: false,
                pooled_queue: false,
                rotating_threads: false,
                steal: Some(StealPolicy::default()),
                router: Router::StreamOwner,
            },
            PolicySpec::MruLoad => NativeLayout {
                shared_stack: true,
                pooled_queue: false,
                rotating_threads: false,
                steal: None,
                router: Router::MruLoad {
                    max_backlog: DEFAULT_MRU_LOAD_BOUND,
                },
            },
            PolicySpec::MinReload => NativeLayout {
                shared_stack: true,
                pooled_queue: false,
                rotating_threads: false,
                steal: None,
                router: Router::MinReload,
            },
        }
    }
}

/// The structural knobs of one native run, derived from a
/// [`PolicySpec`]. The runtime consumes these flags and the
/// policy objects — it contains no policy `match` of its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NativeLayout {
    /// One shared locked engine (`true`) vs. one lock-free engine per
    /// worker (`false`).
    pub shared_stack: bool,
    /// A work-conserving shared pool (`true`) vs. per-worker queues.
    /// Every layout has one ring per worker; a pooled packet's worker is
    /// named on the dispatcher by [`ClaimTable::pooled`](crate::ClaimTable::pooled).
    pub pooled_queue: bool,
    /// Pool threads rotate across packets (`true`, the Baseline's
    /// shared FIFO pool) vs. each worker running its own thread.
    pub rotating_threads: bool,
    /// Bounded work stealing, if any (`None` disables it).
    pub steal: Option<StealPolicy>,
    /// The dispatcher's routing policy.
    pub router: Router,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for p in PolicySpec::ALL {
            assert!(seen.insert(p.label()), "duplicate label {}", p.label());
        }
        assert_eq!(PolicySpec::ALL.len(), 5);
    }

    #[test]
    fn sim_paradigms_match_rungs() {
        assert!(PolicySpec::Oblivious.sim_paradigm(4).is_locking());
        assert!(PolicySpec::MruLoad.sim_paradigm(4).is_locking());
        assert!(PolicySpec::MinReload.sim_paradigm(4).is_locking());
        match PolicySpec::Ips.sim_paradigm(4) {
            Paradigm::Ips { n_stacks, .. } => assert_eq!(n_stacks, 4),
            _ => panic!("IPS rung must map to the IPS paradigm"),
        }
    }

    #[test]
    fn native_layouts_are_structurally_sound() {
        for p in PolicySpec::ALL {
            let l = p.native_layout();
            // A pooled queue only makes sense over a shared stack, and
            // stealing only over per-worker stacks.
            assert!(!l.pooled_queue || l.shared_stack, "{p:?}");
            assert!(l.steal.is_none() || !l.shared_stack, "{p:?}");
        }
        assert_eq!(
            PolicySpec::Ips.native_layout().steal,
            Some(StealPolicy::default())
        );
    }
}
