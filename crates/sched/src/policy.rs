//! The [`DispatchPolicy`] trait and every policy's decision procedure.
//!
//! Policies are pure: they read a [`SchedView`], optionally pull uniform
//! draws through a caller-supplied closure (the backend owns the RNG and
//! its stream order), and return typed decisions. Nothing here mutates
//! backend state, advances a clock, or remembers anything between calls.

use afs_cache::model::pricer::DispatchPricer;

use crate::decision::{Assignment, Route, StealDecision, ThreadSource};
use crate::paradigm::{IpsPolicy, LockPolicy};
use crate::view::SchedView;

/// A uniform draw: `draw(n)` returns a value in `0..n`. Policies call it
/// at most when a random choice is actually available, preserving the
/// backend's exact RNG draw order across refactors.
pub type DrawFn<'a> = &'a mut dyn FnMut(usize) -> usize;

/// One scheduling policy's decision procedures, shared by the simulator
/// and the native runtime.
///
/// The three methods mirror the three moments a backend consults its
/// policy: routing an arrival ([`route`](DispatchPolicy::route)),
/// picking a worker for the head of a shared queue
/// ([`select`](DispatchPolicy::select)), and relieving a backlog
/// ([`steal`](DispatchPolicy::steal)). Defaults are the no-op decision
/// so each policy implements only the moments it participates in.
pub trait DispatchPolicy {
    /// Whether this policy maintains per-worker queues that workers
    /// serve directly (the wired family and the enqueue-routed
    /// policies). Backends use this to run their worker-queue scan.
    fn uses_worker_queues(&self) -> bool {
        false
    }

    /// Route an arriving packet of `entity` to a queue. Policies that
    /// dispatch from the shared queue return [`Route::Shared`].
    fn route<V: SchedView + ?Sized>(&self, view: &V, entity: u32, draw: DrawFn) -> Route {
        let _ = (view, entity, draw);
        Route::Shared
    }

    /// Pick a worker (and thread source) for the shared-queue head
    /// belonging to `entity`; `None` stalls the dispatch (no eligible
    /// worker, or the policy never serves the shared queue).
    fn select<V: SchedView + ?Sized>(
        &self,
        view: &V,
        entity: u32,
        draw: DrawFn,
    ) -> Option<Assignment> {
        let _ = (view, entity, draw);
        None
    }

    /// Pick a steal victim for idle worker `thief`, if the policy
    /// steals at all.
    fn steal<V: SchedView + ?Sized>(&self, view: &V, thief: usize) -> Option<StealDecision> {
        let _ = (view, thief);
        None
    }
}

/// A uniformly random idle worker — the affinity-oblivious placement.
///
/// Exactly one `draw(idle_count)` is consumed, and only when at least
/// one live worker is idle (count-then-select, allocation-free). Dead
/// or stalled workers are excluded from both the count and the
/// selection, so masking never perturbs the draw sequence seen for
/// live-worker choices: with everything live the count — and therefore
/// every draw — is bit-identical to the pre-fault-layer scan.
pub fn random_idle<V: SchedView + ?Sized>(view: &V, draw: DrawFn) -> Option<usize> {
    let eligible = |w: &usize| view.is_idle(*w) && view.is_live(*w);
    let idle_count = (0..view.n_workers()).filter(eligible).count();
    if idle_count == 0 {
        return None;
    }
    let k = draw(idle_count);
    (0..view.n_workers()).filter(eligible).nth(k)
}

/// The live idle worker with the *newest* protocol activity (the best
/// fallback when the preferred worker is busy). Never-protocol workers
/// rank lowest; ties break toward the lowest index.
pub fn newest_idle<V: SchedView + ?Sized>(view: &V) -> Option<usize> {
    (0..view.n_workers())
        .filter(|&w| view.is_idle(w) && view.is_live(w))
        .max_by_key(|&w| {
            (
                view.last_protocol_end(w)
                    .map(|t| (t as i128) + 1)
                    .unwrap_or(0),
                usize::MAX - w,
            )
        })
}

/// MRU choice for an entity: its last worker if live and idle, else the
/// newest-protocol live idle worker.
fn mru_choice<V: SchedView + ?Sized>(view: &V, entity: u32) -> Option<usize> {
    if let Some(last) = view.last_worker(entity) {
        if view.is_idle(last) && view.is_live(last) {
            return Some(last);
        }
    }
    newest_idle(view)
}

/// The preferred worker if live, else the next live worker cyclically
/// upward — the degraded-mode fallback for statically wired routes.
/// With everything live this is the identity on `preferred`.
pub fn next_live<V: SchedView + ?Sized>(view: &V, preferred: usize) -> usize {
    let n = view.n_workers().max(1);
    let preferred = preferred % n;
    (0..n)
        .map(|k| (preferred + k) % n)
        .find(|&w| view.is_live(w))
        .unwrap_or(preferred)
}

/// The live worker with the shallowest queue (lowest index on ties).
pub fn shallowest_queue<V: SchedView + ?Sized>(view: &V) -> usize {
    (0..view.n_workers())
        .filter(|&w| view.is_live(w))
        .min_by_key(|&w| (view.queue_depth(w), w))
        .unwrap_or(0)
}

/// MRU-with-load-threshold routing: the entity's last worker while it
/// is live and its backlog is within `max_backlog`, else the shallowest
/// live queue. A dead last worker is treated as no history.
pub fn mru_load_route<V: SchedView + ?Sized>(view: &V, entity: u32, max_backlog: usize) -> usize {
    if let Some(w) = view.last_worker(entity) {
        if view.is_live(w) && view.queue_depth(w) <= max_backlog {
            return w;
        }
    }
    shallowest_queue(view)
}

/// Minimum-expected-reload routing: argmin over live workers of the
/// priced reload transient for the entity's component ages on that
/// worker, plus one warm protocol service per queued packet of backlog
/// (the waiting cost that keeps affinity from collapsing onto one
/// worker), all scaled by the worker's service multiplier so degraded
/// cores price honestly. Strict `<` comparison keeps the lowest index
/// on exact ties; with every worker live at nominal speed the costs —
/// and the argmin — are bit-identical to the unscaled scan.
pub fn min_reload_route<V: SchedView + ?Sized>(
    view: &V,
    entity: u32,
    pricer: &DispatchPricer,
) -> usize {
    let mut best = 0usize;
    let mut best_cost = f64::INFINITY;
    for w in 0..view.n_workers() {
        if !view.is_live(w) {
            continue;
        }
        let reload_us = pricer
            .protocol_time(view.ages_on(w, entity))
            .as_micros_f64();
        let wait_us = view.queue_depth(w) as f64 * pricer.t_warm_us();
        let cost = view.service_scale(w) * (reload_us + wait_us);
        if cost < best_cost {
            best_cost = cost;
            best = w;
        }
    }
    best
}

/// The Locking paradigm's dispatch engine: borrows the policy (the
/// Hybrid wired mask lives in configuration) and the run's pricer (for
/// [`LockPolicy::MinReload`]).
#[derive(Debug, Clone, Copy)]
pub struct LockingDispatch<'p> {
    /// The configured Locking policy.
    pub policy: &'p LockPolicy,
    /// The run's reload-transient pricer.
    pub pricer: &'p DispatchPricer,
}

impl DispatchPolicy for LockingDispatch<'_> {
    fn uses_worker_queues(&self) -> bool {
        matches!(
            self.policy,
            LockPolicy::Wired
                | LockPolicy::Hybrid { .. }
                | LockPolicy::MruLoad { .. }
                | LockPolicy::MinReload
        )
    }

    fn route<V: SchedView + ?Sized>(&self, view: &V, entity: u32, _draw: DrawFn) -> Route {
        match self.policy {
            // Wired bindings fall through to the next live worker while
            // their home is dead or stalled (identity when all live).
            LockPolicy::Wired => Route::Worker(next_live(view, entity as usize)),
            LockPolicy::Hybrid { wired } if wired[entity as usize] => {
                Route::Worker(next_live(view, entity as usize))
            }
            LockPolicy::MruLoad { max_backlog } => {
                Route::Worker(mru_load_route(view, entity, *max_backlog))
            }
            LockPolicy::MinReload => Route::Worker(min_reload_route(view, entity, self.pricer)),
            _ => Route::Shared,
        }
    }

    fn select<V: SchedView + ?Sized>(
        &self,
        view: &V,
        _entity: u32,
        draw: DrawFn,
    ) -> Option<Assignment> {
        let (worker, thread) = match self.policy {
            LockPolicy::Baseline => (random_idle(view, draw), ThreadSource::SharedPool),
            LockPolicy::Pools => (random_idle(view, draw), ThreadSource::Own),
            // "MRU processor scheduling": run protocol work on the
            // processor that most recently ran protocol code. This
            // concentrates the (dominant) code/global footprint on as
            // few processors as the load requires; per-stream state
            // still bounces, which is what Wired-Streams fixes.
            LockPolicy::Mru | LockPolicy::Hybrid { .. } => (newest_idle(view), ThreadSource::Own),
            // Every packet of these policies lives in a worker queue.
            LockPolicy::Wired | LockPolicy::MruLoad { .. } | LockPolicy::MinReload => {
                (None, ThreadSource::Own)
            }
        };
        worker.map(|worker| Assignment { worker, thread })
    }
}

/// The IPS paradigm's dispatch engine: places runnable *stacks* on idle
/// processors (the entity id is the stack id).
#[derive(Debug, Clone, Copy)]
pub struct IpsDispatch {
    /// The configured IPS policy.
    pub policy: IpsPolicy,
}

impl DispatchPolicy for IpsDispatch {
    fn select<V: SchedView + ?Sized>(
        &self,
        view: &V,
        stack: u32,
        draw: DrawFn,
    ) -> Option<Assignment> {
        let worker = match self.policy {
            IpsPolicy::Wired => {
                let target = next_live(view, stack as usize);
                (view.is_idle(target) && view.is_live(target)).then_some(target)
            }
            IpsPolicy::Mru => mru_choice(view, stack),
            IpsPolicy::Random => random_idle(view, draw),
        };
        worker.map(|worker| Assignment {
            worker,
            thread: ThreadSource::Own,
        })
    }
}

/// Bounds on the IPS work-stealing escape hatch: affinity-preserving
/// scheduling must not leave processors idle while others drown, but
/// unbounded stealing would collapse IPS back into the oblivious pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StealPolicy {
    /// A victim is eligible only when its backlog is at least this deep
    /// (stealing from a shallow queue trades a cache reload for almost
    /// no queueing relief).
    pub threshold: usize,
    /// At most this many packets are taken per steal visit.
    pub max_batch: usize,
}

impl Default for StealPolicy {
    fn default() -> Self {
        StealPolicy {
            threshold: 2,
            max_batch: 2,
        }
    }
}

impl DispatchPolicy for StealPolicy {
    /// Pick the deepest eligible victim that is *virtually* behind the
    /// thief (its published clock exceeding the thief's means its
    /// backlog is real waiting work, not future arrivals a dispatcher
    /// pre-staged). Highest index wins depth ties, matching the
    /// historical scan.
    fn steal<V: SchedView + ?Sized>(&self, view: &V, thief: usize) -> Option<StealDecision> {
        let my_bits = view.vclock_bits(thief);
        let mut victim = None;
        let mut deepest = self.threshold.max(1);
        for v in 0..view.n_workers() {
            if v == thief || !view.is_live(v) {
                continue;
            }
            let depth = view.queue_depth(v);
            if depth >= deepest && view.vclock_bits(v) > my_bits {
                deepest = depth;
                victim = Some(v);
            }
        }
        victim.map(|victim| StealDecision {
            victim,
            max_batch: self.max_batch.max(1),
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use afs_cache::model::exec_time::ExecTimeModel;
    use afs_cache::model::exec_time::{Age, ComponentAges, ComponentWeights, TimeBounds};
    use afs_cache::model::footprint::MVS_WORKLOAD;
    use afs_cache::model::hierarchy::FlushModel;
    use afs_cache::model::platform::Platform;

    pub(crate) fn test_model() -> ExecTimeModel {
        ExecTimeModel::new(
            TimeBounds::new(150.0, 185.0, 284.3),
            FlushModel::new(Platform::sgi_challenge_r4400(), MVS_WORKLOAD),
            ComponentWeights::nominal(),
        )
    }

    /// A plain-struct view for decision unit tests.
    pub(crate) struct TestView {
        pub idle: Vec<bool>,
        pub ends: Vec<Option<u64>>,
        pub depths: Vec<usize>,
        pub last: Vec<Option<usize>>,
        pub vclocks: Vec<u64>,
        pub live: Vec<bool>,
        pub scale: Vec<f64>,
    }

    impl TestView {
        pub fn idle(n: usize) -> Self {
            TestView {
                idle: vec![true; n],
                ends: vec![None; n],
                depths: vec![0; n],
                last: vec![None; 64],
                vclocks: vec![0; n],
                live: vec![true; n],
                scale: vec![1.0; n],
            }
        }
    }

    impl SchedView for TestView {
        fn n_workers(&self) -> usize {
            self.idle.len()
        }
        fn is_idle(&self, w: usize) -> bool {
            self.idle[w]
        }
        fn last_protocol_end(&self, w: usize) -> Option<u64> {
            self.ends[w]
        }
        fn queue_depth(&self, w: usize) -> usize {
            self.depths[w]
        }
        fn last_worker(&self, entity: u32) -> Option<usize> {
            self.last[entity as usize]
        }
        fn ages_on(&self, w: usize, entity: u32) -> ComponentAges {
            ComponentAges {
                code_global: Age::Warm,
                thread: Age::Warm,
                stream: match self.last[entity as usize] {
                    None => Age::Cold,
                    Some(p) if p == w => Age::Warm,
                    Some(_) => Age::Remote,
                },
            }
        }
        fn vclock_bits(&self, w: usize) -> u64 {
            self.vclocks[w]
        }
        fn is_live(&self, w: usize) -> bool {
            self.live[w]
        }
        fn service_scale(&self, w: usize) -> f64 {
            self.scale[w]
        }
    }

    #[test]
    fn random_idle_draws_only_with_idle_workers() {
        let mut v = TestView::idle(4);
        let mut draws = 0usize;
        let mut draw = |n: usize| {
            draws += 1;
            n - 1
        };
        assert_eq!(random_idle(&v, &mut draw), Some(3));
        v.idle = vec![false; 4];
        assert_eq!(random_idle(&v, &mut draw), None);
        assert_eq!(draws, 1, "no draw when nothing is idle");
    }

    #[test]
    fn newest_idle_prefers_recent_protocol_then_low_index() {
        let mut v = TestView::idle(3);
        assert_eq!(newest_idle(&v), Some(0), "all-never ties break low");
        v.ends = vec![Some(5), Some(9), None];
        assert_eq!(newest_idle(&v), Some(1));
        v.idle[1] = false;
        assert_eq!(newest_idle(&v), Some(0));
    }

    #[test]
    fn mru_load_spills_past_the_bound() {
        let mut v = TestView::idle(3);
        v.last[7] = Some(2);
        v.depths = vec![4, 1, 2];
        assert_eq!(mru_load_route(&v, 7, 2), 2, "within bound: stay affine");
        v.depths[2] = 3;
        assert_eq!(mru_load_route(&v, 7, 2), 1, "over bound: shallowest");
        assert_eq!(mru_load_route(&v, 9, 2), 1, "no history: shallowest");
    }

    #[test]
    fn min_reload_trades_affinity_against_backlog() {
        let pricer = DispatchPricer::new(&test_model());
        let mut v = TestView::idle(2);
        v.last[3] = Some(1);
        assert_eq!(min_reload_route(&v, 3, &pricer), 1, "warm worker wins");
        // Pile enough backlog on the affine worker and the reload
        // becomes cheaper than the wait.
        v.depths[1] = 64;
        assert_eq!(min_reload_route(&v, 3, &pricer), 0);
        // Cold everywhere: equal cost, lowest index.
        assert_eq!(min_reload_route(&v, 5, &pricer), 0);
    }

    #[test]
    fn steal_respects_threshold_and_vclock_gate() {
        let sp = StealPolicy::default();
        let mut v = TestView::idle(3);
        v.depths = vec![0, 5, 3];
        v.vclocks = vec![10, 20, 30];
        let d = sp.steal(&v, 0).expect("victim available");
        assert_eq!(d.victim, 1);
        assert_eq!(d.max_batch, 2);
        // Virtually ahead victims are ineligible.
        v.vclocks = vec![40, 20, 30];
        assert!(sp.steal(&v, 0).is_none());
        // Shallow queues are ineligible.
        v.vclocks = vec![10, 20, 30];
        v.depths = vec![0, 1, 1];
        assert!(sp.steal(&v, 0).is_none());
    }

    #[test]
    fn masked_workers_are_skipped_without_extra_draws() {
        let mut v = TestView::idle(4);
        v.live = vec![true, false, true, true];
        let mut draws = Vec::new();
        let mut draw = |n: usize| {
            draws.push(n);
            n - 1
        };
        // The dead worker is excluded from the idle count: one draw
        // over the three live workers, never landing on worker 1.
        assert_eq!(random_idle(&v, &mut draw), Some(3));
        assert_eq!(draws, vec![3]);
        assert_eq!(newest_idle(&v), Some(0));
        v.depths = vec![5, 0, 2, 4];
        assert_eq!(shallowest_queue(&v), 2, "dead empty queue is skipped");
        // A dead last worker is no history: spill to shallowest live.
        v.last[7] = Some(1);
        assert_eq!(mru_load_route(&v, 7, 8), 2);
        // Wired bindings fall through to the next live worker.
        assert_eq!(next_live(&v, 1), 2);
        assert_eq!(next_live(&v, 5), 2);
        assert_eq!(next_live(&v, 0), 0);
    }

    #[test]
    fn steal_and_min_reload_respect_mask_and_scale() {
        let pricer = DispatchPricer::new(&test_model());
        let sp = StealPolicy::default();
        let mut v = TestView::idle(3);
        v.depths = vec![0, 5, 3];
        v.vclocks = vec![10, 20, 30];
        // The deepest victim is dead: the scan settles on the live one.
        v.live = vec![true, false, true];
        assert_eq!(sp.steal(&v, 0).expect("live victim").victim, 2);
        // Min-reload never picks a dead worker even when it is the warm
        // one, and a slow scale tips the argmin off a degraded core.
        let mut v = TestView::idle(2);
        v.last[3] = Some(1);
        v.live = vec![true, false];
        assert_eq!(min_reload_route(&v, 3, &pricer), 0);
        v.live = vec![true, true];
        v.scale = vec![1.0, 100.0];
        assert_eq!(min_reload_route(&v, 3, &pricer), 0, "slow core repels");
    }

    #[test]
    fn wired_routing_is_a_pure_modulus() {
        let pricer = DispatchPricer::new(&test_model());
        let policy = LockPolicy::Wired;
        let d = LockingDispatch {
            policy: &policy,
            pricer: &pricer,
        };
        let v = TestView::idle(4);
        let mut no_draw = |_: usize| -> usize { unreachable!("wired routing draws nothing") };
        for s in 0..16u32 {
            assert_eq!(d.route(&v, s, &mut no_draw), Route::Worker(s as usize % 4));
        }
        assert!(d.uses_worker_queues());
        assert!(d.select(&v, 0, &mut no_draw).is_none());
    }
}
