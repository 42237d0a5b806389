//! NIC-dispatch front-ends: how an arriving packet is steered to a
//! worker queue *before* any scheduler sees it.
//!
//! Real hosts do not route each packet through a scheduling policy —
//! the NIC picks a receive queue first, and that choice is itself a
//! scheduling policy with its own affinity behavior. Three front-ends
//! are implemented once here and consumed by both backends:
//!
//! * [`FrontEndKind::Rss`] — receive-side scaling: a static hash of the
//!   flow id over the live workers. Every packet of a flow lands on the
//!   same queue, so per-flow order is preserved structurally; the cost
//!   is that placement ignores both load and the core actually
//!   consuming the flow.
//! * [`FrontEndKind::FlowDirector`] — an Intel Flow-Director-style
//!   *learning* table: a bounded [`HashedLru`] maps a flow to the queue
//!   of the core that last **completed** one of its packets. A lookup
//!   miss (flow never learned, or its entry evicted) routes through the
//!   configured fallback [`Router`] instead. Because the table rebinds
//!   a flow mid-burst — packets already queued on the old core race
//!   packets steered to the new one — this front-end deliberately
//!   reproduces the packet-reordering pathology analyzed by Wu et al.
//!   ("Why Does Flow Director Cause Packet Reordering?").
//! * [`FrontEndKind::TransportFriendly`] — the "transport-friendly NIC"
//!   remedy: the *host* pins each flow to the core that consumes it at
//!   first placement, and the binding never changes while the flow
//!   lives. The steering memory is the transport's own per-connection
//!   state (a dense table owned by the host, not a bounded NIC cache),
//!   so stickiness cannot be evicted away and per-flow order is again
//!   structural.
//!
//! Front-end routing is deterministic in the same sense as every other
//! decision in this crate: a pure function of `(state, view, flow)`
//! plus caller-supplied draws (consumed only by a randomized fallback
//! router on table misses).

use afs_cache::model::pricer::DispatchPricer;

use crate::decision::Route;
use crate::lru::HashedLru;
use crate::policy::{next_live, DrawFn};
use crate::router::Router;
use crate::view::SchedView;

/// Sentinel for "flow never routed" in the dense last-route table.
const UNROUTED: u32 = u32::MAX;

/// The three NIC front-end flavors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrontEndKind {
    /// Static hash of the flow id over the live workers.
    Rss,
    /// Bounded learning table rebinding a flow to its last consuming
    /// core (reordering pathology included).
    FlowDirector,
    /// Host-pinned: first placement sticks for the flow's lifetime.
    TransportFriendly,
}

impl FrontEndKind {
    /// All kinds, in sweep order.
    pub const ALL: [FrontEndKind; 3] = [
        FrontEndKind::Rss,
        FrontEndKind::FlowDirector,
        FrontEndKind::TransportFriendly,
    ];

    /// Short stable label for CSV rows.
    pub fn label(self) -> &'static str {
        match self {
            FrontEndKind::Rss => "rss",
            FrontEndKind::FlowDirector => "fdir",
            FrontEndKind::TransportFriendly => "transport",
        }
    }
}

/// Static configuration of one front-end instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrontEndConfig {
    /// Which steering discipline.
    pub kind: FrontEndKind,
    /// Capacity of the Flow-Director learning table. Sized far below
    /// the flow population in the million-stream experiments, so
    /// evictions — and the re-learning churn they cause — actually
    /// happen. Ignored by the other kinds.
    pub table_capacity: usize,
    /// Salt mixed into the RSS hash (models the random key real NICs
    /// generate at boot; fixed per run for determinism).
    pub salt: u64,
}

/// A front-end plus the fallback router its table misses route through.
///
/// The fallback is the *policy axis* of the front-end experiments: the
/// same front-end is swept against oblivious-random, load-bounded-MRU,
/// priced-min-reload and shared-pool miss paths. A
/// [`Router::SharedQueue`] fallback hands the missing flow to the
/// backend's pooled claim arbitration ([`crate::ClaimTable`]) instead
/// of naming a worker — the claimant is resolved in virtual order and
/// reported back through [`FrontEndState::note_placement`], which keeps
/// the rebind ledger (and the transport-friendly pin) exact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrontEndPlan {
    /// The steering discipline.
    pub config: FrontEndConfig,
    /// Router consulted when the front-end has no binding for a flow.
    pub fallback: Router,
}

impl FrontEndPlan {
    /// A plan with the default salt.
    pub fn new(kind: FrontEndKind, table_capacity: usize, fallback: Router) -> Self {
        FrontEndPlan {
            config: FrontEndConfig {
                kind,
                table_capacity,
                salt: 0x5EED_0F10,
            },
            fallback,
        }
    }

    /// Panics unless the plan is internally consistent (positive table
    /// capacity).
    pub fn validate(&self) {
        assert!(
            self.config.table_capacity >= 1,
            "front-end table capacity must be at least 1"
        );
    }
}

/// The mutable routing state of one front-end over one run.
#[derive(Debug, Clone)]
pub struct FrontEndState {
    plan: FrontEndPlan,
    /// Flow → bound queue, for [`FrontEndKind::FlowDirector`].
    table: HashedLru<u32>,
    /// Flow → last routed worker (dense; the transport-friendly
    /// steering memory and the rebind ledger for every kind).
    last_route: Vec<u32>,
    /// Routed packets whose worker differed from the flow's previous
    /// one — each is a potential reordering point.
    pub rebinds: u64,
    /// Transport-friendly first placements (its "miss" analogue).
    first_placements: u64,
}

impl FrontEndState {
    /// Fresh state for `plan`.
    pub fn new(plan: FrontEndPlan) -> Self {
        plan.validate();
        FrontEndState {
            plan,
            table: HashedLru::new(plan.config.table_capacity),
            last_route: Vec::new(),
            rebinds: 0,
            first_placements: 0,
        }
    }

    /// The plan this state was built from.
    pub fn plan(&self) -> &FrontEndPlan {
        &self.plan
    }

    /// Pre-size the steering memory for flows `0..n` so steady-state
    /// routing never grows it — the serving path's allocation-free
    /// contract. Behaviour-neutral: an absent entry and a pre-sized
    /// `UNROUTED` entry read identically.
    pub fn reserve_flows(&mut self, n: u32) {
        if self.last_route.len() < n as usize {
            self.last_route.resize(n as usize, UNROUTED);
        }
    }

    /// Whether completions must be fed back via
    /// [`FrontEndState::note_complete`] (only Flow Director learns).
    pub fn wants_completion_feedback(&self) -> bool {
        self.plan.config.kind == FrontEndKind::FlowDirector
    }

    /// Steering-table misses: learning-table lookup misses for Flow
    /// Director, first placements for the transport-friendly pin, zero
    /// for RSS (it has no table).
    pub fn table_misses(&self) -> u64 {
        match self.plan.config.kind {
            FrontEndKind::Rss => 0,
            FrontEndKind::FlowDirector => self.table.stats.misses,
            FrontEndKind::TransportFriendly => self.first_placements,
        }
    }

    /// Steering-table hits (Flow Director only; the sticky pin's reuse
    /// of its binding is not a bounded-table hit).
    pub fn table_hits(&self) -> u64 {
        match self.plan.config.kind {
            FrontEndKind::FlowDirector => self.table.stats.hits,
            _ => 0,
        }
    }

    #[inline]
    fn last_routed(&self, flow: u32) -> Option<usize> {
        match self.last_route.get(flow as usize) {
            Some(&w) if w != UNROUTED => Some(w as usize),
            _ => None,
        }
    }

    /// The worker `flow`'s previous packet was routed to, if any —
    /// read *before* [`FrontEndState::route`] to attribute a rebind's
    /// `from` side in the observability trace.
    pub fn previous_route(&self, flow: u32) -> Option<usize> {
        self.last_routed(flow)
    }

    /// Record that a packet of `flow` was placed on `worker`, updating
    /// the rebind ledger and the steering memory (the transport-
    /// friendly pin and the rebind `from` side). Called internally for
    /// every worker-routed packet; callers resolving a
    /// [`Route::Shared`] steer through the pooled claim table must call
    /// it themselves once the claimant is known, so ledger and pin see
    /// the *actual* placement.
    pub fn note_placement(&mut self, flow: u32, worker: usize) {
        let s = flow as usize;
        if s >= self.last_route.len() {
            self.last_route.resize(s + 1, UNROUTED);
        }
        let prev = self.last_route[s];
        if prev != UNROUTED && prev as usize != worker {
            self.rebinds += 1;
        }
        self.last_route[s] = worker as u32;
    }

    /// Steer one packet of `flow`. `draw` is consumed only by a
    /// randomized fallback router, and only on misses. Steering hits
    /// always name a worker; a miss through a [`Router::SharedQueue`]
    /// fallback returns [`Route::Shared`] — the caller resolves the
    /// claimant (pooled claim arbitration) and reports it back via
    /// [`FrontEndState::note_placement`].
    pub fn route_flow<V: SchedView + ?Sized>(
        &mut self,
        view: &V,
        flow: u32,
        draw: DrawFn,
        pricer: &DispatchPricer,
    ) -> Route {
        let target = match self.plan.config.kind {
            FrontEndKind::Rss => {
                let n = view.n_workers();
                let h = crate::lru::splitmix64(flow as u64 ^ self.plan.config.salt);
                Route::Worker(next_live(view, (h % n as u64) as usize))
            }
            FrontEndKind::FlowDirector => match self.table.get(flow as u64) {
                Some(w) => Route::Worker(next_live(view, w as usize)),
                None => self.plan.fallback.route(view, flow, draw, pricer),
            },
            FrontEndKind::TransportFriendly => match self.last_routed(flow) {
                Some(w) => Route::Worker(next_live(view, w)),
                None => {
                    self.first_placements += 1;
                    self.plan.fallback.route(view, flow, draw, pricer)
                }
            },
        };
        if let Route::Worker(w) = target {
            self.note_placement(flow, w);
        }
        target
    }

    /// Steer one packet of `flow` to a worker queue — the worker-only
    /// wrapper over [`FrontEndState::route_flow`] for plans whose
    /// fallback never routes to the shared pool.
    pub fn route<V: SchedView + ?Sized>(
        &mut self,
        view: &V,
        flow: u32,
        draw: DrawFn,
        pricer: &DispatchPricer,
    ) -> usize {
        match self.route_flow(view, flow, draw, pricer) {
            Route::Worker(w) => w,
            Route::Shared => unreachable!(
                "worker-routing fallback never reaches the shared pool; \
                 pooled plans must call route_flow"
            ),
        }
    }

    /// Feed one completion back: `worker` finished a packet of `flow`.
    /// Flow Director (re)learns the binding from it — the "last core
    /// that transmitted" signal driving its mid-burst migrations. The
    /// other kinds ignore completions.
    pub fn note_complete(&mut self, flow: u32, worker: u32) {
        if self.plan.config.kind == FrontEndKind::FlowDirector {
            self.table.insert(flow as u64, worker);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::tests::{test_model, TestView};

    fn pricer() -> DispatchPricer {
        DispatchPricer::new(&test_model())
    }

    fn view(n: usize) -> TestView {
        TestView::idle(n)
    }

    fn no_draw(_: usize) -> usize {
        unreachable!("this path draws no randomness")
    }

    #[test]
    fn rss_is_static_and_never_rebinds() {
        let p = pricer();
        let v = view(4);
        let mut fe = FrontEndState::new(FrontEndPlan::new(
            FrontEndKind::Rss,
            8,
            Router::MruLoad { max_backlog: 1 },
        ));
        let mut first = Vec::new();
        for flow in 0..32u32 {
            first.push(fe.route(&v, flow, &mut no_draw, &p));
        }
        for flow in 0..32u32 {
            assert_eq!(fe.route(&v, flow, &mut no_draw, &p), first[flow as usize]);
        }
        assert_eq!(fe.rebinds, 0);
        assert_eq!(fe.table_misses(), 0);
        // The hash actually spreads flows over queues.
        let mut used = [false; 4];
        for &w in &first {
            used[w] = true;
        }
        assert!(used.iter().filter(|&&u| u).count() >= 2);
    }

    #[test]
    fn flow_director_learns_from_completions_and_rebinds() {
        let p = pricer();
        let v = view(4);
        let mut fe = FrontEndState::new(FrontEndPlan::new(
            FrontEndKind::FlowDirector,
            8,
            Router::StreamOwner,
        ));
        assert!(fe.wants_completion_feedback());
        // Miss path: StreamOwner sends flow 1 to worker 1.
        assert_eq!(fe.route(&v, 1, &mut no_draw, &p), 1);
        assert_eq!(fe.table_misses(), 1);
        // Worker 3 completes a packet of flow 1 → table rebinds it.
        fe.note_complete(1, 3);
        assert_eq!(fe.route(&v, 1, &mut no_draw, &p), 3);
        assert_eq!(fe.table_hits(), 1);
        assert_eq!(fe.rebinds, 1);
    }

    #[test]
    fn flow_director_eviction_reopens_the_miss_path() {
        let p = pricer();
        let v = view(2);
        let mut fe = FrontEndState::new(FrontEndPlan::new(
            FrontEndKind::FlowDirector,
            1,
            Router::StreamOwner,
        ));
        fe.note_complete(0, 1);
        fe.note_complete(1, 1); // capacity 1: evicts flow 0's binding
                                // Flow 0 misses again and falls back to its static owner.
        assert_eq!(fe.route(&v, 0, &mut no_draw, &p), 0);
        assert_eq!(fe.table_misses(), 1);
    }

    #[test]
    fn transport_friendly_pins_first_placement_forever() {
        let p = pricer();
        let v = view(4);
        let mut fe = FrontEndState::new(FrontEndPlan::new(
            FrontEndKind::TransportFriendly,
            1, // bounded table irrelevant: the pin is host-side
            Router::StreamOwner,
        ));
        assert!(!fe.wants_completion_feedback());
        let w = fe.route(&v, 7, &mut no_draw, &p);
        assert_eq!(fe.table_misses(), 1);
        // Completions elsewhere do not move the pin.
        fe.note_complete(7, ((w + 1) % 4) as u32);
        for _ in 0..10 {
            assert_eq!(fe.route(&v, 7, &mut no_draw, &p), w);
        }
        assert_eq!(fe.rebinds, 0);
        assert_eq!(fe.table_misses(), 1);
    }

    #[test]
    fn dead_workers_are_masked_out() {
        let p = pricer();
        let mut v = view(4);
        let mut fe =
            FrontEndState::new(FrontEndPlan::new(FrontEndKind::Rss, 8, Router::StreamOwner));
        let w = fe.route(&v, 5, &mut no_draw, &p);
        v.live[w] = false;
        let w2 = fe.route(&v, 5, &mut no_draw, &p);
        assert_ne!(w, w2);
        assert!(v.live[w2]);
        assert_eq!(fe.rebinds, 1);
    }

    #[test]
    fn shared_queue_fallback_defers_to_claim_resolution() {
        let p = pricer();
        let v = view(4);
        let mut fe = FrontEndState::new(FrontEndPlan::new(
            FrontEndKind::FlowDirector,
            8,
            Router::SharedQueue,
        ));
        // Miss: the pooled fallback names no worker — the caller's
        // claim table decides.
        assert_eq!(fe.route_flow(&v, 1, &mut no_draw, &p), Route::Shared);
        assert_eq!(fe.table_misses(), 1);
        assert_eq!(fe.rebinds, 0);
        // The caller resolves the claim on worker 2 and reports it.
        fe.note_placement(1, 2);
        assert_eq!(fe.previous_route(1), Some(2));
        // A learned binding steers around the pool; moving placements
        // still land in the rebind ledger.
        fe.note_complete(1, 3);
        assert_eq!(fe.route_flow(&v, 1, &mut no_draw, &p), Route::Worker(3));
        assert_eq!(fe.rebinds, 1);
    }
}
