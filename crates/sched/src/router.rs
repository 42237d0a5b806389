//! Enqueue-time routing, for both backends.
//!
//! [`Router`] is the one rule deciding which queue an arriving packet
//! joins. The simulator reaches it through
//! [`LockPolicy::router`](crate::LockPolicy::router) over its own state
//! at the arrival instant.
//!
//! The native backend routes packets *before* they touch a queue, from a
//! single dispatcher thread. Consulting live ring occupancy or worker
//! clocks there would make routing depend on host scheduling races, so
//! the dispatcher instead keeps a [`RouterState`]: a deterministic
//! virtual-load model (last-routed table + per-worker virtual drain
//! clocks) that it updates as it routes. The same [`Router`] policies
//! evaluated over this model produce identical placements on every run
//! with the same workload — which is what cross-validation against the
//! simulator requires.

use afs_cache::model::exec_time::{Age, ComponentAges};
use afs_cache::model::pricer::DispatchPricer;

use crate::decision::Route;
use crate::drain::DrainModel;
use crate::policy::{min_reload_route, mru_load_route, next_live, DrawFn};
use crate::view::SchedView;

/// The enqueue-time routing policy: the native dispatcher's, and the
/// simulator's Locking routing through [`crate::LockPolicy::router`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Router {
    /// A uniformly random worker (one draw per packet) — the oblivious
    /// placement.
    RandomWorker,
    /// The work-conserving shared pool: no worker is named at routing
    /// time; the dispatcher's [`ClaimTable::pooled`](crate::ClaimTable::pooled)
    /// names the claimant and pushes the packet to that worker's ring.
    SharedQueue,
    /// The stream's static owner, `stream mod workers` (the IPS
    /// partition).
    StreamOwner,
    /// [`mru_load_route`] over the dispatcher's virtual view.
    MruLoad {
        /// Backlog bound before spilling to the shallowest queue.
        max_backlog: usize,
    },
    /// [`min_reload_route`] over the dispatcher's virtual view.
    MinReload,
}

impl Router {
    /// Route one packet of `entity` (the stream id). `draw` is consumed
    /// only by [`Router::RandomWorker`], exactly once per packet.
    pub fn route<V: SchedView + ?Sized>(
        &self,
        view: &V,
        entity: u32,
        draw: DrawFn,
        pricer: &DispatchPricer,
    ) -> Route {
        match self {
            Router::RandomWorker => {
                // Draw over the *live* workers only, so dead cores
                // never receive new placements. With everything live
                // the count equals `n_workers()` and the draw — value
                // and sequence position — is exactly the historical one.
                let n = view.n_workers();
                let live = (0..n).filter(|&w| view.is_live(w)).count();
                if live == 0 || live == n {
                    Route::Worker(draw(n))
                } else {
                    let k = draw(live);
                    Route::Worker((0..n).filter(|&w| view.is_live(w)).nth(k).unwrap_or(0))
                }
            }
            Router::SharedQueue => Route::Shared,
            Router::StreamOwner => Route::Worker(next_live(view, entity as usize)),
            Router::MruLoad { max_backlog } => {
                Route::Worker(mru_load_route(view, entity, *max_backlog))
            }
            Router::MinReload => Route::Worker(min_reload_route(view, entity, pricer)),
        }
    }
}

/// The dispatcher-side virtual-load model backing load-aware routing.
///
/// Each routed packet charges its worker one estimated service time on a
/// virtual drain clock; a worker's virtual backlog is how many estimated
/// services its clock sits past "now". The model never reads worker-side
/// state, so routing is a pure function of the (deterministic) workload.
#[derive(Debug, Clone)]
pub struct RouterState {
    /// Worker that last received each stream (grown on demand).
    last: Vec<Option<usize>>,
    /// Each worker's drain clock, charged one estimated service per
    /// routed packet, and the plan-derived liveness mask (never racy
    /// host-side health, so routing stays a pure function of the
    /// workload).
    drain: DrainModel,
}

impl RouterState {
    /// A fresh model for `workers` workers charging `est_service_us` per
    /// routed packet (typically the pricer's warm protocol time).
    pub fn new(workers: usize, est_service_us: f64) -> Self {
        RouterState {
            last: Vec::new(),
            drain: DrainModel::new(workers, est_service_us),
        }
    }

    /// Pre-size the MRU table for flows `0..n` so steady-state routing
    /// never grows it — the serving path's allocation-free contract.
    /// Behaviour-neutral: an absent entry and a pre-sized `None` entry
    /// read identically.
    pub fn reserve_flows(&mut self, n: u32) {
        if self.last.len() < n as usize {
            self.last.resize(n as usize, None);
        }
    }

    /// Mask worker `w` in (`true`) or out (`false`) of routing.
    pub fn set_live(&mut self, w: usize, live: bool) {
        self.drain.live[w] = live;
    }

    /// Whether worker `w` is currently routed to.
    pub fn is_live(&self, w: usize) -> bool {
        self.drain.live.get(w).copied().unwrap_or(true)
    }

    /// Record that a packet of `stream` arriving at `arrival_us` was
    /// routed to worker `w`: update the MRU table and charge `w`'s
    /// virtual drain clock one estimated service.
    pub fn note_routed(&mut self, stream: u32, w: usize, arrival_us: f64) {
        let s = stream as usize;
        if s >= self.last.len() {
            self.last.resize(s + 1, None);
        }
        self.last[s] = Some(w);
        self.drain.charge(w, arrival_us);
    }

    /// The virtual instant worker `w`'s routed backlog drains. Read
    /// right after [`RouterState::note_routed`], this is the modeled
    /// completion time of the packet just routed to `w` — what the
    /// native dispatcher keys its Flow-Director completion-feedback
    /// queue on.
    pub fn vfinish_us(&self, w: usize) -> f64 {
        self.drain.clock_us[w]
    }

    /// The model's [`SchedView`] at virtual time `now_us` (the arrival
    /// timestamp of the packet being routed).
    pub fn view_at(&self, now_us: f64) -> RouterView<'_> {
        RouterView {
            state: self,
            now_us,
        }
    }
}

/// [`RouterState`]'s read window at one arrival instant.
#[derive(Debug, Clone, Copy)]
pub struct RouterView<'s> {
    state: &'s RouterState,
    now_us: f64,
}

impl SchedView for RouterView<'_> {
    fn n_workers(&self) -> usize {
        self.state.drain.clock_us.len()
    }

    fn is_idle(&self, w: usize) -> bool {
        self.state.drain.clock_us[w] <= self.now_us
    }

    fn queue_depth(&self, w: usize) -> usize {
        self.state.drain.backlog(w, self.now_us)
    }

    fn last_worker(&self, entity: u32) -> Option<usize> {
        self.state.last.get(entity as usize).copied().flatten()
    }

    fn is_live(&self, w: usize) -> bool {
        self.state.drain.live[w]
    }

    fn ages_on(&self, w: usize, entity: u32) -> ComponentAges {
        ComponentAges {
            // A worker that ever ran protocol work keeps warm code in
            // this virtual model; per-worker threads stay local.
            code_global: if self.state.drain.clock_us[w] > 0.0 {
                Age::Warm
            } else {
                Age::Cold
            },
            thread: Age::Warm,
            stream: match self.last_worker(entity) {
                None => Age::Cold,
                Some(p) if p == w => Age::Warm,
                Some(_) => Age::Remote,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drain_clocks_model_backlog() {
        let mut st = RouterState::new(2, 10.0);
        st.note_routed(0, 0, 100.0);
        st.note_routed(0, 0, 100.0);
        let v = st.view_at(100.0);
        assert_eq!(v.queue_depth(0), 2);
        assert_eq!(v.queue_depth(1), 0);
        assert!(!v.is_idle(0));
        assert!(v.is_idle(1));
        assert_eq!(v.last_worker(0), Some(0));
        // After the virtual drain the backlog is gone but MRU persists.
        let v = st.view_at(121.0);
        assert_eq!(v.queue_depth(0), 0);
        assert_eq!(v.last_worker(0), Some(0));
    }

    #[test]
    fn masked_workers_never_receive_routes() {
        let pricer = DispatchPricer::new(&crate::policy::tests::test_model());
        let mut st = RouterState::new(3, 10.0);
        st.set_live(1, false);
        // RandomWorker draws over the two live workers and maps the
        // draw onto {0, 2}; the masked worker is unreachable.
        let mut draws = Vec::new();
        for pick in 0..2usize {
            let mut draw = |n: usize| {
                draws.push(n);
                pick
            };
            let route = Router::RandomWorker.route(&st.view_at(0.0), 0, &mut draw, &pricer);
            assert_eq!(route, Route::Worker(if pick == 0 { 0 } else { 2 }));
        }
        assert_eq!(draws, vec![2, 2]);
        // Wired stream ownership falls through to the next live worker.
        let mut no_draw = |_: usize| -> usize { unreachable!() };
        assert_eq!(
            Router::StreamOwner.route(&st.view_at(0.0), 4, &mut no_draw, &pricer),
            Route::Worker(2)
        );
        // Load-aware routing skips the masked worker even when it has
        // the shallowest virtual queue.
        st.note_routed(0, 0, 0.0);
        st.note_routed(0, 2, 0.0);
        st.note_routed(0, 2, 0.0);
        let r = Router::MruLoad { max_backlog: 0 };
        assert_eq!(
            r.route(&st.view_at(0.0), 9, &mut no_draw, &pricer),
            Route::Worker(0)
        );
        // Unmasking restores the historical draw width.
        st.set_live(1, true);
        let mut draw = |n: usize| {
            assert_eq!(n, 3);
            1
        };
        assert_eq!(
            Router::RandomWorker.route(&st.view_at(0.0), 0, &mut draw, &pricer),
            Route::Worker(1)
        );
    }

    #[test]
    fn routing_is_deterministic_over_the_model() {
        let pricer = DispatchPricer::new(&crate::policy::tests::test_model());
        let r = Router::MruLoad { max_backlog: 1 };
        let mut no_draw = |_: usize| -> usize { unreachable!() };
        let mut st = RouterState::new(2, pricer.t_warm_us());
        let mut placements = Vec::new();
        for i in 0..6u32 {
            let now = i as f64; // arrivals much faster than drain
            let route = r.route(&st.view_at(now), 7, &mut no_draw, &pricer);
            let Route::Worker(w) = route else {
                panic!("worker route expected")
            };
            st.note_routed(7, w, now);
            placements.push(w);
        }
        // First touch lands on the shallowest (worker 0), stays affine
        // within the bound, spills to worker 1 past it, and re-homes.
        assert_eq!(placements[0], 0);
        assert!(placements.contains(&1), "bound must eventually spill");
    }
}
