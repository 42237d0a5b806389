//! Virtual-order claim arbitration for shared-pool pops and work
//! stealing.
//!
//! The pooled (Locking) and stealing (IPS) rungs used to arbitrate
//! ownership in *host* order: workers raced a min-vclock admission gate
//! on one shared ring, or scanned live ring occupancy to pick steal
//! victims, and previous-owner accounting fell back to a racy
//! `last_stream_worker.swap` (the `PREV_RACY` sentinel). The outcomes
//! were correct but not reproducible — two runs of the same multi-worker
//! config could disagree on who executed what, and therefore on
//! `stream_migrations`, steal counts, and every purge they trigger.
//!
//! [`ClaimTable`] replaces those pop sites with *claims resolved in
//! total virtual order* on the dispatcher thread. A claim is a
//! `(start_us, seq, claimant)` triple: the model instant the job starts,
//! the arrival sequence number, and the worker that takes it. The table
//! embeds the drain model [`RouterState`](crate::router::RouterState)
//! routes over — per-worker virtual clocks charged one estimated service
//! per started job — and resolves every pop/steal against that model, so
//! victim selection, migration accounting and previous-owner stamping
//! become pure functions of the arrival stream. The physical rings then merely *execute* the resolved
//! schedule: each job is pushed to its claimant's ring, workers pop only
//! their own ring FIFO, and no worker-side arbitration remains.
//!
//! Two modes:
//!
//! * **Pooled** ([`ClaimTable::pooled`]) — the work-conserving shared
//!   FIFO pool. Jobs start in arrival order on whichever worker is free
//!   first, so a claim resolves *immediately* at offer time: the
//!   claimant is the live worker minimizing `max(clock_w, arrival)`
//!   (lowest index on ties) — exactly the head-of-queue assignment a
//!   virtual-time FIFO multi-server performs. No future arrival can
//!   change a FIFO pool's next start, so eager resolution is causally
//!   sound.
//! * **Stealing** ([`ClaimTable::stealing`]) — per-owner queues with a
//!   bounded [`StealPolicy`] escape hatch. A steal's outcome *does*
//!   depend on what else is queued at the steal instant, so offered
//!   jobs are **staged**: the table holds them in per-owner model
//!   queues and only resolves a claim when the model reaches its start
//!   event. The model is advanced exactly to the latest offered
//!   arrival, which makes it causally closed — every model event at
//!   virtual time ≤ t is fully determined by arrivals ≤ t, so no later
//!   arrival can invalidate an emitted claim. [`ClaimTable::flush`]
//!   runs the model to completion once the workload ends.
//!
//! Within the stealing model, a worker whose model queue is empty is an
//! eligible thief; steal victims are chosen by the *same*
//! [`StealPolicy::steal`] scan the worker-side site historically ran,
//! evaluated over the model's queues and clocks instead of live rings
//! and published atomics (deepest victim at or past the threshold whose
//! clock is virtually behind the thief's; highest index wins ties).
//! Simultaneous events resolve owner-pop before steal, then lowest
//! worker index — a total order, so the resolved schedule is
//! bit-identical on every run at any physical worker count.
//!
//! Dead workers (masked via [`ClaimTable::set_live`], driven by the
//! fault *plan* exactly like router masking) neither start nor steal
//! nor get stolen from in the model; jobs already staged on a dead
//! owner are force-resolved to that owner at flush, land on its dead
//! ring, and are recovered by the native dispatcher's deterministic
//! orphan re-dispatch.

use std::collections::VecDeque;

use crate::drain::DrainModel;
use crate::policy::StealPolicy;
use crate::view::SchedView;

/// One resolved claim: worker `claimant` starts job `seq` at model
/// instant `start_us`, having stolen it from `victim`'s queue if
/// `victim` is set. Claims are emitted in total virtual *event* order
/// (event time, then event kind, then worker index); a batched steal
/// visit is one event that emits its whole batch contiguously — the
/// batch's later jobs carry later `start_us` on the thief's clock but
/// leave the victim's queue at the visit instant. Emission order is
/// queue-departure order, which is also the order the backend must
/// stamp previous-owner state in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Claim {
    /// Arrival sequence number of the claimed job.
    pub seq: u64,
    /// The worker that executes the job.
    pub claimant: usize,
    /// The owner queue the job was stolen from (`None` = the claimant
    /// popped its own queue, or the pooled mode's direct assignment).
    pub victim: Option<usize>,
    /// Model virtual instant the job starts — the claim's position in
    /// the total order.
    pub start_us: f64,
}

/// One staged job in the stealing model.
#[derive(Debug, Clone, Copy)]
struct Staged {
    seq: u64,
    arrival_us: f64,
    owner: usize,
}

#[derive(Debug, Clone)]
enum ClaimMode {
    Pooled,
    Stealing {
        policy: StealPolicy,
        /// Per-owner model queues of staged (unresolved) jobs.
        queues: Vec<VecDeque<Staged>>,
        /// Model cursor: the latest processed event or offered arrival.
        now_us: f64,
    },
}

/// The dispatcher-side claim arbiter. See the module docs for the
/// protocol; see [`Claim`] for what it emits.
#[derive(Debug, Clone)]
pub struct ClaimTable {
    mode: ClaimMode,
    /// Per-worker model clocks (the instant each worker is free after
    /// the jobs already claimed to it), charged the calibrated all-warm
    /// estimate `RouterState` drains at, and the plan-derived liveness
    /// mask (never host-observed health).
    drain: DrainModel,
    /// Jobs offered but not yet resolved (stealing mode only).
    staged: usize,
}

impl ClaimTable {
    /// A pooled-mode table for `workers` workers charging
    /// `est_service_us` per claimed job.
    pub fn pooled(workers: usize, est_service_us: f64) -> Self {
        ClaimTable {
            mode: ClaimMode::Pooled,
            drain: DrainModel::new(workers, est_service_us),
            staged: 0,
        }
    }

    /// A stealing-mode table for `workers` workers under `policy`.
    pub fn stealing(workers: usize, est_service_us: f64, policy: StealPolicy) -> Self {
        ClaimTable {
            mode: ClaimMode::Stealing {
                policy,
                queues: vec![VecDeque::new(); workers],
                now_us: 0.0,
            },
            drain: DrainModel::new(workers, est_service_us),
            staged: 0,
        }
    }

    /// Number of workers in the model.
    pub fn n_workers(&self) -> usize {
        self.drain.clock_us.len()
    }

    /// Mask worker `w` in (`true`) or out (`false`) of claim
    /// resolution. Driven by the fault plan at the same arrival-time
    /// instants as router masking, so the mask itself is deterministic.
    pub fn set_live(&mut self, w: usize, live: bool) {
        self.drain.live[w] = live;
    }

    /// Jobs offered but not yet resolved (0 in pooled mode; bounded by
    /// the admission policy in serving use).
    pub fn staged(&self) -> usize {
        self.staged
    }

    /// Modeled backlog of worker `w` at virtual time `t_us`, in
    /// estimated services: claimed-but-undrained work plus staged jobs
    /// still queued on `w`. This is the admission gauge the serving
    /// path tail-drops against.
    pub fn model_depth(&self, w: usize, t_us: f64) -> usize {
        let draining = self.drain.backlog(w, t_us);
        let queued = match &self.mode {
            ClaimMode::Pooled => 0,
            ClaimMode::Stealing { queues, .. } => queues[w].len(),
        };
        draining + queued
    }

    /// Record a modeled service obligation for worker `w` that was
    /// placed *outside* the table — a NIC steering hit that bypassed
    /// the shared pool. Keeps the pooled model clocks honest so later
    /// [`ClaimTable::offer`] / [`ClaimTable::min_model_depth`] calls
    /// arbitrate over the worker's real modeled load. No-op in stealing
    /// mode, where every admitted job goes through the table.
    pub fn note_assigned(&mut self, w: usize, t_us: f64) {
        if matches!(self.mode, ClaimMode::Pooled) {
            self.drain.charge(w, t_us);
        }
    }

    /// The shallowest live worker's [`ClaimTable::model_depth`] — the
    /// pooled rung's admission gauge (the pool is work-conserving, so
    /// an arrival waits only if *every* live worker is backlogged).
    pub fn min_model_depth(&self, t_us: f64) -> usize {
        (0..self.n_workers())
            .filter(|&w| self.drain.live[w])
            .map(|w| self.model_depth(w, t_us))
            .min()
            .unwrap_or(0)
    }

    /// Offer one job to the table. Pooled mode resolves it immediately;
    /// stealing mode stages it on `owner`'s model queue and resolves
    /// every claim whose model start the new arrival makes causally
    /// final. Resolved claims are appended to `out` in total virtual
    /// order. `owner` is the routed target (ignored by pooled mode).
    pub fn offer(&mut self, seq: u64, owner: usize, arrival_us: f64, out: &mut Vec<Claim>) {
        match &mut self.mode {
            ClaimMode::Pooled => {
                let w = self.pooled_claimant(arrival_us);
                let start = self.drain.charge(w, arrival_us);
                out.push(Claim {
                    seq,
                    claimant: w,
                    victim: None,
                    start_us: start,
                });
            }
            ClaimMode::Stealing { queues, now_us, .. } => {
                // Close the model over everything strictly before this
                // arrival, insert it, then run again: the insertion may
                // enable an immediate start (or steal) at its own time.
                *now_us = now_us.max(arrival_us);
                queues[owner].push_back(Staged {
                    seq,
                    arrival_us,
                    owner,
                });
                self.staged += 1;
                self.advance(arrival_us, out);
            }
        }
    }

    /// Run the model to completion: resolve every staged job. Claims
    /// still staged on dead owners are force-resolved to those owners
    /// (their physical rings feed the native orphan recovery).
    /// Call once after the last offer.
    pub fn flush(&mut self, out: &mut Vec<Claim>) {
        if matches!(self.mode, ClaimMode::Pooled) {
            return;
        }
        self.advance(f64::INFINITY, out);
        // Anything left is queued on a dead owner: no live worker may
        // start it and the policy never steals from the dead. Resolve
        // to the owner in (worker, FIFO) order — deterministic, and
        // physically it lands on the dead ring for orphan recovery.
        if let ClaimMode::Stealing { queues, .. } = &mut self.mode {
            for (w, queue) in queues.iter_mut().enumerate() {
                while let Some(job) = queue.pop_front() {
                    let start = self.drain.charge(w, job.arrival_us);
                    self.staged -= 1;
                    out.push(Claim {
                        seq: job.seq,
                        claimant: w,
                        victim: None,
                        start_us: start,
                    });
                }
            }
        }
    }

    /// Pooled claimant for an arrival at `t`: the live worker that can
    /// start it first, lowest index on exact ties. Falls back to the
    /// unmasked scan if the plan killed every worker (the jobs then
    /// ride the orphan-recovery path).
    fn pooled_claimant(&self, t: f64) -> usize {
        let best = |mask: bool| {
            (0..self.n_workers())
                .filter(|&w| !mask || self.drain.live[w])
                .min_by(|&a, &b| {
                    let sa = self.drain.clock_us[a].max(t);
                    let sb = self.drain.clock_us[b].max(t);
                    sa.partial_cmp(&sb).unwrap().then(a.cmp(&b))
                })
        };
        best(true).or_else(|| best(false)).unwrap_or(0)
    }

    /// Advance the stealing model, resolving every event with virtual
    /// time ≤ `t`. One loop iteration resolves one owner-pop or one
    /// steal visit (up to `max_batch` jobs).
    fn advance(&mut self, t: f64, out: &mut Vec<Claim>) {
        loop {
            let ClaimMode::Stealing {
                policy,
                queues,
                now_us,
            } = &mut self.mode
            else {
                return;
            };
            let n = queues.len();
            // Earliest owner-pop: a live worker starting its own queue
            // head at max(clock, head.arrival). Lowest index on ties.
            let mut own: Option<(f64, usize)> = None;
            for (w, queue) in queues.iter().enumerate() {
                if !self.drain.live[w] {
                    continue;
                }
                if let Some(head) = queue.front() {
                    let s = self.drain.clock_us[w].max(head.arrival_us);
                    if own.is_none_or(|(bs, _)| s < bs) {
                        own = Some((s, w));
                    }
                }
            }
            let own_time = own.map_or(f64::INFINITY, |(s, _)| s);
            // Earliest eligible steal. A live thief with an empty model
            // queue attempts at max(its clock, the cursor); eligibility
            // is the historical StealPolicy scan over the model state,
            // which is constant until the next owner-pop — so only
            // attempts strictly before `own_time` are valid here
            // (owner-pop wins exact ties).
            let mut steal: Option<(f64, usize)> = None;
            for i in 0..n {
                if !self.drain.live[i] || !queues[i].is_empty() {
                    continue;
                }
                let a = self.drain.clock_us[i].max(*now_us);
                if a > t || a >= own_time || steal.is_some_and(|(ba, _)| a >= ba) {
                    continue;
                }
                let view = StealModelView {
                    clock_us: &self.drain.clock_us,
                    queues,
                    live: &self.drain.live,
                };
                if policy.steal(&view, i).is_some() {
                    steal = Some((a, i));
                }
            }
            if let Some((a, thief)) = steal {
                *now_us = a;
                let view = StealModelView {
                    clock_us: &self.drain.clock_us,
                    queues,
                    live: &self.drain.live,
                };
                let d = policy
                    .steal(&view, thief)
                    .expect("eligibility re-evaluates over unchanged state");
                for _ in 0..d.max_batch.max(1) {
                    let Some(job) = queues[d.victim].pop_front() else {
                        break;
                    };
                    // `max` is exact, so grouping it differently cannot
                    // change the start: max(clock, a, arrival).
                    let start = self.drain.charge(thief, a.max(job.arrival_us));
                    self.staged -= 1;
                    out.push(Claim {
                        seq: job.seq,
                        claimant: thief,
                        victim: Some(job.owner),
                        start_us: start,
                    });
                }
                continue;
            }
            match own {
                Some((s, w)) if s <= t => {
                    *now_us = s;
                    let job = queues[w].pop_front().expect("owner queue has a head");
                    // `s` is already `max(clock, head arrival)`.
                    self.drain.charge(w, s);
                    self.staged -= 1;
                    out.push(Claim {
                        seq: job.seq,
                        claimant: w,
                        victim: None,
                        start_us: s,
                    });
                }
                _ => return,
            }
        }
    }
}

/// The stealing model's [`SchedView`]: queue depths are staged-job
/// counts, clocks are the model drain clocks. Only the members
/// [`StealPolicy::steal`] consults are meaningful; the rest are inert
/// defaults.
struct StealModelView<'a> {
    clock_us: &'a [f64],
    queues: &'a [VecDeque<Staged>],
    live: &'a [bool],
}

impl SchedView for StealModelView<'_> {
    fn n_workers(&self) -> usize {
        self.clock_us.len()
    }
    fn is_idle(&self, w: usize) -> bool {
        self.queues[w].is_empty()
    }
    fn queue_depth(&self, w: usize) -> usize {
        self.queues[w].len()
    }
    fn last_worker(&self, _entity: u32) -> Option<usize> {
        None
    }
    fn vclock_bits(&self, w: usize) -> u64 {
        self.clock_us[w].to_bits()
    }
    fn is_live(&self, w: usize) -> bool {
        self.live[w]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EST: f64 = 100.0;

    fn drain(table: &mut ClaimTable, offers: &[(u64, usize, f64)]) -> Vec<Claim> {
        let mut out = Vec::new();
        for &(seq, owner, t) in offers {
            table.offer(seq, owner, t, &mut out);
        }
        table.flush(&mut out);
        out
    }

    #[test]
    fn pooled_assigns_in_arrival_order_lowest_free_worker() {
        let mut t = ClaimTable::pooled(2, EST);
        let claims = drain(
            &mut t,
            &[(0, 9, 0.0), (1, 9, 0.0), (2, 9, 0.0), (3, 9, 300.0)],
        );
        // Two simultaneous arrivals split across the free workers
        // (lowest index first); the third waits on worker 0 (earliest
        // free, lowest index on the tie); the late fourth starts at its
        // own arrival on the first-free worker.
        let got: Vec<(usize, f64)> = claims.iter().map(|c| (c.claimant, c.start_us)).collect();
        assert_eq!(got, vec![(0, 0.0), (1, 0.0), (0, 100.0), (0, 300.0)]);
        assert!(claims.iter().all(|c| c.victim.is_none()));
    }

    #[test]
    fn pooled_skips_masked_workers() {
        let mut t = ClaimTable::pooled(3, EST);
        t.set_live(0, false);
        let claims = drain(&mut t, &[(0, 0, 0.0), (1, 0, 0.0), (2, 0, 0.0)]);
        assert_eq!(
            claims.iter().map(|c| c.claimant).collect::<Vec<_>>(),
            vec![1, 2, 1]
        );
    }

    #[test]
    fn stealing_without_pressure_is_fifo_per_owner() {
        let mut t = ClaimTable::stealing(2, EST, StealPolicy::default());
        // Arrivals spaced past the service estimate: owners keep up,
        // nothing is ever eligible to steal.
        let claims = drain(
            &mut t,
            &[(0, 0, 0.0), (1, 1, 50.0), (2, 0, 200.0), (3, 1, 250.0)],
        );
        assert_eq!(claims.len(), 4);
        assert!(claims.iter().all(|c| c.victim.is_none()));
        let seqs: Vec<u64> = claims.iter().map(|c| c.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
        for c in &claims {
            assert_eq!(c.claimant, (c.seq % 2) as usize);
        }
    }

    #[test]
    fn idle_worker_steals_from_a_backlogged_owner() {
        let mut t = ClaimTable::stealing(2, EST, StealPolicy::default());
        // Every job owned by worker 0, arriving much faster than it
        // drains: worker 1 must relieve it.
        let offers: Vec<(u64, usize, f64)> = (0..8)
            .map(|i| (i as u64, 0usize, i as f64 * 10.0))
            .collect();
        let claims = drain(&mut t, &offers);
        assert_eq!(claims.len(), 8);
        let stolen: Vec<&Claim> = claims.iter().filter(|c| c.victim.is_some()).collect();
        assert!(!stolen.is_empty(), "backlog must trigger steals");
        for c in &stolen {
            assert_eq!(c.victim, Some(0));
            assert_eq!(c.claimant, 1);
        }
        // Per-stream order is preserved: claims of owner-0 jobs resolve
        // in seq order regardless of who executes them.
        let seqs: Vec<u64> = claims.iter().map(|c| c.seq).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(seqs, sorted, "FIFO queue order survives arbitration");
    }

    #[test]
    fn resolution_is_identical_however_arrivals_are_chunked() {
        // Offer-by-offer vs all-up-front must resolve the same claims:
        // the model is causally closed at every arrival.
        let offers: Vec<(u64, usize, f64)> = (0..32)
            .map(|i| (i as u64, (i % 3) as usize, (i as f64) * 23.0))
            .collect();
        let mut a = ClaimTable::stealing(3, EST, StealPolicy::default());
        let all = drain(&mut a, &offers);
        let mut b = ClaimTable::stealing(3, EST, StealPolicy::default());
        let mut out = Vec::new();
        for chunk in offers.chunks(5) {
            for &(seq, owner, t) in chunk {
                b.offer(seq, owner, t, &mut out);
            }
        }
        b.flush(&mut out);
        assert_eq!(all, out);
        assert_eq!(a.staged(), 0);
        assert_eq!(b.staged(), 0);
    }

    #[test]
    fn dead_owners_jobs_force_resolve_at_flush() {
        let mut t = ClaimTable::stealing(2, EST, StealPolicy::default());
        let mut out = Vec::new();
        t.offer(0, 0, 0.0, &mut out);
        t.set_live(0, false);
        t.offer(1, 0, 1.0, &mut out);
        t.offer(2, 0, 2.0, &mut out);
        // Worker 1's clock never falls behind worker 0's, so the vclock
        // gate blocks stealing the dead queue's jobs; flush resolves
        // them to the (dead) owner for orphan recovery.
        t.flush(&mut out);
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|c| c.claimant == 0));
        assert_eq!(t.staged(), 0);
    }

    #[test]
    fn model_depth_tracks_claims_and_staging() {
        let mut t = ClaimTable::pooled(2, EST);
        let mut out = Vec::new();
        assert_eq!(t.min_model_depth(0.0), 0);
        t.offer(0, 0, 0.0, &mut out);
        t.offer(1, 0, 0.0, &mut out);
        assert_eq!(t.model_depth(0, 0.0), 1);
        assert_eq!(t.model_depth(1, 0.0), 1);
        assert_eq!(t.min_model_depth(0.0), 1);
        // The modeled backlog drains with virtual time.
        assert_eq!(t.min_model_depth(250.0), 0);
    }
}
