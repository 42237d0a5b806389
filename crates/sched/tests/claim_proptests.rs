//! Property tests for the virtual-order claim protocol (DESIGN.md §3, `afs-sched::claim`):
//! on randomized arrival streams, both claim modes must conserve jobs,
//! respect per-owner FIFO and per-claimant service spacing, replay
//! bit-identically, resolve independently of how the arrival stream is
//! chunked, and stay safe under randomized liveness masks.

use afs_sched::{Claim, ClaimTable, StealPolicy};
use proptest::prelude::*;

const EST: f64 = 100.0;

/// A randomized arrival script: `(seq, owner, arrival_us)` with
/// nondecreasing arrivals, plus a liveness flip schedule
/// `(before_offer_ix, worker, live)` applied in offer order.
#[derive(Debug, Clone)]
struct Script {
    workers: usize,
    offers: Vec<(u64, usize, f64)>,
    flips: Vec<(usize, usize, bool)>,
}

fn script_strategy(max_workers: usize, max_jobs: usize) -> impl Strategy<Value = Script> {
    // The vendored proptest stub has no `prop_flat_map`, so sample
    // max-size vectors alongside the actual (workers, jobs) pair and
    // reduce modularly inside one `prop_map`.
    let owners = proptest::collection::vec(0usize..64, max_jobs);
    // Gaps from dead-heat to well past the service estimate, so
    // backlogs, ties, and idle thieves all occur.
    let gaps = proptest::collection::vec(0.0f64..(2.0 * EST), max_jobs);
    // A few liveness flips; worker 0 is never masked out so the pooled
    // fallback and the steal scan always have a live worker.
    let flips = proptest::collection::vec((0usize..64, 0usize..64, any::<bool>()), 0usize..4);
    (2usize..=max_workers, 1usize..=max_jobs, owners, gaps, flips).prop_map(
        move |(workers, jobs, owners, gaps, flips)| {
            let mut t = 0.0;
            let offers = owners
                .iter()
                .zip(&gaps)
                .take(jobs)
                .enumerate()
                .map(|(i, (&o, &g))| {
                    t += g;
                    (i as u64, o % workers, t)
                })
                .collect();
            let flips = flips
                .into_iter()
                .map(|(at, w, live)| (at % jobs, 1 + w % (workers - 1), live))
                .collect();
            Script {
                workers,
                offers,
                flips,
            }
        },
    )
}

fn run(table: &mut ClaimTable, s: &Script) -> Vec<Claim> {
    let mut out = Vec::new();
    for (i, &(seq, owner, t)) in s.offers.iter().enumerate() {
        for &(at, w, live) in &s.flips {
            if at == i {
                table.set_live(w, live);
            }
        }
        table.offer(seq, owner, t, &mut out);
    }
    table.flush(&mut out);
    out
}

fn tables(s: &Script) -> [ClaimTable; 2] {
    [
        ClaimTable::pooled(s.workers, EST),
        ClaimTable::stealing(s.workers, EST, StealPolicy::default()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Conservation and attribution: every offered job is claimed
    /// exactly once; steals name the routed owner as victim and move
    /// the job; non-steals keep it on the owner (stealing mode) —
    /// and the claimant is always within the worker range.
    #[test]
    fn every_job_is_claimed_exactly_once(s in script_strategy(5, 48)) {
        for (mode, mut table) in tables(&s).into_iter().enumerate() {
            let claims = run(&mut table, &s);
            prop_assert_eq!(table.staged(), 0);
            let mut seqs: Vec<u64> = claims.iter().map(|c| c.seq).collect();
            seqs.sort_unstable();
            prop_assert_eq!(seqs, (0..s.offers.len() as u64).collect::<Vec<_>>());
            for c in &claims {
                prop_assert!(c.claimant < s.workers);
                let (_, owner, arrival) = s.offers[c.seq as usize];
                prop_assert!(c.start_us >= arrival - 1e-9);
                match (mode, c.victim) {
                    (0, v) => prop_assert!(v.is_none(), "pooled mode never steals"),
                    (_, Some(v)) => {
                        prop_assert_eq!(v, owner);
                        prop_assert_ne!(c.claimant, v);
                    }
                    (_, None) => prop_assert_eq!(c.claimant, owner),
                }
            }
        }
    }

    /// Replay determinism: the same script resolves to bit-identical
    /// claims every time, in both modes, mask flips included.
    #[test]
    fn resolution_replays_bit_identically(s in script_strategy(5, 48)) {
        for mut table in tables(&s) {
            let mut again = table.clone();
            prop_assert_eq!(run(&mut table, &s), run(&mut again, &s));
        }
    }

    /// Chunk invariance: claims already emitted are never rewritten by
    /// a later arrival — the stream grows strictly by appending, so a
    /// dispatcher can act on each claim the moment it resolves.
    #[test]
    fn emitted_claims_are_prefix_stable(s in script_strategy(4, 32)) {
        for mut table in tables(&s) {
            let full = run(&mut table.clone(), &s);
            let mut out = Vec::new();
            for (i, &(seq, owner, t)) in s.offers.iter().enumerate() {
                for &(at, w, live) in &s.flips {
                    if at == i {
                        table.set_live(w, live);
                    }
                }
                table.offer(seq, owner, t, &mut out);
                prop_assert_eq!(&out[..], &full[..out.len()]);
            }
            table.flush(&mut out);
            prop_assert_eq!(out, full);
        }
    }

    /// Per-owner FIFO and per-claimant spacing: jobs routed to one
    /// owner depart in seq order whoever executes them, and no worker
    /// starts two claims closer than one estimated service.
    #[test]
    fn fifo_and_service_spacing_hold(s in script_strategy(5, 48)) {
        for mut table in tables(&s) {
            let claims = run(&mut table, &s);
            for owner in 0..s.workers {
                let order: Vec<u64> = claims
                    .iter()
                    .filter(|c| s.offers[c.seq as usize].1 == owner)
                    .map(|c| c.seq)
                    .collect();
                let mut sorted = order.clone();
                sorted.sort_unstable();
                // Pooled mode ignores owners entirely: its FIFO is the
                // global arrival order, which sorted seqs also capture.
                prop_assert_eq!(order, sorted);
            }
            for w in 0..s.workers {
                let starts: Vec<f64> = claims
                    .iter()
                    .filter(|c| c.claimant == w)
                    .map(|c| c.start_us)
                    .collect();
                for pair in starts.windows(2) {
                    prop_assert!(pair[1] - pair[0] >= EST - 1e-6);
                }
            }
        }
    }

    /// Mask safety: with a worker masked out for the whole run, it
    /// never claims in pooled mode (other workers live), and in
    /// stealing mode it only receives flush-time force-resolutions of
    /// jobs routed to it — never steals.
    #[test]
    fn masked_workers_stay_out_of_arbitration(
        s in script_strategy(4, 32),
        dead in 1usize..4,
    ) {
        // `dead` is 1..=3 — never worker 0, so the pool stays live.
        if dead >= s.workers {
            return Ok(());
        }
        let masked = Script { flips: vec![(0, dead, false)], ..s.clone() };
        let [mut pooled, mut stealing] = tables(&masked);
        for c in run(&mut pooled, &masked) {
            prop_assert_ne!(c.claimant, dead, "pooled pool assigned a dead worker");
        }
        for c in run(&mut stealing, &masked) {
            if c.claimant == dead {
                prop_assert_eq!(c.victim, None);
                prop_assert_eq!(masked.offers[c.seq as usize].1, dead);
            }
            prop_assert_ne!(c.victim, Some(dead), "stole from a dead worker's queue");
        }
    }
}
