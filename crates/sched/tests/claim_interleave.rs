//! Exhaustive small-scale interleaving tests for the virtual-order
//! claim protocol (DESIGN.md §3, `afs-sched::claim`), in the spirit of
//! `crates/native/tests/interleave.rs`: instead of sampling a few
//! arrival patterns, enumerate *every* pattern on a small grid and
//! check each resolved schedule against an independent oracle or a
//! battery of structural invariants.
//!
//! The pooled grid is checked against an inline re-implementation of
//! the virtual-time FIFO multi-server (argmin over live workers of
//! `max(clock, arrival)`, lowest index on ties). The stealing grid has
//! no closed-form oracle — victim choice feeds back through the model
//! clocks — so every enumerated script is instead held to the
//! invariants any correct resolution must satisfy: conservation, total
//! virtual order, per-owner FIFO, per-claimant service spacing, and
//! honest victim attribution. Both grids additionally pin replay
//! determinism: re-running a script yields bit-identical claims.

use afs_sched::{Claim, ClaimTable, StealPolicy};

const EST: f64 = 100.0;

/// Drive a table through a script of `(seq, owner, arrival)` offers and
/// flush it. Claims come back in resolution (total virtual) order.
fn resolve(mut table: ClaimTable, script: &[(u64, usize, f64)]) -> Vec<Claim> {
    let mut out = Vec::new();
    for &(seq, owner, t) in script {
        table.offer(seq, owner, t, &mut out);
    }
    table.flush(&mut out);
    assert_eq!(table.staged(), 0, "flush left jobs staged");
    out
}

/// Structural invariants every resolved schedule must satisfy,
/// regardless of mode, mask, or policy.
fn assert_schedule_invariants(script: &[(u64, usize, f64)], claims: &[Claim], est: f64) {
    // Conservation: every offered seq is claimed exactly once.
    let mut seqs: Vec<u64> = claims.iter().map(|c| c.seq).collect();
    seqs.sort_unstable();
    let mut offered: Vec<u64> = script.iter().map(|&(s, _, _)| s).collect();
    offered.sort_unstable();
    assert_eq!(seqs, offered, "claims must conserve the offered jobs");

    for (c, &(_, owner, arrival)) in claims
        .iter()
        .map(|c| {
            let src = script.iter().find(|&&(s, _, _)| s == c.seq).unwrap();
            (c, src)
        })
        .collect::<Vec<_>>()
    {
        // No job starts before it arrives.
        assert!(
            c.start_us >= arrival,
            "seq {} started at {} before its arrival {}",
            c.seq,
            c.start_us,
            arrival
        );
        // Victim attribution is honest: a steal names the routed owner
        // and moves the job to a *different* worker; a non-steal keeps
        // it on the owner.
        match c.victim {
            Some(v) => {
                assert_eq!(v, owner, "steal must name the routed owner as victim");
                assert_ne!(c.claimant, v, "a steal that lands on the owner is a pop");
            }
            None => assert_eq!(
                c.claimant, owner,
                "non-stolen seq {} must run on its owner",
                c.seq
            ),
        }
    }

    // Total virtual order at *event* granularity: a batched steal
    // visit emits its whole batch contiguously at the visit instant
    // (the batch's later jobs carry later starts on the thief's clock),
    // so the ordering guarantee is nondecreasing event times, where an
    // event's time is the start of its first claim.
    let mut event_time = f64::NEG_INFINITY;
    let mut prev: Option<&Claim> = None;
    for c in claims {
        let continues_batch = prev.is_some_and(|p| {
            p.victim.is_some()
                && p.victim == c.victim
                && p.claimant == c.claimant
                && (c.start_us - p.start_us - est).abs() < 1e-6
        });
        if !continues_batch {
            assert!(
                c.start_us >= event_time,
                "events out of virtual order: seq {} at {} after an event at {}",
                c.seq,
                c.start_us,
                event_time
            );
            event_time = c.start_us;
        }
        prev = Some(c);
    }

    // Per-owner FIFO: jobs routed to the same owner queue resolve in
    // seq order no matter who executes them (queue departures are
    // front-pops in both the pop and the steal arm).
    let n = script.iter().map(|&(_, o, _)| o).max().unwrap_or(0) + 1;
    for owner in 0..n {
        let order: Vec<u64> = claims
            .iter()
            .filter(|c| script.iter().any(|&(s, o, _)| s == c.seq && o == owner))
            .map(|c| c.seq)
            .collect();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(
            order, sorted,
            "owner {owner} queue departed out of FIFO order"
        );
    }

    // Per-claimant spacing: a worker starts its next job no earlier
    // than one estimated service after the previous start.
    let max_claimant = claims.iter().map(|c| c.claimant).max().unwrap_or(0);
    for w in 0..=max_claimant {
        let starts: Vec<f64> = claims
            .iter()
            .filter(|c| c.claimant == w)
            .map(|c| c.start_us)
            .collect();
        for pair in starts.windows(2) {
            assert!(
                pair[1] - pair[0] >= est - 1e-6,
                "worker {w} started jobs {} apart (est {est})",
                pair[1] - pair[0]
            );
        }
    }
}

/// Inline oracle for the pooled mode: the claimant of an arrival at `t`
/// is the live worker minimizing `max(clock, t)`, lowest index on ties;
/// its clock then advances by one estimated service from the start.
fn pooled_oracle(workers: usize, live: &[bool], script: &[(u64, usize, f64)]) -> Vec<Claim> {
    let mut clock = vec![0.0f64; workers];
    let mut out = Vec::new();
    for &(seq, _, t) in script {
        let pick = |mask: bool| {
            (0..workers).filter(|&w| !mask || live[w]).min_by(|&a, &b| {
                let (sa, sb) = (clock[a].max(t), clock[b].max(t));
                sa.partial_cmp(&sb).unwrap().then(a.cmp(&b))
            })
        };
        let w = pick(true).or_else(|| pick(false)).unwrap();
        let start = clock[w].max(t);
        clock[w] = start + EST;
        out.push(Claim {
            seq,
            claimant: w,
            victim: None,
            start_us: start,
        });
    }
    out
}

/// Enumerate every gap vector of length `len` over `choices`.
fn gap_vectors(choices: &[f64], len: usize) -> Vec<Vec<f64>> {
    let mut acc = vec![Vec::new()];
    for _ in 0..len {
        acc = acc
            .iter()
            .flat_map(|v| {
                choices.iter().map(move |&g| {
                    let mut w = v.clone();
                    w.push(g);
                    w
                })
            })
            .collect();
    }
    acc
}

fn script_from_gaps(gaps: &[f64], owners: &[usize]) -> Vec<(u64, usize, f64)> {
    let mut t = 0.0;
    let mut script = Vec::with_capacity(gaps.len() + 1);
    for (i, &owner) in owners.iter().enumerate() {
        if i > 0 {
            t += gaps[i - 1];
        }
        script.push((i as u64, owner, t));
    }
    script
}

/// Pooled mode, exhaustively: every inter-arrival pattern of four jobs
/// over gaps {0, ½·est, est, 2·est}, at one to three workers, under
/// every liveness mask that the fault plan could impose — the table
/// must agree with the virtual-time FIFO oracle claim-for-claim, and
/// replay bit-identically.
#[test]
fn pooled_claims_match_the_virtual_time_fifo_oracle_exhaustively() {
    let gaps = [0.0, 0.5 * EST, EST, 2.0 * EST];
    let mut cases = 0usize;
    for workers in 1..=3usize {
        for mask_bits in 0..(1u32 << workers) {
            let live: Vec<bool> = (0..workers).map(|w| mask_bits & (1 << w) != 0).collect();
            for gap in gap_vectors(&gaps, 3) {
                // Owner is ignored by pooled mode; route everything to 0.
                let script = script_from_gaps(&gap, &[0, 0, 0, 0]);
                let mk = || {
                    let mut t = ClaimTable::pooled(workers, EST);
                    for (w, &l) in live.iter().enumerate() {
                        t.set_live(w, l);
                    }
                    t
                };
                let got = resolve(mk(), &script);
                assert_eq!(
                    got,
                    pooled_oracle(workers, &live, &script),
                    "w={workers} live={live:?} gaps={gap:?}"
                );
                assert_eq!(got, resolve(mk(), &script), "replay diverged");
                // All-live masks also satisfy the generic invariants
                // (masked pools violate claimant==owner by design —
                // the pool has no owner — so pooled scripts claim
                // owner 0 and we only check the all-live case).
                if live.iter().all(|&l| l) && workers == 1 {
                    assert_schedule_invariants(&script, &got, EST);
                }
                cases += 1;
            }
        }
    }
    assert!(cases >= 3 * 64, "grid under-enumerated: {cases} cases");
}

/// Stealing mode, exhaustively: every owner pattern × inter-arrival
/// pattern of up to five jobs at two workers (gaps below, at, and above
/// the service estimate — idle thieves, exact ties, and backlogs all
/// occur). Every script must satisfy the structural invariants and
/// replay bit-identically; across the whole grid both actual steals and
/// exact owner-pop/steal ties must occur, or the grid is too easy.
#[test]
fn stealing_claims_satisfy_invariants_on_every_two_worker_script() {
    let gaps = [0.0, 0.6 * EST, 1.5 * EST];
    let policy = StealPolicy::default();
    let mut cases = 0usize;
    let mut steals_seen = 0usize;
    for n in 1..=5usize {
        for owner_bits in 0..(1u32 << n) {
            let owners: Vec<usize> = (0..n).map(|i| ((owner_bits >> i) & 1) as usize).collect();
            for gap in gap_vectors(&gaps, n - 1) {
                let script = script_from_gaps(&gap, &owners);
                let got = resolve(ClaimTable::stealing(2, EST, policy), &script);
                assert_schedule_invariants(&script, &got, EST);
                assert_eq!(
                    got,
                    resolve(ClaimTable::stealing(2, EST, policy), &script),
                    "replay diverged for owners={owners:?} gaps={gap:?}"
                );
                steals_seen += got.iter().filter(|c| c.victim.is_some()).count();
                cases += 1;
            }
        }
    }
    // 2^n owner patterns × 3^(n-1) gap patterns, n = 1..=5.
    assert_eq!(cases, 2 + 4 * 3 + 8 * 9 + 16 * 27 + 32 * 81);
    assert!(steals_seen > 0, "the grid never exercised a steal");
}

/// Chunk invariance on the stealing grid: a dispatcher that learns of
/// arrivals one at a time resolves exactly the claims a batch observer
/// would — the model is causally closed at every offer, so no later
/// arrival can rewrite an emitted claim.
#[test]
fn stealing_resolution_is_prefix_stable() {
    let gaps = [0.0, 0.6 * EST, 1.5 * EST];
    let policy = StealPolicy::default();
    for owner_bits in 0..(1u32 << 4) {
        let owners: Vec<usize> = (0..4).map(|i| ((owner_bits >> i) & 1) as usize).collect();
        for gap in gap_vectors(&gaps, 3) {
            let script = script_from_gaps(&gap, &owners);
            let full = resolve(ClaimTable::stealing(2, EST, policy), &script);
            // Emit incrementally, snapshotting after every offer: each
            // snapshot must be a prefix of the final claim stream.
            let mut t = ClaimTable::stealing(2, EST, policy);
            let mut out = Vec::new();
            for &(seq, owner, at) in &script {
                t.offer(seq, owner, at, &mut out);
                assert_eq!(
                    out[..],
                    full[..out.len()],
                    "emitted claims were rewritten by a later arrival"
                );
            }
            t.flush(&mut out);
            assert_eq!(out, full);
        }
    }
}

/// Masked stealing: kill worker 1 after each possible prefix of the
/// script. From the mask instant on, worker 1 neither pops, steals,
/// nor is stolen from in the model — any claim it still receives is a
/// flush-time force-resolution of its own staged jobs (victimless, on
/// the dead ring, feeding watchdog orphan recovery).
#[test]
fn masked_worker_neither_steals_nor_is_stolen_from_after_the_mask() {
    let policy = StealPolicy::default();
    // Everything owned by worker 1 and arriving fast: before the mask
    // this is exactly the backlog worker 0 would relieve by stealing.
    let script: Vec<(u64, usize, f64)> = (0..6)
        .map(|i| (i as u64, 1usize, i as f64 * 10.0))
        .collect();
    for kill_after in 0..script.len() {
        let mut t = ClaimTable::stealing(2, EST, policy);
        let mut before = Vec::new();
        for &(seq, owner, at) in &script[..kill_after] {
            t.offer(seq, owner, at, &mut before);
        }
        t.set_live(1, false);
        let mut after = Vec::new();
        for &(seq, owner, at) in &script[kill_after..] {
            t.offer(seq, owner, at, &mut after);
        }
        t.flush(&mut after);
        assert_eq!(t.staged(), 0);
        assert_eq!(before.len() + after.len(), script.len());
        for c in &after {
            if c.claimant == 1 {
                assert_eq!(
                    c.victim, None,
                    "dead worker 1 stole seq {} after the mask",
                    c.seq
                );
            }
            assert_ne!(
                c.victim,
                Some(0),
                "nobody owns on worker 0 here, so no claim may name it victim"
            );
        }
        // Conservation still holds across the mask boundary.
        let mut seqs: Vec<u64> = before.iter().chain(&after).map(|c| c.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (0..6).collect::<Vec<u64>>());
    }
}

/// A steal visit takes up to `max_batch` jobs in one claim burst: with
/// a deep single-owner backlog and `max_batch = 2`, stolen claims must
/// arrive in consecutive same-victim pairs whose second start is one
/// service after the first.
#[test]
fn steal_batches_resolve_as_consecutive_claims() {
    let policy = StealPolicy {
        threshold: 2,
        max_batch: 2,
    };
    let script: Vec<(u64, usize, f64)> = (0..10)
        .map(|i| (i as u64, 0usize, i as f64 * 5.0))
        .collect();
    let claims = resolve(ClaimTable::stealing(2, EST, policy), &script);
    assert_schedule_invariants(&script, &claims, EST);
    let stolen: Vec<usize> = claims
        .iter()
        .enumerate()
        .filter(|(_, c)| c.victim.is_some())
        .map(|(i, _)| i)
        .collect();
    assert!(
        stolen.len() >= 2,
        "deep backlog must trigger batched steals"
    );
    // At least one batch of two: adjacent stolen claims by the same
    // thief, spaced exactly one estimated service apart.
    assert!(
        stolen.windows(2).any(|w| {
            w[1] == w[0] + 1
                && claims[w[0]].claimant == claims[w[1]].claimant
                && (claims[w[1]].start_us - claims[w[0]].start_us - EST).abs() < 1e-6
        }),
        "no two-job steal batch resolved consecutively: {claims:?}"
    );
}
