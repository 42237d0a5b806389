//! A recorded native run's trace carries one queue-depth definition,
//! counted from the merged trace (`MemRecorder::stamp_queue_depths`):
//! a packet counts on queue `q` from the `Enqueue` or `Requeue` naming
//! `q` until the `Dispatch` or `Orphaned` that takes it off.
//!
//! * Recorded runs render byte-identical JSONL at every dequeue batch:
//!   the router rows of `tests/determinism_matrix.rs`, whose queues run
//!   past the 64 slots of a batch-1 ring. A depth read off a ring
//!   follows how far the dispatcher ran ahead on the host, capped at the
//!   ring's depth, and fails there.
//! * On seeded random merged traces, with steals, orphans and an
//!   orphan its survivor starts before the `Requeue` stamp, the pass
//!   matches an O(n²) count of that definition.
//! * On heavy processor-fault runs, no count goes negative and every
//!   queue ends empty.
//! * A stolen `Dispatch` runs the steal its thief claimed: an orphan
//!   recovery requeues is no steal, so under heavy faults every stolen
//!   `Dispatch` has exactly one `StealClaim`, naming its worker.

use affinity_sched::native::{
    poisson_workload, run_native_recorded, FaultLoad, NativeConfig, Pinning, PolicySpec,
    ProcFaultPlan,
};
use affinity_sched::obs::{ChargeKind, MemRecorder, ObsEvent, Recorder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One job a ring holds: (seq, arrival, stream, stolen from).
type Job = (u64, f64, u32, Option<u32>);

/// Worker `w` runs `job` at `max(vclock, arrival)`, recording what a
/// native worker records.
fn serve(slices: &mut [MemRecorder], vclock: &mut [f64], w: usize, job: Job, service: f64) {
    let (seq, arrival, stream, stolen) = job;
    let start = vclock[w].max(arrival);
    let r = &mut slices[w];
    r.record(ObsEvent::Dispatch {
        t_us: start,
        seq,
        stream,
        worker: w as u32,
        service_us: service,
        stream_migrated: stolen.is_some(),
        thread_migrated: false,
        stolen: stolen.is_some(),
    });
    if stolen.is_some() {
        r.record(ObsEvent::CacheCharge {
            t_us: start,
            worker: w as u32,
            kind: ChargeKind::Lock,
            amount_us: 1.0,
        });
    }
    r.record(ObsEvent::QueueDepth {
        t_us: start,
        queue: stolen.unwrap_or(w as u32),
        depth: 0,
    });
    vclock[w] = start + service;
    r.record(ObsEvent::Complete {
        t_us: vclock[w],
        seq,
        stream,
        worker: w as u32,
        delay_us: vclock[w] - arrival,
        ok: true,
    });
}

/// A native-shaped trace: per-worker slices and a dispatcher slice,
/// merged as a recorded run merges them. Arrivals and services sit on a
/// coarse grid so instants tie often; some packets are stolen, and one
/// worker may crash for good, orphaning what it had not started.
fn random_trace(rng: &mut StdRng) -> MemRecorder {
    let workers = rng.gen_range(1..5usize);
    let n = rng.gen_range(1..60u64);
    let crash = (workers > 1 && rng.gen_bool(0.6))
        .then(|| (rng.gen_range(1..workers), rng.gen_range(0..40u32) as f64));
    let mut dispatcher = MemRecorder::new();
    let mut slices: Vec<MemRecorder> = (0..workers).map(|_| MemRecorder::new()).collect();
    // Per worker, in ring order.
    let mut rings: Vec<Vec<Job>> = vec![Vec::new(); workers];
    let mut t = 0.0;
    for seq in 0..n {
        t += rng.gen_range(0..3u32) as f64;
        let stream = rng.gen_range(0..6u32);
        // The worker that crashes draws half the traffic, so it falls
        // behind while the survivors idle.
        let owner = match crash {
            Some((dead, _)) if rng.gen_bool(0.5) => dead,
            _ => rng.gen_range(0..workers),
        };
        let claimant = if rng.gen_bool(0.3) {
            rng.gen_range(0..workers)
        } else {
            owner
        };
        let stolen = (claimant != owner).then_some(owner as u32);
        if let Some(victim) = stolen {
            dispatcher.record(ObsEvent::StealClaim {
                t_us: t,
                seq,
                from: victim,
                to: claimant as u32,
            });
        }
        dispatcher.record(ObsEvent::Enqueue {
            t_us: t,
            seq,
            stream,
            queue: claimant as u32,
            depth: 0,
        });
        rings[claimant].push((seq, t, stream, stolen));
    }
    let mut vclock = vec![0.0f64; workers];
    let mut orphans = Vec::new();
    for (w, ring) in rings.iter().enumerate() {
        for (i, &job) in ring.iter().enumerate() {
            let start = vclock[w].max(job.1);
            if let Some((dead, crash_at)) = crash.filter(|&(d, at)| d == w && start >= at) {
                slices[w].record(ObsEvent::WorkerDown {
                    t_us: crash_at,
                    worker: dead as u32,
                });
                orphans.extend(ring[i..].iter().map(|&job| (dead, crash_at, job)));
                break;
            }
            let service = rng.gen_range(1..5u32) as f64;
            serve(&mut slices, &mut vclock, w, job, service);
        }
    }
    // Recovery after the last arrival, in seq order, onto a survivor —
    // who starts an orphan at max(vclock, arrival), possibly before the
    // failure instant its Orphaned/Requeue pair is stamped with.
    orphans.sort_by_key(|o| o.2 .0);
    for (dead, crash_at, job) in orphans {
        let at = job.1.max(crash_at);
        let survivor = (dead + rng.gen_range(1..workers)) % workers;
        dispatcher.record(ObsEvent::Orphaned {
            t_us: at,
            seq: job.0,
            worker: dead as u32,
        });
        dispatcher.record(ObsEvent::Requeue {
            t_us: at,
            seq: job.0,
            queue: survivor as u32,
        });
        let service = rng.gen_range(1..5u32) as f64;
        serve(&mut slices, &mut vclock, survivor, job, service);
    }
    let mut out = MemRecorder::new();
    slices.insert(0, dispatcher);
    out.merge(slices);
    out
}

/// The definition, counted the slow way: every packet's on-queue
/// intervals over trace positions, then, for each stamped event, the
/// packets whose interval on its queue holds its position (a
/// `QueueDepth` reads its emitting dispatch's position).
fn brute_force_depths(events: &[ObsEvent]) -> Vec<Option<u32>> {
    let pos = |want: &dyn Fn(&ObsEvent) -> bool| events.iter().position(want);
    // (queue, from, until)
    let mut intervals: Vec<(u32, usize, usize)> = Vec::new();
    for (e, ev) in events.iter().enumerate() {
        let ObsEvent::Enqueue { seq, queue, .. } = *ev else {
            continue;
        };
        let d = pos(&|x| matches!(*x, ObsEvent::Dispatch { seq: s, .. } if s == seq))
            .unwrap_or(usize::MAX);
        let o = pos(&|x| matches!(*x, ObsEvent::Orphaned { seq: s, .. } if s == seq));
        match o.filter(|&o| o < d) {
            Some(o) => {
                intervals.push((queue, e, o));
                let (r, requeued) = events
                    .iter()
                    .enumerate()
                    .find_map(|(r, x)| match *x {
                        ObsEvent::Requeue { seq: s, queue, .. } if s == seq => Some((r, queue)),
                        _ => None,
                    })
                    .expect("an orphan is requeued");
                intervals.push((requeued, r, d));
            }
            None => intervals.push((queue, e, d)),
        }
    }
    let count = |queue: u32, at: usize| {
        intervals
            .iter()
            .filter(|&&(q, from, until)| q == queue && from <= at && at < until)
            .count() as u32
    };
    let sampled_queue = |d: usize| match events[d] {
        ObsEvent::Dispatch {
            seq, stolen: true, ..
        } => events
            .iter()
            .find_map(|x| match *x {
                ObsEvent::StealClaim { seq: s, from, .. } if s == seq => Some(from),
                _ => None,
            })
            .expect("a stolen dispatch has its claim"),
        ObsEvent::Dispatch { worker, .. } => worker,
        _ => unreachable!(),
    };
    events
        .iter()
        .enumerate()
        .map(|(i, ev)| match *ev {
            ObsEvent::Enqueue { queue, .. } => Some(count(queue, i)),
            ObsEvent::QueueDepth { t_us, queue, .. } => {
                // Its dispatch: the k-th, by worker, of this instant's
                // dispatches sampling `queue`, for the k-th such sample.
                let k = events[..i]
                    .iter()
                    .filter(|x| matches!(**x, ObsEvent::QueueDepth { t_us: t, queue: q, .. } if t == t_us && q == queue))
                    .count();
                let mut dispatches: Vec<(u32, usize)> = events
                    .iter()
                    .enumerate()
                    .filter_map(|(d, x)| match *x {
                        ObsEvent::Dispatch { t_us: t, worker, .. }
                            if t == t_us && sampled_queue(d) == queue =>
                        {
                            Some((worker, d))
                        }
                        _ => None,
                    })
                    .collect();
                dispatches.sort();
                Some(count(queue, dispatches[k].1))
            }
            _ => None,
        })
        .collect()
}

fn stamped_depth(ev: &ObsEvent) -> Option<u32> {
    match *ev {
        ObsEvent::Enqueue { depth, .. } | ObsEvent::QueueDepth { depth, .. } => Some(depth),
        _ => None,
    }
}

#[test]
fn stamping_matches_a_brute_force_count_on_random_traces() {
    let mut rng = StdRng::seed_from_u64(0xDE97_4000);
    let (mut orphans, mut early_starts, mut steals, mut deep, mut tied) = (0, 0, 0, 0, 0);
    for case in 0..400 {
        let mut rec = random_trace(&mut rng);
        let tally = rec.stamp_queue_depths();
        let want = brute_force_depths(&rec.events);
        let got: Vec<Option<u32>> = rec.events.iter().map(stamped_depth).collect();
        assert_eq!(got, want, "case {case}: {:#?}", rec.events);
        assert!(tally.low >= 0, "case {case}: {tally:?}");
        assert!(tally.end.iter().all(|&n| n == 0), "case {case}: {tally:?}");
        let max = got.iter().flatten().copied().max().unwrap_or(0);
        assert_eq!(rec.counters.max_queue_depth, max as u64, "case {case}");
        let stamped = got.iter().flatten().count() as u64;
        assert_eq!(rec.counters.queue_depth.count(), stamped, "case {case}");
        // What the cases exercised.
        for ev in &rec.events {
            match *ev {
                ObsEvent::Orphaned { seq, t_us, .. } => {
                    orphans += 1;
                    early_starts += rec.events.iter().any(|x| {
                        matches!(*x, ObsEvent::Dispatch { seq: s, t_us: t, .. } if s == seq && t < t_us)
                    }) as u32;
                }
                ObsEvent::Dispatch { stolen: true, .. } => steals += 1,
                _ => {}
            }
        }
        deep += (max >= 4) as u32;
        // Two samples of one queue at one instant: an owner's dispatch
        // and a thief's steal from it.
        let samples: Vec<(u64, u32)> = rec
            .events
            .iter()
            .filter_map(|ev| match *ev {
                ObsEvent::QueueDepth { t_us, queue, .. } => Some((t_us.to_bits(), queue)),
                _ => None,
            })
            .collect();
        tied += (1..samples.len())
            .filter(|&i| samples[..i].contains(&samples[i]))
            .count();
    }
    assert!(orphans > 500, "{orphans} orphans");
    assert!(
        early_starts > 20,
        "{early_starts} orphans started before their requeue"
    );
    assert!(steals > 500, "{steals} steals");
    assert!(tied > 100, "{tied} samples of one queue at one instant");
    assert!(deep > 100, "{deep} traces with a queue 4 deep");
}

#[test]
fn heavy_fault_runs_keep_every_count_non_negative_and_drain() {
    // The run of `recorded_fault_runs_balance_the_conservation_ledger`.
    let workload = poisson_workload(8, 40, 2_000.0, 32, 7);
    let horizon = workload.last().unwrap().arrival_us;
    let mut orphans = 0;
    for policy in PolicySpec::ALL {
        let mut cfg = NativeConfig::new(4, policy);
        cfg.pinning = Pinning::Off;
        cfg.faults =
            ProcFaultPlan::seeded(0xFA17, 4, (0.2 * horizon, horizon), &FaultLoad::heavy());
        let (report, mut rec) = run_native_recorded(&cfg, workload.clone());
        orphans += report.orphaned;
        let stamped = rec.events.clone();
        let tally = rec.stamp_queue_depths();
        assert!(
            tally.low >= 0,
            "{policy:?}: a count went negative: {tally:?}"
        );
        assert_eq!(tally.end, vec![0; 4], "{policy:?}: a queue did not drain");
        assert_eq!(rec.events, stamped, "{policy:?}: stamping is idempotent");
    }
    assert!(orphans > 0, "the heavy plan must orphan work");
}

#[test]
fn every_stolen_dispatch_runs_the_claim_of_its_worker_under_heavy_faults() {
    let workload = poisson_workload(8, 40, 2_000.0, 32, 7);
    let horizon = workload.last().unwrap().arrival_us;
    let mut cfg = NativeConfig::new(4, PolicySpec::Ips);
    cfg.pinning = Pinning::Off;
    cfg.faults = ProcFaultPlan::seeded(0xFA17, 4, (0.2 * horizon, horizon), &FaultLoad::heavy());
    let (report, mut rec) = run_native_recorded(&cfg, workload);
    assert!(report.orphaned > 0, "the heavy plan must orphan work");
    let mut stolen = 0;
    for ev in &rec.events {
        let ObsEvent::Dispatch {
            seq,
            worker,
            stolen: true,
            ..
        } = *ev
        else {
            continue;
        };
        stolen += 1;
        let claims: Vec<u32> = rec
            .events
            .iter()
            .filter_map(|c| match *c {
                ObsEvent::StealClaim { seq: s, to, .. } if s == seq => Some(to),
                _ => None,
            })
            .collect();
        assert_eq!(claims, [worker], "stolen seq {seq} ran on worker {worker}");
    }
    assert_eq!(
        stolen, report.steals,
        "the trace and the report count steals alike"
    );
    assert!(stolen > 0, "the run must steal");
    assert_eq!(rec.stamp_queue_depths().end, vec![0; 4]);
}
