//! Isolated per-operation timings of single layers, taken from outside
//! by looping over each layer's public functions. Every function
//! returns nanoseconds per operation; inputs derive from the workload's
//! seed and results pass through `black_box` so the loop is not folded
//! away.

use std::hint::black_box;
use std::time::Instant;

use afs_cache::model::{Age, ComponentAges, DispatchPricer};
use afs_cache::sim::{MemRef, MemoryHierarchy, Region};
use afs_desim::{EventQueue, Histogram, RngFactory, SimDuration, SimTime, Welford};
use afs_native::RingQueue;
use afs_obs::{MemRecorder, ObsEvent, Recorder};
use afs_sched::{ClaimTable, HashedLru, StealPolicy};
use afs_workload::ArrivalGen;
use afs_xkernel::driver::PacketFactory;
use afs_xkernel::StreamId;
use rand::Rng;

/// A cheap deterministic word stream for loop-internal choices (an LCG;
/// quality is irrelevant, data dependence is the point).
#[derive(Debug, Clone, Copy)]
pub struct Lcg(pub u64);

impl Lcg {
    /// Next word.
    #[inline]
    pub fn next_word(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 11
    }
}

fn per_op(t: Instant, ops: u64) -> f64 {
    t.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

/// `desim`: push/pop churn on an [`EventQueue`] holding a standing
/// population of `pending` events — at ≤ 64 that is the compact-heap
/// mode, above it the calendar mode. One op = one push or one pop.
pub fn event_ns_per_op(pending: usize, pairs: u64, seed: u64) -> f64 {
    let pending = pending.max(1) as u64;
    let mut lcg = Lcg(seed);
    let mut q: EventQueue<u64> = EventQueue::new();
    for i in 0..pending {
        q.push(SimTime::from_micros(lcg.next_word() % (2 * pending)), i);
    }
    // Settle the queue's layout (bucket width, mode) before timing.
    let churn = |q: &mut EventQueue<u64>, lcg: &mut Lcg, n: u64| {
        let mut acc = 0u64;
        for _ in 0..n {
            let (t, v) = q.pop().expect("standing population");
            acc ^= v;
            // Hold model: the popped event reschedules itself a random
            // distance ahead, so insertions land across the whole window.
            let ahead = 1 + lcg.next_word() % (2 * pending);
            q.push(SimTime::from_ticks(t.ticks() + ahead * 1_000), v);
        }
        acc
    };
    black_box(churn(&mut q, &mut lcg, pairs / 10));
    let t = Instant::now();
    black_box(churn(&mut q, &mut lcg, pairs));
    per_op(t, 2 * pairs)
}

/// `desim`: one delay record as the collector takes it — two Welford
/// updates and one fixed-width histogram insert.
pub fn stats_ns_per_record(records: u64, seed: u64) -> f64 {
    let mut lcg = Lcg(seed);
    let mut delay = Welford::new();
    let mut service = Welford::new();
    let mut hist = Histogram::new(25.0, 4000);
    let t = Instant::now();
    for _ in 0..records {
        let x = 150.0 + (lcg.next_word() % 4096) as f64 * 0.25;
        delay.add(x);
        service.add(x * 0.8);
        hist.add(x);
    }
    black_box((delay.mean(), service.mean(), hist.count()));
    per_op(t, records)
}

/// A seeded log-spaced grid of cache ages from 1 µs to 100 s.
fn age_grid(seed: u64) -> Vec<SimDuration> {
    let mut rng = RngFactory::new(seed).stream("bench-age-grid");
    (0..4096)
        .map(|i| {
            let exp = 8.0 * (i as f64 + rng.gen_range(0.0..1.0)) / 4096.0;
            SimDuration::from_micros_f64(10f64.powf(exp))
        })
        .collect()
}

/// `cache`: ns per [`DispatchPricer::displacement`] call and per
/// [`DispatchPricer::protocol_time`] call. The priced ages put thread
/// and code at one age and the stream at another — the two live
/// displacement evaluations a simulator dispatch pays.
pub fn pricer_ns_per_call(pricer: &DispatchPricer, calls: u64, seed: u64) -> (f64, f64) {
    let grid = age_grid(seed);
    let t = Instant::now();
    let mut acc = 0.0;
    for i in 0..calls {
        let d = pricer.displacement(black_box(grid[i as usize % grid.len()]));
        acc += d.f1 + d.f2;
    }
    black_box(acc);
    let displacement = per_op(t, calls);

    let t = Instant::now();
    let mut acc = 0u64;
    for i in 0..calls {
        let x = grid[i as usize % grid.len()];
        let y = grid[(i as usize * 7 + 3) % grid.len()];
        let ages = ComponentAges {
            code_global: Age::Elapsed(x),
            thread: Age::Elapsed(x),
            stream: Age::Elapsed(y),
        };
        acc = acc.wrapping_add(pricer.protocol_time(black_box(ages)).ticks());
    }
    black_box(acc);
    (displacement, per_op(t, calls))
}

/// `cache`: ns per [`MemoryHierarchy::access`] over a synthetic
/// reference stream reproducing a measured hit mix: `l1_frac` of the
/// references re-touch a small hot set, `l2_frac` cycle through a region
/// larger than L1 but far inside L2, the rest touch fresh lines.
pub fn hier_ns_per_ref(
    mut hier: MemoryHierarchy,
    l1_frac: f64,
    l2_frac: f64,
    refs: u64,
    seed: u64,
) -> f64 {
    const LINE: u64 = 128;
    let mut lcg = Lcg(seed);
    // Decide each reference's class up front so the timed loop is one
    // table read plus the access itself.
    let classes: Vec<u8> = (0..1 << 16)
        .map(|_| {
            let u = (lcg.next_word() % 1_000_000) as f64 / 1e6;
            if u < l1_frac {
                0
            } else if u < l1_frac + l2_frac {
                1
            } else {
                2
            }
        })
        .collect();
    let (mut hot, mut warm, mut fresh) = (0u64, 0u64, 0u64);
    let t = Instant::now();
    for i in 0..refs {
        let addr = match classes[i as usize & 0xffff] {
            0 => {
                hot = (hot + 1) % 32;
                0x10_0000 + hot * LINE
            }
            1 => {
                warm = (warm + 1) % 1024;
                0x20_0000 + warm * LINE
            }
            _ => {
                fresh += 1;
                0x4000_0000 + fresh * LINE
            }
        };
        black_box(hier.access(MemRef::read(addr, Region::Global)));
    }
    black_box(hier.stats.cycles);
    per_op(t, refs)
}

/// A Zipf(α) key stream over `n` flows (65 536 draws, reused
/// cyclically by the loops below).
pub fn zipf_keys(n: u32, alpha: f64, seed: u64) -> Vec<u32> {
    let mut acc = 0.0;
    let cum: Vec<f64> = afs_workload::zipf_weights(n as usize, alpha)
        .into_iter()
        .map(|w| {
            acc += w;
            acc
        })
        .collect();
    let mut rng = RngFactory::new(seed).stream("bench-zipf-keys");
    (0..1 << 16)
        .map(|_| {
            let u: f64 = rng.gen_range(0.0..1.0);
            cum.partition_point(|&c| c <= u).min(cum.len() - 1) as u32
        })
        .collect()
}

/// `sched`: ns per [`HashedLru`] operation (a `get`, plus an `insert` on
/// a miss) at each of `capacities`, over `keys`.
pub fn lru_ns_per_op(capacities: &[usize], keys: &[u32], lookups: u64) -> f64 {
    let mut ops = 0u64;
    let mut ns = 0.0;
    for &cap in capacities {
        let mut lru: HashedLru<u32> = HashedLru::new(cap.max(1));
        for &k in keys.iter().take(4 * cap) {
            lru.insert(k as u64, k);
        }
        let mut n = 0u64;
        let t = Instant::now();
        for i in 0..lookups {
            let k = keys[i as usize % keys.len()];
            n += 1;
            if black_box(lru.get(k as u64)).is_none() {
                lru.insert(k as u64, k);
                n += 1;
            }
        }
        ns += t.elapsed().as_nanos() as f64;
        ops += n;
    }
    ns / ops.max(1) as f64
}

/// `sched`: ns per job through a 4-worker [`ClaimTable`] (`offer`, plus
/// the closing `flush`) under a bursty arrival stream with a hot owner —
/// owner pops, backlogs and steal visits all occur. Modeled workers
/// only; no threads.
pub fn claim_ns_per_pkt(stealing: bool, est_service_us: f64, jobs: u64, seed: u64) -> f64 {
    const WORKERS: usize = 4;
    let mut lcg = Lcg(seed);
    let mut table = if stealing {
        ClaimTable::stealing(WORKERS, est_service_us, StealPolicy::default())
    } else {
        ClaimTable::pooled(WORKERS, est_service_us)
    };
    let mut out = Vec::with_capacity(1024);
    let mut resolved = 0u64;
    let mut t_us = 0.0;
    let t = Instant::now();
    for seq in 0..jobs {
        let r = lcg.next_word();
        // Mean gap ≈ est/4·1.1: the four modeled workers run near 90 %.
        t_us += (r % 128) as f64 / 64.0 * est_service_us / 4.0 * 1.1;
        let owner = if r & 0x300 == 0 {
            (seq as usize) % WORKERS
        } else {
            0
        };
        table.offer(seq, owner, t_us, &mut out);
        if out.len() >= 1024 {
            resolved += out.len() as u64;
            out.clear();
        }
    }
    table.flush(&mut out);
    resolved += out.len() as u64;
    let ns = per_op(t, jobs);
    assert_eq!(resolved, jobs, "claim table lost jobs");
    ns
}

/// `workload`: ns per [`ArrivalGen::next_gap`].
pub fn arrival_ns_per_gap(mut gen: ArrivalGen, gaps: u64, seed: u64) -> f64 {
    let mut rng = RngFactory::new(seed).stream("bench-arrivals");
    let mut acc = 0u64;
    let t = Instant::now();
    for _ in 0..gaps {
        acc = acc.wrapping_add(gen.next_gap(&mut rng).ticks());
    }
    black_box(acc);
    per_op(t, gaps)
}

/// `xkernel`: ns per [`PacketFactory::frame_into`] at `payload` bytes
/// into a reused buffer.
pub fn frame_build_ns_per_pkt(payload: usize, frames: u64) -> f64 {
    let mut factory = PacketFactory::new();
    let mut buf = Vec::with_capacity(payload + 64);
    let t = Instant::now();
    for i in 0..frames {
        factory.frame_into(StreamId((i % 1024) as u32), payload, &mut buf);
        black_box(buf.len());
    }
    per_op(t, frames)
}

/// `native`: ns per item through a [`RingQueue`], single thread: push a
/// train of `batch` items, then take them back with one `pop_batch`.
pub fn ring_ns_per_item(batch: usize, items: u64) -> f64 {
    let batch = batch.max(1);
    let ring: RingQueue<u64> = RingQueue::with_capacity(1024);
    let mut train = Vec::with_capacity(batch);
    let rounds = items / batch as u64;
    let mut acc = 0u64;
    let t = Instant::now();
    for r in 0..rounds {
        for i in 0..batch as u64 {
            ring.push(r + i).expect("ring has room for one train");
        }
        ring.pop_batch(&mut train, batch);
        for v in train.drain(..) {
            acc ^= v;
        }
    }
    black_box(acc);
    per_op(t, rounds * batch as u64)
}

/// `obs`: ns per [`MemRecorder::record`] over the per-packet event mix
/// the native workers emit (dispatch, queue depth, completion), with
/// the counters folding every event and retention capped.
pub fn record_ns_per_event(events: u64) -> f64 {
    let mut rec = MemRecorder::with_event_capacity(1 << 16);
    let t = Instant::now();
    for i in 0..events / 3 {
        let t_us = i as f64 * 180.0;
        let (seq, stream, worker) = (i, (i % 16) as u32, (i % 4) as u32);
        rec.record(ObsEvent::Dispatch {
            t_us,
            seq,
            stream,
            worker,
            service_us: 180.0,
            stream_migrated: i % 7 == 0,
            thread_migrated: false,
            stolen: false,
        });
        rec.record(ObsEvent::QueueDepth {
            t_us,
            queue: worker,
            depth: (i % 5) as u32,
        });
        rec.record(ObsEvent::Complete {
            t_us: t_us + 180.0,
            seq,
            stream,
            worker,
            delay_us: 240.0,
            ok: true,
        });
    }
    black_box(rec.counters.completed);
    per_op(t, events / 3 * 3)
}
