//! Property-based tests for the simulation substrate.
//!
//! The event queue is checked against a reference model (a sorted list
//! with stable insertion order), the statistics against naive
//! recomputation, and the time/distribution types against their
//! algebraic contracts.

use proptest::prelude::*;

use afs_desim::dist::{CountDist, Dist};
use afs_desim::event::EventQueue;
use afs_desim::rng::RngFactory;
use afs_desim::stats::{Histogram, Welford};
use afs_desim::time::{SimDuration, SimTime};

/// Reference model: (time, seq) pairs kept sorted stably.
#[derive(Default)]
struct ModelQueue {
    items: Vec<(u64, u64, u32)>, // (time, seq, payload)
    next_seq: u64,
}

impl ModelQueue {
    fn push(&mut self, t: u64, payload: u32) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.items.push((t, seq, payload));
        seq
    }
    fn cancel(&mut self, seq: u64) -> bool {
        let before = self.items.len();
        self.items.retain(|&(_, s, _)| s != seq);
        self.items.len() != before
    }
    fn pop(&mut self) -> Option<(u64, u32)> {
        if self.items.is_empty() {
            return None;
        }
        let best = self
            .items
            .iter()
            .enumerate()
            .min_by_key(|(_, &(t, s, _))| (t, s))
            .map(|(i, _)| i)
            .unwrap();
        let (t, _, p) = self.items.remove(best);
        Some((t, p))
    }
}

/// Reference model #2: a real `BinaryHeap` ordered by `(time, seq)`
/// ascending, with lazily-applied cancellation — the exact structure
/// (and contract) of the pre-calendar event core. Differential target
/// for the calendar queue: whatever the bucket layout, width, or resize
/// instants do internally, pop order must match this heap bit-for-bit.
#[derive(Default)]
struct HeapModel {
    heap: std::collections::BinaryHeap<std::cmp::Reverse<(u64, u64, u32)>>,
    cancelled: std::collections::HashSet<u64>,
    next_seq: u64,
    live: usize,
}

impl HeapModel {
    fn push(&mut self, t: u64, payload: u32) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(std::cmp::Reverse((t, seq, payload)));
        self.live += 1;
        seq
    }
    fn cancel(&mut self, seq: u64) -> bool {
        if seq >= self.next_seq || self.cancelled.contains(&seq) {
            return false;
        }
        // Only live entries can be cancelled; popped seqs are gone from
        // the heap, so probe for presence.
        if self
            .heap
            .iter()
            .any(|std::cmp::Reverse((_, s, _))| *s == seq)
        {
            self.cancelled.insert(seq);
            self.live -= 1;
            return true;
        }
        false
    }
    fn pop(&mut self) -> Option<(u64, u32)> {
        while let Some(std::cmp::Reverse((t, seq, p))) = self.heap.pop() {
            if self.cancelled.remove(&seq) {
                continue;
            }
            self.live -= 1;
            return Some((t, p));
        }
        None
    }
}

/// Operations applied to both queues.
#[derive(Debug, Clone)]
enum Op {
    Push(u64, u32),
    Pop,
    Cancel(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..10_000, any::<u32>()).prop_map(|(t, p)| Op::Push(t, p)),
        Just(Op::Pop),
        (0usize..64).prop_map(Op::Cancel),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn event_queue_matches_reference_model(ops in prop::collection::vec(op_strategy(), 1..200)) {
        let mut real = EventQueue::new();
        let mut model = ModelQueue::default();
        let mut live_ids = Vec::new();
        for op in ops {
            match op {
                Op::Push(t, p) => {
                    let id = real.push(SimTime::from_micros(t), p);
                    let seq = model.push(t, p);
                    live_ids.push((id, seq));
                }
                Op::Pop => {
                    let got = real.pop();
                    let want = model.pop();
                    prop_assert_eq!(got.map(|(t, p)| (t.ticks() / 1000, p)), want);
                }
                Op::Cancel(i) => {
                    if !live_ids.is_empty() {
                        let (id, seq) = live_ids[i % live_ids.len()];
                        let got = real.cancel(id);
                        let want = model.cancel(seq);
                        prop_assert_eq!(got, want);
                    }
                }
            }
            prop_assert_eq!(real.len(), model.items.len());
        }
        // Drain: remaining orders must agree.
        loop {
            let got = real.pop();
            let want = model.pop();
            prop_assert_eq!(got.map(|(t, p)| (t.ticks() / 1000, p)), want);
            if got.is_none() {
                break;
            }
        }
    }

    #[test]
    fn calendar_matches_binary_heap_under_heavy_ties(
        ops in prop::collection::vec(
            prop_oneof![
                // A tiny time domain: most pushes collide, so FIFO
                // tie-breaking carries nearly all of the ordering.
                (0u64..8, any::<u32>()).prop_map(|(t, p)| Op::Push(t, p)),
                Just(Op::Pop),
                (0usize..64).prop_map(Op::Cancel),
            ],
            1..300,
        ),
    ) {
        let mut real = EventQueue::new();
        let mut heap = HeapModel::default();
        let mut ids = Vec::new();
        for op in ops {
            match op {
                Op::Push(t, p) => {
                    let id = real.push(SimTime::from_micros(t), p);
                    let seq = heap.push(t, p);
                    ids.push((id, seq));
                }
                Op::Pop => {
                    let got = real.pop().map(|(t, p)| (t.ticks() / 1000, p));
                    prop_assert_eq!(got, heap.pop());
                }
                Op::Cancel(i) => {
                    if !ids.is_empty() {
                        let (id, seq) = ids[i % ids.len()];
                        prop_assert_eq!(real.cancel(id), heap.cancel(seq));
                    }
                }
            }
            prop_assert_eq!(real.len(), heap.live);
        }
        loop {
            let got = real.pop().map(|(t, p)| (t.ticks() / 1000, p));
            let want = heap.pop();
            let done = got.is_none();
            prop_assert_eq!(got, want);
            if done {
                break;
            }
        }
    }

    #[test]
    fn resize_boundaries_preserve_pop_order(
        // Live counts that straddle both the single-bucket threshold
        // (64) and several power-of-two calendar sizes.
        n_push in 1usize..300,
        drain in 1usize..300,
        spread in prop_oneof![Just(1u64), Just(37), Just(1009), Just(250_007)],
    ) {
        let mut real = EventQueue::new();
        let mut heap = HeapModel::default();
        for i in 0..n_push {
            let t = (i as u64).wrapping_mul(2_654_435_761) % (spread * n_push as u64);
            real.push(SimTime::from_micros(t), i as u32);
            heap.push(t, i as u32);
        }
        // Partial drain crosses shrink thresholds; then a second growth
        // wave crosses the split threshold again from a scanned state.
        for _ in 0..drain.min(n_push) {
            let got = real.pop().map(|(t, p)| (t.ticks() / 1000, p));
            prop_assert_eq!(got, heap.pop());
        }
        prop_assert!(real.n_buckets() >= 1);
        for i in 0..n_push {
            let t = (i as u64).wrapping_mul(40_503) % (spread * 4);
            real.push(SimTime::from_micros(t), (n_push + i) as u32);
            heap.push(t, (n_push + i) as u32);
        }
        loop {
            let got = real.pop().map(|(t, p)| (t.ticks() / 1000, p));
            let want = heap.pop();
            let done = got.is_none();
            prop_assert_eq!(got, want);
            if done {
                break;
            }
        }
        prop_assert_eq!(real.n_buckets(), 1, "empty queue collapses to one bucket");
    }

    #[test]
    fn tombstone_heavy_workload_bounds_memory_and_keeps_order(
        n in 64usize..600,
        keep_every in 2usize..17,
        horizon_frac in 0.0f64..1.2,
    ) {
        let mut real = EventQueue::new();
        let mut heap = HeapModel::default();
        let mut ids = Vec::new();
        let t_max = 10 * n as u64;
        for i in 0..n {
            let t = (i as u64).wrapping_mul(7_368_787) % t_max;
            ids.push((real.push(SimTime::from_micros(t), i as u32), heap.push(t, i as u32)));
        }
        for (i, &(id, seq)) in ids.iter().enumerate() {
            if i % keep_every != 0 {
                prop_assert_eq!(real.cancel(id), heap.cancel(seq));
            }
        }
        // The PR-4 memory bound survives the calendar rewrite: dead
        // entries never exceed live ones beyond the small-queue slack.
        prop_assert!(
            real.retained() <= 2 * real.len() + 64,
            "retained {} for {} live",
            real.retained(),
            real.len(),
        );
        // Horizon-bounded pops agree with the model: deliver while the
        // model head is at or before the horizon, then stop.
        let horizon = (t_max as f64 * horizon_frac) as u64;
        loop {
            let got = real.pop_at_or_before(SimTime::from_micros(horizon));
            match got {
                Some((t, p)) => {
                    prop_assert!(t.ticks() / 1000 <= horizon);
                    prop_assert_eq!(Some((t.ticks() / 1000, p)), heap.pop());
                }
                None => break,
            }
        }
        // Whatever remains is strictly past the horizon; full pops
        // drain it in model order.
        loop {
            let got = real.pop().map(|(t, p)| (t.ticks() / 1000, p));
            if let Some((t, _)) = got {
                prop_assert!(t > horizon);
            }
            let want = heap.pop();
            let done = got.is_none();
            prop_assert_eq!(got, want);
            if done {
                break;
            }
        }
    }

    #[test]
    fn time_arithmetic_roundtrips(a in 0u64..u64::MAX / 4, d in 0u64..u64::MAX / 4) {
        let t = SimTime::from_ticks(a);
        let dur = SimDuration::from_ticks(d);
        prop_assert_eq!((t + dur) - dur, t);
        prop_assert_eq!((t + dur).since(t), dur);
        prop_assert!(t + dur >= t);
    }

    #[test]
    fn duration_scaling_consistent(us in 0.0f64..1e9, k in 0.0f64..1e3) {
        let d = SimDuration::from_micros_f64(us);
        let scaled = d.mul_f64(k);
        // Within rounding of the fixed-point representation.
        let expect = us * k;
        prop_assert!((scaled.as_micros_f64() - expect).abs() <= expect * 1e-9 + 1e-3);
    }

    #[test]
    fn welford_matches_naive(xs in prop::collection::vec(-1e6f64..1e6, 1..400)) {
        let mut w = Welford::new();
        for &x in &xs {
            w.add(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        prop_assert!((w.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        if xs.len() > 1 {
            let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0);
            prop_assert!((w.variance() - var).abs() < 1e-4 * (1.0 + var.abs()));
        }
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(w.min(), min);
        prop_assert_eq!(w.max(), max);
    }

    #[test]
    fn welford_merge_equals_sequential(
        xs in prop::collection::vec(-1e3f64..1e3, 1..100),
        ys in prop::collection::vec(-1e3f64..1e3, 1..100),
    ) {
        let mut all = Welford::new();
        for &x in xs.iter().chain(&ys) {
            all.add(x);
        }
        let mut a = Welford::new();
        for &x in &xs {
            a.add(x);
        }
        let mut b = Welford::new();
        for &y in &ys {
            b.add(y);
        }
        a.merge(&b);
        prop_assert!((a.mean() - all.mean()).abs() < 1e-8 * (1.0 + all.mean().abs()));
        prop_assert!((a.variance() - all.variance()).abs() < 1e-6 * (1.0 + all.variance()));
        prop_assert_eq!(a.count(), all.count());
    }

    #[test]
    fn histogram_quantiles_are_order_statistics(
        xs in prop::collection::vec(0.0f64..99.0, 1..300),
        q in 0.01f64..1.0,
    ) {
        let mut h = Histogram::new(1.0, 100);
        for &x in &xs {
            h.add(x);
        }
        let quantile = h.quantile(q).expect("within range");
        // The histogram quantile must bound the true order statistic
        // from above by at most one bin width.
        let mut sorted = xs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let idx = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len()) - 1;
        let exact = sorted[idx];
        prop_assert!(quantile + 1e-9 >= exact, "quantile {quantile} < exact {exact}");
        prop_assert!(quantile <= exact + 1.0 + 1e-9, "quantile {quantile} > exact+bin {exact}");
    }

    #[test]
    fn distributions_sample_in_support(seed in any::<u64>(), mean in 0.1f64..1e5) {
        let mut rng = RngFactory::new(seed).stream("prop");
        let dists = [Dist::constant(mean), Dist::exponential(mean)];
        for d in &dists {
            for _ in 0..50 {
                let x = d.sample(&mut rng);
                prop_assert!(x.is_finite() && x >= 0.0, "{d:?} sampled {x}");
            }
        }
    }

    #[test]
    fn count_dists_sample_at_least_one(seed in any::<u64>(), mean in 1.0f64..100.0) {
        let mut rng = RngFactory::new(seed).stream("prop");
        let d = CountDist::geometric_with_mean(mean);
        for _ in 0..100 {
            prop_assert!(d.sample(&mut rng) >= 1);
        }
    }

    #[test]
    fn rng_streams_reproducible(seed in any::<u64>(), name in "[a-z]{1,12}") {
        use rand::RngCore;
        let f = RngFactory::new(seed);
        let mut a = f.stream(&name);
        let mut b = f.stream(&name);
        for _ in 0..8 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    // ----------------------------------------------------------------
    // Scheduler invariants: the properties every backend built on this
    // substrate (the simulator's event loop, the native runtime's
    // dispatch/steal structure) relies on.
    // ----------------------------------------------------------------

    #[test]
    fn event_times_pop_monotonically(
        times in prop::collection::vec(0u64..1_000_000, 1..300),
        interleave in prop::collection::vec(any::<bool>(), 0..300),
    ) {
        // However pushes and pops interleave, the sequence of popped
        // timestamps is nondecreasing — no event can run before one
        // that already ran.
        fn check(last: &mut Option<u64>, t: SimTime) {
            let ticks = t.ticks();
            if let Some(prev) = *last {
                assert!(ticks >= prev, "time ran backwards: {ticks} after {prev}");
            }
            *last = Some(ticks);
        }
        let mut q = EventQueue::new();
        let mut pending = times.iter();
        let mut last: Option<u64> = None;
        for &do_pop in &interleave {
            if do_pop {
                if let Some((t, _)) = q.pop() {
                    check(&mut last, t);
                }
            } else if let Some(&t) = pending.next() {
                q.push(SimTime::from_micros(t), 0u32);
                last = None; // a new push may legally be earlier than past pops
            }
        }
        for &t in pending {
            q.push(SimTime::from_micros(t), 0u32);
        }
        // Final drain with no interleaved pushes: strictly monotone.
        last = None;
        while let Some((t, _)) = q.pop() {
            check(&mut last, t);
        }
    }

    #[test]
    fn dispatch_and_steal_lose_nothing(
        events in prop::collection::vec((0u64..100_000, any::<u32>()), 1..200),
        n_queues in 2usize..6,
        steals in prop::collection::vec((0usize..6, 0usize..6), 0..100),
    ) {
        // A model of the native dispatcher: events are routed to
        // per-worker queues by payload, then an arbitrary sequence of
        // steal operations moves the oldest event from one queue to
        // another. Whatever the steal pattern, draining everything
        // afterwards yields exactly the dispatched multiset.
        let mut queues: Vec<EventQueue<u32>> = (0..n_queues).map(|_| EventQueue::new()).collect();
        for &(t, p) in &events {
            let q = p as usize % n_queues;
            queues[q].push(SimTime::from_micros(t), p);
        }
        for &(from, to) in &steals {
            let (from, to) = (from % n_queues, to % n_queues);
            if from == to {
                continue;
            }
            if let Some((t, p)) = queues[from].pop() {
                queues[to].push(t, p);
            }
        }
        let mut drained: Vec<(u64, u32)> = Vec::new();
        for q in &mut queues {
            while let Some((t, p)) = q.pop() {
                drained.push((t.ticks() / 1000, p));
            }
        }
        drained.sort_unstable();
        let mut expected: Vec<(u64, u32)> = events.clone();
        expected.sort_unstable();
        prop_assert_eq!(drained, expected);
    }

    #[test]
    fn seeded_schedule_replays_identically(
        seed in any::<u64>(),
        n in 1usize..200,
        mean_us in 1.0f64..10_000.0,
    ) {
        // A Poisson schedule built from named RNG streams is a pure
        // function of the seed: build it twice, pop it twice, and both
        // the arrival stamps and the dispatch order must match exactly.
        let build = || {
            use rand::Rng;
            let f = RngFactory::new(seed);
            let mut arr = f.stream("sched-arrivals");
            let mut route = f.stream("sched-route");
            let exp = Dist::exponential(mean_us);
            let mut q = EventQueue::new();
            let mut t = 0.0f64;
            for _ in 0..n {
                t += exp.sample(&mut arr);
                let worker: u32 = route.gen_range(0..4);
                q.push(SimTime::from_micros_f64(t), worker);
            }
            let mut order = Vec::new();
            while let Some((at, w)) = q.pop() {
                order.push((at.ticks(), w));
            }
            order
        };
        prop_assert_eq!(build(), build());
    }
}
