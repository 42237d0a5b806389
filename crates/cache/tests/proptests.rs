//! Property-based tests for the cache models and simulator.
//!
//! The set-associative cache (LRU and FIFO) is checked against a
//! brute-force reference model on random traces, and its `purge_region`
//! (which starts at a per-region lower-bound set) against a model that
//! scans every set; the hierarchy's line-priced `access_sweep` against
//! the reference-by-reference definition on random platforms, with the
//! purges and flushes a worker issues between sweeps; the analytic
//! functions against their
//! mathematical contracts (bounds, monotonicity, closed forms); the
//! execution-time model against its interpolation invariants; the
//! table-driven dispatch pricer against that model, tick for tick, on
//! random direct-mapped platforms, workloads, bounds and weights; and
//! the SST fitter against exact recovery from noiseless data.

use proptest::prelude::*;
use std::collections::VecDeque;

use afs_cache::model::exec_time::{
    Age, ComponentAges, ComponentWeights, ExecTimeModel, TimeBounds,
};
use afs_cache::model::fit::{fit_sst, FootprintObs};
use afs_cache::model::flush::flushed_fraction;
use afs_cache::model::footprint::SstParams;
use afs_cache::model::hierarchy::FlushModel;
use afs_cache::model::platform::{CacheGeometry, Platform};
use afs_cache::model::pricer::DispatchPricer;
use afs_cache::sim::cache::Cache;
use afs_cache::sim::hierarchy::{MemoryHierarchy, ServedBy};
use afs_cache::sim::trace::{MemRef, Region, TraceSink};
use afs_desim::time::SimDuration;

/// Brute-force reference: per set, a deque of tags, newest first. LRU
/// moves a hit to the front; FIFO leaves it where its fill put it.
struct RefLru {
    sets: Vec<VecDeque<u64>>,
    line: u64,
    assoc: usize,
}

impl RefLru {
    fn new(sets: usize, line: u64, assoc: usize) -> Self {
        RefLru {
            sets: (0..sets).map(|_| VecDeque::new()).collect(),
            line,
            assoc,
        }
    }
    /// Returns hit.
    fn access(&mut self, addr: u64) -> bool {
        let l = addr / self.line;
        let s = (l % self.sets.len() as u64) as usize;
        let set = &mut self.sets[s];
        if let Some(pos) = set.iter().position(|&t| t == l) {
            set.remove(pos);
            set.push_front(l);
            true
        } else {
            if set.len() == self.assoc {
                set.pop_back();
            }
            set.push_front(l);
            false
        }
    }
    fn contains(&self, addr: u64) -> bool {
        let l = addr / self.line;
        let s = (l % self.sets.len() as u64) as usize;
        self.sets[s].contains(&l)
    }
}

/// Brute-force LRU reference that also knows owners: per set,
/// `(tag, region, dirty)` newest first. Its purge visits every set.
struct RefOwned {
    sets: Vec<Vec<(u64, Region, bool)>>,
    line: u64,
    assoc: usize,
}

impl RefOwned {
    fn set_of(&mut self, l: u64) -> &mut Vec<(u64, Region, bool)> {
        let s = (l % self.sets.len() as u64) as usize;
        &mut self.sets[s]
    }
    /// Returns hit.
    fn access(&mut self, addr: u64, region: Region, write: bool) -> bool {
        let (l, assoc) = (addr / self.line, self.assoc);
        let set = self.set_of(l);
        let hit = set.iter().position(|e| e.0 == l);
        let dirty = match hit {
            Some(pos) => set.remove(pos).2 || write,
            None => write,
        };
        set.truncate(assoc - usize::from(hit.is_none()));
        set.insert(0, (l, region, dirty));
        hit.is_some()
    }
    fn invalidate(&mut self, l: u64) -> bool {
        let set = self.set_of(l);
        let before = set.len();
        set.retain(|e| e.0 != l);
        set.len() < before
    }
    fn purge(&mut self, region: Region) -> u64 {
        let before = self.lines().count();
        self.sets
            .iter_mut()
            .for_each(|s| s.retain(|e| e.1 != region));
        (before - self.lines().count()) as u64
    }
    fn lines(&self) -> impl Iterator<Item = &(u64, Region, bool)> {
        self.sets.iter().flatten()
    }
    /// `(occupancy, dirty occupancy)` of a region.
    fn occupancy(&self, region: Region) -> (u64, u64) {
        let of = |dirty_only: bool| {
            self.lines()
                .filter(|e| e.1 == region && (e.2 || !dirty_only))
                .count() as u64
        };
        (of(false), of(true))
    }
}

/// One step of a `Cache` script.
#[derive(Debug, Clone, Copy)]
enum CacheOp {
    /// An access; the same address under another region re-tags its line.
    Access(u64, Region, bool),
    Invalidate(u64),
    Purge(Region),
    FlushAll,
}

fn cache_op() -> impl Strategy<Value = CacheOp> {
    (0u8..18, 0u64..2048, 0usize..6, any::<bool>()).prop_map(|(kind, addr, region, write)| {
        let region = Region::ALL[region];
        match kind {
            0..=11 => CacheOp::Access(addr, region, write),
            12..=13 => CacheOp::Invalidate(addr),
            14..=16 => CacheOp::Purge(region),
            _ => CacheOp::FlushAll,
        }
    })
}

fn small_geometry() -> impl Strategy<Value = (u64, u32, u32)> {
    // (sets, line, assoc) with modest sizes for brute-force comparison;
    // 3 sets is the one count that indexes by `%` instead of a mask.
    (0u32..=5, 0u32..=2, 1u32..=4).prop_map(|(set_pow, line_pow, assoc)| {
        let sets = if set_pow == 0 { 3 } else { 1u64 << set_pow };
        let line = 16u32 << line_pow;
        (sets, line, assoc)
    })
}

/// A sink that prices a sweep by the `TraceSink` default body, i.e. by
/// the definition: one `MemoryHierarchy::access` per reference.
struct ByReference(MemoryHierarchy);

impl TraceSink for ByReference {
    fn access(&mut self, mref: MemRef) {
        self.0.access(mref);
    }
}

/// One `access_sweep` call.
#[derive(Debug, Clone, Copy)]
struct Sweep {
    first: MemRef,
    stride: u64,
    period: u64,
    n: u64,
}

fn sweep() -> impl Strategy<Value = Sweep> {
    (
        (0u8..3, 0usize..6, 0u64..8192),
        prop_oneof![Just(4u64), Just(16u64), Just(48u64), Just(0u64)],
        1u64..=96,
        (0u8..3, 0u64..300),
    )
        .prop_map(|((kind, region, addr), stride, period, (shape, extra))| {
            let region = Region::ALL[region];
            let first = match kind {
                0 => MemRef::fetch(addr),
                1 => MemRef::read(addr, region),
                _ => MemRef::write(addr, region),
            };
            // Walked once, cut short, or wrapping past the first pass.
            let n = match shape {
                0 => period,
                1 => extra % period,
                _ => period + extra,
            };
            Sweep {
                first,
                stride,
                period,
                n,
            }
        })
}

/// One step of a hierarchy script: a sweep, or what `Worker::process`
/// and the engine do around one — the steps named after the previous
/// sweep are what make a sweep over warm lines the common case.
#[derive(Debug, Clone, Copy)]
enum Step {
    Sweep(Sweep),
    /// A sweep that does not become the previous one: fills, evictions
    /// and re-tags among the previous sweep's lines and beside them.
    Interfere(Sweep),
    /// The previous sweep again, over the lines it left resident.
    Repeat,
    /// The previous sweep's range as loads, then `len` stores from its
    /// `skip`-th reference on (clean resident lines turning dirty).
    ReadThenStore {
        skip: u64,
        len: u64,
    },
    /// The previous sweep from its `skip`-th reference on under another
    /// owner (resident lines re-tagged).
    Retag {
        region: Region,
        skip: u64,
    },
    /// The previous sweep from its `skip`-th reference on, 4 KiB up: the
    /// same sets of every power-of-two L1 here but the largest, so it
    /// evicts the tail of the previous sweep's lines or, with two ways
    /// or more, takes turns with them as most recent way (hits that only
    /// reorder a set) — and leaves the first line, which a run probe
    /// looks at before anything else, as it was.
    Alias {
        skip: u64,
    },
    /// `bytes` of the previous sweep's range purged from its `skip`-th
    /// reference on.
    PurgeInside {
        skip: u64,
        bytes: u64,
    },
    PurgeRegion(Region),
    PurgeRange {
        addr: u64,
        bytes: u64,
    },
    FlushL1,
}

/// What a step issues: sweeps, then at most one purge or flush.
#[derive(Debug, Clone, Copy)]
enum Op {
    Sweep(Sweep),
    PurgeRegion(Region),
    PurgeRange(u64, u64),
    FlushL1,
}

fn step() -> impl Strategy<Value = Step> {
    (0u8..22, sweep(), 0usize..6, 0u64..8192, 0u64..600).prop_map(|(kind, sweep, region, a, b)| {
        let region = Region::ALL[region];
        match kind {
            0..=5 => Step::Sweep(sweep),
            6..=8 => Step::Repeat,
            9..=10 => Step::ReadThenStore { skip: a, len: b },
            11 => Step::Retag { region, skip: 0 },
            12 => Step::Retag { region, skip: a },
            13..=14 => Step::PurgeRegion(region),
            15..=16 => Step::PurgeRange { addr: a, bytes: b },
            17 => Step::FlushL1,
            18..=19 => Step::Alias { skip: a },
            _ => Step::PurgeInside { skip: a, bytes: b },
        }
    })
}

/// One sweep asked four times over, each repeat after nothing at all
/// (one in three), an alias of its tail or a purge inside it (one in six
/// each), or one step of any other kind. A script of lone steps rarely probes the same run twice, so it
/// would pass with a run memo that never answers; here the second
/// repeat onward finds a memoised run, which the step before it has or
/// has not made stale.
fn train() -> impl Strategy<Value = Vec<Step>> {
    let gap = || {
        (0u8..6, 0u64..8192, 0u64..600, step()).prop_map(|(kind, skip, bytes, step)| match step {
            _ if kind < 2 => None,
            _ if kind == 2 => Some(Step::Alias { skip }),
            _ if kind == 3 => Some(Step::PurgeInside { skip, bytes }),
            Step::Sweep(s) => Some(Step::Interfere(s)),
            other => Some(other),
        })
    };
    (sweep(), gap(), gap(), gap()).prop_map(|(s, a, b, c)| {
        let mut steps = vec![Step::Sweep(s)];
        for gap in [a, b, c] {
            steps.extend(gap);
            steps.push(Step::Repeat);
        }
        steps
    })
}

/// A script: lone steps and trains, mixed.
fn script() -> impl Strategy<Value = Vec<Step>> {
    let part = prop_oneof![step().prop_map(|s| vec![s]), train()];
    prop::collection::vec(part, 1..=12).prop_map(|parts| parts.concat())
}

/// One pass of `s` from its `skip`-th reference on, `up` bytes higher.
fn tail(s: Sweep, skip: u64, up: u64) -> Sweep {
    let skip = skip % s.period;
    Sweep {
        first: MemRef {
            addr: s.first.addr + up + skip * s.stride,
            ..s.first
        },
        stride: s.stride,
        period: s.period - skip,
        n: s.period - skip,
    }
}

/// Flatten a script to the calls it makes; a step that refers to the
/// previous sweep before there is one issues nothing.
fn ops_of(script: &[Step]) -> Vec<Op> {
    let mut ops = Vec::new();
    let mut prev: Option<Sweep> = None;
    for &step in script {
        match (step, prev) {
            (Step::Sweep(s), _) => {
                prev = Some(s);
                ops.push(Op::Sweep(s));
            }
            (Step::Interfere(s), _) | (Step::Repeat, Some(s)) => ops.push(Op::Sweep(s)),
            (Step::ReadThenStore { skip, len }, Some(s)) => {
                let first = MemRef::read(s.first.addr, s.first.region);
                let skip = skip % s.period;
                let len = 1 + len % (s.period - skip);
                ops.push(Op::Sweep(Sweep { first, ..s }));
                ops.push(Op::Sweep(Sweep {
                    first: MemRef::write(first.addr + skip * s.stride, first.region),
                    stride: s.stride,
                    period: len,
                    n: len,
                }));
            }
            (Step::Retag { region, skip }, Some(s)) => {
                let tail = tail(s, skip, 0);
                ops.push(Op::Sweep(Sweep {
                    first: MemRef {
                        region,
                        ..tail.first
                    },
                    ..tail
                }));
            }
            (Step::Alias { skip }, Some(s)) => ops.push(Op::Sweep(tail(s, skip, 4096))),
            (Step::PurgeInside { skip, bytes }, Some(s)) => ops.push(Op::PurgeRange(
                s.first.addr + skip % s.period * s.stride,
                1 + bytes % 64,
            )),
            (Step::PurgeRegion(r), _) => ops.push(Op::PurgeRegion(r)),
            (Step::PurgeRange { addr, bytes }, _) => ops.push(Op::PurgeRange(addr, bytes)),
            (Step::FlushL1, _) => ops.push(Op::FlushL1),
            (
                Step::Repeat
                | Step::ReadThenStore { .. }
                | Step::Retag { .. }
                | Step::Alias { .. }
                | Step::PurgeInside { .. },
                None,
            ) => {}
        }
    }
    ops
}

/// Issue `op` to a sink that prices sweeps its own way over the
/// hierarchy `hier` finds in it.
fn apply<S: TraceSink>(op: Op, sink: &mut S, hier: fn(&mut S) -> &mut MemoryHierarchy) {
    match op {
        Op::Sweep(s) => sink.access_sweep(s.first, s.stride, s.period, s.n),
        Op::PurgeRegion(r) => hier(sink).purge_region(r),
        Op::PurgeRange(addr, bytes) => hier(sink).purge_range(addr, bytes),
        Op::FlushL1 => hier(sink).flush_l1(),
    }
}

/// L1 {3, 4, 16, 64, 256} sets (one to sixteen stamp blocks) × {1, 2, 4}
/// ways × {16, 32} B, split or unified, under an L2 whose lines are at
/// least as long.
fn small_platform() -> impl Strategy<Value = Platform> {
    (
        (
            prop_oneof![
                Just(3u64),
                Just(4u64),
                Just(16u64),
                Just(64u64),
                Just(256u64)
            ],
            prop_oneof![Just(1u32), Just(2u32), Just(4u32)],
            prop_oneof![Just(16u32), Just(32u32)],
            any::<bool>(),
        ),
        (
            prop_oneof![Just(16u64), Just(64u64), Just(256u64)],
            1u32..=2,
            0u32..=2,
        ),
        prop_oneof![Just(0.0f64), Just(1.0f64), Just(0.3f64)],
    )
        .prop_map(
            |((sets, assoc, line, split), (l2_sets, l2_assoc, l2_line_pow), hit)| {
                let l2_line = line << l2_line_pow;
                Platform {
                    l1: CacheGeometry::new(sets * assoc as u64 * line as u64, line, assoc),
                    l1_split: split,
                    l2: CacheGeometry::new(
                        l2_sets * l2_assoc as u64 * l2_line as u64,
                        l2_line,
                        l2_assoc,
                    ),
                    l1_hit_cycles: hit,
                    ..Platform::sgi_challenge_r4400()
                }
            },
        )
}

/// Everything observable about a hierarchy short of its recency order:
/// its counters (cycles by bit pattern) and, per cache, the counters and
/// every region's occupancy and dirty occupancy.
fn observable(h: &MemoryHierarchy) -> String {
    let s = h.stats;
    let mut out = format!(
        "{} {} {} {} {:#x}",
        s.accesses,
        s.l1_hits,
        s.l2_hits,
        s.mem_fills,
        s.cycles.to_bits()
    );
    for c in [Some(&h.l1d), h.l1i.as_ref(), Some(&h.l2)]
        .into_iter()
        .flatten()
    {
        let occupancy = Region::ALL.map(|r| (c.occupancy(r), c.dirty_occupancy(r)));
        out += &format!("\n{:?} {:?}", c.stats, occupancy);
    }
    out
}

#[test]
fn purge_region_reaches_the_last_set_and_returns_at_once_when_absent() {
    for sets in [3u64, 8] {
        let mut c = Cache::new(CacheGeometry::new(sets * 2 * 16, 16, 2));
        for l in 0..sets {
            c.access(l * 16, Region::Code);
        }
        // The only packet line sits in the last set the scan visits.
        let packet = (2 * sets - 1) * 16;
        c.access_rw(packet, Region::PacketData, true);
        assert_eq!(c.purge_region(Region::PacketData), 1);
        assert!(!c.contains(packet));
        assert_eq!(c.occupancy(Region::PacketData), 0);
        assert_eq!(c.dirty_occupancy(Region::PacketData), 0);
        // Absent now, and a region that never was resident.
        assert_eq!(c.purge_region(Region::PacketData), 0);
        assert_eq!(c.purge_region(Region::Stream), 0);
        assert_eq!(c.occupancy(Region::Code), sets);
        assert!((0..sets).all(|l| c.contains(l * 16)));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn lru_cache_matches_reference(
        (sets, line, assoc) in small_geometry(),
        addrs in prop::collection::vec(0u64..4096, 1..300),
    ) {
        let cap = sets * line as u64 * assoc as u64;
        let mut real = Cache::new(CacheGeometry::new(cap, line, assoc));
        let mut model = RefLru::new(sets as usize, line as u64, assoc as usize);
        for &a in &addrs {
            let hit_real = real.access(a, Region::Stream).hit;
            let hit_model = model.access(a);
            prop_assert_eq!(hit_real, hit_model, "divergence at addr {}", a);
        }
        // Residency agrees everywhere afterwards.
        for &a in &addrs {
            prop_assert_eq!(real.contains(a), model.contains(a));
        }
    }

    #[test]
    fn purge_region_from_the_lower_bound_equals_a_scan_of_every_set(
        (sets, line, assoc) in small_geometry(),
        script in prop::collection::vec(cache_op(), 1..200),
    ) {
        let cap = sets * line as u64 * assoc as u64;
        let mut real = Cache::new(CacheGeometry::new(cap, line, assoc));
        let mut model = RefOwned {
            sets: vec![Vec::new(); sets as usize],
            line: line as u64,
            assoc: assoc as usize,
        };
        for (k, &op) in script.iter().enumerate() {
            match op {
                CacheOp::Access(a, r, w) => {
                    prop_assert_eq!(real.access_rw(a, r, w).hit, model.access(a, r, w), "op {}", k);
                }
                CacheOp::Invalidate(a) => {
                    let l = real.line_of(a);
                    prop_assert_eq!(real.invalidate_line(l), model.invalidate(l), "op {}", k);
                }
                CacheOp::Purge(r) => {
                    prop_assert_eq!(real.purge_region(r), model.purge(r), "op {} = {:?}", k, op);
                }
                CacheOp::FlushAll => {
                    real.flush_all();
                    model.sets.iter_mut().for_each(Vec::clear);
                }
            }
            if matches!(op, CacheOp::Purge(_) | CacheOp::FlushAll) || k + 1 == script.len() {
                for r in Region::ALL {
                    let got = (real.occupancy(r), real.dirty_occupancy(r));
                    prop_assert_eq!(got, model.occupancy(r), "{:?} after op {}", r, k);
                }
                for &prior in &script[..=k] {
                    if let CacheOp::Access(a, ..) = prior {
                        let resident = model.lines().any(|e| e.0 == a / line as u64);
                        prop_assert_eq!(real.contains(a), resident, "{:#x} after op {}", a, k);
                    }
                }
            }
        }
    }

    #[test]
    fn cache_occupancy_is_bounded_and_consistent(
        addrs in prop::collection::vec(0u64..100_000, 1..400),
    ) {
        let mut c = Cache::new(CacheGeometry::new(4096, 16, 2));
        for &a in &addrs {
            c.access(a, Region::NonProtocol);
            prop_assert!(c.total_occupancy() <= 256); // 4096/16 lines
        }
        let purged = c.purge_region(Region::NonProtocol);
        prop_assert_eq!(c.total_occupancy(), 0);
        prop_assert!(purged <= 256);
    }

    #[test]
    fn flushed_fraction_contracts(n in 0.0f64..1e7, set_pow in 2u32..14, assoc in 1u32..5) {
        let sets = 1u64 << set_pow;
        let f = flushed_fraction(n, sets, assoc);
        prop_assert!((0.0..=1.0).contains(&f));
        // Monotone in n.
        let f2 = flushed_fraction(n * 1.5 + 1.0, sets, assoc);
        prop_assert!(f2 >= f - 1e-12);
        // More sets (same assoc) never increases displacement.
        let f_bigger = flushed_fraction(n, sets * 2, assoc);
        prop_assert!(f_bigger <= f + 1e-12);
    }

    #[test]
    fn flushed_fraction_direct_mapped_closed_form(n in 0.0f64..1e6, set_pow in 2u32..14) {
        let sets = 1u64 << set_pow;
        let f = flushed_fraction(n, sets, 1);
        let closed = 1.0 - (1.0 - 1.0 / sets as f64).powf(n);
        prop_assert!((f - closed).abs() < 1e-9);
    }

    #[test]
    fn footprint_contracts(
        w in 0.5f64..10.0,
        a in 0.0f64..0.1,
        b in 0.3f64..0.95,
        log_d in -0.3f64..0.0,
        r in 1.0f64..1e8,
        line_pow in 2u32..8,
    ) {
        let p = SstParams { w, a, b, log_d };
        let line = f64::from(1u32 << line_pow);
        let u = p.footprint(r, line);
        prop_assert!(u >= 0.0 && u <= r, "u = {u} outside [0, {r}]");
        // Monotone in R — guaranteed only inside the model's validity
        // domain (the power law grows like R^(b + log d · log L), so
        // b + log d · log L >= 0), which the MVS constants satisfy for
        // all realistic line sizes.
        prop_assume!(b + log_d * line.log10() >= 0.0);
        let u2 = p.footprint(r * 2.0, line);
        prop_assert!(u2 >= u - 1e-9);
    }

    #[test]
    fn displacement_curves_monotone(x1 in 0.0f64..1e7, x2 in 0.0f64..1e7) {
        let model = FlushModel::new(
            Platform::sgi_challenge_r4400(),
            afs_cache::model::footprint::MVS_WORKLOAD,
        );
        let (lo, hi) = if x1 <= x2 { (x1, x2) } else { (x2, x1) };
        let d_lo = model.displacement(SimDuration::from_micros_f64(lo));
        let d_hi = model.displacement(SimDuration::from_micros_f64(hi));
        prop_assert!(d_hi.f1 >= d_lo.f1 - 1e-12);
        prop_assert!(d_hi.f2 >= d_lo.f2 - 1e-12);
        prop_assert!(d_lo.f1 >= d_lo.f2 - 1e-12, "L1 never outlives L2");
    }

    #[test]
    fn exec_time_within_bounds(
        warm in 50.0f64..200.0,
        l2_extra in 1.0f64..100.0,
        cold_extra in 1.0f64..100.0,
        wc in 0.0f64..1.0,
        wt_frac in 0.0f64..1.0,
        x_us in 0.0f64..1e7,
    ) {
        let bounds = TimeBounds::new(warm, warm + l2_extra, warm + l2_extra + cold_extra);
        let wt = (1.0 - wc) * wt_frac;
        let ws = 1.0 - wc - wt;
        let weights = ComponentWeights::new(wc, wt, ws);
        let model = ExecTimeModel::new(
            bounds,
            FlushModel::new(
                Platform::sgi_challenge_r4400(),
                afs_cache::model::footprint::MVS_WORKLOAD,
            ),
            weights,
        );
        let x = SimDuration::from_micros_f64(x_us);
        let t = model.protocol_time(ComponentAges::uniform(x)).as_micros_f64();
        prop_assert!(t >= warm - 1e-3, "t = {t} below warm {warm}");
        prop_assert!(
            t <= bounds.t_cold_us + 1e-3,
            "t = {t} above cold {}",
            bounds.t_cold_us
        );
        // Remote never cheaper than cold for the same ages.
        let t_cold = model
            .protocol_time(ComponentAges {
                stream: Age::Cold,
                ..ComponentAges::ALL_WARM
            })
            .as_micros_f64();
        let t_remote = model
            .protocol_time(ComponentAges {
                stream: Age::Remote,
                ..ComponentAges::ALL_WARM
            })
            .as_micros_f64();
        prop_assert!(t_remote >= t_cold - 1e-9);
    }

    /// The pricer's table is per configuration: tick equality must hold
    /// for any direct-mapped geometry, clock, SST workload (`W` over the
    /// ×0.02 – ×512 range `abl17_sensitivity` sweeps; `b` up to exponents
    /// ≥ 1, where the table stays empty), bounds and weights — whichever
    /// intervals the build admits, leaves empty, or never reaches.
    #[test]
    fn pricer_ticks_match_the_model_on_direct_mapped_platforms(
        (l1_sets_pow, l1_line_pow, l2_sets_pow, l2_line_extra) in
            (6u32..=14, 4u32..=6, 10u32..=16, 0u32..=3),
        (split, clock_mhz, cycles_per_ref) in (any::<bool>(), 25.0f64..1000.0, 1.0f64..10.0),
        (w_log, a, b, log_d) in (-1.7f64..2.7, 0.0f64..0.1, 0.3f64..1.2, -0.3f64..0.0),
        (warm, l2_extra, cold_extra) in (50.0f64..2000.0, 0.0f64..500.0, 0.0f64..2000.0),
        (wc, wt_frac) in (0.0f64..1.0, 0.0f64..1.0),
        seed in any::<u64>(),
    ) {
        let (l1_line, l2_line) = (1u32 << l1_line_pow, 1u32 << (l1_line_pow + l2_line_extra));
        let platform = Platform {
            clock_hz: clock_mhz * 1e6,
            cycles_per_ref,
            l1: CacheGeometry::new((1u64 << l1_sets_pow) * u64::from(l1_line), l1_line, 1),
            l1_split: split,
            l2: CacheGeometry::new((1u64 << l2_sets_pow) * u64::from(l2_line), l2_line, 1),
            ..Platform::sgi_challenge_r4400()
        };
        let workload = SstParams { w: 2.19827 * 10f64.powf(w_log), a, b, log_d };
        let wt = (1.0 - wc) * wt_frac;
        let model = ExecTimeModel::new(
            TimeBounds::new(warm, warm + l2_extra, warm + l2_extra + cold_extra),
            FlushModel::new(platform, workload),
            ComponentWeights::new(wc, wt, 1.0 - wc - wt),
        );
        let pricer = DispatchPricer::new(&model);
        // splitmix64 over the case's seed: 48 triples, every age kind,
        // `Elapsed` log-uniform over 1 ns – 2 000 s.
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut age = || match next() % 8 {
            0 => Age::Warm,
            1 => Age::Cold,
            2 => Age::Remote,
            _ => {
                let unit = (next() >> 11) as f64 / (1u64 << 53) as f64;
                Age::Elapsed(SimDuration::from_ticks((2e12f64.ln() * unit).exp() as u64))
            }
        };
        for i in 0..48 {
            let code_global = age();
            let thread = if i % 3 == 0 { code_global } else { age() };
            let ages = ComponentAges { code_global, thread, stream: age() };
            prop_assert_eq!(
                pricer.price(ages).0,
                model.protocol_time(ages),
                "tick diverged for {:?}", ages
            );
        }
    }

    #[test]
    fn sst_fit_recovers_random_parameters(
        w in 0.5f64..5.0,
        a in 0.0f64..0.08,
        b in 0.4f64..0.9,
        log_d in -0.25f64..-0.01,
    ) {
        let truth = SstParams { w, a, b, log_d };
        let mut obs = Vec::new();
        for &line in &[16.0, 32.0, 64.0, 128.0] {
            for e in 2..8 {
                let r = 10f64.powi(e);
                let u = truth.footprint(r, line);
                // Skip saturated points (u clamped to R breaks linearity).
                if u < r * 0.99 {
                    obs.push(FootprintObs {
                        refs: r,
                        line_bytes: line,
                        unique_lines: u,
                    });
                }
            }
        }
        prop_assume!(obs.len() >= 8);
        let fitted = fit_sst(&obs).expect("fit");
        prop_assert!((fitted.b - b).abs() < 1e-6, "b: {} vs {b}", fitted.b);
        prop_assert!((fitted.log_d - log_d).abs() < 1e-6);
    }

    #[test]
    fn back_invalidation_preserves_inclusion(
        addrs in prop::collection::vec(0u64..65_536, 1..500),
    ) {
        // Small hierarchy: every L1-resident line must also be in L2.
        let mut platform = Platform::sgi_challenge_r4400();
        platform.l1 = CacheGeometry::new(512, 16, 1);
        platform.l1_split = false;
        platform.l2 = CacheGeometry::new(4096, 64, 1);
        let mut h = MemoryHierarchy::new(platform);
        for &a in &addrs {
            h.access(MemRef::read(a, Region::Stream));
        }
        for &a in &addrs {
            if h.l1d.contains(a) {
                prop_assert!(h.l2.contains(a), "inclusion violated at {a:#x}");
            }
        }
    }
}

proptest! {
    // A memo answer over a run a step has quietly changed needs a train,
    // a geometry the sweep fits and the right step between two repeats:
    // about one case in a hundred, so this property gets more of them.
    #![proptest_config(ProptestConfig::with_cases(1000))]

    #[test]
    fn access_sweep_equals_the_reference_by_reference_walk(
        platform in small_platform(),
        script in script(),
        suffix_seed in any::<u64>(),
    ) {
        let mut fast = MemoryHierarchy::new(platform);
        let mut slow = ByReference(fast.clone());
        for (k, op) in ops_of(&script).into_iter().enumerate() {
            apply(op, &mut fast, |h| h);
            apply(op, &mut slow, |s| &mut s.0);
            prop_assert_eq!(observable(&fast), observable(&slow.0), "after op {} = {:?}", k, op);
        }
        // Where a common random suffix is served reads out what the
        // counters cannot: which lines are resident and in what order.
        let mut x = suffix_seed | 1;
        for k in 0..500 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let addr = (x >> 8) % 12_288;
            let mref = match x & 3 {
                0 => MemRef::fetch(addr),
                1 => MemRef::write(addr, Region::Stream),
                _ => MemRef::read(addr, Region::NonProtocol),
            };
            let (a, b): (ServedBy, ServedBy) = (fast.access(mref), slow.0.access(mref));
            prop_assert_eq!(a, b, "suffix reference {} = {:?}", k, mref);
        }
        prop_assert_eq!(observable(&fast), observable(&slow.0));
    }
}
