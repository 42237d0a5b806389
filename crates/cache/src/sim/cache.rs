//! A set-associative cache with per-region occupancy tracking.
//!
//! Used trace-driven: the calibration harness replays instrumented
//! protocol executions and controlled flush workloads through it, standing
//! in for the paper's hardware measurements. Replacement within a set is
//! LRU (the R4400 and Challenge secondary are direct-mapped, where the
//! choice of policy cannot matter).

use crate::model::platform::CacheGeometry;
use crate::sim::trace::Region;

/// One resident line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LineEntry {
    /// Line tag (full line address; sets are selected separately, keeping
    /// the tag redundant but simple and cheap at these sizes).
    line_addr: u64,
    /// Owner of the line (for occupancy statistics).
    region: Region,
    /// Written since fill (write-back caches must flush it on eviction;
    /// dirty lines are also what makes migrating stream state dearer
    /// than a clean memory fill — the remote premium's physical basis).
    dirty: bool,
}

/// Filler for slots past a set's length; never read.
const EMPTY: LineEntry = LineEntry {
    line_addr: 0,
    region: Region::Code,
    dirty: false,
};

/// `log2` of the sets one mutation stamp covers.
const BLOCK_SHIFT: u32 = 4;
/// Entries of the direct-mapped run memo.
const MEMO_ENTRIES: usize = 32;
/// Shortest run worth an entry: a shorter one is cheaper walked.
const MEMO_MIN_RUN: u64 = 4;

/// A run [`Cache::stateless_run`] walked: the `n` lines from `key`'s
/// line each held the stateless-hit state for `key`'s owner and store
/// flag when the mutation clock read `clock`.
#[derive(Debug, Clone, Copy)]
struct RunMemo {
    /// `(first line, region, is_write)`, as asked.
    key: (u64, Region, bool),
    n: u64,
    clock: u64,
}

/// Result of a lookup-and-fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Whether the line was resident.
    pub hit: bool,
    /// The line displaced to make room, if any.
    pub evicted: Option<(u64, Region)>,
    /// The displaced line was dirty (a write-back was issued).
    pub wrote_back: bool,
}

/// A set-associative cache with LRU replacement.
///
/// Storage is flat: set `s` owns `slots[s × assoc .. s × assoc + lens[s]]`,
/// ways ordered most-recent-first.
#[derive(Debug, Clone)]
pub struct Cache {
    geometry: CacheGeometry,
    /// `log2(line_bytes)`.
    line_shift: u32,
    /// `sets − 1` when the set count is a power of two (index by mask);
    /// `CacheGeometry::new` admits other counts, which index by `%`.
    set_mask: Option<u64>,
    slots: Vec<LineEntry>,
    /// Resident ways per set.
    lens: Vec<u32>,
    /// Per-region resident line counts, dense-indexed by `Region::index`.
    occupancy: [u64; 6],
    /// Per region, a set no resident line of it lies below (`sets` when
    /// none can be resident): lowered wherever a line takes the region's
    /// tag, reset only by the region's purge and by `flush_all`. Losing
    /// lines leaves it a valid bound.
    low_set: [usize; 6],
    /// Mutation clock: advanced by every change to `slots` or `lens`.
    clock: u64,
    /// Per block of `1 << BLOCK_SHIFT` sets, the clock of its last
    /// mutation. No slot or length of a set changes without its block's
    /// stamp advancing past every clock a memo entry can hold, so a block
    /// whose stamp is no later than an entry's clock is as the entry's
    /// walk saw it.
    stamps: Vec<u64>,
    /// Runs `stateless_run` has walked, indexed by a hash of their first
    /// line. Never invalidated: a stale entry fails the stamp comparison.
    memo: [Option<RunMemo>; MEMO_ENTRIES],
    /// Lines `stateless_run` has walked rather than answered from `memo`.
    #[cfg(test)]
    pub(crate) walked: u64,
    /// Statistics.
    pub stats: CacheStats,
}

/// Hit/miss counters, total and per region.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Total hits.
    pub hits: u64,
    /// Dirty lines written back on eviction.
    pub writebacks: u64,
    /// Per-region accesses.
    pub region_accesses: [u64; 6],
    /// Per-region hits.
    pub region_hits: [u64; 6],
}

impl Cache {
    /// Create an empty cache.
    pub fn new(geometry: CacheGeometry) -> Self {
        assert!(
            geometry.line_bytes.is_power_of_two(),
            "line size must be 2^k"
        );
        let sets = geometry.sets();
        Cache {
            geometry,
            line_shift: geometry.line_bytes.trailing_zeros(),
            set_mask: sets.is_power_of_two().then(|| sets - 1),
            slots: vec![EMPTY; sets as usize * geometry.associativity as usize],
            lens: vec![0; sets as usize],
            occupancy: [0; 6],
            low_set: [sets as usize; 6],
            clock: 0,
            stamps: vec![0; (sets as usize).div_ceil(1 << BLOCK_SHIFT)],
            memo: [None; MEMO_ENTRIES],
            #[cfg(test)]
            walked: 0,
            stats: CacheStats::default(),
        }
    }

    /// The cache geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// Line address for a byte address.
    #[inline]
    pub fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    #[inline]
    fn set_of(&self, line_addr: u64) -> usize {
        match self.set_mask {
            Some(mask) => (line_addr & mask) as usize,
            None => (line_addr % self.geometry.sets()) as usize,
        }
    }

    /// Slot index of the set's first way.
    #[inline]
    fn base_of(&self, set: usize) -> usize {
        set * self.geometry.associativity as usize
    }

    /// The resident ways of the set `line_addr` maps to, most recent first.
    #[inline]
    fn ways_of(&self, line_addr: u64) -> &[LineEntry] {
        let set = self.set_of(line_addr);
        let base = self.base_of(set);
        &self.slots[base..base + self.lens[set] as usize]
    }

    /// Record a change to a slot or the length of `set`.
    #[inline]
    fn touch(&mut self, set: usize) {
        self.clock += 1;
        self.stamps[set >> BLOCK_SHIFT] = self.clock;
    }

    /// Access a byte address with a read, filling on miss.
    pub fn access(&mut self, addr: u64, region: Region) -> AccessResult {
        self.access_rw(addr, region, false)
    }

    /// Access a byte address, filling on miss; `is_write` marks the line
    /// dirty. Returns hit/evicted/write-back info.
    pub fn access_rw(&mut self, addr: u64, region: Region, is_write: bool) -> AccessResult {
        let line = self.line_of(addr);
        let set = self.set_of(line);
        let base = self.base_of(set);
        let occupied = self.lens[set] as usize;

        self.stats.accesses += 1;
        self.stats.region_accesses[region.index()] += 1;

        let ways = &mut self.slots[base..base + occupied];
        if let Some(pos) = ways.iter().position(|e| e.line_addr == line) {
            self.stats.hits += 1;
            self.stats.region_hits[region.index()] += 1;
            // Occupancy region may change owner on re-touch (e.g. a
            // packet buffer recycled as stream state).
            let e = &mut ways[pos];
            // Anything but the stateless hit changes the set.
            let mutates = e.region != region || (is_write && !e.dirty) || pos > 0;
            if e.region != region {
                self.occupancy[e.region.index()] -= 1;
                self.occupancy[region.index()] += 1;
                e.region = region;
                self.low_set[region.index()] = self.low_set[region.index()].min(set);
            }
            if is_write {
                e.dirty = true;
            }
            if pos > 0 {
                ways[..=pos].rotate_right(1);
            }
            if mutates {
                self.touch(set);
            }
            return AccessResult {
                hit: true,
                evicted: None,
                wrote_back: false,
            };
        }

        // Miss: fill at the front, evicting the last (least recent) way
        // when the set is full. The ways ahead of the victim (all of them
        // when nothing is evicted) move back one slot.
        let mut wrote_back = false;
        let (evicted, moved) = if occupied >= self.geometry.associativity as usize {
            let victim_pos = occupied - 1;
            let victim = self.slots[base + victim_pos];
            self.occupancy[victim.region.index()] -= 1;
            if victim.dirty {
                self.stats.writebacks += 1;
                wrote_back = true;
            }
            (Some((victim.line_addr, victim.region)), victim_pos)
        } else {
            self.lens[set] += 1;
            (None, occupied)
        };
        self.slots.copy_within(base..base + moved, base + 1);
        self.slots[base] = LineEntry {
            line_addr: line,
            region,
            dirty: is_write,
        };
        self.occupancy[region.index()] += 1;
        self.low_set[region.index()] = self.low_set[region.index()].min(set);
        self.touch(set);
        AccessResult {
            hit: false,
            evicted,
            wrote_back,
        }
    }

    /// Count `k` further hits on a line the caller knows is resident,
    /// tagged `region` and most recent in its set: exactly what `k` calls
    /// of [`Cache::access_rw`] on it would do, which is advance the
    /// counters and nothing else.
    pub(crate) fn charge_hits(&mut self, region: Region, k: u64) {
        let r = region.index();
        self.stats.accesses += k;
        self.stats.hits += k;
        self.stats.region_accesses[r] += k;
        self.stats.region_hits[r] += k;
    }

    /// How many of the `n` consecutive lines from `line` are each
    /// resident as the first way of their set, owned by `region` (and
    /// dirty if `is_write`) — the state in which another access to the
    /// line changes only counters. Stops at the first line that is not.
    ///
    /// [`Cache::walk_run`] is the definition. A run it found is kept in
    /// `memo`, and asking for it again costs one stamp comparison per
    /// block it spans for as long as none of those blocks has changed.
    /// A query longer than the stored run gets the stored length: the
    /// caller asks again from the line after it, and a real access is
    /// ground truth, so reporting a run short is always safe.
    pub(crate) fn stateless_run(
        &mut self,
        line: u64,
        n: u64,
        region: Region,
        is_write: bool,
    ) -> u64 {
        let key = (line, region, is_write);
        let set = self.set_of(line);
        // Fibonacci hashing: the top five bits of the product.
        let slot = (line.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 59) as usize;
        // A cold sweep's probes are refused by their first line: that one
        // look answers them, and only a run that has begun asks the memo.
        let mut run = self.walk_run(set, line, n.min(1), region, is_write);
        if run == 1 {
            if let Some(m) = self.memo[slot].filter(|m| m.key == key) {
                let len = n.min(m.n);
                let blocks = set >> BLOCK_SHIFT..(set + len as usize).div_ceil(1 << BLOCK_SHIFT);
                if self.stamps[blocks].iter().all(|&stamp| stamp <= m.clock) {
                    debug_assert_eq!(len, self.walk_run(set, line, len, region, is_write));
                    return len;
                }
            }
            run = self.walk_run(set, line, n, region, is_write);
        }
        #[cfg(test)]
        {
            self.walked += (run + 1).min(n);
        }
        // A run that wraps past the last set is not stored: its blocks
        // are not one range.
        if run >= MEMO_MIN_RUN && set + run as usize <= self.lens.len() {
            let clock = self.clock;
            self.memo[slot] = Some(RunMemo { key, n: run, clock });
        }
        run
    }

    /// [`Cache::stateless_run`] by its definition: one slot read per line.
    fn walk_run(&self, mut set: usize, line: u64, n: u64, region: Region, is_write: bool) -> u64 {
        let assoc = self.geometry.associativity as usize;
        let mut run = 0;
        while run < n {
            let e = &self.slots[set * assoc];
            if self.lens[set] == 0
                || e.line_addr != line + run
                || e.region != region
                || (is_write && !e.dirty)
            {
                break;
            }
            run += 1;
            set += 1;
            if set == self.lens.len() {
                set = 0;
            }
        }
        run
    }

    /// Whether another access to `addr`'s line would change only
    /// counters: a [`Cache::walk_run`] of one.
    pub(crate) fn hit_is_stateless(&self, addr: u64, region: Region, is_write: bool) -> bool {
        let line = self.line_of(addr);
        self.walk_run(self.set_of(line), line, 1, region, is_write) == 1
    }

    /// Whether the lines of `first..=last` all map to different sets:
    /// the range spans no more consecutive lines than there are sets.
    pub(crate) fn one_line_per_set(&self, first: u64, last: u64) -> bool {
        self.line_of(last) - self.line_of(first) < self.lens.len() as u64
    }

    /// Resident dirty-line count for one region — the lines a migration
    /// must transfer cache-to-cache rather than refetch from memory.
    pub fn dirty_occupancy(&self, region: Region) -> u64 {
        let assoc = self.geometry.associativity as usize;
        self.slots
            .chunks_exact(assoc)
            .zip(&self.lens)
            .flat_map(|(ways, &len)| &ways[..len as usize])
            .filter(|e| e.region == region && e.dirty)
            .count() as u64
    }

    /// Whether a byte address is resident.
    pub fn contains(&self, addr: u64) -> bool {
        self.contains_line(self.line_of(addr))
    }

    fn contains_line(&self, line_addr: u64) -> bool {
        self.ways_of(line_addr)
            .iter()
            .any(|e| e.line_addr == line_addr)
    }

    /// Invalidate a line (back-invalidation from an inclusive outer
    /// level). Returns true if it was resident.
    pub fn invalidate_line(&mut self, line_addr: u64) -> bool {
        let set = self.set_of(line_addr);
        let base = self.base_of(set);
        let end = base + self.lens[set] as usize;
        let Some(pos) = self.slots[base..end]
            .iter()
            .position(|e| e.line_addr == line_addr)
        else {
            return false;
        };
        self.occupancy[self.slots[base + pos].region.index()] -= 1;
        self.slots.copy_within(base + pos + 1..end, base + pos);
        self.lens[set] -= 1;
        self.touch(set);
        true
    }

    /// Evict every resident line owned by `region`. Returns the number of
    /// lines removed. The scan starts at the region's lower-bound set and
    /// stops at the set where the count reaches the region's occupancy,
    /// so it costs what it removes and nothing for an absent region.
    pub fn purge_region(&mut self, region: Region) -> u64 {
        let resident = self.occupancy[region.index()];
        let mut removed = 0;
        let mut set = std::mem::replace(&mut self.low_set[region.index()], self.lens.len());
        while removed < resident {
            let base = self.base_of(set);
            let len = self.lens[set] as usize;
            let mut kept = 0;
            for i in 0..len {
                let e = self.slots[base + i];
                if e.region != region {
                    self.slots[base + kept] = e;
                    kept += 1;
                }
            }
            if kept < len {
                self.lens[set] = kept as u32;
                removed += (len - kept) as u64;
                self.touch(set);
            }
            set += 1;
        }
        self.occupancy[region.index()] -= removed;
        removed
    }

    /// Drop every resident line.
    pub fn flush_all(&mut self) {
        self.lens.fill(0);
        self.clock += 1;
        self.stamps.fill(self.clock);
        self.occupancy = [0; 6];
        self.low_set = [self.lens.len(); 6];
    }

    /// Resident line count for one region.
    pub fn occupancy(&self, region: Region) -> u64 {
        self.occupancy[region.index()]
    }

    /// Total resident lines.
    pub fn total_occupancy(&self) -> u64 {
        self.occupancy.iter().sum()
    }

    /// Fraction of `lines` (given as line addresses) still resident —
    /// the direct measurement of `1 − F(x)` for a preloaded footprint.
    pub fn resident_fraction(&self, lines: &[u64]) -> f64 {
        if lines.is_empty() {
            return 1.0;
        }
        let resident = lines.iter().filter(|&&l| self.contains_line(l)).count();
        resident as f64 / lines.len() as f64
    }

    /// Reset statistics (occupancy is preserved).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(assoc: u32) -> Cache {
        // 4 sets × assoc ways × 16-byte lines.
        let cap = 4 * assoc as u64 * 16;
        Cache::new(CacheGeometry::new(cap, 16, assoc))
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny(1);
        let r1 = c.access(0x100, Region::Stream);
        assert!(!r1.hit);
        let r2 = c.access(0x104, Region::Stream); // same 16B line
        assert!(r2.hit);
        assert_eq!(c.stats.accesses, 2);
        assert_eq!(c.stats.hits, 1);
    }

    #[test]
    fn direct_mapped_conflict_evicts() {
        let mut c = tiny(1);
        // Lines 0 and 4 map to set 0 (4 sets).
        c.access(0, Region::Stream);
        let r = c.access(4 * 16, Region::NonProtocol);
        assert!(!r.hit);
        assert_eq!(r.evicted, Some((0, Region::Stream)));
        assert!(!c.contains(0));
        assert!(c.contains(4 * 16));
        assert_eq!(c.occupancy(Region::Stream), 0);
        assert_eq!(c.occupancy(Region::NonProtocol), 1);
    }

    #[test]
    fn lru_keeps_recently_used() {
        let mut c = tiny(2);
        // Set 0 lines: 0, 4, 8 (2-way).
        c.access(0, Region::Code);
        c.access(4 * 16, Region::Global);
        c.access(0, Region::Code); // touch line 0 again → 4*16 is LRU
        let r = c.access(8 * 16, Region::Thread);
        assert_eq!(r.evicted, Some((4, Region::Global)));
        assert!(c.contains(0));
    }

    #[test]
    fn occupancy_tracks_region_change_on_retouch() {
        let mut c = tiny(1);
        c.access(0x20, Region::PacketData);
        assert_eq!(c.occupancy(Region::PacketData), 1);
        c.access(0x20, Region::Stream);
        assert_eq!(c.occupancy(Region::PacketData), 0);
        assert_eq!(c.occupancy(Region::Stream), 1);
    }

    #[test]
    fn invalidate_and_flush() {
        let mut c = tiny(1);
        c.access(0, Region::Stream);
        c.access(16, Region::Stream);
        assert!(c.invalidate_line(0));
        assert!(!c.invalidate_line(0));
        assert_eq!(c.total_occupancy(), 1);
        c.flush_all();
        assert_eq!(c.total_occupancy(), 0);
        assert!(!c.contains(16));
    }

    #[test]
    fn resident_fraction_measures_displacement() {
        let mut c = tiny(1);
        // Preload footprint lines 0..4 (one per set).
        let footprint: Vec<u64> = (0..4).collect();
        for &l in &footprint {
            c.access(l * 16, Region::Stream);
        }
        assert_eq!(c.resident_fraction(&footprint), 1.0);
        // Conflict-displace two of them.
        c.access(4 * 16, Region::NonProtocol); // displaces line 0
        c.access(5 * 16, Region::NonProtocol); // displaces line 1
        assert!((c.resident_fraction(&footprint) - 0.5).abs() < 1e-12);
        assert_eq!(c.resident_fraction(&[]), 1.0);
    }

    #[test]
    fn dirty_tracking_and_writebacks() {
        let mut c = tiny(1);
        // Clean fill, then dirty it, then conflict-evict.
        c.access(0, Region::Stream);
        assert_eq!(c.dirty_occupancy(Region::Stream), 0);
        c.access_rw(4, Region::Stream, true); // same line, write
        assert_eq!(c.dirty_occupancy(Region::Stream), 1);
        let r = c.access(4 * 16, Region::NonProtocol); // conflicts in set 0
        assert!(r.wrote_back, "dirty victim must write back");
        assert_eq!(c.stats.writebacks, 1);
        assert_eq!(c.dirty_occupancy(Region::Stream), 0);
        // Clean victim evicts silently.
        let r = c.access(8 * 16, Region::NonProtocol);
        assert!(!r.wrote_back);
        assert_eq!(c.stats.writebacks, 1);
    }

    #[test]
    fn write_miss_fills_dirty() {
        let mut c = tiny(1);
        c.access_rw(0x10, Region::Thread, true);
        assert_eq!(c.dirty_occupancy(Region::Thread), 1);
        // A read hit does not clean it.
        c.access(0x10, Region::Thread);
        assert_eq!(c.dirty_occupancy(Region::Thread), 1);
    }

    #[test]
    fn purge_region_removes_only_that_region() {
        let mut c = tiny(2);
        c.access(0, Region::Stream);
        c.access(16, Region::Stream);
        c.access(32, Region::Code);
        assert_eq!(c.purge_region(Region::Stream), 2);
        assert_eq!(c.occupancy(Region::Stream), 0);
        assert_eq!(c.occupancy(Region::Code), 1);
        assert!(!c.contains(0));
        assert!(c.contains(32));
        assert_eq!(c.purge_region(Region::Stream), 0);
    }

    const SETS: u64 = 64;
    /// First line and length of the run the stamp tests memoise: block 1
    /// of a 64-set cache (sets 16..32), exactly.
    const RUN: (u64, u64) = (16, 16);
    /// A line of the run, and one two blocks away from it.
    const INSIDE: u64 = 20;
    const OUTSIDE: u64 = 40;

    /// 64 sets (four stamp blocks) × `assoc` ways, lines 0..64 resident
    /// as clean `Stream` lines, one per set.
    fn full_of_stream(assoc: u32) -> Cache {
        let mut c = Cache::new(CacheGeometry::new(SETS * assoc as u64 * 16, 16, assoc));
        for l in 0..SETS {
            c.access(l * 16, Region::Stream);
        }
        c
    }

    /// Ask for `n` lines from `line` as `Stream` loads: the answer, which
    /// is checked against the walk, and whether answering it walked.
    fn ask(c: &mut Cache, line: u64, n: u64) -> (u64, bool) {
        let before = c.walked;
        let got = c.stateless_run(line, n, Region::Stream, false);
        let set = c.set_of(line);
        assert!(got <= c.walk_run(set, line, n, Region::Stream, false));
        assert_eq!(got, c.walk_run(set, line, got, Region::Stream, false));
        (got, c.walked > before)
    }

    /// Which block a mutator must stamp.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Stamps {
        /// The block of the set it is aimed at.
        ItsBlock,
        /// None: it changes no slot and no length.
        Nothing,
        /// All of them.
        EveryBlock,
    }

    #[test]
    fn every_mutator_stamps_its_block() {
        // `(cache, line)`: act on the set `line` maps to; `line + SETS` is
        // the other tag of that set.
        type Op = fn(&mut Cache, u64);
        let nop: Op = |_, _| {};
        let second_way: Op = |c, l| {
            c.access((l + SETS) * 16, Region::PacketData);
            c.access(l * 16, Region::Stream);
        };
        let conflicting_fill: Op = |c, l| {
            assert!(!c.access((l + SETS) * 16, Region::Global).hit);
        };
        let cases: [(&str, u32, Op, Op, Stamps); 13] = [
            ("miss fill", 2, nop, conflicting_fill, Stamps::ItsBlock),
            ("evicting fill", 1, nop, conflicting_fill, Stamps::ItsBlock),
            (
                "re-tag hit",
                1,
                nop,
                |c, l| assert!(c.access(l * 16, Region::Global).hit),
                Stamps::ItsBlock,
            ),
            (
                "first store to a clean line",
                1,
                nop,
                |c, l| assert!(c.access_rw(l * 16, Region::Stream, true).hit),
                Stamps::ItsBlock,
            ),
            (
                "way reorder",
                2,
                second_way,
                |c, l| assert!(c.access((l + SETS) * 16, Region::PacketData).hit),
                Stamps::ItsBlock,
            ),
            (
                "invalidate_line hit",
                1,
                nop,
                |c, l| assert!(c.invalidate_line(l)),
                Stamps::ItsBlock,
            ),
            (
                "invalidate_line of the second way",
                2,
                second_way,
                |c, l| assert!(c.invalidate_line(l + SETS)),
                Stamps::ItsBlock,
            ),
            (
                "invalidate_line miss",
                1,
                nop,
                |c, l| assert!(!c.invalidate_line(l + SETS)),
                Stamps::Nothing,
            ),
            (
                "purge_region",
                2,
                second_way,
                |c, _| assert_eq!(c.purge_region(Region::PacketData), 1),
                Stamps::ItsBlock,
            ),
            (
                "purge_region of an absent region",
                1,
                nop,
                |c, _| assert_eq!(c.purge_region(Region::PacketData), 0),
                Stamps::Nothing,
            ),
            (
                "stateless hit",
                1,
                nop,
                |c, l| assert!(c.access(l * 16, Region::Stream).hit),
                Stamps::Nothing,
            ),
            (
                "charge_hits",
                1,
                nop,
                |c, _| c.charge_hits(Region::Stream, 7),
                Stamps::Nothing,
            ),
            (
                "flush_all",
                1,
                nop,
                |c, _| c.flush_all(),
                Stamps::EveryBlock,
            ),
        ];
        for (name, assoc, before, mutate, stamps) in cases {
            for target in [INSIDE, OUTSIDE] {
                let mut c = full_of_stream(assoc);
                before(&mut c, target);
                assert_eq!(
                    ask(&mut c, RUN.0, RUN.1),
                    (RUN.1, true),
                    "{name}: first ask"
                );
                assert_eq!(
                    ask(&mut c, RUN.0, RUN.1),
                    (RUN.1, false),
                    "{name}: memoised"
                );
                let before_it = c.stamps.clone();
                mutate(&mut c, target);
                // The invariant itself, block by block...
                let its_block = target as usize >> BLOCK_SHIFT;
                for (block, (was, is)) in before_it.iter().zip(&c.stamps).enumerate() {
                    let advanced = match stamps {
                        Stamps::ItsBlock => block == its_block,
                        Stamps::Nothing => false,
                        Stamps::EveryBlock => true,
                    };
                    assert_eq!(is > was, advanced, "{name} at line {target}: block {block}");
                    assert!(is <= &c.clock);
                }
                // ...and what the probe makes of it.
                let declines = match stamps {
                    Stamps::ItsBlock => target == INSIDE,
                    Stamps::Nothing => false,
                    Stamps::EveryBlock => true,
                };
                let (run, walked) = ask(&mut c, RUN.0, RUN.1);
                assert_eq!(walked, declines, "{name} at line {target}");
                // The walk refreshed the entry: what is left of the run is
                // answered from it again, if it is long enough to keep.
                let again = ask(&mut c, RUN.0, RUN.1);
                assert_eq!(again, (run, run < MEMO_MIN_RUN), "{name} at line {target}");
            }
        }
    }

    #[test]
    fn a_memoised_run_answers_shorter_and_longer_queries() {
        let mut c = full_of_stream(1);
        assert_eq!(ask(&mut c, 16, 32), (32, true));
        // A prefix, from the entry; a longer query gets the stored length
        // (short of the 48 a walk would find), also without a walk.
        assert_eq!(ask(&mut c, 16, 8), (8, false));
        assert_eq!(ask(&mut c, 16, 48), (32, false));
        // A change in the stored run's second block (sets 32..48) leaves
        // a prefix inside its first one answerable.
        c.access(OUTSIDE * 16, Region::Global);
        assert_eq!(ask(&mut c, 16, 16), (16, false));
        assert_eq!(ask(&mut c, 16, 32), (24, true));
        assert_eq!(ask(&mut c, 16, 32), (24, false));
        // Another owner or a store is another run, walked on its own.
        assert_eq!(c.stateless_run(16, 32, Region::Global, false), 0);
        assert_eq!(c.stateless_run(16, 32, Region::Stream, true), 0);
        assert_eq!(ask(&mut c, 16, 32), (24, false));
        // Runs shorter than the minimum are walked every time.
        assert_eq!(ask(&mut c, 38, 9), (2, true));
        assert_eq!(ask(&mut c, 38, 9), (2, true));
        assert_eq!(ask(&mut c, 16, 0), (0, false));
    }

    #[test]
    fn a_run_that_wraps_past_the_last_set_is_walked_every_time() {
        let mut c = full_of_stream(1);
        for l in SETS..SETS + 8 {
            c.access(l * 16, Region::Stream);
        }
        // Lines 56..72 sit in sets 56..64 and 0..8; line 72 is not
        // resident. `n` far past the set count changes nothing.
        for n in [16, 1000] {
            assert_eq!(ask(&mut c, 56, n), (16, true));
            assert_eq!(ask(&mut c, 56, n), (16, true));
        }
        // Every set holds the line the run wants: a run stops at `sets`.
        let mut c = full_of_stream(1);
        assert_eq!(ask(&mut c, 0, 1000), (SETS, true));
        assert_eq!(ask(&mut c, 0, 1000), (SETS, false));
        assert_eq!(ask(&mut c, 1, 1000), (SETS - 1, true));
        // Ending in the last set is not wrapping.
        assert_eq!(ask(&mut c, 56, 8), (8, true));
        assert_eq!(ask(&mut c, 56, 8), (8, false));
    }

    #[test]
    fn stamps_cover_a_set_count_that_is_not_a_power_of_two() {
        // 40 sets: two whole blocks and one of eight sets, indexed by `%`.
        let mut c = Cache::new(CacheGeometry::new(40 * 16, 16, 1));
        for l in 40..80 {
            c.access(l * 16, Region::Stream);
        }
        assert_eq!(c.stamps.len(), 3);
        assert_eq!(ask(&mut c, 70, 10), (10, true));
        assert_eq!(ask(&mut c, 70, 10), (10, false));
        assert_eq!(ask(&mut c, 44, 20), (20, true));
        // Set 39, the last of the short block; then set 20.
        c.access(39 * 16, Region::Global);
        assert_eq!(ask(&mut c, 44, 20), (20, false));
        assert_eq!(ask(&mut c, 70, 10), (9, true));
        c.invalidate_line(60);
        assert_eq!(ask(&mut c, 44, 20), (16, true));
        // Wrapping from set 39 to set 0 (line 80).
        c.access(79 * 16, Region::Stream);
        c.access(80 * 16, Region::Stream);
        assert_eq!(ask(&mut c, 75, 10), (6, true));
        assert_eq!(ask(&mut c, 75, 10), (6, true));
    }

    #[test]
    fn stats_reset_preserves_contents() {
        let mut c = tiny(1);
        c.access(0, Region::Stream);
        c.reset_stats();
        assert_eq!(c.stats.accesses, 0);
        assert!(c.contains(0));
        assert!(c.access(0, Region::Stream).hit);
    }
}
