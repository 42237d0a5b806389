//! A direct-mapped cache with per-region occupancy tracking.
//!
//! Used trace-driven: the calibration harness replays instrumented
//! protocol executions and controlled flush workloads through it, standing
//! in for the paper's hardware measurements. The R4400 primaries and the
//! Challenge secondary are direct-mapped with 2^k sets, and so is this
//! cache: set-associative geometries are priced by the analytic
//! `FlushModel` (`model::hierarchy`), never simulated.

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

/// The content of a set no line occupies. Its tag is one no line
/// reaches (a line address is a byte address shifted right by at least
/// one bit), so no lookup matches it; it is clean, so no write-back and
/// no dirty count sees it.
const EMPTY: LineEntry = LineEntry {
    line_addr: u64::MAX,
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

/// A direct-mapped cache: set `s` is `slots[s]`, `EMPTY` when no line
/// occupies it.
#[derive(Debug, Clone)]
pub struct Cache {
    /// `log2(line_bytes)`.
    line_shift: u32,
    /// `sets − 1`: a line's set is its address under this mask.
    set_mask: usize,
    slots: Vec<LineEntry>,
    /// Per-region resident line counts, dense-indexed by `Region::index`.
    occupancy: [u64; 6],
    /// Per region, a set no resident line of it lies below (`sets` when
    /// none can be resident): lowered wherever a line takes the region's
    /// tag, reset only by the region's purge and by `flush_all`. Losing
    /// lines leaves it a valid bound.
    low_set: [usize; 6],
    /// Mutation clock: advanced by every call that changes `slots`, once
    /// for all the sets it changes.
    clock: u64,
    /// Per block of `1 << BLOCK_SHIFT` sets, the clock of its last
    /// mutation. No slot changes without its block's stamp advancing past
    /// every clock a memo entry can hold, so a block whose stamp is no
    /// later than an entry's clock is as the entry's walk saw it.
    stamps: Vec<u64>,
    /// Runs `stateless_run` has walked, indexed by a hash of their first
    /// line. Never invalidated: a stale entry fails the stamp comparison.
    memo: [Option<RunMemo>; MEMO_ENTRIES],
    /// Lines `stateless_run` has walked rather than answered from `memo`.
    #[cfg(test)]
    pub(crate) walked: u64,
    /// Runs `fill_run` has filled.
    #[cfg(test)]
    pub(crate) runs: u64,
    /// Lookups `access_rw` has made.
    #[cfg(test)]
    pub(crate) lookups: u64,
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
    /// Create an empty cache. The geometry must be direct-mapped with
    /// 2^k sets of lines of at least two bytes.
    pub fn new(geometry: CacheGeometry) -> Self {
        assert!(
            geometry.line_bytes.is_power_of_two() && geometry.line_bytes > 1,
            "line size must be 2^k, k ≥ 1"
        );
        assert!(
            geometry.associativity == 1,
            "the trace-driven cache is direct-mapped; {}-way geometries are priced by the analytic model (FlushModel)",
            geometry.associativity
        );
        let sets = geometry.sets() as usize;
        assert!(
            sets.is_power_of_two(),
            "the trace-driven cache has 2^k sets; {sets} sets are priced by the analytic model (FlushModel)"
        );
        Cache {
            line_shift: geometry.line_bytes.trailing_zeros(),
            set_mask: sets - 1,
            slots: vec![EMPTY; sets],
            occupancy: [0; 6],
            low_set: [sets; 6],
            clock: 0,
            stamps: vec![0; sets.div_ceil(1 << BLOCK_SHIFT)],
            memo: [None; MEMO_ENTRIES],
            #[cfg(test)]
            walked: 0,
            #[cfg(test)]
            runs: 0,
            #[cfg(test)]
            lookups: 0,
            stats: CacheStats::default(),
        }
    }

    /// Line address for a byte address.
    #[inline]
    pub fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    #[inline]
    fn set_of(&self, line_addr: u64) -> usize {
        line_addr as usize & self.set_mask
    }

    /// Record a change to the slots of the `n` sets from `set` on,
    /// wrapping past the last: one clock tick, stamped on every block
    /// they span.
    #[inline]
    fn touch(&mut self, set: usize, n: u64) {
        self.clock += 1;
        let sets = self.slots.len();
        let end = set + n.min(sets as u64) as usize;
        if end <= sets {
            self.stamps[set >> BLOCK_SHIFT..=(end - 1) >> BLOCK_SHIFT].fill(self.clock);
        } else {
            self.stamps[set >> BLOCK_SHIFT..].fill(self.clock);
            self.stamps[..=(end - sets - 1) >> BLOCK_SHIFT].fill(self.clock);
        }
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
        #[cfg(test)]
        {
            self.lookups += 1;
        }

        self.stats.accesses += 1;
        self.stats.region_accesses[region.index()] += 1;

        let e = &mut self.slots[set];
        if e.line_addr == line {
            self.stats.hits += 1;
            self.stats.region_hits[region.index()] += 1;
            // Anything but the stateless hit changes the set.
            let mutates = e.region != region || (is_write && !e.dirty);
            // Occupancy region may change owner on re-touch (e.g. a
            // packet buffer recycled as stream state).
            if e.region != region {
                self.occupancy[e.region.index()] -= 1;
                self.occupancy[region.index()] += 1;
                e.region = region;
                self.low_set[region.index()] = self.low_set[region.index()].min(set);
            }
            e.dirty |= is_write;
            if mutates {
                self.touch(set, 1);
            }
            return AccessResult {
                hit: true,
                evicted: None,
                wrote_back: false,
            };
        }

        self.fill(line, set, region, is_write)
    }

    /// The miss branch of [`Cache::access_rw`], less its access counters:
    /// fill `line`, which `set` does not hold.
    fn fill(&mut self, line: u64, set: usize, region: Region, is_write: bool) -> AccessResult {
        debug_assert!(!self.contains_line(line), "line {line} is resident");
        let victim = self.place(line, set, region, is_write);
        let mut lost = [0; 6];
        if let Some(v) = victim {
            lost[v.region.index()] = 1;
        }
        self.book_fills(set, 1, region, lost);
        AccessResult {
            hit: false,
            evicted: victim.map(|v| (v.line_addr, v.region)),
            wrote_back: victim.is_some_and(|v| v.dirty),
        }
    }

    /// A miss's one step: put `line`, which `set` does not hold, in the
    /// set, evicting the line there if any. Counts the victim's
    /// write-back and returns it; the caller books the rest with
    /// [`Cache::book_fills`].
    #[inline(always)]
    fn place(
        &mut self,
        line: u64,
        set: usize,
        region: Region,
        is_write: bool,
    ) -> Option<LineEntry> {
        let filled = LineEntry {
            line_addr: line,
            region,
            dirty: is_write,
        };
        let victim = std::mem::replace(&mut self.slots[set], filled);
        self.stats.writebacks += u64::from(victim.dirty);
        (victim.line_addr != EMPTY.line_addr).then_some(victim)
    }

    /// Book `filled` lines of `region` placed into the sets from `set` on,
    /// whose victims' owners lost `lost` lines between them: occupancy, the
    /// region's lower bound and the stamps, once for the run.
    fn book_fills(&mut self, set: usize, filled: u64, region: Region, lost: [u64; 6]) {
        let r = region.index();
        self.occupancy[r] += filled;
        for (resident, lost) in self.occupancy.iter_mut().zip(lost) {
            *resident -= lost;
        }
        // A run that wrapped past the last set filled set 0.
        let low = if set as u64 + filled > self.slots.len() as u64 {
            0
        } else {
            set
        };
        self.low_set[r] = self.low_set[r].min(low);
        self.touch(set, filled);
    }

    /// Fill the lines from `line` on as misses of [`Cache::access_rw`]
    /// would, each when its turn comes, up to `n` of them and stopping at
    /// the first that its set holds; count no access (the caller books
    /// the misses with [`Cache::charge`]). Returns how many it filled.
    /// The run is booked once, not once per line.
    pub(crate) fn fill_run(&mut self, line: u64, n: u64, region: Region, is_write: bool) -> u64 {
        let first = self.set_of(line);
        let (mut set, mut lost, mut filled) = (first, [0; 6], 0);
        while filled < n && self.slots[set].line_addr != line + filled {
            if let Some(v) = self.place(line + filled, set, region, is_write) {
                lost[v.region.index()] += 1;
            }
            filled += 1;
            set = (set + 1) & self.set_mask;
        }
        if filled > 0 {
            self.book_fills(first, filled, region, lost);
            #[cfg(test)]
            {
                self.runs += 1;
            }
        }
        filled
    }

    /// Count `misses` accesses that [`Cache::fill_run`] filled and
    /// `hits` further hits on lines the caller knows are resident and
    /// tagged `region`: exactly the counters those calls of
    /// [`Cache::access_rw`] would advance, and nothing else.
    pub(crate) fn charge(&mut self, region: Region, misses: u64, hits: u64) {
        let r = region.index();
        self.stats.accesses += misses + hits;
        self.stats.hits += hits;
        self.stats.region_accesses[r] += misses + hits;
        self.stats.region_hits[r] += hits;
    }

    /// How many of the `n` consecutive lines from `line` are each
    /// resident, owned by `region` (and dirty if `is_write`) — the state
    /// in which another access to the line changes only counters. Stops
    /// at the first line that is not.
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
        if run >= MEMO_MIN_RUN && set + run as usize <= self.slots.len() {
            let clock = self.clock;
            self.memo[slot] = Some(RunMemo { key, n: run, clock });
        }
        run
    }

    /// [`Cache::stateless_run`] by its definition: one slot read per line.
    fn walk_run(&self, mut set: usize, line: u64, n: u64, region: Region, is_write: bool) -> u64 {
        let mut run = 0;
        while run < n {
            let e = &self.slots[set];
            if e.line_addr != line + run || e.region != region || (is_write && !e.dirty) {
                break;
            }
            run += 1;
            set = (set + 1) & self.set_mask;
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
        self.line_of(last) - self.line_of(first) < self.slots.len() as u64
    }

    /// Resident dirty-line count for one region — the lines a migration
    /// must transfer cache-to-cache rather than refetch from memory.
    pub fn dirty_occupancy(&self, region: Region) -> u64 {
        // An empty set is clean.
        self.slots
            .iter()
            .filter(|e| e.region == region && e.dirty)
            .count() as u64
    }

    /// Whether a byte address is resident.
    pub fn contains(&self, addr: u64) -> bool {
        self.contains_line(self.line_of(addr))
    }

    fn contains_line(&self, line_addr: u64) -> bool {
        self.slots[self.set_of(line_addr)].line_addr == line_addr
    }

    /// Invalidate the `n` lines from `line_addr` on (back-invalidation
    /// from an inclusive outer level, or a purge of an address range),
    /// visiting their sets in order and emptying each set that holds its
    /// line; occupancy and the clock are booked once for the run. Returns
    /// how many were resident.
    pub fn invalidate_run(&mut self, line_addr: u64, n: u64) -> u64 {
        let clock = self.clock + 1;
        let (mut set, mut removed) = (self.set_of(line_addr), [0; 6]);
        for line in line_addr..line_addr + n {
            let e = &mut self.slots[set];
            if e.line_addr == line {
                removed[e.region.index()] += 1;
                *e = EMPTY;
                self.stamps[set >> BLOCK_SHIFT] = clock;
            }
            set = (set + 1) & self.set_mask;
        }
        let total = removed.iter().sum();
        if total > 0 {
            self.clock = clock;
            for (resident, removed) in self.occupancy.iter_mut().zip(removed) {
                *resident -= removed;
            }
        }
        total
    }

    /// Evict every resident line owned by `region`. Returns the number of
    /// lines removed. The scan starts at the region's lower-bound set and
    /// stops at the set where the count reaches the region's occupancy,
    /// so it costs what it removes and nothing for an absent region; the
    /// clock ticks once for the purge.
    pub fn purge_region(&mut self, region: Region) -> u64 {
        let r = region.index();
        let (resident, clock) = (self.occupancy[r], self.clock + 1);
        let mut removed = 0;
        let mut set = std::mem::replace(&mut self.low_set[r], self.slots.len());
        while removed < resident {
            let e = &mut self.slots[set];
            if e.region == region && e.line_addr != EMPTY.line_addr {
                *e = EMPTY;
                removed += 1;
                self.stamps[set >> BLOCK_SHIFT] = clock;
            }
            set += 1;
        }
        if removed > 0 {
            self.clock = clock;
        }
        self.occupancy[r] -= removed;
        removed
    }

    /// Drop every resident line.
    pub fn flush_all(&mut self) {
        self.slots.fill(EMPTY);
        self.clock += 1;
        self.stamps.fill(self.clock);
        self.occupancy = [0; 6];
        self.low_set = [self.slots.len(); 6];
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets × 16-byte lines.
        Cache::new(CacheGeometry::new(4 * 16, 16, 1))
    }

    #[test]
    #[should_panic(expected = "2-way geometries are priced by the analytic model")]
    fn a_set_associative_geometry_is_refused() {
        Cache::new(CacheGeometry::new(4 * 2 * 16, 16, 2));
    }

    #[test]
    #[should_panic(expected = "40 sets are priced by the analytic model")]
    fn a_set_count_that_is_not_a_power_of_two_is_refused() {
        Cache::new(CacheGeometry::new(40 * 16, 16, 1));
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        let r1 = c.access(0x100, Region::Stream);
        assert!(!r1.hit);
        let r2 = c.access(0x104, Region::Stream); // same 16B line
        assert!(r2.hit);
        assert_eq!(c.stats.accesses, 2);
        assert_eq!(c.stats.hits, 1);
    }

    #[test]
    fn direct_mapped_conflict_evicts() {
        let mut c = tiny();
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
    fn occupancy_tracks_region_change_on_retouch() {
        let mut c = tiny();
        c.access(0x20, Region::PacketData);
        assert_eq!(c.occupancy(Region::PacketData), 1);
        c.access(0x20, Region::Stream);
        assert_eq!(c.occupancy(Region::PacketData), 0);
        assert_eq!(c.occupancy(Region::Stream), 1);
    }

    #[test]
    fn invalidate_and_flush() {
        let mut c = tiny();
        c.access(0, Region::Stream);
        c.access(16, Region::Stream);
        assert_eq!(c.invalidate_run(0, 1), 1);
        assert_eq!(c.invalidate_run(0, 1), 0);
        assert_eq!(c.total_occupancy(), 1);
        c.flush_all();
        assert_eq!(c.total_occupancy(), 0);
        assert!(!c.contains(16));
    }

    #[test]
    fn an_invalidated_run_wraps_and_takes_only_its_own_lines() {
        // Sets 0..4 hold lines 4, 5, 2, 3: even lines stream state, odd
        // ones a thread's.
        let mut c = tiny();
        let owner = |l: u64| [Region::Stream, Region::Thread][l as usize % 2];
        for l in [4, 5, 2, 3] {
            c.access(l * 16, owner(l));
        }
        // Lines 3..7 sit in sets 3, 0, 1, 2: past the last set and on.
        // Set 2 holds line 2, not line 6, and keeps it.
        assert_eq!(c.invalidate_run(3, 4), 3);
        assert_eq!(c.occupancy(Region::Stream), 1);
        assert_eq!(c.occupancy(Region::Thread), 0);
        for l in 0..8 {
            assert_eq!(c.contains(l * 16), l == 2, "line {l}");
        }
        // An emptied set is empty: a fill that evicts nothing.
        assert!(c.access(2 * 16, Region::Stream).hit);
        assert_eq!(c.access(4 * 16, Region::Stream).evicted, None);
        // A run longer than the cache visits each set more than once.
        assert_eq!(c.invalidate_run(0, 9), 2);
        assert_eq!(c.total_occupancy(), 0);
        assert_eq!(c.invalidate_run(0, 9), 0);
    }

    #[test]
    fn resident_fraction_measures_displacement() {
        let mut c = tiny();
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
        let mut c = tiny();
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
        let mut c = tiny();
        c.access_rw(0x10, Region::Thread, true);
        assert_eq!(c.dirty_occupancy(Region::Thread), 1);
        // A read hit does not clean it.
        c.access(0x10, Region::Thread);
        assert_eq!(c.dirty_occupancy(Region::Thread), 1);
    }

    #[test]
    fn purge_region_removes_only_that_region() {
        let mut c = tiny();
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
    /// First line and length of the run the stamp tests memoise: the
    /// first twelve sets of block 1 of a 64-set cache (sets 16..28).
    const RUN: (u64, u64) = (16, 12);
    /// A line of the run, and one two blocks away from it.
    const INSIDE: u64 = 20;
    const OUTSIDE: u64 = 40;

    /// The last set of `line`'s block, which no memoised run covers: where
    /// a row prepares a line of its own without breaking the run.
    fn spare(line: u64) -> u64 {
        line | ((1 << BLOCK_SHIFT) - 1)
    }

    /// 64 sets (four stamp blocks), lines 0..64 resident as clean
    /// `Stream` lines, one per set.
    fn full_of_stream() -> Cache {
        let mut c = Cache::new(CacheGeometry::new(SETS * 16, 16, 1));
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

    /// Which blocks a mutator must stamp.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Stamps {
        /// Those of the `n` sets from the one it is aimed at, wrapping
        /// past the last.
        Sets(u64),
        /// None: it changes no slot.
        Nothing,
        /// All of them.
        EveryBlock,
    }

    impl Stamps {
        /// Whether a mutation aimed at `target`'s set stamps `block`.
        fn covers(self, target: u64, block: usize) -> bool {
            match self {
                Stamps::Sets(n) => {
                    (0..n).any(|k| ((target + k) % SETS) as usize >> BLOCK_SHIFT == block)
                }
                Stamps::Nothing => false,
                Stamps::EveryBlock => true,
            }
        }
    }

    #[test]
    fn every_mutator_stamps_its_block() {
        // `(cache, line)`: act on the set `line` maps to; `line + SETS` is
        // the other tag of that set.
        type Op = fn(&mut Cache, u64);
        let nop: Op = |_, _| {};
        let its_block = Stamps::Sets(1);
        let cases: [(&str, Op, Op, Stamps); 18] = [
            (
                "fill of an empty set",
                |c, l| assert_eq!(c.invalidate_run(spare(l), 1), 1),
                |c, l| assert_eq!(c.access(spare(l) * 16, Region::Global).evicted, None),
                its_block,
            ),
            (
                "evicting fill",
                nop,
                |c, l| assert!(!c.access((l + SETS) * 16, Region::Global).hit),
                its_block,
            ),
            (
                "re-tag hit",
                nop,
                |c, l| assert!(c.access(l * 16, Region::Global).hit),
                its_block,
            ),
            (
                "first store to a clean line",
                nop,
                |c, l| assert!(c.access_rw(l * 16, Region::Stream, true).hit),
                its_block,
            ),
            (
                "invalidate_run of one resident line",
                nop,
                |c, l| assert_eq!(c.invalidate_run(l, 1), 1),
                its_block,
            ),
            (
                "invalidate_run over two blocks",
                nop,
                |c, l| assert_eq!(c.invalidate_run(l, 16), 16),
                Stamps::Sets(16),
            ),
            (
                "invalidate_run past the last set",
                // Lines 64..80 resident in block 0, after the last set.
                |c, _| (SETS..SETS + 16).for_each(|l| assert!(!c.access(l * 16, Region::Code).hit)),
                |c, l| assert_eq!(c.invalidate_run(l, 40), 40),
                Stamps::Sets(40),
            ),
            (
                "invalidate_run of absent lines",
                nop,
                |c, l| assert_eq!(c.invalidate_run(l + SETS, 16), 0),
                Stamps::Nothing,
            ),
            (
                "purge_region",
                |c, l| assert!(!c.access((spare(l) + SETS) * 16, Region::PacketData).hit),
                |c, _| assert_eq!(c.purge_region(Region::PacketData), 1),
                its_block,
            ),
            (
                "purge_region of an absent region",
                nop,
                |c, _| assert_eq!(c.purge_region(Region::PacketData), 0),
                Stamps::Nothing,
            ),
            (
                "stateless hit",
                nop,
                |c, l| assert!(c.access(l * 16, Region::Stream).hit),
                Stamps::Nothing,
            ),
            (
                "charge",
                nop,
                |c, _| c.charge(Region::Stream, 3, 7),
                Stamps::Nothing,
            ),
            (
                "fill_run of a resident line",
                nop,
                |c, l| assert_eq!(c.fill_run(l, 1, Region::Global, true), 0),
                Stamps::Nothing,
            ),
            (
                "fill_run of one line",
                nop,
                |c, l| assert_eq!(c.fill_run(l + SETS, 1, Region::Global, false), 1),
                its_block,
            ),
            (
                "fill_run over two blocks",
                nop,
                |c, l| assert_eq!(c.fill_run(l + SETS, 16, Region::Global, false), 16),
                Stamps::Sets(16),
            ),
            (
                "fill_run up to a resident line",
                // Past the memoised run, which ends at set 28.
                |c, l| assert!(!c.access((l + 12 + SETS) * 16, Region::Thread).hit),
                |c, l| assert_eq!(c.fill_run(l + SETS, 16, Region::Global, true), 12),
                Stamps::Sets(12),
            ),
            (
                "fill_run past the last set",
                nop,
                |c, l| assert_eq!(c.fill_run(l + SETS, 40, Region::Global, false), 40),
                Stamps::Sets(40),
            ),
            ("flush_all", nop, |c, _| c.flush_all(), Stamps::EveryBlock),
        ];
        for (name, before, mutate, stamps) in cases {
            for target in [INSIDE, OUTSIDE] {
                let mut c = full_of_stream();
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
                for (block, (was, is)) in before_it.iter().zip(&c.stamps).enumerate() {
                    let advanced = stamps.covers(target, block);
                    assert_eq!(is > was, advanced, "{name} at line {target}: block {block}");
                    assert!(is <= &c.clock);
                }
                // ...and what the probe makes of it.
                let declines = stamps.covers(target, RUN.0 as usize >> BLOCK_SHIFT);
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
        let mut c = full_of_stream();
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
        let mut c = full_of_stream();
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
        let mut c = full_of_stream();
        assert_eq!(ask(&mut c, 0, 1000), (SETS, true));
        assert_eq!(ask(&mut c, 0, 1000), (SETS, false));
        assert_eq!(ask(&mut c, 1, 1000), (SETS - 1, true));
        // Ending in the last set is not wrapping.
        assert_eq!(ask(&mut c, 56, 8), (8, true));
        assert_eq!(ask(&mut c, 56, 8), (8, false));
    }
}
