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
    pub(crate) fn stateless_run(&self, line: u64, n: u64, region: Region, is_write: bool) -> u64 {
        let assoc = self.geometry.associativity as usize;
        let mut set = self.set_of(line);
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
    /// counters: a [`Cache::stateless_run`] of one.
    pub(crate) fn hit_is_stateless(&self, addr: u64, region: Region, is_write: bool) -> bool {
        self.stateless_run(self.line_of(addr), 1, region, is_write) == 1
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
            self.lens[set] = kept as u32;
            removed += (len - kept) as u64;
            set += 1;
        }
        self.occupancy[region.index()] -= removed;
        removed
    }

    /// Drop every resident line.
    pub fn flush_all(&mut self) {
        self.lens.fill(0);
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
