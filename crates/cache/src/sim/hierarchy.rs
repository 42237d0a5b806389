//! A simulated two-level memory hierarchy: split L1 (I + D) over a
//! unified, inclusive L2, with cycle-cost accounting.
//!
//! Models the SGI Challenge / R4400 arrangement the paper measures:
//! direct-mapped split primaries backed by a large direct-mapped unified
//! secondary. Inclusion is enforced: when L2 evicts a line, any covered
//! L1 lines are back-invalidated (an L2 line spans several L1 lines when
//! the line sizes differ).

use crate::model::platform::Platform;
use crate::sim::cache::Cache;
use crate::sim::trace::{MemRef, Region, TraceSink};

/// Where an access was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedBy {
    /// Hit in the relevant L1.
    L1,
    /// Missed L1, hit L2.
    L2,
    /// Missed both; served from memory.
    Memory,
}

/// Cycle counters per service level.
#[derive(Debug, Clone, Copy, Default)]
pub struct HierarchyStats {
    /// Total references.
    pub accesses: u64,
    /// L1 hits.
    pub l1_hits: u64,
    /// L2 hits (L1 misses that hit L2).
    pub l2_hits: u64,
    /// Memory fills.
    pub mem_fills: u64,
    /// Total cycles charged.
    pub cycles: f64,
}

/// The simulated hierarchy.
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    /// Instruction-side L1 (present when the platform's L1 is split).
    pub l1i: Option<Cache>,
    /// Data-side L1.
    pub l1d: Cache,
    /// Unified second level.
    pub l2: Cache,
    platform: Platform,
    /// Counters.
    pub stats: HierarchyStats,
}

impl MemoryHierarchy {
    /// Build from a platform description (direct-mapped → LRU degenerate).
    pub fn new(platform: Platform) -> Self {
        let l1i = if platform.l1_split {
            Some(Cache::new(platform.l1))
        } else {
            None
        };
        MemoryHierarchy {
            l1i,
            l1d: Cache::new(platform.l1),
            l2: Cache::new(platform.l2),
            platform,
            stats: HierarchyStats::default(),
        }
    }

    /// The platform this hierarchy models.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Perform one reference; returns where it was served and charges
    /// cycles to `stats`.
    pub fn access(&mut self, mref: MemRef) -> ServedBy {
        self.stats.accesses += 1;
        let mut cycles = self.platform.l1_hit_cycles;

        let l1_result = self
            .l1_mut(mref.is_instr)
            .access_rw(mref.addr, mref.region, mref.is_write);
        if l1_result.hit {
            self.stats.l1_hits += 1;
            self.stats.cycles += cycles;
            return ServedBy::L1;
        }

        cycles += self.platform.l2_hit_penalty_cycles;
        let l2_result = self.l2.access_rw(mref.addr, mref.region, mref.is_write);
        let served = if l2_result.hit {
            self.stats.l2_hits += 1;
            ServedBy::L2
        } else {
            self.stats.mem_fills += 1;
            cycles += self.platform.mem_penalty_cycles;
            ServedBy::Memory
        };

        // Enforce inclusion: an L2 eviction back-invalidates the covered
        // L1 lines in both halves.
        if let Some((l2_line, _)) = l2_result.evicted {
            self.back_invalidate(l2_line);
        }

        self.stats.cycles += cycles;
        served
    }

    /// The L1 a reference goes to.
    fn l1_mut(&mut self, is_instr: bool) -> &mut Cache {
        match self.l1i.as_mut() {
            Some(l1i) if is_instr => l1i,
            _ => &mut self.l1d,
        }
    }

    /// Charge `k` L1 hits like `mref` without looking anything up: the
    /// counters and cycles `k` calls of [`MemoryHierarchy::access`] would
    /// add when each finds its line first in its L1 set, already tagged
    /// and (for a store) dirty — a hit that changes no cache state and
    /// never reaches L2. Cycles are added one hit at a time, so the sum
    /// rounds exactly as the calls would; every `CostModel` platform has
    /// `l1_hit_cycles == 0`, which adds nothing.
    fn charge_l1_hits(&mut self, mref: MemRef, k: u64) {
        self.stats.accesses += k;
        self.stats.l1_hits += k;
        if self.platform.l1_hit_cycles != 0.0 {
            for _ in 0..k {
                self.stats.cycles += self.platform.l1_hit_cycles;
            }
        }
        self.l1_mut(mref.is_instr).charge_hits(mref.region, k);
    }

    /// Whether `mref` would be an L1 hit that changes no cache state.
    fn is_stateless_l1_hit(&mut self, mref: MemRef) -> bool {
        self.l1_mut(mref.is_instr)
            .hit_is_stateless(mref.addr, mref.region, mref.is_write)
    }

    /// Invalidate every L1 line covered by an evicted L2 line.
    fn back_invalidate(&mut self, l2_line: u64) {
        let l2_bytes = self.platform.l2.line_bytes as u64;
        let l1_bytes = self.platform.l1.line_bytes as u64;
        debug_assert!(l2_bytes >= l1_bytes);
        let first_l1_line = l2_line * (l2_bytes / l1_bytes);
        let count = l2_bytes / l1_bytes;
        for i in 0..count {
            let line = first_l1_line + i;
            self.l1d.invalidate_line(line);
            if let Some(l1i) = self.l1i.as_mut() {
                l1i.invalidate_line(line);
            }
        }
    }

    /// Charge cycles directly (for non-memory work: ALU time between
    /// references). Counted in `stats.cycles` but not as an access.
    pub fn charge_cycles(&mut self, cycles: f64) {
        self.stats.cycles += cycles;
    }

    /// Drop all cached state (a fully cold machine).
    pub fn flush_all(&mut self) {
        self.l1d.flush_all();
        if let Some(l1i) = self.l1i.as_mut() {
            l1i.flush_all();
        }
        self.l2.flush_all();
    }

    /// Flush only the L1s, leaving L2 contents (an "L2-resident" state
    /// for the calibration experiments).
    pub fn flush_l1(&mut self) {
        self.l1d.flush_all();
        if let Some(l1i) = self.l1i.as_mut() {
            l1i.flush_all();
        }
    }

    /// Evict all lines of a region from every level (models migration of
    /// that state to another processor: exclusive fetch + invalidate).
    pub fn purge_region(&mut self, region: Region) {
        self.l1d.purge_region(region);
        if let Some(l1i) = self.l1i.as_mut() {
            l1i.purge_region(region);
        }
        self.l2.purge_region(region);
    }

    /// Evict every line overlapping `[addr, addr + bytes)` from every
    /// level. Models cache-coherent migration of one entity's state at
    /// address granularity: when another processor takes ownership of a
    /// stream's session or a thread's stack, this processor's copies of
    /// exactly those lines are invalidated, while unrelated state in the
    /// same region class stays resident.
    pub fn purge_range(&mut self, addr: u64, bytes: u64) {
        if bytes == 0 {
            return;
        }
        let end = addr + bytes - 1;
        let l1_bytes = self.platform.l1.line_bytes as u64;
        for line in addr / l1_bytes..=end / l1_bytes {
            self.l1d.invalidate_line(line);
            if let Some(l1i) = self.l1i.as_mut() {
                l1i.invalidate_line(line);
            }
        }
        let l2_bytes = self.platform.l2.line_bytes as u64;
        for line in addr / l2_bytes..=end / l2_bytes {
            self.l2.invalidate_line(line);
        }
    }

    /// Reset counters without touching contents.
    pub fn reset_stats(&mut self) {
        self.stats = HierarchyStats::default();
        self.l1d.reset_stats();
        if let Some(l1i) = self.l1i.as_mut() {
            l1i.reset_stats();
        }
        self.l2.reset_stats();
    }
}

impl TraceSink for MemoryHierarchy {
    fn access(&mut self, mref: MemRef) {
        let _ = MemoryHierarchy::access(self, mref);
    }

    /// One lookup per L1 line of the sweep that an access would change;
    /// every other reference is charged as the L1 hit it must be.
    ///
    /// * In the first pass (`i < period`) addresses only rise, so the
    ///   references that share an L1 line are consecutive. A *run probe*
    ///   (`Cache::stateless_run`) finds how many lines from the current
    ///   one are already first in their set with this sweep's tag and
    ///   dirty bit: every reference into that run is a hit that moves
    ///   only counters, so none of them changes what the probe saw. The
    ///   line that ends a run gets a real access, which leaves it in
    ///   that same state for the rest of its references. Hits are
    ///   charged before the next real access, so cycles accumulate in
    ///   reference order.
    /// * Later passes re-walk lines the first pass left resident,
    ///   provided nothing the pass did could displace one of them: the
    ///   sweep's span covers at most `sets` consecutive lines at both
    ///   levels, so its lines fall in distinct sets of L1 and of L2, a
    ///   fill never evicts a sweep line, and an L2 eviction (hence a
    ///   back-invalidation) never covers one. Each is then still first
    ///   in its L1 set. When the span is larger the later passes are
    ///   walked reference by reference.
    ///
    /// Debug builds check every charged reference against the caches.
    fn access_sweep(&mut self, first: MemRef, stride: u64, period: u64, n: u64) {
        if n == 0 {
            return;
        }
        assert!(period > 0, "a sweep has a non-zero period");
        // The reference at offset `k` of the pass, `k = i % period`.
        let at = |k: u64| MemRef {
            addr: first.addr + k * stride,
            ..first
        };
        if stride == 0 {
            (0..n).for_each(|_| {
                self.access(first);
            });
            return;
        }

        let l1_shift = self.platform.l1.line_bytes.trailing_zeros();
        // Every engine stride is 4 or 16: shift, and divide only for others.
        let stride_shift = stride.is_power_of_two().then(|| stride.trailing_zeros());
        let pass = n.min(period);
        let last_line = at(pass - 1).addr >> l1_shift;
        let mut i = 0;
        while i < pass {
            let mref = at(i);
            let line = mref.addr >> l1_shift;
            let probed = self.l1_mut(first.is_instr).stateless_run(
                line,
                last_line - line + 1,
                first.region,
                first.is_write,
            );
            // A line the probe refused is looked up for real, and is then
            // a run of one for the references after `mref`.
            let (run, hits_from) = if probed == 0 {
                self.access(mref);
                (1, i + 1)
            } else {
                (probed, i)
            };
            // The sweep's references up to the end of the run's last line.
            let room = ((line + run) << l1_shift) - mref.addr;
            let refs = match stride_shift {
                Some(shift) => (room + stride - 1) >> shift,
                None => room.div_ceil(stride),
            };
            let end = i + refs.min(pass - i);
            debug_assert!((hits_from..end).all(|j| self.is_stateless_l1_hit(at(j))));
            self.charge_l1_hits(first, end - hits_from);
            i = end;
        }
        if pass == n {
            return;
        }

        let last = at(period - 1).addr;
        if self
            .l1_mut(first.is_instr)
            .one_line_per_set(first.addr, last)
            && self.l2.one_line_per_set(first.addr, last)
        {
            debug_assert!((pass..n).all(|j| self.is_stateless_l1_hit(at(j % period))));
            self.charge_l1_hits(first, n - pass);
        } else {
            (pass..n).for_each(|j| {
                self.access(at(j % period));
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::platform::CacheGeometry;

    fn small_platform() -> Platform {
        Platform {
            clock_hz: 100e6,
            cycles_per_ref: 5.0,
            l1: CacheGeometry::new(256, 16, 1), // 16 sets
            l1_split: true,
            l2: CacheGeometry::new(2048, 64, 1), // 32 sets
            l1_hit_cycles: 1.0,
            l2_hit_penalty_cycles: 10.0,
            mem_penalty_cycles: 100.0,
            remote_penalty_cycles: 130.0,
        }
    }

    #[test]
    fn first_touch_costs_memory_then_warms() {
        let mut h = MemoryHierarchy::new(small_platform());
        assert_eq!(
            h.access(MemRef::read(0x40, Region::Stream)),
            ServedBy::Memory
        );
        assert_eq!(h.access(MemRef::read(0x40, Region::Stream)), ServedBy::L1);
        assert_eq!(h.stats.accesses, 2);
        assert_eq!(h.stats.mem_fills, 1);
        assert_eq!(h.stats.l1_hits, 1);
        // 1 + 10 + 100 cycles then 1 cycle.
        assert!((h.stats.cycles - 112.0).abs() < 1e-12);
    }

    #[test]
    fn l1_flush_leaves_l2_warm() {
        let mut h = MemoryHierarchy::new(small_platform());
        h.access(MemRef::read(0x40, Region::Stream));
        h.flush_l1();
        assert_eq!(h.access(MemRef::read(0x40, Region::Stream)), ServedBy::L2);
    }

    #[test]
    fn full_flush_is_cold() {
        let mut h = MemoryHierarchy::new(small_platform());
        h.access(MemRef::read(0x40, Region::Stream));
        h.flush_all();
        assert_eq!(
            h.access(MemRef::read(0x40, Region::Stream)),
            ServedBy::Memory
        );
    }

    #[test]
    fn purge_range_evicts_only_the_named_lines() {
        let mut h = MemoryHierarchy::new(small_platform());
        // Two distinct 64 B L2 lines in distinct L1 sets (0x000 → set 0,
        // 0x040 → set 4), same region class.
        h.access(MemRef::read(0x000, Region::Stream));
        h.access(MemRef::read(0x040, Region::Stream));
        // Purging the first entity's bytes leaves the second warm, and
        // the cold re-fill of the first cannot displace it.
        h.purge_range(0x000, 64);
        assert_eq!(
            h.access(MemRef::read(0x000, Region::Stream)),
            ServedBy::Memory
        );
        assert_eq!(h.access(MemRef::read(0x040, Region::Stream)), ServedBy::L1);
    }

    #[test]
    fn purge_range_straddling_an_l2_line_is_address_exact_at_each_level() {
        let mut h = MemoryHierarchy::new(small_platform());
        // 16 B L1 lines under 64 B L2 lines: [0x38, 0x48) overlaps L1
        // lines 3 and 4 and, across the 0x40 boundary, L2 lines 0 and 1.
        for addr in [0x20, 0x30, 0x40, 0x50, 0x80] {
            h.access(MemRef::read(addr, Region::Stream));
        }
        h.access(MemRef::fetch(0x44));
        h.purge_range(0x38, 16);
        // L1 loses exactly the two overlapped lines, in both halves...
        for (addr, resident) in [(0x20, true), (0x30, false), (0x40, false), (0x50, true)] {
            assert_eq!(h.l1d.contains(addr), resident, "L1D {addr:#x}");
        }
        assert!(!h.l1i.as_ref().unwrap().contains(0x44));
        // ...and L2 both lines the range touches, but not the next one.
        assert!(!h.l2.contains(0x00) && !h.l2.contains(0x40));
        assert!(h.l2.contains(0x80));
        assert_eq!(
            h.access(MemRef::read(0x3c, Region::Stream)),
            ServedBy::Memory
        );
        assert_eq!(h.access(MemRef::read(0x80, Region::Stream)), ServedBy::L1);
    }

    #[test]
    fn purge_range_of_zero_bytes_is_noop() {
        let mut h = MemoryHierarchy::new(small_platform());
        h.access(MemRef::read(0x40, Region::Stream));
        h.purge_range(0x40, 0);
        assert_eq!(h.access(MemRef::read(0x40, Region::Stream)), ServedBy::L1);
    }

    #[test]
    fn instruction_fetches_use_l1i() {
        let mut h = MemoryHierarchy::new(small_platform());
        h.access(MemRef::fetch(0x100));
        // The same address as data should miss L1-D but hit L2.
        assert_eq!(h.access(MemRef::read(0x100, Region::Code)), ServedBy::L2);
    }

    #[test]
    fn unsplit_platform_shares_one_l1() {
        let mut p = small_platform();
        p.l1_split = false;
        let mut h = MemoryHierarchy::new(p);
        assert!(h.l1i.is_none());
        h.access(MemRef::fetch(0x100));
        assert_eq!(h.access(MemRef::read(0x100, Region::Code)), ServedBy::L1);
    }

    #[test]
    fn inclusion_back_invalidates_l1() {
        let mut h = MemoryHierarchy::new(small_platform());
        // L2: 32 sets × 64 B lines. Two addresses 32*64 = 2048 B apart
        // conflict in L2 but land in different L1 sets (L1: 16 sets × 16 B
        // = 256 B period; 2048 % 256 == 0 → same L1 set too; choose a
        // different offset to keep L1 sets distinct).
        let a = 0x40u64;
        let b = a + 2048 + 16; // same L2 set? (a/64)%32 vs (b/64)%32
                               // Compute the actual conflicting pair instead of guessing:
        let l2_sets = 32u64;
        let conflict = a + l2_sets * 64; // same L2 set, different tag
        h.access(MemRef::read(a, Region::Stream));
        assert!(h.l1d.contains(a));
        h.access(MemRef::read(conflict, Region::NonProtocol));
        // a was evicted from L2 → must also be gone from L1 (inclusion).
        assert!(!h.l1d.contains(a), "inclusion violated");
        let _ = b;
    }

    /// Lines the run probes of both L1s have walked so far.
    fn walked(h: &MemoryHierarchy) -> u64 {
        h.l1d.walked + h.l1i.as_ref().map_or(0, |c| c.walked)
    }

    /// Lines walked by one more single-pass sweep of `n` references.
    fn walks(h: &mut MemoryHierarchy, first: MemRef, stride: u64, n: u64) -> u64 {
        let before = walked(h);
        h.access_sweep(first, stride, n, n);
        walked(h) - before
    }

    #[test]
    fn a_sweep_over_untouched_blocks_walks_no_line() {
        // R4400: 1024-set L1s, 64 stamp blocks each.
        let mut h = MemoryHierarchy::new(Platform::sgi_challenge_r4400());
        // A 160-line code segment, six passes a packet.
        let code = |h: &mut MemoryHierarchy| {
            let before = walked(h);
            h.access_sweep(MemRef::fetch(0x4_0000), 16, 160, 960);
            walked(h) - before
        };
        assert_eq!(code(&mut h), 160, "cold: one refused probe per line");
        assert_eq!(code(&mut h), 160, "warm: the run is walked once, and kept");
        let priced = h.stats;
        assert_eq!(code(&mut h), 0);
        assert_eq!(code(&mut h), 0);
        assert_eq!(h.stats.accesses, priced.accesses + 2 * 960);
        assert_eq!(h.stats.l1_hits, priced.l1_hits + 2 * 960);

        // Stream state (13 lines from set 0 of L1D) stays verified while a
        // DMA-cold packet buffer is filled eight blocks away from it...
        let stream = MemRef::read(0x10_0000, Region::Stream);
        let packet = MemRef::write(0x10_0800, Region::PacketData);
        assert_eq!(walks(&mut h, stream, 4, 52), 13);
        assert_eq!(walks(&mut h, stream, 4, 52), 13);
        for _ in 0..3 {
            h.purge_region(Region::PacketData);
            assert_eq!(walks(&mut h, packet, 4, 64), 16);
            assert_eq!(walks(&mut h, stream, 4, 52), 0);
            assert_eq!(code(&mut h), 0);
        }
        // ...and is walked again once its own lines have been purged and
        // refilled.
        h.purge_range(stream.addr, 52 * 4);
        assert_eq!(walks(&mut h, stream, 4, 52), 13);
        assert_eq!(walks(&mut h, stream, 4, 52), 13);
        assert_eq!(walks(&mut h, stream, 4, 52), 0);
    }

    #[test]
    fn purges_and_back_invalidations_stamp_the_l1_blocks_they_reach() {
        let stream = MemRef::read(0x10_0000, Region::Stream);
        let far = MemRef::read(0x10_2000, Region::Stream);
        let warm = || {
            let mut h = MemoryHierarchy::new(Platform::sgi_challenge_r4400());
            for first in [stream, far] {
                for _ in 0..3 {
                    h.access_sweep(first, 4, 64, 64);
                }
                assert_eq!(walks(&mut h, first, 4, 64), 0);
            }
            h
        };
        // `purge_range` of one line of the run, then of a line far from it.
        let mut h = warm();
        h.purge_range(far.addr + 32, 4);
        assert_eq!(walks(&mut h, stream, 4, 64), 0);
        assert!(walks(&mut h, far, 4, 64) > 0);
        assert_eq!(walks(&mut h, far, 4, 64), 16, "refilled: walked once more");
        assert_eq!(walks(&mut h, far, 4, 64), 0);
        // An L2 conflict evicts the L2 line under the run's lines 8..16
        // (128 B over 16 B), and inclusion takes them out of L1D.
        let mut h = warm();
        let l2_bytes = h.platform().l2.capacity_bytes;
        h.access(MemRef::read(
            stream.addr + 128 + l2_bytes,
            Region::NonProtocol,
        ));
        assert!(!h.l1d.contains(stream.addr + 128));
        assert_eq!(walks(&mut h, far, 4, 64), 0);
        let stats = h.stats;
        assert!(walks(&mut h, stream, 4, 64) > 0);
        assert_eq!(h.stats.l1_hits - stats.l1_hits, 64 - 8);
        // `purge_region` and `flush_l1` reach every block the region
        // (every line) lives in.
        let mut h = warm();
        h.purge_region(Region::PacketData);
        assert_eq!(walks(&mut h, stream, 4, 64), 0);
        h.purge_region(Region::Stream);
        assert_eq!(walks(&mut h, stream, 4, 64), 16);
        let mut h = warm();
        h.flush_l1();
        assert_eq!(walks(&mut h, far, 4, 64), 16);
    }

    #[test]
    fn cycles_accumulate_across_accesses_and_direct_charges() {
        let mut h = MemoryHierarchy::new(small_platform());
        h.access(MemRef::read(0, Region::Stream)); // 111 cycles
        h.access(MemRef::read(0, Region::Stream)); // 1 cycle
        assert_eq!(h.stats.cycles, 112.0);
        h.charge_cycles(88.0);
        assert_eq!(h.stats.cycles, 200.0);
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut h = MemoryHierarchy::new(small_platform());
        h.access(MemRef::read(0x80, Region::Thread));
        h.reset_stats();
        assert_eq!(h.stats.accesses, 0);
        assert_eq!(h.access(MemRef::read(0x80, Region::Thread)), ServedBy::L1);
    }
}
