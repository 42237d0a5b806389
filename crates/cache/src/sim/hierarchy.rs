//! A simulated two-level memory hierarchy: split L1 (I + D) over a
//! unified, inclusive L2, with miss-penalty accounting in cycles.
//!
//! Models the SGI Challenge / R4400 arrangement the paper measures:
//! direct-mapped split primaries backed by a large direct-mapped unified
//! secondary. Inclusion is enforced: when L2 evicts a line, any covered
//! L1 lines are back-invalidated (an L2 line spans several L1 lines when
//! the line sizes differ). An L1 hit costs no cycles here: its time is
//! in the CPI the engine charges per instruction.

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
    /// Total cycles charged: miss penalties and direct charges.
    pub cycles: f64,
}

/// The simulated hierarchy.
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    /// Instruction-side L1.
    pub l1i: Cache,
    /// Data-side L1.
    pub l1d: Cache,
    /// Unified second level.
    pub l2: Cache,
    platform: Platform,
    /// Counters.
    pub stats: HierarchyStats,
}

impl MemoryHierarchy {
    /// Build from a platform description, whose L1 must be split and
    /// whose caches must be direct-mapped with 2^k sets (`Cache::new`).
    pub fn new(platform: Platform) -> Self {
        assert!(
            platform.l1_split,
            "the trace-driven hierarchy has a split L1; a unified L1 is priced by the analytic model (FlushModel)"
        );
        MemoryHierarchy {
            l1i: Cache::new(platform.l1),
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
    /// its miss penalties to `stats.cycles`.
    pub fn access(&mut self, mref: MemRef) -> ServedBy {
        self.stats.accesses += 1;

        let l1_result = self
            .l1_mut(mref.is_instr)
            .access_rw(mref.addr, mref.region, mref.is_write);
        if l1_result.hit {
            self.stats.l1_hits += 1;
            return ServedBy::L1;
        }

        let mut cycles = self.platform.l2_hit_penalty_cycles;
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
        match is_instr {
            true => &mut self.l1i,
            false => &mut self.l1d,
        }
    }

    /// The L2 side of [`MemoryHierarchy::access`]'s L1 miss branch for
    /// the `filled` lines from `line` that `Cache::fill_run` has just
    /// placed for `first`'s sweep, in their order, with each miss's
    /// cycles. L2 takes one real access per L2 line, and only the last
    /// line's may miss. The other L1 lines of an L2 line, and those under
    /// `l2_line` (the L2 line of the last real L2 access, which nothing
    /// has changed since), hit it as that access left it, with the
    /// sweep's owner and dirty bit, and are left to the caller's bulk
    /// charge. Returns the real accesses made and how many of them missed.
    fn reload_from_l2(
        &mut self,
        first: MemRef,
        line: u64,
        filled: u64,
        l2_line: &mut Option<u64>,
    ) -> (u64, u64) {
        let p = &self.platform;
        let (region, is_write) = (first.region, first.is_write);
        let l1_shift = p.l1.line_bytes.trailing_zeros();
        // L1 line `l` lies in L2 line `l >> l2_of`.
        let l2_of = p.l2.line_bytes.trailing_zeros() - l1_shift;
        // What `access` charges an L1 miss, summed in its order.
        let l2_cycles = p.l2_hit_penalty_cycles;
        let mem_cycles = l2_cycles + p.mem_penalty_cycles;
        let last = line + filled - 1;
        let (mut accesses, mut misses) = (0, 0);
        for l2 in line >> l2_of..(last >> l2_of) + 1 {
            if *l2_line == Some(l2) {
                continue;
            }
            *l2_line = Some(l2);
            let head = (l2 << l2_of).max(line);
            let l2_result = self.l2.access_rw(head << l1_shift, region, is_write);
            debug_assert!(l2_result.hit || head == last);
            if let Some((victim, _)) = l2_result.evicted {
                self.back_invalidate(victim);
            }
            accesses += 1;
            misses += u64::from(!l2_result.hit);
        }
        debug_assert!(
            !self.l2.one_line_per_set(line << l1_shift, last << l1_shift)
                || (line..=last).all(|l| self.l2.hit_is_stateless(l << l1_shift, region, is_write))
        );
        for _ in 1..filled {
            self.stats.cycles += l2_cycles;
        }
        self.stats.cycles += if misses > 0 { mem_cycles } else { l2_cycles };
        (accesses, misses)
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
        let count = l2_bytes / l1_bytes;
        self.invalidate_l1(l2_line * count, count);
    }

    /// Invalidate the `n` L1 lines from `line` on in both halves.
    fn invalidate_l1(&mut self, line: u64, n: u64) {
        self.l1d.invalidate_run(line, n);
        self.l1i.invalidate_run(line, n);
    }

    /// Charge cycles directly (for non-memory work: ALU time between
    /// references). Counted in `stats.cycles` but not as an access.
    pub fn charge_cycles(&mut self, cycles: f64) {
        self.stats.cycles += cycles;
    }

    /// Drop all cached state (a fully cold machine).
    pub fn flush_all(&mut self) {
        self.flush_l1();
        self.l2.flush_all();
    }

    /// Flush only the L1s, leaving L2 contents (an "L2-resident" state
    /// for the calibration experiments).
    pub fn flush_l1(&mut self) {
        self.l1d.flush_all();
        self.l1i.flush_all();
    }

    /// Evict all lines of a region from every level (models migration of
    /// that state to another processor: exclusive fetch + invalidate).
    pub fn purge_region(&mut self, region: Region) {
        self.l1d.purge_region(region);
        self.l1i.purge_region(region);
        self.l2.purge_region(region);
    }

    /// Evict every L2 line overlapping `[addr, addr + bytes)`, and with
    /// each the L1 lines it covers, as `back_invalidate` does, so
    /// inclusion holds. Models cache-coherent migration of one entity's
    /// state at address granularity: when another processor takes
    /// ownership of a stream's session or a thread's stack, this
    /// processor's copies of those lines are invalidated, while unrelated
    /// state in the same region class stays resident. Each cache clears
    /// its lines as one run of sets (`Cache::invalidate_run`).
    pub fn purge_range(&mut self, addr: u64, bytes: u64) {
        if bytes == 0 {
            return;
        }
        let l2_bytes = self.platform.l2.line_bytes as u64;
        let per_l2 = l2_bytes / self.platform.l1.line_bytes as u64;
        let line = addr / l2_bytes;
        let lines = (addr + bytes - 1) / l2_bytes - line + 1;
        self.invalidate_l1(line * per_l2, lines * per_l2);
        self.l2.invalidate_run(line, lines);
    }
}

impl TraceSink for MemoryHierarchy {
    fn access(&mut self, mref: MemRef) {
        let _ = MemoryHierarchy::access(self, mref);
    }

    /// The sweep by line, in one loop. Each step of the first pass
    /// classifies the line of the reference it is on once, and leaves
    /// every cache, counter and cycle total as the walk of the references
    /// it takes would leave them, in the walk's order. A probe
    /// (`Cache::stateless_run`) tells the first case from the others, a
    /// slot read the other two; after an absent run that filled every
    /// line it asked for, the next line is tried as absent first, and a
    /// step that finds it resident after all charges nothing.
    ///
    /// * *Resident and stateless* — its L1 set holds it with the sweep's
    ///   owner, dirty if the sweep stores. A reference to such a line
    ///   moves counters and nothing else, so none changes what
    ///   `Cache::stateless_run` saw: every reference into the run of such
    ///   lines it measures is charged as an L1 hit.
    /// * *Absent* — its L1 set does not hold it. `Cache::fill_run` places
    ///   it and the lines after it as the walk's L1 misses would, testing
    ///   each when its turn comes, up to the first line of the first L2
    ///   line L2 does not hold and at most one line per L1 set. An L2 hit
    ///   changes no L1 line and no L1 fill changes L2, so the run's L2
    ///   accesses may follow its fills, one per L2 line in order; the one
    ///   that may miss, and so back-invalidate, is its last line's. The
    ///   other L1 lines of an L2 line find it as its access left it, so
    ///   their L2 hits move counters only; each L1 miss adds its cycles in
    ///   reference order (`MemoryHierarchy::reload_from_l2`).
    /// * *Anything else* — one real `access`, which leaves the line
    ///   stateless for its other references.
    ///
    /// Last, the references after the first pass: when the span puts one
    /// line in each set of L1 and of L2, no fill of the sweep evicted a
    /// sweep line and no L2 eviction covered one, so the first pass left
    /// every line stateless and they are charged in bulk; otherwise each
    /// is one real `access`, as is every reference of a stride that is not
    /// a power of two no longer than an L1 line (zero included), since
    /// only such a stride touches every line of its span. Counters are
    /// integers, tallied and booked once. Within a pass addresses rise,
    /// so the references to a line are consecutive. Debug builds check
    /// every charged reference against the caches.
    fn access_sweep(&mut self, first: MemRef, stride: u64, period: u64, n: u64) {
        if n == 0 {
            return;
        }
        assert!(period > 0, "a sweep has a non-zero period");
        // The reference at offset `k` of a pass.
        let at = |k: u64| MemRef {
            addr: first.addr + k * stride,
            ..first
        };
        let (region, is_write) = (first.region, first.is_write);
        let l1_shift = self.platform.l1.line_bytes.trailing_zeros();
        // The references priced by line: the first pass, or none.
        let pass = match stride.is_power_of_two() && stride <= 1 << l1_shift {
            true => n.min(period),
            false => 0,
        };
        let shift = stride.trailing_zeros();
        let last = at(n.min(period) - 1).addr >> l1_shift;
        // L1 line `l` lies in L2 line `l >> l2_of`; L1 is direct-mapped.
        let l2_of = self.platform.l2.line_bytes.trailing_zeros() - l1_shift;
        let l1_sets = self.platform.l1.capacity_bytes >> l1_shift;
        // Whether the span puts one line in each set of L1 and of L2.
        let span_end = at(period - 1).addr;
        let settled = pass < n
            && pass > 0
            && self
                .l1_mut(first.is_instr)
                .one_line_per_set(first.addr, span_end)
            && self.l2.one_line_per_set(first.addr, span_end);
        // Whether the last step filled every line it asked for, so that the
        // line the loop is on is tried as absent first; the L2 line of the
        // last real L2 access; and what the sweep has charged: L1 hits in
        // bulk, L1 misses, and of those the real L2 accesses and the memory
        // fills.
        let (mut absent, mut l2_line) = (false, None);
        let (mut hits, mut misses, mut l2_accesses, mut fills) = (0, 0, 0, 0);
        let mut i = 0;
        while i < n {
            if i >= pass {
                if settled {
                    debug_assert!((i..n).all(|j| self.is_stateless_l1_hit(at(j % period))));
                    hits += n - i;
                    break;
                }
                self.access(at(i % period));
                i += 1;
                continue;
            }
            let mref = at(i);
            let line = mref.addr >> l1_shift;
            // The first reference from the `i`-th on at or past line `next`.
            let end_of = |next: u64| {
                let room = (next << l1_shift) - mref.addr;
                i + ((room + stride - 1) >> shift).min(pass - i)
            };
            // After the step the references `from..end` find their lines
            // stateless; `filled` of them were L1 misses, the rest hits.
            let l1 = self.l1_mut(first.is_instr);
            let run = match absent {
                true => 0,
                false => l1.stateless_run(line, last - line + 1, region, is_write),
            };
            let (from, end, filled) = if run > 0 {
                (i, end_of(line + run), 0)
            } else if !absent && l1.contains(mref.addr) {
                self.access(mref);
                (i + 1, end_of(line + 1), 0)
            } else {
                // Absent: up to the first line of the first L2 line that
                // L2 does not hold, at most one line per L1 set.
                let cap = last.min(line + l1_sets - 1);
                let miss = (line >> l2_of..(cap >> l2_of) + 1)
                    .find(|&l2| !self.l2.contains(l2 << (l2_of + l1_shift)));
                let run_last = miss.map_or(cap, |l2| (l2 << l2_of).max(line));
                let want = run_last - line + 1;
                let filled = self
                    .l1_mut(first.is_instr)
                    .fill_run(line, want, region, is_write);
                if filled == 0 {
                    // Resident after all: classify it with a probe.
                    absent = false;
                    continue;
                }
                absent = filled == want;
                (i, end_of(line + filled), filled)
            };
            debug_assert!((from..end).all(|j| self.is_stateless_l1_hit(at(j))));
            if filled > 0 {
                let (accesses, missed) = self.reload_from_l2(first, line, filled, &mut l2_line);
                (misses, l2_accesses, fills) =
                    (misses + filled, l2_accesses + accesses, fills + missed);
            }
            hits += end - from - filled;
            i = end;
        }
        // Every L1 miss but a memory fill is an L2 hit, real or in bulk.
        self.stats.accesses += hits + misses;
        self.stats.l1_hits += hits;
        self.l1_mut(first.is_instr).charge(region, misses, hits);
        if misses > 0 {
            self.stats.l2_hits += misses - fills;
            self.stats.mem_fills += fills;
            self.l2.charge(region, 0, misses - l2_accesses);
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
        // 10 + 100 cycles, then none: an L1 hit is in the CPI.
        assert_eq!(h.stats.cycles, 110.0);
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
    fn purge_range_straddling_an_l2_line_takes_both_l2_lines_and_the_l1_lines_under_them() {
        let mut h = MemoryHierarchy::new(small_platform());
        // 16 B L1 lines under 64 B L2 lines: [0x38, 0x48) overlaps, across
        // the 0x40 boundary, L2 lines 0 and 1.
        for addr in [0x20, 0x30, 0x40, 0x50, 0x80] {
            h.access(MemRef::read(addr, Region::Stream));
        }
        h.access(MemRef::fetch(0x44));
        h.purge_range(0x38, 16);
        // L2 loses both lines the range touches, but not the next one...
        assert!(!h.l2.contains(0x00) && !h.l2.contains(0x40));
        assert!(h.l2.contains(0x80));
        // ...and L1, in both halves, every line under them: inclusion.
        for addr in [0x20, 0x30, 0x40, 0x50] {
            assert!(!h.l1d.contains(addr), "L1D {addr:#x}");
        }
        assert!(!h.l1i.contains(0x44));
        assert!(h.l1d.contains(0x80));
        assert_eq!(
            h.access(MemRef::read(0x20, Region::Stream)),
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
    #[should_panic(expected = "a unified L1 is priced by the analytic model")]
    fn a_unified_l1_is_refused() {
        let mut p = small_platform();
        p.l1_split = false;
        MemoryHierarchy::new(p);
    }

    #[test]
    fn inclusion_back_invalidates_l1() {
        let mut h = MemoryHierarchy::new(small_platform());
        // A fetch and a load under one 64 B L2 line (L1 lines 4 and 5)
        // leave it in L1I and in L1D.
        let (fetched, loaded) = (0x40, 0x50);
        h.access(MemRef::fetch(fetched));
        h.access(MemRef::read(loaded, Region::Stream));
        assert!(h.l1i.contains(fetched) && h.l1d.contains(loaded));
        // One L2 period (32 sets × 64 B) up is the same L2 set; 32 B
        // further keeps the conflicting line out of both L1 sets.
        let conflict = fetched + h.platform().l2.capacity_bytes + 32;
        let served = h.access(MemRef::read(conflict, Region::NonProtocol));
        assert_eq!(served, ServedBy::Memory);
        assert!(!h.l2.contains(fetched));
        // Inclusion: the evicted L2 line leaves both halves of L1.
        assert!(!h.l1i.contains(fetched), "inclusion violated in L1I");
        assert!(!h.l1d.contains(loaded), "inclusion violated in L1D");
    }

    /// Lines the run probes of both L1s have walked so far.
    fn walked(h: &MemoryHierarchy) -> u64 {
        h.l1d.walked + h.l1i.walked
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
        assert_eq!(code(&mut h), 1, "cold: one refused probe, then absent runs");
        assert_eq!(code(&mut h), 160, "warm: the run is walked once, and kept");
        let priced = h.stats;
        assert_eq!(code(&mut h), 0);
        assert_eq!(code(&mut h), 0);
        assert_eq!(h.stats.accesses, priced.accesses + 2 * 960);
        assert_eq!(h.stats.l1_hits, priced.l1_hits + 2 * 960);

        // Stream state (13 lines from set 0 of L1D) stays verified while a
        // DMA-cold packet buffer, one refused probe each time, is filled
        // eight blocks away from it...
        let stream = MemRef::read(0x10_0000, Region::Stream);
        let packet = MemRef::write(0x10_0800, Region::PacketData);
        assert_eq!(walks(&mut h, stream, 4, 52), 1);
        assert_eq!(walks(&mut h, stream, 4, 52), 13);
        for _ in 0..3 {
            h.purge_region(Region::PacketData);
            assert_eq!(walks(&mut h, packet, 4, 64), 1);
            assert_eq!(walks(&mut h, stream, 4, 52), 0);
            assert_eq!(code(&mut h), 0);
        }
        // ...and is walked again once its own lines have been purged and
        // refilled.
        h.purge_range(stream.addr, 52 * 4);
        assert_eq!(walks(&mut h, stream, 4, 52), 1);
        assert_eq!(walks(&mut h, stream, 4, 52), 13);
        assert_eq!(walks(&mut h, stream, 4, 52), 0);
    }

    /// Lines walked by run probes, runs filled and `access_rw` lookups,
    /// summed over the three caches.
    fn work(h: &MemoryHierarchy) -> [u64; 3] {
        let caches = [&h.l1d, &h.l1i, &h.l2];
        [
            caches.iter().map(|c| c.walked).sum(),
            caches.iter().map(|c| c.runs).sum(),
            caches.iter().map(|c| c.lookups).sum(),
        ]
    }

    #[test]
    fn a_steady_state_packet_does_no_more_host_work_than_pinned() {
        // The sweeps of a 64 B packet at the engine's addresses on the
        // R4400 (L1 set = addr / 16 % 1024, L2 set = addr / 128 % 8192):
        // code from set 0, globals from 752, the stack from 800, two
        // flows' stream state over sets 848..1024 (one L1 period apart,
        // so each reloads what the other displaced from L2), and a
        // DMA-cold buffer at set 1008, which also takes two of the first
        // flow's L2 lines.
        type Sweep = fn(&mut MemoryHierarchy, MemRef, u64, u64, u64);
        let priced: Sweep = |h, first, stride, period, n| h.access_sweep(first, stride, period, n);
        let by_reference: Sweep = |h, first, stride, period, n| {
            (0..n).for_each(|i| {
                h.access(MemRef {
                    addr: first.addr + i % period * stride,
                    ..first
                });
            })
        };
        let packet = |h: &mut MemoryHierarchy, sweep: Sweep| {
            sweep(h, MemRef::fetch(0x1000_0000), 16, 160, 960);
            sweep(h, MemRef::read(0x2000_2F00, Region::Global), 4, 160, 160);
            sweep(h, MemRef::write(0x3000_3200, Region::Thread), 4, 160, 160);
            for flow in [0, 1] {
                let base = 0x4000_3500 + flow * 0x4000;
                sweep(h, MemRef::read(base, Region::Stream), 4, 512, 512);
                sweep(h, MemRef::write(base + 2048, Region::Stream), 4, 192, 192);
                if flow == 0 {
                    h.purge_region(Region::PacketData);
                    sweep(h, MemRef::read(0x5000_3F00, Region::PacketData), 4, 32, 32);
                }
            }
        };
        let mut h = MemoryHierarchy::new(Platform::sgi_challenge_r4400());
        (0..3).for_each(|_| packet(&mut h, priced));
        let (mut reference, before) = (h.clone(), work(&h));
        packet(&mut h, priced);
        packet(&mut reference, by_reference);
        let done: [u64; 3] = std::array::from_fn(|k| work(&h)[k] - before[k]);
        assert_eq!(done, [5, 7, 45], "[walked, runs, lookups] for one packet");
        assert_eq!(booked(&h), booked(&reference));
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
        // `purge_range` of bytes in one line of the run takes its whole
        // L2 line (128 B over 16 B: the run's lines 0..8) from L1D too.
        let mut h = warm();
        h.purge_range(far.addr + 32, 4);
        assert!(!h.l1d.contains(far.addr) && !h.l1d.contains(far.addr + 112));
        assert!(h.l1d.contains(far.addr + 128));
        assert_eq!(walks(&mut h, stream, 4, 64), 0);
        // The refused probe of line 0, one absent run for 0..8, the last
        // eight lines.
        assert_eq!(walks(&mut h, far, 4, 64), 1 + 8);
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
        // Lines 0..8 and the look past them, then a refused probe and one
        // absent run for 8..16: a memory fill of their L2 line, which the
        // other seven then hit.
        assert_eq!(walks(&mut h, stream, 4, 64), 9 + 1);
        assert_eq!(h.stats.l1_hits - stats.l1_hits, 64 - 8);
        assert_eq!(h.stats.mem_fills - stats.mem_fills, 1);
        assert_eq!(h.stats.l2_hits - stats.l2_hits, 7);
        assert_eq!(walks(&mut h, stream, 4, 64), 16);
        assert_eq!(walks(&mut h, stream, 4, 64), 0);
        // `purge_region` and `flush_l1` reach every block the region
        // (every line) lives in.
        let mut h = warm();
        h.purge_region(Region::PacketData);
        assert_eq!(walks(&mut h, stream, 4, 64), 0);
        h.purge_region(Region::Stream);
        assert_eq!(walks(&mut h, stream, 4, 64), 1);
        assert_eq!(walks(&mut h, stream, 4, 64), 16);
        let mut h = warm();
        h.flush_l1();
        assert_eq!(walks(&mut h, far, 4, 64), 1);
        assert_eq!(walks(&mut h, far, 4, 64), 16);
        assert_eq!(walks(&mut h, far, 4, 64), 0);
    }

    #[test]
    fn an_absent_run_over_l2_resident_lines_books_what_the_reference_walk_books() {
        // 16 B L1 lines under 64 B L2 lines.
        let mut h = MemoryHierarchy::new(small_platform());
        let stores = MemRef::write(0x1000, Region::Stream);
        let at = |j: u64| MemRef {
            addr: stores.addr + 4 * j,
            ..stores
        };
        // Twelve lines over three L2 lines, displaced from L1 (one L1
        // period up, another L2 set) and, under the last L2 line, from L2
        // too (one L2 period up, the same L1 set as line 8).
        h.access_sweep(stores, 4, 48, 48);
        h.access_sweep(MemRef::read(0x1100, Region::Thread), 4, 48, 48);
        h.access(MemRef::read(0x1080 + 2048, Region::NonProtocol));
        assert!((0..12).all(|l| !h.l1d.contains(at(4 * l).addr)));

        let mut reference = h.clone();
        (0..48).for_each(|j| {
            reference.access(at(j));
        });
        let before = (h.stats, walked(&h), h.l1d.runs);
        h.access_sweep(stores, 4, 48, 48);
        assert_eq!(
            walked(&h) - before.1,
            1,
            "one refused probe, then absent runs"
        );
        // One run through the two L2 lines L2 holds, up to the first line
        // of the one it does not; one run after that line's L2 access.
        assert_eq!(h.l1d.runs - before.2, 2);
        // Eight L2 hits, a memory fill that evicts the conflicting line,
        // and three hits under it.
        assert_eq!(h.stats.l2_hits - before.0.l2_hits, 11);
        assert_eq!(h.stats.mem_fills - before.0.mem_fills, 1);
        assert_eq!(booked(&h), booked(&reference));
    }

    /// Every counter, the cycles by bit pattern, and per cache its
    /// counters and each region's (dirty) occupancy.
    fn booked(h: &MemoryHierarchy) -> ([u64; 4], u64, [String; 3]) {
        let s = h.stats;
        let caches = [&h.l1d, &h.l1i, &h.l2].map(|c| {
            let resident = Region::ALL.map(|r| (c.occupancy(r), c.dirty_occupancy(r)));
            format!("{:?} {resident:?}", c.stats)
        });
        let counters = [s.accesses, s.l1_hits, s.l2_hits, s.mem_fills];
        (counters, s.cycles.to_bits(), caches)
    }

    #[test]
    fn an_absent_run_fills_no_set_before_the_l2_access_that_back_invalidates_it() {
        // 16 B L1 lines under 64 B L2 lines: stores over lines 0..8 (L1
        // sets 0..8) under two L2 lines, the second in L2 set 1.
        let mut h = MemoryHierarchy::new(small_platform());
        let stores = MemRef::write(0x1000, Region::Stream);
        h.access_sweep(stores, 4, 32, 32);
        // One L2 period up, a thread's dirty lines take the second L2
        // line's L2 set and L1 sets 4..8; one L1 period up, loads take L1
        // sets 0..4 under another L2 set.
        h.access_sweep(MemRef::write(0x1840, Region::Thread), 4, 16, 16);
        h.access_sweep(MemRef::read(0x1100, Region::Global), 4, 16, 16);
        assert!((0..8).all(|l| !h.l1d.contains(stores.addr + 16 * l)));
        assert_eq!(h.l1d.dirty_occupancy(Region::Thread), 4);

        let mut reference = h.clone();
        (0..32).for_each(|j| {
            reference.access(MemRef {
                addr: stores.addr + 4 * j,
                ..stores
            });
        });
        let before = h.l1d.stats.writebacks;
        h.access_sweep(stores, 4, 32, 32);
        // Line 4 evicts the thread's dirty line from set 4 and then makes
        // the L2 access whose eviction back-invalidates the other three,
        // which lines 5..8 therefore do not write back.
        assert_eq!(h.l1d.stats.writebacks - before, 1);
        assert_eq!(h.l1d.occupancy(Region::Thread), 0);
        assert_eq!(booked(&h), booked(&reference));
    }

    #[test]
    fn cycles_accumulate_across_accesses_and_direct_charges() {
        let mut h = MemoryHierarchy::new(small_platform());
        h.access(MemRef::read(0, Region::Stream)); // 110 cycles
        h.access(MemRef::read(0, Region::Stream)); // an L1 hit: none
        assert_eq!(h.stats.cycles, 110.0);
        h.charge_cycles(90.0);
        assert_eq!(h.stats.cycles, 200.0);
    }
}
