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

    /// Charge `k` L1 hits like `mref` without looking anything up: the
    /// counters `k` calls of [`MemoryHierarchy::access`] would advance
    /// when each finds its line in its L1 set, already tagged and (for a
    /// store) dirty — a hit that changes no cache state, never reaches
    /// L2 and adds no cycles.
    fn charge_l1_hits(&mut self, mref: MemRef, k: u64) {
        self.stats.accesses += k;
        self.stats.l1_hits += k;
        self.l1_mut(mref.is_instr).charge(mref.region, 0, k);
    }

    /// Reload a streak of L1-absent lines in one pass: from reference `i`
    /// of the first pass up to the first line that its L1 set holds, or
    /// the end of the pass. Each line gets the miss branch of
    /// [`MemoryHierarchy::access`], and its other references are the L1
    /// hits they then are. `end_of(j, line)` is the first reference from
    /// the `j`-th on that lies at or past `line`. Returns the reference
    /// after the last one charged, which is `i` itself when its line is
    /// resident.
    ///
    /// L2 takes one real access per L2 line, made by the fill of its
    /// first streak line. The later L1 lines of that L2 line find it in
    /// its set with the sweep's owner and dirty bit, since nothing in
    /// between changes L2 (an L1 fill does not, a back-invalidation
    /// touches only L1), so they are L2 hits that move counters only.
    ///
    /// The sweep's stride is at most an L1 line, so it touches every
    /// line of its span, and its L1 fills go by *runs of sets*
    /// (`Cache::fill_run`, which tests each line for absence when its turn
    /// comes and books the run once). An L2 access that hits changes no L1
    /// line and no L1 fill changes L2, so those accesses can follow the
    /// fills of later lines; only one that misses, whose eviction may
    /// back-invalidate, must come before the next fill. A run therefore
    /// goes on through every L2 line that L2 holds (an L2 hit evicts
    /// nothing, so what L2 holds cannot change before its turn) and ends
    /// at the first line of the first one it does not hold, whose access
    /// comes last — or after as many lines as L1 has sets, which bounds
    /// the look-ahead a run cut short by a resident line has wasted.
    /// Counters are booked once per streak; cycles are added per access,
    /// in reference order.
    fn reload_streak(
        &mut self,
        first: MemRef,
        i: u64,
        pass: u64,
        at: impl Fn(u64) -> MemRef,
        end_of: impl Fn(u64, u64) -> u64,
    ) -> u64 {
        let p = self.platform;
        let (region, is_write) = (first.region, first.is_write);
        let l1_shift = p.l1.line_bytes.trailing_zeros();
        // L1 line `l` lies in L2 line `l >> l2_of`.
        let l2_of = p.l2.line_bytes.trailing_zeros() - l1_shift;
        // What `access` charges an L1 miss, summed in its order.
        let l2_cycles = p.l2_hit_penalty_cycles;
        let mem_cycles = l2_cycles + p.mem_penalty_cycles;
        let last_line = at(pass - 1).addr >> l1_shift;
        let mut line = at(i).addr >> l1_shift;
        // The L2 line of the last real L2 access.
        let mut l2_line = None;
        let (mut j, mut lines, mut accesses, mut l2_hits) = (i, 0, 0, 0);
        loop {
            // The run's last line: the first line of the first L2 line
            // whose real access L2 would miss, or the pass's last line, at
            // most one line per L1 set from `line`.
            let cap = last_line.min(line + p.l1.sets() - 1);
            let mut run_last = line;
            for l2 in line >> l2_of..=cap >> l2_of {
                if l2_line != Some(l2) && !self.l2.contains(l2 << (l2_of + l1_shift)) {
                    run_last = (l2 << l2_of).max(line);
                    break;
                }
                run_last = (((l2 + 1) << l2_of) - 1).min(cap);
            }
            let want = run_last - line + 1;
            let filled = self
                .l1_mut(first.is_instr)
                .fill_run(line, want, region, is_write);
            if filled == 0 {
                break;
            }
            let (filled_last, end) = (line + filled - 1, end_of(j, line + filled));
            debug_assert!((j..end).all(|k| self.is_stateless_l1_hit(at(k))));
            // One real access per L2 line not yet accessed, made by its
            // first line in the run, in order.
            let mut missed = false;
            for l2 in line >> l2_of..=filled_last >> l2_of {
                if l2_line == Some(l2) {
                    continue;
                }
                l2_line = Some(l2);
                let head = (l2 << l2_of).max(line);
                let l2_result = self.l2.access_rw(head << l1_shift, region, is_write);
                debug_assert!(l2_result.hit || head == filled_last);
                if let Some((victim, _)) = l2_result.evicted {
                    self.back_invalidate(victim);
                }
                accesses += 1;
                l2_hits += u64::from(l2_result.hit);
                missed = !l2_result.hit;
            }
            debug_assert!(
                !self
                    .l2
                    .one_line_per_set(line << l1_shift, filled_last << l1_shift)
                    || (line..=filled_last).all(|l| self.l2.hit_is_stateless(
                        l << l1_shift,
                        region,
                        is_write
                    ))
            );
            for k in 0..filled {
                self.stats.cycles += if missed && k == filled - 1 {
                    mem_cycles
                } else {
                    l2_cycles
                };
            }
            (j, lines) = (end, lines + filled);
            if filled < want || j == pass {
                break;
            }
            line = at(j).addr >> l1_shift;
        }
        let (hits, repeats) = (j - i - lines, lines - accesses);
        self.stats.accesses += lines + hits;
        self.stats.l1_hits += hits;
        self.stats.l2_hits += repeats + l2_hits;
        self.stats.mem_fills += accesses - l2_hits;
        self.l1_mut(first.is_instr).charge(region, lines, hits);
        self.l2.charge(region, 0, repeats);
        j
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

    /// Evict every line overlapping `[addr, addr + bytes)` from every
    /// level. Models cache-coherent migration of one entity's state at
    /// address granularity: when another processor takes ownership of a
    /// stream's session or a thread's stack, this processor's copies of
    /// exactly those lines are invalidated, while unrelated state in the
    /// same region class stays resident. Each cache clears the range as
    /// one run of sets (`Cache::invalidate_run`).
    pub fn purge_range(&mut self, addr: u64, bytes: u64) {
        if bytes == 0 {
            return;
        }
        let end = addr + bytes - 1;
        let lines = |bytes: u64| (addr / bytes, end / bytes - addr / bytes + 1);
        let (l1_line, l1_lines) = lines(self.platform.l1.line_bytes as u64);
        self.invalidate_l1(l1_line, l1_lines);
        let (l2_line, l2_lines) = lines(self.platform.l2.line_bytes as u64);
        self.l2.invalidate_run(l2_line, l2_lines);
    }

    /// Reset counters without touching contents.
    pub fn reset_stats(&mut self) {
        self.stats = HierarchyStats::default();
        self.l1d.reset_stats();
        self.l1i.reset_stats();
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
    /// * Only a stride that is a power of two no longer than an L1 line
    ///   (every engine sweep: 4 and 16 bytes) is priced by line. Such a
    ///   sweep touches every line of its span; any other stride, zero
    ///   included, is walked reference by reference.
    /// * In the first pass (`i < period`) addresses only rise, so the
    ///   references that share an L1 line are consecutive. A *run probe*
    ///   (`Cache::stateless_run`) finds how many lines from the current
    ///   one are already resident with this sweep's tag and dirty bit:
    ///   every reference into that run is a hit that moves only
    ///   counters, so none of them changes what the probe saw. The line
    ///   that ends a run gets a real access, which leaves it in that
    ///   same state for the rest of its references — or, when its L1 set
    ///   does not hold it, starts a streak that reloads it and the absent
    ///   lines after it in one pass (`MemoryHierarchy::reload_streak`).
    /// * Later passes re-walk lines the first pass left resident,
    ///   provided nothing the pass did could displace one of them: the
    ///   sweep's span covers at most `sets` consecutive lines at both
    ///   levels, so its lines fall in distinct sets of L1 and of L2, a
    ///   fill never evicts a sweep line, and an L2 eviction (hence a
    ///   back-invalidation) never covers one. When the span is larger
    ///   the later passes are walked reference by reference.
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
        let l1_shift = self.platform.l1.line_bytes.trailing_zeros();
        // The references priced by line: the first pass, or none.
        let pass = match stride.is_power_of_two() && stride <= 1 << l1_shift {
            true => n.min(period),
            false => 0,
        };
        let shift = stride.trailing_zeros();
        let last_line = at(n.min(period) - 1).addr >> l1_shift;
        // The first reference of the pass from the `i`-th on that lies at
        // or past line `next`.
        let end_of = |i: u64, next: u64| {
            let room = (next << l1_shift) - at(i).addr;
            i + ((room + stride - 1) >> shift).min(pass - i)
        };
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
            let (run, hits_from) = match probed {
                // A refused line its set does not hold starts a streak;
                // one that is resident is looked up for real, and is then
                // a run of one for the references after `mref`.
                0 => {
                    let end = self.reload_streak(first, i, pass, at, end_of);
                    if end > i {
                        i = end;
                        continue;
                    }
                    self.access(mref);
                    (1, i + 1)
                }
                run => (run, i),
            };
            let end = end_of(i, line + run);
            debug_assert!((hits_from..end).all(|j| self.is_stateless_l1_hit(at(j))));
            self.charge_l1_hits(first, end - hits_from);
            i = end;
        }
        if pass == n {
            return;
        }

        let last = at(period - 1).addr;
        if pass > 0
            && self
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
        assert!(!h.l1i.contains(0x44));
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
        assert_eq!(code(&mut h), 1, "cold: one refused probe, then one streak");
        assert_eq!(code(&mut h), 160, "warm: the run is walked once, and kept");
        let priced = h.stats;
        assert_eq!(code(&mut h), 0);
        assert_eq!(code(&mut h), 0);
        assert_eq!(h.stats.accesses, priced.accesses + 2 * 960);
        assert_eq!(h.stats.l1_hits, priced.l1_hits + 2 * 960);

        // Stream state (13 lines from set 0 of L1D) stays verified while a
        // DMA-cold packet buffer, one streak each time, is filled eight
        // blocks away from it...
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
        // The run's first two lines (and a look past them), the purged
        // line's refused probe and streak, the last thirteen lines.
        assert_eq!(walks(&mut h, far, 4, 64), 3 + 1 + 13);
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
        // Lines 0..8 and the look past them, then one streak for 8..16:
        // a memory fill of their L2 line, which the other seven then hit.
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
    fn a_streak_over_l2_resident_lines_books_what_the_reference_walk_books() {
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
        assert_eq!(walked(&h) - before.1, 1, "one refused probe, one streak");
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
    fn a_streak_fills_no_set_before_the_l2_access_that_back_invalidates_it() {
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

    #[test]
    fn reset_stats_keeps_contents() {
        let mut h = MemoryHierarchy::new(small_platform());
        h.access(MemRef::read(0x80, Region::Thread));
        h.reset_stats();
        assert_eq!(h.stats.accesses, 0);
        assert_eq!(h.access(MemRef::read(0x80, Region::Thread)), ServedBy::L1);
    }
}
