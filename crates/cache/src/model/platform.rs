//! Platform description: cache geometry and processor timing.
//!
//! The defaults model the paper's experimental platform — an SGI Challenge
//! XL with 100 MHz MIPS R4400 processors:
//!
//! * split 16 KB + 16 KB direct-mapped primary caches with 16-byte lines,
//! * a 1 MB direct-mapped unified secondary cache with 128-byte lines,
//! * an average memory-reference rate of one reference per `m = 5` clock
//!   cycles (the value the paper uses when computing `F(x)` "for the
//!   100-MHz clock rate of the MIPS R4400").

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Line (block) size in bytes.
    pub line_bytes: u32,
    /// Associativity (1 = direct-mapped).
    pub associativity: u32,
}

impl CacheGeometry {
    /// Construct, validating that the geometry is self-consistent.
    pub fn new(capacity_bytes: u64, line_bytes: u32, associativity: u32) -> Self {
        assert!(line_bytes.is_power_of_two(), "line size must be 2^k");
        assert!(associativity >= 1);
        assert!(
            capacity_bytes.is_multiple_of(line_bytes as u64 * associativity as u64),
            "capacity must be a whole number of sets"
        );
        let g = CacheGeometry {
            capacity_bytes,
            line_bytes,
            associativity,
        };
        assert!(g.sets() >= 1);
        g
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.capacity_bytes / (self.line_bytes as u64 * self.associativity as u64)
    }

    /// Number of lines.
    pub fn lines(&self) -> u64 {
        self.capacity_bytes / self.line_bytes as u64
    }
}

/// A two-level cache hierarchy on one processor, plus timing parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Platform {
    /// Processor clock in Hz.
    pub clock_hz: f64,
    /// Average clock cycles per memory reference issued by the workload
    /// (the paper's `m`).
    pub cycles_per_ref: f64,
    /// Primary data cache geometry.
    pub l1: CacheGeometry,
    /// True when L1 is split I/D and the intervening reference stream is
    /// divided approximately equally between the two halves (the paper's
    /// assumption, citing Hill & Smith): each half then sees `R/2`
    /// references.
    pub l1_split: bool,
    /// Secondary (unified) cache geometry.
    pub l2: CacheGeometry,
    /// L1 hit time in cycles (pipelined loads; effectively 1).
    pub l1_hit_cycles: f64,
    /// Additional cycles for an L1 miss that hits in L2.
    pub l2_hit_penalty_cycles: f64,
    /// Additional cycles for an L2 miss served from memory.
    pub mem_penalty_cycles: f64,
    /// Cycles to fetch a line from a remote processor's cache
    /// (cache-to-cache intervention on the Challenge's POWERpath-2 bus) —
    /// used for migrated stream/thread state.
    pub remote_penalty_cycles: f64,
}

impl Platform {
    /// The paper's platform: 100 MHz R4400 on an SGI Challenge XL.
    pub fn sgi_challenge_r4400() -> Self {
        Platform {
            clock_hz: 100e6,
            cycles_per_ref: 5.0,
            l1: CacheGeometry::new(16 * 1024, 16, 1),
            l1_split: true,
            l2: CacheGeometry::new(1024 * 1024, 128, 1),
            l1_hit_cycles: 1.0,
            l2_hit_penalty_cycles: 12.0,
            mem_penalty_cycles: 100.0,
            remote_penalty_cycles: 130.0,
        }
    }

    /// Memory references issued by the non-protocol workload in
    /// `elapsed_secs` seconds of wall-clock execution.
    pub fn refs_in(&self, elapsed_secs: f64) -> f64 {
        assert!(elapsed_secs >= 0.0);
        elapsed_secs * self.clock_hz / self.cycles_per_ref
    }

    /// Convert a cycle count to microseconds.
    pub fn cycles_to_us(&self, cycles: f64) -> f64 {
        cycles / self.clock_hz * 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn r4400_geometry() {
        let p = Platform::sgi_challenge_r4400();
        assert_eq!(p.l1.sets(), 1024); // 16 KB / 16 B, direct-mapped
        assert_eq!(p.l2.sets(), 8192); // 1 MB / 128 B, direct-mapped
        assert_eq!(p.l1.lines(), 1024);
        assert_eq!(p.l2.lines(), 8192);
    }

    #[test]
    fn reference_rate_matches_paper() {
        // 100 MHz at one reference per 5 cycles → 20 references/µs.
        let p = Platform::sgi_challenge_r4400();
        let refs = p.refs_in(1e-6);
        assert!((refs - 20.0).abs() < 1e-9);
    }

    #[test]
    fn cycles_to_us() {
        let p = Platform::sgi_challenge_r4400();
        assert!((p.cycles_to_us(100.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "whole number of sets")]
    fn bad_geometry_rejected() {
        CacheGeometry::new(1000, 16, 1);
    }

    #[test]
    fn set_associative_geometry() {
        let g = CacheGeometry::new(32 * 1024, 32, 2);
        assert_eq!(g.sets(), 512);
        assert_eq!(g.lines(), 1024);
    }
}
