//! Two-level displacement curves `F1(x)`, `F2(x)`.
//!
//! Given that non-protocol processing has executed for time `x` on a
//! processor since protocol code last ran there, the model computes the
//! fractions of the protocol footprint displaced from L1 and L2:
//!
//! 1. the workload issued `R = x · clock / m` references in that time;
//! 2. on a split L1, each half sees `R/2` of the stream (the paper's
//!    equal-split assumption, supported by Hill & Smith's measurements);
//!    the unified L2 sees the full stream filtered through L1 — the model
//!    conservatively applies all `R` references' footprint to L2, which is
//!    exact for unique-line counting because every unique line visits L2
//!    once regardless of later L1 hits;
//! 3. the unique-line counts `u(R_level, L_level)` come from the SST
//!    footprint function ([`SstParams`]);
//! 4. the displaced fractions come from the binomial set-conflict model
//!    ([`flushed_fraction`]).
//!
//! As the paper observes, the footprint is flushed much more slowly from
//! L2 than from L1, reflecting L2's much larger size — L1 erodes on a
//! millisecond scale, L2 over hundreds of milliseconds (see tests).

use afs_desim::time::SimDuration;

use super::flush::flushed_fraction;
use super::footprint::SstParams;
use super::platform::Platform;

/// Displaced footprint fractions at each level after `x` of intervening
/// non-protocol execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Displacement {
    /// Fraction of the footprint no longer in L1.
    pub f1: f64,
    /// Fraction of the footprint no longer in L2.
    pub f2: f64,
}

impl Displacement {
    /// Nothing displaced (protocol just ran here).
    pub const NONE: Displacement = Displacement { f1: 0.0, f2: 0.0 };
    /// Everything displaced (fully cold processor).
    pub const FULL: Displacement = Displacement { f1: 1.0, f2: 1.0 };
}

/// The flush model: a platform plus the locality parameters of the
/// intervening (non-protocol) workload.
#[derive(Debug, Clone, Copy)]
pub struct FlushModel {
    /// Cache geometry and timing.
    pub platform: Platform,
    /// SST locality constants of the intervening workload.
    pub workload: SstParams,
}

impl FlushModel {
    /// Build a flush model.
    pub fn new(platform: Platform, workload: SstParams) -> Self {
        FlushModel { platform, workload }
    }

    /// `F1(x)` and `F2(x)` for intervening non-protocol time `x`.
    pub fn displacement(&self, x: SimDuration) -> Displacement {
        let refs = self.platform.refs_in(x.as_secs_f64());
        self.displacement_refs(refs)
    }

    /// Displacement after a given number of intervening references.
    pub fn displacement_refs(&self, refs: f64) -> Displacement {
        if refs <= 0.0 {
            return Displacement::NONE;
        }
        let p = &self.platform;
        let r1 = if p.l1_split { refs * 0.5 } else { refs };
        let u1 = self.workload.footprint(r1, p.l1.line_bytes as f64);
        let u2 = self.workload.footprint(refs, p.l2.line_bytes as f64);
        Displacement {
            f1: flushed_fraction(u1, p.l1.sets(), p.l1.associativity),
            f2: flushed_fraction(u2, p.l2.sets(), p.l2.associativity),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::footprint::MVS_WORKLOAD;

    fn model() -> FlushModel {
        FlushModel::new(Platform::sgi_challenge_r4400(), MVS_WORKLOAD)
    }

    #[test]
    fn zero_time_no_displacement() {
        let d = model().displacement(SimDuration::ZERO);
        assert_eq!(d, Displacement::NONE);
    }

    #[test]
    fn displacement_monotone_in_time() {
        let m = model();
        let times = [10u64, 100, 1_000, 10_000, 100_000, 1_000_000];
        let mut prev = Displacement::NONE;
        for &us in &times {
            let d = m.displacement(SimDuration::from_micros(us));
            assert!(d.f1 >= prev.f1, "F1 not monotone at {us}us");
            assert!(d.f2 >= prev.f2, "F2 not monotone at {us}us");
            assert!((0.0..=1.0).contains(&d.f1));
            assert!((0.0..=1.0).contains(&d.f2));
            prev = d;
        }
    }

    #[test]
    fn f1_dominates_f2_everywhere() {
        // The smaller L1 always loses at least as much as L2.
        let m = model();
        for exp in 0..8 {
            let us = 10u64.pow(exp);
            let d = m.displacement(SimDuration::from_micros(us));
            assert!(d.f1 >= d.f2, "F1 {} < F2 {} at {us}us", d.f1, d.f2);
        }
    }

    #[test]
    fn split_l1_halves_the_stream() {
        let mut unsplit = model();
        unsplit.platform.l1_split = false;
        let split = model();
        let x = SimDuration::from_micros(500);
        let du = unsplit.displacement(x);
        let ds = split.displacement(x);
        assert!(ds.f1 < du.f1, "split L1 should see fewer references");
        assert_eq!(ds.f2, du.f2, "L2 unaffected by the L1 split");
    }

    #[test]
    fn saturates_fully_cold() {
        let d = model().displacement(SimDuration::from_secs(100));
        assert!(d.f1 > 0.999999);
        assert!(d.f2 > 0.99);
    }

    #[test]
    fn spot_values_regression() {
        // Pin the curve shape: values computed from the published
        // constants; these serve as regression anchors for Figure 5.
        let m = model();
        let d1ms = m.displacement(SimDuration::from_micros(1_000));
        assert!((d1ms.f1 - 0.67).abs() < 0.05, "F1(1ms) = {}", d1ms.f1);
        assert!(d1ms.f2 < 0.12, "F2(1ms) = {}", d1ms.f2);
        let d100ms = m.displacement(SimDuration::from_micros(100_000));
        assert!(d100ms.f1 > 0.999, "F1(100ms) = {}", d100ms.f1);
        assert!(
            (0.35..0.85).contains(&d100ms.f2),
            "F2(100ms) = {}",
            d100ms.f2
        );
    }
}
