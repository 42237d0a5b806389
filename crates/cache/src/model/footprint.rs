//! The Singh–Stone–Thiebaut footprint function `u(R, L)`.
//!
//! `u(R, L)` is the expected number of **unique cache lines** of size `L`
//! bytes touched by a workload in `R` memory references. Singh, Stone and
//! Thiebaut (IEEE Trans. Computers, 41(7), 1992) show it is closely
//! modelled by
//!
//! ```text
//! u(R, L) = W · L^a · R^b · d^(log L · log R)          (base-10 logs)
//! ```
//!
//! where `W`, `a`, `b`, `d` capture working-set size, spatial locality,
//! temporal locality, and the spatial×temporal interaction of the
//! intervening processing.
//!
//! The paper parameterizes the non-protocol workload with the constants
//! the SST authors fitted to a 200-million-reference trace of a
//! multiprogrammed IBM/370 MVS system (user applications plus OS
//! activity):
//!
//! ```text
//! W = 2.19827   a = 0.033233   b = 0.827457   log d = −0.13025
//! ```
//!
//! These exact constants are exported as [`MVS_WORKLOAD`].

/// Parameters of the SST footprint model (base-10 logs in the cross term).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SstParams {
    /// Multiplicative working-set constant `W`.
    pub w: f64,
    /// Spatial-locality exponent `a` (on line size `L`).
    pub a: f64,
    /// Temporal-locality exponent `b` (on reference count `R`).
    pub b: f64,
    /// `log₁₀ d` for the interaction term `d^(log L · log R)`.
    pub log_d: f64,
}

/// The multiprogrammed IBM/370 MVS workload constants used by the paper
/// (Salehi/Kurose/Towsley §appendix, quoting Singh–Stone–Thiebaut).
pub const MVS_WORKLOAD: SstParams = SstParams {
    w: 2.19827,
    a: 0.033233,
    b: 0.827457,
    log_d: -0.13025,
};

impl SstParams {
    /// Expected unique `line_bytes`-sized lines touched in `refs` references.
    ///
    /// The raw power law is clamped to the hard bound `u ≤ refs` (one new
    /// line per reference at most); `refs = 0` yields 0.
    pub fn footprint(&self, refs: f64, line_bytes: f64) -> f64 {
        assert!(line_bytes >= 1.0, "line size must be >= 1 byte");
        assert!(refs >= 0.0, "negative reference count");
        if refs < 1.0 {
            // Fewer than one reference touches (fractionally) that many lines.
            return refs.max(0.0);
        }
        let log_l = line_bytes.log10();
        let log_r = refs.log10();
        let log_u = self.w.log10() + self.a * log_l + self.b * log_r + self.log_d * log_l * log_r;
        let u = 10f64.powf(log_u);
        u.min(refs)
    }

    /// Precompute the line-size-dependent constants of the power law for
    /// repeated evaluation at one `line_bytes` (the per-dispatch hot
    /// path evaluates `u(R, L)` for the two fixed cache line sizes on
    /// every packet). The returned [`LineFootprint`] is bit-identical to
    /// [`Self::footprint`] at the same line size — see
    /// [`LineFootprint::footprint`] for the operation-order argument.
    pub fn at_line(&self, line_bytes: f64) -> LineFootprint {
        assert!(line_bytes >= 1.0, "line size must be >= 1 byte");
        let log_l = line_bytes.log10();
        LineFootprint {
            // Exactly the first two terms of `log_u` as `footprint`
            // associates them: `(W.log10() + a·log_l)`.
            base: self.w.log10() + self.a * log_l,
            b: self.b,
            // The cross term's left-associated factor `(log_d·log_l)`.
            cross: self.log_d * log_l,
        }
    }

    /// The number of references needed to touch `lines` unique lines
    /// (inverse of [`Self::footprint`] in `R`), via bisection.
    ///
    /// Useful for answering "how long until the workload has walked over a
    /// whole cache?". Returns `f64::INFINITY` if unreachable within
    /// `1e18` references.
    pub fn refs_for_footprint(&self, lines: f64, line_bytes: f64) -> f64 {
        assert!(lines >= 0.0);
        if lines == 0.0 {
            return 0.0;
        }
        let mut lo = 1.0f64;
        let mut hi = 1e18f64;
        if self.footprint(hi, line_bytes) < lines {
            return f64::INFINITY;
        }
        for _ in 0..200 {
            let mid = (lo.ln() + hi.ln()).mul_add(0.5, 0.0).exp(); // geometric midpoint
            if self.footprint(mid, line_bytes) < lines {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        hi
    }
}

/// [`SstParams::footprint`] specialized to one line size, with the
/// line-size-dependent subexpressions folded into constants.
///
/// Bit-identity argument: the original evaluates
/// `log_u = ((W.log10() + a·log_l) + b·log_r) + (log_d·log_l)·log_r`
/// (Rust's left-associated `+`/`*`). `base` and `cross` are exactly the
/// two parenthesized groups that do not involve `log_r`; folding them
/// performs the identical IEEE-754 operations in the identical order,
/// so every intermediate — and the result — has the same bits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LineFootprint {
    /// `W.log10() + a·log_l`.
    base: f64,
    /// Temporal exponent `b` (unchanged).
    b: f64,
    /// `log_d · log_l`.
    cross: f64,
}

impl LineFootprint {
    /// Expected unique lines touched in `refs` references; bit-identical
    /// to [`SstParams::footprint`] at the precomputed line size.
    pub fn footprint(&self, refs: f64) -> f64 {
        assert!(refs >= 0.0, "negative reference count");
        if refs < 1.0 {
            return refs.max(0.0);
        }
        let log_r = refs.log10();
        let log_u = self.base + self.b * log_r + self.cross * log_r;
        let u = 10f64.powf(log_u);
        u.min(refs)
    }

    /// The power law's exponent `s` in `u ∝ refsˢ` — what `footprint`
    /// follows wherever neither clamp (`refs < 1`, `u ≤ refs`) binds.
    pub(crate) fn exponent(&self) -> f64 {
        self.b + self.cross
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn at_line_bitwise_matches_footprint() {
        for &l in &[4.0, 16.0, 64.0, 128.0, 4096.0] {
            let lf = MVS_WORKLOAD.at_line(l);
            for i in 0..4000 {
                // Awkward, non-round reference counts across 12 decades.
                let refs = 0.37_f64 * (1.013_f64).powi(i) + (i as f64) * 0.61;
                let a = MVS_WORKLOAD.footprint(refs, l);
                let b = lf.footprint(refs);
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "u({refs}, {l}) diverged: {a} vs {b}"
                );
            }
            assert_eq!(lf.footprint(0.0).to_bits(), 0.0f64.to_bits());
            assert_eq!(lf.footprint(0.5), MVS_WORKLOAD.footprint(0.5, l));
        }
    }

    #[test]
    fn mvs_constants_match_paper() {
        assert_eq!(MVS_WORKLOAD.w, 2.19827);
        assert_eq!(MVS_WORKLOAD.a, 0.033233);
        assert_eq!(MVS_WORKLOAD.b, 0.827457);
        assert_eq!(MVS_WORKLOAD.log_d, -0.13025);
    }

    #[test]
    fn footprint_zero_refs_is_zero() {
        assert_eq!(MVS_WORKLOAD.footprint(0.0, 16.0), 0.0);
    }

    #[test]
    fn footprint_monotone_in_refs() {
        let mut prev = 0.0;
        for &r in &[1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6, 1e7] {
            let u = MVS_WORKLOAD.footprint(r, 16.0);
            assert!(u > prev, "u({r}) = {u} not > {prev}");
            prev = u;
        }
    }

    #[test]
    fn footprint_bounded_by_refs() {
        for &r in &[1.0, 2.0, 5.0, 100.0, 1e6] {
            for &l in &[4.0, 16.0, 128.0] {
                let u = MVS_WORKLOAD.footprint(r, l);
                assert!(u <= r, "u({r},{l}) = {u} > R");
                assert!(u >= 0.0);
            }
        }
    }

    #[test]
    fn larger_lines_fewer_unique_lines() {
        // For any realistic R, larger lines exploit spatial locality: the
        // effective exponent of L is a + log_d·log10(R) < 0 once R ≳ 2.
        for &r in &[100.0, 1e4, 1e6] {
            let u16 = MVS_WORKLOAD.footprint(r, 16.0);
            let u128 = MVS_WORKLOAD.footprint(r, 128.0);
            assert!(u128 < u16, "u({r},128)={u128} not < u({r},16)={u16}");
        }
    }

    #[test]
    fn known_magnitudes() {
        // Spot values hand-computed from the formula (regression pins).
        // u(20000, 16): 10^(0.3420 + 0.0332·1.2041 + 0.8275·4.3010
        //                    − 0.13025·1.2041·4.3010) ≈ 1.85e3
        let u = MVS_WORKLOAD.footprint(20_000.0, 16.0);
        assert!((u - 1850.0).abs() / 1850.0 < 0.02, "u = {u}");
        // u(20000, 128) ≈ 6.2e2
        let u2 = MVS_WORKLOAD.footprint(20_000.0, 128.0);
        assert!((u2 - 618.0).abs() / 618.0 < 0.03, "u2 = {u2}");
    }

    #[test]
    fn inverse_roundtrip() {
        let lines = 1000.0;
        let r = MVS_WORKLOAD.refs_for_footprint(lines, 16.0);
        let u = MVS_WORKLOAD.footprint(r, 16.0);
        assert!((u - lines).abs() / lines < 1e-6, "u(R⁻¹) = {u}");
    }

    #[test]
    fn inverse_of_zero_is_zero() {
        assert_eq!(MVS_WORKLOAD.refs_for_footprint(0.0, 16.0), 0.0);
    }

    #[test]
    fn sublinear_growth() {
        // Doubling references should much less than double footprint at
        // large R (temporal locality b < 1 plus negative interaction).
        let u1 = MVS_WORKLOAD.footprint(1e6, 16.0);
        let u2 = MVS_WORKLOAD.footprint(2e6, 16.0);
        assert!(u2 / u1 < 1.8);
        assert!(u2 / u1 > 1.0);
    }
}
