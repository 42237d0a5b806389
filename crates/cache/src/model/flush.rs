//! The binomial cache-displacement model.
//!
//! Following the paper's appendix (and Squillante–Lazowska / Thiebaut–Stone
//! before it): the `u` unique intervening lines are assumed to map
//! **independently and uniformly** into the `S` cache sets. The number `X`
//! of intervening lines landing in a randomly chosen set is then
//! `Binomial(n = u, p = 1/S)`.
//!
//! A resident footprint line in an `A`-way set-associative cache with LRU
//! replacement is displaced when its set receives at least `A` distinct
//! intervening lines (the footprint line is the locally least-recent entry
//! once protocol processing has been away — the conservative assumption the
//! paper makes). The expected fraction of the footprint displaced is
//! therefore
//!
//! ```text
//! F = P[X ≥ A] = 1 − Σ_{k<A} C(n,k) pᵏ (1−p)ⁿ⁻ᵏ
//! ```
//!
//! For the direct-mapped caches of the R4400/Challenge (`A = 1`) this
//! reduces to `F = 1 − (1 − 1/S)ⁿ`.

/// Expected fraction of resident footprint lines displaced when `n`
/// intervening unique lines map uniformly into `sets` sets of
/// associativity `assoc`.
///
/// `n` may be fractional (it comes from the continuous footprint model);
/// it is used directly in the exponential/log-space formulas.
pub fn flushed_fraction(n: f64, sets: u64, assoc: u32) -> f64 {
    assert!(sets >= 1, "cache must have at least one set");
    assert!(assoc >= 1, "associativity must be at least 1");
    assert!(n >= 0.0, "negative line count");
    if n == 0.0 {
        return 0.0;
    }
    let p = 1.0 / sets as f64;
    if assoc == 1 {
        return flushed_fraction_direct(n, f64::ln_1p(-p));
    }
    // P[X < A] = Σ_{k<A} C(n,k) p^k (1−p)^(n−k), generalized to real n via
    // the product form C(n,k) = Π_{j<k} (n−j)/(j+1). Terms are built
    // iteratively from term₀ = (1−p)^n.
    let ln_q = f64::ln_1p(-p);
    let mut term = (n * ln_q).exp(); // k = 0
    let mut below = term;
    let ratio_p = p / (1.0 - p);
    for k in 0..(assoc - 1) {
        let kf = k as f64;
        if n - kf <= 0.0 {
            // Fewer than k+1 intervening lines: no further mass.
            break;
        }
        term *= (n - kf) / (kf + 1.0) * ratio_p;
        below += term;
    }
    (1.0 - below).clamp(0.0, 1.0)
}

/// The direct-mapped (`A = 1`) closed form `1 − (1−p)^n`, computed
/// stably as `−expm1(n · ln(1−p))` with `ln_q = ln(1−p) = ln_1p(−1/S)`
/// supplied by the caller.
///
/// `ln_q` is a constant of the cache geometry, so per-dispatch callers
/// ([`DispatchPricer`]) fold it once per run instead of paying a `ln_1p`
/// per evaluation. Bit-identity with [`flushed_fraction`] holds because
/// the folded value is produced by exactly the same expression — only
/// *when* it is computed changes, never *what*.
///
/// [`DispatchPricer`]: super::pricer::DispatchPricer
#[inline]
pub fn flushed_fraction_direct(n: f64, ln_q: f64) -> f64 {
    if n == 0.0 {
        // Exactly the +0.0 the general entry point returns (the formula
        // would produce -0.0: different bits).
        return 0.0;
    }
    -f64::exp_m1(n * ln_q)
}

/// `ln(1 − 1/sets)`: the per-geometry constant [`flushed_fraction_direct`]
/// consumes, computed by the same expression `flushed_fraction` uses
/// inline.
pub fn ln_retention(sets: u64) -> f64 {
    assert!(sets >= 1, "cache must have at least one set");
    f64::ln_1p(-(1.0 / sets as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_lines_no_displacement() {
        assert_eq!(flushed_fraction(0.0, 1024, 1), 0.0);
        assert_eq!(flushed_fraction(0.0, 1024, 4), 0.0);
    }

    #[test]
    fn direct_mapped_closed_form() {
        let n = 500.0;
        let s = 1024u64;
        let f = flushed_fraction(n, s, 1);
        let expected = 1.0 - (1.0 - 1.0 / s as f64).powf(n);
        assert!((f - expected).abs() < 1e-12);
    }

    #[test]
    fn monotone_in_lines() {
        let mut prev = -1.0;
        for &n in &[0.0, 10.0, 100.0, 1_000.0, 10_000.0, 100_000.0] {
            let f = flushed_fraction(n, 1024, 1);
            assert!(f > prev || (n == 0.0 && f == 0.0));
            assert!((0.0..=1.0).contains(&f));
            prev = f;
        }
    }

    #[test]
    fn saturates_to_one() {
        let f = flushed_fraction(1e7, 1024, 1);
        assert!(f > 0.999999);
        let f4 = flushed_fraction(1e7, 256, 4);
        assert!(f4 > 0.999999);
    }

    #[test]
    fn higher_associativity_displaces_less() {
        // Same total capacity: sets × assoc constant.
        let n = 800.0;
        let f1 = flushed_fraction(n, 1024, 1);
        let f2 = flushed_fraction(n, 512, 2);
        let f4 = flushed_fraction(n, 256, 4);
        assert!(f2 < f1, "2-way {f2} !< direct {f1}");
        assert!(f4 < f2, "4-way {f4} !< 2-way {f2}");
    }

    #[test]
    fn assoc_two_matches_manual_sum() {
        // P[X ≥ 2] with integer n — compare against a direct binomial sum.
        let n = 100usize;
        let sets = 64u64;
        let p = 1.0 / sets as f64;
        let q = 1.0 - p;
        let p0 = q.powi(n as i32);
        let p1 = n as f64 * p * q.powi(n as i32 - 1);
        let expected = 1.0 - p0 - p1;
        let f = flushed_fraction(n as f64, sets, 2);
        assert!((f - expected).abs() < 1e-10, "{f} vs {expected}");
    }

    #[test]
    fn small_n_high_assoc_zero() {
        // 2 intervening lines can never evict from a 4-way set under the
        // ≥A rule.
        let f = flushed_fraction(2.0, 16, 4);
        assert_eq!(f, 0.0);
    }

    #[test]
    fn fractional_n_is_continuous() {
        let a = flushed_fraction(99.9, 1024, 1);
        let b = flushed_fraction(100.0, 1024, 1);
        let c = flushed_fraction(100.1, 1024, 1);
        assert!(a < b && b < c);
        assert!(c - a < 1e-3);
    }

    #[test]
    fn single_set_direct_mapped_flushes_everything() {
        // One set, one way: any intervening line displaces the footprint.
        let f = flushed_fraction(1.0, 1, 1);
        assert!((f - 1.0).abs() < 1e-12);
    }
}
