//! Synthetic non-protocol reference streams with SST-like locality.
//!
//! The paper models the *non-protocol* workload purely analytically (the
//! SST footprint function with MVS-trace constants). To validate our
//! pipeline end to end we also need an executable stand-in — a reference
//! generator whose unique-line growth follows the same power-law shape —
//! so that:
//!
//! 1. the trace-driven cache simulator can *displace* a preloaded protocol
//!    footprint the way real intervening work would, and
//! 2. fitting SST constants to the generator's measured `u(R, L)` and
//!    pushing them through the analytic `F(x)` model reproduces the
//!    displacement the simulator measures directly (the cross-validation
//!    behind Figure 5).
//!
//! Generation scheme: at each step the generator either *re-references* a
//! previously touched word (temporal locality) or touches a *fresh* word.
//! The fresh-touch probability decays as `∂(W·R^b)/∂R = W·b·R^(b−1)`, so
//! unique words grow like `W·R^b`. Fresh words are allocated in sequential
//! runs of geometric length (spatial locality), which is what makes larger
//! cache lines capture more of the stream — the `L`-dependence of SST.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

use crate::model::fit::FootprintObs;
use crate::sim::trace::{MemRef, Region};

/// Locality parameters of the synthetic stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SynthParams {
    /// Working-set scale `W` of the target `u ≈ W·R^b` (in 4-byte words).
    pub w: f64,
    /// Temporal-locality exponent `b ∈ (0, 1)`.
    pub b: f64,
    /// Mean length of sequential fresh-allocation runs, in words
    /// (geometric). Longer runs = more spatial locality.
    pub seq_run_mean: f64,
    /// Probability that a fresh run starts at a far-away address (a new
    /// "object"/page) rather than adjacent to the previous run.
    pub jump_prob: f64,
}

impl SynthParams {
    /// Defaults chosen to resemble the MVS constants' growth rate.
    pub fn mvs_like() -> Self {
        SynthParams {
            w: 2.2,
            b: 0.83,
            seq_run_mean: 6.0,
            jump_prob: 0.3,
        }
    }
}

/// The generator.
#[derive(Debug, Clone)]
pub struct SynthWorkload {
    params: SynthParams,
    rng: StdRng,
    /// All previously touched word addresses (for re-reference draws).
    history: Vec<u64>,
    /// Total references issued.
    refs_issued: u64,
    /// Remaining words in the current sequential fresh run.
    run_remaining: u32,
    /// Next sequential fresh address.
    next_seq_addr: u64,
    /// Bump allocator for far jumps (4 KiB strides).
    next_page: u64,
}

/// Word size in bytes for generated references.
const WORD: u64 = 4;
/// Far-jump stride. Deliberately *not* a multiple of any cache-set
/// period: a 4 KiB-aligned stride would land every jump on the same few
/// set positions (and only the first few lines of each page get used
/// before the next jump), violating the uniform set-mapping assumption
/// the binomial displacement model makes — and that real allocators
/// approximately satisfy. 4096 + 272 is coprime with the 16 KiB L1 and
/// 1 MiB L2 periods.
const PAGE: u64 = 4096 + 272;

impl SynthWorkload {
    /// Create a generator. `base` is the start of its private address
    /// range (keep it disjoint from protocol footprints; e.g. `1 << 32`).
    pub fn new(seed: u64, base: u64, params: SynthParams) -> Self {
        assert!(params.b > 0.0 && params.b < 1.0, "b must be in (0,1)");
        assert!(params.w > 0.0);
        assert!(params.seq_run_mean >= 1.0);
        assert!((0.0..=1.0).contains(&params.jump_prob));
        SynthWorkload {
            params,
            rng: StdRng::seed_from_u64(seed),
            history: Vec::new(),
            refs_issued: 0,
            run_remaining: 0,
            next_seq_addr: base,
            next_page: base,
        }
    }

    fn fresh_word(&mut self) -> u64 {
        if self.run_remaining == 0 {
            // Start a new run.
            let len = {
                let p = 1.0 / self.params.seq_run_mean;
                let u: f64 = self.rng.gen::<f64>().max(f64::MIN_POSITIVE);
                ((u.ln() / (1.0 - p).ln()).ceil() as u32).max(1)
            };
            self.run_remaining = len;
            if self.rng.gen::<f64>() < self.params.jump_prob || self.history.is_empty() {
                self.next_page += PAGE;
                self.next_seq_addr = self.next_page;
            }
            // else: continue from wherever next_seq_addr points.
        }
        self.run_remaining -= 1;
        let addr = self.next_seq_addr;
        self.next_seq_addr += WORD;
        addr
    }

    /// Generate the next reference.
    pub fn next_ref(&mut self) -> MemRef {
        self.refs_issued += 1;
        let r = self.refs_issued as f64;
        // Target fresh-touch rate: d(W R^b)/dR = W b R^(b-1), clamped.
        let p_new = (self.params.w * self.params.b * r.powf(self.params.b - 1.0)).min(1.0);
        let addr = if self.history.is_empty() || self.rng.gen::<f64>() < p_new {
            let a = self.fresh_word();
            self.history.push(a);
            a
        } else {
            let idx = self.rng.gen_range(0..self.history.len());
            self.history[idx]
        };
        MemRef::read(addr, Region::NonProtocol)
    }
}

/// Measure the unique-line growth `u(R, L)` of a synthetic stream:
/// issue references up to the largest checkpoint, recording the unique
/// line count at each `(checkpoint, line_size)` pair.
pub fn measure_growth(
    seed: u64,
    params: SynthParams,
    checkpoints: &[u64],
    line_sizes: &[u64],
) -> Vec<FootprintObs> {
    assert!(!checkpoints.is_empty() && !line_sizes.is_empty());
    for l in line_sizes {
        assert!(l.is_power_of_two(), "line sizes must be powers of two");
    }
    let mut sorted = checkpoints.to_vec();
    sorted.sort_unstable();
    let mut gen = SynthWorkload::new(seed, 1 << 32, params);
    let mut seen: Vec<HashSet<u64>> = line_sizes.iter().map(|_| HashSet::new()).collect();
    let mut out = Vec::new();
    let mut issued = 0u64;
    for &cp in &sorted {
        while issued < cp {
            let r = gen.next_ref();
            for (i, &l) in line_sizes.iter().enumerate() {
                seen[i].insert(r.addr / l);
            }
            issued += 1;
        }
        for (i, &l) in line_sizes.iter().enumerate() {
            out.push(FootprintObs {
                refs: cp as f64,
                line_bytes: l as f64,
                unique_lines: seen[i].len() as f64,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::fit::fit_sst;

    #[test]
    fn deterministic_given_seed() {
        let mut a = SynthWorkload::new(1, 0, SynthParams::mvs_like());
        let mut b = SynthWorkload::new(1, 0, SynthParams::mvs_like());
        for _ in 0..1000 {
            assert_eq!(a.next_ref(), b.next_ref());
        }
        let mut c = SynthWorkload::new(2, 0, SynthParams::mvs_like());
        let same = (0..1000).all(|_| a.next_ref().addr == c.next_ref().addr);
        assert!(!same, "different seeds should differ");
    }

    #[test]
    fn all_refs_are_nonprotocol_reads_in_range() {
        let base = 1 << 32;
        let mut g = SynthWorkload::new(3, base, SynthParams::mvs_like());
        for _ in 0..5000 {
            let r = g.next_ref();
            assert_eq!(r.region, Region::NonProtocol);
            assert!(!r.is_write && !r.is_instr);
            assert!(r.addr >= base);
        }
    }

    #[test]
    fn larger_lines_capture_more() {
        let obs = measure_growth(7, SynthParams::mvs_like(), &[50_000], &[16, 128]);
        let u16 = obs
            .iter()
            .find(|o| o.line_bytes == 16.0)
            .unwrap()
            .unique_lines;
        let u128 = obs
            .iter()
            .find(|o| o.line_bytes == 128.0)
            .unwrap()
            .unique_lines;
        assert!(
            u128 < u16 * 0.6,
            "spatial locality too weak: u128 = {u128}, u16 = {u16}"
        );
    }

    #[test]
    fn sst_fit_recovers_growth_exponent() {
        let obs = measure_growth(
            11,
            SynthParams::mvs_like(),
            &[1_000, 4_000, 16_000, 64_000, 256_000],
            &[16, 32, 64, 128],
        );
        let p = fit_sst(&obs).expect("fit");
        assert!(
            (p.b - 0.83).abs() < 0.12,
            "fitted temporal exponent b = {} far from target 0.83",
            p.b
        );
        // The interaction term should be negative (spatial × temporal),
        // matching the sign of the MVS constants.
        assert!(p.log_d < 0.05, "log_d = {}", p.log_d);
    }

    #[test]
    fn measure_growth_monotone_in_refs() {
        let obs = measure_growth(13, SynthParams::mvs_like(), &[1_000, 10_000], &[16]);
        assert!(obs[1].unique_lines > obs[0].unique_lines);
        assert_eq!(obs[0].refs, 1_000.0);
        assert_eq!(obs[1].refs, 10_000.0);
    }

    #[test]
    #[should_panic(expected = "b must be in (0,1)")]
    fn invalid_params_rejected() {
        SynthWorkload::new(
            1,
            0,
            SynthParams {
                b: 1.5,
                ..SynthParams::mvs_like()
            },
        );
    }
}
