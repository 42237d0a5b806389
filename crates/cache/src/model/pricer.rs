//! Per-dispatch pricing of the reload-transient model: tick-exact, from
//! a table.
//!
//! [`ExecTimeModel::protocol_time`] sits on the simulator's hot path —
//! it runs once per packet dispatch, and once per live worker per routed
//! packet under min-reload routing — and each `Elapsed` component in it
//! costs a Singh–Stone–Thiebaut footprint (`log10`, `powf`) and a
//! binomial flush (`exp_m1`) per cache level. [`DispatchPricer`] folds
//! the configuration constants once per run and reads `F1/F2` from a
//! per-configuration table of cubics over the age in ticks.
//!
//! The contract is **tick identity**. A service time leaves this module
//! only as a [`SimDuration`], i.e. rounded to a whole nanosecond tick,
//! so a value known to within `δ` of the model's rounds to the model's
//! tick unless it lies within `δ` of a `k + ½` boundary — and there
//! (and for every age the table does not cover) [`DispatchPricer::price`]
//! evaluates the model's own expression, which stays the definition:
//! [`DispatchPricer::displacement`] and the exact sum are bit-identical
//! to [`ExecTimeModel`], each folded constant computed by the same
//! IEEE-754 operations in the same order as the original. Debug builds
//! assert table ticks == exact ticks on every call.
//!
//! # The table and `δ`
//!
//! One 64-byte entry per interval, 32 (`SUBS`) intervals per binade of the
//! age in ticks from 2¹⁰ (≈1 µs) to 2⁴⁰ (≈1100 s): the index is the
//! exponent and top mantissa bits of `ticks as f64`, the abscissa
//! `τ ∈ [0, 1)` the remaining mantissa bits — no `log`, no division, no
//! `refs_in`. The entry holds the cubic Hermite coefficients of `F1`
//! and `F2`: node values are the exact libm values, node slopes the
//! closed form `dF/dt = g·(1−F)·s/t` with `g = −ln q · u` and `s` the
//! footprint's power-law exponent.
//!
//! Where the power law holds, `F = 1 − e^(−g)` with `g ∝ tˢ`, and with
//! `D = t·d/dt` (so `Dg = s·g`)
//!
//! ```text
//! t⁴·F⁗ = D(D−1)(D−2)(D−3) F = e^(−g)·(c₁g + c₂g² + c₃g³ + c₄g⁴)
//! c₁ = s(s−1)(s−2)(s−3)   c₂ = −7s⁴+18s³−11s²   c₃ = 6s⁴−6s³   c₄ = −s⁴
//! ```
//!
//! so on an interval `[t₀, t₀+h]` the Hermite remainder is at most
//! `ε = (h/t₀)⁴/384 · e^(−g(t₀)) · Σ|cₖ|·g(t₀+h)ᵏ` (`g` increases with
//! `t` for `0 < s < 1`). Component weights sum to 1, so a priced sum is
//! off by at most `maxᵢ (ε₁·span1 + ε₂·span2)`: 4.0 × 10⁻⁴ ns on the
//! calibrated R4400 model (measured: 3.6 × 10⁻⁴ ns). The floating-point
//! slack — libm's few ulp at the nodes, the reordered cubic and sum —
//! is a few ulp of the sum (≈10⁻⁹ ns there) and budgeted at
//! `FP_SLACK` of the largest sum the configuration can price
//! (3 × 10⁻⁷ ns). An interval enters the table only if
//! `SAFETY · bound + slack ≤ DELTA_NS`;
//! one that cannot show it (a level that is not direct-mapped, an
//! exponent outside `(0, 1)`, a node at or below the footprint's
//! `min(u, refs)` clamp, anything non-finite) stays empty, and a
//! component whose age falls there — or outside the table — is priced
//! exactly, never extrapolated. `δ = 0.002 ns` sends 0.4 % of the sums
//! that read a cubic to the exact path.

use std::cell::OnceCell;

use afs_desim::time::{SimDuration, TICKS_PER_US};

use super::exec_time::{Age, ComponentAges, ExecTimeModel};
use super::flush::{flushed_fraction, flushed_fraction_direct, ln_retention};
use super::footprint::LineFootprint;
use super::hierarchy::Displacement;
use super::platform::Platform;

/// `log2` of [`SUBS`]: the mantissa bits that index within a binade.
const SUB_BITS: u32 = 5;
/// Table intervals per binade of the age in ticks.
const SUBS: u64 = 1 << SUB_BITS;
/// First binade the table covers: ages from `2^E_LO` ticks.
const E_LO: u32 = 10;
/// Binades covered: the last node is `2^(E_LO + BINADES)` ticks.
const BINADES: u32 = 30;
/// Mantissa bits of an `f64` below the table index: `τ`, scaled.
const TAU_BITS: u32 = f64::MANTISSA_DIGITS - 1 - SUB_BITS;
/// `ticks as f64` bits `>> TAU_BITS` at the first node (biased
/// exponent, then [`SUB_BITS`] of mantissa).
const FIRST: u64 = (f64::MAX_EXP as u64 - 1 + E_LO as u64) << SUB_BITS;
/// `δ`: a table-priced time closer than this to a `k + ½` ns boundary
/// is re-priced exactly (module docs).
const DELTA_NS: f64 = 0.002;
/// Factor on an interval's analytic error bound before it may use `δ`.
const SAFETY: f64 = 2.0;
/// Floating-point budget inside `δ`, relative to the largest priced
/// sum: ≈4 500 ulp where a handful are at stake.
const FP_SLACK: f64 = 1e-12;

/// One table interval: cubic coefficients in `τ` of `F1` and of `F2`,
/// constant term first. One cache line.
#[derive(Debug, Clone, Copy)]
#[repr(align(64))]
struct Entry([[f64; 4]; 2]);

/// An interval whose error bound was not established, marked by a NaN
/// constant term.
const EMPTY: Entry = Entry([[f64::NAN; 4]; 2]);

/// A table node: the exact model at `t` ticks, per cache level.
struct Node {
    t: f64,
    /// `F`, exactly as [`DispatchPricer::displacement`] computes it.
    f: [f64; 2],
    /// `g = −ln q · u`.
    g: [f64; 2],
    /// `dF/dt`.
    slope: [f64; 2],
    /// Past both footprint clamps on both levels.
    smooth: bool,
}

/// The age, in ticks, at table node `n` (interval `n` starts there).
fn node_ticks(n: u64) -> u64 {
    (SUBS + n % SUBS) << (E_LO - SUB_BITS + (n / SUBS) as u32)
}

/// The three independently aging footprint components, as indices into
/// the pricer's precomputed cost tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Component {
    /// Protocol text + shared globals.
    CodeGlobal = 0,
    /// Thread stack and control block.
    Thread = 1,
    /// Per-connection stream state.
    Stream = 2,
}

/// [`ExecTimeModel`] with every configuration-constant subexpression
/// precomputed. Build once per run ([`DispatchPricer::new`]), then call
/// [`DispatchPricer::price`] per dispatch.
#[derive(Debug)]
pub struct DispatchPricer {
    /// Cache geometry/timing, for `refs_in` (kept whole so the
    /// seconds→references conversion uses the original expression).
    platform: Platform,
    /// SST power law folded to the L1 line size.
    l1_foot: LineFootprint,
    /// SST power law folded to the L2 line size.
    l2_foot: LineFootprint,
    l1_sets: u64,
    l1_assoc: u32,
    l2_sets: u64,
    l2_assoc: u32,
    /// `ln(1 − 1/sets)` per level, folded for the direct-mapped
    /// closed form (unused when the level is set-associative).
    l1_ln_q: f64,
    l2_ln_q: f64,
    l1_split: bool,
    t_warm_us: f64,
    /// `t_L2 − t_warm`, exactly as `component_cost_us` computes it.
    span1: f64,
    /// `t_cold − t_L2`.
    span2: f64,
    /// Component weights in [`Component`] order.
    weights: [f64; 3],
    /// Full cold cost per component: the bits of
    /// `w·((1·span1 + 1·span2) + 0·(span1+span2))`.
    cold_us: [f64; 3],
    /// Full remote-fetch cost per component: the bits of
    /// `w·((1·span1 + 1·span2) + premium·(span1+span2))`.
    remote_us: [f64; 3],
    /// The `F1/F2` table (module docs), built when the first `Elapsed`
    /// age is priced: a pricer that never sees one never pays for it.
    table: OnceCell<Box<[Entry]>>,
}

impl DispatchPricer {
    /// Fold `model`'s configuration constants. Pure precomputation: the
    /// pricer answers every query with the same ticks as `model`.
    pub fn new(model: &ExecTimeModel) -> Self {
        let b = &model.bounds;
        // Exactly the spans `component_cost_us` recomputes per call.
        let span1 = b.t_l2_us - b.t_warm_us;
        let span2 = b.t_cold_us - b.t_l2_us;
        let weights = [
            model.weights.code_global,
            model.weights.thread,
            model.weights.stream,
        ];
        // For Cold, `component_cost_us` evaluates, in order:
        //   reload = 1.0·span1 + 1.0·span2
        //   weight · (reload + 0.0·(span1 + span2))
        // and for Remote the same with `premium` in place of `0.0`.
        // Reproduce those exact operations here, once.
        let priced = |weight: f64, premium: f64| {
            let reload = 1.0 * span1 + 1.0 * span2;
            weight * (reload + premium * (span1 + span2))
        };
        let p = &model.flush.platform;
        DispatchPricer {
            platform: *p,
            l1_foot: model.flush.workload.at_line(p.l1.line_bytes as f64),
            l2_foot: model.flush.workload.at_line(p.l2.line_bytes as f64),
            l1_sets: p.l1.sets(),
            l1_assoc: p.l1.associativity,
            l2_sets: p.l2.sets(),
            l2_assoc: p.l2.associativity,
            l1_ln_q: ln_retention(p.l1.sets()),
            l2_ln_q: ln_retention(p.l2.sets()),
            l1_split: p.l1_split,
            t_warm_us: b.t_warm_us,
            span1,
            span2,
            weights,
            cold_us: weights.map(|w| priced(w, 0.0)),
            remote_us: weights.map(|w| priced(w, model.remote_premium)),
            table: OnceCell::new(),
        }
    }

    /// `(references, unique lines)` L1 and L2 see in `x` of non-protocol
    /// execution: the same `refs_in` expression as the model, through
    /// [`LineFootprint`]s bit-identical to the un-folded power law.
    fn intervening(&self, x: SimDuration) -> [(f64, f64); 2] {
        let refs = self.platform.refs_in(x.as_secs_f64());
        let r1 = if self.l1_split { refs * 0.5 } else { refs };
        [
            (r1, self.l1_foot.footprint(r1)),
            (refs, self.l2_foot.footprint(refs)),
        ]
    }

    /// `F1(x)/F2(x)`; bit-identical to [`FlushModel::displacement`]
    /// (same references and footprints, same [`flushed_fraction`]).
    ///
    /// [`FlushModel::displacement`]: super::hierarchy::FlushModel::displacement
    pub fn displacement(&self, x: SimDuration) -> Displacement {
        let [(_, u1), (refs, u2)] = self.intervening(x);
        if refs <= 0.0 {
            return Displacement::NONE;
        }
        // Direct-mapped levels (every platform in this workspace) take
        // the closed form with the folded `ln_q` — the same bits as
        // `flushed_fraction` minus its per-call `ln_1p`.
        let f1 = if self.l1_assoc == 1 {
            flushed_fraction_direct(u1, self.l1_ln_q)
        } else {
            flushed_fraction(u1, self.l1_sets, self.l1_assoc)
        };
        let f2 = if self.l2_assoc == 1 {
            flushed_fraction_direct(u2, self.l2_ln_q)
        } else {
            flushed_fraction(u2, self.l2_sets, self.l2_assoc)
        };
        Displacement { f1, f2 }
    }

    /// The exact model at table node `n`, one footprint evaluation per
    /// level: `u` gives `F` and, through `g`, the analytic slope.
    fn node(&self, n: u64) -> Node {
        let ticks = node_ticks(n);
        let lines = self.intervening(SimDuration::from_ticks(ticks));
        let t = ticks as f64;
        let mut node = Node {
            t,
            f: [0.0; 2],
            g: [0.0; 2],
            slope: [0.0; 2],
            smooth: true,
        };
        let levels = [
            (self.l1_ln_q, self.l1_foot.exponent()),
            (self.l2_ln_q, self.l2_foot.exponent()),
        ];
        for (l, (ln_q, s)) in levels.into_iter().enumerate() {
            let (refs, u) = lines[l];
            let f = flushed_fraction_direct(u, ln_q);
            let g = -ln_q * u;
            node.f[l] = f;
            node.g[l] = g;
            node.slope[l] = g * (1.0 - f) * s / t;
            node.smooth &= refs >= 1.0 && u < refs;
        }
        node
    }

    /// Build the table: one exact evaluation per node, an interval kept
    /// only when its error bound fits inside `δ` (module docs). Empty —
    /// every age priced exactly — unless both levels are direct-mapped
    /// power laws with exponents in `(0, 1)`.
    fn build_table(&self) -> Box<[Entry]> {
        let exps = [self.l1_foot.exponent(), self.l2_foot.exponent()];
        if self.l1_assoc != 1 || self.l2_assoc != 1 || !exps.iter().all(|&s| 0.0 < s && s < 1.0) {
            return Box::default();
        }
        // |cₖ| of `t⁴·F⁗ = e^(−g)·Σ cₖ·gᵏ`, per level.
        let quartic = exps.map(|s| {
            let (s2, s3) = (s * s, s * s * s);
            [
                (s * (s - 1.0) * (s - 2.0) * (s - 3.0)).abs(),
                (-7.0 * s2 * s2 + 18.0 * s3 - 11.0 * s2).abs(),
                (6.0 * s2 * s2 - 6.0 * s3).abs(),
                s2 * s2,
            ]
        });
        let spans = [self.span1, self.span2];
        let ceiling_us = (0..3).fold(self.t_warm_us, |us, c| {
            us + self.cold_us[c].max(self.remote_us[c])
        });
        let slack_ns = ceiling_us * TICKS_PER_US as f64 * FP_SLACK;
        let mut lo = self.node(0);
        (1..=u64::from(BINADES) * SUBS)
            .map(|n| {
                let hi = self.node(n);
                let h = hi.t - lo.t;
                let mut entry = Entry([[0.0; 4]; 2]);
                let mut bound_us = 0.0;
                for l in 0..2 {
                    let (p0, p1) = (lo.f[l], hi.f[l]);
                    let (m0, m1) = (lo.slope[l] * h, hi.slope[l] * h);
                    entry.0[l] = [
                        p0,
                        m0,
                        3.0 * (p1 - p0) - 2.0 * m0 - m1,
                        2.0 * (p0 - p1) + m0 + m1,
                    ];
                    let [c1, c2, c3, c4] = quartic[l];
                    let g = hi.g[l];
                    let sup = (1.0 - lo.f[l]) * g * (c1 + g * (c2 + g * (c3 + g * c4)));
                    bound_us += (h / lo.t).powi(4) / 384.0 * sup * spans[l];
                }
                let proven = lo.smooth
                    && entry.0.iter().flatten().all(|c| c.is_finite())
                    && SAFETY * bound_us * TICKS_PER_US as f64 + slack_ns <= DELTA_NS;
                lo = hi;
                if proven {
                    entry
                } else {
                    EMPTY
                }
            })
            .collect()
    }

    /// `F1(x)/F2(x)` from the table — the interval's cubics at `τ` — or
    /// `None` where the table says nothing: an empty interval, or an age
    /// it does not span (zero, below 2¹⁰ ticks, past the last node).
    fn tabulated(&self, x: SimDuration) -> Option<Displacement> {
        let table = self.table.get_or_init(|| self.build_table());
        let bits = (x.ticks() as f64).to_bits();
        let Entry([c1, c2]) = table.get((bits >> TAU_BITS).wrapping_sub(FIRST) as usize)?;
        let tau = (bits & ((1 << TAU_BITS) - 1)) as f64 / (1u64 << TAU_BITS) as f64;
        let cubic = |c: &[f64; 4]| ((c[3] * tau + c[2]) * tau + c[1]) * tau + c[0];
        (!c1[0].is_nan()).then(|| Displacement {
            f1: cubic(c1),
            f2: cubic(c2),
        })
    }

    /// Cost of one component at a displacement already evaluated.
    /// Matches the original
    /// `weight · ((d.f1·span1 + d.f2·span2) + 0.0·(span1+span2))`:
    /// adding literal `+0.0` to the non-negative finite reload leaves
    /// its bits unchanged, so the trailing term is dropped.
    fn elapsed_cost_us(&self, d: Displacement, c: Component) -> f64 {
        self.weights[c as usize] * (d.f1 * self.span1 + d.f2 * self.span2)
    }

    /// The model's sum, in its order — `t_warm + code + thread + stream`
    /// — with `Elapsed` components displaced by `disp`, and the
    /// code/global displacement when that age is `Elapsed`. With
    /// `disp` = [`DispatchPricer::displacement`] every term carries the
    /// model's bits. (`Warm` is exactly `0.0` there: every product has a
    /// `0.0` factor and non-negative cofactors.)
    fn sum_us(
        &self,
        ages: ComponentAges,
        mut disp: impl FnMut(SimDuration) -> Displacement,
    ) -> (f64, Option<Displacement>) {
        let mut cost = |age: Age, c: Component| match age {
            Age::Warm => (0.0, None),
            Age::Elapsed(x) => {
                let d = disp(x);
                (self.elapsed_cost_us(d, c), Some(d))
            }
            Age::Cold => (self.cold_us[c as usize], None),
            Age::Remote => (self.remote_us[c as usize], None),
        };
        let (code, code_disp) = cost(ages.code_global, Component::CodeGlobal);
        let thread = cost(ages.thread, Component::Thread).0;
        let stream = cost(ages.stream, Component::Stream).0;
        (self.t_warm_us + code + thread + stream, code_disp)
    }

    /// `t_warm`, for callers assembling the sum themselves.
    pub fn t_warm_us(&self) -> f64 {
        self.t_warm_us
    }

    /// The dispatch priced from table displacements (the exact one for a
    /// component the table says nothing about), when that decides the
    /// tick: `None` when a cubic was read and the sum lies within `δ` of
    /// a `k + ½` ns boundary. A sum that read no cubic is the model's,
    /// bit for bit.
    fn table_price(&self, ages: ComponentAges) -> Option<(SimDuration, Option<Displacement>)> {
        let mut read_cubic = false;
        let (us, code_disp) = self.sum_us(ages, |x| {
            let d = self.tabulated(x);
            read_cubic |= d.is_some();
            d.unwrap_or_else(|| self.displacement(x))
        });
        let ns = us * TICKS_PER_US as f64;
        let ticks = ns.round();
        (!read_cubic || (ns - ticks).abs() < 0.5 - DELTA_NS)
            .then(|| (SimDuration::from_ticks(ticks as u64), code_disp))
    }

    /// Price one dispatch: the protocol time — tick-identical to
    /// [`ExecTimeModel::protocol_time`] — and the code/global
    /// displacement (`Some` exactly when that age is `Elapsed`; within
    /// 10⁻⁸ of the model's when it came from the table) for the dispatch
    /// telemetry. The table decides wherever it can
    /// (`table_price`); the model's own expression
    /// decides the rest, and checks the table in debug builds.
    pub fn price(&self, ages: ComponentAges) -> (SimDuration, Option<Displacement>) {
        let exact = || {
            let (us, code_disp) = self.sum_us(ages, |x| self.displacement(x));
            (SimDuration::from_micros_f64(us), code_disp)
        };
        match self.table_price(ages) {
            Some(fast) => {
                debug_assert_eq!(fast.0, exact().0, "table tick is not the model's: {ages:?}");
                fast
            }
            None => exact(),
        }
    }

    /// Protocol time for the given ages; tick-identical to
    /// [`ExecTimeModel::protocol_time`].
    pub fn protocol_time(&self, ages: ComponentAges) -> SimDuration {
        self.price(ages).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::exec_time::{ComponentWeights, TimeBounds};
    use crate::model::footprint::MVS_WORKLOAD;
    use crate::model::hierarchy::FlushModel;

    fn model() -> ExecTimeModel {
        ExecTimeModel::new(
            TimeBounds::new(150.0, 185.0, 284.3),
            FlushModel::new(Platform::sgi_challenge_r4400(), MVS_WORKLOAD),
            ComponentWeights::nominal(),
        )
    }

    /// A dense, awkward (non-round) grid of elapsed times spanning
    /// sub-microsecond to hundreds of seconds.
    fn elapsed_grid() -> Vec<SimDuration> {
        (0..600)
            .map(|i| SimDuration::from_micros_f64(0.73 * (1.047_f64).powi(i) + i as f64 * 0.31))
            .collect()
    }

    #[test]
    fn displacement_bitwise_matches_flush_model() {
        let m = model();
        let p = DispatchPricer::new(&m);
        for x in elapsed_grid() {
            let a = m.flush.displacement(x);
            let b = p.displacement(x);
            assert_eq!(a.f1.to_bits(), b.f1.to_bits(), "F1({x}) diverged");
            assert_eq!(a.f2.to_bits(), b.f2.to_bits(), "F2({x}) diverged");
        }
        assert_eq!(p.displacement(SimDuration::ZERO), Displacement::NONE);
    }

    #[test]
    fn protocol_time_bitwise_matches_model() {
        let m = model();
        let p = DispatchPricer::new(&m);
        let mut ages_pool = vec![Age::Warm, Age::Cold, Age::Remote];
        for x in elapsed_grid().into_iter().step_by(37) {
            ages_pool.push(Age::Elapsed(x));
        }
        for (i, &code) in ages_pool.iter().enumerate() {
            for (j, &thread) in ages_pool.iter().enumerate() {
                // Sample the stream axis to keep the cube affordable.
                let stream = ages_pool[(i * 7 + j * 3) % ages_pool.len()];
                let ages = ComponentAges {
                    code_global: code,
                    thread,
                    stream,
                };
                let a = m.protocol_time(ages);
                let b = p.protocol_time(ages);
                assert_eq!(
                    a.as_micros_f64().to_bits(),
                    b.as_micros_f64().to_bits(),
                    "protocol_time diverged for {ages:?}: {a} vs {b}"
                );
            }
        }
    }

    /// splitmix64: the battery's seeded stream.
    fn rng(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed;
        move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    /// `Warm`/`Cold`/`Remote` one draw in eight each, else `Elapsed`
    /// log-uniform over 1 ns – 2 000 s.
    fn random_age(next: &mut impl FnMut() -> u64) -> Age {
        match next() % 8 {
            0 => Age::Warm,
            1 => Age::Cold,
            2 => Age::Remote,
            _ => {
                let unit = (next() >> 11) as f64 / (1u64 << 53) as f64;
                Age::Elapsed(SimDuration::from_ticks((2e12f64.ln() * unit).exp() as u64))
            }
        }
    }

    fn assert_tick_exact(m: &ExecTimeModel, p: &DispatchPricer, ages: ComponentAges) {
        assert_eq!(
            p.price(ages).0,
            m.protocol_time(ages),
            "tick diverged for {ages:?}"
        );
    }

    /// (a) The entry point against the model over seeded triples that
    /// mix all four age kinds, with equal and unequal ages.
    #[test]
    fn price_is_tick_exact_over_seeded_triples() {
        let m = model();
        let p = DispatchPricer::new(&m);
        let mut next = rng(0x5eed_2300);
        for i in 0..1_200_000u32 {
            let code_global = random_age(&mut next);
            let thread = if i % 4 == 0 {
                code_global
            } else {
                random_age(&mut next)
            };
            let stream = if i % 2 == 0 {
                thread
            } else {
                random_age(&mut next)
            };
            let ages = ComponentAges {
                code_global,
                thread,
                stream,
            };
            assert_tick_exact(&m, &p, ages);
        }
    }

    /// Ticks at the start of table interval `i` and its width.
    fn interval(i: u64) -> (u64, u64) {
        (node_ticks(i), node_ticks(i + 1) - node_ticks(i))
    }

    /// (b) Every interval of the calibrated table, at its nodes and at
    /// τ = ¼, ½, ¾: nodes carry the model's bits, the interior stays
    /// inside the bound that admitted the interval. Only the intervals
    /// below the footprint clamp's crossover (≈1.45 µs) are empty.
    #[test]
    fn every_calibrated_interval_is_within_its_bound() {
        let p = DispatchPricer::new(&model());
        let table = p.build_table();
        assert_eq!(table.len() as u64, u64::from(BINADES) * SUBS);
        assert_eq!(std::mem::size_of::<Entry>(), 64);
        let first = table.iter().position(|e| !e.0[0][0].is_nan()).unwrap();
        assert_eq!(interval(first as u64).0, 1472, "first tabulated tick");
        let (mut worst_f, mut worst_ns) = (0.0f64, 0.0f64);
        for i in first..table.len() {
            let (t0, h) = interval(i as u64);
            let node = SimDuration::from_ticks(t0);
            let fast = p.tabulated(node).expect("no empty interval past the first");
            let exact = p.displacement(node);
            assert_eq!(exact.f1.to_bits(), fast.f1.to_bits(), "F1 node {t0}");
            assert_eq!(exact.f2.to_bits(), fast.f2.to_bits(), "F2 node {t0}");
            for quarter in 1..4 {
                let x = SimDuration::from_ticks(t0 + quarter * h / 4);
                let (exact, fast) = (p.displacement(x), p.tabulated(x).unwrap());
                let (e1, e2) = ((exact.f1 - fast.f1).abs(), (exact.f2 - fast.f2).abs());
                worst_f = worst_f.max(e1).max(e2);
                worst_ns = worst_ns.max((e1 * p.span1 + e2 * p.span2) * 1e3);
            }
        }
        assert!(worst_f < 6e-9, "max |ΔF| = {worst_f:e}");
        assert!(
            worst_ns < 4.1e-4 && SAFETY * worst_ns <= DELTA_NS,
            "max service error = {worst_ns:e} ns"
        );
    }

    /// (c) Edges of the table and of the tick range, alone and beside
    /// the other age kinds.
    #[test]
    fn price_is_tick_exact_at_every_edge() {
        let m = model();
        let p = DispatchPricer::new(&m);
        let last = 1u64 << (E_LO + BINADES);
        let mut edges = vec![0, 1, 2, (1 << 53) + 1, u64::MAX - 1, u64::MAX];
        for t in [1471, 1472, 1473, last - 1, last, last + 1] {
            edges.push(t);
        }
        for e in 1..63 {
            edges.extend([(1u64 << e) - 1, 1 << e, (1 << e) + 1]);
        }
        for &t in &edges {
            let x = Age::Elapsed(SimDuration::from_ticks(t));
            assert_tick_exact(&m, &p, ComponentAges::uniform(SimDuration::from_ticks(t)));
            for other in [Age::Warm, Age::Cold, Age::Remote] {
                for ages in [
                    ComponentAges {
                        code_global: x,
                        thread: other,
                        stream: x,
                    },
                    ComponentAges {
                        code_global: other,
                        thread: x,
                        stream: other,
                    },
                ] {
                    assert_tick_exact(&m, &p, ages);
                }
            }
        }
    }

    /// (c) A level that is not direct-mapped keeps the exact branch and
    /// an empty table: the model's bits, as before.
    #[test]
    fn set_associative_platform_has_no_table() {
        let mut platform = Platform::sgi_challenge_r4400();
        platform.l2.associativity = 2;
        let m = ExecTimeModel::new(
            TimeBounds::new(150.0, 185.0, 284.3),
            FlushModel::new(platform, MVS_WORKLOAD),
            ComponentWeights::nominal(),
        );
        let p = DispatchPricer::new(&m);
        assert!(p.build_table().is_empty());
        for x in elapsed_grid() {
            let ages = ComponentAges::uniform(x);
            assert_tick_exact(&m, &p, ages);
            let (a, b) = (m.flush.displacement(x), p.price(ages).1.unwrap());
            assert_eq!(
                (a.f1.to_bits(), a.f2.to_bits()),
                (b.f1.to_bits(), b.f2.to_bits())
            );
        }
    }

    /// (d) An age whose table-priced sum lies inside `δ` of a `k + ½`
    /// boundary: the table abstains, the exact path decides, and the
    /// tick is the model's.
    #[test]
    fn a_sum_near_a_half_tick_is_priced_exactly() {
        let m = model();
        let p = DispatchPricer::new(&m);
        let mut forced = 0;
        for t in (2_000u64..).step_by(7).take(200_000) {
            let ages = ComponentAges::uniform(SimDuration::from_ticks(t));
            let ns = p.sum_us(ages, |x| p.tabulated(x).unwrap()).0 * 1e3;
            if ((ns - ns.floor()) - 0.5).abs() < DELTA_NS {
                assert!(p.table_price(ages).is_none(), "table decided {ns} ns");
                let exact = p.price(ages).1.unwrap();
                let model = m.flush.displacement(SimDuration::from_ticks(t));
                assert_eq!(exact.f1.to_bits(), model.f1.to_bits());
                assert_tick_exact(&m, &p, ages);
                forced += 1;
            } else {
                assert!(p.table_price(ages).is_some(), "table abstained at {ns} ns");
            }
        }
        // 2δ of every nanosecond: ≈0.4 % of 200 000 ages.
        assert!((400..1_600).contains(&forced), "{forced} forced fallbacks");
    }

    /// A sum that read no cubic is the model's sum: it decides its own
    /// tick even on a half-tick boundary (a calibrated `t_warm` of
    /// 151.1035 µs puts every back-to-back dispatch on one).
    #[test]
    fn a_sum_without_a_cubic_never_defers() {
        let m = ExecTimeModel::new(
            TimeBounds::new(150.0005, 185.0, 284.3),
            FlushModel::new(Platform::sgi_challenge_r4400(), MVS_WORKLOAD),
            ComponentWeights::nominal(),
        );
        let p = DispatchPricer::new(&m);
        for ticks in [0, 1, 900, 1471, 1 << 41] {
            let x = SimDuration::from_ticks(ticks);
            assert_eq!(p.tabulated(x), None, "{ticks} ticks is off the table");
        }
        let back_to_back = ComponentAges::uniform(SimDuration::ZERO);
        let ns = p.sum_us(back_to_back, |x| p.displacement(x)).0 * 1e3;
        assert!(((ns - ns.floor()) - 0.5).abs() < DELTA_NS, "{ns} ns");
        assert!(p.table_price(back_to_back).is_some());
        assert_tick_exact(&m, &p, back_to_back);
    }

    /// The table is built by the first `Elapsed` age, not by the
    /// constructor or by the constant ages a native router prices.
    #[test]
    fn the_table_is_built_on_first_elapsed_age() {
        let p = DispatchPricer::new(&model());
        for code_global in [Age::Warm, Age::Cold, Age::Remote] {
            p.price(ComponentAges {
                code_global,
                ..ComponentAges::ALL_COLD
            });
        }
        assert!(p.t_warm_us() > 0.0 && p.table.get().is_none());
        p.price(ComponentAges::uniform(SimDuration::from_micros(40)));
        assert!(p.table.get().is_some());
    }

    #[test]
    fn price_reports_the_code_displacement_it_read() {
        let m = model();
        let p = DispatchPricer::new(&m);
        for x in elapsed_grid().into_iter().step_by(11) {
            let ages = ComponentAges {
                code_global: Age::Elapsed(x),
                thread: Age::Remote,
                stream: Age::Elapsed(x),
            };
            let (read, exact) = (p.price(ages).1.unwrap(), m.flush.displacement(x));
            assert!((read.f1 - exact.f1).abs() <= 1e-8, "F1({x})");
            assert!((read.f2 - exact.f2).abs() <= 1e-8, "F2({x})");
        }
        for code_global in [Age::Warm, Age::Cold, Age::Remote] {
            let ages = ComponentAges {
                code_global,
                ..ComponentAges::uniform(SimDuration::from_micros(40))
            };
            assert_eq!(p.price(ages).1, None);
        }
    }

    #[test]
    fn component_costs_partition_the_reload_span() {
        let m = model();
        let p = DispatchPricer::new(&m);
        let only_stream = |stream| ComponentAges {
            stream,
            ..ComponentAges::ALL_WARM
        };
        // Cold stream component alone = w_stream × full span; warm
        // components are free, remote beats cold.
        let (cold, _) = p.sum_us(only_stream(Age::Cold), |x| p.displacement(x));
        assert!((cold - (150.0 + 0.30 * 134.3)).abs() < 1e-9, "{cold}");
        let (warm, _) = p.sum_us(ComponentAges::ALL_WARM, |x| p.displacement(x));
        assert_eq!(warm.to_bits(), 150.0f64.to_bits());
        assert!(p.price(only_stream(Age::Remote)).0 > p.price(only_stream(Age::Cold)).0);
    }

    /// (c) A zero-weight component costs the bits of `+0.0` at any age.
    #[test]
    fn zero_weight_component_is_zero_bits() {
        let m = ExecTimeModel::new(
            TimeBounds::new(150.0, 185.0, 284.3),
            FlushModel::new(Platform::sgi_challenge_r4400(), MVS_WORKLOAD),
            ComponentWeights::new(1.0, 0.0, 0.0),
        );
        let p = DispatchPricer::new(&m);
        for age in [
            Age::Cold,
            Age::Remote,
            Age::Warm,
            Age::Elapsed(SimDuration::from_micros(700)),
        ] {
            let ages = ComponentAges {
                stream: age,
                ..ComponentAges::ALL_WARM
            };
            let (us, _) = p.sum_us(ages, |x| p.tabulated(x).unwrap());
            assert_eq!(us.to_bits(), 150.0f64.to_bits(), "{age:?}");
            assert_tick_exact(&m, &p, ages);
        }
    }
}
