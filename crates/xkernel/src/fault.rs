//! Deterministic fault injection for the wire in front of the engine.
//!
//! Real parallel receive paths see loss, duplication, reordering and
//! corruption long before the protocol graph does — and parallel NIC
//! dispatch itself reorders frames (Wu et al., *"Why Does Flow Director
//! Cause Packet Reordering?"*). The paper's model assumes none of this;
//! this module adds it as a strictly opt-in stage a harness puts between
//! its frame source and [`ProtocolEngine`](crate::ProtocolEngine) (the
//! `fuzz_receive` battery does), so the receive path is exercised on how
//! it *degrades*, not just how fast it is when everything is perfect.
//!
//! A [`FaultInjector`] applies a [`FaultPlan`] to each frame offered to
//! it. Every decision is drawn from a named RNG substream of
//! the existing `afs-desim` [`RngFactory`], so:
//!
//! * runs are a pure function of (config, master seed) — replayable;
//! * a plan with all probabilities at zero draws **nothing** from the
//!   RNG, so enabling the subsystem with a no-op plan leaves every other
//!   stream's sample path bit-for-bit unchanged.
//!
//! Fault classes (independent per-frame draws, applied in this order):
//!
//! 1. **Drop** — the frame vanishes on the wire.
//! 2. **Duplicate** — the frame is delivered twice (DMA re-arm bug,
//!    retransmit race).
//! 3. **Reorder** — the frame is parked in a bounded delay line and
//!    released 1..=`max_delay_slots` admissions later (Flow-Director
//!    style dispatch skew).
//! 4. **Corrupt** — 1..=`max_bit_flips` random bit flips anywhere in the
//!    frame (line noise past the MAC's FCS window, bad DMA).
//! 5. **Truncate** — the tail of the frame is cut (aborted DMA).
//!
//! Corruption and truncation deliberately do *not* fix up checksums:
//! the point is to exercise the protocol graph's validation layers and
//! charge the partial work a rejected packet still costs.

use std::collections::VecDeque;

use afs_desim::rng::RngFactory;
use rand::rngs::StdRng;
use rand::Rng;

use crate::driver::RxFrame;

/// The RNG substream name fault decisions draw from.
pub const FAULT_STREAM: &str = "faults";

/// Per-fault-class probabilities and bounds.
///
/// All probabilities are per-frame and independent. The default plan is
/// a no-op: every probability zero, so the injector never touches the
/// RNG and frames pass through untouched.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Probability a frame is dropped outright.
    pub drop_p: f64,
    /// Probability a frame is delivered twice.
    pub duplicate_p: f64,
    /// Probability a frame is delayed (reordered past later frames).
    pub reorder_p: f64,
    /// Maximum admissions a reordered frame may be delayed by (>= 1
    /// whenever `reorder_p > 0`).
    pub max_delay_slots: u32,
    /// Probability a frame suffers bit-flip corruption.
    pub corrupt_p: f64,
    /// Maximum random bit flips per corrupted frame (>= 1 whenever
    /// `corrupt_p > 0`).
    pub max_bit_flips: u32,
    /// Probability a frame is truncated.
    pub truncate_p: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// The no-op plan: nothing is injected, nothing is drawn.
    pub const fn none() -> Self {
        FaultPlan {
            drop_p: 0.0,
            duplicate_p: 0.0,
            reorder_p: 0.0,
            max_delay_slots: 4,
            corrupt_p: 0.0,
            max_bit_flips: 1,
            truncate_p: 0.0,
        }
    }

    /// A plan injecting every fault class at the same rate `p` —
    /// the "uniformly hostile wire" used by the E21 sweeps.
    pub fn uniform(p: f64) -> Self {
        FaultPlan {
            drop_p: p,
            duplicate_p: p,
            reorder_p: p,
            max_delay_slots: 4,
            corrupt_p: p,
            max_bit_flips: 3,
            truncate_p: p,
        }
    }

    /// True when no fault class can fire (the injector is pass-through
    /// and consumes no randomness).
    pub fn is_noop(&self) -> bool {
        self.drop_p <= 0.0
            && self.duplicate_p <= 0.0
            && self.reorder_p <= 0.0
            && self.corrupt_p <= 0.0
            && self.truncate_p <= 0.0
    }

    /// Check probabilities are in [0, 1] and bounds are usable.
    pub fn validate(&self) -> Result<(), String> {
        let probs = [
            ("drop_p", self.drop_p),
            ("duplicate_p", self.duplicate_p),
            ("reorder_p", self.reorder_p),
            ("corrupt_p", self.corrupt_p),
            ("truncate_p", self.truncate_p),
        ];
        for (name, p) in probs {
            if !(0.0..=1.0).contains(&p) || p.is_nan() {
                return Err(format!("{name} = {p} outside [0, 1]"));
            }
        }
        if self.reorder_p > 0.0 && self.max_delay_slots == 0 {
            return Err("reorder_p > 0 requires max_delay_slots >= 1".into());
        }
        if self.corrupt_p > 0.0 && self.max_bit_flips == 0 {
            return Err("corrupt_p > 0 requires max_bit_flips >= 1".into());
        }
        Ok(())
    }
}

/// Counts of injected faults, by class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Frames offered to the injector.
    pub examined: u64,
    /// Frames dropped on the wire.
    pub drops: u64,
    /// Extra copies delivered.
    pub duplicates: u64,
    /// Frames delayed past later arrivals.
    pub reorders: u64,
    /// Frames with flipped bits.
    pub corruptions: u64,
    /// Frames with truncated tails.
    pub truncations: u64,
}

impl FaultStats {
    /// Surface the injected-fault mix through the unified observability
    /// counters, so harnesses can report "what the wire did" alongside
    /// "what the receive path concluded" in one place.
    pub fn observe_into(&self, c: &mut afs_obs::Counters) {
        c.fault_examined += self.examined;
        c.wire_drops += self.drops;
        c.duplicates += self.duplicates;
        c.reorders += self.reorders;
        c.corruptions += self.corruptions;
        c.truncations += self.truncations;
    }
}

/// A frame parked in the reorder delay line.
#[derive(Debug)]
struct Delayed {
    /// Admissions remaining before release.
    slots_left: u32,
    frame: RxFrame,
}

/// Applies a [`FaultPlan`] to the frame stream, deterministically.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: StdRng,
    delay_line: VecDeque<Delayed>,
    /// Injection counters.
    pub stats: FaultStats,
}

impl FaultInjector {
    /// Build from a plan and a ready-made RNG (useful in tests).
    pub fn new(plan: FaultPlan, rng: StdRng) -> Self {
        if let Err(e) = plan.validate() {
            panic!("invalid FaultPlan: {e}");
        }
        FaultInjector {
            plan,
            rng,
            delay_line: VecDeque::new(),
            stats: FaultStats::default(),
        }
    }

    /// Build from a plan, drawing from the factory's `"faults"`
    /// substream — the standard construction, guaranteeing independence
    /// from every other named stream.
    pub fn from_factory(plan: FaultPlan, factory: &RngFactory) -> Self {
        Self::new(plan, factory.stream(FAULT_STREAM))
    }

    /// The active plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Offer one frame. Returns the frames to deliver *now*, in order:
    /// zero (dropped or delayed), one, two (duplicated), plus any parked
    /// frames whose delay expired on this admission.
    pub fn admit(&mut self, frame: RxFrame) -> Vec<RxFrame> {
        self.stats.examined += 1;
        let mut out = Vec::new();
        if self.plan.is_noop() {
            // Fast path: no RNG draws at all.
            out.push(frame);
            return out;
        }

        // Age the delay line on every admission, releasing expired
        // frames *before* the current one (they were earlier arrivals).
        for d in &mut self.delay_line {
            d.slots_left = d.slots_left.saturating_sub(1);
        }
        // Release every expired frame, not just a prefix: a short delay
        // drawn behind a long one must overtake it — that *is* the
        // reordering.
        let mut i = 0;
        while i < self.delay_line.len() {
            if self.delay_line[i].slots_left == 0 {
                let released = self.delay_line.remove(i).expect("index in bounds");
                out.push(released.frame);
            } else {
                i += 1;
            }
        }

        // 1. Drop.
        if self.bernoulli(self.plan.drop_p) {
            self.stats.drops += 1;
            return out;
        }

        let mut frame = frame;

        // 4./5. Payload damage happens before the copy decision so a
        // duplicated frame carries the same damage twice (as a DMA
        // re-arm bug would).
        if self.bernoulli(self.plan.corrupt_p) && !frame.bytes.is_empty() {
            self.stats.corruptions += 1;
            let flips = self.rng.gen_range(1..=self.plan.max_bit_flips);
            for _ in 0..flips {
                let byte = self.rng.gen_range(0..frame.bytes.len());
                let bit = self.rng.gen_range(0u32..8);
                frame.bytes[byte] ^= 1 << bit;
            }
        }
        if self.bernoulli(self.plan.truncate_p) && frame.bytes.len() > 1 {
            self.stats.truncations += 1;
            let keep = self.rng.gen_range(1..frame.bytes.len());
            frame.bytes.truncate(keep);
        }

        // 2. Duplicate.
        let copy = if self.bernoulli(self.plan.duplicate_p) {
            self.stats.duplicates += 1;
            Some(frame.clone())
        } else {
            None
        };

        // 3. Reorder: park the frame; its copy (if any) still goes out
        // now, which is itself a reordering of the pair.
        if self.bernoulli(self.plan.reorder_p) {
            self.stats.reorders += 1;
            let slots = self.rng.gen_range(1..=self.plan.max_delay_slots);
            self.delay_line.push_back(Delayed {
                slots_left: slots,
                frame,
            });
        } else {
            out.push(frame);
        }
        if let Some(c) = copy {
            out.push(c);
        }
        out
    }

    /// Drain the delay line (end of run): parked frames are released in
    /// arrival order.
    pub fn flush(&mut self) -> Vec<RxFrame> {
        self.delay_line.drain(..).map(|d| d.frame).collect()
    }

    fn bernoulli(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.rng.gen::<f64>() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::StreamId;

    fn frame(tag: u8) -> RxFrame {
        RxFrame {
            bytes: vec![tag; 32],
            stream: StreamId(tag as u32),
            buf_addr: 0,
        }
    }

    fn injector(plan: FaultPlan) -> FaultInjector {
        FaultInjector::from_factory(plan, &RngFactory::new(42))
    }

    #[test]
    fn noop_plan_passes_everything_through_untouched() {
        let mut inj = injector(FaultPlan::none());
        for i in 0..100u8 {
            let out = inj.admit(frame(i));
            assert_eq!(out.len(), 1);
            assert_eq!(out[0].bytes, vec![i; 32]);
        }
        let examined_only = FaultStats {
            examined: 100,
            ..FaultStats::default()
        };
        assert_eq!(inj.stats, examined_only, "a no-op plan injects nothing");
        assert!(inj.flush().is_empty());
    }

    #[test]
    fn drop_only_plan_drops_at_roughly_the_configured_rate() {
        let plan = FaultPlan {
            drop_p: 0.3,
            ..FaultPlan::none()
        };
        let mut inj = injector(plan);
        let mut delivered = 0usize;
        for i in 0..2000 {
            delivered += inj.admit(frame((i % 251) as u8)).len();
        }
        let dropped = 2000 - delivered;
        assert_eq!(inj.stats.drops as usize, dropped);
        assert!(
            (450..750).contains(&dropped),
            "30% of 2000 ≈ 600, got {dropped}"
        );
    }

    #[test]
    fn duplicates_add_identical_copies() {
        let plan = FaultPlan {
            duplicate_p: 1.0,
            ..FaultPlan::none()
        };
        let mut inj = injector(plan);
        let out = inj.admit(frame(7));
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].bytes, out[1].bytes);
        assert_eq!(inj.stats.duplicates, 1);
    }

    #[test]
    fn corruption_flips_bits_but_preserves_length() {
        let plan = FaultPlan {
            corrupt_p: 1.0,
            max_bit_flips: 3,
            ..FaultPlan::none()
        };
        let mut inj = injector(plan);
        let out = inj.admit(frame(0));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].bytes.len(), 32);
        assert_ne!(out[0].bytes, vec![0u8; 32], "some bit flipped");
        assert_eq!(inj.stats.corruptions, 1);
    }

    #[test]
    fn truncation_shortens_but_never_empties() {
        let plan = FaultPlan {
            truncate_p: 1.0,
            ..FaultPlan::none()
        };
        let mut inj = injector(plan);
        for i in 0..50u8 {
            let out = inj.admit(frame(i));
            assert_eq!(out.len(), 1);
            assert!(!out[0].bytes.is_empty());
            assert!(out[0].bytes.len() < 32);
        }
        assert_eq!(inj.stats.truncations, 50);
    }

    #[test]
    fn reorder_delays_frames_within_the_bound() {
        let plan = FaultPlan {
            reorder_p: 1.0,
            max_delay_slots: 3,
            ..FaultPlan::none()
        };
        let mut inj = injector(plan);
        let mut seen = Vec::new();
        for i in 0..40u8 {
            for f in inj.admit(frame(i)) {
                seen.push(f.stream.0);
            }
        }
        for f in inj.flush() {
            seen.push(f.stream.0);
        }
        // Everything arrives exactly once…
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..40).collect::<Vec<_>>());
        // …but not in order, and never displaced past the bound.
        assert_ne!(seen, (0..40).collect::<Vec<_>>(), "must reorder");
        for (pos, &id) in seen.iter().enumerate() {
            let displacement = (pos as i64 - id as i64).unsigned_abs();
            assert!(
                displacement <= 3 + 1,
                "frame {id} displaced by {displacement} > bound"
            );
        }
    }

    #[test]
    fn same_seed_same_fault_sequence() {
        let plan = FaultPlan::uniform(0.2);
        let run = || {
            let mut inj = injector(plan);
            let mut sig = Vec::new();
            for i in 0..200u8 {
                for f in inj.admit(frame(i)) {
                    sig.push((f.stream.0, f.bytes.clone()));
                }
            }
            for f in inj.flush() {
                sig.push((f.stream.0, f.bytes.clone()));
            }
            (sig, inj.stats)
        };
        let (a, sa) = run();
        let (b, sb) = run();
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        let clean = FaultStats {
            examined: 200,
            ..FaultStats::default()
        };
        assert_ne!(sa, clean, "20% plan must inject something");
    }

    #[test]
    fn invalid_plans_are_rejected() {
        assert!(FaultPlan {
            drop_p: 1.5,
            ..FaultPlan::none()
        }
        .validate()
        .is_err());
        assert!(FaultPlan {
            reorder_p: 0.1,
            max_delay_slots: 0,
            ..FaultPlan::none()
        }
        .validate()
        .is_err());
        assert!(FaultPlan::uniform(0.5).validate().is_ok());
        assert!(FaultPlan::none().validate().is_ok());
    }
}
