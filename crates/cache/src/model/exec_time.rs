//! Packet execution time as a reload-transient interpolation.
//!
//! The paper models the execution time of protocol processing that finds
//! fractions `F1`, `F2` of its footprint displaced from L1 and L2 as the
//! linear interpolation between three measured bounds (the approach of
//! Squillante & Lazowska's `D + R·C`, generalized to two cache levels):
//!
//! ```text
//! T = t_warm + F1·(t_L2 − t_warm) + F2·(t_cold − t_L2)
//! ```
//!
//! * `t_warm` — footprint entirely in L1 (and L2),
//! * `t_L2`   — footprint in L2 but displaced from L1,
//! * `t_cold` — footprint in neither cache (the paper measures
//!   `t_cold = 284.3 µs` for receive-side UDP/IP/FDDI processing).
//!
//! The paper's Section-4 experiments isolate the affinity-sensitive
//! footprint into **components** that age independently:
//!
//! * **code/global** — protocol text and shared structures; warm iff
//!   *any* protocol processing ran on this processor recently;
//! * **thread** — thread stack and control block; follows the thread;
//! * **stream** — per-connection state (PCB, session, routes); follows
//!   the stream, and migrates between caches when consecutive packets of
//!   a stream are processed on different processors.
//!
//! Each component contributes its weight `w_c` of the reload span, scaled
//! by the displacement of *its own* age, and migrated components pay a
//! remote-fetch premium (cache-to-cache intervention instead of a plain
//! memory fill). On top of the affinity-sensitive time, a packet may carry
//! a fixed uncached overhead `V` (data-touching work: copies, checksums —
//! the paper's Figures 10/11 parameter) and paradigm overhead (locking).

use afs_desim::time::SimDuration;

use super::hierarchy::{Displacement, FlushModel};

/// Measured per-packet protocol time bounds (µs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeBounds {
    /// Everything in L1: minimum processing time.
    pub t_warm_us: f64,
    /// Footprint in L2 only.
    pub t_l2_us: f64,
    /// Footprint in memory only (the paper: 284.3 µs).
    pub t_cold_us: f64,
}

impl TimeBounds {
    /// Validate ordering `t_warm ≤ t_L2 ≤ t_cold`.
    pub fn new(t_warm_us: f64, t_l2_us: f64, t_cold_us: f64) -> Self {
        assert!(
            0.0 < t_warm_us && t_warm_us <= t_l2_us && t_l2_us <= t_cold_us,
            "bounds must satisfy 0 < warm <= l2 <= cold; got {t_warm_us}, {t_l2_us}, {t_cold_us}"
        );
        TimeBounds {
            t_warm_us,
            t_l2_us,
            t_cold_us,
        }
    }

    /// The full reload transient `t_cold − t_warm` (µs).
    pub fn reload_span_us(&self) -> f64 {
        self.t_cold_us - self.t_warm_us
    }
}

/// How the affinity-sensitive reload span divides among the independently
/// aging footprint components. Weights must sum to 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComponentWeights {
    /// Protocol code + shared global structures.
    pub code_global: f64,
    /// Per-thread stack and control state.
    pub thread: f64,
    /// Per-stream (connection) protocol state.
    pub stream: f64,
}

impl ComponentWeights {
    /// Validated constructor.
    pub fn new(code_global: f64, thread: f64, stream: f64) -> Self {
        let sum = code_global + thread + stream;
        assert!(
            (sum - 1.0).abs() < 1e-9 && code_global >= 0.0 && thread >= 0.0 && stream >= 0.0,
            "weights must be non-negative and sum to 1 (sum = {sum})"
        );
        ComponentWeights {
            code_global,
            thread,
            stream,
        }
    }

    /// Nominal division pending calibration (overwritten by the
    /// `afs-xkernel` calibration harness, which measures the real split).
    pub fn nominal() -> Self {
        ComponentWeights::new(0.55, 0.15, 0.30)
    }
}

/// The cache age of one footprint component at dispatch time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Age {
    /// Just used on this processor (no displacement).
    Warm,
    /// Last used on this processor, with the given intervening
    /// non-protocol execution time since.
    Elapsed(SimDuration),
    /// Resident in another processor's cache: full reload at the
    /// remote-fetch premium.
    Remote,
    /// Never loaded anywhere (first touch) or known fully displaced:
    /// full reload from memory.
    Cold,
}

/// Ages of all three components at dispatch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComponentAges {
    /// Code/global component age (per-processor).
    pub code_global: Age,
    /// Thread component age.
    pub thread: Age,
    /// Stream-state component age.
    pub stream: Age,
}

impl ComponentAges {
    /// Everything warm: the best case.
    pub const ALL_WARM: ComponentAges = ComponentAges {
        code_global: Age::Warm,
        thread: Age::Warm,
        stream: Age::Warm,
    };

    /// Everything cold: the worst (non-migrated) case.
    pub const ALL_COLD: ComponentAges = ComponentAges {
        code_global: Age::Cold,
        thread: Age::Cold,
        stream: Age::Cold,
    };

    /// All components share one elapsed age (the classic single-footprint
    /// model of the paper's equation).
    pub fn uniform(x: SimDuration) -> Self {
        ComponentAges {
            code_global: Age::Elapsed(x),
            thread: Age::Elapsed(x),
            stream: Age::Elapsed(x),
        }
    }
}

/// The full execution-time model.
#[derive(Debug, Clone, Copy)]
pub struct ExecTimeModel {
    /// Measured time bounds.
    pub bounds: TimeBounds,
    /// Displacement curves for the platform/workload pair.
    pub flush: FlushModel,
    /// Component split of the reload span.
    pub weights: ComponentWeights,
    /// Extra fraction of a component's cold reload charged when it must
    /// be fetched from a remote cache instead of memory (dirty-line
    /// intervention + invalidation traffic on the Challenge bus).
    pub remote_premium: f64,
}

impl ExecTimeModel {
    /// Build a model.
    pub fn new(bounds: TimeBounds, flush: FlushModel, weights: ComponentWeights) -> Self {
        ExecTimeModel {
            bounds,
            flush,
            weights,
            remote_premium: 0.35,
        }
    }

    /// Displacement of a component at a given age. `Remote`/`Cold` are
    /// fully displaced; `Remote` additionally reports the premium flag.
    fn component_cost_us(&self, age: Age, weight: f64) -> f64 {
        if weight == 0.0 {
            return 0.0;
        }
        let b = &self.bounds;
        let span1 = b.t_l2_us - b.t_warm_us;
        let span2 = b.t_cold_us - b.t_l2_us;
        let (d, premium) = match age {
            Age::Warm => (Displacement::NONE, 0.0),
            Age::Elapsed(x) => (self.flush.displacement(x), 0.0),
            Age::Cold => (Displacement::FULL, 0.0),
            Age::Remote => (Displacement::FULL, self.remote_premium),
        };
        let reload = d.f1 * span1 + d.f2 * span2;
        weight * (reload + premium * (span1 + span2))
    }

    /// Pure protocol processing time for the given component ages,
    /// excluding V and paradigm overheads.
    pub fn protocol_time(&self, ages: ComponentAges) -> SimDuration {
        let w = &self.weights;
        let us = self.bounds.t_warm_us
            + self.component_cost_us(ages.code_global, w.code_global)
            + self.component_cost_us(ages.thread, w.thread)
            + self.component_cost_us(ages.stream, w.stream);
        SimDuration::from_micros_f64(us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::footprint::MVS_WORKLOAD;
    use crate::model::platform::Platform;

    fn model() -> ExecTimeModel {
        ExecTimeModel::new(
            TimeBounds::new(150.0, 185.0, 284.3),
            FlushModel::new(Platform::sgi_challenge_r4400(), MVS_WORKLOAD),
            ComponentWeights::nominal(),
        )
    }

    #[test]
    fn warm_is_t_warm() {
        let m = model();
        let t = m.protocol_time(ComponentAges::ALL_WARM);
        assert!((t.as_micros_f64() - 150.0).abs() < 1e-9);
    }

    #[test]
    fn cold_is_t_cold() {
        let m = model();
        let t = m.protocol_time(ComponentAges::ALL_COLD);
        assert!((t.as_micros_f64() - 284.3).abs() < 1e-6);
    }

    #[test]
    fn uniform_interpolates_between_bounds() {
        let m = model();
        for &us in &[0u64, 100, 1_000, 100_000, 10_000_000] {
            let age = ComponentAges::uniform(SimDuration::from_micros(us));
            let t = m.protocol_time(age).as_micros_f64();
            assert!(
                (150.0..=284.3 + 1e-6).contains(&t),
                "T({us}us) = {t} outside bounds"
            );
        }
    }

    #[test]
    fn uniform_monotone_in_age() {
        let m = model();
        let mut prev = 0.0;
        for &us in &[0u64, 10, 100, 1_000, 10_000, 100_000, 1_000_000] {
            let age = ComponentAges::uniform(SimDuration::from_micros(us));
            let t = m.protocol_time(age).as_micros_f64();
            assert!(t >= prev, "T not monotone at {us}");
            prev = t;
        }
    }

    #[test]
    fn remote_costs_more_than_cold_for_that_component() {
        let m = model();
        let cold_stream = ComponentAges {
            code_global: Age::Warm,
            thread: Age::Warm,
            stream: Age::Cold,
        };
        let remote_stream = ComponentAges {
            stream: Age::Remote,
            ..cold_stream
        };
        let tc = m.protocol_time(cold_stream);
        let tr = m.protocol_time(remote_stream);
        assert!(tr > tc, "remote {tr} not > cold {tc}");
        // Premium = 0.35 × weight × span = 0.35 × 0.30 × 134.3 ≈ 14.1 µs.
        let premium = tr.as_micros_f64() - tc.as_micros_f64();
        assert!((premium - 0.35 * 0.30 * 134.3).abs() < 1e-2, "{premium}");
    }

    #[test]
    fn component_weights_partition_reload() {
        // Cold stream only ≈ warm + w_stream × span.
        let m = model();
        let t = m.protocol_time(ComponentAges {
            code_global: Age::Warm,
            thread: Age::Warm,
            stream: Age::Cold,
        });
        let expected = 150.0 + 0.30 * 134.3;
        assert!((t.as_micros_f64() - expected).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "bounds must satisfy")]
    fn bounds_must_be_ordered() {
        TimeBounds::new(200.0, 150.0, 284.3);
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn weights_must_sum_to_one() {
        ComponentWeights::new(0.5, 0.5, 0.5);
    }

    #[test]
    fn zero_weight_component_free() {
        let m = ExecTimeModel::new(
            TimeBounds::new(150.0, 185.0, 284.3),
            FlushModel::new(Platform::sgi_challenge_r4400(), MVS_WORKLOAD),
            ComponentWeights::new(1.0, 0.0, 0.0),
        );
        let t = m.protocol_time(ComponentAges {
            code_global: Age::Warm,
            thread: Age::Cold,
            stream: Age::Remote,
        });
        assert!((t.as_micros_f64() - 150.0).abs() < 1e-9);
    }

    #[test]
    fn affinity_benefit_magnitude_matches_paper_band() {
        // The V = 0 upper bound on delay reduction in Figures 10/11 is
        // 40–50 %; at low load that is ≈ (t_cold − t_warm)/t_cold.
        let m = model();
        let gain = m.bounds.reload_span_us() / m.bounds.t_cold_us;
        assert!(
            (0.40..0.55).contains(&gain),
            "reload span fraction {gain} outside the paper's band"
        );
    }
}
