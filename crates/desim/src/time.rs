//! Fixed-point simulation time.
//!
//! Simulation time is measured in integer **nanosecond ticks** held in a
//! `u64`. Using a fixed-point representation instead of `f64` keeps event
//! ordering exact (no accumulation drift over long runs) and makes runs
//! bit-reproducible across platforms. A `u64` of nanoseconds covers about
//! 584 simulated years, far beyond any experiment in this workspace.
//!
//! Two types are provided, mirroring `std::time`:
//!
//! * [`SimTime`] — an absolute instant on the simulation clock.
//! * [`SimDuration`] — a span between two instants.
//!
//! The paper's natural unit is the microsecond (packet service times are
//! hundreds of µs), so both types offer µs-flavoured constructors and
//! accessors alongside the raw nanosecond ones.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Number of nanosecond ticks per microsecond.
pub const TICKS_PER_US: u64 = 1_000;
/// Number of nanosecond ticks per millisecond.
pub const TICKS_PER_MS: u64 = 1_000_000;
/// Number of nanosecond ticks per second.
pub const TICKS_PER_SEC: u64 = 1_000_000_000;

/// An absolute instant on the simulation clock, in nanosecond ticks.
///
/// `SimTime::ZERO` is the start of the simulation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulation time, in nanosecond ticks.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant (used as an "infinite" horizon).
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanosecond ticks.
    #[inline]
    pub const fn from_ticks(ticks: u64) -> Self {
        SimTime(ticks)
    }

    /// Construct from whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * TICKS_PER_US)
    }

    /// Construct from fractional microseconds, rounding to the nearest tick.
    ///
    /// Panics in debug builds if `us` is negative or not finite.
    #[inline]
    pub fn from_micros_f64(us: f64) -> Self {
        debug_assert!(us.is_finite() && us >= 0.0, "invalid time: {us} us");
        SimTime((us * TICKS_PER_US as f64).round() as u64)
    }

    /// Raw nanosecond ticks since the epoch.
    #[inline]
    pub const fn ticks(self) -> u64 {
        self.0
    }

    /// Time since the epoch in (possibly fractional) microseconds.
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / TICKS_PER_US as f64
    }

    /// Time since the epoch in (possibly fractional) seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / TICKS_PER_SEC as f64
    }

    /// The duration elapsed since `earlier`.
    ///
    /// Panics in debug builds if `earlier` is later than `self`; saturates
    /// to zero in release builds.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        debug_assert!(
            earlier.0 <= self.0,
            "SimTime::since: earlier={} > self={}",
            earlier.0,
            self.0
        );
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Saturating addition of a duration (never overflows past `MAX`).
    #[inline]
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The longest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Construct from raw nanosecond ticks.
    #[inline]
    pub const fn from_ticks(ticks: u64) -> Self {
        SimDuration(ticks)
    }

    /// Construct from whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * TICKS_PER_US)
    }

    /// Construct from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * TICKS_PER_MS)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * TICKS_PER_SEC)
    }

    /// Construct from fractional microseconds, rounding to the nearest tick.
    #[inline]
    pub fn from_micros_f64(us: f64) -> Self {
        debug_assert!(us.is_finite() && us >= 0.0, "invalid duration: {us} us");
        SimDuration((us * TICKS_PER_US as f64).round() as u64)
    }

    /// Construct from fractional seconds, rounding to the nearest tick.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(s.is_finite() && s >= 0.0, "invalid duration: {s} s");
        SimDuration((s * TICKS_PER_SEC as f64).round() as u64)
    }

    /// Raw nanosecond ticks.
    #[inline]
    pub const fn ticks(self) -> u64 {
        self.0
    }

    /// Duration in (possibly fractional) microseconds.
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / TICKS_PER_US as f64
    }

    /// Duration in (possibly fractional) seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / TICKS_PER_SEC as f64
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Scale by a non-negative factor, rounding to the nearest tick.
    #[inline]
    pub fn mul_f64(self, k: f64) -> SimDuration {
        debug_assert!(k.is_finite() && k >= 0.0, "invalid scale: {k}");
        SimDuration((self.0 as f64 * k).round() as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, d: SimDuration) {
        self.0 += d.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, d: SimDuration) -> SimTime {
        SimTime(self.0 - d.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, t: SimTime) -> SimDuration {
        self.since(t)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, d: SimDuration) -> SimDuration {
        SimDuration(self.0 + d.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, d: SimDuration) {
        self.0 += d.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, d: SimDuration) -> SimDuration {
        debug_assert!(d.0 <= self.0, "SimDuration underflow");
        SimDuration(self.0 - d.0)
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, d: SimDuration) {
        debug_assert!(d.0 <= self.0, "SimDuration underflow");
        self.0 -= d.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, k: u64) -> SimDuration {
        SimDuration(self.0 * k)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, k: u64) -> SimDuration {
        SimDuration(self.0 / k)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}us", self.as_micros_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_micros_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_micros_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_micros_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construct_and_convert() {
        let t = SimTime::from_micros(250);
        assert_eq!(t.ticks(), 250_000);
        assert_eq!(t.as_micros_f64(), 250.0);
        assert_eq!(SimTime::from_micros_f64(0.5).ticks(), 500);
        assert_eq!(SimDuration::from_secs(2).ticks(), 2 * TICKS_PER_SEC);
        assert_eq!(SimDuration::from_millis(3).ticks(), 3 * TICKS_PER_MS);
    }

    #[test]
    fn arithmetic_roundtrip() {
        let a = SimTime::from_micros(100);
        let d = SimDuration::from_micros(40);
        let b = a + d;
        assert_eq!(b.since(a), d);
        assert_eq!(b - a, d);
        assert_eq!(b - d, a);
    }

    #[test]
    fn ordering_is_exact() {
        let a = SimTime::from_ticks(1);
        let b = SimTime::from_ticks(2);
        assert!(a < b);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_micros(10);
        assert_eq!(d * 3, SimDuration::from_micros(30));
        assert_eq!(d / 2, SimDuration::from_micros(5));
        assert_eq!(d.mul_f64(2.5), SimDuration::from_micros(25));
        assert_eq!(d.mul_f64(0.0), SimDuration::ZERO);
    }

    #[test]
    fn saturating_ops() {
        assert_eq!(
            SimTime::MAX.saturating_add(SimDuration::from_micros(1)),
            SimTime::MAX
        );
        let d = SimDuration::from_micros(1);
        assert_eq!(
            d.saturating_sub(SimDuration::from_micros(5)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn since_saturates_in_release() {
        // Only meaningful in release builds; in debug this would panic, so
        // construct the legal direction here.
        let a = SimTime::from_micros(5);
        let b = SimTime::from_micros(7);
        assert_eq!(b.since(a).as_micros_f64(), 2.0);
    }

    #[test]
    fn display_formats_microseconds() {
        assert_eq!(format!("{}", SimTime::from_micros_f64(1.5)), "1.500us");
        assert_eq!(format!("{}", SimDuration::from_micros(284)), "284.000us");
    }

    #[test]
    fn fractional_roundtrip() {
        let us = 284.3;
        let d = SimDuration::from_micros_f64(us);
        assert!((d.as_micros_f64() - us).abs() < 1e-3);
    }
}
