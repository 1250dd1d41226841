//! Integer simulation time, mirroring SystemC's `sc_time`.
//!
//! [`SimTime`] is an absolute instant, [`SimDuration`] a span; both count
//! **picoseconds** in a `u64`. One picosecond resolution covers clock
//! frequencies up to the THz range while still representing horizons of
//! roughly 213 days — far beyond any DPM simulation in this workspace.
//!
//! The types are deliberately *not* interchangeable: instants support only
//! affine arithmetic (`instant ± span`, `instant − instant → span`), which
//! rules out the "added two timestamps" bug at compile time.

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Picoseconds per unit, used by the constructors.
const PS_PER_NS: u64 = 1_000;
const PS_PER_US: u64 = 1_000_000;
const PS_PER_MS: u64 = 1_000_000_000;
const PS_PER_S: u64 = 1_000_000_000_000;

/// An absolute simulation instant (picoseconds since simulation start).
#[derive(
    Debug,
    Clone,
    Copy,
    PartialEq,
    Eq,
    PartialOrd,
    Ord,
    Hash,
    Default,
    serde::Serialize,
    serde::Deserialize,
)]
#[serde(transparent)]
pub struct SimTime(u64);

/// A span of simulation time (picoseconds).
#[derive(
    Debug,
    Clone,
    Copy,
    PartialEq,
    Eq,
    PartialOrd,
    Ord,
    Hash,
    Default,
    serde::Serialize,
    serde::Deserialize,
)]
#[serde(transparent)]
pub struct SimDuration(u64);

impl SimTime {
    /// Simulation start.
    pub const ZERO: Self = Self(0);
    /// The latest representable instant (~213 days).
    pub const MAX: Self = Self(u64::MAX);

    /// Instant `ps` picoseconds after simulation start.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        Self(ps)
    }

    /// Instant `ns` nanoseconds after simulation start.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        Self(ns * PS_PER_NS)
    }

    /// Instant `us` microseconds after simulation start.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        Self(us * PS_PER_US)
    }

    /// Instant `ms` milliseconds after simulation start.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        Self(ms * PS_PER_MS)
    }

    /// Instant `ms` milliseconds after simulation start, or `None` when
    /// it lies past [`Self::MAX`].
    #[inline]
    pub const fn checked_from_millis(ms: u64) -> Option<Self> {
        match ms.checked_mul(PS_PER_MS) {
            Some(ps) => Some(Self(ps)),
            None => None,
        }
    }

    /// Instant `s` seconds after simulation start.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        Self(s * PS_PER_S)
    }

    /// Raw picosecond count.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start as `f64` (for physics integration).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_S as f64
    }

    /// Span since `earlier`, or `None` if `earlier` is in the future.
    #[inline]
    pub fn checked_duration_since(self, earlier: Self) -> Option<SimDuration> {
        self.0.checked_sub(earlier.0).map(SimDuration)
    }

    /// Span since `earlier`, clamped to zero if `earlier` is in the future.
    #[inline]
    pub fn saturating_duration_since(self, earlier: Self) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Instant advanced by `d`, or `None` on overflow.
    #[inline]
    pub fn checked_add(self, d: SimDuration) -> Option<Self> {
        self.0.checked_add(d.0).map(Self)
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: Self = Self(0);
    /// The longest representable span.
    pub const MAX: Self = Self(u64::MAX);

    /// Span of `ps` picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        Self(ps)
    }

    /// Span of `ns` nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        Self(ns * PS_PER_NS)
    }

    /// Span of `us` microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        Self(us * PS_PER_US)
    }

    /// Span of `ms` milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        Self(ms * PS_PER_MS)
    }

    /// Span of `s` seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        Self(s * PS_PER_S)
    }

    /// Span of `s` seconds given as `f64`, rounded to the nearest picosecond.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative, NaN, or too large to represent.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(
            s.is_finite() && s >= 0.0,
            "SimDuration::from_secs_f64: invalid seconds value {s}"
        );
        let ps = s * PS_PER_S as f64;
        assert!(
            ps <= u64::MAX as f64,
            "SimDuration::from_secs_f64: {s} s overflows the picosecond range"
        );
        Self(ps.round() as u64)
    }

    /// Raw picosecond count.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// The span in seconds as `f64`.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_S as f64
    }

    /// `true` when the span is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Smaller of two spans.
    #[inline]
    pub fn min(self, other: Self) -> Self {
        Self(self.0.min(other.0))
    }

    /// Larger of two spans.
    #[inline]
    pub fn max(self, other: Self) -> Self {
        Self(self.0.max(other.0))
    }

    /// Sum, or `None` on overflow.
    #[inline]
    pub fn checked_add(self, other: Self) -> Option<Self> {
        self.0.checked_add(other.0).map(Self)
    }

    /// Difference, clamped at zero.
    #[inline]
    pub fn saturating_sub(self, other: Self) -> Self {
        Self(self.0.saturating_sub(other.0))
    }

    /// Scales the span by a non-negative factor, rounding to a picosecond.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or NaN, or the result overflows.
    #[inline]
    pub fn mul_f64(self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "SimDuration::mul_f64: invalid factor {factor}"
        );
        let ps = self.0 as f64 * factor;
        assert!(
            ps <= u64::MAX as f64,
            "SimDuration::mul_f64: overflow scaling {self} by {factor}"
        );
        Self(ps.round() as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_add(rhs.0)
                .expect("SimTime overflow: instant + span exceeds the representable horizon"),
        )
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime underflow: span larger than elapsed time"),
        )
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime subtraction: right operand is later than left"),
        )
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self(
            self.0
                .checked_add(rhs.0)
                .expect("SimDuration overflow in addition"),
        )
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self(
            self.0
                .checked_sub(rhs.0)
                .expect("SimDuration underflow in subtraction"),
        )
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> Self {
        Self(
            self.0
                .checked_mul(rhs)
                .expect("SimDuration overflow in multiplication"),
        )
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> Self {
        Self(self.0 / rhs)
    }
}

impl Div for SimDuration {
    type Output = f64;
    #[inline]
    fn div(self, rhs: Self) -> f64 {
        self.0 as f64 / rhs.0 as f64
    }
}

impl core::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |acc, d| acc + d)
    }
}

fn fmt_ps(ps: u64, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    const SCALES: [(u64, &str); 5] = [
        (PS_PER_S, "s"),
        (PS_PER_MS, "ms"),
        (PS_PER_US, "us"),
        (PS_PER_NS, "ns"),
        (1, "ps"),
    ];
    for (scale, unit) in SCALES {
        if ps >= scale {
            let whole = ps / scale;
            let frac = ps % scale;
            return if frac == 0 {
                write!(f, "{whole} {unit}")
            } else {
                write!(f, "{:.3} {unit}", ps as f64 / scale as f64)
            };
        }
    }
    write!(f, "0 s")
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_ps(self.0, f)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_ps(self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree_on_scale() {
        assert_eq!(SimTime::from_nanos(1).as_ps(), 1_000);
        assert_eq!(SimTime::from_micros(1).as_ps(), 1_000_000);
        assert_eq!(SimTime::from_millis(1).as_ps(), 1_000_000_000);
        assert_eq!(SimTime::from_secs(1).as_ps(), 1_000_000_000_000);
        assert_eq!(SimDuration::from_secs(2), SimDuration::from_millis(2000));
    }

    #[test]
    fn checked_from_millis_stops_at_the_clock_limit() {
        let longest = 18_446_744_073;
        assert_eq!(
            SimTime::checked_from_millis(longest),
            Some(SimTime::from_millis(longest))
        );
        assert_eq!(SimTime::checked_from_millis(longest + 1), None);
        assert_eq!(SimTime::checked_from_millis(u64::MAX), None);
    }

    #[test]
    fn affine_arithmetic() {
        let t = SimTime::from_micros(10);
        let d = SimDuration::from_micros(4);
        assert_eq!(t + d, SimTime::from_micros(14));
        assert_eq!((t + d) - t, d);
        assert_eq!(t - d, SimTime::from_micros(6));
    }

    #[test]
    #[should_panic(expected = "later than left")]
    fn instant_subtraction_panics_when_reversed() {
        let _ = SimTime::from_micros(1) - SimTime::from_micros(2);
    }

    #[test]
    fn saturating_and_checked_duration_since() {
        let a = SimTime::from_micros(5);
        let b = SimTime::from_micros(7);
        assert_eq!(
            b.checked_duration_since(a),
            Some(SimDuration::from_micros(2))
        );
        assert_eq!(a.checked_duration_since(b), None);
        assert_eq!(a.saturating_duration_since(b), SimDuration::ZERO);
    }

    #[test]
    fn from_secs_f64_roundtrips() {
        let d = SimDuration::from_secs_f64(1.25e-6);
        assert_eq!(d, SimDuration::from_nanos(1250));
        assert!((d.as_secs_f64() - 1.25e-6).abs() < 1e-18);
    }

    #[test]
    #[should_panic(expected = "invalid seconds")]
    fn from_secs_f64_rejects_negative() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }

    #[test]
    fn mul_f64_rounds() {
        let d = SimDuration::from_ps(10);
        assert_eq!(d.mul_f64(2.5), SimDuration::from_ps(25));
        assert_eq!(d.mul_f64(0.0), SimDuration::ZERO);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(SimDuration::from_micros(3).to_string(), "3 us");
        assert_eq!(SimDuration::from_ps(1500).to_string(), "1.500 ns");
        assert_eq!(SimTime::ZERO.to_string(), "0 s");
        assert_eq!(SimTime::from_secs(2).to_string(), "2 s");
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = [1u64, 2, 3]
            .iter()
            .map(|&us| SimDuration::from_micros(us))
            .sum();
        assert_eq!(total, SimDuration::from_micros(6));
    }

    #[test]
    fn ordering_is_total() {
        let mut v = [
            SimTime::from_micros(3),
            SimTime::ZERO,
            SimTime::from_nanos(10),
        ];
        v.sort();
        assert_eq!(v[0], SimTime::ZERO);
        assert_eq!(v[2], SimTime::from_micros(3));
    }
}
