//! Dimensionless ratios (state of charge, savings).

use core::fmt;

/// A dimensionless ratio where `1.0` is 100 %.
///
/// Used for battery state of charge and the relative metrics reported
/// by the experiment harness.
///
/// # Examples
///
/// ```
/// use dpm_units::Ratio;
///
/// let soc = Ratio::from_percent(85.0);
/// assert_eq!(soc.as_percent(), 85.0);
/// assert_eq!(soc.clamp_unit(), soc);
/// assert_eq!(Ratio::new(1.2).clamp_unit(), Ratio::ONE);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, PartialOrd, Default, serde::Serialize, serde::Deserialize,
)]
#[serde(transparent)]
pub struct Ratio(f64);

impl Ratio {
    /// The 0 % ratio.
    pub const ZERO: Self = Self(0.0);
    /// The 100 % ratio.
    pub const ONE: Self = Self(1.0);

    /// A ratio from its raw value (`1.0` = 100 %).
    #[inline]
    pub const fn new(value: f64) -> Self {
        Self(value)
    }

    /// A ratio from a percentage.
    #[inline]
    pub const fn from_percent(pct: f64) -> Self {
        Self(pct / 100.0)
    }

    /// The raw value (`1.0` = 100 %).
    #[inline]
    pub const fn value(self) -> f64 {
        self.0
    }

    /// The value as a percentage.
    #[inline]
    pub const fn as_percent(self) -> f64 {
        self.0 * 100.0
    }

    /// Clamps into the unit interval `[0, 1]`.
    #[inline]
    pub fn clamp_unit(self) -> Self {
        Self(self.0.clamp(0.0, 1.0))
    }

    /// `true` when the value lies in `[0, 1]`.
    #[inline]
    pub fn is_unit(self) -> bool {
        (0.0..=1.0).contains(&self.0)
    }

    /// Smaller of two ratios.
    #[inline]
    pub fn min(self, other: Self) -> Self {
        Self(self.0.min(other.0))
    }

    /// Larger of two ratios.
    #[inline]
    pub fn max(self, other: Self) -> Self {
        Self(self.0.max(other.0))
    }
}

impl core::ops::Add for Ratio {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self(self.0 + rhs.0)
    }
}

impl core::ops::Sub for Ratio {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self(self.0 - rhs.0)
    }
}

impl core::ops::Mul<f64> for Ratio {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: f64) -> Self {
        Self(self.0 * rhs)
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(precision) = f.precision() {
            write!(f, "{:.precision$} %", self.as_percent())
        } else {
            write!(f, "{:.1} %", self.as_percent())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_roundtrip() {
        assert_eq!(Ratio::from_percent(42.0).as_percent(), 42.0);
    }

    #[test]
    fn clamp_unit_bounds() {
        assert_eq!(Ratio::new(-0.5).clamp_unit(), Ratio::ZERO);
        assert_eq!(Ratio::new(2.0).clamp_unit(), Ratio::ONE);
        assert!(Ratio::new(0.3).is_unit());
        assert!(!Ratio::new(1.3).is_unit());
    }

    #[test]
    fn display_is_percent() {
        assert_eq!(Ratio::from_percent(12.34).to_string(), "12.3 %");
        assert_eq!(format!("{:.0}", Ratio::ONE), "100 %");
    }
}
