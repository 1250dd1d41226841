//! The paper's three temperature classes and the quantizing sensor.

use core::fmt;

use dpm_kernel::{Traceable, VcdValue};
use dpm_units::Celsius;

/// Chip temperature as the managers see it (paper §1.3: *"the chip
/// temperature (coded in 3 classes: Low, Medium and High)"*).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub enum ThermalClass {
    /// Comfortable temperature; no thermal constraint.
    Low,
    /// Warm; prefer slower execution states.
    Medium,
    /// Hot; throttle hard (Table 1 forces `SL1` for most priorities).
    High,
}

impl ThermalClass {
    /// All classes, ascending.
    pub const ALL: [ThermalClass; 3] =
        [ThermalClass::Low, ThermalClass::Medium, ThermalClass::High];

    /// Dense index (0 = Low).
    #[inline]
    pub const fn index(self) -> usize {
        match self {
            ThermalClass::Low => 0,
            ThermalClass::Medium => 1,
            ThermalClass::High => 2,
        }
    }

    /// Single-letter code used in the paper's Table 1 (`L, M, H`).
    pub const fn code(self) -> char {
        match self {
            ThermalClass::Low => 'L',
            ThermalClass::Medium => 'M',
            ThermalClass::High => 'H',
        }
    }
}

impl fmt::Display for ThermalClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ThermalClass::Low => "Low",
            ThermalClass::Medium => "Medium",
            ThermalClass::High => "High",
        })
    }
}

impl Traceable for ThermalClass {
    const WIDTH: u32 = 2;
    fn vcd_value(&self) -> VcdValue {
        VcdValue::Bits(self.index() as u64)
    }
}

/// Quantizes a temperature into a [`ThermalClass`] with hysteresis, so a
/// die hovering at a boundary does not flood the managers with class
/// changes.
///
/// # Examples
///
/// ```
/// use dpm_thermal::{ThermalClass, ThermalClassifier};
/// use dpm_units::Celsius;
///
/// let mut c = ThermalClassifier::with_defaults();
/// assert_eq!(c.classify(Celsius::new(40.0)), ThermalClass::Low);
/// assert_eq!(c.classify(Celsius::new(75.0)), ThermalClass::High);
/// assert_eq!(c.classify(Celsius::new(69.0)), ThermalClass::High); // hysteresis
/// assert_eq!(c.classify(Celsius::new(66.0)), ThermalClass::Medium);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalClassifier {
    /// `[low→medium, medium→high]` boundaries.
    thresholds: [Celsius; 2],
    hysteresis_k: f64,
    last: Option<ThermalClass>,
}

impl ThermalClassifier {
    /// Default boundaries: Medium at 50 °C, High at 70 °C, 2 K hysteresis.
    pub fn with_defaults() -> Self {
        Self::new([Celsius::new(50.0), Celsius::new(70.0)], 2.0)
    }

    /// Custom boundaries (ascending) and hysteresis (kelvin).
    ///
    /// # Panics
    ///
    /// Panics on unsorted boundaries or a hysteresis that is negative or
    /// wider than half the class band.
    pub fn new(thresholds: [Celsius; 2], hysteresis_k: f64) -> Self {
        assert!(
            thresholds[0] < thresholds[1],
            "thermal thresholds must be ascending"
        );
        assert!(hysteresis_k >= 0.0, "hysteresis must be non-negative");
        assert!(
            2.0 * hysteresis_k < thresholds[1] - thresholds[0],
            "hysteresis too wide for the class band"
        );
        Self {
            thresholds,
            hysteresis_k,
            last: None,
        }
    }

    /// The class of `t` without hysteresis: one class up per boundary it
    /// reaches. Reads no history, so a projection may call it freely.
    pub fn quantize(&self, t: Celsius) -> ThermalClass {
        if t >= self.thresholds[1] {
            ThermalClass::High
        } else if t >= self.thresholds[0] {
            ThermalClass::Medium
        } else {
            ThermalClass::Low
        }
    }

    /// Classifies `t`, honouring hysteresis against the previous result.
    pub fn classify(&mut self, t: Celsius) -> ThermalClass {
        let raw = self.quantize(t);
        let Some(last) = self.last else {
            self.last = Some(raw);
            return raw;
        };
        if raw == last {
            return last;
        }
        let next = if raw > last {
            // heating: cross the boundary above `last` plus hysteresis
            let boundary = self.thresholds[last.index()];
            if t - boundary >= self.hysteresis_k {
                raw
            } else {
                last
            }
        } else {
            // cooling: cross the boundary below `last` minus hysteresis
            let boundary = self.thresholds[last.index() - 1];
            if boundary - t >= self.hysteresis_k {
                raw
            } else {
                last
            }
        };
        self.last = Some(next);
        next
    }

    /// The last classification, if any.
    pub fn current(&self) -> Option<ThermalClass> {
        self.last
    }

    /// Forgets history; the next classification is raw.
    pub fn reset(&mut self) {
        self.last = None;
    }
}

impl Default for ThermalClassifier {
    fn default() -> Self {
        Self::with_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_boundaries() {
        let mut c = ThermalClassifier::with_defaults();
        assert_eq!(c.classify(Celsius::new(25.0)), ThermalClass::Low);
        c.reset();
        assert_eq!(c.classify(Celsius::new(55.0)), ThermalClass::Medium);
        c.reset();
        assert_eq!(c.classify(Celsius::new(85.0)), ThermalClass::High);
    }

    #[test]
    fn hysteresis_blocks_chatter_at_boundary() {
        let mut c = ThermalClassifier::with_defaults();
        assert_eq!(c.classify(Celsius::new(49.0)), ThermalClass::Low);
        // wobble right at 50: stays Low until 52
        assert_eq!(c.classify(Celsius::new(50.5)), ThermalClass::Low);
        assert_eq!(c.classify(Celsius::new(51.9)), ThermalClass::Low);
        assert_eq!(c.classify(Celsius::new(52.1)), ThermalClass::Medium);
        // and back: stays Medium until 48
        assert_eq!(c.classify(Celsius::new(49.5)), ThermalClass::Medium);
        assert_eq!(c.classify(Celsius::new(47.9)), ThermalClass::Low);
    }

    #[test]
    fn double_jump_resolves_raw() {
        let mut c = ThermalClassifier::with_defaults();
        assert_eq!(c.classify(Celsius::new(30.0)), ThermalClass::Low);
        assert_eq!(c.classify(Celsius::new(95.0)), ThermalClass::High);
        assert_eq!(c.classify(Celsius::new(30.0)), ThermalClass::Low);
    }

    #[test]
    fn codes_match_paper() {
        let codes: String = ThermalClass::ALL.iter().map(|c| c.code()).collect();
        assert_eq!(codes, "LMH");
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn unsorted_thresholds_rejected() {
        let _ = ThermalClassifier::new([Celsius::new(70.0), Celsius::new(50.0)], 1.0);
    }
}
