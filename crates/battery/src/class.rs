//! The paper's five battery status classes and a hysteresis quantizer.

use core::fmt;

use dpm_kernel::{Traceable, VcdValue};
use dpm_units::Ratio;

/// Battery status as the LEM/GEM see it (paper §1.3: *"the battery status
/// (coded in 5 classes: Empty, Low, Medium, High and Full)"*).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub enum BatteryClass {
    /// Practically no charge left; only the most critical work may run.
    Empty,
    /// Running low; aggressive saving.
    Low,
    /// Comfortable middle.
    Medium,
    /// Nearly full.
    High,
    /// Fully charged.
    Full,
}

impl BatteryClass {
    /// All classes, ascending.
    pub const ALL: [BatteryClass; 5] = [
        BatteryClass::Empty,
        BatteryClass::Low,
        BatteryClass::Medium,
        BatteryClass::High,
        BatteryClass::Full,
    ];

    /// Dense index (0 = Empty).
    #[inline]
    pub const fn index(self) -> usize {
        match self {
            BatteryClass::Empty => 0,
            BatteryClass::Low => 1,
            BatteryClass::Medium => 2,
            BatteryClass::High => 3,
            BatteryClass::Full => 4,
        }
    }

    /// Single-letter code used in the paper's Table 1 (`E, L, M, H, F`).
    pub const fn code(self) -> char {
        match self {
            BatteryClass::Empty => 'E',
            BatteryClass::Low => 'L',
            BatteryClass::Medium => 'M',
            BatteryClass::High => 'H',
            BatteryClass::Full => 'F',
        }
    }
}

impl fmt::Display for BatteryClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BatteryClass::Empty => "Empty",
            BatteryClass::Low => "Low",
            BatteryClass::Medium => "Medium",
            BatteryClass::High => "High",
            BatteryClass::Full => "Full",
        };
        f.write_str(s)
    }
}

impl Traceable for BatteryClass {
    const WIDTH: u32 = 3;
    fn vcd_value(&self) -> VcdValue {
        VcdValue::Bits(self.index() as u64)
    }
}

/// What currently powers the SoC. Table 1's last row selects `ON1`
/// whenever the system runs from the mains ("Power supply") and the
/// temperature allows it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum PowerSource {
    /// Running from the battery; status classes drive the policy.
    Battery,
    /// Running from a power supply; energy is "free", latency rules.
    Mains,
}

impl fmt::Display for PowerSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PowerSource::Battery => "battery",
            PowerSource::Mains => "mains",
        })
    }
}

impl Traceable for PowerSource {
    const WIDTH: u32 = 1;
    fn vcd_value(&self) -> VcdValue {
        VcdValue::Bits(matches!(self, PowerSource::Mains) as u64)
    }
}

/// Quantizes a state of charge into a [`BatteryClass`] with hysteresis.
///
/// Plain threshold quantization chatters when the SoC hovers at a
/// boundary (each sampling period would flip the class and wake every
/// sensitive manager). The classifier therefore only leaves the current
/// class when the SoC moves `hysteresis` beyond the boundary.
///
/// # Examples
///
/// ```
/// use dpm_battery::{BatteryClass, BatteryClassifier};
/// use dpm_units::Ratio;
///
/// let mut c = BatteryClassifier::with_defaults();
/// assert_eq!(c.classify(Ratio::new(0.9)), BatteryClass::Full);
/// assert_eq!(c.classify(Ratio::new(0.845)), BatteryClass::Full); // within hysteresis
/// assert_eq!(c.classify(Ratio::new(0.82)), BatteryClass::High);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BatteryClassifier {
    /// Ascending boundaries between the five classes.
    thresholds: [f64; 4],
    hysteresis: f64,
    last: Option<BatteryClass>,
}

impl BatteryClassifier {
    /// Default boundaries: Empty < 5 % ≤ Low < 25 % ≤ Medium < 55 % ≤
    /// High < 85 % ≤ Full, with ±1 % hysteresis.
    pub fn with_defaults() -> Self {
        Self::new([0.05, 0.25, 0.55, 0.85], 0.01)
    }

    /// Custom boundaries (ascending, within `(0, 1)`) and hysteresis.
    ///
    /// # Panics
    ///
    /// Panics on unsorted thresholds or a hysteresis that is negative or
    /// wider than the narrowest class band.
    pub fn new(thresholds: [f64; 4], hysteresis: f64) -> Self {
        assert!(
            thresholds.windows(2).all(|w| w[0] < w[1]),
            "battery class thresholds must be strictly ascending"
        );
        assert!(
            thresholds.iter().all(|t| (0.0..1.0).contains(t)),
            "battery class thresholds must lie in (0, 1)"
        );
        assert!(hysteresis >= 0.0, "hysteresis must be non-negative");
        let min_band = thresholds
            .windows(2)
            .map(|w| w[1] - w[0])
            .fold(f64::INFINITY, f64::min);
        assert!(
            2.0 * hysteresis < min_band,
            "hysteresis {hysteresis} too wide for the narrowest class band {min_band}"
        );
        Self {
            thresholds,
            hysteresis,
            last: None,
        }
    }

    /// The class of `soc` without hysteresis: one class up per boundary
    /// it reaches. Reads no history, so a projection may call it freely.
    pub fn quantize(&self, soc: f64) -> BatteryClass {
        let mut idx = 0;
        for t in self.thresholds {
            if soc >= t {
                idx += 1;
            }
        }
        BatteryClass::ALL[idx]
    }

    /// Classifies `soc`, honouring hysteresis against the previous result.
    pub fn classify(&mut self, soc: Ratio) -> BatteryClass {
        let soc = soc.clamp_unit().value();
        let raw = self.quantize(soc);
        let Some(last) = self.last else {
            self.last = Some(raw);
            return raw;
        };
        if raw == last {
            return last;
        }
        // Moving up requires clearing the boundary above the last class by
        // the hysteresis margin; moving down symmetrically.
        let next = if raw > last {
            let boundary = self.thresholds[last.index()]; // boundary above `last`
            if soc >= boundary + self.hysteresis {
                raw
            } else {
                last
            }
        } else {
            let boundary = self.thresholds[last.index() - 1]; // boundary below `last`
            if soc < boundary - self.hysteresis {
                raw
            } else {
                last
            }
        };
        self.last = Some(next);
        next
    }

    /// The last classification, if any.
    pub fn current(&self) -> Option<BatteryClass> {
        self.last
    }

    /// Forgets the classification history (the next call is raw).
    pub fn reset(&mut self) {
        self.last = None;
    }
}

impl Default for BatteryClassifier {
    fn default() -> Self {
        Self::with_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_boundaries() {
        let mut c = BatteryClassifier::with_defaults();
        assert_eq!(c.classify(Ratio::new(0.00)), BatteryClass::Empty);
        c.reset();
        assert_eq!(c.classify(Ratio::new(0.10)), BatteryClass::Low);
        c.reset();
        assert_eq!(c.classify(Ratio::new(0.40)), BatteryClass::Medium);
        c.reset();
        assert_eq!(c.classify(Ratio::new(0.70)), BatteryClass::High);
        c.reset();
        assert_eq!(c.classify(Ratio::new(1.00)), BatteryClass::Full);
    }

    #[test]
    fn hysteresis_prevents_chatter() {
        let mut c = BatteryClassifier::with_defaults();
        assert_eq!(c.classify(Ratio::new(0.26)), BatteryClass::Medium);
        // dithering right at the 0.25 boundary stays Medium
        for soc in [0.249, 0.251, 0.248, 0.252, 0.2401] {
            assert_eq!(c.classify(Ratio::new(soc)), BatteryClass::Medium, "{soc}");
        }
        // a decisive move below the hysteresis band flips to Low
        assert_eq!(c.classify(Ratio::new(0.2399)), BatteryClass::Low);
        // and dithering at the boundary again stays Low
        assert_eq!(c.classify(Ratio::new(0.2550)), BatteryClass::Low);
        assert_eq!(c.classify(Ratio::new(0.2601)), BatteryClass::Medium);
    }

    #[test]
    fn multi_class_jumps_resolve_raw() {
        let mut c = BatteryClassifier::with_defaults();
        assert_eq!(c.classify(Ratio::new(0.9)), BatteryClass::Full);
        // a crash from Full to 10% is far beyond hysteresis of any boundary
        assert_eq!(c.classify(Ratio::new(0.10)), BatteryClass::Low);
    }

    #[test]
    fn out_of_range_soc_is_clamped() {
        let mut c = BatteryClassifier::with_defaults();
        assert_eq!(c.classify(Ratio::new(-0.2)), BatteryClass::Empty);
        assert_eq!(c.classify(Ratio::new(1.7)), BatteryClass::Full);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_thresholds_rejected() {
        let _ = BatteryClassifier::new([0.3, 0.2, 0.5, 0.8], 0.01);
    }

    #[test]
    #[should_panic(expected = "too wide")]
    fn oversized_hysteresis_rejected() {
        let _ = BatteryClassifier::new([0.05, 0.25, 0.55, 0.85], 0.2);
    }

    #[test]
    fn codes_match_paper_table() {
        let codes: String = BatteryClass::ALL.iter().map(|c| c.code()).collect();
        assert_eq!(codes, "ELMHF");
    }

    #[test]
    fn ordering_is_by_charge() {
        assert!(BatteryClass::Empty < BatteryClass::Low);
        assert!(BatteryClass::High < BatteryClass::Full);
    }
}
