//! Declarative SoC configuration.
//!
//! The LEM tuning a [`SocConfig`] carries is `dpm_core`'s [`LemTuning`],
//! re-exported here, so its fields and defaults have one definition and
//! the builder hands it to each LEM whole.

use dpm_battery::PowerSource;
pub use dpm_core::LemTuning;
use dpm_power::{IpPowerModel, PowerState};
use dpm_units::{Celsius, Energy, Power, Ratio, SimDuration};
use dpm_workload::TaskTrace;

/// One IP block of the SoC.
#[derive(Debug, Clone, PartialEq)]
pub struct IpConfig {
    /// Instance name (used for hierarchical signal names).
    pub name: String,
    /// Power characterization.
    pub model: IpPowerModel,
    /// Pre-generated task sequence to replay.
    pub trace: TaskTrace,
    /// Static priority rank for the GEM (**1 is highest**).
    pub static_rank: u8,
}

impl IpConfig {
    /// An IP with the default CPU model.
    pub fn new(name: impl Into<String>, trace: TaskTrace, static_rank: u8) -> Self {
        Self {
            name: name.into(),
            model: IpPowerModel::default_cpu(),
            trace,
            static_rank,
        }
    }
}

/// Which controller governs each IP.
#[derive(Debug, Clone, PartialEq)]
pub enum ControllerKind {
    /// The paper's LEM (optionally under a GEM).
    Dpm,
    /// Always `ON1`, never sleeps — the Table 2 reference.
    AlwaysOn,
    /// Classic fixed-timeout policy.
    Timeout {
        /// Idle time before sleeping.
        timeout: SimDuration,
        /// Sleep state entered on timeout.
        state: PowerState,
    },
    /// Clairvoyant sleeping (perfect idle knowledge).
    Oracle,
}

/// Battery model choice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BatteryKind {
    /// Ideal energy tank.
    Linear,
    /// Peukert-style rate-capacity losses above the given nominal power.
    RateCapacity {
        /// Nominal discharge power.
        p_ref: Power,
        /// Peukert exponent.
        peukert: f64,
    },
    /// Kinetic battery model with charge recovery.
    Kibam,
}

/// Thermal scenario of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalScenario {
    /// Ambient temperature.
    pub ambient: Celsius,
    /// Initial die/package temperature (the paper's "Temperature High"
    /// scenarios start hot).
    pub initial: Celsius,
    /// Fan electrical draw while running.
    pub fan_draw: Power,
}

impl ThermalScenario {
    /// Cool start (25 °C ambient, 30 °C die).
    pub fn cool() -> Self {
        Self {
            ambient: Celsius::new(25.0),
            initial: Celsius::new(30.0),
            fan_draw: Power::from_milliwatts(150.0),
        }
    }

    /// Hot start, the paper's "Temperature High": the die begins just
    /// above the High threshold (70 °C), so the DPM throttles briefly and
    /// recovers — matching the paper's modest A3 delay overhead (37 %).
    pub fn hot() -> Self {
        Self {
            initial: Celsius::new(71.5),
            ..Self::cool()
        }
    }
}

/// The whole SoC.
#[derive(Debug, Clone, PartialEq)]
pub struct SocConfig {
    /// The IP blocks.
    pub ips: Vec<IpConfig>,
    /// Controller family for every IP.
    pub controller: ControllerKind,
    /// LEM tuning (used when `controller` is [`ControllerKind::Dpm`]).
    pub lem: LemTuning,
    /// Battery model.
    pub battery: BatteryKind,
    /// Battery capacity.
    pub battery_capacity: Energy,
    /// Starting state of charge.
    pub initial_soc: Ratio,
    /// Battery vs mains.
    pub source: PowerSource,
    /// Thermal scenario.
    pub thermal: ThermalScenario,
    /// Instantiate the GEM (scenarios B/C) or run LEMs standalone
    /// (scenarios A).
    pub with_gem: bool,
    /// Monitor sampling period.
    pub sample_period: SimDuration,
    /// Add a free-running `ON1`-rate clock so the run can be measured in
    /// kilo-cycles per wall second like the paper's SystemC model.
    pub cycle_accurate: bool,
}

impl SocConfig {
    /// A single-IP SoC with paper-faithful defaults (battery-powered,
    /// cool, LEM-controlled, no GEM).
    pub fn single_ip(trace: TaskTrace) -> Self {
        Self {
            ips: vec![IpConfig::new("ip0", trace, 1)],
            controller: ControllerKind::Dpm,
            lem: LemTuning::default(),
            battery: BatteryKind::Linear,
            battery_capacity: Energy::from_joules(50.0),
            initial_soc: Ratio::new(0.95),
            source: PowerSource::Battery,
            thermal: ThermalScenario::cool(),
            with_gem: false,
            sample_period: SimDuration::from_millis(1),
            cycle_accurate: false,
        }
    }

    /// A multi-IP SoC under a GEM.
    pub fn multi_ip(ips: Vec<IpConfig>) -> Self {
        let mut cfg = Self::single_ip(TaskTrace::new());
        cfg.ips = ips;
        cfg.with_gem = true;
        cfg
    }

    /// Returns the same SoC with a different controller (used to derive
    /// the baseline run from a DPM run).
    #[must_use]
    pub fn with_controller(mut self, controller: ControllerKind) -> Self {
        self.controller = controller;
        self
    }

    /// Returns the same SoC with a different LEM tuning.
    #[must_use]
    pub fn with_lem(mut self, lem: LemTuning) -> Self {
        self.lem = lem;
        self
    }

    /// Returns the same SoC with a different battery model.
    #[must_use]
    pub fn with_battery(mut self, battery: BatteryKind) -> Self {
        self.battery = battery;
        self
    }

    /// Returns the same SoC with a different thermal scenario.
    #[must_use]
    pub fn with_thermal(mut self, thermal: ThermalScenario) -> Self {
        self.thermal = thermal;
        self
    }

    /// Validates structural invariants.
    ///
    /// # Panics
    ///
    /// Panics on an empty IP list, duplicate names, or invalid ranks.
    pub fn validate(&self) {
        self.validate_on(&self.ips);
    }

    /// [`Self::validate`] with `ips` in place of `self.ips`.
    pub(crate) fn validate_on(&self, ips: &[IpConfig]) {
        assert!(!ips.is_empty(), "SoC needs at least one IP");
        let mut names: Vec<&str> = ips.iter().map(|ip| ip.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ips.len(), "duplicate IP names");
        assert!(
            ips.iter().all(|ip| ip.static_rank >= 1),
            "static ranks start at 1"
        );
        assert!(
            self.battery_capacity.as_joules() > 0.0,
            "battery capacity must be positive"
        );
        assert!(
            !self.sample_period.is_zero(),
            "sample period must be non-zero"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_ip_defaults_validate() {
        SocConfig::single_ip(TaskTrace::new()).validate();
    }

    #[test]
    #[should_panic(expected = "duplicate IP names")]
    fn duplicate_names_rejected() {
        let cfg = SocConfig::multi_ip(vec![
            IpConfig::new("ip", TaskTrace::new(), 1),
            IpConfig::new("ip", TaskTrace::new(), 2),
        ]);
        cfg.validate();
    }

    #[test]
    fn with_controller_swaps_only_controller() {
        let cfg = SocConfig::single_ip(TaskTrace::new());
        let base = cfg.clone().with_controller(ControllerKind::AlwaysOn);
        assert_eq!(base.controller, ControllerKind::AlwaysOn);
        assert_eq!(base.initial_soc, cfg.initial_soc);
    }

    #[test]
    fn thermal_presets() {
        assert!(ThermalScenario::hot().initial > ThermalScenario::cool().initial);
        assert_eq!(
            ThermalScenario::hot().ambient,
            ThermalScenario::cool().ambient
        );
    }
}
