//! End-of-task battery and temperature estimation.
//!
//! The paper (§1.3): when a task request arrives, the LEM *"estimates the
//! battery status and temperature value at the end of the task execution"*
//! (using the energy announced by the other IPs through the GEM) and
//! applies the selection rules to the *estimated* classes. This module
//! implements that projection:
//!
//! * battery — charge bookkeeping: subtract the task's nominal energy plus
//!   the other IPs' announced energy from the current state of charge;
//! * temperature — first-order step response toward the steady state the
//!   projected power level would reach.
//!
//! The classifications here are *static* (no hysteresis): estimates are
//! recomputed per task and must not carry sensor state.

use dpm_battery::BatteryClass;
use dpm_power::{InstructionMix, IpPowerModel, PowerState};
use dpm_thermal::ThermalClass;
use dpm_units::{Celsius, Energy, Power, SimDuration};

/// Projects battery and temperature to the end of a task.
#[derive(Debug, Clone, PartialEq)]
pub struct EndOfTaskEstimator {
    /// Battery capacity used for state-of-charge arithmetic.
    pub capacity: Energy,
    /// Static battery class boundaries (ascending fractions).
    pub battery_thresholds: [f64; 4],
    /// Static temperature class boundaries (ascending).
    pub temp_thresholds: [Celsius; 2],
    /// Ambient temperature of the thermal model.
    pub ambient: Celsius,
    /// Steady-state thermal gain (K per W of SoC power).
    pub thermal_resistance: f64,
    /// Thermal time constant (seconds) of the projection.
    pub thermal_tau_s: f64,
}

impl EndOfTaskEstimator {
    /// An estimator with the workspace default thresholds (matching the
    /// monitor classifiers) for a battery of the given capacity.
    pub fn new(capacity: Energy) -> Self {
        Self {
            capacity,
            battery_thresholds: [0.05, 0.25, 0.55, 0.85],
            temp_thresholds: [Celsius::new(50.0), Celsius::new(70.0)],
            ambient: Celsius::new(25.0),
            thermal_resistance: 40.0,
            thermal_tau_s: 0.1,
        }
    }

    /// Nominal (`ON1`) energy and duration of a task — the paper's LEM
    /// estimates consumption *"on the basis of the signals coming from the
    /// PSM"*; we use the IP's characterized model at nominal speed.
    pub fn task_nominal(
        &self,
        model: &IpPowerModel,
        instructions: u64,
        mix: &InstructionMix,
    ) -> (Energy, SimDuration) {
        let e = model
            .execution_energy(instructions, mix, PowerState::On1)
            .expect("ON1 always executes");
        let dt = model
            .execution_time(instructions, mix, PowerState::On1)
            .expect("ON1 always executes");
        (e, dt)
    }

    /// Static battery classification (no hysteresis).
    pub fn classify_battery(&self, soc: f64) -> BatteryClass {
        let soc = soc.clamp(0.0, 1.0);
        let mut idx = 0;
        for t in self.battery_thresholds {
            if soc >= t {
                idx += 1;
            }
        }
        BatteryClass::ALL[idx]
    }

    /// Static temperature classification (no hysteresis).
    pub fn classify_temperature(&self, t: Celsius) -> ThermalClass {
        if t >= self.temp_thresholds[1] {
            ThermalClass::High
        } else if t >= self.temp_thresholds[0] {
            ThermalClass::Medium
        } else {
            ThermalClass::Low
        }
    }

    /// Battery class at the end of the task: current charge minus the
    /// task's own energy and the energy announced by the other IPs.
    pub fn battery_at_end(
        &self,
        soc_now: f64,
        task_energy: Energy,
        others_energy: Energy,
    ) -> BatteryClass {
        let drain = (task_energy + others_energy) / self.capacity;
        self.classify_battery(soc_now - drain)
    }

    /// Temperature class at the end of the task: first-order response
    /// toward the steady state of the projected total power.
    pub fn temperature_at_end(
        &self,
        temp_now: Celsius,
        total_power: Power,
        duration: SimDuration,
    ) -> ThermalClass {
        let t_ss = self
            .ambient
            .plus_kelvin(self.thermal_resistance * total_power.as_watts());
        let frac = 1.0 - (-duration.as_secs_f64() / self.thermal_tau_s).exp();
        let t_end = temp_now.plus_kelvin((t_ss - temp_now) * frac);
        self.classify_temperature(t_end)
    }

    /// Full end-of-task projection for one task.
    ///
    /// `others_energy` is the GEM-provided sum of the other IPs' estimates;
    /// pass zero when there is no GEM.
    pub fn estimate(
        &self,
        model: &IpPowerModel,
        instructions: u64,
        mix: &InstructionMix,
        soc_now: f64,
        temp_now: Celsius,
        others_energy: Energy,
    ) -> (BatteryClass, ThermalClass) {
        let (e_task, dt) = self.task_nominal(model, instructions, mix);
        let p_self = model.mix_power(PowerState::On1, mix);
        self.estimate_nominal(e_task, dt, p_self, soc_now, temp_now, others_energy)
    }

    /// [`Self::estimate`] from the task's nominal energy and duration
    /// (see [`Self::task_nominal`]) and its `ON1` execution power, for a
    /// caller that already holds them.
    pub fn estimate_nominal(
        &self,
        e_task: Energy,
        dt: SimDuration,
        p_self: Power,
        soc_now: f64,
        temp_now: Celsius,
        others_energy: Energy,
    ) -> (BatteryClass, ThermalClass) {
        let battery = self.battery_at_end(soc_now, e_task, others_energy);
        let p_others = if dt.is_zero() {
            Power::ZERO
        } else {
            others_energy / dt
        };
        let temperature = self.temperature_at_end(temp_now, p_self + p_others, dt);
        (battery, temperature)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn estimator() -> EndOfTaskEstimator {
        EndOfTaskEstimator::new(Energy::from_joules(100.0))
    }

    #[test]
    fn static_battery_classification() {
        let e = estimator();
        assert_eq!(e.classify_battery(0.01), BatteryClass::Empty);
        assert_eq!(e.classify_battery(0.10), BatteryClass::Low);
        assert_eq!(e.classify_battery(0.40), BatteryClass::Medium);
        assert_eq!(e.classify_battery(0.70), BatteryClass::High);
        assert_eq!(e.classify_battery(0.99), BatteryClass::Full);
        assert_eq!(e.classify_battery(-1.0), BatteryClass::Empty);
    }

    #[test]
    fn battery_projection_includes_others() {
        let e = estimator();
        // soc 0.26 (Medium); task 0.5 J, others 1.0 J => soc 0.245 (Low)
        let cls = e.battery_at_end(0.26, Energy::from_joules(0.5), Energy::from_joules(1.0));
        assert_eq!(cls, BatteryClass::Low);
        // without the others it would still be Medium
        let cls = e.battery_at_end(0.26, Energy::from_joules(0.5), Energy::ZERO);
        assert_eq!(cls, BatteryClass::Medium);
    }

    #[test]
    fn temperature_projection_saturates_to_steady_state() {
        let e = estimator();
        // 1.5 W through 40 K/W => steady 85 °C: a long task ends High.
        let cls = e.temperature_at_end(
            Celsius::new(30.0),
            Power::from_watts(1.5),
            SimDuration::from_secs(10),
        );
        assert_eq!(cls, ThermalClass::High);
        // a very short task barely moves the needle
        let cls = e.temperature_at_end(
            Celsius::new(30.0),
            Power::from_watts(1.5),
            SimDuration::from_micros(10),
        );
        assert_eq!(cls, ThermalClass::Low);
    }

    #[test]
    fn cooling_projection_works_too() {
        let e = estimator();
        // hot chip, almost no power: a long "task" cools it to Low.
        let cls = e.temperature_at_end(
            Celsius::new(90.0),
            Power::from_milliwatts(10.0),
            SimDuration::from_secs(5),
        );
        assert_eq!(cls, ThermalClass::Low);
    }

    #[test]
    fn full_estimate_is_consistent() {
        let e = estimator();
        let model = IpPowerModel::default_cpu();
        let mix = InstructionMix::default();
        let (batt, temp) = e.estimate(&model, 100_000, &mix, 0.9, Celsius::new(30.0), Energy::ZERO);
        // a 100k-instruction task on a 100 J battery barely moves either
        assert_eq!(batt, BatteryClass::Full);
        assert_eq!(temp, ThermalClass::Low);
        // near a boundary the projection can demote the class
        let (batt, _) = e.estimate(
            &model,
            100_000,
            &mix,
            0.2501,
            Celsius::new(30.0),
            Energy::from_joules(2.0),
        );
        assert_eq!(batt, BatteryClass::Low);
    }

    #[test]
    fn task_nominal_matches_model() {
        let e = estimator();
        let model = IpPowerModel::default_cpu();
        let mix = InstructionMix::default();
        let (energy, dt) = e.task_nominal(&model, 1_000_000, &mix);
        assert_eq!(
            energy,
            model
                .execution_energy(1_000_000, &mix, PowerState::On1)
                .unwrap()
        );
        assert_eq!(
            dt,
            model
                .execution_time(1_000_000, &mix, PowerState::On1)
                .unwrap()
        );
    }
}
