//! The thermal monitor process: the paper's SystemC thermal sensor.
//!
//! Drives the RC network with the per-IP power signals and the fan state,
//! publishes the hottest die temperature and its class, mirrors the fan's
//! own power draw (so the battery sees it), and accumulates the
//! time-averaged temperature elevation used by the Table 2 metric.

use dpm_kernel::{Ctx, EventId, Process, ProcessId, Signal, Simulation};
use dpm_units::{Celsius, Power, SimDuration, SimTime};

use crate::network::ThermalNetwork;
use crate::sensor::{ThermalClass, ThermalClassifier};

/// Handles to a spawned [`ThermalMonitor`].
#[derive(Debug, Clone, Copy)]
pub struct ThermalMonitorHandles {
    /// The monitor process.
    pub pid: ProcessId,
    /// Hottest die temperature in °C.
    pub temperature: Signal<f64>,
    /// Quantized temperature class.
    pub class: Signal<ThermalClass>,
    /// Power drawn by the fan right now (W), for the battery monitor.
    pub fan_power: Signal<f64>,
}

/// Simulation process integrating the thermal network.
pub struct ThermalMonitor {
    network: ThermalNetwork,
    power_inputs: Vec<Signal<f64>>,
    fan_on: Signal<bool>,
    fan_draw: Power,
    cached_powers: Vec<Power>,
    cached_fan: bool,
    tick: EventId,
    period: SimDuration,
    last_step: SimTime,
    temp_out: Signal<f64>,
    class_out: Signal<ThermalClass>,
    fan_power_out: Signal<f64>,
    classifier: ThermalClassifier,
    /// ∫ (T_hot − T_amb) dt in kelvin-seconds, for the Table 2 metric.
    elevation_integral_ks: f64,
    max_temp: Celsius,
    fan_on_time: SimDuration,
}

impl ThermalMonitor {
    /// Builds the monitor, its output signals and sensitivity list.
    ///
    /// `power_inputs[i]` heats network node `i`; `fan_on` is written by
    /// the GEM; `fan_draw` is the fan's own consumption while running.
    ///
    /// # Panics
    ///
    /// Panics if the input count does not match the network's node count
    /// or the period is zero.
    #[allow(clippy::too_many_arguments)] // one port per physical connection
    pub fn spawn(
        sim: &mut Simulation,
        name: &str,
        network: ThermalNetwork,
        power_inputs: Vec<Signal<f64>>,
        fan_on: Signal<bool>,
        fan_draw: Power,
        period: SimDuration,
        mut classifier: ThermalClassifier,
    ) -> ThermalMonitorHandles {
        assert!(
            !period.is_zero(),
            "thermal sampling period must be non-zero"
        );
        assert_eq!(
            power_inputs.len(),
            network.node_count(),
            "one power input per thermal node"
        );
        let t0 = network.hottest();
        let class0 = classifier.classify(t0);
        let temp_out = sim.signal(&format!("{name}.temp"), t0.as_celsius());
        let class_out = sim.signal(&format!("{name}.class"), class0);
        let fan_power_out = sim.signal(&format!("{name}.fan_power"), 0.0f64);
        let tick = sim.event(&format!("{name}.tick"));
        let n = power_inputs.len();
        let monitor = ThermalMonitor {
            network,
            power_inputs: power_inputs.clone(),
            fan_on,
            fan_draw,
            cached_powers: vec![Power::ZERO; n],
            cached_fan: false,
            tick,
            period,
            last_step: SimTime::ZERO,
            temp_out,
            class_out,
            fan_power_out,
            classifier,
            elevation_integral_ks: 0.0,
            max_temp: t0,
            fan_on_time: SimDuration::ZERO,
        };
        let pid = sim.add_process(name, monitor);
        sim.sensitize(pid, tick);
        for sig in power_inputs {
            sim.sensitize_signal(pid, sig);
        }
        sim.sensitize_signal(pid, fan_on);
        ThermalMonitorHandles {
            pid,
            temperature: temp_out,
            class: class_out,
            fan_power: fan_power_out,
        }
    }

    /// Time-averaged temperature elevation over ambient (kelvin) across
    /// the window `[0, now_of_last_activation]`.
    pub fn mean_elevation(&self) -> f64 {
        let secs = self.last_step.as_secs_f64();
        if secs > 0.0 {
            self.elevation_integral_ks / secs
        } else {
            0.0
        }
    }

    /// Raw elevation integral (K·s).
    pub fn elevation_integral(&self) -> f64 {
        self.elevation_integral_ks
    }

    /// Hottest temperature observed so far.
    pub fn max_temp(&self) -> Celsius {
        self.max_temp
    }

    /// Total time the fan has been running.
    pub fn fan_on_time(&self) -> SimDuration {
        self.fan_on_time
    }

    /// The fan's electrical draw while running.
    pub fn fan_draw(&self) -> Power {
        self.fan_draw
    }

    /// Immutable view of the thermal network (post-run inspection).
    pub fn network(&self) -> &ThermalNetwork {
        &self.network
    }

    fn refresh_cache(&mut self, ctx: &Ctx<'_>) {
        for (i, sig) in self.power_inputs.iter().enumerate() {
            self.cached_powers[i] = Power::from_watts(ctx.read(*sig).max(0.0));
        }
        self.cached_fan = ctx.read(self.fan_on);
    }

    fn settle(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let dt = now.saturating_duration_since(self.last_step);
        let mut hottest = self.network.hottest();
        if !dt.is_zero() {
            // Integrate the elevation with the trapezoid of pre/post temps.
            let before = hottest;
            self.network.step(&self.cached_powers, self.cached_fan, dt);
            let after = self.network.hottest();
            let amb = self.network.ambient();
            let mean_elev = ((before - amb) + (after - amb)) * 0.5;
            self.elevation_integral_ks += mean_elev.max(0.0) * dt.as_secs_f64();
            if self.cached_fan {
                self.fan_on_time += dt;
            }
            self.max_temp = self.max_temp.max(after);
            hottest = after;
        }
        self.last_step = now;
        self.refresh_cache(ctx);
        let class = self.classifier.classify(hottest);
        let fan_power = if self.cached_fan {
            self.fan_draw.as_watts()
        } else {
            0.0
        };
        ctx.write(self.temp_out, hottest.as_celsius());
        ctx.write(self.class_out, class);
        ctx.write(self.fan_power_out, fan_power);
    }
}

impl Process for ThermalMonitor {
    fn init(&mut self, ctx: &mut Ctx<'_>) {
        self.last_step = ctx.now();
        self.refresh_cache(ctx);
        ctx.notify(self.tick, self.period);
    }

    fn react(&mut self, ctx: &mut Ctx<'_>) {
        self.settle(ctx);
        if ctx.triggered(self.tick) {
            ctx.notify(self.tick, self.period);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::ThermalNetworkConfig;

    fn setup(initial: Celsius, watts: f64) -> (Simulation, ThermalMonitorHandles, Signal<bool>) {
        let mut sim = Simulation::new();
        let power = sim.signal("ip0.power", watts);
        let fan = sim.signal("fan.on", false);
        let net = ThermalNetwork::new(ThermalNetworkConfig::default_soc(1).starting_at(initial));
        let handles = ThermalMonitor::spawn(
            &mut sim,
            "thermal",
            net,
            vec![power],
            fan,
            Power::from_milliwatts(150.0),
            SimDuration::from_millis(1),
            ThermalClassifier::with_defaults(),
        );
        (sim, handles, fan)
    }

    #[test]
    fn reports_heating_and_class_changes() {
        let (mut sim, handles, _) = setup(Celsius::new(25.0), 1.2);
        assert_eq!(sim.peek(handles.class), ThermalClass::Low);
        sim.run_until(SimTime::from_secs(1));
        // 1.2 W through 40 K/W => ~73 K elevation at the package: High.
        assert!(sim.peek(handles.temperature) > 60.0);
        assert_eq!(sim.peek(handles.class), ThermalClass::High);
        let max = sim.with_process::<ThermalMonitor, _>(handles.pid, |m| m.max_temp());
        assert!(max > Celsius::new(60.0));
    }

    #[test]
    fn elevation_integral_grows_with_heat() {
        let (mut sim, handles, _) = setup(Celsius::new(25.0), 0.8);
        sim.run_until(SimTime::from_millis(500));
        let mean = sim.with_process::<ThermalMonitor, _>(handles.pid, |m| m.mean_elevation());
        assert!(mean > 1.0, "mean elevation {mean} K");
        let (mut cool_sim, cool_handles, _) = setup(Celsius::new(25.0), 0.05);
        cool_sim.run_until(SimTime::from_millis(500));
        let cool_mean =
            cool_sim.with_process::<ThermalMonitor, _>(cool_handles.pid, |m| m.mean_elevation());
        assert!(cool_mean < mean);
    }

    /// Turns the fan on at a fixed time (stand-in for the GEM).
    struct FanSwitcher {
        fan: Signal<bool>,
        at: EventId,
    }
    impl Process for FanSwitcher {
        fn init(&mut self, ctx: &mut Ctx<'_>) {
            ctx.notify(self.at, SimDuration::from_millis(100));
        }
        fn react(&mut self, ctx: &mut Ctx<'_>) {
            ctx.write(self.fan, true);
        }
    }

    #[test]
    fn fan_cools_and_draws_power() {
        let (mut sim, handles, fan) = setup(Celsius::new(90.0), 0.0);
        let at = sim.event("switch.at");
        let pid = sim.add_process("switcher", FanSwitcher { fan, at });
        sim.sensitize(pid, at);
        // just before the switch: fan idle (the horizon is inclusive, so
        // stopping exactly at 100 ms would already see the fan on)
        sim.run_until(SimTime::from_millis(99));
        let before_fan = sim.peek(handles.temperature);
        assert_eq!(sim.peek(handles.fan_power), 0.0);
        sim.run_until(SimTime::from_millis(160));
        assert!(sim.peek(handles.temperature) < before_fan);
        assert!(sim.peek(handles.fan_power) > 0.0);
        let on_time = sim.with_process::<ThermalMonitor, _>(handles.pid, |m| m.fan_on_time());
        assert!(on_time >= SimDuration::from_millis(50));
    }

    #[test]
    #[should_panic(expected = "one power input per thermal node")]
    fn input_count_mismatch_rejected() {
        let mut sim = Simulation::new();
        let fan = sim.signal("fan.on", false);
        let net = ThermalNetwork::new(ThermalNetworkConfig::default_soc(2));
        let _ = ThermalMonitor::spawn(
            &mut sim,
            "thermal",
            net,
            vec![],
            fan,
            Power::ZERO,
            SimDuration::from_millis(1),
            ThermalClassifier::with_defaults(),
        );
    }
}
