//! The Global Energy Manager.
//!
//! The paper (§1.4): the GEM *"receives resource requests from all the IP
//! blocks … defines a static priority to each IP … returns to each LEM
//! the energy requested by the other IP blocks … can force each PSM in
//! Sleep1 state if the resources are limited and the IP has low
//! priority"*, with the intentionally simple algorithm:
//!
//! ```text
//! if (battery is Medium or High or Full) and (temperature is Low or Medium):
//!     enable every IP
//! else if (battery is Empty or Low) and (temperature is Low or Medium):
//!     enable IPs with high priority
//! else:
//!     do not enable any IP
//!     switch on a supplementary fan
//! ```
//!
//! In this implementation the "force to Sleep1" is realized through the
//! per-IP `enable` signals: a disabled LEM parks its PSM in `SL1` and
//! defers its queue (see [`crate::Lem`]), which is behaviourally
//! equivalent and keeps a single writer per PSM command fifo.

use dpm_battery::{BatteryClass, PowerSource};
use dpm_kernel::{Ctx, Fifo, Process, ProcessId, Signal, Simulation};
use dpm_thermal::ThermalClass;
use dpm_units::Energy;

use crate::msg::GemRequest;

/// The per-LEM view of the GEM (stored inside
/// [`LemPorts`](crate::LemPorts)).
#[derive(Debug, Clone, Copy)]
pub struct GemLemPorts {
    /// Shared request fifo (every LEM pushes here).
    pub requests: Fifo<GemRequest>,
    /// This IP's conditional enable.
    pub enable: Signal<bool>,
    /// Energy requested by the *other* IPs (J), for end-of-task estimation.
    pub others_energy: Signal<f64>,
}

/// GEM configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct GemConfig {
    /// Static priority rank per IP; **1 is the highest**.
    pub static_priorities: Vec<u8>,
    /// Ranks `<= cutoff` count as "high priority" in the enable rule.
    pub high_priority_cutoff: u8,
    /// Power source of the SoC (on mains the battery branch never fires).
    pub source: PowerSource,
}

impl GemConfig {
    /// Ranks `1..=n` in IP order with the top half counted as high
    /// priority (matching the paper's scenarios B/C where IP1 and IP2 of
    /// four stay enabled).
    pub fn ranked(n: usize, source: PowerSource) -> Self {
        assert!(n > 0, "GEM needs at least one IP");
        Self {
            static_priorities: (1..=n as u8).collect(),
            high_priority_cutoff: high_priority_cutoff(n),
            source,
        }
    }

    fn validate(&self) {
        assert!(
            !self.static_priorities.is_empty(),
            "GEM needs at least one IP"
        );
        assert!(
            self.static_priorities.iter().all(|r| *r >= 1),
            "priority ranks start at 1"
        );
        assert!(self.high_priority_cutoff >= 1, "cutoff must be >= 1");
    }
}

/// The lowest static rank that counts as high priority among `n` IPs:
/// the top half, rounded up.
pub fn high_priority_cutoff(n: usize) -> u8 {
    (n as u8).div_ceil(2)
}

/// The paper's enable rule (see the module docs) for one IP, given
/// whether its static rank counts as high priority: whether it stays
/// enabled, and whether the supplementary fan runs. On mains the
/// battery never gates anything.
pub fn enable_rule(
    source: PowerSource,
    battery: BatteryClass,
    temperature: ThermalClass,
    high_priority: bool,
) -> (bool, bool) {
    let battery_fine = source == PowerSource::Mains || battery >= BatteryClass::Medium;
    if temperature <= ThermalClass::Medium {
        (battery_fine || high_priority, false)
    } else {
        (false, true)
    }
}

/// Activity counters of the GEM.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GemStats {
    /// Requests received from the LEMs.
    pub requests_seen: u64,
    /// Transitions of any enable signal.
    pub enable_changes: u64,
    /// Fan on/off switches.
    pub fan_switches: u64,
}

/// Ports created by [`Gem::spawn`] for the SoC builder to distribute.
#[derive(Debug, Clone)]
pub struct GemHandles {
    /// The GEM process.
    pub pid: ProcessId,
    /// Shared request fifo.
    pub requests: Fifo<GemRequest>,
    /// Per-IP enable signals.
    pub enables: Vec<Signal<bool>>,
    /// Per-IP "energy requested by the others" signals.
    pub others_energy: Vec<Signal<f64>>,
    /// Fan control (consumed by the thermal monitor).
    pub fan_on: Signal<bool>,
}

impl GemHandles {
    /// The [`GemLemPorts`] bundle for IP `i`.
    pub fn lem_ports(&self, i: usize) -> GemLemPorts {
        GemLemPorts {
            requests: self.requests,
            enable: self.enables[i],
            others_energy: self.others_energy[i],
        }
    }
}

/// The Global Energy Manager process.
pub struct Gem {
    cfg: GemConfig,
    requests: Fifo<GemRequest>,
    battery_class: Signal<BatteryClass>,
    temp_class: Signal<ThermalClass>,
    enables: Vec<Signal<bool>>,
    others_energy: Vec<Signal<f64>>,
    fan_on: Signal<bool>,
    latest_estimates: Vec<Energy>,
    last_enables: Vec<bool>,
    last_fan: bool,
    stats: GemStats,
}

impl Gem {
    /// Creates the GEM, its enable/others signals and sensitivity list.
    /// The `fan_on` signal is created by the SoC builder (the thermal
    /// monitor needs it before the GEM exists) and driven by the GEM.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration.
    pub fn spawn(
        sim: &mut Simulation,
        name: &str,
        cfg: GemConfig,
        battery_class: Signal<BatteryClass>,
        temp_class: Signal<ThermalClass>,
        fan_on: Signal<bool>,
    ) -> GemHandles {
        cfg.validate();
        let n = cfg.static_priorities.len();
        let requests = sim.fifo(&format!("{name}.requests"), 64);
        let enables: Vec<Signal<bool>> = (0..n)
            .map(|i| sim.signal(&format!("{name}.enable{i}"), true))
            .collect();
        let others_energy: Vec<Signal<f64>> = (0..n)
            .map(|i| sim.signal(&format!("{name}.others{i}"), 0.0f64))
            .collect();
        let gem = Gem {
            cfg,
            requests,
            battery_class,
            temp_class,
            enables: enables.clone(),
            others_energy: others_energy.clone(),
            fan_on,
            latest_estimates: vec![Energy::ZERO; n],
            last_enables: vec![true; n],
            last_fan: false,
            stats: GemStats::default(),
        };
        let pid = sim.add_process(name, gem);
        sim.sensitize(pid, requests.written_event());
        sim.sensitize_signal(pid, battery_class);
        sim.sensitize_signal(pid, temp_class);
        GemHandles {
            pid,
            requests,
            enables,
            others_energy,
            fan_on,
        }
    }

    /// The accumulated statistics.
    pub fn stats(&self) -> &GemStats {
        &self.stats
    }

    /// [`enable_rule`] for every IP under the current classes. Returns
    /// `(enable_mask, fan_on)`.
    fn evaluate(&self, battery: BatteryClass, temperature: ThermalClass) -> (Vec<bool>, bool) {
        let mut fan = false;
        let mask = self
            .cfg
            .static_priorities
            .iter()
            .map(|&rank| {
                let high_priority = rank <= self.cfg.high_priority_cutoff;
                let (enabled, fan_on) =
                    enable_rule(self.cfg.source, battery, temperature, high_priority);
                fan = fan_on;
                enabled
            })
            .collect();
        (mask, fan)
    }
}

impl Process for Gem {
    fn init(&mut self, ctx: &mut Ctx<'_>) {
        // publish the initial decision
        self.react(ctx);
    }

    fn react(&mut self, ctx: &mut Ctx<'_>) {
        while let Some(req) = ctx.fifo_pop(self.requests) {
            self.stats.requests_seen += 1;
            if let Some(slot) = self.latest_estimates.get_mut(req.ip as usize) {
                *slot = req.energy_estimate;
            }
        }
        let battery = ctx.read(self.battery_class);
        let temperature = ctx.read(self.temp_class);
        let (mask, fan) = self.evaluate(battery, temperature);
        for (i, enable) in mask.iter().enumerate() {
            if self.last_enables[i] != *enable {
                self.stats.enable_changes += 1;
                self.last_enables[i] = *enable;
            }
            ctx.write(self.enables[i], *enable);
        }
        if self.last_fan != fan {
            self.stats.fan_switches += 1;
            self.last_fan = fan;
        }
        ctx.write(self.fan_on, fan);
        // redistribute the energy estimates
        let total: Energy = self.latest_estimates.iter().copied().sum();
        for (i, sig) in self.others_energy.iter().enumerate() {
            let others = total - self.latest_estimates[i];
            ctx.write(*sig, others.as_joules());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpm_units::{SimDuration, SimTime};
    use dpm_workload::Priority;

    struct Rig {
        sim: Simulation,
        handles: GemHandles,
        battery: Signal<BatteryClass>,
        temp: Signal<ThermalClass>,
    }

    fn rig(n: usize) -> Rig {
        let mut sim = Simulation::new();
        let battery = sim.signal("battery.class", BatteryClass::Full);
        let temp = sim.signal("thermal.class", ThermalClass::Low);
        let fan_on = sim.signal("fan.on", false);
        let handles = Gem::spawn(
            &mut sim,
            "gem",
            GemConfig::ranked(n, PowerSource::Battery),
            battery,
            temp,
            fan_on,
        );
        Rig {
            sim,
            handles,
            battery,
            temp,
        }
    }

    /// One-shot signal setter process (drives sensor classes in tests).
    fn set<T: dpm_kernel::SignalValue>(r: &mut Rig, sig: Signal<T>, value: T) {
        struct Setter<T: dpm_kernel::SignalValue> {
            sig: Signal<T>,
            value: Option<T>,
            kick: dpm_kernel::EventId,
        }
        impl<T: dpm_kernel::SignalValue> Process for Setter<T> {
            fn init(&mut self, ctx: &mut Ctx<'_>) {
                ctx.notify_delta(self.kick);
            }
            fn react(&mut self, ctx: &mut Ctx<'_>) {
                if let Some(v) = self.value.take() {
                    ctx.write(self.sig, v);
                }
            }
        }
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let kick = r.sim.event(&format!("gemsetter{n}.kick"));
        let pid = r.sim.add_process(
            &format!("gemsetter{n}"),
            Setter {
                sig,
                value: Some(value),
                kick,
            },
        );
        r.sim.sensitize(pid, kick);
        r.sim.run_for(SimDuration::ZERO);
    }

    fn enables(r: &Rig) -> Vec<bool> {
        r.handles.enables.iter().map(|e| r.sim.peek(*e)).collect()
    }

    #[test]
    fn healthy_resources_enable_everyone() {
        let mut r = rig(4);
        r.sim.run_until(SimTime::from_micros(1));
        assert_eq!(enables(&r), vec![true; 4]);
        assert!(!r.sim.peek(r.handles.fan_on));
    }

    #[test]
    fn low_battery_enables_only_high_priority() {
        let mut r = rig(4);
        let b = r.battery;
        set(&mut r, b, BatteryClass::Low);
        assert_eq!(enables(&r), vec![true, true, false, false]);
        assert!(!r.sim.peek(r.handles.fan_on));
    }

    #[test]
    fn high_temperature_disables_all_and_starts_fan() {
        let mut r = rig(4);
        let t = r.temp;
        set(&mut r, t, ThermalClass::High);
        assert_eq!(enables(&r), vec![false; 4]);
        assert!(r.sim.peek(r.handles.fan_on));
        // cooling down re-enables and stops the fan
        let t = r.temp;
        set(&mut r, t, ThermalClass::Low);
        assert_eq!(enables(&r), vec![true; 4]);
        assert!(!r.sim.peek(r.handles.fan_on));
        let stats = r
            .sim
            .with_process::<Gem, _>(r.handles.pid, |g| g.stats().clone());
        assert_eq!(stats.fan_switches, 2);
        assert!(stats.enable_changes >= 8);
    }

    #[test]
    fn empty_battery_with_high_temperature_is_the_worst_case() {
        let mut r = rig(2);
        let (b, t) = (r.battery, r.temp);
        set(&mut r, b, BatteryClass::Empty);
        set(&mut r, t, ThermalClass::High);
        assert_eq!(enables(&r), vec![false, false]);
        assert!(r.sim.peek(r.handles.fan_on));
    }

    #[test]
    fn mains_power_ignores_battery_class() {
        let mut sim = Simulation::new();
        let battery = sim.signal("battery.class", BatteryClass::Empty);
        let temp = sim.signal("thermal.class", ThermalClass::Low);
        let fan_on = sim.signal("fan.on", false);
        let handles = Gem::spawn(
            &mut sim,
            "gem",
            GemConfig::ranked(3, PowerSource::Mains),
            battery,
            temp,
            fan_on,
        );
        sim.run_until(SimTime::from_micros(1));
        let enables: Vec<bool> = handles.enables.iter().map(|e| sim.peek(*e)).collect();
        assert_eq!(enables, vec![true; 3]);
    }

    #[test]
    fn others_energy_redistributes_requests() {
        let mut r = rig(3);
        // Push requests from IPs 0 and 2 through a driver process.
        struct Pusher {
            fifo: Fifo<GemRequest>,
            kick: dpm_kernel::EventId,
            sent: bool,
        }
        impl Process for Pusher {
            fn init(&mut self, ctx: &mut Ctx<'_>) {
                ctx.notify(self.kick, SimDuration::from_micros(1));
            }
            fn react(&mut self, ctx: &mut Ctx<'_>) {
                if !self.sent {
                    self.sent = true;
                    let req = |ip: u8, uj: f64| GemRequest {
                        ip,
                        priority: Priority::Medium,
                        energy_estimate: Energy::from_microjoules(uj),
                    };
                    ctx.fifo_push(self.fifo, req(0, 100.0)).unwrap();
                    ctx.fifo_push(self.fifo, req(2, 50.0)).unwrap();
                }
            }
        }
        let kick = r.sim.event("pusher.kick");
        let pid = r.sim.add_process(
            "pusher",
            Pusher {
                fifo: r.handles.requests,
                kick,
                sent: false,
            },
        );
        r.sim.sensitize(pid, kick);
        r.sim.run_until(SimTime::from_micros(10));
        let others: Vec<f64> = r
            .handles
            .others_energy
            .iter()
            .map(|s| r.sim.peek(*s) * 1e6) // µJ
            .collect();
        assert!((others[0] - 50.0).abs() < 1e-9, "{others:?}");
        assert!((others[1] - 150.0).abs() < 1e-9);
        assert!((others[2] - 100.0).abs() < 1e-9);
        let stats = r
            .sim
            .with_process::<Gem, _>(r.handles.pid, |g| g.stats().clone());
        assert_eq!(stats.requests_seen, 2);
    }

    #[test]
    #[should_panic(expected = "at least one IP")]
    fn empty_config_rejected() {
        let _ = GemConfig::ranked(0, PowerSource::Battery);
    }
}
