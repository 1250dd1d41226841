//! SoC construction: wires Fig. 1 of the paper.
//!
//! Fig. 1 also routes service requests between the IPs over a shared
//! bus. That bus is not simulated: no DPM decision and no metric reads
//! it, so it would only add events to every run.

use dpm_battery::{
    Battery, BatteryClassifier, BatteryMonitor, BatteryMonitorHandles, KibamBattery, LinearBattery,
    RateCapacityBattery,
};
use dpm_core::{
    AlwaysOnController, Gem, GemConfig, Lem, LemConfig, LemPorts, OracleController, Psm, PsmPorts,
    TimeoutController,
};
use dpm_kernel::{Clock, ClockHandle, ProcessId, Signal, Simulation};
use dpm_power::{PowerState, TransitionTable};
use dpm_thermal::{
    ThermalClassifier, ThermalMonitor, ThermalMonitorHandles, ThermalNetwork, ThermalNetworkConfig,
};

use crate::config::{BatteryKind, ControllerKind, IpConfig, SocConfig};
use crate::ip::{IpBlock, IpPorts};
use crate::util::Adder;

/// Per-IP handles after construction.
#[derive(Debug, Clone)]
pub struct IpHandles {
    /// Instance name.
    pub name: String,
    /// The functional IP process.
    pub ip: ProcessId,
    /// The PSM process.
    pub psm: ProcessId,
    /// The controller process (LEM or baseline).
    pub controller: ProcessId,
    /// Which controller family governs this IP.
    pub controller_kind: ControllerKind,
    /// Published power draw (W).
    pub power: Signal<f64>,
    /// Completed-task counter.
    pub done_count: Signal<u64>,
    /// PSM ports (state/busy/cmd/trans_power).
    pub psm_ports: PsmPorts,
    /// Number of tasks in this IP's trace.
    pub trace_len: usize,
}

/// Everything the experiment harness needs after construction.
#[derive(Debug, Clone)]
pub struct SocHandles {
    /// Per-IP handles, in configuration order.
    pub ips: Vec<IpHandles>,
    /// Battery monitor handles.
    pub battery: BatteryMonitorHandles,
    /// Thermal monitor handles.
    pub thermal: ThermalMonitorHandles,
    /// GEM handles, when configured.
    pub gem: Option<dpm_core::gem::GemHandles>,
    /// Fan control signal (driven by the GEM, or constant `false`).
    pub fan_on: Signal<bool>,
    /// Cycle-accurate clocks (one per IP, mirroring SystemC's per-module
    /// clocked evaluation), when configured.
    pub clocks: Vec<ClockHandle>,
}

impl SocHandles {
    /// The first cycle-accurate clock (cycle counting), if any.
    pub fn clock(&self) -> Option<ClockHandle> {
        self.clocks.first().copied()
    }
}

fn make_battery(cfg: &SocConfig) -> Box<dyn Battery> {
    match cfg.battery {
        BatteryKind::Linear => Box::new(LinearBattery::with_soc(
            cfg.battery_capacity,
            cfg.initial_soc,
        )),
        BatteryKind::RateCapacity { p_ref, peukert } => Box::new(
            RateCapacityBattery::new(cfg.battery_capacity, p_ref, peukert)
                .with_soc(cfg.initial_soc),
        ),
        BatteryKind::Kibam => {
            Box::new(KibamBattery::typical(cfg.battery_capacity).with_soc(cfg.initial_soc))
        }
    }
}

/// Builds the SoC of the paper's Fig. 1, less its bus, into `sim`.
///
/// # Panics
///
/// Panics on an invalid configuration (see [`SocConfig::validate`]).
pub fn build_soc(sim: &mut Simulation, cfg: &SocConfig) -> SocHandles {
    build_soc_on(sim, cfg, &cfg.ips)
}

/// [`build_soc`] on `ips` in place of `cfg.ips`, which is not read: a
/// caller holding one set of IPs builds any number of IP-less
/// configurations on them without copying a trace.
///
/// # Panics
///
/// Panics when `cfg` with `ips` fails [`SocConfig::validate`].
pub fn build_soc_on(sim: &mut Simulation, cfg: &SocConfig, ips: &[IpConfig]) -> SocHandles {
    cfg.validate_on(ips);
    let n = ips.len();

    let fan_on = sim.signal("fan.on", false);

    // Per-IP plumbing: PSM, power signals, heat adders. Each IP's
    // transition table serves its PSM and its controller.
    let mut tables = Vec::with_capacity(n);
    let mut psm_ports_v: Vec<PsmPorts> = Vec::with_capacity(n);
    let mut psm_pids = Vec::with_capacity(n);
    let mut power_sigs = Vec::with_capacity(n);
    let mut heat_sigs = Vec::with_capacity(n);
    let mut done_sigs = Vec::with_capacity(n);
    let mut req_fifos = Vec::with_capacity(n);
    let mut grant_fifos = Vec::with_capacity(n);
    for ip in ips {
        let name = &ip.name;
        let table = TransitionTable::for_model(&ip.model);
        let (psm_ports, psm_pid) =
            Psm::spawn(sim, &format!("{name}.psm"), table.clone(), PowerState::On1);
        let power = sim.signal(&format!("{name}.power"), 0.0f64);
        let heat = sim.signal(&format!("{name}.heat"), 0.0f64);
        Adder::spawn(
            sim,
            &format!("{name}.heat_adder"),
            vec![power, psm_ports.trans_power],
            heat,
        );
        let done_count = sim.signal(&format!("{name}.done_count"), 0u64);
        let requests = sim.fifo(&format!("{name}.requests"), 1024);
        let grants = sim.fifo(&format!("{name}.grants"), 1024);
        tables.push(table);
        psm_ports_v.push(psm_ports);
        psm_pids.push(psm_pid);
        power_sigs.push(power);
        heat_sigs.push(heat);
        done_sigs.push(done_count);
        req_fifos.push(requests);
        grant_fifos.push(grants);
    }

    // Thermal monitor over one node per IP.
    let network = ThermalNetwork::new(ThermalNetworkConfig {
        ambient: cfg.thermal.ambient,
        initial: cfg.thermal.initial,
        ..ThermalNetworkConfig::default_soc(n)
    });
    let thermal = ThermalMonitor::spawn(
        sim,
        "thermal",
        network,
        heat_sigs.clone(),
        fan_on,
        cfg.thermal.fan_draw,
        cfg.sample_period,
        ThermalClassifier::with_defaults(),
    );

    // Battery monitor over every power consumer.
    let mut battery_inputs = power_sigs.clone();
    battery_inputs.extend(psm_ports_v.iter().map(|p| p.trans_power));
    battery_inputs.push(thermal.fan_power);
    let battery = BatteryMonitor::spawn(
        sim,
        "battery",
        make_battery(cfg),
        cfg.source,
        battery_inputs,
        cfg.sample_period,
        BatteryClassifier::with_defaults(),
    );

    // GEM, when configured.
    let gem = cfg.with_gem.then(|| {
        let gem_cfg = GemConfig {
            static_priorities: ips.iter().map(|ip| ip.static_rank).collect(),
            high_priority_cutoff: dpm_core::gem::high_priority_cutoff(n),
            source: cfg.source,
        };
        Gem::spawn(sim, "gem", gem_cfg, battery.class, thermal.class, fan_on)
    });

    // Controllers and functional IPs.
    let mut handles = Vec::with_capacity(n);
    for ((i, ip_cfg), table) in ips.iter().enumerate().zip(tables) {
        let name = &ip_cfg.name;
        let lem_ports = LemPorts {
            requests: req_fifos[i],
            grants: grant_fifos[i],
            done_count: done_sigs[i],
            psm_cmd: psm_ports_v[i].cmd,
            psm_state: psm_ports_v[i].state,
            psm_busy: psm_ports_v[i].busy,
            battery_class: battery.class,
            battery_soc: battery.soc,
            temp_class: thermal.class,
            temp_c: thermal.temperature,
            gem: gem.as_ref().map(|g| g.lem_ports(i)),
        };
        let controller = match &cfg.controller {
            ControllerKind::Dpm => {
                let mut lem_cfg = LemConfig::new(i as u8, cfg.source, cfg.battery_capacity);
                lem_cfg.tuning = cfg.lem.clone();
                lem_cfg.estimator.ambient = cfg.thermal.ambient;
                Lem::spawn(
                    sim,
                    &format!("{name}.lem"),
                    lem_cfg,
                    ip_cfg.model.clone(),
                    &table,
                    lem_ports,
                )
            }
            ControllerKind::AlwaysOn => {
                AlwaysOnController::spawn(sim, &format!("{name}.ctrl"), lem_ports)
            }
            ControllerKind::Timeout { timeout, state } => {
                TimeoutController::spawn(sim, &format!("{name}.ctrl"), lem_ports, *timeout, *state)
            }
            ControllerKind::Oracle => {
                let arrivals = ip_cfg.trace.tasks().iter().map(|t| t.arrival).collect();
                OracleController::spawn(
                    sim,
                    &format!("{name}.ctrl"),
                    lem_ports,
                    &ip_cfg.model,
                    table,
                    arrivals,
                )
            }
        };
        let ip_ports = IpPorts {
            requests: req_fifos[i],
            grants: grant_fifos[i],
            done_count: done_sigs[i],
            psm_state: psm_ports_v[i].state,
            psm_busy: psm_ports_v[i].busy,
            power: power_sigs[i],
        };
        let ip_pid = IpBlock::spawn(sim, name, ip_cfg.model.clone(), &ip_cfg.trace, ip_ports);
        handles.push(IpHandles {
            name: name.clone(),
            ip: ip_pid,
            psm: psm_pids[i],
            controller,
            controller_kind: cfg.controller.clone(),
            power: power_sigs[i],
            done_count: done_sigs[i],
            psm_ports: psm_ports_v[i],
            trace_len: ip_cfg.trace.len(),
        });
    }

    // Cycle-accurate clocks for simulation-speed measurements: one per
    // IP, as a SystemC model with clocked modules would evaluate.
    let clocks = if cfg.cycle_accurate {
        ips.iter()
            .map(|ip_cfg| {
                let period = ip_cfg
                    .model
                    .frequency(PowerState::On1)
                    .expect("ON1 has a frequency")
                    .period();
                Clock::spawn(sim, &format!("{}.clk", ip_cfg.name), period)
            })
            .collect()
    } else {
        Vec::new()
    };

    SocHandles {
        ips: handles,
        battery,
        thermal,
        gem,
        fan_on,
        clocks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpm_units::{SimDuration, SimTime};
    use dpm_workload::{ActivityLevel, BurstyGenerator, PriorityWeights, TraceGenerator};

    fn small_trace(seed: u64) -> dpm_workload::TaskTrace {
        BurstyGenerator::for_activity(ActivityLevel::Low, PriorityWeights::typical_user())
            .generate(SimTime::from_millis(20), seed)
    }

    #[test]
    fn builds_and_runs_single_ip_dpm() {
        let cfg = SocConfig::single_ip(small_trace(1));
        let mut sim = Simulation::new();
        let handles = build_soc(&mut sim, &cfg);
        sim.run_until(SimTime::from_millis(40));
        let done = sim.peek(handles.ips[0].done_count);
        assert!(done > 0, "tasks must complete");
        assert_eq!(done as usize, handles.ips[0].trace_len);
    }

    #[test]
    fn building_on_separate_ips_matches_the_whole_config() {
        let ips = (0..2)
            .map(|i| IpConfig::new(format!("ip{i}"), small_trace(i as u64), i as u8 + 1))
            .collect();
        let whole = SocConfig::multi_ip(ips);
        let settings = SocConfig {
            ips: Vec::new(),
            ..whole.clone()
        };
        let horizon = SimTime::from_millis(40);
        let run = |build: &dyn Fn(&mut Simulation) -> SocHandles| {
            let mut sim = Simulation::new();
            let handles = build(&mut sim);
            sim.run_until(horizon);
            format!("{:?}", crate::collect_metrics(&mut sim, &handles, horizon))
        };
        assert_eq!(
            run(&|sim| build_soc(sim, &whole)),
            run(&|sim| build_soc_on(sim, &settings, &whole.ips))
        );
    }

    #[test]
    fn builds_and_runs_multi_ip_with_gem() {
        let ips = (0..4)
            .map(|i| {
                crate::config::IpConfig::new(format!("ip{i}"), small_trace(i as u64), i as u8 + 1)
            })
            .collect();
        let cfg = SocConfig::multi_ip(ips);
        let mut sim = Simulation::new();
        let handles = build_soc(&mut sim, &cfg);
        assert!(handles.gem.is_some());
        sim.run_until(SimTime::from_millis(40));
        // battery starts near full so the GEM keeps everyone enabled
        let total: u64 = handles.ips.iter().map(|ip| sim.peek(ip.done_count)).sum();
        assert!(total > 0);
    }

    #[test]
    fn baseline_controllers_build_too() {
        for kind in [
            ControllerKind::AlwaysOn,
            ControllerKind::Timeout {
                timeout: SimDuration::from_micros(200),
                state: PowerState::Sl2,
            },
            ControllerKind::Oracle,
        ] {
            let cfg = SocConfig::single_ip(small_trace(7)).with_controller(kind.clone());
            let mut sim = Simulation::new();
            let handles = build_soc(&mut sim, &cfg);
            sim.run_until(SimTime::from_millis(40));
            let done = sim.peek(handles.ips[0].done_count);
            assert!(done > 0, "{kind:?} must make progress");
        }
    }

    #[test]
    fn cycle_accurate_mode_adds_clock() {
        let mut cfg = SocConfig::single_ip(small_trace(3));
        cfg.cycle_accurate = true;
        let mut sim = Simulation::new();
        let handles = build_soc(&mut sim, &cfg);
        sim.run_until(SimTime::from_micros(100));
        let cycles = sim.with_process::<Clock, _>(handles.clock().unwrap().pid, |c| c.cycles());
        // 100 µs at 200 MHz = 20_000 cycles
        assert_eq!(cycles, 20_000);
    }
}
