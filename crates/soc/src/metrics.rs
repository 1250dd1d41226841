//! Post-run metric collection.

use dpm_battery::BatteryMonitor;
use dpm_core::{Lem, LemStats, Psm, PsmStats};
use dpm_kernel::Simulation;
use dpm_power::PowerState;
use dpm_thermal::ThermalMonitor;
use dpm_units::{Celsius, Energy, SimDuration, SimTime};

use crate::build::SocHandles;
use crate::config::ControllerKind;
use crate::ip::{IpBlock, TaskRecord};

/// Metrics of one IP block.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct IpMetrics {
    /// Instance name.
    pub name: String,
    /// Per-task records of completed tasks, in strictly increasing
    /// task-id order: trace ids increase with arrival, and an IP serves
    /// its queue first-in first-out, in the kernel and in the coarse
    /// walk alike. Table 2's delay join relies on this order.
    pub records: Vec<TaskRecord>,
    /// Tasks in the trace (arrived or to arrive).
    pub trace_len: usize,
    /// Execution/hold energy of the IP.
    pub energy: Energy,
    /// PSM statistics (includes transition energy).
    pub psm: PsmStats,
    /// Power-state residency up to the collection horizon.
    pub residency: [SimDuration; 9],
    /// LEM statistics when governed by the DPM controller.
    pub lem: Option<LemStats>,
}

impl IpMetrics {
    /// Number of completed tasks.
    pub fn completed(&self) -> usize {
        self.records.len()
    }

    /// Mean arrival-to-completion latency over completed tasks.
    pub fn mean_latency(&self) -> Option<SimDuration> {
        if self.records.is_empty() {
            return None;
        }
        let total: SimDuration = self.records.iter().map(|r| r.latency()).sum();
        Some(total / self.records.len() as u64)
    }

    /// Total energy including this IP's share of transition costs.
    pub fn energy_with_transitions(&self) -> Energy {
        self.energy + self.psm.transition_energy
    }

    /// Time spent in any sleep state or soft-off.
    pub fn low_power_time(&self) -> SimDuration {
        PowerState::SLEEP
            .iter()
            .map(|s| self.residency[s.index()])
            .sum::<SimDuration>()
            + self.residency[PowerState::SoftOff.index()]
    }
}

/// SoC-level metrics of one run.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct SocMetrics {
    /// Per-IP metrics in configuration order.
    pub per_ip: Vec<IpMetrics>,
    /// Total energy drawn (IPs + transitions + fan).
    pub total_energy: Energy,
    /// Fan energy alone.
    pub fan_energy: Energy,
    /// Time-averaged temperature elevation over ambient (K).
    pub mean_temp_elevation: f64,
    /// Hottest temperature observed.
    pub max_temp: Celsius,
    /// Final battery state of charge.
    pub final_soc: f64,
    /// Collection horizon.
    pub horizon: SimTime,
}

impl SocMetrics {
    /// Completed tasks across all IPs.
    pub fn completed(&self) -> usize {
        self.per_ip.iter().map(IpMetrics::completed).sum()
    }

    /// Tasks across all traces.
    pub fn total_tasks(&self) -> usize {
        self.per_ip.iter().map(|ip| ip.trace_len).sum()
    }

    /// Mean latency over every completed task of every IP.
    pub fn mean_latency(&self) -> Option<SimDuration> {
        let n: usize = self.completed();
        if n == 0 {
            return None;
        }
        let total: SimDuration = self
            .per_ip
            .iter()
            .flat_map(|ip| ip.records.iter().map(|r| r.latency()))
            .sum();
        Some(total / n as u64)
    }

    /// Average power over the run.
    pub fn average_power(&self) -> dpm_units::Power {
        if self.horizon == SimTime::ZERO {
            return dpm_units::Power::ZERO;
        }
        self.total_energy / (self.horizon - SimTime::ZERO)
    }
}

/// Collects metrics after a run that ended at `horizon`.
///
/// Mutable access is needed to close the energy integrals.
pub fn collect_metrics(sim: &mut Simulation, handles: &SocHandles, horizon: SimTime) -> SocMetrics {
    let mut per_ip = Vec::with_capacity(handles.ips.len());
    let mut total_energy = Energy::ZERO;
    for ip in &handles.ips {
        let (records, trace_len) =
            sim.with_process::<IpBlock, _>(ip.ip, |b| (b.records().to_vec(), b.trace_len()));
        let energy = sim.with_process_mut::<IpBlock, _>(ip.ip, |b| b.finish_meter(horizon));
        let (psm, residency) =
            sim.with_process::<Psm, _>(ip.psm, |p| (p.stats().clone(), p.residency(horizon)));
        let lem = match ip.controller_kind {
            ControllerKind::Dpm => {
                Some(sim.with_process::<Lem, _>(ip.controller, |l| l.stats().clone()))
            }
            _ => None,
        };
        total_energy += energy + psm.transition_energy;
        per_ip.push(IpMetrics {
            name: ip.name.clone(),
            records,
            trace_len,
            energy,
            psm,
            residency,
            lem,
        });
    }
    let (mean_temp_elevation, max_temp, fan_energy) =
        sim.with_process::<ThermalMonitor, _>(handles.thermal.pid, |t| {
            (
                t.mean_elevation(),
                t.max_temp(),
                t.fan_draw() * t.fan_on_time(),
            )
        });
    total_energy += fan_energy;
    let final_soc = sim
        .with_process::<BatteryMonitor, _>(handles.battery.pid, |b| b.soc())
        .value();
    SocMetrics {
        per_ip,
        total_energy,
        fan_energy,
        mean_temp_elevation,
        max_temp,
        final_soc,
        horizon,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_soc;
    use crate::config::SocConfig;
    use dpm_units::SimTime;
    use dpm_workload::{ActivityLevel, BurstyGenerator, PriorityWeights, TraceGenerator};

    #[test]
    fn collects_consistent_metrics() {
        let trace =
            BurstyGenerator::for_activity(ActivityLevel::Low, PriorityWeights::typical_user())
                .generate(SimTime::from_millis(20), 11);
        let expected = trace.len();
        let cfg = SocConfig::single_ip(trace);
        let mut sim = Simulation::new();
        let handles = build_soc(&mut sim, &cfg);
        let horizon = SimTime::from_millis(60);
        sim.run_until(horizon);
        let m = collect_metrics(&mut sim, &handles, horizon);
        assert_eq!(m.total_tasks(), expected);
        assert_eq!(m.completed(), expected, "low-activity trace must finish");
        assert!(m.total_energy > Energy::ZERO);
        assert!(m.mean_latency().is_some());
        assert!(m.final_soc > 0.0 && m.final_soc < 1.0);
        assert!(m.mean_temp_elevation >= 0.0);
        let ip = &m.per_ip[0];
        assert!(ip.low_power_time() > SimDuration::ZERO, "DPM must sleep");
        assert!(ip.energy_with_transitions() >= ip.energy);
        // residency + transitions covers the horizon
        let covered: SimDuration =
            ip.residency.iter().copied().sum::<SimDuration>() + ip.psm.transition_time;
        assert_eq!(covered, horizon - SimTime::ZERO);
    }
}
