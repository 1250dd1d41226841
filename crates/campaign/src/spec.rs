//! The declarative campaign specification: named axes and their
//! cartesian expansion into concrete scenarios.
//!
//! A [`CampaignSpec`] is a grid over six axes — controller kind, LEM
//! tuning, workload shape, workload seed, battery model, thermal
//! scenario, IP count — expanded in a **fixed axis order** so scenario
//! indices (and therefore per-scenario seeds and aggregation order) are
//! identical no matter where or on how many threads the campaign runs.

use core::fmt;

use dpm_core::predictor::PredictorKind;
use dpm_core::SleepSelection;
use dpm_power::PowerState;
use dpm_soc::experiment::{
    busy_generator, experiment_tuning, quiet_generator, scenario_a_generator,
};
use dpm_soc::{BatteryKind, ControllerKind, IpConfig, LemTuning, SocConfig, ThermalScenario};
use dpm_units::{Power, SimDuration, SimTime};
use dpm_workload::{ActivityLevel, BurstyGenerator, PriorityWeights, SeedSequence, TraceGenerator};

/// Controller axis values (the policy families of the paper plus the
/// classic baselines).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum ControllerAxis {
    /// The paper's LEM (plus GEM on multi-IP scenarios).
    Dpm,
    /// Always `ON1` — the Table 2 reference.
    AlwaysOn,
    /// Fixed 500 µs timeout into `SL2`.
    Timeout500us,
    /// Fixed 2 ms timeout into `SL3`.
    Timeout2ms,
    /// Clairvoyant sleeping — the energy lower bound.
    Oracle,
}

impl ControllerAxis {
    /// Every controller axis value.
    pub const ALL: [ControllerAxis; 5] = [
        ControllerAxis::Dpm,
        ControllerAxis::AlwaysOn,
        ControllerAxis::Timeout500us,
        ControllerAxis::Timeout2ms,
        ControllerAxis::Oracle,
    ];

    /// The spec-file name of this value.
    pub fn label(self) -> &'static str {
        match self {
            ControllerAxis::Dpm => "dpm",
            ControllerAxis::AlwaysOn => "always_on",
            ControllerAxis::Timeout500us => "timeout_500us",
            ControllerAxis::Timeout2ms => "timeout_2ms",
            ControllerAxis::Oracle => "oracle",
        }
    }

    /// Parses a spec-file name.
    pub fn parse(s: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|c| c.label() == s)
            .ok_or_else(|| unknown("controller", s, &Self::ALL.map(Self::label)))
    }

    /// The concrete controller configuration.
    pub fn to_controller(self) -> ControllerKind {
        match self {
            ControllerAxis::Dpm => ControllerKind::Dpm,
            ControllerAxis::AlwaysOn => ControllerKind::AlwaysOn,
            ControllerAxis::Timeout500us => ControllerKind::Timeout {
                timeout: SimDuration::from_micros(500),
                state: PowerState::Sl2,
            },
            ControllerAxis::Timeout2ms => ControllerKind::Timeout {
                timeout: SimDuration::from_millis(2),
                state: PowerState::Sl3,
            },
            ControllerAxis::Oracle => ControllerKind::Oracle,
        }
    }
}

/// LEM tuning axis values (the paper's stated flexibility point: *"whose
/// parameters can be adapted"*).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum TuningAxis {
    /// The Table 2 experiment tuning (wake-latency cap, 2.5 ms grace).
    Paper,
    /// Library defaults.
    Default,
    /// Sleeps as soon as possible, deepest state allowed.
    Eager,
    /// Energy-optimal sleep-state selection with a window predictor.
    EnergyOptimal,
    /// Sleeping disabled (state holds, no transitions).
    NoSleep,
}

impl TuningAxis {
    /// Every tuning axis value.
    pub const ALL: [TuningAxis; 5] = [
        TuningAxis::Paper,
        TuningAxis::Default,
        TuningAxis::Eager,
        TuningAxis::EnergyOptimal,
        TuningAxis::NoSleep,
    ];

    /// The spec-file name of this value.
    pub fn label(self) -> &'static str {
        match self {
            TuningAxis::Paper => "paper",
            TuningAxis::Default => "default",
            TuningAxis::Eager => "eager",
            TuningAxis::EnergyOptimal => "energy_optimal",
            TuningAxis::NoSleep => "no_sleep",
        }
    }

    /// Parses a spec-file name.
    pub fn parse(s: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|c| c.label() == s)
            .ok_or_else(|| unknown("tuning", s, &Self::ALL.map(Self::label)))
    }

    /// The concrete LEM tuning.
    pub fn to_tuning(self) -> LemTuning {
        match self {
            TuningAxis::Paper => experiment_tuning(),
            TuningAxis::Default => LemTuning::default(),
            // the grace period must be non-zero: a zero-delay sleep
            // decision re-triggers in the same delta cycle and trips the
            // kernel's combinational-loop guard
            TuningAxis::Eager => LemTuning {
                sleep_delay: SimDuration::from_micros(1),
                initial_prediction: SimDuration::from_millis(5),
                ..LemTuning::default()
            },
            TuningAxis::EnergyOptimal => LemTuning {
                predictor: PredictorKind::Window { k: 8 },
                sleep_selection: SleepSelection::CheapestEnergy,
                ..experiment_tuning()
            },
            TuningAxis::NoSleep => LemTuning {
                sleep_enabled: false,
                ..LemTuning::default()
            },
        }
    }
}

/// Workload-shape axis values.
///
/// Each value's doc states the load it offers one IP: Σ `ON1` service
/// time of its trace ÷ horizon, median over seeds at 200 ms. A load
/// above 1 is more work than an always-`ON1` IP can finish.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub enum WorkloadAxis {
    /// `ActivityLevel::Low` bursty preset (~0.28 load).
    Low,
    /// `ActivityLevel::High` bursty preset (~4.9 load: an overload).
    High,
    /// The paper's scenario-A trace shape (~0.17 load).
    PaperA,
    /// The paper's B/C busy-IP shape (~0.18 load).
    PaperBusy,
    /// The paper's B/C quiet-IP shape (~0.075 load).
    PaperQuiet,
}

impl WorkloadAxis {
    /// Every workload axis value.
    pub const ALL: [WorkloadAxis; 5] = [
        WorkloadAxis::Low,
        WorkloadAxis::High,
        WorkloadAxis::PaperA,
        WorkloadAxis::PaperBusy,
        WorkloadAxis::PaperQuiet,
    ];

    /// The spec-file name of this value.
    pub fn label(self) -> &'static str {
        match self {
            WorkloadAxis::Low => "low",
            WorkloadAxis::High => "high",
            WorkloadAxis::PaperA => "paper_a",
            WorkloadAxis::PaperBusy => "paper_busy",
            WorkloadAxis::PaperQuiet => "paper_quiet",
        }
    }

    /// Parses a spec-file name.
    pub fn parse(s: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|c| c.label() == s)
            .ok_or_else(|| unknown("workload", s, &Self::ALL.map(Self::label)))
    }

    /// The trace generator for this shape.
    pub fn generator(self) -> BurstyGenerator {
        match self {
            WorkloadAxis::Low => {
                BurstyGenerator::for_activity(ActivityLevel::Low, PriorityWeights::typical_user())
            }
            WorkloadAxis::High => {
                BurstyGenerator::for_activity(ActivityLevel::High, PriorityWeights::typical_user())
            }
            WorkloadAxis::PaperA => scenario_a_generator(),
            WorkloadAxis::PaperBusy => busy_generator(),
            WorkloadAxis::PaperQuiet => quiet_generator(),
        }
    }
}

/// Battery-model axis values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum BatteryAxis {
    /// Ideal energy tank.
    Linear,
    /// Peukert-style rate-capacity losses.
    RateCapacity,
    /// Kinetic battery model with charge recovery.
    Kibam,
}

impl BatteryAxis {
    /// Every battery axis value.
    pub const ALL: [BatteryAxis; 3] = [
        BatteryAxis::Linear,
        BatteryAxis::RateCapacity,
        BatteryAxis::Kibam,
    ];

    /// The spec-file name of this value.
    pub fn label(self) -> &'static str {
        match self {
            BatteryAxis::Linear => "linear",
            BatteryAxis::RateCapacity => "rate_capacity",
            BatteryAxis::Kibam => "kibam",
        }
    }

    /// Parses a spec-file name.
    pub fn parse(s: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|c| c.label() == s)
            .ok_or_else(|| unknown("battery", s, &Self::ALL.map(Self::label)))
    }

    /// The concrete battery model.
    pub fn to_battery(self) -> BatteryKind {
        match self {
            BatteryAxis::Linear => BatteryKind::Linear,
            BatteryAxis::RateCapacity => BatteryKind::RateCapacity {
                p_ref: Power::from_milliwatts(400.0),
                peukert: 1.15,
            },
            BatteryAxis::Kibam => BatteryKind::Kibam,
        }
    }
}

/// Thermal-scenario axis values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum ThermalAxis {
    /// Cool start (25 °C ambient, 30 °C die).
    Cool,
    /// The paper's "Temperature High" hot start (71.5 °C die).
    Hot,
}

impl ThermalAxis {
    /// Every thermal axis value.
    pub const ALL: [ThermalAxis; 2] = [ThermalAxis::Cool, ThermalAxis::Hot];

    /// The spec-file name of this value.
    pub fn label(self) -> &'static str {
        match self {
            ThermalAxis::Cool => "cool",
            ThermalAxis::Hot => "hot",
        }
    }

    /// Parses a spec-file name.
    pub fn parse(s: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|c| c.label() == s)
            .ok_or_else(|| unknown("thermal", s, &Self::ALL.map(Self::label)))
    }

    /// The concrete thermal scenario.
    pub fn to_thermal(self) -> ThermalScenario {
        match self {
            ThermalAxis::Cool => ThermalScenario::cool(),
            ThermalAxis::Hot => ThermalScenario::hot(),
        }
    }
}

fn unknown(axis: &str, got: &str, options: &[&str]) -> String {
    format!(
        "unknown {axis} '{got}' (expected one of: {})",
        options.join(", ")
    )
}

/// The most cells a grid may hold (2^20): ten times the 100 000-cell
/// grid the `campaign_throughput` bench drives through the segment
/// store. Specs arrive from files and `POST /campaigns` bodies, and
/// [`CampaignSpec::expand`] allocates one [`ScenarioSpec`] per cell, so
/// [`CampaignSpec::validate`] refuses anything larger.
pub const MAX_GRID_CELLS: usize = 1 << 20;

/// A declarative scenario grid.
///
/// `expand` walks the axes in declaration order (controllers outermost,
/// IP counts innermost), so scenario index ↔ axis-tuple mapping is part
/// of the format and stays stable across runs and thread counts.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CampaignSpec {
    /// Campaign name (reports, output files).
    pub name: String,
    /// Simulation horizon in milliseconds.
    pub horizon_ms: u64,
    /// Master seed; all per-scenario seeds derive from it.
    pub master_seed: u64,
    /// Starting state of charge (0–1); the paper's battery-Low regime
    /// starts at 0.22.
    pub initial_soc: f64,
    /// Controller axis.
    pub controllers: Vec<ControllerAxis>,
    /// LEM tuning axis.
    pub tunings: Vec<TuningAxis>,
    /// Workload-shape axis.
    pub workloads: Vec<WorkloadAxis>,
    /// Workload seed axis (logical seeds; the trace seed is derived from
    /// `master_seed`, the logical seed and the IP index).
    pub seeds: Vec<u64>,
    /// Battery-model axis.
    pub batteries: Vec<BatteryAxis>,
    /// Thermal-scenario axis.
    pub thermals: Vec<ThermalAxis>,
    /// IP-count axis (1 = single IP without GEM; >1 = GEM-governed).
    pub ip_counts: Vec<usize>,
}

impl CampaignSpec {
    /// The built-in quick sweep: 2 controllers × 1 tuning × 2 workloads ×
    /// 2 seeds × 1 battery × 2 thermals × 2 IP counts = 32 scenarios.
    pub fn default_sweep() -> Self {
        Self {
            name: "default_sweep".into(),
            horizon_ms: 40,
            master_seed: 0xDA7E_2005,
            initial_soc: 0.95,
            controllers: vec![ControllerAxis::Dpm, ControllerAxis::AlwaysOn],
            tunings: vec![TuningAxis::Paper],
            workloads: vec![WorkloadAxis::Low, WorkloadAxis::High],
            seeds: vec![1, 2],
            batteries: vec![BatteryAxis::Linear],
            thermals: vec![ThermalAxis::Cool, ThermalAxis::Hot],
            ip_counts: vec![1, 4],
        }
    }

    /// The simulation horizon.
    pub fn horizon(&self) -> SimTime {
        SimTime::from_millis(self.horizon_ms)
    }

    /// Scenarios in the grid (the product of the axis sizes).
    pub fn scenario_count(&self) -> usize {
        self.controllers.len()
            * self.tunings.len()
            * self.workloads.len()
            * self.seeds.len()
            * self.batteries.len()
            * self.thermals.len()
            * self.ip_counts.len()
    }

    /// Validates that every axis is non-empty and parameters are sane.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        let axes: [(&str, usize); 7] = [
            ("controllers", self.controllers.len()),
            ("tunings", self.tunings.len()),
            ("workloads", self.workloads.len()),
            ("seeds", self.seeds.len()),
            ("batteries", self.batteries.len()),
            ("thermals", self.thermals.len()),
            ("ip_counts", self.ip_counts.len()),
        ];
        for (name, len) in axes {
            if len == 0 {
                return Err(format!("axis '{name}' is empty"));
            }
        }
        let cells = axes
            .iter()
            .try_fold(1usize, |product, &(_, len)| product.checked_mul(len));
        if cells.is_none_or(|cells| cells > MAX_GRID_CELLS) {
            return Err(format!(
                "the grid (the product of the axis lengths) must have at most \
                 {MAX_GRID_CELLS} cells"
            ));
        }
        if self.horizon_ms == 0 {
            return Err("horizon_ms must be positive".into());
        }
        if SimTime::checked_from_millis(self.horizon_ms).is_none() {
            return Err(format!(
                "horizon_ms must be at most {} (the simulation clock's range)",
                SimTime::MAX.as_ps() / SimTime::from_millis(1).as_ps()
            ));
        }
        // the TOML writer quotes the name verbatim, so characters the
        // parser cannot re-read would break the to_toml round-trip
        if self.name.contains(['"', '\n', '\r']) {
            return Err("name must not contain quotes or newlines".into());
        }
        if !(0.0..=1.0).contains(&self.initial_soc) {
            return Err("initial_soc must lie in [0, 1]".into());
        }
        if self.ip_counts.iter().any(|&n| n == 0 || n > 64) {
            return Err("ip_counts entries must lie in 1..=64".into());
        }
        Ok(())
    }

    /// Axis lengths in declaration order (controllers outermost,
    /// IP counts innermost) — the mixed radix of the grid indices.
    pub fn axis_sizes(&self) -> [usize; 7] {
        [
            self.controllers.len(),
            self.tunings.len(),
            self.workloads.len(),
            self.seeds.len(),
            self.batteries.len(),
            self.thermals.len(),
            self.ip_counts.len(),
        ]
    }

    /// Decodes a grid index into per-axis coordinates (the inverse of the
    /// `expand` ordering).
    ///
    /// # Panics
    ///
    /// Panics when `index` is outside the grid.
    pub fn coords_of(&self, index: usize) -> [usize; 7] {
        assert!(index < self.scenario_count(), "index outside the grid");
        let sizes = self.axis_sizes();
        let mut coords = [0usize; 7];
        let mut rest = index;
        for axis in (0..7).rev() {
            coords[axis] = rest % sizes[axis];
            rest /= sizes[axis];
        }
        coords
    }

    /// Encodes per-axis coordinates back into the grid index.
    ///
    /// # Panics
    ///
    /// Panics when any coordinate is outside its axis.
    pub fn index_of(&self, coords: [usize; 7]) -> usize {
        let sizes = self.axis_sizes();
        let mut index = 0;
        for axis in 0..7 {
            assert!(coords[axis] < sizes[axis], "coordinate outside its axis");
            index = index * sizes[axis] + coords[axis];
        }
        index
    }

    /// Builds the single cell at `index` without expanding the whole grid
    /// (identical to `expand()[index]`).
    ///
    /// # Panics
    ///
    /// Panics when `index` is outside the grid.
    pub fn cell_at(&self, index: usize) -> ScenarioSpec {
        let c = self.coords_of(index);
        ScenarioSpec {
            index,
            controller: self.controllers[c[0]],
            tuning: self.tunings[c[1]],
            workload: self.workloads[c[2]],
            seed: self.seeds[c[3]],
            battery: self.batteries[c[4]],
            thermal: self.thermals[c[5]],
            ip_count: self.ip_counts[c[6]],
        }
    }

    /// Number of **baseline groups** in the grid: cells of one group share
    /// every inner axis (workload, seed, battery, thermal, IP count) and
    /// differ only in controller/tuning — exactly the axes an always-`ON1`
    /// baseline run does not depend on. Because controllers and tunings
    /// are the two outermost `expand` axes, a group is one block of inner
    /// coordinates and its id is `index % group_count()`.
    pub fn group_count(&self) -> usize {
        self.workloads.len()
            * self.seeds.len()
            * self.batteries.len()
            * self.thermals.len()
            * self.ip_counts.len()
    }

    /// The baseline-group id of a grid index (see [`Self::group_count`]).
    /// A `dpm serve` slot runs a campaign one group at a time, so a
    /// shutdown between groups leaves each group fully archived or
    /// untouched.
    ///
    /// # Panics
    ///
    /// Panics when `index` is outside the grid.
    pub fn group_of(&self, index: usize) -> usize {
        assert!(index < self.scenario_count(), "index outside the grid");
        index % self.group_count()
    }

    /// Grid indices one step away from `index` along a **single axis**
    /// (the hill-climbing neighborhood), in ascending index order.
    ///
    /// # Panics
    ///
    /// Panics when `index` is outside the grid.
    pub fn neighbors_of(&self, index: usize) -> Vec<usize> {
        let sizes = self.axis_sizes();
        let coords = self.coords_of(index);
        let mut out = Vec::new();
        for axis in 0..7 {
            for step in [-1isize, 1] {
                let pos = coords[axis] as isize + step;
                if pos < 0 || pos as usize >= sizes[axis] {
                    continue;
                }
                let mut c = coords;
                c[axis] = pos as usize;
                out.push(self.index_of(c));
            }
        }
        out.sort_unstable();
        out
    }

    /// Expands the grid into concrete scenarios, indices in axis order.
    pub fn expand(&self) -> Vec<ScenarioSpec> {
        let mut out = Vec::with_capacity(self.scenario_count());
        for &controller in &self.controllers {
            for &tuning in &self.tunings {
                for &workload in &self.workloads {
                    for &seed in &self.seeds {
                        for &battery in &self.batteries {
                            for &thermal in &self.thermals {
                                for &ip_count in &self.ip_counts {
                                    out.push(ScenarioSpec {
                                        index: out.len(),
                                        controller,
                                        tuning,
                                        workload,
                                        seed,
                                        battery,
                                        thermal,
                                        ip_count,
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

/// One cell of the expanded grid.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ScenarioSpec {
    /// Position in the expansion (stable across runs and thread counts).
    pub index: usize,
    /// Controller axis value.
    pub controller: ControllerAxis,
    /// Tuning axis value.
    pub tuning: TuningAxis,
    /// Workload axis value.
    pub workload: WorkloadAxis,
    /// Logical workload seed.
    pub seed: u64,
    /// Battery axis value.
    pub battery: BatteryAxis,
    /// Thermal axis value.
    pub thermal: ThermalAxis,
    /// Number of IPs.
    pub ip_count: usize,
}

impl ScenarioSpec {
    /// Human-readable `axis=value` label, unique within a campaign.
    pub fn label(&self) -> String {
        format!(
            "ctrl={}/tune={}/wl={}/seed={}/batt={}/therm={}/ips={}",
            self.controller.label(),
            self.tuning.label(),
            self.workload.label(),
            self.seed,
            self.battery.label(),
            self.thermal.label(),
            self.ip_count,
        )
    }

    /// Builds the concrete [`SocConfig`] for this cell: its trace
    /// skeleton with its own settings applied.
    pub fn build_config(&self, spec: &CampaignSpec) -> SocConfig {
        self.configure(spec, self.build_skeleton(spec))
    }

    /// The axes this cell's traces depend on. Cells with equal keys in
    /// one campaign share a [`Self::build_skeleton`], because the
    /// spec-wide master seed and horizon are its only other inputs.
    pub(crate) fn trace_key(&self) -> TraceKey {
        (self.workload, self.seed, self.ip_count)
    }

    /// The trace skeleton of this cell: the IPs with their generated
    /// traces, plus the GEM flag. Every other setting keeps the
    /// [`SocConfig`] default until [`Self::configure`] applies the cell's.
    ///
    /// Trace seeds derive from `(master_seed, logical seed, ip index)`
    /// through [`SeedSequence`], so the same cell always replays the same
    /// arrivals no matter which thread builds it.
    pub(crate) fn build_skeleton(&self, spec: &CampaignSpec) -> SocConfig {
        let horizon = spec.horizon();
        let generator = self.workload.generator();
        let seeds = SeedSequence::new(spec.master_seed).derive(self.seed);
        if self.ip_count == 1 {
            SocConfig::single_ip(generator.generate(horizon, seeds.stream(0)))
        } else {
            let ips = (0..self.ip_count)
                .map(|i| {
                    IpConfig::new(
                        format!("ip{i}"),
                        generator.generate(horizon, seeds.stream(i as u64)),
                        i as u8 + 1,
                    )
                })
                .collect();
            SocConfig::multi_ip(ips)
        }
    }

    /// Applies this cell's own settings — controller, tuning, battery,
    /// thermal and initial state of charge — to a skeleton built for any
    /// cell with the same [`Self::trace_key`].
    pub(crate) fn configure(&self, spec: &CampaignSpec, mut skeleton: SocConfig) -> SocConfig {
        skeleton.controller = self.controller.to_controller();
        skeleton.lem = self.tuning.to_tuning();
        skeleton.battery = self.battery.to_battery();
        skeleton.thermal = self.thermal.to_thermal();
        skeleton.initial_soc = dpm_units::Ratio::new(spec.initial_soc);
        skeleton
    }
}

/// What a cell's traces depend on within one campaign: workload shape,
/// logical seed and IP count (see [`ScenarioSpec::trace_key`]).
pub(crate) type TraceKey = (WorkloadAxis, u64, usize);

impl fmt::Display for ScenarioSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{:04} {}", self.index, self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_sweep_validates_and_multiplies() {
        let spec = CampaignSpec::default_sweep();
        spec.validate().unwrap();
        assert_eq!(spec.scenario_count(), 2 * 2 * 2 * 2 * 2);
        assert_eq!(spec.expand().len(), spec.scenario_count());
    }

    #[test]
    fn horizon_validates_up_to_the_clock_limit() {
        let mut spec = CampaignSpec::default_sweep();
        spec.horizon_ms = 18_446_744_073;
        spec.validate().unwrap();
        spec.horizon_ms += 1;
        let err = spec.validate().unwrap_err();
        assert!(
            err.contains("horizon_ms must be at most 18446744073"),
            "{err}"
        );
    }

    #[test]
    fn grids_past_the_cell_cap_are_errors_not_panics() {
        let mut spec = CampaignSpec::default_sweep();
        spec.controllers = vec![ControllerAxis::Dpm];
        spec.workloads = vec![WorkloadAxis::Low];
        spec.thermals = vec![ThermalAxis::Cool];
        spec.seeds = (0..1024).collect();
        spec.ip_counts = vec![1; 1024];
        assert_eq!(spec.scenario_count(), MAX_GRID_CELLS);
        spec.validate().unwrap();
        // one seed more: just over the cap
        spec.seeds.push(1024);
        let err = spec.validate().unwrap_err();
        assert!(err.contains("at most 1048576 cells"), "{err}");
        // 1024 values on each of the 7 axes: a product of 2^70, which
        // overflows usize
        spec.controllers = vec![ControllerAxis::Dpm; 1024];
        spec.tunings = vec![TuningAxis::Paper; 1024];
        spec.workloads = vec![WorkloadAxis::Low; 1024];
        spec.seeds = vec![1; 1024];
        spec.batteries = vec![BatteryAxis::Linear; 1024];
        spec.thermals = vec![ThermalAxis::Cool; 1024];
        spec.ip_counts = vec![1; 1024];
        let err = spec.validate().unwrap_err();
        assert!(err.contains("at most 1048576 cells"), "{err}");
    }

    /// The load `workload` offers one default-model IP at `ON1`: Σ `ON1`
    /// service time ÷ horizon over a 200 ms trace, median over seeds
    /// 1–20.
    fn offered_load(workload: WorkloadAxis) -> f64 {
        let horizon = SimTime::from_millis(200);
        let model = dpm_power::IpPowerModel::default_cpu();
        let mut loads: Vec<f64> = (1..=20)
            .map(|seed| {
                let busy: f64 = workload
                    .generator()
                    .generate(horizon, seed)
                    .tasks()
                    .iter()
                    .map(|t| {
                        model
                            .execution_time(t.instructions, &t.mix, PowerState::On1)
                            .expect("ON1 executes")
                            .as_secs_f64()
                    })
                    .sum();
                busy / horizon.as_secs_f64()
            })
            .collect();
        loads.sort_by(f64::total_cmp);
        (loads[9] + loads[10]) / 2.0
    }

    /// Each preset's median offered load lies within 10 % of the value
    /// its [`WorkloadAxis`] doc states.
    #[test]
    fn presets_offer_their_documented_load() {
        let documented = [
            (WorkloadAxis::Low, 0.28),
            (WorkloadAxis::High, 4.9),
            (WorkloadAxis::PaperA, 0.17),
            (WorkloadAxis::PaperBusy, 0.18),
            (WorkloadAxis::PaperQuiet, 0.075),
        ];
        assert_eq!(documented.map(|(w, _)| w), WorkloadAxis::ALL);
        for (workload, doc) in documented {
            let load = offered_load(workload);
            assert!(
                (load / doc - 1.0).abs() <= 0.1,
                "{} offers {load:.4} of ON1 capacity, documented as {doc}",
                workload.label()
            );
        }
    }

    /// Two values on every axis, at least one of them not the
    /// `SocConfig` default for its setting.
    fn two_per_axis() -> CampaignSpec {
        CampaignSpec {
            name: "two_per_axis".into(),
            horizon_ms: 6,
            master_seed: 11,
            initial_soc: 0.6,
            controllers: vec![ControllerAxis::AlwaysOn, ControllerAxis::Timeout2ms],
            tunings: vec![TuningAxis::Paper, TuningAxis::Eager],
            workloads: vec![WorkloadAxis::Low, WorkloadAxis::PaperBusy],
            seeds: vec![1, 2],
            batteries: vec![BatteryAxis::RateCapacity, BatteryAxis::Kibam],
            thermals: vec![ThermalAxis::Hot, ThermalAxis::Cool],
            ip_counts: vec![1, 3],
        }
    }

    #[test]
    fn any_skeleton_of_a_trace_key_configures_into_build_config() {
        let spec = two_per_axis();
        let cells = spec.expand();
        let skeletons: Vec<SocConfig> = cells.iter().map(|c| c.build_skeleton(&spec)).collect();
        let keys: std::collections::HashSet<TraceKey> =
            cells.iter().map(ScenarioSpec::trace_key).collect();
        assert_eq!(keys.len(), 8, "workloads x seeds x ip counts");
        for c in &cells {
            let built = c.build_config(&spec);
            assert_eq!(built.controller, c.controller.to_controller());
            assert_eq!(built.lem, c.tuning.to_tuning());
            assert_eq!(built.battery, c.battery.to_battery());
            assert_eq!(built.thermal, c.thermal.to_thermal());
            assert_eq!(built.initial_soc, dpm_units::Ratio::new(spec.initial_soc));
            for (o, skeleton) in cells.iter().zip(&skeletons) {
                if o.trace_key() == c.trace_key() {
                    assert_eq!(
                        c.configure(&spec, skeleton.clone()),
                        built,
                        "{c} configured from the skeleton of {o}"
                    );
                }
            }
        }
    }

    #[test]
    fn labels_are_unique_and_indices_sequential() {
        let spec = CampaignSpec::default_sweep();
        let cells = spec.expand();
        let mut labels: Vec<String> = cells.iter().map(ScenarioSpec::label).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), cells.len());
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.index, i);
        }
    }

    #[test]
    fn axis_names_parse_back() {
        for c in ControllerAxis::ALL {
            assert_eq!(ControllerAxis::parse(c.label()).unwrap(), c);
        }
        for t in TuningAxis::ALL {
            assert_eq!(TuningAxis::parse(t.label()).unwrap(), t);
        }
        for w in WorkloadAxis::ALL {
            assert_eq!(WorkloadAxis::parse(w.label()).unwrap(), w);
        }
        for b in BatteryAxis::ALL {
            assert_eq!(BatteryAxis::parse(b.label()).unwrap(), b);
        }
        for t in ThermalAxis::ALL {
            assert_eq!(ThermalAxis::parse(t.label()).unwrap(), t);
        }
        assert!(ControllerAxis::parse("nope").is_err());
    }

    #[test]
    fn configs_are_deterministic_and_validate() {
        let spec = CampaignSpec::default_sweep();
        for cell in spec.expand().iter().take(6) {
            let a = cell.build_config(&spec);
            let b = cell.build_config(&spec);
            a.validate();
            assert_eq!(a, b, "config construction must be pure");
        }
    }

    #[test]
    fn cell_at_agrees_with_expand_and_coords_round_trip() {
        let spec = CampaignSpec::default_sweep();
        for (i, cell) in spec.expand().into_iter().enumerate() {
            assert_eq!(spec.cell_at(i), cell);
            assert_eq!(spec.index_of(spec.coords_of(i)), i);
        }
    }

    #[test]
    fn neighbors_differ_on_exactly_one_axis() {
        let spec = CampaignSpec::default_sweep();
        let n = spec.scenario_count();
        for i in 0..n {
            let here = spec.coords_of(i);
            let neighbors = spec.neighbors_of(i);
            assert!(!neighbors.is_empty());
            assert!(neighbors.windows(2).all(|w| w[0] < w[1]), "sorted, unique");
            for &j in &neighbors {
                assert_ne!(j, i);
                assert!(j < n);
                let there = spec.coords_of(j);
                let moved: Vec<usize> = (0..7).filter(|&a| here[a] != there[a]).collect();
                assert_eq!(moved.len(), 1, "single-axis move");
                let a = moved[0];
                assert_eq!(here[a].abs_diff(there[a]), 1, "one step along axis {a}");
            }
        }
    }

    #[test]
    fn groups_partition_the_grid_along_the_inner_axes() {
        let spec = CampaignSpec::default_sweep();
        let cells = spec.expand();
        // workloads × seeds × batteries × thermals × ip_counts
        assert_eq!(spec.group_count(), 16);
        for cell in &cells {
            let g = spec.group_of(cell.index);
            assert!(g < spec.group_count());
            // every cell of the group shares the baseline-relevant axes
            for other in cells.iter().filter(|c| spec.group_of(c.index) == g) {
                assert_eq!(cell.workload, other.workload);
                assert_eq!(cell.seed, other.seed);
                assert_eq!(cell.battery, other.battery);
                assert_eq!(cell.thermal, other.thermal);
                assert_eq!(cell.ip_count, other.ip_count);
            }
        }
        // each group holds one cell per (controller, tuning) pair
        let per_group = cells.len() / spec.group_count();
        assert_eq!(per_group, spec.controllers.len() * spec.tunings.len());
    }

    #[test]
    fn multi_ip_cells_get_gem_and_distinct_traces() {
        let spec = CampaignSpec::default_sweep();
        let cell = spec
            .expand()
            .into_iter()
            .find(|c| c.ip_count == 4)
            .expect("sweep has 4-IP cells");
        let cfg = cell.build_config(&spec);
        assert!(cfg.with_gem);
        assert_eq!(cfg.ips.len(), 4);
        assert_ne!(
            cfg.ips[0].trace, cfg.ips[1].trace,
            "per-IP seed streams differ"
        );
    }
}
