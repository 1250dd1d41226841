//! The paper's experiments: scenarios A1–A4, B, C and the Table 2
//! metrics.
//!
//! Table 2 reports *energy saving*, *temperature reduction* and *average
//! delay overhead* **relative to** the same workload executed *"at the
//! maximum clock frequency without going to sleep or off mode"* — i.e.
//! the [`ControllerKind::AlwaysOn`] baseline run on an identical trace.
//!
//! Metric definitions (documented in DESIGN.md):
//!
//! * energy saving % = `(E_base − E_dpm) / E_base · 100`
//! * temperature reduction % = reduction of the time-averaged temperature
//!   *elevation over ambient* (a relative measure that survives constant
//!   choices)
//! * average delay overhead % = `(mean latency_dpm − mean latency_base) /
//!   mean latency_base · 100` over tasks completed in **both** runs
//!   (tasks deferred forever by an empty battery / a disabled LEM are
//!   reported separately as `deferred`).

use core::fmt;

use dpm_kernel::Simulation;
use dpm_units::{Ratio, SimDuration, SimTime};
use dpm_workload::{BurstyGenerator, Dist, PriorityWeights, TaskTrace, TraceGenerator};

use crate::build::build_soc;
use crate::config::{ControllerKind, IpConfig, LemTuning, SocConfig, ThermalScenario};
use crate::ip::TaskRecord;
use crate::metrics::{collect_metrics, SocMetrics};

/// The six simulations of the paper's Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum ScenarioId {
    /// One IP, battery Full, temperature Low.
    A1,
    /// One IP, battery Low, temperature Low.
    A2,
    /// One IP, battery Full, temperature High.
    A3,
    /// One IP, battery Low, temperature High.
    A4,
    /// Four IPs + GEM, battery Low; high-priority IPs busy.
    B,
    /// Four IPs + GEM, battery Low; low-priority IPs busy.
    C,
}

impl ScenarioId {
    /// All scenarios in the paper's order.
    pub const ALL: [ScenarioId; 6] = [
        ScenarioId::A1,
        ScenarioId::A2,
        ScenarioId::A3,
        ScenarioId::A4,
        ScenarioId::B,
        ScenarioId::C,
    ];
}

impl fmt::Display for ScenarioId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ScenarioId::A1 => "A1",
            ScenarioId::A2 => "A2",
            ScenarioId::A3 => "A3",
            ScenarioId::A4 => "A4",
            ScenarioId::B => "B",
            ScenarioId::C => "C",
        })
    }
}

/// One row of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Table2Row {
    /// Energy saving vs the baseline (%).
    pub energy_saving_pct: f64,
    /// Temperature-elevation reduction vs the baseline (%).
    pub temp_reduction_pct: f64,
    /// Mean task latency overhead vs the baseline (%).
    pub delay_overhead_pct: f64,
    /// Tasks completed by the DPM run / by the baseline run.
    pub completed: (usize, usize),
    /// Tasks the DPM run left unfinished at the horizon (deferred or
    /// still queued).
    pub deferred: usize,
}

/// The paper's reported values for comparison.
pub fn paper_row(id: ScenarioId) -> Table2Row {
    let (saving, temp, delay) = match id {
        ScenarioId::A1 => (39.0, 31.0, 30.0),
        ScenarioId::A2 => (55.0, 21.0, 339.0),
        ScenarioId::A3 => (39.0, 18.0, 37.0),
        ScenarioId::A4 => (55.0, 18.0, 339.0),
        ScenarioId::B => (65.0, 19.0, 242.0),
        ScenarioId::C => (64.0, 18.0, 253.0),
    };
    Table2Row {
        energy_saving_pct: saving,
        temp_reduction_pct: temp,
        delay_overhead_pct: delay,
        completed: (0, 0),
        deferred: 0,
    }
}

/// Simulation horizon shared by all scenarios.
pub const HORIZON: SimTime = SimTime::from_millis(200);

/// Deterministic seed of the scenario-A task sequence.
///
/// The value is tuned (see `crates/soc/examples/seed_search.rs`) so the
/// generated trace leaves a quiet tail before [`HORIZON`]: the battery-Low
/// runs execute everything at `ON4` (4× slower than the baseline's `ON1`)
/// and must still drain their queue by the horizon for Table 2's
/// "completed" join to cover the whole trace.
pub const SEED_A: u64 = 0x0000_0002_16ED_1377;

/// The "same sequence of tasks" executed by all four A scenarios: a
/// bursty mixed-priority workload offering ~0.17 load at `ON1` (Σ
/// service time ÷ horizon), so the battery-Low runs (everything at
/// `ON4`, ~0.7 load) stay below saturation — the regime in which the
/// paper's 339 % delay overhead is meaningful.
pub fn scenario_a_generator() -> BurstyGenerator {
    BurstyGenerator {
        burst_len: Dist::Uniform { lo: 1.0, hi: 3.5 },
        task_instructions: Dist::Normal {
            mean: 60_000.0,
            std_dev: 12_000.0,
        },
        intra_gap_us: Dist::Exponential { mean: 150.0 },
        idle_gap_us: Dist::Exponential { mean: 7_000.0 },
        mix: dpm_power::InstructionMix::default(),
        priorities: PriorityWeights::typical_user(),
    }
}

/// High-activity variant used by scenarios B and C: longer bursts than
/// the A trace at about its load (~0.18 at `ON1`), still below `ON4`
/// saturation so queues stay bounded.
pub fn busy_generator() -> BurstyGenerator {
    BurstyGenerator {
        burst_len: Dist::Uniform { lo: 2.0, hi: 5.0 },
        idle_gap_us: Dist::Exponential { mean: 9_500.0 },
        ..scenario_a_generator()
    }
}

/// Low-activity variant used by scenarios B and C.
pub fn quiet_generator() -> BurstyGenerator {
    BurstyGenerator {
        burst_len: Dist::Uniform { lo: 1.0, hi: 2.5 },
        idle_gap_us: Dist::Exponential { mean: 12_000.0 },
        ..scenario_a_generator()
    }
}

/// The scenario-A task sequence at the canonical [`SEED_A`].
pub fn trace_a() -> TaskTrace {
    scenario_a_generator().generate(HORIZON, SEED_A)
}

/// LEM tuning used by the experiments (see DESIGN.md): the wake-latency
/// cap keeps sleeps within `SL3`, and the 2.5 ms sleep grace period makes
/// the LEM sleep only through genuine inter-burst gaps — together these
/// land the A1 saving/delay trade-off in the paper's regime (~39 % / 30 %).
pub fn experiment_tuning() -> LemTuning {
    LemTuning {
        max_wake_latency: Some(SimDuration::from_micros(600)),
        sleep_delay: SimDuration::from_micros(2_500),
        ..LemTuning::default()
    }
}

/// The DPM configuration of a scenario (derive the baseline with
/// [`SocConfig::with_controller`]).
pub fn scenario_config(id: ScenarioId) -> SocConfig {
    scenario_config_seeded(id, SEED_A)
}

/// [`scenario_config`] with a caller-chosen workload seed — the hook the
/// campaign engine uses to sweep paper scenarios across seeds.
pub fn scenario_config_seeded(id: ScenarioId, seed: u64) -> SocConfig {
    match id {
        ScenarioId::A1 | ScenarioId::A2 | ScenarioId::A3 | ScenarioId::A4 => {
            let mut cfg = SocConfig::single_ip(scenario_a_generator().generate(HORIZON, seed));
            cfg.lem = experiment_tuning();
            cfg.initial_soc = match id {
                ScenarioId::A1 | ScenarioId::A3 => Ratio::new(0.95), // Full
                _ => Ratio::new(0.40), // drains into Low during the run
            };
            cfg.thermal = match id {
                ScenarioId::A1 | ScenarioId::A2 => ThermalScenario::cool(),
                _ => ThermalScenario::hot(),
            };
            // battery Low scenarios: start the class right at Low
            if matches!(id, ScenarioId::A2 | ScenarioId::A4) {
                cfg.initial_soc = Ratio::new(0.22);
            }
            cfg
        }
        ScenarioId::B | ScenarioId::C => {
            let busy_first = id == ScenarioId::B;
            let mut ips = Vec::new();
            for i in 0..4usize {
                let busy = if busy_first { i < 2 } else { i >= 2 };
                let generator = if busy {
                    busy_generator()
                } else {
                    quiet_generator()
                };
                let trace = generator.generate(HORIZON, seed + 17 * (i as u64 + 1));
                ips.push(IpConfig::new(format!("ip{i}"), trace, i as u8 + 1));
            }
            let mut cfg = SocConfig::multi_ip(ips);
            cfg.lem = experiment_tuning();
            cfg.initial_soc = Ratio::new(0.22); // Low
            cfg.thermal = ThermalScenario::cool();
            cfg
        }
    }
}

/// Outcome of one scenario: both runs plus the Table 2 row.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Which scenario.
    pub id: ScenarioId,
    /// Metrics of the DPM run.
    pub dpm: SocMetrics,
    /// Metrics of the always-max-frequency baseline run.
    pub baseline: SocMetrics,
    /// The regenerated Table 2 row.
    pub row: Table2Row,
}

/// Runs one configuration to the horizon and collects metrics.
pub fn run_config(cfg: &SocConfig, horizon: SimTime) -> SocMetrics {
    let mut sim = Simulation::new();
    let handles = build_soc(&mut sim, cfg);
    sim.run_until(horizon);
    collect_metrics(&mut sim, &handles, horizon)
}

/// Computes a Table 2 row from a DPM run and its baseline.
pub fn table2_row(dpm: &SocMetrics, baseline: &SocMetrics) -> Table2Row {
    let e_base = baseline.total_energy.as_joules();
    let e_dpm = dpm.total_energy.as_joules();
    let energy_saving_pct = if e_base > 0.0 {
        (1.0 - e_dpm / e_base) * 100.0
    } else {
        0.0
    };
    let temp_reduction_pct = if baseline.mean_temp_elevation > 0.0 {
        (1.0 - dpm.mean_temp_elevation / baseline.mean_temp_elevation) * 100.0
    } else {
        0.0
    };
    // join on (ip, task id): only tasks completed in both runs. Each
    // IP's records are in increasing task-id order (`IpMetrics::records`),
    // so a merge pairs them in one pass, summing in the DPM run's order
    let mut sum_d = 0.0f64;
    let mut sum_b = 0.0f64;
    let mut joined = 0usize;
    for (ip_d, ip_b) in dpm.per_ip.iter().zip(&baseline.per_ip) {
        debug_assert!(in_id_order(&ip_d.records) && in_id_order(&ip_b.records));
        let mut base = ip_b.records.iter().peekable();
        for rec in &ip_d.records {
            while base.next_if(|b| b.spec.id < rec.spec.id).is_some() {}
            if let Some(b) = base.next_if(|b| b.spec.id == rec.spec.id) {
                sum_d += rec.latency().as_secs_f64();
                sum_b += b.latency().as_secs_f64();
                joined += 1;
            }
        }
    }
    let delay_overhead_pct = if joined > 0 && sum_b > 0.0 {
        (sum_d / sum_b - 1.0) * 100.0
    } else {
        0.0
    };
    Table2Row {
        energy_saving_pct,
        temp_reduction_pct,
        delay_overhead_pct,
        completed: (dpm.completed(), baseline.completed()),
        deferred: dpm.total_tasks() - dpm.completed(),
    }
}

/// Whether task records are in strictly increasing task-id order.
fn in_id_order(records: &[TaskRecord]) -> bool {
    records.windows(2).all(|w| w[0].spec.id < w[1].spec.id)
}

/// Runs a full scenario: DPM + baseline on the identical trace.
pub fn run_scenario(id: ScenarioId) -> ScenarioOutcome {
    let cfg = scenario_config(id);
    let base_cfg = cfg.clone().with_controller(ControllerKind::AlwaysOn);
    let dpm = run_config(&cfg, HORIZON);
    let baseline = run_config(&base_cfg, HORIZON);
    let row = table2_row(&dpm, &baseline);
    ScenarioOutcome {
        id,
        dpm,
        baseline,
        row,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_configs_validate_and_share_the_a_trace() {
        for id in ScenarioId::ALL {
            scenario_config(id).validate();
        }
        let a1 = scenario_config(ScenarioId::A1);
        let a4 = scenario_config(ScenarioId::A4);
        assert_eq!(
            a1.ips[0].trace, a4.ips[0].trace,
            "A scenarios replay the same task sequence"
        );
        assert_ne!(a1.initial_soc, a4.initial_soc);
        assert_ne!(a1.thermal.initial, a4.thermal.initial);
    }

    #[test]
    fn b_and_c_swap_activity_between_priority_groups() {
        let b = scenario_config(ScenarioId::B);
        let c = scenario_config(ScenarioId::C);
        let count = |cfg: &SocConfig, i: usize| cfg.ips[i].trace.len();
        // B: IP0/IP1 busy; C: IP2/IP3 busy
        assert!(count(&b, 0) > count(&b, 2));
        assert!(count(&c, 2) > count(&c, 0));
        assert!(b.with_gem && c.with_gem);
    }

    #[test]
    fn paper_rows_match_the_printed_table() {
        let a2 = paper_row(ScenarioId::A2);
        assert_eq!(a2.energy_saving_pct, 55.0);
        assert_eq!(a2.delay_overhead_pct, 339.0);
        let b = paper_row(ScenarioId::B);
        assert_eq!(b.energy_saving_pct, 65.0);
    }

    #[test]
    fn a1_row_has_the_papers_shape() {
        let outcome = run_scenario(ScenarioId::A1);
        let row = outcome.row;
        assert!(
            row.energy_saving_pct > 10.0 && row.energy_saving_pct < 80.0,
            "A1 saving {}",
            row.energy_saving_pct
        );
        assert!(row.delay_overhead_pct >= 0.0, "{}", row.delay_overhead_pct);
        assert!(row.temp_reduction_pct > 0.0);
        assert_eq!(row.completed.0, row.completed.1, "A1 completes everything");
    }

    #[test]
    fn the_merge_join_sums_what_a_lookup_join_sums() {
        // the reference: a lookup join, summing in the DPM run's record
        // order
        let lookup = |dpm: &SocMetrics, baseline: &SocMetrics| {
            let (mut sum_d, mut sum_b) = (0.0f64, 0.0f64);
            for (ip_d, ip_b) in dpm.per_ip.iter().zip(&baseline.per_ip) {
                for rec in &ip_d.records {
                    if let Some(b) = ip_b.records.iter().find(|b| b.spec.id == rec.spec.id) {
                        sum_d += rec.latency().as_secs_f64();
                        sum_b += b.latency().as_secs_f64();
                    }
                }
            }
            (sum_d / sum_b - 1.0) * 100.0
        };
        // every `k`-th record of each IP dropped, leaving gaps for the
        // merge to skip
        let thinned = |metrics: &SocMetrics, k: usize| {
            let mut metrics = metrics.clone();
            for ip in &mut metrics.per_ip {
                let mut n = 0;
                ip.records.retain(|_| {
                    n += 1;
                    n % k != 0
                });
            }
            metrics
        };
        // B's DPM run completes fewer tasks than its baseline
        let ScenarioOutcome { dpm, baseline, .. } = run_scenario(ScenarioId::B);
        assert!(dpm.completed() < baseline.completed());
        let (dpm_gaps, baseline_gaps) = (thinned(&dpm, 3), thinned(&baseline, 5));
        for (d, b) in [
            (&dpm, &baseline),
            (&dpm_gaps, &baseline),
            (&dpm, &baseline_gaps),
            (&dpm_gaps, &baseline_gaps),
        ] {
            assert_eq!(
                table2_row(d, b).delay_overhead_pct.to_bits(),
                lookup(d, b).to_bits()
            );
        }
    }
}
