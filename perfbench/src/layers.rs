//! Per-layer probes: timed calls into each layer's public functions,
//! made from the benchmark's own code on the workload's own inputs.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;

use dpm_battery::{Battery, KibamBattery, LinearBattery, RateCapacityBattery};
use dpm_campaign::{CampaignArchive, CampaignSpec, LeaseConfig, ScenarioResult, ScenarioSpec};
use dpm_core::policy::{table1, PolicyTable, RuleSet};
use dpm_kernel::{Clock, Simulation};
use dpm_soc::experiment::{paper_row, run_scenario, ScenarioId};
use dpm_soc::{build_soc, collect_metrics, run_config_coarse, BatteryKind, IpConfig, SocConfig};
use dpm_thermal::{ThermalNetwork, ThermalNetworkConfig};
use dpm_units::{Power, SimDuration, SimTime};
use dpm_workload::{ActivityLevel, BurstyGenerator, PriorityWeights, TraceGenerator};

use crate::measure::{median, timed, us};

/// Per-layer metrics: name, unit, and whether higher is better. The
/// traced run reports every one of them; a layer the workload does not
/// exercise reads 0.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("kernel.run_until_s", "s", "lower"),
    ("kernel.events_per_s", "1/s", "higher"),
    ("kernel.delta_cycles_per_s", "1/s", "higher"),
    ("kernel.events", "count", "lower"),
    ("kernel.kcycles_per_s.1ip", "kcycle/s", "higher"),
    ("kernel.kcycles_per_s.4ip_gem", "kcycle/s", "higher"),
    ("soc.build_us", "us", "lower"),
    ("soc.collect_metrics_us", "us", "lower"),
    ("soc.coarse_eval_us", "us", "lower"),
    ("soc.coarse_evals", "count", "lower"),
    ("soc.coarse_speedup", "x", "higher"),
    ("spec.build_config_us", "us", "lower"),
    ("core.psm_transitions", "count", "lower"),
    ("core.lem_selections", "count", "lower"),
    ("core.gem_blocks", "count", "lower"),
    ("core.policy_lookup_ns", "ns", "lower"),
    ("battery.step_ns", "ns", "lower"),
    ("thermal.step_ns", "ns", "lower"),
    ("runner.calls", "count", "lower"),
    ("runner.simulations", "count", "lower"),
    ("runner.coarse_simulations", "count", "lower"),
    ("runner.baseline_groups", "count", "lower"),
    ("runner.dedup_ratio", "ratio", "lower"),
    ("runner.self_s", "s", "lower"),
    ("search.rounds", "count", "lower"),
    ("search.screened", "count", "lower"),
    ("search.promoted", "count", "lower"),
    ("search.round_overhead_us", "us", "lower"),
    ("search.propose_us", "us", "lower"),
    ("search.observe_us", "us", "lower"),
    ("search.promote_hit", "count", "higher"),
    ("search_regret_pp", "pp", "lower"),
    ("table2_energy_err_pp", "pp", "lower"),
    ("archive.store_us", "us", "lower"),
    ("archive.try_claim_us", "us", "lower"),
    ("archive.open_s", "s", "lower"),
    ("archive.load_s", "s", "lower"),
    ("archive.bytes_per_cell", "B", "lower"),
    ("aggregate.summarize_s", "s", "lower"),
    ("report.render_s", "s", "lower"),
    ("http.post_ms", "ms", "lower"),
    ("serve.first_event_ms", "ms", "lower"),
    ("serve.overhead_ms", "ms", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
];

/// Measured per-layer values by name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Exact counts of one probe pass: the determinism fingerprint's
/// simulated statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CellCounts {
    /// Kernel events fired, summed over the probed cells.
    pub events: u64,
    /// Delta cycles, summed.
    pub delta_cycles: u64,
    /// Completed PSM transitions, summed over every IP.
    pub psm_transitions: u64,
    /// LEM policy selections, summed.
    pub lem_selections: u64,
    /// Times the GEM blocked a LEM with tasks queued, summed.
    pub gem_blocks: u64,
}

/// Timings of one probe pass, one entry per probed cell.
#[derive(Debug, Clone, Default)]
pub struct CellCosts {
    /// `ScenarioSpec::build_config` (config + trace generation), µs.
    pub build_config_us: Vec<f64>,
    /// `Simulation::new` + `build_soc`, µs.
    pub build_us: Vec<f64>,
    /// `Simulation::run_until` to the spec horizon, s.
    pub run_until_s: Vec<f64>,
    /// `collect_metrics`, µs.
    pub collect_us: Vec<f64>,
    /// `run_config_coarse` on the same config, µs.
    pub coarse_us: Vec<f64>,
    /// Exact counts.
    pub counts: CellCounts,
}

impl CellCosts {
    /// Mean µs per fine evaluation of a cell, config build included.
    pub fn fine_eval_us(&self) -> f64 {
        let n = self.build_us.len().max(1) as f64;
        let total: f64 = self.build_config_us.iter().sum::<f64>()
            + self.build_us.iter().sum::<f64>()
            + self.run_until_s.iter().sum::<f64>() * 1e6
            + self.collect_us.iter().sum::<f64>();
        total / n
    }

    fn min_with(&mut self, other: &CellCosts) {
        for (mine, theirs) in [
            (&mut self.build_config_us, &other.build_config_us),
            (&mut self.build_us, &other.build_us),
            (&mut self.run_until_s, &other.run_until_s),
            (&mut self.collect_us, &other.collect_us),
            (&mut self.coarse_us, &other.coarse_us),
        ] {
            for (a, b) in mine.iter_mut().zip(theirs) {
                *a = a.min(*b);
            }
        }
    }
}

fn probe_once(spec: &CampaignSpec, cells: &[ScenarioSpec]) -> CellCosts {
    let horizon = spec.horizon();
    let mut costs = CellCosts::default();
    let configs: Vec<SocConfig> = cells
        .iter()
        .map(|cell| {
            let (cfg, t) = timed(|| cell.build_config(spec));
            costs.build_config_us.push(us(t));
            cfg
        })
        .collect();
    for cfg in &configs {
        let mut sim = Simulation::new();
        let (handles, t) = timed(|| build_soc(&mut sim, cfg));
        costs.build_us.push(us(t));
        let (_, t) = timed(|| sim.run_until(horizon));
        costs.run_until_s.push(t.as_secs_f64());
        let stats = sim.stats().clone();
        let (metrics, t) = timed(|| collect_metrics(&mut sim, &handles, horizon));
        costs.collect_us.push(us(t));
        let c = &mut costs.counts;
        c.events += stats.events_fired;
        c.delta_cycles += stats.delta_cycles;
        for ip in &metrics.per_ip {
            c.psm_transitions += ip.psm.transitions;
            if let Some(lem) = &ip.lem {
                c.lem_selections += lem.selections_by_state.iter().sum::<u64>();
                c.gem_blocks += lem.gem_blocks;
            }
        }
    }
    for cfg in &configs {
        let (coarse, t) = timed(|| run_config_coarse(cfg, horizon));
        costs.coarse_us.push(us(t));
        black_box(coarse);
    }
    costs
}

/// Replays `cells` through the layer functions the runner calls (spec →
/// SoC build → kernel → metrics), then the coarse evaluator on the same
/// configs, twice. Timings keep each cell's faster pass; the returned
/// flag is `false` when the two passes' exact counts differ.
pub fn probe_cells(spec: &CampaignSpec, cells: &[ScenarioSpec]) -> (CellCosts, bool) {
    let mut first = probe_once(spec, cells);
    let second = probe_once(spec, cells);
    let same = first.counts == second.counts;
    first.min_with(&second);
    (first, same)
}

/// Records a probe pass into the per-layer table.
pub fn record_cells(layers: &mut Layers, costs: &CellCosts) {
    let run_total: f64 = costs.run_until_s.iter().sum();
    let fine_us: f64 =
        costs.build_us.iter().sum::<f64>() + run_total * 1e6 + costs.collect_us.iter().sum::<f64>();
    let coarse_us: f64 = costs.coarse_us.iter().sum();
    let c = costs.counts;
    layers.insert("spec.build_config_us", median(&costs.build_config_us));
    layers.insert("soc.build_us", median(&costs.build_us));
    layers.insert("soc.collect_metrics_us", median(&costs.collect_us));
    layers.insert("soc.coarse_eval_us", median(&costs.coarse_us));
    layers.insert("soc.coarse_speedup", fine_us / coarse_us.max(1e-9));
    layers.insert("kernel.run_until_s", run_total);
    layers.insert("kernel.events", c.events as f64);
    layers.insert(
        "kernel.events_per_s",
        c.events as f64 / run_total.max(1e-12),
    );
    layers.insert(
        "kernel.delta_cycles_per_s",
        c.delta_cycles as f64 / run_total.max(1e-12),
    );
    layers.insert("core.psm_transitions", c.psm_transitions as f64);
    layers.insert("core.lem_selections", c.lem_selections as f64);
    layers.insert("core.gem_blocks", c.gem_blocks as f64);
}

/// Up to `n` cells spread evenly over the grid (always including both
/// ends), so 1-IP and multi-IP cells are both probed.
pub fn sample_cells(spec: &CampaignSpec, n: usize) -> Vec<ScenarioSpec> {
    let total = spec.scenario_count();
    let n = n.clamp(1, total);
    let mut idx: Vec<usize> = (0..n)
        .map(|k| if n == 1 { 0 } else { k * (total - 1) / (n - 1) })
        .collect();
    idx.dedup();
    idx.into_iter().map(|i| spec.cell_at(i)).collect()
}

/// Median ns per `PolicyTable::select` over the whole Table 1 input
/// space (the LEM's per-decision lookup).
pub fn policy_lookup_ns() -> f64 {
    let table = PolicyTable::new(&table1());
    let inputs: Vec<_> = RuleSet::input_space().collect();
    let reps = 2_000;
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let (_, t) = timed(|| {
                let mut acc = 0usize;
                for _ in 0..reps {
                    for i in &inputs {
                        acc += table.select(black_box(*i)).state.index();
                    }
                }
                black_box(acc)
            });
            t.as_secs_f64() * 1e9 / (reps * inputs.len()) as f64
        })
        .collect();
    median(&samples)
}

/// The battery model the SoC builder makes for `cfg` (its own
/// constructor is private to `dpm-soc`).
fn battery_of(cfg: &SocConfig) -> Box<dyn Battery> {
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

/// Median ns per battery `drain` step over the battery models the
/// workload's configs use.
pub fn battery_step_ns(configs: &[SocConfig]) -> f64 {
    let steps = 20_000u32;
    let dt = SimDuration::from_micros(100);
    let p = Power::from_milliwatts(300.0);
    let samples: Vec<f64> = configs
        .iter()
        .map(|cfg| {
            let mut battery = battery_of(cfg);
            let (_, t) = timed(|| {
                for _ in 0..steps {
                    battery.drain(black_box(p), dt);
                }
                black_box(battery.soc())
            });
            t.as_secs_f64() * 1e9 / f64::from(steps)
        })
        .collect();
    median(&samples)
}

/// Median ns per thermal-network step at the workload's IP counts.
pub fn thermal_step_ns(configs: &[SocConfig]) -> f64 {
    let steps = 20_000u32;
    let samples: Vec<f64> = configs
        .iter()
        .map(|cfg| {
            let n = cfg.ips.len();
            let powers: Vec<Power> = (0..n).map(|_| Power::from_milliwatts(250.0)).collect();
            let mut net = ThermalNetwork::new(ThermalNetworkConfig::default_soc(n));
            let (_, t) = timed(|| {
                for _ in 0..steps {
                    net.step(black_box(&powers), false, SimDuration::from_micros(100));
                }
                black_box(net.hottest())
            });
            t.as_secs_f64() * 1e9 / f64::from(steps)
        })
        .collect();
    median(&samples)
}

/// The paper's simulation-speed metric: Kcycle per wall second of the
/// cycle-accurate mode (a 200 MHz clock through every cycle) for the
/// 1-IP (scenario A) and 4-IP + GEM (scenarios B/C) shapes, median of
/// three 1 ms runs each.
pub fn kcycles_per_s() -> (f64, f64) {
    let trace = |seed| {
        BurstyGenerator::for_activity(ActivityLevel::High, PriorityWeights::typical_user())
            .generate(SimTime::from_millis(20), seed)
    };
    let mut single = SocConfig::single_ip(trace(3));
    single.cycle_accurate = true;
    let ips = (0..4)
        .map(|i| IpConfig::new(format!("ip{i}"), trace(40 + i as u64), i as u8 + 1))
        .collect();
    let mut multi = SocConfig::multi_ip(ips);
    multi.cycle_accurate = true;
    let speed = |cfg: &SocConfig| {
        let samples: Vec<f64> = (0..3)
            .map(|_| {
                let mut sim = Simulation::new();
                let handles = build_soc(&mut sim, cfg);
                sim.run_until(SimTime::from_millis(1));
                let clock = handles.clock().expect("cycle-accurate config has a clock");
                let cycles = sim.with_process::<Clock, _>(clock.pid, |c| c.cycles());
                sim.stats().kcycles_per_sec(cycles).unwrap_or(0.0)
            })
            .collect();
        median(&samples)
    };
    (speed(&single), speed(&multi))
}

/// Archive-layer probes on the workload's own results, in a scratch
/// campaign directory: median µs per `store`, median µs per `try_claim`
/// (each claim released again), and segment bytes per stored record.
pub fn archive_probe(
    spec: &CampaignSpec,
    results: &[ScenarioResult],
    dir: &Path,
) -> Result<(f64, f64, f64), String> {
    let archive = CampaignArchive::open(dir, spec)?;
    let mut store = Vec::with_capacity(results.len());
    for r in results {
        let (res, t) = timed(|| archive.store(spec, r));
        res?;
        store.push(us(t));
    }
    let lease = LeaseConfig::for_process();
    let mut claim = Vec::new();
    for group in 0..spec.group_count() {
        let (res, t) = timed(|| archive.try_claim(group, &lease));
        let held = res?.ok_or("a fresh archive refused a lease")?;
        claim.push(us(t));
        archive.release(held);
    }
    let bytes = dir_bytes(&dir.join("segments"));
    Ok((
        median(&store),
        median(&claim),
        bytes as f64 / results.len().max(1) as f64,
    ))
}

/// Total size of the regular files directly under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Table 2, the model's only reference data: our and the paper's energy
/// saving (%) for each of the six scenarios, at the canonical workload
/// seed.
pub fn table2_energy_errors() -> Vec<(ScenarioId, f64, f64)> {
    ScenarioId::ALL
        .into_iter()
        .map(|id| {
            let ours = run_scenario(id).row.energy_saving_pct;
            (id, ours, paper_row(id).energy_saving_pct)
        })
        .collect()
}

/// Probes shared by every workload: cell replay, model micro-steps and
/// the paper's Kcycle/s. Returns the exact counts and whether the two
/// replay passes agreed.
pub fn common_probes(
    layers: &mut Layers,
    rows: &mut Vec<String>,
    spec: &CampaignSpec,
    cells: &[ScenarioSpec],
) -> (CellCosts, bool) {
    let (costs, same) = probe_cells(spec, cells);
    record_cells(layers, &costs);
    let configs: Vec<SocConfig> = cells.iter().map(|c| c.build_config(spec)).collect();
    layers.insert("core.policy_lookup_ns", policy_lookup_ns());
    layers.insert("battery.step_ns", battery_step_ns(&configs));
    layers.insert("thermal.step_ns", thermal_step_ns(&configs));
    let (one, four) = kcycles_per_s();
    layers.insert("kernel.kcycles_per_s.1ip", one);
    layers.insert("kernel.kcycles_per_s.4ip_gem", four);
    rows.push(format!(
        "paper: simulation speed (cycle-accurate) 1 IP {one:.0} Kcycle/s vs paper 35 Kcycle/s; \
         4 IP + GEM {four:.0} Kcycle/s vs paper 7.5 Kcycle/s (2005 host; the ratio is the portable claim)"
    ));
    (costs, same)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{sweep_toml, Size};
    use dpm_campaign::parse_campaign_toml;

    #[test]
    fn probes_repeat_their_counts_and_fill_the_layer_table() {
        let (spec, _) = parse_campaign_toml(&sweep_toml(5, 0, Size::Tiny)).unwrap();
        let cells = sample_cells(&spec, 4);
        let (costs, same) = probe_cells(&spec, &cells);
        assert!(same);
        assert!(costs.counts.events > 0);
        let mut layers = Layers::new();
        record_cells(&mut layers, &costs);
        assert!(layers["kernel.events_per_s"] > 0.0);
        assert!(layers["soc.coarse_speedup"] > 0.0);
    }

    #[test]
    fn per_layer_names_are_unique() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
    }
}
