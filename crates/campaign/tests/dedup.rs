//! Baseline-dedup contract: sharing one always-`ON1` baseline across
//! cells that differ only in controller/tuning changes *nothing* about
//! the results — it only removes simulations (counted by the runner's
//! [`RunStats`] hook).

use dpm_campaign::{
    campaign_json, run_campaign_with, run_cells_with, summarize, BaselineCache, BatteryAxis,
    CampaignRun, CampaignSpec, ControllerAxis, Fidelity, RunnerConfig, ScenarioSpec, ThermalAxis,
    TuningAxis, WorkloadAxis,
};

/// A controller×tuning-heavy grid: 4 controllers × 2 tunings over a
/// single (workload, seed, battery, thermal, ip-count) pair of groups.
fn controller_grid() -> CampaignSpec {
    CampaignSpec {
        name: "dedup".into(),
        horizon_ms: 6,
        master_seed: 0xDED0_0001,
        initial_soc: 0.9,
        controllers: vec![
            ControllerAxis::Dpm,
            ControllerAxis::AlwaysOn,
            ControllerAxis::Timeout500us,
            ControllerAxis::Oracle,
        ],
        tunings: vec![TuningAxis::Paper, TuningAxis::Eager],
        workloads: vec![WorkloadAxis::Low],
        seeds: vec![1, 2],
        batteries: vec![BatteryAxis::Linear],
        thermals: vec![ThermalAxis::Cool],
        ip_counts: vec![1],
    }
}

fn run(spec: &CampaignSpec, threads: usize, dedup: bool) -> CampaignRun {
    let config = RunnerConfig {
        threads,
        progress: false,
        dedup_baselines: dedup,
        ..RunnerConfig::default()
    };
    run_campaign_with(spec, &config, None).expect("valid spec")
}

#[test]
fn dedup_preserves_results_and_strictly_cuts_simulations() {
    let spec = controller_grid();
    let with = run(&spec, 1, true);
    let without = run(&spec, 1, false);

    // identical ScenarioMetrics, cell for cell
    assert_eq!(with.result, without.result);
    // ... down to the rendered bytes
    assert_eq!(
        campaign_json(&summarize(&with.result), Some(&with.result)).unwrap(),
        campaign_json(&summarize(&without.result), Some(&without.result)).unwrap(),
    );

    // run-counter hook: strictly fewer simulations with dedup
    let cells = spec.scenario_count();
    assert_eq!(without.stats.simulations, 2 * cells);
    assert!(
        with.stats.simulations < without.stats.simulations,
        "dedup must run strictly fewer simulations: {} vs {}",
        with.stats.simulations,
        without.stats.simulations
    );
    // exact accounting: 2 baseline groups (one per seed); per group the
    // 2 always-ON1 cells reuse the baseline, the other 6 cells run one
    // scenario simulation each
    assert_eq!(with.stats.baseline_groups, 2);
    assert_eq!(with.stats.reused_baselines, 4);
    assert_eq!(with.stats.simulations, 2 + 2 * 6);
}

#[test]
fn dedup_is_thread_count_invariant() {
    let spec = controller_grid();
    let serial = run(&spec, 1, true);
    for threads in [2, 4, 8] {
        let parallel = run(&spec, threads, true);
        assert_eq!(parallel.result, serial.result, "threads={threads}");
        assert_eq!(parallel.stats.simulations, serial.stats.simulations);
    }
}

#[test]
fn multi_ip_groups_dedup_too() {
    let mut spec = controller_grid();
    spec.controllers = vec![ControllerAxis::Dpm, ControllerAxis::AlwaysOn];
    spec.tunings = vec![TuningAxis::Paper];
    spec.seeds = vec![1];
    spec.ip_counts = vec![1, 4];
    let with = run(&spec, 2, true);
    let without = run(&spec, 2, false);
    assert_eq!(with.result, without.result);
    // two groups (ip_count 1 and 4); each<ip-count group's always-ON1
    // cell reuses, each DPM cell runs once
    assert_eq!(with.stats.baseline_groups, 2);
    assert_eq!(with.stats.simulations, 2 + 2);
    assert_eq!(without.stats.simulations, 8);
}

/// Two values on every axis, so every baseline group and every trace set
/// recurs across cells that differ in their per-cell settings.
fn two_per_axis() -> CampaignSpec {
    CampaignSpec {
        name: "two_per_axis".into(),
        horizon_ms: 6,
        master_seed: 0xDED0_0002,
        initial_soc: 0.6,
        controllers: vec![ControllerAxis::Dpm, ControllerAxis::AlwaysOn],
        tunings: vec![TuningAxis::Paper, TuningAxis::Eager],
        workloads: vec![WorkloadAxis::Low, WorkloadAxis::PaperBusy],
        seeds: vec![1, 2],
        batteries: vec![BatteryAxis::Linear, BatteryAxis::Kibam],
        thermals: vec![ThermalAxis::Cool, ThermalAxis::Hot],
        ip_counts: vec![1, 3],
    }
}

/// A search-shaped sequence of small batches sharing one
/// [`BaselineCache`] (so later batches take baselines and trace
/// skeletons from it) gives exactly the results and the work of one run.
#[test]
fn batches_sharing_a_cache_equal_one_run() {
    let spec = two_per_axis();
    let n = spec.scenario_count();
    // a stride coprime with the grid size visits every cell once and
    // splits every group and trace set across batches
    let order: Vec<ScenarioSpec> = (0..n).map(|k| spec.cell_at(k * 37 % n)).collect();
    for fidelity in [Fidelity::Coarse, Fidelity::Fine] {
        let config = RunnerConfig {
            threads: 2,
            ..RunnerConfig::default()
        }
        .with_fidelity(fidelity);
        let whole = run_campaign_with(&spec, &config, None).expect("valid spec");

        let mut cache = BaselineCache::new();
        let mut results = Vec::new();
        let (mut simulations, mut coarse) = (0, 0);
        for batch in order.chunks(5) {
            let run =
                run_cells_with(&spec, batch, &config, None, Some(&mut cache)).expect("valid spec");
            simulations += run.stats.simulations;
            coarse += run.stats.coarse_simulations;
            results.extend(run.result.results);
        }
        results.sort_by_key(|r| r.scenario.index);

        assert_eq!(results, whole.result.results, "{fidelity:?}");
        assert_eq!(simulations, whole.stats.simulations, "{fidelity:?}");
        assert_eq!(coarse, whole.stats.coarse_simulations, "{fidelity:?}");
        assert_eq!(cache.len(), spec.group_count(), "{fidelity:?}");
    }
}
