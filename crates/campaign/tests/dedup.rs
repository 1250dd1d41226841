//! Baseline-dedup contract: sharing one always-`ON1` baseline across
//! cells that differ only in controller/tuning changes *nothing* about
//! the results — it only removes simulations (counted by the runner's
//! [`RunStats`] hook).

use dpm_campaign::{
    campaign_json, run_campaign_with, run_cells_with, summarize, BaselineCache, BatteryAxis,
    CampaignRun, CampaignSpec, ControllerAxis, Fidelity, RunnerConfig, ScenarioMetrics,
    ScenarioResult, ScenarioSpec, ThermalAxis, TuningAxis, WorkloadAxis,
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

/// The benchmark `search` workload's grid shape at 15 ms: every
/// controller and tuning, four workloads, every battery, both thermals,
/// 1 and 4 IPs, two seeds (2 400 cells).
fn benchmark_shaped_grid() -> CampaignSpec {
    CampaignSpec {
        name: "benchmark_shaped".into(),
        horizon_ms: 15,
        master_seed: 987_654_321,
        initial_soc: 0.95,
        controllers: ControllerAxis::ALL.to_vec(),
        tunings: TuningAxis::ALL.to_vec(),
        workloads: vec![
            WorkloadAxis::Low,
            WorkloadAxis::High,
            WorkloadAxis::PaperA,
            WorkloadAxis::PaperBusy,
        ],
        seeds: vec![3, 11],
        batteries: BatteryAxis::ALL.to_vec(),
        thermals: ThermalAxis::ALL.to_vec(),
        ip_counts: vec![1, 4],
    }
}

/// A result with every float as its bit pattern, so equality is bit
/// equality (`0.0` differs from `-0.0`, a NaN equals itself).
fn bits(r: &ScenarioResult) -> (ScenarioSpec, Option<[u64; 12]>, Option<String>) {
    let metrics = r.metrics.as_ref().map(|m| {
        let ScenarioMetrics {
            completed,
            total_tasks,
            deferred,
            energy_j,
            baseline_energy_j,
            energy_saving_pct,
            temp_reduction_pct,
            delay_overhead_pct,
            mean_latency_us,
            max_temp_c,
            final_soc,
            low_power_frac,
        } = m;
        [
            *completed as u64,
            *total_tasks as u64,
            *deferred as u64,
            energy_j.to_bits(),
            baseline_energy_j.to_bits(),
            energy_saving_pct.to_bits(),
            temp_reduction_pct.to_bits(),
            delay_overhead_pct.to_bits(),
            mean_latency_us.to_bits(),
            max_temp_c.to_bits(),
            final_soc.to_bits(),
            low_power_frac.to_bits(),
        ]
    });
    (r.scenario, metrics, r.error.clone())
}

/// Coarse batches sharing one [`BaselineCache`] walk each trace
/// skeleton's shared coarse plan, concurrently at two threads; an
/// uncached run builds a plan per evaluation. Over a whole grid where
/// every axis varies, the two agree bit for bit on every record — at
/// the benchmark's full battery and at Table 2's battery-Low start,
/// where the GEM's battery rule gates IPs by rank.
#[test]
fn coarse_batches_sharing_plans_equal_one_shot_evaluation_bit_for_bit() {
    for initial_soc in [0.95, 0.22] {
        let spec = CampaignSpec {
            initial_soc,
            ..benchmark_shaped_grid()
        };
        let n = spec.scenario_count();
        // 37 is coprime with 2 400, so the stride visits every cell once
        let order: Vec<ScenarioSpec> = (0..n).map(|k| spec.cell_at(k * 37 % n)).collect();
        let config = |threads| {
            RunnerConfig {
                threads,
                ..RunnerConfig::default()
            }
            .with_fidelity(Fidelity::Coarse)
        };
        let one_shot = run_cells_with(&spec, &order, &config(1), None, None).expect("valid spec");
        let expected: Vec<_> = one_shot.result.results.iter().map(bits).collect();
        assert!(expected.iter().all(|(_, m, e)| m.is_some() && e.is_none()));

        for threads in [1, 2] {
            let mut cache = BaselineCache::new();
            let mut got = Vec::with_capacity(n);
            for batch in order.chunks(7) {
                let run = run_cells_with(&spec, batch, &config(threads), None, Some(&mut cache))
                    .expect("valid spec");
                got.extend(run.result.results.iter().map(bits));
            }
            assert_eq!(got.len(), n);
            for (g, e) in got.iter().zip(&expected) {
                assert_eq!(g, e, "initial_soc={initial_soc} threads={threads}");
            }
        }
    }
}
