//! Archive round-trip contract: resuming a campaign from any partial
//! archive yields the **byte-identical** aggregate a cold run produces,
//! for any thread count. A resume reads one record per configuration,
//! and the tuning siblings sharing it run nothing.

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use dpm_campaign::{
    campaign_json, run_campaign_with, summarize, BatteryAxis, CampaignArchive, CampaignResult,
    CampaignSpec, ControllerAxis, RunnerConfig, ScenarioMetrics, ScenarioResult, ScenarioSpec,
    ThermalAxis, TuningAxis, WorkloadAxis,
};
use proptest::prelude::*;

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

/// A fresh scratch directory under the cargo-managed tmp dir.
fn scratch_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "resume-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spec_with(master_seed: u64, seeds: Vec<u64>, two_controllers: bool) -> CampaignSpec {
    CampaignSpec {
        name: "resume".into(),
        horizon_ms: 6,
        master_seed,
        initial_soc: 0.9,
        controllers: if two_controllers {
            vec![ControllerAxis::Dpm, ControllerAxis::AlwaysOn]
        } else {
            vec![ControllerAxis::Dpm]
        },
        tunings: vec![TuningAxis::Paper],
        workloads: vec![WorkloadAxis::Low],
        seeds,
        batteries: vec![BatteryAxis::Linear],
        thermals: vec![ThermalAxis::Cool],
        ip_counts: vec![1],
    }
}

fn config(threads: usize) -> RunnerConfig {
    RunnerConfig {
        threads,
        ..RunnerConfig::default()
    }
}

fn archive_bytes(result: &CampaignResult) -> String {
    campaign_json(&summarize(result), Some(result)).expect("render json")
}

/// Cold-runs `spec`, seeds an archive with the cells selected by `keep`,
/// then resumes on each requested thread count and checks byte equality.
fn check_resume(spec: &CampaignSpec, keep: impl Fn(usize) -> bool) {
    let cold = run_campaign_with(spec, &config(1), None).expect("cold run");
    let reference = archive_bytes(&cold.result);

    // fresh archive per thread count: a resume *writes back* the cells it
    // completes, so a shared directory would fill up after the first pass
    for threads in [1, 2, 8] {
        let dir = scratch_dir();
        let archive = CampaignArchive::open(&dir, spec).expect("open archive");
        let mut kept = 0;
        for (i, r) in cold.result.results.iter().enumerate() {
            if keep(i) {
                archive.store(spec, r).expect("store cell");
                kept += 1;
            }
        }

        let resumed =
            run_campaign_with(spec, &config(threads), Some(&archive)).expect("resumed run");
        assert_eq!(resumed.stats.archived_cells, kept);
        assert_eq!(
            resumed.stats.executed_cells,
            spec.scenario_count() - kept,
            "resume must run exactly the missing cells"
        );
        assert_eq!(
            archive_bytes(&resumed.result),
            reference,
            "resume on {threads} threads (archive hits: {kept}) diverged from the cold run"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn resume_from_empty_partial_and_full_archives() {
    let spec = spec_with(0xDA7E_2005, vec![1, 2, 3], true);
    check_resume(&spec, |_| false); // empty archive: everything fresh
    check_resume(&spec, |i| i % 2 == 0); // every other cell archived
    check_resume(&spec, |_| true); // full archive: zero simulations
}

#[test]
fn fully_archived_resume_runs_no_simulations() {
    let spec = spec_with(3, vec![4, 5], true);
    let cold = run_campaign_with(&spec, &config(1), None).unwrap();
    let dir = scratch_dir();
    let archive = CampaignArchive::open(&dir, &spec).unwrap();
    for r in &cold.result.results {
        archive.store(&spec, r).unwrap();
    }
    let resumed = run_campaign_with(&spec, &config(2), Some(&archive)).unwrap();
    assert_eq!(resumed.stats.simulations, 0);
    assert_eq!(resumed.stats.baseline_groups, 0);
    assert_eq!(resumed.result, cold.result);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn interrupted_sweep_leaves_a_resumable_archive() {
    // a "killed" sweep is modeled by archiving only a prefix of the grid;
    // the resumed run must also *write back* the cells it completes
    let spec = spec_with(9, vec![1, 2], true);
    let cold = run_campaign_with(&spec, &config(1), None).unwrap();
    let dir = scratch_dir();
    let archive = CampaignArchive::open(&dir, &spec).unwrap();
    for r in cold.result.results.iter().take(2) {
        archive.store(&spec, r).unwrap();
    }
    let first = run_campaign_with(&spec, &config(1), Some(&archive)).unwrap();
    assert!(first.stats.simulations > 0);
    // second resume: everything already on disk
    let second = run_campaign_with(&spec, &config(4), Some(&archive)).unwrap();
    assert_eq!(second.stats.simulations, 0);
    assert_eq!(second.result, cold.result);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn broken_archive_mid_run_keeps_the_results() {
    // the archive dir breaks after open (segments/ blocked by a file,
    // so the writer can neither create the directory nor a segment):
    // stores fail, but the run still returns complete, correct results
    let spec = spec_with(21, vec![1], true);
    let dir = scratch_dir();
    let archive = CampaignArchive::open(&dir, &spec).unwrap();
    let _ = std::fs::remove_dir_all(dir.join("segments"));
    std::fs::write(dir.join("segments"), "in the way").unwrap();

    let run = run_campaign_with(&spec, &config(2), Some(&archive)).unwrap();
    assert!(!run.archive_errors.is_empty(), "store failures surface");
    let cold = run_campaign_with(&spec, &config(1), None).unwrap();
    assert_eq!(run.result, cold.result, "results survive archive failure");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every controller kind but a second timeout, at two tunings: the
/// tuning siblings of an `always_on`, timeout or `oracle` cell share
/// one run, and a `dpm` cell's run is its own.
fn sibling_spec() -> CampaignSpec {
    CampaignSpec {
        name: "siblings".into(),
        horizon_ms: 6,
        master_seed: 0x51B_2005,
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

/// The configuration a cell runs: its axes, with the tuning dropped
/// unless the controller is `dpm`.
type Configuration = (
    ControllerAxis,
    Option<TuningAxis>,
    WorkloadAxis,
    u64,
    BatteryAxis,
    ThermalAxis,
    usize,
);

fn configuration(cell: &ScenarioSpec) -> Configuration {
    (
        cell.controller,
        (cell.controller == ControllerAxis::Dpm).then_some(cell.tuning),
        cell.workload,
        cell.seed,
        cell.battery,
        cell.thermal,
        cell.ip_count,
    )
}

/// Simulations a resume needs when the configurations in `resolved`
/// are known from the archive: each other configuration runs once, and
/// so does the always-`ON1` baseline of each (an always-`ON1` run is
/// its own baseline).
fn simulations_needed(spec: &CampaignSpec, resolved: &HashSet<Configuration>) -> usize {
    let unresolved: HashSet<Configuration> = spec
        .expand()
        .iter()
        .map(configuration)
        .filter(|c| !resolved.contains(c))
        .collect();
    let baselines: HashSet<Configuration> = unresolved
        .iter()
        .map(|&(_, _, workload, seed, battery, thermal, ips)| {
            (
                ControllerAxis::AlwaysOn,
                None,
                workload,
                seed,
                battery,
                thermal,
                ips,
            )
        })
        .collect();
    let own = unresolved
        .iter()
        .filter(|c| c.0 != ControllerAxis::AlwaysOn)
        .count();
    own + baselines.len()
}

#[test]
fn one_tunings_records_serve_their_siblings() {
    let spec = sibling_spec();
    let cold = run_campaign_with(&spec, &config(1), None).unwrap();
    let reference = archive_bytes(&cold.result);
    let stored: Vec<&ScenarioResult> = cold
        .result
        .results
        .iter()
        .filter(|r| r.scenario.tuning == TuningAxis::Paper)
        .collect();
    let resolved: HashSet<Configuration> =
        stored.iter().map(|r| configuration(&r.scenario)).collect();
    let needed = simulations_needed(&spec, &resolved);
    // the two eager `dpm` runs and their two baselines; a resume that
    // ran every cell without a record would also run the eager
    // timeout and oracle cells
    assert_eq!(needed, 4);

    for threads in [1, 2] {
        let dir = scratch_dir();
        let archive = CampaignArchive::open(&dir, &spec).unwrap();
        for r in &stored {
            archive.store(&spec, r).unwrap();
        }
        let resumed = run_campaign_with(&spec, &config(threads), Some(&archive)).unwrap();
        assert_eq!(
            archive_bytes(&resumed.result),
            reference,
            "{threads} threads"
        );
        assert_eq!(resumed.stats.archived_cells, stored.len());
        assert_eq!(
            resumed.stats.executed_cells,
            spec.scenario_count() - stored.len()
        );
        assert_eq!(resumed.stats.simulations, needed, "{threads} threads");

        // the cells served from a sibling's record were stored: a second
        // resume runs nothing
        let again = run_campaign_with(&spec, &config(threads), Some(&archive)).unwrap();
        assert_eq!(again.stats.simulations, 0);
        assert_eq!(again.result, cold.result);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A record for `cell`'s grid index that fails validation: it describes
/// another tuning, with metrics no run produces.
fn forged(cell: &ScenarioSpec) -> ScenarioResult {
    let tuning = if cell.tuning == TuningAxis::Paper {
        TuningAxis::Eager
    } else {
        TuningAxis::Paper
    };
    ScenarioResult {
        scenario: ScenarioSpec { tuning, ..*cell },
        metrics: Some(ScenarioMetrics {
            completed: 7,
            total_tasks: 7,
            deferred: 0,
            energy_j: 1.0e9,
            baseline_energy_j: 1.0e9,
            energy_saving_pct: 99.0,
            temp_reduction_pct: 99.0,
            delay_overhead_pct: 0.0,
            mean_latency_us: 1.0,
            max_temp_c: 1.0,
            final_soc: 1.0,
            low_power_frac: 1.0,
        }),
        error: None,
    }
}

#[test]
fn a_record_failing_validation_falls_back_to_a_siblings() {
    let spec = sibling_spec();
    let cold = run_campaign_with(&spec, &config(1), None).unwrap();
    let siblings = |controller, seed| -> Vec<ScenarioSpec> {
        spec.expand()
            .into_iter()
            .filter(|c| c.controller == controller && c.seed == seed)
            .collect()
    };
    // the timeout configuration's first cell holds a bad record and its
    // sibling a good one; both oracle cells of seed 2 hold bad records
    let fallback = siblings(ControllerAxis::Timeout500us, 1);
    let unusable = siblings(ControllerAxis::Oracle, 2);
    assert_eq!((fallback.len(), unusable.len()), (2, 2));
    let forged_cells: Vec<usize> = [fallback[0], unusable[0], unusable[1]]
        .iter()
        .map(|c| c.index)
        .collect();
    // the oracle configuration and its baseline run again
    let resolved: HashSet<Configuration> = spec
        .expand()
        .iter()
        .filter(|c| !unusable.contains(c))
        .map(configuration)
        .collect();
    assert_eq!(simulations_needed(&spec, &resolved), 2);

    for threads in [1, 2] {
        let dir = scratch_dir();
        let archive = CampaignArchive::open(&dir, &spec).unwrap();
        for r in &cold.result.results {
            if forged_cells.contains(&r.scenario.index) {
                archive.store(&spec, &forged(&r.scenario)).unwrap();
            } else {
                archive.store(&spec, r).unwrap();
            }
        }
        assert_eq!(archive.load(&spec, &fallback[..1]).loaded, 0);

        let resumed = run_campaign_with(&spec, &config(threads), Some(&archive)).unwrap();
        assert_eq!(
            archive_bytes(&resumed.result),
            archive_bytes(&cold.result),
            "a bad record leaked into the results on {threads} threads"
        );
        // the timeout cell with the bad record is served its sibling's
        // outcome without a simulation; the oracle cells, without a good
        // record, run
        assert_eq!(resumed.stats.archived_cells, spec.scenario_count() - 3);
        assert_eq!(resumed.stats.executed_cells, 3);
        assert_eq!(resumed.stats.simulations, 2, "{threads} threads");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    // Any spec, any archived subset, 1/2/8 threads: the aggregate is
    // byte-identical to a cold run.
    #[test]
    fn archive_round_trip_matches_cold_run(
        master in 0u64..u64::MAX / 2,
        seeds in prop::collection::vec(0u64..1000, 1..3),
        two_controllers in prop::sample::select(vec![false, true]),
        keep_mask in prop::bits::u8::masked(0b1111_1111),
    ) {
        let spec = spec_with(master, seeds, two_controllers);
        check_resume(&spec, |i| keep_mask & (1 << (i % 8)) != 0);
    }
}
