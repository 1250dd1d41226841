//! Differential harness for the pluggable search strategies.
//!
//! The contract, strategy by strategy:
//!
//! * **pareto**: with `budget >= grid size` the returned front equals
//!   the **brute-force non-dominated set** of an exhaustive campaign
//!   ([`MultiObjective::front`]) — property-tested over random grids,
//!   objective pairs and budget surpluses, and pinned on a 64-cell
//!   acceptance grid;
//! * **anneal**: with `budget >= grid size` the walk degenerates to an
//!   exhaustive sweep and the reported best equals the campaign
//!   argmax — property-tested over random grids, metrics and schedules;
//! * **every strategy**: the report is **byte-identical** across 1/2/8
//!   threads, fresh/archived mixes, and speculative prefetch on or off,
//!   with speculative work never charged against the strategy budget.
//!
//! Policy (tests/README.md): determinism claims assert on report
//! *bytes* (`search_json` / `pareto_json`), work claims on `RunStats` —
//! never both on the same artifact.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use dpm_campaign::{
    pareto_campaign, pareto_json, run_campaign_with, search_campaign, search_json, BatteryAxis,
    CampaignArchive, CampaignSpec, ControllerAxis, Metric, MultiObjective, Objective, ParetoSpec,
    RunnerConfig, SearchFidelity, SearchSpec, StrategyKind, ThermalAxis, TuningAxis, WorkloadAxis,
};
use proptest::prelude::*;

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn scratch_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "strategies-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(threads: usize) -> RunnerConfig {
    RunnerConfig {
        threads,
        ..RunnerConfig::default()
    }
}

/// The 64-cell acceptance grid (4 controllers × 2 tunings × 2 workloads
/// × 2 seeds × 2 thermals).
fn grid64() -> CampaignSpec {
    CampaignSpec {
        name: "strategies64".into(),
        horizon_ms: 5,
        master_seed: 0x5745_A7E6,
        initial_soc: 0.9,
        controllers: vec![
            ControllerAxis::Dpm,
            ControllerAxis::Timeout500us,
            ControllerAxis::Timeout2ms,
            ControllerAxis::Oracle,
        ],
        tunings: vec![TuningAxis::Paper, TuningAxis::Eager],
        workloads: vec![WorkloadAxis::Low, WorkloadAxis::High],
        seeds: vec![1, 2],
        batteries: vec![BatteryAxis::Linear],
        thermals: vec![ThermalAxis::Cool, ThermalAxis::Hot],
        ip_counts: vec![1],
    }
}

fn small_spec(master_seed: u64, seeds: Vec<u64>, two_controllers: bool) -> CampaignSpec {
    CampaignSpec {
        name: "strategies_small".into(),
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

fn multi() -> MultiObjective {
    MultiObjective::parse("energy_saving,min:delay").unwrap()
}

fn anneal_spec(objective: Objective, budget: usize) -> SearchSpec {
    SearchSpec::new(objective, budget).with_strategy(StrategyKind::Anneal)
}

// ---- acceptance: the 64-cell grid -----------------------------------

/// ISSUE 5 acceptance: `--strategy pareto --budget <grid-size>` on a
/// ≤64-cell spec returns exactly the brute-force non-dominated set.
#[test]
fn full_budget_pareto_on_64_cells_equals_brute_force_front() {
    let spec = grid64();
    let objectives = multi();
    let exhaustive = run_campaign_with(&spec, &config(0), None).expect("exhaustive sweep");
    let reference: Vec<usize> = objectives
        .front(&exhaustive.result.results)
        .iter()
        .map(|r| r.scenario.index)
        .collect();
    assert!(!reference.is_empty());

    let pareto = ParetoSpec::new(objectives.clone(), spec.scenario_count());
    let outcome = pareto_campaign(&spec, &pareto, &config(0), None).expect("pareto search");
    assert_eq!(outcome.report.evaluated, spec.scenario_count());
    let front: Vec<usize> = outcome.report.front.iter().map(|p| p.index).collect();
    assert_eq!(front, reference, "front must equal the brute-force set");
    // the front's metric vectors match the exhaustive cells bit for bit
    for point in &outcome.report.front {
        let cell = &exhaustive.result.results[point.index];
        let score = objectives.score(cell).expect("front cells scored");
        assert_eq!(point.values, score.values);
        assert_eq!(point.metrics, *cell.metrics.as_ref().unwrap());
    }
}

/// A *budgeted* Pareto search reports a front that is internally
/// non-dominated and a subset of the evaluated cells' true front.
#[test]
fn budgeted_pareto_front_is_mutually_non_dominated() {
    let spec = grid64();
    let objectives = multi();
    let pareto = ParetoSpec::new(objectives.clone(), 24);
    let outcome = pareto_campaign(&spec, &pareto, &config(0), None).expect("pareto search");
    assert!(outcome.report.evaluated <= 24);
    let scores: Vec<_> = outcome
        .report
        .front
        .iter()
        .map(|p| dpm_campaign::MultiScore {
            values: p.values.clone(),
            feasible: p.feasible,
        })
        .collect();
    for (i, a) in scores.iter().enumerate() {
        for (j, b) in scores.iter().enumerate() {
            assert!(
                i == j || !objectives.dominates(a, b),
                "front cell #{} dominates front cell #{}",
                outcome.report.front[i].index,
                outcome.report.front[j].index,
            );
        }
    }
}

#[test]
fn full_budget_anneal_on_64_cells_equals_exhaustive_argmax() {
    let spec = grid64();
    let objective = Objective::for_metric(Metric::EnergySavingPct);
    let exhaustive = run_campaign_with(&spec, &config(0), None).expect("exhaustive sweep");
    let reference = objective
        .argbest(&exhaustive.result.results)
        .expect("grid has successful cells");

    let outcome = search_campaign(
        &spec,
        &anneal_spec(objective, spec.scenario_count()),
        &config(0),
        None,
    )
    .expect("anneal search");
    assert_eq!(outcome.report.evaluated, spec.scenario_count());
    let best = outcome.report.best.as_ref().expect("anneal found a best");
    assert_eq!(best.index, reference.scenario.index);
    assert_eq!(&best.metrics, reference.metrics.as_ref().unwrap());
}

/// Re-searching a populated directory performs zero fresh simulations
/// for the new strategies too (the archive is a full result cache).
#[test]
fn archived_anneal_and_pareto_simulate_nothing_on_resume() {
    let spec = grid64();
    let dir = scratch_dir();

    let anneal = anneal_spec(Objective::for_metric(Metric::EnergySavingPct), 12);
    let archive = CampaignArchive::open(&dir, &spec).unwrap();
    let first = search_campaign(&spec, &anneal, &config(2), Some(&archive)).unwrap();
    assert!(first.stats.simulations > 0);
    let second = search_campaign(&spec, &anneal, &config(1), Some(&archive)).unwrap();
    assert_eq!(second.stats.simulations, 0, "anneal resume must be free");
    assert_eq!(
        search_json(&second.report).unwrap(),
        search_json(&first.report).unwrap(),
    );

    let pareto = ParetoSpec::new(multi(), 12);
    let first = pareto_campaign(&spec, &pareto, &config(2), Some(&archive)).unwrap();
    let second = pareto_campaign(&spec, &pareto, &config(1), Some(&archive)).unwrap();
    assert_eq!(second.stats.simulations, 0, "pareto resume must be free");
    assert_eq!(
        pareto_json(&second.report).unwrap(),
        pareto_json(&first.report).unwrap(),
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- speculative prefetch -------------------------------------------

/// ISSUE 10 acceptance: with prefetch on, every strategy's report is
/// byte-identical to the prefetch-free run, speculative work lands in
/// the `speculative_*` stats (never in `executed_cells`, never against
/// the budget), and the accounting identity `archived + executed ==
/// evaluated` holds for the strategy's own cells.
#[test]
fn prefetch_is_byte_identical_and_never_charged_to_the_budget() {
    let spec = grid64();
    let budget = 16;
    let mut total_speculative = 0;

    for kind in [StrategyKind::Climb, StrategyKind::Anneal] {
        let plain = SearchSpec::new(Objective::for_metric(Metric::EnergySavingPct), budget)
            .with_strategy(kind);
        let reference = search_campaign(&spec, &plain, &config(8), None).expect("reference");
        let reference_bytes = search_json(&reference.report).expect("render");

        let dir = scratch_dir();
        let archive = CampaignArchive::open(&dir, &spec).unwrap();
        let speculative = plain.clone().with_prefetch(true);
        let outcome =
            search_campaign(&spec, &speculative, &config(8), Some(&archive)).expect("prefetch");
        assert_eq!(
            search_json(&outcome.report).unwrap(),
            reference_bytes,
            "{kind:?}: prefetch changed the report bytes"
        );
        assert_eq!(outcome.report.evaluated, budget, "{kind:?}");
        assert_eq!(
            outcome.stats.archived_cells + outcome.stats.executed_cells,
            budget,
            "{kind:?}: speculative cells leaked into the strategy accounting"
        );
        total_speculative += outcome.stats.speculative_cells;
        if outcome.stats.speculative_cells > 0 {
            assert!(
                outcome.stats.speculative_simulations + outcome.stats.speculative_coarse > 0,
                "{kind:?}: speculative cells executed without speculative evals"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    // pareto prefetches through its own spec knob
    let plain = ParetoSpec::new(multi(), budget);
    let reference = pareto_campaign(&spec, &plain, &config(8), None).expect("reference");
    let reference_bytes = pareto_json(&reference.report).expect("render");
    let dir = scratch_dir();
    let archive = CampaignArchive::open(&dir, &spec).unwrap();
    let speculative = ParetoSpec::new(multi(), budget).with_prefetch(true);
    let outcome =
        pareto_campaign(&spec, &speculative, &config(8), Some(&archive)).expect("prefetch");
    assert_eq!(
        pareto_json(&outcome.report).unwrap(),
        reference_bytes,
        "pareto: prefetch changed the report bytes"
    );
    assert_eq!(
        outcome.stats.archived_cells + outcome.stats.executed_cells,
        outcome.report.evaluated,
        "pareto: speculative cells leaked into the strategy accounting"
    );
    total_speculative += outcome.stats.speculative_cells;
    let _ = std::fs::remove_dir_all(&dir);

    // the knob must actually engage somewhere on this grid — a prefetch
    // that never speculates would pass every assertion above vacuously
    assert!(
        total_speculative > 0,
        "no strategy speculated on the 64-cell grid at 8 threads"
    );
}

/// Prefetch composes with multi-fidelity: the coarse screen speculates
/// into the coarse store, the report stays byte-identical, and coarse
/// speculation is accounted in `speculative_coarse`.
#[test]
fn prefetch_is_byte_identical_at_multi_fidelity() {
    let spec = grid64();
    let plain = SearchSpec::new(Objective::for_metric(Metric::EnergySavingPct), 16)
        .with_fidelity(SearchFidelity::Multi);
    let reference = search_campaign(&spec, &plain, &config(8), None).expect("reference");
    let reference_bytes = search_json(&reference.report).expect("render");

    let dir = scratch_dir();
    let archive = CampaignArchive::open(&dir, &spec).unwrap();
    let speculative = plain.clone().with_prefetch(true);
    let outcome =
        search_campaign(&spec, &speculative, &config(8), Some(&archive)).expect("prefetch");
    assert_eq!(
        search_json(&outcome.report).unwrap(),
        reference_bytes,
        "multi-fidelity prefetch changed the report bytes"
    );
    assert_eq!(
        outcome.stats.speculative_simulations, 0,
        "the multi-fidelity screen speculates at coarse fidelity only"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- multi-fidelity -------------------------------------------------

/// ISSUE 9 acceptance: on the 64-cell grid, a full-budget
/// multi-fidelity search reaches the same winner as the fine-only
/// search while spending **strictly fewer** fine simulations
/// (`RunStats.simulations`), and its report is byte-identical across
/// 1/2/8 threads.
#[test]
fn multi_fidelity_reaches_fine_winner_with_fewer_fine_simulations() {
    let spec = grid64();
    let budget = spec.scenario_count();
    let obj = || Objective::for_metric(Metric::EnergySavingPct);

    let fine = search_campaign(&spec, &SearchSpec::new(obj(), budget), &config(1), None)
        .expect("fine search");
    let multi_spec = SearchSpec::new(obj(), budget).with_fidelity(SearchFidelity::Multi);
    let multi = search_campaign(&spec, &multi_spec, &config(1), None).expect("multi search");

    let fine_best = fine.report.best.as_ref().expect("fine winner");
    let multi_best = multi.report.best.as_ref().expect("multi winner");
    assert_eq!(multi_best.index, fine_best.index, "winners must agree");
    assert_eq!(multi_best.metrics, fine_best.metrics, "fine numbers only");
    assert!(
        multi.stats.simulations < fine.stats.simulations,
        "multi must spend strictly fewer fine simulations ({} vs {})",
        multi.stats.simulations,
        fine.stats.simulations,
    );
    assert!(multi.stats.coarse_simulations > 0, "the screen ran coarse");
    assert_eq!(multi.report.fidelity, "multi");
    assert_eq!(multi.report.screened, spec.scenario_count());

    let reference = search_json(&multi.report).expect("render");
    for threads in [2, 8] {
        let again =
            search_campaign(&spec, &multi_spec, &config(threads), None).expect("multi search");
        assert_eq!(
            search_json(&again.report).unwrap(),
            reference,
            "threads={threads} diverged",
        );
    }
}

/// A resumed multi-fidelity search is entirely archive-served: zero
/// fine simulations, zero coarse evaluations, byte-identical report —
/// the coarse screen and the fine promotions each hit their own store.
#[test]
fn multi_fidelity_resume_simulates_nothing() {
    let spec = grid64();
    let dir = scratch_dir();
    let search = SearchSpec::new(Objective::for_metric(Metric::EnergySavingPct), 16)
        .with_fidelity(SearchFidelity::Multi);

    let archive = CampaignArchive::open(&dir, &spec).unwrap();
    let first = search_campaign(&spec, &search, &config(2), Some(&archive)).unwrap();
    assert!(first.stats.simulations > 0);
    assert!(first.stats.coarse_simulations > 0);

    let second = search_campaign(&spec, &search, &config(1), Some(&archive)).unwrap();
    assert_eq!(second.stats.simulations, 0, "fine resume must be free");
    assert_eq!(
        second.stats.coarse_simulations, 0,
        "the coarse screen resumes from its own store"
    );
    assert_eq!(
        search_json(&second.report).unwrap(),
        search_json(&first.report).unwrap(),
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- the differential proptests -------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    // Full-budget Pareto search == the brute-force non-dominated set,
    // for random grids, objective pairs and budget surpluses.
    #[test]
    fn full_budget_pareto_equals_brute_force_front(
        master in 0u64..u64::MAX / 2,
        seeds in prop::collection::vec(0u64..1000, 1..4),
        two_controllers in prop::sample::select(vec![false, true]),
        pair in prop::sample::select(vec![
            "energy_saving,min:delay",
            "min:energy_j,latency",
            "energy_saving,min:delay,max:low_power",
        ]),
        extra_budget in 0usize..3,
    ) {
        let spec = small_spec(master, seeds, two_controllers);
        let objectives = MultiObjective::parse(pair).unwrap();
        let exhaustive = run_campaign_with(&spec, &config(1), None).unwrap();
        let reference: Vec<usize> = objectives
            .front(&exhaustive.result.results)
            .iter()
            .map(|r| r.scenario.index)
            .collect();

        let pareto = ParetoSpec::new(objectives, spec.scenario_count() + extra_budget);
        let outcome = pareto_campaign(&spec, &pareto, &config(1), None).unwrap();
        prop_assert_eq!(outcome.report.evaluated, spec.scenario_count());
        let front: Vec<usize> = outcome.report.front.iter().map(|p| p.index).collect();
        prop_assert_eq!(front, reference);
    }

    // Full-budget anneal == the exhaustive argmax, for random grids,
    // metrics and schedules (any seed, any temperature, any cooling).
    #[test]
    fn full_budget_anneal_equals_exhaustive_argmax(
        master in 0u64..u64::MAX / 2,
        seeds in prop::collection::vec(0u64..1000, 1..4),
        two_controllers in prop::sample::select(vec![false, true]),
        metric in prop::sample::select(vec![
            Metric::EnergySavingPct,
            Metric::EnergyJ,
            Metric::MeanLatencyUs,
            Metric::LowPowerFrac,
        ]),
        anneal_seed in 0u64..u64::MAX / 2,
        initial_temp in prop::sample::select(vec![0.1, 1.0, 10.0]),
        cooling in prop::sample::select(vec![0.5, 0.9, 0.99]),
    ) {
        let spec = small_spec(master, seeds, two_controllers);
        let objective = Objective::for_metric(metric);
        let exhaustive = run_campaign_with(&spec, &config(1), None).unwrap();
        let reference = objective.argbest(&exhaustive.result.results).unwrap();

        let mut search = anneal_spec(objective, spec.scenario_count());
        search.anneal.seed = anneal_seed;
        search.anneal.initial_temp = initial_temp;
        search.anneal.cooling = cooling;
        let outcome = search_campaign(&spec, &search, &config(1), None).unwrap();
        prop_assert_eq!(outcome.report.evaluated, spec.scenario_count());
        let best = outcome.report.best.as_ref().unwrap();
        prop_assert_eq!(best.index, reference.scenario.index);
        prop_assert_eq!(&best.metrics, reference.metrics.as_ref().unwrap());
    }

    // Full-budget multi-fidelity search == the fine-only winner, for
    // random grids and energy objectives (the screen ranks with the
    // coarse evaluator, whose energy ordering tracks the kernel's).
    #[test]
    fn full_budget_multi_fidelity_equals_fine_winner(
        master in 0u64..u64::MAX / 2,
        seeds in prop::collection::vec(0u64..1000, 1..4),
        two_controllers in prop::sample::select(vec![false, true]),
        metric in prop::sample::select(vec![
            Metric::EnergySavingPct,
            Metric::EnergyJ,
        ]),
    ) {
        let spec = small_spec(master, seeds, two_controllers);
        let budget = spec.scenario_count();
        let fine = search_campaign(
            &spec,
            &SearchSpec::new(Objective::for_metric(metric), budget),
            &config(1),
            None,
        )
        .unwrap();
        let multi = search_campaign(
            &spec,
            &SearchSpec::new(Objective::for_metric(metric), budget)
                .with_fidelity(SearchFidelity::Multi),
            &config(1),
            None,
        )
        .unwrap();
        let fine_best = fine.report.best.as_ref().unwrap();
        let multi_best = multi.report.best.as_ref().unwrap();
        prop_assert_eq!(multi_best.index, fine_best.index);
        prop_assert_eq!(&multi_best.metrics, &fine_best.metrics);
        prop_assert!(multi.stats.simulations <= fine.stats.simulations);
    }

    // Every strategy's report is byte-identical across 1/2/8 threads
    // and for any archived/fresh mix of cells.
    #[test]
    fn every_strategy_is_byte_deterministic_across_threads_and_archives(
        master in 0u64..u64::MAX / 2,
        seeds in prop::collection::vec(0u64..1000, 2..4),
        budget in 1usize..9,
        keep_mask in prop::bits::u8::masked(0b1111_1111),
        strategy in prop::sample::select(vec![
            StrategyKind::Climb,
            StrategyKind::Anneal,
            StrategyKind::Pareto,
        ]),
    ) {
        let spec = small_spec(master, seeds, true);
        // one closure per strategy kind: render the report bytes under
        // a given config/archive
        let render = |config: &RunnerConfig, archive: Option<&CampaignArchive>| match strategy {
            StrategyKind::Pareto => {
                let pareto = ParetoSpec::new(multi(), budget);
                pareto_json(&pareto_campaign(&spec, &pareto, config, archive).unwrap().report)
                    .unwrap()
            }
            kind => {
                let search = SearchSpec::new(
                    Objective::for_metric(Metric::EnergySavingPct),
                    budget,
                )
                .with_strategy(kind);
                search_json(&search_campaign(&spec, &search, config, archive).unwrap().report)
                    .unwrap()
            }
        };

        let reference = render(&config(1), None);
        for threads in [2, 8] {
            prop_assert_eq!(
                &render(&config(threads), None),
                &reference,
                "threads={} diverged for {:?}", threads, strategy
            );
        }

        // pre-archive an arbitrary subset of the exhaustive results and
        // re-search: identical bytes again
        let exhaustive = run_campaign_with(&spec, &config(1), None).unwrap();
        let dir = scratch_dir();
        let archive = CampaignArchive::open(&dir, &spec).unwrap();
        for (i, r) in exhaustive.result.results.iter().enumerate() {
            if keep_mask & (1 << (i % 8)) != 0 {
                archive.store(&spec, r).unwrap();
            }
        }
        prop_assert_eq!(
            &render(&config(2), Some(&archive)),
            &reference,
            "archived/fresh mix diverged for {:?}", strategy
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
