//! Campaign engine throughput: scenarios/second, parallel vs serial,
//! and shared runs vs every cell running itself and its baseline.
//!
//! Prints a startup summary measuring the full sweep serially and on all
//! available cores, including the speedup and a determinism check
//! (byte-identical aggregate JSON). On hosts with ≥ 4 cores the parallel
//! sweep must beat serial by > 1.5×; on smaller hosts the ratio is
//! reported but not enforced (a 1-core container cannot exhibit
//! parallel speedup).
//!
//! Run sharing is different: it removes *work* (the runner runs each
//! distinct configuration once, so a group shares one always-ON1
//! baseline and tuning siblings of a timeout or oracle cell share one
//! run), so its ≥ 1.5× throughput gain over per-cell runs on a
//! policy-heavy grid is enforced on any host, single-core included.
//!
//! A third summary drives the segment archive at 10^5 synthetic cells:
//! append throughput, the enforced < 1 s bound on a cold open plus a
//! full `cell_states` scan, and byte-equivalence of an archive's
//! aggregate before and after compacting its two segments into one.
//!
//! ```sh
//! cargo bench -p dpm-bench campaign_throughput
//! ```

use std::path::PathBuf;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dpm_campaign::{
    campaign_json, run_campaign, run_campaign_with, run_scenario_cell, summarize, CampaignArchive,
    CampaignResult, CampaignSpec, CellState, ControllerAxis, RunnerConfig, ScenarioMetrics,
    ScenarioResult, TuningAxis, WorkloadAxis,
};

/// A meaty enough grid that thread-pool overhead is amortized:
/// 2 controllers × 2 workloads × 2 seeds × 2 thermals × 3 IP counts
/// = 48 scenarios, each a DPM + baseline double run.
fn bench_spec() -> CampaignSpec {
    let mut spec = CampaignSpec::default_sweep();
    spec.name = "campaign_throughput".into();
    spec.horizon_ms = 30;
    spec.controllers = vec![ControllerAxis::Dpm, ControllerAxis::Oracle];
    spec.tunings = vec![TuningAxis::Paper];
    spec.workloads = vec![WorkloadAxis::Low, WorkloadAxis::High];
    spec.seeds = vec![1, 2];
    spec.ip_counts = vec![1, 2, 4];
    spec
}

/// A controller×tuning-heavy grid: 5 controllers × 3 tunings × 2 seeds
/// = 30 cells in 2 baseline groups of 15. Running every cell and its
/// baseline by itself is 60 simulations; sharing runs each group's
/// baseline (which its 3 always-ON1 cells reuse), its 3 DPM tunings and
/// one run per timeout or oracle controller — 14 total, a 4.3× work
/// reduction.
fn policy_heavy_spec() -> CampaignSpec {
    let mut spec = CampaignSpec::default_sweep();
    spec.name = "policy_heavy".into();
    spec.horizon_ms = 30;
    spec.controllers = ControllerAxis::ALL.to_vec();
    spec.tunings = vec![
        TuningAxis::Paper,
        TuningAxis::Eager,
        TuningAxis::EnergyOptimal,
    ];
    spec.workloads = vec![WorkloadAxis::Low];
    spec.seeds = vec![1, 2];
    spec.thermals.truncate(1);
    spec.ip_counts = vec![1];
    spec
}

fn config(threads: usize) -> RunnerConfig {
    RunnerConfig {
        threads,
        progress: false,
        ..RunnerConfig::default()
    }
}

fn archive(spec: &CampaignSpec, threads: usize) -> String {
    let result = run_campaign(spec, &config(threads));
    let summary = summarize(&result);
    campaign_json(&summary, Some(&result)).expect("render json")
}

fn timed_sweep(spec: &CampaignSpec, threads: usize) -> f64 {
    let start = Instant::now();
    let result = run_campaign(spec, &config(threads));
    let wall = start.elapsed().as_secs_f64();
    assert_eq!(result.results.len(), spec.scenario_count());
    result.results.len() as f64 / wall
}

/// Every cell of `spec` built from scratch and run with its own
/// baseline, two simulations per cell: the redundant reference.
fn per_cell(spec: &CampaignSpec) -> Vec<ScenarioResult> {
    spec.expand()
        .into_iter()
        .map(|cell| ScenarioResult {
            scenario: cell,
            metrics: Some(run_scenario_cell(spec, &cell)),
            error: None,
        })
        .collect()
}

/// Scenarios/s of the shared runner, or of the per-cell reference.
/// Serial on purpose: a parallel measurement would mix the work
/// reduction with thread-packing effects (phase A is a barrier), letting
/// high-core hosts compress the observed gain below the enforced bound
/// even though the removed work is host-independent.
fn timed_sharing(spec: &CampaignSpec, shared: bool) -> f64 {
    let start = Instant::now();
    let cells = if shared {
        run_campaign_with(spec, &config(1), None)
            .expect("valid spec")
            .result
            .results
            .len()
    } else {
        per_cell(spec).len()
    };
    let wall = start.elapsed().as_secs_f64();
    assert_eq!(cells, spec.scenario_count());
    cells as f64 / wall
}

fn print_summary() {
    let spec = bench_spec();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "\n== campaign throughput: {} scenarios, horizon {} ms, {cores} core(s) ==",
        spec.scenario_count(),
        spec.horizon_ms
    );

    // warm-up (page in, warm branch predictors and allocator)
    let _ = timed_sweep(&spec, 1);

    let serial: f64 = (0..3).map(|_| timed_sweep(&spec, 1)).fold(0.0, f64::max);
    let parallel: f64 = (0..3).map(|_| timed_sweep(&spec, 0)).fold(0.0, f64::max);
    let speedup = parallel / serial;
    println!("  serial   : {serial:>8.1} scenarios/s");
    println!("  parallel : {parallel:>8.1} scenarios/s ({cores} threads)");
    println!("  speedup  : {speedup:>8.2}x");

    // determinism: the aggregate archive must be byte-identical
    let a = archive(&spec, 1);
    let b = archive(&spec, cores.max(4));
    assert_eq!(a, b, "thread count changed the aggregated output");
    println!("  determinism: serial and parallel archives are byte-identical");

    if cores >= 4 {
        assert!(
            speedup > 1.5,
            "parallel sweep must beat serial by >1.5x on {cores} cores, got {speedup:.2}x"
        );
    } else {
        println!("  (speedup not enforced on {cores} core(s); needs >= 4)");
    }

    print_sharing_summary();
}

/// Run sharing on a controller×tuning-heavy grid: less work, same
/// bytes. Measured serially and enforced on any host, since the gain is
/// work removal rather than parallelism.
fn print_sharing_summary() {
    let spec = policy_heavy_spec();
    println!(
        "\n== run sharing: {} cells (controller x tuning heavy) ==",
        spec.scenario_count()
    );

    let shared = run_campaign_with(&spec, &config(0), None).expect("valid spec");
    assert_eq!(
        shared.result.results,
        per_cell(&spec),
        "sharing runs must not change results"
    );
    let redundant = 2 * spec.scenario_count();
    println!(
        "  simulations: {} shared vs {redundant} redundant ({} shared baselines, {} reused runs)",
        shared.stats.simulations, shared.stats.baseline_groups, shared.stats.reused_runs,
    );

    // the noise-free guarantee: sharing must remove >= 1.5x of the work
    // (simulation counts are deterministic, unlike wall-clock)
    let sim_ratio = redundant as f64 / shared.stats.simulations as f64;
    assert!(
        sim_ratio >= 1.5,
        "run sharing must remove >=1.5x of the simulations, got {sim_ratio:.2}x"
    );

    let _ = timed_sharing(&spec, false); // warm-up
    let shared_rate: f64 = (0..5)
        .map(|_| timed_sharing(&spec, true))
        .fold(0.0, f64::max);
    let redundant_rate: f64 = (0..5)
        .map(|_| timed_sharing(&spec, false))
        .fold(0.0, f64::max);
    let gain = shared_rate / redundant_rate;
    println!("  redundant : {redundant_rate:>8.1} scenarios/s");
    println!("  shared    : {shared_rate:>8.1} scenarios/s");
    println!("  gain      : {gain:>8.2}x ({sim_ratio:.2}x fewer simulations)");
    assert!(
        gain > 1.5,
        "run sharing must deliver >1.5x throughput on a policy-heavy grid, got {gain:.2}x \
         ({} vs {redundant} simulations)",
        shared.stats.simulations,
    );
}

/// A seeds-only grid of `cells` cells: the archive layer is exercised at
/// scale without paying for `cells` simulations.
fn wide_spec(name: &str, cells: usize) -> CampaignSpec {
    let mut spec = CampaignSpec::default_sweep();
    spec.name = name.into();
    spec.horizon_ms = 5;
    spec.controllers = vec![ControllerAxis::Dpm];
    spec.tunings = vec![TuningAxis::Paper];
    spec.workloads = vec![WorkloadAxis::Low];
    spec.seeds = (1..=cells as u64).collect();
    spec.thermals.truncate(1);
    spec.ip_counts = vec![1];
    spec
}

/// Deterministic synthetic metrics for grid cell `i` — the archive does
/// not care whether a simulator produced them.
fn synthetic_result(spec: &CampaignSpec, i: usize) -> ScenarioResult {
    let f = i as f64;
    ScenarioResult {
        scenario: spec.cell_at(i),
        metrics: Some(ScenarioMetrics {
            completed: i,
            total_tasks: i + 7,
            deferred: i % 3,
            energy_j: f * 0.125,
            baseline_energy_j: f * 0.25,
            energy_saving_pct: 50.0 - (f % 17.0),
            temp_reduction_pct: f % 9.0,
            delay_overhead_pct: f % 5.0,
            mean_latency_us: 100.0 + f,
            max_temp_c: 40.0 + (f % 20.0),
            final_soc: 1.0 / (1.0 + f * 1e-6),
            low_power_frac: (f % 100.0) / 100.0,
        }),
        error: None,
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("archive-scale-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn result_bytes(spec: &CampaignSpec, results: Vec<ScenarioResult>) -> String {
    let result = CampaignResult {
        name: spec.name.clone(),
        horizon_ms: spec.horizon_ms,
        master_seed: spec.master_seed,
        results,
    };
    campaign_json(&summarize(&result), Some(&result)).expect("render json")
}

/// The segment store at 10^5 cells: append throughput, then the bound
/// that motivated it — a cold open plus a full `cell_states` scan of
/// 100 000 records must finish in **under a second** (the per-cell-JSON
/// layout paid ~3 syscalls per cell here and took tens of seconds on
/// cold caches).
fn print_archive_scale_summary() {
    const CELLS: usize = 100_000;
    let spec = wide_spec("archive_scale", CELLS);
    let dir = scratch_dir("wide");
    println!("\n== segment archive at {CELLS} cells ==");

    let start = Instant::now();
    {
        let archive = CampaignArchive::open(&dir, &spec).expect("open archive");
        for i in 0..CELLS {
            archive
                .store(&spec, &synthetic_result(&spec, i))
                .expect("store cell");
        }
    }
    let wall = start.elapsed().as_secs_f64();
    println!(
        "  append  : {:>8.0} records/s ({wall:.2}s total)",
        CELLS as f64 / wall
    );

    let start = Instant::now();
    let archive = CampaignArchive::open(&dir, &spec).expect("reopen archive");
    let states = archive.cell_states(&spec);
    let scan = start.elapsed().as_secs_f64();
    assert_eq!(states.len(), CELLS);
    assert!(
        states.iter().all(|s| matches!(s, CellState::Archived)),
        "every stored cell must scan as archived"
    );
    println!("  open + full cell_states scan: {scan:.3}s");
    assert!(
        scan < 1.0,
        "opening and scanning a {CELLS}-cell archive took {scan:.2}s (bound: 1s)"
    );
    let _ = std::fs::remove_dir_all(&dir);

    // compaction keeps the aggregate bytes: store the cells through two
    // handles (two segments), then compact them into one
    const COMPACT_CELLS: usize = 2_000;
    let spec = wide_spec("archive_compact", COMPACT_CELLS);
    let dir = scratch_dir("compact");
    let handles = [
        CampaignArchive::open(&dir, &spec).expect("open archive"),
        CampaignArchive::open(&dir, &spec).expect("open second handle"),
    ];
    for i in 0..COMPACT_CELLS {
        handles[i % 2]
            .store(&spec, &synthetic_result(&spec, i))
            .expect("store cell");
    }
    let cells = spec.expand();
    // a handle opened after both stored indexes both segments
    let before = CampaignArchive::open(&dir, &spec)
        .expect("reopen archive")
        .load(&spec, &cells);
    assert_eq!(before.loaded, COMPACT_CELLS);
    let reference = result_bytes(&spec, before.slots.into_iter().flatten().collect());
    let report = handles[0].compact(&spec).expect("compact");
    assert_eq!(report.segments_removed, 2);
    let compacted = CampaignArchive::open(&dir, &spec).expect("reopen compacted");
    let load = compacted.load(&spec, &cells);
    assert_eq!(load.loaded, COMPACT_CELLS);
    let bytes = result_bytes(&spec, load.slots.into_iter().flatten().collect());
    assert_eq!(
        bytes, reference,
        "compacting two segments into one changed the aggregate bytes"
    );
    println!("  compaction: {COMPACT_CELLS} cells in 2 segments -> 1, aggregate byte-identical");
    let _ = std::fs::remove_dir_all(&dir);
}

fn bench_campaign(c: &mut Criterion) {
    print_summary();
    print_archive_scale_summary();
    let spec = bench_spec();
    let scenarios = spec.scenario_count() as u64;

    let mut group = c.benchmark_group("campaign_throughput");
    group.sample_size(10);
    group.throughput(Throughput::Elements(scenarios));
    group.bench_function("serial", |b| {
        b.iter(|| std::hint::black_box(timed_sweep(&spec, 1)));
    });
    group.bench_function("parallel", |b| {
        b.iter(|| std::hint::black_box(timed_sweep(&spec, 0)));
    });
    group.finish();
}

criterion_group!(benches, bench_campaign);
criterion_main!(benches);
