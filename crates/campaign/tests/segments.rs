//! Segment-store contract: records round-trip bit-identically through
//! the append-only segment files, torn tails re-run exactly the cell
//! they hid, a damaged segment never panics and never loads a wrong
//! record, and a handle sees the records on disk when it opened plus
//! its own appends, until its own compaction rescans the directory.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use dpm_campaign::{
    campaign_json, run_campaign_with, summarize, BatteryAxis, CampaignArchive, CampaignResult,
    CampaignSpec, CellState, ControllerAxis, RunnerConfig, ScenarioMetrics, ScenarioResult,
    ThermalAxis, TuningAxis, WorkloadAxis,
};
use proptest::prelude::*;

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn scratch_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "segments-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spec_with(seeds: Vec<u64>) -> CampaignSpec {
    CampaignSpec {
        name: "segments".into(),
        horizon_ms: 6,
        master_seed: 0x5E6_2005,
        initial_soc: 0.9,
        controllers: vec![ControllerAxis::Dpm],
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

/// A synthetic result for one grid cell, its metrics derived from an
/// arbitrary bag of floats — the payloads never see a simulator, so the
/// round-trip is tested on arbitrary bit patterns, not just the ones
/// the kernel happens to produce.
fn synthetic_result(
    spec: &CampaignSpec,
    index: usize,
    floats: &[f64],
    ints: &[usize],
) -> ScenarioResult {
    let f = |i: usize| floats[i % floats.len()];
    let n = |i: usize| ints[i % ints.len()];
    ScenarioResult {
        scenario: spec.cell_at(index),
        metrics: Some(ScenarioMetrics {
            completed: n(0),
            total_tasks: n(1),
            deferred: n(2),
            energy_j: f(0),
            baseline_energy_j: f(1),
            energy_saving_pct: f(2),
            temp_reduction_pct: f(3),
            delay_overhead_pct: f(4),
            mean_latency_us: f(5),
            max_temp_c: f(6),
            final_soc: f(7),
            low_power_frac: f(8),
        }),
        error: None,
    }
}

/// The single segment file of an archive that had exactly one writer.
fn only_segment(dir: &std::path::Path) -> PathBuf {
    let mut segments: Vec<PathBuf> = std::fs::read_dir(dir.join("segments"))
        .expect("segments dir exists")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.to_string_lossy().ends_with(".log"))
        .collect();
    assert_eq!(segments.len(), 1, "one writer allocates one segment");
    segments.pop().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // Arbitrary cell payloads -> append -> reopen: the rebuilt index
    // serves every record, and the loaded results (and their rendered
    // bytes) are identical to what was stored — before and after
    // compaction.
    #[test]
    fn segment_records_round_trip(
        cell_count in 1usize..10,
        floats in prop::collection::vec(
            // spread draws across wildly different magnitudes — including
            // subnormals — so the round-trip is exercised on bit patterns
            // the simulator itself would never produce
            (0u8..4, -1.0f64..1.0).prop_map(|(scale, v)| match scale {
                0 => v,
                1 => v * 1.0e18,
                2 => v * 1.0e-300,
                _ => v * f64::MIN_POSITIVE,
            }),
            1..12,
        ),
        ints in prop::collection::vec(0usize..1_000_000, 1..4),
    ) {
        let spec = spec_with((1..=cell_count as u64).collect());
        let dir = scratch_dir();
        let stored: Vec<ScenarioResult> = (0..spec.scenario_count())
            .map(|i| synthetic_result(&spec, i, &floats, &ints))
            .collect();
        {
            let archive = CampaignArchive::open(&dir, &spec).expect("open");
            for r in &stored {
                archive.store(&spec, r).expect("store");
            }
        }
        // reopen: the index is rebuilt from the segment scan alone
        let reopened = CampaignArchive::open(&dir, &spec).expect("reopen");
        let load = reopened.load(&spec, &spec.expand());
        prop_assert_eq!(load.loaded, stored.len());
        prop_assert_eq!(load.skipped, 0);
        let loaded: Vec<ScenarioResult> =
            load.slots.into_iter().map(Option::unwrap).collect();
        prop_assert_eq!(&loaded, &stored);
        let result = |results: Vec<ScenarioResult>| CampaignResult {
            name: spec.name.clone(),
            horizon_ms: spec.horizon_ms,
            master_seed: spec.master_seed,
            results,
        };
        let reference = archive_bytes(&result(stored.clone()));
        prop_assert_eq!(&archive_bytes(&result(loaded)), &reference);
        // compaction preserves every byte of the rendered aggregate
        let report = reopened.compact(&spec).expect("compact");
        prop_assert_eq!(report.records, stored.len());
        let recompacted = CampaignArchive::open(&dir, &spec).expect("reopen after compact");
        let load = recompacted.load(&spec, &spec.expand());
        prop_assert_eq!(load.loaded, stored.len());
        let loaded: Vec<ScenarioResult> =
            load.slots.into_iter().map(Option::unwrap).collect();
        prop_assert_eq!(&archive_bytes(&result(loaded)), &reference);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn torn_final_record_reruns_exactly_that_cell() {
    // a writer killed mid-append leaves a truncated final frame: the
    // reopened archive must skip it — and only it — and a resume must
    // re-run exactly that cell, byte-identically
    let spec = spec_with(vec![1, 2, 3]);
    let cold = run_campaign_with(&spec, &config(1), None).expect("cold run");
    let dir = scratch_dir();
    {
        let archive = CampaignArchive::open(&dir, &spec).expect("open");
        for r in &cold.result.results {
            archive.store(&spec, r).expect("store");
        }
    }
    let segment = only_segment(&dir);
    let full = std::fs::metadata(&segment).expect("segment stat").len();
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&segment)
        .expect("open segment");
    file.set_len(full - 3).expect("tear the final record");
    drop(file);

    let archive = CampaignArchive::open(&dir, &spec).expect("reopen torn");
    let load = archive.load(&spec, &spec.expand());
    assert_eq!(
        load.loaded,
        spec.scenario_count() - 1,
        "torn cell is missing"
    );
    assert_eq!(load.skipped, 0, "a torn tail is not a corrupt record");

    let resumed = run_campaign_with(&spec, &config(2), Some(&archive)).expect("resume");
    assert_eq!(
        resumed.stats.executed_cells, 1,
        "exactly the torn cell re-runs"
    );
    assert_eq!(
        archive_bytes(&resumed.result),
        archive_bytes(&cold.result),
        "the healed campaign is byte-identical"
    );
    // the re-run stored the cell again: a second resume is all-archive
    let again = run_campaign_with(&spec, &config(1), Some(&archive)).expect("second resume");
    assert_eq!(again.stats.simulations, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every fine record a fresh handle on `dir` loads, one slot per cell.
fn loaded_slots(dir: &std::path::Path, spec: &CampaignSpec) -> Vec<Option<ScenarioResult>> {
    let archive = CampaignArchive::open(dir, spec).expect("open");
    archive.load(spec, &spec.expand()).slots
}

#[test]
fn a_damaged_segment_never_panics_and_never_loads_a_wrong_record() {
    // every truncation and every single-byte flip of a small archive's
    // one segment. The frame checksum covers the payload only, so a
    // flipped index bit can point an intact frame at another cell: only
    // record validation stands between that frame and a wrong load
    let spec = spec_with(vec![1, 2]);
    let stored: Vec<ScenarioResult> = (0..spec.scenario_count())
        .map(|i| synthetic_result(&spec, i, &[0.5, -2.0e-9, 7.25e11], &[i, 3]))
        .collect();
    let source = scratch_dir();
    {
        let archive = CampaignArchive::open(&source, &spec).expect("open");
        for r in &stored {
            archive.store(&spec, r).expect("store");
        }
    }
    let segment = only_segment(&source);
    let name = segment.file_name().expect("segment name");
    let pristine = std::fs::read(&segment).expect("read segment");
    let truncations = (0..pristine.len()).map(|len| pristine[..len].to_vec());
    let flips = (0..pristine.len()).map(|at| {
        let mut bytes = pristine.clone();
        bytes[at] ^= 0x01;
        bytes
    });
    let dir = scratch_dir();
    for damaged in truncations.chain(flips) {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("segments")).expect("create segments dir");
        std::fs::copy(source.join("campaign.toml"), dir.join("campaign.toml")).expect("copy spec");
        std::fs::write(dir.join("segments").join(name), &damaged).expect("write damaged segment");

        let archive = CampaignArchive::open(&dir, &spec).expect("open damaged");
        let loaded = archive.load(&spec, &spec.expand()).slots;
        for (slot, original) in loaded.iter().zip(&stored) {
            if let Some(result) = slot {
                assert_eq!(result, original, "a damaged segment loaded a wrong record");
            }
        }
        assert_eq!(archive.cell_states(&spec).len(), stored.len());
        archive.gc(&spec).expect("gc");
        assert_eq!(loaded_slots(&dir, &spec), loaded, "gc changed what loads");
        archive.compact(&spec).expect("compact");
        assert_eq!(
            loaded_slots(&dir, &spec),
            loaded,
            "compact changed what loads"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&source);
}

#[test]
fn a_handle_sees_its_open_time_scan_and_its_own_appends() {
    // handle A indexes the directory once, when it opens: a record that
    // handle B stores later is a miss for A, while A's own append reads
    // back; a handle opened afterwards sees both, and so does A once its
    // own compaction has rescanned the directory
    let spec = spec_with(vec![1, 2]);
    let dir = scratch_dir();
    let stored: Vec<ScenarioResult> = (0..spec.scenario_count())
        .map(|i| synthetic_result(&spec, i, &[1.5, -3.0e-4, 6.0e9], &[i, 5]))
        .collect();
    let cells = spec.expand();
    let a = CampaignArchive::open(&dir, &spec).expect("open A");
    let b = CampaignArchive::open(&dir, &spec).expect("open B");
    b.store(&spec, &stored[0]).expect("store in B");
    a.store(&spec, &stored[1]).expect("store in A");
    let slots = |archive: &CampaignArchive| archive.load(&spec, &cells).slots;
    assert_eq!(
        slots(&a),
        [None, Some(stored[1].clone())],
        "A misses B's record"
    );
    assert_eq!(
        a.cell_states(&spec),
        [CellState::Pending, CellState::Archived]
    );
    let both: Vec<Option<ScenarioResult>> = stored.into_iter().map(Some).collect();
    let later = CampaignArchive::open(&dir, &spec).expect("open after both stores");
    assert_eq!(slots(&later), both);
    a.compact(&spec).expect("compact");
    assert_eq!(slots(&a), both, "A's compaction rescans the directory");
    let _ = std::fs::remove_dir_all(&dir);
}
