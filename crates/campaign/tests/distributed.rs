//! Lease-coordinated runs over one campaign directory — the path every
//! `dpm serve` executor slot takes ([`run_campaign_leased`]): any number
//! of them produce the **byte-identical** report of a plain run, with
//! the **same total work** (no cell and no shared baseline simulated
//! twice), and a holder dying mid-campaign never loses a cell —
//! survivors reclaim its stale lease and complete it.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use dpm_campaign::{
    campaign_json, run_campaign_leased, run_campaign_with, run_cells_with, summarize, BatteryAxis,
    CampaignArchive, CampaignResult, CampaignSpec, ControllerAxis, LeaseConfig, LeaseRecord,
    RunStats, RunnerConfig, ScenarioSpec, ThermalAxis, TuningAxis, WorkloadAxis, LEASE_VERSION,
    RUN_CANCELLED,
};
use proptest::prelude::*;

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

/// A fresh scratch directory under the cargo-managed tmp dir.
fn scratch_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "distributed-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spec_with(seeds: Vec<u64>) -> CampaignSpec {
    CampaignSpec {
        name: "distributed".into(),
        horizon_ms: 5,
        master_seed: 0xD157,
        initial_soc: 0.9,
        controllers: vec![ControllerAxis::Dpm, ControllerAxis::AlwaysOn],
        tunings: vec![TuningAxis::Paper],
        workloads: vec![WorkloadAxis::Low],
        seeds,
        batteries: vec![BatteryAxis::Linear],
        thermals: vec![ThermalAxis::Cool],
        ip_counts: vec![1],
    }
}

fn serial() -> RunnerConfig {
    RunnerConfig {
        threads: 1,
        ..RunnerConfig::default()
    }
}

fn fast_lease() -> LeaseConfig {
    LeaseConfig {
        poll_ms: 1,
        ..LeaseConfig::for_process()
    }
}

fn report_bytes(result: &CampaignResult) -> String {
    campaign_json(&summarize(result), Some(result)).expect("render json")
}

/// Overwrites a group's lease with a heartbeat frozen at the epoch — the
/// on-disk state a killed worker leaves behind (claim, no result).
fn kill_holder(archive: &CampaignArchive, group: usize, holder: &str) {
    let dead = LeaseRecord {
        lease_version: LEASE_VERSION,
        spec_fingerprint: archive.fingerprint(),
        group,
        holder: holder.into(),
        heartbeat_ms: 0,
    };
    std::fs::write(
        archive.lease_path(group),
        serde_json::to_string(&dead).expect("serialize lease"),
    )
    .expect("write stale lease");
}

#[test]
fn two_workers_split_the_grid_and_match_single_process_bytes() {
    let spec = spec_with(vec![1, 2, 3]);
    let cold = run_campaign_with(&spec, &serial(), None).expect("cold run");
    let reference = report_bytes(&cold.result);

    let dir = scratch_dir();
    let _ = CampaignArchive::open(&dir, &spec).expect("create campaign dir");
    let runs: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let (dir, spec) = (&dir, &spec);
                scope.spawn(move || {
                    // each run holds its own handle, so each appends to
                    // its own segment
                    let (archive, _) = CampaignArchive::open_existing(dir).expect("open dir");
                    run_campaign_leased(spec, &serial(), &archive, &fast_lease(), None)
                        .expect("leased run")
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("join"))
            .collect()
    });

    // every run ends holding the complete, byte-identical campaign
    for run in &runs {
        assert_eq!(report_bytes(&run.result), reference);
    }
    // ... and the work sums to exactly the single-process totals: the
    // grid partitioned by baseline group, nothing simulated twice
    let mut sum = RunStats::default();
    for run in &runs {
        sum.absorb(&run.stats);
    }
    assert_eq!(sum.executed_cells, spec.scenario_count());
    assert_eq!(sum.simulations, cold.stats.simulations);
    assert_eq!(sum.baseline_groups, cold.stats.baseline_groups);
    assert_eq!(sum.reused_runs, cold.stats.reused_runs);
    // cross-fed cells arrive via the archive
    assert_eq!(
        sum.archived_cells + sum.executed_cells,
        2 * spec.scenario_count()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_killed_workers_group_is_reclaimed_and_completed() {
    let spec = spec_with(vec![1, 2]);
    let cold = run_campaign_with(&spec, &serial(), None).expect("cold run");
    let reference = report_bytes(&cold.result);

    let dir = scratch_dir();
    let archive = CampaignArchive::open(&dir, &spec).expect("create campaign dir");
    // the doomed worker claims group 0, stores *none* of its cells
    // (killed mid-cell), and its heartbeat freezes in the past
    let doomed = fast_lease();
    let lease = archive
        .try_claim(0, &doomed)
        .expect("claim")
        .expect("group 0 free");
    kill_holder(&archive, lease.group(), &doomed.holder);
    drop(lease); // never released — the process is gone

    // a surviving run must reclaim the stale lease and finish
    let survivor = fast_lease();
    let run = run_campaign_leased(&spec, &serial(), &archive, &survivor, None)
        .expect("survivor drains the grid");
    assert_eq!(report_bytes(&run.result), reference);
    assert_eq!(run.stats.executed_cells, spec.scenario_count());

    // the grid is fully archived and no lease (stale or live) remains
    let load = archive.load(&spec, &spec.expand());
    assert_eq!(load.loaded, spec.scenario_count());
    let gc = archive.gc(&spec, survivor.ttl_ms).expect("gc");
    assert_eq!(gc.leases_active, 0);
    assert_eq!(gc.records_removed, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// ROADMAP "lease heartbeat refresh mid-group": a group whose wall time
/// exceeds the lease TTL must never be reclaimed from its *living*
/// holder — the runner refreshes the heartbeat between cells (via the
/// per-unit hook, throttled to a quarter TTL), not only between chunks.
///
/// Three assertions pin the guarantee: a watcher polling the lease file
/// never observes it stale while the run is in flight; the heartbeat
/// visibly advances mid-group whenever the group outlives the throttle
/// interval; and a second, waiting worker absorbs every cell from the
/// archive instead of stealing the group (summed simulations equal the
/// single-process totals — a reclaim would duplicate them).
#[test]
fn slow_group_under_short_ttl_is_never_reclaimed_from_a_live_worker() {
    // one baseline group (every inner axis single-valued) of 8 cells,
    // with a horizon long enough that the whole group far outlives the
    // TTL on a loaded single-core runner while each individual cell
    // stays well inside it (~140ms/cell debug vs a 900ms TTL — a
    // mid-cell gap can never outlast the TTL short of a 6x stall, and
    // per-cell refreshes land every couple hundred ms)
    let spec = CampaignSpec {
        name: "slow_group".into(),
        horizon_ms: 2500,
        master_seed: 0x51_0C,
        initial_soc: 0.9,
        controllers: vec![
            ControllerAxis::Dpm,
            ControllerAxis::Timeout500us,
            ControllerAxis::Timeout2ms,
            ControllerAxis::Oracle,
        ],
        tunings: vec![TuningAxis::Paper, TuningAxis::Eager],
        workloads: vec![WorkloadAxis::High],
        seeds: vec![1],
        batteries: vec![BatteryAxis::Linear],
        thermals: vec![ThermalAxis::Cool],
        ip_counts: vec![1],
    };
    assert_eq!(spec.group_count(), 1);
    let ttl_ms = 900;
    let cold = run_campaign_with(&spec, &serial(), None).expect("cold run");

    let dir = scratch_dir();
    let archive = CampaignArchive::open(&dir, &spec).expect("create campaign dir");
    let lease_path = archive.lease_path(0);

    let (outcomes, stale_seen, heartbeats) = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let spec = &spec;
                let archive = &archive;
                scope.spawn(move || {
                    let config = RunnerConfig {
                        threads: 2,
                        ..RunnerConfig::default()
                    };
                    let lease = LeaseConfig {
                        ttl_ms,
                        poll_ms: 5,
                        ..LeaseConfig::for_process()
                    };
                    let started = std::time::Instant::now();
                    let run = run_campaign_leased(spec, &config, archive, &lease, None)
                        .expect("leased run");
                    (run, started.elapsed())
                })
            })
            .collect();

        // the watcher: sample the lease until both workers finish
        let mut stale_seen = false;
        let mut heartbeats: Vec<u64> = Vec::new();
        while !workers.iter().all(|w| w.is_finished()) {
            if matches!(
                archive.lease_state(0, ttl_ms),
                dpm_campaign::LeaseState::Stale
            ) {
                stale_seen = true;
            }
            if let Ok(text) = std::fs::read_to_string(&lease_path) {
                if let Ok(rec) = serde_json::from_str::<LeaseRecord>(&text) {
                    heartbeats.push(rec.heartbeat_ms);
                }
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let outcomes: Vec<_> = workers
            .into_iter()
            .map(|w| w.join().expect("join worker"))
            .collect();
        (outcomes, stale_seen, heartbeats)
    });

    assert!(
        !stale_seen,
        "a live worker's lease must never be observed stale"
    );
    // whenever the *simulating* worker outlived half the TTL, some
    // refresh (per-cell hook or chunk boundary) must have fired and the
    // heartbeat must have visibly advanced mid-group
    let holder_wall = outcomes
        .iter()
        .filter(|(run, _)| run.stats.simulations > 0)
        .map(|(_, wall)| *wall)
        .max()
        .expect("one worker simulated the group");
    if holder_wall.as_millis() as u64 >= ttl_ms / 2 {
        let advanced = heartbeats
            .first()
            .is_some_and(|first| heartbeats.iter().any(|h| h > first));
        assert!(
            advanced,
            "heartbeat never advanced over a {}ms group (observed {} samples)",
            holder_wall.as_millis(),
            heartbeats.len(),
        );
    }
    // no reclaim ⇒ no duplicated work: exactly one worker simulated the
    // group, the other absorbed it from the archive
    let mut sum = RunStats::default();
    for (run, _) in &outcomes {
        assert_eq!(run.result, cold.result, "leased results must match cold");
        sum.absorb(&run.stats);
    }
    assert_eq!(sum.simulations, cold.stats.simulations);
    assert_eq!(sum.executed_cells, spec.scenario_count());
    assert_eq!(sum.baseline_groups, cold.stats.baseline_groups);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A raised cancellation flag stops a leased run (the `dpm serve`
/// shutdown path) before it claims a group: the run returns
/// `RUN_CANCELLED` and leaves no lease behind.
#[test]
fn a_cancelled_leased_run_stops_without_holding_a_lease() {
    let spec = spec_with(vec![1, 2]);
    let dir = scratch_dir();
    let archive = CampaignArchive::open(&dir, &spec).expect("create campaign dir");
    let lease = fast_lease();
    let cancel = AtomicBool::new(true);
    let err = run_campaign_leased(&spec, &serial(), &archive, &lease, Some(&cancel))
        .expect_err("a cancelled run must not complete");
    assert_eq!(err, RUN_CANCELLED);
    let gc = archive.gc(&spec, lease.ttl_ms).expect("gc");
    assert_eq!(gc.leases_active, 0);
    assert_eq!(gc.records_kept, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// One simulated worker of the interleaving model: it may hold one
/// lease at a time.
struct ModelWorker {
    lease_cfg: LeaseConfig,
    held: Option<dpm_campaign::WorkLease>,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    // Any interleaving of claim / complete / crash over a small grid
    // never loses a cell and never double-counts one: summed RunStats
    // execute each cell exactly once, and the drained archive aggregates
    // byte-identically to a cold run.
    #[test]
    fn claim_complete_crash_interleavings_never_lose_or_double_count(
        ops in prop::collection::vec((0usize..2, 0usize..3, 0usize..4), 0..10),
    ) {
        let spec = spec_with(vec![1, 2]);
        let cells = spec.expand();
        let cold = run_campaign_with(&spec, &serial(), None).expect("cold run");
        let reference = report_bytes(&cold.result);

        let dir = scratch_dir();
        let archive = CampaignArchive::open(&dir, &spec).expect("create campaign dir");
        let mut workers: Vec<ModelWorker> = (0..2)
            .map(|_| ModelWorker { lease_cfg: fast_lease(), held: None })
            .collect();
        let mut executed_total = 0;

        for (w, action, group) in ops {
            let group = group % spec.group_count();
            match action {
                // claim: take the group's lease if free/stale and the
                // worker's hands are empty
                0 => {
                    if workers[w].held.is_none() {
                        workers[w].held = archive
                            .try_claim(group, &workers[w].lease_cfg)
                            .expect("claim io");
                    }
                }
                // complete: run the held group's missing cells, store
                // their records, release the lease
                1 => {
                    if let Some(lease) = workers[w].held.take() {
                        let missing: Vec<ScenarioSpec> = cells
                            .iter()
                            .filter(|c| {
                                spec.group_of(c.index) == lease.group()
                                    && archive.load_cell(&spec, c).is_none()
                            })
                            .copied()
                            .collect();
                        if !missing.is_empty() {
                            let run = run_cells_with(
                                &spec, &missing, &serial(), Some(&archive), None,
                            )
                            .expect("batch");
                            executed_total += run.stats.executed_cells;
                        }
                        archive.release(lease);
                    }
                }
                // crash: die with the lease in hand — the file stays,
                // the heartbeat never advances
                _ => {
                    if let Some(lease) = workers[w].held.take() {
                        kill_holder(&archive, lease.group(), &workers[w].lease_cfg.holder);
                        drop(lease);
                    }
                }
            }
        }
        // any survivor still holding a lease at the end dies too
        for w in &mut workers {
            if let Some(lease) = w.held.take() {
                kill_holder(&archive, lease.group(), &w.lease_cfg.holder);
                drop(lease);
            }
        }

        // a final leased run drains whatever the interleaving left behind
        let drain = run_campaign_leased(&spec, &serial(), &archive, &fast_lease(), None)
            .expect("drain");
        executed_total += drain.stats.executed_cells;

        // no cell lost, none double-counted, bytes identical
        prop_assert_eq!(executed_total, spec.scenario_count());
        let load = archive.load(&spec, &cells);
        prop_assert_eq!(load.loaded, spec.scenario_count());
        prop_assert_eq!(load.skipped, 0);
        prop_assert_eq!(report_bytes(&drain.result), reference);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
