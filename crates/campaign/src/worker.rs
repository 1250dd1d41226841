//! The campaign worker loop: join a campaign directory, claim work,
//! drain the grid.
//!
//! A worker is handed nothing but a campaign directory. It recovers the
//! spec from `campaign.toml`, then runs the leased execution path of the
//! runner: claim a baseline group (atomic lease record), simulate its
//! missing cells, append their records to this process's private
//! segment file, release the lease, repeat — and when nothing is
//! claimable, poll the archive (one bulk indexed load per tick) for the
//! cells other workers hold, reclaiming any group whose lease goes
//! stale. The worker
//! returns once **every** cell has a result, so each worker ends holding
//! the complete campaign and any one of them could render the report.
//!
//! `dpm worker <DIR>` is a thin CLI wrapper over [`run_worker`]; the
//! multi-process pool ([`crate::executor::WorkerPool`]) spawns N of
//! them. Because coordination happens purely through the directory,
//! workers may equally be launched by hand, on a schedule, or on other
//! hosts sharing a filesystem.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};

use crate::archive::{CampaignArchive, LeaseConfig};
use crate::runner::{run_campaign_leased, CampaignRun, RunStats, RunnerConfig};
use crate::spec::CampaignSpec;

/// Capped exponential backoff for idle polling: the wait starts at the
/// lease's `poll_ms`, doubles on every consecutive idle tick, and is
/// capped at `max(poll_ms, 1000)` ms — so an idle worker attached to a
/// server-owned directory backs off to ~1 Hz instead of spinning at the
/// poll rate against a (possibly networked) filesystem, yet notices new
/// work within a second.
///
/// The policy is deliberately a tiny value type so the leased runner
/// loop and any future poller share one tested implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PollBackoff {
    base_ms: u64,
    idle_ticks: u32,
}

impl PollBackoff {
    /// Doubling stops after this many idle ticks (32 × base before the
    /// absolute cap applies).
    const MAX_DOUBLINGS: u32 = 5;
    /// Absolute ceiling on one wait, regardless of base.
    const CAP_MS: u64 = 1_000;

    /// A fresh (non-idle) policy over a poll interval in milliseconds
    /// (clamped to at least 1).
    pub fn new(poll_ms: u64) -> Self {
        Self {
            base_ms: poll_ms.max(1),
            idle_ticks: 0,
        }
    }

    /// Records one idle tick and returns the wait before the next poll.
    pub fn next_wait_ms(&mut self) -> u64 {
        let wait = self
            .base_ms
            .saturating_mul(1 << self.idle_ticks.min(Self::MAX_DOUBLINGS))
            .min(self.base_ms.max(Self::CAP_MS));
        self.idle_ticks += 1;
        wait
    }

    /// Forgets accumulated idleness — call whenever work was found.
    pub fn reset(&mut self) {
        self.idle_ticks = 0;
    }

    /// Sleeps out one idle tick in short slices, returning early (and
    /// reporting `true`) as soon as `cancel` flips — a shutting-down
    /// daemon never waits out a full backed-off tick.
    pub fn sleep(&mut self, cancel: Option<&AtomicBool>) -> bool {
        let mut remaining = self.next_wait_ms();
        while remaining > 0 {
            if cancel.is_some_and(|c| c.load(Ordering::Relaxed)) {
                return true;
            }
            let slice = remaining.min(50);
            std::thread::sleep(std::time::Duration::from_millis(slice));
            remaining -= slice;
        }
        cancel.is_some_and(|c| c.load(Ordering::Relaxed))
    }
}

/// Options for one worker process.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// In-worker simulation threads; `0` = the machine's parallelism.
    pub threads: usize,
    /// Share always-`ON1` baselines within this worker (default on).
    pub dedup_baselines: bool,
    /// Lease identity and timing.
    pub lease: LeaseConfig,
}

impl Default for WorkerOptions {
    fn default() -> Self {
        Self {
            threads: 0,
            dedup_baselines: true,
            lease: LeaseConfig::for_process(),
        }
    }
}

/// What one worker did, serialized over stdout to the spawning pool.
///
/// Summed across all workers of a drained campaign, `executed_cells`,
/// `simulations`, `baseline_groups` and `reused_baselines` equal the
/// single-process totals: leases partition the grid by baseline group,
/// so no cell — and no shared baseline — is simulated twice.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct WorkerSummary {
    /// The worker's lease holder id.
    pub holder: String,
    /// The worker's local work accounting.
    pub stats: RunStats,
}

/// A drained campaign as seen by one worker: the recovered spec, the
/// complete run, and the worker's summary.
#[derive(Debug)]
pub struct WorkerOutcome {
    /// The spec recovered from the directory's `campaign.toml`.
    pub spec: CampaignSpec,
    /// The complete campaign (identical across all workers).
    pub run: CampaignRun,
    /// This worker's accounting.
    pub summary: WorkerSummary,
}

/// Joins the campaign in `dir` and works until the grid is drained.
///
/// # Errors
///
/// Returns a description when `dir` is not a campaign directory, its
/// spec is invalid, or the archive cannot be read or written. Scenario
/// panics are not errors (they are per-cell results), and a peer worker
/// dying never is — its leases go stale and this worker reclaims them.
pub fn run_worker(dir: &Path, options: &WorkerOptions) -> Result<WorkerOutcome, String> {
    let (archive, spec) = CampaignArchive::open_existing(dir)?;
    let config = RunnerConfig {
        threads: options.threads,
        dedup_baselines: options.dedup_baselines,
        ..RunnerConfig::default()
    };
    let run = run_campaign_leased(&spec, &config, &archive, &options.lease, None)?;
    let summary = WorkerSummary {
        holder: options.lease.holder.clone(),
        stats: run.stats,
    };
    Ok(WorkerOutcome { spec, run, summary })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{BatteryAxis, ControllerAxis, ThermalAxis, TuningAxis, WorkloadAxis};
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dpm-worker-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_spec() -> CampaignSpec {
        CampaignSpec {
            name: "worker_tiny".into(),
            horizon_ms: 5,
            master_seed: 21,
            initial_soc: 0.9,
            controllers: vec![ControllerAxis::Dpm, ControllerAxis::AlwaysOn],
            tunings: vec![TuningAxis::Paper],
            workloads: vec![WorkloadAxis::Low],
            seeds: vec![1, 2],
            batteries: vec![BatteryAxis::Linear],
            thermals: vec![ThermalAxis::Cool],
            ip_counts: vec![1],
        }
    }

    #[test]
    fn a_single_worker_drains_the_grid() {
        let spec = tiny_spec();
        let dir = tmp_dir("drain");
        let _ = CampaignArchive::open(&dir, &spec).unwrap();
        let options = WorkerOptions {
            threads: 1,
            ..WorkerOptions::default()
        };
        let outcome = run_worker(&dir, &options).unwrap();
        assert_eq!(outcome.spec, spec);
        assert_eq!(outcome.run.result.results.len(), spec.scenario_count());
        assert_eq!(outcome.summary.stats.executed_cells, spec.scenario_count());
        // every record landed; no lease left behind
        let (archive, _) = CampaignArchive::open_existing(&dir).unwrap();
        let load = archive.load(&spec, &spec.expand());
        assert_eq!(load.loaded, spec.scenario_count());
        let gc = archive.gc(&spec, options.lease.ttl_ms).unwrap();
        assert_eq!(gc.leases_active, 0);
        assert_eq!(gc.leases_removed, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_directory_without_a_campaign_is_a_clear_error() {
        let dir = tmp_dir("not-a-campaign");
        std::fs::create_dir_all(&dir).unwrap();
        let err = run_worker(&dir, &WorkerOptions::default()).unwrap_err();
        assert!(err.contains("not a campaign directory"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn backoff_doubles_caps_and_resets() {
        let mut b = PollBackoff::new(5);
        let waits: Vec<u64> = (0..9).map(|_| b.next_wait_ms()).collect();
        // 5 → 10 → 20 → … doubling, then pinned at the 1 s cap
        assert_eq!(waits, vec![5, 10, 20, 40, 80, 160, 160, 160, 160]);
        b.reset();
        assert_eq!(b.next_wait_ms(), 5);

        // a base above the cap is honoured as-is (never shortened)
        let mut slow = PollBackoff::new(2_000);
        assert_eq!(slow.next_wait_ms(), 2_000);
        assert_eq!(slow.next_wait_ms(), 2_000);

        // a zero poll interval still makes progress
        let mut zero = PollBackoff::new(0);
        assert_eq!(zero.next_wait_ms(), 1);
        assert_eq!(zero.next_wait_ms(), 2);
    }

    #[test]
    fn backoff_sleep_honours_cancellation_immediately() {
        use std::sync::atomic::AtomicBool;
        let cancel = AtomicBool::new(true);
        let mut b = PollBackoff::new(60_000);
        let started = std::time::Instant::now();
        assert!(b.sleep(Some(&cancel)));
        assert!(
            started.elapsed() < std::time::Duration::from_secs(1),
            "a pre-set cancel flag must short-circuit the whole wait"
        );
        // and an un-cancelled sleep of a tiny tick completes normally
        let mut quick = PollBackoff::new(1);
        assert!(!quick.sleep(None));
    }

    #[test]
    fn worker_summaries_round_trip_as_json() {
        let summary = WorkerSummary {
            holder: "pid1-0-42".into(),
            stats: RunStats {
                total_cells: 8,
                archived_cells: 3,
                executed_cells: 5,
                simulations: 7,
                baseline_groups: 2,
                reused_baselines: 1,
                coarse_simulations: 0,
                speculative_cells: 2,
                speculative_simulations: 3,
                speculative_coarse: 1,
            },
        };
        let json = serde_json::to_string_pretty(&summary).unwrap();
        let back: WorkerSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(back, summary);
    }
}
