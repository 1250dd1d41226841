//! Campaign execution backends.
//!
//! The runner no longer owns a thread loop; it dispatches independent
//! **work units** through a [`ThreadPool`], and whole campaigns go
//! through one of two backends:
//!
//! * [`ThreadPool`] — the in-process scoped-thread pool (self-scheduling
//!   over an atomic counter, exactly the loop that used to live inside
//!   `runner::parallel_map`). A call whose width — the pool's
//!   parallelism capped at the unit count — is 1 spawns nothing: it runs
//!   its units in index order on the caller's thread, so `--threads 1`
//!   runs and one-unit phases pay no thread spawn and join.
//! * [`WorkerPool`] — a multi-process pool for `campaign run --workers`:
//!   N independently spawned `dpm worker` child processes coordinate
//!   **purely through the campaign archive directory** (atomic lease
//!   records, see [`crate::archive`]); no pipes, sockets or shared
//!   memory.
//!
//! The two meet at different granularities on purpose. A thread pool
//! schedules single simulations inside one address space; a worker pool
//! schedules whole grid cells across address spaces, using the archive as
//! the only shared medium — which is what lets workers run on different
//! hosts over a shared filesystem. [`CampaignExecutor`] is the
//! backend-agnostic entry point the CLI dispatches through: results are
//! byte-identical across backends because every result is keyed by grid
//! index and every simulation is deterministic. Search always runs in
//! one process, on a [`ThreadPool`].

use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use crate::archive::CampaignArchive;
use crate::runner::{run_campaign_with, CampaignRun, RunnerConfig};
use crate::spec::CampaignSpec;
use crate::worker::WorkerSummary;

/// The machine's available parallelism (at least 1), resolved once per
/// process: `std::thread::available_parallelism` reads cgroup files on
/// every call, and `threads = 0` is resolved on every batch.
pub(crate) fn available_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The in-process backend: scoped OS threads pulling unit indices from a
/// shared atomic counter (work stealing degenerates to self-scheduling
/// because every unit is independent).
///
/// A call's width is `parallelism().min(units)`. At width 1 the pool
/// spawns no thread: the units run in index order on the caller's
/// thread. Wider calls spawn `width` scoped threads, joined before
/// `execute` returns.
#[derive(Debug, Clone, Copy)]
pub struct ThreadPool {
    /// Worker threads; `0` selects the machine's available parallelism.
    pub threads: usize,
}

impl ThreadPool {
    /// A pool of `threads` workers (`0` = auto).
    pub fn new(threads: usize) -> Self {
        Self { threads }
    }

    /// Executes `unit(i)` for every `i in 0..units`, returning when all
    /// units have run. Units may run in any order and interleaving;
    /// callers key results by unit index, so scheduling never changes
    /// observable results.
    pub fn execute(&self, units: usize, unit: &(dyn Fn(usize) + Sync)) {
        let width = self.parallelism().min(units);
        if width <= 1 {
            (0..units).for_each(unit);
            return;
        }
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..width {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= units {
                        break;
                    }
                    unit(i);
                });
            }
        });
    }

    /// The pool's width: `threads`, or the machine's available
    /// parallelism when `threads` is 0. [`Self::execute`] caps it at the
    /// unit count and runs inline at width 1; the leased runner sizes its
    /// chunks by it, and [`crate::search::drive_strategy`] its prefetch
    /// slots.
    pub fn parallelism(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            available_threads()
        }
    }
}

/// Index-ordered parallel map over a [`ThreadPool`]: `job(i)` for `i in
/// 0..n`, results in index order regardless of execution interleaving.
pub fn map_units<T: Send + Sync>(
    pool: &ThreadPool,
    n: usize,
    job: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let slots: Vec<OnceLock<T>> = (0..n).map(|_| OnceLock::new()).collect();
    pool.execute(n, &|i| {
        // each index is scheduled exactly once, so the slot is empty
        let _ = slots[i].set(job(i));
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every unit ran"))
        .collect()
}

/// The multi-process backend: spawns `workers` child `dpm worker`
/// processes over a campaign directory and waits for the grid to drain.
///
/// Children coordinate through the archive's lease records only; any of
/// them can be killed and the survivors reclaim its cells. The pool
/// itself never moves result data — the archive directory is the one
/// shared medium, which is also why additional workers can be launched
/// by hand (even from other hosts over a shared filesystem) while the
/// pool runs.
#[derive(Debug, Clone)]
pub struct WorkerPool {
    /// Child processes to spawn (must be ≥ 1).
    pub workers: usize,
    /// `--threads` handed to each child (`0` = auto: the machine's
    /// parallelism divided across the children).
    pub threads_per_worker: usize,
    /// Lease time-to-live handed to each child (milliseconds).
    pub ttl_ms: u64,
    /// Disable baseline dedup in the children.
    pub no_dedup: bool,
}

impl WorkerPool {
    /// A pool of `workers` children with default lease parameters.
    pub fn new(workers: usize) -> Self {
        Self {
            workers,
            threads_per_worker: 0,
            ttl_ms: crate::archive::DEFAULT_LEASE_TTL_MS,
            no_dedup: false,
        }
    }

    /// The per-child thread count: explicit, or the machine's
    /// parallelism split evenly across children (at least 1 each).
    pub fn effective_child_threads(&self) -> usize {
        if self.threads_per_worker > 0 {
            return self.threads_per_worker;
        }
        (available_threads() / self.workers.max(1)).max(1)
    }

    /// Spawns the children — `dpm worker DIR` through the current
    /// executable — and waits for all of them.
    ///
    /// Each child prints a [`WorkerSummary`] as JSON on stdout; the
    /// summaries of the children that exited cleanly are returned along
    /// with a description of each child that did not (a crashed child is
    /// *not* an error for the pool — the survivors, or the caller's
    /// aggregation pass, complete its cells).
    ///
    /// # Errors
    ///
    /// Returns a description when no child can be spawned at all (no
    /// locatable executable, zero workers).
    pub fn run(&self, dir: &Path) -> Result<(Vec<WorkerSummary>, Vec<String>), String> {
        if self.workers == 0 {
            return Err("worker pool needs at least one worker".into());
        }
        let program = std::env::current_exe()
            .map_err(|e| format!("cannot locate the dpm binary to spawn workers: {e}"))?;
        let mut argv: Vec<std::ffi::OsString> = vec![
            "worker".into(),
            dir.into(),
            "--threads".into(),
            self.effective_child_threads().to_string().into(),
            "--ttl-ms".into(),
            self.ttl_ms.to_string().into(),
        ];
        if self.no_dedup {
            argv.push("--no-dedup".into());
        }
        let mut children = Vec::new();
        for k in 0..self.workers {
            let mut cmd = Command::new(&program);
            cmd.args(&argv)
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit());
            match cmd.spawn() {
                Ok(child) => children.push((k, child)),
                Err(e) => {
                    // reap whatever was already spawned before reporting
                    for (_, mut c) in children {
                        let _ = c.kill();
                        let _ = c.wait();
                    }
                    return Err(format!(
                        "cannot spawn worker {k} ({}): {e}",
                        program.display()
                    ));
                }
            }
        }
        let mut summaries = Vec::new();
        let mut failures = Vec::new();
        for (k, child) in children {
            match child.wait_with_output() {
                Ok(out) if out.status.success() => {
                    let text = String::from_utf8_lossy(&out.stdout);
                    match serde_json::from_str::<WorkerSummary>(text.trim()) {
                        Ok(summary) => summaries.push(summary),
                        Err(e) => failures.push(format!("worker {k}: unreadable summary: {e}")),
                    }
                }
                Ok(out) => failures.push(format!("worker {k} exited with {}", out.status)),
                Err(e) => failures.push(format!("worker {k} could not be awaited: {e}")),
            }
        }
        Ok((summaries, failures))
    }
}

/// A campaign executed through [`CampaignExecutor`]: the (backend-
/// invariant) run plus the per-worker accounting when the multi-process
/// backend was used.
#[derive(Debug)]
pub struct ExecutedCampaign {
    /// The results and this run's local work accounting.
    pub run: CampaignRun,
    /// One summary per worker child that exited cleanly (empty for the
    /// in-process backend).
    pub workers: Vec<WorkerSummary>,
    /// Children that crashed or returned garbage; their cells were
    /// completed by the survivors or the final aggregation pass.
    pub worker_failures: Vec<String>,
}

/// The pluggable execution layer: one entry point, two backends.
#[derive(Debug)]
pub enum CampaignExecutor {
    /// Run every cell in this process on a [`ThreadPool`] (its width
    /// overrides `RunnerConfig::threads`).
    Threads(ThreadPool),
    /// Spawn a [`WorkerPool`] of `dpm worker` children over the campaign
    /// directory, then aggregate from the archive when the grid drains.
    Workers(WorkerPool),
}

impl CampaignExecutor {
    /// Runs `spec` on this backend. The report aggregated from the
    /// returned results is **byte-identical** across backends, thread
    /// counts and worker counts.
    ///
    /// The multi-process backend requires an archive (the coordination
    /// medium). After the children drain the grid, a local aggregation
    /// pass loads every cell from the archive — and executes any cell a
    /// crashed child left behind, so the returned run is always complete.
    ///
    /// # Errors
    ///
    /// Returns a description when the spec is invalid, the worker backend
    /// is used without an archive, or no worker child could be spawned.
    pub fn run(
        &self,
        spec: &CampaignSpec,
        config: &RunnerConfig,
        archive: Option<&CampaignArchive>,
    ) -> Result<ExecutedCampaign, String> {
        match self {
            CampaignExecutor::Threads(pool) => {
                let mut cfg = config.clone();
                cfg.threads = pool.threads;
                let run = run_campaign_with(spec, &cfg, archive)?;
                Ok(ExecutedCampaign {
                    run,
                    workers: Vec::new(),
                    worker_failures: Vec::new(),
                })
            }
            CampaignExecutor::Workers(pool) => {
                let archive = archive.ok_or(
                    "the multi-process backend needs a campaign directory \
                     (the archive is the work-sharing medium)",
                )?;
                let (workers, worker_failures) = pool.run(archive.dir())?;
                // aggregation pass: loads the drained grid (0 simulations
                // when every worker finished) and back-fills any cell a
                // crashed child never completed
                let run = run_campaign_with(spec, config, Some(archive))?;
                Ok(ExecutedCampaign {
                    run,
                    workers,
                    worker_failures,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn thread_pool_runs_every_unit_exactly_once() {
        for threads in [1, 2, 8] {
            let pool = ThreadPool::new(threads);
            let hits: Vec<AtomicUsize> = (0..17).map(|_| AtomicUsize::new(0)).collect();
            pool.execute(hits.len(), &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn width_one_calls_run_on_the_callers_thread() {
        let caller = std::thread::current().id();
        for (threads, units) in [(1, 17), (8, 1)] {
            let ran = std::sync::Mutex::new(Vec::new());
            ThreadPool::new(threads).execute(units, &|i| {
                assert_eq!(std::thread::current().id(), caller);
                ran.lock().expect("no unit panicked").push(i);
            });
            let ran = ran.into_inner().expect("no unit panicked");
            assert_eq!(ran, (0..units).collect::<Vec<_>>(), "index order");
        }
    }

    #[test]
    fn map_units_keeps_index_order_on_any_width() {
        for threads in [1, 3, 16] {
            let pool = ThreadPool::new(threads);
            let out = map_units(&pool, 33, |i| i * i);
            assert_eq!(out, (0..33).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_units_is_a_no_op() {
        let pool = ThreadPool::new(4);
        let out: Vec<usize> = map_units(&pool, 0, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn auto_width_resolves_to_at_least_one() {
        assert!(ThreadPool::new(0).parallelism() >= 1);
        assert_eq!(ThreadPool::new(3).parallelism(), 3);
    }

    #[test]
    fn empty_worker_pool_is_an_error() {
        let err = WorkerPool::new(0)
            .run(Path::new("/nonexistent"))
            .unwrap_err();
        assert!(err.contains("at least one worker"), "{err}");
    }

    #[test]
    fn child_threads_split_the_machine() {
        let mut pool = WorkerPool::new(2);
        pool.threads_per_worker = 3;
        assert_eq!(pool.effective_child_threads(), 3);
        pool.threads_per_worker = 0;
        assert!(pool.effective_child_threads() >= 1);
    }
}
