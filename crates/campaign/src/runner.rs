//! Parallel campaign execution.
//!
//! Work units are dispatched through the [`crate::executor`] thread pool
//! (the runner owns no thread loop): simulations run with panic
//! isolation and are written back into an index-addressed slot table —
//! so the result order, and everything aggregated from it, is
//! **identical for any thread count**.
//!
//! [`run_campaign_leased`] is the path of the `dpm serve` executor
//! slots: whole baseline groups are claimed via atomic lease records in
//! the campaign directory, cells another holder claimed are polled from
//! the archive, and stale leases (dead holders) are reclaimed — see
//! [`crate::archive`] for the failure semantics. Every other entry
//! point, `campaign run` and the batches of
//! [`crate::search::drive_strategy`] included, claims nothing.
//!
//! Three optimizations sit on top of that plan, all result-preserving:
//!
//! * **Baseline dedup** (on by default): cells differing only in
//!   controller/tuning share one always-`ON1` baseline run. The SoC
//!   builder never reads the LEM tuning for non-DPM controllers, so the
//!   shared baseline is *byte-identical* to the one each cell would have
//!   run itself; always-`ON1` cells reuse it for their scenario run too.
//! * **Archives** ([`crate::archive`]): completed cells persisted to a
//!   campaign directory prefill their result slots on resume and are not
//!   re-executed.
//! * **Trace-skeleton reuse**, only when the caller holds a
//!   [`BaselineCache`] (the search driver across its rounds, the leased
//!   path across the chunks of a group): each (workload, seed, IP count)
//!   generates its traces once, and every config is a clone of that
//!   skeleton with the cell's own settings applied — equal to what
//!   [`ScenarioSpec::build_config`] builds. A coarse evaluation takes
//!   about as long as generating its cell's traces, so without this a
//!   search spends about half of each evaluation on set-up. One-shot
//!   runs build every config from scratch: holding every trace set of
//!   the call raised the benchmark sweep's (80 cells, 200 ms) peak RSS
//!   from 6.6 to 7.9 MiB, and its fine simulations dwarf the build.

use std::collections::{BTreeMap, HashMap};
use std::io::IsTerminal;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use dpm_kernel::Simulation;
use dpm_soc::experiment::table2_row;
use dpm_soc::{build_soc, collect_metrics, ControllerKind, SocConfig, SocMetrics};
use dpm_units::SimTime;

use crate::archive::{CampaignArchive, LeaseConfig};
use crate::executor::{map_units, ThreadPool};
use crate::spec::{
    BatteryAxis, CampaignSpec, ControllerAxis, ScenarioSpec, ThermalAxis, TraceKey, WorkloadAxis,
};

/// How a cell's metrics are produced.
///
/// `Fine` elaborates the full discrete-event kernel (the reference
/// result); `Coarse` uses [`dpm_soc::run_config_coarse`], the analytic
/// dwell-time fast path — an order of magnitude faster, accurate to the
/// tolerance band documented in the README's "Multi-fidelity search"
/// section. Coarse results are *screening* numbers: they rank
/// configurations reliably but are never mixed with fine results in a
/// report, and a coarse archive record never satisfies a fine read (or
/// vice versa — see [`crate::archive`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Fidelity {
    /// Full kernel elaboration (the default, and the only fidelity
    /// reports are assembled from).
    #[default]
    Fine,
    /// Analytic dwell-time evaluation — fast screening numbers.
    Coarse,
}

// Serde impls are hand-written (the in-tree shim has no attribute
// support): the tag serializes as its lowercase label, and a *missing*
// field — which the shim decodes as a literal `null` — reads as `Fine`,
// so every pre-tag archive record keeps deserializing as the fine record
// it is.
impl serde::Serialize for Fidelity {
    fn to_value(&self) -> serde::Value {
        serde::Value::String(self.label().to_string())
    }
}

impl serde::Deserialize for Fidelity {
    fn deserialize(d: &mut serde::Decoder<'_>) -> Result<Self, serde::Error> {
        const EXPECTED: &str = "\"fine\" or \"coarse\"";
        if d.null()? {
            return Ok(Fidelity::Fine);
        }
        match &*d.string(EXPECTED)? {
            "fine" => Ok(Fidelity::Fine),
            "coarse" => Ok(Fidelity::Coarse),
            _ => Err(serde::Error::type_mismatch(EXPECTED, "string")),
        }
    }
}

impl Fidelity {
    /// Stable lowercase label (matches the serde form).
    pub fn label(self) -> &'static str {
        match self {
            Fidelity::Fine => "fine",
            Fidelity::Coarse => "coarse",
        }
    }
}

/// Execution options.
#[derive(Debug, Clone)]
pub struct RunnerConfig {
    /// Worker threads; `0` selects the machine's available parallelism.
    pub threads: usize,
    /// Print a `[n/N] runs done` line to stderr. On a terminal it is
    /// rewritten in place as each simulation finishes; otherwise (CI
    /// logs, redirected stderr) only the final count is printed.
    pub progress: bool,
    /// Share one always-`ON1` baseline run across cells that differ only
    /// in controller/tuning (default). Result-preserving; turn off only
    /// to measure the redundancy it removes.
    pub dedup_baselines: bool,
    /// Evaluation fidelity for every cell in this run (default
    /// [`Fidelity::Fine`]). Coarse runs archive under fidelity-tagged
    /// records and count in [`RunStats::coarse_simulations`], never in
    /// [`RunStats::simulations`].
    pub fidelity: Fidelity,
    /// Grid indices of cells in this run that are **speculative**
    /// (prefetched by the search driver, not proposed by a strategy).
    /// Speculative cells execute and archive exactly like any other
    /// cell — determinism is untouched — but their work is accounted in
    /// the `speculative_*` fields of [`RunStats`] instead of
    /// `executed_cells`/`simulations`. Empty (the default) means every
    /// cell is real.
    pub speculative: Vec<usize>,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        Self {
            threads: 0,
            progress: false,
            dedup_baselines: true,
            fidelity: Fidelity::Fine,
            speculative: Vec::new(),
        }
    }
}

impl RunnerConfig {
    /// A serial runner (used as the speedup reference by the benches).
    pub fn serial() -> Self {
        Self {
            threads: 1,
            ..Self::default()
        }
    }

    /// This configuration with baseline dedup disabled.
    pub fn without_dedup(mut self) -> Self {
        self.dedup_baselines = false;
        self
    }

    /// This configuration evaluating at the given fidelity.
    pub fn with_fidelity(mut self, fidelity: Fidelity) -> Self {
        self.fidelity = fidelity;
        self
    }

    /// This configuration with the given grid indices accounted as
    /// speculative (prefetched) work.
    pub fn with_speculative(mut self, cells: Vec<usize>) -> Self {
        self.speculative = cells;
        self
    }

    /// The effective worker count.
    pub fn effective_threads(&self) -> usize {
        ThreadPool::new(self.threads).parallelism()
    }
}

/// The error [`run_campaign_leased`] returns when its cancellation flag
/// flips: the in-flight group drained, every lease was released, and the
/// partial work is safely archived for any successor to resume.
pub const RUN_CANCELLED: &str = "run cancelled (work archived, leases released)";

/// Flat, compact metrics of one scenario (everything Table 2 reports,
/// plus absolute energies and residency).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ScenarioMetrics {
    /// Tasks completed by the scenario run.
    pub completed: usize,
    /// Tasks in the traces.
    pub total_tasks: usize,
    /// Tasks unfinished at the horizon.
    pub deferred: usize,
    /// Scenario energy (J), transitions and fan included.
    pub energy_j: f64,
    /// Baseline (always-`ON1`) energy (J) on the same traces.
    pub baseline_energy_j: f64,
    /// Energy saving vs the baseline (%).
    pub energy_saving_pct: f64,
    /// Temperature-elevation reduction vs the baseline (%).
    pub temp_reduction_pct: f64,
    /// Mean task latency overhead vs the baseline (%).
    pub delay_overhead_pct: f64,
    /// Mean arrival-to-completion latency (µs); zero when nothing
    /// completed.
    pub mean_latency_us: f64,
    /// Hottest observed temperature (°C).
    pub max_temp_c: f64,
    /// Final battery state of charge (0–1).
    pub final_soc: f64,
    /// Fraction of IP-time spent in a low-power state.
    pub low_power_frac: f64,
}

impl ScenarioMetrics {
    fn from_runs(dpm: &SocMetrics, baseline: &SocMetrics, horizon: SimTime) -> Self {
        let row = table2_row(dpm, baseline);
        let span = horizon.as_secs_f64() * dpm.per_ip.len().max(1) as f64;
        let low_power: f64 = dpm
            .per_ip
            .iter()
            .map(|ip| ip.low_power_time().as_secs_f64())
            .sum();
        Self {
            completed: dpm.completed(),
            total_tasks: dpm.total_tasks(),
            deferred: row.deferred,
            energy_j: dpm.total_energy.as_joules(),
            baseline_energy_j: baseline.total_energy.as_joules(),
            energy_saving_pct: row.energy_saving_pct,
            temp_reduction_pct: row.temp_reduction_pct,
            delay_overhead_pct: row.delay_overhead_pct,
            mean_latency_us: dpm.mean_latency().map_or(0.0, |d| d.as_secs_f64() * 1e6),
            max_temp_c: dpm.max_temp.as_celsius(),
            final_soc: dpm.final_soc,
            low_power_frac: if span > 0.0 { low_power / span } else { 0.0 },
        }
    }
}

/// One executed scenario: its spec plus metrics or the panic message.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ScenarioResult {
    /// The grid cell.
    pub scenario: ScenarioSpec,
    /// Metrics on success; `None` when the scenario panicked.
    pub metrics: Option<ScenarioMetrics>,
    /// The panic message when the scenario failed.
    pub error: Option<String>,
}

/// A finished campaign: every scenario result in grid order.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CampaignResult {
    /// Campaign name (from the spec).
    pub name: String,
    /// Horizon in milliseconds (from the spec).
    pub horizon_ms: u64,
    /// Master seed (from the spec).
    pub master_seed: u64,
    /// Results, indexed exactly like [`CampaignSpec::expand`].
    pub results: Vec<ScenarioResult>,
}

impl CampaignResult {
    /// Scenarios that panicked.
    pub fn failures(&self) -> impl Iterator<Item = &ScenarioResult> {
        self.results.iter().filter(|r| r.error.is_some())
    }
}

/// Work accounting for one campaign execution. Deliberately *not* part of
/// [`CampaignResult`]: reports must stay byte-identical between cold and
/// resumed runs, and these counts differ by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunStats {
    /// Cells in the grid.
    pub total_cells: usize,
    /// Cells satisfied from the archive (resume hits).
    pub archived_cells: usize,
    /// Cells executed this run.
    pub executed_cells: usize,
    /// *Fine* (full-kernel) simulations actually run (scenario runs +
    /// baseline runs). Coarse evaluations are counted separately so the
    /// cost of multi-fidelity search stays legible in fine-equivalents.
    pub simulations: usize,
    /// Shared always-`ON1` baseline runs (one per dedup group).
    pub baseline_groups: usize,
    /// Always-`ON1` cells whose scenario run was served straight from the
    /// shared baseline.
    pub reused_baselines: usize,
    /// Coarse (analytic dwell-time) evaluations run, scenario and
    /// baseline evaluations both.
    pub coarse_simulations: usize,
    /// Cells executed *speculatively* (search prefetch): evaluated ahead
    /// of any strategy proposal to fill otherwise-idle executor slots.
    /// Never counted in `executed_cells`; speculative cells already in
    /// the archive cost (and count) nothing.
    pub speculative_cells: usize,
    /// Fine simulations spent on speculative cells (never charged
    /// against a search budget, never mixed into `simulations`).
    pub speculative_simulations: usize,
    /// Coarse evaluations spent on speculative cells.
    pub speculative_coarse: usize,
}

impl RunStats {
    /// Folds another run's work accounting into this one, field by field.
    /// Used by multi-batch drivers (the search loop) to report the total
    /// work of a sequence of partial runs; callers owning a fixed grid
    /// overwrite `total_cells` afterwards rather than letting batches sum.
    pub fn absorb(&mut self, other: &RunStats) {
        self.total_cells += other.total_cells;
        self.archived_cells += other.archived_cells;
        self.executed_cells += other.executed_cells;
        self.simulations += other.simulations;
        self.baseline_groups += other.baseline_groups;
        self.reused_baselines += other.reused_baselines;
        self.coarse_simulations += other.coarse_simulations;
        self.speculative_cells += other.speculative_cells;
        self.speculative_simulations += other.speculative_simulations;
        self.speculative_coarse += other.speculative_coarse;
    }
}

/// Cross-run cache of shared always-`ON1` baseline results, keyed by the
/// axes a baseline depends on (everything but controller/tuning), and of
/// trace skeletons, keyed by the axes traces depend on (workload, seed,
/// IP count).
///
/// One exhaustive sweep computes each baseline group exactly once; a
/// *sequence* of partial runs over the same spec — the adaptive search
/// evaluating one batch of cells per round — would recompute a group
/// every time a batch touches it. Threading one `BaselineCache` through
/// the sequence restores the exhaustive sharing: a group simulates on
/// first use and is served from memory afterwards. Likewise each trace
/// set is generated once, and every later config is a clone of its
/// skeleton with the cell's settings applied. Results are deterministic,
/// so serving from the cache never changes any metric. A cache belongs
/// to one spec.
#[derive(Debug, Default)]
pub struct BaselineCache {
    map: HashMap<BaselineKey, Result<SocMetrics, String>>,
    /// Each skeleton, or the panic message of its build.
    skeletons: HashMap<TraceKey, Result<SocConfig, String>>,
}

impl BaselineCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Baseline groups cached so far.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when no group has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// A campaign execution: the (thread-count-invariant) results plus the
/// work accounting of this particular run.
#[derive(Debug, Clone)]
pub struct CampaignRun {
    /// The results, indexed in grid order.
    pub result: CampaignResult,
    /// How much work this run actually did.
    pub stats: RunStats,
    /// Archive-write failures (empty without an archive, or when every
    /// store succeeded). The results themselves are complete and valid —
    /// only their persistence is; the affected cells will re-run on the
    /// next resume. Archiving stops at the first failure rather than
    /// hammering a broken disk once per remaining cell.
    pub archive_errors: Vec<String>,
}

fn run_to_metrics(cfg: &SocConfig, horizon: SimTime, fidelity: Fidelity) -> SocMetrics {
    match fidelity {
        Fidelity::Fine => {
            let mut sim = Simulation::new();
            let handles = build_soc(&mut sim, cfg);
            sim.run_until(horizon);
            collect_metrics(&mut sim, &handles, horizon)
        }
        Fidelity::Coarse => dpm_soc::run_config_coarse(cfg, horizon),
    }
}

/// Where one run's SoC configs come from: built from scratch per cell,
/// or cloned from the caller's cached skeleton of the cell's trace key
/// with the cell's own settings applied.
struct Configs<'a> {
    spec: &'a CampaignSpec,
    skeletons: Option<&'a HashMap<TraceKey, Result<SocConfig, String>>>,
}

impl Configs<'_> {
    /// `cell`'s config; a panic while building it is the error, with the
    /// message a per-cell [`ScenarioSpec::build_config`] would give.
    fn build(&self, cell: &ScenarioSpec) -> Result<SocConfig, String> {
        let Some(skeletons) = self.skeletons else {
            return caught(|| cell.build_config(self.spec));
        };
        let skeleton = skeletons[&cell.trace_key()]
            .as_ref()
            .map_err(Clone::clone)?;
        caught(|| cell.configure(self.spec, skeleton.clone()))
    }

    /// Evaluates `cell`, or its always-`ON1` baseline when `baseline`.
    fn run(
        &self,
        cell: &ScenarioSpec,
        baseline: bool,
        fidelity: Fidelity,
    ) -> Result<SocMetrics, String> {
        let cfg = self.build(cell)?;
        let cfg = if baseline {
            cfg.with_controller(ControllerKind::AlwaysOn)
        } else {
            cfg
        };
        caught(|| run_to_metrics(&cfg, self.spec.horizon(), fidelity))
    }
}

/// Executes one scenario at *fine* fidelity: the configured run plus its
/// always-`ON1` baseline on identical traces.
pub fn run_scenario_cell(spec: &CampaignSpec, cell: &ScenarioSpec) -> ScenarioMetrics {
    let horizon = spec.horizon();
    let cfg = cell.build_config(spec);
    let baseline_cfg = cfg.clone().with_controller(ControllerKind::AlwaysOn);
    let dpm = run_to_metrics(&cfg, horizon, Fidelity::Fine);
    let baseline = run_to_metrics(&baseline_cfg, horizon, Fidelity::Fine);
    ScenarioMetrics::from_runs(&dpm, &baseline, horizon)
}

/// The axes a cell's always-`ON1` baseline actually depends on —
/// everything *except* controller and tuning (the SoC builder reads the
/// LEM tuning only for [`ControllerKind::Dpm`]) — plus the fidelity it
/// was evaluated at, so a coarse screen never serves its approximate
/// baseline to a fine batch sharing the cache.
type BaselineKey = (WorkloadAxis, u64, BatteryAxis, ThermalAxis, usize, Fidelity);

fn baseline_key(cell: &ScenarioSpec, fidelity: Fidelity) -> BaselineKey {
    (
        cell.workload,
        cell.seed,
        cell.battery,
        cell.thermal,
        cell.ip_count,
        fidelity,
    )
}

/// Shared progress line over the phases of one run: bumps a counter each
/// time a simulation unit finishes and writes what [`progress_text`]
/// says to stderr.
struct Progress {
    enabled: bool,
    terminal: bool,
    done: AtomicUsize,
    total: usize,
}

impl Progress {
    fn new(enabled: bool, total: usize) -> Self {
        Self {
            enabled,
            terminal: enabled && std::io::stderr().is_terminal(),
            done: AtomicUsize::new(0),
            total,
        }
    }

    fn tick(&self) {
        if !self.enabled {
            return;
        }
        let finished = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(text) = progress_text(finished, self.total, self.terminal) {
            eprint!("{text}");
        }
    }
}

/// The progress output after `finished` of `total` units. A terminal
/// gets the line redrawn in place (`\r`) after every unit; anywhere else
/// a redraw would pile up into one huge line, so only the final count is
/// written.
fn progress_text(finished: usize, total: usize, terminal: bool) -> Option<String> {
    let line = format!("[{finished}/{total}] runs done");
    match (terminal, finished == total) {
        (true, false) => Some(format!("\r  {line}")),
        (true, true) => Some(format!("\r  {line}\n")),
        (false, true) => Some(format!("  {line}\n")),
        (false, false) => None,
    }
}

fn caught<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| panic_message(p.as_ref()))
}

/// Executes one fresh cell, optionally against a pre-run shared baseline.
/// Error precedence mirrors the non-dedup path (scenario run first, then
/// baseline), so dedup on/off produce identical results even on panics.
fn execute_cell(
    configs: &Configs<'_>,
    cell: &ScenarioSpec,
    shared_baseline: Option<&Result<SocMetrics, String>>,
    fidelity: Fidelity,
    sims: &AtomicUsize,
    reused: &AtomicUsize,
) -> ScenarioResult {
    let horizon = configs.spec.horizon();
    let outcome = match shared_baseline {
        None => {
            // count each run as it starts: a panicking scenario run
            // never reaches its baseline run
            sims.fetch_add(1, Ordering::Relaxed);
            configs.run(cell, false, fidelity).and_then(|dpm| {
                sims.fetch_add(1, Ordering::Relaxed);
                configs
                    .run(cell, true, fidelity)
                    .map(|baseline| ScenarioMetrics::from_runs(&dpm, &baseline, horizon))
            })
        }
        Some(Ok(baseline)) if cell.controller == ControllerAxis::AlwaysOn => {
            // the scenario run *is* the baseline run (tuning is unread
            // for always-ON1), so serve it from the shared result
            reused.fetch_add(1, Ordering::Relaxed);
            Ok(ScenarioMetrics::from_runs(baseline, baseline, horizon))
        }
        Some(Ok(baseline)) => {
            sims.fetch_add(1, Ordering::Relaxed);
            configs
                .run(cell, false, fidelity)
                .map(|dpm| ScenarioMetrics::from_runs(&dpm, baseline, horizon))
        }
        Some(Err(baseline_err)) => {
            // the baseline panicked; without dedup the scenario run would
            // have executed (and possibly panicked) first, so replay that
            // order for identical error messages — except for always-ON1
            // cells, whose scenario run is the baseline run itself
            if cell.controller == ControllerAxis::AlwaysOn {
                Err(baseline_err.clone())
            } else {
                sims.fetch_add(1, Ordering::Relaxed);
                configs
                    .run(cell, false, fidelity)
                    .and_then(|_| Err(baseline_err.clone()))
            }
        }
    };
    match outcome {
        Ok(metrics) => ScenarioResult {
            scenario: *cell,
            metrics: Some(metrics),
            error: None,
        },
        Err(message) => ScenarioResult {
            scenario: *cell,
            metrics: None,
            error: Some(message),
        },
    }
}

/// Runs a campaign, optionally resuming from (and persisting into) an
/// archive directory.
///
/// The returned results are byte-identical for any thread count, with
/// dedup on or off, and for any mix of archived and fresh cells.
///
/// # Errors
///
/// Returns a description when the spec is invalid (empty axis, zero
/// horizon, out-of-range parameters). Scenario panics are *not* errors;
/// they are caught per cell and reported in the result. Neither are
/// mid-run archive-write failures: the completed results are worth more
/// than the persistence, so they are returned with the failure recorded
/// in [`CampaignRun::archive_errors`].
pub fn run_campaign_with(
    spec: &CampaignSpec,
    config: &RunnerConfig,
    archive: Option<&CampaignArchive>,
) -> Result<CampaignRun, String> {
    spec.validate()?;
    run_cells_with(spec, &spec.expand(), config, archive, None)
}

/// Runs an arbitrary subset of a campaign's cells (the search engine's
/// batch primitive), with the same archive and dedup machinery as a full
/// run. Results come back in `cells` order; archive records are keyed by
/// **grid** index, so batches and exhaustive sweeps share one cache.
///
/// An optional [`BaselineCache`] carries shared always-`ON1` baselines
/// and trace skeletons across calls: groups already cached are served
/// from memory instead of re-simulating, which restores exhaustive-sweep
/// sharing to a sequence of batches, and each trace set is generated
/// once. All determinism guarantees of [`run_campaign_with`] hold per
/// batch.
///
/// # Errors
///
/// Returns a description when the spec is invalid; scenario panics and
/// archive-write failures are reported in the result, as in
/// [`run_campaign_with`].
pub fn run_cells_with(
    spec: &CampaignSpec,
    cells: &[ScenarioSpec],
    config: &RunnerConfig,
    archive: Option<&CampaignArchive>,
    cache: Option<&mut BaselineCache>,
) -> Result<CampaignRun, String> {
    spec.validate()?;
    run_cells_local(spec, cells, config, archive, cache, None)
}

/// Runs the whole campaign as one of any number of lease-coordinated
/// runs sharing `archive`'s directory (each `dpm serve` executor slot
/// runs one): claim whole baseline groups through lease records, run the
/// claimed cells here, and take every other cell from the archive once
/// its holder stores it. Returns only when every cell has a result, so
/// the run is complete and byte-identical to [`run_campaign_with`]
/// whichever run simulated which group.
///
/// `cancel`, checked between baseline groups, stops the run gracefully
/// when it flips: the in-flight group drains, its lease is released and
/// the run returns [`RUN_CANCELLED`]. The `dpm serve` daemon sets it on
/// shutdown.
///
/// # Errors
///
/// Returns a description when the spec is invalid, the archive cannot
/// be read or written, or [`RUN_CANCELLED`] on cancellation. Scenario
/// panics are per-cell results, as in [`run_campaign_with`].
pub fn run_campaign_leased(
    spec: &CampaignSpec,
    config: &RunnerConfig,
    archive: &CampaignArchive,
    lease: &LeaseConfig,
    cancel: Option<&AtomicBool>,
) -> Result<CampaignRun, String> {
    spec.validate()?;
    run_cells_leased(spec, &spec.expand(), config, archive, lease, cancel)
}

/// Called (on the thread that ran it) after every finished simulation unit —
/// the leased path hangs its heartbeat refresher here so a long batch
/// keeps its lease alive cell by cell, not just at batch boundaries.
type UnitHook<'a> = Option<&'a (dyn Fn() + Sync)>;

/// The single-process execution path: resume from the archive, run the
/// missing cells on the configured [`ThreadPool`] executor (shared
/// baselines first, then the cells), store fresh records.
fn run_cells_local(
    spec: &CampaignSpec,
    cells: &[ScenarioSpec],
    config: &RunnerConfig,
    archive: Option<&CampaignArchive>,
    mut cache: Option<&mut BaselineCache>,
    on_unit: UnitHook<'_>,
) -> Result<CampaignRun, String> {
    let total = cells.len();
    let is_spec = speculative_flags(cells, config);

    // resume: prefill result slots from the archive (only records of
    // this run's fidelity satisfy the read — see `CampaignArchive`)
    let mut slots: Vec<Option<ScenarioResult>> = match archive {
        Some(a) => a.load_as(spec, cells, config.fidelity).slots,
        None => vec![None; total],
    };
    // speculative archive hits count nowhere: nobody asked for the cell
    // and no work was done
    let archived_cells = (0..total)
        .filter(|&i| slots[i].is_some() && !is_spec[i])
        .count();
    let missing: Vec<usize> = (0..total).filter(|&i| slots[i].is_none()).collect();

    // dedup: one always-ON1 baseline per (workload, seed, battery,
    // thermal, ip-count) group, in first-appearance order. A group is
    // speculative — its baseline run accounted as prefetch work — only
    // when *every* cell needing it is speculative.
    let mut groups: Vec<ScenarioSpec> = Vec::new();
    let mut group_of: HashMap<BaselineKey, usize> = HashMap::new();
    let mut cell_group: Vec<usize> = Vec::new();
    let mut group_spec: Vec<bool> = Vec::new();
    if config.dedup_baselines {
        for &i in &missing {
            let g = *group_of
                .entry(baseline_key(&cells[i], config.fidelity))
                .or_insert_with(|| {
                    groups.push(cells[i]);
                    group_spec.push(true);
                    groups.len() - 1
                });
            if !is_spec[i] {
                group_spec[g] = false;
            }
            cell_group.push(g);
        }
    }

    // groups already in the cross-call cache are served from memory;
    // only the rest simulate
    let mut baselines: Vec<Option<Result<SocMetrics, String>>> = match &cache {
        Some(c) => groups
            .iter()
            .map(|g| c.map.get(&baseline_key(g, config.fidelity)).cloned())
            .collect(),
        None => vec![None; groups.len()],
    };
    let to_run: Vec<usize> = (0..groups.len())
        .filter(|&g| baselines[g].is_none())
        .collect();

    // with a cross-call cache, each trace key generates its traces once
    // and configs clone them; one-shot runs build per cell, so a sweep
    // never holds every trace set in memory at once
    if let Some(c) = cache.as_deref_mut() {
        for &i in &missing {
            c.skeletons
                .entry(cells[i].trace_key())
                .or_insert_with(|| caught(|| cells[i].build_skeleton(spec)));
        }
    }
    let configs = Configs {
        spec,
        skeletons: cache.as_deref().map(|c| &c.skeletons),
    };

    let work = to_run.len() + missing.len();
    let pool = ThreadPool::new(config.threads);
    let progress = Progress::new(config.progress, work);
    // one counter per (fidelity, speculative) pair; this run's
    // evaluations all land in the pair matching `config.fidelity`, with
    // prefetched cells accounted separately
    let fine_sims = AtomicUsize::new(0);
    let coarse_sims = AtomicUsize::new(0);
    let spec_fine_sims = AtomicUsize::new(0);
    let spec_coarse_sims = AtomicUsize::new(0);
    let (sims, spec_sims) = match config.fidelity {
        Fidelity::Fine => (&fine_sims, &spec_fine_sims),
        Fidelity::Coarse => (&coarse_sims, &spec_coarse_sims),
    };
    let reused = AtomicUsize::new(0);
    let store_errors: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let archive_broken = std::sync::atomic::AtomicBool::new(false);

    // phase A: shared baselines (the config is built inside the catch —
    // a panicking trace generator must fail the group's cells, not the
    // whole campaign, exactly as it would without dedup)
    let fresh_baselines: Vec<Result<SocMetrics, String>> = map_units(&pool, to_run.len(), |k| {
        let counter = if group_spec[to_run[k]] {
            spec_sims
        } else {
            sims
        };
        counter.fetch_add(1, Ordering::Relaxed);
        let out = configs.run(&groups[to_run[k]], true, config.fidelity);
        progress.tick();
        if let Some(hook) = on_unit {
            hook();
        }
        out
    });
    for (k, result) in fresh_baselines.into_iter().enumerate() {
        baselines[to_run[k]] = Some(result);
    }
    let baselines: Vec<Result<SocMetrics, String>> = baselines
        .into_iter()
        .map(|b| b.expect("every baseline group is resolved"))
        .collect();

    // phase B: the cells themselves (storing fresh results as they land,
    // so a killed sweep keeps everything finished so far)
    let fresh: Vec<ScenarioResult> = map_units(&pool, missing.len(), |k| {
        let cell = &cells[missing[k]];
        let baseline = config.dedup_baselines.then(|| &baselines[cell_group[k]]);
        let counter = if is_spec[missing[k]] { spec_sims } else { sims };
        let result = execute_cell(&configs, cell, baseline, config.fidelity, counter, &reused);
        if let Some(a) = archive {
            if !archive_broken.load(Ordering::Relaxed) {
                if let Err(e) = a.store_as(spec, &result, config.fidelity) {
                    archive_broken.store(true, Ordering::Relaxed);
                    store_errors
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .push(e);
                }
            }
        }
        progress.tick();
        if let Some(hook) = on_unit {
            hook();
        }
        result
    });

    let archive_errors = store_errors
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);

    if let Some(c) = cache {
        for &g in &to_run {
            c.map.insert(
                baseline_key(&groups[g], config.fidelity),
                baselines[g].clone(),
            );
        }
    }

    for (k, result) in fresh.into_iter().enumerate() {
        slots[missing[k]] = Some(result);
    }
    let results: Vec<ScenarioResult> = slots
        .into_iter()
        .map(|slot| slot.expect("every scenario slot is filled"))
        .collect();

    Ok(CampaignRun {
        result: CampaignResult {
            name: spec.name.clone(),
            horizon_ms: spec.horizon_ms,
            master_seed: spec.master_seed,
            results,
        },
        stats: RunStats {
            total_cells: total,
            archived_cells,
            executed_cells: missing.iter().filter(|&&i| !is_spec[i]).count(),
            simulations: fine_sims.into_inner(),
            baseline_groups: to_run.iter().filter(|&&g| !group_spec[g]).count(),
            reused_baselines: reused.into_inner(),
            coarse_simulations: coarse_sims.into_inner(),
            speculative_cells: missing.iter().filter(|&&i| is_spec[i]).count(),
            speculative_simulations: spec_fine_sims.into_inner(),
            speculative_coarse: spec_coarse_sims.into_inner(),
        },
        archive_errors,
    })
}

/// Per-position speculative flags for a run's cell list, from the grid
/// indices in [`RunnerConfig::speculative`].
fn speculative_flags(cells: &[ScenarioSpec], config: &RunnerConfig) -> Vec<bool> {
    if config.speculative.is_empty() {
        return vec![false; cells.len()];
    }
    let set: std::collections::HashSet<usize> = config.speculative.iter().copied().collect();
    cells.iter().map(|c| set.contains(&c.index)).collect()
}

/// Capped exponential backoff for the leased runner's idle polling: the
/// wait starts at the lease's `poll_ms`, doubles on every consecutive
/// idle tick, and is capped at `max(poll_ms, 1000)` ms — so a run
/// waiting on another holder's group backs off to ~1 Hz instead of
/// spinning at the poll rate against a (possibly networked) filesystem,
/// yet notices progress within a second.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PollBackoff {
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
    fn new(poll_ms: u64) -> Self {
        Self {
            base_ms: poll_ms.max(1),
            idle_ticks: 0,
        }
    }

    /// Records one idle tick and returns the wait before the next poll.
    fn next_wait_ms(&mut self) -> u64 {
        let wait = self
            .base_ms
            .saturating_mul(1 << self.idle_ticks.min(Self::MAX_DOUBLINGS))
            .min(self.base_ms.max(Self::CAP_MS));
        self.idle_ticks += 1;
        wait
    }

    /// Forgets accumulated idleness — call whenever work was found.
    fn reset(&mut self) {
        self.idle_ticks = 0;
    }

    /// Sleeps out one idle tick in short slices, returning early (and
    /// reporting `true`) as soon as `cancel` flips — a shutting-down
    /// daemon never waits out a full backed-off tick.
    fn sleep(&mut self, cancel: Option<&AtomicBool>) -> bool {
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

/// The leased execution path behind [`run_campaign_leased`]: claim
/// whole baseline groups via archive leases, run the claimed cells
/// locally, and poll the archive for cells other runs hold —
/// reclaiming any group whose lease goes stale. Returns only when every
/// requested cell has a result, so any surviving run can complete a
/// campaign a dead holder abandoned.
///
/// Work accounting semantics across runs: `executed_cells`,
/// `simulations`, `baseline_groups` and `reused_baselines` sum to the
/// single-run totals (each group runs in exactly one holder, which
/// simulates its shared baseline once); `archived_cells` counts the
/// cells this run received from the archive, whether they predate the
/// run or were stored by a peer.
///
/// One asymmetry with the local path: *failed* (panicked) cells are
/// never archived, so every waiting run eventually claims and re-runs
/// them itself — duplicated work, but identical error results. A group
/// reclaimed from a crashed holder likewise re-simulates its baseline.
fn run_cells_leased(
    spec: &CampaignSpec,
    cells: &[ScenarioSpec],
    config: &RunnerConfig,
    archive: &CampaignArchive,
    lease_cfg: &LeaseConfig,
    cancel: Option<&AtomicBool>,
) -> Result<CampaignRun, String> {
    let cancelled = || cancel.is_some_and(|c| c.load(Ordering::Relaxed));
    let total = cells.len();
    let load = archive.load_as(spec, cells, config.fidelity);
    let mut slots = load.slots;
    let mut stats = RunStats {
        total_cells: total,
        archived_cells: slots.iter().filter(|s| s.is_some()).count(),
        ..RunStats::default()
    };
    let mut archive_errors = Vec::new();
    let mut backoff = PollBackoff::new(lease_cfg.poll_ms);

    loop {
        if cancelled() {
            return Err(RUN_CANCELLED.to_string());
        }
        // claim and run every group we can get a lease on, in group order
        let mut ran_any = false;
        let missing: Vec<usize> = (0..total).filter(|&i| slots[i].is_none()).collect();
        if missing.is_empty() {
            break;
        }
        let mut by_group: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for &i in &missing {
            by_group
                .entry(spec.group_of(cells[i].index))
                .or_default()
                .push(i);
        }
        for (group, positions) in by_group {
            if cancelled() {
                // graceful drain: leases release per finished group, so
                // nothing is held — just stop claiming new ones
                break;
            }
            let Some(lease) = archive.try_claim(group, lease_cfg)? else {
                continue;
            };
            // double-check under the lease: a previous holder may have
            // stored some of these cells before dying or releasing. One
            // bulk load — a single segment-index refresh covers the
            // whole group, instead of a directory probe per cell.
            let mut fresh: Vec<usize> = Vec::new();
            let group_cells: Vec<ScenarioSpec> = positions.iter().map(|&p| cells[p]).collect();
            let check = archive.load_as(spec, &group_cells, config.fidelity);
            for (slot, &p) in check.slots.into_iter().zip(&positions) {
                match slot {
                    Some(result) => {
                        slots[p] = Some(result);
                        stats.archived_cells += 1;
                    }
                    None => fresh.push(p),
                }
            }
            if !fresh.is_empty() {
                // run in thread-sized chunks (the baseline cache makes
                // chunking work-neutral: the group's baseline simulates
                // in the first chunk and is served from memory
                // afterwards), refreshing the lease heartbeat both
                // between chunks and — via the per-unit hook — *between
                // cells inside a chunk*, throttled to a quarter TTL, so
                // a group of very long cells never goes stale under its
                // living holder. Refreshes are best-effort: a failure
                // only risks a peer duplicating this group's remaining
                // work, never wrong results.
                let last_refresh = AtomicU64::new(crate::archive::epoch_ms());
                let refresh_after = (lease_cfg.ttl_ms / 4).max(1);
                let refresher = || {
                    let now = crate::archive::epoch_ms();
                    let last = last_refresh.load(Ordering::Relaxed);
                    if now.saturating_sub(last) >= refresh_after
                        && last_refresh
                            .compare_exchange(last, now, Ordering::Relaxed, Ordering::Relaxed)
                            .is_ok()
                    {
                        let _ = archive.refresh(&lease, lease_cfg);
                    }
                };
                // one cache across the chunks of this group, so its
                // baseline simulates and its traces generate once, as in
                // a sweep; a run never claims a group twice, so the cache
                // goes with the group
                let mut cache = BaselineCache::new();
                let chunk_size = config.effective_threads().max(1);
                for (k, chunk) in fresh.chunks(chunk_size).enumerate() {
                    if k > 0 {
                        let _ = archive.refresh(&lease, lease_cfg);
                    }
                    let batch: Vec<ScenarioSpec> = chunk.iter().map(|&p| cells[p]).collect();
                    let run = run_cells_local(
                        spec,
                        &batch,
                        config,
                        Some(archive),
                        Some(&mut cache),
                        Some(&refresher),
                    )?;
                    stats.absorb(&RunStats {
                        total_cells: 0,
                        ..run.stats
                    });
                    archive_errors.extend(run.archive_errors);
                    for (j, result) in run.result.results.into_iter().enumerate() {
                        slots[chunk[j]] = Some(result);
                    }
                }
                ran_any = true;
            }
            archive.release(lease);
        }

        // whatever is still missing is held by another run: absorb
        // their stored records — one bulk load per poll tick, which
        // costs a single segment-index refresh however many cells are
        // outstanding — and wait before re-trying claims (their leases
        // become stale, and claimable above, if they died)
        let mut still_missing = false;
        let mut absorbed_any = false;
        let waiting: Vec<usize> = (0..total).filter(|&i| slots[i].is_none()).collect();
        if !waiting.is_empty() {
            let waiting_cells: Vec<ScenarioSpec> = waiting.iter().map(|&i| cells[i]).collect();
            let absorbed = archive.load_as(spec, &waiting_cells, config.fidelity);
            for (slot, &i) in absorbed.slots.into_iter().zip(&waiting) {
                match slot {
                    Some(result) => {
                        slots[i] = Some(result);
                        stats.archived_cells += 1;
                        absorbed_any = true;
                    }
                    None => still_missing = true,
                }
            }
        }
        if !still_missing {
            break;
        }
        if ran_any || absorbed_any {
            backoff.reset();
        }
        if !ran_any {
            // exponential backoff while nothing moves: polling a large
            // foreign-held grid must not hammer a (possibly networked)
            // filesystem once per poll_ms forever. The sleep watches the
            // cancellation flag so a shutting-down daemon never waits
            // out a full idle tick.
            backoff.sleep(cancel);
        }
    }

    let results: Vec<ScenarioResult> = slots
        .into_iter()
        .map(|slot| slot.expect("every scenario slot is filled"))
        .collect();
    Ok(CampaignRun {
        result: CampaignResult {
            name: spec.name.clone(),
            horizon_ms: spec.horizon_ms,
            master_seed: spec.master_seed,
            results,
        },
        stats,
        archive_errors,
    })
}

/// Runs the whole campaign (no archive).
///
/// # Panics
///
/// Panics only on an invalid spec (empty axis, zero horizon); scenario
/// panics are caught per cell and reported in the result instead. Use
/// [`run_campaign_with`] for a non-panicking entry point.
pub fn run_campaign(spec: &CampaignSpec, config: &RunnerConfig) -> CampaignResult {
    run_campaign_with(spec, config, None)
        .expect("invalid campaign spec")
        .result
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "scenario panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{BatteryAxis, ControllerAxis, ThermalAxis, TuningAxis, WorkloadAxis};

    fn tiny_spec() -> CampaignSpec {
        CampaignSpec {
            name: "tiny".into(),
            horizon_ms: 8,
            master_seed: 7,
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
    fn runs_all_scenarios_in_grid_order() {
        let spec = tiny_spec();
        let result = run_campaign(&spec, &RunnerConfig::default());
        assert_eq!(result.results.len(), spec.scenario_count());
        for (i, r) in result.results.iter().enumerate() {
            assert_eq!(r.scenario.index, i);
            assert!(r.error.is_none(), "{:?}", r.error);
            let m = r.metrics.as_ref().unwrap();
            assert!(m.energy_j > 0.0);
            assert!(m.baseline_energy_j > 0.0);
        }
    }

    #[test]
    fn always_on_cells_save_nothing() {
        let spec = tiny_spec();
        let result = run_campaign(&spec, &RunnerConfig::serial());
        for r in &result.results {
            if r.scenario.controller == ControllerAxis::AlwaysOn {
                let m = r.metrics.as_ref().unwrap();
                assert!(
                    m.energy_saving_pct.abs() < 1e-9,
                    "always-on vs always-on baseline must be neutral: {}",
                    m.energy_saving_pct
                );
            }
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let spec = tiny_spec();
        let serial = run_campaign(&spec, &RunnerConfig::serial());
        let parallel = run_campaign(
            &spec,
            &RunnerConfig {
                threads: 4,
                ..RunnerConfig::default()
            },
        );
        assert_eq!(serial, parallel);
    }

    #[test]
    fn dedup_accounting_adds_up() {
        let spec = tiny_spec();
        let run = run_campaign_with(&spec, &RunnerConfig::serial(), None).unwrap();
        let s = run.stats;
        // 4 cells over 2 seeds: 2 baseline groups, one always-ON1 cell
        // per seed reuses its group's baseline
        assert_eq!(s.total_cells, 4);
        assert_eq!(s.executed_cells, 4);
        assert_eq!(s.archived_cells, 0);
        assert_eq!(s.baseline_groups, 2);
        assert_eq!(s.reused_baselines, 2);
        // 2 baselines + 2 DPM scenario runs; always-ON1 cells ran nothing
        assert_eq!(s.simulations, 4);

        let cold = run_campaign_with(&spec, &RunnerConfig::serial().without_dedup(), None).unwrap();
        assert_eq!(cold.stats.simulations, 8, "2 sims per cell without dedup");
        assert_eq!(cold.stats.baseline_groups, 0);
        assert_eq!(cold.result, run.result, "dedup must not change results");
    }

    #[test]
    fn coarse_runs_count_as_coarse_evaluations_not_simulations() {
        let spec = tiny_spec();
        let run = run_campaign_with(
            &spec,
            &RunnerConfig::serial().with_fidelity(Fidelity::Coarse),
            None,
        )
        .unwrap();
        assert_eq!(run.stats.simulations, 0);
        assert!(run.stats.coarse_simulations > 0);
        assert_eq!(run.stats.executed_cells, spec.scenario_count());
        for r in &run.result.results {
            assert!(r.error.is_none(), "{:?}", r.error);
            assert!(r.metrics.as_ref().unwrap().energy_j > 0.0);
        }

        // thread count does not change coarse results either
        let parallel = run_campaign(
            &spec,
            &RunnerConfig {
                threads: 4,
                fidelity: Fidelity::Coarse,
                ..RunnerConfig::default()
            },
        );
        assert_eq!(run.result, parallel);
    }

    #[test]
    fn progress_redraws_on_a_terminal_and_prints_once_elsewhere() {
        assert_eq!(
            progress_text(1, 3, true).as_deref(),
            Some("\r  [1/3] runs done")
        );
        assert_eq!(
            progress_text(3, 3, true).as_deref(),
            Some("\r  [3/3] runs done\n")
        );
        // a log or a pipe gets no redraws, only the final count
        assert_eq!(progress_text(1, 3, false), None);
        assert_eq!(progress_text(2, 3, false), None);
        assert_eq!(
            progress_text(3, 3, false).as_deref(),
            Some("  [3/3] runs done\n")
        );
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
    fn invalid_spec_is_an_error_not_a_panic() {
        let mut spec = tiny_spec();
        spec.seeds.clear();
        let err = run_campaign_with(&spec, &RunnerConfig::default(), None).unwrap_err();
        assert!(err.contains("axis 'seeds' is empty"), "{err}");
    }
}
