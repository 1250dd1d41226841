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
//! * **One run per distinct configuration**: every evaluation is keyed
//!   by its *run key* — the cell's axes and the fidelity, with the
//!   tuning dropped unless the controller is `dpm` (the SoC builder and
//!   the coarse walk read the LEM tuning for no other controller) — and
//!   each key runs once. A cell's baseline is its key under always-`ON1`,
//!   so an always-`ON1` cell's own run is its baseline, and the tuning
//!   siblings of a timeout or oracle cell share one run. A shared run is
//!   *byte-identical* to the one each cell would have run itself.
//! * **Archives** ([`crate::archive`]): on resume the archive is one
//!   more source of a run key's outcome. Each key the cache lacks reads
//!   one record, the first of its cells' records that validates, into
//!   the cache. Every other cell with a record of its own then takes the
//!   key's outcome without its record being read. A cell without one,
//!   or whose record was read and failed, is served from it, as from any
//!   cached key. A cell whose key no other cell of the grid shares reads
//!   its own record.
//! * **Cross-call reuse**, only when the caller holds a [`BaselineCache`]
//!   (the search driver across its rounds, the leased path across the
//!   chunks of a group): a configuration any earlier call ran is served
//!   from the cache, and each (workload, seed, IP count)
//!   generates its traces once. A fine config is a clone of that
//!   skeleton with the cell's own settings applied — equal to what
//!   [`ScenarioSpec::build_config`] builds. A coarse evaluation clones
//!   no trace: it applies the cell's settings to the skeleton's IP-less
//!   settings and walks the skeleton's [`CoarsePlan`], built by the
//!   first coarse evaluation of the key, which reads the IPs, their
//!   traces and their model tables by reference. One-shot runs build
//!   every config from scratch: holding every trace set of the call
//!   raised the benchmark sweep's (80 cells, 200 ms) peak RSS from 6.6
//!   to 7.9 MiB, and its fine simulations dwarf the build.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::io::IsTerminal;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use dpm_kernel::Simulation;
use dpm_soc::experiment::table2_row;
use dpm_soc::{
    build_soc, collect_metrics, CoarsePlan, ControllerKind, IpConfig, SocConfig, SocMetrics,
};
use dpm_units::SimTime;

use crate::archive::{CampaignArchive, LeaseConfig};
use crate::executor::{map_units, ThreadPool};
use crate::spec::{
    BatteryAxis, CampaignSpec, ControllerAxis, ScenarioSpec, ThermalAxis, TraceKey, TuningAxis,
    WorkloadAxis,
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
    /// Cells with a record of their own in the archive (resume hits),
    /// less any whose record was read and failed validation. Each takes
    /// its configuration's outcome, read from one record of the
    /// configuration's cells or found in the [`BaselineCache`], so its
    /// own record may never be read.
    pub archived_cells: usize,
    /// Cells executed this run.
    pub executed_cells: usize,
    /// *Fine* (full-kernel) simulations actually run (scenario runs +
    /// baseline runs). Coarse evaluations are counted separately so the
    /// cost of multi-fidelity search stays legible in fine-equivalents.
    pub simulations: usize,
    /// Always-`ON1` baseline runs, one per (workload, seed, battery,
    /// thermal, IP count) group that needed one.
    pub baseline_groups: usize,
    /// Cells served by a run made for another cell: an always-`ON1`
    /// cell by its baseline, a tuning sibling of a timeout or oracle cell
    /// by that cell's run or by its archived record, and any cell whose
    /// configuration an earlier call sharing the [`BaselineCache`] ran.
    pub reused_runs: usize,
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
        self.reused_runs += other.reused_runs;
        self.coarse_simulations += other.coarse_simulations;
        self.speculative_cells += other.speculative_cells;
        self.speculative_simulations += other.speculative_simulations;
        self.speculative_coarse += other.speculative_coarse;
    }
}

/// Cross-call cache of runs by run key (see the module docs) — each
/// always-`ON1` baseline run and each finished or archived cell's
/// outcome — and of trace skeletons, keyed by the axes traces depend on
/// (workload, seed, IP count).
///
/// One exhaustive sweep runs each distinct configuration exactly once; a
/// *sequence* of partial runs over the same spec — the adaptive search
/// evaluating one batch of cells per round — would rerun a configuration
/// every time a batch touches it. Threading one `BaselineCache` through
/// the sequence restores the exhaustive sharing: a configuration runs on
/// first use and is served from memory afterwards. A baseline is kept
/// whole, behind an [`Arc`], so a batch borrows it rather than copying
/// its task records; any other run is kept as the outcome it gave its
/// cell. Likewise each trace set is generated once. A fine config is a
/// clone of its skeleton with the cell's settings applied; a coarse
/// evaluation walks the skeleton's [`CoarsePlan`] (built on the key's
/// first coarse evaluation) and copies no trace. Results are
/// deterministic, so serving from the cache never changes any metric. A
/// cache belongs to one spec.
#[derive(Debug, Default)]
pub struct BaselineCache {
    baselines: HashMap<RunKey, Result<Arc<SocMetrics>, String>>,
    outcomes: HashMap<RunKey, Result<ScenarioMetrics, String>>,
    /// Each skeleton, or the panic message of its build.
    skeletons: HashMap<TraceKey, Result<Skeleton, String>>,
}

/// One cached trace skeleton, split so a coarse evaluation reads its
/// IPs in place instead of cloning them.
#[derive(Debug)]
struct Skeleton {
    /// Every setting of the skeleton but its IPs (`ips` is empty).
    settings: SocConfig,
    /// The IPs with their generated traces.
    ips: Vec<IpConfig>,
    /// The coarse plan of `ips`, built by the first coarse evaluation.
    plan: OnceLock<CoarsePlan>,
}

impl Skeleton {
    fn new(mut config: SocConfig) -> Self {
        let ips = std::mem::take(&mut config.ips);
        Self {
            settings: config,
            ips,
            plan: OnceLock::new(),
        }
    }

    /// The whole skeleton as one config.
    fn config(&self) -> SocConfig {
        SocConfig {
            ips: self.ips.clone(),
            ..self.settings.clone()
        }
    }
}

impl BaselineCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Baseline runs cached so far.
    pub fn len(&self) -> usize {
        self.baselines.len()
    }

    /// `true` when no baseline has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.baselines.is_empty()
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
/// or taken from the caller's cached skeleton of the cell's trace key
/// with the cell's own settings applied.
struct Configs<'a> {
    spec: &'a CampaignSpec,
    skeletons: Option<&'a HashMap<TraceKey, Result<Skeleton, String>>>,
}

impl Configs<'_> {
    /// Evaluates `cell`, or its always-`ON1` baseline when `baseline`. A
    /// panic while building the config is the error, with the message a
    /// per-cell [`ScenarioSpec::build_config`] would give.
    fn run(
        &self,
        cell: &ScenarioSpec,
        baseline: bool,
        fidelity: Fidelity,
    ) -> Result<SocMetrics, String> {
        let horizon = self.spec.horizon();
        let configure = |skeleton: SocConfig| {
            let cfg = cell.configure(self.spec, skeleton);
            if baseline {
                cfg.with_controller(ControllerKind::AlwaysOn)
            } else {
                cfg
            }
        };
        let Some(skeletons) = self.skeletons else {
            let build = || configure(cell.build_skeleton(self.spec));
            return caught(|| run_to_metrics(&build(), horizon, fidelity));
        };
        let skeleton = skeletons[&cell.trace_key()]
            .as_ref()
            .map_err(Clone::clone)?;
        caught(|| match fidelity {
            Fidelity::Fine => run_to_metrics(&configure(skeleton.config()), horizon, fidelity),
            Fidelity::Coarse => {
                let plan = skeleton.plan.get_or_init(|| CoarsePlan::new(&skeleton.ips));
                let cfg = configure(skeleton.settings.clone());
                plan.run(&cfg, &skeleton.ips, horizon)
            }
        })
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

/// What one evaluation depends on: a cell's axes, with the tuning
/// dropped unless the controller is `dpm` (the SoC builder and the
/// coarse walk read the LEM tuning only for [`ControllerKind::Dpm`]),
/// plus the fidelity, so a coarse screen never serves a fine batch
/// sharing the cache. Cells with one key run one configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct RunKey {
    controller: ControllerAxis,
    tuning: Option<TuningAxis>,
    workload: WorkloadAxis,
    seed: u64,
    battery: BatteryAxis,
    thermal: ThermalAxis,
    ip_count: usize,
    fidelity: Fidelity,
}

impl RunKey {
    fn of(cell: &ScenarioSpec, fidelity: Fidelity) -> Self {
        Self {
            controller: cell.controller,
            tuning: (cell.controller == ControllerAxis::Dpm).then_some(cell.tuning),
            workload: cell.workload,
            seed: cell.seed,
            battery: cell.battery,
            thermal: cell.thermal,
            ip_count: cell.ip_count,
            fidelity,
        }
    }

    /// Whether other cells of `spec`'s grid share `cell`'s key: its
    /// tuning siblings, when the key drops the tuning. A cell without
    /// siblings gains nothing from looking its key up.
    fn has_siblings(spec: &CampaignSpec, cell: &ScenarioSpec) -> bool {
        cell.controller != ControllerAxis::Dpm && spec.tunings.len() > 1
    }

    /// The key of this run's always-`ON1` baseline.
    fn baseline(self) -> Self {
        Self {
            controller: ControllerAxis::AlwaysOn,
            tuning: None,
            ..self
        }
    }
}

/// Groups `items` by key: each distinct key in first-appearance order,
/// with the values of its items in order.
fn grouped<K: Copy + Eq + Hash, V>(items: impl IntoIterator<Item = (K, V)>) -> Vec<(K, Vec<V>)> {
    let mut position: HashMap<K, usize> = HashMap::new();
    let mut groups: Vec<(K, Vec<V>)> = Vec::new();
    for (key, value) in items {
        let g = *position.entry(key).or_insert_with(|| {
            groups.push((key, Vec::new()));
            groups.len() - 1
        });
        groups[g].1.push(value);
    }
    groups
}

/// Shared progress line over the phases of one run: bumps a counter each
/// time a simulation finishes and writes what [`progress_text`] says to
/// stderr. Units that simulate nothing (a cell served by another cell's
/// run) neither count nor tick.
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

/// A cell's outcome from its own run and its baseline run: the own
/// run's error first, then the baseline's, as if the cell had run both
/// itself in that order.
fn outcome_of(
    own: &Result<Arc<SocMetrics>, String>,
    baseline: &Result<Arc<SocMetrics>, String>,
    horizon: SimTime,
) -> Result<ScenarioMetrics, String> {
    let own = own.as_ref().map_err(Clone::clone)?;
    let baseline = baseline.as_ref().map_err(Clone::clone)?;
    Ok(ScenarioMetrics::from_runs(own, baseline, horizon))
}

/// A cell's result from its run key's outcome.
fn result_of(cell: &ScenarioSpec, outcome: &Result<ScenarioMetrics, String>) -> ScenarioResult {
    ScenarioResult {
        scenario: *cell,
        metrics: outcome.as_ref().ok().cloned(),
        error: outcome.as_ref().err().cloned(),
    }
}

/// Runs a campaign, optionally resuming from (and persisting into) an
/// archive directory.
///
/// The returned results are byte-identical for any thread count, for
/// any mix of archived and fresh cells, and to running every cell and
/// its baseline by itself.
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
/// batch primitive), with the same archive and run sharing as a full
/// run. Results come back in `cells` order; archive records are keyed by
/// **grid** index, so batches and exhaustive sweeps share one cache.
///
/// An optional [`BaselineCache`] carries runs and trace skeletons across
/// calls: a configuration already cached is served from memory instead
/// of re-simulating, which restores exhaustive-sweep sharing to a
/// sequence of batches, and each trace set is generated once. All
/// determinism guarantees of [`run_campaign_with`] hold per batch.
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

/// The single-process execution path: resume from the archive, run each
/// configuration of the missing cells once on the configured
/// [`ThreadPool`] executor (baselines first, then the cells' own runs),
/// store fresh records.
fn run_cells_local(
    spec: &CampaignSpec,
    cells: &[ScenarioSpec],
    config: &RunnerConfig,
    archive: Option<&CampaignArchive>,
    cache: Option<&mut BaselineCache>,
    on_unit: UnitHook<'_>,
) -> Result<CampaignRun, String> {
    let total = cells.len();
    let horizon = spec.horizon();
    let fidelity = config.fidelity;
    let is_spec = speculative_flags(cells, config);

    // a one-shot run shares runs through a cache of its own that keeps
    // no trace skeletons: it builds every config from scratch, so a
    // sweep never holds every trace set in memory at once
    let mut own_cache = BaselineCache::new();
    let keep_skeletons = cache.is_some();
    let BaselineCache {
        baselines,
        outcomes,
        skeletons,
    } = cache.unwrap_or(&mut own_cache);

    // resume: the archive is one more source of a run key's outcome. A
    // key the cache lacks takes the first of its cells' records that
    // validates, into the cache, and every cell of the key with a record
    // of its own takes that outcome without reading its record: the
    // scan that indexed the record's frame checked its checksum,
    // fingerprint and version. A cell whose record was read and failed
    // stays missing, like a cell without a record. A cell whose key no
    // other cell of the grid has just reads its own record. Only records
    // of this run's fidelity count (see `CampaignArchive`).
    let mut slots: Vec<Option<ScenarioResult>> = vec![None; total];
    if let Some(archive) = archive {
        let mut records = archive.records(spec, cells, fidelity);
        for (i, cell) in cells.iter().enumerate() {
            if !records.contains(cell) {
                continue;
            }
            if !RunKey::has_siblings(spec, cell) {
                slots[i] = records.read(cell).map(|metrics| ScenarioResult {
                    scenario: *cell,
                    metrics: Some(metrics),
                    error: None,
                });
                continue;
            }
            let outcome = match outcomes.entry(RunKey::of(cell, fidelity)) {
                Entry::Occupied(known) => known.into_mut(),
                Entry::Vacant(unknown) => match records.read(cell) {
                    Some(metrics) => unknown.insert(Ok(metrics)),
                    None => continue,
                },
            };
            slots[i] = Some(result_of(cell, outcome));
        }
    }
    // speculative archive hits count nowhere: nobody asked for the cell
    // and no work was done
    let archived_cells = (0..total)
        .filter(|&i| slots[i].is_some() && !is_spec[i])
        .count();
    let missing: Vec<usize> = (0..total).filter(|&i| slots[i].is_none()).collect();

    // each distinct run key of the missing cells, in first-appearance
    // order, with the cells it serves; then the baselines of the keys
    // no earlier call ran. A run is accounted as speculative (prefetch)
    // work only when every cell it serves is speculative.
    let runs = grouped(
        missing
            .iter()
            .map(|&i| (RunKey::of(&cells[i], fidelity), i)),
    );
    let fresh: Vec<&(RunKey, Vec<usize>)> = runs
        .iter()
        .filter(|(key, _)| !outcomes.contains_key(key))
        .collect();
    let new_baselines: Vec<(RunKey, Vec<usize>)> = grouped(
        fresh
            .iter()
            .flat_map(|(key, served)| served.iter().map(|&i| (key.baseline(), i))),
    )
    .into_iter()
    .filter(|(key, _)| !baselines.contains_key(key))
    .collect();
    let speculative = |served: &[usize]| served.iter().all(|&i| is_spec[i]);
    // the runs phase B simulates; every other missing cell is served by
    // a run made for another cell
    let own_runs = fresh
        .iter()
        .filter(|(key, _)| *key != key.baseline())
        .count();

    // with a cross-call cache, each trace key generates its traces once
    // and configs take them from there
    if keep_skeletons {
        for (_, served) in &fresh {
            let cell = &cells[served[0]];
            skeletons
                .entry(cell.trace_key())
                .or_insert_with(|| caught(|| Skeleton::new(cell.build_skeleton(spec))));
        }
    }
    let configs = Configs {
        spec,
        skeletons: keep_skeletons.then_some(&*skeletons),
    };

    let pool = ThreadPool::new(config.threads);
    let progress = Progress::new(config.progress, new_baselines.len() + own_runs);
    // one counter per (fidelity, speculative) pair; this run's
    // evaluations all land in the pair matching `config.fidelity`, with
    // prefetched runs accounted separately
    let fine_sims = AtomicUsize::new(0);
    let coarse_sims = AtomicUsize::new(0);
    let spec_fine_sims = AtomicUsize::new(0);
    let spec_coarse_sims = AtomicUsize::new(0);
    let (sims, spec_sims) = match fidelity {
        Fidelity::Fine => (&fine_sims, &spec_fine_sims),
        Fidelity::Coarse => (&coarse_sims, &spec_coarse_sims),
    };
    // one simulation for the cells `served`: the first one's own run,
    // or its baseline when `baseline`; counted, and ticked when done
    let simulate = |served: &[usize], baseline: bool| {
        let counter = if speculative(served) { spec_sims } else { sims };
        counter.fetch_add(1, Ordering::Relaxed);
        let out = configs.run(&cells[served[0]], baseline, fidelity);
        progress.tick();
        out.map(Arc::new)
    };
    let unit_done = || {
        if let Some(hook) = on_unit {
            hook();
        }
    };
    let store_errors: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let archive_broken = AtomicBool::new(false);

    // phase A: the baselines (each config is built inside the catch — a
    // panicking trace generator must fail the cells that need it, not
    // the whole campaign)
    let fresh_baselines = map_units(&pool, new_baselines.len(), |b| {
        let out = simulate(&new_baselines[b].1, true);
        unit_done();
        out
    });
    baselines.extend(
        new_baselines
            .iter()
            .map(|(key, _)| *key)
            .zip(fresh_baselines),
    );

    // phase B: each key's own run and the outcome of the cells it serves
    // (an always-ON1 key's own run is its baseline), storing fresh
    // results as they land, so a killed sweep keeps everything finished
    // so far
    let done = map_units(&pool, runs.len(), |r| {
        let (key, served) = &runs[r];
        let outcome = outcomes.get(key).cloned().unwrap_or_else(|| {
            let baseline = &baselines[&key.baseline()];
            if *key == key.baseline() {
                return outcome_of(baseline, baseline, horizon);
            }
            outcome_of(&simulate(served, false), baseline, horizon)
        });
        let results: Vec<ScenarioResult> = served
            .iter()
            .map(|&i| result_of(&cells[i], &outcome))
            .collect();
        if let Some(a) = archive {
            for result in &results {
                if archive_broken.load(Ordering::Relaxed) {
                    break;
                }
                if let Err(e) = a.store_as(spec, result, fidelity) {
                    archive_broken.store(true, Ordering::Relaxed);
                    store_errors
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .push(e);
                }
            }
        }
        unit_done();
        (outcome, results)
    });

    let archive_errors = store_errors
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    for ((key, served), (outcome, results)) in runs.iter().zip(done) {
        outcomes.insert(*key, outcome);
        for (&i, result) in served.iter().zip(results) {
            slots[i] = Some(result);
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
        stats: RunStats {
            total_cells: total,
            archived_cells,
            executed_cells: missing.iter().filter(|&&i| !is_spec[i]).count(),
            simulations: fine_sims.into_inner(),
            baseline_groups: new_baselines
                .iter()
                .filter(|(_, served)| !speculative(served))
                .count(),
            reused_runs: missing.len() - own_runs,
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
/// `simulations`, `baseline_groups` and `reused_runs` sum to the
/// single-run totals (cells share a run only within their baseline
/// group, and each group runs in exactly one holder, which runs each of
/// its configurations once); `archived_cells` counts the
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
                // run in thread-sized chunks (the cache makes chunking
                // work-neutral: each configuration of the group runs in
                // the first chunk that needs it and is served from
                // memory afterwards), refreshing the lease heartbeat both
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
                // one cache across the chunks of this group, so each of
                // its configurations runs and its traces generate once,
                // as in a sweep; a run never claims a group twice, so
                // the cache goes with the group
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
        // 4 cells over 2 seeds: one baseline run per seed, which the
        // seed's always-ON1 cell reuses as its own run
        assert_eq!(s.total_cells, 4);
        assert_eq!(s.executed_cells, 4);
        assert_eq!(s.archived_cells, 0);
        assert_eq!(s.baseline_groups, 2);
        assert_eq!(s.reused_runs, 2);
        // 2 baselines + 2 DPM runs, against 2 runs per cell for cells
        // that each run themselves and their baseline
        assert_eq!(s.simulations, 4);

        let reference: Vec<ScenarioResult> = spec
            .expand()
            .into_iter()
            .map(|cell| ScenarioResult {
                scenario: cell,
                metrics: Some(run_scenario_cell(&spec, &cell)),
                error: None,
            })
            .collect();
        assert_eq!(
            run.result.results, reference,
            "sharing must not change results"
        );
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
