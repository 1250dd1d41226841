//! Parallel campaign execution.
//!
//! Work units are dispatched through the [`crate::executor`] thread pool
//! (the runner owns no thread loop): simulations run with panic
//! isolation and are written back into an index-addressed slot table —
//! so the result order, and everything aggregated from it, is
//! **identical for any thread count**.
//!
//! Every entry point takes one path, [`run_cells_with`]: `campaign run`
//! through [`run_campaign_with`], each batch of
//! [`crate::search::drive_strategy`], and each baseline group a `dpm
//! serve` executor slot runs (see [`crate::server`]).
//!
//! Four optimizations sit on top of that plan, all result-preserving:
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
//! * **One trace set per trace key**: a call works one trace key —
//!   (workload, seed, IP count) — at a time, in trace-key order: it takes
//!   the key's trace *skeleton* from the [`BaselineCache`] or generates
//!   it, runs the key's new baselines, then its own runs. No run copies
//!   a trace: a fine run builds its SoC from the cell's own settings on
//!   the skeleton's IPs ([`dpm_soc::build_soc_on`]), the SoC
//!   [`ScenarioSpec::build_config`] describes, and a coarse one walks the
//!   skeleton's [`CoarsePlan`], built by the key's first coarse
//!   evaluation, which reads the IPs, their traces and their model
//!   tables by reference. A call given no cache drops each key's
//!   skeleton and baselines after the key's runs: holding every trace
//!   set of a sweep raised the benchmark sweep's (80 cells, 200 ms) peak
//!   RSS from 6.6 to 7.9 MiB.
//! * **Cross-call reuse**, only when the caller holds a [`BaselineCache`]
//!   (the search driver across its rounds, a `dpm serve` slot within
//!   one baseline group): a configuration any earlier call ran is served
//!   from the cache, and so is each trace skeleton.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::Hash;
use std::io::IsTerminal;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use dpm_kernel::Simulation;
use dpm_soc::experiment::table2_row;
use dpm_soc::{
    build_soc_on, collect_metrics, CoarsePlan, ControllerKind, IpConfig, SocConfig, SocMetrics,
};
use dpm_units::SimTime;

use crate::archive::CampaignArchive;
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

/// Cache of runs by run key (see the module docs) — each always-`ON1`
/// baseline run and each finished or archived cell's outcome — and of
/// trace skeletons, one per trace key, the axes traces depend on
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
/// cell. Likewise each trace set is generated once. Results are
/// deterministic, so serving from the cache never changes any metric. A
/// cache belongs to one spec. A [`run_cells_with`] call given no cache
/// uses one of its own, which drops each trace key's skeleton and
/// baselines once the key's runs are done.
#[derive(Debug, Default)]
pub struct BaselineCache {
    baselines: HashMap<RunKey, Result<Arc<SocMetrics>, String>>,
    outcomes: HashMap<RunKey, Result<ScenarioMetrics, String>>,
    /// Each skeleton, or the panic message of its build.
    skeletons: HashMap<TraceKey, Result<Skeleton, String>>,
}

/// One cached trace skeleton, split so every evaluation reads its IPs
/// in place instead of cloning them.
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

    /// Evaluates `cell`, or its always-`ON1` baseline when `baseline`, on
    /// this skeleton's traces (see the module docs). A panic is the
    /// error.
    fn run(
        &self,
        spec: &CampaignSpec,
        cell: &ScenarioSpec,
        baseline: bool,
        fidelity: Fidelity,
    ) -> Result<SocMetrics, String> {
        let horizon = spec.horizon();
        let configure = |settings: SocConfig| {
            let cfg = cell.configure(spec, settings);
            if baseline {
                cfg.with_controller(ControllerKind::AlwaysOn)
            } else {
                cfg
            }
        };
        caught(|| match fidelity {
            Fidelity::Fine => simulate_fine(&configure(self.settings.clone()), &self.ips, horizon),
            Fidelity::Coarse => {
                let plan = self.plan.get_or_init(|| CoarsePlan::new(&self.ips));
                plan.run(&configure(self.settings.clone()), &self.ips, horizon)
            }
        })
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

/// One fine (full-kernel) simulation of `cfg` on `ips` up to `horizon`.
fn simulate_fine(cfg: &SocConfig, ips: &[IpConfig], horizon: SimTime) -> SocMetrics {
    let mut sim = Simulation::new();
    let handles = build_soc_on(&mut sim, cfg, ips);
    sim.run_until(horizon);
    collect_metrics(&mut sim, &handles, horizon)
}

/// Executes one scenario at *fine* fidelity: the configured run plus its
/// always-`ON1` baseline on identical traces.
pub fn run_scenario_cell(spec: &CampaignSpec, cell: &ScenarioSpec) -> ScenarioMetrics {
    let horizon = spec.horizon();
    let cfg = cell.build_config(spec);
    let baseline_cfg = cfg.clone().with_controller(ControllerKind::AlwaysOn);
    let dpm = simulate_fine(&cfg, &cfg.ips, horizon);
    let baseline = simulate_fine(&baseline_cfg, &baseline_cfg.ips, horizon);
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

/// Runs an arbitrary subset of a campaign's cells, with the same archive
/// and run sharing as a full run: the one execution path, taken by a
/// whole campaign, a search batch and a `dpm serve` slot's baseline
/// group alike. It resumes from the archive, runs each configuration of
/// the missing cells once on the configured [`ThreadPool`] and stores
/// fresh records as they land. The runs go one trace key at a time:
/// the key's skeleton, its new baselines, then its cells' own runs.
/// Results come back in `cells` order; archive records are keyed by
/// **grid** index, so batches and exhaustive sweeps share one cache.
///
/// An optional [`BaselineCache`] carries runs and trace skeletons across
/// calls: a configuration already cached is served from memory instead
/// of re-simulating, which restores exhaustive-sweep sharing to a
/// sequence of batches, and each trace set is generated once. Without
/// one, the call keeps one skeleton at a time: it drops each trace key's
/// skeleton and baselines once the key's runs are done. All determinism
/// guarantees of [`run_campaign_with`] hold per batch.
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
    let total = cells.len();
    let horizon = spec.horizon();
    let fidelity = config.fidelity;
    let is_spec = speculative_flags(cells, config);

    // a call without a cache shares runs through one of its own, which
    // drops each trace key's skeleton and baselines once the key's runs
    // are done, so a sweep holds one trace set at a time
    let owned = cache.is_none();
    let mut own_cache = BaselineCache::new();
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
        let mut records = archive.records(spec, fidelity);
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

    // each distinct run key of the missing cells with the cells it
    // serves, one trace key after another, in trace-key order; then the
    // baselines of the keys no earlier call ran, in the same order. A run
    // is accounted as speculative (prefetch) work only when every cell it
    // serves is speculative.
    let mut runs = grouped(
        missing
            .iter()
            .map(|&i| (RunKey::of(&cells[i], fidelity), i)),
    );
    runs.sort_by_key(|(_, served)| cells[served[0]].trace_key());
    // the runs no earlier call or record gave an outcome for
    let fresh: Vec<bool> = runs
        .iter()
        .map(|(key, _)| !outcomes.contains_key(key))
        .collect();
    let fresh_runs = || {
        runs.iter()
            .zip(&fresh)
            .filter_map(|(run, &f)| f.then_some(run))
    };
    let new_baselines: Vec<(RunKey, Vec<usize>)> =
        grouped(fresh_runs().flat_map(|(key, served)| served.iter().map(|&i| (key.baseline(), i))))
            .into_iter()
            .filter(|(key, _)| !baselines.contains_key(key))
            .collect();
    let speculative = |served: &[usize]| served.iter().all(|&i| is_spec[i]);
    // the runs phase B simulates; every other missing cell is served by
    // a run made for another cell
    let own_runs = fresh_runs()
        .filter(|(key, _)| *key != key.baseline())
        .count();

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
    // one evaluation on the trace key's skeleton for the cells `served`:
    // the first one's own run, or its baseline when `baseline`; counted,
    // and ticked when done. A skeleton whose build panicked fails it.
    let simulate =
        |skeleton: Option<&Result<Skeleton, String>>, served: &[usize], baseline: bool| {
            let counter = if speculative(served) { spec_sims } else { sims };
            counter.fetch_add(1, Ordering::Relaxed);
            let out = skeleton
                .expect("a trace key with a run to simulate has a skeleton")
                .as_ref()
                .map_err(Clone::clone)
                .and_then(|s| s.run(spec, &cells[served[0]], baseline, fidelity));
            progress.tick();
            out.map(Arc::new)
        };
    let store_errors: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let archive_broken = AtomicBool::new(false);

    let mut pending_baselines = new_baselines.as_slice();
    let mut pending_fresh = fresh.as_slice();
    for runs_of_key in
        runs.chunk_by(|(_, a), (_, b)| cells[a[0]].trace_key() == cells[b[0]].trace_key())
    {
        let first = &cells[runs_of_key[0].1[0]];
        let (key_fresh, rest) = pending_fresh.split_at(runs_of_key.len());
        pending_fresh = rest;
        let (key_baselines, rest) = pending_baselines.split_at(
            pending_baselines
                .iter()
                .take_while(|(_, served)| cells[served[0]].trace_key() == first.trace_key())
                .count(),
        );
        pending_baselines = rest;
        // the key's skeleton, when a run of the key simulates: the
        // cache's, or generated here (a panicking trace generator fails
        // the cells that need it, not the whole campaign)
        let skeleton = key_fresh.contains(&true).then(|| {
            &*skeletons
                .entry(first.trace_key())
                .or_insert_with(|| caught(|| Skeleton::new(first.build_skeleton(spec))))
        });

        // phase A: the key's new baselines
        let fresh_baselines = map_units(&pool, key_baselines.len(), |b| {
            simulate(skeleton, &key_baselines[b].1, true)
        });
        baselines.extend(
            key_baselines
                .iter()
                .map(|(key, _)| *key)
                .zip(fresh_baselines),
        );

        // phase B: each run key's own run and the outcome of the cells it
        // serves (an always-ON1 key's own run is its baseline), storing
        // fresh results as they land, so a killed sweep keeps everything
        // finished so far
        let done = map_units(&pool, runs_of_key.len(), |r| {
            let (key, served) = &runs_of_key[r];
            let outcome = if key_fresh[r] {
                let baseline = &baselines[&key.baseline()];
                let own = (*key != key.baseline()).then(|| simulate(skeleton, served, false));
                outcome_of(own.as_ref().unwrap_or(baseline), baseline, horizon)
            } else {
                outcomes[key].clone()
            };
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
            (outcome, results)
        });
        for ((key, served), (outcome, results)) in runs_of_key.iter().zip(done) {
            outcomes.insert(*key, outcome);
            for (&i, result) in served.iter().zip(results) {
                slots[i] = Some(result);
            }
        }

        if owned {
            skeletons.remove(&first.trace_key());
            for (key, _) in key_baselines {
                baselines.remove(key);
            }
        }
    }

    let archive_errors = store_errors
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
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
    fn invalid_spec_is_an_error_not_a_panic() {
        let mut spec = tiny_spec();
        spec.seeds.clear();
        let err = run_campaign_with(&spec, &RunnerConfig::default(), None).unwrap_err();
        assert!(err.contains("axis 'seeds' is empty"), "{err}");
    }
}
