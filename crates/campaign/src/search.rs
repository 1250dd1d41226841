//! Adaptive campaign search: pluggable, budgeted, deterministic
//! exploration strategies over a [`CampaignSpec`] grid.
//!
//! The search layer is split into two halves:
//!
//! * a **[`Strategy`]** decides *which cells to look at next*: it
//!   proposes batches of unevaluated grid indices, observes each
//!   evaluated cell's result, and may rank likely *next* proposals
//!   through [`Strategy::prefetch_hint`] (the driver's speculative
//!   prefetch). Three strategies ship in-tree — [`ClimbStrategy`] (the
//!   original neighborhood climber), [`AnnealStrategy`] (seeded
//!   simulated annealing over the same single-axis neighbor primitive)
//!   and [`ParetoStrategy`] (multi-objective non-dominated front
//!   expansion);
//! * the **driver** ([`drive_strategy`]) owns everything else: budget
//!   accounting, batch execution through
//!   [`crate::runner::run_cells_with`], the cross-batch
//!   [`BaselineCache`], archive resume/store, and [`RunStats`]
//!   aggregation. Strategies never touch the executor, so every
//!   guarantee of the runner carries over to every strategy: results
//!   are thread-count invariant, and a campaign archive acts as a
//!   **result cache** (re-searching a directory never re-simulates an
//!   archived cell). A search runs in one process; its parallelism is
//!   the [`RunnerConfig::threads`] of each batch.
//!
//! Every strategy is **complete**: when its local move pool is
//! exhausted it restarts from the lowest-index unevaluated cell, so
//! with `budget >= grid size` the exploration degenerates to an
//! exhaustive sweep. The scalar strategies then provably return the
//! campaign argmax (same comparator, same grid-index tie-break), and
//! the Pareto strategy returns exactly the brute-force non-dominated
//! set ([`MultiObjective::front`]).
//!
//! Every strategy is also **byte-deterministic**: the climber and the
//! Pareto expansion are deterministic by construction, and the annealer
//! draws from a [`SplitMix64`](https://prng.di.unimi.it/splitmix64.c)
//! stream seeded from its [`AnnealSchedule`] — so reports are
//! byte-identical across thread counts, archived/fresh mixes, and
//! speculative prefetch on or off; only [`SearchOutcome::stats`] (work
//! actually done) differs, which is why it is not part of any report.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use crate::archive::CampaignArchive;
use crate::objective::{CellScore, Direction, MultiObjective, MultiScore, Objective};
use crate::runner::{
    run_cells_with, BaselineCache, Fidelity, RunStats, RunnerConfig, ScenarioMetrics,
    ScenarioResult,
};
use crate::spec::{parse_label, CampaignSpec, ScenarioSpec};

/// Default number of start-frontier cells.
pub const DEFAULT_START_POINTS: usize = 4;

/// Fine-equivalent cost ratio of the coarse evaluator: one fine
/// simulation buys [`COARSE_FACTOR`] coarse evaluations. The coarse
/// path is benchmarked at well over 10× the fine throughput (the
/// `simspeed` bench guards the floor), so budgeting coarse work at a
/// flat 1/10 never makes a multi-fidelity search spend more wall clock
/// than the fine-only search it replaces.
pub const COARSE_FACTOR: usize = 10;

/// How a search spends its budget across evaluation fidelities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SearchFidelity {
    /// Every evaluation runs the full kernel (the default; reports are
    /// byte-identical to pre-multi-fidelity builds).
    #[default]
    Fine,
    /// Every evaluation uses the coarse dwell-time path: an
    /// order-of-magnitude faster *approximate* search — the winner is a
    /// screening result, not a report-grade number.
    Coarse,
    /// Screen broadly at coarse fidelity, then promote only the
    /// top-ranked candidates to full-kernel runs, all within the same
    /// fine-equivalent budget (coarse evaluations cost
    /// 1/[`COARSE_FACTOR`] each). The reported winner and trajectory
    /// come from the *fine* evaluations only.
    Multi,
}

impl SearchFidelity {
    /// Every fidelity mode.
    pub const ALL: [SearchFidelity; 3] = [
        SearchFidelity::Fine,
        SearchFidelity::Coarse,
        SearchFidelity::Multi,
    ];

    /// The CLI/spec-file name of this mode.
    pub fn label(self) -> &'static str {
        match self {
            SearchFidelity::Fine => "fine",
            SearchFidelity::Coarse => "coarse",
            SearchFidelity::Multi => "multi",
        }
    }

    /// Parses a CLI/spec-file name.
    ///
    /// # Errors
    ///
    /// Returns a description listing the accepted names.
    pub fn parse(s: &str) -> Result<Self, String> {
        parse_label("fidelity", s, Self::ALL, Self::label)
    }
}

/// Which exploration strategy drives the search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum StrategyKind {
    /// Deterministic best-first neighborhood climbing (the default).
    Climb,
    /// Seeded simulated annealing over the same neighbor primitive.
    Anneal,
    /// Multi-objective non-dominated front expansion.
    Pareto,
}

impl StrategyKind {
    /// Every strategy kind.
    pub const ALL: [StrategyKind; 3] = [
        StrategyKind::Climb,
        StrategyKind::Anneal,
        StrategyKind::Pareto,
    ];

    /// The CLI/spec-file name of this strategy.
    pub fn label(self) -> &'static str {
        match self {
            StrategyKind::Climb => "climb",
            StrategyKind::Anneal => "anneal",
            StrategyKind::Pareto => "pareto",
        }
    }

    /// Parses a CLI/spec-file name.
    ///
    /// # Errors
    ///
    /// Returns a description listing the accepted names.
    pub fn parse(s: &str) -> Result<Self, String> {
        parse_label("strategy", s, Self::ALL, Self::label)
    }
}

/// The annealer's temperature schedule and random stream.
///
/// Temperature is in **objective units**: a move that worsens the
/// objective by `d` is accepted with probability `exp(-d / temp)`,
/// after which `temp` is multiplied by `cooling`. The stream is a
/// SplitMix64 generator seeded with `seed`, so the whole walk is a pure
/// function of the schedule and the (deterministic) cell metrics.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct AnnealSchedule {
    /// Starting temperature (objective units, > 0).
    pub initial_temp: f64,
    /// Geometric cooling factor applied after every annealing step
    /// (0 < cooling < 1).
    pub cooling: f64,
    /// Seed of the proposal/acceptance stream.
    pub seed: u64,
}

impl Default for AnnealSchedule {
    fn default() -> Self {
        Self {
            initial_temp: 5.0,
            cooling: 0.9,
            seed: 0x5EED_DA7E,
        }
    }
}

impl AnnealSchedule {
    /// Validates the schedule parameters.
    ///
    /// # Errors
    ///
    /// Returns a description when the temperature is not positive and
    /// finite or the cooling factor lies outside `(0, 1)`.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.initial_temp > 0.0 && self.initial_temp.is_finite()) {
            return Err("anneal initial_temp must be positive and finite".into());
        }
        if !(self.cooling > 0.0 && self.cooling < 1.0) {
            return Err("anneal cooling must lie strictly between 0 and 1".into());
        }
        Ok(())
    }
}

/// What to search for and how hard: the objective plus the evaluation
/// budget (distinct cells scored, archived hits included — a cache hit
/// spends budget but no simulation) and the scalar strategy driving the
/// exploration.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchSpec {
    /// What "best" means.
    pub objective: Objective,
    /// Maximum distinct cells to evaluate (clamped to the grid size).
    pub budget: usize,
    /// Start-frontier size (clamped to the budget and the grid).
    pub start_points: usize,
    /// The exploration strategy ([`StrategyKind::Pareto`] is rejected
    /// here — a front is not a scalar winner; use [`pareto_campaign`]).
    pub strategy: StrategyKind,
    /// The annealing schedule (read only by [`StrategyKind::Anneal`]).
    pub anneal: AnnealSchedule,
    /// How the budget is spent across fidelities (see
    /// [`SearchFidelity`]; the budget is always in fine-equivalents).
    pub fidelity: SearchFidelity,
    /// Speculative neighbor prefetch: while a proposed batch is in
    /// flight, idle executor capacity evaluates the strategy's
    /// [`Strategy::prefetch_hint`] cells into the archive. Reports stay
    /// byte-identical with prefetch on or off (results are keyed by
    /// grid index and the strategy only ever observes its own
    /// proposals); the extra work is accounted in the `speculative_*`
    /// [`RunStats`] fields and never charged against `budget`. Needs an
    /// archive (the prefetched results must land somewhere). Off by
    /// default.
    pub prefetch: bool,
}

impl SearchSpec {
    /// A climbing fine-fidelity search with the default start frontier.
    pub fn new(objective: Objective, budget: usize) -> Self {
        Self {
            objective,
            budget,
            start_points: DEFAULT_START_POINTS,
            strategy: StrategyKind::Climb,
            anneal: AnnealSchedule::default(),
            fidelity: SearchFidelity::Fine,
            prefetch: false,
        }
    }

    /// This search with a different scalar strategy.
    pub fn with_strategy(mut self, strategy: StrategyKind) -> Self {
        self.strategy = strategy;
        self
    }

    /// This search with a different fidelity mode.
    pub fn with_fidelity(mut self, fidelity: SearchFidelity) -> Self {
        self.fidelity = fidelity;
        self
    }

    /// This search with speculative neighbor prefetch enabled.
    pub fn with_prefetch(mut self, prefetch: bool) -> Self {
        self.prefetch = prefetch;
        self
    }
}

/// What a Pareto search explores: the joint objectives plus the same
/// budget semantics as [`SearchSpec`].
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoSpec {
    /// The jointly optimized objectives.
    pub objectives: MultiObjective,
    /// Maximum distinct cells to evaluate (clamped to the grid size).
    pub budget: usize,
    /// Start-frontier size (clamped to the budget and the grid).
    pub start_points: usize,
    /// Speculative neighbor prefetch (see [`SearchSpec::prefetch`]).
    pub prefetch: bool,
}

impl ParetoSpec {
    /// A Pareto search with the default start frontier.
    pub fn new(objectives: MultiObjective, budget: usize) -> Self {
        Self {
            objectives,
            budget,
            start_points: DEFAULT_START_POINTS,
            prefetch: false,
        }
    }

    /// This search with speculative neighbor prefetch enabled.
    pub fn with_prefetch(mut self, prefetch: bool) -> Self {
        self.prefetch = prefetch;
        self
    }
}

/// One scored cell in evaluation order.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Evaluation {
    /// Search round (0 = start frontier).
    pub round: usize,
    /// Grid index of the cell.
    pub index: usize,
    /// Human-readable cell label.
    pub label: String,
    /// Objective value; `None` when the cell failed (panicked).
    pub value: Option<f64>,
    /// Whether the constraint held (vacuously `true` without one,
    /// `false` for failed cells).
    pub feasible: bool,
    /// `true` when this evaluation became the best cell so far.
    pub improved: bool,
}

/// The winning cell.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SearchBest {
    /// Grid index.
    pub index: usize,
    /// Human-readable cell label.
    pub label: String,
    /// Objective value.
    pub value: f64,
    /// Whether the constraint held (`false` means *no* evaluated cell
    /// was feasible; the least-bad infeasible cell is reported).
    pub feasible: bool,
    /// The cell's full metrics.
    pub metrics: ScenarioMetrics,
}

/// The deterministic search result: byte-identical for any thread count
/// and any archived/fresh mix (work accounting deliberately lives in
/// [`SearchOutcome::stats`] instead).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SearchReport {
    /// Campaign name.
    pub name: String,
    /// The strategy that drove the exploration ([`StrategyKind::label`]).
    pub strategy: String,
    /// Human-readable objective ([`Objective::describe`]).
    pub objective: String,
    /// Cells in the full grid.
    pub grid_cells: usize,
    /// The requested evaluation budget.
    pub budget: usize,
    /// Distinct cells actually evaluated.
    pub evaluated: usize,
    /// Search rounds executed.
    pub rounds: usize,
    /// The winner; `None` only when every evaluated cell failed.
    pub best: Option<SearchBest>,
    /// Every evaluation, in order.
    pub trajectory: Vec<Evaluation>,
    /// The fidelity mode that produced this report
    /// ([`SearchFidelity::label`]).
    pub fidelity: String,
    /// Coarse evaluations spent screening (zero outside multi mode).
    /// In a multi report, `evaluated`/`best`/`trajectory` cover the
    /// *fine* promotions exclusively.
    pub screened: usize,
}

/// A finished search: the deterministic report plus this run's work
/// accounting.
#[derive(Debug)]
pub struct SearchOutcome {
    /// The (run-invariant) search report.
    pub report: SearchReport,
    /// Work done by this particular run, summed over all batches;
    /// `total_cells` is the grid size, so `simulations` vs
    /// `2 * total_cells` is the saving over an exhaustive sweep in which
    /// every cell runs itself and its baseline.
    pub stats: RunStats,
    /// Archive-write failures, as in [`crate::runner::CampaignRun`].
    pub archive_errors: Vec<String>,
}

/// One cell of a Pareto front.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ParetoPoint {
    /// Grid index.
    pub index: usize,
    /// Human-readable cell label.
    pub label: String,
    /// Objective values, in [`MultiObjective::objectives`] order.
    pub values: Vec<f64>,
    /// Whether every constraint held.
    pub feasible: bool,
    /// The cell's full metrics.
    pub metrics: ScenarioMetrics,
}

/// One round of a Pareto search: how the front grew while cells
/// accumulated (the dominated-count trajectory).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ParetoRound {
    /// Search round (0 = start frontier).
    pub round: usize,
    /// Distinct cells evaluated so far.
    pub evaluated: usize,
    /// Non-dominated cells after this round.
    pub front: usize,
    /// Evaluated (non-failed) cells dominated by some other cell.
    pub dominated: usize,
}

/// The deterministic Pareto search result: byte-identical for any
/// thread count and archived/fresh mix, like [`SearchReport`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ParetoReport {
    /// Campaign name.
    pub name: String,
    /// Always `"pareto"` (so reports self-identify like [`SearchReport`]).
    pub strategy: String,
    /// Human-readable objectives ([`MultiObjective::describe`]).
    pub objectives: String,
    /// Per-objective metric labels, in [`ParetoPoint::values`] order.
    pub objective_labels: Vec<String>,
    /// Cells in the full grid.
    pub grid_cells: usize,
    /// The requested evaluation budget.
    pub budget: usize,
    /// Distinct cells actually evaluated.
    pub evaluated: usize,
    /// Search rounds executed.
    pub rounds: usize,
    /// The non-dominated front over every evaluated cell, sorted by
    /// grid index. With `budget >= grid_cells` this is exactly the
    /// brute-force non-dominated set of the whole campaign.
    pub front: Vec<ParetoPoint>,
    /// Front growth and dominated counts, round by round.
    pub trajectory: Vec<ParetoRound>,
}

/// A finished Pareto search: the deterministic report plus this run's
/// work accounting.
#[derive(Debug)]
pub struct ParetoOutcome {
    /// The (run-invariant) Pareto report.
    pub report: ParetoReport,
    /// Work done by this particular run (see [`SearchOutcome::stats`]).
    pub stats: RunStats,
    /// Archive-write failures, as in [`crate::runner::CampaignRun`].
    pub archive_errors: Vec<String>,
}

// ---- the strategy abstraction ---------------------------------------

/// A pluggable exploration strategy: proposes batches of unevaluated
/// cells and observes their results.
///
/// The contract with [`drive_strategy`]:
///
/// * `propose` returns grid indices the strategy has **not yet been
///   shown** (the driver filters and `debug_assert`s duplicates); an
///   empty batch ends the search;
/// * every proposed cell that fits the remaining budget is executed and
///   fed back through `observe`, in ascending-index batch order, before
///   the next `propose`;
/// * strategies never execute anything themselves — budget, caching
///   and archives belong to [`drive_strategy`], which is how every
///   strategy inherits the runner's determinism guarantees.
pub trait Strategy {
    /// The next cells to evaluate; empty ends the search.
    fn propose(&mut self, spec: &CampaignSpec) -> Vec<usize>;

    /// One evaluated cell's outcome.
    fn observe(&mut self, index: usize, result: &ScenarioResult);

    /// A deterministic ranking of the cells this strategy is *likely*
    /// to propose next (best guesses first), for the driver's
    /// speculative prefetch. Called after `propose`, before the batch's
    /// results are observed — so hints predict the round after the one
    /// in flight. Hints are advisory: the driver filters out evaluated
    /// and in-flight cells, caps the rest to idle executor capacity,
    /// and never feeds speculative results back through `observe`. The
    /// default hints nothing (no speculation).
    fn prefetch_hint(&self, _spec: &CampaignSpec) -> Vec<usize> {
        Vec::new()
    }
}

/// Evenly-spread start frontier: `count` cells at indices `k * n /
/// count` — deterministic and strictly increasing for `count <= n`.
fn start_frontier(n: usize, count: usize) -> Vec<usize> {
    (0..count).map(|k| k * n / count).collect()
}

/// Per-cell scalar search state shared by the scalar strategies.
/// Best-so-far tracking deliberately does **not** live here: the report
/// derives it in [`assemble_scalar`] through [`Objective::wins`], the
/// one comparator shared with [`Objective::argbest`].
struct Scoreboard {
    objective: Objective,
    /// `None` = unevaluated; `Some(None)` = evaluated but failed.
    scores: Vec<Option<Option<CellScore>>>,
}

impl Scoreboard {
    fn new(objective: Objective, n: usize) -> Self {
        Self {
            objective,
            scores: vec![None; n],
        }
    }

    /// Records a cell's score.
    fn record(&mut self, index: usize, score: Option<CellScore>) {
        debug_assert!(self.scores[index].is_none(), "cell evaluated twice");
        self.scores[index] = Some(score);
    }

    fn is_evaluated(&self, index: usize) -> bool {
        self.scores[index].is_some()
    }

    /// `center`'s unevaluated single-axis neighbors: a climbing step.
    fn fresh_neighbors(&self, spec: &CampaignSpec, center: usize) -> Vec<usize> {
        spec.neighbors_of(center)
            .into_iter()
            .filter(|&j| !self.is_evaluated(j))
            .collect()
    }

    /// The lowest-index unevaluated cell (the restart point).
    fn first_unevaluated(&self) -> Option<usize> {
        self.scores.iter().position(Option::is_none)
    }
}

/// A scored cell, ordered exactly as [`Objective::wins`] ranks cells:
/// feasible first, then the value in the objective's direction by
/// `total_cmp`, then the lower grid index. The maximum of a set is the
/// cell a scan of it with that comparator would pick — which lets the
/// climber keep its frontier in a heap instead of rescanning the grid.
#[derive(Debug, Clone, Copy)]
struct Ranked {
    score: CellScore,
    index: usize,
    direction: Direction,
}

impl Ranked {
    fn new(objective: &Objective, score: CellScore, index: usize) -> Self {
        Self {
            score,
            index,
            direction: objective.direction,
        }
    }
}

impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> Ordering {
        let value = self.score.value.total_cmp(&other.score.value);
        let value = match self.direction {
            Direction::Maximize => value,
            Direction::Minimize => value.reverse(),
        };
        self.score
            .feasible
            .cmp(&other.score.feasible)
            .then(value)
            .then(other.index.cmp(&self.index))
    }
}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Ranked {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Ranked {}

/// The original deterministic neighborhood climber: evaluate an
/// evenly-spread start frontier, then repeatedly expand the best
/// evaluated-but-unexpanded cell's single-axis neighbors
/// ([`CampaignSpec::neighbors_of`]), restarting from the lowest-index
/// unevaluated cell when every neighborhood is exhausted.
pub struct ClimbStrategy {
    board: Scoreboard,
    /// Every scored (non-failed), not-yet-expanded cell; the maximum is
    /// the next cell to expand.
    frontier: BinaryHeap<Ranked>,
    start_points: usize,
    started: bool,
}

impl ClimbStrategy {
    /// A climber over `spec`'s grid.
    pub fn new(spec: &CampaignSpec, objective: Objective, start_points: usize) -> Self {
        Self {
            board: Scoreboard::new(objective, spec.scenario_count()),
            frontier: BinaryHeap::new(),
            start_points,
            started: false,
        }
    }

    /// Records a cell's score; scored cells join the frontier.
    fn record(&mut self, index: usize, score: Option<CellScore>) {
        self.board.record(index, score);
        if let Some(score) = score {
            self.frontier
                .push(Ranked::new(&self.board.objective, score, index));
        }
    }
}

impl Strategy for ClimbStrategy {
    fn propose(&mut self, spec: &CampaignSpec) -> Vec<usize> {
        let n = spec.scenario_count();
        if !self.started {
            self.started = true;
            return start_frontier(n, self.start_points.clamp(1, n));
        }
        while let Some(center) = self.frontier.pop() {
            let fresh = self.board.fresh_neighbors(spec, center.index);
            if !fresh.is_empty() {
                return fresh;
            }
        }
        self.board.first_unevaluated().into_iter().collect()
    }

    fn observe(&mut self, index: usize, result: &ScenarioResult) {
        self.record(index, self.board.objective.score(result));
    }

    /// The climber's likely next proposal: the unevaluated neighbors of
    /// the best evaluated-but-unexpanded cell — exactly the batch the
    /// next `propose` returns if the in-flight batch beats nothing —
    /// falling back to the restart cell.
    fn prefetch_hint(&self, spec: &CampaignSpec) -> Vec<usize> {
        if !self.started {
            return Vec::new();
        }
        match self.frontier.peek() {
            Some(center) => self.board.fresh_neighbors(spec, center.index),
            None => self.board.first_unevaluated().into_iter().collect(),
        }
    }
}

/// A tiny deterministic SplitMix64 stream (the annealer's only source
/// of randomness — no platform or thread dependence anywhere).
#[derive(Debug, Clone)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` (53 mantissa bits).
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `0..n` (modulo bias is irrelevant at neighborhood
    /// sizes of at most 14).
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Seeded simulated annealing over the single-axis neighbor primitive:
/// after the start frontier, each round proposes one random unevaluated
/// neighbor of the walker's current cell and moves there when it is
/// better — or, with probability `exp(-worsening / temp)`, even when it
/// is worse — cooling the temperature geometrically after every step.
/// When the current neighborhood is exhausted the walker jumps to the
/// lowest-index unevaluated cell (which keeps the strategy complete:
/// full budget ⇒ exhaustive sweep ⇒ the argmax, because the **best**
/// cell is tracked globally over everything evaluated, independent of
/// where the walker wanders).
///
/// Walker policy details (documented because they are part of the
/// byte-deterministic behavior): failed cells are never moved to;
/// moves from a feasible cell to an infeasible one are always rejected
/// (the walk never leaves the feasible region voluntarily); restart
/// jumps are unconditional.
pub struct AnnealStrategy {
    board: Scoreboard,
    start_points: usize,
    rng: SplitMix64,
    temp: f64,
    cooling: f64,
    current: Option<(usize, CellScore)>,
    /// The cell proposed as an annealing step (None for frontier or
    /// restart batches).
    pending: Option<usize>,
    /// The cell proposed as a restart jump.
    jump: Option<usize>,
    started: bool,
}

impl AnnealStrategy {
    /// An annealer over `spec`'s grid.
    pub fn new(
        spec: &CampaignSpec,
        objective: Objective,
        start_points: usize,
        schedule: &AnnealSchedule,
    ) -> Self {
        Self {
            board: Scoreboard::new(objective, spec.scenario_count()),
            start_points,
            rng: SplitMix64(schedule.seed),
            temp: schedule.initial_temp,
            cooling: schedule.cooling,
            current: None,
            pending: None,
            jump: None,
            started: false,
        }
    }
}

impl Strategy for AnnealStrategy {
    fn propose(&mut self, spec: &CampaignSpec) -> Vec<usize> {
        let n = spec.scenario_count();
        if !self.started {
            self.started = true;
            return start_frontier(n, self.start_points.clamp(1, n));
        }
        let fresh: Vec<usize> = match self.current {
            Some((cur, _)) => self.board.fresh_neighbors(spec, cur),
            // every cell so far failed: no position to walk from
            None => Vec::new(),
        };
        if fresh.is_empty() {
            // neighborhood exhausted (or no walker yet): restart from
            // the lowest-index unevaluated cell
            let Some(j) = self.board.first_unevaluated() else {
                return Vec::new();
            };
            self.jump = Some(j);
            return vec![j];
        }
        let j = fresh[self.rng.below(fresh.len())];
        self.pending = Some(j);
        vec![j]
    }

    fn observe(&mut self, index: usize, result: &ScenarioResult) {
        let score = self.board.objective.score(result);
        self.board.record(index, score);
        let step = self.pending.take() == Some(index);
        let jumped = self.jump.take() == Some(index);
        let accept = match (self.current, score) {
            (_, None) => false, // failed cells are never moved to
            (None, Some(_)) => true,
            (Some(_), Some(_)) if jumped => true, // restarts always move
            (Some((_, cs)), Some(s)) if step => {
                if self.board.objective.better(s, cs) {
                    true
                } else if cs.feasible && !s.feasible {
                    false // never voluntarily leave the feasible region
                } else {
                    let worsening = (s.value - cs.value).abs();
                    self.rng.next_f64() < (-worsening / self.temp.max(1e-300)).exp()
                }
            }
            // frontier (batch) observations move greedily and spend no
            // randomness — the walk depends only on annealing steps
            (Some((_, cs)), Some(s)) => self.board.objective.better(s, cs),
        };
        if accept {
            self.current = Some((index, score.expect("accepted cells are scored")));
        }
        if step {
            self.temp *= self.cooling;
        }
    }

    /// The annealer's candidate pool for its next draw: the unevaluated
    /// neighbors of the current cell (the pool if the in-flight step is
    /// rejected) and of the pending step (the pool if it is accepted),
    /// falling back to the restart cell. Reads no randomness, so
    /// hinting never perturbs the walk.
    fn prefetch_hint(&self, spec: &CampaignSpec) -> Vec<usize> {
        if !self.started {
            return Vec::new();
        }
        let mut hint: Vec<usize> = Vec::new();
        if let Some((cur, _)) = self.current {
            hint.extend(spec.neighbors_of(cur));
        }
        if let Some(pending) = self.pending {
            hint.extend(spec.neighbors_of(pending));
        }
        hint.retain(|&j| !self.board.is_evaluated(j));
        hint.sort_unstable();
        hint.dedup();
        if hint.is_empty() {
            return self.board.first_unevaluated().into_iter().collect();
        }
        hint
    }
}

/// Multi-objective front expansion: evaluate the start frontier, then
/// each round expand the unevaluated single-axis neighbors of every
/// not-yet-expanded cell of the current **non-dominated front**,
/// restarting from the lowest-index unevaluated cell when the whole
/// front is expanded. Complete by the same argument as the scalar
/// strategies, so full budget ⇒ the front over every evaluated cell is
/// the brute-force non-dominated set of the campaign.
pub struct ParetoStrategy {
    objectives: MultiObjective,
    /// `None` = unevaluated; `Some(None)` = evaluated but failed.
    scores: Vec<Option<Option<MultiScore>>>,
    expanded: Vec<bool>,
    start_points: usize,
    started: bool,
    /// The most recent proposal (prefetch hints rank its neighborhood:
    /// cells the next round expands if the in-flight batch joins the
    /// front).
    last_batch: Vec<usize>,
}

impl ParetoStrategy {
    /// A front expander over `spec`'s grid.
    pub fn new(spec: &CampaignSpec, objectives: MultiObjective, start_points: usize) -> Self {
        let n = spec.scenario_count();
        Self {
            objectives,
            scores: vec![None; n],
            expanded: vec![false; n],
            start_points,
            started: false,
            last_batch: Vec::new(),
        }
    }

    /// Indices of the current non-dominated front (non-failed evaluated
    /// cells no other evaluated cell dominates), ascending — through
    /// the one shared filter, [`MultiObjective::dominated_flags`].
    fn front_indices(&self) -> Vec<usize> {
        let scored: Vec<(usize, &MultiScore)> = self
            .scores
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| match slot {
                Some(Some(score)) => Some((i, score)),
                _ => None,
            })
            .collect();
        let flags = self
            .objectives
            .dominated_flags(&scored.iter().map(|(_, s)| *s).collect::<Vec<_>>());
        scored
            .iter()
            .zip(&flags)
            .filter(|(_, dominated)| !**dominated)
            .map(|((i, _), _)| *i)
            .collect()
    }
}

impl Strategy for ParetoStrategy {
    fn propose(&mut self, spec: &CampaignSpec) -> Vec<usize> {
        let n = spec.scenario_count();
        if !self.started {
            self.started = true;
            self.last_batch = start_frontier(n, self.start_points.clamp(1, n));
            return self.last_batch.clone();
        }
        loop {
            let unexpanded: Vec<usize> = self
                .front_indices()
                .into_iter()
                .filter(|&i| !self.expanded[i])
                .collect();
            if unexpanded.is_empty() {
                // the whole front is expanded: restart (or finish)
                self.last_batch = self
                    .scores
                    .iter()
                    .position(Option::is_none)
                    .into_iter()
                    .collect();
                return self.last_batch.clone();
            }
            let mut batch: Vec<usize> = Vec::new();
            for center in unexpanded {
                self.expanded[center] = true;
                batch.extend(
                    spec.neighbors_of(center)
                        .into_iter()
                        .filter(|&j| self.scores[j].is_none()),
                );
            }
            batch.sort_unstable();
            batch.dedup();
            if !batch.is_empty() {
                self.last_batch = batch.clone();
                return batch;
            }
            // every neighbor was already evaluated; the next iteration
            // either finds newly unexpanded front cells (none — we just
            // expanded them all) or restarts
        }
    }

    fn observe(&mut self, index: usize, result: &ScenarioResult) {
        debug_assert!(self.scores[index].is_none(), "cell evaluated twice");
        self.scores[index] = Some(self.objectives.score(result));
    }

    /// The front expander's likely next proposal: the unevaluated
    /// neighbors of the in-flight batch (the cells the next round
    /// expands when batch cells join the front), falling back to the
    /// restart cell.
    fn prefetch_hint(&self, spec: &CampaignSpec) -> Vec<usize> {
        let mut hint: Vec<usize> = self
            .last_batch
            .iter()
            .flat_map(|&c| spec.neighbors_of(c))
            .filter(|&j| self.scores[j].is_none())
            .collect();
        hint.sort_unstable();
        hint.dedup();
        if hint.is_empty() {
            return self
                .scores
                .iter()
                .position(Option::is_none)
                .into_iter()
                .collect();
        }
        hint
    }
}

// ---- the driver ------------------------------------------------------

/// What [`drive_strategy`] hands back: every evaluated cell (tagged
/// with its round) plus the run's work accounting.
pub struct Exploration {
    /// `(round, result)` for every evaluated cell, in evaluation order.
    pub evaluations: Vec<(usize, ScenarioResult)>,
    /// Batches executed.
    pub rounds: usize,
    /// Work done by this run (`total_cells` set to the grid size).
    pub stats: RunStats,
    /// Archive-write failures, as in [`crate::runner::CampaignRun`].
    pub archive_errors: Vec<String>,
}

/// Runs `strategy` over `spec`'s grid until the budget is spent or the
/// strategy stops proposing, executing each batch through
/// [`run_cells_with`] (archive resume/store, one run per distinct
/// configuration, panic isolation — everything the campaign runner
/// guarantees). One [`BaselineCache`] spans the batches, so a batch
/// never reruns a configuration an earlier batch ran: a cell whose
/// tuning sibling was evaluated costs no simulation, only budget.
///
/// With `prefetch` set (and an archive to land results in), each round
/// also executes the strategy's [`Strategy::prefetch_hint`] cells —
/// capped to the executor capacity the batch leaves idle and to the
/// budget the search can still spend — *in the same runner call as the
/// batch*, so speculation rides the pool's free threads. Speculative
/// results are stored in the archive and otherwise discarded: the
/// strategy never observes them, the budget never pays for them (their
/// work lands in the `speculative_*` [`RunStats`] fields), and a later
/// round proposing a prefetched cell is served a free archive hit. The
/// exploration — and therefore every report — is byte-identical with
/// prefetch on or off.
///
/// # Errors
///
/// Returns a description when the spec is invalid or the budget is
/// zero. Scenario panics are not errors; failed cells are handed to the
/// strategy like any other result.
pub fn drive_strategy(
    spec: &CampaignSpec,
    strategy: &mut dyn Strategy,
    budget: usize,
    config: &RunnerConfig,
    archive: Option<&CampaignArchive>,
    prefetch: bool,
) -> Result<Exploration, String> {
    spec.validate()?;
    if budget == 0 {
        return Err("search budget must be positive".into());
    }
    let n = spec.scenario_count();
    let budget = budget.min(n);

    let mut evaluated = vec![false; n];
    let mut evaluations: Vec<(usize, ScenarioResult)> = Vec::new();
    let mut stats = RunStats::default();
    let mut archive_errors = Vec::new();
    let mut cache = BaselineCache::new();
    let mut rounds = 0;

    while evaluations.len() < budget {
        let mut batch = strategy.propose(spec);
        debug_assert!(
            batch.iter().all(|&i| !evaluated[i]),
            "strategies must propose unevaluated cells"
        );
        batch.retain(|&i| !evaluated[i]);
        if batch.is_empty() {
            break;
        }
        batch.truncate(budget - evaluations.len());

        // speculative prefetch: fill the executor slots this batch
        // leaves idle with the strategy's best guesses at the *next*
        // proposal, but never beyond what the remaining budget could
        // still ask for
        let mut speculative: Vec<usize> = Vec::new();
        if prefetch && archive.is_some() {
            let idle = config.effective_threads().saturating_sub(batch.len());
            let lookahead = budget - evaluations.len() - batch.len();
            let cap = idle.min(lookahead);
            if cap > 0 {
                speculative = strategy.prefetch_hint(spec);
                let mut picked = vec![false; n];
                speculative.retain(|&i| {
                    !evaluated[i] && !batch.contains(&i) && !std::mem::replace(&mut picked[i], true)
                });
                speculative.truncate(cap);
            }
        }

        let mut indices = batch.clone();
        indices.extend(speculative.iter().copied());
        let cells: Vec<ScenarioSpec> = indices.iter().map(|&i| spec.cell_at(i)).collect();
        let speculative_config;
        let run_config = if speculative.is_empty() {
            config
        } else {
            speculative_config = config.clone().with_speculative(speculative.clone());
            &speculative_config
        };
        let run = run_cells_with(spec, &cells, run_config, archive, Some(&mut cache))?;
        stats.absorb(&run.stats);
        archive_errors.extend(run.archive_errors);
        for result in run.result.results.into_iter().take(batch.len()) {
            // results come back in `cells` order: the batch first, then
            // the speculative tail (archived only, never observed)
            let index = result.scenario.index;
            evaluated[index] = true;
            strategy.observe(index, &result);
            evaluations.push((rounds, result));
        }
        rounds += 1;
    }

    stats.total_cells = n;
    Ok(Exploration {
        evaluations,
        rounds,
        stats,
        archive_errors,
    })
}

// ---- report assembly -------------------------------------------------

/// Replays an exploration under a scalar objective into the
/// trajectory/best shape of a [`SearchReport`].
fn assemble_scalar(
    spec: &CampaignSpec,
    search: &SearchSpec,
    exploration: Exploration,
) -> SearchOutcome {
    let objective = &search.objective;
    let mut best: Option<SearchBest> = None;
    let mut best_score: Option<(usize, CellScore)> = None;
    let mut trajectory = Vec::with_capacity(exploration.evaluations.len());
    for (round, result) in &exploration.evaluations {
        let index = result.scenario.index;
        let score = objective.score(result);
        let improved = match (score, best_score) {
            (None, _) => false,
            (Some(_), None) => true,
            (Some(s), Some((bi, bs))) => objective.wins(s, index, bs, bi),
        };
        if improved {
            let score = score.expect("winning cells are scored");
            best_score = Some((index, score));
            best = Some(SearchBest {
                index,
                label: result.scenario.label(),
                value: score.value,
                feasible: score.feasible,
                metrics: result.metrics.clone().expect("winning cells have metrics"),
            });
        }
        trajectory.push(Evaluation {
            round: *round,
            index,
            label: result.scenario.label(),
            value: score.map(|s| s.value),
            feasible: score.is_some_and(|s| s.feasible),
            improved,
        });
    }
    SearchOutcome {
        report: SearchReport {
            name: spec.name.clone(),
            strategy: search.strategy.label().to_string(),
            objective: objective.describe(),
            grid_cells: spec.scenario_count(),
            budget: search.budget,
            evaluated: trajectory.len(),
            rounds: exploration.rounds,
            best,
            trajectory,
            fidelity: search.fidelity.label().to_string(),
            screened: 0,
        },
        stats: exploration.stats,
        archive_errors: exploration.archive_errors,
    }
}

/// Builds the scalar strategy a [`SearchSpec`] asks for, with the start
/// frontier clamped to `budget` *before* the strategy spreads it, so a
/// small budget still gets evenly-spaced start cells.
fn build_scalar_strategy(
    spec: &CampaignSpec,
    search: &SearchSpec,
    budget: usize,
) -> Result<Box<dyn Strategy>, String> {
    let start_points = search.start_points.clamp(1, budget.max(1));
    Ok(match search.strategy {
        StrategyKind::Climb => Box::new(ClimbStrategy::new(spec, search.objective, start_points)),
        StrategyKind::Anneal => {
            search.anneal.validate()?;
            Box::new(AnnealStrategy::new(
                spec,
                search.objective,
                start_points,
                &search.anneal,
            ))
        }
        StrategyKind::Pareto => {
            return Err(
                "strategy 'pareto' optimizes multiple objectives and returns a \
                 front, not a single winner; use pareto_campaign (CLI: \
                 --strategy pareto with comma-separated --objective values)"
                    .into(),
            )
        }
    })
}

/// Runs a scalar (climb or anneal) search over `spec`'s grid.
///
/// With an archive, evaluated cells are read from (and written back to)
/// the campaign directory exactly like a resumed campaign — re-running a
/// search against a populated directory performs **zero** simulations
/// and returns the byte-identical report. This holds at every
/// [`SearchFidelity`]: records are fidelity-tagged, so a multi search
/// resumes its coarse screen and its fine promotions independently and
/// the re-run report is byte-identical with zero *fine* simulations.
///
/// # Errors
///
/// Returns a description when the spec is invalid, the budget is zero,
/// the annealing schedule is out of range, or the strategy is
/// [`StrategyKind::Pareto`] (fronts come from [`pareto_campaign`]).
/// Scenario panics are not errors; failed cells simply score as failed.
pub fn search_campaign(
    spec: &CampaignSpec,
    search: &SearchSpec,
    config: &RunnerConfig,
    archive: Option<&CampaignArchive>,
) -> Result<SearchOutcome, String> {
    match search.fidelity {
        // single-fidelity searches are the original exploration loop,
        // with every batch pinned to the requested fidelity
        SearchFidelity::Fine | SearchFidelity::Coarse => {
            let fidelity = match search.fidelity {
                SearchFidelity::Coarse => Fidelity::Coarse,
                _ => Fidelity::Fine,
            };
            let config = config.clone().with_fidelity(fidelity);
            let mut strategy = build_scalar_strategy(spec, search, search.budget)?;
            let exploration = drive_strategy(
                spec,
                &mut *strategy,
                search.budget,
                &config,
                archive,
                search.prefetch,
            )?;
            Ok(assemble_scalar(spec, search, exploration))
        }
        SearchFidelity::Multi => multi_fidelity_campaign(spec, search, config, archive),
    }
}

/// The multi-fidelity path: screen with the configured strategy at
/// coarse fidelity (budgeted at `budget * COARSE_FACTOR` coarse
/// evaluations — the same fine-equivalent spend an exhaustive coarse
/// sweep of that budget would cost), rank every screened cell with the
/// one shared argmax comparator ([`Objective::wins`]), then promote the
/// top candidates — whatever fine-equivalent budget the screen left,
/// and always at least one — to a single full-kernel batch. The report
/// is assembled from the fine evaluations **only**: coarse numbers
/// steer the exploration but never appear in a report.
fn multi_fidelity_campaign(
    spec: &CampaignSpec,
    search: &SearchSpec,
    config: &RunnerConfig,
    archive: Option<&CampaignArchive>,
) -> Result<SearchOutcome, String> {
    spec.validate()?;
    if search.budget == 0 {
        return Err("search budget must be positive".into());
    }
    let n = spec.scenario_count();
    let budget = search.budget.min(n);

    // phase 1: the coarse screen (the strategy explores exactly as it
    // would at fine fidelity, just wider and cheaper)
    let coarse_budget = n.min(budget.saturating_mul(COARSE_FACTOR));
    let mut strategy = build_scalar_strategy(spec, search, coarse_budget)?;
    let coarse_config = config.clone().with_fidelity(Fidelity::Coarse);
    let screen = drive_strategy(
        spec,
        &mut *strategy,
        coarse_budget,
        &coarse_config,
        archive,
        search.prefetch,
    )?;
    let mut stats = screen.stats;
    let mut archive_errors = screen.archive_errors;
    let screened = screen.evaluations.len();

    // rank the screened cells best first; failed cells sort last, by
    // index (they are only promoted when nothing else is left to spend
    // the budget on)
    let objective = &search.objective;
    let mut ranked: Vec<(usize, Option<Ranked>)> = screen
        .evaluations
        .iter()
        .map(|(_, r)| {
            let index = r.scenario.index;
            let rank = objective.score(r).map(|s| Ranked::new(objective, s, index));
            (index, rank)
        })
        .collect();
    ranked.sort_unstable_by_key(|&(index, rank)| (Reverse(rank), index));

    // phase 2: promote into the fine-equivalent budget the screen left
    // (each coarse evaluation cost 1/COARSE_FACTOR of a fine run)
    let screen_cost = screened.div_ceil(COARSE_FACTOR);
    let promote = budget
        .saturating_sub(screen_cost)
        .clamp(1, ranked.len().max(1));
    let mut chosen: Vec<usize> = ranked.iter().take(promote).map(|(i, _)| *i).collect();
    chosen.sort_unstable();
    let cells: Vec<ScenarioSpec> = chosen.iter().map(|&i| spec.cell_at(i)).collect();
    let fine_config = config.clone().with_fidelity(Fidelity::Fine);
    let run = run_cells_with(spec, &cells, &fine_config, archive, None)?;
    stats.absorb(&run.stats);
    archive_errors.extend(run.archive_errors);
    stats.total_cells = n;

    // the report replays the fine batch only (one extra round after the
    // screen's); everything coarse is reduced to the `screened` count
    let promote_round = screen.rounds;
    let evaluations: Vec<(usize, ScenarioResult)> = run
        .result
        .results
        .into_iter()
        .map(|r| (promote_round, r))
        .collect();
    let fine_exploration = Exploration {
        evaluations,
        rounds: promote_round + 1,
        stats,
        archive_errors,
    };
    let mut outcome = assemble_scalar(spec, search, fine_exploration);
    outcome.report.screened = screened;
    Ok(outcome)
}

/// Runs a multi-objective Pareto search over `spec`'s grid, sharing the
/// archive machinery (and therefore all determinism guarantees) with
/// [`search_campaign`].
///
/// # Errors
///
/// Returns a description when the spec is invalid or the budget is
/// zero. Scenario panics are not errors; failed cells never join the
/// front.
pub fn pareto_campaign(
    spec: &CampaignSpec,
    pareto: &ParetoSpec,
    config: &RunnerConfig,
    archive: Option<&CampaignArchive>,
) -> Result<ParetoOutcome, String> {
    let start_points = pareto.start_points.clamp(1, pareto.budget.max(1));
    let mut strategy = ParetoStrategy::new(spec, pareto.objectives.clone(), start_points);
    let exploration = drive_strategy(
        spec,
        &mut strategy,
        pareto.budget,
        config,
        archive,
        pareto.prefetch,
    )?;

    // replay the evaluation sequence to reconstruct the round-by-round
    // dominated-count trajectory (scores only; one dominance pass per
    // round keeps this O(rounds * evaluated^2), fine at search scales)
    let objectives = &pareto.objectives;
    let mut seen: Vec<(usize, &ScenarioResult, Option<MultiScore>)> = Vec::new();
    let mut trajectory: Vec<ParetoRound> = Vec::new();
    let mut at = 0;
    for round in 0..exploration.rounds {
        while at < exploration.evaluations.len() && exploration.evaluations[at].0 == round {
            let result = &exploration.evaluations[at].1;
            seen.push((result.scenario.index, result, objectives.score(result)));
            at += 1;
        }
        let scored: Vec<&MultiScore> = seen.iter().filter_map(|(_, _, s)| s.as_ref()).collect();
        let front = objectives
            .dominated_flags(&scored)
            .iter()
            .filter(|dominated| !**dominated)
            .count();
        trajectory.push(ParetoRound {
            round,
            evaluated: seen.len(),
            front,
            dominated: scored.len() - front,
        });
    }

    // the final front, through the same shared filter the trajectory
    // (and the brute-force reference) use
    let scored: Vec<(usize, &ScenarioResult, &MultiScore)> = seen
        .iter()
        .filter_map(|(i, r, s)| s.as_ref().map(|s| (*i, *r, s)))
        .collect();
    let flags = objectives.dominated_flags(&scored.iter().map(|(_, _, s)| *s).collect::<Vec<_>>());
    let mut front: Vec<ParetoPoint> = scored
        .iter()
        .zip(&flags)
        .filter(|(_, dominated)| !**dominated)
        .map(|((index, result, score), _)| ParetoPoint {
            index: *index,
            label: result.scenario.label(),
            values: score.values.clone(),
            feasible: score.feasible,
            metrics: result.metrics.clone().expect("scored cells have metrics"),
        })
        .collect();
    front.sort_by_key(|p| p.index);

    Ok(ParetoOutcome {
        report: ParetoReport {
            name: spec.name.clone(),
            strategy: StrategyKind::Pareto.label().to_string(),
            objectives: objectives.describe(),
            objective_labels: objectives
                .objectives
                .iter()
                .map(|o| o.metric.label().to_string())
                .collect(),
            grid_cells: spec.scenario_count(),
            budget: pareto.budget,
            evaluated: exploration.evaluations.len(),
            rounds: exploration.rounds,
            front,
            trajectory,
        },
        stats: exploration.stats,
        archive_errors: exploration.archive_errors,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::Metric;
    use crate::objective::Constraint;
    use crate::spec::{BatteryAxis, ControllerAxis, ThermalAxis, TuningAxis, WorkloadAxis};

    fn tiny_spec() -> CampaignSpec {
        CampaignSpec {
            name: "search_tiny".into(),
            horizon_ms: 5,
            master_seed: 13,
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

    fn multi() -> MultiObjective {
        MultiObjective::parse("energy_saving,min:delay").unwrap()
    }

    /// A 36-cell grid over four axes, for the climber's frontier tests
    /// (its cells are never simulated).
    fn climb_grid() -> CampaignSpec {
        CampaignSpec {
            controllers: vec![
                ControllerAxis::Dpm,
                ControllerAxis::AlwaysOn,
                ControllerAxis::Oracle,
            ],
            tunings: vec![TuningAxis::Paper, TuningAxis::Eager],
            workloads: vec![WorkloadAxis::Low, WorkloadAxis::High],
            seeds: vec![1, 2, 3],
            ..tiny_spec()
        }
    }

    /// Objective values with ties, both zeros and a NaN.
    const VALUES: [f64; 6] = [-1.0, -0.0, 0.0, 0.5, 2.0, f64::NAN];

    /// The linear scan the climber's frontier heap replaced, kept as its
    /// reference: the best evaluated, not-yet-expanded, non-failed cell
    /// (ties to the lowest index).
    fn scan_best_unexpanded(board: &Scoreboard, expanded: &[bool]) -> Option<usize> {
        let mut best: Option<(usize, CellScore)> = None;
        for (i, slot) in board.scores.iter().enumerate() {
            if expanded[i] {
                continue;
            }
            let Some(Some(score)) = slot else { continue };
            let wins = match best {
                None => true,
                Some((_, bs)) => board.objective.better(*score, bs),
            };
            if wins {
                best = Some((i, *score));
            }
        }
        best.map(|(i, _)| i)
    }

    /// The climber as it was before the frontier heap: every expansion
    /// rescans the grid.
    struct ScanClimb {
        board: Scoreboard,
        expanded: Vec<bool>,
        start_points: usize,
        started: bool,
    }

    impl Strategy for ScanClimb {
        fn propose(&mut self, spec: &CampaignSpec) -> Vec<usize> {
            let n = spec.scenario_count();
            if !self.started {
                self.started = true;
                return start_frontier(n, self.start_points.clamp(1, n));
            }
            while let Some(center) = scan_best_unexpanded(&self.board, &self.expanded) {
                self.expanded[center] = true;
                let fresh = self.board.fresh_neighbors(spec, center);
                if !fresh.is_empty() {
                    return fresh;
                }
            }
            self.board.first_unevaluated().into_iter().collect()
        }

        fn observe(&mut self, index: usize, result: &ScenarioResult) {
            let score = self.board.objective.score(result);
            self.board.record(index, score);
        }

        fn prefetch_hint(&self, spec: &CampaignSpec) -> Vec<usize> {
            if !self.started {
                return Vec::new();
            }
            match scan_best_unexpanded(&self.board, &self.expanded) {
                Some(center) => self.board.fresh_neighbors(spec, center),
                None => self.board.first_unevaluated().into_iter().collect(),
            }
        }
    }

    fn objective_for(direction: Direction) -> Objective {
        Objective {
            metric: Metric::EnergySavingPct,
            direction,
            constraint: Some(Constraint::parse("delay_overhead_pct<=1").unwrap()),
        }
    }

    #[test]
    fn frontier_heap_picks_what_the_scan_picks() {
        let spec = climb_grid();
        let n = spec.scenario_count();
        for seed in 0..400 {
            let mut rng = SplitMix64(seed);
            let direction = [Direction::Maximize, Direction::Minimize][rng.below(2)];
            let mut climb = ClimbStrategy::new(&spec, objective_for(direction), 1);
            let mut expanded = vec![false; n];
            let mut unevaluated: Vec<usize> = (0..n).collect();
            while !unevaluated.is_empty() || !climb.frontier.is_empty() {
                if climb.frontier.is_empty() || (!unevaluated.is_empty() && rng.below(3) > 0) {
                    let index = unevaluated.swap_remove(rng.below(unevaluated.len()));
                    let score = (rng.below(8) > 0).then(|| CellScore {
                        value: VALUES[rng.below(VALUES.len())],
                        feasible: rng.below(3) > 0,
                    });
                    climb.record(index, score);
                } else {
                    let center = climb.frontier.pop().expect("non-empty frontier");
                    expanded[center.index] = true;
                }
                assert_eq!(
                    climb.frontier.peek().map(|r| r.index),
                    scan_best_unexpanded(&climb.board, &expanded),
                    "seed {seed}"
                );
            }
        }
    }

    #[test]
    fn heap_climber_proposes_the_scan_climbers_batches() {
        let spec = climb_grid();
        let n = spec.scenario_count();
        for seed in 0..200 {
            let mut rng = SplitMix64(seed);
            let results: Vec<ScenarioResult> = (0..n)
                .map(|i| ScenarioResult {
                    scenario: spec.cell_at(i),
                    metrics: (rng.below(10) > 0).then(|| ScenarioMetrics {
                        completed: 1,
                        total_tasks: 1,
                        deferred: 0,
                        energy_j: 1.0,
                        baseline_energy_j: 1.0,
                        energy_saving_pct: VALUES[rng.below(VALUES.len())],
                        temp_reduction_pct: 0.0,
                        delay_overhead_pct: rng.below(3) as f64,
                        mean_latency_us: 0.0,
                        max_temp_c: 30.0,
                        final_soc: 0.9,
                        low_power_frac: 0.0,
                    }),
                    error: None,
                })
                .collect();
            let direction = [Direction::Maximize, Direction::Minimize][rng.below(2)];
            let objective = objective_for(direction);
            let start_points = 1 + rng.below(4);
            let budget = 1 + rng.below(n);
            let mut heap = ClimbStrategy::new(&spec, objective, start_points);
            let mut scan = ScanClimb {
                board: Scoreboard::new(objective, n),
                expanded: vec![false; n],
                start_points,
                started: false,
            };
            // the driver's loop: batches truncated to the budget left
            let mut evaluated = 0;
            while evaluated < budget {
                let batch = heap.propose(&spec);
                assert_eq!(batch, scan.propose(&spec), "seed {seed} at {evaluated}");
                assert_eq!(heap.prefetch_hint(&spec), scan.prefetch_hint(&spec));
                if batch.is_empty() {
                    break;
                }
                for &i in batch.iter().take(budget - evaluated) {
                    heap.observe(i, &results[i]);
                    scan.observe(i, &results[i]);
                    evaluated += 1;
                }
            }
        }
    }

    #[test]
    fn start_frontier_is_spread_and_strictly_increasing() {
        assert_eq!(start_frontier(8, 4), vec![0, 2, 4, 6]);
        assert_eq!(start_frontier(5, 1), vec![0]);
        let f = start_frontier(7, 3);
        assert!(f.windows(2).all(|w| w[0] < w[1]));
        assert!(f.iter().all(|&i| i < 7));
    }

    #[test]
    fn strategy_kinds_parse_and_label() {
        for kind in StrategyKind::ALL {
            assert_eq!(StrategyKind::parse(kind.label()).unwrap(), kind);
        }
        assert!(StrategyKind::parse("warp")
            .unwrap_err()
            .contains("unknown strategy"));
    }

    #[test]
    fn anneal_schedule_validates_its_ranges() {
        AnnealSchedule::default().validate().unwrap();
        for (temp, cooling) in [(0.0, 0.9), (-1.0, 0.9), (f64::NAN, 0.9)] {
            let schedule = AnnealSchedule {
                initial_temp: temp,
                cooling,
                seed: 1,
            };
            assert!(schedule.validate().unwrap_err().contains("initial_temp"));
        }
        for cooling in [0.0, 1.0, 1.5, -0.1] {
            let schedule = AnnealSchedule {
                cooling,
                ..AnnealSchedule::default()
            };
            assert!(schedule.validate().unwrap_err().contains("cooling"));
        }
    }

    #[test]
    fn zero_budget_is_an_error() {
        let search = SearchSpec::new(Objective::for_metric(Metric::EnergySavingPct), 0);
        let err =
            search_campaign(&tiny_spec(), &search, &RunnerConfig::serial(), None).unwrap_err();
        assert!(err.contains("budget"), "{err}");
        let err = pareto_campaign(
            &tiny_spec(),
            &ParetoSpec::new(multi(), 0),
            &RunnerConfig::serial(),
            None,
        )
        .unwrap_err();
        assert!(err.contains("budget"), "{err}");
    }

    #[test]
    fn pareto_kind_is_rejected_by_the_scalar_entry_point() {
        let search = SearchSpec::new(Objective::for_metric(Metric::EnergySavingPct), 2)
            .with_strategy(StrategyKind::Pareto);
        let err =
            search_campaign(&tiny_spec(), &search, &RunnerConfig::serial(), None).unwrap_err();
        assert!(err.contains("pareto_campaign"), "{err}");
    }

    #[test]
    fn budget_one_evaluates_exactly_one_cell() {
        let search = SearchSpec::new(Objective::for_metric(Metric::EnergySavingPct), 1);
        let out = search_campaign(&tiny_spec(), &search, &RunnerConfig::serial(), None).unwrap();
        assert_eq!(out.report.evaluated, 1);
        assert_eq!(out.report.trajectory.len(), 1);
        assert_eq!(out.report.best.as_ref().unwrap().index, 0);
        assert_eq!(out.report.strategy, "climb");
        assert!(out.stats.simulations >= 1);
    }

    #[test]
    fn budget_is_never_exceeded_and_oversized_budget_sweeps_the_grid() {
        let spec = tiny_spec();
        for strategy in [StrategyKind::Climb, StrategyKind::Anneal] {
            for budget in [2, 3, 100] {
                let search =
                    SearchSpec::new(Objective::for_metric(Metric::EnergySavingPct), budget)
                        .with_strategy(strategy);
                let out = search_campaign(&spec, &search, &RunnerConfig::serial(), None).unwrap();
                assert!(out.report.evaluated <= budget.min(spec.scenario_count()));
                if budget >= spec.scenario_count() {
                    assert_eq!(out.report.evaluated, spec.scenario_count());
                }
                // every evaluation is a distinct cell
                let mut seen: Vec<usize> = out.report.trajectory.iter().map(|e| e.index).collect();
                seen.sort_unstable();
                seen.dedup();
                assert_eq!(seen.len(), out.report.evaluated);
            }
        }
    }

    #[test]
    fn pareto_budget_respected_and_front_is_non_dominated() {
        let spec = tiny_spec();
        for budget in [1, 3, 100] {
            let out = pareto_campaign(
                &spec,
                &ParetoSpec::new(multi(), budget),
                &RunnerConfig::serial(),
                None,
            )
            .unwrap();
            assert!(out.report.evaluated <= budget.min(spec.scenario_count()));
            if budget >= spec.scenario_count() {
                assert_eq!(out.report.evaluated, spec.scenario_count());
            }
            assert!(!out.report.front.is_empty());
            assert!(out.report.front.windows(2).all(|w| w[0].index < w[1].index));
            // the trajectory's last round accounts for every evaluation
            let last = out.report.trajectory.last().unwrap();
            assert_eq!(last.evaluated, out.report.evaluated);
            assert_eq!(last.front, out.report.front.len());
        }
    }

    #[test]
    fn anneal_is_seed_deterministic_and_seed_sensitive() {
        let spec = tiny_spec();
        let base = SearchSpec::new(Objective::for_metric(Metric::EnergySavingPct), 3)
            .with_strategy(StrategyKind::Anneal);
        let a = search_campaign(&spec, &base, &RunnerConfig::serial(), None).unwrap();
        let b = search_campaign(&spec, &base, &RunnerConfig::serial(), None).unwrap();
        assert_eq!(a.report, b.report, "same seed, same walk");
    }
}
