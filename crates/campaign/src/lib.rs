//! # dpm-campaign — parallel scenario-campaign engine
//!
//! The paper's Table 2 is six hand-wired scenarios run once. This crate
//! turns that into **design-space exploration**: a declarative parameter
//! grid over controller kind × LEM tuning × workload shape/seed ×
//! battery model × thermal scenario × IP count, executed in parallel
//! across OS threads with deterministic per-scenario seeding, and
//! aggregated into campaign-level statistics.
//!
//! | layer | module | contents |
//! |-------|--------|----------|
//! | spec | [`spec`] | [`CampaignSpec`] grid, named axes, cartesian expansion |
//! | executor | [`executor`] | the in-process scoped-thread pool |
//! | runner | [`runner`] | work-unit dispatch, one run per distinct configuration, panic isolation |
//! | archive | [`archive`] | cell records, gc/compaction, the benchmark's claim/release pair |
//! | segments | `segment` | append-only segment files: checksummed frames + in-memory index |
//! | objective | [`objective`] | search objectives: metric, direction, constraints, Pareto dominance |
//! | search | [`search`] | pluggable budgeted strategies: climb, simulated annealing, Pareto fronts |
//! | aggregation | [`aggregate`] | streaming stats, percentiles, winners, roll-ups |
//! | report | [`report`] | ASCII / Markdown / JSON campaign + search reports |
//! | persistence | [`toml_spec`] | TOML spec loading (minimal in-crate parser) |
//! | store | [`store`] | campaign-directory root addressed by spec fingerprint; shared CLI/server queries |
//! | http | [`http`] | hand-rolled HTTP/1.1 core: parsing, chunked responses, bounded handler pool |
//! | server | [`server`] | the `dpm serve` daemon: submit/query/stream campaigns over HTTP/JSON |
//!
//! Determinism is the load-bearing property: scenario indices come from
//! the grid expansion (not execution order), per-scenario trace seeds
//! derive from `(master_seed, logical seed, ip index)`, and aggregation
//! folds results in index order — so the same spec produces
//! **byte-identical** reports on 1 thread or 64, equal to running every
//! cell and its baseline by itself, and when resumed from any mix of
//! archived and fresh cells.
//!
//! # Execution layers
//!
//! Execution is stacked, and each layer is oblivious to the ones above:
//!
//! 1. **Work units** ([`executor::ThreadPool`]): independent,
//!    index-addressed jobs, scheduled over scoped OS threads via a
//!    shared atomic counter, or run on the caller's thread when only one
//!    thread would.
//! 2. **Batches** ([`runner::run_cells_with`]): resume-from-archive,
//!    one run per distinct configuration, one trace set per trace key
//!    and panic isolation around a set of cells — the one execution
//!    path, always in one process.
//! 3. **Campaigns**, as batches: `campaign run` calls
//!    [`runner::run_campaign_with`] (one batch of the whole grid),
//!    [`search::drive_strategy`] one batch per round, and each `dpm
//!    serve` executor slot one batch per baseline group, checking for
//!    shutdown between groups ([`server`]).
//!
//! # Quickstart
//!
//! ```
//! use dpm_campaign::{run_campaign, summarize, CampaignSpec, RunnerConfig};
//!
//! let mut spec = CampaignSpec::default_sweep();
//! spec.horizon_ms = 5;            // keep the doctest quick
//! spec.ip_counts = vec![1];
//! let result = run_campaign(&spec, &RunnerConfig::default());
//! let summary = summarize(&result);
//! assert_eq!(summary.scenarios, spec.scenario_count());
//! assert_eq!(summary.failed, 0);
//! ```
//!
//! The `dpm` binary in this crate exposes the engine on the command
//! line: `dpm campaign run spec.toml`, `dpm campaign list`, `dpm table2`
//! and `dpm quickstart`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod archive;
pub mod executor;
pub mod http;
pub mod objective;
pub mod report;
pub mod runner;
pub mod search;
pub(crate) mod segment;
pub mod server;
pub mod spec;
pub mod store;
pub mod toml_spec;

pub use aggregate::{
    metric_stat_where, summarize, CampaignSummary, Metric, MetricSummary, StreamingStat,
};
pub use archive::{
    spec_fingerprint, ArchiveLoad, CampaignArchive, CellRecord, CellState, CompactReport, GcReport,
    LeaseConfig, LeaseRecord, WorkLease, ARCHIVE_VERSION, LEASE_VERSION,
};
pub use executor::{map_units, ThreadPool};
pub use objective::{
    parse_metric, CellScore, Constraint, ConstraintOp, Direction, MultiObjective, MultiScore,
    Objective,
};
pub use report::{
    campaign_ascii, campaign_json, campaign_markdown, pareto_ascii, pareto_json, pareto_markdown,
    run_stats_line, search_ascii, search_json, search_markdown,
};
pub use runner::{
    run_campaign, run_campaign_with, run_cells_with, run_scenario_cell, BaselineCache,
    CampaignResult, CampaignRun, Fidelity, RunStats, RunnerConfig, ScenarioMetrics, ScenarioResult,
};
pub use search::{
    drive_strategy, pareto_campaign, search_campaign, AnnealSchedule, AnnealStrategy,
    ClimbStrategy, Evaluation, Exploration, ParetoOutcome, ParetoPoint, ParetoReport, ParetoRound,
    ParetoSpec, ParetoStrategy, SearchBest, SearchFidelity, SearchOutcome, SearchReport,
    SearchSpec, Strategy, StrategyKind, COARSE_FACTOR, DEFAULT_START_POINTS,
};
pub use server::{spawn as spawn_server, RunningServer, ServeOptions};
pub use spec::{
    BatteryAxis, CampaignSpec, ControllerAxis, ScenarioSpec, ThermalAxis, TuningAxis, WorkloadAxis,
};
pub use store::{
    best_of, completed_run, front_of, grid_json, report_json, status_of, CampaignStatus,
    CampaignStore, Submission,
};
pub use toml_spec::{parse_campaign_toml, SearchDefaults};
