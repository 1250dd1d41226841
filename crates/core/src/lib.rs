//! The DATE'05 dynamic power management architecture (Conti, DATE 2005).
//!
//! This crate is the paper's primary contribution, re-implemented on the
//! [`dpm_kernel`] discrete-event kernel:
//!
//! * [`Psm`] — the Power State Machine: ACPI-style state holder that
//!   sequences commanded transitions with their latency/energy cost and
//!   publishes the actual state to the functional IP.
//! * [`Lem`] — the Local Energy Manager: per-task execution-state
//!   selection through the paper's Table 1 rule set (over task priority,
//!   battery status, chip temperature and power source), end-of-task
//!   battery/temperature estimation, idle-time prediction and
//!   break-even-based sleep state selection.
//! * [`Gem`] — the Global Energy Manager: static IP priorities, the
//!   paper's conditional-enable algorithm, energy-request redistribution
//!   and the supplementary fan.
//! * [`policy`] — the rule engine: Table 1 as data, wildcard matching with
//!   first-match semantics, completeness/shadowing analysis, and a parser
//!   for the paper's natural-language rule form.
//! * [`predictor`] — pluggable idle-time predictors (last-idle,
//!   exponential average, fixed, sliding-window) feeding the break-even
//!   comparison.
//! * [`baseline`] — reference controllers: the paper's
//!   always-max-frequency baseline (the denominator of every Table 2
//!   metric), a classic fixed-timeout policy and an oracle with perfect
//!   idle knowledge.
//!
//! The SoC assembly that wires these to traffic generators, battery and
//! thermal monitors lives in the `dpm-soc` crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod estimator;
pub mod gem;
pub mod lem;
pub mod msg;
pub mod policy;
pub mod predictor;
pub mod psm;

pub use baseline::{AlwaysOnController, OracleController, TimeoutController};
pub use estimator::EndOfTaskEstimator;
pub use gem::{Gem, GemConfig, GemLemPorts, GemStats};
pub use lem::{Lem, LemConfig, LemPorts, LemStats, LemTuning, SleepSelection};
pub use msg::{GemRequest, TaskGrant, TaskRequest};
pub use policy::{PolicyInputs, PolicyTable, Rule, RuleSet, Selection};
pub use predictor::{
    ExpAveragePredictor, FixedPredictor, IdlePredictor, LastIdlePredictor, PredictorKind,
    WindowPredictor,
};
pub use psm::{Psm, PsmPorts, PsmStats};
