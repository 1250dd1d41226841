//! SoC assembly for the DATE'05 DPM architecture (paper Fig. 1).
//!
//! This crate wires the `dpm-core` managers to traffic-generating IP
//! blocks and the battery/thermal monitors, then runs the paper's
//! experiments. Fig. 1's shared service-request bus is not simulated: no
//! DPM decision and no metric reads it.
//!
//! * [`IpBlock`] — the functional IP: replays a [`dpm_workload::TaskTrace`],
//!   sends a task request to its LEM before each task, executes grants at
//!   the PSM-published speed (pausing through sleep states and
//!   transitions) and publishes its instantaneous power draw.
//! * [`SocConfig`] / [`build_soc`] — declarative SoC construction: any
//!   number of IPs, LEM/baseline controller choice, battery model and
//!   starting charge, thermal scenario, optional GEM, optional
//!   cycle-accurate clock.
//! * [`SocMetrics`] — per-IP and SoC-level results (energy by state, task
//!   latency, temperature elevation, residency).
//! * [`run_config_coarse`] — the dwell-time fast path: the same metrics
//!   computed analytically from the characterized models, without
//!   elaborating the kernel (the campaign layer's *coarse* fidelity).
//!   A [`CoarsePlan`] holds what it reads of the IPs alone, so many
//!   configurations of one set of IPs share it.
//! * [`experiment`] — the paper's scenarios A1–A4, B, C and the Table 2
//!   metric computation against the always-max-frequency baseline.
//! * [`report`] — ASCII/Markdown/JSON renderers for the regenerated
//!   tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod build;
mod coarse;
mod config;
pub mod experiment;
mod ip;
mod metrics;
pub mod report;
mod util;

pub use build::{build_soc, build_soc_on, SocHandles};
pub use coarse::{run_config_coarse, CoarsePlan};
pub use config::{BatteryKind, ControllerKind, IpConfig, LemTuning, SocConfig, ThermalScenario};
pub use ip::{IpBlock, IpPorts, TaskRecord};
pub use metrics::{collect_metrics, IpMetrics, SocMetrics};
pub use util::Adder;
