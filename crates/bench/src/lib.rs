//! Shared helpers for the benchmark suite.
//!
//! The actual benchmarks live in `benches/`:
//!
//! | bench | regenerates |
//! |-------|-------------|
//! | `table2` | the paper's Table 2 (scenarios A1–A4, B, C vs baseline) |
//! | `simspeed` | the paper's simulation-speed figures (35 / 7.5 Kcycle/s) |
//! | `policy_lookup` | Table 1 selection cost (crisp, fallback, DSL) |
//! | `predictors` | idle-predictor update/prediction cost |
//! | `models` | battery / thermal / break-even step costs |
//! | `kernel_micro` | kernel primitives and the event-driven vs cycle-accurate ablation |

use dpm_kernel::Simulation;
use dpm_soc::{build_soc, SocConfig, SocHandles};
use dpm_units::SimTime;
use dpm_workload::{ActivityLevel, BurstyGenerator, PriorityWeights, TaskTrace, TraceGenerator};

/// Standard bench horizon: long enough to exercise sleeping, short enough
/// for tight criterion iterations.
pub const BENCH_HORIZON: SimTime = SimTime::from_millis(20);

/// A deterministic bursty trace for benches.
pub fn bench_trace(level: ActivityLevel, seed: u64) -> TaskTrace {
    BurstyGenerator::for_activity(level, PriorityWeights::typical_user())
        .generate(BENCH_HORIZON, seed)
}

/// Builds a SoC and runs it to the bench horizon; returns the simulation
/// for inspection.
pub fn run_soc(cfg: &SocConfig) -> (Simulation, SocHandles) {
    let mut sim = Simulation::new();
    let handles = build_soc(&mut sim, cfg);
    sim.run_until(BENCH_HORIZON);
    (sim, handles)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_produce_runnable_configs() {
        let cfg = SocConfig::single_ip(bench_trace(ActivityLevel::Low, 1));
        let (sim, handles) = run_soc(&cfg);
        assert!(sim.peek(handles.ips[0].done_count) > 0);
    }
}
