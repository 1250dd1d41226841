//! Kernel bookkeeping: activity counters and run outcomes.

use core::fmt;
use dpm_units::SimTime;

/// Counters accumulated while the scheduler runs.
///
/// The `simspeed` bench divides a simulated clock-cycle count by
/// [`KernelStats::wall`] to reproduce the paper's Kcycle/s figures.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KernelStats {
    /// Events that actually fired (timed + delta).
    pub events_fired: u64,
    /// Timed notifications scheduled on the event queue.
    pub timed_notifications: u64,
    /// Delta notifications scheduled.
    pub delta_notifications: u64,
    /// Total process `react` invocations.
    pub process_activations: u64,
    /// Delta cycles executed (evaluate/update rounds).
    pub delta_cycles: u64,
    /// Distinct simulation time points visited.
    pub timesteps: u64,
    /// Signal writes committed in update phases. A write of the current
    /// value while no write is pending never reaches one.
    pub signal_updates: u64,
    /// Committed writes that changed the signal value.
    pub signal_changes: u64,
    /// Wall-clock time spent inside `run*` calls.
    pub wall: std::time::Duration,
}

impl KernelStats {
    /// Process activations per wall-clock second, or `None` before any run.
    pub fn activations_per_sec(&self) -> Option<f64> {
        let secs = self.wall.as_secs_f64();
        (secs > 0.0).then(|| self.process_activations as f64 / secs)
    }

    /// Converts an externally counted number of simulated clock cycles into
    /// the paper's Kcycle-per-wall-second metric.
    pub fn kcycles_per_sec(&self, simulated_cycles: u64) -> Option<f64> {
        let secs = self.wall.as_secs_f64();
        (secs > 0.0).then(|| simulated_cycles as f64 / secs / 1e3)
    }
}

impl fmt::Display for KernelStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} activations, {} deltas, {} timesteps, {} events, {} signal changes in {:?}",
            self.process_activations,
            self.delta_cycles,
            self.timesteps,
            self.events_fired,
            self.signal_changes,
            self.wall
        )
    }
}

/// Why a `run*` call returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StopReason {
    /// The requested time horizon was reached; more events may be pending.
    HorizonReached,
    /// The event queue drained: nothing will ever happen again.
    Starved,
    /// A process called [`Ctx::stop`](crate::Ctx::stop).
    Stopped,
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StopReason::HorizonReached => "horizon reached",
            StopReason::Starved => "event queue starved",
            StopReason::Stopped => "stopped by process",
        };
        f.write_str(s)
    }
}

/// Result of a `run*` call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunOutcome {
    /// Why the scheduler returned.
    pub reason: StopReason,
    /// Simulation time when it returned.
    pub now: SimTime,
}

impl fmt::Display for RunOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at {}", self.reason, self.now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_helpers() {
        let mut s = KernelStats::default();
        assert_eq!(s.activations_per_sec(), None);
        s.process_activations = 1000;
        s.wall = std::time::Duration::from_millis(100);
        assert!((s.activations_per_sec().unwrap() - 10_000.0).abs() < 1e-6);
        assert!((s.kcycles_per_sec(35_000).unwrap() - 350.0).abs() < 1e-6);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!KernelStats::default().to_string().is_empty());
        let o = RunOutcome {
            reason: StopReason::Starved,
            now: SimTime::from_micros(5),
        };
        assert_eq!(o.to_string(), "event queue starved at 5 us");
    }
}
