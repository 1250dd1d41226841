//! Traffic generators producing deterministic, seedable task traces.

use dpm_power::InstructionMix;
use dpm_units::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};

use crate::dist::Dist;
use crate::priority::Priority;
use crate::task::{TaskId, TaskSpec};
use crate::trace::TaskTrace;

/// Anything that can produce a [`TaskTrace`] up to a horizon.
pub trait TraceGenerator {
    /// Generates all tasks arriving strictly before `horizon`, using a
    /// deterministic stream derived from `seed`.
    fn generate(&self, horizon: SimTime, seed: u64) -> TaskTrace;
}

/// Categorical distribution over the four priorities.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PriorityWeights([f64; 4]);

impl PriorityWeights {
    /// Weights `[low, medium, high, very_high]`, normalized internally.
    ///
    /// # Panics
    ///
    /// Panics on negative weights or an all-zero vector.
    pub fn new(weights: [f64; 4]) -> Self {
        let sum: f64 = weights.iter().sum();
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0) && sum > 0.0,
            "priority weights must be non-negative with a positive sum"
        );
        Self(weights.map(|w| w / sum))
    }

    /// Every priority equally likely.
    pub fn uniform() -> Self {
        Self::new([1.0; 4])
    }

    /// Always the same priority.
    pub fn only(p: Priority) -> Self {
        let mut w = [0.0; 4];
        w[p.index()] = 1.0;
        Self(w)
    }

    /// The paper's "user defined" flavour: mostly medium with occasional
    /// high/very-high spikes.
    pub fn typical_user() -> Self {
        Self::new([0.2, 0.45, 0.25, 0.1])
    }

    /// Draws a priority.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Priority {
        let x: f64 = rng.random_range(0.0..1.0);
        let mut acc = 0.0;
        for p in Priority::ALL {
            acc += self.0[p.index()];
            if x < acc {
                return p;
            }
        }
        Priority::VeryHigh
    }

    /// The normalized weight of `p`.
    pub fn weight(&self, p: Priority) -> f64 {
        self.0[p.index()]
    }
}

/// Activity presets matching the paper's scenario descriptions.
///
/// The load each offers is Σ service time at the default CPU model's
/// `ON1` clock ÷ horizon, median over seeds at 200 ms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum ActivityLevel {
    /// *"often busy"* — long bursts, short idle gaps. Offers ~4.9× what
    /// one IP serves at `ON1`: an overload.
    High,
    /// *"often in idle state"* — short bursts, long idle gaps (~0.28
    /// load at `ON1`).
    Low,
}

impl ActivityLevel {
    /// Both presets, for axis enumeration in sweeps.
    pub const ALL: [ActivityLevel; 2] = [ActivityLevel::High, ActivityLevel::Low];
}

/// Busy/idle alternating generator (the paper's traffic model: *"Each IP
/// executes a sequence of tasks or remains in idle state"*).
///
/// A burst of `burst_len` tasks arrives with small `intra_gap_us` spacing;
/// bursts are separated by `idle_gap_us`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BurstyGenerator {
    /// Tasks per busy burst.
    pub burst_len: Dist,
    /// Instructions per task.
    pub task_instructions: Dist,
    /// Gap between tasks inside a burst (µs).
    pub intra_gap_us: Dist,
    /// Idle gap between bursts (µs).
    pub idle_gap_us: Dist,
    /// Instruction class blend of every task.
    pub mix: InstructionMix,
    /// Priority distribution.
    pub priorities: PriorityWeights,
}

impl BurstyGenerator {
    /// The preset for an [`ActivityLevel`], with the default task size
    /// (≈ 60 k instructions ≈ 0.4 ms at the default ON1 clock).
    pub fn for_activity(level: ActivityLevel, priorities: PriorityWeights) -> Self {
        let (burst_len, idle_gap_us) = match level {
            ActivityLevel::High => (
                Dist::Uniform { lo: 4.0, hi: 9.0 },
                Dist::Exponential { mean: 400.0 },
            ),
            ActivityLevel::Low => (
                Dist::Uniform { lo: 1.0, hi: 3.0 },
                Dist::Exponential { mean: 4_000.0 },
            ),
        };
        Self {
            burst_len,
            task_instructions: Dist::Normal {
                mean: 60_000.0,
                std_dev: 15_000.0,
            },
            intra_gap_us: Dist::Exponential { mean: 50.0 },
            idle_gap_us,
            mix: InstructionMix::default(),
            priorities,
        }
    }
}

fn gap(d: &Dist, rng: &mut StdRng) -> SimDuration {
    SimDuration::from_secs_f64(d.sample(rng).max(0.0) * 1e-6)
}

impl TraceGenerator for BurstyGenerator {
    fn generate(&self, horizon: SimTime, seed: u64) -> TaskTrace {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tasks = Vec::new();
        let mut t = SimTime::ZERO + gap(&self.intra_gap_us, &mut rng);
        let mut id = 0u64;
        while t < horizon {
            let burst = self.burst_len.sample(&mut rng).round().max(1.0) as u64;
            for _ in 0..burst {
                if t >= horizon {
                    break;
                }
                let instructions = self.task_instructions.sample(&mut rng).round().max(1.0) as u64;
                tasks.push(TaskSpec::new(
                    TaskId(id),
                    t,
                    instructions,
                    self.mix,
                    self.priorities.sample(&mut rng),
                ));
                id += 1;
                t += gap(&self.intra_gap_us, &mut rng);
            }
            t += gap(&self.idle_gap_us, &mut rng);
        }
        TaskTrace::from_tasks(tasks)
    }
}

/// Fixed-period arrivals with optional jitter — the classic periodic
/// real-time workload.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PeriodicGenerator {
    /// Arrival period.
    pub period: SimDuration,
    /// Instructions per task.
    pub instructions: u64,
    /// Uniform jitter added to each arrival (µs).
    pub jitter_us: Dist,
    /// Instruction class blend.
    pub mix: InstructionMix,
    /// Priority of every task.
    pub priority: Priority,
}

impl PeriodicGenerator {
    /// A jitter-free periodic workload.
    pub fn exact(period: SimDuration, instructions: u64, priority: Priority) -> Self {
        Self {
            period,
            instructions,
            jitter_us: Dist::Constant(0.0),
            mix: InstructionMix::default(),
            priority,
        }
    }
}

impl TraceGenerator for PeriodicGenerator {
    fn generate(&self, horizon: SimTime, seed: u64) -> TaskTrace {
        assert!(!self.period.is_zero(), "period must be non-zero");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tasks = Vec::new();
        let mut base = SimTime::ZERO + self.period;
        let mut id = 0u64;
        while base < horizon {
            let arrival = base + gap(&self.jitter_us, &mut rng);
            if arrival < horizon {
                tasks.push(TaskSpec::new(
                    TaskId(id),
                    arrival,
                    self.instructions,
                    self.mix,
                    self.priority,
                ));
                id += 1;
            }
            base += self.period;
        }
        TaskTrace::from_tasks(tasks)
    }
}

/// Poisson arrivals (exponential inter-arrival times).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PoissonGenerator {
    /// Mean inter-arrival time (µs).
    pub mean_interarrival_us: f64,
    /// Instructions per task.
    pub task_instructions: Dist,
    /// Instruction class blend.
    pub mix: InstructionMix,
    /// Priority distribution.
    pub priorities: PriorityWeights,
}

impl TraceGenerator for PoissonGenerator {
    fn generate(&self, horizon: SimTime, seed: u64) -> TaskTrace {
        assert!(
            self.mean_interarrival_us > 0.0,
            "mean inter-arrival must be positive"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let inter = Dist::Exponential {
            mean: self.mean_interarrival_us,
        };
        let mut tasks = Vec::new();
        let mut t = SimTime::ZERO + gap(&inter, &mut rng);
        let mut id = 0u64;
        while t < horizon {
            let instructions = self.task_instructions.sample(&mut rng).round().max(1.0) as u64;
            tasks.push(TaskSpec::new(
                TaskId(id),
                t,
                instructions,
                self.mix,
                self.priorities.sample(&mut rng),
            ));
            id += 1;
            t += gap(&inter, &mut rng);
        }
        TaskTrace::from_tasks(tasks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HORIZON: SimTime = SimTime::from_millis(200);

    #[test]
    fn bursty_high_is_busier_than_low() {
        let high = BurstyGenerator::for_activity(ActivityLevel::High, PriorityWeights::uniform())
            .generate(HORIZON, 1);
        let low = BurstyGenerator::for_activity(ActivityLevel::Low, PriorityWeights::uniform())
            .generate(HORIZON, 1);
        assert!(
            high.len() > 2 * low.len(),
            "high {} low {}",
            high.len(),
            low.len()
        );
        assert!(high.stats().total_instructions > 2 * low.stats().total_instructions);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let g = BurstyGenerator::for_activity(ActivityLevel::High, PriorityWeights::typical_user());
        assert_eq!(g.generate(HORIZON, 9), g.generate(HORIZON, 9));
        assert_ne!(g.generate(HORIZON, 9), g.generate(HORIZON, 10));
    }

    #[test]
    fn all_arrivals_before_horizon() {
        let g = BurstyGenerator::for_activity(ActivityLevel::High, PriorityWeights::uniform());
        let trace = g.generate(HORIZON, 3);
        assert!(trace.tasks().iter().all(|t| t.arrival < HORIZON));
        assert!(trace.is_sorted_by_arrival());
    }

    #[test]
    fn periodic_spacing_is_exact() {
        let g = PeriodicGenerator::exact(SimDuration::from_micros(500), 1_000, Priority::Medium);
        let trace = g.generate(SimTime::from_millis(5), 0);
        assert_eq!(trace.len(), 9); // arrivals at 0.5..4.5 ms
        for (i, t) in trace.tasks().iter().enumerate() {
            assert_eq!(t.arrival, SimTime::from_micros(500 * (i as u64 + 1)));
        }
    }

    #[test]
    fn poisson_mean_interarrival_converges() {
        let g = PoissonGenerator {
            mean_interarrival_us: 100.0,
            task_instructions: Dist::Constant(1000.0),
            mix: InstructionMix::default(),
            priorities: PriorityWeights::uniform(),
        };
        let trace = g.generate(SimTime::from_secs(1), 5);
        let stats = trace.stats();
        let mean_us = stats.mean_interarrival.as_secs_f64() * 1e6;
        assert!((mean_us - 100.0).abs() < 10.0, "mean {mean_us} µs");
    }

    #[test]
    fn priority_weights_respected() {
        let g = PoissonGenerator {
            mean_interarrival_us: 20.0,
            task_instructions: Dist::Constant(100.0),
            mix: InstructionMix::default(),
            priorities: PriorityWeights::only(Priority::VeryHigh),
        };
        let trace = g.generate(SimTime::from_millis(10), 2);
        assert!(trace
            .tasks()
            .iter()
            .all(|t| t.priority == Priority::VeryHigh));
    }

    #[test]
    fn priority_sampler_distribution() {
        let w = PriorityWeights::new([0.0, 0.0, 0.5, 0.5]);
        let mut rng = StdRng::seed_from_u64(11);
        let mut high = 0;
        let mut very = 0;
        for _ in 0..10_000 {
            match w.sample(&mut rng) {
                Priority::High => high += 1,
                Priority::VeryHigh => very += 1,
                p => panic!("unexpected priority {p}"),
            }
        }
        let ratio = high as f64 / very as f64;
        assert!((ratio - 1.0).abs() < 0.15, "ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "positive sum")]
    fn zero_weights_rejected() {
        let _ = PriorityWeights::new([0.0; 4]);
    }
}
