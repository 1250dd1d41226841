//! The Local Energy Manager.
//!
//! Per the paper (§1.3), the LEM:
//!
//! * receives a *task execution request* from its IP before each task;
//! * forwards the request to the GEM (when present) and reads back the
//!   energy requested by the other IPs;
//! * *estimates the battery status and temperature at the end of the
//!   task* and selects the execution state through the Table 1 rules
//!   (over task priority, battery class, temperature class, power
//!   source);
//! * commands the PSM, waits for the transition, then grants execution;
//! * when the IP goes idle, *predicts the idle time*, compares it against
//!   the *break-even times* of the sleep states and sends the PSM into
//!   the deepest profitable one;
//! * defers tasks entirely (PSM to `SL1`) when the rules demand it
//!   (battery Empty / temperature High for non-critical priorities) or
//!   when the GEM withdraws its enable.
//!
//! Its knobs and their defaults are defined once, as [`LemTuning`].

use std::collections::VecDeque;

use dpm_battery::{BatteryClass, PowerSource};
use dpm_kernel::{Ctx, EventId, Fifo, Process, ProcessId, Signal, Simulation};
use dpm_power::{BreakEvenTable, IpPowerModel, PowerState, TransitionTable};
use dpm_thermal::ThermalClass;
use dpm_units::{Celsius, Energy, SimDuration};
use dpm_workload::TaskSpec;

use crate::estimator::EndOfTaskEstimator;
use crate::gem::GemLemPorts;
use crate::msg::{GemRequest, TaskGrant, TaskRequest};
use crate::policy::{PolicyInputs, PolicyTable, RuleSet, Selection};
use crate::predictor::{IdlePredictor, PredictorKind};

/// Signal/fifo bundle connecting one LEM to its IP, PSM, sensors and GEM.
#[derive(Debug, Clone, Copy)]
pub struct LemPorts {
    /// Task requests from the functional IP.
    pub requests: Fifo<TaskRequest>,
    /// Execution grants to the functional IP.
    pub grants: Fifo<TaskGrant>,
    /// Completed-task counter published by the IP.
    pub done_count: Signal<u64>,
    /// PSM command fifo.
    pub psm_cmd: Fifo<PowerState>,
    /// PSM actual state.
    pub psm_state: Signal<PowerState>,
    /// PSM transition-in-flight flag.
    pub psm_busy: Signal<bool>,
    /// Battery class from the battery monitor.
    pub battery_class: Signal<BatteryClass>,
    /// Raw state of charge (for end-of-task estimation).
    pub battery_soc: Signal<f64>,
    /// Temperature class from the thermal monitor.
    pub temp_class: Signal<ThermalClass>,
    /// Raw hottest temperature in °C (for estimation).
    pub temp_c: Signal<f64>,
    /// GEM-facing ports, when a GEM exists in the SoC.
    pub gem: Option<GemLemPorts>,
}

/// How the LEM picks its sleep state from the break-even table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum SleepSelection {
    /// The paper's heuristic: the deepest state whose break-even time
    /// fits the predicted idle.
    #[default]
    Deepest,
    /// Extension: the state minimizing the estimated idle-period energy
    /// (a deep state's transition cost can outweigh its hold savings).
    CheapestEnergy,
}

/// The LEM's tunable knobs (*"whose parameters can be adapted to the
/// single IP to optimize its performances"*, §1.4) and their one set of
/// defaults. `dpm_soc` re-exports it as the SoC-level tuning, and
/// [`LemConfig::new`] starts from its [`Default`].
#[derive(Debug, Clone, PartialEq)]
pub struct LemTuning {
    /// Idle-time predictor choice.
    pub predictor: PredictorKind,
    /// Seed prediction before any idle period completes.
    pub initial_prediction: SimDuration,
    /// Use end-of-task estimates (paper behaviour) instead of the current
    /// sensor classes; ablated in the benches.
    pub use_estimates: bool,
    /// Master switch for idle-time sleeping.
    pub sleep_enabled: bool,
    /// Grace delay between detecting idleness and commanding sleep.
    pub sleep_delay: SimDuration,
    /// Optional cap on acceptable wake-up latency (limits sleep depth).
    pub max_wake_latency: Option<SimDuration>,
    /// Sleep-state selection strategy (paper heuristic vs energy-optimal).
    pub sleep_selection: SleepSelection,
}

impl Default for LemTuning {
    fn default() -> Self {
        Self {
            predictor: PredictorKind::default(),
            initial_prediction: SimDuration::from_micros(500),
            use_estimates: true,
            sleep_enabled: true,
            sleep_delay: SimDuration::from_micros(10),
            max_wake_latency: None,
            sleep_selection: SleepSelection::default(),
        }
    }
}

/// Configuration of one LEM: its [`LemTuning`] plus what the SoC fixes
/// around it (rules, power source, IP index, projection model).
#[derive(Debug, Clone)]
pub struct LemConfig {
    /// The selection policy (defaults to the paper's Table 1).
    pub rules: RuleSet,
    /// The tunable knobs.
    pub tuning: LemTuning,
    /// Whether the SoC runs from battery or mains.
    pub source: PowerSource,
    /// Index of the governed IP (used in GEM requests).
    pub ip_index: u8,
    /// End-of-task projection model.
    pub estimator: EndOfTaskEstimator,
}

impl LemConfig {
    /// Paper-faithful defaults for IP `ip_index` powered by `source`, with
    /// the battery capacity needed by the estimator.
    pub fn new(ip_index: u8, source: PowerSource, battery_capacity: Energy) -> Self {
        Self {
            rules: crate::policy::table1(),
            tuning: LemTuning::default(),
            source,
            ip_index,
            estimator: EndOfTaskEstimator::new(battery_capacity),
        }
    }
}

/// Activity counters of one LEM.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LemStats {
    /// Task requests received.
    pub tasks_seen: u64,
    /// Execution grants issued.
    pub tasks_granted: u64,
    /// Policy selections per state (index = `PowerState::index()`).
    pub selections_by_state: [u64; 9],
    /// Selections that needed the rule-set fallback.
    pub fallback_selections: u64,
    /// Sleep commands issued from idle management.
    pub sleeps_commanded: u64,
    /// Wake-ups commanded for arriving tasks.
    pub wakes_commanded: u64,
    /// Times a task was deferred by the rules (`SL1` selections).
    pub rule_deferrals: u64,
    /// Times the GEM blocked this LEM with tasks queued.
    pub gem_blocks: u64,
    /// Requests forwarded to the GEM.
    pub gem_requests: u64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    /// No task being serviced.
    Idle,
    /// Waiting for the PSM to reach the selected execution state.
    Preparing(PowerState),
    /// A grant is outstanding; the IP is executing.
    Running,
    /// The rules selected a sleep state for the head-of-queue task; retry
    /// on battery/temperature class changes.
    Deferred,
    /// The GEM withdrew its enable; retry when it returns.
    Blocked,
}

/// The Local Energy Manager process.
pub struct Lem {
    cfg: LemConfig,
    ports: LemPorts,
    model: IpPowerModel,
    /// Break-even tables per ON hold level (index = level − 1).
    breakeven: [BreakEvenTable; 4],
    /// Dense precomputation of `cfg.rules` (O(1) per selection).
    policy: PolicyTable,
    predictor: Box<dyn IdlePredictor>,
    sleep_timer: EventId,
    phase: Phase,
    queue: VecDeque<TaskSpec>,
    seen_done: u64,
    chosen_sleep: Option<PowerState>,
    /// Task id the last GEM request was sent for (avoid duplicates).
    gem_requested_for: Option<dpm_workload::TaskId>,
    stats: LemStats,
}

impl Lem {
    /// Creates a LEM named `name` and wires its sensitivity list.
    pub fn spawn(
        sim: &mut Simulation,
        name: &str,
        cfg: LemConfig,
        model: IpPowerModel,
        transitions: &TransitionTable,
        ports: LemPorts,
    ) -> ProcessId {
        let sleep_timer = sim.event(&format!("{name}.sleep_timer"));
        let breakeven = [
            BreakEvenTable::compute(&model, transitions, PowerState::On1),
            BreakEvenTable::compute(&model, transitions, PowerState::On2),
            BreakEvenTable::compute(&model, transitions, PowerState::On3),
            BreakEvenTable::compute(&model, transitions, PowerState::On4),
        ];
        let predictor = cfg.tuning.predictor.build(cfg.tuning.initial_prediction);
        let policy = PolicyTable::new(&cfg.rules);
        let lem = Lem {
            cfg,
            ports,
            model,
            breakeven,
            policy,
            predictor,
            sleep_timer,
            phase: Phase::Idle,
            queue: VecDeque::new(),
            seen_done: 0,
            chosen_sleep: None,
            gem_requested_for: None,
            stats: LemStats::default(),
        };
        let use_estimates = lem.cfg.tuning.use_estimates;
        let pid = sim.add_process(name, lem);
        sim.sensitize(pid, ports.requests.written_event());
        sim.sensitize_signal(pid, ports.done_count);
        sim.sensitize_signal(pid, ports.psm_state);
        sim.sensitize_signal(pid, ports.psm_busy);
        sim.sensitize_signal(pid, ports.battery_class);
        sim.sensitize_signal(pid, ports.temp_class);
        sim.sensitize(pid, sleep_timer);
        if use_estimates {
            // Deferred tasks are re-evaluated on *estimated* classes, which
            // move with the continuous measurements — without these
            // sensitivities a deferral could outlive the condition that
            // caused it (the sensor class alone may never flip back).
            sim.sensitize_signal(pid, ports.battery_soc);
            sim.sensitize_signal(pid, ports.temp_c);
        }
        if let Some(gem) = ports.gem {
            sim.sensitize_signal(pid, gem.enable);
            if use_estimates {
                sim.sensitize_signal(pid, gem.others_energy);
            }
        }
        pid
    }

    /// The accumulated statistics.
    pub fn stats(&self) -> &LemStats {
        &self.stats
    }

    /// Tasks queued but not yet completed (including the running one).
    pub fn backlog(&self) -> usize {
        self.queue.len()
    }

    fn gem_enabled(&self, ctx: &Ctx<'_>) -> bool {
        self.ports.gem.is_none_or(|g| ctx.read(g.enable))
    }

    fn command(&mut self, ctx: &mut Ctx<'_>, state: PowerState) {
        if ctx.fifo_push(self.ports.psm_cmd, state).is_err() {
            // The PSM drains its fifo every activation; a full fifo means
            // 16 commands in one delta, which is a control bug.
            panic!("PSM command fifo overflow");
        }
    }

    /// Policy inputs for `task`, using end-of-task estimates when enabled.
    fn inputs_for(&self, ctx: &Ctx<'_>, task: &TaskSpec) -> PolicyInputs {
        let (battery, temperature) = if self.cfg.tuning.use_estimates {
            let soc = ctx.read(self.ports.battery_soc);
            let temp = Celsius::new(ctx.read(self.ports.temp_c));
            let others = self
                .ports
                .gem
                .map(|g| Energy::from_joules(ctx.read(g.others_energy).max(0.0)))
                .unwrap_or(Energy::ZERO);
            self.cfg.estimator.estimate(
                &self.model,
                task.instructions,
                &task.mix,
                soc,
                temp,
                others,
            )
        } else {
            (
                ctx.read(self.ports.battery_class),
                ctx.read(self.ports.temp_class),
            )
        };
        PolicyInputs {
            priority: task.priority,
            battery,
            temperature,
            source: self.cfg.source,
        }
    }

    fn grant(&mut self, ctx: &mut Ctx<'_>, task: TaskSpec) {
        ctx.fifo_push(self.ports.grants, TaskGrant { spec: task })
            .unwrap_or_else(|_| panic!("grant fifo overflow"));
        self.stats.tasks_granted += 1;
        self.phase = Phase::Running;
    }

    /// Starts servicing the head-of-queue task. Sets the next phase.
    fn begin_service(&mut self, ctx: &mut Ctx<'_>, task: TaskSpec) {
        ctx.cancel(self.sleep_timer);
        if let Some(gem) = self.ports.gem {
            if self.gem_requested_for != Some(task.id) {
                self.gem_requested_for = Some(task.id);
                let (energy, _) =
                    self.cfg
                        .estimator
                        .task_nominal(&self.model, task.instructions, &task.mix);
                let _ = ctx.fifo_push(
                    gem.requests,
                    GemRequest {
                        ip: self.cfg.ip_index,
                        priority: task.priority,
                        energy_estimate: energy,
                    },
                );
                self.stats.gem_requests += 1;
            }
        }
        let selection: Selection = self.policy.select(self.inputs_for(ctx, &task));
        self.stats.selections_by_state[selection.state.index()] += 1;
        if selection.used_fallback {
            self.stats.fallback_selections += 1;
        }
        if selection.state.is_execution() {
            let current = ctx.read(self.ports.psm_state);
            let busy = ctx.read(self.ports.psm_busy);
            if current == selection.state && !busy {
                self.grant(ctx, task);
            } else {
                if !current.is_execution() {
                    self.stats.wakes_commanded += 1;
                }
                self.command(ctx, selection.state);
                self.phase = Phase::Preparing(selection.state);
            }
        } else {
            // The rules demand deferral (battery Empty / temperature High).
            self.stats.rule_deferrals += 1;
            self.command(ctx, selection.state);
            self.phase = Phase::Deferred;
        }
    }

    /// Idle management: predict, compare with break-even, arm the sleep
    /// timer.
    fn plan_idle(&mut self, ctx: &mut Ctx<'_>) {
        if !self.cfg.tuning.sleep_enabled || ctx.is_pending(self.sleep_timer) {
            return;
        }
        let current = ctx.read(self.ports.psm_state);
        if !current.is_execution() {
            return; // already sleeping (or off)
        }
        let hold_level = current.on_level().expect("execution state").get();
        let table = &self.breakeven[(hold_level - 1) as usize];
        let predicted = self.predictor.predict();
        self.chosen_sleep = match self.cfg.tuning.sleep_selection {
            SleepSelection::Deepest => {
                table.deepest_within(predicted, self.cfg.tuning.max_wake_latency)
            }
            SleepSelection::CheapestEnergy => {
                table.cheapest_within(predicted, self.cfg.tuning.max_wake_latency)
            }
        };
        if self.chosen_sleep.is_some() {
            ctx.notify(self.sleep_timer, self.cfg.tuning.sleep_delay);
        }
    }
}

impl Process for Lem {
    fn init(&mut self, ctx: &mut Ctx<'_>) {
        self.predictor.idle_started(ctx.now());
        self.plan_idle(ctx);
    }

    fn react(&mut self, ctx: &mut Ctx<'_>) {
        // 1. Ingest newly arrived requests.
        while let Some(req) = ctx.fifo_pop(self.ports.requests) {
            self.stats.tasks_seen += 1;
            if self.queue.is_empty() && self.phase == Phase::Idle {
                self.predictor.idle_ended(ctx.now());
                ctx.cancel(self.sleep_timer);
                self.chosen_sleep = None;
            }
            self.queue.push_back(req.spec);
        }

        // 2. Detect completion of the running task.
        let done = ctx.read(self.ports.done_count);
        if done > self.seen_done && self.phase == Phase::Running {
            self.seen_done = done;
            self.queue.pop_front();
            self.phase = Phase::Idle;
            if self.queue.is_empty() {
                self.predictor.idle_started(ctx.now());
            }
        }

        // 3. Sleep timer: commit to the chosen sleep state if still idle.
        if ctx.triggered(self.sleep_timer) && self.phase == Phase::Idle && self.queue.is_empty() {
            if let Some(sleep) = self.chosen_sleep.take() {
                self.command(ctx, sleep);
                self.stats.sleeps_commanded += 1;
            }
        }

        // 4. Drive the service state machine.
        let enabled = self.gem_enabled(ctx);
        let mut budget = 8; // phases converge in < 8 steps by construction
        loop {
            budget -= 1;
            assert!(budget > 0, "LEM state machine did not converge");
            match self.phase {
                Phase::Idle => {
                    if let Some(task) = self.queue.front().copied() {
                        if !enabled {
                            self.stats.gem_blocks += 1;
                            self.command(ctx, PowerState::Sl1);
                            self.phase = Phase::Blocked;
                            break;
                        }
                        self.begin_service(ctx, task);
                        // Preparing/Running/Deferred now; loop once more to
                        // catch the already-in-state fast path.
                        if self.phase == Phase::Running {
                            break;
                        }
                        continue;
                    }
                    self.plan_idle(ctx);
                    break;
                }
                Phase::Preparing(target) => {
                    if ctx.read(self.ports.psm_state) == target && !ctx.read(self.ports.psm_busy) {
                        let task = *self.queue.front().expect("preparing without a task");
                        self.grant(ctx, task);
                    }
                    break;
                }
                Phase::Running => break,
                Phase::Deferred => {
                    // Conditions may have improved; re-evaluate once.
                    if enabled {
                        if let Some(task) = self.queue.front().copied() {
                            let selection = self.policy.select(self.inputs_for(ctx, &task));
                            if selection.state.is_execution() {
                                self.phase = Phase::Idle;
                                continue;
                            }
                        }
                    }
                    break;
                }
                Phase::Blocked => {
                    if enabled {
                        self.phase = Phase::Idle;
                        continue;
                    }
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::psm::Psm;
    use dpm_kernel::StopReason;
    use dpm_power::InstructionMix;
    use dpm_units::SimTime;
    use dpm_workload::{Priority, TaskId};

    /// Minimal functional IP for driving the LEM in isolation: submits a
    /// fixed plan of tasks and "executes" each grant at the PSM state's
    /// speed (assuming the state holds for the task's duration, which the
    /// tests arrange).
    struct MiniIp {
        requests: Fifo<TaskRequest>,
        grants: Fifo<TaskGrant>,
        done_count: Signal<u64>,
        psm_state: Signal<PowerState>,
        model: IpPowerModel,
        plan: Vec<TaskSpec>,
        next: usize,
        arrival: EventId,
        exec_done: EventId,
        running: Option<TaskSpec>,
        done: u64,
        finished_states: Vec<PowerState>,
    }

    impl MiniIp {
        fn schedule_next_arrival(&mut self, ctx: &mut Ctx<'_>) {
            if let Some(spec) = self.plan.get(self.next) {
                let delay = spec.arrival.saturating_duration_since(ctx.now());
                ctx.notify(self.arrival, delay);
            }
        }
    }

    impl Process for MiniIp {
        fn init(&mut self, ctx: &mut Ctx<'_>) {
            self.schedule_next_arrival(ctx);
        }
        fn react(&mut self, ctx: &mut Ctx<'_>) {
            if ctx.triggered(self.arrival) {
                let spec = self.plan[self.next];
                self.next += 1;
                ctx.fifo_push(self.requests, TaskRequest { spec })
                    .expect("request fifo");
                self.schedule_next_arrival(ctx);
            }
            if ctx.triggered(self.exec_done) {
                if let Some(_spec) = self.running.take() {
                    self.done += 1;
                    self.finished_states.push(ctx.read(self.psm_state));
                    ctx.write(self.done_count, self.done);
                }
            }
            if self.running.is_none() {
                if let Some(grant) = ctx.fifo_pop(self.grants) {
                    let state = ctx.read(self.psm_state);
                    let dt = self
                        .model
                        .execution_time(grant.spec.instructions, &grant.spec.mix, state)
                        .expect("granted in an execution state");
                    self.running = Some(grant.spec);
                    ctx.notify(self.exec_done, dt);
                }
            }
        }
    }

    struct Rig {
        sim: Simulation,
        lem: ProcessId,
        ip: ProcessId,
        psm: ProcessId,
        ports: LemPorts,
        battery_class: Signal<BatteryClass>,
        battery_soc: Signal<f64>,
        temp_class: Signal<ThermalClass>,
    }

    fn task(id: u64, at_us: u64, instructions: u64, priority: Priority) -> TaskSpec {
        TaskSpec::new(
            TaskId(id),
            SimTime::from_micros(at_us),
            instructions,
            InstructionMix::default(),
            priority,
        )
    }

    fn rig(plan: Vec<TaskSpec>, cfg_mut: impl FnOnce(&mut LemConfig)) -> Rig {
        let mut sim = Simulation::new();
        let model = IpPowerModel::default_cpu();
        let table = TransitionTable::for_model(&model);
        let (psm_ports, psm) = Psm::spawn(&mut sim, "psm", table.clone(), PowerState::On1);
        let requests = sim.fifo("lem.requests", 64);
        let grants = sim.fifo("lem.grants", 64);
        let done_count = sim.signal("ip.done_count", 0u64);
        let battery_class = sim.signal("battery.class", BatteryClass::Full);
        let battery_soc = sim.signal("battery.soc", 0.95f64);
        let temp_class = sim.signal("thermal.class", ThermalClass::Low);
        let temp_c = sim.signal("thermal.temp", 30.0f64);
        let ports = LemPorts {
            requests,
            grants,
            done_count,
            psm_cmd: psm_ports.cmd,
            psm_state: psm_ports.state,
            psm_busy: psm_ports.busy,
            battery_class,
            battery_soc,
            temp_class,
            temp_c,
            gem: None,
        };
        let mut cfg = LemConfig::new(0, PowerSource::Battery, Energy::from_joules(100.0));
        cfg.tuning.use_estimates = false; // class signals drive the tests directly
        cfg_mut(&mut cfg);
        let lem = Lem::spawn(&mut sim, "lem", cfg, model.clone(), &table, ports);
        let arrival = sim.event("ip.arrival");
        let exec_done = sim.event("ip.exec_done");
        let ip = sim.add_process(
            "ip",
            MiniIp {
                requests,
                grants,
                done_count,
                psm_state: psm_ports.state,
                model,
                plan,
                next: 0,
                arrival,
                exec_done,
                running: None,
                done: 0,
                finished_states: Vec::new(),
            },
        );
        sim.sensitize(ip, arrival);
        sim.sensitize(ip, exec_done);
        sim.sensitize(ip, grants.written_event());
        Rig {
            sim,
            lem,
            ip,
            psm,
            ports,
            battery_class,
            battery_soc,
            temp_class,
        }
    }

    #[test]
    fn grants_at_on1_when_battery_full_and_cool() {
        let mut r = rig(vec![task(0, 100, 50_000, Priority::High)], |_| {});
        r.sim.run_until(SimTime::from_millis(2));
        let done = r.sim.peek(r.ports.done_count);
        assert_eq!(done, 1);
        let states = r
            .sim
            .with_process::<MiniIp, _>(r.ip, |p| p.finished_states.clone());
        // battery Full + temp Low + priority High -> ON1 (Table 1 row 10)
        assert_eq!(states, vec![PowerState::On1]);
        let stats = r.sim.with_process::<Lem, _>(r.lem, |l| l.stats().clone());
        assert_eq!(stats.tasks_granted, 1);
        assert_eq!(stats.selections_by_state[PowerState::On1.index()], 1);
    }

    #[test]
    fn battery_low_forces_on4() {
        let mut r = rig(vec![task(0, 100, 50_000, Priority::High)], |_| {});
        // drop the battery class before the task arrives
        r.sim.run_until(SimTime::from_micros(50));
        // poke the signal from outside: emulate the battery monitor
        r.sim.run_for(SimDuration::ZERO);
        set_signal(&mut r.sim, r.battery_class, BatteryClass::Low);
        r.sim.run_until(SimTime::from_millis(3));
        let states = r
            .sim
            .with_process::<MiniIp, _>(r.ip, |p| p.finished_states.clone());
        assert_eq!(states, vec![PowerState::On4]);
    }

    /// Writes a signal from outside the simulation via a one-shot process.
    fn set_signal<T: dpm_kernel::SignalValue>(sim: &mut Simulation, sig: Signal<T>, value: T) {
        struct Setter<T: dpm_kernel::SignalValue> {
            sig: Signal<T>,
            value: Option<T>,
            kick: EventId,
        }
        impl<T: dpm_kernel::SignalValue> Process for Setter<T> {
            fn init(&mut self, ctx: &mut Ctx<'_>) {
                ctx.notify_delta(self.kick);
            }
            fn react(&mut self, ctx: &mut Ctx<'_>) {
                if let Some(v) = self.value.take() {
                    ctx.write(self.sig, v);
                }
            }
        }
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let kick = sim.event(&format!("setter{n}.kick"));
        let pid = sim.add_process(
            &format!("setter{n}"),
            Setter {
                sig,
                value: Some(value),
                kick,
            },
        );
        sim.sensitize(pid, kick);
        sim.run_for(SimDuration::ZERO);
    }

    #[test]
    fn thermal_emergency_defers_then_releases() {
        let mut r = rig(vec![task(0, 100, 50_000, Priority::Medium)], |_| {});
        set_signal(&mut r.sim, r.temp_class, ThermalClass::High);
        r.sim.run_until(SimTime::from_millis(1));
        // task deferred: nothing done, PSM parked in SL1
        assert_eq!(r.sim.peek(r.ports.done_count), 0);
        assert_eq!(r.sim.peek(r.ports.psm_state), PowerState::Sl1);
        let stats = r.sim.with_process::<Lem, _>(r.lem, |l| l.stats().clone());
        assert!(stats.rule_deferrals >= 1);
        // chip cools: class drops, the deferred task runs
        set_signal(&mut r.sim, r.temp_class, ThermalClass::Low);
        r.sim.run_until(SimTime::from_millis(4));
        assert_eq!(r.sim.peek(r.ports.done_count), 1);
    }

    #[test]
    fn idle_period_sends_psm_to_sleep_and_wakes_for_next_task() {
        // two tasks with a 5 ms gap: long enough for a deep sleep
        let mut r = rig(
            vec![
                task(0, 100, 50_000, Priority::High),
                task(1, 5_500, 50_000, Priority::High),
            ],
            |cfg| {
                cfg.tuning.predictor = PredictorKind::Fixed { value_us: 5_000 };
            },
        );
        let outcome = r.sim.run_until(SimTime::from_millis(20));
        assert_eq!(outcome.reason, StopReason::Starved);
        assert_eq!(r.sim.peek(r.ports.done_count), 2);
        let stats = r.sim.with_process::<Lem, _>(r.lem, |l| l.stats().clone());
        assert!(stats.sleeps_commanded >= 1, "stats: {stats:?}");
        assert!(stats.wakes_commanded >= 1);
        let psm_stats = r.sim.with_process::<Psm, _>(r.psm, |p| p.stats().clone());
        assert!(psm_stats.transitions >= 2, "sleep + wake at minimum");
    }

    #[test]
    fn sleep_disabled_keeps_psm_awake() {
        let mut r = rig(
            vec![
                task(0, 100, 50_000, Priority::High),
                task(1, 5_500, 50_000, Priority::High),
            ],
            |cfg| {
                cfg.tuning.sleep_enabled = false;
            },
        );
        r.sim.run_until(SimTime::from_millis(20));
        assert_eq!(r.sim.peek(r.ports.done_count), 2);
        let stats = r.sim.with_process::<Lem, _>(r.lem, |l| l.stats().clone());
        assert_eq!(stats.sleeps_commanded, 0);
        assert_eq!(r.sim.peek(r.ports.psm_state), PowerState::On1);
    }

    #[test]
    fn queued_tasks_run_back_to_back() {
        let mut r = rig(
            vec![
                task(0, 100, 50_000, Priority::Medium),
                task(1, 110, 50_000, Priority::Medium),
                task(2, 120, 50_000, Priority::Medium),
            ],
            |_| {},
        );
        r.sim.run_until(SimTime::from_millis(10));
        assert_eq!(r.sim.peek(r.ports.done_count), 3);
        let stats = r.sim.with_process::<Lem, _>(r.lem, |l| l.stats().clone());
        assert_eq!(stats.tasks_seen, 3);
        assert_eq!(stats.tasks_granted, 3);
    }

    #[test]
    fn very_high_priority_runs_even_on_empty_battery() {
        let mut r = rig(
            vec![
                task(0, 100, 50_000, Priority::VeryHigh),
                task(1, 200, 50_000, Priority::Medium),
            ],
            |_| {},
        );
        set_signal(&mut r.sim, r.battery_class, BatteryClass::Empty);
        set_signal(&mut r.sim, r.battery_soc, 0.01);
        r.sim.run_until(SimTime::from_millis(10));
        // the critical task ran (at ON4 per row 0); the medium one halts
        assert_eq!(r.sim.peek(r.ports.done_count), 1);
        let states = r
            .sim
            .with_process::<MiniIp, _>(r.ip, |p| p.finished_states.clone());
        assert_eq!(states, vec![PowerState::On4]);
        let stats = r.sim.with_process::<Lem, _>(r.lem, |l| l.stats().clone());
        assert!(stats.rule_deferrals >= 1);
    }
}
