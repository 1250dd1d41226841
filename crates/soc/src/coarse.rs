//! Coarse analytic evaluator: the dwell-time fast path.
//!
//! [`run_config_coarse`] produces a [`SocMetrics`] for a [`SocConfig`]
//! *without* elaborating the discrete-event kernel. Instead of replaying
//! every signal update and delta cycle, it walks each IP's pre-generated
//! trace at **decision granularity** — one step per task (plus bounded
//! retries for deferral/blocking at the monitor sample period) — and
//! computes residency, energy, delay and thermal response analytically
//! from the same characterized models the fine path uses:
//!
//! * **energy** — Σ (state power × dwell time) from [`IpPowerModel`],
//!   plus round-trip transition energy from [`TransitionTable`] and the
//!   fan's own draw;
//! * **delay** — queueing at each IP: service start = max(arrival, ready),
//!   wake/transition latency delays the grant exactly as the fine PSM
//!   sequences it;
//! * **battery** — linear charge bookkeeping (soc = initial − drawn /
//!   capacity). Rate-capacity and KiBaM recovery effects are *not*
//!   modelled coarsely — every [`BatteryKind`] drains linearly here;
//! * **thermal** — a first-order package response toward the steady
//!   state of the interval-average power (`T_ss = T_amb + R · P̄`),
//!   with the fan switching the package resistance, mirroring the fine
//!   RC network's dominant pole.
//!
//! The controller policies are evaluated *exactly* (the same
//! [`PolicyTable`], [`BreakEvenTable`] and GEM enable rule as the fine
//! path), but on coarse observables, and the idle predictor is replaced
//! by the actual gap length (a clairvoyant stand-in). Coarse numbers
//! therefore track fine *trends* — energy-saving percentages within a
//! tolerance band, preserved ranking across a corpus — not exact values.
//! See `tests/fidelity.rs` for the pinned validation bounds.
//!
//! What a walk reads of the IPs alone is a [`CoarsePlan`]: per IP, the
//! [`TransitionTable`], the break-even tables of the execution states
//! (built on first use), the hold power of every state, and the
//! execution power, CPI and clocks of the trace's instruction mix.
//! [`run_config_coarse`] builds a plan per call. A caller that evaluates
//! many configurations of one set of IPs — the campaign runner, once per
//! trace skeleton — builds it once and walks it with
//! [`CoarsePlan::run`], which reads the IPs and their traces by
//! reference. Every cached figure comes from the model call the walk
//! would make per task, and a task with a different mix makes that call,
//! so both give bit-identical metrics.

use std::borrow::Cow;
use std::sync::OnceLock;

use dpm_battery::PowerSource;
use dpm_core::policy::table1;
use dpm_core::{EndOfTaskEstimator, PolicyInputs, PolicyTable, SleepSelection};
use dpm_power::{BreakEvenTable, InstructionMix, IpPowerModel, PowerState, TransitionTable};
use dpm_units::{Energy, Frequency, Power, SimDuration, SimTime};
use dpm_workload::TaskSpec;

use crate::config::{ControllerKind, IpConfig, SocConfig};
use crate::ip::TaskRecord;
use crate::metrics::{IpMetrics, SocMetrics};
use dpm_core::PsmStats;

/// Package thermal resistance without the fan (K/W), matching
/// `PackageParams::default_package`.
const R_PKG_NO_FAN: f64 = 40.0;
/// Package thermal resistance with the fan running (K/W).
const R_PKG_FAN: f64 = 8.0;
/// Package thermal capacitance (J/K).
const C_PKG: f64 = 2.5e-3;

/// Shared SoC state of the coarse walk: battery, package temperature and
/// the fan, advanced lazily to each decision instant.
struct SharedState {
    capacity: Energy,
    initial_soc: f64,
    on_battery: bool,
    /// Total energy drawn from the supply so far (IPs + transitions + fan).
    drawn: Energy,
    /// `drawn` at the last thermal advance (to form the interval average).
    drawn_at_advance: Energy,
    ambient: f64,
    /// Package temperature (°C) at `now`.
    temp: f64,
    fan_draw: Power,
    fan_on: bool,
    fan_time: SimDuration,
    now: SimTime,
    /// ∫ (T − T_amb)⁺ dt in kelvin-seconds.
    elevation_ks: f64,
    max_temp: f64,
}

impl SharedState {
    fn new(cfg: &SocConfig) -> Self {
        let t0 = cfg.thermal.initial.as_celsius();
        Self {
            capacity: cfg.battery_capacity,
            initial_soc: cfg.initial_soc.value(),
            on_battery: cfg.source == PowerSource::Battery,
            drawn: Energy::ZERO,
            drawn_at_advance: Energy::ZERO,
            ambient: cfg.thermal.ambient.as_celsius(),
            temp: t0,
            fan_draw: cfg.thermal.fan_draw,
            fan_on: false,
            fan_time: SimDuration::ZERO,
            now: SimTime::ZERO,
            elevation_ks: 0.0,
            max_temp: t0,
        }
    }

    /// Current state of charge (linear bookkeeping; mains never drains).
    fn soc(&self) -> f64 {
        if self.on_battery {
            (self.initial_soc - self.drawn / self.capacity).clamp(0.0, 1.0)
        } else {
            self.initial_soc
        }
    }

    /// Advances the thermal/fan state to `t` using the energy drawn since
    /// the previous advance as the interval-average power.
    fn advance_to(&mut self, t: SimTime) {
        let dt = t.saturating_duration_since(self.now);
        if dt.is_zero() {
            return;
        }
        let p_ip = (self.drawn - self.drawn_at_advance) / dt;
        if self.fan_on {
            self.fan_time += dt;
            self.drawn += self.fan_draw * dt;
        }
        let r = if self.fan_on { R_PKG_FAN } else { R_PKG_NO_FAN };
        let tau = C_PKG * r;
        let t_ss = self.ambient + r * p_ip.as_watts();
        let before = self.temp;
        let after = t_ss + (before - t_ss) * (-dt.as_secs_f64() / tau).exp();
        self.temp = after;
        let mean_elev = ((before - self.ambient).max(0.0) + (after - self.ambient).max(0.0)) * 0.5;
        self.elevation_ks += mean_elev * dt.as_secs_f64();
        self.max_temp = self.max_temp.max(after);
        self.now = t;
        self.drawn_at_advance = self.drawn;
    }
}

/// What every coarse walk over one set of IPs reads and no configuration
/// of them changes. Build it once with [`CoarsePlan::new`], then evaluate
/// any number of configurations of those IPs with [`CoarsePlan::run`].
#[derive(Debug)]
pub struct CoarsePlan {
    ips: Vec<IpPlan>,
}

/// One IP's share of a [`CoarsePlan`].
#[derive(Debug)]
struct IpPlan {
    model: IpPowerModel,
    transitions: TransitionTable,
    /// Break-even tables per execution (hold) state, by `ON` level,
    /// built on first use.
    breakeven: [OnceLock<BreakEvenTable>; 4],
    /// `state_power` of every state, by [`PowerState::index`].
    hold_power: [Power; 9],
    /// The instruction mix of the trace's first task, with its figures.
    mix: Option<(InstructionMix, MixCosts)>,
}

impl IpPlan {
    fn new(ip: &IpConfig) -> Self {
        let model = ip.model.clone();
        Self {
            transitions: TransitionTable::for_model(&model),
            breakeven: Default::default(),
            hold_power: PowerState::ALL.map(|s| model.state_power(s)),
            mix: ip
                .trace
                .tasks()
                .first()
                .map(|t| (t.mix, MixCosts::of(&model, &t.mix))),
            model,
        }
    }

    fn breakeven(&self, hold: PowerState) -> &BreakEvenTable {
        let level = hold
            .on_level()
            .expect("break-even tables need an execution state");
        self.breakeven[usize::from(level.get() - 1)]
            .get_or_init(|| BreakEvenTable::compute(&self.model, &self.transitions, hold))
    }

    /// The figures of `mix`: the cached ones for the trace's mix, fresh
    /// ones from the model for any other.
    fn costs(&self, mix: &InstructionMix) -> Cow<'_, MixCosts> {
        match &self.mix {
            Some((cached, costs)) if cached == mix => Cow::Borrowed(costs),
            _ => Cow::Owned(MixCosts::of(&self.model, mix)),
        }
    }
}

/// One instruction mix on one IP: its execution power per state, its
/// CPI and the IP's clocks — what [`IpPowerModel::mix_power`] and
/// [`IpPowerModel::execution_time`] compute on every call.
#[derive(Debug, Clone)]
struct MixCosts {
    /// `mix_power` by [`PowerState::index`] (zero outside `ON` states).
    power: [Power; 9],
    cpi: f64,
    /// Clock in hertz by [`PowerState::index`] (`None` outside `ON`
    /// states).
    hz: [Option<f64>; 9],
}

impl MixCosts {
    fn of(model: &IpPowerModel, mix: &InstructionMix) -> Self {
        let mut power = [Power::ZERO; 9];
        for s in PowerState::EXECUTION {
            power[s.index()] = model.mix_power(s, mix);
        }
        Self {
            power,
            cpi: mix.average_cpi(),
            hz: PowerState::ALL.map(|s| model.frequency(s).map(Frequency::as_hertz)),
        }
    }

    fn power(&self, state: PowerState) -> Power {
        self.power[state.index()]
    }

    /// [`IpPowerModel::execution_time`], with the same arithmetic.
    fn execution_time(&self, instructions: u64, state: PowerState) -> SimDuration {
        let hz = self.hz[state.index()].expect("only execution states execute");
        let cycles = instructions as f64 * self.cpi;
        SimDuration::from_secs_f64(cycles / hz)
    }
}

/// Per-IP walk state.
struct IpWalk<'p> {
    plan: &'p IpPlan,
    /// Index of the next unserved task in the trace.
    idx: usize,
    /// When the IP becomes free for the next task.
    ready: SimTime,
    state: PowerState,
    /// `true` once the walk has run off the horizon for this IP.
    done: bool,
    energy: Energy,
    records: Vec<TaskRecord>,
    trace_len: usize,
    psm: PsmStats,
    residency: [SimDuration; 9],
    /// Σ residency + transition time so far (for exact horizon padding).
    accounted: SimDuration,
    /// The full horizon as a duration: dwell and transition bookkeeping
    /// is clamped so `accounted` never exceeds it — a dwell or
    /// transition straddling the horizon charges only its in-horizon
    /// part, keeping Σ residency + transition time == horizon exact.
    budget: SimDuration,
    /// Nominal energy of the last requested task (the GEM announcement).
    last_estimate: Energy,
    static_rank: u8,
}

impl<'p> IpWalk<'p> {
    fn new(ip: &IpConfig, plan: &'p IpPlan, horizon: SimTime) -> Self {
        Self {
            plan,
            idx: 0,
            ready: SimTime::ZERO,
            state: PowerState::On1,
            done: false,
            energy: Energy::ZERO,
            records: Vec::new(),
            trace_len: ip.trace.len(),
            psm: PsmStats::default(),
            residency: [SimDuration::ZERO; 9],
            accounted: SimDuration::ZERO,
            budget: horizon.saturating_duration_since(SimTime::ZERO),
            last_estimate: Energy::ZERO,
            static_rank: ip.static_rank,
        }
    }

    /// Dwells `dur` in `state`, drawing its hold power. The charged
    /// duration is clamped at the horizon budget.
    fn dwell(&mut self, shared: &mut SharedState, state: PowerState, dur: SimDuration) {
        let dur = dur.min(self.budget.saturating_sub(self.accounted));
        if dur.is_zero() {
            return;
        }
        let e = self.plan.hold_power[state.index()] * dur;
        self.energy += e;
        shared.drawn += e;
        self.residency[state.index()] += dur;
        self.accounted += dur;
    }

    /// Dwells `dur` executing a task of `costs`'s mix in `state` (active
    /// power).
    fn dwell_exec(
        &mut self,
        shared: &mut SharedState,
        state: PowerState,
        costs: &MixCosts,
        dur: SimDuration,
    ) {
        let dur = dur.min(self.budget.saturating_sub(self.accounted));
        if dur.is_zero() {
            return;
        }
        let e = costs.power(state) * dur;
        self.energy += e;
        shared.drawn += e;
        self.residency[state.index()] += dur;
        self.accounted += dur;
    }

    /// Books a completed transition to `to` (latency + energy). The
    /// full switching energy is always charged (the transition is
    /// committed), but the booked latency is clamped at the horizon
    /// budget — a transition still in flight at the horizon counts only
    /// its in-horizon part, as the fine kernel's cutoff would.
    fn transition(&mut self, shared: &mut SharedState, to: PowerState) {
        if to == self.state {
            return;
        }
        let cost = self.plan.transitions.cost(self.state, to);
        let charged = cost.latency.min(self.budget.saturating_sub(self.accounted));
        self.psm.transitions += 1;
        self.psm.transition_time += charged;
        self.psm.transition_energy += cost.energy;
        self.accounted += charged;
        shared.drawn += cost.energy;
        self.state = to;
    }

    /// Serves `task` (whose mix `costs` describes) in `state` starting
    /// at `granted`, truncating at the horizon exactly as the fine run
    /// would.
    fn serve(
        &mut self,
        shared: &mut SharedState,
        task: &TaskSpec,
        costs: &MixCosts,
        state: PowerState,
        granted: SimTime,
        horizon: SimTime,
    ) {
        let dt = costs.execution_time(task.instructions, state);
        let finished = granted + dt;
        if finished <= horizon {
            self.dwell_exec(shared, state, costs, dt);
            self.records.push(TaskRecord {
                spec: *task,
                granted_at: granted,
                finished_at: finished,
            });
            self.ready = finished;
        } else {
            // Partial execution up to the horizon; no completion record.
            let partial = horizon.saturating_duration_since(granted);
            self.dwell_exec(shared, state, costs, partial);
            self.ready = horizon;
            self.done = true;
        }
        self.idx += 1;
    }

    /// Closes out the walk: pads the remaining horizon residency with the
    /// current state so Σ residency + transition time == horizon.
    fn pad_to(&mut self, shared: &mut SharedState, horizon: SimTime) {
        let total = horizon.saturating_duration_since(SimTime::ZERO);
        let residual = total.saturating_sub(self.accounted);
        let state = self.state;
        self.dwell(shared, state, residual);
    }

    fn into_metrics(self, name: &str) -> IpMetrics {
        IpMetrics {
            name: name.to_owned(),
            records: self.records,
            trace_len: self.trace_len,
            energy: self.energy,
            psm: self.psm,
            residency: self.residency,
            lem: None,
        }
    }
}

/// The coarse counterpart of the fine GEM enable rule (see
/// `dpm_core::gem::Gem::evaluate`): returns whether the IP with
/// `rank` stays enabled and whether the fan runs.
fn gem_gate(
    estimator: &EndOfTaskEstimator,
    source: PowerSource,
    cutoff: u8,
    rank: u8,
    soc: f64,
    temp_c: f64,
) -> (bool, bool) {
    let battery = estimator.classify_battery(soc);
    let temperature = estimator.classify_temperature(dpm_units::Celsius::new(temp_c));
    let battery_fine = source == PowerSource::Mains || battery >= dpm_battery::BatteryClass::Medium;
    let temp_fine = temperature <= dpm_thermal::ThermalClass::Medium;
    if battery_fine && temp_fine {
        (true, false)
    } else if !battery_fine && temp_fine {
        (rank <= cutoff, false)
    } else {
        (false, true)
    }
}

/// Handles the idle gap `[ready, until)` for one IP, per controller.
/// `wake_for_service` is true when a task arrival ends the gap (so wake
/// latency must be charged before service can start); the final gap to
/// the horizon passes false.
#[allow(clippy::too_many_arguments)] // the walk state is deliberately explicit
fn handle_gap(
    ip: &mut IpWalk<'_>,
    shared: &mut SharedState,
    cfg: &SocConfig,
    gap: SimDuration,
    wake_for_service: bool,
) -> SimDuration {
    let mut wake_latency = SimDuration::ZERO;
    match &cfg.controller {
        ControllerKind::AlwaysOn => {
            ip.dwell(shared, PowerState::On1, gap);
        }
        ControllerKind::Timeout { timeout, state } => {
            let down = ip.plan.transitions.cost(PowerState::On1, *state);
            if gap > *timeout + down.latency {
                ip.dwell(shared, PowerState::On1, *timeout);
                ip.transition(shared, *state);
                let sleep = gap - *timeout - down.latency;
                let st = *state;
                ip.dwell(shared, st, sleep);
                if wake_for_service {
                    // The fixed-timeout policy wakes on arrival and the
                    // task waits out the full wake latency.
                    let up = ip.plan.transitions.cost(st, PowerState::On1);
                    ip.transition(shared, PowerState::On1);
                    wake_latency = up.latency;
                } else {
                    ip.state = st;
                }
            } else {
                ip.dwell(shared, PowerState::On1, gap);
            }
        }
        ControllerKind::Oracle => {
            let choice = ip.plan.breakeven(PowerState::On1).deepest_within(gap, None);
            match choice {
                Some(s) => {
                    // The oracle wakes early, so the whole round trip fits
                    // inside the gap and the task sees no added delay.
                    ip.transition(shared, s);
                    let rt = ip.plan.transitions.cost(s, PowerState::On1);
                    let sleep = gap
                        .saturating_sub(ip.plan.transitions.cost(PowerState::On1, s).latency)
                        .saturating_sub(rt.latency);
                    ip.dwell(shared, s, sleep);
                    ip.transition(shared, PowerState::On1);
                }
                None => ip.dwell(shared, PowerState::On1, gap),
            }
        }
        ControllerKind::Dpm => {
            if !cfg.lem.sleep_enabled || !ip.state.is_execution() {
                let state = ip.state;
                ip.dwell(shared, state, gap);
                return wake_latency;
            }
            let hold = ip.state;
            let delay = cfg.lem.sleep_delay;
            if gap <= delay {
                ip.dwell(shared, hold, gap);
                return wake_latency;
            }
            // Clairvoyant stand-in for the idle predictor: the actual
            // gap length (documented coarse approximation).
            let max_wake = cfg.lem.max_wake_latency;
            let table = ip.plan.breakeven(hold);
            let choice = match cfg.lem.sleep_selection {
                SleepSelection::Deepest => table.deepest_within(gap, max_wake),
                SleepSelection::CheapestEnergy => table.cheapest_within(gap, max_wake),
            };
            match choice {
                Some(s) => {
                    ip.dwell(shared, hold, delay);
                    let down = ip.plan.transitions.cost(hold, s);
                    ip.transition(shared, s);
                    let sleep = gap.saturating_sub(delay).saturating_sub(down.latency);
                    ip.dwell(shared, s, sleep);
                    // Wake latency is charged at the next grant via the
                    // sleep → execution transition (as the fine Preparing
                    // phase does), so nothing more to do here.
                }
                None => ip.dwell(shared, hold, gap),
            }
        }
    }
    wake_latency
}

/// Processes the next task of `ip`, including its leading idle gap.
/// `gem_cutoff` is the lowest-priority static rank the GEM keeps
/// enabled on a low battery.
#[allow(clippy::too_many_arguments)] // the walk state is deliberately explicit
fn step_task(
    ip: &mut IpWalk<'_>,
    shared: &mut SharedState,
    cfg: &SocConfig,
    gem_cutoff: u8,
    policy: &PolicyTable,
    estimator: &EndOfTaskEstimator,
    others_energy: Energy,
    task: &TaskSpec,
    horizon: SimTime,
) {
    // Leading idle gap, if the task arrives after the IP went idle.
    let mut extra_latency = SimDuration::ZERO;
    if task.arrival > ip.ready {
        let gap = task.arrival.saturating_duration_since(ip.ready);
        extra_latency = handle_gap(ip, shared, cfg, gap, true);
    }
    let mut t0 = task.arrival.max(ip.ready) + extra_latency;
    if t0 >= horizon {
        ip.done = true;
        return;
    }

    let costs = ip.plan.costs(&task.mix);
    match &cfg.controller {
        ControllerKind::AlwaysOn | ControllerKind::Timeout { .. } | ControllerKind::Oracle => {
            shared.advance_to(t0);
            ip.serve(shared, task, &costs, PowerState::On1, t0, horizon);
        }
        ControllerKind::Dpm => {
            // The LEM announces the task's nominal energy to the GEM on
            // request, before any gating or selection (the arithmetic of
            // `EndOfTaskEstimator::task_nominal`).
            let nominal_power = costs.power(PowerState::On1);
            let nominal_time = costs.execution_time(task.instructions, PowerState::On1);
            let nominal = nominal_power * nominal_time;
            ip.last_estimate = nominal;
            loop {
                shared.advance_to(t0);
                if cfg.with_gem {
                    let (enabled, fan) = gem_gate(
                        estimator,
                        cfg.source,
                        gem_cutoff,
                        ip.static_rank,
                        shared.soc(),
                        shared.temp,
                    );
                    shared.fan_on = fan;
                    if !enabled {
                        // Blocked: forced into SL1, re-evaluated at the
                        // monitor sample period.
                        ip.transition(shared, PowerState::Sl1);
                        ip.dwell(shared, PowerState::Sl1, cfg.sample_period);
                        t0 += cfg.sample_period;
                        if t0 >= horizon {
                            ip.done = true;
                            return;
                        }
                        continue;
                    }
                }
                let (battery, temperature) = if cfg.lem.use_estimates {
                    estimator.estimate_nominal(
                        nominal,
                        nominal_time,
                        nominal_power,
                        shared.soc(),
                        dpm_units::Celsius::new(shared.temp),
                        others_energy,
                    )
                } else {
                    (
                        estimator.classify_battery(shared.soc()),
                        estimator.classify_temperature(dpm_units::Celsius::new(shared.temp)),
                    )
                };
                let selection = policy.select(PolicyInputs {
                    priority: task.priority,
                    battery,
                    temperature,
                    source: cfg.source,
                });
                if selection.state.is_execution() {
                    let wake = ip.plan.transitions.cost(ip.state, selection.state);
                    ip.transition(shared, selection.state);
                    let granted = t0 + wake.latency;
                    if granted >= horizon {
                        ip.ready = horizon;
                        ip.done = true;
                        return;
                    }
                    ip.serve(shared, task, &costs, selection.state, granted, horizon);
                    return;
                }
                // Deferred: park in SL1 and re-evaluate one sample later.
                ip.transition(shared, PowerState::Sl1);
                ip.dwell(shared, PowerState::Sl1, cfg.sample_period);
                t0 += cfg.sample_period;
                if t0 >= horizon {
                    ip.done = true;
                    return;
                }
            }
        }
    }
}

/// The Table 1 lookup every coarse walk selects execution states from,
/// built once per process: the rules are fixed, and rebuilding the
/// 120-entry table cost about a third of a coarse walk.
fn table1_lookup() -> &'static PolicyTable {
    static TABLE: OnceLock<PolicyTable> = OnceLock::new();
    TABLE.get_or_init(|| PolicyTable::new(&table1()))
}

impl CoarsePlan {
    /// The plan of `ips`. Its break-even tables are built on first use.
    pub fn new(ips: &[IpConfig]) -> Self {
        Self {
            ips: ips.iter().map(IpPlan::new).collect(),
        }
    }

    /// Evaluates `cfg` over `[0, horizon]` exactly as
    /// [`run_config_coarse`] does, on `ips` — the IPs this plan was
    /// built from — in place of `cfg.ips`, which is not read. So a
    /// caller holding one set of IPs evaluates any number of IP-less
    /// configurations on them without copying a trace.
    ///
    /// # Panics
    ///
    /// Panics when `cfg` with `ips` fails [`SocConfig::validate`], or
    /// when `ips` has another length than the plan's.
    pub fn run(&self, cfg: &SocConfig, ips: &[IpConfig], horizon: SimTime) -> SocMetrics {
        cfg.validate_on(ips);
        assert_eq!(
            ips.len(),
            self.ips.len(),
            "a coarse plan walks the IPs it was built from"
        );
        debug_assert!(ips.iter().zip(&self.ips).all(|(ip, p)| ip.model == p.model));
        let mut shared = SharedState::new(cfg);
        let mut walks: Vec<IpWalk<'_>> = ips
            .iter()
            .zip(&self.ips)
            .map(|(ip, plan)| IpWalk::new(ip, plan, horizon))
            .collect();
        let gem_cutoff = (ips.len() as u8).div_ceil(2);
        let policy = table1_lookup();
        let mut estimator = EndOfTaskEstimator::new(cfg.battery_capacity);
        estimator.ambient = cfg.thermal.ambient;

        // Walk all IPs' decisions in chronological order (ties broken by
        // IP index) so the shared battery/thermal state is sampled
        // consistently.
        loop {
            let mut next: Option<(SimTime, usize)> = None;
            for (i, ip) in walks.iter().enumerate() {
                if ip.done || ip.idx >= ips[i].trace.len() {
                    continue;
                }
                let task = &ips[i].trace.tasks()[ip.idx];
                if task.arrival >= horizon {
                    continue;
                }
                let at = task.arrival.max(ip.ready);
                if next.is_none_or(|(t, _)| at < t) {
                    next = Some((at, i));
                }
            }
            let Some((_, i)) = next else { break };
            let others: Energy = walks
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, w)| w.last_estimate)
                .sum();
            let others = if cfg.with_gem { others } else { Energy::ZERO };
            let task = &ips[i].trace.tasks()[walks[i].idx];
            step_task(
                &mut walks[i],
                &mut shared,
                cfg,
                gem_cutoff,
                policy,
                &estimator,
                others,
                task,
                horizon,
            );
        }

        // Trailing idle: let each controller spend the remaining horizon
        // as it would an ordinary gap (no wake needed), then pad exactly.
        for ip in &mut walks {
            let gap = horizon.saturating_duration_since(ip.ready.min(horizon));
            if !gap.is_zero() && !ip.done {
                handle_gap(ip, &mut shared, cfg, gap, false);
            }
            ip.pad_to(&mut shared, horizon);
        }
        shared.advance_to(horizon);

        let fan_energy = shared.fan_draw * shared.fan_time;
        let mut total_energy = fan_energy;
        let per_ip: Vec<IpMetrics> = walks
            .into_iter()
            .zip(ips)
            .map(|(w, ip_cfg)| {
                total_energy += w.energy + w.psm.transition_energy;
                w.into_metrics(&ip_cfg.name)
            })
            .collect();
        let horizon_secs = horizon.as_secs_f64();
        let mean_temp_elevation = if horizon_secs > 0.0 {
            shared.elevation_ks / horizon_secs
        } else {
            0.0
        };
        SocMetrics {
            per_ip,
            total_energy,
            fan_energy,
            mean_temp_elevation,
            max_temp: dpm_units::Celsius::new(shared.max_temp),
            final_soc: shared.soc(),
            horizon,
        }
    }
}

/// Evaluates `cfg` analytically over `[0, horizon]` — the coarse
/// counterpart of building the SoC and running the event kernel.
///
/// The returned [`SocMetrics`] has the same shape as the fine path's
/// (per-IP records, residency, PSM transition stats, battery/thermal
/// summary), with `lem: None` (the coarse walk keeps no LEM counters).
/// See the module docs for the approximations involved. This builds a
/// [`CoarsePlan`] for `cfg.ips` and walks it once.
///
/// # Panics
///
/// Panics when `cfg` fails [`SocConfig::validate`].
pub fn run_config_coarse(cfg: &SocConfig, horizon: SimTime) -> SocMetrics {
    CoarsePlan::new(&cfg.ips).run(cfg, &cfg.ips, horizon)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_soc;
    use crate::metrics::collect_metrics;
    use dpm_kernel::Simulation;
    use dpm_workload::{ActivityLevel, BurstyGenerator, PriorityWeights, TraceGenerator};

    fn trace(seed: u64) -> dpm_workload::TaskTrace {
        BurstyGenerator::for_activity(ActivityLevel::Low, PriorityWeights::typical_user())
            .generate(SimTime::from_millis(20), seed)
    }

    fn run_fine(cfg: &SocConfig, horizon: SimTime) -> SocMetrics {
        let mut sim = Simulation::new();
        let handles = build_soc(&mut sim, cfg);
        sim.run_until(horizon);
        collect_metrics(&mut sim, &handles, horizon)
    }

    #[test]
    fn residency_and_transitions_cover_the_horizon() {
        let horizon = SimTime::from_millis(60);
        for controller in [
            ControllerKind::AlwaysOn,
            ControllerKind::Dpm,
            ControllerKind::Oracle,
            ControllerKind::Timeout {
                timeout: SimDuration::from_micros(200),
                state: PowerState::Sl2,
            },
        ] {
            let cfg = SocConfig::single_ip(trace(11)).with_controller(controller.clone());
            let m = run_config_coarse(&cfg, horizon);
            for ip in &m.per_ip {
                let total: SimDuration =
                    ip.residency.iter().copied().sum::<SimDuration>() + ip.psm.transition_time;
                assert_eq!(
                    total,
                    horizon.saturating_duration_since(SimTime::ZERO),
                    "{controller:?}"
                );
            }
        }
    }

    #[test]
    fn always_on_matches_fine_closely() {
        let horizon = SimTime::from_millis(60);
        let cfg = SocConfig::single_ip(trace(11)).with_controller(ControllerKind::AlwaysOn);
        let coarse = run_config_coarse(&cfg, horizon);
        let fine = run_fine(&cfg, horizon);
        assert_eq!(coarse.completed(), fine.completed());
        assert_eq!(coarse.total_tasks(), fine.total_tasks());
        // Always-on has no DPM decisions, so energy should agree tightly.
        let rel = (coarse.total_energy.as_joules() - fine.total_energy.as_joules()).abs()
            / fine.total_energy.as_joules();
        assert!(rel < 0.05, "always-on energy off by {:.1}%", rel * 100.0);
    }

    #[test]
    fn dpm_saves_energy_vs_always_on_coarsely() {
        let horizon = SimTime::from_millis(60);
        let dpm = SocConfig::single_ip(trace(11));
        let base = dpm.clone().with_controller(ControllerKind::AlwaysOn);
        let m_dpm = run_config_coarse(&dpm, horizon);
        let m_base = run_config_coarse(&base, horizon);
        assert!(
            m_dpm.total_energy < m_base.total_energy,
            "coarse DPM must save energy: {} vs {}",
            m_dpm.total_energy,
            m_base.total_energy
        );
        assert!(m_dpm.completed() > 0);
    }

    #[test]
    fn coarse_is_deterministic() {
        let horizon = SimTime::from_millis(60);
        let cfg = SocConfig::single_ip(trace(13));
        let a = run_config_coarse(&cfg, horizon);
        let b = run_config_coarse(&cfg, horizon);
        assert_eq!(a.total_energy, b.total_energy);
        assert_eq!(a.final_soc, b.final_soc);
        assert_eq!(a.max_temp, b.max_temp);
        assert_eq!(a.completed(), b.completed());
    }

    #[test]
    fn one_plan_walks_ip_less_configs_like_one_shot_runs() {
        let horizon = SimTime::from_millis(30);
        let ips: Vec<IpConfig> = (0..4u8)
            .map(|i| IpConfig::new(format!("ip{i}"), trace(20 + u64::from(i)), i + 1))
            .collect();
        let plan = CoarsePlan::new(&ips);
        // a low battery makes the GEM gate IPs by static rank
        for soc in [0.95, 0.22] {
            for controller in [
                ControllerKind::Dpm,
                ControllerKind::AlwaysOn,
                ControllerKind::Oracle,
                ControllerKind::Timeout {
                    timeout: SimDuration::from_micros(500),
                    state: PowerState::Sl2,
                },
            ] {
                let mut cfg = SocConfig::multi_ip(ips.clone()).with_controller(controller);
                cfg.initial_soc = dpm_units::Ratio::new(soc);
                let one_shot = run_config_coarse(&cfg, horizon);
                let settings = SocConfig {
                    ips: Vec::new(),
                    ..cfg
                };
                let planned = plan.run(&settings, &ips, horizon);
                // `Debug` prints every float exactly
                assert_eq!(format!("{planned:?}"), format!("{one_shot:?}"));
            }
        }
    }

    /// Tasks 1 ms apart alternating two instruction mixes, so the plan
    /// caches the first task's mix and every other task misses it.
    fn two_mix_trace() -> dpm_workload::TaskTrace {
        let mixes = [
            InstructionMix::typical_compute(),
            InstructionMix::typical_streaming(),
        ];
        let tasks = (0..40u64)
            .map(|i| {
                TaskSpec::new(
                    dpm_workload::TaskId(i),
                    SimTime::from_millis(i),
                    20_000 + 500 * i,
                    mixes[(i % 2) as usize],
                    dpm_workload::Priority::ALL[(i % 4) as usize],
                )
            })
            .collect();
        dpm_workload::TaskTrace::from_tasks(tasks)
    }

    #[test]
    fn cached_mix_figures_equal_the_model_calls() {
        let model = IpPowerModel::default_cpu();
        let mix = InstructionMix::typical_streaming();
        let costs = MixCosts::of(&model, &mix);
        for state in PowerState::EXECUTION {
            assert_eq!(costs.power(state), model.mix_power(state, &mix));
            for instructions in [1, 7, 59_999, 60_000, 123_457, u64::from(u32::MAX)] {
                assert_eq!(
                    costs.execution_time(instructions, state),
                    model.execution_time(instructions, &mix, state).unwrap(),
                    "{state} x {instructions}"
                );
            }
        }
    }

    #[test]
    fn tasks_off_the_cached_mix_take_the_direct_model_figures() {
        let horizon = SimTime::from_millis(45);
        let model = IpPowerModel::default_cpu();
        let on1 = PowerState::On1;
        let trace = two_mix_trace();

        // always-ON1 serves every task on arrival (each runs < 1 ms), so
        // every record and every joule is a direct per-task model figure,
        // summed in the walk's order
        let cfg = SocConfig::single_ip(trace.clone()).with_controller(ControllerKind::AlwaysOn);
        let ip = &run_config_coarse(&cfg, horizon).per_ip[0];
        assert_eq!(ip.records.len(), trace.len());
        let mut energy = Energy::ZERO;
        let mut ready = SimTime::ZERO;
        for (r, task) in ip.records.iter().zip(trace.tasks()) {
            let dt = model
                .execution_time(task.instructions, &task.mix, on1)
                .unwrap();
            assert_eq!(
                (r.granted_at, r.finished_at),
                (task.arrival, task.arrival + dt)
            );
            energy += model.state_power(on1) * task.arrival.saturating_duration_since(ready);
            energy += model.mix_power(on1, &task.mix) * dt;
            ready = task.arrival + dt;
        }
        energy += model.state_power(on1) * horizon.saturating_duration_since(ready);
        assert_eq!(ip.energy, energy);

        // under the LEM, each completed task runs exactly its own mix's
        // execution time in some ON state, never the other mix's
        let cfg = SocConfig::single_ip(trace.clone());
        let ip = &run_config_coarse(&cfg, horizon).per_ip[0];
        assert!(ip.records.len() > trace.len() / 2, "{}", ip.records.len());
        for r in &ip.records {
            let took = r.finished_at.saturating_duration_since(r.granted_at);
            let other = if r.spec.mix == InstructionMix::typical_compute() {
                InstructionMix::typical_streaming()
            } else {
                InstructionMix::typical_compute()
            };
            let time = |mix: &InstructionMix, s| model.execution_time(r.spec.instructions, mix, s);
            assert!(PowerState::EXECUTION
                .into_iter()
                .any(|s| time(&r.spec.mix, s) == Some(took)));
            assert!(PowerState::EXECUTION
                .into_iter()
                .all(|s| time(&other, s) != Some(took)));
        }
    }

    #[test]
    fn mains_never_drains_the_battery() {
        let horizon = SimTime::from_millis(60);
        let mut cfg = SocConfig::single_ip(trace(11));
        cfg.source = PowerSource::Mains;
        let m = run_config_coarse(&cfg, horizon);
        assert_eq!(m.final_soc, cfg.initial_soc.value());
    }
}
