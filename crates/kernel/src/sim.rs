//! The public simulation object: elaboration API and run loop.

use std::collections::HashSet;
use std::time::Instant;

use dpm_units::{SimDuration, SimTime};

use crate::fifo::Fifo;
use crate::ids::{EventId, ProcessId};
use crate::process::{Ctx, Process};
use crate::sched::Sched;
use crate::signal::{Signal, SignalValue};
use crate::stats::{KernelStats, RunOutcome, StopReason};
use crate::trace::{TraceSet, Traceable};

/// Safety valve against combinational loops: a single simulation instant
/// never legitimately needs this many delta cycles in this workspace.
const MAX_DELTAS_PER_TIMESTEP: u64 = 1_000_000;

/// A complete simulation: scheduler plus the processes it drives.
///
/// Usage follows SystemC's two phases:
///
/// 1. **Elaboration** — create signals/events/fifos, add processes, build
///    sensitivity lists, optionally enable tracing.
/// 2. **Simulation** — [`run_until`](Self::run_until) /
///    [`run_for`](Self::run_for) / [`run_to_completion`](Self::run_to_completion).
///
/// Elaboration calls remain legal between runs (SystemC forbids this; we
/// allow it because the experiment harness grows monitors lazily).
pub struct Simulation {
    sched: Sched,
    procs: Vec<ProcEntry>,
    names: HashSet<String>,
    initialized_upto: usize,
}

struct ProcEntry {
    name: String,
    /// `None` only while the process is running (taken out for `react`).
    body: Option<Box<dyn Process>>,
}

impl Default for Simulation {
    fn default() -> Self {
        Self::new()
    }
}

impl Simulation {
    /// An empty simulation at time zero.
    pub fn new() -> Self {
        Self {
            sched: Sched::new(),
            procs: Vec::new(),
            names: HashSet::new(),
            initialized_upto: 0,
        }
    }

    // ---- elaboration ------------------------------------------------------

    fn claim_name(&mut self, kind: &str, name: &str) -> String {
        let full = name.to_owned();
        assert!(
            self.names.insert(format!("{kind}:{full}")),
            "duplicate {kind} name '{full}'"
        );
        full
    }

    /// Creates a typed signal with an initial value.
    ///
    /// # Panics
    ///
    /// Panics if a signal with the same name already exists.
    pub fn signal<T: SignalValue>(&mut self, name: &str, init: T) -> Signal<T> {
        let name = self.claim_name("signal", name);
        self.sched.new_signal(name, init)
    }

    /// Creates a named event.
    ///
    /// # Panics
    ///
    /// Panics if an event with the same name already exists.
    pub fn event(&mut self, name: &str) -> EventId {
        let name = self.claim_name("event", name);
        self.sched.new_event(name)
    }

    /// Creates a bounded fifo channel.
    ///
    /// # Panics
    ///
    /// Panics on duplicate name or zero capacity.
    pub fn fifo<T: 'static>(&mut self, name: &str, capacity: usize) -> Fifo<T> {
        let name = self.claim_name("fifo", name);
        self.sched.new_fifo(name, capacity)
    }

    /// Registers a process. Its `init` runs before the first delta cycle of
    /// the next `run*` call (immediately if the simulation already ran).
    ///
    /// # Panics
    ///
    /// Panics if a process with the same name already exists.
    pub fn add_process<P: Process>(&mut self, name: &str, process: P) -> ProcessId {
        let name = self.claim_name("process", name);
        let pid = ProcessId(u32::try_from(self.procs.len()).expect("too many processes"));
        self.procs.push(ProcEntry {
            name,
            body: Some(Box::new(process)),
        });
        self.sched.register_process_slot();
        pid
    }

    /// Adds `event` to the static sensitivity list of `pid`.
    pub fn sensitize(&mut self, pid: ProcessId, event: EventId) {
        self.sched.subscribe(pid, event);
    }

    /// Makes `pid` sensitive to value changes of `sig`.
    pub fn sensitize_signal<T: SignalValue>(&mut self, pid: ProcessId, sig: Signal<T>) {
        self.sched.subscribe(pid, sig.changed_event());
    }

    /// Enables VCD waveform collection (idempotent).
    pub fn enable_vcd(&mut self) {
        if self.sched.trace.is_none() {
            self.sched.trace = Some(TraceSet::new());
        }
    }

    /// Registers `sig` for VCD tracing.
    ///
    /// # Panics
    ///
    /// Panics if [`enable_vcd`](Self::enable_vcd) was not called first.
    pub fn trace_signal<T: Traceable>(&mut self, sig: Signal<T>) {
        let record = self.sched.signals[sig.index()].as_ref();
        // Work around the borrow: TraceSet::register only needs the record
        // immutably, but trace lives in the same struct. Split via take.
        let mut trace = self
            .sched
            .trace
            .take()
            .expect("call enable_vcd() before trace_signal()");
        trace.register(sig, record);
        self.sched.trace = Some(trace);
    }

    /// Renders the VCD document collected so far, if tracing is enabled.
    pub fn vcd(&self) -> Option<String> {
        self.sched
            .trace
            .as_ref()
            .map(|t| t.render(self.sched.now()))
    }

    // ---- inspection ---------------------------------------------------------

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.sched.now()
    }

    /// Kernel activity counters.
    pub fn stats(&self) -> &KernelStats {
        &self.sched.stats
    }

    /// Reads a signal from outside the simulation (between runs).
    pub fn peek<T: SignalValue>(&self, sig: Signal<T>) -> T {
        self.sched.read_signal(sig)
    }

    /// The registered name of a process.
    pub fn process_name(&self, pid: ProcessId) -> &str {
        &self.procs[pid.index()].name
    }

    /// The registered name of an event.
    pub fn event_name(&self, event: EventId) -> &str {
        &self.sched.events[event.index()].name
    }

    /// Snapshot of every signal as `(name, value)` debug strings — handy
    /// when a model misbehaves.
    pub fn signal_dump(&self) -> Vec<(String, String)> {
        self.sched
            .signals
            .iter()
            .map(|s| (s.name().to_owned(), s.debug_value()))
            .collect()
    }

    /// Snapshot of every fifo as `(name, len, capacity)`.
    pub fn fifo_levels(&self) -> Vec<(String, usize, usize)> {
        self.sched
            .fifos
            .iter()
            .map(|f| (f.name().to_owned(), f.len(), f.capacity()))
            .collect()
    }

    /// Clones the queued contents of a fifo (between runs; for tests and
    /// post-mortem inspection).
    pub fn peek_fifo<T: Clone + 'static>(&self, fifo: Fifo<T>) -> Vec<T> {
        let any: &dyn std::any::Any = &*self.sched.fifos[fifo.index()];
        any.downcast_ref::<crate::fifo::FifoRecord<T>>()
            .expect("fifo handle used with a different value type")
            .queue
            .iter()
            .cloned()
            .collect()
    }

    /// Number of registered processes.
    pub fn process_count(&self) -> usize {
        self.procs.len()
    }

    /// Calls `f` with a typed view of process `pid`.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is not of type `P` or the process is currently
    /// running.
    pub fn with_process<P: Process, R>(&self, pid: ProcessId, f: impl FnOnce(&P) -> R) -> R {
        let body = self.procs[pid.index()]
            .body
            .as_ref()
            .expect("process is currently running");
        let any: &dyn std::any::Any = body.as_ref();
        let typed = any.downcast_ref::<P>().unwrap_or_else(|| {
            panic!(
                "process '{}' has a different type",
                self.procs[pid.index()].name
            )
        });
        f(typed)
    }

    /// Calls `f` with a mutable typed view of process `pid`.
    ///
    /// # Panics
    ///
    /// Same conditions as [`with_process`](Self::with_process).
    pub fn with_process_mut<P: Process, R>(
        &mut self,
        pid: ProcessId,
        f: impl FnOnce(&mut P) -> R,
    ) -> R {
        let name = self.procs[pid.index()].name.clone();
        let body = self.procs[pid.index()]
            .body
            .as_mut()
            .expect("process is currently running");
        let any: &mut dyn std::any::Any = body.as_mut();
        let typed = any
            .downcast_mut::<P>()
            .unwrap_or_else(|| panic!("process '{name}' has a different type"));
        f(typed)
    }

    // ---- simulation ---------------------------------------------------------

    fn run_process(&mut self, pid: ProcessId, phase: Phase) {
        let mut body = self.procs[pid.index()]
            .body
            .take()
            .expect("process re-entered");
        {
            let mut ctx = Ctx {
                sched: &mut self.sched,
                pid,
            };
            match phase {
                Phase::Init => body.init(&mut ctx),
                Phase::React => body.react(&mut ctx),
            }
        }
        self.procs[pid.index()].body = Some(body);
    }

    fn ensure_initialized(&mut self) {
        while self.initialized_upto < self.procs.len() {
            let pid = ProcessId(self.initialized_upto as u32);
            self.initialized_upto += 1;
            self.run_process(pid, Phase::Init);
        }
    }

    /// Runs one delta cycle (evaluate + update). Returns `false` when no
    /// process was runnable.
    fn step_delta(&mut self) -> bool {
        if !self.sched.dispatch_deltas() {
            return false;
        }
        let mut batch = std::mem::take(&mut self.sched.runnable);
        batch.sort_unstable(); // deterministic evaluate order
        for &pid in &batch {
            self.sched.proc_queued[pid.index()] = false;
            self.sched.stats.process_activations += 1;
            self.run_process(pid, Phase::React);
            self.sched.proc_triggers[pid.index()].clear();
        }
        // Processes only enqueue work via delta/timed notifications, so the
        // runnable set stayed empty during evaluate; recycle the allocation.
        debug_assert!(self.sched.runnable.is_empty());
        batch.clear();
        self.sched.runnable = batch;
        self.sched.commit_updates();
        self.sched.stats.delta_cycles += 1;
        true
    }

    /// Runs until simulation time reaches `horizon` (inclusive of events
    /// *at* the horizon), the event queue starves, or a process stops the
    /// simulation.
    pub fn run_until(&mut self, horizon: SimTime) -> RunOutcome {
        let wall_start = Instant::now();
        self.ensure_initialized();
        let reason = loop {
            // Drain the delta cycles of the current instant.
            let mut deltas_here = 0u64;
            while self.step_delta() {
                deltas_here += 1;
                assert!(
                    deltas_here <= MAX_DELTAS_PER_TIMESTEP,
                    "delta cycle runaway at {} (combinational loop?)",
                    self.sched.now()
                );
                if self.sched.stop_requested {
                    break;
                }
            }
            if self.sched.stop_requested {
                self.sched.stop_requested = false;
                break StopReason::Stopped;
            }
            match self.sched.next_event_time() {
                None => break StopReason::Starved,
                Some(t) if t > horizon => {
                    // Park exactly at the horizon so run_for composes.
                    self.sched.advance_to(horizon);
                    break StopReason::HorizonReached;
                }
                Some(t) => self.sched.advance_to(t),
            }
        };
        self.sched.stats.wall += wall_start.elapsed();
        RunOutcome {
            reason,
            now: self.sched.now(),
        }
    }

    /// Runs for `span` of simulation time from the current instant.
    pub fn run_for(&mut self, span: SimDuration) -> RunOutcome {
        self.run_until(self.sched.now() + span)
    }

    /// Runs until the event queue starves or a process stops the
    /// simulation — with a hard safety horizon to keep broken models from
    /// spinning forever.
    pub fn run_to_completion(&mut self, safety_horizon: SimTime) -> RunOutcome {
        self.run_until(safety_horizon)
    }
}

#[derive(Clone, Copy)]
enum Phase {
    Init,
    React,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Relay: increments its output each time its input changes.
    struct Relay {
        input: Signal<u32>,
        output: Signal<u32>,
    }

    impl Process for Relay {
        fn react(&mut self, ctx: &mut Ctx<'_>) {
            let v = ctx.read(self.input);
            ctx.write(self.output, v + 1);
        }
    }

    /// Stimulus: writes an increasing value every 10 ns, `n` times.
    struct Stimulus {
        out: Signal<u32>,
        tick: EventId,
        remaining: u32,
        next: u32,
    }

    impl Process for Stimulus {
        fn init(&mut self, ctx: &mut Ctx<'_>) {
            ctx.notify(self.tick, SimDuration::from_nanos(10));
        }
        fn react(&mut self, ctx: &mut Ctx<'_>) {
            self.next += 1;
            ctx.write(self.out, self.next);
            self.remaining -= 1;
            if self.remaining > 0 {
                ctx.notify(self.tick, SimDuration::from_nanos(10));
            }
        }
    }

    #[test]
    fn pipeline_propagates_with_delta_delays() {
        let mut sim = Simulation::new();
        let a = sim.signal("a", 0u32);
        let b = sim.signal("b", 0u32);
        let c = sim.signal("c", 0u32);
        let tick = sim.event("tick");

        let stim = sim.add_process(
            "stim",
            Stimulus {
                out: a,
                tick,
                remaining: 5,
                next: 0,
            },
        );
        sim.sensitize(stim, tick);
        let r1 = sim.add_process(
            "r1",
            Relay {
                input: a,
                output: b,
            },
        );
        sim.sensitize_signal(r1, a);
        let r2 = sim.add_process(
            "r2",
            Relay {
                input: b,
                output: c,
            },
        );
        sim.sensitize_signal(r2, b);

        let outcome = sim.run_until(SimTime::from_micros(1));
        assert_eq!(outcome.reason, StopReason::Starved);
        assert_eq!(sim.peek(a), 5);
        assert_eq!(sim.peek(b), 6);
        assert_eq!(sim.peek(c), 7);
        // 5 stimulus ticks, each followed by 2 relay deltas.
        assert!(sim.stats().delta_cycles >= 15);
    }

    #[test]
    fn run_until_parks_at_horizon() {
        let mut sim = Simulation::new();
        let a = sim.signal("a", 0u32);
        let tick = sim.event("tick");
        let stim = sim.add_process(
            "stim",
            Stimulus {
                out: a,
                tick,
                remaining: 100,
                next: 0,
            },
        );
        sim.sensitize(stim, tick);
        let outcome = sim.run_until(SimTime::from_nanos(35));
        assert_eq!(outcome.reason, StopReason::HorizonReached);
        assert_eq!(outcome.now, SimTime::from_nanos(35));
        assert_eq!(sim.peek(a), 3);
        // resume seamlessly
        let outcome = sim.run_for(SimDuration::from_nanos(20));
        assert_eq!(outcome.now, SimTime::from_nanos(55));
        assert_eq!(sim.peek(a), 5);
    }

    struct Stopper {
        tick: EventId,
    }
    impl Process for Stopper {
        fn init(&mut self, ctx: &mut Ctx<'_>) {
            ctx.notify(self.tick, SimDuration::from_nanos(7));
        }
        fn react(&mut self, ctx: &mut Ctx<'_>) {
            ctx.stop();
        }
    }

    #[test]
    fn stop_is_honoured_and_resettable() {
        let mut sim = Simulation::new();
        let tick = sim.event("tick");
        let pid = sim.add_process("stopper", Stopper { tick });
        sim.sensitize(pid, tick);
        let outcome = sim.run_until(SimTime::from_micros(1));
        assert_eq!(outcome.reason, StopReason::Stopped);
        assert_eq!(outcome.now, SimTime::from_nanos(7));
        // a subsequent run continues (stop flag cleared)
        let outcome = sim.run_until(SimTime::from_micros(1));
        assert_eq!(outcome.reason, StopReason::Starved);
    }

    #[test]
    fn with_process_roundtrip() {
        let mut sim = Simulation::new();
        let a = sim.signal("a", 0u32);
        let tick = sim.event("tick");
        let pid = sim.add_process(
            "stim",
            Stimulus {
                out: a,
                tick,
                remaining: 3,
                next: 0,
            },
        );
        sim.sensitize(pid, tick);
        sim.run_until(SimTime::from_micros(1));
        let left = sim.with_process::<Stimulus, _>(pid, |s| s.remaining);
        assert_eq!(left, 0);
        assert_eq!(sim.process_name(pid), "stim");
        sim.with_process_mut::<Stimulus, _>(pid, |s| s.remaining = 2);
        assert_eq!(sim.with_process::<Stimulus, _>(pid, |s| s.remaining), 2);
    }

    #[test]
    #[should_panic(expected = "duplicate signal name")]
    fn duplicate_signal_names_rejected() {
        let mut sim = Simulation::new();
        let _ = sim.signal("x", 0u32);
        let _ = sim.signal("x", 0u64);
    }

    #[test]
    fn same_name_across_kinds_is_fine() {
        let mut sim = Simulation::new();
        let _ = sim.signal("x", 0u32);
        let _ = sim.event("x");
        let _ = sim.fifo::<u8>("x", 4);
    }

    #[test]
    fn vcd_contains_definitions_and_changes() {
        let mut sim = Simulation::new();
        sim.enable_vcd();
        let a = sim.signal("top.a", 0u32);
        sim.trace_signal(a);
        let tick = sim.event("tick");
        let pid = sim.add_process(
            "stim",
            Stimulus {
                out: a,
                tick,
                remaining: 2,
                next: 0,
            },
        );
        sim.sensitize(pid, tick);
        sim.run_until(SimTime::from_micros(1));
        let vcd = sim.vcd().expect("tracing enabled");
        assert!(vcd.contains("$timescale 1ps $end"));
        assert!(vcd.contains("$var wire 32 ! top.a $end"));
        assert!(vcd.contains("#10000")); // first change at 10 ns
        assert!(vcd.contains("b1 !"));
        assert!(vcd.contains("b10 !"));
    }
}
