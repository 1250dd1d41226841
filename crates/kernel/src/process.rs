//! Method processes and the context they react through.

use std::any::Any;

use dpm_units::{SimDuration, SimTime};

use crate::fifo::Fifo;
use crate::ids::{EventId, ProcessId};
use crate::sched::Sched;
use crate::signal::{Signal, SignalValue};

/// A reactive method process (the `SC_METHOD` equivalent).
///
/// Processes never block: [`Process::react`] runs to completion inside one
/// delta cycle, reading and writing signals, pushing/popping fifos and
/// (re)scheduling events through the [`Ctx`]. State machines keep their
/// state in `self` between activations.
///
/// The `Any` supertrait lets
/// [`Simulation::with_process`](crate::Simulation::with_process) hand typed
/// references back after elaboration.
pub trait Process: Any {
    /// Called once before the first delta cycle (or immediately when the
    /// process is added to an already-running simulation). Typical use:
    /// schedule the first activation.
    fn init(&mut self, ctx: &mut Ctx<'_>) {
        let _ = ctx;
    }

    /// Called whenever an event in this process's sensitivity list fires.
    fn react(&mut self, ctx: &mut Ctx<'_>);
}

/// The kernel interface handed to a process while it runs.
///
/// All mutating calls follow SystemC semantics: signal writes are buffered
/// until the update phase, event notifications obey the
/// earlier-notification-wins rule, fifo operations notify their events for
/// the next delta cycle.
pub struct Ctx<'a> {
    pub(crate) sched: &'a mut Sched,
    pub(crate) pid: ProcessId,
}

impl Ctx<'_> {
    /// Current simulation time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.sched.now()
    }

    /// The id of the running process.
    #[inline]
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// Current value of `sig` (the value committed in the last update
    /// phase; writes from the current delta are not visible yet).
    #[inline]
    pub fn read<T: SignalValue>(&self, sig: Signal<T>) -> T {
        self.sched.read_signal(sig)
    }

    /// Buffers a write to `sig`, committed in this delta's update phase.
    /// The last write in a delta wins. Sensitive processes wake up one
    /// delta later, and only if the value actually changed. A write of
    /// the current value while no write of the delta is pending queues
    /// nothing.
    #[inline]
    pub fn write<T: SignalValue>(&mut self, sig: Signal<T>, value: T) {
        self.sched.write_signal(sig, value);
    }

    /// Notifies `event` after `delay`. A zero delay is a delta
    /// notification. If a notification is already pending, the earlier one
    /// survives (SystemC override rule).
    #[inline]
    pub fn notify(&mut self, event: EventId, delay: SimDuration) {
        self.sched.notify(event, delay);
    }

    /// Notifies `event` for the next delta cycle, overriding any pending
    /// timed notification.
    #[inline]
    pub fn notify_delta(&mut self, event: EventId) {
        self.sched.notify_delta(event);
    }

    /// Cancels any pending notification of `event`.
    #[inline]
    pub fn cancel(&mut self, event: EventId) {
        self.sched.cancel(event);
    }

    /// `true` if `event` has a pending notification.
    #[inline]
    pub fn is_pending(&self, event: EventId) -> bool {
        self.sched.is_pending(event)
    }

    /// `true` if `event` is one of the triggers that activated this run of
    /// `react`.
    #[inline]
    pub fn triggered(&self, event: EventId) -> bool {
        self.sched.proc_triggers[self.pid.index()].contains(&event)
    }

    /// Pushes into a bounded fifo.
    ///
    /// # Errors
    ///
    /// Returns the value back if the fifo is full.
    #[inline]
    pub fn fifo_push<T: 'static>(&mut self, fifo: Fifo<T>, value: T) -> Result<(), T> {
        self.sched.fifo_push(fifo, value)
    }

    /// Pops the oldest element, or `None` if the fifo is empty.
    #[inline]
    pub fn fifo_pop<T: 'static>(&mut self, fifo: Fifo<T>) -> Option<T> {
        self.sched.fifo_pop(fifo)
    }

    /// Number of queued elements.
    #[inline]
    pub fn fifo_len<T: 'static>(&self, fifo: Fifo<T>) -> usize {
        self.sched.fifo_len(fifo)
    }

    /// `true` when the fifo holds no elements.
    #[inline]
    pub fn fifo_is_empty<T: 'static>(&self, fifo: Fifo<T>) -> bool {
        self.sched.fifo_len(fifo) == 0
    }

    /// Requests the scheduler to return after the current delta cycle
    /// (the `sc_stop` equivalent).
    #[inline]
    pub fn stop(&mut self) {
        self.sched.stop_requested = true;
    }
}
