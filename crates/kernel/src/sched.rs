//! The scheduler: event queues, delta cycles and the update phase.
//!
//! This module owns everything except the processes themselves (which live
//! in [`crate::sim::Simulation`]), so a running process can borrow the
//! scheduler mutably through its [`crate::Ctx`] while being borrowed itself.

use std::any::Any;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use dpm_units::{SimDuration, SimTime};

use crate::fifo::{AnyFifo, Fifo, FifoRecord};
use crate::ids::{EventId, ProcessId};
use crate::signal::{AnySignal, Signal, SignalRecord, SignalValue};
use crate::stats::KernelStats;
use crate::trace::TraceSet;

/// Pending-notification state of an event (SystemC's override rules:
/// a delta notification beats any timed one; among timed notifications the
/// earlier one survives).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Pending {
    None,
    Delta,
    At(SimTime),
}

pub(crate) struct EventRecord {
    pub(crate) name: String,
    pub(crate) subscribers: Vec<ProcessId>,
    /// Bumped to invalidate stale heap entries on override/cancel.
    pub(crate) generation: u64,
    pub(crate) pending: Pending,
}

/// Heap entry; `seq` breaks ties FIFO so same-time firing order is total.
#[derive(PartialEq, Eq)]
struct TimedEntry {
    time: SimTime,
    seq: u64,
    event: EventId,
    generation: u64,
}

impl Ord for TimedEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl PartialOrd for TimedEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Everything the kernel owns except process bodies.
pub(crate) struct Sched {
    pub(crate) now: SimTime,
    seq: u64,
    timed: BinaryHeap<Reverse<TimedEntry>>,
    delta_events: Vec<EventId>,
    pub(crate) events: Vec<EventRecord>,
    pub(crate) signals: Vec<Box<dyn AnySignal>>,
    pub(crate) fifos: Vec<Box<dyn AnyFifo>>,
    update_queue: Vec<u32>,
    pub(crate) runnable: Vec<ProcessId>,
    pub(crate) proc_queued: Vec<bool>,
    pub(crate) proc_triggers: Vec<Vec<EventId>>,
    pub(crate) stop_requested: bool,
    pub(crate) stats: KernelStats,
    pub(crate) trace: Option<TraceSet>,
}

impl Sched {
    pub(crate) fn new() -> Self {
        Self {
            now: SimTime::ZERO,
            seq: 0,
            timed: BinaryHeap::new(),
            delta_events: Vec::new(),
            events: Vec::new(),
            signals: Vec::new(),
            fifos: Vec::new(),
            update_queue: Vec::new(),
            runnable: Vec::new(),
            proc_queued: Vec::new(),
            proc_triggers: Vec::new(),
            stop_requested: false,
            stats: KernelStats::default(),
            trace: None,
        }
    }

    #[inline]
    pub(crate) fn now(&self) -> SimTime {
        self.now
    }

    // ---- elaboration -----------------------------------------------------

    pub(crate) fn new_event(&mut self, name: String) -> EventId {
        let id = EventId(u32::try_from(self.events.len()).expect("too many events"));
        self.events.push(EventRecord {
            name,
            subscribers: Vec::new(),
            generation: 0,
            pending: Pending::None,
        });
        id
    }

    pub(crate) fn new_signal<T: SignalValue>(&mut self, name: String, init: T) -> Signal<T> {
        let changed = self.new_event(format!("{name}.changed"));
        let idx = u32::try_from(self.signals.len()).expect("too many signals");
        self.signals
            .push(Box::new(SignalRecord::new(name, init, changed)));
        Signal {
            idx,
            changed,
            _marker: std::marker::PhantomData,
        }
    }

    pub(crate) fn new_fifo<T: 'static>(&mut self, name: String, capacity: usize) -> Fifo<T> {
        let written = self.new_event(format!("{name}.written"));
        let read = self.new_event(format!("{name}.read"));
        let idx = u32::try_from(self.fifos.len()).expect("too many fifos");
        self.fifos
            .push(Box::new(FifoRecord::<T>::new(name, capacity)));
        Fifo {
            idx,
            written,
            read,
            _marker: std::marker::PhantomData,
        }
    }

    pub(crate) fn subscribe(&mut self, pid: ProcessId, event: EventId) {
        let subs = &mut self.events[event.index()].subscribers;
        if !subs.contains(&pid) {
            subs.push(pid);
        }
    }

    pub(crate) fn register_process_slot(&mut self) {
        self.proc_queued.push(false);
        self.proc_triggers.push(Vec::new());
    }

    // ---- event notification ----------------------------------------------

    /// Timed notification. A zero delay is a delta notification, matching
    /// SystemC's `notify(SC_ZERO_TIME)`.
    pub(crate) fn notify(&mut self, event: EventId, delay: SimDuration) {
        if delay.is_zero() {
            self.notify_delta(event);
            return;
        }
        let target = self.now + delay;
        let rec = &mut self.events[event.index()];
        match rec.pending {
            Pending::Delta => {}                // delta fires sooner; discard the timed one
            Pending::At(t) if t <= target => {} // earlier notification wins
            _ => {
                rec.generation += 1;
                rec.pending = Pending::At(target);
                let generation = rec.generation;
                self.seq += 1;
                self.timed.push(Reverse(TimedEntry {
                    time: target,
                    seq: self.seq,
                    event,
                    generation,
                }));
                self.stats.timed_notifications += 1;
            }
        }
    }

    /// Notification for the next delta cycle; overrides any timed one.
    pub(crate) fn notify_delta(&mut self, event: EventId) {
        let rec = &mut self.events[event.index()];
        if rec.pending == Pending::Delta {
            return;
        }
        rec.generation += 1; // invalidates a pending timed entry, if any
        rec.pending = Pending::Delta;
        self.delta_events.push(event);
        self.stats.delta_notifications += 1;
    }

    /// Cancels any pending notification of `event`.
    pub(crate) fn cancel(&mut self, event: EventId) {
        let rec = &mut self.events[event.index()];
        rec.generation += 1;
        rec.pending = Pending::None;
        // A stale entry in `delta_events` is skipped at dispatch because
        // `pending` is no longer `Delta`.
    }

    /// `true` if `event` has a pending (timed or delta) notification.
    pub(crate) fn is_pending(&self, event: EventId) -> bool {
        self.events[event.index()].pending != Pending::None
    }

    fn fire(&mut self, event: EventId) {
        self.stats.events_fired += 1;
        let rec = &mut self.events[event.index()];
        rec.pending = Pending::None;
        // Move subscribers into the runnable set. Cloning the subscriber
        // list would allocate per fire; iterate by index instead.
        for i in 0..self.events[event.index()].subscribers.len() {
            let pid = self.events[event.index()].subscribers[i];
            self.proc_triggers[pid.index()].push(event);
            if !self.proc_queued[pid.index()] {
                self.proc_queued[pid.index()] = true;
                self.runnable.push(pid);
            }
        }
    }

    /// Fires every event notified for this delta. Returns `true` if any
    /// process became runnable.
    pub(crate) fn dispatch_deltas(&mut self) -> bool {
        if self.delta_events.is_empty() {
            return !self.runnable.is_empty();
        }
        let batch = std::mem::take(&mut self.delta_events);
        for event in &batch {
            if self.events[event.index()].pending == Pending::Delta {
                self.fire(*event);
            }
        }
        // Recycle the batch buffer (as commit_updates does): dropping it
        // here would make every delta cycle re-allocate the vector.
        self.delta_events = batch;
        self.delta_events.clear();
        !self.runnable.is_empty()
    }

    // ---- signals -----------------------------------------------------------

    pub(crate) fn read_signal<T: SignalValue>(&self, sig: Signal<T>) -> T {
        self.signal_record(sig).current.clone()
    }

    /// Buffers a write; one that leaves the committed value as it is while
    /// no write is pending queues nothing (see [`crate::signal`]).
    pub(crate) fn write_signal<T: SignalValue>(&mut self, sig: Signal<T>, value: T) {
        let rec = self.signal_record_mut(sig);
        if rec.update_pending {
            rec.next = Some(value);
            return;
        }
        if value == rec.current {
            return;
        }
        rec.next = Some(value);
        rec.update_pending = true;
        self.update_queue.push(sig.idx);
    }

    fn signal_record<T: SignalValue>(&self, sig: Signal<T>) -> &SignalRecord<T> {
        let any: &dyn Any = &*self.signals[sig.index()];
        any.downcast_ref()
            .expect("signal handle used with a different value type")
    }

    fn signal_record_mut<T: SignalValue>(&mut self, sig: Signal<T>) -> &mut SignalRecord<T> {
        let any: &mut dyn Any = &mut *self.signals[sig.index()];
        any.downcast_mut()
            .expect("signal handle used with a different value type")
    }

    /// Update phase: commits buffered writes; changed values notify their
    /// change event for the next delta and stream into the VCD trace.
    pub(crate) fn commit_updates(&mut self) {
        if self.update_queue.is_empty() {
            return;
        }
        let batch = std::mem::take(&mut self.update_queue);
        for idx in &batch {
            self.stats.signal_updates += 1;
            let changed = self.signals[*idx as usize].apply_update();
            if changed {
                self.stats.signal_changes += 1;
                let ev = self.signals[*idx as usize].changed_event();
                self.notify_delta(ev);
                if let Some(trace) = &mut self.trace {
                    trace.record_change(self.now, *idx, self.signals[*idx as usize].as_ref());
                }
            }
        }
        self.update_queue = batch;
        self.update_queue.clear();
    }

    // ---- fifos ---------------------------------------------------------------

    pub(crate) fn fifo_push<T: 'static>(&mut self, fifo: Fifo<T>, value: T) -> Result<(), T> {
        let rec = self.fifo_record_mut(fifo);
        if rec.queue.len() >= rec.capacity {
            return Err(value);
        }
        rec.queue.push_back(value);
        self.notify_delta(fifo.written);
        Ok(())
    }

    /// Pops the oldest value. The data-read event is notified only when
    /// some process is sensitive to it: nothing else can observe it.
    pub(crate) fn fifo_pop<T: 'static>(&mut self, fifo: Fifo<T>) -> Option<T> {
        let value = self.fifo_record_mut(fifo).queue.pop_front();
        if value.is_some() && !self.events[fifo.read.index()].subscribers.is_empty() {
            self.notify_delta(fifo.read);
        }
        value
    }

    pub(crate) fn fifo_len<T: 'static>(&self, fifo: Fifo<T>) -> usize {
        self.fifos[fifo.index()].len()
    }

    fn fifo_record_mut<T: 'static>(&mut self, fifo: Fifo<T>) -> &mut FifoRecord<T> {
        let any: &mut dyn Any = &mut *self.fifos[fifo.index()];
        any.downcast_mut()
            .expect("fifo handle used with a different value type")
    }

    // ---- time ------------------------------------------------------------------

    /// Time of the next valid timed event, discarding stale heap entries.
    pub(crate) fn next_event_time(&mut self) -> Option<SimTime> {
        while let Some(Reverse(head)) = self.timed.peek() {
            let rec = &self.events[head.event.index()];
            let valid = head.generation == rec.generation && rec.pending == Pending::At(head.time);
            if valid {
                return Some(head.time);
            }
            self.timed.pop();
        }
        None
    }

    /// Advances to `t` and fires every valid event scheduled at `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is in the past.
    pub(crate) fn advance_to(&mut self, t: SimTime) {
        assert!(t >= self.now, "scheduler cannot move backwards in time");
        self.now = t;
        self.stats.timesteps += 1;
        while let Some(Reverse(head)) = self.timed.peek() {
            if head.time > t {
                break;
            }
            let Reverse(entry) = self.timed.pop().expect("peeked entry vanished");
            let rec = &self.events[entry.event.index()];
            let valid =
                entry.generation == rec.generation && rec.pending == Pending::At(entry.time);
            if valid {
                self.fire(entry.event);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched_with_event() -> (Sched, EventId) {
        let mut s = Sched::new();
        let ev = s.new_event("e".into());
        s.register_process_slot();
        s.subscribe(ProcessId(0), ev);
        (s, ev)
    }

    #[test]
    fn earlier_timed_notification_wins() {
        let (mut s, ev) = sched_with_event();
        s.notify(ev, SimDuration::from_nanos(10));
        s.notify(ev, SimDuration::from_nanos(5)); // earlier: overrides
        s.notify(ev, SimDuration::from_nanos(20)); // later: discarded
        assert_eq!(s.next_event_time(), Some(SimTime::from_nanos(5)));
        s.advance_to(SimTime::from_nanos(5));
        assert_eq!(s.runnable, vec![ProcessId(0)]);
        // the discarded notifications must not fire afterwards
        assert_eq!(s.next_event_time(), None);
    }

    #[test]
    fn delta_notification_beats_timed() {
        let (mut s, ev) = sched_with_event();
        s.notify(ev, SimDuration::from_nanos(10));
        s.notify_delta(ev);
        assert!(s.dispatch_deltas());
        assert_eq!(s.next_event_time(), None, "timed entry must be stale");
    }

    #[test]
    fn zero_delay_notify_is_delta() {
        let (mut s, ev) = sched_with_event();
        s.notify(ev, SimDuration::ZERO);
        assert_eq!(s.stats.delta_notifications, 1);
        assert!(s.dispatch_deltas());
    }

    #[test]
    fn cancel_suppresses_firing() {
        let (mut s, ev) = sched_with_event();
        s.notify(ev, SimDuration::from_nanos(3));
        s.cancel(ev);
        assert_eq!(s.next_event_time(), None);
        s.notify_delta(ev);
        s.cancel(ev);
        assert!(!s.dispatch_deltas());
    }

    #[test]
    fn same_time_events_fire_in_notify_order() {
        let mut s = Sched::new();
        let e1 = s.new_event("e1".into());
        let e2 = s.new_event("e2".into());
        s.register_process_slot();
        s.register_process_slot();
        s.subscribe(ProcessId(1), e2);
        s.subscribe(ProcessId(0), e1);
        s.notify(e2, SimDuration::from_nanos(5));
        s.notify(e1, SimDuration::from_nanos(5));
        s.advance_to(SimTime::from_nanos(5));
        // both fire at the same instant; runnable order follows firing order,
        // but the evaluate phase sorts by pid anyway.
        assert_eq!(s.runnable.len(), 2);
        assert_eq!(s.stats.events_fired, 2);
    }

    #[test]
    fn signal_update_notifies_only_on_change() {
        let mut s = Sched::new();
        let sig = s.new_signal("s".into(), 7u32);
        s.register_process_slot();
        s.subscribe(ProcessId(0), sig.changed_event());
        s.write_signal(sig, 7);
        s.commit_updates();
        assert!(!s.dispatch_deltas(), "same value: no wakeup");
        s.write_signal(sig, 8);
        s.commit_updates();
        assert!(s.dispatch_deltas());
        assert_eq!(s.read_signal(sig), 8);
    }

    #[test]
    fn last_write_in_delta_wins() {
        let mut s = Sched::new();
        let sig = s.new_signal("s".into(), 0u32);
        s.write_signal(sig, 1);
        s.write_signal(sig, 2);
        s.commit_updates();
        assert_eq!(s.read_signal(sig), 2);
        assert_eq!(s.stats.signal_updates, 1, "one pending slot per signal");
    }

    #[test]
    fn writing_the_committed_value_queues_no_update() {
        let mut s = Sched::new();
        let sig = s.new_signal("s".into(), 7u32);
        s.register_process_slot();
        s.subscribe(ProcessId(0), sig.changed_event());
        s.write_signal(sig, 7);
        s.commit_updates();
        assert_eq!(s.stats.signal_updates, 0, "no write was queued");
        assert!(!s.dispatch_deltas(), "no process wakes");
        // a pending write is still replaced: the last write wins
        s.write_signal(sig, 8);
        s.write_signal(sig, 7);
        s.commit_updates();
        assert_eq!(s.read_signal(sig), 7);
        assert_eq!(s.stats.signal_changes, 0);
        assert!(!s.dispatch_deltas(), "no change event");
    }

    #[test]
    fn fifo_read_event_is_notified_only_when_heard() {
        let mut s = Sched::new();
        let f = s.new_fifo::<u32>("f".into(), 2);
        s.register_process_slot();
        assert!(s.fifo_push(f, 1).is_ok());
        assert_eq!(s.fifo_pop(f), Some(1));
        s.dispatch_deltas();
        assert_eq!(s.stats.events_fired, 1, "only the written event fires");
        s.subscribe(ProcessId(0), f.read_event());
        assert!(s.fifo_push(f, 2).is_ok());
        assert_eq!(s.fifo_pop(f), Some(2));
        assert!(s.dispatch_deltas(), "the sensitive process wakes");
        assert_eq!(s.stats.events_fired, 3);
    }

    #[test]
    fn fifo_push_pop_and_capacity() {
        let mut s = Sched::new();
        let f = s.new_fifo::<u32>("f".into(), 2);
        assert!(s.fifo_push(f, 1).is_ok());
        assert!(s.fifo_push(f, 2).is_ok());
        assert_eq!(s.fifo_push(f, 3), Err(3));
        assert_eq!(s.fifo_len(f), 2);
        assert_eq!(s.fifo_pop(f), Some(1));
        assert_eq!(s.fifo_pop(f), Some(2));
        assert_eq!(s.fifo_pop(f), None);
    }

    #[test]
    #[should_panic(expected = "different value type")]
    fn type_confusion_panics() {
        let mut s = Sched::new();
        let sig = s.new_signal("s".into(), 0u32);
        let wrong = Signal::<u64> {
            idx: sig.idx,
            changed: sig.changed,
            _marker: std::marker::PhantomData,
        };
        let _ = s.read_signal(wrong);
    }

    #[test]
    #[should_panic(expected = "backwards in time")]
    fn time_cannot_reverse() {
        let mut s = Sched::new();
        s.advance_to(SimTime::from_nanos(10));
        s.advance_to(SimTime::from_nanos(5));
    }
}
