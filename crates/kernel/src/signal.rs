//! Typed signals with SystemC `sc_signal` update semantics.
//!
//! A write during the evaluate phase is buffered in the signal's *next*
//! slot; the scheduler commits it in the update phase and, only if the
//! committed value differs from the current one, notifies the signal's
//! value-changed event for the following delta cycle.
//!
//! As in `sc_signal::write`, a write that equals the committed value
//! while no write of the delta is pending stops at the write: it queues
//! no update, so it costs the update phase nothing. A write on top of a
//! pending one always replaces it, so the last write of a delta wins,
//! even when it restores the committed value.

use core::any::Any;
use core::fmt;
use core::marker::PhantomData;

use crate::ids::EventId;

/// Values a [`Signal`] can carry.
///
/// The `PartialEq` bound implements SystemC's change detection: sensitive
/// processes wake up only when a committed write actually changes the
/// value. This trait is blanket-implemented; never implement it manually.
pub trait SignalValue: Clone + PartialEq + fmt::Debug + 'static {}

impl<T: Clone + PartialEq + fmt::Debug + 'static> SignalValue for T {}

/// Cheap copyable handle to a typed signal.
///
/// Obtained from [`Simulation::signal`](crate::Simulation::signal); carries
/// the id of the value-changed event so modules can put themselves on its
/// sensitivity list.
pub struct Signal<T> {
    pub(crate) idx: u32,
    pub(crate) changed: EventId,
    pub(crate) _marker: PhantomData<fn() -> T>,
}

impl<T> Signal<T> {
    /// The event notified one delta after a committed value change.
    #[inline]
    pub const fn changed_event(self) -> EventId {
        self.changed
    }

    /// Dense index of this signal inside the kernel store.
    #[inline]
    pub const fn index(self) -> usize {
        self.idx as usize
    }
}

// Manual impls: `derive` would wrongly require `T: Clone` etc.
impl<T> Clone for Signal<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Signal<T> {}
impl<T> PartialEq for Signal<T> {
    fn eq(&self, other: &Self) -> bool {
        self.idx == other.idx
    }
}
impl<T> Eq for Signal<T> {}
impl<T> fmt::Debug for Signal<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Signal#{}", self.idx)
    }
}

/// Type-erased storage record; the scheduler talks to signals through this.
pub(crate) trait AnySignal: Any {
    /// Commits a buffered write. Returns `true` when the value changed.
    fn apply_update(&mut self) -> bool;
    /// The value-changed event of this signal.
    fn changed_event(&self) -> EventId;
    /// Hierarchical name (for tracing and diagnostics).
    fn name(&self) -> &str;
    /// Current value formatted for traces.
    fn debug_value(&self) -> String;
}

/// Concrete storage for a `Signal<T>`.
pub(crate) struct SignalRecord<T: SignalValue> {
    pub(crate) name: String,
    pub(crate) current: T,
    pub(crate) next: Option<T>,
    pub(crate) changed: EventId,
    /// Set while the record sits in the scheduler's update queue.
    pub(crate) update_pending: bool,
}

impl<T: SignalValue> SignalRecord<T> {
    pub(crate) fn new(name: String, init: T, changed: EventId) -> Self {
        Self {
            name,
            current: init,
            next: None,
            changed,
            update_pending: false,
        }
    }
}

impl<T: SignalValue> AnySignal for SignalRecord<T> {
    fn apply_update(&mut self) -> bool {
        self.update_pending = false;
        match self.next.take() {
            Some(next) if next != self.current => {
                self.current = next;
                true
            }
            _ => false,
        }
    }

    fn changed_event(&self) -> EventId {
        self.changed
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn debug_value(&self) -> String {
        format!("{:?}", self.current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_update_detects_change() {
        let mut rec = SignalRecord::new("s".into(), 1u32, EventId(0));
        rec.next = Some(1);
        assert!(!rec.apply_update(), "same value must not report a change");
        rec.next = Some(2);
        assert!(rec.apply_update());
        assert_eq!(rec.current, 2);
        assert!(!rec.apply_update(), "no pending write, no change");
    }

    #[test]
    fn handles_compare_by_index() {
        let a = Signal::<u8> {
            idx: 1,
            changed: EventId(0),
            _marker: PhantomData,
        };
        let b = Signal::<u8> {
            idx: 1,
            changed: EventId(9),
            _marker: PhantomData,
        };
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), "Signal#1");
    }
}
