//! Bounded fifo channels, the `sc_fifo` equivalent.
//!
//! Pushes and pops take effect immediately (the queue is visible within the
//! same delta, in process-id order, which is deterministic); the
//! *data-written* and *data-read* events are notified for the **next** delta
//! cycle so consumers and producers wake up exactly once per transfer burst.
//! The data-read event is notified only while some process is sensitive to
//! it.

use core::any::Any;
use core::fmt;
use core::marker::PhantomData;
use std::collections::VecDeque;

use crate::ids::EventId;

/// Cheap copyable handle to a typed bounded fifo.
///
/// Obtained from [`Simulation::fifo`](crate::Simulation::fifo).
pub struct Fifo<T> {
    pub(crate) idx: u32,
    pub(crate) written: EventId,
    pub(crate) read: EventId,
    pub(crate) _marker: PhantomData<fn() -> T>,
}

impl<T> Fifo<T> {
    /// Event notified (next delta) after one or more successful pushes.
    #[inline]
    pub const fn written_event(self) -> EventId {
        self.written
    }

    /// Event notified (next delta) after one or more successful pops,
    /// while some process is sensitive to it: a pop that no process can
    /// hear notifies nothing.
    #[inline]
    pub const fn read_event(self) -> EventId {
        self.read
    }

    /// Dense index of this fifo inside the kernel store.
    #[inline]
    pub const fn index(self) -> usize {
        self.idx as usize
    }
}

impl<T> Clone for Fifo<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Fifo<T> {}
impl<T> PartialEq for Fifo<T> {
    fn eq(&self, other: &Self) -> bool {
        self.idx == other.idx
    }
}
impl<T> Eq for Fifo<T> {}
impl<T> fmt::Debug for Fifo<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fifo#{}", self.idx)
    }
}

/// Type-erased fifo storage.
pub(crate) trait AnyFifo: Any {
    fn name(&self) -> &str;
    fn len(&self) -> usize;
    fn capacity(&self) -> usize;
}

pub(crate) struct FifoRecord<T: 'static> {
    pub(crate) name: String,
    pub(crate) queue: VecDeque<T>,
    pub(crate) capacity: usize,
}

impl<T: 'static> FifoRecord<T> {
    pub(crate) fn new(name: String, capacity: usize) -> Self {
        assert!(capacity > 0, "fifo '{name}' must have capacity >= 1");
        Self {
            name,
            queue: VecDeque::with_capacity(capacity.min(64)),
            capacity,
        }
    }
}

impl<T: 'static> AnyFifo for FifoRecord<T> {
    fn name(&self) -> &str {
        &self.name
    }

    fn len(&self) -> usize {
        self.queue.len()
    }

    fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_tracks_len_and_capacity() {
        let mut rec = FifoRecord::<u8>::new("f".into(), 2);
        assert_eq!(rec.capacity(), 2);
        rec.queue.push_back(1);
        assert_eq!(rec.len(), 1);
        assert_eq!(rec.name(), "f");
    }

    #[test]
    #[should_panic(expected = "capacity >= 1")]
    fn zero_capacity_rejected() {
        let _ = FifoRecord::<u8>::new("f".into(), 0);
    }

    #[test]
    fn handles_compare_by_index() {
        let a = Fifo::<u8> {
            idx: 3,
            written: EventId(0),
            read: EventId(1),
            _marker: PhantomData,
        };
        assert_eq!(format!("{a:?}"), "Fifo#3");
        assert_eq!(a.written_event(), EventId(0));
        assert_eq!(a.read_event(), EventId(1));
    }
}
