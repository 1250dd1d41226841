//! In-process execution: the scoped-thread pool every campaign and
//! search runs on.
//!
//! The runner owns no thread loop; it dispatches independent **work
//! units** through a [`ThreadPool`] (self-scheduling over an atomic
//! counter). A call whose width — the pool's parallelism capped at the
//! unit count — is 1 spawns nothing: it runs its units in index order on
//! the caller's thread, so `--threads 1` runs and one-unit phases pay no
//! thread spawn and join. Results are byte-identical for any width
//! because every result is keyed by unit index and every simulation is
//! deterministic.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// The machine's available parallelism (at least 1), resolved once per
/// process: `std::thread::available_parallelism` reads cgroup files on
/// every call, and `threads = 0` is resolved on every batch.
pub(crate) fn available_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The in-process backend: scoped OS threads pulling unit indices from a
/// shared atomic counter (work stealing degenerates to self-scheduling
/// because every unit is independent).
///
/// A call's width is `parallelism().min(units)`. At width 1 the pool
/// spawns no thread: the units run in index order on the caller's
/// thread. Wider calls spawn `width` scoped threads, joined before
/// `execute` returns.
#[derive(Debug, Clone, Copy)]
pub struct ThreadPool {
    /// Worker threads; `0` selects the machine's available parallelism.
    pub threads: usize,
}

impl ThreadPool {
    /// A pool of `threads` workers (`0` = auto).
    pub fn new(threads: usize) -> Self {
        Self { threads }
    }

    /// Executes `unit(i)` for every `i in 0..units`, returning when all
    /// units have run. Units may run in any order and interleaving;
    /// callers key results by unit index, so scheduling never changes
    /// observable results.
    pub fn execute(&self, units: usize, unit: &(dyn Fn(usize) + Sync)) {
        let width = self.parallelism().min(units);
        if width <= 1 {
            (0..units).for_each(unit);
            return;
        }
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..width {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= units {
                        break;
                    }
                    unit(i);
                });
            }
        });
    }

    /// The pool's width: `threads`, or the machine's available
    /// parallelism when `threads` is 0. [`Self::execute`] caps it at the
    /// unit count and runs inline at width 1, and
    /// [`crate::search::drive_strategy`] sizes its prefetch slots by it.
    pub fn parallelism(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            available_threads()
        }
    }
}

/// Index-ordered parallel map over a [`ThreadPool`]: `job(i)` for `i in
/// 0..n`, results in index order regardless of execution interleaving.
pub fn map_units<T: Send + Sync>(
    pool: &ThreadPool,
    n: usize,
    job: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let slots: Vec<OnceLock<T>> = (0..n).map(|_| OnceLock::new()).collect();
    pool.execute(n, &|i| {
        // each index is scheduled exactly once, so the slot is empty
        let _ = slots[i].set(job(i));
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every unit ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn thread_pool_runs_every_unit_exactly_once() {
        for threads in [1, 2, 8] {
            let pool = ThreadPool::new(threads);
            let hits: Vec<AtomicUsize> = (0..17).map(|_| AtomicUsize::new(0)).collect();
            pool.execute(hits.len(), &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn width_one_calls_run_on_the_callers_thread() {
        let caller = std::thread::current().id();
        for (threads, units) in [(1, 17), (8, 1)] {
            let ran = std::sync::Mutex::new(Vec::new());
            ThreadPool::new(threads).execute(units, &|i| {
                assert_eq!(std::thread::current().id(), caller);
                ran.lock().expect("no unit panicked").push(i);
            });
            let ran = ran.into_inner().expect("no unit panicked");
            assert_eq!(ran, (0..units).collect::<Vec<_>>(), "index order");
        }
    }

    #[test]
    fn map_units_keeps_index_order_on_any_width() {
        for threads in [1, 3, 16] {
            let pool = ThreadPool::new(threads);
            let out = map_units(&pool, 33, |i| i * i);
            assert_eq!(out, (0..33).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_units_is_a_no_op() {
        let pool = ThreadPool::new(4);
        let out: Vec<usize> = map_units(&pool, 0, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn auto_width_resolves_to_at_least_one() {
        assert!(ThreadPool::new(0).parallelism() >= 1);
        assert_eq!(ThreadPool::new(3).parallelism(), 3);
    }
}
