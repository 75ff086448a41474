//! Deterministic parallel execution on one substrate: scoped threads.
//!
//! Every parallel job runs on threads spawned with [`std::thread::scope`] for
//! the duration of one call and joined before it returns.  Workers borrow
//! their inputs, so nothing needs a `'static` bound, an `Arc` or a poison
//! flag, and a worker's panic reaches the caller when the scope joins.  One
//! determinism contract holds throughout: any parallel run is byte-identical
//! to a sequential one.
//!
//! * **Per sweep** — [`parallel_map`] claims jobs with an atomic cursor, so
//!   long and short jobs balance, and returns the results in **input order**.
//!   A sweep job is a whole simulation.
//! * **Per fleet session** — each `FleetEngine::run_epochs_on` call (see
//!   `core::fleet`) is one scope: worker `w` borrows the `w`-th contiguous
//!   chunk of shards for every epoch of the call, with the calling thread as
//!   worker 0, and the driver trades arrival batches for completion counters
//!   with the spawned workers over one-slot channels at each barrier.  A
//!   one-worker session spawns nothing: it is how a fleet runs sequentially.
//!
//! `Parallelism::workers` sizes both, once per call.  [`WorkerPool`] is no
//! more than a worker count for `run_epochs_on`; it holds no threads.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// How a job list is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// One job at a time on the calling thread.
    Sequential,
    /// Worker threads, one per available core (capped by the job count).
    #[default]
    Auto,
    /// Exactly this many worker threads (capped by the job count).  The
    /// determinism tests use it to force the multi-threaded path even on a
    /// single-core machine.
    Threads(usize),
}

impl Parallelism {
    /// Number of worker threads for `jobs` parallel units (sweep jobs, fleet
    /// shards): `1` under [`Parallelism::Sequential`], otherwise the requested
    /// or available thread count capped by `jobs`, and at least one.
    pub(crate) fn workers(self, jobs: usize) -> usize {
        match self {
            Parallelism::Sequential => 1,
            Parallelism::Auto => std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
                .min(jobs)
                .max(1),
            Parallelism::Threads(n) => n.min(jobs).max(1),
        }
    }
}

/// Applies `f` to every item of `items`, returning the results in input order.
///
/// Under [`Parallelism::Auto`] the items are claimed dynamically by scoped
/// worker threads (an atomic cursor, so long and short jobs balance); the
/// collected results are reordered by input index before returning, making the
/// output independent of scheduling.  `f` must be deterministic for the
/// sequential and parallel paths to agree byte-for-byte — the simulator
/// guarantees this for a fixed seed.
pub fn parallel_map<T, R, F>(parallelism: Parallelism, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = parallelism.workers(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(items.len()));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut local: Vec<(usize, R)> = Vec::new();
                loop {
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(idx) else {
                        break;
                    };
                    local.push((idx, f(item)));
                }
                collected
                    .lock()
                    .expect("worker thread panicked while holding the result lock")
                    .append(&mut local);
            });
        }
    });

    let mut results = collected
        .into_inner()
        .expect("worker thread panicked while holding the result lock");
    results.sort_by_key(|(idx, _)| *idx);
    results.into_iter().map(|(_, result)| result).collect()
}

/// The worker count of a fleet session (`FleetEngine::run_epochs_on`).
///
/// A plain count: constructing one spawns no thread, since each session spawns
/// its own scoped workers.  It remains as the benchmark's sizing handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerPool {
    workers: usize,
}

impl WorkerPool {
    /// A count of `workers` (at least one).
    pub fn new(workers: usize) -> Self {
        WorkerPool {
            workers: workers.max(1),
        }
    }

    /// Number of workers.
    pub(crate) fn workers(&self) -> usize {
        self.workers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let doubled = parallel_map(Parallelism::Auto, &items, |x| x * 2);
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let items: Vec<u64> = (0..57).collect();
        let f = |x: &u64| x.wrapping_mul(0x9E3779B97F4A7C15).rotate_left(17);
        assert_eq!(
            parallel_map(Parallelism::Sequential, &items, f),
            parallel_map(Parallelism::Auto, &items, f)
        );
    }

    #[test]
    fn forced_thread_counts_agree_with_sequential() {
        let items: Vec<u64> = (0..33).collect();
        let f = |x: &u64| x.wrapping_mul(31).wrapping_add(7);
        let sequential = parallel_map(Parallelism::Sequential, &items, f);
        for workers in [2, 4, 7] {
            assert_eq!(
                parallel_map(Parallelism::Threads(workers), &items, f),
                sequential,
                "{workers} workers"
            );
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let none: Vec<u32> = Vec::new();
        assert!(parallel_map(Parallelism::Auto, &none, |x| *x).is_empty());
    }

    #[test]
    fn uneven_job_durations_balance() {
        // Long jobs first: dynamic claiming must still return ordered results.
        let items: Vec<u64> = (0..16).rev().collect();
        let results = parallel_map(Parallelism::Auto, &items, |&x| {
            std::thread::sleep(std::time::Duration::from_micros(x * 50));
            x
        });
        assert_eq!(results, items);
    }

    #[test]
    fn pool_sizing_derives_from_parallelism_once() {
        assert_eq!(Parallelism::Sequential.workers(8), 1);
        assert_eq!(Parallelism::Threads(4).workers(8), 4);
        assert_eq!(Parallelism::Threads(4).workers(2), 2, "capped by jobs");
        assert_eq!(Parallelism::Threads(0).workers(8), 1, "at least one");
        assert_eq!(
            Parallelism::Threads(4).workers(0),
            1,
            "at least one, even with no jobs"
        );
        assert_eq!(
            Parallelism::Auto.workers(0),
            1,
            "at least one, even with no jobs"
        );
        let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        assert_eq!(Parallelism::Auto.workers(usize::MAX), cores);
        assert_eq!(
            WorkerPool::new(Parallelism::Threads(5).workers(3)).workers(),
            3
        );
        assert_eq!(WorkerPool::new(0).workers(), 1);
    }
}
