//! Deterministic parallel execution: scoped fan-out and the persistent
//! [`WorkerPool`].
//!
//! Two execution substrates live here, one per job shape, sharing one
//! determinism contract (any parallel run is byte-identical to a sequential
//! one):
//!
//! * **Scoped fan-out** — [`parallel_map`] spawns scoped worker threads for
//!   the duration of one job list, joins them before returning and collects
//!   results in **input order**.  Right for sweeps, whose every job is a whole
//!   simulation: it borrows its inputs, so it needs no `'static` bounds, no
//!   `Arc` and no poison flags.
//! * **The persistent pool** — [`WorkerPool`] spawns its workers **once** and
//!   keeps them alive until the pool is dropped.  Work arrives over per-worker
//!   channels; between jobs the workers block on their channel, costing
//!   nothing.  The fleet engine pins one long-lived worker to each group of
//!   shards for a whole run (see `core::fleet`), where a per-epoch spawn/join
//!   cycle would dominate the barrier.
//!
//! # Pool lifecycle
//!
//! 1. **Spawn-once.**  [`WorkerPool::new`] spawns `workers` OS threads.
//!    Callers size the pool with [`Parallelism::workers`] — for
//!    [`Parallelism::Auto`] that is `min(jobs, available cores)` computed
//!    **once** at construction, never re-derived per epoch.
//! 2. **Sessions.**  [`WorkerPool::submit`] hands a worker a long-running job
//!    (the fleet engine submits one *session* per worker that owns its pinned
//!    shards across every epoch).  Rendezvous inside a session is the
//!    caller's protocol — the fleet uses an atomic epoch counter plus
//!    [`std::thread::park`]/`unpark` and double-buffered mailboxes, so its
//!    barrier costs two parks per epoch instead of K thread spawns.
//! 3. **Shutdown.**  Dropping the pool closes every channel; workers drain
//!    what they hold and exit, and the drop joins them.  A panicking job never
//!    kills its worker (the pool catches it and the submitting side observes
//!    the failure through the job's own completion accounting), so the pool
//!    always joins cleanly — including when a fleet run panics mid-epoch.

use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::Mutex;
use std::thread::JoinHandle;

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
    pub fn workers(self, jobs: usize) -> usize {
        match self {
            Parallelism::Sequential => 1,
            Parallelism::Auto => std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
                .min(jobs),
            Parallelism::Threads(n) => n.max(1).min(jobs),
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

/// A job queued onto a pool worker.
type Job = Box<dyn FnOnce(usize) + Send + 'static>;

/// A pool of persistent worker threads (see the [module docs](self) for the
/// lifecycle).
///
/// Workers are spawned once at construction and live until the pool is
/// dropped; between jobs they block on their submission channel.  Jobs are
/// addressed to a **specific** worker ([`WorkerPool::submit`]) so callers can
/// pin long-lived state — the fleet engine pins each shard's spine to one
/// worker for a whole run, moving it across threads zero times instead of
/// once per epoch.
pub struct WorkerPool {
    senders: Vec<Sender<Job>>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns a pool of `workers` persistent threads (at least one).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let mut senders = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for index in 0..workers {
            let (tx, rx) = channel::<Job>();
            let handle = std::thread::Builder::new()
                .name(format!("versaslot-pool-{index}"))
                .spawn(move || {
                    while let Ok(job) = rx.recv() {
                        // A panicking job must not take the worker down with
                        // it: the submitting side observes the failure through
                        // the job's own completion accounting, and the worker
                        // lives on for the next job.
                        let _ = catch_unwind(AssertUnwindSafe(|| job(index)));
                    }
                })
                .expect("spawning a pool worker thread");
            senders.push(tx);
            handles.push(handle);
        }
        WorkerPool { senders, handles }
    }

    /// Number of persistent workers.
    pub fn workers(&self) -> usize {
        self.senders.len()
    }

    /// Queues `job` onto worker `worker` (jobs on one worker run in
    /// submission order).  The job receives the worker's index.
    ///
    /// # Panics
    ///
    /// Panics if `worker >= self.workers()`.
    pub fn submit(&self, worker: usize, job: impl FnOnce(usize) + Send + 'static) {
        self.senders[worker]
            .send(Box::new(job))
            .expect("pool workers outlive the pool handle");
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the channels lets each worker drain what it holds and exit;
        // joining ignores worker panics (job panics were already caught, and a
        // double panic during unwind would abort).
        self.senders.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

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
        let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        assert_eq!(Parallelism::Auto.workers(usize::MAX), cores);
        assert_eq!(
            WorkerPool::new(Parallelism::Threads(5).workers(3)).workers(),
            3
        );
    }

    #[test]
    fn pool_survives_a_panicking_job_and_joins_cleanly() {
        let pool = WorkerPool::new(2);
        pool.submit(0, |_| panic!("job exploded"));
        // The worker survived: a job queued behind the panic still runs...
        let (tx, rx) = std::sync::mpsc::channel();
        pool.submit(0, move |index| tx.send(index * 10 + 7).unwrap());
        assert_eq!(rx.recv().unwrap(), 7);
        // ...and dropping the pool joins without hanging (the test finishing
        // is the assertion).
        drop(pool);
    }

    #[test]
    fn pinned_submissions_run_on_their_worker_in_order() {
        let pool = WorkerPool::new(3);
        let log: Arc<Mutex<Vec<(usize, u32)>>> = Arc::new(Mutex::new(Vec::new()));
        let done = Arc::new(AtomicUsize::new(0));
        for step in 0..4u32 {
            for worker in 0..pool.workers() {
                let log = Arc::clone(&log);
                let done = Arc::clone(&done);
                pool.submit(worker, move |index| {
                    log.lock().unwrap().push((index, step));
                    done.fetch_add(1, Ordering::AcqRel);
                });
            }
        }
        while done.load(Ordering::Acquire) < 12 {
            std::thread::yield_now();
        }
        let log = log.lock().unwrap();
        for worker in 0..3 {
            let steps: Vec<u32> = log
                .iter()
                .filter(|(index, _)| *index == worker)
                .map(|(_, step)| *step)
                .collect();
            assert_eq!(steps, vec![0, 1, 2, 3], "worker {worker} ran out of order");
        }
    }
}
