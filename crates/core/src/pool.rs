//! A process-wide resident worker pool for intra-query parallelism.
//!
//! One Gremlin step over the SQL overlay expands into a set of *independent*
//! probes — one per (edge table, source table, direction) for adjacency, one
//! per vertex table for `V()`/`E()`, one per id chunk for endpoint
//! resolution. These probes share nothing but read-only state (`reldb`'s
//! `Database` takes `&self` everywhere, and every worker reads the one
//! storage snapshot its query pinned at entry — see `docs/CONSISTENCY.md`),
//! so they can run on worker threads without any coordination beyond
//! waiting for the batch, and concurrent writers never change what any
//! worker observes.
//!
//! [`run_ordered`], the pool's one primitive, runs a batch of owned
//! (`'static`) jobs and returns the results **in the order the jobs were
//! given**, regardless of which thread finished first. Determinism of
//! merged query results falls out of that ordering guarantee; callers
//! never see scheduling effects. Its one caller is the backend's
//! `fan_out`, for a step's two or more table reads: the overlay's parallel
//! work is independent SQL reads, as in the paper, where the RDBMS runs
//! the concurrent queries. Decoding rows — cached or fresh — stays on the
//! calling thread.
//!
//! The threads are resident: helpers start lazily, park on a condvar
//! between batches, and the pool grows to `max(threads) - 1` helpers over
//! every `threads` value ever asked for, never shrinking. No query spawns a
//! thread. The calling thread claims jobs from the same atomic cursor as
//! the helpers, so a batch always finishes — even when every helper is busy
//! with other queries or with the job that submitted this (nested) batch.
//! At most `threads - 1` helpers join any one batch, so `threads` keeps
//! meaning "how many threads one query may use".
//!
//! The pool reads no configuration: every call is given its thread count.
//! A graph resolves its count once at open, in
//! [`GraphOptions::with_lookup`](crate::GraphOptions::with_lookup) —
//! `GraphOptions.threads`, then `DB2GRAPH_THREADS` (parsed by
//! `parse_threads`), then `default_threads`. A count of 1 (or a batch
//! of 1 job) short-circuits to plain inline execution and never touches
//! the pool — the sequential and parallel paths are the same code.
//!
//! A panicking job does not take its thread down: the panic is caught, the
//! rest of the batch still runs, and the first payload in job order is
//! re-raised on the caller once the batch has finished.
//!
//! Observability: the pool itself records nothing. Callers that need
//! per-job telemetry (the backend's `fan_out`, which plans every table on
//! the caller and pools only its reads) give each job a forked
//! [`Profiler`](crate::metrics::Profiler) and absorb the forks back in
//! job order after [`run_ordered`] returns — the same ordering guarantee
//! that makes results deterministic makes the absorbed span *tree*
//! deterministic at any thread count (see `docs/OBSERVABILITY.md`).

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, PoisonError};

use parking_lot::{Mutex, MutexGuard};

/// The built-in worker count: the machine's available parallelism (at
/// least 1).
pub(crate) fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// A `DB2GRAPH_THREADS` value as a worker count: a positive integer, or
/// `None` for anything unusable (0 would silently serialise every query).
pub(crate) fn parse_threads(raw: &str) -> Option<usize> {
    raw.trim().parse::<usize>().ok().filter(|&n| n > 0)
}

/// The process-wide pool every query shares.
static POOL: Pool = Pool::new();

/// Run `jobs` on up to `threads` threads (the caller and up to
/// `threads - 1` resident helpers), returning results in job order. With
/// `threads <= 1` or fewer than two jobs, runs inline on the calling
/// thread without touching the pool.
///
/// A panic in a job is re-raised on the caller after every other job of
/// the batch has finished — the first panic in job order wins.
pub(crate) fn run_ordered<T, F>(threads: usize, jobs: Vec<F>) -> Vec<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    POOL.run_ordered(threads, jobs)
}

/// Resident helper threads plus the batches they may join.
struct Pool {
    state: Mutex<PoolState>,
    /// Signalled when a batch is opened; idle helpers park here.
    wake: Condvar,
}

struct PoolState {
    /// Batches helpers may still join, oldest first. The submitting caller
    /// removes its batch once the cursor is exhausted.
    open: Vec<Arc<dyn Joinable>>,
    helpers: usize,
}

/// The type-erased face of a [`Batch`] that helpers see.
trait Joinable: Send + Sync {
    /// Take one of the batch's helper places, if it has unclaimed jobs
    /// and a place left under its thread cap. Called under the pool lock.
    fn admit(&self) -> bool;
    /// Claim and run jobs until the cursor passes the end.
    fn work(&self);
}

/// One submitted batch: its jobs, claimed through an atomic cursor,
/// each result landing in its own slot.
struct Batch<F, R> {
    /// The cursor hands out each index once, so each job is taken once.
    jobs: Vec<Mutex<Option<F>>>,
    cursor: AtomicUsize,
    /// Helper places left (`min(threads, jobs) - 1` at submission); taken
    /// only under the pool lock, never returned, so at most `threads`
    /// distinct threads ever run the batch.
    places: AtomicUsize,
    results: Vec<Mutex<Option<std::thread::Result<R>>>>,
    /// Jobs not yet finished; the caller waits on `finished` for zero.
    unfinished: Mutex<usize>,
    finished: Condvar,
}

impl<F: FnOnce() -> R + Send + 'static, R: Send + 'static> Joinable for Batch<F, R> {
    fn admit(&self) -> bool {
        self.cursor.load(Ordering::Relaxed) < self.jobs.len()
            && self
                .places
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |p| p.checked_sub(1))
                .is_ok()
    }

    fn work(&self) {
        loop {
            let i = self.cursor.fetch_add(1, Ordering::Relaxed);
            if i >= self.jobs.len() {
                return;
            }
            let job = self.jobs[i].lock().take().expect("job claimed once");
            let out = panic::catch_unwind(AssertUnwindSafe(job));
            *self.results[i].lock() = Some(out);
            let mut left = self.unfinished.lock();
            *left -= 1;
            if *left == 0 {
                self.finished.notify_all();
            }
        }
    }
}

impl Pool {
    const fn new() -> Pool {
        Pool { state: Mutex::new(PoolState { open: Vec::new(), helpers: 0 }), wake: Condvar::new() }
    }

    /// Run `jobs` on the caller plus up to `threads - 1` helpers;
    /// results in job order.
    fn run_ordered<T, F>(&'static self, threads: usize, jobs: Vec<F>) -> Vec<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let len = jobs.len();
        if threads <= 1 || len <= 1 {
            return jobs.into_iter().map(|j| j()).collect();
        }
        let places = threads.min(len) - 1;
        let batch = Arc::new(Batch {
            jobs: jobs.into_iter().map(|j| Mutex::new(Some(j))).collect(),
            cursor: AtomicUsize::new(0),
            places: AtomicUsize::new(places),
            results: (0..len).map(|_| Mutex::new(None)).collect(),
            unfinished: Mutex::new(len),
            finished: Condvar::new(),
        });
        {
            let mut state = self.state.lock();
            self.grow(&mut state, threads - 1);
            state.open.push(batch.clone());
        }
        for _ in 0..places {
            self.wake.notify_one();
        }
        // The caller works too, so the batch completes even if no helper
        // ever joins it.
        batch.work();
        let handle: Arc<dyn Joinable> = batch.clone();
        self.state.lock().open.retain(|b| !Arc::ptr_eq(b, &handle));
        let mut left = batch.unfinished.lock();
        while *left > 0 {
            left = wait(&batch.finished, left);
        }
        drop(left);

        let mut out = Vec::with_capacity(len);
        let mut panicked = None;
        for slot in &batch.results {
            match slot.lock().take().expect("batch finished with an empty slot") {
                Ok(v) => out.push(v),
                Err(payload) => {
                    panicked.get_or_insert(payload);
                }
            }
        }
        if let Some(payload) = panicked {
            panic::resume_unwind(payload);
        }
        out
    }

    /// Start helpers until there are `want`. A failed spawn leaves the
    /// pool smaller; callers still finish their batches themselves.
    /// Helpers live as long as the process and never unwind (every job
    /// runs under `catch_unwind`), so their join handles are not kept.
    fn grow(&'static self, state: &mut PoolState, want: usize) {
        while state.helpers < want {
            let spawned =
                std::thread::Builder::new().name("db2graph-pool".into()).spawn(move || self.help());
            if spawned.is_err() {
                return;
            }
            state.helpers += 1;
        }
    }

    /// A helper's life: join the oldest open batch with room, work it
    /// until its cursor runs out, repeat; park while there is none.
    fn help(&self) {
        let mut state = self.state.lock();
        loop {
            match state.open.iter().find(|b| b.admit()).cloned() {
                Some(batch) => {
                    drop(state);
                    batch.work();
                    drop(batch);
                    state = self.state.lock();
                }
                None => state = wait(&self.wake, state),
            }
        }
    }
}

/// `Condvar::wait` that, like the rest of the pool's locks, ignores
/// poisoning (no pool lock is ever held across a job).
fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Barrier;
    use std::thread::ThreadId;

    /// A pool of its own, so other tests in the binary cannot grow it or
    /// occupy its helpers.
    fn private_pool() -> &'static Pool {
        Box::leak(Box::new(Pool::new()))
    }

    /// Two jobs that each wait for the other: the caller takes one, so the
    /// other can only run on a helper. Returns that helper's id.
    fn rendezvous(pool: &'static Pool) -> ThreadId {
        let barrier = Arc::new(Barrier::new(2));
        let jobs: Vec<_> = (0..2)
            .map(|_| {
                let barrier = barrier.clone();
                move || {
                    barrier.wait();
                    std::thread::current().id()
                }
            })
            .collect();
        let me = std::thread::current().id();
        let ids = pool.run_ordered(2, jobs);
        assert!(ids.contains(&me));
        *ids.iter().find(|&&t| t != me).expect("a helper ran the other job")
    }

    #[test]
    fn preserves_job_order() {
        // Jobs finishing in reverse order still land in submission order.
        let jobs: Vec<_> = (0..32usize)
            .map(|i| {
                move || {
                    if i % 7 == 0 {
                        std::thread::yield_now();
                    }
                    i * 2
                }
            })
            .collect();
        let out = run_ordered(4, jobs);
        assert_eq!(out, (0..32usize).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_runs_inline() {
        let tid = std::thread::current().id();
        let jobs: Vec<_> = (0..4).map(|i| move || (i, std::thread::current().id())).collect();
        for (i, (v, t)) in run_ordered(1, jobs).into_iter().enumerate() {
            assert_eq!(v, i);
            assert_eq!(t, tid);
        }
    }

    #[test]
    fn empty_and_singleton_batches() {
        let none: Vec<fn() -> usize> = Vec::new();
        assert!(run_ordered::<usize, _>(8, none).is_empty());
        assert_eq!(run_ordered(8, vec![|| 41 + 1]), vec![42]);
    }

    #[test]
    fn more_jobs_than_threads() {
        let jobs: Vec<_> = (0..100usize).map(|i| move || i).collect();
        assert_eq!(run_ordered(3, jobs), (0..100usize).collect::<Vec<_>>());
    }

    #[test]
    fn jobs_share_caller_state_by_arc() {
        // Jobs are owned; caller state reaches them through shared handles.
        let data: Arc<Vec<usize>> = Arc::new((0..10).collect());
        let jobs: Vec<_> = (0..data.len())
            .map(|i| {
                let data = data.clone();
                move || data[i] + 1
            })
            .collect();
        let out = run_ordered(4, jobs);
        assert_eq!(out, (1..11usize).collect::<Vec<_>>());
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn threads_knob_accepts_only_positive_counts() {
        assert_eq!(parse_threads("4"), Some(4));
        assert_eq!(parse_threads(" 2\n"), Some(2));
        assert_eq!(parse_threads("1"), Some(1));
        for bad in ["0", " 0 ", "", "-1", "two", "1.5"] {
            assert_eq!(parse_threads(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn helpers_are_resident_across_calls() {
        let pool = private_pool();
        let mut seen = HashSet::new();
        for _ in 0..200 {
            let jobs: Vec<_> = (0..8).map(|_| || std::thread::current().id()).collect();
            seen.extend(pool.run_ordered(4, jobs));
        }
        assert!(seen.len() <= 4, "{} distinct threads ran jobs", seen.len());
        assert_eq!(pool.state.lock().helpers, 3);
    }

    #[test]
    fn panic_reraises_after_the_batch_and_helpers_survive() {
        let pool = private_pool();
        let helper = rendezvous(pool);
        let ran = Arc::new(AtomicUsize::new(0));
        let jobs: Vec<_> = (0..8)
            .map(|i| {
                let ran = ran.clone();
                move || {
                    if i == 2 {
                        panic::panic_any("job 2 failed");
                    }
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    ran.fetch_add(1, Ordering::SeqCst);
                }
            })
            .collect();
        let err = panic::catch_unwind(AssertUnwindSafe(|| pool.run_ordered(2, jobs)))
            .expect_err("the job's panic reaches the caller");
        assert_eq!(err.downcast_ref::<&str>(), Some(&"job 2 failed"));
        assert_eq!(ran.load(Ordering::SeqCst), 7, "every other job finished first");
        assert_eq!(rendezvous(pool), helper);
        assert_eq!(pool.state.lock().helpers, 1);
    }

    #[test]
    fn nested_batches_complete_while_every_helper_is_busy() {
        let pool = private_pool();
        let barrier = Arc::new(Barrier::new(2));
        let outer: Vec<_> = (0..2usize)
            .map(|o| {
                let barrier = barrier.clone();
                move || {
                    // Both threads of the pool are inside an outer job now.
                    barrier.wait();
                    let inner: Vec<_> = (0..16usize).map(|i| move || o * 100 + i).collect();
                    pool.run_ordered(2, inner)
                }
            })
            .collect();
        let out = pool.run_ordered(2, outer);
        for (o, inner) in out.into_iter().enumerate() {
            assert_eq!(inner, (0..16).map(|i| o * 100 + i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn one_query_never_uses_more_than_its_threads() {
        let pool = private_pool();
        let jobs: Vec<_> = (0..8).map(|_| || ()).collect();
        pool.run_ordered(8, jobs);
        assert_eq!(pool.state.lock().helpers, 7);
        for _ in 0..50 {
            let jobs: Vec<_> = (0..16)
                .map(|_| {
                    || {
                        std::thread::sleep(std::time::Duration::from_micros(200));
                        std::thread::current().id()
                    }
                })
                .collect();
            let ids: HashSet<ThreadId> = pool.run_ordered(2, jobs).into_iter().collect();
            assert!(ids.len() <= 2, "{} threads ran one threads=2 batch", ids.len());
        }
    }
}
