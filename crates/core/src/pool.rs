//! A small scoped worker pool for intra-query parallelism.
//!
//! One Gremlin step over the SQL overlay expands into a set of *independent*
//! probes — one per (edge table, source table, direction) for adjacency, one
//! per vertex table for `V()`/`E()`, one per id chunk for endpoint
//! resolution. These probes share nothing but read-only state (`reldb`'s
//! `Database` takes `&self` everywhere, and every worker reads the one
//! storage snapshot its query pinned at entry — see `docs/CONSISTENCY.md`),
//! so they can run on worker threads without any coordination beyond
//! joining, and concurrent writers never change what any worker observes.
//!
//! The pool is deliberately minimal: [`run_ordered`] executes a batch of
//! closures on up to `threads` scoped threads (`std::thread::scope`, so
//! borrows of the caller's stack work and nothing outlives the call) and
//! returns the results **in the order the jobs were given**, regardless of
//! which thread finished first. Determinism of merged query results falls
//! out of that ordering guarantee; callers never see scheduling effects.
//!
//! Thread count resolution: explicit configuration wins, then the
//! `DB2GRAPH_THREADS` environment variable, then the machine's available
//! parallelism. A count of 1 (or a batch of 1 job) short-circuits to plain
//! inline execution with zero threading overhead — the sequential and
//! parallel paths are the same code.
//!
//! Observability: the pool itself records nothing. Callers that need
//! per-job telemetry (the backend's `fan_out`) give each job a forked
//! [`Tracer`](crate::trace::Tracer)/`Profiler` and absorb the forks back in
//! job order after [`run_ordered`] returns — the same ordering guarantee
//! that makes results deterministic makes the absorbed span *tree*
//! deterministic at any thread count (see `docs/OBSERVABILITY.md`).

use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::Mutex;

/// Environment variable overriding the worker count for query execution.
pub const THREADS_ENV: &str = "DB2GRAPH_THREADS";

/// The worker count to use when none is configured explicitly:
/// `DB2GRAPH_THREADS` if set and parseable, otherwise the machine's
/// available parallelism (at least 1).
pub fn configured_threads() -> usize {
    let auto = || std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    if let Ok(v) = std::env::var(THREADS_ENV) {
        match v.trim().parse::<usize>() {
            Ok(n) => return n.max(1),
            Err(_) => {
                let fallback = auto();
                crate::events::record_config_warning(
                    THREADS_ENV,
                    &v,
                    &format!("available parallelism ({fallback})"),
                );
                return fallback;
            }
        }
    }
    auto()
}

/// Run `jobs` on up to `threads` scoped worker threads, returning results
/// in job order. With `threads <= 1` or fewer than two jobs, runs inline on
/// the calling thread — no spawn, no locks.
///
/// Panics in a job propagate to the caller (after all workers have been
/// joined), matching inline execution semantics closely enough for our use:
/// a panicking probe aborts the query either way.
pub fn run_ordered<T, F>(threads: usize, jobs: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = jobs.len();
    if threads <= 1 || n <= 1 {
        return jobs.into_iter().map(|j| j()).collect();
    }
    // Each slot holds the pending job going in and the result coming out;
    // workers claim slots through one shared atomic cursor, so a slow probe
    // never blocks the others (work stealing degenerates to work sharing).
    let cells: Vec<Mutex<JobCell<T, F>>> =
        jobs.into_iter().map(|j| Mutex::new(JobCell::Pending(j))).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n) {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let mut cell = cells[i].lock();
                if let JobCell::Pending(job) = std::mem::replace(&mut *cell, JobCell::Empty) {
                    let out = {
                        // Run without holding the lock: nobody else can
                        // claim index i (the cursor is monotonic), and the
                        // result write re-acquires below.
                        drop(cell);
                        job()
                    };
                    *cells[i].lock() = JobCell::Done(out);
                }
            });
        }
    });
    cells
        .into_iter()
        .map(|c| match c.into_inner() {
            JobCell::Done(v) => v,
            _ => unreachable!("worker pool joined with unfinished job"),
        })
        .collect()
}

enum JobCell<T, F> {
    Pending(F),
    Empty,
    Done(T),
}

/// Morsel size for a frontier of `n` items: a function of the frontier
/// *only* (never the thread count), so the morsel boundaries — and with
/// them every per-morsel result vector — are identical at any thread
/// count. Targets ~64 morsels per frontier for stealable granularity,
/// clamped so tiny frontiers aren't over-split and huge ones don't
/// produce unboundedly large claims.
pub fn morsel_size(n: usize) -> usize {
    (n / 64).clamp(16, 1024)
}

/// Morsel-driven execution over a frontier: workers pull contiguous
/// `[start, start+morsel)` ranges of `items` from one shared atomic
/// cursor (work stealing: a fast worker takes more morsels, a slow one is
/// never waited on mid-frontier), run `f(start, slice)` on each, and the
/// per-morsel outputs are concatenated **in morsel order** — so the
/// result is byte-identical to running `f` over the whole frontier
/// inline, at any thread count. With `threads <= 1` or a single-morsel
/// frontier, runs inline with zero threading overhead.
pub fn run_morsels<T, R, F>(threads: usize, items: &[T], morsel: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> Vec<R> + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let m = morsel.max(1);
    if threads <= 1 || n <= m {
        return f(0, items);
    }
    let slots = n.div_ceil(m);
    let results: Vec<Mutex<Option<Vec<R>>>> = (0..slots).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads.min(slots) {
            scope.spawn(|| loop {
                let k = cursor.fetch_add(1, Ordering::Relaxed);
                if k >= slots {
                    break;
                }
                let start = k * m;
                let end = (start + m).min(n);
                *results[k].lock() = Some(f(start, &items[start..end]));
            });
        }
    });
    results
        .into_iter()
        .flat_map(|c| c.into_inner().expect("morsel pool joined with unfinished morsel"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let jobs: Vec<_> = (0..4)
            .map(|i| move || (i, std::thread::current().id()))
            .collect();
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
    fn borrows_caller_state() {
        let data: Vec<usize> = (0..10).collect();
        let jobs: Vec<_> = data.iter().map(|v| move || *v + 1).collect();
        let out = run_ordered(4, jobs);
        assert_eq!(out, (1..11usize).collect::<Vec<_>>());
    }

    #[test]
    fn configured_threads_is_positive() {
        assert!(configured_threads() >= 1);
    }

    #[test]
    fn morsel_size_is_thread_independent_and_clamped() {
        assert_eq!(morsel_size(0), 16);
        assert_eq!(morsel_size(100), 16);
        assert_eq!(morsel_size(6400), 100);
        assert_eq!(morsel_size(1 << 20), 1024);
    }

    #[test]
    fn morsels_merge_in_item_order_at_any_thread_count() {
        let items: Vec<usize> = (0..1000).collect();
        let expect: Vec<usize> = items.iter().map(|v| v * 3).collect();
        for threads in [1, 2, 8] {
            let out = run_morsels(threads, &items, morsel_size(items.len()), |start, slice| {
                assert_eq!(slice[0], start);
                slice.iter().map(|v| v * 3).collect()
            });
            assert_eq!(out, expect);
        }
    }

    #[test]
    fn morsels_allow_variable_output_cardinality() {
        // A morsel's output need not be one-per-item (adjacency fans out).
        let items: Vec<usize> = (0..100).collect();
        let out = run_morsels(4, &items, 16, |_, slice| {
            slice.iter().flat_map(|&v| std::iter::repeat_n(v, v % 3)).collect()
        });
        let expect: Vec<usize> =
            items.iter().flat_map(|&v| std::iter::repeat_n(v, v % 3)).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn empty_frontier_short_circuits() {
        let none: Vec<usize> = Vec::new();
        let out = run_morsels(8, &none, 16, |_, s| s.to_vec());
        assert!(out.is_empty());
    }
}
