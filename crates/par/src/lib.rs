//! Deterministic scoped worker pool.
//!
//! Every parallel surface in the workspace (the DPOR subtree walks in
//! `semcc-explore`, the checker's batch detectors, `faultsim`'s seed
//! sweep, the level-vector sweeps in the CLI and benches) funnels through
//! the one primitive here: an **order-preserving parallel map**. Workers
//! race over an atomic index, but results are merged back by item index,
//! so the output is a pure function of the input — bit-for-bit identical
//! at `jobs = 1` and `jobs = N`. Parallelism changes wall-clock only,
//! never answers.
//!
//! Two rules keep that contract honest:
//!
//! * **worker-local state, never shared mutable state** — [`ordered_map_with`]
//!   hands each worker its own `S` (an engine, a scratch buffer); the
//!   closure must not communicate through anything else;
//! * **per-item purity** — `f(i, item)` must depend only on `(i, item)`
//!   and the worker-local state's *reset* behavior, not on which worker
//!   ran it or in what order (the explorer resets its engine before each
//!   subtree precisely so ids/timestamps replay identically on any
//!   worker).
//!
//! One worker — `jobs = 1`, or a single item — runs on the calling
//! thread: `init` once, then `f` over the items in order, with no thread
//! spawned. A panic there unwinds straight to the caller with its
//! payload, as a worker's panic is resumed on the caller after the join.
//! Purity makes the two paths indistinguishable in their results.

#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};

/// Clamp a requested job count to something sane: 0 means 1.
///
/// There is deliberately no "auto-detect cores" default here — callers
/// own that policy, and the determinism contract means any value is
/// semantically equivalent anyway.
pub fn clamp_jobs(jobs: usize) -> usize {
    jobs.max(1)
}

/// Order-preserving parallel map without worker state.
///
/// Applies `f(index, item)` to every item on up to `jobs` scoped worker
/// threads and returns the results **in item order**. Panics in `f` are
/// propagated to the caller.
pub fn ordered_map<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    ordered_map_with(jobs, items, || (), |(), i, t| f(i, t))
}

/// Order-preserving parallel map with worker-local state.
///
/// Each worker thread calls `init()` exactly once to build its private
/// state `S` (e.g. its own `Engine`), then repeatedly claims the next
/// unclaimed item via an atomic index and computes `f(&mut state, index,
/// item)`. Results are stitched back **by item index**, so the returned
/// vector is independent of scheduling, worker count, and claim order.
///
/// The worker count is clamped to `max(1, min(jobs, items.len()))`; an
/// empty input spawns no threads, and a single worker runs on the calling
/// thread. A panic in `init` or `f` reaches the calling thread (for
/// spawned workers, resumed after the scope joins).
pub fn ordered_map_with<S, T, R, FI, F>(jobs: usize, items: &[T], init: FI, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    FI: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let workers = clamp_jobs(jobs).min(items.len());
    if workers == 1 {
        let mut state = init();
        return items.iter().enumerate().map(|(i, t)| f(&mut state, i, t)).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            handles.push(scope.spawn(|| {
                let mut state = init();
                let mut out = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    out.push((i, f(&mut state, i, &items[i])));
                }
                out
            }));
        }
        for h in handles {
            match h.join() {
                Ok(pairs) => {
                    for (i, r) in pairs {
                        slots[i] = Some(r);
                    }
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    slots.into_iter().map(|s| s.expect("semcc-par: every index produced a result")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_are_in_item_order_at_every_job_count() {
        let items: Vec<usize> = (0..257).collect();
        let expect: Vec<usize> = items.iter().map(|x| x * 3 + 1).collect();
        for jobs in [0, 1, 2, 4, 8, 300] {
            let got = ordered_map(jobs, &items, |i, x| {
                assert_eq!(i, *x);
                x * 3 + 1
            });
            assert_eq!(got, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn worker_state_is_initialized_once_per_worker() {
        let inits = AtomicUsize::new(0);
        let items: Vec<u32> = (0..64).collect();
        let got = ordered_map_with(
            4,
            &items,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                0u64
            },
            |count, _, x| {
                *count += 1; // worker-local state mutates freely...
                u64::from(*x) // ...but the result must not depend on it
            },
        );
        assert_eq!(got, (0..64u64).collect::<Vec<_>>());
        let n = inits.load(Ordering::Relaxed);
        assert!((1..=4).contains(&n), "init ran once per spawned worker, got {n}");
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let got: Vec<u8> = ordered_map(8, &[] as &[u8], |_, x| *x);
        assert!(got.is_empty());
    }

    #[test]
    fn jobs_are_clamped() {
        assert_eq!(clamp_jobs(0), 1);
        assert_eq!(clamp_jobs(1), 1);
        assert_eq!(clamp_jobs(9), 9);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        let items = [1u8, 2, 3];
        let _ = ordered_map(2, &items, |_, x| {
            if *x == 2 {
                panic!("boom");
            }
            *x
        });
    }

    #[test]
    fn one_worker_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let many: Vec<u32> = (0..16).collect();
        for (jobs, items) in [(1, &many[..]), (8, &many[..1])] {
            let inits = AtomicUsize::new(0);
            let got = ordered_map_with(
                jobs,
                items,
                || inits.fetch_add(1, Ordering::Relaxed),
                |_, i, x| {
                    assert_eq!(std::thread::current().id(), caller, "jobs={jobs}");
                    (i, *x)
                },
            );
            assert_eq!(got, items.iter().enumerate().map(|(i, x)| (i, *x)).collect::<Vec<_>>());
            assert_eq!(inits.load(Ordering::Relaxed), 1, "jobs={jobs}: init runs once");
        }
    }

    #[test]
    fn one_worker_panics_reach_the_caller_with_their_payload() {
        let items = [1u8, 2, 3];
        let payload = std::panic::catch_unwind(|| {
            ordered_map(1, &items, |_, x| {
                if *x == 2 {
                    panic!("boom at {x}");
                }
                *x
            })
        })
        .expect_err("the panic reaches the caller");
        assert_eq!(payload.downcast_ref::<String>().map(String::as_str), Some("boom at 2"));
    }
}
