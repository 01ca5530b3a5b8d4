//! # greenness-pool
//!
//! The workspace's one thread pool: a bounded **work-stealing** executor
//! built on `std::thread::scope` + `std::sync::mpsc`, with no external
//! dependencies (the crate registry is not always reachable from the build
//! hosts, so everything below `shims/` must be std-only).
//!
//! It started life inside `greenness_core::sweep` (PR 1), was shared with
//! the placement sweep (PR 6), and now lives in its own leaf crate so
//! layers *below* `core` — the heat solver's domain-decomposed
//! [`HeatSolver::step`](../greenness_heatsim/struct.HeatSolver.html) tiles —
//! can schedule onto the same pool shape.
//!
//! Determinism contract, unchanged from the sweep executor: which worker
//! *runs* a job never affects the job's result; results are delivered to
//! the caller with their submission index, so callers reassemble outputs in
//! an order that does not depend on scheduling. Every user of this pool is
//! pinned bit-identical across worker counts by its own suite
//! (`tests/parallel_determinism.rs`, `tests/placement_determinism.rs`, and
//! the stencil jobs-1-vs-8 tests in `tests/oracle_equivalence.rs`).

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Mutex, PoisonError};

/// Lock a queue, treating a poisoned mutex as usable: the deques hold plain
/// `usize` ids and every critical section is a single push/pop, so a panic
/// elsewhere cannot leave them mid-mutation.
fn lock_queue(q: &Mutex<VecDeque<usize>>) -> std::sync::MutexGuard<'_, VecDeque<usize>> {
    q.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Run job indices `0..total` on `workers` threads (clamped to
/// `1..=total`), calling `exec` on whatever worker picked each index and
/// `on_collected` on the **calling** thread as results arrive (arrival
/// order is scheduling-dependent; callers index into their own slot table).
/// A panicking job is caught on its worker and delivered as `Err(message)`.
///
/// Per-worker deques are dealt round-robin. A worker pops from the front of
/// its own deque and steals from the *back* of the busiest other deque, the
/// classic Arora-Blumofe-Plaxton shape, here with plain mutexed deques: the
/// batch is fixed (no dynamic spawning), so lock-free machinery would buy
/// nothing this side of thousands of jobs.
pub fn run_pool<R: Send>(
    total: usize,
    workers: usize,
    exec: &(dyn Fn(usize) -> R + Sync),
    on_collected: &mut dyn FnMut(usize, Result<R, String>),
) {
    if total == 0 {
        return;
    }
    let workers = workers.clamp(1, total);

    let queues: Vec<Mutex<VecDeque<usize>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    for i in 0..total {
        lock_queue(&queues[i % workers]).push_back(i);
    }

    let (tx, rx) = mpsc::channel::<(usize, Result<R, String>)>();
    std::thread::scope(|scope| {
        for me in 0..workers {
            let tx = tx.clone();
            let queues = &queues;
            scope.spawn(move || loop {
                let next = pop_own(&queues[me]).or_else(|| steal_other(queues, me));
                let Some(idx) = next else { break };
                let outcome = catch_unwind(AssertUnwindSafe(|| exec(idx)))
                    .map_err(|payload| panic_message(payload.as_ref()));
                if tx.send((idx, outcome)).is_err() {
                    break; // collector gone; nothing left to report to
                }
            });
        }
        drop(tx);
        for (idx, outcome) in rx {
            on_collected(idx, outcome);
        }
    });
}

/// Best-effort stringification of a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn pop_own(queue: &Mutex<VecDeque<usize>>) -> Option<usize> {
    lock_queue(queue).pop_front()
}

fn steal_other(queues: &[Mutex<VecDeque<usize>>], me: usize) -> Option<usize> {
    // Steal from the currently longest queue; ties break toward the lowest
    // worker index. Which worker *runs* a job never affects its result.
    let victim = queues
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != me)
        .max_by_key(|(i, q)| (lock_queue(q).len(), usize::MAX - i))?;
    victim
        .1
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .pop_back()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn every_index_runs_exactly_once_for_any_worker_count() {
        for workers in [1, 2, 3, 8, 100] {
            let total = 37;
            let runs: Vec<AtomicUsize> = (0..total).map(|_| AtomicUsize::new(0)).collect();
            let mut collected = vec![false; total];
            run_pool(
                total,
                workers,
                &|idx| {
                    runs[idx].fetch_add(1, Ordering::SeqCst);
                    idx * 3
                },
                &mut |idx, outcome| {
                    assert_eq!(outcome.expect("no panic"), idx * 3);
                    assert!(!collected[idx], "index {idx} delivered twice");
                    collected[idx] = true;
                },
            );
            assert!(runs.iter().all(|r| r.load(Ordering::SeqCst) == 1));
            assert!(collected.iter().all(|c| *c), "workers = {workers}");
        }
    }

    #[test]
    fn zero_jobs_is_a_no_op() {
        run_pool(0, 4, &|idx| idx, &mut |_, _| {
            panic!("no job should run");
        });
    }

    #[test]
    fn a_panicking_job_is_delivered_as_an_error_value() {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let mut outcomes: Vec<Result<usize, String>> = (0..3).map(|_| Ok(0)).collect();
        run_pool(
            3,
            2,
            &|idx| {
                if idx == 1 {
                    panic!("job {idx} exploded");
                }
                idx
            },
            &mut |idx, outcome| outcomes[idx] = outcome,
        );
        std::panic::set_hook(hook);
        assert_eq!(outcomes[0], Ok(0));
        assert_eq!(outcomes[2], Ok(2));
        let err = outcomes[1].as_ref().expect_err("job 1 panicked");
        assert!(err.contains("exploded"), "{err}");
    }
}
