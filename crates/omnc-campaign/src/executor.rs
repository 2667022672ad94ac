//! The work-stealing cell executor — the workspace's one sanctioned
//! thread-pool surface (`run_parallel` is exempt from clippy's
//! `disallowed_methods`; no other code starts a thread).
//!
//! Work items are indices into a caller-owned list. Each worker owns a
//! deque seeded round-robin; when it drains its own it steals from the
//! busiest sibling. Workers run the caller's function under
//! `catch_unwind`, retrying a panicking item a bounded number of times,
//! and stream [`Completion`] records back over a channel; the caller's
//! `on_done` sink runs on the submitting thread, so all journal and file
//! I/O stays single-threaded. Only whole cells run on workers — the
//! simulation crates underneath remain single-threaded and
//! deterministic, which is why scheduling order cannot affect results.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::Mutex;
use std::thread;

/// Why an item failed: every attempt panicked.
#[derive(Debug, Clone)]
pub struct ItemError {
    /// Attempts made (always `retries + 1`).
    pub attempts: u32,
    /// The last panic's payload, stringified.
    pub message: String,
}

/// Outcome of one item: the value and the attempts it took, or the error
/// after the retry budget ran out.
pub type ItemResult<T> = Result<(T, u32), ItemError>;

/// One finished item as reported to `on_done`.
#[derive(Debug)]
pub struct Completion<T> {
    /// Index of the item in the caller's list.
    pub item: usize,
    /// The item's value (with attempt count) or its terminal error.
    pub result: ItemResult<T>,
}

/// Runs `run(item)` for `item` in `0..items` across `jobs`
/// worker threads and feeds every completed item to `on_done` on the
/// calling thread, in completion order. Panics inside `run` are caught
/// and retried up to `retries` extra times; a still-panicking item
/// becomes an [`ItemError`] without affecting any other item.
#[expect(
    clippy::disallowed_methods,
    reason = "the campaign's worker pool runs whole cells"
)]
pub fn run_parallel<T, F, D>(items: usize, jobs: usize, retries: u32, run: F, mut on_done: D)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    D: FnMut(Completion<T>),
{
    let jobs = jobs.clamp(1, items.max(1));
    let deques: Vec<Mutex<VecDeque<usize>>> = (0..jobs)
        .map(|w| Mutex::new((w..items).step_by(jobs).collect()))
        .collect();
    let (tx, rx) = mpsc::channel::<Completion<T>>();
    thread::scope(|scope| {
        for w in 0..jobs {
            let tx = tx.clone();
            let deques = &deques;
            let run = &run;
            scope.spawn(move || {
                while let Some(item) = next_item(deques, w) {
                    let result = run_with_retry(run, item, retries);
                    if tx.send(Completion { item, result }).is_err() {
                        break; // receiver gone: nothing left to report to
                    }
                }
            });
        }
        drop(tx);
        while let Ok(done) = rx.recv() {
            on_done(done);
        }
    });
}

/// Pops from the worker's own deque, else steals the back half entry of
/// the fullest sibling. `None` only when every deque is empty — all
/// items are claimed up front, so that means the work is done.
fn next_item(deques: &[Mutex<VecDeque<usize>>], own: usize) -> Option<usize> {
    if let Some(item) = lock(&deques[own]).pop_front() {
        return Some(item);
    }
    let (_, victim) = deques
        .iter()
        .enumerate()
        .filter(|&(w, _)| w != own)
        .max_by_key(|(_, d)| lock(d).len())?;
    lock(victim).pop_back()
}

fn lock<'a>(m: &'a Mutex<VecDeque<usize>>) -> std::sync::MutexGuard<'a, VecDeque<usize>> {
    // A worker panicking while holding this lock is impossible: deque
    // operations cannot panic, and the caller's function runs unlocked.
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn run_with_retry<T, F: Fn(usize) -> T>(run: &F, item: usize, retries: u32) -> ItemResult<T> {
    let mut attempts = 0;
    loop {
        attempts += 1;
        match catch_unwind(AssertUnwindSafe(|| run(item))) {
            Ok(value) => return Ok((value, attempts)),
            Err(payload) => {
                if attempts > retries {
                    return Err(ItemError {
                        attempts,
                        message: panic_message(payload.as_ref()),
                    });
                }
            }
        }
    }
}

/// Extracts the conventional `&str` / `String` panic payloads.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn all_items_complete_exactly_once() {
        for jobs in [1, 2, 4, 7] {
            let mut seen = vec![0u32; 23];
            run_parallel(
                23,
                jobs,
                0,
                |i| i * 2,
                |done: Completion<usize>| {
                    let (v, attempts) = done.result.expect("no panics");
                    assert_eq!(v, done.item * 2);
                    assert_eq!(attempts, 1);
                    seen[done.item] += 1;
                },
            );
            assert!(seen.iter().all(|&c| c == 1), "jobs={jobs}: {seen:?}");
        }
    }

    #[test]
    fn panicking_items_retry_then_fail_in_isolation() {
        let calls = AtomicU32::new(0);
        let mut ok = Vec::new();
        let mut failed = Vec::new();
        run_parallel(
            6,
            3,
            2,
            |i| {
                calls.fetch_add(1, Ordering::Relaxed);
                assert!(i != 4, "cell 4 always dies");
                i
            },
            |done| match done.result {
                Ok((v, _)) => ok.push(v),
                Err(e) => failed.push((done.item, e)),
            },
        );
        ok.sort_unstable();
        assert_eq!(ok, [0, 1, 2, 3, 5]);
        assert_eq!(failed.len(), 1);
        let (idx, err) = &failed[0];
        assert_eq!(*idx, 4);
        assert_eq!(err.attempts, 3, "retries + 1 attempts");
        assert!(err.message.contains("cell 4"), "{}", err.message);
        assert_eq!(calls.load(Ordering::Relaxed), 5 + 3);
    }

    #[test]
    fn transient_panics_succeed_within_the_retry_budget() {
        let calls = AtomicU32::new(0);
        let mut attempts_seen = 0;
        run_parallel(
            1,
            1,
            3,
            |i| {
                // Fails twice, then succeeds.
                assert!(calls.fetch_add(1, Ordering::Relaxed) >= 2, "warming up");
                i
            },
            |done: Completion<usize>| {
                let (_, attempts) = done.result.expect("third attempt succeeds");
                attempts_seen = attempts;
            },
        );
        assert_eq!(attempts_seen, 3);
    }

    #[test]
    fn zero_items_and_oversized_job_counts_are_fine() {
        run_parallel(0, 8, 0, |i| i, |_done| unreachable!("no items"));
        let mut n = 0;
        run_parallel(2, 64, 0, |i| i, |_done| n += 1);
        assert_eq!(n, 2);
    }
}
