//! An in-tree work-stealing thread pool for configuration sweeps.
//!
//! The container is offline, so this is a dependency-free pool sized for
//! the harness's needs: a batch of independent `FnOnce` tasks (one per
//! benchmark × configuration point), executed once, results returned in
//! submission order. Each worker owns a deque of task indices seeded
//! round-robin; it pops its own deque LIFO (cache-warm) and steals FIFO
//! from its neighbours (oldest first, the classic Chase–Lev discipline —
//! here guarded by a mutex per deque, which is plenty below a few
//! thousand tasks since each task is milliseconds to seconds of
//! simulation).
//!
//! Panic isolation: a panicking task never takes the pool down. The
//! worker catches the unwind at the task boundary ([`catch_panic`]),
//! records its message as that task's `Err` result, and moves on to the
//! next task — the behaviour figure sweeps need when one configuration
//! point is poisoned. [`catch_panic`] is the crate's one isolation
//! primitive; the fuzz campaign wraps each kernel run in it too.

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// What one task left behind: its value, or the message of its panic.
pub type TaskResult<T> = Result<T, String>;

/// Runs `f`, turning a panic that escapes it into the panic's message.
pub fn catch_panic<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        }
    })
}

/// The number of workers a sweep of `tasks` tasks should use: the
/// `DDA_WORKERS` override when set (read once; useful both to throttle a
/// shared host and to force serial execution for timing comparisons),
/// otherwise one per available CPU — never more than the task count,
/// always at least one.
///
/// The same override governs the sampled run's helper thread: a sampled
/// run outside a pool worker uses one when `default_workers(2)` is 2, so
/// `DDA_WORKERS=1` also runs its back stage inline on the caller (see
/// [`crate::sampling::sampling_threads`]).
pub fn default_workers(tasks: usize) -> usize {
    use std::sync::OnceLock;
    static OVERRIDE: OnceLock<Option<usize>> = OnceLock::new();
    let over = *OVERRIDE.get_or_init(|| parse_workers_override(std::env::var("DDA_WORKERS").ok()));
    let cpus = over.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    });
    cpus.min(tasks).max(1)
}

/// Parses the `DDA_WORKERS` value: a positive integer is an override,
/// anything else (absent, garbage, zero) falls back to the CPU count.
fn parse_workers_override(var: Option<String>) -> Option<usize> {
    var.and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
}

thread_local! {
    static SHARING: Cell<bool> = const { Cell::new(false) };
}

/// Whether the calling thread is one of several workers of a running
/// [`run_tasks`]. Those workers already take one CPU each, so a task
/// should not start threads of its own: a sampled run inside one keeps
/// its back stage inline.
pub(crate) fn in_shared_worker() -> bool {
    SHARING.with(Cell::get)
}

/// The host parallelism the pool would use for an unbounded task count —
/// `default_workers` before the task-count clamp. Reported by sweep
/// binaries so a `parallel_speedup` near 1.0 on a 1-core container reads
/// as the host limitation it is, not a pool regression.
pub fn host_parallelism() -> usize {
    default_workers(usize::MAX)
}

/// Runs every task on `workers` work-stealing worker threads and returns
/// their results in submission order.
///
/// Tasks are independent `FnOnce` closures. A panicking task yields
/// `Err(message)` at its own index; every other task still runs.
pub fn run_tasks<T, F>(tasks: Vec<F>, workers: usize) -> Vec<TaskResult<T>>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = tasks.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, n.max(1));

    // Task cells: taken exactly once, by whichever worker claims the
    // index from a deque.
    let cells: Vec<Mutex<Option<F>>> = tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
    // Result cells, indexed like the tasks — submission order falls out
    // for free.
    let results: Vec<Mutex<Option<TaskResult<T>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    // Per-worker deques of task indices, seeded round-robin so a cheap
    // static partition exists even before any stealing happens.
    let deques: Vec<Mutex<VecDeque<usize>>> = (0..workers)
        .map(|w| Mutex::new((w..n).step_by(workers).collect()))
        .collect();
    // Tasks claimed so far; when it reaches `n`, idle workers exit.
    let claimed = AtomicUsize::new(0);

    let run_one = |idx: usize| {
        let task = match cells[idx].lock() {
            Ok(mut c) => c.take(),
            Err(_) => None, // poisoned by a panic mid-take: impossible, cell ops don't panic
        };
        let Some(task) = task else { return };
        SHARING.with(|c| c.set(workers > 1));
        let out = catch_panic(task);
        if let Ok(mut r) = results[idx].lock() {
            *r = Some(out);
        }
    };

    std::thread::scope(|s| {
        for w in 0..workers {
            let deques = &deques;
            let claimed = &claimed;
            let run_one = &run_one;
            s.spawn(move || loop {
                // Own deque first, newest first (LIFO).
                let own = deques[w].lock().ok().and_then(|mut d| d.pop_back());
                if let Some(idx) = own {
                    claimed.fetch_add(1, Ordering::Relaxed);
                    run_one(idx);
                    continue;
                }
                // Steal from neighbours, oldest first (FIFO), scanning
                // from the next worker over.
                let mut stolen = None;
                for off in 1..workers {
                    let v = (w + off) % workers;
                    if let Some(idx) = deques[v].lock().ok().and_then(|mut d| d.pop_front()) {
                        stolen = Some(idx);
                        break;
                    }
                }
                match stolen {
                    Some(idx) => {
                        claimed.fetch_add(1, Ordering::Relaxed);
                        run_one(idx);
                    }
                    None => {
                        if claimed.load(Ordering::Relaxed) >= n {
                            break;
                        }
                        // Every deque looked empty but claims are still
                        // outstanding: a steal raced us. Yield and rescan.
                        std::thread::yield_now();
                    }
                }
            });
        }
    });

    results
        .into_iter()
        .map(|r| match r.into_inner() {
            Ok(Some(out)) => out,
            // A cell can only be empty if its task was never run, which
            // the claim counter rules out; a poisoned mutex means the
            // *pool* panicked, not the task. Surface both as a task
            // failure rather than unwinding the caller.
            _ => Err("task result missing".to_string()),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn results_come_back_in_submission_order() {
        let tasks: Vec<_> = (0..100u64).map(|i| move || i * 3).collect();
        let out = run_tasks(tasks, 4);
        for (i, r) in out.iter().enumerate() {
            assert_eq!(*r.as_ref().unwrap(), i as u64 * 3);
        }
    }

    #[test]
    fn every_task_runs_exactly_once() {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let tasks: Vec<_> = (0..257)
            .map(|_| || COUNTER.fetch_add(1, Ordering::SeqCst))
            .collect();
        let out = run_tasks(tasks, 8);
        assert_eq!(out.len(), 257);
        assert_eq!(COUNTER.load(Ordering::SeqCst), 257);
        // All increments distinct: each task observed a unique value.
        let mut seen: Vec<u64> = out.into_iter().map(|r| r.unwrap()).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 257);
    }

    #[test]
    fn a_panicking_task_is_isolated() {
        let tasks: Vec<Box<dyn FnOnce() -> u64 + Send>> = (0..16)
            .map(|i| {
                let f: Box<dyn FnOnce() -> u64 + Send> = if i == 7 {
                    Box::new(|| panic!("task 7 poisoned"))
                } else {
                    Box::new(move || i)
                };
                f
            })
            .collect();
        let out = run_tasks(tasks, 3);
        for (i, r) in out.iter().enumerate() {
            if i == 7 {
                assert_eq!(
                    r.as_ref().err().map(String::as_str),
                    Some("task 7 poisoned")
                );
            } else {
                assert_eq!(*r.as_ref().unwrap(), i as u64);
            }
        }
    }

    #[test]
    fn catch_panic_keeps_values_and_names_panics() {
        assert_eq!(catch_panic(|| 5), Ok(5));
        assert_eq!(
            catch_panic(|| -> u8 { panic!("cell {} poisoned", 3) }),
            Err("cell 3 poisoned".to_string())
        );
        assert_eq!(
            catch_panic(|| -> u8 { std::panic::panic_any(7u32) }),
            Err("non-string panic payload".to_string())
        );
    }

    #[test]
    fn only_workers_of_a_shared_pool_report_sharing() {
        assert!(!in_shared_worker());
        let probe = || (in_shared_worker(), crate::sampling::sampling_threads());
        let out = run_tasks(vec![probe; 4], 2);
        assert!(out.into_iter().all(|r| r.unwrap() == (true, 1)));
        // One task clamps the pool to one worker, which shares nothing.
        let out = run_tasks(vec![probe], 4);
        assert!(!out[0].as_ref().unwrap().0);
        assert!(!in_shared_worker());
    }

    #[test]
    fn more_workers_than_tasks_is_fine() {
        let tasks: Vec<_> = (0..3u64).map(|i| move || i).collect();
        let out = run_tasks(tasks, 64);
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn empty_task_list_returns_empty() {
        let out = run_tasks(Vec::<Box<dyn FnOnce() -> u8 + Send>>::new(), 4);
        assert!(out.is_empty());
    }

    #[test]
    fn single_worker_degrades_to_serial() {
        let tasks: Vec<_> = (0..20u64).map(|i| move || i + 1).collect();
        let out = run_tasks(tasks, 1);
        for (i, r) in out.iter().enumerate() {
            assert_eq!(*r.as_ref().unwrap(), i as u64 + 1);
        }
    }

    #[test]
    fn default_workers_is_bounded_by_tasks() {
        assert_eq!(default_workers(0), 1);
        assert_eq!(default_workers(1), 1);
        assert!(default_workers(1_000_000) >= 1);
        // The unclamped host view is what the clamp starts from.
        assert!(host_parallelism() >= 1);
        assert_eq!(
            default_workers(1_000_000),
            host_parallelism().min(1_000_000)
        );
    }

    #[test]
    fn workers_override_parses_positive_integers_only() {
        // The env read is cached in a OnceLock (so one process observes
        // one value); the parse itself is tested through its seam.
        assert_eq!(parse_workers_override(None), None);
        assert_eq!(parse_workers_override(Some("".into())), None);
        assert_eq!(parse_workers_override(Some("0".into())), None);
        assert_eq!(parse_workers_override(Some("banana".into())), None);
        assert_eq!(parse_workers_override(Some("3".into())), Some(3));
        assert_eq!(parse_workers_override(Some(" 16 ".into())), Some(16));
    }
}
