//! # gact-parallel
//!
//! A small, dependency-free thread pool shared by the whole workspace
//! (vendored in-tree like the `rand`/`proptest` stand-ins: the build
//! environment has no network, so `rayon` is not an option).
//!
//! ## API
//!
//! * [`par_map`] — apply a function to every element of a slice across
//!   workers, collecting results **in input order**;
//! * [`current_threads`] / [`with_threads`] — the effective parallelism,
//!   from the `GACT_THREADS` environment variable (or the machine's
//!   available parallelism), overridable per call tree;
//! * [`MAX_THREADS`] — the largest thread count any entry point accepts.
//!
//! ## Determinism guarantee
//!
//! `par_map` writes each result into the slot of its input index, so the
//! returned `Vec` is independent of scheduling, thread count, and work
//! distribution. Callers that fold the returned vector therefore observe
//! the exact sequential reduce order. With an effective thread count of 1
//! (`GACT_THREADS=1`) nothing is ever sent to the pool — the closure runs
//! inline on the caller, byte-identically to a sequential implementation.
//!
//! ## Scheduling
//!
//! Worker threads are started lazily and kept for the process lifetime;
//! they all pop jobs from one shared FIFO queue. A `par_map` call queues
//! `threads − 1` helper jobs and runs the same loop itself: every
//! participant claims blocks of the index space from a shared atomic
//! cursor, so an early finisher picks up the remainder of a slow one's
//! range. While its helpers are pending, the caller runs queued jobs
//! itself, so a nested `par_map` on a worker never waits on a job that
//! nobody is free to run.
//!
//! Panics propagate: a panicking item poisons its call, which finishes
//! draining (memory safety for borrowed data) and then resumes the first
//! panic on the caller.

#![deny(missing_docs)]

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// The process-wide pool: one job queue shared by every worker.
struct Pool {
    jobs: Mutex<VecDeque<Job>>,
    /// Notified once per queued job; idle workers wait on it.
    job_queued: Condvar,
    /// Number of worker threads actually spawned.
    workers: Mutex<usize>,
}

thread_local! {
    /// Per-call-tree thread-count override (0 = none); see [`with_threads`].
    static THREAD_OVERRIDE: Cell<usize> = const { Cell::new(0) };
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        jobs: Mutex::new(VecDeque::new()),
        job_queued: Condvar::new(),
        workers: Mutex::new(0),
    })
}

impl Pool {
    /// Ensures at least `want` worker threads exist (best effort: a spawn
    /// failure leaves fewer workers, never an error — the caller of
    /// `par_map` always participates and can drain everything alone).
    fn ensure_workers(&'static self, want: usize) {
        let mut n = self.workers.lock().expect("pool worker count poisoned");
        while *n < want {
            // Workers are never joined: they serve every later call until
            // the process exits, and no job can unwind out of one (each
            // catches its own panic for its latch).
            let spawned = std::thread::Builder::new()
                .name(format!("gact-worker-{}", *n))
                .spawn(move || self.work_forever());
            if spawned.is_err() {
                break;
            }
            *n += 1;
        }
    }

    fn push(&self, job: Job) {
        self.jobs
            .lock()
            .expect("pool queue poisoned")
            .push_back(job);
        self.job_queued.notify_one();
    }

    fn try_pop(&self) -> Option<Job> {
        self.jobs.lock().expect("pool queue poisoned").pop_front()
    }

    fn work_forever(&self) {
        loop {
            let job = {
                let mut jobs = self.jobs.lock().expect("pool queue poisoned");
                loop {
                    match jobs.pop_front() {
                        Some(job) => break job,
                        None => jobs = self.job_queued.wait(jobs).expect("pool queue poisoned"),
                    }
                }
            };
            job();
        }
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The largest thread count an entry point accepts. Every worker is an OS
/// thread kept for the process lifetime, so a requested count is bounded
/// before the pool sees it: a larger `GACT_THREADS` is ignored, and
/// `gact_engine::EngineBuilder::threads` rejects one.
pub const MAX_THREADS: usize = 256;

/// Parses a `GACT_THREADS` value: an integer in `1 ..= MAX_THREADS`, else
/// `None`.
fn parse_threads(value: &str) -> Option<usize> {
    value
        .trim()
        .parse::<usize>()
        .ok()
        .filter(|n| (1..=MAX_THREADS).contains(n))
}

/// The process-wide thread count: `GACT_THREADS` if set to an integer in
/// `1 ..= MAX_THREADS`, otherwise the machine's available parallelism.
/// Read once.
fn env_threads() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| {
        std::env::var("GACT_THREADS")
            .ok()
            .and_then(|s| parse_threads(&s))
            .unwrap_or_else(default_threads)
    })
}

/// The effective thread count for work started from this thread: the
/// innermost [`with_threads`] override, or else `GACT_THREADS` (read once
/// per process) or the machine's available parallelism.
pub fn current_threads() -> usize {
    let o = THREAD_OVERRIDE.with(|t| t.get());
    if o >= 1 {
        o
    } else {
        env_threads()
    }
}

/// Runs `f` with the effective thread count forced to `n` for `f`'s whole
/// call tree — including [`par_map`] items that run on pool workers,
/// which inherit the caller's effective count while they run (used by the
/// sequential/parallel equivalence tests; `GACT_THREADS` is read once per
/// process, so tests cannot toggle it). `n = 1` makes every `par_map` run
/// inline on the caller.
///
/// # Panics
///
/// Panics if `n` is outside `1 ..= MAX_THREADS`, before any pool starts.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    assert!(n >= 1, "thread count must be at least 1");
    assert!(
        n <= MAX_THREADS,
        "thread count must be at most {MAX_THREADS}"
    );
    let _restore = OverrideGuard::set(n);
    f()
}

/// RAII restore for the thread-local override.
struct OverrideGuard(usize);

impl OverrideGuard {
    fn set(n: usize) -> Self {
        OverrideGuard(THREAD_OVERRIDE.with(|t| t.replace(n)))
    }
}

impl Drop for OverrideGuard {
    fn drop(&mut self) {
        THREAD_OVERRIDE.with(|t| t.set(self.0));
    }
}

/// Completion latch of one [`par_map`] call: its helper jobs still to
/// finish and the first panic one of them raised. It lives in an `Arc`,
/// never on the caller's stack: a helper still touches it after its last
/// decrement, when the caller may already have returned.
struct Latch {
    pending: AtomicUsize,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    done_lock: Mutex<()>,
    done_cv: Condvar,
}

/// Runs `work` on the caller and on `helpers` queued jobs, each of which
/// runs it with the caller's effective thread count, and returns once all
/// of them have finished. The first panic (the caller's, else a helper's)
/// is resumed after that.
fn run_with_helpers(helpers: usize, work: &(dyn Fn() + Sync)) {
    let pool = pool();
    pool.ensure_workers(helpers);
    let latch = Arc::new(Latch {
        pending: AtomicUsize::new(helpers),
        panic: Mutex::new(None),
        done_lock: Mutex::new(()),
        done_cv: Condvar::new(),
    });
    let inherited = current_threads();
    for _ in 0..helpers {
        let latch = Arc::clone(&latch);
        let job = move || {
            let _restore = OverrideGuard::set(inherited);
            if let Err(payload) = catch_unwind(AssertUnwindSafe(work)) {
                latch
                    .panic
                    .lock()
                    .expect("latch panic slot poisoned")
                    .get_or_insert(payload);
            }
            if latch.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
                let _guard = latch.done_lock.lock().expect("latch lock poisoned");
                latch.done_cv.notify_all();
            }
        };
        let job: Box<dyn FnOnce() + Send + '_> = Box::new(job);
        // SAFETY: the job borrows `work`, which outlives this call. This
        // function neither returns nor unwinds before `pending` reaches
        // zero, and a job decrements it only after its call of `work` has
        // ended; what the job touches afterwards is the `Arc`-owned latch.
        // So the erased lifetime never outlives the borrowed data (the
        // same erasure as `std::thread::scope`'s internals).
        let job: Job = unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Job>(job) };
        pool.push(job);
    }
    let body = catch_unwind(AssertUnwindSafe(work));
    // Help run queued jobs until every helper has finished. Required for
    // memory safety even when the body panicked: helpers borrow `work`.
    while latch.pending.load(Ordering::SeqCst) > 0 {
        match pool.try_pop() {
            Some(job) => job(),
            None => {
                let guard = latch.done_lock.lock().expect("latch lock poisoned");
                if latch.pending.load(Ordering::SeqCst) == 0 {
                    break;
                }
                // A timed wait: a job queued meanwhile notifies the
                // workers, not this latch.
                let _ = latch.done_cv.wait_timeout(guard, Duration::from_millis(1));
            }
        }
    }
    if let Err(payload) = body {
        resume_unwind(payload);
    }
    let stashed = latch
        .panic
        .lock()
        .expect("latch panic slot poisoned")
        .take();
    if let Some(payload) = stashed {
        resume_unwind(payload);
    }
}

/// Raw result slots shared across workers; each index is written exactly
/// once, by whichever participant claimed it.
struct Slots<R>(*mut Option<R>);
// SAFETY: the pointer is only used to write an `R` into a slot that one
// participant claimed exclusively from the cursor (so moving `R` values
// across threads needs `R: Send`), and the slots' `Vec` outlives every
// participant because `run_with_helpers` returns only after all finished.
unsafe impl<R: Send> Sync for Slots<R> {}

/// Applies `f` to every element, in parallel, returning results **in input
/// order** (the deterministic reduce order — independent of thread count
/// and scheduling). With an effective thread count of 1, or fewer than two
/// items, this is exactly `items.iter().map(f).collect()`.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    let threads = current_threads().min(n);
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    let mut results: Vec<Option<R>> = Vec::with_capacity(n);
    results.resize_with(n, || None);
    let slots = Slots(results.as_mut_ptr());
    let slots = &slots;
    let next = AtomicUsize::new(0);
    let next = &next;
    // Blocks keep atomic traffic low while still letting fast workers
    // take over the tail of slow ones' ranges.
    let block = (n / (threads * 4)).max(1);
    let f = &f;
    let work = move || loop {
        let start = next.fetch_add(block, Ordering::Relaxed);
        if start >= n {
            break;
        }
        let end = (start + block).min(n);
        for (i, item) in items.iter().enumerate().take(end).skip(start) {
            let value = f(item);
            // SAFETY: index `i` is claimed by exactly one participant, and
            // `results` outlives `run_with_helpers` below.
            unsafe { *slots.0.add(i) = Some(value) };
        }
    };
    run_with_helpers(threads - 1, &work);
    results
        .into_iter()
        .map(|slot| slot.expect("every par_map slot is filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = with_threads(8, || par_map(&items, |&x| x * 2));
        assert_eq!(out, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_matches_sequential_for_every_thread_count() {
        let items: Vec<u64> = (0..257).collect();
        let expected: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(x) ^ 0xabcd).collect();
        for threads in [1, 2, 3, 8, 16] {
            let out = with_threads(threads, || par_map(&items, |&x| x.wrapping_mul(x) ^ 0xabcd));
            assert_eq!(out, expected, "threads = {threads}");
        }
    }

    #[test]
    fn par_map_empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert!(with_threads(4, || par_map(&empty, |&x| x)).is_empty());
        assert_eq!(with_threads(4, || par_map(&[7u32], |&x| x + 1)), vec![8]);
    }

    #[test]
    fn par_map_items_borrow_stack_data() {
        let data: Vec<u64> = (0..100).collect();
        let total = AtomicU64::new(0);
        let chunks: Vec<&[u64]> = data.chunks(7).collect();
        let sums = with_threads(4, || {
            par_map(&chunks, |chunk| {
                let sum = chunk.iter().sum::<u64>();
                total.fetch_add(sum, Ordering::SeqCst);
                sum
            })
        });
        assert_eq!(sums.iter().sum::<u64>(), data.iter().sum::<u64>());
        assert_eq!(total.load(Ordering::SeqCst), data.iter().sum::<u64>());
    }

    #[test]
    fn items_inherit_the_callers_thread_count() {
        let items: Vec<u32> = (0..64).collect();
        let seen = with_threads(3, || par_map(&items, |_| current_threads()));
        assert_eq!(seen, vec![3; items.len()]);
    }

    #[test]
    fn latch_outlives_many_two_item_maps() {
        // A helper touches the latch after its last decrement, when the
        // caller may already have returned. Items spin so that workers
        // take helper jobs, and the caller overwrites its stack between
        // calls, so a latch kept in the caller's frame would be read as
        // garbage.
        #[inline(never)]
        fn overwrite_stack() {
            std::hint::black_box([0xa5u8; 2048]);
        }
        with_threads(4, || {
            for i in 0..100_000u64 {
                let out = par_map(&[i, i + 1], |&x| {
                    for _ in 0..200 {
                        std::hint::black_box(x);
                    }
                    x * 2
                });
                overwrite_stack();
                assert_eq!(out, vec![2 * i, 2 * i + 2]);
            }
        });
    }

    #[test]
    fn nested_scopes_make_progress() {
        let items: Vec<u32> = (0..40).collect();
        let out = with_threads(4, || {
            par_map(&items, |&x| {
                let inner: Vec<u32> = (0..x % 5).collect();
                par_map(&inner, |&y| y + 1).into_iter().sum::<u32>() + x
            })
        });
        let expected: Vec<u32> = items
            .iter()
            .map(|&x| (0..x % 5).map(|y| y + 1).sum::<u32>() + x)
            .collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn spawned_panic_propagates_after_drain() {
        // The panic is raised inside a nested map, on whichever thread ran
        // that item, and must reach the outermost caller.
        let items: Vec<u32> = (0..16).collect();
        let result = std::panic::catch_unwind(|| {
            with_threads(4, || {
                par_map(&items, |&x| {
                    let inner: Vec<u32> = (0..8).collect();
                    par_map(&inner, |&y| {
                        if x == 7 && y == 5 {
                            panic!("boom");
                        }
                        y
                    })
                })
            })
        });
        let payload = result.expect_err("the nested panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
        // The pool is still usable afterwards.
        let ok = with_threads(4, || par_map(&[1u32, 2, 3], |&x| x * 10));
        assert_eq!(ok, vec![10, 20, 30]);
    }

    #[test]
    fn par_map_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            with_threads(4, || {
                par_map(&(0..64).collect::<Vec<u32>>(), |&x| {
                    if x == 33 {
                        panic!("item panic");
                    }
                    x
                })
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn gact_threads_outside_the_cap_is_ignored() {
        assert_eq!(parse_threads(" 4 "), Some(4));
        assert_eq!(parse_threads(&MAX_THREADS.to_string()), Some(MAX_THREADS));
        for bad in ["0", "257", "1000000", "-1", "four", ""] {
            assert_eq!(parse_threads(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn with_threads_nests_and_restores() {
        assert!(current_threads() >= 1);
        with_threads(3, || {
            assert_eq!(current_threads(), 3);
            with_threads(1, || assert_eq!(current_threads(), 1));
            assert_eq!(current_threads(), 3);
        });
    }

    #[test]
    #[should_panic(expected = "thread count must be at most")]
    fn with_threads_rejects_counts_above_the_cap() {
        // The cap is checked before the override is installed, so the
        // closure never runs and no pool is started.
        with_threads(MAX_THREADS + 1, || unreachable!("closure must not run"));
    }

    #[test]
    fn single_thread_runs_inline() {
        // No pool interaction: items run on the caller, in order.
        let caller = std::thread::current().id();
        let order = Mutex::new(Vec::new());
        with_threads(1, || {
            par_map(&[0, 1, 2, 3, 4], |&i| {
                assert_eq!(std::thread::current().id(), caller);
                order.lock().unwrap().push(i);
            })
        });
        assert_eq!(order.into_inner().unwrap(), vec![0, 1, 2, 3, 4]);
    }
}
