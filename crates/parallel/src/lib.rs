//! # gact-parallel
//!
//! A small, dependency-free work-stealing thread pool shared by the whole
//! workspace (vendored in-tree like the `rand`/`proptest` stand-ins: the
//! build environment has no network, so `rayon` is not an option).
//!
//! ## API
//!
//! * [`scope`] — structured fork/join: spawn borrowing closures, all of
//!   which complete before `scope` returns;
//! * [`par_map`] — apply a function to every element of a slice across
//!   workers, collecting results **in input order**;
//! * [`par_chunks`] — the blocked variant, one call per contiguous chunk;
//! * [`current_threads`] / [`with_threads`] — the effective parallelism,
//!   from the `GACT_THREADS` environment variable (or the machine's
//!   available parallelism), overridable per call tree for tests.
//!
//! ## Determinism guarantee
//!
//! Every combinator reduces in a **deterministic order**: `par_map` and
//! `par_chunks` write each result into the slot of its input index, so the
//! returned `Vec` is independent of scheduling, thread count, and work
//! distribution. Callers that fold the returned vector therefore observe
//! the exact sequential reduce order. With an effective thread count of 1
//! (`GACT_THREADS=1`) nothing is ever sent to the pool — closures run
//! inline on the caller, byte-identically to a sequential implementation.
//!
//! ## Scheduling
//!
//! Worker threads are started lazily and kept for the process lifetime.
//! Each worker owns a deque: it pops its own work LIFO and steals FIFO
//! from the global injector or from siblings when idle. `par_map`
//! additionally steals at the item level — workers claim blocks of the
//! index space from a shared atomic cursor, so an early-finishing worker
//! picks up the remainder of a slow one's range.
//!
//! Panics propagate: a panicking spawned closure poisons its scope, which
//! finishes draining (memory safety for borrowed data) and then resumes
//! the first panic on the caller.

#![deny(missing_docs)]

use std::cell::Cell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, RwLock};
use std::time::Duration;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// One worker's deque. Own pops come from the front (LIFO relative to own
/// pushes, which also go to the front); steals come from the back.
#[derive(Default)]
struct WorkerQueue {
    jobs: Mutex<VecDeque<Job>>,
}

struct Shared {
    /// Jobs injected from threads outside the pool.
    injector: Mutex<VecDeque<Job>>,
    /// Per-worker deques, in spawn order (grows, never shrinks).
    queues: RwLock<Vec<Arc<WorkerQueue>>>,
    /// Sleep/wake protocol for idle workers.
    sleep_lock: Mutex<()>,
    sleep_cv: Condvar,
}

struct Pool {
    shared: Arc<Shared>,
    /// Number of worker threads actually spawned.
    spawned: Mutex<usize>,
}

thread_local! {
    /// Index of the pool worker running on this thread (`None` elsewhere).
    static WORKER_INDEX: Cell<Option<usize>> = const { Cell::new(None) };
    /// Per-call-tree thread-count override (0 = none); see [`with_threads`].
    static THREAD_OVERRIDE: Cell<usize> = const { Cell::new(0) };
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        shared: Arc::new(Shared {
            injector: Mutex::new(VecDeque::new()),
            queues: RwLock::new(Vec::new()),
            sleep_lock: Mutex::new(()),
            sleep_cv: Condvar::new(),
        }),
        spawned: Mutex::new(0),
    })
}

impl Pool {
    /// Ensures at least `want` worker threads exist (best effort: spawn
    /// failures degrade to fewer workers, never to an error — the caller
    /// thread always participates and can drain everything alone).
    fn ensure_workers(&self, want: usize) {
        let mut n = self.spawned.lock().expect("pool spawn lock");
        while *n < want {
            let queue = Arc::new(WorkerQueue::default());
            let shared = Arc::clone(&self.shared);
            let index = {
                let mut queues = self.shared.queues.write().expect("pool queues lock");
                queues.push(Arc::clone(&queue));
                queues.len() - 1
            };
            let spawned = std::thread::Builder::new()
                .name(format!("gact-worker-{index}"))
                .spawn(move || worker_main(shared, queue, index));
            if spawned.is_err() {
                // Unregister the dead queue: nothing will ever service it,
                // and leaving it would make every later ensure_workers call
                // push another (unbounded growth + pointless steal probes).
                // No job can have landed on it — only its own (unspawned)
                // worker pushes there.
                self.shared.queues.write().expect("pool queues lock").pop();
                break;
            }
            *n += 1;
        }
    }

    /// Pushes a job: onto the current worker's own deque when called from
    /// the pool, otherwise onto the injector. Wakes sleepers.
    fn push(&self, job: Job) {
        let own = WORKER_INDEX.with(|w| w.get());
        match own {
            Some(i) => {
                let queues = self.shared.queues.read().expect("pool queues lock");
                queues[i]
                    .jobs
                    .lock()
                    .expect("worker deque lock")
                    .push_front(job);
            }
            None => self
                .shared
                .injector
                .lock()
                .expect("pool injector lock")
                .push_back(job),
        }
        let _guard = self.shared.sleep_lock.lock().expect("pool sleep lock");
        self.shared.sleep_cv.notify_all();
    }

    /// Pops any available job: injector first, then steal from the back of
    /// every worker deque. Used by scope owners helping out and by workers
    /// whose own deque is empty.
    fn try_steal(&self, skip: Option<usize>) -> Option<Job> {
        if let Some(job) = self
            .shared
            .injector
            .lock()
            .expect("pool injector lock")
            .pop_front()
        {
            return Some(job);
        }
        let queues = self.shared.queues.read().expect("pool queues lock");
        let len = queues.len();
        let start = skip.map(|i| i + 1).unwrap_or(0);
        for off in 0..len {
            let i = (start + off) % len;
            if Some(i) == skip {
                continue;
            }
            if let Some(job) = queues[i].jobs.lock().expect("worker deque lock").pop_back() {
                return Some(job);
            }
        }
        None
    }
}

fn worker_main(shared: Arc<Shared>, own: Arc<WorkerQueue>, index: usize) {
    WORKER_INDEX.with(|w| w.set(Some(index)));
    loop {
        // Pop the own deque in its own statement: the guard must drop
        // before stealing, or two idle workers each holding their own
        // deque while probing the other's would deadlock.
        let own_job = own.jobs.lock().expect("worker deque lock").pop_front();
        let job = own_job.or_else(|| pool().try_steal(Some(index)));
        match job {
            Some(job) => job(),
            None => {
                let guard = shared.sleep_lock.lock().expect("pool sleep lock");
                // Re-check under the sleep lock: a pusher enqueues first
                // and only then notifies (holding this lock), so either
                // the work below is visible or the notify is yet to come.
                if has_work(&shared) {
                    continue;
                }
                // The long timeout is belt-and-braces only; idle workers
                // otherwise sleep without periodic churn.
                let _ = shared
                    .sleep_cv
                    .wait_timeout(guard, Duration::from_millis(500));
            }
        }
    }
}

/// Whether any queue holds a job (used by sleepers re-checking under the
/// sleep lock before waiting).
fn has_work(shared: &Shared) -> bool {
    if !shared
        .injector
        .lock()
        .expect("pool injector lock")
        .is_empty()
    {
        return true;
    }
    let queues = shared.queues.read().expect("pool queues lock");
    queues
        .iter()
        .any(|q| !q.jobs.lock().expect("worker deque lock").is_empty())
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The largest thread count an entry point accepts. Every worker is an OS
/// thread kept for the process lifetime, so a requested count is bounded
/// before the pool sees it: [`env_threads`] ignores a larger
/// `GACT_THREADS`, and `gact_engine::EngineBuilder::threads` rejects one.
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
pub fn env_threads() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| {
        std::env::var("GACT_THREADS")
            .ok()
            .and_then(|s| parse_threads(&s))
            .unwrap_or_else(default_threads)
    })
}

/// The effective thread count for work started from this thread: the
/// innermost [`with_threads`] override, or [`env_threads`].
pub fn current_threads() -> usize {
    let o = THREAD_OVERRIDE.with(|t| t.get());
    if o >= 1 {
        o
    } else {
        env_threads()
    }
}

/// Runs `f` with the effective thread count forced to `n` for `f`'s whole
/// call tree — including closures `f` spawns onto the pool, which inherit
/// the spawner's effective count while they run (used by the
/// sequential/parallel equivalence tests; `GACT_THREADS` is read once per
/// process, so tests cannot toggle it). `n = 1` makes every combinator
/// run inline on the caller.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    assert!(n >= 1, "thread count must be at least 1");
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

struct ScopeState {
    pending: AtomicUsize,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    done_lock: Mutex<()>,
    done_cv: Condvar,
}

/// A fork/join scope: closures spawned on it may borrow from the enclosing
/// stack frame and are guaranteed to finish before [`scope`] returns.
pub struct Scope<'env> {
    state: Arc<ScopeState>,
    inline: bool,
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'env> Scope<'env> {
    /// Spawns `f` onto the pool (or runs it inline when the effective
    /// thread count is 1).
    pub fn spawn<F: FnOnce() + Send + 'env>(&self, f: F) {
        if self.inline {
            f();
            return;
        }
        self.state.pending.fetch_add(1, Ordering::SeqCst);
        let state = Arc::clone(&self.state);
        // Jobs inherit the spawner's *effective* thread count, so a
        // `with_threads` override really covers its whole call tree:
        // nested parallel stages inside a worker job see the same count
        // the spawning thread did, not the worker's default.
        let inherited = current_threads();
        let wrapper = move || {
            let _restore = OverrideGuard::set(inherited);
            if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
                state
                    .panic
                    .lock()
                    .expect("scope panic slot")
                    .get_or_insert(payload);
            }
            if state.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
                let _guard = state.done_lock.lock().expect("scope done lock");
                state.done_cv.notify_all();
            }
        };
        let job: Box<dyn FnOnce() + Send + 'env> = Box::new(wrapper);
        // SAFETY: `scope` never returns (or unwinds) before `pending` drops
        // to zero, so the erased-lifetime closure cannot outlive the data
        // it borrows. This is the standard scoped-task erasure (same shape
        // as `std::thread::scope`'s internals).
        let job: Job = unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Job>(job) };
        pool().push(job);
    }
}

/// Structured fork/join: calls `f` with a [`Scope`], then blocks — helping
/// execute pool work — until every spawned closure has finished. The first
/// panic (from the body or any spawned closure) is resumed on the caller
/// *after* the scope has fully drained.
pub fn scope<'env, R>(f: impl FnOnce(&Scope<'env>) -> R) -> R {
    let threads = current_threads();
    if threads <= 1 {
        let s = Scope {
            state: Arc::new(ScopeState {
                pending: AtomicUsize::new(0),
                panic: Mutex::new(None),
                done_lock: Mutex::new(()),
                done_cv: Condvar::new(),
            }),
            inline: true,
            _env: PhantomData,
        };
        return f(&s);
    }
    pool().ensure_workers(threads - 1);
    let s = Scope {
        state: Arc::new(ScopeState {
            pending: AtomicUsize::new(0),
            panic: Mutex::new(None),
            done_lock: Mutex::new(()),
            done_cv: Condvar::new(),
        }),
        inline: false,
        _env: PhantomData,
    };
    let body = catch_unwind(AssertUnwindSafe(|| f(&s)));
    // Help drain until all spawned tasks completed. Required for memory
    // safety even when the body panicked: tasks borrow the caller's frame.
    // `skip: None` deliberately includes this thread's own worker deque:
    // a nested scope on a worker spawns onto that deque, and nobody else
    // is guaranteed to steal from it.
    while s.state.pending.load(Ordering::SeqCst) > 0 {
        match pool().try_steal(None) {
            Some(job) => job(),
            None => {
                let guard = s.state.done_lock.lock().expect("scope done lock");
                if s.state.pending.load(Ordering::SeqCst) == 0 {
                    break;
                }
                let _ = s
                    .state
                    .done_cv
                    .wait_timeout(guard, Duration::from_millis(1));
            }
        }
    }
    match body {
        Err(payload) => resume_unwind(payload),
        Ok(result) => {
            let stashed = s.state.panic.lock().expect("scope panic slot").take();
            if let Some(payload) = stashed {
                resume_unwind(payload);
            }
            result
        }
    }
}

/// Raw result slots shared across workers; each index is written exactly
/// once, by whichever worker claimed it.
struct Slots<R>(*mut Option<R>);
unsafe impl<R: Send> Sync for Slots<R> {}
unsafe impl<R: Send> Send for Slots<R> {}

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
    // steal the tail of slow ones' ranges.
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
            // SAFETY: index `i` is claimed by exactly one worker, and
            // `results` outlives the scope below.
            unsafe { *slots.0.add(i) = Some(value) };
        }
    };
    scope(|s| {
        for _ in 0..threads - 1 {
            s.spawn(work);
        }
        work();
    });
    results
        .into_iter()
        .map(|slot| slot.expect("every par_map slot is filled"))
        .collect()
}

/// Applies `f` to consecutive chunks of at most `chunk_size` elements, in
/// parallel; `f` receives the chunk's starting index and the chunk.
/// Results come back in chunk order (deterministic reduce order).
///
/// # Panics
///
/// Panics if `chunk_size` is zero.
pub fn par_chunks<T, R, F>(items: &[T], chunk_size: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    assert!(chunk_size > 0, "chunk_size must be positive");
    let ranges: Vec<(usize, usize)> = (0..items.len())
        .step_by(chunk_size)
        .map(|start| (start, (start + chunk_size).min(items.len())))
        .collect();
    par_map(&ranges, |&(start, end)| f(start, &items[start..end]))
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
    fn par_chunks_covers_everything_in_order() {
        let items: Vec<usize> = (0..103).collect();
        let sums = with_threads(4, || {
            par_chunks(&items, 10, |start, chunk| {
                assert_eq!(chunk[0], start);
                chunk.iter().sum::<usize>()
            })
        });
        assert_eq!(sums.len(), 11);
        assert_eq!(sums.iter().sum::<usize>(), items.iter().sum::<usize>());
    }

    #[test]
    fn scope_runs_all_tasks() {
        let counter = AtomicU64::new(0);
        with_threads(4, || {
            scope(|s| {
                for _ in 0..64 {
                    s.spawn(|| {
                        counter.fetch_add(1, Ordering::SeqCst);
                    });
                }
            })
        });
        assert_eq!(counter.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn scope_tasks_borrow_stack_data() {
        let data: Vec<u64> = (0..100).collect();
        let total = AtomicU64::new(0);
        with_threads(4, || {
            scope(|s| {
                for chunk in data.chunks(7) {
                    let total = &total;
                    s.spawn(move || {
                        total.fetch_add(chunk.iter().sum::<u64>(), Ordering::SeqCst);
                    });
                }
            })
        });
        assert_eq!(total.load(Ordering::SeqCst), data.iter().sum::<u64>());
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
        let result = std::panic::catch_unwind(|| {
            with_threads(4, || {
                scope(|s| {
                    for i in 0..16 {
                        s.spawn(move || {
                            if i == 7 {
                                panic!("boom");
                            }
                        });
                    }
                })
            })
        });
        assert!(result.is_err());
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
    fn single_thread_runs_inline() {
        // No pool interaction: spawned closures run immediately, in order.
        let order = Mutex::new(Vec::new());
        with_threads(1, || {
            scope(|s| {
                for i in 0..5 {
                    let order = &order;
                    s.spawn(move || order.lock().unwrap().push(i));
                }
            })
        });
        assert_eq!(order.into_inner().unwrap(), vec![0, 1, 2, 3, 4]);
    }
}
