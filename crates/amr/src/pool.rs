//! The persistent worker pool behind leaf sweeps.
//!
//! The seed implementation spawned a fresh `crossbeam::scope` of OS
//! threads for *every* directional sweep — two spawns + joins per hydro
//! step, thousands per run. The process-wide pool spawns workers once
//! (growing on demand up to the largest requested count), parks them on a
//! condvar between sweeps, and hands each sweep out as an indexed job
//! consumed through an atomic cursor. The submitting thread participates
//! in the work, so `threads = n` means `n` CPUs busy, with `n - 1` pool
//! workers. Mesh sweeps are its only client ([`crate::par_leaves`]);
//! concurrent submitters serialize on a submit lock, and threads that run
//! many sweeps side by side opt out with [`run_inline`].
//!
//! Lock order: a submitter takes the submit lock, then the state lock;
//! nothing takes them the other way round, so no checker is needed.
//! Workers hold only an `Arc<PoolShared>`, and `PoolShared` has no
//! `submit` — the submit lock lives in `Pool`, out of a worker's reach.
//! A sweep nested inside a task runs inline (the `IN_SWEEP` flag)
//! instead of re-taking the submit lock. ThreadSanitizer over this
//! module's tests stays the dynamic check.
//!
//! Safety: the job closure is type-erased to a raw `'static` pointer, which
//! is sound because the submit path does not return until every worker
//! has bumped the done-count for the job's generation — the closure (and
//! everything it borrows) strictly outlives all uses. Worker panics are
//! caught and re-raised on the submitting thread, matching the join
//! semantics of the scoped-thread version.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Type-erased job closure: called with the item index.
type Task = *const (dyn Fn(usize) + Sync);

struct Job {
    task: Task,
    n_items: usize,
    /// Maximum pool workers that may join this job (the submitting thread
    /// is always an extra participant).
    max_workers: usize,
}

// SAFETY: `Job` is Send despite the raw task pointer because the pointer is
// only dereferenced while the submitting thread blocks inside `submit`, which
// keeps the underlying closure (and everything it borrows) alive on the
// submitter's stack; workers never retain the pointer past job completion, and
// the generation counter ensures no worker touches a stale job.
unsafe impl Send for Job {}

struct PoolState {
    /// Monotonic job id; workers run one job per bump.
    generation: u64,
    job: Option<Job>,
    /// Workers that have not yet finished the current generation.
    active: usize,
    /// Set if any worker panicked inside the job.
    panicked: bool,
    /// Total live workers.
    workers: usize,
}

struct PoolShared {
    state: Mutex<PoolState>,
    work_cv: Condvar,
    done_cv: Condvar,
    cursor: AtomicUsize,
    /// Participation tickets: workers beyond a job's `max_workers` skip it.
    tickets: AtomicUsize,
}

/// The persistent worker pool. One process-wide instance lives for the
/// whole process; its workers are never shut down.
pub(crate) struct Pool {
    shared: Arc<PoolShared>,
    /// Serializes submitters: one job in flight per pool.
    submit: Mutex<()>,
}

static POOL: OnceLock<Pool> = OnceLock::new();

thread_local! {
    /// True while this thread is executing sweep items (as submitter or
    /// pool worker). A nested sweep from inside a kernel must not touch
    /// the pool — the submitter path could self-deadlock on the submit
    /// lock and a worker would starve the outer job — so it runs inline.
    static IN_SWEEP: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Run `task(i)` for every `i in 0..n_items` on up to `threads` CPUs
/// (including the calling thread), using the persistent pool.
///
/// * items are handed out through an atomic cursor, so long and short
///   items load-balance automatically;
/// * concurrent callers are serialized (the mesh-sweep call sites
///   already hold `&mut Mesh`, so this costs nothing in practice);
/// * re-entrant calls (a kernel sweeping another mesh) and calls under
///   [`run_inline`] execute inline on the calling thread;
/// * a panicking task propagates to the submitting thread after the
///   batch drains, like the scoped-thread spawn it replaces.
pub(crate) fn run_indexed(n_items: usize, threads: usize, task: &(dyn Fn(usize) + Sync)) {
    POOL.get_or_init(Pool::new).run(n_items, threads, task);
}

/// Run `f` with this thread marked as a sweep participant: any mesh
/// sweep `f` makes (via `par_leaves`) executes **inline** on this thread
/// instead of queueing on the pool's submit lock.
///
/// This is what pool workers get implicitly; long-lived worker threads
/// that are *not* pool tasks — e.g. the work-stealing task-pool stealers
/// in `raptor-lab` — wrap their per-item work in this so that many of
/// them running concurrently never serialize on the process-wide pool.
/// Re-entrant calls nest (the flag restores to its previous value, also
/// on panic).
pub fn run_inline<T>(f: impl FnOnce() -> T) -> T {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0;
            IN_SWEEP.with(|s| s.set(prev));
        }
    }
    let _restore = Restore(IN_SWEEP.with(|s| s.replace(true)));
    f()
}

impl Pool {
    /// A fresh pool with no workers; workers spawn lazily up to the
    /// largest `threads - 1` ever requested from `run`.
    fn new() -> Pool {
        Pool {
            shared: Arc::new(PoolShared {
                state: Mutex::new(PoolState {
                    generation: 0,
                    job: None,
                    active: 0,
                    panicked: false,
                    workers: 0,
                }),
                work_cv: Condvar::new(),
                done_cv: Condvar::new(),
                cursor: AtomicUsize::new(0),
                tickets: AtomicUsize::new(0),
            }),
            submit: Mutex::new(()),
        }
    }

    /// Run `task(i)` for every `i in 0..n_items` on up to `threads` CPUs
    /// (including the calling thread). Single-threaded, single-item, and
    /// re-entrant submissions run inline.
    fn run(&self, n_items: usize, threads: usize, task: &(dyn Fn(usize) + Sync)) {
        if IN_SWEEP.with(|f| f.get()) || threads <= 1 || n_items <= 1 {
            for i in 0..n_items {
                task(i);
            }
            return;
        }
        // A kernel panic propagates out of `run_pooled` below while this
        // lock is held; the pool holds no invariant-bearing state, so
        // recover the poisoned guard instead of failing every later sweep.
        let _submit = self.submit.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        self.run_pooled(n_items, threads, task);
    }

    fn spawn_worker(&self, start_generation: u64) {
        let shared = self.shared.clone();
        std::thread::Builder::new()
            .name("raptor-sweep".into())
            .spawn(move || worker_loop(shared, start_generation))
            .expect("spawn sweep worker");
    }

    fn run_pooled(&self, n_items: usize, threads: usize, task: &(dyn Fn(usize) + Sync)) {
        debug_assert!(threads >= 2, "single-threaded sweeps bypass the pool");
        let want_workers = threads.saturating_sub(1).min(n_items.saturating_sub(1));
        // SAFETY: see module docs — this method blocks until all workers
        // are done with this job, so erasing the lifetime cannot dangle.
        let task_ptr: Task = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(task)
        };
        {
            let mut st = self.shared.state.lock().unwrap();
            // Grow the pool before publishing the job: fresh workers start
            // waiting at the current generation.
            while st.workers < want_workers {
                self.spawn_worker(st.generation);
                st.workers += 1;
            }
            self.shared.cursor.store(0, Ordering::Relaxed);
            self.shared.tickets.store(0, Ordering::Relaxed);
            st.generation += 1;
            st.job = Some(Job { task: task_ptr, n_items, max_workers: want_workers });
            st.active = st.workers;
            st.panicked = false;
        }
        self.shared.work_cv.notify_all();
        // Participate from the submitting thread.
        IN_SWEEP.with(|f| f.set(true));
        let mine = catch_unwind(AssertUnwindSafe(|| loop {
            let i = self.shared.cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n_items {
                break;
            }
            task(i);
        }));
        IN_SWEEP.with(|f| f.set(false));
        // Wait for the workers to drain the job.
        let mut st = self.shared.state.lock().unwrap();
        while st.active > 0 {
            st = self.shared.done_cv.wait(st).unwrap();
        }
        st.job = None;
        let worker_panicked = st.panicked;
        drop(st);
        if mine.is_err() || worker_panicked {
            panic!("worker panicked");
        }
    }
}

fn worker_loop(shared: Arc<PoolShared>, mut last_generation: u64) {
    loop {
        let (task, n_items, max_workers) = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if st.generation != last_generation {
                    if let Some(job) = &st.job {
                        last_generation = st.generation;
                        break (job.task, job.n_items, job.max_workers);
                    }
                }
                st = shared.work_cv.wait(st).unwrap();
            }
        };
        // Honor the job's thread cap: late or surplus workers sit it out.
        let participating = shared.tickets.fetch_add(1, Ordering::Relaxed) < max_workers;
        // SAFETY: the submitter keeps the closure alive until this worker
        // bumps the done-count below.
        let task: &(dyn Fn(usize) + Sync) = unsafe { &*task };
        IN_SWEEP.with(|f| f.set(true));
        let result = catch_unwind(AssertUnwindSafe(|| {
            if participating {
                loop {
                    let i = shared.cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n_items {
                        break;
                    }
                    task(i);
                }
            }
        }));
        IN_SWEEP.with(|f| f.set(false));
        let mut st = shared.state.lock().unwrap();
        if result.is_err() {
            st.panicked = true;
        }
        st.active -= 1;
        if st.active == 0 {
            shared.done_cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn run_indexed_covers_every_index_once() {
        for threads in [1usize, 2, 4, 8] {
            let n = 37;
            let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
            run_indexed(n, threads, &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn run_indexed_nested_calls_run_inline() {
        let outer = AtomicUsize::new(0);
        let inner = AtomicUsize::new(0);
        run_indexed(4, 4, &|_| {
            outer.fetch_add(1, Ordering::Relaxed);
            // A nested submission must not deadlock the pool.
            run_indexed(3, 4, &|_| {
                inner.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(outer.load(Ordering::Relaxed), 4);
        assert_eq!(inner.load(Ordering::Relaxed), 12);
    }

    #[test]
    fn run_indexed_handles_empty_and_single() {
        run_indexed(0, 8, &|_| panic!("no items"));
        let n = AtomicUsize::new(0);
        run_indexed(1, 8, &|i| {
            assert_eq!(i, 0);
            n.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(n.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn concurrent_submitters_to_the_shared_pool_each_cover_their_own_indices() {
        // Two threads submit to the one process-wide pool at once: the
        // submit lock serializes their jobs, and each must still see its
        // own index space covered exactly once per round, no cross-talk.
        let n = 101;
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for _submitter in 0..2 {
                let start = &start;
                s.spawn(move || {
                    let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
                    start.wait();
                    for _round in 0..3 {
                        run_indexed(n, 3, &|i| {
                            hits[i].fetch_add(1, Ordering::Relaxed);
                        });
                    }
                    assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 3));
                });
            }
        });
    }

    #[test]
    fn run_inline_marks_the_thread_and_restores_on_exit() {
        // Inside run_inline, pool submissions execute on the calling
        // thread (the nested-sweep rule); outside, the flag is restored.
        let before = IN_SWEEP.with(|s| s.get());
        assert!(!before, "test thread starts outside any sweep");
        let n = AtomicUsize::new(0);
        run_inline(|| {
            assert!(IN_SWEEP.with(|s| s.get()));
            run_indexed(5, 8, &|_| {
                n.fetch_add(1, Ordering::Relaxed);
            });
            // Nesting restores to the *previous* value, i.e. stays set.
            run_inline(|| assert!(IN_SWEEP.with(|s| s.get())));
            assert!(IN_SWEEP.with(|s| s.get()));
        });
        assert_eq!(n.load(Ordering::Relaxed), 5);
        assert!(!IN_SWEEP.with(|s| s.get()), "flag restored");
        // Restored on panic, too.
        let _ = catch_unwind(AssertUnwindSafe(|| {
            run_inline(|| panic!("boom"));
        }));
        assert!(!IN_SWEEP.with(|s| s.get()), "flag restored after panic");
    }
}
