//! The work-stealing task pool under every raptor-lab driver.
//!
//! [`TaskPool::run`] spawns `max(workers, nranks)` stealer threads that
//! share one `Mutex<State>` and one `Condvar`. Each loops `complete its
//! last task → take the next → run it unlocked`. Invariants:
//!
//! * **Fair start.** The first round of tasks is handed out in
//!   `(rank, slot)` order before any thread spawns.
//! * **FIFO handoff.** A completion hands every task it readies to parked
//!   stealers in FIFO order before the completing stealer asks again, so
//!   a sequential bisection chain rotates instead of pinning to a thread.
//! * **Lazy resources.** Resource `k` is a `OnceLock`: computed by the
//!   first task that touches it, shared by all.
//! * **Abort.** A panicking task or a `complete` error stops new grants
//!   and wakes every waiter; [`TaskPool::run`] re-raises it after the join.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};
use std::time::Instant;

/// The task generator a [`TaskPool`] drains. A task is an `(id, Detail)`
/// pair and its worker returns an `Output`; dynamic sources ready new
/// tasks as completed ones report back.
pub(crate) trait TaskSource {
    type Detail: Send;
    type Output: Send;

    /// The next ready task. `None` does not mean the pool is done (an
    /// in-flight task may ready more); only `exhausted` does.
    fn next(&mut self) -> Option<(u64, Self::Detail)>;
    /// Accept a task's output; may ready further tasks. Errors abort.
    fn complete(&mut self, task: u64, output: Self::Output) -> Result<(), String>;
    /// `true` once no task will ever become ready again.
    fn exhausted(&self) -> bool;
}

/// The static source: tasks `0..n` granted in order, one output slot
/// each — the shape of campaign candidate lists and study pair lattices.
pub(crate) struct FixedTasks<T> {
    next: usize,
    outputs: Vec<Option<T>>,
}

impl<T> FixedTasks<T> {
    pub fn new(n: usize) -> FixedTasks<T> {
        FixedTasks { next: 0, outputs: (0..n).map(|_| None).collect() }
    }

    /// The outputs in task order, every slot `Some` after a run.
    pub fn into_outputs(self) -> Vec<Option<T>> {
        self.outputs
    }
}

impl<T: Send> TaskSource for FixedTasks<T> {
    type Detail = ();
    type Output = T;

    fn next(&mut self) -> Option<(u64, ())> {
        (self.next < self.outputs.len()).then(|| {
            self.next += 1;
            (self.next as u64 - 1, ())
        })
    }

    fn complete(&mut self, task: u64, output: T) -> Result<(), String> {
        match self.outputs[task as usize].replace(output) {
            Some(_) => Err(format!("task {task} completed twice")),
            None => Ok(()),
        }
    }

    fn exhausted(&self) -> bool {
        self.next == self.outputs.len()
    }
}

/// What one [`TaskPool::run`] measured: tasks granted per rank, the
/// stealer count, and the seconds stealers spent blocked (on the lock,
/// parked, or on a resource another one computes), summed.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct PoolStats {
    pub tasks_by_rank: Vec<usize>,
    pub stealers: usize,
    pub queue_wait_s: f64,
}

/// What a worker sees: the pool's lazy resources.
pub(crate) struct TaskCtx<'a, R> {
    resources: &'a [OnceLock<R>],
    compute: &'a (dyn Fn(usize) -> R + Sync),
    wait_ns: &'a AtomicU64,
}

impl<R> TaskCtx<'_, R> {
    /// Resource `key`, computed here on its first touch pool-wide.
    pub fn resource(&self, key: usize) -> &R {
        let t0 = Instant::now();
        let mut computed = false;
        let value = self.resources[key].get_or_init(|| {
            computed = true;
            (self.compute)(key)
        });
        if !computed {
            self.wait_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        value
    }
}

/// The state every stealer shares under the pool's one lock.
struct State<S: TaskSource> {
    source: S,
    /// Stealers waiting for work, served FIFO.
    parked: VecDeque<usize>,
    /// A task granted to a parked stealer, by stealer index.
    handoff: Vec<Option<(u64, S::Detail)>>,
    /// Set by the first failure; stops every grant.
    abort: Option<String>,
    /// The rank of each stealer, by stealer index.
    rank_of: Vec<usize>,
    tasks_by_rank: Vec<usize>,
}

impl<S: TaskSource> State<S> {
    /// The next task for stealer `g`, counted to its rank; none once aborted.
    fn grant(&mut self, g: usize) -> Option<(u64, S::Detail)> {
        let task = self.abort.is_none().then(|| self.source.next()).flatten()?;
        self.tasks_by_rank[self.rank_of[g]] += 1;
        Some(task)
    }

    /// Hand ready tasks to parked stealers in FIFO order.
    fn unpark(&mut self) {
        while let Some(&g) = self.parked.front() {
            let Some(task) = self.grant(g) else { break };
            self.parked.pop_front();
            self.handoff[g] = Some(task);
        }
    }
}

/// Stealer threads in worker groups (ranks), spread ±1 and at least one
/// per rank; [`PoolStats::stealers`] shows any oversubscription.
pub(crate) struct TaskPool {
    nranks: usize,
    stealers: usize,
}

impl TaskPool {
    /// A pool over `nranks` worker groups (clamped to ≥ 1) and
    /// `max(workers, nranks)` stealers.
    pub fn new(nranks: usize, workers: usize) -> TaskPool {
        let nranks = nranks.max(1);
        TaskPool { nranks, stealers: workers.max(nranks) }
    }

    /// Stealers contributed by `rank`: the total spread as evenly as
    /// possible (±1), remainders to the low ranks.
    pub fn rank_stealers(&self, rank: usize) -> usize {
        self.stealers / self.nranks + usize::from(rank < self.stealers % self.nranks)
    }

    /// Drain `source`; return it with its results, the resources (`None`
    /// where untouched) and the stats. `worker(ctx, task, detail)` runs
    /// one task and `resource(key)` computes resource `key` on first
    /// touch, both on stealer threads: callers that sweep meshes inside a
    /// task wrap their bodies in `amr::run_inline`.
    pub fn run<S: TaskSource + Send, R: Send + Sync>(
        &self,
        nresources: usize,
        source: S,
        worker: &(dyn Fn(&TaskCtx<'_, R>, u64, S::Detail) -> S::Output + Sync),
        resource: &(dyn Fn(usize) -> R + Sync),
    ) -> (S, Vec<Option<R>>, PoolStats) {
        let mut state = State {
            source,
            parked: (0..self.stealers).collect(),
            handoff: (0..self.stealers).map(|_| None).collect(),
            abort: None,
            rank_of: (0..self.nranks).flat_map(|r| vec![r; self.rank_stealers(r)]).collect(),
            tasks_by_rank: vec![0; self.nranks],
        };
        state.unpark(); // the fair start
        let shared = (Mutex::new(state), Condvar::new());
        let resources: Vec<OnceLock<R>> = (0..nresources).map(|_| OnceLock::new()).collect();
        let wait_ns = AtomicU64::new(0);
        let ctx = TaskCtx { resources: &resources, compute: resource, wait_ns: &wait_ns };
        std::thread::scope(|sc| {
            for g in 0..self.stealers {
                let (shared, ctx) = (&shared, &ctx);
                sc.spawn(move || steal(g, shared, ctx, worker));
            }
        });
        let state = shared.0.into_inner().expect("no stealer panics holding the lock");
        if let Some(error) = state.abort {
            panic!("{error}");
        }
        let stats = PoolStats {
            tasks_by_rank: state.tasks_by_rank,
            stealers: self.stealers,
            queue_wait_s: wait_ns.load(Ordering::Relaxed) as f64 / 1e9,
        };
        (state.source, resources.into_iter().map(OnceLock::into_inner).collect(), stats)
    }
}

/// Stealer `g`: complete its last task, take the next (parked while the
/// source is empty), run it unlocked; time outside tasks is queue wait.
fn steal<S: TaskSource, R>(
    g: usize,
    (lock, cv): &(Mutex<State<S>>, Condvar),
    ctx: &TaskCtx<'_, R>,
    worker: &(dyn Fn(&TaskCtx<'_, R>, u64, S::Detail) -> S::Output + Sync),
) {
    let mut done: Option<(u64, std::thread::Result<S::Output>)> = None;
    loop {
        let t0 = Instant::now();
        let mut st = lock.lock().expect("no stealer panics holding the lock");
        if let Some((id, output)) = done.take().filter(|_| st.abort.is_none()) {
            let error = match output {
                Ok(out) => st.source.complete(id, out).err().map(|e| format!("rejected: {e}")),
                Err(panic) => Some(format!("panicked: {}", message(&*panic))),
            };
            st.abort = error.map(|e| format!("task-pool task {id} {e}"));
            st.unpark();
            cv.notify_all();
        }
        let task = loop {
            if st.parked.contains(&g) {
                let idle = |s: &mut State<S>| {
                    s.handoff[g].is_none() && s.abort.is_none() && !s.source.exhausted()
                };
                st = cv.wait_while(st, idle).expect("no stealer panics holding the lock");
            }
            let task = st.handoff[g].take().or_else(|| st.grant(g));
            if task.is_some() || st.abort.is_some() || st.source.exhausted() {
                break task.filter(|_| st.abort.is_none());
            }
            st.parked.push_back(g);
        };
        drop(st);
        ctx.wait_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        let Some((id, detail)) = task else { return };
        let run = std::panic::AssertUnwindSafe(|| worker(ctx, id, detail));
        done = Some((id, std::panic::catch_unwind(run)));
    }
}

/// The message of a panic payload.
fn message(panic: &(dyn std::any::Any + Send)) -> &str {
    let owned = || panic.downcast_ref::<String>().map(String::as_str);
    panic.downcast_ref::<&str>().copied().or_else(owned).unwrap_or("a non-string payload")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<S: TaskSource + Send>(
        nranks: usize,
        workers: usize,
        source: S,
        worker: &(dyn Fn(u64, S::Detail) -> S::Output + Sync),
    ) -> (S, Vec<Option<()>>, PoolStats) {
        let no_resource = |_| unreachable!("no resources declared");
        TaskPool::new(nranks, workers).run(0, source, &|_, id, d| worker(id, d), &no_resource)
    }

    #[test]
    fn stealer_sizing_clamps_and_balances() {
        // workers >= nranks: the budget is honored exactly.
        let p = TaskPool::new(2, 5);
        assert_eq!(p.stealers, 5);
        assert_eq!((p.rank_stealers(0), p.rank_stealers(1)), (3, 2));
        // workers < nranks: deliberately oversubscribe to one per rank.
        let p = TaskPool::new(4, 2);
        assert_eq!(p.stealers, 4);
        assert_eq!((0..4).map(|r| p.rank_stealers(r)).sum::<usize>(), 4);
        assert!((0..4).all(|r| p.rank_stealers(r) == 1));
        // nranks clamps to 1.
        let p = TaskPool::new(0, 3);
        assert_eq!((p.nranks, p.stealers), (1, 3));
        // The split always sums to the total.
        for (nranks, workers) in [(1, 1), (3, 7), (5, 5), (6, 4), (2, 9)] {
            let p = TaskPool::new(nranks, workers);
            let sum: usize = (0..p.nranks).map(|r| p.rank_stealers(r)).sum();
            assert_eq!(sum, p.stealers, "nranks={nranks} workers={workers}");
        }
    }

    #[test]
    fn fixed_tasks_run_exactly_once_across_every_rank() {
        let (source, _, stats) = drain(3, 6, FixedTasks::new(12), &|task, ()| task * 10);
        assert_eq!(stats.stealers, 6);
        assert_eq!(stats.tasks_by_rank.iter().sum::<usize>(), 12);
        // Fair start on a deep-enough queue: every rank completes >= 1.
        assert!(stats.tasks_by_rank.iter().all(|&n| n >= 1), "{:?}", stats.tasks_by_rank);
        assert!(stats.queue_wait_s >= 0.0);
        assert_eq!(source.into_outputs(), (0..12).map(|i| Some(i * 10)).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_task_edge_cases() {
        // Empty queue: every stealer exits at once, the resource untouched.
        let (_, resources, stats) = TaskPool::new(2, 4).run(
            1,
            FixedTasks::<()>::new(0),
            &|_, _, _| unreachable!("no tasks to grant"),
            &|_| unreachable!("no task ever touches a resource"),
        );
        assert_eq!(stats.tasks_by_rank, vec![0, 0]);
        assert_eq!(resources, vec![None], "untouched resource stays None");
        // Single task on many stealers: exactly one rank runs it.
        let (source, _, stats) = drain(3, 6, FixedTasks::new(1), &|task, ()| task + 100);
        assert_eq!(source.into_outputs(), vec![Some(100)]);
        assert_eq!(stats.tasks_by_rank.iter().sum::<usize>(), 1);
    }

    #[test]
    fn resources_compute_once_and_are_shared() {
        // 2 resources, 8 tasks touching them alternately on 4 stealers:
        // each is computed once pool-wide and every task sees that value.
        let computes = AtomicU64::new(0);
        let (source, resources, _) = TaskPool::new(2, 4).run(
            2,
            FixedTasks::new(8),
            &|ctx, task, ()| ctx.resource(task as usize % 2) as *const Vec<f64> as usize,
            &|key| {
                computes.fetch_add(1, Ordering::Relaxed);
                vec![key as f64]
            },
        );
        assert_eq!(computes.load(Ordering::Relaxed), 2, "one compute per resource");
        let seen: Vec<usize> = source.into_outputs().into_iter().flatten().collect();
        assert!((0..8).all(|i| seen[i] == seen[i % 2]) && seen[0] != seen[1], "{seen:?}");
        assert_eq!(resources, vec![Some(vec![0.0]), Some(vec![1.0])]);
    }

    /// Chains of tasks that run strictly one after another, like
    /// bisection probes; the chain index is the task id. With `reject`
    /// set, every completion errors.
    struct Chains {
        remaining: Vec<usize>,
        ready: VecDeque<usize>,
        reject: bool,
    }

    impl TaskSource for Chains {
        type Detail = ();
        type Output = ();
        fn next(&mut self) -> Option<(u64, ())> {
            self.ready.pop_front().map(|c| (c as u64, ()))
        }
        fn complete(&mut self, task: u64, (): ()) -> Result<(), String> {
            if self.reject {
                return Err("payload shape drifted".to_string());
            }
            self.remaining[task as usize] -= 1;
            if self.remaining[task as usize] > 0 {
                self.ready.push_back(task as usize);
            }
            Ok(())
        }
        fn exhausted(&self) -> bool {
            self.remaining.iter().all(|&n| n == 0)
        }
    }

    #[test]
    fn dynamic_sources_park_and_drain_without_deadlock() {
        // More stealers than ever-ready tasks, so stealers park and must
        // be woken by completions, and let go when the last chain ends.
        let chains = Chains { remaining: vec![5, 1, 3], ready: (0..3).collect(), reject: false };
        let (source, _, stats) = drain(3, 3, chains, &|_, ()| ());
        assert!(source.exhausted());
        assert_eq!(stats.tasks_by_rank.iter().sum::<usize>(), 9);
        // The sequential tail (the length-5 chain) rotates through parked
        // stealers, so no rank is shut out.
        assert!(stats.tasks_by_rank.iter().all(|&n| n >= 1), "{:?}", stats.tasks_by_rank);
    }

    #[test]
    #[should_panic(expected = "rejected: payload shape drifted")]
    fn source_rejecting_a_payload_aborts_loudly_instead_of_hanging() {
        // Leaving a parked stealer waiting would hang the test, not fail it.
        let chains = Chains { remaining: vec![1; 8], ready: (0..8).collect(), reject: true };
        drain(2, 4, chains, &|_, ()| ());
    }

    #[test]
    #[should_panic(expected = "task-pool task 2 panicked: numerical blow-up in task 2")]
    fn worker_panic_aborts_loudly_instead_of_hanging() {
        let blow_up = |task: u64, ()| assert!(task != 2, "numerical blow-up in task {task}");
        drain(2, 3, FixedTasks::new(6), &blow_up);
    }
}
