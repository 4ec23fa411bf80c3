//! The reusable work-stealing rank pool: PR 4's study queue-server,
//! extracted so **every** distributed driver — studies, campaign sweeps,
//! and probe-granularity precision searches — schedules through one
//! [`TaskPool`] instead of a static block partition.
//!
//! ## Topology
//!
//! [`TaskPool::run`] launches `nranks` minimpi ranks. Rank 0 runs one
//! **server thread** owning a [`TaskSource`]; every rank (rank 0
//! included) contributes stealer threads that loop `request → grant →
//! run → done` until dismissed. The caller supplies the task semantics:
//! the source decides what is ready, the worker closure runs a granted
//! task, and results flow back to the source as opaque [`Json`] payloads.
//!
//! ## Protocol invariants (each load-bearing)
//!
//! * **One server-bound tag.** `request`, `done`, `resource_req`, and
//!   `resource_put` all travel on [`TAG_POOL`]. Mailboxes are FIFO per
//!   tag and a stealer sends `done` before its next `request`, so when
//!   the server has dismissed every stealer it has necessarily processed
//!   every outcome — shutdown needs no extra synchronization.
//! * **Private reply tags.** Replies go to `TAG_POOL_REPLY + slot`
//!   (slot = stealer index within its rank), so concurrent stealers of
//!   one rank never steal each other's grants.
//! * **Fair start, then elastic.** The server holds the first round of
//!   grants until every stealer has checked in (grant order sorted by
//!   `(rank, slot)`), guaranteeing each stealer ≥ 1 task whenever the
//!   queue is deep enough; after that, grants go to whoever asks.
//! * **Parking.** A [`TaskSource`] may be *dynamic* — a completed task
//!   can ready further tasks (the greedy-bisection probe chains of
//!   `precision_search`). A requester that finds the queue
//!   momentarily empty is parked, and un-parked in FIFO order the moment
//!   a completion readies new work; when the source reports itself
//!   [`TaskSource::exhausted`], all parked stealers are dismissed.
//! * **Lazy shared resources.** Expensive shared values (full-precision
//!   baseline observables) are computed **on first touch**: the first
//!   stealer to ask is told to compute and upload; peers that ask while
//!   the upload is in flight park and are answered the moment it lands.
//!   Resources cross the wire bit-exactly as [`minimpi::F64Bits`] hex
//!   words, and tasks served entirely from a cache never touch one.
//!
//! ## Stealer sizing
//!
//! The pool runs `max(workers, nranks)` stealers in total, spread as
//! evenly as possible across ranks (±1): every rank contributes at least
//! one stealer — a rank with none would idle for the whole run — and
//! when `workers >= nranks` the pool never oversubscribes the requested
//! worker budget. The effective count is surfaced in
//! [`PoolStats::stealers`] (and from there in `StudyStats`), so
//! deliberate oversubscription at `workers < nranks` is visible, not
//! silent.

use minimpi::{F64Bits, Json, Wire};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Tag for every server-bound pool message. One tag on purpose: a rank's
/// mailbox is FIFO per tag, so a stealer's `done` is always processed
/// before the `request` it sends next — the server can shut down after
/// the last dismissal knowing every outcome has landed.
pub const TAG_POOL: u64 = 0x57DD;
/// Base of the per-stealer reply-tag range: stealer `slot` of a rank
/// listens on `TAG_POOL_REPLY + slot`, its private channel to rank 0.
pub const TAG_POOL_REPLY: u64 = 0x57DE_0000;

fn reply_tag(slot: u64) -> u64 {
    TAG_POOL_REPLY + slot
}

// ---------------------------------------------------------------------------
// Task sources
// ---------------------------------------------------------------------------

/// One grantable unit of work: an id the worker resolves against its own
/// captured context, plus a `detail` document shipped with the grant for
/// sources whose tasks carry parameters (e.g. a probe's mantissa width).
pub struct Task {
    /// Source-assigned task id, echoed back in the `done` message.
    pub id: u64,
    /// Task parameters shipped with the grant (`Json::Null` when the id
    /// alone identifies the work).
    pub detail: Json,
}

/// The server-side task generator a [`TaskPool`] drains.
///
/// Static sources (a fixed candidate list) expose every task up front;
/// dynamic sources (bisection probe chains) ready new tasks as completed
/// ones report back through [`TaskSource::complete`].
pub trait TaskSource {
    /// Pop the next ready task, if any. A `None` here does **not** mean
    /// the pool is done — in-flight tasks may ready more — only
    /// [`TaskSource::exhausted`] does.
    fn next(&mut self) -> Option<Task>;

    /// Accept a completed task's result payload; may ready further
    /// tasks. Errors abort the run (a payload that fails to parse means
    /// a protocol bug, not bad data).
    fn complete(&mut self, task: u64, payload: Json) -> Result<(), String>;

    /// `true` once no task will ever become ready again — every granted
    /// task may then be assumed accounted for and idle stealers are
    /// dismissed.
    fn exhausted(&self) -> bool;
}

/// The static source: `n` tasks with ids `0..n`, granted in order, one
/// payload slot each — the shape of campaign candidate lists and study
/// pair lattices.
pub struct FixedTasks {
    next: usize,
    payloads: Vec<Option<Json>>,
}

impl FixedTasks {
    /// A source of `n` index tasks.
    pub fn new(n: usize) -> FixedTasks {
        FixedTasks { next: 0, payloads: (0..n).map(|_| None).collect() }
    }

    /// The collected payloads, in task order. Every slot is `Some` after
    /// a completed [`TaskPool::run`].
    pub fn into_payloads(self) -> Vec<Option<Json>> {
        self.payloads
    }
}

impl TaskSource for FixedTasks {
    fn next(&mut self) -> Option<Task> {
        if self.next < self.payloads.len() {
            let id = self.next as u64;
            self.next += 1;
            Some(Task { id, detail: Json::Null })
        } else {
            None
        }
    }

    fn complete(&mut self, task: u64, payload: Json) -> Result<(), String> {
        let slot = self
            .payloads
            .get_mut(task as usize)
            .ok_or_else(|| format!("task id {task} out of range"))?;
        if slot.replace(payload).is_some() {
            return Err(format!("task {task} completed twice"));
        }
        Ok(())
    }

    fn exhausted(&self) -> bool {
        self.next == self.payloads.len()
    }
}

// ---------------------------------------------------------------------------
// Wire protocol
// ---------------------------------------------------------------------------

/// Stealer → server messages.
enum ToServer {
    /// "Give me a task" — `slot` picks the reply tag.
    Request { slot: u64 },
    /// "Task `task` is finished; here is its result payload."
    Done { task: u64, payload: Json },
    /// "Task `task` panicked; tear the run down." The reporting stealer
    /// keeps requesting (and is dismissed by the draining server), so
    /// every thread joins and the failure surfaces as one loud panic
    /// instead of a wedged process.
    Failed { task: u64, error: String },
    /// "I need shared resource `key`."
    ResourceReq { key: u64, slot: u64 },
    /// "Here is the resource I was told to compute."
    ResourcePut { key: u64, values: Vec<f64> },
}

/// Server → stealer replies, sent on the requesting stealer's reply tag.
enum FromServer {
    /// Run this task next.
    Grant { task: u64, detail: Json },
    /// No work will ever be ready again; shut down.
    NoMoreWork,
    /// The requested resource, bit-exact.
    Resource { values: Vec<f64> },
    /// First touch: the requester computes the resource and uploads it
    /// with [`ToServer::ResourcePut`].
    ComputeResource,
}

impl Wire for ToServer {
    fn to_wire(&self) -> Json {
        match self {
            ToServer::Request { slot } => Json::obj().set("type", "request").set("slot", *slot),
            ToServer::Done { task, payload } => Json::obj()
                .set("type", "done")
                .set("task", *task)
                .set("payload", payload.clone()),
            ToServer::Failed { task, error } => Json::obj()
                .set("type", "failed")
                .set("task", *task)
                .set("error", error.as_str()),
            ToServer::ResourceReq { key, slot } => Json::obj()
                .set("type", "resource_req")
                .set("key", *key)
                .set("slot", *slot),
            ToServer::ResourcePut { key, values } => Json::obj()
                .set("type", "resource_put")
                .set("key", *key)
                .set("values", F64Bits::encode(values)),
        }
    }

    fn from_wire(doc: &Json) -> Result<ToServer, String> {
        match doc.str_field("type")? {
            "request" => Ok(ToServer::Request { slot: doc.u64_field("slot")? }),
            "done" => Ok(ToServer::Done {
                task: doc.u64_field("task")?,
                payload: doc.req("payload")?.clone(),
            }),
            "failed" => Ok(ToServer::Failed {
                task: doc.u64_field("task")?,
                error: doc.str_field("error")?.to_string(),
            }),
            "resource_req" => Ok(ToServer::ResourceReq {
                key: doc.u64_field("key")?,
                slot: doc.u64_field("slot")?,
            }),
            "resource_put" => Ok(ToServer::ResourcePut {
                key: doc.u64_field("key")?,
                values: F64Bits::decode(doc.req("values")?)?,
            }),
            other => Err(format!("unknown pool message `{other}`")),
        }
    }
}

impl Wire for FromServer {
    fn to_wire(&self) -> Json {
        match self {
            FromServer::Grant { task, detail } => Json::obj()
                .set("type", "grant")
                .set("task", *task)
                .set("detail", detail.clone()),
            FromServer::NoMoreWork => Json::obj().set("type", "no_more_work"),
            FromServer::Resource { values } => {
                Json::obj().set("type", "resource").set("values", F64Bits::encode(values))
            }
            FromServer::ComputeResource => Json::obj().set("type", "compute_resource"),
        }
    }

    fn from_wire(doc: &Json) -> Result<FromServer, String> {
        match doc.str_field("type")? {
            "grant" => Ok(FromServer::Grant {
                task: doc.u64_field("task")?,
                detail: doc.req("detail")?.clone(),
            }),
            "no_more_work" => Ok(FromServer::NoMoreWork),
            "resource" => {
                Ok(FromServer::Resource { values: F64Bits::decode(doc.req("values")?)? })
            }
            "compute_resource" => Ok(FromServer::ComputeResource),
            other => Err(format!("unknown pool reply `{other}`")),
        }
    }
}

// ---------------------------------------------------------------------------
// The pool
// ---------------------------------------------------------------------------

/// A work-stealing pool of `max(workers, nranks)` stealer threads over
/// `nranks` minimpi ranks, rank 0 serving the queue.
pub struct TaskPool {
    nranks: usize,
    stealers: usize,
}

/// What one [`TaskPool::run`] measured: how the queue spread the tasks
/// and how long stealers spent waiting on it. Purely observational — the
/// task results themselves are deterministic regardless.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PoolStats {
    /// Tasks completed by each rank (length = rank count).
    pub tasks_by_rank: Vec<usize>,
    /// Effective stealer count across all ranks (`max(workers, nranks)`).
    pub stealers: usize,
    /// Total seconds stealers spent blocked on the queue (request→reply
    /// round trips, including time parked on an empty queue or a shared
    /// resource in flight), summed across stealers.
    pub queue_wait_s: f64,
}

/// Everything a drained [`TaskPool::run`] hands back.
pub struct PoolRun<S> {
    /// The task source, holding whatever results it accumulated.
    pub source: S,
    /// Lazily computed shared resources, by key; `None` where no task
    /// ever touched the key.
    pub resources: Vec<Option<Vec<f64>>>,
    /// Scheduling statistics.
    pub stats: PoolStats,
}

impl TaskPool {
    /// A pool over `nranks` ranks (clamped to ≥ 1) with a `workers`
    /// stealer budget. Total stealers = `max(workers, nranks)`: every
    /// rank contributes at least one (see the module docs for the rule).
    pub fn new(nranks: usize, workers: usize) -> TaskPool {
        let nranks = nranks.max(1);
        TaskPool { nranks, stealers: workers.max(nranks) }
    }

    /// Rank count.
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// Effective total stealer count.
    pub fn stealers(&self) -> usize {
        self.stealers
    }

    /// Stealers contributed by `rank`: the total spread as evenly as
    /// possible (±1), remainders to the low ranks.
    pub fn rank_stealers(&self, rank: usize) -> usize {
        self.stealers / self.nranks + usize::from(rank < self.stealers % self.nranks)
    }

    /// Drain `source` across the rank pool and return it with its
    /// accumulated results, the touched resources, and the stats.
    ///
    /// `worker(ctx, task, detail)` runs one granted task and returns its
    /// result payload; `resource(key)` computes a shared resource on
    /// first touch (both run on stealer threads — callers that sweep
    /// meshes inside a task wrap their bodies in `amr::run_inline`).
    pub fn run<S: TaskSource + Send>(
        &self,
        nresources: usize,
        source: S,
        worker: &(dyn Fn(&TaskCtx<'_>, u64, &Json) -> Json + Sync),
        resource: &(dyn Fn(u64) -> Vec<f64> + Sync),
    ) -> PoolRun<S> {
        let total = self.stealers;
        let wait_ns = AtomicU64::new(0);
        // The source is consumed by rank 0's server thread; the rank
        // closure runs once per rank, so it is handed over via a cell.
        let source_cell = Mutex::new(Some(source));
        let mut results = minimpi::run(self.nranks, |comm| -> Option<Served<S>> {
            // Every rank is up before the first grant can be answered;
            // with the fair-start preamble this guarantees each stealer
            // one task whenever the queue is deep enough.
            comm.barrier();
            let comm = &comm;
            let wait_ns = &wait_ns;
            std::thread::scope(|sc| {
                let server = (comm.rank() == 0).then(|| {
                    let source = source_cell
                        .lock()
                        .unwrap()
                        .take()
                        .expect("rank 0 takes the source exactly once");
                    sc.spawn(move || run_server(comm, source, total, nresources))
                });
                let mut stealers = Vec::with_capacity(self.rank_stealers(comm.rank()));
                for slot in 0..self.rank_stealers(comm.rank()) {
                    stealers.push(sc.spawn(move || {
                        run_stealer(comm, nresources, worker, resource, slot as u64, wait_ns)
                    }));
                }
                for s in stealers {
                    s.join().expect("stealer thread panicked");
                }
                server.map(|h| h.join().expect("task-pool server panicked"))
            })
        });
        let served = results[0].take().expect("rank 0 ran the queue server");
        PoolRun {
            source: served.source,
            resources: served.resources,
            stats: PoolStats {
                tasks_by_rank: served.tasks_by_rank,
                stealers: total,
                queue_wait_s: wait_ns.load(Ordering::Relaxed) as f64 / 1e9,
            },
        }
    }
}

/// What the rank-0 server hands back after the queue drains.
struct Served<S> {
    source: S,
    resources: Vec<Option<Vec<f64>>>,
    tasks_by_rank: Vec<usize>,
}

/// The rank-0 queue server: one thread, one shared inbound tag,
/// request/grant/done plus the parking and lazy-resource sub-protocols.
fn run_server<S: TaskSource>(
    comm: &minimpi::Comm,
    mut source: S,
    total_stealers: usize,
    nresources: usize,
) -> Served<S> {
    let mut resources: Vec<Option<Vec<f64>>> = (0..nresources).map(|_| None).collect();
    let mut computing = vec![false; nresources];
    let mut res_parked: Vec<Vec<(usize, u64)>> = (0..nresources).map(|_| Vec::new()).collect();
    let mut tasks_by_rank = vec![0usize; comm.size()];
    // Stealers waiting for work on a momentarily-empty dynamic queue,
    // un-parked FIFO as completions ready new tasks.
    let mut parked: VecDeque<(usize, u64)> = VecDeque::new();
    let mut dismissed = 0usize;

    // One grant decision, shared by the fair-start and elastic phases.
    macro_rules! serve {
        ($src:expr, $slot:expr) => {
            if let Some(t) = source.next() {
                comm.send_wire(
                    $src,
                    reply_tag($slot),
                    &FromServer::Grant { task: t.id, detail: t.detail },
                );
                tasks_by_rank[$src] += 1;
            } else if source.exhausted() {
                comm.send_wire($src, reply_tag($slot), &FromServer::NoMoreWork);
                dismissed += 1;
            } else {
                parked.push_back(($src, $slot));
            }
        };
    }

    // A fatal protocol error (unparseable message, a source rejecting a
    // payload) must not leave stealers blocked on replies that will
    // never come — that wedges the whole process with no message.
    // Instead: dismiss everyone (the resource sub-protocol stays
    // functional so mid-task stealers can finish and ask), then panic.
    macro_rules! abort {
        ($waiting:expr, $($msg:tt)*) => {{
            drain_and_dismiss(comm, $waiting, &mut resources,
                &mut res_parked, dismissed, total_stealers);
            panic!($($msg)*);
        }};
    }

    // Fair start: hold the first round of grants until every stealer has
    // checked in, then serve in (rank, slot) order. Work-stealing keeps
    // skewed costs from idling ranks *later*; this keeps a fast starter
    // from draining a shallow queue before its peers even launch.
    let mut first_round: Vec<(usize, u64)> = Vec::with_capacity(total_stealers);
    while first_round.len() < total_stealers {
        match comm.recv_wire_any::<ToServer>(TAG_POOL) {
            Ok((src, ToServer::Request { slot })) => first_round.push((src, slot)),
            Ok(_) => unreachable!("no grants issued yet, so only requests can arrive"),
            Err(e) => abort!(&mut first_round.drain(..).collect(), "pool message failed to parse: {e}"),
        }
    }
    first_round.sort_unstable();
    for (src, slot) in first_round {
        serve!(src, slot);
    }

    // Elastic phase: serve until every stealer has been dismissed. The
    // shared TAG_POOL keeps each stealer's `done` ahead of its next
    // `request` in mailbox order, so dismissal implies all results in.
    while dismissed < total_stealers {
        match comm.recv_wire_any::<ToServer>(TAG_POOL) {
            Err(e) => abort!(&mut parked, "pool message failed to parse: {e}"),
            Ok((src, ToServer::Request { slot })) => serve!(src, slot),
            Ok((_, ToServer::Done { task, payload })) => {
                if let Err(e) = source.complete(task, payload) {
                    abort!(&mut parked, "task-pool source rejected a payload: {e}");
                }
                // A completion may have readied follow-up tasks: un-park
                // waiting stealers onto them, FIFO.
                while let Some(&(src, slot)) = parked.front() {
                    match source.next() {
                        Some(t) => {
                            parked.pop_front();
                            comm.send_wire(
                                src,
                                reply_tag(slot),
                                &FromServer::Grant { task: t.id, detail: t.detail },
                            );
                            tasks_by_rank[src] += 1;
                        }
                        None => break,
                    }
                }
                if source.exhausted() {
                    while let Some((src, slot)) = parked.pop_front() {
                        comm.send_wire(src, reply_tag(slot), &FromServer::NoMoreWork);
                        dismissed += 1;
                    }
                }
            }
            Ok((_, ToServer::Failed { task, error })) => {
                abort!(&mut parked, "task-pool task {task} panicked: {error}");
            }
            Ok((src, ToServer::ResourceReq { key, slot })) => {
                serve_resource(comm, &mut resources, &mut computing, &mut res_parked, key, src, slot)
            }
            Ok((_, ToServer::ResourcePut { key, values })) => {
                store_resource(comm, &mut resources, &mut res_parked, key, values)
            }
        }
    }
    debug_assert!(source.exhausted(), "dismissal implies an exhausted source");
    Served { source, resources, tasks_by_rank }
}

/// Answer one `ResourceReq`: reply with the stored values, tell the
/// first toucher to compute, or park the requester until the upload.
fn serve_resource(
    comm: &minimpi::Comm,
    resources: &mut [Option<Vec<f64>>],
    computing: &mut [bool],
    res_parked: &mut [Vec<(usize, u64)>],
    key: u64,
    src: usize,
    slot: u64,
) {
    let k = key as usize;
    match &resources[k] {
        Some(values) => {
            comm.send_wire(src, reply_tag(slot), &FromServer::Resource { values: values.clone() })
        }
        None if !computing[k] => {
            // First touch: the requester computes and uploads.
            computing[k] = true;
            comm.send_wire(src, reply_tag(slot), &FromServer::ComputeResource);
        }
        None => res_parked[k].push((src, slot)),
    }
}

/// Record one `ResourcePut` and answer every stealer parked on it.
fn store_resource(
    comm: &minimpi::Comm,
    resources: &mut [Option<Vec<f64>>],
    res_parked: &mut [Vec<(usize, u64)>],
    key: u64,
    values: Vec<f64>,
) {
    let k = key as usize;
    for (r, slot) in res_parked[k].drain(..) {
        comm.send_wire(r, reply_tag(slot), &FromServer::Resource { values: values.clone() });
    }
    resources[k] = Some(values);
}

/// The fatal-error teardown: dismiss `waiting` stealers immediately,
/// then answer the remaining traffic with dismissals until every stealer
/// has been let go — mid-task stealers still get their resources (they
/// must finish the task before they can ask again), completions and
/// unparseable messages are dropped. Keeps a protocol error loud (the
/// caller panics right after) instead of wedging blocked stealers.
///
/// Resource waiters can never be parked here: a parked waiter only wakes
/// on an upload, and during an abort the upload may be the very message
/// that failed to parse. Every resource request without a stored value
/// is answered `ComputeResource` instead — duplicated computes are
/// waste, but the run is aborting and every stealer must come back for
/// its dismissal.
fn drain_and_dismiss(
    comm: &minimpi::Comm,
    waiting: &mut VecDeque<(usize, u64)>,
    resources: &mut [Option<Vec<f64>>],
    res_parked: &mut [Vec<(usize, u64)>],
    mut dismissed: usize,
    total_stealers: usize,
) {
    while let Some((src, slot)) = waiting.pop_front() {
        comm.send_wire(src, reply_tag(slot), &FromServer::NoMoreWork);
        dismissed += 1;
    }
    for parked in res_parked.iter_mut() {
        for (src, slot) in parked.drain(..) {
            comm.send_wire(src, reply_tag(slot), &FromServer::ComputeResource);
        }
    }
    while dismissed < total_stealers {
        match comm.recv_wire_any::<ToServer>(TAG_POOL) {
            Ok((src, ToServer::Request { slot })) => {
                comm.send_wire(src, reply_tag(slot), &FromServer::NoMoreWork);
                dismissed += 1;
            }
            Ok((src, ToServer::ResourceReq { key, slot })) => match &resources[key as usize] {
                Some(values) => comm.send_wire(
                    src,
                    reply_tag(slot),
                    &FromServer::Resource { values: values.clone() },
                ),
                None => comm.send_wire(src, reply_tag(slot), &FromServer::ComputeResource),
            },
            Ok((_, ToServer::ResourcePut { key, values })) => {
                resources[key as usize] = Some(values);
            }
            Ok((_, ToServer::Done { .. } | ToServer::Failed { .. })) | Err(_) => {}
        }
    }
}

/// What a worker closure sees while running one task: its rank's
/// communicator context plus cached access to the pool's lazily-computed
/// shared resources.
pub struct TaskCtx<'a> {
    comm: &'a minimpi::Comm,
    slot: u64,
    known: RefCell<Vec<Option<Arc<Vec<f64>>>>>,
    /// Caller-side per-resource memo slots (see [`TaskCtx::memo`]).
    scratch: RefCell<Vec<Option<Box<dyn std::any::Any>>>>,
    compute: &'a (dyn Fn(u64) -> Vec<f64> + Sync),
    wait_ns: &'a AtomicU64,
}

impl TaskCtx<'_> {
    /// Fetch shared resource `key`, computing it via the pool's resource
    /// closure if this stealer is the first in the whole pool to touch
    /// it. Cached per stealer thread after the first fetch, so the
    /// protocol stays free of cross-thread locking.
    pub fn resource(&self, key: u64) -> Arc<Vec<f64>> {
        let k = key as usize;
        if let Some(v) = &self.known.borrow()[k] {
            return v.clone();
        }
        let t0 = Instant::now();
        let reply: FromServer = self
            .comm
            .request_wire(0, TAG_POOL, reply_tag(self.slot), &ToServer::ResourceReq {
                key,
                slot: self.slot,
            })
            .expect("pool reply parses");
        self.wait_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        let values = match reply {
            FromServer::Resource { values } => values,
            FromServer::ComputeResource => {
                let values = (self.compute)(key);
                self.comm.send_wire(0, TAG_POOL, &ToServer::ResourcePut {
                    key,
                    values: values.clone(),
                });
                values
            }
            _ => unreachable!("resource requests are answered with values or compute"),
        };
        let arc = Arc::new(values);
        self.known.borrow_mut()[k] = Some(arc.clone());
        arc
    }

    /// Run `use_it` against a caller-defined value derived from resource
    /// `key`, built by `init` at most once per stealer (e.g. an
    /// `Observable` materialized from the raw resource vector — tasks
    /// are whole scenario runs, so re-deriving per task is waste). The
    /// memo lives inside this `TaskCtx` and dies with its stealer
    /// thread at the end of the pool run, so entries can never leak into
    /// another run where the same key means something else.
    ///
    /// The memoized type must be stable per key across the run (it is
    /// downcast on reuse). No cell borrow is held while `use_it` runs,
    /// so nesting `memo` calls for other keys inside it is fine; `init`
    /// must not recurse into `memo` for its *own* key.
    pub fn memo<T: 'static, R>(
        &self,
        key: u64,
        init: impl FnOnce(&TaskCtx<'_>) -> T,
        use_it: impl FnOnce(&T) -> R,
    ) -> R {
        use std::rc::Rc;
        let k = key as usize;
        let cached: Option<Rc<T>> = self.scratch.borrow()[k]
            .as_ref()
            .map(|v| v.downcast_ref::<Rc<T>>().expect("memo type is stable per key").clone());
        let value = match cached {
            Some(v) => v,
            None => {
                let v = Rc::new(init(self));
                self.scratch.borrow_mut()[k] = Some(Box::new(v.clone()));
                v
            }
        };
        use_it(&value)
    }
}

/// One stealer thread: request → run the granted task → done → request,
/// until dismissed.
fn run_stealer(
    comm: &minimpi::Comm,
    nresources: usize,
    worker: &(dyn Fn(&TaskCtx<'_>, u64, &Json) -> Json + Sync),
    resource: &(dyn Fn(u64) -> Vec<f64> + Sync),
    slot: u64,
    wait_ns: &AtomicU64,
) {
    let ctx = TaskCtx {
        comm,
        slot,
        known: RefCell::new((0..nresources).map(|_| None).collect()),
        scratch: RefCell::new((0..nresources).map(|_| None).collect()),
        compute: resource,
        wait_ns,
    };
    loop {
        let t0 = Instant::now();
        let reply: FromServer = comm
            .request_wire(0, TAG_POOL, reply_tag(slot), &ToServer::Request { slot })
            .expect("pool reply parses");
        wait_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        match reply {
            FromServer::Grant { task, detail } => {
                // A panicking task body must not kill this thread: a
                // dead stealer can never be dismissed, which would wedge
                // the server (and the whole process) in a silent hang.
                // Capture the panic, report it, and keep requesting —
                // the draining server dismisses everyone and re-raises
                // the failure as its own loud panic.
                let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    worker(&ctx, task, &detail)
                }));
                match payload {
                    Ok(payload) => {
                        comm.send_wire(0, TAG_POOL, &ToServer::Done { task, payload })
                    }
                    Err(panic) => comm.send_wire(0, TAG_POOL, &ToServer::Failed {
                        task,
                        error: panic_message(&panic),
                    }),
                }
            }
            FromServer::NoMoreWork => return,
            _ => unreachable!("work requests are answered with grant or dismissal"),
        }
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn protocol_messages_round_trip() {
        let msgs = [
            ToServer::Request { slot: 3 },
            ToServer::Done { task: 9, payload: Json::obj().set("fidelity", 0.5) },
            ToServer::ResourceReq { key: 7, slot: 0 },
            ToServer::ResourcePut {
                key: 2,
                values: vec![1.5, -0.0, f64::INFINITY, f64::NAN, 5e-324],
            },
        ];
        for m in &msgs {
            let back = ToServer::from_wire_bytes(&m.to_wire_bytes()).unwrap();
            match (m, &back) {
                (ToServer::Request { slot: a }, ToServer::Request { slot: b }) => {
                    assert_eq!(a, b)
                }
                (
                    ToServer::Done { task: t1, payload: p1 },
                    ToServer::Done { task: t2, payload: p2 },
                ) => assert_eq!((t1, p1), (t2, p2)),
                (
                    ToServer::ResourceReq { key: k1, slot: a },
                    ToServer::ResourceReq { key: k2, slot: b },
                ) => assert_eq!((k1, a), (k2, b)),
                (
                    ToServer::ResourcePut { key: k1, values: v1 },
                    ToServer::ResourcePut { key: k2, values: v2 },
                ) => {
                    assert_eq!(k1, k2);
                    assert_eq!(v1.len(), v2.len());
                    for (a, b) in v1.iter().zip(v2) {
                        assert_eq!(a.to_bits(), b.to_bits(), "lossless incl. non-finite");
                    }
                }
                _ => panic!("message kind changed in round trip"),
            }
        }
        let replies = [
            FromServer::Grant { task: 11, detail: Json::obj().set("m", 26u32) },
            FromServer::NoMoreWork,
            FromServer::Resource { values: vec![2.0, -1.0] },
            FromServer::ComputeResource,
        ];
        for r in &replies {
            let back = FromServer::from_wire_bytes(&r.to_wire_bytes()).unwrap();
            assert_eq!(
                std::mem::discriminant(r),
                std::mem::discriminant(&back),
                "reply kind survives"
            );
        }
    }

    #[test]
    fn stealer_sizing_clamps_and_balances() {
        // workers >= nranks: the budget is honored exactly.
        let p = TaskPool::new(2, 5);
        assert_eq!(p.stealers(), 5);
        assert_eq!((p.rank_stealers(0), p.rank_stealers(1)), (3, 2));
        // workers < nranks: deliberately oversubscribe to one per rank.
        let p = TaskPool::new(4, 2);
        assert_eq!(p.stealers(), 4);
        assert_eq!((0..4).map(|r| p.rank_stealers(r)).sum::<usize>(), 4);
        assert!((0..4).all(|r| p.rank_stealers(r) == 1));
        // nranks clamps to 1.
        let p = TaskPool::new(0, 3);
        assert_eq!((p.nranks(), p.stealers()), (1, 3));
        // The split always sums to the total.
        for (nranks, workers) in [(1, 1), (3, 7), (5, 5), (6, 4), (2, 9)] {
            let p = TaskPool::new(nranks, workers);
            let sum: usize = (0..p.nranks()).map(|r| p.rank_stealers(r)).sum();
            assert_eq!(sum, p.stealers(), "nranks={nranks} workers={workers}");
        }
    }

    #[test]
    fn fixed_tasks_run_exactly_once_across_every_rank() {
        let pool = TaskPool::new(3, 6);
        let run = pool.run(
            0,
            FixedTasks::new(12),
            &|_ctx, task, detail| {
                assert_eq!(detail, &Json::Null);
                Json::from(task * 10)
            },
            &|_key| unreachable!("no resources declared"),
        );
        let payloads = run.source.into_payloads();
        assert_eq!(payloads.len(), 12);
        for (i, p) in payloads.iter().enumerate() {
            assert_eq!(p.as_ref().and_then(|p| p.as_u64()), Some(i as u64 * 10));
        }
        assert_eq!(run.stats.stealers, 6);
        assert_eq!(run.stats.tasks_by_rank.len(), 3);
        assert_eq!(run.stats.tasks_by_rank.iter().sum::<usize>(), 12);
        // Fair start on a deep-enough queue: every rank completes >= 1.
        assert!(run.stats.tasks_by_rank.iter().all(|&n| n >= 1), "{:?}", run.stats.tasks_by_rank);
        assert!(run.stats.queue_wait_s >= 0.0);
    }

    #[test]
    fn empty_and_single_task_edge_cases() {
        // Empty queue: every stealer is dismissed at the fair start.
        let run = TaskPool::new(2, 4).run(
            1,
            FixedTasks::new(0),
            &|_, _, _| unreachable!("no tasks to grant"),
            &|_| unreachable!("no task ever touches a resource"),
        );
        assert!(run.source.into_payloads().is_empty());
        assert_eq!(run.stats.tasks_by_rank, vec![0, 0]);
        assert_eq!(run.resources, vec![None], "untouched resource stays None");

        // Single task on many stealers: exactly one rank runs it.
        let run = TaskPool::new(3, 6).run(
            0,
            FixedTasks::new(1),
            &|_, task, _| Json::from(task + 100),
            &|_| unreachable!(),
        );
        assert_eq!(run.source.into_payloads()[0].as_ref().and_then(|p| p.as_u64()), Some(100));
        assert_eq!(run.stats.tasks_by_rank.iter().sum::<usize>(), 1);
    }

    #[test]
    fn resources_compute_once_and_travel_bit_exactly() {
        // 2 resources, 8 tasks touching them alternately from 2 ranks:
        // each resource must be computed exactly once pool-wide, and its
        // non-finite bit patterns must reach every consumer unchanged.
        let computes = AtomicUsize::new(0);
        let payload = |key: u64| {
            vec![key as f64, f64::from_bits(0x7ff8_dead_beef_0000 + key), -0.0]
        };
        let run = TaskPool::new(2, 4).run(
            2,
            FixedTasks::new(8),
            &|ctx, task, _| {
                let key = task % 2;
                let values = ctx.resource(key);
                let want = payload(key);
                let ok = values.len() == want.len()
                    && values.iter().zip(&want).all(|(a, b)| a.to_bits() == b.to_bits());
                Json::from(ok)
            },
            &|key| {
                computes.fetch_add(1, Ordering::Relaxed);
                payload(key)
            },
        );
        assert_eq!(computes.load(Ordering::Relaxed), 2, "one compute per resource");
        for (i, p) in run.source.into_payloads().iter().enumerate() {
            assert_eq!(p.as_ref().and_then(|p| p.as_bool()), Some(true), "task {i}");
        }
        for (key, r) in run.resources.iter().enumerate() {
            let values = r.as_ref().expect("touched resource recorded");
            for (a, b) in values.iter().zip(&payload(key as u64)) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn ctx_memo_builds_once_per_stealer_and_key() {
        // memo derives a value from a resource at most once per
        // (stealer, key) — per-task re-derivation is the waste it
        // exists to remove — and every consumer sees the same value.
        let inits = AtomicUsize::new(0);
        let run = TaskPool::new(2, 2).run(
            2,
            FixedTasks::new(12),
            &|ctx, task, _| {
                let key = task % 2;
                let ok = ctx.memo(
                    key,
                    |ctx| {
                        inits.fetch_add(1, Ordering::Relaxed);
                        ctx.resource(key).iter().map(|v| v * 2.0).collect::<Vec<f64>>()
                    },
                    |doubled| doubled == &vec![key as f64 * 2.0],
                );
                Json::from(ok)
            },
            &|key| vec![key as f64],
        );
        for p in run.source.into_payloads() {
            assert_eq!(p.and_then(|p| p.as_bool()), Some(true));
        }
        let n = inits.load(Ordering::Relaxed);
        assert!(
            (2..=4).contains(&n),
            "between once-per-key and once-per-(stealer, key): {n}"
        );
    }

    /// A dynamic chain source: `chains[i]` tasks that must run strictly
    /// one after another per chain (each readies the next), the shape of
    /// a greedy-bisection probe chain.
    struct Chains {
        remaining: Vec<usize>,
        ready: VecDeque<usize>,
        inflight: std::collections::HashMap<u64, usize>,
        next_id: u64,
        completed: usize,
    }

    impl Chains {
        fn new(lengths: &[usize]) -> Chains {
            Chains {
                remaining: lengths.to_vec(),
                ready: (0..lengths.len()).filter(|&c| lengths[c] > 0).collect(),
                inflight: std::collections::HashMap::new(),
                next_id: 0,
                completed: 0,
            }
        }
    }

    impl TaskSource for Chains {
        fn next(&mut self) -> Option<Task> {
            let chain = self.ready.pop_front()?;
            let id = self.next_id;
            self.next_id += 1;
            self.inflight.insert(id, chain);
            Some(Task { id, detail: Json::from(chain) })
        }

        fn complete(&mut self, task: u64, _payload: Json) -> Result<(), String> {
            let chain = self.inflight.remove(&task).ok_or("unknown task")?;
            self.completed += 1;
            self.remaining[chain] -= 1;
            if self.remaining[chain] > 0 {
                self.ready.push_back(chain);
            }
            Ok(())
        }

        fn exhausted(&self) -> bool {
            self.remaining.iter().all(|&n| n == 0)
        }
    }

    /// A source whose `complete` always errors — the "payload shape
    /// drifted" protocol-bug case.
    struct RejectingSource(FixedTasks);

    impl TaskSource for RejectingSource {
        fn next(&mut self) -> Option<Task> {
            self.0.next()
        }

        fn complete(&mut self, _task: u64, _payload: Json) -> Result<(), String> {
            Err("payload shape drifted".to_string())
        }

        fn exhausted(&self) -> bool {
            self.0.exhausted()
        }
    }

    #[test]
    #[should_panic(expected = "rank panicked")]
    fn source_rejecting_a_payload_aborts_loudly_instead_of_hanging() {
        // The first completion makes the source error; the server must
        // dismiss every stealer (so all rank threads join) and then
        // panic — wedging blocked stealers would hang the test forever
        // rather than fail it.
        TaskPool::new(2, 4).run(
            0,
            RejectingSource(FixedTasks::new(8)),
            &|_, _, _| Json::Null,
            &|_| unreachable!(),
        );
    }

    #[test]
    #[should_panic(expected = "rank panicked")]
    fn worker_panic_aborts_loudly_instead_of_hanging() {
        // A panicking task body must tear the pool down with a panic,
        // not wedge the server waiting on a dismissal that can never
        // come from a dead stealer thread.
        TaskPool::new(2, 3).run(
            0,
            FixedTasks::new(6),
            &|_, task, _| {
                if task == 2 {
                    panic!("numerical blow-up in task {task}");
                }
                Json::Null
            },
            &|_| unreachable!(),
        );
    }

    #[test]
    fn dynamic_sources_park_and_drain_without_deadlock() {
        // More stealers than ever-ready tasks (chains expose one task at
        // a time), so stealers park and must be woken by completions —
        // and dismissed cleanly when the last chain dries up.
        let lengths = [5usize, 1, 3];
        let run = TaskPool::new(3, 3).run(
            0,
            Chains::new(&lengths),
            &|_, _, _| Json::Null,
            &|_| unreachable!(),
        );
        assert!(run.source.exhausted());
        assert_eq!(run.source.completed, lengths.iter().sum::<usize>());
        assert_eq!(
            run.stats.tasks_by_rank.iter().sum::<usize>(),
            lengths.iter().sum::<usize>()
        );
        // The sequential tail (the length-5 chain) rotates through parked
        // stealers, so no rank is shut out.
        assert!(run.stats.tasks_by_rank.iter().all(|&n| n >= 1), "{:?}", run.stats.tasks_by_rank);
    }
}
