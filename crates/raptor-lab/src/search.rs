//! The greedy precision search (§6.1's minimal-precision hunt as one API
//! call): per M-l cutoff, bisect the mantissa ladder for the minimal
//! width whose fidelity clears the floor — the `sedov_precision_hunt`
//! workflow as a library.
//!
//! [`precision_search`] steals at **probe** granularity: every bisection
//! probe of every cutoff row is one task on the shared work-stealing
//! pool, and the per-cutoff decision state (a `ProbeChain`) lives in the
//! pool's task source, which readies a chain's next probe the moment its
//! pending one completes. Chain lengths differ per cutoff, so pinning a
//! chain to a rank would idle the others; stealing probes keeps every
//! rank busy until the last chain dries up, and because each chain
//! advances in its own probe order the rows are identical at any rank
//! count.
//!
//! Probes are cached too: each is a deterministic
//! `(scenario, scale, threads, exp_bits, cutoff, m)` point, so cached
//! probes advance the chains without granting tasks, and a warm re-hunt
//! of a completed search skips the pool — and the baseline — entirely.

use crate::cache::OutcomeCache;
use crate::campaign::{run_candidate, CandidateSpec};
use crate::queue::TaskSource;
use crate::scenario::{LabParams, Scenario};
use crate::study::{drain, with_baseline, StudyStats};
use bigfloat::Format;
use raptor_core::Json;
use std::collections::{HashMap, VecDeque};
use std::time::Instant;

/// Greedy precision-search specification.
#[derive(Clone, Debug)]
pub struct SearchSpec {
    /// Scenario scale knobs.
    pub params: LabParams,
    /// Exponent width of every probed format (11 = FP64's).
    pub exp_bits: u32,
    /// Inclusive mantissa-bit search range.
    pub mantissa: (u32, u32),
    /// Acceptance threshold on fidelity.
    pub fidelity_floor: f64,
    /// The M-l cutoffs to search independently (each gets its own row).
    pub cutoffs: Vec<u32>,
    /// Stealer threads on the task pool: `max(workers, nranks)` in
    /// total, spread ±1 across the ranks.
    pub workers: usize,
}

impl SearchSpec {
    /// Default search: mantissa 2..=52 at exponent 11, cutoffs M-0..M-2.
    pub fn new(params: LabParams, fidelity_floor: f64) -> SearchSpec {
        SearchSpec {
            params,
            exp_bits: 11,
            mantissa: (2, 52),
            fidelity_floor,
            cutoffs: vec![0, 1, 2],
            workers: 4,
        }
    }
}

/// One row of a precision search: the minimal safe mantissa width for a
/// cutoff strategy, plus every probe the bisection took.
#[derive(Clone, Debug, PartialEq)]
pub struct SearchRow {
    /// The cutoff `l` of this row's M-l strategy.
    pub cutoff: u32,
    /// Minimal mantissa bits with fidelity >= the floor (`None` when even
    /// the widest probe fails).
    pub minimal_m: Option<u32>,
    /// Fidelity at `minimal_m` (or at the widest probe when `None`).
    pub fidelity: f64,
    /// Truncated-op fraction at the minimal width.
    pub truncated_fraction: f64,
    /// Every `(mantissa, fidelity)` probe, in probe order.
    pub probes: Vec<(u32, f64)>,
}

impl SearchRow {
    /// Machine-readable row through the shared serializer.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("cutoff", self.cutoff)
            .set(
                "minimal_mantissa",
                match self.minimal_m {
                    Some(m) => Json::from(m),
                    None => Json::Null,
                },
            )
            .set("fidelity", self.fidelity)
            .set("truncated_fraction", self.truncated_fraction)
            .set(
                "probes",
                Json::Arr(
                    self.probes
                        .iter()
                        .map(|&(m, f)| Json::obj().set("mantissa", m).set("fidelity", f))
                        .collect(),
                ),
            )
    }

    /// Parse back a document produced by [`SearchRow::to_json`].
    pub fn from_json(doc: &Json) -> Result<SearchRow, String> {
        let minimal_m = match doc.req("minimal_mantissa")? {
            Json::Null => None,
            m => Some(
                m.as_u64().ok_or_else(|| "minimal_mantissa is not an integer".to_string())?
                    as u32,
            ),
        };
        let probes = doc
            .arr_field("probes")?
            .iter()
            .map(|p| Ok((p.u64_field("mantissa")? as u32, p.f64_field("fidelity")?)))
            .collect::<Result<Vec<(u32, f64)>, String>>()?;
        Ok(SearchRow {
            cutoff: doc.u64_field("cutoff")? as u32,
            minimal_m,
            fidelity: doc.f64_field("fidelity")?,
            truncated_fraction: doc.f64_field("truncated_fraction")?,
            probes,
        })
    }
}

/// JSON summary of a precision search.
pub fn search_to_json(scenario: &str, rows: &[SearchRow]) -> Json {
    Json::obj()
        .set("scenario", scenario)
        .set("rows", Json::Arr(rows.iter().map(|r| r.to_json()).collect()))
}

/// Greedily bisect the mantissa ladder per cutoff for the minimal width
/// that clears the fidelity floor, stealing probes across `nranks`
/// worker groups. Rows come back in cutoff order, identical at any rank
/// count.
///
/// With a `cache`, cached `(cutoff, m)` probes advance the chains without
/// running anything, and fresh probes are recorded back (staged; the
/// caller saves). When every chain drains from the cache alone the pool
/// and the baseline reference run are skipped: **zero** scenario runs.
/// In the returned stats `cached`/`computed` count probes served from the
/// cache vs. run by pool stealers, and `pairs_by_rank` counts probes.
pub fn precision_search(
    scenario: &dyn Scenario,
    spec: &SearchSpec,
    nranks: usize,
    cache: Option<&mut OutcomeCache>,
) -> (Vec<SearchRow>, StudyStats) {
    let t0 = Instant::now();
    let nranks = nranks.max(1);
    let max_level = scenario.max_level(&spec.params);
    let mut snapshot = HashMap::new();
    if let Some(c) = cache.as_deref() {
        for &cutoff in &spec.cutoffs {
            for m in spec.mantissa.0..=spec.mantissa.1 {
                if let Some(v) =
                    c.get_probe(scenario.name(), &spec.params, spec.exp_bits, cutoff, m)
                {
                    snapshot.insert((cutoff, m), v);
                }
            }
        }
    }
    let mut stats = StudyStats { pairs_by_rank: vec![0; nranks], ..StudyStats::default() };
    let mut source = ChainSource::new(spec, snapshot);
    if !source.exhausted() {
        let (drained, _, pool) =
            drain(&[scenario], &spec.params, nranks, spec.workers, source, &|ctx, _, (ci, m)| {
                let probe =
                    CandidateSpec::op(Format::new(spec.exp_bits, m)).with_cutoff(spec.cutoffs[ci]);
                let o = with_baseline(ctx, 0, |baseline| {
                    run_candidate(scenario, &spec.params, &probe, max_level, baseline)
                });
                (o.fidelity, o.counters.truncated_fraction())
            });
        stats.absorb_pool(pool);
        source = drained;
    }
    if let Some(c) = cache {
        for &(cutoff, m, fid, frac) in &source.fresh {
            c.insert_probe(scenario.name(), &spec.params, spec.exp_bits, cutoff, m, fid, frac);
        }
    }
    stats.cached = source.cached;
    stats.computed = source.probes;
    stats.wall_s = t0.elapsed().as_secs_f64();
    (source.into_rows(), stats)
}

/// The dynamic [`TaskSource`] of a precision search: one [`ProbeChain`]
/// per M-l cutoff, each exposing its single pending probe as a task.
/// Completing a probe advances the owning chain and readies its next
/// probe; the source is exhausted when every chain has reached its
/// answer.
struct ChainSource {
    chains: Vec<ProbeChain>,
    /// The cutoff of each chain (index-aligned with `chains`).
    cutoffs: Vec<u32>,
    /// `(chain index, mantissa)` probes ready to grant.
    ready: VecDeque<(usize, u32)>,
    /// Granted-but-unfinished probes, by task id.
    inflight: HashMap<u64, (usize, u32)>,
    next_id: u64,
    /// Probes computed by pool stealers this run.
    probes: usize,
    /// Probes served from the cache snapshot without running anything.
    cached: usize,
    /// Cached `(cutoff, m) -> (fidelity, truncated_fraction)` points,
    /// snapshotted before the pool starts, so completions, which run
    /// under the pool's lock, never read the caller's cache.
    snapshot: HashMap<(u32, u32), (f64, f64)>,
    /// Probes computed this run, for write-back after the pool drains:
    /// `(cutoff, m, fidelity, truncated_fraction)`.
    fresh: Vec<(u32, u32, f64, f64)>,
}

impl ChainSource {
    fn new(spec: &SearchSpec, snapshot: HashMap<(u32, u32), (f64, f64)>) -> ChainSource {
        let mut chains = Vec::with_capacity(spec.cutoffs.len());
        let mut ready = VecDeque::with_capacity(spec.cutoffs.len());
        for (ci, &cutoff) in spec.cutoffs.iter().enumerate() {
            let (chain, first) = ProbeChain::new(cutoff, spec.mantissa, spec.fidelity_floor);
            chains.push(chain);
            ready.push_back((ci, first));
        }
        let mut source = ChainSource {
            chains,
            cutoffs: spec.cutoffs.clone(),
            ready,
            inflight: HashMap::new(),
            next_id: 0,
            probes: 0,
            cached: 0,
            snapshot,
            fresh: Vec::new(),
        };
        source.drain_cached();
        source
    }

    /// Advance every chain through consecutively-cached probes without
    /// granting them as tasks. Runs at construction (so a fully-warm
    /// source is exhausted before the pool even starts) and after every
    /// completion (a computed probe's successor may well be cached —
    /// partial warmth from an interrupted hunt).
    fn drain_cached(&mut self) {
        let mut pending = std::mem::take(&mut self.ready);
        while let Some((ci, m)) = pending.pop_front() {
            match self.snapshot.get(&(self.cutoffs[ci], m)) {
                Some(&(fid, frac)) => {
                    self.cached += 1;
                    if let Some(next) = self.chains[ci].advance(m, fid, frac) {
                        pending.push_back((ci, next));
                    }
                }
                None => self.ready.push_back((ci, m)),
            }
        }
    }

    fn into_rows(self) -> Vec<SearchRow> {
        debug_assert!(self.inflight.is_empty(), "no probe left in flight");
        self.chains.into_iter().map(ProbeChain::into_row).collect()
    }
}

impl TaskSource for ChainSource {
    /// `(chain index, mantissa)` of the probe to run.
    type Detail = (usize, u32);
    /// The probe's `(fidelity, truncated_fraction)`.
    type Output = (f64, f64);

    fn next(&mut self) -> Option<(u64, (usize, u32))> {
        let (ci, m) = self.ready.pop_front()?;
        let id = self.next_id;
        self.next_id += 1;
        self.inflight.insert(id, (ci, m));
        Some((id, (ci, m)))
    }

    fn complete(&mut self, task: u64, (fid, frac): (f64, f64)) -> Result<(), String> {
        let (ci, m) =
            self.inflight.remove(&task).ok_or_else(|| format!("unknown probe task {task}"))?;
        self.probes += 1;
        self.fresh.push((self.cutoffs[ci], m, fid, frac));
        if let Some(next_m) = self.chains[ci].advance(m, fid, frac) {
            self.ready.push_back((ci, next_m));
            self.drain_cached();
        }
        Ok(())
    }

    fn exhausted(&self) -> bool {
        self.chains.iter().all(ProbeChain::finished)
    }
}

/// The greedy-bisection decision machine of one M-l search row,
/// decoupled from *where* its probes run: feed it probe results, it
/// answers with the next mantissa width to probe (or finishes).
///
/// Probe order: bracket at `hi` (if even the widest mantissa fails,
/// report and bail), check `lo` (if the narrowest passes, it is minimal),
/// then bisect. Fidelity is monotone enough in the mantissa width for
/// bisection (the §6.1 error ladders); occasional non-monotone blips (the
/// Fig. 7b AMR anomaly) cost at most a slightly-wider answer, never an
/// infinite loop.
struct ProbeChain {
    cutoff: u32,
    floor: f64,
    lo: u32,
    hi: u32,
    phase: ChainPhase,
    probes: Vec<(u32, f64)>,
    /// Narrowest passing probe so far: `(m, fidelity, truncated_fraction)`.
    best: Option<(u32, f64, f64)>,
    /// Set once the chain finishes: `(minimal_m, fidelity, fraction)`.
    result: Option<(Option<u32>, f64, f64)>,
}

enum ChainPhase {
    /// Waiting on the widest probe (`hi`).
    Bracket,
    /// Waiting on the narrowest probe (`lo`).
    Narrow,
    /// Waiting on a bisection midpoint.
    Bisect,
    Finished,
}

impl ProbeChain {
    /// Start a chain; returns the machine and its first probe width.
    fn new(cutoff: u32, mantissa: (u32, u32), floor: f64) -> (ProbeChain, u32) {
        let (lo, hi) = mantissa;
        let chain = ProbeChain {
            cutoff,
            floor,
            lo,
            hi,
            phase: ChainPhase::Bracket,
            probes: Vec::new(),
            best: None,
            result: None,
        };
        (chain, hi)
    }

    /// Feed the result of the pending probe at width `m`; returns the
    /// next width to probe, or `None` once the chain is finished.
    fn advance(&mut self, m: u32, fid: f64, frac: f64) -> Option<u32> {
        self.probes.push((m, fid));
        match self.phase {
            ChainPhase::Bracket => {
                if fid < self.floor {
                    self.finish(None, fid, frac);
                    None
                } else {
                    self.best = Some((self.hi, fid, frac));
                    self.phase = ChainPhase::Narrow;
                    Some(self.lo)
                }
            }
            ChainPhase::Narrow => {
                if fid >= self.floor {
                    self.finish(Some(self.lo), fid, frac);
                    None
                } else {
                    self.bisect_or_finish()
                }
            }
            ChainPhase::Bisect => {
                if fid >= self.floor {
                    self.hi = m;
                    self.best = Some((m, fid, frac));
                } else {
                    self.lo = m;
                }
                self.bisect_or_finish()
            }
            ChainPhase::Finished => unreachable!("no probe is pending on a finished chain"),
        }
    }

    fn bisect_or_finish(&mut self) -> Option<u32> {
        if self.hi - self.lo > 1 {
            self.phase = ChainPhase::Bisect;
            Some(self.lo + (self.hi - self.lo) / 2)
        } else {
            let (m, fid, frac) = self.best.expect("bracket probe passed");
            self.finish(Some(m), fid, frac);
            None
        }
    }

    fn finish(&mut self, minimal_m: Option<u32>, fid: f64, frac: f64) {
        self.phase = ChainPhase::Finished;
        self.result = Some((minimal_m, fid, frac));
    }

    /// Whether the chain has reached its answer.
    fn finished(&self) -> bool {
        matches!(self.phase, ChainPhase::Finished)
    }

    /// The finished chain as its search row (panics on an unfinished
    /// chain — a scheduler bug, not a data condition).
    fn into_row(self) -> SearchRow {
        let (minimal_m, fidelity, truncated_fraction) =
            self.result.expect("chain ran to completion");
        SearchRow {
            cutoff: self.cutoff,
            minimal_m,
            fidelity,
            truncated_fraction,
            probes: self.probes,
        }
    }
}
