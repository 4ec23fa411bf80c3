//! Full-registry studies: every scenario swept over one candidate
//! lattice, fidelity-gated, and ranked into a single cross-scenario
//! codesign table — the paper's headline artifact (Table 1's shape) as
//! one API call.
//!
//! [`run_study_distributed_resumable`] is the one sweep driver: a
//! campaign is a study of one scenario, and one rank takes the same path
//! as many. It enumerates every `(scenario, candidate)` **pair** across
//! the scenarios (the whole registry or a subset, see
//! [`crate::study_scenarios`]) and drains the flattened pair list
//! through the shared work-stealing task pool:
//!
//! * each pair is one task; skewed per-pair costs (a Kelvin–Helmholtz
//!   hydro run next to a 16-call IR kernel) never leave ranks idle;
//! * per-scenario full-precision baselines are pool *resources*,
//!   computed lazily on first touch and shared by every stealer;
//!   scenarios whose pairs are all cache hits never run one;
//! * one shared [`OutcomeCache`] directory covers the whole study (the
//!   cache key already carries the scenario name), so a warm resume of a
//!   completed study performs **zero** runs.
//!
//! The merged [`StudyReport`] carries one ranked [`CampaignReport`]
//! section per scenario plus a cross-scenario codesign ranking, and its
//! JSON rendering is **byte-identical for any rank count**: pairs are
//! reassembled in lattice order before the deterministic scoring + stable
//! ranking sort, so where a pair ran never shows in the result. Where it
//! ran *is* recorded — [`StudyStats`] — and persisted across runs:
//! [`run_resumed`] appends one JSON line per run to the
//! `stats_history.jsonl` inside the cache directory, so scheduler
//! changes stay measurable against the recorded baseline
//! (`codesign_advisor --stats-history` renders the trend).
//!
//! ```
//! use raptor_lab::{run_study_distributed_resumable, study_scenarios, CampaignSpec, LabParams};
//!
//! let scenarios = study_scenarios(Some("ir/horner,ir/norm3")).unwrap();
//! let spec = CampaignSpec::sweep(LabParams::mini());
//! let (one, _) = run_study_distributed_resumable(&scenarios, &spec, 1, None);
//! let (two, stats) = run_study_distributed_resumable(&scenarios, &spec, 2, None);
//! assert_eq!(two.to_json().render(), one.to_json().render());
//! assert_eq!(stats.pairs_by_rank.len(), 2); // where the pairs ran
//! println!("{}", two.render_markdown()); // the Table-1-style summary
//! ```

use crate::cache::OutcomeCache;
use crate::campaign::{
    eligible_candidates, run_candidate, score_and_rank, CampaignReport, CampaignSpec,
    CandidateOutcome,
};
use crate::queue::{FixedTasks, PoolStats, TaskCtx, TaskPool, TaskSource};
use crate::scenario::{LabParams, Observable, Scenario};
use raptor_core::{Json, Session};
use std::borrow::Borrow;
use std::path::{Path, PathBuf};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

/// One row of the cross-scenario codesign ranking: what the study
/// recommends for one workload (Table 1's shape — workload, the chosen
/// truncation, its fidelity, and the predicted payoff).
#[derive(Clone, Debug, PartialEq)]
pub struct StudyRow {
    /// Scenario name.
    pub scenario: String,
    /// Scenario crate.
    pub crate_name: String,
    /// Label of the best accepted candidate (`None`: nothing cleared the
    /// fidelity floor — stay at FP64).
    pub recommended: Option<String>,
    /// Fidelity of the recommended candidate (of the least-bad rejected
    /// one when nothing was accepted).
    pub fidelity: f64,
    /// Predicted speedup of the recommendation (`1.0` when staying at
    /// FP64).
    pub predicted_speedup: f64,
    /// Truncated-op fraction of the reported candidate.
    pub truncated_fraction: f64,
    /// Candidates that cleared the fidelity floor.
    pub accepted: usize,
    /// Candidates swept.
    pub total: usize,
}

impl StudyRow {
    fn from_report(report: &CampaignReport) -> StudyRow {
        let accepted =
            report.outcomes.iter().filter(|o| o.accepted && o.error.is_none()).count();
        let shown = report
            .best()
            .or_else(|| report.outcomes.iter().find(|o| o.error.is_none()));
        StudyRow {
            scenario: report.scenario.clone(),
            crate_name: report.crate_name.clone(),
            recommended: report.best().map(|b| b.spec.label()),
            fidelity: shown.map(|o| o.fidelity).unwrap_or(1.0),
            predicted_speedup: report.best().map(|b| b.predicted_speedup).unwrap_or(1.0),
            truncated_fraction: shown.map(|o| o.counters.truncated_fraction()).unwrap_or(0.0),
            accepted,
            total: report.outcomes.len(),
        }
    }

    /// Machine-readable ranking row.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("scenario", self.scenario.as_str())
            .set("crate", self.crate_name.as_str())
            .set(
                "recommended",
                match &self.recommended {
                    Some(label) => Json::from(label.as_str()),
                    None => Json::Null,
                },
            )
            .set("fidelity", Json::from_f64_lossless(self.fidelity))
            .set("predicted_speedup", Json::from_f64_lossless(self.predicted_speedup))
            .set("truncated_fraction", Json::from_f64_lossless(self.truncated_fraction))
            .set("accepted", self.accepted as u64)
            .set("total", self.total as u64)
    }

    /// Parse back a document produced by [`StudyRow::to_json`].
    pub fn from_json(doc: &Json) -> Result<StudyRow, String> {
        Ok(StudyRow {
            scenario: doc.str_field("scenario")?.to_string(),
            crate_name: doc.str_field("crate")?.to_string(),
            recommended: match doc.req("recommended")? {
                Json::Null => None,
                label => Some(
                    label
                        .as_str()
                        .ok_or_else(|| "recommended is not a string".to_string())?
                        .to_string(),
                ),
            },
            fidelity: doc.f64_field_lossless("fidelity")?,
            predicted_speedup: doc.f64_field_lossless("predicted_speedup")?,
            truncated_fraction: doc.f64_field_lossless("truncated_fraction")?,
            accepted: doc.u64_field("accepted")? as usize,
            total: doc.u64_field("total")? as usize,
        })
    }
}

/// A completed study: one ranked campaign section per scenario plus the
/// cross-scenario codesign ranking.
#[derive(Clone, Debug, PartialEq)]
pub struct StudyReport {
    /// Scale the study ran at.
    pub params: LabParams,
    /// The acceptance floor used by every campaign.
    pub fidelity_floor: f64,
    /// Per-scenario campaign sections, in registry order.
    pub scenarios: Vec<CampaignReport>,
    /// Cross-scenario ranking: scenarios with an accepted candidate
    /// first, by predicted speedup; FP64 hold-outs last. Ties break on
    /// the scenario name so the order is total and deterministic.
    pub ranking: Vec<StudyRow>,
}

impl StudyReport {
    /// Build the study from its per-scenario reports (the single place
    /// the ranking is derived).
    fn assemble(spec: &CampaignSpec, scenarios: Vec<CampaignReport>) -> StudyReport {
        let mut ranking: Vec<StudyRow> = scenarios.iter().map(StudyRow::from_report).collect();
        ranking.sort_by(|a, b| {
            b.recommended
                .is_some()
                .cmp(&a.recommended.is_some())
                .then_with(|| {
                    b.predicted_speedup
                        .partial_cmp(&a.predicted_speedup)
                        .unwrap_or(core::cmp::Ordering::Equal)
                })
                .then_with(|| a.scenario.cmp(&b.scenario))
        });
        StudyReport {
            params: spec.params,
            fidelity_floor: spec.fidelity_floor,
            scenarios,
            ranking,
        }
    }

    /// The campaign section of one scenario, if it was part of the study.
    pub fn scenario(&self, name: &str) -> Option<&CampaignReport> {
        self.scenarios.iter().find(|r| r.scenario == name)
    }

    /// Machine-readable study summary through the shared serializer.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set(
                "params",
                Json::obj()
                    .set("scale", self.params.scale)
                    .set("threads", self.params.threads),
            )
            .set("fidelity_floor", self.fidelity_floor)
            .set(
                "scenarios",
                Json::Arr(self.scenarios.iter().map(|r| r.to_json()).collect()),
            )
            .set("ranking", Json::Arr(self.ranking.iter().map(|r| r.to_json()).collect()))
    }

    /// Parse back a document produced by [`StudyReport::to_json`].
    pub fn from_json(doc: &Json) -> Result<StudyReport, String> {
        let params = doc.req("params")?;
        Ok(StudyReport {
            params: LabParams {
                scale: params.u64_field("scale")? as u32,
                threads: params.u64_field("threads")? as usize,
            },
            fidelity_floor: doc.f64_field("fidelity_floor")?,
            scenarios: doc
                .arr_field("scenarios")?
                .iter()
                .map(CampaignReport::from_json)
                .collect::<Result<Vec<CampaignReport>, String>>()?,
            ranking: doc
                .arr_field("ranking")?
                .iter()
                .map(StudyRow::from_json)
                .collect::<Result<Vec<StudyRow>, String>>()?,
        })
    }

    /// The cross-scenario ranking as a markdown table (Table-1-style),
    /// the `codesign_advisor --study` rendering.
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "## Codesign study ({} scenarios, fidelity floor {})\n\n",
            self.scenarios.len(),
            self.fidelity_floor
        ));
        out.push_str("| scenario | crate | recommended | fidelity | speedup | trunc % | accepted |\n");
        out.push_str("|---|---|---|---|---|---|---|\n");
        for row in &self.ranking {
            out.push_str(&format!(
                "| {} | {} | {} | {:.6} | {:.2}x | {:.1}% | {}/{} |\n",
                row.scenario,
                row.crate_name,
                row.recommended.as_deref().unwrap_or("*stay at FP64*"),
                row.fidelity,
                row.predicted_speedup,
                100.0 * row.truncated_fraction,
                row.accepted,
                row.total
            ));
        }
        out
    }

    /// Human-readable study summary: the ranking table plus each
    /// scenario's campaign table.
    pub fn render_table(&self) -> String {
        let mut out = self.render_markdown();
        for report in &self.scenarios {
            out.push('\n');
            out.push_str(&report.render_table());
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Scheduler statistics + persistent history
// ---------------------------------------------------------------------------

/// What a scheduled run did, per rank: how the work-stealing queue
/// spread the work, how much of it the shared cache absorbed, and what
/// the scheduling cost. Kept out of [`StudyReport`] on purpose — the
/// report must be byte-identical across rank counts; the stats are where
/// the distribution shows. Shared by the sweep driver (studies and
/// campaigns) and the probe-stealing precision search (where
/// `pairs_by_rank` counts probes).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StudyStats {
    /// Units served from the shared cache without running anything.
    pub cached: usize,
    /// Units computed in this invocation.
    pub computed: usize,
    /// Units completed by each rank (sums to `computed`). Length equals
    /// the rank count; a fully-warm resume has every entry zero.
    pub pairs_by_rank: Vec<usize>,
    /// Effective stealer count across all ranks: `max(workers, nranks)`
    /// (at least one per rank, spread ±1 across ranks). `0` when
    /// the run was fully warm and no pool was spun up.
    pub stealers: usize,
    /// Total seconds stealers spent blocked on the queue, summed across
    /// stealers.
    pub queue_wait_s: f64,
    /// Wall time of the whole run, seconds.
    pub wall_s: f64,
}

impl StudyStats {
    /// Fold a drained pool run's scheduling stats into this record — the
    /// single bridge from the pool's stats, so a new pool metric gets
    /// recorded by both drivers (sweep and search) or neither.
    pub(crate) fn absorb_pool(&mut self, pool: PoolStats) {
        self.pairs_by_rank = pool.tasks_by_rank;
        self.stealers = pool.stealers;
        self.queue_wait_s = pool.queue_wait_s;
    }

    /// Machine-readable stats through the shared serializer (the row
    /// body of the stats history).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("cached", self.cached as u64)
            .set("computed", self.computed as u64)
            .set(
                "pairs_by_rank",
                Json::Arr(self.pairs_by_rank.iter().map(|&n| Json::from(n as u64)).collect()),
            )
            .set("stealers", self.stealers as u64)
            .set("queue_wait_s", Json::from_f64_lossless(self.queue_wait_s))
            .set("wall_s", Json::from_f64_lossless(self.wall_s))
    }

    /// Parse back a document produced by [`StudyStats::to_json`].
    pub fn from_json(doc: &Json) -> Result<StudyStats, String> {
        Ok(StudyStats {
            cached: doc.u64_field("cached")? as usize,
            computed: doc.u64_field("computed")? as usize,
            pairs_by_rank: doc
                .arr_field("pairs_by_rank")?
                .iter()
                .map(|n| {
                    n.as_u64()
                        .map(|n| n as usize)
                        .ok_or_else(|| "pairs_by_rank entry is not an integer".to_string())
                })
                .collect::<Result<Vec<usize>, String>>()?,
            stealers: doc.u64_field("stealers")? as usize,
            queue_wait_s: doc.f64_field_lossless("queue_wait_s")?,
            wall_s: doc.f64_field_lossless("wall_s")?,
        })
    }
}

/// One appended line of the stats history: which run produced the stats,
/// against which cache file, at how many ranks, when.
#[derive(Clone, Debug, PartialEq)]
pub struct StatsRecord {
    /// What ran: `campaign:<scenario>`, `study:<n> scenarios`, or
    /// `hunt:<scenario>`.
    pub label: String,
    /// Directory name of the cache the run resumed against. Stamped by
    /// [`append_stats_history`].
    pub cache: String,
    /// Rank (worker-group) count of the run.
    pub ranks: usize,
    /// Milliseconds since the Unix epoch at record time.
    pub unix_ms: u64,
    /// The run's scheduler statistics.
    pub stats: StudyStats,
}

impl StatsRecord {
    /// A record stamped with the current wall clock (the cache name is
    /// stamped later, by [`append_stats_history`]).
    pub fn now(label: impl Into<String>, ranks: usize, stats: &StudyStats) -> StatsRecord {
        let unix_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        StatsRecord {
            label: label.into(),
            cache: String::new(),
            ranks,
            unix_ms,
            stats: stats.clone(),
        }
    }

    /// One history line (flattened: the stats fields inline with the
    /// run metadata).
    pub fn to_json(&self) -> Json {
        let mut doc = Json::obj()
            .set("label", self.label.as_str())
            .set("cache", self.cache.as_str())
            .set("ranks", self.ranks as u64)
            .set("unix_ms", self.unix_ms as f64);
        if let Json::Obj(stats) = self.stats.to_json() {
            for (k, v) in stats {
                doc = doc.set(&k, v);
            }
        }
        doc
    }

    /// Parse back one history line.
    pub fn from_json(doc: &Json) -> Result<StatsRecord, String> {
        Ok(StatsRecord {
            label: doc.str_field("label")?.to_string(),
            cache: doc.str_field("cache")?.to_string(),
            ranks: doc.u64_field("ranks")? as usize,
            unix_ms: doc.f64_field("unix_ms")? as u64,
            stats: StudyStats::from_json(doc)?,
        })
    }
}

/// Where the stats history of the cache directory `cache_dir` lives: a
/// `stats_history.jsonl` at its top level, next to the scenario shard
/// dirs — one compact JSON document per line, append-only, so every
/// resumed run (study, campaign, or hunt) adds exactly one row and the
/// file diffs like a log.
pub fn stats_history_path(cache_dir: &Path) -> PathBuf {
    cache_dir.join("stats_history.jsonl")
}

/// Append one record to the stats history of the cache directory
/// `cache_dir` and return the history path. Called by [`run_resumed`]
/// after every run, so scheduler changes are measurable against the
/// recorded baseline.
pub fn append_stats_history(cache_dir: &Path, record: &StatsRecord) -> Result<PathBuf, String> {
    use std::io::Write;
    let path = stats_history_path(cache_dir);
    let mut record = record.clone();
    record.cache = cache_dir
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    let mut line = record.to_json().render_compact();
    line.push('\n');
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .map_err(|e| format!("open {}: {e}", path.display()))?;
    file.write_all(line.as_bytes()).map_err(|e| format!("append {}: {e}", path.display()))?;
    Ok(path)
}

/// Load every record of a stats-history file, oldest first. Blank lines
/// are skipped; a malformed line is an error naming its line number
/// (silently dropping recorded measurements would defeat the log).
pub fn load_stats_history(path: &Path) -> Result<Vec<StatsRecord>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| {
            let doc = Json::parse(line).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))?;
            StatsRecord::from_json(&doc).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))
        })
        .collect()
}

/// The stats history as a trend table (the `codesign_advisor
/// --stats-history` rendering): one line per recorded run, oldest first,
/// with the per-rank balance spelled out.
pub fn render_stats_history(records: &[StatsRecord]) -> String {
    let mut out = String::new();
    out.push_str(&format!("## Scheduler stats history ({} runs)\n\n", records.len()));
    out.push_str(
        "| # | label | cache | ranks | stealers | cached | computed | by rank | queue wait s | wall s |\n",
    );
    out.push_str("|---|---|---|---|---|---|---|---|---|---|\n");
    for (i, r) in records.iter().enumerate() {
        let by_rank = r
            .stats
            .pairs_by_rank
            .iter()
            .map(|n| n.to_string())
            .collect::<Vec<String>>()
            .join("/");
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} | {} | {} | {:.3} | {:.3} |\n",
            i + 1,
            r.label,
            r.cache,
            r.ranks,
            r.stats.stealers,
            r.stats.cached,
            r.stats.computed,
            by_rank,
            r.stats.queue_wait_s,
            r.stats.wall_s,
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// Drivers
// ---------------------------------------------------------------------------

/// Drain `source` on a [`TaskPool`] of `nranks` ranks and `workers`
/// stealers whose shared resource `k` is the full-precision baseline of
/// `scenarios[k]`, computed on first touch and shared by every stealer.
/// The executor under both drivers (sweep and search).
pub(crate) fn drain<S: TaskSource + Send>(
    scenarios: &[&dyn Scenario],
    params: &LabParams,
    nranks: usize,
    workers: usize,
    source: S,
    task: &(dyn Fn(&TaskCtx<'_, Observable>, u64, S::Detail) -> S::Output + Sync),
) -> (S, Vec<Option<Observable>>, PoolStats) {
    TaskPool::new(nranks, workers).run(scenarios.len(), source, task, &|key| {
        amr::run_inline(|| scenarios[key].build(params).run(&Session::passthrough()))
    })
}

/// Run `f` against the baseline of scenario `key` (see [`drain`]).
/// Stealers are plain threads, not sweep-pool workers, so `f` runs
/// inline: a scenario's interior mesh sweeps (`params.threads > 1`) must
/// not serialize every stealer on the process-wide pool's submit lock.
pub(crate) fn with_baseline<T>(
    ctx: &TaskCtx<'_, Observable>,
    key: usize,
    f: impl FnOnce(&Observable) -> T,
) -> T {
    let baseline = ctx.resource(key);
    amr::run_inline(|| f(baseline))
}

/// The sweep driver: run every scenario over `spec`'s lattice across
/// `nranks` worker groups and merge one ranked section per scenario plus
/// the cross-scenario ranking. A campaign is a one-scenario study;
/// `nranks = 1` takes the same task-pool path. The report JSON is
/// byte-identical at any rank count.
///
/// With a `cache`, pairs already cached are served without running
/// anything (a fully-warm resume performs zero runs, baselines
/// included); only missing pairs enter the work-stealing queue, and every
/// row of the merged report is written back (staged; the caller saves).
pub fn run_study_distributed_resumable<'s, S: Borrow<dyn Scenario + 's>>(
    scenarios: &[S],
    spec: &CampaignSpec,
    nranks: usize,
    mut cache: Option<&mut OutcomeCache>,
) -> (StudyReport, StudyStats) {
    let t0 = Instant::now();
    let nranks = nranks.max(1);
    let scenarios: Vec<&dyn Scenario> = scenarios.iter().map(Borrow::borrow).collect();
    let max_levels: Vec<u32> = scenarios.iter().map(|s| s.max_level(&spec.params)).collect();

    // The flattened `(scenario index, candidate)` pair lattice, in
    // scenario-then-candidate order — the deterministic spine every merge
    // below reassembles along.
    let pairs: Vec<(usize, &_)> = (0..scenarios.len())
        .flat_map(|si| eligible_candidates(spec, max_levels[si]).into_iter().map(move |c| (si, c)))
        .collect();
    let mut rows: Vec<Option<CandidateOutcome>> = pairs
        .iter()
        .map(|&(si, c)| {
            cache.as_deref().and_then(|k| k.get(scenarios[si].name(), &spec.params, c).cloned())
        })
        .collect();
    let missing: Vec<usize> = (0..pairs.len()).filter(|&i| rows[i].is_none()).collect();
    let mut stats = StudyStats {
        cached: pairs.len() - missing.len(),
        computed: missing.len(),
        pairs_by_rank: vec![0; nranks],
        ..StudyStats::default()
    };

    // Baselines of scenarios some stealer touched; fully-cached
    // scenarios stay `None` and fall back to their cached self-fidelity.
    let mut baselines: Vec<Option<Observable>> = vec![None; scenarios.len()];
    if !missing.is_empty() {
        let (source, resources, pool) = drain(
            &scenarios,
            &spec.params,
            nranks,
            spec.workers,
            FixedTasks::new(missing.len()),
            &|ctx, task, ()| {
                let (si, cand) = pairs[missing[task as usize]];
                with_baseline(ctx, si, |baseline| {
                    run_candidate(scenarios[si], &spec.params, cand, max_levels[si], baseline)
                })
            },
        );
        stats.absorb_pool(pool);
        for (&i, row) in missing.iter().zip(source.into_outputs()) {
            rows[i] = Some(row.expect("every missing pair was stolen and completed"));
        }
        baselines = resources;
    }

    // Per-scenario sections: group along the spine, score, rank. A
    // scenario can legitimately own zero pairs (e.g. a cutoff-only
    // lattice on an unrefined workload); its section is just empty.
    let mut rows = rows.into_iter().map(|r| r.expect("one outcome per pair"));
    let mut reports: Vec<CampaignReport> = Vec::with_capacity(scenarios.len());
    for (si, scenario) in scenarios.iter().enumerate() {
        let n = pairs.iter().filter(|p| p.0 == si).count();
        let mut section: Vec<CandidateOutcome> = rows.by_ref().take(n).collect();
        score_and_rank(&mut section, spec);
        let baseline_fidelity = match &baselines[si] {
            Some(obs) => scenario.fidelity(obs, obs),
            None => cache
                .as_deref()
                .and_then(|k| k.baseline(scenario.name(), &spec.params))
                .unwrap_or(1.0),
        };
        if let Some(k) = cache.as_deref_mut() {
            for o in &section {
                k.insert(scenario.name(), &spec.params, o);
            }
            k.set_baseline(scenario.name(), &spec.params, baseline_fidelity);
        }
        reports.push(CampaignReport {
            scenario: scenario.name().to_string(),
            crate_name: scenario.crate_name().to_string(),
            params: spec.params,
            fidelity_floor: spec.fidelity_floor,
            baseline_fidelity,
            outcomes: section,
        });
    }

    stats.wall_s = t0.elapsed().as_secs_f64();
    (StudyReport::assemble(spec, reports), stats)
}

/// The cache shell of every driver: load the cache directory at
/// `cache_dir`, run `job` against it, persist it, and append one
/// [`StatsRecord`] labelled `label` to its stats history — the
/// `--resume <dir>` CLI flow as one call. `None` runs `job` without a
/// cache and records nothing. The history append is best-effort
/// observability: a failure there is reported on stderr, never allowed
/// to discard the completed (and already persisted) run.
///
/// Labels name what ran: `campaign:<scenario>`, `hunt:<scenario>`, or
/// `study:<n> scenarios`.
pub fn run_resumed<T>(
    cache_dir: Option<&Path>,
    label: &str,
    nranks: usize,
    job: impl FnOnce(Option<&mut OutcomeCache>) -> (T, StudyStats),
) -> Result<(T, StudyStats), String> {
    let Some(dir) = cache_dir else { return Ok(job(None)) };
    let mut cache = OutcomeCache::load(dir)?;
    let (out, stats) = job(Some(&mut cache));
    cache.save()?;
    if let Err(e) = append_stats_history(cache.path(), &StatsRecord::now(label, nranks, &stats)) {
        eprintln!("warning: scheduler stats history not recorded: {e}");
    }
    Ok((out, stats))
}

/// [`run_study_distributed_resumable`] inside [`run_resumed`] against the
/// cache directory at `path`, labelled `study:<n> scenarios` — the
/// `--study --ranks N --resume <dir>` CLI flow as one call.
pub fn run_study_resumed(
    scenarios: &[Box<dyn Scenario>],
    spec: &CampaignSpec,
    nranks: usize,
    path: impl Into<std::path::PathBuf>,
) -> Result<(StudyReport, StudyStats), String> {
    let label = format!("study:{} scenarios", scenarios.len());
    run_resumed(Some(&path.into()), &label, nranks, |cache| {
        run_study_distributed_resumable(scenarios, spec, nranks, cache)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::CandidateSpec;
    use crate::registry::study_scenarios;
    use bigfloat::Format;
    use codesign::Machine;

    fn mini_spec(candidates: Vec<CandidateSpec>) -> CampaignSpec {
        CampaignSpec {
            params: LabParams::mini(),
            candidates,
            fidelity_floor: 0.999,
            workers: 4,
            machine: Machine::default(),
        }
    }

    #[test]
    fn study_stats_and_records_round_trip_through_json() {
        let stats = StudyStats {
            cached: 3,
            computed: 9,
            pairs_by_rank: vec![4, 5],
            stealers: 4,
            queue_wait_s: 0.25,
            wall_s: 1.5,
        };
        let back = StudyStats::from_json(&Json::parse(&stats.to_json().render()).unwrap()).unwrap();
        assert_eq!(back, stats);

        let record = StatsRecord {
            label: "study:3 scenarios".to_string(),
            cache: "study-cache.json".to_string(),
            ranks: 2,
            unix_ms: 1_753_000_000_000,
            stats,
        };
        let line = record.to_json().render_compact();
        assert!(!line.contains('\n'), "history rows are one line: {line}");
        let back = StatsRecord::from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(back, record);
        // The trend table names the run, its cache, and its balance.
        let table = render_stats_history(&[back]);
        assert!(
            table.contains("study:3 scenarios")
                && table.contains("study-cache.json")
                && table.contains("4/5"),
            "{table}"
        );
    }

    #[test]
    fn stats_history_appends_and_loads_in_order() {
        let dir = std::env::temp_dir().join(format!(
            "raptor-stats-unit-{}-{}",
            std::process::id(),
            line!()
        ));
        let cache_path = dir.join("cache");
        std::fs::create_dir_all(&cache_path).unwrap();
        let mk = |computed: usize| StudyStats {
            cached: 0,
            computed,
            pairs_by_rank: vec![computed],
            stealers: 1,
            queue_wait_s: 0.0,
            wall_s: 0.1,
        };
        let p1 =
            append_stats_history(&cache_path, &StatsRecord::now("study:1 scenarios", 1, &mk(5)))
                .unwrap();
        let p2 =
            append_stats_history(&cache_path, &StatsRecord::now("study:1 scenarios", 2, &mk(0)))
                .unwrap();
        assert_eq!(p1, p2, "appends share one history file");
        assert_eq!(p1, cache_path.join("stats_history.jsonl"));
        assert_eq!(p1, stats_history_path(&cache_path));
        let records = load_stats_history(&p1).unwrap();
        assert_eq!(records.len(), 2, "one row per run");
        assert_eq!(records[0].stats.computed, 5, "oldest first");
        assert_eq!(records[1].stats.computed, 0);
        assert_eq!(records[1].ranks, 2);
        // Rows name the cache directory they resumed against.
        assert!(records.iter().all(|r| r.cache == "cache"), "{:?}", records[0].cache);
        // Malformed lines are loud errors, not silent drops.
        std::fs::write(&p1, "{\"label\": \"x\"}\n").unwrap();
        assert!(load_stats_history(&p1).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn study_ranking_orders_accepted_scenarios_first() {
        let scenarios = study_scenarios(Some("ir/horner,ir/norm3")).unwrap();
        // A floor only wide formats clear: some scenario rows accept,
        // narrow-only lattices would not. Use one comfortable candidate.
        let spec = mini_spec(vec![
            CandidateSpec::op(Format::new(11, 40)),
            CandidateSpec::op(Format::new(11, 4)),
        ]);
        let (study, _) = run_study_distributed_resumable(&scenarios, &spec, 1, None);
        assert_eq!(study.scenarios.len(), 2);
        assert_eq!(study.ranking.len(), 2);
        // Sections keep registry order; ranking is sorted by verdict.
        assert_eq!(study.scenarios[0].scenario, "ir/horner");
        assert_eq!(study.scenarios[1].scenario, "ir/norm3");
        let rec: Vec<bool> = study.ranking.iter().map(|r| r.recommended.is_some()).collect();
        assert!(rec.windows(2).all(|w| w[0] >= w[1]), "accepted first: {rec:?}");
        for row in &study.ranking {
            assert_eq!(row.total, 2);
            if row.recommended.is_none() {
                assert_eq!(row.predicted_speedup, 1.0, "FP64 hold-out is neutral");
            }
        }
        // The markdown table carries every scenario.
        let md = study.render_markdown();
        assert!(md.contains("| ir/horner |") && md.contains("| ir/norm3 |"));
    }

    #[test]
    fn study_report_round_trips_through_json() {
        let scenarios = study_scenarios(Some("ir/horner")).unwrap();
        let spec = mini_spec(vec![
            CandidateSpec::op(Format::new(11, 30)),
            CandidateSpec::op(Format::new(11, 6)),
        ]);
        let (study, _) = run_study_distributed_resumable(&scenarios, &spec, 1, None);
        let text = study.to_json().render();
        let back = StudyReport::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, study, "study report round-trips losslessly");
        assert_eq!(back.to_json().render(), text);
    }
}
