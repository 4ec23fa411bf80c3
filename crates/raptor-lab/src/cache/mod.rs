//! The campaign resume cache: a content-addressed, sharded, multi-process
//! outcome database on disk.
//!
//! A cache is a *directory* (`--resume` paths name dirs).
//! Inside it, every scenario owns a subdirectory of `shard::N_SHARDS`
//! append-only JSONL files plus their lock siblings:
//!
//! ```text
//! cache_dir/hydro__sod/shard2.jsonl   <- rows whose fnv1a64(key)%4 == 2
//! cache_dir/hydro__sod/shard2.lock    <- advisory lock for that file
//! ```
//!
//! Three row kinds share one key space, all rooted at the campaign key
//! `{scenario}|scale{S}|threads{T}`:
//!
//! - **outcome**:  `{campaign}|{CandidateSpec::label()}` — one candidate row
//! - **baseline**: `{campaign}` — the reference self-fidelity
//! - **probe**:    `{campaign}|probe e{E}m{M} M-{C}` — one bisection point
//!
//! The namespaces are disjoint by shape (a bare campaign key has no
//! label segment; candidate labels never begin with `probe `), and each
//! key is injective over its row's full identity, so last-writer-wins
//! replay can only ever replace a row with an equal-identity row.
//!
//! **Write model.** Mutators ([`OutcomeCache::insert`],
//! [`OutcomeCache::set_baseline`], [`OutcomeCache::insert_probe`]) stage
//! rows in memory; [`OutcomeCache::save`] *appends* them to their home
//! shards under per-shard locks — no whole-file rewrite, so concurrent
//! campaigns, hunts, and studies from any number of processes merge
//! instead of clobbering. Staging is idempotent: re-recording a row the
//! map already holds with the same value stages nothing, so warm resumes
//! do not bloat shards. Eviction ([`OutcomeCache::evict_half`]) is the
//! one rewriting operation: it tombstones keys and the next
//! [`OutcomeCache::save`] compacts the touched shards (adopting any rows
//! concurrent writers appended meanwhile — see
//! [`OutcomeCache::compact`]).

mod lock;
mod shard;

pub use lock::{ShardLock, ShardLocks};

use crate::campaign::{CandidateOutcome, CandidateSpec};
use crate::scenario::LabParams;
use shard::{Row, N_SHARDS};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// A mergeable, resumable outcome table persisted as a sharded cache
/// directory.
#[derive(Debug)]
pub struct OutcomeCache {
    path: PathBuf,
    entries: BTreeMap<String, CandidateOutcome>,
    baselines: BTreeMap<String, f64>,
    probes: BTreeMap<String, (f64, f64)>,
    /// Rows staged since the last save, appended (not rewritten) on save.
    pending: Vec<Row>,
    /// Keys evicted since the last compaction; their shards need a
    /// rewrite before the eviction is durable.
    tombstones: BTreeSet<String>,
    needs_compact: bool,
    /// Torn lines absorbed by the last load (see module docs).
    recovered: usize,
    /// This cache's one shard-lock token: at most one shard lock held
    /// at a time, enforced by `&mut ShardLocks`.
    locks: ShardLocks,
}

fn campaign_key(scenario: &str, params: &LabParams) -> String {
    format!("{scenario}|scale{}|threads{}", params.scale, params.threads)
}

fn probe_key(scenario: &str, params: &LabParams, exp_bits: u32, cutoff: u32, m: u32) -> String {
    format!("{}|probe e{exp_bits}m{m} M-{cutoff}", campaign_key(scenario, params))
}

impl OutcomeCache {
    /// Open (and fully replay) the cache directory at `path`; a missing
    /// path yields an empty cache that [`OutcomeCache::save`] will
    /// create, and a regular file at `path` is an error. Torn shard lines
    /// are absorbed and counted ([`OutcomeCache::recovered`]); a
    /// *parseable* row with a bad shape is an error — silently discarding
    /// completed work would be worse.
    pub fn load(path: impl Into<PathBuf>) -> Result<OutcomeCache, String> {
        let path = path.into();
        if path.is_file() {
            return Err(format!("{}: a regular file, not a cache directory", path.display()));
        }
        let mut cache = OutcomeCache {
            path,
            entries: BTreeMap::new(),
            baselines: BTreeMap::new(),
            probes: BTreeMap::new(),
            pending: Vec::new(),
            tombstones: BTreeSet::new(),
            needs_compact: false,
            recovered: 0,
            locks: ShardLocks::default(),
        };
        if cache.path.is_dir() {
            let entries = std::fs::read_dir(&cache.path)
                .map_err(|e| format!("read dir {}: {e}", cache.path.display()))?;
            let mut dirs: Vec<PathBuf> =
                entries.flatten().map(|e| e.path()).filter(|p| p.is_dir()).collect();
            dirs.sort();
            for dir in dirs {
                shard::sweep_stale_temps(&dir, STALE_TEMP_AGE);
                for s in 0..N_SHARDS {
                    // No file, nothing to replay: skip it without
                    // creating a lock file in a directory we only read.
                    if !shard::shard_path(&dir, s).exists() {
                        continue;
                    }
                    let replay = cache.locks.lock(&dir, s)?.replay()?;
                    cache.recovered += replay.recovered;
                    for row in replay.rows {
                        cache.apply(row);
                    }
                }
            }
        }
        if cache.recovered > 0 {
            eprintln!(
                "cache: absorbed {} torn line(s) in {} (crashed writer debris; dropped at next compaction)",
                cache.recovered,
                cache.path.display()
            );
        }
        Ok(cache)
    }

    /// Replay one row into the in-memory maps (last writer wins).
    fn apply(&mut self, row: Row) {
        match row {
            Row::Outcome { key, outcome } => {
                self.entries.insert(key, *outcome);
            }
            Row::Baseline { key, fidelity } => {
                self.baselines.insert(key, fidelity);
            }
            Row::Probe { key, fidelity, truncated_fraction } => {
                self.probes.insert(key, (fidelity, truncated_fraction));
            }
        }
    }

    /// Apply a row and stage it for append — unless the maps already
    /// hold exactly this value, in which case the row is already durable
    /// (or already staged) and appending again would only bloat the
    /// shard on every warm resume.
    fn stage(&mut self, row: Row) {
        let fresh = match &row {
            Row::Outcome { key, outcome } => self.entries.get(key) != Some(&**outcome),
            Row::Baseline { key, fidelity } => {
                self.baselines.get(key).map(|f| f.to_bits()) != Some(fidelity.to_bits())
            }
            Row::Probe { key, fidelity, truncated_fraction } => {
                self.probes.get(key).map(|(f, t)| (f.to_bits(), t.to_bits()))
                    != Some((fidelity.to_bits(), truncated_fraction.to_bits()))
            }
        };
        if fresh {
            self.tombstones.remove(row.key());
            self.apply(row.clone());
            self.pending.push(row);
        }
    }

    /// Where this cache persists (the cache directory).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of cached candidate rows (across all campaigns).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no candidate rows.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of cached bisection probes (across all hunts).
    pub fn probes_len(&self) -> usize {
        self.probes.len()
    }

    /// Torn lines absorbed by [`OutcomeCache::load`] — nonzero means a
    /// writer died mid-append since the last compaction.
    pub fn recovered(&self) -> usize {
        self.recovered
    }

    /// The cached outcome of one candidate, if present.
    pub fn get(
        &self,
        scenario: &str,
        params: &LabParams,
        spec: &CandidateSpec,
    ) -> Option<&CandidateOutcome> {
        self.entries.get(&format!("{}|{}", campaign_key(scenario, params), spec.label()))
    }

    /// Record (or refresh) one candidate outcome.
    pub fn insert(&mut self, scenario: &str, params: &LabParams, outcome: &CandidateOutcome) {
        let key = format!("{}|{}", campaign_key(scenario, params), outcome.spec.label());
        self.stage(Row::Outcome { key, outcome: Box::new(outcome.clone()) });
    }

    /// The cached baseline self-fidelity of a campaign, if recorded.
    pub fn baseline(&self, scenario: &str, params: &LabParams) -> Option<f64> {
        self.baselines.get(&campaign_key(scenario, params)).copied()
    }

    /// Record a campaign's baseline self-fidelity, so a fully-warm resume
    /// does not need to re-run even the reference.
    pub fn set_baseline(&mut self, scenario: &str, params: &LabParams, fidelity: f64) {
        self.stage(Row::Baseline { key: campaign_key(scenario, params), fidelity });
    }

    /// The cached `(fidelity, truncated_fraction)` of one bisection
    /// probe, if present. Probes are deterministic
    /// `(scenario, scale, threads, exp_bits, cutoff, m)` points, so a
    /// hit is exact — no tolerance, no staleness.
    pub fn get_probe(
        &self,
        scenario: &str,
        params: &LabParams,
        exp_bits: u32,
        cutoff: u32,
        m: u32,
    ) -> Option<(f64, f64)> {
        self.probes.get(&probe_key(scenario, params, exp_bits, cutoff, m)).copied()
    }

    /// Record one bisection probe result.
    #[allow(clippy::too_many_arguments)]
    pub fn insert_probe(
        &mut self,
        scenario: &str,
        params: &LabParams,
        exp_bits: u32,
        cutoff: u32,
        m: u32,
        fidelity: f64,
        truncated_fraction: f64,
    ) {
        self.stage(Row::Probe {
            key: probe_key(scenario, params, exp_bits, cutoff, m),
            fidelity,
            truncated_fraction,
        });
    }

    /// Drop every other candidate row (keeping the first, third, ... in
    /// global key order) — the resume drill used by CI: run, evict half,
    /// re-run, and assert only the evicted half recomputes. The eviction
    /// becomes durable at the next [`OutcomeCache::save`], which
    /// compacts the touched shards.
    pub fn evict_half(&mut self) {
        let keys: Vec<String> = self.entries.keys().cloned().collect();
        for key in keys.iter().skip(1).step_by(2) {
            self.entries.remove(key);
            self.tombstones.insert(key.clone());
        }
        // Evicted rows may still sit in `pending`; compaction rewrites
        // from the maps, so route the next save through it.
        self.needs_compact = true;
    }

    /// Persist staged rows. The hot path is pure append under per-shard
    /// locks; after an eviction it is a compacting rewrite instead (see
    /// module docs).
    pub fn save(&mut self) -> Result<(), String> {
        std::fs::create_dir_all(&self.path)
            .map_err(|e| format!("mkdir {}: {e}", self.path.display()))?;
        if self.needs_compact {
            return self.compact();
        }
        // Group staged rows by home (scenario dir, shard): one lock
        // acquisition and one write per touched shard.
        let mut by_shard: BTreeMap<(String, usize), Vec<String>> = BTreeMap::new();
        for row in &self.pending {
            let dir = shard::dir_name(shard::scenario_of(row.key()));
            by_shard.entry((dir, shard::shard_of(row.key()))).or_default().push(row.to_line());
        }
        for ((dir, s), lines) in &by_shard {
            let dir = self.path.join(dir);
            std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
            self.locks.lock(&dir, *s)?.append(lines)?;
        }
        self.pending.clear();
        Ok(())
    }

    /// Rewrite every shard this cache has rows or tombstones in:
    /// replay each file under its lock, adopt rows concurrent writers
    /// appended since our load (unless we tombstoned them), and write
    /// back one line per live row, key-sorted. Drops absorbed torn
    /// lines, duplicate appends, and evicted rows for good.
    pub fn compact(&mut self) -> Result<(), String> {
        std::fs::create_dir_all(&self.path)
            .map_err(|e| format!("mkdir {}: {e}", self.path.display()))?;
        let mut dirs: BTreeSet<String> = BTreeSet::new();
        for key in self
            .entries
            .keys()
            .chain(self.baselines.keys())
            .chain(self.probes.keys())
            .chain(self.tombstones.iter())
        {
            dirs.insert(shard::dir_name(shard::scenario_of(key)));
        }
        for dir in &dirs {
            let dir_path = self.path.join(dir);
            std::fs::create_dir_all(&dir_path)
                .map_err(|e| format!("mkdir {}: {e}", dir_path.display()))?;
            for s in 0..N_SHARDS {
                // Replay and replace under one guard, so no append can
                // slip between what we adopt and what we write back.
                let lock = self.locks.lock(&dir_path, s)?;
                for row in lock.replay()?.rows {
                    if self.tombstones.contains(row.key()) {
                        continue;
                    }
                    // A row we don't hold was appended by a concurrent
                    // writer after our load: adopt it (our own value
                    // wins when both exist).
                    match row {
                        Row::Outcome { key, outcome } => {
                            self.entries.entry(key).or_insert(*outcome);
                        }
                        Row::Baseline { key, fidelity } => {
                            self.baselines.entry(key).or_insert(fidelity);
                        }
                        Row::Probe { key, fidelity, truncated_fraction } => {
                            self.probes.entry(key).or_insert((fidelity, truncated_fraction));
                        }
                    }
                }
                let home = |key: &str| {
                    shard::dir_name(shard::scenario_of(key)) == *dir && shard::shard_of(key) == s
                };
                let mut lines = Vec::new();
                for (key, outcome) in &self.entries {
                    if home(key) {
                        lines.push(
                            Row::Outcome { key: key.clone(), outcome: Box::new(outcome.clone()) }
                                .to_line(),
                        );
                    }
                }
                for (key, fidelity) in &self.baselines {
                    if home(key) {
                        lines.push(
                            Row::Baseline { key: key.clone(), fidelity: *fidelity }.to_line(),
                        );
                    }
                }
                for (key, (fidelity, truncated_fraction)) in &self.probes {
                    if home(key) {
                        lines.push(
                            Row::Probe {
                                key: key.clone(),
                                fidelity: *fidelity,
                                truncated_fraction: *truncated_fraction,
                            }
                            .to_line(),
                        );
                    }
                }
                lock.replace(&lines)?;
            }
        }
        self.pending.clear();
        self.tombstones.clear();
        self.needs_compact = false;
        self.recovered = 0;
        Ok(())
    }
}

/// A compaction temp older than this is considered orphaned by a crashed
/// rewriter. Rewrites hold their temp for milliseconds, so an hour
/// leaves a ~10^6× margin for a live in-flight temp — and unlike
/// checking pid liveness, file age stays meaningful across PID
/// namespaces and shared filesystems where a foreign writer's pid is
/// unknowable.
const STALE_TEMP_AGE: std::time::Duration = std::time::Duration::from_secs(3600);

#[cfg(test)]
mod tests {
    use super::*;
    use bigfloat::Format;
    use raptor_core::{Counters, Report};

    fn outcome(m: u32) -> CandidateOutcome {
        CandidateOutcome {
            spec: CandidateSpec::op(Format::new(11, m)),
            fidelity: 0.5 + m as f64 * 1e-3,
            accepted: true,
            predicted_speedup: 1.5,
            speedup_compute: 2.0,
            speedup_memory: 1.25,
            counters: Counters::default(),
            report: Report {
                config: format!("m={m}"),
                counters: Counters::default(),
                flags: Vec::new(),
                warnings: Vec::new(),
            },
            error: None,
        }
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("raptor-cache-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn cache_round_trips_through_disk() {
        let path = tmp_dir("roundtrip");
        let _ = std::fs::remove_dir_all(&path);
        let params = LabParams::mini();
        let mut cache = OutcomeCache::load(&path).unwrap();
        assert!(cache.is_empty());
        cache.insert("hydro/sod", &params, &outcome(8));
        cache.insert("hydro/sod", &params, &outcome(23));
        cache.set_baseline("hydro/sod", &params, 1.0);
        cache.insert_probe("hydro/sod", &params, 11, 0, 24, 0.875, 0.25);
        cache.save().unwrap();

        let back = OutcomeCache::load(&path).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.recovered(), 0);
        assert_eq!(back.baseline("hydro/sod", &params), Some(1.0));
        assert_eq!(back.get_probe("hydro/sod", &params, 11, 0, 24), Some((0.875, 0.25)));
        let spec = CandidateSpec::op(Format::new(11, 8));
        assert_eq!(back.get("hydro/sod", &params, &spec), Some(&outcome(8)));
        // Different params, scenario, or probe point miss.
        assert!(back.get("hydro/sod", &LabParams::demo(), &spec).is_none());
        assert!(back.get("hydro/sedov", &params, &spec).is_none());
        assert!(back.get_probe("hydro/sod", &params, 11, 1, 24).is_none());
        assert!(back.get_probe("hydro/sod", &params, 11, 0, 25).is_none());
        let _ = std::fs::remove_dir_all(&path);
    }

    #[test]
    fn warm_resume_stages_nothing() {
        let path = tmp_dir("idempotent");
        let _ = std::fs::remove_dir_all(&path);
        let params = LabParams::mini();
        let mut cache = OutcomeCache::load(&path).unwrap();
        cache.insert("s", &params, &outcome(8));
        cache.set_baseline("s", &params, 1.0);
        cache.insert_probe("s", &params, 11, 0, 24, 0.9, 0.1);
        cache.save().unwrap();

        // Re-recording identical rows (what every warm resume does)
        // must not grow the shard files.
        let sizes = |p: &Path| -> u64 {
            fn walk(p: &Path, acc: &mut u64) {
                for e in std::fs::read_dir(p).unwrap().flatten() {
                    let path = e.path();
                    if path.is_dir() {
                        walk(&path, acc);
                    } else if path.extension().is_some_and(|x| x == "jsonl") {
                        *acc += e.metadata().unwrap().len();
                    }
                }
            }
            let mut acc = 0;
            walk(p, &mut acc);
            acc
        };
        let before = sizes(&path);
        let mut back = OutcomeCache::load(&path).unwrap();
        back.insert("s", &params, &outcome(8));
        back.set_baseline("s", &params, 1.0);
        back.insert_probe("s", &params, 11, 0, 24, 0.9, 0.1);
        assert!(back.pending.is_empty(), "identical rows must not be re-staged");
        back.save().unwrap();
        assert_eq!(sizes(&path), before, "warm resume must not grow shards");
        // A *changed* row is re-staged (e.g. re-gating under a new floor).
        let mut changed = outcome(8);
        changed.accepted = false;
        back.insert("s", &params, &changed);
        assert_eq!(back.pending.len(), 1);
        let _ = std::fs::remove_dir_all(&path);
    }

    #[test]
    fn evict_half_drops_every_other_entry_durably() {
        let path = tmp_dir("evict");
        let _ = std::fs::remove_dir_all(&path);
        let mut cache = OutcomeCache::load(&path).unwrap();
        let params = LabParams::mini();
        for m in [4u32, 8, 12, 16, 20] {
            cache.insert("s", &params, &outcome(m));
        }
        cache.save().unwrap();
        cache.evict_half();
        assert_eq!(cache.len(), 3, "5 entries -> keep 3");
        cache.save().unwrap();
        let back = OutcomeCache::load(&path).unwrap();
        assert_eq!(back.len(), 3, "eviction survives reload");
        let mut again = back;
        again.evict_half();
        assert_eq!(again.len(), 2);
        let _ = std::fs::remove_dir_all(&path);
    }

    #[test]
    fn concurrent_appenders_merge_instead_of_clobbering() {
        // The PR-5 era whole-file save meant concurrent writers raced
        // renames: the last complete table won and every other writer's
        // rows were lost. Sharded appends under per-shard locks merge:
        // *all* rows survive, from any number of writers.
        let path = tmp_dir("concurrent");
        let _ = std::fs::remove_dir_all(&path);
        let params = LabParams::mini();
        let writers = 8usize;
        std::thread::scope(|s| {
            for w in 0..writers {
                let path = &path;
                s.spawn(move || {
                    let mut cache = OutcomeCache::load(path).unwrap();
                    // Disjoint rows per writer, all in one scenario so
                    // they contend for the same shard files.
                    cache.insert("race", &params, &outcome(2 + w as u32));
                    cache.insert_probe("race", &params, 11, 0, 2 + w as u32, 0.5, 0.5);
                    for _ in 0..10 {
                        cache.save().expect("concurrent save succeeds");
                    }
                });
            }
        });
        let back = OutcomeCache::load(&path).unwrap();
        assert_eq!(back.len(), writers, "no writer's outcomes were lost");
        assert_eq!(back.probes_len(), writers, "no writer's probes were lost");
        assert_eq!(back.recovered(), 0);
        let _ = std::fs::remove_dir_all(&path);
    }

    #[test]
    fn load_sweeps_old_temps_per_scenario_dir() {
        let path = tmp_dir("sweep");
        let _ = std::fs::remove_dir_all(&path);
        let params = LabParams::mini();
        let mut cache = OutcomeCache::load(&path).unwrap();
        cache.insert("s", &params, &outcome(8));
        cache.save().unwrap();
        let sdir = path.join("s");
        let temp = sdir.join("shard0.jsonl.tmp.123.3");
        let odd = sdir.join("shard0.jsonl.tmp.notapid.1");
        std::fs::write(&temp, "{}").unwrap();
        std::fs::write(&odd, "{}").unwrap();
        // A freshly-written temp might belong to a live in-flight
        // rewrite: the hour-threshold sweep `load` runs leaves it alone.
        let _ = OutcomeCache::load(&path).unwrap();
        assert!(temp.exists(), "fresh temp untouched by load");
        // At age >= 0 the same temp is sweepable; siblings that merely
        // share the prefix shape are never candidates.
        shard::sweep_stale_temps(&sdir, std::time::Duration::ZERO);
        assert!(!temp.exists(), "aged-out temp swept");
        assert!(odd.exists(), "non-temp-shaped sibling untouched");
        let _ = std::fs::remove_dir_all(&path);
    }

    #[test]
    fn load_creates_no_lock_files_for_absent_shards() {
        let path = tmp_dir("readonly-locks");
        let _ = std::fs::remove_dir_all(&path);
        let params = LabParams::mini();
        let mut cache = OutcomeCache::load(&path).unwrap();
        cache.insert("s", &params, &outcome(8));
        cache.save().unwrap();
        let sdir = path.join("s");
        let listing = || -> BTreeSet<String> {
            std::fs::read_dir(&sdir)
                .unwrap()
                .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                .collect()
        };
        // Leave the scenario dir holding only its one shard file.
        let data = listing().into_iter().find(|n| n.ends_with(".jsonl")).unwrap();
        let data_lock = data.replace(".jsonl", ".lock");
        std::fs::remove_file(sdir.join(&data_lock)).unwrap();
        assert_eq!(listing(), BTreeSet::from([data.clone()]));

        let back = OutcomeCache::load(&path).unwrap();
        assert_eq!(back.len(), 1);
        // Only the shard with data was locked (to replay it); no lock
        // file appeared for the absent shards.
        assert_eq!(listing(), BTreeSet::from([data, data_lock]));
        let _ = std::fs::remove_dir_all(&path);
    }

    #[test]
    fn parseable_but_malformed_row_is_an_error_not_a_silent_reset() {
        let path = tmp_dir("corrupt");
        let _ = std::fs::remove_dir_all(&path);
        let sdir = path.join("s");
        std::fs::create_dir_all(&sdir).unwrap();
        // Valid JSON, wrong shape: this was not a torn append, so it is
        // real corruption and must fail loudly.
        std::fs::write(sdir.join("shard0.jsonl"), "{\"k\":\"x\",\"t\":\"mystery\"}\n").unwrap();
        assert!(OutcomeCache::load(&path).is_err());
        let _ = std::fs::remove_dir_all(&path);
    }

    #[test]
    fn load_on_a_regular_file_is_an_error_naming_the_path() {
        let path = tmp_dir("file");
        let _ = std::fs::remove_dir_all(&path);
        std::fs::write(&path, "{}").unwrap();
        let err = OutcomeCache::load(&path).unwrap_err();
        assert!(err.contains(&path.display().to_string()), "{err}");
        assert!(path.is_file(), "the file is left as it was");
        let _ = std::fs::remove_file(&path);
    }
}
