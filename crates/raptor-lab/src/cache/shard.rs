//! The sharded on-disk layout: per-scenario directories of append-only
//! JSONL shard files, with content-addressed row placement.
//!
//! ```text
//! cache_dir/
//!   stats_history.jsonl          (scheduler stats, one line per run)
//!   hydro__sod/                  (scenario dir: `/` -> `__`)
//!     shard0.jsonl  shard0.lock
//!     shard1.jsonl  shard1.lock
//!     ...
//!   ir__horner/
//!     ...
//! ```
//!
//! A row's home shard is a pure function of its key —
//! `fnv1a64(key) % N_SHARDS` — so every appender, in every process,
//! agrees on where a row lives without coordination ("content-addressed"
//! placement). Every read or write of a shard file is a method of the
//! held [`ShardLock`] ([`super::lock`]). Writers *append* one compact
//! JSON line per row; nobody rewrites the file on the hot path, so
//! concurrent campaigns merge instead of clobbering.
//!
//! **Replay invariant.** Loading replays every line of every shard in
//! file order; for a repeated key the *last* line wins. Keys are
//! injective over their row's identity ([`crate::CandidateSpec::label`]
//! for outcomes, the probe schema for probes), so last-writer-wins can
//! only ever replace a row with a row of the same identity — duplicate
//! appends from overlapping campaigns are absorbed, not corrupting. A
//! line that does not parse as JSON is a *torn* append from a writer
//! killed mid-`write` — it is counted and skipped, never an error, and
//! the next appender starts on a fresh line (see [`ShardLock::append`]),
//! so one crash cannot poison a shard. A line that parses but has the wrong
//! shape is real corruption and is a loud error.

use super::lock::ShardLock;
use crate::campaign::CandidateOutcome;
use raptor_core::Json;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Shards per scenario directory. Small on purpose: shards bound lock
/// contention (concurrent appenders to one scenario collide only
/// 1/N_SHARDS of the time), not capacity.
pub(crate) const N_SHARDS: usize = 4;

/// FNV-1a 64-bit — the content address of a row key.
pub(crate) fn fnv1a64(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The home shard of a key.
pub(crate) fn shard_of(key: &str) -> usize {
    (fnv1a64(key) % N_SHARDS as u64) as usize
}

/// The scenario component of a row key (everything before the first
/// `|`). Scenario names never contain `|` — the registry owns them.
pub(crate) fn scenario_of(key: &str) -> &str {
    key.split('|').next().unwrap_or(key)
}

/// Directory name of a scenario: `/` becomes `__` so `hydro/sod` maps to
/// one path component. The mapping need not be injective for
/// correctness — rows carry their full keys, so co-located scenarios
/// could never corrupt each other — it only partitions files for humans
/// and locks.
pub(crate) fn dir_name(scenario: &str) -> String {
    scenario.replace('/', "__")
}

/// The data file of shard `shard` in a scenario directory.
pub(super) fn shard_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard{shard}.jsonl"))
}

/// One replayable row of a shard file.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Row {
    /// A candidate outcome (`t: "outcome"`).
    Outcome { key: String, outcome: Box<CandidateOutcome> },
    /// A campaign's baseline self-fidelity (`t: "baseline"`).
    Baseline { key: String, fidelity: f64 },
    /// A bisection probe result (`t: "probe"`).
    Probe { key: String, fidelity: f64, truncated_fraction: f64 },
}

impl Row {
    pub(crate) fn key(&self) -> &str {
        match self {
            Row::Outcome { key, .. } | Row::Baseline { key, .. } | Row::Probe { key, .. } => key,
        }
    }

    /// One compact JSON line (no interior newlines — the framing is the
    /// newline).
    pub(crate) fn to_line(&self) -> String {
        let doc = match self {
            Row::Outcome { key, outcome } => Json::obj()
                .set("k", key.as_str())
                .set("t", "outcome")
                .set("o", outcome.to_json()),
            Row::Baseline { key, fidelity } => Json::obj()
                .set("k", key.as_str())
                .set("t", "baseline")
                .set("fidelity", Json::from_f64_lossless(*fidelity)),
            Row::Probe { key, fidelity, truncated_fraction } => Json::obj()
                .set("k", key.as_str())
                .set("t", "probe")
                .set("fidelity", Json::from_f64_lossless(*fidelity))
                .set("truncated_fraction", Json::from_f64_lossless(*truncated_fraction)),
        };
        doc.render_compact()
    }

    /// Parse one shard line. A schema mismatch here is corruption (the
    /// line parsed as JSON, so it was not torn) and is an error.
    pub(crate) fn from_json(doc: &Json) -> Result<Row, String> {
        let key = doc.str_field("k")?.to_string();
        match doc.str_field("t")? {
            "outcome" => Ok(Row::Outcome {
                key,
                outcome: Box::new(CandidateOutcome::from_json(doc.req("o")?)?),
            }),
            "baseline" => Ok(Row::Baseline { key, fidelity: doc.f64_field_lossless("fidelity")? }),
            "probe" => Ok(Row::Probe {
                key,
                fidelity: doc.f64_field_lossless("fidelity")?,
                truncated_fraction: doc.f64_field_lossless("truncated_fraction")?,
            }),
            other => Err(format!("unknown cache row type `{other}`")),
        }
    }
}

/// The replay of one shard file: its rows in append order, plus how many
/// torn lines were absorbed.
pub(crate) struct Replay {
    pub(crate) rows: Vec<Row>,
    pub(crate) recovered: usize,
}

fn parse_lines(text: &str, path: &Path) -> Result<Replay, String> {
    let mut rows = Vec::new();
    let mut recovered = 0usize;
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match Json::parse(line) {
            // Unparseable = a torn append from a killed writer (a strict
            // prefix of a JSON object never balances its braces): absorb.
            Err(_) => recovered += 1,
            Ok(doc) => rows
                .push(Row::from_json(&doc).map_err(|e| format!("{}: {e}", path.display()))?),
        }
    }
    Ok(Replay { rows, recovered })
}

impl ShardLock<'_> {
    fn path(&self) -> PathBuf {
        shard_path(&self.dir, self.shard)
    }

    /// Replay the shard — a consistent snapshot even while appenders are
    /// live (an in-flight append either committed before we took the
    /// lock or starts after we release it). A missing file replays empty.
    pub(crate) fn replay(&self) -> Result<Replay, String> {
        let path = self.path();
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(Replay { rows: Vec::new(), recovered: 0 })
            }
            Err(e) => return Err(format!("read {}: {e}", path.display())),
        };
        parse_lines(&text, &path)
    }

    /// Append pre-rendered row lines to the shard.
    ///
    /// If the file does not end in a newline — the signature of a writer
    /// killed mid-append — a newline is prepended first, so the torn
    /// fragment stays its own (absorbable) line instead of gluing onto
    /// our first row. This is how a single append *repairs* a crashed
    /// shard: the debris is quarantined immediately and dropped for good
    /// at the next compaction.
    pub(crate) fn append(&self, lines: &[String]) -> Result<(), String> {
        let path = self.path();
        let needs_newline = match std::fs::File::open(&path) {
            Ok(mut f) => {
                let len =
                    f.metadata().map_err(|e| format!("stat {}: {e}", path.display()))?.len();
                if len == 0 {
                    false
                } else {
                    f.seek(SeekFrom::End(-1))
                        .map_err(|e| format!("seek {}: {e}", path.display()))?;
                    let mut last = [0u8; 1];
                    f.read_exact(&mut last)
                        .map_err(|e| format!("read {}: {e}", path.display()))?;
                    last[0] != b'\n'
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => false,
            Err(e) => return Err(format!("open {}: {e}", path.display())),
        };
        let mut buf = String::new();
        if needs_newline {
            buf.push('\n');
        }
        for line in lines {
            debug_assert!(!line.contains('\n'), "rows are single lines");
            buf.push_str(line);
            buf.push('\n');
        }
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| format!("append-open {}: {e}", path.display()))?;
        file.write_all(buf.as_bytes()).map_err(|e| format!("append {}: {e}", path.display()))
    }

    /// Replace the shard's contents with `lines`, atomically (unique
    /// temp + rename). Callers replay, merge and replace under one guard,
    /// so no append can slip between what the replay saw and what the
    /// rename installs.
    pub(crate) fn replace(&self, lines: &[String]) -> Result<(), String> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static REWRITE_SEQ: AtomicU64 = AtomicU64::new(0);
        let path = self.path();
        let seq = REWRITE_SEQ.fetch_add(1, Ordering::Relaxed);
        let tmp =
            self.dir.join(format!("shard{}.jsonl.tmp.{}.{seq}", self.shard, std::process::id()));
        let mut text = String::new();
        for line in lines {
            text.push_str(line);
            text.push('\n');
        }
        std::fs::write(&tmp, text).map_err(|e| format!("write {}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, &path).map_err(|e| {
            let _ = std::fs::remove_file(&tmp);
            format!("rename {} -> {}: {e}", tmp.display(), path.display())
        })
    }
}

/// Best-effort removal of compaction temps orphaned by a crashed
/// rewriter, swept per scenario directory on load. Temp names are
/// `shardK.jsonl.tmp.<pid>.<seq>`; anything younger than `older_than`
/// might be a live rewrite's in-flight temp (file age stays meaningful
/// across PID namespaces and shared filesystems, unlike pid liveness)
/// and is left alone.
pub(crate) fn sweep_stale_temps(dir: &Path, older_than: std::time::Duration) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some((_, rest)) = name.split_once(".jsonl.tmp.") else { continue };
        let Some((pid, seq)) = rest.split_once('.') else { continue };
        if pid.parse::<u32>().is_err() || seq.parse::<u64>().is_err() {
            continue;
        }
        let stale = entry
            .metadata()
            .and_then(|m| m.modified())
            .ok()
            .and_then(|mtime| std::time::SystemTime::now().duration_since(mtime).ok())
            .is_some_and(|age| age >= older_than);
        if stale {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}
