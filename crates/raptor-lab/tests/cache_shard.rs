//! Sharded-cache invariants under fire: crash consistency (torn last
//! lines from killed writers), randomized interleavings of
//! insert/save/load/evict against an in-memory model (seeded SplitMix64,
//! same style as `raptor-core/tests/fastpath.rs`), probe-key
//! injectivity, and the PR-5 multi-process clobber regression under the
//! per-shard locking.

use bigfloat::Format;
use raptor_core::{Counters, Report};
use raptor_lab::{CandidateOutcome, CandidateSpec, LabParams, OutcomeCache};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// SplitMix64: deterministic, well-distributed 64-bit stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

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

fn tmp_cache(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("raptor-shard-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

/// Every `shard*.jsonl` file under the cache dir, recursively.
fn shard_files(cache: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(cache).unwrap().flatten() {
        let p = entry.path();
        if p.is_dir() {
            for f in std::fs::read_dir(&p).unwrap().flatten() {
                let name = f.file_name().to_string_lossy().into_owned();
                if name.starts_with("shard") && name.ends_with(".jsonl") {
                    files.push(f.path());
                }
            }
        }
    }
    files.sort();
    files
}

#[test]
fn torn_last_lines_are_absorbed_counted_and_repaired_by_the_next_append() {
    let path = tmp_cache("torn");
    let params = LabParams::mini();
    let mut cache = OutcomeCache::load(&path).unwrap();
    for m in [4u32, 8, 12, 16, 20, 24] {
        cache.insert("s", &params, &outcome(m));
    }
    cache.set_baseline("s", &params, 1.0);
    cache.save().unwrap();

    // Simulate a writer killed mid-append in EVERY populated shard: a
    // strict prefix of a JSON object, no trailing newline.
    use std::io::Write;
    let files = shard_files(&path);
    assert!(!files.is_empty());
    for f in &files {
        let mut fh = std::fs::OpenOptions::new().append(true).open(f).unwrap();
        fh.write_all(b"{\"k\":\"s|scale0|threads1|e11m99 op\",\"t\":\"outco").unwrap();
    }

    // Load absorbs every torn tail — nothing lost, one recovered count
    // per fragment, no error.
    let back = OutcomeCache::load(&path).unwrap();
    assert_eq!(back.recovered(), files.len(), "one absorbed line per torn shard");
    assert_eq!(back.len(), 6, "no completed row lost to the torn tails");
    assert_eq!(back.baseline("s", &params), Some(1.0));

    // A subsequent append repairs its shard: the fragment is quarantined
    // onto its own line, so every shard file ends in a newline again and
    // the freshly appended rows replay.
    let mut writer = OutcomeCache::load(&path).unwrap();
    for m in 2u32..=30 {
        writer.insert("s", &params, &outcome(m));
    }
    writer.save().unwrap();
    for f in shard_files(&path) {
        let bytes = std::fs::read(&f).unwrap();
        assert_eq!(*bytes.last().unwrap(), b'\n', "{} repaired by append", f.display());
    }
    let repaired = OutcomeCache::load(&path).unwrap();
    assert_eq!(repaired.len(), 29, "old and new rows all replay");
    assert_eq!(repaired.recovered(), files.len(), "fragments still absorbed, not lost");

    // Compaction drops the debris for good.
    let mut compacted = OutcomeCache::load(&path).unwrap();
    compacted.compact().unwrap();
    let clean = OutcomeCache::load(&path).unwrap();
    assert_eq!(clean.recovered(), 0, "compaction scrubbed the torn fragments");
    assert_eq!(clean.len(), 29);
    let _ = std::fs::remove_dir_all(&path);
}

#[test]
fn random_interleavings_of_insert_save_load_evict_round_trip_exactly() {
    // Drive the cache with a seeded random op stream and mirror every op
    // in a plain in-memory model; after every save+reload the cache must
    // agree with the model exactly. Eviction keeps the first, third, ...
    // key in sorted order — mirrored literally in the model.
    let path = tmp_cache("prop");
    let scenarios = ["a", "b/c", "d"];
    let params = LabParams::mini();
    let mut rng = Rng(0x5EED_CAFE);
    let mut model: BTreeMap<(usize, u32), CandidateOutcome> = BTreeMap::new();
    let model_key =
        |si: usize, m: u32| format!("{}|scale0|threads1|{}", scenarios[si], outcome(m).spec.label());

    let mut cache = OutcomeCache::load(&path).unwrap();
    for _ in 0..200 {
        match rng.below(10) {
            // insert: 6/10
            0..=5 => {
                let si = rng.below(scenarios.len() as u64) as usize;
                let m = 2 + rng.below(51) as u32;
                cache.insert(scenarios[si], &params, &outcome(m));
                model.insert((si, m), outcome(m));
            }
            // save: 2/10
            6 | 7 => cache.save().unwrap(),
            // save + reload: 1/10
            8 => {
                cache.save().unwrap();
                cache = OutcomeCache::load(&path).unwrap();
            }
            // evict_half (then save, so the reload path sees it): 1/10
            _ => {
                cache.evict_half();
                let keys: Vec<String> =
                    model.keys().map(|&(si, m)| model_key(si, m)).collect();
                let mut sorted = keys;
                sorted.sort();
                let drop: Vec<String> =
                    sorted.iter().skip(1).step_by(2).cloned().collect();
                model.retain(|&(si, m), _| !drop.contains(&model_key(si, m)));
                cache.save().unwrap();
            }
        }
    }
    cache.save().unwrap();

    let back = OutcomeCache::load(&path).unwrap();
    assert_eq!(back.recovered(), 0);
    assert_eq!(back.len(), model.len(), "row count matches the model");
    for (&(si, m), expected) in &model {
        let spec = CandidateSpec::op(Format::new(11, m));
        assert_eq!(
            back.get(scenarios[si], &params, &spec),
            Some(expected),
            "model row {si}/{m} round-trips"
        );
    }
    let _ = std::fs::remove_dir_all(&path);
}

#[test]
fn probe_keys_stay_injective_across_randomized_draws() {
    // Encode each probe's identity into its stored values; if two
    // distinct (scenario, cutoff, m) points ever shared a cache slot,
    // at least one readback would return the other's encoding.
    let path = tmp_cache("probes");
    let scenarios = ["a", "b/c"];
    let params = LabParams::mini();
    let mut rng = Rng(0xD15C_0B15);
    let mut drawn: BTreeMap<(usize, u32, u32), f64> = BTreeMap::new();
    let mut cache = OutcomeCache::load(&path).unwrap();
    for _ in 0..300 {
        let si = rng.below(scenarios.len() as u64) as usize;
        let cutoff = rng.below(4) as u32;
        let m = 2 + rng.below(51) as u32;
        // The identity encoding: distinct points, distinct fidelity.
        let ident = si as f64 * 1e6 + cutoff as f64 * 1e3 + m as f64;
        cache.insert_probe(scenarios[si], &params, 11, cutoff, m, ident, ident + 0.5);
        drawn.insert((si, cutoff, m), ident);
    }
    cache.save().unwrap();

    let back = OutcomeCache::load(&path).unwrap();
    assert_eq!(back.probes_len(), drawn.len(), "distinct draws, distinct rows");
    for (&(si, cutoff, m), &ident) in &drawn {
        assert_eq!(
            back.get_probe(scenarios[si], &params, 11, cutoff, m),
            Some((ident, ident + 0.5)),
            "probe ({si},{cutoff},{m}) reads back its own encoding"
        );
    }
    // Probe keys never leak into the outcome or baseline namespaces.
    assert_eq!(back.len(), 0);
    assert_eq!(back.baseline(scenarios[0], &params), None);
    let _ = std::fs::remove_dir_all(&path);
}

#[test]
fn concurrent_eviction_and_appends_lose_no_foreign_rows() {
    // The PR-5 clobber shape, rerun against the sharded layout: one
    // writer compacts (evict_half rewrites shards) while others append.
    // Under per-shard locks the rewrite replays the live file and adopts
    // foreign rows, so the appenders' work survives the compaction.
    let path = tmp_cache("clobber");
    let params = LabParams::mini();
    let mut seed = OutcomeCache::load(&path).unwrap();
    for m in [4u32, 8, 12, 16] {
        seed.insert("base", &params, &outcome(m));
    }
    seed.save().unwrap();

    // The evictor loads before any appender starts, so it holds exactly
    // the 4 seeded rows. Loaded later, the rows of appenders that had
    // already saved would be in its key set, and `evict_half` could
    // legitimately tombstone them.
    let mut evictor = OutcomeCache::load(&path).unwrap();
    std::thread::scope(|s| {
        // The evictor: evicts 2 of the 4 seeded rows, compacts.
        s.spawn(move || {
            evictor.evict_half();
            evictor.save().unwrap();
        });
        // Appenders: fresh rows the evictor has never seen.
        for w in 0..4u32 {
            let path = &path;
            s.spawn(move || {
                let mut appender = OutcomeCache::load(path).unwrap();
                appender.insert("fresh", &params, &outcome(30 + w));
                appender.save().unwrap();
            });
        }
    });

    let back = OutcomeCache::load(&path).unwrap();
    let fresh_present = (0..4u32)
        .filter(|w| {
            back.get("fresh", &params, &CandidateSpec::op(Format::new(11, 30 + w))).is_some()
        })
        .count();
    assert_eq!(fresh_present, 4, "no appender's row was clobbered by the compaction");
    assert_eq!(back.recovered(), 0, "no torn lines under concurrency");
    let _ = std::fs::remove_dir_all(&path);
}
