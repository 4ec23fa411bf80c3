//! Multi-process soak: a `#[test]`-spawned fleet of OS processes
//! (re-execs of this very test binary, the pattern minimpi rank tests
//! use in-thread, taken across a real process boundary) running
//! overlapping campaigns and precision hunts against ONE shared cache
//! directory. The fleet must terminate (no deadlock among per-shard
//! advisory locks), lose no rows to concurrent appends, and leave a
//! cache whose warm replay is identical to a cache-less run — the
//! "many clients, one warming database" story, proven end to end.
//!
//! Mechanics: the parent test spawns N children as
//! `current_exe() soak_child --exact --test-threads=1` with the shared
//! cache dir in `RAPTOR_SOAK_DIR`. Without that variable, `soak_child`
//! is an instant no-op, so a normal test run never recurses.

use raptor_lab::{
    find, precision_search, run_campaign, run_resumed, run_study_distributed_resumable,
    CampaignReport, CampaignSpec, CandidateSpec, LabParams, OutcomeCache, Scenario, SearchRow,
    SearchSpec, StudyStats,
};
use bigfloat::Format;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const ENV_DIR: &str = "RAPTOR_SOAK_DIR";
const FLEET: usize = 3;
const SCENARIOS: [&str; 2] = ["ir/horner", "ir/norm3"];

fn soak_campaign_spec() -> CampaignSpec {
    CampaignSpec {
        params: LabParams::mini(),
        candidates: vec![
            CandidateSpec::op(Format::new(11, 24)),
            CandidateSpec::op(Format::new(11, 16)),
            CandidateSpec::op(Format::new(11, 8)),
            CandidateSpec::op(Format::new(11, 4)),
        ],
        fidelity_floor: 0.999,
        workers: 2,
        machine: codesign::Machine::default(),
    }
}

fn soak_search_spec() -> SearchSpec {
    let mut spec = SearchSpec::new(LabParams::mini(), 0.9999);
    spec.cutoffs = vec![0, 1, 2];
    spec.workers = 2;
    spec
}

/// A campaign at `ranks` ranks against the shared cache at `dir`.
fn campaign_resumed(
    scenario: &dyn Scenario,
    spec: &CampaignSpec,
    ranks: usize,
    dir: &Path,
) -> (CampaignReport, StudyStats) {
    let label = format!("campaign:{}", scenario.name());
    run_resumed(Some(dir), &label, ranks, |cache| {
        let (mut study, stats) = run_study_distributed_resumable(&[scenario], spec, ranks, cache);
        (study.scenarios.remove(0), stats)
    })
    .unwrap()
}

/// A precision hunt at `ranks` ranks against the shared cache at `dir`.
fn hunt_resumed(
    scenario: &dyn Scenario,
    spec: &SearchSpec,
    ranks: usize,
    dir: &Path,
) -> (Vec<SearchRow>, StudyStats) {
    let label = format!("hunt:{}", scenario.name());
    run_resumed(Some(dir), &label, ranks, |cache| precision_search(scenario, spec, ranks, cache))
        .unwrap()
}

/// The overlapping workload every fleet member runs: two campaigns and
/// one precision hunt, all against the shared cache. Every member runs
/// the *same* work on purpose — maximal key contention, duplicate
/// appends, and lock pressure; the replay invariant absorbs it all.
#[test]
fn soak_child() {
    let Ok(dir) = std::env::var(ENV_DIR) else { return };
    let dir = PathBuf::from(dir);
    let spec = soak_campaign_spec();
    for name in SCENARIOS {
        let scenario = find(name).unwrap();
        let (report, stats) = campaign_resumed(scenario.as_ref(), &spec, 2, &dir);
        assert_eq!(report.outcomes.len(), 4, "{name}: full lattice");
        assert_eq!(stats.cached + stats.computed, 4, "{name}: every row accounted for");
    }
    let hunt = soak_search_spec();
    let scenario = find(SCENARIOS[0]).unwrap();
    let (rows, stats) = hunt_resumed(scenario.as_ref(), &hunt, 2, &dir);
    assert_eq!(rows.len(), 3, "one row per cutoff");
    assert!(stats.cached + stats.computed > 0, "hunt probed or replayed");
}

#[test]
fn fleet_of_processes_shares_one_cache_without_losing_rows_or_deadlocking() {
    if std::env::var(ENV_DIR).is_ok() {
        return; // never recurse inside a fleet member
    }
    let dir: PathBuf = {
        let mut p = std::env::temp_dir();
        p.push(format!("raptor-soak-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        p
    };
    let exe = std::env::current_exe().unwrap();

    let mut fleet: Vec<std::process::Child> = (0..FLEET)
        .map(|_| {
            std::process::Command::new(&exe)
                .arg("soak_child")
                .arg("--exact")
                .arg("--test-threads=1")
                .env(ENV_DIR, &dir)
                .stdout(std::process::Stdio::null())
                .stderr(std::process::Stdio::null())
                .spawn()
                .expect("spawn fleet member")
        })
        .collect();

    // Watchdog: a lock-order deadlock would hang the fleet forever; a
    // bounded poll converts that into a loud kill + failure instead.
    let deadline = Instant::now() + Duration::from_secs(240);
    let mut exits = vec![None; fleet.len()];
    while exits.iter().any(Option::is_none) {
        for (i, child) in fleet.iter_mut().enumerate() {
            if exits[i].is_none() {
                exits[i] = child.try_wait().expect("wait on fleet member");
            }
        }
        if Instant::now() > deadline {
            for child in &mut fleet {
                let _ = child.kill();
            }
            panic!("fleet deadlocked: exits so far {exits:?}");
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    for (i, status) in exits.iter().enumerate() {
        assert!(status.unwrap().success(), "fleet member {i} failed: {status:?}");
    }

    // No lost rows: the merged cache holds the full lattice for both
    // scenarios and at least the hunt's probe set, with no torn
    // lines left behind.
    let cache = OutcomeCache::load(&dir).unwrap();
    assert_eq!(cache.len(), 2 * 4, "4 candidates x 2 scenarios, no row lost");
    assert_eq!(cache.recovered(), 0, "no torn lines from a healthy fleet");
    let params = LabParams::mini();
    for name in SCENARIOS {
        assert_eq!(cache.baseline(name, &params), Some(1.0), "{name} baseline cached");
    }

    // Merged result identical to a cache-less run: a warm replay of the
    // campaign and the hunt computes nothing and reproduces the
    // cache-less reports byte for byte.
    let spec = soak_campaign_spec();
    for name in SCENARIOS {
        let scenario = find(name).unwrap();
        let plain = run_campaign(scenario.as_ref(), &spec);
        let (warm, stats) = campaign_resumed(scenario.as_ref(), &spec, 1, &dir);
        assert_eq!((stats.cached, stats.computed), (4, 0), "{name}: fully warm");
        assert_eq!(warm.to_json().render(), plain.to_json().render(), "{name}: identical");
        assert_eq!(warm, plain, "{name}: identical (structural)");
    }
    let hunt = soak_search_spec();
    let scenario = find(SCENARIOS[0]).unwrap();
    let (plain_rows, _) = precision_search(scenario.as_ref(), &hunt, 1, None);
    let (warm_rows, hs) = hunt_resumed(scenario.as_ref(), &hunt, 2, &dir);
    assert_eq!(hs.computed, 0, "warm re-hunt performs zero scenario runs");
    assert!(hs.cached > 0);
    assert_eq!(warm_rows, plain_rows, "hunt rows identical to a cache-less hunt");
    let _ = std::fs::remove_dir_all(&dir);
}
