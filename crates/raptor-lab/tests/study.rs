//! Study-orchestration acceptance tests: the work-stealing merge
//! reproduces the golden study at 1/2/3 ranks, a warm
//! shared-cache resume of a full study performs zero runs, a skewed pair
//! lattice still hands every rank work, and the subset resolver keeps
//! registry order.

mod golden;

use bigfloat::Format;
use raptor_core::Json;
use raptor_lab::{
    run_study_distributed_resumable, run_study_resumed, study_scenarios, CampaignSpec,
    CandidateSpec, LabParams, OutcomeCache, StudyReport,
};
use std::path::PathBuf;

fn mini_spec(candidates: Vec<CandidateSpec>, workers: usize) -> CampaignSpec {
    CampaignSpec {
        params: LabParams::mini(),
        candidates,
        fidelity_floor: 0.999,
        workers,
        machine: codesign::Machine::default(),
    }
}

fn tmp_cache(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("raptor-study-test-{}-{name}-cache", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

/// The acceptance criterion: byte-identical JSON (labels, every f64,
/// section order, ranking order) plus structural equality.
fn assert_studies_identical(a: &StudyReport, b: &StudyReport, what: &str) {
    assert_eq!(a.to_json().render(), b.to_json().render(), "{what}");
    assert_eq!(a, b, "{what} (structural)");
}

#[test]
fn work_stealing_study_matches_single_rank_at_1_2_3_ranks() {
    // >= 3 scenarios spanning two crates; a 3-candidate lattice, so the
    // 9-pair list divides evenly by 3 ranks and unevenly by 2 — every
    // shape must merge byte-identically to the golden study.
    let scenarios = study_scenarios(Some("eos/cellular,ir/horner,ir/norm3")).unwrap();
    assert_eq!(scenarios.len(), 3);
    let spec = golden::mini_spec(golden::lattice_3());
    let golden = golden::study();
    assert_eq!(golden.scenarios.len(), 3);
    assert_eq!(golden.ranking.len(), 3);
    for ranks in [1usize, 2, 3] {
        let (stolen, stats) = run_study_distributed_resumable(&scenarios, &spec, ranks, None);
        golden::assert_study(&stolen, &format!("study at {ranks} ranks"));
        assert_eq!(stats.pairs_by_rank.iter().sum::<usize>(), 9);
    }
}

#[test]
fn study_sections_match_standalone_campaigns() {
    // Each per-scenario section of a study must be exactly what a
    // standalone campaign over that scenario reports.
    let scenarios = study_scenarios(Some("ir/horner,ir/norm3")).unwrap();
    let spec = mini_spec(
        vec![CandidateSpec::op(Format::new(11, 20)), CandidateSpec::op(Format::new(11, 8))],
        4,
    );
    let (study, _) = run_study_distributed_resumable(&scenarios, &spec, 2, None);
    for scenario in &scenarios {
        let standalone = raptor_lab::run_campaign(scenario.as_ref(), &spec);
        let section = study.scenario(scenario.name()).expect("section present");
        assert_eq!(
            section.to_json().render(),
            standalone.to_json().render(),
            "{} section == standalone campaign",
            scenario.name()
        );
    }
}

#[test]
fn warm_resume_of_a_full_study_performs_zero_runs() {
    let scenarios = study_scenarios(Some("eos/cellular,ir/horner,ir/norm3")).unwrap();
    let spec = mini_spec(
        vec![CandidateSpec::op(Format::new(11, 26)), CandidateSpec::op(Format::new(11, 9))],
        4,
    );
    let path = tmp_cache("warm");

    // Cold: every pair computes, spread across the rank pool.
    let (cold, s1) = run_study_resumed(&scenarios, &spec, 2, &path).unwrap();
    assert_eq!((s1.cached, s1.computed), (0, 6));
    assert_eq!(s1.pairs_by_rank.iter().sum::<usize>(), 6, "{:?}", s1.pairs_by_rank);

    // Warm: the whole study is served from the shared cache — zero pair
    // runs, zero baseline runs, and the report is byte-identical.
    let (warm, s2) = run_study_resumed(&scenarios, &spec, 3, &path).unwrap();
    assert_eq!((s2.cached, s2.computed), (6, 0));
    assert!(s2.pairs_by_rank.iter().all(|&n| n == 0), "{:?}", s2.pairs_by_rank);
    assert_studies_identical(&warm, &cold, "warm study resume");

    // Half-evicted: only the evicted pairs recompute; identical merge.
    let mut cache = OutcomeCache::load(&path).unwrap();
    assert_eq!(cache.len(), 6);
    cache.evict_half();
    cache.save().unwrap();
    let (half, s3) = run_study_resumed(&scenarios, &spec, 2, &path).unwrap();
    assert_eq!((s3.cached, s3.computed), (3, 3));
    assert_studies_identical(&half, &cold, "half-warm study resume");
    let _ = std::fs::remove_dir_all(&path);
}

#[test]
fn campaign_and_study_share_one_cache_dir() {
    // A standalone distributed campaign warms the cache; the study then
    // reuses those rows (the key already carries the scenario name) and
    // only computes the other scenario's pairs.
    let spec = mini_spec(
        vec![CandidateSpec::op(Format::new(11, 22)), CandidateSpec::op(Format::new(11, 5))],
        4,
    );
    let path = tmp_cache("shared");
    let horner = raptor_lab::find("ir/horner").unwrap();
    let (_, s) = raptor_lab::run_resumed(Some(&path), "campaign:ir/horner", 2, |cache| {
        run_study_distributed_resumable(&[horner.as_ref()], &spec, 2, cache)
    })
    .unwrap();
    assert_eq!((s.cached, s.computed), (0, 2));

    let scenarios = study_scenarios(Some("ir/horner,ir/norm3")).unwrap();
    let (study, stats) = run_study_resumed(&scenarios, &spec, 2, &path).unwrap();
    assert_eq!((stats.cached, stats.computed), (2, 2), "horner rows reused");
    assert_eq!(study.scenarios.len(), 2);
    let _ = std::fs::remove_dir_all(&path);
}

#[test]
fn consecutive_study_runs_append_distinct_stats_history_rows() {
    // Every resumed run appends exactly one scheduler-stats row to the
    // stats_history.jsonl inside the cache directory — the measurable
    // baseline future scheduler changes are compared against.
    let dir = std::env::temp_dir().join(format!("raptor-study-stats-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("study-cache");

    let scenarios = study_scenarios(Some("ir/horner,ir/norm3")).unwrap();
    let spec = mini_spec(
        vec![CandidateSpec::op(Format::new(11, 21)), CandidateSpec::op(Format::new(11, 10))],
        4,
    );
    let (_, s1) = run_study_resumed(&scenarios, &spec, 2, &path).unwrap();
    let (_, s2) = run_study_resumed(&scenarios, &spec, 3, &path).unwrap();
    // The cache is a directory after the first run; the history lives
    // inside it.
    let hist = raptor_lab::stats_history_path(&path);
    assert_eq!(hist, path.join("stats_history.jsonl"));
    assert_eq!((s1.cached, s1.computed), (0, 4));
    assert_eq!(s1.stealers, 4, "workers >= nranks: the budget is honored");
    assert!(s1.wall_s > 0.0);
    assert_eq!((s2.cached, s2.computed), (4, 0));
    assert_eq!(s2.stealers, 0, "a fully-warm resume spins up no pool");

    let text = std::fs::read_to_string(&hist).unwrap();
    assert_eq!(text.lines().filter(|l| !l.trim().is_empty()).count(), 2, "one line per run");
    let records = raptor_lab::load_stats_history(&hist).unwrap();
    assert_eq!(records.len(), 2);
    assert_eq!((records[0].ranks, records[0].stats.computed), (2, 4), "cold row first");
    assert_eq!((records[1].ranks, records[1].stats.computed), (3, 0), "warm row second");
    assert!(records[0].label.contains("study:2 scenarios"), "{}", records[0].label);
    assert_ne!(records[0], records[1], "consecutive rows are distinct");
    // The rendered trend carries both runs.
    let table = raptor_lab::render_stats_history(&records);
    assert_eq!(table.matches("study:2 scenarios").count(), 2, "{table}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn skewed_lattice_still_feeds_every_rank() {
    // Deliberate cost skew: eos/cellular pairs run orders of magnitude
    // longer than the 16-call IR kernels. With one stealer per rank and
    // a fair-start queue, every rank must still complete >= 1 pair —
    // the static block partition property work stealing must keep.
    let scenarios = study_scenarios(Some("eos/cellular,ir/horner,ir/norm3")).unwrap();
    let spec = mini_spec(
        vec![
            CandidateSpec::op(Format::new(11, 30)),
            CandidateSpec::op(Format::new(11, 14)),
            CandidateSpec::op(Format::new(11, 7)),
        ],
        3, // one stealer per rank at 3 ranks
    );
    let (single, _) = run_study_distributed_resumable(&scenarios, &spec, 1, None);
    for ranks in [2usize, 3] {
        let (stolen, stats) = run_study_distributed_resumable(&scenarios, &spec, ranks, None);
        assert_eq!(stats.pairs_by_rank.len(), ranks);
        assert_eq!(stats.pairs_by_rank.iter().sum::<usize>(), 9);
        assert!(
            stats.pairs_by_rank.iter().all(|&n| n >= 1),
            "every rank stole work at {ranks} ranks: {:?}",
            stats.pairs_by_rank
        );
        // The documented clamp: total stealers = max(workers, nranks),
        // surfaced in the stats rather than silently oversubscribed.
        assert_eq!(stats.stealers, 3usize.max(ranks));
        assert_studies_identical(&stolen, &single, &format!("skewed study at {ranks} ranks"));
    }
}

#[test]
fn study_over_refined_scenarios_keeps_cutoff_pairs() {
    // A study mixing a refined scenario (KH keeps its M-1 rows) with an
    // unrefined one (ir drops them): per-scenario dedup must happen per
    // max_level, not globally.
    let scenarios = study_scenarios(Some("hydro/kelvin-helmholtz,ir/horner")).unwrap();
    let spec = mini_spec(
        vec![
            CandidateSpec::op(Format::FP32),
            CandidateSpec::op(Format::FP32).with_cutoff(1),
        ],
        4,
    );
    let (study, stats) = run_study_distributed_resumable(&scenarios, &spec, 2, None);
    assert_eq!(stats.computed, 3, "2 KH pairs + 1 deduped ir pair");
    let kh = study.scenario("hydro/kelvin-helmholtz").unwrap();
    assert_eq!(kh.outcomes.len(), 2, "refinement hierarchy keeps the M-1 row");
    let ir = study.scenario("ir/horner").unwrap();
    assert_eq!(ir.outcomes.len(), 1, "unrefined scenario dedups the M-1 twin");
}

#[test]
fn study_scenarios_resolves_subsets_in_registry_order() {
    // Full registry by default.
    let all = study_scenarios(None).unwrap();
    assert_eq!(all.len(), raptor_lab::registry().len());

    // Subsets come back in registry order regardless of spelling order.
    let subset = study_scenarios(Some("ir/horner,eos/cellular,hydro/sod")).unwrap();
    let names: Vec<&str> = subset.iter().map(|s| s.name()).collect();
    assert_eq!(names, vec!["hydro/sod", "eos/cellular", "ir/horner"]);

    // Whitespace tolerated; duplicates collapse (registry filter).
    let spaced = study_scenarios(Some(" ir/horner , ir/horner ")).unwrap();
    assert_eq!(spaced.len(), 1);

    // Unknown names and empty subsets are errors that list the registry.
    let err = match study_scenarios(Some("hydro/nope")) {
        Err(e) => e,
        Ok(_) => panic!("unknown scenario accepted"),
    };
    assert!(err.contains("hydro/nope") && err.contains("hydro/sod"), "{err}");
    assert!(study_scenarios(Some("  , ,")).is_err());
}

#[test]
fn study_ranking_is_deterministically_ordered() {
    let scenarios = study_scenarios(Some("eos/cellular,ir/horner,ir/norm3")).unwrap();
    let spec = mini_spec(
        vec![CandidateSpec::op(Format::new(11, 40)), CandidateSpec::op(Format::new(11, 4))],
        4,
    );
    let (study, _) = run_study_distributed_resumable(&scenarios, &spec, 2, None);
    // Sections stay in registry order; the ranking is its own sort.
    let section_names: Vec<&str> =
        study.scenarios.iter().map(|r| r.scenario.as_str()).collect();
    assert_eq!(section_names, vec!["eos/cellular", "ir/horner", "ir/norm3"]);
    // Accepted scenarios strictly before FP64 hold-outs, speedups
    // non-increasing within the accepted prefix.
    let accepted: Vec<bool> = study.ranking.iter().map(|r| r.recommended.is_some()).collect();
    assert!(accepted.windows(2).all(|w| w[0] >= w[1]), "{accepted:?}");
    let speedups: Vec<f64> = study
        .ranking
        .iter()
        .filter(|r| r.recommended.is_some())
        .map(|r| r.predicted_speedup)
        .collect();
    assert!(speedups.windows(2).all(|w| w[0] >= w[1]), "{speedups:?}");
    // JSON round-trip of the merged artifact.
    let text = study.to_json().render();
    let back = StudyReport::from_json(&Json::parse(&text).unwrap()).unwrap();
    assert_eq!(back, study);
    // The markdown table lists every scenario exactly once.
    let md = study.render_markdown();
    for name in &section_names {
        assert_eq!(md.matches(&format!("| {name} |")).count(), 1, "{name} in table");
    }
}
