//! Multi-rank acceptance tests: campaigns and precision searches at 1, 2
//! and 3 ranks reproduce the golden single-node reports, lossless
//! outcome JSON round-trips, warm resume with zero candidate re-runs,
//! remainder sharding on the Kelvin–Helmholtz lattice, and label
//! injectivity (the resume/merge key).

mod golden;

use bigfloat::Format;
use golden::mini_spec;
use raptor_core::Json;
use raptor_lab::{
    default_candidates, find, native_candidates, precision_search, run_campaign, run_resumed,
    run_study_distributed_resumable, shear_candidates, CampaignReport, CampaignSpec,
    CandidateOutcome, CandidateSpec, LabParams, OutcomeCache, Scenario, SearchRow, SearchSpec,
    StudyStats,
};
use std::path::{Path, PathBuf};

fn tmp_cache(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("raptor-dist-test-{}-{name}-cache", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

/// A campaign at `ranks` ranks: a one-scenario study.
fn campaign(scenario: &dyn Scenario, spec: &CampaignSpec, ranks: usize) -> CampaignReport {
    run_study_distributed_resumable(&[scenario], spec, ranks, None).0.scenarios.remove(0)
}

/// A campaign at `ranks` ranks against the cache directory at `path`.
fn campaign_resumed(
    scenario: &dyn Scenario,
    spec: &CampaignSpec,
    ranks: usize,
    path: &Path,
) -> (CampaignReport, StudyStats) {
    let label = format!("campaign:{}", scenario.name());
    run_resumed(Some(path), &label, ranks, |cache| {
        let (mut study, stats) = run_study_distributed_resumable(&[scenario], spec, ranks, cache);
        (study.scenarios.remove(0), stats)
    })
    .unwrap()
}

/// A precision search at `ranks` ranks against the cache at `path`.
fn hunt_resumed(
    scenario: &dyn Scenario,
    spec: &SearchSpec,
    ranks: usize,
    path: &Path,
) -> (Vec<SearchRow>, StudyStats) {
    let label = format!("hunt:{}", scenario.name());
    run_resumed(Some(path), &label, ranks, |cache| precision_search(scenario, spec, ranks, cache))
        .unwrap()
}

/// Same candidate labels, fidelities, predicted speedups, and ranking:
/// the rendered JSON compares all of it at once (labels, every f64
/// bit-exactly, and row order).
fn assert_reports_identical(a: &CampaignReport, b: &CampaignReport, what: &str) {
    assert_eq!(a.to_json().render(), b.to_json().render(), "{what}");
    assert_eq!(a, b, "{what} (structural)");
}

#[test]
fn distributed_matches_single_rank_across_three_scenarios() {
    // >= 3 scenarios x ranks in {1, 2, 3}: each campaign must reproduce
    // its section of the golden study. The 3-candidate lattice does not
    // divide evenly by 2 ranks, so remainders are exercised here too.
    let golden = golden::study();
    for name in ["ir/horner", "ir/norm3", "eos/cellular"] {
        let scenario = find(name).unwrap();
        let spec = mini_spec(golden::lattice_3());
        let section = golden.scenario(name).expect("golden section");
        for ranks in [1usize, 2, 3] {
            let merged = campaign(scenario.as_ref(), &spec, ranks);
            golden::assert_campaign(&merged, section, &format!("{name} at {ranks} ranks"));
        }
    }
}

#[test]
fn kelvin_helmholtz_prime_lattice_shards_with_remainders() {
    // The KH scenario's natural lattice has 7 candidates — prime, so no
    // rank count in 2..=6 divides it and the work distribution is always
    // uneven. 7 = 5 static + 2 M-1 rows (KH refines: max_level 2
    // at mini scale, so the cutoff rows survive dedup).
    let scenario = find("hydro/kelvin-helmholtz").unwrap();
    assert_eq!(shear_candidates().len(), 7);
    let spec = mini_spec(shear_candidates());
    let golden = golden::kh_campaign();
    assert_eq!(golden.outcomes.len(), 7, "refinement hierarchy keeps all 7");
    assert_eq!(golden.baseline_fidelity, 1.0);
    for ranks in [1usize, 2, 3] {
        let merged = campaign(scenario.as_ref(), &spec, ranks);
        assert_eq!(
            format!("{}\n", merged.to_json().render()),
            golden::CAMPAIGN_KH_SHEAR,
            "KH at {ranks} ranks"
        );
        golden::assert_campaign(&merged, &golden, &format!("KH at {ranks} ranks"));
    }
}

#[test]
fn outcome_json_round_trips_losslessly() {
    // to_json -> render -> parse -> from_json == original, for op-mode,
    // mem-mode (deviation flags in the report), and error rows alike.
    let scenario = find("eos/cellular").unwrap();
    let spec = mini_spec(vec![
        CandidateSpec::op(Format::new(11, 24)),
        CandidateSpec::op(Format::new(11, 10)).mem(1e-3),
        // Program-scope mem-mode is invalid: produces an error row.
        CandidateSpec::op(Format::new(11, 10)).mem(1e-3).program_scope(),
    ]);
    let report = run_campaign(scenario.as_ref(), &spec);
    assert!(report.outcomes.iter().any(|o| o.error.is_some()), "error row present");
    assert!(
        report.outcomes.iter().any(|o| !o.report.flags.is_empty()),
        "mem-mode flags present"
    );
    for o in &report.outcomes {
        let text = o.to_json().render();
        let back = CandidateOutcome::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(&back, o, "outcome row round-trips: {}", o.spec.label());
    }
    let text = report.to_json().render();
    let back = CampaignReport::from_json(&Json::parse(&text).unwrap()).unwrap();
    assert_eq!(back, report, "whole campaign report round-trips");
}

#[test]
fn resume_serves_cached_rows_and_reruns_only_missing_ones() {
    let scenario = find("ir/horner").unwrap();
    let spec = mini_spec(vec![
        CandidateSpec::op(Format::new(11, 30)),
        CandidateSpec::op(Format::new(11, 16)),
        CandidateSpec::op(Format::new(11, 8)),
        CandidateSpec::op(Format::new(11, 4)),
    ]);
    let path = tmp_cache("resume");

    // Cold run: everything computes.
    let (cold, s1) = campaign_resumed(scenario.as_ref(), &spec, 2, &path);
    assert_eq!((s1.cached, s1.computed), (0, 4));

    // Warm resume of a completed campaign: ZERO candidate re-runs, same
    // report (served entirely from the cache, baseline included).
    let (warm, s2) = campaign_resumed(scenario.as_ref(), &spec, 2, &path);
    assert_eq!((s2.cached, s2.computed), (4, 0));
    assert_reports_identical(&warm, &cold, "warm resume");

    // Evict half: only the evicted half recomputes, and the merged
    // report is still identical to the cold run.
    let mut cache = OutcomeCache::load(&path).unwrap();
    assert_eq!(cache.len(), 4);
    cache.evict_half();
    assert_eq!(cache.len(), 2);
    cache.save().unwrap();
    let (half, s3) = campaign_resumed(scenario.as_ref(), &spec, 3, &path);
    assert_eq!((s3.cached, s3.computed), (2, 2));
    assert_reports_identical(&half, &cold, "half-warm resume");

    // A resumed sweep under a *stricter* floor re-gates cached rows
    // instead of replaying stale verdicts.
    let mut strict = spec.clone();
    strict.fidelity_floor = 1.0;
    let (regated, s4) = campaign_resumed(scenario.as_ref(), &strict, 1, &path);
    assert_eq!(s4.computed, 0, "re-gating needs no re-runs");
    assert!(
        regated.outcomes.iter().all(|o| !o.accepted || o.fidelity >= 1.0),
        "cached rows re-gated against the live floor"
    );

    // Every resumed run appended one history row, labelled as a campaign.
    let records =
        raptor_lab::load_stats_history(&raptor_lab::stats_history_path(&path)).unwrap();
    assert_eq!(records.len(), 4);
    assert!(records.iter().all(|r| r.label == "campaign:ir/horner"), "{:?}", records[0].label);
    let _ = std::fs::remove_dir_all(&path);
}

fn search_spec(floor: f64) -> SearchSpec {
    let mut spec = SearchSpec::new(LabParams::mini(), floor);
    spec.cutoffs = vec![0, 1, 2];
    spec
}

#[test]
fn distributed_precision_search_matches_single_rank() {
    let scenario = find("ir/horner").unwrap();
    let spec = search_spec(0.9999);
    for ranks in [1usize, 2, 3] {
        let (rows, _) = precision_search(scenario.as_ref(), &spec, ranks, None);
        golden::assert_search(
            "ir/horner",
            &rows,
            golden::SEARCH_IR_HORNER,
            &format!("search rows at {ranks} ranks"),
        );
    }
}

#[test]
fn warm_hunt_replays_probes_with_zero_runs() {
    // The acceptance criterion of the probe cache: a warm resume of a
    // completed precision search performs ZERO scenario runs — every
    // probe is served from the cache, the chains drain before the pool
    // starts, and even the baseline reference run is skipped.
    let scenario = find("ir/horner").unwrap();
    let spec = search_spec(0.9999);
    let path = tmp_cache("hunt");

    let (cold, s1) = hunt_resumed(scenario.as_ref(), &spec, 2, &path);
    assert_eq!(s1.cached, 0);
    assert!(s1.computed > 0, "cold hunt computes probes");

    let (warm, s2) = hunt_resumed(scenario.as_ref(), &spec, 3, &path);
    assert_eq!(s2.computed, 0, "warm re-hunt performs zero scenario runs");
    assert_eq!(s2.cached, s1.computed, "every probe served from the cache");
    assert!(s2.pairs_by_rank.iter().all(|&n| n == 0), "{:?}", s2.pairs_by_rank);
    assert_eq!(s2.stealers, 0, "a fully-warm hunt spins up no pool");
    assert_eq!(warm, cold, "warm rows identical to the cold hunt");

    // One rank replays the same cache to the same rows, and both match
    // the golden hunt.
    let (one, s3) = hunt_resumed(scenario.as_ref(), &spec, 1, &path);
    assert_eq!((s3.cached, s3.computed), (s1.computed, 0));
    assert_eq!(one, cold, "one-rank warm replay matches");
    golden::assert_search("ir/horner", &cold, golden::SEARCH_IR_HORNER, "cold hunt");
    let records =
        raptor_lab::load_stats_history(&raptor_lab::stats_history_path(&path)).unwrap();
    assert!(records.iter().all(|r| r.label == "hunt:ir/horner"), "{:?}", records[0].label);
    let _ = std::fs::remove_dir_all(&path);
}

#[test]
fn probe_stealing_balances_skewed_chains_and_matches_serial() {
    // hydro/sedov at mini scale produces deliberately skewed probe
    // chains: M-0 bisects the full mantissa ladder (8 probes) while M-1
    // and M-2 spare the refined levels and finish after their 2 bracket
    // probes. Pinning one whole chain per rank would give [8, 2, 2] at
    // 3 ranks, a spread of 6, because a chain's probes are sequential.
    // Stealing at probe granularity keeps the rows identical to the
    // golden hunt while the sequential tail rotates through parked
    // stealers.
    let scenario = find("hydro/sedov").unwrap();
    let mut spec = search_spec(0.999);
    let golden_rows = golden::search_rows(golden::SEARCH_HYDRO_SEDOV);
    let lengths: Vec<usize> = golden_rows.iter().map(|r| r.probes.len()).collect();
    let total: usize = lengths.iter().sum();
    assert!(
        lengths.iter().max().unwrap() - lengths.iter().min().unwrap() >= 4,
        "chains are skewed enough to matter: {lengths:?}"
    );
    for ranks in [1usize, 2, 3] {
        spec.workers = ranks; // one stealer per rank
        let (rows, stats) = precision_search(scenario.as_ref(), &spec, ranks, None);
        golden::assert_search(
            "hydro/sedov",
            &rows,
            golden::SEARCH_HYDRO_SEDOV,
            &format!("rows at {ranks} ranks"),
        );
        assert_eq!(stats.stealers, ranks);
        assert_eq!((stats.cached, stats.computed), (0, total));
        assert_eq!(stats.pairs_by_rank.len(), ranks);
        assert_eq!(stats.pairs_by_rank.iter().sum::<usize>(), total);
        assert!(
            stats.pairs_by_rank.iter().all(|&n| n >= 1),
            "fair start feeds every rank at {ranks} ranks: {:?}",
            stats.pairs_by_rank
        );
        if ranks == 3 {
            // The bound chain-per-rank pinning deterministically fails:
            // it yields a spread of 6 ([8, 2, 2]); probe stealing must
            // stay well under it.
            let (min, max) = (
                *stats.pairs_by_rank.iter().min().unwrap(),
                *stats.pairs_by_rank.iter().max().unwrap(),
            );
            assert!(
                max - min <= 4,
                "probe stealing beats chain pinning: {:?}",
                stats.pairs_by_rank
            );
        }
    }
}

#[test]
fn distributed_search_handles_empty_and_single_chain_lattices() {
    let scenario = find("ir/horner").unwrap();
    let mut spec = search_spec(0.9999);

    // Empty lattice: nothing to run, no pool, no baseline.
    spec.cutoffs = Vec::new();
    let (rows, stats) = precision_search(scenario.as_ref(), &spec, 2, None);
    assert!(rows.is_empty());
    assert_eq!((stats.cached, stats.computed), (0, 0));
    assert_eq!(stats.pairs_by_rank, vec![0, 0]);

    // Single chain on more stealers than ever-ready probes: the chain's
    // sequential probes drain one at a time and the result still matches
    // the golden M-1 row.
    spec.cutoffs = vec![1];
    let golden_row = golden::search_rows(golden::SEARCH_IR_HORNER)
        .into_iter()
        .find(|r| r.cutoff == 1)
        .unwrap();
    let (rows, stats) = precision_search(scenario.as_ref(), &spec, 3, None);
    assert_eq!(rows, vec![golden_row.clone()]);
    assert_eq!(stats.pairs_by_rank.iter().sum::<usize>(), golden_row.probes.len());
}

#[test]
fn native_lattice_answers_the_gpu_question() {
    // fp64/fp32 on the hardware path only: fp64 rows are exact (identity
    // truncation), and every row runs without error on the native path.
    let scenario = find("ir/horner").unwrap();
    let spec = mini_spec(native_candidates());
    let report = campaign(scenario.as_ref(), &spec, 2);
    // ir has no refinement hierarchy: the M-1 twins dedup away, leaving
    // the two static native rows.
    assert_eq!(report.outcomes.len(), 2);
    for o in &report.outcomes {
        assert!(o.error.is_none(), "{}: {:?}", o.spec.label(), o.error);
        assert!(o.spec.native);
        assert!(o.spec.format.is_native());
        assert!(o.spec.label().contains("native"));
    }
    let fp64 = report.outcomes.iter().find(|o| o.spec.format == Format::FP64).unwrap();
    assert_eq!(fp64.fidelity, 1.0, "fp64 native is the identity");
    // A native-path spec on a non-native format is rejected as an error
    // row, not silently soft-floated.
    let bad = mini_spec(vec![CandidateSpec::op(Format::FP16).native_path()]);
    let r = run_campaign(scenario.as_ref(), &bad);
    assert!(r.outcomes[0].error.is_some());
}

#[test]
fn candidate_labels_are_injective_across_all_shipped_lattices() {
    // The label is the resume/merge key: every distinct spec must render
    // a distinct label. Sweep the shipped lattices plus targeted
    // near-collisions on every axis.
    let mut specs: Vec<CandidateSpec> = Vec::new();
    specs.extend(default_candidates());
    specs.extend(native_candidates());
    specs.extend(shear_candidates());
    // mem thresholds differing only in the threshold.
    specs.push(CandidateSpec::op(Format::new(11, 10)).mem(1e-3));
    specs.push(CandidateSpec::op(Format::new(11, 10)).mem(1e-6));
    specs.push(CandidateSpec::op(Format::new(11, 10)).mem(2.5e-4));
    // op vs mem at the same format.
    specs.push(CandidateSpec::op(Format::new(11, 10)));
    // native vs soft at the same format/cutoff.
    specs.push(CandidateSpec::op(Format::FP32));
    // scope axis.
    specs.push(CandidateSpec::op(Format::new(11, 10)).program_scope());
    // cutoff axis (M-0 is distinct from static).
    specs.push(CandidateSpec::op(Format::new(11, 10)).with_cutoff(0));
    specs.push(CandidateSpec::op(Format::new(11, 10)).with_cutoff(1));
    specs.push(CandidateSpec::op(Format::new(11, 10)).with_cutoff(12));
    // e/m boundary confusion: e11m1 vs e1... (Format forbids e<2, but
    // e2m11 vs e21m1 would collide if tokens concatenated digits).
    specs.push(CandidateSpec::op(Format::new(2, 11)));
    specs.push(CandidateSpec::op(Format::new(11, 2)));

    // Drop exact duplicates the shipped lattices share (e.g. FP32 static
    // appears in both default and shear lattices) — those SHOULD share a
    // label; what must never happen is distinct specs sharing one.
    let mut seen: Vec<(CandidateSpec, String)> = Vec::new();
    for s in specs {
        let label = s.label();
        if let Some((other, _)) = seen.iter().find(|(_, l)| *l == label) {
            assert_eq!(
                other, &s,
                "distinct specs collide on label `{label}`: {other:?} vs {s:?}"
            );
        } else {
            seen.push((s, label));
        }
    }
    assert!(seen.len() >= 25, "lattice coverage: {} distinct labels", seen.len());

    // And the label survives the spec's own JSON round-trip.
    for (s, label) in &seen {
        let back = CandidateSpec::from_json(&Json::parse(&s.to_json().render()).unwrap()).unwrap();
        assert_eq!(&back, s);
        assert_eq!(&back.label(), label);
    }
}
