//! Deterministic mini-campaign tests: coarse grids, few steps, fixed
//! candidate lattices — the ISSUE-mandated coverage for the campaign
//! engine (baseline exactness, monotone format-ladder degradation, JSON
//! round-trip), plus ranking and precision-search checks.

use bigfloat::Format;
use raptor_core::Json;
use raptor_lab::{
    find, precision_search, run_campaign, search_to_json, CampaignSpec, CandidateSpec, LabParams,
    SearchSpec,
};

fn mini_spec(candidates: Vec<CandidateSpec>) -> CampaignSpec {
    CampaignSpec {
        params: LabParams::mini(),
        candidates,
        fidelity_floor: 0.999,
        workers: 4,
        machine: codesign::Machine::default(),
    }
}

#[test]
fn baseline_fidelity_is_exactly_one() {
    // Every registered scenario's baseline must score 1.0 against itself:
    // the Tracked run under a passthrough session is bit-identical to the
    // f64 reference, and the fidelity map is exact at zero error. Use the
    // cheap scenarios for the full sweep; the campaign test below covers
    // a hydro baseline.
    let p = LabParams::mini();
    for name in ["ir/horner", "ir/norm3", "eos/cellular"] {
        let sc = find(name).unwrap();
        let base = sc.build(&p).run(&raptor_core::Session::passthrough());
        assert_eq!(
            sc.fidelity(&base, &base),
            1.0,
            "{name} baseline must be exact"
        );
    }
}

#[test]
fn sod_campaign_monotone_ladder_and_json_round_trip() {
    // (a) baseline fidelity == 1.0, (b) fidelity degrades monotonically
    // down the mantissa ladder, (c) the JSON summary parses back.
    let scenario = find("hydro/sod").unwrap();
    let ladder = [30u32, 12, 4];
    let spec = mini_spec(
        ladder
            .iter()
            .map(|&m| CandidateSpec::op(Format::new(11, m)))
            .collect(),
    );
    let report = run_campaign(scenario.as_ref(), &spec);
    assert_eq!(report.baseline_fidelity, 1.0);
    assert_eq!(report.outcomes.len(), 3);

    // Recover per-mantissa fidelities (ranking may reorder).
    let fid = |m: u32| {
        report
            .outcomes
            .iter()
            .find(|o| o.spec.format.man_bits() == m)
            .unwrap()
            .fidelity
    };
    let (f30, f12, f4) = (fid(30), fid(12), fid(4));
    assert!(
        f30 > f12 && f12 > f4,
        "monotone down the ladder: {f30} > {f12} > {f4}"
    );
    assert!(f30 < 1.0, "even 30 bits deviates: {f30}");
    assert!(f30 > 0.999, "30 bits is close: {f30}");

    // Counters flowed: truncated work happened in every candidate.
    for o in &report.outcomes {
        assert!(o.error.is_none());
        assert!(o.counters.trunc.total() > 0, "{}", o.spec.label());
        assert!(o.predicted_speedup >= 1.0);
    }

    // JSON round-trip through the shared serializer.
    let text = report.to_json().render();
    let back = Json::parse(&text).expect("campaign JSON parses back");
    assert_eq!(back.get("scenario").unwrap().as_str(), Some("hydro/sod"));
    assert_eq!(back.get("baseline_fidelity").unwrap().as_f64(), Some(1.0));
    let cands = back.get("candidates").unwrap().as_arr().unwrap();
    assert_eq!(cands.len(), 3);
    for c in cands {
        assert!(c.get("fidelity").unwrap().as_f64().is_some());
        assert!(c.get("accepted").unwrap().as_bool().is_some());
        // The embedded per-candidate report carries full counters.
        let counters = c.get("report").unwrap().get("counters").unwrap();
        assert!(counters.get("trunc").unwrap().get("total").unwrap().as_f64().unwrap() > 0.0);
    }
}

#[test]
fn default_sweep_runs_twelve_configs_in_parallel_and_ranks() {
    // The acceptance-criteria shape: one campaign call, >= 12 configs on
    // the worker pool, ranked by (fidelity gate, predicted speedup).
    let scenario = find("hydro/sedov").unwrap();
    let mut spec = CampaignSpec::sweep(LabParams::mini());
    spec.fidelity_floor = 0.999;
    spec.workers = 8;
    assert!(spec.candidates.len() >= 12);
    let report = run_campaign(scenario.as_ref(), &spec);
    assert_eq!(report.outcomes.len(), spec.candidates.len());
    assert_eq!(report.baseline_fidelity, 1.0);

    // Ranking invariants: accepted block first, sorted by predicted
    // speedup; then rejected, sorted by fidelity.
    let first_rejected = report
        .outcomes
        .iter()
        .position(|o| !o.accepted)
        .unwrap_or(report.outcomes.len());
    for o in &report.outcomes[..first_rejected] {
        assert!(o.accepted);
    }
    for o in &report.outcomes[first_rejected..] {
        assert!(!o.accepted, "accepted candidate ranked below a rejected one");
    }
    for w in report.outcomes[..first_rejected].windows(2) {
        assert!(
            w[0].predicted_speedup >= w[1].predicted_speedup,
            "accepted block ordered by speedup"
        );
    }
    for w in report.outcomes[first_rejected..].windows(2) {
        assert!(w[0].fidelity >= w[1].fidelity, "rejected block ordered by fidelity");
    }

    // The wide static FP32 config must clear the floor on a mini Sedov;
    // static fp8 must not (0.98 fidelity: the blast front degrades).
    let by_label = |label: &str| report.outcomes.iter().find(|o| o.spec.label() == label);
    assert!(by_label("e8m23 op regions").unwrap().accepted);
    assert!(!by_label("e5m2 op regions").unwrap().accepted);

    // The human table renders every row.
    let table = report.render_table();
    assert_eq!(table.lines().count(), 2 + report.outcomes.len());
    assert!(table.contains("OK") && table.contains("too coarse"));
}

#[test]
fn cutoff_candidates_truncate_less_and_score_at_least_as_well() {
    // M-1 spares the finest level: lower truncated fraction, fidelity no
    // worse (the Fig. 7a shape), and a smaller predicted speedup.
    let scenario = find("hydro/sedov").unwrap();
    let fmt = Format::new(11, 8);
    let spec = mini_spec(vec![
        CandidateSpec::op(fmt),
        CandidateSpec::op(fmt).with_cutoff(1),
    ]);
    let report = run_campaign(scenario.as_ref(), &spec);
    let m0 = report.outcomes.iter().find(|o| o.spec.cutoff.is_none()).unwrap();
    let m1 = report.outcomes.iter().find(|o| o.spec.cutoff == Some(1)).unwrap();
    assert!(
        m1.counters.truncated_fraction() < m0.counters.truncated_fraction(),
        "M-1 truncates less: {} vs {}",
        m1.counters.truncated_fraction(),
        m0.counters.truncated_fraction()
    );
    assert!(
        m1.fidelity >= m0.fidelity * 0.999,
        "sparing the finest level does not hurt: {} vs {}",
        m1.fidelity,
        m0.fidelity
    );
    assert!(m1.predicted_speedup <= m0.predicted_speedup * 1.001);
}

#[test]
fn eos_campaign_reproduces_hypothesis_two() {
    // Truncating the table EOS: wide mantissas converge, 20 bits breaks
    // the Newton inversion and craters fidelity (§6.1's falsification).
    let scenario = find("eos/cellular").unwrap();
    let spec = mini_spec(vec![
        CandidateSpec::op(Format::new(11, 48)),
        CandidateSpec::op(Format::new(11, 20)),
    ]);
    let report = run_campaign(scenario.as_ref(), &spec);
    let f48 = report.outcomes.iter().find(|o| o.spec.format.man_bits() == 48).unwrap();
    let f20 = report.outcomes.iter().find(|o| o.spec.format.man_bits() == 20).unwrap();
    assert!(f48.fidelity > 0.999, "48-bit EOS is fine: {}", f48.fidelity);
    assert!(
        f20.fidelity < f48.fidelity,
        "20-bit EOS visibly worse: {} vs {}",
        f20.fidelity,
        f48.fidelity
    );
}

#[test]
fn precision_search_finds_minimal_safe_mantissa() {
    // Greedy refinement on the IR kernel: cheap, deterministic, and the
    // bisection invariants are easy to assert.
    let scenario = find("ir/horner").unwrap();
    let mut spec = SearchSpec::new(LabParams::mini(), 0.9999);
    spec.cutoffs = vec![0, 1];
    let (rows, _) = precision_search(scenario.as_ref(), &spec, 1, None);
    assert_eq!(rows.len(), 2);
    for row in &rows {
        let m = row.minimal_m.expect("52 bits is plenty for Horner");
        assert!(
            (2..=52).contains(&m),
            "minimal mantissa in range: {m} (cutoff {})",
            row.cutoff
        );
        assert!(row.fidelity >= spec.fidelity_floor);
        // Bisection, not enumeration: probes are logarithmic in the range.
        assert!(row.probes.len() <= 9, "{} probes", row.probes.len());
        // Minimality: every failing probe is narrower than the answer.
        for &(pm, pf) in &row.probes {
            if pf < spec.fidelity_floor {
                assert!(pm < m, "probe {pm} failed but answer is {m}");
            }
        }
    }
    // JSON emitter round-trips.
    let doc = search_to_json(scenario.name(), &rows);
    let back = Json::parse(&doc.render()).unwrap();
    assert_eq!(back.get("rows").unwrap().as_arr().unwrap().len(), 2);
}

#[test]
fn mem_mode_candidate_runs_through_the_campaign() {
    // The mode axis: a mem-mode candidate on the hydro scenario produces
    // a report with deviation flags, through the same campaign path.
    let scenario = find("hydro/sod").unwrap();
    let spec = mini_spec(vec![CandidateSpec::op(Format::new(11, 10)).mem(1e-3)]);
    let report = run_campaign(scenario.as_ref(), &spec);
    let o = &report.outcomes[0];
    assert!(o.error.is_none(), "mem-mode candidate ran: {:?}", o.error);
    assert!(o.fidelity > 0.0 && o.fidelity < 1.0);
    assert!(!o.report.flags.is_empty(), "mem-mode flags collected");
    // Program-scope mem-mode is rejected per Fig. 2b and reported as an
    // error row instead of panicking the campaign.
    let bad = mini_spec(vec![CandidateSpec::op(Format::new(11, 10)).mem(1e-3).program_scope()]);
    let report = run_campaign(scenario.as_ref(), &bad);
    assert!(report.outcomes[0].error.is_some());
    assert!(!report.outcomes[0].accepted);
}
