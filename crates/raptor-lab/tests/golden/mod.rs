//! The golden oracle: reports the retired single-node drivers (serial
//! campaign fan-out, serial study, serial bisection) rendered at commit
//! 1bebe5d, committed as JSON. Every driver run — at any rank count —
//! must reproduce them byte for byte and structurally.
//!
//! * `study_3x3.json`: eos/cellular, ir/horner, ir/norm3 over
//!   [`lattice_3`] at [`mini_spec`];
//! * `campaign_kh_shear.json`: hydro/kelvin-helmholtz over
//!   `shear_candidates()` at [`mini_spec`];
//! * `search_*.json`: `search_to_json` of the M-0..M-2 hunts at the mini
//!   scale (ir/horner at floor 0.9999, hydro/sedov at 0.999).

#![allow(dead_code)]

use bigfloat::Format;
use raptor_core::Json;
use raptor_lab::{
    search_to_json, CampaignReport, CampaignSpec, CandidateSpec, LabParams, SearchRow,
    StudyReport,
};

pub const STUDY_3X3: &str = include_str!("study_3x3.json");
pub const CAMPAIGN_KH_SHEAR: &str = include_str!("campaign_kh_shear.json");
pub const SEARCH_IR_HORNER: &str = include_str!("search_ir_horner.json");
pub const SEARCH_HYDRO_SEDOV: &str = include_str!("search_hydro_sedov.json");

/// The spec every golden campaign and study ran at.
pub fn mini_spec(candidates: Vec<CandidateSpec>) -> CampaignSpec {
    CampaignSpec {
        params: LabParams::mini(),
        candidates,
        fidelity_floor: 0.999,
        workers: 4,
        machine: codesign::Machine::default(),
    }
}

/// The 3-candidate lattice of the golden study.
pub fn lattice_3() -> Vec<CandidateSpec> {
    vec![
        CandidateSpec::op(Format::new(11, 24)),
        CandidateSpec::op(Format::new(11, 12)),
        CandidateSpec::op(Format::new(11, 6)),
    ]
}

fn rendered(doc: Json) -> String {
    format!("{}\n", doc.render())
}

/// The golden study, parsed.
pub fn study() -> StudyReport {
    StudyReport::from_json(&Json::parse(STUDY_3X3).unwrap()).unwrap()
}

/// `report` equals the golden study, rendered and structurally.
pub fn assert_study(report: &StudyReport, what: &str) {
    assert_eq!(rendered(report.to_json()), STUDY_3X3, "{what}");
    assert_eq!(report, &study(), "{what} (structural)");
}

/// `report` equals `golden` (a rendered campaign), rendered and
/// structurally.
pub fn assert_campaign(report: &CampaignReport, golden: &CampaignReport, what: &str) {
    assert_eq!(report.to_json().render(), golden.to_json().render(), "{what}");
    assert_eq!(report, golden, "{what} (structural)");
}

/// The golden KH campaign, parsed.
pub fn kh_campaign() -> CampaignReport {
    CampaignReport::from_json(&Json::parse(CAMPAIGN_KH_SHEAR).unwrap()).unwrap()
}

/// The rows of a golden search file, parsed.
pub fn search_rows(golden: &str) -> Vec<SearchRow> {
    Json::parse(golden)
        .unwrap()
        .arr_field("rows")
        .unwrap()
        .iter()
        .map(|r| SearchRow::from_json(r).unwrap())
        .collect()
}

/// `rows` of a hunt over `scenario` equal the golden file, rendered and
/// structurally.
pub fn assert_search(scenario: &str, rows: &[SearchRow], golden: &str, what: &str) {
    assert_eq!(rendered(search_to_json(scenario, rows)), golden, "{what}");
    assert_eq!(rows, search_rows(golden), "{what} (structural)");
}
