//! Runnable demos for the RAPTOR reproduction — see `src/bin/`:
//! `quickstart`, `sedov_precision_hunt`, `mem_debug`, `bubble_rising`,
//! `codesign_advisor`.
//!
//! `sedov_precision_hunt` and `codesign_advisor` are thin CLI wrappers
//! over the `raptor-lab` campaign engine. Both share one arg contract,
//! parsed by [`parse_lab_args`]:
//!
//! * an optional registry scenario name (e.g. `eos/cellular`);
//! * `--tiny` — the mini scale for CI smoke runs;
//! * `--ranks N` — distribute the work across `N` ranks (worker groups)
//!   of raptor-lab's shared-memory work-stealing task pool (campaign
//!   candidates, study pairs, and individual precision-search probes are
//!   all stolen from one queue; one rank takes the same path); merged
//!   reports are byte-identical at any rank count;
//! * `--resume <dir>` — persist per-candidate outcomes (and, for
//!   precision hunts, per-probe results) to a sharded cache directory so
//!   interrupted or repeated runs restart warm; any number of concurrent
//!   processes share one cache (per-shard advisory locks), and every
//!   resumed run appends its scheduler stats to the
//!   `stats_history.jsonl` inside the cache, rendered by
//!   `codesign_advisor --stats-history <path>`;
//! * `--native` — restrict the lattice to the GPU-native fp32/fp64
//!   hardware path (`raptor_lab::native_candidates`, the §3.6 question);
//! * `--study` — sweep the whole registry into one cross-scenario
//!   codesign table (`codesign_advisor` only);
//! * `--scenarios a,b,c` — restrict a study (or a multi-scenario hunt)
//!   to a comma-separated registry subset, resolved in registry order.

#![forbid(unsafe_code)]

use raptor_lab::{
    find, registry, run_resumed, run_study_distributed_resumable, CampaignReport, CampaignSpec,
    LabParams, Scenario, StudyStats,
};
use std::path::{Path, PathBuf};

/// Parsed arguments of the campaign binaries.
pub struct LabArgs {
    /// The scenario to sweep (single-scenario modes).
    pub scenario: Box<dyn Scenario>,
    /// Whether the scenario name was given on the command line (`false`:
    /// `scenario` is the binary's default). Multi-scenario modes use
    /// this to honor — or refuse — an explicit positional name instead
    /// of silently ignoring it.
    pub named: bool,
    /// Scale knobs (`--tiny` selects the mini scale).
    pub params: LabParams,
    /// Rank (worker-group) count (`--ranks N`, default 1).
    pub ranks: usize,
    /// Outcome-cache directory (`--resume <dir>`), if resuming.
    pub resume: Option<PathBuf>,
    /// Restrict to the GPU-native lattice (`--native`).
    pub native: bool,
    /// Full-registry study mode (`--study`).
    pub study: bool,
    /// Scenario subset for studies and multi-scenario hunts
    /// (`--scenarios a,b,c`), resolved via
    /// [`raptor_lab::study_scenarios`]; `None` means the full registry.
    pub scenarios: Option<String>,
}

/// Parse the campaign binaries' shared CLI: `[scenario-name] [--tiny]
/// [--ranks N] [--resume <path>] [--native] [--study]
/// [--scenarios a,b,c]`. Unknown scenario names print the registry and
/// exit with status 2; malformed flag values exit with status 2 as well.
pub fn parse_lab_args(default_scenario: &str) -> LabArgs {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let tiny = args.iter().any(|a| a == "--tiny");
    let native = args.iter().any(|a| a == "--native");
    let study = args.iter().any(|a| a == "--study");
    let ranks = match flag_value(&args, "--ranks") {
        None => 1,
        Some(v) => v.parse::<usize>().ok().filter(|&n| n >= 1).unwrap_or_else(|| {
            eprintln!("--ranks wants a positive integer, got `{v}`");
            std::process::exit(2);
        }),
    };
    let resume = flag_value(&args, "--resume").map(PathBuf::from);
    let scenarios = flag_value(&args, "--scenarios").map(str::to_string);
    // The scenario name is the first bare arg that is not a flag value.
    let mut skip_next = false;
    let mut name = default_scenario;
    let mut named = false;
    for a in &args {
        if skip_next {
            skip_next = false;
            continue;
        }
        if a == "--ranks" || a == "--resume" || a == "--scenarios" {
            skip_next = true;
        } else if !a.starts_with("--") {
            name = a;
            named = true;
            break;
        }
    }
    let scenario = find(name).unwrap_or_else(|| {
        eprintln!("unknown scenario `{name}`; registered:");
        for s in registry() {
            eprintln!("  {}", s.name());
        }
        std::process::exit(2);
    });
    let params = if tiny { LabParams::mini() } else { LabParams::demo() };
    LabArgs { scenario, named, params, ranks, resume, native, study, scenarios }
}

/// Sweep one scenario's campaign as a one-scenario study across `ranks`
/// ranks, against the `resume` cache directory when one is given (its
/// stats-history row labelled `campaign:<scenario>`).
pub fn campaign(
    scenario: &dyn Scenario,
    spec: &CampaignSpec,
    ranks: usize,
    resume: Option<&Path>,
) -> Result<(CampaignReport, StudyStats), String> {
    let label = format!("campaign:{}", scenario.name());
    run_resumed(resume, &label, ranks, |cache| {
        let (mut study, stats) = run_study_distributed_resumable(&[scenario], spec, ranks, cache);
        (study.scenarios.remove(0), stats)
    })
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
}
