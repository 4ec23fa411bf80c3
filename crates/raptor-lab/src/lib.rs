//! # raptor-lab — the unified scenario layer and campaign engine
//!
//! The paper's headline result is not a single truncated run but a
//! *sweep*: many (scope, format, mode, AMR-cutoff) configurations
//! evaluated per workload, quality-of-result metrics deciding which
//! truncations are safe, and the §7.2 co-design model ranking the
//! survivors by predicted speedup. This crate turns that methodology
//! into two layers:
//!
//! * the [`Scenario`] trait + [`registry()`] — every workload crate
//!   (hydro, incomp, eos, raptor-ir) behind one `build → run(&Session) →
//!   fidelity` contract;
//! * two drivers on one executor, a work-stealing pool of stealer
//!   threads in `nranks` worker groups, at any rank count including 1:
//!   the sweep driver [`run_study_distributed_resumable`] (a campaign is a
//!   one-scenario study) and the search driver [`precision_search`].
//!
//! ## Running campaigns
//!
//! An enumerative sweep — 12 default configurations (format ladder ×
//! static/M-1 cutoff), each one task on the pool, ranked by
//! fidelity-gated predicted speedup. Scenarios without a refinement
//! hierarchy (like the IR kernels here) keep only the 6 static
//! configurations — their M-1 twins would be bit-identical duplicates and
//! are dropped:
//!
//! ```
//! use raptor_lab::{find, run_campaign, CampaignSpec, LabParams};
//!
//! let scenario = find("ir/horner").expect("registered");
//! let spec = CampaignSpec::sweep(LabParams::mini());
//! assert_eq!(spec.candidates.len(), 12);
//! let report = run_campaign(scenario.as_ref(), &spec);
//!
//! assert_eq!(report.baseline_fidelity, 1.0);
//! assert_eq!(report.outcomes.len(), 6); // unrefined: cutoffs deduped
//! println!("{}", report.render_table());          // human table
//! let json = report.to_json().render();           // machine summary
//! assert!(raptor_core::Json::parse(&json).is_ok());
//! ```
//!
//! A greedy precision hunt — per M-l cutoff, bisect for the minimal
//! mantissa width whose fidelity clears the floor, every bisection probe
//! one task:
//!
//! ```no_run
//! use raptor_lab::{find, precision_search, LabParams, SearchSpec};
//!
//! let scenario = find("hydro/sedov").expect("registered");
//! let spec = SearchSpec::new(LabParams::demo(), 0.999);
//! let (rows, _stats) = precision_search(scenario.as_ref(), &spec, 1, None);
//! for row in rows {
//!     println!("M-{}: minimal mantissa {:?}", row.cutoff, row.minimal_m);
//! }
//! ```
//!
//! Fidelity is scenario-defined ([`Scenario::fidelity`]); `1.0` means
//! bit-identical to the full-precision baseline, and the default metric
//! maps relative-L1 distance through `1 / (1 + e)`.
//!
//! ## Ranks
//!
//! Every rank contributes stealer threads that take one task at a time
//! from one shared queue; the full-precision baseline is a
//! lazily-computed pool resource that every stealer shares, and each
//! task's mesh sweeps run inline on its stealer. Rows are reassembled in
//! lattice order before the stable ranking sort, so the merged report is
//! byte-identical at any rank count — only [`StudyStats`] shows where the
//! work ran:
//!
//! ```
//! use raptor_lab::{find, run_study_distributed_resumable, CampaignSpec, LabParams};
//!
//! let scenario = find("ir/horner").expect("registered");
//! let spec = CampaignSpec::sweep(LabParams::mini());
//! let (one, _) = run_study_distributed_resumable(&[scenario.as_ref()], &spec, 1, None);
//! let (two, stats) = run_study_distributed_resumable(&[scenario.as_ref()], &spec, 2, None);
//! assert_eq!(two.to_json().render(), one.to_json().render());
//! assert_eq!(stats.pairs_by_rank.iter().sum::<usize>(), 6);
//! ```
//!
//! ## Resume
//!
//! Outcomes persist to an [`OutcomeCache`] directory keyed by
//! `(scenario, params, candidate label)`, so an interrupted or repeated
//! sweep restarts warm and only recomputes missing candidates. Bisection
//! probes are cached too: each is a deterministic
//! `(scenario, scale, cutoff, m)` point, so a warm re-hunt performs zero
//! scenario runs. [`run_resumed`] is the one cache shell — load, run,
//! save, and append one [`StudyStats`] row to the `stats_history.jsonl`
//! inside the cache. The CLI flow through the example binaries:
//!
//! ```sh
//! # Shard the sweep over 4 ranks, persisting outcomes as they complete.
//! codesign_advisor hydro/sod --ranks 4 --resume sweep-cache
//! # Re-run after an interrupt: cached rows are served, the rest computed.
//! codesign_advisor hydro/sod --ranks 4 --resume sweep-cache
//! # Steal the greedy bisection probes across ranks, caching probes too.
//! sedov_precision_hunt hydro/sedov --ranks 3 --resume sweep-cache
//! # GPU-native lattice: what would a GPU port tolerate (fp32/fp64 only)?
//! codesign_advisor hydro/sod --native
//! ```
//!
//! The cache directory holds per-scenario, per-shard JSONL files that
//! any number of concurrent processes append to under advisory locks
//! (see the [`cache`] module docs). [`native_candidates`] restricts the
//! lattice to the hardware formats a GPU port could execute (the §3.6
//! constraint).
//!
//! ## Studies: the whole registry in one table
//!
//! A *study* sweeps **every** scenario (or a `--scenarios` subset, see
//! [`study_scenarios`]) over one candidate lattice and merges the results
//! into a single cross-scenario codesign ranking — the paper's headline
//! Table-1-style artifact. The sweep driver flattens the
//! `(scenario, candidate)` pair list into one queue, so skewed per-pair
//! costs never idle ranks, and per-scenario baselines are computed
//! lazily on first touch. One shared [`OutcomeCache`] directory covers
//! the whole study ([`run_study_resumed`]):
//!
//! ```
//! use raptor_lab::{run_study_distributed_resumable, study_scenarios, CampaignSpec, LabParams};
//!
//! let scenarios = study_scenarios(Some("ir/horner,eos/cellular")).unwrap();
//! let spec = CampaignSpec::sweep(LabParams::mini());
//! let (study, _stats) = run_study_distributed_resumable(&scenarios, &spec, 2, None);
//! assert_eq!(study.scenarios.len(), 2);
//! assert_eq!(study.ranking.len(), 2);   // one codesign row per scenario
//! println!("{}", study.render_markdown());
//! ```

#![forbid(unsafe_code)]

#![warn(missing_docs)]

pub mod cache;
pub mod campaign;
mod queue;
pub mod registry;
pub mod scenario;
pub mod search;
pub mod study;

pub use cache::OutcomeCache;
pub use campaign::{
    default_candidates, format_ladder, native_candidates, run_campaign, shear_candidates,
    CampaignReport, CampaignSpec, CandidateOutcome, CandidateSpec, ScopeAxis,
};
pub use registry::{find, registry, study_scenarios};
pub use scenario::{
    fidelity_from_error, relative_l1, LabParams, Observable, Runnable, Scenario,
};
pub use search::{precision_search, search_to_json, SearchRow, SearchSpec};
pub use study::{
    append_stats_history, load_stats_history, render_stats_history, run_resumed,
    run_study_distributed_resumable, run_study_resumed, stats_history_path, StatsRecord,
    StudyReport, StudyRow, StudyStats,
};
