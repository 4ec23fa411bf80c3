//! The campaign vocabulary (§6–§7.2): candidate lattices, campaign
//! specs, outcome rows and ranked reports.
//!
//! A campaign takes one scenario, a set of candidate truncation
//! configurations (format ladder × scope × mode × AMR-level cutoff), and:
//!
//! 1. runs the scenario once at full precision for the baseline
//!    observable;
//! 2. runs every candidate as one task of the sweep driver
//!    ([`crate::run_study_distributed_resumable`] — a campaign is a
//!    one-scenario study), each candidate's own mesh sweeps inline, so
//!    candidates, not blocks, are the unit of parallelism;
//! 3. scores each candidate's fidelity against the baseline
//!    ([`Scenario::fidelity`]) and folds the live op/byte counters into
//!    the §7.2 co-design model ([`codesign::predicted_speedup`]);
//! 4. ranks survivors by `(accepted, predicted speedup, fidelity)` and
//!    emits both a human table and a machine-readable JSON summary
//!    through the shared [`raptor_core::json`] serializer.

use crate::scenario::{LabParams, Observable, Scenario};
use bigfloat::Format;
use codesign::{estimate_speedup, predicted_speedup, Machine};
use raptor_core::{Config, Counters, EmulPath, Json, Mode, Report, Session};

/// Scope axis of a candidate configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScopeAxis {
    /// Truncate the scenario's declared regions (file scope) — the
    /// module-targeted workflow of §6.
    Regions,
    /// Truncate everything (`--raptor-truncate-all`, program scope).
    Program,
}

/// One point of the campaign's configuration lattice.
#[derive(Clone, Debug, PartialEq)]
pub struct CandidateSpec {
    /// Target format.
    pub format: Format,
    /// op-mode or mem-mode.
    pub mode: Mode,
    /// Truncation scope.
    pub scope: ScopeAxis,
    /// AMR cutoff `l` of an M-l strategy (`None` = static truncation).
    pub cutoff: Option<u32>,
    /// mem-mode deviation threshold (ignored in op-mode).
    pub mem_threshold: f64,
    /// Restrict emulation to the hardware-native path ([`EmulPath::Native`])
    /// — the §3.6 GPU constraint. Only fp32/fp64 formats qualify.
    pub native: bool,
}

impl CandidateSpec {
    /// Op-mode candidate over the scenario regions, no cutoff.
    pub fn op(format: Format) -> CandidateSpec {
        CandidateSpec {
            format,
            mode: Mode::Op,
            scope: ScopeAxis::Regions,
            cutoff: None,
            mem_threshold: 1e-6,
            native: false,
        }
    }

    /// Builder-style: set the M-l cutoff.
    pub fn with_cutoff(mut self, l: u32) -> CandidateSpec {
        self.cutoff = Some(l);
        self
    }

    /// Builder-style: program scope.
    pub fn program_scope(mut self) -> CandidateSpec {
        self.scope = ScopeAxis::Program;
        self
    }

    /// Builder-style: mem-mode at the given deviation threshold
    /// (function-scoped over the scenario regions, per Fig. 2b).
    pub fn mem(mut self, threshold: f64) -> CandidateSpec {
        self.mode = Mode::Mem;
        self.mem_threshold = threshold;
        self
    }

    /// Builder-style: restrict to the hardware-native emulation path (the
    /// GPU-port constraint of §3.6). The format must be fp32 or fp64.
    pub fn native_path(mut self) -> CandidateSpec {
        self.native = true;
        self
    }

    /// Display label, e.g. `"e11m12 op regions M-1"`.
    ///
    /// The label is the resume/merge key of cached and distributed
    /// campaigns, so it is **injective**: every field that changes the
    /// outcome appears as its own token. The format token `e{e}m{m}`
    /// encodes both widths; the mode token carries the mem-mode threshold
    /// (`mem@1e-3`) because distinct thresholds flag differently; the
    /// native-path restriction gets its own token. Tokens are
    /// space-separated and none contains a space, so no two distinct
    /// specs can render identically (checked by the uniqueness test over
    /// the shipped lattices).
    pub fn label(&self) -> String {
        let native = if self.native { " native" } else { "" };
        let mode = match self.mode {
            Mode::Op => "op".to_string(),
            Mode::Mem => format!("mem@{:e}", self.mem_threshold),
        };
        let scope = match self.scope {
            ScopeAxis::Regions => "regions",
            ScopeAxis::Program => "program",
        };
        let cutoff = match self.cutoff {
            Some(l) => format!(" M-{l}"),
            None => String::new(),
        };
        format!("{}{native} {mode} {scope}{cutoff}", self.format)
    }

    /// Resolve to a full [`Config`] against a scenario (counting always
    /// on — the co-design model needs both op populations).
    pub fn config(&self, scenario: &dyn Scenario, max_level: u32) -> Result<Config, String> {
        if self.native && !self.format.is_native() {
            return Err(format!(
                "native-path candidate requires a hardware format (fp32/fp64), got {}",
                self.format
            ));
        }
        let mut cfg = match (self.mode, self.scope) {
            (Mode::Op, ScopeAxis::Regions) => {
                Config::op_files(self.format, scenario.regions().iter().copied())
            }
            (Mode::Op, ScopeAxis::Program) => Config::op_all(self.format),
            (Mode::Mem, ScopeAxis::Regions) => Config::mem_functions(
                self.format,
                scenario.regions().iter().copied(),
                self.mem_threshold,
            ),
            (Mode::Mem, ScopeAxis::Program) => {
                return Err("mem-mode is only supported at function scope (Fig. 2b)".into())
            }
        };
        if let Some(l) = self.cutoff {
            cfg = cfg.with_cutoff(max_level, l);
        }
        if self.native {
            cfg = cfg.with_path(EmulPath::Native);
        }
        cfg = cfg.with_counting();
        cfg.validate()?;
        Ok(cfg)
    }

    /// Machine-readable spec through the shared serializer.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("label", self.label())
            .set("exp_bits", self.format.exp_bits())
            .set("man_bits", self.format.man_bits())
            .set(
                "mode",
                match self.mode {
                    Mode::Op => "op",
                    Mode::Mem => "mem",
                },
            )
            .set(
                "scope",
                match self.scope {
                    ScopeAxis::Regions => "regions",
                    ScopeAxis::Program => "program",
                },
            )
            .set(
                "cutoff",
                match self.cutoff {
                    Some(l) => Json::from(l),
                    None => Json::Null,
                },
            )
            .set("mem_threshold", self.mem_threshold)
            .set("native", self.native)
    }

    /// Parse back a document produced by [`CandidateSpec::to_json`] (the
    /// derived `label` field is ignored).
    pub fn from_json(doc: &Json) -> Result<CandidateSpec, String> {
        let exp_bits = doc.u64_field("exp_bits")? as u32;
        let man_bits = doc.u64_field("man_bits")? as u32;
        if !(2..=19).contains(&exp_bits) || !(1..=236).contains(&man_bits) {
            return Err(format!("format widths out of range: e={exp_bits} m={man_bits}"));
        }
        let mode = match doc.str_field("mode")? {
            "op" => Mode::Op,
            "mem" => Mode::Mem,
            other => return Err(format!("unknown mode `{other}`")),
        };
        let scope = match doc.str_field("scope")? {
            "regions" => ScopeAxis::Regions,
            "program" => ScopeAxis::Program,
            other => return Err(format!("unknown scope `{other}`")),
        };
        let cutoff = match doc.req("cutoff")? {
            Json::Null => None,
            c => Some(
                c.as_u64().ok_or_else(|| "cutoff is not an integer".to_string())? as u32,
            ),
        };
        Ok(CandidateSpec {
            format: Format::new(exp_bits, man_bits),
            mode,
            scope,
            cutoff,
            mem_threshold: doc.f64_field("mem_threshold")?,
            native: doc.bool_field("native")?,
        })
    }
}

/// The default format ladder, widest to narrowest storage.
pub fn format_ladder() -> Vec<Format> {
    vec![
        Format::FP32,
        Format::new(11, 20),
        Format::new(11, 12),
        Format::FP16,
        Format::BF16,
        Format::FP8_E5M2,
    ]
}

/// The default candidate lattice: the format ladder crossed with the
/// static (no cutoff) and M-1 dynamic-truncation strategies — 12 configs,
/// the §6.1 sweep shape.
pub fn default_candidates() -> Vec<CandidateSpec> {
    let mut out = Vec::new();
    for fmt in format_ladder() {
        out.push(CandidateSpec::op(fmt));
        out.push(CandidateSpec::op(fmt).with_cutoff(1));
    }
    out
}

/// The GPU-native lattice (ROADMAP §3.6): only formats a GPU port could
/// execute without the soft-float ladder — fp64 and fp32 on the
/// [`EmulPath::Native`] hardware path — each static and M-1. A campaign
/// over these answers "what would a GPU port tolerate": fp64 is the
/// identity reference, and the fp32 rows report whether single precision
/// clears the fidelity floor (and at what predicted speedup).
pub fn native_candidates() -> Vec<CandidateSpec> {
    let mut out = Vec::new();
    for fmt in [Format::FP64, Format::FP32] {
        out.push(CandidateSpec::op(fmt).native_path());
        out.push(CandidateSpec::op(fmt).with_cutoff(1).native_path());
    }
    out
}

/// The shear-layer lattice: 7 configs — a deliberately *prime* count
/// (no rank count from 2 to 6 divides it), so distributing it across
/// the typical 2/3/4-rank campaigns always exercises an uneven split.
/// Used by the Kelvin–Helmholtz scenario's campaign tests and anywhere
/// an uneven lattice is wanted.
pub fn shear_candidates() -> Vec<CandidateSpec> {
    let mut out: Vec<CandidateSpec> = [
        Format::FP32,
        Format::new(11, 20),
        Format::new(11, 12),
        Format::FP16,
        Format::BF16,
    ]
    .into_iter()
    .map(CandidateSpec::op)
    .collect();
    out.push(CandidateSpec::op(Format::FP32).with_cutoff(1));
    out.push(CandidateSpec::op(Format::new(11, 12)).with_cutoff(1));
    out
}

/// A full campaign specification.
#[derive(Clone, Debug)]
pub struct CampaignSpec {
    /// Scenario scale knobs.
    pub params: LabParams,
    /// The configuration lattice to sweep.
    pub candidates: Vec<CandidateSpec>,
    /// Acceptance threshold on fidelity (quality-of-result gate).
    pub fidelity_floor: f64,
    /// Stealer threads on the task pool: `max(workers, nranks)` in
    /// total, spread ±1 across the ranks.
    pub workers: usize,
    /// Hardware model for the §7.2 speedup ranking.
    pub machine: Machine,
}

impl CampaignSpec {
    /// The default sweep at the given scale: [`default_candidates`],
    /// a 0.99 fidelity floor, one worker per available CPU (capped by
    /// the candidate count at run time), the default machine.
    pub fn sweep(params: LabParams) -> CampaignSpec {
        let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
        CampaignSpec {
            params,
            candidates: default_candidates(),
            fidelity_floor: 0.99,
            workers,
            machine: Machine::default(),
        }
    }
}

/// The outcome of one candidate run.
#[derive(Clone, Debug, PartialEq)]
pub struct CandidateOutcome {
    /// The configuration swept.
    pub spec: CandidateSpec,
    /// Fidelity vs the cached full-precision baseline (`1.0` = exact).
    pub fidelity: f64,
    /// Whether fidelity cleared the campaign floor.
    pub accepted: bool,
    /// The roofline-resolved predicted speedup (ranking key).
    pub predicted_speedup: f64,
    /// Compute-bound panel of the Fig. 8 estimate.
    pub speedup_compute: f64,
    /// Memory-bound panel.
    pub speedup_memory: f64,
    /// Live counters of the run.
    pub counters: Counters,
    /// The session's full profiling report.
    pub report: Report,
    /// Set when the candidate could not run (e.g. invalid config for the
    /// scenario); such rows rank last.
    pub error: Option<String>,
}

impl CandidateOutcome {
    /// Machine-readable outcome row: the spec's fields plus the scores,
    /// counters, and embedded profiling report. This is the row format of
    /// campaign summaries and the resume cache.
    pub fn to_json(&self) -> Json {
        // Speedup panels can go non-finite on degenerate counter
        // populations: encode every score losslessly.
        let mut doc = self
            .spec
            .to_json()
            .set("fidelity", Json::from_f64_lossless(self.fidelity))
            .set("accepted", self.accepted)
            .set("predicted_speedup", Json::from_f64_lossless(self.predicted_speedup))
            .set("speedup_compute", Json::from_f64_lossless(self.speedup_compute))
            .set("speedup_memory", Json::from_f64_lossless(self.speedup_memory))
            .set("truncated_fraction", self.counters.truncated_fraction())
            .set("counters", self.counters.to_json())
            .set("report", self.report.to_json());
        if let Some(e) = &self.error {
            doc = doc.set("error", e.as_str());
        }
        doc
    }

    /// Parse back a document produced by [`CandidateOutcome::to_json`]
    /// — lossless for every finite field, so a row that sleeps in a
    /// resume cache compares equal to the locally computed one.
    pub fn from_json(doc: &Json) -> Result<CandidateOutcome, String> {
        Ok(CandidateOutcome {
            spec: CandidateSpec::from_json(doc)?,
            fidelity: doc.f64_field_lossless("fidelity")?,
            accepted: doc.bool_field("accepted")?,
            predicted_speedup: doc.f64_field_lossless("predicted_speedup")?,
            speedup_compute: doc.f64_field_lossless("speedup_compute")?,
            speedup_memory: doc.f64_field_lossless("speedup_memory")?,
            counters: Counters::from_json(doc.req("counters")?)?,
            report: Report::from_json(doc.req("report")?)?,
            error: match doc.get("error") {
                Some(e) => Some(
                    e.as_str()
                        .ok_or_else(|| "error field is not a string".to_string())?
                        .to_string(),
                ),
                None => None,
            },
        })
    }
}

/// A completed campaign over one scenario.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignReport {
    /// Scenario name.
    pub scenario: String,
    /// Scenario crate.
    pub crate_name: String,
    /// Scale the campaign ran at.
    pub params: LabParams,
    /// The acceptance floor used.
    pub fidelity_floor: f64,
    /// Baseline scored against itself — `1.0` by construction; kept as a
    /// harness self-check.
    pub baseline_fidelity: f64,
    /// Outcomes ranked by `(accepted, predicted speedup, fidelity)`.
    pub outcomes: Vec<CandidateOutcome>,
}

impl CampaignReport {
    /// The best accepted candidate, if any survived the fidelity gate.
    pub fn best(&self) -> Option<&CandidateOutcome> {
        self.outcomes.iter().find(|o| o.accepted && o.error.is_none())
    }

    /// Machine-readable summary through the shared serializer.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("scenario", self.scenario.as_str())
            .set("crate", self.crate_name.as_str())
            .set(
                "params",
                Json::obj()
                    .set("scale", self.params.scale)
                    .set("threads", self.params.threads),
            )
            .set("fidelity_floor", self.fidelity_floor)
            .set("baseline_fidelity", self.baseline_fidelity)
            .set(
                "candidates",
                Json::Arr(self.outcomes.iter().map(|o| o.to_json()).collect()),
            )
    }

    /// Parse back a document produced by [`CampaignReport::to_json`].
    pub fn from_json(doc: &Json) -> Result<CampaignReport, String> {
        let params = doc.req("params")?;
        Ok(CampaignReport {
            scenario: doc.str_field("scenario")?.to_string(),
            crate_name: doc.str_field("crate")?.to_string(),
            params: LabParams {
                scale: params.u64_field("scale")? as u32,
                threads: params.u64_field("threads")? as usize,
            },
            fidelity_floor: doc.f64_field("fidelity_floor")?,
            baseline_fidelity: doc.f64_field("baseline_fidelity")?,
            outcomes: doc
                .arr_field("candidates")?
                .iter()
                .map(CandidateOutcome::from_json)
                .collect::<Result<Vec<CandidateOutcome>, String>>()?,
        })
    }

    /// Human-readable ranking table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "campaign: {} ({} candidates, fidelity floor {})\n",
            self.scenario,
            self.outcomes.len(),
            self.fidelity_floor
        ));
        out.push_str(&format!(
            "{:>26} {:>10} {:>9} {:>9} {:>8}  verdict\n",
            "config", "fidelity", "speedup", "trunc %", "Gops"
        ));
        for o in &self.outcomes {
            if let Some(e) = &o.error {
                out.push_str(&format!("{:>26} failed: {e}\n", o.spec.label()));
                continue;
            }
            let (tg, fg) = o.counters.giga_ops();
            out.push_str(&format!(
                "{:>26} {:>10.6} {:>8.2}x {:>8.1}% {:>8.3}  {}\n",
                o.spec.label(),
                o.fidelity,
                o.predicted_speedup,
                100.0 * o.counters.truncated_fraction(),
                tg + fg,
                if o.accepted { "OK" } else { "too coarse" }
            ));
        }
        out
    }
}

/// Run every candidate of `spec` against `scenario`, rank, and report: a
/// one-scenario study on one rank
/// ([`crate::run_study_distributed_resumable`]).
///
/// Cutoff candidates are dropped for scenarios without a refinement
/// hierarchy (`max_level <= 1`): with no levels to spare, an M-l config
/// is bit-identical to its static twin, and reporting it as a distinct
/// strategy would be misleading.
pub fn run_campaign(scenario: &dyn Scenario, spec: &CampaignSpec) -> CampaignReport {
    crate::run_study_distributed_resumable(&[scenario], spec, 1, None).0.scenarios.remove(0)
}

/// The candidates a campaign actually runs at `max_level`: cutoff
/// candidates are dropped for scenarios without a refinement hierarchy
/// (their static twins are bit-identical).
pub(crate) fn eligible_candidates(
    spec: &CampaignSpec,
    max_level: u32,
) -> Vec<&CandidateSpec> {
    spec.candidates.iter().filter(|c| c.cutoff.is_none() || max_level > 1).collect()
}

/// Run one candidate at `params` and measure it against the baseline:
/// fidelity, counters, and the session report. The row comes back
/// unscored (`accepted` false, speedups 1.0) — [`score_and_rank`] scores
/// every row of a merged report against the live spec. A candidate that
/// cannot run becomes an error row.
pub(crate) fn run_candidate(
    scenario: &dyn Scenario,
    params: &LabParams,
    cand: &CandidateSpec,
    max_level: u32,
    baseline: &Observable,
) -> CandidateOutcome {
    let row = |fidelity: f64, counters: Counters, session: &Session, error: Option<String>| {
        CandidateOutcome {
            spec: cand.clone(),
            fidelity,
            accepted: false,
            predicted_speedup: 1.0,
            speedup_compute: 1.0,
            speedup_memory: 1.0,
            counters,
            report: session.report(),
            error,
        }
    };
    let session = match cand.config(scenario, max_level).and_then(Session::new) {
        Ok(s) => s,
        Err(e) => return row(0.0, Counters::default(), &Session::passthrough(), Some(e)),
    };
    let trial = scenario.build(params).run(&session);
    row(scenario.fidelity(&trial, baseline), session.counters(), &session, None)
}

/// Score a merged outcome vector against `spec`, then rank it.
///
/// The one place rows are scored: fresh rows arrive unscored from
/// [`run_candidate`], and cached rows may predate the calling spec, so
/// acceptance is gated against the live fidelity floor and speedups come
/// from the live machine model (the counters in every row make this
/// free). Error rows keep their neutral scores.
///
/// Ranking: accepted first (by predicted speedup, then fidelity),
/// rejected after (by fidelity — the least-bad first), errors last. The
/// sort is stable, so outcome vectors assembled in candidate-lattice
/// order rank identically wherever their rows were computed.
pub(crate) fn score_and_rank(outcomes: &mut [CandidateOutcome], spec: &CampaignSpec) {
    for o in outcomes.iter_mut() {
        if o.error.is_none() {
            o.accepted = o.fidelity >= spec.fidelity_floor;
            let s = estimate_speedup(&spec.machine, o.spec.format, &o.counters);
            o.predicted_speedup = predicted_speedup(&spec.machine, o.spec.format, &o.counters);
            o.speedup_compute = s.compute_bound;
            o.speedup_memory = s.memory_bound;
        }
    }
    outcomes.sort_by(|a, b| {
        let key = |o: &CandidateOutcome| (o.error.is_none(), o.accepted);
        key(b)
            .cmp(&key(a))
            .then_with(|| {
                if a.accepted && b.accepted {
                    b.predicted_speedup
                        .partial_cmp(&a.predicted_speedup)
                        .unwrap_or(core::cmp::Ordering::Equal)
                } else {
                    core::cmp::Ordering::Equal
                }
            })
            .then_with(|| b.fidelity.partial_cmp(&a.fidelity).unwrap_or(core::cmp::Ordering::Equal))
    });
}
