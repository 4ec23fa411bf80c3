//! The unified `Scenario` layer: one trait every workload crate
//! implements, so precision-search campaigns can sweep Sedov blasts,
//! rising bubbles, burning fronts, and IR kernels through a single API.
//!
//! A [`Scenario`] is a registry entry — a named, parameterizable workload
//! with a declared set of RAPTOR region prefixes. [`Scenario::build`]
//! instantiates it at a [`LabParams`] scale as a boxed [`Runnable`];
//! running one consumes a `&Session` (the unified workload contract —
//! reference runs pass [`Session::passthrough`]) and distills the final
//! state into an [`Observable`], a plain vector of physically meaningful
//! numbers. [`Scenario::fidelity`] scores a trial observable against the
//! full-precision baseline on a `[0, 1]` scale where `1.0` means
//! bit-identical.

use raptor_core::Session;

/// Scale knobs shared by every scenario. Each scenario maps the abstract
/// scale to its own grid sizes and step counts, so one `LabParams` drives
/// heterogeneous workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LabParams {
    /// Abstract problem scale: 0 = mini (deterministic tests, CI smoke),
    /// 1 = demo (example binaries), 2+ = larger studies.
    pub scale: u32,
    /// Threads available *inside* one scenario run. Campaign candidates
    /// already run in parallel as task-pool tasks, each sweeping its mesh
    /// inline, so 1 is the right default for campaigns.
    pub threads: usize,
}

impl LabParams {
    /// Mini scale: coarse grids, few steps — deterministic and fast.
    pub fn mini() -> LabParams {
        LabParams { scale: 0, threads: 1 }
    }

    /// Demo scale: the example binaries' default.
    pub fn demo() -> LabParams {
        LabParams { scale: 1, threads: 1 }
    }
}

impl Default for LabParams {
    fn default() -> Self {
        LabParams::demo()
    }
}

/// The distilled result of one scenario run: a vector of observables
/// (sampled fields, front positions, interface metrics, kernel outputs).
/// Two runs of the same scenario at the same [`LabParams`] produce
/// vectors of identical length and meaning.
#[derive(Clone, Debug, PartialEq)]
pub struct Observable {
    /// The observable values.
    pub values: Vec<f64>,
}

/// A built scenario instance, ready to run exactly once.
pub trait Runnable: Send {
    /// Run to completion under `session` and distill the final state.
    /// Reference runs pass [`Session::passthrough`].
    fn run(self: Box<Self>, session: &Session) -> Observable;
}

/// Blanket impl so scenarios can return plain closures.
impl<F> Runnable for F
where
    F: FnOnce(&Session) -> Observable + Send,
{
    fn run(self: Box<Self>, session: &Session) -> Observable {
        (*self)(session)
    }
}

/// A named, parameterizable workload in the scenario registry.
pub trait Scenario: Send + Sync {
    /// Registry name, `<crate>/<variant>` (e.g. `"hydro/sedov"`).
    fn name(&self) -> &'static str;

    /// The workload crate this scenario exercises (`"hydro"`, `"incomp"`,
    /// `"eos"`, `"raptor-ir"`).
    fn crate_name(&self) -> &'static str {
        let name = self.name();
        match name.split_once('/') {
            Some((c, _)) => match c {
                "hydro" => "hydro",
                "incomp" => "incomp",
                "eos" => "eos",
                "ir" => "raptor-ir",
                _ => "unknown",
            },
            None => "unknown",
        }
    }

    /// RAPTOR region prefixes this scenario's kernels run under — the
    /// default truncation scope for campaign candidates.
    fn regions(&self) -> &'static [&'static str];

    /// Maximum AMR level of a run at `params` (1 for unrefined
    /// workloads); the `M` of the campaign's M-l cutoff candidates.
    fn max_level(&self, params: &LabParams) -> u32;

    /// Instantiate the scenario at a scale.
    fn build(&self, params: &LabParams) -> Box<dyn Runnable>;

    /// Score a trial observable against the full-precision baseline:
    /// `1.0` iff identical, decreasing monotonically as the trial
    /// deviates. The default maps the relative L1 distance `e` to
    /// `1 / (1 + e)`; scenarios with a domain metric override this.
    fn fidelity(&self, trial: &Observable, baseline: &Observable) -> f64 {
        fidelity_from_error(relative_l1(&trial.values, &baseline.values))
    }
}

/// Relative L1 distance `Σ|t - b| / Σ|b|` (falls back to the absolute
/// distance for an all-zero baseline). NaNs in the trial — a diverged
/// run — count as infinite error.
pub fn relative_l1(trial: &[f64], baseline: &[f64]) -> f64 {
    if trial.len() != baseline.len() {
        return f64::INFINITY;
    }
    let mut num = 0.0f64;
    let mut den = 0.0f64;
    for (&t, &b) in trial.iter().zip(baseline) {
        if !t.is_finite() {
            return f64::INFINITY;
        }
        num += (t - b).abs();
        den += b.abs();
    }
    if den > 0.0 {
        num / den
    } else {
        num
    }
}

/// Map an error metric (`0` = exact, larger = worse) onto the `[0, 1]`
/// fidelity scale: `1 / (1 + e)`. Exact runs score exactly `1.0`; the
/// mapping is strictly monotone, so format-ladder ordering survives.
pub fn fidelity_from_error(error: f64) -> f64 {
    if error.is_nan() {
        return 0.0;
    }
    1.0 / (1.0 + error.max(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fidelity_mapping_is_exact_at_zero_and_monotone() {
        assert_eq!(fidelity_from_error(0.0), 1.0);
        let f1 = fidelity_from_error(1e-6);
        let f2 = fidelity_from_error(1e-3);
        let f3 = fidelity_from_error(1.0);
        assert!(1.0 > f1 && f1 > f2 && f2 > f3 && f3 > 0.0);
        assert_eq!(fidelity_from_error(f64::INFINITY), 0.0);
        assert_eq!(fidelity_from_error(f64::NAN), 0.0);
    }

    #[test]
    fn relative_l1_basics() {
        assert_eq!(relative_l1(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        assert!((relative_l1(&[1.1, 2.0], &[1.0, 2.0]) - 0.1 / 3.0).abs() < 1e-15);
        assert_eq!(relative_l1(&[1.0], &[1.0, 2.0]), f64::INFINITY);
        assert_eq!(relative_l1(&[f64::NAN], &[1.0]), f64::INFINITY);
    }
}
