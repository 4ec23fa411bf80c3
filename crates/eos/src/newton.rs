//! Newton–Raphson temperature inversion of the tabulated EOS — the
//! numerical heart of Hypothesis 2.
//!
//! Hydro evolves (ρ, e); the table is indexed by (ρ, T). Every EOS call
//! therefore solves `e(ρ, T) = e_target` for T by Newton iteration on the
//! interpolant. The paper found that this iteration "does not converge
//! within the specified number of iterations when the mantissa is
//! truncated to less than 42 bits" — the residual `|e(T) - e_target|`
//! cannot shrink below the truncated format's rounding granularity, which
//! exceeds the convergence tolerance. Lowering the tolerance or raising
//! the iteration cap does not help (§6.1), which is exactly the behaviour
//! this module reproduces.

use crate::table::{EosTable, TableCols, TableView};
use raptor_core::batch::{self, Col};
use raptor_core::{region, Arith, Real};

/// Newton solver configuration.
#[derive(Clone, Copy, Debug)]
pub struct NewtonCfg {
    /// Relative tolerance on the energy residual. The Flash-X Helmholtz
    /// default is ~1e-12 relative — below the rounding granularity of any
    /// mantissa shorter than ~40 bits.
    pub tol: f64,
    /// Maximum iterations.
    pub max_iter: usize,
}

impl Default for NewtonCfg {
    fn default() -> Self {
        NewtonCfg { tol: 1e-12, max_iter: 40 }
    }
}

/// Outcome of one inversion.
#[derive(Clone, Copy, Debug)]
pub struct NewtonResult<R: Real> {
    /// Final temperature iterate.
    pub t: R,
    /// Iterations used.
    pub iters: usize,
    /// Whether the residual met the tolerance.
    pub converged: bool,
    /// Final relative residual.
    pub resid: f64,
}

/// The Newton residual at `t`: `diff = e(rho, t) - e_target` and the
/// relative residual `diff / e_target` (before its exact `abs`).
#[inline]
fn residual<R: Arith>(table: &impl TableView<R>, rho: R, e_target: R, t: R) -> (R, R) {
    let diff = table.eint_of(rho, t) - e_target;
    (diff, diff / e_target)
}

/// The undamped Newton update `t - diff / (de/dT)`.
#[inline]
fn newton_update<R: Arith>(table: &impl TableView<R>, rho: R, t: R, diff: R) -> R {
    t - diff / table.de_dt(rho, t)
}

/// The damped update toward a table bound the raw update crossed:
/// halfway from `t` to `bound`.
#[inline]
fn damped<R: Arith>(t: R, bound: f64) -> R {
    (t + R::from_f64(bound)) * R::half()
}

/// Invert `e(rho, T) = e_target` for T starting from `t_guess`.
///
/// Runs inside the `Eos/newton` region so EOS-module truncation (the
/// Cellular experiment) covers it.
pub fn invert_temperature<R: Real>(
    table: &EosTable,
    rho: R,
    e_target: R,
    t_guess: R,
    cfg: &NewtonCfg,
) -> NewtonResult<R> {
    let _r = region("Eos/newton");
    let (t_lo, t_hi) = table.t_bounds();
    let mut t = t_guess;
    let tol = R::from_f64(cfg.tol);
    let mut resid = f64::MAX;
    for it in 0..cfg.max_iter {
        let (diff, rel) = residual(table, rho, e_target, t);
        let rel = rel.abs();
        resid = rel.to_f64();
        if rel < tol {
            return NewtonResult { t, iters: it, converged: true, resid };
        }
        // Damped update, clamped to the table range.
        let mut t_new = newton_update(table, rho, t, diff);
        if t_new.to_f64() <= t_lo {
            t_new = damped(t, t_lo);
        }
        if t_new.to_f64() >= t_hi {
            t_new = damped(t, t_hi);
        }
        t = t_new;
    }
    NewtonResult { t, iters: cfg.max_iter, converged: false, resid }
}

/// Batched counterpart of [`invert_temperature`] over the `(rho,
/// e_target)` columns of the current [`batch::scope`]: element `k` of the
/// result is the scalar inversion of state `k` under the tracked type,
/// bit for bit and with exactly its op counts.
///
/// Cells march in lockstep through the iteration, each iteration in its
/// own nested scope over the cells still active; the only per-cell
/// control flow in the scalar loop is *when a cell stops* (convergence)
/// and the two range clamps, so the active set compacts as cells converge
/// and each clamp runs on the subset whose update crossed its bound. A
/// cell that converges at iteration `it` has performed precisely the ops
/// the scalar early-return performs.
pub fn invert_temperature_batch(
    table: &EosTable,
    rho: Col,
    e_target: Col,
    t_guess: f64,
    cfg: &NewtonCfg,
) -> Vec<NewtonResult<f64>> {
    let _r = region("Eos/newton");
    let view = TableCols(table);
    let (t_lo, t_hi) = table.t_bounds();
    let n = rho.read(<[f64]>::len);
    let unfinished = NewtonResult { t: t_guess, iters: cfg.max_iter, converged: false, resid: f64::MAX };
    let mut out = vec![unfinished; n];
    // Cells that never converge keep `unfinished`'s flags.
    let mut active: Vec<usize> = (0..n).collect();
    for it in 0..cfg.max_iter {
        let _iter = batch::scope(active.len());
        let [rho_a, e_a] = batch::gather([rho, e_target], &active);
        let t = Col::new_with(|o| o.iter_mut().zip(&active).for_each(|(o, &c)| *o = out[c].t));
        let (diff, rel) = residual(&view, rho_a, e_a, t);
        // Convergence partition: `|rel| < tol` exactly as the scalar test
        // (abs and compare are exact and uncounted; NaN stays active).
        let mut still = Vec::with_capacity(active.len());
        rel.read(|rel| {
            for (z, (&c, r)) in active.iter().zip(rel).enumerate() {
                out[c].resid = r.abs();
                if out[c].resid < cfg.tol {
                    out[c].iters = it;
                    out[c].converged = true;
                } else {
                    still.push(z);
                }
            }
        });
        if still.is_empty() {
            break;
        }
        let still_scope = (still.len() < active.len()).then(|| batch::scope(still.len()));
        let [rho_a, t, diff] =
            if still_scope.is_some() { batch::gather([rho_a, t, diff], &still) } else { [rho_a, t, diff] };
        active = still.iter().map(|&z| active[z]).collect();
        newton_update(&view, rho_a, t, diff)
            .read(|v| active.iter().zip(v).for_each(|(&c, &x)| out[c].t = x));
        // The range clamps: the low one on the raw update, then the high
        // one on the (possibly low-clamped) iterate, both halving toward
        // this iteration's `t`.
        for (bound, low) in [(t_lo, true), (t_hi, false)] {
            let crossed: Vec<usize> = (0..active.len())
                .filter(|&z| if low { out[active[z]].t <= bound } else { out[active[z]].t >= bound })
                .collect();
            if crossed.is_empty() {
                continue;
            }
            let _clamp = batch::scope(crossed.len());
            let [t] = batch::gather([t], &crossed);
            damped(t, bound).read(|v| crossed.iter().zip(v).for_each(|(&z, &x)| out[active[z]].t = x));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::model_eint;
    use bigfloat::Format;
    use raptor_core::{Arith, Config, Session, Tracked};

    #[test]
    fn full_precision_converges_quadratically() {
        let tab = EosTable::cellular_default();
        let rho = 1e6;
        let t_true = 3.7e8;
        let e_target: f64 = tab.eint_of(rho, t_true);
        let r = invert_temperature(&tab, rho, e_target, 1e8, &NewtonCfg::default());
        assert!(r.converged, "resid {}", r.resid);
        assert!(r.iters < 15, "iters {}", r.iters);
        assert!((r.t - t_true).abs() / t_true < 1e-9, "t {}", r.t);
    }

    #[test]
    fn converges_from_poor_guesses_across_regime() {
        let tab = EosTable::cellular_default();
        for &rho in &[1e5, 1e6, 1e8] {
            for &t_true in &[5e7, 1e8, 1e9, 5e9] {
                let e: f64 = tab.eint_of(rho, t_true);
                for &guess in &[2e7, 1e9, 8e9] {
                    let r = invert_temperature(&tab, rho, e, guess, &NewtonCfg::default());
                    assert!(r.converged, "rho {rho} T {t_true} guess {guess}: resid {}", r.resid);
                }
            }
        }
    }

    #[test]
    fn truncation_below_40_bits_breaks_convergence() {
        // Hypothesis 2's falsification: the same inversion that converges
        // in a dozen iterations at full precision cannot converge once the
        // EOS arithmetic is truncated below ~40 mantissa bits, because the
        // residual floor (rounding granularity) exceeds the tolerance.
        let tab = EosTable::cellular_default();
        let rho = 1e6;
        let t_true = 3.7e8;
        let e_target = model_eint(rho, t_true);
        let run = |mant: u32| -> bool {
            let sess = Session::new(
                Config::op_files(Format::new(11, mant), ["Eos"]),
            )
            .unwrap();
            let _g = sess.install();
            let r = invert_temperature(
                &tab,
                Tracked::from_f64(rho),
                Tracked::from_f64(e_target),
                Tracked::from_f64(1e8),
                &NewtonCfg::default(),
            );
            r.converged
        };
        assert!(run(52), "52-bit converges");
        assert!(run(48), "48-bit converges");
        assert!(!run(30), "30-bit must fail");
        assert!(!run(20), "20-bit must fail");
    }

    #[test]
    fn loosening_tolerance_does_not_rescue_very_low_precision() {
        // §6.1: "we decrease the tolerance for convergence and increase
        // the permitted number of iterations. Yet, we fail to get
        // convergence for any meaningful workload."  At 12 bits, even
        // tol = 1e-4 with 10x iterations stays non-convergent for typical
        // states because Newton *oscillates* on the quantized interpolant.
        let tab = EosTable::cellular_default();
        let rho = 1e6;
        let e_target = model_eint(rho, 3.7e8);
        let sess = Session::new(
            Config::op_files(Format::new(11, 8), ["Eos"]),
        )
        .unwrap();
        let _g = sess.install();
        let cfg = NewtonCfg { tol: 1e-6, max_iter: 400 };
        let r = invert_temperature(
            &tab,
            Tracked::from_f64(rho),
            Tracked::from_f64(e_target),
            Tracked::from_f64(1e8),
            &cfg,
        );
        assert!(!r.converged, "8-bit EOS must not reach 1e-6: resid {}", r.resid);
    }

    #[test]
    fn convergence_threshold_is_near_tolerance_bits() {
        // The failure boundary tracks -log2(tol): with tol = 1e-12 the
        // threshold sits around 40 mantissa bits (the paper reports 42 on
        // the real Helmholtz table).
        let tab = EosTable::cellular_default();
        let rho = 1e6;
        let e_target = model_eint(rho, 3.7e8);
        let converges = |mant: u32| {
            let sess =
                Session::new(Config::op_files(Format::new(11, mant), ["Eos"])).unwrap();
            let _g = sess.install();
            invert_temperature(
                &tab,
                Tracked::from_f64(rho),
                Tracked::from_f64(e_target),
                Tracked::from_f64(1e8),
                &NewtonCfg::default(),
            )
            .converged
        };
        // Find the boundary.
        let mut threshold = None;
        for m in (20..=52).rev() {
            if !converges(m) {
                threshold = Some(m + 1);
                break;
            }
        }
        let th = threshold.expect("a failure threshold exists");
        assert!(
            (36..=48).contains(&th),
            "threshold {th} should sit near 40 bits (paper: 42)"
        );
    }

    /// Batch-pairing twin: `invert_temperature_batch` against per-element
    /// scalar `invert_temperature` — temperatures, iteration counts, and
    /// convergence flags must agree exactly on plain f64.
    #[test]
    fn invert_temperature_batch_matches_scalar_per_element() {
        let tab = EosTable::cellular_default();
        let cfg = NewtonCfg::default();
        let n = 24;
        let rho: Vec<f64> = (0..n).map(|k| 10f64.powf(5.0 + 0.1 * (k % 10) as f64)).collect();
        let t_true: Vec<f64> = (0..n).map(|k| 10f64.powf(7.5 + 0.08 * k as f64)).collect();
        let e: Vec<f64> = (0..n).map(|k| tab.eint_of(rho[k], t_true[k])).collect();
        let _cols = raptor_core::batch::scope(n);
        let out = invert_temperature_batch(&tab, Col::from_slice(&rho), Col::from_slice(&e), 1e8, &cfg);
        for k in 0..n {
            let r = invert_temperature(&tab, rho[k], e[k], 1e8, &cfg);
            assert_eq!(out[k].t.to_bits(), r.t.to_bits(), "t k={k}");
            assert_eq!(out[k].iters, r.iters, "iters k={k}");
            assert_eq!(out[k].converged, r.converged, "converged k={k}");
        }
    }
}
