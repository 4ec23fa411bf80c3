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

use crate::table::{DeDtScratch, EosTable, InterpScratch};
use raptor_core::batch::{batch_add_s, batch_div, batch_mul_s, batch_sub};
use raptor_core::{region, Real};

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
        let e = table.eint_of(rho, t);
        let diff = e - e_target;
        let rel = (diff / e_target).abs();
        resid = rel.to_f64();
        if rel < tol {
            return NewtonResult { t, iters: it, converged: true, resid };
        }
        let dedt = table.de_dt(rho, t);
        let step = diff / dedt;
        // Damped update, clamped to the table range.
        let mut t_new = t - step;
        let half = R::half();
        if t_new.to_f64() <= t_lo {
            t_new = (t + R::from_f64(t_lo)) * half;
        }
        if t_new.to_f64() >= t_hi {
            t_new = (t + R::from_f64(t_hi)) * half;
        }
        t = t_new;
    }
    NewtonResult { t, iters: cfg.max_iter, converged: false, resid }
}

/// Scratch buffers for [`invert_temperature_batch`], reused across calls.
#[derive(Default)]
pub struct NewtonScratch {
    rho_a: Vec<f64>,
    e_a: Vec<f64>,
    t_a: Vec<f64>,
    e_v: Vec<f64>,
    diff: Vec<f64>,
    rel: Vec<f64>,
    dedt: Vec<f64>,
    stepv: Vec<f64>,
    t_new: Vec<f64>,
    cl_idx: Vec<usize>,
    cl_t: Vec<f64>,
    cl_a: Vec<f64>,
    cl_b: Vec<f64>,
    interp: InterpScratch,
    dedt_ws: DeDtScratch,
}

impl NewtonScratch {
    fn resize(&mut self, n: usize) {
        for v in [
            &mut self.rho_a,
            &mut self.e_a,
            &mut self.t_a,
            &mut self.e_v,
            &mut self.diff,
            &mut self.rel,
            &mut self.dedt,
            &mut self.stepv,
            &mut self.t_new,
        ] {
            v.resize(n, 0.0);
        }
    }
}

/// The scalar damped-clamp update `t_new = (t + bound) * 1/2`, applied
/// only to the cells whose raw `t_new` crosses `bound` (the same plain
/// `f64` comparison the scalar path makes on the resolved iterate). Both
/// tracked ops run only for the clamped subset, preserving counter parity.
#[allow(clippy::too_many_arguments)]
fn clamp_half(
    t_orig: &[f64],
    t_new: &mut [f64],
    bound: f64,
    low: bool,
    idx: &mut Vec<usize>,
    g: &mut Vec<f64>,
    a: &mut Vec<f64>,
    b: &mut Vec<f64>,
) {
    idx.clear();
    for (z, &tn) in t_new.iter().enumerate() {
        if (low && tn <= bound) || (!low && tn >= bound) {
            idx.push(z);
        }
    }
    if idx.is_empty() {
        return;
    }
    let k = idx.len();
    g.resize(k, 0.0);
    a.resize(k, 0.0);
    b.resize(k, 0.0);
    for (w, &z) in idx.iter().enumerate() {
        g[w] = t_orig[z];
    }
    batch_add_s(&g[..k], bound, &mut a[..k]);
    batch_mul_s(&a[..k], 0.5, &mut b[..k]);
    for (w, &z) in idx.iter().enumerate() {
        t_new[z] = b[w];
    }
}

/// Batched counterpart of [`invert_temperature`]: one Newton lockstep over
/// slices of `(rho, e_target)` states, bit- and counter-identical to
/// calling the scalar inversion per element under the tracked type.
///
/// Cells march in lockstep through the iteration; the only per-cell
/// control flow in the scalar loop is *when a cell stops* (convergence)
/// and the two range clamps, so the active set compacts as cells converge
/// and the clamp arithmetic runs gather/scatter on the crossing subset.
/// Per iteration the active cells evaluate the batched interpolant,
/// residual, derivative, and update with exactly the scalar op AST; a
/// cell that converges at iteration `it` has performed precisely the ops
/// the scalar early-return performs.
pub fn invert_temperature_batch(
    table: &EosTable,
    rho: &[f64],
    e_target: &[f64],
    t_guess: f64,
    cfg: &NewtonCfg,
    out: &mut [NewtonResult<f64>],
    ws: &mut NewtonScratch,
) {
    let n = rho.len();
    assert_eq!(e_target.len(), n);
    assert_eq!(out.len(), n);
    let _r = region("Eos/newton");
    let (t_lo, t_hi) = table.t_bounds();
    let mut t_cur = vec![t_guess; n];
    let mut resid = vec![f64::MAX; n];
    let mut active: Vec<usize> = (0..n).collect();
    for it in 0..cfg.max_iter {
        if active.is_empty() {
            break;
        }
        let m = active.len();
        ws.resize(m);
        for (z, &c) in active.iter().enumerate() {
            ws.rho_a[z] = rho[c];
            ws.e_a[z] = e_target[c];
            ws.t_a[z] = t_cur[c];
        }
        table.eint_of_batch(&ws.rho_a, &ws.t_a, &mut ws.e_v, &mut ws.interp);
        batch_sub(&ws.e_v, &ws.e_a, &mut ws.diff);
        batch_div(&ws.diff, &ws.e_a, &mut ws.rel);
        // Convergence partition: `|rel| < tol` exactly as the scalar test
        // (abs and compare are exact and uncounted; NaN stays active).
        let mut still: Vec<usize> = Vec::with_capacity(m);
        for z in 0..m {
            let r = ws.rel[z].abs();
            let c = active[z];
            resid[c] = r;
            if r < cfg.tol {
                out[c] = NewtonResult { t: t_cur[c], iters: it, converged: true, resid: r };
            } else {
                still.push(z);
            }
        }
        if still.len() < m {
            for (w, &z) in still.iter().enumerate() {
                ws.rho_a[w] = ws.rho_a[z];
                ws.t_a[w] = ws.t_a[z];
                ws.diff[w] = ws.diff[z];
            }
            active = still.iter().map(|&z| active[z]).collect();
        }
        let m = active.len();
        if m == 0 {
            break;
        }
        table.de_dt_batch(&ws.rho_a[..m], &ws.t_a[..m], &mut ws.dedt[..m], &mut ws.dedt_ws);
        batch_div(&ws.diff[..m], &ws.dedt[..m], &mut ws.stepv[..m]);
        batch_sub(&ws.t_a[..m], &ws.stepv[..m], &mut ws.t_new[..m]);
        // Damped update, clamped to the table range — low clamp first on
        // the raw update, then the high clamp on the (possibly low-
        // clamped) iterate, both halving toward the *original* t.
        clamp_half(
            &ws.t_a[..m],
            &mut ws.t_new[..m],
            t_lo,
            true,
            &mut ws.cl_idx,
            &mut ws.cl_t,
            &mut ws.cl_a,
            &mut ws.cl_b,
        );
        clamp_half(
            &ws.t_a[..m],
            &mut ws.t_new[..m],
            t_hi,
            false,
            &mut ws.cl_idx,
            &mut ws.cl_t,
            &mut ws.cl_a,
            &mut ws.cl_b,
        );
        for (z, &c) in active.iter().enumerate() {
            t_cur[c] = ws.t_new[z];
        }
    }
    for &c in &active {
        out[c] = NewtonResult {
            t: t_cur[c],
            iters: cfg.max_iter,
            converged: false,
            resid: resid[c],
        };
    }
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
        let mut out =
            vec![NewtonResult { t: 0.0f64, iters: 0, converged: false, resid: 0.0 }; n];
        let mut ws = NewtonScratch::default();
        invert_temperature_batch(&tab, &rho, &e, 1e8, &cfg, &mut out, &mut ws);
        for k in 0..n {
            let r = invert_temperature(&tab, rho[k], e[k], 1e8, &cfg);
            assert_eq!(out[k].t.to_bits(), r.t.to_bits(), "t k={k}");
            assert_eq!(out[k].iters, r.iters, "iters k={k}");
            assert_eq!(out[k].converged, r.converged, "converged k={k}");
        }
    }
}
