//! A table-based stellar equation of state — the Helmholtz-EOS substitute.
//!
//! Flash-X's Cellular detonation uses "a table of Helmholtz free energy
//! with discrete values, and extrapolates them to match the conditions in
//! the domain" (paper §4.2). We reproduce the numerically relevant
//! structure: thermodynamic quantities are *tabulated* on a log-spaced
//! (ρ, T) grid and everything the solver needs is produced by interpolating
//! the table — including the Newton–Raphson temperature inversion whose
//! truncation sensitivity falsifies Hypothesis 2.
//!
//! The underlying physics model is an ideal ion gas plus radiation
//! pressure (a standard stellar interior approximation):
//!
//! ```text
//! e(ρ, T) = cv·T + a·T⁴/ρ        p(ρ, T) = R·ρ·T + (a/3)·T⁴
//! ```
//!
//! The table is generated from these closed forms, then *only* the sampled
//! values are used — like the real Helmholtz table, the interpolant is the
//! ground truth the solver sees.

use raptor_core::batch::{
    batch_add, batch_div, batch_div_s, batch_log10, batch_mul, batch_mul_s, batch_rmul_s,
    batch_sub,
};
use raptor_core::Real;

/// Ideal-gas constant over mean molecular weight (erg / (g K), mu = 1).
pub const GAS_CONST: f64 = 8.314e7;
/// Radiation constant a (erg / (cm^3 K^4)).
pub const RAD_CONST: f64 = 7.5646e-15;
/// Ion specific heat at constant volume (erg / (g K)).
pub const CV_ION: f64 = 1.5 * GAS_CONST; // lint: allow(native-float, compile-time constant)

/// Analytic model backing the table (used for generation and for tests).
// lint: allow(native-float, analytic reference model evaluated at table build time and in oracles; never on the tracked path)
pub fn model_eint(rho: f64, t: f64) -> f64 {
    CV_ION * t + RAD_CONST * t.powi(4) / rho
}

/// Analytic pressure.
// lint: allow(native-float, analytic reference model evaluated at table build time and in oracles; never on the tracked path)
pub fn model_pres(rho: f64, t: f64) -> f64 {
    GAS_CONST * rho * t + RAD_CONST / 3.0 * t.powi(4)
}

/// The tabulated EOS.
#[derive(Clone, Debug)]
pub struct EosTable {
    /// log10(rho) grid.
    pub lrho: Vec<f64>,
    /// log10(T) grid.
    pub ltemp: Vec<f64>,
    /// Specific internal energy at grid points, `e[it * nrho + ir]`.
    pub e: Vec<f64>,
    /// Pressure at grid points.
    pub p: Vec<f64>,
}

impl EosTable {
    /// Generate a table over `[rho_lo, rho_hi] x [t_lo, t_hi]` (log-spaced).
    // lint: allow(native-float, one-time table construction; the tabulated values are data, not tracked ops)
    pub fn generate(
        rho_range: (f64, f64),
        t_range: (f64, f64),
        nrho: usize,
        ntemp: usize,
    ) -> EosTable {
        assert!(nrho >= 4 && ntemp >= 4);
        let lr0 = rho_range.0.log10();
        let lr1 = rho_range.1.log10();
        let lt0 = t_range.0.log10();
        let lt1 = t_range.1.log10();
        let lrho: Vec<f64> = (0..nrho)
            .map(|i| lr0 + (lr1 - lr0) * i as f64 / (nrho - 1) as f64)
            .collect();
        let ltemp: Vec<f64> = (0..ntemp)
            .map(|i| lt0 + (lt1 - lt0) * i as f64 / (ntemp - 1) as f64)
            .collect();
        let mut e = Vec::with_capacity(nrho * ntemp);
        let mut p = Vec::with_capacity(nrho * ntemp);
        for &lt in &ltemp {
            for &lr in &lrho {
                let rho = 10f64.powf(lr);
                let t = 10f64.powf(lt);
                e.push(model_eint(rho, t));
                p.push(model_pres(rho, t));
            }
        }
        EosTable { lrho, ltemp, e, p }
    }

    /// Default Cellular-regime table: ρ ∈ [1e4, 1e9] g/cc, T ∈ [1e7, 1e10] K.
    pub fn cellular_default() -> EosTable {
        EosTable::generate((1e4, 1e9), (1e7, 1e10), 61, 61)
    }

    // lint: allow(native-float, index/fraction locate on the fixed log grid: table geometry; the bilinear blend in interp is Tracked)
    fn grid_pos(grid: &[f64], v: f64) -> (usize, f64) {
        let n = grid.len();
        let lo = grid[0];
        let hi = grid[n - 1];
        let step = (hi - lo) / (n - 1) as f64;
        let f = ((v - lo) / step).clamp(0.0, (n - 1) as f64 - 1e-9);
        let i = (f as usize).min(n - 2);
        (i, f - i as f64)
    }

    /// Bilinear interpolation of a tabulated quantity at (ρ, T), performed
    /// in the instrumented number type `R` — every arithmetic operation of
    /// the table lookup is visible to (and truncatable by) RAPTOR, exactly
    /// like the compiled Helmholtz interpolation kernels.
    fn interp<R: Real>(&self, table: &[f64], rho: R, t: R) -> R {
        // Log-grid coordinates: the logs themselves are computed in R.
        let lr = rho.log10();
        let lt = t.log10();
        let (ir, fr) = Self::grid_pos(&self.lrho, lr.to_f64());
        let (it, ft) = Self::grid_pos(&self.ltemp, lt.to_f64());
        let nrho = self.lrho.len();
        let v00 = R::from_f64(table[it * nrho + ir]);
        let v01 = R::from_f64(table[it * nrho + ir + 1]);
        let v10 = R::from_f64(table[(it + 1) * nrho + ir]);
        let v11 = R::from_f64(table[(it + 1) * nrho + ir + 1]);
        // Fractional offsets recomputed in R from the R-valued logs so the
        // interpolation weights carry truncation error like the original.
        let gr0 = R::from_f64(self.lrho[ir]);
        let gr_step = R::from_f64(self.lrho[1] - self.lrho[0]);
        let gt0 = R::from_f64(self.ltemp[it]);
        let gt_step = R::from_f64(self.ltemp[1] - self.ltemp[0]);
        let wr = ((lr - gr0) / gr_step).max(R::zero()).min(R::one());
        let wt = ((lt - gt0) / gt_step).max(R::zero()).min(R::one());
        let _ = (fr, ft);
        let lo = v00 + (v01 - v00) * wr;
        let hi = v10 + (v11 - v10) * wr;
        lo + (hi - lo) * wt
    }

    /// Interpolated specific internal energy e(ρ, T).
    pub fn eint_of<R: Real>(&self, rho: R, t: R) -> R {
        self.interp(&self.e, rho, t)
    }

    /// Interpolated pressure p(ρ, T).
    pub fn pres_of<R: Real>(&self, rho: R, t: R) -> R {
        self.interp(&self.p, rho, t)
    }

    /// Discrete temperature derivative of e at (ρ, T): central difference
    /// of the interpolant (what a table-based Newton iteration uses).
    pub fn de_dt<R: Real>(&self, rho: R, t: R) -> R {
        let h = t * R::from_f64(1e-4);
        let ep = self.eint_of(rho, t + h);
        let em = self.eint_of(rho, t - h);
        (ep - em) / (R::two() * h)
    }

    /// Temperature bounds of the table.
    // lint: allow(native-float, table metadata: bounds recovered from the stored log grid)
    pub fn t_bounds(&self) -> (f64, f64) {
        (10f64.powf(self.ltemp[0]), 10f64.powf(*self.ltemp.last().unwrap()))
    }

    /// Batched bilinear interpolation over raw `f64` slices: the exact op
    /// AST of [`Self::interp`] per element (2 log10, then the corner
    /// weighted sums), evaluated slice-at-a-time through
    /// [`raptor_core::batch`]. The corner gather and the `clamp01` weight
    /// selects are exact and uncounted, like the scalar `max`/`min` pair.
    fn interp_batch(
        &self,
        table: &[f64],
        rho: &[f64],
        t: &[f64],
        out: &mut [f64],
        ws: &mut InterpScratch,
    ) {
        let n = rho.len();
        assert_eq!(t.len(), n);
        assert_eq!(out.len(), n);
        ws.resize(n);
        batch_log10(rho, &mut ws.lr);
        batch_log10(t, &mut ws.lt);
        let nrho = self.lrho.len();
        for k in 0..n {
            let (ir, _) = Self::grid_pos(&self.lrho, ws.lr[k]);
            let (it, _) = Self::grid_pos(&self.ltemp, ws.lt[k]);
            ws.v00[k] = table[it * nrho + ir];
            ws.v01[k] = table[it * nrho + ir + 1];
            ws.v10[k] = table[(it + 1) * nrho + ir];
            ws.v11[k] = table[(it + 1) * nrho + ir + 1];
            ws.gr0[k] = self.lrho[ir];
            ws.gt0[k] = self.ltemp[it];
        }
        let gr_step = self.lrho[1] - self.lrho[0];
        let gt_step = self.ltemp[1] - self.ltemp[0];
        batch_sub(&ws.lr, &ws.gr0, &mut ws.t1);
        batch_div_s(&ws.t1, gr_step, &mut ws.wr);
        clamp01(&mut ws.wr);
        batch_sub(&ws.lt, &ws.gt0, &mut ws.t1);
        batch_div_s(&ws.t1, gt_step, &mut ws.wt);
        clamp01(&mut ws.wt);
        // lo = v00 + (v01 - v00) * wr ; hi = v10 + (v11 - v10) * wr.
        batch_sub(&ws.v01, &ws.v00, &mut ws.t1);
        batch_mul(&ws.t1, &ws.wr, &mut ws.t2);
        batch_add(&ws.v00, &ws.t2, &mut ws.lo);
        batch_sub(&ws.v11, &ws.v10, &mut ws.t1);
        batch_mul(&ws.t1, &ws.wr, &mut ws.t2);
        batch_add(&ws.v10, &ws.t2, &mut ws.hi);
        // out = lo + (hi - lo) * wt.
        batch_sub(&ws.hi, &ws.lo, &mut ws.t1);
        batch_mul(&ws.t1, &ws.wt, &mut ws.t2);
        batch_add(&ws.lo, &ws.t2, out);
    }

    /// Batched [`Self::eint_of`]: bit- and counter-identical to the scalar
    /// interpolation per element under the tracked number type.
    pub fn eint_of_batch(&self, rho: &[f64], t: &[f64], out: &mut [f64], ws: &mut InterpScratch) {
        self.interp_batch(&self.e, rho, t, out, ws);
    }

    /// Batched [`Self::pres_of`].
    pub fn pres_of_batch(&self, rho: &[f64], t: &[f64], out: &mut [f64], ws: &mut InterpScratch) {
        self.interp_batch(&self.p, rho, t, out, ws);
    }

    /// Batched [`Self::de_dt`]: the central-difference derivative with the
    /// scalar op AST per element (`h = t * 1e-4`, two interpolations at
    /// `t ± h`, `(ep - em) / (2 h)`).
    pub fn de_dt_batch(&self, rho: &[f64], t: &[f64], out: &mut [f64], ws: &mut DeDtScratch) {
        let n = rho.len();
        assert_eq!(t.len(), n);
        assert_eq!(out.len(), n);
        ws.resize(n);
        batch_mul_s(t, 1e-4, &mut ws.h);
        batch_add(t, &ws.h, &mut ws.tp);
        batch_sub(t, &ws.h, &mut ws.tm);
        self.interp_batch(&self.e, rho, &ws.tp, &mut ws.ep, &mut ws.interp);
        self.interp_batch(&self.e, rho, &ws.tm, &mut ws.em, &mut ws.interp);
        batch_sub(&ws.ep, &ws.em, &mut ws.num);
        batch_rmul_s(2.0, &ws.h, &mut ws.den);
        batch_div(&ws.num, &ws.den, out);
    }
}

/// The scalar AST's `.max(0).min(1)` weight clamp: exact, uncounted
/// selects (a NaN weight passes through unchanged, as in the scalar pair).
// Written as the scalar path's two selects, not `f64::clamp`, so the
// comparison order stays literally identical to the oracle loop.
#[allow(clippy::manual_clamp)]
fn clamp01(w: &mut [f64]) {
    for x in w.iter_mut() {
        if 0.0 > *x {
            *x = 0.0;
        }
        if 1.0 < *x {
            *x = 1.0;
        }
    }
}

/// Scratch buffers for [`EosTable::eint_of_batch`] /
/// [`EosTable::pres_of_batch`] — reused across calls so the per-row fast
/// path allocates nothing in steady state.
#[derive(Default)]
pub struct InterpScratch {
    lr: Vec<f64>,
    lt: Vec<f64>,
    v00: Vec<f64>,
    v01: Vec<f64>,
    v10: Vec<f64>,
    v11: Vec<f64>,
    gr0: Vec<f64>,
    gt0: Vec<f64>,
    wr: Vec<f64>,
    wt: Vec<f64>,
    t1: Vec<f64>,
    t2: Vec<f64>,
    lo: Vec<f64>,
    hi: Vec<f64>,
}

impl InterpScratch {
    fn resize(&mut self, n: usize) {
        for v in [
            &mut self.lr,
            &mut self.lt,
            &mut self.v00,
            &mut self.v01,
            &mut self.v10,
            &mut self.v11,
            &mut self.gr0,
            &mut self.gt0,
            &mut self.wr,
            &mut self.wt,
            &mut self.t1,
            &mut self.t2,
            &mut self.lo,
            &mut self.hi,
        ] {
            v.resize(n, 0.0);
        }
    }
}

/// Scratch buffers for [`EosTable::de_dt_batch`].
#[derive(Default)]
pub struct DeDtScratch {
    h: Vec<f64>,
    tp: Vec<f64>,
    tm: Vec<f64>,
    ep: Vec<f64>,
    em: Vec<f64>,
    num: Vec<f64>,
    den: Vec<f64>,
    /// Inner interpolation scratch (field-disjoint from the buffers above
    /// so the two `interp_batch` calls borrow-split).
    interp: InterpScratch,
}

impl DeDtScratch {
    fn resize(&mut self, n: usize) {
        for v in [
            &mut self.h,
            &mut self.tp,
            &mut self.tm,
            &mut self.ep,
            &mut self.em,
            &mut self.num,
            &mut self.den,
        ] {
            v.resize(n, 0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_matches_model_at_grid_points() {
        let tab = EosTable::generate((1e5, 1e8), (1e7, 1e9), 21, 21);
        let rho = 10f64.powf(tab.lrho[5]);
        let t = 10f64.powf(tab.ltemp[7]);
        let e = tab.eint_of(rho, t);
        assert!((e - model_eint(rho, t)).abs() / e < 1e-10, "{e} vs {}", model_eint(rho, t));
        let p = tab.pres_of(rho, t);
        assert!((p - model_pres(rho, t)).abs() / p < 1e-10);
    }

    #[test]
    fn interpolation_error_is_small_between_points() {
        let tab = EosTable::cellular_default();
        let rho = 3.3e6;
        let t = 4.7e8;
        let e = tab.eint_of(rho, t);
        let rel = (e - model_eint(rho, t)).abs() / model_eint(rho, t);
        assert!(rel < 2e-2, "bilinear-in-log error {rel}");
    }

    #[test]
    fn de_dt_positive_and_reasonable() {
        let tab = EosTable::cellular_default();
        let rho = 1e6;
        let t = 1e8;
        let d = tab.de_dt(rho, t);
        assert!(d > 0.0);
        // Analytic: cv + 4 a T^3 / rho.
        let want = CV_ION + 4.0 * RAD_CONST * t.powi(3) / rho;
        assert!((d - want).abs() / want < 0.1, "{d} vs {want}");
    }

    #[test]
    fn clamping_at_table_edges() {
        let tab = EosTable::cellular_default();
        // Out-of-range queries clamp instead of exploding.
        let e_low = tab.eint_of(1.0, 1e6);
        let e_hi = tab.eint_of(1e12, 1e11);
        assert!(e_low.is_finite() && e_low > 0.0);
        assert!(e_hi.is_finite() && e_hi > 0.0);
    }

    /// Tentpole bit-identity for the EOS consumer layer: the batched
    /// interpolation and central-difference derivative must match the
    /// scalar ASTs bit for bit and op count for op count — across
    /// kernel-table formats (one of them the guarded (11,20)), a wide
    /// format that takes the per-element fallback tier ((11,30)), and
    /// directed rounding (which also bypasses the double-rounding
    /// shortcut). Sample states run past both table edges
    /// so the clamped weight selects are exercised.
    #[test]
    fn batch_interp_bit_identical_and_counter_parity() {
        use bigfloat::Format;
        use raptor_core::{Arith, Config, RoundMode, Session, Tracked};
        let tab = EosTable::cellular_default();
        let n = 40;
        let rho: Vec<f64> = (0..n)
            .map(|k| 10f64.powf(3.0 + 0.2 * k as f64 / 1.0) * (1.0 + 0.013 * k as f64))
            .collect();
        let t: Vec<f64> = (0..n)
            .map(|k| 10f64.powf(6.5 + 0.12 * k as f64) * (1.0 + 0.007 * k as f64))
            .collect();
        let mut directed = Config::op_all(Format::new(11, 12));
        directed.round = RoundMode::TowardZero;
        let configs = vec![
            Config::op_all(Format::new(5, 10)),
            Config::op_all(Format::new(11, 12)),
            Config::op_all(Format::new(11, 20)),
            Config::op_all(Format::new(11, 30)),
            directed,
        ];
        for cfg in configs {
            let fmt = cfg.format;
            // Scalar reference: per-element tracked interpolation.
            let sess_s = Session::new(cfg.clone().with_counting()).unwrap();
            let (want_e, want_d) = {
                let _g = sess_s.install();
                let e: Vec<f64> = (0..n)
                    .map(|k| {
                        tab.eint_of(Tracked::from_f64(rho[k]), Tracked::from_f64(t[k])).to_f64()
                    })
                    .collect();
                let d: Vec<f64> = (0..n)
                    .map(|k| {
                        tab.de_dt(Tracked::from_f64(rho[k]), Tracked::from_f64(t[k])).to_f64()
                    })
                    .collect();
                (e, d)
            };
            // Batched run under an identical fresh session.
            let sess_b = Session::new(cfg.with_counting()).unwrap();
            let mut got_e = vec![0.0; n];
            let mut got_d = vec![0.0; n];
            {
                let _g = sess_b.install();
                let mut iws = InterpScratch::default();
                let mut dws = DeDtScratch::default();
                tab.eint_of_batch(&rho, &t, &mut got_e, &mut iws);
                tab.de_dt_batch(&rho, &t, &mut got_d, &mut dws);
            }
            for k in 0..n {
                assert_eq!(
                    got_e[k].to_bits(),
                    want_e[k].to_bits(),
                    "{fmt:?} eint lane {k}: {} vs {}",
                    got_e[k],
                    want_e[k]
                );
                assert_eq!(
                    got_d[k].to_bits(),
                    want_d[k].to_bits(),
                    "{fmt:?} de_dt lane {k}: {} vs {}",
                    got_d[k],
                    want_d[k]
                );
            }
            let (cs, cb) = (sess_s.counters(), sess_b.counters());
            assert_eq!(cs, cb, "{fmt:?}: op counters must match exactly");
            // eint: 2 log10s per element; de_dt: 4 more inside the two
            // interpolations at t ± h.
            assert_eq!(cb.trunc.math, 6 * n as u64, "{fmt:?}: log10 census");
            assert!(cb.trunc.div > 0, "{fmt:?}: weight divisions counted");
        }
    }

    #[test]
    fn truncated_interpolation_is_coarser() {
        use bigfloat::Format;
        use raptor_core::{Arith, Config, Session, Tracked};
        let tab = EosTable::cellular_default();
        let full: f64 = tab.eint_of(2.5e6, 3.1e8);
        let sess = Session::new(Config::op_all(Format::new(11, 8))).unwrap();
        let _g = sess.install();
        let coarse = tab.eint_of(Tracked::from_f64(2.5e6), Tracked::from_f64(3.1e8)).to_f64();
        let rel = (coarse - full).abs() / full;
        assert!(rel > 1e-6, "8-bit lookup must deviate: {rel}");
        assert!(rel < 1e-1, "but not wildly: {rel}");
    }

    /// Batch-pairing twin: `pres_of_batch` against scalar `pres_of`, bit
    /// for bit per element, including clamped off-table states.
    #[test]
    fn pres_of_batch_bit_identical_to_scalar() {
        let tab = EosTable::cellular_default();
        let n = 33;
        let rho: Vec<f64> = (0..n)
            .map(|k| 10f64.powf(3.0 + 0.2 * k as f64) * (1.0 + 0.013 * k as f64))
            .collect();
        let t: Vec<f64> = (0..n)
            .map(|k| 10f64.powf(6.5 + 0.12 * k as f64) * (1.0 + 0.007 * k as f64))
            .collect();
        let mut out = vec![0.0; n];
        let mut ws = InterpScratch::default();
        tab.pres_of_batch(&rho, &t, &mut out, &mut ws);
        for k in 0..n {
            let want: f64 = tab.pres_of(rho[k], t[k]);
            assert_eq!(out[k].to_bits(), want.to_bits(), "k={k}");
        }
    }
}
