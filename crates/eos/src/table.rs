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

use raptor_core::batch::Col;
use raptor_core::{Arith, Real};

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

    // lint: allow(native-float, index locate on the fixed log grid: table geometry; the bilinear blend is Tracked)
    fn grid_index(grid: &[f64], v: f64) -> usize {
        let n = grid.len();
        let lo = grid[0];
        let hi = grid[n - 1];
        let step = (hi - lo) / (n - 1) as f64;
        let f = ((v - lo) / step).clamp(0.0, (n - 1) as f64 - 1e-9);
        (f as usize).min(n - 2)
    }

    /// The grid cell of the log coordinates `(lr, lt)`: its corner values
    /// in `vals` (`v00, v01, v10, v11`) and its grid origin (`gr0, gt0`).
    fn cell(&self, vals: &[f64], lr: f64, lt: f64) -> [f64; 6] {
        let ir = Self::grid_index(&self.lrho, lr);
        let it = Self::grid_index(&self.ltemp, lt);
        let at = |it: usize, ir: usize| vals[it * self.lrho.len() + ir];
        [at(it, ir), at(it, ir + 1), at(it + 1, ir), at(it + 1, ir + 1), self.lrho[ir], self.ltemp[it]]
    }

    /// The bilinear blend of a located query: weights from the `R`-valued
    /// logs (so they carry truncation error like the original kernels),
    /// clamped to `[0, 1]` by exact selects, then the corner sums.
    fn blend<R: Arith>(&self, s: Stencil<R>) -> R {
        let gr_step = R::from_f64(self.lrho[1] - self.lrho[0]);
        let gt_step = R::from_f64(self.ltemp[1] - self.ltemp[0]);
        let wr = ((s.lr - s.gr0) / gr_step).max(R::zero()).min(R::one());
        let wt = ((s.lt - s.gt0) / gt_step).max(R::zero()).min(R::one());
        let [v00, v01, v10, v11] = s.v;
        let lo = v00 + (v01 - v00) * wr;
        let hi = v10 + (v11 - v10) * wr;
        lo + (hi - lo) * wt
    }

    /// Temperature bounds of the table.
    // lint: allow(native-float, table metadata: bounds recovered from the stored log grid)
    pub fn t_bounds(&self) -> (f64, f64) {
        (10f64.powf(self.ltemp[0]), 10f64.powf(*self.ltemp.last().unwrap()))
    }
}

/// A query located on the table: its log coordinates, the four corner
/// values of its grid cell (`[v00, v01, v10, v11]`) and the cell's grid
/// origin, ready for the bilinear blend.
pub struct Stencil<R> {
    lr: R,
    lt: R,
    v: [R; 4],
    gr0: R,
    gt0: R,
}

/// The table as the [`Arith`]-generic kernels see it at one value type:
/// [`EosTable`] itself at every [`Real`], one query at a time, and
/// [`TableCols`] at [`Col`], a whole column of queries at once. Only the
/// locate step differs; the interpolation, the derivative and the Newton
/// arithmetic on top of it are written once.
pub trait TableView<R: Arith> {
    /// The table.
    fn table(&self) -> &EosTable;

    /// Locate `(rho, T)` for a lookup in `vals`: `log10` of both in `R`,
    /// then the corner and grid-origin gather.
    fn locate(&self, vals: &[f64], rho: R, t: R) -> Stencil<R>;

    /// Bilinear interpolation of a tabulated quantity at (ρ, T) in the
    /// value type `R` — every arithmetic operation of the table lookup is
    /// visible to (and truncatable by) RAPTOR, exactly like the compiled
    /// Helmholtz interpolation kernels.
    fn interp(&self, vals: &[f64], rho: R, t: R) -> R {
        self.table().blend(self.locate(vals, rho, t))
    }

    /// Interpolated specific internal energy e(ρ, T).
    fn eint_of(&self, rho: R, t: R) -> R {
        self.interp(&self.table().e, rho, t)
    }

    /// Interpolated pressure p(ρ, T).
    fn pres_of(&self, rho: R, t: R) -> R {
        self.interp(&self.table().p, rho, t)
    }

    /// Discrete temperature derivative of e at (ρ, T): central difference
    /// of the interpolant (what a table-based Newton iteration uses).
    fn de_dt(&self, rho: R, t: R) -> R {
        let h = t * R::from_f64(1e-4);
        let ep = self.eint_of(rho, t + h);
        let em = self.eint_of(rho, t - h);
        (ep - em) / (R::two() * h)
    }
}

impl<R: Real> TableView<R> for EosTable {
    fn table(&self) -> &EosTable {
        self
    }

    fn locate(&self, vals: &[f64], rho: R, t: R) -> Stencil<R> {
        let lr = rho.log10();
        let lt = t.log10();
        let [v00, v01, v10, v11, gr0, gt0] = self.cell(vals, lr.to_f64(), lt.to_f64()).map(R::from_f64);
        Stencil { lr, lt, v: [v00, v01, v10, v11], gr0, gt0 }
    }
}

/// An [`EosTable`] viewed at [`Col`]: each query of the current column
/// scope is located in one pass over the columns.
pub struct TableCols<'a>(pub &'a EosTable);

impl TableView<Col> for TableCols<'_> {
    fn table(&self) -> &EosTable {
        self.0
    }

    fn locate(&self, vals: &[f64], rho: Col, t: Col) -> Stencil<Col> {
        let lr = rho.log10();
        let lt = t.log10();
        let [v00, v01, v10, v11, gr0, gt0] = Col::new_many(|mut cols: [&mut [f64]; 6]| {
            lr.read(|lr| {
                lt.read(|lt| {
                    for (k, (&r, &t)) in lr.iter().zip(lt).enumerate() {
                        for (col, x) in cols.iter_mut().zip(self.0.cell(vals, r, t)) {
                            col[k] = x;
                        }
                    }
                })
            })
        });
        Stencil { lr, lt, v: [v00, v01, v10, v11], gr0, gt0 }
    }
}

#[cfg(test)]
pub(crate) mod tests {
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

    /// The batch-vs-scalar configurations, each built by `op` from its
    /// format: e5m10,
    /// the per-element fallback e11m30, and the hydro sweep differential's
    /// six — e11m12 and the guarded e11m20 and e11m22 (all on the batch
    /// fast tier), e11m12 on the Big path, e11m12 rounding
    /// toward zero (which also bypasses the double-rounding short-cut),
    /// and FP32 through `Auto` (the Native rung).
    pub(crate) fn differential_configs(
        op: impl Fn(raptor_core::Format) -> raptor_core::Config,
    ) -> Vec<(&'static str, raptor_core::Config)> {
        use raptor_core::{EmulPath, Format, RoundMode};
        let e11m12 = Format::new(11, 12);
        let mut toward_zero = op(e11m12);
        toward_zero.round = RoundMode::TowardZero;
        let configs = vec![
            ("e5m10", op(Format::new(5, 10))),
            ("e11m12", op(e11m12)),
            ("e11m20", op(Format::new(11, 20))),
            ("e11m22", op(Format::new(11, 22))),
            ("e11m30", op(Format::new(11, 30))),
            ("e11m12-big", op(e11m12).with_path(EmulPath::Big)),
            ("e11m12-rz", toward_zero),
            ("fp32-auto", op(Format::FP32)),
        ];
        assert_eq!(configs[7].1.resolved_path(), EmulPath::Native);
        configs
    }

    pub(crate) fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Tentpole bit-identity for the EOS consumer layer: the batched
    /// interpolation and central-difference derivative must match the
    /// scalar ASTs bit for bit and op count for op count under every
    /// differential configuration. A ramp and a seeded log-uniform cloud
    /// of states run past every table edge, so the weights clamp at 0 and
    /// at 1 on both axes.
    #[test]
    fn batch_interp_bit_identical_and_counter_parity() {
        use raptor_core::{Arith, Session, Tracked};
        let tab = EosTable::cellular_default();
        let (mut rho, mut t): (Vec<f64>, Vec<f64>) = (0..40)
            .map(|k| {
                let k = k as f64;
                (10f64.powf(3.0 + 0.2 * k) * (1.0 + 0.013 * k), 10f64.powf(6.5 + 0.12 * k) * (1.0 + 0.007 * k))
            })
            .unzip();
        let mut s = 0xE05u64;
        let mut unit = || (splitmix(&mut s) >> 11) as f64 / (1u64 << 53) as f64;
        for _ in 0..60 {
            rho.push(10f64.powf(3.0 + 7.0 * unit()));
            t.push(10f64.powf(6.0 + 5.0 * unit()));
        }
        let n = rho.len();
        // Coverage: below and above the grid on both axes.
        for (name, v, grid) in [("rho", &rho, &tab.lrho), ("T", &t, &tab.ltemp)] {
            let (lo, hi) = (grid[0], grid[grid.len() - 1]);
            assert!(v.iter().any(|x| x.log10() < lo), "{name}: below the table");
            assert!(v.iter().any(|x| x.log10() > hi), "{name}: above the table");
        }
        for (name, cfg) in differential_configs(raptor_core::Config::op_all) {
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
            let (got_e, got_d) = {
                let _g = sess_b.install();
                let _cols = raptor_core::batch::scope(n);
                let (rho, t) = (Col::from_slice(&rho), Col::from_slice(&t));
                let view = TableCols(&tab);
                (view.eint_of(rho, t).read(<[f64]>::to_vec), view.de_dt(rho, t).read(<[f64]>::to_vec))
            };
            for k in 0..n {
                assert_eq!(
                    got_e[k].to_bits(),
                    want_e[k].to_bits(),
                    "{name} eint lane {k}: {} vs {}",
                    got_e[k],
                    want_e[k]
                );
                assert_eq!(
                    got_d[k].to_bits(),
                    want_d[k].to_bits(),
                    "{name} de_dt lane {k}: {} vs {}",
                    got_d[k],
                    want_d[k]
                );
            }
            let (cs, cb) = (sess_s.counters(), sess_b.counters());
            assert_eq!(cs, cb, "{name}: op counters must match exactly");
            // eint: 2 log10s per element; de_dt: 4 more inside the two
            // interpolations at t ± h.
            assert_eq!(cb.trunc.math, 6 * n as u64, "{name}: log10 census");
            assert!(cb.trunc.div > 0, "{name}: weight divisions counted");
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

    /// Column twin: `pres_of` at `Col` against scalar `pres_of`, bit for
    /// bit per element, including clamped off-table states.
    #[test]
    fn pres_of_cols_bit_identical_to_scalar() {
        let tab = EosTable::cellular_default();
        let n = 33;
        let rho: Vec<f64> = (0..n)
            .map(|k| 10f64.powf(3.0 + 0.2 * k as f64) * (1.0 + 0.013 * k as f64))
            .collect();
        let t: Vec<f64> = (0..n)
            .map(|k| 10f64.powf(6.5 + 0.12 * k as f64) * (1.0 + 0.007 * k as f64))
            .collect();
        let _cols = raptor_core::batch::scope(n);
        let out = TableCols(&tab).pres_of(Col::from_slice(&rho), Col::from_slice(&t)).read(<[f64]>::to_vec);
        for k in 0..n {
            let want: f64 = tab.pres_of(rho[k], t[k]);
            assert_eq!(out[k].to_bits(), want.to_bits(), "k={k}");
        }
    }
}
