//! Interface reconstruction: piecewise-linear (PLM/minmod) and fifth-order
//! WENO (the scheme Flash-X's modular Spark solver uses, paper §6.3).
//!
//! Reconstruction is the `Hydro/recon` region for RAPTOR scoping — the
//! module the Table 2 experiment fences in and out of truncation.
//!
//! Each scheme is written once and runs on both sweep paths. The scalar
//! sweep calls [`plm_interface`] or [`weno5_interface`] per interface and
//! component, at `f64` or [`raptor_core::Tracked`]. The batch sweep builds
//! each component's stencil windows as [`raptor_core::batch::Col`]
//! columns over a whole block and runs [`plm_interface`] on them: it is
//! generic over [`Arith`], and its limiter is [`Arith::minmod`], an exact
//! selection that counts no op. [`weno5`] needs `powi`, so it stays on
//! [`Real`] as the scalar oracle of the fused column stencil the batch
//! sweep calls, [`raptor_core::batch::weno5`], which evaluates the same
//! op AST per element.

use raptor_core::{Arith, Real};

/// Reconstruction scheme.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReconKind {
    /// Piecewise-linear with minmod limiting (needs 2 guard cells).
    Plm,
    /// Fifth-order WENO (needs 3 guard cells).
    Weno5,
}

impl ReconKind {
    /// Guard-cell layers the stencil requires.
    pub fn guard_cells(self) -> usize {
        match self {
            ReconKind::Plm => 2,
            ReconKind::Weno5 => 3,
        }
    }
}

/// PLM: left/right states at interface i+1/2 from cells `[i-1, i, i+1, i+2]`.
///
/// `u` is a window of 4 cell values centred on the interface. Each side's
/// slope is the minmod of its two one-sided differences: the one smaller
/// in magnitude when both have one sign, else zero, so the limited
/// reconstruction creates no new extrema (`l0`, `l1`: the left state's
/// differences; `r0`, `r1`: the right state's).
#[inline]
pub fn plm_interface<R: Arith>(u: [R; 4]) -> (R, R) {
    let (l0, l1) = (u[1] - u[0], u[2] - u[1]);
    let (r0, r1) = (u[2] - u[1], u[3] - u[2]);
    let left = u[1] + R::half() * l0.minmod(l1);
    let right = u[2] - R::half() * r0.minmod(r1);
    (left, right)
}

/// WENO5 reconstruction of the *left* interface state at i+1/2 from the
/// five upwind-biased cells `[i-2, i-1, i, i+1, i+2]` (Jiang–Shu weights,
/// coefficient set shared with `incomp` via [`raptor_core::weno`]).
///
/// This is the scalar oracle for [`raptor_core::batch::weno5`]: the fused
/// kernel evaluates exactly this op AST per element, so the batch sweep
/// is bit-identical and counter-identical to this loop.
#[inline]
pub fn weno5<R: Real>(v: [R; 5]) -> R {
    use raptor_core::weno as w;
    let c13 = R::from_f64(w::C13_12);
    let quarter = R::from_f64(w::QUARTER);
    let eps = R::from_f64(w::EPS);

    let b0 = c13 * (v[0] - R::two() * v[1] + v[2]).powi(2)
        + quarter * (v[0] - R::from_f64(w::FOUR) * v[1] + R::from_f64(w::THREE) * v[2]).powi(2);
    let b1 = c13 * (v[1] - R::two() * v[2] + v[3]).powi(2) + quarter * (v[1] - v[3]).powi(2);
    let b2 = c13 * (v[2] - R::two() * v[3] + v[4]).powi(2)
        + quarter * (R::from_f64(w::THREE) * v[2] - R::from_f64(w::FOUR) * v[3] + v[4]).powi(2);

    let a0 = R::from_f64(w::W0) / (eps + b0).powi(2);
    let a1 = R::from_f64(w::W1) / (eps + b1).powi(2);
    let a2 = R::from_f64(w::W2) / (eps + b2).powi(2);
    let asum = a0 + a1 + a2;

    let p0 = R::from_f64(w::P_1_3) * v[0] - R::from_f64(w::P_7_6) * v[1]
        + R::from_f64(w::P_11_6) * v[2];
    let p1 = R::from_f64(w::P_M1_6) * v[1] + R::from_f64(w::P_5_6) * v[2]
        + R::from_f64(w::P_1_3) * v[3];
    let p2 = R::from_f64(w::P_1_3) * v[2] + R::from_f64(w::P_5_6) * v[3]
        - R::from_f64(w::P_1_6) * v[4];

    (a0 * p0 + a1 * p1 + a2 * p2) / asum
}

/// WENO5 left/right states at interface i+1/2 from the six cells
/// `[i-2 .. i+3]`.
#[inline]
pub fn weno5_interface<R: Real>(u: [R; 6]) -> (R, R) {
    let left = weno5([u[0], u[1], u[2], u[3], u[4]]);
    // Right state: mirror the stencil.
    let right = weno5([u[5], u[4], u[3], u[2], u[1]]);
    (left, right)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plm_exact_on_linear_data() {
        let u = [1.0f64, 2.0, 3.0, 4.0];
        let (l, r) = plm_interface(u);
        assert!((l - 2.5).abs() < 1e-14);
        assert!((r - 2.5).abs() < 1e-14);
    }

    #[test]
    fn plm_clips_at_extrema() {
        let u = [1.0f64, 3.0, 2.0, 4.0]; // non-monotone
        let (l, r) = plm_interface(u);
        // Slopes limited to zero at the local max.
        assert_eq!(l, 3.0);
        assert!(r <= 3.0 && r >= 1.0);
    }

    #[test]
    fn weno5_exact_on_smooth_polynomials() {
        // WENO5 reproduces the interface value of cell-averaged smooth
        // data to high order; for linear data it is exact.
        let f = |x: f64| 2.0 + 3.0 * x;
        let cells: Vec<f64> = (-2..=3).map(|i| f(i as f64)).collect();
        let (l, r) = weno5_interface([cells[0], cells[1], cells[2], cells[3], cells[4], cells[5]]);
        let want = f(0.5);
        assert!((l - want).abs() < 1e-10, "left {l} want {want}");
        assert!((r - want).abs() < 1e-10, "right {r} want {want}");
    }

    #[test]
    fn weno5_non_oscillatory_at_step() {
        // Reconstruction at a discontinuity stays within data bounds.
        let u = [1.0f64, 1.0, 1.0, 0.0, 0.0, 0.0];
        let (l, r) = weno5_interface(u);
        assert!(l <= 1.0 + 1e-12 && l >= -1e-12, "left {l}");
        assert!(r <= 1.0 + 1e-12 && r >= -1e-12, "right {r}");
        // Left state biased to the left plateau, right to the right.
        assert!(l > 0.9);
        assert!(r < 0.1);
    }

    /// The fused batch kernel and this module's scalar AST must stay
    /// op-for-op identical — checked bitwise on the hardware tier (no
    /// session), where any drift in either expression shows up.
    #[test]
    fn batch_kernel_matches_scalar_weno5_bitwise() {
        use raptor_core::batch::{self, Col};
        let w: Vec<f64> = (0..37)
            .map(|i| (i as f64 * 0.71).sin() * (1.0 + 0.3 * (i as f64 * 1.3).cos()))
            .collect();
        let n = w.len() - 5;
        let _cols = batch::scope(n);
        let v = [0, 1, 2, 3, 4].map(|s| Col::from_slice(&w[s..s + n]));
        let out = batch::weno5(v).read(<[f64]>::to_vec);
        for i in 0..n {
            let want = weno5([w[i], w[i + 1], w[i + 2], w[i + 3], w[i + 4]]);
            assert_eq!(out[i].to_bits(), want.to_bits(), "lane {i}");
        }
    }

    #[test]
    fn generic_matches_f64_with_tracked_untruncated() {
        use raptor_core::{Arith, Tracked};
        let u = [0.3f64, 0.7, 1.1, 0.9, 0.2, 0.4];
        let (l, r) = weno5_interface(u);
        let ut = u.map(Tracked::from_f64);
        let (lt, rt) = weno5_interface(ut);
        assert_eq!(l.to_bits(), lt.to_f64().to_bits());
        assert_eq!(r.to_bits(), rt.to_f64().to_bits());
    }
}
