//! Fractional-step projection solver for incompressible two-phase flow
//! with a level-set interface — the Flash-X incompressible-multiphase
//! substitute (paper §4.2: "a fractional-step projection method to evolve
//! the velocity field and a sharp-interface ghost fluid method ...; the
//! advection terms are discretized using a fifth-order WENO scheme, while
//! a second-order central difference scheme is used for diffusion").
//!
//! Substitutions (documented in DESIGN.md): smoothed two-phase properties
//! instead of ghost-fluid sharp jumps, and a collocated grid. The
//! truncation targets are identical: the **advection** (`INS/advection`)
//! and **diffusion** (`INS/diffusion`) operators, scoped per cell by the
//! AMR-level map. The pressure Poisson solve is the Hypre-substitute
//! multigrid and — like the real Hypre — is an external library RAPTOR
//! never truncates.

use crate::mg::{Field, Poisson};
use raptor_core::batch::{self, Col};
use raptor_core::{region, set_level, Arith, Real, Session};

/// Uniform grid with ghost layers carrying the flow state.
#[derive(Clone, Debug)]
pub struct Grid {
    /// Interior cells in x.
    pub nx: usize,
    /// Interior cells in y.
    pub ny: usize,
    /// Ghost layers (3 for WENO5).
    pub ng: usize,
    /// Cell size (isotropic).
    pub h: f64,
    /// Domain origin (lower-left corner).
    pub origin: (f64, f64),
    /// x-velocity (padded).
    pub u: Vec<f64>,
    /// y-velocity (padded).
    pub v: Vec<f64>,
    /// Level-set function (padded); `phi > 0` is the air phase.
    pub phi: Vec<f64>,
    /// Pressure (interior only, row-major, from the last projection).
    pub p: Field,
}

impl Grid {
    /// Allocate a quiescent grid.
    pub fn new(nx: usize, ny: usize, h: f64, origin: (f64, f64)) -> Grid {
        let ng = 3;
        let n = (nx + 2 * ng) * (ny + 2 * ng);
        Grid {
            nx,
            ny,
            ng,
            h,
            origin,
            u: vec![0.0; n],
            v: vec![0.0; n],
            phi: vec![0.0; n],
            p: Field::zeros(nx, ny),
        }
    }

    /// Padded flat index.
    #[inline]
    pub fn at(&self, i: isize, j: isize) -> usize {
        let s = self.nx + 2 * self.ng;
        ((j + self.ng as isize) as usize) * s + (i + self.ng as isize) as usize
    }

    /// Cell-center coordinates of interior cell (i, j).
    #[inline]
    // lint: allow(native-float, cell-center coordinates are grid geometry, not kernel math)
    pub fn xy(&self, i: usize, j: usize) -> (f64, f64) {
        (
            self.origin.0 + (i as f64 + 0.5) * self.h,
            self.origin.1 + (j as f64 + 0.5) * self.h,
        )
    }

    /// Apply slip-wall boundary conditions to velocities and zero-gradient
    /// to the level set.
    pub fn apply_bcs(&mut self) {
        let (nx, ny, ng) = (self.nx as isize, self.ny as isize, self.ng as isize);
        // x walls: u odd (normal), v even (tangential), phi even.
        for j in -ng..ny + ng {
            for g in 1..=ng {
                let (il, ir) = (-g, nx - 1 + g);
                let (ml, mr) = (g - 1, nx - g);
                let a = self.at(il, j);
                let b = self.at(ml, j);
                self.u[a] = -self.u[b];
                self.v[a] = self.v[b];
                self.phi[a] = self.phi[b];
                let a = self.at(ir, j);
                let b = self.at(mr, j);
                self.u[a] = -self.u[b];
                self.v[a] = self.v[b];
                self.phi[a] = self.phi[b];
            }
        }
        // y walls: v odd, u even, phi even.
        for i in -ng..nx + ng {
            for g in 1..=ng {
                let (jl, jr) = (-g, ny - 1 + g);
                let (ml, mr) = (g - 1, ny - g);
                let a = self.at(i, jl);
                let b = self.at(i, ml);
                self.v[a] = -self.v[b];
                self.u[a] = self.u[b];
                self.phi[a] = self.phi[b];
                let a = self.at(i, jr);
                let b = self.at(i, mr);
                self.v[a] = -self.v[b];
                self.u[a] = self.u[b];
                self.phi[a] = self.phi[b];
            }
        }
    }
}

/// Two-phase flow parameters (paper §4.2's dimensionless groups).
#[derive(Clone, Copy, Debug)]
pub struct InsParams {
    /// Reynolds number (water phase).
    pub re: f64,
    /// Froude number.
    pub fr: f64,
    /// Weber number.
    pub we: f64,
    /// Air/water density ratio (1/ρ' = 1e-3).
    pub rho_air: f64,
    /// Air/water viscosity ratio (1/μ' = 1e-2).
    pub mu_air: f64,
    /// Interface smoothing half-width in cells.
    pub eps_cells: f64,
    /// CFL number.
    pub cfl: f64,
    /// Reinitialization cadence (steps).
    pub reinit_every: usize,
}

impl Default for InsParams {
    fn default() -> Self {
        InsParams {
            re: 35.0,
            fr: 1.0,
            we: 125.0,
            rho_air: 1e-3,
            mu_air: 1e-2,
            eps_cells: 1.5,
            cfl: 0.3,
            reinit_every: 5,
        }
    }
}

/// Smoothed Heaviside over half-width `eps`.
#[inline]
// lint: allow(native-float, smoothed-property coefficient prep: feeds from_f64 lifts and stays untracked (DESIGN.md))
pub fn heaviside(x: f64, eps: f64) -> f64 {
    if x < -eps {
        0.0
    } else if x > eps {
        1.0
    } else {
        0.5 * (1.0 + x / eps + (std::f64::consts::PI * x / eps).sin() / std::f64::consts::PI)
    }
}

/// Smoothed delta (derivative of [`heaviside`]).
#[inline]
// lint: allow(native-float, smoothed-property coefficient prep: feeds from_f64 lifts and stays untracked (DESIGN.md))
pub fn delta(x: f64, eps: f64) -> f64 {
    if x.abs() > eps {
        0.0
    } else {
        0.5 / eps * (1.0 + (std::f64::consts::PI * x / eps).cos())
    }
}

/// Density from the level set (`phi > 0` air).
#[inline]
// lint: allow(native-float, smoothed-property coefficient prep: feeds from_f64 lifts and stays untracked (DESIGN.md))
pub fn density(params: &InsParams, phi: f64, eps: f64) -> f64 {
    let hw = heaviside(-phi, eps); // 1 in water
    params.rho_air + (1.0 - params.rho_air) * hw
}

/// Viscosity from the level set.
#[inline]
// lint: allow(native-float, smoothed-property coefficient prep: feeds from_f64 lifts and stays untracked (DESIGN.md))
pub fn viscosity(params: &InsParams, phi: f64, eps: f64) -> f64 {
    let hw = heaviside(-phi, eps);
    params.mu_air + (1.0 - params.mu_air) * hw
}

/// Jiang–Shu WENO5 approximation from five first-differences (coefficient
/// set shared with `hydro::recon` via [`raptor_core::weno`]).
///
/// The tail differs from the hydro variant — `inv = 1/asum` then a
/// multiply, rather than a direct division — which is why the fused batch
/// kernel ships both as [`raptor_core::batch::weno5_adv`] and
/// [`raptor_core::batch::weno5`]: this function is the scalar oracle for
/// the former, op AST for op AST.
#[inline]
fn weno5_core<R: Real>(v1: R, v2: R, v3: R, v4: R, v5: R) -> R {
    use raptor_core::weno as w;
    let c13 = R::from_f64(w::C13_12);
    let quarter = R::from_f64(w::QUARTER);
    let eps = R::from_f64(w::EPS);
    let s1 = c13 * (v1 - R::two() * v2 + v3).powi(2)
        + quarter * (v1 - R::from_f64(w::FOUR) * v2 + R::from_f64(w::THREE) * v3).powi(2);
    let s2 = c13 * (v2 - R::two() * v3 + v4).powi(2) + quarter * (v2 - v4).powi(2);
    let s3 = c13 * (v3 - R::two() * v4 + v5).powi(2)
        + quarter * (R::from_f64(w::THREE) * v3 - R::from_f64(w::FOUR) * v4 + v5).powi(2);
    let a1 = R::from_f64(w::W0) / (eps + s1).powi(2);
    let a2 = R::from_f64(w::W1) / (eps + s2).powi(2);
    let a3 = R::from_f64(w::W2) / (eps + s3).powi(2);
    let inv = R::one() / (a1 + a2 + a3);
    let p1 = R::from_f64(w::P_1_3) * v1 - R::from_f64(w::P_7_6) * v2 + R::from_f64(w::P_11_6) * v3;
    let p2 = R::from_f64(w::P_M1_6) * v2 + R::from_f64(w::P_5_6) * v3 + R::from_f64(w::P_1_3) * v4;
    let p3 = R::from_f64(w::P_1_3) * v3 + R::from_f64(w::P_5_6) * v4 - R::from_f64(w::P_1_6) * v5;
    (a1 * p1 + a2 * p2 + a3 * p3) * inv
}

/// Upwind first difference `(f[k+1] - f[k]) / h`, written with the
/// reciprocal `inv_h`.
#[inline]
fn diff_quot<R: Arith>(lo: R, hi: R, inv_h: R) -> R {
    (hi - lo) * inv_h
}

/// The advection term `uc * df/dx + vc * df/dy` of one field.
#[inline]
fn advect<R: Arith>(uc: R, vc: R, dx: R, dy: R) -> R {
    uc * dx + vc * dy
}

/// Padded flat index of the cell `k` cells along `axis` from interior
/// cell (i, j).
#[inline]
fn along(grid: &Grid, i: isize, j: isize, axis: usize, k: isize) -> usize {
    if axis == 0 { grid.at(i + k, j) } else { grid.at(i, j + k) }
}

/// Upwind WENO5 derivative of a padded scalar field at interior cell
/// (i, j) along `axis`, choosing the stencil by the sign of `wind`.
#[inline]
fn weno5_deriv<R: Real>(
    grid: &Grid,
    f: &[f64],
    i: isize,
    j: isize,
    axis: usize,
    wind: R,
    inv_h: R,
) -> R {
    let get = |k: isize| R::from_f64(f[along(grid, i, j, axis, k)]);
    let d = |k: isize| diff_quot(get(k), get(k + 1), inv_h);
    if wind >= R::zero() {
        // Left-biased: differences at k = -3..1.
        weno5_core(d(-3), d(-2), d(-1), d(0), d(1))
    } else {
        // Right-biased: mirrored.
        weno5_core(d(2), d(1), d(0), d(-1), d(-2))
    }
}

/// The five-point stencil's offsets: centre, east, west, north, south.
const FIVE: [(isize, isize); 5] = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)];

/// The viscous term of one velocity component at a cell: the
/// harmonic-face Laplacian of its stencil `[c, e, w, n, s]` (face
/// viscosities `[mu_e, mu_w, mu_n, mu_s]`), times `scale = inv_re / rho`.
#[inline]
fn viscous<R: Arith>([c, e, w, n, s]: [R; 5], [mu_e, mu_w, mu_n, mu_s]: [R; 4], inv_h2: R, scale: R) -> R {
    (mu_e * (e - c) - mu_w * (c - w) + mu_n * (n - c) - mu_s * (c - s)) * inv_h2 * scale
}

/// Harmonic-mean face viscosities `[mu_e, mu_w, mu_n, mu_s]` and the
/// density of interior cell (i, j): untracked coefficient prep. At a
/// 100:1 contrast the arithmetic mean pairs a large face mu with a tiny
/// cell rho, yielding an effective diffusivity far above the explicit
/// stability bound; the harmonic mean is dominated by the smaller side and
/// keeps nu_eff <= 2 nu_phase.
// lint: allow(native-float, smoothed-property coefficient prep: feeds from_f64 lifts and stays untracked (DESIGN.md))
fn viscous_coeffs(grid: &Grid, params: &InsParams, eps: f64, i: isize, j: isize) -> ([f64; 4], f64) {
    let mu_at = |(di, dj): (isize, isize)| viscosity(params, grid.phi[grid.at(i + di, j + dj)], eps);
    let harm = |a: f64, b: f64| 2.0 * a * b / (a + b);
    let mu = [FIVE[1], FIVE[2], FIVE[3], FIVE[4]].map(|o| harm(mu_at(FIVE[0]), mu_at(o)));
    (mu, density(params, grid.phi[grid.at(i, j)], eps))
}

/// One fractional-step update. `level_map[j * nx + i]` gives the AMR level
/// of each interior cell (drives dynamic truncation); reference runs pass
/// [`Session::passthrough`].
///
/// Tracked op-mode runs take advection and diffusion on the batch tier,
/// one batch class at a time: the whole interior when the session has no
/// `LevelCutoff` (the level then changes no truncation decision), else
/// the cells of each AMR level under that level. Mem-mode and
/// forced-scalar runs take the per-cell loops, which set each cell's
/// level and remain the differential oracle.
// lint: allow(native-float, only the advection and diffusion operators are truncation targets (module docs); coefficient prep, the predictor assembly, and the Hypre-substitute projection are plain f64 by design)
pub fn step<R: Real>(
    grid: &mut Grid,
    params: &InsParams,
    dt: f64,
    level_map: Option<&[u8]>,
    session: &Session,
) {
    grid.apply_bcs();
    let (nx, ny, _ng) = (grid.nx, grid.ny, grid.ng);
    let h = grid.h;
    let eps = params.eps_cells * h;
    let inv_h = R::from_f64(1.0 / h);
    let n_int = nx * ny;
    let mut us = vec![0.0; n_int]; // predictor u*
    let mut vs = vec![0.0; n_int];
    let mut phin = vec![0.0; n_int];
    let _g = session.install();
    let _ins = region("INS");
    let lvl = |i: usize, j: usize| -> Option<u32> {
        level_map.map(|m| m[j * nx + i] as u32)
    };

    // Cells share a column when they share a truncation decision, and the
    // level decides nothing without a `LevelCutoff`. Mem-mode sessions and
    // the differential-test toggle (`batch::ready()` false) keep the
    // per-cell loops below.
    let classes = (R::IS_TRACKED && batch::ready())
        .then(|| level_classes(level_map.filter(|_| session.config().cutoff.is_some()), n_int));

    // ---- INS/advection: velocity and level-set advection terms ----
    {
        let _r = region("INS/advection");
        if let Some(classes) = &classes {
            on_classes(classes, |cells| {
                advection_cols(grid, dt, 1.0 / h, cells, &mut us, &mut vs, &mut phin)
            });
        } else {
            for j in 0..ny {
                for i in 0..nx {
                    set_level(lvl(i, j));
                    let (ii, jj) = (i as isize, j as isize);
                    let uc = R::from_f64(grid.u[grid.at(ii, jj)]);
                    let vc = R::from_f64(grid.v[grid.at(ii, jj)]);
                    let dudx = weno5_deriv(grid, &grid.u, ii, jj, 0, uc, inv_h);
                    let dudy = weno5_deriv(grid, &grid.u, ii, jj, 1, vc, inv_h);
                    let dvdx = weno5_deriv(grid, &grid.v, ii, jj, 0, uc, inv_h);
                    let dvdy = weno5_deriv(grid, &grid.v, ii, jj, 1, vc, inv_h);
                    let dpx = weno5_deriv(grid, &grid.phi, ii, jj, 0, uc, inv_h);
                    let dpy = weno5_deriv(grid, &grid.phi, ii, jj, 1, vc, inv_h);
                    let adv_u = advect(uc, vc, dudx, dudy);
                    let adv_v = advect(uc, vc, dvdx, dvdy);
                    let adv_p = advect(uc, vc, dpx, dpy);
                    let k = j * nx + i;
                    us[k] = Real::to_f64(adv_u);
                    vs[k] = Real::to_f64(adv_v);
                    phin[k] = grid.phi[grid.at(ii, jj)] - dt * Real::to_f64(adv_p);
                }
            }
            set_level(None);
        }
    }

    // ---- INS/diffusion: viscous terms ----
    let mut diff_u = vec![0.0; n_int];
    let mut diff_v = vec![0.0; n_int];
    {
        let _r = region("INS/diffusion");
        if let Some(classes) = &classes {
            on_classes(classes, |cells| {
                diffusion_cols(grid, params, eps, cells, &mut diff_u, &mut diff_v)
            });
        } else {
            let inv_re = R::from_f64(1.0 / params.re);
            let inv_h2 = R::from_f64(1.0 / (h * h));
            for j in 0..ny {
                for i in 0..nx {
                    set_level(lvl(i, j));
                    let (ii, jj) = (i as isize, j as isize);
                    let (mu, rho_c) = viscous_coeffs(grid, params, eps, ii, jj);
                    let mu = mu.map(R::from_f64);
                    let stencil = |f: &[f64]| FIVE.map(|(di, dj)| R::from_f64(f[grid.at(ii + di, jj + dj)]));
                    let k = j * nx + i;
                    let scale = inv_re / R::from_f64(rho_c);
                    diff_u[k] = Real::to_f64(viscous(stencil(&grid.u), mu, inv_h2, scale));
                    diff_v[k] = Real::to_f64(viscous(stencil(&grid.v), mu, inv_h2, scale));
                }
            }
            set_level(None);
        }
    }

    // Body forces (gravity and CSF surface tension) are applied as
    // *balanced face forces* inside the projection below, not in the
    // predictor: both the hydrostatic column and the Laplace pressure jump
    // are then discrete equilibria, suppressing the parasitic currents a
    // cell-centered force treatment generates at a 1000:1 density ratio.
    // Cell curvature used by the face forces (full precision, like the
    // paper's untruncated force assembly).
    let kappa_cell: Vec<f64> = {
        let _r = region("INS/forces");
        if raptor_core::batch::ready() {
            // Row-sliced CSF curvature: same plain-f64 AST per cell,
            // evaluated a row at a time (linear indexing, vectorizable
            // coefficient prep). Bit-identical to the per-cell map below,
            // which remains the oracle under `batch::force_scalar`.
            let mut kc = vec![0.0; n_int];
            for j in 0..ny {
                curvature_row(grid, j, &mut kc[j * nx..(j + 1) * nx]);
            }
            kc
        } else {
            (0..n_int)
                .map(|k| {
                    let (i, j) = (k % nx, k / nx);
                    curvature(grid, i as isize, j as isize, h)
                })
                .collect()
        }
    };

    // Predictor.
    for k in 0..n_int {
        let (i, j) = (k % nx, k / nx);
        let c = grid.at(i as isize, j as isize);
        us[k] = grid.u[c] + dt * (-us[k] + diff_u[k]);
        vs[k] = grid.v[c] + dt * (-vs[k] + diff_v[k]);
    }

    // Write predictor into the grid (ghosts refreshed for the divergence).
    for k in 0..n_int {
        let (i, j) = (k % nx, k / nx);
        let c = grid.at(i as isize, j as isize);
        grid.u[c] = us[k];
        grid.v[c] = vs[k];
        grid.phi[c] = phin[k];
    }
    grid.apply_bcs();

    // ---- Projection (Hypre substitute; never truncated) ----
    {
        let _r = region("Hypre/poisson");
        let g_over_fr2 = 1.0 / (params.fr * params.fr);
        let mut beta = Field::zeros(nx, ny);
        let mut rhs = Field::zeros(nx, ny);
        let mut rho_cell = Field::zeros(nx, ny);
        for j in 0..ny {
            for i in 0..nx {
                let (ii, jj) = (i as isize, j as isize);
                let rho = density(params, grid.phi[grid.at(ii, jj)], eps);
                *rho_cell.at_mut(i, j) = rho;
                *beta.at_mut(i, j) = 1.0 / rho;
            }
        }
        let harm = |a: f64, b: f64| 2.0 * a * b / (a + b);
        let rho_mean = 0.5 * (1.0 + params.rho_air);
        // Face accelerations of the body forces. Gravity: the buoyant
        // force density -(rho_f - 1) g/Fr^2 relative to the hydrostatic
        // water column, converted to acceleration by the face beta at the
        // caller. CSF: density-scaled face acceleration
        // -(kappa_f / (We rho_mean)) delta(phi_f) dphi/dn. Entering the
        // Poisson RHS and the correction with identical discretizations
        // makes static bubbles discrete equilibria.
        let gy_face = |i: usize, j: usize, jn: usize| -> f64 {
            let rho_f = 0.5 * (rho_cell.at(i, j) + rho_cell.at(i, jn));
            -g_over_fr2 * (rho_f - 1.0)
        };
        // Snapshot phi so the closures don't borrow the grid we mutate.
        let mut phi_cell = Field::zeros(nx, ny);
        for j in 0..ny {
            for i in 0..nx {
                *phi_cell.at_mut(i, j) = grid.phi[grid.at(i as isize, j as isize)];
            }
        }
        let phi_at = move |i: usize, j: usize| phi_cell.at(i, j);
        let st_face = |i: usize, j: usize, i2: usize, j2: usize| -> f64 {
            let kf = 0.5 * (kappa_cell[j * nx + i] + kappa_cell[j2 * nx + i2]);
            let pf = 0.5 * (phi_at(i, j) + phi_at(i2, j2));
            let dphi = (phi_at(i2, j2) - phi_at(i, j)) / h;
            -kf * delta(pf, eps) * dphi / (params.we * rho_mean)
        };
        for j in 0..ny {
            for i in 0..nx {
                let (ii, jj) = (i as isize, j as isize);
                // Compact divergence from face-averaged velocities, with
                // solid-wall faces at zero — consistent with the Neumann
                // Poisson operator (an "approximate projection" scheme).
                let uc = grid.u[grid.at(ii, jj)];
                let vc = grid.v[grid.at(ii, jj)];
                let ue = if i + 1 < nx { 0.5 * (uc + grid.u[grid.at(ii + 1, jj)]) } else { 0.0 };
                let uw = if i > 0 { 0.5 * (uc + grid.u[grid.at(ii - 1, jj)]) } else { 0.0 };
                let vn = if j + 1 < ny { 0.5 * (vc + grid.v[grid.at(ii, jj + 1)]) } else { 0.0 };
                let vs = if j > 0 { 0.5 * (vc + grid.v[grid.at(ii, jj - 1)]) } else { 0.0 };
                let div_vel = (ue - uw + vn - vs) / h / dt;
                // div of the face force accelerations (beta*G gravity +
                // density-scaled CSF) over the same faces.
                let f_n = if j + 1 < ny {
                    harm(beta.at(i, j), beta.at(i, j + 1)) * gy_face(i, j, j + 1)
                        + st_face(i, j, i, j + 1)
                } else {
                    0.0
                };
                let f_s = if j > 0 {
                    harm(beta.at(i, j), beta.at(i, j - 1)) * gy_face(i, j, j - 1)
                        + st_face(i, j - 1, i, j)
                } else {
                    0.0
                };
                let f_e = if i + 1 < nx { st_face(i, j, i + 1, j) } else { 0.0 };
                let f_w = if i > 0 { st_face(i - 1, j, i, j) } else { 0.0 };
                *rhs.at_mut(i, j) = div_vel + (f_n - f_s + f_e - f_w) / h;
            }
        }
        let solver = Poisson::new(&beta, h);
        let mut p = grid.p.clone();
        solver.solve(&mut p, &rhs, 1e-7, 200);
        // ---- INS/correction: velocity update from the pressure gradient ----
        // The cell correction averages the *face* fluxes `β_f ∂p/∂n` with
        // the same harmonic-mean face coefficients the Poisson operator
        // uses (wall faces carry zero flux). Using the raw cell β here
        // instead is catastrophically inconsistent at a 1000:1 density
        // jump: the operator balances ~2·βw at interface faces while the
        // correction would apply ~β_air, overshooting by orders of
        // magnitude and blowing the projection up.
        let _c = region("INS/correction");
        for j in 0..ny {
            for i in 0..nx {
                let (ii, jj) = (i as isize, j as isize);
                let bc = beta.at(i, j);
                // Face fluxes: pressure gradient minus the identical face
                // forces used in the RHS (balanced-force property).
                let flux_e = if i + 1 < nx {
                    harm(bc, beta.at(i + 1, j)) * (p.at(i + 1, j) - p.at(i, j)) / h
                        - st_face(i, j, i + 1, j)
                } else {
                    0.0
                };
                let flux_w = if i > 0 {
                    harm(bc, beta.at(i - 1, j)) * (p.at(i, j) - p.at(i - 1, j)) / h
                        - st_face(i - 1, j, i, j)
                } else {
                    0.0
                };
                let flux_n = if j + 1 < ny {
                    harm(bc, beta.at(i, j + 1)) * (p.at(i, j + 1) - p.at(i, j)) / h
                        - harm(bc, beta.at(i, j + 1)) * gy_face(i, j, j + 1)
                        - st_face(i, j, i, j + 1)
                } else {
                    0.0
                };
                let flux_s = if j > 0 {
                    harm(bc, beta.at(i, j - 1)) * (p.at(i, j) - p.at(i, j - 1)) / h
                        - harm(bc, beta.at(i, j - 1)) * gy_face(i, j, j - 1)
                        - st_face(i, j - 1, i, j)
                } else {
                    0.0
                };
                let c = grid.at(ii, jj);
                grid.u[c] -= dt * 0.5 * (flux_e + flux_w);
                grid.v[c] -= dt * 0.5 * (flux_n + flux_s);
            }
        }
        grid.p = p;
    }
    grid.apply_bcs();
}

/// The batch classes of a step's `n` interior cells (row-major indices),
/// each with the level it runs at: one unlevelled class of the whole
/// interior without a map, else one class per AMR level present in
/// `level_map`, in ascending level order.
fn level_classes(level_map: Option<&[u8]>, n: usize) -> Vec<(Option<u32>, Vec<usize>)> {
    let Some(map) = level_map else { return vec![(None, (0..n).collect())] };
    let mut by_level = std::collections::BTreeMap::<u8, Vec<usize>>::new();
    for (k, &l) in map.iter().enumerate() {
        by_level.entry(l).or_default().push(k);
    }
    by_level.into_iter().map(|(l, cells)| (Some(u32::from(l)), cells)).collect()
}

/// Run `f` on each batch class's cells under the class's level, then
/// leave the level unset, as the per-cell loops do.
fn on_classes(classes: &[(Option<u32>, Vec<usize>)], mut f: impl FnMut(&[usize])) {
    for (level, cells) in classes {
        set_level(*level);
        f(cells);
    }
    set_level(None);
}

/// Column of `f` at the interior cells `cells` (row-major interior
/// indices), each offset by `(di, dj)`.
fn interior_col(
    grid: &Grid,
    f: &[f64],
    (di, dj): (isize, isize),
    cells: impl IntoIterator<Item = usize>,
) -> Col {
    let nx = grid.nx;
    Col::new_with(|o| {
        for (x, k) in o.iter_mut().zip(cells) {
            *x = f[grid.at((k % nx) as isize + di, (k / nx) as isize + dj)];
        }
    })
}

/// The scalar diffusion loop of [`step`] at `Col`, over one batch class
/// `cells` in one scope: bit- and counter-identical per cell. The face
/// viscosities and densities are the same untracked prep; each cell's
/// terms are scattered back to its index in `diff_u`/`diff_v`.
fn diffusion_cols(
    grid: &Grid,
    params: &InsParams,
    eps: f64,
    cells: &[usize],
    diff_u: &mut [f64],
    diff_v: &mut [f64],
) {
    let nx = grid.nx;
    let _cols = batch::scope(cells.len());
    let coeffs: Vec<([f64; 4], f64)> = cells
        .iter()
        .map(|&k| viscous_coeffs(grid, params, eps, (k % nx) as isize, (k / nx) as isize))
        .collect();
    let mu: [Col; 4] = std::array::from_fn(|m| {
        Col::new_with(|o| o.iter_mut().zip(&coeffs).for_each(|(o, c)| *o = c.0[m]))
    });
    let rho = Col::new_with(|o| o.iter_mut().zip(&coeffs).for_each(|(o, c)| *o = c.1));
    let inv_h2 = Col::from_f64(1.0 / (grid.h * grid.h));
    let scale = Col::from_f64(1.0 / params.re) / rho;
    for (f, out) in [(&grid.u, diff_u), (&grid.v, diff_v)] {
        let stencil = FIVE.map(|o| interior_col(grid, f, o, cells.iter().copied()));
        viscous(stencil, mu, inv_h2, scale)
            .read(|v| cells.iter().zip(v).for_each(|(&k, &x)| out[k] = x));
    }
}

/// [`weno5_deriv`] along `axis` for the interior cells `class` (row-major
/// interior indices) whose wind has one sign, in the current scope: the
/// stencil's five difference quotients, then the fused WENO5 combination
/// ([`batch::weno5_adv`], whose oracle is [`weno5_core`]) in the branch's
/// argument order.
fn weno5_deriv_cols(
    grid: &Grid,
    f: &[f64],
    axis: usize,
    class: impl Iterator<Item = usize> + Clone,
    left_biased: bool,
    inv_h: Col,
) -> Col {
    // Left-biased stencils read offsets -3..=2, right-biased -2..=3.
    let base: isize = if left_biased { -3 } else { -2 };
    let nx = grid.nx;
    let g: [Col; 6] = std::array::from_fn(|s| {
        Col::new_with(|o| {
            for (x, k) in o.iter_mut().zip(class.clone()) {
                *x = f[along(grid, (k % nx) as isize, (k / nx) as isize, axis, base + s as isize)];
            }
        })
    });
    let [d0, d1, d2, d3, d4]: [Col; 5] = std::array::from_fn(|s| diff_quot(g[s], g[s + 1], inv_h));
    if left_biased {
        batch::weno5_adv([d0, d1, d2, d3, d4])
    } else {
        batch::weno5_adv([d4, d3, d2, d1, d0])
    }
}

/// The scalar advection loop of [`step`] at `Col`, over one batch class
/// `cells` in one scope: bit- and counter-identical per cell. Each axis's
/// wind-sign classes within it (the only data-dependent control flow in
/// [`weno5_deriv`]) run in nested scopes; the level-set update tail stays
/// plain `f64` like the scalar path. Each cell's terms are scattered back
/// to its index in `us`, `vs` and `phin`.
// lint: allow(native-float, the level-set update tail is untracked in the scalar loop too)
fn advection_cols(
    grid: &Grid,
    dt: f64,
    inv_h: f64,
    cells: &[usize],
    us: &mut [f64],
    vs: &mut [f64],
    phin: &mut [f64],
) {
    let n = cells.len();
    let _cols = batch::scope(n);
    let centre = |f| interior_col(grid, f, FIVE[0], cells.iter().copied());
    let (uc, vc) = (centre(&grid.u), centre(&grid.v));
    // Positions in `cells`, by the same predicate as the scalar
    // `wind >= 0` (NaN upwinds right).
    let classes = |wind: Col| -> [Vec<usize>; 2] {
        wind.read(|w| {
            let (plus, minus) = (0..n).partition(|&p| w[p] >= 0.0);
            [plus, minus]
        })
    };
    let (cx, cy) = (classes(uc), classes(vc));
    let inv_h = Col::from_f64(inv_h);
    let deriv = |f: &[f64], axis: usize, classes: &[Vec<usize>; 2]| {
        let mut d = vec![0.0; n];
        for (class, left_biased) in classes.iter().zip([true, false]) {
            if class.is_empty() {
                continue;
            }
            let _class = batch::scope(class.len());
            weno5_deriv_cols(grid, f, axis, class.iter().map(|&p| cells[p]), left_biased, inv_h)
                .read(|v| class.iter().zip(v).for_each(|(&p, &x)| d[p] = x));
        }
        Col::from_slice(&d)
    };
    let adv = |f: &[f64]| advect(uc, vc, deriv(f, 0, &cx), deriv(f, 1, &cy));
    let scatter = |out: &mut [f64], v: &[f64]| cells.iter().zip(v).for_each(|(&k, &x)| out[k] = x);
    adv(&grid.u).read(|v| scatter(us, v));
    adv(&grid.v).read(|v| scatter(vs, v));
    let phi = &grid.phi;
    adv(phi).read(|v| {
        for (&k, &a) in cells.iter().zip(v) {
            phin[k] = phi[grid.at((k % grid.nx) as isize, (k / grid.nx) as isize)] - dt * a;
        }
    });
}

/// Row-sliced CSF curvature: evaluates [`curvature`]'s exact plain-`f64`
/// AST for one interior row with linear indexing, so the untracked force
/// prep vectorizes. Bit-identical to per-cell [`curvature`] calls by
/// construction.
// lint: allow(native-float, CSF curvature is surface-tension coefficient prep for the untracked projection RHS)
pub fn curvature_row(grid: &Grid, j: usize, out: &mut [f64]) {
    let phi = &grid.phi;
    let h = grid.h;
    let stride = (grid.nx + 2 * grid.ng) as isize;
    let base = (j + grid.ng) * stride as usize + grid.ng;
    for (i, o) in out.iter_mut().enumerate() {
        let c = (base + i) as isize;
        let f = |di: isize, dj: isize| phi[(c + di + dj * stride) as usize];
        let px = (f(1, 0) - f(-1, 0)) / (2.0 * h);
        let py = (f(0, 1) - f(0, -1)) / (2.0 * h);
        let pxx = (f(1, 0) - 2.0 * f(0, 0) + f(-1, 0)) / (h * h);
        let pyy = (f(0, 1) - 2.0 * f(0, 0) + f(0, -1)) / (h * h);
        let pxy = (f(1, 1) - f(1, -1) - f(-1, 1) + f(-1, -1)) / (4.0 * h * h);
        let g2 = px * px + py * py;
        let g = g2.sqrt().max(1e-12);
        *o = ((pxx * py * py - 2.0 * px * py * pxy + pyy * px * px) / (g2 * g))
            .clamp(-2.0 / h, 2.0 / h);
    }
}

/// Interface curvature at a cell: `∇·(∇φ/|∇φ|)` by central differences.
// lint: allow(native-float, CSF curvature is surface-tension coefficient prep for the untracked projection RHS)
pub fn curvature(grid: &Grid, i: isize, j: isize, h: f64) -> f64 {
    let phi = &grid.phi;
    let f = |di: isize, dj: isize| phi[grid.at(i + di, j + dj)];
    let px = (f(1, 0) - f(-1, 0)) / (2.0 * h);
    let py = (f(0, 1) - f(0, -1)) / (2.0 * h);
    let pxx = (f(1, 0) - 2.0 * f(0, 0) + f(-1, 0)) / (h * h);
    let pyy = (f(0, 1) - 2.0 * f(0, 0) + f(0, -1)) / (h * h);
    let pxy = (f(1, 1) - f(1, -1) - f(-1, 1) + f(-1, -1)) / (4.0 * h * h);
    let g2 = px * px + py * py;
    let g = g2.sqrt().max(1e-12);
    ((pxx * py * py - 2.0 * px * py * pxy + pyy * px * px) / (g2 * g)).clamp(-2.0 / h, 2.0 / h)
}

/// PDE-based level-set reinitialization toward a signed-distance function
/// (`|∇φ| = 1`), Godunov Hamiltonian, a few pseudo-time iterations.
///
/// Instrumented in the `INS/levelset` region: instantiate with `f64` for
/// the reference run and [`raptor_core::Tracked`] under an installed
/// session to truncate/count the Hamiltonian's operations. Tracked
/// op-mode runs take the `Col` path over the whole interior (sign
/// partition on `s`); mem-mode and forced-scalar runs stay on the
/// per-cell generic loop, which remains the differential oracle.
/// The pseudo-time buffer is allocated once and reused across iterations.
// lint: allow(native-float, pseudo-time step and buffer plumbing; the upwind stencil math is Tracked in reinit_cells)
pub fn reinitialize<R: Real>(grid: &mut Grid, iters: usize, session: &Session) {
    let _guard = session.install();
    let _r = region("INS/levelset");
    let (nx, ny) = (grid.nx, grid.ny);
    let dtau = 0.5 * grid.h;
    let mut new_phi = vec![0.0; nx * ny];
    for _ in 0..iters {
        grid.apply_bcs();
        if R::IS_TRACKED && raptor_core::batch::ready() {
            reinit_cols(grid, dtau, &mut new_phi);
        } else {
            reinit_cells::<R>(grid, dtau, &mut new_phi);
        }
        for j in 0..ny {
            for i in 0..nx {
                let c = grid.at(i as isize, j as isize);
                grid.phi[c] = new_phi[j * nx + i];
            }
        }
    }
    grid.apply_bcs();
}

/// The smoothed sign `c / sqrt(c^2 + h^2)` of the level set at a cell.
#[inline]
fn level_sign<R: Arith>(c: R, h2: R) -> R {
    c / (c * c + h2).sqrt()
}

/// One-sided differences `[dxm, dxp, dym, dyp]` of the stencil
/// `[c, e, w, n, s]`.
#[inline]
fn one_sided<R: Arith>([c, e, w, n, s]: [R; 5], h: R) -> [R; 4] {
    [(c - w) / h, (e - c) / h, (c - s) / h, (n - c) / h]
}

/// Godunov's squared upwind gradients `(a, b)` where `s >= 0`.
#[inline]
fn godunov_rising<R: Arith>([dxm, dxp, dym, dyp]: [R; 4]) -> (R, R) {
    let z = R::zero();
    let sq = |x: R| x * x;
    (sq(dxm.max(z)).max(sq(dxp.min(z))), sq(dym.max(z)).max(sq(dyp.min(z))))
}

/// Godunov's squared upwind gradients `(a, b)` where `s < 0`.
#[inline]
fn godunov_falling<R: Arith>([dxm, dxp, dym, dyp]: [R; 4]) -> (R, R) {
    let z = R::zero();
    let sq = |x: R| x * x;
    (sq(dxm.min(z)).max(sq(dxp.max(z))), sq(dym.min(z)).max(sq(dyp.max(z))))
}

/// The pseudo-time update `c - dtau * s * (sqrt(a + b) - 1)`.
#[inline]
fn reinit_update<R: Arith>(c: R, s: R, (a, b): (R, R), dtau: R) -> R {
    let grad = (a + b).sqrt();
    c - dtau * s * (grad - R::one())
}

/// Per-cell Godunov Hamiltonian update (one pseudo-time iteration) into
/// `new_phi` — the scalar path and batch oracle.
fn reinit_cells<R: Real>(grid: &Grid, dtau: f64, new_phi: &mut [f64]) {
    let (nx, ny) = (grid.nx, grid.ny);
    let h = R::from_f64(grid.h);
    let h2 = R::from_f64(grid.h * grid.h);
    let dtau_r = R::from_f64(dtau);
    for j in 0..ny {
        for i in 0..nx {
            let (ii, jj) = (i as isize, j as isize);
            let st = FIVE.map(|(di, dj)| R::from_f64(grid.phi[grid.at(ii + di, jj + dj)]));
            let s = level_sign(st[0], h2);
            let d = one_sided(st, h);
            // Godunov scheme.
            let ab = if s >= R::zero() { godunov_rising(d) } else { godunov_falling(d) };
            new_phi[j * nx + i] = reinit_update(st[0], s, ab, dtau_r).to_f64();
        }
    }
}

/// [`reinit_cells`] at `Col`, over the whole interior in one scope: each
/// sign class of `s` runs its Godunov body in a nested scope, so per cell
/// the ops are exactly the scalar loop's.
fn reinit_cols(grid: &Grid, dtau: f64, new_phi: &mut [f64]) {
    let _cols = batch::scope(new_phi.len());
    let st = FIVE.map(|o| interior_col(grid, &grid.phi, o, 0..new_phi.len()));
    let s = level_sign(st[0], Col::from_f64(grid.h * grid.h));
    let d = one_sided(st, Col::from_f64(grid.h));
    let classes: [Vec<usize>; 2] = s.read(|s| {
        let (rising, falling) = (0..s.len()).partition(|&k| s[k] >= 0.0);
        [rising, falling]
    });
    for (class, rising) in classes.iter().zip([true, false]) {
        if class.is_empty() {
            continue;
        }
        let _class = batch::scope(class.len());
        let [c, s, dxm, dxp, dym, dyp] = batch::gather([st[0], s, d[0], d[1], d[2], d[3]], class);
        let d = [dxm, dxp, dym, dyp];
        let ab = if rising { godunov_rising(d) } else { godunov_falling(d) };
        reinit_update(c, s, ab, Col::from_f64(dtau))
            .read(|v| class.iter().zip(v).for_each(|(&k, &x)| new_phi[k] = x));
    }
}

/// Stable timestep: convective, viscous, capillary, and force limits.
// lint: allow(native-float, CFL/dt bookkeeping: stability limits are control flow, not kernel math)
pub fn compute_dt(grid: &Grid, params: &InsParams) -> f64 {
    let h = grid.h;
    let mut vmax: f64 = 1e-12;
    for j in 0..grid.ny {
        for i in 0..grid.nx {
            let c = grid.at(i as isize, j as isize);
            vmax = vmax.max(grid.u[c].abs()).max(grid.v[c].abs());
        }
    }
    let dt_conv = params.cfl * h / vmax;
    // Largest kinematic viscosity across the two phases; the harmonic
    // face-viscosity discretization keeps the effective value within 2x
    // of the phase bound inside the smoothed transition band.
    let nu_max = 2.0 * (1.0 / params.re).max(params.mu_air / (params.rho_air * params.re));
    let dt_visc = 0.2 * h * h / nu_max;
    let dt_cap = 0.5 * (params.we * (1.0 + params.rho_air) * h.powi(3) / (8.0 * std::f64::consts::PI)).sqrt();
    // Effective buoyant acceleration at the interface with balanced-force
    // gravity: the harmonic face weighting caps it near ~2 g/Fr^2.
    let amax = 4.0 / (params.fr * params.fr);
    let dt_force = 0.7 * (h / amax).sqrt();
    dt_conv.min(dt_visc).min(dt_cap).min(dt_force).max(1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;
    use raptor_core::{batch, Config, Counters, EmulPath, Format, RoundMode, Tracked};

    fn circle_grid(nx: usize, ny: usize) -> Grid {
        let h = 2.0 / nx as f64;
        let mut g = Grid::new(nx, ny, h, (-1.0, -1.0));
        for j in 0..ny {
            for i in 0..nx {
                let (x, y) = g.xy(i, j);
                let d = (x * x + y * y).sqrt();
                let c = g.at(i as isize, j as isize);
                g.phi[c] = 0.5 - d; // positive inside the bubble
            }
        }
        g.apply_bcs();
        g
    }

    #[test]
    fn heaviside_and_delta_properties() {
        let eps = 0.1;
        assert_eq!(heaviside(-1.0, eps), 0.0);
        assert_eq!(heaviside(1.0, eps), 1.0);
        assert!((heaviside(0.0, eps) - 0.5).abs() < 1e-15);
        assert_eq!(delta(1.0, eps), 0.0);
        assert!(delta(0.0, eps) > 0.0);
        // Delta integrates to ~1.
        let n = 10_000;
        let sum: f64 = (0..n)
            .map(|k| delta(-0.2 + 0.4 * k as f64 / n as f64, eps) * 0.4 / n as f64)
            .sum();
        assert!((sum - 1.0).abs() < 1e-3, "integral {sum}");
    }

    #[test]
    fn density_field_matches_phases() {
        let p = InsParams::default();
        assert!((density(&p, -1.0, 0.1) - 1.0).abs() < 1e-12, "water");
        assert!((density(&p, 1.0, 0.1) - 1e-3).abs() < 1e-12, "air");
        let mid = density(&p, 0.0, 0.1);
        assert!(mid > 1e-3 && mid < 1.0);
    }

    #[test]
    fn curvature_of_circle() {
        let g = circle_grid(64, 64);
        // kappa of phi = r0 - r is -1/r... with our sign convention the
        // magnitude at radius 0.5 is 1/0.5 = 2.
        let (i, j) = (48, 32); // on the interface (x ~ 0.5, y ~ 0)
        let k = curvature(&g, i, j, g.h).abs();
        assert!((k - 2.0).abs() < 0.4, "curvature {k}");
    }

    #[test]
    fn reinit_restores_unit_gradient() {
        let mut g = circle_grid(64, 64);
        // Distort phi away from a distance function.
        for v in g.phi.iter_mut() {
            *v *= 3.0;
        }
        reinitialize::<f64>(&mut g, 40, &Session::passthrough());
        // Check |grad phi| ~ 1 near the interface.
        let mut worst: f64 = 0.0;
        for j in 8..56 {
            for i in 8..56 {
                let (ii, jj) = (i as isize, j as isize);
                let c = g.phi[g.at(ii, jj)];
                if c.abs() > 4.0 * g.h {
                    continue;
                }
                let px = (g.phi[g.at(ii + 1, jj)] - g.phi[g.at(ii - 1, jj)]) / (2.0 * g.h);
                let py = (g.phi[g.at(ii, jj + 1)] - g.phi[g.at(ii, jj - 1)]) / (2.0 * g.h);
                worst = worst.max(((px * px + py * py).sqrt() - 1.0).abs());
            }
        }
        assert!(worst < 0.25, "|grad phi| off by {worst}");
    }

    #[test]
    fn quiescent_two_phase_stays_bounded() {
        // A static bubble under gravity + surface tension: velocities stay
        // bounded and the projection keeps the flow nearly solenoidal.
        let mut g = circle_grid(32, 32);
        let params = InsParams::default();
        for _ in 0..5 {
            let dt = compute_dt(&g, &params);
            step::<f64>(&mut g, &params, dt, None, &Session::passthrough());
        }
        let mut vmax: f64 = 0.0;
        let mut divmax: f64 = 0.0;
        for j in 1..31 {
            for i in 1..31 {
                let (ii, jj) = (i as isize, j as isize);
                let c = g.at(ii, jj);
                vmax = vmax.max(g.u[c].abs()).max(g.v[c].abs());
                let du = g.u[g.at(ii + 1, jj)] - g.u[g.at(ii - 1, jj)];
                let dv = g.v[g.at(ii, jj + 1)] - g.v[g.at(ii, jj - 1)];
                divmax = divmax.max(((du + dv) / (2.0 * g.h)).abs());
            }
        }
        assert!(vmax.is_finite() && vmax < 10.0, "vmax {vmax}");
        assert!(divmax < 5.0, "divergence {divmax}");
    }

    /// The batch-vs-scalar configurations: e11m10 and the per-element
    /// fallback e11m30 (past the short-cut bound), plus the hydro sweep
    /// differential's six — e11m12 and the guarded e11m20 and e11m22 (all
    /// on the batch fast tier), e11m12 on the Big path,
    /// e11m12 rounding toward zero, and FP32 through `Auto` (the Native
    /// rung).
    fn differential_configs() -> Vec<(&'static str, Config)> {
        let e11m12 = Format::new(11, 12);
        let ins = |fmt: Format| Config::op_files(fmt, ["INS"]);
        let mut toward_zero = ins(e11m12);
        toward_zero.round = RoundMode::TowardZero;
        let configs = vec![
            ("e11m10", ins(Format::new(11, 10))),
            ("e11m12", ins(e11m12)),
            ("e11m20", ins(Format::new(11, 20))),
            ("e11m22", ins(Format::new(11, 22))),
            ("e11m30", ins(Format::new(11, 30))),
            ("e11m12-big", ins(e11m12).with_path(EmulPath::Big)),
            ("e11m12-rz", toward_zero),
            ("fp32-auto", ins(Format::FP32)),
        ];
        assert_eq!(configs[7].1.resolved_path(), EmulPath::Native);
        configs
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// A seeded two-phase grid: the circle's level set plus noise (`phi`
    /// of both signs, so the 1000:1 density contrast runs through the
    /// stencils), and random winds of both signs on both axes, a few of
    /// them exactly `+0.0` or `-0.0` (which upwind like positive winds).
    fn random_grid(seed: u64) -> Grid {
        let n = 20;
        let mut g = circle_grid(n, n);
        let mut s = seed;
        let mut unit = || (splitmix(&mut s) >> 11) as f64 / (1u64 << 53) as f64;
        for j in 0..n {
            for i in 0..n {
                let c = g.at(i as isize, j as isize);
                g.phi[c] += 0.3 * (unit() - 0.5);
                for f in [&mut g.u, &mut g.v] {
                    let kind = unit();
                    f[c] = if kind < 0.1 {
                        0.0
                    } else if kind < 0.2 {
                        -0.0
                    } else {
                        0.6 * (unit() - 0.5)
                    };
                }
            }
        }
        g.apply_bcs();
        // Coverage: every wind class on both axes, both phases.
        let interior: Vec<usize> =
            (0..n * n).map(|k| g.at((k % n) as isize, (k / n) as isize)).collect();
        for (name, f) in [("u", &g.u), ("v", &g.v)] {
            let has = |p: fn(f64) -> bool| interior.iter().any(|&c| p(f[c]));
            assert!(has(|x| x.to_bits() == 0), "{name}: a +0.0 wind");
            assert!(has(|x| x.to_bits() == (-0.0f64).to_bits()), "{name}: a -0.0 wind");
            assert!(has(|x| x > 0.0) && has(|x| x < 0.0), "{name}: both signs");
        }
        assert!(interior.iter().any(|&c| g.phi[c] > 0.0) && interior.iter().any(|&c| g.phi[c] < 0.0));
        g
    }

    /// Run `drive` on a copy of `grid` under a fresh counting session of
    /// `cfg`, once pinned to the scalar path and once on the batch tier;
    /// the velocity and level-set fields must match bit for bit and the op
    /// counters exactly. Returns the counters.
    fn assert_batch_matches_scalar(
        cfg: &Config,
        grid: &Grid,
        label: &str,
        drive: impl Fn(&mut Grid, &Session),
    ) -> Counters {
        let run = |force_scalar: bool| {
            let _pin = batch::force_scalar(force_scalar);
            let mut g = grid.clone();
            let sess = Session::new(cfg.clone().with_counting()).unwrap();
            drive(&mut g, &sess);
            (g, sess.counters())
        };
        let (gs, cs) = run(true);
        let (gb, cb) = run(false);
        for (name, a, b) in [("u", &gs.u, &gb.u), ("v", &gs.v, &gb.v), ("phi", &gs.phi, &gb.phi)] {
            for (k, (x, y)) in a.iter().zip(b.iter()).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "{label} field {name} index {k}: {x:e} vs {y:e}");
            }
        }
        assert_eq!(cs, cb, "{label}: op counters must match exactly");
        cs
    }

    /// Three steps of the solver without a level map (the batch gate).
    fn three_steps(g: &mut Grid, sess: &Session) {
        let params = InsParams::default();
        for _ in 0..3 {
            let dt = compute_dt(g, &params);
            step::<Tracked>(g, &params, dt, None, sess);
        }
    }

    /// The batched diffusion operator must match the scalar loop bit for
    /// bit and op count for op count under every differential
    /// configuration. The quiescent bubble has zero initial velocity, so
    /// its run leans on diffusion/CSF; the seeded random grid adds winds.
    #[test]
    fn batch_diffusion_bit_identical_to_scalar() {
        for (name, cfg) in differential_configs() {
            for (what, grid) in [("circle", circle_grid(24, 24)), ("random", random_grid(0xD1FF))] {
                let cs = assert_batch_matches_scalar(&cfg, &grid, &format!("{name} {what}"), three_steps);
                assert!(cs.trunc.div > 0, "{name} {what}: diffusion divs counted");
            }
        }
    }

    /// Row-sliced curvature is the same AST as the per-cell function —
    /// pinned bitwise so the batch CSF path cannot drift.
    #[test]
    fn curvature_row_matches_per_cell() {
        let g = circle_grid(32, 32);
        let mut row = vec![0.0; 32];
        for j in 0..32 {
            curvature_row(&g, j, &mut row);
            for (i, &r) in row.iter().enumerate() {
                let want = curvature(&g, i as isize, j as isize, g.h);
                assert_eq!(r.to_bits(), want.to_bits(), "cell ({i},{j})");
            }
        }
    }

    /// The batched advection path (wind-partitioned fused WENO5) and the
    /// row-sliced CSF curvature must match the scalar loops bit for bit
    /// and op count for op count. Velocities are seeded with both signs in
    /// both axes so all four upwind partitions carry cells: a smooth
    /// field, and the seeded random grid with exact `±0.0` winds.
    #[test]
    fn batch_advection_and_csf_bit_identical_to_scalar() {
        let mut smooth = circle_grid(24, 24);
        for j in 0..24 {
            for i in 0..24 {
                let (x, y) = smooth.xy(i, j);
                let c = smooth.at(i as isize, j as isize);
                smooth.u[c] = 0.3 * (3.1 * x).sin() * (2.3 * y + 0.4).cos();
                smooth.v[c] = -0.2 * (2.7 * y).sin() * (1.9 * x - 0.2).cos();
            }
        }
        smooth.apply_bcs();
        for (name, cfg) in differential_configs() {
            for (what, grid) in [("smooth", &smooth), ("random", &random_grid(0xADF3C7))] {
                let cs = assert_batch_matches_scalar(&cfg, grid, &format!("{name} {what}"), three_steps);
                assert!(cs.trunc.div > 0, "{name} {what}: advection divs counted");
                assert!(cs.trunc.mul > 0, "{name} {what}: advection muls counted");
            }
        }
    }

    /// Level-mapped steps batch one class per truncation decision: the
    /// whole interior without a cutoff, one class per AMR level with one.
    /// Under every differential configuration, with no cutoff, M-0 and M-1
    /// (max level 2), both maps must match the per-cell loop bit for bit
    /// and op count for op count: horizontal bands of levels 0, 1 and 2,
    /// and a map of level 2 only (so two level classes are empty). M-1
    /// truncates levels 0 and 1 and runs level 2 at full precision, so on
    /// the banded map both decisions must carry ops.
    #[test]
    fn level_mapped_step_batch_bit_identical_to_scalar() {
        let grid = random_grid(0x1E7E1);
        let n = grid.nx * grid.ny;
        let bands: Vec<u8> = (0..n).map(|k| (3 * (k / grid.nx) / grid.ny) as u8).collect();
        assert!((0..3).all(|l| bands.contains(&l)), "every level has cells");
        let flat = vec![2u8; n];
        let params = InsParams::default();
        for (name, cfg) in differential_configs() {
            let cutoffs = [
                ("none", cfg.clone()),
                ("M-0", cfg.clone().with_cutoff(2, 0)),
                ("M-1", cfg.with_cutoff(2, 1)),
            ];
            for (cut, cfg) in cutoffs {
                for (what, map) in [("bands", &bands), ("flat", &flat)] {
                    let label = format!("{name} {cut} {what}");
                    let cs = assert_batch_matches_scalar(&cfg, &grid, &label, |g, sess| {
                        for _ in 0..2 {
                            let dt = compute_dt(g, &params);
                            step::<Tracked>(g, &params, dt, Some(map), sess);
                        }
                    });
                    if cut == "M-1" && what == "bands" {
                        assert!(cs.trunc.total() > 0, "{label}: truncated ops counted");
                        assert!(cs.full.total() > 0, "{label}: full-precision ops counted");
                    }
                }
            }
        }
    }

    /// The batch reinitialization must reproduce the per-cell generic loop
    /// bit for bit with exact op-counter parity under every differential
    /// configuration. A ×2.5 distortion keeps `phi` away from a fixed
    /// point so both signs of `s` (and all upwind selects) are exercised
    /// through all 12 pseudo-time iterations, on the circle and on the
    /// seeded random grid.
    #[test]
    fn batch_reinit_bit_identical_to_scalar() {
        for (name, cfg) in differential_configs() {
            for (what, mut grid) in [("circle", circle_grid(24, 24)), ("random", random_grid(0x5E1))] {
                for v in grid.phi.iter_mut() {
                    *v *= 2.5;
                }
                grid.apply_bcs();
                let cs = assert_batch_matches_scalar(&cfg, &grid, &format!("{name} {what}"), |g, sess| {
                    reinitialize::<Tracked>(g, 12, sess)
                });
                assert!(cs.trunc.sqrt > 0, "{name} {what}: Hamiltonian sqrts counted");
                assert!(cs.trunc.mul > 0, "{name} {what}: Godunov squarings counted");
            }
        }
    }

    #[test]
    fn weno5_derivative_exact_on_linear() {
        let mut g = Grid::new(16, 16, 0.1, (0.0, 0.0));
        for j in -3..19 {
            for i in -3..19 {
                let x = (i as f64 + 0.5) * 0.1;
                let c = g.at(i, j);
                g.u[c] = 3.0 * x + 1.0;
            }
        }
        let d: f64 = weno5_deriv(&g, &g.u, 8, 8, 0, 1.0, 10.0);
        assert!((d - 3.0).abs() < 1e-10, "d {d}");
        let d2: f64 = weno5_deriv(&g, &g.u, 8, 8, 0, -1.0, 10.0);
        assert!((d2 - 3.0).abs() < 1e-10);
    }
}
