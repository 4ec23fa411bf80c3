//! Conserved/primitive state vectors and the gamma-law equation of state.
//!
//! Conserved variables (per cell): density, x-momentum, y-momentum, total
//! energy density. Primitives: density, velocities, pressure. The EOS is a
//! trait so the Cellular workload can plug in the table-based Helmholtz
//! substitute from the `eos` crate (paper §4.2, Hypothesis 2).

use raptor_core::batch::Col;
use raptor_core::{Arith, Real};

/// Index of the density variable in mesh storage.
pub const DENS: usize = 0;
/// Index of x-momentum.
pub const MOMX: usize = 1;
/// Index of y-momentum.
pub const MOMY: usize = 2;
/// Index of total energy density.
pub const ENER: usize = 3;
/// Number of conserved variables.
pub const NVAR: usize = 4;

/// Conserved state.
#[derive(Clone, Copy, Debug)]
pub struct Cons<R> {
    /// Mass density.
    pub rho: R,
    /// x-momentum density.
    pub mx: R,
    /// y-momentum density.
    pub my: R,
    /// Total energy density.
    pub e: R,
}

/// Primitive state.
#[derive(Clone, Copy, Debug)]
pub struct Prim<R> {
    /// Mass density.
    pub rho: R,
    /// x-velocity.
    pub vx: R,
    /// y-velocity.
    pub vy: R,
    /// Pressure.
    pub p: R,
}

/// Equation of state abstraction (Flash-X `Eos` unit). The evaluators
/// come at any [`Real`] (the scalar path, which may branch on its data)
/// and at [`Col`] (the hydro sweep's batch path), with the same ops per
/// element in the same regions, so the paths stay bit-identical with
/// equal op counts.
pub trait Eos: Sync + Send {
    /// Whether the column methods are the scalar ones' own source at `Col`
    /// (a closed form written once over [`Arith`]): each op then has the
    /// scalar call site, so mem-mode columns report as the scalar path.
    const COLS_SHARE_SOURCE: bool = false;
    /// Pressure from density and specific internal energy.
    fn pressure<R: Real>(&self, rho: R, eint: R) -> R;
    /// Specific internal energy from density and pressure.
    fn eint<R: Real>(&self, rho: R, p: R) -> R;
    /// Adiabatic sound speed from density and pressure.
    fn sound_speed<R: Real>(&self, rho: R, p: R) -> R;
    /// [`Eos::pressure`] over columns.
    fn pressure_col(&self, rho: Col, eint: Col) -> Col;
    /// [`Eos::eint`] over columns.
    fn eint_col(&self, rho: Col, p: Col) -> Col;
    /// [`Eos::sound_speed`] over columns.
    fn sound_speed_col(&self, rho: Col, p: Col) -> Col;
}

/// An EOS as the [`Arith`]-generic kernels see it at one value type: every
/// [`Eos`] at a [`Real`], and an [`Eos`] wrapped in [`Cols`] at [`Col`].
pub trait EosView<R> {
    /// Pressure from density and specific internal energy.
    fn pressure(&self, rho: R, eint: R) -> R;
    /// Specific internal energy from density and pressure.
    fn eint(&self, rho: R, p: R) -> R;
    /// Adiabatic sound speed from density and pressure.
    fn sound_speed(&self, rho: R, p: R) -> R;
}

impl<R: Real, E: Eos> EosView<R> for E {
    fn pressure(&self, rho: R, eint: R) -> R {
        Eos::pressure(self, rho, eint)
    }
    fn eint(&self, rho: R, p: R) -> R {
        Eos::eint(self, rho, p)
    }
    fn sound_speed(&self, rho: R, p: R) -> R {
        Eos::sound_speed(self, rho, p)
    }
}

/// An [`Eos`] viewed at [`Col`] through its column methods.
pub struct Cols<'a, E>(pub &'a E);

impl<E: Eos> EosView<Col> for Cols<'_, E> {
    fn pressure(&self, rho: Col, eint: Col) -> Col {
        self.0.pressure_col(rho, eint)
    }
    fn eint(&self, rho: Col, p: Col) -> Col {
        self.0.eint_col(rho, p)
    }
    fn sound_speed(&self, rho: Col, p: Col) -> Col {
        self.0.sound_speed_col(rho, p)
    }
}

/// Ideal-gas gamma-law EOS.
#[derive(Clone, Copy, Debug)]
pub struct GammaLaw {
    /// Adiabatic index.
    pub gamma: f64,
}

impl Default for GammaLaw {
    fn default() -> Self {
        GammaLaw { gamma: 1.4 }
    }
}

/// The gamma law's formulas, once for both [`Eos`] instantiations.
impl GammaLaw {
    #[inline]
    fn p_of<R: Arith>(&self, rho: R, eint: R) -> R {
        R::from_f64(self.gamma - 1.0) * rho * eint
    }
    #[inline]
    fn eint_of<R: Arith>(&self, rho: R, p: R) -> R {
        p / (R::from_f64(self.gamma - 1.0) * rho)
    }
    #[inline]
    fn c_of<R: Arith>(&self, rho: R, p: R) -> R {
        (R::from_f64(self.gamma) * p / rho).sqrt()
    }
}

impl Eos for GammaLaw {
    const COLS_SHARE_SOURCE: bool = true;
    #[inline]
    fn pressure<R: Real>(&self, rho: R, eint: R) -> R {
        self.p_of(rho, eint)
    }
    #[inline]
    fn eint<R: Real>(&self, rho: R, p: R) -> R {
        self.eint_of(rho, p)
    }
    #[inline]
    fn sound_speed<R: Real>(&self, rho: R, p: R) -> R {
        self.c_of(rho, p)
    }
    fn pressure_col(&self, rho: Col, eint: Col) -> Col {
        self.p_of(rho, eint)
    }
    fn eint_col(&self, rho: Col, p: Col) -> Col {
        self.eint_of(rho, p)
    }
    fn sound_speed_col(&self, rho: Col, p: Col) -> Col {
        self.c_of(rho, p)
    }
}

/// Floors applied during primitive recovery (Flash-X `smlrho`/`smallp`),
/// essential where aggressive truncation drives density or pressure below 0.
#[derive(Clone, Copy, Debug)]
pub struct Floors {
    /// Minimum density.
    pub small_rho: f64,
    /// Minimum pressure.
    pub small_p: f64,
}

impl Default for Floors {
    fn default() -> Self {
        Floors { small_rho: 1e-12, small_p: 1e-12 }
    }
}

/// Convert conserved to primitive, applying floors.
#[inline]
pub fn cons_to_prim<R: Arith, E: EosView<R>>(u: Cons<R>, eos: &E, fl: &Floors) -> Prim<R> {
    let rho = u.rho.max(R::from_f64(fl.small_rho));
    let vx = u.mx / rho;
    let vy = u.my / rho;
    let ke = R::half() * rho * (vx * vx + vy * vy);
    let eint = (u.e - ke) / rho;
    let p = eos.pressure(rho, eint).max(R::from_f64(fl.small_p));
    Prim { rho, vx, vy, p }
}

/// Convert primitive to conserved.
#[inline]
pub fn prim_to_cons<R: Arith, E: EosView<R>>(w: Prim<R>, eos: &E) -> Cons<R> {
    let eint = eos.eint(w.rho, w.p);
    let ke = R::half() * w.rho * (w.vx * w.vx + w.vy * w.vy);
    Cons { rho: w.rho, mx: w.rho * w.vx, my: w.rho * w.vy, e: w.rho * eint + ke }
}

/// Physical flux of the Euler equations along an axis (0 = x, 1 = y).
#[inline]
pub fn physical_flux<R: Arith, E: EosView<R>>(w: Prim<R>, eos: &E, axis: usize) -> Cons<R> {
    let u = prim_to_cons(w, eos);
    match axis {
        0 => Cons {
            rho: u.rho * w.vx,
            mx: u.mx * w.vx + w.p,
            my: u.my * w.vx,
            e: (u.e + w.p) * w.vx,
        },
        _ => Cons {
            rho: u.rho * w.vy,
            mx: u.mx * w.vy,
            my: u.my * w.vy + w.p,
            e: (u.e + w.p) * w.vy,
        },
    }
}

impl<R: Arith> Cons<R> {
    /// Component-wise addition.
    #[inline]
    pub fn add(self, o: Cons<R>) -> Cons<R> {
        Cons { rho: self.rho + o.rho, mx: self.mx + o.mx, my: self.my + o.my, e: self.e + o.e }
    }

    /// Component-wise subtraction.
    #[inline]
    pub fn sub(self, o: Cons<R>) -> Cons<R> {
        Cons { rho: self.rho - o.rho, mx: self.mx - o.mx, my: self.my - o.my, e: self.e - o.e }
    }

    /// Scale by a scalar.
    #[inline]
    pub fn scale(self, s: R) -> Cons<R> {
        Cons { rho: self.rho * s, mx: self.mx * s, my: self.my * s, e: self.e * s }
    }
}

impl<R> Cons<R> {
    /// Apply `f` to every component.
    pub fn map<S>(self, mut f: impl FnMut(R) -> S) -> Cons<S> {
        Cons { rho: f(self.rho), mx: f(self.mx), my: f(self.my), e: f(self.e) }
    }

    /// The components, in field order.
    pub fn to_array(self) -> [R; 4] {
        [self.rho, self.mx, self.my, self.e]
    }

    /// Inverse of [`Cons::to_array`].
    pub fn from_array([rho, mx, my, e]: [R; 4]) -> Cons<R> {
        Cons { rho, mx, my, e }
    }
}

impl<R> Prim<R> {
    /// Apply `f` to every component.
    pub fn map<S>(self, mut f: impl FnMut(R) -> S) -> Prim<S> {
        Prim { rho: f(self.rho), vx: f(self.vx), vy: f(self.vy), p: f(self.p) }
    }

    /// The components, in field order.
    pub fn to_array(self) -> [R; 4] {
        [self.rho, self.vx, self.vy, self.p]
    }

    /// Inverse of [`Prim::to_array`].
    pub fn from_array([rho, vx, vy, p]: [R; 4]) -> Prim<R> {
        Prim { rho, vx, vy, p }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prim_cons_roundtrip() {
        let eos = GammaLaw::default();
        let fl = Floors::default();
        let w = Prim { rho: 1.3f64, vx: 0.5, vy: -0.2, p: 2.1 };
        let u = prim_to_cons(w, &eos);
        let w2 = cons_to_prim(u, &eos, &fl);
        assert!((w.rho - w2.rho).abs() < 1e-14);
        assert!((w.vx - w2.vx).abs() < 1e-14);
        assert!((w.vy - w2.vy).abs() < 1e-14);
        assert!((w.p - w2.p).abs() < 1e-14);
    }

    #[test]
    fn sound_speed_ideal_gas() {
        let eos = GammaLaw { gamma: 1.4 };
        let c: f64 = Eos::sound_speed(&eos, 1.0, 1.0);
        assert!((c - 1.4f64.sqrt()).abs() < 1e-15);
    }

    #[test]
    fn floors_clamp_negative_states() {
        let eos = GammaLaw::default();
        let fl = Floors::default();
        let u = Cons { rho: -1.0f64, mx: 0.0, my: 0.0, e: -5.0 };
        let w = cons_to_prim(u, &eos, &fl);
        assert_eq!(w.rho, fl.small_rho);
        assert_eq!(w.p, fl.small_p);
    }

    #[test]
    fn x_flux_of_static_state_is_pressure_only() {
        let eos = GammaLaw::default();
        let w = Prim { rho: 1.0f64, vx: 0.0, vy: 0.0, p: 2.5 };
        let f = physical_flux(w, &eos, 0);
        assert_eq!(f.rho, 0.0);
        assert_eq!(f.mx, 2.5);
        assert_eq!(f.my, 0.0);
        assert_eq!(f.e, 0.0);
    }

    #[test]
    fn flux_galilean_consistency() {
        // Mass flux = rho * v in both axes.
        let eos = GammaLaw::default();
        let w = Prim { rho: 2.0f64, vx: 3.0, vy: -1.0, p: 1.0 };
        assert_eq!(physical_flux(w, &eos, 0).rho, 6.0);
        assert_eq!(physical_flux(w, &eos, 1).rho, -2.0);
    }

    /// The column evaluators against their scalar twins on plain f64 (no
    /// session: the hardware tier): the `GammaLaw` `Col` methods must
    /// reproduce the scalar ones bit for bit — the batch tier's contract
    /// with Tracked dispatch.
    #[test]
    fn eos_batch_twins_bit_identical_to_scalar() {
        let eos = GammaLaw { gamma: 1.4 };
        let n = 17;
        let rho: Vec<f64> = (0..n).map(|k| 0.3 + 0.11 * k as f64).collect();
        let val: Vec<f64> = (0..n).map(|k| 0.8 + 0.07 * k as f64).collect();
        let _cols = raptor_core::batch::scope(n);
        let (r, v) = (Col::from_slice(&rho), Col::from_slice(&val));
        eos.pressure_col(r, v).read(|out| {
            for k in 0..n {
                assert_eq!(out[k].to_bits(), Eos::pressure(&eos, rho[k], val[k]).to_bits());
            }
        });
        eos.eint_col(r, v).read(|out| {
            for k in 0..n {
                assert_eq!(out[k].to_bits(), Eos::eint(&eos, rho[k], val[k]).to_bits());
            }
        });
        eos.sound_speed_col(r, v).read(|out| {
            for k in 0..n {
                assert_eq!(out[k].to_bits(), Eos::sound_speed(&eos, rho[k], val[k]).to_bits());
            }
        });
    }

    /// The conversion layer at `Col`: `prim_to_cons` and `physical_flux`
    /// over columns against per-element scalar conversions.
    #[test]
    fn conversion_batch_twins_bit_identical_to_scalar() {
        let eos = GammaLaw { gamma: 1.4 };
        let n = 23;
        let prim = |k: usize| {
            let x = k as f64;
            Prim { rho: 0.4 + 0.13 * x, vx: (0.7 * x).sin(), vy: (0.4 * x).cos() - 0.5, p: 0.9 + 0.08 * x }
        };
        let _cols = raptor_core::batch::scope(n);
        let col = |f: fn(Prim<f64>) -> f64| Col::new_with(|o| (0..n).for_each(|k| o[k] = f(prim(k))));
        let w = Prim { rho: col(|w| w.rho), vx: col(|w| w.vx), vy: col(|w| w.vy), p: col(|w| w.p) };
        let check = |got: Cons<Col>, want: &dyn Fn(Prim<f64>) -> Cons<f64>, what: &str| {
            for (c, name) in [(got.rho, "rho"), (got.mx, "mx"), (got.my, "my"), (got.e, "e")] {
                c.read(|v| {
                    for k in 0..n {
                        let s = want(prim(k));
                        let s = match name {
                            "rho" => s.rho,
                            "mx" => s.mx,
                            "my" => s.my,
                            _ => s.e,
                        };
                        assert_eq!(v[k].to_bits(), s.to_bits(), "{what} {name} k={k}");
                    }
                });
            }
        };
        check(prim_to_cons(w, &Cols(&eos)), &|p| prim_to_cons(p, &eos), "prim_to_cons");
        for axis in [0usize, 1] {
            let got = physical_flux(w, &Cols(&eos), axis);
            check(got, &|p| physical_flux(p, &eos, axis), &format!("flux axis={axis}"));
        }
    }
}
