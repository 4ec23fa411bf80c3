//! Conserved/primitive state vectors and the gamma-law equation of state.
//!
//! Conserved variables (per cell): density, x-momentum, y-momentum, total
//! energy density. Primitives: density, velocities, pressure. The EOS is a
//! trait so the Cellular workload can plug in the table-based Helmholtz
//! substitute from the `eos` crate (paper §4.2, Hypothesis 2).

use raptor_core::{batch, Real};

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
pub struct Cons<R: Real> {
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
pub struct Prim<R: Real> {
    /// Mass density.
    pub rho: R,
    /// x-velocity.
    pub vx: R,
    /// y-velocity.
    pub vy: R,
    /// Pressure.
    pub p: R,
}

/// Equation of state abstraction (Flash-X `Eos` unit).
///
/// Besides the scalar evaluators, an EOS may opt into *batch* evaluation
/// ([`Eos::batch_supported`]): slice-shaped variants that route through
/// [`raptor_core::batch`], letting the hydro sweep retire per-op dispatch
/// for whole blocks at a time. A batch implementation must execute exactly the
/// same operation sequence as its scalar counterpart (same ops, same
/// order per element, same regions pushed) so results stay bit-identical
/// and operation counts stay exactly equal between the two paths.
///
/// Each implementation names its own reusable workspace type
/// ([`Eos::BatchScratch`]): a plain `Vec<f64>` suffices for the closed-form
/// gamma law, while the tabulated Helmholtz EOS carries Newton/interp
/// scratch and a bisection state. Callers build it with `Default` and
/// thread one instance through a whole sweep; the evaluators size it
/// internally.
pub trait Eos: Sync + Send {
    /// Reusable workspace for the slice-shaped evaluators. Built by the
    /// caller via `Default`, resized internally by the implementation.
    type BatchScratch: Default;

    /// Pressure from density and specific internal energy.
    fn pressure<R: Real>(&self, rho: R, eint: R) -> R;
    /// Specific internal energy from density and pressure.
    fn eint<R: Real>(&self, rho: R, p: R) -> R;
    /// Adiabatic sound speed from density and pressure.
    fn sound_speed<R: Real>(&self, rho: R, p: R) -> R;

    /// Whether the slice-shaped evaluators below are implemented. When
    /// `false` (the default) callers must stay on the scalar path.
    fn batch_supported(&self) -> bool {
        false
    }

    /// Slice variant of [`Eos::pressure`]. `out` must be the same length
    /// as the inputs. Only called when [`Eos::batch_supported`] is true.
    fn pressure_batch(&self, rho: &[f64], eint: &[f64], ws: &mut Self::BatchScratch, out: &mut [f64]) {
        let _ = (rho, eint, ws, out);
        unimplemented!("EOS does not provide batch kernels; gate on batch_supported()")
    }

    /// Slice variant of [`Eos::eint`].
    fn eint_batch(&self, rho: &[f64], p: &[f64], ws: &mut Self::BatchScratch, out: &mut [f64]) {
        let _ = (rho, p, ws, out);
        unimplemented!("EOS does not provide batch kernels; gate on batch_supported()")
    }

    /// Slice variant of [`Eos::sound_speed`].
    fn sound_speed_batch(&self, rho: &[f64], p: &[f64], ws: &mut Self::BatchScratch, out: &mut [f64]) {
        let _ = (rho, p, ws, out);
        unimplemented!("EOS does not provide batch kernels; gate on batch_supported()")
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

impl Eos for GammaLaw {
    type BatchScratch = Vec<f64>;

    #[inline]
    fn pressure<R: Real>(&self, rho: R, eint: R) -> R {
        R::from_f64(self.gamma - 1.0) * rho * eint
    }
    #[inline]
    fn eint<R: Real>(&self, rho: R, p: R) -> R {
        p / (R::from_f64(self.gamma - 1.0) * rho)
    }
    #[inline]
    fn sound_speed<R: Real>(&self, rho: R, p: R) -> R {
        (R::from_f64(self.gamma) * p / rho).sqrt()
    }

    fn batch_supported(&self) -> bool {
        true
    }

    // The batch variants mirror the scalar ASTs op for op: `(g-1)*rho` is
    // one broadcast multiply, etc., so values and operation counts are
    // identical to a per-element scalar evaluation.
    fn pressure_batch(&self, rho: &[f64], eint: &[f64], ws: &mut Vec<f64>, out: &mut [f64]) {
        ws.resize(out.len(), 0.0);
        batch::batch_rmul_s(self.gamma - 1.0, rho, ws);
        batch::batch_mul(ws, eint, out);
    }

    fn eint_batch(&self, rho: &[f64], p: &[f64], ws: &mut Vec<f64>, out: &mut [f64]) {
        ws.resize(out.len(), 0.0);
        batch::batch_rmul_s(self.gamma - 1.0, rho, ws);
        batch::batch_div(p, ws, out);
    }

    fn sound_speed_batch(&self, rho: &[f64], p: &[f64], ws: &mut Vec<f64>, out: &mut [f64]) {
        ws.resize(out.len(), 0.0);
        batch::batch_rmul_s(self.gamma, p, out);
        batch::batch_div(out, rho, ws);
        batch::batch_sqrt(ws, out);
    }
}

/// Floors applied during primitive recovery (Flash-X `smlrho`/`smallp`):
/// essential under aggressive truncation, which can drive density or
/// pressure negative.
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
pub fn cons_to_prim<R: Real, E: Eos>(u: Cons<R>, eos: &E, fl: &Floors) -> Prim<R> {
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
pub fn prim_to_cons<R: Real, E: Eos>(w: Prim<R>, eos: &E) -> Cons<R> {
    let eint = eos.eint(w.rho, w.p);
    let ke = R::half() * w.rho * (w.vx * w.vx + w.vy * w.vy);
    Cons { rho: w.rho, mx: w.rho * w.vx, my: w.rho * w.vy, e: w.rho * eint + ke }
}

/// Physical flux of the Euler equations along an axis (0 = x, 1 = y).
#[inline]
pub fn physical_flux<R: Real, E: Eos>(w: Prim<R>, eos: &E, axis: usize) -> Cons<R> {
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

impl<R: Real> Cons<R> {
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

// ---------------------------------------------------------------------------
// Slice-shaped state (structure-of-arrays lines for the batch kernels)
// ---------------------------------------------------------------------------

/// Four primitive-component arrays in structure-of-arrays form, the unit
/// of work for the batch kernels: in the sweep, every line of one block
/// laid end to end (or a compacted subset of them).
#[derive(Default)]
pub struct P4 {
    /// Densities.
    pub rho: Vec<f64>,
    /// x-velocities.
    pub vx: Vec<f64>,
    /// y-velocities.
    pub vy: Vec<f64>,
    /// Pressures.
    pub p: Vec<f64>,
}

/// Four conserved-component arrays (see [`P4`]).
#[derive(Default)]
pub struct C4 {
    /// Mass densities.
    pub rho: Vec<f64>,
    /// x-momentum densities.
    pub mx: Vec<f64>,
    /// y-momentum densities.
    pub my: Vec<f64>,
    /// Total energy densities.
    pub e: Vec<f64>,
}

impl P4 {
    /// Empty storage (alias of `Default`, kept for call-site symmetry).
    pub fn new() -> P4 {
        P4::default()
    }
    /// Resize every component array to `n` elements.
    pub fn resize(&mut self, n: usize) {
        self.rho.resize(n, 0.0);
        self.vx.resize(n, 0.0);
        self.vy.resize(n, 0.0);
        self.p.resize(n, 0.0);
    }
}

impl C4 {
    /// Empty storage.
    pub fn new() -> C4 {
        C4::default()
    }
    /// Resize every component array to `n` elements.
    pub fn resize(&mut self, n: usize) {
        self.rho.resize(n, 0.0);
        self.mx.resize(n, 0.0);
        self.my.resize(n, 0.0);
        self.e.resize(n, 0.0);
    }
}

/// Five-slot temporary slice pool (resized once per stage, reused across
/// stages and blocks) shared by the batch sweep stages and the partitioned Riemann
/// solver.
#[derive(Default)]
pub struct Tmp {
    /// Scratch slot.
    pub a: Vec<f64>,
    /// Scratch slot.
    pub b: Vec<f64>,
    /// Scratch slot.
    pub c: Vec<f64>,
    /// Scratch slot.
    pub d: Vec<f64>,
    /// Scratch slot.
    pub e: Vec<f64>,
}

impl Tmp {
    /// Empty pool.
    pub fn new() -> Tmp {
        Tmp::default()
    }
    /// Resize every slot to `n` elements.
    pub fn resize(&mut self, n: usize) {
        self.a.resize(n, 0.0);
        self.b.resize(n, 0.0);
        self.c.resize(n, 0.0);
        self.d.resize(n, 0.0);
        self.e.resize(n, 0.0);
    }
}

/// Batch [`prim_to_cons`]: same AST as the scalar version
/// (`eint = eos.eint(rho, p)`, `ke = 0.5*rho*(vx²+vy²)`, then the four
/// conserved components), one slice op per node.
pub fn prim_to_cons_batch<E: Eos>(
    eos: &E,
    w: &P4,
    out: &mut C4,
    t: &mut Tmp,
    ws: &mut E::BatchScratch,
) {
    let n = w.rho.len();
    out.resize(n);
    t.resize(n);
    eos.eint_batch(&w.rho, &w.p, ws, &mut t.b); // eint -> t.b
    batch::batch_rmul_s(0.5, &w.rho, &mut t.c); // half*rho
    batch::batch_mul(&w.vx, &w.vx, &mut t.d);
    batch::batch_mul(&w.vy, &w.vy, &mut t.e);
    batch::batch_add(&t.d, &t.e, &mut t.a);
    batch::batch_mul(&t.c, &t.a, &mut t.d); // ke -> t.d
    out.rho.copy_from_slice(&w.rho);
    batch::batch_mul(&w.rho, &w.vx, &mut out.mx);
    batch::batch_mul(&w.rho, &w.vy, &mut out.my);
    batch::batch_mul(&w.rho, &t.b, &mut t.c); // rho*eint
    batch::batch_add(&t.c, &t.d, &mut out.e);
}

/// Batch [`physical_flux`]: [`prim_to_cons_batch`] (into `ucons`) plus the
/// axis flux tail.
pub fn physical_flux_batch<E: Eos>(
    eos: &E,
    w: &P4,
    axis: usize,
    ucons: &mut C4,
    out: &mut C4,
    t: &mut Tmp,
    ws: &mut E::BatchScratch,
) {
    prim_to_cons_batch(eos, w, ucons, t, ws);
    let n = w.rho.len();
    out.resize(n);
    let vn = if axis == 0 { &w.vx } else { &w.vy };
    batch::batch_mul(&ucons.rho, vn, &mut out.rho);
    if axis == 0 {
        batch::batch_mul(&ucons.mx, vn, &mut t.a);
        batch::batch_add(&t.a, &w.p, &mut out.mx);
        batch::batch_mul(&ucons.my, vn, &mut out.my);
    } else {
        batch::batch_mul(&ucons.mx, vn, &mut out.mx);
        batch::batch_mul(&ucons.my, vn, &mut t.a);
        batch::batch_add(&t.a, &w.p, &mut out.my);
    }
    batch::batch_add(&ucons.e, &w.p, &mut t.b);
    batch::batch_mul(&t.b, vn, &mut out.e);
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
        let c: f64 = eos.sound_speed(1.0, 1.0);
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

    /// Differential twins required by the batch-pairing lint rule: the
    /// `GammaLaw` slice evaluators must reproduce their scalar twins bit
    /// for bit on plain f64 — the batch tier's contract with Tracked
    /// dispatch (see `crates/raptor-lint`).
    #[test]
    fn eos_batch_twins_bit_identical_to_scalar() {
        let eos = GammaLaw { gamma: 1.4 };
        let n = 17;
        let rho: Vec<f64> = (0..n).map(|k| 0.3 + 0.11 * k as f64).collect();
        let val: Vec<f64> = (0..n).map(|k| 0.8 + 0.07 * k as f64).collect();
        let mut ws: Vec<f64> = Vec::new();
        let mut out = vec![0.0; n];
        eos.pressure_batch(&rho, &val, &mut ws, &mut out);
        for k in 0..n {
            assert_eq!(out[k].to_bits(), eos.pressure::<f64>(rho[k], val[k]).to_bits());
        }
        eos.eint_batch(&rho, &val, &mut ws, &mut out);
        for k in 0..n {
            assert_eq!(out[k].to_bits(), eos.eint::<f64>(rho[k], val[k]).to_bits());
        }
        eos.sound_speed_batch(&rho, &val, &mut ws, &mut out);
        for k in 0..n {
            assert_eq!(out[k].to_bits(), eos.sound_speed::<f64>(rho[k], val[k]).to_bits());
        }
    }

    /// Batch-pairing twins for the conversion layer: `prim_to_cons_batch`
    /// and `physical_flux_batch` against per-element scalar conversions.
    #[test]
    fn conversion_batch_twins_bit_identical_to_scalar() {
        let eos = GammaLaw { gamma: 1.4 };
        let n = 23;
        let mut w = P4::new();
        w.resize(n);
        for k in 0..n {
            let x = k as f64;
            w.rho[k] = 0.4 + 0.13 * x;
            w.vx[k] = (0.7 * x).sin();
            w.vy[k] = (0.4 * x).cos() - 0.5;
            w.p[k] = 0.9 + 0.08 * x;
        }
        let mut u = C4::new();
        let mut t = Tmp::new();
        let mut ws: Vec<f64> = Vec::new();
        prim_to_cons_batch(&eos, &w, &mut u, &mut t, &mut ws);
        for k in 0..n {
            let s = prim_to_cons(Prim { rho: w.rho[k], vx: w.vx[k], vy: w.vy[k], p: w.p[k] }, &eos);
            assert_eq!(u.rho[k].to_bits(), s.rho.to_bits(), "rho k={k}");
            assert_eq!(u.mx[k].to_bits(), s.mx.to_bits(), "mx k={k}");
            assert_eq!(u.my[k].to_bits(), s.my.to_bits(), "my k={k}");
            assert_eq!(u.e[k].to_bits(), s.e.to_bits(), "e k={k}");
        }
        let mut f = C4::new();
        for axis in [0usize, 1] {
            physical_flux_batch(&eos, &w, axis, &mut u, &mut f, &mut t, &mut ws);
            for k in 0..n {
                let wk = Prim { rho: w.rho[k], vx: w.vx[k], vy: w.vy[k], p: w.p[k] };
                let s = physical_flux(wk, &eos, axis);
                assert_eq!(f.rho[k].to_bits(), s.rho.to_bits(), "rho axis={axis} k={k}");
                assert_eq!(f.mx[k].to_bits(), s.mx.to_bits(), "mx axis={axis} k={k}");
                assert_eq!(f.my[k].to_bits(), s.my.to_bits(), "my axis={axis} k={k}");
                assert_eq!(f.e[k].to_bits(), s.e.to_bits(), "e axis={axis} k={k}");
            }
        }
    }
}
