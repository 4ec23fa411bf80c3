//! Approximate Riemann solvers: HLL and HLLC.
//!
//! The `Hydro/riemann` region ("the Riemann solver handles discontinuous
//! solutions in shocks", paper §6.3). Table 2 shows that *excluding* it
//! from truncation — counter-intuitively — worsens the Sedov error, one of
//! the paper's key observations about non-obvious truncation behaviour.

use crate::state::{physical_flux, prim_to_cons, Cols, Cons, Eos, EosView, Prim};
use raptor_core::batch::{self, Col};
use raptor_core::{Arith, Real};

/// Riemann solver selection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RiemannKind {
    /// Two-wave HLL (diffusive but very robust).
    Hll,
    /// Three-wave HLLC (resolves contact discontinuities).
    Hllc,
}

/// Davis wave-speed estimates.
#[inline]
fn wave_speeds<R: Arith, E: EosView<R>>(wl: Prim<R>, wr: Prim<R>, eos: &E, axis: usize) -> (R, R) {
    let cl = eos.sound_speed(wl.rho, wl.p);
    let cr = eos.sound_speed(wr.rho, wr.p);
    let (ul, ur) = if axis == 0 { (wl.vx, wr.vx) } else { (wl.vy, wr.vy) };
    let sl = (ul - cl).min(ur - cr);
    let sr = (ul + cl).max(ur + cr);
    (sl, sr)
}

/// HLL numerical flux at an interface.
pub fn hll_flux<R: Real, E: Eos>(wl: Prim<R>, wr: Prim<R>, eos: &E, axis: usize) -> Cons<R> {
    riemann_flux(RiemannKind::Hll, wl, wr, eos, axis)
}

/// HLLC numerical flux at an interface (Toro's formulation).
pub fn hllc_flux<R: Real, E: Eos>(wl: Prim<R>, wr: Prim<R>, eos: &E, axis: usize) -> Cons<R> {
    riemann_flux(RiemannKind::Hllc, wl, wr, eos, axis)
}

/// The interface flux of the `kind` solver: upwind physical flux when
/// both waves move the same way, else the HLL middle flux or the HLLC
/// star flux on the contact's upwind side.
pub fn riemann_flux<R: Real, E: Eos>(
    kind: RiemannKind,
    wl: Prim<R>,
    wr: Prim<R>,
    eos: &E,
    axis: usize,
) -> Cons<R> {
    let (sl, sr) = wave_speeds(wl, wr, eos, axis);
    let fl = physical_flux(wl, eos, axis);
    let fr = physical_flux(wr, eos, axis);
    let z = R::zero();
    if sl >= z {
        return fl;
    }
    if sr <= z {
        return fr;
    }
    let ul = prim_to_cons(wl, eos);
    let ur = prim_to_cons(wr, eos);
    match kind {
        RiemannKind::Hll => hll_middle(fl, fr, ul, ur, sl, sr),
        RiemannKind::Hllc => {
            let sm = hllc_contact(wl, wr, sl, sr, axis);
            if sm >= z {
                hllc_star(wl, ul, fl, sl, sm, axis)
            } else {
                hllc_star(wr, ur, fr, sr, sm, axis)
            }
        }
    }
}

/// HLL flux between the two waves.
#[inline]
fn hll_middle<R: Arith>(fl: Cons<R>, fr: Cons<R>, ul: Cons<R>, ur: Cons<R>, sl: R, sr: R) -> Cons<R> {
    let inv = R::one() / (sr - sl);
    Cons {
        rho: (fl.rho * sr - fr.rho * sl + sr * sl * (ur.rho - ul.rho)) * inv,
        mx: (fl.mx * sr - fr.mx * sl + sr * sl * (ur.mx - ul.mx)) * inv,
        my: (fl.my * sr - fr.my * sl + sr * sl * (ur.my - ul.my)) * inv,
        e: (fl.e * sr - fr.e * sl + sr * sl * (ur.e - ul.e)) * inv,
    }
}

/// HLLC contact wave speed.
#[inline]
fn hllc_contact<R: Arith>(wl: Prim<R>, wr: Prim<R>, sl: R, sr: R, axis: usize) -> R {
    let (unl, unr) = if axis == 0 { (wl.vx, wr.vx) } else { (wl.vy, wr.vy) };
    let num = wr.p - wl.p + wl.rho * unl * (sl - unl) - wr.rho * unr * (sr - unr);
    let den = wl.rho * (sl - unl) - wr.rho * (sr - unr);
    num / den
}

/// HLLC flux on one side of the contact: `f + (u* - u) s` with the
/// star-region state `u*` of `(w, u)` behind the wave of speed `s`.
#[inline]
fn hllc_star<R: Arith>(w: Prim<R>, u: Cons<R>, f: Cons<R>, s: R, sm: R, axis: usize) -> Cons<R> {
    let un = if axis == 0 { w.vx } else { w.vy };
    let factor = w.rho * (s - un) / (s - sm);
    let e_star = u.e / w.rho
        + (sm - un) * (sm + w.p / (w.rho * (s - un)));
    let us = match axis {
        0 => Cons {
            rho: factor,
            mx: factor * sm,
            my: factor * w.vy,
            e: factor * e_star,
        },
        _ => Cons {
            rho: factor,
            mx: factor * w.vx,
            my: factor * sm,
            e: factor * e_star,
        },
    };
    f.add(us.sub(u).scale(s))
}

// ---------------------------------------------------------------------------
// Partitioned batch solvers (the batch sweep's path)
// ---------------------------------------------------------------------------
//
// `riemann_flux` for a whole column of interfaces at once (the sweep
// passes every interface of a block, all lines of one leaf). Its
// straight-line pieces are the same source as the scalar solver's —
// `wave_speeds`, `physical_flux`, `prim_to_cons`, `hll_middle`,
// `hllc_contact`, `hllc_star` — instantiated at `Col`, so every op is one
// batch op over the column. Each data-dependent branch (the supersonic
// `sl >= 0` / `sr <= 0` early returns, the HLLC `sm >= 0` side) becomes a
// *partition* of the interfaces by the scalar predicate on the exact
// values: each class is gathered into a nested column scope, runs the
// branch's source there, and scatters back in interface order
// (`batch::scatter`, which moves a mem-mode column's shadows and raw lanes
// with its values). Per interface that is exactly the scalar solver's op
// sequence at the scalar solver's call sites, so values are bit-identical,
// op counts equal and mem-mode reports the same; the scalar solver remains
// the differential oracle.

/// The partition's index lists, reused across calls.
#[derive(Default)]
pub struct RiemannScratch {
    left: Vec<usize>,
    right: Vec<usize>,
    sub: Vec<usize>,
    side: [Vec<usize>; 2],
}

impl RiemannScratch {
    /// Capacity held by the class lists, for the scratch-reuse tests.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.left.capacity() + self.right.capacity() + self.sub.capacity()
    }
}

/// A state's columns at `idx` ([`batch::gather`]).
fn gather_prim(w: Prim<Col>, idx: &[usize]) -> Prim<Col> {
    Prim::from_array(batch::gather(w.to_array(), idx))
}

/// A flux's or conserved state's columns at `idx`.
fn gather_cons(u: Cons<Col>, idx: &[usize]) -> Cons<Col> {
    Cons::from_array(batch::gather(u.to_array(), idx))
}

/// Lane `j` of every component of `c` into lane `to[j]` of `out`'s.
fn scatter(c: Cons<Col>, to: impl Iterator<Item = usize> + Clone, out: Cons<Col>) {
    batch::scatter(out.to_array(), c.to_array(), to.enumerate());
}

/// Lane `i` of every component of `c` into the same lane of `out`'s, for
/// every `i` in `idx`.
fn copy_at(c: Cons<Col>, idx: &[usize], out: Cons<Col>) {
    batch::scatter(out.to_array(), c.to_array(), idx.iter().map(|&i| (i, i)));
}

/// Partitioned batch counterpart of [`riemann_flux`] over the columns of
/// the current [`batch::scope`]: element `f` of the result is the scalar
/// solver's flux for `(wl[f], wr[f])`, bit for bit, with exactly the
/// scalar op counts.
///
/// Callers are responsible for region scoping (the sweep evaluates this
/// inside `Hydro/riemann`, exactly where it calls the scalar solver) and
/// for gating: [`raptor_core::batch::ready`] in op mode, and under mem
/// mode [`raptor_core::batch::mem_ready`] with an EOS whose column methods
/// share the scalar source ([`Eos::COLS_SHARE_SOURCE`]).
pub fn riemann_flux_batch<E: Eos>(
    kind: RiemannKind,
    eos: &E,
    axis: usize,
    wl: Prim<Col>,
    wr: Prim<Col>,
    rs: &mut RiemannScratch,
) -> Cons<Col> {
    let eos = &Cols(eos);
    let (sl, sr) = wave_speeds(wl, wr, eos, axis);
    let fl = physical_flux(wl, eos, axis);
    let fr = physical_flux(wr, eos, axis);
    // Upwind classes, in the scalar test order (NaN speeds are subsonic).
    let RiemannScratch { left, right, sub, side } = rs;
    sl.read(|sl| {
        sr.read(|sr| {
            left.clear();
            right.clear();
            sub.clear();
            for (f, (&l, &r)) in sl.iter().zip(sr).enumerate() {
                let class = if l >= 0.0 { &mut *left } else if r <= 0.0 { &mut *right } else { &mut *sub };
                class.push(f);
            }
        })
    });
    // Every interface is in one class, so every lane is written.
    let out = Cons::from_array(Col::new_many(|_| {}));
    copy_at(fl, left, out);
    copy_at(fr, right, out);
    if !sub.is_empty() {
        let _sub = batch::scope(sub.len());
        let (wl, wr) = (gather_prim(wl, sub), gather_prim(wr, sub));
        let (fl, fr) = (gather_cons(fl, sub), gather_cons(fr, sub));
        let [sl, sr] = batch::gather([sl, sr], sub);
        let ul = prim_to_cons(wl, eos);
        let ur = prim_to_cons(wr, eos);
        match kind {
            RiemannKind::Hll => scatter(hll_middle(fl, fr, ul, ur, sl, sr), sub.iter().copied(), out),
            RiemannKind::Hllc => {
                // Contact sides (NaN goes right, like the scalar `else`).
                let sm = hllc_contact(wl, wr, sl, sr, axis);
                sm.read(|v| {
                    side.iter_mut().for_each(Vec::clear);
                    for (j, &x) in v.iter().enumerate() {
                        side[if x >= 0.0 { 0 } else { 1 }].push(j);
                    }
                });
                for (idx, (w, u, f, s)) in side.iter().zip([(wl, ul, fl, sl), (wr, ur, fr, sr)]) {
                    if idx.is_empty() {
                        continue;
                    }
                    let _side = batch::scope(idx.len());
                    let [s, sm] = batch::gather([s, sm], idx);
                    let (w, u, f) = (gather_prim(w, idx), gather_cons(u, idx), gather_cons(f, idx));
                    let star = hllc_star(w, u, f, s, sm, axis);
                    scatter(star, idx.iter().map(|&j| sub[j]), out);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::GammaLaw;

    fn eos() -> GammaLaw {
        GammaLaw { gamma: 1.4 }
    }

    #[test]
    fn equal_states_give_physical_flux() {
        let w = Prim { rho: 1.0f64, vx: 0.3, vy: -0.1, p: 0.8 };
        let f = physical_flux(w, &eos(), 0);
        for kind in [RiemannKind::Hll, RiemannKind::Hllc] {
            let g = riemann_flux(kind, w, w, &eos(), 0);
            assert!((g.rho - f.rho).abs() < 1e-14, "{kind:?}");
            assert!((g.mx - f.mx).abs() < 1e-13);
            assert!((g.my - f.my).abs() < 1e-13);
            assert!((g.e - f.e).abs() < 1e-13);
        }
    }

    #[test]
    fn supersonic_left_state_is_upwinded() {
        let wl = Prim { rho: 1.0f64, vx: 10.0, vy: 0.0, p: 1.0 };
        let wr = Prim { rho: 0.5f64, vx: 10.0, vy: 0.0, p: 0.5 };
        let f = riemann_flux(RiemannKind::Hllc, wl, wr, &eos(), 0);
        let fl = physical_flux(wl, &eos(), 0);
        assert_eq!(f.rho, fl.rho);
        assert_eq!(f.e, fl.e);
    }

    #[test]
    fn sod_interface_flux_is_sane() {
        // Sod's initial states: the interface flux must transport mass
        // rightward (positive density flux) and be bounded.
        let wl = Prim { rho: 1.0f64, vx: 0.0, vy: 0.0, p: 1.0 };
        let wr = Prim { rho: 0.125f64, vx: 0.0, vy: 0.0, p: 0.1 };
        for kind in [RiemannKind::Hll, RiemannKind::Hllc] {
            let f = riemann_flux(kind, wl, wr, &eos(), 0);
            assert!(f.rho > 0.0 && f.rho < 1.0, "{kind:?} rho flux {}", f.rho);
            assert!(f.mx > 0.0 && f.mx < 2.0);
        }
    }

    #[test]
    fn hllc_preserves_stationary_contact() {
        // Pure contact discontinuity at rest: HLLC flux must be exactly
        // zero mass/energy transport; HLL smears it.
        let wl = Prim { rho: 1.0f64, vx: 0.0, vy: 0.0, p: 1.0 };
        let wr = Prim { rho: 0.25f64, vx: 0.0, vy: 0.0, p: 1.0 };
        let fc = riemann_flux(RiemannKind::Hllc, wl, wr, &eos(), 0);
        assert!(fc.rho.abs() < 1e-14, "HLLC contact mass flux {}", fc.rho);
        assert!((fc.mx - 1.0).abs() < 1e-14, "momentum flux = pressure");
        let fh = riemann_flux(RiemannKind::Hll, wl, wr, &eos(), 0);
        assert!(fh.rho.abs() > 1e-3, "HLL diffuses the contact");
    }

    #[test]
    fn y_axis_symmetry() {
        let wl = Prim { rho: 1.0f64, vx: 0.0, vy: 0.2, p: 1.0 };
        let wr = Prim { rho: 0.5f64, vx: 0.0, vy: -0.1, p: 0.4 };
        let fy = riemann_flux(RiemannKind::Hllc, wl, wr, &eos(), 1);
        // Same problem rotated into x.
        let rl = Prim { rho: 1.0f64, vx: 0.2, vy: 0.0, p: 1.0 };
        let rr = Prim { rho: 0.5f64, vx: -0.1, vy: 0.0, p: 0.4 };
        let fx = riemann_flux(RiemannKind::Hllc, rl, rr, &eos(), 0);
        assert!((fy.rho - fx.rho).abs() < 1e-14);
        assert!((fy.my - fx.mx).abs() < 1e-14);
        assert!((fy.mx - fx.my).abs() < 1e-14);
        assert!((fy.e - fx.e).abs() < 1e-14);
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn unit(state: &mut u64) -> f64 {
        (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Randomized interface states engineered to populate every branch of
    /// the partition — supersonic left, supersonic right, and (for HLLC)
    /// both signs of the contact speed — must give bit-identical fluxes
    /// and exactly equal op counters between the partitioned batch solver
    /// and the per-interface scalar solver, across table-served formats
    /// (e11m12, fp16, the guarded e11m20) and the emulation fallback
    /// (e11m30).
    #[test]
    fn batch_riemann_bit_identical_and_counter_parity() {
        use bigfloat::Format;
        use raptor_core::{region, Config, Session, Tracked};
        let eos = eos();
        let n = 257usize;
        let mut state = 0x8a5cd789635d2dffu64;
        let (mut wl, mut wr) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for f in 0..n {
            // First ~quarter strongly right-moving (supersonic left
            // upwind), next ~quarter strongly left-moving, rest mixed
            // subsonic states straddling both contact-speed signs.
            let vx0 = if f < 64 {
                10.0
            } else if f < 128 {
                -10.0
            } else {
                2.0 * unit(&mut state) - 1.0
            };
            for w in [&mut wl, &mut wr] {
                w.push(Prim {
                    rho: 0.1 + unit(&mut state),
                    vx: vx0 + 0.1 * unit(&mut state),
                    vy: 0.5 * (2.0 * unit(&mut state) - 1.0),
                    p: 0.1 + unit(&mut state),
                });
            }
        }
        // Branch-coverage sanity on the generated states (plain f64, no
        // instrumentation): all four classes must be populated.
        {
            let g = GammaLaw { gamma: 1.4 };
            let (mut nl, mut nr, mut nsl, mut nsr) = (0, 0, 0, 0);
            for (&pl, &pr) in wl.iter().zip(&wr) {
                let (sl, sr) = wave_speeds(pl, pr, &g, 0);
                if sl >= 0.0 {
                    nl += 1;
                } else if sr <= 0.0 {
                    nr += 1;
                } else {
                    let (unl, unr) = (pl.vx, pr.vx);
                    let num = pr.p - pl.p + pl.rho * unl * (sl - unl) - pr.rho * unr * (sr - unr);
                    let den = pl.rho * (sl - unl) - pr.rho * (sr - unr);
                    if num / den >= 0.0 {
                        nsl += 1;
                    } else {
                        nsr += 1;
                    }
                }
            }
            assert!(nl > 0 && nr > 0 && nsl > 0 && nsr > 0, "classes {nl}/{nr}/{nsl}/{nsr}");
        }
        let formats =
            [Format::new(11, 12), Format::new(5, 10), Format::new(11, 20), Format::new(11, 30)];
        for fmt in formats {
            for axis in [0usize, 1] {
                for kind in [RiemannKind::Hll, RiemannKind::Hllc] {
                    // Scalar oracle: per-interface Tracked solver.
                    let sess =
                        Session::new(Config::op_files(fmt, ["Hydro"]).with_counting()).unwrap();
                    let mut scalar_bits = Vec::with_capacity(4 * n);
                    {
                        let _g = sess.install();
                        let _r = region("Hydro/riemann");
                        for f in 0..n {
                            let pl = wl[f].map(Tracked::from_f64);
                            let pr = wr[f].map(Tracked::from_f64);
                            let fl = riemann_flux(kind, pl, pr, &eos, axis);
                            scalar_bits.push(fl.rho.to_f64().to_bits());
                            scalar_bits.push(fl.mx.to_f64().to_bits());
                            scalar_bits.push(fl.my.to_f64().to_bits());
                            scalar_bits.push(fl.e.to_f64().to_bits());
                        }
                    }
                    let cs = sess.counters();
                    // Partitioned batch solver under an identical session.
                    let sess =
                        Session::new(Config::op_files(fmt, ["Hydro"]).with_counting()).unwrap();
                    let out = {
                        let _g = sess.install();
                        let _r = region("Hydro/riemann");
                        let _cols = batch::scope(n);
                        let col = |w: &[Prim<f64>]| {
                            let c = |f: fn(&Prim<f64>) -> f64| Col::from_slice(&w.iter().map(f).collect::<Vec<_>>());
                            Prim { rho: c(|w| w.rho), vx: c(|w| w.vx), vy: c(|w| w.vy), p: c(|w| w.p) }
                        };
                        let mut rs = RiemannScratch::default();
                        let flux = riemann_flux_batch(kind, &eos, axis, col(&wl), col(&wr), &mut rs);
                        flux.map(|c| c.read(<[f64]>::to_vec))
                    };
                    let cb = sess.counters();
                    for f in 0..n {
                        let got = [out.rho[f], out.mx[f], out.my[f], out.e[f]].map(f64::to_bits);
                        let want = &scalar_bits[4 * f..4 * f + 4];
                        assert_eq!(got, want, "{fmt:?} axis {axis} {kind:?} iface {f}");
                    }
                    assert_eq!(cs, cb, "{fmt:?} axis {axis} {kind:?}: counter parity");
                    assert!(cs.trunc.total() > 0, "{fmt:?}: truncated ops counted");
                }
            }
        }
    }
}
