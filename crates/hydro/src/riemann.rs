//! Approximate Riemann solvers: HLL and HLLC.
//!
//! The `Hydro/riemann` region ("the Riemann solver handles discontinuous
//! solutions in shocks", paper §6.3). Table 2 shows that *excluding* it
//! from truncation — counter-intuitively — worsens the Sedov error, one of
//! the paper's key observations about non-obvious truncation behaviour.

use crate::state::{
    physical_flux, physical_flux_batch, prim_to_cons, prim_to_cons_batch, Cons, Eos, Prim, Tmp,
    C4, P4,
};
use raptor_core::batch::{
    batch_add, batch_div, batch_mul, batch_rdiv_s, batch_sub,
};
use raptor_core::Real;

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
fn wave_speeds<R: Real, E: Eos>(wl: Prim<R>, wr: Prim<R>, eos: &E, axis: usize) -> (R, R) {
    let cl = eos.sound_speed(wl.rho, wl.p);
    let cr = eos.sound_speed(wr.rho, wr.p);
    let (ul, ur) = if axis == 0 { (wl.vx, wr.vx) } else { (wl.vy, wr.vy) };
    let sl = (ul - cl).min(ur - cr);
    let sr = (ul + cl).max(ur + cr);
    (sl, sr)
}

/// HLL numerical flux at an interface.
pub fn hll_flux<R: Real, E: Eos>(wl: Prim<R>, wr: Prim<R>, eos: &E, axis: usize) -> Cons<R> {
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
    let inv = R::one() / (sr - sl);
    Cons {
        rho: (fl.rho * sr - fr.rho * sl + sr * sl * (ur.rho - ul.rho)) * inv,
        mx: (fl.mx * sr - fr.mx * sl + sr * sl * (ur.mx - ul.mx)) * inv,
        my: (fl.my * sr - fr.my * sl + sr * sl * (ur.my - ul.my)) * inv,
        e: (fl.e * sr - fr.e * sl + sr * sl * (ur.e - ul.e)) * inv,
    }
}

/// HLLC numerical flux at an interface (Toro's formulation).
pub fn hllc_flux<R: Real, E: Eos>(wl: Prim<R>, wr: Prim<R>, eos: &E, axis: usize) -> Cons<R> {
    let (sl, sr) = wave_speeds(wl, wr, eos, axis);
    let z = R::zero();
    let fl = physical_flux(wl, eos, axis);
    let fr = physical_flux(wr, eos, axis);
    if sl >= z {
        return fl;
    }
    if sr <= z {
        return fr;
    }
    let ul = prim_to_cons(wl, eos);
    let ur = prim_to_cons(wr, eos);
    let (unl, unr) = if axis == 0 { (wl.vx, wr.vx) } else { (wl.vy, wr.vy) };
    // Contact wave speed.
    let num = wr.p - wl.p + wl.rho * unl * (sl - unl) - wr.rho * unr * (sr - unr);
    let den = wl.rho * (sl - unl) - wr.rho * (sr - unr);
    let sm = num / den;
    // Star-region states.
    let star = |w: Prim<R>, u: Cons<R>, s: R, un: R| -> Cons<R> {
        let factor = w.rho * (s - un) / (s - sm);
        let e_star = u.e / w.rho
            + (sm - un) * (sm + w.p / (w.rho * (s - un)));
        match axis {
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
        }
    };
    if sm >= z {
        let us = star(wl, ul, sl, unl);
        fl.add(us.sub(ul).scale(sl))
    } else {
        let us = star(wr, ur, sr, unr);
        fr.add(us.sub(ur).scale(sr))
    }
}

/// Dispatch by kind.
#[inline]
pub fn riemann_flux<R: Real, E: Eos>(
    kind: RiemannKind,
    wl: Prim<R>,
    wr: Prim<R>,
    eos: &E,
    axis: usize,
) -> Cons<R> {
    match kind {
        RiemannKind::Hll => hll_flux(wl, wr, eos, axis),
        RiemannKind::Hllc => hllc_flux(wl, wr, eos, axis),
    }
}

// ---------------------------------------------------------------------------
// Partitioned batch solvers (op-mode fast path)
// ---------------------------------------------------------------------------
//
// The same fluxes as `hll_flux`/`hllc_flux`, computed for a whole set of
// interfaces at once (the sweep passes every interface of a block, all
// lines of one leaf) through `raptor_core::batch` slice kernels. The
// interface-partition invariant: every data-dependent branch of the scalar
// solver (the supersonic `sl >= 0` / `sr <= 0` early returns, the HLLC
// `sm >= 0` star-state split) becomes a *partition* of the interface index
// set — each class is gathered into contiguous scratch, its branch body
// runs as fused slice ops under one `FastPath` read + one bulk counter
// add, and results scatter back in interface order. Per interface the op
// AST is exactly the scalar solver's (including recomputed subexpressions
// such as HLLC's `(s - un)`), so values stay bit-identical and op counts
// exactly equal; the scalar functions above remain the mem-mode path and
// the differential oracle. Comparisons and min/max selections are exact,
// uncounted ops in the scalar path and stay plain `f64` selects here.

fn gather(src: &[f64], idx: &[usize], dst: &mut Vec<f64>) {
    dst.clear();
    dst.extend(idx.iter().map(|&i| src[i]));
}

fn gather_p4(src: &P4, idx: &[usize], dst: &mut P4) {
    gather(&src.rho, idx, &mut dst.rho);
    gather(&src.vx, idx, &mut dst.vx);
    gather(&src.vy, idx, &mut dst.vy);
    gather(&src.p, idx, &mut dst.p);
}

fn gather_c4(src: &C4, idx: &[usize], dst: &mut C4) {
    gather(&src.rho, idx, &mut dst.rho);
    gather(&src.mx, idx, &mut dst.mx);
    gather(&src.my, idx, &mut dst.my);
    gather(&src.e, idx, &mut dst.e);
}

/// All scratch for one partitioned Riemann evaluation. The sweep keeps one
/// per worker thread (inside its parked batch scratch) and reuses it for
/// every block that worker sweeps; each call resizes what it reads, so
/// the interface count may change from call to call.
#[derive(Default)]
pub struct RiemannScratch {
    // full-line stage
    cl: Vec<f64>,
    cr: Vec<f64>,
    slv: Vec<f64>,
    srv: Vec<f64>,
    uc_scratch: C4,
    fl: C4,
    fr: C4,
    t: Tmp,
    // subsonic compaction
    idx: Vec<usize>,
    swl: P4,
    swr: P4,
    ssl: Vec<f64>,
    ssr: Vec<f64>,
    sfl: C4,
    sfr: C4,
    sul: C4,
    sur: C4,
    num: Vec<f64>,
    den: Vec<f64>,
    smv: Vec<f64>,
    sres: C4,
    // HLLC sm-sign split
    bidx: Vec<usize>,
    bw: P4,
    bu: C4,
    bs: Vec<f64>,
    bun: Vec<f64>,
    bsm: Vec<f64>,
    bf: C4,
    bstar: C4,
    bres: C4,
}

impl RiemannScratch {
    /// Empty scratch (alias of `Default`).
    pub fn new() -> RiemannScratch {
        RiemannScratch::default()
    }
}

/// Partitioned batch counterpart of [`riemann_flux`]: fluxes for a whole
/// slice of interfaces (in the sweep, every interface of one block, line
/// after line — each class of the partition spans lines), `out[f] =` the scalar solver's flux for
/// `(wl[f], wr[f])`, bit for bit, with exactly the scalar op counts.
///
/// Callers are responsible for region scoping (the sweep evaluates this
/// inside `Hydro/riemann`, exactly where it calls the scalar solver) and
/// for checking [`raptor_core::batch::ready`] — under mem-mode or the
/// force-scalar toggle they must stay on the scalar loop.
pub fn riemann_flux_batch<E: Eos>(
    kind: RiemannKind,
    eos: &E,
    axis: usize,
    wl: &P4,
    wr: &P4,
    out: &mut C4,
    rs: &mut RiemannScratch,
    ws: &mut E::BatchScratch,
) {
    let k = wl.rho.len();
    out.resize(k);
    rs.t.resize(k);
    rs.cl.resize(k, 0.0);
    rs.cr.resize(k, 0.0);
    rs.slv.resize(k, 0.0);
    rs.srv.resize(k, 0.0);
    // Davis wave speeds for every interface.
    eos.sound_speed_batch(&wl.rho, &wl.p, ws, &mut rs.cl);
    eos.sound_speed_batch(&wr.rho, &wr.p, ws, &mut rs.cr);
    let (unl, unr) = if axis == 0 { (&wl.vx, &wr.vx) } else { (&wl.vy, &wr.vy) };
    batch_sub(unl, &rs.cl, &mut rs.t.a);
    batch_sub(unr, &rs.cr, &mut rs.t.b);
    for f in 0..k {
        // min: Tracked::min keeps the left value on ties/NaN
        rs.slv[f] = if rs.t.b[f] < rs.t.a[f] { rs.t.b[f] } else { rs.t.a[f] };
    }
    batch_add(unl, &rs.cl, &mut rs.t.a);
    batch_add(unr, &rs.cr, &mut rs.t.b);
    for f in 0..k {
        rs.srv[f] = if rs.t.b[f] > rs.t.a[f] { rs.t.b[f] } else { rs.t.a[f] };
    }
    // Physical fluxes on both sides of every interface (the scalar solver
    // computes these before its early returns).
    physical_flux_batch(eos, wl, axis, &mut rs.uc_scratch, &mut rs.fl, &mut rs.t, ws);
    physical_flux_batch(eos, wr, axis, &mut rs.uc_scratch, &mut rs.fr, &mut rs.t, ws);
    // Upwind classification (same test order as the scalar early returns;
    // NaN wave speeds fall through to the subsonic case).
    rs.idx.clear();
    for f in 0..k {
        if rs.slv[f] >= 0.0 {
            out.rho[f] = rs.fl.rho[f];
            out.mx[f] = rs.fl.mx[f];
            out.my[f] = rs.fl.my[f];
            out.e[f] = rs.fl.e[f];
        } else if rs.srv[f] <= 0.0 {
            out.rho[f] = rs.fr.rho[f];
            out.mx[f] = rs.fr.mx[f];
            out.my[f] = rs.fr.my[f];
            out.e[f] = rs.fr.e[f];
        } else {
            rs.idx.push(f);
        }
    }
    if !rs.idx.is_empty() {
        subsonic_flux_b(eos, kind, axis, wl, wr, rs, ws);
        // Scatter subsonic fluxes back into the full interface arrays.
        for (j, &f) in rs.idx.iter().enumerate() {
            out.rho[f] = rs.sres.rho[j];
            out.mx[f] = rs.sres.mx[j];
            out.my[f] = rs.sres.my[j];
            out.e[f] = rs.sres.e[j];
        }
    }
}

/// Subsonic interfaces of one call (across every line of a block in the
/// sweep): gather the compact index set, run the solver's interior
/// expressions, leave fluxes in `rs.sres` (in `rs.idx`
/// order).
fn subsonic_flux_b<E: Eos>(
    eos: &E,
    kind: RiemannKind,
    axis: usize,
    wl: &P4,
    wr: &P4,
    rs: &mut RiemannScratch,
    ws: &mut E::BatchScratch,
) {
    gather_p4(wl, &rs.idx, &mut rs.swl);
    gather_p4(wr, &rs.idx, &mut rs.swr);
    gather(&rs.slv, &rs.idx, &mut rs.ssl);
    gather(&rs.srv, &rs.idx, &mut rs.ssr);
    gather_c4(&rs.fl, &rs.idx, &mut rs.sfl);
    gather_c4(&rs.fr, &rs.idx, &mut rs.sfr);
    let s = rs.idx.len();
    rs.sres.resize(s);
    prim_to_cons_batch(eos, &rs.swl, &mut rs.sul, &mut rs.t, ws);
    prim_to_cons_batch(eos, &rs.swr, &mut rs.sur, &mut rs.t, ws);
    rs.t.resize(s);
    match kind {
        RiemannKind::Hll => {
            // inv = 1/(sr - sl), then per component
            // (fl*sr - fr*sl + sr*sl*(ur - ul)) * inv  — `sr*sl` recomputed
            // per component like the scalar AST.
            batch_sub(&rs.ssr, &rs.ssl, &mut rs.t.a);
            rs.num.resize(s, 0.0); // reuse as `inv`
            batch_rdiv_s(1.0, &rs.t.a, &mut rs.num);
            let comps = [
                (&rs.sfl.rho, &rs.sfr.rho, &rs.sul.rho, &rs.sur.rho, &mut rs.sres.rho),
                (&rs.sfl.mx, &rs.sfr.mx, &rs.sul.mx, &rs.sur.mx, &mut rs.sres.mx),
                (&rs.sfl.my, &rs.sfr.my, &rs.sul.my, &rs.sur.my, &mut rs.sres.my),
                (&rs.sfl.e, &rs.sfr.e, &rs.sul.e, &rs.sur.e, &mut rs.sres.e),
            ];
            for (flc, frc, ulc, urc, oc) in comps {
                batch_mul(flc, &rs.ssr, &mut rs.t.a);
                batch_mul(frc, &rs.ssl, &mut rs.t.b);
                batch_sub(&rs.t.a, &rs.t.b, &mut rs.t.c);
                batch_mul(&rs.ssr, &rs.ssl, &mut rs.t.a);
                batch_sub(urc, ulc, &mut rs.t.b);
                batch_mul(&rs.t.a, &rs.t.b, &mut rs.t.d);
                batch_add(&rs.t.c, &rs.t.d, &mut rs.t.a);
                batch_mul(&rs.t.a, &rs.num, oc);
            }
        }
        RiemannKind::Hllc => {
            let (sunl, sunr) =
                if axis == 0 { (&rs.swl.vx, &rs.swr.vx) } else { (&rs.swl.vy, &rs.swr.vy) };
            rs.num.resize(s, 0.0);
            rs.den.resize(s, 0.0);
            rs.smv.resize(s, 0.0);
            // num = wr.p - wl.p + wl.rho*unl*(sl-unl) - wr.rho*unr*(sr-unr)
            batch_sub(&rs.swr.p, &rs.swl.p, &mut rs.t.a);
            batch_mul(&rs.swl.rho, sunl, &mut rs.t.b);
            batch_sub(&rs.ssl, sunl, &mut rs.t.c);
            batch_mul(&rs.t.b, &rs.t.c, &mut rs.t.d);
            batch_add(&rs.t.a, &rs.t.d, &mut rs.t.e);
            batch_mul(&rs.swr.rho, sunr, &mut rs.t.a);
            batch_sub(&rs.ssr, sunr, &mut rs.t.b);
            batch_mul(&rs.t.a, &rs.t.b, &mut rs.t.c);
            batch_sub(&rs.t.e, &rs.t.c, &mut rs.num);
            // den = wl.rho*(sl-unl) - wr.rho*(sr-unr)  — differences recomputed
            batch_sub(&rs.ssl, sunl, &mut rs.t.a);
            batch_mul(&rs.swl.rho, &rs.t.a, &mut rs.t.b);
            batch_sub(&rs.ssr, sunr, &mut rs.t.c);
            batch_mul(&rs.swr.rho, &rs.t.c, &mut rs.t.d);
            batch_sub(&rs.t.b, &rs.t.d, &mut rs.den);
            batch_div(&rs.num, &rs.den, &mut rs.smv);
            // Split on the contact speed's sign (NaN goes right, like the
            // scalar `if sm >= zero { .. } else { .. }`).
            for side in 0..2 {
                rs.bidx.clear();
                for (j, &sm) in rs.smv.iter().enumerate() {
                    if (sm >= 0.0) == (side == 0) {
                        rs.bidx.push(j);
                    }
                }
                if rs.bidx.is_empty() {
                    continue;
                }
                let (w, u, sv, unv, fv) = if side == 0 {
                    (&rs.swl, &rs.sul, &rs.ssl, sunl, &rs.sfl)
                } else {
                    (&rs.swr, &rs.sur, &rs.ssr, sunr, &rs.sfr)
                };
                gather_p4(w, &rs.bidx, &mut rs.bw);
                gather_c4(u, &rs.bidx, &mut rs.bu);
                gather(sv, &rs.bidx, &mut rs.bs);
                gather(unv, &rs.bidx, &mut rs.bun);
                gather(&rs.smv, &rs.bidx, &mut rs.bsm);
                gather_c4(fv, &rs.bidx, &mut rs.bf);
                star_flux_b(
                    axis, &rs.bw, &rs.bu, &rs.bs, &rs.bun, &rs.bsm, &rs.bf, &mut rs.bstar,
                    &mut rs.bres, &mut rs.t,
                );
                for (jj, &j) in rs.bidx.iter().enumerate() {
                    rs.sres.rho[j] = rs.bres.rho[jj];
                    rs.sres.mx[j] = rs.bres.mx[jj];
                    rs.sres.my[j] = rs.bres.my[jj];
                    rs.sres.e[j] = rs.bres.e[jj];
                }
                rs.t.resize(s);
            }
        }
    }
}

/// Batch HLLC star-region flux for one branch's compacted interfaces:
/// `out = fphys + (star(w, u, s, un) - u) * s`.
#[allow(clippy::too_many_arguments)]
fn star_flux_b(
    axis: usize,
    w: &P4,
    u: &C4,
    s: &[f64],
    un: &[f64],
    sm: &[f64],
    fphys: &C4,
    star: &mut C4,
    out: &mut C4,
    t: &mut Tmp,
) {
    let n = s.len();
    star.resize(n);
    out.resize(n);
    t.resize(n);
    // factor = rho*(s-un)/(s-sm)  (becomes the star density)
    batch_sub(s, un, &mut t.a);
    batch_mul(&w.rho, &t.a, &mut t.b);
    batch_sub(s, sm, &mut t.c);
    batch_div(&t.b, &t.c, &mut star.rho);
    // e_star = u.e/rho + (sm-un)*(sm + p/(rho*(s-un)))   — (s-un) recomputed
    batch_div(&u.e, &w.rho, &mut t.a);
    batch_sub(sm, un, &mut t.b);
    batch_sub(s, un, &mut t.c);
    batch_mul(&w.rho, &t.c, &mut t.d);
    batch_div(&w.p, &t.d, &mut t.c);
    batch_add(sm, &t.c, &mut t.d);
    batch_mul(&t.b, &t.d, &mut t.c);
    batch_add(&t.a, &t.c, &mut t.e); // e_star
    if axis == 0 {
        batch_mul(&star.rho, sm, &mut star.mx);
        batch_mul(&star.rho, &w.vy, &mut star.my);
    } else {
        batch_mul(&star.rho, &w.vx, &mut star.mx);
        batch_mul(&star.rho, sm, &mut star.my);
    }
    batch_mul(&star.rho, &t.e, &mut star.e);
    // out_c = fphys_c + (star_c - u_c) * s
    let comps = [
        (&star.rho, &u.rho, &fphys.rho, &mut out.rho),
        (&star.mx, &u.mx, &fphys.mx, &mut out.mx),
        (&star.my, &u.my, &fphys.my, &mut out.my),
        (&star.e, &u.e, &fphys.e, &mut out.e),
    ];
    for (sc, uc, fc, oc) in comps {
        batch_sub(sc, uc, &mut t.a);
        batch_mul(&t.a, s, &mut t.b);
        batch_add(fc, &t.b, oc);
    }
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
        let mut wl = P4::new();
        let mut wr = P4::new();
        wl.resize(n);
        wr.resize(n);
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
            wl.rho[f] = 0.1 + unit(&mut state);
            wl.vx[f] = vx0 + 0.1 * unit(&mut state);
            wl.vy[f] = 0.5 * (2.0 * unit(&mut state) - 1.0);
            wl.p[f] = 0.1 + unit(&mut state);
            wr.rho[f] = 0.1 + unit(&mut state);
            wr.vx[f] = vx0 + 0.1 * unit(&mut state);
            wr.vy[f] = 0.5 * (2.0 * unit(&mut state) - 1.0);
            wr.p[f] = 0.1 + unit(&mut state);
        }
        // Branch-coverage sanity on the generated states (plain f64, no
        // instrumentation): all four classes must be populated.
        {
            let g = GammaLaw { gamma: 1.4 };
            let (mut nl, mut nr, mut nsl, mut nsr) = (0, 0, 0, 0);
            for f in 0..n {
                let pl = Prim { rho: wl.rho[f], vx: wl.vx[f], vy: wl.vy[f], p: wl.p[f] };
                let pr = Prim { rho: wr.rho[f], vx: wr.vx[f], vy: wr.vy[f], p: wr.p[f] };
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
                            let pl = Prim {
                                rho: Tracked::from_f64(wl.rho[f]),
                                vx: Tracked::from_f64(wl.vx[f]),
                                vy: Tracked::from_f64(wl.vy[f]),
                                p: Tracked::from_f64(wl.p[f]),
                            };
                            let pr = Prim {
                                rho: Tracked::from_f64(wr.rho[f]),
                                vx: Tracked::from_f64(wr.vx[f]),
                                vy: Tracked::from_f64(wr.vy[f]),
                                p: Tracked::from_f64(wr.p[f]),
                            };
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
                    let mut out = C4::new();
                    let mut rs = RiemannScratch::new();
                    let mut ws = Vec::new();
                    {
                        let _g = sess.install();
                        let _r = region("Hydro/riemann");
                        riemann_flux_batch(kind, &eos, axis, &wl, &wr, &mut out, &mut rs, &mut ws);
                    }
                    let cb = sess.counters();
                    for f in 0..n {
                        let got =
                            [out.rho[f], out.mx[f], out.my[f], out.e[f]].map(f64::to_bits);
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
