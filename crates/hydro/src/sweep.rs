//! The dimension-split finite-volume update over AMR leaf blocks.
//!
//! Each step: fill guards → x sweep → fill guards → y sweep. A sweep
//! processes every leaf block independently (thread-parallel, the OpenMP
//! analog) and is organized into the same module regions the paper's
//! Table 2 manipulates:
//!
//! * `Hydro/eos`     — primitive recovery
//! * `Hydro/recon`   — interface reconstruction
//! * `Hydro/riemann` — approximate Riemann solver
//! * `Hydro/update`  — conservative update
//!
//! The RAPTOR session is installed on each worker and the block's
//! refinement level is published before the kernel runs, enabling the M-l
//! selective-truncation strategies of §6. Uninstrumented reference runs
//! pass [`Session::passthrough`], which keeps the per-op path on its
//! no-session fast reject.

use crate::recon::{plm_interface, weno5_interface, ReconKind};
use crate::riemann::{riemann_flux, riemann_flux_batch, RiemannKind, RiemannScratch};
use crate::state::{cons_to_prim, Cols, Cons, Eos, EosView, Floors, Prim, DENS, ENER, MOMX, MOMY};
use amr::{fill_guards, par_leaves, BcSpec, Block, LeafGeom, Mesh};
use raptor_core::batch::{self, Col};
use raptor_core::{count_field_values, region, set_level, Arith, Mode, Real, Session};
use std::cell::RefCell;

/// Hydro solver configuration.
#[derive(Clone, Copy, Debug)]
pub struct HydroParams {
    /// Reconstruction scheme.
    pub recon: ReconKind,
    /// Riemann solver.
    pub riemann: RiemannKind,
    /// CFL number.
    pub cfl: f64,
    /// State floors.
    pub floors: Floors,
}

impl Default for HydroParams {
    fn default() -> Self {
        HydroParams {
            recon: ReconKind::Plm,
            riemann: RiemannKind::Hllc,
            cfl: 0.4,
            floors: Floors::default(),
        }
    }
}

/// Padded-array layout helper (mirrors `Mesh::index` without borrowing the
/// mesh inside block kernels).
#[derive(Clone, Copy, Debug)]
pub struct Layout {
    /// Interior cells in x.
    pub nx: usize,
    /// Interior cells in y.
    pub ny: usize,
    /// Guard layers.
    pub ng: usize,
    /// Padded row stride.
    pub stride: usize,
    /// Cells per variable.
    pub cpv: usize,
}

impl Layout {
    /// Build from mesh parameters.
    pub fn of(mesh: &Mesh) -> Layout {
        let p = mesh.params;
        Layout {
            nx: p.nx,
            ny: p.ny,
            ng: p.ng,
            stride: p.nx + 2 * p.ng,
            cpv: p.cells_per_var(),
        }
    }

    /// Flat index of (var, padded i, padded j).
    #[inline]
    pub fn at(&self, var: usize, i: usize, j: usize) -> usize {
        var * self.cpv + j * self.stride + i
    }

    /// Flat index of padded cell `a` along interior cross line `c` of
    /// `axis`.
    #[inline]
    fn along(&self, axis: usize, var: usize, c: usize, a: usize) -> usize {
        if axis == 0 { self.at(var, a, c + self.ng) } else { self.at(var, c + self.ng, a) }
    }
}

/// The conserved columns of `n` cells per interior line along `axis`, from
/// padded cell `a0` on: element `c*n + a` is cell `a0 + a` of line `c`.
/// At axis 0 from `ng` with `n = nx` that is interior cell (a, c).
fn load_cols(data: &[f64], lay: &Layout, axis: usize, a0: usize, n: usize) -> Cons<Col> {
    let vars = Cons { rho: DENS, mx: MOMX, my: MOMY, e: ENER };
    vars.map(|var| {
        Col::new_with(|o| {
            for (c, line) in o.chunks_exact_mut(n).enumerate() {
                let at = |a: usize| data[lay.along(axis, var, c, a0 + a)];
                line.iter_mut().enumerate().for_each(|(a, x)| *x = at(a));
            }
        })
    })
}

/// Global CFL timestep, evaluated in the `Driver/dt` region (like Flash-X's
/// `Driver_computeDt`): it is *not* part of the Hydro module, so Hydro-
/// scoped truncation leaves it at full precision — truncation influences it
/// only through the truncated solution values it reads. Instantiated with
/// [`raptor_core::Tracked`] under a counting session, its operations land
/// in the "full-precision" bar of Fig. 7.
///
/// In the instrumented build each leaf's cells run as one set of columns
/// ([`cell_dt`] at [`Col`]) when [`batch::ready`] holds inside the region,
/// as the sweep checks inside `Hydro`; the per-cell loop stays the
/// mem-mode path (its few ops are outside the sweep's scope) and the
/// differential oracle. Both fold the cells' limits in the same order,
/// row by row.
pub fn compute_dt<R: Real, E: Eos>(mesh: &Mesh, eos: &E, params: &HydroParams) -> f64 {
    let _r = region("Driver/dt");
    let lay = Layout::of(mesh);
    let use_batch = R::IS_TRACKED && batch::ready();
    let mut dt = f64::MAX;
    for idx in mesh.leaves() {
        let b = mesh.block(idx);
        let (dx, dy) = mesh.cell_size(b.pos.level);
        if use_batch {
            // Element `j*nx + i` is interior cell (i, j).
            let _cells = batch::scope(lay.nx * lay.ny);
            let u = load_cols(&b.data, &lay, 0, lay.ng, lay.nx);
            let (rdx, rdy) = (Col::from_f64(dx), Col::from_f64(dy));
            cell_dt(u, &Cols(eos), &params.floors, rdx, rdy).read(|s| {
                s.iter().for_each(|&s| dt = dt.min(s));
            });
        } else {
            let (rdx, rdy) = (R::from_f64(dx), R::from_f64(dy));
            for j in 0..lay.ny {
                for i in 0..lay.nx {
                    let u = load_cons::<R>(&b.data, &lay, i + lay.ng, j + lay.ng);
                    dt = dt.min(cell_dt(u, eos, &params.floors, rdx, rdy).to_f64());
                }
            }
        }
    }
    params.cfl * dt
}

/// One cell's CFL limit `min(dx / (|vx| + c), dy / (|vy| + c))`, written
/// once for [`compute_dt`]'s per-cell loop and its columns.
#[inline]
fn cell_dt<R: Arith, E: EosView<R>>(u: Cons<R>, eos: &E, fl: &Floors, rdx: R, rdy: R) -> R {
    let w = cons_to_prim(u, eos, fl);
    let c = eos.sound_speed(w.rho, w.p);
    let sx = rdx / (w.vx.abs() + c);
    let sy = rdy / (w.vy.abs() + c);
    sx.min(sy)
}

#[inline]
fn load_cons<R: Real>(data: &[f64], lay: &Layout, i: usize, j: usize) -> Cons<R> {
    Cons {
        rho: R::from_f64(data[lay.at(DENS, i, j)]),
        mx: R::from_f64(data[lay.at(MOMX, i, j)]),
        my: R::from_f64(data[lay.at(MOMY, i, j)]),
        e: R::from_f64(data[lay.at(ENER, i, j)]),
    }
}

#[inline]
fn store_cons<R: Real>(data: &mut [f64], lay: &Layout, i: usize, j: usize, u: Cons<R>) {
    data[lay.at(DENS, i, j)] = u.rho.to_f64();
    data[lay.at(MOMX, i, j)] = u.mx.to_f64();
    data[lay.at(MOMY, i, j)] = u.my.to_f64();
    data[lay.at(ENER, i, j)] = u.e.to_f64();
}

/// One full dimension-split step (x then y, or y then x when `flip`).
pub fn step<R: Real, E: Eos>(
    mesh: &mut Mesh,
    bc: &BcSpec,
    eos: &E,
    params: &HydroParams,
    dt: f64,
    threads: usize,
    session: &Session,
    flip: bool,
) {
    let axes = if flip { [1usize, 0] } else { [0usize, 1] };
    for &axis in &axes {
        fill_guards(mesh, bc);
        sweep_axis::<R, E>(mesh, eos, params, dt, axis, threads, session);
    }
}

/// One directional sweep over all leaf blocks.
pub fn sweep_axis<R: Real, E: Eos>(
    mesh: &mut Mesh,
    eos: &E,
    params: &HydroParams,
    dt: f64,
    axis: usize,
    threads: usize,
    session: &Session,
) {
    let lay = Layout::of(mesh);
    // mem-mode shadow state is sharded per worker thread (handles never
    // cross blocks), so the sweep parallelizes like op-mode; each worker's
    // slab is cleared per block after results are materialized, which also
    // merges its flag statistics into the session (the sweep barrier).
    let mem_mode = session.config().mode == Mode::Mem;
    // The batch sweep runs in the instrumented build only (the f64
    // reference build keeps its scalar loops). The gates are checked per
    // block *after* the session is installed; both honour the
    // `batch::force_scalar` differential pin. `batch::ready()` admits op
    // mode. Under mem mode the columns report each op at its call site,
    // which is the scalar path's only where every op runs the scalar
    // source: PLM (WENO5's fused stencil has sites of its own) with an EOS
    // whose column methods share its scalar source.
    let use_batch = R::IS_TRACKED;
    let mem_cols = params.recon == ReconKind::Plm && E::COLS_SHARE_SOURCE;
    let kernel = |geom: LeafGeom, block: &mut Block| {
        let _guard = session.install();
        set_level(Some(geom.level));
        let h = if axis == 0 { geom.dx } else { geom.dy };
        let _hydro = region("Hydro");
        if use_batch && (batch::ready() || (mem_cols && batch::mem_ready())) {
            sweep_block_batch::<E>(&mut block.data, &lay, eos, params, dt, h, axis);
        } else {
            sweep_block::<R, E>(&mut block.data, &lay, eos, params, dt, h, axis);
        }
        // Memory-model accounting: one read + one write of every interior
        // cell's four variables per *step* (charged on the x sweep only —
        // the y sweep reuses cached data, which is what the paper's
        // operational-intensity/roofline analysis assumes for the
        // compute-heavy hydro kernels, §7.2).
        if axis == 0 {
            count_field_values((lay.nx * lay.ny) as u64 * 4 * 2);
        }
        set_level(None);
        if mem_mode {
            session.mem_clear_slab();
        }
    };
    par_leaves(mesh, threads, kernel);
}

/// Directional update of one block.
fn sweep_block<R: Real, E: Eos>(
    data: &mut [f64],
    lay: &Layout,
    eos: &E,
    params: &HydroParams,
    dt: f64,
    h: f64,
    axis: usize,
) {
    let (n_along, n_cross) = if axis == 0 { (lay.nx, lay.ny) } else { (lay.ny, lay.nx) };
    let ng = lay.ng;
    // lint: allow(native-float, dt/h is the per-sweep CFL ratio lifted once at the kernel boundary)
    let dt_h = R::from_f64(dt / h);
    // Padded line of primitives, reused per line.
    let mut line: Vec<Prim<R>> = Vec::with_capacity(n_along + 2 * ng);
    let mut fluxes: Vec<Cons<R>> = Vec::with_capacity(n_along + 1);
    for c in 0..n_cross {
        // ---- Hydro/eos: primitive recovery along the padded line ----
        line.clear();
        {
            let _r = region("Hydro/eos");
            for a in 0..n_along + 2 * ng {
                let (i, j) = if axis == 0 { (a, c + ng) } else { (c + ng, a) };
                let u = load_cons::<R>(data, lay, i, j);
                line.push(cons_to_prim(u, eos, &params.floors));
            }
        }
        // ---- interface states + fluxes ----
        fluxes.clear();
        for f in 0..=n_along {
            // Interface f sits between padded cells (ng + f - 1, ng + f).
            let ci = ng + f; // right cell of the interface
            let (wl, wr) = {
                let _r = region("Hydro/recon");
                reconstruct(&line, ci, params.recon)
            };
            let flux = {
                let _r = region("Hydro/riemann");
                riemann_flux(params.riemann, wl, wr, eos, axis)
            };
            fluxes.push(flux);
        }
        // ---- Hydro/update: conservative update ----
        {
            let _r = region("Hydro/update");
            for a in 0..n_along {
                let (i, j) = if axis == 0 { (a + ng, c + ng) } else { (c + ng, a + ng) };
                let u = load_cons::<R>(data, lay, i, j);
                let df = fluxes[a + 1].sub(fluxes[a]);
                let unew = u.sub(df.scale(dt_h));
                store_cons(data, lay, i, j, unew);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Batch-specialized sweep
// ---------------------------------------------------------------------------
//
// The same update as `sweep_block`, with every stage run once over every
// line of a block. Each stage gathers the block's lines into line-major
// columns (cells `c*l + a`, interfaces `c*k + f`, interior cells
// `c*n_along + a` for cross line `c`) and runs the scalar path's own
// source on them: `cons_to_prim`, `plm_interface` (WENO5 is the fused
// `batch::weno5` stencil, whose scalar oracle is `recon::weno5`), the
// Riemann solver's branch bodies (partitioned by
// `riemann::riemann_flux_batch`) and the `Cons` update, instantiated at
// `raptor_core::batch::Col`, where each operator is one batch op over the
// column — one truncation decision read, one bulk count, one vectorized
// loop. Every op is element-wise, so values stay bit-identical to the
// scalar path and op counts exactly equal, by construction; the minmod
// and floor selections are exact, uncounted operations, as in the scalar
// path. Lanes move between stages only through column moves
// (`Col::lines`, `batch::gather`, `batch::scatter`), which carry a
// mem-mode column's shadows and raw lanes with its values, and every op
// runs at the scalar path's call site: under a mem-mode session the PLM
// sweep's report is the scalar path's too. The scalar path above remains
// the WENO5 and tabulated-EOS mem-mode path and the differential oracle.

thread_local! {
    /// Per-worker Riemann scratch: taken at block entry and put back at
    /// exit (the take-and-put-back idiom of `amr::par`'s leaf work
    /// buffer), so its capacity survives every later block on this
    /// thread. The columns themselves live in the thread's `Col` arena,
    /// which keeps its capacity the same way.
    static BATCH_SCRATCH: RefCell<RiemannScratch> = RefCell::new(RiemannScratch::default());
}

/// The `S` stencil windows of every interface, from one line-major column
/// of `l` padded cells per line: window `s` holds `w[c*l + off + s + f]`
/// at interface `c*k + f` of line `c`. Padding between lines never
/// becomes an interface, so column ops over the windows run exactly the
/// scalar sweep's interfaces.
fn windows<const S: usize>(w: Col, l: usize, k: usize, off: usize) -> [Col; S] {
    std::array::from_fn(|s| w.lines(l, k, off + s))
}

/// Directional update of one block through the batch kernels, each stage
/// once over every line of the block. Semantics (values, op counts, region
/// scoping, and under mem mode with PLM the report) are identical to
/// `sweep_block` instantiated with `Tracked`.
fn sweep_block_batch<E: Eos>(
    data: &mut [f64],
    lay: &Layout,
    eos: &E,
    params: &HydroParams,
    dt: f64,
    h: f64,
    axis: usize,
) {
    let (n_along, n_cross) = if axis == 0 { (lay.nx, lay.ny) } else { (lay.ny, lay.nx) };
    let ng = lay.ng;
    let l = n_along + 2 * ng; // padded line length
    let k = n_along + 1; // interfaces per line
    let mut rs = BATCH_SCRATCH.with(|b| std::mem::take(&mut *b.borrow_mut()));
    // ---- Hydro/eos: primitive recovery over every padded line ----
    let _cells = batch::scope(n_cross * l);
    let prim = {
        let _r = region("Hydro/eos");
        let u = load_cols(data, lay, axis, 0, l);
        cons_to_prim(u, &Cols(eos), &params.floors)
    };
    // ---- Hydro/recon: interface states, component-wise ----
    let _ifaces = batch::scope(n_cross * k);
    let (wl, wr) = {
        let _r = region("Hydro/recon");
        let off = ng - params.recon.guard_cells();
        let sides = prim.map(|w| match params.recon {
            ReconKind::Plm => plm_interface(windows::<4>(w, l, k, off)),
            ReconKind::Weno5 => {
                // The left state from the five upwind cells, the right
                // from the mirrored stencil, as in `weno5_interface`.
                let [u0, u1, u2, u3, u4, u5] = windows::<6>(w, l, k, off);
                (batch::weno5([u0, u1, u2, u3, u4]), batch::weno5([u5, u4, u3, u2, u1]))
            }
        });
        (floor_state(sides.map(|s| s.0)), floor_state(sides.map(|s| s.1)))
    };
    // ---- Hydro/riemann: partitioned batch solver over every interface ----
    let flux = {
        let _r = region("Hydro/riemann");
        riemann_flux_batch(params.riemann, eos, axis, wl, wr, &mut rs)
    };
    // ---- Hydro/update: conservative update of every interior cell ----
    {
        let _r = region("Hydro/update");
        let _interior = batch::scope(n_cross * n_along);
        // The fluxes left (`off` 0) and right (`off` 1) of every cell.
        let side = |f: Col, off: usize| f.lines(k, n_along, off);
        let u = load_cols(data, lay, axis, ng, n_along);
        let df = flux.map(|f| side(f, 1)).sub(flux.map(|f| side(f, 0)));
        // lint: allow(native-float, dt/h is the per-sweep CFL ratio lifted once at the kernel boundary)
        let dt_h = Col::from_f64(dt / h);
        let unew = u.sub(df.scale(dt_h));
        for (col, var) in [(unew.rho, DENS), (unew.mx, MOMX), (unew.my, MOMY), (unew.e, ENER)] {
            col.read(|v| {
                for (c, line) in v.chunks_exact(n_along).enumerate() {
                    line.iter().enumerate().for_each(|(a, &x)| data[lay.along(axis, var, c, ng + a)] = x);
                }
            });
        }
    }
    BATCH_SCRATCH.with(|b| *b.borrow_mut() = rs);
}

/// Reconstruct left/right primitive states at the interface left of padded
/// cell `ci`.
#[inline]
fn reconstruct<R: Real>(line: &[Prim<R>], ci: usize, kind: ReconKind) -> (Prim<R>, Prim<R>) {
    match kind {
        ReconKind::Plm => {
            let get = |k: usize, sel: usize| component(line[ci - 2 + k], sel);
            let mut out = [[R::zero(); 2]; 4];
            for sel in 0..4 {
                let (l, r) = plm_interface([get(0, sel), get(1, sel), get(2, sel), get(3, sel)]);
                out[sel] = [l, r];
            }
            (assemble(out, 0), assemble(out, 1))
        }
        ReconKind::Weno5 => {
            let get = |k: usize, sel: usize| component(line[ci - 3 + k], sel);
            let mut out = [[R::zero(); 2]; 4];
            for sel in 0..4 {
                let (l, r) = weno5_interface([
                    get(0, sel),
                    get(1, sel),
                    get(2, sel),
                    get(3, sel),
                    get(4, sel),
                    get(5, sel),
                ]);
                out[sel] = [l, r];
            }
            (assemble(out, 0), assemble(out, 1))
        }
    }
}

#[inline]
fn component<R: Real>(w: Prim<R>, sel: usize) -> R {
    match sel {
        0 => w.rho,
        1 => w.vx,
        2 => w.vy,
        _ => w.p,
    }
}

#[inline]
fn assemble<R: Real>(vals: [[R; 2]; 4], side: usize) -> Prim<R> {
    floor_state(Prim { rho: vals[0][side], vx: vals[1][side], vy: vals[2][side], p: vals[3][side] })
}

/// The reconstructed states' fixed density and pressure floors (exact
/// selections, independent of `params.floors`).
#[inline]
fn floor_state<R: Arith>(w: Prim<R>) -> Prim<R> {
    let tiny = R::from_f64(1e-12);
    Prim { rho: w.rho.max(tiny), vx: w.vx, vy: w.vy, p: w.p.max(tiny) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{prim_to_cons, GammaLaw};
    use amr::{BcSpec, Mesh, MeshParams};

    fn mesh(recon: ReconKind) -> Mesh {
        mesh_sized(recon, 8, 8)
    }

    fn mesh_sized(recon: ReconKind, nx: usize, ny: usize) -> Mesh {
        Mesh::new(MeshParams {
            nx,
            ny,
            ng: recon.guard_cells(),
            nvar: 4,
            nbx: 2,
            nby: 2,
            max_level: 2,
            domain: (0.0, 1.0, 0.0, 1.0),
        })
    }

    fn init_uniform(m: &mut Mesh, w: Prim<f64>) {
        let eos = GammaLaw::default();
        let u = prim_to_cons(w, &eos);
        m.fill_initial(|_, _, var| match var {
            DENS => u.rho,
            MOMX => u.mx,
            MOMY => u.my,
            _ => u.e,
        });
    }

    #[test]
    fn uniform_state_is_a_fixed_point() {
        for recon in [ReconKind::Plm, ReconKind::Weno5] {
            let mut m = mesh(recon);
            let w = Prim { rho: 1.0, vx: 0.3, vy: -0.2, p: 0.7 };
            init_uniform(&mut m, w);
            let eos = GammaLaw::default();
            let params = HydroParams { recon, ..Default::default() };
            let bc = BcSpec::all_periodic(4);
            let dt = compute_dt::<f64, _>(&m, &eos, &params);
            assert!(dt > 0.0 && dt.is_finite());
            let before = amr::sample_uniform(&m, DENS, 16, 16);
            step::<f64, _>(&mut m, &bc, &eos, &params, dt, 1, &Session::passthrough(), false);
            let after = amr::sample_uniform(&m, DENS, 16, 16);
            for (a, b) in before.iter().zip(&after) {
                assert!((a - b).abs() < 1e-12, "{recon:?}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn step_conserves_mass_with_periodic_bcs() {
        let mut m = mesh(ReconKind::Plm);
        let eos = GammaLaw::default();
        // Smooth density/pressure variation.
        m.fill_initial(|x, y, var| {
            let rho = 1.0 + 0.2 * (2.0 * std::f64::consts::PI * x).sin() * (2.0 * std::f64::consts::PI * y).cos();
            let p = 1.0;
            let w = Prim { rho, vx: 0.1, vy: 0.05, p };
            let u = prim_to_cons(w, &GammaLaw::default(), );
            match var {
                DENS => u.rho,
                MOMX => u.mx,
                MOMY => u.my,
                _ => u.e,
            }
        });
        let params = HydroParams::default();
        let bc = BcSpec::all_periodic(4);
        let mass0 = m.integrate(DENS);
        for s in 0..5 {
            let dt = compute_dt::<f64, _>(&m, &eos, &params);
            step::<f64, _>(&mut m, &bc, &eos, &params, dt, 2, &Session::passthrough(), s % 2 == 1);
        }
        let mass1 = m.integrate(DENS);
        assert!(
            (mass0 - mass1).abs() / mass0 < 1e-12,
            "mass drift: {mass0} -> {mass1}"
        );
    }

    #[test]
    fn parallel_and_serial_sweeps_agree() {
        let build = || {
            let mut m = mesh(ReconKind::Plm);
            m.fill_initial(|x, _, var| {
                let w = Prim {
                    rho: if x < 0.5 { 1.0 } else { 0.125 },
                    vx: 0.0,
                    vy: 0.0,
                    p: if x < 0.5 { 1.0 } else { 0.1 },
                };
                let u = prim_to_cons(w, &GammaLaw::default());
                match var {
                    DENS => u.rho,
                    MOMX => u.mx,
                    MOMY => u.my,
                    _ => u.e,
                }
            });
            m
        };
        let eos = GammaLaw::default();
        let params = HydroParams::default();
        let bc = BcSpec::all_outflow(4);
        let mut a = build();
        let mut b = build();
        for s in 0..3 {
            let dt = compute_dt::<f64, _>(&a, &eos, &params);
            step::<f64, _>(&mut a, &bc, &eos, &params, dt, 1, &Session::passthrough(), s % 2 == 1);
            step::<f64, _>(&mut b, &bc, &eos, &params, dt, 4, &Session::passthrough(), s % 2 == 1);
        }
        let sa = amr::sample_uniform(&a, DENS, 32, 32);
        let sb = amr::sample_uniform(&b, DENS, 32, 32);
        for (x, y) in sa.iter().zip(&sb) {
            assert_eq!(x.to_bits(), y.to_bits(), "thread count must not change results");
        }
    }

    #[test]
    fn shock_tube_develops_expected_structure() {
        // 1-D Sod along x embedded in 2-D: after some time the density
        // profile is monotone decreasing with shock/contact plateaus
        // between the initial states.
        let mut m = mesh(ReconKind::Plm);
        let eos = GammaLaw::default();
        m.fill_initial(|x, _, var| {
            let w = Prim {
                rho: if x < 0.5 { 1.0 } else { 0.125 },
                vx: 0.0,
                vy: 0.0,
                p: if x < 0.5 { 1.0 } else { 0.1 },
            };
            let u = prim_to_cons(w, &eos);
            match var {
                DENS => u.rho,
                MOMX => u.mx,
                MOMY => u.my,
                _ => u.e,
            }
        });
        let params = HydroParams::default();
        let bc = BcSpec::all_outflow(4);
        let mut t = 0.0;
        let mut s = 0;
        while t < 0.1 {
            let dt = compute_dt::<f64, _>(&m, &eos, &params).min(0.1 - t + 1e-12);
            step::<f64, _>(&mut m, &bc, &eos, &params, dt, 2, &Session::passthrough(), s % 2 == 1);
            t += dt;
            s += 1;
        }
        let line = amr::sample_uniform(&m, DENS, 64, 1);
        // Density bounded by initial extremes.
        for &d in &line {
            assert!(d > 0.1 && d < 1.05, "density {d} out of bounds");
        }
        // Left end still ~1, right end still ~0.125.
        assert!((line[2] - 1.0).abs() < 1e-3);
        assert!((line[61] - 0.125).abs() < 1e-3);
        // A rarefaction exists: density drops below 0.95 by mid-left.
        assert!(line[31] < 0.95);
        // Mass still moves right: momentum positive mid-domain.
        let mom = amr::sample_uniform(&m, MOMX, 64, 1);
        assert!(mom[32] > 0.0);
    }

    /// Sod tube along x (jump at x = 0.5) with `vx = vx(y)` and `vy = 0.1`.
    fn init_sod(m: &mut Mesh, vx: fn(f64) -> f64) {
        m.fill_initial(|x, y, var| {
            let w = Prim {
                rho: if x < 0.5 { 1.0 } else { 0.125 },
                vx: vx(y),
                vy: 0.1,
                p: if x < 0.5 { 1.0 } else { 0.1 },
            };
            let u = prim_to_cons(w, &GammaLaw::default());
            match var {
                DENS => u.rho,
                MOMX => u.mx,
                MOMY => u.my,
                _ => u.e,
            }
        })
    }

    /// Four op-mode steps through the batch sweep and through the scalar
    /// oracle from the same initial mesh: every cell must match bit for
    /// bit and the counters exactly. Each half holds a
    /// `batch::force_scalar` pin, so a concurrent test cannot switch it
    /// onto the other path.
    fn assert_batch_matches_scalar(
        build: &dyn Fn() -> Mesh,
        params: HydroParams,
        cfg: &raptor_core::Config,
        threads: usize,
        label: &str,
    ) {
        use raptor_core::{batch, Tracked};
        let eos = GammaLaw::default();
        let bc = BcSpec::all_outflow(4);
        let run = |force_scalar: bool| {
            let _pin = batch::force_scalar(force_scalar);
            let mut m = build();
            let sess = Session::new(cfg.clone().with_counting()).unwrap();
            for s in 0..4 {
                let dt = compute_dt::<f64, _>(&m, &eos, &params);
                step::<Tracked, _>(&mut m, &bc, &eos, &params, dt, threads, &sess, s % 2 == 1);
            }
            (m, sess.counters())
        };
        let (m_scalar, c_scalar) = run(true);
        let (m_batch, c_batch) = run(false);
        assert_eq!(amr::bitwise_diff(&m_batch, &m_scalar), None, "batch vs scalar data ({label})");
        assert_eq!(c_batch, c_scalar, "batch vs scalar counters ({label})");
        assert!(c_batch.trunc.total() > 1_000, "sanity: ops were actually counted ({label})");
    }

    /// The batch-kernel sweep must be a pure performance rewrite: same
    /// bits in every cell and the exact same operation counts as the
    /// scalar path, across table-served formats ((11,12), fp16, and the
    /// guarded (11,20), whose subnormal-window results re-run through
    /// SoftFloat), the per-element emulation fallback ((11,30) is past
    /// the short-cut's `p <= 25` bound), both reconstructions (PLM component slices,
    /// WENO5 through the fused stencil kernel), both Riemann solvers,
    /// and a supersonic drift that exercises the upwind early-out
    /// branches. Runs with 3 worker threads so the bulk counter
    /// accounting is validated under `par_leaves` guard-drop merging
    /// too.
    ///
    /// The non-square 8x6 blocks make `n_along != n_cross` on both axes,
    /// where the block-wide window gather and update scatter index maths
    /// could go wrong. Their shear `vx = 8(y - 1/4)` gives the lower
    /// blocks' x-lines (cell centres y = 1/24 .. 11/24) speeds of about
    /// -1.67, -1.0, -0.33, 0.33, 1.0, 1.67 against sound speeds of 1.06
    /// to 1.18: the outer lines are supersonic in opposite directions and
    /// the inner ones subsonic with both HLLC contact signs, so one
    /// block-wide Riemann call partitions classes that span lines.
    #[test]
    fn batch_sweep_bit_identical_to_scalar() {
        use bigfloat::Format;
        let still: fn(f64) -> f64 = |_| 0.0;
        let drift: fn(f64) -> f64 = |_| 3.0;
        let shear: fn(f64) -> f64 = |y| 8.0 * (y - 0.25);
        let mut cases = Vec::new();
        for (vx_name, vx) in [("still", still), ("drift", drift)] {
            for (recon, fmt) in [
                // PLM: full format spread (table, fp16, guarded table,
                // emulation fallback).
                (ReconKind::Plm, Format::new(11, 12)),
                (ReconKind::Plm, Format::new(5, 10)),
                (ReconKind::Plm, Format::new(11, 20)),
                (ReconKind::Plm, Format::new(11, 30)),
                // WENO5 through the fused stencil kernel: table-served
                // formats and the per-element emulation fallback.
                (ReconKind::Weno5, Format::new(11, 12)),
                (ReconKind::Weno5, Format::new(11, 20)),
                (ReconKind::Weno5, Format::new(11, 30)),
            ] {
                cases.push((recon, fmt, 8, vx_name, vx));
            }
        }
        for recon in [ReconKind::Plm, ReconKind::Weno5] {
            for fmt in [Format::new(11, 12), Format::new(11, 20), Format::new(11, 30)] {
                cases.push((recon, fmt, 6, "shear", shear));
            }
        }
        for (recon, fmt, ny, vx_name, vx) in cases {
            for kind in [RiemannKind::Hllc, RiemannKind::Hll] {
                let params = HydroParams { riemann: kind, recon, ..Default::default() };
                let build = || {
                    let mut m = mesh_sized(recon, 8, ny);
                    init_sod(&mut m, vx);
                    m
                };
                let label = format!("{recon:?} {fmt:?} {kind:?} 8x{ny} {vx_name}");
                let cfg = raptor_core::Config::op_files(fmt, ["Hydro"]);
                assert_batch_matches_scalar(&build, params, &cfg, 3, &label);
            }
        }
    }

    /// The per-worker batch scratch (the parked Riemann scratch and the
    /// `Col` arena) is reused across blocks of different shapes on one
    /// thread: WENO5 (`ng` 3, 8x8), then PLM (`ng` 2, 8x6),
    /// then WENO5 again, all on the calling thread (`threads` 1), each
    /// checked bit for bit against the scalar oracle. Stale lengths or
    /// values left by the previous shape would break the match.
    #[test]
    fn reused_batch_scratch_survives_shape_changes() {
        use bigfloat::Format;
        let fmt = Format::new(11, 12);
        for (recon, ny) in [(ReconKind::Weno5, 8), (ReconKind::Plm, 6), (ReconKind::Weno5, 8)] {
            let params = HydroParams { recon, ..Default::default() };
            let build = || {
                let mut m = mesh_sized(recon, 8, ny);
                init_sod(&mut m, |y| 8.0 * (y - 0.25));
                m
            };
            let label = format!("{recon:?} 8x{ny} after a different shape");
            let cfg = raptor_core::Config::op_files(fmt, ["Hydro"]);
            assert_batch_matches_scalar(&build, params, &cfg, 1, &label);
            let parked = BATCH_SCRATCH.with(|b| b.borrow().capacity());
            assert!(parked > 0, "the batch scratch stays parked on this thread ({label})");
        }
    }

    /// SplitMix64 finalizer: a well-mixed 64-bit hash of `x`.
    fn splitmix(x: u64) -> u64 {
        let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Random cell states from `seed`: log-density and log-pressure swing
    /// over six decades (1e-3 to 1e3) along random-phase waves, plus
    /// per-cell noise; the x-velocity swings between Mach -3 and 3, so
    /// both directions are supersonic somewhere. Two kinds of cell hit
    /// the floors once truncated: densities near `small_rho`, and cold
    /// cells whose internal energy is a 1e-7 sliver of the kinetic
    /// energy, so a truncated `e - ke` drops to zero or below and the
    /// pressure floors to `small_p`.
    fn init_random(m: &mut Mesh, seed: u64, fl: Floors) {
        use std::f64::consts::TAU;
        let eos = GammaLaw::default();
        let phase = |k: u64| TAU * (splitmix(seed ^ k) >> 11) as f64 / (1u64 << 53) as f64;
        let (p1, p2, p3) = (phase(1), phase(2), phase(3));
        m.fill_initial(|x, y, var| {
            let mut s = seed ^ x.to_bits() ^ y.to_bits().rotate_left(29);
            let mut unit = || {
                s = splitmix(s);
                (s >> 11) as f64 / (1u64 << 53) as f64
            };
            let kind = unit();
            let mut rho = 10f64.powf(3.0 * (TAU * x + p1).sin() + 0.2 * unit());
            let mut p = 10f64.powf(3.0 * (TAU * y + p2).cos() + 0.2 * unit());
            let c = (1.4 * p / rho).sqrt();
            let vy = 0.5 * (2.0 * unit() - 1.0) * c;
            let vx = (3.0 * (TAU * (x + y) + p3).sin() + 0.3 * unit()) * c;
            if kind < 0.08 {
                rho = fl.small_rho * (0.5 + 1.5 * unit());
            } else if kind < 0.16 {
                p = 1e-7 * rho * vx * vx;
            }
            let u = prim_to_cons(Prim { rho, vx, vy, p }, &eos);
            [u.rho, u.mx, u.my, u.e][var]
        });
    }

    /// The batch sweep against the scalar oracle on random blocks
    /// ([`init_random`]), under the configurations no other hydro
    /// differential covers — e11m22 (guarded, like e11m20, on the batch
    /// fast tier), the Big path, a directed rounding mode and the Native
    /// FP32 rung (`Auto` resolves FP32 to it) — plus e11m12 and the
    /// guarded e11m20, with both Riemann solvers
    /// and both reconstructions. Bits and counters must match exactly.
    #[test]
    fn random_states_batch_bit_identical_to_scalar() {
        use bigfloat::{Format, RoundMode};
        use raptor_core::{Config, EmulPath};
        let e11m12 = Format::new(11, 12);
        let mut toward_zero = Config::op_files(e11m12, ["Hydro"]);
        toward_zero.round = RoundMode::TowardZero;
        let configs = [
            ("e11m12", Config::op_files(e11m12, ["Hydro"])),
            ("e11m20", Config::op_files(Format::new(11, 20), ["Hydro"])),
            ("e11m22", Config::op_files(Format::new(11, 22), ["Hydro"])),
            ("e11m12-big", Config::op_files(e11m12, ["Hydro"]).with_path(EmulPath::Big)),
            ("e11m12-rz", toward_zero),
            ("fp32-auto", Config::op_files(Format::FP32, ["Hydro"])),
        ];
        assert_eq!(configs[5].1.resolved_path(), EmulPath::Native);
        // Floors well above the default 1e-12, so floored cells sit a
        // decade or so below their neighbours rather than ten.
        let floors = Floors { small_rho: 1e-4, small_p: 1e-4 };
        // Coverage: truncated primitive recovery floors both density and
        // pressure somewhere on the initial blocks.
        {
            use raptor_core::Tracked;
            let mut m = mesh_sized(ReconKind::Plm, 8, 8);
            init_random(&mut m, 0x5EED, floors);
            let lay = Layout::of(&m);
            let sess = Session::new(configs[0].1.clone()).unwrap();
            let _g = sess.install();
            let _r = region("Hydro");
            let (mut n_rho, mut n_p) = (0, 0);
            for idx in m.leaves() {
                for j in 0..lay.ny {
                    for i in 0..lay.nx {
                        let u = load_cons::<Tracked>(&m.block(idx).data, &lay, i + lay.ng, j + lay.ng);
                        let w = cons_to_prim(u, &GammaLaw::default(), &floors);
                        n_rho += (w.rho.to_f64() == floors.small_rho) as usize;
                        n_p += (w.p.to_f64() == floors.small_p) as usize;
                    }
                }
            }
            assert!(n_rho > 0 && n_p > 0, "floored cells: rho {n_rho}, p {n_p}");
        }
        for (seed, (name, cfg)) in configs.iter().enumerate() {
            for recon in [ReconKind::Plm, ReconKind::Weno5] {
                for kind in [RiemannKind::Hllc, RiemannKind::Hll] {
                    let params = HydroParams { riemann: kind, recon, floors, ..Default::default() };
                    let build = || {
                        let mut m = mesh_sized(recon, 8, 8);
                        init_random(&mut m, 0x5EED + seed as u64, floors);
                        m
                    };
                    let label = format!("random {name} {recon:?} {kind:?}");
                    assert_batch_matches_scalar(&build, params, cfg, 2, &label);
                }
            }
        }
    }

    /// The mem-mode column sweep against the scalar per-op sweep
    /// (`batch::force_scalar`): two steps on 2 worker threads from random
    /// blocks ([`init_random`], whose truncated primitive recovery floors
    /// density and pressure, so columns mix raw floor constants with
    /// shadowed lanes), at e11m12 and e5m10 on the fast tier's grid, the
    /// guarded e11m20 and e11m30 past the short-cut, with both Riemann
    /// solvers and deviation thresholds 1e-4 and 1e-2. The mesh bits, the
    /// counters and the whole `Report::to_json` document (every site's
    /// ops, flags and deviations, and the auto-promotion warning) must be
    /// equal.
    #[test]
    fn mem_columns_bit_identical_to_scalar() {
        use bigfloat::Format;
        use raptor_core::{Config, Tracked};
        let floors = Floors { small_rho: 1e-4, small_p: 1e-4 };
        let eos = GammaLaw::default();
        let bc = BcSpec::all_outflow(4);
        for (e, m) in [(11u32, 12u32), (5, 10), (11, 20), (11, 30)] {
            let fmt = Format::new(e, m);
            for threshold in [1e-4, 1e-2] {
                let cfg = Config::mem_functions(fmt, ["Hydro"], threshold).with_counting();
                for kind in [RiemannKind::Hllc, RiemannKind::Hll] {
                    let params = HydroParams { riemann: kind, floors, ..Default::default() };
                    let run = |force_scalar: bool| {
                        let _pin = batch::force_scalar(force_scalar);
                        let mut m = mesh_sized(ReconKind::Plm, 8, 6);
                        init_random(&mut m, 0x5EED, floors);
                        let sess = Session::new(cfg.clone()).unwrap();
                        for s in 0..2 {
                            let dt = compute_dt::<f64, _>(&m, &eos, &params);
                            step::<Tracked, _>(&mut m, &bc, &eos, &params, dt, 2, &sess, s % 2 == 1);
                        }
                        (m, sess.report())
                    };
                    let (m_s, r_s) = run(true);
                    let (m_c, r_c) = run(false);
                    let label = format!("{fmt} threshold {threshold:e} {kind:?}");
                    assert_eq!(amr::bitwise_diff(&m_c, &m_s), None, "{label}: mesh");
                    assert_eq!(r_c.counters, r_s.counters, "{label}: counters");
                    assert_eq!(r_c.to_json().render(), r_s.to_json().render(), "{label}: report");
                    assert!(r_s.counters.trunc.total() > 1_000, "{label}: ops counted");
                    assert!(r_s.flags.len() > 20, "{label}: sites reported");
                    assert!(r_s.warnings[0].contains("auto-promoted"), "{label}: {:?}", r_s.warnings);
                }
            }
        }
    }

    /// `compute_dt` on the leaf columns against its per-cell loop on
    /// random blocks ([`init_random`], whose floored and supersonic cells
    /// take both signs of every velocity), with `Driver/dt` outside the
    /// truncation scope (`Hydro` only: inactive, counted as full
    /// precision) and inside it (`op_all`): e11m12 and e5m10 on the fast
    /// tier, the guarded e11m20, and e11m30 on the emulation tier. The
    /// `dt` bits and the counters must be equal.
    #[test]
    fn compute_dt_batch_bit_identical_to_scalar() {
        use bigfloat::Format;
        use raptor_core::{Config, Tracked};
        let floors = Floors { small_rho: 1e-4, small_p: 1e-4 };
        let params = HydroParams { floors, ..Default::default() };
        let eos = GammaLaw::default();
        // `compute_dt` under a counting session of `cfg`, pinned to the
        // per-cell loop if `force_scalar`, else on the leaf columns.
        let run = |m: &Mesh, cfg: &Config, force_scalar: bool| {
            let _pin = batch::force_scalar(force_scalar);
            let sess = Session::new(cfg.clone().with_counting()).unwrap();
            let g = sess.install();
            let dt = compute_dt::<Tracked, _>(m, &eos, &params);
            drop(g);
            (dt, sess.counters())
        };
        let formats = [(11u32, 12u32), (5, 10), (11, 20), (11, 30)];
        for (seed, (e, m)) in formats.into_iter().enumerate() {
            let fmt = Format::new(e, m);
            let mut mesh = mesh_sized(ReconKind::Plm, 8, 6);
            init_random(&mut mesh, 0xD7 + seed as u64, floors);
            let mut dts = Vec::new();
            for (scope, cfg) in [
                ("Hydro", Config::op_files(fmt, ["Hydro"])),
                ("all", Config::op_all(fmt)),
            ] {
                let (dt_s, c_s) = run(&mesh, &cfg, true);
                let (dt_b, c_b) = run(&mesh, &cfg, false);
                assert_eq!(
                    dt_b.to_bits(),
                    dt_s.to_bits(),
                    "{fmt} {scope}: dt {dt_b:e} vs scalar {dt_s:e}"
                );
                assert_eq!(c_b, c_s, "{fmt} {scope}: counters");
                let counted = if scope == "all" { c_b.trunc.total() } else { c_b.full.total() };
                assert!(counted > 1_000, "{fmt} {scope}: ops counted");
                dts.push(dt_b);
            }
            assert_ne!(dts[0].to_bits(), dts[1].to_bits(), "{fmt}: truncation changes dt");
        }
    }

    #[test]
    fn truncated_run_differs_but_tracks_reference() {
        use raptor_core::{Config, Tracked};
        use bigfloat::Format;
        let eos = GammaLaw::default();
        let params = HydroParams::default();
        let bc = BcSpec::all_outflow(4);
        let init = |m: &mut Mesh| {
            m.fill_initial(|x, _, var| {
                let w = Prim {
                    rho: if x < 0.5 { 1.0 } else { 0.125 },
                    vx: 0.0,
                    vy: 0.0,
                    p: if x < 0.5 { 1.0 } else { 0.1 },
                };
                let u = prim_to_cons(w, &GammaLaw::default());
                match var {
                    DENS => u.rho,
                    MOMX => u.mx,
                    MOMY => u.my,
                    _ => u.e,
                }
            })
        };
        let mut reference = mesh(ReconKind::Plm);
        init(&mut reference);
        let mut coarse = mesh(ReconKind::Plm);
        init(&mut coarse);
        let sess = Session::new(
            Config::op_files(Format::new(11, 8), ["Hydro"]).with_counting(),
        )
        .unwrap();
        for s in 0..5 {
            let dt = compute_dt::<f64, _>(&reference, &eos, &params);
            step::<f64, _>(&mut reference, &bc, &eos, &params, dt, 1, &Session::passthrough(), s % 2 == 1);
            step::<Tracked, _>(&mut coarse, &bc, &eos, &params, dt, 1, &sess, s % 2 == 1);
        }
        let a = amr::sample_uniform(&coarse, DENS, 32, 32);
        let b = amr::sample_uniform(&reference, DENS, 32, 32);
        let n = amr::norms(&a, &b);
        assert!(n.l1 > 1e-8, "8-bit truncation must leave a trace: {}", n.l1);
        assert!(n.l1 < 1e-1, "but remain close: {}", n.l1);
        let c = sess.counters();
        assert!(c.trunc.total() > 10_000, "truncated ops counted: {}", c.trunc.total());
    }
}
