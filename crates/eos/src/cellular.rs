//! The **Cellular** detonation workload (paper §4.2, §6.1): compressible
//! hydro + table-EOS + stiff carbon burning.
//!
//! "The domain is initialized with pure carbon which is perturbed to
//! ignite the nuclear fuel, producing an over-driven detonation that
//! propagates along the x-axis." Our substitute couples the `hydro` solver
//! to [`TableHelmholtz`] (the interpolated EOS with Newton temperature
//! inversion) and the [`crate::burn`] network by operator splitting, on a
//! thin 2-D domain.
//!
//! The experiment truncates the **EOS module only** and watches the
//! Newton inversion fail below ~40 mantissa bits — falsifying
//! Hypothesis 2 ("the EOS is table-based and therefore the most likely
//! candidate for reducing precision").

use crate::burn::{burn_cell, BurnCfg};
use crate::newton::{
    invert_temperature, invert_temperature_batch, NewtonCfg, NewtonResult, NewtonScratch,
};
use crate::table::{EosTable, InterpScratch};
use hydro::{Eos, HydroParams, ReconKind, RiemannKind};
use amr::{BcSpec, Mesh, MeshParams};
use raptor_core::batch::{batch_add, batch_mul_s, Col};
use raptor_core::{region, Arith, Real, Session};
use std::sync::atomic::{AtomicU64, Ordering};

/// Mesh variable index of the carbon mass fraction (after the 4 hydro
/// variables).
pub const XCARBON: usize = hydro::NVAR;

/// Hydro-facing adapter over the table + Newton inversion.
///
/// Every `pressure`/`sound_speed` call performs the table inversion in the
/// `Eos` region; failed inversions are counted (the real code aborts the
/// run — we keep going so a sweep can report the failure statistics).
pub struct TableHelmholtz {
    /// The tabulated EOS.
    pub table: EosTable,
    /// Newton configuration.
    pub newton: NewtonCfg,
    /// Inversions attempted.
    pub calls: AtomicU64,
    /// Inversions that failed to converge.
    pub failures: AtomicU64,
    /// Iterations accumulated (for mean-iteration statistics).
    pub iters: AtomicU64,
}

impl TableHelmholtz {
    /// Build with the default Cellular-regime table.
    pub fn new() -> Self {
        TableHelmholtz {
            table: EosTable::cellular_default(),
            newton: NewtonCfg::default(),
            calls: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            iters: AtomicU64::new(0),
        }
    }

    /// Reset statistics.
    pub fn reset_stats(&self) {
        self.calls.store(0, Ordering::Relaxed);
        self.failures.store(0, Ordering::Relaxed);
        self.iters.store(0, Ordering::Relaxed);
    }

    /// (calls, failures, mean iterations).
    // lint: allow(native-float, mean-iteration statistics are diagnostics, not kernel math)
    pub fn stats(&self) -> (u64, u64, f64) {
        let c = self.calls.load(Ordering::Relaxed);
        let f = self.failures.load(Ordering::Relaxed);
        let i = self.iters.load(Ordering::Relaxed);
        (c, f, if c > 0 { i as f64 / c as f64 } else { 0.0 })
    }

    fn invert<R: Real>(&self, rho: R, eint: R) -> NewtonResult<R> {
        let guess = R::from_f64(3e8);
        let r = invert_temperature(&self.table, rho, eint, guess, &self.newton);
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.iters.fetch_add(r.iters as u64, Ordering::Relaxed);
        if !r.converged {
            self.failures.fetch_add(1, Ordering::Relaxed);
        }
        r
    }

    /// Batched counterpart of `invert`: one Newton lockstep over a slice
    /// of `(rho, eint)` states via [`invert_temperature_batch`], with the
    /// same per-inversion statistics accumulated in bulk.
    pub fn invert_batch(
        &self,
        rho: &[f64],
        eint: &[f64],
        out: &mut [NewtonResult<f64>],
        ws: &mut NewtonScratch,
    ) {
        invert_temperature_batch(&self.table, rho, eint, 3e8, &self.newton, out, ws);
        self.calls.fetch_add(rho.len() as u64, Ordering::Relaxed);
        let iters: u64 = out.iter().map(|r| r.iters as u64).sum();
        self.iters.fetch_add(iters, Ordering::Relaxed);
        let fails = out.iter().filter(|r| !r.converged).count() as u64;
        if fails > 0 {
            self.failures.fetch_add(fails, Ordering::Relaxed);
        }
    }
}

impl Default for TableHelmholtz {
    fn default() -> Self {
        Self::new()
    }
}

impl Eos for TableHelmholtz {
    fn pressure<R: Real>(&self, rho: R, eint: R) -> R {
        let _r = region("Eos/helmholtz");
        let t = self.invert(rho, eint).t;
        self.table.pres_of(rho, t)
    }

    fn eint<R: Real>(&self, rho: R, p: R) -> R {
        let _r = region("Eos/helmholtz");
        // Invert p(rho, T) = p via Newton on the pressure interpolant,
        // then evaluate e. A coarse bisection seed keeps it robust.
        let (t_lo, t_hi) = self.table.t_bounds();
        let mut lo = R::from_f64(t_lo);
        let mut hi = R::from_f64(t_hi);
        for _ in 0..60 {
            let mid = (lo + hi) * R::half();
            if self.table.pres_of(rho, mid) < p {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let t = (lo + hi) * R::half();
        self.table.eint_of(rho, t)
    }

    fn sound_speed<R: Real>(&self, rho: R, p: R) -> R {
        let _r = region("Eos/helmholtz");
        let eint = self.eint(rho, p);
        gamma1_sound_speed(rho, p, eint)
    }

    // The column methods wrap the slice evaluators below: `eint`'s
    // bisection runs a *fixed* 60 iterations — the data-dependent
    // comparison only selects which bound each lane updates, never how
    // many ops run — so it is lockstep-batchable with exact per-lane
    // selects, and `pressure`'s Newton inversion compacts its active set
    // in [`invert_temperature_batch`], preserving per-cell convergence
    // behaviour (and op counts) exactly. The scalar methods above remain
    // the mem-mode path and the differential oracle.
    fn pressure_col(&self, rho: Col, eint: Col) -> Col {
        let _r = region("Eos/helmholtz");
        Col::new_with(|out| rho.read(|rho| eint.read(|eint| self.pressure_slices(rho, eint, out))))
    }

    fn eint_col(&self, rho: Col, p: Col) -> Col {
        let _r = region("Eos/helmholtz");
        Col::new_with(|out| rho.read(|rho| p.read(|p| self.eint_slices(rho, p, out))))
    }

    fn sound_speed_col(&self, rho: Col, p: Col) -> Col {
        let _r = region("Eos/helmholtz");
        let eint = self.eint_col(rho, p);
        gamma1_sound_speed(rho, p, eint)
    }
}

/// Adiabatic sound speed with the effective Gamma1 of the local
/// thermodynamics, `Gamma1 ~ 1 + p / (rho e)`: robust for the
/// ion+radiation mixture.
fn gamma1_sound_speed<R: Arith>(rho: R, p: R, eint: R) -> R {
    let gamma1 = R::one() + p / (rho * eint);
    (gamma1 * p / rho).sqrt()
}

impl TableHelmholtz {
    /// [`Eos::pressure`] over slices: batched Newton inversion, then the
    /// table's pressure lookup.
    fn pressure_slices(&self, rho: &[f64], eint: &[f64], out: &mut [f64]) {
        let n = rho.len();
        let none = NewtonResult { t: 0.0, iters: 0, converged: false, resid: 0.0 };
        let mut results = vec![none; n];
        self.invert_batch(rho, eint, &mut results, &mut NewtonScratch::default());
        let t: Vec<f64> = results.iter().map(|r| r.t).collect();
        self.table.pres_of_batch(rho, &t, out, &mut InterpScratch::default());
    }

    /// [`Eos::eint`] over slices: the 60-step bisection in lockstep.
    fn eint_slices(&self, rho: &[f64], p: &[f64], out: &mut [f64]) {
        let n = rho.len();
        let (t_lo, t_hi) = self.table.t_bounds();
        let (mut lo, mut hi) = (vec![t_lo; n], vec![t_hi; n]);
        let (mut mid, mut pm, mut a) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
        let interp = &mut InterpScratch::default();
        for _ in 0..60 {
            // mid = (lo + hi) * half — same AST, so same two counted ops;
            // the comparison is an exact, uncounted per-lane select.
            batch_add(&lo, &hi, &mut a);
            batch_mul_s(&a, 0.5, &mut mid);
            self.table.pres_of_batch(rho, &mid, &mut pm, interp);
            for k in 0..n {
                if pm[k] < p[k] {
                    lo[k] = mid[k];
                } else {
                    hi[k] = mid[k];
                }
            }
        }
        batch_add(&lo, &hi, &mut a);
        batch_mul_s(&a, 0.5, &mut mid);
        self.table.eint_of_batch(rho, &mid, out, interp);
    }
}

/// Cellular simulation state.
pub struct Cellular {
    /// Mesh: 4 hydro variables + carbon fraction.
    pub mesh: Mesh,
    /// Boundary conditions.
    pub bc: BcSpec,
    /// Hydro parameters.
    pub hydro: HydroParams,
    /// EOS with statistics.
    pub eos: TableHelmholtz,
    /// Burn network.
    pub burn: BurnCfg,
    /// Time.
    pub t: f64,
    /// Steps taken.
    pub nstep: usize,
}

/// Ambient / ignition conditions.
#[derive(Clone, Copy, Debug)]
pub struct CellularInit {
    /// Ambient density (g/cc).
    pub rho0: f64,
    /// Ambient temperature (K).
    pub t0: f64,
    /// Ignition temperature in the perturbed strip (K).
    pub t_ignite: f64,
    /// Width of the ignition strip (fraction of the domain).
    pub strip: f64,
}

impl Default for CellularInit {
    fn default() -> Self {
        CellularInit { rho0: 1e7, t0: 2e8, t_ignite: 4e9, strip: 0.1 }
    }
}

/// Build the Cellular workload on a thin 2-D domain.
pub fn setup_cellular(nx_blocks: usize, nx_per_block: usize, init: CellularInit) -> Cellular {
    let params = MeshParams {
        nx: nx_per_block,
        ny: nx_per_block,
        ng: 2,
        nvar: hydro::NVAR + 1,
        nbx: nx_blocks,
        nby: 1,
        max_level: 1,
        domain: (0.0, nx_blocks as f64, 0.0, 1.0),
    };
    let mut mesh = Mesh::new(params);
    let eos = TableHelmholtz::new();
    let table = &eos.table;
    let (x0, x1, _, _) = params.domain;
    let strip_end = x0 + init.strip * (x1 - x0);
    mesh.fill_initial(|x, _y, var| {
        let t = if x < strip_end { init.t_ignite } else { init.t0 };
        let rho = init.rho0;
        let e = table.eint_of(rho, t);
        match var {
            hydro::DENS => rho,
            hydro::MOMX | hydro::MOMY => 0.0,
            hydro::ENER => rho * e,
            _ => 1.0, // pure carbon
        }
    });
    Cellular {
        mesh,
        bc: BcSpec::all_outflow(hydro::NVAR + 1),
        hydro: HydroParams {
            recon: ReconKind::Plm,
            riemann: RiemannKind::Hll,
            cfl: 0.3,
            ..Default::default()
        },
        eos,
        burn: BurnCfg::default(),
        t: 0.0,
        nstep: 0,
    }
}

impl Cellular {
    /// Advance `n` steps: hydro sweep then burn source, operator-split.
    pub fn run<R: Real>(&mut self, n: usize, session: &Session) {
        for s in 0..n {
            let dt = hydro::compute_dt::<f64, _>(&self.mesh, &self.eos, &self.hydro);
            hydro::step::<R, _>(
                &mut self.mesh,
                &self.bc,
                &self.eos,
                &self.hydro,
                dt,
                1,
                session,
                s % 2 == 1,
            );
            self.burn_sweep::<R>(dt, session);
            self.t += dt;
            self.nstep += 1;
        }
    }

    /// Apply the burn network cell-by-cell (the `Burn` module).
    ///
    /// On instrumented op-mode runs the per-cell Newton temperature
    /// inversions batch row by row through
    /// [`TableHelmholtz::invert_batch`] — the plain-`f64` state prep and
    /// the stiff `burn_cell` integration stay scalar, so the fast path is
    /// bit- and counter-identical to the per-cell loop (the mem-mode path
    /// and differential oracle).
    // lint: allow(native-float, lift/store boundary: mesh arrays are plain f64; ke/eint prep and the energy-release writeback bracket the Tracked burn_cell and EOS inversion)
    fn burn_sweep<R: Real>(&mut self, dt: f64, session: &Session) {
        let lay = hydro::Layout::of(&self.mesh);
        let eos = &self.eos;
        let burn = self.burn;
        let mesh = &mut self.mesh;
        amr::seq_leaves(mesh, |_geom, blk| {
            let _g = session.install();
            let _r = region("Burn");
            if R::IS_TRACKED && raptor_core::batch::ready() {
                let mut ws = NewtonScratch::default();
                let mut rho_row = vec![0.0; lay.nx];
                let mut eint_row = vec![0.0; lay.nx];
                let none = NewtonResult { t: 0.0, iters: 0, converged: false, resid: 0.0 };
                let mut res_row = vec![none; lay.nx];
                for j in 0..lay.ny {
                    for i in 0..lay.nx {
                        let (pi, pj) = (i + lay.ng, j + lay.ng);
                        let rho = blk.data[lay.at(hydro::DENS, pi, pj)];
                        let ener = blk.data[lay.at(hydro::ENER, pi, pj)];
                        let mx = blk.data[lay.at(hydro::MOMX, pi, pj)];
                        let my = blk.data[lay.at(hydro::MOMY, pi, pj)];
                        let ke = 0.5 * (mx * mx + my * my) / rho;
                        let eint = (ener - ke) / rho;
                        rho_row[i] = rho;
                        eint_row[i] = eint.max(1e-30);
                    }
                    eos.invert_batch(&rho_row, &eint_row, &mut res_row, &mut ws);
                    for i in 0..lay.nx {
                        let (pi, pj) = (i + lay.ng, j + lay.ng);
                        let ener = blk.data[lay.at(hydro::ENER, pi, pj)];
                        let rho = rho_row[i];
                        let x = blk.data[lay.at(XCARBON, pi, pj)];
                        let t = res_row[i].t;
                        let r = burn_cell::<R>(&burn, R::from_f64(x), R::from_f64(t), dt);
                        blk.data[lay.at(XCARBON, pi, pj)] = Real::to_f64(r.x);
                        blk.data[lay.at(hydro::ENER, pi, pj)] = ener + rho * Real::to_f64(r.de);
                    }
                }
                return;
            }
            for j in 0..lay.ny {
                for i in 0..lay.nx {
                    let (pi, pj) = (i + lay.ng, j + lay.ng);
                    let rho = blk.data[lay.at(hydro::DENS, pi, pj)];
                    let ener = blk.data[lay.at(hydro::ENER, pi, pj)];
                    let mx = blk.data[lay.at(hydro::MOMX, pi, pj)];
                    let my = blk.data[lay.at(hydro::MOMY, pi, pj)];
                    let x = blk.data[lay.at(XCARBON, pi, pj)];
                    let ke = 0.5 * (mx * mx + my * my) / rho;
                    let eint = (ener - ke) / rho;
                    let eint = eint.max(1e-30);
                    // Temperature via the (possibly truncated) EOS.
                    let t: f64 = Real::to_f64(eos.invert(R::from_f64(rho), R::from_f64(eint)).t);
                    let r = burn_cell::<R>(&burn, R::from_f64(x), R::from_f64(t), dt);
                    blk.data[lay.at(XCARBON, pi, pj)] = Real::to_f64(r.x);
                    blk.data[lay.at(hydro::ENER, pi, pj)] = ener + rho * Real::to_f64(r.de);
                }
            }
        });
    }

    /// Position of the burn front: rightmost x where X < 0.5.
    // lint: allow(native-float, diagnostic sampling of the front position; not part of the evolved state)
    pub fn front_position(&self, samples: usize) -> f64 {
        let (x0, x1, _, _) = self.mesh.params.domain;
        let mut front = x0;
        for i in 0..samples {
            let x = x0 + (x1 - x0) * (i as f64 + 0.5) / samples as f64;
            let xc = amr::sample_point(&self.mesh, XCARBON, x, 0.5);
            if xc < 0.5 {
                front = x;
            }
        }
        front
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detonation_front_propagates() {
        let mut sim = setup_cellular(4, 8, CellularInit::default());
        let f0 = sim.front_position(64);
        sim.run::<f64>(12, &Session::passthrough());
        let f1 = sim.front_position(64);
        assert!(f1 > f0, "front moved: {f0} -> {f1}");
        let (calls, fails, _) = sim.eos.stats();
        assert!(calls > 1000, "EOS exercised: {calls}");
        assert_eq!(fails, 0, "full precision never fails");
    }

    #[test]
    fn truncated_eos_fails_newton_but_burn_region_untouched() {
        use bigfloat::Format;
        use raptor_core::{Config, Tracked};
        let mut sim = setup_cellular(2, 8, CellularInit::default());
        // Truncate ONLY the EOS module to 20 bits: Hypothesis 2 setup.
        let sess = Session::new(Config::op_files(Format::new(11, 20), ["Eos"])).unwrap();
        sim.run::<Tracked>(3, &sess);
        let (calls, fails, _) = sim.eos.stats();
        assert!(calls > 0);
        assert!(
            fails * 2 > calls,
            "most inversions fail at 20 bits: {fails}/{calls}"
        );
    }

    /// The row-batched burn-sweep inversion must reproduce the per-cell
    /// scalar sweep bit for bit — mesh bytes, op counters, and Newton
    /// statistics — at a converging format and at one where most
    /// inversions exhaust the iteration cap (so the active-set compaction
    /// and failure accounting are both exercised).
    #[test]
    fn batch_burn_inversion_bit_identical_to_scalar() {
        use bigfloat::Format;
        use raptor_core::{batch, Config, Tracked};
        for mant in [48u32, 20] {
            let fmt = Format::new(11, mant);
            let run = |force_scalar: bool| {
                let _pin = batch::force_scalar(force_scalar);
                let mut sim = setup_cellular(2, 8, CellularInit::default());
                let sess =
                    Session::new(Config::op_files(fmt, ["Eos"]).with_counting()).unwrap();
                sim.run::<Tracked>(3, &sess);
                let stats = sim.eos.stats();
                (sim, sess.counters(), stats)
            };
            let (ss, cs, sts) = run(true);
            let (sb, cb, stb) = run(false);
            assert_eq!(
                amr::bitwise_diff(&ss.mesh, &sb.mesh),
                None,
                "mant {mant}: meshes must be bit-identical"
            );
            assert_eq!(cs, cb, "mant {mant}: op counters must match exactly");
            assert_eq!(sts.0, stb.0, "mant {mant}: inversion calls");
            assert_eq!(sts.1, stb.1, "mant {mant}: inversion failures");
            assert_eq!(
                sts.2.to_bits(),
                stb.2.to_bits(),
                "mant {mant}: mean iterations"
            );
            assert!(cs.trunc.math > 0, "mant {mant}: table log10s counted");
        }
    }

    /// The batch hydro sweep routes its pressure/sound-speed lookups
    /// through the `Col` trait methods (Newton inversion, fixed-iteration
    /// pressure bisection, bilinear table lookups). That path must reproduce the per-cell
    /// scalar trait calls bit for bit with exact counter parity, both
    /// when the Eos region is *inside* the truncation scope and when it
    /// is outside it (Hydro scope → the table ops bulk-count as
    /// full-precision via `InactiveCount`).
    #[test]
    fn batch_eos_trait_path_bit_identical_to_scalar() {
        use bigfloat::Format;
        use raptor_core::{batch, Config, Tracked};
        let cases: [(&[&str], Format); 2] = [
            (&["Hydro"], Format::new(11, 12)),
            (&["Eos", "Hydro"], Format::new(11, 48)),
        ];
        for (scope, fmt) in cases {
            let run = |force_scalar: bool| {
                let _pin = batch::force_scalar(force_scalar);
                let mut sim = setup_cellular(2, 8, CellularInit::default());
                let sess = Session::new(
                    Config::op_files(fmt, scope.iter().copied()).with_counting(),
                )
                .unwrap();
                sim.run::<Tracked>(2, &sess);
                let stats = sim.eos.stats();
                (sim, sess.counters(), stats)
            };
            let (ss, cs, sts) = run(true);
            let (sb, cb, stb) = run(false);
            assert_eq!(
                amr::bitwise_diff(&ss.mesh, &sb.mesh),
                None,
                "{scope:?}: meshes must be bit-identical"
            );
            assert_eq!(cs, cb, "{scope:?}: op counters must match exactly");
            assert_eq!(sts.0, stb.0, "{scope:?}: inversion calls");
            assert_eq!(sts.1, stb.1, "{scope:?}: inversion failures");
            assert_eq!(sts.2.to_bits(), stb.2.to_bits(), "{scope:?}: mean iterations");
        }
    }

    #[test]
    fn truncated_eos_at_48_bits_converges() {
        use bigfloat::Format;
        use raptor_core::{Config, Tracked};
        let mut sim = setup_cellular(2, 8, CellularInit::default());
        let sess = Session::new(Config::op_files(Format::new(11, 48), ["Eos"])).unwrap();
        sim.run::<Tracked>(3, &sess);
        let (calls, fails, _) = sim.eos.stats();
        assert!(calls > 0);
        assert_eq!(fails, 0, "48-bit EOS converges: {fails}/{calls}");
    }

    /// Batch-pairing twin: `invert_batch` against the scalar `invert`
    /// path, including the bulk inversion-statistics accounting.
    #[test]
    fn invert_batch_matches_scalar_invert() {
        use crate::newton::{NewtonResult, NewtonScratch};
        let scalar_eos = TableHelmholtz::new();
        let batch_eos = TableHelmholtz::new();
        let n = 16;
        let rho: Vec<f64> = (0..n).map(|k| 1e5 * (1.0 + 0.9 * k as f64)).collect();
        let t_true: Vec<f64> = (0..n).map(|k| 2e8 * (1.0 + 0.31 * k as f64)).collect();
        let eint: Vec<f64> =
            (0..n).map(|k| scalar_eos.table.eint_of(rho[k], t_true[k])).collect();
        let mut out =
            vec![NewtonResult { t: 0.0f64, iters: 0, converged: false, resid: 0.0 }; n];
        let mut ws = NewtonScratch::default();
        batch_eos.invert_batch(&rho, &eint, &mut out, &mut ws);
        for k in 0..n {
            let r = scalar_eos.invert(rho[k], eint[k]);
            assert_eq!(out[k].t.to_bits(), r.t.to_bits(), "t k={k}");
            assert_eq!(out[k].iters, r.iters, "iters k={k}");
            assert_eq!(out[k].converged, r.converged, "converged k={k}");
        }
        let (cs, fs, ms) = scalar_eos.stats();
        let (cb, fb, mb) = batch_eos.stats();
        assert_eq!((cs, fs), (cb, fb), "call/failure accounting");
        assert_eq!(ms.to_bits(), mb.to_bits(), "mean iterations");
    }
}
