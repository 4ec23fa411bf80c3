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
use crate::newton::{invert_temperature, invert_temperature_batch, NewtonCfg, NewtonResult};
use crate::table::{EosTable, TableCols, TableView};
use hydro::{Eos, HydroParams, ReconKind, RiemannKind};
use amr::{BcSpec, Mesh, MeshParams};
use raptor_core::batch::{self, Col};
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
        self.record(std::slice::from_ref(&r));
        r
    }

    /// Batched counterpart of `invert`: one Newton lockstep over the
    /// `(rho, eint)` columns of the current scope via
    /// [`invert_temperature_batch`], with the same per-inversion
    /// statistics accumulated in bulk.
    pub fn invert_batch(&self, rho: Col, eint: Col) -> Vec<NewtonResult<f64>> {
        let out = invert_temperature_batch(&self.table, rho, eint, 3e8, &self.newton);
        self.record(&out);
        out
    }

    /// Add inversions to the statistics.
    fn record<R: Real>(&self, results: &[NewtonResult<R>]) {
        self.calls.fetch_add(results.len() as u64, Ordering::Relaxed);
        let iters: u64 = results.iter().map(|r| r.iters as u64).sum();
        self.iters.fetch_add(iters, Ordering::Relaxed);
        let fails = results.iter().filter(|r| !r.converged).count() as u64;
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
        // Invert p(rho, T) = p by bisection on the pressure interpolant,
        // then evaluate e.
        let (t_lo, t_hi) = self.table.t_bounds();
        let mut lo = R::from_f64(t_lo);
        let mut hi = R::from_f64(t_hi);
        for _ in 0..BISECT_STEPS {
            let mid = midpoint(lo, hi);
            if self.table.pres_of(rho, mid) < p {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        self.table.eint_of(rho, midpoint(lo, hi))
    }

    fn sound_speed<R: Real>(&self, rho: R, p: R) -> R {
        let _r = region("Eos/helmholtz");
        let eint = self.eint(rho, p);
        gamma1_sound_speed(rho, p, eint)
    }

    // The column methods run the same source at `Col`. `pressure`'s
    // Newton inversion compacts its active set in
    // [`invert_temperature_batch`], preserving per-cell convergence
    // behaviour (and op counts) exactly. `eint`'s bisection runs a *fixed*
    // number of steps — the data-dependent comparison only selects which
    // bound each lane updates, never how many ops run — so it runs in
    // lockstep, each step in its own scope, with `pm < p` one exact
    // per-lane select. The scalar methods above remain the mem-mode path
    // and the differential oracle.
    fn pressure_col(&self, rho: Col, eint: Col) -> Col {
        let _r = region("Eos/helmholtz");
        let t = self.invert_batch(rho, eint);
        let t = Col::new_with(|o| o.iter_mut().zip(&t).for_each(|(o, r)| *o = r.t));
        TableCols(&self.table).pres_of(rho, t)
    }

    fn eint_col(&self, rho: Col, p: Col) -> Col {
        let _r = region("Eos/helmholtz");
        let table = TableCols(&self.table);
        let (t_lo, t_hi) = self.table.t_bounds();
        let n = rho.read(<[f64]>::len);
        let (mut lo, mut hi) = (vec![t_lo; n], vec![t_hi; n]);
        for _ in 0..BISECT_STEPS {
            let _step = batch::scope(n);
            let mid = midpoint(Col::from_slice(&lo), Col::from_slice(&hi));
            let pm = table.pres_of(rho, mid);
            mid.read(|mid| {
                pm.read(|pm| {
                    p.read(|p| {
                        for k in 0..n {
                            if pm[k] < p[k] {
                                lo[k] = mid[k];
                            } else {
                                hi[k] = mid[k];
                            }
                        }
                    })
                })
            });
        }
        table.eint_of(rho, midpoint(Col::from_slice(&lo), Col::from_slice(&hi)))
    }

    fn sound_speed_col(&self, rho: Col, p: Col) -> Col {
        let _r = region("Eos/helmholtz");
        let eint = self.eint_col(rho, p);
        gamma1_sound_speed(rho, p, eint)
    }
}

/// Bisection steps of [`TableHelmholtz`]'s `eint`.
const BISECT_STEPS: usize = 60;

/// The bisection midpoint `(lo + hi) / 2`.
#[inline]
fn midpoint<R: Arith>(lo: R, hi: R) -> R {
    (lo + hi) * R::half()
}

/// Adiabatic sound speed with the effective Gamma1 of the local
/// thermodynamics, `Gamma1 ~ 1 + p / (rho e)`: robust for the
/// ion+radiation mixture.
fn gamma1_sound_speed<R: Arith>(rho: R, p: R, eint: R) -> R {
    let gamma1 = R::one() + p / (rho * eint);
    (gamma1 * p / rho).sqrt()
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
    /// On instrumented op-mode runs the Newton temperature inversions of
    /// a whole block run as one [`TableHelmholtz::invert_batch`] — the
    /// plain-`f64` state prep and the stiff `burn_cell` integration stay
    /// scalar, so the fast path is bit- and counter-identical to the
    /// per-cell loop (the mem-mode path and differential oracle).
    // lint: allow(native-float, lift/store boundary: mesh arrays are plain f64; ke/eint prep and the energy-release writeback bracket the Tracked burn_cell and EOS inversion)
    fn burn_sweep<R: Real>(&mut self, dt: f64, session: &Session) {
        let lay = hydro::Layout::of(&self.mesh);
        let eos = &self.eos;
        let burn = self.burn;
        let mesh = &mut self.mesh;
        // The padded coordinates of every interior cell of a block.
        let cells: Vec<(usize, usize)> = (0..lay.ny)
            .flat_map(|j| (0..lay.nx).map(move |i| (i + lay.ng, j + lay.ng)))
            .collect();
        // Density and specific internal energy of a cell.
        let state = |d: &[f64], (pi, pj): (usize, usize)| {
            let rho = d[lay.at(hydro::DENS, pi, pj)];
            let ener = d[lay.at(hydro::ENER, pi, pj)];
            let mx = d[lay.at(hydro::MOMX, pi, pj)];
            let my = d[lay.at(hydro::MOMY, pi, pj)];
            let ke = 0.5 * (mx * mx + my * my) / rho;
            let eint = (ener - ke) / rho;
            (rho, eint.max(1e-30))
        };
        // Burn a cell at temperature `t` and release its energy.
        let burn_at = |d: &mut [f64], (pi, pj): (usize, usize), rho: f64, t: f64| {
            let x = d[lay.at(XCARBON, pi, pj)];
            let r = burn_cell::<R>(&burn, R::from_f64(x), R::from_f64(t), dt);
            d[lay.at(XCARBON, pi, pj)] = Real::to_f64(r.x);
            d[lay.at(hydro::ENER, pi, pj)] += rho * Real::to_f64(r.de);
        };
        amr::seq_leaves(mesh, |_geom, blk| {
            let _g = session.install();
            let _r = region("Burn");
            let d = &mut blk.data;
            if R::IS_TRACKED && batch::ready() {
                let (rho, eint): (Vec<f64>, Vec<f64>) = cells.iter().map(|&c| state(d, c)).unzip();
                let _cols = batch::scope(cells.len());
                let res = eos.invert_batch(Col::from_slice(&rho), Col::from_slice(&eint));
                for ((&c, &rho), r) in cells.iter().zip(&rho).zip(&res) {
                    burn_at(d, c, rho, r.t);
                }
            } else {
                for &c in &cells {
                    let (rho, eint) = state(d, c);
                    // Temperature via the (possibly truncated) EOS.
                    let t = Real::to_f64(eos.invert(R::from_f64(rho), R::from_f64(eint)).t);
                    burn_at(d, c, rho, t);
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

    /// The Cellular workload on a seeded random state at rest: smooth
    /// log-waves of density and temperature plus noise, past every edge
    /// of the table (rho ~ 1e3.2..1e9.8, T ~ 1e6.2..1e10.8), with energies
    /// from the analytic model. Some energy targets therefore lie below
    /// the table's energy at `t_lo` and some above its energy at `t_hi`:
    /// their Newton iterates cross those bounds, and they never converge.
    fn random_cellular(seed: u64) -> Cellular {
        use crate::table::model_eint;
        use crate::table::tests::splitmix;
        let mut sim = setup_cellular(2, 8, CellularInit::default());
        sim.mesh.fill_initial(|x, y, var| {
            let mut s = seed ^ x.to_bits() ^ y.to_bits().rotate_left(29);
            let mut unit = || (splitmix(&mut s) >> 11) as f64 / (1u64 << 53) as f64;
            let rho = 10f64.powf(6.5 + 3.0 * (2.1 * x + 0.3).sin() + 0.3 * (unit() - 0.5));
            let t = 10f64.powf(8.5 + 2.0 * (1.7 * x + 2.9 * y).cos() + 0.3 * (unit() - 0.5));
            let xc = unit();
            match var {
                hydro::DENS => rho,
                hydro::MOMX | hydro::MOMY => 0.0,
                hydro::ENER => rho * model_eint(rho, t),
                _ => xc,
            }
        });
        // Coverage: densities off both ends of the table, energy targets
        // beyond its range at both temperature bounds.
        let tab = &sim.eos.table;
        let (t_lo, t_hi) = tab.t_bounds();
        let (lr0, lr1) = (tab.lrho[0], tab.lrho[tab.lrho.len() - 1]);
        let lay = hydro::Layout::of(&sim.mesh);
        let (mut rho_lo, mut rho_hi, mut e_lo, mut e_hi) = (0, 0, 0, 0);
        for idx in sim.mesh.leaves() {
            let d = &sim.mesh.block(idx).data;
            for j in lay.ng..lay.ng + lay.ny {
                for i in lay.ng..lay.ng + lay.nx {
                    let rho = d[lay.at(hydro::DENS, i, j)];
                    let e = d[lay.at(hydro::ENER, i, j)] / rho;
                    rho_lo += (rho.log10() < lr0) as usize;
                    rho_hi += (rho.log10() > lr1) as usize;
                    e_lo += (e < tab.eint_of(rho, t_lo)) as usize;
                    e_hi += (e > tab.eint_of(rho, t_hi)) as usize;
                }
            }
        }
        assert!(
            rho_lo > 0 && rho_hi > 0 && e_lo > 0 && e_hi > 0,
            "coverage: rho below/above {rho_lo}/{rho_hi}, e below/above {e_lo}/{e_hi}"
        );
        sim
    }

    /// Run `steps` Cellular steps on a fresh copy of `build()` under a
    /// counting session of `cfg`, once pinned to the scalar path and once
    /// on the batch tier: meshes bit-identical, counters and Newton
    /// statistics equal. Returns the counters and `(calls, failures)`.
    fn assert_cellular_batch_matches_scalar(
        build: &dyn Fn() -> Cellular,
        cfg: &raptor_core::Config,
        steps: usize,
        label: &str,
    ) -> (raptor_core::Counters, (u64, u64)) {
        use raptor_core::{batch, Tracked};
        let run = |force_scalar: bool| {
            let _pin = batch::force_scalar(force_scalar);
            let mut sim = build();
            let sess = Session::new(cfg.clone().with_counting()).unwrap();
            sim.run::<Tracked>(steps, &sess);
            let stats = sim.eos.stats();
            (sim, sess.counters(), stats)
        };
        let (ss, cs, sts) = run(true);
        let (sb, cb, stb) = run(false);
        assert_eq!(
            amr::bitwise_diff(&ss.mesh, &sb.mesh),
            None,
            "{label}: meshes must be bit-identical"
        );
        assert_eq!(cs, cb, "{label}: op counters must match exactly");
        assert_eq!(sts.0, stb.0, "{label}: inversion calls");
        assert_eq!(sts.1, stb.1, "{label}: inversion failures");
        assert_eq!(sts.2.to_bits(), stb.2.to_bits(), "{label}: mean iterations");
        (cs, (sts.0, sts.1))
    }

    /// The batched burn-sweep inversion must reproduce the per-cell
    /// scalar sweep bit for bit — mesh bytes, op counters, and Newton
    /// statistics — at a converging format (e11m48), at one where most
    /// inversions exhaust the iteration cap (e11m20, so the active-set
    /// compaction and failure accounting are both exercised), and under
    /// every differential configuration on the seeded random state, whose
    /// out-of-table cells never converge.
    #[test]
    fn batch_burn_inversion_bit_identical_to_scalar() {
        use crate::table::tests::differential_configs;
        use bigfloat::Format;
        use raptor_core::Config;
        let eos_only = |fmt: Format| Config::op_files(fmt, ["Eos"]);
        let default = || setup_cellular(2, 8, CellularInit::default());
        for mant in [48u32, 20] {
            let label = format!("default e11m{mant}");
            let (cs, _) = assert_cellular_batch_matches_scalar(&default, &eos_only(Format::new(11, mant)), 3, &label);
            assert!(cs.trunc.math > 0, "{label}: table log10s counted");
        }
        for (name, cfg) in differential_configs(eos_only) {
            let label = format!("random {name}");
            let (cs, (calls, fails)) =
                assert_cellular_batch_matches_scalar(&|| random_cellular(0xCE11), &cfg, 2, &label);
            assert!(cs.trunc.math > 0, "{label}: table log10s counted");
            assert!(fails > 0 && fails < calls, "{label}: {fails} of {calls} inversions fail");
        }
    }

    /// The batch hydro sweep routes its pressure/sound-speed lookups
    /// through the `Col` trait methods (Newton inversion, fixed-iteration
    /// pressure bisection, bilinear table lookups). That path must reproduce the per-cell
    /// scalar trait calls bit for bit with exact counter parity, both
    /// when the Eos region is *inside* the truncation scope and when it
    /// is outside it (Hydro scope → the table ops bulk-count as
    /// full-precision via `InactiveCount`), and under every differential
    /// configuration (Eos and Hydro truncated) on the seeded random state.
    #[test]
    fn batch_eos_trait_path_bit_identical_to_scalar() {
        use crate::table::tests::differential_configs;
        use bigfloat::Format;
        use raptor_core::Config;
        let cases: [(&[&str], Format); 2] = [
            (&["Hydro"], Format::new(11, 12)),
            (&["Eos", "Hydro"], Format::new(11, 48)),
        ];
        let default = || setup_cellular(2, 8, CellularInit::default());
        for (scope, fmt) in cases {
            let cfg = Config::op_files(fmt, scope.iter().copied());
            assert_cellular_batch_matches_scalar(&default, &cfg, 2, &format!("default {scope:?}"));
        }
        let both = |fmt: Format| Config::op_files(fmt, ["Eos", "Hydro"]);
        for (name, cfg) in differential_configs(both) {
            let label = format!("random {name}");
            let (_, (calls, fails)) =
                assert_cellular_batch_matches_scalar(&|| random_cellular(0x7AB1E), &cfg, 1, &label);
            assert!(fails > 0 && fails < calls, "{label}: {fails} of {calls} inversions fail");
        }
    }

    /// `hydro::compute_dt` on the leaf columns against its per-cell loop
    /// through the tabulated EOS (`sound_speed_col`: the lockstep
    /// bisection and the table's `log10` lookups) on the seeded random
    /// state, given velocities of either sign up to about the sound speed,
    /// with `Driver/dt` outside the truncation scope (`Hydro` only) and
    /// inside it (`op_all`), at e11m12, e5m10, the guarded e11m20 and the
    /// emulation tier's e11m30. The `dt` bits and the counters must be
    /// equal.
    #[test]
    fn compute_dt_batch_bit_identical_to_scalar() {
        use crate::table::tests::splitmix;
        use bigfloat::Format;
        use raptor_core::{batch, Config, Tracked};
        let mut sim = random_cellular(0xD7);
        let lay = hydro::Layout::of(&sim.mesh);
        let mut s = 0xD7_u64;
        for idx in sim.mesh.leaves() {
            let d = &mut sim.mesh.block_mut(idx).data;
            for j in lay.ng..lay.ng + lay.ny {
                for i in lay.ng..lay.ng + lay.nx {
                    let rho = d[lay.at(hydro::DENS, i, j)];
                    for var in [hydro::MOMX, hydro::MOMY] {
                        let unit = (splitmix(&mut s) >> 11) as f64 / (1u64 << 53) as f64;
                        d[lay.at(var, i, j)] = rho * 3e8 * (2.0 * unit - 1.0);
                    }
                }
            }
        }
        let run = |cfg: &Config, force_scalar: bool| {
            let _pin = batch::force_scalar(force_scalar);
            let sess = Session::new(cfg.clone().with_counting()).unwrap();
            let g = sess.install();
            let dt = hydro::compute_dt::<Tracked, _>(&sim.mesh, &sim.eos, &sim.hydro);
            drop(g);
            (dt, sess.counters())
        };
        for (e, m) in [(11u32, 12u32), (5, 10), (11, 20), (11, 30)] {
            let fmt = Format::new(e, m);
            for (scope, cfg) in [
                ("Hydro", Config::op_files(fmt, ["Hydro"])),
                ("all", Config::op_all(fmt)),
            ] {
                let (dt_s, c_s) = run(&cfg, true);
                let (dt_b, c_b) = run(&cfg, false);
                assert_eq!(
                    dt_b.to_bits(),
                    dt_s.to_bits(),
                    "{fmt} {scope}: dt {dt_b:e} vs scalar {dt_s:e}"
                );
                assert_eq!(c_b, c_s, "{fmt} {scope}: counters");
                let c = if scope == "all" { c_b.trunc } else { c_b.full };
                assert!(c.math > 0, "{fmt} {scope}: table log10s counted");
            }
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
        let scalar_eos = TableHelmholtz::new();
        let batch_eos = TableHelmholtz::new();
        let n = 16;
        let rho: Vec<f64> = (0..n).map(|k| 1e5 * (1.0 + 0.9 * k as f64)).collect();
        let t_true: Vec<f64> = (0..n).map(|k| 2e8 * (1.0 + 0.31 * k as f64)).collect();
        let eint: Vec<f64> =
            (0..n).map(|k| scalar_eos.table.eint_of(rho[k], t_true[k])).collect();
        let _cols = batch::scope(n);
        let out = batch_eos.invert_batch(Col::from_slice(&rho), Col::from_slice(&eint));
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
