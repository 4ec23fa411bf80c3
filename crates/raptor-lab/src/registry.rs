//! The scenario registry: every workload the reproduction can sweep,
//! behind the one [`Scenario`] trait.
//!
//! Four crates contribute scenarios:
//!
//! * **hydro** — Sedov blast and Sod shock tube, each in a second
//!   parameterization (WENO5 reconstruction; HLL Riemann solver) to widen
//!   the numerical surface precision errors can attack, plus the
//!   Kelvin–Helmholtz shear layer (periodic, chaotic error growth; its
//!   natural campaign lattice, [`crate::shear_candidates`], has a prime
//!   candidate count so distributed sharding's remainder path is
//!   exercised by a real scenario);
//! * **incomp** — the rising bubble, plus a viscous (Re 10) and a
//!   density-contrast (100:1) variant;
//! * **eos** — the cellular burning front, plus hot-ignition and
//!   dense-fuel variants that stress different table regions;
//! * **raptor-ir** — interpreted IR kernels truncated through the
//!   compiler pass (§7.3's runtime format selection), closing the loop
//!   between the `Tracked` runtime and the instrumentation pass.

use crate::scenario::{LabParams, Observable, Runnable, Scenario};
use eos::CellularInit;
use hydro::{Problem, ReconKind, RiemannKind};
use incomp::InsParams;
use raptor_core::{region, Session, Tracked};

/// All registered scenarios. Names are unique, `<crate>/<variant>`.
pub fn registry() -> Vec<Box<dyn Scenario>> {
    vec![
        Box::new(HydroScenario {
            name: "hydro/sedov",
            problem: Problem::Sedov,
            recon: ReconKind::Plm,
            riemann: RiemannKind::Hllc,
        }),
        Box::new(HydroScenario {
            name: "hydro/sod",
            problem: Problem::Sod,
            recon: ReconKind::Plm,
            riemann: RiemannKind::Hllc,
        }),
        Box::new(HydroScenario {
            name: "hydro/sedov-weno5",
            problem: Problem::Sedov,
            recon: ReconKind::Weno5,
            riemann: RiemannKind::Hllc,
        }),
        Box::new(HydroScenario {
            name: "hydro/sod-hll",
            problem: Problem::Sod,
            recon: ReconKind::Plm,
            riemann: RiemannKind::Hll,
        }),
        Box::new(HydroScenario {
            name: "hydro/kelvin-helmholtz",
            problem: Problem::KelvinHelmholtz,
            recon: ReconKind::Plm,
            riemann: RiemannKind::Hllc,
        }),
        Box::new(BubbleScenario { name: "incomp/bubble", params: InsParams::default() }),
        Box::new(BubbleScenario {
            name: "incomp/bubble-viscous",
            params: InsParams { re: 10.0, ..InsParams::default() },
        }),
        Box::new(BubbleScenario {
            name: "incomp/bubble-contrast",
            params: InsParams { rho_air: 1e-2, mu_air: 1e-1, ..InsParams::default() },
        }),
        Box::new(CellularScenario { name: "eos/cellular", init: CellularInit::default() }),
        Box::new(CellularScenario {
            name: "eos/cellular-hot",
            init: CellularInit { t_ignite: 6e9, ..CellularInit::default() },
        }),
        Box::new(CellularScenario {
            name: "eos/cellular-dense",
            init: CellularInit { rho0: 3e7, ..CellularInit::default() },
        }),
        Box::new(IrScenario { name: "ir/horner", kind: IrKind::Horner }),
        Box::new(IrScenario { name: "ir/norm3", kind: IrKind::Norm3 }),
    ]
}

/// Look a scenario up by registry name.
pub fn find(name: &str) -> Option<Box<dyn Scenario>> {
    registry().into_iter().find(|s| s.name() == name)
}

/// Resolve a study's scenario set: `None` selects the full registry, and
/// `Some("a,b,c")` a comma-separated subset (the CLI `--scenarios` flag).
/// Scenarios come back in **registry order** regardless of how the subset
/// was written, so two studies over the same set enumerate the same
/// `(scenario, candidate)` pair lattice; unknown names and empty subsets
/// are errors listing what is registered.
pub fn study_scenarios(subset: Option<&str>) -> Result<Vec<Box<dyn Scenario>>, String> {
    let all = registry();
    let Some(subset) = subset else { return Ok(all) };
    let wanted: Vec<&str> = subset.split(',').map(str::trim).filter(|s| !s.is_empty()).collect();
    if wanted.is_empty() {
        return Err("--scenarios wants a comma-separated list of registry names".into());
    }
    for name in &wanted {
        if !all.iter().any(|s| s.name() == *name) {
            let known: Vec<&str> = all.iter().map(|s| s.name()).collect();
            return Err(format!("unknown scenario `{name}`; registered: {}", known.join(", ")));
        }
    }
    Ok(all.into_iter().filter(|s| wanted.contains(&s.name())).collect())
}

// ---------------------------------------------------------------------------
// hydro: compressible Euler on AMR
// ---------------------------------------------------------------------------

struct HydroScenario {
    name: &'static str,
    problem: Problem,
    recon: ReconKind,
    riemann: RiemannKind,
}

impl HydroScenario {
    /// `(max_level, t_end, max_steps)` per scale.
    fn scale(&self, p: &LabParams) -> (u32, f64, usize) {
        match p.scale {
            0 => (2, 0.01, 60),
            1 => (3, 0.015, 10_000),
            _ => (4, 0.03, 100_000),
        }
    }
}

impl Scenario for HydroScenario {
    fn name(&self) -> &'static str {
        self.name
    }

    fn regions(&self) -> &'static [&'static str] {
        &["Hydro"]
    }

    fn max_level(&self, params: &LabParams) -> u32 {
        self.scale(params).0
    }

    fn build(&self, params: &LabParams) -> Box<dyn Runnable> {
        let (max_level, t_end, max_steps) = self.scale(params);
        let (problem, recon, riemann) = (self.problem, self.recon, self.riemann);
        let threads = params.threads;
        Box::new(move |session: &Session| {
            // 4x4 root blocks keep genuinely coarse level-1 leaves away
            // from the feature, so the M-l cutoff candidates have levels
            // to spare (the bench harness uses the same layout).
            let mut sim = hydro::setup_with_roots(problem, max_level, 8, recon, 4);
            sim.hydro.riemann = riemann;
            sim.run::<Tracked>(t_end, max_steps, threads, session);
            // Density on a uniform sampling grid: the sfocu-style
            // comparison surface, independent of the final block layout
            // (truncation noise may perturb refinement).
            Observable { values: sim.density_field(32) }
        })
    }
}

// ---------------------------------------------------------------------------
// incomp: two-phase rising bubble
// ---------------------------------------------------------------------------

struct BubbleScenario {
    name: &'static str,
    params: InsParams,
}

impl BubbleScenario {
    /// `(n, max_level, t_end, max_steps)` per scale.
    fn scale(&self, p: &LabParams) -> (usize, u32, f64, usize) {
        match p.scale {
            0 => (16, 2, 0.05, 40),
            1 => (32, 3, 0.15, 10_000),
            _ => (64, 3, 0.5, 100_000),
        }
    }
}

impl Scenario for BubbleScenario {
    fn name(&self) -> &'static str {
        self.name
    }

    fn regions(&self) -> &'static [&'static str] {
        &["INS/advection", "INS/diffusion"]
    }

    fn max_level(&self, params: &LabParams) -> u32 {
        self.scale(params).1
    }

    fn build(&self, params: &LabParams) -> Box<dyn Runnable> {
        let (n, max_level, t_end, max_steps) = self.scale(params);
        let ins = self.params;
        Box::new(move |session: &Session| {
            let mut sim = incomp::setup_bubble(n, max_level, ins);
            sim.run::<Tracked>(t_end, max_steps, session);
            // Interior level-set field plus integral diagnostics: the
            // level set carries the interface (Fig. 1's observable), the
            // centroid/area capture gross dynamics.
            let mut values = Vec::with_capacity(sim.grid.nx * sim.grid.ny + 3);
            for j in 0..sim.grid.ny {
                for i in 0..sim.grid.nx {
                    values.push(sim.grid.phi[sim.grid.at(i as isize, j as isize)]);
                }
            }
            let (cx, cy) = sim.centroid();
            values.push(cx);
            values.push(cy);
            values.push(sim.area());
            Observable { values }
        })
    }
}

// ---------------------------------------------------------------------------
// eos: cellular detonation (table EOS + Newton + burning)
// ---------------------------------------------------------------------------

struct CellularScenario {
    name: &'static str,
    init: CellularInit,
}

impl CellularScenario {
    /// `(root blocks, steps)` per scale.
    fn scale(&self, p: &LabParams) -> (usize, usize) {
        match p.scale {
            0 => (2, 3),
            1 => (4, 8),
            _ => (6, 16),
        }
    }
}

impl Scenario for CellularScenario {
    fn name(&self) -> &'static str {
        self.name
    }

    fn regions(&self) -> &'static [&'static str] {
        &["Eos"]
    }

    fn max_level(&self, _params: &LabParams) -> u32 {
        1 // thin unrefined domain
    }

    fn build(&self, params: &LabParams) -> Box<dyn Runnable> {
        let (blocks, steps) = self.scale(params);
        let init = self.init;
        Box::new(move |session: &Session| {
            let mut sim = eos::setup_cellular(blocks, 8, init);
            sim.run::<Tracked>(steps, session);
            // Carbon mass fraction along the midline (the burn-front
            // profile), the front position, and the Newton failure
            // fraction — the §6.1 convergence observable that collapses
            // when the EOS is truncated below ~40 bits.
            let (x0, x1, _, _) = sim.mesh.params.domain;
            let nsamp = 64;
            let mut values: Vec<f64> = (0..nsamp)
                .map(|i| {
                    let x = x0 + (x1 - x0) * (i as f64 + 0.5) / nsamp as f64;
                    amr::sample_point(&sim.mesh, eos::XCARBON, x, 0.5)
                })
                .collect();
            values.push(sim.front_position(nsamp));
            let (calls, fails, _) = sim.eos.stats();
            values.push(fails as f64 / calls.max(1) as f64);
            Observable { values }
        })
    }
}

// ---------------------------------------------------------------------------
// raptor-ir: interpreted kernels truncated by the compiler pass
// ---------------------------------------------------------------------------

#[derive(Clone, Copy)]
enum IrKind {
    /// Horner evaluation of a degree-4 polynomial; `eval` calls `poly`
    /// twice, so the pass's transitive-clone walk is exercised.
    Horner,
    /// 3-vector norm through a shared `sq` helper plus a `sqrt`.
    Norm3,
}

struct IrScenario {
    name: &'static str,
    kind: IrKind,
}

impl IrScenario {
    fn module(&self) -> (raptor_ir::Module, &'static str) {
        use raptor_ir::{BinOp, Function, Inst, Module};
        let mut m = Module::default();
        match self.kind {
            IrKind::Horner => {
                // poly(x) = (((0.3 x - 1.7) x + 2.1) x - 0.9) x + 4.2
                let mut poly = Function::build("poly", 1);
                let mut acc = poly.push(Inst::Const(0.3));
                for c in [-1.7, 2.1, -0.9, 4.2] {
                    let prod = poly.push(Inst::Bin(BinOp::FMul, acc, 0));
                    let cv = poly.push(Inst::Const(c));
                    acc = poly.push(Inst::Bin(BinOp::FAdd, prod, cv));
                }
                m.add(poly.ret(acc));
                // eval(x, y) = poly(x) / poly(y)
                let mut eval = Function::build("eval", 2);
                let px = eval.push(Inst::Call("poly".into(), vec![0]));
                let py = eval.push(Inst::Call("poly".into(), vec![1]));
                let q = eval.push(Inst::Bin(BinOp::FDiv, px, py));
                m.add(eval.ret(q));
                (m, "eval")
            }
            IrKind::Norm3 => {
                let mut sq = Function::build("sq", 1);
                let s = sq.push(Inst::Bin(BinOp::FMul, 0, 0));
                m.add(sq.ret(s));
                // norm3(x, y, z) = sqrt(x^2 + y^2 + z^2)
                let mut norm = Function::build("norm3", 3);
                let sx = norm.push(Inst::Call("sq".into(), vec![0]));
                let sy = norm.push(Inst::Call("sq".into(), vec![1]));
                let sz = norm.push(Inst::Call("sq".into(), vec![2]));
                let sxy = norm.push(Inst::Bin(BinOp::FAdd, sx, sy));
                let sum = norm.push(Inst::Bin(BinOp::FAdd, sxy, sz));
                let r = norm.push(Inst::Sqrt(sum));
                m.add(norm.ret(r));
                (m, "norm3")
            }
        }
    }

    fn inputs(&self, p: &LabParams) -> Vec<Vec<f64>> {
        let n = match p.scale {
            0 => 16,
            1 => 64,
            _ => 256,
        };
        let nargs = match self.kind {
            IrKind::Horner => 2,
            IrKind::Norm3 => 3,
        };
        // A deterministic low-discrepancy-ish input grid spanning a few
        // decades of magnitude.
        (0..n)
            .map(|i| {
                (0..nargs)
                    .map(|a| {
                        let t = (i * nargs + a) as f64 / (n * nargs) as f64;
                        (0.1 + 3.0 * t) * 10f64.powf(2.0 * t - 1.0)
                    })
                    .collect()
            })
            .collect()
    }

    fn region_name(&self) -> &'static str {
        match self.kind {
            IrKind::Horner => "IR/horner",
            IrKind::Norm3 => "IR/norm3",
        }
    }
}

impl Scenario for IrScenario {
    fn name(&self) -> &'static str {
        self.name
    }

    fn crate_name(&self) -> &'static str {
        "raptor-ir"
    }

    fn regions(&self) -> &'static [&'static str] {
        match self.kind {
            IrKind::Horner => &["IR/horner"],
            IrKind::Norm3 => &["IR/norm3"],
        }
    }

    fn max_level(&self, _params: &LabParams) -> u32 {
        1 // no mesh; the cutoff axis degenerates to on/off
    }

    fn build(&self, params: &LabParams) -> Box<dyn Runnable> {
        let (module, entry) = self.module();
        let inputs = self.inputs(params);
        let region_name = self.region_name();
        Box::new(move |session: &Session| {
            use raptor_ir::{trunc_name, truncate_functions, Interp, ScratchMode};
            // The §7.3 recipe: clones are compiled per format and selected
            // at run time. The session decides — through the same scope /
            // exclusion / cutoff resolution every other scenario uses —
            // whether this region is truncated, and to which format.
            let fmt = {
                let _g = session.install();
                let _r = region(region_name);
                if raptor_core::is_active() {
                    Some(session.config().format)
                } else {
                    None
                }
            };
            let mut m = module.clone();
            let mut it = Interp::new(&m, ScratchMode::ReusedPad);
            let callee = match fmt {
                Some(f) if f != bigfloat::Format::FP64 => {
                    truncate_functions(&mut m, &[entry], f);
                    it = Interp::new(&m, ScratchMode::ReusedPad);
                    trunc_name(entry, f)
                }
                _ => entry.to_string(),
            };
            let values = inputs.iter().map(|args| it.call(&callee, args)).collect();
            Observable { values }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::CandidateSpec;
    use std::collections::BTreeSet;

    #[test]
    fn registry_is_wide_and_unique() {
        let reg = registry();
        assert_eq!(reg.len(), 13, "the full registry: {}", reg.len());
        assert!(find("hydro/kelvin-helmholtz").is_some());
        let names: BTreeSet<_> = reg.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), reg.len(), "names unique");
        // Cache keys are `{scenario}|...`, and `shard::scenario_of` splits
        // at the first `|`: a name containing one would misfile its rows.
        for name in &names {
            assert!(!name.contains('|'), "`{name}` contains the cache key separator `|`");
        }
        let crates: BTreeSet<_> = reg.iter().map(|s| s.crate_name()).collect();
        assert!(crates.len() >= 4, "scenarios span >= 4 crates: {crates:?}");
        assert!(crates.contains("hydro") && crates.contains("incomp"));
        assert!(crates.contains("eos") && crates.contains("raptor-ir"));
        for s in &reg {
            assert!(!s.regions().is_empty(), "{} declares regions", s.name());
        }
        assert!(find("hydro/sedov").is_some());
        assert!(find("nope/nope").is_none());
    }

    #[test]
    fn ir_scenarios_deviate_under_truncation_and_match_at_passthrough() {
        let p = LabParams::mini();
        for name in ["ir/horner", "ir/norm3"] {
            let sc = find(name).unwrap();
            let base = sc.build(&p).run(&Session::passthrough());
            let again = sc.build(&p).run(&Session::passthrough());
            assert_eq!(base, again, "{name} deterministic");
            assert_eq!(sc.fidelity(&base, &base), 1.0);
            let cfg = raptor_core::Config::op_files(
                bigfloat::Format::new(11, 8),
                sc.regions().iter().copied(),
            );
            let sess = Session::new(cfg).unwrap();
            let trunc = sc.build(&p).run(&sess);
            let fid = sc.fidelity(&trunc, &base);
            assert!(fid < 1.0, "{name} deviates: {fid}");
            assert!(fid > 0.5, "{name} not garbage: {fid}");
        }
    }

    /// The bubble scenario on the batch tier (one class per step under a
    /// static candidate, one per AMR level under M-1) reproduces its
    /// per-cell loops: the observable bit for bit and the session counters
    /// exactly, on the path a study's bubble pairs take. (At mini scale the
    /// shadow mesh refines the whole grid to the finest level, so M-1 runs
    /// advection and diffusion at full precision.)
    #[test]
    fn bubble_scenario_batch_bit_identical_to_scalar() {
        let p = LabParams::mini();
        let sc = find("incomp/bubble").unwrap();
        let e11m12 = bigfloat::Format::new(11, 12);
        for spec in [CandidateSpec::op(e11m12), CandidateSpec::op(e11m12).with_cutoff(1)] {
            let cfg = spec.config(sc.as_ref(), sc.max_level(&p)).unwrap();
            let run = |force_scalar: bool| {
                let _pin = raptor_core::batch::force_scalar(force_scalar);
                let sess = Session::new(cfg.clone()).unwrap();
                let obs = sc.build(&p).run(&sess);
                (obs.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), sess.counters())
            };
            let (scalar, batch) = (run(true), run(false));
            let label = spec.label();
            assert_eq!(scalar.0, batch.0, "{label}: observable bits");
            assert_eq!(scalar.1, batch.1, "{label}: session counters");
            if spec.cutoff.is_none() {
                assert!(batch.1.trunc.total() > 0, "{label}: truncated ops counted");
            }
        }
    }

    #[test]
    fn hydro_scenario_baseline_is_deterministic_and_exact() {
        let p = LabParams::mini();
        let sc = find("hydro/sod").unwrap();
        let a = sc.build(&p).run(&Session::passthrough());
        let b = sc.build(&p).run(&Session::passthrough());
        assert_eq!(a, b);
        assert_eq!(sc.fidelity(&a, &b), 1.0);
        assert!(a.values.iter().all(|v| v.is_finite()));
    }
}
