//! Cross-crate integration tests: the paper's workflows end to end.

use raptor_rs::*;

use bigfloat::Format;
use hydro::{Problem, ReconKind, DENS};
use raptor_core::{Arith, Config, Real, Session, Tracked};

/// §3.2 + §6.1 in one breath: truncate a full application run, confirm the
/// error ladder and the op accounting are consistent.
#[test]
fn sod_truncation_ladder_end_to_end() {
    let t_end = 0.02;
    let mut reference = hydro::setup(Problem::Sod, 2, 8, ReconKind::Plm);
    reference.run::<f64>(t_end, 1000, 2, &Session::passthrough());
    let mut last_err = f64::MAX;
    for m in [6u32, 14, 30] {
        let sess = Session::new(
            Config::op_files(Format::new(11, m), ["Hydro"]).with_counting(),
        )
        .unwrap();
        let mut sim = hydro::setup(Problem::Sod, 2, 8, ReconKind::Plm);
        sim.run::<Tracked>(t_end, 1000, 2, &sess);
        let err = amr::sfocu(&sim.mesh, &reference.mesh, DENS).l1;
        assert!(err < last_err, "error ladder must descend: {err} vs {last_err} at m={m}");
        last_err = err;
        let c = sess.counters();
        assert!(c.trunc.total() > 0 && c.truncated_fraction() > 0.5);
        assert!(c.trunc_bytes > 0, "memory model fed");
    }
    assert!(last_err < 1e-6, "30-bit run close to reference: {last_err}");
}

/// The IR pass and the Tracked runtime are two views of one tool: a kernel
/// compiled through `raptor-ir` and the same kernel through `Tracked`
/// produce bit-identical truncated results.
#[test]
fn ir_pass_and_tracked_runtime_agree() {
    use raptor_ir::{truncate_all, BinOp, Function, Inst, Interp, Module, ScratchMode};
    let fmt = Format::new(11, 10);
    // Kernel: ((x + y) * x) / (y + 2)
    let mut m = Module::default();
    let mut f = Function::build("k", 2);
    let two = f.push(Inst::Const(2.0));
    let s = f.push(Inst::Bin(BinOp::FAdd, 0, 1));
    let p = f.push(Inst::Bin(BinOp::FMul, s, 0));
    let d = f.push(Inst::Bin(BinOp::FAdd, 1, two));
    let q = f.push(Inst::Bin(BinOp::FDiv, p, d));
    m.add(f.ret(q));
    truncate_all(&mut m, fmt);
    let mut interp = Interp::new(&m, ScratchMode::ReusedPad);

    let kernel = |x: Tracked, y: Tracked| ((x + y) * x) / (y + Tracked::from_f64(2.0));
    for (x, y) in [(0.3, 0.7), (12.5, -3.25), (1e-3, 1e3)] {
        let via_ir = interp.call("k", &[x, y]);
        let sess = Session::new(Config::op_all(fmt)).unwrap();
        let g = sess.install();
        let via_rt = kernel(Tracked::from_f64(x), Tracked::from_f64(y)).to_f64();
        drop(g);
        assert_eq!(via_ir.to_bits(), via_rt.to_bits(), "({x},{y})");
    }
}

/// MPI ranks + op-mode + hydro: a rank-parallel truncated pipeline is
/// deterministic and truncation-visible (§3.6).
#[test]
fn ranks_with_truncated_local_compute() {
    let results = minimpi::run(4, |comm| {
        // Each rank runs a tiny truncated stencil on its slice and reduces.
        let sess = Session::new(Config::op_all(Format::new(11, 8))).unwrap();
        let g = sess.install();
        let mut acc = Tracked::from_f64(0.0);
        for i in 0..50 {
            let x = Tracked::from_f64((comm.rank() * 50 + i) as f64 * 0.01);
            acc = acc + (x * x + Tracked::from_f64(1.0)).sqrt();
        }
        let local = acc.to_f64();
        drop(g);
        comm.allreduce_sum(&[local])[0]
    });
    assert!(results.iter().all(|&r| r == results[0]));
    // Differs from the f64 chain.
    let full: f64 = (0..200).map(|k| ((k as f64 * 0.01).powi(2) + 1.0).sqrt()).sum();
    assert!((results[0] - full).abs() > 1e-6);
    assert!((results[0] - full).abs() / full < 1e-2);
}

/// mem-mode across a real solver module: flags appear, exclusion works,
/// and the config matrix is enforced.
#[test]
fn memmode_workflow_on_hydro() {
    let fmt = Format::new(11, 10);
    let cfg = Config::mem_functions(fmt, ["Hydro"], 1e-3).with_counting();
    let sess = Session::new(cfg).unwrap();
    let mut sim = hydro::setup(Problem::Sedov, 2, 8, ReconKind::Weno5);
    sim.fixed_dt = Some(1e-4);
    sim.adapt_every = 0;
    sim.run::<Tracked>(5.0 * 1e-4, 10, 1, &sess);
    let flags = sess.mem_flags();
    assert!(!flags.is_empty(), "deviations flagged");
    assert!(flags.iter().any(|f| f.stats.flags > 0));
    // Locations point into the hydro crate.
    assert!(flags.iter().any(|f| f.loc.file.contains("hydro")));
    // Fig. 2b enforcement: mem-mode at program scope is rejected.
    let mut bad = Config::mem_functions(fmt, ["Hydro"], 1e-3);
    bad.scope = raptor_core::Scope::Program;
    assert!(Session::new(bad).is_err());
}

/// Dynamic truncation through the AMR shadow in the bubble workload:
/// cutoff reduces the truncated share without losing the interface.
#[test]
fn bubble_cutoff_reduces_truncated_share() {
    let params = incomp::InsParams::default();
    let mut fracs = Vec::new();
    for cutoff in [0u32, 2] {
        let cfg = Config::op_files(Format::new(11, 10), ["INS/advection", "INS/diffusion"])
            .with_cutoff(3, cutoff)
            .with_counting();
        let sess = Session::new(cfg).unwrap();
        let mut sim = incomp::setup_bubble(32, 3, params);
        sim.run::<Tracked>(0.05, 60, &sess);
        assert!(!sim.interface_points().is_empty());
        fracs.push(sess.counters().truncated_fraction());
    }
    assert!(
        fracs[0] > fracs[1],
        "M-0 truncates more than M-2: {fracs:?}"
    );
    assert!(fracs[0] > 0.5);
}

/// The co-design pipeline from live counters (Fig. 8 plumbing).
#[test]
fn codesign_from_live_counters() {
    let fmt = Format::FP16;
    let sess = Session::new(Config::op_files(fmt, ["Hydro"]).with_counting()).unwrap();
    let mut sim = hydro::setup(Problem::Sod, 2, 8, ReconKind::Plm);
    sim.run::<Tracked>(0.01, 200, 1, &sess);
    let c = sess.counters();
    let s = codesign::estimate_speedup(&codesign::Machine::default(), fmt, &c);
    assert!(s.compute_bound > 1.0, "truncation should predict speedup: {}", s.compute_bound);
    assert!(s.memory_bound > 1.0);
    assert!(s.compute_bound < 10.0);
}

/// Failure injection: NaN and Inf flowing through a truncated region
/// neither crash nor corrupt the session.
#[test]
fn non_finite_values_flow_through() {
    let sess = Session::new(Config::op_all(Format::new(5, 10))).unwrap();
    let _g = sess.install();
    let nan = Tracked::from_f64(f64::NAN);
    let inf = Tracked::from_f64(f64::INFINITY);
    let x = Tracked::from_f64(2.0);
    assert!((nan + x).to_f64().is_nan());
    assert!((inf * x).to_f64().is_infinite());
    assert!((x / Tracked::from_f64(0.0)).to_f64().is_infinite());
    assert!((inf - inf).to_f64().is_nan());
    // fp16 overflow inside the region.
    assert!((Tracked::from_f64(60000.0) + Tracked::from_f64(60000.0))
        .to_f64()
        .is_infinite());
}

/// Guard-cell fills remain correct when the data they move was produced by
/// truncated kernels (truncation inside the mesh machinery interplay).
#[test]
fn truncated_data_through_guard_fill() {
    let mut sim = hydro::setup(Problem::Sedov, 3, 8, ReconKind::Plm);
    let sess = Session::new(Config::op_files(Format::new(11, 6), ["Hydro"])).unwrap();
    sim.run::<Tracked>(0.01, 100, 2, &sess);
    // All guard regions finite after repeated fills of truncated data.
    for idx in sim.mesh.leaves() {
        let b = sim.mesh.block(idx);
        assert!(b.data.iter().all(|v| v.is_finite()), "non-finite data in {:?}", b.pos);
    }
}

/// Fast-path counter integrity: per-thread counters flushed by worker
/// guards under `par_leaves` lose nothing and double-count nothing — the
/// total is exactly the op count of the sequential run, at every thread
/// count, with the persistent sweep pool in play.
#[test]
fn parallel_counter_flush_is_exact() {
    use amr::{Mesh, MeshParams};

    fn run_count(threads: usize) -> (u64, u64) {
        let mut mesh = Mesh::new(MeshParams {
            nx: 8,
            ny: 8,
            ng: 2,
            nvar: 1,
            nbx: 4,
            nby: 4,
            max_level: 2,
            domain: (0.0, 1.0, 0.0, 1.0),
        });
        mesh.fill_initial(|x, y, _| 1.0 + x + y);
        let sess = Session::new(
            Config::op_functions(Format::new(11, 12), ["Kern"]).with_counting(),
        )
        .unwrap();
        // Two sweeps, like the x/y pair of a hydro step (exercises the
        // reused work buffer as well).
        for _ in 0..2 {
            amr::par_leaves(&mut mesh, threads, |_geom, block| {
                let _g = sess.install();
                let _r = raptor_core::region("Kern");
                let mut acc = Tracked::from_f64(0.0);
                for v in block.data.iter() {
                    // 2 truncated ops per cell (mul + add).
                    acc = acc + Tracked::from_f64(*v) * Tracked::from_f64(1.5);
                }
                // 1 full-precision (outside-region) op per block.
                drop(_r);
                let _ = acc + Tracked::from_f64(1.0);
            });
        }
        let c = sess.counters();
        (c.trunc.total(), c.full.total())
    }

    let (t1, f1) = run_count(1);
    assert!(t1 > 0 && f1 > 0);
    for threads in [2, 3, 4, 8] {
        let (t, f) = run_count(threads);
        assert_eq!(t, t1, "truncated ops lost/duplicated at {threads} threads");
        assert_eq!(f, f1, "full ops lost/duplicated at {threads} threads");
    }
}
