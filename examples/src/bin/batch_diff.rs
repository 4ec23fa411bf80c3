//! Batch-vs-scalar bit-identity smoke: run each batched consumer twice —
//! once with the `raptor_core::batch` column kernels enabled and once
//! with every consumer pinned to its per-op scalar path, each half under
//! a [`batch::force_scalar`] pin — then byte-compare every cell of every
//! variable and the session op counters.
//!
//! Nine consumers are exercised both ways:
//! - a tiny Sedov blast with PLM reconstruction (`plm_interface` and the
//!   rest of the sweep at `Col`),
//! - the same blast with WENO5 reconstruction (the fused five-point
//!   stencil kernel),
//! - the PLM blast truncated program-wide (`sedov-all`), so the driver's
//!   CFL timestep runs truncated on `compute_dt`'s leaf columns and feeds
//!   every later step,
//! - a Sod shock tube solved with HLL (the partitioned Riemann solver's
//!   supersonic/subsonic interface classes and the HLL middle flux),
//! - a tiny two-phase bubble step loop (fused WENO5 upwind advection,
//!   diffusion, and the row-sliced CSF curvature),
//! - the same bubble grid through level-set reinitialization pseudo-time
//!   iterations (the sign-partitioned Godunov Hamiltonian),
//! - the rising bubble through `Bubble::run`, the path the registry's
//!   bubble scenarios take: level-mapped steps, batched reinitialization
//!   and AMR shadow-mesh regrids. Without a level cutoff (`bubble-amr`)
//!   each step's advection and diffusion batch the whole interior as one
//!   class,
//! - the same run under an M-1 level cutoff (`bubble-amr-m1`), where they
//!   batch one class per AMR level, each under its own level,
//! - a tiny Cellular detonation (the hydro sweep through the tabulated
//!   Helmholtz EOS's column methods — lockstep bisection, batched Newton
//!   — and the burn's block-wide batched Newton inversions).
//!
//! Two more run under a mem-mode session (`mem_functions` over `Hydro`,
//! threshold 1e-4), where the column sweep carries FP64 shadow planes and
//! reports each op's deviations at its call site: the PLM Sedov blast
//! (`sedov-plm-mem`) and the HLL Sod tube (`sod-hll-mem`). Their lines
//! also compare the whole `Report::to_json` document.
//!
//! ```sh
//! cargo run --release -p raptor-examples --bin batch_diff
//! ```
//!
//! Each consumer runs at four formats, one line each (44 in all): e11m12
//! and e5m10 on the fast tier (e5m10's small exponent range sends many
//! chunks through the exact rounding of subnormal and overflowing
//! values), the guarded e11m20, and e11m30 on the per-element emulation
//! tier.
//!
//! Exits nonzero (and names the first differing cell) on any mismatch.
//! This is the CI gate for the batch tier's core contract: the fast path
//! is an *optimization*, never a semantic change.

use bigfloat::Format;
use eos::{setup_cellular, CellularInit};
use hydro::{setup, Problem, ReconKind, RiemannKind};
use incomp::{compute_dt, reinitialize, setup_bubble, step, Grid, InsParams};
use raptor_core::{batch, Config, Counters, Session, Tracked};

/// One tiny Sedov run (max_level=2, 3 threads, a handful of steps) under
/// a counting session of `cfg`; returns the final mesh and the session.
fn run_sedov(cfg: &Config, recon: ReconKind, force_scalar: bool) -> (amr::Mesh, Session) {
    let _pin = batch::force_scalar(force_scalar);
    let mut sim = setup(Problem::Sedov, 2, 8, recon);
    let sess = Session::new(cfg.clone()).expect("valid config");
    sim.run::<Tracked>(0.02, 12, 3, &sess);
    (sim.mesh, sess)
}

/// A Sod shock tube solved with the HLL flux under `cfg`: the tube's
/// supersonic and subsonic interface populations cover the Riemann
/// partition's classes, and the HLL middle flux (absent from the
/// default-HLLC Sedov runs) goes through its per-component batch chain.
fn run_sod_hll(cfg: &Config, force_scalar: bool) -> (amr::Mesh, Session) {
    let _pin = batch::force_scalar(force_scalar);
    let mut sim = setup(Problem::Sod, 2, 8, ReconKind::Plm);
    sim.hydro.riemann = RiemannKind::Hll;
    let sess = Session::new(cfg.clone()).expect("valid config");
    sim.run::<Tracked>(0.02, 12, 3, &sess);
    (sim.mesh, sess)
}

/// A few steps of the Cellular detonation with both the hydro sweep and
/// the EOS truncated: the sweep's pressure and sound-speed columns go
/// through `TableHelmholtz`'s column methods, and the burn's temperature
/// inversions through the batched Newton. Returns the mesh, the counters
/// and the Newton statistics `(calls, failures, mean iterations)`.
fn run_cellular(fmt: Format, force_scalar: bool) -> (amr::Mesh, Counters, (u64, u64, u64)) {
    let _pin = batch::force_scalar(force_scalar);
    let mut sim = setup_cellular(2, 8, CellularInit::default());
    let sess = Session::new(Config::op_files(fmt, ["Hydro", "Eos"]).with_counting())
        .expect("valid config");
    sim.run::<Tracked>(3, &sess);
    let (calls, fails, mean) = sim.eos.stats();
    (sim.mesh, sess.counters(), (calls, fails, mean.to_bits()))
}

/// Seeded two-phase grid shared by the bubble and reinit runs.
fn bubble_grid() -> Grid {
    let n = 24;
    let h = 2.0 / n as f64;
    let mut g = Grid::new(n, n, h, (-1.0, -1.0));
    for j in 0..n {
        for i in 0..n {
            let (x, y) = g.xy(i, j);
            let c = g.at(i as isize, j as isize);
            g.phi[c] = 0.5 - (x * x + y * y).sqrt();
            g.u[c] = 0.3 * (3.1 * x).sin() * (2.3 * y + 0.4).cos();
            g.v[c] = -0.2 * (2.7 * y).sin() * (1.9 * x - 0.2).cos();
        }
    }
    g.apply_bcs();
    g
}

/// A few steps of the incompressible solver on a tiny two-phase grid with
/// mixed-sign seeded velocities (both upwind partitions carry cells) and
/// no AMR level map (the whole interior is one batch class).
fn run_bubble(fmt: Format, force_scalar: bool) -> (Grid, Counters) {
    let _pin = batch::force_scalar(force_scalar);
    let mut g = bubble_grid();
    let params = InsParams::default();
    let sess = Session::new(Config::op_files(fmt, ["INS"]).with_counting())
        .expect("valid config");
    for _ in 0..3 {
        let dt = compute_dt(&g, &params);
        step::<Tracked>(&mut g, &params, dt, None, &sess);
    }
    (g, sess.counters())
}

/// Level-set reinitialization on the seeded bubble grid, distorted away
/// from a distance function so the pseudo-time loop does real work: the
/// sign-partitioned Godunov Hamiltonian on columns vs the per-cell
/// generic loop.
fn run_bubble_reinit(fmt: Format, force_scalar: bool) -> (Grid, Counters) {
    let _pin = batch::force_scalar(force_scalar);
    let mut g = bubble_grid();
    for v in g.phi.iter_mut() {
        *v *= 2.5;
    }
    g.apply_bcs();
    let sess = Session::new(Config::op_files(fmt, ["INS"]).with_counting())
        .expect("valid config");
    reinitialize::<Tracked>(&mut g, 12, &sess);
    (g, sess.counters())
}

/// Ten steps of the rising bubble through `Bubble::run` under `cfg`, as
/// the registry scenarios drive it: every step passes the AMR level map,
/// so advection and diffusion batch the whole interior as one class
/// without a level cutoff and one class per AMR level with one, and every
/// fifth step reinitializes the level set (batched) and regrids the
/// shadow mesh. At 32 cells across and `max_level` 2 the map holds cells
/// of levels 1 and 2, so an M-1 cutoff truncates one class and runs the
/// other at full precision.
fn run_bubble_amr(cfg: &Config, force_scalar: bool) -> (Grid, Counters) {
    let _pin = batch::force_scalar(force_scalar);
    let mut sim = setup_bubble(32, 2, InsParams::default());
    let sess = Session::new(cfg.clone()).expect("valid config");
    sim.run::<Tracked>(1.0, 10, &sess);
    (sim.grid, sess.counters())
}

/// Compare one consumer's batch and scalar runs; print the verdict line
/// CI greps for and return whether they matched.
fn report(label: &str, cell_diff: Option<String>, count_b: Counters, count_s: Counters) -> bool {
    let cells = match cell_diff {
        None => true,
        Some(diff) => {
            println!("batch-vs-scalar: MISMATCH at {label}: {diff}");
            false
        }
    };
    let counters = count_b == count_s;
    if !counters {
        println!(
            "batch-vs-scalar: COUNTER MISMATCH at {label}: batch trunc={} scalar trunc={}",
            count_b.trunc.total(),
            count_s.trunc.total()
        );
    }
    if cells && counters {
        println!(
            "batch-vs-scalar: bit-identical at {label} ({} truncated ops)",
            count_b.trunc.total()
        );
        true
    } else {
        false
    }
}

/// The first difference between two meshes' bits, or else between two
/// sessions' rendered reports.
fn mesh_or_report_diff(a: (&amr::Mesh, &Session), b: (&amr::Mesh, &Session)) -> Option<String> {
    amr::bitwise_diff(a.0, b.0).or_else(|| {
        let (ra, rb) = (a.1.report().to_json().render(), b.1.report().to_json().render());
        let line = ra.lines().zip(rb.lines()).find(|(x, y)| x != y);
        (ra != rb).then(|| format!("report differs: {line:?}"))
    })
}

/// First bitwise difference between two flow grids, if any.
fn grid_diff(a: &Grid, b: &Grid) -> Option<String> {
    for (name, fa, fb) in [("u", &a.u, &b.u), ("v", &a.v, &b.v), ("phi", &a.phi, &b.phi)] {
        for (k, (x, y)) in fa.iter().zip(fb.iter()).enumerate() {
            if x.to_bits() != y.to_bits() {
                return Some(format!("field {name} index {k}: {x:e} vs {y:e}"));
            }
        }
    }
    None
}

fn main() {
    let mut failed = false;
    println!("vector width: {}", raptor_core::batch::vector_width());
    // Four formats across the op-mode tiers: e11m12 runs the fast tier;
    // e5m10 (fp16) runs it with a small exponent range, so many chunks
    // meet subnormal and overflowing values and re-run through the exact
    // rounding; e11m20 is the guarded form, whose chunks with a result in
    // the f64 subnormal window re-run through the scalar emulation;
    // e11m30, off the double-rounding short-cut, the per-element
    // emulation tier.
    for (e, m) in [(11u32, 12u32), (5, 10), (11, 20), (11, 30)] {
        let fmt = Format::new(e, m);
        let hydro = Config::op_files(fmt, ["Hydro"]).with_counting();
        let all = Config::op_all(fmt).with_counting();
        for (name, cfg, recon) in [
            ("sedov-plm", &hydro, ReconKind::Plm),
            ("sedov-weno5", &hydro, ReconKind::Weno5),
            ("sedov-all", &all, ReconKind::Plm),
        ] {
            let (mesh_b, sess_b) = run_sedov(cfg, recon, false);
            let (mesh_s, sess_s) = run_sedov(cfg, recon, true);
            let label = format!("{name} {fmt}");
            let diff = amr::bitwise_diff(&mesh_b, &mesh_s);
            if !report(&label, diff, sess_b.counters(), sess_s.counters()) {
                failed = true;
            }
        }
        let (mesh_b, sess_b) = run_sod_hll(&hydro, false);
        let (mesh_s, sess_s) = run_sod_hll(&hydro, true);
        let label = format!("sod-hll {fmt}").to_lowercase();
        if !report(&label, amr::bitwise_diff(&mesh_b, &mesh_s), sess_b.counters(), sess_s.counters()) {
            failed = true;
        }
        let (grid_b, count_b) = run_bubble(fmt, false);
        let (grid_s, count_s) = run_bubble(fmt, true);
        let label = format!("bubble {fmt}").to_lowercase();
        if !report(&label, grid_diff(&grid_b, &grid_s), count_b, count_s) {
            failed = true;
        }
        let (grid_b, count_b) = run_bubble_reinit(fmt, false);
        let (grid_s, count_s) = run_bubble_reinit(fmt, true);
        let label = format!("bubble-reinit {fmt}").to_lowercase();
        if !report(&label, grid_diff(&grid_b, &grid_s), count_b, count_s) {
            failed = true;
        }
        let ins = Config::op_files(fmt, ["INS"]).with_counting();
        for (name, cfg) in [("bubble-amr", ins.clone()), ("bubble-amr-m1", ins.with_cutoff(2, 1))] {
            let (grid_b, count_b) = run_bubble_amr(&cfg, false);
            let (grid_s, count_s) = run_bubble_amr(&cfg, true);
            let label = format!("{name} {fmt}").to_lowercase();
            if !report(&label, grid_diff(&grid_b, &grid_s), count_b, count_s) {
                failed = true;
            }
        }
        let (mesh_b, count_b, stats_b) = run_cellular(fmt, false);
        let (mesh_s, count_s, stats_s) = run_cellular(fmt, true);
        let label = format!("cellular {fmt}").to_lowercase();
        let diff = amr::bitwise_diff(&mesh_b, &mesh_s).or_else(|| {
            (stats_b != stats_s).then(|| format!("Newton stats {stats_b:?} vs {stats_s:?}"))
        });
        if !report(&label, diff, count_b, count_s) {
            failed = true;
        }
        // Mem mode: the PLM column sweep with shadow planes.
        let mem = Config::mem_functions(fmt, ["Hydro"], 1e-4).with_counting();
        let runs: [(&str, &dyn Fn(bool) -> (amr::Mesh, Session)); 2] = [
            ("sedov-plm-mem", &|f| run_sedov(&mem, ReconKind::Plm, f)),
            ("sod-hll-mem", &|f| run_sod_hll(&mem, f)),
        ];
        for (name, run) in runs {
            let (mesh_b, sess_b) = run(false);
            let (mesh_s, sess_s) = run(true);
            let label = format!("{name} {fmt}").to_lowercase();
            let diff = mesh_or_report_diff((&mesh_b, &sess_b), (&mesh_s, &sess_s));
            if !report(&label, diff, sess_b.counters(), sess_s.counters()) {
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
