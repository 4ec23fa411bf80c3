//! Benchmarks of the workload substrates: hydro steps (native,
//! instrumented-untruncated, truncated), AMR guard fills, the multigrid
//! Poisson solve, and the EOS Newton inversion.

use bigfloat::Format;
use raptor_bench::harness::{black_box, Harness};
use eos::TableView;
use hydro::{Problem, ReconKind};
use raptor_core::{Config, Session, Tracked};

fn bench_hydro_step(c: &mut Harness) {
    let mut g = c.benchmark_group("hydro_step");
    g.sample_size(10);
    g.bench_function("sedov_step_f64", |b| {
        let mut sim = hydro::setup(Problem::Sedov, 2, 8, ReconKind::Plm);
        let dt = hydro::compute_dt::<f64, _>(&sim.mesh, &sim.eos, &sim.hydro);
        let sess = Session::passthrough();
        b.iter(|| {
            hydro::step::<f64, _>(
                &mut sim.mesh, &sim.bc, &sim.eos, &sim.hydro, dt, 1, &sess, false,
            );
            black_box(())
        });
    });
    g.bench_function("sedov_step_tracked_untruncated", |b| {
        let mut sim = hydro::setup(Problem::Sedov, 2, 8, ReconKind::Plm);
        let dt = hydro::compute_dt::<f64, _>(&sim.mesh, &sim.eos, &sim.hydro);
        let sess = Session::passthrough();
        b.iter(|| {
            hydro::step::<Tracked, _>(
                &mut sim.mesh, &sim.bc, &sim.eos, &sim.hydro, dt, 1, &sess, false,
            );
            black_box(())
        });
    });
    g.bench_function("sedov_step_truncated_12bit", |b| {
        let mut sim = hydro::setup(Problem::Sedov, 2, 8, ReconKind::Plm);
        let dt = hydro::compute_dt::<f64, _>(&sim.mesh, &sim.eos, &sim.hydro);
        let sess = Session::new(Config::op_files(Format::new(11, 12), ["Hydro"])).unwrap();
        b.iter(|| {
            hydro::step::<Tracked, _>(
                &mut sim.mesh, &sim.bc, &sim.eos, &sim.hydro, dt, 1, &sess, false,
            );
            black_box(())
        });
    });
    g.finish();
}

fn bench_substrates(c: &mut Harness) {
    let mut g = c.benchmark_group("substrates");
    g.sample_size(10);
    g.bench_function("guard_fill", |b| {
        let mut sim = hydro::setup(Problem::Sedov, 3, 8, ReconKind::Plm);
        b.iter(|| {
            amr::fill_guards(&mut sim.mesh, &sim.bc);
            black_box(())
        });
    });
    g.bench_function("multigrid_64x64_jump1000", |b| {
        use incomp::{Field, Poisson};
        let (nx, ny) = (64, 64);
        let h = 1.0 / nx as f64;
        let mut beta = Field::zeros(nx, ny);
        let mut rhs = Field::zeros(nx, ny);
        for j in 0..ny {
            for i in 0..nx {
                let x = (i as f64 + 0.5) * h - 0.5;
                let y = (j as f64 + 0.5) * h - 0.5;
                *beta.at_mut(i, j) = if x * x + y * y < 0.04 { 1000.0 } else { 1.0 };
                *rhs.at_mut(i, j) = if y > 0.0 { 1.0 } else { -1.0 };
            }
        }
        let solver = Poisson::new(&beta, h);
        b.iter(|| {
            let mut p = Field::zeros(nx, ny);
            black_box(solver.solve(&mut p, &rhs, 1e-8, 400))
        });
    });
    g.bench_function("eos_newton_inversion", |b| {
        let tab = eos::EosTable::cellular_default();
        let e: f64 = tab.eint_of(1e6, 3.7e8);
        b.iter(|| {
            black_box(eos::invert_temperature(
                &tab,
                black_box(1e6),
                black_box(e),
                1e8,
                &eos::NewtonCfg::default(),
            ))
        });
    });
    g.finish();
}

fn main() {
    let mut c = Harness::new();
    bench_hydro_step(&mut c);
    bench_substrates(&mut c);
}
