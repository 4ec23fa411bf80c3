//! Microbenchmark of a single `Tracked` add/mul/fma through the runtime
//! dispatch layer — the per-op cost the decision cache exists to shrink.
//!
//! Covers the matrix the ISSUE names: op-mode (naive `Big` and optimised
//! `Soft` paths), mem-mode, and counting-only (an inactive region with
//! full-op counting), plus the no-session passthrough floor — and
//! per-element rows for the `raptor_core::batch` column ops, which
//! amortize that dispatch over whole columns.
//!
//! Set `RAPTOR_BENCH_JSON=path.json` to capture the numbers; compare two
//! revisions by running each back to back on the same machine.

use bigfloat::Format;
use raptor_bench::harness::{black_box, Harness};
use raptor_core::{region, Arith, Config, EmulPath, Real, Session, Tracked};

fn bench_dispatch(c: &mut Harness) {
    let fmt = Format::new(11, 12);
    let mut g = c.benchmark_group("dispatch");

    // Floor: no session installed — a plain f64 op plus the dispatch check.
    g.bench_function("no_session_add", |b| {
        let x = Tracked::from_f64(0.1);
        let y = Tracked::from_f64(0.7);
        b.iter(|| black_box(black_box(x) + black_box(y)))
    });

    // Op-mode, optimised SoftFloat path (the Table 3 "opt." column).
    for (label, path) in [("opmode_soft", EmulPath::Soft), ("opmode_big", EmulPath::Big)] {
        let sess = Session::new(Config::op_all(fmt).with_path(path)).unwrap();
        let _g = sess.install();
        let x = Tracked::from_f64(0.1);
        let y = Tracked::from_f64(0.7);
        let z = Tracked::from_f64(1.3);
        g.bench_function(&format!("{label}_add"), |b| {
            b.iter(|| black_box(black_box(x) + black_box(y)))
        });
        g.bench_function(&format!("{label}_mul"), |b| {
            b.iter(|| black_box(black_box(x) * black_box(y)))
        });
        g.bench_function(&format!("{label}_fma"), |b| {
            b.iter(|| black_box(black_box(x).mul_add(black_box(y), black_box(z))))
        });
    }

    // Counting-only: session installed, region NOT truncated, full-op
    // counting on — the cost added to the untruncated majority of a
    // file-scoped run (the Fig. 7 "full" bars).
    {
        let sess = Session::new(
            Config::op_functions(fmt, ["NeverEntered"]).with_counting(),
        )
        .unwrap();
        let _g = sess.install();
        let x = Tracked::from_f64(0.1);
        let y = Tracked::from_f64(0.7);
        let z = Tracked::from_f64(1.3);
        g.bench_function("counting_only_add", |b| {
            b.iter(|| black_box(black_box(x) + black_box(y)))
        });
        g.bench_function("counting_only_mul", |b| {
            b.iter(|| black_box(black_box(x) * black_box(y)))
        });
        g.bench_function("counting_only_fma", |b| {
            b.iter(|| black_box(black_box(x).mul_add(black_box(y), black_box(z))))
        });
    }

    // Batch kernels: per-element cost of op-mode `Col` ops through the
    // fast tier at the CPU's vector width — one dispatch + one bulk counter add per
    // column instead of per op. Reported per element so the rows compare
    // directly against the scalar opmode_soft_* rows above. The input
    // columns live in an outer scope; each iteration runs in a scope of
    // its own, so the arena stays bounded.
    {
        use raptor_core::batch::{self, Col};
        for (flabel, bfmt) in [
            ("e11m12", Format::new(11, 12)),
            ("fp16", Format::new(5, 10)),
            ("bf16", Format::new(8, 7)),
            // The default ladder's guarded-short-cut rung.
            ("e11m20", Format::new(11, 20)),
        ] {
            let sess = Session::new(Config::op_all(bfmt)).unwrap();
            let _g = sess.install();
            for n in [64usize, 4096] {
                let _inputs = batch::scope(n);
                let ramp = |x0: f64| {
                    Col::from_slice(&(0..n).map(|i| x0 + i as f64 * 1e-3).collect::<Vec<_>>())
                };
                let (a, bv) = (ramp(0.1), ramp(0.7));
                g.bench_per_element(&format!("col_add_{flabel}_{n}"), n, |b| {
                    b.iter(|| {
                        let _iter = batch::scope(n);
                        (black_box(a) + black_box(bv)).read(|v| black_box(v[0]))
                    })
                });
            }
        }
    }

    // Math functions: per-element cost of `Col::log10`, the table EOS's
    // lookup op, on the fast tier — the `f64` library call and the
    // format's rounding per lane; fp16's range sends no lane of this ramp
    // past it.
    {
        use raptor_core::batch::{self, Col};
        for (flabel, bfmt) in [("e11m12", Format::new(11, 12)), ("fp16", Format::new(5, 10))] {
            let sess = Session::new(Config::op_all(bfmt)).unwrap();
            let _g = sess.install();
            for n in [64usize, 1024] {
                let _inputs = batch::scope(n);
                let a = Col::from_slice(&(0..n).map(|i| 0.5 + i as f64 * 0.37).collect::<Vec<_>>());
                g.bench_per_element(&format!("col_log10_{flabel}_{n}"), n, |b| {
                    b.iter(|| {
                        let _iter = batch::scope(n);
                        black_box(a).log10().read(|v| black_box(v[0]))
                    })
                });
            }
        }
    }

    // Fused WENO5 stencil kernel: 65 tracked ops per element through one
    // dispatch — what the sweep and the incomp advection pay per
    // interface. The matching scalar_weno5 rows run the per-op Tracked
    // reconstruction on the same windows: the path the fused kernel
    // retired.
    {
        use raptor_core::batch::{self, Col};
        for (flabel, bfmt) in [
            ("e11m12", Format::new(11, 12)),
            ("fp16", Format::new(5, 10)),
            ("bf16", Format::new(8, 7)),
            // The default ladder's guarded-short-cut rung.
            ("e11m20", Format::new(11, 20)),
        ] {
            let sess = Session::new(Config::op_all(bfmt)).unwrap();
            let _g = sess.install();
            for n in [64usize, 4096] {
                let w: Vec<f64> = (0..n + 4)
                    .map(|i| (i as f64 * 0.37).sin() * (1.0 + 0.2 * (i as f64 * 0.11).cos()))
                    .collect();
                let _inputs = batch::scope(n);
                let v = [0, 1, 2, 3, 4].map(|s| Col::from_slice(&w[s..s + n]));
                g.bench_per_element(&format!("col_weno5_{flabel}_{n}"), n, |b| {
                    b.iter(|| {
                        let _iter = batch::scope(n);
                        batch::weno5(black_box(v)).read(|v| black_box(v[0]))
                    })
                });
            }
            let n = 64usize;
            let w: Vec<f64> = (0..n + 4)
                .map(|i| (i as f64 * 0.37).sin() * (1.0 + 0.2 * (i as f64 * 0.11).cos()))
                .collect();
            let wt: Vec<Tracked> = w.iter().copied().map(Tracked::from_f64).collect();
            g.bench_per_element(&format!("scalar_weno5_{flabel}_{n}"), n, |b| {
                b.iter(|| {
                    let mut acc = Tracked::from_f64(0.0);
                    for i in 0..n {
                        acc = hydro::weno5(black_box([
                            wt[i],
                            wt[i + 1],
                            wt[i + 2],
                            wt[i + 3],
                            wt[i + 4],
                        ]));
                    }
                    black_box(acc)
                })
            });
        }
    }

    // Partitioned Riemann solver: per-interface cost of a whole line
    // through `riemann_flux_batch` (classification, compaction, and the
    // solver's own HLL/HLLC bodies at `Col`, one batch op per operator),
    // against the per-op scalar solver on the same states — the pair
    // behind the sod-hll overhead row.
    {
        use hydro::{riemann_flux, riemann_flux_batch, GammaLaw, Prim, RiemannKind};
        use hydro::RiemannScratch;
        use raptor_core::batch::{self, Col};
        let eos = GammaLaw { gamma: 1.4 };
        for (flabel, bfmt) in [("e11m12", Format::new(11, 12)), ("fp16", Format::new(5, 10))] {
            let sess = Session::new(Config::op_all(bfmt)).unwrap();
            let _g = sess.install();
            for n in [64usize, 1024] {
                // Mixed population: strong drifts at the ends put lanes in
                // the supersonic classes; the middle stays subsonic with
                // both contact-speed signs.
                let (mut wl, mut wr) = (Vec::new(), Vec::new());
                for i in 0..n {
                    let t = i as f64 / n as f64;
                    let drift = if t < 0.2 { 8.0 } else if t > 0.8 { -8.0 } else { t - 0.5 };
                    wl.push(Prim {
                        rho: 1.0 + 0.3 * (7.0 * t).sin(),
                        vx: drift,
                        vy: 0.2 * (5.0 * t).cos(),
                        p: 1.0 + 0.4 * (3.0 * t).cos(),
                    });
                    wr.push(Prim {
                        rho: 0.5 + 0.2 * (9.0 * t).cos(),
                        vx: drift + 0.1,
                        vy: -0.1 * (4.0 * t).sin(),
                        p: 0.6 + 0.3 * (6.0 * t).sin(),
                    });
                }
                // The input columns live in an outer scope; each iteration
                // runs in a scope of its own, so the arena stays bounded.
                let _inputs = batch::scope(n);
                let cols = |w: &[Prim<f64>]| {
                    let c = |f: fn(&Prim<f64>) -> f64| {
                        Col::from_slice(&w.iter().map(f).collect::<Vec<_>>())
                    };
                    Prim { rho: c(|w| w.rho), vx: c(|w| w.vx), vy: c(|w| w.vy), p: c(|w| w.p) }
                };
                let (cl, cr) = (cols(&wl), cols(&wr));
                let mut rs = RiemannScratch::default();
                for kind in [RiemannKind::Hll, RiemannKind::Hllc] {
                    let klabel = format!("{kind:?}").to_lowercase();
                    g.bench_per_element(
                        &format!("batch_riemann_{klabel}_{flabel}_{n}"),
                        n,
                        |b| {
                            b.iter(|| {
                                let _iter = batch::scope(n);
                                let f = riemann_flux_batch(
                                    kind,
                                    &eos,
                                    0,
                                    black_box(cl),
                                    black_box(cr),
                                    &mut rs,
                                );
                                f.rho.read(|v| black_box(v[0]))
                            })
                        },
                    );
                }
                if n == 64 {
                    let tl: Vec<Prim<Tracked>> = wl.iter().map(|w| w.map(Tracked::from_f64)).collect();
                    let tr: Vec<Prim<Tracked>> = wr.iter().map(|w| w.map(Tracked::from_f64)).collect();
                    for kind in [RiemannKind::Hll, RiemannKind::Hllc] {
                        let klabel = format!("{kind:?}").to_lowercase();
                        g.bench_per_element(
                            &format!("scalar_riemann_{klabel}_{flabel}_{n}"),
                            n,
                            |b| {
                                b.iter(|| {
                                    let mut acc = Tracked::from_f64(0.0);
                                    for i in 0..n {
                                        let f = riemann_flux(
                                            kind,
                                            black_box(tl[i]),
                                            black_box(tr[i]),
                                            &eos,
                                            0,
                                        );
                                        acc = f.rho;
                                    }
                                    black_box(acc)
                                })
                            },
                        );
                    }
                }
            }
        }
    }

    // Mem-mode: shadow-slab op (slab cleared per iteration to stay bounded).
    {
        let sess = Session::new(Config::mem_functions(fmt, ["K"], 1e-6)).unwrap();
        let _g = sess.install();
        let _r = region("K");
        let x = Tracked::from_f64(0.1);
        let y = Tracked::from_f64(0.7);
        g.bench_function("memmode_add", |b| {
            b.iter(|| {
                let h = black_box(black_box(x) + black_box(y));
                sess.mem_clear_slab();
                h
            })
        });
        // A stencil-shaped chain: every op sits on its own source line, as
        // in a real kernel, so consecutive ops never share a call site.
        g.bench_function("memmode_stencil", |b| {
            b.iter(|| {
                let a = Tracked::mem_pre(black_box(0.1));
                let c = Tracked::mem_pre(black_box(0.7));
                let d = a * c;
                let e = d + a;
                let f = e - c;
                let h = (f / d).sqrt();
                let r = black_box(h.mem_post());
                sess.mem_clear_slab();
                r
            })
        });
    }
    g.finish();
}

fn main() {
    println!("vector width: {}", raptor_core::batch::vector_width());
    let mut c = Harness::new();
    bench_dispatch(&mut c);
    let json = std::env::var("RAPTOR_BENCH_JSON").ok();
    c.write_json(json.as_deref());
}
