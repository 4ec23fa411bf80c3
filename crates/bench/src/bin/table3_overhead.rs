//! Table 3: RAPTOR's runtime overhead in practice.
//!
//! Sedov in op-mode with a 12-bit mantissa: wall-clock time of the
//! instrumented run against the untruncated native (f64) build, for
//! cutoffs M-0..M-3, for the naive (BigFloat-per-op) and optimised
//! (SoftFloat scratch) runtime paths, with and without full op counting,
//! plus a mem-mode row. Absolute times differ from the paper's EPYC node;
//! the *shape* — overhead tracking the truncated-op share, opt ~2-3x
//! cheaper than naive, mem-mode costliest — is the reproduction target.

use bigfloat::Format;
use hydro::{Problem, ReconKind, RiemannKind};
use raptor_core::{Config, EmulPath, Session, Tracked};
use std::time::Instant;

struct Row {
    label: String,
    trunc_frac: f64,
    seconds: f64,
    overhead: f64,
}

fn time_problem(
    problem: Problem,
    riemann: Option<RiemannKind>,
    max_level: u32,
    t_end: f64,
    recon: ReconKind,
    session: Option<&Session>,
) -> (f64, f64) {
    let mut sim = hydro::setup_with_roots(problem, max_level, 8, recon, 4);
    if let Some(r) = riemann {
        sim.hydro.riemann = r;
    }
    let t0 = Instant::now();
    match session {
        Some(s) => sim.run::<Tracked>(t_end, 100_000, 1, s),
        None => sim.run::<f64>(t_end, 100_000, 1, &Session::passthrough()),
    }
    (t0.elapsed().as_secs_f64(), sim.t)
}

fn time_run(
    max_level: u32,
    t_end: f64,
    recon: ReconKind,
    session: Option<&Session>,
) -> (f64, f64) {
    time_problem(Problem::Sedov, None, max_level, t_end, recon, session)
}

fn main() {
    let max_level = 3;
    let t_end = 0.015;
    let fmt = Format::new(11, 12);
    // Native baseline.
    let (native_s, _) = time_run(max_level, t_end, ReconKind::Plm, None);
    println!("native f64 baseline: {native_s:.3} s");
    let mut rows: Vec<Row> = Vec::new();
    for (mode_label, path, counting) in [
        ("op-mode naive", EmulPath::Big, false),
        ("op-mode opt.", EmulPath::Soft, false),
        ("op-mode naive +count", EmulPath::Big, true),
        ("op-mode opt. +count", EmulPath::Soft, true),
    ] {
        for cutoff in 0..=3u32 {
            let mut cfg = Config::op_files(fmt, ["Hydro"])
                .with_cutoff(max_level, cutoff)
                .with_path(path);
            if counting {
                cfg = cfg.with_counting();
            }
            let sess = Session::new(cfg).unwrap();
            let (secs, _) = time_run(max_level, t_end, ReconKind::Plm, Some(&sess));
            let frac = sess.counters().truncated_fraction();
            rows.push(Row {
                label: format!("{mode_label} M-{cutoff}"),
                trunc_frac: frac,
                seconds: secs,
                overhead: secs / native_s,
            });
        }
    }
    // mem-mode rows (fixed smaller problem: mem-mode is the slow path).
    for (label, excl) in [("mem-mode truncate Hydro", vec![]), ("mem-mode exclude Recon", vec!["Hydro/recon".to_string()])]
    {
        let cfg = Config::mem_functions(fmt, ["Hydro"], 1e-4)
            .with_exclude(excl)
            .with_counting();
        let sess = Session::new(cfg).unwrap();
        let (secs, _) = time_run(2, t_end * 0.5, ReconKind::Plm, Some(&sess));
        let (nat_small, _) = time_run(2, t_end * 0.5, ReconKind::Plm, None);
        rows.push(Row {
            label: label.to_string(),
            trunc_frac: sess.counters().truncated_fraction(),
            seconds: secs,
            overhead: secs / nat_small,
        });
    }
    // WENO5 reconstruction row: the division-heavy stencil routed through
    // the fused batch kernel (op-mode opt., everything truncated). Its
    // native baseline is a WENO5 f64 run of the same problem.
    {
        let (nat_weno, _) = time_run(max_level, t_end, ReconKind::Weno5, None);
        let sess = Session::new(
            Config::op_files(fmt, ["Hydro"])
                .with_cutoff(max_level, 0)
                .with_path(EmulPath::Soft),
        )
        .unwrap();
        let (secs, _) = time_run(max_level, t_end, ReconKind::Weno5, Some(&sess));
        rows.push(Row {
            label: "sedov-weno5 op-mode opt. M-0".to_string(),
            trunc_frac: sess.counters().truncated_fraction(),
            seconds: secs,
            overhead: secs / nat_weno,
        });
    }
    // Sod/HLL row: the shock tube spends its instrumented time in the
    // partitioned Riemann tier (supersonic and subsonic interface classes,
    // the HLL middle flux) — the consumer batched by the Riemann
    // partition-gather-scatter path. Own native baseline, same problem.
    {
        let (nat_sod, _) =
            time_problem(Problem::Sod, Some(RiemannKind::Hll), max_level, t_end, ReconKind::Plm, None);
        let sess = Session::new(
            Config::op_files(fmt, ["Hydro"])
                .with_cutoff(max_level, 0)
                .with_path(EmulPath::Soft),
        )
        .unwrap();
        let (secs, _) = time_problem(
            Problem::Sod,
            Some(RiemannKind::Hll),
            max_level,
            t_end,
            ReconKind::Plm,
            Some(&sess),
        );
        rows.push(Row {
            label: "sod-hll op-mode opt. M-0".to_string(),
            trunc_frac: sess.counters().truncated_fraction(),
            seconds: secs,
            overhead: secs / nat_sod,
        });
    }
    println!("== Table 3: slowdown of RAPTOR in practice (Sedov, 12-bit mantissa) ==");
    println!("{:<26} {:>10} {:>10} {:>10}", "config", "trunc %", "time (s)", "overhead x");
    for r in &rows {
        println!(
            "{:<26} {:>9.1}% {:>10.3} {:>10.1}",
            r.label,
            100.0 * r.trunc_frac,
            r.seconds,
            r.overhead
        );
    }
    println!("csv,config,trunc_frac,seconds,overhead");
    for r in &rows {
        println!("csv,{},{},{},{}", r.label, r.trunc_frac, r.seconds, r.overhead);
    }
}
