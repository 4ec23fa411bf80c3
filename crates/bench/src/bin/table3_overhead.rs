//! Table 3: RAPTOR's runtime overhead in practice.
//!
//! Sedov in op-mode with a 12-bit mantissa: wall-clock time of the
//! instrumented run against the untruncated native (f64) build of the same
//! problem, for cutoffs M-0..M-3, for the naive (BigFloat-per-op) and
//! optimised (SoftFloat scratch) runtime paths, with and without full op
//! counting, plus mem-mode, WENO5 and Sod/HLL rows. Each row is the median
//! of [`ROUNDS`] alternating instrumented/native rounds in this process,
//! printed with its min–max range (the csv carries the medians). Absolute
//! times differ from the paper's EPYC node; the *shape* — overhead
//! tracking the truncated-op share, opt ~2-3x cheaper than naive, mem-mode
//! costliest — is the reproduction target.

use bigfloat::Format;
use hydro::{Problem, ReconKind, RiemannKind};
use raptor_core::{Config, EmulPath, Session, Tracked};
use std::time::Instant;

/// Alternating instrumented/native rounds per row.
const ROUNDS: usize = 3;

/// One problem set-up: the instrumented and native runs of a row share it.
#[derive(Clone, Copy)]
struct Problem3 {
    problem: Problem,
    riemann: Option<RiemannKind>,
    max_level: u32,
    t_end: f64,
    recon: ReconKind,
}

impl Problem3 {
    fn sedov(max_level: u32, t_end: f64, recon: ReconKind) -> Problem3 {
        Problem3 { problem: Problem::Sedov, riemann: None, max_level, t_end, recon }
    }

    /// Wall seconds of one run under `session` (the native f64 build
    /// when `None`).
    fn time(&self, session: Option<&Session>) -> f64 {
        let mut sim = hydro::setup_with_roots(self.problem, self.max_level, 8, self.recon, 4);
        if let Some(r) = self.riemann {
            sim.hydro.riemann = r;
        }
        let t0 = Instant::now();
        match session {
            Some(s) => sim.run::<Tracked>(self.t_end, 100_000, 1, s),
            None => sim.run::<f64>(self.t_end, 100_000, 1, &Session::passthrough()),
        }
        t0.elapsed().as_secs_f64()
    }
}

/// Median and min–max range of a row's samples.
struct Stat {
    median: f64,
    min: f64,
    max: f64,
}

impl Stat {
    fn of(mut v: Vec<f64>) -> Stat {
        v.sort_by(f64::total_cmp);
        Stat { median: v[v.len() / 2], min: v[0], max: v[v.len() - 1] }
    }
}

struct Row {
    label: String,
    trunc_frac: f64,
    seconds: Stat,
    overhead: Stat,
}

/// [`ROUNDS`] alternating rounds of `p` under a fresh session from `cfg`
/// and natively; each round's overhead is its instrumented time over its
/// native time.
fn measure(label: &str, p: Problem3, cfg: &Config) -> Row {
    let (mut secs, mut over, mut trunc_frac) = (Vec::new(), Vec::new(), 0.0);
    for _ in 0..ROUNDS {
        let sess = Session::new(cfg.clone()).unwrap();
        let s = p.time(Some(&sess));
        let native = p.time(None);
        trunc_frac = sess.counters().truncated_fraction();
        secs.push(s);
        over.push(s / native);
    }
    Row { label: label.to_string(), trunc_frac, seconds: Stat::of(secs), overhead: Stat::of(over) }
}

fn main() {
    let max_level = 3;
    let t_end = 0.015;
    let fmt = Format::new(11, 12);
    let sedov = Problem3::sedov(max_level, t_end, ReconKind::Plm);
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
            rows.push(measure(&format!("{mode_label} M-{cutoff}"), sedov, &cfg));
        }
    }
    // mem-mode rows (fixed smaller problem: mem-mode is the slow path).
    let mem = Problem3::sedov(2, t_end * 0.5, ReconKind::Plm);
    for (label, excl) in [("mem-mode truncate Hydro", vec![]), ("mem-mode exclude Recon", vec!["Hydro/recon".to_string()])]
    {
        let cfg = Config::mem_functions(fmt, ["Hydro"], 1e-4)
            .with_exclude(excl)
            .with_counting();
        rows.push(measure(label, mem, &cfg));
    }
    let opt_m0 = Config::op_files(fmt, ["Hydro"]).with_cutoff(max_level, 0).with_path(EmulPath::Soft);
    // WENO5 reconstruction row: the division-heavy stencil routed through
    // the fused batch kernel (op-mode opt., everything truncated), against
    // a WENO5 f64 run of the same problem.
    let weno5 = Problem3::sedov(max_level, t_end, ReconKind::Weno5);
    rows.push(measure("sedov-weno5 op-mode opt. M-0", weno5, &opt_m0));
    // Sod/HLL row: the shock tube spends its instrumented time in the
    // partitioned Riemann tier (supersonic and subsonic interface classes,
    // the HLL middle flux), against its own native run.
    let sod = Problem3 { problem: Problem::Sod, riemann: Some(RiemannKind::Hll), ..sedov };
    rows.push(measure("sod-hll op-mode opt. M-0", sod, &opt_m0));
    println!("== Table 3: slowdown of RAPTOR in practice (Sedov, 12-bit mantissa) ==");
    println!("medians of {ROUNDS} alternating instrumented/native rounds, [min-max]");
    println!("vector width: {}", raptor_core::batch::vector_width());
    println!("{:<30} {:>8} {:>24} {:>22}", "config", "trunc %", "time (s)", "overhead x");
    for r in &rows {
        let (s, o) = (&r.seconds, &r.overhead);
        println!(
            "{:<30} {:>7.1}% {:>8.3} [{:.3}-{:.3}] {:>7.1} [{:.1}-{:.1}]",
            r.label,
            100.0 * r.trunc_frac,
            s.median,
            s.min,
            s.max,
            o.median,
            o.min,
            o.max
        );
    }
    println!("csv,config,trunc_frac,seconds,overhead");
    for r in &rows {
        println!("csv,{},{},{},{}", r.label, r.trunc_frac, r.seconds.median, r.overhead.median);
    }
}
