//! Golden mem-mode reports: the full `Report::to_json` of short Sedov
//! mem-mode runs, pinned by a digest of the rendered document.
//!
//! The digest covers every flag row (ops, flag count and the exact bits
//! of `max_dev`/`sum_dev`), the warnings and the counters, so any drift
//! in shadow-slot arithmetic, deviation accounting or flag aggregation
//! fails here. The configurations span the mem-mode storage paths:
//! clamped e11m12 (the Table-3 row) and fp16, a precision-increase run
//! (`with_mem_precision(60)`, unclamped 60-bit slots), and a kernel whose
//! `mul_add` results feed later ops through the limb path.
//!
//! The expected digests were rendered from the reference implementation;
//! there is no bless switch. On a mismatch the test prints the document.

use bigfloat::Format;
use hydro::{Problem, ReconKind};
use raptor_core::{region, Arith, Config, Real, Session, Tracked};

/// 64-bit FNV-1a over the rendered report.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

fn check(name: &str, sess: &Session, want: u64) {
    let doc = sess.report().to_json().render();
    let got = fnv1a(&doc);
    assert_eq!(got, want, "{name}: report digest {got:#018x} != {want:#018x}; report:\n{doc}");
}
/// Six Sedov steps under `cfg` on `threads` workers (PLM, 2x2 roots,
/// one refinement level, adapting every other step).
fn sedov(cfg: &Config, threads: usize) -> Session {
    let sess = Session::new(cfg.clone()).unwrap();
    let mut sim = hydro::setup(Problem::Sedov, 1, 8, ReconKind::Plm);
    sim.run::<Tracked>(1.0, 6, threads, &sess);
    sess
}

/// The Sedov report under `cfg` is the golden one at 1, 2 and 4 worker
/// threads. `sum_dev` is an exact sum, rounded once, so neither the
/// thread a block ran on nor the order in which the threads' statistics
/// merge may show in the report. (The fma kernel below stays on the
/// lines its golden names.)
fn check_sedov(name: &str, cfg: Config, want: u64) {
    for threads in [1, 2, 4] {
        check(&format!("{name}, {threads} threads"), &sedov(&cfg, threads), want);
    }
}

/// The Table-3 row's configuration, as the `sedov-mem` benchmark runs
/// it: e11m12 storage, `Hydro` scope, threshold 1e-4, on `Fmt` slots
/// (the storage precision is the format's), like the fp16 run below and
/// unlike the precision-increase run.
#[test]
fn sedov_e11m12_report_is_golden() {
    let cfg = Config::mem_functions(Format::new(11, 12), ["Hydro"], 1e-4).with_counting();
    check_sedov("e11m12", cfg, 0x336d_6b27_0f35_d7f2);
}

/// Horner evaluation through `mul_add`, then ordinary ops and a sqrt on
/// the fused results, across a range of magnitudes.
#[test]
fn fma_kernel_report_is_golden() {
    let sess = Session::new(
        Config::mem_functions(Format::new(11, 12), ["Kern"], 1e-5).with_counting(),
    )
    .unwrap();
    let guard = sess.install();
    let r = region("Kern");
    for i in 0..40 {
        let coef = [0.3, -1.7, 2.25, 0.1, -0.55].map(Tracked::mem_pre);
        let x = Tracked::mem_pre(0.05 + 0.37 * i as f64 - 3.0);
        let mut p = coef[0];
        for &c in &coef[1..] {
            p = p.mul_add(x, c);
        }
        let q = (p * p + x).abs().sqrt() / (x - Tracked::from_f64(0.125));
        let _ = q.mem_post();
        sess.mem_clear_slab();
    }
    drop(r);
    drop(guard);
    check("fma kernel", &sess, 0x16d2_8053_e90f_3f5c);
}

#[test]
fn sedov_fp16_report_is_golden() {
    let cfg = Config::mem_functions(Format::FP16, ["Hydro"], 1e-3).with_counting();
    check_sedov("fp16", cfg, 0x21f6_7ce3_baa7_7191);
}

#[test]
fn sedov_precision_increase_report_is_golden() {
    let cfg = Config::mem_functions(Format::new(11, 12), ["Hydro"], 1e-4)
        .with_mem_precision(60)
        .with_counting();
    check_sedov("mem_precision 60", cfg, 0x93cd_1230_c23a_0f3c);
}
