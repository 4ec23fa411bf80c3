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

/// Six single-threaded Sedov steps under `cfg` (PLM, 2x2 roots, one
/// refinement level, adapting every other step).
fn sedov(cfg: Config) -> Session {
    let sess = Session::new(cfg).unwrap();
    let mut sim = hydro::setup(Problem::Sedov, 1, 8, ReconKind::Plm);
    sim.run::<Tracked>(1.0, 6, 1, &sess);
    sess
}

#[test]
fn sedov_e11m12_report_is_golden() {
    let sess = sedov(Config::mem_functions(Format::new(11, 12), ["Hydro"], 1e-4).with_counting());
    check("e11m12", &sess, 0xe958_0618_e74c_9b95);
}

#[test]
fn sedov_fp16_report_is_golden() {
    let sess = sedov(Config::mem_functions(Format::FP16, ["Hydro"], 1e-3).with_counting());
    check("fp16", &sess, 0x9cb2_442e_7e79_f87a);
}

#[test]
fn sedov_precision_increase_report_is_golden() {
    let cfg = Config::mem_functions(Format::new(11, 12), ["Hydro"], 1e-4)
        .with_mem_precision(60)
        .with_counting();
    check("mem_precision 60", &sedov(cfg), 0xd978_1919_a42a_0e76);
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
    check("fma kernel", &sess, 0x77b1_bdef_5a00_845e);
}
