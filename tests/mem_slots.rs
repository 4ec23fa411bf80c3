//! Differential test of mem-mode's `f64`-backed shadow slots against the
//! `SoftFloat` reference.
//!
//! When a session's format embeds in `f64`, mem-mode stores each slot's
//! truncated value as an exact `f64` and runs add/sub/mul/div/sqrt through
//! op-mode's format arithmetic. This test pins every slot's value and
//! shadow bits to what the single-rounding `Format` kernels compute on
//! `SoftFloat` operands, across the codesign format ladder plus formats off
//! the double-rounding short-cut, every rounding mode, and operands at the
//! format's edges: subnormals, ties, signed zeros, the largest finite
//! value, overflow, NaN and infinities.

use bigfloat::{Format, RoundMode, SoftFloat};
use raptor_core::ops::{self, SignOp};
use raptor_core::{region, Config, OpKind, Session};

const MODES: [RoundMode; 5] = [
    RoundMode::NearestEven,
    RoundMode::TowardZero,
    RoundMode::Up,
    RoundMode::Down,
    RoundMode::NearestAway,
];

/// The value `pre()` stores: rounded to `prec` bits, then into the format.
fn stored(x: f64, fmt: Format, prec: u32, rm: RoundMode) -> SoftFloat {
    let s = SoftFloat::from_f64(x);
    let r = if s.is_finite() && !s.is_zero() { s.round_to_prec(prec, rm) } else { s };
    fmt.round_soft(&r, rm)
}

/// Raw inputs at the edges of `fmt`.
fn operands(fmt: Format) -> Vec<f64> {
    let p = fmt.precision() as i32;
    let (sub, min, max) = (fmt.min_subnormal(), fmt.min_normal(), fmt.max_finite());
    let ulp1 = 2f64.powi(1 - p);
    vec![
        0.0,
        -0.0,
        1.0,
        -1.5,
        0.1,
        1.0 / 3.0,
        -7.25,
        1.0 + ulp1 / 2.0, // tie, rounds to even (down)
        1.0 + 1.5 * ulp1, // tie, rounds to even (up)
        sub,
        -3.0 * sub,
        1.5 * sub, // subnormal tie
        0.5 * sub, // tie between zero and the smallest subnormal
        // Just off a subnormal tie, by less than half a p-bit ulp: rounding
        // to p bits first would land on the tie.
        2.5 * sub + sub * 2f64.powi(-p),
        2.5 * sub - sub * 2f64.powi(-p),
        min,
        -min * (1.0 - ulp1), // largest subnormal
        max,
        -max,
        max * (1.0 + ulp1 / 4.0), // rounds back to max or overflows, by mode
        -max * 2.0, // overflow
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ]
}

fn bits_eq(what: &str, got: (f64, f64), want: (f64, f64)) {
    assert!(
        got.0.to_bits() == want.0.to_bits() && got.1.to_bits() == want.1.to_bits(),
        "{what}: got (value, shadow) {got:?}, want {want:?}"
    );
}

fn check_format(fmt: Format, prec: u32, rm: RoundMode) {
    let mut cfg = Config::mem_functions(fmt, ["K"], 1e-3).with_mem_precision(prec);
    cfg.round = rm;
    let sess = Session::new(cfg).unwrap();
    let _g = sess.install();
    let _r = region("K");
    let slot = |h: f64| sess.debug_mem_slot(h).expect("a live handle");
    let xs = operands(fmt);
    for &x in &xs {
        let sx = stored(x, fmt, prec, rm);
        let hx = ops::mem_pre(x);
        let ctx = format!("{fmt} prec {prec} {rm:?} x={x:e}");
        bits_eq(&format!("pre {ctx}"), slot(hx), (sx.to_f64(), x));
        let sqrt = slot(ops::op_sqrt(hx));
        bits_eq(&format!("sqrt {ctx}"), sqrt, (fmt.sqrt(&sx, rm).to_f64(), x.sqrt()));
        let neg = slot(ops::op_sign(hx, SignOp::Neg));
        bits_eq(&format!("neg {ctx}"), neg, (sx.neg().to_f64(), -x));
        let abs = slot(ops::op_sign(hx, SignOp::Abs));
        bits_eq(&format!("abs {ctx}"), abs, (sx.abs().to_f64(), x.abs()));
        for &y in &xs {
            let sy = stored(y, fmt, prec, rm);
            let hy = ops::mem_pre(y);
            for (kind, want, shadow) in [
                (OpKind::Add, fmt.add(&sx, &sy, rm), x + y),
                (OpKind::Sub, fmt.sub(&sx, &sy, rm), x - y),
                (OpKind::Mul, fmt.mul(&sx, &sy, rm), x * y),
                (OpKind::Div, fmt.div(&sx, &sy, rm), x / y),
            ] {
                let what = format!("{kind:?} {ctx} y={y:e}");
                bits_eq(&what, slot(ops::op2(kind, hx, hy)), (want.to_f64(), shadow));
                // A raw operand is auto-promoted to the same stored value.
                let raw = slot(ops::op2(kind, x, hy));
                bits_eq(&format!("raw {what}"), raw, (want.to_f64(), shadow));
            }
        }
        sess.mem_clear_slab();
    }
}

#[test]
fn f64_slots_match_softfloat_on_the_format_ladder() {
    let mut formats = raptor_lab::campaign::format_ladder();
    // Off the double-rounding short-cut, but still inside f64.
    formats.extend([Format::new(11, 30), Format::new(11, 52), Format::new(8, 40)]);
    for fmt in formats {
        let p = fmt.precision();
        for prec in [p, p - p / 3] {
            for rm in MODES {
                check_format(fmt, prec, rm);
            }
        }
    }
}
