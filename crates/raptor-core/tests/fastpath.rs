//! Fast-path correctness: the optimised op-mode pipeline (decision cache +
//! innocuous-double-rounding hardware short-cut) must be bit-identical to
//! the naive BigFloat-per-op oracle, across formats, magnitudes, and
//! specials — "the fast path must not change rounding".
//!
//! No external property-test crate is available offline, so the generator
//! is a deterministic SplitMix64 stream over structured magnitude classes
//! (normals, format-subnormal range, overflow boundary, exact ties).

use bigfloat::{DoubleRound, Format, RoundMode};
use raptor_core::batch::{self, Col};
use raptor_core::{Arith, Config, EmulPath, OpKind, Real, Session, Tracked};

/// SplitMix64: deterministic, well-distributed 64-bit stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// A finite f64 whose exponent is drawn uniformly from `[emin, emax]`.
    fn f64_in_exp_range(&mut self, emin: i32, emax: i32) -> f64 {
        let frac = self.next() >> 12;
        let span = (emax - emin + 1) as u64;
        let e = emin + (self.next() % span) as i32;
        let x = (1.0 + frac as f64 * 2f64.powi(-52)) * 2f64.powi(e);
        if self.next() & 1 == 1 {
            -x
        } else {
            x
        }
    }

    /// A random-signed f64 with exponent exactly `e`, down to f64's
    /// subnormal range (where `2f64.powi(e)` would underflow to zero),
    /// rounded into `fmt`.
    fn fmt_value_at_exp(&mut self, fmt: Format, e: i32) -> f64 {
        let frac = self.next() >> 12;
        let x = f64::from_bits((((e.max(-1022) + 1023) as u64) << 52) | frac)
            * f64::from_bits(((e.min(-1022) + 2045) as u64) << 52);
        let x = if self.next() & 1 == 1 { -x } else { x };
        fmt.round_f64(x, RoundMode::NearestEven)
    }
}

fn run_op(path: EmulPath, fmt: Format, kind: OpKind, a: f64, b: f64) -> u64 {
    let sess = Session::new(Config::op_all(fmt).with_path(path)).unwrap();
    let _g = sess.install();
    canonical_bits(raptor_core::ops::op2(kind, a, b))
}

fn run_sqrt(path: EmulPath, fmt: Format, a: f64) -> u64 {
    let sess = Session::new(Config::op_all(fmt).with_path(path)).unwrap();
    let _g = sess.install();
    canonical_bits(raptor_core::ops::op_sqrt(a))
}

fn run_fma(path: EmulPath, fmt: Format, a: f64, b: f64, c: f64) -> u64 {
    let sess = Session::new(Config::op_all(fmt).with_path(path)).unwrap();
    let _g = sess.install();
    canonical_bits(raptor_core::ops::op_fma(a, b, c))
}

/// NaN payloads/signs are platform noise (x86 produces a negative quiet
/// NaN for inf-inf and 0/0); fold every NaN to the canonical bits.
fn canonical_bits(x: f64) -> u64 {
    if x.is_nan() {
        f64::NAN.to_bits()
    } else {
        x.to_bits()
    }
}

/// Differential test: optimised Soft path (with the hardware short-cut
/// where it applies) against the naive Big oracle, over random operands
/// spanning each format's normal range, its subnormal/underflow boundary,
/// and its overflow boundary.
#[test]
fn soft_path_matches_naive_oracle_randomized() {
    let formats = [
        Format::new(11, 12), // Table 3 config (short-cut applies)
        Format::new(5, 14),  // the paper's 64_to_5_14
        Format::FP16,
        Format::BF16,
        Format::FP8_E5M2,
        Format::FP8_E4M3,
        Format::new(8, 16),
        Format::new(11, 24), // guarded short-cut (p = 25, Figueroa's limit)
    ];
    let kinds = [OpKind::Add, OpKind::Sub, OpKind::Mul, OpKind::Div];
    let mut rng = Rng(0x00C0_FFEE_D15C_0DE5);
    for fmt in formats {
        let emin = fmt.emin();
        let emax = fmt.emax();
        // Magnitude classes: mid-range, underflow fringe, overflow fringe.
        // The underflow fringe stays above f64's subnormal range; the
        // window below it has its own tests.
        let classes: [(i32, i32); 3] = [
            (emin / 2, emax / 2),
            ((emin - fmt.man_bits() as i32 - 2).max(-1021), emin + 2),
            (emax - 2, emax),
        ];
        for (lo, hi) in classes {
            for _ in 0..400 {
                let a = rng.f64_in_exp_range(lo, hi);
                let b = rng.f64_in_exp_range(lo, hi);
                for kind in kinds {
                    let s = run_op(EmulPath::Soft, fmt, kind, a, b);
                    let n = run_op(EmulPath::Big, fmt, kind, a, b);
                    assert_eq!(
                        s, n,
                        "{fmt} {kind:?} {a:e} {b:e}: soft {:e} vs naive {:e}",
                        f64::from_bits(s),
                        f64::from_bits(n)
                    );
                }
                let aa = a.abs();
                let s = run_sqrt(EmulPath::Soft, fmt, aa);
                let n = run_sqrt(EmulPath::Big, fmt, aa);
                assert_eq!(s, n, "{fmt} sqrt {aa:e}");
                let c = rng.f64_in_exp_range(lo, hi);
                let s = run_fma(EmulPath::Soft, fmt, a, b, c);
                let n = run_fma(EmulPath::Big, fmt, a, b, c);
                assert_eq!(
                    s, n,
                    "{fmt} fma {a:e} {b:e} {c:e}: soft {:e} vs naive {:e}",
                    f64::from_bits(s),
                    f64::from_bits(n)
                );
            }
        }
    }
}

/// Adversarial ties: operands engineered so the exact result sits exactly
/// on or next to a format rounding boundary (the cases double rounding
/// could corrupt).
#[test]
fn soft_path_matches_naive_oracle_at_ties() {
    let fmt = Format::new(11, 12);
    let p = fmt.precision() as i32;
    let mut cases: Vec<(f64, f64)> = Vec::new();
    for e in [-30i32, -1, 0, 1, 17] {
        let big = 2f64.powi(e);
        // b at the guard-bit position and one ulp around it.
        for db in [-(p + 1), -p, -(p - 1)] {
            let tiny = 2f64.powi(e + db);
            cases.push((big, tiny));
            cases.push((big, tiny + tiny * 2f64.powi(-40)));
            cases.push((big, -tiny));
            cases.push((big + big * 2f64.powi(-(p - 1)), tiny));
        }
    }
    for (a, b) in cases {
        for kind in [OpKind::Add, OpKind::Sub, OpKind::Mul, OpKind::Div] {
            let s = run_op(EmulPath::Soft, fmt, kind, a, b);
            let n = run_op(EmulPath::Big, fmt, kind, a, b);
            assert_eq!(s, n, "{kind:?} {a:e} {b:e}");
        }
    }
    // Specials flow through identically.
    for (a, b) in [
        (f64::NAN, 1.0),
        (f64::INFINITY, -1.0),
        (f64::INFINITY, f64::NEG_INFINITY),
        (0.0, -0.0),
        (-0.0, -0.0),
        (1.0, 0.0),
    ] {
        for kind in [OpKind::Add, OpKind::Sub, OpKind::Mul, OpKind::Div] {
            let s = run_op(EmulPath::Soft, fmt, kind, a, b);
            let n = run_op(EmulPath::Big, fmt, kind, a, b);
            assert_eq!(s, n, "{kind:?} {a} {b}");
        }
    }
}

/// The ISSUE's property test: `Tracked` under a 52-bit-mantissa format,
/// forced through the SoftFloat kernels, is bit-identical to plain `f64`
/// across add/sub/mul/div/sqrt/fma — exact-op-plus-one-rounding at
/// precision 53 with f64's exponent range IS f64 arithmetic.
#[test]
fn tracked_52bit_soft_kernels_bit_identical_to_f64() {
    let fmt = Format::new(11, 52);
    let sess = Session::new(Config::op_all(fmt).with_path(EmulPath::Soft)).unwrap();
    let _g = sess.install();
    let mut rng = Rng(0x5EED_CAFE_F00D_D00D);
    let check = |a: f64, b: f64| {
        let (ta, tb) = (Tracked::from_f64(a), Tracked::from_f64(b));
        let cb = canonical_bits;
        assert_eq!(cb((ta + tb).to_f64()), cb(a + b), "add {a:e} {b:e}");
        assert_eq!(cb((ta - tb).to_f64()), cb(a - b), "sub {a:e} {b:e}");
        assert_eq!(cb((ta * tb).to_f64()), cb(a * b), "mul {a:e} {b:e}");
        assert_eq!(cb((ta / tb).to_f64()), cb(a / b), "div {a:e} {b:e}");
        let aa = a.abs();
        assert_eq!(cb(Tracked::from_f64(aa).sqrt().to_f64()), cb(aa.sqrt()), "sqrt {aa:e}");
        assert_eq!(
            cb(ta.mul_add(tb, Tracked::from_f64(0.5)).to_f64()),
            cb(a.mul_add(b, 0.5)),
            "fma {a:e} {b:e}"
        );
    };
    for _ in 0..2500 {
        let a = rng.f64_in_exp_range(-400, 400);
        let b = rng.f64_in_exp_range(-400, 400);
        check(a, b);
    }
    // Near f64's own boundaries (overflow, subnormal results).
    for _ in 0..500 {
        let a = rng.f64_in_exp_range(1000, 1023);
        let b = rng.f64_in_exp_range(1000, 1023);
        check(a, b);
        let c = rng.f64_in_exp_range(-1022, -990);
        let d = rng.f64_in_exp_range(-1022, -990);
        check(c, d);
    }
    // Specials.
    check(f64::INFINITY, 1.0);
    check(0.0, -0.0);
    check(1.0, 0.0);
}

/// Directed-rounding sign of exact zero: `x + (-x)` is `-0` under
/// round-toward-negative on every emulation path (the TZ+sticky scheme
/// must not launder the final mode's zero sign).
#[test]
fn directed_rounding_preserves_zero_sign_on_cancellation() {
    use bigfloat::RoundMode;
    let fmt = Format::new(11, 12);
    for path in [EmulPath::Soft, EmulPath::Big] {
        for (mode, want_neg) in [
            (RoundMode::Down, true),
            (RoundMode::Up, false),
            (RoundMode::TowardZero, false),
            (RoundMode::NearestEven, false),
        ] {
            let mut cfg = Config::op_all(fmt).with_path(path);
            cfg.round = mode;
            let sess = Session::new(cfg).unwrap();
            let _g = sess.install();
            let r = raptor_core::ops::op2(OpKind::Add, 1.5, -1.5);
            assert_eq!(
                r.is_sign_negative(),
                want_neg,
                "{path:?} {mode:?}: 1.5 + -1.5 gave {r:?} ({:#x})",
                r.to_bits()
            );
            let r = raptor_core::ops::op_fma(2.0, 0.75, -1.5);
            assert_eq!(
                r.is_sign_negative(),
                want_neg,
                "{path:?} {mode:?}: fma(2, 0.75, -1.5) gave {r:?}"
            );
        }
    }
}

/// The e11 formats whose short-cut is guarded ([`DoubleRound::Guarded`]),
/// all on the batch kernels' fast tier.
const GUARDED: [Format; 4] =
    [Format::new(11, 18), Format::new(11, 20), Format::new(11, 22), Format::new(11, 24)];

/// `kind` (fma when `None`) lane by lane over whole operand slices, under
/// one installed session, evaluated as `how` says.
fn eval_all(
    fmt: Format,
    how: Eval,
    kind: Option<OpKind>,
    a: &[f64],
    b: &[f64],
    c: &[f64],
) -> Vec<u64> {
    let path = if how == Eval::Big { EmulPath::Big } else { EmulPath::Soft };
    let sess = Session::new(Config::op_all(fmt).with_path(path)).unwrap();
    let _g = sess.install();
    let mut out = vec![0.0; a.len()];
    match (how, kind) {
        (Eval::Batch, Some(k)) => {
            let _cols = batch::scope(a.len());
            let (x, y) = (Col::from_slice(a), Col::from_slice(b));
            let r = match k {
                OpKind::Add => x + y,
                OpKind::Sub => x - y,
                OpKind::Mul => x * y,
                _ => x / y,
            };
            r.read(|v| out.copy_from_slice(v));
        }
        (Eval::Batch, None) => unreachable!("columns have no fma"),
        (_, Some(k)) => {
            for i in 0..a.len() {
                out[i] = raptor_core::ops::op2(k, a[i], b[i]);
            }
        }
        (_, None) => {
            for i in 0..a.len() {
                out[i] = raptor_core::ops::op_fma(a[i], b[i], c[i]);
            }
        }
    }
    out.into_iter().map(canonical_bits).collect()
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Eval {
    /// Scalar entry points, Soft path (the short-cut under test).
    Soft,
    /// `Col` operators, Soft path (binary ops only: `Arith` has no fma).
    Batch,
    /// Scalar entry points, naive BigFloat oracle.
    Big,
}

/// Soft and batch both match the Big oracle, lane by lane (fma: Soft).
fn assert_matches_oracle(
    fmt: Format,
    kind: Option<OpKind>,
    a: &[f64],
    b: &[f64],
    c: &[f64],
    what: &str,
) {
    let want = eval_all(fmt, Eval::Big, kind, a, b, c);
    let hows: &[Eval] = if kind.is_some() {
        &[Eval::Soft, Eval::Batch]
    } else {
        &[Eval::Soft]
    };
    for &how in hows {
        let got = eval_all(fmt, how, kind, a, b, c);
        for i in 0..a.len() {
            assert_eq!(
                got[i],
                want[i],
                "{fmt} {what} {kind:?} {how:?} lane {i}: a={:e} b={:e} c={:e}: \
                 {:e} vs oracle {:e}",
                a[i],
                b[i],
                c[i],
                f64::from_bits(got[i]),
                f64::from_bits(want[i])
            );
        }
    }
}

/// The guarded short-cut in the f64 subnormal window: results of mul,
/// div, add and fma on format values land in `[2^-1074, 2^-1022]`, where
/// f64 rounds to fewer than `2p + 2` bits and the guard must send them
/// to the single-rounding kernel. Scalar and batch (table-served e11m20,
/// per-element e11m18/m22/m24; fma scalar only) match the naive oracle.
#[test]
fn guarded_formats_match_naive_oracle_in_subnormal_window() {
    let mut rng = Rng(0x5B_D1E9_95A5_7E11);
    for fmt in GUARDED {
        assert_eq!(fmt.double_round(), DoubleRound::Guarded, "{fmt}");
        let n = 1500;
        let (mut ma, mut mb, mut da, mut db, mut aa, mut ab, mut fc) =
            (vec![], vec![], vec![], vec![], vec![], vec![], vec![]);
        for _ in 0..n {
            // Result exponents from the format's smallest subnormal's
            // half-ulp (and below, rounding to zero) up to 2^-1022.
            let m = fmt.man_bits();
            let t = -1024 - m as i32 + (rng.next() % (m as u64 + 3)) as i32;
            // mul: exponents summing into the window.
            let ea = -700 + (rng.next() % 350) as i32;
            ma.push(rng.fmt_value_at_exp(fmt, ea));
            mb.push(rng.fmt_value_at_exp(fmt, t - ea));
            // div: a normal dividend over a large divisor.
            let eb = 60 + (rng.next() % 240) as i32;
            da.push(rng.fmt_value_at_exp(fmt, t + eb));
            db.push(rng.fmt_value_at_exp(fmt, eb));
            // add/sub: values at the bottom of the range, signs mixed.
            for v in [&mut aa, &mut ab] {
                let e = -1042 + (rng.next() % 23) as i32;
                v.push(rng.fmt_value_at_exp(fmt, e));
            }
            // fma: a window product plus a window addend.
            let e = -1060 + (rng.next() % 39) as i32;
            fc.push(rng.fmt_value_at_exp(fmt, e));
        }
        // The hardware results (what the guard sees) mostly land in the
        // window.
        let in_window = |a: &[f64], b: &[f64], op: fn(f64, f64) -> f64| {
            a.iter().zip(b).filter(|(&x, &y)| DoubleRound::in_window(op(x, y))).count()
        };
        assert!(in_window(&ma, &mb, |x, y| x * y) > n / 2, "{fmt}: products in the window");
        assert!(in_window(&da, &db, |x, y| x / y) > n / 2, "{fmt}: quotients in the window");
        assert!(in_window(&aa, &ab, |x, y| x + y) > n / 2, "{fmt}: sums in the window");
        assert_matches_oracle(fmt, Some(OpKind::Mul), &ma, &mb, &ma, "window mul");
        assert_matches_oracle(fmt, Some(OpKind::Div), &da, &db, &da, "window div");
        assert_matches_oracle(fmt, Some(OpKind::Add), &aa, &ab, &aa, "window add");
        assert_matches_oracle(fmt, Some(OpKind::Sub), &aa, &ab, &aa, "window sub");
        assert_matches_oracle(fmt, None, &ma, &mb, &fc, "window fma");
    }
}

/// Products the unguarded short-cut gets wrong: `a = A 2^-537`,
/// `b = B 2^-538` with odd `p`-bit `A`, `B` make `ab = AB 2^-1075`, one
/// bit below f64's subnormal grid, while the format keeps the bits of
/// `AB` from `2^(53-m)` up. `AB` one unit off the format tie — `AB ≡
/// 2^(52-m) ± 1 (mod 2^(53-m))` — is an f64 tie whose even neighbour is
/// the format tie, so f64 rounds onto it, and the second rounding breaks
/// it to even: the wrong way for half of them. The pairs come from
/// `AB ≡ ±1 (mod 2^(52-m))`, half of which are such near-ties. The test
/// also shows the guard is needed: the unguarded `round(a * b)` is wrong
/// on some of them.
#[test]
fn guarded_formats_match_naive_oracle_on_window_near_ties() {
    for fmt in GUARDED {
        let (m, p) = (fmt.man_bits(), fmt.precision());
        let k = 52 - m;
        let modulus = 1u64 << k;
        let (mut a, mut b) = (Vec::new(), Vec::new());
        let mut big_a = (1u64 << (p - 1)) + 1;
        while big_a < 1u64 << p && a.len() < 256 {
            // Inverse of the odd `big_a` modulo 2^64 by Newton's iteration
            // (each step doubles the correct low bits).
            let mut inv = big_a;
            for _ in 0..6 {
                inv = inv.wrapping_mul(2u64.wrapping_sub(big_a.wrapping_mul(inv)));
            }
            for target in [1, modulus - 1] {
                let big_b = inv.wrapping_mul(target) & (modulus - 1);
                if (1u64 << (p - 1)..1u64 << p).contains(&big_b) {
                    a.push(big_a as f64 * 2f64.powi(-537));
                    b.push(big_b as f64 * 2f64.powi(-538));
                    a.push(-(big_a as f64) * 2f64.powi(-537));
                    b.push(big_b as f64 * 2f64.powi(-538));
                }
            }
            big_a += 2;
        }
        assert!(a.len() >= 8, "{fmt}: {} pairs", a.len());
        assert_matches_oracle(fmt, Some(OpKind::Mul), &a, &b, &a, "near-tie mul");
        let want = eval_all(fmt, Eval::Big, Some(OpKind::Mul), &a, &b, &a);
        let unguarded = (0..a.len())
            .filter(|&i| fmt.round_f64(a[i] * b[i], RoundMode::NearestEven).to_bits() != want[i])
            .count();
        // e11m18's 19-bit significands leave the format 3 bits of these
        // products, and its dozen pairs happen to break the right way.
        assert!(
            unguarded > 0 || fmt.man_bits() == 18,
            "{fmt}: the unguarded short-cut must be wrong on some of {} pairs",
            a.len()
        );
    }
}

/// fma needs its own guard, for every short-cut format: a product on a
/// format tie plus an addend far below it rounds onto the tie in f64,
/// and the second rounding breaks it to even, away from the exact value.
/// The Soft path re-runs those ties exactly; the unguarded short-cut is
/// wrong on some of them.
#[test]
fn fma_short_cut_matches_naive_oracle_on_ties() {
    let mut rng = Rng(0xF3A_7135_0DD5);
    // Formats with the range for an addend 2^-60 below the product.
    for fmt in [Format::new(11, 12), Format::BF16, Format::new(8, 16), Format::new(11, 20)] {
        let p = fmt.precision() as i32;
        let (mut a, mut b, mut c) = (Vec::new(), Vec::new(), Vec::new());
        for i in 1..p {
            // (1 + 2^-i)(1 + 2^(i-p)) = 1 + 2^-i + 2^(i-p) + 2^-p: its last
            // bit is the format's half ulp, so it is a tie.
            let (x, y) = (1.0 + 2f64.powi(-i), 1.0 + 2f64.powi(i - p));
            for _ in 0..4 {
                let mut scale = || 2f64.powi((rng.next() % 40) as i32 - 20);
                let (x, y) = (x * scale(), y * scale());
                let x = if rng.next() & 1 == 1 { -x } else { x };
                assert!(bigfloat::kernel::is_tie_core(x * y, fmt.exp_bits(), fmt.man_bits()));
                let tail = fmt.round_f64(x * y * 2f64.powi(-60), RoundMode::NearestEven);
                for t in [tail, -tail] {
                    a.push(x);
                    b.push(y);
                    c.push(t);
                }
            }
        }
        assert_matches_oracle(fmt, None, &a, &b, &c, "tie fma");
        let want = eval_all(fmt, Eval::Big, None, &a, &b, &c);
        let unguarded = (0..a.len())
            .filter(|&i| {
                let r = a[i].mul_add(b[i], c[i]);
                fmt.round_f64(r, RoundMode::NearestEven).to_bits() != want[i]
            })
            .count();
        assert!(unguarded > 0, "{fmt}: the unguarded fma short-cut must be wrong on some tie");
    }
}
