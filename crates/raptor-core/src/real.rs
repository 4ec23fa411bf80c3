//! The [`Real`] abstraction and the instrumented [`Tracked`] type.
//!
//! RAPTOR instruments LLVM IR, so C/C++/Fortran code is recompiled with FP
//! ops rewritten into runtime calls. Rust has no stable compiler-plugin
//! interface, so the reproduction inverts the mechanism: numerical kernels
//! are written once, generic over [`Real`], and instantiated either with
//! `f64` (the reference build — zero overhead, no instrumentation) or with
//! [`Tracked`] (the "instrumented build" — every operation calls into the
//! RAPTOR runtime, which decides per region/level whether to truncate).
//! The observable semantics match the paper's transformation in Fig. 4a.

use crate::ops::{self, MathFn};
use crate::counters::OpKind;
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// The arithmetic core of [`Real`]: what a straight-line kernel needs —
/// the four operators, negation and `abs`, `sqrt`, exact `min`/`max`/`minmod`
/// selections and lifted constants — and nothing that inspects a value.
/// Without `PartialOrd` a kernel cannot branch on its data, so the same
/// source also runs on whole columns at once ([`crate::batch::Col`]).
pub trait Arith:
    Copy
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
{
    /// Lift a constant. In a truncated region the constant participates in
    /// truncated arithmetic like any other operand.
    fn from_f64(x: f64) -> Self;
    /// Square root (instrumented op).
    fn sqrt(self) -> Self;
    /// Minimum (exact selection).
    fn min(self, other: Self) -> Self;
    /// Maximum (exact selection).
    fn max(self, other: Self) -> Self;
    /// Minmod of two slopes (exact selection): the one of smaller
    /// magnitude when both are nonzero with the same sign, else `+0.0`.
    fn minmod(self, other: Self) -> Self;
    /// Absolute value (exact sign operation, uncounted).
    fn abs(self) -> Self;

    /// Additive identity.
    #[inline]
    fn zero() -> Self {
        Self::from_f64(0.0)
    }
    /// Multiplicative identity.
    #[inline]
    fn one() -> Self {
        Self::from_f64(1.0)
    }
    /// Convenience: `0.5`.
    #[inline]
    fn half() -> Self {
        Self::from_f64(0.5)
    }
    /// Convenience: `2.0`.
    #[inline]
    fn two() -> Self {
        Self::from_f64(2.0)
    }
}

/// Abstract real-number type for numerical kernels: [`Arith`] plus
/// comparisons, the math library and conversion back to `f64`.
///
/// Implemented by `f64` (reference) and [`Tracked`] (instrumented).
pub trait Real:
    Arith
    + core::fmt::Debug
    + core::fmt::Display
    + Default
    + PartialEq
    + PartialOrd
    + Send
    + Sync
    + 'static
{
    /// Whether this instantiation routes through the RAPTOR runtime.
    /// `false` for the `f64` reference build, `true` for [`Tracked`].
    /// Lets kernels gate batch-call rewrites (`crate::batch`) to the
    /// instrumented build without a trait-object or feature flag — the
    /// reference build keeps its scalar loops and the constant folds away.
    const IS_TRACKED: bool = false;

    /// Lower to `f64`, resolving mem-mode handles to their truncated value.
    fn to_f64(self) -> f64;

    /// Integer power via repeated multiplication (each counted).
    fn powi(self, n: i32) -> Self;
    /// Real power (math-library call).
    fn powf(self, e: Self) -> Self;
    /// Natural exponential.
    fn exp(self) -> Self;
    /// Natural logarithm.
    fn ln(self) -> Self;
    /// Base-10 logarithm.
    fn log10(self) -> Self;
    /// Sine.
    fn sin(self) -> Self;
    /// Cosine.
    fn cos(self) -> Self;
    /// Tangent.
    fn tan(self) -> Self;
    /// Arctangent.
    fn atan(self) -> Self;
    /// Two-argument arctangent.
    fn atan2(self, x: Self) -> Self;
    /// Hyperbolic tangent.
    fn tanh(self) -> Self;
    /// Floor.
    fn floor(self) -> Self;
    /// Ceiling.
    fn ceil(self) -> Self;
    /// Fused multiply-add `self * a + b` (single instrumented op).
    fn mul_add(self, a: Self, b: Self) -> Self;
    /// Copy `sign`'s sign onto `self` (exact).
    fn copysign(self, sign: Self) -> Self;
}

impl Arith for f64 {
    #[inline]
    fn from_f64(x: f64) -> Self {
        x
    }
    #[inline]
    fn sqrt(self) -> Self {
        f64::sqrt(self)
    }
    #[inline]
    fn min(self, other: Self) -> Self {
        f64::min(self, other)
    }
    #[inline]
    fn max(self, other: Self) -> Self {
        f64::max(self, other)
    }
    #[inline]
    fn minmod(self, other: Self) -> Self {
        minmod(self, other)
    }
    #[inline]
    fn abs(self) -> Self {
        f64::abs(self)
    }
}

/// [`Arith::minmod`] of `f64` and [`Tracked`], and of each lane of a
/// [`crate::batch::Col`]. Differing signs, a zero or a NaN give `+0.0`.
#[inline]
pub(crate) fn minmod<R: Real>(a: R, b: R) -> R {
    let z = R::zero();
    if (a > z && b > z) || (a < z && b < z) {
        if a.abs() < b.abs() {
            a
        } else {
            b
        }
    } else {
        z
    }
}

impl Real for f64 {
    #[inline]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline]
    fn powi(self, n: i32) -> Self {
        f64::powi(self, n)
    }
    #[inline]
    fn powf(self, e: Self) -> Self {
        f64::powf(self, e)
    }
    #[inline]
    fn exp(self) -> Self {
        f64::exp(self)
    }
    #[inline]
    fn ln(self) -> Self {
        f64::ln(self)
    }
    #[inline]
    fn log10(self) -> Self {
        f64::log10(self)
    }
    #[inline]
    fn sin(self) -> Self {
        f64::sin(self)
    }
    #[inline]
    fn cos(self) -> Self {
        f64::cos(self)
    }
    #[inline]
    fn tan(self) -> Self {
        f64::tan(self)
    }
    #[inline]
    fn atan(self) -> Self {
        f64::atan(self)
    }
    #[inline]
    fn atan2(self, x: Self) -> Self {
        f64::atan2(self, x)
    }
    #[inline]
    fn tanh(self) -> Self {
        f64::tanh(self)
    }
    #[inline]
    fn floor(self) -> Self {
        f64::floor(self)
    }
    #[inline]
    fn ceil(self) -> Self {
        f64::ceil(self)
    }
    #[inline]
    fn mul_add(self, a: Self, b: Self) -> Self {
        f64::mul_add(self, a, b)
    }
    #[inline]
    fn copysign(self, sign: Self) -> Self {
        f64::copysign(self, sign)
    }
}

/// The instrumented floating-point carrier.
///
/// Wraps an `f64` whose payload is either a real value (op-mode and
/// untruncated execution) or a NaN-boxed mem-mode handle. Every arithmetic
/// operator calls into the RAPTOR runtime with `#[track_caller]`, so
/// mem-mode flags carry the *user's* source location, exactly like the
/// LLVM debug locations RAPTOR embeds (`LOC_A = "f.cpp:10:11"`, Fig. 4a).
#[derive(Clone, Copy, Debug, Default)]
#[repr(transparent)]
pub struct Tracked(pub f64);

impl Tracked {
    /// Wrap a raw carrier value.
    #[inline]
    pub fn new(x: f64) -> Self {
        Tracked(x)
    }

    /// The raw carrier bits (may be a mem-mode handle).
    #[inline]
    pub fn raw(self) -> f64 {
        self.0
    }

    /// mem-mode boundary conversion into the truncated region
    /// (`_raptor_pre_c`).
    #[inline]
    pub fn mem_pre(x: f64) -> Self {
        Tracked(ops::mem_pre(x))
    }

    /// mem-mode boundary conversion out of the truncated region
    /// (`_raptor_post_c`).
    #[inline]
    pub fn mem_post(self) -> f64 {
        ops::mem_post(self.0)
    }
}

impl Add for Tracked {
    type Output = Tracked;
    #[inline(always)]
    #[track_caller]
    fn add(self, rhs: Tracked) -> Tracked {
        Tracked(ops::op2(OpKind::Add, self.0, rhs.0))
    }
}

impl Sub for Tracked {
    type Output = Tracked;
    #[inline(always)]
    #[track_caller]
    fn sub(self, rhs: Tracked) -> Tracked {
        Tracked(ops::op2(OpKind::Sub, self.0, rhs.0))
    }
}

impl Mul for Tracked {
    type Output = Tracked;
    #[inline(always)]
    #[track_caller]
    fn mul(self, rhs: Tracked) -> Tracked {
        Tracked(ops::op2(OpKind::Mul, self.0, rhs.0))
    }
}

impl Div for Tracked {
    type Output = Tracked;
    #[inline(always)]
    #[track_caller]
    fn div(self, rhs: Tracked) -> Tracked {
        Tracked(ops::op2(OpKind::Div, self.0, rhs.0))
    }
}

impl Neg for Tracked {
    type Output = Tracked;
    #[inline]
    #[track_caller]
    fn neg(self) -> Tracked {
        Tracked(ops::op_sign(self.0, SignOp::Neg))
    }
}

impl AddAssign for Tracked {
    #[inline]
    #[track_caller]
    fn add_assign(&mut self, rhs: Tracked) {
        self.0 = ops::op2(OpKind::Add, self.0, rhs.0);
    }
}

impl SubAssign for Tracked {
    #[inline]
    #[track_caller]
    fn sub_assign(&mut self, rhs: Tracked) {
        self.0 = ops::op2(OpKind::Sub, self.0, rhs.0);
    }
}

impl MulAssign for Tracked {
    #[inline]
    #[track_caller]
    fn mul_assign(&mut self, rhs: Tracked) {
        self.0 = ops::op2(OpKind::Mul, self.0, rhs.0);
    }
}

impl DivAssign for Tracked {
    #[inline]
    #[track_caller]
    fn div_assign(&mut self, rhs: Tracked) {
        self.0 = ops::op2(OpKind::Div, self.0, rhs.0);
    }
}

impl PartialEq for Tracked {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        ops::resolve(self.0) == ops::resolve(other.0)
    }
}

impl PartialOrd for Tracked {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        ops::resolve(self.0).partial_cmp(&ops::resolve(other.0))
    }
}

impl core::fmt::Display for Tracked {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}", ops::resolve(self.0))
    }
}

use crate::ops::SignOp;

impl Arith for Tracked {
    #[inline(always)]
    fn from_f64(x: f64) -> Self {
        Tracked(x)
    }
    #[inline]
    #[track_caller]
    fn sqrt(self) -> Self {
        Tracked(ops::op_sqrt(self.0))
    }
    #[inline]
    fn min(self, other: Self) -> Self {
        let (a, b) = (ops::resolve(self.0), ops::resolve(other.0));
        if b < a {
            other
        } else {
            self
        }
    }
    #[inline]
    fn max(self, other: Self) -> Self {
        let (a, b) = (ops::resolve(self.0), ops::resolve(other.0));
        if b > a {
            other
        } else {
            self
        }
    }
    #[inline]
    fn minmod(self, other: Self) -> Self {
        minmod(self, other)
    }
    #[inline]
    #[track_caller]
    fn abs(self) -> Self {
        Tracked(ops::op_sign(self.0, SignOp::Abs))
    }
}

impl Real for Tracked {
    const IS_TRACKED: bool = true;

    #[inline(always)]
    fn to_f64(self) -> f64 {
        ops::resolve(self.0)
    }
    #[inline]
    #[track_caller]
    fn powi(self, n: i32) -> Self {
        // Exponentiation by repeated multiplication so each FP op is
        // individually truncated and counted (matching what compiled code
        // does for small constant powers).
        if n == 0 {
            return Tracked::from_f64(1.0);
        }
        let neg = n < 0;
        let mut k = n.unsigned_abs();
        let mut base = self;
        let mut acc: Option<Tracked> = None;
        while k > 0 {
            if k & 1 == 1 {
                acc = Some(match acc {
                    Some(a) => a * base,
                    None => base,
                });
            }
            k >>= 1;
            if k > 0 {
                base = base * base;
            }
        }
        let r = acc.expect("n != 0");
        if neg {
            Tracked::from_f64(1.0) / r
        } else {
            r
        }
    }
    #[inline]
    #[track_caller]
    fn powf(self, e: Self) -> Self {
        Tracked(ops::op_powf(self.0, e.0))
    }
    #[inline]
    #[track_caller]
    fn exp(self) -> Self {
        Tracked(ops::op_math(MathFn::Exp, self.0))
    }
    #[inline]
    #[track_caller]
    fn ln(self) -> Self {
        Tracked(ops::op_math(MathFn::Ln, self.0))
    }
    #[inline]
    #[track_caller]
    fn log10(self) -> Self {
        Tracked(ops::op_math(MathFn::Log10, self.0))
    }
    #[inline]
    #[track_caller]
    fn sin(self) -> Self {
        Tracked(ops::op_math(MathFn::Sin, self.0))
    }
    #[inline]
    #[track_caller]
    fn cos(self) -> Self {
        Tracked(ops::op_math(MathFn::Cos, self.0))
    }
    #[inline]
    #[track_caller]
    fn tan(self) -> Self {
        Tracked(ops::op_math(MathFn::Tan, self.0))
    }
    #[inline]
    #[track_caller]
    fn atan(self) -> Self {
        Tracked(ops::op_math(MathFn::Atan, self.0))
    }
    #[inline]
    #[track_caller]
    fn atan2(self, x: Self) -> Self {
        // atan2 via the math path on the resolved ratio would lose the
        // quadrant; compute natively on resolved values and re-enter the
        // runtime as a constant (counted as one math op).
        Tracked(ops::op_atan2(self.0, x.0))
    }
    #[inline]
    #[track_caller]
    fn tanh(self) -> Self {
        Tracked(ops::op_math(MathFn::Tanh, self.0))
    }
    #[inline]
    #[track_caller]
    fn floor(self) -> Self {
        Tracked(ops::op_math(MathFn::Floor, self.0))
    }
    #[inline]
    #[track_caller]
    fn ceil(self) -> Self {
        Tracked(ops::op_math(MathFn::Ceil, self.0))
    }
    #[inline]
    #[track_caller]
    fn mul_add(self, a: Self, b: Self) -> Self {
        Tracked(ops::op_fma(self.0, a.0, b.0))
    }
    #[inline]
    fn copysign(self, sign: Self) -> Self {
        let s = ops::resolve(sign.0);
        let v = self;
        if (ops::resolve(v.0) < 0.0) == (s < 0.0) {
            v
        } else {
            -v
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::context::{region, Session};
    use bigfloat::Format;

    fn poly<R: Real>(x: R) -> R {
        // Horner evaluation of 1 + x + x^2/2 + x^3/6.
        let c3 = R::from_f64(1.0 / 6.0);
        let c2 = R::half();
        let c1 = R::one();
        let c0 = R::one();
        ((c3 * x + c2) * x + c1) * x + c0
    }

    #[test]
    fn f64_and_untruncated_tracked_agree() {
        let x = 0.37;
        let a = poly::<f64>(x);
        let b = poly::<Tracked>(Tracked::from_f64(x)).to_f64();
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn truncated_tracked_differs_but_is_close() {
        let s = Session::new(Config::op_all(Format::new(11, 10))).unwrap();
        let _g = s.install();
        let x = 0.37;
        let full = poly::<f64>(x);
        let trunc = poly::<Tracked>(Tracked::from_f64(x)).to_f64();
        assert_ne!(full.to_bits(), trunc.to_bits());
        assert!((full - trunc).abs() / full < 1e-2);
    }

    #[test]
    fn powi_matches_f64_semantics_untruncated() {
        let x = Tracked::from_f64(1.7);
        assert_eq!(x.powi(0).to_f64(), 1.0);
        assert_eq!(x.powi(1).to_f64(), 1.7);
        assert_eq!(x.powi(2).to_f64(), 1.7 * 1.7);
        assert_eq!(x.powi(3).to_f64(), (1.7 * 1.7) * 1.7);
        let inv = x.powi(-2).to_f64();
        assert!((inv - 1.0 / (1.7 * 1.7)).abs() < 1e-15);
    }

    #[test]
    fn comparisons_and_minmax() {
        let a = Tracked::from_f64(1.0);
        let b = Tracked::from_f64(2.0);
        assert!(a < b);
        assert_eq!(a.min(b).to_f64(), 1.0);
        assert_eq!(a.max(b).to_f64(), 2.0);
        assert_eq!(a.abs().to_f64(), 1.0);
        assert_eq!((-a).to_f64(), -1.0);
        assert_eq!((-a).abs().to_f64(), 1.0);
        assert_eq!(a.copysign(Tracked::from_f64(-3.0)).to_f64(), -1.0);
    }

    #[test]
    fn mem_mode_region_with_tracked_sugar() {
        let cfg = Config::mem_functions(Format::new(11, 6), ["K"], 1e-10);
        let s = Session::new(cfg).unwrap();
        let _g = s.install();
        let _r = region("K");
        let x = Tracked::mem_pre(0.1);
        let y = Tracked::mem_pre(0.2);
        let z = (x + y) * x;
        let out = z.mem_post();
        let exact = (0.1 + 0.2) * 0.1;
        assert!((out - exact).abs() > 1e-12);
        assert!((out - exact).abs() < 1e-2);
        // Comparisons work on handles ((0.3)*0.1 = 0.03 < 0.1).
        assert!(z < x);
        assert!(x < y);
        assert!(!s.mem_flags().is_empty());
    }

    #[test]
    fn mem_mode_sign_ops_preserve_shadow() {
        let cfg = Config::mem_functions(Format::new(11, 6), ["K"], f64::INFINITY);
        let s = Session::new(cfg).unwrap();
        let _g = s.install();
        let _r = region("K");
        let x = Tracked::mem_pre(0.7);
        let n = -x;
        assert_eq!(n.to_f64(), -x.to_f64());
        let a = n.abs();
        assert_eq!(a.to_f64(), x.to_f64());
    }

    #[test]
    fn display_resolves_handles() {
        let t = Tracked::from_f64(2.5);
        assert_eq!(format!("{t}"), "2.5");
    }
}
