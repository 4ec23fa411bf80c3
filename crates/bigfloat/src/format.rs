//! IEEE-style target formats: `(exponent bits, mantissa bits)` pairs.
//!
//! A [`Format`] is the unit of configuration in RAPTOR: the flag
//! `--raptor-truncate-all=64_to_5_14` means "round every f64 operation into
//! the format with 5 exponent bits and a 14-bit mantissa". A format adds
//! IEEE exponent-range semantics (overflow to ±inf, gradual underflow with
//! subnormals) on top of the unbounded-exponent [`SoftFloat`]/
//! [`crate::BigFloat`] arithmetic, the same way `mpfr_set_emin`/`emax` +
//! `mpfr_subnormalize` do for MPFR.

use crate::round::RoundMode;
use crate::soft::{Class, SoftFloat};

/// A binary floating-point format described by its exponent and mantissa
/// widths. The significand precision is `man_bits + 1` (implicit leading 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Format {
    exp_bits: u32,
    man_bits: u32,
}

impl Format {
    /// IEEE binary64.
    pub const FP64: Format = Format { exp_bits: 11, man_bits: 52 };
    /// IEEE binary32.
    pub const FP32: Format = Format { exp_bits: 8, man_bits: 23 };
    /// IEEE binary16.
    pub const FP16: Format = Format { exp_bits: 5, man_bits: 10 };
    /// bfloat16.
    pub const BF16: Format = Format { exp_bits: 8, man_bits: 7 };
    /// FP8 E5M2 (the paper's Table 4 "fp8 (5, 2)").
    pub const FP8_E5M2: Format = Format { exp_bits: 5, man_bits: 2 };
    /// FP8 E4M3.
    pub const FP8_E4M3: Format = Format { exp_bits: 4, man_bits: 3 };

    /// Construct a format; panics on out-of-range widths.
    ///
    /// Mantissas up to 63 bits keep the [`SoftFloat`] fast path; larger
    /// mantissas are valid but must go through [`crate::BigFloat`].
    pub const fn new(exp_bits: u32, man_bits: u32) -> Self {
        assert!(exp_bits >= 2 && exp_bits <= 19, "exponent bits out of range");
        assert!(man_bits >= 1 && man_bits <= 236, "mantissa bits out of range");
        Format { exp_bits, man_bits }
    }

    /// Exponent field width in bits.
    #[inline]
    pub const fn exp_bits(&self) -> u32 {
        self.exp_bits
    }

    /// Explicit mantissa width in bits (the paper's "mantissa bits" axis).
    #[inline]
    pub const fn man_bits(&self) -> u32 {
        self.man_bits
    }

    /// Significand precision: mantissa bits plus the implicit leading 1.
    #[inline]
    pub const fn precision(&self) -> u32 {
        self.man_bits + 1
    }

    /// Exponent bias: `2^(e-1) - 1`.
    #[inline]
    pub const fn bias(&self) -> i32 {
        (1i32 << (self.exp_bits - 1)) - 1
    }

    /// Largest unbiased exponent of a finite value.
    #[inline]
    pub const fn emax(&self) -> i32 {
        self.bias()
    }

    /// Smallest unbiased exponent of a *normal* value.
    #[inline]
    pub const fn emin(&self) -> i32 {
        1 - self.bias()
    }

    /// Total storage width of the encoded format in bits (1 + e + m).
    #[inline]
    pub const fn storage_bits(&self) -> u32 {
        1 + self.exp_bits + self.man_bits
    }

    /// Storage width rounded up to whole bytes (used by the memory model).
    #[inline]
    pub const fn storage_bytes(&self) -> u32 {
        (self.storage_bits() + 7) / 8
    }

    /// Whether this format is exactly representable by hardware `f64`/`f32`
    /// (RAPTOR's "native type" fast path; also models the GPU restriction).
    #[inline]
    pub fn is_native(&self) -> bool {
        *self == Format::FP64 || *self == Format::FP32
    }

    /// How round-to-nearest-even double rounding through hardware `f64`
    /// behaves in this format for `+`, `-`, `*`, `/` and `sqrt`: whether
    /// `round_fmt(op_f64(a, b)) == round_fmt(exact op)` for format values
    /// `a`, `b`.
    ///
    /// * [`DoubleRound::Unsafe`] unless Figueroa's bound `2p + 2 <= 53`
    ///   (`precision() <= 25`) holds and the format embeds in `f64`
    ///   (`exp_bits <= 11`). Under the bound a 53-bit intermediate
    ///   rounding of a result in `f64`'s *normal* range cannot move it
    ///   across a `p`-bit rounding boundary.
    /// * [`DoubleRound::Safe`] when, in addition, every rounding decision
    ///   boundary of the format — down to half its minimum subnormal at
    ///   exponent `emin - man_bits - 1` — lies where `f64` still carries
    ///   `2p + 2` significant bits, so `f64`'s shrinking subnormal
    ///   precision near `2^-1074` cannot corrupt the underflow decisions:
    ///   `emin - man_bits >= 2p - 1072`. Every format with fewer than 11
    ///   exponent bits qualifies (fp8/fp16/bf16, `64_to_5_14`, ...), and
    ///   11-bit ones up to 16 mantissa bits (the Table 3 `e11m12`).
    /// * [`DoubleRound::Guarded`] for the rest: the full 11-bit exponent
    ///   with 17 to 24 mantissa bits (`e11m20`, ...). Their minimum normal
    ///   is `f64::MIN_POSITIVE`, so a result whose `f64` value `r` has
    ///   `|r| > f64::MIN_POSITIVE` was rounded in both formats' normal
    ///   ranges, where the bound holds; `r == 0` means the exact value is
    ///   at most `2^-1075`, which rounds to the same signed zero in the
    ///   format. Only results in [`DoubleRound::in_window`] must be
    ///   recomputed with a single rounding. `sqrt` of a format value
    ///   never lands there.
    ///
    /// fma is not covered: its exact value has no `2p`-bit bound, so a
    /// hardware result may land on a format tie from either side of it
    /// (see [`crate::kernel::is_tie_core`]). Differentially tested against
    /// the naive path, subnormal window and fma ties included, in
    /// `raptor-core/tests/fastpath.rs`.
    #[inline]
    pub const fn double_round(&self) -> DoubleRound {
        let p = self.precision() as i32;
        if p > 25 || self.exp_bits > 11 {
            DoubleRound::Unsafe
        } else if self.emin() - self.man_bits as i32 >= 2 * p - 1072 {
            DoubleRound::Safe
        } else {
            DoubleRound::Guarded
        }
    }

    /// Largest finite value of this format.
    pub fn max_finite(&self) -> f64 {
        let p = self.precision();
        // (2 - 2^-m) * 2^emax
        let frac = 2.0 - (0.5f64).powi(p as i32 - 1);
        frac * 2f64.powi(self.emax())
    }

    /// Smallest positive normal value: `2^emin`.
    pub fn min_normal(&self) -> f64 {
        2f64.powi(self.emin())
    }

    /// Smallest positive subnormal value: `2^(emin - m)`.
    ///
    /// Scaled down from `min_normal()` rather than formed as one `powi`:
    /// `powi` with a negative exponent divides by `2^-(emin - m)`, which
    /// overflows to infinity (and the result to 0) below `2^-1023`.
    pub fn min_subnormal(&self) -> f64 {
        self.min_normal() * 0.5f64.powi(self.man_bits as i32)
    }

    // ------------------------------------------------------------------
    // Rounding into the format
    // ------------------------------------------------------------------

    /// Round an exact [`SoftFloat`] value into this format: precision,
    /// overflow, and gradual underflow.
    ///
    /// Requires `precision() <= 64` (use [`crate::BigFloat`] otherwise).
    #[inline]
    pub fn round_soft(&self, x: &SoftFloat, mode: RoundMode) -> SoftFloat {
        self.round_soft_sticky(x, false, mode)
    }

    /// Like [`Format::round_soft`], but treats `x` as the truncation-toward-
    /// zero of a longer exact value whose discarded tail is summarized by
    /// `sticky`. This is the single-rounding back end for the format-level
    /// arithmetic ops below.
    #[inline]
    pub fn round_soft_sticky(&self, x: &SoftFloat, sticky: bool, mode: RoundMode) -> SoftFloat {
        let p = self.precision();
        assert!(p <= 64, "format precision exceeds SoftFloat capacity");
        if x.class() != Class::Normal {
            return *x;
        }
        let emin = self.emin();
        let emax = self.emax();
        let exp = x.exponent();
        let min_sub_exp = emin - self.man_bits as i32;
        let rounded = if exp >= emin {
            x.round_to_prec_sticky(p, sticky, mode)
        } else {
            // Subnormal range: fewer effective significand bits.
            let eff = p as i64 - (emin as i64 - exp as i64);
            if eff >= 1 {
                x.round_to_prec_sticky(eff as u32, sticky, mode)
            } else {
                // Below (or at the boundary of) the minimum subnormal's
                // half-ulp: round between 0 and min_subnormal.
                return self.round_tiny(x, sticky, mode, min_sub_exp);
            }
        };
        // Rounding may carry upward, possibly back into the normal range or
        // past emax.
        if rounded.class() == Class::Normal && rounded.exponent() > emax {
            return self.overflow(x.sign(), mode);
        }
        rounded
    }

    // ------------------------------------------------------------------
    // Format-level arithmetic: exact op + ONE rounding into the format.
    // This is IEEE-754 "arithmetic in the target format", free of the
    // double-rounding hazard of op-at-precision followed by format
    // conversion. Requires precision() <= 62 (every non-native format in
    // the paper qualifies; FP64/FP32 take the hardware path upstream).
    // ------------------------------------------------------------------

    /// `a + b`, correctly rounded once into this format.
    #[inline]
    pub fn add(&self, a: &SoftFloat, b: &SoftFloat, mode: RoundMode) -> SoftFloat {
        assert!(self.precision() <= 62, "format add requires precision <= 62");
        let (t, ix) = a.add_rz64(b);
        if t.is_zero() && !ix {
            // Exact cancellation: the zero's sign depends on the *final*
            // rounding direction (x + -x is -0 under Down), which the
            // toward-zero intermediate cannot know. Redo the (cheap,
            // exact-zero) add under the real mode.
            return a.add(b, 1, mode);
        }
        self.round_soft_sticky(&t, ix, mode)
    }

    /// `a - b`, correctly rounded once into this format.
    #[inline]
    pub fn sub(&self, a: &SoftFloat, b: &SoftFloat, mode: RoundMode) -> SoftFloat {
        assert!(self.precision() <= 62, "format sub requires precision <= 62");
        let (t, ix) = a.sub_rz64(b);
        if t.is_zero() && !ix {
            return a.sub(b, 1, mode);
        }
        self.round_soft_sticky(&t, ix, mode)
    }

    /// `a * b`, correctly rounded once into this format.
    #[inline]
    pub fn mul(&self, a: &SoftFloat, b: &SoftFloat, mode: RoundMode) -> SoftFloat {
        assert!(self.precision() <= 62, "format mul requires precision <= 62");
        let (t, ix) = a.mul_rz64(b);
        self.round_soft_sticky(&t, ix, mode)
    }

    /// `a / b`, correctly rounded once into this format.
    #[inline]
    pub fn div(&self, a: &SoftFloat, b: &SoftFloat, mode: RoundMode) -> SoftFloat {
        assert!(self.precision() <= 62, "format div requires precision <= 62");
        let (t, ix) = a.div_rz64(b);
        self.round_soft_sticky(&t, ix, mode)
    }

    /// `sqrt(a)`, correctly rounded once into this format.
    #[inline]
    pub fn sqrt(&self, a: &SoftFloat, mode: RoundMode) -> SoftFloat {
        assert!(self.precision() <= 61, "format sqrt requires precision <= 61");
        let (t, ix) = a.sqrt_rz63();
        self.round_soft_sticky(&t, ix, mode)
    }

    fn round_tiny(&self, x: &SoftFloat, sticky: bool, mode: RoundMode, min_sub_exp: i32) -> SoftFloat {
        // |x| < 2^min_sub_exp. The rounding boundary for nearest modes is
        // half the minimum subnormal: 2^(min_sub_exp - 1).
        let sign = x.sign();
        let zero = if sign { SoftFloat::neg_zero() } else { SoftFloat::zero() };
        let minsub = SoftFloat::from_parts(sign, min_sub_exp, 1 << 63);
        let half_exp = min_sub_exp - 1;
        let above_half = x.exponent() > half_exp
            || (x.exponent() == half_exp && (x.significand() > 1 << 63 || sticky));
        let exactly_half = x.exponent() == half_exp && x.significand() == 1 << 63 && !sticky;
        match mode {
            RoundMode::NearestEven => {
                if above_half {
                    minsub
                } else {
                    // ties (and below): zero is "even".
                    let _ = exactly_half;
                    zero
                }
            }
            RoundMode::NearestAway => {
                if above_half || exactly_half {
                    minsub
                } else {
                    zero
                }
            }
            RoundMode::TowardZero => zero,
            RoundMode::Up => {
                if sign {
                    zero
                } else {
                    minsub
                }
            }
            RoundMode::Down => {
                if sign {
                    minsub
                } else {
                    zero
                }
            }
        }
    }

    fn overflow(&self, sign: bool, mode: RoundMode) -> SoftFloat {
        let p = self.precision();
        let max_sig = if p == 64 { u64::MAX } else { ((1u64 << p) - 1) << (64 - p) };
        let maxfin = SoftFloat::from_parts(sign, self.emax(), max_sig);
        let inf = SoftFloat::infinity(sign);
        match mode {
            RoundMode::NearestEven | RoundMode::NearestAway => inf,
            RoundMode::TowardZero => maxfin,
            RoundMode::Up => {
                if sign {
                    maxfin
                } else {
                    inf
                }
            }
            RoundMode::Down => {
                if sign {
                    inf
                } else {
                    maxfin
                }
            }
        }
    }

    /// Round an `f64` into this format, returning the result as `f64`.
    ///
    /// This is *the* truncation primitive of RAPTOR's op-mode: a value that
    /// crosses the runtime boundary is squeezed into `(e, m)` and widened
    /// back. Requires `man_bits <= 52` and `exp_bits <= 11` so the result is
    /// representable in `f64`.
    #[inline]
    pub fn round_f64(&self, x: f64, mode: RoundMode) -> f64 {
        assert!(self.man_bits <= 52 && self.exp_bits <= 11);
        if *self == Format::FP64 {
            return x;
        }
        if !x.is_finite() {
            return x;
        }
        if mode == RoundMode::NearestEven {
            return self.round_f64_rne_fast(x);
        }
        self.round_soft(&SoftFloat::from_f64(x), mode).to_f64()
    }

    /// Bit-twiddled round-to-nearest-even path (the common case in the
    /// RAPTOR runtime). The algorithm lives in [`crate::kernel`] so the
    /// batch emulation kernels round with the same core;
    /// differential-tested against the `SoftFloat` path there and in
    /// `raptor-core/tests/fastpath.rs`.
    #[inline]
    fn round_f64_rne_fast(&self, x: f64) -> f64 {
        crate::kernel::round_rne_core(x, self.exp_bits, self.man_bits)
    }
}

/// A format's class under [`Format::double_round`]: whether rounding a
/// hardware `f64` result into the format gives the correctly rounded
/// result of the exact operation at round-to-nearest-even.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DoubleRound {
    /// Not in general: the format needs its own single-rounding arithmetic.
    Unsafe,
    /// For every result.
    Safe,
    /// For every result outside [`DoubleRound::in_window`].
    Guarded,
}

impl DoubleRound {
    /// The `f64` results a [`DoubleRound::Guarded`] format must not
    /// double-round: nonzero with `|r| <= f64::MIN_POSITIVE`, where the
    /// exact value may have been rounded at `f64`'s subnormal precision.
    #[inline(always)]
    pub fn in_window(r: f64) -> bool {
        r != 0.0 && r.abs() <= f64::MIN_POSITIVE
    }
}

impl core::fmt::Display for Format {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "e{}m{}", self.exp_bits, self.man_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_expected_ranges() {
        assert_eq!(Format::FP64.precision(), 53);
        assert_eq!(Format::FP64.emax(), 1023);
        assert_eq!(Format::FP64.emin(), -1022);
        assert_eq!(Format::FP32.bias(), 127);
        assert_eq!(Format::FP16.emax(), 15);
        assert_eq!(Format::FP16.emin(), -14);
        assert_eq!(Format::FP16.max_finite(), 65504.0);
        assert_eq!(Format::FP16.min_normal(), 6.103515625e-05);
        assert_eq!(Format::FP16.min_subnormal(), 5.960464477539063e-08);
        // e11 subnormals sit below 2^-1023, where a single `powi` gives 0.
        let e11m12 = std::hint::black_box(Format::new(11, 12));
        assert_eq!(e11m12.min_subnormal(), f64::from_bits(1 << 40), "2^-1034");
        assert_eq!(Format::FP64.min_subnormal(), f64::from_bits(1), "2^-1074");
    }

    #[test]
    fn fp32_round_matches_hardware_cast() {
        let vals = [
            0.1f64, 1.0, -2.5, 3.4e38, -3.4e38, 1e-40, 6.1e-5, 65504.5,
            1.0000001, std::f64::consts::PI, 1e308, -1e308, 2.3509887e-38,
        ];
        for &v in &vals {
            let ours = Format::FP32.round_f64(v, RoundMode::NearestEven);
            let hw = v as f32 as f64;
            assert_eq!(ours.to_bits(), hw.to_bits(), "fp32 rounding of {v}");
        }
    }

    #[test]
    fn fp32_round_matches_hardware_cast_random() {
        // Deterministic pseudo-random sweep including subnormals.
        let mut state = 0x9E3779B97F4A7C15u64;
        for _ in 0..20000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let bits = state;
            let v = f64::from_bits(bits);
            if !v.is_finite() {
                continue;
            }
            let ours = Format::FP32.round_f64(v, RoundMode::NearestEven);
            let hw = v as f32 as f64;
            assert_eq!(ours.to_bits(), hw.to_bits(), "fp32 rounding of {v:e} ({bits:#x})");
        }
    }

    #[test]
    fn fp16_overflow_and_subnormals() {
        let f = Format::FP16;
        assert_eq!(f.round_f64(70000.0, RoundMode::NearestEven), f64::INFINITY);
        assert_eq!(f.round_f64(-70000.0, RoundMode::NearestEven), f64::NEG_INFINITY);
        assert_eq!(f.round_f64(65504.0, RoundMode::NearestEven), 65504.0);
        // Just above max finite but below the rounding boundary stays finite.
        assert_eq!(f.round_f64(65519.0, RoundMode::NearestEven), 65504.0);
        assert_eq!(f.round_f64(65520.0, RoundMode::NearestEven), f64::INFINITY);
        // Subnormal: min_subnormal/2 ties to even -> 0.
        let ms = f.min_subnormal();
        assert_eq!(f.round_f64(ms, RoundMode::NearestEven), ms);
        assert_eq!(f.round_f64(ms / 2.0, RoundMode::NearestEven), 0.0);
        assert_eq!(f.round_f64(ms * 0.75, RoundMode::NearestEven), ms);
        // Directed modes at the tiny boundary.
        assert_eq!(f.round_f64(ms / 4.0, RoundMode::Up), ms);
        assert_eq!(f.round_f64(-ms / 4.0, RoundMode::Up), -0.0);
        assert_eq!(f.round_f64(-ms / 4.0, RoundMode::Down), -ms);
    }

    #[test]
    fn toward_zero_is_truncation() {
        let f = Format::new(8, 4);
        let x = 1.999;
        let r = f.round_f64(x, RoundMode::TowardZero);
        assert!(r <= x && r >= x - x * 0.07);
        assert_eq!(f.round_f64(1e30, RoundMode::TowardZero), f.round_f64(1e30, RoundMode::TowardZero));
    }

    #[test]
    fn fp64_is_identity() {
        for &v in &[1.0, 0.1, f64::MAX, f64::MIN_POSITIVE, 1e-310] {
            assert_eq!(Format::FP64.round_f64(v, RoundMode::NearestEven), v);
        }
    }

    #[test]
    fn storage_sizes() {
        assert_eq!(Format::FP64.storage_bits(), 64);
        assert_eq!(Format::FP64.storage_bytes(), 8);
        assert_eq!(Format::FP32.storage_bytes(), 4);
        assert_eq!(Format::FP16.storage_bytes(), 2);
        assert_eq!(Format::FP8_E5M2.storage_bytes(), 1);
        assert_eq!(Format::new(5, 14).storage_bytes(), 3); // the paper's 64_to_5_14
    }

    #[test]
    fn nan_and_inf_pass_through() {
        let f = Format::FP16;
        assert!(f.round_f64(f64::NAN, RoundMode::NearestEven).is_nan());
        assert_eq!(f.round_f64(f64::INFINITY, RoundMode::NearestEven), f64::INFINITY);
        assert_eq!(f.round_f64(f64::NEG_INFINITY, RoundMode::Up), f64::NEG_INFINITY);
        assert_eq!(f.round_f64(0.0, RoundMode::NearestEven).to_bits(), 0u64);
        assert_eq!(f.round_f64(-0.0, RoundMode::NearestEven).to_bits(), (-0.0f64).to_bits());
    }
}
