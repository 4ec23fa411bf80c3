//! Shared round-to-nearest-even cores for the batch emulation kernels.
//!
//! [`Format::round_f64`](crate::Format::round_f64) and the batch kernel
//! layer in `raptor-core` share [`round_rne_core`]: the `Format` path
//! passes its fields, and the batch tier's precise re-run passes the
//! widths of the op's format. (The batch tier's fast loop rounds with
//! its own branchless add-half-and-truncate, and defers every case that
//! trick cannot serve to this core.) One algorithm, one set of
//! differential tests, bit-identical results by construction.

/// Round a finite or non-finite `f64` to nearest-even in the format
/// `(exp_bits, man_bits)`, returning the result widened back to `f64`.
///
/// Semantics match `Format::round_f64(x, RoundMode::NearestEven)` exactly:
/// non-finite values pass through, overflow goes to signed infinity, and
/// underflow is gradual down to the format's minimum subnormal. Requires
/// `man_bits <= 52` and `2 <= exp_bits <= 11` (checked by debug assertion
/// only; this is the hot loop).
#[inline(always)]
pub fn round_rne_core(x: f64, exp_bits: u32, man_bits: u32) -> f64 {
    debug_assert!(man_bits >= 1 && man_bits <= 52 && exp_bits >= 2 && exp_bits <= 11);
    if !x.is_finite() {
        return x;
    }
    let bits = x.to_bits();
    let sign = bits & (1 << 63);
    let mag = bits & !(1 << 63);
    if mag == 0 {
        return x;
    }
    let emax = (1i32 << (exp_bits - 1)) - 1;
    let (exp, mant, drop) = split(mag, exp_bits, man_bits);
    if drop <= 0 {
        if exp > emax {
            return f64::from_bits(sign | f64::INFINITY.to_bits());
        }
        return x;
    }
    if drop >= 54 {
        // |x| < half of the minimum subnormal: rounds to zero.
        return f64::from_bits(sign);
    }
    let drop = drop as u32;
    let half = 1u64 << (drop - 1);
    let low = mant & ((1u64 << drop) - 1);
    let trunc = mant >> drop;
    let round_up = low > half || (low == half && trunc & 1 == 1);
    let rmant = trunc + round_up as u64;
    if rmant == 0 {
        return f64::from_bits(sign);
    }
    // Reconstruct exactly: the kept significand times the ulp of the
    // kept position. Both factors are exact f64s and the product is
    // representable (<= 53 bits at lsb exponent >= emin - man_bits
    // >= -1074 for every format this path accepts).
    let res = (rmant as f64) * exp2i(exp - 52 + drop as i32);
    // Overflow check without materializing max_finite (powi is a
    // function call; this path is the op-mode hot loop): the result
    // sits on the format's mantissa grid, so it exceeds max_finite
    // exactly when its unbiased exponent exceeds emax.
    let e_res = ((res.to_bits() >> 52) & 0x7FF) as i32 - 1023;
    if e_res > emax {
        return f64::from_bits(sign | f64::INFINITY.to_bits());
    }
    f64::from_bits(res.to_bits() | sign)
}

/// Whether `x` lies exactly halfway between two neighbours in the format
/// `(exp_bits, man_bits)`: a tie, which [`round_rne_core`] breaks to even.
/// A value that was already rounded once (to `f64`, say) and lands on a
/// tie may have come from either side of it, so rounding it again can go
/// the wrong way; off the ties, the second rounding agrees with a single
/// rounding of the original. Same domain as [`round_rne_core`]; non-finite
/// values and zeros are never ties.
#[inline(always)]
pub fn is_tie_core(x: f64, exp_bits: u32, man_bits: u32) -> bool {
    let mag = x.to_bits() & !(1 << 63);
    if !x.is_finite() || mag == 0 {
        return false;
    }
    let (_, mant, drop) = split(mag, exp_bits, man_bits);
    (1..=53).contains(&drop) && mant & ((1u64 << drop) - 1) == 1u64 << (drop - 1)
}

/// Decompose a finite nonzero magnitude `|x| = mant * 2^(exp - 52)` with
/// `mant` in `[2^52, 2^53)` (subnormal `f64` inputs are normalized first),
/// plus the bits to drop from that 53-bit significand for the format:
/// precision loss and the extra loss below the format's normal range
/// (gradual underflow). Returns `(exp, mant, drop)`.
#[inline(always)]
fn split(mag: u64, exp_bits: u32, man_bits: u32) -> (i32, u64, i32) {
    let emin = 2 - (1i32 << (exp_bits - 1));
    let biased = (mag >> 52) as i32;
    let (exp, mant) = if biased == 0 {
        let lz = mag.leading_zeros(); // >= 12 for subnormals
        (-1011 - lz as i32, mag << (lz - 11))
    } else {
        (biased - 1023, (1u64 << 52) | (mag & ((1u64 << 52) - 1)))
    };
    (exp, mant, (52 - man_bits as i32) + (emin - exp).max(0))
}

/// Exact power of two as f64 for exponents representable in f64's range.
#[inline(always)]
fn exp2i(e: i32) -> f64 {
    if e >= -1022 && e <= 1023 {
        f64::from_bits(((e + 1023) as u64) << 52)
    } else if e < -1022 && e >= -1074 {
        f64::from_bits(1u64 << (e + 1074))
    } else if e < -1074 {
        0.0
    } else {
        f64::INFINITY
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Format, RoundMode};

    fn reference(fmt: Format, x: f64) -> f64 {
        fmt.round_f64(x, RoundMode::NearestEven)
    }

    #[test]
    fn core_matches_format_round_on_random_sweep() {
        let formats = [
            Format::new(4, 3),
            Format::FP8_E5M2,
            Format::BF16,
            Format::FP16,
            Format::new(8, 10),
            Format::new(11, 12),
            Format::new(5, 14),
            Format::FP32,
        ];
        let mut state = 0x243F6A8885A308D3u64;
        for _ in 0..20000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let v = f64::from_bits(state);
            for fmt in formats {
                let want = reference(fmt, v);
                let got = round_rne_core(v, fmt.exp_bits(), fmt.man_bits());
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{fmt} rounding of {v:e} ({state:#x})"
                );
            }
        }
    }

    #[test]
    fn core_matches_format_round_on_edges() {
        let edges = [
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            5e-324,
            -5e-324,
            1e-310,
            f64::MAX,
            -f64::MAX,
            65504.0,
            65519.0,
            65520.0,
            Format::FP16.min_subnormal(),
            Format::FP16.min_subnormal() / 2.0,
            Format::FP16.min_subnormal() * 0.75,
        ];
        for fmt in [Format::FP8_E4M3, Format::FP16, Format::BF16, Format::new(11, 12)] {
            for &v in &edges {
                let want = reference(fmt, v);
                let got = round_rne_core(v, fmt.exp_bits(), fmt.man_bits());
                assert_eq!(got.to_bits(), want.to_bits(), "{fmt} rounding of {v:e}");
            }
        }
    }

    /// `is_tie_core` against the directed roundings: `x` is a tie exactly
    /// when it sits strictly between its two format neighbours at equal
    /// distance. Random patterns (almost never ties) plus constructed
    /// midpoints across each format's normal, subnormal and overflow
    /// ranges.
    #[test]
    fn tie_detection_matches_directed_roundings() {
        let formats = [
            Format::FP8_E4M3,
            Format::FP16,
            Format::BF16,
            Format::new(11, 12),
            Format::new(11, 20),
        ];
        let mut state = 0x13198A2E03707344u64;
        for _ in 0..20000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let v = f64::from_bits(state);
            for fmt in formats {
                let lo = fmt.round_f64(v.abs(), RoundMode::TowardZero);
                let hi = fmt.round_f64(v.abs(), RoundMode::Up);
                if !v.is_finite() || !hi.is_finite() {
                    assert!(!is_tie_core(v, fmt.exp_bits(), fmt.man_bits()), "{fmt} {v:e}");
                    continue;
                }
                // Both differences are exact (Sterbenz) whenever they
                // could be equal.
                let tie = lo != hi && v.abs() - lo == hi - v.abs();
                assert_eq!(is_tie_core(v, fmt.exp_bits(), fmt.man_bits()), tie, "{fmt} {v:e}");
                if lo != hi {
                    let mid = lo + (hi - lo) / 2.0;
                    for m in [mid, -mid] {
                        let tie = is_tie_core(m, fmt.exp_bits(), fmt.man_bits());
                        assert!(tie, "{fmt} midpoint {m:e}");
                    }
                    let off = f64::from_bits(mid.to_bits() + 1);
                    assert!(!is_tie_core(off, fmt.exp_bits(), fmt.man_bits()), "{fmt} {off:e}");
                }
            }
        }
        for fmt in formats {
            let min_sub = fmt.min_subnormal();
            for v in [0.0, -0.0, min_sub, fmt.max_finite(), f64::NAN, f64::INFINITY] {
                assert!(!is_tie_core(v, fmt.exp_bits(), fmt.man_bits()), "{fmt} {v:e}");
            }
            let half_min = min_sub / 2.0;
            let tie = is_tie_core(half_min, fmt.exp_bits(), fmt.man_bits());
            assert!(tie, "{fmt} half min subnormal");
        }
    }

    /// Spot values (normal, fp16-subnormal, overflowing, underflowing to
    /// `-0`) against the `SoftFloat` rounding, which shares no code with
    /// the core.
    #[test]
    fn core_matches_soft_rounding_on_spot_values() {
        let vals = [0.1, 1.0, -2.5, 6.1e-5, 1e30, -1e-30];
        for &v in &vals {
            let soft = Format::FP16.round_soft(&crate::SoftFloat::from_f64(v), RoundMode::NearestEven);
            assert_eq!(round_rne_core(v, 5, 10).to_bits(), soft.to_f64().to_bits(), "{v:e}");
        }
    }
}
