//! Exact, order-free summation of non-negative `f64` values.
//!
//! [`ExactSum`] is a small superaccumulator in the style of Neal
//! (arXiv:1505.05571): the sum is kept as one fixed-point integer in units
//! of `2^-1074`, the smallest `f64` subnormal, spread over 32-bit chunks
//! held in 64-bit limbs. An addend lands in at most three limbs with no
//! carry between them; the carries are propagated lazily, once per `2^31`
//! adds and when a sum is merged or read. Addition of integers is exact
//! and associative, so the sum, and the `f64` it rounds to, do not depend
//! on the order of the adds or on how they were split across merged
//! accumulators. The value is rounded once, to nearest-even, when read.

/// Bits of the sum held per limb once carries are propagated.
const CHUNK: u32 = 32;
const MASK: u64 = (1 << CHUNK) - 1;

/// Limbs: the largest finite addend reaches bit `2045 + 84`, and `2^64`
/// of them sum below `2^2162`, inside the `68 * 32 = 2176` bits held.
const LIMBS: usize = 68;

/// Adds between carry propagations: each add puts less than `2^32` into a
/// limb, so a limb of at most `2^32 - 1` takes `2^31` of them and stays
/// below `2^64`.
const LAZY: u32 = 1 << 31;

/// The exact sum of non-negative `f64` values, rounded once when read
/// ([`ExactSum::value`]). `+inf` addends make the sum `+inf`; a NaN addend
/// makes it NaN, as a running `f64` sum would.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExactSum {
    /// Chunk `i` weighs `2^(32 i - 1074)`.
    limbs: [u64; LIMBS],
    /// Adds since the carries were last propagated.
    pending: u32,
    /// The non-finite addends' bits, OR-ed: 0 when there were none.
    special: u64,
}

impl Default for ExactSum {
    fn default() -> Self {
        ExactSum { limbs: [0; LIMBS], pending: 0, special: 0 }
    }
}

impl ExactSum {
    /// An empty sum.
    pub fn new() -> ExactSum {
        ExactSum::default()
    }

    /// Add `x`, which must not be negative (`-0.0` adds nothing).
    #[inline]
    pub fn add(&mut self, x: f64) {
        debug_assert!(x >= 0.0 || x.is_nan(), "ExactSum adds non-negative values only: {x:e}");
        let bits = x.to_bits() & !(1 << 63);
        let exp = (bits >> 52) as u32;
        let frac = bits & ((1 << 52) - 1);
        if exp == 0x7FF {
            self.special |= bits;
            return;
        }
        // x = m * 2^(s - 1074).
        let (m, s) = if exp == 0 { (frac, 0) } else { (frac | 1 << 52, exp - 1) };
        let v = (m as u128) << (s % CHUNK);
        let i = (s / CHUNK) as usize;
        self.limbs[i] += v as u64 & MASK;
        self.limbs[i + 1] += (v >> CHUNK) as u64 & MASK;
        self.limbs[i + 2] += (v >> (2 * CHUNK)) as u64;
        self.pending += 1;
        if self.pending == LAZY {
            self.carry();
        }
    }

    /// Add every value another sum holds.
    pub fn absorb(&mut self, other: &ExactSum) {
        // Both below 2^64 limb by limb: this one's limbs below 2^32 after
        // the carry, the other's below 2^63 + 2^32.
        self.carry();
        for (a, b) in self.limbs.iter_mut().zip(&other.limbs) {
            *a += b;
        }
        self.special |= other.special;
        self.carry();
    }

    /// Propagate the pending carries: every limb below `2^32` again.
    fn carry(&mut self) {
        let mut c = 0;
        for l in &mut self.limbs {
            let v = *l + c;
            *l = v & MASK;
            c = v >> CHUNK;
        }
        debug_assert_eq!(c, 0, "ExactSum holds sums below 2^1088");
        self.pending = 0;
    }

    /// The sum, correctly rounded to nearest-even (`+inf` past the
    /// largest finite value).
    pub fn value(&self) -> f64 {
        if self.special != 0 {
            // +inf alone, or a NaN: the bits of +inf OR-ed with a NaN's
            // are a NaN.
            return f64::from_bits(self.special);
        }
        let mut s = self.clone();
        s.carry();
        let w: [u64; LIMBS / 2] = std::array::from_fn(|k| s.limbs[2 * k] | s.limbs[2 * k + 1] << CHUNK);
        let Some(top) = w.iter().rposition(|&x| x != 0) else {
            return 0.0;
        };
        let h = 64 * top + 63 - w[top].leading_zeros() as usize;
        let ulp = f64::from_bits(1);
        if h < 53 {
            // Fewer than 54 significant bits: exact, subnormal or not.
            return w[0] as f64 * ulp;
        }
        // The 64 bits from `h` down (padded with zeros when `h < 63`), and
        // whether any bit below them is set.
        let (top64, sticky) = if h < 63 {
            (w[0] << (63 - h), false)
        } else {
            let lo = h - 63;
            let (q, r) = (lo / 64, lo % 64);
            let top64 = if r == 0 { w[q] } else { w[q] >> r | w[q + 1] << (64 - r) };
            (top64, (r > 0 && w[q] << (64 - r) != 0) || w[..q].iter().any(|&x| x != 0))
        };
        let (mut m, rest) = (top64 >> 11, top64 & 0x7FF);
        if rest > 0x400 || (rest == 0x400 && (sticky || m & 1 == 1)) {
            m += 1;
        }
        // m * 2^(h - 52 - 1074), with m in [2^52, 2^53]: the biased
        // exponent is h - 1074 + 1023, and a carry to 2^53 moves into it.
        let biased = (h + 1023 - 1074) as u64;
        let bits = (biased << 52) + (m - (1 << 52));
        if bits >= f64::INFINITY.to_bits() {
            f64::INFINITY
        } else {
            f64::from_bits(bits)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BigFloat, RoundMode};

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The exact sum of finite `xs` through `BigFloat` at a precision that
    /// holds every bit, rounded once to an `f64`.
    fn big_sum(xs: &[f64]) -> f64 {
        let exact = xs.iter().fold(BigFloat::zero(), |acc, &x| {
            acc.add(&BigFloat::from_f64(x), 2400, RoundMode::NearestEven)
        });
        if exact.is_zero() || exact.exponent() < -1021 {
            // Below 2^-1022 every term is a multiple of 2^-1074 and so is
            // the sum: a subnormal, exact in 53 bits.
            return exact.to_f64();
        }
        exact.round_to_prec(53, RoundMode::NearestEven).to_f64()
    }

    fn sum_of(xs: impl IntoIterator<Item = f64>) -> f64 {
        let mut s = ExactSum::new();
        xs.into_iter().for_each(|x| s.add(x));
        s.value()
    }

    /// Random non-negative values — 0, subnormals, values near
    /// `f64::MAX`, wide random magnitudes and ties made of cancelling
    /// scales — summed in shuffled orders and split across merged sums
    /// give the same bits every time, and those bits are the correctly
    /// rounded exact sum. With `+inf` among them the sum is `+inf`.
    #[test]
    fn shuffled_and_merged_sums_are_exact() {
        let mut state = 0xACC_u64;
        for round in 0..60 {
            let n = 1 + (splitmix(&mut state) % 300) as usize;
            let mut xs: Vec<f64> = (0..n)
                .map(|_| {
                    let r = splitmix(&mut state);
                    match r % 8 {
                        0 => 0.0,
                        1 => f64::from_bits(r >> 12),
                        2 => f64::MAX / (1.0 + (r >> 40) as f64),
                        3 => f64::from_bits(1 + (r >> 60)),
                        4 => 2f64.powi((r % 2000) as i32 - 1000) * (1.0 + (r >> 11) as f64 / 2f64.powi(53)),
                        _ => f64::from_bits(splitmix(&mut state) & !(1 << 63)).min(f64::MAX / 4096.0),
                    }
                })
                .map(|x| if x.is_nan() { 1.0 } else { x })
                .collect();
            if round % 7 == 3 {
                // Ties: 1 + 2^-53 rounds to even only with the sticky bits.
                xs.extend([1.0, 2f64.powi(-53), 2f64.powi(-1074)]);
            }
            let want = big_sum(&xs);
            let got = sum_of(xs.iter().copied());
            assert_eq!(got.to_bits(), want.to_bits(), "round {round}: {got:e} vs exact {want:e}");
            for _ in 0..4 {
                for i in (1..xs.len()).rev() {
                    let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
                    xs.swap(i, j);
                }
                let cut = (splitmix(&mut state) % (xs.len() as u64 + 1)) as usize;
                let mut a = ExactSum::new();
                let mut b = ExactSum::new();
                xs[..cut].iter().for_each(|&x| a.add(x));
                xs[cut..].iter().for_each(|&x| b.add(x));
                b.absorb(&a);
                assert_eq!(b.value().to_bits(), want.to_bits(), "round {round}: shuffled and merged");
            }
            xs.push(f64::INFINITY);
            assert_eq!(sum_of(xs.iter().copied()), f64::INFINITY);
        }
    }

    /// Edges: the empty sum, `-0.0`, the smallest subnormal, the
    /// subnormal/normal seam, overflow past `f64::MAX` to `+inf`, the
    /// half-ulp tie below it, and `+inf` and NaN addends.
    #[test]
    fn edges() {
        assert_eq!(sum_of([]).to_bits(), 0);
        assert_eq!(sum_of([-0.0]).to_bits(), 0);
        let tiny = f64::from_bits(1);
        assert_eq!(sum_of([tiny; 3]), 3.0 * tiny);
        let below = f64::from_bits(f64::MIN_POSITIVE.to_bits() - 1);
        assert_eq!(sum_of([below, tiny]), f64::MIN_POSITIVE);
        // Sums whose top bit sits below bit 63 of the integer, and sums
        // below 1, round without an intermediate leaving `usize`.
        let small = 2f64.powi(-1017);
        let half = 2f64.powi(-1070);
        assert_eq!(sum_of([small, tiny]), small);
        assert_eq!(sum_of([small, half]), small, "tie rounds to even");
        assert_eq!(sum_of([small, half, tiny]), small + 2.0 * half);
        assert_eq!(sum_of([0.25, 2f64.powi(-60)]), 0.25);
        assert_eq!(sum_of([f64::MAX, f64::MAX]), f64::INFINITY);
        let half_ulp = 2f64.powi(970);
        assert_eq!(sum_of([f64::MAX, half_ulp]), f64::INFINITY, "tie rounds to even: 2^1024");
        assert_eq!(sum_of([f64::MAX, half_ulp / 2.0]), f64::MAX);
        assert_eq!(sum_of([1.0, f64::INFINITY, 2.0]), f64::INFINITY);
        assert!(sum_of([1.0, f64::NAN, f64::INFINITY]).is_nan());
        let mut lazy = ExactSum::new();
        lazy.pending = LAZY - 2;
        for _ in 0..5 {
            lazy.add(f64::MAX);
        }
        assert_eq!(lazy.value(), f64::INFINITY);
        assert_eq!(lazy.pending, 3, "carried once at the lazy bound");
    }
}
