//! # bigfloat — correctly-rounded binary floating point at arbitrary precision
//!
//! This crate is the [GNU MPFR](https://www.mpfr.org/) substitute for the
//! RAPTOR reproduction. It provides two emulated floating-point types that
//! share semantics but differ in representation:
//!
//! * [`SoftFloat`] — significand precision up to 64 bits, stored inline in a
//!   `u64`. `Copy`, allocation-free, and used on the hot truncation path
//!   (the analog of RAPTOR's scratch-pad-optimised MPFR usage, Fig. 4b of
//!   the paper).
//! * [`BigFloat`] — arbitrary significand precision backed by a limb vector.
//!   Used for the "naive" runtime path (per-op allocation, the analog of
//!   `mpfr_init2` per operation in Fig. 5a) and for precisions beyond 64
//!   bits.
//!
//! [`ExactSum`] sums non-negative `f64` values exactly, in any order, and
//! rounds once when read: mem-mode's per-site deviation sums.
//!
//! Both types implement **correct rounding** for `add`, `sub`, `mul`, `div`,
//! `sqrt` and `fma` in all five IEEE-754 rounding directions, with an
//! unbounded exponent (like MPFR). IEEE-style exponent-range semantics —
//! overflow to infinity, gradual underflow to subnormals — are layered on
//! top by [`Format`], which describes a target format as
//! `(exponent bits, mantissa bits)` exactly like RAPTOR's
//! `--raptor-truncate-all=64_to_5_14` flags.
//!
//! ## Quick example
//!
//! ```
//! use bigfloat::{Format, RoundMode, SoftFloat};
//!
//! // fp16-like arithmetic: 5 exponent bits, 10 mantissa bits.
//! let fmt = Format::new(5, 10);
//! let a = SoftFloat::from_f64(1.0 / 3.0).round_to_format(fmt, RoundMode::NearestEven);
//! let b = SoftFloat::from_f64(2.0 / 3.0).round_to_format(fmt, RoundMode::NearestEven);
//! let sum = a.add(&b, fmt.precision(), RoundMode::NearestEven)
//!     .round_to_format(fmt, RoundMode::NearestEven);
//! // The fp16 sum of round(1/3) and round(2/3) is exactly 1.0 (the two
//! // roundings cancel at this precision).
//! assert_eq!(sum.to_f64(), 1.0);
//! ```

#![forbid(unsafe_code)]

pub mod accum;
pub mod big;
pub mod format;
pub mod kernel;
pub mod round;
pub mod soft;
pub mod soft_math;

pub use accum::ExactSum;
pub use big::BigFloat;
pub use format::{DoubleRound, Format};
pub use round::RoundMode;
pub use soft::{Class, SoftFloat};

/// Maximum significand precision (in bits) supported by [`SoftFloat`].
///
/// Targets with more mantissa bits than `SOFT_MAX_PREC - 1` must use
/// [`BigFloat`].
pub const SOFT_MAX_PREC: u32 = 64;
