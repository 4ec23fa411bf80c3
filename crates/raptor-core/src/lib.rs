//! # raptor-core — the RAPTOR numerical-profiling runtime
//!
//! A from-scratch Rust reproduction of the tool described in *RAPTOR:
//! Practical Numerical Profiling of Scientific Applications* (SC '25).
//! RAPTOR transparently replaces floating-point operations in selected code
//! regions with operations at a user-chosen precision, to let domain
//! scientists discover where lowering precision is safe.
//!
//! The original is an LLVM instrumentation pass plus an MPFR-backed
//! runtime; this reproduction expresses the same semantics through a
//! generic numeric type:
//!
//! * write kernels generic over [`Real`] — or over its arithmetic core
//!   [`Arith`] when they never branch on their data;
//! * instantiate with `f64` for the reference build, with [`Tracked`] for
//!   the instrumented build, and an [`Arith`] kernel also with
//!   [`batch::Col`] to run it over whole columns through the batch tier;
//! * describe *what* to truncate with a [`Config`] (format, scope, mode,
//!   AMR-level cutoff, exclusions) and run under a [`Session`].
//!
//! ```
//! use raptor_core::{Arith, Config, Real, Session, Tracked, region};
//! use bigfloat::Format;
//!
//! fn kernel<R: Real>(x: R) -> R {
//!     let _r = region("Demo/kernel");
//!     (x * x + R::one()).sqrt()
//! }
//!
//! // Reference (f64) result:
//! let full = kernel(0.7f64);
//!
//! // Truncate the kernel to a 6-bit mantissa (op-mode, function scope):
//! let sess = Session::new(Config::op_functions(Format::new(11, 6), ["Demo/kernel"])
//!     .with_counting()).unwrap();
//! let guard = sess.install();
//! let trunc = kernel(Tracked::from_f64(0.7)).to_f64();
//! drop(guard);
//!
//! assert_ne!(full, trunc);
//! assert!((full - trunc).abs() < 1e-2);
//! assert_eq!(sess.counters().trunc.total(), 3); // mul, add, sqrt
//! ```
//!
//! ## Modes
//!
//! * **op-mode** ([`Mode::Op`]): each operation is independently rounded to
//!   the target format; values crossing the runtime boundary remain plain
//!   `f64`. Use for full-application truncation sweeps (Fig. 7 of the
//!   paper).
//! * **mem-mode** ([`Mode::Mem`]): values are *memorized* in a shadow slab
//!   at the configured precision together with an FP64 shadow; deviations
//!   beyond a threshold are flagged per source location (§6.3, Table 2).
//!   Requires boundary conversions ([`Tracked::mem_pre`] /
//!   [`Tracked::mem_post`]) and supports precision *increase*.
//!
//! ## Runtime hot path
//!
//! Every [`Tracked`] operation dispatches through a per-thread **decision
//! cache** (`context::FastPath`): the resolved
//! `(region stack, level) → {mode, format, counting}` outcome is stored in
//! plain `Cell` data, so the common op costs one thread-local load, one
//! branch, and the arithmetic itself — no `RefCell` borrow, no lock, no
//! `Arc` chase. The cache is written only when the decision inputs change:
//!
//! * [`region`] entry re-resolves the scope patterns and publishes the new
//!   decision; the guard remembers the pre-push state and restores it on
//!   drop without a re-match (unless [`set_level`] fired inside the
//!   region, which bumps an epoch and forces a re-resolve);
//! * [`set_level`] re-resolves against the AMR cutoff;
//! * [`Session::install`] publishes, and the guard's drop clears the cache
//!   back to the no-session state.
//!
//! **Counter flush points.** Op and byte counters accumulate in
//! unsynchronized per-thread cells. They merge into the session (under its
//! mutex) exactly when: (a) a [`SessionGuard`] drops, or (b)
//! [`Session::counters`]/[`Session::reset_counters`] runs on the thread
//! holding the live guard. Other threads' in-flight counts become visible
//! only after their guards drop — `par_leaves` workers install per block,
//! so totals are exact at every sweep boundary.
//!
//! **mem-mode sharding invariants.** Shadow slots live in the *installing
//! thread's* shard, never behind the session mutex: a NaN-boxed handle is
//! only meaningful on the thread that produced it, and kernels may assume
//! exclusive, lock-free access to their own slab between barriers. The
//! shard is taken from a per-thread parking slot at install and put back,
//! cleared, when the guard drops; the next install on that thread
//! reserves the slab at its last size instead of regrowing it. Handles
//! must not outlive [`Session::mem_clear_slab`] (the sweep barrier, called
//! per block after outputs are post-converted) or their guard: each
//! handle carries the slab's 16-bit epoch, which every clear bumps, so a
//! late handle is counted as *stale*, warned about, and reads as NaN (an
//! epoch only repeats after 65536 clears). Handles must never cross
//! threads either; this is not detected — a foreign handle reads whatever
//! slot the local shard holds under the same epoch and index, or counts as
//! stale if there is none. Flag *statistics* are keyed by call site on the
//! op path and merge into the session, keyed by [`SrcLoc`], when a guard
//! drops or when [`Session::mem_flags`] is read, so per-location reports
//! aggregate all workers while the per-op path stays unsynchronized.
//!
//! **Emulation short-cut.** For round-to-nearest-even and formats where
//! double rounding through `f64` is provably innocuous
//! ([`Format::double_round`]: Figueroa's `2p + 2 <= 53` bound, and an
//! embedding in `f64`), add/sub/mul/div/sqrt/fma run as one hardware op
//! plus bit-twiddled roundings — bit-identical to the SoftFloat kernels,
//! which remain the general path (and the `Big` limb path stays available
//! as the naive baseline of Table 3). The check is per result, not per
//! format: formats whose subnormal range reaches into `f64`'s (the full
//! 11-bit exponent with 17 to 24 mantissa bits, e.g. `e11m20`) are
//! [`bigfloat::DoubleRound::Guarded`], and a hardware result in the `f64`
//! subnormal window (nonzero, `|r| <= f64::MIN_POSITIVE`) re-runs through
//! the SoftFloat kernel. fma, whose exact value has no `2p`-bit bound,
//! re-runs any hardware result that lands on a format tie instead. The
//! tier (none, unconditional, guarded) is resolved once per publish and
//! cached in the decision cache.
//!
//! **Batch kernels.** Even the cached per-op path pays a thread-local
//! load, a dispatch branch, and a counter bump *per operation*. The
//! [`batch`] module retires that overhead for leaf-granular inner loops:
//! a kernel instantiated at [`batch::Col`] runs each operator over a whole
//! column, reading the decision cache once and bulk-adding counters once
//! per op. Each op shape is written once over a
//! per-element executor and run by one dispatch skeleton, which picks one
//! of four tiers: plain hardware (no session, inactive regions, the
//! Native FP64/FP32 rungs); for every format on the short-cut above, a
//! cheap rounding and, for the chunks it flags, an exact one in the same
//! vector loop, with the format's rounding masks and range limits
//! computed once per op, so the loop is straight-line code per element;
//! per-element emulation through the scalar path's own functions for
//! every other op-mode decision (Big path, directed rounding, formats
//! past the short-cut's bound such as `e11m30`); and defensive per-op
//! calls under mem-mode. The hardware and fast loops are compiled at
//! each vector width of the target (on x86-64: baseline, AVX2, AVX-512)
//! and run at the widest one the CPU reports
//! ([`batch::vector_width`]). Results are bit-identical to the scalar
//! path in every tier and at every width.
//! Consumers gate on [`batch::ready`] and keep their scalar code as the
//! mem-mode path and differential oracle.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod config;
pub mod context;
pub mod counters;
pub mod json;
pub mod memmode;
pub mod ops;
pub mod real;
pub mod report;
pub mod weno;

pub use config::{Config, EmulPath, LevelCutoff, Mode, Scope};
pub use context::{count_field_values, is_active, region, set_level, RegionGuard, Session, SessionGuard};
pub use counters::{Counters, OpCounts, OpKind};
pub use json::Json;
pub use memmode::{LocReport, LocStats, SrcLoc};
pub use ops::{MathFn, SignOp};
pub use real::{Arith, Real, Tracked};
pub use report::{FlagRow, Report};

// Re-export the numeric substrate for convenience.
pub use bigfloat::{BigFloat, Format, RoundMode, SoftFloat};

/// Run a closure inside a named region (sugar over [`region`]): the Rust
/// analog of calling a `_raptor_trunc_func_*`-wrapped function (Fig. 3b).
pub fn truncated<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _g = region(name);
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truncated_sugar_scopes_like_region() {
        let sess = Session::new(Config::op_functions(Format::new(11, 4), ["F"])).unwrap();
        let _g = sess.install();
        assert!(!is_active());
        let r = truncated("F", || {
            assert!(is_active());
            Tracked::from_f64(0.1) + Tracked::from_f64(0.2)
        });
        assert!(!is_active());
        assert!((r.to_f64() - 0.3).abs() > 1e-6);
    }

    #[test]
    fn doc_example_flow() {
        fn kernel<R: Real>(x: R) -> R {
            let _r = region("Demo/kernel");
            (x * x + R::one()).sqrt()
        }
        let full = kernel(0.7f64);
        let sess = Session::new(
            Config::op_functions(Format::new(11, 6), ["Demo/kernel"]).with_counting(),
        )
        .unwrap();
        let guard = sess.install();
        let trunc = kernel(Tracked::from_f64(0.7)).to_f64();
        drop(guard);
        assert_ne!(full, trunc);
        assert!((full - trunc).abs() < 1e-2);
        assert_eq!(sess.counters().trunc.total(), 3);
    }
}
