//! Batch-specialized emulation kernels: slice-shaped ops that read the
//! published [`FastPath`](crate::context) decision **once per call**, then
//! run the whole slice through a monomorphized kernel — no per-element TLS
//! load, no per-element dispatch branch, no per-element counter bump.
//!
//! This is the RAPTOR answer to what r2vm's DBT does for instruction
//! dispatch: the scalar [`crate::ops`] entry points are the interpreter
//! slow path (kept verbatim as the differential oracle); a leaf's worth of
//! cells goes through `batch_add`/`batch_mul`/... instead, which jump
//! through a small static dispatch table to a `softfp`-style const-generic
//! kernel instantiated for the shipped format ladder. Counters are
//! bulk-added once per call ([`CellCounts::bump_n`](crate::counters)), so
//! totals are *exactly* what the scalar path would have produced.
//!
//! ## Dispatch tiers (fastest first)
//!
//! 1. **No session / inactive region** — plain hardware loops (plus one
//!    bulk `full` count when the session counts full ops).
//! 2. **Op-mode, monomorphized** — round-to-nearest-even and a format in
//!    the static table whose double rounding through `f64` is innocuous
//!    ([`DoubleRound::Safe`]) or guarded ([`DoubleRound::Guarded`],
//!    `e11m20`): the `round → hardware op → round` short-cut with
//!    const-generic widths, bit-identical to the scalar Soft path by
//!    construction (both funnel through
//!    [`bigfloat::kernel::round_rne_core`]). A flagged chunk or element
//!    re-runs precisely; for a guarded format that re-run sends a result
//!    in the `f64` subnormal window through the scalar SoftFloat kernel.
//! 3. **Op-mode, generic short-cut** — a short-cut format outside the
//!    table (`e11m18`, `e11m24`, ...): the same short-cut and guard with
//!    runtime widths.
//! 4. **Op-mode fallback** — Native/Big paths, directed rounding modes,
//!    or formats past Figueroa's bound (`p > 25`, e.g. `e11m30`):
//!    per-element emulation (same functions the scalar path calls),
//!    still with one dispatch read and one bulk count.
//! 5. **mem-mode** — defensive per-element [`crate::ops`] calls. Consumers
//!    should gate with [`ready`] and keep their scalar path instead:
//!    mem-mode needs per-op source locations, which a batch call cannot
//!    attribute.
//!
//! All slices must have equal length; the functions panic otherwise.

use crate::config::EmulPath;
use crate::context::{Dispatch, FastPath, FAST};
use crate::counters::OpKind;
use crate::ops;
use bigfloat::kernel::{round_rne, round_rne_core};
use bigfloat::{DoubleRound, Format, RoundMode};
use std::sync::atomic::{AtomicBool, Ordering};

// ---------------------------------------------------------------------------
// Consumer gating
// ---------------------------------------------------------------------------

static FORCE_SCALAR: AtomicBool = AtomicBool::new(false);

/// Test/diagnostic toggle: when set, [`ready`] reports `false` so gated
/// consumers take their scalar path. Global (all threads), so differential
/// runs under `par_leaves` flip every worker at once.
pub fn set_force_scalar(on: bool) {
    FORCE_SCALAR.store(on, Ordering::SeqCst);
}

/// Whether [`set_force_scalar`] is currently set.
pub fn force_scalar() -> bool {
    FORCE_SCALAR.load(Ordering::Relaxed)
}

/// Whether batch calls are profitable *and* semantics-preserving for the
/// current thread state: false under mem-mode sessions (per-op source
/// locations cannot be attributed from a slice loop) and under
/// [`set_force_scalar`]. True otherwise, including with no session at all.
pub fn ready() -> bool {
    if force_scalar() {
        return false;
    }
    FAST.with(|f| {
        !matches!(
            f.dispatch.get(),
            Dispatch::Mem | Dispatch::MemInactive | Dispatch::MemInactiveCount
        )
    })
}

// ---------------------------------------------------------------------------
// Public slice ops
// ---------------------------------------------------------------------------

/// `out[i] = a[i] + b[i]` under the current truncation decision.
pub fn batch_add(a: &[f64], b: &[f64], out: &mut [f64]) {
    bin(OpKind::Add, a, b, out)
}

/// `out[i] = a[i] - b[i]` under the current truncation decision.
pub fn batch_sub(a: &[f64], b: &[f64], out: &mut [f64]) {
    bin(OpKind::Sub, a, b, out)
}

/// `out[i] = a[i] * b[i]` under the current truncation decision.
pub fn batch_mul(a: &[f64], b: &[f64], out: &mut [f64]) {
    bin(OpKind::Mul, a, b, out)
}

/// `out[i] = a[i] / b[i]` under the current truncation decision.
pub fn batch_div(a: &[f64], b: &[f64], out: &mut [f64]) {
    bin(OpKind::Div, a, b, out)
}

/// `out[i] = a[i] + s` (scalar broadcast on the right).
pub fn batch_add_s(a: &[f64], s: f64, out: &mut [f64]) {
    bin_s(OpKind::Add, a, s, out)
}

/// `out[i] = a[i] - s` (scalar broadcast on the right).
pub fn batch_sub_s(a: &[f64], s: f64, out: &mut [f64]) {
    bin_s(OpKind::Sub, a, s, out)
}

/// `out[i] = a[i] * s` (scalar broadcast on the right).
pub fn batch_mul_s(a: &[f64], s: f64, out: &mut [f64]) {
    bin_s(OpKind::Mul, a, s, out)
}

/// `out[i] = a[i] / s` (scalar broadcast on the right).
pub fn batch_div_s(a: &[f64], s: f64, out: &mut [f64]) {
    bin_s(OpKind::Div, a, s, out)
}

/// `out[i] = s + b[i]` (scalar broadcast on the left).
pub fn batch_radd_s(s: f64, b: &[f64], out: &mut [f64]) {
    bin_rs(OpKind::Add, s, b, out)
}

/// `out[i] = s - b[i]` (scalar broadcast on the left).
pub fn batch_rsub_s(s: f64, b: &[f64], out: &mut [f64]) {
    bin_rs(OpKind::Sub, s, b, out)
}

/// `out[i] = s * b[i]` (scalar broadcast on the left).
pub fn batch_rmul_s(s: f64, b: &[f64], out: &mut [f64]) {
    bin_rs(OpKind::Mul, s, b, out)
}

/// `out[i] = s / b[i]` (scalar broadcast on the left).
pub fn batch_rdiv_s(s: f64, b: &[f64], out: &mut [f64]) {
    bin_rs(OpKind::Div, s, b, out)
}

/// `out[i] = sqrt(a[i])` under the current truncation decision.
pub fn batch_sqrt(a: &[f64], out: &mut [f64]) {
    assert_eq!(a.len(), out.len());
    let n = out.len() as u64;
    FAST.with(|f| match f.dispatch.get() {
        Dispatch::None | Dispatch::Inactive => {
            for (o, &x) in out.iter_mut().zip(a) {
                *o = x.sqrt();
            }
        }
        Dispatch::InactiveCount => {
            f.full.bump_n(OpKind::Sqrt, n);
            for (o, &x) in out.iter_mut().zip(a) {
                *o = x.sqrt();
            }
        }
        Dispatch::Op => {
            f.trunc.bump_n(OpKind::Sqrt, n);
            if let Some(ks) = f.kernels.get() {
                (ks.sqrt)(a, out);
            } else {
                op_sqrt_fallback(f, a, out);
            }
        }
        Dispatch::Mem | Dispatch::MemInactive | Dispatch::MemInactiveCount => {
            for (o, &x) in out.iter_mut().zip(a) {
                *o = ops::op_sqrt(x);
            }
        }
    })
}

/// `out[i] = fma(a[i], b[i], c[i])` under the current truncation decision.
pub fn batch_fma(a: &[f64], b: &[f64], c: &[f64], out: &mut [f64]) {
    assert_eq!(a.len(), out.len());
    assert_eq!(b.len(), out.len());
    assert_eq!(c.len(), out.len());
    let n = out.len() as u64;
    FAST.with(|f| match f.dispatch.get() {
        Dispatch::None | Dispatch::Inactive => {
            for (((o, &x), &y), &z) in out.iter_mut().zip(a).zip(b).zip(c) {
                *o = x.mul_add(y, z);
            }
        }
        Dispatch::InactiveCount => {
            f.full.bump_n(OpKind::Fma, n);
            for (((o, &x), &y), &z) in out.iter_mut().zip(a).zip(b).zip(c) {
                *o = x.mul_add(y, z);
            }
        }
        Dispatch::Op => {
            f.trunc.bump_n(OpKind::Fma, n);
            if let Some(ks) = f.kernels.get() {
                (ks.fma)(a, b, c, out);
            } else {
                op_fma_fallback(f, a, b, c, out);
            }
        }
        Dispatch::Mem | Dispatch::MemInactive | Dispatch::MemInactiveCount => {
            for (((o, &x), &y), &z) in out.iter_mut().zip(a).zip(b).zip(c) {
                *o = ops::op_fma(x, y, z);
            }
        }
    })
}

/// Fused Jiang–Shu WENO5 over five stencil slices: `out[i]` is exactly what
/// `hydro::recon::weno5([v0[i], v1[i], v2[i], v3[i], v4[i]])` computes on
/// the scalar path — same op AST per element (19 adds, 8 subs, 34 muls,
/// 4 divs), one `FastPath` read and one bulk counter add per call.
pub fn batch_weno5(v0: &[f64], v1: &[f64], v2: &[f64], v3: &[f64], v4: &[f64], out: &mut [f64]) {
    weno5_dispatch::<false>([v0, v1, v2, v3, v4], out)
}

/// Fused WENO5, `incomp::solver::weno5_core` variant: the combination ends
/// in `inv = 1 / asum; .. * inv` instead of a direct division (19 adds,
/// 8 subs, 35 muls, 4 divs per element). Bit- and counter-identical to the
/// incomp scalar AST.
pub fn batch_weno5_adv(v0: &[f64], v1: &[f64], v2: &[f64], v3: &[f64], v4: &[f64], out: &mut [f64]) {
    weno5_dispatch::<true>([v0, v1, v2, v3, v4], out)
}

/// `out[i] = log10(a[i])` under the current truncation decision. Math
/// functions have no monomorphized table entry (SoftFloat evaluation
/// dominates the cost); the win here is one dispatch read and one bulk
/// `Math` counter add instead of per-element TLS traffic.
pub fn batch_log10(a: &[f64], out: &mut [f64]) {
    assert_eq!(a.len(), out.len());
    let n = out.len() as u64;
    FAST.with(|f| match f.dispatch.get() {
        Dispatch::None | Dispatch::Inactive => {
            for (o, &x) in out.iter_mut().zip(a) {
                *o = x.log10();
            }
        }
        Dispatch::InactiveCount => {
            f.full.bump_n(OpKind::Math, n);
            for (o, &x) in out.iter_mut().zip(a) {
                *o = x.log10();
            }
        }
        Dispatch::Op => {
            f.trunc.bump_n(OpKind::Math, n);
            let emul = f.emul.get();
            for (o, &x) in out.iter_mut().zip(a) {
                *o = ops::emulate_math(emul, ops::MathFn::Log10, x);
            }
        }
        Dispatch::Mem | Dispatch::MemInactive | Dispatch::MemInactiveCount => {
            for (o, &x) in out.iter_mut().zip(a) {
                *o = ops::op_math(ops::MathFn::Log10, x);
            }
        }
    })
}

// ---------------------------------------------------------------------------
// Binary dispatch skeletons
// ---------------------------------------------------------------------------

fn bin(kind: OpKind, a: &[f64], b: &[f64], out: &mut [f64]) {
    assert_eq!(a.len(), out.len());
    assert_eq!(b.len(), out.len());
    let n = out.len() as u64;
    FAST.with(|f| match f.dispatch.get() {
        Dispatch::None | Dispatch::Inactive => raw_bin(kind, a, b, out),
        Dispatch::InactiveCount => {
            f.full.bump_n(kind, n);
            raw_bin(kind, a, b, out)
        }
        Dispatch::Op => {
            f.trunc.bump_n(kind, n);
            if let Some(ks) = f.kernels.get() {
                (ks.bin)(kind, a, b, out);
            } else {
                op_bin_fallback(f, kind, a, b, out);
            }
        }
        Dispatch::Mem | Dispatch::MemInactive | Dispatch::MemInactiveCount => {
            for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                *o = ops::op2(kind, x, y);
            }
        }
    })
}

fn bin_s(kind: OpKind, a: &[f64], s: f64, out: &mut [f64]) {
    assert_eq!(a.len(), out.len());
    let n = out.len() as u64;
    FAST.with(|f| match f.dispatch.get() {
        Dispatch::None | Dispatch::Inactive => raw_bin_s(kind, a, s, out),
        Dispatch::InactiveCount => {
            f.full.bump_n(kind, n);
            raw_bin_s(kind, a, s, out)
        }
        Dispatch::Op => {
            f.trunc.bump_n(kind, n);
            if let Some(ks) = f.kernels.get() {
                (ks.bin_s)(kind, a, s, out);
            } else {
                op_bin_s_fallback(f, kind, a, s, out);
            }
        }
        Dispatch::Mem | Dispatch::MemInactive | Dispatch::MemInactiveCount => {
            for (o, &x) in out.iter_mut().zip(a) {
                *o = ops::op2(kind, x, s);
            }
        }
    })
}

fn bin_rs(kind: OpKind, s: f64, b: &[f64], out: &mut [f64]) {
    assert_eq!(b.len(), out.len());
    let n = out.len() as u64;
    FAST.with(|f| match f.dispatch.get() {
        Dispatch::None | Dispatch::Inactive => raw_bin_rs(kind, s, b, out),
        Dispatch::InactiveCount => {
            f.full.bump_n(kind, n);
            raw_bin_rs(kind, s, b, out)
        }
        Dispatch::Op => {
            f.trunc.bump_n(kind, n);
            if let Some(ks) = f.kernels.get() {
                (ks.bin_rs)(kind, s, b, out);
            } else {
                op_bin_rs_fallback(f, kind, s, b, out);
            }
        }
        Dispatch::Mem | Dispatch::MemInactive | Dispatch::MemInactiveCount => {
            for (o, &y) in out.iter_mut().zip(b) {
                *o = ops::op2(kind, s, y);
            }
        }
    })
}

// ---------------------------------------------------------------------------
// Hardware loops
// ---------------------------------------------------------------------------

macro_rules! raw_loop2 {
    ($kind:expr, $a:expr, $b:expr, $out:expr, $op:tt) => {
        for ((o, &x), &y) in $out.iter_mut().zip($a).zip($b) {
            *o = x $op y;
        }
    };
}

fn raw_bin(kind: OpKind, a: &[f64], b: &[f64], out: &mut [f64]) {
    match kind {
        OpKind::Add => raw_loop2!(kind, a, b, out, +),
        OpKind::Sub => raw_loop2!(kind, a, b, out, -),
        OpKind::Mul => raw_loop2!(kind, a, b, out, *),
        OpKind::Div => raw_loop2!(kind, a, b, out, /),
        _ => unreachable!("binary batch ops only"),
    }
}

fn raw_bin_s(kind: OpKind, a: &[f64], s: f64, out: &mut [f64]) {
    match kind {
        OpKind::Add => {
            for (o, &x) in out.iter_mut().zip(a) {
                *o = x + s;
            }
        }
        OpKind::Sub => {
            for (o, &x) in out.iter_mut().zip(a) {
                *o = x - s;
            }
        }
        OpKind::Mul => {
            for (o, &x) in out.iter_mut().zip(a) {
                *o = x * s;
            }
        }
        OpKind::Div => {
            for (o, &x) in out.iter_mut().zip(a) {
                *o = x / s;
            }
        }
        _ => unreachable!("binary batch ops only"),
    }
}

fn raw_bin_rs(kind: OpKind, s: f64, b: &[f64], out: &mut [f64]) {
    match kind {
        OpKind::Add => {
            for (o, &y) in out.iter_mut().zip(b) {
                *o = s + y;
            }
        }
        OpKind::Sub => {
            for (o, &y) in out.iter_mut().zip(b) {
                *o = s - y;
            }
        }
        OpKind::Mul => {
            for (o, &y) in out.iter_mut().zip(b) {
                *o = s * y;
            }
        }
        OpKind::Div => {
            for (o, &y) in out.iter_mut().zip(b) {
                *o = s / y;
            }
        }
        _ => unreachable!("binary batch ops only"),
    }
}

// ---------------------------------------------------------------------------
// Op-mode fallbacks (Native path, generic-width shortcut, per-element
// emulation). One dispatch read and one bulk count already happened.
// ---------------------------------------------------------------------------

fn op_bin_fallback(f: &FastPath, kind: OpKind, a: &[f64], b: &[f64], out: &mut [f64]) {
    let emul = f.emul.get();
    match emul.path {
        EmulPath::Native => {
            if emul.fmt == Format::FP64 {
                raw_bin(kind, a, b, out);
            } else {
                for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                    *o = ops::raw2(kind, (x as f32) as f64, (y as f32) as f64) as f32 as f64;
                }
            }
        }
        _ => {
            if let Some(g) = Generic::of(emul) {
                // Short-cut format outside the static table: same
                // short-cut with runtime widths.
                for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                    *o = g.op2(kind, g.round(x), g.round(y));
                }
            } else {
                for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                    *o = ops::emulate2(emul, kind, x, y);
                }
            }
        }
    }
}

fn op_bin_s_fallback(f: &FastPath, kind: OpKind, a: &[f64], s: f64, out: &mut [f64]) {
    let emul = f.emul.get();
    if let Some(g) = Generic::of(emul) {
        let rs = g.round(s);
        for (o, &x) in out.iter_mut().zip(a) {
            *o = g.op2(kind, g.round(x), rs);
        }
    } else {
        for (o, &x) in out.iter_mut().zip(a) {
            *o = ops::emulate2(emul, kind, x, s);
        }
    }
}

fn op_bin_rs_fallback(f: &FastPath, kind: OpKind, s: f64, b: &[f64], out: &mut [f64]) {
    let emul = f.emul.get();
    if let Some(g) = Generic::of(emul) {
        let rs = g.round(s);
        for (o, &y) in out.iter_mut().zip(b) {
            *o = g.op2(kind, rs, g.round(y));
        }
    } else {
        for (o, &y) in out.iter_mut().zip(b) {
            *o = ops::emulate2(emul, kind, s, y);
        }
    }
}

fn op_sqrt_fallback(f: &FastPath, a: &[f64], out: &mut [f64]) {
    let emul = f.emul.get();
    if let Some(g) = Generic::of(emul) {
        for (o, &x) in out.iter_mut().zip(a) {
            let r = g.round(x).sqrt();
            *o = if r.is_nan() { f64::NAN } else { g.round(r) };
        }
    } else {
        for (o, &x) in out.iter_mut().zip(a) {
            *o = ops::emulate_sqrt(emul, x);
        }
    }
}

fn op_fma_fallback(f: &FastPath, a: &[f64], b: &[f64], c: &[f64], out: &mut [f64]) {
    let emul = f.emul.get();
    if let Some(g) = Generic::of(emul) {
        for (((o, &x), &y), &z) in out.iter_mut().zip(a).zip(b).zip(c) {
            *o = g.fma(g.round(x), g.round(y), g.round(z));
        }
    } else {
        for (((o, &x), &y), &z) in out.iter_mut().zip(a).zip(b).zip(c) {
            *o = ops::emulate_fma(emul, x, y, z);
        }
    }
}

/// The generic-width short-cut tier: a Soft-path, round-to-nearest-even
/// decision whose format double-rounds innocuously or guarded but has no
/// static-table kernels. Operands round with runtime widths; results
/// finish through [`ops::finish_shortcut`], so guarded formats re-run a
/// result in the `f64` subnormal window through the SoftFloat kernel
/// exactly as the scalar path does.
#[derive(Clone, Copy)]
struct Generic {
    fmt: Format,
    guarded: bool,
}

impl Generic {
    fn of(emul: ops::Emul) -> Option<Generic> {
        (emul.dr != DoubleRound::Unsafe)
            .then_some(Generic { fmt: emul.fmt, guarded: emul.dr == DoubleRound::Guarded })
    }

    #[inline(always)]
    fn round(self, x: f64) -> f64 {
        round_rne_core(x, self.fmt.exp_bits(), self.fmt.man_bits())
    }

    /// One binary op on operands already rounded into the format.
    #[inline(always)]
    fn op2(self, kind: OpKind, a: f64, b: f64) -> f64 {
        ops::finish_shortcut(
            ops::raw2(kind, a, b),
            self.guarded,
            |r| self.round(r),
            || ops::soft_op2(self.fmt, RoundMode::NearestEven, kind, a, b),
        )
    }

    /// One fma on operands already rounded into the format; a result on
    /// a format tie re-runs exactly, as in `ops::fmt_fma`.
    #[inline(always)]
    fn fma(self, a: f64, b: f64, c: f64) -> f64 {
        ops::finish_fma(
            self.fmt,
            a.mul_add(b, c),
            |r| self.round(r),
            || ops::soft_fma(self.fmt, RoundMode::NearestEven, a, b, c),
        )
    }
}

// ---------------------------------------------------------------------------
// Monomorphized kernels and the static dispatch table
// ---------------------------------------------------------------------------

/// One format's worth of monomorphized kernels, selected once per publish
/// and cached in the decision cache.
pub(crate) struct KernelSet {
    pub(crate) bin: fn(OpKind, &[f64], &[f64], &mut [f64]),
    pub(crate) bin_s: fn(OpKind, &[f64], f64, &mut [f64]),
    pub(crate) bin_rs: fn(OpKind, f64, &[f64], &mut [f64]),
    pub(crate) sqrt: fn(&[f64], &mut [f64]),
    pub(crate) fma: fn(&[f64], &[f64], &[f64], &mut [f64]),
    pub(crate) weno5: for<'a> fn([&'a [f64]; 5], &mut [f64]),
    pub(crate) weno5_adv: for<'a> fn([&'a [f64]; 5], &mut [f64]),
}

/// Whether `(E, M)` double-rounds innocuously for every result
/// ([`DoubleRound::Safe`]). The table's guarded formats (`e11m20`) are
/// not: their precise re-runs keep the scalar path's subnormal-window
/// guard. Evaluated in `const` blocks, so strict formats' kernels carry
/// no trace of the guard.
const fn strict<const E: u32, const M: u32>() -> bool {
    matches!(Format::new(E, M).double_round(), DoubleRound::Safe)
}

/// Finish one short-cut op: canonicalize hardware NaNs (x86's negative
/// "indefinite" vs the soft kernels' positive quiet NaN), then the final
/// rounding. Mirrors the scalar short-cut in [`crate::ops`] exactly; for
/// `sqrt`, and for every op of a strict format, it is all of it.
#[inline(always)]
fn finish<const E: u32, const M: u32>(r: f64) -> f64 {
    if r.is_nan() {
        f64::NAN
    } else {
        round_rne::<E, M>(r)
    }
}

/// [`finish`] with the guard: a guarded format re-runs a result in the
/// `f64` subnormal window through `soft`, the scalar SoftFloat kernel on
/// the same rounded operands ([`ops::finish_shortcut`]).
#[inline(always)]
fn finish_guarded<const E: u32, const M: u32>(r: f64, soft: impl FnOnce() -> f64) -> f64 {
    if const { strict::<E, M>() } {
        finish::<E, M>(r)
    } else {
        ops::finish_shortcut(r, true, round_rne::<E, M>, soft)
    }
}

/// The scalar SoftFloat kernel in `(E, M)` on operands already rounded
/// into it: where a guarded format's precise re-run of a binary op goes
/// when its result lands in the subnormal window.
#[inline(always)]
fn soft2<const E: u32, const M: u32>(kind: OpKind, a: f64, b: f64) -> f64 {
    ops::soft_op2(Format::new(E, M), RoundMode::NearestEven, kind, a, b)
}

/// Branchless RNE rounding for magnitudes whose rounded value stays in
/// the target format's *normal* range: the classic add-half-and-truncate
/// on the raw bit pattern (carry out of the mantissa bumps the biased
/// exponent exactly as IEEE encoding requires). For anything the trick
/// cannot serve exactly — non-finite input, a nonzero magnitude below
/// the format's normal range (target-subnormal, variable shift), or a
/// result past `emax` (overflow to infinity) — it *flags* `slow` instead
/// of handling the case, and the caller re-runs that chunk through the
/// precise [`round_rne`] path. ±0 passes through the fast path
/// unchanged. The split keeps the hot loop free of data-dependent
/// branches so it auto-vectorizes.
#[inline(always)]
fn fast_round<const E: u32, const M: u32>(x: f64, slow: &mut bool) -> f64 {
    let drop = 52 - M;
    let bias = (1i32 << (E - 1)) - 1;
    let (emin, emax) = (1 - bias, bias);
    let bits = x.to_bits();
    let mag = bits & !(1u64 << 63);
    let exp = ((bits >> 52) & 0x7FF) as i32 - 1023;
    let lsb = (bits >> drop) & 1;
    let rbits = bits.wrapping_add((1u64 << (drop - 1)) - 1 + lsb) & !((1u64 << drop) - 1);
    let rexp = ((rbits >> 52) & 0x7FF) as i32 - 1023;
    *slow |= (exp >= 1024) | ((exp < emin) & (mag != 0)) | (rexp > emax);
    f64::from_bits(rbits)
}

/// [`bigfloat::kernel::is_tie_core`] for the fast tier's unflagged results: `x` in the
/// format's normal range, where a tie is a fixed bit pattern below the
/// kept mantissa. (Zero never matches; everything else [`fast_round`]
/// flags by itself.)
#[inline(always)]
fn on_tie<const M: u32>(x: f64) -> bool {
    let drop = 52 - M;
    x.to_bits() & ((1u64 << drop) - 1) == 1u64 << (drop - 1)
}

/// Chunk size for the fast/precise split: small enough that one stray
/// subnormal only re-runs a cacheline-scale stretch, large enough to
/// amortize the flag check.
const CHUNK: usize = 128;

fn k_bin<const E: u32, const M: u32>(kind: OpKind, a: &[f64], b: &[f64], out: &mut [f64]) {
    macro_rules! lp {
        ($op:tt) => {{
            let n = out.len();
            let mut i0 = 0;
            while i0 < n {
                let i1 = (i0 + CHUNK).min(n);
                let mut slow = false;
                for ((o, &x), &y) in out[i0..i1].iter_mut().zip(&a[i0..i1]).zip(&b[i0..i1]) {
                    let r = fast_round::<E, M>(x, &mut slow) $op fast_round::<E, M>(y, &mut slow);
                    *o = fast_round::<E, M>(r, &mut slow);
                }
                if slow {
                    for ((o, &x), &y) in out[i0..i1].iter_mut().zip(&a[i0..i1]).zip(&b[i0..i1]) {
                        let (x, y) = (round_rne::<E, M>(x), round_rne::<E, M>(y));
                        *o = finish_guarded::<E, M>(x $op y, || soft2::<E, M>(kind, x, y));
                    }
                }
                i0 = i1;
            }
        }};
    }
    match kind {
        OpKind::Add => lp!(+),
        OpKind::Sub => lp!(-),
        OpKind::Mul => lp!(*),
        OpKind::Div => lp!(/),
        _ => unreachable!("binary batch ops only"),
    }
}

fn k_bin_s<const E: u32, const M: u32>(kind: OpKind, a: &[f64], s: f64, out: &mut [f64]) {
    // Rounding is deterministic and idempotent, so the broadcast operand is
    // rounded once up front — bit-identical to rounding it per element.
    let rs = round_rne::<E, M>(s);
    macro_rules! lp {
        ($op:tt) => {{
            let n = out.len();
            let mut i0 = 0;
            while i0 < n {
                let i1 = (i0 + CHUNK).min(n);
                let mut slow = false;
                for (o, &x) in out[i0..i1].iter_mut().zip(&a[i0..i1]) {
                    let r = fast_round::<E, M>(x, &mut slow) $op rs;
                    *o = fast_round::<E, M>(r, &mut slow);
                }
                if slow {
                    for (o, &x) in out[i0..i1].iter_mut().zip(&a[i0..i1]) {
                        let x = round_rne::<E, M>(x);
                        *o = finish_guarded::<E, M>(x $op rs, || soft2::<E, M>(kind, x, rs));
                    }
                }
                i0 = i1;
            }
        }};
    }
    match kind {
        OpKind::Add => lp!(+),
        OpKind::Sub => lp!(-),
        OpKind::Mul => lp!(*),
        OpKind::Div => lp!(/),
        _ => unreachable!("binary batch ops only"),
    }
}

fn k_bin_rs<const E: u32, const M: u32>(kind: OpKind, s: f64, b: &[f64], out: &mut [f64]) {
    let rs = round_rne::<E, M>(s);
    macro_rules! lp {
        ($op:tt) => {{
            let n = out.len();
            let mut i0 = 0;
            while i0 < n {
                let i1 = (i0 + CHUNK).min(n);
                let mut slow = false;
                for (o, &y) in out[i0..i1].iter_mut().zip(&b[i0..i1]) {
                    let r = rs $op fast_round::<E, M>(y, &mut slow);
                    *o = fast_round::<E, M>(r, &mut slow);
                }
                if slow {
                    for (o, &y) in out[i0..i1].iter_mut().zip(&b[i0..i1]) {
                        let y = round_rne::<E, M>(y);
                        *o = finish_guarded::<E, M>(rs $op y, || soft2::<E, M>(kind, rs, y));
                    }
                }
                i0 = i1;
            }
        }};
    }
    match kind {
        OpKind::Add => lp!(+),
        OpKind::Sub => lp!(-),
        OpKind::Mul => lp!(*),
        OpKind::Div => lp!(/),
        _ => unreachable!("binary batch ops only"),
    }
}

fn k_sqrt<const E: u32, const M: u32>(a: &[f64], out: &mut [f64]) {
    let n = out.len();
    let mut i0 = 0;
    while i0 < n {
        let i1 = (i0 + CHUNK).min(n);
        let mut slow = false;
        for (o, &x) in out[i0..i1].iter_mut().zip(&a[i0..i1]) {
            let r = fast_round::<E, M>(x, &mut slow).sqrt();
            *o = fast_round::<E, M>(r, &mut slow);
        }
        if slow {
            for (o, &x) in out[i0..i1].iter_mut().zip(&a[i0..i1]) {
                *o = finish::<E, M>(round_rne::<E, M>(x).sqrt());
            }
        }
        i0 = i1;
    }
}

fn k_fma<const E: u32, const M: u32>(a: &[f64], b: &[f64], c: &[f64], out: &mut [f64]) {
    let n = out.len();
    let mut i0 = 0;
    while i0 < n {
        let i1 = (i0 + CHUNK).min(n);
        let mut slow = false;
        for (((o, &x), &y), &z) in
            out[i0..i1].iter_mut().zip(&a[i0..i1]).zip(&b[i0..i1]).zip(&c[i0..i1])
        {
            let r = fast_round::<E, M>(x, &mut slow)
                .mul_add(fast_round::<E, M>(y, &mut slow), fast_round::<E, M>(z, &mut slow));
            // A result on a format tie may hide the addend's tail (see
            // `ops::fmt_fma`): the precise re-run takes it.
            slow |= on_tie::<M>(r);
            *o = fast_round::<E, M>(r, &mut slow);
        }
        if slow {
            for (((o, &x), &y), &z) in
                out[i0..i1].iter_mut().zip(&a[i0..i1]).zip(&b[i0..i1]).zip(&c[i0..i1])
            {
                let (x, y, z) = (round_rne::<E, M>(x), round_rne::<E, M>(y), round_rne::<E, M>(z));
                let fmt = Format::new(E, M);
                *o = ops::finish_fma(fmt, x.mul_add(y, z), round_rne::<E, M>, || {
                    ops::soft_fma(fmt, RoundMode::NearestEven, x, y, z)
                });
            }
        }
        i0 = i1;
    }
}

// ---------------------------------------------------------------------------
// Fused WENO5 stencil kernels
// ---------------------------------------------------------------------------
//
// The WENO5 combination is 65 dependent scalar ops per element — squares of
// three-term stencils, three regularized divisions, a final normalization.
// Dispatching each through the per-op path costs 65 TLS loads and counter
// bumps per cell; fusing the whole AST into one batch call pays the
// dispatch once and lets the monomorphized rounding constant-fold through
// the entire chain. The AST below is written once, generic over a per-op
// executor, so every tier (hardware, fast/precise monomorphized, generic
// shortcut, per-element emulation, defensive mem-mode) evaluates *exactly*
// the same operations in the same order as the scalar consumers.

/// Per-op executor for the fused stencil kernels. Implementations mirror
/// one dispatch tier's semantics for a single binary op.
trait WenoExec {
    fn bin(&mut self, kind: OpKind, a: f64, b: f64) -> f64;
}

/// The Jiang–Shu WENO5 combination, op-for-op identical to
/// `hydro::recon::weno5` (INV_TAIL = false: final `/ asum`) and
/// `incomp::solver::weno5_core` (INV_TAIL = true: `inv = 1/asum`, final
/// `* inv`). Both `powi(2)` calls lower to a single self-multiply, exactly
/// like `Tracked::powi`'s square-and-multiply chain.
#[inline(always)]
fn weno5_elem<X: WenoExec, const INV_TAIL: bool>(
    x: &mut X,
    v0: f64,
    v1: f64,
    v2: f64,
    v3: f64,
    v4: f64,
) -> f64 {
    use crate::weno as w;
    // Operands go through temporaries so nested invocations finish their
    // borrow of the executor before the outer op starts.
    macro_rules! add {
        ($a:expr, $b:expr) => {{
            let (a, b) = ($a, $b);
            x.bin(OpKind::Add, a, b)
        }};
    }
    macro_rules! sub {
        ($a:expr, $b:expr) => {{
            let (a, b) = ($a, $b);
            x.bin(OpKind::Sub, a, b)
        }};
    }
    macro_rules! mul {
        ($a:expr, $b:expr) => {{
            let (a, b) = ($a, $b);
            x.bin(OpKind::Mul, a, b)
        }};
    }
    macro_rules! div {
        ($a:expr, $b:expr) => {{
            let (a, b) = ($a, $b);
            x.bin(OpKind::Div, a, b)
        }};
    }
    // Smoothness indicators.
    let b0 = {
        let q = add!(sub!(v0, mul!(2.0, v1)), v2);
        let q2 = mul!(q, q);
        let r = add!(sub!(v0, mul!(w::FOUR, v1)), mul!(w::THREE, v2));
        let r2 = mul!(r, r);
        add!(mul!(w::C13_12, q2), mul!(w::QUARTER, r2))
    };
    let b1 = {
        let q = add!(sub!(v1, mul!(2.0, v2)), v3);
        let q2 = mul!(q, q);
        let r = sub!(v1, v3);
        let r2 = mul!(r, r);
        add!(mul!(w::C13_12, q2), mul!(w::QUARTER, r2))
    };
    let b2 = {
        let q = add!(sub!(v2, mul!(2.0, v3)), v4);
        let q2 = mul!(q, q);
        let r = add!(sub!(mul!(w::THREE, v2), mul!(w::FOUR, v3)), v4);
        let r2 = mul!(r, r);
        add!(mul!(w::C13_12, q2), mul!(w::QUARTER, r2))
    };
    // Regularized nonlinear weights.
    let a0 = {
        let d = add!(w::EPS, b0);
        let d2 = mul!(d, d);
        div!(w::W0, d2)
    };
    let a1 = {
        let d = add!(w::EPS, b1);
        let d2 = mul!(d, d);
        div!(w::W1, d2)
    };
    let a2 = {
        let d = add!(w::EPS, b2);
        let d2 = mul!(d, d);
        div!(w::W2, d2)
    };
    let asum = add!(add!(a0, a1), a2);
    // Candidate polynomials.
    let p0 = add!(sub!(mul!(w::P_1_3, v0), mul!(w::P_7_6, v1)), mul!(w::P_11_6, v2));
    let p1 = add!(add!(mul!(w::P_M1_6, v1), mul!(w::P_5_6, v2)), mul!(w::P_1_3, v3));
    let p2 = sub!(add!(mul!(w::P_1_3, v2), mul!(w::P_5_6, v3)), mul!(w::P_1_6, v4));
    let num = add!(add!(mul!(a0, p0), mul!(a1, p1)), mul!(a2, p2));
    if INV_TAIL {
        let inv = div!(1.0, asum);
        mul!(num, inv)
    } else {
        div!(num, asum)
    }
}

/// Per-element op totals of [`weno5_elem`] (the `bool` is `INV_TAIL`):
/// `(add, sub, mul, div)`. The bulk counter adds below use these so the
/// session totals are exactly what the scalar consumer would have bumped.
const fn weno5_counts(inv_tail: bool) -> (u64, u64, u64, u64) {
    (19, 8, 34 + inv_tail as u64, 4)
}

/// Hardware tier: plain `f64` ops, no rounding.
struct HwExec;
impl WenoExec for HwExec {
    #[inline(always)]
    fn bin(&mut self, kind: OpKind, a: f64, b: f64) -> f64 {
        ops::raw2(kind, a, b)
    }
}

/// Monomorphized fast tier: branchless [`fast_round`] around every operand
/// and result, accumulating the shared `slow` flag. When the flag trips,
/// the caller discards the element and re-runs it through [`PreciseExec`];
/// when it doesn't, every intermediate is bit-identical to the precise
/// chain (that is the fast-round contract the chunked binary kernels
/// already rely on), so chaining is safe.
struct FastExec<const E: u32, const M: u32> {
    slow: bool,
}
impl<const E: u32, const M: u32> WenoExec for FastExec<E, M> {
    #[inline(always)]
    fn bin(&mut self, kind: OpKind, a: f64, b: f64) -> f64 {
        let r = ops::raw2(
            kind,
            fast_round::<E, M>(a, &mut self.slow),
            fast_round::<E, M>(b, &mut self.slow),
        );
        fast_round::<E, M>(r, &mut self.slow)
    }
}

/// Monomorphized precise tier: the exact `round → op → finish` short-cut
/// the scalar Soft path takes, subnormal-window guard included.
struct PreciseExec<const E: u32, const M: u32>;
impl<const E: u32, const M: u32> WenoExec for PreciseExec<E, M> {
    #[inline(always)]
    fn bin(&mut self, kind: OpKind, a: f64, b: f64) -> f64 {
        let (a, b) = (round_rne::<E, M>(a), round_rne::<E, M>(b));
        finish_guarded::<E, M>(ops::raw2(kind, a, b), || soft2::<E, M>(kind, a, b))
    }
}

/// Generic-width short-cut tier: short-cut formats outside the static
/// table.
impl WenoExec for Generic {
    #[inline(always)]
    fn bin(&mut self, kind: OpKind, a: f64, b: f64) -> f64 {
        self.op2(kind, self.round(a), self.round(b))
    }
}

/// Emulation tier: Native/Big paths, directed rounding, formats past the
/// short-cut's bound — the same per-op [`ops::emulate2`] the scalar path
/// calls, with the decision captured once.
struct EmulExec(ops::Emul);
impl WenoExec for EmulExec {
    #[inline(always)]
    fn bin(&mut self, kind: OpKind, a: f64, b: f64) -> f64 {
        ops::emulate2(self.0, kind, a, b)
    }
}

/// Defensive mem-mode tier: full per-op scalar entry points (each op
/// re-reads the dispatch and bumps its own counters), for callers that
/// ignore the [`ready`] gate.
struct OpsExec;
impl WenoExec for OpsExec {
    #[inline(always)]
    fn bin(&mut self, kind: OpKind, a: f64, b: f64) -> f64 {
        ops::op2(kind, a, b)
    }
}

/// Monomorphized fused WENO5 kernel: fast-rounded chain per element with a
/// per-element precise re-run when any rounding in the chain trips the
/// slow flag (element granularity, not chunk granularity — one subnormal
/// intermediate re-runs 65 ops, not 128 elements' worth).
fn k_weno5<const E: u32, const M: u32, const INV_TAIL: bool>(v: [&[f64]; 5], out: &mut [f64]) {
    for (i, o) in out.iter_mut().enumerate() {
        let mut fast = FastExec::<E, M> { slow: false };
        let r =
            weno5_elem::<_, INV_TAIL>(&mut fast, v[0][i], v[1][i], v[2][i], v[3][i], v[4][i]);
        *o = if fast.slow {
            weno5_elem::<_, INV_TAIL>(
                &mut PreciseExec::<E, M>,
                v[0][i],
                v[1][i],
                v[2][i],
                v[3][i],
                v[4][i],
            )
        } else {
            r
        };
    }
}

fn weno5_dispatch<const INV_TAIL: bool>(v: [&[f64]; 5], out: &mut [f64]) {
    for s in &v {
        assert_eq!(s.len(), out.len());
    }
    let n = out.len() as u64;
    let (ca, cs, cm, cd) = weno5_counts(INV_TAIL);
    FAST.with(|f| match f.dispatch.get() {
        Dispatch::None | Dispatch::Inactive => {
            for (i, o) in out.iter_mut().enumerate() {
                *o = weno5_elem::<_, INV_TAIL>(&mut HwExec, v[0][i], v[1][i], v[2][i], v[3][i], v[4][i]);
            }
        }
        Dispatch::InactiveCount => {
            f.full.bump_n(OpKind::Add, ca * n);
            f.full.bump_n(OpKind::Sub, cs * n);
            f.full.bump_n(OpKind::Mul, cm * n);
            f.full.bump_n(OpKind::Div, cd * n);
            for (i, o) in out.iter_mut().enumerate() {
                *o = weno5_elem::<_, INV_TAIL>(&mut HwExec, v[0][i], v[1][i], v[2][i], v[3][i], v[4][i]);
            }
        }
        Dispatch::Op => {
            f.trunc.bump_n(OpKind::Add, ca * n);
            f.trunc.bump_n(OpKind::Sub, cs * n);
            f.trunc.bump_n(OpKind::Mul, cm * n);
            f.trunc.bump_n(OpKind::Div, cd * n);
            if let Some(ks) = f.kernels.get() {
                (if INV_TAIL { ks.weno5_adv } else { ks.weno5 })(v, out);
            } else {
                op_weno5_fallback::<INV_TAIL>(f, v, out);
            }
        }
        Dispatch::Mem | Dispatch::MemInactive | Dispatch::MemInactiveCount => {
            for (i, o) in out.iter_mut().enumerate() {
                *o = weno5_elem::<_, INV_TAIL>(&mut OpsExec, v[0][i], v[1][i], v[2][i], v[3][i], v[4][i]);
            }
        }
    })
}

fn op_weno5_fallback<const INV_TAIL: bool>(f: &FastPath, v: [&[f64]; 5], out: &mut [f64]) {
    let emul = f.emul.get();
    if let Some(mut x) = Generic::of(emul) {
        for (i, o) in out.iter_mut().enumerate() {
            *o = weno5_elem::<_, INV_TAIL>(&mut x, v[0][i], v[1][i], v[2][i], v[3][i], v[4][i]);
        }
    } else {
        // Native included: `emulate2` funnels it to the same f32/FP64
        // double-cast the scalar path uses.
        let mut x = EmulExec(emul);
        for (i, o) in out.iter_mut().enumerate() {
            *o = weno5_elem::<_, INV_TAIL>(&mut x, v[0][i], v[1][i], v[2][i], v[3][i], v[4][i]);
        }
    }
}

macro_rules! kernel_set {
    ($e:literal, $m:literal) => {{
        const KS: KernelSet = KernelSet {
            bin: k_bin::<$e, $m>,
            bin_s: k_bin_s::<$e, $m>,
            bin_rs: k_bin_rs::<$e, $m>,
            sqrt: k_sqrt::<$e, $m>,
            fma: k_fma::<$e, $m>,
            weno5: k_weno5::<$e, $m, false>,
            weno5_adv: k_weno5::<$e, $m, true>,
        };
        &KS
    }};
}

/// The static dispatch table: the shipped format ladder (fp8 variants,
/// fp16, bf16, tf32-shaped e8m10, fp32, the paper's e5m14, and the e11
/// mantissa-truncation ladder the campaigns bisect, up to the default
/// ladder's `e11m20`). Every entry double-rounds innocuously
/// ([`DoubleRound::Safe`]) except `e11m20`, which is
/// [`DoubleRound::Guarded`]: its fast tier already flags every
/// `f64`-subnormal operand or result, and its precise re-runs keep the
/// scalar guard. Short-cut formats outside the table use the
/// generic-width loop instead.
fn kernel_table(e: u32, m: u32) -> Option<&'static KernelSet> {
    Some(match (e, m) {
        (4, 3) => kernel_set!(4, 3),
        (5, 2) => kernel_set!(5, 2),
        (5, 10) => kernel_set!(5, 10),
        (5, 14) => kernel_set!(5, 14),
        (8, 7) => kernel_set!(8, 7),
        (8, 10) => kernel_set!(8, 10),
        (8, 23) => kernel_set!(8, 23),
        (11, 4) => kernel_set!(11, 4),
        (11, 6) => kernel_set!(11, 6),
        (11, 8) => kernel_set!(11, 8),
        (11, 10) => kernel_set!(11, 10),
        (11, 12) => kernel_set!(11, 12),
        (11, 14) => kernel_set!(11, 14),
        (11, 16) => kernel_set!(11, 16),
        (11, 20) => kernel_set!(11, 20),
        _ => return None,
    })
}

/// Resolve an op-mode decision to its monomorphized kernel set, if it
/// takes the hardware short-cut (Soft path, round to nearest even, a
/// format whose double rounding is innocuous or guarded) and the format
/// is in the static table. Called from `ActiveCtx::publish`.
pub(crate) fn kernels_for(emul: ops::Emul) -> Option<&'static KernelSet> {
    if emul.dr == DoubleRound::Unsafe {
        return None;
    }
    kernel_table(emul.fmt.exp_bits(), emul.fmt.man_bits())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::context::Session;
    use bigfloat::Format;

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    #[test]
    fn no_session_is_hardware() {
        let a = [0.1, 0.2, 0.3];
        let b = [1.0, 2.0, 3.0];
        let mut out = [0.0; 3];
        batch_add(&a, &b, &mut out);
        assert_eq!(out, [0.1 + 1.0, 0.2 + 2.0, 0.3 + 3.0]);
        batch_sqrt(&b, &mut out);
        assert_eq!(out[1], 2f64.sqrt());
    }

    #[test]
    fn op_mode_matches_scalar_path_bitwise() {
        let mut state = 1u64;
        let mut a = vec![0.0; 257];
        let mut b = vec![0.0; 257];
        for i in 0..a.len() {
            a[i] = f64::from_bits(splitmix(&mut state));
            b[i] = f64::from_bits(splitmix(&mut state));
        }
        let formats = [
            Format::FP16,
            Format::new(11, 12),
            Format::new(11, 20),
            Format::new(11, 22),
            Format::new(11, 30),
        ];
        for fmt in formats {
            let s = Session::new(Config::op_all(fmt)).unwrap();
            let _g = s.install();
            let mut out = vec![0.0; a.len()];
            for kind in [OpKind::Add, OpKind::Sub, OpKind::Mul, OpKind::Div] {
                bin(kind, &a, &b, &mut out);
                for i in 0..a.len() {
                    let want = crate::ops::op2(kind, a[i], b[i]);
                    assert_eq!(
                        out[i].to_bits(),
                        want.to_bits(),
                        "{fmt:?} {kind:?} lane {i}: {} vs {}",
                        out[i],
                        want
                    );
                }
            }
        }
    }

    #[test]
    fn bulk_counters_match_scalar_counts() {
        let fmt = Format::FP16;
        let s = Session::new(Config::op_functions(fmt, ["K"]).with_counting()).unwrap();
        let g = s.install();
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [0.5; 4];
        let mut out = [0.0; 4];
        {
            let _r = crate::context::region("K");
            batch_mul(&a, &b, &mut out); // 4 trunc muls
        }
        batch_add(&a, &b, &mut out); // 4 full adds (counted, inactive)
        drop(g);
        let c = s.counters();
        assert_eq!(c.trunc.mul, 4);
        assert_eq!(c.full.add, 4);
    }

    #[test]
    fn broadcast_variants_match_elementwise() {
        let fmt = Format::new(11, 8);
        let s = Session::new(Config::op_all(fmt)).unwrap();
        let _g = s.install();
        let a = [0.1, -7.25, 1e20, f64::NAN, 5e-310];
        let k = 0.7;
        let mut got = [0.0; 5];
        batch_mul_s(&a, k, &mut got);
        for i in 0..a.len() {
            let want = crate::ops::op2(OpKind::Mul, a[i], k);
            assert_eq!(got[i].to_bits(), want.to_bits());
        }
        batch_rdiv_s(k, &a, &mut got);
        for i in 0..a.len() {
            let want = crate::ops::op2(OpKind::Div, k, a[i]);
            assert_eq!(got[i].to_bits(), want.to_bits());
        }
        batch_radd_s(k, &a, &mut got);
        for i in 0..a.len() {
            let want = crate::ops::op2(OpKind::Add, k, a[i]);
            assert_eq!(got[i].to_bits(), want.to_bits());
        }
    }

    /// Scalar oracle for the fused kernels: the same AST element by
    /// element through the per-op scalar entry points.
    fn weno5_scalar<const INV_TAIL: bool>(v: [&[f64]; 5], out: &mut [f64]) {
        for (i, o) in out.iter_mut().enumerate() {
            *o = weno5_elem::<_, INV_TAIL>(&mut OpsExec, v[0][i], v[1][i], v[2][i], v[3][i], v[4][i]);
        }
    }

    fn random_windows(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed;
        // Mostly smooth data with raw-bit outliers sprinkled in, so both
        // the fast chain and the precise re-run (inf/NaN/subnormal
        // intermediates) are exercised.
        (0..n + 5)
            .map(|i| {
                let r = splitmix(&mut state);
                if i % 7 == 3 {
                    f64::from_bits(r)
                } else {
                    (r >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 2.0
                }
            })
            .collect()
    }

    #[test]
    fn fused_weno5_matches_scalar_composition_bitwise() {
        let w = random_windows(193, 42);
        let n = w.len() - 5;
        let win = |s: usize| &w[s..s + n];
        let v = [win(0), win(1), win(2), win(3), win(4)];
        // Monomorphized table, generic-width fallback, and a directed
        // rounding mode that forces per-element emulation — plus the
        // no-session hardware tier.
        let mut configs = vec![
            Config::op_all(Format::FP16),
            Config::op_all(Format::new(11, 12)),
            // Safe format outside the static table (generic-width
            // short-cut), the guarded table format, a guarded format
            // outside the table, and a wide format past the double-round
            // bound (per-element emulation).
            Config::op_all(Format::new(11, 5)),
            Config::op_all(Format::new(11, 20)),
            Config::op_all(Format::new(11, 22)),
            Config::op_all(Format::new(11, 30)),
        ];
        let mut directed = Config::op_all(Format::new(11, 12));
        directed.round = RoundMode::TowardZero;
        configs.push(directed);
        for cfg in configs {
            let s = Session::new(cfg).unwrap();
            let _g = s.install();
            let mut got = vec![0.0; n];
            let mut want = vec![0.0; n];
            batch_weno5(v[0], v[1], v[2], v[3], v[4], &mut got);
            weno5_scalar::<false>(v, &mut want);
            for i in 0..n {
                assert_eq!(got[i].to_bits(), want[i].to_bits(), "hydro tail, lane {i}");
            }
            batch_weno5_adv(v[0], v[1], v[2], v[3], v[4], &mut got);
            weno5_scalar::<true>(v, &mut want);
            for i in 0..n {
                assert_eq!(got[i].to_bits(), want[i].to_bits(), "incomp tail, lane {i}");
            }
        }
        let mut hw = vec![0.0; n];
        let mut hw_want = vec![0.0; n];
        batch_weno5(v[0], v[1], v[2], v[3], v[4], &mut hw);
        weno5_scalar::<false>(v, &mut hw_want);
        for i in 0..n {
            assert_eq!(hw[i].to_bits(), hw_want[i].to_bits(), "hardware tier, lane {i}");
        }
    }

    #[test]
    fn fused_weno5_counter_parity_with_scalar() {
        let w = random_windows(67, 7);
        let n = w.len() - 5;
        let win = |s: usize| &w[s..s + n];
        let v = [win(0), win(1), win(2), win(3), win(4)];
        let run = |fused: bool, inv_tail: bool| {
            let s = Session::new(Config::op_functions(Format::FP16, ["K"]).with_counting())
                .unwrap();
            let g = s.install();
            let mut out = vec![0.0; n];
            {
                let _r = crate::context::region("K");
                match (fused, inv_tail) {
                    (true, false) => batch_weno5(v[0], v[1], v[2], v[3], v[4], &mut out),
                    (true, true) => batch_weno5_adv(v[0], v[1], v[2], v[3], v[4], &mut out),
                    (false, false) => weno5_scalar::<false>(v, &mut out),
                    (false, true) => weno5_scalar::<true>(v, &mut out),
                }
            }
            // An inactive fused call must bulk-count full ops like the
            // scalar chain would.
            match (fused, inv_tail) {
                (true, false) => batch_weno5(v[0], v[1], v[2], v[3], v[4], &mut out),
                (true, true) => batch_weno5_adv(v[0], v[1], v[2], v[3], v[4], &mut out),
                (false, false) => weno5_scalar::<false>(v, &mut out),
                (false, true) => weno5_scalar::<true>(v, &mut out),
            }
            drop(g);
            s.counters()
        };
        for inv_tail in [false, true] {
            let fused = run(true, inv_tail);
            let scalar = run(false, inv_tail);
            assert_eq!(fused, scalar, "inv_tail={inv_tail}");
            let (ca, cs, cm, cd) = weno5_counts(inv_tail);
            assert_eq!(fused.trunc.add, ca * n as u64);
            assert_eq!(fused.trunc.sub, cs * n as u64);
            assert_eq!(fused.trunc.mul, cm * n as u64);
            assert_eq!(fused.trunc.div, cd * n as u64);
            assert_eq!(fused.full.div, cd * n as u64);
        }
    }

    #[test]
    fn batch_log10_matches_scalar_and_counts() {
        let mut state = 3u64;
        let a: Vec<f64> = (0..129)
            .map(|i| {
                let r = splitmix(&mut state);
                if i % 5 == 0 {
                    f64::from_bits(r)
                } else {
                    (r >> 11) as f64 / (1u64 << 40) as f64 + 1e-3
                }
            })
            .collect();
        let mut directed = Config::op_all(Format::new(11, 12));
        directed.round = RoundMode::TowardZero;
        for cfg in [
            Config::op_all(Format::FP16),
            Config::op_all(Format::new(11, 20)),
            directed,
        ] {
            let s = Session::new(cfg.with_counting()).unwrap();
            let g = s.install();
            let mut got = vec![0.0; a.len()];
            batch_log10(&a, &mut got);
            for (i, (&y, &x)) in got.iter().zip(&a).enumerate() {
                let want = crate::ops::op_math(crate::ops::MathFn::Log10, x);
                assert_eq!(y.to_bits(), want.to_bits(), "lane {i}");
            }
            drop(g);
            // One bulk count for the batch call + one per-element bump each
            // from the oracle loop.
            assert_eq!(s.counters().trunc.math, 2 * a.len() as u64);
        }
    }

    #[test]
    fn ready_reflects_mode_and_force_toggle() {
        assert!(ready(), "no session: batch loops are plain hardware");
        {
            let s = Session::new(Config::op_all(Format::FP16)).unwrap();
            let _g = s.install();
            assert!(ready());
            set_force_scalar(true);
            assert!(!ready());
            set_force_scalar(false);
        }
        let s = Session::new(Config::mem_functions(Format::FP16, ["K"], 1e-6)).unwrap();
        let _g = s.install();
        assert!(!ready(), "mem-mode needs per-op source locations");
    }
}
