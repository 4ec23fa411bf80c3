//! The runtime operations the "instrumented" arithmetic calls into —
//! the Rust analog of `_raptor_add_f32(a, b, to_e, to_m, loc)` in Fig. 5.
//!
//! Every [`crate::Tracked`] arithmetic operator funnels through [`op2`],
//! [`op_sqrt`], [`op_fma`], [`op_math`] and friends. Dispatch reads the
//! per-thread *decision cache* ([`crate::context`]): the resolved
//! `(region, level) → {mode, format, counting}` outcome is plain `Cell`
//! data, so the common op is a thread-local load, a branch, and either a
//! hardware instruction or a SoftFloat kernel call — no `RefCell` borrow,
//! no lock. Emulation paths:
//!
//! * `Soft` — operands are rounded into the target format and the operation
//!   is performed by the single-rounding [`Format`] arithmetic (the
//!   scratch-optimised path; Fig. 4b).
//! * `Big` — the same computation driven through limb-vector
//!   [`BigFloat`] values, mirroring the naive `mpfr_init2`-per-op runtime
//!   (Fig. 5a) that Table 3 compares against.
//! * `Native` — hardware f32 (or f64 identity) arithmetic: RAPTOR's
//!   zero-overhead "hardware types" path, which also models the GPU
//!   restriction to native formats.
//!
//! mem-mode ops go through the slow path: they need the thread's shadow
//! shard and `#[track_caller]` source locations.

use crate::config::{Config, EmulPath};
use crate::context::{ActiveCtx, Dispatch, FastPath, ACTIVE, FAST};
use crate::counters::OpKind;
use crate::memmode::{self, rel_deviation, Lookup, MemParams, Slot, SlotVal};
use bigfloat::kernel::is_tie_core;
use bigfloat::{BigFloat, DoubleRound, Format, RoundMode, SoftFloat};
use std::panic::Location;

/// Math-library functions the runtime understands (paper §7.3: "not all
/// elementary functions are implemented, but adding additional functions is
/// trivial if MPFR already supports them" — same story here with
/// `SoftFloat`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum MathFn {
    Exp,
    Exp2,
    ExpM1,
    Ln,
    Ln1p,
    Log2,
    Log10,
    Sin,
    Cos,
    Tan,
    Asin,
    Acos,
    Atan,
    Sinh,
    Cosh,
    Tanh,
    Cbrt,
    Floor,
    Ceil,
    Trunc,
    Round,
}

impl MathFn {
    pub(crate) fn eval_f64(self, x: f64) -> f64 {
        match self {
            MathFn::Exp => x.exp(),
            MathFn::Exp2 => x.exp2(),
            MathFn::ExpM1 => x.exp_m1(),
            MathFn::Ln => x.ln(),
            MathFn::Ln1p => x.ln_1p(),
            MathFn::Log2 => x.log2(),
            MathFn::Log10 => x.log10(),
            MathFn::Sin => x.sin(),
            MathFn::Cos => x.cos(),
            MathFn::Tan => x.tan(),
            MathFn::Asin => x.asin(),
            MathFn::Acos => x.acos(),
            MathFn::Atan => x.atan(),
            MathFn::Sinh => x.sinh(),
            MathFn::Cosh => x.cosh(),
            MathFn::Tanh => x.tanh(),
            MathFn::Cbrt => x.cbrt(),
            MathFn::Floor => x.floor(),
            MathFn::Ceil => x.ceil(),
            MathFn::Trunc => x.trunc(),
            MathFn::Round => x.round(),
        }
    }

    fn eval_soft(self, x: &SoftFloat, prec: u32, rm: RoundMode) -> SoftFloat {
        match self {
            MathFn::Exp => x.exp(prec, rm),
            MathFn::Exp2 => x.exp2(prec, rm),
            MathFn::ExpM1 => x.exp_m1(prec, rm),
            MathFn::Ln => x.ln(prec, rm),
            MathFn::Ln1p => x.ln_1p(prec, rm),
            MathFn::Log2 => x.log2(prec, rm),
            MathFn::Log10 => x.log10(prec, rm),
            MathFn::Sin => x.sin(prec, rm),
            MathFn::Cos => x.cos(prec, rm),
            MathFn::Tan => x.tan(prec, rm),
            MathFn::Asin => x.asin(prec, rm),
            MathFn::Acos => x.acos(prec, rm),
            MathFn::Atan => x.atan(prec, rm),
            MathFn::Sinh => x.sinh(prec, rm),
            MathFn::Cosh => x.cosh(prec, rm),
            MathFn::Tanh => x.tanh(prec, rm),
            MathFn::Cbrt => x.cbrt(prec, rm),
            MathFn::Floor => x.floor(prec, rm),
            MathFn::Ceil => x.ceil(prec, rm),
            MathFn::Trunc => x.trunc_int(prec, rm),
            MathFn::Round => x.round_int(prec, rm),
        }
    }
}

#[inline(always)]
pub(crate) fn raw2(kind: OpKind, a: f64, b: f64) -> f64 {
    match kind {
        OpKind::Add => a + b,
        OpKind::Sub => a - b,
        OpKind::Mul => a * b,
        OpKind::Div => a / b,
        _ => unreachable!("raw2 handles binary arithmetic only"),
    }
}

/// Binary arithmetic entry point.
#[inline]
#[track_caller]
pub fn op2(kind: OpKind, a: f64, b: f64) -> f64 {
    let loc = std::panic::Location::caller();
    FAST.with(|f| match f.dispatch.get() {
        Dispatch::None | Dispatch::Inactive => raw2(kind, a, b),
        Dispatch::InactiveCount => {
            f.full.bump(kind);
            raw2(kind, a, b)
        }
        Dispatch::Op => {
            f.trunc.bump(kind);
            emulate2(f.emul.get(), kind, a, b)
        }
        Dispatch::Mem => with_mem(f, |act| {
            f.trunc.bump(kind);
            mem_op2(act, kind, a, b, loc)
        }),
        Dispatch::MemInactive => raw2(kind, resolve_fast(f, a), resolve_fast(f, b)),
        Dispatch::MemInactiveCount => {
            f.full.bump(kind);
            raw2(kind, resolve_fast(f, a), resolve_fast(f, b))
        }
    })
}

/// Square-root entry point.
#[inline]
#[track_caller]
pub fn op_sqrt(a: f64) -> f64 {
    let loc = std::panic::Location::caller();
    FAST.with(|f| match f.dispatch.get() {
        Dispatch::None | Dispatch::Inactive => a.sqrt(),
        Dispatch::InactiveCount => {
            f.full.bump(OpKind::Sqrt);
            a.sqrt()
        }
        Dispatch::Op => {
            f.trunc.bump(OpKind::Sqrt);
            emulate_sqrt(f.emul.get(), a)
        }
        Dispatch::Mem => with_mem(f, |act| {
            f.trunc.bump(OpKind::Sqrt);
            mem_sqrt(act, a, loc)
        }),
        Dispatch::MemInactive => resolve_fast(f, a).sqrt(),
        Dispatch::MemInactiveCount => {
            f.full.bump(OpKind::Sqrt);
            resolve_fast(f, a).sqrt()
        }
    })
}

/// Fused multiply-add entry point (`a * b + c`).
#[inline]
#[track_caller]
pub fn op_fma(a: f64, b: f64, c: f64) -> f64 {
    let loc = std::panic::Location::caller();
    FAST.with(|f| match f.dispatch.get() {
        Dispatch::None | Dispatch::Inactive => a.mul_add(b, c),
        Dispatch::InactiveCount => {
            f.full.bump(OpKind::Fma);
            a.mul_add(b, c)
        }
        Dispatch::Op => {
            f.trunc.bump(OpKind::Fma);
            emulate_fma(f.emul.get(), a, b, c)
        }
        Dispatch::Mem => with_mem(f, |act| {
            f.trunc.bump(OpKind::Fma);
            mem_fma(act, a, b, c, loc)
        }),
        Dispatch::MemInactive => {
            resolve_fast(f, a).mul_add(resolve_fast(f, b), resolve_fast(f, c))
        }
        Dispatch::MemInactiveCount => {
            f.full.bump(OpKind::Fma);
            resolve_fast(f, a).mul_add(resolve_fast(f, b), resolve_fast(f, c))
        }
    })
}

/// Math-library entry point.
#[inline]
#[track_caller]
pub fn op_math(func: MathFn, a: f64) -> f64 {
    let loc = std::panic::Location::caller();
    FAST.with(|f| match f.dispatch.get() {
        Dispatch::None | Dispatch::Inactive => func.eval_f64(a),
        Dispatch::InactiveCount => {
            f.full.bump(OpKind::Math);
            func.eval_f64(a)
        }
        Dispatch::Op => {
            f.trunc.bump(OpKind::Math);
            emulate_math(f.emul.get(), func, a)
        }
        Dispatch::Mem => with_mem(f, |act| {
            f.trunc.bump(OpKind::Math);
            mem_math(act, func, a, loc)
        }),
        Dispatch::MemInactive => func.eval_f64(resolve_fast(f, a)),
        Dispatch::MemInactiveCount => {
            f.full.bump(OpKind::Math);
            func.eval_f64(resolve_fast(f, a))
        }
    })
}

/// Binary power `a^b` (counted as a math call).
#[inline]
#[track_caller]
pub fn op_powf(a: f64, b: f64) -> f64 {
    let loc = std::panic::Location::caller();
    FAST.with(|f| match f.dispatch.get() {
        Dispatch::None | Dispatch::Inactive => a.powf(b),
        Dispatch::InactiveCount => {
            f.full.bump(OpKind::Math);
            a.powf(b)
        }
        Dispatch::Op => {
            f.trunc.bump(OpKind::Math);
            let Emul { fmt, rm, path, .. } = f.emul.get();
            match path {
                EmulPath::Native => native_pow(fmt, a, b),
                _ => {
                    let p = fmt.precision();
                    let sa = SoftFloat::from_f64(fmt.round_f64(a, rm));
                    let sb = SoftFloat::from_f64(fmt.round_f64(b, rm));
                    fmt.round_soft(&sa.pow(&sb, p, rm), rm).to_f64()
                }
            }
        }
        Dispatch::Mem => with_mem(f, |act| {
            f.trunc.bump(OpKind::Math);
            mem_pow(act, a, b, loc)
        }),
        Dispatch::MemInactive => resolve_fast(f, a).powf(resolve_fast(f, b)),
        Dispatch::MemInactiveCount => {
            f.full.bump(OpKind::Math);
            resolve_fast(f, a).powf(resolve_fast(f, b))
        }
    })
}

/// Exact sign manipulations (not counted as FP ops, never rounded).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SignOp {
    /// Negation.
    Neg,
    /// Absolute value.
    Abs,
}

#[inline(always)]
fn raw_sign(a: f64, op: SignOp) -> f64 {
    match op {
        SignOp::Neg => -a,
        SignOp::Abs => a.abs(),
    }
}

/// Sign operation entry point. Exact: no rounding, no op count, no flag —
/// but in mem-mode it must still produce a fresh shadow slot so the
/// truncated value and the FP64 shadow both carry the sign change.
#[inline]
pub fn op_sign(a: f64, op: SignOp) -> f64 {
    FAST.with(|f| match f.dispatch.get() {
        Dispatch::Mem => with_mem(f, |act| {
            if act.active {
                if let Lookup::Slot(s) = act.mem.lookup(a) {
                    let slot = match op {
                        SignOp::Neg => Slot { val: s.val.neg(), shadow: -s.shadow },
                        SignOp::Abs => Slot { val: s.val.abs(), shadow: s.shadow.abs() },
                    };
                    return act.mem.push(slot);
                }
            }
            raw_sign(act.mem.value_of(a), op)
        }),
        _ => raw_sign(a, op),
    })
}

/// Two-argument arctangent entry point (quadrant-aware math call).
#[inline]
#[track_caller]
pub fn op_atan2(y: f64, x: f64) -> f64 {
    let loc = std::panic::Location::caller();
    FAST.with(|f| match f.dispatch.get() {
        Dispatch::None | Dispatch::Inactive => y.atan2(x),
        Dispatch::InactiveCount => {
            f.full.bump(OpKind::Math);
            y.atan2(x)
        }
        Dispatch::Op => {
            f.trunc.bump(OpKind::Math);
            let Emul { fmt, rm, path, .. } = f.emul.get();
            match path {
                EmulPath::Native => {
                    if fmt == Format::FP64 {
                        y.atan2(x)
                    } else {
                        ((y as f32).atan2(x as f32)) as f64
                    }
                }
                _ => {
                    let sy = SoftFloat::from_f64(fmt.round_f64(y, rm));
                    let sx = SoftFloat::from_f64(fmt.round_f64(x, rm));
                    fmt.round_soft(&sy.atan2(&sx, fmt.precision(), rm), rm).to_f64()
                }
            }
        }
        Dispatch::MemInactive => resolve_fast(f, y).atan2(resolve_fast(f, x)),
        Dispatch::MemInactiveCount => {
            f.full.bump(OpKind::Math);
            resolve_fast(f, y).atan2(resolve_fast(f, x))
        }
        Dispatch::Mem => with_mem(f, |act| {
            f.trunc.bump(OpKind::Math);
            let p = &act.mem_params;
            let (vy, shy) = act.mem.resolve(y, p);
            let (vx, shx) = act.mem.resolve(x, p);
            let val = p.make_val(vy.to_f64().atan2(vx.to_f64()));
            mem_finish(act, val, shy.atan2(shx), loc)
        }),
    })
}

/// Resolve a possible mem-mode handle into its truncated value (identity
/// for raw values and in op-mode). Used when values escape the truncated
/// region into untruncated arithmetic or comparisons.
#[inline]
pub fn resolve(x: f64) -> f64 {
    FAST.with(|f| match f.dispatch.get() {
        Dispatch::Mem => with_mem(f, |act| act.mem.value_of(x)),
        Dispatch::MemInactive | Dispatch::MemInactiveCount => resolve_fast(f, x),
        _ => x,
    })
}

/// Resolve a carrier value without borrowing the shard unless the bit
/// pattern actually is a NaN-boxed handle. This is the hoisted inactive
/// mem-mode fast path: for plain values it costs one bit test.
#[inline(always)]
fn resolve_fast(f: &FastPath, x: f64) -> f64 {
    if memmode::is_handle(x) {
        resolve_handle(f, x)
    } else {
        x
    }
}

/// The shard lookup behind [`resolve_fast`], out of line so that the
/// plain-value path inlines as the bit test alone.
#[cold]
#[inline(never)]
fn resolve_handle(f: &FastPath, x: f64) -> f64 {
    with_mem(f, |act| act.mem.value_of(x))
}

/// Run a closure against the slow-path context. Only called when the
/// decision cache says `Dispatch::Mem`, which implies a session is
/// installed on this thread.
#[inline]
fn with_mem<R>(_f: &FastPath, body: impl FnOnce(&mut ActiveCtx) -> R) -> R {
    ACTIVE.with(|cell| {
        let mut slot = cell.borrow_mut();
        let act = slot.as_mut().expect("Mem dispatch implies an installed session");
        body(act)
    })
}

// ---------------------------------------------------------------------------
// op-mode emulation
// ---------------------------------------------------------------------------

/// An op-mode decision as the emulation functions consume it, resolved
/// once per publish and cached in the decision cache.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Emul {
    pub(crate) fmt: Format,
    pub(crate) rm: RoundMode,
    /// The resolved path: never [`EmulPath::Auto`].
    pub(crate) path: EmulPath,
    /// The hardware short-cut's tier on the `Soft` path; `Unsafe` (no
    /// short-cut) on the others. See [`shortcut`].
    pub(crate) dr: DoubleRound,
}

impl Emul {
    /// The decision cache's value before any publish.
    pub(crate) const FP64: Emul = Emul {
        fmt: Format::FP64,
        rm: RoundMode::NearestEven,
        path: EmulPath::Native,
        dr: DoubleRound::Unsafe,
    };

    pub(crate) fn of(cfg: &Config) -> Emul {
        let path = cfg.resolved_path();
        let dr = if path == EmulPath::Soft {
            shortcut(cfg.format, cfg.round)
        } else {
            DoubleRound::Unsafe
        };
        Emul { fmt: cfg.format, rm: cfg.round, path, dr }
    }
}

/// Which hardware short-cut single-rounding `fmt` arithmetic under `rm`
/// may take: round the operands, one hardware op, round the result.
/// Innocuous double rounding is a round-to-nearest-even property
/// (Figueroa's `2p + 2 <= 53` bound), so directed modes never take it;
/// [`DoubleRound::Guarded`] formats take it for every result outside the
/// `f64` subnormal window ([`Format::double_round`]).
pub(crate) fn shortcut(fmt: Format, rm: RoundMode) -> DoubleRound {
    if rm == RoundMode::NearestEven {
        fmt.double_round()
    } else {
        DoubleRound::Unsafe
    }
}

fn native2(fmt: Format, kind: OpKind, a: f64, b: f64) -> f64 {
    if fmt == Format::FP64 {
        return raw2(kind, a, b);
    }
    debug_assert_eq!(fmt, Format::FP32);
    let (fa, fb) = (a as f32, b as f32);
    (match kind {
        OpKind::Add => fa + fb,
        OpKind::Sub => fa - fb,
        OpKind::Mul => fa * fb,
        OpKind::Div => fa / fb,
        _ => unreachable!(),
    }) as f64
}

fn native_pow(fmt: Format, a: f64, b: f64) -> f64 {
    if fmt == Format::FP64 {
        a.powf(b)
    } else {
        ((a as f32).powf(b as f32)) as f64
    }
}

#[inline]
pub(crate) fn emulate2(e: Emul, kind: OpKind, a: f64, b: f64) -> f64 {
    let Emul { fmt, rm, path, dr } = e;
    match path {
        EmulPath::Native => native2(fmt, kind, a, b),
        EmulPath::Big => {
            // Naive path: per-op arbitrary-precision values, the
            // mpfr_init2/mpfr_clear analog (Fig. 5a). The op runs at
            // working precision toward zero plus an away-rounded twin —
            // the analog of MPFR's ternary flag — so the single rounding
            // into the format (incl. its subnormal range) is exact.
            let ba = BigFloat::from_f64(fmt.round_f64(a, rm));
            let bb = BigFloat::from_f64(fmt.round_f64(b, rm));
            let (tz, sticky) = match kind {
                OpKind::Add => ba.add_ix(&bb, 64, RoundMode::TowardZero),
                OpKind::Sub => ba.sub_ix(&bb, 64, RoundMode::TowardZero),
                OpKind::Mul => ba.mul_ix(&bb, 64, RoundMode::TowardZero),
                OpKind::Div => ba.div_ix(&bb, 64, RoundMode::TowardZero),
                _ => unreachable!(),
            };
            if tz.is_zero() && !sticky {
                // Exact cancellation: the zero's sign follows the *final*
                // rounding direction; redo the exact-zero op under it.
                let z = match kind {
                    OpKind::Add => ba.add(&bb, 1, rm),
                    OpKind::Sub => ba.sub(&bb, 1, rm),
                    OpKind::Mul => ba.mul(&bb, 1, rm),
                    OpKind::Div => ba.div(&bb, 1, rm),
                    _ => unreachable!(),
                };
                return z.to_f64();
            }
            fmt.round_soft_sticky(&tz.to_soft(), sticky, rm).to_f64()
        }
        _ => fmt_op2(fmt, rm, dr, kind, fmt.round_f64(a, rm), fmt.round_f64(b, rm)),
    }
}

/// The `Soft` path of [`emulate2`] on operands already rounded into
/// `fmt`, with `dr` its [`shortcut`] tier (mem-mode's `Fmt` slots call it
/// directly).
#[inline(always)]
pub(crate) fn fmt_op2(
    fmt: Format,
    rm: RoundMode,
    dr: DoubleRound,
    kind: OpKind,
    a: f64,
    b: f64,
) -> f64 {
    // Hardware short-cut: where double rounding through f64 is provably
    // innocuous, the bit-identical result costs one hardware op and a
    // bit-twiddled rounding — no SoftFloat at all.
    if dr != DoubleRound::Unsafe {
        return finish_shortcut(
            raw2(kind, a, b),
            dr == DoubleRound::Guarded,
            |r| fmt.round_f64(r, rm),
            || soft_op2(fmt, rm, kind, a, b),
        );
    }
    soft_op2(fmt, rm, kind, a, b)
}

/// Finish one hardware short-cut op from its `f64` result `r`:
/// canonicalize NaN (hardware may produce a negative quiet NaN, x86's
/// "indefinite"; the soft kernels emit the canonical positive one), then
/// the final rounding `round` — unless the format is `guarded` and `r`
/// lies in the `f64` subnormal window ([`DoubleRound::in_window`]), where
/// `soft` recomputes the op with a single rounding. Every scalar guarded
/// short-cut ends here; the batch tier's exact executor does the same
/// with its own rounding and re-runs a window result's chunk through
/// this path.
#[inline(always)]
fn finish_shortcut(
    r: f64,
    guarded: bool,
    round: impl FnOnce(f64) -> f64,
    soft: impl FnOnce() -> f64,
) -> f64 {
    if r.is_nan() {
        f64::NAN
    } else if guarded && DoubleRound::in_window(r) {
        soft()
    } else {
        round(r)
    }
}

/// The single-rounding `SoftFloat` kernel behind [`fmt_op2`], on operands
/// already rounded into `fmt`: allocation-free format ops (scratch-pad
/// analog, Fig. 4b).
#[inline]
fn soft_op2(fmt: Format, rm: RoundMode, kind: OpKind, a: f64, b: f64) -> f64 {
    let sa = SoftFloat::from_f64(a);
    let sb = SoftFloat::from_f64(b);
    let r = match kind {
        OpKind::Add => fmt.add(&sa, &sb, rm),
        OpKind::Sub => fmt.sub(&sa, &sb, rm),
        OpKind::Mul => fmt.mul(&sa, &sb, rm),
        OpKind::Div => fmt.div(&sa, &sb, rm),
        _ => unreachable!(),
    };
    r.to_f64()
}

#[inline]
pub(crate) fn emulate_sqrt(e: Emul, a: f64) -> f64 {
    let Emul { fmt, rm, path, dr } = e;
    match path {
        EmulPath::Native => {
            if fmt == Format::FP64 {
                a.sqrt()
            } else {
                ((a as f32).sqrt()) as f64
            }
        }
        EmulPath::Big => {
            let ba = BigFloat::from_f64(fmt.round_f64(a, rm));
            let (tz, sticky) = ba.sqrt_ix(63, RoundMode::TowardZero);
            fmt.round_soft_sticky(&tz.to_soft(), sticky, rm).to_f64()
        }
        _ => fmt_sqrt(fmt, rm, dr, fmt.round_f64(a, rm)),
    }
}

/// The `Soft` path of [`emulate_sqrt`] on an operand already rounded into
/// `fmt`.
#[inline(always)]
pub(crate) fn fmt_sqrt(fmt: Format, rm: RoundMode, dr: DoubleRound, a: f64) -> f64 {
    // Same innocuous-double-rounding short-cut as fmt_op2: f64 sqrt is
    // correctly rounded, and needs no guard — the square root of a value
    // of at least 2^-1074 is at least 2^-537, far above the subnormal
    // window.
    if dr != DoubleRound::Unsafe {
        let r = a.sqrt();
        if r.is_nan() {
            return f64::NAN;
        }
        return fmt.round_f64(r, rm);
    }
    fmt.sqrt(&SoftFloat::from_f64(a), rm).to_f64()
}

#[inline]
fn emulate_fma(e: Emul, a: f64, b: f64, c: f64) -> f64 {
    let Emul { fmt, rm, path, dr } = e;
    match path {
        EmulPath::Native => {
            if fmt == Format::FP64 {
                a.mul_add(b, c)
            } else {
                ((a as f32).mul_add(b as f32, c as f32)) as f64
            }
        }
        EmulPath::Big => {
            // Naive oracle: exact product through BigFloat, sticky add,
            // single rounding — never takes the hardware shortcut, so it
            // stays an independent reference for the Soft path below.
            let ba = BigFloat::from_f64(fmt.round_f64(a, rm));
            let bb = BigFloat::from_f64(fmt.round_f64(b, rm));
            let bc = BigFloat::from_f64(fmt.round_f64(c, rm));
            let prod = ba.mul(&bb, 128, RoundMode::NearestEven); // exact: 64+64 bits
            let (tz, sticky) = prod.add_ix(&bc, 64, RoundMode::TowardZero);
            if tz.is_zero() && !sticky {
                // Exact-zero fma: sign per the final rounding direction.
                return prod.add(&bc, 1, rm).to_f64();
            }
            fmt.round_soft_sticky(&tz.to_soft(), sticky, rm).to_f64()
        }
        _ => {
            let (a, b, c) = (fmt.round_f64(a, rm), fmt.round_f64(b, rm), fmt.round_f64(c, rm));
            fmt_fma(fmt, rm, dr, a, b, c)
        }
    }
}

/// The `Soft` path of [`emulate_fma`] on operands already rounded into
/// `fmt`.
#[inline(always)]
pub(crate) fn fmt_fma(fmt: Format, rm: RoundMode, dr: DoubleRound, a: f64, b: f64, c: f64) -> f64 {
    // Hardware short-cut, guarded by ties rather than by the 2p+2 bound:
    // an fma's exact value has no 2p-bit bound (a product on a format
    // tie plus a tiny addend rounds onto the tie in f64, and the second
    // rounding then breaks it to even, away from the exact value). Every
    // tie of a short-cut format is an f64 value, so a hardware result off
    // the ties lies strictly between the same two ties as the exact
    // value and rounds the same way — in the f64 subnormal window too.
    // Results on a tie re-run through the exact kernel. Differentially
    // tested against the naive path in tests/fastpath.rs.
    if dr != DoubleRound::Unsafe {
        let r = a.mul_add(b, c);
        if !is_tie_core(r, fmt.exp_bits(), fmt.man_bits()) {
            return if r.is_nan() {
                f64::NAN
            } else {
                fmt.round_f64(r, rm)
            };
        }
    }
    soft_fma(fmt, rm, a, b, c)
}

/// The exact-until-one-rounding kernel behind [`fmt_fma`], on operands
/// already rounded into `fmt`: fma truncated toward zero at 64 bits with
/// the inexact flag as sticky, then a single rounding into the format's
/// precision and range.
#[inline]
fn soft_fma(fmt: Format, rm: RoundMode, a: f64, b: f64, c: f64) -> f64 {
    let (sa, sb, sc) = (SoftFloat::from_f64(a), SoftFloat::from_f64(b), SoftFloat::from_f64(c));
    let (tz, sticky) = sa.fma_rz64(&sb, &sc);
    if tz.is_zero() && !sticky {
        // Exact-zero fma: sign per the final rounding direction.
        return sa.fma(&sb, &sc, 1, rm).to_f64();
    }
    fmt.round_soft_sticky(&tz, sticky, rm).to_f64()
}

#[inline]
pub(crate) fn emulate_math(e: Emul, func: MathFn, a: f64) -> f64 {
    let Emul { fmt, rm, path, .. } = e;
    match path {
        EmulPath::Native => {
            if fmt == Format::FP64 {
                func.eval_f64(a)
            } else {
                (func.eval_f64((a as f32) as f64) as f32) as f64
            }
        }
        _ => {
            let p = fmt.precision();
            let sa = SoftFloat::from_f64(fmt.round_f64(a, rm));
            fmt.round_soft(&func.eval_soft(&sa, p, rm), rm).to_f64()
        }
    }
}

// ---------------------------------------------------------------------------
// mem-mode operations (slow path; state is the thread's shard, no lock)
// ---------------------------------------------------------------------------

/// Slot arithmetic: `Fmt` slots through the format's own arithmetic,
/// `SoftFloat` at up to 62 bits, and the limb path beyond and whenever an
/// operand is a `Big` slot.
fn slot_op2(kind: OpKind, a: &SlotVal, b: &SlotVal, p: &MemParams) -> SlotVal {
    let (prec, rm) = (p.prec, p.round);
    match (a, b) {
        (SlotVal::Fmt(x), SlotVal::Fmt(y)) => {
            let fmt = p.clamp.expect("Fmt slots imply a clamping format");
            SlotVal::Fmt(fmt_op2(fmt, rm, p.dr, kind, *x, *y))
        }
        (SlotVal::Soft(x), SlotVal::Soft(y)) if prec <= 62 => {
            let r = match (kind, p.clamp) {
                (OpKind::Add, Some(f)) => f.add(x, y, rm),
                (OpKind::Sub, Some(f)) => f.sub(x, y, rm),
                (OpKind::Mul, Some(f)) => f.mul(x, y, rm),
                (OpKind::Div, Some(f)) => f.div(x, y, rm),
                (OpKind::Add, None) => x.add(y, prec, rm),
                (OpKind::Sub, None) => x.sub(y, prec, rm),
                (OpKind::Mul, None) => x.mul(y, prec, rm),
                (OpKind::Div, None) => x.div(y, prec, rm),
                _ => unreachable!(),
            };
            SlotVal::Soft(r)
        }
        _ => {
            let (bx, by) = (a.to_big(), b.to_big());
            let r = match kind {
                OpKind::Add => bx.add(&by, prec, rm),
                OpKind::Sub => bx.sub(&by, prec, rm),
                OpKind::Mul => bx.mul(&by, prec, rm),
                OpKind::Div => bx.div(&by, prec, rm),
                _ => unreachable!(),
            };
            SlotVal::Big(Box::new(r))
        }
    }
}

/// Record a result's deviation at `loc` and store it in a fresh slot.
fn mem_finish(
    act: &mut ActiveCtx,
    val: SlotVal,
    shadow: f64,
    loc: &'static Location<'static>,
) -> f64 {
    act.mem.record(loc, rel_deviation(val.to_f64(), shadow), act.mem_params.threshold);
    act.mem.push(Slot { val, shadow })
}

fn mem_op2(
    act: &mut ActiveCtx,
    kind: OpKind,
    a: f64,
    b: f64,
    loc: &'static Location<'static>,
) -> f64 {
    let p = &act.mem_params;
    let (va, sha) = act.mem.resolve(a, p);
    let (vb, shb) = act.mem.resolve(b, p);
    let val = slot_op2(kind, &va, &vb, p);
    mem_finish(act, val, raw2(kind, sha, shb), loc)
}

fn mem_sqrt(act: &mut ActiveCtx, a: f64, loc: &'static Location<'static>) -> f64 {
    let p = &act.mem_params;
    let (prec, rm) = (p.prec, p.round);
    let (va, sha) = act.mem.resolve(a, p);
    let val = match (&va, p.clamp) {
        (SlotVal::Fmt(x), Some(f)) => SlotVal::Fmt(fmt_sqrt(f, rm, p.dr, *x)),
        (SlotVal::Soft(x), Some(f)) if prec <= 61 => SlotVal::Soft(f.sqrt(x, rm)),
        (SlotVal::Soft(x), None) if prec <= 61 => SlotVal::Soft(x.sqrt(prec, rm)),
        _ => SlotVal::Big(Box::new(va.to_big().sqrt(prec, rm))),
    };
    mem_finish(act, val, sha.sqrt(), loc)
}

fn mem_fma(act: &mut ActiveCtx, a: f64, b: f64, c: f64, loc: &'static Location<'static>) -> f64 {
    let p = &act.mem_params;
    let (prec, rm) = (p.prec, p.round);
    let (va, sha) = act.mem.resolve(a, p);
    let (vb, shb) = act.mem.resolve(b, p);
    let (vc, shc) = act.mem.resolve(c, p);
    let prod = va.to_big().mul(&vb.to_big(), 2 * prec + 2, rm);
    let val = SlotVal::Big(Box::new(prod.add(&vc.to_big(), prec, rm)));
    mem_finish(act, val, sha.mul_add(shb, shc), loc)
}

fn mem_math(act: &mut ActiveCtx, func: MathFn, a: f64, loc: &'static Location<'static>) -> f64 {
    let p = &act.mem_params;
    let (prec, rm) = (p.prec, p.round);
    let (va, sha) = act.mem.resolve(a, p);
    // Math functions at >62-bit precision fall back to 53-bit seeds
    // (documented limitation; add/mul/div/sqrt stay correctly rounded).
    let val = match va.to_soft() {
        Some(x) if prec <= 62 => {
            let r = func.eval_soft(&x, prec, rm);
            p.slot_val(match p.clamp {
                Some(fc) => fc.round_soft(&r, rm),
                None => r,
            })
        }
        _ => {
            let x = va.to_big().to_f64();
            SlotVal::Big(Box::new(BigFloat::from_f64(func.eval_f64(x)).round_to_prec(prec, rm)))
        }
    };
    mem_finish(act, val, func.eval_f64(sha), loc)
}

fn mem_pow(act: &mut ActiveCtx, a: f64, b: f64, loc: &'static Location<'static>) -> f64 {
    let p = &act.mem_params;
    let (prec, rm) = (p.prec, p.round);
    let (va, sha) = act.mem.resolve(a, p);
    let (vb, shb) = act.mem.resolve(b, p);
    let val = match (va.to_soft(), vb.to_soft()) {
        (Some(x), Some(y)) if prec <= 62 => {
            let r = x.pow(&y, prec, rm);
            p.slot_val(match p.clamp {
                Some(fc) => fc.round_soft(&r, rm),
                None => r,
            })
        }
        _ => {
            let x = va.to_big().to_f64();
            let y = vb.to_big().to_f64();
            SlotVal::Big(Box::new(BigFloat::from_f64(x.powf(y)).round_to_prec(prec, rm)))
        }
    };
    mem_finish(act, val, sha.powf(shb), loc)
}

/// mem-mode boundary conversion *into* the truncated region
/// (`_raptor_pre_c` in Fig. 3c): allocate a shadow slot for `x` and return
/// its handle.
pub fn mem_pre(x: f64) -> f64 {
    FAST.with(|f| match f.dispatch.get() {
        Dispatch::Mem | Dispatch::MemInactive | Dispatch::MemInactiveCount => with_mem(f, |act| {
            let val = act.mem_params.make_val(x);
            act.mem.push(Slot { val, shadow: x })
        }),
        _ => x,
    })
}

/// mem-mode boundary conversion *out of* the truncated region
/// (`_raptor_post_c`): materialize the truncated value as a plain f64.
pub fn mem_post(x: f64) -> f64 {
    resolve(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::context::Session;
    use bigfloat::Format;

    #[test]
    fn no_session_is_passthrough() {
        assert_eq!(op2(OpKind::Add, 0.1, 0.2), 0.1 + 0.2);
        assert_eq!(op_sqrt(2.0), 2f64.sqrt());
        assert_eq!(op_math(MathFn::Sin, 1.0), 1f64.sin());
    }

    #[test]
    fn op_mode_truncates_to_format() {
        let s = Session::new(Config::op_all(Format::FP16)).unwrap();
        let _g = s.install();
        // 0.1 + 0.2 in fp16 is visibly coarse.
        let r = op2(OpKind::Add, 0.1, 0.2);
        assert!((r - 0.3).abs() > 1e-5, "fp16 result {r} must differ from 0.3");
        assert!((r - 0.3).abs() < 1e-3);
        // Overflow behaves like fp16.
        let big = op2(OpKind::Mul, 300.0, 300.0);
        assert_eq!(big, f64::INFINITY);
    }

    #[test]
    fn op_mode_fp32_native_matches_hardware() {
        let s = Session::new(Config::op_all(Format::FP32)).unwrap();
        let _g = s.install();
        let r = op2(OpKind::Div, 1.0, 3.0);
        assert_eq!(r, ((1.0f32 / 3.0f32) as f64));
    }

    #[test]
    fn soft_and_big_paths_agree() {
        use crate::config::EmulPath;
        let fmt = Format::new(11, 12); // the Table 3 12-bit mantissa config
        let cases = [(0.1, 0.7), (3.5, -1.25), (1e10, 3.0), (2.0, 3.0)];
        for (a, b) in cases {
            for kind in [OpKind::Add, OpKind::Sub, OpKind::Mul, OpKind::Div] {
                let s1 = Session::new(Config::op_all(fmt).with_path(EmulPath::Soft)).unwrap();
                let r_soft = {
                    let _g = s1.install();
                    op2(kind, a, b)
                };
                let s2 = Session::new(Config::op_all(fmt).with_path(EmulPath::Big)).unwrap();
                let r_big = {
                    let _g = s2.install();
                    op2(kind, a, b)
                };
                assert_eq!(r_soft.to_bits(), r_big.to_bits(), "{kind:?} {a} {b}");
            }
        }
    }

    #[test]
    fn counters_track_trunc_and_full() {
        let cfg = Config::op_functions(Format::FP16, ["Kern"]).with_counting();
        let s = Session::new(cfg).unwrap();
        let g = s.install();
        op2(OpKind::Add, 1.0, 2.0); // outside region: full
        {
            let _r = crate::context::region("Kern");
            op2(OpKind::Add, 1.0, 2.0); // truncated
            op2(OpKind::Mul, 1.0, 2.0); // truncated
        }
        drop(g);
        let c = s.counters();
        assert_eq!(c.full.add, 1);
        assert_eq!(c.trunc.add, 1);
        assert_eq!(c.trunc.mul, 1);
        assert!((c.truncated_fraction() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn mem_mode_tracks_and_flags() {
        let cfg = Config::mem_functions(Format::new(11, 8), ["Kern"], 1e-6);
        let s = Session::new(cfg).unwrap();
        let _g = s.install();
        let _r = crate::context::region("Kern");
        // Feed values through pre-conversion, run a small chain.
        let x = mem_pre(1.0 / 3.0);
        let y = mem_pre(5.0 / 7.0);
        let z = op2(OpKind::Mul, x, y);
        let w = op2(OpKind::Add, z, x);
        let out = mem_post(w);
        // Truncated result differs from the f64 chain but is close.
        let exact = (1.0 / 3.0) * (5.0 / 7.0) + (1.0 / 3.0);
        assert!((out - exact).abs() > 1e-12, "9-bit chain must deviate");
        assert!((out - exact).abs() < 1e-2);
        let flags = s.mem_flags();
        assert!(!flags.is_empty());
        assert!(flags.iter().all(|f| f.stats.ops >= 1));
        // Handles are NaN-boxed while inside the region.
        assert!(z.is_nan());
        assert!(!out.is_nan());
    }

    #[test]
    fn mem_mode_shadow_tracks_fp64_exactly() {
        // With a generous threshold nothing is flagged; shadow must equal
        // the plain f64 chain.
        let cfg = Config::mem_functions(Format::new(11, 4), ["Kern"], f64::INFINITY);
        let s = Session::new(cfg).unwrap();
        let _g = s.install();
        let _r = crate::context::region("Kern");
        let mut h = mem_pre(1.0);
        let mut plain = 1.0f64;
        for i in 1..=10 {
            // Non-dyadic factors so intermediates are never exactly
            // representable at 5 bits.
            let k = 1.0 + 1.0 / (3.0 * i as f64);
            h = op2(OpKind::Mul, h, k);
            plain *= k;
        }
        // The shadow inside the final slot equals the untruncated chain.
        let (val, shadow) = s.debug_mem_slot(h).expect("handle resolves in this thread's shard");
        assert_eq!(shadow, plain);
        // And the truncated value deviates (4-bit mantissa).
        assert!((val - plain).abs() > 1e-9);
    }

    #[test]
    fn mem_mode_precision_increase() {
        // Store at 120 bits: a chain that loses bits in f64 keeps them.
        let cfg = Config::mem_functions(Format::FP64, ["Kern"], f64::INFINITY)
            .with_mem_precision(120);
        let s = Session::new(cfg).unwrap();
        let _g = s.install();
        let _r = crate::context::region("Kern");
        let one = mem_pre(1.0);
        let tiny = mem_pre(2f64.powi(-70));
        let sum = op2(OpKind::Add, one, tiny);
        let diff = op2(OpKind::Sub, sum, one);
        let out = mem_post(diff);
        assert_eq!(out, 2f64.powi(-70), "120-bit storage preserves the tiny addend");
        // The FP64 shadow of the same chain collapses to zero.
        let (_, shadow) = s.debug_mem_slot(diff).expect("handle resolves");
        assert_eq!(shadow, 0.0);
    }

    #[test]
    fn excluded_region_runs_full_precision() {
        let cfg = Config::op_files(Format::new(11, 4), ["Hydro"]).with_exclude(["Hydro/recon"]);
        let s = Session::new(cfg).unwrap();
        let _g = s.install();
        let _r = crate::context::region("Hydro/flux");
        let coarse = op2(OpKind::Add, 0.1, 0.2);
        assert!((coarse - 0.3).abs() > 1e-6);
        let _r2 = crate::context::region("Hydro/recon");
        let fine = op2(OpKind::Add, 0.1, 0.2);
        assert_eq!(fine, 0.1 + 0.2);
    }

    #[test]
    fn rounding_mode_is_honored() {
        let mut cfg = Config::op_all(Format::new(11, 8));
        cfg.round = bigfloat::RoundMode::TowardZero;
        let s = Session::new(cfg).unwrap();
        let _g = s.install();
        let down = op2(OpKind::Add, 1.0, 1e-6);
        assert_eq!(down, 1.0, "toward-zero drops the tiny addend");
    }

    #[test]
    fn mem_stats_merge_across_clear_slab_barriers() {
        // Flag statistics survive the per-kernel slab clear (the sweep
        // barrier merge), matching what the paper reports per run.
        let cfg = Config::mem_functions(Format::new(11, 4), ["Kern"], 1e-12);
        let s = Session::new(cfg).unwrap();
        let _g = s.install();
        let _r = crate::context::region("Kern");
        for _ in 0..3 {
            let x = mem_pre(1.0 / 3.0);
            let _ = op2(OpKind::Mul, x, x);
            s.mem_clear_slab();
            assert_eq!(s.mem_live_slots(), 0);
        }
        let flags = s.mem_flags();
        let total_ops: u64 = flags.iter().map(|f| f.stats.ops).sum();
        assert_eq!(total_ops, 3, "one recorded op per barrier interval");
    }

    #[test]
    fn consecutive_reports_are_equal() {
        let cfg = Config::mem_functions(Format::new(11, 4), ["Kern"], 1e-12);
        let s = Session::new(cfg).unwrap();
        let _g = s.install();
        let _r = crate::context::region("Kern");
        // Two raw operands: auto-promoted, which is what warns.
        let _ = op2(OpKind::Add, 0.1, 0.2);
        let first = s.report();
        let second = s.report();
        assert_eq!(first, second);
        assert_eq!(first.warnings.len(), 1, "{:?}", first.warnings);
        assert!(first.warnings[0].contains("auto-promoted 2 raw values"));
    }

    #[test]
    fn stale_handles_are_counted_and_read_nan() {
        let cfg = Config::mem_functions(Format::new(11, 8), ["Kern"], 1e-12);
        let s = Session::new(cfg).unwrap();
        let g = s.install();
        let r = crate::context::region("Kern");
        let old = mem_pre(1.0 / 3.0);
        s.mem_clear_slab();
        // Takes the slot index `old` had; `old` must not resolve to it.
        let live = mem_pre(5.0);
        assert_eq!(s.debug_mem_slot(old), None);
        let prod = op2(OpKind::Mul, old, live);
        assert!(mem_post(prod).is_nan());
        assert!(mem_post(old).is_nan());
        assert_eq!(mem_post(live), 5.0);
        drop(r);
        drop(g);
        // A handle that outlives its guard is stale at the next install.
        let g = s.install();
        let r = crate::context::region("Kern");
        assert!(mem_post(live).is_nan());
        drop(r);
        drop(g);
        let w = s.warnings();
        assert_eq!(w.len(), 1, "nothing was auto-promoted: {w:?}");
        assert!(w[0].contains("3 stale handles"), "{w:?}");
    }
}
