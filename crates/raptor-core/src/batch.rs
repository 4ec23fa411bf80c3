//! Batch-specialized emulation kernels behind [`Col`]: a kernel written
//! once over [`Arith`] and instantiated at `Col` runs each of its
//! operators as one batch op over a whole column, which reads the
//! published [`FastPath`](crate::context) decision **once per op**, then
//! runs every element through one tier's executor — no per-element TLS
//! load, no per-element dispatch branch, no per-element counter bump.
//!
//! This is the RAPTOR answer to what r2vm's DBT does for instruction
//! dispatch: the scalar [`crate::ops`] entry points are the interpreter
//! slow path (kept verbatim as the differential oracle); a leaf's worth of
//! cells goes through `Col` instead. Counters are bulk-added once per op
//! ([`CellCounts::bump_n`](crate::counters)), so totals are *exactly*
//! what the scalar path would have produced.
//!
//! Each op shape — binary with slice or broadcast operands, `sqrt`,
//! `log10`, the fused WENO5 stencils ([`weno5`], [`weno5_adv`]) — is
//! written once, as the scalar op AST over a per-element executor
//! (`Exec`), and every shape runs through one dispatch skeleton (`run`).
//! The skeleton picks the executor; the op kind and operand shape are
//! type parameters and the target format is loop-invariant data, so the
//! fast chunk loop is straight-line code per element whose only
//! data-dependent branch is one slow-flag test per chunk. The exact
//! selections (`min`, `max`, `minmod`) and sign operations (negation, `abs`)
//! are uncounted lane loops.
//!
//! ## Dispatch tiers (fastest first)
//!
//! 1. **Hardware** — no session, an inactive region (plus one bulk `full`
//!    count when the session counts full ops), or a Native op-mode
//!    decision: plain `f64` ops, or `f32` ones for the Native FP32 rung.
//! 2. **Op-mode, fast** — round-to-nearest-even and a format whose
//!    double rounding through `f64` is innocuous ([`DoubleRound::Safe`])
//!    or guarded ([`DoubleRound::Guarded`], `e11m17`–`e11m24`): the
//!    `round → hardware op → round` short-cut, with the format's rounding
//!    masks and range limits precomputed once per op (`Grid`). A chunk
//!    first runs a cheap rounding that flags a non-finite value, a
//!    target-subnormal magnitude or an overflow; a flagged chunk re-runs
//!    through a branch-free rounding exact for every input, bit-identical
//!    to the scalar Soft path's [`bigfloat::kernel::round_rne_core`]
//!    (the fused WENO5 stencils take the exact rounding alone). A chunk
//!    holding a guarded format's result in the `f64` subnormal window
//!    re-runs through the scalar path's emulation, as in tier 3. A math
//!    function (`log10`) rounds on the same grid: the `f64` library value
//!    at the rounded operand, then one `p`-bit rounding, which is final
//!    in the format's normal range; every other lane (±0, ±inf, NaN, or a
//!    result that rounds below that range or past it) runs the scalar
//!    path's emulation.
//! 3. **Op-mode, per-element emulation** — everything else in op-mode:
//!    the Big path, directed rounding modes and formats past Figueroa's
//!    bound (`p > 25`, e.g. `e11m30`). The scalar path's own emulation
//!    functions, still with one dispatch read and one bulk count.
//! 4. **mem-mode** — under a session whose slots hold format values in
//!    `f64` at the format's own precision (every
//!    [`crate::Config::mem_functions`] session), a column carries two
//!    planes: each lane is *raw* (a gathered value, a broadcast constant,
//!    or a lane an exact selection took from a raw operand) or
//!    *shadowed* (a format value and its FP64 shadow). An active op
//!    promotes its raw operand lanes as the scalar path auto-promotes a
//!    raw value (counted), runs the value plane through the tier op mode
//!    uses for the format (the fast tier's grid, or the `Fmt` slot
//!    arithmetic per lane past the short-cut: operand rounding is the
//!    identity on format values) and the shadow plane in hardware, then
//!    adds every lane's relative deviation into the op's call site at
//!    once: one site lookup per column op. The operators carry
//!    `#[track_caller]`, so a generic kernel line is one site at
//!    [`Tracked`](crate::Tracked) and at `Col`, and the report equals the
//!    scalar path's. An inactive op runs the value plane in hardware and
//!    yields raw lanes; exact selections and sign operations move both
//!    planes lane by lane. The fused WENO5 stencils have no per-op sites
//!    of their own: they run lane by lane through the scalar path's
//!    slab handles. Other mem-mode sessions (a storage precision other
//!    than the format's) keep handles in the columns and run every op
//!    through the per-op [`crate::ops`] entry points. Consumers gate the
//!    planes tier with [`mem_ready`]; [`ready`] keeps meaning op mode.
//!
//! The element-independent loops — the hardware tier's and the fast
//! tier's chunk loop — are compiled at each vector width the target
//! architecture offers (on x86-64: the baseline, AVX2 and AVX-512), and
//! every op runs the widest one the CPU reports, detected once per
//! process ([`vector_width`]); a flagged chunk's exact re-run stays in
//! that loop, and the mem-mode tier's value and shadow planes run in
//! them too. A guarded-window chunk's re-run, the emulation tier, the
//! mem-mode tier's per-lane work (promotion, deviations, exact moves)
//! and its handle-carrying fallback run at the baseline width.
//!
//! ## Columns
//!
//! A [`Col`] is a `Copy` handle to a column in a per-thread arena, or a
//! broadcast value. Columns live in a [`scope`] that fixes their length
//! and frees them on drop; an operand of another length panics.

use crate::config::EmulPath;
use crate::context::{ActiveCtx, Dispatch, ACTIVE, FAST};
use crate::counters::OpKind;
use crate::memmode::{rel_deviation, Lookup, MemParams, Slot, SlotVal};
use crate::ops::{self, MathFn};
use crate::real::Arith;
use bigfloat::{DoubleRound, Format};
use std::cell::RefCell;
use std::marker::PhantomData;
use std::ops::Range;
use std::panic::Location;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

// ---------------------------------------------------------------------------
// Consumer gating
// ---------------------------------------------------------------------------

static FORCE_SCALAR: AtomicBool = AtomicBool::new(false);
static FORCE_SCALAR_LOCK: Mutex<()> = Mutex::new(());

/// A held [`force_scalar`] pin. The flag it set lasts until the guard
/// drops — on unwinding too — and no other pin can be taken meanwhile.
#[must_use = "the pin lasts only as long as the guard"]
pub struct ForceScalar {
    _lock: MutexGuard<'static, ()>,
}

impl Drop for ForceScalar {
    fn drop(&mut self) {
        // Runs before the lock field drops: the next holder sees it clear.
        FORCE_SCALAR.store(false, Ordering::SeqCst);
    }
}

/// Test/diagnostic pin: while the returned guard lives, [`ready`] reports
/// `false` on every thread if `on`, so gated consumers take their scalar
/// path. A differential takes a pin for *both* halves — `true` for the
/// scalar oracle, `false` for the batch run — so the one process-wide
/// lock serializes it against every other differential; the flag is clear
/// whenever no pin is held.
pub fn force_scalar(on: bool) -> ForceScalar {
    let lock = FORCE_SCALAR_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    FORCE_SCALAR.store(on, Ordering::SeqCst);
    ForceScalar { _lock: lock }
}

/// Whether batch calls are profitable *and* semantics-preserving for the
/// current thread state: false under mem-mode sessions and under a
/// `force_scalar(true)` pin. True otherwise, including with no session at
/// all. Under mem mode, [`mem_ready`] says which consumers may batch.
pub fn ready() -> bool {
    !FORCE_SCALAR.load(Ordering::Relaxed)
        && FAST.with(|f| {
            !matches!(
                f.dispatch.get(),
                Dispatch::Mem | Dispatch::MemInactive | Dispatch::MemInactiveCount
            )
        })
}

/// Whether this thread runs a mem-mode session whose columns carry shadow
/// planes (the module docs' tier 4), with no `force_scalar(true)` pin.
/// Each column op then attributes its lanes' deviations to its caller,
/// so a kernel instantiated at [`Col`] gives the scalar path's report
/// only where every op it runs is the scalar path's own source at the
/// same call site: consumers check that as well (the fused WENO5
/// stencils, for one, have sites of their own).
pub fn mem_ready() -> bool {
    !FORCE_SCALAR.load(Ordering::Relaxed)
        && FAST.with(|f| {
            f.mem_cols.get()
                && matches!(
                    f.dispatch.get(),
                    Dispatch::Mem | Dispatch::MemInactive | Dispatch::MemInactiveCount
                )
        })
}

/// Whether this thread's arithmetic column ops run the mem-mode tier's
/// active ops: an active region of a planes session.
#[inline]
fn planes_active() -> bool {
    FAST.with(|f| f.dispatch.get() == Dispatch::Mem && f.mem_cols.get())
}

// ---------------------------------------------------------------------------
// Columns: the batch ops behind the scalar operators
// ---------------------------------------------------------------------------

/// A column of values for kernels written once over [`Arith`]: a `Copy`
/// handle to a slot in the current thread's arena, or one value broadcast
/// to every element ([`Arith::from_f64`]). Each operator is one batch op
/// over the whole column — one `FastPath` read, one bulk count — so a
/// scalar kernel instantiated at `Col` runs the batch tier with exactly
/// the scalar path's values and op counts, element by element.
/// `min`/`max`/`minmod` and `abs` are the exact operations [`Tracked`](crate::Tracked) makes.
///
/// Columns live in a [`scope`], whose length every column in it shares
/// (an op between two broadcasts yields a full column and counts one op
/// per element). An op on a column from an ended scope panics, and so
/// does an op whose operands' lengths differ from the scope's.
///
/// Under a mem-mode planes session a column also carries each lane's
/// FP64 shadow and whether the lane is raw (module docs, tier 4);
/// [`Col::read`] sees the values, which are what
/// [`Real::to_f64`](crate::Real::to_f64) gives for `Tracked`.
#[derive(Clone, Copy, Debug)]
pub struct Col(Repr);

#[derive(Clone, Copy, Debug)]
enum Repr {
    Bcast(f64),
    Slot { idx: u32, epoch: u32 },
}

/// One arena slot: a column's values and, for a column of the mem-mode
/// tier, its shadows and raw lanes.
#[derive(Default)]
struct ColSlot {
    val: Vec<f64>,
    shadow: Vec<f64>,
    raw: Vec<bool>,
    /// `shadow` and `raw` hold this column's planes; without them every
    /// lane is raw.
    mem: bool,
    /// The epoch of the slot's current allocation.
    epoch: u32,
}

/// A fresh mem-mode column's planes while they are written.
struct PlaneBufs {
    val: Vec<f64>,
    shadow: Vec<f64>,
    raw: Vec<bool>,
}

/// The per-thread column arena: slots keep their capacity across scopes,
/// like the batch consumers' parked scratch.
struct Arena {
    slots: Vec<ColSlot>,
    /// Slots allocated by the open scopes.
    used: usize,
    /// Bumped whenever a scope ends, so its handles go stale.
    epoch: u32,
    /// Open scopes, innermost last: (first slot, length).
    scopes: Vec<(usize, usize)>,
}

thread_local! {
    static ARENA: RefCell<Arena> =
        const { RefCell::new(Arena { slots: Vec::new(), used: 0, epoch: 0, scopes: Vec::new() }) };
}

/// A column operand: an arena slot's values or a broadcast value.
enum Operand<'a> {
    S(&'a [f64]),
    B(f64),
}

/// A column operand with its mem-mode planes.
#[derive(Clone, Copy)]
enum Lanes<'a> {
    /// A broadcast value: raw in every lane.
    B(f64),
    /// Values, and the shadows and raw flags if the column has planes
    /// (without them every lane is raw).
    S(&'a [f64], Option<(&'a [f64], &'a [bool])>),
}

impl Lanes<'_> {
    fn is_mem(self) -> bool {
        matches!(self, Lanes::S(_, Some(_)))
    }

    fn check(self, n: usize) {
        if let Lanes::S(v, _) = self {
            assert_eq!(v.len(), n, "Col operand length differs from its scope's");
        }
    }

    /// Lane `i`'s value, shadow and raw flag (a raw lane's shadow is its
    /// value).
    #[inline]
    fn at(self, i: usize) -> (f64, f64, bool) {
        match self {
            Lanes::B(x) => (x, x, true),
            Lanes::S(v, None) => (v[i], v[i], true),
            Lanes::S(v, Some((s, r))) => (v[i], s[i], r[i]),
        }
    }
}

impl Arena {
    fn len(&self) -> usize {
        self.scopes.last().expect("Col used outside a batch::scope").1
    }

    /// A new column written by `f` from this arena's view of the operands.
    #[inline]
    fn op(&mut self, f: impl FnOnce(&Arena, &mut [f64])) -> Col {
        let (col, mut buf) = self.alloc();
        f(self, &mut buf);
        self.put(col, buf)
    }

    /// Take the value buffer of a fresh slot, sized to the scope.
    fn alloc(&mut self) -> (Col, Vec<f64>) {
        let (n, idx, epoch) = (self.len(), self.used, self.epoch);
        if idx == self.slots.len() {
            self.slots.push(Default::default());
        }
        self.used += 1;
        let slot = &mut self.slots[idx];
        slot.epoch = epoch;
        slot.mem = false;
        let mut buf = std::mem::take(&mut slot.val);
        buf.resize(n, 0.0);
        (Col(Repr::Slot { idx: idx as u32, epoch }), buf)
    }

    /// Return an allocated slot's value buffer.
    fn put(&mut self, col: Col, buf: Vec<f64>) -> Col {
        if let Repr::Slot { idx, .. } = col.0 {
            self.slots[idx as usize].val = buf;
        }
        col
    }

    /// Take the three planes of a fresh slot, sized to the scope.
    fn alloc_planes(&mut self) -> (Col, PlaneBufs) {
        let (col, val) = self.alloc();
        let n = val.len();
        let Repr::Slot { idx, .. } = col.0 else { unreachable!("alloc gives a slot") };
        let slot = &mut self.slots[idx as usize];
        let (mut shadow, mut raw) = (std::mem::take(&mut slot.shadow), std::mem::take(&mut slot.raw));
        shadow.resize(n, 0.0);
        raw.resize(n, false);
        (col, PlaneBufs { val, shadow, raw })
    }

    /// Return an allocated slot's planes.
    fn put_planes(&mut self, col: Col, p: PlaneBufs) -> Col {
        if let Repr::Slot { idx, .. } = col.0 {
            let slot = &mut self.slots[idx as usize];
            (slot.val, slot.shadow, slot.raw, slot.mem) = (p.val, p.shadow, p.raw, true);
        }
        col
    }

    /// The live slot behind a slot handle.
    fn slot(&self, idx: u32, epoch: u32) -> &ColSlot {
        match self.slots.get(idx as usize) {
            Some(s) if (idx as usize) < self.used && s.epoch == epoch => s,
            _ => panic!("stale Col: its batch::scope has ended"),
        }
    }

    fn operand(&self, c: Col) -> Operand<'_> {
        match c.0 {
            Repr::Bcast(x) => Operand::B(x),
            Repr::Slot { idx, epoch } => Operand::S(&self.slot(idx, epoch).val),
        }
    }

    fn lanes(&self, c: Col) -> Lanes<'_> {
        match c.0 {
            Repr::Bcast(x) => Lanes::B(x),
            Repr::Slot { idx, epoch } => {
                let s = self.slot(idx, epoch);
                Lanes::S(&s.val, s.mem.then(|| (&s.shadow[..], &s.raw[..])))
            }
        }
    }
}

/// Scope guard for [`Col`]s, from [`scope`]: on drop it frees every slot
/// allocated since it was opened and turns their handles stale.
#[must_use = "columns live only as long as the guard"]
pub struct ColScope {
    depth: usize,
    _thread: PhantomData<*const ()>,
}

/// Open a [`Col`] scope of length `n` on this thread. Scopes nest; ending
/// one ends every scope opened inside it.
pub fn scope(n: usize) -> ColScope {
    ARENA.with(|a| {
        let mut a = a.borrow_mut();
        let used = a.used;
        a.scopes.push((used, n));
        ColScope { depth: a.scopes.len(), _thread: PhantomData }
    })
}

impl Drop for ColScope {
    /// Ends this scope and any still open inside it (a leaked guard's).
    fn drop(&mut self) {
        let _ = ARENA.try_with(|a| {
            if let Ok(mut a) = a.try_borrow_mut() {
                if let Some(&(mark, _)) = a.scopes.get(self.depth - 1) {
                    a.used = mark;
                    a.scopes.truncate(self.depth - 1);
                    a.epoch = a.epoch.wrapping_add(1);
                }
            }
        });
    }
}

/// Columns of the current scope holding each of `cols`' elements at `idx`
/// (as many as the scope's length). An uncounted move, which carries the
/// mem-mode tier's planes.
pub fn gather<const K: usize>(cols: [Col; K], idx: &[usize]) -> [Col; K] {
    cols.map(|c| moved(c, Move::Gather(idx)))
}

/// Write lane `s` of each of `from`'s columns into lane `d` of the same
/// column of `into`, in place, for every `(s, d)` in `lanes`: how a
/// partitioned kernel assembles its classes' results. `into` holds slot
/// columns, none of them in `from`, and may belong to an enclosing scope.
/// An uncounted move, which carries the mem-mode tier's planes.
pub fn scatter<const K: usize>(
    into: [Col; K],
    from: [Col; K],
    lanes: impl Iterator<Item = (usize, usize)> + Clone,
) {
    ARENA.with(|a| {
        let mut a = a.borrow_mut();
        for (dst, src) in into.into_iter().zip(from) {
            let Repr::Slot { idx, epoch } = dst.0 else { panic!("batch::scatter into a broadcast") };
            a.slot(idx, epoch);
            let slot = &mut a.slots[idx as usize];
            let mut mem = slot.mem;
            let mut d = PlaneBufs {
                val: std::mem::take(&mut slot.val),
                shadow: std::mem::take(&mut slot.shadow),
                raw: std::mem::take(&mut slot.raw),
            };
            let s = a.lanes(src);
            if s.is_mem() && !mem {
                // Every lane so far raw: its shadow is its value.
                d.shadow.clear();
                d.shadow.extend_from_slice(&d.val);
                d.raw.clear();
                d.raw.resize(d.val.len(), true);
                mem = true;
            }
            match s {
                Lanes::S(v, _) if !mem => lanes.clone().for_each(|(i, j)| d.val[j] = v[i]),
                _ => {
                    for (i, j) in lanes.clone() {
                        let (v, sh, r) = s.at(i);
                        (d.val[j], d.shadow[j], d.raw[j]) = (v, sh, r);
                    }
                }
            }
            let slot = &mut a.slots[idx as usize];
            (slot.val, slot.shadow, slot.raw, slot.mem) = (d.val, d.shadow, d.raw, mem);
        }
    })
}

/// Where a relayout takes each of its lanes from (see [`moved`]).
#[derive(Clone, Copy)]
enum Move<'a> {
    /// Lane `j` from lane `idx[j]`.
    Gather(&'a [usize]),
    /// `k`-lane lines from lanes `off ..` of the source's `l`-lane lines.
    Lines { l: usize, k: usize, off: usize },
}

impl Move<'_> {
    fn apply<T: Copy>(self, src: &[T], out: &mut [T]) {
        match self {
            Move::Gather(idx) => {
                assert_eq!(idx.len(), out.len());
                out.iter_mut().zip(idx).for_each(|(o, &i)| *o = src[i]);
            }
            Move::Lines { l, k, off } => {
                assert!(
                    src.len() % l == 0 && out.len() % k == 0 && src.len() / l == out.len() / k,
                    "{} lanes in {l}-lane lines do not make {} lanes in {k}-lane lines",
                    src.len(),
                    out.len()
                );
                for (line, o) in src.chunks_exact(l).zip(out.chunks_exact_mut(k)) {
                    o.copy_from_slice(&line[off..][..k]);
                }
            }
        }
    }
}

/// A new column of the current scope holding `c`'s lanes as `how` moves
/// them: its values, and its shadows and raw flags if it has planes.
fn moved(c: Col, how: Move) -> Col {
    ARENA.with(|a| {
        let mut a = a.borrow_mut();
        if !a.lanes(c).is_mem() {
            return a.op(|ar, out| match ar.operand(c) {
                Operand::S(v) => how.apply(v, out),
                Operand::B(x) => out.fill(x),
            });
        }
        let (col, mut p) = a.alloc_planes();
        if let Lanes::S(v, Some((s, r))) = a.lanes(c) {
            how.apply(v, &mut p.val);
            how.apply(s, &mut p.shadow);
            how.apply(r, &mut p.raw);
        }
        a.put_planes(col, p)
    })
}

impl Col {
    /// A new column of the scope's length, written by `f`.
    pub fn new_with(f: impl FnOnce(&mut [f64])) -> Col {
        let [col] = Col::new_many(|[o]| f(o));
        col
    }

    /// `K` new columns of the scope's length, written together by `f`.
    pub fn new_many<const K: usize>(f: impl FnOnce([&mut [f64]; K])) -> [Col; K] {
        let mut bufs: [(Col, Vec<f64>); K] = ARENA.with(|a| {
            let mut a = a.borrow_mut();
            std::array::from_fn(|_| a.alloc())
        });
        f(bufs.each_mut().map(|(_, buf)| &mut buf[..]));
        ARENA.with(|a| {
            let mut a = a.borrow_mut();
            bufs.map(|(col, buf)| a.put(col, buf))
        })
    }

    /// A new column holding `xs`.
    pub fn from_slice(xs: &[f64]) -> Col {
        Col::op(|_, out| out.copy_from_slice(xs))
    }

    /// Run `f` on the column's values (a broadcast reads as a full
    /// column). `f` must not run column ops itself.
    pub fn read<T>(self, f: impl FnOnce(&[f64]) -> T) -> T {
        ARENA.with(|a| {
            let a = a.borrow();
            match a.operand(self) {
                Operand::S(v) => f(v),
                Operand::B(x) => f(&vec![x; a.len()]),
            }
        })
    }

    /// A new column of the scope's length made of `k`-lane lines: line
    /// `c` holds lanes `c*l + off ..< c*l + off + k` of this column, which
    /// holds lines of `l` lanes. An uncounted move, like [`gather`].
    pub fn lines(self, l: usize, k: usize, off: usize) -> Col {
        moved(self, Move::Lines { l, k, off })
    }

    /// `log10` of every element, in one batch op.
    #[track_caller]
    pub fn log10(self) -> Col {
        if planes_active() {
            return mem_op(Location::caller(), [self], Log10::<f64>::COUNTS, |t, [x], val, sh| match x {
                Planes::S(v, s) => t.eval(Log10(v), Log10(s), val, sh),
                Planes::B(v, s) => t.eval(Log10(v), Log10(s), val, sh),
            });
        }
        Col::op(|ar, out| match ar.operand(self) {
            Operand::S(x) => run(Log10(x), out),
            Operand::B(x) => run(Log10(x), out),
        })
    }

    /// A new column from the arena's view of the operands.
    #[inline]
    fn op(f: impl FnOnce(&Arena, &mut [f64])) -> Col {
        ARENA.with(|a| a.borrow_mut().op(f))
    }
}

/// `$body` with `$x`, `$y` bound to `$a`'s and `$b`'s operands, each
/// arm monomorphized on the slice-or-broadcast shapes.
macro_rules! with_operands {
    ($ar:expr, $a:expr, $b:expr, |$x:ident, $y:ident| $body:expr) => {{
        use Operand::{B, S};
        match ($ar.operand($a), $ar.operand($b)) {
            (S($x), S($y)) => $body,
            (S($x), B($y)) => $body,
            (B($x), S($y)) => $body,
            (B($x), B($y)) => $body,
        }
    }};
}

/// `$body` with `$v*`, `$s*` bound to each operand's value and shadow
/// planes, each arm monomorphized on the slice-or-broadcast shapes.
macro_rules! with_planes {
    ($a:expr, $b:expr, |$va:ident, $sa:ident, $vb:ident, $sb:ident| $body:expr) => {{
        use Planes::{B, S};
        match ($a, $b) {
            (S($va, $sa), S($vb, $sb)) => $body,
            (S($va, $sa), B($vb, $sb)) => $body,
            (B($va, $sa), S($vb, $sb)) => $body,
            (B($va, $sa), B($vb, $sb)) => $body,
        }
    }};
}

#[track_caller]
fn col_bin<const K: u8>(a: Col, b: Col) -> Col {
    if planes_active() {
        return mem_op(Location::caller(), [a, b], Bin::<K, f64, f64>::COUNTS, |t, [x, y], val, sh| {
            with_planes!(x, y, |va, sa, vb, sb| t.eval(Bin::<K, _, _>(va, vb), Bin::<K, _, _>(sa, sb), val, sh))
        });
    }
    Col::op(|ar, out| with_operands!(ar, a, b, |x, y| run(Bin::<K, _, _>(x, y), out)))
}

/// Which operand an exact selection keeps in a lane: `A`, `B`, or `+0.0`.
#[derive(Clone, Copy)]
enum Pick {
    A,
    B,
    Zero,
}

/// `pick` lane by lane: an exact selection, uncounted like `Tracked`'s.
/// A lane keeps the picked operand's value, and under the mem-mode tier
/// its shadow and raw flag too; `+0.0` is a raw lane.
fn col_select<F: Fn(f64, f64) -> Pick + Copy>(a: Col, b: Col, pick: F) -> Col {
    fn lanes<F: Fn(f64, f64) -> Pick>(a: impl Arg, b: impl Arg, pick: F, out: &mut [f64]) {
        a.check(out.len());
        b.check(out.len());
        for (i, o) in out.iter_mut().enumerate() {
            let (x, y) = (a.at(i), b.at(i));
            *o = match pick(x, y) {
                Pick::A => x,
                Pick::B => y,
                Pick::Zero => 0.0,
            };
        }
    }
    ARENA.with(|ar| {
        let mut ar = ar.borrow_mut();
        if !(ar.lanes(a).is_mem() || ar.lanes(b).is_mem()) {
            return ar.op(|ar, out| with_operands!(ar, a, b, |x, y| lanes(x, y, pick, out)));
        }
        let (col, mut p) = ar.alloc_planes();
        let (x, y) = (ar.lanes(a), ar.lanes(b));
        x.check(p.val.len());
        y.check(p.val.len());
        for i in 0..p.val.len() {
            let (xi, yi) = (x.at(i), y.at(i));
            (p.val[i], p.shadow[i], p.raw[i]) = match pick(xi.0, yi.0) {
                Pick::A => xi,
                Pick::B => yi,
                Pick::Zero => (0.0, 0.0, true),
            };
        }
        ar.put_planes(col, p)
    })
}

macro_rules! col_ops {
    ($($op:ident $f:ident $assign:ident $af:ident $k:ident;)*) => {$(
        impl core::ops::$op for Col {
            type Output = Col;
            #[track_caller]
            fn $f(self, rhs: Col) -> Col {
                col_bin::<$k>(self, rhs)
            }
        }
        impl core::ops::$assign for Col {
            #[track_caller]
            fn $af(&mut self, rhs: Col) {
                *self = col_bin::<$k>(*self, rhs);
            }
        }
    )*};
}

col_ops! {
    Add add AddAssign add_assign ADD;
    Sub sub SubAssign sub_assign SUB;
    Mul mul MulAssign mul_assign MUL;
    Div div DivAssign div_assign DIV;
}

/// `f` lane by lane: an exact sign operation, uncounted like `Tracked`'s.
/// Under the mem-mode tier a shadowed lane applies `f` to its shadow too,
/// and keeps a NaN value as it is if `keep_nan`, as a slot's negation
/// does.
fn col_sign(a: Col, f: fn(f64) -> f64, keep_nan: bool) -> Col {
    ARENA.with(|ar| {
        let mut ar = ar.borrow_mut();
        if !ar.lanes(a).is_mem() {
            return ar.op(|ar, out| match ar.operand(a) {
                Operand::S(v) => {
                    v.check(out.len());
                    out.iter_mut().zip(v).for_each(|(o, &x)| *o = f(x));
                }
                Operand::B(x) => out.fill(f(x)),
            });
        }
        let (col, mut p) = ar.alloc_planes();
        let x = ar.lanes(a);
        x.check(p.val.len());
        for i in 0..p.val.len() {
            let (v, s, r) = x.at(i);
            p.val[i] = if r || !(keep_nan && v.is_nan()) { f(v) } else { v };
            (p.shadow[i], p.raw[i]) = (if r { p.val[i] } else { f(s) }, r);
        }
        ar.put_planes(col, p)
    })
}

impl core::ops::Neg for Col {
    type Output = Col;
    /// Exact sign flip, uncounted like [`Tracked`](crate::Tracked)'s.
    #[track_caller]
    fn neg(self) -> Col {
        col_sign(self, |x| -x, true)
    }
}

/// The fused Jiang–Shu WENO5 stencil over five columns: lane `i` is
/// exactly what `hydro::recon::weno5([v0[i], .., v4[i]])` computes on the
/// scalar path — the same op AST (19 adds, 8 subs, 34 muls, 4 divs), in
/// one batch op. A broadcast operand reads as a full column.
pub fn weno5(v: [Col; 5]) -> Col {
    weno5_col::<false>(v)
}

/// [`weno5`] with `incomp::solver::weno5_core`'s tail: the combination
/// ends in `inv = 1 / asum; .. * inv` instead of a direct division (one
/// more mul per lane), for its upwind combination of five first
/// differences.
pub fn weno5_adv(v: [Col; 5]) -> Col {
    weno5_col::<true>(v)
}

fn weno5_col<const INV_TAIL: bool>(v: [Col; 5]) -> Col {
    if planes_active() {
        return weno5_mem::<INV_TAIL>(v);
    }
    Col::op(|ar, out| {
        let n = out.len();
        let cols = v.map(|c| match ar.operand(c) {
            Operand::S(s) => std::borrow::Cow::Borrowed(s),
            Operand::B(x) => std::borrow::Cow::Owned(vec![x; n]),
        });
        run(Weno5::<INV_TAIL>(cols.each_ref().map(|c| &c[..])), out)
    })
}

/// [`weno5_col`] under the mem-mode tier: the fused stencil has no call
/// sites to attribute its 65 ops to, so its lanes run through the scalar
/// path's per-op entry points on slab handles (raw lanes stay raw
/// values), and the results come back as planes.
#[cold]
fn weno5_mem<const INV_TAIL: bool>(v: [Col; 5]) -> Col {
    let carriers = ARENA.with(|a| {
        let a = a.borrow();
        let n = a.len();
        v.map(|c| {
            let l = a.lanes(c);
            l.check(n);
            with_act(|act| {
                (0..n)
                    .map(|i| match l.at(i) {
                        (x, _, true) => x,
                        (val, shadow, false) => act.mem.push(Slot { val: SlotVal::Fmt(val), shadow }),
                    })
                    .collect::<Vec<f64>>()
            })
        })
    });
    let mut out = vec![0.0; carriers[0].len()];
    each(Weno5::<INV_TAIL>(carriers.each_ref().map(|c| &c[..])), &mut Ops, &mut out);
    ARENA.with(|a| {
        let mut a = a.borrow_mut();
        let (col, mut p) = a.alloc_planes();
        with_act(|act| {
            for (i, &h) in out.iter().enumerate() {
                let slot = match act.mem.lookup(h) {
                    Lookup::Slot(s) => Some((s.val.to_f64(), s.shadow)),
                    _ => None,
                };
                (p.val[i], p.shadow[i], p.raw[i]) = match slot {
                    Some((v, s)) => (v, s, false),
                    None => {
                        let x = act.mem.value_of(h);
                        (x, x, true)
                    }
                };
            }
        });
        a.put_planes(col, p)
    })
}

impl Arith for Col {
    fn from_f64(x: f64) -> Col {
        Col(Repr::Bcast(x))
    }
    #[track_caller]
    fn sqrt(self) -> Col {
        if planes_active() {
            return mem_op(Location::caller(), [self], Sqrt::<f64>::COUNTS, |t, [x], val, sh| match x {
                Planes::S(v, s) => t.eval(Sqrt(v), Sqrt(s), val, sh),
                Planes::B(v, s) => t.eval(Sqrt(v), Sqrt(s), val, sh),
            });
        }
        Col::op(|ar, out| match ar.operand(self) {
            Operand::S(x) => run(Sqrt(x), out),
            Operand::B(x) => run(Sqrt(x), out),
        })
    }
    /// `other` where it is below `self`, else `self`: ties and NaNs keep
    /// `self`, as `Tracked::min` does.
    #[track_caller]
    fn min(self, other: Col) -> Col {
        col_select(self, other, |x, y| if y < x { Pick::B } else { Pick::A })
    }
    /// `other` where it is above `self`, else `self`.
    #[track_caller]
    fn max(self, other: Col) -> Col {
        col_select(self, other, |x, y| if y > x { Pick::B } else { Pick::A })
    }
    /// [`crate::real::minmod`]'s choice: the slope of smaller magnitude
    /// when both are nonzero with one sign, else `+0.0`.
    #[track_caller]
    fn minmod(self, other: Col) -> Col {
        col_select(self, other, |x, y| {
            if (x > 0.0 && y > 0.0) || (x < 0.0 && y < 0.0) {
                if x.abs() < y.abs() {
                    Pick::A
                } else {
                    Pick::B
                }
            } else {
                Pick::Zero
            }
        })
    }
    /// Exact magnitude, uncounted like `Tracked::abs`.
    #[track_caller]
    fn abs(self) -> Col {
        col_sign(self, f64::abs, false)
    }
}

// ---------------------------------------------------------------------------
// The dispatch skeleton
// ---------------------------------------------------------------------------

/// Every batch op: one `FastPath` read, one bulk count, and the whole
/// slice through the executor of the decision's tier.
fn run<S: Shape>(s: S, out: &mut [f64]) {
    let n = out.len();
    s.check(n);
    FAST.with(|f| {
        let count = |c: &crate::counters::CellCounts| {
            for &(kind, per) in S::COUNTS {
                c.bump_n(kind, per * n as u64);
            }
        };
        let width = Width::current();
        match f.dispatch.get() {
            Dispatch::None | Dispatch::Inactive => width.column(Hw, s, out),
            Dispatch::InactiveCount => {
                count(&f.full);
                width.column(Hw, s, out)
            }
            Dispatch::Op => {
                count(&f.trunc);
                let emul = f.emul.get();
                match emul.path {
                    EmulPath::Native if emul.fmt == Format::FP64 => width.column(Hw, s, out),
                    EmulPath::Native => width.column(Hw32, s, out),
                    _ if emul.dr != DoubleRound::Unsafe => width.column(Grid::of(emul), s, out),
                    _ => each(s, &mut Emulate(emul), out),
                }
            }
            // Under a planes session the values are plain: an inactive
            // op is hardware on them, as on a handle's truncated value.
            Dispatch::MemInactive if f.mem_cols.get() => width.column(Hw, s, out),
            Dispatch::MemInactiveCount if f.mem_cols.get() => {
                count(&f.full);
                width.column(Hw, s, out)
            }
            Dispatch::Mem | Dispatch::MemInactive | Dispatch::MemInactiveCount => each(s, &mut Ops, out),
        }
    })
}

/// `out[i] = s[i]` through `x`, element by element. The operands are
/// re-sliced to `out`'s length, so the loop carries no bounds checks.
#[inline(always)]
fn each<S: Shape, X: Exec>(s: S, x: &mut X, out: &mut [f64]) {
    let n = out.len();
    let s = s.window(0..n);
    for i in 0..n {
        out[i] = s.elem(x, i);
    }
}

// ---------------------------------------------------------------------------
// Vector widths
// ---------------------------------------------------------------------------

/// A tier whose whole-column loop is element-independent, so it is
/// compiled once per vector width ([`Width::column`]).
trait Tier: Copy {
    fn column<S: Shape>(self, s: S, out: &mut [f64]);
}

/// A stateless executor's loop ([`Hw`], [`Hw32`]).
impl<X: Exec + Copy> Tier for X {
    #[inline(always)]
    fn column<S: Shape>(mut self, s: S, out: &mut [f64]) {
        each(s, &mut self, out)
    }
}

/// The fast tier's chunk loop. A chunk runs through the cheap [`Fast`]
/// executor and, if any of its roundings tripped the slow flag, re-runs
/// through [`Exact`] at the same width; a chunk of a shape without
/// [`Shape::FAST_FIRST`] runs through `Exact` alone. Only a chunk holding
/// a guarded format's result in the `f64` subnormal window leaves the
/// loop, for [`emulate`].
impl Tier for Grid {
    #[inline(always)]
    fn column<S: Shape>(self, s: S, out: &mut [f64]) {
        let n = out.len();
        let mut i0 = 0;
        while i0 < n {
            let i1 = (i0 + CHUNK).min(n);
            let (w, o) = (s.window(i0..i1), &mut out[i0..i1]);
            i0 = i1;
            if S::FAST_FIRST {
                let mut x = Fast { grid: self, slow: false };
                each(w, &mut x, o);
                if !x.slow {
                    continue;
                }
            }
            let mut x = Exact { grid: self, window: false };
            each(w, &mut x, o);
            if x.window {
                emulate(self.emul, w, o);
            }
        }
    }
}

/// A guarded-window chunk's re-run through [`Emulate`], out of line and
/// so at the baseline width: inlined, the cold path would be copied into
/// every width's loop and spread the hot one over more code pages.
#[inline(never)]
fn emulate<S: Shape>(emul: ops::Emul, s: S, out: &mut [f64]) {
    each(s, &mut Emulate(emul), out)
}

/// A vector width the [`Tier`] loops are compiled at, widest last.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Width {
    /// The target's baseline features (SSE2 on x86-64).
    Base,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

#[cfg(test)]
thread_local! {
    /// A test's pin of this thread's width (see `Width::pin`).
    static PINNED_WIDTH: std::cell::Cell<Option<Width>> = const { std::cell::Cell::new(None) };
}

impl Width {
    /// The widest width the CPU reports, detected once per process.
    fn detected() -> Width {
        static DETECTED: OnceLock<Width> = OnceLock::new();
        *DETECTED.get_or_init(|| {
            #[cfg(target_arch = "x86_64")]
            {
                let avx2 = std::arch::is_x86_feature_detected!("avx2");
                let avx512 = avx2
                    && std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512vl")
                    && std::arch::is_x86_feature_detected!("avx512dq");
                if avx512 {
                    return Width::Avx512;
                } else if avx2 {
                    return Width::Avx2;
                }
            }
            Width::Base
        })
    }

    /// The width this thread's batch ops run at: [`Width::detected`],
    /// unless a test pinned a narrower one.
    #[inline]
    fn current() -> Width {
        #[cfg(test)]
        if let Some(w) = PINNED_WIDTH.with(std::cell::Cell::get) {
            return w;
        }
        Width::detected()
    }

    /// Run this thread's batch ops at `w` (`None`: the detected width)
    /// until the next pin. Panics on a width the CPU does not report.
    #[cfg(test)]
    fn pin(w: Option<Width>) {
        assert!(w.is_none_or(|w| w <= Width::detected()), "{w:?} is not available");
        PINNED_WIDTH.with(|p| p.set(w));
    }

    fn name(self) -> &'static str {
        match self {
            Width::Base => "baseline",
            #[cfg(target_arch = "x86_64")]
            Width::Avx2 => "avx2",
            #[cfg(target_arch = "x86_64")]
            Width::Avx512 => "avx512",
        }
    }

    /// `t`'s column loop over `s`, compiled at this width.
    #[allow(unsafe_code)]
    #[inline(always)]
    fn column<T: Tier, S: Shape>(self, t: T, s: S, out: &mut [f64]) {
        match self {
            Width::Base => t.column(s, out),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Avx2` exists only once `detected` saw the CPU
            // report avx2 (`pin` admits no wider width than that).
            Width::Avx2 => unsafe { x86::avx2(t, s, out) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Avx512` exists only once `detected` saw the CPU
            // report avx2, avx512f, avx512vl and avx512dq.
            Width::Avx512 => unsafe { x86::avx512(t, s, out) },
        }
    }
}

/// The [`Tier`] loops at the x86-64 vector extensions: each wrapper's
/// body inlines the loop, which is then compiled for its features.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{Shape, Tier};

    #[target_feature(enable = "avx2")]
    pub(super) fn avx2<T: Tier, S: Shape>(t: T, s: S, out: &mut [f64]) {
        t.column(s, out)
    }

    #[target_feature(enable = "avx2,avx512f,avx512vl,avx512dq")]
    pub(super) fn avx512<T: Tier, S: Shape>(t: T, s: S, out: &mut [f64]) {
        t.column(s, out)
    }
}

/// The vector width the batch tier's element-independent loops run at on
/// this CPU: `"avx512"` or `"avx2"` on x86-64 CPUs that report those
/// extensions, else `"baseline"`. Detected once per process.
pub fn vector_width() -> &'static str {
    Width::detected().name()
}

// ---------------------------------------------------------------------------
// Op shapes: the operands and the scalar op AST, written once
// ---------------------------------------------------------------------------

/// Chunk size of the fast tier's loop: how many elements one flagged
/// rounding re-runs through [`Exact`]. Small enough that one stray
/// subnormal only re-runs a cacheline-scale stretch, large enough to
/// amortize the flag check.
const CHUNK: usize = 128;

/// One batch op: its operands, its per-element ops for the bulk count, and
/// the scalar op AST it evaluates per element.
trait Shape: Copy {
    /// Ops per element by kind; a call counts these times its length.
    const COUNTS: &'static [(OpKind, u64)];
    /// Whether the fast tier's chunks try the cheap [`Fast`] executor
    /// before [`Exact`]. The fused WENO5 stencils run `Exact` alone: their
    /// `EPS` is below the smallest normal of fp16 and e5m2, so there every
    /// lane would flag, and a `Fast` copy of the 65-op chain at each width
    /// grows the binary for no speed on the other formats.
    const FAST_FIRST: bool = true;
    /// Panics unless every slice operand has length `n`.
    fn check(self, n: usize);
    /// The operands restricted to the elements `r`.
    fn window(self, r: Range<usize>) -> Self;
    /// Element `i` through the executor `x`.
    fn elem<X: Exec>(self, x: &mut X, i: usize) -> f64;
}

/// An operand of a binary op: a slice, or an `f64` broadcast to every
/// element.
trait Arg: Copy {
    fn check(self, n: usize);
    fn window(self, r: Range<usize>) -> Self;
    fn at(self, i: usize) -> f64;
}

impl Arg for &[f64] {
    fn check(self, n: usize) {
        assert_eq!(self.len(), n);
    }
    fn window(self, r: Range<usize>) -> Self {
        &self[r]
    }
    fn at(self, i: usize) -> f64 {
        self[i]
    }
}

impl Arg for f64 {
    fn check(self, _: usize) {}
    fn window(self, _: Range<usize>) -> Self {
        self
    }
    fn at(self, _: usize) -> f64 {
        self
    }
}

/// Binary op kinds as const-generic tags, so each instantiation's kind
/// folds out of the element loop.
const ADD: u8 = OpKind::Add as u8;
const SUB: u8 = OpKind::Sub as u8;
const MUL: u8 = OpKind::Mul as u8;
const DIV: u8 = OpKind::Div as u8;

const fn bin_kind(k: u8) -> OpKind {
    match k {
        ADD => OpKind::Add,
        SUB => OpKind::Sub,
        MUL => OpKind::Mul,
        _ => OpKind::Div,
    }
}

#[derive(Clone, Copy)]
struct Bin<const K: u8, A, B>(A, B);

impl<const K: u8, A: Arg, B: Arg> Shape for Bin<K, A, B> {
    const COUNTS: &'static [(OpKind, u64)] = &[(bin_kind(K), 1)];
    fn check(self, n: usize) {
        self.0.check(n);
        self.1.check(n);
    }
    fn window(self, r: Range<usize>) -> Self {
        Bin(self.0.window(r.clone()), self.1.window(r))
    }
    #[inline(always)]
    fn elem<X: Exec>(self, x: &mut X, i: usize) -> f64 {
        x.bin(bin_kind(K), self.0.at(i), self.1.at(i))
    }
}

#[derive(Clone, Copy)]
struct Sqrt<A>(A);

impl<A: Arg> Shape for Sqrt<A> {
    const COUNTS: &'static [(OpKind, u64)] = &[(OpKind::Sqrt, 1)];
    fn check(self, n: usize) {
        self.0.check(n);
    }
    fn window(self, r: Range<usize>) -> Self {
        Sqrt(self.0.window(r))
    }
    #[inline(always)]
    fn elem<X: Exec>(self, x: &mut X, i: usize) -> f64 {
        x.sqrt(self.0.at(i))
    }
}

#[derive(Clone, Copy)]
struct Log10<A>(A);

impl<A: Arg> Shape for Log10<A> {
    const COUNTS: &'static [(OpKind, u64)] = &[(OpKind::Math, 1)];
    fn check(self, n: usize) {
        self.0.check(n);
    }
    fn window(self, r: Range<usize>) -> Self {
        Log10(self.0.window(r))
    }
    #[inline(always)]
    fn elem<X: Exec>(self, x: &mut X, i: usize) -> f64 {
        x.math(MathFn::Log10, self.0.at(i))
    }
}

/// The fused WENO5 stencil ([`weno5_elem`]; the `bool` is its `INV_TAIL`).
#[derive(Clone, Copy)]
struct Weno5<'a, const INV_TAIL: bool>([&'a [f64]; 5]);

impl<const INV_TAIL: bool> Shape for Weno5<'_, INV_TAIL> {
    const COUNTS: &'static [(OpKind, u64)] = &[
        (OpKind::Add, weno5_counts(INV_TAIL).0),
        (OpKind::Sub, weno5_counts(INV_TAIL).1),
        (OpKind::Mul, weno5_counts(INV_TAIL).2),
        (OpKind::Div, weno5_counts(INV_TAIL).3),
    ];
    const FAST_FIRST: bool = false;
    fn check(self, n: usize) {
        for v in self.0 {
            v.check(n);
        }
    }
    fn window(self, r: Range<usize>) -> Self {
        Weno5(self.0.map(|v| &v[r.clone()]))
    }
    #[inline(always)]
    fn elem<X: Exec>(self, x: &mut X, i: usize) -> f64 {
        let v = self.0;
        weno5_elem::<X, INV_TAIL>(x, v[0][i], v[1][i], v[2][i], v[3][i], v[4][i])
    }
}

// ---------------------------------------------------------------------------
// Fused WENO5 stencil AST
// ---------------------------------------------------------------------------
//
// The WENO5 combination is 65 dependent scalar ops per element — squares of
// three-term stencils, three regularized divisions, a final normalization.
// Dispatching each through the per-op path costs 65 TLS loads and counter
// bumps per cell; fusing the whole AST into one batch call pays the
// dispatch once and lets the monomorphized rounding constant-fold through
// the entire chain. Written once over the executor, so every tier
// evaluates *exactly* the same operations in the same order as the scalar
// consumers.

/// The Jiang–Shu WENO5 combination, op-for-op identical to
/// `hydro::recon::weno5` (INV_TAIL = false: final `/ asum`) and
/// `incomp::solver::weno5_core` (INV_TAIL = true: `inv = 1/asum`, final
/// `* inv`). Both `powi(2)` calls lower to a single self-multiply, exactly
/// like `Tracked::powi`'s square-and-multiply chain.
#[inline(always)]
fn weno5_elem<X: Exec, const INV_TAIL: bool>(
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
/// `(add, sub, mul, div)`. The bulk counter adds use these so the session
/// totals are exactly what the scalar consumer would have bumped.
const fn weno5_counts(inv_tail: bool) -> (u64, u64, u64, u64) {
    (19, 8, 34 + inv_tail as u64, 4)
}

// ---------------------------------------------------------------------------
// Per-element executors, one per dispatch tier
// ---------------------------------------------------------------------------

/// One dispatch tier's semantics for a single op. The shapes call these
/// with a constant op kind, so after inlining no per-element dispatch
/// remains.
trait Exec {
    fn bin(&mut self, kind: OpKind, a: f64, b: f64) -> f64;
    fn sqrt(&mut self, a: f64) -> f64;
    fn math(&mut self, func: MathFn, a: f64) -> f64;
}

/// Hardware tier: plain `f64` ops, no rounding.
#[derive(Clone, Copy)]
struct Hw;
impl Exec for Hw {
    #[inline(always)]
    fn bin(&mut self, kind: OpKind, a: f64, b: f64) -> f64 {
        ops::raw2(kind, a, b)
    }
    #[inline(always)]
    fn sqrt(&mut self, a: f64) -> f64 {
        a.sqrt()
    }
    #[inline(always)]
    fn math(&mut self, func: MathFn, a: f64) -> f64 {
        func.eval_f64(a)
    }
}

/// Hardware tier for the Native FP32 rung: the `f32` ops of the scalar
/// Native path. A binary op runs in `f64` on the `f32` operands and rounds
/// once more to `f32`: innocuous double rounding (`2 * 24 + 2 <= 53`), so
/// bit-identical to the `f32` op.
#[derive(Clone, Copy)]
struct Hw32;
impl Exec for Hw32 {
    #[inline(always)]
    fn bin(&mut self, kind: OpKind, a: f64, b: f64) -> f64 {
        ops::raw2(kind, (a as f32) as f64, (b as f32) as f64) as f32 as f64
    }
    #[inline(always)]
    fn sqrt(&mut self, a: f64) -> f64 {
        (a as f32).sqrt() as f64
    }
    #[inline(always)]
    fn math(&mut self, func: MathFn, a: f64) -> f64 {
        func.eval_f64((a as f32) as f64) as f32 as f64
    }
}

/// Fast tier, cheap executor: branchless [`Grid::fast_round`] around every
/// operand and result, accumulating the shared `slow` flag. When the flag
/// trips, the caller discards the chunk and re-runs it through [`Exact`];
/// when it doesn't, every intermediate is bit-identical to the exact chain
/// (the fast-round contract), so chaining is safe.
struct Fast {
    grid: Grid,
    slow: bool,
}
impl Exec for Fast {
    #[inline(always)]
    fn bin(&mut self, kind: OpKind, a: f64, b: f64) -> f64 {
        let g = self.grid;
        let r = ops::raw2(kind, g.fast_round(a, &mut self.slow), g.fast_round(b, &mut self.slow));
        g.fast_round(r, &mut self.slow)
    }
    #[inline(always)]
    fn sqrt(&mut self, a: f64) -> f64 {
        let g = self.grid;
        let r = g.fast_round(a, &mut self.slow).sqrt();
        g.fast_round(r, &mut self.slow)
    }
    /// [`Grid::math`]: exact for every input, so it never trips `slow`.
    #[inline(always)]
    fn math(&mut self, func: MathFn, a: f64) -> f64 {
        self.grid.math(func, a)
    }
}

/// Fast tier, exact executor: the `round → op → finish` short-cut the
/// scalar Soft path takes ([`ops::fmt_op2`]), with [`Grid::exact_round`]
/// for every rounding. It sets `window` on a guarded format's result in
/// the `f64` subnormal window: the one case it does not round as the
/// scalar path does, whose chunk the caller re-runs through [`Emulate`].
struct Exact {
    grid: Grid,
    window: bool,
}
impl Exec for Exact {
    #[inline(always)]
    fn bin(&mut self, kind: OpKind, a: f64, b: f64) -> f64 {
        let g = self.grid;
        let r = ops::raw2(kind, g.exact_round(a), g.exact_round(b));
        self.window |= (g.emul.dr == DoubleRound::Guarded) & DoubleRound::in_window(r);
        g.finish(r)
    }
    #[inline(always)]
    fn sqrt(&mut self, a: f64) -> f64 {
        // Unguarded, as in `ops::fmt_sqrt`: a square root never lands in
        // the subnormal window.
        let g = self.grid;
        g.finish(g.exact_round(a).sqrt())
    }
    /// [`Grid::math`], unguarded: the scalar path evaluates math
    /// functions in `f64` too, so no result's window needs re-running.
    #[inline(always)]
    fn math(&mut self, func: MathFn, a: f64) -> f64 {
        self.grid.math(func, a)
    }
}

/// Emulation tier: the Big path, directed rounding, formats past the
/// short-cut's bound — the same per-op emulation the scalar path calls,
/// with the decision captured once.
struct Emulate(ops::Emul);
impl Exec for Emulate {
    #[inline(always)]
    fn bin(&mut self, kind: OpKind, a: f64, b: f64) -> f64 {
        ops::emulate2(self.0, kind, a, b)
    }
    #[inline(always)]
    fn sqrt(&mut self, a: f64) -> f64 {
        ops::emulate_sqrt(self.0, a)
    }
    #[inline(always)]
    fn math(&mut self, func: MathFn, a: f64) -> f64 {
        ops::emulate_math(self.0, func, a)
    }
}

/// Defensive mem-mode tier: full per-op scalar entry points (each op
/// re-reads the dispatch and bumps its own counters), for callers that
/// ignore the [`ready`] gate.
struct Ops;
impl Exec for Ops {
    #[inline(always)]
    fn bin(&mut self, kind: OpKind, a: f64, b: f64) -> f64 {
        ops::op2(kind, a, b)
    }
    #[inline(always)]
    fn sqrt(&mut self, a: f64) -> f64 {
        ops::op_sqrt(a)
    }
    #[inline(always)]
    fn math(&mut self, func: MathFn, a: f64) -> f64 {
        ops::op_math(func, a)
    }
}

/// The mem-mode tier's value plane past the short-cut's bound: the `Fmt`
/// slot arithmetic per lane, on format values.
struct Slots(ops::Emul);
impl Exec for Slots {
    #[inline(always)]
    fn bin(&mut self, kind: OpKind, a: f64, b: f64) -> f64 {
        let e = self.0;
        ops::fmt_op2(e.fmt, e.rm, e.dr, kind, a, b)
    }
    #[inline(always)]
    fn sqrt(&mut self, a: f64) -> f64 {
        let e = self.0;
        ops::fmt_sqrt(e.fmt, e.rm, e.dr, a)
    }
    #[inline(always)]
    fn math(&mut self, func: MathFn, a: f64) -> f64 {
        ops::emulate_math(self.0, func, a)
    }
}

// ---------------------------------------------------------------------------
// The mem-mode tier's active ops
// ---------------------------------------------------------------------------

thread_local! {
    /// Promoted value planes of an op's raw operands, reused across ops.
    static PROMOTED: RefCell<[Vec<f64>; 2]> = const { RefCell::new([Vec::new(), Vec::new()]) };
}

/// `body` on this thread's installed session context.
fn with_act<R>(body: impl FnOnce(&mut ActiveCtx) -> R) -> R {
    ACTIVE.with(|cell| {
        let mut slot = cell.borrow_mut();
        body(slot.as_mut().expect("a mem-mode column op implies an installed session"))
    })
}

/// An operand of an active mem-mode op, promoted: value and shadow, each
/// a column or broadcast.
#[derive(Clone, Copy)]
enum Planes<'a> {
    B(f64, f64),
    S(&'a [f64], &'a [f64]),
}

/// How an active mem-mode op computes its planes: the value plane through
/// the tier op mode runs the session's format on, the shadow plane in
/// hardware.
#[derive(Clone, Copy)]
struct MemTier {
    emul: ops::Emul,
    width: Width,
}

impl MemTier {
    /// `value` into `val` and `shadow` into `sh`: one shape over the value
    /// planes and the same one over the shadow planes.
    #[inline(always)]
    fn eval<V: Shape, S: Shape>(self, value: V, shadow: S, val: &mut [f64], sh: &mut [f64]) {
        if self.emul.dr != DoubleRound::Unsafe {
            self.width.column(Grid::of(self.emul), value, val);
        } else {
            each(value, &mut Slots(self.emul), val);
        }
        self.width.column(Hw, shadow, sh);
    }
}

/// An operand's planes, its raw lanes promoted into `buf` as
/// [`MemShard::resolve`](crate::memmode) auto-promotes a raw value: the
/// rounded value beside the raw value as its shadow. Adds the promoted
/// lanes to `promoted`.
fn promote<'a>(l: Lanes<'a>, n: usize, buf: &'a mut Vec<f64>, p: &MemParams, promoted: &mut u64) -> Planes<'a> {
    let round = |x: f64| p.make_val(x).to_f64();
    let (v, s, raw) = match l {
        Lanes::B(x) => {
            *promoted += n as u64;
            return Planes::B(round(x), x);
        }
        Lanes::S(v, None) => (v, v, None),
        Lanes::S(v, Some((s, r))) => (v, s, Some(r)),
    };
    l.check(n);
    let k = raw.map_or(n, |r| r.iter().filter(|&&r| r).count());
    if k == 0 {
        return Planes::S(v, s);
    }
    *promoted += k as u64;
    buf.clear();
    match raw {
        None => buf.extend(v.iter().map(|&x| round(x))),
        Some(r) => buf.extend(v.iter().zip(r).map(|(&x, &r)| if r { round(x) } else { x })),
    }
    Planes::S(buf, s)
}

/// One active op of the mem-mode tier over `args`: promote their raw
/// lanes, let `eval` write the value and shadow planes, count the op
/// `counts` times per lane, and add every lane's relative deviation into
/// `loc`'s statistics, with one site lookup.
fn mem_op<const A: usize>(
    loc: &'static Location<'static>,
    args: [Col; A],
    counts: &[(OpKind, u64)],
    eval: impl FnOnce(MemTier, [Planes<'_>; A], &mut [f64], &mut [f64]),
) -> Col {
    ARENA.with(|ar| {
        let mut ar = ar.borrow_mut();
        let (col, mut out) = ar.alloc_planes();
        let n = out.val.len();
        with_act(|act| {
            let p = &act.mem_params;
            let tier = MemTier { emul: p.emul(), width: Width::current() };
            let mut promoted = 0;
            PROMOTED.with(|bufs| {
                let mut bufs = bufs.borrow_mut();
                let mut bufs = bufs.iter_mut();
                let planes = args.map(|c| {
                    let buf = bufs.next().expect("ops take at most two operands");
                    promote(ar.lanes(c), n, buf, p, &mut promoted)
                });
                eval(tier, planes, &mut out.val, &mut out.shadow);
            });
            act.mem.promoted(promoted);
            let threshold = p.threshold;
            let site = act.mem.site_stats(loc);
            for (&v, &s) in out.val.iter().zip(&out.shadow) {
                site.add(rel_deviation(v, s), threshold);
            }
        });
        FAST.with(|f| {
            for &(kind, per) in counts {
                f.trunc.bump_n(kind, per * n as u64);
            }
        });
        out.raw.fill(false);
        ar.put_planes(col, out)
    })
}

// ---------------------------------------------------------------------------
// Fast rounding
// ---------------------------------------------------------------------------

/// A short-cut op-mode decision as the fast tier's loop-invariant data:
/// the round-to-nearest-even masks and range limits of its format,
/// precomputed once per op.
#[derive(Clone, Copy)]
struct Grid {
    /// `2^(drop - 1) - 1`: half an ulp of the format, less one.
    half_m1: u64,
    /// Clears the `drop` low bits that the format does not keep.
    keep: u64,
    /// `52 - man_bits`: the position of the format's last kept bit.
    drop: u32,
    /// `2^emin`, the format's smallest normal magnitude.
    min_normal: f64,
    /// `2^(emax + 1)`, the smallest magnitude past the format's largest
    /// finite one (`inf` for 11 exponent bits).
    overflow: f64,
    /// `2^(emin - man_bits + 52)`: adding and subtracting it rounds a
    /// magnitude below `2^emin` onto the format's subnormal grid.
    sub_shift: f64,
    /// The decision itself: its window guard, the guarded-window re-run's
    /// emulation and the math functions'.
    emul: ops::Emul,
}

impl Grid {
    fn of(emul: ops::Emul) -> Grid {
        let (e, m) = (emul.fmt.exp_bits(), emul.fmt.man_bits());
        let drop = 52 - m;
        let emax = (1i32 << (e - 1)) - 1;
        let pow2 = |k: i32| f64::from_bits(((k + 1023) as u64) << 52);
        Grid {
            half_m1: (1u64 << (drop - 1)) - 1,
            keep: !((1u64 << drop) - 1),
            drop,
            min_normal: pow2(1 - emax),
            overflow: pow2(emax + 1),
            sub_shift: pow2(1 - emax - m as i32 + 52),
            emul,
        }
    }

    /// RNE rounding for magnitudes whose rounded value stays in the
    /// format's *normal* range: the classic add-half-and-truncate on the
    /// raw bit pattern (carry out of the mantissa bumps the biased
    /// exponent exactly as IEEE encoding requires). ±0 passes through
    /// unchanged.
    #[inline(always)]
    fn truncate(self, x: f64) -> f64 {
        let bits = x.to_bits();
        let lsb = (bits >> self.drop) & 1;
        f64::from_bits(bits.wrapping_add(self.half_m1 + lsb) & self.keep)
    }

    /// Branchless [`Grid::truncate`] that *flags* `slow` for anything the
    /// trick cannot serve exactly — a non-finite input, a nonzero
    /// magnitude below the format's normal range (target-subnormal,
    /// variable shift), or a result past `emax` (overflow to infinity) —
    /// instead of handling the case; the caller re-runs that chunk
    /// through [`Exact`], which does. The flags are `f64` compares against
    /// the grid's limits, so the loop around it vectorizes.
    #[inline(always)]
    fn fast_round(self, x: f64, slow: &mut bool) -> f64 {
        let r = self.truncate(x);
        let mag = x.abs();
        *slow |= !x.is_finite()
            | ((mag < self.min_normal) & (mag > 0.0))
            | (r.abs() >= self.overflow);
        r
    }

    /// Branchless RNE rounding into the format for every input, bit for
    /// bit the scalar path's
    /// [`round_rne_core`](bigfloat::kernel::round_rne_core): the
    /// [`Grid::truncate`] trick with `f64` selects for the cases
    /// [`Grid::fast_round`] flags. A magnitude below `2^emin` rounds on
    /// the subnormal grid — one hardware RNE add of `sub_shift` and its
    /// subtraction — and takes the sign back; a rounded magnitude of
    /// `2^(emax + 1)` or more becomes a signed infinity; a non-finite
    /// input passes through.
    #[inline(always)]
    fn exact_round(self, x: f64) -> f64 {
        let r = self.truncate(x);
        let mag = x.abs();
        let sub = ((mag + self.sub_shift) - self.sub_shift).copysign(x);
        let r = if mag < self.min_normal {
            sub
        } else if r.abs() >= self.overflow {
            f64::INFINITY.copysign(x)
        } else {
            r
        };
        if x.is_finite() {
            r
        } else {
            x
        }
    }

    /// An op's result rounding: [`Grid::exact_round`], then a NaN made
    /// canonical, as the scalar path's `ops::finish_shortcut` does.
    #[inline(always)]
    fn finish(self, r: f64) -> f64 {
        let r = self.exact_round(r);
        if r.is_nan() {
            f64::NAN
        } else {
            r
        }
    }

    /// A math function's result in the format, bit for bit the scalar Soft
    /// path's [`ops::emulate_math`]: `func` in `f64` on the rounded operand
    /// ([`Grid::exact_round`] is that path's `round_f64` at RNE), then
    /// [`Grid::truncate`], the path's `p`-bit rounding of a normal `f64`,
    /// which is final when it lands in the format's normal range. Every
    /// other lane goes through `emulate_math` itself: a result that rounds
    /// below that range or past it, ±0, ±inf and NaN. An `f64` subnormal
    /// needs no test of its own: `truncate` rounds it onto the
    /// 11-exponent-bit subnormal grid in one step, so it reaches the normal
    /// range (at `2^-1022`) only from the top half-ulp below, where the
    /// scalar path's two roundings land too, and stays below the range
    /// otherwise.
    #[inline(always)]
    fn math(self, func: MathFn, a: f64) -> f64 {
        let y = func.eval_f64(self.exact_round(a));
        let r = self.truncate(y);
        if (r.abs() >= self.min_normal) & (r.abs() < self.overflow) {
            r
        } else {
            emulate_math(self.emul, func, a)
        }
    }
}

/// [`Grid::math`]'s lanes outside the format's normal range, out of line
/// like [`emulate`].
#[inline(never)]
fn emulate_math(emul: ops::Emul, func: MathFn, a: f64) -> f64 {
    ops::emulate_math(emul, func, a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::context::Session;
    use bigfloat::{Format, RoundMode};

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// `f`'s column, built in a scope of length `n`, as a vector.
    fn eval_col(n: usize, f: impl FnOnce() -> Col) -> Vec<f64> {
        let _cols = scope(n);
        f().read(<[f64]>::to_vec)
    }

    /// `a ⊙ b` for the binary op `kind`, through the `Col` operators.
    fn bin_op(kind: OpKind, a: Col, b: Col) -> Col {
        match kind {
            OpKind::Add => a + b,
            OpKind::Sub => a - b,
            OpKind::Mul => a * b,
            OpKind::Div => a / b,
            _ => unreachable!("binary ops only"),
        }
    }

    /// [`weno5_adv`] if `adv`, else [`weno5`].
    fn weno5_of(adv: bool, v: [Col; 5]) -> Col {
        if adv {
            weno5_adv(v)
        } else {
            weno5(v)
        }
    }

    #[test]
    fn no_session_is_hardware() {
        let a = [0.1, 0.2, 0.3];
        let b = [1.0, 2.0, 3.0];
        let sum = eval_col(3, || Col::from_slice(&a) + Col::from_slice(&b));
        assert_eq!(sum, [0.1 + 1.0, 0.2 + 2.0, 0.3 + 3.0]);
        let root = eval_col(3, || Col::from_slice(&b).sqrt());
        assert_eq!(root[1], 2f64.sqrt());
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
            for kind in [OpKind::Add, OpKind::Sub, OpKind::Mul, OpKind::Div] {
                let out = eval_col(a.len(), || {
                    bin_op(kind, Col::from_slice(&a), Col::from_slice(&b))
                });
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
        {
            let _r = crate::context::region("K");
            eval_col(4, || Col::from_slice(&a) * Col::from_slice(&b)); // 4 trunc muls
        }
        // 4 full adds (counted, inactive)
        eval_col(4, || Col::from_slice(&a) + Col::from_slice(&b));
        drop(g);
        let c = s.counters();
        assert_eq!(c.trunc.mul, 4);
        assert_eq!(c.full.add, 4);
    }

    /// An operand in the every-tier oracle: column `a`, `b` or `c`, or a
    /// broadcast value.
    #[derive(Clone, Copy, Debug)]
    enum In {
        A,
        B,
        C,
        S(f64),
    }

    /// One batch op shape, as the every-tier oracle drives it.
    #[derive(Clone, Copy, Debug)]
    enum Shape {
        Bin(OpKind, In, In),
        Sqrt(In),
        Log10(In),
        Minmod(In, In),
        /// A fused WENO5 stencil over the five windows (`adv`: the
        /// [`weno5_adv`] tail), its middle operand broadcast if given.
        Weno5 { adv: bool, mid: Option<f64> },
    }

    /// `shape` over the operand columns through `Col`, in one scope.
    fn shape_col(shape: Shape, [a, b, c]: [&[f64]; 3], w: [&[f64]; 5]) -> Vec<f64> {
        eval_col(a.len(), || {
            let col = |x: In| match x {
                In::A => Col::from_slice(a),
                In::B => Col::from_slice(b),
                In::C => Col::from_slice(c),
                In::S(s) => Col::from_f64(s),
            };
            match shape {
                Shape::Bin(k, x, y) => bin_op(k, col(x), col(y)),
                Shape::Sqrt(x) => col(x).sqrt(),
                Shape::Log10(x) => col(x).log10(),
                Shape::Minmod(x, y) => col(x).minmod(col(y)),
                Shape::Weno5 { adv, mid } => {
                    let mut v = w.map(Col::from_slice);
                    if let Some(m) = mid {
                        v[2] = Col::from_f64(m);
                    }
                    weno5_of(adv, v)
                }
            }
        })
    }

    /// `shape` element by element through the scalar per-op entry points
    /// (`minmod` through `Tracked`'s).
    fn shape_scalar(shape: Shape, [a, b, c]: [&[f64]; 3], w: [&[f64]; 5]) -> Vec<f64> {
        use crate::real::Tracked;
        (0..a.len())
            .map(|i| {
                let at = |x: In| match x {
                    In::A => a[i],
                    In::B => b[i],
                    In::C => c[i],
                    In::S(s) => s,
                };
                match shape {
                    Shape::Bin(k, x, y) => crate::ops::op2(k, at(x), at(y)),
                    Shape::Sqrt(x) => crate::ops::op_sqrt(at(x)),
                    Shape::Log10(x) => crate::ops::op_math(MathFn::Log10, at(x)),
                    Shape::Minmod(x, y) => Tracked(at(x)).minmod(Tracked(at(y))).0,
                    Shape::Weno5 { adv, mid } => weno5_lane(
                        adv,
                        [w[0][i], w[1][i], mid.unwrap_or(w[2][i]), w[3][i], w[4][i]],
                    ),
                }
            })
            .collect()
    }

    /// The every-tier oracle: each op shape through `Col` (the four binary
    /// ops on slice⊙slice, slice⊙broadcast, broadcast⊙slice and
    /// broadcast⊙broadcast operands; sqrt and log10 of a slice and of a
    /// broadcast; minmod; both fused WENO5 tails with a slice or broadcast
    /// middle operand) under one config per dispatch tier — the fast
    /// tier (fp16, e5m2, e11m8, e11m12, the odd-mantissa e11m5), its
    /// guarded formats (e11m20, e11m22), a format past the short-cut bound
    /// (e11m30), Native FP32, the Big path, a directed rounding mode, an
    /// inactive counting region and mem-mode (the planes tier at e11m12,
    /// fp16, the guarded e11m20 and e11m30 past the short-cut, and in an
    /// inactive region; and a storage precision below the format's, which
    /// keeps handles) — and with no session must give the scalar path's
    /// bits lane for lane and its counters exactly (minmod counts nothing
    /// on either), and under mem-mode its deviation statistics (call sites
    /// aside) and warnings, at every vector width the CPU reports. Columns `a` and `b` are raw random bit patterns mixed with
    /// moderate values and hand-picked specials. Column `c` is tame but
    /// for one subnormal or overflowing lane in some of its chunks (lanes
    /// 127 and 128, a later chunk and the final partial one), so its ops
    /// cross every switch of the fast tier's chunk loop: `Fast` passing,
    /// `Fast` flagging into `Exact` (on two chunks running), and the next
    /// chunk back on `Fast`. 812 lanes span six full chunks and a tail.
    #[test]
    fn every_tier_and_shape_matches_scalar_path() {
        const WIDTHS: &[Width] = &[
            Width::Base,
            #[cfg(target_arch = "x86_64")]
            Width::Avx2,
            #[cfg(target_arch = "x86_64")]
            Width::Avx512,
        ];
        for &width in WIDTHS {
            if width > Width::detected() {
                println!("vector width {}: skipped, the CPU does not report it", width.name());
                continue;
            }
            println!("vector width {}: covered", width.name());
            Width::pin(Some(width));
            every_tier_and_shape_at_pinned_width(width);
        }
        Width::pin(None);
    }

    fn every_tier_and_shape_at_pinned_width(width: Width) {
        const N: usize = 6 * CHUNK + 44;
        let specials = [
            0.1, -7.25, 1e20, f64::NAN, 5e-310, 0.0, -0.0, f64::INFINITY, -f64::INFINITY,
            f64::MIN_POSITIVE, 6e-5, 65504.0, 1e-300, -3.0,
        ];
        let mut state = 0xB47C_u64;
        let mut column = || -> Vec<f64> {
            let mut v = specials.to_vec();
            while v.len() < N {
                let r = splitmix(&mut state);
                v.push(if r & 1 == 0 {
                    f64::from_bits(splitmix(&mut state))
                } else {
                    ((r >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 1e3
                });
            }
            v
        };
        let (a, b) = (column(), column());
        // Column `c`'s chunks: hard (at its last lane), hard (at its
        // first), tame, tame, hard, tame and a hard tail.
        let unit = |r: u64| (r >> 12) as f64 / (1u64 << 52) as f64;
        let mut c: Vec<f64> = (0..N).map(|_| 1.0 + unit(splitmix(&mut state))).collect();
        let hard = [(127, -1e-310), (128, f64::MAX), (4 * CHUNK + 9, 3e-310), (N - 1, -f64::MAX)];
        for (i, x) in hard {
            c[i] = x;
        }
        let ops = [&a[..], &b[..], &c[..]];
        let w = random_windows(N, 0xE5);
        let win = |s: usize| &w[s..s + N];
        let w5 = [win(0), win(1), win(2), win(3), win(4)];

        let mut shapes = Vec::new();
        for k in [OpKind::Add, OpKind::Sub, OpKind::Mul, OpKind::Div] {
            shapes.push(Shape::Bin(k, In::A, In::B));
            for s in [0.7, 3e-6, -f64::INFINITY, f64::NAN] {
                shapes.push(Shape::Bin(k, In::A, In::S(s)));
                shapes.push(Shape::Bin(k, In::S(s), In::B));
                shapes.push(Shape::Bin(k, In::S(s), In::S(-2.5)));
            }
        }
        for k in [OpKind::Add, OpKind::Sub, OpKind::Mul, OpKind::Div] {
            shapes.extend([Shape::Bin(k, In::C, In::S(0.7)), Shape::Bin(k, In::C, In::C)]);
        }
        for x in [In::A, In::S(2.0)] {
            shapes.extend([Shape::Sqrt(x), Shape::Log10(x)]);
        }
        shapes.push(Shape::Sqrt(In::C));
        shapes.extend([
            Shape::Minmod(In::A, In::B),
            Shape::Minmod(In::A, In::S(0.5)),
            Shape::Minmod(In::S(-0.5), In::B),
        ]);
        for adv in [false, true] {
            for mid in [None, Some(0.625)] {
                shapes.push(Shape::Weno5 { adv, mid });
            }
        }

        let e11m12 = Format::new(11, 12);
        let mut directed = Config::op_all(e11m12);
        directed.round = RoundMode::TowardZero;
        let configs = [
            ("fp16", Config::op_all(Format::FP16), false),
            ("e5m2", Config::op_all(Format::FP8_E5M2), false),
            ("e11m8", Config::op_all(Format::new(11, 8)), false),
            ("e11m12", Config::op_all(e11m12), false),
            ("e11m5", Config::op_all(Format::new(11, 5)), false),
            ("e11m20", Config::op_all(Format::new(11, 20)), false),
            ("e11m22", Config::op_all(Format::new(11, 22)), false),
            ("e11m30", Config::op_all(Format::new(11, 30)), false),
            ("fp32-native", Config::op_all(Format::FP32), false),
            ("e11m12-big", Config::op_all(e11m12).with_path(EmulPath::Big), false),
            ("e11m12-rz", directed, false),
            ("inactive", Config::op_functions(e11m12, ["K"]), false),
            ("mem", Config::mem_functions(e11m12, ["K"], 1e-4), true),
            ("mem-fp16", Config::mem_functions(Format::FP16, ["K"], 1e-3), true),
            ("mem-e11m20", Config::mem_functions(Format::new(11, 20), ["K"], 1e-6), true),
            ("mem-e11m30", Config::mem_functions(Format::new(11, 30), ["K"], 1e-8), true),
            ("mem-inactive", Config::mem_functions(e11m12, ["K"], 1e-4), false),
            ("mem-prec8", Config::mem_functions(e11m12, ["K"], 1e-4).with_mem_precision(8), true),
        ];
        for (label, cfg, in_region) in &configs {
            for &shape in &shapes {
                let run = |col: bool| {
                    let s = Session::new(cfg.clone().with_counting()).unwrap();
                    let g = s.install();
                    let out: Vec<f64> = {
                        let _r = in_region.then(|| crate::context::region("K"));
                        let out = if col {
                            shape_col(shape, ops, w5)
                        } else {
                            shape_scalar(shape, ops, w5)
                        };
                        // Mem-mode handles carry the slab epoch, which
                        // differs between sessions; compare their values.
                        out.into_iter().map(crate::ops::resolve).collect()
                    };
                    drop(g);
                    // The mem-mode statistics without their call sites,
                    // which differ between the two drivers here.
                    let flags: Vec<_> = s.mem_flags().into_iter().map(|r| r.stats).collect();
                    (out, s.counters(), flags, s.warnings())
                };
                let (got, got_c, got_f, got_w) = run(true);
                let (want, want_c, want_f, want_w) = run(false);
                assert_eq!(got_f, want_f, "{width:?} {label} {shape:?}: mem-mode statistics");
                assert_eq!(got_w, want_w, "{width:?} {label} {shape:?}: warnings");
                for i in 0..N {
                    assert_eq!(
                        got[i].to_bits(),
                        want[i].to_bits(),
                        "{width:?} {label} {shape:?} lane {i}: {:e} vs scalar {:e}",
                        got[i],
                        want[i]
                    );
                }
                assert_eq!(got_c, want_c, "{width:?} {label} {shape:?}: counters");
                let counted = got_c.trunc.total() + got_c.full.total();
                if matches!(shape, Shape::Minmod(..)) {
                    assert_eq!(counted, 0, "{label} {shape:?}: an exact selection");
                } else {
                    assert!(counted > 0, "{label} {shape:?}: counted");
                }
            }
        }
        // And with no session at all: plain hardware.
        for &shape in &shapes {
            let (got, want) = (shape_col(shape, ops, w5), shape_scalar(shape, ops, w5));
            for i in 0..N {
                let (g, w) = (got[i].to_bits(), want[i].to_bits());
                assert_eq!(g, w, "{width:?} no session {shape:?} lane {i}");
            }
        }
    }

    /// The fast rounding as it was before its range checks became `f64`
    /// compares: the slow flag from the input's and the result's biased
    /// exponents. The oracle for [`Grid::fast_round`].
    fn fast_round_by_exponent(x: f64, e: u32, m: u32, slow: &mut bool) -> f64 {
        let drop = 52 - m;
        let bias = (1i32 << (e - 1)) - 1;
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

    /// For every format on the short-cut (E 2..=11, guarded e11m17–e11m24
    /// included), `Grid::fast_round` returns the exponent oracle's bits
    /// and slow flag, on random bit patterns and on the edges: ±0, `f64`
    /// subnormals, `2^emin` and its `f64` neighbours, the largest finite
    /// value, the tie past it that rounds up to overflow and that tie's
    /// neighbours, `f64::MAX`, ±inf and NaNs. An unflagged result is
    /// the scalar rounding's.
    #[test]
    fn grid_fast_round_matches_exponent_oracle() {
        use bigfloat::kernel::round_rne_core;
        let next = |x: f64, d: i64| f64::from_bits(x.to_bits().wrapping_add_signed(d));
        let mut state = 0x6E1D_u64;
        let mut formats = 0;
        for e in 2..=11u32 {
            for m in 1..=52u32 {
                let fmt = Format::new(e, m);
                let dr = fmt.double_round();
                if dr == DoubleRound::Unsafe {
                    continue;
                }
                formats += 1;
                let rm = RoundMode::NearestEven;
                let grid = Grid::of(ops::Emul { fmt, rm, path: EmulPath::Soft, dr });
                let (min_normal, max) = (fmt.min_normal(), fmt.max_finite());
                let tie = max + 2f64.powi(fmt.emax() - m as i32 - 1);
                let mut xs = vec![
                    0.0,
                    5e-324,
                    1e-310,
                    f64::MIN_POSITIVE,
                    min_normal,
                    next(min_normal, -1),
                    next(min_normal, 1),
                    max,
                    tie,
                    next(tie, -1),
                    next(tie, 1),
                    f64::MAX,
                    f64::INFINITY,
                    f64::NAN,
                    f64::from_bits(u64::MAX),
                ];
                xs.extend((0..200).map(|_| f64::from_bits(splitmix(&mut state))));
                for x in xs.clone() {
                    xs.push(-x);
                }
                for x in xs {
                    let (mut want_slow, mut got_slow) = (false, false);
                    let want = fast_round_by_exponent(x, e, m, &mut want_slow);
                    let got = grid.fast_round(x, &mut got_slow);
                    assert_eq!(got.to_bits(), want.to_bits(), "{fmt} {x:e}");
                    assert_eq!(got_slow, want_slow, "{fmt} {x:e}: slow flag");
                    if !got_slow {
                        let exact = round_rne_core(x, e, m);
                        assert_eq!(got.to_bits(), exact.to_bits(), "{fmt} {x:e}: unflagged");
                    }
                }
            }
        }
        assert_eq!(formats, 240, "E 2..=11 with 1..=24 mantissa bits");
    }

    /// `2^k`, down into `f64`'s subnormal range.
    fn pow2(k: i32) -> f64 {
        if k >= -1022 {
            f64::from_bits(((k + 1023) as u64) << 52)
        } else {
            f64::from_bits(1u64 << (k + 1074))
        }
    }

    /// For every format on the short-cut (E 2..=11), `Grid::exact_round`
    /// gives the bits of the scalar path's `round_rne_core` and of the
    /// `SoftFloat` rounding (non-finite values passed through). Inputs:
    /// random bit patterns; random magnitudes in `[2^(emin-m-2),
    /// 2^(emin+2))`; `2^emin`, the subnormal grid's ties `q/2`, `1.5q` and
    /// `2.5q` (`q` the smallest subnormal) and the overflow tie, each with
    /// its `f64` neighbours; `f64` subnormals, ±0, ±inf and NaNs of either
    /// sign. The exact
    /// executor's binary ops and square roots on pairs of them give the
    /// scalar path's bits and flag only a guarded format's result in the
    /// `f64` subnormal window.
    #[test]
    fn grid_exact_round_matches_core_and_soft() {
        use bigfloat::kernel::round_rne_core;
        use bigfloat::SoftFloat;
        let next = |x: f64, d: i64| f64::from_bits(x.to_bits().wrapping_add_signed(d));
        let mut state = 0xE4AC_u64;
        let (mut formats, mut windows) = (0, 0);
        for e in 2..=11u32 {
            for m in 1..=52u32 {
                let fmt = Format::new(e, m);
                let dr = fmt.double_round();
                if dr == DoubleRound::Unsafe {
                    continue;
                }
                formats += 1;
                let rm = RoundMode::NearestEven;
                let emul = ops::Emul { fmt, rm, path: EmulPath::Soft, dr };
                let grid = Grid::of(emul);
                let q = fmt.min_subnormal();
                let tie = fmt.max_finite() + 2f64.powi(fmt.emax() - m as i32 - 1);
                let mut xs = vec![
                    0.0,
                    5e-324,
                    1e-310,
                    next(f64::MIN_POSITIVE, -1),
                    f64::INFINITY,
                    f64::NAN,
                    f64::from_bits(u64::MAX),
                    f64::from_bits(0x7FF0_0000_0000_0001),
                ];
                for t in [fmt.min_normal(), q / 2.0, 1.5 * q, 2.5 * q, tie] {
                    xs.extend([t, next(t, -1), next(t, 1)]);
                }
                xs.extend((0..200).map(|_| f64::from_bits(splitmix(&mut state))));
                xs.extend((0..200).map(|_| {
                    let r = splitmix(&mut state);
                    let k = fmt.emin() - m as i32 - 2 + (r % (m as u64 + 4)) as i32;
                    f64::from_bits(0x3FF0_0000_0000_0000 | (r >> 12)) * pow2(k)
                }));
                for x in xs.clone() {
                    xs.push(-x);
                }
                for &x in &xs {
                    let got = grid.exact_round(x);
                    let core = round_rne_core(x, e, m);
                    let soft = if x.is_finite() {
                        fmt.round_soft(&SoftFloat::from_f64(x), rm).to_f64()
                    } else {
                        x
                    };
                    assert_eq!(got.to_bits(), core.to_bits(), "{fmt} {x:e}: round_rne_core");
                    assert_eq!(got.to_bits(), soft.to_bits(), "{fmt} {x:e}: round_soft");
                }
                for (i, &a) in xs.iter().enumerate() {
                    let b = xs[(i * 7 + 3) % xs.len()];
                    for kind in [OpKind::Add, OpKind::Sub, OpKind::Mul, OpKind::Div] {
                        let mut x = Exact { grid, window: false };
                        let got = x.bin(kind, a, b);
                        let r = ops::raw2(kind, round_rne_core(a, e, m), round_rne_core(b, e, m));
                        let in_window = dr == DoubleRound::Guarded && DoubleRound::in_window(r);
                        assert_eq!(x.window, in_window, "{fmt} {a:e} {kind:?} {b:e}: window flag");
                        windows += in_window as usize;
                        if !in_window {
                            let want = ops::emulate2(emul, kind, a, b);
                            assert_eq!(got.to_bits(), want.to_bits(), "{fmt} {a:e} {kind:?} {b:e}");
                        }
                    }
                    let mut x = Exact { grid, window: false };
                    let got = x.sqrt(a);
                    assert!(!x.window, "{fmt} sqrt {a:e}: window flag");
                    let want = ops::emulate_sqrt(emul, a);
                    assert_eq!(got.to_bits(), want.to_bits(), "{fmt} sqrt {a:e}");
                }
            }
        }
        assert_eq!(formats, 240, "E 2..=11 with 1..=24 mantissa bits");
        assert!(windows > 0, "some guarded results land in the window");
    }

    /// For every format on the short-cut (E 2..=11) and every math
    /// function, `Grid::math` gives the bits of the scalar path's
    /// `ops::emulate_math`. Inputs: random bit patterns and moderate
    /// values; ±0, ±inf and NaNs of either sign; negative operands (logs
    /// of negatives); `1` (`log10(1)`); exponents that put `exp` and
    /// `exp2` just under the format's smallest normal, on its subnormal
    /// grid and past its `emax`; and `-740` (`exp(-740)`, an `f64`
    /// subnormal). Every class of finite nonzero result — rounded in
    /// range, and each fallback — occurs somewhere.
    #[test]
    fn grid_math_matches_emulate_math() {
        use std::f64::consts::LN_2;
        const FUNCS: [MathFn; 21] = [
            MathFn::Exp,
            MathFn::Exp2,
            MathFn::ExpM1,
            MathFn::Ln,
            MathFn::Ln1p,
            MathFn::Log2,
            MathFn::Log10,
            MathFn::Sin,
            MathFn::Cos,
            MathFn::Tan,
            MathFn::Asin,
            MathFn::Acos,
            MathFn::Atan,
            MathFn::Sinh,
            MathFn::Cosh,
            MathFn::Tanh,
            MathFn::Cbrt,
            MathFn::Floor,
            MathFn::Ceil,
            MathFn::Trunc,
            MathFn::Round,
        ];
        let mut state = 0x3A7E_u64;
        let mut formats = 0;
        // Finite nonzero lanes by class: rounded in range, and the
        // fallbacks for f64-subnormal, target-subnormal and overflowing
        // results.
        let mut classes = [0usize; 4];
        for e in 2..=11u32 {
            for m in 1..=52u32 {
                let fmt = Format::new(e, m);
                let dr = fmt.double_round();
                if dr == DoubleRound::Unsafe {
                    continue;
                }
                formats += 1;
                let emul = ops::Emul { fmt, rm: RoundMode::NearestEven, path: EmulPath::Soft, dr };
                let grid = Grid::of(emul);
                let (emin, emax) = (fmt.emin() as f64, fmt.emax() as f64);
                let mut xs = vec![
                    0.0,
                    f64::INFINITY,
                    f64::NAN,
                    f64::from_bits(0x7FF0_0000_0000_0001),
                    1.0,
                    0.5,
                    2.5,
                    -740.0,
                    emin - 0.25,
                    emin - 0.5 * m as f64,
                    emax + 1.5,
                ];
                for k in [emin - 0.25, emin - 0.5 * m as f64, emax + 1.5] {
                    xs.push(k * LN_2);
                }
                xs.extend((0..40).map(|_| f64::from_bits(splitmix(&mut state))));
                let unit = |r: u64| (r >> 11) as f64 / (1u64 << 53) as f64;
                xs.extend((0..40).map(|_| 40.0 * unit(splitmix(&mut state))));
                for x in xs.clone() {
                    xs.push(-x);
                }
                for func in FUNCS {
                    for &x in &xs {
                        let got = grid.math(func, x);
                        let want = ops::emulate_math(emul, func, x);
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "{fmt} {func:?}({x:e}): {got:e} vs {want:e}"
                        );
                        let y = func.eval_f64(grid.exact_round(x));
                        if y == 0.0 || !y.is_finite() {
                            continue;
                        }
                        let r = grid.truncate(y).abs();
                        let class = if y.abs() < f64::MIN_POSITIVE {
                            1
                        } else if r < grid.min_normal {
                            2
                        } else if r >= grid.overflow {
                            3
                        } else {
                            0
                        };
                        classes[class] += 1;
                    }
                }
            }
        }
        assert_eq!(formats, 240, "E 2..=11 with 1..=24 mantissa bits");
        assert!(classes.iter().all(|&n| n > 0), "every class of result occurs: {classes:?}");
    }

    /// `Grid::math` takes an `f64`-subnormal result that `truncate`
    /// carries up to `2^-1022` as final: for every 11-exponent-bit format
    /// on the short-cut, results from the midpoint below `2^-1022` up
    /// round there both in one step and through the scalar path's `p`-bit
    /// then format rounding (`SoftFloat::tanh`, as `tanh` is the identity
    /// on them in `f64`), and results under the midpoint stay below it.
    /// It calls `truncate` on the results: `Grid::math` rounds its operand
    /// first, which takes every operand in this window to `2^-1022`, so
    /// `grid_math_matches_emulate_math` cannot reach it through `tanh`.
    #[test]
    fn grid_truncate_of_f64_subnormals_matches_soft_double_rounding() {
        use bigfloat::SoftFloat;
        let rm = RoundMode::NearestEven;
        let mut state = 0x5B_u64;
        for m in 1..=24u32 {
            let fmt = Format::new(11, m);
            let dr = fmt.double_round();
            let grid = Grid::of(ops::Emul { fmt, rm, path: EmulPath::Soft, dr });
            let mid = f64::MIN_POSITIVE - fmt.min_subnormal() / 2.0;
            let next = |x: f64, d: i64| f64::from_bits(x.to_bits().wrapping_add_signed(d));
            let mut ys = vec![mid, next(mid, 1), next(f64::MIN_POSITIVE, -1)];
            let span = f64::MIN_POSITIVE.to_bits() - mid.to_bits();
            ys.extend((0..50).map(|_| f64::from_bits(mid.to_bits() + splitmix(&mut state) % span)));
            let below = next(mid, -1);
            for y in ys.iter().copied().chain([below]).flat_map(|y| [y, -y]) {
                assert_eq!(y.tanh().to_bits(), y.to_bits(), "{fmt} tanh({y:e})");
                let soft = SoftFloat::from_f64(y).tanh(fmt.precision(), rm);
                let want = fmt.round_soft(&soft, rm).to_f64();
                let got = grid.truncate(y);
                if y.abs() == below {
                    assert!(got.abs() < f64::MIN_POSITIVE, "{fmt} {y:e}: stays subnormal");
                } else {
                    assert_eq!(got.abs(), f64::MIN_POSITIVE, "{fmt} {y:e}: carries to 2^-1022");
                    let what = "scalar double rounding";
                    assert_eq!(got.to_bits(), want.to_bits(), "{fmt} {y:e}: {what}");
                }
            }
        }
    }

    /// Scalar oracle for the fused kernels: the same AST on one lane
    /// through the per-op scalar entry points.
    fn weno5_lane(adv: bool, [v0, v1, v2, v3, v4]: [f64; 5]) -> f64 {
        if adv {
            weno5_elem::<_, true>(&mut Ops, v0, v1, v2, v3, v4)
        } else {
            weno5_elem::<_, false>(&mut Ops, v0, v1, v2, v3, v4)
        }
    }

    /// [`weno5_lane`] over five windows.
    fn weno5_scalar(adv: bool, v: [&[f64]; 5]) -> Vec<f64> {
        (0..v[0].len()).map(|i| weno5_lane(adv, v.map(|w| w[i]))).collect()
    }

    fn random_windows(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed;
        // Mostly smooth data with raw-bit outliers sprinkled in, so the
        // exact chain meets its hard cases (inf/NaN/subnormal
        // intermediates).
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
        // The fast tier, per-element emulation, and a directed rounding
        // mode that forces it too — plus the no-session hardware tier.
        let mut configs = vec![
            Config::op_all(Format::FP16),
            Config::op_all(Format::new(11, 12)),
            // An odd-mantissa format on the fast tier, two guarded
            // formats, and a wide format past the double-round bound
            // (per-element emulation).
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
            for (adv, tail) in [(false, "hydro"), (true, "incomp")] {
                let got = eval_col(n, || weno5_of(adv, v.map(Col::from_slice)));
                let want = weno5_scalar(adv, v);
                for i in 0..n {
                    assert_eq!(got[i].to_bits(), want[i].to_bits(), "{tail} tail, lane {i}");
                }
            }
        }
        let hw = eval_col(n, || weno5(v.map(Col::from_slice)));
        let hw_want = weno5_scalar(false, v);
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
        let run = |fused: bool, adv: bool| {
            let s = Session::new(Config::op_functions(Format::FP16, ["K"]).with_counting())
                .unwrap();
            let g = s.install();
            let once = || {
                if fused {
                    eval_col(n, || weno5_of(adv, v.map(Col::from_slice)))
                } else {
                    weno5_scalar(adv, v)
                }
            };
            {
                let _r = crate::context::region("K");
                once();
            }
            // An inactive fused call must bulk-count full ops like the
            // scalar chain would.
            once();
            drop(g);
            s.counters()
        };
        for adv in [false, true] {
            let fused = run(true, adv);
            let scalar = run(false, adv);
            assert_eq!(fused, scalar, "adv={adv}");
            let (ca, cs, cm, cd) = weno5_counts(adv);
            assert_eq!(fused.trunc.add, ca * n as u64);
            assert_eq!(fused.trunc.sub, cs * n as u64);
            assert_eq!(fused.trunc.mul, cm * n as u64);
            assert_eq!(fused.trunc.div, cd * n as u64);
            assert_eq!(fused.full.div, cd * n as u64);
        }
    }

    #[test]
    fn col_log10_matches_scalar_and_counts() {
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
            let got = eval_col(a.len(), || Col::from_slice(&a).log10());
            for (i, (&y, &x)) in got.iter().zip(&a).enumerate() {
                let want = crate::ops::op_math(MathFn::Log10, x);
                assert_eq!(y.to_bits(), want.to_bits(), "lane {i}");
            }
            drop(g);
            // One bulk count for the column op + one per-element bump each
            // from the oracle loop.
            assert_eq!(s.counters().trunc.math, 2 * a.len() as u64);
        }
    }

    /// An op between two broadcasts yields a full column and counts one op
    /// per element of the scope.
    #[test]
    fn col_broadcast_pair_counts_one_op_per_element() {
        let s = Session::new(Config::op_all(Format::FP16).with_counting()).unwrap();
        let g = s.install();
        let _cols = scope(5);
        let r = Col::from_f64(1.5) * Col::from_f64(3.0);
        r.read(|v| assert_eq!(v, &[4.5; 5]));
        drop(g);
        assert_eq!(s.counters().trunc.mul, 5);
        assert_eq!(s.counters().trunc.total(), 5);
    }

    /// A column used after its scope ended panics, whether or not its slot
    /// has been handed out again.
    #[test]
    fn stale_col_panics() {
        use std::panic::catch_unwind;
        let old = {
            let _cols = scope(3);
            Col::from_slice(&[1.0, 2.0, 3.0])
        };
        let _cols = scope(3);
        assert!(catch_unwind(|| old + old).is_err(), "slot not yet reused");
        let _fresh = Col::from_slice(&[4.0, 5.0, 6.0]);
        assert!(catch_unwind(|| old.read(|v| v[0])).is_err(), "slot reused");
    }

    /// Operands must have the scope's length.
    #[test]
    fn col_length_mismatch_panics() {
        use std::panic::catch_unwind;
        let _outer = scope(4);
        let four = Col::from_slice(&[1.0; 4]);
        let _inner = scope(3);
        assert!(catch_unwind(|| four + Col::from_f64(1.0)).is_err());
        assert!(catch_unwind(|| four.max(Col::from_f64(1.0))).is_err());
        assert!(catch_unwind(|| Col::from_slice(&[1.0; 2])).is_err());
    }

    /// `min`/`max` are `Tracked`'s exact selections: the left operand
    /// wins ties (so `-0.0` vs `0.0` keeps the left zero) and NaNs on
    /// either side. `minmod` is too, and gives `+0.0` unless both slopes
    /// are nonzero with one sign: on equal slopes, `±0.0` or NaN on either
    /// side, opposite signs and two negatives.
    #[test]
    fn col_min_max_keep_the_left_operand_on_ties_and_nan() {
        use crate::real::Tracked;
        let nan = f64::NAN;
        let a = [
            1.0, 0.0, -0.0, nan, 2.0, nan, 3.0, 0.0, -0.0, 2.0, -1.0, -3.0, -2.0, 1.5, -2.0,
        ];
        let b = [
            1.0, -0.0, 0.0, 1.0, nan, nan, -3.0, 2.0, -3.0, -0.0, 2.0, -0.5, -2.0, 0.25, -7.0,
        ];
        let minmod: [f64; 15] = [
            1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -0.5, -2.0, 0.25, -2.0,
        ];
        let _cols = scope(a.len());
        let (ca, cb) = (Col::from_slice(&a), Col::from_slice(&b));
        for op in ["min", "max", "minmod"] {
            let got = match op {
                "min" => ca.min(cb),
                "max" => ca.max(cb),
                _ => ca.minmod(cb),
            };
            got.read(|v| {
                for i in 0..a.len() {
                    let (x, y) = (Tracked(a[i]), Tracked(b[i]));
                    let want = match op {
                        "min" => x.min(y),
                        "max" => x.max(y),
                        _ => x.minmod(y),
                    };
                    assert_eq!(v[i].to_bits(), want.0.to_bits(), "{op} lane {i}");
                }
            });
        }
        for i in 0..a.len() {
            assert_eq!(a[i].minmod(b[i]).to_bits(), minmod[i].to_bits(), "f64 minmod lane {i}");
        }
    }

    #[test]
    fn ready_reflects_mode_and_force_pin() {
        {
            let _pin = force_scalar(false);
            assert!(ready(), "no session: batch loops are plain hardware");
            let s = Session::new(Config::op_all(Format::FP16)).unwrap();
            let _g = s.install();
            assert!(ready());
        }
        {
            let s = Session::new(Config::op_all(Format::FP16)).unwrap();
            let _g = s.install();
            let _pin = force_scalar(true);
            assert!(!ready());
        }
        let _pin = force_scalar(false);
        let s = Session::new(Config::mem_functions(Format::FP16, ["K"], 1e-6)).unwrap();
        let g = s.install();
        assert!(!ready(), "ready() means op mode");
        assert!(mem_ready(), "Fmt slots at the format's precision carry planes");
        drop(g);
        let cfg = Config::mem_functions(Format::FP16, ["K"], 1e-6).with_mem_precision(8);
        let s = Session::new(cfg).unwrap();
        let g = s.install();
        assert!(!mem_ready(), "a storage precision below the format's keeps handles");
        drop(g);
        drop(_pin);
        let s = Session::new(Config::mem_functions(Format::FP16, ["K"], 1e-6)).unwrap();
        let _g = s.install();
        let _pin = force_scalar(true);
        assert!(!mem_ready(), "the pin holds the mem-mode path too");
    }

    /// Two [`force_scalar`] holders run one after the other, never
    /// interleaved, and a panic while pinned clears the flag and frees the
    /// lock for the next holder.
    #[test]
    fn force_scalar_pins_serialize_and_clear_on_panic() {
        use std::sync::atomic::AtomicBool;
        use std::sync::mpsc;
        static FIRST_DONE: AtomicBool = AtomicBool::new(false);
        let (pinned, wait) = mpsc::channel();
        let first = std::thread::spawn(move || {
            let _pin = force_scalar(true);
            pinned.send(()).unwrap();
            std::thread::sleep(std::time::Duration::from_millis(50));
            assert!(!ready(), "pinned to the scalar path on every thread");
            FIRST_DONE.store(true, Ordering::SeqCst);
        });
        wait.recv().unwrap();
        {
            let _pin = force_scalar(false);
            assert!(FIRST_DONE.load(Ordering::SeqCst), "the second pin waited for the first");
            assert!(ready());
        }
        first.join().unwrap();

        let unwound = std::panic::catch_unwind(|| {
            let _pin = force_scalar(true);
            panic!("a differential fails while pinned");
        });
        assert!(unwound.is_err());
        let _lock = FORCE_SCALAR_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        assert!(!FORCE_SCALAR.load(Ordering::SeqCst), "the flag is clear after the unwind");
    }
}
