//! mem-mode: shadow-value storage, handle encoding, and deviation flags
//! (paper §3.5, Fig. 5b, and the §6.3 debugging workflow).
//!
//! In mem-mode a value is not converted back to the carrier type after each
//! operation. Instead the truncated representation is *memorized* in a slab
//! and the carrier `f64`'s bit pattern holds an integer handle (the paper
//! bitcasts an id into the float). Every slot also carries an FP64 shadow
//! updated at full precision, so each operation can compare its truncated
//! result against "what the whole application would have computed in FP64"
//! and flag deviations beyond a threshold, grouped by source location.
//!
//! ## Handles
//!
//! Handles are NaN-boxed: a quiet-NaN bit pattern with a distinctive tag
//! in the top 16 bits, then a 16-bit *slab epoch* and a 32-bit slot
//! index. Clearing the slab bumps the epoch, so a handle used after
//! [`crate::Session::mem_clear_slab`] (or after its guard dropped) is
//! recognised as *stale*: it is counted, reported as its own warning, and
//! reads as NaN — it never resolves to the unrelated slot that now holds
//! its index. Raw values that never went through `pre()` are
//! *auto-promoted* (counted, and rounded into the format on first use),
//! where the paper would crash or warn.
//!
//! ## Slots
//!
//! A slot's truncated value is stored as one of three representations:
//!
//! * `Fmt(f64)` — when the session's format embeds in `f64` and the
//!   storage precision does not exceed the format's (the clamped case,
//!   which covers every [`crate::Config::mem_functions`] session). The
//!   value is an exact format value; add/sub/mul/div/sqrt run through
//!   the `Soft` path of op-mode's `emulate2`/`emulate_sqrt` (the
//!   single-rounding [`Format`] arithmetic, with its innocuous-double-
//!   rounding short-cut), minus their operand rounding, which is the
//!   identity on format values.
//! * `Soft(SoftFloat)` — other precisions up to 62 bits (precision
//!   increase, or formats wider than `f64`).
//! * `Big(BigFloat)` — beyond that, and the unclamped result of `fma`;
//!   any op reading a `Big` slot takes the generic limb path.
//!
//! ## Sharding
//!
//! Each thread's `ActiveCtx` owns a `MemShard`: its slots plus the flag
//! statistics pending since the last merge, accessed with no
//! synchronization on the op path. The session owns a `MemStats`, the
//! merged repository. Shards drain into it via `MemStats::merge` when a
//! session guard drops or a report is requested. Slots never merge:
//! handles are thread-local and die at the slab-clear barrier.
//!
//! Flag statistics are keyed by *call site*: the `&'static Location` from
//! `#[track_caller]` is mapped by address (a multiplicative hash) to a
//! per-shard site index, interned by [`SrcLoc`] on first sight, so the op
//! path never compares file names or hashes a path. Every statistic is
//! order-free: op and flag counts add, the maximum is a maximum, and the
//! deviations sum exactly in a [`bigfloat::ExactSum`], rounded once when
//! the report is built. Which thread ran which block, the order in which
//! shards merge, and whether a site's ops came one at a time or as a
//! batch column's lanes therefore leave the report unchanged.
//!
//! A shard outlives its install: the guard's drop clears it and parks it
//! in a thread-local, and the next install on that thread takes it back,
//! so the site table survives every later block and the slab is reserved
//! at its last size up front instead of regrowing from empty. The slab's
//! buffer itself is freed at park time, so it does not stay resident
//! while the rest of the program runs.
//! See the "Runtime hot path" section of the crate docs for the
//! invariants kernels may rely on.

use bigfloat::{BigFloat, DoubleRound, ExactSum, Format, RoundMode, SoftFloat};
use std::cell::Cell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::panic::Location;

/// Source location of an instrumented operation (from `#[track_caller]`,
/// the analog of LLVM debug locations like `"f.cpp:10:11"` in Fig. 4a).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SrcLoc {
    /// Source file path.
    pub file: &'static str,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

impl From<&'static Location<'static>> for SrcLoc {
    fn from(l: &'static Location<'static>) -> Self {
        SrcLoc { file: l.file(), line: l.line(), col: l.column() }
    }
}

impl core::fmt::Display for SrcLoc {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}:{}:{}", self.file, self.line, self.col)
    }
}

const HANDLE_TAG: u64 = 0x7FFA_0000_0000_0000;
const HANDLE_MASK: u64 = 0xFFFF_0000_0000_0000;
const EPOCH_SHIFT: u32 = 32;
const IDX_MASK: u64 = 0xFFFF_FFFF;

/// Encode a slab epoch and index as a NaN-boxed handle.
#[inline]
pub(crate) fn encode_handle(epoch: u16, idx: usize) -> f64 {
    assert!(idx as u64 <= IDX_MASK, "mem-mode slab exceeds 2^32 slots");
    f64::from_bits(HANDLE_TAG | (epoch as u64) << EPOCH_SHIFT | idx as u64)
}

/// Decode a handle back to `(epoch, index)`, if the bit pattern is one.
#[inline]
pub(crate) fn decode_handle(x: f64) -> Option<(u16, usize)> {
    let bits = x.to_bits();
    if bits & HANDLE_MASK == HANDLE_TAG {
        Some(((bits >> EPOCH_SHIFT) as u16, (bits & IDX_MASK) as usize))
    } else {
        None
    }
}

/// Cheap handle test: one mask-and-compare on the bit pattern. The
/// inactive mem-mode dispatch uses this to skip the shard borrow entirely
/// for plain values.
#[inline(always)]
pub(crate) fn is_handle(x: f64) -> bool {
    x.to_bits() & HANDLE_MASK == HANDLE_TAG
}

/// The truncated representation stored per value (see the module docs).
#[derive(Clone, Debug)]
pub(crate) enum SlotVal {
    Fmt(f64),
    Soft(SoftFloat),
    Big(Box<BigFloat>),
}

impl SlotVal {
    pub(crate) fn to_f64(&self) -> f64 {
        match self {
            SlotVal::Fmt(x) => *x,
            SlotVal::Soft(s) => s.to_f64(),
            SlotVal::Big(b) => b.to_f64(),
        }
    }

    /// The value as a `SoftFloat`, unless it lives on the limb path.
    pub(crate) fn to_soft(&self) -> Option<SoftFloat> {
        match self {
            SlotVal::Fmt(x) => Some(SoftFloat::from_f64(*x)),
            SlotVal::Soft(s) => Some(*s),
            SlotVal::Big(_) => None,
        }
    }

    pub(crate) fn to_big(&self) -> BigFloat {
        match self {
            SlotVal::Fmt(x) => BigFloat::from_f64(*x),
            SlotVal::Soft(s) => BigFloat::from_soft(s),
            SlotVal::Big(b) => (**b).clone(),
        }
    }

    /// Exact negation. `Fmt` NaNs stay the canonical positive NaN, as
    /// `SoftFloat::neg` leaves them.
    pub(crate) fn neg(&self) -> SlotVal {
        match self {
            SlotVal::Fmt(x) => SlotVal::Fmt(if x.is_nan() { *x } else { -*x }),
            SlotVal::Soft(x) => SlotVal::Soft(x.neg()),
            SlotVal::Big(b) => SlotVal::Big(Box::new(b.neg())),
        }
    }

    /// Exact absolute value.
    pub(crate) fn abs(&self) -> SlotVal {
        match self {
            SlotVal::Fmt(x) => SlotVal::Fmt(x.abs()),
            SlotVal::Soft(x) => SlotVal::Soft(x.abs()),
            SlotVal::Big(b) => SlotVal::Big(Box::new(b.abs())),
        }
    }
}

/// One shadow slot: truncated value + FP64 shadow (Fig. 5b's `_raptor_fp`).
#[derive(Clone, Debug)]
pub(crate) struct Slot {
    pub(crate) val: SlotVal,
    pub(crate) shadow: f64,
}

/// A session's mem-mode parameters, resolved once per install.
#[derive(Clone, Copy, Debug)]
pub(crate) struct MemParams {
    /// Storage precision in bits.
    pub(crate) prec: u32,
    /// The session format, when it clamps the storage precision's range
    /// (`prec <= format.precision()`).
    pub(crate) clamp: Option<Format>,
    /// Slots store `SlotVal::Fmt`: `clamp` is set and the format embeds
    /// in `f64`.
    pub(crate) fmt_slots: bool,
    /// `clamp`'s smallest normal (0 without a clamp).
    min_normal: f64,
    pub(crate) round: RoundMode,
    /// `Fmt` slot arithmetic's hardware short-cut tier
    /// ([`crate::ops::shortcut`] of the format and `round`).
    pub(crate) dr: DoubleRound,
    pub(crate) threshold: f64,
}

impl MemParams {
    pub(crate) fn of(cfg: &crate::Config) -> MemParams {
        let fmt = cfg.format;
        let clamp = (cfg.mem_precision <= fmt.precision()).then_some(fmt);
        MemParams {
            prec: cfg.mem_precision,
            clamp,
            fmt_slots: clamp.is_some() && fmt.exp_bits() <= 11 && fmt.man_bits() <= 52,
            min_normal: clamp.map_or(0.0, |f| f.min_normal()),
            round: cfg.round,
            dr: crate::ops::shortcut(fmt, cfg.round),
            threshold: cfg.mem_threshold,
        }
    }

    /// Whether `Fmt` slots hold this session's values at the format's own
    /// precision (every [`crate::Config::mem_functions`] session): its
    /// slot arithmetic is then op-mode's on format values, which the batch
    /// tier's column ops run on whole value planes.
    pub(crate) fn planes(&self) -> bool {
        self.fmt_slots && self.clamp.is_some_and(|f| f.precision() == self.prec)
    }

    /// The op-mode decision whose `Soft` path is this session's `Fmt`
    /// slot arithmetic (operand rounding aside, the identity on format
    /// values). Only for `fmt_slots` sessions.
    pub(crate) fn emul(&self) -> crate::ops::Emul {
        crate::ops::Emul {
            fmt: self.clamp.expect("Fmt slots imply a clamping format"),
            rm: self.round,
            path: crate::config::EmulPath::Soft,
            dr: self.dr,
        }
    }

    /// Store a `SoftFloat` result in this session's slot representation
    /// (`r` must already be rounded into the format when `fmt_slots`).
    pub(crate) fn slot_val(&self, r: SoftFloat) -> SlotVal {
        if self.fmt_slots {
            SlotVal::Fmt(r.to_f64())
        } else {
            SlotVal::Soft(r)
        }
    }

    /// Build the truncated representation of a raw f64: rounded to `prec`
    /// bits, then clamped to the format's exponent range.
    pub(crate) fn make_val(&self, x: f64) -> SlotVal {
        let (prec, rm) = (self.prec, self.round);
        if self.fmt_slots {
            let fmt = self.clamp.expect("fmt_slots implies a clamping format");
            // At the format's own precision and in its normal range, the
            // clamp below is a no-op, so the two roundings collapse into
            // the format's one (bit-identical; see tests/mem_slots.rs).
            if prec == fmt.precision() && x.is_finite() && x.abs() >= self.min_normal {
                return SlotVal::Fmt(fmt.round_f64(x, rm));
            }
        }
        if prec <= 62 {
            let s = SoftFloat::from_f64(x);
            let r = if s.is_finite() && !s.is_zero() { s.round_to_prec(prec, rm) } else { s };
            self.slot_val(match self.clamp {
                Some(fmt) => fmt.round_soft(&r, rm),
                None => r,
            })
        } else {
            SlotVal::Big(Box::new(BigFloat::from_f64(x).round_to_prec(prec, rm)))
        }
    }
}

/// Per-location flag statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LocStats {
    /// Operations executed at this location.
    pub ops: u64,
    /// Operations whose truncated result deviated from the FP64 shadow by
    /// more than the configured threshold.
    pub flags: u64,
    /// Largest relative deviation observed.
    pub max_dev: f64,
    /// Sum of relative deviations (for the mean): the exact sum, rounded
    /// once to nearest, so it does not depend on the order of the ops.
    pub sum_dev: f64,
}

/// A site's statistics while they accumulate: [`LocStats`] with the
/// deviations summed exactly.
#[derive(Clone, Debug, Default)]
pub(crate) struct SiteStats {
    ops: u64,
    flags: u64,
    max_dev: f64,
    sum_dev: ExactSum,
}

impl SiteStats {
    /// Record one operation's deviation.
    #[inline]
    pub(crate) fn add(&mut self, rel_dev: f64, threshold: f64) {
        self.ops += 1;
        self.sum_dev.add(rel_dev);
        if rel_dev > self.max_dev {
            self.max_dev = rel_dev;
        }
        if rel_dev > threshold {
            self.flags += 1;
        }
    }

    /// Add another accumulation into this one.
    fn absorb(&mut self, s: &SiteStats) {
        self.ops += s.ops;
        self.flags += s.flags;
        self.sum_dev.absorb(&s.sum_dev);
        if s.max_dev > self.max_dev {
            self.max_dev = s.max_dev;
        }
    }

    /// The report's view: the sum rounded once.
    fn stats(&self) -> LocStats {
        LocStats { ops: self.ops, flags: self.flags, max_dev: self.max_dev, sum_dev: self.sum_dev.value() }
    }
}

/// A per-location entry of the mem-mode debugging report.
#[derive(Clone, Debug)]
pub struct LocReport {
    /// Source location.
    pub loc: SrcLoc,
    /// Statistics collected at that location.
    pub stats: LocStats,
}

impl LocReport {
    /// Mean relative deviation at this location.
    pub fn mean_dev(&self) -> f64 {
        if self.stats.ops == 0 {
            0.0
        } else {
            self.stats.sum_dev / self.stats.ops as f64
        }
    }
}

/// Folded-multiply hasher for `Location` addresses: the keys are distinct
/// `'static` addresses, so one widening multiply spreads them over both
/// halves of the hash.
#[derive(Default)]
struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("AddrHasher only hashes usize keys");
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        let p = (n as u128).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = (p as u64) ^ ((p >> 64) as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// How a carrier value relates to a shard's slab.
pub(crate) enum Lookup<'a> {
    /// A live handle of this shard.
    Slot(&'a Slot),
    /// A handle from a cleared slab (or an index this slab never issued).
    Stale,
    /// A plain value.
    Raw,
}

/// One thread's mem-mode state: its slab and its pending flag statistics.
#[derive(Default)]
pub(crate) struct MemShard {
    slots: Vec<Slot>,
    /// The slab's capacity when the shard was last parked.
    slab_hint: usize,
    /// Bumped by every slab clear; stamped into each handle.
    epoch: u16,
    /// `Location` address → index into `sites`.
    site_of: HashMap<usize, u32, BuildHasherDefault<AddrHasher>>,
    /// Interned call sites, one per distinct `SrcLoc`, with the statistics
    /// accumulated since the last merge.
    sites: Vec<(SrcLoc, SiteStats)>,
    auto_promotions: u64,
    stale_handles: u64,
}

thread_local! {
    /// This thread's shard between installs (see [`MemShard::take_parked`]).
    static PARKED: Cell<Option<MemShard>> = const { Cell::new(None) };
}

impl MemShard {
    /// The shard parked on this thread by the last guard drop, or a new
    /// one, with its slab reserved at the size it last grew to.
    pub(crate) fn take_parked() -> MemShard {
        let mut m = PARKED.with(Cell::take).unwrap_or_default();
        m.slots = Vec::with_capacity(m.slab_hint);
        m
    }

    /// Clear the slab and park the shard for the next install on this
    /// thread. Its statistics must already be merged. The slab's buffer
    /// is freed, not parked: held between installs it stays resident
    /// while the rest of the program allocates, and only its size is
    /// worth keeping.
    pub(crate) fn park(mut self) {
        debug_assert!(self.auto_promotions == 0);
        self.clear_slab();
        self.slab_hint = self.slots.capacity();
        self.slots = Vec::new();
        // During thread teardown the slot may be gone; the shard is then
        // simply dropped.
        let _ = PARKED.try_with(|p| p.set(Some(self)));
    }

    pub(crate) fn live_slots(&self) -> usize {
        self.slots.len()
    }

    /// Drop every slot; outstanding handles become stale.
    pub(crate) fn clear_slab(&mut self) {
        self.slots.clear();
        self.epoch = self.epoch.wrapping_add(1);
    }

    pub(crate) fn reset_stats(&mut self) {
        for (_, s) in &mut self.sites {
            *s = SiteStats::default();
        }
        self.auto_promotions = 0;
        self.stale_handles = 0;
    }

    /// Insert a slot and return its handle.
    pub(crate) fn push(&mut self, slot: Slot) -> f64 {
        let h = encode_handle(self.epoch, self.slots.len());
        self.slots.push(slot);
        h
    }

    /// Classify a carrier value against this slab.
    #[inline]
    pub(crate) fn lookup(&self, x: f64) -> Lookup<'_> {
        match decode_handle(x) {
            None => Lookup::Raw,
            Some((epoch, idx)) if epoch == self.epoch => {
                self.slots.get(idx).map_or(Lookup::Stale, Lookup::Slot)
            }
            Some(_) => Lookup::Stale,
        }
    }

    /// Resolve a carrier value into (truncated value, shadow), auto-
    /// promoting raw values that never went through `pre()` and reading
    /// stale handles as NaN.
    pub(crate) fn resolve(&mut self, x: f64, p: &MemParams) -> (SlotVal, f64) {
        match self.lookup(x) {
            Lookup::Slot(slot) => (slot.val.clone(), slot.shadow),
            Lookup::Stale => {
                self.stale_handles += 1;
                (p.make_val(f64::NAN), f64::NAN)
            }
            Lookup::Raw => {
                self.auto_promotions += 1;
                (p.make_val(x), x)
            }
        }
    }

    /// Count `n` raw values auto-promoted outside [`MemShard::resolve`].
    pub(crate) fn promoted(&mut self, n: u64) {
        self.auto_promotions += n;
    }

    /// The truncated value behind a carrier value (identity for raw
    /// values; stale handles are counted and read as NaN).
    pub(crate) fn value_of(&mut self, x: f64) -> f64 {
        match self.lookup(x) {
            Lookup::Slot(slot) => slot.val.to_f64(),
            Lookup::Stale => {
                self.stale_handles += 1;
                f64::NAN
            }
            Lookup::Raw => x,
        }
    }

    /// The site index of a call location, interned by `SrcLoc` on first
    /// sight.
    #[inline]
    fn site(&mut self, loc: &'static Location<'static>) -> u32 {
        let key = loc as *const Location<'static> as usize;
        if let Some(&i) = self.site_of.get(&key) {
            return i;
        }
        let src = SrcLoc::from(loc);
        let i = match self.sites.iter().position(|(l, _)| *l == src) {
            Some(i) => i as u32,
            None => {
                self.sites.push((src, SiteStats::default()));
                (self.sites.len() - 1) as u32
            }
        };
        self.site_of.insert(key, i);
        i
    }

    /// The statistics entry of a call site.
    #[inline]
    pub(crate) fn site_stats(&mut self, loc: &'static Location<'static>) -> &mut SiteStats {
        let site = self.site(loc);
        &mut self.sites[site as usize].1
    }

    /// Record an operation's deviation at a call site.
    #[inline]
    pub(crate) fn record(&mut self, loc: &'static Location<'static>, rel_dev: f64, threshold: f64) {
        self.site_stats(loc).add(rel_dev, threshold);
    }
}

/// A session's merged mem-mode statistics.
#[derive(Default)]
pub(crate) struct MemStats {
    stats: HashMap<SrcLoc, SiteStats>,
    auto_promotions: u64,
    stale_handles: u64,
}

impl MemStats {
    pub(crate) fn reset(&mut self) {
        *self = MemStats::default();
    }

    /// Drain a shard's flag statistics and event counts into this merged
    /// state. Called at sweep barriers and on session-guard drop; the
    /// shard's *slots* are never merged — handles are strictly
    /// thread-local and die at the barrier.
    pub(crate) fn merge(&mut self, shard: &mut MemShard) {
        for (loc, s) in &mut shard.sites {
            if s.ops > 0 {
                self.stats.entry(*loc).or_default().absorb(s);
                *s = SiteStats::default();
            }
        }
        self.auto_promotions += std::mem::take(&mut shard.auto_promotions);
        self.stale_handles += std::mem::take(&mut shard.stale_handles);
    }

    /// Sorted report: most-flagged locations first (the §6.3 heatmap).
    pub(crate) fn report(&self) -> Vec<LocReport> {
        let mut v: Vec<LocReport> = self
            .stats
            .iter()
            .map(|(loc, stats)| LocReport { loc: *loc, stats: stats.stats() })
            .collect();
        v.sort_by(|a, b| {
            b.stats
                .flags
                .cmp(&a.stats.flags)
                .then(b.stats.max_dev.partial_cmp(&a.stats.max_dev).unwrap_or(core::cmp::Ordering::Equal))
                .then(a.loc.cmp(&b.loc))
        });
        v
    }

    /// The warnings these counts call for.
    pub(crate) fn warnings(&self) -> Vec<String> {
        let mut w = Vec::new();
        if self.auto_promotions > 0 {
            w.push(format!(
                "mem-mode auto-promoted {} raw values that never went through pre() \
                 (the paper requires explicit boundary conversions, Fig. 3c)",
                self.auto_promotions
            ));
        }
        if self.stale_handles > 0 {
            w.push(format!(
                "mem-mode read {} stale handles, used after their slab was cleared; \
                 they read as NaN",
                self.stale_handles
            ));
        }
        w
    }
}

/// Relative deviation between a truncated result and its FP64 shadow.
#[inline]
pub(crate) fn rel_deviation(truncated: f64, shadow: f64) -> f64 {
    if truncated == shadow {
        return 0.0;
    }
    if truncated.is_nan() && shadow.is_nan() {
        return 0.0;
    }
    if !truncated.is_finite() || !shadow.is_finite() {
        return f64::INFINITY;
    }
    let denom = shadow.abs().max(f64::MIN_POSITIVE.sqrt());
    (truncated - shadow).abs() / denom
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Config;

    fn params(fmt: Format, prec: u32) -> MemParams {
        MemParams::of(&Config::mem_functions(fmt, ["K"], 1e-3).with_mem_precision(prec))
    }

    #[test]
    fn handle_roundtrip_and_detection() {
        let cases = [(0u16, 0usize), (1, 1), (7, 42), (u16::MAX, 1 << 20), (3, u32::MAX as usize)];
        for (epoch, idx) in cases {
            let h = encode_handle(epoch, idx);
            assert!(h.is_nan(), "handles are NaN-boxed");
            assert_eq!(decode_handle(h), Some((epoch, idx)));
        }
        assert_eq!(decode_handle(1.5), None);
        assert_eq!(decode_handle(f64::NAN), None, "genuine NaN is not a handle");
        assert_eq!(decode_handle(f64::INFINITY), None);
        assert_eq!(decode_handle(0.0), None);
    }

    #[test]
    fn resolve_auto_promotes_raw_values() {
        let mut m = MemShard::take_parked();
        let (v, sh) = m.resolve(0.1, &params(Format::FP64, 11));
        assert_eq!(sh, 0.1);
        // 0.1 at 11 bits is visibly coarser.
        assert!((v.to_f64() - 0.1).abs() > 1e-6);
        assert_eq!(m.auto_promotions, 1);
    }

    #[test]
    fn slab_push_and_resolve() {
        let p = params(Format::FP32, 24);
        let mut m = MemShard::take_parked();
        let h = m.push(Slot { val: p.make_val(2.5), shadow: 2.5 });
        let (v, sh) = m.resolve(h, &p);
        assert_eq!(v.to_f64(), 2.5);
        assert_eq!(sh, 2.5);
        assert_eq!(m.auto_promotions, 0);
        assert_eq!(m.live_slots(), 1);
        m.clear_slab();
        assert_eq!(m.live_slots(), 0);
    }

    #[test]
    fn stale_handles_are_counted_not_promoted() {
        let p = params(Format::FP32, 24);
        let mut m = MemShard::take_parked();
        let old = m.push(Slot { val: p.make_val(2.5), shadow: 2.5 });
        m.clear_slab();
        // The same index is live again, but under a new epoch.
        let new = m.push(Slot { val: p.make_val(7.0), shadow: 7.0 });
        assert_eq!(decode_handle(old).unwrap().1, decode_handle(new).unwrap().1);
        let (v, sh) = m.resolve(old, &p);
        assert!(v.to_f64().is_nan() && sh.is_nan());
        assert!(m.value_of(old).is_nan());
        assert_eq!(m.value_of(new), 7.0);
        assert_eq!((m.stale_handles, m.auto_promotions), (2, 0));
    }

    #[test]
    fn slot_representation_follows_the_format() {
        assert!(matches!(params(Format::new(11, 12), 13).make_val(1.0 / 3.0), SlotVal::Fmt(_)));
        assert!(matches!(params(Format::new(11, 12), 8).make_val(1.0 / 3.0), SlotVal::Fmt(_)));
        // Precision increase and formats wider than f64 keep SoftFloat.
        assert!(matches!(params(Format::new(11, 12), 24).make_val(1.0 / 3.0), SlotVal::Soft(_)));
        assert!(matches!(params(Format::new(15, 40), 41).make_val(1.0 / 3.0), SlotVal::Soft(_)));
        assert!(matches!(params(Format::FP64, 120).make_val(1.0 / 3.0), SlotVal::Big(_)));
    }

    #[test]
    fn parked_shard_keeps_slab_size_and_sites() {
        let p = params(Format::FP32, 24);
        let mut m = MemShard::take_parked();
        for i in 0..100 {
            m.push(Slot { val: p.make_val(i as f64), shadow: i as f64 });
        }
        let here = Location::caller();
        m.record(here, 0.5, 0.1);
        MemStats::default().merge(&mut m);
        let epoch = m.epoch;
        m.park();
        let m = MemShard::take_parked();
        assert_eq!(m.live_slots(), 0);
        assert!(m.slots.capacity() >= 100);
        assert_eq!(m.epoch, epoch.wrapping_add(1), "parking clears the slab");
        assert_eq!(m.sites.len(), 1);
        assert_eq!(m.sites[0].1.stats(), LocStats::default());
    }

    /// The merged statistics do not depend on how the ops were split
    /// across shards or on the order the shards merge in.
    #[test]
    fn merged_stats_are_order_free() {
        let here = Location::caller();
        let devs = [0.1, 1e-17, 0.3, 2.5e-9, 0.0, 1e-300, 0.7, 1e-16];
        let report = |split: usize, reverse: bool| {
            let (mut a, mut b) = (MemShard::default(), MemShard::default());
            for (i, &d) in devs.iter().enumerate() {
                if i < split { &mut a } else { &mut b }.record(here, d, 0.2);
            }
            let mut merged = MemStats::default();
            if reverse {
                merged.merge(&mut b);
                merged.merge(&mut a);
            } else {
                merged.merge(&mut a);
                merged.merge(&mut b);
            }
            merged.report()[0].stats
        };
        let want = report(devs.len(), false);
        assert_eq!(want.ops, 8);
        assert_eq!(want.flags, 2);
        assert_eq!(want.max_dev, 0.7);
        for split in 0..devs.len() {
            for reverse in [false, true] {
                let got = report(split, reverse);
                assert_eq!(got.sum_dev.to_bits(), want.sum_dev.to_bits(), "split {split} {reverse}");
            }
        }
    }

    #[test]
    fn deviation_metric() {
        assert_eq!(rel_deviation(1.0, 1.0), 0.0);
        assert!((rel_deviation(1.01, 1.0) - 0.01).abs() < 1e-12);
        assert_eq!(rel_deviation(f64::INFINITY, 1.0), f64::INFINITY);
        assert_eq!(rel_deviation(f64::NAN, f64::NAN), 0.0);
    }

    #[test]
    fn flag_recording_and_report_order() {
        let mut m = MemShard::take_parked();
        let l1 = Location::caller();
        let l2 = Location::caller();
        m.record(l1, 0.5, 0.1); // flag
        m.record(l1, 0.0, 0.1);
        m.record(l2, 0.2, 0.1); // flag
        m.record(l2, 0.3, 0.1); // flag
        let mut merged = MemStats::default();
        merged.merge(&mut m);
        let rep = merged.report();
        assert_eq!(rep[0].loc, SrcLoc::from(l2));
        assert_eq!(rep[0].stats.flags, 2);
        assert_eq!(rep[1].loc, SrcLoc::from(l1));
        assert_eq!(rep[1].stats.flags, 1);
        assert_eq!(rep[1].stats.ops, 2);
        assert!((rep[1].mean_dev() - 0.25).abs() < 1e-12);
    }
}
