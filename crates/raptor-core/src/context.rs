//! Profiling sessions, the thread-local activation context, and the
//! per-thread *decision cache* that makes the instrumented hot path cheap.
//!
//! A [`Session`] owns one truncation [`Config`] plus all data collected
//! under it (op/memory counters, mem-mode flag statistics, warnings).
//! Worker threads participate by installing the session
//! ([`Session::install`]), which mirrors how RAPTOR's runtime state is
//! process-global while the compiler pass decides *statically* which code
//! calls into it — here the decision is made dynamically from the region
//! stack, which is what the paper calls scoped truncation ("mark a
//! function/region and the tool truncates the entire call stack below",
//! Table 1 feature 4).
//!
//! ## The decision cache
//!
//! Resolving "is this op truncated, into what format, and is it counted?"
//! involves the region stack, the scope/exclusion patterns, and the AMR
//! level cutoff. None of those change *per operation* — only
//! [`region`]/[`set_level`]/[`Session::install`] change them. So the
//! resolved outcome is cached in `FastPath`: a `Cell`-based, plain-data
//! thread local that every instrumented op reads with a single load and
//! branch. The heavier `ActiveCtx` (region stack, mem-mode shard) lives
//! in a separate `RefCell` thread local that only the *slow* paths touch.
//! Counters accumulate in unsynchronized per-thread cells and are flushed
//! into the session under its mutex when the guard drops.

use crate::config::{Config, Mode, Scope};
use crate::counters::{CellCounts, Counters};
use crate::memmode::{MemParams, MemShard, MemStats};
use crate::ops::Emul;
use std::cell::{Cell, RefCell};
use std::sync::{Arc, Mutex};

pub(crate) struct SessionInner {
    pub(crate) config: Config,
    pub(crate) counters: Mutex<Counters>,
    /// Merged mem-mode statistics (per-thread shards merge in here at
    /// barriers; see the module docs of [`crate::memmode`]).
    pub(crate) mem: Mutex<MemStats>,
}

/// A profiling session: a validated configuration plus collected data.
///
/// Cloning is cheap (`Arc`); clones share counters and mem-mode state, so a
/// session can be installed on many worker threads (the OpenMP-compatibility
/// story of §3.6).
#[derive(Clone)]
pub struct Session {
    pub(crate) inner: Arc<SessionInner>,
}

impl Session {
    /// The passthrough session: installs like any other session but never
    /// truncates, never counts, and keeps the per-op hot path on its
    /// no-session fast reject (the dispatch cache stays
    /// `Dispatch::None`). Workload entry points take `&Session`
    /// uniformly; uninstrumented reference runs pass this.
    pub fn passthrough() -> Session {
        Session::new(Config::passthrough()).expect("passthrough config is valid")
    }

    /// True when this session runs the no-op [`Config::passthrough`]
    /// configuration.
    pub fn is_passthrough(&self) -> bool {
        self.inner.config.is_noop()
    }

    /// Create a session from a validated configuration.
    pub fn new(config: Config) -> Result<Session, String> {
        config.validate()?;
        Ok(Session {
            inner: Arc::new(SessionInner {
                config,
                counters: Mutex::new(Counters::default()),
                mem: Mutex::new(MemStats::default()),
            }),
        })
    }

    /// The configuration this session runs.
    pub fn config(&self) -> &Config {
        &self.inner.config
    }

    /// Install this session on the current thread. Truncation and counting
    /// happen between this call and the drop of the returned guard.
    ///
    /// Panics if another session is already installed on this thread
    /// (nested profiling sessions are not part of the supported matrix).
    pub fn install(&self) -> SessionGuard {
        ACTIVE.with(|cell| {
            let mut slot = cell.borrow_mut();
            assert!(slot.is_none(), "a RAPTOR session is already installed on this thread");
            let ctx = ActiveCtx::new(self.clone());
            ctx.publish();
            *slot = Some(ctx);
        });
        SessionGuard { _priv: () }
    }

    /// True if this session is the one installed on the current thread.
    fn installed_here(&self) -> bool {
        ACTIVE.with(|cell| {
            cell.borrow()
                .as_ref()
                .map_or(false, |act| Arc::ptr_eq(&act.sess.inner, &self.inner))
        })
    }

    /// Snapshot the accumulated counters.
    ///
    /// Includes counts already flushed by dropped guards plus the pending
    /// counts of the *current* thread's live guard (other threads' live
    /// guards flush on drop).
    pub fn counters(&self) -> Counters {
        let mut c = *self.inner.counters.lock().unwrap();
        if self.installed_here() {
            FAST.with(|f| c.merge(&f.snapshot_counters()));
        }
        c
    }

    /// Reset counters (all flushed data; the current thread's pending
    /// counts are also cleared).
    pub fn reset_counters(&self) {
        *self.inner.counters.lock().unwrap() = Counters::default();
        if self.installed_here() {
            FAST.with(|f| f.clear_counters());
        }
    }

    /// Warnings emitted by the runtime: mem-mode auto-promotions (the
    /// analog of RAPTOR's "calls to pre-compiled external libraries are
    /// ignored" warnings) and stale handles, one line each, with the
    /// counts merged so far (see [`Session::mem_flags`]).
    pub fn warnings(&self) -> Vec<String> {
        self.inner.mem.lock().unwrap().warnings()
    }

    /// mem-mode: number of live shadow slots in the *current thread's*
    /// shard (slots are thread-local; see [`crate::memmode`]).
    pub fn mem_live_slots(&self) -> usize {
        let mut n = 0;
        if self.installed_here() {
            ACTIVE.with(|cell| {
                if let Some(act) = cell.borrow().as_ref() {
                    n = act.mem.live_slots();
                }
            });
        }
        n
    }

    /// mem-mode: clear the current thread's shadow slab (call between
    /// kernels, after post-converting outputs — bounds memory like the
    /// paper's per-region scratch lifetime). Handles issued before the
    /// clear become stale: using one counts it and reads NaN. Flag
    /// statistics stay in the thread's shard; they merge into the session
    /// when the guard drops or when [`Session::mem_flags`] is read.
    pub fn mem_clear_slab(&self) {
        if self.installed_here() {
            ACTIVE.with(|cell| {
                if let Some(act) = cell.borrow_mut().as_mut() {
                    act.mem.clear_slab();
                }
            });
        }
    }

    /// mem-mode: the per-location deviation flag report (the "heatmap of
    /// code locations that do not react well to truncation", §6.3).
    /// Merges the current thread's pending shard statistics first.
    pub fn mem_flags(&self) -> Vec<crate::memmode::LocReport> {
        if self.installed_here() {
            ACTIVE.with(|cell| {
                if let Some(act) = cell.borrow_mut().as_mut() {
                    self.inner.mem.lock().unwrap().merge(&mut act.mem);
                }
            });
        }
        self.inner.mem.lock().unwrap().report()
    }

    /// mem-mode: clear flag statistics and the auto-promotion and stale-
    /// handle counts behind [`Session::warnings`] (merged and
    /// current-thread pending).
    pub fn mem_reset_flags(&self) {
        self.inner.mem.lock().unwrap().reset();
        if self.installed_here() {
            ACTIVE.with(|cell| {
                if let Some(act) = cell.borrow_mut().as_mut() {
                    act.mem.reset_stats();
                }
            });
        }
    }

    /// Test/diagnostic hook: resolve a mem-mode handle in the current
    /// thread's shard to `(truncated value, fp64 shadow)`.
    #[doc(hidden)]
    pub fn debug_mem_slot(&self, handle: f64) -> Option<(f64, f64)> {
        let mut out = None;
        if self.installed_here() {
            ACTIVE.with(|cell| {
                if let Some(act) = cell.borrow().as_ref() {
                    if let crate::memmode::Lookup::Slot(s) = act.mem.lookup(handle) {
                        out = Some((s.val.to_f64(), s.shadow));
                    }
                }
            });
        }
        out
    }
}

/// RAII guard for an installed session; flushes this thread's counters and
/// mem-mode statistics on drop, and parks a mem-mode session's cleared
/// shard for the next install on this thread.
pub struct SessionGuard {
    _priv: (),
}

impl Drop for SessionGuard {
    fn drop(&mut self) {
        ACTIVE.with(|cell| {
            if let Some(mut act) = cell.borrow_mut().take() {
                FAST.with(|f| {
                    act.sess
                        .inner
                        .counters
                        .lock()
                        .unwrap()
                        .merge(&f.snapshot_counters());
                    f.clear_counters();
                    f.dispatch.set(Dispatch::None);
                });
                if act.sess.inner.config.mode == Mode::Mem {
                    act.sess.inner.mem.lock().unwrap().merge(&mut act.mem);
                    act.mem.park();
                }
            }
        });
    }
}

// ---------------------------------------------------------------------------
// The fast path: cached dispatch decision + per-thread counters
// ---------------------------------------------------------------------------

/// The resolved dispatch decision for the current `(region stack, level)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Dispatch {
    /// No session installed: raw hardware arithmetic, nothing counted.
    None,
    /// Session installed, truncation inactive, counting off.
    Inactive,
    /// Session installed, truncation inactive, full-op counting on.
    InactiveCount,
    /// Truncation active in op-mode: emulate with the cached parameters.
    Op,
    /// mem-mode session, truncation *active*: take the slow path, which
    /// needs the shadow shard and `#[track_caller]` locations.
    Mem,
    /// mem-mode session, truncation inactive, counting off: raw hardware
    /// arithmetic unless an operand is a NaN-boxed handle (cheap bit test;
    /// the shard is only borrowed to resolve actual handles).
    MemInactive,
    /// Like [`Dispatch::MemInactive`] with full-op counting on.
    MemInactiveCount,
}

/// Plain-data decision cache + per-thread counters (no `RefCell`).
pub(crate) struct FastPath {
    pub(crate) dispatch: Cell<Dispatch>,
    /// Cached op-mode decision, valid when `dispatch == Op`: format,
    /// rounding, resolved path and hardware short-cut tier.
    pub(crate) emul: Cell<Emul>,
    /// `format.storage_bytes()`, for the §3.4 memory model.
    pub(crate) fmt_bytes: Cell<u64>,
    /// A mem-mode session whose slots store format values in `f64`
    /// ([`MemParams::planes`]): `Col`s carry shadow planes under it (see
    /// [`crate::batch`]). Valid when `dispatch` is a mem-mode variant.
    pub(crate) mem_cols: Cell<bool>,
    /// Per-thread op counts (truncated / full precision).
    pub(crate) trunc: CellCounts,
    pub(crate) full: CellCounts,
    pub(crate) trunc_bytes: Cell<u64>,
    pub(crate) full_bytes: Cell<u64>,
}

impl FastPath {
    const fn new() -> FastPath {
        FastPath {
            dispatch: Cell::new(Dispatch::None),
            emul: Cell::new(Emul::FP64),
            fmt_bytes: Cell::new(8),
            mem_cols: Cell::new(false),
            trunc: CellCounts::new(),
            full: CellCounts::new(),
            trunc_bytes: Cell::new(0),
            full_bytes: Cell::new(0),
        }
    }

    pub(crate) fn snapshot_counters(&self) -> Counters {
        Counters {
            trunc: self.trunc.snapshot(),
            full: self.full.snapshot(),
            trunc_bytes: self.trunc_bytes.get(),
            full_bytes: self.full_bytes.get(),
        }
    }

    pub(crate) fn clear_counters(&self) {
        self.trunc.clear();
        self.full.clear();
        self.trunc_bytes.set(0);
        self.full_bytes.set(0);
    }
}

thread_local! {
    /// The hot-path decision cache (every instrumented op reads this).
    pub(crate) static FAST: FastPath = const { FastPath::new() };
    /// The slow-path context (region stack, level, mem-mode shard).
    pub(crate) static ACTIVE: RefCell<Option<ActiveCtx>> = const { RefCell::new(None) };
}

pub(crate) struct ActiveCtx {
    pub(crate) sess: Session,
    pub(crate) regions: Vec<&'static str>,
    pub(crate) level: Option<u32>,
    /// Bumped by [`set_level`]; lets a region guard know whether its
    /// remembered pre-push decision is still valid on drop.
    pub(crate) level_epoch: u64,
    /// Cached activation decision, recomputed on region/level change.
    pub(crate) active: bool,
    /// This thread's mem-mode shard (slots + pending flag statistics).
    pub(crate) mem: MemShard,
    /// The session's mem-mode parameters.
    pub(crate) mem_params: MemParams,
}

impl ActiveCtx {
    fn new(sess: Session) -> Self {
        let cfg = &sess.inner.config;
        let mem_params = MemParams::of(cfg);
        // Only mem-mode sessions touch the shard; other installs leave the
        // parked one, and its slab size, alone.
        let mem = if cfg.mode == Mode::Mem { MemShard::take_parked() } else { MemShard::default() };
        let mut ctx = ActiveCtx {
            sess,
            regions: Vec::new(),
            level: None,
            level_epoch: 0,
            active: false,
            mem,
            mem_params,
        };
        ctx.recompute();
        ctx
    }

    pub(crate) fn recompute(&mut self) {
        let cfg = &self.sess.inner.config;
        self.active = compute_active(cfg, &self.regions, self.level);
    }

    /// Write the resolved decision into the [`FastPath`] cache.
    pub(crate) fn publish(&self) {
        let cfg = &self.sess.inner.config;
        if cfg.is_noop() {
            // Passthrough sessions keep the per-op path indistinguishable
            // from "no session": one TLS load, fast reject, no counting.
            FAST.with(|f| f.dispatch.set(Dispatch::None));
            return;
        }
        let d = match (cfg.mode, self.active) {
            (Mode::Mem, true) => Dispatch::Mem,
            (Mode::Mem, false) => {
                if cfg.count_full_ops {
                    Dispatch::MemInactiveCount
                } else {
                    Dispatch::MemInactive
                }
            }
            (Mode::Op, true) => Dispatch::Op,
            (Mode::Op, false) => {
                if cfg.count_full_ops {
                    Dispatch::InactiveCount
                } else {
                    Dispatch::Inactive
                }
            }
        };
        FAST.with(|f| {
            f.dispatch.set(d);
            f.emul.set(Emul::of(cfg));
            f.fmt_bytes.set(cfg.format.storage_bytes() as u64);
            f.mem_cols.set(cfg.mode == Mode::Mem && self.mem_params.planes());
        });
    }
}

/// Match a region name against a scope pattern: exact, or prefix at a `/`
/// boundary (so `"Hydro"` matches `"Hydro/recon"` but not `"Hydrox"`).
fn pattern_matches(region: &str, pat: &str) -> bool {
    region == pat
        || (region.len() > pat.len()
            && region.starts_with(pat)
            && region.as_bytes()[pat.len()] == b'/')
}

fn cutoff_ok(cfg: &Config, level: Option<u32>) -> bool {
    match (cfg.cutoff, level) {
        (Some(c), Some(l)) => c.truncates(l),
        // No level published: treat as coarsest (truncate). Ops outside
        // block loops (e.g. scalar setup code) behave like the paper's
        // non-mesh code, which full-program truncation does truncate.
        (Some(_), None) => true,
        (None, _) => true,
    }
}

fn compute_active(cfg: &Config, regions: &[&'static str], level: Option<u32>) -> bool {
    // Innermost-first: the nearest enclosing include/exclude wins, which
    // gives the Table 2 workflow (truncate Hydro, fence off Hydro/recon).
    for r in regions.iter().rev() {
        if cfg.exclude.iter().any(|e| pattern_matches(r, e)) {
            return false;
        }
        let included = match &cfg.scope {
            Scope::Program => false, // handled by the default below
            Scope::Files(prefixes) => prefixes.iter().any(|p| pattern_matches(r, p)),
            Scope::Functions(names) => names.iter().any(|n| pattern_matches(r, n)),
        };
        if included {
            return cutoff_ok(cfg, level);
        }
    }
    match cfg.scope {
        Scope::Program => cutoff_ok(cfg, level),
        _ => false,
    }
}

/// RAII guard marking a named code region (function- or file-scope unit).
///
/// The Rust equivalent of RAPTOR's instrumented function boundary: entering
/// the region pushes the name onto the scope stack; the whole call stack
/// below inherits the truncation decision. The guard remembers the
/// pre-push activation so dropping restores the cached decision without a
/// pattern-match recompute.
pub struct RegionGuard {
    pushed: bool,
    prev_active: bool,
    epoch: u64,
}

/// Enter a named region. Cheap no-op when no session is installed.
pub fn region(name: &'static str) -> RegionGuard {
    // Fast reject: no session on this thread.
    if FAST.with(|f| f.dispatch.get() == Dispatch::None) {
        return RegionGuard { pushed: false, prev_active: false, epoch: 0 };
    }
    ACTIVE.with(|cell| {
        let mut slot = cell.borrow_mut();
        if let Some(act) = slot.as_mut() {
            let prev_active = act.active;
            act.regions.push(name);
            act.recompute();
            if act.active != prev_active {
                act.publish();
            }
            RegionGuard { pushed: true, prev_active, epoch: act.level_epoch }
        } else {
            RegionGuard { pushed: false, prev_active: false, epoch: 0 }
        }
    })
}

impl Drop for RegionGuard {
    fn drop(&mut self) {
        if self.pushed {
            ACTIVE.with(|cell| {
                if let Some(act) = cell.borrow_mut().as_mut() {
                    act.regions.pop();
                    if act.level_epoch == self.epoch {
                        // Level untouched since push: popping restores
                        // exactly the pre-push decision, no pattern
                        // re-match needed.
                        if act.active != self.prev_active {
                            act.active = self.prev_active;
                            act.publish();
                        }
                    } else {
                        // The level changed inside this region; the
                        // remembered decision is stale.
                        let prev = act.active;
                        act.recompute();
                        if act.active != prev {
                            act.publish();
                        }
                    }
                }
            });
        }
    }
}

/// Publish the current AMR refinement level (dynamic truncation input).
/// `None` clears it.
pub fn set_level(level: Option<u32>) {
    ACTIVE.with(|cell| {
        if let Some(act) = cell.borrow_mut().as_mut() {
            let prev = act.active;
            act.level = level;
            act.level_epoch += 1;
            act.recompute();
            if act.active != prev {
                act.publish();
            }
        }
    });
}

/// Whether truncation is currently active on this thread (for tests and
/// diagnostics).
pub fn is_active() -> bool {
    ACTIVE.with(|cell| cell.borrow().as_ref().map_or(false, |a| a.active))
}

/// Record `n` field values' worth of memory traffic against the current
/// activation state (the §3.4 memory model input). Truncated regions move
/// `format.storage_bytes()` per value; full regions move 8 bytes (f64).
pub fn count_field_values(n: u64) {
    FAST.with(|f| match f.dispatch.get() {
        Dispatch::None => {}
        Dispatch::Op => f.trunc_bytes.set(f.trunc_bytes.get() + n * f.fmt_bytes.get()),
        Dispatch::Inactive | Dispatch::InactiveCount => {
            f.full_bytes.set(f.full_bytes.get() + n * 8)
        }
        // mem-mode activation is baked into the dispatch variant, so byte
        // accounting no longer needs the slow `is_active()` context borrow.
        Dispatch::Mem => f.trunc_bytes.set(f.trunc_bytes.get() + n * f.fmt_bytes.get()),
        Dispatch::MemInactive | Dispatch::MemInactiveCount => {
            f.full_bytes.set(f.full_bytes.get() + n * 8)
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigfloat::Format;

    #[test]
    fn program_scope_is_always_active() {
        let s = Session::new(Config::op_all(Format::FP16)).unwrap();
        let _g = s.install();
        assert!(is_active());
        let _r = region("Anything");
        assert!(is_active());
    }

    #[test]
    fn function_scope_requires_region() {
        let s = Session::new(Config::op_functions(Format::FP16, ["Hydro/recon"])).unwrap();
        let _g = s.install();
        assert!(!is_active());
        {
            let _r = region("Hydro/recon");
            assert!(is_active());
            {
                // Call stack below inherits (scoped truncation).
                let _r2 = region("MathUtil/helper");
                assert!(is_active());
            }
        }
        assert!(!is_active());
    }

    #[test]
    fn file_scope_prefix_matching() {
        let s = Session::new(Config::op_files(Format::FP16, ["Hydro"])).unwrap();
        let _g = s.install();
        {
            let _r = region("Hydro/riemann");
            assert!(is_active());
        }
        {
            let _r = region("Hydrox/other");
            assert!(!is_active(), "prefix must stop at a / boundary");
        }
        {
            let _r = region("Eos/table");
            assert!(!is_active());
        }
    }

    #[test]
    fn exclusion_fences_inner_regions() {
        let cfg = Config::op_files(Format::FP16, ["Hydro"]).with_exclude(["Hydro/recon"]);
        let s = Session::new(cfg).unwrap();
        let _g = s.install();
        let _r = region("Hydro/flux");
        assert!(is_active());
        {
            let _r2 = region("Hydro/recon");
            assert!(!is_active(), "excluded module runs at full precision");
            {
                let _r3 = region("MathUtil/helper");
                assert!(!is_active(), "exclusion covers the call stack below");
            }
        }
        assert!(is_active());
    }

    #[test]
    fn level_cutoff_gates_truncation() {
        let cfg = Config::op_all(Format::FP16).with_cutoff(4, 1); // M-1
        let s = Session::new(cfg).unwrap();
        let _g = s.install();
        set_level(Some(4));
        assert!(!is_active(), "finest level spared under M-1");
        set_level(Some(3));
        assert!(is_active());
        set_level(None);
        assert!(is_active(), "no level published => treated as coarse");
    }

    #[test]
    fn guard_restores_state() {
        let s = Session::new(Config::op_all(Format::FP16)).unwrap();
        {
            let _g = s.install();
            assert!(is_active());
        }
        assert!(!is_active());
        // Re-install works after drop.
        let _g2 = s.install();
        assert!(is_active());
    }

    #[test]
    #[should_panic(expected = "already installed")]
    fn double_install_panics() {
        let s = Session::new(Config::op_all(Format::FP16)).unwrap();
        let _g1 = s.install();
        let _g2 = s.install();
    }

    #[test]
    fn counters_visible_across_threads_after_flush() {
        let s = Session::new(Config::op_all(Format::FP16).with_counting()).unwrap();
        let s2 = s.clone();
        std::thread::spawn(move || {
            let _g = s2.install();
            crate::ops::op2(crate::counters::OpKind::Add, 1.0, 2.0);
        })
        .join()
        .unwrap();
        assert_eq!(s.counters().trunc.add, 1);
    }

    #[test]
    fn field_value_counting_uses_format_width() {
        let s = Session::new(Config::op_all(Format::FP16)).unwrap();
        let g = s.install();
        count_field_values(10); // active: 2 bytes each
        drop(g);
        let c = s.counters();
        assert_eq!(c.trunc_bytes, 20);
        let s2 = Session::new(Config::op_functions(Format::FP16, ["X"])).unwrap();
        let g2 = s2.install();
        count_field_values(10); // inactive: 8 bytes each
        drop(g2);
        assert_eq!(s2.counters().full_bytes, 80);
    }

    #[test]
    fn decision_cache_tracks_region_and_level_changes() {
        let cfg = Config::op_files(Format::FP16, ["Hydro"])
            .with_cutoff(3, 1)
            .with_counting();
        let s = Session::new(cfg).unwrap();
        let _g = s.install();
        let probe = || FAST.with(|f| f.dispatch.get());
        assert_eq!(probe(), Dispatch::InactiveCount);
        {
            let _r = region("Hydro/recon");
            assert_eq!(probe(), Dispatch::Op);
            set_level(Some(3)); // finest level spared under M-1
            assert_eq!(probe(), Dispatch::InactiveCount);
            set_level(Some(2));
            assert_eq!(probe(), Dispatch::Op);
            set_level(None);
            assert_eq!(probe(), Dispatch::Op);
        }
        assert_eq!(probe(), Dispatch::InactiveCount);
    }

    #[test]
    fn passthrough_session_is_invisible_to_the_hot_path() {
        let s = Session::passthrough();
        assert!(s.is_passthrough());
        let g = s.install();
        // The dispatch cache stays on the no-session fast reject.
        assert_eq!(FAST.with(|f| f.dispatch.get()), Dispatch::None);
        assert!(!is_active());
        {
            let _r = region("Hydro/recon");
            assert!(!is_active());
        }
        set_level(Some(3));
        assert_eq!(FAST.with(|f| f.dispatch.get()), Dispatch::None);
        set_level(None);
        crate::ops::op2(crate::counters::OpKind::Add, 1.0, 2.0);
        count_field_values(16);
        drop(g);
        let c = s.counters();
        assert_eq!(c.total_ops(), 0, "passthrough counts nothing");
        assert_eq!(c.trunc_bytes + c.full_bytes, 0);
        // Re-installable, like any session.
        let _g2 = s.install();
    }

    #[test]
    fn passthrough_matches_f64_bit_for_bit() {
        let kernel = |x: crate::Tracked| {
            use crate::Arith;
            (x * x + crate::Tracked::from_f64(0.3)).sqrt() / crate::Tracked::from_f64(1.7)
        };
        let s = Session::passthrough();
        let _g = s.install();
        use crate::{Arith, Real};
        let got = kernel(crate::Tracked::from_f64(0.9)).to_f64();
        let want = ((0.9f64 * 0.9 + 0.3).sqrt()) / 1.7;
        assert_eq!(got.to_bits(), want.to_bits());
    }

    #[test]
    fn fast_path_cleared_on_guard_drop() {
        let s = Session::new(Config::op_all(Format::FP16)).unwrap();
        {
            let _g = s.install();
            assert_eq!(FAST.with(|f| f.dispatch.get()), Dispatch::Op);
        }
        assert_eq!(FAST.with(|f| f.dispatch.get()), Dispatch::None);
    }
}
