//! The fused single-pass analysis data plane.
//!
//! The legacy per-iteration pipeline walked the ECT up to three separate
//! times — goroutine-tree construction, coverage extraction, sync-pair
//! extraction — each routing per-event state through `BTreeMap<Gid, …>`
//! side tables. A yield-injection campaign multiplies that cost by its
//! iteration budget (§III-D/E), so this module fuses the walks into one
//! `ect.iter()` sweep over dense, recycled scratch tables:
//!
//! * goroutine ids are runtime-assigned and dense, so all per-goroutine
//!   state lives in a flat slot vector indexed by `Gid` (one bounds
//!   check instead of a tree descent per event);
//! * requirement covering goes through pre-interned [`goat_model::ReqId`]s
//!   and bitset [`CoverageSet`]s (a bit-set per cover, an OR per merge);
//! * the goroutine tree is built incrementally by
//!   [`goat_trace::GTreeBuilder`] in the same sweep, and its root/leaf
//!   last-event state feeds the deadlock check without another walk;
//! * all scratch (slot tables, coverage sets, the tree builder's slab)
//!   is owned by a long-lived [`EctBuffers`] that the campaign runner
//!   threads through every iteration, so steady-state analysis performs
//!   no per-iteration allocations beyond result assembly.
//!
//! Observable semantics — covered requirement sets, per-goroutine
//! vectors, sync pairs, trees, and the order in which the universe
//! discovers CUs and select cases — are *identical* to the legacy
//! multi-pass pipeline (kept as [`crate::coverage::reference`] and
//! enforced by a differential property test), so campaign reports stay
//! byte-for-byte the same.
//!
//! **Idempotence contract (the analysis memo depends on it).** The
//! campaign runner memoizes this pass's products by schedule
//! fingerprint and *skips re-running it* when a later iteration
//! replays an identical trace (`-memo`, see `DESIGN.md` §13). That
//! is sound only because every mutation the pass makes to shared state
//! — [`RequirementUniverse`] growth via `discover_cu`, `op_req_id`,
//! and select-case discovery — is idempotent: re-analyzing the same
//! trace discovers nothing new and covers the same bits. Any future
//! side effect added to this sweep that is *not* idempotent (e.g. a
//! per-run sequence number in the universe, or an append-only log)
//! must either be keyed so replays coalesce or be hoisted to the
//! runner's merge step; `-memo verify` (re-analyze every hit and
//! assert equality, exercised by `tests/determinism.rs`) is the
//! regression net for this contract.

use crate::coverage::{expected_kinds, flavor_of, PendingSelect, RunCoverage};
use goat_model::{
    CaseFlavor, CoverageSet, Cu, CuId, CuKind, ReqKey, ReqValue, RequirementUniverse,
    SyncPairCoverage,
};
use goat_trace::{BlockReason, Ect, EventKind, GTree, GTreeBuilder, Gid};
use std::collections::BTreeMap;

/// Everything one fused sweep over a trace produces.
pub struct TraceAnalysis {
    /// The goroutine tree (input of the deadlock check and the global
    /// tree merge).
    pub tree: GTree,
    /// Requirement coverage of this run.
    pub coverage: RunCoverage,
    /// Baseline synchronization-pair coverage, when requested.
    pub sync_pairs: Option<SyncPairCoverage>,
}

/// Per-goroutine analysis scratch, indexed densely by `Gid`.
#[derive(Default)]
struct GScratch {
    /// Slot appears in the touched list (for O(touched) reset).
    touched: bool,
    /// Goroutine is runtime-internal for *coverage* purposes (set only
    /// by this goroutine's own `GoCreate` flag, not inherited — the
    /// tree's inherited flag is separate state with separate semantics).
    cov_internal: bool,
    /// Pending block site: set by `GoBlock`, consumed by the goroutine's
    /// next op-completion event.
    last_block: Option<Cu>,
    /// CUs of `GoUnblock` events since the goroutine's last own event.
    pending_unblocks: Vec<Cu>,
    /// Stack of open selects (`SelectBegin` pushes, `SelectEnd` pops).
    select_stack: Vec<PendingSelect>,
    /// Sync-pair state: where this goroutine last blocked.
    sp_blocked_at: Option<Cu>,
    /// This goroutine's covered-requirement vector for the current run.
    per_cov: Option<CoverageSet>,
}

impl GScratch {
    /// Clear for the next run, keeping every allocation.
    fn reset(&mut self) {
        self.touched = false;
        self.cov_internal = false;
        self.last_block = None;
        self.pending_unblocks.clear();
        self.select_stack.clear();
        self.sp_blocked_at = None;
        debug_assert!(self.per_cov.is_none(), "per-run vectors are drained at finish");
    }
}

fn scratch<'a>(slots: &'a mut Vec<GScratch>, touched: &mut Vec<usize>, g: Gid) -> &'a mut GScratch {
    let i = g.0 as usize;
    if i >= slots.len() {
        slots.resize_with(i + 1, GScratch::default);
    }
    let s = &mut slots[i];
    if !s.touched {
        s.touched = true;
        touched.push(i);
    }
    s
}

fn per_set<'a>(
    slots: &'a mut Vec<GScratch>,
    touched: &mut Vec<usize>,
    free_sets: &mut Vec<CoverageSet>,
    g: Gid,
) -> &'a mut CoverageSet {
    scratch(slots, touched, g).per_cov.get_or_insert_with(|| free_sets.pop().unwrap_or_default())
}

/// Exact-site CU equality by identity: interned file paths are
/// canonical (one pointer per distinct content), so a pointer compare
/// replaces the string compare/hash without changing the answer.
#[inline]
fn same_exact_cu(a: &Cu, b: &Cu) -> bool {
    a.line == b.line && a.kind == b.kind && std::ptr::eq(a.file.as_str(), b.file.as_str())
}

/// Per-pass CU→id memo in front of `universe.discover_cu`: traces carry
/// few distinct CUs but mention them on almost every event, so a linear
/// identity scan beats re-hashing the composite key per event. New CUs
/// still reach `discover_cu` in first-appearance order, so universe
/// growth is untouched.
#[inline]
fn cu_id(cache: &mut Vec<(Cu, CuId)>, universe: &mut RequirementUniverse, cu: &Cu) -> CuId {
    for (c, id) in cache.iter() {
        if same_exact_cu(c, cu) {
            return *id;
        }
    }
    let id = universe.discover_cu(*cu);
    cache.push((*cu, id));
    id
}

/// Recyclable analysis scratch: one per campaign (or per merge thread),
/// reused across iterations so the per-iteration analysis pass performs
/// no allocations once the tables have grown to the workload's
/// high-water mark.
#[derive(Default)]
pub struct EctBuffers {
    tree: GTreeBuilder,
    slots: Vec<GScratch>,
    touched: Vec<usize>,
    /// Cleared coverage sets awaiting reuse (fed back by
    /// [`EctBuffers::reclaim`]).
    free_sets: Vec<CoverageSet>,
    /// Per-pass CU→id identity memo (valid only for the universe of the
    /// current `analyze` call; cleared at the start of each pass).
    cu_ids: Vec<(Cu, CuId)>,
}

impl EctBuffers {
    /// Fresh scratch buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Analyze one trace in a single fused sweep: goroutine tree, run
    /// coverage (growing `universe` exactly like
    /// [`crate::coverage::extract_coverage`]), and — when
    /// `want_sync_pairs` — baseline sync-pair coverage.
    pub fn analyze(
        &mut self,
        ect: &Ect,
        universe: &mut RequirementUniverse,
        want_sync_pairs: bool,
    ) -> TraceAnalysis {
        let EctBuffers { tree, slots, touched, free_sets, cu_ids } = self;
        cu_ids.clear();
        let mut covered = free_sets.pop().unwrap_or_default();
        let mut pairs = if want_sync_pairs { Some(SyncPairCoverage::new()) } else { None };
        // GoAT's own runtime goroutine is never application-level: none
        // of its operations count as coverage (§III-E filter).
        scratch(slots, touched, Gid::RUNTIME).cov_internal = true;

        for (i, ev) in ect.iter().enumerate() {
            // -- goroutine tree (all events, internal included) --------
            tree.observe(i, ev);

            // -- sync pairs (all events) -------------------------------
            if let Some(p) = pairs.as_mut() {
                match &ev.kind {
                    EventKind::GoBlock { .. } => {
                        if let Some(cu) = &ev.cu {
                            scratch(slots, touched, ev.g).sp_blocked_at = Some(*cu);
                        }
                    }
                    EventKind::GoUnblock { g } => {
                        let s = scratch(slots, touched, *g);
                        if let (Some(waker_cu), Some(blocked_cu)) =
                            (&ev.cu, s.sp_blocked_at.as_ref())
                        {
                            p.observe(waker_cu, blocked_cu);
                        }
                        s.sp_blocked_at = None;
                    }
                    _ => {}
                }
            }

            // -- requirement coverage (application events only) --------
            let g = ev.g;
            if let EventKind::GoCreate { new_g, internal: true, .. } = &ev.kind {
                scratch(slots, touched, *new_g).cov_internal = true;
            }
            if scratch(slots, touched, g).cov_internal {
                continue;
            }
            match &ev.kind {
                EventKind::GoCreate { internal: false, .. } => {
                    if let Some(cu) = &ev.cu {
                        let id = cu_id(cu_ids, universe, cu);
                        let rid = universe.op_req_id(id, ReqValue::Nop);
                        covered.cover_id(rid);
                        per_set(slots, touched, free_sets, g).cover_id(rid);
                    }
                    scratch(slots, touched, g).pending_unblocks.clear();
                }
                EventKind::GoBlock { reason, lock } => {
                    // Req3 "blocking": credit the holder's acquisition site.
                    if let Some(w) = lock {
                        let id = cu_id(cu_ids, universe, &w.holder_cu);
                        let rid = universe.op_req_id(id, ReqValue::Blocking);
                        covered.cover_id(rid);
                        per_set(slots, touched, free_sets, w.holder).cover_id(rid);
                    }
                    if let Some(cu) = &ev.cu {
                        // Discover the blocked op's CU and cover its
                        // *blocked* requirement right away: a goroutine
                        // that leaks here never emits a completion event,
                        // yet its blocking is exactly what Req1/Req3 want
                        // observed.
                        let id = cu_id(cu_ids, universe, cu);
                        if goat_model::op_requirements(cu.kind).contains(&ReqValue::Blocked) {
                            let rid = universe.op_req_id(id, ReqValue::Blocked);
                            covered.cover_id(rid);
                            per_set(slots, touched, free_sets, g).cover_id(rid);
                        }
                        let s = scratch(slots, touched, g);
                        s.last_block = Some(*cu);
                        if *reason == BlockReason::Select {
                            if let Some(top) = s.select_stack.last_mut() {
                                if top.cu.same_site(cu) {
                                    top.blocked = true;
                                }
                            }
                        }
                    }
                    scratch(slots, touched, g).pending_unblocks.clear();
                }
                EventKind::GoUnblock { .. } => {
                    if let Some(cu) = &ev.cu {
                        let s = scratch(slots, touched, g);
                        s.pending_unblocks.push(*cu);
                        if cu.kind == CuKind::Select {
                            if let Some(top) = s.select_stack.last_mut() {
                                if top.cu.same_site(cu) {
                                    top.woke = true;
                                }
                            }
                        }
                    }
                }
                EventKind::SelectBegin { cases, has_default } => {
                    if let Some(cu) = &ev.cu {
                        let id = cu_id(cu_ids, universe, cu);
                        for (i, (fl, _)) in cases.iter().enumerate() {
                            universe.discover_select_case(id, i, flavor_of(*fl), *has_default);
                        }
                        if *has_default {
                            universe.discover_select_case(
                                id,
                                cases.len(),
                                CaseFlavor::Default,
                                true,
                            );
                        }
                        scratch(slots, touched, g).select_stack.push(PendingSelect {
                            cu: *cu,
                            cases: cases.len(),
                            has_default: *has_default,
                            blocked: false,
                            woke: false,
                        });
                    }
                    scratch(slots, touched, g).pending_unblocks.clear();
                }
                EventKind::SelectEnd { chosen, flavor, .. } => {
                    if let Some(cu) = &ev.cu {
                        let id = cu_id(cu_ids, universe, cu);
                        let s = scratch(slots, touched, g);
                        let entry = s.select_stack.pop();
                        let (blocked, woke, cases, has_default) = match &entry {
                            Some(e) if e.cu.same_site(cu) => {
                                (e.blocked, e.woke, e.cases, e.has_default)
                            }
                            _ => (false, false, chosen.wrapping_add(1), false),
                        };
                        let key = if *chosen == usize::MAX {
                            ReqKey::case(id, cases, CaseFlavor::Default, ReqValue::Nop)
                        } else {
                            let value = if blocked && !has_default {
                                ReqValue::Blocked
                            } else if woke {
                                ReqValue::Unblocking
                            } else {
                                ReqValue::Nop
                            };
                            ReqKey::case(id, *chosen, flavor_of(*flavor), value)
                        };
                        covered.cover(key);
                        per_set(slots, touched, free_sets, g).cover(key);
                    }
                    let s = scratch(slots, touched, g);
                    s.last_block = None;
                    s.pending_unblocks.clear();
                }
                kind if kind.is_op_completion() => {
                    if let Some(cu) = &ev.cu {
                        if expected_kinds(kind).contains(&cu.kind) {
                            let id = cu_id(cu_ids, universe, cu);
                            let s = scratch(slots, touched, g);
                            let blocked = s.last_block.map(|b| b.same_site(cu)).unwrap_or(false)
                                || matches!(kind, EventKind::CondWait { .. });
                            let woke = s.pending_unblocks.iter().any(|u| u.same_site(cu));
                            let reqs = goat_model::op_requirements(cu.kind);
                            if blocked && reqs.contains(&ReqValue::Blocked) {
                                let rid = universe.op_req_id(id, ReqValue::Blocked);
                                covered.cover_id(rid);
                                per_set(slots, touched, free_sets, g).cover_id(rid);
                            }
                            if woke && reqs.contains(&ReqValue::Unblocking) {
                                let rid = universe.op_req_id(id, ReqValue::Unblocking);
                                covered.cover_id(rid);
                                per_set(slots, touched, free_sets, g).cover_id(rid);
                            }
                            if !blocked && !woke && reqs.contains(&ReqValue::Nop) {
                                let rid = universe.op_req_id(id, ReqValue::Nop);
                                covered.cover_id(rid);
                                per_set(slots, touched, free_sets, g).cover_id(rid);
                            }
                        }
                    }
                    let s = scratch(slots, touched, g);
                    s.last_block = None;
                    s.pending_unblocks.clear();
                }
                _ => {
                    scratch(slots, touched, g).pending_unblocks.clear();
                }
            }
        }

        // -- finish: assemble results, reset scratch in O(touched) ----
        let tree = tree.finish();
        let mut per_g: BTreeMap<Gid, CoverageSet> = BTreeMap::new();
        for &i in touched.iter() {
            let s = &mut slots[i];
            if let Some(set) = s.per_cov.take() {
                per_g.insert(Gid(i as u64), set);
            }
            s.reset();
        }
        touched.clear();

        if goat_metrics::enabled() {
            let reg = goat_metrics::global();
            reg.histogram("coverage.trace_events").record(ect.len() as u64);
            reg.counter_with("coverage.requirements", goat_metrics::context().as_deref())
                .add(covered.len() as u64);
        }
        TraceAnalysis { tree, coverage: RunCoverage { covered, per_g }, sync_pairs: pairs }
    }

    /// Feed a run's coverage sets back for reuse by the next iteration
    /// (call once the sets have been merged into campaign accumulators).
    pub fn reclaim(&mut self, coverage: RunCoverage) {
        let RunCoverage { mut covered, per_g } = coverage;
        covered.clear();
        self.free_sets.push(covered);
        for (_, mut set) in per_g {
            set.clear();
            self.free_sets.push(set);
        }
    }
}
