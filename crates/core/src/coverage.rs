//! Coverage measurement: mapping ECT events to covered requirements
//! (paper §III-E.2).
//!
//! A single linear pass over the trace correlates each concurrency event
//! with its CU (by call-stack source location) and derives which
//! requirement value it covered:
//!
//! * **blocked** — the goroutine's immediately preceding event (in its
//!   own sequence) was a `GoBlock` at the same CU;
//! * **unblocking** — the operation emitted `GoUnblock` events (tagged
//!   with the operation's CU) just before its completion event;
//! * **blocking** (Req3) — a `GoBlock` on a contended lock names the
//!   holder and the holder's acquisition CU;
//! * **NOP** — the operation completed without either.
//!
//! Select cases are matched through a per-goroutine stack of open
//! selects (`SelectBegin` pushes, `SelectEnd` pops), which also
//! materialises the per-case requirements in the universe the first time
//! each select executes.

use goat_model::{CaseFlavor, CoverageSet, Cu, CuKind, ReqKey, ReqValue, RequirementUniverse};
use goat_trace::{BlockReason, Ect, EventKind, Gid, SelCaseFlavor};
use std::collections::BTreeMap;

/// Coverage produced by one execution.
#[derive(Debug, Clone, Default)]
pub struct RunCoverage {
    /// All requirements covered in this run.
    pub covered: CoverageSet,
    /// Requirements covered per goroutine (the paper's per-node coverage
    /// vectors, before accumulation into the global goroutine tree).
    pub per_g: BTreeMap<Gid, CoverageSet>,
}

pub(crate) struct PendingSelect {
    pub(crate) cu: Cu,
    pub(crate) cases: usize,
    pub(crate) has_default: bool,
    pub(crate) blocked: bool,
    pub(crate) woke: bool,
}

pub(crate) fn flavor_of(f: SelCaseFlavor) -> CaseFlavor {
    match f {
        SelCaseFlavor::Send => CaseFlavor::Send,
        SelCaseFlavor::Recv => CaseFlavor::Recv,
        SelCaseFlavor::Default => CaseFlavor::Default,
    }
}

/// Which CU kinds an op-completion event is allowed to bind to. Events
/// whose CU kind does not match are internal sub-operations (e.g. the
/// mutex re-acquisition inside `Cond::wait`) and are skipped.
pub(crate) fn expected_kinds(ev: &EventKind) -> &'static [CuKind] {
    match ev {
        EventKind::ChSend { .. } => &[CuKind::Send],
        EventKind::ChRecv { .. } => &[CuKind::Recv, CuKind::Range],
        EventKind::ChClose { .. } => &[CuKind::Close],
        EventKind::MuLock { .. } | EventKind::RwRLock { .. } => &[CuKind::Lock],
        EventKind::MuUnlock { .. } | EventKind::RwRUnlock { .. } => &[CuKind::Unlock],
        EventKind::WgAdd { .. } => &[CuKind::Add],
        EventKind::WgDone { .. } => &[CuKind::Done],
        EventKind::WgWait { .. } | EventKind::CondWait { .. } => &[CuKind::Wait],
        EventKind::CondSignal { .. } => &[CuKind::Signal],
        EventKind::CondBroadcast { .. } => &[CuKind::Broadcast],
        _ => &[],
    }
}

/// Extract the coverage of one trace, growing `universe` with newly
/// discovered CUs and select cases.
///
/// This is a convenience wrapper over the fused data plane
/// ([`crate::plane::EctBuffers`]) that allocates fresh scratch per call;
/// the campaign runner holds a long-lived `EctBuffers` instead and
/// recycles the scratch across iterations.
pub fn extract_coverage(ect: &Ect, universe: &mut RequirementUniverse) -> RunCoverage {
    crate::plane::EctBuffers::new().analyze(ect, universe, false).coverage
}

/// The retained legacy multi-pass extractor: per-goroutine state in
/// `BTreeMap`s, covered requirements in `BTreeSet<ReqKey>`.
///
/// This is *not* used by the campaign loop — it exists as the reference
/// semantics the fused plane is differentially tested against
/// (`tests/differential.rs`) and as the baseline the `analysis_plane`
/// bench measures speedups over. Its event-by-event logic must stay
/// byte-for-byte what `extract_coverage` shipped before the dense plane
/// landed; do not "fix" it to match the plane — fix the plane to match
/// it.
pub mod reference {
    use super::*;
    use std::collections::BTreeSet;

    /// Coverage produced by one execution, in ordered-set form.
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct RefRunCoverage {
        /// All requirements covered in this run.
        pub covered: BTreeSet<ReqKey>,
        /// Requirements covered per goroutine.
        pub per_g: BTreeMap<Gid, BTreeSet<ReqKey>>,
    }

    impl RefRunCoverage {
        fn cover(&mut self, g: Gid, key: ReqKey) {
            self.covered.insert(key);
            self.per_g.entry(g).or_default().insert(key);
        }
    }

    /// The pre-dense-plane `extract_coverage`, verbatim.
    pub fn extract_coverage(ect: &Ect, universe: &mut RequirementUniverse) -> RefRunCoverage {
        let mut cov = RefRunCoverage::default();
        // The goroutine's pending block site: set by GoBlock, consumed by
        // the next op-completion event of the same goroutine.
        let mut last_block: BTreeMap<Gid, Cu> = BTreeMap::new();
        // CUs of GoUnblock events emitted since the goroutine's last event.
        let mut pending_unblocks: BTreeMap<Gid, Vec<Cu>> = BTreeMap::new();
        let mut select_stack: BTreeMap<Gid, Vec<PendingSelect>> = BTreeMap::new();
        // Runtime-internal goroutines (GoAT's own watcher/stopper) are not
        // part of the application: none of their operations count as
        // coverage, mirroring the application-level filter of §III-E.
        let mut internal: BTreeSet<Gid> = std::iter::once(Gid::RUNTIME).collect();

        for ev in ect.iter() {
            let g = ev.g;
            if let EventKind::GoCreate { new_g, internal: true, .. } = &ev.kind {
                internal.insert(*new_g);
            }
            if internal.contains(&g) {
                continue;
            }
            match &ev.kind {
                EventKind::GoCreate { internal: false, .. } => {
                    if let Some(cu) = &ev.cu {
                        let id = universe.discover_cu(*cu);
                        cov.cover(g, ReqKey::op(id, ReqValue::Nop));
                    }
                    pending_unblocks.remove(&g);
                }
                EventKind::GoBlock { reason, lock } => {
                    // Req3 "blocking": credit the holder's acquisition site.
                    if let Some(w) = lock {
                        let id = universe.discover_cu(w.holder_cu);
                        cov.cover(w.holder, ReqKey::op(id, ReqValue::Blocking));
                    }
                    if let Some(cu) = &ev.cu {
                        last_block.insert(g, *cu);
                        let id = universe.discover_cu(*cu);
                        if goat_model::op_requirements(cu.kind).contains(&ReqValue::Blocked) {
                            cov.cover(g, ReqKey::op(id, ReqValue::Blocked));
                        }
                        if *reason == BlockReason::Select {
                            if let Some(stack) = select_stack.get_mut(&g) {
                                if let Some(top) = stack.last_mut() {
                                    if top.cu.same_site(cu) {
                                        top.blocked = true;
                                    }
                                }
                            }
                        }
                    }
                    pending_unblocks.remove(&g);
                }
                EventKind::GoUnblock { .. } => {
                    if let Some(cu) = &ev.cu {
                        pending_unblocks.entry(g).or_default().push(*cu);
                        if cu.kind == CuKind::Select {
                            if let Some(stack) = select_stack.get_mut(&g) {
                                if let Some(top) = stack.last_mut() {
                                    if top.cu.same_site(cu) {
                                        top.woke = true;
                                    }
                                }
                            }
                        }
                    }
                }
                EventKind::SelectBegin { cases, has_default } => {
                    if let Some(cu) = &ev.cu {
                        let id = universe.discover_cu(*cu);
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
                        select_stack.entry(g).or_default().push(PendingSelect {
                            cu: *cu,
                            cases: cases.len(),
                            has_default: *has_default,
                            blocked: false,
                            woke: false,
                        });
                    }
                    pending_unblocks.remove(&g);
                }
                EventKind::SelectEnd { chosen, flavor, .. } => {
                    if let Some(cu) = &ev.cu {
                        let id = universe.discover_cu(*cu);
                        let entry = select_stack.get_mut(&g).and_then(|st| st.pop());
                        let (blocked, woke, cases, has_default) = match &entry {
                            Some(e) if e.cu.same_site(cu) => {
                                (e.blocked, e.woke, e.cases, e.has_default)
                            }
                            _ => (false, false, chosen.wrapping_add(1), false),
                        };
                        if *chosen == usize::MAX {
                            cov.cover(
                                g,
                                ReqKey::case(id, cases, CaseFlavor::Default, ReqValue::Nop),
                            );
                        } else {
                            let fl = flavor_of(*flavor);
                            let value = if blocked && !has_default {
                                ReqValue::Blocked
                            } else if woke {
                                ReqValue::Unblocking
                            } else {
                                ReqValue::Nop
                            };
                            cov.cover(g, ReqKey::case(id, *chosen, fl, value));
                        }
                    }
                    last_block.remove(&g);
                    pending_unblocks.remove(&g);
                }
                kind if kind.is_op_completion() => {
                    let allowed = expected_kinds(kind);
                    if let Some(cu) = &ev.cu {
                        if allowed.contains(&cu.kind) {
                            let id = universe.discover_cu(*cu);
                            let blocked =
                                last_block.get(&g).map(|b| b.same_site(cu)).unwrap_or(false)
                                    || matches!(kind, EventKind::CondWait { .. });
                            let woke = pending_unblocks
                                .get(&g)
                                .map(|v| v.iter().any(|u| u.same_site(cu)))
                                .unwrap_or(false);
                            let reqs = goat_model::coverage::op_requirements(cu.kind);
                            if blocked && reqs.contains(&ReqValue::Blocked) {
                                cov.cover(g, ReqKey::op(id, ReqValue::Blocked));
                            }
                            if woke && reqs.contains(&ReqValue::Unblocking) {
                                cov.cover(g, ReqKey::op(id, ReqValue::Unblocking));
                            }
                            if !blocked && !woke && reqs.contains(&ReqValue::Nop) {
                                cov.cover(g, ReqKey::op(id, ReqValue::Nop));
                            }
                        }
                    }
                    last_block.remove(&g);
                    pending_unblocks.remove(&g);
                }
                _ => {
                    pending_unblocks.remove(&g);
                }
            }
        }
        cov
    }
}

/// Extract baseline **synchronization-pair** coverage (§II-D's earlier
/// metric family, for comparison with Req1–Req5): every `GoUnblock`
/// whose target was blocked at a known CU contributes the ordered pair
/// *(waker's op site, sleeper's block site)*.
pub fn extract_sync_pairs(ect: &Ect) -> goat_model::SyncPairCoverage {
    let mut pairs = goat_model::SyncPairCoverage::new();
    let mut blocked_at: BTreeMap<Gid, Cu> = BTreeMap::new();
    for ev in ect.iter() {
        match &ev.kind {
            EventKind::GoBlock { .. } => {
                if let Some(cu) = &ev.cu {
                    blocked_at.insert(ev.g, *cu);
                }
            }
            EventKind::GoUnblock { g } => {
                if let (Some(waker_cu), Some(blocked_cu)) = (&ev.cu, blocked_at.get(g)) {
                    pairs.observe(waker_cu, blocked_cu);
                }
                blocked_at.remove(g);
            }
            _ => {}
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use goat_model::ReqTarget;
    use goat_runtime::{go, go_named, gosched, Chan, Config, Mutex, Runtime, Select, WaitGroup};

    fn cfg(seed: u64) -> Config {
        Config::new(seed).with_native_preempt_prob(0.0)
    }

    fn coverage_of(f: impl Fn() + Send + Sync + 'static) -> (RunCoverage, RequirementUniverse) {
        let r = Runtime::run(cfg(0), f);
        let ect = r.ect.expect("traced");
        let mut universe = RequirementUniverse::new();
        let cov = extract_coverage(&ect, &mut universe);
        (cov, universe)
    }

    fn has(
        universe: &RequirementUniverse,
        cov: &RunCoverage,
        kind: CuKind,
        value: ReqValue,
    ) -> bool {
        cov.covered.iter().any(|k| {
            k.value == value && k.target == ReqTarget::Op && universe.table().get(k.cu).kind == kind
        })
    }

    #[test]
    fn blocked_send_covers_blocked() {
        let (cov, u) = coverage_of(|| {
            let ch: Chan<u8> = Chan::new(0);
            let tx = ch.clone();
            go(move || tx.send(1)); // sender blocks first
            gosched();
            ch.recv();
        });
        assert!(has(&u, &cov, CuKind::Send, ReqValue::Blocked), "{cov:?}");
        // the receiver woke the sender: recv covers unblocking
        assert!(has(&u, &cov, CuKind::Recv, ReqValue::Unblocking));
    }

    #[test]
    fn unblocking_send_covers_unblocking() {
        let (cov, u) = coverage_of(|| {
            let ch: Chan<u8> = Chan::new(0);
            let rx = ch.clone();
            go(move || {
                rx.recv(); // receiver blocks first
            });
            gosched();
            ch.send(1); // wakes the receiver
        });
        assert!(has(&u, &cov, CuKind::Send, ReqValue::Unblocking), "{cov:?}");
        assert!(has(&u, &cov, CuKind::Recv, ReqValue::Blocked));
    }

    #[test]
    fn buffered_send_covers_nop() {
        let (cov, u) = coverage_of(|| {
            let ch: Chan<u8> = Chan::new(2);
            ch.send(1);
            ch.recv();
        });
        assert!(has(&u, &cov, CuKind::Send, ReqValue::Nop));
        assert!(has(&u, &cov, CuKind::Recv, ReqValue::Nop));
    }

    #[test]
    fn lock_contention_covers_blocked_and_blocking() {
        let (cov, u) = coverage_of(|| {
            let mu = Mutex::new();
            let m2 = mu.clone();
            mu.lock();
            go(move || {
                m2.lock(); // blocks on main's lock
                m2.unlock();
            });
            gosched();
            mu.unlock();
            gosched();
        });
        assert!(has(&u, &cov, CuKind::Lock, ReqValue::Blocked), "{cov:?}");
        assert!(has(&u, &cov, CuKind::Lock, ReqValue::Blocking), "{cov:?}");
        assert!(has(&u, &cov, CuKind::Unlock, ReqValue::Unblocking));
    }

    #[test]
    fn uncontended_unlock_covers_nop() {
        let (cov, u) = coverage_of(|| {
            let mu = Mutex::new();
            mu.lock();
            mu.unlock();
        });
        assert!(has(&u, &cov, CuKind::Unlock, ReqValue::Nop));
        assert!(!has(&u, &cov, CuKind::Lock, ReqValue::Blocked));
    }

    #[test]
    fn go_statement_covers_req5() {
        let (cov, u) = coverage_of(|| {
            go(|| {});
            gosched();
        });
        assert!(has(&u, &cov, CuKind::Go, ReqValue::Nop));
    }

    #[test]
    fn select_cases_discovered_and_covered() {
        let (cov, u) = coverage_of(|| {
            let a: Chan<u8> = Chan::new(1);
            let b: Chan<u8> = Chan::new(1);
            a.send(1);
            let _ = Select::new().recv(&a, |v| v).recv(&b, |v| v).run();
        });
        // two recv cases discovered, each with the blocking-select set
        let case_reqs: Vec<&ReqKey> =
            u.iter().filter(|k| matches!(k.target, ReqTarget::Case { .. })).collect();
        assert_eq!(case_reqs.len(), 6, "{case_reqs:?}");
        // the fired case covered a NOP (data was ready; nobody woken)
        let covered_cases: Vec<ReqKey> =
            cov.covered.iter().filter(|k| matches!(k.target, ReqTarget::Case { .. })).collect();
        assert_eq!(covered_cases.len(), 1);
        assert_eq!(covered_cases[0].value, ReqValue::Nop);
    }

    #[test]
    fn blocked_select_covers_blocked_case() {
        let (cov, _u) = coverage_of(|| {
            let a: Chan<u8> = Chan::new(0);
            let tx = a.clone();
            go(move || tx.send(1));
            let _ = Select::new().recv(&a, |v| v).run();
        });
        let vals: Vec<ReqValue> = cov
            .covered
            .iter()
            .filter(|k| matches!(k.target, ReqTarget::Case { .. }))
            .map(|k| k.value)
            .collect();
        assert_eq!(vals, vec![ReqValue::Blocked], "{cov:?}");
    }

    #[test]
    fn default_select_covers_default_case() {
        let (cov, u) = coverage_of(|| {
            let a: Chan<u8> = Chan::new(0);
            let _ = Select::new().recv(&a, |_| 0).default(|| 1).run();
        });
        let default_cov: Vec<ReqKey> = cov
            .covered
            .iter()
            .filter(|k| matches!(k.target, ReqTarget::Case { flavor: CaseFlavor::Default, .. }))
            .collect();
        assert_eq!(default_cov.len(), 1);
        // non-blocking select cases got the Req4 set (2 reqs) + default (1)
        let total_case_reqs =
            u.iter().filter(|k| matches!(k.target, ReqTarget::Case { .. })).count();
        assert_eq!(total_case_reqs, 3);
    }

    #[test]
    fn waitgroup_coverage() {
        let (cov, u) = coverage_of(|| {
            let wg = WaitGroup::new();
            wg.add(1);
            let w2 = wg.clone();
            go(move || w2.done());
            wg.wait(); // blocks until done
        });
        assert!(has(&u, &cov, CuKind::Add, ReqValue::Nop));
        assert!(has(&u, &cov, CuKind::Wait, ReqValue::Blocked), "{cov:?}");
        assert!(has(&u, &cov, CuKind::Done, ReqValue::Unblocking), "{cov:?}");
    }

    #[test]
    fn close_wakes_receiver_covers_unblocking() {
        let (cov, u) = coverage_of(|| {
            let ch: Chan<u8> = Chan::new(0);
            let rx = ch.clone();
            go_named("rx", move || {
                rx.recv();
            });
            gosched();
            ch.close();
            gosched();
        });
        assert!(has(&u, &cov, CuKind::Close, ReqValue::Unblocking), "{cov:?}");
    }

    #[test]
    fn per_goroutine_vectors_partition_coverage() {
        let (cov, _) = coverage_of(|| {
            let ch: Chan<u8> = Chan::new(0);
            let tx = ch.clone();
            go(move || tx.send(1));
            ch.recv();
        });
        let union: usize = cov.per_g.values().map(|c| c.len()).sum();
        assert!(union >= cov.covered.len());
        assert!(cov.per_g.len() >= 2, "coverage attributed to both goroutines");
    }

    #[test]
    fn sync_pairs_capture_wakeup_edges() {
        let r = Runtime::run(cfg(0), || {
            let ch: Chan<u8> = Chan::new(0);
            let rx = ch.clone();
            go(move || {
                rx.recv(); // blocks at this recv site
            });
            gosched();
            ch.send(1); // wakes it from this send site
        });
        let pairs = extract_sync_pairs(r.ect.as_ref().unwrap());
        assert!(!pairs.is_empty(), "{pairs}");
        let rendered = pairs.render();
        assert!(rendered.contains("[send]"), "{rendered}");
        assert!(rendered.contains("[recv]"), "{rendered}");
    }

    #[test]
    fn sync_pairs_miss_what_req_metric_sees() {
        // A run where nothing ever blocks: the sync-pair metric observes
        // NOTHING, while GoAT's requirements still record NOP coverage —
        // the §II-D argument, measured.
        let r = Runtime::run(cfg(0), || {
            let ch: Chan<u8> = Chan::new(4);
            ch.send(1);
            ch.recv();
            let _ = Select::new().recv(&ch, |v| v).default(|| None).run();
        });
        let ect = r.ect.as_ref().unwrap();
        let pairs = extract_sync_pairs(ect);
        assert_eq!(pairs.len(), 0, "no wakeups happened: {pairs}");
        let mut u = RequirementUniverse::new();
        let cov = extract_coverage(ect, &mut u);
        assert!(cov.covered.len() >= 3, "GoAT's metric still made progress");
    }

    #[test]
    fn coverage_is_deterministic() {
        let run = || {
            let r = Runtime::run(cfg(7), || {
                let ch: Chan<u8> = Chan::new(1);
                let tx = ch.clone();
                go(move || tx.send(1));
                ch.recv();
            });
            let mut u = RequirementUniverse::new();
            let c = extract_coverage(&r.ect.unwrap(), &mut u);
            (c.covered.len(), u.len())
        };
        assert_eq!(run(), run());
    }
}
