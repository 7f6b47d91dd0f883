//! LockDL: a lock-set / lock-order-graph deadlock detector.
//!
//! Re-implements the detection principle of sasha-s/go-deadlock, the
//! "LockDL" baseline of §IV-A: go-deadlock wraps every mutex lock and
//! unlock to maintain each goroutine's *lock set* and a global
//! *lock-order graph*. Here those wrappers are replayed, in order, over
//! the run's recorded ECT, so the baseline reads the same trace as every
//! other analysis. The tool warns when
//!
//! 1. a goroutine locks a mutex it already holds (double-lock), or
//! 2. acquiring `b` while holding `a` creates a cycle in the lock-order
//!    graph (potential AB-BA deadlock — reported even when the deadlock
//!    does not materialise in this run), and
//! 3. a 30-second watchdog converts an actually-stuck program into a
//!    timeout report ("TO/GDL").
//!
//! Channel-only deadlocks are invisible to the lock-order analysis; only
//! the timeout can catch them — which is exactly the blind spot the
//! paper's Table IV exposes.

use crate::verdict::{Detector, ProgramFn, Symptom, ToolVerdict};
use goat_model::Cu;
use goat_runtime::{Config, RunOutcome, Runtime};
use goat_trace::{Ect, EventKind, Gid, RId};
use std::collections::{BTreeMap, BTreeSet};

/// A directed lock-order graph: edge `a → b` means some goroutine
/// acquired `b` while holding `a`.
#[derive(Debug, Clone, Default)]
pub struct LockGraph {
    edges: BTreeMap<RId, BTreeSet<RId>>,
}

impl LockGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add edge `a → b`; returns true if it is new.
    pub fn add_edge(&mut self, a: RId, b: RId) -> bool {
        self.edges.entry(a).or_default().insert(b)
    }

    /// Is `to` reachable from `from`?
    pub fn reachable(&self, from: RId, to: RId) -> bool {
        if from == to {
            return true;
        }
        let mut stack = vec![from];
        let mut seen = BTreeSet::new();
        while let Some(n) = stack.pop() {
            if !seen.insert(n) {
                continue;
            }
            if let Some(next) = self.edges.get(&n) {
                if next.contains(&to) {
                    return true;
                }
                stack.extend(next.iter().copied());
            }
        }
        false
    }

    /// Would adding `a → b` close a cycle (i.e. is `a` reachable from
    /// `b`)?
    pub fn would_cycle(&self, a: RId, b: RId) -> bool {
        self.reachable(b, a)
    }

    /// Number of edges in the graph.
    pub fn edge_count(&self) -> usize {
        self.edges.values().map(BTreeSet::len).sum()
    }
}

/// A warning go-deadlock would print.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LockdlReport {
    /// A goroutine locked a mutex it already held.
    DoubleLock {
        /// The goroutine.
        g: Gid,
        /// The mutex.
        mu: RId,
        /// Where the second acquisition happened.
        at: Cu,
    },
    /// A lock acquisition closed a cycle in the lock-order graph.
    OrderCycle {
        /// The goroutine.
        g: Gid,
        /// The mutex already held.
        held: RId,
        /// The mutex being acquired.
        acquiring: RId,
        /// Where the offending acquisition happened.
        at: Cu,
    },
}

/// go-deadlock's lock sets and lock-order graph, replayed over one run.
#[derive(Default)]
struct LockdlState {
    /// Write locks each goroutine holds, in acquisition order, indexed
    /// densely by gid (gids are runtime-assigned and small).
    held: Vec<Vec<RId>>,
    /// Goroutines whose current lock wait was checked at its `GoBlock`,
    /// so the `MuLock` that ends the wait only acquires.
    waited: BTreeSet<Gid>,
    graph: LockGraph,
    reports: Vec<LockdlReport>,
}

impl LockdlState {
    /// go-deadlock's `preLock`: warn on a double lock or on an order
    /// cycle, and record the order edges of this attempt.
    fn attempt(&mut self, g: Gid, mu: RId, at: Cu) {
        let held = self.held.get(g.0 as usize).map_or(&[][..], Vec::as_slice);
        if held.contains(&mu) {
            self.reports.push(LockdlReport::DoubleLock { g, mu, at });
            return;
        }
        for &h in held {
            if self.graph.would_cycle(h, mu) {
                self.reports.push(LockdlReport::OrderCycle { g, held: h, acquiring: mu, at });
            }
            self.graph.add_edge(h, mu);
        }
    }

    fn acquire(&mut self, g: Gid, mu: RId) {
        let i = g.0 as usize;
        if i >= self.held.len() {
            self.held.resize_with(i + 1, Vec::new);
        }
        self.held[i].push(mu);
    }

    /// An unlock releases `mu` from `g`, else — Go allows cross-goroutine
    /// unlock — from whichever goroutine holds it.
    fn release(&mut self, g: Gid, mu: RId) {
        for i in std::iter::once(g.0 as usize).chain(0..self.held.len()) {
            let Some(held) = self.held.get_mut(i) else { continue };
            if let Some(pos) = held.iter().rposition(|&m| m == mu) {
                held.remove(pos);
                return;
            }
        }
    }
}

/// The LockDL baseline detector.
#[derive(Debug, Clone, Copy, Default)]
pub struct LockdlDetector;

impl LockdlDetector {
    /// Create the detector.
    pub fn new() -> Self {
        LockdlDetector
    }

    /// The warnings go-deadlock would print for the run that recorded
    /// `ect`, in the order it would print them.
    ///
    /// Its wrappers act at points the trace records: a write-lock
    /// attempt (`preLock`) is checked at the `GoBlock` of a contended
    /// wait, else at the uncontended `MuLock`; the `MuLock` adds the lock
    /// to the goroutine's set (`postLock`) and `MuUnlock` removes it. A
    /// successful `try_lock` (`tried`) acquires without an attempt, as
    /// go-deadlock's `TryLock` does, and read locks are not tracked.
    fn reports(ect: &Ect) -> Vec<LockdlReport> {
        let mut st = LockdlState::default();
        for ev in ect.iter() {
            let (g, Some(at)) = (ev.g, ev.cu) else { continue };
            match ev.kind {
                EventKind::GoBlock { lock: Some(w), .. } if !w.read => {
                    st.attempt(g, w.mu, at);
                    st.waited.insert(g);
                }
                EventKind::MuLock { mu, tried } => {
                    if !tried && !st.waited.remove(&g) {
                        st.attempt(g, mu, at);
                    }
                    st.acquire(g, mu);
                }
                EventKind::MuUnlock { mu } => st.release(g, mu),
                _ => {}
            }
        }
        st.reports
    }

    /// Run once, returning both the verdict and the raw warnings.
    pub fn run_once_with_reports(
        &self,
        cfg: Config,
        program: ProgramFn,
    ) -> (ToolVerdict, Vec<LockdlReport>) {
        let mut result = Runtime::run(cfg.with_trace(true), move || program());
        let reports = result.ect.take().map_or_else(Vec::new, |ect| {
            let reports = Self::reports(&ect);
            goat_trace::recycle_buffer(ect.into_events());
            reports
        });
        let verdict = match result.outcome {
            _ if !reports.is_empty() => ToolVerdict {
                detected: true,
                symptom: Symptom::PotentialDeadlock,
                detail: format!("{} lock-order warning(s): {:?}", reports.len(), reports[0]),
            },
            // The 30 s watchdog: a stuck program times out.
            RunOutcome::GlobalDeadlock { .. } => ToolVerdict {
                detected: true,
                symptom: Symptom::GlobalDeadlock,
                detail: "timeout: program made no progress (TO/GDL)".to_string(),
            },
            RunOutcome::StepLimit | RunOutcome::TimedOut { .. } => ToolVerdict {
                detected: true,
                symptom: Symptom::Hang,
                detail: "watchdog timeout".to_string(),
            },
            RunOutcome::InfraFailure { ref reason } => ToolVerdict {
                detected: false,
                symptom: Symptom::None,
                detail: format!("infra failure: {reason}"),
            },
            RunOutcome::Panicked { g, msg } => ToolVerdict {
                detected: true,
                symptom: Symptom::Crash,
                detail: format!("panic in {g}: {msg}"),
            },
            // Unreachable for in-process detector runs, but the outcome
            // taxonomy is shared with the isolated campaign runner.
            RunOutcome::Crashed { ref forensics } => ToolVerdict {
                detected: true,
                symptom: Symptom::Crash,
                detail: format!("worker crashed: {}", forensics.summary),
            },
            RunOutcome::Completed => ToolVerdict::clean(),
        };
        (verdict, reports)
    }
}

impl Detector for LockdlDetector {
    fn name(&self) -> &'static str {
        "lockdl"
    }

    fn run_once(&self, cfg: Config, program: ProgramFn) -> ToolVerdict {
        self.run_once_with_reports(cfg, program).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use goat_model::CuKind;
    use goat_runtime::{go_named, gosched, Chan, Mutex as GoMutex};
    use goat_trace::{BlockReason, Event, LockWait, VTime};
    use std::sync::Arc;

    /// The CU of a hand-built trace's event `i`: line `i`.
    fn at(i: u32) -> Cu {
        Cu::new("k.rs", i, CuKind::Lock)
    }

    /// A hand-built trace, one `(goroutine, kind)` per event.
    fn ect(events: Vec<(u64, EventKind)>) -> Ect {
        let ev = |(i, (g, kind))| Event {
            seq: i as u64,
            ts: VTime(i as u64),
            g: Gid(g),
            kind,
            cu: Some(at(i as u32)),
        };
        events.into_iter().enumerate().map(ev).collect()
    }

    fn lock(mu: u64) -> EventKind {
        EventKind::MuLock { mu: RId(mu), tried: false }
    }

    fn try_lock(mu: u64) -> EventKind {
        EventKind::MuLock { mu: RId(mu), tried: true }
    }

    fn unlock(mu: u64) -> EventKind {
        EventKind::MuUnlock { mu: RId(mu) }
    }

    /// A wait for `mu`, held by `holder`.
    fn wait(mu: u64, holder: u64, read: bool) -> EventKind {
        let lock = LockWait { mu: RId(mu), holder: Gid(holder), holder_cu: at(0), read };
        EventKind::GoBlock { reason: BlockReason::Sync, lock: Some(lock) }
    }

    #[test]
    fn trace_double_lock_warns_at_the_blocking_attempt() {
        let reports = LockdlDetector::reports(&ect(vec![(1, lock(1)), (1, wait(1, 1, false))]));
        assert_eq!(reports, vec![LockdlReport::DoubleLock { g: Gid(1), mu: RId(1), at: at(1) }]);
    }

    #[test]
    fn trace_ab_ba_cycle_warns_once_per_attempt() {
        let reports = LockdlDetector::reports(&ect(vec![
            (2, lock(1)),
            (2, lock(2)),
            (2, unlock(2)),
            (2, lock(3)), // a third lock, so the graph holds more than the cycle
            (2, unlock(3)),
            (1, lock(2)),
            (1, lock(1)), // uncontended: checked at its MuLock
            (1, unlock(1)),
            (2, unlock(1)),
            (2, lock(1)),
            (1, wait(1, 2, false)), // contended: checked at its GoBlock ...
            (2, unlock(1)),
            (1, lock(1)), // ... and not again when the wait ends
        ]));
        let cycle =
            |i| LockdlReport::OrderCycle { g: Gid(1), held: RId(2), acquiring: RId(1), at: at(i) };
        assert_eq!(reports, vec![cycle(6), cycle(10)]);
    }

    #[test]
    fn trace_blocked_attempt_that_never_acquires_still_warns() {
        // A materialised AB-BA deadlock: both goroutines stay blocked.
        let reports = LockdlDetector::reports(&ect(vec![
            (2, lock(1)),
            (1, lock(2)),
            (2, wait(2, 1, false)),
            (1, wait(1, 2, false)),
        ]));
        let want =
            LockdlReport::OrderCycle { g: Gid(1), held: RId(2), acquiring: RId(1), at: at(3) };
        assert_eq!(reports, vec![want]);
    }

    #[test]
    fn trace_rlock_blocked_behind_a_writer_is_not_an_attempt() {
        let trace = |read| {
            ect(vec![
                (2, lock(2)),
                (1, lock(1)),
                (2, wait(1, 1, read)), // G2, holding r2, waits for r1
                (1, wait(2, 2, false)),
            ])
        };
        assert!(LockdlDetector::reports(&trace(true)).is_empty());
        assert_eq!(LockdlDetector::reports(&trace(false)).len(), 1, "a write wait is");
    }

    #[test]
    fn trace_try_lock_adds_no_order_edge() {
        let trace = |second| {
            ect(vec![
                (1, lock(2)),
                (1, second), // r1 while holding r2
                (1, unlock(1)),
                (1, unlock(2)),
                (1, lock(1)),
                (1, lock(2)),
            ])
        };
        assert!(LockdlDetector::reports(&trace(try_lock(1))).is_empty());
        assert_eq!(LockdlDetector::reports(&trace(lock(1))).len(), 1, "a lock does");
    }

    #[test]
    fn trace_cross_goroutine_unlock_releases_from_the_holder() {
        let reports = LockdlDetector::reports(&ect(vec![
            (1, lock(1)),
            (2, unlock(1)),
            (1, lock(1)), // no double lock: G2's unlock released G1's hold
            (1, unlock(1)),
            (1, lock(2)),
            (1, lock(1)), // no edge r1 → r2 was left behind either
        ]));
        assert!(reports.is_empty(), "{reports:?}");
    }

    #[test]
    fn graph_cycle_detection() {
        let mut g = LockGraph::new();
        assert!(g.add_edge(RId(1), RId(2)));
        assert!(!g.add_edge(RId(1), RId(2)), "duplicate edge");
        g.add_edge(RId(2), RId(3));
        assert!(g.reachable(RId(1), RId(3)));
        assert!(!g.reachable(RId(3), RId(1)));
        assert!(g.would_cycle(RId(3), RId(1)));
        assert!(!g.would_cycle(RId(1), RId(3)));
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn detects_ab_ba_even_without_deadlock_occurring() {
        // The two goroutines run serially here, so no deadlock happens —
        // but the lock-order cycle is still visible to LockDL.
        let (v, reports) = LockdlDetector::new().run_once_with_reports(
            Config::new(0).with_native_preempt_prob(0.0),
            Arc::new(|| {
                let a = GoMutex::new();
                let b = GoMutex::new();
                let (a2, b2) = (a.clone(), b.clone());
                go_named("ab", move || {
                    a2.lock();
                    b2.lock();
                    b2.unlock();
                    a2.unlock();
                });
                gosched();
                gosched();
                b.lock();
                a.lock();
                a.unlock();
                b.unlock();
            }),
        );
        assert!(v.detected, "{v:?}");
        assert_eq!(v.symptom, Symptom::PotentialDeadlock);
        assert!(matches!(reports[0], LockdlReport::OrderCycle { .. }));
    }

    #[test]
    fn detects_double_lock() {
        let (v, reports) = LockdlDetector::new().run_once_with_reports(
            Config::new(0),
            Arc::new(|| {
                let a = GoMutex::new();
                a.lock();
                a.lock(); // deadlocks, but the warning fires first
            }),
        );
        assert!(v.detected);
        assert!(matches!(reports[0], LockdlReport::DoubleLock { .. }));
    }

    #[test]
    fn channel_deadlock_only_caught_by_timeout() {
        let (v, reports) = LockdlDetector::new().run_once_with_reports(
            Config::new(0),
            Arc::new(|| {
                let ch: Chan<u8> = Chan::new(0);
                ch.recv();
            }),
        );
        assert!(reports.is_empty(), "no lock warnings for channel bugs");
        assert!(v.detected);
        assert_eq!(v.symptom, Symptom::GlobalDeadlock, "timeout path");
    }

    #[test]
    fn misses_channel_leak_entirely() {
        let v = LockdlDetector::new().run_once(
            Config::new(0).with_native_preempt_prob(0.0),
            Arc::new(|| {
                let ch: Chan<u8> = Chan::new(0);
                go_named("leaker", move || {
                    ch.recv();
                });
                gosched();
            }),
        );
        assert!(!v.detected, "{v:?}");
    }

    #[test]
    fn clean_program_is_clean() {
        let v = LockdlDetector::new().run_once(
            Config::new(0),
            Arc::new(|| {
                let a = GoMutex::new();
                a.lock();
                a.unlock();
                a.lock();
                a.unlock();
            }),
        );
        assert!(!v.detected);
    }

    #[test]
    fn consistent_order_no_warning() {
        let v = LockdlDetector::new().run_once(
            Config::new(0).with_native_preempt_prob(0.0),
            Arc::new(|| {
                let a = GoMutex::new();
                let b = GoMutex::new();
                for _ in 0..3 {
                    a.lock();
                    b.lock();
                    b.unlock();
                    a.unlock();
                }
            }),
        );
        assert!(!v.detected, "{v:?}");
    }
}
