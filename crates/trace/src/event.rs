//! The ECT event vocabulary.
//!
//! Mirrors the Go execution tracer's event families (paper Table II) and
//! adds GoAT's concurrency extension events. Every event records the
//! emitting goroutine, a total-order sequence number, a virtual timestamp
//! and — for concurrency events — the CU source location it corresponds
//! to (each event "corresponds to exactly one statement in the source
//! code").

use goat_model::{Cu, Istr};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Goroutine identifier. The main goroutine is always [`Gid::MAIN`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Gid(pub u64);

impl Gid {
    /// The main goroutine (the one executing the program's `main`).
    pub const MAIN: Gid = Gid(1);
    /// Pseudo-goroutine id used for events emitted by the runtime itself
    /// (timer firings, bootstrap); analogous to Go's g0.
    pub const RUNTIME: Gid = Gid(0);
}

impl fmt::Display for Gid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "G{}", self.0)
    }
}

/// Identifier of a traced resource (channel, mutex, wait-group, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RId(pub u64);

impl fmt::Display for RId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Virtual (logical) time in nanoseconds.
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct VTime(pub u64);

impl VTime {
    /// Zero time.
    pub const ZERO: VTime = VTime(0);

    /// Construct from nanoseconds.
    pub fn from_nanos(ns: u64) -> Self {
        VTime(ns)
    }

    /// Construct from milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        VTime(ms * 1_000_000)
    }

    /// Construct from seconds.
    pub fn from_secs(s: u64) -> Self {
        VTime(s * 1_000_000_000)
    }

    /// Nanosecond value.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Saturating addition of a duration in nanoseconds.
    pub fn saturating_add(self, ns: u64) -> VTime {
        VTime(self.0.saturating_add(ns))
    }
}

impl fmt::Display for VTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.0 as f64 / 1e6)
    }
}

/// Why a goroutine blocked (payload of [`EventKind::GoBlock`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BlockReason {
    /// Blocked on a channel send.
    Send,
    /// Blocked on a channel receive.
    Recv,
    /// Blocked in a select with no ready case and no default.
    Select,
    /// Blocked acquiring a mutex or rw-lock.
    Sync,
    /// Blocked in a condition-variable wait.
    Cond,
    /// Blocked in a wait-group wait.
    WaitGroup,
    /// Blocked in a virtual-time sleep.
    Sleep,
}

impl fmt::Display for BlockReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BlockReason::Send => "send",
            BlockReason::Recv => "recv",
            BlockReason::Select => "select",
            BlockReason::Sync => "sync",
            BlockReason::Cond => "cond",
            BlockReason::WaitGroup => "waitgroup",
            BlockReason::Sleep => "sleep",
        };
        f.write_str(s)
    }
}

/// The lock a goroutine blocked on (payload of a
/// [`BlockReason::Sync`] [`EventKind::GoBlock`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LockWait {
    /// The contended mutex or rw-lock.
    pub mu: RId,
    /// A goroutine the wait is behind: the writer holding the lock, else
    /// its first reader, or — for a read lock held off by write
    /// preference — the first waiting writer.
    pub holder: Gid,
    /// Where `holder` acquired (or is waiting to acquire) the lock.
    pub holder_cu: Cu,
    /// True when the blocked operation is a read lock (`rlock`).
    pub read: bool,
}

/// Flavour of the select case that fired (payload of `SelectEnd`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SelCaseFlavor {
    /// A send case fired.
    Send,
    /// A receive case fired.
    Recv,
    /// The default case fired (non-blocking select).
    Default,
}

/// Event families of the Go execution tracer (paper Table II), plus
/// GoAT's concurrency extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EventCategory {
    /// Process/thread start and stop.
    Process,
    /// Garbage collection and memory operation events.
    GcMem,
    /// Goroutine lifecycle events: create, block, start, stop, end, …
    Goroutine,
    /// Interactions with system calls.
    Syscall,
    /// User-annotated regions and tasks.
    User,
    /// System-related events such as futile wakeups or timers.
    Misc,
    /// GoAT's concurrency-primitive events (the tracer enhancement).
    Concurrency,
}

/// One event kind of the ECT vocabulary.
///
/// The first six families reproduce the standard tracer's alphabet; the
/// `Concurrency` family is GoAT's enhancement carrying per-primitive
/// semantics. Events that complete a potentially blocking operation (e.g.
/// [`EventKind::ChSend`]) are emitted *after* the operation finishes;
/// whether the goroutine blocked first is derivable from the immediately
/// preceding [`EventKind::GoBlock`] in that goroutine's event sequence,
/// and who it woke is derivable from the [`EventKind::GoUnblock`] events
/// it emitted just before the completion event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EventKind {
    // ---- Process ----
    /// A logical processor starts running goroutines.
    ProcStart,
    /// A logical processor stops.
    ProcStop,
    /// GOMAXPROCS-style parallelism announcement.
    Gomaxprocs {
        /// Number of logical processors.
        n: u32,
    },

    // ---- GC / memory ----
    /// Garbage collection cycle starts (synthetic in this runtime: the
    /// scheduler emits periodic GC pairs so traces carry the category).
    GcStart,
    /// Garbage collection cycle ends.
    GcDone,
    /// Stop-the-world phase begins (vocabulary fidelity; not emitted).
    GcStwStart,
    /// Stop-the-world phase ends (vocabulary fidelity; not emitted).
    GcStwDone,
    /// Concurrent sweep begins (vocabulary fidelity; not emitted).
    GcSweepStart,
    /// Concurrent sweep ends (vocabulary fidelity; not emitted).
    GcSweepDone,
    /// Heap allocation counter update.
    HeapAlloc {
        /// Total bytes allocated.
        bytes: u64,
    },

    // ---- Goroutine lifecycle ----
    /// `g` created goroutine `new_g`; `cu` is the `go` statement site.
    GoCreate {
        /// The newly created goroutine.
        new_g: Gid,
        /// Human-readable name of the new goroutine (interned: repeated
        /// spawns of the same site share one allocation).
        name: Istr,
        /// True for runtime-internal goroutines (watchdog, tracer), which
        /// the application-level filter removes.
        internal: bool,
    },
    /// Goroutine starts running on a processor.
    GoStart,
    /// Goroutine finished (returned from its function).
    GoEnd,
    /// Goroutine stopped without finishing (run aborted).
    GoStop,
    /// Goroutine yielded the processor (`runtime.Gosched()`).
    ///
    /// The main goroutine's final event in a successful execution is a
    /// `GoSched` with `trace_stop = true` (the `runtime.traceStop`
    /// hand-over described in §III-E.1).
    GoSched {
        /// True for the final trace-stopping yield of the main goroutine.
        trace_stop: bool,
    },
    /// Goroutine was preempted by an injected perturbation yield.
    GoPreempt,
    /// Goroutine went to sleep (virtual time).
    GoSleep,
    /// Goroutine blocked; the payload says why, and a lock wait names
    /// the lock and its current holder, so Req3's *blocking* requirement
    /// can be attributed and LockDL can replay the attempt.
    GoBlock {
        /// Why the goroutine blocked.
        reason: BlockReason,
        /// The contended lock, exactly when `reason` is
        /// [`BlockReason::Sync`].
        lock: Option<LockWait>,
    },
    /// The emitting goroutine made `g` runnable again.
    GoUnblock {
        /// The goroutine woken up.
        g: Gid,
    },
    /// Goroutine is waiting (emitted for goroutines parked at trace start).
    GoWaiting,
    /// Goroutine blocked on network I/O (vocabulary fidelity; the
    /// virtual runtime has no real network, so this is never emitted).
    GoBlockNet,
    /// Goroutine recorded as in-syscall at trace start (fidelity).
    GoInSyscall,

    // ---- Syscall ----
    /// Goroutine entered a system call (unused by the virtual runtime,
    /// kept for vocabulary fidelity).
    GoSysCall,
    /// Goroutine exited a system call.
    GoSysExit,
    /// Goroutine blocked in a system call.
    GoSysBlock,

    // ---- User ----
    /// User-annotated log message.
    UserLog {
        /// Free-form message.
        msg: String,
    },
    /// User task creation (bounded tracing regions).
    UserTaskCreate,
    /// User task end.
    UserTaskEnd,
    /// User region marker.
    UserRegion,

    // ---- Misc ----
    /// A wakeup that found nothing to do.
    FutileWakeup,
    /// A virtual timer fired.
    TimerFire {
        /// The timer's resource id.
        timer: RId,
    },

    // ---- Concurrency extension (GoAT) ----
    /// Channel created.
    ChMake {
        /// Channel id.
        ch: RId,
        /// Buffer capacity (0 = unbuffered/rendezvous).
        cap: usize,
    },
    /// Channel send completed.
    ChSend {
        /// Channel id.
        ch: RId,
    },
    /// Channel receive completed.
    ChRecv {
        /// Channel id.
        ch: RId,
        /// True if the receive returned because the channel was closed
        /// (and drained), i.e. the zero-value/`None` path.
        closed: bool,
    },
    /// Channel closed.
    ChClose {
        /// Channel id.
        ch: RId,
    },
    /// A select statement started evaluating its cases.
    ///
    /// The per-case descriptors are how the dynamic side "obtains the
    /// cases of each select statement at runtime" for Req2.
    SelectBegin {
        /// Flavour and channel of every channel case, in case order.
        cases: Vec<(SelCaseFlavor, Option<RId>)>,
        /// Whether the select has a default case.
        has_default: bool,
    },
    /// A select statement committed to a case.
    SelectEnd {
        /// Index of the chosen channel case, or `usize::MAX` for default.
        chosen: usize,
        /// Flavour of the chosen case.
        flavor: SelCaseFlavor,
        /// Channel of the chosen case (none for default).
        ch: Option<RId>,
    },
    /// Mutex (or rw-lock write side) acquired.
    MuLock {
        /// Mutex id.
        mu: RId,
        /// True when a successful `try_lock` took it (no attempt was
        /// made that could have blocked).
        tried: bool,
    },
    /// Mutex (or rw-lock write side) released.
    MuUnlock {
        /// Mutex id.
        mu: RId,
    },
    /// RwLock read side acquired.
    RwRLock {
        /// Lock id.
        mu: RId,
    },
    /// RwLock read side released.
    RwRUnlock {
        /// Lock id.
        mu: RId,
    },
    /// WaitGroup counter add.
    WgAdd {
        /// Wait-group id.
        wg: RId,
        /// Signed delta applied.
        delta: i64,
        /// Counter value after the add.
        count: i64,
    },
    /// WaitGroup done (counter decrement).
    WgDone {
        /// Wait-group id.
        wg: RId,
        /// Counter value after the decrement.
        count: i64,
    },
    /// WaitGroup wait completed.
    WgWait {
        /// Wait-group id.
        wg: RId,
    },
    /// Condition-variable wait completed (woken and lock re-acquired).
    CondWait {
        /// Condition-variable id.
        cv: RId,
    },
    /// Condition-variable signal.
    CondSignal {
        /// Condition-variable id.
        cv: RId,
    },
    /// Condition-variable broadcast.
    CondBroadcast {
        /// Condition-variable id.
        cv: RId,
    },
}

impl EventKind {
    /// The Table II family this event belongs to.
    pub fn category(&self) -> EventCategory {
        use EventKind::*;
        match self {
            ProcStart | ProcStop | Gomaxprocs { .. } => EventCategory::Process,
            GcStart
            | GcDone
            | GcStwStart
            | GcStwDone
            | GcSweepStart
            | GcSweepDone
            | HeapAlloc { .. } => EventCategory::GcMem,
            GoCreate { .. }
            | GoStart
            | GoEnd
            | GoStop
            | GoSched { .. }
            | GoPreempt
            | GoSleep
            | GoBlock { .. }
            | GoUnblock { .. }
            | GoWaiting
            | GoBlockNet
            | GoInSyscall => EventCategory::Goroutine,
            GoSysCall | GoSysExit | GoSysBlock => EventCategory::Syscall,
            UserLog { .. } | UserTaskCreate | UserTaskEnd | UserRegion => EventCategory::User,
            FutileWakeup | TimerFire { .. } => EventCategory::Misc,
            ChMake { .. }
            | ChSend { .. }
            | ChRecv { .. }
            | ChClose { .. }
            | SelectBegin { .. }
            | SelectEnd { .. }
            | MuLock { .. }
            | MuUnlock { .. }
            | RwRLock { .. }
            | RwRUnlock { .. }
            | WgAdd { .. }
            | WgDone { .. }
            | WgWait { .. }
            | CondWait { .. }
            | CondSignal { .. }
            | CondBroadcast { .. } => EventCategory::Concurrency,
        }
    }

    /// Short mnemonic for rendering interleavings.
    pub fn mnemonic(&self) -> &'static str {
        use EventKind::*;
        match self {
            ProcStart => "ProcStart",
            ProcStop => "ProcStop",
            Gomaxprocs { .. } => "Gomaxprocs",
            GcStart => "GCStart",
            GcDone => "GCDone",
            GcStwStart => "GCSTWStart",
            GcStwDone => "GCSTWDone",
            GcSweepStart => "GCSweepStart",
            GcSweepDone => "GCSweepDone",
            HeapAlloc { .. } => "HeapAlloc",
            GoCreate { .. } => "GoCreate",
            GoStart => "GoStart",
            GoEnd => "GoEnd",
            GoStop => "GoStop",
            GoSched { .. } => "GoSched",
            GoPreempt => "GoPreempt",
            GoSleep => "GoSleep",
            GoBlock { .. } => "GoBlock",
            GoUnblock { .. } => "GoUnblock",
            GoWaiting => "GoWaiting",
            GoBlockNet => "GoBlockNet",
            GoInSyscall => "GoInSyscall",
            GoSysCall => "GoSysCall",
            GoSysExit => "GoSysExit",
            GoSysBlock => "GoSysBlock",
            UserLog { .. } => "UserLog",
            UserTaskCreate => "UserTaskCreate",
            UserTaskEnd => "UserTaskEnd",
            UserRegion => "UserRegion",
            FutileWakeup => "FutileWakeup",
            TimerFire { .. } => "TimerFire",
            ChMake { .. } => "ChMake",
            ChSend { .. } => "ChSend",
            ChRecv { .. } => "ChRecv",
            ChClose { .. } => "ChClose",
            SelectBegin { .. } => "SelectBegin",
            SelectEnd { .. } => "SelectEnd",
            MuLock { .. } => "MuLock",
            MuUnlock { .. } => "MuUnlock",
            RwRLock { .. } => "RwRLock",
            RwRUnlock { .. } => "RwRUnlock",
            WgAdd { .. } => "WgAdd",
            WgDone { .. } => "WgDone",
            WgWait { .. } => "WgWait",
            CondWait { .. } => "CondWait",
            CondSignal { .. } => "CondSignal",
            CondBroadcast { .. } => "CondBroadcast",
        }
    }

    /// Does this event complete a (potentially blocking) concurrency
    /// operation? Such events are the anchors of coverage extraction.
    pub fn is_op_completion(&self) -> bool {
        use EventKind::*;
        matches!(
            self,
            ChSend { .. }
                | ChRecv { .. }
                | ChClose { .. }
                | SelectEnd { .. }
                | MuLock { .. }
                | MuUnlock { .. }
                | RwRLock { .. }
                | RwRUnlock { .. }
                | WgAdd { .. }
                | WgDone { .. }
                | WgWait { .. }
                | CondWait { .. }
                | CondSignal { .. }
                | CondBroadcast { .. }
        )
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use EventKind::*;
        match self {
            GoCreate { new_g, name, .. } => write!(f, "GoCreate({new_g} \"{name}\")"),
            GoSched { trace_stop: true } => write!(f, "GoSched(traceStop)"),
            GoBlock { reason, .. } => write!(f, "GoBlock({reason})"),
            GoUnblock { g } => write!(f, "GoUnblock({g})"),
            ChSend { ch } => write!(f, "ChSend({ch})"),
            ChRecv { ch, closed } => {
                write!(f, "ChRecv({ch}{})", if *closed { ", closed" } else { "" })
            }
            ChClose { ch } => write!(f, "ChClose({ch})"),
            SelectEnd { chosen, flavor, .. } if *chosen == usize::MAX => {
                write!(f, "SelectEnd(default/{flavor:?})")
            }
            SelectEnd { chosen, flavor, .. } => write!(f, "SelectEnd(case{chosen}/{flavor:?})"),
            MuLock { mu, .. } => write!(f, "MuLock({mu})"),
            MuUnlock { mu } => write!(f, "MuUnlock({mu})"),
            other => f.write_str(other.mnemonic()),
        }
    }
}

/// One entry of an execution concurrency trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// Position in the total order (0-based, strictly increasing).
    pub seq: u64,
    /// Virtual timestamp.
    pub ts: VTime,
    /// The goroutine that emitted the event.
    pub g: Gid,
    /// What happened.
    pub kind: EventKind,
    /// The CU source location this event corresponds to, when applicable.
    pub cu: Option<Cu>,
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{:<5} {:>10} {:<5} {}", self.seq, self.ts, self.g.to_string(), self.kind)?;
        if let Some(cu) = &self.cu {
            write!(f, "  @ {cu}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn categories_cover_vocabulary() {
        // A representative of each family maps to the right category.
        assert_eq!(EventKind::ProcStart.category(), EventCategory::Process);
        assert_eq!(EventKind::GcStart.category(), EventCategory::GcMem);
        assert_eq!(EventKind::GoEnd.category(), EventCategory::Goroutine);
        assert_eq!(EventKind::GoSysCall.category(), EventCategory::Syscall);
        assert_eq!(EventKind::UserTaskEnd.category(), EventCategory::User);
        assert_eq!(EventKind::FutileWakeup.category(), EventCategory::Misc);
        assert_eq!(EventKind::ChSend { ch: RId(1) }.category(), EventCategory::Concurrency);
    }

    #[test]
    fn vtime_constructors_agree() {
        assert_eq!(VTime::from_millis(1), VTime::from_nanos(1_000_000));
        assert_eq!(VTime::from_secs(1), VTime::from_millis(1000));
        assert_eq!(VTime::from_secs(2).as_nanos(), 2_000_000_000);
    }

    #[test]
    fn display_is_never_empty() {
        let kinds: Vec<EventKind> = vec![
            EventKind::GoStart,
            EventKind::GoSched { trace_stop: true },
            EventKind::GoBlock { reason: BlockReason::Send, lock: None },
            EventKind::SelectEnd { chosen: usize::MAX, flavor: SelCaseFlavor::Default, ch: None },
            EventKind::ChRecv { ch: RId(3), closed: true },
        ];
        for k in kinds {
            assert!(!k.to_string().is_empty());
            assert!(!k.mnemonic().is_empty());
        }
    }

    #[test]
    fn event_roundtrips_through_json() {
        let ev = Event {
            seq: 7,
            ts: VTime::from_millis(3),
            g: Gid(2),
            kind: EventKind::GoCreate { new_g: Gid(3), name: "worker".into(), internal: false },
            cu: Some(goat_model::Cu::new("k.rs", 12, goat_model::CuKind::Go)),
        };
        let json = serde_json::to_string(&ev).unwrap();
        let back: Event = serde_json::from_str(&json).unwrap();
        assert_eq!(ev, back);
    }

    #[test]
    fn vocabulary_covers_all_tracer_families() {
        // The standard tracer's alphabet is ~49 events across six
        // families (paper Table II); this vocabulary mirrors the
        // families and adds the concurrency extension. Guard the shape:
        // every family must be represented.
        use EventKind::*;
        let representatives: Vec<EventKind> = vec![
            ProcStart,
            GcStwStart,
            GcSweepDone,
            GoBlockNet,
            GoInSyscall,
            GoSysBlock,
            UserRegion,
            FutileWakeup,
            CondBroadcast { cv: RId(1) },
        ];
        let mut families: std::collections::BTreeSet<String> = Default::default();
        for k in &representatives {
            families.insert(format!("{:?}", k.category()));
            assert!(!k.mnemonic().is_empty());
        }
        assert_eq!(families.len(), 7, "all seven families represented");
    }

    #[test]
    fn event_size_is_pinned() {
        // Every recorded event is one of these; a lock wait's payload
        // (lock, holder, holder CU, read flag) sets the size.
        assert_eq!(std::mem::size_of::<EventKind>(), 56);
        assert_eq!(std::mem::size_of::<Event>(), 104);
    }

    #[test]
    fn op_completion_classification() {
        assert!(EventKind::MuLock { mu: RId(1), tried: false }.is_op_completion());
        assert!(!EventKind::GoStart.is_op_completion());
        assert!(!EventKind::SelectBegin { cases: vec![], has_default: false }.is_op_completion());
    }
}
