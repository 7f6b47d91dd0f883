//! The single-token cooperative scheduler.
//!
//! Every goroutine of a run is a stackful coroutine ([`crate::coro`]),
//! and all of them take turns on the run's one host thread: **exactly
//! one** holds the *run token* at any moment. A goroutine that blocks,
//! yields or exits asks [`Sched::schedule_next`] who runs next, drops the
//! scheduler lock and switches back to the host's run loop, which
//! resumes whichever goroutine was granted the token. A handoff is thus
//! a register swap on one thread, never a cross-thread wake.
//!
//! Every primitive operation funnels through this module to block,
//! wake, yield and emit ECT events, which gives the runtime three
//! properties the paper's methodology needs:
//!
//! 1. **Determinism** — given a [`Config::seed`], the whole interleaving
//!    (run-queue choices, select choices, injected yields) replays
//!    exactly;
//! 2. **Complete traces** — every scheduling-relevant action passes a
//!    single emission point;
//! 3. **Virtual time** — the clock advances per scheduler step and
//!    fast-forwards over idle periods, making timeouts deterministic.
//!
//! The *native* scheduling policy models Go's production scheduler: the
//! FIFO global run queue is followed, except with probability ε
//! ([`Config::native_preempt_prob`]) a random runnable goroutine is
//! chosen instead — the preemption/multi-processor noise that makes rare
//! interleavings rare.

use crate::config::{
    AliveGoroutine, Config, Decision, ReplayLog, RunOutcome, RunResult, SchedCounters, SchedPolicy,
    TimeoutPhase,
};
use crate::coro::{self, Coroutine, Resume};
use crate::faultpoint::{self, SeedFault};
use crate::monitor::Monitor;
use crate::strategy::{Strategy, StrategyKind, YieldChoice, YieldCtx};
use goat_model::{Cu, CuKind, Istr};
use goat_trace::{BlockReason, Ect, EventKind, Gid, RId, TraceBuf, VTime};
use parking_lot::{Condvar, Mutex};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Panic payload used to unwind goroutines at shutdown.
pub(crate) struct ShutdownSignal;

/// Panic payload for Go-level runtime panics ("send on closed channel").
pub(crate) struct GoPanic {
    pub msg: String,
    /// Call site of the `gopanic` that raised this panic (deterministic
    /// forensics: the same seed panics at the same source location).
    pub site: &'static panic::Location<'static>,
}

/// Raise a Go-level panic (crashes the whole program, like Go).
#[track_caller]
pub(crate) fn gopanic(msg: impl Into<String>) -> ! {
    panic::panic_any(GoPanic { msg: msg.into(), site: panic::Location::caller() })
}

/// Unwind the current goroutine for teardown. `resume_unwind` skips the
/// panic hook: this is control flow, not a panic to report.
pub(crate) fn shutdown_unwind() -> ! {
    panic::resume_unwind(Box::new(ShutdownSignal))
}

thread_local! {
    /// Forensics captured by the panic hook for the most recent *genuine*
    /// panic on this thread (location + truncated backtrace). The hook
    /// runs on the panicking thread, so `goroutine_main`'s catch site can
    /// read it back without any cross-thread plumbing.
    static LAST_PANIC_DETAIL: RefCell<Option<String>> = const { RefCell::new(None) };
}

/// Cap on backtrace lines folded into a panic's forensics detail.
const PANIC_BACKTRACE_LINES: usize = 16;

/// Render a genuine panic's forensics: the panic location, plus a
/// truncated backtrace when `RUST_BACKTRACE` enables capture (the
/// default — capture disabled — keeps the detail deterministic).
fn render_panic_detail(info: &panic::PanicHookInfo<'_>) -> String {
    let mut detail = match info.location() {
        Some(loc) => format!("panicked at {}:{}:{}", loc.file(), loc.line(), loc.column()),
        None => "panicked at unknown location".to_string(),
    };
    let bt = std::backtrace::Backtrace::capture();
    if bt.status() == std::backtrace::BacktraceStatus::Captured {
        let text = bt.to_string();
        let mut lines = text.lines();
        for line in lines.by_ref().take(PANIC_BACKTRACE_LINES) {
            detail.push('\n');
            detail.push_str(line);
        }
        let dropped = lines.count();
        if dropped > 0 {
            detail.push_str(&format!("\n... ({dropped} more backtrace lines)"));
        }
    }
    detail
}

/// Install a process-wide panic hook that silences Go-level panics while
/// delegating genuine panics to the previous hook (shutdown unwinds never
/// reach it, see [`shutdown_unwind`]). Genuine panics also
/// leave their forensics (location + truncated backtrace) in a
/// thread-local for the goroutine catch site to collect.
fn install_panic_hook() {
    use std::sync::Once;
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            let p = info.payload();
            if p.is::<GoPanic>() {
                return;
            }
            let detail = render_panic_detail(info);
            LAST_PANIC_DETAIL.with(|d| *d.borrow_mut() = Some(detail));
            prev(info);
        }));
    });
}

// ---------------------------------------------------------------------
// Scheduler state
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
enum GState {
    Runnable,
    Running,
    Blocked(BlockReason),
    Done,
}

struct GSlot {
    gid: Gid,
    name: Istr,
    internal: bool,
    state: GState,
    coro: Coro,
}

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A goroutine's coroutine handle, owned by its slot except while the
/// host thread runs it.
enum Coro {
    /// Not run yet: the body, turned into a coroutine at the first grant.
    Unstarted(Job),
    /// Switched out (blocked or runnable) in the middle of its body.
    Suspended(Coroutine),
    /// Checked out by the host's run loop.
    Running,
    /// Returned or unwound (or dropped unrun at teardown).
    Finished,
}

/// Commit point shared by the registrations of one blocked select.
///
/// The first operation (peer send/recv, close, timer) that consumes one
/// of the select's registered cases *commits* the select to that case;
/// every other registration becomes stale and is skipped or removed.
pub(crate) struct SelToken {
    winner: Mutex<Option<usize>>,
}

impl SelToken {
    pub(crate) fn new() -> Arc<SelToken> {
        Arc::new(SelToken { winner: Mutex::new(None) })
    }

    /// Try to commit the select to case `idx`; false if already won.
    pub(crate) fn try_commit(&self, idx: usize) -> bool {
        let mut w = self.winner.lock();
        if w.is_none() {
            *w = Some(idx);
            true
        } else {
            false
        }
    }

    /// The committed case, if any.
    pub(crate) fn winner(&self) -> Option<usize> {
        *self.winner.lock()
    }
}

/// A timer action fired when virtual time reaches the deadline.
pub(crate) trait TimerTarget: Send + Sync {
    /// Deliver the timer's effect (wake a goroutine, complete a channel).
    fn fire(&self, s: &mut Sched);
}

enum TimerAction {
    Wake(Gid),
    Fire(Arc<dyn TimerTarget>),
}

struct TimerEntry {
    deadline: u64,
    seq: u64,
    id: RId,
    action: TimerAction,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        (self.deadline, self.seq) == (other.deadline, other.seq)
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.deadline, self.seq).cmp(&(other.deadline, other.seq))
    }
}

/// The scheduler: all mutable run state behind one lock.
pub(crate) struct Sched {
    cfg: Config,
    slots: Vec<GSlot>,
    runq: VecDeque<Gid>,
    rng: SmallRng,
    clock: u64,
    steps: u64,
    timers: BinaryHeap<Reverse<TimerEntry>>,
    timer_seq: u64,
    next_rid: u64,
    /// The run's trace sink, shared with [`RtShared`]: internally
    /// synchronized, so the token holder appends without this lock. The
    /// scheduler publishes its virtual clock into it on every tick.
    tb: Arc<TraceBuf>,
    outcome: Option<RunOutcome>,
    /// The goroutine [`Sched::schedule_next`] granted the token, until
    /// the host's run loop (or the granted goroutine itself, when it
    /// granted itself) takes it.
    granted: Option<Gid>,
    /// The teardown started: `ProcStop` closed the trace, and the host
    /// resumes goroutines only to unwind them from now on.
    shutdown: bool,
    /// Whether the host finished the teardown, or was abandoned first.
    host: Host,
    yields_injected: u32,
    monitor: Option<Arc<dyn Monitor>>,
    /// Alive-goroutine snapshot taken at the moment the outcome was
    /// decided (before shutdown unwinding marks everything done).
    alive_snapshot: Option<Vec<AliveGoroutine>>,
    /// Forensics for the panic that decided the outcome (call site and,
    /// when enabled, a truncated backtrace); exported through
    /// [`RunResult::panic_detail`].
    panic_detail: Option<String>,
    /// Main returned; the scheduler is draining runnable goroutines
    /// before declaring the run complete.
    main_exited: bool,
    /// Every nondeterministic choice taken, for schedule-forcing replay.
    decision_log: Vec<Decision>,
    /// Cursor into the replay log when the policy is `Replay`.
    replay_cursor: usize,
    /// The replayed program diverged from its log.
    replay_diverged: bool,
    /// Per-run scheduler counters (plain increments under the run lock;
    /// exported through [`RunResult::sched`] and, when telemetry is
    /// enabled, the global registry at teardown).
    counters: SchedCounters,
    /// Wall-clock start of the run, for the watchdog.
    started: Instant,
    /// When the outcome was decided: the supervisor gives the teardown
    /// until `GOAT_TEARDOWN_TIMEOUT_MS` after this before it abandons
    /// the host thread.
    decided_at: Option<Instant>,
    /// The supervisor's soft watchdog deadline passed; the next goroutine
    /// to reach the scheduler gate aborts the run cooperatively.
    timeout_requested: bool,
    /// Pluggable scheduling strategy (native / random / PCT); consulted
    /// at every pick and yield decision that is not replayed from a log.
    strategy: Box<dyn Strategy>,
}

impl Sched {
    fn new(cfg: Config, monitor: Option<Arc<dyn Monitor>>, tb: Arc<TraceBuf>) -> Self {
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        // `UniformRandom` predates the strategy layer and still forces
        // the random strategy; native and replay runs use the configured
        // one (replay only consults it after divergence). Building
        // native/random consumes no RNG draws, preserving byte-identity
        // with the pre-strategy scheduler.
        let kind = match cfg.policy {
            SchedPolicy::UniformRandom => StrategyKind::Random,
            _ => cfg.strategy,
        };
        let strategy = kind.build(&mut rng);
        Sched {
            cfg,
            slots: Vec::new(),
            runq: VecDeque::new(),
            rng,
            clock: 0,
            steps: 0,
            timers: BinaryHeap::new(),
            timer_seq: 0,
            next_rid: 0,
            tb,
            outcome: None,
            granted: None,
            shutdown: false,
            host: Host::Running,
            yields_injected: 0,
            monitor,
            alive_snapshot: None,
            panic_detail: None,
            main_exited: false,
            decision_log: Vec::new(),
            replay_cursor: 0,
            replay_diverged: false,
            counters: SchedCounters::default(),
            started: Instant::now(),
            decided_at: None,
            timeout_requested: false,
            strategy,
        }
    }

    fn slot(&self, g: Gid) -> &GSlot {
        &self.slots[(g.0 - 1) as usize]
    }

    fn slot_mut(&mut self, g: Gid) -> &mut GSlot {
        &mut self.slots[(g.0 - 1) as usize]
    }

    /// Append an ECT event from scheduler context (timer fires,
    /// bootstrap, wakes). Gate functions holding the token append
    /// through [`RtShared::tb`] directly, without this lock.
    pub(crate) fn emit(&mut self, g: Gid, kind: EventKind, cu: Option<Cu>) {
        self.tb.push(g, kind, cu);
    }

    /// Allocate a fresh traced-resource id.
    pub(crate) fn alloc_rid(&mut self) -> RId {
        self.next_rid += 1;
        RId(self.next_rid)
    }

    /// Select-case choice: replayed from the log when the policy is
    /// `Replay`, pseudo-random otherwise; always recorded.
    pub(crate) fn choose(&mut self, n: usize) -> usize {
        assert!(n > 0);
        let replayed = if let SchedPolicy::Replay(log) = &self.cfg.policy {
            if !self.replay_diverged {
                match log.decisions.get(self.replay_cursor) {
                    Some(Decision::SelectChoice(i)) if *i < n => {
                        self.replay_cursor += 1;
                        Some(*i)
                    }
                    _ => {
                        self.replay_diverged = true;
                        None
                    }
                }
            } else {
                None
            }
        } else {
            None
        };
        let i = replayed.unwrap_or_else(|| self.rng.gen_range(0..n));
        self.counters.select_choices += 1;
        self.decision_log.push(Decision::SelectChoice(i));
        i
    }

    /// Yield-handler decision in front of the CU goroutine `g` is about
    /// to execute: replayed or delegated to the strategy (delay budget /
    /// native preemption noise / PCT change points); always recorded.
    pub(crate) fn decide_yield(&mut self, g: Gid) -> bool {
        let replayed = if let SchedPolicy::Replay(log) = &self.cfg.policy {
            if !self.replay_diverged {
                match log.decisions.get(self.replay_cursor) {
                    Some(Decision::YieldAt(b)) => {
                        self.replay_cursor += 1;
                        Some(*b)
                    }
                    _ => {
                        self.replay_diverged = true;
                        None
                    }
                }
            } else {
                None
            }
        } else {
            None
        };
        let yield_now = match replayed {
            Some(b) => b,
            None => {
                let ctx = YieldCtx {
                    delay_bound: self.cfg.delay_bound,
                    yields_injected: self.yields_injected,
                    yield_prob: self.cfg.yield_prob,
                    native_preempt_prob: self.cfg.native_preempt_prob,
                    runq_nonempty: !self.runq.is_empty(),
                };
                match self.strategy.decide_yield(g, &ctx, &mut self.rng) {
                    YieldChoice::Inject => {
                        self.yields_injected += 1;
                        true
                    }
                    YieldChoice::Preempt => true,
                    YieldChoice::Run => false,
                }
            }
        };
        self.decision_log.push(Decision::YieldAt(yield_now));
        yield_now
    }

    /// Borrow the attached monitor (no `Arc` refcount bump — callers on
    /// the scheduling hot path invoke it many times per step).
    pub(crate) fn monitor(&self) -> Option<&Arc<dyn Monitor>> {
        self.monitor.as_ref()
    }

    /// Create a goroutine slot in `Runnable` state and enqueue it.
    fn new_goroutine(&mut self, name: Istr, internal: bool, body: Job) -> Gid {
        let gid = Gid(self.slots.len() as u64 + 1);
        self.slots.push(GSlot {
            gid,
            name,
            internal,
            state: GState::Runnable,
            coro: Coro::Unstarted(body),
        });
        self.runq.push_back(gid);
        // Strategy hook: PCT draws the goroutine's initial priority
        // here; native/random consume no RNG draws.
        self.strategy.on_spawn(gid, &mut self.rng);
        gid
    }

    /// Make a blocked goroutine runnable; `by` is the waker (whose op CU
    /// is attached to the `GoUnblock` event for coverage attribution).
    pub(crate) fn wake(&mut self, g: Gid, by: Gid, cu: Option<Cu>) {
        let slot = self.slot_mut(g);
        debug_assert!(matches!(slot.state, GState::Blocked(_)), "waking non-blocked goroutine {g}");
        slot.state = GState::Runnable;
        self.runq.push_back(g);
        self.counters.unblocks += 1;
        self.emit(by, EventKind::GoUnblock { g }, cu);
    }

    /// Register a timer; fires when the virtual clock reaches `deadline`.
    pub(crate) fn add_timer_wake(&mut self, after_ns: u64, g: Gid) -> RId {
        let id = self.alloc_rid();
        self.timer_seq += 1;
        self.timers.push(Reverse(TimerEntry {
            deadline: self.clock + after_ns,
            seq: self.timer_seq,
            id,
            action: TimerAction::Wake(g),
        }));
        id
    }

    /// Register a timer that fires an arbitrary target (e.g. an `after`
    /// channel delivery).
    pub(crate) fn add_timer_fire(&mut self, after_ns: u64, target: Arc<dyn TimerTarget>) -> RId {
        let id = self.alloc_rid();
        self.timer_seq += 1;
        self.timers.push(Reverse(TimerEntry {
            deadline: self.clock + after_ns,
            seq: self.timer_seq,
            id,
            action: TimerAction::Fire(target),
        }));
        id
    }

    fn fire_due_timers(&mut self) {
        loop {
            match self.timers.peek() {
                Some(Reverse(t)) if t.deadline <= self.clock => {}
                _ => return,
            }
            let Reverse(t) = self.timers.pop().expect("peeked");
            self.counters.timer_fires += 1;
            self.emit(Gid::RUNTIME, EventKind::TimerFire { timer: t.id }, None);
            match t.action {
                TimerAction::Wake(g) => {
                    // The goroutine may have been torn down already.
                    if matches!(self.slot(g).state, GState::Blocked(_)) {
                        self.wake(g, Gid::RUNTIME, None);
                    }
                }
                TimerAction::Fire(target) => target.fire(self),
            }
        }
    }

    /// One scheduler step: advance time, fire timers, enforce the
    /// watchdog. Returns false when the step limit aborts the run.
    pub(crate) fn tick(&mut self) -> bool {
        self.steps += 1;
        self.clock += self.cfg.time_step_ns;
        self.tb.set_clock(self.clock);
        if let Some(m) = &self.monitor {
            m.on_step(self.steps, self.clock);
        }
        // Synthetic GC cadence: the Go tracer interleaves GC events with
        // application events; emit a cycle every few thousand steps so
        // traces carry the GC/Mem category with realistic placement.
        if self.steps.is_multiple_of(4096) {
            self.emit(Gid::RUNTIME, EventKind::GcStart, None);
            self.emit(Gid::RUNTIME, EventKind::HeapAlloc { bytes: self.steps * 64 }, None);
            self.emit(Gid::RUNTIME, EventKind::GcDone, None);
        }
        self.fire_due_timers();
        if self.timeout_requested && self.outcome.is_none() {
            // Cooperative watchdog abort: the supervisor's soft deadline
            // passed and this goroutine reached the scheduler gate, so
            // the run can be unwound cleanly (host thread reclaimed).
            let elapsed_ms = self.started.elapsed().as_millis() as u64;
            if let Some(m) = &self.monitor {
                m.on_timeout(TimeoutPhase::Cooperative, elapsed_ms);
            }
            self.set_outcome(RunOutcome::TimedOut { phase: TimeoutPhase::Cooperative, elapsed_ms });
            return false;
        }
        if self.steps > self.cfg.max_steps && self.outcome.is_none() {
            self.set_outcome(RunOutcome::StepLimit);
            return false;
        }
        true
    }

    /// Run-queue pop according to the scheduling policy; every pick is
    /// recorded for schedule-forcing replay.
    fn pick_next(&mut self) -> Option<Gid> {
        if self.runq.is_empty() {
            return None;
        }
        let replayed: Option<usize> = if let SchedPolicy::Replay(log) = &self.cfg.policy {
            if !self.replay_diverged {
                match log.decisions.get(self.replay_cursor) {
                    Some(Decision::Pick(g)) => match self.runq.iter().position(|x| x == g) {
                        Some(idx) => {
                            self.replay_cursor += 1;
                            Some(idx)
                        }
                        None => {
                            self.replay_diverged = true;
                            None
                        }
                    },
                    _ => {
                        self.replay_diverged = true;
                        None
                    }
                }
            } else {
                None
            }
        } else {
            None
        };
        let (idx, random) = match replayed {
            Some(i) => (i, false),
            None => self.strategy.pick(&self.runq, self.cfg.native_preempt_prob, &mut self.rng),
        };
        let g = self.runq.remove(idx);
        if let Some(g) = g {
            self.counters.picks += 1;
            if random {
                self.counters.random_picks += 1;
            }
            self.decision_log.push(Decision::Pick(g));
        }
        g
    }

    /// Hand the token to the next runnable goroutine, fast-forwarding
    /// virtual time over idle periods; declares global deadlock when
    /// nothing can ever run again.
    pub(crate) fn schedule_next(&mut self) {
        // Safety bound: with self-re-arming timers (tickers) and nothing
        // runnable, the fast-forward loop could spin forever; treat that
        // as a hang, like Go's runtime (which never declares deadlock
        // while timers are pending).
        let mut idle_iterations: u64 = 0;
        loop {
            if self.shutdown || self.outcome.is_some() {
                return;
            }
            idle_iterations += 1;
            if idle_iterations > 100_000 {
                self.set_outcome(RunOutcome::StepLimit);
                return;
            }
            self.fire_due_timers();
            if let Some(g) = self.pick_next() {
                self.slot_mut(g).state = GState::Running;
                debug_assert!(self.granted.is_none(), "token granted twice");
                self.granted = Some(g);
                return;
            }
            if self.main_exited {
                // Main returned and every still-runnable goroutine got a
                // grace drain: the program is over. Whatever is blocked
                // now is what goleak's end-of-main check would see.
                let alive: Vec<AliveGoroutine> =
                    self.alive_app().into_iter().filter(|a| !a.internal).collect();
                if let Some(m) = &self.monitor {
                    m.on_main_end(&alive);
                }
                self.set_outcome(RunOutcome::Completed);
                return;
            }
            if let Some(Reverse(t)) = self.timers.peek() {
                self.clock = t.deadline;
                self.tb.set_clock(self.clock);
                continue;
            }
            // Nothing runnable, no timers: the built-in detector's
            // "all goroutines are asleep" condition.
            let blocked: Vec<Gid> = self
                .slots
                .iter()
                .filter(|s| matches!(s.state, GState::Blocked(_)))
                .map(|s| s.gid)
                .collect();
            self.set_outcome(RunOutcome::GlobalDeadlock { blocked });
            return;
        }
    }

    /// Record the outcome (first writer wins) and snapshot which
    /// goroutines were still alive at that moment.
    pub(crate) fn set_outcome(&mut self, outcome: RunOutcome) {
        if self.outcome.is_none() {
            self.outcome = Some(outcome);
            self.alive_snapshot = Some(self.alive_app());
            self.decided_at = Some(Instant::now());
        }
    }

    /// Start the teardown: later resumes unwind, and the trace closes
    /// with `ProcStop`. Called by the host once the outcome is decided,
    /// and by the supervisor when it decides the outcome itself; only the
    /// first call acts.
    fn begin_shutdown(&mut self) {
        if !self.shutdown {
            self.shutdown = true;
            self.emit(Gid::RUNTIME, EventKind::ProcStop, None);
        }
    }

    /// Take every goroutine that has not finished out of its slot,
    /// leaving it `Finished`; the caller unwinds or drops what it took.
    fn take_unfinished(&mut self) -> Vec<(Gid, Coro)> {
        self.slots
            .iter_mut()
            .filter(|slot| matches!(slot.coro, Coro::Unstarted(_) | Coro::Suspended(_)))
            .map(|slot| (slot.gid, std::mem::replace(&mut slot.coro, Coro::Finished)))
            .collect()
    }

    /// Application goroutines that have not finished.
    fn alive_app(&self) -> Vec<AliveGoroutine> {
        self.slots
            .iter()
            .filter(|s| s.state != GState::Done && s.gid != Gid::MAIN)
            .map(|s| AliveGoroutine {
                g: s.gid,
                name: s.name.to_string(),
                state: match &s.state {
                    GState::Runnable => "runnable".to_string(),
                    GState::Running => "running".to_string(),
                    GState::Blocked(r) => format!("blocked: {r}"),
                    GState::Done => unreachable!(),
                },
                internal: s.internal,
            })
            .collect()
    }
}

// ---------------------------------------------------------------------
// Shared runtime handle + thread-local context
// ---------------------------------------------------------------------

/// Shared state of one runtime instance.
pub(crate) struct RtShared {
    pub(crate) state: Mutex<Sched>,
    /// The run's trace sink. Internally synchronized and append-only;
    /// the token holder pushes its own events here **without** taking
    /// [`RtShared::state`]. Total order is preserved because exactly one
    /// goroutine holds the run token, and within any `Sched` critical
    /// section every emission happens before the token grant.
    pub(crate) tb: Arc<TraceBuf>,
    /// The attached monitor, reachable without the scheduler lock so
    /// gate functions can consult it on lock-free paths.
    pub(crate) monitor: Option<Arc<dyn Monitor>>,
    /// Wakes a hosted run's driver when its host is done or abandoned.
    done_cv: Condvar,
    /// Whether the run is hosted on the shared worker pool and its
    /// goroutine stacks are reused (snapshot of [`Config::pool`]).
    pub(crate) pooled: bool,
}

/// The running goroutine's context on its host thread.
#[derive(Clone)]
pub(crate) struct Ctx {
    pub rt: Arc<RtShared>,
    pub gid: Gid,
}

thread_local! {
    /// Set by the host's run loop for the goroutine it resumes.
    static CURRENT: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

/// The current goroutine context.
///
/// # Panics
/// Panics when called outside a goroutine (primitives may only be used
/// inside [`Runtime::run`]).
pub(crate) fn current() -> Ctx {
    CURRENT.with(|c| {
        c.borrow().clone().expect(
            "GoAT runtime primitive used outside a goroutine; wrap the code in Runtime::run",
        )
    })
}

/// The id of the current goroutine.
pub fn gid() -> Gid {
    current().gid
}

// ---------------------------------------------------------------------
// Blocking / yielding entry points used by the primitives
// ---------------------------------------------------------------------

/// Block the current goroutine for `reason`; returns when rescheduled.
/// `holder` attributes lock contention (Req3 *blocking*) to the holder's
/// acquisition site.
pub(crate) fn block_current(
    ctx: &Ctx,
    reason: BlockReason,
    holder: Option<(Gid, Option<Cu>)>,
    cu: Option<Cu>,
) {
    // Out-of-lock append: this goroutine still holds the run token, so
    // nothing else can emit until `schedule_next` grants it away below.
    let (holder_g, holder_cu) = match holder {
        Some((g, c)) => (Some(g), c),
        None => (None, None),
    };
    ctx.rt.tb.push(ctx.gid, EventKind::GoBlock { reason, holder_cu, holder: holder_g }, cu);
    let mut s = ctx.rt.state.lock();
    s.slot_mut(ctx.gid).state = GState::Blocked(reason);
    s.counters.blocks += 1;
    if !s.tick() {
        s.set_outcome(RunOutcome::StepLimit);
    }
    s.schedule_next();
    hand_off(ctx, s);
}

/// Yield the processor: requeue at the back of the run queue.
/// `preempt` distinguishes injected perturbation yields (`GoPreempt`)
/// from program-requested `gosched()` yields.
pub(crate) fn yield_current(ctx: &Ctx, preempt: bool, cu: Option<Cu>) {
    let kind =
        if preempt { EventKind::GoPreempt } else { EventKind::GoSched { trace_stop: false } };
    // Out-of-lock append: see `block_current`.
    ctx.rt.tb.push(ctx.gid, kind, cu);
    let mut s = ctx.rt.state.lock();
    s.slot_mut(ctx.gid).state = GState::Runnable;
    s.runq.push_back(ctx.gid);
    if preempt {
        s.counters.yields_preempt += 1;
    } else {
        s.counters.yields_gosched += 1;
    }
    if !s.tick() {
        s.set_outcome(RunOutcome::StepLimit);
    }
    s.schedule_next();
    hand_off(ctx, s);
}

/// Give up the token after `schedule_next` decided: drop the scheduler
/// lock and switch back to the host's run loop until this goroutine is
/// granted the token again. A goroutine that was granted the token
/// straight back keeps running without a switch. Unwinds with
/// [`ShutdownSignal`] when the host resumes it to tear the run down.
fn hand_off(ctx: &Ctx, mut s: parking_lot::MutexGuard<'_, Sched>) {
    if s.granted == Some(ctx.gid) {
        s.granted = None;
        return;
    }
    drop(s);
    if coro::suspend() == Resume::Shutdown {
        shutdown_unwind();
    }
}

/// Common entry of every traced primitive: accounts a step, enforces the
/// watchdog and runs the injected yield handler (`goat.handler()` of
/// §III-B.2) in front of the CU.
pub(crate) fn op_enter(ctx: &Ctx, _kind: CuKind, cu: &Cu) {
    let do_yield = {
        let mut s = ctx.rt.state.lock();
        if !s.tick() {
            s.set_outcome(RunOutcome::StepLimit);
            drop(s);
            shutdown_unwind();
        }
        s.decide_yield(ctx.gid)
    };
    if do_yield {
        yield_current(ctx, true, Some(*cu));
    }
}

/// Build a CU for a caller location.
pub(crate) fn cu_here(kind: CuKind, loc: &std::panic::Location<'_>) -> Cu {
    Cu::new(loc.file(), loc.line(), kind)
}

// ---------------------------------------------------------------------
// Spawning
// ---------------------------------------------------------------------

/// Decode a caught panic payload into (message, forensics detail).
///
/// Go-level panics carry their own call site (deterministic); genuine
/// Rust panics read the location + backtrace the hook left in the
/// thread-local on this same thread.
fn panic_forensics(payload: Box<dyn std::any::Any + Send>) -> (String, Option<String>) {
    if let Some(gp) = payload.downcast_ref::<GoPanic>() {
        let detail = format!("go panic at {}:{}", gp.site.file(), gp.site.line());
        (gp.msg.clone(), Some(detail))
    } else {
        let msg = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "panic".to_string()
        };
        let detail = LAST_PANIC_DETAIL.with(|d| d.borrow_mut().take());
        (msg, detail)
    }
}

/// The body of every goroutine's coroutine. It starts holding the run
/// token (the host resumes a coroutine only once it is granted), and its
/// exit decides who runs next.
fn goroutine_main(rt: Arc<RtShared>, gid: Gid, body: Job) {
    // The granter emitted its last event before the grant, so this
    // lock-free append lands in total order.
    rt.tb.push(gid, EventKind::GoStart, None);
    match panic::catch_unwind(AssertUnwindSafe(body)) {
        Ok(()) => {
            if gid == Gid::MAIN {
                // Successful main exit: the trace-stopping yield of
                // §III-E.1, then a grace drain of runnable goroutines
                // (schedule_next declares completion and runs the
                // goleak observation point once the queue is empty).
                rt.tb.push(gid, EventKind::GoSched { trace_stop: true }, None);
                let mut s = rt.state.lock();
                s.slot_mut(gid).state = GState::Done;
                s.main_exited = true;
                s.schedule_next();
            } else {
                rt.tb.push(gid, EventKind::GoEnd, None);
                let mut s = rt.state.lock();
                s.slot_mut(gid).state = GState::Done;
                if !s.tick() {
                    s.set_outcome(RunOutcome::StepLimit);
                }
                s.schedule_next();
            }
        }
        Err(payload) => {
            if payload.is::<ShutdownSignal>() {
                rt.state.lock().slot_mut(gid).state = GState::Done;
            } else {
                let (msg, detail) = panic_forensics(payload);
                rt.tb.push(gid, EventKind::GoStop, None);
                let mut s = rt.state.lock();
                s.slot_mut(gid).state = GState::Done;
                if s.outcome.is_none() {
                    s.panic_detail = detail;
                }
                s.set_outcome(RunOutcome::Panicked { g: gid, msg });
            }
        }
    }
}

/// One whole run on its host thread: resume whichever goroutine the
/// scheduler granted the token until the outcome is decided, then unwind
/// every goroutine that has not finished and drop the bodies of those
/// that never ran. A run host calls this inline; any other caller of
/// [`Runtime::run`] hands it to a host thread and waits on `done_cv`.
fn host_run(rt: Arc<RtShared>) {
    CURRENT.with(|c| *c.borrow_mut() = Some(Ctx { rt: Arc::clone(&rt), gid: Gid::MAIN }));
    let set_gid = |g: Gid| {
        CURRENT.with(|c| {
            if let Some(ctx) = c.borrow_mut().as_mut() {
                ctx.gid = g;
            }
        })
    };
    let mut s = rt.state.lock();
    s.schedule_next();
    while s.outcome.is_none() {
        let g = s.granted.take().expect("schedule_next grants the token or decides the outcome");
        let mut co = match std::mem::replace(&mut s.slot_mut(g).coro, Coro::Running) {
            Coro::Suspended(co) => co,
            Coro::Unstarted(body) => {
                let rt2 = Arc::clone(&rt);
                match Coroutine::new(Box::new(move || goroutine_main(rt2, g, body)), rt.pooled) {
                    Ok(co) => co,
                    Err(e) => {
                        let reason = format!("failed to map a goroutine stack: {e}");
                        s.set_outcome(RunOutcome::InfraFailure { reason });
                        break;
                    }
                }
            }
            Coro::Running | Coro::Finished => unreachable!("{g} granted while not runnable"),
        };
        drop(s);
        set_gid(g);
        // SAFETY: every coroutine of this run is created and resumed on
        // this host thread.
        unsafe { co.resume(Resume::Run) };
        s = rt.state.lock();
        s.slot_mut(g).coro = if co.is_done() { Coro::Finished } else { Coro::Suspended(co) };
    }
    s.begin_shutdown();
    let unfinished = s.take_unfinished();
    drop(s);
    // Unwind in gid order; a goroutine that swallows the unwind and
    // blocks again is resumed again. Bodies that never ran are dropped
    // here too, outside the lock.
    for (g, coro) in unfinished {
        if let Coro::Suspended(mut co) = coro {
            set_gid(g);
            while !co.is_done() {
                // SAFETY: as above, created on this host thread.
                unsafe { co.resume(Resume::Shutdown) };
            }
        }
    }
    // Goroutines spawned while unwinding never run.
    drop(rt.state.lock().take_unfinished());
    CURRENT.with(|c| *c.borrow_mut() = None);
    rt.state.lock().host_finished();
    rt.done_cv.notify_all();
}

/// Spawn a goroutine executing `f` (Go's `go` statement).
///
/// Must be called from inside a goroutine. The creation site becomes the
/// child's creation CU in the trace and the goroutine tree.
#[track_caller]
pub fn go<F: FnOnce() + Send + 'static>(f: F) -> Gid {
    go_impl("anonymous", false, Box::new(f), std::panic::Location::caller())
}

/// Spawn a named goroutine (names appear in reports and trees).
#[track_caller]
pub fn go_named<F: FnOnce() + Send + 'static>(name: &str, f: F) -> Gid {
    go_impl(name, false, Box::new(f), std::panic::Location::caller())
}

/// Spawn a runtime-internal goroutine, excluded from application-level
/// analysis (the paper's watchdog/tracer goroutines).
#[track_caller]
pub fn go_internal<F: FnOnce() + Send + 'static>(name: &str, f: F) -> Gid {
    go_impl(name, true, Box::new(f), std::panic::Location::caller())
}

fn go_impl(
    name: &str,
    internal: bool,
    body: Box<dyn FnOnce() + Send + 'static>,
    loc: &std::panic::Location<'_>,
) -> Gid {
    let cu = cu_here(CuKind::Go, loc);
    let ctx = current();
    if !internal {
        // GoAT's own helper goroutines are not perturbation targets.
        op_enter(&ctx, CuKind::Go, &cu);
    }
    let name = Istr::new(name);
    let gid = ctx.rt.state.lock().new_goroutine(name, internal, body);
    // The child is runnable but cannot be granted the token until this
    // goroutine reaches a scheduler gate, so the creation event lands
    // before any child event.
    ctx.rt.tb.push(ctx.gid, EventKind::GoCreate { new_g: gid, name, internal }, Some(cu));
    gid
}

/// Yield the processor (Go's `runtime.Gosched()`).
#[track_caller]
pub fn gosched() {
    let ctx = current();
    yield_current(&ctx, false, None);
}

// ---------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------

/// The body a seed-keyed `iter` fault substitutes for the program's
/// main, exercising each watchdog escalation path deterministically.
/// `tests/snapshots/etcd6708_s11_crash.json` records the `iter:panic`
/// call site's line: moving it means re-blessing that golden.
fn iter_fault_body(seed: u64) -> Option<Job> {
    let body: Job = match faultpoint::seed_fault("iter", seed)? {
        // Stall outside every runtime primitive: no scheduler gate is
        // ever reached, so only the hard watchdog deadline (and the
        // teardown abandonment path) can reclaim this run.
        SeedFault::Wedge => Box::new(|| std::thread::sleep(Duration::from_secs(3600))),
        // Yield forever: every gosched passes the scheduler gate, so
        // the soft deadline aborts cooperatively (or the step limit
        // fires first when no watchdog is configured).
        SeedFault::Spin => Box::new(|| loop {
            gosched();
        }),
        SeedFault::Panic => Box::new(|| gopanic("injected fault: iter:panic")),
    };
    Some(body)
}

/// The GoAT runtime: executes a program under a configuration and
/// returns its outcome, trace and statistics.
#[derive(Debug, Clone, Copy)]
pub struct Runtime;

impl Runtime {
    /// Run `f` as the main goroutine.
    ///
    /// ```
    /// use goat_runtime::{Runtime, Config, go, Chan};
    /// let result = Runtime::run(Config::new(1), || {
    ///     let ch = Chan::new(0);
    ///     go(move || ch.send(41));
    ///     // `ch` was moved into the goroutine; in real programs clone
    ///     // the handle first (see Chan docs).
    /// });
    /// assert!(result.outcome.is_completed());
    /// ```
    pub fn run<F: FnOnce() + Send + 'static>(cfg: Config, f: F) -> RunResult {
        Self::run_monitored(cfg, None, f)
    }

    /// Run `f` with a [`Monitor`] observing primitive operations (how the
    /// baseline detectors of §IV-A attach).
    ///
    /// On a run host between runs ([`crate::pool::spawn_host`]) with the
    /// pool on, the run executes inline on the calling thread. Any other
    /// caller — a plain thread, a goroutine of another run, or a
    /// `Config::pool = false` run — hands the run to a host thread and
    /// sleeps until it is torn down. Either way the process's supervisor
    /// owns the run's wall-clock deadlines.
    pub fn run_monitored<F: FnOnce() + Send + 'static>(
        cfg: Config,
        monitor: Option<Arc<dyn Monitor>>,
        f: F,
    ) -> RunResult {
        install_panic_hook();
        let pooled = cfg.pool;
        let seed = cfg.seed;
        let iter_timeout_ms = cfg.iter_timeout_ms;
        let tb = Arc::new(TraceBuf::new(cfg.trace, cfg.max_trace_events));
        let rt = Arc::new(RtShared {
            state: Mutex::new(Sched::new(cfg, monitor.clone(), Arc::clone(&tb))),
            tb,
            monitor,
            done_cv: Condvar::new(),
            pooled,
        });

        let body = iter_fault_body(seed).unwrap_or_else(|| Box::new(f));
        // Bootstrap: create the main goroutine; the host grants it the
        // token first thing.
        let started = {
            let mut s = rt.state.lock();
            s.emit(Gid::RUNTIME, EventKind::Gomaxprocs { n: 1 }, None);
            s.emit(Gid::RUNTIME, EventKind::ProcStart, None);
            let gid = s.new_goroutine(Istr::new("main"), false, body);
            debug_assert_eq!(gid, Gid::MAIN);
            s.started
        };
        let inline = if pooled && CURRENT.with(|c| c.borrow().is_none()) {
            crate::pool::host_hook()
        } else {
            None
        };
        match inline {
            Some(on_abandon) => {
                // The `pool_checkout` faultpoint refuses a host on both
                // paths, so injected infra failures mean the same thing
                // wherever a run executes.
                if let Some(reason) = faultpoint::should_fail("pool_checkout") {
                    refuse(&rt, reason);
                    return collect(&rt);
                }
                crate::pool::note_inline_run();
                let watch =
                    crate::supervise::watch(&rt, started, iter_timeout_ms, Some(on_abandon));
                host_run(Arc::clone(&rt));
                // A host the supervisor abandoned meanwhile waits until
                // the run's result was handed over, then leaves.
                let mut s = rt.state.lock();
                while s.host == Host::Abandoning {
                    rt.done_cv.wait(&mut s);
                }
                if s.host == Host::Abandoned {
                    drop(s);
                    panic::resume_unwind(Box::new(Abandoned));
                }
                drop(s);
                crate::supervise::unwatch(watch);
            }
            None => {
                let host_rt = Arc::clone(&rt);
                // A hosted worker that wakes after being abandoned just
                // returns to the pool: its driver already collected.
                let job = Box::new(move || host_run(host_rt));
                match crate::pool::host(job, pooled) {
                    Err(reason) => refuse(&rt, reason),
                    Ok(()) => {
                        let watch = crate::supervise::watch(&rt, started, iter_timeout_ms, None);
                        let mut s = rt.state.lock();
                        while s.host == Host::Running {
                            rt.done_cv.wait(&mut s);
                        }
                        drop(s);
                        crate::supervise::unwatch(watch);
                    }
                }
            }
        }
        collect(&rt)
    }
}

/// Who ended a run's hosting.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Host {
    /// The host thread is still driving the run or its teardown.
    Running,
    /// The host thread finished the teardown (every goroutine unwound).
    Done,
    /// The supervisor wrote the host thread off at the teardown deadline
    /// and is finishing the run without it.
    Abandoning,
    /// The supervisor finished the run without its host: whatever the
    /// host does after waking is never delivered.
    Abandoned,
}

impl Sched {
    /// The host finished the teardown, unless it was abandoned first.
    fn host_finished(&mut self) {
        if self.host == Host::Running {
            self.host = Host::Done;
        }
    }
}

/// What the supervisor found when one of a run's deadlines fell due.
pub(crate) enum Due {
    /// The host finished the teardown: nothing left to watch.
    Finished,
    /// Look again at this instant.
    Again(Instant),
    /// The teardown deadline passed with the host still busy: the host
    /// thread is written off, and the supervisor finishes the run.
    Abandoned,
}

impl RtShared {
    /// The supervisor's view of one due deadline of this run. Before an
    /// outcome is decided the watchdog (`soft`, `hard`) escalates twice:
    /// at the soft deadline it requests a cooperative abort through the
    /// scheduler gate, and at the hard deadline it decides the run
    /// itself — the only way out when every goroutine is stuck outside
    /// runtime primitives. Once the outcome is decided the teardown has
    /// `teardown`; a goroutine wedged outside runtime primitives holds
    /// the host thread forever, so at that deadline the host is
    /// abandoned.
    pub(crate) fn on_deadline(
        &self,
        now: Instant,
        watchdog: Option<(Instant, Instant)>,
        teardown: Duration,
    ) -> Due {
        let mut s = self.state.lock();
        if s.host != Host::Running {
            return Due::Finished;
        }
        if let Some(decided) = s.decided_at {
            if now < decided + teardown {
                return Due::Again(decided + teardown);
            }
            // Written off before anyone can see the flag, so a woken
            // driver already finds the replacement accounted.
            if self.pooled {
                crate::pool::note_abandoned();
            }
            s.host = Host::Abandoning;
            drop(s);
            self.done_cv.notify_all();
            return Due::Abandoned;
        }
        match watchdog {
            Some((_, hard)) if now >= hard => {
                let elapsed_ms = s.started.elapsed().as_millis() as u64;
                if let Some(m) = s.monitor() {
                    m.on_timeout(TimeoutPhase::Wedged, elapsed_ms);
                }
                s.set_outcome(RunOutcome::TimedOut { phase: TimeoutPhase::Wedged, elapsed_ms });
                s.begin_shutdown();
                Due::Again(now + teardown)
            }
            Some((soft, hard)) if now >= soft => {
                s.timeout_requested = true;
                Due::Again(hard)
            }
            Some((soft, _)) => Due::Again(soft),
            // No watchdog: look now and then, in case the outcome is
            // decided and the teardown then wedges.
            None => Due::Again(now + teardown),
        }
    }

    /// The supervisor finished an abandoned run without its host: a host
    /// that wakes now leaves without delivering anything.
    pub(crate) fn abandoned(&self) {
        self.state.lock().host = Host::Abandoned;
        self.done_cv.notify_all();
    }
}

/// Panic payload that unwinds an abandoned run host out of the
/// [`Runtime::run`] it was abandoned in: the supervisor already
/// delivered that run's result, so its caller must never see it.
struct Abandoned;

/// Collect a run's result. Closing the trace buffer drops any straggler
/// append from an abandoned host; the collected event vector moves into
/// the ECT wholesale (no per-event re-push) and the campaign merge loop
/// recycles it.
pub(crate) fn collect(rt: &RtShared) -> RunResult {
    let (trace, fingerprint) = rt.tb.take();
    let mut s = rt.state.lock();
    let outcome = s.outcome.clone().expect("outcome set before teardown");
    let ect = trace.map(Ect::from_events);
    let alive_at_end: Vec<AliveGoroutine> =
        s.alive_snapshot.take().unwrap_or_default().into_iter().filter(|a| !a.internal).collect();
    let schedule = ReplayLog { decisions: std::mem::take(&mut s.decision_log) };
    let panic_detail = s.panic_detail.take();
    let result = RunResult {
        outcome,
        panic_detail,
        ect,
        fingerprint,
        steps: s.steps,
        vclock: VTime(s.clock),
        goroutines: s.slots.iter().filter(|g| !g.internal).count() as u64,
        yields_injected: s.yields_injected,
        priority_changes: s.strategy.priority_changes(),
        alive_at_end,
        schedule,
        replay_diverged: s.replay_diverged,
        sched: s.counters,
    };
    let seed = s.cfg.seed;
    drop(s);
    if goat_metrics::enabled() {
        report_run_telemetry(seed, &result);
    }
    result
}

/// The harness — not the program under test — could not host the run:
/// surface that as an infra-failure outcome so the campaign layer can
/// retry it.
fn refuse(rt: &RtShared, reason: String) {
    let mut s = rt.state.lock();
    s.set_outcome(RunOutcome::InfraFailure { reason });
    s.begin_shutdown();
    s.host = Host::Done;
    let unrun = s.take_unfinished();
    drop(s);
    drop(unrun);
}

/// Per-run scheduler summary exported to the JSONL telemetry stream.
#[derive(serde::Serialize)]
struct SchedulerEvent {
    kind: &'static str,
    seed: u64,
    outcome: String,
    steps: u64,
    vclock_ns: u64,
    goroutines: u64,
    yields_injected: u32,
    picks: u64,
    random_picks: u64,
    blocks: u64,
    unblocks: u64,
    yields_preempt: u64,
    yields_gosched: u64,
    timer_fires: u64,
    select_choices: u64,
}

/// Per-run worker-pool snapshot exported to the JSONL telemetry stream.
#[derive(serde::Serialize)]
struct PoolEvent {
    kind: &'static str,
    threads_spawned: u64,
    jobs_reused: u64,
    idle_now: usize,
    workers_retired: u64,
    abandoned: u64,
    workers_replaced: u64,
}

/// Report one finished run into the global registry and the JSONL sink.
/// Off the hot path: called once per run teardown, and only when
/// [`goat_metrics::enabled`].
#[cold]
fn report_run_telemetry(seed: u64, r: &RunResult) {
    let label = goat_metrics::context();
    let reg = goat_metrics::global();
    reg.counter_with("runtime.runs", label.as_deref()).inc();
    reg.counter_with("sched.picks", label.as_deref()).add(r.sched.picks);
    reg.counter_with("sched.random_picks", label.as_deref()).add(r.sched.random_picks);
    reg.counter_with("sched.blocks", label.as_deref()).add(r.sched.blocks);
    reg.counter_with("sched.unblocks", label.as_deref()).add(r.sched.unblocks);
    reg.counter_with("sched.yields_injected", label.as_deref()).add(r.yields_injected as u64);
    match &r.outcome {
        RunOutcome::TimedOut { .. } => {
            reg.counter_with("supervision.timeouts", label.as_deref()).inc()
        }
        RunOutcome::InfraFailure { .. } => {
            reg.counter_with("supervision.infra_failures", label.as_deref()).inc()
        }
        _ => {}
    }
    reg.histogram("run.steps").record(r.steps);
    goat_metrics::emit(&SchedulerEvent {
        kind: "scheduler",
        seed,
        outcome: r.outcome.to_string(),
        steps: r.steps,
        vclock_ns: r.vclock.0,
        goroutines: r.goroutines,
        yields_injected: r.yields_injected,
        picks: r.sched.picks,
        random_picks: r.sched.random_picks,
        blocks: r.sched.blocks,
        unblocks: r.sched.unblocks,
        yields_preempt: r.sched.yields_preempt,
        yields_gosched: r.sched.yields_gosched,
        timer_fires: r.sched.timer_fires,
        select_choices: r.sched.select_choices,
    });
    let p = crate::pool::stats();
    goat_metrics::emit(&PoolEvent {
        kind: "pool",
        threads_spawned: p.threads_spawned,
        jobs_reused: p.jobs_reused,
        idle_now: p.idle_now,
        workers_retired: p.workers_retired,
        abandoned: p.abandoned,
        workers_replaced: p.workers_replaced,
    });
    goat_metrics::flush();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_main_completes() {
        let r = Runtime::run(Config::new(0), || {});
        assert!(r.outcome.is_completed());
        assert!(r.clean());
        assert_eq!(r.goroutines, 1);
        let ect = r.ect.expect("traced");
        assert!(ect.well_formed().is_ok(), "{:?}", ect.well_formed());
        // main's final event is the trace-stopping GoSched
        let last = ect.last_event_of(Gid::MAIN).expect("main events");
        assert_eq!(last.kind, EventKind::GoSched { trace_stop: true });
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            Runtime::run(Config::new(seed), || {
                for _ in 0..3 {
                    gosched();
                }
            })
        };
        let (a, b) = (run(5), run(5));
        assert_eq!(a.ect.unwrap().render(), b.ect.unwrap().render());
        assert_eq!(a.steps, b.steps);
    }

    #[test]
    fn spawned_goroutine_runs_and_ends() {
        let r = Runtime::run(Config::new(1).with_native_preempt_prob(0.0), || {
            go_named("child", || {});
            // give the child a chance to run (cooperative scheduling)
            gosched();
        });
        assert!(r.outcome.is_completed());
        assert!(r.clean());
        let ect = r.ect.unwrap();
        assert!(ect.well_formed().is_ok());
        let child = ect
            .goroutines()
            .iter()
            .copied()
            .find(|g| *g != Gid::MAIN && *g != Gid::RUNTIME)
            .expect("child in trace");
        assert_eq!(ect.last_event_of(child).unwrap().kind, EventKind::GoEnd);
    }

    #[test]
    fn runnable_children_drain_after_main_exits() {
        let r = Runtime::run(Config::new(1).with_native_preempt_prob(0.0), || {
            go_named("late-finisher", || {});
            // main returns immediately; the grace drain still lets the
            // runnable child run to completion (as Go's real scheduler
            // would have, racing main's exit).
        });
        assert!(r.outcome.is_completed());
        assert!(r.clean(), "{:?}", r.alive_at_end);
    }

    #[test]
    fn blocked_child_is_reported_alive() {
        let r = Runtime::run(Config::new(1).with_native_preempt_prob(0.0), || {
            let (never_tx, never_rx) = {
                let ch = crate::chan::Chan::<u8>::new(0);
                (ch.clone(), ch)
            };
            go_named("leaker", move || {
                never_rx.recv(); // blocks forever
            });
            gosched();
            drop(never_tx);
        });
        assert!(r.outcome.is_completed());
        assert_eq!(r.alive_at_end.len(), 1);
        assert_eq!(r.alive_at_end[0].name, "leaker");
        assert!(r.alive_at_end[0].state.contains("recv"), "{:?}", r.alive_at_end);
        assert!(!r.clean());
    }

    #[test]
    fn user_panic_becomes_panicked_outcome() {
        let r = Runtime::run(Config::new(0), || {
            gopanic("boom");
        });
        match r.outcome {
            RunOutcome::Panicked { g, ref msg } => {
                assert_eq!(g, Gid::MAIN);
                assert_eq!(msg, "boom");
            }
            other => panic!("expected panic outcome, got {other:?}"),
        }
    }

    #[test]
    fn panic_in_child_crashes_program() {
        let r = Runtime::run(Config::new(1).with_native_preempt_prob(0.0), || {
            go(|| gopanic("child-crash"));
            gosched();
            gosched();
        });
        assert!(matches!(r.outcome, RunOutcome::Panicked { .. }));
    }

    #[test]
    fn step_limit_catches_infinite_yield_loop() {
        let r = Runtime::run(Config::new(0).with_max_steps(500), || loop {
            gosched();
        });
        assert_eq!(r.outcome, RunOutcome::StepLimit);
    }

    #[test]
    fn yields_injected_respect_bound() {
        for d in [0u32, 1, 2, 4] {
            // Budgeted yield injection is native-strategy behaviour.
            let cfg = Config::new(3)
                .with_delay_bound(d)
                .with_yield_prob(1.0)
                .with_strategy(StrategyKind::Native);
            let r = Runtime::run(cfg, || {
                for _ in 0..10 {
                    go(|| {});
                }
                gosched();
            });
            assert!(r.yields_injected <= d, "injected {} > bound {d}", r.yields_injected);
            if d > 0 {
                assert!(r.yields_injected > 0, "bound {d} should inject at least one yield");
            }
        }
    }

    #[test]
    fn trace_disabled_produces_no_ect() {
        let r = Runtime::run(Config::new(0).with_trace(false), || {});
        assert!(r.ect.is_none());
        assert!(r.outcome.is_completed());
    }

    #[test]
    fn replay_reproduces_the_exact_interleaving() {
        use crate::chan::Chan;
        let program = || {
            let ch: Chan<u32> = Chan::new(0);
            let tx = ch.clone();
            go_named("tx", move || tx.send(1));
            let ch2: Chan<u32> = Chan::new(0);
            let tx2 = ch2.clone();
            go_named("tx2", move || tx2.send(2));
            ch.recv();
            ch2.recv();
        };
        let original = Runtime::run(Config::new(11).with_delay_bound(2), program);
        assert!(original.clean());
        let log = original.schedule.clone();
        assert!(!log.is_empty());
        // Replay with a DIFFERENT seed: the log, not the RNG, must drive.
        let replayed =
            Runtime::run(Config::new(999_999).with_delay_bound(2).with_replay(log), program);
        assert!(!replayed.replay_diverged, "same program must follow its log");
        assert_eq!(
            original.ect.unwrap().render(),
            replayed.ect.unwrap().render(),
            "replay must reproduce the exact trace"
        );
    }

    #[test]
    fn replay_divergence_is_detected_and_survivable() {
        let log = Runtime::run(Config::new(1), || {
            go_named("a", || {});
            gosched();
        })
        .schedule;
        // Replay the log against a different program.
        let r = Runtime::run(Config::new(1).with_replay(log), || {
            go_named("a", || {});
            go_named("b", || {});
            gosched();
            gosched();
            gosched();
        });
        assert!(r.replay_diverged);
        assert!(r.outcome.is_completed(), "divergence falls back to native scheduling");
    }

    #[test]
    fn uniform_random_policy_explores_more() {
        use crate::config::SchedPolicy;
        let fingerprints: std::collections::BTreeSet<String> = (0..10u64)
            .map(|seed| {
                let r =
                    Runtime::run(Config::new(seed).with_policy(SchedPolicy::UniformRandom), || {
                        for _ in 0..4 {
                            go_named("w", || gosched());
                        }
                        gosched();
                        gosched();
                    });
                assert!(r.outcome.is_completed());
                r.ect.unwrap().render()
            })
            .collect();
        assert!(fingerprints.len() > 1, "random policy must vary schedules");
    }

    #[test]
    fn decision_log_is_recorded_on_every_run() {
        let r = Runtime::run(Config::new(0), || {
            go_named("w", || {});
            gosched();
        });
        // At least: pick(main), yield decisions for go/gosched, pick(w)…
        assert!(r.schedule.len() >= 3, "{:?}", r.schedule);
        assert!(!r.replay_diverged);
    }

    #[test]
    fn goroutine_tree_from_runtime_trace() {
        let r = Runtime::run(Config::new(2).with_native_preempt_prob(0.0), || {
            go_named("worker", || {
                go_named("nested", || {});
                gosched();
            });
            gosched();
            gosched();
            gosched();
        });
        let ect = r.ect.unwrap();
        let tree = goat_trace::GTree::from_ect(&ect);
        let worker = tree.nodes().find(|n| n.name == "worker").expect("worker node");
        assert_eq!(worker.parent, Some(Gid::MAIN));
        let nested = tree.nodes().find(|n| n.name == "nested").expect("nested");
        assert_eq!(nested.parent, Some(worker.g));
    }
}
