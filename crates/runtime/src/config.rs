//! Runtime configuration and run results.

use crate::strategy::StrategyKind;
use goat_trace::{Ect, Gid, VTime};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::OnceLock;

/// One nondeterministic choice the scheduler made, in program order.
///
/// Recording every such decision makes a run **schedule-forcing
/// replayable** independently of the RNG: feed the log back via
/// [`Config::replay`] and the same interleaving re-executes (the
/// paper's "replaying the program's ECT" detection mode).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Decision {
    /// Which goroutine received the run token at a handoff.
    Pick(Gid),
    /// Which ready case a select committed to.
    SelectChoice(usize),
    /// Whether a yield handler fired in front of a CU.
    YieldAt(bool),
}

/// A recorded schedule: the scheduler's full decision log for one run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplayLog {
    /// Decisions in the order they were taken.
    pub decisions: Vec<Decision>,
}

impl ReplayLog {
    /// Number of recorded decisions.
    pub fn len(&self) -> usize {
        self.decisions.len()
    }

    /// Is the log empty?
    pub fn is_empty(&self) -> bool {
        self.decisions.is_empty()
    }
}

/// Configuration of one program execution under the GoAT runtime.
///
/// The two knobs at the heart of the paper are [`Config::delay_bound`]
/// (the bound `D` on injected yields; `D = 0` is native execution) and
/// [`Config::seed`] (which makes every execution deterministic and
/// replayable).
///
/// ```
/// use goat_runtime::Config;
/// let cfg = Config::new(42).with_delay_bound(3).with_trace(true);
/// assert_eq!(cfg.delay_bound, 3);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Config {
    /// RNG seed; equal seeds give identical executions.
    pub seed: u64,
    /// Probability ε that the native scheduler deviates from FIFO at a
    /// scheduling point (models Go's preemption/multi-P nondeterminism).
    pub native_preempt_prob: f64,
    /// Bound `D` on the number of injected perturbation yields
    /// (paper §III-B.2). `0` disables perturbation entirely.
    pub delay_bound: u32,
    /// Probability that a yield handler in front of a CU actually yields
    /// (while budget remains).
    pub yield_prob: f64,
    /// Watchdog bound on scheduler steps; exceeding it aborts the run
    /// with [`RunOutcome::StepLimit`] (the paper's 30 s watchdog).
    pub max_steps: u64,
    /// Whether to record an ECT.
    pub trace: bool,
    /// Hard cap on recorded events (guards memory on runaway programs).
    pub max_trace_events: usize,
    /// A recorded schedule to force: every pick, select choice and
    /// yield decision is taken from this log for as long as the program
    /// follows it. On divergence (e.g. the program changed) the
    /// strategy takes over and [`RunResult::replay_diverged`] is set.
    pub replay: Option<ReplayLog>,
    /// Scheduling strategy (see [`StrategyKind`]): native, uniform
    /// random or PCT. Defaults to the `GOAT_STRATEGY` environment
    /// variable (unset → native). Under [`Config::replay`] it only
    /// drives the scheduling after the run diverged from its log.
    pub strategy: StrategyKind,
    /// Reuse host resources across runs: host the run on a thread that
    /// already exists (the calling run host, or a parked pool thread)
    /// and take goroutine stacks from the host's free list. `false`
    /// means no reuse — a fresh host thread for the run and a freshly
    /// mapped stack per goroutine. Scheduling semantics and traces are
    /// identical either way; reuse only removes thread creation and
    /// stack mapping cost. The pool's idle-retention size is set by the
    /// `GOAT_POOL_MAX_IDLE` environment variable.
    pub pool: bool,
    /// Wall-clock watchdog bound per run, in milliseconds (defaults from
    /// the `GOAT_ITER_TIMEOUT_MS` environment variable; `None` disables
    /// the watchdog). Complements [`Config::max_steps`], which cannot
    /// fire while a goroutine stalls *outside* the scheduler: past the
    /// soft deadline the supervisor requests a cooperative abort through
    /// the scheduler gate, and when a grace (a quarter of the bound,
    /// 10 ms to 1 s) has passed since that request it decides the run
    /// [`RunOutcome::TimedOut`] even if no goroutine ever re-enters the
    /// runtime.
    pub iter_timeout_ms: Option<u64>,
    /// No effect. It was the spin budget of the thread-per-goroutine
    /// backend's token handoff; goroutines are now coroutines on one
    /// host thread, and a handoff has nothing to spin for. Kept, with
    /// [`Config::with_spin`], only for callers that still set it.
    pub spin: u32,
}

impl Config {
    /// A configuration with the given seed and default knobs.
    pub fn new(seed: u64) -> Self {
        Config { seed, ..Self::default() }
    }

    /// Set the perturbation delay bound `D`.
    pub fn with_delay_bound(mut self, d: u32) -> Self {
        self.delay_bound = d;
        self
    }

    /// Set the per-CU yield probability.
    pub fn with_yield_prob(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0,1]");
        self.yield_prob = p;
        self
    }

    /// Set the native preemption-noise probability ε.
    pub fn with_native_preempt_prob(mut self, eps: f64) -> Self {
        assert!((0.0..=1.0).contains(&eps), "probability must be in [0,1]");
        self.native_preempt_prob = eps;
        self
    }

    /// Enable or disable ECT tracing.
    pub fn with_trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// Set the watchdog step bound.
    pub fn with_max_steps(mut self, n: u64) -> Self {
        self.max_steps = n;
        self
    }

    /// Replay a recorded schedule.
    pub fn with_replay(mut self, log: ReplayLog) -> Self {
        self.replay = Some(log);
        self
    }

    /// Enable or disable reuse of host threads and goroutine stacks.
    pub fn with_pool(mut self, on: bool) -> Self {
        self.pool = on;
        self
    }

    /// Set (or clear) the per-run wall-clock watchdog.
    pub fn with_iter_timeout_ms(mut self, ms: Option<u64>) -> Self {
        self.iter_timeout_ms = ms.filter(|&ms| ms > 0);
        self
    }

    /// No effect; see [`Config::spin`].
    pub fn with_spin(mut self, spin: u32) -> Self {
        self.spin = spin;
        self
    }

    /// Set the pluggable scheduling strategy.
    pub fn with_strategy(mut self, strategy: StrategyKind) -> Self {
        self.strategy = strategy;
        self
    }
}

impl Config {
    /// The default knobs with `GOAT_STRATEGY` and `GOAT_ITER_TIMEOUT_MS`
    /// applied. Both are read once per process; a set but unparseable
    /// value is an error naming the variable and its expected form.
    pub fn from_env() -> Result<Config, String> {
        type EnvKnobs = Result<(StrategyKind, Option<u64>), String>;
        static ENV: OnceLock<EnvKnobs> = OnceLock::new();
        let (strategy, iter_timeout_ms) = ENV
            .get_or_init(|| {
                let strategy =
                    env_knob("GOAT_STRATEGY", STRATEGY_FORM, |v| StrategyKind::parse(v).ok())?;
                let timeout = env_knob("GOAT_ITER_TIMEOUT_MS", "a non-negative integer", |v| {
                    v.parse::<u64>().ok()
                })?;
                Ok((strategy.unwrap_or_default(), timeout.filter(|&ms| ms > 0)))
            })
            .clone()?;
        Ok(Config {
            seed: 0,
            native_preempt_prob: 0.02,
            delay_bound: 0,
            yield_prob: 0.5,
            max_steps: 200_000,
            trace: true,
            max_trace_events: 1_000_000,
            replay: None,
            strategy,
            pool: true,
            iter_timeout_ms,
            spin: 0,
        })
    }
}

/// [`Config::from_env`]; panics on a malformed environment knob.
impl Default for Config {
    fn default() -> Self {
        Config::from_env().unwrap_or_else(|e| panic!("{e}"))
    }
}

/// The accepted forms of a strategy spec, for error messages.
pub const STRATEGY_FORM: &str = "native|random|pct[:<depth>[:<len>]]";

/// Parse the value `raw` of the knob `name` (a flag or an environment
/// variable) with `parse`; a rejected value is an error naming the knob
/// and the `expected` form.
pub fn parse_knob<T>(
    name: &str,
    expected: &str,
    raw: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Result<T, String> {
    parse(raw).ok_or_else(|| format!("{name}: expected {expected}, got {raw:?}"))
}

/// Read the environment knob `name` with `parse` (see [`parse_knob`]).
/// Unset or empty means `Ok(None)`, so a CI matrix can leave a knob
/// blank.
pub fn env_knob<T>(
    name: &str,
    expected: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Result<Option<T>, String> {
    match std::env::var(name) {
        Ok(v) if !v.is_empty() => parse_knob(name, expected, &v, parse).map(Some),
        Err(std::env::VarError::NotUnicode(v)) => {
            Err(format!("{name}: expected {expected}, got {v:?}"))
        }
        _ => Ok(None),
    }
}

/// Which watchdog escalation stage ended a [`RunOutcome::TimedOut`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TimeoutPhase {
    /// The run blew its soft deadline but a goroutine still reached the
    /// scheduler gate, so the runtime unwound it cooperatively — clean
    /// teardown, host thread reclaimed.
    Cooperative,
    /// No goroutine re-entered the runtime within the grace after the
    /// cooperative abort was requested, so the supervisor decided the
    /// run itself; a host that stays wedged is written off through the
    /// pool's abandoned-worker path.
    Wedged,
}

impl fmt::Display for TimeoutPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TimeoutPhase::Cooperative => write!(f, "cooperative"),
            TimeoutPhase::Wedged => write!(f, "wedged"),
        }
    }
}

/// Post-mortem of a worker process that died under process isolation.
///
/// Filled in by the orchestrator side of `GOAT_ISOLATE=proc` when a
/// sandboxed worker exits (or is killed) instead of answering a run
/// request; the payload travels inside [`RunOutcome::Crashed`] so the
/// campaign layer can report *why* the process died without sharing its
/// address space.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrashForensics {
    /// Signal number that terminated the worker, when it died by signal.
    pub signal: Option<i32>,
    /// Exit code, when the worker exited (abnormally) on its own.
    pub exit_code: Option<i32>,
    /// Tail of the worker's stderr (last lines, truncated) — panics,
    /// abort messages, and sanitizer output land here.
    pub stderr_tail: String,
    /// Last iteration the worker acknowledged before dying (`None` when
    /// it died before acknowledging this run).
    pub last_ack_iter: Option<u64>,
    /// Orchestrator-side summary of the death ("killed by signal 6
    /// (SIGABRT)", "no heartbeat within 5000 ms", …).
    pub summary: String,
}

/// How a run ended.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum RunOutcome {
    /// The main goroutine returned normally (leaked goroutines, if any,
    /// are discovered by offline analysis of the trace).
    Completed,
    /// No goroutine was runnable, no timer was pending, and main had not
    /// finished — the built-in detector's "all goroutines are asleep"
    /// condition.
    GlobalDeadlock {
        /// Goroutines blocked at the moment of detection.
        blocked: Vec<Gid>,
    },
    /// A goroutine panicked (e.g. send on closed channel).
    Panicked {
        /// The panicking goroutine.
        g: Gid,
        /// The panic message.
        msg: String,
    },
    /// The watchdog step bound was exceeded (livelock / infinite loop).
    StepLimit,
    /// The wall-clock watchdog fired ([`Config::iter_timeout_ms`]) —
    /// the paper's timeout flag for a suspected hang.
    TimedOut {
        /// Which escalation stage ended the run.
        phase: TimeoutPhase,
        /// Wall-clock milliseconds elapsed when the watchdog fired.
        elapsed_ms: u64,
    },
    /// The harness itself failed to host the run (host-thread checkout
    /// or spawn, or a goroutine stack mapping, failed) — says nothing
    /// about the program under test. The campaign supervision layer retries these.
    InfraFailure {
        /// What broke.
        reason: String,
    },
    /// The sandboxed worker process hosting the run died (signal, abort,
    /// rlimit kill, or missed heartbeats) under `GOAT_ISOLATE=proc`.
    /// Unlike [`RunOutcome::InfraFailure`] this *is* attributed to the
    /// kernel under test: it feeds the crash streak and quarantine.
    Crashed {
        /// Post-mortem collected by the orchestrator.
        forensics: CrashForensics,
    },
}

impl RunOutcome {
    /// Did the run complete normally?
    pub fn is_completed(&self) -> bool {
        matches!(self, RunOutcome::Completed)
    }
}

impl fmt::Display for RunOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunOutcome::Completed => write!(f, "completed"),
            RunOutcome::GlobalDeadlock { blocked } => {
                write!(f, "global deadlock ({} goroutines blocked)", blocked.len())
            }
            RunOutcome::Panicked { g, msg } => write!(f, "panic in {g}: {msg}"),
            RunOutcome::StepLimit => write!(f, "watchdog step limit exceeded"),
            RunOutcome::TimedOut { phase, elapsed_ms } => {
                write!(f, "wall-clock watchdog fired ({phase}, {elapsed_ms} ms)")
            }
            RunOutcome::InfraFailure { reason } => write!(f, "infra failure: {reason}"),
            RunOutcome::Crashed { forensics } => {
                write!(f, "worker crashed: {}", forensics.summary)
            }
        }
    }
}

/// Deterministic per-run scheduler counters.
///
/// Maintained as plain fields inside the scheduler (which is already
/// behind the run lock), so they cost one integer increment per event
/// regardless of whether telemetry export is enabled — the run result
/// always carries them, and campaign-level telemetry aggregates them
/// without touching the global registry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchedCounters {
    /// Run-token handoffs (run-queue pops).
    pub picks: u64,
    /// Handoffs where the scheduler deviated from FIFO (uniform-random
    /// strategy or native preemption noise ε).
    pub random_picks: u64,
    /// Goroutine block transitions (channel, lock, timer, …).
    pub blocks: u64,
    /// Goroutine unblock transitions (wakes).
    pub unblocks: u64,
    /// Preemption yields taken (injected perturbation + native ε noise).
    pub yields_preempt: u64,
    /// Program-requested `gosched()` yields.
    pub yields_gosched: u64,
    /// Timers fired.
    pub timer_fires: u64,
    /// Select-case choices made.
    pub select_choices: u64,
}

impl SchedCounters {
    /// Fold another run's counters into this accumulator (used by
    /// campaign-level telemetry totals).
    pub fn accumulate(&mut self, other: &SchedCounters) {
        self.picks += other.picks;
        self.random_picks += other.random_picks;
        self.blocks += other.blocks;
        self.unblocks += other.unblocks;
        self.yields_preempt += other.yields_preempt;
        self.yields_gosched += other.yields_gosched;
        self.timer_fires += other.timer_fires;
        self.select_choices += other.select_choices;
    }
}

/// Information about a goroutine still alive when the run ended.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AliveGoroutine {
    /// The goroutine.
    pub g: Gid,
    /// Its name.
    pub name: String,
    /// Human-readable description of what it was doing ("blocked: send",
    /// "runnable", …).
    pub state: String,
    /// True for runtime-internal goroutines.
    pub internal: bool,
}

/// The result of one execution.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunResult {
    /// How the run ended.
    pub outcome: RunOutcome,
    /// The execution concurrency trace, when tracing was enabled.
    pub ect: Option<Ect>,
    /// Scheduler steps taken.
    pub steps: u64,
    /// Final virtual clock.
    pub vclock: VTime,
    /// Total goroutines created (including main, excluding internal).
    pub goroutines: u64,
    /// Perturbation yields actually injected.
    pub yields_injected: u32,
    /// PCT priority changes performed (0 under other strategies);
    /// bounded by the configured `depth − 1`.
    pub priority_changes: u32,
    /// Application goroutines that had not finished when the run ended —
    /// the runtime's ground truth, cross-checked against the offline
    /// ECT analysis in tests.
    pub alive_at_end: Vec<AliveGoroutine>,
    /// The scheduler's decision log: feed back via
    /// [`Config::with_replay`] to force the same interleaving.
    pub schedule: ReplayLog,
    /// True when a replay run diverged from its log and fell back to
    /// its strategy.
    pub replay_diverged: bool,
    /// Deterministic scheduler counters for this run.
    pub sched: SchedCounters,
    /// Schedule fingerprint folded online while the trace was recorded
    /// (see [`goat_trace::schedule_fingerprint`]); equal fingerprints
    /// mean the run executed the same interleaving of the same
    /// operations. [`goat_trace::tracebuf::FP_SEED`] when tracing was
    /// disabled.
    pub fingerprint: u64,
    /// Crash forensics for a [`RunOutcome::Panicked`] run: the panic
    /// site plus (when `RUST_BACKTRACE` enables capture) a truncated
    /// backtrace. `None` for non-panicking runs.
    pub panic_detail: Option<String>,
}

impl RunResult {
    /// Did the program both complete and leak no goroutine? This is the
    /// runtime ground truth of the paper's "successful execution".
    pub fn clean(&self) -> bool {
        self.outcome.is_completed() && self.alive_at_end.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let cfg = Config::new(7)
            .with_delay_bound(2)
            .with_yield_prob(0.25)
            .with_native_preempt_prob(0.0)
            .with_trace(false)
            .with_max_steps(99);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.delay_bound, 2);
        assert_eq!(cfg.yield_prob, 0.25);
        assert_eq!(cfg.native_preempt_prob, 0.0);
        assert!(!cfg.trace);
        assert_eq!(cfg.max_steps, 99);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn rejects_bad_probability() {
        let _ = Config::new(0).with_yield_prob(1.5);
    }

    #[test]
    fn outcome_display() {
        assert_eq!(RunOutcome::Completed.to_string(), "completed");
        let gdl = RunOutcome::GlobalDeadlock { blocked: vec![Gid(2), Gid(3)] };
        assert!(gdl.to_string().contains("2 goroutines"));
        assert!(!RunOutcome::StepLimit.is_completed());
    }
}
