//! The GoAT testing campaign: iterate executions until the bug is hit or
//! a coverage threshold / iteration budget is reached (paper §III-A,
//! "Offline Analysis" loop).

use crate::analysis::{analyze_run, analyze_run_with, GoatVerdict};
use crate::bandit::{Arm, Bandit, GuidedSummary};
use crate::checkpoint::{self, CampaignCheckpoint};
use crate::coverage::RunCoverage;
use crate::globaltree::GlobalGTree;
use crate::instrument::instrumented;
use crate::plane::EctBuffers;
use crate::program::Program;
use goat_detectors::{Detector, ProgramFn, ToolVerdict};
use goat_metrics::{Histogram, HistogramSnapshot};
use goat_model::{scan_sources, CoverageSet, CuTable, RequirementUniverse};
use goat_runtime::pool::PoolStats;
use goat_runtime::{env_knob, Config, RunOutcome, RunResult, Runtime, SchedCounters, StrategyKind};
use goat_trace::{Ect, GTree, TracePoolStats};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex as StdMutex};
use std::time::{Duration, Instant};

/// Duplicate-schedule analysis memoization mode (the `-memo` flag).
///
/// Delay-bound campaigns revisit the same interleaving often — small
/// kernels have few distinct schedules, and perturbation draws collide.
/// The runtime stamps every run with an online schedule fingerprint
/// ([`goat_runtime::RunResult::fingerprint`]); two runs with the same
/// fingerprint *and* the same outcome produced the same trace modulo
/// timestamps, so their analysis products (goroutine tree, coverage,
/// verdict) are identical and the second analysis can be skipped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoMode {
    /// Analyze every iteration from scratch.
    Off,
    /// Reuse stored analysis products for duplicate schedules (default).
    On,
    /// Reuse *and* re-analyze duplicates, asserting the stored products
    /// equal the fresh ones — the memoization self-check.
    Verify,
}

/// Memo key: the run's schedule fingerprint FNV-folded with its
/// outcome. The verdict depends on the outcome variant (and its
/// strings) as well as the trace, so runs that share a schedule but
/// end differently must never share an entry.
fn memo_key(fingerprint: u64, outcome: &RunOutcome) -> u64 {
    const PRIME: u64 = 0x100_0000_01b3;
    fn fold(h: &mut u64, bytes: &[u8]) {
        for &b in bytes {
            *h = (*h ^ u64::from(b)).wrapping_mul(PRIME);
        }
    }
    let mut h = fingerprint;
    match outcome {
        RunOutcome::Completed => fold(&mut h, &[1]),
        // The verdict for a deadlocked-or-completed run comes from the
        // tree alone; the blocked set is derivable from the trace, so
        // the discriminant suffices.
        RunOutcome::GlobalDeadlock { .. } => fold(&mut h, &[2]),
        RunOutcome::StepLimit => fold(&mut h, &[3]),
        RunOutcome::Panicked { g, msg } => {
            fold(&mut h, &[4]);
            fold(&mut h, &g.0.to_le_bytes());
            fold(&mut h, msg.as_bytes());
        }
        // `elapsed_ms` is wall-clock noise and deliberately excluded;
        // the escalation phase changes teardown (and thus the verdict's
        // evidence), so it is part of the key.
        RunOutcome::TimedOut { phase, .. } => {
            fold(&mut h, &[5, matches!(phase, goat_runtime::TimeoutPhase::Wedged) as u8]);
        }
        RunOutcome::InfraFailure { reason } => {
            fold(&mut h, &[6]);
            fold(&mut h, reason.as_bytes());
        }
        // Worker deaths never carry a trace, so no memo entry is ever
        // stored for them; the arm exists for exhaustiveness and keys on
        // the forensics that feed the verdict.
        RunOutcome::Crashed { forensics } => {
            fold(&mut h, &[7]);
            fold(&mut h, &forensics.signal.unwrap_or(0).to_le_bytes());
            fold(&mut h, &forensics.exit_code.unwrap_or(0).to_le_bytes());
            fold(&mut h, forensics.summary.as_bytes());
        }
    }
    h
}

/// Campaign configuration (the tool's command-line knobs: `-d`, `-freq`,
/// `-cov`, …).
#[derive(Debug, Clone)]
pub struct GoatConfig {
    /// Delay bound `D`: maximum injected yields per execution.
    pub delay_bound: u32,
    /// Maximum testing iterations (`-freq`).
    pub iterations: usize,
    /// First seed; iteration `i` uses `seed0 + i`.
    pub seed0: u64,
    /// Stop as soon as a bug is detected.
    pub stop_on_bug: bool,
    /// Stop once coverage reaches this percentage (requires tracing).
    pub coverage_threshold: Option<f64>,
    /// Native scheduler noise ε passed through to the runtime.
    pub native_preempt_prob: f64,
    /// Watchdog step bound per execution.
    pub max_steps: u64,
    /// Workers running iterations concurrently (runs are fully
    /// independent; results are identical to the sequential campaign
    /// because per-iteration seeds are fixed and merged in order) —
    /// the same engine parameter as [`crate::SuiteConfig::jobs`].
    /// Defaults to the `GOAT_PARALLELISM` environment variable (1 when
    /// unset), so CI can sweep the campaign engine without code
    /// changes.
    pub parallelism: usize,
    /// Run goroutines on the shared worker-thread pool (see
    /// [`goat_runtime::Config::pool`]); scheduling is identical either
    /// way, the pool only removes thread-creation cost.
    pub pool: bool,
    /// Wall-clock watchdog per iteration, milliseconds (see
    /// [`goat_runtime::Config::iter_timeout_ms`]). Defaults to the
    /// `GOAT_ITER_TIMEOUT_MS` environment variable (off when unset).
    pub iter_timeout_ms: Option<u64>,
    /// Retries (with bounded exponential backoff) for *infra*-classified
    /// failures — pool checkout or thread-spawn errors, never kernel
    /// verdicts. Defaults to 2.
    pub max_retries: u32,
    /// Quarantine the kernel after this many *consecutive* iterations
    /// whose infra retries were exhausted: the campaign stops and the
    /// remaining budget is reported as skipped-with-reason instead of
    /// grinding a broken environment. Defaults to 3; 0 disables.
    pub quarantine_after: u32,
    /// Quarantine after this many consecutive *crashed* iterations
    /// (kernel panics). 0 (the default) disables, so repeat-crashing
    /// kernels keep recording `Crashed` verdicts unless explicitly
    /// opted in.
    pub quarantine_crashes: u32,
    /// Checkpoint sidecar path: the campaign engine periodically
    /// persists completed-seed ranges plus merged coverage there, and
    /// resumes from it byte-identically. Defaults to the
    /// `GOAT_CHECKPOINT` environment variable (off when unset).
    pub checkpoint: Option<PathBuf>,
    /// Merged iterations between checkpoint writes. Defaults to
    /// `GOAT_CHECKPOINT_EVERY` (8 when unset).
    pub checkpoint_every: usize,
    /// Duplicate-schedule analysis memoization. Defaults to
    /// [`MemoMode::On`]. Memoization never changes campaign results —
    /// only how often the fused analysis pass actually runs.
    pub memo: MemoMode,
    /// Scheduling strategy for every iteration (see
    /// [`goat_runtime::StrategyKind`]). Defaults to the `GOAT_STRATEGY`
    /// environment variable (native when unset). Guided mode overrides
    /// this per iteration with the selected arm's strategy.
    pub strategy: StrategyKind,
    /// Coverage-guided exploration: pick each iteration's (strategy,
    /// yield_prob, delay_bound) with a deterministic epsilon-greedy
    /// bandit fed by per-iteration coverage deltas (see
    /// [`crate::bandit`]). Off by default.
    pub guided: bool,
    /// Coverage-saturation early stop: end the campaign after this many
    /// *consecutive* iterations with a zero coverage delta. Off by
    /// default.
    pub saturation_window: Option<usize>,
    /// No effect, like [`goat_runtime::Config::spin`] which it used to
    /// override. Kept, with [`GoatConfig::with_spin`], only for callers
    /// that still set it.
    pub spin: Option<u32>,
    /// Process-isolation mode: [`IsolateMode::Proc`] runs every
    /// iteration inside a sandboxed worker subprocess (spawned from
    /// [`GoatConfig::worker_cmd`]) so a crashing or leaky kernel cannot
    /// take the campaign down. Defaults to the `GOAT_ISOLATE`
    /// environment variable (off when unset). Reports and traces are
    /// byte-identical to in-process execution for non-crashing runs.
    pub isolate: crate::isolate::IsolateMode,
    /// Worker binary for [`IsolateMode::Proc`] (invoked with a hidden
    /// `--worker` argument). Defaults to the `GOAT_WORKER_CMD`
    /// environment variable; `None` falls back to the current
    /// executable.
    pub worker_cmd: Option<String>,
}

/// [`GoatConfig::from_env`]; panics on a malformed environment knob.
impl Default for GoatConfig {
    fn default() -> Self {
        GoatConfig::from_env().unwrap_or_else(|e| panic!("{e}"))
    }
}

/// Worker count from `GOAT_PARALLELISM` (1 when unset): the default of
/// both [`GoatConfig::parallelism`] and [`crate::SuiteConfig::jobs`].
pub(crate) fn env_parallelism() -> Result<usize, String> {
    let n = env_knob("GOAT_PARALLELISM", "an integer >= 1", |v| {
        v.parse::<usize>().ok().filter(|n| *n >= 1)
    })?;
    Ok(n.unwrap_or(1))
}

impl GoatConfig {
    /// The default campaign with the environment knobs applied:
    /// `GOAT_PARALLELISM`, `GOAT_CHECKPOINT`, `GOAT_CHECKPOINT_EVERY`,
    /// `GOAT_ISOLATE` and `GOAT_WORKER_CMD` here, and `GOAT_STRATEGY` and
    /// `GOAT_ITER_TIMEOUT_MS` through [`Config::from_env`], whose run
    /// knobs this config mirrors. `GOAT_POOL_MAX_IDLE`,
    /// `GOAT_TEARDOWN_TIMEOUT_MS` and `GOAT_WORKER_GRACE_MS` set
    /// process-wide state, not a field, and are only checked here. A set
    /// but unparseable value is an error naming the variable and its
    /// expected form.
    pub fn from_env() -> Result<Self, String> {
        let run = Config::from_env()?;
        goat_runtime::pool::max_idle()?;
        goat_runtime::teardown_timeout()?;
        crate::isolate::worker_grace()?;
        Ok(GoatConfig {
            delay_bound: 0,
            iterations: 100,
            seed0: 1,
            stop_on_bug: true,
            coverage_threshold: None,
            native_preempt_prob: run.native_preempt_prob,
            max_steps: run.max_steps,
            parallelism: env_parallelism()?,
            pool: run.pool,
            iter_timeout_ms: run.iter_timeout_ms,
            max_retries: 2,
            quarantine_after: 3,
            quarantine_crashes: 0,
            checkpoint: env_knob(checkpoint::CHECKPOINT_ENV, "a path", |v| Some(PathBuf::from(v)))?,
            checkpoint_every: env_knob(checkpoint::CHECKPOINT_EVERY_ENV, "an integer >= 1", |v| {
                v.parse::<usize>().ok().filter(|n| *n >= 1)
            })?
            .unwrap_or(8),
            memo: MemoMode::On,
            spin: None,
            strategy: run.strategy,
            guided: false,
            saturation_window: None,
            isolate: env_knob(
                crate::isolate::ISOLATE_ENV,
                "off|proc",
                crate::isolate::IsolateMode::parse,
            )?
            .unwrap_or_default(),
            worker_cmd: env_knob(crate::isolate::WORKER_CMD_ENV, "a command", |v| {
                Some(v.to_string())
            })?,
        })
    }

    /// Config with delay bound `d` (the paper's GOAT-D0 … GOAT-D4).
    pub fn with_delay_bound(mut self, d: u32) -> Self {
        self.delay_bound = d;
        self
    }

    /// Set the iteration budget.
    pub fn with_iterations(mut self, n: usize) -> Self {
        self.iterations = n;
        self
    }

    /// Set the base seed.
    pub fn with_seed0(mut self, s: u64) -> Self {
        self.seed0 = s;
        self
    }

    /// Keep running after a bug is found (for coverage studies).
    pub fn keep_running(mut self) -> Self {
        self.stop_on_bug = false;
        self
    }

    /// Run iterations on `n` host threads (default 1 = sequential).
    pub fn with_parallelism(mut self, n: usize) -> Self {
        assert!(n >= 1, "parallelism must be at least 1");
        self.parallelism = n;
        self
    }

    /// Enable or disable the shared goroutine worker-thread pool.
    pub fn with_pool(mut self, on: bool) -> Self {
        self.pool = on;
        self
    }

    /// Set (or clear) the per-iteration wall-clock watchdog.
    pub fn with_iter_timeout_ms(mut self, ms: Option<u64>) -> Self {
        self.iter_timeout_ms = ms.filter(|v| *v > 0);
        self
    }

    /// Set the infra-failure retry budget.
    pub fn with_max_retries(mut self, n: u32) -> Self {
        self.max_retries = n;
        self
    }

    /// Quarantine after `n` consecutive infra-exhausted iterations
    /// (0 disables).
    pub fn with_quarantine_after(mut self, n: u32) -> Self {
        self.quarantine_after = n;
        self
    }

    /// Quarantine after `n` consecutive crashed iterations (0 disables).
    pub fn with_quarantine_crashes(mut self, n: u32) -> Self {
        self.quarantine_crashes = n;
        self
    }

    /// Persist/resume campaign state at `path`.
    pub fn with_checkpoint(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint = Some(path.into());
        self
    }

    /// Set the checkpoint cadence (merged iterations between writes).
    pub fn with_checkpoint_every(mut self, n: usize) -> Self {
        assert!(n >= 1, "checkpoint cadence must be at least 1");
        self.checkpoint_every = n;
        self
    }

    /// Set the analysis memoization mode.
    pub fn with_memo(mut self, mode: MemoMode) -> Self {
        self.memo = mode;
        self
    }

    /// No effect; see [`GoatConfig::spin`].
    pub fn with_spin(mut self, spin: u32) -> Self {
        self.spin = Some(spin);
        self
    }

    /// Set the scheduling strategy (overrides `GOAT_STRATEGY`).
    pub fn with_strategy(mut self, strategy: StrategyKind) -> Self {
        self.strategy = strategy;
        self
    }

    /// Enable or disable coverage-guided exploration.
    pub fn with_guided(mut self, on: bool) -> Self {
        self.guided = on;
        self
    }

    /// Set (or clear) the coverage-saturation early-stop window.
    pub fn with_saturation_window(mut self, window: Option<usize>) -> Self {
        self.saturation_window = window.filter(|n| *n >= 1);
        self
    }

    /// Set the process-isolation mode (overrides `GOAT_ISOLATE`).
    pub fn with_isolate(mut self, mode: crate::isolate::IsolateMode) -> Self {
        self.isolate = mode;
        self
    }

    /// Set the worker binary for process isolation (overrides
    /// `GOAT_WORKER_CMD`).
    pub fn with_worker_cmd(mut self, cmd: impl Into<String>) -> Self {
        self.worker_cmd = Some(cmd.into());
        self
    }

    /// Runtime config for iteration `iter`; a guided campaign overlays
    /// the selected arm's (strategy, yield_prob, delay_bound) on top of
    /// the base knobs. `arm = None` reproduces the historical unguided
    /// config exactly. This is the one place that decides a run's
    /// config: in-process runs execute it, and under process isolation
    /// the `Run` frame carries it whole.
    fn runtime_config(&self, iter: usize, arm: Option<&Arm>) -> Config {
        let mut cfg = Config::new(self.seed0 + iter as u64)
            .with_delay_bound(self.delay_bound)
            .with_native_preempt_prob(self.native_preempt_prob)
            .with_max_steps(self.max_steps)
            .with_iter_timeout_ms(self.iter_timeout_ms)
            .with_trace(true)
            .with_pool(self.pool)
            .with_strategy(self.strategy);
        if let Some(a) = arm {
            cfg = cfg
                .with_delay_bound(a.delay_bound)
                .with_yield_prob(a.yield_prob)
                .with_strategy(a.strategy);
        }
        cfg
    }
}

/// Record of one testing iteration.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct IterationRecord {
    /// 1-based iteration number.
    pub iter: usize,
    /// The seed used.
    pub seed: u64,
    /// GoAT's verdict on this execution.
    pub verdict: GoatVerdict,
    /// Cumulative coverage percentage after this iteration.
    pub coverage_percent: f64,
    /// Requirements in the universe after this iteration.
    pub universe_size: usize,
    /// Perturbation yields injected in this execution.
    pub yields: u32,
}

/// Campaign-level telemetry, collected only when
/// [`goat_metrics::enabled`] (i.e. `GOAT_TELEMETRY` is set or a bench
/// binary ran with `--stats`). Embedded in the report JSON as an
/// optional `telemetry` field — absent entirely when disabled, so
/// telemetry-off reports stay byte-identical to historical output.
///
/// Wall-clock figures are host-dependent and therefore live *only*
/// here, never in the deterministic campaign fields.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CampaignTelemetry {
    /// Host threads the campaign ran with.
    pub parallelism: usize,
    /// Iterations actually executed (early exits shorten campaigns).
    pub iterations: usize,
    /// Total campaign wall time, nanoseconds.
    pub wall_ns: u64,
    /// Per-iteration wall-time distribution, nanoseconds.
    pub iter_wall_ns: HistogramSnapshot,
    /// Worker wait time per claim-queue checkout, nanoseconds.
    pub claim_wait_ns: HistogramSnapshot,
    /// Deepest the reorder buffer grew while merging results (one
    /// claimed batch at parallelism 1).
    pub reorder_depth_max: usize,
    /// Scheduler counters summed over all iterations.
    pub sched: SchedCounters,
    /// Perturbation yields injected, summed over all iterations.
    pub yields_injected: u64,
    /// Newly-covered-requirements-per-iteration distribution.
    pub coverage_delta: HistogramSnapshot,
    /// Per-iteration fused-analysis (tree + coverage + verdict input)
    /// wall-time distribution, nanoseconds.
    pub analysis_ns: HistogramSnapshot,
    /// Iterations whose analysis was served from the duplicate-schedule
    /// memo (see [`MemoMode`]).
    pub memo_hits: u64,
    /// Iterations that ran the full fused analysis.
    pub memo_misses: u64,
    /// Worker-pool counters at campaign end (process-wide).
    pub pool: PoolStats,
    /// Trace-buffer recycling counters at campaign end (process-wide).
    pub trace_pool: TracePoolStats,
}

/// The result of a testing campaign.
#[derive(Debug)]
pub struct CampaignResult {
    /// Per-iteration records, in order.
    pub records: Vec<IterationRecord>,
    /// 1-based iteration of the first bug detection, if any.
    pub first_detection: Option<usize>,
    /// The verdict of the first detected bug.
    pub bug: Option<GoatVerdict>,
    /// The ECT of the buggy execution (for reports).
    pub bug_ect: Option<Ect>,
    /// The buggy execution's recorded schedule: replay it with
    /// [`Goat::replay`] to re-trigger the bug deterministically
    /// (the paper's "replaying the program's ECT" mode).
    pub bug_schedule: Option<goat_runtime::ReplayLog>,
    /// The requirement universe accumulated over all iterations.
    pub universe: RequirementUniverse,
    /// All requirements covered over all iterations.
    pub covered: CoverageSet,
    /// The global goroutine tree.
    pub global_tree: GlobalGTree,
    /// Quarantine reason, when the campaign gave up on a kernel that
    /// kept failing (consecutive infra failures or crashes).
    pub quarantined: Option<String>,
    /// Budgeted iterations skipped because of quarantine.
    pub skipped: usize,
    /// 1-based iteration at which the coverage-saturation early stop
    /// fired ([`GoatConfig::saturation_window`]), if it did.
    pub saturated: Option<usize>,
    /// Guided-mode per-arm totals; `Some` only for guided campaigns.
    pub guided: Option<GuidedSummary>,
    /// Campaign telemetry; `Some` only when collection was enabled.
    pub telemetry: Option<CampaignTelemetry>,
}

/// Machine-readable campaign summary (for external plotting/tooling).
#[derive(Debug, Clone)]
pub struct CampaignSummary {
    /// 1-based iteration of the first detection, if any.
    pub first_detection: Option<usize>,
    /// Symptom code of the detected bug (Table IV legend), if any.
    pub bug: Option<String>,
    /// Crash forensics of the detected bug (panic site + backtrace, or a
    /// dead worker's signal/stderr post-mortem); `Some` only when the
    /// bug is a crash that captured detail.
    pub bug_detail: Option<String>,
    /// Per-iteration `(coverage %, universe size, yields)` series.
    pub iterations: Vec<(f64, usize, u32)>,
    /// Final coverage percentage.
    pub final_coverage_percent: f64,
    /// Requirements covered / total.
    pub covered: usize,
    /// Total requirement instances discovered.
    pub universe: usize,
    /// Quarantine reason, when the campaign was quarantined.
    pub quarantined: Option<String>,
    /// Budgeted iterations skipped because of quarantine.
    pub skipped: usize,
    /// 1-based iteration at which coverage saturation stopped the
    /// campaign, if it did.
    pub saturated: Option<usize>,
    /// Guided-mode per-arm totals; `Some` only for guided campaigns.
    pub guided: Option<GuidedSummary>,
    /// Campaign telemetry; `Some` only when collection was enabled.
    pub telemetry: Option<CampaignTelemetry>,
}

// Hand-written (de)serialization: a derived `Option` field always
// emits `"telemetry": null`, which would change the report JSON for
// every telemetry-off run. The summary's schema is pinned byte-for-byte
// by tests/report_snapshot.rs, so the `telemetry` key must be *absent*
// when disabled, not null. Same for the supervision fields: they only
// appear when a campaign was actually quarantined, keeping healthy
// campaigns' reports byte-identical to historical output.
impl serde::Serialize for CampaignSummary {
    fn to_content(&self) -> serde::Content {
        let mut fields = vec![
            ("first_detection".to_string(), self.first_detection.to_content()),
            ("bug".to_string(), self.bug.to_content()),
        ];
        // Like the supervision fields below: only crash bugs with
        // captured forensics carry the key, so every historical report
        // stays byte-identical.
        if let Some(d) = &self.bug_detail {
            fields.push(("bug_detail".to_string(), d.to_content()));
        }
        fields.extend([
            ("iterations".to_string(), self.iterations.to_content()),
            ("final_coverage_percent".to_string(), self.final_coverage_percent.to_content()),
            ("covered".to_string(), self.covered.to_content()),
            ("universe".to_string(), self.universe.to_content()),
        ]);
        if let Some(q) = &self.quarantined {
            fields.push(("quarantined".to_string(), q.to_content()));
        }
        if self.skipped > 0 {
            fields.push(("skipped".to_string(), self.skipped.to_content()));
        }
        if let Some(s) = &self.saturated {
            fields.push(("saturated".to_string(), s.to_content()));
        }
        if let Some(g) = &self.guided {
            fields.push(("guided".to_string(), g.to_content()));
        }
        if let Some(t) = &self.telemetry {
            fields.push(("telemetry".to_string(), t.to_content()));
        }
        serde::Content::Map(fields)
    }
}

impl serde::Deserialize for CampaignSummary {
    fn from_content(c: &serde::Content) -> Result<Self, serde::DeError> {
        let fields = c.as_map().ok_or_else(|| serde::DeError::custom("expected object"))?;
        Ok(CampaignSummary {
            first_detection: serde::de_field(fields, "first_detection")?,
            bug: serde::de_field(fields, "bug")?,
            bug_detail: serde::de_field(fields, "bug_detail")?,
            iterations: serde::de_field(fields, "iterations")?,
            final_coverage_percent: serde::de_field(fields, "final_coverage_percent")?,
            covered: serde::de_field(fields, "covered")?,
            universe: serde::de_field(fields, "universe")?,
            quarantined: serde::de_field(fields, "quarantined")?,
            skipped: serde::de_field::<Option<usize>>(fields, "skipped")?.unwrap_or(0),
            saturated: serde::de_field(fields, "saturated")?,
            guided: serde::de_field(fields, "guided")?,
            telemetry: serde::de_field(fields, "telemetry")?,
        })
    }
}

impl CampaignResult {
    /// Final coverage percentage.
    pub fn coverage_percent(&self) -> f64 {
        self.covered.percent(&self.universe)
    }

    /// Did the campaign expose a bug?
    pub fn detected(&self) -> bool {
        self.first_detection.is_some()
    }

    /// Build the machine-readable summary.
    pub fn summary(&self) -> CampaignSummary {
        CampaignSummary {
            first_detection: self.first_detection,
            bug: self.bug.as_ref().map(|b| b.symptom().code()),
            bug_detail: match &self.bug {
                Some(GoatVerdict::Crash { detail: Some(d), .. }) => Some(d.clone()),
                _ => None,
            },
            iterations: self
                .records
                .iter()
                .map(|r| (r.coverage_percent, r.universe_size, r.yields))
                .collect(),
            final_coverage_percent: self.coverage_percent(),
            covered: self.covered.len(),
            universe: self.universe.len(),
            quarantined: self.quarantined.clone(),
            skipped: self.skipped,
            saturated: self.saturated,
            guided: self.guided.clone(),
            telemetry: self.telemetry.clone(),
        }
    }

    /// Serialize the summary to JSON.
    ///
    /// # Errors
    /// Propagates `serde_json` failures (not expected for valid data).
    pub fn to_json_summary(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(&self.summary())
    }

    /// Return the buggy execution's trace buffer to the recycling pool.
    ///
    /// Non-bug traces are recycled as soon as their iteration is merged;
    /// the bug ECT is kept alive for report rendering instead. Call this
    /// once the report has been produced so campaign drivers that loop
    /// over many kernels reuse the buffer rather than reallocating.
    /// Skipping the call costs an allocation, never correctness.
    pub fn recycle_bug_trace(&mut self) {
        if let Some(ect) = self.bug_ect.take() {
            goat_trace::recycle_buffer(ect.into_events());
        }
    }
}

/// Everything a campaign accumulates, plus the single merge path the
/// campaign engine funnels every iteration through.
///
/// Merging is the *only* stateful step of a campaign (runs themselves
/// are independent), so routing every iteration — in strict iteration
/// order — through [`MergeState::merge_one`] is what makes the parallel
/// campaign byte-identical to the sequential one, including the
/// `stop_on_bug` and coverage-threshold early exits.
pub(crate) struct MergeState {
    pub(crate) universe: RequirementUniverse,
    pub(crate) covered: CoverageSet,
    global_tree: GlobalGTree,
    pub(crate) records: Vec<IterationRecord>,
    pub(crate) first_detection: Option<usize>,
    pub(crate) bug: Option<GoatVerdict>,
    bug_ect: Option<Ect>,
    bug_schedule: Option<goat_runtime::ReplayLog>,
    /// Scheduler counters summed over merged iterations (plain adds;
    /// packaged into [`CampaignTelemetry`] when collection is enabled).
    sched_totals: SchedCounters,
    yields_total: u64,
    /// Distribution of newly covered requirements per iteration.
    coverage_delta: Histogram,
    /// Consecutive iterations whose infra retries were exhausted.
    infra_streak: usize,
    /// Consecutive iterations that crashed (kernel panics).
    crash_streak: usize,
    /// Quarantine reason; `Some` stops the campaign.
    pub(crate) quarantined: Option<String>,
    /// Consecutive iterations with a zero coverage delta (feeds the
    /// saturation early stop).
    zero_delta_streak: usize,
    /// 1-based iteration at which saturation stopped the campaign.
    pub(crate) saturated: Option<usize>,
    /// Guided-mode bandit, shared with the executor's workers (they
    /// select arms; the merge loop records rewards). `None` when
    /// guided mode is off.
    pub(crate) guided: Option<Arc<StdMutex<Bandit>>>,
    /// Recycled analysis scratch (slot tables, coverage sets, tree
    /// slab) reused by every iteration's fused pass. Ephemeral like the
    /// histograms: not persisted in checkpoints. The suite orchestrator
    /// hands a finished campaign's grown scratch to the next kernel's
    /// merge state, so it is crate-visible.
    pub(crate) bufs: EctBuffers,
    /// Distribution of per-iteration fused-analysis time, nanoseconds.
    analysis_ns: Histogram,
    /// Analysis products stored per (schedule fingerprint, outcome) key.
    /// Ephemeral like the scratch buffers: not persisted in checkpoints
    /// (a resumed campaign rebuilds it as it merges, which costs only
    /// re-analysis time, never correctness).
    memo: HashMap<u64, MemoEntry>,
    /// Iterations whose analysis was served from the memo.
    memo_hits: u64,
    /// Iterations that ran the full analysis and seeded the memo.
    memo_misses: u64,
}

/// Everything a memo hit must replay: the products of one fused
/// analysis pass plus the verdict derived from them. Stored by value —
/// duplicate schedules on small kernels are frequent enough that the
/// clone at miss time is repaid many times over.
struct MemoEntry {
    tree: GTree,
    coverage: RunCoverage,
    verdict: GoatVerdict,
}

/// Campaign summary exported to the JSONL telemetry stream.
#[derive(serde::Serialize)]
struct CampaignEvent {
    kind: &'static str,
    program: String,
    first_detection: Option<usize>,
    final_coverage_percent: f64,
    telemetry: CampaignTelemetry,
}

/// Guided-mode arm selection + reward exported to the JSONL telemetry
/// stream, one event per merged iteration.
#[derive(serde::Serialize)]
struct GuidedEvent {
    kind: &'static str,
    iter: usize,
    seed: u64,
    arm: usize,
    strategy: String,
    yield_prob: f64,
    delay_bound: u32,
    delta: usize,
    covered: usize,
}

/// End-of-campaign per-arm bandit totals exported to the JSONL
/// telemetry stream (the JSONL mirror of the registry's
/// `guided.arm_pulls` / `guided.arm_new_coverage` counters).
#[derive(serde::Serialize)]
struct GuidedSummaryEvent {
    kind: &'static str,
    program: String,
    guided: crate::bandit::GuidedSummary,
}

/// Supervision decision (retry, quarantine, checkpoint) exported to the
/// JSONL telemetry stream.
#[derive(serde::Serialize)]
struct SupervisionEvent {
    kind: &'static str,
    op: &'static str,
    iter: usize,
    seed: u64,
    detail: String,
}

/// Backoff before retrying an infra-failed iteration: bounded
/// exponential (10 ms · 2^attempt, capped at 250 ms) plus deterministic
/// jitter derived from the iteration seed, so two campaigns never
/// produce different *results* from different sleep patterns — only
/// different wall-clock.
fn retry_backoff(seed: u64, attempt: u32) -> Duration {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let base_ms: u64 = (10u64 << attempt.min(5)).min(250);
    let mut rng =
        SmallRng::seed_from_u64(seed ^ u64::from(attempt + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let jitter = rng.gen_range(0..base_ms / 2 + 1);
    Duration::from_millis(base_ms + jitter)
}

/// Periodic checkpoint writer for one campaign; `None`-free wrapper
/// around the optional `GOAT_CHECKPOINT` sidecar.
pub(crate) struct Checkpointer {
    path: PathBuf,
    fingerprint: String,
    every: usize,
    since_write: usize,
}

impl Checkpointer {
    pub(crate) fn new(cfg: &GoatConfig, program_name: &str) -> Option<Self> {
        let path = cfg.checkpoint.clone()?;
        Some(Checkpointer {
            fingerprint: checkpoint::fingerprint(program_name, cfg),
            path,
            every: cfg.checkpoint_every.max(1),
            since_write: 0,
        })
    }

    /// Load an existing checkpoint into the merge state, returning the
    /// iteration index to resume from (0 for a fresh campaign). An
    /// unusable sidecar is reported and ignored — starting over is
    /// always sound, silently corrupting results never is.
    pub(crate) fn resume(&self, m: &mut MergeState) -> usize {
        match CampaignCheckpoint::load(&self.path, &self.fingerprint) {
            Ok(Some(cp)) => {
                let completed = cp.completed;
                m.restore(cp);
                goat_metrics::global().counter("supervision.checkpoint_resumes").inc();
                completed
            }
            Ok(None) => 0,
            Err(e) => {
                eprintln!(
                    "goat: ignoring unusable checkpoint {}: {e}; starting over",
                    self.path.display()
                );
                0
            }
        }
    }

    pub(crate) fn note_merged(&mut self, m: &MergeState) {
        self.since_write += 1;
        if self.since_write >= self.every {
            self.write(m);
        }
    }

    pub(crate) fn finalize(&mut self, m: &MergeState) {
        self.write(m);
    }

    fn write(&mut self, m: &MergeState) {
        self.since_write = 0;
        match m.snapshot(self.fingerprint.clone()).store(&self.path) {
            Ok(()) => {
                goat_metrics::global().counter("supervision.checkpoint_writes").inc();
            }
            // A failed write costs durability, not correctness — the
            // campaign must keep running.
            Err(e) => eprintln!("goat: checkpoint write failed ({e}); campaign continues"),
        }
    }
}

/// Per-iteration coverage-growth record exported to the JSONL
/// telemetry stream.
#[derive(serde::Serialize)]
struct CoverageEvent {
    kind: &'static str,
    iter: usize,
    seed: u64,
    covered: usize,
    delta: usize,
    universe: usize,
    percent: f64,
}

impl MergeState {
    pub(crate) fn new(table: CuTable) -> Self {
        MergeState {
            universe: RequirementUniverse::from_table(table),
            covered: CoverageSet::new(),
            global_tree: GlobalGTree::new(),
            records: Vec::new(),
            first_detection: None,
            bug: None,
            bug_ect: None,
            bug_schedule: None,
            sched_totals: SchedCounters::default(),
            yields_total: 0,
            coverage_delta: Histogram::default(),
            infra_streak: 0,
            crash_streak: 0,
            quarantined: None,
            zero_delta_streak: 0,
            saturated: None,
            guided: None,
            bufs: EctBuffers::new(),
            analysis_ns: Histogram::default(),
            memo: HashMap::new(),
            memo_hits: 0,
            memo_misses: 0,
        }
    }

    /// Serialize the accumulated state for the checkpoint sidecar.
    fn snapshot(&self, fingerprint: String) -> CampaignCheckpoint {
        CampaignCheckpoint {
            version: checkpoint::CHECKPOINT_VERSION,
            fingerprint,
            completed: self.records.len(),
            records: self.records.clone(),
            first_detection: self.first_detection,
            bug: self.bug.clone(),
            bug_ect: self.bug_ect.clone(),
            bug_schedule: self.bug_schedule.clone(),
            universe: self.universe.clone(),
            covered: self.covered.clone(),
            global_tree: self.global_tree.clone(),
            sched_totals: self.sched_totals,
            yields_total: self.yields_total,
            infra_streak: self.infra_streak,
            crash_streak: self.crash_streak,
            quarantined: self.quarantined.clone(),
            zero_delta_streak: self.zero_delta_streak,
            saturated: self.saturated,
            guided_rewards: self
                .guided
                .as_ref()
                .map(|b| b.lock().expect("bandit").rewards().to_vec())
                .unwrap_or_default(),
        }
    }

    /// Adopt a loaded checkpoint as the merge state; the campaign then
    /// continues from iteration index `completed`. The coverage-delta
    /// histogram is telemetry-only and intentionally not persisted.
    fn restore(&mut self, cp: CampaignCheckpoint) {
        self.universe = cp.universe;
        self.covered = cp.covered;
        self.global_tree = cp.global_tree;
        self.records = cp.records;
        self.first_detection = cp.first_detection;
        self.bug = cp.bug;
        self.bug_ect = cp.bug_ect;
        self.bug_schedule = cp.bug_schedule;
        self.sched_totals = cp.sched_totals;
        self.yields_total = cp.yields_total;
        self.infra_streak = cp.infra_streak;
        self.crash_streak = cp.crash_streak;
        self.quarantined = cp.quarantined;
        self.zero_delta_streak = cp.zero_delta_streak;
        self.saturated = cp.saturated;
        if let Some(b) = &self.guided {
            b.lock().expect("bandit").restore(cp.guided_rewards);
        }
    }

    /// Fold iteration `iter_no`'s result into the campaign; returns
    /// `true` when the campaign must stop (bug with `stop_on_bug`, or
    /// coverage threshold reached).
    pub(crate) fn merge_one(
        &mut self,
        cfg: &GoatConfig,
        iter_no: usize,
        mut result: goat_runtime::RunResult,
    ) -> bool {
        // One fused pass over the trace produces the goroutine tree and
        // the run's coverage together; the tree then feeds the verdict,
        // so the ECT is walked exactly once per iteration. The universe
        // sees CU/case discoveries in the same event order as the legacy
        // multi-pass pipeline, keeping reports byte-identical.
        //
        // Memoization on top: a run whose (schedule fingerprint,
        // outcome) was seen before produced the same trace modulo
        // timestamps, so its analysis products are already stored.
        // A hit replays the stored merge and verdict; the universe is
        // untouched, which is exactly what re-analyzing would do —
        // every discovery of a duplicate schedule is idempotent.
        let t_analysis = Instant::now();
        let key = if cfg.memo != MemoMode::Off && result.ect.is_some() {
            Some(memo_key(result.fingerprint, &result.outcome))
        } else {
            None
        };
        let hit = key.is_some_and(|k| self.memo.contains_key(&k));
        let (analysis, verdict) = if hit && cfg.memo != MemoMode::Verify {
            self.memo_hits += 1;
            (None, self.memo[&key.expect("hit implies key")].verdict.clone())
        } else {
            let analysis =
                result.ect.as_ref().map(|ect| self.bufs.analyze(ect, &mut self.universe, false));
            let verdict = analyze_run_with(&result, analysis.as_ref().map(|a| &a.tree));
            if let (Some(k), Some(a)) = (key, analysis.as_ref()) {
                if hit {
                    // MemoMode::Verify: duplicates are re-analyzed and
                    // the stored products must agree exactly.
                    self.memo_hits += 1;
                    let entry = &self.memo[&k];
                    assert_eq!(entry.verdict, verdict, "memo verify: verdict diverged");
                    assert_eq!(entry.tree, a.tree, "memo verify: goroutine tree diverged");
                    assert!(
                        entry.coverage.covered == a.coverage.covered
                            && entry.coverage.per_g == a.coverage.per_g,
                        "memo verify: coverage diverged"
                    );
                } else {
                    self.memo_misses += 1;
                    self.memo.insert(
                        k,
                        MemoEntry {
                            tree: a.tree.clone(),
                            coverage: a.coverage.clone(),
                            verdict: verdict.clone(),
                        },
                    );
                }
            }
            (analysis, verdict)
        };
        // Supervision accounting: consecutive failures degrade a
        // repeatedly-failing kernel to skipped-with-reason instead of
        // grinding the remaining budget. Infra failures reach this point
        // only after `supervise_from` exhausted its retries.
        if let RunOutcome::InfraFailure { reason } = &result.outcome {
            self.infra_streak += 1;
            // An infra-failed iteration did not crash, so it breaks a
            // crash streak: "consecutive crashed iterations" means
            // literally consecutive.
            self.crash_streak = 0;
            if cfg.quarantine_after > 0 && self.infra_streak >= cfg.quarantine_after as usize {
                self.quarantined = Some(format!(
                    "{} consecutive infra failures (last: {reason})",
                    self.infra_streak
                ));
            }
        } else {
            self.infra_streak = 0;
            if matches!(verdict, GoatVerdict::Crash { .. }) {
                self.crash_streak += 1;
                if cfg.quarantine_crashes > 0
                    && self.crash_streak >= cfg.quarantine_crashes as usize
                {
                    self.quarantined = Some(format!(
                        "{} consecutive crashed iterations ({verdict})",
                        self.crash_streak
                    ));
                }
            } else {
                self.crash_streak = 0;
            }
        }
        let covered_before = self.covered.len();
        if let Some(a) = analysis {
            self.covered.merge(&a.coverage.covered);
            self.global_tree.merge_run(&a.tree, &a.coverage);
            // Coverage sets flow back into the scratch pool for the
            // next iteration.
            self.bufs.reclaim(a.coverage);
        } else if hit {
            // Memo hit: replay the stored products. The entry stays in
            // the map, so nothing is reclaimed here.
            let entry = &self.memo[&key.expect("hit implies key")];
            self.covered.merge(&entry.coverage.covered);
            self.global_tree.merge_run(&entry.tree, &entry.coverage);
        }
        // Hits record too: the histogram's count stays one-per-iteration
        // (pinned by the telemetry snapshot test); a hit just lands in
        // the cheap buckets.
        self.analysis_ns.record(t_analysis.elapsed().as_nanos() as u64);
        self.sched_totals.accumulate(&result.sched);
        self.yields_total += u64::from(result.yields_injected);
        // One percent computation per iteration, shared by the record
        // and the threshold check below. The delta feeds the guided
        // bandit and the saturation streak, so it is computed whether or
        // not telemetry is on.
        let percent = self.covered.percent(&self.universe);
        let delta = self.covered.len() - covered_before;
        if delta == 0 {
            self.zero_delta_streak += 1;
        } else {
            self.zero_delta_streak = 0;
        }
        if goat_metrics::enabled() {
            self.coverage_delta.record(delta as u64);
            goat_metrics::emit(&CoverageEvent {
                kind: "coverage",
                iter: iter_no + 1,
                seed: cfg.seed0 + iter_no as u64,
                covered: self.covered.len(),
                delta,
                universe: self.universe.len(),
                percent,
            });
        }
        let is_bug = verdict.is_bug();
        self.records.push(IterationRecord {
            iter: iter_no + 1,
            seed: cfg.seed0 + iter_no as u64,
            verdict: verdict.clone(),
            coverage_percent: percent,
            universe_size: self.universe.len(),
            yields: result.yields_injected,
        });
        // Guided feedback: attribute the delta to the arm this iteration
        // ran under. `select` is a pure function of the lagged reward
        // prefix, so recomputing it here yields exactly the arm the
        // executor used — no plumbing through the result channel.
        if let Some(bandit) = &self.guided {
            let mut bandit = bandit.lock().expect("bandit");
            let arm_idx = bandit.select(iter_no);
            bandit.record(iter_no, arm_idx, delta as u64, is_bug);
            let arm = bandit.arms()[arm_idx];
            if goat_metrics::enabled() {
                let label = format!("arm{arm_idx}:{}", arm.strategy);
                goat_metrics::global().counter_with("guided.arm_pulls", Some(&label)).inc();
                goat_metrics::global()
                    .counter_with("guided.arm_new_coverage", Some(&label))
                    .add(delta as u64);
                goat_metrics::emit(&GuidedEvent {
                    kind: "guided",
                    iter: iter_no + 1,
                    seed: cfg.seed0 + iter_no as u64,
                    arm: arm_idx,
                    strategy: arm.strategy.to_string(),
                    yield_prob: arm.yield_prob,
                    delay_bound: arm.delay_bound,
                    delta,
                    covered: self.covered.len(),
                });
            }
        }
        if is_bug && self.first_detection.is_none() {
            self.first_detection = Some(iter_no + 1);
            self.bug = Some(verdict);
            self.bug_ect = result.ect.take();
            self.bug_schedule = Some(result.schedule);
            if cfg.stop_on_bug {
                return true;
            }
        }
        // Analysis is done with this trace; its event buffer goes back
        // to the recycling pool for a future iteration. (Bug traces were
        // moved into `bug_ect` above and stay alive.)
        if let Some(ect) = result.ect.take() {
            goat_trace::recycle_buffer(ect.into_events());
        }
        if let Some(th) = cfg.coverage_threshold {
            if percent >= th {
                return true;
            }
        }
        if let Some(reason) = &self.quarantined {
            goat_metrics::global().counter("supervision.quarantines").inc();
            if goat_metrics::enabled() {
                goat_metrics::emit(&SupervisionEvent {
                    kind: "supervision",
                    op: "quarantine",
                    iter: iter_no + 1,
                    seed: cfg.seed0 + iter_no as u64,
                    detail: reason.clone(),
                });
            }
            return true;
        }
        // Saturation: the coverage signal has been dry for a full
        // window — further budget is unlikely to discover anything new.
        if let Some(window) = cfg.saturation_window {
            if self.zero_delta_streak >= window {
                self.saturated = Some(iter_no + 1);
                if goat_metrics::enabled() {
                    goat_metrics::emit(&SupervisionEvent {
                        kind: "supervision",
                        op: "saturated",
                        iter: iter_no + 1,
                        seed: cfg.seed0 + iter_no as u64,
                        detail: format!("no new coverage for {window} consecutive iterations"),
                    });
                }
                return true;
            }
        }
        false
    }

    fn finish(self, skipped: usize, telemetry: Option<CampaignTelemetry>) -> CampaignResult {
        let guided = self.guided.as_ref().map(|b| b.lock().expect("bandit").summary());
        CampaignResult {
            records: self.records,
            first_detection: self.first_detection,
            bug: self.bug,
            bug_ect: self.bug_ect,
            bug_schedule: self.bug_schedule,
            universe: self.universe,
            covered: self.covered,
            global_tree: self.global_tree,
            quarantined: self.quarantined,
            skipped,
            saturated: self.saturated,
            guided,
            telemetry,
        }
    }
}

/// The GoAT tool: drives instrumented executions of a program.
#[derive(Debug, Clone, Default)]
pub struct Goat {
    cfg: GoatConfig,
}

impl Goat {
    /// Create a tool instance with the given campaign configuration.
    pub fn new(cfg: GoatConfig) -> Self {
        Goat { cfg }
    }

    /// The campaign configuration.
    pub fn config(&self) -> &GoatConfig {
        &self.cfg
    }

    /// Build the static model `M` for a program by scanning its sources.
    /// Programs without source metadata get an empty table (CUs are then
    /// discovered dynamically, which the universe supports).
    pub fn static_model(program: &dyn Program) -> CuTable {
        let sources = program.sources();
        if sources.is_empty() {
            return CuTable::new();
        }
        scan_sources(sources.iter()).unwrap_or_default()
    }

    /// Run a full testing campaign on `program`.
    ///
    /// The campaign is a suite of one on the campaign engine
    /// ([`crate::suite`]): [`GoatConfig::parallelism`] long-lived
    /// workers claim seed-indexed iterations from a shared queue and a
    /// reorder buffer merges their results in strict iteration order.
    /// Because every iteration's seed is fixed up front and merging is
    /// the only stateful step, the outcome is byte-identical at any
    /// parallelism — including `stop_on_bug` and coverage-threshold
    /// early exits. [`GoatConfig::checkpoint`] is used exactly as given,
    /// and the bug trace stays in the result for report rendering.
    pub fn test(&self, program: Arc<dyn Program>) -> CampaignResult {
        if goat_metrics::enabled() {
            goat_metrics::set_context(Some(program.name()));
        }
        let mut result = None;
        crate::suite::run_campaigns(
            vec![(self.clone(), program)],
            self.cfg.parallelism,
            None,
            &mut |_, r| result = Some(r),
        );
        result.expect("the engine finishes every campaign")
    }

    /// Guided arm selection for iteration `i` — `None` when guided mode
    /// is off (the base configuration runs unchanged).
    pub(crate) fn select_arm(guided: &Option<Arc<StdMutex<Bandit>>>, i: usize) -> Option<Arm> {
        guided.as_ref().map(|b| {
            let bandit = b.lock().expect("bandit");
            bandit.arms()[bandit.select(i)]
        })
    }

    /// Execute the contiguous iterations `lo..lo + arms.len()` and pass
    /// their supervised results to `sink` in order, each as soon as it
    /// exists (an abandoned worker's finished prefix is still
    /// delivered).
    pub(crate) fn run_batch_supervised(
        &self,
        lo: usize,
        program: &Arc<dyn Program>,
        arms: &[Option<Arm>],
        sink: &mut dyn FnMut(goat_runtime::RunResult),
    ) {
        self.execute(program, self.batch_runs(lo, arms), &mut |k, r| {
            sink(self.supervise_from(lo + k, program, arms[k], r));
        });
    }

    /// The (iteration number, config) of each run of the iterations
    /// `lo..lo + arms.len()`.
    pub(crate) fn batch_runs(&self, lo: usize, arms: &[Option<Arm>]) -> Vec<(u64, Config)> {
        arms.iter()
            .enumerate()
            .map(|(k, arm)| ((lo + k + 1) as u64, self.cfg.runtime_config(lo + k, arm.as_ref())))
            .collect()
    }

    /// Execute `runs` (iteration number, config) in order and pass each
    /// result to `each` with its index as soon as it exists. Under
    /// process isolation the runs ship to one sandboxed worker
    /// subprocess as a single frame burst ([`crate::isolate::run_batch`])
    /// and come back byte-identical to in-process runs. When isolation
    /// is off or unavailable — the worker binary cannot be spawned, or
    /// the program is not resolvable by name in a separate process —
    /// they execute in-process, which preserves results exactly.
    fn execute(
        &self,
        program: &Arc<dyn Program>,
        runs: Vec<(u64, Config)>,
        each: &mut dyn FnMut(usize, RunResult),
    ) {
        if self.cfg.isolate == crate::isolate::IsolateMode::Proc {
            let worker_cmd = self.cfg.worker_cmd.as_deref();
            if let Some(results) = crate::isolate::run_batch(worker_cmd, program.name(), &runs) {
                results.into_iter().enumerate().for_each(|(k, r)| each(k, r));
                return;
            }
        }
        for (k, (_, cfg)) in runs.into_iter().enumerate() {
            each(k, Runtime::run(cfg, instrumented(Arc::clone(program))));
        }
    }

    /// Supervise iteration `i` from its first result: when the
    /// *infrastructure* (not the kernel) failed — pool checkout, thread
    /// spawn, a broken worker stream — retry up to
    /// [`GoatConfig::max_retries`] times with deterministic backoff,
    /// through the same isolation path. Anything else — including kernel
    /// crashes, hangs and timeouts — is a result, never retried.
    pub(crate) fn supervise_from(
        &self,
        i: usize,
        program: &Arc<dyn Program>,
        arm: Option<Arm>,
        mut result: goat_runtime::RunResult,
    ) -> goat_runtime::RunResult {
        let mut attempt: u32 = 0;
        loop {
            let RunOutcome::InfraFailure { reason } = &result.outcome else { return result };
            if attempt >= self.cfg.max_retries {
                return result;
            }
            let backoff = retry_backoff(self.cfg.seed0 + i as u64, attempt);
            goat_metrics::global().counter("supervision.retries").inc();
            if goat_metrics::enabled() {
                goat_metrics::emit(&SupervisionEvent {
                    kind: "supervision",
                    op: "retry",
                    iter: i + 1,
                    seed: self.cfg.seed0 + i as u64,
                    detail: format!(
                        "attempt {} failed ({reason}); backing off {} ms",
                        attempt + 1,
                        backoff.as_millis()
                    ),
                });
            }
            std::thread::sleep(backoff);
            attempt += 1;
            let run = vec![((i + 1) as u64, self.cfg.runtime_config(i, arm.as_ref()))];
            self.execute(program, run, &mut |_, r| result = r);
        }
    }

    /// Package the merge state into a [`CampaignResult`]; when telemetry
    /// is enabled (`t_campaign` is `Some`), attach a
    /// [`CampaignTelemetry`] block, bump the global registry and emit
    /// the campaign summary to the JSONL stream.
    pub(crate) fn finish_campaign(
        &self,
        m: MergeState,
        program: &dyn Program,
        t_campaign: Option<Instant>,
        iter_wall: &Histogram,
        claim_wait: &Histogram,
        reorder_depth_max: usize,
    ) -> CampaignResult {
        // Quarantine is the only way budgeted iterations are *skipped*
        // (early exits on bug/threshold are successes, not skips).
        let skipped = if m.quarantined.is_some() {
            self.cfg.iterations.saturating_sub(m.records.len())
        } else {
            0
        };
        let Some(t0) = t_campaign else { return m.finish(skipped, None) };
        let telemetry = CampaignTelemetry {
            parallelism: self.cfg.parallelism,
            iterations: m.records.len(),
            wall_ns: t0.elapsed().as_nanos() as u64,
            iter_wall_ns: iter_wall.snapshot(),
            claim_wait_ns: claim_wait.snapshot(),
            reorder_depth_max,
            sched: m.sched_totals,
            yields_injected: m.yields_total,
            coverage_delta: m.coverage_delta.snapshot(),
            analysis_ns: m.analysis_ns.snapshot(),
            memo_hits: m.memo_hits,
            memo_misses: m.memo_misses,
            pool: goat_runtime::pool::stats(),
            trace_pool: goat_trace::recycle::stats(),
        };
        let reg = goat_metrics::global();
        reg.counter("campaigns").inc();
        reg.counter_with("campaign.iterations", Some(program.name()))
            .add(telemetry.iterations as u64);
        reg.gauge("campaign.reorder_depth_max").set(reorder_depth_max as i64);
        reg.counter("campaign.memo_hits").add(m.memo_hits);
        reg.counter("campaign.memo_misses").add(m.memo_misses);
        let result = m.finish(skipped, Some(telemetry.clone()));
        if let Some(g) = &result.guided {
            goat_metrics::emit(&GuidedSummaryEvent {
                kind: "guided_summary",
                program: program.name().to_string(),
                guided: g.clone(),
            });
        }
        goat_metrics::emit(&CampaignEvent {
            kind: "campaign",
            program: program.name().to_string(),
            first_detection: result.first_detection,
            final_coverage_percent: result.coverage_percent(),
            telemetry,
        });
        goat_metrics::flush();
        result
    }

    /// Re-execute `program` forcing a previously recorded schedule and
    /// re-analyse the run — deterministic bug reproduction from a
    /// [`CampaignResult::bug_schedule`].
    pub fn replay(
        program: Arc<dyn Program>,
        schedule: goat_runtime::ReplayLog,
    ) -> (GoatVerdict, goat_runtime::RunResult) {
        let cfg = Config::new(0).with_trace(true).with_replay(schedule);
        let result = Runtime::run(cfg, instrumented(program));
        (analyze_run(&result), result)
    }
}

/// GoAT exposed through the common [`Detector`] interface so the
/// evaluation harness can sweep GOAT-D0…D4 alongside the baselines.
#[derive(Debug, Clone, Copy)]
pub struct GoatTool {
    /// The delay bound `D`.
    pub delay_bound: u32,
}

impl GoatTool {
    /// GOAT with delay bound `d`.
    pub fn new(d: u32) -> Self {
        GoatTool { delay_bound: d }
    }
}

impl Detector for GoatTool {
    fn name(&self) -> &'static str {
        match self.delay_bound {
            0 => "goat-d0",
            1 => "goat-d1",
            2 => "goat-d2",
            3 => "goat-d3",
            4 => "goat-d4",
            _ => "goat",
        }
    }

    fn run_once(&self, cfg: Config, program: ProgramFn) -> ToolVerdict {
        let cfg = cfg.with_delay_bound(self.delay_bound).with_trace(true);
        let result = Runtime::run(cfg, move || program());
        let verdict = analyze_run(&result);
        ToolVerdict {
            detected: verdict.is_bug(),
            symptom: verdict.symptom(),
            detail: verdict.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::FnProgram;
    use goat_detectors::Symptom;
    use goat_runtime::{go_named, gosched, Chan, Mutex};

    fn leaky_program() -> Arc<dyn Program> {
        Arc::new(FnProgram::new("leaky", || {
            let ch: Chan<u8> = Chan::new(0);
            go_named("stuck", move || {
                ch.recv();
            });
            gosched();
        }))
    }

    fn clean_program() -> Arc<dyn Program> {
        Arc::new(FnProgram::new("clean", || {
            let ch: Chan<u8> = Chan::new(0);
            let tx = ch.clone();
            go_named("tx", move || tx.send(1));
            ch.recv();
        }))
    }

    #[test]
    fn campaign_detects_deterministic_leak_first_try() {
        let goat = Goat::new(GoatConfig::default().with_iterations(10));
        let r = goat.test(leaky_program());
        assert_eq!(r.first_detection, Some(1));
        assert!(matches!(r.bug, Some(GoatVerdict::PartialDeadlock { .. })));
        assert_eq!(r.records.len(), 1, "stopped on bug");
        assert!(r.bug_ect.is_some());
    }

    #[test]
    fn campaign_on_clean_program_exhausts_iterations() {
        let goat = Goat::new(GoatConfig::default().with_iterations(5));
        let r = goat.test(clean_program());
        assert!(!r.detected());
        assert_eq!(r.records.len(), 5);
        assert!(r.coverage_percent() > 0.0);
    }

    #[test]
    fn coverage_accumulates_monotonically() {
        let goat = Goat::new(GoatConfig::default().with_iterations(8).keep_running());
        let r = goat.test(clean_program());
        let mut last = 0.0;
        for rec in &r.records {
            // percentage can dip when the universe grows, but covered
            // count never shrinks — check via coverage set length proxy:
            assert!(rec.coverage_percent >= 0.0 && rec.coverage_percent <= 100.0);
            let _ = last;
            last = rec.coverage_percent;
        }
        assert!(!r.covered.is_empty());
        assert!(r.global_tree.len() >= 2);
    }

    #[test]
    fn coverage_threshold_stops_campaign() {
        let mut cfg = GoatConfig::default().with_iterations(50);
        cfg.coverage_threshold = Some(1.0); // trivially reached
        let goat = Goat::new(cfg);
        let r = goat.test(clean_program());
        assert!(r.records.len() < 50);
    }

    #[test]
    fn delay_bound_injects_yields() {
        // Yield injection is a property of the native strategy; pin it
        // so a GOAT_STRATEGY=pct environment doesn't hollow the test.
        let goat = Goat::new(
            GoatConfig::default()
                .with_delay_bound(3)
                .with_iterations(5)
                .with_strategy(StrategyKind::Native)
                .keep_running(),
        );
        let r = goat.test(clean_program());
        assert!(r.records.iter().any(|rec| rec.yields > 0));
        assert!(r.records.iter().all(|rec| rec.yields <= 3));
    }

    #[test]
    fn goat_tool_as_detector() {
        let tool = GoatTool::new(0);
        assert_eq!(tool.name(), "goat-d0");
        let v = tool.run_once(
            Config::new(1).with_native_preempt_prob(0.0),
            Arc::new(|| {
                let ch: Chan<u8> = Chan::new(0);
                go_named("stuck", move || {
                    ch.recv();
                });
                gosched();
            }),
        );
        assert!(v.detected);
        assert_eq!(v.symptom, Symptom::PartialDeadlock { leaked: 1 });
    }

    #[test]
    fn goat_detects_what_builtin_misses() {
        use goat_detectors::BuiltinDetector;
        let prog: ProgramFn = Arc::new(|| {
            let ch: Chan<u8> = Chan::new(0);
            go_named("stuck", move || {
                ch.recv();
            });
            gosched();
        });
        let b = BuiltinDetector::new()
            .run_once(Config::new(1).with_native_preempt_prob(0.0), Arc::clone(&prog));
        let g = GoatTool::new(0).run_once(Config::new(1).with_native_preempt_prob(0.0), prog);
        assert!(!b.detected, "builtin misses the leak");
        assert!(g.detected, "GoAT sees it in the trace");
    }

    #[test]
    fn seeds_differ_across_iterations() {
        let goat = Goat::new(GoatConfig::default().with_iterations(3).keep_running());
        let r = goat.test(clean_program());
        let seeds: Vec<u64> = r.records.iter().map(|x| x.seed).collect();
        assert_eq!(seeds, vec![1, 2, 3]);
    }

    #[test]
    fn bug_schedule_replays_to_the_same_verdict() {
        // A schedule-dependent bug: find it once, then re-trigger it
        // deterministically from the recorded schedule.
        let program: Arc<dyn Program> = Arc::new(FnProgram::new("racy", || {
            let mu = Mutex::new();
            let ch: Chan<u8> = Chan::new(0);
            {
                let (mu, ch) = (mu.clone(), ch.clone());
                go_named("monitor", move || loop {
                    let got = goat_runtime::Select::new().recv(&ch, |v| v).default(|| None).run();
                    if got.is_some() {
                        return;
                    }
                    mu.lock();
                    mu.unlock();
                });
            }
            {
                let (mu, ch) = (mu.clone(), ch.clone());
                go_named("changer", move || {
                    mu.lock();
                    ch.send(1);
                    mu.unlock();
                });
            }
            goat_runtime::time::sleep(std::time::Duration::from_millis(30));
        }));
        let goat = Goat::new(GoatConfig::default().with_iterations(200));
        let result = goat.test(Arc::clone(&program));
        let bug = result.bug.clone().expect("bug found");
        let schedule = result.bug_schedule.expect("schedule recorded");
        for _ in 0..3 {
            let (verdict, run) = Goat::replay(Arc::clone(&program), schedule.clone());
            assert!(!run.replay_diverged, "replay must follow the log");
            assert_eq!(verdict, bug, "replay must reproduce the bug");
        }
    }

    #[test]
    fn watcher_goroutine_is_traced_but_filtered() {
        // Run one instrumented execution directly to inspect its trace.
        let result =
            goat_runtime::Runtime::run(goat_runtime::Config::new(1), instrumented(clean_program()));
        let verdict = analyze_run(&result);
        let ect = result.ect.expect("traced");
        let tree = goat_trace::GTree::from_ect(&ect);
        let watcher = tree
            .nodes()
            .find(|n| n.name == "goat::watcher")
            .expect("watcher present in the raw tree");
        assert!(watcher.internal);
        assert!(
            tree.app_nodes().iter().all(|n| n.name != "goat::watcher"),
            "watcher must be filtered from application-level analysis"
        );
        // And the offline verdict ignores it even though it may leak.
        assert_eq!(verdict, GoatVerdict::Pass);
    }

    #[test]
    fn parallel_campaign_matches_sequential_results() {
        let seq = Goat::new(GoatConfig::default().with_iterations(12).keep_running())
            .test(clean_program());
        let par =
            Goat::new(GoatConfig::default().with_iterations(12).keep_running().with_parallelism(4))
                .test(clean_program());
        assert_eq!(seq.records.len(), par.records.len());
        for (a, b) in seq.records.iter().zip(par.records.iter()) {
            assert_eq!(a.seed, b.seed);
            assert_eq!(a.verdict, b.verdict);
            assert_eq!(a.yields, b.yields);
        }
        assert_eq!(seq.covered.len(), par.covered.len());
        assert_eq!(seq.universe.len(), par.universe.len());
        assert!((seq.coverage_percent() - par.coverage_percent()).abs() < 1e-9);
    }

    #[test]
    fn parallel_campaign_finds_the_same_first_bug() {
        let seq = Goat::new(GoatConfig::default().with_iterations(50)).test(leaky_program());
        let par = Goat::new(GoatConfig::default().with_iterations(50).with_parallelism(8))
            .test(leaky_program());
        assert_eq!(seq.first_detection, par.first_detection);
        assert_eq!(seq.bug, par.bug);
    }

    #[test]
    fn campaign_summary_serializes() {
        let goat = Goat::new(GoatConfig::default().with_iterations(4).keep_running());
        let r = goat.test(clean_program());
        let json = r.to_json_summary().expect("serializable");
        assert!(json.contains("final_coverage_percent"), "{json}");
        let parsed: CampaignSummary = serde_json::from_str(&json).expect("roundtrip");
        assert_eq!(parsed.iterations.len(), 4);
        assert_eq!(parsed.first_detection, None);
        assert!(parsed.universe >= parsed.covered);
    }

    fn crashing_program() -> Arc<dyn Program> {
        Arc::new(FnProgram::new("crashy", || {
            let ch: Chan<u8> = Chan::new(0);
            ch.close();
            ch.send(1); // send on closed channel panics every run
        }))
    }

    #[test]
    fn repeated_crashes_quarantine_the_kernel() {
        let goat = Goat::new(
            GoatConfig::default().with_iterations(10).keep_running().with_quarantine_crashes(2),
        );
        let r = goat.test(crashing_program());
        assert_eq!(r.records.len(), 2, "stopped at the crash streak");
        assert!(r.records.iter().all(|rec| matches!(rec.verdict, GoatVerdict::Crash { .. })));
        let reason = r.quarantined.as_deref().expect("quarantined");
        assert!(reason.contains("2 consecutive crashed iterations"), "{reason}");
        assert_eq!(r.skipped, 8, "remaining budget reported as skipped");
        let json = r.to_json_summary().expect("serializable");
        assert!(json.contains("\"quarantined\""), "{json}");
        assert!(json.contains("\"skipped\""), "{json}");
        let parsed: CampaignSummary = serde_json::from_str(&json).expect("roundtrip");
        assert_eq!(parsed.skipped, 8);
        assert!(parsed.quarantined.is_some());
    }

    #[test]
    fn crash_quarantine_off_by_default() {
        let goat = Goat::new(GoatConfig::default().with_iterations(4).keep_running());
        let r = goat.test(crashing_program());
        assert_eq!(r.records.len(), 4, "crashes are recorded, not skipped");
        assert!(r.quarantined.is_none());
        assert_eq!(r.skipped, 0);
        let json = r.to_json_summary().expect("serializable");
        assert!(!json.contains("quarantined"), "healthy schema unchanged: {json}");
        assert!(!json.contains("skipped"), "healthy schema unchanged: {json}");
    }

    #[test]
    fn parallel_quarantine_matches_sequential() {
        let cfg =
            GoatConfig::default().with_iterations(12).keep_running().with_quarantine_crashes(3);
        let seq = Goat::new(cfg.clone()).test(crashing_program());
        let par = Goat::new(cfg.with_parallelism(4)).test(crashing_program());
        assert_eq!(seq.records.len(), par.records.len());
        assert_eq!(seq.quarantined, par.quarantined);
        assert_eq!(seq.skipped, par.skipped);
    }

    fn checkpoint_path(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("goat-runner-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmpdir");
        dir.join(format!("{tag}.json"))
    }

    #[test]
    fn checkpoint_resume_is_byte_identical() {
        let path = checkpoint_path("resume");
        let _ = std::fs::remove_file(&path);
        let base = GoatConfig::default().with_iterations(20).with_seed0(5).keep_running();

        let full = Goat::new(base.clone()).test(clean_program());

        // Interrupted campaign: only 7 of the 20 iterations ran before
        // "the kill" (the checkpoint fingerprint deliberately ignores
        // the iteration budget, so a shortened budget models a mid-
        // flight kill whose last checkpoint landed after iteration 7).
        Goat::new(base.clone().with_iterations(7).with_checkpoint(&path).with_checkpoint_every(1))
            .test(clean_program());
        let resumed = Goat::new(base.with_checkpoint(&path)).test(clean_program());

        assert_eq!(
            full.to_json_summary().expect("full"),
            resumed.to_json_summary().expect("resumed"),
            "resumed campaign must be byte-identical to the uninterrupted one"
        );
        assert_eq!(full.records.len(), resumed.records.len());
        for (a, b) in full.records.iter().zip(resumed.records.iter()) {
            assert_eq!(a.seed, b.seed);
            assert_eq!(a.verdict, b.verdict);
            assert_eq!(a.coverage_percent.to_bits(), b.coverage_percent.to_bits());
        }
        assert_eq!(full.global_tree.render(), resumed.global_tree.render());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpoint_resume_skips_completed_campaign() {
        let path = checkpoint_path("completed");
        let _ = std::fs::remove_file(&path);
        let cfg = GoatConfig::default().with_iterations(5).keep_running().with_checkpoint(&path);
        let first = Goat::new(cfg.clone()).test(clean_program());
        // Same budget again: everything is restored, nothing re-runs.
        let again = Goat::new(cfg).test(clean_program());
        assert_eq!(
            first.to_json_summary().expect("first"),
            again.to_json_summary().expect("again")
        );
        // A lone campaign uses its sidecar as given: no suite manifest.
        assert!(path.exists(), "campaign sidecar missing");
        assert!(
            !crate::suite::suite_manifest_path(&path).exists(),
            "Goat::test must not write a suite manifest"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpoint_resume_preserves_stop_on_bug() {
        let path = checkpoint_path("stop-on-bug");
        let _ = std::fs::remove_file(&path);
        let cfg = GoatConfig::default().with_iterations(10).with_checkpoint(&path);
        let first = Goat::new(cfg.clone()).test(leaky_program());
        assert_eq!(first.first_detection, Some(1));
        let resumed = Goat::new(cfg).test(leaky_program());
        assert_eq!(resumed.first_detection, Some(1));
        assert_eq!(resumed.records.len(), first.records.len(), "no extra iterations ran");
        assert_eq!(resumed.bug, first.bug);
        assert!(resumed.bug_schedule.is_some(), "replay evidence survives the roundtrip");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn stale_checkpoint_is_ignored() {
        let path = checkpoint_path("stale");
        let _ = std::fs::remove_file(&path);
        // Checkpoint written by a campaign with a different seed…
        Goat::new(GoatConfig::default().with_iterations(3).with_seed0(42).with_checkpoint(&path))
            .test(clean_program());
        // …must not poison a campaign with different parameters.
        let r = Goat::new(
            GoatConfig::default()
                .with_iterations(4)
                .with_seed0(7)
                .keep_running()
                .with_checkpoint(&path),
        )
        .test(clean_program());
        assert_eq!(r.records.len(), 4, "fresh campaign, stale sidecar ignored");
        assert_eq!(r.records[0].seed, 7);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn exhausted_infra_failure_is_not_a_detection() {
        let base = Runtime::run(Config::new(0).with_trace(false), || {});
        let with = |outcome: RunOutcome| {
            let mut r = base.clone();
            r.outcome = outcome;
            r.ect = None;
            r
        };
        let crash =
            || with(RunOutcome::Panicked { g: goat_trace::Gid(9), msg: "boom".to_string() });
        let infra = || with(RunOutcome::InfraFailure { reason: "pool checkout".to_string() });

        // A post-retry infra failure must not be forged into bug
        // evidence: no detection, no stop under stop_on_bug.
        let cfg = GoatConfig::default();
        let mut m = MergeState::new(CuTable::new());
        assert!(!m.merge_one(&cfg, 0, infra()), "infra failure must not stop the campaign");
        assert!(m.first_detection.is_none());
        assert!(m.bug.is_none());
        assert!(matches!(m.records[0].verdict, GoatVerdict::InfraFailure { .. }));

        // crash → infra → crash is not two *consecutive* crashes…
        let cfg = GoatConfig::default().keep_running().with_quarantine_crashes(2);
        let mut m = MergeState::new(CuTable::new());
        m.merge_one(&cfg, 0, crash());
        m.merge_one(&cfg, 1, infra());
        m.merge_one(&cfg, 2, crash());
        assert!(m.quarantined.is_none(), "infra failure must break the crash streak");
        // …while two actually consecutive ones still quarantine.
        assert!(m.merge_one(&cfg, 3, crash()));
        assert!(m.quarantined.is_some());
    }

    #[test]
    fn duplicate_schedules_hit_the_memo_and_replay_identically() {
        // Noise off: every seed-1 run produces the same schedule, so the
        // second merge must be served from the memo — and the resulting
        // campaign state must match a memo-off merge exactly.
        let run = || {
            Runtime::run(Config::new(1).with_native_preempt_prob(0.0).with_trace(true), || {
                let ch: Chan<u8> = Chan::new(0);
                let tx = ch.clone();
                go_named("tx", move || tx.send(1));
                ch.recv();
            })
        };
        let (a, b) = (run(), run());
        assert_eq!(a.fingerprint, b.fingerprint, "identical schedules fingerprint equal");

        let cfg_on = GoatConfig::default().keep_running().with_memo(MemoMode::On);
        let mut on = MergeState::new(CuTable::new());
        assert!(!on.merge_one(&cfg_on, 0, a));
        assert!(!on.merge_one(&cfg_on, 1, b));
        assert_eq!((on.memo_misses, on.memo_hits), (1, 1), "second merge must hit");

        let cfg_off = GoatConfig::default().keep_running().with_memo(MemoMode::Off);
        let mut off = MergeState::new(CuTable::new());
        assert!(!off.merge_one(&cfg_off, 0, run()));
        assert!(!off.merge_one(&cfg_off, 1, run()));
        assert_eq!((off.memo_misses, off.memo_hits), (0, 0));

        assert_eq!(on.covered, off.covered, "memo hit must replay identical coverage");
        assert_eq!(on.universe.len(), off.universe.len());
        assert_eq!(on.global_tree.render(), off.global_tree.render());
        for (x, y) in on.records.iter().zip(off.records.iter()) {
            assert_eq!(x.verdict, y.verdict);
            assert_eq!(x.coverage_percent.to_bits(), y.coverage_percent.to_bits());
            assert_eq!(x.universe_size, y.universe_size);
        }
    }

    #[test]
    fn memo_distinguishes_outcomes_sharing_a_fingerprint() {
        // Same fingerprint, different outcome strings → different keys;
        // a panic's verdict must never be served for a completed run.
        let k1 = memo_key(42, &RunOutcome::Completed);
        let k2 = memo_key(42, &RunOutcome::StepLimit);
        let k3 =
            memo_key(42, &RunOutcome::Panicked { g: goat_trace::Gid(1), msg: "a".to_string() });
        let k4 =
            memo_key(42, &RunOutcome::Panicked { g: goat_trace::Gid(1), msg: "b".to_string() });
        let keys = [k1, k2, k3, k4];
        for i in 0..keys.len() {
            for j in i + 1..keys.len() {
                assert_ne!(keys[i], keys[j], "outcome collision between {i} and {j}");
            }
        }
    }

    #[test]
    fn global_deadlock_campaign() {
        let prog: Arc<dyn Program> = Arc::new(FnProgram::new("gdl", || {
            let mu = Mutex::new();
            mu.lock();
            mu.lock();
        }));
        let goat = Goat::new(GoatConfig::default().with_iterations(3));
        let r = goat.test(prog);
        assert_eq!(r.bug, Some(GoatVerdict::GlobalDeadlock));
    }
}
