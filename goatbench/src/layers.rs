//! The traced run: per-layer metrics timed from outside, around calls
//! into each layer's public functions.
//!
//! The workload's campaigns run once untraced. Every iteration that
//! pass ran is then replayed layer by layer — runtime, trace, analysis
//! plane, verdict, wire codec — with a span around each call, and every
//! replayed verdict must equal the campaign's own. The same campaigns
//! are also driven sequentially, through the suite and under process
//! isolation, which gives the runner, suite and isolation figures and
//! proves those three paths produce the same per-campaign results.

use crate::stats::{median, percentile};
use crate::workload::{run_pass, worker_cmd, Digest, Mode, Pass, Tally, Workload};
use crate::Outcome;
use goat_core::isolate::drain_idle_workers;
use goat_core::{analyze_run_with, EctBuffers, Goat, GoatConfig, IsolateMode, Program};
use goat_model::RequirementUniverse;
use goat_runtime::{go_internal, Chan, Config, RunOutcome, RunResult, Runtime};
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

/// Span durations per layer, kept in memory for the traced run.
#[derive(Default)]
struct Ledger {
    spans: BTreeMap<&'static str, Vec<u64>>,
}

impl Ledger {
    /// Run `f` inside a span of `layer`; returns its result and the
    /// span's nanoseconds.
    fn time<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
        let t = Instant::now();
        let r = f();
        let ns = t.elapsed().as_nanos() as u64;
        self.spans.entry(layer).or_default().push(ns);
        (r, ns)
    }

    fn samples_us(&self, layer: &str) -> Vec<f64> {
        self.spans.get(layer).map_or(Vec::new(), |v| v.iter().map(|&ns| ns as f64 / 1e3).collect())
    }

    fn total_ns(&self, layer: &str) -> u64 {
        self.spans.get(layer).map_or(0, |v| v.iter().sum())
    }

    fn count(&self, layer: &str) -> usize {
        self.spans.get(layer).map_or(0, Vec::len)
    }
}

/// Nanoseconds a span costs by itself: the median over batches of
/// empty spans timed the way [`Ledger::time`] times a call.
fn span_cost_ns() -> f64 {
    const BATCH: u32 = 10_000;
    let batches: Vec<f64> = (0..9)
        .map(|_| {
            let mut scratch = Ledger::default();
            let t = Instant::now();
            for _ in 0..BATCH {
                scratch.time("empty", || ());
            }
            t.elapsed().as_nanos() as f64 / f64::from(BATCH)
        })
        .collect();
    median(&batches)
}

/// The key of the runner's per-campaign analysis memo: the schedule
/// fingerprint with the outcome, less what the runner leaves out — a
/// deadlock's blocked set (derivable from the trace) and a timeout's
/// wall-clock `elapsed_ms`.
fn memo_key(r: &RunResult) -> (u64, String) {
    let outcome = match &r.outcome {
        RunOutcome::GlobalDeadlock { .. } => "GlobalDeadlock".to_string(),
        RunOutcome::TimedOut { phase, .. } => format!("TimedOut {phase:?}"),
        other => format!("{other:?}"),
    };
    (r.fingerprint, outcome)
}

/// The runtime configuration `Goat::test` gives iteration `i` of a
/// campaign under `cfg` (unguided).
fn runtime_config(cfg: &GoatConfig, i: usize) -> Config {
    let c = Config::new(cfg.seed0 + i as u64)
        .with_delay_bound(cfg.delay_bound)
        .with_native_preempt_prob(cfg.native_preempt_prob)
        .with_max_steps(cfg.max_steps)
        .with_iter_timeout_ms(cfg.iter_timeout_ms)
        .with_trace(true)
        .with_pool(cfg.pool)
        .with_strategy(cfg.strategy);
    match cfg.spin {
        Some(s) => c.with_spin(s),
        None => c,
    }
}

/// The body `Goat::test` runs each iteration: the program's main plus
/// GoAT's internal watcher/stopper goroutines.
fn instrumented(program: Arc<dyn Program>) -> impl FnOnce() + Send + 'static {
    move || {
        let goat_done: Chan<()> = Chan::new(1);
        {
            let goat_done = goat_done.clone();
            go_internal("goat::watcher", move || {
                let _ = goat_done.recv();
            });
        }
        program.main();
        go_internal("goat::stopper", move || {
            goat_done.send(());
        });
    }
}

/// Counters summed over every replayed run.
#[derive(Default)]
struct ReplayTotals {
    runs: u64,
    steps: u64,
    goroutines: u64,
    blocks: u64,
    events: u64,
    wire_bytes: u64,
    /// Distinct memo keys per campaign — the runs the campaign's memo
    /// had to analyze.
    memo_misses: u64,
    /// Replayed runs that left no trace or whose verdict differs from
    /// the campaign's own, plus results the wire codec could not
    /// round-trip.
    diverged: u64,
    /// Model, runtime and analysis spans as a campaign pays them: the
    /// scan once, every run, and the analysis of its memo misses only.
    layer_ns: u64,
    /// Runtime and analysis spans of each kernel's first iteration.
    first_iter_ns: BTreeMap<usize, u64>,
    /// Wall of the replay itself, without the campaigns run beside it.
    replay_ns: u64,
    /// The campaigns re-run one at a time through `Goat::test`.
    sequential: Tally,
    sequential_digest: Digest,
}

/// For every campaign of `pass`: run it again through `Goat::test`
/// inside a campaign span, then replay its iterations layer by layer.
/// Interleaving the two keeps slow drifts of the host out of the
/// difference between them, which is the runner's own time.
fn replay(
    w: &Workload,
    pass: &Pass,
    kernels: &[Arc<dyn Program>],
    ledger: &mut Ledger,
) -> ReplayTotals {
    let mut t = ReplayTotals::default();
    let mut wire = Vec::new();
    let cfg = &w.cfg;
    for camp in &pass.campaigns {
        let program = &kernels[camp.kernel];
        let goat = Goat::new(cfg.clone().with_isolate(IsolateMode::Off));
        let (r, _) = ledger.time("campaign", || goat.test(Arc::clone(program)));
        t.sequential.add(&r);
        t.sequential_digest.add(camp.kernel, &r);
        let t_replay = Instant::now();
        let (table, model_ns) = ledger.time("model", || Goat::static_model(program.as_ref()));
        t.layer_ns += model_ns;
        let mut universe = RequirementUniverse::from_table(table);
        let mut bufs = EctBuffers::new();
        let mut seen = HashSet::new();
        for (i, recorded) in camp.verdicts.iter().enumerate() {
            let rc = runtime_config(cfg, i);
            let body = instrumented(Arc::clone(program));
            let (result, mut iter_ns) = ledger.time("runtime", || Runtime::run(rc, body));
            t.runs += 1;
            t.steps += result.steps;
            t.goroutines += result.goroutines;
            t.blocks += result.sched.blocks;
            // The runner traces every run, so a replay without a trace is
            // not the run the campaign made.
            let Some(ect) = result.ect.as_ref() else {
                t.diverged += 1;
                continue;
            };
            t.events += ect.len() as u64;
            let fresh = seen.insert(memo_key(&result));
            let (analysis, plane_ns) =
                ledger.time("plane", || bufs.analyze(ect, &mut universe, false));
            let (verdict, verdict_ns) =
                ledger.time("analysis", || analyze_run_with(&result, Some(&analysis.tree)));
            if fresh {
                t.memo_misses += 1;
                iter_ns += plane_ns + verdict_ns;
            }
            t.layer_ns += iter_ns;
            if i == 0 {
                t.first_iter_ns.insert(camp.kernel, iter_ns);
            }
            t.diverged += u64::from(&verdict != recorded);
            bufs.reclaim(analysis.coverage);
            wire.clear();
            ledger.time("wire.encode", || goat_core::wire::encode_result(&result, &mut wire));
            t.wire_bytes += wire.len() as u64;
            let (decoded, _) = ledger.time("wire.decode", || {
                goat_core::wire::decode_result(&mut goat_trace::wire::Reader::new(&wire))
            });
            if decoded.is_err() {
                t.diverged += 1;
            }
            if let Some(ect) = result.ect {
                goat_trace::recycle::recycle_buffer(ect.into_events());
            }
        }
        t.replay_ns += t_replay.elapsed().as_nanos() as u64;
    }
    t
}

/// Per-iteration wall of a pass, microseconds.
fn us_per_iter(p: &Pass) -> f64 {
    p.wall.as_secs_f64() * 1e6 / p.tally.completed().max(1) as f64
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// A pass plus the goroutine-pool and trace-buffer counters it moved.
struct Counted {
    pass: Pass,
    pool_reused: u64,
    pool_spawned: u64,
    bufs_recycled: u64,
    bufs_fresh: u64,
}

fn counted_pass(w: &Workload, kernels: &[Arc<dyn Program>], jobs: usize) -> Counted {
    let (p0, r0) = (goat_runtime::pool::stats(), goat_trace::recycle::stats());
    let pass = run_pass(w, kernels, jobs);
    let (p1, r1) = (goat_runtime::pool::stats(), goat_trace::recycle::stats());
    Counted {
        pass,
        pool_reused: p1.jobs_reused - p0.jobs_reused,
        pool_spawned: p1.threads_spawned - p0.threads_spawned,
        bufs_recycled: r1.recycled - r0.recycled,
        bufs_fresh: r1.fresh - r0.fresh,
    }
}

/// Milliseconds of a one-iteration campaign of kernel 0 under `isolate`,
/// median of `reps`; under isolation every repetition first drains the
/// idle workers, so each one spawns a fresh worker.
fn probe_ms(w: &Workload, kernels: &[Arc<dyn Program>], isolate: IsolateMode, reps: usize) -> f64 {
    let cfg = w.cfg.clone().with_iterations(1).with_isolate(isolate).with_worker_cmd(worker_cmd());
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            drain_idle_workers();
            let goat = Goat::new(cfg.clone());
            let t = Instant::now();
            goat.test(Arc::clone(&kernels[0]));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    drain_idle_workers();
    median(&samples)
}

pub fn traced(w: &Workload, kernels: &[Arc<dyn Program>], jobs: usize) -> Result<Outcome, String> {
    let mut ledger = Ledger::default();
    let mut problems = Vec::new();

    let own = counted_pass(w, kernels, jobs);
    let digest = own.pass.digest.clone();

    // goat_model: the static scan of every kernel.
    let scans: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            for k in kernels {
                std::hint::black_box(Goat::static_model(k.as_ref()));
            }
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let cus: usize = kernels.iter().map(|k| Goat::static_model(k.as_ref()).len()).sum();

    // The same campaigns through the suite, in and out of process.
    let other = |mode: Mode| {
        if w.mode == mode {
            None
        } else {
            Some(counted_pass(&w.with_mode(mode), kernels, jobs))
        }
    };
    let suite = other(Mode::Suite);
    let isolated = other(Mode::Isolated);
    let suite = suite.as_ref().unwrap_or(&own);
    let isolated = isolated.as_ref().unwrap_or(&own);
    if isolated.pass.isolated_runs < isolated.pass.tally.attempted {
        problems.push(format!(
            "only {} of {} isolated runs reached a worker",
            isolated.pass.isolated_runs, isolated.pass.tally.attempted
        ));
    }
    // Pool and buffer reuse happen inside the workers under isolation;
    // read them from the in-process suite pass instead.
    let in_proc = if w.mode == Mode::Isolated { suite } else { &own };

    // Layer-by-layer replay of every iteration the untraced pass ran.
    let rt = replay(w, &own.pass, kernels, &mut ledger);
    if rt.diverged > 0 {
        problems.push(format!(
            "{} of {} replayed runs differ from the campaign's own verdicts or wire round trip",
            rt.diverged, rt.runs
        ));
    }
    // Tracing overhead: what the replay's own spans cost, as a share of
    // the replay without them.
    let spans: usize =
        ledger.spans.keys().filter(|&&l| l != "campaign").map(|l| ledger.count(l)).sum();
    let spans_ns = span_cost_ns() * spans as f64;
    let overhead_pct = 100.0 * spans_ns / (rt.replay_ns as f64 - spans_ns);
    for (label, d) in [
        ("sequential", rt.sequential_digest.hex()),
        ("suite", suite.pass.digest.clone()),
        ("isolated", isolated.pass.digest.clone()),
    ] {
        if d != digest {
            problems.push(format!("{label} results differ from {}'s", w.name));
        }
    }

    // goat_core::runner: sequential campaign time the layers do not
    // account for, and the fixed cost of a one-iteration campaign.
    let runner_overhead_us = (ledger.total_ns("campaign") as f64 - rt.layer_ns as f64)
        / rt.sequential.completed().max(1) as f64
        / 1e3;
    let fixed: Vec<f64> = kernels
        .iter()
        .enumerate()
        .map(|(k, program)| {
            let goat = Goat::new(w.cfg.clone().with_iterations(1).with_isolate(IsolateMode::Off));
            let t = Instant::now();
            goat.test(Arc::clone(program));
            let wall = t.elapsed().as_nanos() as f64;
            let first = rt.first_iter_ns.get(&k).copied().unwrap_or(0) as f64;
            (wall - first) / 1e6
        })
        .collect();

    let stats = &suite.pass.suite;
    let spawn_ms =
        probe_ms(w, kernels, IsolateMode::Proc, 5) - probe_ms(w, kernels, IsolateMode::Off, 5);

    let runs = rt.runs.max(1);
    let p = |layer: &str, q: f64| percentile(&ledger.samples_us(layer), q);
    let metrics = vec![
        ("model.scan_ms", median(&scans), "ms"),
        ("model.cus", cus as f64, "count"),
        ("runtime.run_us_p50", p("runtime", 50.0)?, "us"),
        ("runtime.run_us_p95", p("runtime", 95.0)?, "us"),
        ("runtime.ns_per_step", ledger.total_ns("runtime") as f64 / rt.steps.max(1) as f64, "ns"),
        ("runtime.steps_per_run", rt.steps as f64 / runs as f64, "count"),
        ("runtime.goroutines_per_run", rt.goroutines as f64 / runs as f64, "count"),
        ("runtime.blocks_per_run", rt.blocks as f64 / runs as f64, "count"),
        (
            "runtime.pool_reuse_ratio",
            ratio(in_proc.pool_reused, in_proc.pool_reused + in_proc.pool_spawned),
            "ratio",
        ),
        ("trace.events_per_run", rt.events as f64 / runs as f64, "count"),
        (
            "trace.buf_recycle_ratio",
            ratio(in_proc.bufs_recycled, in_proc.bufs_recycled + in_proc.bufs_fresh),
            "ratio",
        ),
        ("plane.analyze_us_p50", p("plane", 50.0)?, "us"),
        ("analysis.verdict_us_p50", p("analysis", 50.0)?, "us"),
        ("memo.hit_ratio", 1.0 - ratio(rt.memo_misses, rt.runs), "ratio"),
        ("runner.overhead_us_per_iter", runner_overhead_us, "us"),
        ("runner.campaign_fixed_ms", median(&fixed), "ms"),
        ("suite.steals", stats.steals as f64, "count"),
        ("suite.kernels_inflight_max", stats.kernels_inflight_max as f64, "count"),
        ("suite.warm_bufs_reused", stats.warm_bufs_reused as f64, "count"),
        ("wire.encode_us_p50", p("wire.encode", 50.0)?, "us"),
        ("wire.decode_us_p50", p("wire.decode", 50.0)?, "us"),
        ("wire.bytes_per_run", rt.wire_bytes as f64 / runs as f64, "bytes"),
        (
            "isolate.overhead_us_per_iter",
            us_per_iter(&isolated.pass) - us_per_iter(&suite.pass),
            "us",
        ),
        ("isolate.spawn_ms", spawn_ms, "ms"),
        ("bench.trace_overhead_pct", overhead_pct, "%"),
    ];

    Ok(Outcome { metrics, problems, tally: own.pass.tally, digest })
}
