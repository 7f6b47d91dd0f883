//! Suite-scale throughput: wall-clock of a whole multi-kernel sweep
//! through the suite orchestrator's global work-stealing iteration
//! queue, at jobs∈{1,4}, and with adaptive budget reallocation.
//!
//! Custom harness (not criterion): each sample is a whole suite over a
//! real GoKer kernel subset, and what matters is end-to-end wall-clock
//! — exactly what `-target all -jobs N` pays. Before measuring, the
//! harness asserts per-kernel emit-stream identity between jobs=1 and
//! jobs=4 so the numbers can never come from divergent work. The
//! `campaign_24_iters/streaming_p4_pooled` guard leg re-measures the
//! BENCH_pool.json baseline under this build, pinning that suite-level
//! orchestration did not regress the per-campaign hot path.

use goat_core::{run_suite, Goat, GoatConfig, Program, SuiteConfig};
use std::sync::Arc;

struct KernelProgram(&'static goat_goker::BugKernel);

impl Program for KernelProgram {
    fn name(&self) -> &str {
        Program::name(self.0)
    }
    fn main(&self) {
        Program::main(self.0)
    }
}

/// A deterministic subset of the benchmark: the first 8 kernels, a mix
/// of immediate detectors and full-budget explorers at D=1.
fn suite_kernels() -> Vec<Arc<dyn Program>> {
    goat_goker::all_kernels()
        .into_iter()
        .take(8)
        .map(|k| Arc::new(KernelProgram(k)) as Arc<dyn Program>)
        .collect()
}

const ITERATIONS: usize = 40;

/// `keep_running` makes every kernel spend its full budget — the
/// steady-state load the work-stealing queue multiplexes; the realloc
/// leg switches to `stop_on_bug` so early detectors actually donate.
fn base_cfg(stop_on_bug: bool) -> GoatConfig {
    let mut cfg =
        GoatConfig::default().with_delay_bound(1).with_iterations(ITERATIONS).with_seed0(7);
    if !stop_on_bug {
        cfg = cfg.keep_running();
    }
    cfg
}

fn emit_stream(base: &GoatConfig, suite: &SuiteConfig, kernels: &[Arc<dyn Program>]) -> String {
    let mut lines = String::new();
    run_suite(base, suite, kernels, &mut |idx, name, r| {
        lines.push_str(&format!(
            "{idx} {name} {:?} {:?} {} {:.3}\n",
            r.first_detection,
            r.quarantined,
            r.records.len(),
            r.coverage_percent()
        ));
    });
    lines
}

fn sample_suite(base: &GoatConfig, suite: &SuiteConfig, kernels: &[Arc<dyn Program>]) -> f64 {
    let t = std::time::Instant::now();
    run_suite(base, suite, kernels, &mut |_, _, _| {});
    t.elapsed().as_nanos() as f64
}

fn stats(mut vals: Vec<f64>) -> (f64, f64, f64) {
    vals.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let median = if vals.len() % 2 == 1 {
        vals[vals.len() / 2]
    } else {
        (vals[vals.len() / 2 - 1] + vals[vals.len() / 2]) / 2.0
    };
    (vals[0], median, *vals.last().expect("nonempty"))
}

fn result_line(id: &str, vals: Vec<f64>) {
    let n = vals.len();
    let (min, median, max) = stats(vals);
    println!(
        "  {{\"id\": \"{id}\", \"min_ns\": {min:.1}, \"median_ns\": {median:.1}, \"max_ns\": {max:.1}, \"samples\": {n}}},"
    );
}

/// The spawn_pool guard leg: suite orchestration must not regress the
/// pre-existing in-process campaign hot path (BENCH_pool.json
/// `streaming_p4_pooled` baseline).
fn streaming_guard() {
    use goat_runtime::{go, WaitGroup};
    let program = Arc::new(goat_core::FnProgram::new("bench", || {
        let wg = WaitGroup::new();
        for _ in 0..4 {
            wg.add(1);
            let wg = wg.clone();
            go(move || wg.done());
        }
        wg.wait();
    }));
    let mut samples = Vec::new();
    for _ in 0..10 {
        let cfg = GoatConfig::default().with_iterations(24).with_parallelism(4).keep_running();
        let t = std::time::Instant::now();
        let r = Goat::new(cfg).test(Arc::clone(&program) as Arc<dyn Program>);
        samples.push(t.elapsed().as_nanos() as f64);
        assert_eq!(r.records.len(), 24);
    }
    result_line("campaign_24_iters/streaming_p4_pooled", samples);
}

fn main() {
    let kernels = suite_kernels();

    // Sanity guard: the per-kernel results the legs below time must be
    // identical work — jobs may only move wall-clock.
    let keep = base_cfg(false);
    let j1 = emit_stream(&keep, &SuiteConfig::default().with_jobs(1), &kernels);
    let j4 = emit_stream(&keep, &SuiteConfig::default().with_jobs(4), &kernels);
    assert_eq!(j1, j4, "suite legs diverged");
    let stop = base_cfg(true);
    let r1 = emit_stream(&stop, &SuiteConfig::default().with_jobs(1).with_realloc(true), &kernels);
    assert_eq!(
        r1,
        emit_stream(&stop, &SuiteConfig::default().with_jobs(4).with_realloc(true), &kernels),
        "realloc legs diverged"
    );

    println!(
        "suite_throughput bench: {} kernels x {ITERATIONS} iterations (D=1), host cores: {}",
        kernels.len(),
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    );
    println!("\"results\": [");
    streaming_guard();

    let legs: [(&str, GoatConfig, SuiteConfig); 4] = [
        ("jobs1_warm", base_cfg(false), SuiteConfig::default().with_jobs(1)),
        ("jobs4_warm", base_cfg(false), SuiteConfig::default().with_jobs(4)),
        ("jobs1_realloc", base_cfg(true), SuiteConfig::default().with_jobs(1).with_realloc(true)),
        ("jobs4_realloc", base_cfg(true), SuiteConfig::default().with_jobs(4).with_realloc(true)),
    ];
    for (name, base, suite) in &legs {
        // One warm-up suite, then timed samples.
        sample_suite(base, suite, &kernels);
        let samples: Vec<f64> = (0..7).map(|_| sample_suite(base, suite, &kernels)).collect();
        result_line(&format!("suite_8x{ITERATIONS}/{name}"), samples);
    }
    println!("]");
}
