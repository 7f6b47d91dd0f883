//! Process-isolation cost per run: campaign wall time per run and bytes
//! on the wire per run, under `-isolate proc` at one job (`proc_jobs1`,
//! batches of eight `Run` frames per write) and four jobs
//! (`proc_jobs4`, batches of four), next to the same campaigns
//! in-process (`off_jobs1`, `off_jobs4`). Campaigns run the real
//! `etcd6708` kernel through real worker processes; wire bytes come from
//! the `isolate.ipc_bytes_*` metric deltas.
//!
//! Custom harness (not criterion): each sample is a whole campaign, and
//! the statistic of interest is a per-run quotient.
//! Needs a built `goat` worker binary; resolves `GOAT_WORKER_CMD`, then
//! `target/{release,debug}/goat`, and prints `SKIP` when neither exists
//! (e.g. `cargo bench` before any `cargo build`).

use goat_core::{Goat, GoatConfig, IsolateMode, Program};
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

fn worker_cmd() -> Option<String> {
    if let Ok(c) = std::env::var("GOAT_WORKER_CMD") {
        if !c.is_empty() {
            return Some(c);
        }
    }
    let mut root = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    root.pop();
    root.pop();
    for profile in ["release", "debug"] {
        let cand = root.join("target").join(profile).join("goat");
        if cand.exists() {
            return Some(cand.to_string_lossy().into_owned());
        }
    }
    None
}

#[derive(Clone, Copy)]
struct Leg {
    name: &'static str,
    isolate: IsolateMode,
    jobs: usize,
}

const LEGS: [Leg; 4] = [
    Leg { name: "proc_jobs1", isolate: IsolateMode::Proc, jobs: 1 },
    Leg { name: "proc_jobs4", isolate: IsolateMode::Proc, jobs: 4 },
    Leg { name: "off_jobs1", isolate: IsolateMode::Off, jobs: 1 },
    Leg { name: "off_jobs4", isolate: IsolateMode::Off, jobs: 4 },
];

fn campaign_cfg(worker: &str, iterations: usize, leg: Leg) -> GoatConfig {
    GoatConfig::default()
        .with_delay_bound(1)
        .with_iterations(iterations)
        .with_seed0(11)
        .keep_running()
        .with_guided(false)
        .with_parallelism(leg.jobs)
        .with_isolate(leg.isolate)
        .with_worker_cmd(worker)
}

/// One campaign's sample: wall time per run in ns and bytes on the wire
/// (tx + rx) per run.
struct Sample {
    wall_ns_per_run: f64,
    bytes_per_run: f64,
}

fn run_leg(worker: &str, leg: Leg, iterations: usize) -> Sample {
    let reg = goat_metrics::global();
    let bytes =
        || reg.counter("isolate.ipc_bytes_tx").get() + reg.counter("isolate.ipc_bytes_rx").get();
    let before_bytes = bytes();
    let kernel = goat_goker::by_name("etcd6708").expect("kernel");
    let t = std::time::Instant::now();
    let r = Goat::new(campaign_cfg(worker, iterations, leg)).test(Arc::new(KernelProgram(kernel)));
    let wall = t.elapsed().as_nanos() as f64;
    assert_eq!(r.records.len(), iterations, "campaign ran its full budget");
    Sample {
        wall_ns_per_run: wall / iterations as f64,
        bytes_per_run: (bytes() - before_bytes) as f64 / iterations as f64,
    }
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

/// The spawn_pool guard leg: the batching refactor of the sequential and
/// streaming executors must not regress the pre-existing in-process
/// campaign hot path (BENCH_pool.json `streaming_p4_pooled` baseline).
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
    // Ignore the harness args cargo bench passes (--bench, filters).
    let Some(worker) = worker_cmd() else {
        println!("SKIP: no goat worker binary (set GOAT_WORKER_CMD or run cargo build --release)");
        return;
    };
    // Sanity guard: the data plane under measurement preserves reports.
    // Runs with telemetry still off — the telemetry block embeds wall
    // times, so report identity is only meaningful without it.
    let kernel = goat_goker::by_name("etcd6708").expect("kernel");
    let summary = |leg: Leg| {
        Goat::new(campaign_cfg(&worker, 50, leg))
            .test(Arc::new(KernelProgram(kernel)))
            .to_json_summary()
            .expect("summary")
    };
    let off = summary(LEGS[2]);
    for leg in LEGS {
        assert_eq!(off, summary(leg), "{}: report changed under measurement config", leg.name);
    }

    println!("ipc bench: etcd6708 campaigns through worker `{worker}`");
    println!("\"results\": [");
    // Telemetry-off and before the worker campaigns heat the machine,
    // matching the conditions of the BENCH_pool.json baseline.
    streaming_guard();
    if std::env::var_os("GOAT_IPC_BENCH_GUARD_ONLY").is_some() {
        println!("]");
        return;
    }
    for (iterations, reps) in [(1_000usize, 5usize), (10_000, 2)] {
        let tag = if iterations == 1_000 { "1k" } else { "10k" };
        for leg in LEGS {
            let samples: Vec<Sample> =
                (0..reps).map(|_| run_leg(&worker, leg, iterations)).collect();
            result_line(
                &format!("wall_per_run/{}_{tag}", leg.name),
                samples.iter().map(|s| s.wall_ns_per_run).collect(),
            );
            if leg.isolate == IsolateMode::Proc {
                result_line(
                    &format!("wire_bytes_per_run/{}_{tag}", leg.name),
                    samples.iter().map(|s| s.bytes_per_run).collect(),
                );
            }
        }
    }
    println!("]");
}
