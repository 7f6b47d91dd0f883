//! The two workloads, their set-up, one timed pass each, and the
//! correctness digest over what a pass produced.

use goat_core::isolate::drain_idle_workers;
use goat_core::{
    run_suite, CampaignResult, Goat, GoatConfig, GoatVerdict, IsolateMode, Program, SuiteConfig,
    SuiteStats,
};
use goat_goker::BugKernel;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How a pass drives its campaigns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// All 68 kernels through one `run_suite` call.
    Suite,
    /// `run_suite` with every iteration in a sandboxed worker process.
    Isolated,
}

/// A named workload: the campaign every kernel runs and how the suite
/// drives it.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub mode: Mode,
    pub cfg: GoatConfig,
}

pub const NAMES: [&str; 2] = ["sweep_d2", "isolated_d2"];

/// SplitMix64: the workload seed to a campaign's base seed.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The sweep campaign: the paper's Fig. 6 coverage sweep at D=2, every
/// kernel spending its whole default budget. The base seed is bounded
/// well below `u64::MAX` so `seed0 + iteration` cannot overflow.
fn sweep_config(seed: u64) -> GoatConfig {
    let seed0 = 1 + mix(seed << 4) % 1_000_000_000;
    GoatConfig::default().with_delay_bound(2).with_seed0(seed0).keep_running()
}

impl Workload {
    pub fn new(name: &str, seed: u64) -> Option<Workload> {
        let (name, mode) = match name {
            "sweep_d2" => ("sweep_d2", Mode::Suite),
            "isolated_d2" => ("isolated_d2", Mode::Isolated),
            _ => return None,
        };
        Some(Workload { name, mode, cfg: sweep_config(seed) }.with_mode(mode))
    }

    /// The same campaigns driven another way; the per-campaign results
    /// must not change (suite == isolated).
    pub fn with_mode(&self, mode: Mode) -> Workload {
        let isolate = if mode == Mode::Isolated { IsolateMode::Proc } else { IsolateMode::Off };
        let cfg = self.cfg.clone().with_isolate(isolate).with_worker_cmd(worker_cmd());
        Workload { name: self.name, mode, cfg }
    }
}

/// Isolated workers are this binary's own `--worker` mode, never a
/// separately built (possibly stale) CLI.
pub fn worker_cmd() -> String {
    std::env::current_exe()
        .expect("path of the running benchmark binary")
        .to_str()
        .expect("benchmark binary path is UTF-8")
        .to_string()
}

/// The kernel registry: each GoKer kernel as its own `Program`, sources
/// included, so the static model is built as in the paper.
pub fn kernels() -> Vec<Arc<dyn Program>> {
    goat_goker::all_kernels().into_iter().map(kernel_program).collect()
}

/// Resolve a kernel by name for the worker side of process isolation.
pub fn kernel_by_name(name: &str) -> Option<Arc<dyn Program>> {
    goat_goker::by_name(name).map(kernel_program)
}

fn kernel_program(k: &'static BugKernel) -> Arc<dyn Program> {
    Arc::new(BugKernel {
        name: k.name,
        project: k.project,
        cause: k.cause,
        expected: k.expected,
        rarity: k.rarity,
        description: k.description,
        main: k.main,
        source_file: k.source_file,
    })
}

/// What one set-up built, and how long it took.
pub struct Setup {
    pub wall: Duration,
    pub kernels: Vec<Arc<dyn Program>>,
}

/// One complete set-up: kernel registry, the static model of every
/// kernel, the goroutine pool prewarmed to `jobs`, and — for the
/// isolated workload — `jobs` sandboxed workers spawned through their
/// handshake and then drained.
pub fn setup(w: &Workload, jobs: usize) -> Result<Setup, String> {
    let t = Instant::now();
    let kernels = kernels();
    for k in &kernels {
        std::hint::black_box(Goat::static_model(k.as_ref()));
    }
    goat_runtime::pool::prewarm(jobs);
    if w.mode == Mode::Isolated {
        let spawned = goat_metrics::global().counter("isolate.workers_spawned");
        let before = spawned.get();
        let probe = GoatConfig::default()
            .with_iterations(jobs)
            .with_parallelism(jobs)
            .keep_running()
            .with_isolate(IsolateMode::Proc)
            .with_worker_cmd(worker_cmd());
        Goat::new(probe).test(Arc::clone(&kernels[0]));
        drain_idle_workers();
        if spawned.get() == before {
            return Err("no isolated worker could be spawned".into());
        }
    }
    Ok(Setup { wall: t.elapsed(), kernels })
}

/// Iterations attempted and failed, counted the way the supervision
/// layer reports them: an iteration that ended as an infra failure, or
/// one skipped because its kernel was quarantined, failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, r: &CampaignResult) {
        let infra = r
            .records
            .iter()
            .filter(|rec| matches!(rec.verdict, GoatVerdict::InfraFailure { .. }))
            .count() as u64;
        self.attempted += (r.records.len() + r.skipped) as u64;
        self.failed += infra + r.skipped as u64;
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    pub fn completed(&self) -> u64 {
        self.attempted - self.failed
    }

    pub fn failed_pct(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        100.0 * self.failed as f64 / self.attempted as f64
    }
}

/// FNV-1a over every campaign's telemetry-free JSON summary, taken in
/// kernel order whatever order the campaigns finished in.
#[derive(Debug, Clone, Default)]
pub struct Digest(BTreeMap<usize, String>);

impl Digest {
    pub fn add(&mut self, kernel: usize, r: &CampaignResult) {
        let json = r.to_json_summary().expect("campaign summary serializes");
        // Built outside their own workspace, the crates' panic sites
        // carry absolute paths; hash them relative to the checkout so the
        // digest does not depend on where the checkout lives.
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .expect("the benchmark package sits inside the checkout");
        self.0.insert(kernel, json.replace(&format!("{}/", root.display()), ""));
    }

    pub fn hex(&self) -> String {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for json in self.0.values() {
            for &b in json.as_bytes().iter().chain(b"\n") {
                h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
        }
        format!("{h:016x}")
    }
}

/// One campaign as the traced run needs it: which kernel, and the
/// verdict of each iteration it ran.
pub struct CampaignOutcome {
    pub kernel: usize,
    pub verdicts: Vec<GoatVerdict>,
}

/// Everything one pass over a workload produced.
pub struct Pass {
    pub wall: Duration,
    /// Per campaign: milliseconds from the start of the suite until the
    /// campaign's result was handed back.
    pub latencies_ms: Vec<f64>,
    /// Hex digest of the pass's campaign summaries.
    pub digest: String,
    pub tally: Tally,
    /// Runs served by a sandboxed worker during the pass
    /// (`isolate.runs` delta).
    pub isolated_runs: u64,
    pub bugs_found: usize,
    pub coverage_pct: Vec<f64>,
    pub suite: SuiteStats,
    pub campaigns: Vec<CampaignOutcome>,
}

impl Pass {
    pub fn iters_per_s(&self) -> f64 {
        self.tally.completed() as f64 / self.wall.as_secs_f64()
    }

    /// Milliseconds each campaign added to the pass, in kernel order: the
    /// gap between consecutive hand-backs. With one job the suite runs
    /// the campaigns one after another, so each gap is that campaign's
    /// own time (the first one also carries the suite's start-up).
    pub fn campaign_ms(&self) -> Vec<f64> {
        let mut prev = 0.0;
        self.latencies_ms
            .iter()
            .map(|&t| {
                let gap = t - prev;
                prev = t;
                gap
            })
            .collect()
    }

    fn note(&mut self, digest: &mut Digest, kernel: usize, latency: Duration, r: &CampaignResult) {
        self.latencies_ms.push(latency.as_secs_f64() * 1e3);
        digest.add(kernel, r);
        self.tally.add(r);
        self.bugs_found += usize::from(r.detected());
        self.coverage_pct.push(r.coverage_percent());
        self.campaigns.push(CampaignOutcome {
            kernel,
            verdicts: r.records.iter().map(|rec| rec.verdict.clone()).collect(),
        });
    }
}

/// Run every campaign of `w` once through the suite. Set-up (the
/// registry in `kernels`) is not part of the timed wall.
pub fn run_pass(w: &Workload, kernels: &[Arc<dyn Program>], jobs: usize) -> Pass {
    let mut pass = Pass {
        wall: Duration::ZERO,
        latencies_ms: Vec::new(),
        digest: String::new(),
        tally: Tally::default(),
        isolated_runs: 0,
        bugs_found: 0,
        coverage_pct: Vec::new(),
        suite: SuiteStats::default(),
        campaigns: Vec::new(),
    };
    let mut digest = Digest::default();
    let isolated_runs = goat_metrics::global().counter("isolate.runs");
    let runs_before = isolated_runs.get();
    let suite_cfg = SuiteConfig::default().with_jobs(jobs);
    let t = Instant::now();
    let stats = run_suite(&w.cfg, &suite_cfg, kernels, &mut |k, _, r| {
        pass.note(&mut digest, k, t.elapsed(), r);
    });
    pass.wall = t.elapsed();
    pass.isolated_runs = isolated_runs.get() - runs_before;
    pass.suite = stats;
    pass.digest = digest.hex();
    pass
}

#[cfg(test)]
mod tests {
    use super::*;

    fn campaign(iterations: usize) -> CampaignResult {
        let cfg = GoatConfig::default()
            .with_iterations(iterations)
            .keep_running()
            .with_parallelism(1)
            .with_isolate(IsolateMode::Off)
            .with_max_retries(0)
            .with_quarantine_after(3);
        Goat::new(cfg).test(kernel_by_name("moby28462").expect("GoKer kernel"))
    }

    #[test]
    fn failed_pct_counts_infra_failures_and_quarantine_skips() {
        let r = {
            let _fault = goat_runtime::faultpoint::scoped("pool_checkout:err");
            campaign(20)
        };
        // Three failed iterations trip the quarantine; the other 17 of
        // the budget are skipped. Both count as attempted and failed.
        assert!(r.quarantined.is_some());
        assert_eq!((r.records.len(), r.skipped), (3, 17));
        let mut t = Tally::default();
        t.add(&r);
        assert_eq!(t, Tally { attempted: 20, failed: 20 });
        assert_eq!(t.completed(), 0);
        assert_eq!(t.failed_pct(), 100.0);

        let mut healthy = Tally::default();
        healthy.add(&campaign(5));
        assert_eq!(healthy, Tally { attempted: 5, failed: 0 });
        t.merge(healthy);
        assert_eq!(t.failed_pct(), 80.0);
    }

    #[test]
    fn digest_is_independent_of_run_order_but_not_of_results() {
        let (a, b) = (campaign(2), campaign(3));
        let mut forward = Digest::default();
        forward.add(0, &a);
        forward.add(1, &b);
        let mut backward = Digest::default();
        backward.add(1, &b);
        backward.add(0, &a);
        assert_eq!(forward.hex(), backward.hex());
        let mut swapped = Digest::default();
        swapped.add(0, &b);
        swapped.add(1, &a);
        assert_ne!(forward.hex(), swapped.hex());
    }
}
