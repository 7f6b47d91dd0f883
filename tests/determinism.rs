//! Determinism and replay guarantees: identical seeds must reproduce
//! identical traces across the entire benchmark — the property that
//! makes GoAT's "minimum executions to expose" experiments meaningful
//! and failing schedules replayable.

use goat::core::Program;
use goat::runtime::{Config, Runtime};

fn trace_fingerprint(kernel: &'static goat::goker::BugKernel, seed: u64, d: u32) -> String {
    let cfg = Config::new(seed).with_delay_bound(d);
    let r = Runtime::run(cfg, move || Program::main(kernel));
    format!("{:?}|{}|{}", r.outcome, r.steps, r.ect.map(|e| e.render()).unwrap_or_default())
}

#[test]
fn every_kernel_replays_identically_for_a_fixed_seed() {
    for kernel in goat::goker::all_kernels() {
        for d in [0u32, 2] {
            let a = trace_fingerprint(kernel, 42, d);
            let b = trace_fingerprint(kernel, 42, d);
            assert_eq!(a, b, "{} is not deterministic at D{d}", kernel.name);
        }
    }
}

#[test]
fn different_seeds_explore_different_schedules() {
    // On a schedule-dependent kernel, iterating seeds must explore
    // different interleavings (otherwise iterating executions would be
    // pointless). Deterministic kernels may legitimately produce
    // identical traces across seeds.
    let kernel = goat::goker::by_name("moby28462").expect("kernel");
    let distinct: std::collections::BTreeSet<String> =
        (0..30u64).map(|s| trace_fingerprint(kernel, s, 0)).collect();
    assert!(distinct.len() >= 3, "30 seeds explored only {} distinct schedules", distinct.len());
}

// ---------------------------------------------------------------------
// Campaign-executor equivalence: the streaming parallel executor and the
// goroutine worker pool are pure performance features — a campaign's
// machine-readable summary must be byte-identical no matter how many
// host threads ran it or whether goroutines were pooled.
// ---------------------------------------------------------------------

use goat::core::{Goat, GoatConfig};
use proptest::prelude::*;
use std::sync::Arc;

struct KernelProgram(&'static goat::goker::BugKernel);

impl Program for KernelProgram {
    fn name(&self) -> &str {
        Program::name(self.0)
    }
    fn main(&self) {
        Program::main(self.0)
    }
}

fn campaign_summary_json(
    kernel: &'static goat::goker::BugKernel,
    d: u32,
    seed0: u64,
    iterations: usize,
    stop_on_bug: bool,
    parallelism: usize,
    pool: bool,
) -> String {
    let mut cfg = GoatConfig::default()
        .with_delay_bound(d)
        .with_iterations(iterations)
        .with_seed0(seed0)
        .with_parallelism(parallelism)
        .with_pool(pool);
    if !stop_on_bug {
        cfg = cfg.keep_running();
    }
    Goat::new(cfg)
        .test(Arc::new(KernelProgram(kernel)))
        .to_json_summary()
        .expect("summary serializes")
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]
    #[test]
    fn campaign_summaries_identical_across_parallelism_and_pool(
        kidx in 0usize..12,
        d in 0u32..3,
        seed0 in 1u64..500,
        iterations in 4usize..10,
        stop_on_bug in any::<bool>(),
    ) {
        let kernels = goat::goker::all_kernels();
        let kernel = kernels[kidx % kernels.len()];
        let base = campaign_summary_json(kernel, d, seed0, iterations, stop_on_bug, 1, true);
        for parallelism in [1usize, 2, 8] {
            for pool in [true, false] {
                let json =
                    campaign_summary_json(kernel, d, seed0, iterations, stop_on_bug, parallelism, pool);
                prop_assert_eq!(
                    &base, &json,
                    "summary diverged: kernel={} d={} stop={} p={} pool={}",
                    kernel.name, d, stop_on_bug, parallelism, pool
                );
            }
        }
    }
}

#[test]
fn stop_on_bug_early_exit_matches_across_executors() {
    // A kernel that detects deterministically on iteration 1: the
    // stop_on_bug cutoff is exercised on every executor configuration,
    // and the parallel executor must not merge speculative iterations
    // past the cutoff.
    let kernel = goat::goker::by_name("moby28462").expect("kernel");
    let base = campaign_summary_json(kernel, 2, 7, 40, true, 1, true);
    for parallelism in [2usize, 8] {
        for pool in [true, false] {
            let json = campaign_summary_json(kernel, 2, 7, 40, true, parallelism, pool);
            assert_eq!(base, json, "early-exit diverged at p={parallelism} pool={pool}");
        }
    }
}

// ---------------------------------------------------------------------
// Checkpoint/resume crash safety: a campaign SIGKILLed mid-flight and
// resumed from its `GOAT_CHECKPOINT` sidecar must produce a report
// byte-identical to the uninterrupted campaign, no matter where the
// kill landed (before the first checkpoint, mid-write, or after the
// last iteration).
// ---------------------------------------------------------------------

// A budget big enough that the per-iteration checkpoint writes keep
// the child busy well past the kill point: the SIGKILL lands mid-flight
// (typically with a few hundred iterations persisted), not after the
// child already finished.
const KILL_KERNEL: &str = "etcd6708";
const KILL_ITERATIONS: usize = 2_000;
const KILL_SEED0: u64 = 9;

fn kill_resume_campaign(checkpoint: Option<&std::path::Path>) -> String {
    let kernel = goat::goker::by_name(KILL_KERNEL).expect("kernel");
    let mut cfg = GoatConfig::default()
        .with_delay_bound(1)
        .with_iterations(KILL_ITERATIONS)
        .with_seed0(KILL_SEED0)
        .keep_running()
        .with_checkpoint_every(1);
    if let Some(path) = checkpoint {
        cfg = cfg.with_checkpoint(path);
    }
    Goat::new(cfg)
        .test(Arc::new(KernelProgram(kernel)))
        .to_json_summary()
        .expect("summary serializes")
}

#[test]
fn sigkilled_campaign_resumes_byte_identically() {
    // Child mode: run the checkpointing campaign until the parent kills
    // us (or to completion, if the kill is late — both must resume
    // correctly).
    if std::env::var("GOAT_DETERMINISM_CHILD").is_ok() {
        let path = std::env::var("GOAT_DETERMINISM_CKPT").expect("checkpoint path");
        kill_resume_campaign(Some(std::path::Path::new(&path)));
        return;
    }

    let dir = std::env::temp_dir().join(format!("goat-kill-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let ckpt = dir.join("campaign.json");
    let _ = std::fs::remove_file(&ckpt);

    // Reference: the identical campaign, uninterrupted, no checkpoint.
    let reference = kill_resume_campaign(None);

    let exe = std::env::current_exe().expect("test binary");
    let mut child = std::process::Command::new(exe)
        .args(["sigkilled_campaign_resumes_byte_identically", "--exact", "--nocapture"])
        .env("GOAT_DETERMINISM_CHILD", "1")
        .env("GOAT_DETERMINISM_CKPT", &ckpt)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn child campaign");
    std::thread::sleep(std::time::Duration::from_millis(250));
    child.kill().expect("SIGKILL the campaign"); // SIGKILL on unix
    let _ = child.wait();

    // Resume from whatever the child managed to persist.
    let resumed = kill_resume_campaign(Some(&ckpt));
    assert_eq!(
        reference, resumed,
        "campaign resumed after SIGKILL must be byte-identical to the uninterrupted one"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Execution-hot-path equivalence: the duplicate-schedule analysis memo
// is a pure performance feature — a campaign's machine-readable summary
// must be byte-identical with memoization off, on, or in self-checking
// `verify` mode. (The test name predates the coroutine backend, whose
// handoff has no spin budget left to vary.)
// ---------------------------------------------------------------------

use goat::core::MemoMode;

fn hot_path_summary_json(kernel: &'static goat::goker::BugKernel, memo: MemoMode) -> String {
    let cfg = GoatConfig::default()
        .with_delay_bound(2)
        .with_iterations(24)
        .with_seed0(3)
        .keep_running()
        .with_memo(memo);
    Goat::new(cfg)
        .test(Arc::new(KernelProgram(kernel)))
        .to_json_summary()
        .expect("summary serializes")
}

#[test]
fn campaign_summaries_identical_across_memo_and_spin() {
    for name in ["moby28462", "etcd6708", "cockroach1462"] {
        let kernel = goat::goker::by_name(name).expect("kernel");
        let base = hot_path_summary_json(kernel, MemoMode::Off);
        for memo in [MemoMode::On, MemoMode::Verify] {
            let json = hot_path_summary_json(kernel, memo);
            assert_eq!(
                base, json,
                "{name}: summary diverged at memo={memo:?} — the hot path must be \
                 invisible to campaign reports"
            );
        }
    }
}

#[test]
fn memo_verify_mode_passes_across_kernels() {
    // MemoMode::Verify re-analyzes every duplicate schedule and asserts
    // the stored products equal the fresh ones; surviving campaigns on
    // kernels with plenty of duplicate schedules is the memoization
    // soundness check. D=0 maximizes duplicates (no injected yields),
    // so these campaigns actually exercise the hit path.
    for name in ["moby28462", "etcd6708", "grpc1424"] {
        let kernel = goat::goker::by_name(name).expect("kernel");
        let cfg = GoatConfig::default()
            .with_iterations(30)
            .with_seed0(11)
            .keep_running()
            .with_memo(MemoMode::Verify);
        let r = Goat::new(cfg).test(Arc::new(KernelProgram(kernel)));
        assert_eq!(r.records.len(), 30, "{name}: verify campaign ran to budget");
    }
}

#[test]
fn traces_are_well_formed_across_the_suite() {
    for kernel in goat::goker::all_kernels() {
        for seed in [1u64, 99] {
            let r =
                Runtime::run(Config::new(seed).with_delay_bound(1), move || Program::main(kernel));
            if let Some(ect) = &r.ect {
                ect.well_formed().unwrap_or_else(|e| {
                    panic!("{} seed {seed}: malformed trace: {e}", kernel.name)
                });
            }
            goat::core::crosscheck(&r).unwrap_or_else(|e| {
                panic!("{} seed {seed}: trace/runtime disagree: {e}", kernel.name)
            });
        }
    }
}

// ---------------------------------------------------------------------
// Process-isolation equivalence: `GOAT_ISOLATE=proc` is a robustness
// feature, not a semantic one — the full Config travels in the Run
// frame, so a sandboxed worker must return bit-for-bit the result an
// in-process run produces, and campaign reports must not change.
// ---------------------------------------------------------------------

use goat::core::IsolateMode;
use goat::runtime::faultpoint;

/// A fault plan that never fires (no test uses this seed). The active
/// plan is process-wide and is handed to every worker process a campaign
/// spawns, so a test that spawns workers holds this plan: that keeps
/// `binary_garbage_frames_degrade_to_retried_infra_failures`'s plan out
/// of its workers while the two run in parallel.
const NO_FAULTS: &str = "iter:wedge:seed=999999999";

fn isolated_summary_json(
    kernel: &'static goat::goker::BugKernel,
    d: u32,
    seed0: u64,
    iterations: usize,
    stop_on_bug: bool,
    isolate: IsolateMode,
    jobs: Option<usize>,
) -> String {
    let mut cfg = GoatConfig::default()
        .with_delay_bound(d)
        .with_iterations(iterations)
        .with_seed0(seed0)
        .with_isolate(isolate)
        .with_worker_cmd(env!("CARGO_BIN_EXE_goat"));
    if !stop_on_bug {
        cfg = cfg.keep_running();
    }
    if let Some(jobs) = jobs {
        cfg = cfg.with_parallelism(jobs);
    }
    Goat::new(cfg)
        .test(Arc::new(KernelProgram(kernel)))
        .to_json_summary()
        .expect("summary serializes")
}

#[test]
fn campaign_summaries_identical_with_process_isolation() {
    let _faults = faultpoint::scoped(NO_FAULTS);
    for (name, d, seed0, iterations, stop_on_bug) in [
        ("moby28462", 2u32, 7u64, 12usize, true),
        ("etcd6708", 1, 11, 12, false),
        ("grpc1424", 0, 3, 10, false),
    ] {
        let kernel = goat::goker::by_name(name).expect("kernel");
        let summary = |isolate| {
            isolated_summary_json(kernel, d, seed0, iterations, stop_on_bug, isolate, None)
        };
        assert_eq!(
            summary(IsolateMode::Off),
            summary(IsolateMode::Proc),
            "{name}: campaign report must be byte-identical across isolation modes"
        );
    }
    // 40 runs keep two batches in flight on every worker at jobs 1, 2
    // and 4.
    let kernel = goat::goker::by_name("etcd6708").expect("kernel");
    let summary =
        |isolate, jobs| isolated_summary_json(kernel, 1, 11, 40, false, isolate, Some(jobs));
    let off = summary(IsolateMode::Off, 1);
    for jobs in [1, 2, 4] {
        assert_eq!(off, summary(IsolateMode::Proc, jobs), "etcd6708: proc, jobs {jobs}");
    }
}

// ---------------------------------------------------------------------
// Checkpoint/resume under isolation: SIGKILLing the *orchestrator* of
// an isolated campaign mid-flight (workers and all) and resuming from
// its sidecar must still produce a byte-identical report.
// ---------------------------------------------------------------------

const ISO_KILL_ITERATIONS: usize = 400;

fn iso_kill_campaign(checkpoint: Option<&std::path::Path>) -> String {
    let kernel = goat::goker::by_name(KILL_KERNEL).expect("kernel");
    let mut cfg = GoatConfig::default()
        .with_delay_bound(1)
        .with_iterations(ISO_KILL_ITERATIONS)
        .with_seed0(KILL_SEED0)
        .keep_running()
        .with_checkpoint_every(1)
        .with_isolate(IsolateMode::Proc)
        .with_worker_cmd(env!("CARGO_BIN_EXE_goat"));
    if let Some(path) = checkpoint {
        cfg = cfg.with_checkpoint(path);
    }
    Goat::new(cfg)
        .test(Arc::new(KernelProgram(kernel)))
        .to_json_summary()
        .expect("summary serializes")
}

#[test]
fn sigkilled_isolated_campaign_resumes_byte_identically() {
    // Child mode: run the isolated checkpointing campaign until the
    // parent SIGKILLs us (taking our workers down too).
    if std::env::var("GOAT_DETERMINISM_ISO_CHILD").is_ok() {
        let path = std::env::var("GOAT_DETERMINISM_CKPT").expect("checkpoint path");
        iso_kill_campaign(Some(std::path::Path::new(&path)));
        return;
    }

    let dir = std::env::temp_dir().join(format!("goat-iso-kill-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let ckpt = dir.join("campaign.json");
    let _ = std::fs::remove_file(&ckpt);

    // Reference: the identical isolated campaign, uninterrupted.
    let reference = iso_kill_campaign(None);

    let exe = std::env::current_exe().expect("test binary");
    let mut child = std::process::Command::new(exe)
        .args(["sigkilled_isolated_campaign_resumes_byte_identically", "--exact", "--nocapture"])
        .env("GOAT_DETERMINISM_ISO_CHILD", "1")
        .env("GOAT_DETERMINISM_CKPT", &ckpt)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn child campaign");
    std::thread::sleep(std::time::Duration::from_millis(400));
    child.kill().expect("SIGKILL the campaign"); // SIGKILL on unix
    let _ = child.wait();

    // Resume from whatever the child persisted; the fingerprint covers
    // the isolation mode, so the sidecar is accepted only by a proc-mode
    // resume of the same campaign.
    let resumed = iso_kill_campaign(Some(&ckpt));
    assert_eq!(
        reference, resumed,
        "isolated campaign resumed after SIGKILL must be byte-identical to the uninterrupted one"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// IPC data-plane equivalence: run batching is a transport
// optimization — campaign reports must be byte-identical however many
// Run frames share one pipe write and however many batches a worker
// holds. The batch is derived from the claim window; guided campaigns
// cap the window at GUIDED_LAG = 8 and each worker holds two batches,
// so jobs 8, 4, 2 and 1 ship batches of 1, 1, 2 and 4.
// ---------------------------------------------------------------------

fn guided_summary_json(
    kernel: &'static goat::goker::BugKernel,
    d: u32,
    seed0: u64,
    iterations: usize,
    stop_on_bug: bool,
    isolate: IsolateMode,
    jobs: usize,
) -> String {
    let mut cfg = GoatConfig::default()
        .with_delay_bound(d)
        .with_iterations(iterations)
        .with_seed0(seed0)
        .with_guided(true)
        .with_parallelism(jobs)
        .with_isolate(isolate)
        .with_worker_cmd(env!("CARGO_BIN_EXE_goat"));
    if !stop_on_bug {
        cfg = cfg.keep_running();
    }
    Goat::new(cfg)
        .test(Arc::new(KernelProgram(kernel)))
        .to_json_summary()
        .expect("summary serializes")
}

#[test]
fn campaign_summaries_identical_across_ipc_modes() {
    let _faults = faultpoint::scoped(NO_FAULTS);
    for (name, d, seed0, iterations, stop_on_bug) in
        [("etcd6708", 1u32, 11u64, 12usize, false), ("moby28462", 2, 7, 12, true)]
    {
        let kernel = goat::goker::by_name(name).expect("kernel");
        let off =
            guided_summary_json(kernel, d, seed0, iterations, stop_on_bug, IsolateMode::Off, 1);
        for (jobs, batch) in [(8usize, 1usize), (4, 1), (2, 2), (1, 4)] {
            let got = guided_summary_json(
                kernel,
                d,
                seed0,
                iterations,
                stop_on_bug,
                IsolateMode::Proc,
                jobs,
            );
            assert_eq!(
                off, got,
                "{name}/proc, jobs {jobs} (batch {batch}): campaign report must be \
                 byte-identical to -isolate off"
            );
        }
    }
}

// A worker that violates the binary protocol (emits a garbage frame
// instead of a result) must be treated as broken infrastructure: the
// orchestrator retries, exhausts the budget into InfraFailure verdicts,
// and quarantines — it must never attribute the violation to the kernel.
#[test]
fn binary_garbage_frames_degrade_to_retried_infra_failures() {
    use goat::core::GoatVerdict;

    let kernel = goat::goker::by_name("grpc1424").expect("kernel");
    let _plan = faultpoint::scoped("worker:garbage-frame");
    let cfg = GoatConfig::default()
        .with_iterations(8)
        .with_seed0(3)
        .keep_running()
        .with_isolate(IsolateMode::Proc)
        .with_worker_cmd(env!("CARGO_BIN_EXE_goat"))
        .with_max_retries(1)
        .with_quarantine_after(2);
    let result = Goat::new(cfg).test(Arc::new(KernelProgram(kernel)));

    assert!(
        result.quarantined.is_some(),
        "a worker that only ever speaks garbage must quarantine the kernel"
    );
    assert!(!result.records.is_empty(), "the failing iterations are on record");
    for rec in &result.records {
        assert!(
            matches!(rec.verdict, GoatVerdict::InfraFailure { .. }),
            "protocol violations must surface as infra failures, got {:?}",
            rec.verdict
        );
    }
    assert!(result.bug.is_none(), "a protocol violation is never evidence about the program");
}

// ---------------------------------------------------------------------
// Suite-orchestrator equivalence: `-target all -jobs N` multiplexes all
// kernels over one global work-stealing iteration queue, but the
// per-kernel summary lines render through a kernel-granularity reorder
// buffer — stdout must be byte-identical to the sequential suite at any
// jobs value, in both isolation modes, and a SIGKILLed suite must
// resume from its per-kernel sidecars plus suite manifest to the same
// bytes.
// ---------------------------------------------------------------------

/// The `goat` CLI with a scrubbed suite environment: tests control the
/// suite knobs via flags only.
fn goat_cmd() -> std::process::Command {
    let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_goat"));
    cmd.env_remove("GOAT_ISOLATE").env_remove("GOAT_CHECKPOINT").env_remove("GOAT_PARALLELISM");
    cmd
}

fn suite_stdout(cmd: &mut std::process::Command) -> String {
    let out = cmd.output().expect("run goat suite");
    String::from_utf8(out.stdout).expect("utf8 stdout")
}

#[test]
fn suite_stdout_identical_across_jobs_and_isolation() {
    for isolate in ["off", "proc"] {
        let baseline = suite_stdout(
            goat_cmd()
                .args(["-target", "all", "-d", "1", "-freq", "2"])
                .env("GOAT_ISOLATE", isolate),
        );
        assert!(
            baseline.contains("/68 at D=1 within 2 iterations"),
            "suite footer missing ({isolate}): {baseline:?}"
        );
        for jobs in ["2", "4"] {
            let parallel = suite_stdout(
                goat_cmd()
                    .args(["-target", "all", "-d", "1", "-freq", "2", "-jobs", jobs])
                    .env("GOAT_ISOLATE", isolate),
            );
            assert_eq!(
                baseline, parallel,
                "suite stdout diverged at -jobs {jobs} (GOAT_ISOLATE={isolate})"
            );
        }
    }
}

#[test]
fn sigkilled_suite_resumes_byte_identically() {
    let dir = std::env::temp_dir().join(format!("goat-suite-kill-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let ckpt = dir.join("cp.json");
    let args = |with_ckpt: bool| {
        let mut v = vec![
            "-target".to_string(),
            "all".to_string(),
            "-d".to_string(),
            "1".to_string(),
            "-freq".to_string(),
            "120".to_string(),
            "-jobs".to_string(),
            "4".to_string(),
            "-realloc".to_string(),
        ];
        if with_ckpt {
            v.push("-checkpoint".to_string());
            v.push(ckpt.display().to_string());
        }
        v
    };

    // Reference: the identical suite, uninterrupted, no checkpoint.
    let reference = suite_stdout(goat_cmd().args(args(false)));

    let mut child = goat_cmd()
        .args(args(true))
        .env("GOAT_CHECKPOINT_EVERY", "1")
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn suite");
    std::thread::sleep(std::time::Duration::from_millis(300));
    child.kill().expect("SIGKILL the suite"); // SIGKILL on unix
    let _ = child.wait();

    // The suite manifest and at least the first kernel's sidecar are
    // derived from the base path (`cp.json` → `cp.<kernel>.json`).
    assert!(dir.join("cp.suite.json").exists(), "suite manifest missing after kill");
    let sidecars = std::fs::read_dir(&dir)
        .expect("read tmpdir")
        .filter_map(|e| e.ok())
        .filter(|e| {
            let n = e.file_name().to_string_lossy().into_owned();
            n.starts_with("cp.") && n.ends_with(".json") && n != "cp.json" && n != "cp.suite.json"
        })
        .count();
    assert!(sidecars > 0, "no per-kernel sidecar was persisted before the kill");

    // Resume from whatever the suite persisted: finished kernels replay
    // from their sidecars, in-flight ones continue, and the final
    // stdout must match the uninterrupted run byte for byte.
    let resumed = suite_stdout(goat_cmd().args(args(true)).env("GOAT_CHECKPOINT_EVERY", "1"));
    assert_eq!(
        reference, resumed,
        "suite resumed after SIGKILL must be byte-identical to the uninterrupted one"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// A pooled worker serves each campaign under that campaign's own config:
// a worker that ran one campaign at the default step budget, reused by
// a later campaign with an 8-step budget, must run the tiny budget (and
// report its hangs) because every `Run` frame carries its whole config.
// A worker that kept any config from an earlier frame would run the
// stale 200k-step budget and diverge from the in-process summary.
#[test]
fn pooled_workers_run_each_campaigns_config() {
    let _faults = faultpoint::scoped(NO_FAULTS);
    let kernel = goat::goker::by_name("etcd6708").expect("kernel");

    // Prime the pool with workers that ran the default step budget.
    let prime = GoatConfig::default()
        .with_delay_bound(1)
        .with_iterations(6)
        .with_seed0(11)
        .keep_running()
        .with_isolate(IsolateMode::Proc)
        .with_worker_cmd(env!("CARGO_BIN_EXE_goat"));
    let _ = Goat::new(prime).test(Arc::new(KernelProgram(kernel)));

    // Same pool key, different config: an 8-step budget every run
    // exhausts. The checked-in worker is reused, so only the config its
    // `Run` frames carry stands between it and the stale 200k budget.
    let tiny_budget_summary = |isolate: IsolateMode| {
        let mut cfg = GoatConfig::default()
            .with_delay_bound(1)
            .with_iterations(6)
            .with_seed0(11)
            .keep_running()
            .with_isolate(isolate)
            .with_worker_cmd(env!("CARGO_BIN_EXE_goat"));
        cfg.max_steps = 8;
        Goat::new(cfg)
            .test(Arc::new(KernelProgram(kernel)))
            .to_json_summary()
            .expect("summary serializes")
    };

    let off = tiny_budget_summary(IsolateMode::Off);
    // The tiny budget must actually change behavior, or this test proves
    // nothing about which config a reused worker runs.
    let default_budget_off = isolated_summary_json(kernel, 1, 11, 6, false, IsolateMode::Off, None);
    assert_ne!(off, default_budget_off, "an 8-step budget must bite on this kernel");

    let proc_ = tiny_budget_summary(IsolateMode::Proc);
    assert_eq!(off, proc_, "reused workers must run the config each Run frame carries");
}
