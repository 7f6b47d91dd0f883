//! Pipelined process isolation: each campaign worker keeps two batches
//! outstanding on the worker process it holds. A worker fault during the
//! batch being read belongs to that batch's run alone. The batch queued
//! behind it is re-sent whole to a fresh worker, so none of its runs is
//! reported `Crashed`. A campaign that halts with a batch outstanding
//! leaves no worker checked out and, once the pool is drained, no child
//! process.
//!
//! Its own binary: it sets `GOAT_WORKER_GRACE_MS` before the first
//! isolated run, and it counts this process's children, which another
//! isolated test running alongside would skew. The tests serialize on
//! one lock.

use goat::core::isolate::drain_idle_workers;
use goat::core::{
    run_suite, CampaignResult, Goat, GoatConfig, GoatVerdict, IsolateMode, Program, SuiteConfig,
};
use goat::runtime::faultpoint;
use std::sync::{Arc, Mutex, MutexGuard, Once, PoisonError};

struct KernelProgram(&'static goat::goker::BugKernel);

impl Program for KernelProgram {
    fn name(&self) -> &str {
        Program::name(self.0)
    }
    fn main(&self) {
        Program::main(self.0)
    }
}

/// Serialize the tests of this binary and pin a 1 s worker grace window
/// (read once per process) before any isolated run.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    static GRACE: Once = Once::new();
    GRACE.call_once(|| std::env::set_var("GOAT_WORKER_GRACE_MS", "1000"));
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn kernel() -> Arc<dyn Program> {
    Arc::new(KernelProgram(goat::goker::by_name("moby28462").expect("kernel")))
}

fn config(isolate: IsolateMode, jobs: usize) -> GoatConfig {
    GoatConfig::default()
        .with_delay_bound(2)
        .with_iterations(24)
        .with_seed0(100)
        .with_parallelism(jobs)
        .with_guided(false)
        .with_isolate(isolate)
        .with_worker_cmd(env!("CARGO_BIN_EXE_goat"))
}

/// Iteration 3 sits in the middle of the first batch at one job (runs
/// 1–8) and at two (runs 1–4), with a second batch written behind it.
const FAULTY: usize = 3;

fn workers_out() -> i64 {
    goat::metrics::global().gauge("isolate.workers_out").get()
}

/// Run the 24-iteration campaign under `fault` (applied to the seed of
/// iteration [`FAULTY`]) in a worker process, and check it against the
/// same campaign in-process: only iteration [`FAULTY`] may differ, and
/// its verdict must satisfy `expect`.
fn only_the_faulty_run_differs(fault: &str, expect: fn(&GoatVerdict) -> bool) {
    let _serial = serial();
    for jobs in [1, 2] {
        let off = Goat::new(config(IsolateMode::Off, jobs).keep_running()).test(kernel());
        let seed = off.records[FAULTY - 1].seed;
        let proc = {
            let _plan = faultpoint::scoped(&format!("{fault}{seed}"));
            Goat::new(config(IsolateMode::Proc, jobs).keep_running()).test(kernel())
        };
        assert_eq!(proc.records.len(), 24, "jobs {jobs}");
        for (p, o) in proc.records.iter().zip(&off.records) {
            assert_eq!((p.iter, p.seed), (o.iter, o.seed));
            if p.iter == FAULTY {
                assert!(
                    expect(&p.verdict),
                    "{fault}, jobs {jobs}: iteration {FAULTY}: {}",
                    p.verdict
                );
                continue;
            }
            assert!(
                !matches!(p.verdict, GoatVerdict::Crash { .. } | GoatVerdict::InfraFailure { .. }),
                "{fault}, jobs {jobs}: iteration {}: {}",
                p.iter,
                p.verdict
            );
            assert_eq!(
                (&p.verdict, p.yields),
                (&o.verdict, o.yields),
                "{fault}, jobs {jobs}: iteration {} differs from -isolate off",
                p.iter
            );
        }
        assert_eq!(workers_out(), 0, "{fault}, jobs {jobs}: a worker is still checked out");
    }
}

#[test]
fn a_killed_worker_crashes_only_the_run_it_reached() {
    only_the_faulty_run_differs(
        "worker:kill:9@seed=",
        |v| matches!(v, GoatVerdict::Crash { msg, .. } if msg.contains("killed by signal 9 (SIGKILL)")),
    );
}

#[test]
fn a_garbage_frame_fails_only_its_run_after_retries() {
    only_the_faulty_run_differs(
        "worker:garbage-frame:seed=",
        |v| matches!(v, GoatVerdict::InfraFailure { reason } if reason.contains("corrupt frame")),
    );
}

#[test]
fn a_silent_worker_is_killed_from_outside_for_its_run_alone() {
    only_the_faulty_run_differs(
        "worker:wedge:seed=",
        |v| matches!(v, GoatVerdict::Crash { msg, .. } if msg.contains("no heartbeat within 1000 ms")),
    );
}

/// Pids of this process's children.
#[cfg(target_os = "linux")]
fn children() -> Vec<u32> {
    let me = std::process::id();
    let entries = std::fs::read_dir("/proc").expect("procfs");
    entries
        .filter_map(|entry| {
            let pid: u32 = entry.ok()?.file_name().to_str()?.parse().ok()?;
            let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
            // `pid (comm) state ppid …`; the comm may hold spaces.
            let ppid: u32 = stat.rsplit_once(')')?.1.split_whitespace().nth(1)?.parse().ok()?;
            (ppid == me).then_some(pid)
        })
        .collect()
}

#[cfg(not(target_os = "linux"))]
fn children() -> Vec<u32> {
    Vec::new()
}

#[test]
fn a_halted_campaign_leaves_no_worker_behind() {
    let _serial = serial();
    let summary = |r: &CampaignResult| r.to_json_summary().expect("summary");
    for jobs in [1, 2] {
        let off = Goat::new(config(IsolateMode::Off, jobs)).test(kernel());
        let proc = Goat::new(config(IsolateMode::Proc, jobs)).test(kernel());
        assert!(off.first_detection.is_some_and(|d| d < 8), "the bug halts the first batch");
        assert_eq!(summary(&proc), summary(&off), "jobs {jobs}");
        assert_eq!(workers_out(), 0, "jobs {jobs}: a worker is still checked out");
        let outstanding = goat::metrics::global().gauge("isolate.batches_outstanding");
        assert_eq!(outstanding.get(), 0, "jobs {jobs}: a written batch was never read");
        drain_idle_workers();
        assert_eq!(children(), Vec::<u32>::new(), "jobs {jobs}: a worker outlived the campaign");

        // A suite drains its pool itself.
        let mut halted = None;
        let base = config(IsolateMode::Proc, 1);
        run_suite(&base, &SuiteConfig::default().with_jobs(jobs), &[kernel()], &mut |_, _, r| {
            halted = Some(summary(r));
        });
        assert_eq!(halted.as_deref(), Some(summary(&off).as_str()), "jobs {jobs}");
        assert_eq!(workers_out(), 0);
        assert_eq!(children(), Vec::<u32>::new(), "jobs {jobs}: a worker outlived the suite");
    }
}
