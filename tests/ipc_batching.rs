//! IPC run batching through the campaign engine: under `-isolate proc`
//! one job claims batches of eight runs, each shipped in one worker
//! checkout, whether the campaign comes from `Goat::test` or from
//! `run_suite`.
//!
//! One test in its own binary: it counts process-wide `isolate.*`
//! checkouts, which a concurrently running isolated test would skew.

use goat::core::{run_suite, Goat, GoatConfig, IsolateMode, Program, SuiteConfig};
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

/// Worker checkouts so far: one per batch shipped to a worker, whether
/// the pool served it warm or spawned a fresh worker for it.
fn checkouts() -> u64 {
    let reg = goat::metrics::global();
    reg.counter("isolate.workers_spawned").get() + reg.counter("isolate.workers_reused").get()
}

#[test]
fn ipc_batches_are_not_split_by_the_claim_window() {
    let kernel: Arc<dyn Program> =
        Arc::new(KernelProgram(goat::goker::by_name("etcd6708").expect("kernel")));
    let cfg = GoatConfig::default()
        .with_delay_bound(1)
        .with_iterations(16)
        .with_seed0(11)
        .keep_running()
        .with_parallelism(1)
        .with_guided(false)
        .with_isolate(IsolateMode::Proc)
        .with_worker_cmd(env!("CARGO_BIN_EXE_goat"));

    let before = checkouts();
    let r = Goat::new(cfg.clone()).test(Arc::clone(&kernel));
    assert_eq!(r.records.len(), 16);
    assert_eq!(checkouts() - before, 2, "Goat::test: 16 runs at one job are 2 batches");

    let before = checkouts();
    let mut runs = 0;
    run_suite(&cfg, &SuiteConfig::default().with_jobs(1), &[kernel], &mut |_, _, r| {
        runs = r.records.len();
    });
    assert_eq!(runs, 16);
    assert_eq!(checkouts() - before, 2, "run_suite: 16 runs at one job are 2 batches");
}
