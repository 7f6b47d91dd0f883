//! IPC run batching through the campaign engine: under `-isolate proc`
//! one job claims batches of eight runs, ships each batch whole in one
//! write to the worker process it holds, and keeps two batches
//! outstanding on it, whether the campaign comes from `Goat::test` or
//! from `run_suite`.
//!
//! One test in its own binary: it reads process-wide `isolate.*`
//! metrics, which a concurrently running isolated test would skew.

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

/// Batch writes and isolated runs so far.
fn shipped() -> (u64, u64) {
    let reg = goat::metrics::global();
    (reg.counter("isolate.batch_writes").get(), reg.counter("isolate.runs").get())
}

#[test]
fn ipc_batches_are_not_split_by_the_claim_window() {
    let kernel: Arc<dyn Program> =
        Arc::new(KernelProgram(goat::goker::by_name("etcd6708").expect("kernel")));
    let cfg = GoatConfig::default()
        .with_delay_bound(1)
        .with_iterations(24)
        .with_seed0(11)
        .keep_running()
        .with_parallelism(1)
        .with_guided(false)
        .with_isolate(IsolateMode::Proc)
        .with_worker_cmd(env!("CARGO_BIN_EXE_goat"));
    let reg = goat::metrics::global();
    let outstanding = reg.gauge("isolate.batches_outstanding");

    let (writes, runs) = shipped();
    let r = Goat::new(cfg.clone()).test(Arc::clone(&kernel));
    assert_eq!(r.records.len(), 24);
    assert_eq!(
        (shipped().0 - writes, shipped().1 - runs),
        (3, 24),
        "Goat::test: 24 runs at one job are 3 batches of 8, each in one write"
    );
    assert!(
        outstanding.high_water() >= 2,
        "the next batch is written before the previous one is merged"
    );
    assert_eq!(outstanding.get(), 0, "every written batch was read");

    let (writes, runs) = shipped();
    let mut n = 0;
    run_suite(&cfg, &SuiteConfig::default().with_jobs(1), &[kernel], &mut |_, _, r| {
        n = r.records.len();
    });
    assert_eq!(n, 24);
    assert_eq!(
        (shipped().0 - writes, shipped().1 - runs),
        (3, 24),
        "run_suite: 24 runs at one job are 3 batches of 8, each in one write"
    );
    assert_eq!(outstanding.get(), 0);
    assert_eq!(reg.gauge("isolate.workers_out").get(), 0, "every lane returned its worker");
}
