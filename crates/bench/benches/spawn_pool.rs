//! Benchmarks of the pooled execution engine: goroutine spawn
//! throughput with and without reuse (`Config::pool`: a pooled host
//! thread and recycled coroutine stacks, vs. a fresh host thread per run
//! and a fresh stack per goroutine), and a small campaign under the
//! sequential vs. the streaming parallel executor. The `fresh_threads`
//! and `unpooled` ids keep their historical names for comparison.

use criterion::{criterion_group, criterion_main, Criterion};
use goat_core::{FnProgram, Goat, GoatConfig};
use goat_runtime::{go, Config, Runtime, WaitGroup};
use std::sync::Arc;

fn quiet(seed: u64, pool: bool) -> Config {
    Config::new(seed).with_native_preempt_prob(0.0).with_trace(false).with_pool(pool)
}

/// One run spawning `n` goroutines that immediately finish: dominated
/// by goroutine creation cost, i.e. by stack reuse vs. mapping.
fn spawn_burst(seed: u64, pool: bool, n: usize) {
    let r = Runtime::run(quiet(seed, pool), move || {
        let wg = WaitGroup::new();
        for _ in 0..n {
            wg.add(1);
            let wg = wg.clone();
            go(move || wg.done());
        }
        wg.wait();
    });
    assert!(r.clean());
}

fn bench_spawn_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("spawn_64_goroutines");
    g.bench_function("pooled", |b| b.iter(|| spawn_burst(1, true, 64)));
    g.bench_function("fresh_threads", |b| b.iter(|| spawn_burst(1, false, 64)));
    g.finish();
}

fn campaign_program() -> Arc<FnProgram> {
    Arc::new(FnProgram::new("bench", || {
        let wg = WaitGroup::new();
        for _ in 0..4 {
            wg.add(1);
            let wg = wg.clone();
            go(move || wg.done());
        }
        wg.wait();
    }))
}

fn run_campaign(parallelism: usize, pool: bool) {
    let cfg = GoatConfig::default()
        .with_iterations(24)
        .with_parallelism(parallelism)
        .with_pool(pool)
        .keep_running();
    let r = Goat::new(cfg).test(campaign_program());
    assert_eq!(r.records.len(), 24);
}

fn bench_campaign_executors(c: &mut Criterion) {
    let mut g = c.benchmark_group("campaign_24_iters");
    g.sample_size(10);
    g.bench_function("sequential_pooled", |b| b.iter(|| run_campaign(1, true)));
    g.bench_function("streaming_p4_pooled", |b| b.iter(|| run_campaign(4, true)));
    g.bench_function("streaming_p4_unpooled", |b| b.iter(|| run_campaign(4, false)));
    g.finish();
}

criterion_group!(benches, bench_spawn_throughput, bench_campaign_executors);
criterion_main!(benches);
