//! Application-scale scenario: a miniature container-manager service —
//! the kind of program the paper's introduction motivates — built on the
//! runtime and validated with GoAT across many schedules, policies and
//! delay bounds.
//!
//! The service composes a bounded worker pool, a token-bucket rate
//! limiter, a health-monitor loop (select + default, the listing-1
//! idiom, *correctly* synchronized here), context-based shutdown and a
//! stats registry behind an RWMutex. Correctness claims checked:
//!
//! * the service processes every request exactly once;
//! * it shuts down cleanly under every explored schedule (no leaks);
//! * GoAT's coverage metric reaches a healthy level over a campaign.

use goat::core::{FnProgram, Goat, GoatConfig};
use goat::runtime::context::Context;
use goat::runtime::{
    go_named, time, Chan, Config, Mutex, Runtime, RwLock, Select, StrategyKind, WaitGroup,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

const REQUESTS: usize = 24;
const WORKERS: usize = 4;

fn container_manager(processed_out: Arc<AtomicUsize>) {
    let (ctx, shutdown) = Context::with_cancel();
    let requests: Chan<u64> = Chan::new(8);
    let results: Chan<u64> = Chan::new(REQUESTS);
    let rate_tokens: Chan<()> = Chan::new(2); // token-bucket: 2 in flight
    let stats = RwLock::new();
    let stats_count = Mutex::new();
    let wg = WaitGroup::new();

    // Worker pool: acquire a rate token, "start the container", report.
    for w in 0..WORKERS {
        wg.add(1);
        let requests = requests.clone();
        let results = results.clone();
        let rate = rate_tokens.clone();
        let stats = stats.clone();
        let stats_count = stats_count.clone();
        let wg = wg.clone();
        go_named(&format!("worker{w}"), move || {
            for req in requests.range() {
                rate.send(()); // acquire a token (blocks at the limit)
                               // container start latency
                time::sleep(Duration::from_millis(1));
                stats.rlock(); // read config snapshot
                stats.runlock();
                stats_count.lock(); // bump counters
                stats_count.unlock();
                results.send(req * 2);
                let _ = rate.recv(); // release the token
            }
            wg.done();
        });
    }

    // Health monitor: poll container health until shutdown (correct
    // version of the moby28462 monitor: the status channel is buffered
    // and checked with the lock *released*).
    {
        let ctx = ctx.clone();
        let stats = stats.clone();
        go_named("healthMonitor", move || loop {
            let stopped = Select::new().recv(ctx.done(), |_| true).default(|| false).run();
            if stopped {
                return;
            }
            stats.rlock();
            stats.runlock();
            time::sleep(Duration::from_millis(2));
        });
    }

    // Producer: submit all requests then close the queue.
    {
        let requests = requests.clone();
        go_named("apiServer", move || {
            for r in 0..REQUESTS as u64 {
                requests.send(r);
            }
            requests.close();
        });
    }

    // Collector: drain exactly REQUESTS results.
    let mut sum = 0u64;
    for _ in 0..REQUESTS {
        sum += results.recv().expect("result");
        processed_out.fetch_add(1, Ordering::SeqCst);
    }
    assert_eq!(sum, (0..REQUESTS as u64).map(|r| r * 2).sum::<u64>());
    wg.wait(); // all workers drained the closed queue
    shutdown.cancel(); // stop the health monitor
    time::sleep(Duration::from_millis(5)); // let it observe the cancel
}

#[test]
fn service_is_correct_across_schedules_and_policies() {
    for seed in 0..12u64 {
        for (label, cfg) in [
            ("native", Config::new(seed)),
            ("d3", Config::new(seed).with_delay_bound(3)),
            ("random", Config::new(seed).with_strategy(StrategyKind::Random)),
        ] {
            let processed = Arc::new(AtomicUsize::new(0));
            let p = Arc::clone(&processed);
            let r = Runtime::run(cfg, move || container_manager(p));
            assert!(r.clean(), "{label} seed {seed}: {:?} alive={:?}", r.outcome, r.alive_at_end);
            assert_eq!(processed.load(Ordering::SeqCst), REQUESTS, "{label} seed {seed}");
            goat::core::crosscheck(&r).unwrap();
            let ect = r.ect.expect("traced");
            ect.well_formed().unwrap();
        }
    }
}

#[test]
fn goat_campaign_reports_healthy_coverage_and_no_bug() {
    let program = Arc::new(FnProgram::new("container-manager", || {
        container_manager(Arc::new(AtomicUsize::new(0)));
    }));
    let goat =
        Goat::new(GoatConfig::default().with_iterations(15).with_delay_bound(2).keep_running());
    let result = goat.test(program);
    assert!(!result.detected(), "correct service flagged: {:?}", result.bug);
    assert!(
        result.coverage_percent() > 50.0,
        "campaign should exercise most requirements: {:.1}%",
        result.coverage_percent()
    );
    // The global tree collapses the four loop-spawned workers into one
    // equivalence node: main + {worker, monitor, api} + consumers.
    assert!(result.global_tree.len() >= 4, "{}", result.global_tree.render());
    // Trace statistics on a fresh run of the same service.
    let run = Runtime::run(Config::new(5), || {
        container_manager(Arc::new(AtomicUsize::new(0)));
    });
    let stats = goat::trace::TraceStats::of(run.ect.as_ref().expect("traced"));
    assert!(stats.categories.total() > 100);
    assert!(stats.unfinished().is_empty(), "{stats}");
    assert!(stats.most_blocked().is_some());
}
