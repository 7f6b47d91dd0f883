//! Every iteration of a campaign outlives its teardown deadline: a
//! goroutine swallows the shutdown unwind and then sleeps off-scheduler
//! for longer than `GOAT_TEARDOWN_TIMEOUT_MS`. The supervisor therefore
//! abandons every run's host — a campaign worker running the iteration
//! inline — finishes the run itself and hands it to a replacement
//! worker, and each abandoned thread wakes shortly after and must leave
//! without delivering anything. The campaign must still record every
//! iteration exactly once, identically at any parallelism.
//!
//! Lives in its own test binary because the teardown deadline is read
//! from the environment, which must be pinned before any run starts.

use goat::core::{FnProgram, Goat, GoatConfig, IsolateMode, Program};
use goat::runtime::{go_named, gosched, pool, Chan};
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

/// Pin a 1 ms teardown deadline before the first run, which is when
/// the runtime reads it.
fn pin_teardown() {
    std::env::set_var("GOAT_TEARDOWN_TIMEOUT_MS", "1");
    assert_eq!(goat::runtime::teardown_timeout(), Ok(Duration::from_millis(1)));
}

#[test]
fn every_abandoned_worker_is_replaced_and_delivers_nothing() {
    pin_teardown();
    let program: Arc<dyn Program> = Arc::new(FnProgram::new("slow_teardown", || {
        let ch: Chan<u8> = Chan::new(0);
        go_named("swallower", move || {
            let _ = panic::catch_unwind(AssertUnwindSafe(|| {
                ch.recv();
            }));
            std::thread::sleep(Duration::from_millis(5));
        });
        gosched();
    }));
    let campaign = |parallelism: usize| {
        let before = pool::stats().abandoned;
        let r = Goat::new(
            GoatConfig::default()
                .with_iterations(60)
                .keep_running()
                .with_parallelism(parallelism)
                .with_isolate(IsolateMode::Off),
        )
        .test(Arc::clone(&program));
        assert_eq!(r.records.len(), 60);
        let abandoned = pool::stats().abandoned - before;
        assert!(abandoned > 0, "no run outlived its teardown deadline");
        r.to_json_summary().expect("summary")
    };
    let alone = campaign(1);
    for parallelism in [2, 4] {
        assert_eq!(campaign(parallelism), alone, "parallelism {parallelism} changed the campaign");
    }
}
