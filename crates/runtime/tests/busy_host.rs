//! The watchdog's CPU rule on its own: a host that keeps running
//! outside every runtime primitive is decided wedged before the
//! teardown deadline could decide it.
//!
//! Lives in its own test binary because it needs the default 5 s
//! teardown deadline, and the runtime reads `GOAT_TEARDOWN_TIMEOUT_MS`
//! once per process (`supervision.rs` pins 100 ms).

use goat_runtime::{teardown_timeout, Config, RunOutcome, Runtime, TimeoutPhase};
use std::time::{Duration, Instant};

/// Pin the teardown deadline to its 5 s default before the first run,
/// so an ambient `GOAT_TEARDOWN_TIMEOUT_MS` cannot shorten it.
fn pin_default_teardown() {
    std::env::set_var("GOAT_TEARDOWN_TIMEOUT_MS", "5000");
    assert_eq!(teardown_timeout(), Ok(Duration::from_secs(5)));
}

#[test]
fn a_host_busy_outside_every_primitive_is_still_wedged() {
    // The teardown deadline caps a descheduled host's extra graces far
    // past the loop's end, so only the host's CPU time since the abort
    // request can decide this run wedged while main spins.
    pin_default_teardown();
    let r = Runtime::run(Config::new(1).with_iter_timeout_ms(Some(50)), || {
        let start = Instant::now();
        while start.elapsed() < Duration::from_secs(1) {
            std::hint::spin_loop();
        }
    });
    match r.outcome {
        RunOutcome::TimedOut { phase, elapsed_ms } => {
            assert_eq!(phase, TimeoutPhase::Wedged);
            assert!(elapsed_ms < 1_000, "decided after main's loop ended: {elapsed_ms} ms");
        }
        other => panic!("expected wedged timeout, got {other:?}"),
    }
}
