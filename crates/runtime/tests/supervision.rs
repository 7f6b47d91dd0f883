//! Supervision integration tests: the per-iteration wall-clock watchdog
//! (`iter_timeout_ms`), its cooperative → wedged escalation, and the
//! `GOAT_FAULT` injection harness.
//!
//! Every test takes a `faultpoint::scoped` guard — even the ones that
//! inject nothing (via a seed that no test config uses) — so the whole
//! binary serializes on the fault plan and a probability fault installed
//! by one test can never leak into a concurrently running one.

use goat_runtime::faultpoint::{self};
use goat_runtime::{gosched, pool, Config, RunOutcome, Runtime, TimeoutPhase};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// A plan that can never fire (no test uses this seed): serialization
/// without injection.
const INERT: &str = "iter:wedge:seed=999999999";

/// Wedged runs leave a stalled goroutine behind; keep the teardown
/// deadline short so each such test costs milliseconds, not the 5 s
/// default.
fn short_teardown() {
    std::env::set_var("GOAT_TEARDOWN_TIMEOUT_MS", "100");
}

#[test]
fn watchdog_does_not_misfire_on_fast_programs() {
    let _g = faultpoint::scoped(INERT);
    let r = Runtime::run(Config::new(1).with_iter_timeout_ms(Some(5_000)), || {
        gosched();
    });
    assert!(matches!(r.outcome, RunOutcome::Completed), "{:?}", r.outcome);
}

#[test]
fn cooperative_timeout_fires_for_spinning_program() {
    let _g = faultpoint::scoped(INERT);
    let r = Runtime::run(
        // The step watchdog must not win the race: the point of the
        // wall-clock watchdog is catching what max_steps cannot.
        Config::new(1).with_iter_timeout_ms(Some(60)).with_max_steps(u64::MAX),
        || loop {
            gosched();
        },
    );
    match r.outcome {
        RunOutcome::TimedOut { phase, elapsed_ms } => {
            assert_eq!(phase, TimeoutPhase::Cooperative);
            assert!(elapsed_ms >= 60, "elapsed {elapsed_ms} ms");
        }
        other => panic!("expected cooperative timeout, got {other:?}"),
    }
}

#[test]
fn wedged_timeout_fires_for_natively_stalled_program() {
    let _g = faultpoint::scoped(INERT);
    short_teardown();
    // The goroutine stalls *outside* every runtime primitive, so the
    // cooperative flag is never observed; only the hard deadline can
    // reclaim the run.
    let r = Runtime::run(Config::new(1).with_iter_timeout_ms(Some(40)), || {
        std::thread::sleep(Duration::from_millis(400));
    });
    match r.outcome {
        RunOutcome::TimedOut { phase, elapsed_ms } => {
            assert_eq!(phase, TimeoutPhase::Wedged);
            assert!(elapsed_ms >= 40, "elapsed {elapsed_ms} ms");
        }
        other => panic!("expected wedged timeout, got {other:?}"),
    }
}

#[test]
fn a_host_busy_outside_every_primitive_is_still_wedged() {
    let _g = faultpoint::scoped(INERT);
    // The default teardown deadline caps a descheduled host's extra
    // graces far past the loop's end, so only the host's CPU time since
    // the abort request can decide this run wedged while main spins.
    std::env::set_var("GOAT_TEARDOWN_TIMEOUT_MS", "5000");
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

#[test]
fn injected_spin_fault_times_out_cooperatively() {
    let _g = faultpoint::scoped("iter:spin:seed=17");
    let before = faultpoint::injected();
    let r = Runtime::run(
        Config::new(17).with_iter_timeout_ms(Some(50)).with_max_steps(u64::MAX),
        || unreachable!("body replaced by the injected fault"),
    );
    assert!(
        matches!(r.outcome, RunOutcome::TimedOut { phase: TimeoutPhase::Cooperative, .. }),
        "{:?}",
        r.outcome
    );
    assert!(faultpoint::injected() > before, "injection must be counted");
}

#[test]
fn injected_wedge_fault_hits_the_hard_deadline() {
    let _g = faultpoint::scoped("iter:wedge:seed=17");
    short_teardown();
    let r = Runtime::run(Config::new(17).with_iter_timeout_ms(Some(40)), || {
        unreachable!("body replaced by the injected fault")
    });
    assert!(
        matches!(r.outcome, RunOutcome::TimedOut { phase: TimeoutPhase::Wedged, .. }),
        "{:?}",
        r.outcome
    );
}

#[test]
fn injected_wedge_on_pool_worker_is_abandoned_and_replaced() {
    let _g = faultpoint::scoped("iter:wedge:seed=17");
    short_teardown();
    let before = goat_runtime::pool::stats();
    let r = Runtime::run(Config::new(17).with_iter_timeout_ms(Some(40)).with_pool(true), || {
        unreachable!("body replaced by the injected fault")
    });
    assert!(
        matches!(r.outcome, RunOutcome::TimedOut { phase: TimeoutPhase::Wedged, .. }),
        "{:?}",
        r.outcome
    );
    let after = goat_runtime::pool::stats();
    assert!(
        after.abandoned > before.abandoned,
        "wedged worker must be abandoned: {before:?} -> {after:?}"
    );
    assert!(
        after.workers_replaced > before.workers_replaced,
        "pool must spawn a replacement for the abandoned worker: {before:?} -> {after:?}"
    );
}

#[test]
fn injected_wedge_on_a_run_host_is_handed_to_its_hook() {
    let _g = faultpoint::scoped("iter:wedge:seed=17");
    short_teardown();
    let before = pool::stats();
    let (hook_tx, hook_rx) = mpsc::channel();
    let hook_tx = Mutex::new(hook_tx);
    let hook: pool::AbandonHook = Arc::new(move |r| {
        hook_tx.lock().unwrap().send(r).expect("the test waits for the hand-over");
    });
    let (ret_tx, ret_rx) = mpsc::channel();
    pool::spawn_host(
        move || {
            // Inline on this run host, which the wedge then holds.
            let r = Runtime::run(Config::new(17).with_iter_timeout_ms(Some(40)), || {
                unreachable!("body replaced by the injected fault")
            });
            let _ = ret_tx.send(r);
        },
        hook,
    )
    .expect("start a run host");
    let r = hook_rx.recv_timeout(Duration::from_secs(10)).expect("the wedged run is handed over");
    assert!(
        matches!(r.outcome, RunOutcome::TimedOut { phase: TimeoutPhase::Wedged, .. }),
        "{:?}",
        r.outcome
    );
    let after = pool::stats();
    assert!(after.abandoned > before.abandoned, "{before:?} -> {after:?}");
    assert!(
        ret_rx.recv_timeout(Duration::from_millis(200)).is_err(),
        "the abandoned host must never return from the run"
    );
}

#[test]
fn injected_panic_fault_crashes_the_run() {
    let _g = faultpoint::scoped("iter:panic:seed=17");
    let r = Runtime::run(Config::new(17), || unreachable!("body replaced by the injected fault"));
    match r.outcome {
        RunOutcome::Panicked { msg, .. } => {
            assert!(msg.contains("injected fault"), "{msg}");
        }
        other => panic!("expected panic, got {other:?}"),
    }
}

#[test]
fn injected_fault_leaves_other_seeds_untouched() {
    let _g = faultpoint::scoped("iter:panic:seed=17");
    let r = Runtime::run(Config::new(18), || {
        gosched();
    });
    assert!(matches!(r.outcome, RunOutcome::Completed), "{:?}", r.outcome);
}

#[test]
fn pool_checkout_fault_is_an_infra_failure() {
    let _g = faultpoint::scoped("pool_checkout:err:1");
    let r = Runtime::run(Config::new(3).with_pool(true), || {
        gosched();
    });
    match r.outcome {
        RunOutcome::InfraFailure { reason } => {
            assert!(reason.contains("pool_checkout"), "{reason}");
        }
        other => panic!("expected infra failure, got {other:?}"),
    }
}

#[test]
fn pool_checkout_fault_applies_to_unpooled_spawns_too() {
    let _g = faultpoint::scoped("pool_checkout:err:1");
    let r = Runtime::run(Config::new(3).with_pool(false), || {
        gosched();
    });
    assert!(matches!(r.outcome, RunOutcome::InfraFailure { .. }), "{:?}", r.outcome);
}
