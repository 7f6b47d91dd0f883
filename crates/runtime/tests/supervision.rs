//! Supervision integration tests: the per-iteration wall-clock watchdog
//! (`iter_timeout_ms`), its cooperative → wedged escalation, and the
//! `GOAT_FAULT` injection harness.
//!
//! Every test takes a [`scoped`] guard — even the ones that inject
//! nothing (via a seed that no test config uses) — so the whole binary
//! serializes on the fault plan and a probability fault installed by one
//! test can never leak into a concurrently running one.

use goat_runtime::faultpoint::{self, FaultGuard};
use goat_runtime::{gosched, pool, teardown_timeout, Config, RunOutcome, Runtime, TimeoutPhase};
use std::sync::{mpsc, Arc, Mutex, Once};
use std::time::Duration;

/// A plan that can never fire (no test uses this seed): serialization
/// without injection.
const INERT: &str = "iter:wedge:seed=999999999";

/// Install the fault plan `spec` for the caller's test, after pinning
/// the teardown deadline. The runtime reads `GOAT_TEARDOWN_TIMEOUT_MS`
/// once, at its first run, so every test comes through here first.
/// Wedged runs leave a stalled goroutine behind; a 100 ms deadline
/// makes each such test cost milliseconds, not the 5 s default.
fn scoped(spec: &str) -> FaultGuard {
    static PIN: Once = Once::new();
    PIN.call_once(|| std::env::set_var("GOAT_TEARDOWN_TIMEOUT_MS", "100"));
    assert_eq!(teardown_timeout(), Ok(Duration::from_millis(100)));
    faultpoint::scoped(spec)
}

#[test]
fn watchdog_does_not_misfire_on_fast_programs() {
    let _g = scoped(INERT);
    let r = Runtime::run(Config::new(1).with_iter_timeout_ms(Some(5_000)), || {
        gosched();
    });
    assert!(matches!(r.outcome, RunOutcome::Completed), "{:?}", r.outcome);
}

#[test]
fn cooperative_timeout_fires_for_spinning_program() {
    let _g = scoped(INERT);
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
    let _g = scoped(INERT);
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
fn injected_spin_fault_times_out_cooperatively() {
    let _g = scoped("iter:spin:seed=17");
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
    let _g = scoped("iter:wedge:seed=17");
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
    let _g = scoped("iter:wedge:seed=17");
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
    let _g = scoped("iter:wedge:seed=17");
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
    let _g = scoped("iter:panic:seed=17");
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
    let _g = scoped("iter:panic:seed=17");
    let r = Runtime::run(Config::new(18), || {
        gosched();
    });
    assert!(matches!(r.outcome, RunOutcome::Completed), "{:?}", r.outcome);
}

#[test]
fn pool_checkout_fault_is_an_infra_failure() {
    let _g = scoped("pool_checkout:err:1");
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
    let _g = scoped("pool_checkout:err:1");
    let r = Runtime::run(Config::new(3).with_pool(false), || {
        gosched();
    });
    assert!(matches!(r.outcome, RunOutcome::InfraFailure { .. }), "{:?}", r.outcome);
}
