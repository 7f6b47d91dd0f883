//! Hazards of running a run's goroutines as coroutines on one host
//! thread: state left on a suspended stack at teardown, one thread
//! hosting thousands of goroutines, and a runtime started from inside a
//! goroutine, whether the outer run is hosted or inline on a run host.
//!
//! Every test holds `SERIAL`, so the pool counters one test reads are
//! not moved by another test of this binary.

use goat_runtime::{
    gid, go, go_named, gosched, pool, Chan, Config, RunOutcome, Runtime, WaitGroup,
};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn teardown_drops_what_blocked_and_unstarted_goroutines_hold() {
    let _s = serial();
    // Globally deadlocked: 100 goroutines blocked forever, each holding a
    // clone on its own suspended stack, which only an unwind releases.
    let probe = Arc::new(());
    let held = Arc::clone(&probe);
    let r = Runtime::run(Config::new(1), move || {
        let ch: Chan<u8> = Chan::new(0);
        for _ in 0..100 {
            let held = Arc::clone(&held);
            let ch = ch.clone();
            go(move || {
                let _held = held;
                ch.recv();
            });
        }
        drop(held);
        ch.recv();
    });
    assert!(matches!(r.outcome, RunOutcome::GlobalDeadlock { .. }), "{:?}", r.outcome);
    assert_eq!(Arc::strong_count(&probe), 1, "a blocked goroutine's clone survived teardown");

    // The step limit stops the run while most goroutines were spawned
    // but never granted the token: their bodies are dropped unrun.
    let held = Arc::clone(&probe);
    let r = Runtime::run(Config::new(1).with_max_steps(50), move || {
        for _ in 0..100 {
            let held = Arc::clone(&held);
            go(move || drop(held));
        }
    });
    assert_eq!(r.outcome, RunOutcome::StepLimit);
    assert_eq!(Arc::strong_count(&probe), 1, "an unstarted goroutine's clone survived teardown");
}

#[test]
fn ten_thousand_goroutines_share_one_host_thread() {
    let _s = serial();
    let before = pool::stats().threads_spawned;
    let r = Runtime::run(Config::new(1), || {
        let wg = WaitGroup::new();
        for _ in 0..10_000 {
            wg.add(1);
            let wg = wg.clone();
            go(move || wg.done());
        }
        wg.wait();
    });
    assert!(r.clean(), "{:?}", r.outcome);
    assert_eq!(r.goroutines, 10_001);
    let spawned = pool::stats().threads_spawned - before;
    assert!(spawned <= 1, "one run spawned {spawned} host threads");
}

/// The outer run is hosted (the test thread hands it to a pool host) or
/// inline (a run host runs it itself); either way the nested run takes
/// the hosted path and must not disturb the outer goroutine.
#[test]
fn a_nested_runtime_leaves_the_outer_goroutine_intact() {
    let _s = serial();
    let r = Runtime::run(Config::new(3), nesting_main);
    assert!(r.clean(), "{:?}", r.outcome);

    let (tx, rx) = mpsc::channel();
    let hook: pool::AbandonHook = Arc::new(|r| panic!("no run may be abandoned: {:?}", r.outcome));
    pool::spawn_host(
        move || {
            let host = std::thread::current().id();
            let r = Runtime::run(Config::new(3), move || {
                assert_eq!(std::thread::current().id(), host, "the run host runs it inline");
                nesting_main();
            });
            tx.send(r).expect("the test waits for the result");
        },
        hook,
    )
    .expect("start a run host");
    let r = rx.recv().expect("the run host reports back");
    assert!(r.clean(), "{:?}", r.outcome);
}

/// An outer main whose goroutine runs a whole nested run.
fn nesting_main() {
    let done: Chan<u64> = Chan::new(1);
    let tx = done.clone();
    go_named("nester", move || {
        let me = gid();
        let inner = Runtime::run(Config::new(4), || {
            let ch: Chan<u8> = Chan::new(0);
            let tx = ch.clone();
            go(move || tx.send(7));
            assert_eq!(ch.recv(), Some(7));
        });
        assert!(inner.clean(), "{:?}", inner.outcome);
        // Back in the outer run: same goroutine, and the scheduler
        // still serves it.
        assert_eq!(gid(), me);
        gosched();
        assert_eq!(gid(), me);
        tx.send(me.0);
    });
    let nester = done.recv().expect("the nester reports back");
    assert_ne!(nester, gid().0);
}
