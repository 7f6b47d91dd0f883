//! Worker-pool regression tests that need their own process: the pool
//! is a process-global created on first use, and these tests pin its
//! environment knobs (`GOAT_POOL_MAX_IDLE`, `GOAT_TEARDOWN_TIMEOUT_MS`)
//! before that first use. Everything lives in ONE `#[test]` so the env
//! is set exactly once, ahead of any pool activity.
//!
//! The pool hosts whole runs — every goroutine of a run is a coroutine
//! on the run's one host thread — so each property is exercised with
//! runs, not goroutines: concurrent runs oversubscribe the idle cap, and
//! a wedged goroutine wedges (and abandons) its run's host thread.

use goat_runtime::{go, go_named, pool, teardown_timeout, Chan, Config, Runtime, WaitGroup};
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const MAX_IDLE: usize = 4;
const TEARDOWN_MS: u64 = 300;

fn settle(cond: impl Fn() -> bool) {
    for _ in 0..200 {
        if cond() {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("pool did not settle");
}

/// Pin both knobs; the runtime reads each once, so this must precede
/// the first pool checkout anywhere in this process.
fn pin_knobs() {
    std::env::set_var("GOAT_POOL_MAX_IDLE", MAX_IDLE.to_string());
    std::env::set_var("GOAT_TEARDOWN_TIMEOUT_MS", TEARDOWN_MS.to_string());
    assert_eq!(pool::max_idle(), Ok(MAX_IDLE));
    assert_eq!(teardown_timeout(), Ok(Duration::from_millis(TEARDOWN_MS)));
}

#[test]
fn idle_bound_holds_and_wedged_workers_are_abandoned() {
    pin_knobs();

    // -- no idle-thread leak past GOAT_POOL_MAX_IDLE ------------------
    // 12 runs (3× the idle cap) are in flight at once — each main waits
    // on a host-level barrier until all 12 host threads are busy — and
    // all complete; after they are torn down, at most MAX_IDLE workers
    // may stay parked and the surplus must have retired.
    let runs = 3 * MAX_IDLE;
    let all_hosted = Arc::new(Barrier::new(runs));
    let drivers: Vec<_> = (0..runs)
        .map(|i| {
            let all_hosted = Arc::clone(&all_hosted);
            std::thread::spawn(move || {
                Runtime::run(Config::new(i as u64), move || {
                    let wg = WaitGroup::new();
                    wg.add(1);
                    let done = wg.clone();
                    go(move || done.done());
                    all_hosted.wait();
                    wg.wait();
                })
            })
        })
        .collect();
    for d in drivers {
        let r = d.join().expect("driver thread");
        assert!(r.clean(), "{:?}", r.outcome);
    }

    // Workers re-park just after their run's teardown wakes its driver,
    // so poll until the pool fully quiesces — every spawned worker has
    // either retired or landed on the idle stack. (Checking only
    // `idle_now <= MAX_IDLE` races: a straggler still between job
    // completion and park would re-park during the next phase and top
    // the idle stack back up to the cap.)
    settle(|| {
        let s = pool::stats();
        s.threads_spawned == s.workers_retired + s.idle_now as u64
    });
    let s = pool::stats();
    assert!(
        s.idle_now <= MAX_IDLE,
        "idle stack leaked past GOAT_POOL_MAX_IDLE: {} > {MAX_IDLE}",
        s.idle_now
    );
    assert!(s.threads_spawned > MAX_IDLE as u64, "scenario must oversubscribe the cap");
    assert!(s.workers_retired >= 1, "surplus workers must retire, stats: {s:?}");

    // -- wedged worker abandoned at the teardown deadline -------------
    // The goroutine swallows the shutdown unwind and then stalls
    // outside all runtime primitives, holding its run's host thread.
    // Teardown must give up on it after GOAT_TEARDOWN_TIMEOUT_MS and the
    // host worker must be written off, not returned to the idle stack.
    let abandoned_before = pool::stats().abandoned;
    let t0 = Instant::now();
    let r = Runtime::run(Config::new(2), || {
        let ch: Chan<u8> = Chan::new(0);
        go_named("wedger", move || {
            let _ = panic::catch_unwind(AssertUnwindSafe(|| {
                ch.recv(); // parks forever; unwound at shutdown
            }));
            // Wedged: off the scheduler, so the host never gets back.
            std::thread::sleep(Duration::from_secs(10));
        });
        goat_runtime::gosched();
    });
    let elapsed = t0.elapsed();
    assert!(r.outcome.is_completed(), "{:?}", r.outcome);
    assert_eq!(r.alive_at_end.len(), 1, "the wedger must be reported leaked");
    assert!(
        elapsed < Duration::from_secs(3),
        "teardown must abandon the wedged worker within the deadline, took {elapsed:?}"
    );
    let s = pool::stats();
    assert!(
        s.abandoned > abandoned_before,
        "abandoned counter must record the written-off worker, stats: {s:?}"
    );

    // -- abandoned workers are replaced -------------------------------
    // The pool must not bleed capacity: writing off a wedged worker
    // spawns a parked replacement (up to the idle cap), so the next
    // checkout still finds a warm thread.
    assert!(s.workers_replaced >= 1, "pool must replace the abandoned worker, stats: {s:?}");
    assert!(
        (1..=MAX_IDLE).contains(&s.idle_now),
        "replacement must land on the idle stack within the cap, stats: {s:?}"
    );
    // And the replacement is actually usable: a fresh run is hosted by
    // a parked worker without spawning one.
    let spawned_before = pool::stats().threads_spawned;
    let r = Runtime::run(Config::new(3), || {
        let wg = WaitGroup::new();
        wg.add(1);
        let wg2 = wg.clone();
        go(move || wg2.done());
        wg.wait();
    });
    assert!(r.clean(), "{:?}", r.outcome);
    assert_eq!(pool::stats().threads_spawned, spawned_before, "the replacement hosts the run");
}
