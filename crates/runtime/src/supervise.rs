//! The run supervisor: one thread per process owns every run's
//! wall-clock deadlines.
//!
//! A run registers when it starts and deregisters when its host
//! finishes the teardown; each costs a lock and a push (or a remove) on
//! a short list of live runs. The supervisor sleeps until the earliest
//! deadline of that list and wakes only when one falls due — a run that
//! ends before its first deadline is never looked at. What a due
//! deadline means is decided by [`RtShared::on_deadline`]: the soft and
//! hard watchdog deadlines (`Config::iter_timeout_ms`), then the
//! teardown deadline (`GOAT_TEARDOWN_TIMEOUT_MS`, default 5 s) after
//! which the host thread is abandoned.
//!
//! An abandoned run is finished here. A hosted run's driver is woken and
//! collects the result itself. An inline run's host is the thread that
//! would have collected it, and it is wedged: the supervisor collects
//! the result and hands it to the hook its run host registered
//! ([`crate::pool::spawn_host`]).

use crate::pool::AbandonHook;
use crate::rt::{collect, Due, RtShared};
use parking_lot::{Condvar, Mutex};
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One live run.
struct Watch {
    id: u64,
    rt: Arc<RtShared>,
    /// When the supervisor next looks at this run.
    due: Instant,
    /// Soft and hard watchdog deadlines, if the run has a watchdog.
    watchdog: Option<(Instant, Instant)>,
    /// Inline runs only: where the result goes if the host is abandoned.
    on_abandon: Option<AbandonHook>,
}

struct Registry {
    watches: Vec<Watch>,
    next_id: u64,
    /// When the sleeping supervisor wakes next (`None`: not before a
    /// registration wakes it).
    wake_at: Option<Instant>,
    /// The supervisor thread was started.
    running: bool,
}

static REGISTRY: Mutex<Registry> =
    Mutex::new(Registry { watches: Vec::new(), next_id: 0, wake_at: None, running: false });
static WAKE: Condvar = Condvar::new();

/// `GOAT_TEARDOWN_TIMEOUT_MS`: how long a decided run's teardown may
/// take before its host thread is abandoned.
fn teardown() -> Duration {
    Duration::from_millis(
        std::env::var("GOAT_TEARDOWN_TIMEOUT_MS")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(5_000),
    )
}

/// Register a run that started at `started`; returns the id to
/// [`unwatch`] it with once its host finished.
pub(crate) fn watch(
    rt: &Arc<RtShared>,
    started: Instant,
    iter_timeout_ms: Option<u64>,
    on_abandon: Option<AbandonHook>,
) -> u64 {
    let watchdog = iter_timeout_ms.map(|ms| {
        let soft = started + Duration::from_millis(ms);
        (soft, soft + Duration::from_millis((ms / 4).clamp(10, 1_000)))
    });
    let due = watchdog.map_or_else(|| started + teardown(), |(soft, _)| soft);
    let mut reg = REGISTRY.lock();
    if !reg.running {
        std::thread::Builder::new()
            .name("goat-supervisor".to_string())
            .spawn(supervise)
            .expect("failed to spawn the run supervisor thread");
        reg.running = true;
    }
    let id = reg.next_id;
    reg.next_id += 1;
    reg.watches.push(Watch { id, rt: Arc::clone(rt), due, watchdog, on_abandon });
    if reg.wake_at.is_none_or(|w| due < w) {
        reg.wake_at = Some(due);
        WAKE.notify_one();
    }
    id
}

/// Deregister a run whose host finished. A run the supervisor is
/// looking at right now is not in the list; it finds the host done and
/// drops the run itself.
pub(crate) fn unwatch(id: u64) {
    let mut reg = REGISTRY.lock();
    let gone = reg.watches.iter().rposition(|w| w.id == id).map(|i| reg.watches.swap_remove(i));
    drop(reg);
    drop(gone);
}

/// The supervisor thread: sleep until the earliest deadline, then act
/// on every due run outside the registry lock.
fn supervise() {
    let mut reg = REGISTRY.lock();
    loop {
        let now = Instant::now();
        let mut due = Vec::new();
        let mut i = 0;
        while i < reg.watches.len() {
            if reg.watches[i].due <= now {
                due.push(reg.watches.swap_remove(i));
            } else {
                i += 1;
            }
        }
        if due.is_empty() {
            reg.wake_at = reg.watches.iter().map(|w| w.due).min();
            match reg.wake_at {
                Some(at) => drop(WAKE.wait_for(&mut reg, at.saturating_duration_since(now))),
                None => WAKE.wait(&mut reg),
            }
            continue;
        }
        drop(reg);
        let teardown = teardown();
        let mut again = Vec::new();
        for mut w in due {
            match w.rt.on_deadline(now, w.watchdog, teardown) {
                Due::Finished => {}
                Due::Again(at) => {
                    w.due = at;
                    again.push(w);
                }
                Due::Abandoned => abandon(w),
            }
        }
        reg = REGISTRY.lock();
        reg.watches.extend(again);
    }
}

/// Finish an abandoned run without its host. A hosted run's driver was
/// already woken to collect the result; an inline run's result goes to
/// its host's hook. A panicking hook must not take the supervisor, and
/// with it every other run's deadlines, down.
fn abandon(w: Watch) {
    if let Some(on_abandon) = w.on_abandon {
        let result = collect(&w.rt);
        if std::panic::catch_unwind(AssertUnwindSafe(|| on_abandon(result))).is_err() {
            eprintln!("goat: the abandon hook of a wedged run host panicked");
        }
    }
    w.rt.abandoned();
}
