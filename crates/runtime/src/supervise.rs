//! The run supervisor: one thread per process owns every run's
//! wall-clock deadlines.
//!
//! A run registers when it starts and deregisters when its host
//! finishes the teardown; each costs a lock and a push (or a remove) on
//! a short list of live runs. The supervisor sleeps until the earliest
//! deadline of that list and wakes only when one falls due — a run that
//! ends before its first deadline is never looked at. What a due
//! deadline means is decided by [`RtShared::on_deadline`]: the soft
//! watchdog deadline (`Config::iter_timeout_ms`) and the grace a
//! cooperative abort gets after it, then the teardown deadline
//! (`GOAT_TEARDOWN_TIMEOUT_MS`, default 5 s) after which the host
//! thread is abandoned.
//!
//! An abandoned run is finished here. Its host is the thread that would
//! have collected the result, and it is wedged: the supervisor collects
//! the result and hands it to the run's abandon hook — the hook a run
//! host registered ([`crate::pool::spawn_host`]), or the channel a
//! borrowing caller waits on ([`crate::pool::with_host`]).

use crate::config::env_knob;
use crate::pool::AbandonHook;
use crate::rt::{collect, Due, RtShared};
use parking_lot::{Condvar, Mutex};
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// One live run.
struct Watch {
    id: u64,
    rt: Arc<RtShared>,
    /// When the supervisor next looks at this run.
    due: Instant,
    /// The soft watchdog deadline and the grace a cooperative abort gets
    /// before the run is decided wedged, if the run has a watchdog.
    watchdog: Option<(Instant, Duration)>,
    /// Where the result goes if the host is abandoned.
    on_abandon: AbandonHook,
    /// The run's host thread, if its state and CPU clock can be read.
    host: Option<HostThread>,
    /// The host's CPU time right after the cooperative abort was
    /// requested.
    host_cpu_at_request: Option<Duration>,
}

impl Watch {
    /// Whether the host is only descheduled: runnable, yet given less
    /// than half a grace of CPU since the abort request. `false` where
    /// `/proc` or the thread's CPU clock cannot be read. Read before the
    /// run's lock is taken, since a host waiting for it would look
    /// asleep.
    fn host_descheduled(&self) -> bool {
        let (Some((_, grace)), Some(host), Some(cpu0)) =
            (self.watchdog, self.host, self.host_cpu_at_request)
        else {
            return false;
        };
        host.runnable() == Some(true)
            && host.cpu().is_some_and(|cpu| cpu.saturating_sub(cpu0) < grace / 2)
    }
}

/// A run host thread's kernel thread id and CPU-time clock.
#[derive(Clone, Copy)]
struct HostThread {
    tid: i32,
    cpu_clock: i32,
}

thread_local! {
    /// The calling thread's identity, looked up once per host thread.
    static THIS_HOST: Option<HostThread> = HostThread::lookup();
}

impl HostThread {
    #[cfg(target_os = "linux")]
    fn lookup() -> Option<HostThread> {
        let mut cpu_clock = 0;
        // SAFETY: calls about the calling thread, with a valid out-pointer.
        let (tid, rc) = unsafe {
            (sys::gettid(), sys::pthread_getcpuclockid(sys::pthread_self(), &mut cpu_clock))
        };
        (rc == 0).then_some(HostThread { tid, cpu_clock })
    }

    #[cfg(not(target_os = "linux"))]
    fn lookup() -> Option<HostThread> {
        None
    }

    /// Whether the thread is running or waiting for a CPU (`R` in its
    /// `/proc` stat); `None` when that cannot be read.
    fn runnable(self) -> Option<bool> {
        let stat = std::fs::read_to_string(format!("/proc/self/task/{}/stat", self.tid)).ok()?;
        // `tid (comm) state …`: comm may hold spaces and parentheses.
        let state = stat.rsplit_once(')')?.1.trim_start().chars().next()?;
        Some(state == 'R')
    }

    /// CPU time the thread has consumed, read from any thread of this
    /// process while the host lives.
    fn cpu(self) -> Option<Duration> {
        let mut ts = [0i64; 2];
        // SAFETY: a valid out-pointer, and the clock of a live thread of
        // this process (a host is read only while it hosts a run).
        let rc = unsafe { sys::clock_gettime(self.cpu_clock, &mut ts) };
        (rc == 0).then(|| Duration::new(ts[0] as u64, ts[1] as u32))
    }
}

/// Raw bindings for the host-thread probe (no crates), as `coro.rs`
/// binds `mmap`.
mod sys {
    extern "C" {
        #[cfg(target_os = "linux")]
        pub fn gettid() -> i32;
        #[cfg(target_os = "linux")]
        pub fn pthread_self() -> usize;
        #[cfg(target_os = "linux")]
        pub fn pthread_getcpuclockid(thread: usize, clock_id: *mut i32) -> i32;
        /// `tp` is a `struct timespec`: seconds, then nanoseconds.
        pub fn clock_gettime(clock_id: i32, tp: *mut [i64; 2]) -> i32;
    }
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

/// `GOAT_TEARDOWN_TIMEOUT_MS` (default 5000): how long a decided run's
/// teardown may take before its host thread is abandoned. Read once per
/// process; a set but unparseable value is an error naming the
/// variable.
pub fn teardown_timeout() -> Result<Duration, String> {
    static TEARDOWN: OnceLock<Result<Duration, String>> = OnceLock::new();
    TEARDOWN
        .get_or_init(|| {
            let ms =
                env_knob("GOAT_TEARDOWN_TIMEOUT_MS", "a non-negative integer", |v| v.parse().ok())?;
            Ok(Duration::from_millis(ms.unwrap_or(5_000)))
        })
        .clone()
}

/// [`teardown_timeout`]; panics on a malformed value, first in
/// [`watch`] on the run's host.
fn teardown() -> Duration {
    teardown_timeout().unwrap_or_else(|e| panic!("{e}"))
}

/// Register a run that started at `started`, called on its host thread;
/// returns the id to [`unwatch`] it with once its host finished.
pub(crate) fn watch(
    rt: &Arc<RtShared>,
    started: Instant,
    iter_timeout_ms: Option<u64>,
    on_abandon: AbandonHook,
) -> u64 {
    let watchdog = iter_timeout_ms.map(|ms| {
        (started + Duration::from_millis(ms), Duration::from_millis((ms / 4).clamp(10, 1_000)))
    });
    let teardown = teardown();
    let due = watchdog.map_or(started + teardown, |(soft, _)| soft);
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
    let host = THIS_HOST.with(|h| *h);
    let host_cpu_at_request = None;
    let w = Watch { id, rt: Arc::clone(rt), due, watchdog, on_abandon, host, host_cpu_at_request };
    reg.watches.push(w);
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
            match w.rt.on_deadline(now, w.watchdog, teardown, w.host_descheduled()) {
                Due::Finished => {}
                Due::Requested(at) => {
                    // Read once the host can see the request, so time it
                    // spent holding the run's lock is not counted.
                    w.host_cpu_at_request = w.host.and_then(HostThread::cpu);
                    w.due = at;
                    again.push(w);
                }
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

/// Finish an abandoned run without its host: collect the result and
/// hand it to the run's abandon hook. A panicking hook must not take the
/// supervisor, and with it every other run's deadlines, down.
fn abandon(w: Watch) {
    let result = collect(&w.rt);
    if std::panic::catch_unwind(AssertUnwindSafe(|| (w.on_abandon)(result))).is_err() {
        eprintln!("goat: the abandon hook of a wedged run host panicked");
    }
    w.rt.abandoned();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(target_os = "linux")]
    fn the_probe_tells_a_running_thread_from_a_sleeping_one() {
        let me = THIS_HOST.with(|h| *h).expect("a Linux thread can be probed");
        assert_eq!(me.runnable(), Some(true), "the probing thread is running");
        let cpu0 = me.cpu().expect("the thread's CPU clock");
        let spin = Instant::now();
        while spin.elapsed() < Duration::from_millis(20) {
            std::hint::spin_loop();
        }
        assert!(me.cpu().expect("the thread's CPU clock") > cpu0);

        let (probe_tx, probe_rx) = std::sync::mpsc::channel();
        let (wake_tx, wake_rx) = std::sync::mpsc::channel::<()>();
        let sleeper = std::thread::spawn(move || {
            probe_tx.send(THIS_HOST.with(|h| *h)).expect("probe sent");
            let _ = wake_rx.recv();
        });
        let other = probe_rx.recv().expect("probe received").expect("probe");
        let since = Instant::now();
        while other.runnable() != Some(false) {
            assert!(since.elapsed() < Duration::from_secs(5), "the sleeper never looked asleep");
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(wake_tx);
        sleeper.join().expect("sleeper");
    }
}
