//! Shared pool of host threads for whole runs.
//!
//! A run's goroutines are coroutines that take turns on one host thread
//! (see [`crate::Runtime`]), so a run needs exactly one thread, for its
//! whole lifetime. Under the paper's campaign model a kernel is executed
//! thousands of times; this pool keeps those host threads alive between
//! runs. A thread of the pool hosts runs in one of two ways:
//!
//! * **Run host** — [`crate::pool::spawn_host`] starts a long-lived body (a campaign
//!   engine worker) on a pool thread. Every [`crate::Runtime::run`] that
//!   body makes executes inline on that thread: no handoff and no wait,
//!   so an in-process iteration never crosses threads.
//! * **Hosted run** — any other caller (a plain thread, a goroutine of
//!   another run) checks a worker out per run; the worker drives every
//!   goroutine of the run to the end of its teardown, wakes the caller
//!   and returns to the idle stack.
//!
//! A worker also keeps its idle coroutine stacks, so a warm worker maps
//! nothing.
//!
//! Properties:
//!
//! * **Global and shared** — one process-wide pool serves all runtime
//!   instances, so campaign iterations and parallel campaign workers
//!   reuse each other's threads.
//! * **No semantic impact** — which thread hosts a run is invisible to
//!   scheduling, tracing and replay. [`crate::Config::pool`] turns the
//!   pool off: a fresh thread per run and a fresh stack per goroutine.
//! * **Bounded retention** — at most `GOAT_POOL_MAX_IDLE` workers
//!   (default 256) stay parked waiting for work; excess workers exit.
//! * **Wedge-proof** — a thread wedged by a goroutine stuck outside
//!   runtime primitives is written off by the process's run supervisor
//!   at the teardown deadline and a parked replacement is spawned, so
//!   one bad run cannot drain the pool. A hosted worker is simply never
//!   returned; a run host never returns from the run it was abandoned
//!   in — the supervisor hands that run's result to the host's abandon
//!   hook instead.

use std::cell::RefCell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Mutex, OnceLock};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Receives the result of an inline run whose host the supervisor
/// abandoned (called on the supervisor's thread; see [`spawn_host`]).
pub type AbandonHook = Arc<dyn Fn(crate::RunResult) + Send + Sync>;

thread_local! {
    /// Set while this thread runs a [`spawn_host`] body.
    static HOST: RefCell<Option<AbandonHook>> = const { RefCell::new(None) };
}

/// An idle worker, addressed by the sending half of its job channel.
struct IdleWorker {
    job_tx: Sender<Job>,
}

/// The process-wide pool of run host threads.
pub(crate) struct WorkerPool {
    idle: Mutex<Vec<IdleWorker>>,
    max_idle: usize,
    threads_spawned: AtomicU64,
    jobs_reused: AtomicU64,
    workers_retired: AtomicU64,
    abandoned: AtomicU64,
    workers_replaced: AtomicU64,
}

static POOL: OnceLock<WorkerPool> = OnceLock::new();

/// The global pool (created on first use).
pub(crate) fn global() -> &'static WorkerPool {
    POOL.get_or_init(|| {
        let max_idle = std::env::var("GOAT_POOL_MAX_IDLE")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(256);
        WorkerPool::new(max_idle)
    })
}

/// Account one run abandoned at a runtime teardown deadline: its host
/// thread is written off. It is replaced by a freshly parked one (up to
/// the idle cap), so effective parallelism does not decay over a long
/// campaign of wedged runs.
pub(crate) fn note_abandoned() {
    let pool = global();
    pool.abandoned.fetch_add(1, Ordering::Relaxed);
    pool.spawn_parked_replacement();
}

impl WorkerPool {
    fn new(max_idle: usize) -> WorkerPool {
        WorkerPool {
            idle: Mutex::new(Vec::new()),
            max_idle,
            threads_spawned: AtomicU64::new(0),
            jobs_reused: AtomicU64::new(0),
            workers_retired: AtomicU64::new(0),
            abandoned: AtomicU64::new(0),
            workers_replaced: AtomicU64::new(0),
        }
    }

    /// Run `job` on a pooled worker: check out an idle worker if one is
    /// parked, otherwise spawn a new one. Never blocks on pool state.
    ///
    /// Checkout can fail — the OS refuses a thread, or the
    /// `pool_checkout` faultpoint fires — in which case the job is
    /// dropped (releasing whatever it captured) and the reason is
    /// returned for the caller to surface as an infra failure.
    pub(crate) fn execute(&'static self, job: Job) -> Result<(), String> {
        if let Some(reason) = crate::faultpoint::should_fail("pool_checkout") {
            return Err(reason);
        }
        // Checkout latency is only measured when telemetry is on; the
        // disabled cost is one relaxed atomic load.
        let t0 = goat_metrics::enabled().then(std::time::Instant::now);
        if self.checkout(job)? {
            self.jobs_reused.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(t0) = t0 {
            checkout_histogram().record(t0.elapsed().as_nanos() as u64);
        }
        Ok(())
    }

    /// Hand `job` to a parked worker, or spawn one; returns whether a
    /// parked worker took it.
    fn checkout(&'static self, mut job: Job) -> Result<bool, String> {
        loop {
            let worker = self.idle.lock().expect("pool lock").pop();
            match worker {
                Some(w) => match w.job_tx.send(job) {
                    Ok(()) => return Ok(true),
                    // The worker died between parking and checkout
                    // (its channel is closed); take the job back and
                    // try the next one.
                    Err(mpsc::SendError(returned)) => job = returned,
                },
                None => return self.spawn_worker(job).map(|()| false),
            }
        }
    }

    fn spawn_worker(&'static self, first_job: Job) -> Result<(), String> {
        let (job_tx, job_rx) = mpsc::channel::<Job>();
        std::thread::Builder::new()
            .name("goat-worker".to_string())
            .spawn(move || self.worker_loop(first_job, job_tx, job_rx))
            .map(|_| {
                self.threads_spawned.fetch_add(1, Ordering::Relaxed);
            })
            .map_err(|e| format!("failed to spawn pool worker thread: {e}"))
    }

    /// Spawn a worker that goes straight to the idle stack, replacing
    /// one lost to abandonment, unless the stack is already at capacity
    /// (best effort: a failed spawn is not retried).
    fn spawn_parked_replacement(&'static self) {
        if self.idle.lock().expect("pool lock").len() >= self.max_idle {
            return;
        }
        if self.spawn_worker(Box::new(|| {})).is_ok() {
            self.workers_replaced.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn worker_loop(&'static self, first_job: Job, job_tx: Sender<Job>, job_rx: Receiver<Job>) {
        let mut job = first_job;
        loop {
            // Goroutines catch their own panics (including shutdown
            // unwinds); anything escaping here means the worker is in an
            // unknown state, so it must not be reused.
            if panic::catch_unwind(AssertUnwindSafe(job)).is_err() {
                return;
            }
            {
                let mut idle = self.idle.lock().expect("pool lock");
                if idle.len() >= self.max_idle {
                    self.workers_retired.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                idle.push(IdleWorker { job_tx: job_tx.clone() });
            }
            // Park until the next checkout; a closed channel would mean
            // the global pool was dropped, which cannot happen, but exit
            // cleanly regardless.
            match job_rx.recv() {
                Ok(next) => job = next,
                Err(_) => return,
            }
        }
    }
}

/// Start `job` — one whole run — on a host thread: a pooled worker, or
/// a fresh thread when `pooled` is false. Either way the
/// `pool_checkout` faultpoint can refuse it; on failure the job is
/// dropped unrun and the reason returned. The fresh thread is detached
/// on purpose: a run wedged outside the runtime must be abandonable.
pub(crate) fn host(job: Job, pooled: bool) -> Result<(), String> {
    if pooled {
        return global().execute(job);
    }
    if let Some(reason) = crate::faultpoint::should_fail("pool_checkout") {
        return Err(reason);
    }
    std::thread::Builder::new()
        .name("goat-run".to_string())
        .spawn(job)
        .map(drop)
        .map_err(|e| format!("failed to spawn run host thread: {e}"))
}

/// Start `body` on a pool thread as a run host: while it runs, every
/// [`crate::Runtime::run`] it makes with [`crate::Config::pool`] on —
/// and that is not nested inside another run — executes inline on this
/// thread instead of being handed to another one.
///
/// The supervisor still owns an inline run's deadlines. When it
/// abandons one (the teardown deadline passed with the host wedged), it
/// collects the run's result itself and calls `on_abandon` with it on
/// the supervisor's thread. The wedged thread never returns from that
/// `Runtime::run`: should it ever wake, it unwinds out of `body` and
/// exits, so nothing it still holds is delivered twice.
///
/// Unlike a run checkout, starting a host is not subject to the
/// `pool_checkout` faultpoint (inline runs are).
pub fn spawn_host<F: FnOnce() + Send + 'static>(
    body: F,
    on_abandon: AbandonHook,
) -> Result<(), String> {
    global()
        .checkout(Box::new(move || {
            HOST.with(|h| *h.borrow_mut() = Some(on_abandon));
            body();
            HOST.with(|h| *h.borrow_mut() = None);
        }))
        .map(drop)
}

/// The abandon hook of the run host this thread is, if it is one.
pub(crate) fn host_hook() -> Option<AbandonHook> {
    HOST.with(|h| h.borrow().clone())
}

/// Account one run executed inline by a run host: a run hosted by an
/// already-running worker.
pub(crate) fn note_inline_run() {
    global().jobs_reused.fetch_add(1, Ordering::Relaxed);
}

/// The pool-checkout latency histogram in the global metrics registry
/// (handle cached so the registry lock is taken once per process).
fn checkout_histogram() -> &'static goat_metrics::Histogram {
    static H: OnceLock<std::sync::Arc<goat_metrics::Histogram>> = OnceLock::new();
    H.get_or_init(|| goat_metrics::histogram("pool.checkout_ns"))
}

/// Point-in-time pool counters, for benchmarks and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct PoolStats {
    /// OS threads created by the pool since process start.
    pub threads_spawned: u64,
    /// Runs hosted by an already-running worker: checkouts of a parked
    /// worker plus inline runs of a run host.
    pub jobs_reused: u64,
    /// Workers currently parked awaiting checkout.
    pub idle_now: usize,
    /// Workers that exited because the idle stack was full.
    pub workers_retired: u64,
    /// Runs abandoned at a runtime teardown deadline (their host
    /// threads were written off).
    pub abandoned: u64,
    /// Replacement workers spawned to cover abandoned ones.
    pub workers_replaced: u64,
}

/// Pre-spawn parked workers until at least `target` (capped at the idle
/// limit) are waiting on the idle stack, so a cold process's first
/// burst of run checkouts does not all pay thread-creation cost.
/// Best effort — a failed spawn stops early. Returns how many workers
/// were spawned. Used by the suite orchestrator's warm-resource path.
pub fn prewarm(target: usize) -> usize {
    let pool = global();
    let want = target.min(pool.max_idle);
    let mut spawned = 0usize;
    // Workers park themselves asynchronously after running the empty
    // first job, so spawn by deficit rather than polling the stack.
    let deficit = want.saturating_sub(pool.idle.lock().expect("pool lock").len());
    for _ in 0..deficit {
        if pool.spawn_worker(Box::new(|| {})).is_err() {
            break;
        }
        spawned += 1;
    }
    spawned
}

/// Snapshot the global pool's counters.
pub fn stats() -> PoolStats {
    let pool = global();
    PoolStats {
        threads_spawned: pool.threads_spawned.load(Ordering::Relaxed),
        jobs_reused: pool.jobs_reused.load(Ordering::Relaxed),
        idle_now: pool.idle.lock().expect("pool lock").len(),
        workers_retired: pool.workers_retired.load(Ordering::Relaxed),
        abandoned: pool.abandoned.load(Ordering::Relaxed),
        workers_replaced: pool.workers_replaced.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;
    use std::time::Duration;

    fn drain_until(cond: impl Fn() -> bool) {
        for _ in 0..200 {
            if cond() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("pool did not settle");
    }

    #[test]
    fn workers_are_reused_sequentially() {
        // Other tests in this binary use the global pool concurrently and
        // may take its idle workers, so this test gets a pool of its own
        // and records which thread ran each job.
        let pool: &'static WorkerPool = Box::leak(Box::new(WorkerPool::new(4)));
        let hosts = Arc::new(Mutex::new(Vec::new()));
        for i in 0..10 {
            let inner = Arc::clone(&hosts);
            pool.execute(Box::new(move || {
                inner.lock().unwrap().push(std::thread::current().id());
            }))
            .expect("checkout");
            // Serialize jobs so each finds the previous worker idle.
            drain_until(|| {
                hosts.lock().unwrap().len() > i
                    && pool.idle.lock().unwrap().len() as u64
                        == pool.threads_spawned.load(Ordering::Relaxed)
            });
        }
        let mut ids = hosts.lock().unwrap().clone();
        ids.sort_by_key(|id| format!("{id:?}"));
        ids.dedup();
        // Ten sequential jobs must not have cost ten threads.
        assert!(ids.len() <= 2, "expected reuse, jobs ran on {} threads", ids.len());
    }

    #[test]
    fn prewarm_parks_idle_workers() {
        assert_eq!(prewarm(0), 0);
        prewarm(2);
        // Pre-spawned workers run an empty job then park; other tests
        // may park workers too, so only assert the floor.
        drain_until(|| stats().idle_now >= 1);
        // A warm stack satisfies a repeat prewarm without spawning.
        drain_until(|| prewarm(1) == 0);
    }

    #[test]
    fn panicking_job_does_not_poison_the_pool() {
        let ran = Arc::new(AtomicUsize::new(0));
        global().execute(Box::new(|| panic!("deliberate test panic"))).expect("checkout");
        let ran2 = Arc::clone(&ran);
        global()
            .execute(Box::new(move || {
                ran2.fetch_add(1, Ordering::SeqCst);
            }))
            .expect("checkout");
        drain_until(|| ran.load(Ordering::SeqCst) == 1);
    }
}
