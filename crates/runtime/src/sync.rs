//! Go's `sync` package: `Mutex`, `RWMutex`, `WaitGroup`, `Cond`.
//!
//! Semantics follow Go:
//!
//! * `Mutex` is **not reentrant** — re-locking from the holder blocks
//!   forever (the classic double-lock deadlock);
//! * a mutex locked by one goroutine may be unlocked by another;
//!   unlocking an unlocked mutex panics;
//! * `RWMutex` is write-preferring: a waiting writer blocks new readers
//!   (so recursive read-locking can deadlock, a real Go bug pattern);
//! * `WaitGroup.add` with a negative result panics; `wait` blocks until
//!   the counter reaches zero;
//! * `Cond.wait` atomically releases the associated mutex, blocks, and
//!   re-acquires it after being signalled — a missed signal blocks
//!   forever.
//!
//! Every operation is a traced CU. A lock wait records the lock, its
//! holder and whether it is a read lock, and a `try_lock` acquisition is
//! marked as such: the LockDL baseline replays go-deadlock over these
//! events.

use crate::rt::{block_current, cu_here, current, gopanic, op_enter, Ctx};
use goat_model::{Cu, CuKind};
use goat_trace::{BlockReason, EventKind, Gid, LockWait, RId};
use parking_lot::Mutex as PlMutex;
use std::collections::VecDeque;
use std::sync::Arc;

// ---------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------

/// A goroutine and the CU of its lock operation: a lock's holder, or a
/// goroutine waiting for it.
type Party = (Gid, Cu);

struct MuSt {
    owner: Option<Party>,
    waiters: VecDeque<Party>,
}

struct MuCore {
    id: RId,
    st: PlMutex<MuSt>,
}

/// A Go-style mutual-exclusion lock handle. Cloning shares the lock.
///
/// ```
/// use goat_runtime::{Runtime, Config, go, Mutex};
/// let r = Runtime::run(Config::new(0), || {
///     let mu = Mutex::new();
///     mu.lock();
///     // ... critical section ...
///     mu.unlock();
/// });
/// assert!(r.clean());
/// ```
#[derive(Clone)]
pub struct Mutex {
    core: Arc<MuCore>,
}

impl std::fmt::Debug for Mutex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mutex").field("id", &self.core.id).finish()
    }
}

impl Default for Mutex {
    fn default() -> Self {
        Self::new()
    }
}

impl Mutex {
    /// Create an unlocked mutex.
    ///
    /// # Panics
    /// Panics when called outside a goroutine.
    pub fn new() -> Mutex {
        let ctx = current();
        let id = ctx.rt.state.lock().alloc_rid();
        Mutex {
            core: Arc::new(MuCore {
                id,
                st: PlMutex::new(MuSt { owner: None, waiters: VecDeque::new() }),
            }),
        }
    }

    /// The traced resource id.
    pub fn id(&self) -> RId {
        self.core.id
    }

    /// Acquire the lock, blocking while another goroutine holds it.
    /// Re-locking from the holder deadlocks (Go semantics).
    #[track_caller]
    pub fn lock(&self) {
        let cu = cu_here(CuKind::Lock, std::panic::Location::caller());
        let ctx = current();
        op_enter(&ctx, CuKind::Lock, &cu);
        self.lock_impl(&ctx, cu);
    }

    fn lock_impl(&self, ctx: &Ctx, cu: Cu) {
        let mut st = self.core.st.lock();
        if let Some((holder, holder_cu)) = st.owner {
            st.waiters.push_back((ctx.gid, cu));
            drop(st);
            // The unlocker transfers ownership to us before waking us.
            let wait = LockWait { mu: self.core.id, holder, holder_cu, read: false };
            block_current(ctx, BlockReason::Sync, Some(wait), Some(cu));
        } else {
            st.owner = Some((ctx.gid, cu));
            drop(st);
        }
        ctx.emit(EventKind::MuLock { mu: self.core.id, tried: false }, cu);
    }

    /// Try to acquire without blocking.
    #[track_caller]
    pub fn try_lock(&self) -> bool {
        let cu = cu_here(CuKind::Lock, std::panic::Location::caller());
        let ctx = current();
        op_enter(&ctx, CuKind::Lock, &cu);
        let mut st = self.core.st.lock();
        if st.owner.is_some() {
            return false;
        }
        st.owner = Some((ctx.gid, cu));
        drop(st);
        ctx.emit(EventKind::MuLock { mu: self.core.id, tried: true }, cu);
        true
    }

    /// Release the lock, handing it to the longest-waiting goroutine.
    ///
    /// # Panics
    /// Panics if the mutex is not locked (Go's
    /// "sync: unlock of unlocked mutex").
    #[track_caller]
    pub fn unlock(&self) {
        let cu = cu_here(CuKind::Unlock, std::panic::Location::caller());
        let ctx = current();
        op_enter(&ctx, CuKind::Unlock, &cu);
        self.unlock_impl(&ctx, cu);
    }

    fn unlock_impl(&self, ctx: &Ctx, cu: Cu) {
        let mut st = self.core.st.lock();
        if st.owner.is_none() {
            drop(st);
            gopanic("sync: unlock of unlocked mutex");
        }
        st.owner = st.waiters.pop_front();
        let woken = st.owner.map(|(g, _)| g);
        drop(st);
        ctx.wake_and_emit(woken, EventKind::MuUnlock { mu: self.core.id }, cu);
    }
}

// ---------------------------------------------------------------------
// RwLock (Go's RWMutex)
// ---------------------------------------------------------------------

struct RwSt {
    writer: Option<Party>,
    readers: Vec<Party>,
    wait_writers: VecDeque<Party>,
    wait_readers: VecDeque<Party>,
}

struct RwCore {
    id: RId,
    st: PlMutex<RwSt>,
}

/// Go's `sync.RWMutex`: many readers or one writer, write-preferring.
#[derive(Clone)]
pub struct RwLock {
    core: Arc<RwCore>,
}

impl std::fmt::Debug for RwLock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RwLock").field("id", &self.core.id).finish()
    }
}

impl Default for RwLock {
    fn default() -> Self {
        Self::new()
    }
}

impl RwLock {
    /// Create an unlocked rw-lock.
    ///
    /// # Panics
    /// Panics when called outside a goroutine.
    pub fn new() -> RwLock {
        let ctx = current();
        let id = ctx.rt.state.lock().alloc_rid();
        RwLock {
            core: Arc::new(RwCore {
                id,
                st: PlMutex::new(RwSt {
                    writer: None,
                    readers: Vec::new(),
                    wait_writers: VecDeque::new(),
                    wait_readers: VecDeque::new(),
                }),
            }),
        }
    }

    /// The traced resource id.
    pub fn id(&self) -> RId {
        self.core.id
    }

    /// Acquire the write lock.
    #[track_caller]
    pub fn lock(&self) {
        let cu = cu_here(CuKind::Lock, std::panic::Location::caller());
        let ctx = current();
        op_enter(&ctx, CuKind::Lock, &cu);
        let mut st = self.core.st.lock();
        match st.writer.or_else(|| st.readers.first().copied()) {
            None => {
                st.writer = Some((ctx.gid, cu));
                drop(st);
            }
            Some((holder, holder_cu)) => {
                st.wait_writers.push_back((ctx.gid, cu));
                drop(st);
                let wait = LockWait { mu: self.core.id, holder, holder_cu, read: false };
                block_current(&ctx, BlockReason::Sync, Some(wait), Some(cu));
            }
        }
        ctx.emit(EventKind::MuLock { mu: self.core.id, tried: false }, cu);
    }

    /// Release the write lock.
    ///
    /// # Panics
    /// Panics if the write lock is not held.
    #[track_caller]
    pub fn unlock(&self) {
        let cu = cu_here(CuKind::Unlock, std::panic::Location::caller());
        let ctx = current();
        op_enter(&ctx, CuKind::Unlock, &cu);
        let mut st = self.core.st.lock();
        if st.writer.is_none() {
            drop(st);
            gopanic("sync: Unlock of unlocked RWMutex");
        }
        st.writer = None;
        let mut woken: Vec<Gid> = Vec::new();
        self.grant(&mut st, &mut woken);
        drop(st);
        ctx.wake_and_emit(woken, EventKind::MuUnlock { mu: self.core.id }, cu);
    }

    /// Acquire a read lock. Blocks while a writer holds the lock **or is
    /// waiting for it** (write preference).
    #[track_caller]
    pub fn rlock(&self) {
        let cu = cu_here(CuKind::Lock, std::panic::Location::caller());
        let ctx = current();
        op_enter(&ctx, CuKind::Lock, &cu);
        let mut st = self.core.st.lock();
        match st.writer.or_else(|| st.wait_writers.front().copied()) {
            None => {
                st.readers.push((ctx.gid, cu));
                drop(st);
            }
            Some((holder, holder_cu)) => {
                st.wait_readers.push_back((ctx.gid, cu));
                drop(st);
                let wait = LockWait { mu: self.core.id, holder, holder_cu, read: true };
                block_current(&ctx, BlockReason::Sync, Some(wait), Some(cu));
            }
        }
        ctx.emit(EventKind::RwRLock { mu: self.core.id }, cu);
    }

    /// Release a read lock.
    ///
    /// # Panics
    /// Panics if no read lock is held.
    #[track_caller]
    pub fn runlock(&self) {
        let cu = cu_here(CuKind::Unlock, std::panic::Location::caller());
        let ctx = current();
        op_enter(&ctx, CuKind::Unlock, &cu);
        let mut st = self.core.st.lock();
        // Go tracks a reader *count*; any goroutine may release a unit.
        if st.readers.pop().is_none() {
            drop(st);
            gopanic("sync: RUnlock of unlocked RWMutex");
        }
        let mut woken: Vec<Gid> = Vec::new();
        self.grant(&mut st, &mut woken);
        drop(st);
        ctx.wake_and_emit(woken, EventKind::RwRUnlock { mu: self.core.id }, cu);
    }

    /// Grant the lock to waiters after a release: the next writer when
    /// the lock is free, otherwise all waiting readers.
    fn grant(&self, st: &mut RwSt, woken: &mut Vec<Gid>) {
        if st.writer.is_some() {
            return;
        }
        if st.readers.is_empty() {
            if let Some(w) = st.wait_writers.pop_front() {
                st.writer = Some(w);
                woken.push(w.0);
                return;
            }
        }
        if st.wait_writers.is_empty() {
            while let Some(w) = st.wait_readers.pop_front() {
                st.readers.push(w);
                woken.push(w.0);
            }
        }
    }
}

// ---------------------------------------------------------------------
// WaitGroup
// ---------------------------------------------------------------------

struct WgSt {
    count: i64,
    waiters: VecDeque<Gid>,
}

struct WgCore {
    id: RId,
    st: PlMutex<WgSt>,
}

/// Go's `sync.WaitGroup`. Cloning shares the group.
///
/// ```
/// use goat_runtime::{Runtime, Config, go, WaitGroup};
/// let r = Runtime::run(Config::new(0), || {
///     let wg = WaitGroup::new();
///     for _ in 0..3 {
///         wg.add(1);
///         let wg2 = wg.clone();
///         go(move || wg2.done());
///     }
///     wg.wait();
/// });
/// assert!(r.clean());
/// ```
#[derive(Clone)]
pub struct WaitGroup {
    core: Arc<WgCore>,
}

impl std::fmt::Debug for WaitGroup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WaitGroup")
            .field("id", &self.core.id)
            .field("count", &self.core.st.lock().count)
            .finish()
    }
}

impl Default for WaitGroup {
    fn default() -> Self {
        Self::new()
    }
}

impl WaitGroup {
    /// Create a wait group with counter zero.
    ///
    /// # Panics
    /// Panics when called outside a goroutine.
    pub fn new() -> WaitGroup {
        let ctx = current();
        let id = ctx.rt.state.lock().alloc_rid();
        WaitGroup {
            core: Arc::new(WgCore {
                id,
                st: PlMutex::new(WgSt { count: 0, waiters: VecDeque::new() }),
            }),
        }
    }

    /// Add `delta` to the counter, waking waiters when it reaches zero.
    ///
    /// # Panics
    /// Panics if the counter goes negative.
    #[track_caller]
    pub fn add(&self, delta: i64) {
        let cu = cu_here(CuKind::Add, std::panic::Location::caller());
        let ctx = current();
        op_enter(&ctx, CuKind::Add, &cu);
        self.add_impl(&ctx, delta, cu, false);
    }

    /// Decrement the counter by one (equivalent to `add(-1)`).
    ///
    /// # Panics
    /// Panics if the counter goes negative.
    #[track_caller]
    pub fn done(&self) {
        let cu = cu_here(CuKind::Done, std::panic::Location::caller());
        let ctx = current();
        op_enter(&ctx, CuKind::Done, &cu);
        self.add_impl(&ctx, -1, cu, true);
    }

    fn add_impl(&self, ctx: &Ctx, delta: i64, cu: Cu, is_done: bool) {
        let mut st = self.core.st.lock();
        st.count += delta;
        let count = st.count;
        if count < 0 {
            drop(st);
            gopanic("sync: negative WaitGroup counter");
        }
        let woken: Vec<Gid> = if count == 0 { st.waiters.drain(..).collect() } else { Vec::new() };
        drop(st);
        let ev = if is_done {
            EventKind::WgDone { wg: self.core.id, count }
        } else {
            EventKind::WgAdd { wg: self.core.id, delta, count }
        };
        ctx.wake_and_emit(woken, ev, cu);
    }

    /// Block until the counter is zero.
    #[track_caller]
    pub fn wait(&self) {
        let cu = cu_here(CuKind::Wait, std::panic::Location::caller());
        let ctx = current();
        op_enter(&ctx, CuKind::Wait, &cu);
        let mut st = self.core.st.lock();
        if st.count > 0 {
            st.waiters.push_back(ctx.gid);
            drop(st);
            block_current(&ctx, BlockReason::WaitGroup, None, Some(cu));
        } else {
            drop(st);
        }
        ctx.emit(EventKind::WgWait { wg: self.core.id }, cu);
    }

    /// The current counter value (for tests and reports).
    pub fn count(&self) -> i64 {
        self.core.st.lock().count
    }
}

// ---------------------------------------------------------------------
// Cond
// ---------------------------------------------------------------------

struct CondSt {
    waiters: VecDeque<Gid>,
}

struct CondCore {
    id: RId,
    mu: Mutex,
    st: PlMutex<CondSt>,
}

/// Go's `sync.Cond`: a condition variable bound to a [`Mutex`].
#[derive(Clone)]
pub struct Cond {
    core: Arc<CondCore>,
}

impl std::fmt::Debug for Cond {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cond").field("id", &self.core.id).finish()
    }
}

impl Cond {
    /// Create a condition variable bound to `mu`.
    ///
    /// # Panics
    /// Panics when called outside a goroutine.
    pub fn new(mu: &Mutex) -> Cond {
        let ctx = current();
        let id = ctx.rt.state.lock().alloc_rid();
        Cond {
            core: Arc::new(CondCore {
                id,
                mu: mu.clone(),
                st: PlMutex::new(CondSt { waiters: VecDeque::new() }),
            }),
        }
    }

    /// Atomically release the bound mutex and block until signalled,
    /// then re-acquire the mutex before returning.
    ///
    /// # Panics
    /// Panics (via the mutex) if the caller does not hold the lock.
    #[track_caller]
    pub fn wait(&self) {
        let cu = cu_here(CuKind::Wait, std::panic::Location::caller());
        let ctx = current();
        op_enter(&ctx, CuKind::Wait, &cu);
        self.core.st.lock().waiters.push_back(ctx.gid);
        self.core.mu.unlock_impl(&ctx, cu);
        block_current(&ctx, BlockReason::Cond, None, Some(cu));
        self.core.mu.lock_impl(&ctx, cu);
        ctx.emit(EventKind::CondWait { cv: self.core.id }, cu);
    }

    /// Wake one waiter (no-op when none is waiting — the missed-signal
    /// hazard of Go programs is preserved).
    #[track_caller]
    pub fn signal(&self) {
        let cu = cu_here(CuKind::Signal, std::panic::Location::caller());
        let ctx = current();
        op_enter(&ctx, CuKind::Signal, &cu);
        let woken = self.core.st.lock().waiters.pop_front();
        ctx.wake_and_emit(woken, EventKind::CondSignal { cv: self.core.id }, cu);
    }

    /// Wake all waiters.
    #[track_caller]
    pub fn broadcast(&self) {
        let cu = cu_here(CuKind::Broadcast, std::panic::Location::caller());
        let ctx = current();
        op_enter(&ctx, CuKind::Broadcast, &cu);
        let woken: Vec<Gid> = self.core.st.lock().waiters.drain(..).collect();
        ctx.wake_and_emit(woken, EventKind::CondBroadcast { cv: self.core.id }, cu);
    }
}

// ---------------------------------------------------------------------
// Once
// ---------------------------------------------------------------------

struct OnceCore {
    mu: Mutex,
    done: PlMutex<bool>,
}

/// Go's `sync.Once`: `do_once` runs its closure exactly once across all
/// goroutines; concurrent callers block until the first call completes
/// (so a `do_once` that blocks forever wedges every later caller — a
/// real Go bug pattern this runtime preserves).
#[derive(Clone)]
pub struct Once {
    core: Arc<OnceCore>,
}

impl std::fmt::Debug for Once {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Once").field("done", &*self.core.done.lock()).finish()
    }
}

impl Default for Once {
    fn default() -> Self {
        Self::new()
    }
}

impl Once {
    /// Create a fresh once-gate.
    ///
    /// # Panics
    /// Panics when called outside a goroutine.
    pub fn new() -> Once {
        Once { core: Arc::new(OnceCore { mu: Mutex::new(), done: PlMutex::new(false) }) }
    }

    /// Run `f` if nobody has yet; otherwise wait for the first runner to
    /// finish and return without calling `f`.
    #[track_caller]
    pub fn do_once(&self, f: impl FnOnce()) {
        // Fast path without taking the goroutine-level lock.
        if *self.core.done.lock() {
            return;
        }
        self.core.mu.lock();
        let already = *self.core.done.lock();
        if !already {
            f();
            *self.core.done.lock() = true;
        }
        self.core.mu.unlock();
    }

    /// Has the closure run to completion?
    pub fn is_done(&self) -> bool {
        *self.core.done.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chan::Chan;
    use crate::config::{Config, RunOutcome};
    use crate::rt::{go, go_named, gosched, Runtime};

    fn cfg(seed: u64) -> Config {
        // These tests pin FIFO handoff order and step-exact
        // interleavings — native-strategy semantics; an ambient
        // GOAT_STRATEGY must not reshuffle them.
        Config::new(seed)
            .with_native_preempt_prob(0.0)
            .with_strategy(crate::strategy::StrategyKind::Native)
    }

    #[test]
    fn mutex_mutual_exclusion() {
        let r = Runtime::run(cfg(0), || {
            let mu = Mutex::new();
            let counter = Chan::<i32>::new(100);
            for _ in 0..5 {
                let mu = mu.clone();
                let c = counter.clone();
                go(move || {
                    mu.lock();
                    c.send(1);
                    gosched(); // try to interleave inside the critical section
                    c.send(-1);
                    mu.unlock();
                });
            }
            for _ in 0..10 {
                gosched();
            }
            // +1 must always be followed by -1: exclusion held
            let mut depth = 0;
            let mut max_depth = 0;
            while let Some(Some(v)) = counter.try_recv() {
                depth += v;
                max_depth = max_depth.max(depth);
            }
            assert_eq!(max_depth, 1, "two goroutines inside the critical section");
        });
        assert!(r.clean(), "{:?}", r.outcome);
    }

    #[test]
    fn double_lock_self_deadlocks() {
        let r = Runtime::run(cfg(0), || {
            let mu = Mutex::new();
            mu.lock();
            mu.lock(); // Go mutexes are not reentrant
        });
        assert!(matches!(r.outcome, RunOutcome::GlobalDeadlock { .. }));
    }

    #[test]
    fn unlock_of_unlocked_panics() {
        let r = Runtime::run(cfg(0), || {
            let mu = Mutex::new();
            mu.unlock();
        });
        match r.outcome {
            RunOutcome::Panicked { ref msg, .. } => assert!(msg.contains("unlock"), "{msg}"),
            other => panic!("expected panic, got {other:?}"),
        }
    }

    #[test]
    fn cross_goroutine_unlock_is_allowed() {
        let r = Runtime::run(cfg(0), || {
            let mu = Mutex::new();
            mu.lock();
            let mu2 = mu.clone();
            go(move || mu2.unlock());
            gosched();
            mu.lock(); // re-acquire after the child unlocked
            mu.unlock();
        });
        assert!(r.clean(), "{:?}", r.outcome);
    }

    #[test]
    fn try_lock_fails_while_held() {
        let r = Runtime::run(cfg(0), || {
            let mu = Mutex::new();
            assert!(mu.try_lock());
            assert!(!mu.try_lock());
            mu.unlock();
            assert!(mu.try_lock());
            mu.unlock();
        });
        assert!(r.clean());
    }

    #[test]
    fn lock_handoff_is_fifo() {
        let r = Runtime::run(cfg(0), || {
            let mu = Mutex::new();
            let order: Chan<u32> = Chan::new(10);
            mu.lock();
            for i in 0..3 {
                let mu = mu.clone();
                let o = order.clone();
                go_named(&format!("w{i}"), move || {
                    mu.lock();
                    o.send(i);
                    mu.unlock();
                });
            }
            for _ in 0..5 {
                gosched(); // let all three block in FIFO order
            }
            mu.unlock();
            for _ in 0..5 {
                gosched();
            }
            assert_eq!(order.recv(), Some(0));
            assert_eq!(order.recv(), Some(1));
            assert_eq!(order.recv(), Some(2));
        });
        assert!(r.clean(), "{:?}", r.outcome);
    }

    #[test]
    fn rwlock_allows_parallel_readers() {
        let r = Runtime::run(cfg(0), || {
            let rw = RwLock::new();
            rw.rlock();
            rw.rlock(); // second reader does not block
            rw.runlock();
            rw.runlock();
        });
        assert!(r.clean());
    }

    #[test]
    fn rwlock_writer_excludes_readers() {
        let r = Runtime::run(cfg(0), || {
            let rw = RwLock::new();
            let probe: Chan<&'static str> = Chan::new(4);
            rw.lock();
            let rw2 = rw.clone();
            let p = probe.clone();
            go(move || {
                p.send("before-rlock");
                rw2.rlock();
                p.send("got-rlock");
                rw2.runlock();
            });
            for _ in 0..4 {
                gosched();
            }
            assert_eq!(probe.try_recv(), Some(Some("before-rlock")));
            assert_eq!(probe.try_recv(), None, "reader must still be blocked");
            rw.unlock();
            for _ in 0..4 {
                gosched();
            }
            assert_eq!(probe.try_recv(), Some(Some("got-rlock")));
        });
        assert!(r.clean(), "{:?}", r.outcome);
    }

    #[test]
    fn rwlock_write_preference_blocks_new_readers() {
        // reader holds; writer waits; second reader must wait behind the
        // writer (the recursive-read-lock deadlock pattern).
        let r = Runtime::run(cfg(0), || {
            let rw = RwLock::new();
            let log: Chan<&'static str> = Chan::new(8);
            rw.rlock();
            let w = rw.clone();
            let lw = log.clone();
            go_named("writer", move || {
                w.lock();
                lw.send("writer");
                w.unlock();
            });
            gosched(); // writer now waits
            let r2 = rw.clone();
            let lr = log.clone();
            go_named("reader2", move || {
                r2.rlock();
                lr.send("reader2");
                r2.runlock();
            });
            gosched(); // reader2 must queue behind the writer
            assert_eq!(log.try_recv(), None);
            rw.runlock();
            for _ in 0..6 {
                gosched();
            }
            assert_eq!(log.recv(), Some("writer"), "writer goes first");
            assert_eq!(log.recv(), Some("reader2"));
        });
        assert!(r.clean(), "{:?}", r.outcome);
    }

    #[test]
    fn waitgroup_waits_for_all() {
        let r = Runtime::run(cfg(0), || {
            let wg = WaitGroup::new();
            let done: Chan<u32> = Chan::new(4);
            for i in 0..4 {
                wg.add(1);
                let wg = wg.clone();
                let d = done.clone();
                go(move || {
                    d.send(i);
                    wg.done();
                });
            }
            wg.wait();
            assert_eq!(done.len(), 4, "all workers ran before wait returned");
        });
        assert!(r.clean(), "{:?}", r.outcome);
    }

    #[test]
    fn waitgroup_negative_counter_panics() {
        let r = Runtime::run(cfg(0), || {
            let wg = WaitGroup::new();
            wg.done();
        });
        match r.outcome {
            RunOutcome::Panicked { ref msg, .. } => assert!(msg.contains("negative"), "{msg}"),
            other => panic!("expected panic, got {other:?}"),
        }
    }

    #[test]
    fn waitgroup_missing_done_deadlocks() {
        let r = Runtime::run(cfg(0), || {
            let wg = WaitGroup::new();
            wg.add(2);
            let wg2 = wg.clone();
            go(move || wg2.done()); // only one of two
            wg.wait();
        });
        assert!(matches!(r.outcome, RunOutcome::GlobalDeadlock { .. }));
    }

    #[test]
    fn cond_signal_wakes_waiter() {
        let r = Runtime::run(cfg(0), || {
            let mu = Mutex::new();
            let cv = Cond::new(&mu);
            let flag: Chan<bool> = Chan::new(1);
            let mu2 = mu.clone();
            let cv2 = cv.clone();
            let f2 = flag.clone();
            go_named("waiter", move || {
                mu2.lock();
                cv2.wait();
                mu2.unlock();
                f2.send(true);
            });
            gosched(); // let the waiter block
            mu.lock();
            cv.signal();
            mu.unlock();
            assert_eq!(flag.recv(), Some(true));
        });
        assert!(r.clean(), "{:?}", r.outcome);
    }

    #[test]
    fn cond_missed_signal_blocks_forever() {
        let r = Runtime::run(cfg(0), || {
            let mu = Mutex::new();
            let cv = Cond::new(&mu);
            cv.signal(); // nobody waiting: signal lost
            mu.lock();
            cv.wait(); // waits for a signal that already happened
        });
        assert!(matches!(r.outcome, RunOutcome::GlobalDeadlock { .. }));
    }

    #[test]
    fn cond_broadcast_wakes_all() {
        let r = Runtime::run(cfg(0), || {
            let mu = Mutex::new();
            let cv = Cond::new(&mu);
            let wg = WaitGroup::new();
            for _ in 0..3 {
                wg.add(1);
                let (mu, cv, wg) = (mu.clone(), cv.clone(), wg.clone());
                go(move || {
                    mu.lock();
                    cv.wait();
                    mu.unlock();
                    wg.done();
                });
            }
            for _ in 0..6 {
                gosched();
            }
            mu.lock();
            cv.broadcast();
            mu.unlock();
            wg.wait();
        });
        assert!(r.clean(), "{:?}", r.outcome);
    }

    #[test]
    fn once_runs_exactly_once() {
        let r = Runtime::run(cfg(0), || {
            let once = Once::new();
            let counter: Chan<u8> = Chan::new(10);
            for _ in 0..4 {
                let (once, counter) = (once.clone(), counter.clone());
                go(move || {
                    once.do_once(|| counter.send(1));
                });
            }
            for _ in 0..6 {
                gosched();
            }
            assert!(once.is_done());
            assert_eq!(counter.len(), 1, "closure ran exactly once");
        });
        assert!(r.clean(), "{:?}", r.outcome);
    }

    #[test]
    fn once_blocks_followers_until_first_finishes() {
        let r = Runtime::run(cfg(0), || {
            let once = Once::new();
            let gate: Chan<()> = Chan::new(0);
            let log: Chan<&'static str> = Chan::new(4);
            {
                let (once, gate, log) = (once.clone(), gate.clone(), log.clone());
                go_named("first", move || {
                    once.do_once(|| {
                        log.send("init-start");
                        gate.recv(); // the init blocks until released
                        log.send("init-end");
                    });
                });
            }
            {
                let (once, log) = (once.clone(), log.clone());
                go_named("second", move || {
                    once.do_once(|| log.send("second-init"));
                    log.send("second-done");
                });
            }
            for _ in 0..4 {
                gosched();
            }
            // second must still be blocked behind the stuck init
            assert_eq!(log.try_recv(), Some(Some("init-start")));
            assert_eq!(log.try_recv(), None);
            gate.send(()); // release the init
            for _ in 0..4 {
                gosched();
            }
            assert_eq!(log.recv(), Some("init-end"));
            assert_eq!(log.recv(), Some("second-done"));
        });
        assert!(r.clean(), "{:?}", r.outcome);
    }

    #[test]
    fn ab_ba_lock_order_deadlocks() {
        let r = Runtime::run(cfg(0), || {
            let a = Mutex::new();
            let b = Mutex::new();
            let (a2, b2) = (a.clone(), b.clone());
            go_named("ba", move || {
                b2.lock();
                gosched();
                a2.lock();
                a2.unlock();
                b2.unlock();
            });
            a.lock();
            gosched(); // let the other goroutine take b
            b.lock(); // circular wait
            b.unlock();
            a.unlock();
        });
        assert!(matches!(r.outcome, RunOutcome::GlobalDeadlock { .. }), "{:?}", r.outcome);
    }
}
