//! Go-style channels: rendezvous (unbuffered) and buffered, with close
//! semantics, `range` iteration, and the waiter/commit protocol that
//! select cases participate in.
//!
//! Semantics follow the Go specification:
//!
//! * an unbuffered send blocks until a receiver is ready, and vice versa
//!   (rendezvous);
//! * a buffered send blocks only when the buffer is full; a receive
//!   blocks only when it is empty;
//! * receiving from a closed channel drains the buffer and then yields
//!   `None` (Go's zero value with `ok = false`);
//! * sending on a closed channel panics; closing a closed channel panics.
//!
//! The scheduler runs one goroutine at a time, so channel state changes
//! are serial; the per-channel lock exists because `Chan` is `Send + Sync`.

use crate::rt::{
    block_current, cu_here, current, gopanic, op_enter, Ctx, Sched, SelToken, TimerTarget,
};
use goat_model::CuKind;
use goat_trace::{BlockReason, EventKind, Gid, RId};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;

/// Outcome of a (possibly blocked) send, delivered through an [`OpSlot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SendOutcome {
    /// The value was taken by a receiver (or buffered).
    Sent,
    /// The channel was closed while the sender was blocked.
    Closed,
}

/// Outcome of a (possibly blocked) receive.
#[derive(Debug)]
pub(crate) enum RecvOutcome<T> {
    /// A value arrived.
    Val(T),
    /// The channel closed (and was drained).
    Closed,
}

/// One-shot outcome mailbox shared between a blocked goroutine and the
/// goroutine that completes its operation.
pub(crate) struct OpSlot<O>(Mutex<Option<O>>);

impl<O> OpSlot<O> {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(OpSlot(Mutex::new(None)))
    }

    pub(crate) fn put(&self, o: O) {
        let mut g = self.0.lock();
        debug_assert!(g.is_none(), "op slot filled twice");
        *g = Some(o);
    }

    pub(crate) fn take(&self) -> Option<O> {
        self.0.lock().take()
    }
}

struct SendWaiter<T> {
    g: Gid,
    val: Option<T>,
    /// `Some((token, case idx))` when this entry belongs to a select.
    sel: Option<(Arc<SelToken>, usize)>,
    slot: Arc<OpSlot<SendOutcome>>,
}

struct RecvWaiter<T> {
    g: Gid,
    sel: Option<(Arc<SelToken>, usize)>,
    slot: Arc<OpSlot<RecvOutcome<T>>>,
}

struct ChanSt<T> {
    buf: VecDeque<T>,
    closed: bool,
    senders: VecDeque<SendWaiter<T>>,
    recvers: VecDeque<RecvWaiter<T>>,
}

pub(crate) struct ChanCore<T> {
    pub(crate) id: RId,
    cap: usize,
    st: Mutex<ChanSt<T>>,
}

impl<T> ChanSt<T> {
    /// Pop the next *live* sender entry, committing select entries.
    fn pop_valid_sender(&mut self) -> Option<SendWaiter<T>> {
        while let Some(w) = self.senders.pop_front() {
            match &w.sel {
                None => return Some(w),
                Some((tok, idx)) => {
                    if tok.try_commit(*idx) {
                        return Some(w);
                    }
                    // Stale registration of a select that already won
                    // elsewhere; drop it.
                }
            }
        }
        None
    }

    fn pop_valid_recver(&mut self) -> Option<RecvWaiter<T>> {
        while let Some(w) = self.recvers.pop_front() {
            match &w.sel {
                None => return Some(w),
                Some((tok, idx)) => {
                    if tok.try_commit(*idx) {
                        return Some(w);
                    }
                }
            }
        }
        None
    }

    fn has_valid_sender(&self) -> bool {
        self.senders.iter().any(|w| match &w.sel {
            None => true,
            Some((tok, _)) => tok.winner().is_none(),
        })
    }

    fn has_valid_recver(&self) -> bool {
        self.recvers.iter().any(|w| match &w.sel {
            None => true,
            Some((tok, _)) => tok.winner().is_none(),
        })
    }
}

/// A typed Go-style channel handle. Cloning shares the channel.
///
/// ```
/// use goat_runtime::{Runtime, Config, go, Chan};
/// let r = Runtime::run(Config::new(0), || {
///     let ch: Chan<u32> = Chan::new(0); // unbuffered
///     let tx = ch.clone();
///     go(move || tx.send(7));
///     assert_eq!(ch.recv(), Some(7));
/// });
/// assert!(r.clean());
/// ```
pub struct Chan<T> {
    core: Arc<ChanCore<T>>,
}

impl<T> Clone for Chan<T> {
    fn clone(&self) -> Self {
        Chan { core: Arc::clone(&self.core) }
    }
}

impl<T> std::fmt::Debug for Chan<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Chan").field("id", &self.core.id).field("cap", &self.core.cap).finish()
    }
}

impl<T: Send + 'static> Chan<T> {
    /// Create a channel with buffer capacity `cap` (`0` = rendezvous).
    ///
    /// # Panics
    /// Panics when called outside a goroutine.
    pub fn new(cap: usize) -> Chan<T> {
        let ctx = current();
        let mut s = ctx.rt.state.lock();
        let id = s.alloc_rid();
        s.emit(ctx.gid, EventKind::ChMake { ch: id, cap }, None);
        Chan {
            core: Arc::new(ChanCore {
                id,
                cap,
                st: Mutex::new(ChanSt {
                    buf: VecDeque::new(),
                    closed: false,
                    senders: VecDeque::new(),
                    recvers: VecDeque::new(),
                }),
            }),
        }
    }

    /// Send a value, blocking until a receiver (or buffer space) is
    /// available.
    ///
    /// # Panics
    /// Panics (crashing the program, like Go) if the channel is closed.
    #[track_caller]
    pub fn send(&self, v: T) {
        let cu = cu_here(CuKind::Send, std::panic::Location::caller());
        let ctx = current();
        op_enter(&ctx, CuKind::Send, &cu);
        self.core.send_impl(&ctx, v, cu);
    }

    /// Try to send without blocking; returns the value back on failure.
    ///
    /// # Errors
    /// Returns `Err(v)` when the channel is full (or rendezvous has no
    /// waiting receiver).
    ///
    /// # Panics
    /// Panics if the channel is closed.
    #[track_caller]
    pub fn try_send(&self, v: T) -> Result<(), T> {
        let cu = cu_here(CuKind::Send, std::panic::Location::caller());
        let ctx = current();
        op_enter(&ctx, CuKind::Send, &cu);
        let mut st = self.core.st.lock();
        if st.closed {
            drop(st);
            gopanic("send on closed channel");
        }
        // A waiting receiver takes the value: its wake and the send's
        // event share one scheduler critical section.
        if let Some(rw) = st.pop_valid_recver() {
            rw.slot.put(RecvOutcome::Val(v));
            drop(st);
            ctx.wake_and_emit([rw.g], EventKind::ChSend { ch: self.core.id }, cu);
            return Ok(());
        }
        if st.buf.len() < self.core.cap {
            st.buf.push_back(v);
            drop(st);
            ctx.emit(EventKind::ChSend { ch: self.core.id }, cu);
            return Ok(());
        }
        Err(v)
    }

    /// Receive a value; blocks until one is available. Returns `None`
    /// once the channel is closed and drained.
    #[track_caller]
    pub fn recv(&self) -> Option<T> {
        let cu = cu_here(CuKind::Recv, std::panic::Location::caller());
        let ctx = current();
        op_enter(&ctx, CuKind::Recv, &cu);
        self.core.recv_impl(&ctx, cu)
    }

    /// Try to receive without blocking.
    ///
    /// Returns `Some(Some(v))` for a value, `Some(None)` when closed and
    /// drained, `None` when nothing is available yet.
    #[track_caller]
    pub fn try_recv(&self) -> Option<Option<T>> {
        let cu = cu_here(CuKind::Recv, std::panic::Location::caller());
        let ctx = current();
        op_enter(&ctx, CuKind::Recv, &cu);
        let core = &self.core;
        let mut st = core.st.lock();
        if let Some(v) = st.buf.pop_front() {
            let woken = core.refill_from_sender(&mut st);
            drop(st);
            ctx.wake_and_emit(woken, EventKind::ChRecv { ch: core.id, closed: false }, cu);
            return Some(Some(v));
        }
        if let Some(mut sw) = st.pop_valid_sender() {
            let v = sw.val.take().expect("blocked sender always holds a value");
            sw.slot.put(SendOutcome::Sent);
            drop(st);
            ctx.wake_and_emit([sw.g], EventKind::ChRecv { ch: core.id, closed: false }, cu);
            return Some(Some(v));
        }
        if st.closed {
            drop(st);
            ctx.emit(EventKind::ChRecv { ch: core.id, closed: true }, cu);
            return Some(None);
        }
        None
    }

    /// Close the channel, waking all blocked senders (which then panic)
    /// and receivers (which observe the close).
    ///
    /// # Panics
    /// Panics if the channel is already closed.
    #[track_caller]
    pub fn close(&self) {
        let cu = cu_here(CuKind::Close, std::panic::Location::caller());
        let ctx = current();
        op_enter(&ctx, CuKind::Close, &cu);
        let mut st = self.core.st.lock();
        if st.closed {
            drop(st);
            gopanic("close of closed channel");
        }
        st.closed = true;
        let mut woken: Vec<Gid> = Vec::new();
        while let Some(rw) = st.pop_valid_recver() {
            rw.slot.put(RecvOutcome::Closed);
            woken.push(rw.g);
        }
        while let Some(sw) = st.pop_valid_sender() {
            sw.slot.put(SendOutcome::Closed);
            woken.push(sw.g);
        }
        drop(st);
        // The released goroutines' `GoUnblock`s and the `ChClose` are
        // recorded in one scheduler critical section.
        ctx.wake_and_emit(woken, EventKind::ChClose { ch: self.core.id }, cu);
    }

    /// Iterate over values until the channel closes (Go's
    /// `for v := range ch`). Each iteration is a traced receive at this
    /// call site with CU kind `range`.
    #[track_caller]
    pub fn range(&self) -> RangeIter<'_, T> {
        let cu = cu_here(CuKind::Range, std::panic::Location::caller());
        RangeIter { ch: self, cu }
    }

    /// Number of values currently buffered.
    pub fn len(&self) -> usize {
        self.core.st.lock().buf.len()
    }

    /// Is the buffer empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The channel's buffer capacity.
    pub fn cap(&self) -> usize {
        self.core.cap
    }

    /// Has the channel been closed?
    pub fn is_closed(&self) -> bool {
        self.core.st.lock().closed
    }

    /// The channel's traced resource id.
    pub fn id(&self) -> RId {
        self.core.id
    }

    /// The channel's shared state, on which select cases register and
    /// to which timers deliver.
    pub(crate) fn core(&self) -> &Arc<ChanCore<T>> {
        &self.core
    }
}

impl<T: Send + 'static> ChanCore<T> {
    /// After taking a value out of a full buffer, move a blocked sender's
    /// value in (preserving FIFO order); returns the sender, for the
    /// caller to wake once it released the channel lock.
    fn refill_from_sender(&self, st: &mut ChanSt<T>) -> Option<Gid> {
        if st.buf.len() >= self.cap {
            return None;
        }
        let mut sw = st.pop_valid_sender()?;
        let v = sw.val.take().expect("blocked sender always holds a value");
        st.buf.push_back(v);
        sw.slot.put(SendOutcome::Sent);
        Some(sw.g)
    }

    /// Send `v`, blocking until a receiver takes it or the channel
    /// closes, which is a Go panic.
    pub(crate) fn send_impl(self: &Arc<Self>, ctx: &Ctx, v: T, cu: goat_model::Cu) {
        let mut st = self.st.lock();
        if st.closed {
            drop(st);
            gopanic("send on closed channel");
        }
        if let Some(rw) = st.pop_valid_recver() {
            rw.slot.put(RecvOutcome::Val(v));
            drop(st);
            ctx.wake_and_emit([rw.g], EventKind::ChSend { ch: self.id }, cu);
            return;
        }
        if st.buf.len() < self.cap {
            st.buf.push_back(v);
            drop(st);
            ctx.emit(EventKind::ChSend { ch: self.id }, cu);
            return;
        }
        // Block until a receiver takes the value (or the channel closes);
        // the `ChSend` is recorded once this goroutine runs again.
        let slot = OpSlot::new();
        st.senders.push_back(SendWaiter {
            g: ctx.gid,
            val: Some(v),
            sel: None,
            slot: Arc::clone(&slot),
        });
        drop(st);
        block_current(ctx, BlockReason::Send, None, Some(cu));
        match slot.take() {
            Some(SendOutcome::Sent) => {
                ctx.emit(EventKind::ChSend { ch: self.id }, cu);
            }
            Some(SendOutcome::Closed) => gopanic("send on closed channel"),
            None => unreachable!("blocked sender woken without outcome"),
        }
    }

    /// Receive, blocking until a value arrives or the channel closes.
    pub(crate) fn recv_impl(self: &Arc<Self>, ctx: &Ctx, cu: goat_model::Cu) -> Option<T> {
        let mut st = self.st.lock();
        if let Some(v) = st.buf.pop_front() {
            let woken = self.refill_from_sender(&mut st);
            drop(st);
            ctx.wake_and_emit(woken, EventKind::ChRecv { ch: self.id, closed: false }, cu);
            return Some(v);
        }
        if let Some(mut sw) = st.pop_valid_sender() {
            let v = sw.val.take().expect("blocked sender always holds a value");
            sw.slot.put(SendOutcome::Sent);
            drop(st);
            ctx.wake_and_emit([sw.g], EventKind::ChRecv { ch: self.id, closed: false }, cu);
            return Some(v);
        }
        if st.closed {
            drop(st);
            ctx.emit(EventKind::ChRecv { ch: self.id, closed: true }, cu);
            return None;
        }
        let slot = OpSlot::new();
        st.recvers.push_back(RecvWaiter { g: ctx.gid, sel: None, slot: Arc::clone(&slot) });
        drop(st);
        block_current(ctx, BlockReason::Recv, None, Some(cu));
        match slot.take() {
            Some(RecvOutcome::Val(v)) => {
                ctx.emit(EventKind::ChRecv { ch: self.id, closed: false }, cu);
                Some(v)
            }
            Some(RecvOutcome::Closed) => {
                ctx.emit(EventKind::ChRecv { ch: self.id, closed: true }, cu);
                None
            }
            None => unreachable!("blocked receiver woken without outcome"),
        }
    }

    // ---- select support -------------------------------------------------

    /// Is a receive case on this channel ready to fire without blocking?
    pub(crate) fn sel_recv_ready(&self) -> bool {
        let st = self.st.lock();
        !st.buf.is_empty() || st.has_valid_sender() || st.closed
    }

    /// Is a send case ready? (A closed channel counts as "ready": firing
    /// the case panics, exactly like Go.)
    pub(crate) fn sel_send_ready(&self) -> bool {
        let st = self.st.lock();
        st.closed || st.buf.len() < self.cap || st.has_valid_recver()
    }

    /// Execute a ready receive case; `None` if it raced and is no longer
    /// ready. Emits `GoUnblock` for a consumed blocked sender; the
    /// `SelectEnd` event is the operation's trace record.
    pub(crate) fn sel_try_recv(&self, ctx: &Ctx, cu: &goat_model::Cu) -> Option<Option<T>> {
        let mut st = self.st.lock();
        if let Some(v) = st.buf.pop_front() {
            // A blocked sender may slide into the freed buffer slot.
            if st.buf.len() < self.cap {
                if let Some(mut sw) = st.pop_valid_sender() {
                    let v2 = sw.val.take().expect("sender holds value");
                    st.buf.push_back(v2);
                    sw.slot.put(SendOutcome::Sent);
                    let mut s = ctx.rt.state.lock();
                    s.wake(sw.g, ctx.gid, Some(*cu));
                }
            }
            return Some(Some(v));
        }
        if let Some(mut sw) = st.pop_valid_sender() {
            let v = sw.val.take().expect("sender holds value");
            sw.slot.put(SendOutcome::Sent);
            drop(st);
            let mut s = ctx.rt.state.lock();
            s.wake(sw.g, ctx.gid, Some(*cu));
            return Some(Some(v));
        }
        if st.closed {
            return Some(None);
        }
        None
    }

    /// Execute a ready send case; gives the value back if no longer ready.
    ///
    /// # Panics
    /// Go panics when a select send case fires on a closed channel.
    pub(crate) fn sel_try_send(&self, ctx: &Ctx, v: T, cu: &goat_model::Cu) -> Result<(), T> {
        let mut st = self.st.lock();
        if st.closed {
            drop(st);
            gopanic("send on closed channel");
        }
        if let Some(rw) = st.pop_valid_recver() {
            rw.slot.put(RecvOutcome::Val(v));
            drop(st);
            let mut s = ctx.rt.state.lock();
            s.wake(rw.g, ctx.gid, Some(*cu));
            return Ok(());
        }
        if st.buf.len() < self.cap {
            st.buf.push_back(v);
            return Ok(());
        }
        Err(v)
    }

    /// Register a blocked select receive case.
    pub(crate) fn sel_register_recv(
        &self,
        g: Gid,
        tok: &Arc<SelToken>,
        idx: usize,
    ) -> Arc<OpSlot<RecvOutcome<T>>> {
        let slot = OpSlot::new();
        self.st.lock().recvers.push_back(RecvWaiter {
            g,
            sel: Some((Arc::clone(tok), idx)),
            slot: Arc::clone(&slot),
        });
        slot
    }

    /// Register a blocked select send case (the value is committed now).
    pub(crate) fn sel_register_send(
        &self,
        g: Gid,
        tok: &Arc<SelToken>,
        idx: usize,
        v: T,
    ) -> Arc<OpSlot<SendOutcome>> {
        let slot = OpSlot::new();
        self.st.lock().senders.push_back(SendWaiter {
            g,
            val: Some(v),
            sel: Some((Arc::clone(tok), idx)),
            slot: Arc::clone(&slot),
        });
        slot
    }

    /// Remove every registration belonging to `tok` (losing select cases
    /// are cleaned up eagerly so queues do not grow in loops).
    pub(crate) fn sel_unregister(&self, tok: &Arc<SelToken>) {
        let mut st = self.st.lock();
        st.senders.retain(|w| match &w.sel {
            Some((t, _)) => !Arc::ptr_eq(t, tok),
            None => true,
        });
        st.recvers.retain(|w| match &w.sel {
            Some((t, _)) => !Arc::ptr_eq(t, tok),
            None => true,
        });
    }

    /// Close driven by a timer/context (idempotent, no panic, attributed
    /// to the runtime pseudo-goroutine).
    pub(crate) fn close_internal(&self, s: &mut Sched) {
        let mut st = self.st.lock();
        if st.closed {
            return;
        }
        st.closed = true;
        let mut woken: Vec<Gid> = Vec::new();
        while let Some(rw) = st.pop_valid_recver() {
            rw.slot.put(RecvOutcome::Closed);
            woken.push(rw.g);
        }
        while let Some(sw) = st.pop_valid_sender() {
            sw.slot.put(SendOutcome::Closed);
            woken.push(sw.g);
        }
        drop(st);
        for g in woken {
            s.wake(g, Gid::RUNTIME, None);
        }
        s.emit(Gid::RUNTIME, EventKind::ChClose { ch: self.id }, None);
    }
}

/// Timer target that delivers one `()` into the channel (used by
/// [`crate::time::after`] and by tickers).
impl TimerTarget for ChanCore<()> {
    fn fire(&self, s: &mut Sched) {
        ChanCore::fire(self, s)
    }
}

impl ChanCore<()> {
    /// Deliver one `()` from scheduler context: wake a waiting receiver
    /// or buffer the value; drop it if the buffer is full or the channel
    /// closed.
    pub(crate) fn fire(&self, s: &mut Sched) {
        let mut st = self.st.lock();
        if st.closed {
            return;
        }
        if let Some(rw) = st.pop_valid_recver() {
            rw.slot.put(RecvOutcome::Val(()));
            let g = rw.g;
            drop(st);
            s.wake(g, Gid::RUNTIME, None);
            return;
        }
        if st.buf.len() < self.cap {
            st.buf.push_back(());
        }
    }
}

/// Iterator returned by [`Chan::range`].
pub struct RangeIter<'a, T> {
    ch: &'a Chan<T>,
    cu: goat_model::Cu,
}

impl<'a, T: Send + 'static> Iterator for RangeIter<'a, T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        let ctx = current();
        op_enter(&ctx, CuKind::Range, &self.cu);
        self.ch.core.recv_impl(&ctx, self.cu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Config, RunOutcome};
    use crate::rt::{go, go_named, gosched, Runtime};

    fn cfg(seed: u64) -> Config {
        Config::new(seed).with_native_preempt_prob(0.0)
    }

    #[test]
    fn unbuffered_rendezvous() {
        let r = Runtime::run(cfg(0), || {
            let ch: Chan<u32> = Chan::new(0);
            let tx = ch.clone();
            go(move || {
                tx.send(1);
                tx.send(2);
            });
            assert_eq!(ch.recv(), Some(1));
            assert_eq!(ch.recv(), Some(2));
        });
        assert!(r.clean(), "{:?}", r.outcome);
    }

    #[test]
    fn buffered_does_not_block_until_full() {
        let r = Runtime::run(cfg(0), || {
            let ch: Chan<u32> = Chan::new(2);
            ch.send(1);
            ch.send(2); // fits in buffer, no receiver needed
            assert_eq!(ch.len(), 2);
            assert_eq!(ch.recv(), Some(1));
            assert_eq!(ch.recv(), Some(2));
        });
        assert!(r.clean());
    }

    #[test]
    fn buffered_send_blocks_when_full_and_fifo_preserved() {
        let r = Runtime::run(cfg(0), || {
            let ch: Chan<u32> = Chan::new(1);
            let tx = ch.clone();
            ch.send(1);
            go(move || tx.send(2)); // blocks: buffer full
            gosched(); // let the sender block
            assert_eq!(ch.recv(), Some(1));
            assert_eq!(ch.recv(), Some(2));
        });
        assert!(r.clean());
    }

    #[test]
    fn recv_blocks_until_send() {
        let r = Runtime::run(cfg(0), || {
            let ch: Chan<&'static str> = Chan::new(0);
            let tx = ch.clone();
            go_named("producer", move || {
                gosched();
                tx.send("hello");
            });
            assert_eq!(ch.recv(), Some("hello"));
        });
        assert!(r.clean());
    }

    #[test]
    fn close_drains_then_none() {
        let r = Runtime::run(cfg(0), || {
            let ch: Chan<u32> = Chan::new(4);
            ch.send(1);
            ch.send(2);
            ch.close();
            assert_eq!(ch.recv(), Some(1));
            assert_eq!(ch.recv(), Some(2));
            assert_eq!(ch.recv(), None);
            assert_eq!(ch.recv(), None); // stays closed
        });
        assert!(r.clean());
    }

    #[test]
    fn close_wakes_blocked_receiver() {
        let r = Runtime::run(cfg(0), || {
            let ch: Chan<u32> = Chan::new(0);
            let cl = ch.clone();
            go(move || cl.close());
            assert_eq!(ch.recv(), None);
        });
        assert!(r.clean());
    }

    #[test]
    fn send_on_closed_channel_panics() {
        let r = Runtime::run(cfg(0), || {
            let ch: Chan<u32> = Chan::new(1);
            ch.close();
            ch.send(1);
        });
        match r.outcome {
            RunOutcome::Panicked { ref msg, .. } => assert!(msg.contains("closed"), "{msg}"),
            other => panic!("expected panic, got {other:?}"),
        }
    }

    #[test]
    fn close_of_closed_channel_panics() {
        let r = Runtime::run(cfg(0), || {
            let ch: Chan<u32> = Chan::new(0);
            ch.close();
            ch.close();
        });
        assert!(matches!(r.outcome, RunOutcome::Panicked { .. }));
    }

    #[test]
    fn blocked_sender_panics_when_channel_closes_under_it() {
        let r = Runtime::run(cfg(0), || {
            let ch: Chan<u32> = Chan::new(0);
            let cl = ch.clone();
            go(move || cl.close());
            ch.send(9); // blocks, then the closer runs
        });
        match r.outcome {
            RunOutcome::Panicked { ref msg, .. } => assert!(msg.contains("closed")),
            other => panic!("expected panic, got {other:?}"),
        }
    }

    #[test]
    fn send_with_no_receiver_deadlocks_globally() {
        let r = Runtime::run(cfg(0), || {
            let ch: Chan<u32> = Chan::new(0);
            ch.send(1); // nobody will ever receive
        });
        assert!(matches!(r.outcome, RunOutcome::GlobalDeadlock { .. }), "{:?}", r.outcome);
    }

    #[test]
    fn try_send_try_recv() {
        let r = Runtime::run(cfg(0), || {
            let ch: Chan<u32> = Chan::new(1);
            assert!(ch.try_send(1).is_ok());
            assert_eq!(ch.try_send(2), Err(2));
            assert_eq!(ch.try_recv(), Some(Some(1)));
            assert_eq!(ch.try_recv(), None);
            ch.close();
            assert_eq!(ch.try_recv(), Some(None));
        });
        assert!(r.clean());
    }

    #[test]
    fn range_iterates_until_close() {
        let r = Runtime::run(cfg(0), || {
            let ch: Chan<u32> = Chan::new(0);
            let tx = ch.clone();
            go(move || {
                for i in 0..5 {
                    tx.send(i);
                }
                tx.close();
            });
            let got: Vec<u32> = ch.range().collect();
            assert_eq!(got, vec![0, 1, 2, 3, 4]);
        });
        assert!(r.clean());
    }

    #[test]
    fn fifo_ordering_of_values() {
        let r = Runtime::run(cfg(0), || {
            let ch: Chan<u32> = Chan::new(3);
            for i in 0..3 {
                ch.send(i);
            }
            for i in 0..3 {
                assert_eq!(ch.recv(), Some(i));
            }
        });
        assert!(r.clean());
    }

    #[test]
    fn multiple_receivers_each_get_one_value() {
        let r = Runtime::run(cfg(0), || {
            let ch: Chan<u32> = Chan::new(0);
            let results: Chan<u32> = Chan::new(3);
            for _ in 0..3 {
                let rx = ch.clone();
                let out = results.clone();
                go(move || {
                    let v = rx.recv().expect("value");
                    out.send(v);
                });
            }
            gosched();
            for i in 10..13 {
                ch.send(i);
            }
            let mut got: Vec<u32> = (0..3).map(|_| results.recv().unwrap()).collect();
            got.sort_unstable();
            assert_eq!(got, vec![10, 11, 12]);
        });
        assert!(r.clean(), "{:?}", r.outcome);
    }

    #[test]
    fn chan_metadata() {
        let r = Runtime::run(cfg(0), || {
            let ch: Chan<u8> = Chan::new(2);
            assert_eq!(ch.cap(), 2);
            assert!(ch.is_empty());
            assert!(!ch.is_closed());
            ch.send(1);
            assert_eq!(ch.len(), 1);
            ch.close();
            assert!(ch.is_closed());
        });
        assert!(r.clean());
    }

    #[test]
    fn trace_records_channel_events() {
        let r = Runtime::run(cfg(0), || {
            let ch: Chan<u32> = Chan::new(1);
            ch.send(1);
            ch.recv();
            ch.close();
        });
        let ect = r.ect.unwrap();
        let kinds: Vec<&str> = ect.iter().map(|e| e.kind.mnemonic()).collect();
        assert!(kinds.contains(&"ChMake"));
        assert!(kinds.contains(&"ChSend"));
        assert!(kinds.contains(&"ChRecv"));
        assert!(kinds.contains(&"ChClose"));
        // CU lines are attached to channel ops
        let send_ev = ect.iter().find(|e| e.kind.mnemonic() == "ChSend").unwrap();
        assert!(send_ev.cu.as_ref().unwrap().file.contains("chan.rs"));
    }
}
