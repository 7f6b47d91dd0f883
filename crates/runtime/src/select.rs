//! Go's `select` statement as a builder.
//!
//! A select waits on multiple channel operations; when several cases are
//! ready the runtime picks one **pseudo-randomly** (from the scheduler's
//! seeded RNG, so runs replay); when none is ready the goroutine blocks
//! unless a `default` case makes the select non-blocking — the behaviour
//! §II-B identifies as a major source of interleaving-space blow-up.
//!
//! ```
//! use goat_runtime::{Runtime, Config, go, Chan, Select};
//! let r = Runtime::run(Config::new(0), || {
//!     let data: Chan<u32> = Chan::new(1);
//!     let quit: Chan<()> = Chan::new(0);
//!     data.send(7);
//!     let got = Select::new()
//!         .recv(&data, |v| v)
//!         .recv(&quit, |_| None)
//!         .run();
//!     assert_eq!(got, Some(7));
//! });
//! assert!(r.clean());
//! ```

use crate::chan::{Chan, OpSlot, RecvOutcome, SendOutcome};
use crate::rt::{block_current, cu_here, current, gopanic, op_enter, Ctx, SelToken};
use goat_model::{Cu, CuKind};
use goat_trace::{BlockReason, EventKind, RId, SelCaseFlavor};
use std::sync::Arc;

/// One channel case of a select (internal, type-erased).
trait SelCase<R> {
    fn flavor(&self) -> SelCaseFlavor;
    fn ch_id(&self) -> RId;
    /// Non-committal readiness poll.
    fn ready(&self) -> bool;
    /// Fire the case now (must be ready); `None` if it raced with a timer
    /// delivery and is no longer ready.
    fn execute(&mut self, ctx: &Ctx, cu: &Cu) -> Option<R>;
    /// Enqueue a registration on the case's channel.
    fn register(&mut self, ctx: &Ctx, tok: &Arc<SelToken>, idx: usize);
    /// Remove this select's registrations from the case's channel.
    fn unregister(&mut self, tok: &Arc<SelToken>);
    /// Finish after this case won while the select was blocked.
    fn complete(&mut self, ctx: &Ctx) -> R;
}

struct RecvCase<'a, T, R> {
    ch: &'a Chan<T>,
    f: Option<Box<dyn FnOnce(Option<T>) -> R + 'a>>,
    slot: Option<Arc<OpSlot<RecvOutcome<T>>>>,
}

impl<'a, T: Send + 'static, R> SelCase<R> for RecvCase<'a, T, R> {
    fn flavor(&self) -> SelCaseFlavor {
        SelCaseFlavor::Recv
    }

    fn ch_id(&self) -> RId {
        self.ch.id()
    }

    fn ready(&self) -> bool {
        self.ch.core().sel_recv_ready()
    }

    fn execute(&mut self, ctx: &Ctx, cu: &Cu) -> Option<R> {
        let got = self.ch.core().sel_try_recv(ctx, cu)?;
        let f = self.f.take().expect("select case executed twice");
        Some(f(got))
    }

    fn register(&mut self, ctx: &Ctx, tok: &Arc<SelToken>, idx: usize) {
        self.slot = Some(self.ch.core().sel_register_recv(ctx.gid, tok, idx));
    }

    fn unregister(&mut self, tok: &Arc<SelToken>) {
        self.ch.core().sel_unregister(tok);
    }

    fn complete(&mut self, _ctx: &Ctx) -> R {
        let slot = self.slot.take().expect("winning case has a slot");
        let f = self.f.take().expect("select case completed twice");
        match slot.take() {
            Some(RecvOutcome::Val(v)) => f(Some(v)),
            Some(RecvOutcome::Closed) => f(None),
            None => unreachable!("committed recv case without outcome"),
        }
    }
}

struct SendCase<'a, T, R> {
    ch: &'a Chan<T>,
    val: Option<T>,
    f: Option<Box<dyn FnOnce() -> R + 'a>>,
    slot: Option<Arc<OpSlot<SendOutcome>>>,
}

impl<'a, T: Send + 'static, R> SelCase<R> for SendCase<'a, T, R> {
    fn flavor(&self) -> SelCaseFlavor {
        SelCaseFlavor::Send
    }

    fn ch_id(&self) -> RId {
        self.ch.id()
    }

    fn ready(&self) -> bool {
        self.ch.core().sel_send_ready()
    }

    fn execute(&mut self, ctx: &Ctx, cu: &Cu) -> Option<R> {
        let v = self.val.take().expect("select send case executed twice");
        match self.ch.core().sel_try_send(ctx, v, cu) {
            Ok(()) => {
                let f = self.f.take().expect("closure consumed twice");
                Some(f())
            }
            Err(v) => {
                self.val = Some(v);
                None
            }
        }
    }

    fn register(&mut self, ctx: &Ctx, tok: &Arc<SelToken>, idx: usize) {
        let v = self.val.take().expect("send case registered twice");
        self.slot = Some(self.ch.core().sel_register_send(ctx.gid, tok, idx, v));
    }

    fn unregister(&mut self, tok: &Arc<SelToken>) {
        self.ch.core().sel_unregister(tok);
    }

    fn complete(&mut self, _ctx: &Ctx) -> R {
        let slot = self.slot.take().expect("winning case has a slot");
        match slot.take() {
            Some(SendOutcome::Sent) => {
                let f = self.f.take().expect("closure consumed twice");
                f()
            }
            Some(SendOutcome::Closed) => gopanic("send on closed channel"),
            None => unreachable!("committed send case without outcome"),
        }
    }
}

/// Builder for a select statement. Construct with [`Select::new`] (the
/// call site becomes the select's CU), add cases, then [`Select::run`].
#[must_use = "a Select does nothing until .run() is called"]
pub struct Select<'a, R> {
    cases: Vec<Box<dyn SelCase<R> + 'a>>,
    default_case: Option<Box<dyn FnOnce() -> R + 'a>>,
    cu: Cu,
}

impl<'a, R: 'a> Select<'a, R> {
    /// Start building a select; the caller's location is recorded as the
    /// select's CU.
    #[track_caller]
    #[allow(clippy::new_without_default)]
    pub fn new() -> Select<'a, R> {
        Select {
            cases: Vec::new(),
            default_case: None,
            cu: cu_here(CuKind::Select, std::panic::Location::caller()),
        }
    }

    /// Add a receive case; `f` gets `Some(v)` for a value or `None` when
    /// the channel is closed.
    pub fn recv<T: Send + 'static>(
        mut self,
        ch: &'a Chan<T>,
        f: impl FnOnce(Option<T>) -> R + 'a,
    ) -> Self {
        self.cases.push(Box::new(RecvCase { ch, f: Some(Box::new(f)), slot: None }));
        self
    }

    /// Add a send case delivering `v`; `f` runs after the send fires.
    pub fn send<T: Send + 'static>(
        mut self,
        ch: &'a Chan<T>,
        v: T,
        f: impl FnOnce() -> R + 'a,
    ) -> Self {
        self.cases.push(Box::new(SendCase { ch, val: Some(v), f: Some(Box::new(f)), slot: None }));
        self
    }

    /// Add a default case, making the select non-blocking.
    ///
    /// # Panics
    /// Panics if a default case was already added.
    pub fn default(mut self, f: impl FnOnce() -> R + 'a) -> Self {
        assert!(self.default_case.is_none(), "select: multiple default cases");
        self.default_case = Some(Box::new(f));
        self
    }

    /// Run the select: fire a pseudo-random ready case, the default when
    /// none is ready, or block until a case becomes available.
    ///
    /// # Panics
    /// Panics if the select has no cases at all (`select {}` blocks
    /// forever in Go; here that is a programming error), or if a fired
    /// send case hits a closed channel.
    pub fn run(mut self) -> R {
        assert!(!self.cases.is_empty() || self.default_case.is_some(), "select with no cases");
        let ctx = current();
        let cu = self.cu;
        op_enter(&ctx, CuKind::Select, &cu);
        {
            let descs: Vec<(SelCaseFlavor, Option<RId>)> =
                self.cases.iter().map(|c| (c.flavor(), Some(c.ch_id()))).collect();
            ctx.emit(
                EventKind::SelectBegin { cases: descs, has_default: self.default_case.is_some() },
                cu,
            );
        }
        loop {
            let ready: Vec<usize> =
                (0..self.cases.len()).filter(|&i| self.cases[i].ready()).collect();
            if !ready.is_empty() {
                let pick = {
                    let mut s = ctx.rt.state.lock();
                    s.choose(ready.len())
                };
                let idx = ready[pick];
                if let Some(r) = self.cases[idx].execute(&ctx, &cu) {
                    self.emit_end(&ctx, Some(idx));
                    return r;
                }
                // Raced with a timer delivery; re-poll.
                continue;
            }
            if let Some(d) = self.default_case.take() {
                self.emit_end(&ctx, None);
                return d();
            }
            // Block on all cases at once.
            let tok = SelToken::new();
            for (i, c) in self.cases.iter_mut().enumerate() {
                c.register(&ctx, &tok, i);
            }
            block_current(&ctx, BlockReason::Select, None, Some(cu));
            let winner = tok.winner().expect("select woken without a committed case");
            for (i, c) in self.cases.iter_mut().enumerate() {
                if i != winner {
                    c.unregister(&tok);
                }
            }
            let r = self.cases[winner].complete(&ctx);
            self.emit_end(&ctx, Some(winner));
            return r;
        }
    }

    /// Record the select's end: the case `chosen`, or the default case.
    fn emit_end(&self, ctx: &Ctx, chosen: Option<usize>) {
        let (flavor, ch) = match chosen {
            Some(i) => (self.cases[i].flavor(), Some(self.cases[i].ch_id())),
            None => (SelCaseFlavor::Default, None),
        };
        let chosen = chosen.unwrap_or(usize::MAX);
        ctx.emit(EventKind::SelectEnd { chosen, flavor, ch }, self.cu);
    }
}

impl<'a, R> std::fmt::Debug for Select<'a, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Select")
            .field("cases", &self.cases.len())
            .field("has_default", &self.default_case.is_some())
            .field("cu", &self.cu)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Config, RunOutcome};
    use crate::rt::{go, gosched, Runtime};

    fn cfg(seed: u64) -> Config {
        Config::new(seed).with_native_preempt_prob(0.0)
    }

    #[test]
    fn immediate_ready_recv_case_fires() {
        let r = Runtime::run(cfg(0), || {
            let a: Chan<u32> = Chan::new(1);
            let b: Chan<u32> = Chan::new(1);
            a.send(5);
            let got = Select::new().recv(&a, |v| v).recv(&b, |v| v).run();
            assert_eq!(got, Some(5));
        });
        assert!(r.clean());
    }

    #[test]
    fn default_fires_when_nothing_ready() {
        let r = Runtime::run(cfg(0), || {
            let a: Chan<u32> = Chan::new(0);
            let got = Select::new().recv(&a, |_| 1).default(|| 2).run();
            assert_eq!(got, 2);
        });
        assert!(r.clean());
    }

    #[test]
    fn blocked_select_woken_by_sender() {
        let r = Runtime::run(cfg(0), || {
            let a: Chan<u32> = Chan::new(0);
            let b: Chan<u32> = Chan::new(0);
            let tx = b.clone();
            go(move || tx.send(42));
            let got = Select::new().recv(&a, |v| v).recv(&b, |v| v).run();
            assert_eq!(got, Some(42));
        });
        assert!(r.clean(), "{:?}", r.outcome);
    }

    #[test]
    fn blocked_select_woken_by_close() {
        let r = Runtime::run(cfg(0), || {
            let a: Chan<u32> = Chan::new(0);
            let cl = a.clone();
            go(move || cl.close());
            let got = Select::new().recv(&a, |v| v.is_none()).run();
            assert!(got);
        });
        assert!(r.clean());
    }

    #[test]
    fn send_case_delivers_to_blocked_receiver() {
        let r = Runtime::run(cfg(0), || {
            let a: Chan<u32> = Chan::new(0);
            let out: Chan<u32> = Chan::new(1);
            let rx = a.clone();
            let o = out.clone();
            go(move || {
                let v = rx.recv().unwrap();
                o.send(v);
            });
            gosched(); // let the receiver block
            Select::new().send(&a, 9, || ()).run();
            assert_eq!(out.recv(), Some(9));
        });
        assert!(r.clean(), "{:?}", r.outcome);
    }

    #[test]
    fn blocked_send_case_completes_when_receiver_arrives() {
        let r = Runtime::run(cfg(0), || {
            let a: Chan<u32> = Chan::new(0);
            let rx = a.clone();
            go(move || {
                gosched();
                assert_eq!(rx.recv(), Some(3));
            });
            let done = Select::new().send(&a, 3, || true).run();
            assert!(done);
        });
        assert!(r.clean(), "{:?}", r.outcome);
    }

    #[test]
    fn select_choice_is_seed_deterministic_and_varies() {
        let outcome_for = |seed: u64| {
            let result = std::sync::Arc::new(std::sync::Mutex::new(0usize));
            let result2 = std::sync::Arc::clone(&result);
            let r = Runtime::run(cfg(seed), move || {
                let a: Chan<u32> = Chan::new(1);
                let b: Chan<u32> = Chan::new(1);
                a.send(1);
                b.send(2);
                let chosen = Select::new().recv(&a, |_| 0usize).recv(&b, |_| 1usize).run();
                *result2.lock().unwrap() = chosen;
            });
            assert!(r.clean());
            let chosen = *result.lock().unwrap();
            chosen
        };
        let picks: Vec<usize> = (0..16).map(outcome_for).collect();
        // deterministic per seed
        assert_eq!(outcome_for(3), outcome_for(3));
        // both cases get picked across seeds (pseudo-random choice)
        assert!(picks.contains(&0) && picks.contains(&1), "{picks:?}");
    }

    #[test]
    fn select_on_two_empty_channels_deadlocks() {
        let r = Runtime::run(cfg(0), || {
            let a: Chan<u32> = Chan::new(0);
            let b: Chan<u32> = Chan::new(0);
            Select::new().recv(&a, |_| ()).recv(&b, |_| ()).run();
        });
        assert!(matches!(r.outcome, RunOutcome::GlobalDeadlock { .. }));
    }

    #[test]
    fn losing_registrations_are_cleaned_up() {
        let r = Runtime::run(cfg(0), || {
            let a: Chan<u32> = Chan::new(0);
            let b: Chan<u32> = Chan::new(0);
            let tx = a.clone();
            go(move || tx.send(1));
            for _ in 0..10 {
                let got = Select::new().recv(&a, |v| v).recv(&b, |v| v).run();
                assert_eq!(got, Some(1));
                let tx = a.clone();
                go(move || tx.send(1));
            }
            let _ = a.recv();
        });
        assert!(r.clean(), "{:?}", r.outcome);
    }

    #[test]
    fn send_case_on_closed_channel_panics() {
        let r = Runtime::run(cfg(0), || {
            let a: Chan<u32> = Chan::new(0);
            a.close();
            Select::new().send(&a, 1, || ()).run();
        });
        assert!(matches!(r.outcome, RunOutcome::Panicked { .. }));
    }

    #[test]
    fn nested_select_loop_with_default_is_traced() {
        let r = Runtime::run(cfg(0), || {
            let status: Chan<u32> = Chan::new(0);
            let tx = status.clone();
            go(move || {
                gosched();
                tx.send(1);
            });
            let mut spins = 0u32;
            loop {
                let done = Select::new().recv(&status, |v| v.is_some()).default(|| false).run();
                if done {
                    break;
                }
                spins += 1;
                gosched();
                if spins > 100 {
                    panic!("never received");
                }
            }
        });
        assert!(r.clean(), "{:?}", r.outcome);
        let ect = r.ect.unwrap();
        let begins = ect.iter().filter(|e| e.kind.mnemonic() == "SelectBegin").count();
        let ends = ect.iter().filter(|e| e.kind.mnemonic() == "SelectEnd").count();
        assert_eq!(begins, ends);
        assert!(begins >= 2, "looped select traced each iteration");
    }

    #[test]
    fn empty_select_is_rejected() {
        let r = Runtime::run(cfg(0), || {
            let _: u32 = Select::new().run();
        });
        match r.outcome {
            RunOutcome::Panicked { ref msg, .. } => {
                assert!(msg.contains("select with no cases"), "{msg}")
            }
            other => panic!("expected panic, got {other:?}"),
        }
    }
}
