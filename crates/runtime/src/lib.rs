//! # goat-runtime — a deterministic Go-style concurrency runtime
//!
//! The substrate of the GoAT reproduction: everything the paper assumes
//! from the Go language and its patched runtime, rebuilt as a library.
//!
//! * **Goroutines** — [`go`]/[`go_named`] spawn concurrent functions as
//!   stackful coroutines that take turns on one host thread per run; a
//!   single-token cooperative scheduler with a FIFO global run queue
//!   (plus Go-style preemption noise ε) decides who runs, and a handoff
//!   is a register swap.
//! * **Channels** — [`Chan`] gives rendezvous and buffered channels with
//!   Go's close semantics; [`Select`] implements `select` with
//!   pseudo-random ready-case choice and `default`.
//! * **Sync** — [`Mutex`], [`RwLock`], [`WaitGroup`], [`Cond`] with Go
//!   semantics (non-reentrant locks, write-preferring RWMutex, …).
//! * **Virtual time** — [`time::sleep`]/[`time::after`] run against a
//!   logical clock, so timeouts are deterministic and instant.
//! * **Tracing** — every primitive emits execution-concurrency-trace
//!   events (see `goat-trace`) tagged with its CU source location
//!   captured via `#[track_caller]`.
//! * **Perturbation** — with [`Config::delay_bound`] `D > 0` the runtime
//!   runs the paper's `goat.handler()` in front of every CU, randomly
//!   yielding up to `D` times per run to shake rare interleavings loose.
//!
//! ## Quickstart
//!
//! ```
//! use goat_runtime::{Runtime, Config, go, Chan};
//!
//! let result = Runtime::run(Config::new(42), || {
//!     let ch: Chan<String> = Chan::new(0);
//!     let tx = ch.clone();
//!     go(move || tx.send("hello from a goroutine".to_string()));
//!     let msg = ch.recv().expect("value");
//!     assert!(msg.contains("hello"));
//! });
//! assert!(result.clean());
//! let ect = result.ect.expect("tracing on by default");
//! assert!(ect.well_formed().is_ok());
//! ```
//!
//! Runs are **deterministic**: the same seed replays the same
//! interleaving, the same select choices and the same injected yields.

#![warn(missing_docs)]

mod chan;
mod config;
/// Go-style cancellation contexts.
pub mod context;
mod coro;
/// Deterministic fault injection (`GOAT_FAULT`) for supervision tests.
pub mod faultpoint;
mod iter_fault;
/// Shared pool of run host threads (run hosts, statistics surface).
pub mod pool;
mod rt;
mod select;
/// Pluggable scheduling strategies (`GOAT_STRATEGY`).
pub mod strategy;
mod supervise;
mod sync;
/// Virtual-time utilities (`sleep`, `after`, `Ticker`).
pub mod time;

pub use chan::{Chan, RangeIter};
pub use config::{
    env_knob, parse_knob, AliveGoroutine, Config, CrashForensics, Decision, ReplayLog, RunOutcome,
    RunResult, SchedCounters, TimeoutPhase, STRATEGY_FORM,
};
pub use rt::{gid, go, go_internal, go_named, gosched, Runtime};
pub use select::Select;
pub use strategy::StrategyKind;
pub use supervise::teardown_timeout;
pub use sync::{Cond, Mutex, Once, RwLock, WaitGroup};

#[cfg(test)]
mod api_tests {
    use super::*;

    #[test]
    fn public_types_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Chan<u64>>();
        assert_send::<Mutex>();
        assert_send::<RwLock>();
        assert_send::<WaitGroup>();
        assert_send::<Cond>();
        assert_send::<context::Context>();
        assert_send::<Config>();
        assert_send::<RunResult>();
    }

    #[test]
    fn public_types_are_debug() {
        let cfg = Config::new(0);
        assert!(!format!("{cfg:?}").is_empty());
        let r = Runtime::run(cfg, || {
            let ch: Chan<u8> = Chan::new(1);
            let mu = Mutex::new();
            let rw = RwLock::new();
            let wg = WaitGroup::new();
            let cv = Cond::new(&mu);
            let (ctx, canceler) = context::Context::with_cancel();
            for s in [
                format!("{ch:?}"),
                format!("{mu:?}"),
                format!("{rw:?}"),
                format!("{wg:?}"),
                format!("{cv:?}"),
                format!("{ctx:?}"),
                format!("{canceler:?}"),
                format!("{:?}", Select::<()>::new()),
            ] {
                assert!(!s.is_empty());
            }
        });
        assert!(r.clean());
        assert!(!format!("{r:?}").is_empty());
    }
}
