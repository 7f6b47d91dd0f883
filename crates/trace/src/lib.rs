//! # goat-trace — execution concurrency traces (ECT)
//!
//! GoAT enhances Go's standard execution tracer with *concurrency events*
//! so that a program run produces an **execution concurrency trace**: a
//! totally ordered sequence of events, each corresponding to exactly one
//! source statement, describing everything the concurrency primitives did
//! (paper §III-D).
//!
//! This crate defines:
//!
//! * the event vocabulary ([`event::EventKind`]) — the standard tracer's
//!   categories of Table II (process, GC/mem, goroutine, syscall, user,
//!   misc) plus GoAT's concurrency extension (channel / mutex / wait-group
//!   / condition-variable / select events, each carrying its CU source
//!   location);
//! * the trace container ([`ect::Ect`]) with queries, serialization, and
//!   well-formedness checking;
//! * goroutine trees ([`gtree::GTree`]) built from an ECT, with the
//!   paper's application-level goroutine filter (§III-E).

#![warn(missing_docs)]

pub mod ect;
pub mod event;
pub mod gtree;
pub mod recycle;
pub mod stats;
pub mod tracebuf;
pub mod wire;

pub use ect::{Ect, WellFormedError};
pub use event::{
    BlockReason, Event, EventCategory, EventKind, Gid, LockWait, RId, SelCaseFlavor, VTime,
};
pub use gtree::{GNode, GTree, GTreeBuilder};
pub use recycle::{recycle_buffer, take_buffer, TracePoolStats};
pub use stats::{GoroutineProfile, TraceStats};
pub use tracebuf::{schedule_fingerprint, TraceBuf};
