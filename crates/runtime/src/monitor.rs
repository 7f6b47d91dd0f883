//! Monitor hooks: how baseline detectors observe an execution.
//!
//! The paper compares GoAT against tools that *intercept* primitive
//! operations (LockDL wraps every mutex op). The runtime exposes those
//! observation points as a trait so each baseline can be implemented
//! faithfully without touching the scheduler. goleak needs no hook: its
//! end-of-main view is [`crate::RunResult::alive_at_end`] of a completed
//! run.

use goat_model::Cu;
use goat_trace::{Gid, RId};

/// Observation hooks invoked synchronously by the runtime.
///
/// Implementations must not call back into runtime primitives (they run
/// under scheduler locks); they should only update their own state.
#[allow(unused_variables)]
pub trait Monitor: Send + Sync {
    /// A goroutine is about to acquire `mu` (before blocking, if any).
    fn on_lock_attempt(&self, g: Gid, mu: RId, cu: &Cu) {}

    /// A goroutine acquired `mu`.
    fn on_lock_acquired(&self, g: Gid, mu: RId, cu: &Cu) {}

    /// A goroutine released `mu`.
    fn on_unlock(&self, g: Gid, mu: RId) {}
}
