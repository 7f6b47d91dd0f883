//! Monitor hooks: how baseline detectors observe an execution.
//!
//! The paper compares GoAT against tools that *intercept* primitive
//! operations (LockDL wraps every mutex op; goleak inspects the stack at
//! the end of main). The runtime exposes the same observation points as a
//! trait so each baseline can be implemented faithfully without touching
//! the scheduler.

use crate::config::AliveGoroutine;
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

    /// The main goroutine returned; `alive` lists the application
    /// goroutines that had not finished at that point (goleak's view).
    fn on_main_end(&self, alive: &[AliveGoroutine]) {}
}
