//! Process-wide trace-buffer recycling pool.
//!
//! A yield-injection campaign collects one event vector per iteration;
//! at 10k+ events per trace that is the single largest per-iteration
//! allocation. Instead of re-growing a fresh `Vec` from zero every run,
//! the scheduler checks a buffer out of this pool at startup and the
//! campaign merge loop returns the (cleared, capacity-preserving) vector
//! once analysis is done, so steady-state campaigns allocate trace
//! storage only until the high-water trace size is reached.
//!
//! The pool is deliberately dumb: a mutex over a stack of buffers, LIFO
//! so the hottest (cache-warm, fully grown) buffer is reused first.
//! Capacity is bounded by [`POOL_MAX`] buffers. Both bug and non-bug
//! traces flow back here — bug ECTs are returned by the front end once
//! their report has been rendered.
//!
//! Counters are plain relaxed atomics (not gated behind telemetry) so
//! [`stats`] is always meaningful; the campaign runner surfaces them in
//! `CampaignTelemetry` when telemetry is on.

use crate::event::Event;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

static RECYCLED: AtomicU64 = AtomicU64::new(0);
static FRESH: AtomicU64 = AtomicU64::new(0);
static RETURNED: AtomicU64 = AtomicU64::new(0);
static DROPPED: AtomicU64 = AtomicU64::new(0);

fn pool() -> &'static Mutex<Vec<Vec<Event>>> {
    static POOL: OnceLock<Mutex<Vec<Vec<Event>>>> = OnceLock::new();
    POOL.get_or_init(|| Mutex::new(Vec::new()))
}

/// Maximum number of idle buffers retained.
pub const POOL_MAX: usize = 32;

/// Check an empty event buffer out of the pool (recycled when one is
/// idle, freshly allocated otherwise).
pub fn take_buffer() -> Vec<Event> {
    if let Some(buf) = pool().lock().expect("trace pool poisoned").pop() {
        RECYCLED.fetch_add(1, Ordering::Relaxed);
        debug_assert!(buf.is_empty());
        return buf;
    }
    FRESH.fetch_add(1, Ordering::Relaxed);
    Vec::new()
}

/// Return a no-longer-needed event buffer to the pool. The buffer is
/// cleared (events dropped now, while it is cache-hot) but keeps its
/// capacity; buffers beyond the pool cap are dropped outright.
pub fn recycle_buffer(mut buf: Vec<Event>) {
    buf.clear();
    let mut p = pool().lock().expect("trace pool poisoned");
    if p.len() < POOL_MAX {
        p.push(buf);
        RETURNED.fetch_add(1, Ordering::Relaxed);
        return;
    }
    DROPPED.fetch_add(1, Ordering::Relaxed);
}

/// Cumulative recycling counters for this process.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TracePoolStats {
    /// Buffer checkouts served from the pool.
    pub recycled: u64,
    /// Buffer checkouts that had to allocate.
    pub fresh: u64,
    /// Buffers successfully returned to the pool.
    pub returned: u64,
    /// Buffers dropped because the pool was full.
    pub dropped: u64,
}

/// Snapshot the process-wide recycling counters.
pub fn stats() -> TracePoolStats {
    TracePoolStats {
        recycled: RECYCLED.load(Ordering::Relaxed),
        fresh: FRESH.load(Ordering::Relaxed),
        returned: RETURNED.load(Ordering::Relaxed),
        dropped: DROPPED.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, Gid, VTime};

    #[test]
    fn buffers_round_trip_and_keep_capacity() {
        let mut buf = take_buffer();
        buf.reserve(1024);
        buf.push(Event {
            seq: 0,
            ts: VTime::ZERO,
            g: Gid::MAIN,
            kind: EventKind::GoStart,
            cu: None,
        });
        let cap = buf.capacity();
        recycle_buffer(buf);
        // LIFO: the next take sees the buffer we just returned, emptied.
        let buf2 = take_buffer();
        assert!(buf2.is_empty());
        assert!(buf2.capacity() >= cap || stats().dropped > 0);
        let s = stats();
        assert!(s.recycled + s.fresh >= 2);
    }
}
