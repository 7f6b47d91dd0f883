//! The `iter` fault site: the bodies a seed-keyed `GOAT_FAULT=iter:…`
//! plan runs instead of a run's main. `tests/snapshots/etcd6708_s11_crash.json`
//! records the `iter:panic` line: moving it means re-blessing that golden.

use crate::faultpoint::{self, SeedFault};
use crate::rt::{gopanic, gosched, Job};
use std::time::Duration;

/// The body the `iter` fault planned for run `seed`, if any.
pub(crate) fn body(seed: u64) -> Option<Job> {
    let body: Job = match faultpoint::seed_fault("iter", seed)? {
        // Stall outside every runtime primitive: no scheduler gate is
        // ever reached, so only the supervisor deciding the run wedged
        // once the watchdog's grace ran out (and the teardown
        // abandonment path) can reclaim this run.
        SeedFault::Wedge => Box::new(|| std::thread::sleep(Duration::from_secs(3600))),
        // Yield forever: every gosched passes the scheduler gate, so
        // the soft deadline aborts cooperatively (or the step limit
        // fires first when no watchdog is configured).
        SeedFault::Spin => Box::new(|| loop {
            gosched();
        }),
        SeedFault::Panic => Box::new(|| gopanic("injected fault: iter:panic")),
    };
    Some(body)
}
