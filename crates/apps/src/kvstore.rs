//! A primary/replica key-value store.
//!
//! Architecture:
//!
//! * the **primary** serves a stream of client commands (put/get/snap);
//!   puts are appended to a write-ahead channel consumed by replicas;
//! * **replicas** apply entries and acknowledge each one;
//! * an **ack collector** matches acknowledgements to outstanding puts
//!   so the client sees replicated-commit semantics;
//! * **readers** hit the store under a read lock; a periodic snapshot
//!   request takes the write lock.
//!
//! The **seeded bug** is the etcd-style mixed cycle (etcd7443/13135
//! pattern at application scale): with `ack_under_lock`, the primary
//! waits for the replica's acknowledgement *while still holding the
//! store mutex*; the replica, however, takes the store mutex before
//! applying. One unlucky ordering and the whole store wedges.

use goat_runtime::{go_named, Chan, Mutex, WaitGroup};

/// Store workload configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of put commands.
    pub puts: usize,
    /// Number of replicas.
    pub replicas: usize,
    /// Write-ahead channel capacity.
    pub wal_cap: usize,
    /// BUG SWITCH: the primary holds the store mutex across the
    /// replication acknowledgement rendezvous.
    pub ack_under_lock: bool,
}

impl Config {
    /// The correct store: the lock is released before awaiting acks.
    pub fn correct() -> Config {
        Config { puts: 10, replicas: 2, wal_cap: 4, ack_under_lock: false }
    }

    /// The seeded replication deadlock.
    pub fn replication_bug() -> Config {
        Config { puts: 10, replicas: 2, wal_cap: 1, ack_under_lock: true }
    }
}

/// Run the store workload to completion (or into its seeded deadlock).
pub fn run(cfg: Config) {
    let store_mu = Mutex::new();
    let wal: Chan<u64> = Chan::new(cfg.wal_cap);
    let acks: Chan<u64> = Chan::new(0); // rendezvous acknowledgement
    let done = WaitGroup::new();

    // Replicas: apply WAL entries under the store mutex, then ack.
    for rid in 0..cfg.replicas {
        done.add(1);
        let wal = wal.clone();
        let acks = acks.clone();
        let store_mu = store_mu.clone();
        let done = done.clone();
        go_named(&format!("replica{rid}"), move || {
            for entry in wal.range() {
                store_mu.lock(); // apply to the local copy
                store_mu.unlock();
                acks.send(entry);
            }
            done.done();
        });
    }

    // Primary: serve puts, replicate each, await one ack per entry.
    {
        let wal = wal.clone();
        let acks = acks.clone();
        let store_mu = store_mu.clone();
        let done = done.clone();
        let cfg2 = cfg.clone();
        done.add(1);
        go_named("primary", move || {
            for i in 0..cfg2.puts as u64 {
                store_mu.lock(); // apply locally
                if cfg2.ack_under_lock {
                    // BUG: replicate and await the ack while holding the
                    // store mutex the replica needs to apply the entry.
                    wal.send(i);
                    let _ = acks.recv();
                    store_mu.unlock();
                } else {
                    store_mu.unlock();
                    wal.send(i);
                    let _ = acks.recv();
                }
            }
            wal.close();
            done.done();
        });
    }

    // A reader that interleaves with replication.
    {
        let store_mu = store_mu.clone();
        let done = done.clone();
        let reads = cfg.puts / 2;
        done.add(1);
        go_named("reader", move || {
            for _ in 0..reads {
                store_mu.lock();
                store_mu.unlock();
                goat_runtime::gosched();
            }
            done.done();
        });
    }

    done.wait();
    // defensive drain (no surplus expected: the WAL range competes, so
    // exactly one replica acknowledges each entry)
    while acks.try_recv().is_some() {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use goat_core::{analyze_run, GoatVerdict};
    use goat_runtime::{Config as RtConfig, Runtime, StrategyKind};

    #[test]
    fn correct_store_replicates_cleanly() {
        for seed in 0..10u64 {
            for strategy in [RtConfig::default().strategy, StrategyKind::Random] {
                let cfg = RtConfig::new(seed).with_strategy(strategy);
                let r = Runtime::run(cfg, || run(Config::correct()));
                assert!(r.clean(), "seed {seed} {strategy}: {:?} {:?}", r.outcome, r.alive_at_end);
            }
        }
    }

    #[test]
    fn correct_store_survives_yield_injection() {
        for seed in 0..8u64 {
            let r =
                Runtime::run(RtConfig::new(seed).with_delay_bound(4), || run(Config::correct()));
            assert!(r.clean(), "seed {seed}: {:?}", r.outcome);
        }
    }

    #[test]
    fn seeded_bug_deadlocks_the_pipeline() {
        let mut detected = 0;
        for seed in 0..12u64 {
            let r = Runtime::run(RtConfig::new(seed), || run(Config::replication_bug()));
            let v = analyze_run(&r);
            if v.is_bug() {
                detected += 1;
                assert!(
                    matches!(v, GoatVerdict::GlobalDeadlock | GoatVerdict::PartialDeadlock { .. }),
                    "unexpected symptom {v}"
                );
            }
        }
        assert!(detected >= 6, "replication bug manifested only {detected}/12 times");
    }

    #[test]
    fn goat_campaign_exposes_the_bug_and_clears_the_fix() {
        use goat_core::{FnProgram, Goat, GoatConfig};
        use std::sync::Arc;
        let buggy = Arc::new(FnProgram::new("kv-bug", || run(Config::replication_bug())));
        let result = Goat::new(GoatConfig::default().with_iterations(100)).test(buggy);
        assert!(result.detected(), "campaign must expose the replication bug");

        let fixed = Arc::new(FnProgram::new("kv-fixed", || run(Config::correct())));
        let result =
            Goat::new(GoatConfig::default().with_iterations(30).with_delay_bound(3)).test(fixed);
        assert!(!result.detected(), "fixed store flagged: {:?}", result.bug);
    }
}
