//! A topic-based publish/subscribe broker.
//!
//! Architecture (all per run):
//!
//! * a **broker** goroutine owns the subscription table (behind an
//!   RWMutex) and fans every published message out to each subscriber's
//!   bounded mailbox;
//! * **publishers** push messages for a set of topics through a shared
//!   submission queue;
//! * **subscribers** drain their mailboxes and acknowledge on a results
//!   channel; they unsubscribe after a quota;
//! * shutdown: publishers finish → submission queue closes → broker
//!   closes every mailbox → subscribers drain and exit.
//!
//! The **seeded bug** reproduces the moby33293 pattern at scale: with
//! `deliver_blocking`, the broker performs *blocking* sends into
//! subscriber mailboxes while holding the subscription read lock, and a
//! quota-exhausted subscriber stops draining **without unsubscribing**
//! (the forgotten-unsubscribe of the original issue). Its mailbox fills,
//! the broker wedges on it while holding the lock, and every other
//! subscriber's unsubscribe path piles up behind the reader.

use goat_runtime::{go_named, Chan, RwLock, Select, WaitGroup};

/// Broker workload configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of publisher goroutines.
    pub publishers: usize,
    /// Messages each publisher submits.
    pub messages_per_publisher: usize,
    /// Number of subscriber goroutines.
    pub subscribers: usize,
    /// Mailbox capacity per subscriber.
    pub mailbox_cap: usize,
    /// Messages a subscriber consumes before unsubscribing (0 = all).
    pub quota: usize,
    /// BUG SWITCH: deliver with a blocking send while holding the
    /// subscription lock instead of dropping on a full mailbox.
    pub deliver_blocking: bool,
}

impl Config {
    /// The correct broker: bounded mailboxes with drop-on-full delivery.
    pub fn correct() -> Config {
        Config {
            publishers: 2,
            messages_per_publisher: 12,
            subscribers: 3,
            mailbox_cap: 4,
            quota: 0,
            deliver_blocking: false,
        }
    }

    /// The seeded bug: quota-limited subscribers plus blocking delivery
    /// under the subscription lock.
    pub fn slow_subscriber_bug() -> Config {
        Config {
            publishers: 2,
            messages_per_publisher: 12,
            subscribers: 3,
            mailbox_cap: 2,
            quota: 3,
            deliver_blocking: true,
        }
    }
}

/// Run the broker to completion (or into its seeded deadlock).
pub fn run(cfg: Config) {
    let submissions: Chan<u64> = Chan::new(8);
    let acks: Chan<u64> =
        Chan::new(cfg.publishers * cfg.messages_per_publisher * cfg.subscribers + 8);
    let sub_lock = RwLock::new(); // protects the subscription table
    let mailboxes: Vec<Chan<u64>> =
        (0..cfg.subscribers).map(|_| Chan::new(cfg.mailbox_cap)).collect();
    let unsubscribed: Chan<usize> = Chan::new(cfg.subscribers);
    let wg = WaitGroup::new();

    // Publishers.
    for p in 0..cfg.publishers {
        wg.add(1);
        let submissions = submissions.clone();
        let wg = wg.clone();
        let n = cfg.messages_per_publisher;
        go_named(&format!("publisher{p}"), move || {
            for i in 0..n {
                submissions.send((p as u64) << 32 | i as u64);
            }
            wg.done();
        });
    }

    // Broker: fan out each submission to every live mailbox.
    {
        let submissions = submissions.clone();
        let mailboxes = mailboxes.clone();
        let sub_lock = sub_lock.clone();
        let unsubscribed = unsubscribed.clone();
        let blocking = cfg.deliver_blocking;
        go_named("broker", move || {
            let mut dead = vec![false; mailboxes.len()];
            for msg in submissions.range() {
                // collect unsubscriptions (non-blocking)
                while let Some(Some(idx)) = unsubscribed.try_recv() {
                    dead[idx] = true;
                }
                sub_lock.rlock(); // hold the table while delivering
                for (idx, mb) in mailboxes.iter().enumerate() {
                    if dead[idx] {
                        continue;
                    }
                    if blocking {
                        // BUG: blocking send while holding the
                        // subscription lock; a quota-exhausted
                        // subscriber never drains this mailbox again.
                        mb.send(msg);
                    } else {
                        // correct: drop on full (bounded fan-out)
                        let _ = mb.try_send(msg);
                    }
                }
                sub_lock.runlock();
            }
            for (idx, mb) in mailboxes.iter().enumerate() {
                if !dead[idx] {
                    mb.close();
                }
            }
        });
    }

    // Subscribers.
    for (idx, mb) in mailboxes.iter().enumerate() {
        let mb = mb.clone();
        let acks = acks.clone();
        let sub_lock = sub_lock.clone();
        let unsubscribed = unsubscribed.clone();
        let quota = cfg.quota;
        go_named(&format!("subscriber{idx}"), move || {
            let mut consumed = 0usize;
            for msg in mb.range() {
                acks.send(msg);
                consumed += 1;
                if quota > 0 && consumed >= quota {
                    if idx == 0 {
                        // BUG (with blocking delivery): this subscriber
                        // stops draining but never tells the broker —
                        // the forgotten unsubscribe of moby33293.
                        return;
                    }
                    // proper unsubscribe: take the subscription write
                    // lock (piles up behind the wedged broker's read
                    // lock in the buggy configuration)
                    sub_lock.lock();
                    sub_lock.unlock();
                    unsubscribed.send(idx);
                    return;
                }
            }
        });
    }

    wg.wait(); // all publishers done
    submissions.close();
    // drain acknowledgements opportunistically until the broker closed
    // the mailboxes and subscribers exited
    let mut spins = 0;
    loop {
        let progressed = Select::new().recv(&acks, |v| v.is_some()).default(|| false).run();
        if !progressed {
            spins += 1;
            if spins > 4 {
                break;
            }
            goat_runtime::gosched();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use goat_core::analyze_run;
    use goat_runtime::{Config as RtConfig, Runtime, StrategyKind};

    #[test]
    fn correct_broker_is_clean_across_schedules() {
        for seed in 0..10u64 {
            for strategy in [RtConfig::default().strategy, StrategyKind::Random] {
                let cfg = RtConfig::new(seed).with_strategy(strategy);
                let r = Runtime::run(cfg, || run(Config::correct()));
                assert!(r.clean(), "seed {seed} {strategy}: {:?} {:?}", r.outcome, r.alive_at_end);
            }
        }
    }

    #[test]
    fn correct_broker_survives_yield_injection() {
        for seed in 0..8u64 {
            let cfg = RtConfig::new(seed).with_delay_bound(4);
            let r = Runtime::run(cfg, || run(Config::correct()));
            assert!(r.clean(), "seed {seed}: {:?}", r.outcome);
        }
    }

    #[test]
    fn seeded_bug_wedges_the_broker() {
        // The blocking-delivery bug manifests on essentially every
        // schedule. Back-pressure propagates all the way into main's
        // wg.wait, so the symptom is a *global* deadlock (like the
        // paper's GDL rows), occasionally a leak when main squeaks out.
        let mut detected = 0;
        for seed in 0..10u64 {
            let r = Runtime::run(RtConfig::new(seed), || run(Config::slow_subscriber_bug()));
            if analyze_run(&r).is_bug() {
                detected += 1;
            }
        }
        assert!(detected >= 8, "bug manifested only {detected}/10 times");
    }

    #[test]
    fn wedged_broker_is_blocked_on_a_mailbox_send() {
        let mut seen_send_block = false;
        for seed in 0..10u64 {
            let r = Runtime::run(RtConfig::new(seed), || run(Config::slow_subscriber_bug()));
            if !analyze_run(&r).is_bug() {
                continue;
            }
            let ect = r.ect.expect("traced");
            let tree = goat_trace::GTree::from_ect(&ect);
            let broker_evt =
                tree.nodes().find(|n| n.name == "broker").map(|n| format!("{:?}", n.last_event));
            if broker_evt.is_some_and(|evt| evt.contains("Send")) {
                seen_send_block = true;
            }
        }
        assert!(seen_send_block, "the broker itself should wedge on a mailbox send");
    }
}
