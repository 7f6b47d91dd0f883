//! A bounded-depth crawl pipeline.
//!
//! Architecture:
//!
//! * a **frontier** channel carries pending pages (synthetic URLs);
//! * **fetchers** take a page, "download" it (virtual-time sleep), and
//!   emit its out-links;
//! * a **dedup/dispatch** stage owns the visited set (behind a mutex)
//!   and pushes unseen links back into the bounded frontier;
//! * crawling ends when the page budget is exhausted; a context cancels
//!   the fetchers.
//!
//! The **seeded bug** is the istio16224/cockroach10214 mixed pattern at
//! pipeline scale: with `push_under_lock`, the dispatcher pushes links
//! into the *bounded* frontier while still holding the visited-set
//! mutex. When the frontier backs up, fetchers need that mutex to make
//! progress (they record fetch stats under it) — a cycle through the
//! lock and the full channel wedges the crawl.

use goat_runtime::context::Context;
use goat_runtime::{go_named, time, Chan, Mutex, Select, WaitGroup};
use std::time::Duration;

/// Crawl workload configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Total pages to crawl before stopping.
    pub page_budget: usize,
    /// Number of fetcher goroutines.
    pub fetchers: usize,
    /// Frontier channel capacity.
    pub frontier_cap: usize,
    /// Out-links discovered per fetched page.
    pub links_per_page: usize,
    /// BUG SWITCH: push discovered links into the bounded frontier while
    /// holding the visited-set mutex.
    pub push_under_lock: bool,
}

impl Config {
    /// The correct crawler: links are pushed after the lock is released,
    /// dropping overflow when the frontier is saturated.
    pub fn correct() -> Config {
        Config {
            page_budget: 16,
            fetchers: 3,
            frontier_cap: 8,
            links_per_page: 3,
            push_under_lock: false,
        }
    }

    /// The seeded frontier deadlock. The frontier is just large enough
    /// that whether it backs up before the page budget is exhausted
    /// depends on the interleaving — the bug is schedule-dependent.
    pub fn frontier_bug() -> Config {
        Config {
            page_budget: 16,
            fetchers: 3,
            frontier_cap: 6,
            links_per_page: 3,
            push_under_lock: true,
        }
    }
}

/// Run the crawl to completion (or into its seeded deadlock).
pub fn run(cfg: Config) {
    let frontier: Chan<u64> = Chan::new(cfg.frontier_cap);
    let fetched: Chan<(u64, Vec<u64>)> = Chan::new(cfg.fetchers);
    let visited_mu = Mutex::new();
    let (ctx, cancel) = Context::with_cancel();
    let wg = WaitGroup::new();

    frontier.send(1); // the seed URL

    // Fetchers.
    for f in 0..cfg.fetchers {
        wg.add(1);
        let frontier = frontier.clone();
        let fetched = fetched.clone();
        let visited_mu = visited_mu.clone();
        let ctx = ctx.clone();
        let wg = wg.clone();
        let links = cfg.links_per_page as u64;
        go_named(&format!("fetcher{f}"), move || {
            loop {
                let page = Select::new().recv(&frontier, Some).recv(ctx.done(), |_| None).run();
                let Some(Some(url)) = page else { break };
                // download latency
                time::sleep(Duration::from_micros(200));
                // record fetch statistics under the shared mutex — the
                // edge the seeded bug's cycle runs through
                visited_mu.lock();
                visited_mu.unlock();
                let outlinks: Vec<u64> =
                    (1..=links).map(|k| url.wrapping_mul(31).wrapping_add(k)).collect();
                // deliver the result, but never past a cancellation: the
                // dispatcher stops draining once the budget is reached
                let delivered = Select::new()
                    .send(&fetched, (url, outlinks), || true)
                    .recv(ctx.done(), |_| false)
                    .run();
                if !delivered {
                    break;
                }
            }
            wg.done();
        });
    }

    // Dedup/dispatch: owns the visited set, feeds the frontier.
    {
        let frontier = frontier.clone();
        let fetched = fetched.clone();
        let visited_mu = visited_mu.clone();
        let budget = cfg.page_budget;
        let push_under_lock = cfg.push_under_lock;
        let cancel2 = cancel.clone();
        go_named("dispatcher", move || {
            let mut visited = std::collections::BTreeSet::new();
            visited.insert(1u64);
            let mut crawled = 0usize;
            for (_url, outlinks) in fetched.range() {
                crawled += 1;
                if crawled >= budget {
                    cancel2.cancel(); // stop the fetchers
                    return;
                }
                if push_under_lock {
                    // BUG: the bounded frontier is fed while the visited
                    // mutex is held; when it fills, fetchers deadlock on
                    // the stats lock and nobody drains the frontier.
                    visited_mu.lock();
                    for link in outlinks {
                        if visited.insert(link) {
                            frontier.send(link);
                        }
                    }
                    visited_mu.unlock();
                } else {
                    visited_mu.lock();
                    let fresh: Vec<u64> =
                        outlinks.into_iter().filter(|l| visited.insert(*l)).collect();
                    visited_mu.unlock();
                    for link in fresh {
                        // correct: never block the pipeline on overflow
                        if frontier.try_send(link).is_err() {
                            break;
                        }
                    }
                }
            }
        });
    }

    wg.wait(); // fetchers observed the cancellation
}

#[cfg(test)]
mod tests {
    use super::*;
    use goat_core::{analyze_run, GoatVerdict};
    use goat_runtime::{Config as RtConfig, Runtime, StrategyKind};

    #[test]
    fn correct_crawler_terminates_cleanly() {
        for seed in 0..10u64 {
            for strategy in [RtConfig::default().strategy, StrategyKind::Random] {
                let cfg = RtConfig::new(seed).with_strategy(strategy);
                let r = Runtime::run(cfg, || run(Config::correct()));
                assert!(r.clean(), "seed {seed} {strategy}: {:?} {:?}", r.outcome, r.alive_at_end);
            }
        }
    }

    #[test]
    fn correct_crawler_survives_yield_injection() {
        for seed in 0..8u64 {
            let r =
                Runtime::run(RtConfig::new(seed).with_delay_bound(4), || run(Config::correct()));
            assert!(r.clean(), "seed {seed}: {:?}", r.outcome);
        }
    }

    #[test]
    fn seeded_bug_wedges_the_pipeline() {
        let mut detected = 0;
        for seed in 0..12u64 {
            let r = Runtime::run(RtConfig::new(seed), || run(Config::frontier_bug()));
            if analyze_run(&r).is_bug() {
                detected += 1;
            }
        }
        assert!(detected >= 6, "frontier bug manifested only {detected}/12 times");
    }

    #[test]
    fn bug_symptom_is_a_blocking_cycle_not_a_crash() {
        for seed in 0..12u64 {
            let r = Runtime::run(RtConfig::new(seed), || run(Config::frontier_bug()));
            let v = analyze_run(&r);
            assert!(
                !matches!(v, GoatVerdict::Crash { .. }),
                "seed {seed}: crawler should deadlock, not crash: {v}"
            );
        }
    }
}
