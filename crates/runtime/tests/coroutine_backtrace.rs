//! Backtrace capture inside a goroutine's coroutine must stop at the
//! coroutine's base frame. Its own test binary, because
//! `RUST_BACKTRACE` is read once per process, at the first capture.

use goat_runtime::{go_named, gosched, Config, RunOutcome, Runtime};
use goat_trace::Gid;

#[test]
fn a_genuine_panic_in_a_child_goroutine_carries_a_backtrace() {
    std::env::set_var("RUST_BACKTRACE", "1");
    let r = Runtime::run(Config::new(1).with_native_preempt_prob(0.0), || {
        go_named("crasher", || {
            let empty: Vec<u8> = Vec::new();
            let _ = empty[std::hint::black_box(3)];
        });
        gosched();
        gosched();
    });
    match &r.outcome {
        RunOutcome::Panicked { g, msg } => {
            assert_ne!(*g, Gid::MAIN, "the child panicked");
            assert!(msg.contains("index out of bounds"), "{msg}");
        }
        other => panic!("expected a panicked run, got {other:?}"),
    }
    let detail = r.panic_detail.expect("a genuine panic leaves forensics");
    assert!(detail.starts_with("panicked at "), "{detail}");
    assert!(detail.lines().count() > 1, "no backtrace lines in {detail:?}");
}
