//! # goat-detectors — the baseline dynamic detectors of §IV-A
//!
//! GoAT's evaluation compares against three existing dynamic tools, each
//! re-implemented here from its documented detection principle:
//!
//! * [`BuiltinDetector`] — Go's runtime deadlock check: "all goroutines
//!   are asleep" while main has not finished. Detects **global**
//!   deadlocks only; goroutine leaks go unnoticed.
//! * [`LockdlDetector`] — the lock-set tool (sasha-s/go-deadlock): replays
//!   its mutex wrappers over the run's recorded trace, warns on
//!   double-locking and on cycles in the accumulated lock-order graph,
//!   and carries a 30 s watchdog timeout. Channel-caused deadlocks are
//!   invisible to it except via the timeout.
//! * [`GoleakDetector`] — Uber's goleak: at the end of `main`, report
//!   application goroutines that are still alive (leaked).
//!
//! Each detector runs a program once under a given [`Config`] and
//! produces a [`ToolVerdict`]; iterating with fresh seeds is the job of
//! the experiment harness (goat-bench).

#![warn(missing_docs)]

mod goleak;
mod lockdl;
mod verdict;

pub use goleak::GoleakDetector;
pub use lockdl::{LockGraph, LockdlDetector, LockdlReport};
pub use verdict::{Detector, ProgramFn, Symptom, ToolVerdict};

use goat_runtime::{Config, RunOutcome, Runtime};

/// Go's built-in global deadlock detector.
///
/// The runtime itself implements the check (no runnable goroutine, no
/// pending timer, main blocked ⇒ "fatal error: all goroutines are asleep
/// — deadlock!"), so this detector simply interprets the run outcome. It
/// never sees partial deadlocks: a program whose main returns while other
/// goroutines are blocked terminates successfully.
#[derive(Debug, Clone, Copy, Default)]
pub struct BuiltinDetector;

impl BuiltinDetector {
    /// Create the detector.
    pub fn new() -> Self {
        BuiltinDetector
    }
}

impl Detector for BuiltinDetector {
    fn name(&self) -> &'static str {
        "builtin"
    }

    fn run_once(&self, cfg: Config, program: ProgramFn) -> ToolVerdict {
        let cfg = cfg.with_trace(false);
        let result = Runtime::run(cfg, move || program());
        match result.outcome {
            RunOutcome::GlobalDeadlock { blocked } => ToolVerdict {
                detected: true,
                symptom: Symptom::GlobalDeadlock,
                detail: format!(
                    "fatal error: all goroutines are asleep - deadlock! ({} blocked)",
                    blocked.len()
                ),
            },
            RunOutcome::Panicked { g, msg } => ToolVerdict {
                detected: true,
                symptom: Symptom::Crash,
                detail: format!("panic in {g}: {msg}"),
            },
            RunOutcome::StepLimit => ToolVerdict {
                detected: true,
                symptom: Symptom::Hang,
                detail: "program hung (watchdog)".to_string(),
            },
            RunOutcome::TimedOut { phase, elapsed_ms } => ToolVerdict {
                detected: true,
                symptom: Symptom::Hang,
                detail: format!("program hung (wall-clock watchdog, {phase}, {elapsed_ms} ms)"),
            },
            // An infra failure is the harness's problem, not evidence
            // about the program: no detection.
            RunOutcome::InfraFailure { reason } => ToolVerdict {
                detected: false,
                symptom: Symptom::None,
                detail: format!("infra failure: {reason}"),
            },
            // Unreachable for in-process detector runs, but the outcome
            // taxonomy is shared with the isolated campaign runner.
            RunOutcome::Crashed { forensics } => ToolVerdict {
                detected: true,
                symptom: Symptom::Crash,
                detail: format!("worker crashed: {}", forensics.summary),
            },
            RunOutcome::Completed => ToolVerdict {
                detected: false,
                symptom: Symptom::None,
                // The builtin detector is blind to leaked goroutines.
                detail: "exited successfully".to_string(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use goat_runtime::{go, Chan};
    use std::sync::Arc;

    #[test]
    fn builtin_detects_global_deadlock() {
        let v = BuiltinDetector::new().run_once(
            Config::new(0),
            Arc::new(|| {
                let ch: Chan<u8> = Chan::new(0);
                ch.recv(); // main blocks forever
            }),
        );
        assert!(v.detected);
        assert_eq!(v.symptom, Symptom::GlobalDeadlock);
    }

    #[test]
    fn builtin_misses_partial_deadlock() {
        let v = BuiltinDetector::new().run_once(
            Config::new(0).with_native_preempt_prob(0.0),
            Arc::new(|| {
                let ch: Chan<u8> = Chan::new(0);
                go(move || {
                    ch.recv(); // leaks
                });
                goat_runtime::gosched();
            }),
        );
        assert!(!v.detected, "builtin cannot see leaks: {v:?}");
    }

    #[test]
    fn builtin_reports_crash() {
        let v = BuiltinDetector::new().run_once(
            Config::new(0),
            Arc::new(|| {
                let ch: Chan<u8> = Chan::new(0);
                ch.close();
                ch.send(1);
            }),
        );
        assert!(v.detected);
        assert_eq!(v.symptom, Symptom::Crash);
    }
}
