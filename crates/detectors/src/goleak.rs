//! goleak: Uber's end-of-main goroutine leak checker.
//!
//! The real tool snapshots the goroutine stack at the end of `main` (with
//! a short retry loop so goroutines that are *about to* finish do not
//! count) and reports every remaining application goroutine as a leak.
//! The runtime's grace-drain semantics model the retry loop: only
//! goroutines that are genuinely blocked remain alive by the time a run
//! is decided [`RunOutcome::Completed`], and its
//! [`goat_runtime::RunResult::alive_at_end`] lists them.
//!
//! goleak cannot run at all when `main` itself never finishes — a global
//! deadlock shows up as a hang/timeout, not a goleak report, which is why
//! its Table IV column mixes `PDL` with `TO/GDL` entries.

use crate::verdict::{Detector, ProgramFn, Symptom, ToolVerdict};
use goat_runtime::{AliveGoroutine, Config, RunOutcome, Runtime};

/// The goleak baseline detector.
#[derive(Debug, Clone, Copy, Default)]
pub struct GoleakDetector;

impl GoleakDetector {
    /// Create the detector.
    pub fn new() -> Self {
        GoleakDetector
    }

    /// Run once, returning the verdict and the leaked goroutines seen at
    /// the end of main (if main finished).
    pub fn run_once_with_leaks(
        &self,
        cfg: Config,
        program: ProgramFn,
    ) -> (ToolVerdict, Option<Vec<AliveGoroutine>>) {
        let result = Runtime::run(cfg.with_trace(false), move || program());
        let leaks = result.outcome.is_completed().then_some(result.alive_at_end);
        let verdict = match result.outcome {
            RunOutcome::Completed => match &leaks {
                Some(l) if !l.is_empty() => ToolVerdict {
                    detected: true,
                    symptom: Symptom::PartialDeadlock { leaked: l.len() },
                    detail: format!(
                        "found unexpected goroutines: {}",
                        l.iter()
                            .map(|a| format!("{} [{}] ({})", a.g, a.name, a.state))
                            .collect::<Vec<_>>()
                            .join(", ")
                    ),
                },
                _ => ToolVerdict::clean(),
            },
            // main never finished: goleak's check never ran; the user
            // sees a hang (reported as TO/GDL in Table IV).
            RunOutcome::GlobalDeadlock { .. } => ToolVerdict {
                detected: true,
                symptom: Symptom::GlobalDeadlock,
                detail: "main never finished (TO/GDL)".to_string(),
            },
            RunOutcome::StepLimit | RunOutcome::TimedOut { .. } => ToolVerdict {
                detected: true,
                symptom: Symptom::Hang,
                detail: "main never finished (hang)".to_string(),
            },
            RunOutcome::InfraFailure { reason } => ToolVerdict {
                detected: false,
                symptom: Symptom::None,
                detail: format!("infra failure: {reason}"),
            },
            RunOutcome::Panicked { g, msg } => ToolVerdict {
                detected: true,
                symptom: Symptom::Crash,
                detail: format!("panic in {g}: {msg}"),
            },
            // Unreachable for in-process detector runs, but the outcome
            // taxonomy is shared with the isolated campaign runner.
            RunOutcome::Crashed { forensics } => ToolVerdict {
                detected: true,
                symptom: Symptom::Crash,
                detail: format!("worker crashed: {}", forensics.summary),
            },
        };
        (verdict, leaks)
    }
}

impl Detector for GoleakDetector {
    fn name(&self) -> &'static str {
        "goleak"
    }

    fn run_once(&self, cfg: Config, program: ProgramFn) -> ToolVerdict {
        self.run_once_with_leaks(cfg, program).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use goat_runtime::{go_named, gosched, Chan, WaitGroup};
    use std::sync::Arc;

    #[test]
    fn reports_leaked_goroutine_with_name() {
        let (v, leaks) = GoleakDetector::new().run_once_with_leaks(
            Config::new(0).with_native_preempt_prob(0.0),
            Arc::new(|| {
                let ch: Chan<u8> = Chan::new(0);
                go_named("stuck-receiver", move || {
                    ch.recv();
                });
                gosched();
            }),
        );
        assert!(v.detected);
        assert_eq!(v.symptom, Symptom::PartialDeadlock { leaked: 1 });
        let leaks = leaks.unwrap();
        assert_eq!(leaks[0].name, "stuck-receiver");
    }

    #[test]
    fn clean_program_reports_nothing() {
        let v = GoleakDetector::new().run_once(
            Config::new(0),
            Arc::new(|| {
                let wg = WaitGroup::new();
                wg.add(1);
                let wg2 = wg.clone();
                go_named("worker", move || wg2.done());
                wg.wait();
            }),
        );
        assert!(!v.detected, "{v:?}");
    }

    #[test]
    fn global_deadlock_prevents_goleak_from_running() {
        let (v, leaks) = GoleakDetector::new().run_once_with_leaks(
            Config::new(0),
            Arc::new(|| {
                let ch: Chan<u8> = Chan::new(0);
                ch.recv(); // main blocks forever
            }),
        );
        assert!(leaks.is_none(), "the end-of-main check never ran");
        assert!(v.detected);
        assert_eq!(v.symptom, Symptom::GlobalDeadlock);
    }

    #[test]
    fn counts_multiple_leaks() {
        let (v, _) = GoleakDetector::new().run_once_with_leaks(
            Config::new(0).with_native_preempt_prob(0.0),
            Arc::new(|| {
                let ch: Chan<u8> = Chan::new(0);
                for i in 0..3 {
                    let rx = ch.clone();
                    go_named(&format!("leak{i}"), move || {
                        rx.recv();
                    });
                }
                gosched();
            }),
        );
        assert_eq!(v.symptom, Symptom::PartialDeadlock { leaked: 3 });
    }
}
