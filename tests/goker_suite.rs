//! Benchmark-level integration test: GoAT (across its delay-bound
//! variants) must expose **every** kernel of the 68-bug blocking suite —
//! the paper's headline result — with the symptom class the original
//! bug reports, and must stay silent on the fixed variants.

use goat::core::{Goat, GoatConfig, GoatVerdict, Program};
use goat::goker::{all_kernels, BugKernel, ExpectedSymptom, Rarity};
use goat::runtime::StrategyKind;
use std::sync::Arc;

/// Suite base config: the rarity labels and iteration budgets in this
/// file are calibrated against *native* scheduling, so the exploration
/// knobs are pinned explicitly — an ambient `GOAT_STRATEGY` (the PCT CI
/// matrix leg) must not re-calibrate the suite.
fn native_config() -> GoatConfig {
    GoatConfig::default()
        .with_strategy(StrategyKind::Native)
        .with_guided(false)
        .with_saturation_window(None)
}

struct KernelProgram(&'static BugKernel);

impl Program for KernelProgram {
    fn name(&self) -> &str {
        Program::name(self.0)
    }
    fn main(&self) {
        Program::main(self.0)
    }
}

fn salt(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Try GOAT D0..D4 in turn; return the first bug verdict plus the delay
/// bound and iteration that exposed it.
fn expose(kernel: &'static BugKernel, budget: usize) -> Option<(u32, usize, GoatVerdict)> {
    for d in 0..=4u32 {
        let goat = Goat::new(
            native_config()
                .with_delay_bound(d)
                .with_iterations(budget)
                .with_seed0(1u64.wrapping_add(salt(kernel.name))),
        );
        let result = goat.test(Arc::new(KernelProgram(kernel)));
        if let (Some(iter), Some(bug)) = (result.first_detection, result.bug) {
            return Some((d, iter, bug));
        }
    }
    None
}

fn symptom_matches(expected: ExpectedSymptom, verdict: &GoatVerdict) -> bool {
    match expected {
        ExpectedSymptom::Leak => matches!(verdict, GoatVerdict::PartialDeadlock { .. }),
        ExpectedSymptom::GlobalDeadlock => {
            matches!(verdict, GoatVerdict::GlobalDeadlock | GoatVerdict::Hang)
        }
        ExpectedSymptom::LeakOrGlobal => matches!(
            verdict,
            GoatVerdict::PartialDeadlock { .. } | GoatVerdict::GlobalDeadlock | GoatVerdict::Hang
        ),
        ExpectedSymptom::Crash => matches!(verdict, GoatVerdict::Crash { .. }),
    }
}

#[test]
fn goat_exposes_all_68_kernels_with_expected_symptoms() {
    let mut failures = Vec::new();
    for kernel in all_kernels() {
        // Clamped: under a tight watchdog (GOAT_ITER_TIMEOUT_MS) every
        // iteration may burn its full allowance, so the raw budget
        // could stall the suite for minutes per kernel.
        let budget = kernel.rarity.clamped_iteration_budget(GoatConfig::default().iter_timeout_ms);
        match expose(kernel, budget) {
            Some((d, iter, verdict)) => {
                if !symptom_matches(kernel.expected, &verdict) {
                    failures.push(format!(
                        "{}: wrong symptom {verdict} (expected {:?}; D{d}, iter {iter})",
                        kernel.name, kernel.expected
                    ));
                }
            }
            None => failures.push(format!("{}: not exposed by any delay bound", kernel.name)),
        }
    }
    assert!(failures.is_empty(), "suite failures:\n{}", failures.join("\n"));
}

#[test]
fn common_kernels_detected_on_first_native_run() {
    for kernel in all_kernels().into_iter().filter(|k| k.rarity == Rarity::Common) {
        let goat = Goat::new(
            native_config().with_iterations(3).with_seed0(1u64.wrapping_add(salt(kernel.name))),
        );
        let result = goat.test(Arc::new(KernelProgram(kernel)));
        assert!(
            matches!(result.first_detection, Some(i) if i <= 3),
            "{} is labelled Common but was not detected within 3 native runs",
            kernel.name
        );
    }
}

#[test]
fn very_rare_kernels_hide_from_native_execution() {
    for kernel in all_kernels().into_iter().filter(|k| k.rarity == Rarity::VeryRare) {
        let goat = Goat::new(
            native_config().with_iterations(100).with_seed0(1u64.wrapping_add(salt(kernel.name))),
        );
        let result = goat.test(Arc::new(KernelProgram(kernel)));
        assert!(
            result.first_detection.is_none(),
            "{} is labelled VeryRare but native D0 found it at iteration {:?}",
            kernel.name,
            result.first_detection
        );
    }
}

#[test]
fn schedule_dependent_kernels_also_pass_on_some_schedule() {
    // Non-deterministic bugs must have clean schedules too — otherwise
    // they would be trivially detectable and their rarity labels wrong.
    for kernel in all_kernels()
        .into_iter()
        .filter(|k| matches!(k.rarity, Rarity::Uncommon | Rarity::Rare | Rarity::VeryRare))
    {
        let mut saw_pass = false;
        for seed in 0..40u64 {
            let goat = Goat::new(native_config().with_iterations(1).with_seed0(seed * 7919 + 13));
            let result = goat.test(Arc::new(KernelProgram(kernel)));
            if !result.detected() {
                saw_pass = true;
                break;
            }
        }
        assert!(
            saw_pass,
            "{} never produced a clean run in 40 schedules; should it be Common?",
            kernel.name
        );
    }
}

#[test]
fn guided_exploration_finds_schedule_dependent_bugs_no_slower_than_random() {
    // The guided leg: over the schedule-dependent (Uncommon) class,
    // guided campaigns must reach first detection within the same
    // budget no slower — in aggregate, with generous slack — than the
    // unguided random-perturbation baseline. Per-kernel comparisons
    // would be noise (a lucky seed dominates a 120-iteration budget);
    // the class-level total is the meaningful signal.
    let class: Vec<&'static BugKernel> =
        all_kernels().into_iter().filter(|k| k.rarity == Rarity::Uncommon).collect();
    assert!(!class.is_empty(), "Uncommon class must be non-empty");
    let budget = Rarity::Uncommon.clamped_iteration_budget(GoatConfig::default().iter_timeout_ms);
    let mut random_total = 0usize;
    let mut guided_total = 0usize;
    let mut random_detected = 0usize;
    let mut guided_detected = 0usize;
    for kernel in &class {
        let seed = 1u64.wrapping_add(salt(kernel.name));
        let base = native_config().with_delay_bound(2).with_iterations(budget).with_seed0(seed);
        let random = Goat::new(base.clone()).test(Arc::new(KernelProgram(kernel)));
        let guided = Goat::new(base.with_guided(true)).test(Arc::new(KernelProgram(kernel)));
        // A miss costs the full budget + 1, so undetected kernels hurt
        // whichever leg missed them.
        random_total += random.first_detection.unwrap_or(budget + 1);
        guided_total += guided.first_detection.unwrap_or(budget + 1);
        random_detected += usize::from(random.detected());
        guided_detected += usize::from(guided.detected());
    }
    assert!(
        guided_detected >= random_detected,
        "guided detections ({guided_detected}) fell below random ({random_detected}) \
         over {} Uncommon kernels",
        class.len()
    );
    // Generous slack: guided pays exploration overhead on easy kernels,
    // so require only that its aggregate time-to-first-detection stays
    // within 1.5× + a small constant of the random baseline.
    assert!(
        guided_total <= random_total * 3 / 2 + 5 * class.len(),
        "guided time-to-first-detection ({guided_total}) regressed past the slack \
         envelope of random ({random_total}) over {} kernels",
        class.len()
    );
}

#[test]
fn fixed_variants_are_never_flagged() {
    for program in goat::goker::fixed::all_fixed() {
        for d in [0u32, 2, 4] {
            let goat = Goat::new(native_config().with_delay_bound(d).with_iterations(40));
            let result = goat.test(Arc::clone(&program));
            assert!(
                !result.detected(),
                "fixed program {} flagged at D{d}: {:?}",
                program.name(),
                result.bug
            );
        }
    }
}
