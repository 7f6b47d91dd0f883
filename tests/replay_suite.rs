//! Suite-wide replay validation of the paper's claim that "by replaying
//! the program's ECT, GOAT detects all blocking bugs of GoKer": for
//! every kernel whose bug a campaign exposes, the recorded schedule must
//! re-trigger the *same* verdict deterministically, under a different
//! seed, as many times as desired.

use goat::core::{Goat, GoatConfig, Program};
use goat::goker::{all_kernels, BugKernel};
use goat::runtime::StrategyKind;
use std::sync::Arc;

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

#[test]
fn every_exposed_bug_replays_deterministically() {
    let mut replayed = 0usize;
    let mut failures = Vec::new();
    for kernel in all_kernels() {
        // Find the bug with whichever variant works fastest. The budget
        // is clamped against the watchdog (GOAT_ITER_TIMEOUT_MS) so a
        // tight one cannot turn the search into minutes of timed-out
        // iterations.
        let budget = kernel.rarity.clamped_iteration_budget(GoatConfig::default().iter_timeout_ms);
        let mut exposed = None;
        for d in [0u32, 2, 3, 4] {
            // Exposure budgets are calibrated against native
            // scheduling; pin it so the PCT CI leg (GOAT_STRATEGY=pct)
            // doesn't re-calibrate the search.
            let goat = Goat::new(
                GoatConfig::default()
                    .with_delay_bound(d)
                    .with_iterations(budget)
                    .with_seed0(1u64.wrapping_add(salt(kernel.name)))
                    .with_strategy(StrategyKind::Native)
                    .with_guided(false),
            );
            let result = goat.test(Arc::new(KernelProgram(kernel)));
            if let (Some(bug), Some(schedule)) = (result.bug, result.bug_schedule) {
                exposed = Some((bug, schedule));
                break;
            }
        }
        let Some((bug, schedule)) = exposed else {
            failures.push(format!("{}: never exposed", kernel.name));
            continue;
        };
        // Replay twice: identical verdict both times, no divergence.
        for round in 0..2 {
            let (verdict, run) = Goat::replay(Arc::new(KernelProgram(kernel)), schedule.clone());
            if run.replay_diverged {
                failures.push(format!("{}: replay diverged (round {round})", kernel.name));
                break;
            }
            if verdict != bug {
                failures.push(format!(
                    "{}: replay produced {verdict} instead of {bug} (round {round})",
                    kernel.name
                ));
                break;
            }
        }
        replayed += 1;
    }
    assert!(failures.is_empty(), "replay failures:\n{}", failures.join("\n"));
    assert_eq!(replayed, 68, "all 68 bugs exposed and replayed");
}
