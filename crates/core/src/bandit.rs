//! Coverage-guided arm selection: a deterministic epsilon-greedy bandit
//! over a small grid of (strategy, yield_prob, delay_bound) exploration
//! configurations.
//!
//! The campaign runner computes a coverage delta (newly covered
//! requirement bits vs. the campaign-global [`goat_model::CoverageSet`])
//! for every merged iteration; guided mode feeds that delta back as the
//! reward of the *arm* (exploration configuration) the iteration ran
//! under, and picks each iteration's arm epsilon-greedily over the
//! rewards seen so far.
//!
//! ## Determinism, including with many workers
//!
//! Guided campaigns must stay byte-identical run-to-run *and*
//! sequential-vs-parallel. Two design rules make the selection a pure
//! function of `(campaign seed, iteration index, merged rewards)`:
//!
//! 1. **Stateless exploration randomness.** The epsilon draw and the
//!    explore-arm draw for iteration `i` come from a throwaway RNG
//!    seeded from `hash(seed0, i)` — no RNG state threads between
//!    iterations, so selection order doesn't matter and nothing needs
//!    persisting for checkpoint/resume.
//! 2. **Fixed feedback lag.** The greedy statistics for iteration `i`
//!    use exactly the rewards of iterations `0 ..= i − LAG` — never
//!    "whatever has merged by now". The campaign engine caps its
//!    claim window at [`GUIDED_LAG`], which guarantees those rewards
//!    are merged before `i` can be claimed; a worker that is *further*
//!    ahead of the merge point simply ignores the extra rewards, so
//!    every worker computes the identical arm for every iteration.
//!
//! Re-deriving instead of remembering: because selection is pure, the
//! merge loop recomputes `select(i)` when attributing iteration `i`'s
//! reward rather than plumbing the worker's choice through the result
//! channel — the two calls agree by construction.

use goat_runtime::StrategyKind;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Feedback lag `L`: the greedy statistics for iteration `i` see the
/// rewards of iterations `0 ..= i − L` only. Also the parallel claim
/// window in guided mode, which is what makes the lag a guarantee
/// rather than a race.
pub const GUIDED_LAG: usize = 8;

/// Exploration rate of the epsilon-greedy selection.
pub const GUIDED_EPSILON: f64 = 0.2;

/// One exploration configuration the bandit can schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arm {
    /// Scheduling strategy for the iteration.
    pub strategy: StrategyKind,
    /// Per-CU yield probability (ignored by the PCT strategy).
    pub yield_prob: f64,
    /// Delay bound `D` (ignored by the PCT strategy).
    pub delay_bound: u32,
}

/// The reward one merged iteration produced, attributed to its arm.
/// Persisted in checkpoints so a resumed guided campaign rebuilds the
/// exact bandit statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct GuidedReward {
    /// Index into the arm grid.
    pub arm: usize,
    /// Newly covered requirements this iteration contributed.
    pub delta: u64,
    /// The iteration's verdict was a bug.
    pub bug: bool,
}

/// Per-arm totals for the report and telemetry.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ArmReport {
    /// Strategy spec (`native`, `random`, `pct:<d>:<k>`).
    pub strategy: String,
    /// The arm's yield probability.
    pub yield_prob: f64,
    /// The arm's delay bound.
    pub delay_bound: u32,
    /// Iterations that ran under this arm.
    pub pulls: u64,
    /// Newly covered requirements attributed to this arm.
    pub new_coverage: u64,
    /// Bug verdicts attributed to this arm.
    pub bugs: u64,
}

/// Guided-mode block of the campaign summary: how the budget was spent
/// across arms. Fully deterministic (no wall-clock), so it is pinned by
/// the guided report golden.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct GuidedSummary {
    /// Exploration rate used.
    pub epsilon: f64,
    /// Feedback lag used.
    pub lag: usize,
    /// Per-arm totals, in arm-grid order.
    pub arms: Vec<ArmReport>,
}

/// The deterministic epsilon-greedy bandit of one guided campaign.
#[derive(Debug)]
pub struct Bandit {
    arms: Vec<Arm>,
    seed0: u64,
    /// Reward of iteration `i` at index `i` — dense, appended in strict
    /// iteration order by the merge loop.
    rewards: Vec<GuidedReward>,
}

impl Bandit {
    /// Build the arm grid around a campaign's base configuration:
    /// the configured baseline, two native perturbation variants, the
    /// uniform-random scheduler, and two PCT depths.
    pub fn new(seed0: u64, base_strategy: StrategyKind, base_delay_bound: u32) -> Self {
        let d = base_delay_bound;
        let arms = vec![
            Arm { strategy: base_strategy, yield_prob: 0.5, delay_bound: d },
            Arm { strategy: StrategyKind::Native, yield_prob: 0.9, delay_bound: d.max(2) },
            Arm { strategy: StrategyKind::Native, yield_prob: 0.25, delay_bound: d.max(4) },
            Arm { strategy: StrategyKind::Random, yield_prob: 0.5, delay_bound: d },
            Arm {
                strategy: StrategyKind::Pct { depth: 3, length: 256 },
                yield_prob: 0.0,
                delay_bound: 0,
            },
            Arm {
                strategy: StrategyKind::Pct { depth: 8, length: 1024 },
                yield_prob: 0.0,
                delay_bound: 0,
            },
        ];
        Bandit { arms, seed0, rewards: Vec::new() }
    }

    /// The arm grid.
    pub fn arms(&self) -> &[Arm] {
        &self.arms
    }

    /// The recorded rewards (for checkpointing).
    pub fn rewards(&self) -> &[GuidedReward] {
        &self.rewards
    }

    /// Adopt checkpointed rewards (resume).
    pub fn restore(&mut self, rewards: Vec<GuidedReward>) {
        self.rewards = rewards;
    }

    /// Choose the arm for iteration `i` — a pure function of
    /// `(seed0, i)` and the rewards of iterations `0 ..= i − LAG`,
    /// which the claim-window cap guarantees are already recorded.
    pub fn select(&self, i: usize) -> usize {
        let n = self.arms.len();
        let avail = (i + 1).saturating_sub(GUIDED_LAG);
        assert!(
            self.rewards.len() >= avail,
            "guided lag violated: iteration {i} selected with {} rewards (need {avail})",
            self.rewards.len()
        );
        // Stateless per-iteration randomness: selection-call order and
        // checkpoint boundaries cannot perturb it.
        let mut rng = SmallRng::seed_from_u64(
            self.seed0 ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x4755_4944_4544_u64,
        );
        if rng.gen_bool(GUIDED_EPSILON) {
            return rng.gen_range(0..n);
        }
        let mut pulls = vec![0u64; n];
        let mut gains = vec![0u64; n];
        for r in &self.rewards[..avail] {
            pulls[r.arm] += 1;
            gains[r.arm] += r.delta;
        }
        // Cold start: pull unpulled arms in grid order before going
        // greedy, so every arm gets a baseline estimate.
        if let Some(j) = (0..n).find(|&j| pulls[j] == 0) {
            return j;
        }
        let mut best = 0usize;
        let mut best_mean = gains[0] as f64 / pulls[0] as f64;
        for (j, (&g, &p)) in gains.iter().zip(pulls.iter()).enumerate().skip(1) {
            let mean = g as f64 / p as f64;
            // Strict '>' breaks ties toward the lowest arm index.
            if mean > best_mean {
                best = j;
                best_mean = mean;
            }
        }
        best
    }

    /// Record iteration `i`'s reward; must arrive in strict iteration
    /// order (the merge loop's order).
    pub fn record(&mut self, i: usize, arm: usize, delta: u64, bug: bool) {
        assert_eq!(i, self.rewards.len(), "guided rewards must merge in iteration order");
        self.rewards.push(GuidedReward { arm, delta, bug });
    }

    /// Fold the recorded rewards into the per-arm report block.
    pub fn summary(&self) -> GuidedSummary {
        let mut arms: Vec<ArmReport> = self
            .arms
            .iter()
            .map(|a| ArmReport {
                strategy: a.strategy.to_string(),
                yield_prob: a.yield_prob,
                delay_bound: a.delay_bound,
                pulls: 0,
                new_coverage: 0,
                bugs: 0,
            })
            .collect();
        for r in &self.rewards {
            let a = &mut arms[r.arm];
            a.pulls += 1;
            a.new_coverage += r.delta;
            a.bugs += u64::from(r.bug);
        }
        GuidedSummary { epsilon: GUIDED_EPSILON, lag: GUIDED_LAG, arms }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selection_is_pure_in_the_lagged_prefix() {
        let mut a = Bandit::new(11, StrategyKind::Native, 2);
        let mut b = Bandit::new(11, StrategyKind::Native, 2);
        // Same lagged prefix, different tails: selections must agree as
        // long as iterations stay within LAG of the shorter history.
        for i in 0..GUIDED_LAG {
            let arm = a.select(i);
            assert_eq!(arm, b.select(i));
            a.record(i, arm, (i % 3) as u64, false);
            b.record(i, arm, (i % 3) as u64, false);
        }
        // `a` merges further ahead than `b` — the extra rewards must not
        // influence selections whose lagged window precedes them.
        let i = GUIDED_LAG;
        let arm = a.select(i);
        a.record(i, arm, 7, false);
        assert_eq!(a.select(i + 1), {
            let arm_b = b.select(i);
            b.record(i, arm_b, 7, false);
            b.select(i + 1)
        });
    }

    #[test]
    fn cold_start_cycles_unpulled_arms_when_not_exploring() {
        let mut bandit = Bandit::new(3, StrategyKind::Native, 0);
        let n = bandit.arms().len();
        // Selections must stay a pure function of the index and stay in
        // range; rewards are recorded as the merge loop would, keeping
        // the lag invariant satisfied along the way.
        for i in 0..32 {
            let arm = bandit.select(i);
            assert_eq!(arm, bandit.select(i));
            assert!(arm < n);
            bandit.record(i, arm, 0, false);
        }
    }

    #[test]
    fn greedy_prefers_the_rewarding_arm() {
        let mut bandit = Bandit::new(5, StrategyKind::Native, 0);
        let n = bandit.arms().len();
        // Arm 2 pays out, everything else is dry.
        for i in 0..n {
            bandit.record(i, i, if i == 2 { 50 } else { 0 }, false);
        }
        let mut greedy_hits = 0;
        let mut total = 0;
        for i in n..n + 100 {
            let arm = bandit.select(i);
            total += 1;
            if arm == 2 {
                greedy_hits += 1;
            }
            // Keep the reward history dense (the merge loop always
            // does); arm 2 stays the only arm with positive mean.
            bandit.record(i, arm, if arm == 2 { 50 } else { 0 }, false);
        }
        assert!(
            greedy_hits * 100 / total >= 60,
            "greedy selections should favor the paying arm: {greedy_hits}/{total}"
        );
    }

    #[test]
    fn summary_attributes_rewards_per_arm() {
        let mut bandit = Bandit::new(1, StrategyKind::Native, 1);
        bandit.record(0, 0, 5, false);
        bandit.record(1, 2, 3, true);
        bandit.record(2, 0, 0, false);
        let s = bandit.summary();
        assert_eq!(s.arms[0].pulls, 2);
        assert_eq!(s.arms[0].new_coverage, 5);
        assert_eq!(s.arms[2].bugs, 1);
        assert_eq!(s.arms.iter().map(|a| a.pulls).sum::<u64>(), 3);
    }
}
