//! Pluggable scheduling strategies (`GOAT_STRATEGY` / `-strategy`).
//!
//! The scheduler's nondeterministic choices — which runnable goroutine
//! receives the run token, and whether the yield handler in front of a
//! CU fires — are delegated to a [`Strategy`] object selected per run.
//! Three strategies exist:
//!
//! * **native** — Go-like FIFO with probability-ε preemption noise and
//!   the paper's delay-bounded yield injection (the default; exactly
//!   the pre-strategy behaviour, byte-for-byte).
//! * **random** — uniform random choice among runnable goroutines at
//!   every handoff: the paper's future-work "take full control over
//!   the scheduler" exploration mode, an ablation against bounded
//!   yield injection.
//! * **pct** — PCT-style priority scheduling (Burckhardt et al.): each
//!   goroutine draws a random priority at spawn, the scheduler always
//!   runs the highest-priority runnable goroutine, and `depth − 1`
//!   priority-change points sampled over the first `length` CU
//!   operations demote the *currently running* goroutine below every
//!   initial priority, forcing a context switch. No budgeted yields and
//!   no ε noise: all schedule diversity comes from the priorities.
//!
//! Every choice a strategy makes is still recorded in the scheduler's
//! decision log, so schedule-forcing replay is strategy-agnostic: a
//! trace produced under any strategy replays byte-identically through
//! [`crate::Config::replay`] without knowing which strategy produced it.

use goat_trace::Gid;
use rand::{Rng, SmallRng};
use std::collections::VecDeque;
use std::fmt;

/// Default PCT depth `d` (number of priority bands below which change
/// points demote; `d − 1` change points are sampled).
pub const PCT_DEFAULT_DEPTH: u32 = 3;
/// Default PCT length `k` (the operation-count window over which change
/// points are sampled).
pub const PCT_DEFAULT_LENGTH: u32 = 512;

/// Which pluggable scheduling strategy drives a run.
///
/// Parsed from `GOAT_STRATEGY` (`native`, `random`, `pct`,
/// `pct:<depth>`, `pct:<depth>:<length>`); the unset default is
/// [`StrategyKind::Native`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum StrategyKind {
    /// FIFO + ε preemption noise + delay-bounded yield injection.
    #[default]
    Native,
    /// Uniform random pick among runnable goroutines at every handoff.
    Random,
    /// PCT-style random-priority scheduling with `depth − 1` priority
    /// change points over a `length`-operation window.
    Pct {
        /// Priority depth `d`: at most `d − 1` priority changes occur.
        depth: u32,
        /// Operation window `k` over which change points are sampled.
        length: u32,
    },
}

impl StrategyKind {
    /// Parse a strategy spec: `native`, `random`, `pct`,
    /// `pct:<depth>`, or `pct:<depth>:<length>`.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let spec = spec.trim();
        let mut parts = spec.split(':');
        let head = parts.next().unwrap_or("").to_ascii_lowercase();
        match head.as_str() {
            "native" => Ok(StrategyKind::Native),
            "random" => Ok(StrategyKind::Random),
            "pct" => {
                let depth = match parts.next() {
                    None | Some("") => PCT_DEFAULT_DEPTH,
                    Some(d) => d
                        .parse::<u32>()
                        .ok()
                        .filter(|&d| d >= 1)
                        .ok_or_else(|| format!("bad pct depth {d:?} in {spec:?}"))?,
                };
                let length = match parts.next() {
                    None | Some("") => PCT_DEFAULT_LENGTH,
                    Some(l) => l
                        .parse::<u32>()
                        .ok()
                        .filter(|&l| l >= 1)
                        .ok_or_else(|| format!("bad pct length {l:?} in {spec:?}"))?,
                };
                if parts.next().is_some() {
                    return Err(format!("trailing fields in strategy spec {spec:?}"));
                }
                Ok(StrategyKind::Pct { depth, length })
            }
            _ => Err(format!(
                "unknown strategy {spec:?} (expected native, random, or pct[:depth[:length]])"
            )),
        }
    }

    /// Short name without knobs (`native` / `random` / `pct`).
    pub fn name(&self) -> &'static str {
        match self {
            StrategyKind::Native => "native",
            StrategyKind::Random => "random",
            StrategyKind::Pct { .. } => "pct",
        }
    }

    /// Instantiate the per-run strategy state. Native and random build
    /// without consuming RNG draws (preserving byte-identity with the
    /// pre-strategy scheduler); PCT samples its change points here.
    pub(crate) fn build(self, rng: &mut SmallRng) -> Box<dyn Strategy> {
        match self {
            StrategyKind::Native => Box::new(NativeStrategy),
            StrategyKind::Random => Box::new(RandomStrategy),
            StrategyKind::Pct { depth, length } => Box::new(PctStrategy::new(depth, length, rng)),
        }
    }
}

impl fmt::Display for StrategyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StrategyKind::Pct { depth, length } => write!(f, "pct:{depth}:{length}"),
            other => f.write_str(other.name()),
        }
    }
}

/// What the yield handler in front of a CU should do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum YieldChoice {
    /// Yield and consume one unit of the delay budget `D`.
    Inject,
    /// Yield without touching the budget (ε noise / PCT change point).
    Preempt,
    /// Keep running.
    Run,
}

/// Immutable context handed to [`Strategy::decide_yield`].
pub(crate) struct YieldCtx {
    pub delay_bound: u32,
    pub yields_injected: u32,
    pub yield_prob: f64,
    pub native_preempt_prob: f64,
    pub runq_nonempty: bool,
}

/// A pluggable scheduling strategy: owns all per-run exploration state
/// (PCT priorities, change points, …) and is consulted at the two
/// nondeterministic points of the scheduler. The scheduler records the
/// resulting decisions in its log, so strategies never see replay.
pub(crate) trait Strategy: Send {
    /// A goroutine was created (main, spawned, or runtime-internal).
    fn on_spawn(&mut self, _g: Gid, _rng: &mut SmallRng) {}

    /// Choose the run-queue index to hand the token to. The bool marks
    /// a deviation from FIFO (feeds the `random_picks` counter).
    /// `runq` is non-empty.
    fn pick(&mut self, runq: &VecDeque<Gid>, native_eps: f64, rng: &mut SmallRng) -> (usize, bool);

    /// Should the yield handler fire in front of the CU that goroutine
    /// `g` is about to execute?
    fn decide_yield(&mut self, g: Gid, ctx: &YieldCtx, rng: &mut SmallRng) -> YieldChoice;

    /// Priority changes performed so far (PCT only; 0 elsewhere).
    fn priority_changes(&self) -> u32 {
        0
    }
}

/// Shared budget/ε yield logic of the native and random strategies —
/// draw-for-draw identical to the pre-strategy scheduler.
fn budgeted_yield(ctx: &YieldCtx, rng: &mut SmallRng) -> YieldChoice {
    let inject = ctx.delay_bound > ctx.yields_injected
        && ctx.delay_bound > 0
        && ctx.yield_prob > 0.0
        && rng.gen_bool(ctx.yield_prob);
    if inject {
        YieldChoice::Inject
    } else if ctx.native_preempt_prob > 0.0
        && ctx.runq_nonempty
        && rng.gen_bool(ctx.native_preempt_prob)
    {
        // Go's asynchronous preemption: any call site can lose the
        // processor with small probability ε.
        YieldChoice::Preempt
    } else {
        YieldChoice::Run
    }
}

/// Go-like native scheduling: FIFO with ε preemption noise.
struct NativeStrategy;

impl Strategy for NativeStrategy {
    fn pick(&mut self, runq: &VecDeque<Gid>, native_eps: f64, rng: &mut SmallRng) -> (usize, bool) {
        if runq.len() > 1 && native_eps > 0.0 && rng.gen_bool(native_eps) {
            (rng.gen_range(0..runq.len()), true)
        } else {
            (0, false)
        }
    }

    fn decide_yield(&mut self, _g: Gid, ctx: &YieldCtx, rng: &mut SmallRng) -> YieldChoice {
        budgeted_yield(ctx, rng)
    }
}

/// Uniform random pick at every handoff.
struct RandomStrategy;

impl Strategy for RandomStrategy {
    fn pick(
        &mut self,
        runq: &VecDeque<Gid>,
        _native_eps: f64,
        rng: &mut SmallRng,
    ) -> (usize, bool) {
        if runq.len() > 1 {
            (rng.gen_range(0..runq.len()), true)
        } else {
            (0, false)
        }
    }

    fn decide_yield(&mut self, _g: Gid, ctx: &YieldCtx, rng: &mut SmallRng) -> YieldChoice {
        budgeted_yield(ctx, rng)
    }
}

/// PCT-style priority scheduling.
///
/// Initial priorities are drawn uniformly from a *high band*
/// `[depth, u64::MAX)`; the `i`-th change point demotes the currently
/// running goroutine to priority `depth − 1 − i` (a strictly
/// descending *low band* `< depth`), so a demoted goroutine never runs
/// again while any undemoted goroutine is runnable, and later
/// demotions rank below earlier ones — the classic PCT construction.
/// At most `depth − 1` changes ever occur.
struct PctStrategy {
    depth: u32,
    /// Priority per goroutine, indexed by `gid − 1`.
    priorities: Vec<u64>,
    /// Sorted CU-operation indices at which priority changes fire.
    change_points: Vec<u64>,
    next_change: usize,
    /// CU operations seen so far (the PCT "length" axis).
    ops: u64,
    changes: u32,
}

impl PctStrategy {
    fn new(depth: u32, length: u32, rng: &mut SmallRng) -> Self {
        let depth = depth.max(1);
        let window = length.max(1) as u64;
        let mut change_points: Vec<u64> = (1..depth).map(|_| rng.gen_range(0..window)).collect();
        change_points.sort_unstable();
        PctStrategy {
            depth,
            priorities: Vec::new(),
            change_points,
            next_change: 0,
            ops: 0,
            changes: 0,
        }
    }

    fn prio(&self, g: Gid) -> u64 {
        self.priorities.get((g.0 - 1) as usize).copied().unwrap_or(0)
    }
}

impl Strategy for PctStrategy {
    fn on_spawn(&mut self, g: Gid, rng: &mut SmallRng) {
        let idx = (g.0 - 1) as usize;
        if self.priorities.len() <= idx {
            self.priorities.resize(idx + 1, 0);
        }
        self.priorities[idx] = rng.gen_range(self.depth as u64..u64::MAX / 2);
    }

    fn pick(
        &mut self,
        runq: &VecDeque<Gid>,
        _native_eps: f64,
        _rng: &mut SmallRng,
    ) -> (usize, bool) {
        let mut best = 0usize;
        let mut best_prio = self.prio(runq[0]);
        for (i, g) in runq.iter().enumerate().skip(1) {
            let p = self.prio(*g);
            // Strict '>' keeps ties FIFO (earliest queue position wins).
            if p > best_prio {
                best = i;
                best_prio = p;
            }
        }
        (best, best != 0)
    }

    fn decide_yield(&mut self, g: Gid, _ctx: &YieldCtx, _rng: &mut SmallRng) -> YieldChoice {
        let op = self.ops;
        self.ops += 1;
        if self.next_change < self.change_points.len() && op >= self.change_points[self.next_change]
        {
            self.next_change += 1;
            self.changes += 1;
            // Low band: depth − 1, depth − 2, … — each demotion ranks
            // below every initial priority and every earlier demotion.
            let idx = (g.0 - 1) as usize;
            if self.priorities.len() <= idx {
                self.priorities.resize(idx + 1, 0);
            }
            self.priorities[idx] = (self.depth - self.changes) as u64;
            YieldChoice::Preempt
        } else {
            YieldChoice::Run
        }
    }

    fn priority_changes(&self) -> u32 {
        self.changes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn parse_specs() {
        assert_eq!(StrategyKind::parse("native").unwrap(), StrategyKind::Native);
        assert_eq!(StrategyKind::parse(" RANDOM ").unwrap(), StrategyKind::Random);
        assert_eq!(
            StrategyKind::parse("pct").unwrap(),
            StrategyKind::Pct { depth: PCT_DEFAULT_DEPTH, length: PCT_DEFAULT_LENGTH }
        );
        assert_eq!(
            StrategyKind::parse("pct:7").unwrap(),
            StrategyKind::Pct { depth: 7, length: PCT_DEFAULT_LENGTH }
        );
        assert_eq!(
            StrategyKind::parse("pct:7:99").unwrap(),
            StrategyKind::Pct { depth: 7, length: 99 }
        );
        assert!(StrategyKind::parse("pct:0").is_err());
        assert!(StrategyKind::parse("pct:1:2:3").is_err());
        assert!(StrategyKind::parse("bogus").is_err());
    }

    #[test]
    fn display_round_trips() {
        for spec in ["native", "random", "pct:4:128"] {
            let k = StrategyKind::parse(spec).unwrap();
            assert_eq!(StrategyKind::parse(&k.to_string()).unwrap(), k);
        }
    }

    #[test]
    fn pct_demotions_are_bounded_and_descending() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut s = PctStrategy::new(4, 8, &mut rng);
        for g in 1..=3u64 {
            s.on_spawn(Gid(g), &mut rng);
            assert!(s.prio(Gid(g)) >= 4, "initial priorities live in the high band");
        }
        let ctx = YieldCtx {
            delay_bound: 0,
            yields_injected: 0,
            yield_prob: 0.0,
            native_preempt_prob: 0.0,
            runq_nonempty: true,
        };
        let mut demoted = Vec::new();
        for op in 0..64 {
            let g = Gid(1 + (op % 3));
            if s.decide_yield(g, &ctx, &mut rng) == YieldChoice::Preempt {
                demoted.push(s.prio(g));
            }
        }
        assert!(s.priority_changes() <= 3, "at most depth − 1 changes");
        assert_eq!(demoted.len() as u32, s.priority_changes());
        for w in demoted.windows(2) {
            assert!(w[0] > w[1], "later demotions rank lower: {demoted:?}");
        }
        assert!(demoted.iter().all(|&p| p < 4), "demotions live in the low band");
    }
}
