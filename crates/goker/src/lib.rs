//! # goat-goker — the blocking-bug benchmark
//!
//! GoBench's **GoKer** suite distils real concurrency bugs from the top
//! nine open-source Go projects into minimal *bug kernels*. The GoAT
//! paper evaluates on its 68 *blocking* kernels (deadlocks and goroutine
//! leaks). This crate re-creates those 68 kernels against the
//! `goat-runtime` substrate.
//!
//! Each kernel preserves, from the original bug report:
//!
//! * the **cause class** — resource deadlock (mutex/RWMutex), channel
//!   communication deadlock, or mixed (channel + lock);
//! * the **symptom** — goroutine leak (partial deadlock), global
//!   deadlock, or crash;
//! * the **rarity class** — whether the bug fires on essentially every
//!   native run or needs a rare preemption window (the property GoAT's
//!   yield injection accelerates).
//!
//! The kernels are *re-creations that preserve the documented bug
//! pattern*, not line-by-line ports: GoKer's kernels carry project
//! plumbing that is irrelevant to scheduling behaviour; what matters for
//! reproducing the paper's evaluation is which primitives interact and
//! how narrow the buggy window is (see `DESIGN.md`, substitution table).
//!
//! ```
//! use goat_goker::{all_kernels, by_name};
//! assert_eq!(all_kernels().len(), 68);
//! let k = by_name("moby28462").expect("the paper's running example");
//! assert_eq!(k.project.to_string(), "moby");
//! ```

#![warn(missing_docs)]

pub mod fixed;
mod kernels;

use goat_core::Program;
use std::fmt;
use std::path::PathBuf;

/// The open-source project a kernel was distilled from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)]
pub enum Project {
    Cockroach,
    Etcd,
    Grpc,
    Hugo,
    Istio,
    Kubernetes,
    Moby,
    Serving,
    Syncthing,
}

impl Project {
    /// All projects in benchmark order.
    pub const ALL: [Project; 9] = [
        Project::Cockroach,
        Project::Etcd,
        Project::Grpc,
        Project::Hugo,
        Project::Istio,
        Project::Kubernetes,
        Project::Moby,
        Project::Serving,
        Project::Syncthing,
    ];
}

impl fmt::Display for Project {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Project::Cockroach => "cockroach",
            Project::Etcd => "etcd",
            Project::Grpc => "grpc",
            Project::Hugo => "hugo",
            Project::Istio => "istio",
            Project::Kubernetes => "kubernetes",
            Project::Moby => "moby",
            Project::Serving => "serving",
            Project::Syncthing => "syncthing",
        };
        f.write_str(s)
    }
}

/// The root cause class, following the Go bug taxonomy the paper cites.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BugCause {
    /// Circular wait on mutexes / RWMutexes / wait-groups / cond vars.
    Resource,
    /// Misused channel operations (missing sender/receiver/close).
    Communication,
    /// A cycle through both a lock and a channel (listing 1's class).
    Mixed,
}

impl fmt::Display for BugCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BugCause::Resource => "resource",
            BugCause::Communication => "communication",
            BugCause::Mixed => "mixed",
        })
    }
}

/// The symptom the bug produces when it manifests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExpectedSymptom {
    /// Goroutines leak while main exits (partial deadlock).
    Leak,
    /// The whole program deadlocks (main blocked too).
    GlobalDeadlock,
    /// Either, depending on the interleaving.
    LeakOrGlobal,
    /// The program panics (e.g. send on closed channel).
    Crash,
}

/// How often the bug manifests under native (unperturbed) scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rarity {
    /// Fires on (nearly) every native execution.
    Common,
    /// Needs a preemption in a moderately wide window; a handful of
    /// native runs usually suffices.
    Uncommon,
    /// Needs a preemption in a narrow window: tens to hundreds of
    /// native runs, but few with yield injection.
    Rare,
    /// Needs coinciding rare events; essentially undetectable natively
    /// within 1000 runs — the kernels only schedule perturbation finds.
    VeryRare,
}

impl Rarity {
    /// The canonical per-kernel iteration budget for suite-style testing:
    /// enough yield-injection (D > 0) schedules to expose every kernel of
    /// the class with margin, without burning time on the easy ones. This
    /// is the single table both the exposure and replay suites draw from.
    pub fn iteration_budget(self) -> usize {
        match self {
            Rarity::Common => 10,
            Rarity::Uncommon => 120,
            Rarity::Rare => 400,
            Rarity::VeryRare => 800,
        }
    }

    /// [`iteration_budget`] clamped against the per-iteration watchdog
    /// `iter_timeout_ms` (a campaign's `GoatConfig::iter_timeout_ms`).
    ///
    /// Under a watchdog, every iteration may legally burn up to that
    /// much wall clock before the watchdog reclaims it, so a suite that
    /// schedules `budget` iterations commits to up to `budget × timeout`
    /// per kernel in the worst case. This caps the schedule so one
    /// pathological kernel cannot stall a suite for more than ~60 s of
    /// watchdog-bounded iterations, while never clamping below 10
    /// iterations (enough for the Common class) and never above the
    /// nominal budget. Without a watchdog (`None` or `Some(0)`) this is
    /// exactly [`iteration_budget`].
    ///
    /// [`iteration_budget`]: Rarity::iteration_budget
    pub fn clamped_iteration_budget(self, iter_timeout_ms: Option<u64>) -> usize {
        const SUITE_KERNEL_WALL_BUDGET_MS: u64 = 60_000;
        let budget = self.iteration_budget();
        match iter_timeout_ms.filter(|&ms| ms > 0) {
            Some(ms) => budget.min((SUITE_KERNEL_WALL_BUDGET_MS / ms).max(10) as usize),
            None => budget,
        }
    }
}

/// One GoKer-style blocking bug kernel.
pub struct BugKernel {
    /// Kernel name, `<project><issue>` (e.g. `moby28462`).
    pub name: &'static str,
    /// Source project.
    pub project: Project,
    /// Root cause class.
    pub cause: BugCause,
    /// Symptom when the bug manifests.
    pub expected: ExpectedSymptom,
    /// Native-manifestation rarity class.
    pub rarity: Rarity,
    /// What goes wrong, in one paragraph.
    pub description: &'static str,
    /// The kernel's main function.
    pub main: fn(),
    /// Source file containing the kernel (for the static CU scanner).
    pub source_file: &'static str,
}

impl fmt::Debug for BugKernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BugKernel")
            .field("name", &self.name)
            .field("project", &self.project)
            .field("cause", &self.cause)
            .field("expected", &self.expected)
            .field("rarity", &self.rarity)
            .finish_non_exhaustive()
    }
}

impl Program for BugKernel {
    fn name(&self) -> &str {
        self.name
    }

    fn main(&self) {
        (self.main)()
    }

    fn sources(&self) -> Vec<PathBuf> {
        vec![PathBuf::from(self.source_file)]
    }
}

/// All 68 blocking bug kernels, in benchmark order.
pub fn all_kernels() -> Vec<&'static BugKernel> {
    kernels::all().to_vec()
}

/// Look up a kernel by name.
pub fn by_name(name: &str) -> Option<&'static BugKernel> {
    kernels::all().iter().copied().find(|k| k.name == name)
}

/// Kernels of one project.
pub fn by_project(project: Project) -> Vec<&'static BugKernel> {
    kernels::all().iter().copied().filter(|k| k.project == project).collect()
}

/// Aggregate composition of the benchmark, for reports and sanity checks.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SuiteStats {
    /// Kernels per project, in [`Project::ALL`] order.
    pub per_project: Vec<(Project, usize)>,
    /// Kernels per cause class `(resource, communication, mixed)`.
    pub per_cause: (usize, usize, usize),
    /// Kernels per rarity `(common, uncommon, rare, very_rare)`.
    pub per_rarity: (usize, usize, usize, usize),
    /// Kernels per expected symptom `(leak, global, leak_or_global, crash)`.
    pub per_symptom: (usize, usize, usize, usize),
}

/// Compute the benchmark's composition.
pub fn suite_stats() -> SuiteStats {
    let mut stats = SuiteStats {
        per_project: Project::ALL.iter().map(|p| (*p, by_project(*p).len())).collect(),
        ..Default::default()
    };
    for k in all_kernels() {
        match k.cause {
            BugCause::Resource => stats.per_cause.0 += 1,
            BugCause::Communication => stats.per_cause.1 += 1,
            BugCause::Mixed => stats.per_cause.2 += 1,
        }
        match k.rarity {
            Rarity::Common => stats.per_rarity.0 += 1,
            Rarity::Uncommon => stats.per_rarity.1 += 1,
            Rarity::Rare => stats.per_rarity.2 += 1,
            Rarity::VeryRare => stats.per_rarity.3 += 1,
        }
        match k.expected {
            ExpectedSymptom::Leak => stats.per_symptom.0 += 1,
            ExpectedSymptom::GlobalDeadlock => stats.per_symptom.1 += 1,
            ExpectedSymptom::LeakOrGlobal => stats.per_symptom.2 += 1,
            ExpectedSymptom::Crash => stats.per_symptom.3 += 1,
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn exactly_68_kernels() {
        assert_eq!(all_kernels().len(), 68);
    }

    #[test]
    fn names_are_unique_and_project_prefixed() {
        let mut seen = BTreeSet::new();
        for k in all_kernels() {
            assert!(seen.insert(k.name), "duplicate kernel {}", k.name);
            assert!(
                k.name.starts_with(&k.project.to_string()),
                "{} should be prefixed with {}",
                k.name,
                k.project
            );
            assert!(!k.description.is_empty());
        }
    }

    #[test]
    fn per_project_counts() {
        let count = |p| by_project(p).len();
        assert_eq!(count(Project::Cockroach), 18);
        assert_eq!(count(Project::Etcd), 7);
        assert_eq!(count(Project::Grpc), 7);
        assert_eq!(count(Project::Hugo), 2);
        assert_eq!(count(Project::Istio), 3);
        assert_eq!(count(Project::Kubernetes), 13);
        assert_eq!(count(Project::Moby), 12);
        assert_eq!(count(Project::Serving), 4);
        assert_eq!(count(Project::Syncthing), 2);
    }

    #[test]
    fn all_cause_classes_represented() {
        let causes: BTreeSet<String> = all_kernels().iter().map(|k| k.cause.to_string()).collect();
        assert_eq!(causes.len(), 3);
    }

    #[test]
    fn lookup_by_name() {
        assert!(by_name("moby28462").is_some());
        assert!(by_name("nonexistent999").is_none());
    }

    #[test]
    fn clamped_budget_bounds_suite_wall_clock() {
        for r in [Rarity::Common, Rarity::Uncommon, Rarity::Rare, Rarity::VeryRare] {
            assert_eq!(r.clamped_iteration_budget(None), r.iteration_budget());
        }
        // 500 ms watchdog → 120 iterations fit the 60 s kernel budget:
        // only the classes above that are clamped.
        assert_eq!(Rarity::Common.clamped_iteration_budget(Some(500)), 10);
        assert_eq!(Rarity::Uncommon.clamped_iteration_budget(Some(500)), 120);
        assert_eq!(Rarity::Rare.clamped_iteration_budget(Some(500)), 120);
        assert_eq!(Rarity::VeryRare.clamped_iteration_budget(Some(500)), 120);
        // Even an absurdly slow watchdog never clamps below 10.
        for r in [Rarity::Common, Rarity::Uncommon, Rarity::Rare, Rarity::VeryRare] {
            assert_eq!(r.clamped_iteration_budget(Some(600_000)), 10);
        }
        // A zero watchdog behaves as none.
        assert_eq!(Rarity::VeryRare.clamped_iteration_budget(Some(0)), 800);
    }

    #[test]
    fn suite_composition_matches_the_paper_shape() {
        let stats = suite_stats();
        let total: usize = stats.per_project.iter().map(|(_, n)| n).sum();
        assert_eq!(total, 68);
        let (res, comm, mixed) = stats.per_cause;
        assert_eq!(res + comm + mixed, 68);
        assert!(res >= 10 && comm >= 20 && mixed >= 8, "all cause classes well represented");
        let (common, uncommon, rare, very_rare) = stats.per_rarity;
        assert_eq!(common + uncommon + rare + very_rare, 68);
        // Paper fig. 2: ≈70 % detected on the first native trial.
        assert!(common >= 40, "most bugs manifest natively ({common})");
        assert!(very_rare >= 2, "perturbation-only bugs exist");
        let (leak, gdl, _either, crash) = stats.per_symptom;
        assert!(leak > gdl, "leaks dominate, as in GoKer");
        assert!(gdl >= 10, "builtin-visible global deadlocks exist");
        assert!(crash >= 2, "crash kernels exist");
    }

    #[test]
    fn source_files_exist() {
        for k in all_kernels() {
            assert!(
                std::path::Path::new(k.source_file).exists(),
                "missing source for {}: {}",
                k.name,
                k.source_file
            );
        }
    }
}
