//! # goat-core — the GoAT tool
//!
//! GoAT (Go Analysis and Testing) combines static and dynamic analysis
//! to debug blocking bugs in Go-style concurrent programs:
//!
//! 1. **Static analysis** — a source scan builds the CU model `M`
//!    ([`Goat::static_model`], backed by `goat-model`).
//! 2. **Instrumented execution** — the `goat-runtime` executes the
//!    program with tracing on and yield handlers (bounded by `D`) in
//!    front of every CU.
//! 3. **Offline analysis** — the ECT is turned into a goroutine tree;
//!    [`deadlock_check`] (Procedure 1) classifies the run, and
//!    [`extract_coverage`] marks covered requirements.
//! 4. **Campaign loop** — [`Goat::test`] iterates executions with fresh
//!    seeds until the bug is exposed or the budget/threshold is reached,
//!    accumulating a [`GlobalGTree`] and a coverage percentage.
//!
//! ```
//! use goat_core::{Goat, GoatConfig, FnProgram, GoatVerdict};
//! use goat_runtime::{go, Chan};
//! use std::sync::Arc;
//!
//! // A program that leaks a goroutine: the receiver is never unblocked.
//! let program = Arc::new(FnProgram::new("leak-demo", || {
//!     let ch: Chan<u8> = Chan::new(0);
//!     go(move || {
//!         ch.recv(); // blocks forever
//!     });
//!     goat_runtime::gosched();
//! }));
//!
//! let goat = Goat::new(GoatConfig::default().with_iterations(10));
//! let result = goat.test(program);
//! assert!(result.detected());
//! assert!(matches!(result.bug, Some(GoatVerdict::PartialDeadlock { .. })));
//! ```

#![warn(missing_docs)]

mod analysis;
/// Coverage-guided arm selection (deterministic epsilon-greedy bandit).
pub mod bandit;
/// Campaign checkpoint/resume (`GOAT_CHECKPOINT`) persistence.
pub mod checkpoint;
/// Coverage extraction (fused-plane wrapper plus the retained
/// [`coverage::reference`] multi-pass extractor).
pub mod coverage;
mod globaltree;
mod instrument;
/// Out-of-process run isolation (`GOAT_ISOLATE=proc`): worker sandbox,
/// crash forensics, and resource jails.
pub mod isolate;
/// The fused single-pass analysis data plane.
pub mod plane;
mod program;
mod report;
/// Root-cause analysis: schedule-divergence diagnosis between failing
/// and passing executions.
pub mod rootcause;
mod runner;
/// The campaign engine behind both [`Goat::test`] and [`run_suite`]:
/// cross-kernel work stealing, warm shared resources, and adaptive
/// budget reallocation (`-target all`).
pub mod suite;
/// Binary frame codec for the process-isolation worker wire.
pub mod wire;

pub use analysis::{analyze_run, analyze_run_with, crosscheck, deadlock_check, GoatVerdict};
pub use bandit::{Arm, ArmReport, Bandit, GuidedReward, GuidedSummary, GUIDED_EPSILON, GUIDED_LAG};
pub use checkpoint::{CampaignCheckpoint, CHECKPOINT_ENV};
pub use coverage::{extract_coverage, extract_sync_pairs, RunCoverage};
pub use globaltree::{GlobalGTree, GlobalNode};
pub use isolate::{serve_worker, IsolateMode};
pub use plane::{EctBuffers, TraceAnalysis};
pub use program::{program_fn, FnProgram, Program};
pub use report::{
    bug_report, campaign_report, coverage_table, goroutine_tree_dot, interleaving_lanes,
    uncovered_report,
};
pub use rootcause::{diagnose, find_divergence, root_cause_report, Divergence};
pub use runner::{
    CampaignResult, CampaignSummary, CampaignTelemetry, Goat, GoatConfig, GoatTool,
    IterationRecord, MemoMode,
};
pub use suite::{per_kernel_checkpoint, run_suite, SuiteConfig, SuiteManifest, SuiteStats};
