//! Golden-snapshot guard over the campaign report JSON.
//!
//! Two fixed (kernel, seed) campaigns have their `CampaignSummary` JSON
//! committed byte-for-byte under `tests/snapshots/`. Any schema change —
//! a renamed field, a reordered field, a new always-present field —
//! fails this test and must be made deliberately by re-blessing:
//!
//! ```text
//! GOAT_BLESS=1 cargo test --test report_snapshot
//! ```
//!
//! The snapshots were generated *before* the telemetry layer landed, so
//! they also prove that a telemetry-off run serializes byte-identically
//! to the pre-telemetry output (the optional `telemetry` field must not
//! appear at all when disabled).
//!
//! The CLI's bug report for one of those campaigns is pinned the same
//! way, interleaving listing and coverage report included.

use goat::core::{Goat, GoatConfig, Program};
use goat::goker::{by_name, BugKernel};
use goat::runtime::{faultpoint, StrategyKind};
use std::path::PathBuf;
use std::sync::Arc;

/// A fault plan that can never fire (no pinned campaign uses this
/// seed): both tests hold a scoped-fault guard so the panic injection
/// below can never leak into the healthy campaigns running in a
/// parallel test thread.
const INERT: &str = "iter:panic:seed=999999999";

struct KernelProgram(&'static BugKernel);

impl Program for KernelProgram {
    fn name(&self) -> &str {
        Program::name(self.0)
    }
    fn main(&self) {
        Program::main(self.0)
    }
}

/// The pinned campaigns: name, seed0, delay bound. 20 iterations each,
/// keep-running, sequential — small, fast, and fully deterministic.
const CASES: [(&str, u64, u32); 2] = [("etcd6708", 11, 2), ("moby28462", 17, 2)];

fn snapshot_path(kernel: &str, seed0: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/snapshots")
        .join(format!("{kernel}_s{seed0}.json"))
}

/// The pinned default-mode configuration. The exploration knobs are set
/// explicitly (native strategy, guided off, no saturation window) so the
/// goldens stay byte-identical even when the surrounding environment
/// sets `GOAT_STRATEGY` — as the PCT CI matrix leg does —
/// while still proving that those defaults serialize exactly like the
/// pre-exploration schema (no `saturated`/`guided` fields at all).
fn pinned_config(seed0: u64, delay_bound: u32) -> GoatConfig {
    GoatConfig::default()
        .with_iterations(20)
        .with_seed0(seed0)
        .with_delay_bound(delay_bound)
        .with_parallelism(1)
        .with_strategy(StrategyKind::Native)
        .with_guided(false)
        .with_saturation_window(None)
        .keep_running()
}

fn render(kernel: &'static BugKernel, seed0: u64, delay_bound: u32) -> String {
    let goat = Goat::new(pinned_config(seed0, delay_bound));
    let result = goat.test(Arc::new(KernelProgram(kernel)));
    let mut json = result.to_json_summary().expect("serializable");
    json.push('\n');
    json
}

fn check_or_bless(got: &str, path: &PathBuf, label: &str) {
    if std::env::var("GOAT_BLESS").is_ok() {
        std::fs::write(path, got).expect("write snapshot");
        return;
    }
    let want = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("missing snapshot {}: {e}", path.display()));
    assert_eq!(
        got, want,
        "report for {label} drifted from its committed snapshot; if the change is \
         deliberate, re-bless with GOAT_BLESS=1 cargo test --test report_snapshot"
    );
}

#[test]
fn campaign_report_json_matches_committed_snapshots() {
    let _g = faultpoint::scoped(INERT);
    for (name, seed0, d) in CASES {
        let kernel = by_name(name).expect("pinned kernel exists");
        let got = render(kernel, seed0, d);
        check_or_bless(&got, &snapshot_path(name, seed0), name);
    }
}

/// A campaign whose *first* iteration crashes (an injected kernel panic
/// at seed 11) while the remaining 19 run normally: pins the report
/// schema of a mid-campaign crash — `"bug": "CRASH"` at iteration 1,
/// a full-length iteration series, and no supervision fields (a crash
/// is a recorded verdict, not a quarantine).
#[test]
fn crashed_iteration_campaign_matches_committed_snapshot() {
    let _g = faultpoint::scoped("iter:panic:seed=11");
    let (name, seed0, d) = CASES[0];
    let kernel = by_name(name).expect("pinned kernel exists");
    let got = render(kernel, seed0, d);
    assert!(got.contains("\"bug\": \"CRASH\""), "{got}");
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/snapshots")
        .join(format!("{name}_s{seed0}_crash.json"));
    check_or_bless(&got, &path, "crashed-iteration campaign");
}

/// A guided campaign's summary, pinned byte-for-byte: the bandit's arm
/// selections, the per-arm `guided` block and the iteration series are
/// all deterministic functions of the seed, so the whole JSON is a
/// stable golden. Drift here means the guided selection (or its
/// serialization) changed — which breaks same-seed reproducibility of
/// guided campaigns and must be a deliberate re-bless.
#[test]
fn guided_campaign_report_matches_committed_snapshot() {
    let _g = faultpoint::scoped(INERT);
    let (name, seed0, d) = CASES[0];
    let kernel = by_name(name).expect("pinned kernel exists");
    let goat = Goat::new(pinned_config(seed0, d).with_guided(true));
    let result = goat.test(Arc::new(KernelProgram(kernel)));
    let mut got = result.to_json_summary().expect("serializable");
    got.push('\n');
    assert!(got.contains("\"guided\""), "guided block missing from summary: {got}");
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/snapshots")
        .join(format!("{name}_s{seed0}_guided.json"));
    check_or_bless(&got, &path, "guided campaign");
}

/// The CLI's stdout for a campaign that detects a bug, pinned
/// byte-for-byte. Its interleaving listing shows the tool's own
/// `goat::watcher`/`goat::stopper` goroutines at their `go` statements
/// in `crates/core/src/instrument.rs`, so this golden moves only when
/// the report format, the schedule or that file changes. Every `GOAT_*`
/// variable is cleared: the command alone decides the output.
#[test]
fn cli_bug_report_matches_committed_snapshot() {
    let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_goat"));
    cmd.args(["-target", "etcd6708", "-d", "2", "-freq", "30", "-seed", "11"])
        .args(["-keep-running", "-cov"]);
    for (var, _) in std::env::vars().filter(|(v, _)| v.starts_with("GOAT_")) {
        cmd.env_remove(var);
    }
    let out = cmd.output().expect("run goat");
    assert_eq!(out.status.code(), Some(1), "a detected bug exits 1: {out:?}");
    let got = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/snapshots/etcd6708_s11_cli.txt");
    check_or_bless(&got, &path, "the etcd6708 CLI bug report");
}
