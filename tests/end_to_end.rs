//! End-to-end pipeline tests spanning every crate: program → runtime →
//! trace → goroutine tree → deadlock verdict → coverage → reports, and
//! the baseline detectors on the same programs.

use goat::core::{
    analyze_run, bug_report, coverage_table, crosscheck, deadlock_check, extract_coverage,
    FnProgram, Goat, GoatConfig, GoatVerdict,
};
use goat::detectors::{BuiltinDetector, Detector, GoleakDetector, LockdlDetector, Symptom};
use goat::model::RequirementUniverse;
use goat::runtime::{go_named, gosched, Chan, Config, Mutex, Runtime, Select, WaitGroup};
use goat::trace::GTree;
use std::sync::Arc;

fn listing1() {
    let mu = Mutex::new();
    let status: Chan<u32> = Chan::new(0);
    {
        let (mu, status) = (mu.clone(), status.clone());
        go_named("Monitor", move || loop {
            let got = Select::new().recv(&status, |v| v).default(|| None).run();
            if got.is_some() {
                return;
            }
            mu.lock();
            mu.unlock();
        });
    }
    {
        let (mu, status) = (mu.clone(), status.clone());
        go_named("StatusChange", move || {
            mu.lock();
            status.send(1);
            mu.unlock();
        });
    }
    goat::runtime::time::sleep(std::time::Duration::from_millis(30));
}

#[test]
fn full_pipeline_on_listing1() {
    // Find a leaking schedule deterministically, then run the whole
    // offline pipeline against its trace.
    let mut found = None;
    for seed in 0..200 {
        let r = Runtime::run(Config::new(seed), listing1);
        crosscheck(&r).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        if matches!(analyze_run(&r), GoatVerdict::PartialDeadlock { .. }) {
            found = Some(r);
            break;
        }
    }
    let r = found.expect("the listing 1 leak manifests within 200 schedules");
    let ect = r.ect.as_ref().expect("traced");
    ect.well_formed().expect("well-formed trace");

    let tree = GTree::from_ect(ect);
    let verdict = deadlock_check(&tree);
    let GoatVerdict::PartialDeadlock { ref leaked } = verdict else {
        panic!("expected a leak, got {verdict}");
    };
    assert_eq!(leaked.len(), 2, "Monitor and StatusChange both leak");

    // The leaked goroutines are blocked on lock and send respectively.
    let mut reasons: Vec<String> =
        leaked.iter().map(|g| format!("{:?}", tree.get(*g).expect("node").last_event)).collect();
    reasons.sort();
    assert!(reasons[0].contains("Sync") || reasons[1].contains("Sync"), "{reasons:?}");
    assert!(reasons[0].contains("Send") || reasons[1].contains("Send"), "{reasons:?}");

    // Coverage extraction and report rendering work on the same trace.
    let mut universe = RequirementUniverse::new();
    let cov = extract_coverage(ect, &mut universe);
    assert!(!cov.covered.is_empty());
    assert!(universe.len() >= cov.covered.len());
    let report = bug_report("listing1", &verdict, ect);
    assert!(report.contains("Monitor"));
    assert!(report.contains("StatusChange"));
    let table = coverage_table(&universe, &cov.covered);
    assert!(table.contains("select"));
}

#[test]
fn detectors_disagree_exactly_as_designed() {
    // A leak invisible to builtin/lockdl but visible to GoAT and goleak.
    let leak = || {
        let ch: Chan<u8> = Chan::new(0);
        go_named("stuck", move || {
            ch.recv();
        });
        gosched();
    };
    let cfg = || Config::new(7).with_native_preempt_prob(0.0);
    let program: goat::detectors::ProgramFn = Arc::new(leak);

    let builtin = BuiltinDetector::new().run_once(cfg(), Arc::clone(&program));
    assert!(!builtin.detected);

    let lockdl = LockdlDetector::new().run_once(cfg(), Arc::clone(&program));
    assert!(!lockdl.detected);

    let goleak = GoleakDetector::new().run_once(cfg(), Arc::clone(&program));
    assert_eq!(goleak.symptom, Symptom::PartialDeadlock { leaked: 1 });

    let goat_tool = goat::core::GoatTool::new(0);
    let gv = goat_tool.run_once(cfg(), program);
    assert_eq!(gv.symptom, Symptom::PartialDeadlock { leaked: 1 });
}

#[test]
fn campaign_stops_at_bug_and_produces_replayable_ect() {
    let program = Arc::new(FnProgram::new("gdl", || {
        let wg = WaitGroup::new();
        wg.add(1);
        wg.wait(); // nobody ever calls done
    }));
    let goat = Goat::new(GoatConfig::default().with_iterations(5));
    let result = goat.test(program);
    assert_eq!(result.first_detection, Some(1));
    assert_eq!(result.bug, Some(GoatVerdict::GlobalDeadlock));
    let ect = result.bug_ect.expect("bug trace kept for reporting");
    assert!(ect.well_formed().is_ok());
    // The trace shows main blocked on the wait group.
    let tree = GTree::from_ect(&ect);
    let main = tree.root().expect("main node");
    assert!(format!("{:?}", main.last_event).contains("WaitGroup"), "{:?}", main.last_event);
}

#[test]
fn static_and_dynamic_cu_models_agree_on_listing1() {
    // Scan this test file statically; run the program dynamically; every
    // dynamically observed CU must be present in the static model.
    let src = std::path::PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/end_to_end.rs"));
    let table = goat::model::scan_sources([&src]).expect("scan");
    let r = Runtime::run(Config::new(3), listing1);
    let ect = r.ect.expect("traced");
    let mut missing = Vec::new();
    for ev in ect.iter() {
        if let Some(cu) = &ev.cu {
            if (ev.kind.is_op_completion()
                || matches!(ev.kind, goat::trace::EventKind::GoCreate { .. }))
                && table.lookup(&cu.file, cu.line, cu.kind).is_none()
            {
                missing.push(*cu);
            }
        }
    }
    assert!(missing.is_empty(), "dynamic CUs missing from static model: {missing:?}");
}

// ---------------------------------------------------------------------
// Process isolation (GOAT_ISOLATE=proc): a dying worker must be
// autopsied into crash forensics, replaced, and survived — one crashing
// seed must never take the campaign down with it.
// ---------------------------------------------------------------------

use goat::core::{IsolateMode, Program};
use goat::runtime::faultpoint;

struct KernelProgram(&'static goat::goker::BugKernel);

impl Program for KernelProgram {
    fn name(&self) -> &str {
        Program::name(self.0)
    }
    fn main(&self) {
        Program::main(self.0)
    }
}

/// Run an isolated campaign whose iteration-1 worker is killed by `sig`
/// through the `worker:kill` fault profile.
fn worker_death_campaign(sig: i32) -> goat::core::CampaignResult {
    let kernel = goat::goker::by_name("moby28462").expect("kernel");
    let _plan = faultpoint::scoped(&format!("worker:kill:{sig}@seed=1"));
    let cfg = GoatConfig::default()
        .with_iterations(6)
        .with_seed0(1)
        .keep_running()
        .with_isolate(IsolateMode::Proc)
        .with_worker_cmd(env!("CARGO_BIN_EXE_goat"));
    Goat::new(cfg).test(Arc::new(KernelProgram(kernel)))
}

#[test]
fn sigabrt_worker_death_is_survived_with_forensics() {
    let spawned_before = goat::metrics::global().counter("isolate.workers_spawned").get();
    let result = worker_death_campaign(6);
    // The campaign survived the dead worker and ran its full budget.
    assert_eq!(result.records.len(), 6, "remaining iterations completed");
    assert_eq!(result.first_detection, Some(1));
    let Some(GoatVerdict::Crash { msg, detail }) = &result.bug else {
        panic!("expected a crash verdict, got {:?}", result.bug);
    };
    assert!(msg.contains("killed by signal 6 (SIGABRT)"), "{msg}");
    let detail = detail.as_ref().expect("crash forensics detail");
    assert!(detail.contains("stderr tail:"), "{detail}");
    assert!(detail.contains("injected fault: raising signal 6"), "{detail}");
    // Only iteration 1 crashed; a replacement worker served the rest.
    for rec in &result.records[1..] {
        assert!(!matches!(rec.verdict, GoatVerdict::Crash { .. }), "{:?}", rec.verdict);
    }
    let spawned_after = goat::metrics::global().counter("isolate.workers_spawned").get();
    assert!(spawned_after - spawned_before >= 2, "the dead worker was replaced");
    // The forensics detail reaches the machine-readable summary.
    let summary = result.to_json_summary().expect("summary");
    assert!(summary.contains("\"bug_detail\""), "{summary}");
    assert!(summary.contains("SIGABRT"), "{summary}");
}

#[test]
fn sigsegv_worker_death_is_survived_with_forensics() {
    let result = worker_death_campaign(11);
    assert_eq!(result.records.len(), 6, "remaining iterations completed");
    let Some(GoatVerdict::Crash { msg, .. }) = &result.bug else {
        panic!("expected a crash verdict, got {:?}", result.bug);
    };
    assert!(msg.contains("killed by signal 11 (SIGSEGV)"), "{msg}");
}

// ---------------------------------------------------------------------
// CLI exit codes: 0 clean, 1 bug detected, 2 quarantined/infra failure,
// 64 usage error.
// ---------------------------------------------------------------------

fn goat_cli() -> std::process::Command {
    let mut c = std::process::Command::new(env!("CARGO_BIN_EXE_goat"));
    c.stdout(std::process::Stdio::null()).stderr(std::process::Stdio::null());
    c
}

#[test]
fn cli_exit_codes_are_distinct_per_outcome() {
    // 64: usage errors — a bad flag, and an unknown kernel.
    assert_eq!(goat_cli().arg("-bogus").status().expect("run").code(), Some(64));
    let unknown = goat_cli().args(["-target", "no-such-kernel"]).status().expect("run");
    assert_eq!(unknown.code(), Some(64));
    // 0: a clean campaign (no detection within the budget).
    let clean = goat_cli().args(["-target", "grpc1424", "-freq", "1", "-seed", "1"]).status();
    assert_eq!(clean.expect("run").code(), Some(0));
    // 1: a bug detected.
    let bug = goat_cli().args(["-target", "moby28462", "-freq", "5", "-seed", "1"]).status();
    assert_eq!(bug.expect("run").code(), Some(1));
    // 2: quarantined without a verdict — every isolated run corrupts
    // its result frame, retries exhaust, and the infra streak trips.
    let quarantined = goat_cli()
        .args(["-target", "grpc1424", "-freq", "6", "-seed", "1", "-isolate", "proc"])
        .args(["-quarantine-after", "2", "-max-retries", "1"])
        .env("GOAT_FAULT", "worker:garbage-frame")
        .status()
        .expect("run");
    assert_eq!(quarantined.code(), Some(2));
}

// ---------------------------------------------------------------------
// Environment knobs: a malformed value is a usage error, and every flag
// wins over its variable.
// ---------------------------------------------------------------------

/// Run the CLI on a small campaign with `env` set; returns the exit code
/// and stderr.
fn goat_with_env(env: (&str, &str)) -> (Option<i32>, String) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_goat"))
        .args(["-target", "moby28462", "-freq", "2", "-seed", "1"])
        .env(env.0, env.1)
        .output()
        .expect("run");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn malformed_env_knobs_are_usage_errors() {
    // A typo must not quietly run the default mode.
    let (code, stderr) = goat_with_env(("GOAT_ISOLATE", "prc"));
    assert_eq!(code, Some(64), "{stderr}");
    assert!(stderr.contains("GOAT_ISOLATE: expected off|proc, got \"prc\""), "{stderr}");
    let (code, stderr) = goat_with_env(("GOAT_PARALLELISM", "0"));
    assert_eq!(code, Some(64), "{stderr}");
    assert!(stderr.contains("GOAT_PARALLELISM: expected an integer >= 1, got \"0\""), "{stderr}");
    // Process-wide knobs with no config field are checked up front too.
    let (code, stderr) = goat_with_env(("GOAT_WORKER_GRACE_MS", "5s"));
    assert_eq!(code, Some(64), "{stderr}");
    assert!(
        stderr.contains("GOAT_WORKER_GRACE_MS: expected an integer >= 1, got \"5s\""),
        "{stderr}"
    );
    let (code, stderr) = goat_with_env(("GOAT_POOL_MAX_IDLE", "-1"));
    assert_eq!(code, Some(64), "{stderr}");
    assert!(
        stderr.contains("GOAT_POOL_MAX_IDLE: expected a non-negative integer, got \"-1\""),
        "{stderr}"
    );
    let (code, stderr) = goat_with_env(("GOAT_TEARDOWN_TIMEOUT_MS", "abc"));
    assert_eq!(code, Some(64), "{stderr}");
    assert!(
        stderr.contains("GOAT_TEARDOWN_TIMEOUT_MS: expected a non-negative integer, got \"abc\""),
        "{stderr}"
    );
    // An empty value means unset, as the CI matrix's blank cells rely on.
    let (code, stderr) = goat_with_env(("GOAT_ISOLATE", ""));
    assert_eq!(code, Some(1), "{stderr}");
}

#[test]
fn a_flag_wins_over_its_env_var() {
    let stdout = |strategy_env: Option<&str>, flag: bool| {
        let mut c = std::process::Command::new(env!("CARGO_BIN_EXE_goat"));
        c.args(["-target", "moby28462", "-freq", "10", "-seed", "3"]).env_remove("GOAT_STRATEGY");
        if flag {
            c.args(["-strategy", "native"]);
        }
        if let Some(v) = strategy_env {
            c.env("GOAT_STRATEGY", v);
        }
        let out = c.output().expect("run");
        assert!(matches!(out.status.code(), Some(0 | 1)), "{out:?}");
        String::from_utf8(out.stdout).expect("utf-8")
    };
    let native = stdout(None, true);
    assert_eq!(stdout(Some("pct"), true), native);
    // The variable is not inert: without the flag it changes the run.
    assert_ne!(stdout(Some("pct"), false), native);
}

#[test]
fn memo_modes_print_the_same_report() {
    let report = |mode: &str| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_goat"))
            .args(["-target", "etcd6708", "-d", "2", "-freq", "30", "-seed", "11"])
            .args(["-keep-running", "-cov", "-memo", mode])
            .output()
            .expect("run");
        assert!(matches!(out.status.code(), Some(0 | 1)), "{out:?}");
        String::from_utf8(out.stdout).expect("utf-8")
    };
    let off = report("off");
    assert_eq!(report("on"), off);
    assert_eq!(report("verify"), off);
    let bad = goat_cli().args(["-target", "etcd6708", "-memo", "maybe"]).status().expect("run");
    assert_eq!(bad.code(), Some(64));
}
