//! End-to-end campaign supervision: a single campaign survives an
//! injected wedged iteration, an injected telemetry-sink write error,
//! and an injected kernel panic — completing with correct TimedOut /
//! Crashed / dropped-event accounting — and a repeatedly crashing
//! kernel is quarantined instead of burning its budget. A checkpoint
//! written under another retry/quarantine policy is not resumed. A
//! campaign whose only worker wedges finishes on a replacement worker,
//! a run that wedges inside a sandboxed worker process is answered by a
//! replacement serve loop of the same process, and a one-worker campaign
//! runs every iteration on that worker's thread.
//!
//! Lives in its own integration-test binary (= its own process) because
//! `GOAT_FAULT`, `GOAT_TELEMETRY`, and the teardown deadline resolve
//! the environment once, lazily, on first use; everything runs in ONE
//! `#[test]` so the env is pinned before any of it is touched.

use goat::core::{FnProgram, Goat, GoatConfig, GoatVerdict, IsolateMode, Program};
use goat::runtime::Chan;
use std::sync::Arc;
use std::time::Duration;

struct KernelProgram(&'static goat::goker::BugKernel);

impl Program for KernelProgram {
    fn name(&self) -> &str {
        Program::name(self.0)
    }
    fn main(&self) {
        Program::main(self.0)
    }
}

fn clean_program() -> Arc<dyn Program> {
    Arc::new(FnProgram::new("handshake", || {
        let ch: Chan<u8> = Chan::new(0);
        let tx = ch.clone();
        goat::runtime::go(move || tx.send(1));
        ch.recv();
    }))
}

fn crashing_program() -> Arc<dyn Program> {
    Arc::new(FnProgram::new("crashy", || {
        let ch: Chan<u8> = Chan::new(0);
        ch.close();
        ch.send(1); // send on closed channel panics every run
    }))
}

/// A wedged iteration stalls teardown until this deadline, which the
/// runtime reads once, at the first run.
fn pin_teardown() {
    std::env::set_var("GOAT_TEARDOWN_TIMEOUT_MS", "150");
    assert_eq!(goat::runtime::teardown_timeout(), Ok(Duration::from_millis(150)));
}

#[test]
fn faulted_campaign_completes_with_correct_accounting() {
    // Must precede the first touch of the metrics crate / faultpoint.
    let stream =
        std::env::temp_dir().join(format!("goat_supervision_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&stream);
    std::env::set_var(goat::metrics::TELEMETRY_ENV, &stream);
    // Iteration seeds run 101..=120 below: wedge seed 105, panic seed
    // 112, and fail the telemetry sink after 30 successful writes.
    std::env::set_var(
        goat::runtime::faultpoint::FAULT_ENV,
        "iter:wedge:seed=105,iter:panic:seed=112,sink:err:after=30",
    );
    pin_teardown();

    // -- one campaign through all three faults ------------------------
    let goat = Goat::new(
        GoatConfig::default()
            .with_iterations(20)
            .with_seed0(101)
            .keep_running()
            .with_iter_timeout_ms(Some(80)),
    );
    let result = goat.test(clean_program());

    assert_eq!(result.records.len(), 20, "campaign must complete the full budget");
    assert!(result.quarantined.is_none());
    for rec in &result.records {
        match rec.seed {
            105 => assert!(
                matches!(rec.verdict, GoatVerdict::Hang),
                "wedged iteration must be recorded as a suspected hang, got {}",
                rec.verdict
            ),
            112 => match &rec.verdict {
                GoatVerdict::Crash { msg, .. } => {
                    assert!(msg.contains("injected fault"), "{msg}")
                }
                other => panic!("panic seed must record Crash, got {other}"),
            },
            _ => assert!(
                !matches!(rec.verdict, GoatVerdict::Hang | GoatVerdict::Crash { .. }),
                "seed {} unexpectedly failed: {}",
                rec.seed,
                rec.verdict
            ),
        }
    }

    // Supervision counters: exactly the injected faults were counted.
    assert!(goat::runtime::faultpoint::injected() >= 2, "both iter faults must fire");
    let reg = goat::metrics::global();
    assert_eq!(reg.counter_total("supervision.timeouts"), 1);
    assert_eq!(reg.counter_total("supervision.quarantines"), 0);

    // The sink died mid-campaign (write 31) and degraded instead of
    // killing the run: events after that point are counted, not written.
    assert!(!goat::metrics::sink::active(), "sink must be degraded");
    assert!(goat::metrics::sink::events_dropped() > 0);
    assert_eq!(
        reg.counter_total("telemetry.events_dropped"),
        goat::metrics::sink::events_dropped()
    );
    // Every surviving line parses (the vendored serde ignores unknown
    // fields, so one probe struct covers every event kind).
    #[derive(serde::Deserialize)]
    struct EventProbe {
        kind: String,
    }
    let raw = std::fs::read_to_string(&stream).expect("stream partially written");
    assert_eq!(raw.lines().count(), 30, "exactly the pre-fault writes reach the file");
    for line in raw.lines() {
        let probe: EventProbe = serde_json::from_str(line)
            .unwrap_or_else(|e| panic!("degraded sink left a torn line: {e}\n{line}"));
        assert!(!probe.kind.is_empty());
    }
    assert!(
        raw.lines().any(|l| l.contains("\"fault_injected\"")),
        "the wedge injection (iteration 5) must be in the stream prefix"
    );

    // Telemetry block survives sink degradation (it is independent).
    assert!(result.telemetry.is_some());

    // -- quarantine accounting ----------------------------------------
    let goat = Goat::new(
        GoatConfig::default()
            .with_iterations(10)
            .with_seed0(200)
            .keep_running()
            .with_quarantine_crashes(3),
    );
    let r = goat.test(crashing_program());
    assert_eq!(r.records.len(), 3, "quarantined after the crash streak");
    assert_eq!(r.skipped, 7);
    let reason = r.quarantined.as_deref().expect("quarantine reason");
    assert!(reason.contains("3 consecutive crashed iterations"), "{reason}");
    assert_eq!(reg.counter_total("supervision.quarantines"), 1);

    // -- infra failures are never bug evidence -------------------------
    // Every checkout fails, so every iteration exhausts its retries and
    // surfaces InfraFailure: the campaign must not claim a detection
    // (stop_on_bug stays armed and never fires) — quarantine is the
    // sole response.
    {
        let _g = goat::runtime::faultpoint::scoped("pool_checkout:err:1.0");
        let goat = Goat::new(
            GoatConfig::default()
                .with_iterations(8)
                .with_seed0(300)
                .with_max_retries(0)
                .with_quarantine_after(3),
        );
        let r = goat.test(clean_program());
        assert_eq!(r.first_detection, None, "harness fault forged into a detection");
        assert!(r.bug.is_none());
        assert!(r
            .records
            .iter()
            .all(|rec| matches!(rec.verdict, GoatVerdict::InfraFailure { .. })));
        let reason = r.quarantined.as_deref().expect("infra quarantine");
        assert!(reason.contains("3 consecutive infra failures"), "{reason}");
        assert_eq!(r.records.len(), 3);
        assert_eq!(r.skipped, 5);
    }

    // -- a sidecar from another supervision policy is not merged ------
    // Written under quarantine_after=3, the sidecar records a quarantine
    // after 3 infra-failed iterations. Resumed under quarantine_after=10
    // it must be rejected, so the campaign equals an uninterrupted one.
    {
        let _g = goat::runtime::faultpoint::scoped("pool_checkout:err:1.0");
        let sidecar =
            std::env::temp_dir().join(format!("goat_supervision_{}.ck.json", std::process::id()));
        let _ = std::fs::remove_file(&sidecar);
        let policy = |quarantine_after: u32| {
            GoatConfig::default()
                .with_iterations(8)
                .with_seed0(500)
                .with_max_retries(0)
                .with_quarantine_after(quarantine_after)
                .with_isolate(IsolateMode::Off)
        };
        let first = Goat::new(policy(3).with_checkpoint(&sidecar)).test(clean_program());
        assert_eq!(first.records.len(), 3, "quarantined under the first policy");
        let resumed = Goat::new(policy(10).with_checkpoint(&sidecar)).test(clean_program());
        let fresh = Goat::new(policy(10)).test(clean_program());
        assert!(resumed.quarantined.is_none(), "{:?}", resumed.quarantined);
        assert_eq!(resumed.records.len(), 8);
        assert_eq!(
            serde_json::to_string(&resumed.records).unwrap(),
            serde_json::to_string(&fresh.records).unwrap()
        );
        let _ = std::fs::remove_file(&sidecar);
    }

    // -- the only worker wedges --------------------------------------
    // At parallelism 1 the campaign's one worker runs every iteration
    // inline, so the wedged iteration wedges the only worker. The
    // supervisor must record the iteration as a hang, write the worker
    // off, and a replacement must finish the budget.
    {
        let _g = goat::runtime::faultpoint::scoped("iter:wedge:seed=405");
        let base = GoatConfig::default()
            .with_iterations(12)
            .with_seed0(400)
            .keep_running()
            .with_isolate(IsolateMode::Off)
            .with_iter_timeout_ms(Some(80));
        let campaign = |parallelism: usize| {
            Goat::new(base.clone().with_parallelism(parallelism)).test(clean_program())
        };
        let before = goat::runtime::pool::stats();
        let alone = campaign(1);
        let after = goat::runtime::pool::stats();
        assert_eq!(alone.records.len(), 12, "the replacement worker must finish the budget");
        for rec in &alone.records {
            if rec.seed == 405 {
                assert!(matches!(rec.verdict, GoatVerdict::Hang), "{}", rec.verdict);
            } else {
                assert!(
                    matches!(rec.verdict, GoatVerdict::Pass),
                    "seed {}: {}",
                    rec.seed,
                    rec.verdict
                );
            }
        }
        assert_eq!(after.abandoned, before.abandoned + 1, "{before:?} -> {after:?}");
        let wide = campaign(4);
        assert_eq!(
            serde_json::to_string(&alone.records).unwrap(),
            serde_json::to_string(&wide.records).unwrap(),
            "a wedged worker must not change the campaign's records"
        );
        // Claims of eight: isolation is requested but its worker command
        // is broken, so each batch of eight (the derived batch at one
        // job) runs in-process on the claiming worker. The wedge hits
        // the sixth run of the batch 400..=407; the first five are
        // delivered with it, and 406..=407 go back to the queue.
        let batched = Goat::new(
            base.clone()
                .with_parallelism(1)
                .with_isolate(IsolateMode::Proc)
                .with_worker_cmd("/nonexistent/goat-worker"),
        )
        .test(clean_program());
        assert_eq!(
            serde_json::to_string(&alone.records).unwrap(),
            serde_json::to_string(&batched.records).unwrap(),
            "giving back the rest of a wedged batch must not change the records"
        );
    }

    // -- a wedge inside a real worker ---------------------------------
    // At one job a worker serves batches of eight. Seed 602 is the third
    // run of the batch 600..=607 and wedges inside the worker process:
    // the worker's own supervisor answers it as a hang and a replacement
    // serve loop, on the same pipes, serves the other five runs. No
    // worker dies and none is spawned after the first, and the records
    // are those of the same campaign in-process.
    {
        let _g = goat::runtime::faultpoint::scoped("iter:wedge:seed=602");
        let kernel: Arc<dyn Program> =
            Arc::new(KernelProgram(goat::goker::by_name("etcd6708").expect("kernel")));
        let base = GoatConfig::default()
            .with_delay_bound(1)
            .with_iterations(12)
            .with_seed0(600)
            .keep_running()
            .with_parallelism(1)
            .with_iter_timeout_ms(Some(80));
        let reg = goat::metrics::global();
        let counts = || {
            ["isolate.workers_spawned", "isolate.workers_died", "isolate.workers_killed"]
                .map(|c| reg.counter_total(c))
        };
        let before = counts();
        let isolated = Goat::new(
            base.clone()
                .with_isolate(IsolateMode::Proc)
                .with_worker_cmd(env!("CARGO_BIN_EXE_goat")),
        )
        .test(Arc::clone(&kernel));
        let after = counts();
        assert_eq!(isolated.records.len(), 12);
        for rec in &isolated.records {
            if rec.seed == 602 {
                assert!(matches!(rec.verdict, GoatVerdict::Hang), "{}", rec.verdict);
            }
            if rec.seed < 608 {
                assert!(
                    !matches!(
                        rec.verdict,
                        GoatVerdict::Crash { .. } | GoatVerdict::InfraFailure { .. }
                    ),
                    "seed {}: {}",
                    rec.seed,
                    rec.verdict
                );
            }
        }
        assert_eq!(
            [after[0] - before[0], after[1] - before[1], after[2] - before[2]],
            [1, 0, 0],
            "one worker (spawned, died, killed) must serve the whole campaign: \
             the replacement serve loop takes over the wedged one"
        );
        let in_process =
            Goat::new(base.clone().with_isolate(IsolateMode::Off)).test(Arc::clone(&kernel));
        assert_eq!(
            serde_json::to_string(&isolated.records).unwrap(),
            serde_json::to_string(&in_process.records).unwrap(),
            "a wedge inside a worker must record what it records in-process"
        );
    }

    // -- every iteration runs on the claiming thread ------------------
    {
        use std::collections::HashSet;
        use std::sync::Mutex;
        static HOSTS: Mutex<Option<HashSet<std::thread::ThreadId>>> = Mutex::new(None);
        let program: Arc<dyn Program> = Arc::new(FnProgram::new("whoami", || {
            let id = std::thread::current().id();
            HOSTS.lock().unwrap().get_or_insert_with(HashSet::new).insert(id);
        }));
        let before = goat::runtime::pool::stats();
        let r = Goat::new(
            GoatConfig::default()
                .with_iterations(200)
                .keep_running()
                .with_parallelism(1)
                .with_isolate(IsolateMode::Off),
        )
        .test(program);
        let after = goat::runtime::pool::stats();
        assert_eq!(r.records.len(), 200);
        let hosts = HOSTS.lock().unwrap().take().unwrap_or_default();
        assert_eq!(hosts.len(), 1, "200 iterations ran on {} threads", hosts.len());
        assert!(
            after.threads_spawned <= before.threads_spawned + 1,
            "one worker must host every run: {before:?} -> {after:?}"
        );
    }

    let _ = std::fs::remove_file(&stream);
}
