//! Campaign checkpoint/resume: crash-safe persistence of merge state.
//!
//! A long campaign (thousands of iterations across 68 kernels) must
//! survive being killed — by the OS, a CI timeout, or an operator —
//! without redoing completed work. With `GOAT_CHECKPOINT=path` (or
//! [`crate::GoatConfig::with_checkpoint`]) the campaign engine
//! periodically persists everything the merge loop has accumulated:
//! the completed-iteration count, per-iteration records, merged
//! coverage, the requirement universe, the global goroutine tree, and
//! the first-bug evidence (ECT + schedule).
//!
//! Because per-iteration seeds are fixed up front and merging is the
//! campaign's only stateful step, resuming from a checkpoint and
//! re-running the remaining seeds produces a report **byte-identical**
//! to the uninterrupted campaign (proven in `tests/determinism.rs`).
//!
//! Writes are atomic (`path.tmp` + rename), so a kill *during* a
//! checkpoint write leaves the previous checkpoint intact. A
//! checkpoint embeds a [`fingerprint`] of the campaign parameters that
//! determine per-iteration behaviour; a stale checkpoint from a
//! different campaign is ignored rather than corrupting results. The
//! iteration budget is deliberately *excluded* from the fingerprint so
//! a resumed campaign may extend it.

use crate::analysis::GoatVerdict;
use crate::globaltree::GlobalGTree;
use crate::runner::{GoatConfig, IterationRecord};
use goat_model::{CoverageSet, RequirementUniverse};
use goat_runtime::SchedCounters;
use std::path::Path;

/// Environment variable naming the checkpoint sidecar file.
pub const CHECKPOINT_ENV: &str = "GOAT_CHECKPOINT";

/// Environment variable setting the checkpoint cadence (merged
/// iterations between writes; default 8).
pub const CHECKPOINT_EVERY_ENV: &str = "GOAT_CHECKPOINT_EVERY";

/// Format version; bump on any schema change so old sidecars are
/// ignored instead of misread.
///
/// v2: guided exploration (reward history, saturation streak) joined
/// the merge state and the fingerprint grew strategy/guided/saturation
/// components.
///
/// v3: crash verdicts grew a forensics `detail` field and the
/// fingerprint grew the process-isolation mode (`iso=`): a crashing
/// campaign's records differ between `GOAT_ISOLATE=off` and `proc`
/// (in-process panic vs worker death), so sidecars cannot be mixed
/// across modes.
///
/// v4: the fingerprint grew the supervision policy (`retries=`,
/// `qinfra=`, `qcrash=`) and the active fault plan (`fault=`): each
/// changes which iterations record infra failures or crashes, or where
/// the campaign is quarantined.
///
/// v5: the serialized `bug_ect` changed shape: a lock `GoBlock` carries
/// one `lock` (lock, holder, holder CU, read flag) in place of
/// `holder_cu`/`holder`, and `MuLock` carries `tried`.
pub const CHECKPOINT_VERSION: u32 = 5;

/// The campaign parameters that determine per-iteration behaviour,
/// folded into a string. Two campaigns with equal fingerprints run the
/// same program the same way for every shared iteration index — which
/// is exactly the condition under which resuming is sound.
///
/// The config is destructured without `..`: a new [`GoatConfig`] field
/// does not compile until it is either folded in here or bound to `_`
/// with the reason it cannot change a record.
pub fn fingerprint(program_name: &str, cfg: &GoatConfig) -> String {
    let GoatConfig {
        // Each of these changes some iteration's record: its schedule
        // (seed, D, ε, step bound, strategy, guided arms), its outcome
        // (the watchdog; in-process panic vs worker death under
        // isolation; whether an infra failure is retried away), or where
        // the campaign stops (stop rules, saturation, quarantine).
        delay_bound,
        seed0,
        stop_on_bug,
        coverage_threshold,
        native_preempt_prob,
        max_steps,
        iter_timeout_ms,
        max_retries,
        quarantine_after,
        quarantine_crashes,
        strategy,
        guided,
        saturation_window,
        isolate,
        // Excluded on purpose: a resumed campaign may extend its budget.
        iterations: _,
        // Iterations are merged in order: results match at any count.
        parallelism: _,
        // Thread and stack reuse never change scheduling or traces.
        pool: _,
        // Where progress is saved, not what it is.
        checkpoint: _,
        // How often progress is saved, not what it is.
        checkpoint_every: _,
        // Memo hits reuse products equal to a fresh analysis.
        memo: _,
        // Has no effect.
        spin: _,
        // Any worker binary answers a run with the same bytes.
        worker_cmd: _,
    } = cfg;
    format!(
        "v{CHECKPOINT_VERSION}:{program_name}:seed0={seed0}:d={delay_bound}:stop={stop_on_bug}:cov={}:eps={:x}:steps={max_steps}:wd={}:strat={strategy}:guided={guided}:sat={}:iso={isolate}:retries={max_retries}:qinfra={quarantine_after}:qcrash={quarantine_crashes}:fault={}",
        coverage_threshold.map_or("none".to_string(), |t| format!("{:x}", t.to_bits())),
        native_preempt_prob.to_bits(),
        iter_timeout_ms.map_or("off".to_string(), |ms| ms.to_string()),
        saturation_window.map_or("off".to_string(), |w| w.to_string()),
        // The fault plan decides which iterations fail at all.
        goat_runtime::faultpoint::current_spec().unwrap_or_else(|| "off".to_string()),
    )
}

/// Everything the merge loop has accumulated after `completed`
/// iterations, in serializable form.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct CampaignCheckpoint {
    /// Schema version ([`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// Campaign identity; must match on resume.
    pub fingerprint: String,
    /// Iterations merged so far (the resume point: iteration indices
    /// `0..completed` are done, `completed..` remain).
    pub completed: usize,
    /// Per-iteration records, in order.
    pub records: Vec<IterationRecord>,
    /// 1-based iteration of the first detection, if any.
    pub first_detection: Option<usize>,
    /// The first detected bug's verdict.
    pub bug: Option<GoatVerdict>,
    /// The buggy execution's trace (replay evidence).
    pub bug_ect: Option<goat_trace::Ect>,
    /// The buggy execution's recorded schedule.
    pub bug_schedule: Option<goat_runtime::ReplayLog>,
    /// The requirement universe accumulated so far.
    pub universe: RequirementUniverse,
    /// Requirements covered so far.
    pub covered: CoverageSet,
    /// The global goroutine tree so far.
    pub global_tree: GlobalGTree,
    /// Scheduler counters summed over merged iterations.
    pub sched_totals: SchedCounters,
    /// Perturbation yields summed over merged iterations.
    pub yields_total: u64,
    /// Consecutive infra-failed iterations at the checkpoint.
    pub infra_streak: usize,
    /// Consecutive crashed iterations at the checkpoint.
    pub crash_streak: usize,
    /// Quarantine reason, when the campaign was quarantined.
    pub quarantined: Option<String>,
    /// Consecutive zero-coverage-delta iterations at the checkpoint.
    pub zero_delta_streak: usize,
    /// 1-based iteration at which coverage saturation tripped, if any.
    pub saturated: Option<usize>,
    /// Guided-mode reward history (empty when guided mode is off);
    /// restoring it rebuilds the bandit's exact selection state.
    pub guided_rewards: Vec<crate::bandit::GuidedReward>,
}

impl CampaignCheckpoint {
    /// Atomically persist to `path` (`path.tmp` + rename): a kill
    /// mid-write leaves the previous checkpoint intact.
    ///
    /// # Errors
    /// Propagates serialization and filesystem errors; callers treat a
    /// failed checkpoint write as an infra fault (logged, campaign
    /// continues — losing checkpoint durability must not kill the run).
    pub fn store(&self, path: &Path) -> Result<(), String> {
        let json = serde_json::to_string(self).map_err(|e| format!("serialize: {e}"))?;
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, json.as_bytes())
            .map_err(|e| format!("write {}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, path).map_err(|e| format!("rename to {}: {e}", path.display()))
    }

    /// Load a checkpoint from `path` and validate it against the
    /// campaign `fingerprint`. `Ok(None)` when the file does not exist
    /// (a fresh campaign, not an error).
    ///
    /// # Errors
    /// A present-but-unusable sidecar (parse failure, version or
    /// fingerprint mismatch, inconsistent counts) is an error so the
    /// caller can decide to start over loudly rather than silently.
    pub fn load(path: &Path, fingerprint: &str) -> Result<Option<Self>, String> {
        let raw = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(format!("read {}: {e}", path.display())),
        };
        let mut cp: CampaignCheckpoint =
            serde_json::from_str(&raw).map_err(|e| format!("parse {}: {e}", path.display()))?;
        // The CU table's lookup index is not serialized; without it the
        // resumed universe would re-discover every site as new.
        cp.universe.reindex();
        if cp.version != CHECKPOINT_VERSION {
            return Err(format!(
                "checkpoint version {} != supported {CHECKPOINT_VERSION}",
                cp.version
            ));
        }
        if cp.fingerprint != fingerprint {
            return Err(format!(
                "checkpoint belongs to a different campaign ({} vs {fingerprint})",
                cp.fingerprint
            ));
        }
        if cp.records.len() != cp.completed {
            return Err(format!(
                "checkpoint inconsistent: {} records for {} completed iterations",
                cp.records.len(),
                cp.completed
            ));
        }
        Ok(Some(cp))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(cfg: &GoatConfig) -> CampaignCheckpoint {
        CampaignCheckpoint {
            version: CHECKPOINT_VERSION,
            fingerprint: fingerprint("demo", cfg),
            completed: 1,
            records: vec![IterationRecord {
                iter: 1,
                seed: cfg.seed0,
                verdict: GoatVerdict::Pass,
                coverage_percent: 37.5,
                universe_size: 8,
                yields: 0,
            }],
            first_detection: None,
            bug: None,
            bug_ect: None,
            bug_schedule: None,
            universe: RequirementUniverse::new(),
            covered: CoverageSet::new(),
            global_tree: GlobalGTree::new(),
            sched_totals: SchedCounters::default(),
            yields_total: 0,
            infra_streak: 0,
            crash_streak: 0,
            quarantined: None,
            zero_delta_streak: 0,
            saturated: None,
            guided_rewards: Vec::new(),
        }
    }

    #[test]
    fn store_load_roundtrips() {
        let cfg = GoatConfig::default();
        let dir = std::env::temp_dir().join("goat-checkpoint-test-roundtrip");
        std::fs::create_dir_all(&dir).expect("tmpdir");
        let path = dir.join("cp.json");
        let cp = sample(&cfg);
        cp.store(&path).expect("store");
        let back = CampaignCheckpoint::load(&path, &cp.fingerprint)
            .expect("load")
            .expect("checkpoint present");
        assert_eq!(back.completed, 1);
        assert_eq!(back.records.len(), 1);
        assert_eq!(back.records[0].coverage_percent, 37.5, "f64 must roundtrip exactly");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_a_fresh_campaign() {
        let cfg = GoatConfig::default();
        let path = std::env::temp_dir().join("goat-checkpoint-test-does-not-exist.json");
        let got = CampaignCheckpoint::load(&path, &fingerprint("demo", &cfg)).expect("ok");
        assert!(got.is_none());
    }

    #[test]
    fn fingerprint_mismatch_is_rejected() {
        let cfg = GoatConfig::default();
        let dir = std::env::temp_dir().join("goat-checkpoint-test-mismatch");
        std::fs::create_dir_all(&dir).expect("tmpdir");
        let path = dir.join("cp.json");
        sample(&cfg).store(&path).expect("store");
        let other = fingerprint("demo", &cfg.clone().with_seed0(999));
        assert!(CampaignCheckpoint::load(&path, &other).is_err());
        let _ = std::fs::remove_file(&path);
    }

    /// A config with every field set explicitly, so no ambient `GOAT_*`
    /// variable can move its fingerprint.
    fn pinned() -> GoatConfig {
        GoatConfig {
            delay_bound: 2,
            iterations: 50,
            seed0: 7,
            stop_on_bug: true,
            coverage_threshold: Some(90.0),
            native_preempt_prob: 0.02,
            max_steps: 200_000,
            parallelism: 1,
            pool: true,
            iter_timeout_ms: Some(500),
            max_retries: 2,
            quarantine_after: 3,
            quarantine_crashes: 0,
            checkpoint: None,
            checkpoint_every: 8,
            memo: crate::MemoMode::On,
            strategy: goat_runtime::StrategyKind::Pct { depth: 3, length: 512 },
            guided: false,
            saturation_window: None,
            spin: None,
            isolate: crate::IsolateMode::Off,
            worker_cmd: None,
        }
    }

    #[test]
    fn fingerprint_string_is_pinned() {
        // Sidecars written before the fingerprint was derived from a
        // destructured config must still resume: the bytes are fixed.
        // The empty scoped plan keeps `GOAT_FAULT` and other tests'
        // plans out.
        let _no_faults = goat_runtime::faultpoint::scoped("");
        assert_eq!(
            fingerprint("demo", &pinned()),
            "v5:demo:seed0=7:d=2:stop=true:cov=4056800000000000:eps=3f947ae147ae147b:\
             steps=200000:wd=500:strat=pct:3:512:guided=false:sat=off:iso=off:retries=2:\
             qinfra=3:qcrash=0:fault=off"
        );
    }

    #[test]
    fn fingerprint_ignores_iteration_budget() {
        let _no_faults = goat_runtime::faultpoint::scoped("");
        let base = pinned();
        let fp = fingerprint("p", &base);
        // Operational fields: none changes what an iteration records.
        for cfg in [
            base.clone().with_iterations(500),
            base.clone().with_parallelism(4),
            base.clone().with_pool(false),
            base.clone().with_checkpoint("elsewhere.json"),
            base.clone().with_checkpoint_every(1),
            base.clone().with_memo(crate::MemoMode::Verify),
            base.clone().with_spin(7),
            base.clone().with_worker_cmd("other-goat"),
        ] {
            assert_eq!(fingerprint("p", &cfg), fp, "{cfg:?}");
        }
        // Semantic fields: each one moves the fingerprint.
        for cfg in [
            base.clone().with_delay_bound(3),
            base.clone().with_seed0(8),
            base.clone().keep_running(),
            GoatConfig { coverage_threshold: None, ..base.clone() },
            GoatConfig { native_preempt_prob: 0.5, ..base.clone() },
            GoatConfig { max_steps: 1, ..base.clone() },
            base.clone().with_iter_timeout_ms(None),
            base.clone().with_max_retries(9),
            base.clone().with_quarantine_after(9),
            base.clone().with_quarantine_crashes(9),
            base.clone().with_strategy(goat_runtime::StrategyKind::Native),
            base.clone().with_guided(true),
            base.clone().with_saturation_window(Some(5)),
            base.clone().with_isolate(crate::IsolateMode::Proc),
        ] {
            assert_ne!(fingerprint("p", &cfg), fp, "{cfg:?}");
        }
    }

    #[test]
    fn sidecar_from_another_supervision_policy_is_rejected() {
        // A sidecar written under one retry/quarantine policy must not
        // resume a campaign under another: its recorded quarantine (or
        // its infra-failed iterations) belong to a different campaign.
        let dir = std::env::temp_dir().join("goat-checkpoint-test-policy");
        std::fs::create_dir_all(&dir).expect("tmpdir");
        let path = dir.join("cp.json");
        let base = GoatConfig::default().with_quarantine_after(3);
        sample(&base).store(&path).expect("store");
        for other in [
            base.clone().with_quarantine_after(10),
            base.clone().with_quarantine_crashes(5),
            base.clone().with_max_retries(base.max_retries + 1),
        ] {
            let err = CampaignCheckpoint::load(&path, &fingerprint("demo", &other))
                .expect_err("mismatched sidecar must be rejected");
            assert!(err.contains("different campaign"), "{err}");
        }
        assert!(CampaignCheckpoint::load(&path, &fingerprint("demo", &base)).is_ok());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn v4_sidecar_is_rejected() {
        // v4 sidecars recorded lock waits in the older `GoBlock` shape;
        // their version alone keeps them from resuming a campaign.
        use goat_trace::{BlockReason, Event, EventKind, Gid, LockWait, RId, VTime};
        let cfg = GoatConfig::default();
        let dir = std::env::temp_dir().join("goat-checkpoint-test-v4");
        std::fs::create_dir_all(&dir).expect("tmpdir");
        let path = dir.join("cp.json");
        let cu = goat_model::Cu::new("k.rs", 3, goat_model::CuKind::Lock);
        let lock = LockWait { mu: RId(1), holder: Gid(1), holder_cu: cu, read: false };
        let block = Event {
            seq: 0,
            ts: VTime(0),
            g: Gid(2),
            kind: EventKind::GoBlock { reason: BlockReason::Sync, lock: Some(lock) },
            cu: Some(cu),
        };
        let mut cp = sample(&cfg);
        cp.bug_ect = Some(std::iter::once(block).collect());
        cp.store(&path).expect("store");
        assert!(CampaignCheckpoint::load(&path, &cp.fingerprint).is_ok(), "v5 resumes");
        cp.version = 4;
        cp.store(&path).expect("store");
        let err = CampaignCheckpoint::load(&path, &cp.fingerprint).expect_err("v4 is rejected");
        assert!(err.contains("version 4"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fingerprint_covers_the_watchdog() {
        // Records written under a different (or absent) wall-clock
        // watchdog have different TimedOut/Completed semantics; the
        // fingerprint must keep them from being mixed on resume.
        let off = GoatConfig::default().with_iter_timeout_ms(None);
        let tight = GoatConfig::default().with_iter_timeout_ms(Some(50));
        let loose = GoatConfig::default().with_iter_timeout_ms(Some(5000));
        assert_ne!(fingerprint("p", &off), fingerprint("p", &tight));
        assert_ne!(fingerprint("p", &tight), fingerprint("p", &loose));
    }
}
