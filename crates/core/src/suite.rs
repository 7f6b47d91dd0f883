//! The campaign engine: one work-stealing iteration queue over any
//! number of campaigns.
//!
//! A GoAT campaign runs the instrumented program once per seed and
//! merges every run's analysis in iteration order. `run_campaigns` is
//! the only implementation of that loop: [`Goat::test`] hands it one
//! campaign, [`run_suite`] hands it every kernel of the paper's
//! whole-benchmark evaluation (`-eval_conf … -freq`) and adds the
//! suite's own bookkeeping around it.
//!
//! * **Global work stealing** — every campaign becomes a claimable
//!   *iteration stream* (`next`/`merged`/`cutoff` plus a claim window
//!   bounding how far execution runs ahead of the merge point) and
//!   `jobs` long-lived workers claim batches from whichever stream has
//!   work, preferring the stream they last ran (affinity) and stealing
//!   across kernels otherwise. One kernel's saturation tail does not
//!   serialize a suite.
//! * **Determinism** — results are byte-identical at any `jobs` value:
//!   every iteration's seed is fixed up front (`seed0 + i`), merging is
//!   the only stateful step and each campaign's merges happen in strict
//!   iteration order behind a per-campaign reorder buffer. With one job
//!   the worker claims, runs and merges strictly in order — the plain
//!   sequential campaign. Cross-kernel interleaving touches no
//!   per-kernel state. Guided campaigns cap the claim window at the
//!   bandit's feedback lag, so an arm selection only ever reads rewards
//!   that are already merged. Finished campaigns reach the caller
//!   through a *campaign-granularity* reorder buffer: `emit` always
//!   fires in campaign order.
//! * **Adaptive budget reallocation** (`-realloc`) — kernels
//!   that stop early (bug with `stop_on_bug`, or coverage saturation)
//!   release their unspent base budget into a pool. Once *every* kernel
//!   has completed its base budget (a deterministic barrier), the pool
//!   is split evenly — remainder to the earliest kernel indices, capped
//!   at one extra base budget per kernel — across the still-exploring
//!   kernels (full budget spent, nothing detected), whose streams then
//!   re-open for the extension. Grants depend only on the per-kernel
//!   base-phase results and the kernel order, both deterministic, so
//!   reallocated suites are also byte-identical across `jobs`. A
//!   recipient's extended campaign equals a standalone campaign that
//!   had `base + grant` iterations from the start.
//! * **Warm shared resources** — the goroutine worker-thread pool and
//!   the trace-buffer pool are process-wide and stay warm by nature;
//!   the engine additionally recycles the per-campaign analysis scratch
//!   ([`EctBuffers`]) from finished campaigns into later ones (scratch
//!   contents never affect results — it is cleared per pass) and, under
//!   `GOAT_ISOLATE=proc`, keeps sandboxed workers pooled across kernels
//!   instead of draining per campaign (every `Run` frame carries its
//!   program and whole config, so reuse is sound); [`run_suite`]
//!   drains them once at suite end. The analysis *memo* is deliberately
//!   **not** shared: its keys are schedule fingerprints, which only
//!   identify a run within one kernel.
//! * **Resume** — every campaign resumes from its own checkpoint
//!   sidecar before any worker runs. A suite derives one sidecar per
//!   kernel (see [`per_kernel_checkpoint`]) plus a suite-level manifest
//!   (`<base>.suite.<ext>`) recording the kernel list and, once the
//!   barrier has passed, the grants. A SIGKILLed suite resumes
//!   mid-suite: finished kernels replay from their sidecars without
//!   re-running, in-flight kernels continue from their last write, and
//!   recorded grants are reused verbatim so extension budgets survive
//!   the crash.
//!
//! Observability: [`run_suite`] reports `suite.*` metrics — kernels in
//! flight, cross-kernel steals, budget donated/granted, warm-pool reuse
//! — and a `suite` JSONL event when telemetry is on.

use std::collections::{BTreeMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, PoisonError};
use std::time::Instant;

use goat_metrics::Histogram;
use goat_runtime::RunResult;

use crate::bandit::{Arm, Bandit, GUIDED_LAG};
use crate::checkpoint;
use crate::isolate::{Lane, LANE_DEPTH};
use crate::plane::EctBuffers;
use crate::program::Program;
use crate::runner::{CampaignResult, Checkpointer, Goat, GoatConfig, MergeState};

/// Schema version of the suite manifest sidecar.
pub const SUITE_MANIFEST_VERSION: u32 = 1;

/// Suite-level orchestration knobs, separate from the per-campaign
/// [`GoatConfig`] they multiplex.
#[derive(Debug, Clone)]
pub struct SuiteConfig {
    /// Workers claiming iterations across kernels (`-jobs`; defaults to
    /// `GOAT_PARALLELISM`, then 1) — the suite's counterpart of
    /// [`GoatConfig::parallelism`]. Results are identical at any value.
    pub jobs: usize,
    /// Adaptive budget reallocation (`-realloc`): early stoppers donate
    /// unspent base budget to still-exploring kernels. Off by default —
    /// it extends some kernels' budgets, which changes
    /// (deterministically) what the suite reports.
    pub realloc: bool,
}

/// Jobs from `GOAT_PARALLELISM`, realloc off; panics on a malformed
/// `GOAT_PARALLELISM`.
impl Default for SuiteConfig {
    fn default() -> Self {
        let jobs = crate::runner::env_parallelism().unwrap_or_else(|e| panic!("{e}"));
        SuiteConfig { jobs, realloc: false }
    }
}

impl SuiteConfig {
    /// Set the cross-kernel worker count (overrides `GOAT_PARALLELISM`).
    pub fn with_jobs(mut self, n: usize) -> Self {
        assert!(n >= 1, "jobs must be at least 1");
        self.jobs = n;
        self
    }

    /// Enable or disable adaptive budget reallocation.
    pub fn with_realloc(mut self, on: bool) -> Self {
        self.realloc = on;
        self
    }
}

/// End-of-suite orchestration counters (also exported as `suite.*`
/// metrics and a `suite` JSONL event).
#[derive(Debug, Clone, Default, serde::Serialize)]
pub struct SuiteStats {
    /// Kernels the suite ran.
    pub kernels: usize,
    /// Cross-kernel workers used.
    pub jobs: usize,
    /// Claims where a worker switched to a different kernel's stream.
    pub steals: u64,
    /// Peak number of kernels with claimed-but-unmerged iterations.
    pub kernels_inflight_max: usize,
    /// Unspent base-budget iterations released by early stoppers.
    pub budget_donated: usize,
    /// Extension iterations granted to still-exploring kernels.
    pub budget_granted: usize,
    /// Campaigns that started on another kernel's recycled analysis
    /// scratch instead of growing their own.
    pub warm_bufs_reused: u64,
    /// Isolated-worker checkouts served by the warm cross-kernel pool
    /// during the suite (`isolate.workers_reused` delta).
    pub isolate_workers_reused: u64,
}

/// Derive a kernel-specific checkpoint sidecar from the base path the
/// user supplied: `cp.json` → `cp.<kernel>.json` (no extension:
/// `cp` → `cp.<kernel>`). One shared sidecar across kernels would
/// fingerprint-mismatch on every kernel (program name differs) and each
/// campaign would overwrite the previous kernel's state; per-kernel
/// sidecars are what make suite-mode resume actually resume.
pub fn per_kernel_checkpoint(base: &Path, kernel: &str) -> PathBuf {
    match base.extension().and_then(|e| e.to_str()) {
        Some(ext) => base.with_extension(format!("{kernel}.{ext}")),
        None => base.with_extension(kernel),
    }
}

/// The suite manifest's sidecar path for a given base checkpoint path
/// (`cp.json` → `cp.suite.json`). No benchmark kernel is named `suite`.
pub fn suite_manifest_path(base: &Path) -> PathBuf {
    per_kernel_checkpoint(base, "suite")
}

/// Suite-level checkpoint manifest: which kernels the suite runs and —
/// once the reallocation barrier has passed — the extension grants.
/// Per-kernel progress lives in the per-kernel sidecars; the manifest
/// makes the *grants* durable so a suite killed mid-extension resumes
/// with the same budgets it was running.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct SuiteManifest {
    /// Schema version ([`SUITE_MANIFEST_VERSION`]).
    pub version: u32,
    /// Suite fingerprint: base-config fingerprint + kernel list +
    /// realloc flag. A mismatch invalidates the manifest.
    pub fingerprint: String,
    /// Kernel names, in suite order.
    pub kernels: Vec<String>,
    /// Per-kernel extension grants, indexed like `kernels`; `None`
    /// until the reallocation barrier has passed.
    pub grants: Option<Vec<usize>>,
}

impl SuiteManifest {
    /// Atomically persist to `path` (`path.tmp` + rename), mirroring
    /// [`crate::checkpoint::CampaignCheckpoint::store`]. Failure costs
    /// durability, not correctness.
    pub fn store(&self, path: &Path) {
        let json = match serde_json::to_string(self) {
            Ok(j) => j,
            Err(e) => {
                eprintln!("goat: suite manifest serialize failed ({e}); suite continues");
                return;
            }
        };
        let tmp = path.with_extension("tmp");
        let write =
            std::fs::write(&tmp, json.as_bytes()).and_then(|()| std::fs::rename(&tmp, path));
        if let Err(e) = write {
            eprintln!("goat: suite manifest write failed ({e}); suite continues");
        }
    }

    /// Load and validate a manifest; `None` when absent, unreadable,
    /// fingerprint-mismatched or inconsistent (grants that do not match
    /// the kernel list one to one). Starting fresh is always sound.
    pub fn load(path: &Path, fingerprint: &str) -> Option<SuiteManifest> {
        let data = std::fs::read_to_string(path).ok()?;
        let man: SuiteManifest = match serde_json::from_str(&data) {
            Ok(m) => m,
            Err(e) => {
                eprintln!(
                    "goat: ignoring unusable suite manifest {}: {e}; starting over",
                    path.display()
                );
                return None;
            }
        };
        let consistent = man.grants.as_ref().is_none_or(|g| g.len() == man.kernels.len());
        (man.version == SUITE_MANIFEST_VERSION && man.fingerprint == fingerprint && consistent)
            .then_some(man)
    }
}

/// The suite's identity: the base campaign fingerprint (which already
/// excludes the iteration budget, so grants stay compatible) plus the
/// kernel list and the realloc mode.
fn suite_fingerprint(base: &GoatConfig, names: &[String], realloc: bool) -> String {
    format!(
        "suite-v{SUITE_MANIFEST_VERSION}:{}:k={}:realloc={}",
        checkpoint::fingerprint("__suite__", base),
        names.join(","),
        realloc
    )
}

/// One campaign's claimable iteration stream, guarded by the queue's
/// lock.
struct Stream {
    /// Next unclaimed iteration index.
    next: usize,
    /// Iterations merged so far (claims stay < `merged + window`).
    merged: usize,
    /// One past the last claimable index; grows on an extension grant.
    cutoff: usize,
    /// Claim window ([`claim_shape`]).
    window: usize,
    /// Iterations per claim ([`claim_shape`]).
    batch: usize,
    /// An early stop fired (bug/threshold/quarantine/saturation): no
    /// further claims, outstanding results are speculative discards.
    halted: bool,
    /// The stream reached `cutoff` or halted; cleared when an extension
    /// grant re-opens it.
    complete: bool,
    /// Completed its base budget without stopping and awaits the
    /// reallocation barrier.
    pending: bool,
    /// Claimed-but-undelivered iterations (drives the kernels-in-flight
    /// gauge).
    inflight: usize,
    /// Claimed ranges given back unrun by an abandoned worker; claimed
    /// again before anything new.
    returned: Vec<(usize, usize)>,
    /// Unspent base budget donated at finalize (early stoppers only).
    released: usize,
}

/// The claim window and the claim batch of a campaign served by `jobs`
/// workers.
///
/// In-process runs are claimed one at a time, at most `jobs · 4` ahead
/// of the merge point. Under process isolation a claim is the batch of
/// `Run` frames shipped to a worker in one write, and each worker keeps
/// [`LANE_DEPTH`] batches outstanding on its worker process. So the
/// window is `LANE_DEPTH` times `max(jobs · 4, GUIDED_LAG)`, and each of
/// the `jobs` workers' batches is an even share of it: 8 runs at one job,
/// 4 at two or more. A guided campaign's window is capped at
/// [`GUIDED_LAG`] in both modes, which halves its batch under isolation:
/// an arm selection may only read rewards merged at least that many
/// iterations behind it.
fn claim_shape(cfg: &GoatConfig, jobs: usize) -> (usize, usize) {
    let proc = cfg.isolate == crate::isolate::IsolateMode::Proc;
    let mut window = if proc { LANE_DEPTH * (jobs * 4).max(GUIDED_LAG) } else { jobs * 4 };
    if cfg.guided {
        window = window.min(GUIDED_LAG);
    }
    let batch = if proc { (window / (LANE_DEPTH * jobs)).max(1) } else { 1 };
    (window, batch)
}

fn claimable(s: &Stream) -> bool {
    !s.complete
        && !s.halted
        && (!s.returned.is_empty() || (s.next < s.cutoff && s.next < s.merged + s.window))
}

struct QueueState {
    streams: Vec<Stream>,
    /// Rotating scan start so concurrent workers spread across kernels.
    cursor: usize,
    /// Fully finalized campaigns.
    finalized: usize,
    /// The reallocation barrier has passed (immediately true when
    /// realloc is off or grants were preset by a resumed manifest).
    barrier_open: bool,
    /// Every campaign is finalized — or a worker panicked: no more
    /// claims, and the coordinator stops waiting once no worker is left.
    shutdown: bool,
    /// A worker panicked; the coordinator re-raises it.
    failed: bool,
    /// Workers started and not yet exited (abandoned ones excluded).
    workers: usize,
    steals: u64,
    inflight_max: usize,
    budget_donated: usize,
    budget_granted: usize,
}

/// The global work-stealing queue: one lock, two condvars (workers wait
/// for claimable work; the coordinator waits for completions).
struct SuiteQueue {
    state: StdMutex<QueueState>,
    work_cv: Condvar,
    done_cv: Condvar,
}

impl SuiteQueue {
    /// Claim up to one batch of contiguous iterations from some
    /// campaign's stream, preferring `last` (the worker's previous
    /// campaign) and stealing from the next claimable stream otherwise.
    /// Blocks while nothing is claimable; `None` once the queue is shut
    /// down.
    fn claim(&self, last: Option<usize>) -> Option<(usize, usize, usize)> {
        let mut st = self.state.lock().expect("suite queue");
        loop {
            if st.shutdown {
                return None;
            }
            if let Some(c) = pick(&mut st, last) {
                return Some(c);
            }
            st = self.work_cv.wait(st).expect("suite queue");
        }
    }

    /// [`SuiteQueue::claim`] without the wait: `None` when nothing is
    /// claimable right now.
    fn try_claim(&self, last: Option<usize>) -> Option<(usize, usize, usize)> {
        let mut st = self.state.lock().expect("suite queue");
        if st.shutdown {
            return None;
        }
        pick(&mut st, last)
    }

    /// The campaign's stream stopped early: its outstanding results are
    /// speculative and will be discarded.
    fn halted(&self, k: usize) -> bool {
        self.state.lock().expect("suite queue").streams[k].halted
    }
}

/// Take the next batch for a worker whose previous campaign was `last`,
/// if any stream is claimable.
fn pick(st: &mut QueueState, last: Option<usize>) -> Option<(usize, usize, usize)> {
    let n = st.streams.len();
    let k = last
        .filter(|&k| claimable(&st.streams[k]))
        .or_else(|| (0..n).map(|off| (st.cursor + off) % n).find(|&k| claimable(&st.streams[k])))?;
    if last != Some(k) {
        // A fresh worker's first claim is placement, not theft;
        // switching kernels mid-suite is a steal.
        st.cursor = (k + 1) % n;
        if last.is_some() {
            st.steals += 1;
        }
    }
    let s = &mut st.streams[k];
    let (lo, hi) = s.returned.pop().unwrap_or_else(|| {
        let lo = s.next;
        let hi = (s.merged + s.window).min(s.cutoff).min(lo + s.batch);
        s.next = hi;
        (lo, hi)
    });
    s.inflight += hi - lo;
    let inflight_now = st.streams.iter().filter(|s| s.inflight > 0).count();
    st.inflight_max = st.inflight_max.max(inflight_now);
    Some((k, lo, hi))
}

/// Accounts a worker's exit. When it unwinds, it shuts the queue down,
/// so a panic inside one campaign's run or merge fails the whole call
/// instead of leaving the coordinator and the other workers waiting
/// forever. An abandoned worker was already accounted by its hook.
struct WorkerExit<'a>(&'a SuiteQueue, &'a StdMutex<Progress>);

impl Drop for WorkerExit<'_> {
    fn drop(&mut self) {
        let lane = {
            let mut p = self.1.lock().unwrap_or_else(PoisonError::into_inner);
            if p.abandoned {
                return;
            }
            p.lane.take()
        };
        // The worker process goes back to the pool (or, with results
        // unread, is killed) before the coordinator can see this worker
        // leave.
        drop(lane);
        let mut st = self.0.state.lock().unwrap_or_else(PoisonError::into_inner);
        st.workers -= 1;
        if std::thread::panicking() {
            st.shutdown = true;
            st.failed = true;
            self.0.work_cv.notify_all();
        }
        self.0.done_cv.notify_all();
    }
}

/// A claimed batch: iterations `lo..hi` of campaign `k`.
struct Claim {
    k: usize,
    lo: usize,
    hi: usize,
    /// The arm each iteration runs under, taken when the batch runs.
    arms: Vec<Option<Arm>>,
    /// When the batch was claimed (telemetry on).
    t: Option<Instant>,
}

/// One worker's claims in progress, shared with its abandon hook.
#[derive(Default)]
struct Progress {
    /// Claimed batches not yet delivered, oldest first: the batch being
    /// run or read, then, on a lane, the batch queued behind it.
    claims: VecDeque<Claim>,
    /// Results of the oldest claim's finished iterations, in order.
    done: Vec<RunResult>,
    /// Under process isolation, the worker process this worker holds,
    /// with each claim's `Run` frames written to it.
    lane: Option<Lane>,
    /// The supervisor wrote this worker off: nothing it still holds may
    /// be delivered.
    abandoned: bool,
}

/// A partial batch to deliver: (campaign, first iteration, results).
type Partial = (usize, usize, Vec<RunResult>);

/// Everything one campaign's merge thread-of-record owns, behind the
/// slot's lock: the campaign merge state, the iteration-order reorder
/// buffer, and the checkpoint writer.
struct SlotMerge {
    m: MergeState,
    reorder: BTreeMap<usize, RunResult>,
    /// Next iteration index to merge.
    expect: usize,
    /// Mirror of the stream's halt, readable under the slot lock.
    halted: bool,
    /// The warm-scratch adoption window has passed (it is only sound
    /// before the first merge grows this campaign's own scratch).
    warmed: bool,
    ckpt: Option<Checkpointer>,
    reorder_depth_max: usize,
    t0: Option<Instant>,
}

/// One campaign: its program, configured campaign engine, live merge
/// state and (after finalize) its result, awaiting in-order emission.
struct Slot {
    name: String,
    program: Arc<dyn Program>,
    goat: Goat,
    guided: Option<Arc<StdMutex<Bandit>>>,
    live: StdMutex<Option<SlotMerge>>,
    done: StdMutex<Option<CampaignResult>>,
    iter_wall: Histogram,
    claim_wait: Histogram,
}

/// Everything the workers of one [`run_campaigns`] call share.
struct Engine {
    slots: Vec<Slot>,
    queue: SuiteQueue,
    warm: WarmPool,
    telemetry_on: bool,
}

/// Analysis scratch recycled from finished campaigns into later ones.
struct WarmPool {
    bufs: StdMutex<Vec<EctBuffers>>,
    reused: AtomicU64,
}

/// Budget reallocation context for [`run_campaigns`].
pub(crate) struct Realloc {
    /// Grants a resumed suite manifest already recorded: the barrier is
    /// open from the start and streams begin with their extension.
    preset: Option<Vec<usize>>,
    /// Where the barrier persists freshly computed grants, and the
    /// manifest (kernel list, fingerprint) they are stamped into.
    manifest: Option<(PathBuf, SuiteManifest)>,
}

/// End-of-suite orchestration summary on the JSONL telemetry stream.
#[derive(serde::Serialize)]
struct SuiteEvent {
    kind: &'static str,
    suite: SuiteStats,
}

/// Deliver one claimed batch's results: insert into the campaign's
/// reorder buffer, merge everything now in order, then update the
/// stream's accounting and finalize the campaign if it just completed.
fn deliver(e: &Engine, k: usize, lo: usize, results: Vec<RunResult>) {
    let (slots, queue, warm) = (&e.slots, &e.queue, &e.warm);
    let delivered = results.len();
    let mut merged_now = 0usize;
    let mut halted_now = false;
    {
        let mut live = slots[k].live.lock().expect("slot merge");
        if let Some(sm) = live.as_mut() {
            // Every iteration is delivered once: by the worker that ran
            // it, or — for an abandoned worker — by its replacement.
            debug_assert!(lo >= sm.expect, "iteration {lo} delivered twice");
            for (off, r) in results.into_iter().enumerate() {
                let twice = sm.reorder.insert(lo + off, r).is_some();
                debug_assert!(!twice, "iteration {} delivered twice", lo + off);
            }
            sm.reorder_depth_max = sm.reorder_depth_max.max(sm.reorder.len());
            while let Some(r) = sm.reorder.remove(&sm.expect) {
                if !sm.halted {
                    if !sm.warmed {
                        // First merge for this campaign: adopt a
                        // finished campaign's grown scratch if one is
                        // available. Scratch is cleared per analysis
                        // pass, so this changes allocation behaviour,
                        // never results.
                        sm.warmed = true;
                        if let Some(b) = warm.bufs.lock().expect("warm pool").pop() {
                            sm.m.bufs = b;
                            warm.reused.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    let stop = sm.m.merge_one(slots[k].goat.config(), sm.expect, r);
                    if let Some(c) = sm.ckpt.as_mut() {
                        c.note_merged(&sm.m);
                    }
                    merged_now += 1;
                    if stop {
                        sm.halted = true;
                        halted_now = true;
                    }
                }
                // Past a halt the remaining in-order results were
                // speculative claims: discarded.
                sm.expect += 1;
            }
        }
        // A `None` slot was already finalized: these results are
        // speculative leftovers from a pre-halt claim — dropped.
    }
    let finalize = {
        let mut st = queue.state.lock().expect("suite queue");
        let barrier_open = st.barrier_open;
        let s = &mut st.streams[k];
        s.inflight -= delivered;
        s.merged += merged_now;
        if halted_now {
            s.halted = true;
        }
        let mut finalize = false;
        if !s.complete && (s.halted || s.merged >= s.cutoff) {
            s.complete = true;
            if s.halted || barrier_open {
                finalize = true;
            } else {
                // Budget exhausted pre-barrier with realloc on: park
                // until every kernel's base phase is done, then either
                // receive an extension or finalize with grant 0.
                s.pending = true;
                queue.done_cv.notify_all();
            }
        }
        // Merges slide the claim window. The coordinator waits only for
        // parked and finalized streams (`finalize_slot` wakes it), so a
        // plain merge leaves it asleep.
        if merged_now > 0 {
            queue.work_cv.notify_all();
        }
        finalize
    };
    if finalize {
        finalize_slot(e, k);
    }
}

/// Close out one campaign: final checkpoint write, donate unspent
/// budget (pre-barrier early stoppers only), recycle the analysis
/// scratch into the warm pool, package the [`CampaignResult`] for
/// in-order emission and account the completion — the last finalize
/// shuts the queue down.
fn finalize_slot(e: &Engine, k: usize) {
    let (queue, warm) = (&e.queue, &e.warm);
    let slot = &e.slots[k];
    let Some(mut sm) = slot.live.lock().expect("slot merge").take() else { return };
    if let Some(c) = sm.ckpt.as_mut() {
        c.finalize(&sm.m);
    }
    let base_iters = slot.goat.config().iterations;
    let early_stop =
        (slot.goat.config().stop_on_bug && sm.m.bug.is_some()) || sm.m.saturated.is_some();
    let released = if early_stop { base_iters.saturating_sub(sm.m.records.len()) } else { 0 };
    warm.bufs.lock().expect("warm pool").push(std::mem::take(&mut sm.m.bufs));
    if goat_metrics::enabled() {
        goat_metrics::set_context(Some(&slot.name));
    }
    let result = slot.goat.finish_campaign(
        sm.m,
        slot.program.as_ref(),
        sm.t0,
        &slot.iter_wall,
        &slot.claim_wait,
        sm.reorder_depth_max,
    );
    *slot.done.lock().expect("slot result") = Some(result);
    let mut st = queue.state.lock().expect("suite queue");
    if !st.barrier_open {
        // Extension-phase stops never re-donate: redistribution is a
        // single deterministic round.
        st.streams[k].released = released;
    }
    st.streams[k].halted = true;
    st.streams[k].complete = true;
    st.finalized += 1;
    if st.finalized == st.streams.len() {
        st.shutdown = true;
        queue.work_cv.notify_all();
    }
    queue.done_cv.notify_all();
}

/// Deterministically split the donated pool across `recipients`
/// (ascending kernel indices): even shares, remainder to the earliest
/// indices, each grant capped at `cap` (one extra base budget). Pool
/// beyond the caps is dropped — redistribution is one round.
fn split_pool(n: usize, recipients: &[usize], pool: usize, cap: usize) -> Vec<usize> {
    let mut grants = vec![0usize; n];
    if recipients.is_empty() || pool == 0 {
        return grants;
    }
    let share = pool / recipients.len();
    let extra = pool % recipients.len();
    for (j, &k) in recipients.iter().enumerate() {
        grants[k] = (share + usize::from(j < extra)).min(cap);
    }
    grants
}

/// The reallocation barrier: every stream has completed its base
/// budget. Compute grants from the (deterministic) base-phase results,
/// persist them, then re-open the recipients' streams and finalize the
/// rest.
fn apply_realloc(e: &Engine, realloc: &Realloc) {
    let (slots, queue) = (&e.slots, &e.queue);
    let (pool, pending): (usize, Vec<usize>) = {
        let st = queue.state.lock().expect("suite queue");
        (
            st.streams.iter().map(|s| s.released).sum(),
            st.streams.iter().enumerate().filter(|(_, s)| s.pending).map(|(k, _)| k).collect(),
        )
    };
    // Recipients: pending streams (ran the full base budget without
    // stopping) that are still exploring — detected kernels under
    // `keep_running` are done, not starving.
    let recipients: Vec<usize> = pending
        .iter()
        .copied()
        .filter(|&k| {
            let live = slots[k].live.lock().expect("slot merge");
            live.as_ref().is_some_and(|sm| sm.m.first_detection.is_none())
        })
        .collect();
    // Every campaign of a suite shares the base budget, which is also
    // the per-kernel grant cap.
    let grants = split_pool(slots.len(), &recipients, pool, slots[0].goat.config().iterations);
    if let Some((path, manifest)) = &realloc.manifest {
        SuiteManifest { grants: Some(grants.clone()), ..manifest.clone() }.store(path);
    }
    let to_finalize: Vec<usize> = {
        let mut st = queue.state.lock().expect("suite queue");
        st.barrier_open = true;
        st.budget_donated = pool;
        st.budget_granted = grants.iter().sum();
        let mut finalize = Vec::new();
        for &k in &pending {
            let s = &mut st.streams[k];
            s.pending = false;
            if grants[k] > 0 {
                s.cutoff += grants[k];
                s.complete = false;
            } else {
                finalize.push(k);
            }
        }
        queue.work_cv.notify_all();
        finalize
    };
    for k in to_finalize {
        finalize_slot(e, k);
    }
}

/// Start one worker on a run host thread, so every in-process run it
/// makes executes inline on it. `first` is an abandoned worker's partial
/// batch, delivered before the first claim. A worker that cannot be
/// started fails the whole call, like a panicking one.
fn spawn_worker(e: &Arc<Engine>, first: Option<Partial>) {
    let progress = Arc::new(StdMutex::new(Progress::default()));
    let on_abandon: goat_runtime::pool::AbandonHook = {
        let (e, progress) = (Arc::clone(e), Arc::clone(&progress));
        Arc::new(move |r| abandon(&e, &progress, r))
    };
    e.queue.state.lock().expect("suite queue").workers += 1;
    let worker = Arc::clone(e);
    let body = move || work(&worker, &progress, first);
    if let Err(reason) = goat_runtime::pool::spawn_host(body, on_abandon) {
        eprintln!("goat: cannot start a campaign worker: {reason}");
        let mut st = e.queue.state.lock().expect("suite queue");
        st.workers -= 1;
        st.shutdown = true;
        st.failed = true;
        e.queue.work_cv.notify_all();
        e.queue.done_cv.notify_all();
    }
}

/// The supervisor abandoned one of this worker's inline runs and built
/// its result `r` (a wedged run: `TimedOut { phase: Wedged }`). The
/// worker is written off; a replacement delivers the oldest claim's
/// finished iterations plus `r`. The unrun rest of that claim and every
/// claim queued behind it go back to the queue, and the lane's worker
/// process is killed.
fn abandon(e: &Arc<Engine>, progress: &StdMutex<Progress>, r: RunResult) {
    let (partial, lane) = {
        let mut p = progress.lock().expect("worker progress");
        p.abandoned = true;
        let mut claims = std::mem::take(&mut p.claims);
        let mut back: Vec<(usize, usize, usize)> = Vec::new();
        let partial = claims.pop_front().map(|c| {
            let mut done = std::mem::take(&mut p.done);
            done.push(r);
            if c.lo + done.len() < c.hi {
                back.push((c.k, c.lo + done.len(), c.hi));
            }
            (c.k, c.lo, done)
        });
        back.extend(claims.iter().map(|c| (c.k, c.lo, c.hi)));
        if !back.is_empty() {
            let mut st = e.queue.state.lock().expect("suite queue");
            for (k, lo, hi) in back {
                st.streams[k].inflight -= hi - lo;
                st.streams[k].returned.push((lo, hi));
            }
            e.queue.work_cv.notify_all();
        }
        (partial, p.lane.take())
    };
    drop(lane);
    spawn_worker(e, partial);
    e.queue.state.lock().expect("suite queue").workers -= 1;
    // The replacement may already have delivered the last iteration and
    // left: then this was the last worker, and the coordinator waiting
    // for the count to reach zero must be told.
    e.queue.done_cv.notify_all();
}

/// Claim until this worker holds its depth of claims: one, or
/// [`LANE_DEPTH`] on a lane, where each new batch's `Run` frames are
/// written to the worker process at once. Blocks in the claim only while
/// it holds none; `false` once the queue shut down and it holds none.
fn top_up(e: &Engine, progress: &StdMutex<Progress>, last: &mut Option<usize>) -> bool {
    loop {
        let held = {
            let p = progress.lock().expect("worker progress");
            let depth = if p.lane.is_some() { LANE_DEPTH } else { 1 };
            if p.claims.len() >= depth {
                return true;
            }
            p.claims.len()
        };
        let t_claim = e.telemetry_on.then(Instant::now);
        let claimed = if held == 0 { e.queue.claim(*last) } else { e.queue.try_claim(*last) };
        let Some((k, lo, hi)) = claimed else { return held > 0 };
        let slot = &e.slots[k];
        if let Some(t) = t_claim {
            slot.claim_wait.record(t.elapsed().as_nanos() as u64);
        }
        *last = Some(k);
        // Arm selection happens at claim time in iteration order; the
        // lag-capped window guarantees the rewards `select(i)` reads
        // are already merged.
        let arms: Vec<Option<Arm>> = (lo..hi).map(|i| Goat::select_arm(&slot.guided, i)).collect();
        let mut p = progress.lock().expect("worker progress");
        if let Some(lane) = p.lane.as_mut() {
            lane.send(slot.program.name(), &slot.goat.batch_runs(lo, &arms));
        }
        p.claims.push_back(Claim { k, lo, hi, arms, t: e.telemetry_on.then(Instant::now) });
    }
}

/// One worker: claim a batch, run it, deliver it — until the queue
/// shuts down.
///
/// Under process isolation the worker holds one worker process (a
/// [`Lane`]) and keeps [`LANE_DEPTH`] batches written to it: it claims
/// and sends the next batch before it supervises and merges the batch it
/// just read, so the worker process runs while the merge does. Every
/// campaign of one call shares its isolation settings (a suite clones one
/// base config).
fn work(e: &Engine, progress: &StdMutex<Progress>, first: Option<Partial>) {
    let _exit = WorkerExit(&e.queue, progress);
    let mut last: Option<usize> = None;
    if let Some((k, lo, results)) = first {
        last = Some(k);
        deliver(e, k, lo, results);
    }
    if let Some(cfg) = e.slots.first().map(|s| s.goat.config()) {
        if cfg.isolate == crate::isolate::IsolateMode::Proc {
            progress.lock().expect("worker progress").lane = Lane::open(cfg.worker_cmd.as_deref());
        }
    }
    while top_up(e, progress, &mut last) {
        let (k, lo, arms, t, read) = {
            let mut p = progress.lock().expect("worker progress");
            let read = p.lane.as_mut().map(Lane::recv);
            if matches!(read, Some(None)) {
                // The worker command broke: the rest runs in-process.
                p.lane = None;
            }
            let c = p.claims.front_mut().expect("top_up holds a claim");
            (c.k, c.lo, std::mem::take(&mut c.arms), c.t, read.flatten())
        };
        let slot = &e.slots[k];
        let mut sink = |r| progress.lock().expect("worker progress").done.push(r);
        match read {
            // Past a halt the results are discarded unmerged: no retry.
            Some(results) if e.queue.halted(k) => results.into_iter().for_each(sink),
            Some(results) => {
                for (j, r) in results.into_iter().enumerate() {
                    sink(slot.goat.supervise_from(lo + j, &slot.program, arms[j], r));
                }
            }
            None => slot.goat.run_batch_supervised(lo, &slot.program, &arms, &mut sink),
        }
        let results = {
            let mut p = progress.lock().expect("worker progress");
            p.claims.pop_front();
            std::mem::take(&mut p.done)
        };
        if let Some(t) = t {
            // Per-iteration share of the batch wall time: one sample
            // per iteration, which the telemetry schema pins.
            let per = t.elapsed().as_nanos() as u64 / arms.len() as u64;
            for _ in 0..arms.len() {
                slot.iter_wall.record(per);
            }
        }
        deliver(e, k, lo, results);
    }
}

/// Run `campaigns` over one work-stealing iteration queue served by
/// `jobs` workers, handing each finished [`CampaignResult`] to `emit`
/// **in campaign order**. Each campaign resumes from its own
/// [`GoatConfig::checkpoint`] exactly as configured; `realloc` turns on
/// adaptive budget reallocation across the campaigns.
///
/// This is the only campaign loop: [`Goat::test`] is a call with one
/// campaign, [`run_suite`] one with every kernel. The returned stats
/// leave `isolate_workers_reused` to the caller.
pub(crate) fn run_campaigns(
    campaigns: Vec<(Goat, Arc<dyn Program>)>,
    jobs: usize,
    realloc: Option<Realloc>,
    emit: &mut dyn FnMut(usize, CampaignResult),
) -> SuiteStats {
    let jobs = jobs.max(1);
    let telemetry_on = goat_metrics::enabled();
    let preset = realloc.as_ref().and_then(|r| r.preset.as_ref());
    let warm = WarmPool { bufs: StdMutex::new(Vec::new()), reused: AtomicU64::new(0) };

    // Build every campaign's slot and stream. Resume happens here,
    // before any worker runs: a campaign whose sidecar says it already
    // stopped (or already spent its budget) starts complete, re-running
    // nothing — that is what keeps resume byte-identical.
    let mut slots: Vec<Slot> = Vec::with_capacity(campaigns.len());
    let mut streams: Vec<Stream> = Vec::with_capacity(campaigns.len());
    let mut init_finalize: Vec<usize> = Vec::new();
    for (k, (goat, program)) in campaigns.into_iter().enumerate() {
        let t0 = telemetry_on.then(Instant::now);
        let name = program.name().to_string();
        let cfg = goat.config();
        let mut m = MergeState::new(Goat::static_model(program.as_ref()));
        // The bandit must exist before resume so a checkpoint's reward
        // history lands back in it.
        m.guided = cfg.guided.then(|| {
            Arc::new(StdMutex::new(Bandit::new(cfg.seed0, cfg.strategy, cfg.delay_bound)))
        });
        let guided = m.guided.clone();
        let ckpt = Checkpointer::new(cfg, &name);
        let start = ckpt.as_ref().map_or(0, |c| c.resume(&mut m));
        let resumed_stopped = m.quarantined.is_some()
            || m.saturated.is_some()
            || (cfg.stop_on_bug && m.bug.is_some())
            || cfg
                .coverage_threshold
                .is_some_and(|th| start > 0 && m.covered.percent(&m.universe) >= th);
        let (window, batch) = claim_shape(cfg, jobs);
        let cutoff = cfg.iterations + preset.map_or(0, |g| g[k]);
        let stream = Stream {
            next: start,
            merged: start,
            cutoff,
            window,
            batch,
            halted: resumed_stopped,
            complete: resumed_stopped || start >= cutoff,
            pending: !resumed_stopped && start >= cutoff && realloc.is_some() && preset.is_none(),
            inflight: 0,
            returned: Vec::new(),
            released: 0,
        };
        slots.push(Slot {
            name,
            program,
            goat,
            guided,
            live: StdMutex::new(Some(SlotMerge {
                m,
                reorder: BTreeMap::new(),
                expect: start,
                halted: resumed_stopped,
                warmed: false,
                ckpt,
                reorder_depth_max: 0,
                t0,
            })),
            done: StdMutex::new(None),
            iter_wall: Histogram::default(),
            claim_wait: Histogram::default(),
        });
        if stream.complete && !stream.pending {
            init_finalize.push(k);
        }
        streams.push(stream);
    }

    let queue = SuiteQueue {
        state: StdMutex::new(QueueState {
            streams,
            cursor: 0,
            finalized: 0,
            barrier_open: realloc.is_none() || preset.is_some(),
            shutdown: slots.is_empty(),
            failed: false,
            workers: 0,
            steals: 0,
            inflight_max: 0,
            budget_donated: 0,
            budget_granted: preset.map_or(0, |g| g.iter().sum()),
        }),
        work_cv: Condvar::new(),
        done_cv: Condvar::new(),
    };
    let e = Arc::new(Engine { slots, queue, warm, telemetry_on });
    for k in init_finalize {
        finalize_slot(&e, k);
    }

    // Workers are detached run hosts, not scoped threads: a worker
    // wedged inside a run is abandoned and replaced, and must not hold
    // up this call.
    for _ in 0..jobs {
        spawn_worker(&e, None);
    }

    // Coordinator: emit finished campaigns in campaign order, open the
    // reallocation barrier when every base phase is done, stop when the
    // queue shuts down and every live worker has left it.
    let mut next_emit = 0usize;
    let mut emit_ready = || {
        while let Some(r) =
            e.slots.get(next_emit).and_then(|s| s.done.lock().expect("slot result").take())
        {
            emit(next_emit, r);
            next_emit += 1;
        }
    };
    loop {
        emit_ready();
        let st = e.queue.state.lock().expect("suite queue");
        if st.shutdown {
            if st.workers == 0 {
                break;
            }
        } else {
            // The barrier opens once every stream is finalized or
            // parked pending: a halted stream only reports its donation
            // when it is finalized, so a merely complete one is not
            // ready yet.
            let pending = st.streams.iter().filter(|s| s.pending).count();
            if !st.barrier_open && st.finalized + pending == st.streams.len() {
                drop(st);
                apply_realloc(&e, realloc.as_ref().expect("barrier implies realloc"));
                continue;
            }
        }
        drop(e.queue.done_cv.wait(st).expect("suite queue"));
    }
    // Campaigns finalized after the last pass above.
    emit_ready();

    let st = e.queue.state.lock().expect("suite queue");
    assert!(!st.failed, "a campaign worker panicked");
    SuiteStats {
        kernels: e.slots.len(),
        jobs,
        steals: st.steals,
        kernels_inflight_max: st.inflight_max,
        budget_donated: st.budget_donated,
        budget_granted: st.budget_granted,
        warm_bufs_reused: e.warm.reused.load(Ordering::Relaxed),
        isolate_workers_reused: 0,
    }
}

/// Run every kernel in `kernels` as one suite over the campaign
/// engine's global work-stealing iteration queue, invoking `emit` once
/// per kernel **in kernel order** with its finished [`CampaignResult`]
/// (the bug trace is recycled after `emit` returns).
///
/// Per-kernel results are byte-identical to running the kernels
/// sequentially with [`Goat::test`], at any [`SuiteConfig::jobs`]
/// value; see the module docs for the determinism argument. With
/// [`GoatConfig::checkpoint`] set, per-kernel sidecars plus a suite
/// manifest make a SIGKILLed suite resume mid-suite.
pub fn run_suite(
    base: &GoatConfig,
    suite: &SuiteConfig,
    kernels: &[Arc<dyn Program>],
    emit: &mut dyn FnMut(usize, &str, &mut CampaignResult),
) -> SuiteStats {
    let jobs = suite.jobs.max(1);
    if kernels.is_empty() {
        return SuiteStats { jobs, ..SuiteStats::default() };
    }
    let reg = goat_metrics::global();
    let isolate_reused_before = reg.counter("isolate.workers_reused").get();
    // Pre-spawn parked goroutine-pool workers so the first claims of a
    // cold process do not all pay thread-creation cost.
    goat_runtime::pool::prewarm(jobs);

    let names: Vec<String> = kernels.iter().map(|p| p.name().to_string()).collect();
    let manifest = base.checkpoint.as_ref().map(|p| {
        let manifest = SuiteManifest {
            version: SUITE_MANIFEST_VERSION,
            fingerprint: suite_fingerprint(base, &names, suite.realloc),
            kernels: names.clone(),
            grants: None,
        };
        (suite_manifest_path(p), manifest)
    });
    let preset: Option<Vec<usize>> = manifest
        .as_ref()
        .filter(|_| suite.realloc)
        .and_then(|(path, m)| SuiteManifest::load(path, &m.fingerprint))
        .and_then(|m| m.grants)
        .filter(|g| g.len() == kernels.len());
    if preset.is_none() {
        if let Some((path, m)) = &manifest {
            m.store(path);
        }
    }
    let campaigns = kernels
        .iter()
        .zip(&names)
        .map(|(program, name)| {
            let mut cfg = base.clone();
            if let Some(bp) = &base.checkpoint {
                cfg.checkpoint = Some(per_kernel_checkpoint(bp, name));
            }
            (Goat::new(cfg), Arc::clone(program))
        })
        .collect();
    let realloc = suite.realloc.then_some(Realloc { preset, manifest });
    let mut stats = run_campaigns(campaigns, jobs, realloc, &mut |k, mut result| {
        emit(k, &names[k], &mut result);
        // Suite mode renders no per-bug trace report, so the bug trace
        // (if any) goes straight back to the recycling pool.
        result.recycle_bug_trace();
    });

    let telemetry_on = goat_metrics::enabled();
    if telemetry_on {
        goat_metrics::set_context(None);
    }
    stats.isolate_workers_reused =
        reg.counter("isolate.workers_reused").get().saturating_sub(isolate_reused_before);
    // The suite is over: the cross-kernel sandbox pool has served its
    // purpose (a lone `-target <kernel>` run drains at campaign end
    // instead — see `drain_idle_workers`).
    crate::isolate::drain_idle_workers();

    reg.gauge("suite.kernels").set(stats.kernels as i64);
    reg.gauge("suite.jobs").set(stats.jobs as i64);
    reg.counter("suite.steals").add(stats.steals);
    reg.gauge("suite.kernels_inflight_max").set(stats.kernels_inflight_max as i64);
    reg.counter("suite.budget_donated").add(stats.budget_donated as u64);
    reg.counter("suite.budget_granted").add(stats.budget_granted as u64);
    reg.counter("suite.warm_bufs_reused").add(stats.warm_bufs_reused);
    reg.counter("suite.isolate_workers_reused").add(stats.isolate_workers_reused);
    if telemetry_on {
        goat_metrics::emit(&SuiteEvent { kind: "suite", suite: stats.clone() });
        goat_metrics::flush();
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::FnProgram;
    use goat_runtime::{go, Chan};

    #[test]
    fn claim_shape_derives_the_ipc_batch_from_the_window() {
        use crate::isolate::IsolateMode;
        let proc = GoatConfig::default().with_isolate(IsolateMode::Proc).with_guided(false);
        // (jobs, window, batch): every worker keeps two batches
        // outstanding, so no worker process sits idle at any job count.
        for (jobs, window, batch) in [(1, 16, 8), (2, 16, 4), (4, 32, 4), (8, 64, 4)] {
            assert_eq!(claim_shape(&proc, jobs), (window, batch), "proc, jobs {jobs}");
        }
        let guided = proc.clone().with_guided(true);
        for (jobs, batch) in [(1, 4), (2, 2), (4, 1), (8, 1), (16, 1)] {
            assert_eq!(claim_shape(&guided, jobs), (GUIDED_LAG, batch), "guided, jobs {jobs}");
        }
        // In-process: one run per claim, `jobs · 4` ahead, as always.
        let off = proc.with_isolate(IsolateMode::Off);
        for jobs in [1, 2, 4] {
            assert_eq!(claim_shape(&off, jobs), (jobs * 4, 1));
            assert_eq!(claim_shape(&off.clone().with_guided(true), jobs), ((jobs * 4).min(8), 1));
        }
    }

    fn leak_kernel(name: &str) -> Arc<dyn Program> {
        Arc::new(FnProgram::new(name, || {
            let ch: Chan<u8> = Chan::new(0);
            go(move || {
                ch.recv();
            });
            goat_runtime::gosched();
        }))
    }

    fn clean_kernel(name: &str) -> Arc<dyn Program> {
        Arc::new(FnProgram::new(name, || {
            let ch: Chan<u8> = Chan::new(1);
            let tx = ch.clone();
            go(move || {
                tx.send(7);
            });
            ch.recv();
        }))
    }

    fn suite_lines(
        base: &GoatConfig,
        suite: &SuiteConfig,
        kernels: &[Arc<dyn Program>],
    ) -> (Vec<String>, SuiteStats) {
        let mut lines = Vec::new();
        let stats = run_suite(base, suite, kernels, &mut |idx, name, result| {
            lines.push(format!(
                "{idx} {name} det={:?} sat={:?} quarantined={:?} n={} cov={:.3} bug={}",
                result.first_detection,
                result.saturated,
                result.quarantined,
                result.records.len(),
                result.coverage_percent(),
                result.bug.as_ref().map(|b| b.to_string()).unwrap_or_default(),
            ));
        });
        (lines, stats)
    }

    fn mixed_kernels() -> Vec<Arc<dyn Program>> {
        vec![
            leak_kernel("suite-leak-a"),
            clean_kernel("suite-clean-b"),
            leak_kernel("suite-leak-c"),
            clean_kernel("suite-clean-d"),
            leak_kernel("suite-leak-e"),
        ]
    }

    #[test]
    fn jobs_do_not_change_suite_output() {
        let base = GoatConfig::default().with_iterations(8).with_delay_bound(1);
        let kernels = mixed_kernels();
        let (seq, _) = suite_lines(&base, &SuiteConfig::default().with_jobs(1), &kernels);
        let (par, stats) = suite_lines(&base, &SuiteConfig::default().with_jobs(4), &kernels);
        assert_eq!(seq, par, "jobs=4 suite output diverged from jobs=1");
        assert_eq!(stats.kernels, kernels.len());
        // The detecting kernels must have detected in both.
        assert!(seq.iter().filter(|l| l.contains("det=Some")).count() >= 3, "{seq:?}");
    }

    #[test]
    fn suite_matches_sequential_goat_test() {
        let base = GoatConfig::default().with_iterations(6).with_delay_bound(1);
        let kernels = mixed_kernels();
        let mut reference = Vec::new();
        for p in &kernels {
            let mut r = Goat::new(base.clone()).test(Arc::clone(p));
            r.recycle_bug_trace();
            reference.push(serde_json::to_string(&r.summary()).expect("summary json"));
        }
        let mut suite_json = Vec::new();
        run_suite(&base, &SuiteConfig::default().with_jobs(3), &kernels, &mut |_, _, result| {
            suite_json.push(serde_json::to_string(&result.summary()).expect("summary json"));
        });
        assert_eq!(reference, suite_json, "suite summaries diverged from Goat::test");
    }

    #[test]
    fn realloc_extends_still_exploring_kernels_deterministically() {
        // Early stoppers (stop_on_bug leaks) donate; the clean kernels
        // run their full budget and split the pool.
        let base = GoatConfig::default().with_iterations(10).with_delay_bound(1);
        let kernels = mixed_kernels();
        let suite1 = SuiteConfig::default().with_jobs(1).with_realloc(true);
        let suite4 = SuiteConfig::default().with_jobs(4).with_realloc(true);
        let (seq, s1) = suite_lines(&base, &suite1, &kernels);
        let (par, s4) = suite_lines(&base, &suite4, &kernels);
        assert_eq!(seq, par, "realloc suite output diverged across jobs");
        assert_eq!(s1.budget_donated, s4.budget_donated);
        assert_eq!(s1.budget_granted, s4.budget_granted);
        assert!(s1.budget_donated > 0, "leak kernels should stop early and donate");
        assert!(s1.budget_granted > 0, "clean kernels should draw from the pool");
        // A recipient's extension shows up as records beyond the base
        // budget on the clean kernels.
        let extended = seq.iter().filter(|l| l.contains("clean") && !l.contains(" n=10 ")).count();
        assert!(extended > 0, "no clean kernel ran an extension: {seq:?}");
    }

    #[test]
    fn realloc_grant_equals_standalone_bigger_budget() {
        // One donor, one recipient: the recipient's extended campaign
        // must be byte-identical to a standalone campaign whose budget
        // was base + grant from the start.
        let base = GoatConfig::default().with_iterations(9).with_delay_bound(1);
        let kernels: Vec<Arc<dyn Program>> =
            vec![leak_kernel("realloc-donor"), clean_kernel("realloc-recipient")];
        let mut grant = None;
        let mut extended_summary = None;
        run_suite(
            &base,
            &SuiteConfig::default().with_jobs(2).with_realloc(true),
            &kernels,
            &mut |idx, _, result| {
                if idx == 1 {
                    grant = Some(result.records.len() - 9);
                    extended_summary =
                        Some(serde_json::to_string(&result.summary()).expect("json"));
                }
            },
        );
        let grant = grant.expect("recipient emitted");
        assert!(grant > 0, "recipient should have been granted budget");
        let mut standalone =
            Goat::new(base.clone().with_iterations(9 + grant)).test(Arc::clone(&kernels[1]));
        standalone.recycle_bug_trace();
        assert_eq!(
            extended_summary.unwrap(),
            serde_json::to_string(&standalone.summary()).expect("json"),
            "extension diverged from a standalone campaign with the same total budget"
        );
    }

    #[test]
    fn warm_scratch_is_recycled_across_kernels() {
        let base = GoatConfig::default().with_iterations(4).with_delay_bound(1);
        let kernels = mixed_kernels();
        let (_, warm) = suite_lines(&base, &SuiteConfig::default().with_jobs(1), &kernels);
        assert!(
            warm.warm_bufs_reused >= 1,
            "sequential suite should chain scratch across kernels, got {}",
            warm.warm_bufs_reused
        );
    }

    #[test]
    fn emit_order_is_kernel_order_regardless_of_completion_order() {
        let base = GoatConfig::default().with_iterations(12).with_delay_bound(1);
        let kernels = mixed_kernels();
        let mut order = Vec::new();
        run_suite(&base, &SuiteConfig::default().with_jobs(4), &kernels, &mut |idx, _, _| {
            order.push(idx);
        });
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn suite_resume_from_sidecars_is_byte_identical() {
        let dir = std::env::temp_dir().join(format!("goat-suite-resume-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmpdir");
        let ckpt = dir.join("cp.json");
        let kernels = mixed_kernels();
        let base = GoatConfig::default().with_iterations(8).with_delay_bound(1);
        let (reference, _) = suite_lines(&base, &SuiteConfig::default().with_jobs(2), &kernels);
        // First pass with checkpointing: writes every kernel's sidecar
        // plus the suite manifest.
        let with_ckpt = base.clone().with_checkpoint(&ckpt).with_checkpoint_every(1);
        let (first, _) = suite_lines(&with_ckpt, &SuiteConfig::default().with_jobs(2), &kernels);
        assert_eq!(reference, first);
        assert!(suite_manifest_path(&ckpt).exists(), "suite manifest missing");
        // Second pass resumes everything as already-complete and must
        // replay the identical output without re-running.
        let (resumed, _) = suite_lines(&with_ckpt, &SuiteConfig::default().with_jobs(4), &kernels);
        assert_eq!(reference, resumed, "resumed suite output diverged");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn split_pool_is_even_capped_and_ordered() {
        // 3 recipients, pool 11: 4/4/3 with the remainder to the
        // earliest indices.
        assert_eq!(split_pool(5, &[0, 2, 4], 11, 100), vec![4, 0, 4, 0, 3]);
        // Caps clamp each grant; excess is dropped.
        assert_eq!(split_pool(3, &[1, 2], 50, 10), vec![0, 10, 10]);
        // Degenerate cases.
        assert_eq!(split_pool(2, &[], 7, 10), vec![0, 0]);
        assert_eq!(split_pool(2, &[0], 0, 10), vec![0, 0]);
    }

    #[test]
    fn per_kernel_checkpoint_paths_are_distinct() {
        let base = Path::new("/tmp/cp.json");
        assert_eq!(per_kernel_checkpoint(base, "moby28462"), Path::new("/tmp/cp.moby28462.json"));
        let bare = Path::new("/tmp/cp");
        assert_eq!(per_kernel_checkpoint(bare, "etcd6873"), Path::new("/tmp/cp.etcd6873"));
        assert_ne!(
            per_kernel_checkpoint(base, "moby28462"),
            per_kernel_checkpoint(base, "etcd6873")
        );
        assert_eq!(suite_manifest_path(base), Path::new("/tmp/cp.suite.json"));
    }

    #[test]
    fn steal_accounting_counts_kernel_switches() {
        // One worker over several kernels must switch streams as each
        // completes: every switch after the first claim is a steal.
        let base = GoatConfig::default().with_iterations(4).with_delay_bound(1);
        let kernels = mixed_kernels();
        let (_, stats) = suite_lines(&base, &SuiteConfig::default().with_jobs(1), &kernels);
        assert!(
            stats.steals >= kernels.len() as u64 - 1,
            "expected at least one steal per kernel transition, got {}",
            stats.steals
        );
        assert!(stats.kernels_inflight_max >= 1);
    }

    #[test]
    fn quarantined_kernels_neither_donate_nor_receive() {
        // Under `keep_running`, a kernel whose every iteration panics
        // is quarantined after 2 consecutive crashes: it halts early
        // but must donate nothing (its skips are forfeited, not
        // banked), and the detected leak kernel must receive nothing —
        // so the realloc pool stays empty and no stream extends.
        let crash = Arc::new(FnProgram::new("suite-crash", || {
            panic!("deliberate suite test crash");
        })) as Arc<dyn Program>;
        let kernels: Vec<Arc<dyn Program>> =
            vec![leak_kernel("q-detected"), crash, clean_kernel("q-clean")];
        let base = GoatConfig::default()
            .with_iterations(8)
            .with_delay_bound(1)
            .keep_running()
            .with_quarantine_crashes(2);
        let (seq, s1) =
            suite_lines(&base, &SuiteConfig::default().with_jobs(1).with_realloc(true), &kernels);
        let (par, s4) =
            suite_lines(&base, &SuiteConfig::default().with_jobs(3).with_realloc(true), &kernels);
        assert_eq!(seq, par);
        assert!(seq[1].contains("quarantined=Some"), "{:?}", seq[1]);
        assert_eq!(s1.budget_donated, 0, "quarantine skips must not be donated");
        assert_eq!(s1.budget_donated, s4.budget_donated);
        assert_eq!(s1.budget_granted, 0, "empty pool must grant nothing");
        // Nobody extended: full-budget kernels report exactly 8 records.
        assert!(seq[0].contains(" n=8 "), "{:?}", seq[0]);
        assert!(seq[2].contains(" n=8 "), "{:?}", seq[2]);
    }
}
