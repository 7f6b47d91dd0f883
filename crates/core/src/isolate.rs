//! Out-of-process run isolation (`GOAT_ISOLATE=proc`): worker sandbox,
//! crash forensics, and resource jails.
//!
//! In the default mode every iteration executes inside the campaign
//! process; a kernel that segfaults, aborts, or chews through all
//! memory takes the whole campaign (and its merge state) down with it.
//! With `GOAT_ISOLATE=proc` the runner instead drives a pool of
//! persistent **worker subprocesses** — one `goat --worker` child per
//! parallel lane — over the binary frame protocol of [`crate::wire`] on
//! stdin/stdout. Every frame is `[u32 LE payload length][tag][fields…]`:
//! a per-checkout `Init` frame carries the campaign-constant [`Config`]
//! base once, each `Run` frame carries only the per-run delta (seed,
//! delay bound, yield probability, strategy), and result traces travel
//! through the varint-delta event codec of [`goat_trace::wire`].
//!
//! ```text
//!   orchestrator                       worker
//!        | ---- spawn `goat --worker` --> |   (rlimit jail applied)
//!        | <--------- Ready ------------- |   handshake
//!        | ---- Init{program, base} ----> |   (once per checkout, and
//!        |                                |    again when the base changes)
//!        | ---- Run{iter, delta} ×batch > |   (GOAT_IPC_BATCH per write)
//!        | <--------- Ack{iter} --------- |   (transport latency sample)
//!        | <-------- Heartbeat{iter} ---- |   every GOAT_WORKER_HEARTBEAT_MS
//!        | <----- Result{iter, result} -- |   one per Run, in order
//! ```
//!
//! Every knob travels from the orchestrator (in `Init` + `Run`), so a
//! worker cannot skew a run through its own environment: for
//! non-crashing runs the [`RunResult`] coming back is **byte-identical**
//! to an in-process run of the same seed at any batch size (proven in
//! `tests/determinism.rs`), and campaign reports are unchanged.
//!
//! Supervision is enforced from *outside* the sandbox: the orchestrator
//! demands some frame (ack, heartbeat, or result) within
//! `GOAT_WORKER_GRACE_MS`; silence means the worker is wedged and it is
//! SIGKILLed. A worker that dies — by signal, abort, rlimit kill, or
//! missed heartbeats — is autopsied into [`CrashForensics`] (exit
//! status or signal, stderr tail, last acknowledged iteration) and the
//! run is recorded as [`RunOutcome::Crashed`]; the campaign replaces
//! the worker and carries on. Corrupt frames (a length prefix over the
//! 64 MiB [`MAX_FRAME`] cap, undecodable payloads) and protocol
//! violations are retried InfraFailures.
//!
//! Workers jail themselves at startup with `setrlimit`: core dumps are
//! disabled, the address space is capped (`GOAT_WORKER_RLIMIT_AS_MB`,
//! default 4096, `0` = unlimited), and an optional CPU-time ceiling
//! (`GOAT_WORKER_RLIMIT_CPU_S`, default off) converts runaway spins
//! into a clean `SIGXCPU` death with forensics.
//!
//! Isolation degrades gracefully: if the worker command cannot be
//! spawned or never completes the `Ready` handshake (e.g. the embedding
//! binary has no `--worker` mode), the command is marked broken once
//! and every run transparently falls back in-process — sound precisely
//! because the two modes produce identical bytes.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{self, BufRead, ErrorKind, Read, Write};
use std::process::{Child, ChildStdin, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::program::Program;
use crate::wire::{self, WireFrame};
use goat_runtime::faultpoint::{self, WorkerFault};
use goat_runtime::{Config, CrashForensics, RunOutcome, RunResult, SchedCounters, StrategyKind};

/// Environment variable selecting the isolation mode (`off` | `proc`).
pub const ISOLATE_ENV: &str = "GOAT_ISOLATE";

/// Environment variable setting how many `Run` frames the orchestrator
/// sends per write (default 1; capped by the guided-campaign lag).
pub const IPC_BATCH_ENV: &str = "GOAT_IPC_BATCH";

/// Environment variable naming the worker command to spawn (defaults to
/// the current executable, which works for the `goat` CLI).
pub const WORKER_CMD_ENV: &str = "GOAT_WORKER_CMD";

/// Environment variable setting the worker heartbeat period in
/// milliseconds (default 100).
pub const HEARTBEAT_MS_ENV: &str = "GOAT_WORKER_HEARTBEAT_MS";

/// Environment variable setting how long the orchestrator tolerates
/// frame silence (no ack/heartbeat/result) before SIGKILLing a worker,
/// in milliseconds (default 5000).
pub const GRACE_MS_ENV: &str = "GOAT_WORKER_GRACE_MS";

/// Environment variable setting the spawn-to-`Ready` handshake deadline
/// in milliseconds (default 10000).
pub const SPAWN_GRACE_MS_ENV: &str = "GOAT_WORKER_SPAWN_GRACE_MS";

/// Environment variable capping the worker address space in MiB
/// (default 4096; `0` disables the cap).
pub const RLIMIT_AS_MB_ENV: &str = "GOAT_WORKER_RLIMIT_AS_MB";

/// Environment variable capping worker CPU seconds (default `0` = off;
/// exceeding it kills the worker with `SIGXCPU`).
pub const RLIMIT_CPU_S_ENV: &str = "GOAT_WORKER_RLIMIT_CPU_S";

/// Stderr lines retained per worker for crash forensics.
const STDERR_TAIL_LINES: usize = 40;

/// First allocation when reading a frame payload: even a corrupt
/// length prefix under the cap cannot force a giant upfront
/// allocation, because the buffer grows only as bytes actually arrive.
const READ_CHUNK: usize = 1024 * 1024;

/// The frame-payload cap: a length prefix above it is treated as a
/// corrupt stream, never as an allocation request.
pub(crate) const MAX_FRAME: usize = 64 << 20;

/// Where iterations execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IsolateMode {
    /// In-process (the historical behaviour, and the default).
    #[default]
    Off,
    /// Each run executes inside a sandboxed worker subprocess.
    Proc,
}

impl IsolateMode {
    /// Parse a mode string (`off`/`0` → [`IsolateMode::Off`],
    /// `proc`/`process`/`1` → [`IsolateMode::Proc`]).
    pub fn parse(s: &str) -> Option<IsolateMode> {
        match s.trim().to_ascii_lowercase().as_str() {
            "" | "off" | "0" => Some(IsolateMode::Off),
            "proc" | "process" | "1" => Some(IsolateMode::Proc),
            _ => None,
        }
    }

    /// The mode selected by [`ISOLATE_ENV`]; unset or unrecognized
    /// values mean [`IsolateMode::Off`].
    pub fn from_env() -> IsolateMode {
        std::env::var(ISOLATE_ENV).ok().and_then(|v| IsolateMode::parse(&v)).unwrap_or_default()
    }
}

impl std::fmt::Display for IsolateMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IsolateMode::Off => write!(f, "off"),
            IsolateMode::Proc => write!(f, "proc"),
        }
    }
}

/// Read one frame payload (the bytes after the length prefix).
/// [`ErrorKind::UnexpectedEof`] means the peer is gone,
/// [`ErrorKind::InvalidData`] means the length prefix exceeds
/// [`MAX_FRAME`]. The length is validated *before* any allocation, and
/// the buffer then grows only as bytes actually arrive, so a corrupt
/// under-cap prefix cannot force a giant upfront allocation.
pub(crate) fn read_payload(r: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    let mut payload = Vec::with_capacity(len.min(READ_CHUNK));
    let got = r.take(len as u64).read_to_end(&mut payload)?;
    if got < len {
        return Err(io::Error::new(
            ErrorKind::UnexpectedEof,
            format!("frame truncated: {got} of {len} bytes"),
        ));
    }
    Ok(payload)
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.trim().parse().ok()).unwrap_or(default)
}

fn heartbeat_ms() -> u64 {
    env_u64(HEARTBEAT_MS_ENV, 100).max(1)
}

fn grace_ms() -> u64 {
    env_u64(GRACE_MS_ENV, 5000).max(1)
}

fn spawn_grace_ms() -> u64 {
    env_u64(SPAWN_GRACE_MS_ENV, 10_000).max(1)
}

/// Resource jail and fault raising via raw libc calls (no crates).
#[cfg(unix)]
mod sys {
    /// `struct rlimit`: soft and hard limits, both `rlim_t` (u64 on the
    /// 64-bit platforms we target).
    #[repr(C)]
    struct RLimit {
        cur: u64,
        max: u64,
    }

    extern "C" {
        fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
        fn raise(sig: i32) -> i32;
        fn signal(sig: i32, handler: usize) -> usize;
    }

    /// `SIG_DFL`: the default disposition.
    const SIG_DFL: usize = 0;

    #[cfg(target_os = "macos")]
    const RLIMIT_AS: i32 = 5;
    #[cfg(not(target_os = "macos"))]
    const RLIMIT_AS: i32 = 9;
    const RLIMIT_CPU: i32 = 0;
    const RLIMIT_CORE: i32 = 4;

    fn set(resource: i32, limit: u64) {
        let rl = RLimit { cur: limit, max: limit };
        // A failed setrlimit (e.g. raising above a container hard cap)
        // leaves the inherited limit in place; the jail is best-effort.
        unsafe {
            setrlimit(resource, &rl);
        }
    }

    /// Apply the worker jail: no core dumps (forensics come from stderr
    /// and exit status, not core files), a capped address space, and an
    /// optional CPU-seconds ceiling.
    pub fn apply_rlimits() {
        set(RLIMIT_CORE, 0);
        let as_mb = super::env_u64(super::RLIMIT_AS_MB_ENV, 4096);
        if as_mb > 0 {
            set(RLIMIT_AS, as_mb.saturating_mul(1024 * 1024));
        }
        let cpu_s = super::env_u64(super::RLIMIT_CPU_S_ENV, 0);
        if cpu_s > 0 {
            set(RLIMIT_CPU, cpu_s);
        }
    }

    /// Deliver `sig` to the calling process with its *default*
    /// disposition (fault injection): the Rust runtime installs its own
    /// SIGSEGV handler for stack-overflow detection, which would
    /// otherwise swallow a raised fault signal.
    pub fn raise_signal(sig: i32) {
        unsafe {
            signal(sig, SIG_DFL);
            raise(sig);
        }
    }
}

#[cfg(not(unix))]
mod sys {
    pub fn apply_rlimits() {}
    pub fn raise_signal(_sig: i32) {}
}

/// Human name for the signals a worker plausibly dies from.
fn signal_name(sig: i32) -> &'static str {
    match sig {
        4 => "SIGILL",
        6 => "SIGABRT",
        7 => "SIGBUS",
        8 => "SIGFPE",
        9 => "SIGKILL",
        11 => "SIGSEGV",
        24 => "SIGXCPU",
        _ => "unknown",
    }
}

#[cfg(unix)]
fn status_signal(status: &ExitStatus) -> Option<i32> {
    std::os::unix::process::ExitStatusExt::signal(status)
}

#[cfg(not(unix))]
fn status_signal(_status: &ExitStatus) -> Option<i32> {
    None
}

/// A [`RunResult`] synthesized by the orchestrator when the worker
/// never produced one (death or protocol corruption). Carries the
/// neutral fingerprint seed so memoization never confuses it with a
/// real execution.
fn synth_result(outcome: RunOutcome) -> RunResult {
    RunResult {
        outcome,
        ect: None,
        steps: 0,
        vclock: goat_trace::VTime(0),
        goroutines: 0,
        yields_injected: 0,
        priority_changes: 0,
        alive_at_end: Vec::new(),
        schedule: goat_runtime::ReplayLog::default(),
        replay_diverged: false,
        sched: SchedCounters::default(),
        fingerprint: goat_trace::tracebuf::FP_SEED,
        panic_detail: None,
    }
}

fn infra(reason: impl Into<String>) -> RunResult {
    synth_result(RunOutcome::InfraFailure { reason: reason.into() })
}

fn write_frame_locked(out: &Arc<Mutex<io::Stdout>>, frame: &WireFrame) -> io::Result<()> {
    let mut buf = Vec::with_capacity(24);
    wire::encode_frame_into(frame, &mut buf)?;
    let mut out = out.lock().expect("worker stdout lock");
    out.write_all(&buf)?;
    out.flush()
}

/// How an injected worker fault redirects the serve loop.
enum FaultFlow {
    /// No fault (or it already happened to someone else's seed).
    Proceed,
    /// A garbage frame was emitted instead of serving the run.
    SkipRun,
    /// The worker must exit with this code (non-fatal raised signal).
    Exit(i32),
}

/// Fire any `GOAT_FAULT=worker:…` fault keyed on this run's seed.
fn worker_fault_flow(
    stdout: &Arc<Mutex<io::Stdout>>,
    muted: &AtomicBool,
    iter: u64,
    seed: u64,
) -> FaultFlow {
    match faultpoint::worker_fault(seed) {
        Some(WorkerFault::Kill(sig)) => {
            muted.store(true, Ordering::Relaxed);
            eprintln!(
                "goat-worker: injected fault: raising signal {sig} ({}) on iter {iter} seed {seed}",
                signal_name(sig),
            );
            sys::raise_signal(sig);
            // Only reached when `sig` was non-fatal (e.g. ignored).
            FaultFlow::Exit(70)
        }
        Some(WorkerFault::Wedge) => {
            muted.store(true, Ordering::Relaxed);
            eprintln!(
                "goat-worker: injected fault: wedging without ack on iter {iter} seed {seed}"
            );
            loop {
                std::thread::sleep(Duration::from_secs(3600));
            }
        }
        Some(WorkerFault::Garbage) => {
            eprintln!(
                "goat-worker: injected fault: emitting garbage frame on iter {iter} seed {seed}"
            );
            let mut out = stdout.lock().expect("worker stdout lock");
            // An impossible length prefix: decoded as a corrupt stream,
            // never as an allocation request.
            let _ = out.write_all(&[0xff, 0xff, 0xff, 0xff, 0xde, 0xad, 0xbe, 0xef]);
            let _ = out.flush();
            drop(out);
            FaultFlow::SkipRun
        }
        None => FaultFlow::Proceed,
    }
}

/// Serve the worker side of the protocol on stdin/stdout until the
/// orchestrator closes the pipe; returns the process exit code.
///
/// `resolve` maps the program name from an `Init` frame to the program
/// to execute (the CLI passes the goker kernel registry). The worker
/// jails itself with `setrlimit` before answering `Ready`, streams
/// `Heartbeat` frames from a side thread, and answers every `Run` with
/// `Ack` + `Result`. Injected worker faults (`GOAT_FAULT=worker:…`)
/// fire here, keyed on the run's seed.
pub fn serve_worker(resolve: &dyn Fn(&str) -> Option<Arc<dyn Program>>) -> i32 {
    sys::apply_rlimits();
    let stdout = Arc::new(Mutex::new(io::stdout()));
    let current_iter = Arc::new(AtomicU64::new(0));
    // Set when an injected fault must silence the liveness beacon so
    // the orchestrator's no-heartbeat watchdog can be exercised.
    let muted = Arc::new(AtomicBool::new(false));
    if write_frame_locked(&stdout, &WireFrame::Ready).is_err() {
        return 1;
    }
    {
        let stdout = Arc::clone(&stdout);
        let current_iter = Arc::clone(&current_iter);
        let muted = Arc::clone(&muted);
        let _ =
            std::thread::Builder::new().name("goat-worker-heartbeat".into()).spawn(move || loop {
                std::thread::sleep(Duration::from_millis(heartbeat_ms()));
                if muted.load(Ordering::Relaxed) {
                    continue;
                }
                let iter = current_iter.load(Ordering::Relaxed);
                if write_frame_locked(&stdout, &WireFrame::Heartbeat { iter }).is_err() {
                    return;
                }
            });
    }
    let mut stdin = io::stdin().lock();
    let mut program: Option<String> = None;
    let mut base: Option<Config> = None;
    loop {
        let frame = match read_payload(&mut stdin).and_then(|p| wire::decode_frame(&p)) {
            Ok(f) => f,
            Err(e) if e.kind() == ErrorKind::UnexpectedEof => return 0,
            Err(e) => {
                eprintln!("goat-worker: protocol error on stdin: {e}");
                return 1;
            }
        };
        match frame {
            WireFrame::Init { program: p, base: b } => {
                program = Some(p);
                base = Some(*b);
            }
            WireFrame::Run { iter, seed, delay_bound, yield_prob, strategy } => {
                let (Some(program), Some(base)) = (&program, &base) else {
                    eprintln!("goat-worker: Run frame before Init");
                    return 1;
                };
                match worker_fault_flow(&stdout, &muted, iter, seed) {
                    FaultFlow::Exit(code) => return code,
                    FaultFlow::SkipRun => continue,
                    FaultFlow::Proceed => {}
                }
                current_iter.store(iter, Ordering::Relaxed);
                if write_frame_locked(&stdout, &WireFrame::Ack { iter }).is_err() {
                    return 1;
                }
                let mut cfg = base.clone();
                cfg.seed = seed;
                cfg.delay_bound = delay_bound;
                cfg.yield_prob = yield_prob;
                cfg.strategy = strategy;
                let result = match resolve(program) {
                    Some(p) => {
                        goat_runtime::Runtime::run(cfg, crate::runner::Goat::instrumented(p))
                    }
                    None => infra(format!("worker: unknown program {program:?}")),
                };
                let frame = WireFrame::Result { iter, result: Box::new(result) };
                if write_frame_locked(&stdout, &frame).is_err() {
                    return 1;
                }
            }
            other => {
                eprintln!("goat-worker: unexpected frame {other:?} (expected Init/Run)");
                return 1;
            }
        }
    }
}

/// What the reader thread saw on a worker's stdout (already decoded, so
/// decode time lands in the reader thread, off the orchestrator's
/// merge path).
enum Event {
    /// The startup handshake.
    Ready,
    /// A `Run` frame was received by the worker.
    Ack(u64),
    /// Liveness beacon.
    Heartbeat,
    /// A complete result.
    Result {
        /// Iteration the result belongs to.
        iter: u64,
        /// The decoded result (boxed: dwarfs the other variants).
        result: Box<RunResult>,
    },
    /// A well-formed frame that makes no sense from a worker.
    Unexpected(String),
    /// The stream is corrupt (oversized/undecodable frame).
    Corrupt(String),
    /// The worker closed its stdout (it is dead or dying).
    Eof,
}

/// Orchestrator-side handle on one live worker subprocess.
struct Worker {
    child: Child,
    stdin: ChildStdin,
    events: mpsc::Receiver<Event>,
    stderr_tail: Arc<Mutex<VecDeque<String>>>,
    /// Runs served so far (reuse accounting).
    runs: u64,
    /// Hash of the `Init` state (program, base config, fault plan) the
    /// worker currently holds; `None` until the first `Init` is sent. A
    /// mismatch forces a fresh `Init`, so stale worker state can never
    /// leak across campaigns.
    init_hash: Option<u64>,
}

/// Pool of idle workers plus the set of commands that failed to spawn
/// or handshake; broken commands fall back in-process forever (and are
/// reported once).
///
/// Idle workers are keyed by command *and* the fault plan that was
/// active at spawn time (the plan travels in the worker's environment),
/// so a worker spawned under one `GOAT_FAULT` configuration is never
/// reused by a campaign running under another.
#[derive(Default)]
struct PoolState {
    idle: HashMap<String, Vec<Worker>>,
    broken: HashSet<String>,
}

fn pool_key(cmd: &str) -> String {
    let fault = faultpoint::current_spec().unwrap_or_default();
    format!("{cmd}\u{1f}{fault}")
}

fn pool() -> &'static Mutex<PoolState> {
    static POOL: OnceLock<Mutex<PoolState>> = OnceLock::new();
    POOL.get_or_init(Mutex::default)
}

fn mark_broken(cmd: &str, err: &str) {
    let mut st = pool().lock().expect("worker pool lock");
    if st.broken.insert(cmd.to_string()) {
        eprintln!(
            "goat: process isolation unavailable for worker command {cmd:?} ({err}); \
             falling back to in-process runs"
        );
    }
}

/// Spawn one worker and complete the `Ready` handshake.
fn spawn_worker(cmd: &str) -> Result<Worker, String> {
    let mut command = Command::new(cmd);
    command
        .arg("--worker")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        // Campaign-level concerns stay in the orchestrator: a worker
        // must not write checkpoints or telemetry, must never isolate
        // recursively, and takes its batches from the orchestrator.
        .env_remove("GOAT_TELEMETRY")
        .env_remove("GOAT_CHECKPOINT")
        .env_remove(ISOLATE_ENV)
        .env_remove(IPC_BATCH_ENV);
    // Scoped fault plans only exist in this process; propagate the
    // active spec so `faultpoint::scoped` test plans reach the worker.
    match faultpoint::current_spec() {
        Some(spec) => {
            command.env("GOAT_FAULT", spec);
        }
        None => {
            command.env_remove("GOAT_FAULT");
        }
    }
    let mut child = command.spawn().map_err(|e| format!("spawn {cmd:?}: {e}"))?;
    let stdin = child.stdin.take().expect("piped stdin");
    let mut stdout = child.stdout.take().expect("piped stdout");
    let stderr = child.stderr.take().expect("piped stderr");
    let (tx, rx) = mpsc::channel();
    let _ = std::thread::Builder::new().name("goat-worker-reader".into()).spawn(move || loop {
        let payload = match read_payload(&mut stdout) {
            Ok(p) => p,
            Err(e) if e.kind() == ErrorKind::UnexpectedEof => {
                let _ = tx.send(Event::Eof);
                return;
            }
            Err(e) => {
                let _ = tx.send(Event::Corrupt(e.to_string()));
                return;
            }
        };
        goat_metrics::global().counter("isolate.ipc_bytes_rx").add(4 + payload.len() as u64);
        let decode_started = Instant::now();
        let event = match wire::decode_frame(&payload) {
            Ok(WireFrame::Ready) => Event::Ready,
            Ok(WireFrame::Ack { iter }) => Event::Ack(iter),
            Ok(WireFrame::Heartbeat { .. }) => Event::Heartbeat,
            Ok(WireFrame::Result { iter, result }) => {
                goat_metrics::global()
                    .histogram("isolate.ipc_deser_ns")
                    .record(decode_started.elapsed().as_nanos() as u64);
                Event::Result { iter, result }
            }
            Ok(f) => Event::Unexpected(format!("{f:?}")),
            Err(e) => {
                let _ = tx.send(Event::Corrupt(e.to_string()));
                return;
            }
        };
        if tx.send(event).is_err() {
            return;
        }
    });
    let stderr_tail = Arc::new(Mutex::new(VecDeque::new()));
    {
        let stderr_tail = Arc::clone(&stderr_tail);
        let _ = std::thread::Builder::new().name("goat-worker-stderr".into()).spawn(move || {
            for line in io::BufReader::new(stderr).lines() {
                let Ok(line) = line else { return };
                let mut tail = stderr_tail.lock().expect("stderr tail lock");
                if tail.len() >= STDERR_TAIL_LINES {
                    tail.pop_front();
                }
                tail.push_back(line);
            }
        });
    }
    match rx.recv_timeout(Duration::from_millis(spawn_grace_ms())) {
        Ok(Event::Ready) => {}
        other => {
            let _ = child.kill();
            let _ = child.wait();
            let what = match other {
                Ok(Event::Corrupt(e)) => format!("sent a corrupt handshake: {e}"),
                Ok(Event::Eof) => "exited before completing the Ready handshake".to_string(),
                Ok(_) => "answered with a non-Ready frame".to_string(),
                Err(_) => "never completed the Ready handshake".to_string(),
            };
            return Err(what);
        }
    }
    goat_metrics::global().counter("isolate.workers_spawned").inc();
    Ok(Worker { child, stdin, events: rx, stderr_tail, runs: 0, init_hash: None })
}

/// SIGKILL a misbehaving worker and reap it.
fn kill_worker(worker: &mut Worker) {
    let _ = worker.child.kill();
    let _ = worker.child.wait();
    goat_metrics::global().counter("isolate.workers_killed").inc();
}

/// Reap a worker that died on its own and collect the post-mortem.
fn autopsy(
    worker: &mut Worker,
    last_ack_iter: Option<u64>,
    no_heartbeat: Option<Duration>,
) -> CrashForensics {
    let status = worker.child.wait().ok();
    // Give the stderr drain thread a beat to pull the final lines out
    // of the (now closed) pipe before snapshotting the tail.
    std::thread::sleep(Duration::from_millis(50));
    let stderr_tail = {
        let tail = worker.stderr_tail.lock().expect("stderr tail lock");
        tail.iter().cloned().collect::<Vec<_>>().join("\n")
    };
    let signal = status.as_ref().and_then(status_signal);
    let exit_code = status.as_ref().and_then(ExitStatus::code);
    let summary = if let Some(grace) = no_heartbeat {
        format!("no heartbeat within {} ms; killed", grace.as_millis())
    } else if let Some(sig) = signal {
        format!("killed by signal {sig} ({})", signal_name(sig))
    } else if let Some(code) = exit_code {
        format!("exited with code {code}")
    } else {
        "died with unknown status".to_string()
    };
    CrashForensics { signal, exit_code, stderr_tail, last_ack_iter, summary }
}

/// Take an idle pooled worker for `cmd`, or spawn a fresh one. `None`
/// means the command is (now) broken and the caller must fall back.
fn checkout(cmd: &str) -> Option<Worker> {
    let key = pool_key(cmd);
    loop {
        let mut st = pool().lock().expect("worker pool lock");
        if st.broken.contains(cmd) {
            return None;
        }
        let Some(mut worker) = st.idle.get_mut(&key).and_then(Vec::pop) else {
            drop(st);
            return match spawn_worker(cmd) {
                Ok(w) => Some(w),
                Err(e) => {
                    mark_broken(cmd, &e);
                    None
                }
            };
        };
        drop(st);
        // Drain queued idle heartbeats; Eof/Corrupt/protocol junk in
        // the backlog (or an exited child) means the worker died or
        // went insane while pooled.
        let mut dead = false;
        loop {
            match worker.events.try_recv() {
                Ok(Event::Eof | Event::Corrupt(_) | Event::Unexpected(_)) => {
                    dead = true;
                    break;
                }
                Ok(_) => continue,
                Err(_) => break,
            }
        }
        if dead || worker.child.try_wait().map(|s| s.is_some()).unwrap_or(true) {
            let _ = worker.child.wait();
            goat_metrics::global().counter("isolate.workers_died").inc();
            continue;
        }
        goat_metrics::global().counter("isolate.workers_reused").inc();
        return Some(worker);
    }
}

/// Return a healthy worker to the idle pool.
fn checkin(cmd: &str, worker: Worker) {
    let mut st = pool().lock().expect("worker pool lock");
    st.idle.entry(pool_key(cmd)).or_default().push(worker);
}

/// Kill and reap every idle pooled worker, returning how many were
/// drained (counted in `isolate.workers_drained`).
///
/// Campaign teardown: a lone `-target <kernel>` invocation drains on
/// exit so no sandbox subprocesses outlive the run, while the suite
/// orchestrator keeps the pool warm across kernels (checkouts re-`Init`
/// per campaign, so cross-kernel reuse — counted in
/// `isolate.workers_reused` — is always sound) and drains exactly once
/// at suite end. In-flight (checked-out) workers are untouched: they
/// return via [`checkin`] and are collected by the next drain.
pub fn drain_idle_workers() -> usize {
    let workers: Vec<Worker> = {
        let mut st = pool().lock().expect("worker pool lock");
        st.idle.drain().flat_map(|(_, v)| v).collect()
    };
    let mut drained = 0usize;
    for mut worker in workers {
        let _ = worker.child.kill();
        let _ = worker.child.wait();
        drained += 1;
    }
    if drained > 0 {
        goat_metrics::global().counter("isolate.workers_drained").add(drained as u64);
    }
    drained
}

/// The campaign-constant part of a run's [`Config`]: everything the
/// per-run `Run` delta does not override, with the delta fields zeroed
/// so equal bases hash equal regardless of which run they came from.
fn canonical_base(cfg: &Config) -> Config {
    let mut base = cfg.clone();
    base.seed = 0;
    base.delay_bound = 0;
    base.yield_prob = 0.0;
    base.strategy = StrategyKind::Native;
    base
}

/// Hash the full `Init` state for a run: program, canonical base config
/// and active fault plan. A checked-out worker whose cached hash
/// differs gets a fresh `Init` frame before the next `Run`, so
/// configuration can never leak across campaigns.
fn init_hash(program: &str, base_bytes: &[u8]) -> u64 {
    let mut key = Vec::with_capacity(base_bytes.len() + program.len() + 64);
    key.extend_from_slice(program.as_bytes());
    key.push(0x1f);
    key.extend_from_slice(base_bytes);
    key.push(0x1f);
    if let Some(spec) = faultpoint::current_spec() {
        key.extend_from_slice(spec.as_bytes());
    }
    wire::fnv1a64(&key)
}

/// Encode the full batch into one write buffer, prepending `Init` when
/// the worker's cached state (`held`) is stale. Returns the buffer and
/// the init hash the worker will hold after the write lands.
fn encode_batch(
    mut held: Option<u64>,
    program: &str,
    runs: &[(u64, Config)],
) -> io::Result<(Vec<u8>, Option<u64>)> {
    let metrics = goat_metrics::global();
    let mut buf = Vec::new();
    for (iter, cfg) in runs {
        let encode_started = Instant::now();
        let base = canonical_base(cfg);
        let mut base_bytes = Vec::with_capacity(64);
        wire::encode_config(&base, &mut base_bytes);
        let h = init_hash(program, &base_bytes);
        if held != Some(h) {
            held = Some(h);
            wire::encode_frame_into(
                &WireFrame::Init { program: program.to_string(), base: Box::new(base) },
                &mut buf,
            )?;
        }
        wire::encode_frame_into(
            &WireFrame::Run {
                iter: *iter,
                seed: cfg.seed,
                delay_bound: cfg.delay_bound,
                yield_prob: cfg.yield_prob,
                strategy: cfg.strategy,
            },
            &mut buf,
        )?;
        metrics.histogram("isolate.ipc_ser_ns").record(encode_started.elapsed().as_nanos() as u64);
    }
    Ok((buf, held))
}

/// Execute a batch of iterations inside one sandboxed worker, returning
/// one result per run in order.
///
/// Returns `None` when isolation is unavailable for this worker command
/// (spawn or handshake failure) and the caller should run in-process —
/// a sound fallback because both modes produce byte-identical results.
/// Otherwise always returns exactly `runs.len()` results: the worker's
/// own on success; a synthesized [`RunOutcome::Crashed`] for the run in
/// flight when the worker died; retryable
/// [`RunOutcome::InfraFailure`]s for runs the worker never reached (or
/// after stream corruption / protocol violations).
pub(crate) fn run_batch(
    cmd: Option<&str>,
    program: &str,
    runs: &[(u64, Config)],
) -> Option<Vec<RunResult>> {
    let cmd = match cmd {
        Some(c) => c.to_string(),
        None => std::env::current_exe().ok()?.to_str()?.to_string(),
    };
    let metrics = goat_metrics::global();
    let mut worker = checkout(&cmd)?;
    let (mut buf, mut held) = match encode_batch(worker.init_hash, program, runs) {
        Ok(v) => v,
        Err(e) => {
            checkin(&cmd, worker);
            return Some(vec![infra(format!("encode run frame: {e}")); runs.len()]);
        }
    };
    let mut mark = Instant::now();
    if worker.stdin.write_all(&buf).and_then(|()| worker.stdin.flush()).is_err() {
        // A pooled worker can die between checkout and the first write;
        // one fresh respawn distinguishes that from a broken command.
        kill_worker(&mut worker);
        worker = match spawn_worker(&cmd) {
            Ok(w) => w,
            Err(e) => {
                mark_broken(&cmd, &e);
                return None;
            }
        };
        // Fresh worker, no cached state: re-encode so it gets `Init`.
        (buf, held) = match encode_batch(None, program, runs) {
            Ok(v) => v,
            Err(e) => {
                checkin(&cmd, worker);
                return Some(vec![infra(format!("encode run frame: {e}")); runs.len()]);
            }
        };
        mark = Instant::now();
        if worker.stdin.write_all(&buf).and_then(|()| worker.stdin.flush()).is_err() {
            kill_worker(&mut worker);
            return Some(vec![infra("worker rejected the run frames twice"); runs.len()]);
        }
    }
    worker.init_hash = held;
    metrics.counter("isolate.ipc_bytes_tx").add(buf.len() as u64);
    drop(buf);
    let grace = Duration::from_millis(grace_ms());
    let mut out: Vec<RunResult> = Vec::with_capacity(runs.len());
    let mut last_ack = None;
    // Fill every not-yet-started run after a mid-batch failure; the
    // supervision layer retries InfraFailures one by one.
    macro_rules! fill_infra {
        ($out:ident, $reason:expr) => {{
            let reason = $reason;
            while $out.len() < runs.len() {
                $out.push(infra(reason.clone()));
            }
            return Some($out);
        }};
    }
    while out.len() < runs.len() {
        let expect = runs[out.len()].0;
        match worker.events.recv_timeout(grace) {
            Ok(Event::Ack(i)) if i == expect => {
                last_ack = Some(i);
                // Time from the batch write (first run) or the previous
                // result (later runs) to this ack: pure pipe + frame
                // handling latency, free of the runs' own compute.
                metrics
                    .histogram("isolate.ipc_transport_ns")
                    .record(mark.elapsed().as_nanos() as u64);
            }
            // Stale acks/heartbeats from a reused worker count as
            // liveness but carry no other information.
            Ok(Event::Ack(_) | Event::Heartbeat) => {}
            Ok(Event::Result { iter: i, result }) if i == expect => {
                worker.runs += 1;
                metrics.counter("isolate.runs").inc();
                out.push(*result);
                mark = Instant::now();
            }
            Ok(Event::Result { iter: i, .. }) => {
                kill_worker(&mut worker);
                fill_infra!(
                    out,
                    format!("worker protocol violation: result for iter {i}, expected {expect}")
                );
            }
            Ok(Event::Ready) => {
                kill_worker(&mut worker);
                fill_infra!(out, "worker protocol violation: unexpected Ready".to_string());
            }
            Ok(Event::Unexpected(f)) => {
                kill_worker(&mut worker);
                fill_infra!(out, format!("worker protocol violation: unexpected {f}"));
            }
            Ok(Event::Corrupt(e)) => {
                kill_worker(&mut worker);
                fill_infra!(out, format!("worker sent a corrupt frame: {e}"));
            }
            Ok(Event::Eof) => {
                let forensics = autopsy(&mut worker, last_ack, None);
                goat_metrics::global().counter("isolate.workers_died").inc();
                out.push(synth_result(RunOutcome::Crashed { forensics }));
                fill_infra!(out, "worker died mid-batch before reaching this run".to_string());
            }
            Err(RecvTimeoutError::Timeout) => {
                kill_worker(&mut worker);
                let forensics = autopsy(&mut worker, last_ack, Some(grace));
                out.push(synth_result(RunOutcome::Crashed { forensics }));
                fill_infra!(out, "worker died mid-batch before reaching this run".to_string());
            }
            Err(RecvTimeoutError::Disconnected) => {
                kill_worker(&mut worker);
                let forensics = autopsy(&mut worker, last_ack, None);
                out.push(synth_result(RunOutcome::Crashed { forensics }));
                fill_infra!(out, "worker died mid-batch before reaching this run".to_string());
            }
        }
    }
    checkin(&cmd, worker);
    Some(out)
}

/// Execute one iteration inside a sandboxed worker (a batch of one).
pub(crate) fn run_in_worker(
    cmd: Option<&str>,
    program: &str,
    iter: u64,
    cfg: &Config,
) -> Option<RunResult> {
    let runs = [(iter, cfg.clone())];
    run_batch(cmd, program, &runs).map(|mut v| v.pop().expect("one result per run"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One framed read + decode, as the serve loop and reader thread do.
    fn read_frame(r: &mut impl Read) -> io::Result<WireFrame> {
        read_payload(r).and_then(|p| wire::decode_frame(&p))
    }

    #[test]
    fn isolate_mode_parses_and_displays() {
        assert_eq!(IsolateMode::parse("off"), Some(IsolateMode::Off));
        assert_eq!(IsolateMode::parse("0"), Some(IsolateMode::Off));
        assert_eq!(IsolateMode::parse(""), Some(IsolateMode::Off));
        assert_eq!(IsolateMode::parse("proc"), Some(IsolateMode::Proc));
        assert_eq!(IsolateMode::parse("PROCESS"), Some(IsolateMode::Proc));
        assert_eq!(IsolateMode::parse("1"), Some(IsolateMode::Proc));
        assert_eq!(IsolateMode::parse("yes"), None);
        assert_eq!(IsolateMode::Off.to_string(), "off");
        assert_eq!(IsolateMode::Proc.to_string(), "proc");
        assert_eq!(IsolateMode::default(), IsolateMode::Off);
    }

    #[test]
    fn oversized_frame_is_rejected_not_allocated() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(u32::MAX).to_le_bytes());
        bytes.extend_from_slice(b"\xde\xad\xbe\xef");
        let err = read_frame(&mut &bytes[..]).expect_err("must reject");
        assert_eq!(err.kind(), ErrorKind::InvalidData);
        assert!(err.to_string().contains("exceeds"));
        // One byte over the cap is already corrupt; the cap itself is not.
        let over = ((MAX_FRAME + 1) as u32).to_le_bytes();
        let err = read_payload(&mut &over[..]).expect_err("must reject");
        assert_eq!(err.kind(), ErrorKind::InvalidData);
        let at = (MAX_FRAME as u32).to_le_bytes();
        let err = read_payload(&mut &at[..]).expect_err("no payload follows");
        assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
    }

    #[test]
    fn undercap_length_lie_cannot_force_a_big_allocation() {
        // A corrupt prefix claiming 32 MiB (under the cap) followed by
        // 4 bytes: the incremental reader must fail with UnexpectedEof
        // having allocated at most the read chunk.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(32u32 << 20).to_le_bytes());
        bytes.extend_from_slice(b"\xde\xad\xbe\xef");
        let err = read_payload(&mut &bytes[..]).expect_err("must fail");
        assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
    }

    #[test]
    fn truncated_frame_reads_as_eof() {
        let mut full = Vec::new();
        wire::encode_frame_into(&WireFrame::Ack { iter: 300 }, &mut full).expect("encode");
        let err = read_frame(&mut &full[..full.len() - 1]).expect_err("must fail");
        assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
        assert!(read_frame(&mut &[][..]).is_err());
        assert!(matches!(read_frame(&mut &full[..]), Ok(WireFrame::Ack { iter: 300 })));
    }

    #[test]
    fn unparseable_frame_is_invalid_data() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&4u32.to_le_bytes());
        bytes.extend_from_slice(b"]!{[");
        let err = read_frame(&mut &bytes[..]).expect_err("must fail");
        assert_eq!(err.kind(), ErrorKind::InvalidData);
    }

    #[test]
    fn signal_names_cover_the_common_deaths() {
        assert_eq!(signal_name(6), "SIGABRT");
        assert_eq!(signal_name(9), "SIGKILL");
        assert_eq!(signal_name(11), "SIGSEGV");
        assert_eq!(signal_name(24), "SIGXCPU");
        assert_eq!(signal_name(63), "unknown");
    }

    #[test]
    fn pool_keys_separate_fault_plans() {
        // Scoped fault plans split the key: a worker spawned under one
        // plan is never handed to a campaign under another.
        let plain = pool_key("goat");
        let g = faultpoint::scoped("worker:garbage-frame");
        assert_ne!(pool_key("goat"), plain);
        drop(g);
        assert_eq!(pool_key("goat"), plain);
    }

    #[test]
    fn init_hash_tracks_fault_plan_and_base() {
        let base_a = {
            let mut b = Vec::new();
            wire::encode_config(&canonical_base(&Config::new(1)), &mut b);
            b
        };
        let base_b = {
            let mut b = Vec::new();
            wire::encode_config(&canonical_base(&Config::new(2).with_max_steps(7)), &mut b);
            b
        };
        // Seeds are canonicalized away; real base changes are not.
        assert_eq!(base_a, {
            let mut b = Vec::new();
            wire::encode_config(&canonical_base(&Config::new(99)), &mut b);
            b
        });
        assert_ne!(base_a, base_b);
        let h_plain = init_hash("etcd6708", &base_a);
        assert_ne!(init_hash("etcd6708", &base_b), h_plain);
        assert_ne!(init_hash("moby28462", &base_a), h_plain);
        // Fault-plan changes alter the hash even for an identical base.
        let g = faultpoint::scoped("worker:kill:9@seed=5");
        assert_ne!(init_hash("etcd6708", &base_a), h_plain);
        drop(g);
    }

    #[test]
    fn canonical_base_zeroes_exactly_the_run_delta() {
        let cfg = Config::new(77).with_delay_bound(4).with_yield_prob(0.9).with_max_steps(1234);
        let base = canonical_base(&cfg);
        assert_eq!(base.seed, 0);
        assert_eq!(base.delay_bound, 0);
        assert_eq!(base.yield_prob, 0.0);
        assert_eq!(base.strategy, StrategyKind::Native);
        // Everything else survives.
        assert_eq!(base.max_steps, 1234);
        assert_eq!(base.trace, cfg.trace);
        assert_eq!(base.pool, cfg.pool);
    }
}
