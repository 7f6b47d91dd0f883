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
//! each `Run` frame carries its program name and the run's whole
//! [`Config`], so a worker keeps no state between frames, and result
//! traces travel through the varint-delta event codec of
//! [`goat_trace::wire`].
//!
//! ```text
//!   campaign thread (a lane)            worker serve loop (a run host)
//!        | ----- spawn `goat --worker` ---> |   (rlimit jail applied)
//!        | <------------ Ready ------------ |   handshake
//!        | == Run{iter, program, cfg} ×k => |   batch k: one write
//!        | == Run ×batch k+1 =============> |   one write, queued
//!        | <----------- Ack{iter} --------- |   the worker reached the run
//!        | <-------- Heartbeat{iter} ------ |   every 100 ms while a run
//!        |                                  |    is in flight
//!        | <----- Result{iter, result} ---- |   one per Run, in order
//!        |  batch k read: merge it, then    |   runs batch k+1
//!        |  claim and write batch k+2       |
//! ```
//!
//! A campaign thread holds one worker across batches (a [`Lane`]) and
//! keeps [`LANE_DEPTH`] claimed batches written to it, so the worker
//! has the next batch queued while the thread merges the last. The thread
//! reads the worker's stdout itself, decoding each frame as it arrives;
//! no reader thread sits in between. Each run's `Ack` and `Result` are
//! separate writes, and each wakes the thread if it is blocked in
//! `poll(2)` for that frame. On the worker side the serve loop is a run
//! host ([`goat_runtime::pool::spawn_host`]), so each run executes on
//! the thread that read its `Run` frame. A batch is the campaign
//! engine's claim: 8 runs at one job, 4 at two or more (see
//! `suite::claim_shape`).
//!
//! Every run knob travels from the orchestrator in the `Run` frame, so a
//! worker cannot skew a run through its own environment: for
//! non-crashing runs the [`RunResult`] coming back is **byte-identical**
//! to an in-process run of the same seed at any batch size (proven in
//! `tests/determinism.rs`), and campaign reports are unchanged.
//!
//! Supervision is enforced from *outside* the sandbox: the orchestrator
//! demands some frame (ack, heartbeat, or result) within
//! `GOAT_WORKER_GRACE_MS`, waiting on the pipe with `poll(2)`; silence
//! means the worker is wedged and it is SIGKILLed. A run that wedges
//! inside the runtime is caught earlier, by the worker's own supervisor:
//! it answers the run as `TimedOut { phase: Wedged }` and starts a
//! replacement serve loop on the same pipes, so the worker lives on.
//! A worker that dies — by signal, abort, rlimit kill, or missed
//! heartbeats — is autopsied into [`CrashForensics`] (exit
//! status or signal, stderr tail, last acknowledged iteration) and the
//! run is recorded as [`RunOutcome::Crashed`]; the lane replaces the
//! worker, re-sends the batch queued behind the failed one whole, and
//! carries on. Corrupt frames (a length prefix over the
//! 64 MiB [`MAX_FRAME`] cap, undecodable payloads) and protocol
//! violations are retried InfraFailures.
//!
//! Workers jail themselves at startup with `setrlimit`: core dumps are
//! disabled and the address space is capped at 4 GiB, so a runaway
//! allocation kills the worker, not the campaign.
//!
//! Isolation degrades gracefully: if the worker command cannot be
//! spawned or never completes the `Ready` handshake (e.g. the embedding
//! binary has no `--worker` mode), the command is marked broken once
//! and every run transparently falls back in-process — sound precisely
//! because the two modes produce identical bytes.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{self, BufRead, ErrorKind, Read, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::program::Program;
use crate::wire::{self, WireFrame};
use goat_runtime::faultpoint::{self, WorkerFault};
use goat_runtime::{env_knob, Config, CrashForensics, RunOutcome, RunResult, SchedCounters};

/// Environment variable selecting the isolation mode (`off` | `proc`).
pub const ISOLATE_ENV: &str = "GOAT_ISOLATE";

/// Environment variable naming the worker command to spawn (defaults to
/// the current executable, which works for the `goat` CLI).
pub const WORKER_CMD_ENV: &str = "GOAT_WORKER_CMD";

/// Environment variable setting how long the orchestrator tolerates
/// frame silence (no ack/heartbeat/result) before SIGKILLing a worker,
/// in milliseconds (default 5000).
pub const GRACE_MS_ENV: &str = "GOAT_WORKER_GRACE_MS";

/// Worker heartbeat period while a run is in flight.
const HEARTBEAT: Duration = Duration::from_millis(100);

/// Spawn-to-`Ready` handshake deadline.
const SPAWN_GRACE: Duration = Duration::from_secs(10);

/// Worker address-space cap, MiB.
const RLIMIT_AS_MB: u64 = 4096;

/// Stderr lines retained per worker for crash forensics.
const STDERR_TAIL_LINES: usize = 40;

/// How long an autopsy waits for the stderr drain to reach EOF.
const STDERR_DRAIN_WAIT: Duration = Duration::from_secs(1);

/// The unit a frame buffer grows by: even a corrupt length prefix under
/// the cap cannot force a giant upfront allocation, because the buffer
/// grows only as bytes actually arrive.
const READ_CHUNK: usize = 64 * 1024;

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
}

impl std::fmt::Display for IsolateMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IsolateMode::Off => write!(f, "off"),
            IsolateMode::Proc => write!(f, "proc"),
        }
    }
}

/// The `GOAT_WORKER_GRACE_MS` window (default 5000 ms), read once per
/// process; a set but unparseable value is an error naming the
/// variable.
pub(crate) fn worker_grace() -> Result<Duration, String> {
    static GRACE: OnceLock<Result<Duration, String>> = OnceLock::new();
    GRACE
        .get_or_init(|| {
            let ms = env_knob(GRACE_MS_ENV, "an integer >= 1", |v| {
                v.parse::<u64>().ok().filter(|&ms| ms >= 1)
            })?;
            Ok(Duration::from_millis(ms.unwrap_or(5000)))
        })
        .clone()
}

/// Resource jail, fault raising and pipe waits via raw libc calls (no
/// crates).
#[cfg(unix)]
mod sys {
    use std::io;
    use std::time::Instant;

    /// `struct rlimit`: soft and hard limits, both `rlim_t` (u64 on the
    /// 64-bit platforms we target).
    #[repr(C)]
    struct RLimit {
        cur: u64,
        max: u64,
    }

    /// `struct pollfd`.
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    #[cfg(target_os = "linux")]
    type NFds = std::os::raw::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type NFds = std::os::raw::c_uint;

    extern "C" {
        fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
        fn raise(sig: i32) -> i32;
        fn signal(sig: i32, handler: usize) -> usize;
        fn poll(fds: *mut PollFd, nfds: NFds, timeout: i32) -> i32;
    }

    const POLLIN: i16 = 1;

    /// `SIG_DFL`: the default disposition.
    const SIG_DFL: usize = 0;

    #[cfg(target_os = "macos")]
    const RLIMIT_AS: i32 = 5;
    #[cfg(not(target_os = "macos"))]
    const RLIMIT_AS: i32 = 9;
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
    /// and exit status, not core files) and a capped address space.
    pub fn apply_rlimits() {
        set(RLIMIT_CORE, 0);
        set(RLIMIT_AS, super::RLIMIT_AS_MB * 1024 * 1024);
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

    pub fn raw_fd(f: &impl std::os::fd::AsRawFd) -> i32 {
        f.as_raw_fd()
    }

    /// Block until `fd` is readable or closed (`true`), or until
    /// `deadline` passes (`false`).
    pub fn wait_readable(fd: i32, deadline: Instant) -> io::Result<bool> {
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Ok(false);
            }
            // Round up, so a sub-millisecond remainder is not a busy
            // zero-timeout poll.
            let ms = left.as_micros().div_ceil(1000).min(i32::MAX as u128) as i32;
            let mut pfd = PollFd { fd, events: POLLIN, revents: 0 };
            match unsafe { poll(&mut pfd, 1, ms) } {
                0 => continue,
                n if n > 0 => return Ok(true),
                _ => {
                    let e = io::Error::last_os_error();
                    if e.kind() != io::ErrorKind::Interrupted {
                        return Err(e);
                    }
                }
            }
        }
    }
}

#[cfg(not(unix))]
mod sys {
    pub fn apply_rlimits() {}
    pub fn raise_signal(_sig: i32) {}
    pub fn raw_fd<T>(_f: &T) -> i32 {
        -1
    }
    /// No `poll(2)`: reads block without a deadline.
    pub fn wait_readable(_fd: i32, _deadline: std::time::Instant) -> std::io::Result<bool> {
        Ok(true)
    }
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

/// Encode `frame` and write it to `out` in one write.
fn send(out: &mut impl Write, frame: &WireFrame) -> io::Result<()> {
    let mut buf = Vec::with_capacity(24);
    wire::encode_frame_into(frame, &mut buf)?;
    out.write_all(&buf)?;
    out.flush()
}

fn write_frame_locked(out: &Mutex<io::Stdout>, frame: &WireFrame) -> io::Result<()> {
    send(&mut *out.lock().expect("worker stdout lock"), frame)
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
    stdout: &Mutex<io::Stdout>,
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

/// Everything a serve loop works with: pipes and liveness state, no
/// run state. A loop whose run the supervisor abandoned hands a clone
/// to its replacement, which carries on with the same pipes and the
/// same exit channel.
#[derive(Clone)]
struct Serve<R> {
    resolve: R,
    stdout: Arc<Mutex<io::Stdout>>,
    /// Frames from the orchestrator, locked per frame: a replacement loop
    /// must be able to read the next frame.
    stdin: Arc<Mutex<FrameReader<io::Stdin>>>,
    /// Iteration of the run in flight, 0 when none: heartbeats are sent
    /// only while it is set, so an idle pooled worker writes nothing
    /// into a pipe no thread is reading.
    current_iter: Arc<AtomicU64>,
    /// Set when an injected fault must silence the liveness beacon so
    /// the orchestrator's no-heartbeat watchdog can be exercised.
    muted: Arc<AtomicBool>,
    /// The first loop to end sends the process exit code here.
    exit: mpsc::Sender<i32>,
}

impl<R> Serve<R>
where
    R: Fn(&str) -> Option<Arc<dyn Program>> + Clone + Send + Sync + 'static,
{
    /// Start a serve loop on a run host thread, so every run it serves
    /// executes inline on the thread that decoded its `Run` frame.
    fn start(self) -> Result<(), String> {
        let hook = self.clone();
        let on_abandon: goat_runtime::pool::AbandonHook = Arc::new(move |r| hook.abandoned(r));
        goat_runtime::pool::spawn_host(
            move || {
                let code = self.serve();
                let _ = self.exit.send(code);
            },
            on_abandon,
        )
    }

    /// The supervisor abandoned the run in flight (it wedged outside the
    /// runtime) and built its result: answer the run, then hand stdin
    /// and stdout to a replacement loop, which reads the batch's next
    /// `Run` frame. Runs on the supervisor's thread.
    fn abandoned(&self, result: RunResult) {
        if self.answer(result).is_err() {
            let _ = self.exit.send(1);
            return;
        }
        if let Err(e) = self.clone().start() {
            eprintln!("goat-worker: cannot replace a wedged serve loop: {e}");
            let _ = self.exit.send(1);
        }
    }

    /// Send the `Result` of the run in flight. The run leaves flight
    /// under the stdout lock, so no heartbeat can follow its result.
    fn answer(&self, result: RunResult) -> io::Result<()> {
        let mut out = self.stdout.lock().expect("worker stdout lock");
        let iter = self.current_iter.swap(0, Ordering::Relaxed);
        send(&mut *out, &WireFrame::Result { iter, result: Box::new(result) })
    }

    /// Serve frames until the orchestrator closes stdin; returns the
    /// process exit code.
    fn serve(&self) -> i32 {
        loop {
            let frame = self
                .stdin
                .lock()
                .expect("worker stdin lock")
                .next_payload(&mut || Ok(true))
                .and_then(decode);
            let frame = match frame {
                Ok(f) => f,
                Err(ReadFail::Corrupt(e)) => {
                    eprintln!("goat-worker: protocol error on stdin: {e}");
                    return 1;
                }
                Err(ReadFail::Eof | ReadFail::Silent) => return 0,
            };
            let WireFrame::Run { iter, program, cfg } = frame else {
                eprintln!("goat-worker: unexpected frame {frame:?} (expected Run)");
                return 1;
            };
            match worker_fault_flow(&self.stdout, &self.muted, iter, cfg.seed) {
                FaultFlow::Exit(code) => return code,
                FaultFlow::SkipRun => continue,
                FaultFlow::Proceed => {}
            }
            self.current_iter.store(iter, Ordering::Relaxed);
            if write_frame_locked(&self.stdout, &WireFrame::Ack { iter }).is_err() {
                return 1;
            }
            let result = match (self.resolve)(&program) {
                Some(p) => goat_runtime::Runtime::run(*cfg, crate::instrument::instrumented(p)),
                None => infra(format!("worker: unknown program {program:?}")),
            };
            if self.answer(result).is_err() {
                return 1;
            }
        }
    }
}

/// Serve the worker side of the protocol on stdin/stdout until the
/// orchestrator closes the pipe; returns the process exit code.
///
/// `resolve` maps the program name of each `Run` frame to the program
/// to execute (the CLI passes the goker kernel registry). The worker
/// jails itself with `setrlimit` before answering `Ready`, streams
/// `Heartbeat` frames from a side thread while a run is in flight, and
/// answers every `Run` with `Ack` + `Result`. The serve loop is a run
/// host ([`goat_runtime::pool::spawn_host`]): each run executes on the
/// thread that read its frame. A run wedged outside the runtime is
/// answered by the supervisor (`TimedOut { phase: Wedged }`) and a
/// replacement loop serves the rest. Injected worker faults
/// (`GOAT_FAULT=worker:…`) fire here, keyed on the run's seed.
pub fn serve_worker<R>(resolve: R) -> i32
where
    R: Fn(&str) -> Option<Arc<dyn Program>> + Clone + Send + Sync + 'static,
{
    sys::apply_rlimits();
    let stdout = Arc::new(Mutex::new(io::stdout()));
    if write_frame_locked(&stdout, &WireFrame::Ready).is_err() {
        return 1;
    }
    let (exit, exited) = mpsc::channel();
    let serve = Serve {
        resolve,
        stdin: Arc::new(Mutex::new(FrameReader::new(io::stdin()))),
        stdout,
        current_iter: Arc::new(AtomicU64::new(0)),
        muted: Arc::new(AtomicBool::new(false)),
        exit,
    };
    {
        let stdout = Arc::clone(&serve.stdout);
        let current_iter = Arc::clone(&serve.current_iter);
        let muted = Arc::clone(&serve.muted);
        let _ =
            std::thread::Builder::new().name("goat-worker-heartbeat".into()).spawn(move || loop {
                std::thread::sleep(HEARTBEAT);
                let mut out = stdout.lock().expect("worker stdout lock");
                let iter = current_iter.load(Ordering::Relaxed);
                if iter == 0 || muted.load(Ordering::Relaxed) {
                    continue;
                }
                if send(&mut *out, &WireFrame::Heartbeat { iter }).is_err() {
                    return;
                }
            });
    }
    if let Err(e) = serve.start() {
        eprintln!("goat-worker: cannot start the serve loop: {e}");
        return 1;
    }
    // A loop that unwinds sends nothing; once no loop is left to send,
    // the channel closes.
    exited.recv().unwrap_or(1)
}

/// Length-prefixed frames off a pipe: a worker's stdout, read by the
/// campaign thread itself, or the worker's stdin.
///
/// The buffer holds received bytes only. A length prefix is checked
/// against [`MAX_FRAME`] before its payload is buffered, and the buffer
/// grows by one [`READ_CHUNK`] at a time, only when it is full of
/// received bytes. Whatever a length prefix claims, the buffer never
/// exceeds the bytes received plus one chunk.
pub(crate) struct FrameReader<R> {
    src: R,
    /// Initialized storage; the unread bytes are `buf[start..end]`.
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

/// Why [`FrameReader::next`] returned no frame.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum ReadFail {
    /// The worker closed its stdout (it is dead or dying); a frame cut
    /// short by the close is EOF too.
    Eof,
    /// The stream is corrupt: an over-cap length prefix, an undecodable
    /// payload or a failed read.
    Corrupt(String),
    /// No byte arrived before the caller's deadline.
    Silent,
}

impl<R: Read> FrameReader<R> {
    pub(crate) fn new(src: R) -> Self {
        FrameReader { src, buf: Vec::new(), start: 0, end: 0 }
    }

    /// Bytes of storage the reader holds.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// The next frame's payload (the bytes after its length prefix),
    /// reading more bytes while no frame is complete. Before each read,
    /// `ready` waits until the source is readable (or closed) and returns
    /// `false` if it gave up waiting.
    pub(crate) fn next_payload(
        &mut self,
        ready: &mut dyn FnMut() -> io::Result<bool>,
    ) -> Result<&[u8], ReadFail> {
        loop {
            let held = &self.buf[self.start..self.end];
            if let Some(prefix) = held.first_chunk::<4>() {
                let len = u32::from_le_bytes(*prefix) as usize;
                if len > MAX_FRAME {
                    return Err(ReadFail::Corrupt(format!(
                        "frame length {len} exceeds the {MAX_FRAME}-byte cap"
                    )));
                }
                if held.len() >= 4 + len {
                    let payload = self.start + 4..self.start + 4 + len;
                    self.start = payload.end;
                    return Ok(&self.buf[payload]);
                }
            }
            self.fill(ready)?;
        }
    }

    /// Read whatever the source has into the buffer's free tail.
    fn fill(&mut self, ready: &mut dyn FnMut() -> io::Result<bool>) -> Result<(), ReadFail> {
        if self.start == self.end {
            (self.start, self.end) = (0, 0);
        } else if self.end == self.buf.len() && self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            (self.start, self.end) = (0, self.end - self.start);
        }
        if self.end == self.buf.len() {
            self.buf.reserve_exact(READ_CHUNK);
            self.buf.resize(self.end + READ_CHUNK, 0);
        }
        loop {
            match ready() {
                Ok(true) => {}
                Ok(false) => return Err(ReadFail::Silent),
                Err(e) => return Err(ReadFail::Corrupt(format!("waiting for the worker: {e}"))),
            }
            match self.src.read(&mut self.buf[self.end..]) {
                Ok(0) => return Err(ReadFail::Eof),
                Ok(n) => {
                    self.end += n;
                    return Ok(());
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(ReadFail::Corrupt(e.to_string())),
            }
        }
    }
}

fn decode(payload: &[u8]) -> Result<WireFrame, ReadFail> {
    wire::decode_frame(payload).map_err(|e| ReadFail::Corrupt(e.to_string()))
}

/// Cached handles on the `isolate.ipc_*` metrics the orchestrator
/// records per frame.
struct IpcMetrics {
    bytes_rx: Arc<goat_metrics::Counter>,
    bytes_tx: Arc<goat_metrics::Counter>,
    ser_ns: Arc<goat_metrics::Histogram>,
    transport_ns: Arc<goat_metrics::Histogram>,
    deser_ns: Arc<goat_metrics::Histogram>,
    runs: Arc<goat_metrics::Counter>,
    batch_writes: Arc<goat_metrics::Counter>,
    outstanding: Arc<goat_metrics::Gauge>,
}

fn ipc_metrics() -> &'static IpcMetrics {
    static IPC: OnceLock<IpcMetrics> = OnceLock::new();
    IPC.get_or_init(|| {
        let reg = goat_metrics::global();
        IpcMetrics {
            bytes_rx: reg.counter("isolate.ipc_bytes_rx"),
            bytes_tx: reg.counter("isolate.ipc_bytes_tx"),
            ser_ns: reg.histogram("isolate.ipc_ser_ns"),
            transport_ns: reg.histogram("isolate.ipc_transport_ns"),
            deser_ns: reg.histogram("isolate.ipc_deser_ns"),
            runs: reg.counter("isolate.runs"),
            batch_writes: reg.counter("isolate.batch_writes"),
            outstanding: reg.gauge("isolate.batches_outstanding"),
        }
    })
}

/// Orchestrator-side handle on one live worker subprocess.
struct Worker {
    child: Child,
    stdin: ChildStdin,
    stdout: FrameReader<ChildStdout>,
    stderr_tail: Arc<Mutex<VecDeque<String>>>,
    /// The thread draining stderr into `stderr_tail`; it ends at the
    /// pipe's EOF, which follows the worker's death.
    stderr_drain: Option<JoinHandle<()>>,
    /// Runs served so far (reuse accounting).
    runs: u64,
}

impl Worker {
    /// The worker's next frame, waiting at most `within` for each read.
    fn next_frame(&mut self, within: Duration) -> Result<WireFrame, ReadFail> {
        let deadline = Instant::now() + within;
        let fd = sys::raw_fd(&self.stdout.src);
        let payload = self.stdout.next_payload(&mut || sys::wait_readable(fd, deadline))?;
        let ipc = ipc_metrics();
        ipc.bytes_rx.add(4 + payload.len() as u64);
        let decode_started = Instant::now();
        let frame = decode(payload)?;
        if let WireFrame::Result { .. } = frame {
            ipc.deser_ns.record(decode_started.elapsed().as_nanos() as u64);
        }
        Ok(frame)
    }
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
        // recursively.
        .env_remove("GOAT_TELEMETRY")
        .env_remove("GOAT_CHECKPOINT")
        .env_remove(ISOLATE_ENV);
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
    let stdout = FrameReader::new(child.stdout.take().expect("piped stdout"));
    let stderr = child.stderr.take().expect("piped stderr");
    let stderr_tail = Arc::new(Mutex::new(VecDeque::new()));
    let stderr_drain = {
        let stderr_tail = Arc::clone(&stderr_tail);
        std::thread::Builder::new()
            .name("goat-worker-stderr".into())
            .spawn(move || {
                for line in io::BufReader::new(stderr).lines() {
                    let Ok(line) = line else { return };
                    let mut tail = stderr_tail.lock().expect("stderr tail lock");
                    if tail.len() >= STDERR_TAIL_LINES {
                        tail.pop_front();
                    }
                    tail.push_back(line);
                }
            })
            .ok()
    };
    let mut worker = Worker { child, stdin, stdout, stderr_tail, stderr_drain, runs: 0 };
    match worker.next_frame(SPAWN_GRACE) {
        Ok(WireFrame::Ready) => {}
        other => {
            let _ = worker.child.kill();
            let _ = worker.child.wait();
            return Err(match other {
                Err(ReadFail::Corrupt(e)) => format!("sent a corrupt handshake: {e}"),
                Err(ReadFail::Eof) => "exited before completing the Ready handshake".to_string(),
                Err(ReadFail::Silent) => "never completed the Ready handshake".to_string(),
                Ok(_) => "answered with a non-Ready frame".to_string(),
            });
        }
    }
    goat_metrics::global().counter("isolate.workers_spawned").inc();
    Ok(worker)
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
    // The worker is reaped, so its stderr pipe is closed: wait for the
    // drain thread to reach EOF, and with it the dying worker's last
    // lines, before snapshotting the tail.
    if let Some(drain) = worker.stderr_drain.take() {
        let deadline = Instant::now() + STDERR_DRAIN_WAIT;
        while !drain.is_finished() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_micros(200));
        }
        if drain.is_finished() {
            let _ = drain.join();
        }
    }
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
        // A worker that died while pooled is reaped and replaced. It
        // wrote nothing while idle: heartbeats only flow while a run is
        // in flight.
        if worker.child.try_wait().map(|s| s.is_some()).unwrap_or(true) {
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
/// orchestrator keeps the pool warm across kernels (every `Run` frame
/// carries its program and config, so cross-kernel reuse — counted in
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

/// Encode the batch's `Run` frames into one write buffer.
fn encode_batch(program: &str, runs: &[(u64, Config)]) -> io::Result<Vec<u8>> {
    let mut buf = Vec::new();
    for (iter, cfg) in runs {
        let encode_started = Instant::now();
        wire::encode_run_into(*iter, program, cfg, &mut buf)?;
        ipc_metrics().ser_ns.record(encode_started.elapsed().as_nanos() as u64);
    }
    Ok(buf)
}

/// Batches a [`Lane`] keeps written to its worker: the one being read
/// and the one queued behind it, which the worker runs while the
/// campaign thread merges the first.
pub(crate) const LANE_DEPTH: usize = 2;

/// One batch sent on a lane.
struct Batch {
    /// Iteration numbers of its runs, in order.
    iters: Vec<u64>,
    /// Its encoded `Run` frames, kept until its results are read: a
    /// fresh worker is sent the same bytes.
    frames: Vec<u8>,
    /// The frames sit in the current worker's stdin.
    written: bool,
    /// The batch cannot be shipped; each run answers with this reason.
    failed: Option<String>,
}

/// A worker process held by one campaign thread across batches, with
/// up to [`LANE_DEPTH`] batches written to it ahead of their reads.
///
/// [`Lane::send`] writes a batch's `Run` frames in one write and returns;
/// [`Lane::recv`] reads the oldest batch's results. A worker that dies,
/// corrupts its stream or goes silent fails only the batch being read
/// (`Crashed` for the run it reached, retryable `InfraFailure`s after);
/// the batches behind it are re-sent whole to a fresh worker, since their
/// frames died in the old pipe. Dropping the lane returns its worker to
/// the pool, or kills it while results are still unread.
pub(crate) struct Lane {
    cmd: String,
    worker: Option<Worker>,
    batches: VecDeque<Batch>,
}

impl Lane {
    /// A lane on worker command `cmd` (the current executable when
    /// `None`); `None` when isolation is unavailable for it.
    pub(crate) fn open(cmd: Option<&str>) -> Option<Lane> {
        let cmd = match cmd {
            Some(c) => c.to_string(),
            None => std::env::current_exe().ok()?.to_str()?.to_string(),
        };
        if pool().lock().expect("worker pool lock").broken.contains(&cmd) {
            return None;
        }
        Some(Lane { cmd, worker: None, batches: VecDeque::new() })
    }

    /// Queue a batch of runs of `program` and write its `Run` frames to
    /// the worker in one write.
    pub(crate) fn send(&mut self, program: &str, runs: &[(u64, Config)]) {
        let (frames, failed) = match encode_batch(program, runs) {
            Ok(frames) => (frames, None),
            Err(e) => (Vec::new(), Some(format!("encode run frame: {e}"))),
        };
        let iters = runs.iter().map(|(iter, _)| *iter).collect();
        self.batches.push_back(Batch { iters, frames, written: false, failed });
        self.flush();
    }

    /// Write every queued batch not yet written, in order. `false` when
    /// no worker can be had: the command is broken.
    fn flush(&mut self) -> bool {
        for b in 0..self.batches.len() {
            if self.batches[b].written || self.batches[b].failed.is_some() {
                continue;
            }
            let behind = self.batches.iter().take(b).any(|a| a.written);
            // A pooled worker can die between checkout and the first
            // write; one fresh respawn tells that from a broken command.
            let mut fresh = false;
            loop {
                if self.worker.is_none() {
                    let worker = if fresh {
                        spawn_worker(&self.cmd).map_err(|e| mark_broken(&self.cmd, &e)).ok()
                    } else {
                        checkout(&self.cmd)
                    };
                    let Some(worker) = worker else { return false };
                    goat_metrics::global().gauge("isolate.workers_out").add(1);
                    self.worker = Some(worker);
                }
                let worker = self.worker.as_mut().expect("a worker was just set");
                let batch = &mut self.batches[b];
                if worker.stdin.write_all(&batch.frames).and_then(|()| worker.stdin.flush()).is_ok()
                {
                    batch.written = true;
                    let ipc = ipc_metrics();
                    ipc.bytes_tx.add(batch.frames.len() as u64);
                    ipc.batch_writes.inc();
                    ipc.outstanding.add(1);
                    break;
                }
                // The worker closed its stdin: it is dead. The read of the
                // batch ahead finds the death and re-sends this one.
                if behind {
                    return true;
                }
                if let Some(mut dead) = self.take_worker() {
                    kill_worker(&mut dead);
                }
                if fresh {
                    self.batches[b].failed = Some("worker rejected the run frames twice".into());
                    break;
                }
                fresh = true;
            }
        }
        true
    }

    /// Take the worker out of the lane; every batch written to it is
    /// unwritten again.
    fn take_worker(&mut self) -> Option<Worker> {
        let worker = self.worker.take()?;
        goat_metrics::global().gauge("isolate.workers_out").add(-1);
        for batch in self.batches.iter_mut().filter(|b| b.written) {
            batch.written = false;
            ipc_metrics().outstanding.add(-1);
        }
        Some(worker)
    }

    /// The oldest batch's results, one per run in order: the worker's
    /// own on success; a synthesized [`RunOutcome::Crashed`] for the run
    /// it reached when the worker died or went silent; retryable
    /// [`RunOutcome::InfraFailure`]s for the runs after it (or after
    /// stream corruption or a protocol violation).
    ///
    /// `None` when isolation became unavailable (the worker command
    /// broke) before the batch could be written: the caller runs it
    /// in-process, a sound fallback because both modes produce
    /// byte-identical results.
    pub(crate) fn recv(&mut self) -> Option<Vec<RunResult>> {
        let shipped = self.flush();
        let batch = self.batches.pop_front().expect("recv follows a send");
        let runs = batch.iters.len();
        if let Some(reason) = batch.failed {
            return Some(vec![infra(reason); runs]);
        }
        if !shipped && !batch.written {
            return None;
        }
        let ipc = ipc_metrics();
        ipc.outstanding.add(-1);
        let grace = worker_grace().unwrap_or_else(|e| panic!("{e}"));
        let worker = self.worker.as_mut().expect("a written batch has a worker");
        let mut out: Vec<RunResult> = Vec::with_capacity(runs);
        let mut last_ack = None;
        let mut mark = Instant::now();
        // The campaign thread reads the worker's stdout itself: each frame
        // is decoded where it is consumed, and some frame must arrive
        // within the grace window.
        let failure = loop {
            let Some(&expect) = batch.iters.get(out.len()) else { break None };
            let violation = match worker.next_frame(grace) {
                // The worker reached the run: the last-reached iteration a
                // crash's forensics report.
                Ok(WireFrame::Ack { iter }) if iter == expect => {
                    last_ack = Some(iter);
                    continue;
                }
                // Stale acks/heartbeats from a reused worker count as
                // liveness but carry no other information.
                Ok(WireFrame::Ack { .. } | WireFrame::Heartbeat { .. }) => continue,
                Ok(WireFrame::Result { iter, result }) if iter == expect => {
                    // From the start of this read (first run) or the
                    // previous result (later runs) to this result's
                    // arrival: the wait the campaign thread did not
                    // overlap with merging.
                    ipc.transport_ns.record(mark.elapsed().as_nanos() as u64);
                    worker.runs += 1;
                    ipc.runs.inc();
                    out.push(*result);
                    mark = Instant::now();
                    continue;
                }
                Ok(WireFrame::Result { iter, .. }) => {
                    format!("worker protocol violation: result for iter {iter}, expected {expect}")
                }
                Ok(other) => format!("worker protocol violation: unexpected {other:?}"),
                Err(ReadFail::Corrupt(e)) => format!("worker sent a corrupt frame: {e}"),
                Err(fail) => {
                    let no_heartbeat = if fail == ReadFail::Silent {
                        kill_worker(worker);
                        Some(grace)
                    } else {
                        goat_metrics::global().counter("isolate.workers_died").inc();
                        None
                    };
                    let forensics = autopsy(worker, last_ack, no_heartbeat);
                    out.push(synth_result(RunOutcome::Crashed { forensics }));
                    break Some("worker died mid-batch before reaching this run".to_string());
                }
            };
            kill_worker(worker);
            break Some(violation);
        };
        if let Some(reason) = failure {
            // Fill every not-yet-started run; the supervision layer
            // retries InfraFailures one by one. The failed worker is
            // reaped; the batches behind go to a fresh one now, so it
            // runs them while this batch merges.
            out.resize_with(runs, || infra(reason.clone()));
            drop(self.take_worker());
            self.flush();
        }
        Some(out)
    }
}

impl Drop for Lane {
    fn drop(&mut self) {
        let unread = self.batches.iter().any(|b| b.written);
        match self.take_worker() {
            Some(mut worker) if unread => kill_worker(&mut worker),
            Some(worker) => checkin(&self.cmd, worker),
            None => {}
        }
    }
}

/// Execute a batch of iterations inside one sandboxed worker, returning
/// one result per run in order (see [`Lane::recv`]); `None` when
/// isolation is unavailable for this worker command and the caller
/// should run in-process.
pub(crate) fn run_batch(
    cmd: Option<&str>,
    program: &str,
    runs: &[(u64, Config)],
) -> Option<Vec<RunResult>> {
    let mut lane = Lane::open(cmd)?;
    lane.send(program, runs);
    lane.recv()
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// A source that hands its bytes out in the given read sizes,
    /// cycling through them.
    struct Trickle {
        bytes: Vec<u8>,
        pos: usize,
        steps: Vec<usize>,
        reads: usize,
    }

    impl Trickle {
        fn new(bytes: Vec<u8>, steps: Vec<usize>) -> FrameReader<Trickle> {
            FrameReader::new(Trickle { bytes, pos: 0, steps, reads: 0 })
        }
    }

    impl Read for Trickle {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let step = self.steps.get(self.reads % self.steps.len().max(1)).copied();
            self.reads += 1;
            let n =
                step.unwrap_or(usize::MAX).max(1).min(out.len()).min(self.bytes.len() - self.pos);
            out[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    /// Read frames until the reader fails, checking after every call
    /// that it holds no more than the bytes received plus one chunk.
    fn drain(reader: &mut FrameReader<Trickle>) -> (Vec<WireFrame>, ReadFail) {
        let mut frames = Vec::new();
        loop {
            let got = reader.next_payload(&mut || Ok(true)).and_then(decode);
            let received = reader.src.pos;
            assert!(
                reader.capacity() <= received + READ_CHUNK,
                "{} bytes buffered after receiving {received}",
                reader.capacity()
            );
            match got {
                Ok(f) => frames.push(f),
                Err(fail) => return (frames, fail),
            }
        }
    }

    /// A well-formed worker stream: handshake, ack, heartbeat, result.
    fn worker_stream() -> (Vec<u8>, Vec<usize>) {
        let frames = [
            WireFrame::Ready,
            WireFrame::Ack { iter: 3 },
            WireFrame::Heartbeat { iter: 3 },
            WireFrame::Result { iter: 3, result: Box::new(infra("a result")) },
        ];
        let (mut bytes, mut ends) = (Vec::new(), Vec::new());
        for f in &frames {
            wire::encode_frame_into(f, &mut bytes).expect("encode");
            ends.push(bytes.len());
        }
        (bytes, ends)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig { cases: 128, ..Default::default() })]

        /// Random bytes end as EOF or a corrupt stream, never a panic,
        /// however the reads split them.
        #[test]
        fn random_streams_end_as_corrupt_or_eof(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..2048),
            steps in proptest::collection::vec(1usize..96, 1..6),
        ) {
            let (_, fail) = drain(&mut Trickle::new(bytes, steps));
            proptest::prop_assert!(matches!(fail, ReadFail::Eof | ReadFail::Corrupt(_)), "{fail:?}");
        }

        /// Every truncation of a valid stream yields exactly its complete
        /// frames, then EOF: a frame cut short by the close is EOF.
        #[test]
        fn truncated_streams_yield_their_whole_frames_then_eof(
            cut in 0usize..4096,
            steps in proptest::collection::vec(1usize..96, 1..6),
        ) {
            let (bytes, ends) = worker_stream();
            let cut = cut % (bytes.len() + 1);
            let whole = ends.iter().filter(|&&e| e <= cut).count();
            let (frames, fail) = drain(&mut Trickle::new(bytes[..cut].to_vec(), steps));
            proptest::prop_assert_eq!(frames.len(), whole);
            proptest::prop_assert_eq!(fail, ReadFail::Eof);
        }
    }

    #[test]
    fn oversized_frame_is_rejected_not_allocated() {
        // One byte over the cap is already corrupt, and so is the
        // largest prefix; the payload behind it is never buffered.
        for prefix in [MAX_FRAME as u32 + 1, u32::MAX] {
            let (mut bytes, _) = worker_stream();
            bytes.extend_from_slice(&prefix.to_le_bytes());
            bytes.extend(std::iter::repeat_n(0xab, 3 * READ_CHUNK));
            let (frames, fail) = drain(&mut Trickle::new(bytes, vec![4096]));
            assert_eq!(frames.len(), 4, "the frames before the bad prefix are delivered");
            let ReadFail::Corrupt(why) = fail else { panic!("{fail:?}") };
            assert!(why.contains("exceeds"), "{why}");
        }
        // The cap itself is not corrupt: the stream just ends early.
        let at = (MAX_FRAME as u32).to_le_bytes().to_vec();
        assert_eq!(drain(&mut Trickle::new(at, vec![])).1, ReadFail::Eof);
    }

    #[test]
    fn unparseable_frame_is_corrupt() {
        let mut bytes = 4u32.to_le_bytes().to_vec();
        bytes.extend_from_slice(b"]!{[");
        assert!(matches!(drain(&mut Trickle::new(bytes, vec![])).1, ReadFail::Corrupt(_)));
    }

    #[test]
    fn undercap_length_lie_cannot_force_a_big_allocation() {
        // A prefix claiming 32 MiB (under the cap) followed by 4 bytes
        // is EOF, having buffered at most one read chunk.
        let mut bytes = (32u32 << 20).to_le_bytes().to_vec();
        bytes.extend_from_slice(b"\xde\xad\xbe\xef");
        let mut reader = Trickle::new(bytes, vec![3]);
        let (frames, fail) = drain(&mut reader);
        assert!(frames.is_empty());
        assert_eq!(fail, ReadFail::Eof);
        assert!(reader.capacity() <= 8 + READ_CHUNK);
    }

    #[cfg(unix)]
    #[test]
    fn pipe_reads_wait_for_frames_and_give_up_at_the_deadline() {
        let (rx, mut tx) = io::pipe().expect("pipe");
        let fd = sys::raw_fd(&rx);
        let mut reader = FrameReader::new(rx);
        let mut next = |within_ms: u64| {
            let deadline = Instant::now() + Duration::from_millis(within_ms);
            reader.next_payload(&mut || sys::wait_readable(fd, deadline)).and_then(decode)
        };
        // Nothing written: the reader gives up at its deadline.
        assert_eq!(next(20).expect_err("silent"), ReadFail::Silent);
        // A frame written in two halves, the second after a pause.
        let (bytes, ends) = worker_stream();
        let writer = std::thread::spawn(move || {
            tx.write_all(&bytes[..ends[0] + 3]).expect("write");
            std::thread::sleep(Duration::from_millis(30));
            tx.write_all(&bytes[ends[0] + 3..]).expect("write");
            // Dropping the write end closes the pipe.
        });
        assert!(matches!(next(5000), Ok(WireFrame::Ready)));
        assert!(matches!(next(5000), Ok(WireFrame::Ack { iter: 3 })));
        assert!(matches!(next(5000), Ok(WireFrame::Heartbeat { iter: 3 })));
        assert!(matches!(next(5000), Ok(WireFrame::Result { iter: 3, .. })));
        writer.join().expect("writer");
        assert_eq!(next(5000).expect_err("closed"), ReadFail::Eof);
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
}
