//! Binary frame codec for the process-isolation worker wire.
//!
//! [`crate::isolate`] talks to its worker subprocesses in the frames
//! defined here, and in nothing else:
//!
//! * framing is `[u32 LE payload length][payload]`, and a payload is
//!   `[u8 frame tag][varint fields…]`;
//! * a `Run` frame is self-contained: the iteration, the program name
//!   and the run's whole [`Config`], so a worker holds no state between
//!   frames and any serve loop can take any frame;
//! * `Result` payloads embed the trace through the varint-delta event
//!   codec of [`goat_trace::wire`].
//!
//! Every codec here is lossless and total: `decode(encode(x)) == x`
//! for arbitrary values (proptests in `tests/ipc_wire.rs` compare the
//! round trip with the original under the serde JSON serializer), and
//! decoding arbitrary bytes returns [`std::io::ErrorKind::InvalidData`]
//! rather than panicking or over-allocating, because the bytes cross a
//! process boundary: every element count is bounded by the bytes left
//! in the payload divided by the element's smallest encoding.

use goat_runtime::{
    AliveGoroutine, Config, CrashForensics, Decision, ReplayLog, RunOutcome, RunResult,
    SchedCounters, StrategyKind, TimeoutPhase,
};
use goat_trace::wire::{put_bool, put_f64, put_ivarint, put_str, put_uvarint, Reader};
use goat_trace::{Ect, Gid, VTime};
use std::io::{self, ErrorKind};

fn err(msg: impl std::fmt::Display) -> io::Error {
    io::Error::new(ErrorKind::InvalidData, format!("wire: {msg}"))
}

/// One message on the worker wire.
///
/// The orchestrator sends `Run`; the worker sends `Ready` once, then
/// `Ack` + `Result` per `Run` and `Heartbeat`s in between.
#[derive(Debug, Clone)]
pub enum WireFrame {
    /// Worker → orchestrator: startup handshake (after the rlimit jail).
    Ready,
    /// Orchestrator → worker: execute one iteration of `program` under
    /// exactly `cfg`. The orchestrator writes it with [`encode_run_into`]
    /// from borrowed values.
    Run {
        /// 1-based campaign iteration.
        iter: u64,
        /// Program name, resolved by the worker's registry.
        program: String,
        /// The run's whole [`Config`], as the campaign runner built it.
        cfg: Box<Config>,
    },
    /// Worker → orchestrator: the `Run` frame was received.
    Ack {
        /// Iteration being acknowledged.
        iter: u64,
    },
    /// Worker → orchestrator: liveness beacon.
    Heartbeat {
        /// Iteration currently being served (0 when idle).
        iter: u64,
    },
    /// Worker → orchestrator: the run's result.
    Result {
        /// Iteration the result belongs to.
        iter: u64,
        /// The run's full result (boxed: dwarfs the other variants).
        result: Box<RunResult>,
    },
}

const F_READY: u8 = 0;
const F_RUN: u8 = 1;
const F_ACK: u8 = 2;
const F_HEARTBEAT: u8 = 3;
const F_RESULT: u8 = 4;

fn put_strategy(buf: &mut Vec<u8>, s: &StrategyKind) {
    match s {
        StrategyKind::Native => buf.push(0),
        StrategyKind::Random => buf.push(1),
        StrategyKind::Pct { depth, length } => {
            buf.push(2);
            put_uvarint(buf, u64::from(*depth));
            put_uvarint(buf, u64::from(*length));
        }
    }
}

fn get_strategy(r: &mut Reader<'_>) -> io::Result<StrategyKind> {
    Ok(match r.u8()? {
        0 => StrategyKind::Native,
        1 => StrategyKind::Random,
        2 => StrategyKind::Pct { depth: r.uvarint()? as u32, length: r.uvarint()? as u32 },
        other => return Err(err(format_args!("bad strategy tag {other}"))),
    })
}

fn put_replay_log(buf: &mut Vec<u8>, log: &ReplayLog) {
    put_uvarint(buf, log.decisions.len() as u64);
    for d in &log.decisions {
        match d {
            Decision::Pick(g) => {
                buf.push(0);
                put_uvarint(buf, g.0);
            }
            Decision::SelectChoice(c) => {
                buf.push(1);
                put_uvarint(buf, *c as u64);
            }
            Decision::YieldAt(y) => {
                buf.push(2);
                put_bool(buf, *y);
            }
        }
    }
}

fn get_replay_log(r: &mut Reader<'_>) -> io::Result<ReplayLog> {
    // Tag byte plus at least one payload byte.
    let n = r.count(2, "decision")?;
    let mut decisions = Vec::with_capacity(n);
    for _ in 0..n {
        decisions.push(match r.u8()? {
            0 => Decision::Pick(Gid(r.uvarint()?)),
            1 => Decision::SelectChoice(r.uvarint()? as usize),
            2 => Decision::YieldAt(r.bool()?),
            other => return Err(err(format_args!("bad decision tag {other}"))),
        });
    }
    Ok(ReplayLog { decisions })
}

fn put_opt_replay_log(buf: &mut Vec<u8>, log: Option<&ReplayLog>) {
    match log {
        Some(log) => {
            buf.push(1);
            put_replay_log(buf, log);
        }
        None => buf.push(0),
    }
}

fn get_opt_replay_log(r: &mut Reader<'_>) -> io::Result<Option<ReplayLog>> {
    Ok(match r.bool()? {
        true => Some(get_replay_log(r)?),
        false => None,
    })
}

fn put_opt_u64(buf: &mut Vec<u8>, v: Option<u64>) {
    match v {
        Some(v) => {
            buf.push(1);
            put_uvarint(buf, v);
        }
        None => buf.push(0),
    }
}

fn get_opt_u64(r: &mut Reader<'_>) -> io::Result<Option<u64>> {
    Ok(match r.bool()? {
        true => Some(r.uvarint()?),
        false => None,
    })
}

fn put_opt_i32(buf: &mut Vec<u8>, v: Option<i32>) {
    match v {
        Some(v) => {
            buf.push(1);
            put_ivarint(buf, i64::from(v));
        }
        None => buf.push(0),
    }
}

fn get_opt_i32(r: &mut Reader<'_>) -> io::Result<Option<i32>> {
    Ok(match r.bool()? {
        true => Some(r.ivarint()? as i32),
        false => None,
    })
}

/// Append the full [`Config`] in wire form (every field but the no-op
/// `spin`, in declaration order), as a `Run` frame carries it.
pub fn encode_config(cfg: &Config, buf: &mut Vec<u8>) {
    put_uvarint(buf, cfg.seed);
    put_f64(buf, cfg.native_preempt_prob);
    put_uvarint(buf, u64::from(cfg.delay_bound));
    put_f64(buf, cfg.yield_prob);
    put_uvarint(buf, cfg.max_steps);
    put_bool(buf, cfg.trace);
    put_uvarint(buf, cfg.max_trace_events as u64);
    put_opt_replay_log(buf, cfg.replay.as_ref());
    put_strategy(buf, &cfg.strategy);
    put_bool(buf, cfg.pool);
    put_opt_u64(buf, cfg.iter_timeout_ms);
}

/// Decode a [`Config`] written by [`encode_config`].
pub fn decode_config(r: &mut Reader<'_>) -> io::Result<Config> {
    Ok(Config {
        seed: r.uvarint()?,
        native_preempt_prob: r.f64()?,
        delay_bound: r.uvarint()? as u32,
        yield_prob: r.f64()?,
        max_steps: r.uvarint()?,
        trace: r.bool()?,
        max_trace_events: r.uvarint()? as usize,
        replay: get_opt_replay_log(r)?,
        strategy: get_strategy(r)?,
        pool: r.bool()?,
        iter_timeout_ms: get_opt_u64(r)?,
        spin: 0,
    })
}

fn put_forensics(buf: &mut Vec<u8>, f: &CrashForensics) {
    put_opt_i32(buf, f.signal);
    put_opt_i32(buf, f.exit_code);
    put_str(buf, &f.stderr_tail);
    put_opt_u64(buf, f.last_ack_iter);
    put_str(buf, &f.summary);
}

fn get_forensics(r: &mut Reader<'_>) -> io::Result<CrashForensics> {
    Ok(CrashForensics {
        signal: get_opt_i32(r)?,
        exit_code: get_opt_i32(r)?,
        stderr_tail: r.str()?.to_string(),
        last_ack_iter: get_opt_u64(r)?,
        summary: r.str()?.to_string(),
    })
}

fn put_outcome(buf: &mut Vec<u8>, o: &RunOutcome) {
    match o {
        RunOutcome::Completed => buf.push(0),
        RunOutcome::GlobalDeadlock { blocked } => {
            buf.push(1);
            put_uvarint(buf, blocked.len() as u64);
            for g in blocked {
                put_uvarint(buf, g.0);
            }
        }
        RunOutcome::Panicked { g, msg } => {
            buf.push(2);
            put_uvarint(buf, g.0);
            put_str(buf, msg);
        }
        RunOutcome::StepLimit => buf.push(3),
        RunOutcome::TimedOut { phase, elapsed_ms } => {
            buf.push(4);
            buf.push(match phase {
                TimeoutPhase::Cooperative => 0,
                TimeoutPhase::Wedged => 1,
            });
            put_uvarint(buf, *elapsed_ms);
        }
        RunOutcome::InfraFailure { reason } => {
            buf.push(5);
            put_str(buf, reason);
        }
        RunOutcome::Crashed { forensics } => {
            buf.push(6);
            put_forensics(buf, forensics);
        }
    }
}

fn get_outcome(r: &mut Reader<'_>) -> io::Result<RunOutcome> {
    Ok(match r.u8()? {
        0 => RunOutcome::Completed,
        1 => {
            let n = r.count(1, "blocked-goroutine")?;
            let mut blocked = Vec::with_capacity(n);
            for _ in 0..n {
                blocked.push(Gid(r.uvarint()?));
            }
            RunOutcome::GlobalDeadlock { blocked }
        }
        2 => RunOutcome::Panicked { g: Gid(r.uvarint()?), msg: r.str()?.to_string() },
        3 => RunOutcome::StepLimit,
        4 => RunOutcome::TimedOut {
            phase: match r.u8()? {
                0 => TimeoutPhase::Cooperative,
                1 => TimeoutPhase::Wedged,
                other => return Err(err(format_args!("bad timeout phase {other}"))),
            },
            elapsed_ms: r.uvarint()?,
        },
        5 => RunOutcome::InfraFailure { reason: r.str()?.to_string() },
        6 => RunOutcome::Crashed { forensics: get_forensics(r)? },
        other => return Err(err(format_args!("bad outcome tag {other}"))),
    })
}

/// Append a full [`RunResult`] in wire form. The trace, when present,
/// travels through the varint-delta event codec of
/// [`goat_trace::wire`].
pub fn encode_result(result: &RunResult, buf: &mut Vec<u8>) {
    put_outcome(buf, &result.outcome);
    match &result.ect {
        Some(ect) => {
            buf.push(1);
            goat_trace::wire::encode_events(ect.events(), buf);
        }
        None => buf.push(0),
    }
    put_uvarint(buf, result.steps);
    put_uvarint(buf, result.vclock.0);
    put_uvarint(buf, result.goroutines);
    put_uvarint(buf, u64::from(result.yields_injected));
    put_uvarint(buf, u64::from(result.priority_changes));
    put_uvarint(buf, result.alive_at_end.len() as u64);
    for a in &result.alive_at_end {
        put_uvarint(buf, a.g.0);
        put_str(buf, &a.name);
        put_str(buf, &a.state);
        put_bool(buf, a.internal);
    }
    put_replay_log(buf, &result.schedule);
    put_bool(buf, result.replay_diverged);
    for c in [
        result.sched.picks,
        result.sched.random_picks,
        result.sched.blocks,
        result.sched.unblocks,
        result.sched.yields_preempt,
        result.sched.yields_gosched,
        result.sched.timer_fires,
        result.sched.select_choices,
    ] {
        put_uvarint(buf, c);
    }
    // Fixed 8 bytes: fingerprints are FNV state, uniformly distributed,
    // so a varint would *grow* them.
    buf.extend_from_slice(&result.fingerprint.to_le_bytes());
    match &result.panic_detail {
        Some(d) => {
            buf.push(1);
            put_str(buf, d);
        }
        None => buf.push(0),
    }
}

/// Decode a [`RunResult`] written by [`encode_result`].
pub fn decode_result(r: &mut Reader<'_>) -> io::Result<RunResult> {
    let outcome = get_outcome(r)?;
    let ect = match r.bool()? {
        true => {
            let events = goat_trace::wire::decode_events(r)?;
            // `Ect::from_events` asserts density; on cross-process bytes
            // corruption must surface as an error, not a panic.
            if events.iter().enumerate().any(|(i, ev)| ev.seq as usize != i) {
                return Err(err("trace sequence numbers are not dense"));
            }
            Some(Ect::from_events(events))
        }
        false => None,
    };
    let steps = r.uvarint()?;
    let vclock = VTime(r.uvarint()?);
    let goroutines = r.uvarint()?;
    let yields_injected = r.uvarint()? as u32;
    let priority_changes = r.uvarint()? as u32;
    // Goroutine id, two string lengths and the internal flag.
    let n_alive = r.count(4, "alive-goroutine")?;
    let mut alive_at_end = Vec::with_capacity(n_alive);
    for _ in 0..n_alive {
        alive_at_end.push(AliveGoroutine {
            g: Gid(r.uvarint()?),
            name: r.str()?.to_string(),
            state: r.str()?.to_string(),
            internal: r.bool()?,
        });
    }
    let schedule = get_replay_log(r)?;
    let replay_diverged = r.bool()?;
    let mut counters = [0u64; 8];
    for c in &mut counters {
        *c = r.uvarint()?;
    }
    let sched = SchedCounters {
        picks: counters[0],
        random_picks: counters[1],
        blocks: counters[2],
        unblocks: counters[3],
        yields_preempt: counters[4],
        yields_gosched: counters[5],
        timer_fires: counters[6],
        select_choices: counters[7],
    };
    let mut fp = [0u8; 8];
    fp.copy_from_slice(r.bytes_fixed(8)?);
    let fingerprint = u64::from_le_bytes(fp);
    let panic_detail = match r.bool()? {
        true => Some(r.str()?.to_string()),
        false => None,
    };
    Ok(RunResult {
        outcome,
        ect,
        steps,
        vclock,
        goroutines,
        yields_injected,
        priority_changes,
        alive_at_end,
        schedule,
        replay_diverged,
        sched,
        fingerprint,
        panic_detail,
    })
}

/// Append one frame in wire form — `[u32 LE payload length][tag][…]` —
/// to `buf` (batching concatenates frames into one write).
pub fn encode_frame_into(frame: &WireFrame, buf: &mut Vec<u8>) -> io::Result<()> {
    framed(buf, |buf| match frame {
        WireFrame::Ready => buf.push(F_READY),
        WireFrame::Run { iter, program, cfg } => put_run(buf, *iter, program, cfg),
        WireFrame::Ack { iter } => {
            buf.push(F_ACK);
            put_uvarint(buf, *iter);
        }
        WireFrame::Heartbeat { iter } => {
            buf.push(F_HEARTBEAT);
            put_uvarint(buf, *iter);
        }
        WireFrame::Result { iter, result } => {
            buf.push(F_RESULT);
            put_uvarint(buf, *iter);
            encode_result(result, buf);
        }
    })
}

/// Append the `Run` frame of iteration `iter` — the bytes
/// [`encode_frame_into`] writes for [`WireFrame::Run`] — straight from
/// the borrowed program name and config.
pub fn encode_run_into(
    iter: u64,
    program: &str,
    cfg: &Config,
    buf: &mut Vec<u8>,
) -> io::Result<()> {
    framed(buf, |buf| put_run(buf, iter, program, cfg))
}

fn put_run(buf: &mut Vec<u8>, iter: u64, program: &str, cfg: &Config) {
    buf.push(F_RUN);
    put_uvarint(buf, iter);
    put_str(buf, program);
    encode_config(cfg, buf);
}

/// Append the payload `body` writes behind its `u32` length prefix.
fn framed(buf: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) -> io::Result<()> {
    let start = buf.len();
    buf.extend_from_slice(&[0u8; 4]);
    body(buf);
    let payload_len = buf.len() - start - 4;
    let Ok(len32) = u32::try_from(payload_len) else {
        buf.truncate(start);
        return Err(err("frame payload exceeds the u32 length prefix"));
    };
    buf[start..start + 4].copy_from_slice(&len32.to_le_bytes());
    Ok(())
}

/// Decode one frame payload (the bytes after the length prefix).
pub fn decode_frame(payload: &[u8]) -> io::Result<WireFrame> {
    let mut r = Reader::new(payload);
    let frame = match r.u8()? {
        F_READY => WireFrame::Ready,
        F_RUN => WireFrame::Run {
            iter: r.uvarint()?,
            program: r.str()?.to_string(),
            cfg: Box::new(decode_config(&mut r)?),
        },
        F_ACK => WireFrame::Ack { iter: r.uvarint()? },
        F_HEARTBEAT => WireFrame::Heartbeat { iter: r.uvarint()? },
        F_RESULT => {
            let iter = r.uvarint()?;
            WireFrame::Result { iter, result: Box::new(decode_result(&mut r)?) }
        }
        other => return Err(err(format_args!("bad frame tag {other}"))),
    };
    if !r.is_empty() {
        return Err(err(format_args!("{} trailing bytes after frame", r.remaining())));
    }
    Ok(frame)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: &WireFrame) -> WireFrame {
        let mut buf = Vec::new();
        encode_frame_into(frame, &mut buf).expect("encode");
        let len = u32::from_le_bytes(buf[..4].try_into().unwrap()) as usize;
        assert_eq!(len, buf.len() - 4);
        decode_frame(&buf[4..]).expect("decode")
    }

    #[test]
    fn small_frames_roundtrip() {
        for frame in
            [WireFrame::Ready, WireFrame::Ack { iter: 7 }, WireFrame::Heartbeat { iter: 0 }]
        {
            // No PartialEq on RunResult/Config-bearing frames; Debug
            // renders every field, so equal strings mean equal frames.
            assert_eq!(format!("{:?}", roundtrip(&frame)), format!("{frame:?}"));
        }
    }

    #[test]
    fn run_frame_roundtrips_the_full_config() {
        let cfg = Config {
            seed: u64::MAX,
            native_preempt_prob: 0.02,
            delay_bound: 3,
            yield_prob: 0.25,
            max_steps: 123_456,
            trace: true,
            max_trace_events: 1_000_000,
            replay: Some(ReplayLog {
                decisions: vec![
                    Decision::Pick(Gid(3)),
                    Decision::SelectChoice(2),
                    Decision::YieldAt(true),
                ],
            }),
            strategy: StrategyKind::Pct { depth: 4, length: 256 },
            pool: false,
            iter_timeout_ms: Some(2000),
            spin: 0,
        };
        let frame = WireFrame::Run { iter: 41, program: "etcd6708".into(), cfg: Box::new(cfg) };
        // The borrowed-value encoder writes the same bytes.
        let (mut framed, mut direct) = (Vec::new(), Vec::new());
        encode_frame_into(&frame, &mut framed).unwrap();
        let WireFrame::Run { program, cfg, .. } = &frame else { unreachable!() };
        encode_run_into(41, program, cfg, &mut direct).unwrap();
        assert_eq!(framed, direct);
        let WireFrame::Run { iter, program, cfg: back } = roundtrip(&frame) else {
            panic!("wrong frame")
        };
        assert_eq!((iter, program.as_str()), (41, "etcd6708"));
        // Config has no PartialEq; compare through the JSON codec.
        assert_eq!(serde_json::to_string(&*back).unwrap(), serde_json::to_string(&**cfg).unwrap());
    }

    #[test]
    fn result_frame_roundtrips_every_outcome() {
        let outcomes = vec![
            RunOutcome::Completed,
            RunOutcome::GlobalDeadlock { blocked: vec![Gid(2), Gid(5)] },
            RunOutcome::Panicked { g: Gid(3), msg: "send on closed channel".into() },
            RunOutcome::StepLimit,
            RunOutcome::TimedOut { phase: TimeoutPhase::Wedged, elapsed_ms: 777 },
            RunOutcome::InfraFailure { reason: "spawn failed".into() },
            RunOutcome::Crashed {
                forensics: CrashForensics {
                    signal: Some(11),
                    exit_code: None,
                    stderr_tail: "segfault at 0x0".into(),
                    last_ack_iter: Some(41),
                    summary: "killed by signal 11 (SIGSEGV)".into(),
                },
            },
        ];
        for outcome in outcomes {
            let result = RunResult {
                outcome,
                ect: None,
                steps: 99,
                vclock: VTime(990_000),
                goroutines: 4,
                yields_injected: 2,
                priority_changes: 1,
                alive_at_end: vec![AliveGoroutine {
                    g: Gid(2),
                    name: "worker".into(),
                    state: "blocked: send".into(),
                    internal: false,
                }],
                schedule: ReplayLog { decisions: vec![Decision::Pick(Gid(1))] },
                replay_diverged: false,
                sched: SchedCounters { picks: 9, blocks: 3, ..Default::default() },
                fingerprint: 0xdead_beef_cafe_f00d,
                panic_detail: Some("panicked at kernel.rs:7".into()),
            };
            let frame = WireFrame::Result { iter: 12, result: Box::new(result.clone()) };
            let WireFrame::Result { iter, result: back } = roundtrip(&frame) else {
                panic!("wrong frame")
            };
            assert_eq!(iter, 12);
            assert_eq!(
                serde_json::to_string(&*back).unwrap(),
                serde_json::to_string(&result).unwrap()
            );
        }
    }

    #[test]
    fn corrupt_payloads_are_invalid_data_not_panics() {
        for payload in [
            &[][..],
            &[99][..],                // bad frame tag
            &[F_RUN, 0x80][..],       // truncated varint
            &[F_RESULT, 1, 7][..],    // truncated result
            &[F_ACK, 1, 1][..],       // trailing bytes
            &[F_RUN, 1, 2, b'x'][..], // truncated string
        ] {
            let e = decode_frame(payload).expect_err("must reject");
            assert_eq!(e.kind(), ErrorKind::InvalidData, "payload {payload:?}");
        }
    }

    #[test]
    fn counts_are_bounded_by_the_smallest_element_encoding() {
        // A result prefix up to the alive-goroutine count: Completed,
        // no trace, five zero counters.
        let head = [0u8, 0, 0, 0, 0, 0, 0];
        // 8 bytes left fit 8 one-byte elements but only 2 alive
        // goroutines (4 bytes each).
        let mut payload = head.to_vec();
        put_uvarint(&mut payload, 8);
        payload.extend_from_slice(&[0; 8]);
        let e = decode_result(&mut Reader::new(&payload)).expect_err("must reject");
        assert!(e.to_string().contains("alive-goroutine count exceeds payload"), "{e}");
        // No alive goroutines, then 8 bytes left for 8 claimed
        // decisions of at least 2 bytes each.
        let mut payload = head.to_vec();
        put_uvarint(&mut payload, 0);
        put_uvarint(&mut payload, 8);
        payload.extend_from_slice(&[0; 8]);
        let e = decode_result(&mut Reader::new(&payload)).expect_err("must reject");
        assert!(e.to_string().contains("decision count exceeds payload"), "{e}");
        // A deadlock outcome claiming more blocked goroutines than bytes.
        let mut payload = vec![1u8];
        put_uvarint(&mut payload, 3);
        payload.extend_from_slice(&[0; 2]);
        let e = decode_result(&mut Reader::new(&payload)).expect_err("must reject");
        assert!(e.to_string().contains("blocked-goroutine count exceeds payload"), "{e}");
    }

    #[test]
    fn non_dense_trace_is_rejected() {
        // Hand-craft a Result frame whose trace has seq 0, 2.
        use goat_trace::{Event, EventKind};
        let events = vec![
            Event { seq: 0, ts: VTime(0), g: Gid(1), kind: EventKind::GoStart, cu: None },
            Event { seq: 2, ts: VTime(1), g: Gid(1), kind: EventKind::GoEnd, cu: None },
        ];
        let mut payload = vec![F_RESULT];
        put_uvarint(&mut payload, 1); // iter
        payload.push(0); // outcome: Completed
        payload.push(1); // ect present
        goat_trace::wire::encode_events(&events, &mut payload);
        let e = decode_frame(&payload).expect_err("must reject");
        assert_eq!(e.kind(), ErrorKind::InvalidData);
        assert!(e.to_string().contains("dense"));
    }
}
