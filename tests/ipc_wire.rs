//! Properties of the binary worker wire of process isolation.
//!
//! The codecs in `goat::core::wire` / `goat::trace::wire` carry every run
//! between a worker and the orchestrator, so they must be lossless: these
//! tests synthesize arbitrary `Run` frames (program name plus a whole
//! `Config`), well-formed trace buffers and `RunResult`s covering every
//! `RunOutcome` variant (including `Crashed { CrashForensics }` and
//! `TimedOut`) and assert the binary round-trip is indistinguishable from
//! the original — the exact equivalence the byte-identity guarantee of
//! process isolation rests on. The decoders also face hostile input from
//! another process: arbitrary bytes and every truncation of a valid frame
//! must come back as `InvalidData`, never as a panic.

use goat::core::wire::{self, WireFrame};
use goat::model::{Cu, CuKind};
use goat::runtime::{
    AliveGoroutine, Config, CrashForensics, Decision, ReplayLog, RunOutcome, RunResult,
    SchedCounters, StrategyKind, TimeoutPhase,
};
use goat::trace::wire::{decode_events, encode_events, Reader};
use goat::trace::{BlockReason, Ect, Event, EventKind, Gid, LockWait, RId, SelCaseFlavor, VTime};
use proptest::prelude::*;
use std::io::ErrorKind;

/// One raw draw the event builder turns into a concrete event: the kind
/// selector plus three free knobs the payload fields are carved from.
type EvSpec = (u8, u64, u64, bool);

fn ev_spec() -> impl Strategy<Value = EvSpec> {
    (0u8..29, any::<u64>(), any::<u64>(), any::<bool>())
}

const FILES: [&str; 3] = ["app/worker.go", "pkg/queue/queue.go", "internal/mu.go"];
const REASONS: [BlockReason; 7] = [
    BlockReason::Send,
    BlockReason::Recv,
    BlockReason::Select,
    BlockReason::Sync,
    BlockReason::Cond,
    BlockReason::WaitGroup,
    BlockReason::Sleep,
];
const FLAVORS: [SelCaseFlavor; 3] =
    [SelCaseFlavor::Send, SelCaseFlavor::Recv, SelCaseFlavor::Default];
const CU_KINDS: [CuKind; 4] = [CuKind::Send, CuKind::Recv, CuKind::Lock, CuKind::Go];

fn make_cu(a: u64, b: u64) -> Cu {
    Cu::new(
        FILES[(a % FILES.len() as u64) as usize],
        (b % 4096) as u32 + 1,
        CU_KINDS[(b % CU_KINDS.len() as u64) as usize],
    )
}

/// Build a dense-seq, time-monotone trace from raw spec draws. The kinds
/// deliberately sweep the whole `EventKind` vocabulary — interned names,
/// Cu-bearing concurrency sites, select case vectors, signed waitgroup
/// deltas, and `usize::MAX` select-default sentinels all appear.
fn build_events(specs: &[EvSpec]) -> Vec<Event> {
    let mut ts = 0u64;
    specs
        .iter()
        .enumerate()
        .map(|(i, &(pick, a, b, flag))| {
            ts += a % 11;
            let rid = RId(a % 9);
            let kind = match pick {
                0 => EventKind::GoCreate {
                    // Unique per event so traces stay double-create free.
                    new_g: Gid(1000 + i as u64),
                    name: format!("worker-{}", a % 3).into(),
                    internal: flag,
                },
                1 => EventKind::GoStart,
                2 => EventKind::GoEnd,
                3 => EventKind::GoStop,
                4 => EventKind::GoSched { trace_stop: flag },
                5 => EventKind::GoPreempt,
                6 => EventKind::GoSleep,
                7 => EventKind::GoBlock {
                    reason: REASONS[(a % REASONS.len() as u64) as usize],
                    lock: flag.then(|| LockWait {
                        mu: rid,
                        holder: Gid(b % 5),
                        holder_cu: make_cu(b, a),
                        read: b % 2 == 0,
                    }),
                },
                8 => EventKind::GoUnblock { g: Gid(b % 6) },
                9 => EventKind::GoWaiting,
                10 => EventKind::Gomaxprocs { n: (a % 16) as u32 + 1 },
                11 => EventKind::HeapAlloc { bytes: b },
                12 => EventKind::UserLog { msg: format!("log {a} \u{1f} {b}") },
                13 => EventKind::TimerFire { timer: rid },
                14 => EventKind::ChMake { ch: rid, cap: (b % 5) as usize },
                15 => EventKind::ChSend { ch: rid },
                16 => EventKind::ChRecv { ch: rid, closed: flag },
                17 => EventKind::ChClose { ch: rid },
                18 => EventKind::SelectBegin {
                    cases: (0..(b % 4))
                        .map(|j| {
                            let fl = FLAVORS[((b + j) % 3) as usize];
                            let ch = (fl != SelCaseFlavor::Default).then(|| RId((a + j) % 9));
                            (fl, ch)
                        })
                        .collect(),
                    has_default: flag,
                },
                19 => {
                    let fl = FLAVORS[(a % 3) as usize];
                    EventKind::SelectEnd {
                        chosen: if fl == SelCaseFlavor::Default {
                            usize::MAX
                        } else {
                            (b % 4) as usize
                        },
                        flavor: fl,
                        ch: (fl != SelCaseFlavor::Default).then_some(rid),
                    }
                }
                20 => EventKind::MuLock { mu: rid, tried: flag },
                21 => EventKind::MuUnlock { mu: rid },
                22 => EventKind::RwRLock { mu: rid },
                23 => EventKind::RwRUnlock { mu: rid },
                24 => {
                    EventKind::WgAdd { wg: rid, delta: (b % 5) as i64 - 2, count: (a % 7) as i64 }
                }
                25 => EventKind::WgDone { wg: rid, count: (a % 7) as i64 },
                26 => EventKind::WgWait { wg: rid },
                27 => EventKind::CondWait { cv: rid },
                _ => {
                    if flag {
                        EventKind::CondSignal { cv: rid }
                    } else {
                        EventKind::CondBroadcast { cv: rid }
                    }
                }
            };
            let concurrency = matches!(
                kind,
                EventKind::ChSend { .. }
                    | EventKind::ChRecv { .. }
                    | EventKind::MuLock { .. }
                    | EventKind::WgAdd { .. }
                    | EventKind::SelectBegin { .. }
            );
            Event {
                seq: i as u64,
                ts: VTime(ts),
                g: Gid(b % 4),
                kind,
                cu: (concurrency && flag).then(|| make_cu(a, b)),
            }
        })
        .collect()
}

/// Raw draws for a full `RunOutcome`, covering all seven variants.
type OutcomeSpec = (u8, u64, u64, bool);

fn build_outcome(&(pick, a, b, flag): &OutcomeSpec) -> RunOutcome {
    match pick % 7 {
        0 => RunOutcome::Completed,
        1 => RunOutcome::GlobalDeadlock { blocked: (0..(a % 5)).map(|i| Gid(b % 7 + i)).collect() },
        2 => RunOutcome::Panicked { g: Gid(a % 9), msg: format!("send on closed channel #{b}") },
        3 => RunOutcome::StepLimit,
        4 => RunOutcome::TimedOut {
            phase: if flag { TimeoutPhase::Wedged } else { TimeoutPhase::Cooperative },
            elapsed_ms: a,
        },
        5 => RunOutcome::InfraFailure { reason: format!("checkout failed: os error {}", b % 255) },
        _ => RunOutcome::Crashed {
            forensics: CrashForensics {
                signal: flag.then_some((a % 32) as i32),
                exit_code: (!flag).then(|| (b % 256) as i32 - 128),
                stderr_tail: format!("thread 'main' panicked at step {a}\nnote: run {b}"),
                last_ack_iter: (b % 3 == 0).then_some(a),
                summary: format!("killed by signal {} (SIGABRT)", a % 32),
            },
        },
    }
}

/// Raw draws for a whole `Config`: seed, the two probabilities' bit
/// patterns, delay bound, step and event caps, flags, strategy pick,
/// PCT knobs, watchdog and replay-log shape.
type ConfigSpec = ((u64, u64, u64, u32), (u64, usize, u8, u8), (u32, u32, u64, u64));

fn config_spec() -> impl Strategy<Value = ConfigSpec> {
    (
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u32>()),
        (any::<u64>(), any::<usize>(), any::<u8>(), any::<u8>()),
        (any::<u32>(), any::<u32>(), any::<u64>(), any::<u64>()),
    )
}

/// Build a `Config` from raw draws. The probabilities are arbitrary bit
/// patterns — NaNs, infinities and subnormals included — because the
/// wire must carry them bit for bit, not merely as equal values. `spin`
/// stays 0: it has no effect and does not travel.
fn build_config(spec: &ConfigSpec) -> Config {
    let (
        (seed, preempt_bits, yield_bits, delay_bound),
        (max_steps, max_events, flags, pick),
        (depth, length, timeout, log),
    ) = *spec;
    let strategy = match pick % 3 {
        0 => StrategyKind::Native,
        1 => StrategyKind::Random,
        _ => StrategyKind::Pct { depth, length },
    };
    Config {
        seed,
        native_preempt_prob: f64::from_bits(preempt_bits),
        delay_bound,
        yield_prob: f64::from_bits(yield_bits),
        max_steps,
        trace: flags & 1 != 0,
        max_trace_events: max_events,
        replay: (flags & 2 != 0).then(|| ReplayLog {
            decisions: (0..log % 9)
                .map(|i| match (log >> (8 + 2 * i)) % 3 {
                    0 => Decision::Pick(Gid(log.rotate_left(i as u32))),
                    1 => Decision::SelectChoice((log >> i) as usize % 5),
                    _ => Decision::YieldAt((log >> i) & 1 != 0),
                })
                .collect(),
        }),
        strategy,
        pool: flags & 4 != 0,
        iter_timeout_ms: (flags & 8 != 0).then_some(timeout),
        spin: 0,
    }
}

/// Program names a `Run` frame may carry: every registered kernel, plus
/// the empty, non-ASCII and long names a hostile registry could hold.
fn program_name(pick: u64) -> String {
    let kernels = goat::goker::all_kernels();
    match (pick % (kernels.len() as u64 + 3)) as usize {
        i if i < kernels.len() => kernels[i].name.to_string(),
        i if i == kernels.len() => String::new(),
        i if i == kernels.len() + 1 => "κέρνελ/ü\u{1f}".to_string(),
        _ => "x".repeat(300),
    }
}

/// Assemble a `RunResult` exercising every field the wire must carry.
fn build_result(outcome: RunOutcome, events: Vec<Event>, a: u64, b: u64, flag: bool) -> RunResult {
    let ect: Option<Ect> = (!events.is_empty()).then(|| events.into_iter().collect());
    RunResult {
        outcome,
        ect,
        steps: a,
        vclock: VTime(b),
        goroutines: a % 64,
        yields_injected: (b % 1000) as u32,
        priority_changes: (a % 16) as u32,
        alive_at_end: (0..(b % 4))
            .map(|i| AliveGoroutine {
                g: Gid(10 + i),
                name: format!("g{i}"),
                state: if i % 2 == 0 { "blocked: recv".into() } else { "runnable".into() },
                internal: flag && i == 0,
            })
            .collect(),
        schedule: ReplayLog {
            decisions: (0..(a % 6))
                .map(|i| match i % 3 {
                    0 => Decision::Pick(Gid(b % 5 + i)),
                    1 => Decision::SelectChoice((b % 4) as usize),
                    _ => Decision::YieldAt(flag),
                })
                .collect(),
        },
        replay_diverged: flag,
        sched: SchedCounters {
            picks: a,
            random_picks: a % 97,
            blocks: b % 1024,
            unblocks: b % 1023,
            yields_preempt: a % 33,
            yields_gosched: b % 17,
            timer_fires: a % 5,
            select_choices: b % 11,
        },
        fingerprint: a ^ b.rotate_left(17),
        panic_detail: flag.then(|| format!("panicked at 'boom {a}', src/lib.rs:{}", b % 500)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 192, ..ProptestConfig::default() })]

    /// Event-level codec: varint-delta encode → decode is the identity on
    /// arbitrary dense trace buffers, and consumes its payload exactly.
    #[test]
    fn trace_events_roundtrip_bitwise(specs in prop::collection::vec(ev_spec(), 0..60)) {
        let events = build_events(&specs);
        let mut buf = Vec::new();
        encode_events(&events, &mut buf);
        let mut r = Reader::new(&buf);
        let back = decode_events(&mut r).expect("decode well-formed events");
        prop_assert_eq!(&back, &events);
        prop_assert!(r.is_empty(), "codec left {} unread bytes", r.remaining());
    }

    /// Result-level differential: the binary round-trip of a `RunResult`
    /// is indistinguishable from the original under the JSON serializer —
    /// the binary wire carries everything the serde rendering shows.
    #[test]
    fn run_results_agree_with_the_json_path(
        specs in prop::collection::vec(ev_spec(), 0..40),
        outcome in (any::<u8>(), any::<u64>(), any::<u64>(), any::<bool>()),
        a in any::<u64>(),
        b in any::<u64>(),
        flag in any::<bool>(),
    ) {
        let result = build_result(build_outcome(&outcome), build_events(&specs), a, b, flag);
        let json_before = serde_json::to_string(&result).expect("serialize original");

        let mut buf = Vec::new();
        wire::encode_result(&result, &mut buf);
        let mut r = Reader::new(&buf);
        let back = wire::decode_result(&mut r).expect("decode well-formed result");
        prop_assert!(r.is_empty(), "codec left {} unread bytes", r.remaining());

        let json_after = serde_json::to_string(&back).expect("serialize round-trip");
        prop_assert_eq!(json_after, json_before);
    }

    /// Frame-level differential: a `Result` frame survives the full
    /// framed encode → length-prefix strip → decode path intact.
    #[test]
    fn result_frames_roundtrip_end_to_end(
        specs in prop::collection::vec(ev_spec(), 0..20),
        outcome in (any::<u8>(), any::<u64>(), any::<u64>(), any::<bool>()),
        iter in any::<u64>(),
        a in any::<u64>(),
        b in any::<u64>(),
    ) {
        let result = build_result(build_outcome(&outcome), build_events(&specs), a, b, false);
        let json_before = serde_json::to_string(&result).expect("serialize original");

        let frame = WireFrame::Result { iter, result: Box::new(result) };
        let mut framed = Vec::new();
        wire::encode_frame_into(&frame, &mut framed).expect("encode frame");
        // `[u32 LE len][payload]`: the length prefix must match exactly.
        let len = u32::from_le_bytes(framed[..4].try_into().unwrap()) as usize;
        prop_assert_eq!(len, framed.len() - 4);

        match wire::decode_frame(&framed[4..]).expect("decode frame") {
            WireFrame::Result { iter: got_iter, result: got } => {
                prop_assert_eq!(got_iter, iter);
                let json_after = serde_json::to_string(&*got).expect("serialize round-trip");
                prop_assert_eq!(json_after, json_before);
            }
            other => prop_assert!(false, "decoded wrong frame: {other:?}"),
        }
    }

    /// A `Run` frame carries its program name and a whole `Config`
    /// exactly: both probabilities bit for bit, replay logs, PCT
    /// strategies and the watchdog. The borrowed-value encoder the
    /// orchestrator uses writes the same bytes as the frame encoder.
    #[test]
    fn run_frames_roundtrip_arbitrary_configs(
        spec in config_spec(),
        iter in any::<u64>(),
        name in any::<u64>(),
    ) {
        let cfg = build_config(&spec);
        let program = program_name(name);
        let mut direct = Vec::new();
        wire::encode_run_into(iter, &program, &cfg, &mut direct).expect("encode run");
        let frame = WireFrame::Run { iter, program: program.clone(), cfg: Box::new(cfg.clone()) };
        let mut framed = Vec::new();
        wire::encode_frame_into(&frame, &mut framed).expect("encode frame");
        prop_assert_eq!(&direct, &framed);
        let len = u32::from_le_bytes(framed[..4].try_into().unwrap()) as usize;
        prop_assert_eq!(len, framed.len() - 4);

        match wire::decode_frame(&framed[4..]).expect("decode frame") {
            WireFrame::Run { iter: got_iter, program: got_program, cfg: got } => {
                prop_assert_eq!(got_iter, iter);
                prop_assert_eq!(got_program, program);
                prop_assert_eq!(got.native_preempt_prob.to_bits(), cfg.native_preempt_prob.to_bits());
                prop_assert_eq!(got.yield_prob.to_bits(), cfg.yield_prob.to_bits());
                // Config has no PartialEq; Debug renders every field.
                prop_assert_eq!(format!("{got:?}"), format!("{cfg:?}"));
            }
            other => prop_assert!(false, "decoded wrong frame: {other:?}"),
        }
    }

    /// Hostile-input totality: any payload — raw bytes, or bytes behind a
    /// valid frame tag so the field decoders are reached — decodes to a
    /// frame or fails with `InvalidData`; it never panics.
    #[test]
    fn arbitrary_bytes_decode_or_fail_as_invalid_data(
        tagged in any::<bool>(),
        tag in 0u8..8,
        bytes in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let mut payload = Vec::with_capacity(bytes.len() + 1);
        if tagged {
            payload.push(tag);
        }
        payload.extend_from_slice(&bytes);
        if let Err(e) = wire::decode_frame(&payload) {
            prop_assert_eq!(e.kind(), ErrorKind::InvalidData, "{}", e);
        }
    }
}

/// One frame of every kind the wire carries, each with non-trivial
/// fields (a `Run` config with a replay log, a PCT strategy and a
/// watchdog, a `Result` with a trace and crash forensics).
fn one_frame_of_each_kind() -> Vec<WireFrame> {
    let specs: Vec<EvSpec> =
        (0..12u8).map(|i| (i * 5 % 29, i as u64 * 3 + 1, i as u64 * 7 + 2, i % 3 == 0)).collect();
    let mut cfg = Config::new(u64::MAX)
        .with_delay_bound(2)
        .with_yield_prob(0.5)
        .with_max_steps(123_456)
        .with_strategy(StrategyKind::Pct { depth: 3, length: 512 })
        .with_iter_timeout_ms(Some(2000));
    cfg.replay = Some(ReplayLog {
        decisions: vec![Decision::Pick(Gid(3)), Decision::SelectChoice(1), Decision::YieldAt(true)],
    });
    vec![
        WireFrame::Ready,
        WireFrame::Run { iter: 300, program: "etcd6708".into(), cfg: Box::new(cfg) },
        WireFrame::Ack { iter: 300 },
        WireFrame::Heartbeat { iter: 300 },
        WireFrame::Result {
            iter: 300,
            result: Box::new(build_result(
                build_outcome(&(6, 11, 42, true)),
                build_events(&specs),
                5,
                9,
                true,
            )),
        },
    ]
}

/// Every strict prefix of every frame kind is corrupt: the decoder must
/// run out of bytes and say so, rather than return a shorter frame.
#[test]
fn every_strict_prefix_of_each_frame_kind_is_rejected() {
    for frame in one_frame_of_each_kind() {
        let mut framed = Vec::new();
        wire::encode_frame_into(&frame, &mut framed).expect("encode frame");
        let payload = &framed[4..];
        let full = wire::decode_frame(payload).expect("the whole payload decodes");
        assert_eq!(format!("{full:?}"), format!("{frame:?}"));
        for cut in 0..payload.len() {
            let e = wire::decode_frame(&payload[..cut])
                .expect_err(&format!("{cut}-byte prefix of {frame:?} must be rejected"));
            assert_eq!(e.kind(), ErrorKind::InvalidData, "{cut}-byte prefix: {e}");
        }
    }
}

/// Truncating a valid binary result payload at any byte must fail with an
/// error, never panic and never decode to a different value — the decoder
/// treats every prefix as corruption.
#[test]
fn truncated_result_payloads_error_out_cleanly() {
    let specs: Vec<EvSpec> =
        (0..24u8).map(|i| (i % 29, i as u64 * 7 + 3, i as u64 * 13 + 1, i % 2 == 0)).collect();
    let result = build_result(build_outcome(&(6, 11, 42, true)), build_events(&specs), 5, 9, true);
    let mut buf = Vec::new();
    wire::encode_result(&result, &mut buf);
    let json_full = serde_json::to_string(&result).expect("serialize");
    for cut in 0..buf.len() {
        let mut r = Reader::new(&buf[..cut]);
        if let Ok(back) = wire::decode_result(&mut r) {
            // A prefix may only decode successfully if trailing bytes were
            // pure padding — it must still be the same value.
            assert_eq!(serde_json::to_string(&back).expect("serialize"), json_full);
        }
    }
}
