//! Compact little-endian binary codec for trace events.
//!
//! Process isolation (`GOAT_ISOLATE=proc`) ships whole execution
//! concurrency traces across the worker pipe on every iteration;
//! JSON-encoding a million-event trace costs more than executing it.
//! This module provides the wire primitives (LEB128 varints, zigzag
//! signed varints, length-prefixed strings) and a delta codec for event
//! sequences:
//!
//! * `seq`, `ts` and `g` are encoded as zigzag deltas against the
//!   previous event — dense sequences cost one byte per field;
//! * CU file paths and goroutine names are interned into a per-buffer
//!   string table, so each distinct path is transmitted once and every
//!   repeat is a one/two-byte index (decoded straight back into
//!   [`Istr`] handles, keeping decoded events `Copy`-cheap);
//! * every event kind is a one-byte tag followed by its varint payload.
//!
//! The codec is lossless: `decode_events(encode_events(evs)) == evs`
//! for arbitrary event buffers (proven by proptests in
//! `tests/ipc_wire.rs`), and the decode side draws its event vector
//! from the [`crate::recycle`] trace-buffer pool so round-tripped
//! traces participate in buffer recycling like natively recorded ones.

use crate::event::{BlockReason, Event, EventKind, Gid, LockWait, RId, SelCaseFlavor, VTime};
use goat_model::{Cu, CuKind, Istr};
use std::collections::HashMap;
use std::io::{self, ErrorKind};

/// Append `v` as a LEB128 varint (7 bits per byte, little-endian).
pub fn put_uvarint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push((v as u8) | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Append `v` zigzag-mapped to an unsigned varint (small magnitudes of
/// either sign stay short).
pub fn put_ivarint(buf: &mut Vec<u8>, v: i64) {
    put_uvarint(buf, ((v << 1) ^ (v >> 63)) as u64);
}

/// Append an `f64` as its 8 IEEE-754 bits, little-endian (bit-exact
/// round trip, unlike any decimal rendering).
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_uvarint(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

/// Append a `bool` as one byte.
pub fn put_bool(buf: &mut Vec<u8>, v: bool) {
    buf.push(v as u8);
}

fn err(msg: &str) -> io::Error {
    io::Error::new(ErrorKind::InvalidData, format!("wire: {msg}"))
}

/// Cursor over an encoded payload; every accessor validates bounds and
/// returns [`ErrorKind::InvalidData`] on truncated or malformed input
/// instead of panicking (the bytes come from another process).
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wrap a payload.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Has every byte been consumed?
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Read one byte.
    pub fn u8(&mut self) -> io::Result<u8> {
        let b = *self.buf.get(self.pos).ok_or_else(|| err("truncated byte"))?;
        self.pos += 1;
        Ok(b)
    }

    /// Read a LEB128 varint.
    pub fn uvarint(&mut self) -> io::Result<u64> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            if shift == 63 && b > 1 {
                return Err(err("varint overflows u64"));
            }
            v |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(err("varint too long"));
            }
        }
    }

    /// Read a zigzag varint.
    pub fn ivarint(&mut self) -> io::Result<i64> {
        let v = self.uvarint()?;
        Ok(((v >> 1) as i64) ^ -((v & 1) as i64))
    }

    /// Read an `f64` written by [`put_f64`].
    pub fn f64(&mut self) -> io::Result<f64> {
        let bytes = self.bytes_fixed(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(bytes);
        Ok(f64::from_bits(u64::from_le_bytes(a)))
    }

    /// Read a `bool` written by [`put_bool`].
    pub fn bool(&mut self) -> io::Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(err(&format!("bad bool byte {other}"))),
        }
    }

    /// Read exactly `n` raw bytes.
    pub fn bytes_fixed(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(err("truncated bytes"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read an element count for a sequence whose elements each take at
    /// least `min_bytes` on the wire. A count that cannot fit in the
    /// bytes left is corrupt input, rejected before any allocation is
    /// sized from it: the caller's `Vec::with_capacity(n)` reserves
    /// `n × size_of::<T>()`, far more than `n × min_bytes`.
    pub fn count(&mut self, min_bytes: usize, what: &str) -> io::Result<usize> {
        let n = self.uvarint()?;
        if n > (self.remaining() / min_bytes.max(1)) as u64 {
            return Err(err(&format!("{what} count exceeds payload")));
        }
        Ok(n as usize)
    }

    /// Read a length-prefixed string written by [`put_str`].
    pub fn str(&mut self) -> io::Result<&'a str> {
        let len = self.uvarint()? as usize;
        if len > self.remaining() {
            return Err(err("string length exceeds payload"));
        }
        let bytes = self.bytes_fixed(len)?;
        std::str::from_utf8(bytes).map_err(|_| err("string is not UTF-8"))
    }
}

/// Encode-side string interning table: the first occurrence of a string
/// travels inline (marker `0` + payload), repeats travel as `index+1`.
#[derive(Default)]
struct StrTableEnc {
    idx: HashMap<&'static str, u64>,
}

impl StrTableEnc {
    fn put(&mut self, buf: &mut Vec<u8>, s: Istr) {
        match self.idx.get(s.as_str()) {
            Some(&i) => put_uvarint(buf, i + 1),
            None => {
                put_uvarint(buf, 0);
                put_str(buf, s.as_str());
                self.idx.insert(s.as_str(), self.idx.len() as u64);
            }
        }
    }
}

/// Decode-side table mirroring [`StrTableEnc`]; entries land in the
/// process-wide [`Istr`] arena.
#[derive(Default)]
struct StrTableDec {
    strs: Vec<Istr>,
}

impl StrTableDec {
    fn get(&mut self, r: &mut Reader<'_>) -> io::Result<Istr> {
        match r.uvarint()? {
            0 => {
                let s = Istr::new(r.str()?);
                self.strs.push(s);
                Ok(s)
            }
            i => self
                .strs
                .get((i - 1) as usize)
                .copied()
                .ok_or_else(|| err("string table index out of range")),
        }
    }
}

fn put_opt_rid(buf: &mut Vec<u8>, r: Option<RId>) {
    match r {
        Some(RId(v)) => {
            buf.push(1);
            put_uvarint(buf, v);
        }
        None => buf.push(0),
    }
}

fn get_opt_rid(r: &mut Reader<'_>) -> io::Result<Option<RId>> {
    Ok(match r.bool()? {
        true => Some(RId(r.uvarint()?)),
        false => None,
    })
}

fn block_reason_tag(b: BlockReason) -> u8 {
    match b {
        BlockReason::Send => 0,
        BlockReason::Recv => 1,
        BlockReason::Select => 2,
        BlockReason::Sync => 3,
        BlockReason::Cond => 4,
        BlockReason::WaitGroup => 5,
        BlockReason::Sleep => 6,
    }
}

fn block_reason_from(t: u8) -> io::Result<BlockReason> {
    Ok(match t {
        0 => BlockReason::Send,
        1 => BlockReason::Recv,
        2 => BlockReason::Select,
        3 => BlockReason::Sync,
        4 => BlockReason::Cond,
        5 => BlockReason::WaitGroup,
        6 => BlockReason::Sleep,
        other => return Err(err(&format!("bad block reason {other}"))),
    })
}

fn flavor_tag(f: SelCaseFlavor) -> u8 {
    match f {
        SelCaseFlavor::Send => 0,
        SelCaseFlavor::Recv => 1,
        SelCaseFlavor::Default => 2,
    }
}

fn flavor_from(t: u8) -> io::Result<SelCaseFlavor> {
    Ok(match t {
        0 => SelCaseFlavor::Send,
        1 => SelCaseFlavor::Recv,
        2 => SelCaseFlavor::Default,
        other => return Err(err(&format!("bad select flavor {other}"))),
    })
}

fn cu_kind_tag(k: CuKind) -> u8 {
    CuKind::ALL.iter().position(|&c| c == k).expect("CuKind::ALL is total") as u8
}

fn cu_kind_from(t: u8) -> io::Result<CuKind> {
    CuKind::ALL.get(t as usize).copied().ok_or_else(|| err(&format!("bad CU kind {t}")))
}

fn put_cu(buf: &mut Vec<u8>, table: &mut StrTableEnc, cu: Option<&Cu>) {
    match cu {
        Some(c) => {
            buf.push(1);
            table.put(buf, c.file);
            put_uvarint(buf, u64::from(c.line));
            buf.push(cu_kind_tag(c.kind));
        }
        None => buf.push(0),
    }
}

fn get_cu(r: &mut Reader<'_>, table: &mut StrTableDec) -> io::Result<Option<Cu>> {
    if !r.bool()? {
        return Ok(None);
    }
    let file = table.get(r)?;
    let line = r.uvarint()? as u32;
    let kind = cu_kind_from(r.u8()?)?;
    Ok(Some(Cu { file, line, kind }))
}

// Event-kind tags, in declaration order of [`EventKind`].
const T_PROC_START: u8 = 0;
const T_PROC_STOP: u8 = 1;
const T_GOMAXPROCS: u8 = 2;
const T_GC_START: u8 = 3;
const T_GC_DONE: u8 = 4;
const T_GC_STW_START: u8 = 5;
const T_GC_STW_DONE: u8 = 6;
const T_GC_SWEEP_START: u8 = 7;
const T_GC_SWEEP_DONE: u8 = 8;
const T_HEAP_ALLOC: u8 = 9;
const T_GO_CREATE: u8 = 10;
const T_GO_START: u8 = 11;
const T_GO_END: u8 = 12;
const T_GO_STOP: u8 = 13;
const T_GO_SCHED: u8 = 14;
const T_GO_PREEMPT: u8 = 15;
const T_GO_SLEEP: u8 = 16;
const T_GO_BLOCK: u8 = 17;
const T_GO_UNBLOCK: u8 = 18;
const T_GO_WAITING: u8 = 19;
const T_GO_BLOCK_NET: u8 = 20;
const T_GO_IN_SYSCALL: u8 = 21;
const T_GO_SYS_CALL: u8 = 22;
const T_GO_SYS_EXIT: u8 = 23;
const T_GO_SYS_BLOCK: u8 = 24;
const T_USER_LOG: u8 = 25;
const T_USER_TASK_CREATE: u8 = 26;
const T_USER_TASK_END: u8 = 27;
const T_USER_REGION: u8 = 28;
const T_FUTILE_WAKEUP: u8 = 29;
const T_TIMER_FIRE: u8 = 30;
const T_CH_MAKE: u8 = 31;
const T_CH_SEND: u8 = 32;
const T_CH_RECV: u8 = 33;
const T_CH_CLOSE: u8 = 34;
const T_SELECT_BEGIN: u8 = 35;
const T_SELECT_END: u8 = 36;
const T_MU_LOCK: u8 = 37;
const T_MU_UNLOCK: u8 = 38;
const T_RW_RLOCK: u8 = 39;
const T_RW_RUNLOCK: u8 = 40;
const T_WG_ADD: u8 = 41;
const T_WG_DONE: u8 = 42;
const T_WG_WAIT: u8 = 43;
const T_COND_WAIT: u8 = 44;
const T_COND_SIGNAL: u8 = 45;
const T_COND_BROADCAST: u8 = 46;

fn put_kind(buf: &mut Vec<u8>, table: &mut StrTableEnc, kind: &EventKind) {
    use EventKind::*;
    match kind {
        ProcStart => buf.push(T_PROC_START),
        ProcStop => buf.push(T_PROC_STOP),
        Gomaxprocs { n } => {
            buf.push(T_GOMAXPROCS);
            put_uvarint(buf, u64::from(*n));
        }
        GcStart => buf.push(T_GC_START),
        GcDone => buf.push(T_GC_DONE),
        GcStwStart => buf.push(T_GC_STW_START),
        GcStwDone => buf.push(T_GC_STW_DONE),
        GcSweepStart => buf.push(T_GC_SWEEP_START),
        GcSweepDone => buf.push(T_GC_SWEEP_DONE),
        HeapAlloc { bytes } => {
            buf.push(T_HEAP_ALLOC);
            put_uvarint(buf, *bytes);
        }
        GoCreate { new_g, name, internal } => {
            buf.push(T_GO_CREATE);
            put_uvarint(buf, new_g.0);
            table.put(buf, *name);
            put_bool(buf, *internal);
        }
        GoStart => buf.push(T_GO_START),
        GoEnd => buf.push(T_GO_END),
        GoStop => buf.push(T_GO_STOP),
        GoSched { trace_stop } => {
            buf.push(T_GO_SCHED);
            put_bool(buf, *trace_stop);
        }
        GoPreempt => buf.push(T_GO_PREEMPT),
        GoSleep => buf.push(T_GO_SLEEP),
        GoBlock { reason, lock } => {
            buf.push(T_GO_BLOCK);
            buf.push(block_reason_tag(*reason));
            // The holder's CU doubles as the lock wait's presence marker.
            put_cu(buf, table, lock.as_ref().map(|w| &w.holder_cu));
            if let Some(w) = lock {
                put_uvarint(buf, w.mu.0);
                put_uvarint(buf, w.holder.0);
                put_bool(buf, w.read);
            }
        }
        GoUnblock { g } => {
            buf.push(T_GO_UNBLOCK);
            put_uvarint(buf, g.0);
        }
        GoWaiting => buf.push(T_GO_WAITING),
        GoBlockNet => buf.push(T_GO_BLOCK_NET),
        GoInSyscall => buf.push(T_GO_IN_SYSCALL),
        GoSysCall => buf.push(T_GO_SYS_CALL),
        GoSysExit => buf.push(T_GO_SYS_EXIT),
        GoSysBlock => buf.push(T_GO_SYS_BLOCK),
        UserLog { msg } => {
            buf.push(T_USER_LOG);
            put_str(buf, msg);
        }
        UserTaskCreate => buf.push(T_USER_TASK_CREATE),
        UserTaskEnd => buf.push(T_USER_TASK_END),
        UserRegion => buf.push(T_USER_REGION),
        FutileWakeup => buf.push(T_FUTILE_WAKEUP),
        TimerFire { timer } => {
            buf.push(T_TIMER_FIRE);
            put_uvarint(buf, timer.0);
        }
        ChMake { ch, cap } => {
            buf.push(T_CH_MAKE);
            put_uvarint(buf, ch.0);
            put_uvarint(buf, *cap as u64);
        }
        ChSend { ch } => {
            buf.push(T_CH_SEND);
            put_uvarint(buf, ch.0);
        }
        ChRecv { ch, closed } => {
            buf.push(T_CH_RECV);
            put_uvarint(buf, ch.0);
            put_bool(buf, *closed);
        }
        ChClose { ch } => {
            buf.push(T_CH_CLOSE);
            put_uvarint(buf, ch.0);
        }
        SelectBegin { cases, has_default } => {
            buf.push(T_SELECT_BEGIN);
            put_uvarint(buf, cases.len() as u64);
            for (flavor, ch) in cases {
                buf.push(flavor_tag(*flavor));
                put_opt_rid(buf, *ch);
            }
            put_bool(buf, *has_default);
        }
        SelectEnd { chosen, flavor, ch } => {
            buf.push(T_SELECT_END);
            put_uvarint(buf, *chosen as u64);
            buf.push(flavor_tag(*flavor));
            put_opt_rid(buf, *ch);
        }
        MuLock { mu, tried } => {
            buf.push(T_MU_LOCK);
            put_uvarint(buf, mu.0);
            put_bool(buf, *tried);
        }
        MuUnlock { mu } => {
            buf.push(T_MU_UNLOCK);
            put_uvarint(buf, mu.0);
        }
        RwRLock { mu } => {
            buf.push(T_RW_RLOCK);
            put_uvarint(buf, mu.0);
        }
        RwRUnlock { mu } => {
            buf.push(T_RW_RUNLOCK);
            put_uvarint(buf, mu.0);
        }
        WgAdd { wg, delta, count } => {
            buf.push(T_WG_ADD);
            put_uvarint(buf, wg.0);
            put_ivarint(buf, *delta);
            put_ivarint(buf, *count);
        }
        WgDone { wg, count } => {
            buf.push(T_WG_DONE);
            put_uvarint(buf, wg.0);
            put_ivarint(buf, *count);
        }
        WgWait { wg } => {
            buf.push(T_WG_WAIT);
            put_uvarint(buf, wg.0);
        }
        CondWait { cv } => {
            buf.push(T_COND_WAIT);
            put_uvarint(buf, cv.0);
        }
        CondSignal { cv } => {
            buf.push(T_COND_SIGNAL);
            put_uvarint(buf, cv.0);
        }
        CondBroadcast { cv } => {
            buf.push(T_COND_BROADCAST);
            put_uvarint(buf, cv.0);
        }
    }
}

fn get_kind(r: &mut Reader<'_>, table: &mut StrTableDec) -> io::Result<EventKind> {
    use EventKind::*;
    Ok(match r.u8()? {
        T_PROC_START => ProcStart,
        T_PROC_STOP => ProcStop,
        T_GOMAXPROCS => Gomaxprocs { n: r.uvarint()? as u32 },
        T_GC_START => GcStart,
        T_GC_DONE => GcDone,
        T_GC_STW_START => GcStwStart,
        T_GC_STW_DONE => GcStwDone,
        T_GC_SWEEP_START => GcSweepStart,
        T_GC_SWEEP_DONE => GcSweepDone,
        T_HEAP_ALLOC => HeapAlloc { bytes: r.uvarint()? },
        T_GO_CREATE => {
            GoCreate { new_g: Gid(r.uvarint()?), name: table.get(r)?, internal: r.bool()? }
        }
        T_GO_START => GoStart,
        T_GO_END => GoEnd,
        T_GO_STOP => GoStop,
        T_GO_SCHED => GoSched { trace_stop: r.bool()? },
        T_GO_PREEMPT => GoPreempt,
        T_GO_SLEEP => GoSleep,
        T_GO_BLOCK => {
            let reason = block_reason_from(r.u8()?)?;
            let lock = match get_cu(r, table)? {
                Some(holder_cu) => Some(LockWait {
                    holder_cu,
                    mu: RId(r.uvarint()?),
                    holder: Gid(r.uvarint()?),
                    read: r.bool()?,
                }),
                None => None,
            };
            GoBlock { reason, lock }
        }
        T_GO_UNBLOCK => GoUnblock { g: Gid(r.uvarint()?) },
        T_GO_WAITING => GoWaiting,
        T_GO_BLOCK_NET => GoBlockNet,
        T_GO_IN_SYSCALL => GoInSyscall,
        T_GO_SYS_CALL => GoSysCall,
        T_GO_SYS_EXIT => GoSysExit,
        T_GO_SYS_BLOCK => GoSysBlock,
        T_USER_LOG => UserLog { msg: r.str()?.to_string() },
        T_USER_TASK_CREATE => UserTaskCreate,
        T_USER_TASK_END => UserTaskEnd,
        T_USER_REGION => UserRegion,
        T_FUTILE_WAKEUP => FutileWakeup,
        T_TIMER_FIRE => TimerFire { timer: RId(r.uvarint()?) },
        T_CH_MAKE => ChMake { ch: RId(r.uvarint()?), cap: r.uvarint()? as usize },
        T_CH_SEND => ChSend { ch: RId(r.uvarint()?) },
        T_CH_RECV => ChRecv { ch: RId(r.uvarint()?), closed: r.bool()? },
        T_CH_CLOSE => ChClose { ch: RId(r.uvarint()?) },
        T_SELECT_BEGIN => {
            // Flavor tag plus the channel-presence marker.
            let n = r.count(2, "select case")?;
            let mut cases = Vec::with_capacity(n);
            for _ in 0..n {
                let flavor = flavor_from(r.u8()?)?;
                cases.push((flavor, get_opt_rid(r)?));
            }
            SelectBegin { cases, has_default: r.bool()? }
        }
        T_SELECT_END => SelectEnd {
            chosen: r.uvarint()? as usize,
            flavor: flavor_from(r.u8()?)?,
            ch: get_opt_rid(r)?,
        },
        T_MU_LOCK => MuLock { mu: RId(r.uvarint()?), tried: r.bool()? },
        T_MU_UNLOCK => MuUnlock { mu: RId(r.uvarint()?) },
        T_RW_RLOCK => RwRLock { mu: RId(r.uvarint()?) },
        T_RW_RUNLOCK => RwRUnlock { mu: RId(r.uvarint()?) },
        T_WG_ADD => WgAdd { wg: RId(r.uvarint()?), delta: r.ivarint()?, count: r.ivarint()? },
        T_WG_DONE => WgDone { wg: RId(r.uvarint()?), count: r.ivarint()? },
        T_WG_WAIT => WgWait { wg: RId(r.uvarint()?) },
        T_COND_WAIT => CondWait { cv: RId(r.uvarint()?) },
        T_COND_SIGNAL => CondSignal { cv: RId(r.uvarint()?) },
        T_COND_BROADCAST => CondBroadcast { cv: RId(r.uvarint()?) },
        other => return Err(err(&format!("bad event tag {other}"))),
    })
}

/// Append `events` in the delta wire format: a varint count followed by
/// one record per event (`[kind tag][Δseq][Δts][Δg][payload][cu?]`).
pub fn encode_events(events: &[Event], buf: &mut Vec<u8>) {
    put_uvarint(buf, events.len() as u64);
    let mut table = StrTableEnc::default();
    let (mut prev_seq, mut prev_ts, mut prev_g) = (0u64, 0u64, 0u64);
    for ev in events {
        put_kind(buf, &mut table, &ev.kind);
        put_ivarint(buf, ev.seq.wrapping_sub(prev_seq) as i64);
        put_ivarint(buf, ev.ts.0.wrapping_sub(prev_ts) as i64);
        put_ivarint(buf, ev.g.0.wrapping_sub(prev_g) as i64);
        put_cu(buf, &mut table, ev.cu.as_ref());
        (prev_seq, prev_ts, prev_g) = (ev.seq, ev.ts.0, ev.g.0);
    }
}

/// Decode an event sequence written by [`encode_events`]. The returned
/// vector comes from the [`crate::recycle`] pool, so callers that hand
/// it to [`crate::Ect::from_events`] keep the recycling loop closed.
pub fn decode_events(r: &mut Reader<'_>) -> io::Result<Vec<Event>> {
    // Each event costs at least 5 bytes on the wire: the kind tag, the
    // three delta varints and the CU marker.
    let n = r.count(5, "event")?;
    let mut table = StrTableDec::default();
    let mut events = crate::recycle::take_buffer();
    events.reserve(n);
    let (mut prev_seq, mut prev_ts, mut prev_g) = (0u64, 0u64, 0u64);
    for _ in 0..n {
        let kind = get_kind(r, &mut table)?;
        let seq = prev_seq.wrapping_add(r.ivarint()? as u64);
        let ts = prev_ts.wrapping_add(r.ivarint()? as u64);
        let g = prev_g.wrapping_add(r.ivarint()? as u64);
        let cu = get_cu(r, &mut table)?;
        (prev_seq, prev_ts, prev_g) = (seq, ts, g);
        events.push(Event { seq, ts: VTime(ts), g: Gid(g), kind, cu });
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrips_edge_values() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX - 1, u64::MAX] {
            let mut buf = Vec::new();
            put_uvarint(&mut buf, v);
            assert_eq!(Reader::new(&buf).uvarint().unwrap(), v);
        }
        for v in [0i64, -1, 1, -64, 63, i64::MIN, i64::MAX] {
            let mut buf = Vec::new();
            put_ivarint(&mut buf, v);
            assert_eq!(Reader::new(&buf).ivarint().unwrap(), v);
        }
    }

    #[test]
    fn truncated_varint_is_invalid_data() {
        let buf = [0x80u8, 0x80];
        assert!(Reader::new(&buf).uvarint().is_err());
        // 11 continuation bytes can never be a valid u64.
        let long = [0xffu8; 11];
        assert!(Reader::new(&long).uvarint().is_err());
    }

    #[test]
    fn f64_roundtrip_is_bit_exact() {
        for v in [0.0f64, -0.0, 0.5, 1.0 / 3.0, f64::MAX, f64::MIN_POSITIVE] {
            let mut buf = Vec::new();
            put_f64(&mut buf, v);
            assert_eq!(Reader::new(&buf).f64().unwrap().to_bits(), v.to_bits());
        }
    }

    #[test]
    fn events_roundtrip_with_interned_strings() {
        let cu = Cu::new("wire/test.rs", 42, CuKind::Send);
        let events = vec![
            Event { seq: 0, ts: VTime(0), g: Gid(1), kind: EventKind::GoStart, cu: None },
            Event {
                seq: 1,
                ts: VTime(100),
                g: Gid(1),
                kind: EventKind::GoCreate { new_g: Gid(2), name: "worker".into(), internal: false },
                cu: Some(Cu::new("wire/test.rs", 7, CuKind::Go)),
            },
            Event {
                seq: 2,
                ts: VTime(100),
                g: Gid(2),
                kind: EventKind::ChSend { ch: RId(3) },
                cu: Some(cu),
            },
            Event {
                seq: 3,
                ts: VTime(250),
                g: Gid(2),
                kind: EventKind::SelectBegin {
                    cases: vec![(SelCaseFlavor::Recv, Some(RId(3))), (SelCaseFlavor::Send, None)],
                    has_default: true,
                },
                cu: Some(Cu::new("wire/test.rs", 42, CuKind::Select)),
            },
            Event {
                seq: 4,
                ts: VTime(260),
                g: Gid(2),
                kind: EventKind::SelectEnd {
                    chosen: usize::MAX,
                    flavor: SelCaseFlavor::Default,
                    ch: None,
                },
                cu: None,
            },
            Event {
                seq: 5,
                ts: VTime(300),
                g: Gid(1),
                kind: EventKind::WgAdd { wg: RId(9), delta: -2, count: -1 },
                cu: None,
            },
        ];
        let mut buf = Vec::new();
        encode_events(&events, &mut buf);
        let mut r = Reader::new(&buf);
        let back = decode_events(&mut r).unwrap();
        assert!(r.is_empty());
        assert_eq!(back, events);
        // The repeated file path travels exactly once; later CUs refer
        // to it by table index.
        let path = b"wire/test.rs";
        let copies = buf.windows(path.len()).filter(|w| w == path).count();
        assert_eq!(copies, 1);
    }

    #[test]
    fn empty_event_buffer_roundtrips() {
        let mut buf = Vec::new();
        encode_events(&[], &mut buf);
        let back = decode_events(&mut Reader::new(&buf)).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn corrupt_event_payload_is_rejected() {
        // A count claiming more events than bytes remain.
        let mut buf = Vec::new();
        put_uvarint(&mut buf, 1_000_000);
        assert!(decode_events(&mut Reader::new(&buf)).is_err());
        // A count that fits the bytes left but not their fifth: no
        // event is shorter than 5 bytes, so it is rejected up front
        // instead of sizing an allocation from the claimed count.
        let mut buf = Vec::new();
        put_uvarint(&mut buf, 4);
        buf.extend_from_slice(&[0; 4]);
        let e = decode_events(&mut Reader::new(&buf)).expect_err("must reject");
        assert_eq!(e.kind(), ErrorKind::InvalidData);
        assert!(e.to_string().contains("event count exceeds payload"), "{e}");
        // A bad kind tag.
        let mut buf = Vec::new();
        put_uvarint(&mut buf, 1);
        buf.extend_from_slice(&[0xf7, 0, 0, 0, 0]);
        assert!(decode_events(&mut Reader::new(&buf)).is_err());
    }
}
