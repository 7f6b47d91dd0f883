//! Trace statistics: aggregate views of an ECT.
//!
//! The standard Go tracer feeds visualizers like `pprof` that summarise
//! goroutine latency and blocking behaviour (paper §III-D). This module
//! provides the equivalent aggregations over an ECT: event counts per
//! Table II category, per-goroutine blocking profiles with virtual-time
//! accounting, and per-resource contention counts.

use crate::ect::Ect;
use crate::event::{BlockReason, EventCategory, EventKind, Gid, RId, VTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Event counts per Table II category.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CategoryCounts {
    /// Counts keyed by category debug name.
    counts: BTreeMap<String, usize>,
}

impl CategoryCounts {
    /// Count of one category.
    pub fn get(&self, cat: EventCategory) -> usize {
        self.counts.get(&format!("{cat:?}")).copied().unwrap_or(0)
    }

    /// Total events counted.
    pub fn total(&self) -> usize {
        self.counts.values().sum()
    }
}

/// Blocking profile of one goroutine.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct GoroutineProfile {
    /// Events emitted by this goroutine.
    pub events: usize,
    /// Times the goroutine blocked, by reason.
    pub blocks: BTreeMap<String, usize>,
    /// Total virtual time spent blocked.
    pub blocked_vtime: VTime,
    /// Virtual time of the goroutine's first event.
    pub first_seen: VTime,
    /// Virtual time of the goroutine's last event.
    pub last_seen: VTime,
    /// Did the goroutine finish (`GoEnd`, or main's trace-stop yield)?
    pub finished: bool,
}

impl GoroutineProfile {
    /// Total number of blocking episodes.
    pub fn total_blocks(&self) -> usize {
        self.blocks.values().sum()
    }
}

/// Full statistics of one trace.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TraceStats {
    /// Event counts per tracer category.
    pub categories: CategoryCounts,
    /// Per-goroutine profiles.
    pub goroutines: BTreeMap<Gid, GoroutineProfile>,
    /// Blocking episodes per contended resource (from lock-block events).
    pub contended_resources: BTreeMap<RId, usize>,
    /// Total injected/native preemption yields observed.
    pub preemptions: usize,
    /// Trace duration in virtual time.
    pub duration: VTime,
    /// Goroutines created with the internal flag (watchdog/tracer).
    pub internal: std::collections::BTreeSet<Gid>,
}

impl TraceStats {
    /// Compute statistics for a trace in one pass.
    pub fn of(ect: &Ect) -> TraceStats {
        let mut stats = TraceStats::default();
        let mut block_start: BTreeMap<Gid, (VTime, BlockReason)> = BTreeMap::new();
        for ev in ect.iter() {
            *stats.categories.counts.entry(format!("{:?}", ev.kind.category())).or_default() += 1;
            stats.duration = ev.ts;

            let profile = stats
                .goroutines
                .entry(ev.g)
                .or_insert_with(|| GoroutineProfile { first_seen: ev.ts, ..Default::default() });
            profile.events += 1;
            profile.last_seen = ev.ts;
            match &ev.kind {
                EventKind::GoBlock { reason, .. } => {
                    *profile.blocks.entry(reason.to_string()).or_default() += 1;
                    block_start.insert(ev.g, (ev.ts, *reason));
                }
                EventKind::GoEnd => profile.finished = true,
                EventKind::GoSched { trace_stop: true } => profile.finished = true,
                EventKind::GoPreempt => stats.preemptions += 1,
                EventKind::GoCreate { new_g, internal: true, .. } => {
                    stats.internal.insert(*new_g);
                }
                _ => {}
            }
            // Any later event by a blocked goroutine means it resumed.
            if !matches!(ev.kind, EventKind::GoBlock { .. }) {
                if let Some((start, _)) = block_start.remove(&ev.g) {
                    let prof = stats.goroutines.get_mut(&ev.g).expect("profile exists");
                    prof.blocked_vtime =
                        VTime(prof.blocked_vtime.0 + ev.ts.0.saturating_sub(start.0));
                }
            }
        }
        // Goroutines still blocked at trace end: count the open episode.
        for (g, (start, _)) in block_start {
            if let Some(prof) = stats.goroutines.get_mut(&g) {
                prof.blocked_vtime =
                    VTime(prof.blocked_vtime.0 + stats.duration.0.saturating_sub(start.0));
            }
        }
        // Contention per resource from lock/rw completion events after a
        // block by the same goroutine.
        let mut last_block: BTreeMap<Gid, bool> = BTreeMap::new();
        for ev in ect.iter() {
            match &ev.kind {
                EventKind::GoBlock { reason: BlockReason::Sync, .. } => {
                    last_block.insert(ev.g, true);
                }
                EventKind::MuLock { mu, .. } | EventKind::RwRLock { mu } => {
                    if last_block.remove(&ev.g).unwrap_or(false) {
                        *stats.contended_resources.entry(*mu).or_default() += 1;
                    }
                }
                _ => {
                    last_block.remove(&ev.g);
                }
            }
        }
        stats
    }

    /// Application goroutines that never finished (the runtime
    /// pseudo-goroutine and internal goroutines are excluded).
    pub fn unfinished(&self) -> Vec<Gid> {
        self.goroutines
            .iter()
            .filter(|(g, p)| !p.finished && **g != Gid::RUNTIME && !self.internal.contains(g))
            .map(|(g, _)| *g)
            .collect()
    }

    /// The goroutine that spent the most virtual time blocked.
    pub fn most_blocked(&self) -> Option<(Gid, VTime)> {
        self.goroutines
            .iter()
            .max_by_key(|(_, p)| p.blocked_vtime)
            .map(|(g, p)| (*g, p.blocked_vtime))
    }
}

impl fmt::Display for TraceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "trace: {} events over {}, {} preemption(s)",
            self.categories.total(),
            self.duration,
            self.preemptions
        )?;
        writeln!(f, "{:<6} {:>7} {:>8} {:>12}  blocks", "gid", "events", "done", "blocked")?;
        for (g, p) in &self.goroutines {
            let blocks: Vec<String> = p.blocks.iter().map(|(r, n)| format!("{r}×{n}")).collect();
            writeln!(
                f,
                "{:<6} {:>7} {:>8} {:>12}  {}",
                g.to_string(),
                p.events,
                if p.finished { "yes" } else { "NO" },
                p.blocked_vtime.to_string(),
                blocks.join(", ")
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, LockWait};

    fn ev(seq: u64, ts: u64, g: u64, kind: EventKind) -> Event {
        Event { seq, ts: VTime(ts), g: Gid(g), kind, cu: None }
    }

    fn sample() -> Ect {
        vec![
            ev(0, 0, 1, EventKind::GoStart),
            ev(1, 10, 1, EventKind::GoCreate { new_g: Gid(2), name: "w".into(), internal: false }),
            ev(2, 20, 2, EventKind::GoStart),
            ev(
                3,
                30,
                2,
                EventKind::GoBlock {
                    reason: BlockReason::Sync,
                    lock: Some(LockWait {
                        mu: RId(9),
                        holder: Gid(1),
                        holder_cu: goat_model::Cu::new("k.rs", 3, goat_model::CuKind::Lock),
                        read: false,
                    }),
                },
            ),
            ev(4, 40, 1, EventKind::GoUnblock { g: Gid(2) }),
            ev(5, 50, 2, EventKind::MuLock { mu: RId(9), tried: false }),
            ev(6, 60, 2, EventKind::GoEnd),
            ev(7, 70, 1, EventKind::GoSched { trace_stop: true }),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn counts_categories_and_duration() {
        let stats = TraceStats::of(&sample());
        assert_eq!(stats.categories.total(), 8);
        assert_eq!(stats.categories.get(EventCategory::Concurrency), 1);
        assert!(stats.categories.get(EventCategory::Goroutine) >= 6);
        assert_eq!(stats.duration, VTime(70));
    }

    #[test]
    fn per_goroutine_profiles() {
        let stats = TraceStats::of(&sample());
        let g2 = &stats.goroutines[&Gid(2)];
        assert_eq!(g2.events, 4);
        assert!(g2.finished);
        assert_eq!(g2.total_blocks(), 1);
        // blocked from ts=30 until its next event at ts=50
        assert_eq!(g2.blocked_vtime, VTime(20));
        let g1 = &stats.goroutines[&Gid(1)];
        assert!(g1.finished, "main finished via trace-stop yield");
        assert_eq!(g1.total_blocks(), 0);
        assert!(stats.unfinished().is_empty());
    }

    #[test]
    fn contention_attributed_to_the_mutex() {
        let stats = TraceStats::of(&sample());
        assert_eq!(stats.contended_resources.get(&RId(9)), Some(&1));
        assert_eq!(stats.most_blocked(), Some((Gid(2), VTime(20))));
    }

    #[test]
    fn leaked_goroutine_counts_open_block_episode() {
        let ect: Ect = vec![
            ev(0, 0, 1, EventKind::GoStart),
            ev(1, 10, 1, EventKind::GoCreate { new_g: Gid(2), name: "l".into(), internal: false }),
            ev(2, 20, 2, EventKind::GoStart),
            ev(3, 30, 2, EventKind::GoBlock { reason: BlockReason::Recv, lock: None }),
            ev(4, 100, 1, EventKind::GoSched { trace_stop: true }),
        ]
        .into_iter()
        .collect();
        let stats = TraceStats::of(&ect);
        assert_eq!(stats.unfinished(), vec![Gid(2)]);
        assert_eq!(stats.goroutines[&Gid(2)].blocked_vtime, VTime(70));
    }

    #[test]
    fn display_marks_unfinished_goroutines() {
        let stats = TraceStats::of(&sample());
        let text = stats.to_string();
        assert!(text.contains("G1"));
        assert!(text.contains("sync×1"));
    }
}
