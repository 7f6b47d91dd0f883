//! Goroutine trees (paper §III-E, figure 3).
//!
//! GoAT constructs a tree of application-level goroutines from an ECT:
//! nodes are goroutines, and a directed edge denotes the parent-child
//! relationship in which the child was created by a `go` statement the
//! parent executed. Each node carries the goroutine's creation site, its
//! full event index sequence and its final event — the inputs of the
//! deadlock-detection procedure and of coverage accounting.

use crate::ect::Ect;
use crate::event::{Event, EventKind, Gid};
use goat_model::Cu;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

/// One node of a goroutine tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GNode {
    /// The goroutine this node describes.
    pub g: Gid,
    /// Human-readable name recorded at creation ("main" for the root).
    pub name: String,
    /// Parent goroutine (none for the main goroutine).
    pub parent: Option<Gid>,
    /// The `go` statement CU that created this goroutine.
    pub create_cu: Option<Cu>,
    /// Children in creation order.
    pub children: Vec<Gid>,
    /// Indices (into the ECT) of the events this goroutine emitted.
    pub events: Vec<usize>,
    /// The final event this goroutine emitted, if any.
    pub last_event: Option<EventKind>,
    /// CU of the final event, if any.
    pub last_cu: Option<Cu>,
    /// True for runtime-internal goroutines (watchdog, tracer).
    pub internal: bool,
}

impl GNode {
    /// Did this goroutine run to completion (`GoEnd`)?
    pub fn finished(&self) -> bool {
        matches!(self.last_event, Some(EventKind::GoEnd))
    }
}

/// A goroutine tree built from an ECT.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct GTree {
    nodes: BTreeMap<Gid, GNode>,
    root: Option<Gid>,
}

impl GTree {
    /// Build the goroutine tree of a trace.
    ///
    /// The main goroutine ([`Gid::MAIN`]) is the root. Goroutines whose
    /// `GoCreate` is marked internal — and their descendants — are kept in
    /// the tree but flagged, so the application-level filter
    /// ([`GTree::app_nodes`]) can exclude them exactly as §III-E requires
    /// (a goroutine is application-level iff it is main, or its ancestry
    /// reaches main without passing through a runtime/tracer goroutine).
    pub fn from_ect(ect: &Ect) -> Self {
        let mut b = GTreeBuilder::new();
        for (i, ev) in ect.iter().enumerate() {
            b.observe(i, ev);
        }
        b.finish()
    }

    /// The root (main) goroutine node.
    pub fn root(&self) -> Option<&GNode> {
        self.root.and_then(|g| self.nodes.get(&g))
    }

    /// Look up a node.
    pub fn get(&self, g: Gid) -> Option<&GNode> {
        self.nodes.get(&g)
    }

    /// Number of nodes (including internal goroutines).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Is the tree empty?
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// All nodes, in goroutine-id order.
    pub fn nodes(&self) -> impl Iterator<Item = &GNode> {
        self.nodes.values()
    }

    /// Application-level nodes only (main and descendants not flagged
    /// internal), in BFS order from the root.
    pub fn app_nodes(&self) -> Vec<&GNode> {
        self.bfs().into_iter().filter(|n| !n.internal).collect()
    }

    /// BFS traversal from the root (the order `DeadlockCheck` uses).
    pub fn bfs(&self) -> Vec<&GNode> {
        let mut out = Vec::new();
        let Some(root) = self.root else { return out };
        let mut queue = VecDeque::from([root]);
        while let Some(g) = queue.pop_front() {
            if let Some(n) = self.nodes.get(&g) {
                out.push(n);
                queue.extend(n.children.iter().copied());
            }
        }
        out
    }

    /// Render the tree as ASCII art (the paper's figure-3-style report).
    ///
    /// The `_ect` parameter is kept for signature stability (earlier
    /// revisions resolved event payloads); rendering only needs the tree.
    pub fn render(&self, _ect: &Ect) -> String {
        let mut out = String::new();
        if let Some(root) = self.root() {
            self.render_node(root, "", true, &mut out);
        }
        out
    }

    fn render_node(&self, node: &GNode, prefix: &str, last: bool, out: &mut String) {
        let branch = if prefix.is_empty() {
            ""
        } else if last {
            "└── "
        } else {
            "├── "
        };
        let status = match &node.last_event {
            Some(EventKind::GoEnd) => "finished".to_string(),
            Some(EventKind::GoSched { trace_stop: true }) => "finished (main)".to_string(),
            Some(EventKind::GoBlock { reason, .. }) => format!("BLOCKED on {reason}"),
            Some(k) => format!("last: {k}"),
            None => "never ran".to_string(),
        };
        let mut line = format!("{prefix}{branch}{} \"{}\" — {status}", node.g, node.name);
        if let Some(cu) = &node.last_cu {
            let _ = write!(line, " @ {cu}");
        }
        if node.internal {
            line.push_str(" [internal]");
        }
        out.push_str(&line);
        out.push('\n');
        let child_prefix = if prefix.is_empty() {
            String::new()
        } else {
            format!("{prefix}{}", if last { "    " } else { "│   " })
        };
        let n = node.children.len();
        for (i, c) in node.children.iter().enumerate() {
            if let Some(child) = self.nodes.get(c) {
                let p = if prefix.is_empty() { "  ".to_string() } else { child_prefix.clone() };
                self.render_node(child, &p, i + 1 == n, out);
            }
        }
    }

    /// The events of goroutine `g`, resolved against the trace.
    pub fn events_of<'a>(&self, g: Gid, ect: &'a Ect) -> Vec<&'a Event> {
        self.nodes
            .get(&g)
            .map(|n| n.events.iter().map(|&i| &ect.events()[i]).collect())
            .unwrap_or_default()
    }
}

/// Incremental goroutine-tree builder: feed events in trace order via
/// [`GTreeBuilder::observe`], then [`GTreeBuilder::finish`].
///
/// This is the engine behind [`GTree::from_ect`], exposed so the fused
/// single-pass trace analyzer in `goat-core` can interleave tree
/// construction with coverage extraction in one sweep. Goroutine ids are
/// assigned densely by the runtime (main is `Gid(1)`, spawns count up),
/// so the per-event bookkeeping indexes a flat slot table instead of a
/// `BTreeMap` — the tree's sorted-map shape is only materialised once at
/// `finish`.
#[derive(Debug, Clone)]
pub struct GTreeBuilder {
    slots: Vec<Option<GNode>>,
}

impl Default for GTreeBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl GTreeBuilder {
    /// A builder with the main goroutine pre-seeded as the root.
    pub fn new() -> Self {
        let mut b = GTreeBuilder { slots: Vec::new() };
        b.reset();
        b
    }

    /// Clear back to the freshly-created state, keeping the slot table's
    /// allocation (for reuse across campaign iterations).
    pub fn reset(&mut self) {
        self.slots.iter_mut().for_each(|s| *s = None);
        *self.slot_mut(Gid::MAIN) = Some(GNode {
            g: Gid::MAIN,
            name: "main".to_string(),
            parent: None,
            create_cu: None,
            children: Vec::new(),
            events: Vec::new(),
            last_event: None,
            last_cu: None,
            internal: false,
        });
    }

    fn slot_mut(&mut self, g: Gid) -> &mut Option<GNode> {
        let i = g.0 as usize;
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        &mut self.slots[i]
    }

    fn slot(&self, g: Gid) -> Option<&GNode> {
        self.slots.get(g.0 as usize).and_then(Option::as_ref)
    }

    /// Account for event `ev` at trace index `i` (events must arrive in
    /// trace order).
    pub fn observe(&mut self, i: usize, ev: &Event) {
        if let EventKind::GoCreate { new_g, name, internal } = &ev.kind {
            let parent_internal = self.slot(ev.g).map(|n| n.internal).unwrap_or(false);
            *self.slot_mut(*new_g) = Some(GNode {
                g: *new_g,
                name: name.to_string(),
                parent: Some(ev.g),
                create_cu: ev.cu,
                children: Vec::new(),
                events: Vec::new(),
                last_event: None,
                last_cu: None,
                internal: *internal || parent_internal,
            });
            if let Some(p) = self.slot_mut(ev.g).as_mut() {
                p.children.push(*new_g);
            }
        }
        if let Some(n) = self.slot_mut(ev.g).as_mut() {
            n.events.push(i);
            n.last_event = Some(ev.kind.clone());
            n.last_cu = ev.cu;
        }
    }

    /// Assemble the tree, leaving the builder reset for reuse.
    pub fn finish(&mut self) -> GTree {
        let mut nodes = BTreeMap::new();
        for slot in self.slots.iter_mut() {
            if let Some(n) = slot.take() {
                nodes.insert(n.g, n);
            }
        }
        self.reset();
        GTree { nodes, root: Some(Gid::MAIN) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{BlockReason, LockWait, RId, VTime};
    use goat_model::{Cu, CuKind};

    fn ev(seq: u64, g: u64, kind: EventKind) -> Event {
        Event { seq, ts: VTime(seq), g: Gid(g), kind, cu: None }
    }

    fn sample_ect() -> Ect {
        vec![
            ev(0, 1, EventKind::GoStart),
            Event {
                seq: 1,
                ts: VTime(1),
                g: Gid(1),
                kind: EventKind::GoCreate {
                    new_g: Gid(2),
                    name: "monitor".into(),
                    internal: false,
                },
                cu: Some(Cu::new("k.rs", 12, CuKind::Go)),
            },
            Event {
                seq: 2,
                ts: VTime(2),
                g: Gid(1),
                kind: EventKind::GoCreate {
                    new_g: Gid(3),
                    name: "goat::watchdog".into(),
                    internal: true,
                },
                cu: None,
            },
            ev(3, 2, EventKind::GoStart),
            ev(
                4,
                2,
                EventKind::GoBlock {
                    reason: BlockReason::Sync,
                    lock: Some(LockWait {
                        mu: RId(7),
                        holder: Gid(1),
                        holder_cu: Cu::new("k.rs", 9, CuKind::Lock),
                        read: false,
                    }),
                },
            ),
            ev(5, 3, EventKind::GoStart),
            ev(6, 3, EventKind::GoEnd),
            ev(7, 1, EventKind::GoSched { trace_stop: true }),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn builds_parent_child_edges() {
        let ect = sample_ect();
        let t = GTree::from_ect(&ect);
        assert_eq!(t.len(), 3);
        let root = t.root().unwrap();
        assert_eq!(root.children, vec![Gid(2), Gid(3)]);
        let m = t.get(Gid(2)).unwrap();
        assert_eq!(m.parent, Some(Gid(1)));
        assert_eq!(m.create_cu.as_ref().unwrap().line, 12);
        assert_eq!(m.name, "monitor");
    }

    #[test]
    fn records_last_events() {
        let ect = sample_ect();
        let t = GTree::from_ect(&ect);
        assert!(matches!(
            t.get(Gid(2)).unwrap().last_event,
            Some(EventKind::GoBlock { reason: BlockReason::Sync, .. })
        ));
        assert!(t.get(Gid(3)).unwrap().finished());
        assert!(matches!(
            t.root().unwrap().last_event,
            Some(EventKind::GoSched { trace_stop: true })
        ));
    }

    #[test]
    fn app_filter_removes_internal() {
        let ect = sample_ect();
        let t = GTree::from_ect(&ect);
        let app: Vec<Gid> = t.app_nodes().iter().map(|n| n.g).collect();
        assert_eq!(app, vec![Gid(1), Gid(2)]);
    }

    #[test]
    fn internal_flag_is_inherited() {
        let mut events = sample_ect().events().to_vec();
        let seq = events.len() as u64;
        events.push(Event {
            seq,
            ts: VTime(100),
            g: Gid(3),
            kind: EventKind::GoCreate { new_g: Gid(4), name: "helper".into(), internal: false },
            cu: None,
        });
        // Rebuild with dense sequence numbers; g3 creating g4 after its
        // GoEnd is not well-formed, but tree construction is lenient.
        let ect: Ect = events
            .into_iter()
            .enumerate()
            .map(|(i, mut e)| {
                e.seq = i as u64;
                e.ts = VTime(i as u64);
                e
            })
            .collect();
        let t = GTree::from_ect(&ect);
        assert!(t.get(Gid(4)).unwrap().internal, "children of internal goroutines are internal");
    }

    #[test]
    fn bfs_is_level_order() {
        let ect = sample_ect();
        let t = GTree::from_ect(&ect);
        let order: Vec<Gid> = t.bfs().iter().map(|n| n.g).collect();
        assert_eq!(order, vec![Gid(1), Gid(2), Gid(3)]);
    }

    #[test]
    fn render_mentions_block_state() {
        let ect = sample_ect();
        let t = GTree::from_ect(&ect);
        let r = t.render(&ect);
        assert!(r.contains("BLOCKED on sync"), "{r}");
        assert!(r.contains("main"), "{r}");
        assert!(r.contains("[internal]"), "{r}");
    }

    #[test]
    fn events_of_resolves_indices() {
        let ect = sample_ect();
        let t = GTree::from_ect(&ect);
        let evs = t.events_of(Gid(2), &ect);
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].kind, EventKind::GoStart);
    }
}
