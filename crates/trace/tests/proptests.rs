//! Property-based tests for trace well-formedness and goroutine-tree
//! construction over randomly generated (but structurally valid)
//! event sequences.

use goat_trace::{BlockReason, Ect, Event, EventKind, GTree, Gid, TraceStats, VTime};
use proptest::prelude::*;

/// Abstract actions from which a *valid* trace is synthesized.
#[derive(Debug, Clone)]
enum Action {
    Spawn { parent_pick: usize, internal: bool },
    Emit { g_pick: usize, what: u8 },
    End { g_pick: usize },
}

fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        (any::<usize>(), any::<bool>())
            .prop_map(|(parent_pick, internal)| Action::Spawn { parent_pick, internal }),
        (any::<usize>(), 0..5u8).prop_map(|(g_pick, what)| Action::Emit { g_pick, what }),
        any::<usize>().prop_map(|g_pick| Action::End { g_pick }),
    ]
}

/// Synthesize a well-formed trace from an action script: goroutines only
/// emit after creation and never after their end.
fn build_trace(actions: &[Action]) -> (Ect, usize, usize) {
    let mut ect = Ect::new();
    let mut alive: Vec<Gid> = vec![Gid::MAIN];
    let mut next = 2u64;
    let mut seq = 0u64;
    let mut spawns = 0usize;
    let mut ends = 0usize;
    let push = |ect: &mut Ect, seq: &mut u64, g: Gid, kind: EventKind| {
        ect.push(Event { seq: *seq, ts: VTime(*seq * 7), g, kind, cu: None });
        *seq += 1;
    };
    push(&mut ect, &mut seq, Gid::MAIN, EventKind::GoStart);
    for a in actions {
        match a {
            Action::Spawn { parent_pick, internal } => {
                if alive.is_empty() {
                    continue;
                }
                let parent = alive[parent_pick % alive.len()];
                let child = Gid(next);
                next += 1;
                spawns += 1;
                push(
                    &mut ect,
                    &mut seq,
                    parent,
                    EventKind::GoCreate {
                        new_g: child,
                        name: format!("g{}", child.0).into(),
                        internal: *internal,
                    },
                );
                push(&mut ect, &mut seq, child, EventKind::GoStart);
                alive.push(child);
            }
            Action::Emit { g_pick, what } => {
                if alive.is_empty() {
                    continue;
                }
                let g = alive[g_pick % alive.len()];
                let kind = match what {
                    0 => EventKind::GoSched { trace_stop: false },
                    1 => EventKind::GoBlock { reason: BlockReason::Recv, lock: None },
                    2 => EventKind::ChMake { ch: goat_trace::RId(u64::from(*what)), cap: 1 },
                    3 => EventKind::GoPreempt,
                    _ => EventKind::UserLog { msg: "x".into() },
                };
                push(&mut ect, &mut seq, g, kind);
            }
            Action::End { g_pick } => {
                if alive.len() <= 1 {
                    continue; // keep main alive until the end
                }
                let idx = 1 + (g_pick % (alive.len() - 1));
                let g = alive.remove(idx);
                ends += 1;
                push(&mut ect, &mut seq, g, EventKind::GoEnd);
            }
        }
    }
    push(&mut ect, &mut seq, Gid::MAIN, EventKind::GoSched { trace_stop: true });
    (ect, spawns, ends)
}

proptest! {
    #[test]
    fn synthesized_traces_are_well_formed(actions in prop::collection::vec(action_strategy(), 0..80)) {
        let (ect, _, _) = build_trace(&actions);
        prop_assert!(ect.well_formed().is_ok(), "{:?}", ect.well_formed());
    }

    #[test]
    fn tree_node_count_is_spawns_plus_main(actions in prop::collection::vec(action_strategy(), 0..80)) {
        let (ect, spawns, _) = build_trace(&actions);
        let tree = GTree::from_ect(&ect);
        prop_assert_eq!(tree.len(), spawns + 1);
        // BFS reaches every node exactly once.
        prop_assert_eq!(tree.bfs().len(), tree.len());
        // Every non-root node's parent contains it as a child.
        for node in tree.nodes() {
            if let Some(p) = node.parent {
                let parent = tree.get(p).expect("parent exists");
                prop_assert!(parent.children.contains(&node.g));
            }
        }
    }

    #[test]
    fn app_filter_drops_internal_subtrees(actions in prop::collection::vec(action_strategy(), 0..80)) {
        let (ect, _, _) = build_trace(&actions);
        let tree = GTree::from_ect(&ect);
        for node in tree.app_nodes() {
            prop_assert!(!node.internal);
            // Walk ancestry back to main without crossing internals.
            let mut cur = node.g;
            loop {
                let n = tree.get(cur).expect("node");
                prop_assert!(!n.internal, "app node has internal ancestor");
                match n.parent {
                    Some(p) => cur = p,
                    None => break,
                }
            }
        }
    }

    #[test]
    fn stats_totals_match_trace_length(actions in prop::collection::vec(action_strategy(), 0..80)) {
        let (ect, _, _) = build_trace(&actions);
        let stats = TraceStats::of(&ect);
        prop_assert_eq!(stats.categories.total(), ect.len());
        let per_g_total: usize = stats.goroutines.values().map(|p| p.events).sum();
        prop_assert_eq!(per_g_total, ect.len());
    }

    #[test]
    fn json_roundtrip_preserves_traces(actions in prop::collection::vec(action_strategy(), 0..40)) {
        let (ect, _, _) = build_trace(&actions);
        let json = ect.to_json().expect("serialize");
        let back = Ect::from_json(&json).expect("parse");
        prop_assert_eq!(back, ect);
    }

    #[test]
    fn mutated_traces_are_rejected(
        actions in prop::collection::vec(action_strategy(), 3..40),
        victim in any::<usize>(),
    ) {
        let (ect, spawns, _) = build_trace(&actions);
        prop_assume!(spawns > 0);
        // Mutation: duplicate some goroutine's GoCreate (double create).
        let creates: Vec<&Event> = ect
            .iter()
            .filter(|e| matches!(e.kind, EventKind::GoCreate { .. }))
            .collect();
        let dup = creates[victim % creates.len()].clone();
        let mut events: Vec<Event> = ect.events().to_vec();
        events.push(Event { seq: events.len() as u64, ..dup });
        let mutated: Ect = events.into_iter().collect();
        prop_assert!(mutated.well_formed().is_err());
    }
}
