//! Differential tests: the fused dense-ID single-pass analysis plane
//! must be observably identical to the retained legacy multi-pass
//! reference (`goat_core::coverage::reference`) — same covered
//! requirement sets, same per-goroutine vectors, same universe growth
//! (CU ids and requirement keys, in order), same goroutine trees, same
//! sync pairs, same verdicts.
//!
//! Two trace sources feed the comparison: real ECTs produced by running
//! every GoKer kernel under arbitrary seeds/delay bounds, and synthetic
//! event soups that explore corners real schedules rarely produce
//! (orphan `SelectEnd`s, cross-goroutine unblocks of never-blocked
//! goroutines, completions at mismatched CU kinds, internal-goroutine
//! interleavings).

use goat::core::coverage::{extract_sync_pairs, reference};
use goat::core::{deadlock_check, EctBuffers, Program};
use goat::model::{Cu, CuKind, Istr, ReqKey, RequirementUniverse};
use goat::runtime::{Config, Runtime};
use goat::trace::{
    BlockReason, Ect, Event, EventKind, GTree, Gid, LockWait, RId, SelCaseFlavor, VTime,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

/// Assert every observable output of the fused plane equals the
/// reference pipeline's on `ect`. Runs the fused pass twice through the
/// same `EctBuffers` so buffer recycling itself is under test.
fn check_equivalence(ect: &Ect) {
    // Reference: three independent walks, BTree state everywhere.
    let mut ref_universe = RequirementUniverse::new();
    let ref_cov = reference::extract_coverage(ect, &mut ref_universe);
    let ref_tree = GTree::from_ect(ect);
    let ref_pairs = extract_sync_pairs(ect);

    let mut bufs = EctBuffers::new();
    for round in 0..2 {
        let mut universe = RequirementUniverse::new();
        let analysis = bufs.analyze(ect, &mut universe, true);

        let covered: BTreeSet<ReqKey> = analysis.coverage.covered.iter().collect();
        assert_eq!(covered, ref_cov.covered, "covered set diverged (round {round})");
        let per_g: BTreeMap<Gid, BTreeSet<ReqKey>> =
            analysis.coverage.per_g.iter().map(|(g, s)| (*g, s.iter().collect())).collect();
        assert_eq!(per_g, ref_cov.per_g, "per-goroutine vectors diverged (round {round})");

        // Universe growth must match in *order*, not just as a set: CU
        // ids and requirement rows feed the reports.
        let keys: Vec<ReqKey> = universe.iter().copied().collect();
        let ref_keys: Vec<ReqKey> = ref_universe.iter().copied().collect();
        assert_eq!(keys, ref_keys, "universe requirement rows diverged (round {round})");
        assert_eq!(universe.table(), ref_universe.table(), "CU tables diverged (round {round})");

        assert_eq!(analysis.tree, ref_tree, "goroutine tree diverged (round {round})");
        assert_eq!(
            deadlock_check(&analysis.tree),
            deadlock_check(&ref_tree),
            "verdict diverged (round {round})"
        );
        assert_eq!(
            analysis.sync_pairs.expect("sync pairs requested"),
            ref_pairs,
            "sync pairs diverged (round {round})"
        );
        bufs.reclaim(analysis.coverage);
    }
}

/// A random but *plausible-shaped* event soup: dense seqs, a small pool
/// of goroutines and CU sites, event kinds weighted towards the arms the
/// coverage extractor actually dispatches on.
fn synth_trace(seed: u64) -> Ect {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = rng.gen_range(0..400usize);
    let n_g = rng.gen_range(1..7u64);
    let cu_kinds = [
        CuKind::Send,
        CuKind::Recv,
        CuKind::Close,
        CuKind::Lock,
        CuKind::Unlock,
        CuKind::Wait,
        CuKind::Add,
        CuKind::Done,
        CuKind::Signal,
        CuKind::Broadcast,
        CuKind::Go,
        CuKind::Select,
        CuKind::Range,
    ];
    let cus: Vec<Cu> = (0..10)
        .map(|i| Cu::new("synth/diff.rs", 10 + i, cu_kinds[i as usize % cu_kinds.len()]))
        .collect();
    let reasons = [
        BlockReason::Send,
        BlockReason::Recv,
        BlockReason::Select,
        BlockReason::Sync,
        BlockReason::Cond,
        BlockReason::WaitGroup,
    ];
    let flavors = [SelCaseFlavor::Send, SelCaseFlavor::Recv, SelCaseFlavor::Default];

    let mut events = Vec::with_capacity(n);
    for i in 0..n {
        let g = Gid(rng.gen_range(0..n_g));
        let cu = if rng.gen_bool(0.8) { Some(cus[rng.gen_range(0..cus.len())]) } else { None };
        let kind = match rng.gen_range(0..16u32) {
            0 => EventKind::GoCreate {
                new_g: Gid(rng.gen_range(0..n_g)),
                name: Istr::new("w"),
                internal: rng.gen_bool(0.25),
            },
            1 => EventKind::GoBlock {
                reason: reasons[rng.gen_range(0..reasons.len())],
                lock: if rng.gen_bool(0.3) {
                    Some(LockWait {
                        mu: RId(rng.gen_range(0..5u64)),
                        holder: Gid(rng.gen_range(0..n_g)),
                        holder_cu: cus[rng.gen_range(0..cus.len())],
                        read: rng.gen_bool(0.3),
                    })
                } else {
                    None
                },
            },
            2 => EventKind::GoUnblock { g: Gid(rng.gen_range(0..n_g)) },
            3 => EventKind::SelectBegin {
                cases: (0..rng.gen_range(0..4usize))
                    .map(|_| {
                        (
                            flavors[rng.gen_range(0..2usize)],
                            if rng.gen_bool(0.7) {
                                Some(RId(rng.gen_range(0..5u64)))
                            } else {
                                None
                            },
                        )
                    })
                    .collect(),
                has_default: rng.gen_bool(0.4),
            },
            4 => EventKind::SelectEnd {
                chosen: if rng.gen_bool(0.2) { usize::MAX } else { rng.gen_range(0..4usize) },
                flavor: flavors[rng.gen_range(0..flavors.len())],
                ch: if rng.gen_bool(0.5) { Some(RId(rng.gen_range(0..5u64))) } else { None },
            },
            5 => EventKind::ChSend { ch: RId(rng.gen_range(0..5u64)) },
            6 => EventKind::ChRecv { ch: RId(rng.gen_range(0..5u64)), closed: rng.gen_bool(0.2) },
            7 => EventKind::ChClose { ch: RId(rng.gen_range(0..5u64)) },
            8 => EventKind::MuLock { mu: RId(rng.gen_range(0..5u64)), tried: rng.gen_bool(0.2) },
            9 => EventKind::MuUnlock { mu: RId(rng.gen_range(0..5u64)) },
            10 => EventKind::WgAdd { wg: RId(rng.gen_range(0..5u64)), delta: 1, count: 1 },
            11 => EventKind::WgDone { wg: RId(rng.gen_range(0..5u64)), count: 0 },
            12 => EventKind::WgWait { wg: RId(rng.gen_range(0..5u64)) },
            13 => EventKind::CondWait { cv: RId(rng.gen_range(0..5u64)) },
            14 => EventKind::GoSched { trace_stop: false },
            _ => EventKind::GoEnd,
        };
        events.push(Event { seq: i as u64, ts: VTime(i as u64 * 100), g, kind, cu });
    }
    Ect::from_events(events)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]
    #[test]
    fn fused_plane_matches_reference_on_synthetic_traces(seed in any::<u64>()) {
        check_equivalence(&synth_trace(seed));
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]
    #[test]
    fn fused_plane_matches_reference_on_kernel_traces(
        kidx in any::<usize>(),
        seed in 0u64..500,
        d in 0u32..3,
    ) {
        let kernels = goat::goker::all_kernels();
        let kernel = kernels[kidx % kernels.len()];
        let r = Runtime::run(
            Config::new(seed).with_delay_bound(d),
            move || Program::main(kernel),
        );
        if let Some(ect) = &r.ect {
            check_equivalence(ect);
        }
    }
}
