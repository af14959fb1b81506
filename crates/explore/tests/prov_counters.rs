//! Provenance-mode counter contracts for the explorer.
//!
//! The explorer computes a canonical fingerprint only for provenance
//! identity. Provenance admits one event per (shape, kind), so each
//! shape's first event computes its fingerprint (a memo miss) and its
//! event of the other kind, if any, reuses it (a memo hit). Those
//! counters must not depend on the traversal order (depth-first vs
//! beam). The provenance enable flag is process-global, so everything
//! lives in one `#[test]` in its own integration binary — unit tests in
//! the library (which run concurrently) never enable it.

use isax_explore::{explore_dfg, ExploreConfig, ExploreResult};
use isax_hwlib::HwLibrary;
use isax_ir::{function_dfgs, Dfg, FunctionBuilder};
use std::collections::BTreeMap;

fn kernel_dfg() -> Dfg {
    let mut fb = FunctionBuilder::new("k", 3);
    let a = fb.param(0);
    let b = fb.param(1);
    let k = fb.param(2);
    let t = fb.xor(a, k);
    let l = fb.shl(t, 5i64);
    let r = fb.shr(t, 27i64);
    let rot = fb.or(l, r);
    let s = fb.add(rot, b);
    let u = fb.and(s, 0xFFFFi64);
    fb.ret(&[u.into()]);
    function_dfgs(&fb.finish()).remove(0)
}

/// Asserts the exact memo-counter semantics: one miss per distinct
/// fingerprint among the walk's events, one hit per fingerprint that
/// carries both a `Discovered` and a `Pruned` event.
fn assert_memo_counts_match_events(r: &ExploreResult) {
    let mut kinds: BTreeMap<u64, [bool; 2]> = BTreeMap::new();
    for (fp, e) in r.prov.events() {
        let k = kinds.entry(*fp).or_default();
        match e {
            isax_prov::ProvEvent::Discovered { .. } => k[0] = true,
            isax_prov::ProvEvent::Pruned { .. } => k[1] = true,
            other => panic!("unexpected explore event {other:?}"),
        }
    }
    assert_eq!(r.stats.memo_misses, kinds.len() as u64);
    let both = kinds.values().filter(|k| k[0] && k[1]).count();
    assert_eq!(r.stats.memo_hits, both as u64);
}

#[test]
fn prov_mode_memo_counters_are_live_and_order_independent() {
    let dfg = kernel_dfg();
    let hw = HwLibrary::micron_018();
    let cfg = ExploreConfig::default();

    // Baseline: provenance off, the memo is never consulted.
    let off = explore_dfg(&dfg, &hw, &cfg);
    assert_eq!((off.stats.memo_hits, off.stats.memo_misses), (0, 0));
    assert!(off.prov.events().is_empty());

    let _guard = isax_prov::enable();

    // Provenance on: one miss per distinct shape given an event, one hit
    // per shape given both kinds, and one Discovered event per recorded
    // shape.
    let dfs = explore_dfg(&dfg, &hw, &cfg);
    assert!(dfs.stats.memo_misses > 0, "distinct shapes must miss once");
    assert_memo_counts_match_events(&dfs);
    // A fanout cap prunes shapes that other seeds discover: hits go live.
    let capped = explore_dfg(
        &dfg,
        &hw,
        &ExploreConfig {
            taper_size: Some(1),
            taper_fanout: 1,
            ..ExploreConfig::default()
        },
    );
    assert!(
        capped.stats.memo_hits > 0,
        "some shape is discovered and pruned"
    );
    assert_memo_counts_match_events(&capped);
    let discovered = dfs
        .prov
        .events()
        .iter()
        .filter(|(_, e)| matches!(e, isax_prov::ProvEvent::Discovered { .. }))
        .count();
    assert!(discovered > 0);
    assert!(
        discovered as u64 <= dfs.stats.memo_misses,
        "every Discovered shape paid exactly one fingerprint miss"
    );
    // The candidate payloads themselves are unchanged by recording.
    assert_eq!(dfs.candidates, off.candidates);
    assert_eq!(dfs.stats.examined, off.stats.examined);
    assert_eq!(dfs.stats.recorded, off.stats.recorded);

    // Memo counters are functions of the *set* of encounters, not the
    // traversal order: an infinite beam (breadth-first) reproduces them.
    let beam = explore_dfg(
        &dfg,
        &hw,
        &ExploreConfig {
            beam_width: Some(usize::MAX),
            ..ExploreConfig::default()
        },
    );
    assert_memo_counts_match_events(&beam);
    assert_eq!(beam.stats.memo_hits, dfs.stats.memo_hits);
    assert_eq!(beam.stats.memo_misses, dfs.stats.memo_misses);
    let beam_discovered = beam
        .prov
        .events()
        .iter()
        .filter(|(_, e)| matches!(e, isax_prov::ProvEvent::Discovered { .. }))
        .count();
    assert_eq!(beam_discovered, discovered);
    // And the discovered fingerprints are the same set.
    let fps = |r: &isax_explore::ExploreResult| {
        let mut v: Vec<u64> = r
            .prov
            .events()
            .iter()
            .filter(|(_, e)| matches!(e, isax_prov::ProvEvent::Discovered { .. }))
            .map(|&(fp, _)| fp)
            .collect();
        v.sort_unstable();
        v
    };
    assert_eq!(fps(&dfs), fps(&beam));

    // A finite beam records BeamDropped prune events for what it cuts.
    let narrow = explore_dfg(
        &dfg,
        &hw,
        &ExploreConfig {
            beam_width: Some(1),
            ..ExploreConfig::default()
        },
    );
    assert!(narrow.stats.examined <= dfs.stats.examined);
    let dropped = narrow
        .prov
        .events()
        .iter()
        .filter(|(_, e)| {
            matches!(
                e,
                isax_prov::ProvEvent::Pruned {
                    reason: isax_prov::PruneReason::BeamDropped,
                    ..
                }
            )
        })
        .count();
    assert!(
        dropped > 0,
        "a width-1 beam on a branching kernel must drop directions"
    );
}
