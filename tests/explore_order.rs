//! Explorer walk-order golden over the paper and stress kernels.
//!
//! `tests/corpus_artifacts.rs` pins only the default (depth-first) walk.
//! This binary pins the order in which the explorer emits raw candidates
//! at every beam width the pipeline exposes: none (depth-first), 1, 8
//! and 64. One line per kernel and width records the walk's counters and
//! a hash of the ordered candidate list (DFG index, member nodes, delay
//! and area bits) and of the explore-stage provenance report. The lines
//! must equal `tests/golden/explore_order.txt`.
//!
//! The stress kernels and `crc_brev` run under the same 5,000-unit work
//! budget as in `tests/corpus_artifacts.rs`, so the truncation point of
//! each walk order is pinned too; the other kernels run ungoverned.
//!
//! Provenance is a process-global switch, so this binary holds a single
//! test. To bless an intentional change, rerun with `ISAX_BLESS=1` and
//! commit the regenerated snapshot.

mod common;

use common::check_golden;
use isax::Guard;
use isax_bench::extended_corpus;
use isax_explore::{explore_app_guarded, ExploreConfig, ExploreResult};
use isax_hwlib::HwLibrary;
use isax_serve::fnv64;

/// Per-meter work budget of the governed kernels.
const STRESS_BUDGET: u64 = 5_000;
/// Beam widths under test; `None` is the depth-first walk.
const WIDTHS: [Option<usize>; 4] = [None, Some(1), Some(8), Some(64)];

fn candidate_hash(r: &ExploreResult) -> u64 {
    let mut bytes = Vec::new();
    for c in &r.candidates {
        bytes.extend_from_slice(&(c.dfg as u64).to_le_bytes());
        bytes.extend_from_slice(&(c.nodes.len() as u64).to_le_bytes());
        for v in c.nodes.iter() {
            bytes.extend_from_slice(&(v as u64).to_le_bytes());
        }
        bytes.extend_from_slice(&c.delay.to_bits().to_le_bytes());
        bytes.extend_from_slice(&c.area.to_bits().to_le_bytes());
    }
    fnv64(&bytes)
}

fn order_lines() -> String {
    let _prov = isax_prov::enable();
    let hw = HwLibrary::micron_018();
    let mut out = String::new();
    for k in extended_corpus()
        .into_iter()
        .filter(|k| matches!(k.domain, "paper" | "stress"))
    {
        let dfgs: Vec<_> = k
            .program
            .functions
            .iter()
            .flat_map(isax_ir::function_dfgs)
            .collect();
        let guard = if k.work_budget.is_some() || k.name == "crc_brev" {
            Guard::unlimited().with_units(STRESS_BUDGET)
        } else {
            Guard::unlimited()
        };
        for width in WIDTHS {
            let cfg = ExploreConfig {
                beam_width: width,
                ..ExploreConfig::default()
            };
            let (r, _) = explore_app_guarded(&dfgs, &hw, &cfg, &guard);
            let prov = isax::build_report(&k.name, &r.prov).to_string_pretty();
            let width = width.map_or("dfs".to_string(), |w| w.to_string());
            out.push_str(&format!(
                "{:<24} beam={:<4} examined={:<7} recorded={:<6} pruned={:<7} memo={}/{} cands={:016x} prov={:016x}\n",
                k.name,
                width,
                r.stats.examined,
                r.stats.recorded,
                r.stats.directions_pruned,
                r.stats.memo_hits,
                r.stats.memo_misses,
                candidate_hash(&r),
                fnv64(prov.as_bytes()),
            ));
        }
    }
    out
}

#[test]
fn explore_order_is_pinned_at_every_beam_width() {
    check_golden("explore_order.txt", &order_lines());
}
