//! Match prioritization and filtering.
//!
//! "The hardware compiler provides a desirability ordering on the CFUs so
//! that each operation is only assigned to the CFU that the hardware
//! compiler thinks can make the best use of it" (§4.1). Matches are
//! processed CFU-priority-first (selection order), best savings first
//! within a CFU; a match is accepted only when none of its operations has
//! been claimed by an earlier match.

use crate::matching::PatternMatch;
use crate::mdes::Mdes;
use crate::replace::supernodes_acyclic;
use isax_ir::Dfg;
use isax_select::Claims;

/// Filters `matches` down to a non-overlapping, **jointly replaceable**
/// set, honouring the MDES priority order, then savings.
///
/// Beyond per-operation claiming, each accepted match must keep the
/// block's collapsed dependence graph acyclic together with the matches
/// accepted before it — two individually convex matches can otherwise
/// feed each other and deadlock the schedule.
///
/// The result is sorted by (block, first node) so replacement can proceed
/// block by block.
///
/// # Example
///
/// ```no_run
/// # use isax_compiler::{prioritize, Mdes};
/// # let matches = vec![];
/// # let mdes = Mdes::baseline();
/// # let dfgs: Vec<isax_ir::Dfg> = vec![];
/// let accepted = prioritize(matches, &mdes, &dfgs);
/// ```
pub fn prioritize(mut matches: Vec<PatternMatch>, mdes: &Mdes, dfgs: &[Dfg]) -> Vec<PatternMatch> {
    let priority_of = |cfu: u16| mdes.cfu(cfu).map(|c| c.priority).unwrap_or(usize::MAX);
    // Assignment tiers keep generalization from *displacing* perfect
    // fits: every exact match (of any CFU) outranks every wildcarded
    // match, which outranks every subsumed match. §3.4 describes the
    // failure this prevents — "attributing operations to small subsumed
    // portions of a large CFU, when much more performance could have been
    // gained by attributing them to a separate CFU".
    let tier = |m: &PatternMatch| -> u8 {
        match (m.via_subsumption, m.is_exact) {
            (false, true) => 0,
            (false, false) => 1,
            (true, _) => 2,
        }
    };
    matches.sort_by(|a, b| {
        tier(a)
            .cmp(&tier(b))
            .then(priority_of(a.cfu).cmp(&priority_of(b.cfu)))
            .then(b.savings.cmp(&a.savings))
            .then(a.block.cmp(&b.block))
            .then(a.nodes.cmp(&b.nodes))
    });
    let mut claims = Claims::default();
    let mut accepted: Vec<PatternMatch> = Vec::new();
    for m in matches {
        if !claims.is_free(m.block, &m.nodes) {
            continue;
        }
        // Joint feasibility with the matches already accepted in this
        // block.
        let mut groups: Vec<&isax_graph::BitSet> = accepted
            .iter()
            .filter(|a| a.block == m.block)
            .map(|a| &a.nodes)
            .collect();
        groups.push(&m.nodes);
        if !supernodes_acyclic(&dfgs[m.block], &groups) {
            continue;
        }
        claims.claim(m.block, &m.nodes);
        accepted.push(m);
    }
    accepted.sort_by(|a, b| {
        a.block
            .cmp(&b.block)
            .then(a.nodes.iter().next().cmp(&b.nodes.iter().next()))
    });
    accepted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mdes::CfuSpec;
    use isax_graph::{BitSet, DiGraph};
    use isax_ir::{DfgLabel, Opcode};

    fn spec(id: u16, priority: usize) -> CfuSpec {
        let mut pattern = DiGraph::new();
        pattern.add_node(DfgLabel {
            opcode: Opcode::Add,
            imms: vec![],
        });
        CfuSpec {
            id,
            name: format!("cfu{id}"),
            pattern,
            latency: 1,
            area: 1.0,
            inputs: 2,
            outputs: 1,
            priority,
            estimated_value: 0,
            subsumed_patterns: vec![],
        }
    }

    fn mk_match(cfu: u16, block: usize, nodes: &[usize], savings: u64, sub: bool) -> PatternMatch {
        PatternMatch {
            cfu,
            block,
            nodes: nodes.iter().copied().collect::<BitSet>(),
            mapping: nodes.to_vec(),
            pattern: DiGraph::new(),
            via_subsumption: sub,
            is_exact: true,
            savings,
        }
    }

    /// DFGs with `blocks` blocks of `n` independent adds each — enough
    /// structure to satisfy the joint-feasibility check without creating
    /// dependences between matches.
    fn dummy_dfgs(blocks: usize, n: usize) -> Vec<Dfg> {
        let mut fb = isax_ir::FunctionBuilder::new("dummy", 2);
        let (a, b) = (fb.param(0), fb.param(1));
        let mut ids = Vec::new();
        for bi in 1..blocks {
            ids.push(fb.new_block(1));
            let _ = bi;
        }
        for _ in 0..n {
            let _ = fb.add(a, b);
        }
        if let Some(&first) = ids.first() {
            fb.jump(first);
        } else {
            fb.ret(&[]);
        }
        for (k, &id) in ids.iter().enumerate() {
            fb.switch_to(id);
            for _ in 0..n {
                let _ = fb.add(a, b);
            }
            if let Some(&next) = ids.get(k + 1) {
                fb.jump(next);
            } else {
                fb.ret(&[]);
            }
        }
        isax_ir::function_dfgs(&fb.finish())
    }

    fn mdes2() -> Mdes {
        Mdes {
            cfus: vec![spec(0, 0), spec(1, 1)],
            max_inputs: 5,
            max_outputs: 3,
            source_app: "t".into(),
        }
    }

    #[test]
    fn higher_priority_cfu_wins_overlap() {
        let m = vec![
            mk_match(1, 0, &[1, 2], 1_000_000, false), // low priority, huge savings
            mk_match(0, 0, &[2, 3], 10, false),        // high priority
        ];
        let acc = prioritize(m, &mdes2(), &dummy_dfgs(2, 8));
        assert_eq!(acc.len(), 1);
        assert_eq!(acc[0].cfu, 0, "priority order beats raw savings");
    }

    #[test]
    fn within_cfu_best_savings_first() {
        let m = vec![
            mk_match(0, 0, &[1, 2], 10, false),
            mk_match(0, 0, &[2, 3], 90, false),
        ];
        let acc = prioritize(m, &mdes2(), &dummy_dfgs(2, 8));
        assert_eq!(acc.len(), 1);
        assert_eq!(acc[0].savings, 90);
    }

    #[test]
    fn exact_beats_subsumed_within_cfu() {
        let m = vec![
            mk_match(0, 0, &[1, 2], 100, true),
            mk_match(0, 0, &[2, 3], 50, false),
        ];
        let acc = prioritize(m, &mdes2(), &dummy_dfgs(2, 8));
        assert_eq!(acc.len(), 1);
        assert!(!acc[0].via_subsumption);
    }

    #[test]
    fn disjoint_matches_all_accepted_and_block_sorted() {
        let m = vec![
            mk_match(0, 1, &[5, 6], 10, false),
            mk_match(0, 0, &[1, 2], 10, false),
            mk_match(1, 0, &[3, 4], 10, false),
        ];
        let acc = prioritize(m, &mdes2(), &dummy_dfgs(2, 8));
        assert_eq!(acc.len(), 3);
        assert!(acc.windows(2).all(|w| w[0].block <= w[1].block));
    }

    #[test]
    fn overlap_across_cfus_in_different_blocks_is_fine() {
        let m = vec![
            mk_match(0, 0, &[1, 2], 10, false),
            mk_match(1, 1, &[1, 2], 10, false), // same node ids, other block
        ];
        let acc = prioritize(m, &mdes2(), &dummy_dfgs(2, 8));
        assert_eq!(acc.len(), 2);
    }
}
