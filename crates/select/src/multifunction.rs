//! Multifunction CFU selection — the paper's stated future work.
//!
//! §6: "In the future, we plan to ... incorporate multi-function CFUs
//! into the selection process." Figures 8/9 estimate the *potential* of
//! opcode-class hardware without charging for it; this module closes the
//! loop: wildcard-partner families are offered to the greedy scan of
//! [`crate::greedy`] as **merged units** whose cost models shared
//! hardware — the dominant datapath plus a mux/decode increment per
//! additional member — and whose value combines every member's
//! occurrences.
//!
//! A family is a connected component of the wildcard-partner graph (all
//! members share one structure, differing at single nodes). Selecting a
//! family selects every member CFU; the machine description then carries
//! them as ordinary units, so the compiler needs no changes.

use crate::combine::CfuCandidate;
use crate::greedy::{
    greedy_scan, SelectConfig, SelectedCfu, Selection, MIN_COST, WILDCARD_COST_FACTOR,
};

/// Connected components of the wildcard-partner graph with two or more
/// members.
pub fn wildcard_families(cands: &[CfuCandidate]) -> Vec<Vec<usize>> {
    let mut seen = vec![false; cands.len()];
    let mut families = Vec::new();
    for start in 0..cands.len() {
        if seen[start] || cands[start].wildcard_partners.is_empty() {
            continue;
        }
        let mut stack = vec![start];
        let mut comp = Vec::new();
        seen[start] = true;
        while let Some(i) = stack.pop() {
            comp.push(i);
            for &j in &cands[i].wildcard_partners {
                if !seen[j] {
                    seen[j] = true;
                    stack.push(j);
                }
            }
        }
        if comp.len() >= 2 {
            comp.sort_unstable();
            families.push(comp);
        }
    }
    families
}

/// Hardware cost of a family: the most expensive member's datapath plus a
/// fraction of each additional member (operand muxes, opcode decode).
fn family_area(members: &[usize], cands: &[CfuCandidate]) -> f64 {
    let mut areas: Vec<f64> = members.iter().map(|&i| cands[i].area).collect();
    areas.sort_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
    let mut total = areas.first().copied().unwrap_or(0.0);
    for extra in &areas[1..] {
        total += extra * WILDCARD_COST_FACTOR;
    }
    total.max(MIN_COST)
}

/// Greedy selection over single CFUs **and** wildcard families.
///
/// Runs the one greedy scan of [`crate::select_greedy`], with the same
/// objective and [`crate::Claims`] ledger; a family's value is the summed
/// live value of all members (members never overlap on operations — they
/// are distinct patterns — but occurrences can, and claiming handles that).
///
/// # Example
///
/// ```
/// use isax_explore::{explore_app, ExploreConfig};
/// use isax_hwlib::HwLibrary;
/// use isax_ir::{function_dfgs, FunctionBuilder};
/// use isax_select::{combine, find_wildcard_partners, SelectConfig};
/// use isax_select::multifunction::select_multifunction;
///
/// let mut fb = FunctionBuilder::new("f", 3);
/// fb.set_entry_weight(1_000);
/// let (a, b, c) = (fb.param(0), fb.param(1), fb.param(2));
/// let t1 = fb.xor(a, b);
/// let u1 = fb.add(t1, c);   // xor -> add
/// let t2 = fb.xor(u1, b);
/// let u2 = fb.sub(t2, c);   // xor -> sub : a wildcard family
/// fb.ret(&[u2.into()]);
/// let dfgs = function_dfgs(&fb.finish());
/// let hw = HwLibrary::micron_018();
/// let found = explore_app(&dfgs, &hw, &ExploreConfig::default());
/// let mut cfus = combine(&dfgs, &found.candidates, &hw);
/// find_wildcard_partners(&mut cfus);
/// let sel = select_multifunction(&cfus, &SelectConfig::with_budget(3.0));
/// assert!(!sel.chosen.is_empty());
/// ```
pub fn select_multifunction(cands: &[CfuCandidate], cfg: &SelectConfig) -> Selection {
    let mut meter = isax_guard::Meter::unlimited(isax_guard::Stage::Select, 0);
    select_multifunction_metered(cands, cfg, &mut meter)
}

/// [`select_multifunction`] under a work-unit meter: the greedy scan of
/// [`crate::select_greedy_metered`] over every single CFU, costed at its
/// plain area, then every wildcard family of two or more members, costed
/// as shared hardware. One unit per unit evaluation; on exhaustion the
/// units already chosen are returned, a prefix of the ungoverned order.
pub fn select_multifunction_metered(
    cands: &[CfuCandidate],
    cfg: &SelectConfig,
    meter: &mut isax_guard::Meter,
) -> Selection {
    let families = wildcard_families(cands);
    let cost = |members: &[usize], _: &[SelectedCfu]| match members {
        [m] => cands[*m].area.max(MIN_COST),
        _ => family_area(members, cands),
    };
    greedy_scan(cands, &families, cfg, cost, meter)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combine::{combine, Occurrence};
    use crate::greedy::select_greedy;
    use crate::wildcard::find_wildcard_partners;
    use isax_explore::{explore_app, ExploreConfig};
    use isax_graph::{BitSet, DiGraph};
    use isax_hwlib::HwLibrary;
    use isax_ir::{function_dfgs, DfgLabel, FunctionBuilder, Opcode};

    fn cand(ops: &[Opcode], area: f64, occs: Vec<(Vec<usize>, u64)>) -> CfuCandidate {
        let mut pattern = DiGraph::new();
        let mut prev = None;
        for &op in ops {
            let n = pattern.add_node(DfgLabel {
                opcode: op,
                imms: vec![],
            });
            if let Some(p) = prev {
                pattern.add_edge(p, n, 0);
            }
            prev = Some(n);
        }
        let fingerprint = crate::combine::pattern_fingerprint(&pattern);
        CfuCandidate {
            pattern,
            fingerprint,
            delay: 0.4,
            area,
            inputs: 2,
            outputs: 1,
            hw_cycles: 1,
            occurrences: occs
                .into_iter()
                .map(|(nodes, value)| Occurrence {
                    dfg: 0,
                    nodes: nodes.into_iter().collect::<BitSet>(),
                    weight: value,
                    savings_per_exec: 1,
                })
                .collect(),
            subsumes: vec![],
            wildcard_partners: vec![],
        }
    }

    #[test]
    fn families_are_connected_components() {
        let mut a = cand(&[Opcode::Xor, Opcode::Add], 1.0, vec![(vec![0, 1], 10)]);
        let mut b = cand(&[Opcode::Xor, Opcode::Sub], 1.0, vec![(vec![2, 3], 10)]);
        let mut c = cand(&[Opcode::And, Opcode::Sub], 1.0, vec![(vec![4, 5], 10)]);
        let d = cand(&[Opcode::Mul], 17.0, vec![(vec![6], 10)]);
        a.wildcard_partners = vec![1];
        b.wildcard_partners = vec![0, 2];
        c.wildcard_partners = vec![1];
        let fams = wildcard_families(&[a, b, c, d]);
        assert_eq!(fams, vec![vec![0, 1, 2]]);
    }

    #[test]
    fn family_is_cheaper_than_separate_members() {
        // Two partners at 4.0 adders each: separately 8.0, merged
        // 4.0 + 0.4 = 4.4 — the family fits a 5-adder budget.
        let mut a = cand(&[Opcode::Xor, Opcode::Add], 4.0, vec![(vec![0, 1], 100)]);
        let mut b = cand(&[Opcode::Xor, Opcode::Sub], 4.0, vec![(vec![2, 3], 90)]);
        a.wildcard_partners = vec![1];
        b.wildcard_partners = vec![0];
        let cands = [a, b];
        let cfg = SelectConfig::with_budget(5.0);
        let multi = select_multifunction(&cands, &cfg);
        assert_eq!(multi.chosen.len(), 2, "whole family selected");
        assert!(multi.total_area <= 5.0);
        assert_eq!(multi.total_value, 190);
        // Plain greedy also gets both here thanks to the partner
        // discount; multifunction must never do worse.
        let plain = select_greedy(&cands, &cfg);
        assert!(multi.total_value >= plain.total_value);
    }

    #[test]
    fn overlapping_family_occurrences_are_not_double_counted() {
        // Both members claim the same operations.
        let mut a = cand(&[Opcode::Xor, Opcode::Add], 1.0, vec![(vec![0, 1], 50)]);
        let mut b = cand(&[Opcode::Xor, Opcode::Sub], 1.0, vec![(vec![0, 1], 40)]);
        a.wildcard_partners = vec![1];
        b.wildcard_partners = vec![0];
        let sel = select_multifunction(&[a, b], &SelectConfig::with_budget(10.0));
        assert_eq!(sel.total_value, 50, "only one member may claim ops 0-1");
    }

    #[test]
    fn end_to_end_multifunction_beats_or_ties_plain_greedy() {
        // A kernel whose add/sub halves form a natural family.
        let mut fb = FunctionBuilder::new("k", 3);
        fb.set_entry_weight(10_000);
        let (a, b, c) = (fb.param(0), fb.param(1), fb.param(2));
        let t1 = fb.xor(a, c);
        let u1 = fb.add(t1, b);
        let t2 = fb.xor(u1, c);
        let u2 = fb.sub(t2, b);
        let t3 = fb.xor(u2, c);
        let u3 = fb.add(t3, b);
        fb.ret(&[u3.into()]);
        let dfgs = function_dfgs(&fb.finish());
        let hw = HwLibrary::micron_018();
        let found = explore_app(&dfgs, &hw, &ExploreConfig::default());
        let mut cfus = combine(&dfgs, &found.candidates, &hw);
        find_wildcard_partners(&mut cfus);
        for budget in [1.0, 2.0, 4.0, 15.0] {
            let cfg = SelectConfig::with_budget(budget);
            let plain = select_greedy(&cfus, &cfg);
            let multi = select_multifunction(&cfus, &cfg);
            assert!(
                multi.total_value >= plain.total_value,
                "budget {budget}: multi {} < plain {}",
                multi.total_value,
                plain.total_value
            );
            assert!(multi.total_area <= budget + 1e-9);
        }
    }

    #[test]
    fn empty_input_selects_nothing() {
        let sel = select_multifunction(&[], &SelectConfig::with_budget(10.0));
        assert!(sel.chosen.is_empty());
    }
}
