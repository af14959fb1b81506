//! Dynamic-programming CFU selection (the paper's ablation variant).
//!
//! §3.4: "In an attempt to improve the selection heuristic, a version
//! based on dynamic programming was implemented. The dynamic programming
//! heuristic generally does better (roughly 5–10% on average) than greedy
//! solutions, however it suffers from a much slower runtime."
//!
//! The DP treats selection as a classic 0/1 knapsack over the candidates'
//! *initial* (interaction-free) values with areas quantized to
//! quarter-adders, then re-evaluates the chosen set with the greedy's
//! [`Claims`] ledger, so reported values are honest. It remains a
//! heuristic — the true problem has interacting values — but it escapes
//! the greedy's worst local choices.

use crate::claims::Claims;
use crate::combine::CfuCandidate;
use crate::greedy::{SelectConfig, SelectedCfu, Selection, MIN_COST};

/// Area quantum for the DP table, in adders.
const QUANTUM: f64 = 0.25;

/// Runs knapsack-style selection under the given budget.
///
/// `cfg.objective` is ignored (the DP maximizes total value by
/// construction); the subsumed/wildcard discounts are applied when
/// re-costing the chosen set.
///
/// # Example
///
/// ```
/// use isax_explore::{explore_app, ExploreConfig};
/// use isax_hwlib::HwLibrary;
/// use isax_ir::{function_dfgs, FunctionBuilder};
/// use isax_select::{combine, select_knapsack, SelectConfig};
///
/// let mut fb = FunctionBuilder::new("f", 2);
/// fb.set_entry_weight(100);
/// let (a, b) = (fb.param(0), fb.param(1));
/// let t = fb.and(a, b);
/// let u = fb.add(t, b);
/// fb.ret(&[u.into()]);
/// let dfgs = function_dfgs(&fb.finish());
/// let hw = HwLibrary::micron_018();
/// let found = explore_app(&dfgs, &hw, &ExploreConfig::default());
/// let cfus = combine(&dfgs, &found.candidates, &hw);
/// let sel = select_knapsack(&cfus, &SelectConfig::with_budget(2.0));
/// assert!(sel.total_area <= 2.0 + 1e-9);
/// ```
pub fn select_knapsack(cands: &[CfuCandidate], cfg: &SelectConfig) -> Selection {
    let weight =
        |c: &CfuCandidate| -> usize { ((c.area.max(MIN_COST) / QUANTUM).ceil() as usize).max(1) };
    // A budget past the candidates' total area fits every one of them, so
    // the table never needs more columns than that total.
    let total: usize = cands.iter().map(weight).sum();
    let capacity = ((cfg.budget / QUANTUM).floor() as usize).min(total);
    if capacity == 0 {
        return Selection::default();
    }
    // dp[w] = (best value, chosen set as indices) — keep choices via a
    // parent table to avoid cloning vectors in the inner loop.
    let n = cands.len();
    let mut dp = vec![0u64; capacity + 1];
    let mut take = vec![vec![false; capacity + 1]; n];
    for (i, c) in cands.iter().enumerate() {
        let w = weight(c);
        let v = c.estimated_value();
        if v == 0 {
            continue;
        }
        for cap in (w..=capacity).rev() {
            let candidate_value = dp[cap - w] + v;
            if candidate_value > dp[cap] {
                dp[cap] = candidate_value;
                take[i][cap] = true;
            }
        }
        // Standard 0/1 knapsack processes items outer, capacity inner;
        // the take matrix needs back-tracking with the same item order.
    }
    // Backtrack.
    let mut chosen_idx = Vec::new();
    let mut cap = capacity;
    for i in (0..n).rev() {
        if take[i][cap] {
            chosen_idx.push(i);
            cap -= weight(&cands[i]);
        }
    }
    chosen_idx.reverse();
    // Re-evaluate with interaction (claiming) in descending initial value
    // order, which becomes the replacement priority.
    chosen_idx.sort_by_key(|&i| std::cmp::Reverse(cands[i].estimated_value()));
    let mut claims = Claims::default();
    let mut out = Selection::default();
    for &i in &chosen_idx {
        let value = claims.take(&cands[i].occurrences);
        let area = cands[i].area.max(MIN_COST);
        out.total_area += area;
        out.total_value += value;
        out.chosen.push(SelectedCfu {
            candidate: i,
            estimated_value: value,
            charged_area: area,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combine::Occurrence;
    use crate::greedy::select_greedy;
    use isax_graph::{BitSet, DiGraph};
    use isax_ir::{DfgLabel, Opcode};

    fn cand(area: f64, occs: Vec<(Vec<usize>, u64, u64)>) -> CfuCandidate {
        let mut pattern = DiGraph::new();
        pattern.add_node(DfgLabel {
            opcode: Opcode::Add,
            imms: vec![],
        });
        let fingerprint = crate::combine::pattern_fingerprint(&pattern);
        CfuCandidate {
            pattern,
            fingerprint,
            delay: 0.3,
            area,
            inputs: 2,
            outputs: 1,
            hw_cycles: 1,
            occurrences: occs
                .into_iter()
                .map(|(nodes, weight, savings)| Occurrence {
                    dfg: 0,
                    nodes: nodes.into_iter().collect::<BitSet>(),
                    weight,
                    savings_per_exec: savings,
                })
                .collect(),
            subsumes: vec![],
            wildcard_partners: vec![],
        }
    }

    #[test]
    fn dp_beats_greedy_ratio_on_the_classic_trap() {
        // Greedy-by-ratio takes the dense small item and then cannot fit
        // the optimal pair.
        let trap = cand(1.0, vec![(vec![0], 100, 1)]); // ratio 100
        let big1 = cand(2.0, vec![(vec![1], 120, 1)]); // ratio 60
        let big2 = cand(2.0, vec![(vec![2], 120, 1)]); // ratio 60
        let cands = [trap, big1, big2];
        let cfg = SelectConfig::with_budget(4.0);
        let greedy = select_greedy(&cands, &cfg);
        let dp = select_knapsack(&cands, &cfg);
        assert_eq!(greedy.total_value, 100 + 120);
        assert_eq!(dp.total_value, 240, "DP picks the two big items");
        assert!(dp.total_value > greedy.total_value);
    }

    #[test]
    fn dp_respects_budget_exactly() {
        let a = cand(1.5, vec![(vec![0], 10, 1)]);
        let b = cand(1.5, vec![(vec![1], 10, 1)]);
        let c = cand(1.5, vec![(vec![2], 10, 1)]);
        let sel = select_knapsack(&[a, b, c], &SelectConfig::with_budget(3.0));
        assert_eq!(sel.chosen.len(), 2);
        assert!(sel.total_area <= 3.0 + 1e-9);
    }

    #[test]
    fn dp_reports_interaction_aware_values() {
        // Both candidates cover the same op: only one may claim it.
        let a = cand(1.0, vec![(vec![7], 50, 2)]);
        let b = cand(1.0, vec![(vec![7], 50, 1)]);
        let sel = select_knapsack(&[a, b], &SelectConfig::with_budget(10.0));
        // Even if the DP packs both, the claimed value counts once.
        assert_eq!(sel.total_value, 100);
    }

    #[test]
    fn huge_budgets_select_as_the_total_area_does() {
        let cands = [
            cand(1.0, vec![(vec![0], 10, 1)]),
            cand(1.5, vec![(vec![1], 20, 1)]),
            cand(2.25, vec![(vec![1, 2], 30, 1)]),
            cand(0.5, vec![(vec![3], 0, 1)]),
        ];
        let total: f64 = cands.iter().map(|c| c.area).sum();
        let at_total = select_knapsack(&cands, &SelectConfig::with_budget(total));
        assert_eq!(at_total.chosen.len(), 3, "every positive-value candidate");
        for budget in [f64::INFINITY, 1e9] {
            assert_eq!(
                select_knapsack(&cands, &SelectConfig::with_budget(budget)),
                at_total
            );
        }
    }

    #[test]
    fn zero_budget_selects_nothing() {
        let a = cand(1.0, vec![(vec![0], 10, 1)]);
        let sel = select_knapsack(&[a], &SelectConfig::with_budget(0.0));
        assert!(sel.chosen.is_empty());
    }
}
