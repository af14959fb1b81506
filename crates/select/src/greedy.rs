//! CFU selection: the greedy value/cost knapsack of Figure 4.
//!
//! Selection resembles 0/1 knapsack — CFUs have values (estimated cycle
//! savings) and weights (die area) — with the crucial twist that "the
//! values of all the other CFUs change once a CFU is selected": an
//! operation can appear in many candidates but may only be claimed by one.
//! The paper's heuristic greedily takes the best value/cost candidate,
//! claims the operations of its surviving occurrences, re-derives every
//! other candidate's value from its still-live occurrences, and repeats
//! until the budget is exhausted.
//!
//! Once a CFU is selected, candidates it subsumes (or wildcards of it)
//! become nearly free: "the costs of the subsumed subgraphs and wildcards
//! are updated to reflect that they can now be added for very little
//! overhead" (§3.4).

use crate::claims::Claims;
use crate::combine::CfuCandidate;

/// What the greedy comparator maximizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// `value / cost` — the paper's default; wins at low budgets.
    ValuePerArea,
    /// Raw value — the ablation variant; wins at high budgets.
    Value,
}

/// Selection parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectConfig {
    /// Total area budget, in adder units (the x-axis of Figure 7).
    pub budget: f64,
    /// Greedy objective.
    pub objective: Objective,
}

impl SelectConfig {
    /// Budget-only constructor with the paper's value/cost objective.
    pub fn with_budget(budget: f64) -> Self {
        SelectConfig {
            budget,
            objective: Objective::ValuePerArea,
        }
    }
}

/// One selected CFU, in selection (priority) order.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectedCfu {
    /// Index into the candidate list passed to selection.
    pub candidate: usize,
    /// Selection rank (0 = chosen first). "Custom instruction replacement
    /// in the compiler happens in the same order that CFUs are selected."
    pub priority: usize,
    /// Interaction-aware value at the moment of selection (cycles saved).
    pub estimated_value: u64,
    /// Area actually charged against the budget (discounted for subsumed
    /// and wildcard candidates).
    pub charged_area: f64,
}

/// The result of a selection run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Selection {
    /// Chosen CFUs in priority order.
    pub chosen: Vec<SelectedCfu>,
    /// Total charged area.
    pub total_area: f64,
    /// Total estimated cycles saved.
    pub total_value: u64,
    /// Degradation records — non-empty iff the selection was cut short
    /// by a work budget or a contained fault, and the chosen list is then
    /// a sound prefix of the ungoverned greedy order — and the
    /// [`selection_prov`] events, which every `Customizer::select*`
    /// variant derives after the algorithm runs, so recording can never
    /// influence the selection.
    pub report: isax_guard::StageReport,
}

impl Selection {
    /// Indices of the chosen candidates, in priority order.
    pub fn candidate_indices(&self) -> Vec<usize> {
        self.chosen.iter().map(|c| c.candidate).collect()
    }
}

/// Derives the select-stage provenance events from a finished selection:
/// one `SelectedAsCfu` per chosen unit (in priority order, so the MDES id
/// is the position), then the subsumption/wildcard structure each chosen
/// unit carries. Reads only the selection's output, so recording can
/// never influence what gets selected. Empty unless
/// [`isax_prov::enabled`] is set.
pub fn selection_prov(cfus: &[CfuCandidate], sel: &Selection) -> isax_prov::ProvLog {
    let mut log = isax_prov::ProvLog::default();
    if !isax_prov::enabled() {
        return log;
    }
    for (i, sc) in sel.chosen.iter().enumerate() {
        let c = &cfus[sc.candidate];
        log.record(
            c.fingerprint.0,
            isax_prov::ProvEvent::SelectedAsCfu {
                cfu: i as u16,
                area: sc.charged_area,
                delay: c.delay,
                estimated_value: sc.estimated_value,
            },
        );
    }
    for (i, sc) in sel.chosen.iter().enumerate() {
        let c = &cfus[sc.candidate];
        for &j in &c.subsumes {
            log.record(
                cfus[j].fingerprint.0,
                isax_prov::ProvEvent::SubsumedBy { cfu: i as u16 },
            );
        }
        for &j in &c.wildcard_partners {
            log.record(
                cfus[j].fingerprint.0,
                isax_prov::ProvEvent::Wildcarded { partner: i as u16 },
            );
        }
    }
    log
}

/// Floor on any candidate's cost, so zero-area patterns (pure wiring)
/// cannot produce infinite value/cost ratios.
pub(crate) const MIN_COST: f64 = 0.05;
/// Area charged for a candidate some already-selected CFU subsumes: the
/// hardware exists; only decode overhead remains.
const SUBSUMED_COST: f64 = 0.05;
/// Fraction of a candidate's area charged when a wildcard partner is
/// already selected (shared datapath, extra opcode mux).
pub(crate) const WILDCARD_COST_FACTOR: f64 = 0.10;

fn charged_cost(idx: usize, cands: &[CfuCandidate], chosen: &[SelectedCfu]) -> f64 {
    let area = cands[idx].area.max(MIN_COST);
    let mut selected = chosen.iter().map(|s| &cands[s.candidate]);
    if selected.clone().any(|s| s.subsumes.contains(&idx)) {
        return SUBSUMED_COST;
    }
    if selected.any(|s| s.wildcard_partners.contains(&idx)) {
        return (area * WILDCARD_COST_FACTOR).max(MIN_COST);
    }
    area
}

/// Runs the greedy selection of Figure 4.
///
/// # Example
///
/// ```
/// use isax_explore::{explore_app, ExploreConfig};
/// use isax_hwlib::HwLibrary;
/// use isax_ir::{function_dfgs, FunctionBuilder};
/// use isax_select::{combine, select_greedy, SelectConfig};
///
/// let mut fb = FunctionBuilder::new("f", 3);
/// fb.set_entry_weight(1_000);
/// let (a, b, c) = (fb.param(0), fb.param(1), fb.param(2));
/// let t = fb.xor(a, b);
/// let u = fb.shl(t, 2i64);
/// let v = fb.add(u, c);
/// fb.ret(&[v.into()]);
/// let dfgs = function_dfgs(&fb.finish());
/// let hw = HwLibrary::micron_018();
/// let found = explore_app(&dfgs, &hw, &ExploreConfig::default());
/// let cfus = combine(&dfgs, &found.candidates, &hw);
///
/// let sel = select_greedy(&cfus, &SelectConfig::with_budget(4.0));
/// assert!(!sel.chosen.is_empty());
/// assert!(sel.total_area <= 4.0);
/// ```
pub fn select_greedy(cands: &[CfuCandidate], cfg: &SelectConfig) -> Selection {
    let mut meter = isax_guard::Meter::unlimited(isax_guard::Stage::Select, 0);
    select_greedy_metered(cands, cfg, &mut meter)
}

/// [`select_greedy`] under a work-unit meter: one unit per candidate
/// evaluation in the greedy scan. On exhaustion the scan stops and the
/// CFUs already chosen are returned — a prefix of the ungoverned greedy
/// order, which is always a sound (if smaller) selection. The caller
/// turns the meter's state into a [`isax_guard::Degradation`] record.
pub fn select_greedy_metered(
    cands: &[CfuCandidate],
    cfg: &SelectConfig,
    meter: &mut isax_guard::Meter,
) -> Selection {
    let cost = |members: &[usize], chosen: &[SelectedCfu]| charged_cost(members[0], cands, chosen);
    greedy_scan(cands, &[], cfg, cost, meter)
}

/// The greedy scan every greedy selector runs, over selection units:
/// each candidate alone, then each of `families` as a whole. A round
/// evaluates every unit with no member selected yet — one work unit
/// each, charged before the evaluation — at `cost(members, chosen)` and
/// at the value its members' occurrences would claim, and takes the best
/// by `cfg.objective` (ties: lower cost, then lower unit index). The
/// winner takes each member's occurrences in turn and charges every
/// member an equal share of its cost. Exhaustion mid-round discards the
/// partial round, so the chosen list is a prefix of complete rounds.
pub(crate) fn greedy_scan(
    cands: &[CfuCandidate],
    families: &[Vec<usize>],
    cfg: &SelectConfig,
    cost: impl Fn(&[usize], &[SelectedCfu]) -> f64,
    meter: &mut isax_guard::Meter,
) -> Selection {
    meter.touch();
    let singles: Vec<usize> = (0..cands.len()).collect();
    let units: Vec<&[usize]> = singles
        .iter()
        .map(std::slice::from_ref)
        .chain(families.iter().map(Vec::as_slice))
        .collect();
    let mut selected = vec![false; cands.len()];
    let (mut claims, mut scratch) = (Claims::default(), Claims::default());
    let mut out = Selection::default();
    let mut remaining = cfg.budget;
    'rounds: loop {
        let mut best: Option<(usize, u64, f64)> = None; // (unit, value, cost)
        for (u, members) in units.iter().enumerate() {
            if members.iter().any(|&m| selected[m]) {
                continue;
            }
            if !meter.charge(1) {
                break 'rounds;
            }
            let cost = cost(members, &out.chosen);
            if cost > remaining {
                continue;
            }
            let occurrences = members.iter().flat_map(|&m| &cands[m].occurrences);
            let value = claims.live_value(occurrences, &mut scratch);
            if value == 0 {
                continue;
            }
            let better = match best {
                None => true,
                Some((bu, bv, bc)) => {
                    let (a, b) = match cfg.objective {
                        Objective::ValuePerArea => (value as f64 * bc, bv as f64 * cost),
                        Objective::Value => (value as f64, bv as f64),
                    };
                    a > b || (a == b && (cost < bc || (cost == bc && u < bu)))
                }
            };
            if better {
                best = Some((u, value, cost));
            }
        }
        let Some((u, _, cost)) = best else {
            break;
        };
        let share = cost / units[u].len() as f64;
        for &m in units[u] {
            let value = claims.take(&cands[m].occurrences);
            out.total_value += value;
            out.chosen.push(SelectedCfu {
                candidate: m,
                priority: out.chosen.len(),
                estimated_value: value,
                charged_area: share,
            });
            selected[m] = true;
        }
        remaining -= cost;
        out.total_area += cost;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combine::{combine, Occurrence};
    use isax_explore::{explore_app, ExploreConfig};
    use isax_graph::{BitSet, DiGraph};
    use isax_hwlib::HwLibrary;
    use isax_ir::{function_dfgs, DfgLabel, FunctionBuilder, Opcode};

    /// Hand-built candidate for focused selection tests.
    fn cand(ops: &[Opcode], area: f64, occs: Vec<(usize, Vec<usize>, u64, u64)>) -> CfuCandidate {
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
            delay: 0.5,
            area,
            inputs: 2,
            outputs: 1,
            hw_cycles: 1,
            occurrences: occs
                .into_iter()
                .map(|(dfg, nodes, weight, savings)| Occurrence {
                    dfg,
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
    fn metered_selection_is_a_prefix_of_the_ungoverned_order() {
        let cands: Vec<CfuCandidate> = (0..6)
            .map(|i| {
                cand(
                    &[Opcode::Shl, Opcode::And],
                    0.5,
                    vec![(0, vec![10 * i, 10 * i + 1], 50 + i as u64, 2)],
                )
            })
            .collect();
        let cfg = SelectConfig::with_budget(100.0);
        let full = select_greedy(&cands, &cfg);
        assert_eq!(full.chosen.len(), 6);
        assert!(full.report.degradations.is_empty());
        // One full round over 6 candidates costs 6 units; allow two
        // complete rounds, then exhaust during the third.
        let mut meter = isax_guard::Meter::with_limit(isax_guard::Stage::Select, 0, 13);
        let partial = select_greedy_metered(&cands, &cfg, &mut meter);
        assert!(meter.exhausted());
        assert_eq!(partial.chosen.len(), 2, "two complete greedy rounds");
        assert_eq!(
            &full.chosen[..2],
            &partial.chosen[..],
            "prefix of the ungoverned greedy order"
        );

        // Multifunction scans the same singles plus the family {4, 5},
        // which wins the first round (7 units) as a whole.
        let mut cands = cands;
        cands[4].wildcard_partners = vec![5];
        cands[5].wildcard_partners = vec![4];
        let mut meter = isax_guard::Meter::with_limit(isax_guard::Stage::Select, 0, 7);
        let partial = crate::select_multifunction_metered(&cands, &cfg, &mut meter);
        assert!(meter.exhausted());
        assert_eq!(partial.candidate_indices(), vec![4, 5]);

        type Metered = fn(&[CfuCandidate], &SelectConfig, &mut isax_guard::Meter) -> Selection;
        let scans: [(&str, Metered); 2] = [
            ("greedy", select_greedy_metered),
            ("multifunction", crate::select_multifunction_metered),
        ];
        for (name, scan) in scans {
            let mut unlimited = isax_guard::Meter::unlimited(isax_guard::Stage::Select, 0);
            let full = scan(&cands, &cfg, &mut unlimited);
            assert_eq!(full.chosen.len(), 6);
            for limit in 0..40 {
                let mut meter = isax_guard::Meter::with_limit(isax_guard::Stage::Select, 0, limit);
                let partial = scan(&cands, &cfg, &mut meter);
                let n = partial.chosen.len();
                assert_eq!(&full.chosen[..n], &partial.chosen[..], "{name} at {limit}");
                assert_eq!(
                    n < full.chosen.len(),
                    meter.exhausted(),
                    "{name} at {limit}"
                );
            }
        }
    }

    #[test]
    fn zero_budget_meter_selects_nothing_but_terminates() {
        let cands = vec![cand(&[Opcode::Shl], 0.5, vec![(0, vec![1], 10, 1)])];
        let mut meter = isax_guard::Meter::with_limit(isax_guard::Stage::Select, 0, 0);
        let sel = select_greedy_metered(&cands, &SelectConfig::with_budget(10.0), &mut meter);
        assert!(sel.chosen.is_empty());
        assert!(meter.exhausted());
    }

    #[test]
    fn claiming_prevents_double_counting() {
        // The paper's example: 7-10-13-16 selected first must zero out
        // 7-10-13 (all of its ops are claimed).
        let big = cand(
            &[Opcode::Shl, Opcode::And, Opcode::Add, Opcode::Xor],
            1.5,
            vec![(0, vec![7, 10, 13, 16], 100, 3)],
        );
        let small = cand(
            &[Opcode::Shl, Opcode::And, Opcode::Add],
            1.4,
            vec![(0, vec![7, 10, 13], 100, 2)],
        );
        let sel = select_greedy(&[big, small], &SelectConfig::with_budget(100.0));
        assert_eq!(
            sel.chosen.len(),
            1,
            "the overlapped candidate has no value left"
        );
        assert_eq!(sel.chosen[0].candidate, 0);
        assert_eq!(sel.total_value, 300);
    }

    #[test]
    fn partial_overlap_updates_value() {
        // Figure 4: after CFU 2 claims op 3, CFU 1 keeps only its
        // non-overlapping occurrence value.
        let cfu2 = cand(
            &[Opcode::And, Opcode::Add],
            0.5,
            vec![(0, vec![1, 7], 10, 2), (0, vec![3, 9], 5, 2)],
        );
        let cfu1 = cand(
            &[Opcode::Xor, Opcode::Or],
            0.5,
            vec![(0, vec![3, 4], 8, 2), (0, vec![20, 21], 8, 2)],
        );
        let sel = select_greedy(
            &[cfu2.clone(), cfu1.clone()],
            &SelectConfig::with_budget(100.0),
        );
        assert_eq!(sel.chosen.len(), 2);
        // cfu2 first (value 30 > 32? no: cfu1 initial value 32) —
        // whichever is first, the other's overlapping occurrence dies.
        let total: u64 = sel.chosen.iter().map(|c| c.estimated_value).sum();
        // Optimal here: cfu1 first (32), then cfu2 loses occurrence {3,9}
        // (op 3 claimed): 20. Or cfu2 first (30) then cfu1 gets 16.
        assert_eq!(total, 32 + 20);
    }

    #[test]
    fn budget_is_enforced() {
        let a = cand(
            &[Opcode::Add, Opcode::Add],
            2.0,
            vec![(0, vec![0, 1], 100, 1)],
        );
        let b = cand(
            &[Opcode::Sub, Opcode::Sub],
            2.0,
            vec![(0, vec![2, 3], 90, 1)],
        );
        let c = cand(
            &[Opcode::And, Opcode::Or],
            2.0,
            vec![(0, vec![4, 5], 80, 1)],
        );
        let sel = select_greedy(&[a, b, c], &SelectConfig::with_budget(4.0));
        assert_eq!(sel.chosen.len(), 2);
        assert!(sel.total_area <= 4.0);
    }

    #[test]
    fn ratio_beats_value_at_low_budget() {
        // A huge but inefficient CFU vs two small efficient ones.
        let huge = cand(
            &[Opcode::Add; 5],
            5.0,
            vec![(0, vec![0, 1, 2, 3, 4], 100, 4)],
        );
        let small1 = cand(
            &[Opcode::Xor, Opcode::Shl],
            0.2,
            vec![(0, vec![10, 11], 100, 1)],
        );
        let small2 = cand(
            &[Opcode::Or, Opcode::Shr],
            0.2,
            vec![(0, vec![12, 13], 100, 1)],
        );
        let cands = [huge, small1, small2];

        let ratio = select_greedy(&cands, &SelectConfig::with_budget(5.0));
        // ratio picks the two smalls first (ratio 500 each vs 80), then
        // cannot afford the huge one.
        assert_eq!(ratio.total_value, 200);

        let value = select_greedy(
            &cands,
            &SelectConfig {
                objective: Objective::Value,
                ..SelectConfig::with_budget(5.0)
            },
        );
        // value grabs the huge one (400) and has no room left.
        assert_eq!(value.total_value, 400);
    }

    #[test]
    fn subsumed_candidates_become_cheap_after_selection() {
        let mut big = cand(
            &[Opcode::And, Opcode::Add, Opcode::Shl],
            10.0,
            vec![(0, vec![0, 1, 2], 100, 2)],
        );
        big.subsumes = vec![1];
        let small = cand(
            &[Opcode::And, Opcode::Shl],
            9.0,
            vec![(0, vec![5, 6], 50, 1)],
        );
        // Budget fits the big one plus *discounted* small, not 10 + 9.
        let sel = select_greedy(&[big, small], &SelectConfig::with_budget(11.0));
        assert_eq!(sel.chosen.len(), 2);
        assert!(sel.chosen[1].charged_area < 1.0);
    }

    #[test]
    fn wildcard_partners_are_discounted() {
        let mut a = cand(
            &[Opcode::Xor, Opcode::Add],
            4.0,
            vec![(0, vec![0, 1], 100, 1)],
        );
        a.wildcard_partners = vec![1];
        let mut b = cand(
            &[Opcode::Xor, Opcode::Sub],
            4.0,
            vec![(0, vec![5, 6], 60, 1)],
        );
        b.wildcard_partners = vec![0];
        let sel = select_greedy(&[a, b], &SelectConfig::with_budget(5.0));
        assert_eq!(sel.chosen.len(), 2, "partner fits thanks to the discount");
        assert!((sel.chosen[1].charged_area - 0.4).abs() < 1e-9);
    }

    #[test]
    fn zero_value_candidates_are_never_selected() {
        let useless = cand(&[Opcode::Mov], 0.0, vec![(0, vec![0], 100, 0)]);
        let sel = select_greedy(&[useless], &SelectConfig::with_budget(10.0));
        assert!(sel.chosen.is_empty());
    }

    #[test]
    fn end_to_end_selection_from_real_kernel() {
        let mut fb = FunctionBuilder::new("k", 3);
        fb.set_entry_weight(10_000);
        let (a, b, k) = (fb.param(0), fb.param(1), fb.param(2));
        let t = fb.xor(a, k);
        let l = fb.shl(t, 5i64);
        let r = fb.shr(t, 27i64);
        let rot = fb.or(l, r);
        let s = fb.add(rot, b);
        fb.ret(&[s.into()]);
        let dfgs = function_dfgs(&fb.finish());
        let hw = HwLibrary::micron_018();
        let found = explore_app(&dfgs, &hw, &ExploreConfig::default());
        let cfus = combine(&dfgs, &found.candidates, &hw);
        let sel = select_greedy(&cfus, &SelectConfig::with_budget(15.0));
        assert!(!sel.chosen.is_empty());
        // Ratio-greedy prefers the tiny rotate diamond (2 cycles saved at
        // ~0.16 adders) over the full 5-op subgraph (4 cycles at ~1.3
        // adders), then picks up the remaining or+add pair.
        let top = &cfus[sel.chosen[0].candidate];
        assert_eq!(top.describe(), "shl-shr-xor");
        assert_eq!(sel.chosen[0].estimated_value, 2 * 10_000);
        // The or+add remainder is claimed next; together they recover 3 of
        // the 4 available cycles per iteration.
        assert_eq!(sel.total_value, 3 * 10_000);
    }
}
