//! Checkpoint 3: candidate, CFU, selection and MDES legality (`IC03xx`).
//!
//! The §3 constraints that make a subgraph implementable as a custom
//! function unit:
//!
//! * `IC0301` — **convexity**: no dependence path from a member through
//!   a non-member back into a member (a non-convex set would have to
//!   issue both before and after the external operation);
//! * `IC0302` / `IC0303` — register-file **port limits**: recounted
//!   input/output ports must match the candidate's stored counts and
//!   respect the exploration configuration's maxima;
//! * `IC0304` — **forbidden opcodes**: every node of a pattern must be
//!   CFU-eligible in the hardware library (no branches, and no memory
//!   operations unless the §6 relaxation is active);
//! * `IC0305` — **wildcard consistency**: partner links must be in
//!   range, non-reflexive, symmetric, and connect equal-size patterns;
//! * `IC0306` — **structural integrity**: indices in range, occurrence
//!   subgraphs isomorphic to their CFU's pattern, subsumption links
//!   well-formed;
//! * `IC0307` — **MDES port limits**: every emitted `CfuSpec` fits the
//!   machine description's declared maxima.

use isax_compiler::Mdes;
use isax_explore::candidate::extract_pattern;
use isax_explore::{Candidate, ExploreConfig};
use isax_graph::DiGraph;
use isax_hwlib::HwLibrary;
use isax_ir::{Dfg, DfgLabel};
use isax_select::{patterns_equivalent, CfuCandidate, Selection};

use crate::diag::{Diagnostic, Location, Report};

/// Checks the raw exploration output against the DFGs it grew from.
pub fn check_candidates(
    dfgs: &[Dfg],
    candidates: &[Candidate],
    config: &ExploreConfig,
    hw: &HwLibrary,
) -> Report {
    let mut report = Report::new();
    for (ci, c) in candidates.iter().enumerate() {
        let loc = Location::Candidate { index: ci };
        if c.dfg >= dfgs.len() {
            report.push(Diagnostic::error(
                "IC0306",
                loc,
                format!("refers to DFG {} of {}", c.dfg, dfgs.len()),
            ));
            continue;
        }
        let dfg = &dfgs[c.dfg];
        if c.nodes.is_empty() || c.nodes.iter().any(|v| v >= dfg.len()) {
            report.push(Diagnostic::error(
                "IC0306",
                loc,
                format!(
                    "node set is empty or out of range for a {}-node DFG",
                    dfg.len()
                ),
            ));
            continue;
        }
        if !dfg.is_convex(&c.nodes) {
            report.push(Diagnostic::error(
                "IC0301",
                loc.clone(),
                "candidate subgraph is not convex".to_string(),
            ));
        }
        let ins = dfg.input_count(&c.nodes);
        let outs = dfg.output_count(&c.nodes);
        if ins != c.inputs || ins > config.max_inputs {
            report.push(Diagnostic::error(
                "IC0302",
                loc.clone(),
                format!(
                    "input ports: stored {}, recounted {ins}, limit {}",
                    c.inputs, config.max_inputs
                ),
            ));
        }
        if outs != c.outputs || outs > config.max_outputs {
            report.push(Diagnostic::error(
                "IC0303",
                loc.clone(),
                format!(
                    "output ports: stored {}, recounted {outs}, limit {}",
                    c.outputs, config.max_outputs
                ),
            ));
        }
        for v in c.nodes.iter() {
            let op = dfg.inst(v).opcode;
            if !hw.cfu_eligible(op) {
                report.push(Diagnostic::error(
                    "IC0304",
                    loc.clone(),
                    format!("node {v} has CFU-ineligible opcode `{}`", op.mnemonic()),
                ));
            }
        }
    }
    report
}

/// Checks the combined CFU candidates (grouping, subsumption and
/// wildcard annotations) against the DFGs.
pub fn check_cfus(
    dfgs: &[Dfg],
    cfus: &[CfuCandidate],
    config: &ExploreConfig,
    hw: &HwLibrary,
) -> Report {
    let mut report = Report::new();
    for (ci, cfu) in cfus.iter().enumerate() {
        let loc = Location::CfuCandidate { index: ci };
        if cfu.pattern.is_empty() {
            report.push(Diagnostic::error(
                "IC0306",
                loc,
                "pattern is empty".to_string(),
            ));
            continue;
        }
        check_pattern_opcodes(&cfu.pattern, hw, &loc, &mut report);
        if cfu.inputs > config.max_inputs {
            report.push(Diagnostic::error(
                "IC0302",
                loc.clone(),
                format!(
                    "{} input ports exceed the limit of {}",
                    cfu.inputs, config.max_inputs
                ),
            ));
        }
        if cfu.outputs > config.max_outputs {
            report.push(Diagnostic::error(
                "IC0303",
                loc.clone(),
                format!(
                    "{} output ports exceed the limit of {}",
                    cfu.outputs, config.max_outputs
                ),
            ));
        }
        if cfu.occurrences.is_empty() {
            report.push(Diagnostic::error(
                "IC0306",
                loc.clone(),
                "CFU candidate has no occurrences".to_string(),
            ));
        }
        for occ in &cfu.occurrences {
            if occ.dfg >= dfgs.len() || occ.nodes.iter().any(|v| v >= dfgs[occ.dfg].len()) {
                report.push(Diagnostic::error(
                    "IC0306",
                    loc.clone(),
                    format!("occurrence in DFG {} is out of range", occ.dfg),
                ));
                continue;
            }
            let dfg = &dfgs[occ.dfg];
            if !dfg.is_convex(&occ.nodes) {
                report.push(Diagnostic::error(
                    "IC0301",
                    loc.clone(),
                    format!("occurrence in DFG {} is not convex", occ.dfg),
                ));
            }
            let got = extract_pattern(dfg, &occ.nodes);
            if !patterns_equivalent(&cfu.pattern, &got) {
                report.push(Diagnostic::error(
                    "IC0306",
                    loc.clone(),
                    format!(
                        "occurrence in DFG {} is not isomorphic to the CFU pattern",
                        occ.dfg
                    ),
                ));
            }
        }
        for &s in &cfu.subsumes {
            if s >= cfus.len() || s == ci {
                report.push(Diagnostic::error(
                    "IC0306",
                    loc.clone(),
                    format!("subsumption link {s} is out of range or reflexive"),
                ));
            }
        }
        for &w in &cfu.wildcard_partners {
            if w >= cfus.len() || w == ci {
                report.push(Diagnostic::error(
                    "IC0305",
                    loc.clone(),
                    format!("wildcard partner {w} is out of range or reflexive"),
                ));
                continue;
            }
            if !cfus[w].wildcard_partners.contains(&ci) {
                report.push(Diagnostic::error(
                    "IC0305",
                    loc.clone(),
                    format!("wildcard link to {w} is not symmetric"),
                ));
            }
            if cfus[w].size() != cfu.size() {
                report.push(Diagnostic::error(
                    "IC0305",
                    loc.clone(),
                    format!(
                        "wildcard partner {w} has {} nodes but this pattern has {}",
                        cfus[w].size(),
                        cfu.size()
                    ),
                ));
            }
        }
    }
    report
}

/// Checks a selection result against the candidate list it chose from.
pub fn check_selection(cfus: &[CfuCandidate], selection: &Selection) -> Report {
    let mut report = Report::new();
    let mut seen = std::collections::BTreeSet::new();
    for chosen in &selection.chosen {
        if chosen.candidate >= cfus.len() {
            report.push(Diagnostic::error(
                "IC0306",
                Location::Whole,
                format!(
                    "selection refers to CFU candidate {} of {}",
                    chosen.candidate,
                    cfus.len()
                ),
            ));
        } else if !seen.insert(chosen.candidate) {
            report.push(Diagnostic::error(
                "IC0306",
                Location::CfuCandidate {
                    index: chosen.candidate,
                },
                "candidate selected more than once".to_string(),
            ));
        }
    }
    report
}

/// Checks an emitted machine description: port limits, latency, and
/// opcode eligibility of every pattern (primary and subsumed).
pub fn check_mdes(mdes: &Mdes, hw: &HwLibrary) -> Report {
    let mut report = Report::new();
    for (i, spec) in mdes.cfus.iter().enumerate() {
        let loc = Location::Cfu { id: i as u16 };
        if spec.inputs > mdes.max_inputs {
            report.push(Diagnostic::error(
                "IC0307",
                loc.clone(),
                format!(
                    "{} input ports exceed the machine's {}-port register file",
                    spec.inputs, mdes.max_inputs
                ),
            ));
        }
        if spec.outputs > mdes.max_outputs {
            report.push(Diagnostic::error(
                "IC0307",
                loc.clone(),
                format!(
                    "{} output ports exceed the machine's {}-port register file",
                    spec.outputs, mdes.max_outputs
                ),
            ));
        }
        if spec.latency == 0 {
            report.push(Diagnostic::error(
                "IC0307",
                loc.clone(),
                "CFU latency of zero cycles".to_string(),
            ));
        }
        check_pattern_opcodes(&spec.pattern, hw, &loc, &mut report);
        for sub in &spec.subsumed_patterns {
            check_pattern_opcodes(sub, hw, &loc, &mut report);
        }
    }
    report
}

fn check_pattern_opcodes(
    pattern: &DiGraph<DfgLabel>,
    hw: &HwLibrary,
    loc: &Location,
    report: &mut Report,
) {
    for n in pattern.node_ids() {
        let op = pattern[n].opcode;
        if !hw.cfu_eligible(op) {
            report.push(Diagnostic::error(
                "IC0304",
                loc.clone(),
                format!("pattern contains CFU-ineligible opcode `{}`", op.mnemonic()),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isax_graph::BitSet;
    use isax_ir::{function_dfgs, FunctionBuilder, Program};

    fn setup() -> (
        Vec<Dfg>,
        Vec<Candidate>,
        Vec<CfuCandidate>,
        ExploreConfig,
        HwLibrary,
    ) {
        let mut fb = FunctionBuilder::new("k", 3);
        fb.set_entry_weight(10_000);
        let (a, b, k) = (fb.param(0), fb.param(1), fb.param(2));
        let t = fb.xor(a, k);
        let l = fb.shl(t, 5i64);
        let m = fb.and(l, b);
        let s = fb.add(m, k);
        fb.ret(&[s.into()]);
        let p = Program::new(vec![fb.finish()]);
        let hw = HwLibrary::micron_018();
        let config = ExploreConfig::default();
        let dfgs: Vec<Dfg> = p.functions.iter().flat_map(function_dfgs).collect();
        let result = isax_explore::explore_app(&dfgs, &hw, &config);
        let cfus = isax_select::combine(&dfgs, &result.candidates, &hw);
        (dfgs, result.candidates, cfus, config, hw)
    }

    #[test]
    fn explorer_output_is_legal() {
        let (dfgs, cands, cfus, config, hw) = setup();
        assert!(!cands.is_empty());
        let r1 = check_candidates(&dfgs, &cands, &config, &hw);
        assert!(r1.is_clean(), "{r1}");
        let r2 = check_cfus(&dfgs, &cfus, &config, &hw);
        assert!(r2.is_clean(), "{r2}");
    }

    #[test]
    fn non_convex_candidate_is_rejected() {
        let (dfgs, mut cands, _, config, hw) = setup();
        // Nodes 0 and 3 of the chain xor->shl->and->add skip the middle:
        // the dependence path 0 -> 1 -> 2 -> 3 exits and re-enters.
        let mut nodes = BitSet::new();
        nodes.insert(0);
        nodes.insert(3);
        let dfg = &dfgs[0];
        cands[0] = Candidate {
            dfg: 0,
            nodes: nodes.clone(),
            delay: 1.0,
            area: 1.0,
            inputs: dfg.input_count(&nodes),
            outputs: dfg.output_count(&nodes),
        };
        let report = check_candidates(&dfgs, &cands, &config, &hw);
        assert!(report.has_code("IC0301"), "{report}");
    }

    #[test]
    fn port_overrun_is_rejected() {
        let (dfgs, cands, _, mut config, hw) = setup();
        config.max_inputs = 0;
        let report = check_candidates(&dfgs, &cands, &config, &hw);
        assert!(report.has_code("IC0302"), "{report}");
    }

    #[test]
    fn asymmetric_wildcard_link_is_rejected() {
        let (dfgs, _, mut cfus, config, hw) = setup();
        if cfus.len() < 2 {
            return;
        }
        cfus[0].wildcard_partners = vec![1];
        cfus[1].wildcard_partners.clear();
        let report = check_cfus(&dfgs, &cfus, &config, &hw);
        assert!(report.has_code("IC0305"), "{report}");
    }

    #[test]
    fn mdes_port_limits_are_enforced() {
        let (_, _, cfus, _, hw) = setup();
        let sel = isax_select::select_greedy(&cfus, &isax_select::SelectConfig::with_budget(20.0));
        let mut mdes = Mdes::from_selection("k", &cfus, &sel, &hw, 16);
        assert!(check_mdes(&mdes, &hw).is_clean());
        assert!(check_selection(&cfus, &sel).is_clean());
        if let Some(spec) = mdes.cfus.first_mut() {
            spec.inputs = mdes.max_inputs + 1;
        }
        if !mdes.cfus.is_empty() {
            let report = check_mdes(&mdes, &hw);
            assert!(report.has_code("IC0307"), "{report}");
        }
    }
}
