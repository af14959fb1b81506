//! Custom instruction replacement with correctness-preserving reordering.
//!
//! §4.2: a custom instruction "must be placed after all the predecessors
//! of the operations in the subgraph, and also before all the successors";
//! when the original linear order interleaves them, "those successors and
//! any operations dependent \[on\] them are moved after the last
//! predecessor". This pass realizes that by collapsing each accepted match
//! into a super-node and re-emitting the whole block in a dependence-
//! respecting topological order (data, memory *and* anti/output
//! dependences — the IR is not SSA, so register reuse pins reorderings
//! too). Convexity of every accepted match guarantees the super-node graph
//! is acyclic.
//!
//! Each replacement also registers the **executable semantics** of the new
//! instruction — the DAG of primitive operations it stands for — built
//! from the *matched program nodes* (not the CFU's nominal pattern), so
//! wildcard and subsumed matches carry their own exact function. This is
//! what lets the interpreter prove replacement soundness.

use crate::matching::PatternMatch;
use crate::mdes::Mdes;
use isax_ir::{
    BasicBlock, CfuSemantics, Dfg, Function, Inst, Opcode, Operand, SemOp, SemSrc, VReg,
};
use std::collections::{BTreeMap, HashMap};

/// Summary of one applied replacement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppliedMatch {
    /// Executing CFU.
    pub cfu: u16,
    /// Semantic id given to the emitted `Opcode::Custom` instruction.
    pub sem_id: u16,
    /// Block the replacement happened in.
    pub block: usize,
    /// Operations absorbed.
    pub size: usize,
    /// Whether the match came from the contraction closure.
    pub via_subsumption: bool,
    /// Estimated cycles saved.
    pub savings: u64,
}

/// A function after custom-instruction replacement.
#[derive(Debug, Clone, PartialEq)]
pub struct CustomizedFunction {
    /// The rewritten function.
    pub function: Function,
    /// Semantics of each emitted custom opcode, keyed by semantic id.
    pub semantics: BTreeMap<u16, CfuSemantics>,
    /// Pipelined latency of each semantic id (from the executing CFU).
    pub sem_latency: BTreeMap<u16, u32>,
    /// One record per replacement.
    pub applied: Vec<AppliedMatch>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum InputKey {
    /// Value produced by an in-block node outside the match.
    Producer(usize),
    /// Value live into the block in this register.
    LiveReg(VReg),
}

/// Tests whether collapsing each node group into a super-node leaves the
/// block's dependence graph acyclic. Individually convex matches can
/// still deadlock *each other* (M1 feeds M2 and M2 feeds M1 through
/// different value pairs), so joint feasibility must be checked when
/// accepting matches.
pub fn supernodes_acyclic(dfg: &Dfg, groups: &[&isax_graph::BitSet]) -> bool {
    let n = dfg.len();
    let mut owner: Vec<Option<usize>> = vec![None; n];
    for (k, g) in groups.iter().enumerate() {
        for v in g.iter() {
            if owner[v].is_some() {
                return false; // overlapping groups are never jointly legal
            }
            owner[v] = Some(k);
        }
    }
    let super_of = |v: usize| owner[v].map(|k| n + k).unwrap_or(v);
    let total = n + groups.len();
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); total];
    let mut indeg = vec![0usize; total];
    for v in 0..n {
        let sv = super_of(v);
        let push = |a: usize, b: usize, succs: &mut Vec<Vec<usize>>, indeg: &mut Vec<usize>| {
            if a != b && !succs[a].contains(&b) {
                succs[a].push(b);
                indeg[b] += 1;
            }
        };
        for &(u, _) in dfg.data_preds(v) {
            push(super_of(u), sv, &mut succs, &mut indeg);
        }
        for &u in dfg.order_preds(v) {
            push(super_of(u), sv, &mut succs, &mut indeg);
        }
        for &u in dfg.anti_preds(v) {
            push(super_of(u), sv, &mut succs, &mut indeg);
        }
    }
    let mut ready: Vec<usize> = (0..total).filter(|&s| indeg[s] == 0).collect();
    let mut seen = 0usize;
    while let Some(s) = ready.pop() {
        seen += 1;
        for &t in &succs[s] {
            indeg[t] -= 1;
            if indeg[t] == 0 {
                ready.push(t);
            }
        }
    }
    seen == total
}

/// Applies a prioritized, non-overlapping match set to a function.
///
/// `dfgs` must be the DFGs of `f` (one per block, same indices as
/// `PatternMatch::block`). `sem_base` is the first semantic id to
/// allocate, letting multi-function programs share one id space.
///
/// # Panics
///
/// Panics if matches overlap, reference out-of-range blocks or CFUs, or
/// are non-convex (callers must use [`crate::prioritize::prioritize`] on
/// matches from [`crate::matching::find_matches`], which guarantee all
/// four).
pub fn apply_matches(
    f: &Function,
    dfgs: &[Dfg],
    accepted: &[PatternMatch],
    mdes: &Mdes,
    sem_base: u16,
) -> CustomizedFunction {
    let mut out = CustomizedFunction {
        function: f.clone(),
        semantics: BTreeMap::new(),
        sem_latency: BTreeMap::new(),
        applied: Vec::new(),
    };
    // Registry for deduplicating identical (cfu, semantics) pairs.
    let mut registry: Vec<(u16, CfuSemantics, u16)> = Vec::new();
    let mut next_sem = sem_base;
    for (bi, dfg) in dfgs.iter().enumerate() {
        let block_matches: Vec<&PatternMatch> = accepted.iter().filter(|m| m.block == bi).collect();
        if block_matches.is_empty() {
            continue;
        }
        let new_block = rebuild_block(
            &f.blocks[bi],
            dfg,
            &block_matches,
            mdes,
            &mut registry,
            &mut next_sem,
            &mut out,
            bi,
        );
        out.function.blocks[bi] = new_block;
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn rebuild_block(
    block: &BasicBlock,
    dfg: &Dfg,
    matches: &[&PatternMatch],
    mdes: &Mdes,
    registry: &mut Vec<(u16, CfuSemantics, u16)>,
    next_sem: &mut u16,
    out: &mut CustomizedFunction,
    block_index: usize,
) -> BasicBlock {
    let n = block.insts.len();
    // owner[v] = Some(match index) when v is absorbed.
    let mut owner: Vec<Option<usize>> = vec![None; n];
    for (k, m) in matches.iter().enumerate() {
        for v in m.nodes.iter() {
            assert!(
                owner[v].is_none(),
                "overlapping matches reached replacement"
            );
            owner[v] = Some(k);
        }
    }
    // Super-node ids: 0..n are instructions (absorbed ones are skipped at
    // emission), n..n+matches are the custom ops.
    let super_of = |v: usize| owner[v].map(|k| n + k).unwrap_or(v);
    let total = n + matches.len();
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); total];
    let mut indeg = vec![0usize; total];
    let mut min_pos: Vec<usize> = (0..total).collect();
    for (k, m) in matches.iter().enumerate() {
        min_pos[n + k] = m.nodes.iter().next().unwrap_or(0);
    }
    let add_edge = |a: usize, b: usize, succs: &mut Vec<Vec<usize>>, indeg: &mut Vec<usize>| {
        if a != b && !succs[a].contains(&b) {
            succs[a].push(b);
            indeg[b] += 1;
        }
    };
    for v in 0..n {
        let sv = super_of(v);
        for &(u, _) in dfg.data_preds(v) {
            add_edge(super_of(u), sv, &mut succs, &mut indeg);
        }
        for &u in dfg.order_preds(v) {
            add_edge(super_of(u), sv, &mut succs, &mut indeg);
        }
        for &u in dfg.anti_preds(v) {
            add_edge(super_of(u), sv, &mut succs, &mut indeg);
        }
    }
    // Stable Kahn over the emittable super-nodes (absorbed instruction
    // slots carry no edges — everything was lifted to their match's
    // super-node). Always emit the ready super-node that appeared
    // earliest in the original block.
    let emittable: Vec<bool> = (0..total).map(|s| s >= n || owner[s].is_none()).collect();
    let mut ready: std::collections::BinaryHeap<std::cmp::Reverse<(usize, usize)>> = (0..total)
        .filter(|&s| emittable[s] && indeg[s] == 0)
        .map(|s| std::cmp::Reverse((min_pos[s], s)))
        .collect();
    let pending = emittable.iter().filter(|&&e| e).count();
    let mut emitted: Vec<usize> = Vec::with_capacity(pending);
    while let Some(std::cmp::Reverse((_, s))) = ready.pop() {
        emitted.push(s);
        for &t in &succs[s] {
            indeg[t] -= 1;
            if indeg[t] == 0 {
                debug_assert!(emittable[t]);
                ready.push(std::cmp::Reverse((min_pos[t], t)));
            }
        }
    }
    assert_eq!(
        emitted.len(),
        pending,
        "cyclic super-node graph: a non-convex match slipped through"
    );
    // Emit instructions.
    let mut insts: Vec<Inst> = Vec::with_capacity(emitted.len());
    for s in emitted {
        if s < n {
            insts.push(block.insts[s].clone());
        } else {
            let m = matches[s - n];
            let (inst, sem, sem_id) = build_custom(m, dfg, registry, next_sem);
            out.semantics.insert(sem_id, sem.clone());
            out.sem_latency
                .insert(sem_id, mdes.cfus[usize::from(m.cfu)].latency);
            out.applied.push(AppliedMatch {
                cfu: m.cfu,
                sem_id,
                block: block_index,
                size: m.nodes.len(),
                via_subsumption: m.via_subsumption,
                savings: m.savings,
            });
            insts.push(inst);
        }
    }
    BasicBlock {
        insts,
        term: block.term.clone(),
        weight: block.weight,
    }
}

/// Builds the custom instruction and its executable semantics from the
/// matched program nodes.
fn build_custom(
    m: &PatternMatch,
    dfg: &Dfg,
    registry: &mut Vec<(u16, CfuSemantics, u16)>,
    next_sem: &mut u16,
) -> (Inst, CfuSemantics, u16) {
    let order: Vec<usize> = m.nodes.iter().collect();
    let pos: HashMap<usize, u16> = order
        .iter()
        .enumerate()
        .map(|(i, &v)| (v, i as u16))
        .collect();
    let mut input_idx: HashMap<InputKey, u8> = HashMap::new();
    let mut srcs: Vec<Operand> = Vec::new();
    let mut ops: Vec<SemOp> = Vec::new();
    for &t in &order {
        let inst = dfg.inst(t);
        let mut sem_srcs = Vec::with_capacity(inst.srcs.len());
        for (port, operand) in inst.srcs.iter().enumerate() {
            let port = port as u8;
            match operand {
                Operand::Imm(v) => sem_srcs.push(SemSrc::Imm(*v)),
                Operand::Reg(r) => {
                    let producer = dfg
                        .data_preds(t)
                        .iter()
                        .find(|&&(_, p)| p == port)
                        .map(|&(u, _)| u);
                    match producer {
                        Some(u) if m.nodes.contains(u) => {
                            sem_srcs.push(SemSrc::Node(pos[&u]));
                        }
                        Some(u) => {
                            let next = input_idx.len() as u8;
                            let idx = *input_idx.entry(InputKey::Producer(u)).or_insert(next);
                            if idx == next {
                                srcs.push(Operand::Reg(*r));
                            }
                            sem_srcs.push(SemSrc::Input(idx));
                        }
                        None => {
                            let next = input_idx.len() as u8;
                            let idx = *input_idx.entry(InputKey::LiveReg(*r)).or_insert(next);
                            if idx == next {
                                srcs.push(Operand::Reg(*r));
                            }
                            sem_srcs.push(SemSrc::Input(idx));
                        }
                    }
                }
            }
        }
        ops.push(SemOp {
            opcode: inst.opcode,
            srcs: sem_srcs,
        });
    }
    // Outputs: values that escape the match.
    let mut outputs: Vec<u16> = Vec::new();
    let mut dsts: Vec<VReg> = Vec::new();
    for &t in &order {
        let escapes =
            dfg.is_block_output(t) || dfg.data_succs(t).iter().any(|&(d, _)| !m.nodes.contains(d));
        if escapes {
            outputs.push(pos[&t]);
            dsts.push(dfg.inst(t).dst().expect("escaping node has a destination"));
        }
    }
    let sem = CfuSemantics {
        ops,
        outputs,
        inputs: input_idx.len() as u8,
    };
    // Deduplicate identical (cfu, semantics) pairs.
    let sem_id = registry
        .iter()
        .find(|(c, s, _)| *c == m.cfu && *s == sem)
        .map(|&(_, _, id)| id)
        .unwrap_or_else(|| {
            let id = *next_sem;
            *next_sem += 1;
            registry.push((m.cfu, sem.clone(), id));
            id
        });
    (Inst::new(Opcode::Custom(sem_id), dsts, srcs), sem, sem_id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::{find_matches, MatchOptions};
    use crate::mdes::CfuSpec;
    use crate::prioritize::prioritize;
    use isax_graph::DiGraph;
    use isax_hwlib::HwLibrary;
    use isax_ir::{function_dfgs, verify_function, DfgLabel, FunctionBuilder};

    fn lab(op: Opcode) -> DfgLabel {
        DfgLabel {
            opcode: op,
            imms: vec![],
        }
    }

    fn mdes_and_add() -> Mdes {
        let mut pattern = DiGraph::new();
        let a = pattern.add_node(lab(Opcode::And));
        let b = pattern.add_node(lab(Opcode::Add));
        pattern.add_edge(a, b, 0);
        Mdes {
            cfus: vec![CfuSpec {
                name: "add-and".into(),
                pattern,
                latency: 1,
                area: 1.12,
                inputs: 3,
                outputs: 1,
                estimated_value: 0,
                subsumed_patterns: vec![],
            }],
            max_inputs: 5,
            max_outputs: 3,
            source_app: "t".into(),
        }
    }

    fn customize(f: &Function, mdes: &Mdes) -> CustomizedFunction {
        let dfgs = function_dfgs(f);
        let hw = HwLibrary::micron_018();
        let matches = find_matches(&dfgs, mdes, &hw, &MatchOptions::exact());
        let accepted = prioritize(matches, &dfgs);
        apply_matches(f, &dfgs, &accepted, mdes, 0)
    }

    #[test]
    fn simple_replacement_shrinks_block() {
        let mut fb = FunctionBuilder::new("f", 3);
        fb.set_entry_weight(10);
        let (a, b, c) = (fb.param(0), fb.param(1), fb.param(2));
        let t = fb.and(a, b);
        let u = fb.add(t, c);
        fb.ret(&[u.into()]);
        let f = fb.finish();
        let cf = customize(&f, &mdes_and_add());
        assert_eq!(cf.applied.len(), 1);
        assert_eq!(cf.function.blocks[0].insts.len(), 1);
        let inst = &cf.function.blocks[0].insts[0];
        assert!(matches!(inst.opcode, Opcode::Custom(0)));
        assert_eq!(inst.srcs.len(), 3, "a, b, c are the inputs");
        assert_eq!(inst.dsts.len(), 1);
        assert!(verify_function(&cf.function).is_ok());
        // Semantics compute (a & b) + c.
        let sem = &cf.semantics[&0];
        assert_eq!(sem.eval(&[0xF0, 0x3C, 5]), vec![(0xF0u32 & 0x3C) + 5]);
    }

    #[test]
    fn shared_input_register_is_deduplicated() {
        // (a & b) + b : b feeds two ports but is one input.
        let mut fb = FunctionBuilder::new("f", 2);
        fb.set_entry_weight(10);
        let (a, b) = (fb.param(0), fb.param(1));
        let t = fb.and(a, b);
        let u = fb.add(t, b);
        fb.ret(&[u.into()]);
        let f = fb.finish();
        let cf = customize(&f, &mdes_and_add());
        let inst = &cf.function.blocks[0].insts[0];
        assert_eq!(inst.srcs.len(), 2);
        let sem = &cf.semantics[&0];
        assert_eq!(sem.eval(&[0xFF, 3]), vec![(0xFFu32 & 3) + 3]);
    }

    #[test]
    fn reordering_moves_interleaved_successor() {
        // Program order: and; xor (reads and); add — the match {and, add}
        // spans the xor. The xor only depends on the and, so it may stay
        // anywhere after the custom op... actually it must come *after*
        // (it reads the and's value, an output of the custom op).
        let mut fb = FunctionBuilder::new("f", 3);
        fb.set_entry_weight(10);
        let (a, b, c) = (fb.param(0), fb.param(1), fb.param(2));
        let t = fb.and(a, b); // 0: in match
        let x = fb.xor(t, c); // 1: external successor of 0
        let u = fb.add(t, c); // 2: in match
        let z = fb.or(x, u); // 3
        fb.ret(&[z.into()]);
        let f = fb.finish();
        let cf = customize(&f, &mdes_and_add());
        assert_eq!(cf.applied.len(), 1);
        let block = &cf.function.blocks[0];
        assert_eq!(block.insts.len(), 3);
        assert!(matches!(block.insts[0].opcode, Opcode::Custom(_)));
        assert_eq!(block.insts[1].opcode, Opcode::Xor);
        assert_eq!(block.insts[2].opcode, Opcode::Or);
        // The custom op now has two outputs: the and's value (read by
        // the xor) and the add's value.
        assert_eq!(block.insts[0].dsts.len(), 2);
        assert!(verify_function(&cf.function).is_ok());
    }

    #[test]
    fn identical_replacements_share_a_semantic_id() {
        let mut fb = FunctionBuilder::new("f", 3);
        fb.set_entry_weight(10);
        let (a, b, c) = (fb.param(0), fb.param(1), fb.param(2));
        let t1 = fb.and(a, b);
        let u1 = fb.add(t1, c);
        let t2 = fb.and(u1, b);
        let u2 = fb.add(t2, c);
        fb.ret(&[u2.into()]);
        let f = fb.finish();
        let cf = customize(&f, &mdes_and_add());
        assert_eq!(cf.applied.len(), 2);
        assert_eq!(cf.applied[0].sem_id, cf.applied[1].sem_id);
        assert_eq!(cf.semantics.len(), 1);
    }

    #[test]
    fn latency_is_recorded_per_semantic_id() {
        let mut fb = FunctionBuilder::new("f", 3);
        fb.set_entry_weight(1);
        let (a, b, c) = (fb.param(0), fb.param(1), fb.param(2));
        let t = fb.and(a, b);
        let u = fb.add(t, c);
        fb.ret(&[u.into()]);
        let cf = customize(&fb.finish(), &mdes_and_add());
        assert_eq!(cf.sem_latency[&0], 1);
    }

    #[test]
    fn unmatched_blocks_are_untouched() {
        let mut fb = FunctionBuilder::new("f", 2);
        let (a, b) = (fb.param(0), fb.param(1));
        let other = fb.new_block(5);
        let t = fb.and(a, b);
        let u = fb.add(t, b);
        fb.jump(other);
        fb.switch_to(other);
        let v = fb.mul(u, b); // no and->add here
        fb.ret(&[v.into()]);
        let f = fb.finish();
        let cf = customize(&f, &mdes_and_add());
        assert_eq!(cf.function.blocks[1], f.blocks[1]);
        assert_eq!(cf.applied.len(), 1);
    }
}
