//! Per-block dataflow graphs with dependence analysis.
//!
//! The customization pipeline is organized around the dataflow graph of
//! each basic block: the explorer grows candidate subgraphs over its data
//! edges, the guide function consults its slack analysis, the compiler
//! matches CFU patterns against it, and the scheduler honours both its data
//! and its ordering (memory) edges.
//!
//! Nodes are instruction indices within the block. Edges come in two
//! flavours:
//!
//! * **data** edges carry a value from a producer to a consumer's operand
//!   port — these define candidate subgraphs;
//! * **ordering** edges serialize memory operations conservatively
//!   (store→load, store→store, load→store) — these constrain scheduling and
//!   replacement but never join a custom function unit.

use crate::block::BasicBlock;
use crate::inst::{Inst, VReg};
use isax_graph::{BitSet, DiGraph};
use std::collections::{BTreeMap, BTreeSet};

/// Structural label of a DFG node used for pattern matching: the opcode
/// plus any hardwired immediates.
///
/// Two nodes are match-compatible when their opcodes agree (or their
/// classes agree, in wildcard mode) and their immediate operands agree —
/// constants are baked into the function unit's wiring, so `x << 2` only
/// matches hardware built for a shift of 2 (unless the matcher is asked to
/// generalize constants).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DfgLabel {
    /// The operation.
    pub opcode: crate::Opcode,
    /// Hardwired immediates as `(port, value)`, sorted by port.
    pub imms: Vec<(u8, i64)>,
}

impl DfgLabel {
    /// Deterministic hash of the exact label (opcode + immediates), for
    /// use with [`isax_graph::canon::fingerprint`].
    pub fn key(&self) -> u64 {
        use std::fmt::Write as _;
        let mut h = isax_graph::canon::StrHasher::new();
        let _ = h.write_str(self.opcode.mnemonic());
        if let crate::Opcode::Custom(id) = self.opcode {
            let _ = write!(h, "{id}");
        }
        for (p, v) in &self.imms {
            let _ = write!(h, "#{p}:{v}");
        }
        h.finish()
    }

    /// Exact compatibility: same opcode and same hardwired immediates.
    pub fn matches_exact(&self, other: &DfgLabel) -> bool {
        self == other
    }

    /// Wildcard (opcode-class) compatibility: same class, immediates on
    /// the same ports (their values are generalized away — a barrel
    /// shifter covers every constant amount).
    pub fn matches_class(&self, other: &DfgLabel) -> bool {
        self.opcode.class() == other.opcode.class()
            && self.imms.len() == other.imms.len()
            && self
                .imms
                .iter()
                .zip(other.imms.iter())
                .all(|(a, b)| a.0 == b.0)
    }
}

/// The dataflow graph of one basic block.
///
/// # Example
///
/// ```
/// use isax_ir::{Dfg, FunctionBuilder};
///
/// let mut fb = FunctionBuilder::new("f", 2);
/// let a = fb.param(0);
/// let b = fb.param(1);
/// let t = fb.xor(a, b);
/// let u = fb.shl(t, 3i64);
/// fb.ret(&[u.into()]);
/// let f = fb.finish();
///
/// let dfg = Dfg::build(&f.blocks[0], &Default::default());
/// assert_eq!(dfg.len(), 2);
/// assert_eq!(dfg.data_succs(0), &[(1, 0)]); // xor feeds port 0 of shl
/// assert!(dfg.is_block_output(1));          // shl result is returned
/// ```
#[derive(Debug, Clone)]
pub struct Dfg {
    insts: Vec<Inst>,
    weight: u64,
    /// `(src, port)` per node: data predecessors.
    data_preds: Vec<Vec<(usize, u8)>>,
    /// `(dst, port-at-dst)` per node: data successors.
    data_succs: Vec<Vec<(usize, u8)>>,
    /// Ordering predecessors (memory serialization).
    order_preds: Vec<Vec<usize>>,
    /// Ordering successors.
    order_succs: Vec<Vec<usize>>,
    /// Anti/output-dependence predecessors (register reuse: a later
    /// definition must not move above earlier readers or definitions of
    /// the same register). Zero-latency scheduling constraints.
    anti_preds: Vec<Vec<usize>>,
    /// Anti/output-dependence successors.
    anti_succs: Vec<Vec<usize>>,
    /// `(port, reg)` operands read from outside the block.
    ext_inputs: Vec<Vec<(u8, VReg)>>,
    /// Node produces a value consumed after the block (live-out last def,
    /// or used by the terminator).
    block_output: Vec<bool>,
    /// Effective operation width of each node in bits, from the
    /// value-range/known-bits analysis ([`crate::dataflow`]). Defaults to
    /// full 32-bit width; only the width-aware costing mode attaches
    /// narrower values, so default-mode cost queries are untouched.
    widths: Vec<u8>,
}

impl Dfg {
    /// Builds the DFG of `block`. `live_out` is the block's live-out
    /// register set (from [`crate::Function::liveness`]); pass an empty set
    /// for single-block functions whose only consumer is the terminator.
    pub fn build(block: &BasicBlock, live_out: &BTreeSet<VReg>) -> Dfg {
        let n = block.insts.len();
        let mut dfg = Dfg {
            insts: block.insts.clone(),
            weight: block.weight,
            data_preds: vec![Vec::new(); n],
            data_succs: vec![Vec::new(); n],
            order_preds: vec![Vec::new(); n],
            order_succs: vec![Vec::new(); n],
            anti_preds: vec![Vec::new(); n],
            anti_succs: vec![Vec::new(); n],
            ext_inputs: vec![Vec::new(); n],
            block_output: vec![false; n],
            widths: vec![32; n],
        };
        // Data edges: last in-block definition reaches each use.
        let mut last_def: BTreeMap<VReg, usize> = BTreeMap::new();
        // Readers of the current definition of each register (for anti
        // dependences; the IR is not SSA).
        let mut readers: BTreeMap<VReg, Vec<usize>> = BTreeMap::new();
        // Memory ordering state.
        let mut last_store: Option<usize> = None;
        let mut loads_since_store: Vec<usize> = Vec::new();
        for (v, inst) in block.insts.iter().enumerate() {
            for (port, r) in inst.reg_srcs() {
                match last_def.get(&r) {
                    Some(&u) => {
                        dfg.data_preds[v].push((u, port));
                        dfg.data_succs[u].push((v, port));
                    }
                    None => dfg.ext_inputs[v].push((port, r)),
                }
                readers.entry(r).or_default().push(v);
            }
            if inst.opcode.is_load() {
                if let Some(s) = last_store {
                    dfg.add_order_edge(s, v);
                }
                loads_since_store.push(v);
            } else if inst.opcode.is_store() {
                if let Some(s) = last_store {
                    dfg.add_order_edge(s, v);
                }
                for &l in &loads_since_store {
                    dfg.add_order_edge(l, v);
                }
                loads_since_store.clear();
                last_store = Some(v);
            }
            for &d in &inst.dsts {
                // Anti dependences: earlier readers of d's current value
                // must stay above this redefinition; output dependence on
                // the previous definition.
                for &x in readers.get(&d).map(Vec::as_slice).unwrap_or(&[]) {
                    if x != v {
                        dfg.add_anti_edge(x, v);
                    }
                }
                readers.insert(d, Vec::new());
                if let Some(&u) = last_def.get(&d) {
                    if u != v {
                        dfg.add_anti_edge(u, v);
                    }
                }
                last_def.insert(d, v);
            }
        }
        // Block outputs: last defs of live-out registers and of registers
        // the terminator reads.
        let mut outputs: BTreeSet<VReg> = live_out.clone();
        outputs.extend(block.term.uses());
        for r in outputs {
            if let Some(&v) = last_def.get(&r) {
                dfg.block_output[v] = true;
            }
        }
        dfg
    }

    fn add_order_edge(&mut self, from: usize, to: usize) {
        self.order_succs[from].push(to);
        self.order_preds[to].push(from);
    }

    fn add_anti_edge(&mut self, from: usize, to: usize) {
        self.anti_succs[from].push(to);
        self.anti_preds[to].push(from);
    }

    /// Number of nodes (instructions) in the block.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// True if the block has no instructions.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Profile weight of the underlying block.
    pub fn weight(&self) -> u64 {
        self.weight
    }

    /// The instruction at node `v`.
    pub fn inst(&self, v: usize) -> &Inst {
        &self.insts[v]
    }

    /// Data predecessors `(src, port)` of `v`.
    pub fn data_preds(&self, v: usize) -> &[(usize, u8)] {
        &self.data_preds[v]
    }

    /// Data successors `(dst, port-at-dst)` of `v`.
    pub fn data_succs(&self, v: usize) -> &[(usize, u8)] {
        &self.data_succs[v]
    }

    /// Ordering predecessors of `v`.
    pub fn order_preds(&self, v: usize) -> &[usize] {
        &self.order_preds[v]
    }

    /// Ordering successors of `v`.
    pub fn order_succs(&self, v: usize) -> &[usize] {
        &self.order_succs[v]
    }

    /// Anti/output-dependence predecessors of `v` (must issue no later
    /// than `v`).
    pub fn anti_preds(&self, v: usize) -> &[usize] {
        &self.anti_preds[v]
    }

    /// Anti/output-dependence successors of `v`.
    pub fn anti_succs(&self, v: usize) -> &[usize] {
        &self.anti_succs[v]
    }

    /// Register operands of `v` read from outside the block.
    pub fn ext_inputs(&self, v: usize) -> &[(u8, VReg)] {
        &self.ext_inputs[v]
    }

    /// True if `v`'s value is consumed after the block ends.
    pub fn is_block_output(&self, v: usize) -> bool {
        self.block_output[v]
    }

    /// Effective operation width of node `v` in bits (32 unless the
    /// width-aware analysis attached narrower inferences).
    pub fn width(&self, v: usize) -> u8 {
        self.widths[v]
    }

    /// Attaches per-node effective widths from the dataflow analysis.
    /// `widths[i]` corresponds to instruction `i` of the block.
    ///
    /// # Panics
    ///
    /// Panics if the slice length does not match the node count.
    pub fn set_widths(&mut self, widths: &[u8]) {
        assert_eq!(widths.len(), self.insts.len(), "one width per node");
        self.widths.copy_from_slice(widths);
    }

    /// The structural label of node `v` (opcode + hardwired immediates).
    pub fn label(&self, v: usize) -> DfgLabel {
        let inst = &self.insts[v];
        let mut imms: Vec<(u8, i64)> = inst.imm_srcs().collect();
        imms.sort_unstable();
        DfgLabel {
            opcode: inst.opcode,
            imms,
        }
    }

    /// Number of distinct register **input ports** a hardware
    /// implementation of `nodes` would need: distinct external registers
    /// plus distinct internal producers outside the set. Immediates are
    /// hardwired and cost nothing.
    pub fn input_count(&self, nodes: &BitSet) -> usize {
        let mut ext_regs: BTreeSet<VReg> = BTreeSet::new();
        let mut ext_nodes: BTreeSet<usize> = BTreeSet::new();
        for v in nodes.iter() {
            for &(port, r) in &self.ext_inputs[v] {
                let _ = port;
                ext_regs.insert(r);
            }
            for &(u, _) in &self.data_preds[v] {
                if !nodes.contains(u) {
                    ext_nodes.insert(u);
                }
            }
        }
        ext_regs.len() + ext_nodes.len()
    }

    /// Number of distinct register **output ports** needed: nodes in the
    /// set whose value escapes (a data successor outside the set, or a
    /// consumer after the block).
    pub fn output_count(&self, nodes: &BitSet) -> usize {
        nodes
            .iter()
            .filter(|&v| {
                self.block_output[v] || self.data_succs[v].iter().any(|&(d, _)| !nodes.contains(d))
            })
            .count()
    }

    /// Undirected data-edge neighbours of the node set (candidate growth
    /// directions), excluding members of the set itself.
    pub fn neighbours(&self, nodes: &BitSet) -> Vec<usize> {
        let mut out: BTreeSet<usize> = BTreeSet::new();
        for v in nodes.iter() {
            for &(u, _) in &self.data_preds[v] {
                if !nodes.contains(u) {
                    out.insert(u);
                }
            }
            for &(d, _) in &self.data_succs[v] {
                if !nodes.contains(d) {
                    out.insert(d);
                }
            }
        }
        out.into_iter().collect()
    }

    /// Dependence-length analysis used by the guide function's criticality
    /// category. `lat` supplies the baseline latency of each instruction.
    ///
    /// Both data and ordering edges participate: an operation pinned behind
    /// a store is not free to move even though no value flows.
    pub fn schedule_info(&self, lat: impl Fn(&Inst) -> u32) -> SlackInfo {
        let n = self.insts.len();
        let lats: Vec<u32> = self.insts.iter().map(lat).collect();
        let mut asap = vec![0u32; n];
        // Program order is a topological order: all edges point forward.
        for v in 0..n {
            let mut t = 0;
            for &(u, _) in &self.data_preds[v] {
                t = t.max(asap[u] + lats[u]);
            }
            for &u in &self.order_preds[v] {
                t = t.max(asap[u] + lats[u]);
            }
            for &u in &self.anti_preds[v] {
                t = t.max(asap[u]); // same-cycle issue is legal
            }
            asap[v] = t;
        }
        let length = (0..n).map(|v| asap[v] + lats[v]).max().unwrap_or(0);
        let mut alap = vec![0u32; n];
        for v in (0..n).rev() {
            let mut t = length;
            for &(d, _) in &self.data_succs[v] {
                t = t.min(alap[d]);
            }
            for &d in &self.order_succs[v] {
                t = t.min(alap[d]);
            }
            for &d in &self.anti_succs[v] {
                t = t.min(alap[d] + lats[v]); // may issue the same cycle
            }
            alap[v] = t - lats[v];
        }
        let slack = (0..n).map(|v| alap[v] - asap[v]).collect();
        SlackInfo {
            asap,
            alap,
            slack,
            length,
        }
    }

    /// True if replacing `nodes` by a single operation is legal: the set
    /// must be **convex** — no dependence path (data or ordering) from a
    /// member through a non-member back into a member. Non-convex sets
    /// would force the custom instruction to issue both before and after
    /// the external operation.
    pub fn is_convex(&self, nodes: &BitSet) -> bool {
        // Forward reachability from the set's external successors: if any
        // external node reachable from the set reaches back in, reject.
        let n = self.insts.len();
        let mut reaches_from_set = vec![false; n];
        // Process in program order (topological).
        for v in 0..n {
            if nodes.contains(v) {
                continue;
            }
            let mut hit = false;
            for &(u, _) in &self.data_preds[v] {
                if nodes.contains(u) || reaches_from_set[u] {
                    hit = true;
                    break;
                }
            }
            if !hit {
                for &u in self.order_preds[v].iter().chain(&self.anti_preds[v]) {
                    if nodes.contains(u) || reaches_from_set[u] {
                        hit = true;
                        break;
                    }
                }
            }
            reaches_from_set[v] = hit;
        }
        for v in nodes.iter() {
            for &(u, _) in &self.data_preds[v] {
                if !nodes.contains(u) && reaches_from_set[u] {
                    return false;
                }
            }
            for &u in self.order_preds[v].iter().chain(&self.anti_preds[v]) {
                if !nodes.contains(u) && reaches_from_set[u] {
                    return false;
                }
            }
        }
        true
    }

    /// Renders the DFG in Graphviz DOT syntax for inspection: data edges
    /// solid (labelled with the destination port), memory-ordering edges
    /// dashed, anti/output dependences dotted.
    ///
    /// ```sh
    /// dot -Tpng block.dot -o block.png
    /// ```
    pub fn to_dot(&self, name: &str) -> String {
        let mut out = format!("digraph {name} {{\n");
        out.push_str("  node [shape=box, fontname=\"monospace\"];\n");
        for v in 0..self.insts.len() {
            out.push_str(&format!("  n{v} [label=\"{v}: {}\"];\n", self.insts[v]));
        }
        for (v, preds) in self.data_preds.iter().enumerate() {
            for &(u, port) in preds {
                out.push_str(&format!("  n{u} -> n{v} [label=\"{port}\"];\n"));
            }
        }
        for (v, preds) in self.order_preds.iter().enumerate() {
            for &u in preds {
                out.push_str(&format!("  n{u} -> n{v} [style=dashed, color=red];\n"));
            }
        }
        for (v, preds) in self.anti_preds.iter().enumerate() {
            for &u in preds {
                out.push_str(&format!("  n{u} -> n{v} [style=dotted, color=gray];\n"));
            }
        }
        out.push_str("}\n");
        out
    }

    /// Exports the data-edge graph for pattern matching: node `i` of the
    /// result is node `i` of the DFG, labelled with opcode and hardwired
    /// immediates.
    pub fn to_digraph(&self) -> DiGraph<DfgLabel> {
        let mut g = DiGraph::with_capacity(self.insts.len());
        for v in 0..self.insts.len() {
            g.add_node(self.label(v));
        }
        for (v, preds) in self.data_preds.iter().enumerate() {
            for &(u, port) in preds {
                g.add_edge(
                    isax_graph::NodeId(u as u32),
                    isax_graph::NodeId(v as u32),
                    port,
                );
            }
        }
        g
    }
}

/// Result of [`Dfg::schedule_info`]: dependence-based timing bounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlackInfo {
    /// Earliest start cycle of each node.
    pub asap: Vec<u32>,
    /// Latest start cycle of each node without lengthening the block.
    pub alap: Vec<u32>,
    /// `alap - asap`: how many cycles a node can slip. Zero means the node
    /// is on the critical path.
    pub slack: Vec<u32>,
    /// Dependence height of the block (cycles, unbounded resources).
    pub length: u32,
}

/// Builds the DFGs of every block of a function, wiring in liveness.
pub fn function_dfgs(f: &crate::Function) -> Vec<Dfg> {
    let lv = f.liveness();
    f.blocks
        .iter()
        .enumerate()
        .map(|(bi, b)| Dfg::build(b, &lv.live_out[bi]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::opcode::Opcode;

    fn unit_lat(_: &Inst) -> u32 {
        1
    }

    /// The running example: t = a ^ b; u = t << 3; w = t >> 29; r = u | w;
    /// plus an off-path add.
    fn example() -> Dfg {
        let mut fb = FunctionBuilder::new("f", 2);
        let a = fb.param(0);
        let b = fb.param(1);
        let t = fb.xor(a, b); // 0
        let u = fb.shl(t, 3i64); // 1
        let w = fb.shr(t, 29i64); // 2
        let r = fb.or(u, w); // 3
        let s = fb.add(a, 1i64); // 4 (off the critical path)
        let q = fb.xor(r, s); // 5
        fb.ret(&[q.into()]);
        let f = fb.finish();
        function_dfgs(&f).remove(0)
    }

    #[test]
    fn data_edges_follow_last_def() {
        let d = example();
        assert_eq!(d.data_preds(3), &[(1, 0), (2, 1)]);
        assert_eq!(d.data_succs(0).len(), 2);
        assert!(d.ext_inputs(0).len() == 2, "xor reads two params");
    }

    #[test]
    fn redefinition_splits_values() {
        let mut fb = FunctionBuilder::new("f", 1);
        let x = fb.param(0);
        let t = fb.add(x, 1i64); // node 0 defines t
        fb.copy_to(t, x); // node 1 redefines t
        let u = fb.add(t, 2i64); // node 2 must read node 1's def
        fb.ret(&[u.into()]);
        let f = fb.finish();
        let d = function_dfgs(&f).remove(0);
        assert_eq!(d.data_preds(2), &[(1, 0)]);
        assert!(d.data_succs(0).is_empty(), "old value is dead");
    }

    #[test]
    fn memory_ordering_edges() {
        let mut fb = FunctionBuilder::new("f", 2);
        let p = fb.param(0);
        let q = fb.param(1);
        let v0 = fb.ldw(p); // 0: load
        fb.stw(q, v0); // 1: store (after load)
        let v1 = fb.ldw(p); // 2: load (after store)
        fb.stw(q, v1); // 3: store (after load 2 and store 1)
        fb.ret(&[]);
        let f = fb.finish();
        let d = function_dfgs(&f).remove(0);
        assert_eq!(d.order_preds(1), &[0], "load -> store");
        assert_eq!(d.order_preds(2), &[1], "store -> load");
        assert_eq!(
            d.order_preds(3),
            &[1, 2],
            "store -> store and load -> store"
        );
    }

    #[test]
    fn block_outputs_from_liveness_and_terminator() {
        let mut fb = FunctionBuilder::new("f", 1);
        let x = fb.param(0);
        let next = fb.new_block(5);
        let t = fb.add(x, 1i64); // 0: live across blocks
        let c = fb.ne(t, 0i64); // 1: used by terminator
        fb.branch(c, next, next);
        fb.switch_to(next);
        let r = fb.add(t, 2i64);
        fb.ret(&[r.into()]);
        let f = fb.finish();
        let dfgs = function_dfgs(&f);
        assert!(dfgs[0].is_block_output(0), "t is live-out");
        assert!(dfgs[0].is_block_output(1), "branch condition");
        assert!(dfgs[1].is_block_output(0), "return value");
    }

    #[test]
    fn io_counts_for_subgraphs() {
        let d = example();
        // Subgraph {1, 2, 3}: inputs = node 0 (one producer), outputs = node 3.
        let s: BitSet = [1usize, 2, 3].into_iter().collect();
        assert_eq!(d.input_count(&s), 1);
        assert_eq!(d.output_count(&s), 1);
        // Subgraph {0, 1}: inputs = a, b (two regs); outputs = xor (feeds 2)
        // and shl (feeds 3) = 2.
        let s: BitSet = [0usize, 1].into_iter().collect();
        assert_eq!(d.input_count(&s), 2);
        assert_eq!(d.output_count(&s), 2);
        // Whole graph: inputs a, b; output q only.
        let s: BitSet = (0usize..6).collect();
        assert_eq!(d.input_count(&s), 2);
        assert_eq!(d.output_count(&s), 1);
    }

    #[test]
    fn slack_identifies_critical_path() {
        let d = example();
        let info = d.schedule_info(unit_lat);
        // Critical path: xor -> shl/shr -> or -> xor = length 4.
        assert_eq!(info.length, 4);
        assert_eq!(info.slack[0], 0);
        assert_eq!(info.slack[3], 0);
        assert_eq!(info.slack[5], 0);
        // The add (node 4) can slip: slack 2.
        assert_eq!(info.slack[4], 2);
    }

    #[test]
    fn convexity() {
        let d = example();
        // {0, 3} is not convex: 0 -> 1 -> 3 passes through external node 1.
        let bad: BitSet = [0usize, 3].into_iter().collect();
        assert!(!d.is_convex(&bad));
        // {0, 1, 2, 3} is convex.
        let good: BitSet = [0usize, 1, 2, 3].into_iter().collect();
        assert!(d.is_convex(&good));
        // Singletons are convex.
        let single: BitSet = [4usize].into_iter().collect();
        assert!(d.is_convex(&single));
    }

    #[test]
    fn neighbours_are_data_adjacent() {
        let d = example();
        let s: BitSet = [1usize].into_iter().collect();
        assert_eq!(d.neighbours(&s), vec![0, 3]);
    }

    #[test]
    fn to_digraph_roundtrip() {
        let d = example();
        let g = d.to_digraph();
        assert_eq!(g.node_count(), 6);
        assert_eq!(
            g.edge_count(),
            (0..6).map(|v| d.data_preds(v).len()).sum::<usize>()
        );
        assert_eq!(g[isax_graph::NodeId(0)].opcode, Opcode::Xor);
        assert_eq!(g[isax_graph::NodeId(1)].imms, vec![(1, 3)]);
    }

    #[test]
    fn anti_dependences_track_register_reuse() {
        let mut fb = FunctionBuilder::new("f", 2);
        let x = fb.param(0);
        let y = fb.param(1);
        let t = fb.add(x, y); // 0: defines t
        let _u = fb.shl(t, 1i64); // 1: reads t
        fb.copy_to(t, y); // 2: redefines t -> anti from 1, output from 0
        let _w = fb.xor(t, x); // 3: reads new t
        fb.ret(&[]);
        let d = function_dfgs(&fb.finish()).remove(0);
        assert!(
            d.anti_preds(2).contains(&1),
            "reader must precede redefinition"
        );
        assert!(
            d.anti_preds(2).contains(&0),
            "output dependence on earlier def"
        );
        assert!(d.anti_preds(3).is_empty());
        // Convexity must respect anti edges: {0, 3} has a path 0 ~> 2 -> 3
        // through the external redefinition.
        let s: BitSet = [0usize, 3].into_iter().collect();
        assert!(!d.is_convex(&s));
    }

    #[test]
    fn live_in_reader_constrains_first_def() {
        let mut fb = FunctionBuilder::new("f", 1);
        let x = fb.param(0);
        let _r = fb.add(x, 1i64); // 0: reads live-in x
        fb.copy_to(x, 7i64); // 1: first in-block def of x
        fb.ret(&[x.into()]);
        let d = function_dfgs(&fb.finish()).remove(0);
        assert!(d.anti_preds(1).contains(&0));
    }

    #[test]
    fn dot_export_styles_edge_kinds() {
        let mut fb = FunctionBuilder::new("f", 2);
        let p = fb.param(0);
        let q = fb.param(1);
        let v = fb.ldw(p); // 0
        fb.stw(q, v); // 1: order edge 0 -> 1
        fb.copy_to(v, q); // 2: anti edge 1? no — output dep 0 -> 2, anti 1 -> 2
        fb.ret(&[]);
        let d = function_dfgs(&fb.finish()).remove(0);
        let dot = d.to_dot("blk");
        assert!(dot.contains("digraph blk"));
        assert!(dot.contains("style=dashed"), "memory ordering edge shown");
        assert!(dot.contains("style=dotted"), "anti edge shown");
        assert!(dot.contains("ldw"));
    }

    #[test]
    fn store_is_never_a_block_output() {
        let mut fb = FunctionBuilder::new("f", 2);
        let p = fb.param(0);
        let v = fb.param(1);
        fb.stw(p, v);
        fb.ret(&[]);
        let f = fb.finish();
        let d = function_dfgs(&f).remove(0);
        assert!(!d.is_block_output(0));
        let s: BitSet = [0usize].into_iter().collect();
        assert_eq!(d.output_count(&s), 0);
        assert_eq!(d.input_count(&s), 2);
    }
}
