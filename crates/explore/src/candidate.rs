//! Candidate subgraphs and exploration results.

use isax_graph::{BitSet, DiGraph};
use isax_hwlib::HwLibrary;
use isax_ir::{Dfg, DfgLabel};

/// A candidate subgraph discovered in one dataflow graph, annotated with
/// the hardware-library estimates the later stages need.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Index of the DFG (block) this candidate lives in, in the order the
    /// caller supplied the DFGs.
    pub dfg: usize,
    /// The instruction indices forming the subgraph.
    pub nodes: BitSet,
    /// Critical-path delay through the subgraph, in cycle fractions.
    pub delay: f64,
    /// Summed area, in adder units.
    pub area: f64,
    /// Register input ports required.
    pub inputs: usize,
    /// Register output ports required.
    pub outputs: usize,
}

impl Candidate {
    /// Builds the candidate's pattern graph: nodes in ascending
    /// instruction order, data edges only, labelled with opcode and
    /// hardwired immediates.
    pub fn pattern(&self, dfg: &Dfg) -> DiGraph<DfgLabel> {
        extract_pattern(dfg, &self.nodes)
    }

    /// Software-side cycle estimate for one execution of the subgraph:
    /// the non-memory operations issue one per cycle through the single
    /// integer slot, so their baseline latencies sum. Loads (present only
    /// under the §6 memory relaxation) contribute **nothing**: in the
    /// baseline they occupy the parallel memory slot, and a load-bearing
    /// unit still reserves that port for the same number of cycles — the
    /// port balance is neutral, so counting load latency as savings would
    /// systematically overvalue memory units (measured: it costs blowfish
    /// a third of its speedup).
    pub fn sw_cycles(&self, dfg: &Dfg, hw: &HwLibrary) -> u32 {
        self.nodes
            .iter()
            .map(|v| {
                let inst = dfg.inst(v);
                if inst.opcode.is_load() {
                    0
                } else {
                    hw.sw_latency_of(inst)
                }
            })
            .sum()
    }

    /// Hardware cycles when implemented as a pipelined CFU.
    pub fn hw_cycles(&self, hw: &HwLibrary) -> u32 {
        hw.cfu_cycles(self.delay)
    }
}

/// Builds the pattern graph of an arbitrary node set.
pub fn extract_pattern(dfg: &Dfg, nodes: &BitSet) -> DiGraph<DfgLabel> {
    let order: Vec<usize> = nodes.iter().collect();
    let mut g = DiGraph::with_capacity(order.len());
    for &v in &order {
        g.add_node(dfg.label(v));
    }
    let pos = |v: usize| order.iter().position(|&x| x == v).map(|i| i as u32);
    for &v in &order {
        for &(u, port) in dfg.data_preds(v) {
            if let (Some(su), Some(sv)) = (pos(u), pos(v)) {
                g.add_edge(isax_graph::NodeId(su), isax_graph::NodeId(sv), port);
            }
        }
    }
    g
}

/// Counters reported by an exploration run; the raw material of Figure 3.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExploreStats {
    /// Distinct candidate subgraphs examined (the y-axis of Figure 3).
    pub examined: u64,
    /// Candidates recorded as viable CFUs (within I/O and area limits,
    /// convex).
    pub recorded: u64,
    /// `examined_by_size[k]` = candidates of `k` nodes examined.
    pub examined_by_size: Vec<u64>,
    /// Growth directions rejected by the guide function.
    pub directions_pruned: u64,
    /// Provenance events whose shape already had its canonical
    /// fingerprint from an event of the other kind: shapes given both a
    /// `Discovered` and a `Pruned` event. 0 with provenance off.
    pub memo_hits: u64,
    /// Shapes whose pattern was extracted and fingerprinted, at their
    /// first provenance event: one per distinct shape given an event.
    /// 0 with provenance off.
    pub memo_misses: u64,
    /// True if the search hit its examination budget and stopped early.
    pub truncated: bool,
}

impl ExploreStats {
    pub(crate) fn note_examined(&mut self, size: usize) {
        self.examined += 1;
        if self.examined_by_size.len() <= size {
            self.examined_by_size.resize(size + 1, 0);
        }
        self.examined_by_size[size] += 1;
    }

    /// Merges another run's counters into this one (used to aggregate over
    /// the blocks of a program).
    pub fn merge(&mut self, other: &ExploreStats) {
        self.examined += other.examined;
        self.recorded += other.recorded;
        self.directions_pruned += other.directions_pruned;
        self.memo_hits += other.memo_hits;
        self.memo_misses += other.memo_misses;
        self.truncated |= other.truncated;
        if self.examined_by_size.len() < other.examined_by_size.len() {
            self.examined_by_size
                .resize(other.examined_by_size.len(), 0);
        }
        for (i, &v) in other.examined_by_size.iter().enumerate() {
            self.examined_by_size[i] += v;
        }
    }
}

/// Everything an exploration run produces.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExploreResult {
    /// The viable candidates, deduplicated by node set.
    pub candidates: Vec<Candidate>,
    /// Search statistics.
    pub stats: ExploreStats,
    /// Provenance events (`Discovered`/`Pruned`), non-empty only when
    /// [`isax_prov::enabled`] was set during the walk. Merged at join
    /// points in input order, like the stats.
    pub prov: isax_prov::ProvLog,
}

impl ExploreResult {
    /// Merges another result (e.g. from the next block) into this one.
    pub fn merge(&mut self, mut other: ExploreResult) {
        self.candidates.append(&mut other.candidates);
        self.stats.merge(&other.stats);
        self.prov.merge(other.prov);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isax_ir::{function_dfgs, FunctionBuilder, Opcode};

    fn sample_dfg() -> Dfg {
        let mut fb = FunctionBuilder::new("f", 2);
        let a = fb.param(0);
        let b = fb.param(1);
        let t = fb.xor(a, b); // 0
        let u = fb.shl(t, 3i64); // 1
        let v = fb.add(u, b); // 2
        fb.ret(&[v.into()]);
        function_dfgs(&fb.finish()).remove(0)
    }

    #[test]
    fn pattern_extraction_preserves_ports_and_imms() {
        let dfg = sample_dfg();
        let nodes: BitSet = [0usize, 1, 2].into_iter().collect();
        let g = extract_pattern(&dfg, &nodes);
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g[isax_graph::NodeId(1)].opcode, Opcode::Shl);
        assert_eq!(g[isax_graph::NodeId(1)].imms, vec![(1, 3)]);
        assert!(g.has_edge_on_port(isax_graph::NodeId(1), isax_graph::NodeId(2), 0));
    }

    #[test]
    fn sw_and_hw_cycles() {
        let dfg = sample_dfg();
        let hw = HwLibrary::micron_018();
        let nodes: BitSet = [0usize, 1, 2].into_iter().collect();
        let g = extract_pattern(&dfg, &nodes);
        let c = Candidate {
            dfg: 0,
            delay: hw.subgraph_delay(&g).unwrap(),
            area: hw.subgraph_area(&g).unwrap(),
            inputs: dfg.input_count(&nodes),
            outputs: dfg.output_count(&nodes),
            nodes,
        };
        assert_eq!(c.sw_cycles(&dfg, &hw), 3);
        assert_eq!(c.hw_cycles(&hw), 1, "xor+wire-shift+add fits in a cycle");
        assert_eq!(c.inputs, 2);
        assert_eq!(c.outputs, 1);
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = ExploreStats::default();
        a.note_examined(1);
        a.note_examined(2);
        let mut b = ExploreStats::default();
        b.note_examined(2);
        b.recorded = 5;
        a.merge(&b);
        assert_eq!(a.examined, 3);
        assert_eq!(a.recorded, 5);
        assert_eq!(a.examined_by_size[2], 2);
    }
}
