//! Guided candidate growth: the DFG space explorer proper.
//!
//! "Exploration starts by examining each node in the DFG and using it as a
//! seed for a candidate subgraph" (§3.1). From each seed the candidate
//! grows along data edges; every possible growth direction is scored by
//! the [guide function](crate::guide) and directions scoring under the
//! threshold are not explored. Pruning directions — not candidates —
//! leaves open "the possibility that a low ranking candidate will grow
//! into a useful one".
//!
//! # Walk order
//!
//! One walk serves every order. The seeds form the first level, each
//! scored `f64::INFINITY`. Without [`ExploreConfig::beam_width`], each
//! examined candidate's children (best direction first) are walked
//! before its next sibling: the depth-first preorder. With a beam width,
//! each level is stably sorted by guide score and cut to the width, the
//! cut entries counting as pruned directions, and the survivors'
//! children form the next level. The adaptive fanout taper
//! ([`ExploreConfig::taper_size`]) is the only per-candidate traversal
//! control.
//!
//! # Hot-path design
//!
//! * [`SubgraphEval`] precomputes per-node costs, label keys and
//!   adjacency bitsets once per DFG, then evaluates any candidate in one
//!   O(nodes) pass over those arrays — bit-identical to the from-scratch
//!   [`metrics_of`] (pinned by the equivalence proptests), with no graph
//!   materialization and no hashing.
//! * Canonical identity is two-tier: a **cheap structural key**
//!   (`SubgraphEval::cheap_key`, an order-independent mix of label
//!   keys, internal edges and path depths) dedups provenance events to
//!   one per (shape, kind) per DFG, and the full `canon` fingerprint is
//!   computed once per cheap key, at the shape's first event. With
//!   provenance disabled neither tier runs.

use crate::candidate::{extract_pattern, Candidate, ExploreResult};
use crate::config::ExploreConfig;
use crate::guide::{score, CandidateMetrics, GuideScore};
use isax_graph::{canon, BitSet, Fingerprint};
use isax_guard::{Degradation, Guard, Meter, Stage};
use isax_hwlib::HwLibrary;
use isax_ir::{Dfg, SlackInfo};
use std::collections::{hash_map, HashMap, HashSet};

/// Full candidate metrics including the split port counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FullMetrics {
    /// Critical-path delay through the subgraph, in cycle fractions.
    pub delay: f64,
    /// Summed area, in adder units.
    pub area: f64,
    /// Register input ports required.
    pub inputs: usize,
    /// Register output ports required.
    pub outputs: usize,
}

impl FullMetrics {
    pub(crate) fn as_guide(&self) -> CandidateMetrics {
        CandidateMetrics {
            delay: self.delay,
            area: self.area,
            ports: self.inputs + self.outputs,
        }
    }
}

/// Computes delay/area/port metrics of a node set, or `None` when some
/// node is not implementable in hardware.
///
/// This is the from-scratch reference implementation (pattern extraction
/// plus the hardware library's aggregate queries); the explorer's hot
/// path uses the incremental [`SubgraphEval`], which must agree with this
/// function bit for bit on every node set.
pub fn metrics_of(dfg: &Dfg, nodes: &BitSet, hw: &HwLibrary) -> Option<FullMetrics> {
    let pattern = extract_pattern(dfg, nodes);
    // Pattern node `i` is the `i`-th member in ascending instruction
    // order, so the width slice lines up with the pattern by collecting
    // the members' inferred widths in iteration order.
    let widths: Vec<u8> = nodes.iter().map(|v| dfg.width(v)).collect();
    Some(FullMetrics {
        delay: hw.subgraph_delay_widths(&pattern, &widths)?,
        area: hw.subgraph_area_widths(&pattern, &widths)?,
        inputs: dfg.input_count(nodes),
        outputs: dfg.output_count(nodes),
    })
}

/// Per-DFG incremental candidate evaluator.
///
/// Built once per explored DFG, it caches everything a candidate
/// evaluation needs in flat per-node arrays — hardware cost, CFU
/// eligibility, label hash, commutativity, undirected data-adjacency
/// bitsets — so [`SubgraphEval::metrics`] is a single pass over the
/// candidate's members with no allocation, no pattern graph, and no
/// fingerprinting. Epoch-stamped scratch arrays make the distinct-count
/// I/O logic O(members + edges) without per-call clearing.
#[derive(Debug)]
pub struct SubgraphEval<'a> {
    dfg: &'a Dfg,
    /// `(delay, area)` per node via the library's label cost, `None` when
    /// the operation cannot join a CFU.
    cost: Vec<Option<(f64, f64)>>,
    /// [`node_eligible`] per node, precomputed.
    pub(crate) eligible: Vec<bool>,
    is_load: Vec<bool>,
    /// [`DfgLabel::key`] per node — the label string is hashed once per
    /// DFG instead of once per evaluation.
    pub(crate) label_key: Vec<u64>,
    pub(crate) commutative: Vec<bool>,
    /// Undirected data-edge neighbour mask per node; the union over a
    /// candidate's members (minus the members) is its growth frontier.
    pub(crate) adj: Vec<BitSet>,
    load_delay: Option<f64>,
    /// Longest-path finish time per member node, valid for the node set
    /// most recently passed to [`SubgraphEval::metrics`] or
    /// [`SubgraphEval::cheap_key`].
    finish: Vec<f64>,
    node_stamp: Vec<u32>,
    reg_stamp: Vec<u32>,
    epoch: u32,
}

impl<'a> SubgraphEval<'a> {
    /// Indexes `dfg` against `hw` for incremental evaluation.
    pub fn new(dfg: &'a Dfg, hw: &HwLibrary) -> Self {
        let n = dfg.len();
        let mut cost = Vec::with_capacity(n);
        let mut eligible = Vec::with_capacity(n);
        let mut is_load = Vec::with_capacity(n);
        let mut label_key = Vec::with_capacity(n);
        let mut commutative = Vec::with_capacity(n);
        let mut adj = vec![BitSet::with_capacity(n); n];
        let mut reg_cap = 0usize;
        for v in 0..n {
            let label = dfg.label(v);
            cost.push(
                hw.cost_of_label_scaled(&label, dfg.width(v))
                    .map(|c| (c.delay, c.area)),
            );
            eligible.push(node_eligible(dfg, v, hw));
            is_load.push(dfg.inst(v).opcode.is_load());
            label_key.push(label.key());
            commutative.push(label.opcode.is_commutative());
            for &(u, _) in dfg.data_preds(v) {
                adj[v].insert(u);
                adj[u].insert(v);
            }
            for &(_, r) in dfg.ext_inputs(v) {
                reg_cap = reg_cap.max(r.index() + 1);
            }
        }
        SubgraphEval {
            dfg,
            cost,
            eligible,
            is_load,
            label_key,
            commutative,
            adj,
            load_delay: hw.cfu_load.map(|c| c.delay),
            finish: vec![0.0; n],
            node_stamp: vec![0; n],
            reg_stamp: vec![0; reg_cap],
            epoch: 0,
        }
    }

    fn next_epoch(&mut self) -> u32 {
        self.epoch = match self.epoch.checked_add(1) {
            Some(e) => e,
            None => {
                self.node_stamp.fill(0);
                self.reg_stamp.fill(0);
                1
            }
        };
        self.epoch
    }

    /// Delay/area/port metrics of `nodes`, bit-identical to
    /// [`metrics_of`]: the longest-path fold visits members in ascending
    /// instruction order (a topological order of the pattern, since all
    /// data edges point forward in program order) and the area sum runs
    /// in the same ascending order the pattern's node list uses, so every
    /// `f64` operation replays the reference computation exactly.
    pub fn metrics(&mut self, nodes: &BitSet) -> Option<FullMetrics> {
        let e = self.next_epoch();
        let mut longest = 0.0f64;
        let mut area = 0.0f64;
        let mut loads = 0u64;
        let mut inputs = 0usize;
        let mut outputs = 0usize;
        for v in nodes.iter() {
            let (delay, node_area) = self.cost[v]?;
            let mut start = 0.0f64;
            for &(u, _) in self.dfg.data_preds(v) {
                if nodes.contains(u) {
                    start = start.max(self.finish[u]);
                } else if self.node_stamp[u] != e {
                    // Distinct external producer: one input port.
                    self.node_stamp[u] = e;
                    inputs += 1;
                }
            }
            for &(_, r) in self.dfg.ext_inputs(v) {
                let ri = r.index();
                if self.reg_stamp[ri] != e {
                    // Distinct external register: one input port.
                    self.reg_stamp[ri] = e;
                    inputs += 1;
                }
            }
            let f = start + delay;
            self.finish[v] = f;
            longest = longest.max(f);
            area += node_area;
            if self.is_load[v] {
                loads += 1;
            }
            if self.dfg.is_block_output(v)
                || self
                    .dfg
                    .data_succs(v)
                    .iter()
                    .any(|&(d, _)| !nodes.contains(d))
            {
                outputs += 1;
            }
        }
        // Loads inside a unit serialize through the single cache port.
        if let Some(ld) = self.load_delay {
            longest = longest.max(loads as f64 * ld);
        }
        Some(FullMetrics {
            delay: longest,
            area,
            inputs,
            outputs,
        })
    }

    /// Cheap isomorphism-invariant structural key of `nodes`: the
    /// [`canon::multiset_key`] formula with each node term's label key
    /// xored with its longest-path finish time.
    ///
    /// Isomorphic embeddings of the same pattern share the key exactly
    /// (every term is a function of the labelled pattern alone), so it
    /// can dedup provenance events and key their canonical fingerprints;
    /// distinct patterns collide with ordinary 64-bit-hash probability,
    /// which the golden provenance reports pin empirically.
    pub(crate) fn cheap_key(&mut self, nodes: &BitSet) -> u64 {
        let mut node_acc = 0u64;
        let mut edge_acc = 0u64;
        let mut edges = 0u64;
        for v in nodes.iter() {
            let delay = self.cost[v].map(|c| c.0).unwrap_or(0.0);
            let mut start = 0.0f64;
            for &(u, port) in self.dfg.data_preds(v) {
                if nodes.contains(u) {
                    start = start.max(self.finish[u]);
                    edges += 1;
                    edge_acc = edge_acc.wrapping_add(canon::edge_term(
                        self.label_key[u],
                        self.label_key[v],
                        self.commutative[v],
                        port,
                    ));
                }
            }
            let f = start + delay;
            self.finish[v] = f;
            node_acc = node_acc.wrapping_add(canon::mix(self.label_key[v] ^ f.to_bits()));
        }
        canon::finish_key(nodes.len() as u64, edges, node_acc.wrapping_add(edge_acc))
    }

    /// Canonical WL fingerprint of `nodes`, equal to [`canon::fingerprint`]
    /// of its extracted pattern, from the precomputed label keys.
    pub(crate) fn fingerprint(
        &self,
        nodes: &BitSet,
        scratch: &mut canon::CanonScratch,
    ) -> Fingerprint {
        let pattern = extract_pattern(self.dfg, nodes);
        for v in nodes.iter() {
            scratch.base.push(canon::mix(self.label_key[v]));
            scratch.comm.push(self.commutative[v]);
        }
        canon::fingerprint_keys(&pattern, &canon::CanonConfig::default(), scratch)
    }
}

/// True if the instruction may participate in a custom function unit.
pub(crate) fn node_eligible(dfg: &Dfg, v: usize, hw: &HwLibrary) -> bool {
    let inst = dfg.inst(v);
    !inst.opcode.is_custom() && hw.cost_of_inst(inst).is_some()
}

/// True if growth may pass through a candidate with these metrics: it
/// fits the port and area limits.
pub(crate) fn growable(m: &FullMetrics, cfg: &ExploreConfig) -> bool {
    m.inputs <= cfg.max_inputs
        && m.outputs <= cfg.max_outputs
        && cfg.max_area.is_none_or(|cap| m.area <= cap)
}

/// True if a candidate with these metrics may be *recorded* as a CFU: it
/// is growable and produces at least one output.
pub(crate) fn recordable(m: &FullMetrics, cfg: &ExploreConfig) -> bool {
    growable(m, cfg) && m.outputs >= 1
}

/// Explores one dataflow graph with the guided heuristic and returns the
/// deduplicated viable candidates plus search statistics.
///
/// # Example
///
/// ```
/// use isax_explore::{explore_dfg, ExploreConfig};
/// use isax_hwlib::HwLibrary;
/// use isax_ir::{function_dfgs, FunctionBuilder};
///
/// let mut fb = FunctionBuilder::new("f", 2);
/// let a = fb.param(0);
/// let b = fb.param(1);
/// let t = fb.and(a, b);
/// let u = fb.add(t, b);
/// fb.ret(&[u.into()]);
/// let dfg = &function_dfgs(&fb.finish())[0];
///
/// let r = explore_dfg(dfg, &HwLibrary::micron_018(), &ExploreConfig::default());
/// assert!(r.stats.examined >= 3); // two seeds + at least one grown candidate
/// ```
pub fn explore_dfg(dfg: &Dfg, hw: &HwLibrary, cfg: &ExploreConfig) -> ExploreResult {
    let mut meter = Meter::unlimited(Stage::Explore, 0);
    explore_dfg_metered(dfg, hw, cfg, &mut meter)
}

/// [`explore_dfg`] under a work-unit meter: one unit per candidate
/// examined, charged *before* the examination (so a budget of `B`
/// examines exactly `B` candidates). On exhaustion the walk stops and
/// the result — a sound subset of the unbudgeted result — is tagged
/// `truncated` in its stats. This is the single accounting path shared
/// by the guided walker, the naive walker's examination budget, and the
/// pipeline-wide [`Guard`].
pub fn explore_dfg_metered(
    dfg: &Dfg,
    hw: &HwLibrary,
    cfg: &ExploreConfig,
    meter: &mut Meter,
) -> ExploreResult {
    meter.touch();
    let slack_info = dfg.schedule_info(|i| hw.sw_latency_of(i));
    let n = dfg.len();
    let mut walker = Walker {
        dfg,
        cfg,
        slack_info: &slack_info,
        eval: SubgraphEval::new(dfg, hw),
        seen: HashSet::new(),
        result: ExploreResult::default(),
        meter,
        prov_on: isax_prov::enabled(),
        shapes: HashMap::default(),
        scratch: canon::CanonScratch::default(),
        nbrs: BitSet::with_capacity(n),
    };
    let seeds = (0..n)
        .filter_map(|seed| {
            if !walker.eval.eligible[seed] {
                return None;
            }
            let nodes: BitSet = [seed].into_iter().collect();
            let m = walker.eval.metrics(&nodes)?;
            Some(Entry {
                score: f64::INFINITY,
                nodes,
                m,
                via: None,
            })
        })
        .collect();
    walker.walk(seeds);
    walker.result
}

/// Explores every DFG of an application (e.g. all blocks of all
/// functions), stamping each candidate with the index of the DFG it was
/// found in and merging the statistics. Ungoverned:
/// [`explore_app_guarded`] under [`Guard::unlimited`], with a contained
/// worker panic re-raised because this result carries no degradation
/// records to report it.
pub fn explore_app(dfgs: &[Dfg], hw: &HwLibrary, cfg: &ExploreConfig) -> ExploreResult {
    let (result, degradations) = explore_app_guarded(dfgs, hw, cfg, &Guard::unlimited());
    isax_guard::reraise_contained(&degradations);
    result
}

/// [`explore_app`] under a [`Guard`]: each DFG gets its own meter (item
/// ordinal = DFG index), worker panics are contained per item, and any
/// truncation or contained fault comes back as a [`Degradation`] record
/// aggregated in DFG order.
///
/// DFGs are independent, so they are explored in parallel through
/// [`Guard::fan_out`]; results are merged in DFG index order, so the
/// output is identical to the serial loop for any thread count. Under
/// [`Guard::unlimited`] no meter ever stops, so the only degradations
/// are contained panics.
pub fn explore_app_guarded(
    dfgs: &[Dfg],
    hw: &HwLibrary,
    cfg: &ExploreConfig,
    guard: &Guard,
) -> (ExploreResult, Vec<Degradation>) {
    let (per_dfg, degradations) = guard.fan_out(
        Stage::Explore,
        dfgs.len(),
        |i, meter| {
            let _s = isax_trace::span("explore.dfg");
            let mut r = explore_dfg_metered(&dfgs[i], hw, cfg, meter);
            for c in &mut r.candidates {
                c.dfg = i;
            }
            r.prov.set_dfg(i);
            r
        },
        |i, r| {
            format!(
                "kept {} candidates from {} examined in dfg {}",
                r.candidates.len(),
                r.stats.examined,
                i
            )
        },
    );
    let mut out = ExploreResult::default();
    for item in per_dfg {
        match item {
            Some(r) => out.merge(r),
            None => out.stats.truncated = true,
        }
    }
    (out, degradations)
}

/// One unexamined candidate of a walk level.
struct Entry {
    /// Guide-score total of the direction that produced it (seeds:
    /// `f64::INFINITY`, so a beam examines them first, in seed order).
    score: f64,
    nodes: BitSet,
    m: FullMetrics,
    via: Option<GuideScore>,
}

/// Provenance identity of one cheap structural key in a walk.
struct Shape {
    fp: Fingerprint,
    /// Whether the shape already has a `Discovered` (`[0]`) or a
    /// `Pruned` (`[1]`) event.
    noted: [bool; 2],
}

struct Walker<'a> {
    dfg: &'a Dfg,
    cfg: &'a ExploreConfig,
    slack_info: &'a SlackInfo,
    eval: SubgraphEval<'a>,
    seen: HashSet<BitSet>,
    result: ExploreResult,
    meter: &'a mut Meter,
    /// [`isax_prov::enabled`], hoisted once per walk.
    prov_on: bool,
    /// Cheap structural keys given a provenance event in this walk.
    /// Provenance reports one event per (shape, kind) per DFG; the repeat
    /// encounters stay counted in the stats, which the differential
    /// tests pin.
    shapes: HashMap<u64, Shape, canon::PremixedState>,
    scratch: canon::CanonScratch,
    /// Scratch mask for the growth frontier of the current candidate.
    nbrs: BitSet,
}

/// Copies a guide score into the provenance crate's dependency-free
/// mirror of it.
fn breakdown(s: &crate::guide::GuideScore) -> isax_prov::ScoreBreakdown {
    isax_prov::ScoreBreakdown {
        criticality: s.criticality,
        latency: s.latency,
        area: s.area,
        io: s.io,
    }
}

/// Index of a `Discovered` event in [`Shape::noted`].
const DISCOVERED: usize = 0;
/// Index of a `Pruned` event in [`Shape::noted`].
const PRUNED: usize = 1;

/// Stably sorts entries by guide score, best first; equal scores keep
/// their creation order.
fn sort_best_first(entries: &mut [Entry]) {
    entries.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
}

impl Walker<'_> {
    /// Examines one level of entries in order, in the depth-first or the
    /// beam order of the module docs.
    ///
    /// With `beam_width = usize::MAX` nothing is ever cut and the walk
    /// examines exactly the depth-first candidate set (reachability with
    /// seen-dedup is traversal-order independent), pinned by the
    /// beam-equivalence proptest.
    fn walk(&mut self, mut level: Vec<Entry>) {
        if self.result.stats.truncated {
            return;
        }
        if let Some(width) = self.cfg.beam_width {
            sort_best_first(&mut level);
            self.cut(&mut level, width, isax_prov::PruneReason::BeamDropped);
        }
        let mut next = Vec::new();
        for e in level {
            if self.result.stats.truncated {
                break;
            }
            let Some(children) = self.examine(&e) else {
                continue;
            };
            if self.cfg.beam_width.is_some() {
                next.extend(children);
            } else {
                self.walk(children);
            }
        }
        if !next.is_empty() {
            self.walk(next);
        }
    }

    /// Examines one candidate: dedup against `seen`, charge the meter,
    /// record it if viable, then score every growth direction. Returns
    /// `None` when the candidate was skipped (already seen, or the walk
    /// is out of budget), otherwise the surviving directions' grown
    /// candidates, best first.
    fn examine(&mut self, e: &Entry) -> Option<Vec<Entry>> {
        let (nodes, m) = (&e.nodes, &e.m);
        if !self.seen.insert(nodes.clone()) {
            return None;
        }
        // One work unit per candidate examined, charged before the
        // examination: a budget of B stops after exactly B candidates.
        if !self.meter.charge(1) {
            self.result.stats.truncated = true;
            return None;
        }
        self.result.stats.note_examined(nodes.len());
        if recordable(m, self.cfg) && self.dfg.is_convex(nodes) {
            self.result.stats.recorded += 1;
            if self.prov_on {
                if let Some(fp) = self.note(nodes, DISCOVERED) {
                    self.result.prov.record(
                        fp.0,
                        isax_prov::ProvEvent::Discovered {
                            dfg: 0, // stamped with the real index at the join point
                            size: nodes.len(),
                            delay: m.delay,
                            area: m.area,
                            inputs: m.inputs,
                            outputs: m.outputs,
                            score: e.via.as_ref().map(breakdown),
                        },
                    );
                }
            }
            self.result.candidates.push(Candidate {
                dfg: 0,
                nodes: nodes.clone(),
                delay: m.delay,
                area: m.area,
                inputs: m.inputs,
                outputs: m.outputs,
            });
        }
        if nodes.len() >= self.cfg.max_nodes {
            return Some(Vec::new());
        }
        // Growth frontier: union of the members' adjacency masks, minus
        // the members, ascending.
        let mut nbrs = std::mem::take(&mut self.nbrs);
        nbrs.clear();
        for v in nodes.iter() {
            nbrs.union_with(&self.eval.adj[v]);
        }
        // Score every eligible direction.
        let old = m.as_guide();
        let mut children = Vec::new();
        for dir in nbrs.iter() {
            if nodes.contains(dir) || !self.eval.eligible[dir] {
                continue;
            }
            let grown = nodes.with(dir);
            let Some(nm) = self.eval.metrics(&grown) else {
                continue;
            };
            if !growable(&nm, self.cfg) {
                continue;
            }
            let s = score(&old, &nm.as_guide(), self.slack_info.slack[dir], self.cfg);
            if s.total() < self.cfg.threshold {
                self.result.stats.directions_pruned += 1;
                if self.prov_on {
                    self.note_pruned(&grown, &s, isax_prov::PruneReason::BelowThreshold);
                }
                continue;
            }
            children.push(Entry {
                score: s.total(),
                nodes: grown,
                m: nm,
                via: Some(s),
            });
        }
        self.nbrs = nbrs;
        // Best directions first; the adaptive taper caps the fanout once
        // candidates grow large.
        sort_best_first(&mut children);
        if self.cfg.taper_size.is_some_and(|ts| nodes.len() >= ts) {
            self.cut(
                &mut children,
                self.cfg.taper_fanout,
                isax_prov::PruneReason::FanoutCap,
            );
        }
        Some(children)
    }

    /// Keeps the first `cap` entries and counts the rest as pruned
    /// directions, each reported with `reason`. Seeds carry no guide
    /// score, so a dropped seed is counted but not reported (there is no
    /// score to explain the cut with).
    fn cut(&mut self, entries: &mut Vec<Entry>, cap: usize, reason: isax_prov::PruneReason) {
        if entries.len() <= cap {
            return;
        }
        self.result.stats.directions_pruned += (entries.len() - cap) as u64;
        if self.prov_on {
            for e in &entries[cap..] {
                if let Some(s) = &e.via {
                    self.note_pruned(&e.nodes, s, reason);
                }
            }
        }
        entries.truncate(cap);
    }

    /// Records a `Pruned` event for a dropped growth direction, at most
    /// once per shape per walk. Callers gate on `prov_on`, so a disabled
    /// run never computes the cheap key.
    fn note_pruned(&mut self, grown: &BitSet, s: &GuideScore, reason: isax_prov::PruneReason) {
        if let Some(fp) = self.note(grown, PRUNED) {
            self.result.prov.record(
                fp.0,
                isax_prov::ProvEvent::Pruned {
                    dfg: 0, // stamped with the real index at the join point
                    threshold: self.cfg.threshold,
                    score: breakdown(s),
                    reason,
                },
            );
        }
    }

    /// Admits the first event of `kind` for the shape of `nodes` and
    /// returns the shape's canonical fingerprint, or `None` when the
    /// shape already has such an event. The fingerprint is computed on
    /// the shape's first event (a memo miss) and reused by its event of
    /// the other kind (a memo hit).
    fn note(&mut self, nodes: &BitSet, kind: usize) -> Option<Fingerprint> {
        let ck = self.eval.cheap_key(nodes);
        let stats = &mut self.result.stats;
        let shape = match self.shapes.entry(ck) {
            hash_map::Entry::Occupied(o) if o.get().noted[kind] => return None,
            hash_map::Entry::Occupied(o) => {
                stats.memo_hits += 1;
                o.into_mut()
            }
            hash_map::Entry::Vacant(v) => {
                stats.memo_misses += 1;
                v.insert(Shape {
                    fp: self.eval.fingerprint(nodes, &mut self.scratch),
                    noted: [false; 2],
                })
            }
        };
        shape.noted[kind] = true;
        Some(shape.fp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isax_ir::{function_dfgs, DfgLabel, FunctionBuilder};

    fn hw() -> HwLibrary {
        HwLibrary::micron_018()
    }

    /// A small encryption-flavoured kernel: two xor-shift-or "rotate"
    /// diamonds joined by an add.
    fn kernel_dfg() -> Dfg {
        let mut fb = FunctionBuilder::new("k", 3);
        let a = fb.param(0);
        let b = fb.param(1);
        let k = fb.param(2);
        let t = fb.xor(a, k); // 0
        let l = fb.shl(t, 5i64); // 1
        let r = fb.shr(t, 27i64); // 2
        let rot = fb.or(l, r); // 3
        let s = fb.add(rot, b); // 4
        let u = fb.and(s, 0xFFFFi64); // 5
        fb.ret(&[u.into()]);
        function_dfgs(&fb.finish()).remove(0)
    }

    #[test]
    fn finds_the_full_chain() {
        let dfg = kernel_dfg();
        let r = explore_dfg(&dfg, &hw(), &ExploreConfig::default());
        assert!(
            r.candidates.iter().any(|c| c.nodes.len() == 6),
            "the whole 6-node kernel is a viable 3-in/1-out candidate"
        );
        // Everything recorded satisfies the port constraints.
        for c in &r.candidates {
            assert!(c.inputs <= 5 && c.outputs <= 3);
            assert!(c.outputs >= 1);
        }
    }

    #[test]
    fn candidates_are_deduplicated() {
        let dfg = kernel_dfg();
        let r = explore_dfg(&dfg, &hw(), &ExploreConfig::default());
        let mut sets: Vec<_> = r.candidates.iter().map(|c| c.nodes.clone()).collect();
        let before = sets.len();
        sets.sort();
        sets.dedup();
        assert_eq!(sets.len(), before, "no duplicate node sets");
        assert_eq!(r.stats.recorded, before as u64);
    }

    #[test]
    fn memory_nodes_are_never_included() {
        let mut fb = FunctionBuilder::new("m", 2);
        let p = fb.param(0);
        let k = fb.param(1);
        let v = fb.ldw(p); // 0: load
        let t = fb.xor(v, k); // 1
        let u = fb.add(t, 1i64); // 2
        fb.stw(p, u); // 3: store
        fb.ret(&[]);
        let dfg = function_dfgs(&fb.finish()).remove(0);
        let r = explore_dfg(&dfg, &hw(), &ExploreConfig::default());
        for c in &r.candidates {
            assert!(!c.nodes.contains(0), "load excluded");
            assert!(!c.nodes.contains(3), "store excluded");
        }
        assert!(r.candidates.iter().any(|c| c.nodes.len() == 2));
    }

    #[test]
    fn area_cap_is_respected() {
        let dfg = kernel_dfg();
        let cfg = ExploreConfig {
            max_area: Some(0.3),
            ..ExploreConfig::default()
        };
        let r = explore_dfg(&dfg, &hw(), &cfg);
        assert!(!r.candidates.is_empty());
        for c in &r.candidates {
            assert!(c.area <= 0.3, "candidate area {} exceeds cap", c.area);
        }
    }

    #[test]
    fn fanout_cap_reduces_exploration() {
        let dfg = kernel_dfg();
        let full = explore_dfg(&dfg, &hw(), &ExploreConfig::default());
        let capped_cfg = ExploreConfig {
            taper_size: Some(1),
            taper_fanout: 1,
            ..ExploreConfig::default()
        };
        let capped = explore_dfg(&dfg, &hw(), &capped_cfg);
        assert!(capped.stats.examined <= full.stats.examined);
    }

    #[test]
    fn max_nodes_limits_candidate_size() {
        let dfg = kernel_dfg();
        let cfg = ExploreConfig {
            max_nodes: 2,
            ..ExploreConfig::default()
        };
        let r = explore_dfg(&dfg, &hw(), &cfg);
        assert!(r.candidates.iter().all(|c| c.nodes.len() <= 2));
    }

    #[test]
    fn incremental_metrics_agree_with_fresh_metrics() {
        // Two structurally identical xor→shl pairs at different node
        // indices: the incremental evaluator must agree with the
        // from-scratch reference byte for byte on both embeddings.
        let mut fb = FunctionBuilder::new("m", 4);
        let a = fb.param(0);
        let b = fb.param(1);
        let c = fb.param(2);
        let d = fb.param(3);
        let t1 = fb.xor(a, b); // 0
        let s1 = fb.shl(t1, 3i64); // 1
        let t2 = fb.xor(c, d); // 2
        let s2 = fb.shl(t2, 3i64); // 3
        let j = fb.or(s1, s2); // 4
        fb.ret(&[j.into()]);
        let dfg = function_dfgs(&fb.finish()).remove(0);
        let hw = hw();
        let mut eval = SubgraphEval::new(&dfg, &hw);
        let first: BitSet = [0usize, 1].into_iter().collect();
        let second: BitSet = [2usize, 3].into_iter().collect();
        let m1 = eval.metrics(&first).unwrap();
        let m2 = eval.metrics(&second).unwrap();
        assert_eq!(m1, metrics_of(&dfg, &first, &hw).unwrap());
        assert_eq!(m2, metrics_of(&dfg, &second, &hw).unwrap());
        assert_eq!(m1.delay, m2.delay);
        assert_eq!(m1.area, m2.area);
        // Isomorphic embeddings share the cheap structural key and the
        // fingerprint, which is the canonical one.
        assert_eq!(
            eval.cheap_key(&first),
            eval.cheap_key(&second),
            "same shape must share the cheap key"
        );
        let mut scratch = canon::CanonScratch::default();
        let f1 = eval.fingerprint(&first, &mut scratch);
        let f2 = eval.fingerprint(&second, &mut scratch);
        assert_eq!(f1, f2);
        let fresh = canon::fingerprint(
            &extract_pattern(&dfg, &second),
            DfgLabel::key,
            |l| l.opcode.is_commutative(),
            &canon::CanonConfig::default(),
        );
        assert_eq!(f2, fresh);
    }

    #[test]
    fn eval_ports_stay_per_node_set() {
        // Same pattern shape, different embedding: node 0 is also a block
        // output, so both members of {0,1} escape while only one member
        // of {2,3} does. The incremental evaluator computes ports per
        // embedding even though the shapes share delay/area and cheap key.
        let mut fb = FunctionBuilder::new("p", 2);
        let a = fb.param(0);
        let b = fb.param(1);
        let t1 = fb.xor(a, b); // 0   (escapes: block output)
        let s1 = fb.add(t1, b); // 1   (escapes: consumed by node 2)
        let t2 = fb.xor(s1, a); // 2
        let s2 = fb.add(t2, b); // 3   (escapes: block output)
        fb.ret(&[t1.into(), s2.into()]);
        let dfg = function_dfgs(&fb.finish()).remove(0);
        let hw = hw();
        let mut eval = SubgraphEval::new(&dfg, &hw);
        let first: BitSet = [0usize, 1].into_iter().collect();
        let second: BitSet = [2usize, 3].into_iter().collect();
        let m1 = eval.metrics(&first).unwrap();
        let m2 = eval.metrics(&second).unwrap();
        assert_eq!(
            eval.cheap_key(&first),
            eval.cheap_key(&second),
            "shapes are canonically equal"
        );
        assert_eq!(m1.delay, m2.delay);
        assert_eq!(m1.area, m2.area);
        assert_eq!(m1, metrics_of(&dfg, &first, &hw).unwrap());
        assert_eq!(m2, metrics_of(&dfg, &second, &hw).unwrap());
        assert_ne!(m1.outputs, m2.outputs, "embedding-specific ports");
    }

    #[test]
    fn width_aware_metrics_agree_and_shrink() {
        let mut dfg = kernel_dfg();
        // Pretend the analysis proved nodes 0..=3 are 8-bit and the rest
        // full width.
        let widths = [8u8, 8, 8, 8, 32, 32];
        dfg.set_widths(&widths);
        let hw = hw().with_width_aware(true);
        let mut eval = SubgraphEval::new(&dfg, &hw);
        let all: BitSet = (0usize..6).collect();
        let m = eval.metrics(&all).unwrap();
        assert_eq!(m, metrics_of(&dfg, &all, &hw).unwrap());
        // The narrow nodes shrink the totals versus the full-width query.
        let full = metrics_of(&dfg, &all, &HwLibrary::micron_018()).unwrap();
        assert!(m.area < full.area, "{} !< {}", m.area, full.area);
        // A width-aware library over a default (all-32) DFG changes
        // nothing: scaling only sees widths the analysis attached.
        let plain = kernel_dfg();
        let mut eval32 = SubgraphEval::new(&plain, &hw);
        assert_eq!(eval32.metrics(&all).unwrap(), full);
    }

    #[test]
    fn eval_rejects_unimplementable_shapes() {
        let mut fb = FunctionBuilder::new("u", 2);
        let p = fb.param(0);
        let q = fb.param(1);
        let v = fb.div(p, q); // 0: no hardware implementation
        fb.ret(&[v.into()]);
        let dfg = function_dfgs(&fb.finish()).remove(0);
        let hw = hw();
        let mut eval = SubgraphEval::new(&dfg, &hw);
        let nodes: BitSet = [0usize].into_iter().collect();
        assert!(eval.metrics(&nodes).is_none());
        assert!(eval.metrics(&nodes).is_none());
        assert!(metrics_of(&dfg, &nodes, &hw).is_none());
    }

    #[test]
    fn memo_counters_are_zero_without_provenance() {
        // Fingerprints serve provenance identity only: a prov-off
        // exploration computes none.
        let dfg = kernel_dfg();
        let r = explore_dfg(&dfg, &hw(), &ExploreConfig::default());
        assert_eq!(r.stats.memo_hits, 0, "no fingerprint work on hot path");
        assert_eq!(r.stats.memo_misses, 0);
    }

    #[test]
    fn infinite_beam_examines_the_exhaustive_candidate_set() {
        let dfg = kernel_dfg();
        let dfs = explore_dfg(&dfg, &hw(), &ExploreConfig::default());
        let beam_cfg = ExploreConfig {
            beam_width: Some(usize::MAX),
            ..ExploreConfig::default()
        };
        let beam = explore_dfg(&dfg, &hw(), &beam_cfg);
        let mut a: Vec<_> = dfs.candidates.iter().map(|c| c.nodes.clone()).collect();
        let mut b: Vec<_> = beam.candidates.iter().map(|c| c.nodes.clone()).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b, "beam ∞ must reach the same candidates");
        assert_eq!(dfs.stats.examined, beam.stats.examined);
        assert_eq!(dfs.stats.recorded, beam.stats.recorded);
        assert_eq!(dfs.stats.directions_pruned, beam.stats.directions_pruned);
        assert_eq!(dfs.stats.examined_by_size, beam.stats.examined_by_size);
    }

    #[test]
    fn narrow_beam_reduces_exploration_and_stays_sound() {
        let dfg = kernel_dfg();
        let full = explore_dfg(&dfg, &hw(), &ExploreConfig::default());
        let narrow_cfg = ExploreConfig {
            beam_width: Some(2),
            ..ExploreConfig::default()
        };
        let narrow = explore_dfg(&dfg, &hw(), &narrow_cfg);
        assert!(narrow.stats.examined <= full.stats.examined);
        let full_sets: HashSet<_> = full.candidates.iter().map(|c| c.nodes.clone()).collect();
        for c in &narrow.candidates {
            assert!(full_sets.contains(&c.nodes), "beam invented a candidate");
        }
    }

    #[test]
    fn metered_walk_yields_a_prefix_of_exactly_budget_candidates() {
        let dfg = kernel_dfg();
        for beam_width in [None, Some(2), Some(usize::MAX)] {
            let cfg = ExploreConfig {
                beam_width,
                ..ExploreConfig::default()
            };
            let full = explore_dfg(&dfg, &hw(), &cfg);
            assert!(!full.stats.truncated);
            let budget = full.stats.examined / 2;
            let mut meter = Meter::with_limit(Stage::Explore, 0, budget);
            let partial = explore_dfg_metered(&dfg, &hw(), &cfg, &mut meter);
            assert!(partial.stats.truncated, "beam {beam_width:?}");
            assert_eq!(partial.stats.examined, budget, "beam {beam_width:?}");
            assert_eq!(meter.spent(), budget, "beam {beam_width:?}");
            assert!(
                full.candidates.starts_with(&partial.candidates),
                "beam {beam_width:?}: a truncated walk is a prefix of the full one"
            );
        }
    }

    #[test]
    fn huge_budget_matches_the_unlimited_guard() {
        let dfgs = vec![kernel_dfg(), kernel_dfg()];
        let (plain, none) =
            explore_app_guarded(&dfgs, &hw(), &ExploreConfig::default(), &Guard::unlimited());
        assert!(none.is_empty());
        let guard = Guard::unlimited().with_units(u64::MAX / 2);
        let (guarded, degradations) =
            explore_app_guarded(&dfgs, &hw(), &ExploreConfig::default(), &guard);
        assert!(degradations.is_empty());
        assert_eq!(plain.candidates, guarded.candidates);
        assert_eq!(plain.stats, guarded.stats);
    }

    #[test]
    fn guarded_explore_reports_per_dfg_budget_degradations_in_order() {
        let dfgs = vec![kernel_dfg(), kernel_dfg(), kernel_dfg()];
        let guard = Guard::unlimited().with_units(3);
        let (r, degradations) =
            explore_app_guarded(&dfgs, &hw(), &ExploreConfig::default(), &guard);
        assert!(r.stats.truncated);
        assert_eq!(degradations.len(), 3, "every dfg exhausted its meter");
        for (i, d) in degradations.iter().enumerate() {
            assert_eq!(d.stage, Stage::Explore);
            assert_eq!(d.item, i as u64);
            assert_eq!(d.units_spent, 3);
            assert_eq!(d.limit, Some(3));
        }
        assert_eq!(
            r.stats.examined, 9,
            "3 units per dfg, charged pre-examination"
        );
    }

    #[test]
    fn guide_prunes_against_naive_on_wide_graphs() {
        // A long cheap critical chain with expensive, high-slack multiply
        // fingers hanging off it: growing into the multiplies loses on
        // every guide category, so the guided walk examines fewer
        // candidates than the exhaustive search.
        let mut fb = FunctionBuilder::new("wide", 6);
        let mut acc = fb.param(0);
        let mut tap = None;
        for i in 0..30 {
            let p = fb.param(i % 6);
            acc = fb.xor(acc, p);
            if i == 2 {
                tap = Some(acc);
            }
        }
        // A chain of multiplies off an early tap: every entry into a
        // multi-multiply subgraph loses badly on latency and area, and the
        // long xor chain gives the multiplies plenty of slack.
        let mut m = tap.unwrap();
        for j in 0..4 {
            let p = fb.param(2 + j);
            m = fb.mul(m, p);
        }
        let merged = fb.xor(acc, m);
        fb.ret(&[merged.into()]);
        let dfg = function_dfgs(&fb.finish()).remove(0);
        let guided = explore_dfg(&dfg, &hw(), &ExploreConfig::default());
        let naive = crate::naive::explore_dfg_naive(&dfg, &hw(), &ExploreConfig::default(), None);
        assert!(
            guided.stats.examined < naive.stats.examined,
            "guided {} !< naive {}",
            guided.stats.examined,
            naive.stats.examined
        );
        assert!(guided.stats.directions_pruned > 0);
        // And guided candidates are a subset of naive's.
        let naive_sets: std::collections::HashSet<_> =
            naive.candidates.iter().map(|c| c.nodes.clone()).collect();
        for c in &guided.candidates {
            assert!(naive_sets.contains(&c.nodes));
        }
    }
}
