//! Subsumed subgraphs via identity contraction.
//!
//! "Subsumed subgraphs take advantage of the fact that most atomic
//! operations have an associated identity input, allowing values to pass
//! through a node without changing" (§3.3). If hardware implements
//! `AND → ADD → SHL`, it can also execute `AND → SHL` by feeding the ADD a
//! zero: the ADD is *bypassed*.
//!
//! A **contraction step** removes one bypassable node from a pattern and
//! rewires the value that passes through it. The **contraction closure**
//! of a CFU pattern is every smaller pattern reachable by such steps; a
//! CFU *subsumes* every candidate whose pattern appears in its closure.
//! The compiler matches closure patterns in applications and maps them
//! onto the subsuming hardware — the mechanism behind the black bar
//! segments of Figures 8 and 9.

use crate::combine::{patterns_equivalent, patterns_identical_fast, CfuCandidate};
use isax_graph::{canon, par, DiGraph, NodeId};
use isax_ir::DfgLabel;
use std::collections::HashMap;

/// Cap on each CFU's contraction closure that every pipeline run uses.
pub const DEFAULT_CLOSURE_CAP: usize = 64;

/// True if node `v` of `pattern` can be bypassed, returning the internal
/// pass-through producer if there is one (`None` means the passed value is
/// an external input).
///
/// Conditions: the opcode has an identity element; the identity port has
/// no internal producer and no conflicting hardwired constant; the pass
/// port carries a real value (not a hardwired constant).
fn bypass_source(pattern: &DiGraph<DfgLabel>, v: NodeId) -> Option<Option<(NodeId, u8)>> {
    let label = &pattern[v];
    let (pass_canon, ident) = label.opcode.identity()?;
    debug_assert_eq!(pass_canon, 0);
    // Candidate (pass, identity) port assignments.
    const BOTH: [(u8, u8); 2] = [(0, 1), (1, 0)];
    let options = if label.opcode.is_commutative() {
        &BOTH[..]
    } else {
        &BOTH[..1]
    };
    let internal_in = |port: u8| pattern.preds(v).find(|e| e.port == port).map(|e| e.src);
    let imm_at = |port: u8| {
        label
            .imms
            .iter()
            .find(|&&(p, _)| p == port)
            .map(|&(_, v)| v)
    };
    for &(pass, idp) in options {
        if internal_in(idp).is_some() {
            continue; // identity port is fed by the pattern: cannot constant it
        }
        match imm_at(idp) {
            Some(c) if c as u32 != ident => continue, // wrong hardwired constant
            _ => {}
        }
        if imm_at(pass).is_some() {
            continue; // the passed value must be a live value, not a constant
        }
        return Some(internal_in(pass).map(|u| (u, pass)));
    }
    None
}

/// Computes the contraction closure of a pattern: every distinct smaller
/// pattern obtainable by repeatedly bypassing identity nodes, capped at
/// `cap` members. The original pattern is **not** included.
///
/// # Example
///
/// ```
/// use isax_graph::DiGraph;
/// use isax_ir::{DfgLabel, Opcode};
/// use isax_select::subsume::contraction_closure;
///
/// // and -> add -> shl#2 : the add can be bypassed with +0, the and with
/// // &~0, so the closure holds and->shl, add->shl, shl, and-add, ...
/// let lab = |op| DfgLabel { opcode: op, imms: vec![] };
/// let mut p = DiGraph::new();
/// let a = p.add_node(lab(Opcode::And));
/// let b = p.add_node(lab(Opcode::Add));
/// let c = p.add_node(DfgLabel { opcode: Opcode::Shl, imms: vec![(1, 2)] });
/// p.add_edge(a, b, 0);
/// p.add_edge(b, c, 0);
///
/// let closure = contraction_closure(&p, 64);
/// assert!(closure.iter().any(|g| g.node_count() == 2));
/// assert!(closure.iter().any(|g| g.node_count() == 1));
/// ```
pub fn contraction_closure(pattern: &DiGraph<DfgLabel>, cap: usize) -> Vec<DiGraph<DfgLabel>> {
    closure_keyed(pattern, cap)
        .into_iter()
        .map(|(g, _)| g)
        .collect()
}

/// Cheap structural key of `g` from precomputed per-node label keys and
/// commutativity flags (see [`canon::multiset_key`]). Used only to bucket
/// equality candidates — every hit is confirmed exactly, so collisions
/// cost a VF2 call, never a wrong answer.
fn key_from_keys(g: &DiGraph<DfgLabel>, keys: &[u64], comm: &[bool]) -> u64 {
    canon::multiset_key(g, |v| keys[v.index()], |v| comm[v.index()])
}

/// A closure member: the contracted graph, its cheap structural key, and
/// its sorted `(src, dst, port)` edge triples, cached so duplicate
/// attempts can compare against it without building anything.
struct Member {
    graph: DiGraph<DfgLabel>,
    key: u64,
    sorted_edges: Vec<(usize, usize, u8)>,
}

/// [`contraction_closure`] that also returns each member's cheap
/// structural key, computed once per member while the closure is built.
///
/// Label keys are hashed once at the root and *remapped* through each
/// contraction (a contraction keeps the surviving nodes in their
/// relative order, so its key vector is the parent's with the bypassed
/// entry removed) — the closure walk does no label-string hashing and no WL
/// refinement at all. Every member is strictly smaller than the root (a
/// contraction removes a node), so no root-equality check is needed.
///
/// Most contraction attempts rediscover a member already reached via a
/// different bypass order, so the walk works *prospectively*: it
/// enumerates the contraction's edge triples into a scratch buffer,
/// derives the structural key from them, and compares labels and edges
/// exactly against the key bucket's cached members — the
/// `patterns_identical_fast` relation, graph-build-free. Only genuinely
/// new shapes (or the rare same-key cousin that needs a VF2 verdict) pay
/// for graph construction.
fn closure_keyed(pattern: &DiGraph<DfgLabel>, cap: usize) -> Vec<(DiGraph<DfgLabel>, u64)> {
    let root_keys: Vec<u64> = pattern.node_ids().map(|n| pattern[n].key()).collect();
    let root_comm: Vec<bool> = pattern
        .node_ids()
        .map(|n| pattern[n].opcode.is_commutative())
        .collect();
    let mut seen: HashMap<u64, Vec<usize>, canon::PremixedState> = HashMap::default();
    let mut out: Vec<Member> = Vec::new();
    let mut scratch_edges: Vec<(usize, usize, u8)> = Vec::new();
    // Queue entries reference closure members by index into `out`
    // (`usize::MAX` = the root pattern), so a member's graph is stored
    // exactly once and never cloned. The last tuple field carries the
    // entry's mixed node-key sum so each attempt derives its node term by
    // one subtraction instead of a rescan.
    const ROOT: usize = usize::MAX;
    let root_total = root_keys
        .iter()
        .fold(0u64, |acc, &k| acc.wrapping_add(canon::mix(k)));
    let mut queue: Vec<(usize, Vec<u64>, Vec<bool>, u64)> =
        vec![(ROOT, root_keys, root_comm, root_total)];
    while let Some((gi, keys, comm, key_total)) = queue.pop() {
        if out.len() >= cap {
            break;
        }
        let nodes = if gi == ROOT {
            pattern.node_count()
        } else {
            out[gi].graph.node_count()
        };
        if nodes <= 1 {
            continue; // nothing left to contract
        }
        for vi in 0..nodes {
            let v = NodeId(vi as u32);
            let g = if gi == ROOT { pattern } else { &out[gi].graph };
            let Some(pass) = bypass_source(g, v) else {
                continue;
            };
            // Prospective contraction, without building the graph:
            // surviving position `p` was parent node `orig(p)`.
            let orig = |p: usize| p + usize::from(p >= vi);
            let remap = |n: NodeId| n.index() - usize::from(n.index() > vi);
            scratch_edges.clear();
            for e in g.edges() {
                if e.src == v || e.dst == v {
                    continue;
                }
                scratch_edges.push((remap(e.src), remap(e.dst), e.port));
            }
            if let Some((u, _)) = pass {
                for e in g.succs(v) {
                    if e.dst == v {
                        continue;
                    }
                    scratch_edges.push((remap(u), remap(e.dst), e.port));
                }
            }
            scratch_edges.sort_unstable();
            // The structural key from the surviving nodes and the scratch
            // edges — identical to `key_from_keys` on the built graph.
            let node_acc = key_total.wrapping_sub(canon::mix(keys[vi]));
            let mut edge_acc = 0u64;
            for &(s, d, p) in &scratch_edges {
                edge_acc = edge_acc.wrapping_add(canon::edge_term(
                    keys[orig(s)],
                    keys[orig(d)],
                    comm[orig(d)],
                    p,
                ));
            }
            let key = canon::finish_key(
                (nodes - 1) as u64,
                scratch_edges.len() as u64,
                node_acc.wrapping_add(edge_acc),
            );
            // Exact duplicate test against the bucket's cached members:
            // same positional labels (compared as labels, not hashes) and
            // same sorted edge triples.
            let identical = |m: &Member| {
                m.graph.node_count() == nodes - 1
                    && m.sorted_edges == scratch_edges
                    && m.graph
                        .node_ids()
                        .all(|p| m.graph[p] == g[NodeId(orig(p.index()) as u32)])
            };
            let bucket = seen.get(&key);
            if let Some(b) = bucket {
                if b.iter().any(|&i| identical(&out[i])) {
                    continue;
                }
            }
            // New shape (or a same-key cousin needing a VF2 verdict):
            // build it straight from the surviving labels and the scratch
            // edge triples, without re-deriving the bypass or remapping
            // twice. A contraction that disconnects the pattern is
            // discarded.
            let mut c = DiGraph::with_capacity(nodes - 1);
            for p in 0..nodes - 1 {
                c.add_node(g[NodeId(orig(p) as u32)].clone());
            }
            for &(s, d, p) in &scratch_edges {
                c.add_edge(NodeId(s as u32), NodeId(d as u32), p);
            }
            if !c.is_weakly_connected() {
                continue;
            }
            let mut ckeys = keys.clone();
            ckeys.remove(vi);
            let mut ccomm = comm.clone();
            ccomm.remove(vi);
            debug_assert_eq!(
                key_from_keys(&c, &ckeys, &ccomm),
                key,
                "prospective key must match the built graph's key"
            );
            if let Some(b) = bucket {
                if b.iter().any(|&i| patterns_equivalent(&out[i].graph, &c)) {
                    continue;
                }
            }
            seen.entry(key).or_default().push(out.len());
            out.push(Member {
                graph: c,
                key,
                sorted_edges: scratch_edges.clone(),
            });
            if out.len() >= cap {
                return out.into_iter().map(|m| (m.graph, m.key)).collect();
            }
            queue.push((out.len() - 1, ckeys, ccomm, node_acc));
        }
    }
    out.into_iter().map(|m| (m.graph, m.key)).collect()
}

/// Fills in [`CfuCandidate::subsumes`] for every candidate: `i` subsumes
/// `j` when `j`'s pattern appears in `i`'s contraction closure.
///
/// Each candidate's closure is independent of every other's, so the
/// closures are computed in parallel against a read-only view of the
/// slice and written back afterwards; the result is identical to the
/// serial loop for any thread count.
pub fn mark_subsumptions(cands: &mut [CfuCandidate], cap: usize) {
    // Index candidates by cheap structural key for O(1) closure lookups.
    // The key is sound for commutativity-aware isomorphism, so a closure
    // member's true matches are always in its bucket; equality inside a
    // bucket is confirmed exactly below.
    let mut by_key: HashMap<u64, Vec<usize>, canon::PremixedState> = HashMap::default();
    for (i, c) in cands.iter().enumerate() {
        let keys: Vec<u64> = c.pattern.node_ids().map(|n| c.pattern[n].key()).collect();
        let comm: Vec<bool> = c
            .pattern
            .node_ids()
            .map(|n| c.pattern[n].opcode.is_commutative())
            .collect();
        by_key
            .entry(key_from_keys(&c.pattern, &keys, &comm))
            .or_default()
            .push(i);
    }
    let view: &[CfuCandidate] = cands;
    let subsumed_lists = par::par_map_indexed(view.len(), |i| {
        if view[i].pattern.node_count() < 2 {
            return Vec::new();
        }
        let closure = closure_keyed(&view[i].pattern, cap);
        let mut subsumed: Vec<usize> = Vec::new();
        for (g, key) in &closure {
            if let Some(matches) = by_key.get(key) {
                for &j in matches {
                    if j != i
                        && (patterns_identical_fast(&view[j].pattern, g)
                            || patterns_equivalent(&view[j].pattern, g))
                    {
                        subsumed.push(j);
                    }
                }
            }
        }
        subsumed.sort_unstable();
        subsumed.dedup();
        subsumed
    });
    for (c, s) in cands.iter_mut().zip(subsumed_lists) {
        c.subsumes = s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isax_ir::Opcode;

    fn lab(op: Opcode) -> DfgLabel {
        DfgLabel {
            opcode: op,
            imms: vec![],
        }
    }

    /// and -> add -> shl (variable shift) chain.
    fn chain() -> DiGraph<DfgLabel> {
        let mut p = DiGraph::new();
        let a = p.add_node(lab(Opcode::And));
        let b = p.add_node(lab(Opcode::Add));
        let c = p.add_node(lab(Opcode::Shl));
        p.add_edge(a, b, 0);
        p.add_edge(b, c, 0);
        p
    }

    #[test]
    fn paper_example_and_add_shl() {
        // "if CFU 'AND-ADD->>' was discovered, CFU 'AND->>' can be executed
        //  on the same hardware ... CFUs 'AND-ADD' and 'ADD->>' would also
        //  be recorded as being subsumed"
        let closure = contraction_closure(&chain(), 64);
        let descs: std::collections::BTreeSet<String> = closure
            .iter()
            .map(|g| {
                let mut names: Vec<&str> = g.node_ids().map(|n| g[n].opcode.mnemonic()).collect();
                names.sort_unstable();
                names.join("-")
            })
            .collect();
        assert!(descs.contains("and-shl"), "descs: {descs:?}");
        assert!(descs.contains("add-shl"), "AND bypassed with all-ones");
        assert!(descs.contains("add-and"), "SHL bypassed with shift 0");
        assert!(descs.contains("and"));
        assert!(descs.contains("add"));
        assert!(descs.contains("shl"));
    }

    #[test]
    fn sub_subtrahend_side_cannot_pass() {
        // x - y: only the minuend (port 0) passes through with y = 0. A
        // producer feeding port 1 of the sub cannot be wired through.
        let mut p = DiGraph::new();
        let x = p.add_node(lab(Opcode::Xor));
        let s = p.add_node(lab(Opcode::Sub));
        p.add_edge(x, s, 1); // xor feeds the subtrahend
        let closure = contraction_closure(&p, 16);
        // Bypassing the sub is impossible (its pass port 0 is external but
        // the *identity port* 1 is fed internally); bypassing the xor
        // (identity 0 on either port, commutative) gives a single sub.
        assert!(closure
            .iter()
            .all(|g| !(g.node_count() == 1 && g[NodeId(0)].opcode == Opcode::Xor)));
        assert!(closure
            .iter()
            .any(|g| g.node_count() == 1 && g[NodeId(0)].opcode == Opcode::Sub));
    }

    #[test]
    fn hardwired_nonidentity_constant_blocks_bypass() {
        // add #5 cannot be bypassed: its free port has constant 5, not 0.
        let mut p = DiGraph::new();
        let a = p.add_node(lab(Opcode::And));
        let b = p.add_node(DfgLabel {
            opcode: Opcode::Add,
            imms: vec![(1, 5)],
        });
        p.add_edge(a, b, 0);
        let closure = contraction_closure(&p, 16);
        assert!(
            closure
                .iter()
                .all(|g| !(g.node_count() == 1 && g[NodeId(0)].opcode == Opcode::And)),
            "the add+5 must not vanish"
        );
    }

    #[test]
    fn select_has_no_identity() {
        let mut p = DiGraph::new();
        let a = p.add_node(lab(Opcode::And));
        let s = p.add_node(lab(Opcode::Select));
        p.add_edge(a, s, 1);
        let closure = contraction_closure(&p, 16);
        assert!(closure
            .iter()
            .all(|g| !(g.node_count() == 1 && g[NodeId(0)].opcode == Opcode::And)));
    }

    #[test]
    fn diamond_contraction_preserves_connectivity() {
        // xor -> {shl#3, shr#29} -> or. Bypassing shl#3 (shift 0 identity
        // ... wait, its amount is hardwired to 3) is blocked; bypassing the
        // or would disconnect nothing since both inputs are internal — the
        // or's identity port is fed internally, so it is not bypassable.
        let mut p = DiGraph::new();
        let x = p.add_node(lab(Opcode::Xor));
        let l = p.add_node(DfgLabel {
            opcode: Opcode::Shl,
            imms: vec![(1, 3)],
        });
        let r = p.add_node(DfgLabel {
            opcode: Opcode::Shr,
            imms: vec![(1, 29)],
        });
        let o = p.add_node(lab(Opcode::Or));
        p.add_edge(x, l, 0);
        p.add_edge(x, r, 0);
        p.add_edge(l, o, 0);
        p.add_edge(r, o, 1);
        let closure = contraction_closure(&p, 64);
        // Only the xor is bypassable (commutative, both inputs external):
        // closure = { shl+shr+or }.
        assert_eq!(closure.len(), 1);
        assert_eq!(closure[0].node_count(), 3);
    }

    #[test]
    fn closure_cap_is_respected() {
        // A long add chain has an exponential closure; the cap bounds it.
        let mut p = DiGraph::new();
        let mut prev = p.add_node(lab(Opcode::Add));
        for _ in 0..8 {
            let n = p.add_node(lab(Opcode::Add));
            p.add_edge(prev, n, 0);
            prev = n;
        }
        let closure = contraction_closure(&p, 10);
        assert!(closure.len() <= 10);
    }

    #[test]
    fn mark_subsumptions_links_candidates() {
        use crate::combine::combine;
        use isax_explore::{explore_app, ExploreConfig};
        use isax_hwlib::HwLibrary;
        use isax_ir::{function_dfgs, FunctionBuilder};

        let mut fb = FunctionBuilder::new("f", 3);
        let (a, b, c) = (fb.param(0), fb.param(1), fb.param(2));
        // and -> add -> xor chain; its sub-chains are discovered too.
        let t = fb.and(a, b);
        let u = fb.add(t, c);
        let v = fb.xor(u, a);
        fb.ret(&[v.into()]);
        let dfgs = function_dfgs(&fb.finish());
        let hw = HwLibrary::micron_018();
        let found = explore_app(&dfgs, &hw, &ExploreConfig::default());
        let mut cfus = combine(&dfgs, &found.candidates, &hw);
        mark_subsumptions(&mut cfus, DEFAULT_CLOSURE_CAP);

        let full = cfus.iter().position(|c| c.size() == 3).unwrap();
        let and_only = cfus
            .iter()
            .position(|c| c.size() == 1 && c.describe() == "and")
            .unwrap();
        let and_add = cfus.iter().position(|c| c.describe() == "add-and").unwrap();
        assert!(cfus[full].subsumes.contains(&and_only));
        assert!(cfus[full].subsumes.contains(&and_add));
        assert!(cfus[and_only].subsumes.is_empty());
    }
}
