//! Wildcard CFUs: candidates identical except at a single node.
//!
//! "Wildcards are CFUs with identical subgraphs except for different
//! operations at one node. Combining two CFUs with similar structure like
//! this allows us to cheaply add another CFU without greatly increasing
//! the associated cost, as much of the hardware can be shared" (§3.3).
//!
//! Detection wildcards one node at a time: key node `v`'s position with a
//! sentinel and bucket candidates by the resulting cheap structural key
//! ([`canon::multiset_key`] — sound for commutativity-aware isomorphism);
//! bucket collisions are confirmed by exact isomorphism of lazily built
//! sentinel-labelled graphs. The evaluation's stronger *opcode-class*
//! generalization (Figures 8 and 9) lives in the compiler's matching mode;
//! this module supplies the partner structure selection uses to discount
//! shared hardware.

use crate::combine::CfuCandidate;
use isax_graph::{canon, par, vf2, DiGraph, NodeId};
use isax_ir::DfgLabel;
use std::collections::HashMap;

/// Replaces one node's label with the wildcard sentinel.
fn wildcarded(g: &DiGraph<DfgLabel>, v: NodeId) -> DiGraph<WildLabel> {
    g.map(|n, l| {
        if n == v {
            WildLabel::Wild {
                arity: l.opcode.arity(),
            }
        } else {
            WildLabel::Exact(l.clone())
        }
    })
}

/// A label that may be the wildcard sentinel.
#[derive(Debug, Clone, PartialEq, Eq)]
enum WildLabel {
    Exact(DfgLabel),
    /// The wildcard node; arity is kept so a two-input node never pairs
    /// with a one-input node.
    Wild {
        arity: usize,
    },
}

impl WildLabel {
    /// Only the differential tests key materialized wildcard graphs;
    /// production bucketing uses [`wild_key_indexed`].
    #[cfg(test)]
    fn key(&self) -> u64 {
        match self {
            WildLabel::Exact(l) => l.key(),
            WildLabel::Wild { arity } => canon::hash_str(&format!("*{arity}")),
        }
    }

    fn commutative(&self) -> bool {
        match self {
            WildLabel::Exact(l) => l.opcode.is_commutative(),
            // Conservative: treat the wildcard as commutative so that a
            // commutative replacement is not missed; exactness is restored
            // by the isomorphism verification.
            WildLabel::Wild { .. } => true,
        }
    }
}

/// Cheap structural key of `pattern` as if node `wild` carried the
/// wildcard sentinel, without building the sentinel-labelled graph: the
/// multiset key runs on cached per-node label keys with the wildcard's
/// key (and conservative commutativity) overridden in place. Equal to
/// `multiset_key(&wildcarded(pattern, wild), ...)` — wildcarding changes
/// labels only, never the edge structure — so isomorphic wildcardings
/// always share a bucket; exactness comes from the VF2 confirmation.
fn wild_key_indexed(
    pattern: &DiGraph<DfgLabel>,
    keys: &[u64],
    comm: &[bool],
    wild: NodeId,
    wild_key: u64,
) -> u64 {
    canon::multiset_key(
        pattern,
        |n| if n == wild { wild_key } else { keys[n.index()] },
        // Wild is conservatively commutative.
        |n| n == wild || comm[n.index()],
    )
}

/// Fills in [`CfuCandidate::wildcard_partners`]: `i` and `j` are partners
/// when their patterns are isomorphic after wildcarding one node on each
/// side.
///
/// # Example
///
/// ```
/// use isax_explore::{explore_app, ExploreConfig};
/// use isax_hwlib::HwLibrary;
/// use isax_ir::{function_dfgs, FunctionBuilder};
/// use isax_select::{combine, wildcard::find_wildcard_partners};
///
/// let mut fb = FunctionBuilder::new("f", 3);
/// let (a, b, c) = (fb.param(0), fb.param(1), fb.param(2));
/// let t1 = fb.and(a, b);
/// let u1 = fb.add(t1, c);   // and -> add
/// let t2 = fb.and(u1, b);
/// let u2 = fb.sub(t2, c);   // and -> sub : wildcard partner of and -> add
/// fb.ret(&[u2.into()]);
/// let dfgs = function_dfgs(&fb.finish());
/// let hw = HwLibrary::micron_018();
/// let found = explore_app(&dfgs, &hw, &ExploreConfig::default());
/// let mut cfus = combine(&dfgs, &found.candidates, &hw);
/// find_wildcard_partners(&mut cfus);
///
/// let aa = cfus.iter().position(|c| c.describe() == "add-and").unwrap();
/// let as_ = cfus.iter().position(|c| c.describe() == "and-sub").unwrap();
/// assert!(cfus[aa].wildcard_partners.contains(&as_));
/// assert!(cfus[as_].wildcard_partners.contains(&aa));
/// ```
pub fn find_wildcard_partners(cands: &mut [CfuCandidate]) {
    // Bucket (candidate, wildcarded node) by the cheap structural key.
    // The keys come from cached label keys with the wildcard position
    // overridden in place — no sentinel-labelled graph is materialized
    // here, no WL refinement runs, and each candidate's labels are
    // string-hashed once instead of once per (node, wildcard) pair.
    let mut buckets: HashMap<(usize, u64), Vec<(usize, NodeId)>, canon::PremixedState> =
        HashMap::default();
    let mut wild_keys: HashMap<usize, u64> = HashMap::new();
    for (i, c) in cands.iter().enumerate() {
        let g = &c.pattern;
        let keys: Vec<u64> = g.node_ids().map(|n| g[n].key()).collect();
        let comm: Vec<bool> = g.node_ids().map(|n| g[n].opcode.is_commutative()).collect();
        // Base accumulators over the unmodified pattern; each wildcard
        // position derives its key from these by swapping out just the
        // wildcarded node's contributions (it is conservatively
        // commutative, so its incoming ports normalize), instead of
        // rescanning the whole graph per position.
        let node_total = keys
            .iter()
            .fold(0u64, |a, &k| a.wrapping_add(canon::mix(k)));
        let edge_total = g.edges().fold(0u64, |a, e| {
            a.wrapping_add(canon::edge_term(
                keys[e.src.index()],
                keys[e.dst.index()],
                comm[e.dst.index()],
                e.port,
            ))
        });
        for v in g.node_ids() {
            let arity = g[v].opcode.arity();
            let wild_key = *wild_keys
                .entry(arity)
                .or_insert_with(|| canon::hash_str(&format!("*{arity}")));
            let node_acc = node_total
                .wrapping_sub(canon::mix(keys[v.index()]))
                .wrapping_add(canon::mix(wild_key));
            let mut edge_acc = edge_total;
            for e in g.succs(v) {
                edge_acc = edge_acc
                    .wrapping_sub(canon::edge_term(
                        keys[e.src.index()],
                        keys[e.dst.index()],
                        comm[e.dst.index()],
                        e.port,
                    ))
                    .wrapping_add(canon::edge_term(
                        wild_key,
                        keys[e.dst.index()],
                        comm[e.dst.index()],
                        e.port,
                    ));
            }
            for e in g.preds(v) {
                edge_acc = edge_acc
                    .wrapping_sub(canon::edge_term(
                        keys[e.src.index()],
                        keys[e.dst.index()],
                        comm[e.dst.index()],
                        e.port,
                    ))
                    .wrapping_add(canon::edge_term(
                        keys[e.src.index()],
                        wild_key,
                        true,
                        e.port,
                    ));
            }
            let key = canon::finish_key(
                g.node_count() as u64,
                g.edge_count() as u64,
                node_acc.wrapping_add(edge_acc),
            );
            debug_assert_eq!(
                key,
                wild_key_indexed(g, &keys, &comm, v, wild_key),
                "incremental wildcard key must match the full rescan"
            );
            buckets
                .entry((g.node_count(), key))
                .or_default()
                .push((i, v));
        }
    }
    // Buckets are independent; the quadratic isomorphism confirmation
    // within each runs in parallel. Sentinel-labelled graphs are built
    // lazily, only for members of multi-entry buckets that actually reach
    // the VF2 check. The confirmed pairs are merged and the per-candidate
    // lists sorted, so the output does not depend on bucket or thread
    // order.
    let bucket_members: Vec<Vec<(usize, NodeId)>> = buckets
        .into_values()
        .filter(|members| members.len() > 1)
        .collect();
    let view: &[CfuCandidate] = cands;
    let pair_lists = par::par_map(&bucket_members, |members| {
        let mut graphs: HashMap<(usize, u32), DiGraph<WildLabel>> = HashMap::new();
        let mut confirmed: std::collections::HashSet<(usize, usize)> =
            std::collections::HashSet::new();
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        for (ai, &(i, vi)) in members.iter().enumerate() {
            for &(j, vj) in members.iter().skip(ai + 1) {
                if i == j {
                    continue;
                }
                // The two labels at the wildcard position must differ,
                // otherwise the candidates would already be one group.
                let li = &view[i].pattern[vi];
                let lj = &view[j].pattern[vj];
                if li == lj {
                    continue;
                }
                // A pair already confirmed via another wildcard position
                // needs no second VF2 run; the output lists dedup anyway.
                let pair = if i < j { (i, j) } else { (j, i) };
                if confirmed.contains(&pair) {
                    continue;
                }
                graphs
                    .entry((i, vi.0))
                    .or_insert_with(|| wildcarded(&view[i].pattern, vi));
                graphs
                    .entry((j, vj.0))
                    .or_insert_with(|| wildcarded(&view[j].pattern, vj));
                let gi = &graphs[&(i, vi.0)];
                let gj = &graphs[&(j, vj.0)];
                if vf2::are_isomorphic(gi, gj, |a, b| a == b, WildLabel::commutative) {
                    confirmed.insert(pair);
                    pairs.push((i, j));
                }
            }
        }
        pairs
    });
    let mut partners: Vec<Vec<usize>> = vec![Vec::new(); cands.len()];
    for (i, j) in pair_lists.into_iter().flatten() {
        partners[i].push(j);
        partners[j].push(i);
    }
    for (c, mut p) in cands.iter_mut().zip(partners) {
        p.sort_unstable();
        p.dedup();
        c.wildcard_partners = p;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combine::combine;
    use isax_explore::{explore_app, ExploreConfig};
    use isax_hwlib::HwLibrary;
    use isax_ir::{function_dfgs, FunctionBuilder};

    fn analyzed(fb: FunctionBuilder) -> Vec<CfuCandidate> {
        let dfgs = function_dfgs(&fb.finish());
        let hw = HwLibrary::micron_018();
        let found = explore_app(&dfgs, &hw, &ExploreConfig::default());
        let mut cfus = combine(&dfgs, &found.candidates, &hw);
        find_wildcard_partners(&mut cfus);
        cfus
    }

    #[test]
    fn indexed_key_matches_materialized_wildcarding() {
        let mut fb = FunctionBuilder::new("w", 3);
        let (a, b, c) = (fb.param(0), fb.param(1), fb.param(2));
        let t = fb.xor(a, b);
        let u = fb.shl(t, 3i64);
        let v = fb.sub(u, c);
        fb.ret(&[v.into()]);
        let cfus = analyzed(fb);
        for cand in &cfus {
            let keys: Vec<u64> = cand
                .pattern
                .node_ids()
                .map(|n| cand.pattern[n].key())
                .collect();
            let comm: Vec<bool> = cand
                .pattern
                .node_ids()
                .map(|n| cand.pattern[n].opcode.is_commutative())
                .collect();
            for v in cand.pattern.node_ids() {
                let arity = cand.pattern[v].opcode.arity();
                let wild_key = canon::hash_str(&format!("*{arity}"));
                let fast = wild_key_indexed(&cand.pattern, &keys, &comm, v, wild_key);
                let w = wildcarded(&cand.pattern, v);
                let slow = canon::multiset_key(&w, |n| w[n].key(), |n| w[n].commutative());
                assert_eq!(fast, slow, "indexed wildcard key must match materialized");
            }
        }
    }

    #[test]
    fn add_sub_chains_are_partners() {
        let mut fb = FunctionBuilder::new("f", 3);
        let (a, b, c) = (fb.param(0), fb.param(1), fb.param(2));
        let t1 = fb.xor(a, b);
        let u1 = fb.add(t1, c);
        let t2 = fb.xor(u1, b);
        let u2 = fb.sub(t2, c);
        fb.ret(&[u2.into()]);
        let cfus = analyzed(fb);
        let xa = cfus.iter().position(|c| c.describe() == "add-xor").unwrap();
        let xs = cfus.iter().position(|c| c.describe() == "sub-xor").unwrap();
        assert!(cfus[xa].wildcard_partners.contains(&xs));
    }

    #[test]
    fn two_node_differences_are_not_partners() {
        let mut fb = FunctionBuilder::new("f", 3);
        let (a, b, c) = (fb.param(0), fb.param(1), fb.param(2));
        let t1 = fb.xor(a, b);
        let u1 = fb.add(t1, c); // xor -> add
        let t2 = fb.and(u1, b);
        let u2 = fb.sub(t2, c); // and -> sub : differs at both nodes
        fb.ret(&[u2.into()]);
        let cfus = analyzed(fb);
        let xa = cfus.iter().position(|c| c.describe() == "add-xor").unwrap();
        let as_ = cfus.iter().position(|c| c.describe() == "and-sub").unwrap();
        assert!(!cfus[xa].wildcard_partners.contains(&as_));
    }

    #[test]
    fn singleton_opcodes_are_partners() {
        let mut fb = FunctionBuilder::new("f", 2);
        let (a, b) = (fb.param(0), fb.param(1));
        let x = fb.and(a, b);
        let y = fb.or(x, b);
        fb.ret(&[y.into()]);
        let cfus = analyzed(fb);
        let and1 = cfus
            .iter()
            .position(|c| c.size() == 1 && c.describe() == "and")
            .unwrap();
        let or1 = cfus
            .iter()
            .position(|c| c.size() == 1 && c.describe() == "or")
            .unwrap();
        assert!(cfus[and1].wildcard_partners.contains(&or1));
    }

    #[test]
    fn partner_relation_is_symmetric() {
        let mut fb = FunctionBuilder::new("f", 3);
        let (a, b, c) = (fb.param(0), fb.param(1), fb.param(2));
        let t1 = fb.shl(a, 4i64);
        let u1 = fb.add(t1, b);
        let t2 = fb.shl(c, 4i64);
        let u2 = fb.xor(t2, b);
        let z = fb.or(u1, u2);
        fb.ret(&[z.into()]);
        let cfus = analyzed(fb);
        for (i, c) in cfus.iter().enumerate() {
            for &j in &c.wildcard_partners {
                assert!(
                    cfus[j].wildcard_partners.contains(&i),
                    "partner lists must be symmetric"
                );
            }
        }
    }
}
