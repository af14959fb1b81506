//! Order-independent structural fingerprints for labelled digraphs.
//!
//! The candidate-combination stage of the hardware compiler must decide,
//! thousands of times, whether two discovered subgraphs describe the same
//! custom function unit ("a simple test which checks graph equivalence,
//! while taking into account commutativity" — §3.3 of the paper). Exact
//! canonical labelling is overkill for graphs this small; instead we use a
//! Weisfeiler-Lehman-style colour refinement hash:
//!
//! 1. every node starts from a hash of its label,
//! 2. each round re-hashes a node with the sorted multisets of its
//!    neighbours' colours (tagging in-edges with their port unless the node
//!    is commutative),
//! 3. the graph fingerprint combines node and edge counts with the sorted
//!    multiset of final colours.
//!
//! Isomorphic graphs (commutativity-aware) always receive equal
//! fingerprints; unequal graphs collide only with hash probability, and
//! callers that need certainty confirm with [`crate::vf2::are_isomorphic`]
//! inside fingerprint buckets.

use crate::digraph::DiGraph;

/// Tuning for the refinement hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CanonConfig {
    /// Number of refinement rounds. Diameter-many rounds distinguish
    /// everything the scheme can distinguish; the default of 4 covers the
    /// subgraphs the explorer produces.
    pub rounds: usize,
}

impl Default for CanonConfig {
    fn default() -> Self {
        CanonConfig { rounds: 4 }
    }
}

/// A structural fingerprint; equal for isomorphic graphs.
///
/// # Example
///
/// ```
/// use isax_graph::{DiGraph, canon};
///
/// let mut g = DiGraph::new();
/// let a = g.add_node("shl");
/// let b = g.add_node("add");
/// g.add_edge(a, b, 0);
///
/// let mut h = DiGraph::new();
/// let y = h.add_node("add");
/// let x = h.add_node("shl");
/// h.add_edge(x, y, 1);
///
/// let lab = |l: &&str| canon::hash_str(l);
/// let comm = |l: &&str| *l == "add";
/// let fg = canon::fingerprint(&g, lab, comm, &Default::default());
/// let fh = canon::fingerprint(&h, lab, comm, &Default::default());
/// assert_eq!(fg, fh, "insertion order and commutative ports do not matter");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fingerprint(pub u64);

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// splitmix64 finalizer: cheap, deterministic, well-mixed.
///
/// Public so cheaper sibling hashes (e.g. the explorer's incremental
/// structural key) can share the same mixing primitive.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Order-sensitive combination of two hashes (shared with [`mix`]).
pub fn combine(a: u64, b: u64) -> u64 {
    mix(a ^ b.wrapping_mul(0x2545f4914f6cdd1d))
}

/// Hashes a string label deterministically (FNV-1a, then mixed).
///
/// Convenience for callers whose node labels are strings.
pub fn hash_str(s: &str) -> u64 {
    let mut h = StrHasher::new();
    use std::fmt::Write as _;
    let _ = h.write_str(s);
    h.finish()
}

/// Streaming form of [`hash_str`]: writing string fragments (via
/// [`std::fmt::Write`], so `write!` works too) produces exactly the hash
/// of their concatenation, without materializing it. Lets label hashes be
/// computed allocation-free on hot paths.
#[derive(Debug, Clone, Copy)]
pub struct StrHasher(u64);

impl StrHasher {
    /// Starts from the FNV-1a offset basis.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        StrHasher(0xcbf29ce484222325)
    }

    /// Finalizes with the same [`mix`] step as [`hash_str`].
    pub fn finish(self) -> u64 {
        mix(self.0)
    }
}

impl std::fmt::Write for StrHasher {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
        Ok(())
    }
}

/// A [`std::hash::Hasher`] for map keys that are already uniformly mixed
/// `u64`s — the outputs of [`mix`], [`combine`], [`hash_str`],
/// [`multiset_key`] or [`fingerprint`]. Re-hashing such keys with SipHash
/// buys nothing; this hasher folds the written words together with a
/// rotate-xor instead. Use via [`PremixedState`]. Do **not** use it for
/// keys that are not hash outputs (sequential ids, small integers): their
/// low bits would collide in the table.
#[derive(Debug, Default, Clone, Copy)]
pub struct PremixedHasher(u64);

/// `BuildHasher` for [`PremixedHasher`]; deterministic across processes.
pub type PremixedState = std::hash::BuildHasherDefault<PremixedHasher>;

impl std::hash::Hasher for PremixedHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Fallback for non-integer key components: FNV-1a, folded in.
        let mut h: u64 = 0xcbf29ce484222325;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        self.write_u64(h);
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = self.0.rotate_left(31) ^ v;
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }

    fn write_u8(&mut self, v: u8) {
        self.write_u64(v as u64);
    }
}

/// Port tag used for edges whose destination treats ports as
/// interchangeable.
pub const COMMUTATIVE_PORT: u64 = 0xFFFF;

/// A cheap, order-independent structural key: the mixed multisets of node
/// keys and of `(source key, destination key, port)` edge triples, with
/// ports normalized to [`COMMUTATIVE_PORT`] on commutative consumers.
///
/// Weaker than [`fingerprint`] (it ignores how edges chain together), but
/// **sound** for the same equivalence: commutativity-aware isomorphic
/// graphs always get equal keys. That makes it a drop-in prefilter
/// anywhere equality is confirmed exactly afterwards (VF2 inside
/// buckets), at a single unsorted pass instead of `rounds` sorted ones.
pub fn multiset_key<N>(
    g: &DiGraph<N>,
    key_of: impl Fn(crate::digraph::NodeId) -> u64,
    comm_of: impl Fn(crate::digraph::NodeId) -> bool,
) -> u64 {
    let mut nodes = 0u64;
    let mut edges = 0u64;
    for v in g.node_ids() {
        nodes = nodes.wrapping_add(mix(key_of(v)));
    }
    for e in g.edges() {
        edges = edges.wrapping_add(edge_term(
            key_of(e.src),
            key_of(e.dst),
            comm_of(e.dst),
            e.port,
        ));
    }
    finish_key(
        g.node_count() as u64,
        g.edge_count() as u64,
        nodes.wrapping_add(edges),
    )
}

/// One edge's term in the [`multiset_key`] edge sum: the endpoint keys
/// and the destination port, collapsed to [`COMMUTATIVE_PORT`] when the
/// consumer is commutative. Shared by every incremental form of the key.
pub fn edge_term(src_key: u64, dst_key: u64, dst_commutative: bool, port: u8) -> u64 {
    let port = if dst_commutative {
        COMMUTATIVE_PORT
    } else {
        port as u64
    };
    mix(combine(combine(src_key, dst_key), port))
}

/// Finishes a [`multiset_key`] from the node and edge counts and the
/// wrapping sum of the per-node and per-edge terms.
pub fn finish_key(nodes: u64, edges: u64, terms: u64) -> u64 {
    mix(combine(combine(nodes, edges), terms))
}

/// Reusable buffers for [`fingerprint_keys`].
///
/// The subsumption and wildcard passes fingerprint tens of thousands of
/// small graphs; reusing one scratch across calls removes five heap
/// allocations per fingerprint without changing a single output bit.
#[derive(Debug, Default)]
pub struct CanonScratch {
    colour: Vec<u64>,
    next: Vec<u64>,
    sorted: Vec<u64>,
    /// Per-node base colours, exposed so callers can fill it directly
    /// (see [`fingerprint_keys`]); `base[v] = mix(label_hash(v))`.
    pub base: Vec<u64>,
    /// Per-node commutativity flags, filled by the caller alongside
    /// [`CanonScratch::base`].
    pub comm: Vec<bool>,
}

/// Computes the commutativity-aware structural fingerprint of `g`.
///
/// `label` must map node weights to a hash that captures everything that
/// distinguishes one operation from another (opcode, hardwired immediates,
/// ...). `commutative` marks nodes whose input ports are interchangeable.
pub fn fingerprint<N>(
    g: &DiGraph<N>,
    label: impl Fn(&N) -> u64,
    commutative: impl Fn(&N) -> bool,
    cfg: &CanonConfig,
) -> Fingerprint {
    let mut scratch = CanonScratch::default();
    scratch
        .comm
        .extend(g.node_ids().map(|v| commutative(&g[v])));
    scratch.base.extend(g.node_ids().map(|v| mix(label(&g[v]))));
    fingerprint_keys(g, cfg, &mut scratch)
}

/// Core of [`fingerprint`]: refinement over caller-supplied per-node base
/// colours and commutativity flags in `scratch.base` / `scratch.comm`
/// (one entry per node, insertion order; `base[v]` must already be
/// `mix`ed). Callers that fingerprint many related graphs — the closure
/// walk, the wildcard bucketing — precompute label hashes once and reuse
/// the scratch, skipping the per-call string hashing and allocations.
/// `scratch.base`/`scratch.comm` are cleared on return; output is
/// bit-identical to [`fingerprint`].
pub fn fingerprint_keys<N>(
    g: &DiGraph<N>,
    cfg: &CanonConfig,
    scratch: &mut CanonScratch,
) -> Fingerprint {
    let n = g.node_count();
    debug_assert_eq!(scratch.base.len(), n);
    debug_assert_eq!(scratch.comm.len(), n);
    if n == 0 {
        scratch.base.clear();
        scratch.comm.clear();
        return Fingerprint(mix(0));
    }
    scratch.colour.clear();
    scratch.colour.extend_from_slice(&scratch.base);
    scratch.next.clear();
    scratch.next.resize(n, 0u64);
    let (base, comm) = (&scratch.base, &scratch.comm);
    let (mut colour, mut next) = (&mut scratch.colour, &mut scratch.next);
    for _round in 0..cfg.rounds {
        for v in g.node_ids() {
            let vi = v.index();
            let mut h = combine(base[vi], 0x1d);
            // In-neighbourhood, tagged with ports unless v is commutative.
            scratch.sorted.clear();
            for e in g.preds(v) {
                let port = if comm[vi] {
                    COMMUTATIVE_PORT
                } else {
                    e.port as u64
                };
                scratch
                    .sorted
                    .push(combine(colour[e.src.index()], mix(port)));
            }
            scratch.sorted.sort_unstable();
            for &s in &scratch.sorted {
                h = combine(h, combine(s, 0xA11CE));
            }
            // Out-neighbourhood, tagged with the consumer port unless the
            // consumer is commutative.
            scratch.sorted.clear();
            for e in g.succs(v) {
                let port = if comm[e.dst.index()] {
                    COMMUTATIVE_PORT
                } else {
                    e.port as u64
                };
                scratch
                    .sorted
                    .push(combine(colour[e.dst.index()], mix(port ^ 0x0DD)));
            }
            scratch.sorted.sort_unstable();
            for &s in &scratch.sorted {
                h = combine(h, combine(s, 0xB0B));
            }
            next[vi] = h;
        }
        std::mem::swap(&mut colour, &mut next);
    }
    colour.sort_unstable();
    let mut out = combine(n as u64, g.edge_count() as u64);
    for &c in colour.iter() {
        out = combine(out, c);
    }
    scratch.base.clear();
    scratch.comm.clear();
    Fingerprint(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digraph::NodeId;

    fn lab(l: &&str) -> u64 {
        hash_str(l)
    }

    fn comm(l: &&str) -> bool {
        matches!(*l, "add" | "and" | "or" | "xor" | "mul")
    }

    fn fp(g: &DiGraph<&str>) -> Fingerprint {
        fingerprint(g, lab, comm, &CanonConfig::default())
    }

    #[test]
    fn str_hasher_streams_the_same_hash() {
        use std::fmt::Write as _;
        let mut h = StrHasher::new();
        let _ = h.write_str("shl");
        let _ = write!(h, "#{}:{}", 1u8, -42i64);
        assert_eq!(h.finish(), hash_str("shl#1:-42"));
        assert_eq!(StrHasher::new().finish(), hash_str(""));
    }

    #[test]
    fn insertion_order_is_irrelevant() {
        let mut g1 = DiGraph::new();
        let a = g1.add_node("shl");
        let b = g1.add_node("and");
        let c = g1.add_node("add");
        g1.add_edge(a, b, 0);
        g1.add_edge(b, c, 0);

        let mut g2 = DiGraph::new();
        let c2 = g2.add_node("add");
        let a2 = g2.add_node("shl");
        let b2 = g2.add_node("and");
        g2.add_edge(a2, b2, 0);
        g2.add_edge(b2, c2, 0);

        assert_eq!(fp(&g1), fp(&g2));
    }

    #[test]
    fn commutative_port_swap_is_equivalent() {
        let mut g1 = DiGraph::new();
        let x = g1.add_node("shl");
        let y = g1.add_node("shr");
        let s = g1.add_node("or");
        g1.add_edge(x, s, 0);
        g1.add_edge(y, s, 1);

        let mut g2 = DiGraph::new();
        let x2 = g2.add_node("shl");
        let y2 = g2.add_node("shr");
        let s2 = g2.add_node("or");
        g2.add_edge(x2, s2, 1);
        g2.add_edge(y2, s2, 0);

        assert_eq!(fp(&g1), fp(&g2));
    }

    #[test]
    fn noncommutative_port_swap_differs() {
        let mut g1 = DiGraph::new();
        let x = g1.add_node("shl");
        let y = g1.add_node("shr");
        let s = g1.add_node("sub");
        g1.add_edge(x, s, 0);
        g1.add_edge(y, s, 1);

        let mut g2 = DiGraph::new();
        let x2 = g2.add_node("shl");
        let y2 = g2.add_node("shr");
        let s2 = g2.add_node("sub");
        g2.add_edge(x2, s2, 1);
        g2.add_edge(y2, s2, 0);

        assert_ne!(fp(&g1), fp(&g2), "x<<k - y>>k differs from y>>k - x<<k");
    }

    #[test]
    fn different_labels_differ() {
        let mut g1 = DiGraph::new();
        let a = g1.add_node("and");
        let b = g1.add_node("add");
        g1.add_edge(a, b, 0);
        let mut g2 = DiGraph::new();
        let a2 = g2.add_node("or");
        let b2 = g2.add_node("add");
        g2.add_edge(a2, b2, 0);
        assert_ne!(fp(&g1), fp(&g2));
    }

    #[test]
    fn different_shape_differs() {
        // chain a->b->c vs fork a->b, a->c
        let mut chain = DiGraph::new();
        let a = chain.add_node("xor");
        let b = chain.add_node("xor");
        let c = chain.add_node("xor");
        chain.add_edge(a, b, 0);
        chain.add_edge(b, c, 0);

        let mut fork = DiGraph::new();
        let a2 = fork.add_node("xor");
        let b2 = fork.add_node("xor");
        let c2 = fork.add_node("xor");
        fork.add_edge(a2, b2, 0);
        fork.add_edge(a2, c2, 0);

        assert_ne!(fp(&chain), fp(&fork));
    }

    #[test]
    fn empty_and_singleton() {
        let empty: DiGraph<&str> = DiGraph::new();
        let mut single = DiGraph::new();
        single.add_node("add");
        assert_ne!(fp(&empty), fp(&single));
        assert_eq!(fp(&empty), fp(&DiGraph::<&str>::new()));
    }

    #[test]
    fn parallel_edges_counted() {
        // add(x, x) vs add(x, external): different internal edge counts.
        let mut both = DiGraph::new();
        let x = both.add_node("shl");
        let a = both.add_node("add");
        both.add_edge(x, a, 0);
        both.add_edge(x, a, 1);

        let mut one = DiGraph::new();
        let x2 = one.add_node("shl");
        let a2 = one.add_node("add");
        one.add_edge(x2, a2, 0);

        assert_ne!(fp(&both), fp(&one));
    }

    #[test]
    fn multiset_key_is_isomorphism_invariant() {
        let mk = |g: &DiGraph<&str>| multiset_key(g, |v| hash_str(g[v]), |v| comm(&g[v]));
        // Insertion order must not matter.
        let mut g1 = DiGraph::new();
        let a = g1.add_node("shl");
        let b = g1.add_node("and");
        g1.add_edge(a, b, 0);
        let mut g2 = DiGraph::new();
        let b2 = g2.add_node("and");
        let a2 = g2.add_node("shl");
        g2.add_edge(a2, b2, 0);
        assert_eq!(mk(&g1), mk(&g2));
        // Commutative port swap must not matter; a non-commutative one must.
        let swap = |dst: &'static str, p0: u8, p1: u8| {
            let mut g = DiGraph::new();
            let x = g.add_node("shl");
            let y = g.add_node("shr");
            let s = g.add_node(dst);
            g.add_edge(x, s, p0);
            g.add_edge(y, s, p1);
            g
        };
        assert_eq!(mk(&swap("or", 0, 1)), mk(&swap("or", 1, 0)));
        assert_ne!(mk(&swap("sub", 0, 1)), mk(&swap("sub", 1, 0)));
        // Labels and counts are part of the key.
        let mut g3 = DiGraph::new();
        let a3 = g3.add_node("or");
        let b3 = g3.add_node("and");
        g3.add_edge(a3, b3, 0);
        assert_ne!(mk(&g1), mk(&g3));
    }

    #[test]
    fn agrees_with_vf2_on_permutations() {
        // Build a fixed graph, permute node insertion order several ways,
        // confirm fingerprints match and vf2 confirms isomorphism.
        let build = |perm: &[usize]| {
            // canonical node labels by original index
            let labels = ["shl", "and", "add", "xor", "or"];
            // edges in original index space: 0->1@0, 1->2@1, 0->3@0, 3->2@0, 2->4@0
            let edges = [(0, 1, 0u8), (1, 2, 1), (0, 3, 0), (3, 2, 0), (2, 4, 0)];
            let mut g = DiGraph::new();
            let mut ids = [NodeId(0); 5];
            for &orig in perm {
                ids[orig] = g.add_node(labels[orig]);
            }
            for &(s, d, p) in &edges {
                g.add_edge(ids[s], ids[d], p);
            }
            g
        };
        let g1 = build(&[0, 1, 2, 3, 4]);
        let g2 = build(&[4, 3, 2, 1, 0]);
        let g3 = build(&[2, 0, 4, 1, 3]);
        assert_eq!(fp(&g1), fp(&g2));
        assert_eq!(fp(&g1), fp(&g3));
        assert!(crate::vf2::are_isomorphic(&g1, &g3, |p, t| p == t, comm));
    }
}
