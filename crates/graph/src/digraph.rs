//! A compact directed multigraph with labelled nodes and port-annotated
//! edges.
//!
//! Every edge carries the **input port index** it occupies on its
//! destination node. Dataflow semantics make ports significant: `a - b`
//! and `b - a` are different computations, so an edge into port 0 of a
//! subtract is not interchangeable with an edge into port 1. Commutative
//! operations relax this during matching (see [`crate::vf2`]), but the
//! representation always records the concrete port.

/// Index of a node inside a [`DiGraph`].
///
/// `NodeId`s are dense (`0..graph.node_count()`), never reused, and only
/// meaningful for the graph that issued them.
///
/// # Example
///
/// ```
/// use isax_graph::DiGraph;
/// let mut g = DiGraph::new();
/// let n = g.add_node(7u32);
/// assert_eq!(n.index(), 0);
/// assert_eq!(g[n], 7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Returns the id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// One directed edge: `src` feeds input port `port` of `dst`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeRef {
    /// Producing node.
    pub src: NodeId,
    /// Consuming node.
    pub dst: NodeId,
    /// Input port index on `dst` (operand position).
    pub port: u8,
}

/// A directed multigraph with node weights of type `N` and port-annotated
/// edges.
///
/// Self-loops and parallel edges are permitted (an `add r, x, x` node in a
/// dataflow graph receives the same producer on two different ports).
///
/// # Example
///
/// ```
/// use isax_graph::DiGraph;
///
/// let mut g = DiGraph::new();
/// let x = g.add_node("shl");
/// let y = g.add_node("add");
/// g.add_edge(x, y, 1);
/// assert_eq!(g.node_count(), 2);
/// assert_eq!(g.succs(x).count(), 1);
/// assert_eq!(g.preds(y).next().unwrap().src, x);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiGraph<N> {
    nodes: Vec<N>,
    edges: Vec<EdgeRef>,
    /// Outgoing edge indices per node.
    out_adj: Vec<Vec<u32>>,
    /// Incoming edge indices per node.
    in_adj: Vec<Vec<u32>>,
}

impl<N> Default for DiGraph<N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<N> DiGraph<N> {
    /// Creates an empty graph.
    pub fn new() -> Self {
        DiGraph {
            nodes: Vec::new(),
            edges: Vec::new(),
            out_adj: Vec::new(),
            in_adj: Vec::new(),
        }
    }

    /// Creates an empty graph with room for `nodes` nodes.
    pub fn with_capacity(nodes: usize) -> Self {
        DiGraph {
            nodes: Vec::with_capacity(nodes),
            edges: Vec::new(),
            out_adj: Vec::with_capacity(nodes),
            in_adj: Vec::with_capacity(nodes),
        }
    }

    /// Adds a node with the given weight and returns its id.
    pub fn add_node(&mut self, weight: N) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(weight);
        self.out_adj.push(Vec::new());
        self.in_adj.push(Vec::new());
        id
    }

    /// Adds an edge from `src` into input port `port` of `dst`.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is not a node of this graph.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, port: u8) {
        assert!(src.index() < self.nodes.len(), "edge source out of range");
        assert!(
            dst.index() < self.nodes.len(),
            "edge destination out of range"
        );
        let eidx = self.edges.len() as u32;
        self.edges.push(EdgeRef { src, dst, port });
        self.out_adj[src.index()].push(eidx);
        self.in_adj[dst.index()].push(eidx);
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// True if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Iterates over all node ids in insertion order.
    pub fn node_ids(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Iterates over all edges in insertion order.
    pub fn edges(&self) -> impl ExactSizeIterator<Item = EdgeRef> + '_ {
        self.edges.iter().copied()
    }

    /// Iterates over the outgoing edges of `n`.
    pub fn succs(&self, n: NodeId) -> impl ExactSizeIterator<Item = EdgeRef> + '_ {
        self.out_adj[n.index()]
            .iter()
            .map(move |&e| self.edges[e as usize])
    }

    /// Iterates over the incoming edges of `n`.
    pub fn preds(&self, n: NodeId) -> impl ExactSizeIterator<Item = EdgeRef> + '_ {
        self.in_adj[n.index()]
            .iter()
            .map(move |&e| self.edges[e as usize])
    }

    /// Out-degree of `n`.
    pub fn out_degree(&self, n: NodeId) -> usize {
        self.out_adj[n.index()].len()
    }

    /// In-degree of `n`.
    pub fn in_degree(&self, n: NodeId) -> usize {
        self.in_adj[n.index()].len()
    }

    /// True if there is at least one edge `src -> dst` (any port).
    pub fn has_edge(&self, src: NodeId, dst: NodeId) -> bool {
        self.out_adj[src.index()]
            .iter()
            .any(|&e| self.edges[e as usize].dst == dst)
    }

    /// True if there is an edge `src -> dst` into exactly `port`.
    pub fn has_edge_on_port(&self, src: NodeId, dst: NodeId, port: u8) -> bool {
        self.out_adj[src.index()]
            .iter()
            .any(|&e| self.edges[e as usize].dst == dst && self.edges[e as usize].port == port)
    }

    /// Maps node weights, preserving structure.
    pub fn map<M>(&self, mut f: impl FnMut(NodeId, &N) -> M) -> DiGraph<M> {
        DiGraph {
            nodes: self
                .nodes
                .iter()
                .enumerate()
                .map(|(i, n)| f(NodeId(i as u32), n))
                .collect(),
            edges: self.edges.clone(),
            out_adj: self.out_adj.clone(),
            in_adj: self.in_adj.clone(),
        }
    }

    /// Builds the subgraph induced by `keep` (in the given order), cloning
    /// node weights. Returns the new graph together with the mapping from
    /// new node index to the original [`NodeId`].
    ///
    /// Edges between kept nodes are preserved with their ports; all other
    /// edges are dropped.
    ///
    /// # Panics
    ///
    /// Panics if `keep` contains duplicates or out-of-range ids.
    pub fn induced_subgraph(&self, keep: &[NodeId]) -> (DiGraph<N>, Vec<NodeId>)
    where
        N: Clone,
    {
        let mut old_to_new = vec![u32::MAX; self.nodes.len()];
        for (new_idx, &old) in keep.iter().enumerate() {
            assert!(
                old_to_new[old.index()] == u32::MAX,
                "duplicate node in induced_subgraph"
            );
            old_to_new[old.index()] = new_idx as u32;
        }
        let mut sub = DiGraph::with_capacity(keep.len());
        for &old in keep {
            sub.add_node(self.nodes[old.index()].clone());
        }
        for e in &self.edges {
            let s = old_to_new[e.src.index()];
            let d = old_to_new[e.dst.index()];
            if s != u32::MAX && d != u32::MAX {
                sub.add_edge(NodeId(s), NodeId(d), e.port);
            }
        }
        (sub, keep.to_vec())
    }

    /// True if the graph is weakly connected (or empty).
    pub fn is_weakly_connected(&self) -> bool {
        if self.nodes.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![NodeId(0)];
        seen[0] = true;
        let mut count = 1usize;
        while let Some(n) = stack.pop() {
            for e in self.succs(n) {
                if !seen[e.dst.index()] {
                    seen[e.dst.index()] = true;
                    count += 1;
                    stack.push(e.dst);
                }
            }
            for e in self.preds(n) {
                if !seen[e.src.index()] {
                    seen[e.src.index()] = true;
                    count += 1;
                    stack.push(e.src);
                }
            }
        }
        count == self.nodes.len()
    }

    /// Returns a topological order of the nodes, or `None` if the graph has
    /// a (directed) cycle.
    pub fn topo_order(&self) -> Option<Vec<NodeId>> {
        let n = self.nodes.len();
        let mut indeg: Vec<usize> = (0..n).map(|i| self.in_adj[i].len()).collect();
        let mut ready: Vec<NodeId> = (0..n)
            .filter(|&i| indeg[i] == 0)
            .map(|i| NodeId(i as u32))
            .collect();
        let mut order = Vec::with_capacity(n);
        while let Some(v) = ready.pop() {
            order.push(v);
            for e in &self.out_adj[v.index()] {
                let d = self.edges[*e as usize].dst;
                indeg[d.index()] -= 1;
                if indeg[d.index()] == 0 {
                    ready.push(d);
                }
            }
        }
        if order.len() == n {
            Some(order)
        } else {
            None
        }
    }

    /// True if the graph contains a directed cycle.
    pub fn has_cycle(&self) -> bool {
        self.topo_order().is_none()
    }
}

impl<N> std::ops::Index<NodeId> for DiGraph<N> {
    type Output = N;

    fn index(&self, n: NodeId) -> &N {
        &self.nodes[n.index()]
    }
}

impl<N> std::ops::IndexMut<NodeId> for DiGraph<N> {
    fn index_mut(&mut self, n: NodeId) -> &mut N {
        &mut self.nodes[n.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (DiGraph<&'static str>, [NodeId; 4]) {
        // a -> b, a -> c, b -> d (port 0), c -> d (port 1)
        let mut g = DiGraph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        let d = g.add_node("d");
        g.add_edge(a, b, 0);
        g.add_edge(a, c, 0);
        g.add_edge(b, d, 0);
        g.add_edge(c, d, 1);
        (g, [a, b, c, d])
    }

    #[test]
    fn build_and_query() {
        let (g, [a, b, _c, d]) = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.out_degree(a), 2);
        assert_eq!(g.in_degree(d), 2);
        assert!(g.has_edge(a, b));
        assert!(!g.has_edge(b, a));
        assert!(g.has_edge_on_port(b, d, 0));
        assert!(!g.has_edge_on_port(b, d, 1));
        assert_eq!(g[a], "a");
    }

    #[test]
    fn parallel_edges_and_self_use() {
        // add r, x, x : same producer on two ports.
        let mut g = DiGraph::new();
        let x = g.add_node("x");
        let add = g.add_node("add");
        g.add_edge(x, add, 0);
        g.add_edge(x, add, 1);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.preds(add).count(), 2);
        assert!(g.has_edge_on_port(x, add, 0));
        assert!(g.has_edge_on_port(x, add, 1));
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges() {
        let (g, [a, b, _c, d]) = diamond();
        let (sub, map) = g.induced_subgraph(&[a, b, d]);
        assert_eq!(sub.node_count(), 3);
        // Edges kept: a->b and b->d; a->c and c->d dropped.
        assert_eq!(sub.edge_count(), 2);
        assert_eq!(map, vec![a, b, d]);
        assert_eq!(sub[NodeId(0)], "a");
        assert!(sub.has_edge(NodeId(0), NodeId(1)));
        assert!(sub.has_edge_on_port(NodeId(1), NodeId(2), 0));
    }

    #[test]
    #[should_panic(expected = "duplicate node")]
    fn induced_subgraph_rejects_duplicates() {
        let (g, [a, ..]) = diamond();
        let _ = g.induced_subgraph(&[a, a]);
    }

    #[test]
    fn connectivity() {
        let (g, _) = diamond();
        assert!(g.is_weakly_connected());
        let mut g2: DiGraph<&str> = DiGraph::new();
        g2.add_node("x");
        g2.add_node("y");
        assert!(!g2.is_weakly_connected());
        let empty: DiGraph<u8> = DiGraph::new();
        assert!(empty.is_weakly_connected());
    }

    #[test]
    fn topo_order_on_dag() {
        let (g, [a, b, c, d]) = diamond();
        let order = g.topo_order().expect("diamond is a DAG");
        let pos = |n: NodeId| order.iter().position(|&x| x == n).unwrap();
        assert!(pos(a) < pos(b));
        assert!(pos(a) < pos(c));
        assert!(pos(b) < pos(d));
        assert!(pos(c) < pos(d));
        assert!(!g.has_cycle());
    }

    #[test]
    fn cycle_detected() {
        let mut g = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, 0);
        g.add_edge(b, a, 0);
        assert!(g.has_cycle());
        assert!(g.topo_order().is_none());
    }

    #[test]
    fn map_preserves_structure() {
        let (g, _) = diamond();
        let mapped = g.map(|_, w| w.to_uppercase());
        assert_eq!(mapped.node_count(), g.node_count());
        assert_eq!(mapped.edge_count(), g.edge_count());
        assert_eq!(mapped[NodeId(0)], "A");
    }
}
