//! The operation-claim ledger: "an operation can appear in many
//! candidates but may only be claimed by one" (§3.4).

use crate::combine::Occurrence;
use isax_graph::BitSet;

/// Claimed operations, one [`BitSet`] of node indices per DFG. Every
/// selector and the compiler's match filter claim through it.
#[derive(Debug, Default)]
pub struct Claims {
    by_dfg: Vec<BitSet>,
}

impl Claims {
    /// True if none of `nodes` in DFG `dfg` is claimed.
    pub fn is_free(&self, dfg: usize, nodes: &BitSet) -> bool {
        self.by_dfg.get(dfg).is_none_or(|s| s.is_disjoint(nodes))
    }

    /// Claims `nodes` in DFG `dfg`.
    pub fn claim(&mut self, dfg: usize, nodes: &BitSet) {
        if self.by_dfg.len() <= dfg {
            self.by_dfg.resize_with(dfg + 1, BitSet::new);
        }
        self.by_dfg[dfg].union_with(nodes);
    }

    /// Claims every occurrence that is still free, in order, and returns
    /// their summed value; an occurrence overlapping one taken earlier in
    /// the same call is not free, so no operation is counted twice.
    pub fn take<'a>(&mut self, occurrences: impl IntoIterator<Item = &'a Occurrence>) -> u64 {
        let mut value = 0;
        for o in occurrences {
            if self.is_free(o.dfg, &o.nodes) {
                self.claim(o.dfg, &o.nodes);
                value += o.value();
            }
        }
        value
    }

    /// The value [`Claims::take`] would return now, claiming nothing: a
    /// `take` into `scratch` of the occurrences free here. `scratch` is an
    /// empty ledger the caller keeps only to reuse its allocations; it is
    /// left empty.
    pub(crate) fn live_value<'a, I>(&self, occurrences: I, scratch: &mut Claims) -> u64
    where
        I: IntoIterator<Item = &'a Occurrence>,
        I::IntoIter: Clone,
    {
        let occurrences = occurrences.into_iter();
        let value = scratch.take(
            occurrences
                .clone()
                .filter(|o| self.is_free(o.dfg, &o.nodes)),
        );
        for o in occurrences {
            if let Some(s) = scratch.by_dfg.get_mut(o.dfg) {
                s.clear();
            }
        }
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn occ(dfg: usize, nodes: &[usize]) -> Occurrence {
        Occurrence {
            dfg,
            nodes: nodes.iter().copied().collect(),
            weight: 10,
            savings_per_exec: 1,
        }
    }

    #[test]
    fn overlapping_occurrences_are_taken_once() {
        let occs = [
            occ(0, &[1, 2]),
            occ(0, &[2, 3]),
            occ(1, &[2, 3]),
            occ(0, &[4]),
        ];
        let (mut claims, mut scratch) = (Claims::default(), Claims::default());
        assert_eq!(claims.live_value(&occs, &mut scratch), 30);
        assert_eq!(claims.live_value(&occs, &mut scratch), 30, "claims nothing");
        assert!(claims.is_free(0, &occs[1].nodes));
        assert_eq!(claims.take(&occs), 30);
        assert!(!claims.is_free(0, &occs[1].nodes));
        assert!(claims.is_free(2, &occs[1].nodes));
        assert_eq!(claims.live_value(&occs, &mut scratch), 0);
        assert_eq!(claims.take(&occs), 0);
    }
}
