//! The distance-oracle abstraction the matcher is generic over.

use gpnm_graph::{Bound, NodeId, NodeSet};

use crate::matrix::DistanceMatrix;

/// Anything that can answer "shortest path length from `u` to `v`".
///
/// The BGS matcher and the candidate/affected detectors only consume
/// distances through this trait, so they run unchanged over the dense
/// matrix, the incremental index, or bounded rows.
pub trait DistanceOracle {
    /// Shortest path length from `u` to `v`; [`crate::INF`] when unreachable.
    fn distance(&self, u: NodeId, v: NodeId) -> u32;

    /// Whether the `u -> v` distance satisfies `bound`.
    #[inline]
    fn within(&self, u: NodeId, v: NodeId, bound: Bound) -> bool {
        bound.admits(self.distance(u, v))
    }

    /// Whether some member `v` of `set` has the `u -> v` distance within
    /// `bound` — the matcher's witness probe ("does `u` have a partner in
    /// this simulation set?").
    ///
    /// The default probes member by member, which is right where a pair
    /// lookup is O(1) (the dense matrices). Row-structured backends
    /// override it to fetch `row(u)` once and scan it against the bitset.
    #[inline]
    fn any_within(&self, u: NodeId, set: &NodeSet, bound: Bound) -> bool {
        set.iter().any(|v| self.within(u, v, bound))
    }
}

impl DistanceOracle for DistanceMatrix {
    #[inline(always)]
    fn distance(&self, u: NodeId, v: NodeId) -> u32 {
        self.get(u, v)
    }
}

impl<T: DistanceOracle + ?Sized> DistanceOracle for &T {
    #[inline(always)]
    fn distance(&self, u: NodeId, v: NodeId) -> u32 {
        (**self).distance(u, v)
    }

    #[inline(always)]
    fn within(&self, u: NodeId, v: NodeId, bound: Bound) -> bool {
        (**self).within(u, v, bound)
    }

    #[inline(always)]
    fn any_within(&self, u: NodeId, set: &NodeSet, bound: Bound) -> bool {
        (**self).any_within(u, set, bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apsp::apsp_matrix;
    use crate::INF;
    use gpnm_graph::paper::fig1;

    #[test]
    fn matrix_and_index_agree_through_the_trait() {
        let f = fig1();
        let dense = apsp_matrix(&f.graph);
        let index = crate::IncrementalIndex::build(&f.graph);
        fn lookup<O: DistanceOracle>(o: &O, u: NodeId, v: NodeId) -> u32 {
            o.distance(u, v)
        }
        assert_eq!(lookup(&dense, f.pm1, f.se2), 1);
        assert_eq!(lookup(&index, f.pm1, f.se2), 1);
        assert_eq!(lookup(&dense, f.pm1, f.te2), INF);
        assert_eq!(lookup(&index, f.pm1, f.te2), INF);
    }

    #[test]
    fn within_respects_bounds() {
        let f = fig1();
        let dense = apsp_matrix(&f.graph);
        assert!(dense.within(f.pm1, f.s1, Bound::Hops(3)));
        assert!(!dense.within(f.pm1, f.s1, Bound::Hops(2)));
        assert!(dense.within(f.pm1, f.s1, Bound::Unbounded));
        assert!(!dense.within(f.pm1, f.te2, Bound::Unbounded));
    }
}
