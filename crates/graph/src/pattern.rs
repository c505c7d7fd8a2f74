//! The pattern graph `GP` with bounded path lengths.

use crate::error::GraphError;
use crate::ids::PatternNodeId;
use crate::label::Label;
use crate::Result;

/// The bounded path length `f_e(u, u')` on a pattern edge.
///
/// Per BGS (paper §III-A) an edge is labeled with a positive integer `k` —
/// the maximal shortest-path length a data-graph path may have to match the
/// edge — or `*`, meaning no length constraint (any finite path matches).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Bound {
    /// Match paths of length at most `k` (with `k >= 1`).
    Hops(u32),
    /// `*`: match any finite path.
    Unbounded,
}

impl Bound {
    /// Whether a shortest path of length `dist` satisfies this bound.
    /// `dist` uses the distance crate's convention: `u32::MAX` is infinity.
    #[inline(always)]
    pub fn admits(self, dist: u32) -> bool {
        match self {
            Bound::Hops(k) => dist <= k,
            Bound::Unbounded => dist != u32::MAX,
        }
    }

    /// Whether this bound is at least as permissive as `other` — every path
    /// admitted by `other` is admitted by `self`.
    #[inline]
    pub fn subsumes(self, other: Bound) -> bool {
        match (self, other) {
            (Bound::Unbounded, _) => true,
            (Bound::Hops(_), Bound::Unbounded) => false,
            (Bound::Hops(a), Bound::Hops(b)) => a >= b,
        }
    }
}

impl std::fmt::Display for Bound {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Bound::Hops(k) => write!(f, "{k}"),
            Bound::Unbounded => write!(f, "*"),
        }
    }
}

/// A directed pattern edge with its bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PatternEdge {
    /// Source pattern node.
    pub from: PatternNodeId,
    /// Target pattern node.
    pub to: PatternNodeId,
    /// Bounded path length.
    pub bound: Bound,
}

/// A small directed pattern graph: labeled nodes, bounded edges.
///
/// Pattern graphs receive the same four update kinds as data graphs
/// (paper §III-C), so this type is mutable with the same
/// tombstoned-slot/stable-id scheme as [`crate::DataGraph`].
#[derive(Debug, Clone, Default)]
pub struct PatternGraph {
    labels: Vec<Option<Label>>,
    /// Out-adjacency: `(target, bound)`, sorted by target.
    out: Vec<Vec<(PatternNodeId, Bound)>>,
    /// In-adjacency: `(source, bound)`, sorted by source.
    inn: Vec<Vec<(PatternNodeId, Bound)>>,
    live_nodes: usize,
    live_edges: usize,
}

impl PatternGraph {
    /// An empty pattern.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live pattern nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.live_nodes
    }

    /// Number of live pattern edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.live_edges
    }

    /// Total slots ever allocated (live + tombstoned).
    #[inline]
    pub fn slot_count(&self) -> usize {
        self.labels.len()
    }

    /// Whether `id` refers to a live pattern node.
    #[inline]
    pub fn contains(&self, id: PatternNodeId) -> bool {
        self.labels.get(id.index()).is_some_and(Option::is_some)
    }

    /// Label of a live pattern node.
    #[inline]
    pub fn label(&self, id: PatternNodeId) -> Option<Label> {
        self.labels.get(id.index()).copied().flatten()
    }

    /// The bound on edge `u -> v`, if that edge exists.
    pub fn bound(&self, u: PatternNodeId, v: PatternNodeId) -> Option<Bound> {
        let adj = self.out.get(u.index())?;
        adj.binary_search_by_key(&v, |&(t, _)| t)
            .ok()
            .map(|pos| adj[pos].1)
    }

    /// Whether the edge `u -> v` exists.
    #[inline]
    pub fn has_edge(&self, u: PatternNodeId, v: PatternNodeId) -> bool {
        self.bound(u, v).is_some()
    }

    /// Out-edges of `u` as `(target, bound)`, sorted by target.
    #[inline]
    pub fn out_edges(&self, u: PatternNodeId) -> &[(PatternNodeId, Bound)] {
        self.out.get(u.index()).map_or(&[], Vec::as_slice)
    }

    /// In-edges of `u` as `(source, bound)`, sorted by source.
    #[inline]
    pub fn in_edges(&self, u: PatternNodeId) -> &[(PatternNodeId, Bound)] {
        self.inn.get(u.index()).map_or(&[], Vec::as_slice)
    }

    /// Iterate over live pattern node ids in slot order.
    pub fn nodes(&self) -> impl Iterator<Item = PatternNodeId> + '_ {
        self.labels
            .iter()
            .enumerate()
            .filter_map(|(i, l)| l.map(|_| PatternNodeId::from_index(i)))
    }

    /// Iterate over live edges.
    pub fn edges(&self) -> impl Iterator<Item = PatternEdge> + '_ {
        self.labels.iter().enumerate().flat_map(move |(i, l)| {
            let from = PatternNodeId::from_index(i);
            let adj: &[(PatternNodeId, Bound)] = if l.is_some() { &self.out[i] } else { &[] };
            adj.iter()
                .map(move |&(to, bound)| PatternEdge { from, to, bound })
        })
    }

    /// Insert a fresh pattern node with `label`.
    pub fn add_node(&mut self, label: Label) -> PatternNodeId {
        let id = PatternNodeId::from_index(self.labels.len());
        self.labels.push(Some(label));
        self.out.push(Vec::new());
        self.inn.push(Vec::new());
        self.live_nodes += 1;
        id
    }

    /// Delete a live pattern node and its incident edges; returns them as
    /// `(from, to, bound)` triples.
    pub fn remove_node(
        &mut self,
        id: PatternNodeId,
    ) -> Result<Vec<(PatternNodeId, PatternNodeId, Bound)>> {
        if !self.contains(id) {
            return Err(GraphError::MissingPatternNode(id));
        }
        let mut removed = Vec::new();
        for (t, b) in std::mem::take(&mut self.out[id.index()]) {
            remove_sorted(&mut self.inn[t.index()], id);
            removed.push((id, t, b));
        }
        for (s, b) in std::mem::take(&mut self.inn[id.index()]) {
            remove_sorted(&mut self.out[s.index()], id);
            removed.push((s, id, b));
        }
        self.live_edges -= removed.len();
        self.labels[id.index()] = None;
        self.live_nodes -= 1;
        Ok(removed)
    }

    /// Insert the edge `u -> v` with `bound`.
    pub fn add_edge(&mut self, u: PatternNodeId, v: PatternNodeId, bound: Bound) -> Result<()> {
        if u == v {
            return Err(GraphError::SelfLoop);
        }
        if let Bound::Hops(0) = bound {
            return Err(GraphError::ZeroBound);
        }
        if !self.contains(u) {
            return Err(GraphError::MissingPatternNode(u));
        }
        if !self.contains(v) {
            return Err(GraphError::MissingPatternNode(v));
        }
        let adj = &mut self.out[u.index()];
        match adj.binary_search_by_key(&v, |&(t, _)| t) {
            Ok(_) => return Err(GraphError::DuplicatePatternEdge(u, v)),
            Err(pos) => adj.insert(pos, (v, bound)),
        }
        let radj = &mut self.inn[v.index()];
        let pos = radj.binary_search_by_key(&u, |&(s, _)| s).unwrap_err();
        radj.insert(pos, (u, bound));
        self.live_edges += 1;
        Ok(())
    }

    /// Delete the edge `u -> v`, returning its bound.
    pub fn remove_edge(&mut self, u: PatternNodeId, v: PatternNodeId) -> Result<Bound> {
        if !self.contains(u) {
            return Err(GraphError::MissingPatternNode(u));
        }
        if !self.contains(v) {
            return Err(GraphError::MissingPatternNode(v));
        }
        let adj = &mut self.out[u.index()];
        let bound = match adj.binary_search_by_key(&v, |&(t, _)| t) {
            Ok(pos) => adj.remove(pos).1,
            Err(_) => return Err(GraphError::MissingPatternEdge(u, v)),
        };
        let radj = &mut self.inn[v.index()];
        let pos = radj
            .binary_search_by_key(&u, |&(s, _)| s)
            .expect("pattern in-adjacency out of sync");
        radj.remove(pos);
        self.live_edges -= 1;
        Ok(bound)
    }
}

fn remove_sorted(v: &mut Vec<(PatternNodeId, Bound)>, key: PatternNodeId) {
    if let Ok(pos) = v.binary_search_by_key(&key, |&(n, _)| n) {
        v.remove(pos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::LabelInterner;

    fn labels() -> (Label, Label, Label) {
        let mut li = LabelInterner::new();
        (li.intern("PM"), li.intern("SE"), li.intern("TE"))
    }

    #[test]
    fn bound_admits_distances() {
        assert!(Bound::Hops(3).admits(3));
        assert!(Bound::Hops(3).admits(1));
        assert!(!Bound::Hops(3).admits(4));
        assert!(!Bound::Hops(3).admits(u32::MAX));
        assert!(Bound::Unbounded.admits(1_000_000));
        assert!(!Bound::Unbounded.admits(u32::MAX));
    }

    #[test]
    fn bound_subsumption_is_a_partial_order() {
        assert!(Bound::Unbounded.subsumes(Bound::Hops(7)));
        assert!(Bound::Hops(5).subsumes(Bound::Hops(3)));
        assert!(!Bound::Hops(3).subsumes(Bound::Hops(5)));
        assert!(!Bound::Hops(3).subsumes(Bound::Unbounded));
        assert!(Bound::Unbounded.subsumes(Bound::Unbounded));
    }

    #[test]
    fn bound_displays_like_the_paper() {
        assert_eq!(Bound::Hops(3).to_string(), "3");
        assert_eq!(Bound::Unbounded.to_string(), "*");
    }

    #[test]
    fn build_small_pattern() {
        let (pm, se, te) = labels();
        let mut p = PatternGraph::new();
        let a = p.add_node(pm);
        let b = p.add_node(se);
        let c = p.add_node(te);
        p.add_edge(a, b, Bound::Hops(3)).unwrap();
        p.add_edge(b, c, Bound::Unbounded).unwrap();
        assert_eq!(p.node_count(), 3);
        assert_eq!(p.edge_count(), 2);
        assert_eq!(p.bound(a, b), Some(Bound::Hops(3)));
        assert_eq!(p.bound(b, a), None);
        assert_eq!(p.out_edges(b), &[(c, Bound::Unbounded)]);
        assert_eq!(p.in_edges(b), &[(a, Bound::Hops(3))]);
    }

    #[test]
    fn zero_bound_rejected() {
        let (pm, se, _) = labels();
        let mut p = PatternGraph::new();
        let a = p.add_node(pm);
        let b = p.add_node(se);
        assert_eq!(p.add_edge(a, b, Bound::Hops(0)), Err(GraphError::ZeroBound));
    }

    #[test]
    fn duplicate_and_missing_pattern_edges() {
        let (pm, se, _) = labels();
        let mut p = PatternGraph::new();
        let a = p.add_node(pm);
        let b = p.add_node(se);
        p.add_edge(a, b, Bound::Hops(2)).unwrap();
        assert_eq!(
            p.add_edge(a, b, Bound::Hops(4)),
            Err(GraphError::DuplicatePatternEdge(a, b))
        );
        assert_eq!(
            p.remove_edge(b, a),
            Err(GraphError::MissingPatternEdge(b, a))
        );
        assert_eq!(p.remove_edge(a, b), Ok(Bound::Hops(2)));
        assert_eq!(p.edge_count(), 0);
    }

    #[test]
    fn remove_node_returns_incident_edges() {
        let (pm, se, te) = labels();
        let mut p = PatternGraph::new();
        let a = p.add_node(pm);
        let b = p.add_node(se);
        let c = p.add_node(te);
        p.add_edge(a, b, Bound::Hops(1)).unwrap();
        p.add_edge(b, c, Bound::Hops(2)).unwrap();
        let removed = p.remove_node(b).unwrap();
        assert_eq!(removed.len(), 2);
        assert!(removed.contains(&(b, c, Bound::Hops(2))));
        assert!(removed.contains(&(a, b, Bound::Hops(1))));
        assert_eq!(p.edge_count(), 0);
        assert_eq!(p.node_count(), 2);
    }

    #[test]
    fn edge_iterator_skips_tombstones() {
        let (pm, se, te) = labels();
        let mut p = PatternGraph::new();
        let a = p.add_node(pm);
        let b = p.add_node(se);
        let c = p.add_node(te);
        p.add_edge(a, b, Bound::Hops(1)).unwrap();
        p.add_edge(a, c, Bound::Hops(2)).unwrap();
        p.remove_node(b).unwrap();
        let edges: Vec<_> = p.edges().collect();
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].to, c);
    }
}
