//! DER-I: candidate nodes of pattern updates (paper Algorithm 1 +
//! Example 7's refinement).

use gpnm_distance::DistanceOracle;
use gpnm_graph::{DataGraph, NodeId, NodeSet, PatternGraph, PatternNodeId};
use gpnm_matcher::MatchResult;

use crate::update::PatternUpdate;

/// The candidate sets of one pattern update.
///
/// `Can_N(UPi) = Can_AN ∪ Can_RN` (§IV-A Remark): nodes that *may* be
/// added to / removed from the matching results. Over-approximations are
/// fine — candidates drive elimination containment checks and dirty-set
/// verification, not final membership.
#[derive(Debug, Clone, Default)]
pub struct Candidates {
    /// `Can_AN`: may be added to the results.
    pub can_an: NodeSet,
    /// `Can_RN`: may be removed from the results.
    pub can_rn: NodeSet,
}

impl Candidates {
    /// `Can_N` — the union the elimination checks compare.
    pub fn can_n(&self) -> NodeSet {
        let mut u = self.can_an.clone();
        u.union_with(&self.can_rn);
        u
    }

    /// Whether both sets are empty (the update provably changes nothing
    /// at detection time).
    pub fn is_empty(&self) -> bool {
        self.can_an.is_empty() && self.can_rn.is_empty()
    }
}

/// Compute `Can_N(update)` against the *pre-update* pattern (the update is
/// not yet applied), the original data graph, the original `SLen` oracle,
/// and `IQuery`.
///
/// Kind by kind (Algorithm 1 extended to node updates):
///
/// * **InsertEdge(u,u',b)** — dual rule of Example 7: a matched `v` of `u`
///   joins `Can_RN` iff *no* matched `v'` of `u'` has `d(v,v') ≤ b`, and
///   symmetrically for the `u'` side; then the cascade re-checks, for every
///   other pattern edge touching a flagged node's pattern node, whether
///   survivors still have unflagged partners.
/// * **DeleteEdge(u,u',b)** — label-matching nodes that *failed* the old
///   bound against every counterpart join `Can_AN` (they may re-enter).
/// * **InsertNode(l)** — every `l`-labeled data node joins `Can_AN`.
/// * **DeleteNode(p)** — `IQuery[p]` joins `Can_RN` (all its matchers go);
///   label-matching non-members of `p`'s pattern neighbors join `Can_AN`
///   (their constraints relax).
///
/// A source-side check (does `v` reach some member of a set?) is one
/// [`DistanceOracle::any_within`] probe: one row fetch on the bounded-row
/// backends. A target-side check (does some member reach `v'`?) stays a
/// `within` probe per member, here and in the cascade: no backend keeps
/// reverse rows.
pub fn candidates_for<O: DistanceOracle>(
    pattern: &PatternGraph,
    graph: &DataGraph,
    oracle: &O,
    iquery: &MatchResult,
    update: &PatternUpdate,
) -> Candidates {
    match *update {
        PatternUpdate::InsertEdge { from, to, bound } => {
            let mut c = Candidates::default();
            if from.index() >= iquery.slot_count() || to.index() >= iquery.slot_count() {
                return c;
            }
            // Dual rule on the matched sets.
            for v in iquery.matches_of(from) {
                if !oracle.any_within(v, iquery.set(to), bound) {
                    c.can_rn.insert(v);
                }
            }
            for v2 in iquery.matches_of(to) {
                let has_partner = iquery.matches_of(from).any(|v| oracle.within(v, v2, bound));
                if !has_partner {
                    c.can_rn.insert(v2);
                }
            }
            cascade_removals(pattern, oracle, iquery, &mut c.can_rn, &[from, to]);
            c
        }
        PatternUpdate::DeleteEdge { from, to } => {
            let mut c = Candidates::default();
            let Some(bound) = pattern.bound(from, to) else {
                return c;
            };
            let (Some(l_from), Some(l_to)) = (pattern.label(from), pattern.label(to)) else {
                return c;
            };
            // Label-level pairs that failed the old bound may re-enter.
            let to_class: NodeSet = graph.nodes_with_label(l_to).iter().copied().collect();
            for &v in graph.nodes_with_label(l_from) {
                if !oracle.any_within(v, &to_class, bound) {
                    c.can_an.insert(v);
                }
            }
            for &v2 in graph.nodes_with_label(l_to) {
                let had_partner = graph
                    .nodes_with_label(l_from)
                    .iter()
                    .any(|&v| oracle.within(v, v2, bound));
                if !had_partner {
                    c.can_an.insert(v2);
                }
            }
            c
        }
        PatternUpdate::InsertNode { label } => {
            let mut c = Candidates::default();
            for &v in graph.nodes_with_label(label) {
                c.can_an.insert(v);
            }
            c
        }
        PatternUpdate::DeleteNode { node } => {
            let mut c = Candidates::default();
            if node.index() < iquery.slot_count() {
                for v in iquery.matches_of(node) {
                    c.can_rn.insert(v);
                }
            }
            // Neighbors' constraints relax: non-members may enter.
            let mut neighbors: Vec<PatternNodeId> = pattern
                .out_edges(node)
                .iter()
                .map(|&(t, _)| t)
                .chain(pattern.in_edges(node).iter().map(|&(s, _)| s))
                .collect();
            neighbors.sort_unstable();
            neighbors.dedup();
            for w in neighbors {
                let Some(lw) = pattern.label(w) else { continue };
                for &v in graph.nodes_with_label(lw) {
                    if !iquery.contains(w, v) {
                        c.can_an.insert(v);
                    }
                }
            }
            c
        }
    }
}

/// Example 7's cascade: after flagging the initial candidates, check
/// whether nodes "connected to" them (via other pattern edges) lose their
/// last unflagged partner; iterate to a fixpoint.
fn cascade_removals<O: DistanceOracle>(
    pattern: &PatternGraph,
    oracle: &O,
    iquery: &MatchResult,
    flagged: &mut NodeSet,
    seeds: &[PatternNodeId],
) {
    // Pattern nodes whose matchers need re-checking, seeded with the
    // endpoints of the new edge.
    let mut dirty: Vec<PatternNodeId> = seeds.to_vec();
    while let Some(u) = dirty.pop() {
        // Re-check matchers of every pattern node sharing an edge with u.
        let mut to_check: Vec<(PatternNodeId, PatternNodeId, gpnm_graph::Bound, bool)> = Vec::new();
        for &(t, b) in pattern.out_edges(u) {
            to_check.push((u, t, b, true)); // u -> t: u-side needs partner in t
        }
        for &(s, b) in pattern.in_edges(u) {
            to_check.push((s, u, b, false)); // s -> u: t-side is u
        }
        for (pu, pt, bound, _) in to_check {
            // An endpoint created after `iquery` was answered has no
            // matchers yet: nothing on this edge had support to lose.
            if pu.index() >= iquery.slot_count() || pt.index() >= iquery.slot_count() {
                continue;
            }
            // A matcher is flagged only when it *had* support and every
            // supporting partner is now flagged — a node that never had a
            // partner for this edge (possible under simulation semantics)
            // was not disturbed by the candidates and stays unflagged.
            let mut unflagged = iquery.set(pt).clone();
            for v2 in iquery.set(pt).intersection(flagged) {
                unflagged.remove(v2);
            }
            let mut newly: Vec<NodeId> = Vec::new();
            for v in iquery.matches_of(pu) {
                if flagged.contains(v) {
                    continue;
                }
                let had_support = oracle.any_within(v, iquery.set(pt), bound);
                let has_unflagged = oracle.any_within(v, &unflagged, bound);
                if had_support && !has_unflagged {
                    newly.push(v);
                }
            }
            if !newly.is_empty() {
                for v in newly {
                    flagged.insert(v);
                }
                if !dirty.contains(&pu) {
                    dirty.push(pu);
                }
            }
            // And symmetrically for the target side (predecessor support).
            let mut newly_t: Vec<NodeId> = Vec::new();
            for v2 in iquery.matches_of(pt) {
                if flagged.contains(v2) {
                    continue;
                }
                let had_support = iquery.matches_of(pu).any(|v| oracle.within(v, v2, bound));
                let has_unflagged = iquery
                    .matches_of(pu)
                    .any(|v| !flagged.contains(v) && oracle.within(v, v2, bound));
                if had_support && !has_unflagged {
                    newly_t.push(v2);
                }
            }
            if !newly_t.is_empty() {
                for v in newly_t {
                    flagged.insert(v);
                }
                if !dirty.contains(&pt) {
                    dirty.push(pt);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpnm_distance::apsp_matrix;
    use gpnm_graph::paper::fig1;
    use gpnm_graph::Bound;
    use gpnm_matcher::{match_graph, MatchSemantics};

    fn setup() -> (
        gpnm_graph::paper::Fig1,
        gpnm_distance::DistanceMatrix,
        MatchResult,
    ) {
        let f = fig1();
        let slen = apsp_matrix(&f.graph);
        let iq = match_graph(&f.pattern, &f.graph, &slen, MatchSemantics::Simulation);
        (f, slen, iq)
    }

    #[test]
    fn table_iv_golden_up1() {
        // UP1: insert e(PM, TE) bound 2 => Can_RN = {PM2, TE2} (Table IV).
        let (f, slen, iq) = setup();
        let c = candidates_for(
            &f.pattern,
            &f.graph,
            &slen,
            &iq,
            &PatternUpdate::InsertEdge {
                from: f.p_pm,
                to: f.p_te,
                bound: Bound::Hops(2),
            },
        );
        assert_eq!(
            c.can_rn.iter().collect::<Vec<_>>(),
            vec![f.pm2, f.te2],
            "paper Table IV row UP1"
        );
        assert!(c.can_an.is_empty());
    }

    #[test]
    fn table_iv_golden_up2() {
        // UP2: insert e(S, TE) bound 4 => Can_RN = {TE2} (Table IV).
        let (f, slen, iq) = setup();
        let c = candidates_for(
            &f.pattern,
            &f.graph,
            &slen,
            &iq,
            &PatternUpdate::InsertEdge {
                from: f.p_s,
                to: f.p_te,
                bound: Bound::Hops(4),
            },
        );
        assert_eq!(
            c.can_rn.iter().collect::<Vec<_>>(),
            vec![f.te2],
            "paper Table IV row UP2"
        );
    }

    #[test]
    fn cascade_flags_a_matcher_whose_every_partner_is_flagged() {
        // Pattern A -> B (bound 1); insert B -> C (bound 1). b1 has no C,
        // so it is flagged; a1's only B partner is b1, so the cascade
        // flags a1 too. a2 keeps the unflagged b2.
        let (g, li, n) = gpnm_graph::DataGraphBuilder::new()
            .node("a1", "A")
            .node("b1", "B")
            .node("a2", "A")
            .node("b2", "B")
            .node("c1", "C")
            .edge("a1", "b1")
            .edge("a2", "b2")
            .edge("b2", "c1")
            .build()
            .unwrap();
        let (mut p, _, pn) = gpnm_graph::PatternGraphBuilder::new()
            .node("A", "A")
            .node("B", "B")
            .edge("A", "B", 1)
            .build_with_interner(li.clone())
            .unwrap();
        let c_node = p.add_node(li.get("C").unwrap());
        let slen = apsp_matrix(&g);
        let iq = match_graph(&p, &g, &slen, MatchSemantics::Simulation);
        let c = candidates_for(
            &p,
            &g,
            &slen,
            &iq,
            &PatternUpdate::InsertEdge {
                from: pn["B"],
                to: c_node,
                bound: Bound::Hops(1),
            },
        );
        assert_eq!(c.can_rn.iter().collect::<Vec<_>>(), vec![n["a1"], n["b1"]]);
    }

    #[test]
    fn delete_edge_candidates_cover_reentrants() {
        // Delete SE -> TE (bound 4): TE2 previously failed the bound against
        // every SE (column TE2 of Table III is infinite), so it may enter.
        let (f, slen, iq) = setup();
        let c = candidates_for(
            &f.pattern,
            &f.graph,
            &slen,
            &iq,
            &PatternUpdate::DeleteEdge {
                from: f.p_se,
                to: f.p_te,
            },
        );
        assert!(c.can_an.contains(f.te2));
        assert!(c.can_rn.is_empty());
    }

    #[test]
    fn insert_node_candidates_are_label_set() {
        let (f, slen, iq) = setup();
        let se = f.interner.get("SE").unwrap();
        let c = candidates_for(
            &f.pattern,
            &f.graph,
            &slen,
            &iq,
            &PatternUpdate::InsertNode { label: se },
        );
        assert_eq!(c.can_an.iter().collect::<Vec<_>>(), vec![f.se1, f.se2]);
    }

    #[test]
    fn delete_node_candidates() {
        let (f, slen, iq) = setup();
        let c = candidates_for(
            &f.pattern,
            &f.graph,
            &slen,
            &iq,
            &PatternUpdate::DeleteNode { node: f.p_te },
        );
        // TE's matchers may all be removed.
        assert!(c.can_rn.contains(f.te1) && c.can_rn.contains(f.te2));
        // SE (its only pattern neighbor) has both SEs matched already, so
        // nothing re-enters.
        assert!(c.can_an.is_empty());
    }

    #[test]
    fn satisfied_insert_has_no_candidates() {
        // Insert PM -> SE bound 3 again conceptually: everyone already has
        // partners at distance <= 3, so Can_N would be empty. Use a fresh
        // edge PM -> DB... no DB in pattern; instead insert S -> DB?  Use
        // an edge between matched sets that is satisfied: SE -> S bound 3.
        let (f, slen, iq) = setup();
        let c = candidates_for(
            &f.pattern,
            &f.graph,
            &slen,
            &iq,
            &PatternUpdate::InsertEdge {
                from: f.p_se,
                to: f.p_s,
                bound: Bound::Hops(3),
            },
        );
        // d(SE1,S1)=1, d(SE2,S1)=3: both SEs have the partner; S1 has both.
        assert!(
            c.is_empty(),
            "satisfied constraint yields no candidates: {c:?}"
        );
    }
}
