//! Top-k matching node selection — the paper's §VIII future-work item (2),
//! implemented as an extension.
//!
//! Within a pattern node's match set, every member satisfies the bounds;
//! what distinguishes them is *how tightly* they sit among their partner
//! matches. We rank by the sum, over the pattern edges incident to the
//! pattern node, of the distance to the nearest matched partner — the
//! natural "closeness" reading of match relevance (cf. Fan et al.'s
//! diversified matching \[11\]).

use gpnm_distance::{sat_add, DistanceOracle, INF};
use gpnm_graph::{NodeId, PatternGraph, PatternNodeId};
use gpnm_matcher::MatchResult;

/// One ranked matcher of a pattern node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankedMatch {
    /// The matching data node.
    pub node: NodeId,
    /// Sum of nearest-partner distances over incident pattern edges
    /// (smaller = tighter match).
    pub score: u32,
}

/// The `k` tightest matchers of pattern node `u`, ascending by score, ties
/// broken by node id for determinism.
///
/// Returns fewer than `k` entries when the match set is smaller.
pub fn top_k_matches<O: DistanceOracle>(
    pattern: &PatternGraph,
    result: &MatchResult,
    oracle: &O,
    u: PatternNodeId,
    k: usize,
) -> Vec<RankedMatch> {
    let mut ranked: Vec<RankedMatch> = result
        .matches_of(u)
        .map(|v| RankedMatch {
            node: v,
            score: score_of(pattern, result, oracle, u, v),
        })
        .collect();
    ranked.sort_by_key(|r| (r.score, r.node));
    ranked.truncate(k);
    ranked
}

fn score_of<O: DistanceOracle>(
    pattern: &PatternGraph,
    result: &MatchResult,
    oracle: &O,
    u: PatternNodeId,
    v: NodeId,
) -> u32 {
    let mut score = 0u32;
    for &(succ, _) in pattern.out_edges(u) {
        let nearest = result
            .matches_of(succ)
            .map(|v2| oracle.distance(v, v2))
            .min()
            .unwrap_or(INF);
        score = sat_add(score, nearest);
    }
    for &(pred, _) in pattern.in_edges(u) {
        let nearest = result
            .matches_of(pred)
            .map(|v0| oracle.distance(v0, v))
            .min()
            .unwrap_or(INF);
        // Predecessor legs may be infinite: simulation constrains only a
        // member's successors, so it never needed them. Cap their
        // contribution so one missing leg doesn't flatten the ordering.
        if nearest != INF {
            score = sat_add(score, nearest);
        }
    }
    score
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpnm_distance::apsp_matrix;
    use gpnm_graph::paper::fig1;
    use gpnm_matcher::{match_graph, MatchSemantics};

    #[test]
    fn pm_ranking_prefers_pm1() {
        let f = fig1();
        let slen = apsp_matrix(&f.graph);
        let m = match_graph(&f.pattern, &f.graph, &slen, MatchSemantics::Simulation);
        // PM1: nearest SE = SE2 (1), nearest S = S1 (3) -> 4.
        // PM2: nearest SE = SE1 (1), nearest S = S1 (2) -> 3.
        let ranked = top_k_matches(&f.pattern, &m, &slen, f.p_pm, 2);
        assert_eq!(ranked.len(), 2);
        assert_eq!(ranked[0].node, f.pm2);
        assert_eq!(ranked[0].score, 3);
        assert_eq!(ranked[1].node, f.pm1);
        assert_eq!(ranked[1].score, 4);
    }

    #[test]
    fn k_truncates_and_small_sets_survive() {
        let f = fig1();
        let slen = apsp_matrix(&f.graph);
        let m = match_graph(&f.pattern, &f.graph, &slen, MatchSemantics::Simulation);
        assert_eq!(top_k_matches(&f.pattern, &m, &slen, f.p_pm, 1).len(), 1);
        assert_eq!(top_k_matches(&f.pattern, &m, &slen, f.p_s, 10).len(), 1);
    }

    #[test]
    fn te_ranking_caps_missing_predecessor_leg() {
        let f = fig1();
        let slen = apsp_matrix(&f.graph);
        let m = match_graph(&f.pattern, &f.graph, &slen, MatchSemantics::Simulation);
        // TE1 has SE predecessors at distance 1 (SE2); TE2 has none (its
        // predecessor leg is skipped), so TE2 scores 0 and TE1 scores 1 —
        // both remain finite and ordered deterministically.
        let ranked = top_k_matches(&f.pattern, &m, &slen, f.p_te, 2);
        assert_eq!(ranked.len(), 2);
        assert!(ranked.iter().all(|r| r.score != INF));
    }
}
