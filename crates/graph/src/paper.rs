//! The paper's running examples as reusable fixtures.
//!
//! The data graph of Figure 1(a) is never drawn edge-by-edge in the text,
//! but Table III publishes its complete shortest-path-length matrix, which
//! determines the edge set uniquely (distance-1 pairs are exactly the
//! edges). The reconstruction below reproduces **every** entry of
//! Tables III, V, VI and VII; the golden tests in the workspace assert this.
//!
//! Pattern of Figure 1(b): `PM→SE(3)`, `PM→S(3)`, `SE→TE(4)` — the reading
//! under which Table I, Example 7 and Example 9 are simultaneously
//! consistent: `tests/paper_examples.rs` holds this fixture to Table I,
//! to Table IV (Example 7's candidate sets) and to the Example 2 batch,
//! whose `UP1` Example 9 cross-eliminates.

use std::collections::HashMap;

use crate::builder::{DataGraphBuilder, PatternGraphBuilder};
use crate::data_graph::DataGraph;
use crate::ids::{NodeId, PatternNodeId};
use crate::label::LabelInterner;
use crate::pattern::PatternGraph;

/// Infinity sentinel used by the expected matrices (mirrors
/// `gpnm_distance::INF` without creating a dependency cycle).
pub const INF: u32 = u32::MAX;

/// Figure 1 / Figure 2 fixture: the 8-node data graph, the 4-node pattern,
/// and named handles for every node.
#[derive(Debug, Clone)]
pub struct Fig1 {
    /// The data graph `GD` of Fig. 1(a) (also Fig. 2(a)).
    pub graph: DataGraph,
    /// The pattern graph `GP` of Fig. 1(b) (also Fig. 2(c)).
    pub pattern: PatternGraph,
    /// Shared label interner (labels `PM`, `SE`, `TE`, `S`, `DB`).
    pub interner: LabelInterner,
    /// `PM1` — slot 0 (node order matches Table III's row order).
    pub pm1: NodeId,
    /// `PM2` — slot 1.
    pub pm2: NodeId,
    /// `SE1` — slot 2.
    pub se1: NodeId,
    /// `SE2` — slot 3.
    pub se2: NodeId,
    /// `S1` — slot 4.
    pub s1: NodeId,
    /// `TE1` — slot 5.
    pub te1: NodeId,
    /// `TE2` — slot 6.
    pub te2: NodeId,
    /// `DB1` — slot 7.
    pub db1: NodeId,
    /// Pattern node `PM`.
    pub p_pm: PatternNodeId,
    /// Pattern node `SE`.
    pub p_se: PatternNodeId,
    /// Pattern node `TE`.
    pub p_te: PatternNodeId,
    /// Pattern node `S`.
    pub p_s: PatternNodeId,
    /// Name → data-node map for table rendering.
    pub names: HashMap<String, NodeId>,
}

/// Build the Figure 1 fixture.
///
/// Node order (and therefore slot order) follows Table III:
/// `PM1, PM2, SE1, SE2, S1, TE1, TE2, DB1`.
pub fn fig1() -> Fig1 {
    let (graph, interner, names) = DataGraphBuilder::new()
        .node("PM1", "PM")
        .node("PM2", "PM")
        .node("SE1", "SE")
        .node("SE2", "SE")
        .node("S1", "S")
        .node("TE1", "TE")
        .node("TE2", "TE")
        .node("DB1", "DB")
        // The 12 edges reconstructed from Table III's distance-1 pairs.
        .edge("PM1", "SE2")
        .edge("PM1", "DB1")
        .edge("PM2", "SE1")
        .edge("SE1", "PM2")
        .edge("SE1", "SE2")
        .edge("SE1", "S1")
        .edge("SE2", "TE1")
        .edge("SE2", "DB1")
        .edge("S1", "DB1")
        .edge("TE1", "SE2")
        .edge("TE2", "S1")
        .edge("DB1", "SE1")
        .build()
        .expect("paper fixture is well-formed");

    let (pattern, interner, pnames) = PatternGraphBuilder::new()
        .node("PM", "PM")
        .node("SE", "SE")
        .node("TE", "TE")
        .node("S", "S")
        .edge("PM", "SE", 3)
        .edge("PM", "S", 3)
        .edge("SE", "TE", 4)
        .build_with_interner(interner)
        .expect("paper pattern is well-formed");

    Fig1 {
        pm1: names["PM1"],
        pm2: names["PM2"],
        se1: names["SE1"],
        se2: names["SE2"],
        s1: names["S1"],
        te1: names["TE1"],
        te2: names["TE2"],
        db1: names["DB1"],
        p_pm: pnames["PM"],
        p_se: pnames["SE"],
        p_te: pnames["TE"],
        p_s: pnames["S"],
        graph,
        pattern,
        interner,
        names,
    }
}

/// Table III: `SLen` of the Figure 1 data graph, row/column order
/// `PM1, PM2, SE1, SE2, S1, TE1, TE2, DB1`.
pub const TABLE_III: [[u32; 8]; 8] = [
    [0, 3, 2, 1, 3, 2, INF, 1],
    [INF, 0, 1, 2, 2, 3, INF, 3],
    [INF, 1, 0, 1, 1, 2, INF, 2],
    [INF, 3, 2, 0, 3, 1, INF, 1],
    [INF, 3, 2, 3, 0, 4, INF, 1],
    [INF, 4, 3, 1, 4, 0, INF, 2],
    [INF, 4, 3, 4, 1, 5, 0, 2],
    [INF, 2, 1, 2, 2, 3, INF, 0],
];

/// Table V: `SLen_new` after `UD1` = insert edge `SE1 -> TE2`.
pub const TABLE_V: [[u32; 8]; 8] = [
    [0, 3, 2, 1, 3, 2, 3, 1],
    [INF, 0, 1, 2, 2, 3, 2, 3],
    [INF, 1, 0, 1, 1, 2, 1, 2],
    [INF, 3, 2, 0, 3, 1, 3, 1],
    [INF, 3, 2, 3, 0, 4, 3, 1],
    [INF, 4, 3, 1, 4, 0, 4, 2],
    [INF, 4, 3, 4, 1, 5, 0, 2],
    [INF, 2, 1, 2, 2, 3, 2, 0],
];

/// Table VI: `SLen_new` after `UD2` = insert edge `DB1 -> S1` (applied to
/// the *original* graph, as in the paper's per-update analysis).
pub const TABLE_VI: [[u32; 8]; 8] = [
    [0, 3, 2, 1, 2, 2, INF, 1],
    [INF, 0, 1, 2, 2, 3, INF, 3],
    [INF, 1, 0, 1, 1, 2, INF, 2],
    [INF, 3, 2, 0, 2, 1, INF, 1],
    [INF, 3, 2, 3, 0, 4, INF, 1],
    [INF, 4, 3, 1, 3, 0, INF, 2],
    [INF, 4, 3, 4, 1, 5, 0, 2],
    [INF, 2, 1, 2, 1, 3, INF, 0],
];

/// Figure 4 fixture for the partition method (§V).
#[derive(Debug, Clone)]
pub struct Fig4 {
    /// The 8-node, 3-label data graph of Fig. 4(a).
    pub graph: DataGraph,
    /// Shared interner (labels `TE`, `SE`, `PM`).
    pub interner: LabelInterner,
    /// `SE1..SE4` in slot order.
    pub se: [NodeId; 4],
    /// `TE1..TE3` in slot order.
    pub te: [NodeId; 3],
    /// `PM1`.
    pub pm1: NodeId,
}

/// Build the Figure 4 fixture.
///
/// Edges (reconstructed from Examples 12–15 and Tables VIII/IX):
/// `SE1→SE2, SE2→SE3, SE3→SE4, SE1→PM1, PM1→SE4, SE2→TE1, TE1→TE2, TE2→TE3`.
pub fn fig4() -> Fig4 {
    let (graph, interner, names) = DataGraphBuilder::new()
        .node("SE1", "SE")
        .node("SE2", "SE")
        .node("SE3", "SE")
        .node("SE4", "SE")
        .node("TE1", "TE")
        .node("TE2", "TE")
        .node("TE3", "TE")
        .node("PM1", "PM")
        .edge("SE1", "SE2")
        .edge("SE2", "SE3")
        .edge("SE3", "SE4")
        .edge("SE1", "PM1")
        .edge("PM1", "SE4")
        .edge("SE2", "TE1")
        .edge("TE1", "TE2")
        .edge("TE2", "TE3")
        .build()
        .expect("fig4 fixture is well-formed");
    Fig4 {
        se: [names["SE1"], names["SE2"], names["SE3"], names["SE4"]],
        te: [names["TE1"], names["TE2"], names["TE3"]],
        pm1: names["PM1"],
        graph,
        interner,
    }
}

/// Table VIII: the shortest-path-length matrix of partition `P_SE`
/// (after combining with `P_PM`), rows/cols `SE1..SE4`.
pub const TABLE_VIII: [[u32; 4]; 4] = [
    [0, 1, 2, 2],
    [INF, 0, 1, 2],
    [INF, INF, 0, 1],
    [INF, INF, INF, 0],
];

/// Table IX: shortest path lengths from each node of `P_SE` to each node of
/// `P_TE`, rows `SE1..SE4`, cols `TE1..TE3`.
pub const TABLE_IX: [[u32; 3]; 4] = [[2, 3, 4], [1, 2, 3], [INF, INF, INF], [INF, INF, INF]];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_shape_matches_paper() {
        let f = fig1();
        assert_eq!(f.graph.node_count(), 8);
        assert_eq!(f.graph.edge_count(), 12);
        assert_eq!(f.pattern.node_count(), 4);
        assert_eq!(f.pattern.edge_count(), 3);
        // Slot order must match Table III's row order.
        assert_eq!(f.pm1, NodeId(0));
        assert_eq!(f.db1, NodeId(7));
    }

    #[test]
    fn fig1_labels() {
        let f = fig1();
        let pm = f.interner.get("PM").unwrap();
        assert_eq!(f.graph.nodes_with_label(pm), &[f.pm1, f.pm2]);
        assert_eq!(f.graph.label(f.db1), f.interner.get("DB"));
        assert_eq!(f.pattern.label(f.p_pm), Some(pm));
    }

    #[test]
    fn fig1_edges_match_distance_one_pairs_of_table_iii() {
        let f = fig1();
        for (i, row) in TABLE_III.iter().enumerate() {
            for (j, &d) in row.iter().enumerate() {
                let u = NodeId::from_index(i);
                let v = NodeId::from_index(j);
                if d == 1 {
                    assert!(f.graph.has_edge(u, v), "expected edge {u:?}->{v:?}");
                } else {
                    assert!(!f.graph.has_edge(u, v), "unexpected edge {u:?}->{v:?}");
                }
            }
        }
    }

    #[test]
    fn fig4_bridge_structure_matches_examples_12_and_13() {
        let f = fig4();
        // Example 12: SE2 is an inner bridge node of P_SE via e(SE2, TE1).
        assert!(f.graph.has_edge(f.se[1], f.te[0]));
        // Example 13: PM1 is an outer bridge node of P_SE via e(SE1, PM1).
        assert!(f.graph.has_edge(f.se[0], f.pm1));
        assert_eq!(f.graph.node_count(), 8);
        assert_eq!(f.graph.edge_count(), 8);
    }
}
