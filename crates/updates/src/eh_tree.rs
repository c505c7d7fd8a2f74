//! The Elimination Hierarchy Tree (paper §IV-C, Fig. 3).
//!
//! Each tree node is an update; a child is eliminated by its parent. The
//! construction follows the paper's strategies: the update with maximal
//! coverage roots its tree; every update with at least one eliminator
//! becomes a child of its *tightest* eliminator (the smallest coverage
//! that still covers it — this reproduces Fig. 3, where `UP2` hangs under
//! `UP1` rather than under the larger `UD1`); incomparable updates root
//! their own trees, so the index is in general a forest.
//!
//! [`EhTree::build`] costs O(n + R) for `n` updates and `R` relations, plus
//! the O(r log r) sort of the `r` roots: one pass over the relations keeps
//! each update's tightest eliminator so far.

use crate::elimination::{debug_assert_positions, EliminationGraph, UpdateEffect};

/// The EH-Tree (forest) over one batch of updates.
#[derive(Debug, Clone)]
pub struct EhTree {
    /// Parent batch-index per update (`None` for roots).
    parent: Vec<Option<usize>>,
    /// Children lists, parallel to the batch.
    children: Vec<Vec<usize>>,
    /// Root indices, by descending coverage size.
    roots: Vec<usize>,
}

impl EhTree {
    /// Build the tree from detected relations. `effects[i].index` must be
    /// `i`, as for [`EliminationGraph::detect`].
    pub fn build(effects: &[UpdateEffect], relations: &EliminationGraph) -> Self {
        debug_assert_positions(effects);
        let n = effects.len();
        // Tightest eliminator: smallest coverage, then earliest index.
        let tightness = |i: usize| (effects[i].coverage.len(), i);
        let mut parent: Vec<Option<usize>> = vec![None; n];
        for r in relations.relations() {
            let p = &mut parent[r.eliminated];
            if p.map_or(true, |q| tightness(r.eliminator) < tightness(q)) {
                *p = Some(r.eliminator);
            }
        }
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, &p) in parent.iter().enumerate() {
            if let Some(p) = p {
                children[p].push(i);
            }
        }
        let mut roots: Vec<usize> = (0..n).filter(|&i| parent[i].is_none()).collect();
        roots.sort_by_key(|&i| std::cmp::Reverse(effects[i].coverage.len()));
        EhTree {
            parent,
            children,
            roots,
        }
    }

    /// Parent of update `i` (its tightest eliminator), if eliminated.
    pub fn parent(&self, i: usize) -> Option<usize> {
        self.parent.get(i).copied().flatten()
    }

    /// Children of update `i`.
    pub fn children(&self, i: usize) -> &[usize] {
        self.children.get(i).map_or(&[], Vec::as_slice)
    }

    /// Root updates (the survivors): no other update eliminates them.
    pub fn roots(&self) -> &[usize] {
        &self.roots
    }

    /// Batch indices of eliminated updates (non-roots) — the paper's `Ue`.
    pub fn eliminated(&self) -> impl Iterator<Item = usize> + '_ {
        self.parent
            .iter()
            .enumerate()
            .filter(|(_, p)| p.is_some())
            .map(|(i, _)| i)
    }

    /// Number of eliminated updates (`|Ue|` in the §VI complexity bound).
    pub fn eliminated_count(&self) -> usize {
        self.parent.iter().filter(|p| p.is_some()).count()
    }

    /// Number of updates.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Depth of node `i` (roots are at depth 0).
    pub fn depth(&self, i: usize) -> usize {
        let mut d = 0;
        let mut cur = i;
        while let Some(p) = self.parent(cur) {
            d += 1;
            cur = p;
        }
        d
    }

    /// Pre-order traversal from the roots — the §VI Step 1-2 search order.
    pub fn preorder(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.len());
        let mut stack: Vec<usize> = self.roots.iter().rev().copied().collect();
        while let Some(i) = stack.pop() {
            out.push(i);
            for &c in self.children(i).iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// Graphviz rendering, labeling nodes with the update codes.
    pub fn to_dot(&self, effects: &[UpdateEffect]) -> String {
        let mut s = String::from("digraph eh_tree {\n");
        for e in effects {
            s.push_str(&format!(
                "  u{} [label=\"#{} {} |cov|={}\"];\n",
                e.index,
                e.index,
                e.update.code(),
                e.coverage.len()
            ));
        }
        for (i, &p) in self.parent.iter().enumerate() {
            if let Some(p) = p {
                s.push_str(&format!("  u{p} -> u{i};\n"));
            }
        }
        s.push_str("}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::update::{DataUpdate, PatternUpdate, Update};
    use gpnm_graph::{Bound, NodeId, PatternNodeId};

    fn effect(index: usize, update: Update, ids: &[u32]) -> UpdateEffect {
        UpdateEffect {
            index,
            update,
            coverage: ids.iter().map(|&i| NodeId(i)).collect(),
            insertion: true,
            cross_eliminates: Vec::new(),
        }
    }

    /// Reconstructs Fig. 3: UD1 at the root, children UD2 and UP1, with UP2
    /// under UP1.
    #[test]
    fn fig3_shape() {
        // Batch order: UP1(#0), UP2(#1), UD1(#2), UD2(#3) — coverage from
        // Tables IV and VII.
        let up1 = effect(
            0,
            Update::Pattern(PatternUpdate::InsertEdge {
                from: PatternNodeId(0),
                to: PatternNodeId(2),
                bound: Bound::Hops(2),
            }),
            &[1, 6], // {PM2, TE2}
        );
        let up2 = effect(
            1,
            Update::Pattern(PatternUpdate::InsertEdge {
                from: PatternNodeId(3),
                to: PatternNodeId(2),
                bound: Bound::Hops(4),
            }),
            &[6], // {TE2}
        );
        let mut ud1 = effect(
            2,
            Update::Data(DataUpdate::InsertEdge {
                from: NodeId(2),
                to: NodeId(6),
            }),
            &[0, 1, 2, 3, 4, 5, 6, 7], // all eight
        );
        ud1.cross_eliminates = vec![0, 1]; // UD1 <=> UP1 and covers UP2 too
        let ud2 = effect(
            3,
            Update::Data(DataUpdate::InsertEdge {
                from: NodeId(7),
                to: NodeId(4),
            }),
            &[0, 3, 4, 5, 7], // {PM1, SE2, S1, TE1, DB1}
        );
        let effects = vec![up1, up2, ud1, ud2];
        let rel = EliminationGraph::detect(&effects);
        let tree = EhTree::build(&effects, &rel);
        assert_eq!(tree.roots(), &[2], "UD1 is the root (max coverage)");
        assert_eq!(tree.parent(3), Some(2), "UD2 under UD1");
        assert_eq!(tree.parent(0), Some(2), "UP1 under UD1 (cross)");
        assert_eq!(
            tree.parent(1),
            Some(0),
            "UP2 under UP1 — the tightest eliminator, exactly Fig. 3"
        );
        assert_eq!(tree.eliminated_count(), 3);
        assert_eq!(tree.depth(1), 2);
        assert_eq!(tree.preorder(), vec![2, 0, 1, 3]);
    }

    #[test]
    fn incomparable_updates_form_a_forest() {
        let a = effect(
            0,
            Update::Data(DataUpdate::InsertEdge {
                from: NodeId(0),
                to: NodeId(1),
            }),
            &[1, 2],
        );
        let b = effect(
            1,
            Update::Data(DataUpdate::InsertEdge {
                from: NodeId(2),
                to: NodeId(3),
            }),
            &[3, 4],
        );
        let effects = vec![a, b];
        let rel = EliminationGraph::detect(&effects);
        let tree = EhTree::build(&effects, &rel);
        assert_eq!(tree.roots().len(), 2);
        assert_eq!(tree.eliminated_count(), 0);
    }

    #[test]
    fn dot_export_mentions_every_update() {
        let a = effect(
            0,
            Update::Data(DataUpdate::InsertEdge {
                from: NodeId(0),
                to: NodeId(1),
            }),
            &[1, 2],
        );
        let b = effect(
            1,
            Update::Data(DataUpdate::InsertEdge {
                from: NodeId(0),
                to: NodeId(2),
            }),
            &[1],
        );
        let effects = vec![a, b];
        let rel = EliminationGraph::detect(&effects);
        let tree = EhTree::build(&effects, &rel);
        let dot = tree.to_dot(&effects);
        assert!(dot.contains("u0"));
        assert!(dot.contains("u0 -> u1"));
        assert!(dot.starts_with("digraph"));
    }
}
