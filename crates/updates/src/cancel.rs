//! Net-effect batch reduction (the §I-B motivation: "if one edge is firstly
//! removed ... and then inserted back ..., the effects of the two updates
//! eliminate each other").
//!
//! Reduction happens *before* any detection work: an update pair with zero
//! net effect never costs a commit, a tree slot, or a repair pass.

use std::collections::HashMap;

use gpnm_graph::{DataGraph, NodeId, PatternGraph};

use crate::batch::UpdateBatch;
use crate::update::{DataUpdate, PatternUpdate, Update};

/// Reduce `batch` to its net effect against `graph`/`pattern`:
///
/// * toggling edge updates cancel pairwise (insert+delete or
///   delete+insert of the same edge; pattern edges must also agree on the
///   bound for the insert to restore the status quo);
/// * a *data* node inserted and later deleted within the batch is dropped
///   along with every data-edge update that references it. Pattern-node
///   insert/delete pairs are not cancelled; they pass through unchanged.
///
/// The surviving updates keep their relative order, so id prediction for
/// nodes created by surviving inserts still works (slot numbering is
/// unaffected by *edge* cancellations; cancelled *node* inserts would shift
/// ids, so data-node insert/delete pairs are only cancelled when no
/// surviving update references any node created later in the batch —
/// conservatively approximated by requiring the cancelled insert to be the
/// batch's last created data node or followed only by cancelled inserts).
pub fn reduce_batch(graph: &DataGraph, pattern: &PatternGraph, batch: &UpdateBatch) -> UpdateBatch {
    let updates = batch.updates();
    let mut keep = vec![true; updates.len()];

    cancel_node_pairs(graph, updates, &mut keep);
    cancel_edge_toggles(graph, pattern, updates, &mut keep);

    UpdateBatch::from_updates(
        updates
            .iter()
            .zip(keep.iter())
            .filter(|(_, &k)| k)
            .map(|(u, _)| *u)
            .collect(),
    )
}

/// Cancel data-node insert/delete pairs plus the edge updates between them
/// that reference the doomed node.
fn cancel_node_pairs(graph: &DataGraph, updates: &[Update], keep: &mut [bool]) {
    // Predict created ids: slots are assigned sequentially from the current
    // slot count, in batch order of node inserts.
    let mut next_slot = graph.slot_count();
    let mut created_at: HashMap<NodeId, usize> = HashMap::new();
    let mut created_order: Vec<NodeId> = Vec::new();
    for (i, u) in updates.iter().enumerate() {
        if let Update::Data(DataUpdate::InsertNode { .. }) = u {
            let id = NodeId::from_index(next_slot);
            next_slot += 1;
            created_at.insert(id, i);
            created_order.push(id);
        }
    }
    // A created node deleted later in the batch cancels — but only if it is
    // the most recently created *surviving* node, so surviving ids are
    // unaffected (conservative suffix rule).
    for (i, u) in updates.iter().enumerate().rev() {
        let Update::Data(DataUpdate::DeleteNode { node }) = u else {
            continue;
        };
        let Some(&born) = created_at.get(node) else {
            continue;
        };
        if born >= i || !keep[born] || !keep[i] {
            continue;
        }
        // Suffix rule: every node created after `node` must already be
        // cancelled for the id prediction of later references to survive.
        let later_survives = created_order
            .iter()
            .filter(|&&c| created_at[&c] > born)
            .any(|&c| keep[created_at[&c]]);
        if later_survives {
            continue;
        }
        keep[born] = false;
        keep[i] = false;
        // Drop edge updates that reference the doomed node.
        for (j, w) in updates.iter().enumerate() {
            if let Update::Data(
                DataUpdate::InsertEdge { from, to } | DataUpdate::DeleteEdge { from, to },
            ) = w
            {
                if *from == *node || *to == *node {
                    keep[j] = false;
                }
            }
        }
    }
}

/// Cancel edge updates whose net effect restores the pre-batch state.
fn cancel_edge_toggles(
    graph: &DataGraph,
    pattern: &PatternGraph,
    updates: &[Update],
    keep: &mut [bool],
) {
    // Data edges: group surviving updates per (from, to); walk the toggle
    // chain and keep only the net op (or nothing).
    let mut data_groups: HashMap<(NodeId, NodeId), Vec<usize>> = HashMap::new();
    for (i, u) in updates.iter().enumerate() {
        if !keep[i] {
            continue;
        }
        if let Update::Data(
            DataUpdate::InsertEdge { from, to } | DataUpdate::DeleteEdge { from, to },
        ) = u
        {
            data_groups.entry((*from, *to)).or_default().push(i);
        }
    }
    for ((from, to), indices) in data_groups {
        if indices.len() < 2 {
            continue;
        }
        let initially = graph.has_edge(from, to);
        let finally = matches!(
            updates[*indices.last().expect("non-empty group")],
            Update::Data(DataUpdate::InsertEdge { .. })
        );
        if initially == finally {
            // Net zero: drop the whole chain.
            for i in indices {
                keep[i] = false;
            }
        } else {
            // Net single op: keep only the last.
            for &i in &indices[..indices.len() - 1] {
                keep[i] = false;
            }
        }
    }

    // Pattern edges: same, except a re-insert only cancels when the bound
    // matches the pre-batch bound.
    let mut pat_groups: HashMap<(u32, u32), Vec<usize>> = HashMap::new();
    for (i, u) in updates.iter().enumerate() {
        if !keep[i] {
            continue;
        }
        if let Update::Pattern(
            PatternUpdate::InsertEdge { from, to, .. } | PatternUpdate::DeleteEdge { from, to },
        ) = u
        {
            pat_groups.entry((from.0, to.0)).or_default().push(i);
        }
    }
    for ((from, to), indices) in pat_groups {
        if indices.len() < 2 {
            continue;
        }
        let from = gpnm_graph::PatternNodeId(from);
        let to = gpnm_graph::PatternNodeId(to);
        let initial_bound = pattern.bound(from, to);
        let final_bound = match updates[*indices.last().expect("non-empty group")] {
            Update::Pattern(PatternUpdate::InsertEdge { bound, .. }) => Some(bound),
            _ => None,
        };
        if initial_bound == final_bound {
            for i in indices {
                keep[i] = false;
            }
        } else if initial_bound.is_some() && final_bound.is_some() {
            // Bound change on an existing edge: net = delete + re-insert.
            // Keep the last delete and the last insert, in that order.
            let last_insert = *indices.last().expect("non-empty group");
            let last_delete = indices
                .iter()
                .rev()
                .find(|&&i| {
                    matches!(
                        updates[i],
                        Update::Pattern(PatternUpdate::DeleteEdge { .. })
                    )
                })
                .copied();
            for &i in &indices {
                keep[i] = i == last_insert || Some(i) == last_delete;
            }
        } else {
            for &i in &indices[..indices.len() - 1] {
                keep[i] = false;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpnm_graph::paper::fig1;
    use gpnm_graph::Bound;

    #[test]
    fn insert_then_delete_edge_cancels() {
        let f = fig1();
        let mut b = UpdateBatch::new();
        b.push(DataUpdate::InsertEdge {
            from: f.se1,
            to: f.te2,
        });
        b.push(DataUpdate::DeleteEdge {
            from: f.se1,
            to: f.te2,
        });
        let reduced = reduce_batch(&f.graph, &f.pattern, &b);
        assert!(reduced.is_empty());
    }

    #[test]
    fn delete_then_reinsert_cancels() {
        let f = fig1();
        let mut b = UpdateBatch::new();
        b.push(DataUpdate::DeleteEdge {
            from: f.pm1,
            to: f.db1,
        });
        b.push(DataUpdate::InsertEdge {
            from: f.pm1,
            to: f.db1,
        });
        let reduced = reduce_batch(&f.graph, &f.pattern, &b);
        assert!(reduced.is_empty());
    }

    #[test]
    fn toggle_chain_reduces_to_net_op() {
        let f = fig1();
        // absent -> insert -> delete -> insert: net = one insert (the last).
        let mut b = UpdateBatch::new();
        b.push(DataUpdate::InsertEdge {
            from: f.se1,
            to: f.te2,
        });
        b.push(DataUpdate::DeleteEdge {
            from: f.se1,
            to: f.te2,
        });
        b.push(DataUpdate::InsertEdge {
            from: f.se1,
            to: f.te2,
        });
        let reduced = reduce_batch(&f.graph, &f.pattern, &b);
        assert_eq!(reduced.len(), 1);
        assert_eq!(
            reduced.updates()[0],
            Update::Data(DataUpdate::InsertEdge {
                from: f.se1,
                to: f.te2
            })
        );
    }

    #[test]
    fn pattern_reinsert_with_same_bound_cancels() {
        let f = fig1();
        let mut b = UpdateBatch::new();
        b.push(PatternUpdate::DeleteEdge {
            from: f.p_pm,
            to: f.p_se,
        });
        b.push(PatternUpdate::InsertEdge {
            from: f.p_pm,
            to: f.p_se,
            bound: Bound::Hops(3), // the original bound
        });
        let reduced = reduce_batch(&f.graph, &f.pattern, &b);
        assert!(reduced.is_empty());
    }

    #[test]
    fn pattern_reinsert_with_different_bound_survives() {
        let f = fig1();
        let mut b = UpdateBatch::new();
        b.push(PatternUpdate::DeleteEdge {
            from: f.p_pm,
            to: f.p_se,
        });
        b.push(PatternUpdate::InsertEdge {
            from: f.p_pm,
            to: f.p_se,
            bound: Bound::Hops(1), // tightened: net bound change
        });
        let reduced = reduce_batch(&f.graph, &f.pattern, &b);
        assert_eq!(
            reduced.len(),
            2,
            "bound change must survive as delete+insert"
        );
    }

    #[test]
    fn doomed_node_and_its_edges_cancel() {
        let f = fig1();
        let se = f.interner.get("SE").unwrap();
        let doomed = NodeId::from_index(f.graph.slot_count());
        let mut b = UpdateBatch::new();
        b.push(DataUpdate::InsertNode { label: se });
        b.push(DataUpdate::InsertEdge {
            from: doomed,
            to: f.te1,
        });
        b.push(DataUpdate::InsertEdge {
            from: f.pm1,
            to: doomed,
        });
        b.push(DataUpdate::DeleteNode { node: doomed });
        let reduced = reduce_batch(&f.graph, &f.pattern, &b);
        assert!(reduced.is_empty());
    }

    #[test]
    fn node_cancellation_respects_suffix_rule() {
        let f = fig1();
        let se = f.interner.get("SE").unwrap();
        let first = NodeId::from_index(f.graph.slot_count());
        let second = NodeId::from_index(f.graph.slot_count() + 1);
        let mut b = UpdateBatch::new();
        b.push(DataUpdate::InsertNode { label: se }); // first
        b.push(DataUpdate::InsertNode { label: se }); // second (survives)
        b.push(DataUpdate::DeleteNode { node: first });
        b.push(DataUpdate::InsertEdge {
            from: second,
            to: f.te1,
        });
        let reduced = reduce_batch(&f.graph, &f.pattern, &b);
        // Cancelling `first` would shift `second`'s predicted id, so the
        // pair must survive.
        assert_eq!(reduced.len(), 4);
        // Sanity: the surviving batch still applies cleanly.
        let mut g = f.graph.clone();
        let mut p = f.pattern.clone();
        reduced.apply_all(&mut g, &mut p).unwrap();
    }

    #[test]
    fn unrelated_updates_pass_through() {
        let f = fig1();
        let mut b = UpdateBatch::new();
        b.push(DataUpdate::InsertEdge {
            from: f.se1,
            to: f.te2,
        });
        b.push(DataUpdate::DeleteEdge {
            from: f.pm1,
            to: f.db1,
        });
        let reduced = reduce_batch(&f.graph, &f.pattern, &b);
        assert_eq!(reduced.len(), 2);
    }
}
