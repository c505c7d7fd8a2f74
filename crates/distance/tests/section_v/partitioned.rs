//! Partition-based shortest path length computation (paper §V-B).
//!
//! Two sub-processes, exactly as the paper divides them:
//!
//! * **sub-process-1** — distances between nodes of the *same* partition:
//!   per-partition APSP by BFS restricted to the partition's subgraph
//!   (Algorithm 4 step 1), then corrections for paths that leave and
//!   re-enter through bridge nodes (Algorithm 4 steps 2–3).
//! * **sub-process-2** — distances between nodes of *different* partitions,
//!   composed through inner/outer bridge nodes (Algorithm 5).
//!
//! The literal pseudo-code "recursively combine partitions" is realized
//! here as a **bridge graph**: a small weighted graph over every node
//! incident to a cross-partition edge, with cross edges at weight 1 and
//! intra-partition shortest path lengths as within-partition weights. A
//! multi-seed Dijkstra over this graph composes exact global distances:
//! a path that leaves a partition is a chain of intra-partition legs
//! joined by cross edges between bridge nodes, so exactness of those
//! compositions is all Theorem 3 needs of the merge, whatever order it
//! combines partitions in. [`paper_literal`] keeps the verbatim merge
//! procedure.
//!
//! This module is the §V reproduction behind the Table VIII/IX goldens,
//! and is off every repair path: no backend repairs `SLen` by composing
//! through the bridge graph. The crate docs' "Choosing a backend" has the
//! measurement that retired that arm.

use gpnm_distance::{sat_add, DistanceMatrix, INF};
use gpnm_graph::{DataGraph, NodeId};

use crate::dijkstra::{dijkstra_multi, WeightedAdj};
use crate::partition::{Partition, PartitionId};

const NO_LOCAL: u32 = u32::MAX;

/// Exact distance index organized around the label-based partition.
#[derive(Debug, Clone)]
pub struct PartitionedIndex {
    partition: Partition,
    /// Slot -> index within its partition's member list.
    local_idx: Vec<u32>,
    /// Per-partition APSP over local indices (restricted to the subgraph).
    intra: Vec<DistanceMatrix>,
    /// The bridge universe: every node incident to a cross-partition edge.
    bridges: Vec<NodeId>,
    /// Per partition: indices into `bridges` of its bridge members.
    bridge_of_part: Vec<Vec<u32>>,
    /// Weighted graph over bridge indices.
    bridge_graph: WeightedAdj,
}

impl PartitionedIndex {
    /// Build the index: the label partition, each partition's APSP and the
    /// bridge graph over them.
    pub fn build(graph: &DataGraph) -> Self {
        let partition = Partition::by_label(graph);
        let local_idx = compute_local_idx(graph, &partition);
        let mut intra: Vec<DistanceMatrix> = (0..partition.len())
            .map(|_| DistanceMatrix::all_inf(0))
            .collect();
        for p in partition.non_empty() {
            intra[p.index()] = intra_apsp(graph, &partition, &local_idx, p);
        }
        let (bridges, bridge_of_part, bridge_graph) =
            build_bridge_graph(&partition, &local_idx, &intra);
        PartitionedIndex {
            partition,
            local_idx,
            intra,
            bridges,
            bridge_of_part,
            bridge_graph,
        }
    }

    /// Exact shortest path lengths from `source` to every slot, composed
    /// from partition-local distances and the bridge graph. `out` must have
    /// slot-count length.
    pub fn compose_row(&self, source: NodeId, out: &mut [u32]) {
        out.fill(INF);
        let Some(p) = self.partition.of(source) else {
            return; // tombstone: unreachable from/to
        };
        let src_local = self.local_idx[source.index()] as usize;
        let intra_p = &self.intra[p.index()];

        // Own-partition distances (sub-process-1 step 1).
        for (li, &y) in self.partition.members(p).iter().enumerate() {
            out[y.index()] = intra_p.get(nid(src_local), nid(li));
        }

        // Reach the bridge universe (sub-process-1 steps 2-3 generalized):
        // seed every bridge member of P with its intra distance, then relax
        // across the bridge graph.
        let seeds: Vec<(usize, u32)> = self.bridge_of_part[p.index()]
            .iter()
            .map(|&bi| {
                let b = self.bridges[bi as usize];
                let bl = self.local_idx[b.index()] as usize;
                (bi as usize, intra_p.get(nid(src_local), nid(bl)))
            })
            .filter(|&(_, d)| d != INF)
            .collect();
        if seeds.is_empty() {
            return; // OB(P) reachable set is empty: stay inside P (Alg. 5 line 3)
        }
        let bridge_dist = dijkstra_multi(&self.bridge_graph, &seeds);

        // Descend from each reachable bridge into its partition
        // (sub-process-2 step 3).
        for (bi, &g) in bridge_dist.iter().enumerate() {
            if g == INF {
                continue;
            }
            let b = self.bridges[bi];
            let q = self.partition.of(b).expect("bridge node is live");
            let intra_q = &self.intra[q.index()];
            let bl = self.local_idx[b.index()] as usize;
            for (li, &y) in self.partition.members(q).iter().enumerate() {
                let cand = sat_add(g, intra_q.get(nid(bl), nid(li)));
                if cand < out[y.index()] {
                    out[y.index()] = cand;
                }
            }
        }
    }

    /// Materialize the full `SLen` matrix by composing every live row.
    pub fn build_matrix(&self, graph: &DataGraph) -> DistanceMatrix {
        let mut matrix = DistanceMatrix::all_inf(graph.slot_count());
        // Rows of tombstones stay INF; compose_row handles the rest.
        for source in graph.nodes() {
            self.compose_row(source, matrix.row_mut(source));
        }
        matrix
    }
}

#[inline(always)]
fn nid(local: usize) -> NodeId {
    NodeId::from_index(local)
}

fn compute_local_idx(graph: &DataGraph, partition: &Partition) -> Vec<u32> {
    let mut local_idx = vec![NO_LOCAL; graph.slot_count()];
    for p in partition.non_empty() {
        for (li, &node) in partition.members(p).iter().enumerate() {
            local_idx[node.index()] = li as u32;
        }
    }
    local_idx
}

/// BFS APSP restricted to one partition's subgraph, over local indices.
fn intra_apsp(
    graph: &DataGraph,
    partition: &Partition,
    local_idx: &[u32],
    p: PartitionId,
) -> DistanceMatrix {
    let members = partition.members(p);
    let k = members.len();
    let mut m = DistanceMatrix::all_inf(k);
    let mut queue: Vec<NodeId> = Vec::with_capacity(k);
    let mut dist: Vec<u32> = vec![INF; k];
    for (si, &s) in members.iter().enumerate() {
        dist.fill(INF);
        dist[si] = 0;
        queue.clear();
        queue.push(s);
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            let du = dist[local_idx[u.index()] as usize];
            for &v in graph.out_neighbors(u) {
                if partition.of(v) != Some(p) {
                    continue; // stay inside the partition
                }
                let vl = local_idx[v.index()] as usize;
                if dist[vl] == INF {
                    dist[vl] = du + 1;
                    queue.push(v);
                }
            }
        }
        m.set_row(nid(si), &dist);
    }
    m
}

/// Assemble the bridge universe and weighted bridge graph.
fn build_bridge_graph(
    partition: &Partition,
    local_idx: &[u32],
    intra: &[DistanceMatrix],
) -> (Vec<NodeId>, Vec<Vec<u32>>, WeightedAdj) {
    let bridges = partition.bridge_nodes();
    let mut bridge_idx = std::collections::HashMap::with_capacity(bridges.len());
    for (i, &b) in bridges.iter().enumerate() {
        bridge_idx.insert(b, i as u32);
    }
    let mut bridge_of_part: Vec<Vec<u32>> = vec![Vec::new(); partition.len()];
    for (i, &b) in bridges.iter().enumerate() {
        let p = partition.of(b).expect("bridge node is live");
        bridge_of_part[p.index()].push(i as u32);
    }
    let mut graph = WeightedAdj::new(bridges.len());
    // Cross-partition edges at weight 1.
    for &(u, v) in partition.cross_edges() {
        graph.add_edge(bridge_idx[&u] as usize, bridge_idx[&v] as usize, 1);
    }
    // Same-partition bridge pairs at intra-distance weight.
    for p in partition.non_empty() {
        let list = &bridge_of_part[p.index()];
        let m = &intra[p.index()];
        for &bi in list {
            let b = bridges[bi as usize];
            let bl = local_idx[b.index()] as usize;
            for &ci in list {
                if bi == ci {
                    continue;
                }
                let c = bridges[ci as usize];
                let cl = local_idx[c.index()] as usize;
                let d = m.get(nid(bl), nid(cl));
                if d != INF {
                    graph.add_edge(bi as usize, ci as usize, d);
                }
            }
        }
    }
    (bridges, bridge_of_part, graph)
}

/// The verbatim Algorithm 4/5 merge procedure, kept for the Figure 4
/// golden tests.
pub mod paper_literal {
    use super::*;

    /// Algorithm 4 steps 2–3: starting from `start`, combine partition `Pj`
    /// into the working set whenever one of `OB(Pj)` belongs to the set,
    /// recursively until no partition can be combined.
    pub fn combined_partitions(partition: &Partition, start: PartitionId) -> Vec<PartitionId> {
        let mut in_set = vec![false; partition.len()];
        in_set[start.index()] = true;
        let mut combined = vec![start];
        loop {
            let mut grew = false;
            // Candidate partitions: reachable via an outer bridge node of the
            // current set.
            for p in partition.non_empty() {
                if in_set[p.index()] {
                    continue;
                }
                let touches_set = combined.iter().any(|&s| {
                    partition
                        .outer_bridges(s)
                        .iter()
                        .any(|&ob| partition.of(ob) == Some(p))
                });
                if !touches_set {
                    continue;
                }
                // "if one of the outer bridge nodes in Pj belongs to Pi"
                let feeds_back = partition
                    .outer_bridges(p)
                    .iter()
                    .any(|&ob| partition.of(ob).is_some_and(|q| in_set[q.index()]));
                if feeds_back {
                    in_set[p.index()] = true;
                    combined.push(p);
                    grew = true;
                }
            }
            if !grew {
                break;
            }
        }
        combined
    }

    /// Sub-process-1: intra-partition distances for members of `p`, BFS'd
    /// inside the union of [`combined_partitions`]. Returns the matrix over
    /// `partition.members(p)` in member order.
    pub fn sub_process_1(
        graph: &DataGraph,
        partition: &Partition,
        p: PartitionId,
    ) -> DistanceMatrix {
        let combined = combined_partitions(partition, p);
        let mut allowed = vec![false; partition.len()];
        for q in &combined {
            allowed[q.index()] = true;
        }
        let members = partition.members(p);
        let mut m = DistanceMatrix::all_inf(members.len());
        let mut dist = vec![INF; graph.slot_count()];
        let mut queue = Vec::new();
        for (si, &s) in members.iter().enumerate() {
            dist.fill(INF);
            dist[s.index()] = 0;
            queue.clear();
            queue.push(s);
            let mut head = 0;
            while head < queue.len() {
                let u = queue[head];
                head += 1;
                for &v in graph.out_neighbors(u) {
                    let in_union = partition.of(v).is_some_and(|q| allowed[q.index()]);
                    if in_union && dist[v.index()] == INF {
                        dist[v.index()] = dist[u.index()] + 1;
                        queue.push(v);
                    }
                }
            }
            for (ti, &t) in members.iter().enumerate() {
                m.set(nid(si), nid(ti), dist[t.index()]);
            }
        }
        m
    }

    /// Sub-process-2 (Algorithm 5): distances from members of `p` to
    /// members of `q` composed through inner/outer bridge pairs:
    /// `SPD(x, y) = SPD_P(x, a) + 1 + SPD_Q(t, y)` over cross edges
    /// `(a, t)` with `a ∈ p`, `t ∈ q`.
    pub fn sub_process_2(
        graph: &DataGraph,
        partition: &Partition,
        p: PartitionId,
        q: PartitionId,
    ) -> DistanceMatrix {
        let mp = sub_process_1(graph, partition, p);
        let mq = sub_process_1(graph, partition, q);
        let p_members = partition.members(p);
        let q_members = partition.members(q);
        let local_p: std::collections::HashMap<NodeId, usize> =
            p_members.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        let local_q: std::collections::HashMap<NodeId, usize> =
            q_members.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        let mut out = DistanceMatrix::all_inf(0);
        // DistanceMatrix is square; emulate the rectangular |P| x |Q| block
        // with a |max| square and read only the block (tests slice it).
        let dim = p_members.len().max(q_members.len());
        out.grow(dim);
        for i in 0..dim {
            out.set(nid(i), nid(i), INF); // not a true diagonal: clear it
        }
        for &(a, t) in partition.cross_edges() {
            let (Some(&ai), Some(&ti)) = (local_p.get(&a), local_q.get(&t)) else {
                continue; // not a P -> Q cross edge
            };
            for (xi, _x) in p_members.iter().enumerate() {
                let d_xa = mp.get(nid(xi), nid(ai));
                if d_xa == INF {
                    continue;
                }
                for (yi, _y) in q_members.iter().enumerate() {
                    let cand = sat_add(sat_add(d_xa, 1), mq.get(nid(ti), nid(yi)));
                    if cand < out.get(nid(xi), nid(yi)) {
                        out.set(nid(xi), nid(yi), cand);
                    }
                }
            }
        }
        out
    }
}

mod tests {
    use super::*;
    use gpnm_distance::apsp_matrix;
    use gpnm_graph::paper::{fig1, fig4, TABLE_IX, TABLE_VIII};

    #[test]
    fn composed_rows_match_flat_apsp_on_fig1() {
        let f = fig1();
        let idx = PartitionedIndex::build(&f.graph);
        let flat = apsp_matrix(&f.graph);
        let composed = idx.build_matrix(&f.graph);
        assert_eq!(composed, flat);
    }

    #[test]
    fn table_viii_golden_via_exact_composition() {
        // Table VIII is P_SE's matrix *after combining with P_PM*: exactly
        // the exact composed distances restricted to SE members.
        let f = fig4();
        let idx = PartitionedIndex::build(&f.graph);
        let mut row = vec![INF; f.graph.slot_count()];
        for (i, &si) in f.se.iter().enumerate() {
            idx.compose_row(si, &mut row);
            for (j, &sj) in f.se.iter().enumerate() {
                assert_eq!(row[sj.index()], TABLE_VIII[i][j], "P_SE[{i}][{j}]");
            }
        }
    }

    #[test]
    fn table_ix_golden_via_exact_composition() {
        let f = fig4();
        let idx = PartitionedIndex::build(&f.graph);
        let mut row = vec![INF; f.graph.slot_count()];
        for (i, &si) in f.se.iter().enumerate() {
            idx.compose_row(si, &mut row);
            for (j, &tj) in f.te.iter().enumerate() {
                assert_eq!(row[tj.index()], TABLE_IX[i][j], "P_SE->P_TE[{i}][{j}]");
            }
        }
    }

    #[test]
    fn table_viii_golden_via_paper_literal_merge() {
        let f = fig4();
        let partition = Partition::by_label(&f.graph);
        let p_se = partition.of(f.se[0]).unwrap();
        // Algorithm 4 combines P_SE with P_PM (whose outer bridge SE4 is in
        // P_SE) but not with P_TE (no outer bridges).
        let combined = paper_literal::combined_partitions(&partition, p_se);
        let p_pm = partition.of(f.pm1).unwrap();
        assert_eq!(combined.len(), 2);
        assert!(combined.contains(&p_pm));
        let m = paper_literal::sub_process_1(&f.graph, &partition, p_se);
        for (i, row) in TABLE_VIII.iter().enumerate() {
            for (j, &want) in row.iter().enumerate() {
                assert_eq!(
                    m.get(NodeId::from_index(i), NodeId::from_index(j)),
                    want,
                    "literal P_SE[{i}][{j}]"
                );
            }
        }
    }

    #[test]
    fn table_ix_golden_via_paper_literal_composition() {
        let f = fig4();
        let partition = Partition::by_label(&f.graph);
        let p_se = partition.of(f.se[0]).unwrap();
        let p_te = partition.of(f.te[0]).unwrap();
        let m = paper_literal::sub_process_2(&f.graph, &partition, p_se, p_te);
        for (i, row) in TABLE_IX.iter().enumerate() {
            for (j, &want) in row.iter().enumerate() {
                assert_eq!(
                    m.get(NodeId::from_index(i), NodeId::from_index(j)),
                    want,
                    "literal P_SE->P_TE[{i}][{j}]"
                );
            }
        }
    }
}
