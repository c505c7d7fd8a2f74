//! Property-based tests of the workspace's load-bearing invariants
//! (DESIGN.md §7).

use proptest::prelude::*;
// Explicit import: both preludes glob-export a `Strategy` (proptest's trait,
// the engine's enum); an explicit use shadows the globs and disambiguates.
use proptest::strategy::Strategy;
use ua_gpnm::distance::{apsp_matrix, IncrementalIndex};
use ua_gpnm::engine::Strategy as QueryStrategy;
use ua_gpnm::prelude::*;
use ua_gpnm::updates::reduce_batch;

/// Compact description of a random labeled digraph.
#[derive(Debug, Clone)]
struct GraphSpec {
    labels_per_node: Vec<u8>,
    edges: Vec<(u8, u8)>,
}

fn graph_spec(max_nodes: usize) -> impl Strategy<Value = GraphSpec> {
    (2..max_nodes).prop_flat_map(move |n| {
        (
            proptest::collection::vec(0u8..4, n),
            proptest::collection::vec((0..n as u8, 0..n as u8), 0..n * 3),
        )
            .prop_map(|(labels_per_node, edges)| GraphSpec {
                labels_per_node,
                edges,
            })
    })
}

fn build_graph(spec: &GraphSpec) -> (DataGraph, LabelInterner) {
    let mut interner = LabelInterner::new();
    let labels: Vec<Label> = (0..4).map(|i| interner.intern(&format!("L{i}"))).collect();
    let mut g = DataGraph::new();
    let ids: Vec<NodeId> = spec
        .labels_per_node
        .iter()
        .map(|&l| g.add_node(labels[l as usize % 4]))
        .collect();
    for &(a, b) in &spec.edges {
        let (u, v) = (ids[a as usize % ids.len()], ids[b as usize % ids.len()]);
        if u != v {
            let _ = g.add_edge(u, v);
        }
    }
    (g, interner)
}

/// A random, always-valid update sequence (interpreted against the
/// evolving graph; out-of-range indices wrap).
#[derive(Debug, Clone)]
enum Op {
    InsertEdge(u8, u8),
    DeleteEdge(u8),
    InsertNode(u8),
    DeleteNode(u8),
}

fn ops(max: usize) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Op::InsertEdge(a, b)),
            any::<u8>().prop_map(Op::DeleteEdge),
            (0u8..4).prop_map(Op::InsertNode),
            any::<u8>().prop_map(Op::DeleteNode),
        ],
        1..max,
    )
}

/// Interpret ops into a concrete valid batch against `graph`.
fn realize_batch(graph: &DataGraph, interner: &LabelInterner, ops: &[Op]) -> UpdateBatch {
    let mut g = graph.clone();
    let mut batch = UpdateBatch::new();
    for op in ops {
        match *op {
            Op::InsertEdge(a, b) => {
                let live: Vec<NodeId> = g.nodes().collect();
                if live.len() < 2 {
                    continue;
                }
                let u = live[a as usize % live.len()];
                let v = live[b as usize % live.len()];
                if u != v && g.add_edge(u, v).is_ok() {
                    batch.push(DataUpdate::InsertEdge { from: u, to: v });
                }
            }
            Op::DeleteEdge(a) => {
                let edges: Vec<_> = g.edges().collect();
                if edges.is_empty() {
                    continue;
                }
                let (u, v) = edges[a as usize % edges.len()];
                g.remove_edge(u, v).expect("listed edge");
                batch.push(DataUpdate::DeleteEdge { from: u, to: v });
            }
            Op::InsertNode(l) => {
                let label = interner.get(&format!("L{}", l % 4)).expect("interned");
                g.add_node(label);
                batch.push(DataUpdate::InsertNode { label });
            }
            Op::DeleteNode(a) => {
                let live: Vec<NodeId> = g.nodes().collect();
                if live.len() <= 2 {
                    continue;
                }
                let v = live[a as usize % live.len()];
                g.remove_node(v).expect("listed node");
                batch.push(DataUpdate::DeleteNode { node: v });
            }
        }
    }
    batch
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The incremental index stays exact across arbitrary update
    /// sequences — equivalent to a from-scratch APSP at every step's end.
    #[test]
    fn incremental_index_matches_rebuild(spec in graph_spec(20), ops in ops(12)) {
        let (mut graph, interner) = build_graph(&spec);
        let mut index = IncrementalIndex::build(&graph);
        let batch = realize_batch(&graph, &interner, &ops);
        for update in batch.updates() {
            let Update::Data(du) = update else { continue };
            match *du {
                DataUpdate::InsertEdge { from, to } => {
                    graph.add_edge(from, to).expect("valid");
                    index.commit_insert_edge(from, to);
                }
                DataUpdate::DeleteEdge { from, to } => {
                    graph.remove_edge(from, to).expect("valid");
                    index.commit_delete_edge(&graph, from, to);
                }
                DataUpdate::InsertNode { label } => {
                    graph.add_node(label);
                    index.commit_insert_node(graph.slot_count());
                }
                DataUpdate::DeleteNode { node } => {
                    graph.remove_node(node).expect("valid");
                    index.commit_delete_node(&graph, node);
                }
            }
        }
        prop_assert_eq!(index.matrix(), &apsp_matrix(&graph));
    }

    /// Triangle inequality holds on every computed matrix.
    #[test]
    fn apsp_satisfies_triangle_inequality(spec in graph_spec(16)) {
        let (graph, _) = build_graph(&spec);
        let m = apsp_matrix(&graph);
        let n = graph.slot_count();
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    let (i, j, k) = (NodeId(i as u32), NodeId(j as u32), NodeId(k as u32));
                    let via = ua_gpnm::distance::sat_add(m.get(i, k), m.get(k, j));
                    prop_assert!(m.get(i, j) <= via, "d({i},{j}) > d({i},{k})+d({k},{j})");
                }
            }
        }
    }

    /// The cancellation pre-pass preserves the final graph state.
    #[test]
    fn reduce_batch_preserves_final_state(spec in graph_spec(16), ops in ops(16)) {
        let (graph, interner) = build_graph(&spec);
        let pattern = PatternGraph::new();
        let batch = realize_batch(&graph, &interner, &ops);
        let reduced = reduce_batch(&graph, &pattern, &batch);
        prop_assert!(reduced.len() <= batch.len());

        let mut g_full = graph.clone();
        let mut p_full = pattern.clone();
        batch.apply_all(&mut g_full, &mut p_full).expect("valid batch");
        let mut g_red = graph.clone();
        let mut p_red = pattern.clone();
        reduced.apply_all(&mut g_red, &mut p_red).expect("reduced batch stays valid");
        // Same live nodes, same edges (slot numbering of surviving created
        // nodes is preserved by the reducer's suffix rule).
        let full_nodes: Vec<_> = g_full.nodes().collect();
        let red_nodes: Vec<_> = g_red.nodes().collect();
        prop_assert_eq!(full_nodes, red_nodes);
        let full_edges: Vec<_> = g_full.edges().collect();
        let red_edges: Vec<_> = g_red.edges().collect();
        prop_assert_eq!(full_edges, red_edges);
    }

    /// All four strategies agree with from-scratch recomputation (the
    /// paper-wide equivalence), on data-update-only batches.
    #[test]
    fn strategies_agree(spec in graph_spec(14), ops in ops(8)) {
        let (graph, interner) = build_graph(&spec);
        // Small fixed pattern over the same alphabet.
        let mut pattern = PatternGraph::new();
        let l0 = interner.get("L0").expect("interned");
        let l1 = interner.get("L1").expect("interned");
        let l2 = interner.get("L2").expect("interned");
        let a = pattern.add_node(l0);
        let b = pattern.add_node(l1);
        let c = pattern.add_node(l2);
        pattern.add_edge(a, b, Bound::Hops(2)).expect("fresh");
        pattern.add_edge(b, c, Bound::Hops(3)).expect("fresh");
        let batch = realize_batch(&graph, &interner, &ops);

        let mut reference = GpnmEngine::new(graph.clone(), pattern.clone(), MatchSemantics::Simulation);
        reference.initial_query();
        reference.subsequent_query(&batch, QueryStrategy::Scratch).expect("valid");
        let expected = reference.result().clone();
        for strategy in [QueryStrategy::IncGpnm, QueryStrategy::EhGpnm, QueryStrategy::UaGpnm] {
            let mut engine = GpnmEngine::new(graph.clone(), pattern.clone(), MatchSemantics::Simulation);
            engine.initial_query();
            engine.subsequent_query(&batch, strategy).expect("valid");
            prop_assert_eq!(engine.result(), &expected, "{} diverged", strategy.name());
        }
    }
}
