//! Strategy-divergence property test — the retired manual shrinker.
//!
//! This file used to carry a hand-rolled greedy batch shrinker behind an
//! `#[ignore]`d debugging test. The proptest shim now owns greedy
//! shrinking (failing `Vec` inputs minimize themselves — see
//! `shims/proptest/src/shrink.rs`), so what remains is a thin wrapper: a
//! property test generating raw update-stream specs whose interpretation
//! is always a valid batch, asserting every incremental strategy agrees
//! with from-scratch recomputation. On failure, the reported counterexample
//! arrives already minimized.

use gpnm_engine::{GpnmEngine, Strategy};
use gpnm_graph::{Bound, DataGraph, Label, LabelInterner, NodeId, PatternGraph};
use gpnm_matcher::MatchSemantics;
use gpnm_updates::{DataUpdate, PatternUpdate, UpdateBatch};
use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod common;
use common::{random_graph, random_pattern};

/// Seeded base state: graph + pattern from the shared generators.
fn base_state(seed: u64) -> (DataGraph, PatternGraph, LabelInterner) {
    let mut rng = StdRng::seed_from_u64(seed);
    let labels: usize = rng.gen_range(2..6);
    let nodes: usize = rng.gen_range(8..32);
    let edges = rng.gen_range(nodes / 2..nodes * 3);
    let (graph, mut interner) = random_graph(&mut rng, nodes, edges, labels);
    let pattern = random_pattern(&mut rng, &mut interner, labels);
    (graph, pattern, interner)
}

/// Interpret raw `(kind, a, b)` triples into a valid batch against the
/// current graphs; out-of-range picks wrap, inapplicable ops drop out.
/// Dropping any element of the spec still interprets to a valid batch,
/// which is exactly what the shim's greedy shrinking relies on.
fn realize(
    graph: &DataGraph,
    pattern: &PatternGraph,
    interner: &LabelInterner,
    spec: &[(u8, u16, u16)],
) -> UpdateBatch {
    let mut g = graph.clone();
    let mut p = pattern.clone();
    let mut batch = UpdateBatch::new();
    for &(kind, a, b) in spec {
        let (a, b) = (a as usize, b as usize);
        match kind % 8 {
            0 => {
                let live: Vec<NodeId> = g.nodes().collect();
                if live.len() < 2 {
                    continue;
                }
                let (u, v) = (live[a % live.len()], live[b % live.len()]);
                if u != v && g.add_edge(u, v).is_ok() {
                    batch.push(DataUpdate::InsertEdge { from: u, to: v });
                }
            }
            1 => {
                let edges: Vec<_> = g.edges().collect();
                if edges.is_empty() {
                    continue;
                }
                let (u, v) = edges[a % edges.len()];
                g.remove_edge(u, v).expect("listed");
                batch.push(DataUpdate::DeleteEdge { from: u, to: v });
            }
            2 => {
                let label = Label((a % interner.len()) as u32);
                g.add_node(label);
                batch.push(DataUpdate::InsertNode { label });
            }
            3 => {
                let live: Vec<NodeId> = g.nodes().collect();
                if live.len() <= 3 {
                    continue;
                }
                let v = live[a % live.len()];
                g.remove_node(v).expect("listed");
                batch.push(DataUpdate::DeleteNode { node: v });
            }
            4 => {
                let pn: Vec<_> = p.nodes().collect();
                if pn.len() < 2 {
                    continue;
                }
                let (x, y) = (pn[a % pn.len()], pn[b % pn.len()]);
                let bound = Bound::Hops((b % 4) as u32 + 1);
                if x != y && p.add_edge(x, y, bound).is_ok() {
                    batch.push(PatternUpdate::InsertEdge {
                        from: x,
                        to: y,
                        bound,
                    });
                }
            }
            5 => {
                let pe: Vec<_> = p.edges().collect();
                if pe.is_empty() {
                    continue;
                }
                let e = pe[a % pe.len()];
                p.remove_edge(e.from, e.to).expect("listed");
                batch.push(PatternUpdate::DeleteEdge {
                    from: e.from,
                    to: e.to,
                });
            }
            6 => {
                let label = Label((a % interner.len()) as u32);
                p.add_node(label);
                batch.push(PatternUpdate::InsertNode { label });
            }
            _ => {
                let pn: Vec<_> = p.nodes().collect();
                if pn.len() <= 2 {
                    continue;
                }
                let node = pn[a % pn.len()];
                p.remove_node(node).expect("listed");
                batch.push(PatternUpdate::DeleteNode { node });
            }
        }
    }
    batch
}

/// The property: every incremental strategy agrees with Scratch on the
/// batch `spec` realizes over `seed`'s base state.
fn strategies_agree(seed: u64, spec: &[(u8, u16, u16)]) -> Result<(), TestCaseError> {
    let (graph, pattern, interner) = base_state(seed);
    let batch = realize(&graph, &pattern, &interner, spec);
    prop_assert!(
        batch.validate(&graph, &pattern).is_ok(),
        "realize produced an invalid batch"
    );

    let mut reference = GpnmEngine::new(graph.clone(), pattern.clone(), MatchSemantics::Simulation);
    reference.initial_query();
    reference
        .subsequent_query(&batch, Strategy::Scratch)
        .expect("valid batch");
    let expected = reference.result().clone();

    for strategy in [Strategy::IncGpnm, Strategy::EhGpnm, Strategy::UaGpnm] {
        let mut engine =
            GpnmEngine::new(graph.clone(), pattern.clone(), MatchSemantics::Simulation);
        engine.initial_query();
        engine
            .subsequent_query(&batch, strategy)
            .expect("valid batch");
        prop_assert_eq!(
            engine.result(),
            &expected,
            "{} diverged from Scratch on {} updates",
            strategy,
            batch.len()
        );
    }
    Ok(())
}

proptest! {
    /// Every incremental strategy must agree with Scratch. A failing spec
    /// shrinks itself to a minimal divergent update stream.
    #[test]
    fn strategies_never_diverge(
        seed in proptest::strategy::any::<u64>(),
        spec in vec(((0u8..8), (0u16..4096), (0u16..4096)), 1..12),
    ) {
        strategies_agree(seed, &spec)?;
    }
}

/// A pattern-node insert, a pattern-node delete and a pattern-edge insert
/// (the minimized counterexample at 4 096 cases). The EH-Tree hangs the
/// edge insert, whose plan verifies `n18`, under the node insert, whose
/// plan verifies nothing: the root's pass must verify its whole subtree,
/// or UA-GPNM keeps `n18` where Scratch drops it.
#[test]
fn survivor_verifies_its_eh_tree_subtree() {
    strategies_agree(
        1236190486320776938,
        &[(6, 2831, 2694), (7, 704, 3715), (4, 3984, 3613)],
    )
    .unwrap();
}
