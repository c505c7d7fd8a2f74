//! Cross-backend equivalence: every `SLen` backend must produce the same
//! `SQuery` as the default (dense, pooled deletion repair) backend, on
//! every strategy.
//!
//! This is the engine-level half of the sparse-backend proof (the
//! distance-level half — record-for-record delta projection — lives in
//! `crates/distance/tests/backend_equivalence.rs`): the sparse index only
//! stores rows for nodes whose label some pattern edge leaves, each cut at
//! the deepest bound on those edges, yet the match results must be bitwise
//! identical to dense, because the matcher never looks outside that
//! projection. The paged backend — the same rows behind a spill file and
//! hot-row cache — runs every case too, including one chained sequence
//! under a starvation-level cache budget.
//!
//! The two randomized cases are property tests over a seed, so the
//! suite's case count (`PROPTEST_CASES`) sets how many draws they make.

use gpnm_distance::{
    AnyBackend, BackendKind, IncrementalIndex, PagedIndex, SlenBackend, SparseIndex,
};
use gpnm_engine::{GpnmEngine, Strategy};
use gpnm_graph::{Bound, DataGraph, Label, LabelInterner, NodeId, PatternGraph};
use gpnm_matcher::{MatchResult, MatchSemantics};
use gpnm_updates::{DataUpdate, PatternUpdate, UpdateBatch};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod common;
use common::{random_graph, random_pattern};

/// Random valid batch against the current graphs. Pattern-edge inserts
/// stay finite-bounded (the unbounded fallback has its own test).
fn random_batch(
    rng: &mut StdRng,
    graph: &DataGraph,
    pattern: &PatternGraph,
    interner: &LabelInterner,
    len: usize,
) -> UpdateBatch {
    let mut g = graph.clone();
    let mut p = pattern.clone();
    let mut batch = UpdateBatch::new();
    for _ in 0..len {
        let choice = rng.gen_range(0..100);
        let live: Vec<NodeId> = g.nodes().collect();
        if choice < 35 && live.len() >= 2 {
            let u = live[rng.gen_range(0..live.len())];
            let v = live[rng.gen_range(0..live.len())];
            if u != v && g.add_edge(u, v).is_ok() {
                batch.push(DataUpdate::InsertEdge { from: u, to: v });
            }
        } else if choice < 60 {
            let edges: Vec<_> = g.edges().collect();
            if !edges.is_empty() {
                let (u, v) = edges[rng.gen_range(0..edges.len())];
                g.remove_edge(u, v).expect("edge just listed");
                batch.push(DataUpdate::DeleteEdge { from: u, to: v });
            }
        } else if choice < 68 {
            let l = Label(rng.gen_range(0..interner.len() as u32));
            g.add_node(l);
            batch.push(DataUpdate::InsertNode { label: l });
        } else if choice < 76 && live.len() > 3 {
            let v = live[rng.gen_range(0..live.len())];
            g.remove_node(v).expect("node just listed");
            batch.push(DataUpdate::DeleteNode { node: v });
        } else if choice < 86 {
            let pn: Vec<_> = p.nodes().collect();
            if pn.len() >= 2 {
                let a = pn[rng.gen_range(0..pn.len())];
                let b = pn[rng.gen_range(0..pn.len())];
                // Bounds beyond the seed pattern's 1..=3 force the sparse
                // backend through its requirement-deepening path.
                let bound = Bound::Hops(rng.gen_range(1..=5));
                if a != b && p.add_edge(a, b, bound).is_ok() {
                    batch.push(PatternUpdate::InsertEdge {
                        from: a,
                        to: b,
                        bound,
                    });
                }
            }
        } else if choice < 94 {
            let pe: Vec<_> = p.edges().collect();
            if !pe.is_empty() {
                let e = pe[rng.gen_range(0..pe.len())];
                p.remove_edge(e.from, e.to).expect("edge just listed");
                batch.push(PatternUpdate::DeleteEdge {
                    from: e.from,
                    to: e.to,
                });
            }
        } else if choice < 97 {
            // A fresh pattern label forces requirement *widening*.
            let l = Label(rng.gen_range(0..interner.len() as u32));
            p.add_node(l);
            batch.push(PatternUpdate::InsertNode { label: l });
        } else {
            let pn: Vec<_> = p.nodes().collect();
            if pn.len() > 2 {
                let node = pn[rng.gen_range(0..pn.len())];
                p.remove_node(node).expect("node just listed");
                batch.push(PatternUpdate::DeleteNode { node });
            }
        }
    }
    batch
}

/// Reference result: the default backend, from scratch.
fn dense_scratch(graph: &DataGraph, pattern: &PatternGraph, batch: &UpdateBatch) -> MatchResult {
    let mut reference = GpnmEngine::new(graph.clone(), pattern.clone(), MatchSemantics::Simulation);
    reference.initial_query();
    reference
        .subsequent_query(batch, Strategy::Scratch)
        .expect("valid batch");
    reference.result().clone()
}

fn assert_backends_agree(
    graph: &DataGraph,
    pattern: &PatternGraph,
    batch: &UpdateBatch,
    seed_info: &str,
) {
    let expected = dense_scratch(graph, pattern, batch);

    for strategy in [
        Strategy::Scratch,
        Strategy::IncGpnm,
        Strategy::EhGpnm,
        Strategy::UaGpnm,
    ] {
        // Sparse backend — the headline equivalence.
        let mut sparse = GpnmEngine::<SparseIndex>::with_backend(graph.clone(), pattern.clone());
        sparse.initial_query();
        sparse.subsequent_query(batch, strategy).expect("valid");
        assert_eq!(
            sparse.result(),
            &expected,
            "sparse backend under {strategy} disagrees with dense Scratch ({seed_info})"
        );
        // Paged backend — sparse rows behind the spill-file cache must not
        // change a single match.
        let mut paged = GpnmEngine::<PagedIndex>::with_backend(graph.clone(), pattern.clone());
        paged.initial_query();
        paged.subsequent_query(batch, strategy).expect("valid");
        assert_eq!(
            paged.result(),
            &expected,
            "paged backend under {strategy} disagrees with dense Scratch ({seed_info})"
        );
        // Plain dense backend — the trait plumbing itself.
        let mut dense =
            GpnmEngine::<IncrementalIndex>::with_backend(graph.clone(), pattern.clone());
        dense.initial_query();
        dense.subsequent_query(batch, strategy).expect("valid");
        assert_eq!(
            dense.result(),
            &expected,
            "dense backend under {strategy} disagrees ({seed_info})"
        );
    }
}

/// One random graph, pattern and batch drawn from `seed`.
fn randomized_case(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let labels = rng.gen_range(2..6);
    let nodes = rng.gen_range(8..40);
    let edges = rng.gen_range(nodes / 2..nodes * 3);
    let (graph, mut interner) = random_graph(&mut rng, nodes, edges, labels);
    let pattern = random_pattern(&mut rng, &mut interner, labels);
    let batch_len = rng.gen_range(1..12);
    let batch = random_batch(&mut rng, &graph, &pattern, &interner, batch_len);
    assert_backends_agree(&graph, &pattern, &batch, &format!("seed {seed}"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(25))]

    #[test]
    fn randomized_backend_equivalence_simulation(seed in any::<u64>()) {
        randomized_case(seed);
    }
}

/// A pattern edge out of a node the same batch inserts: its label labels
/// no pattern node before the batch, so only walking the batch in order
/// tells the backend that the label's nodes need rows, and how deep.
#[test]
fn an_edge_out_of_a_pattern_node_of_the_same_batch_gets_its_rows() {
    let (l, x, p, q) = (Label(0), Label(1), Label(2), Label(3));
    let mut graph = DataGraph::new();
    let [a, b, c, d] = [l, x, p, q].map(|label| graph.add_node(label));
    for (from, to) in [(a, b), (d, c)] {
        graph.add_edge(from, to).unwrap();
    }
    let mut pattern = PatternGraph::new();
    let (pq, pp) = (pattern.add_node(q), pattern.add_node(p));
    pattern.add_edge(pq, pp, Bound::Hops(1)).unwrap();
    let fresh = gpnm_graph::PatternNodeId::from_index(pattern.slot_count());
    let mut batch = UpdateBatch::new();
    batch.push(PatternUpdate::InsertNode { label: l });
    batch.push(PatternUpdate::InsertEdge {
        from: fresh,
        to: pp,
        bound: Bound::Hops(3),
    });
    // `a -> b -> c`: the L node reaches the P node in 2 hops.
    batch.push(DataUpdate::InsertEdge { from: b, to: c });
    let expected = dense_scratch(&graph, &pattern, &batch);
    assert!(
        expected.contains(fresh, a),
        "the case must match the new node"
    );
    assert_backends_agree(&graph, &pattern, &batch, "pending source");
}

#[test]
fn unbounded_edge_falls_back_to_full_rows() {
    // A pattern with a `*` edge forces depth = INF: sparse rows are
    // untruncated (but still candidate-sources-only), and results must
    // still match dense exactly.
    let mut rng = StdRng::seed_from_u64(0xF0F0);
    for round in 0..10 {
        let labels = rng.gen_range(2..5);
        let nodes = rng.gen_range(8..30);
        let edges = rng.gen_range(nodes..nodes * 3);
        let (graph, mut interner) = random_graph(&mut rng, nodes, edges, labels);
        let mut pattern = random_pattern(&mut rng, &mut interner, labels);
        // Rewire one random pattern edge as unbounded.
        let pe: Vec<_> = pattern.edges().collect();
        let e = pe[rng.gen_range(0..pe.len())];
        pattern.remove_edge(e.from, e.to).expect("edge listed");
        pattern
            .add_edge(e.from, e.to, Bound::Unbounded)
            .expect("re-insert");
        let batch_len = rng.gen_range(1..8);
        let batch = random_batch(&mut rng, &graph, &pattern, &interner, batch_len);
        assert_backends_agree(
            &graph,
            &pattern,
            &batch,
            &format!("unbounded round {round}"),
        );
    }
}

#[test]
fn chained_paged_queries_stay_exact_under_tiny_cache() {
    // The out-of-core story under duress: a cache budget too small to hold
    // more than a row or two forces a spill-file round trip on nearly
    // every access, across many batches — and results must never drift.
    let mut rng = StdRng::seed_from_u64(0x9A6ED);
    let (graph, mut interner) = random_graph(&mut rng, 25, 60, 4);
    let pattern = random_pattern(&mut rng, &mut interner, 4);
    // 512 bytes, through the runtime-configured constructor.
    let cache_mb = Some(512.0 / (1u64 << 20) as f64);
    let mut engine =
        GpnmEngine::with_backend_kind(BackendKind::Paged, graph, pattern, 4.0, cache_mb)
            .expect("paged builds are never refused");
    let AnyBackend::Paged(paged) = engine.backend() else {
        unreachable!("paged was asked for")
    };
    assert_eq!(paged.cache_budget(), 512);
    engine.initial_query();
    for round in 0..8 {
        let batch_len = rng.gen_range(1..8);
        let batch = random_batch(
            &mut rng,
            engine.graph(),
            engine.pattern(),
            &interner,
            batch_len,
        );
        let strategy = [Strategy::UaGpnm, Strategy::EhGpnm, Strategy::IncGpnm][round % 3];
        engine.subsequent_query(&batch, strategy).expect("valid");
        let mut dense = GpnmEngine::new(
            engine.graph().clone(),
            engine.pattern().clone(),
            MatchSemantics::Simulation,
        );
        dense.initial_query();
        assert_eq!(
            engine.result(),
            dense.result(),
            "chained paged round {round} with {strategy} diverged"
        );
    }
    let io = engine
        .backend()
        .io_stats()
        .expect("paged backend reports IO");
    assert!(
        io.cache_evictions > 0 && io.pages_read > 0,
        "starved cache never churned: {io:?}"
    );
}

#[test]
fn chained_sparse_queries_stay_exact() {
    // The long-running-engine story: requirements only widen, rows stay
    // exact across many batches and strategy switches.
    let mut rng = StdRng::seed_from_u64(77);
    let (graph, mut interner) = random_graph(&mut rng, 25, 60, 4);
    let pattern = random_pattern(&mut rng, &mut interner, 4);
    let mut engine = GpnmEngine::<SparseIndex>::with_backend(graph, pattern);
    engine.initial_query();
    for round in 0..8 {
        let batch_len = rng.gen_range(1..8);
        let batch = random_batch(
            &mut rng,
            engine.graph(),
            engine.pattern(),
            &interner,
            batch_len,
        );
        let strategy = [Strategy::UaGpnm, Strategy::EhGpnm, Strategy::IncGpnm][round % 3];
        engine.subsequent_query(&batch, strategy).expect("valid");
        // Compare against a fresh dense engine on the *current* state.
        let mut dense = GpnmEngine::new(
            engine.graph().clone(),
            engine.pattern().clone(),
            MatchSemantics::Simulation,
        );
        dense.initial_query();
        assert_eq!(
            engine.result(),
            dense.result(),
            "chained sparse round {round} with {strategy} diverged"
        );
    }
}
