//! Cross-strategy equivalence: every strategy must produce the same SQuery
//! as from-scratch recomputation — the load-bearing invariant of the whole
//! reproduction (DESIGN.md §7).

use gpnm_engine::{GpnmEngine, Strategy};
use gpnm_graph::paper::fig1;
use gpnm_graph::{Bound, DataGraph, Label, LabelInterner, NodeId, PatternGraph};
use gpnm_matcher::MatchSemantics;
use gpnm_updates::{DataUpdate, PatternUpdate, UpdateBatch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod common;
use common::{random_graph, random_pattern};

/// Random valid batch against the current graphs (applies to clones to
/// track validity while generating).
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
        if choice < 40 && live.len() >= 2 {
            // data edge insert
            let u = live[rng.gen_range(0..live.len())];
            let v = live[rng.gen_range(0..live.len())];
            if u != v && g.add_edge(u, v).is_ok() {
                batch.push(DataUpdate::InsertEdge { from: u, to: v });
            }
        } else if choice < 65 {
            // data edge delete
            let edges: Vec<_> = g.edges().collect();
            if !edges.is_empty() {
                let (u, v) = edges[rng.gen_range(0..edges.len())];
                g.remove_edge(u, v).expect("edge just listed");
                batch.push(DataUpdate::DeleteEdge { from: u, to: v });
            }
        } else if choice < 72 {
            // data node insert
            let l = Label(rng.gen_range(0..interner.len() as u32));
            g.add_node(l);
            batch.push(DataUpdate::InsertNode { label: l });
        } else if choice < 78 && live.len() > 3 {
            // data node delete
            let v = live[rng.gen_range(0..live.len())];
            g.remove_node(v).expect("node just listed");
            batch.push(DataUpdate::DeleteNode { node: v });
        } else if choice < 88 {
            // pattern edge insert
            let pn: Vec<_> = p.nodes().collect();
            if pn.len() >= 2 {
                let a = pn[rng.gen_range(0..pn.len())];
                let b = pn[rng.gen_range(0..pn.len())];
                let bound = Bound::Hops(rng.gen_range(1..=4));
                if a != b && p.add_edge(a, b, bound).is_ok() {
                    batch.push(PatternUpdate::InsertEdge {
                        from: a,
                        to: b,
                        bound,
                    });
                }
            }
        } else if choice < 96 {
            // pattern edge delete
            let pe: Vec<_> = p.edges().collect();
            if !pe.is_empty() {
                let e = pe[rng.gen_range(0..pe.len())];
                p.remove_edge(e.from, e.to).expect("edge just listed");
                batch.push(PatternUpdate::DeleteEdge {
                    from: e.from,
                    to: e.to,
                });
            }
        } else if choice < 98 {
            // pattern node insert
            let l = Label(rng.gen_range(0..interner.len() as u32));
            p.add_node(l);
            batch.push(PatternUpdate::InsertNode { label: l });
        } else {
            // pattern node delete (keep at least two pattern nodes)
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

fn assert_all_strategies_agree(
    graph: &DataGraph,
    pattern: &PatternGraph,
    batch: &UpdateBatch,
    semantics: MatchSemantics,
    seed_info: &str,
) {
    // Reference: apply the batch and recompute from scratch.
    let mut reference = GpnmEngine::new(graph.clone(), pattern.clone(), semantics);
    reference.initial_query();
    reference
        .subsequent_query(batch, Strategy::Scratch)
        .expect("valid batch");
    let expected = reference.result().clone();

    for strategy in [
        Strategy::IncGpnm,
        Strategy::EhGpnm,
        Strategy::UaGpnmNoPar,
        Strategy::UaGpnm,
    ] {
        let mut engine = GpnmEngine::new(graph.clone(), pattern.clone(), semantics);
        engine.initial_query();
        let stats = engine
            .subsequent_query(batch, strategy)
            .expect("valid batch");
        assert_eq!(
            engine.result(),
            &expected,
            "{strategy} disagrees with Scratch ({seed_info}, semantics {semantics:?}, stats: {})",
            stats.summary()
        );
        // The SLen matrix must stay exact too.
        let rebuilt = gpnm_distance::apsp_matrix(engine.graph());
        assert_eq!(
            engine.slen(),
            &rebuilt,
            "{strategy} left a stale SLen ({seed_info})"
        );
    }
}

#[test]
fn paper_example_2_all_strategies() {
    let f = fig1();
    let mut batch = UpdateBatch::new();
    batch.push(PatternUpdate::InsertEdge {
        from: f.p_pm,
        to: f.p_te,
        bound: Bound::Hops(2),
    });
    batch.push(PatternUpdate::InsertEdge {
        from: f.p_s,
        to: f.p_te,
        bound: Bound::Hops(4),
    });
    batch.push(DataUpdate::InsertEdge {
        from: f.se1,
        to: f.te2,
    });
    batch.push(DataUpdate::InsertEdge {
        from: f.db1,
        to: f.s1,
    });
    for semantics in [MatchSemantics::Simulation, MatchSemantics::DualSimulation] {
        assert_all_strategies_agree(&f.graph, &f.pattern, &batch, semantics, "example2");
    }
}

#[test]
fn paper_example_2_squery_equals_iquery() {
    // The elimination story of Example 2: the four updates cancel out and
    // SQuery == IQuery (under the successor-only semantics of Table I).
    let f = fig1();
    let mut engine = GpnmEngine::new(
        f.graph.clone(),
        f.pattern.clone(),
        MatchSemantics::Simulation,
    );
    let iquery = engine.initial_query().clone();
    let mut batch = UpdateBatch::new();
    batch.push(PatternUpdate::InsertEdge {
        from: f.p_pm,
        to: f.p_te,
        bound: Bound::Hops(2),
    });
    batch.push(PatternUpdate::InsertEdge {
        from: f.p_s,
        to: f.p_te,
        bound: Bound::Hops(4),
    });
    batch.push(DataUpdate::InsertEdge {
        from: f.se1,
        to: f.te2,
    });
    batch.push(DataUpdate::InsertEdge {
        from: f.db1,
        to: f.s1,
    });
    let stats = engine
        .subsequent_query(&batch, Strategy::UaGpnm)
        .expect("valid batch");
    assert_eq!(engine.result(), &iquery, "SQuery == IQuery per Example 2");
    assert!(
        stats.eliminated >= 2,
        "UD2, UP1, UP2 should be eliminated (got {})",
        stats.eliminated
    );
}

#[test]
fn randomized_equivalence_simulation() {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    for round in 0..30 {
        let labels = rng.gen_range(2..6);
        let nodes = rng.gen_range(8..40);
        let edges = rng.gen_range(nodes / 2..nodes * 3);
        let (graph, mut interner) = random_graph(&mut rng, nodes, edges, labels);
        let pattern = random_pattern(&mut rng, &mut interner, labels);
        let batch_len = rng.gen_range(1..12);
        let batch = random_batch(&mut rng, &graph, &pattern, &interner, batch_len);
        assert_all_strategies_agree(
            &graph,
            &pattern,
            &batch,
            MatchSemantics::Simulation,
            &format!("round {round}"),
        );
    }
}

#[test]
fn randomized_equivalence_dual() {
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    for round in 0..30 {
        let labels = rng.gen_range(2..6);
        let nodes = rng.gen_range(8..40);
        let edges = rng.gen_range(nodes / 2..nodes * 3);
        let (graph, mut interner) = random_graph(&mut rng, nodes, edges, labels);
        let pattern = random_pattern(&mut rng, &mut interner, labels);
        let batch_len = rng.gen_range(1..12);
        let batch = random_batch(&mut rng, &graph, &pattern, &interner, batch_len);
        assert_all_strategies_agree(
            &graph,
            &pattern,
            &batch,
            MatchSemantics::DualSimulation,
            &format!("round {round}"),
        );
    }
}

#[test]
fn chained_subsequent_queries_stay_exact() {
    let mut rng = StdRng::seed_from_u64(42);
    let (graph, mut interner) = random_graph(&mut rng, 25, 60, 4);
    let pattern = random_pattern(&mut rng, &mut interner, 4);
    let mut engine = GpnmEngine::new(graph, pattern, MatchSemantics::Simulation);
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
        assert_eq!(
            engine.result(),
            &engine.scratch_query(),
            "chained round {round} with {strategy} diverged"
        );
    }
}

/// A standing result the total-match rule is withholding, then batches
/// *with pattern updates*: DER-I candidates read the visible (empty) sets,
/// so `apply_pattern_update` forgets the relation and the repair
/// re-matches — every incremental strategy must land on `Scratch`, visible
/// sets and relation alike, before and after (the data-only batches in
/// between repair the kept relation incrementally).
#[test]
fn pattern_updates_over_an_unmatched_result_equal_scratch() {
    let strategies = [
        Strategy::IncGpnm,
        Strategy::EhGpnm,
        Strategy::UaGpnmNoPar,
        Strategy::UaGpnm,
    ];
    for semantics in [MatchSemantics::Simulation, MatchSemantics::DualSimulation] {
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let (mut unmatched_starts, mut revived) = (0, 0);
        for round in 0..40 {
            let labels = rng.gen_range(2..5);
            let nodes = rng.gen_range(10..30);
            let edges = rng.gen_range(nodes / 2..nodes * 2);
            let (graph, interner) = random_graph(&mut rng, nodes, edges, labels);
            // A bound-1 chain: usually unmatched from the head while the
            // tail keeps members.
            let mut pattern = PatternGraph::new();
            let chain: Vec<_> = (0..4)
                .map(|_| pattern.add_node(Label(rng.gen_range(0..labels as u32))))
                .collect();
            for pair in chain.windows(2) {
                pattern.add_edge(pair[0], pair[1], Bound::Hops(1)).unwrap();
            }
            let data_only = |rng: &mut StdRng, engine: &GpnmEngine| {
                let mixed = random_batch(rng, engine.graph(), engine.pattern(), &interner, 6);
                UpdateBatch::from_updates(
                    mixed
                        .updates()
                        .iter()
                        .filter(|u| !u.is_pattern())
                        .copied()
                        .collect(),
                )
            };
            let mut reference = GpnmEngine::new(graph.clone(), pattern.clone(), semantics);
            reference.initial_query();
            if !reference.result().is_empty() {
                continue;
            }
            unmatched_starts += 1;
            let mut engines: Vec<GpnmEngine> = strategies
                .iter()
                .map(|_| {
                    let mut e = GpnmEngine::new(graph.clone(), pattern.clone(), semantics);
                    e.initial_query();
                    e
                })
                .collect();
            for step in 0..5 {
                // Data-only batches around two that also carry a pattern
                // update: one tightens the tail, whose hidden set is a
                // whole label class no DER-I candidate names; one relaxes
                // the head, the update most likely to revive the match.
                let mut batch = data_only(&mut rng, &reference);
                match step {
                    1 => batch.push(PatternUpdate::InsertEdge {
                        from: chain[3],
                        to: chain[2],
                        bound: Bound::Hops(1),
                    }),
                    3 => batch.push(PatternUpdate::DeleteEdge {
                        from: chain[0],
                        to: chain[1],
                    }),
                    _ => {}
                }
                reference
                    .subsequent_query(&batch, Strategy::Scratch)
                    .expect("valid batch");
                for (engine, &strategy) in engines.iter_mut().zip(&strategies) {
                    engine
                        .subsequent_query(&batch, strategy)
                        .expect("valid batch");
                    let context = format!("round {round} step {step}, {strategy}, {semantics:?}");
                    assert_eq!(engine.result(), reference.result(), "{context}");
                    assert!(
                        engine.result().relation_eq(reference.result()),
                        "stale relation ({context})"
                    );
                }
                revived += usize::from(step == 3 && !reference.result().is_empty());
            }
        }
        assert!(
            unmatched_starts >= 10,
            "{unmatched_starts} unmatched starts"
        );
        assert!(
            revived >= 1,
            "no pattern update revived a match ({semantics:?})"
        );
    }
}

#[test]
fn invalid_batch_leaves_engine_untouched() {
    let f = fig1();
    let mut engine = GpnmEngine::new(
        f.graph.clone(),
        f.pattern.clone(),
        MatchSemantics::Simulation,
    );
    engine.initial_query();
    let before_result = engine.result().clone();
    let before_edges = engine.graph().edge_count();
    let mut batch = UpdateBatch::new();
    batch.push(DataUpdate::InsertEdge {
        from: f.se1,
        to: f.te2,
    }); // fine
    batch.push(DataUpdate::InsertEdge {
        from: f.pm1,
        to: f.se2,
    }); // duplicate!
    let err = engine.subsequent_query(&batch, Strategy::UaGpnm);
    assert!(err.is_err());
    assert_eq!(
        engine.graph().edge_count(),
        before_edges,
        "no partial apply"
    );
    assert_eq!(engine.result(), &before_result);
}

#[test]
fn empty_batch_is_a_cheap_noop() {
    let f = fig1();
    let mut engine = GpnmEngine::new(
        f.graph.clone(),
        f.pattern.clone(),
        MatchSemantics::Simulation,
    );
    let iq = engine.initial_query().clone();
    for strategy in Strategy::ALL {
        let stats = engine
            .subsequent_query(&UpdateBatch::new(), strategy)
            .expect("empty batch is valid");
        assert_eq!(
            engine.result(),
            &iq,
            "{strategy} changed an unchanged graph"
        );
        if strategy != Strategy::Scratch {
            assert_eq!(stats.slen_changes, 0);
        }
    }
}
