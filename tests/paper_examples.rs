//! End-to-end golden tests of every concrete number the paper publishes
//! for its running example, exercised through the public facade.
//!
//! Per-crate unit tests assert the same tables at module level; this file
//! is the single place a reviewer can read top-to-bottom against the
//! paper (Tables I, III–VII, Figure 3, Examples 2/7/8/9/10). The §V tables
//! VIII/IX are held by `gpnm-distance`'s `section_v` test, beside the
//! partition code that reproduces them.

use ua_gpnm::distance::{apsp_matrix, IncrementalIndex};
use ua_gpnm::graph::paper::{fig1, TABLE_III, TABLE_V, TABLE_VI};
use ua_gpnm::matcher::match_graph;
use ua_gpnm::prelude::*;
use ua_gpnm::updates::candidates_for;

#[test]
fn table_i_node_matching_results() {
    let f = fig1();
    let slen = apsp_matrix(&f.graph);
    let m = match_graph(&f.pattern, &f.graph, &slen, MatchSemantics::Simulation);
    assert_eq!(m.matches_of(f.p_pm).collect::<Vec<_>>(), vec![f.pm1, f.pm2]);
    assert_eq!(m.matches_of(f.p_se).collect::<Vec<_>>(), vec![f.se1, f.se2]);
    assert_eq!(m.matches_of(f.p_s).collect::<Vec<_>>(), vec![f.s1]);
    assert_eq!(m.matches_of(f.p_te).collect::<Vec<_>>(), vec![f.te1, f.te2]);
}

#[test]
fn table_iii_slen_matrix() {
    let f = fig1();
    let m = apsp_matrix(&f.graph);
    for (i, row) in TABLE_III.iter().enumerate() {
        for (j, &expected) in row.iter().enumerate() {
            assert_eq!(
                m.get(NodeId(i as u32), NodeId(j as u32)),
                expected,
                "Table III [{i}][{j}]"
            );
        }
    }
}

#[test]
fn table_iv_candidate_sets() {
    let f = fig1();
    let slen = apsp_matrix(&f.graph);
    let iq = match_graph(&f.pattern, &f.graph, &slen, MatchSemantics::Simulation);
    let up1 = PatternUpdate::InsertEdge {
        from: f.p_pm,
        to: f.p_te,
        bound: Bound::Hops(2),
    };
    let c1 = candidates_for(&f.pattern, &f.graph, &slen, &iq, &up1);
    assert_eq!(c1.can_rn.iter().collect::<Vec<_>>(), vec![f.pm2, f.te2]);
    let up2 = PatternUpdate::InsertEdge {
        from: f.p_s,
        to: f.p_te,
        bound: Bound::Hops(4),
    };
    let c2 = candidates_for(&f.pattern, &f.graph, &slen, &iq, &up2);
    assert_eq!(c2.can_rn.iter().collect::<Vec<_>>(), vec![f.te2]);
    // Type I: Can(UP1) ⊇ Can(UP2) => UP1 eliminates UP2.
    assert!(c1.can_rn.is_superset_of(&c2.can_rn));
}

#[test]
fn tables_v_vi_vii_incremental_slen() {
    // UD1 = insert e(SE1, TE2); UD2 = insert e(DB1, S1), each against the
    // original graph, exactly as Example 8 presents them: every update is
    // committed on its own clone of the graph and of the original SLen.
    let f = fig1();
    let original = IncrementalIndex::build(&f.graph);
    let commit = |u: NodeId, v: NodeId| {
        let (mut graph, mut idx) = (f.graph.clone(), original.clone());
        graph.add_edge(u, v).expect("the update is valid");
        let delta = idx.commit_insert_edge(u, v);
        assert_eq!(idx.matrix(), &apsp_matrix(&graph), "commit ≡ recompute");
        (delta, idx)
    };

    let (ud1, slen_new1) = commit(f.se1, f.te2);
    // Table VII row 1: all eight nodes affected.
    assert_eq!(ud1.affected.len(), 8);

    let (ud2, slen_new2) = commit(f.db1, f.s1);
    // Table VII row 2.
    assert_eq!(
        ud2.affected.iter().collect::<Vec<_>>(),
        vec![f.pm1, f.se2, f.s1, f.te1, f.db1]
    );
    // Type II: Aff(UD1) ⊇ Aff(UD2) => UD1 eliminates UD2 (Example 8).
    assert!(ud1.affected.is_superset_of(&ud2.affected));
    assert!(!ud2.affected.is_superset_of(&ud1.affected));

    // Tables V and VI: the full SLen_new matrices.
    for (name, table, slen_new) in [("V", &TABLE_V, &slen_new1), ("VI", &TABLE_VI, &slen_new2)] {
        for (i, row) in table.iter().enumerate() {
            for (j, &expected) in row.iter().enumerate() {
                assert_eq!(
                    slen_new.matrix().get(NodeId(i as u32), NodeId(j as u32)),
                    expected,
                    "Table {name} [{i}][{j}]"
                );
            }
        }
    }
}

#[test]
fn example_10_eh_tree_and_example_2_squery() {
    // The full Example 2 batch through the UA-GPNM engine: Fig. 3's tree
    // has UD1 as the only root (3 eliminated), and SQuery == IQuery.
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
        .expect("Example 2 batch is valid");
    assert_eq!(
        stats.eliminated, 3,
        "UD2, UP1, UP2 eliminated; UD1 survives"
    );
    assert_eq!(stats.repair_calls, 1, "one repair pass for the one root");
    assert_eq!(engine.result(), &iquery, "SQuery == IQuery (Example 2)");
}

#[test]
fn every_strategy_reproduces_example_2() {
    let f = fig1();
    for strategy in Strategy::ALL {
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
        engine
            .subsequent_query(&batch, strategy)
            .expect("Example 2 batch is valid");
        assert_eq!(
            engine.result(),
            &iquery,
            "{strategy} must leave the result unchanged"
        );
    }
}
