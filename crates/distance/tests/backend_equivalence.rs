//! Sparse-vs-dense backend equivalence, record for record.
//!
//! The sparse backend's contract is that its deltas and distances are the
//! dense backend's *projected* onto `(resident sources) × (distances ≤
//! depth)`, with everything beyond the truncation horizon reading as ∞.
//! These property tests drive both backends through identical random
//! graph/requirement/update triples and assert that projection exactly —
//! same records, same order — for the commits of all four update kinds,
//! plus full distance agreement after every commit. One block pins
//! the unbounded-depth fallback (full rows, candidate sources only).
//!
//! The paged backend rides along through every case under a deliberately
//! tiny (2-page, ~0.5 KiB) cache so rows constantly evict and reload from
//! the spill file: its commit deltas must equal the sparse backend's
//! **bitwise** — same records, same order, no projection — and
//! its distances must agree pair for pair.
//!
//! One block aims the same checks at the repair's pruning branches — the
//! backward-ball candidate pass, the alternative-parent drop and the
//! horizon-leaf shortcut — with layered-diamond graphs at the depths those
//! branches turn on. Two more aim at the edge-delete re-settle: hub-heavy
//! graphs (one node with in- and out-degree ≥ 16, so affected sets contain
//! and border long in-neighbour lists) and streams that delete an edge and
//! put the same edge back. Every case also checks the delta order the
//! candidate pass's sort-by-slot produces.
//!
//! A last block pins the witness-probe kernel: on all four backends, after
//! a random commit sequence, `any_within(u, S, b)` answers exactly what
//! the member loop `S.iter().any(|v| within(u, v, b))` answers.

use gpnm_distance::{
    project_delta, AffDelta, AnyBackend, BackendKind, DistanceOracle, IncrementalIndex,
    PagedConfig, PagedIndex, RepairHint, SlenBackend, SlenRequirements, SparseIndex, INF,
};
use gpnm_graph::{Bound, DataGraph, Label, NodeId, NodeSet, PatternGraph};
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::strategy::Strategy as PropStrategy;

/// Raw generated case: graph shape, requirement knobs, update stream.
type RawCase = (
    usize,               // nodes
    usize,               // labels
    Vec<(u32, u32)>,     // edge endpoints (mod nodes)
    u8,                  // label mask (which labels are "pattern" labels)
    u8,                  // depth selector: 0 = unbounded, else Hops(sel)
    Vec<(u8, u32, u32)>, // ops: (kind, a, b); kind 4 re-inserts the last deleted edge
);

fn raw_case() -> impl PropStrategy<Value = RawCase> {
    (4usize..16, 1usize..5).prop_flat_map(|(nodes, labels)| {
        (
            (nodes..nodes + 1),
            (labels..labels + 1),
            vec(((0u32..nodes as u32), (0u32..nodes as u32)), 0..40)
                .prop_map(|pairs| pairs.into_iter().collect::<Vec<_>>()),
            1u8..16,
            0u8..5,
            vec(((0u8..4), (0u32..4096), (0u32..4096)), 1..12),
        )
    })
}

/// Layered diamonds: `layers × width` nodes, every node wired to a
/// non-empty random subset of the next layer — so most targets have several
/// parents at the same distance — and the last layer optionally wired back
/// to the first, so an edge's head reaches its tail. The depth is drawn
/// from the values the pruning turns on: 1; one short of the height (the
/// last layer sits exactly at the first layer's horizon); the height;
/// unbounded. The stream is deletion-heavy, with re-inserts to keep paths
/// alive; a label mask that leaves a node's predecessors (or, in layer 0
/// of an acyclic draw, everybody) without a row comes up by itself.
fn diamond_case() -> impl PropStrategy<Value = RawCase> {
    (2usize..5, 1usize..4, 1usize..4).prop_flat_map(|(layers, width, labels)| {
        let nodes = layers * width;
        // Every label on some node from the start (`check_case`'s closing
        // spill-traffic check counts on a selected label having a row).
        let labels = labels.min(nodes);
        let subset = 1u8 << width;
        (
            vec(1u8..subset, nodes - width..nodes - width + 1),
            vec(0u8..subset, width..width + 1),
            1u8..16,
            0usize..4,
            vec(((0usize..6), (0u32..4096), (0u32..4096)), 1..10),
        )
            .prop_map(move |(forward, back, mask, depth_pick, ops)| {
                let mut edges = Vec::new();
                let wire = |edges: &mut Vec<(u32, u32)>, from: usize, to_layer: usize, bits: u8| {
                    for k in (0..width).filter(|k| bits >> k & 1 == 1) {
                        edges.push((from as u32, (to_layer * width + k) as u32));
                    }
                };
                for (from, &bits) in forward.iter().enumerate() {
                    wire(&mut edges, from, from / width + 1, bits);
                }
                for (k, &bits) in back.iter().enumerate() {
                    wire(&mut edges, nodes - width + k, 0, bits);
                }
                let depth_sel = [1, layers - 1, layers, 0][depth_pick] as u8;
                let kinds = [1u8, 1, 3, 3, 0, 2];
                let ops = ops.into_iter().map(|(k, a, b)| (kinds[k], a, b)).collect();
                (nodes, labels, edges, mask, depth_sel, ops)
            })
    })
}

/// Hub-heavy: node 0 has an edge from and an edge to each of 16 spokes,
/// which also wire among themselves and to a few outer nodes at random —
/// so most two-hop paths run through the hub, a deleted spoke edge leaves
/// the hub's children to be judged against its 16-long in-list, and a
/// deleted hub edge re-settles a target that borders it. Deletion-heavy,
/// at every depth from 1 to 4 and unbounded.
fn hub_case() -> impl PropStrategy<Value = RawCase> {
    const SPOKES: u32 = 16;
    (SPOKES as usize + 1..SPOKES as usize + 8, 1usize..4).prop_flat_map(|(nodes, labels)| {
        (
            vec(((1u32..nodes as u32), (1u32..nodes as u32)), 0..24),
            1u8..16,
            0u8..5,
            vec(((0usize..6), (0u32..4096), (0u32..4096)), 1..12),
        )
            .prop_map(move |(mut edges, mask, depth_sel, ops)| {
                edges.extend((1..=SPOKES).flat_map(|spoke| [(0, spoke), (spoke, 0)]));
                let kinds = [1u8, 1, 1, 0, 4, 3];
                let ops = ops.into_iter().map(|(k, a, b)| (kinds[k], a, b)).collect();
                (nodes, labels, edges, mask, depth_sel, ops)
            })
    })
}

/// Delete-then-reinsert: the generic graphs of [`raw_case`] under a stream
/// that mostly alternates "delete an edge" with "insert that same edge
/// again" — so every re-settle is followed by the insert that must undo it
/// exactly, on rows the re-settle patched in place.
fn reinsert_case() -> impl PropStrategy<Value = RawCase> {
    raw_case().prop_map(|(nodes, labels, edges, mask, depth_sel, ops)| {
        let ops = ops.into_iter().enumerate();
        let ops = ops.map(|(i, (kind, a, b))| match (i % 2, kind) {
            (0, _) => (1, a, b),
            (_, 0..=2) => (4, a, b),
            (_, kind) => (kind, a, b),
        });
        (nodes, labels, edges, mask, depth_sel, ops.collect())
    })
}

/// The order the candidate pass's sort-by-slot gives a delta: ascending in
/// `(source, target)` — after `own`'s records, which lead (the deleted
/// node's own row comes first).
fn assert_delta_order(
    delta: &AffDelta,
    own: Option<NodeId>,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let own_rows = delta
        .changed
        .iter()
        .take_while(|r| Some(r.0) == own)
        .count();
    let (head, tail) = delta.changed.split_at(own_rows);
    prop_assert!(tail.iter().all(|r| Some(r.0) != own), "own row not leading");
    for part in [head, tail] {
        prop_assert!(
            part.windows(2).all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)),
            "delta out of (source, target) order: {:?}",
            delta.changed
        );
    }
    Ok(())
}

fn build_graph(nodes: usize, labels: usize, edges: &[(u32, u32)]) -> (DataGraph, Vec<Label>) {
    let label_ids: Vec<Label> = (0..labels as u32).map(Label).collect();
    let mut g = DataGraph::new();
    let ids: Vec<NodeId> = (0..nodes)
        .map(|i| g.add_node(label_ids[i % labels]))
        .collect();
    for &(a, b) in edges {
        let (u, v) = (ids[a as usize % nodes], ids[b as usize % nodes]);
        if u != v {
            let _ = g.add_edge(u, v);
        }
    }
    (g, label_ids)
}

fn requirements(label_ids: &[Label], mask: u8, depth_sel: u8) -> SlenRequirements {
    // Requirements are modeled through a throwaway pattern so the test
    // exercises the same constructor the engine uses.
    let mut pattern = PatternGraph::new();
    let chosen: Vec<Label> = label_ids
        .iter()
        .enumerate()
        .filter(|&(i, _)| mask & (1 << (i % 4)) != 0)
        .map(|(_, &l)| l)
        .collect();
    let mut prev = None;
    for &l in &chosen {
        let node = pattern.add_node(l);
        if let Some(p) = prev {
            let bound = if depth_sel == 0 {
                Bound::Unbounded
            } else {
                Bound::Hops(depth_sel as u32)
            };
            let _ = pattern.add_edge(p, node, bound);
        }
        prev = Some(node);
    }
    let mut reqs = SlenRequirements::of_pattern(&pattern);
    if chosen.len() < 2 {
        // Single-node patterns have no edges; force the depth knob anyway.
        if depth_sel == 0 {
            reqs.absorb_bound(Bound::Unbounded);
        } else {
            reqs.absorb_bound(Bound::Hops(depth_sel as u32));
        }
    }
    reqs
}

/// The shared projection helper, bound to a pre-op residency mask.
fn project(delta: &AffDelta, resident: &[bool], depth: u32) -> Vec<(NodeId, NodeId, u32, u32)> {
    project_delta(delta, depth, |x| {
        resident.get(x.index()).copied().unwrap_or(false)
    })
}

/// Which slots are resident for `reqs` in the current graph.
fn resident_mask(graph: &DataGraph, reqs: &SlenRequirements) -> Vec<bool> {
    (0..graph.slot_count())
        .map(|i| {
            let id = NodeId::from_index(i);
            graph.label(id).is_some_and(|l| reqs.labels().contains(&l))
        })
        .collect()
}

/// A 2-page spill cache: every row access beyond the pinned one churns,
/// so these cases exercise the evict/reload path on every single op.
fn tiny_paged() -> PagedConfig {
    PagedConfig {
        page_size: 256,
        cache_budget_bytes: 512,
    }
}

/// Paged is sparse with the rows behind a pager: distances must agree on
/// every pair, not just a projection.
fn assert_paged_matches_sparse(
    graph: &DataGraph,
    sparse: &SparseIndex,
    paged: &PagedIndex,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let n = graph.slot_count();
    for i in 0..n {
        let x = NodeId::from_index(i);
        for j in 0..n {
            let y = NodeId::from_index(j);
            prop_assert_eq!(
                paged.distance(x, y),
                sparse.distance(x, y),
                "paged distance({:?},{:?}) diverged from sparse",
                x,
                y
            );
        }
    }
    Ok(())
}

fn assert_distances_match(
    graph: &DataGraph,
    dense: &IncrementalIndex,
    sparse: &SparseIndex,
    resident: &[bool],
    depth: u32,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let n = graph.slot_count();
    for (i, &is_resident) in resident.iter().enumerate().take(n) {
        if !is_resident {
            continue;
        }
        let x = NodeId::from_index(i);
        for j in 0..n {
            let y = NodeId::from_index(j);
            let d = dense.distance(x, y);
            let expected = if d <= depth { d } else { INF };
            prop_assert_eq!(
                sparse.distance(x, y),
                expected,
                "distance({:?},{:?}) diverged",
                x,
                y
            );
        }
    }
    Ok(())
}

/// Drive one generated case through all three backends, checking every
/// commit's delta and all distances after it. Dense-vs-sparse is a
/// projection check; paged-vs-sparse is bitwise.
fn check_case(case: RawCase) -> Result<(), proptest::test_runner::TestCaseError> {
    let (nodes, labels, edges, mask, depth_sel, ops) = case;
    let (mut graph, label_ids) = build_graph(nodes, labels, &edges);
    let reqs = requirements(&label_ids, mask, depth_sel);
    let depth = reqs.depth();
    let hint = RepairHint::Baseline;

    let mut dense = <IncrementalIndex as SlenBackend>::build(&graph, &reqs);
    let mut sparse = SparseIndex::build(&graph, &reqs);
    let mut paged = PagedIndex::with_config(&graph, &reqs, tiny_paged());
    {
        let resident = resident_mask(&graph, &reqs);
        assert_distances_match(&graph, &dense, &sparse, &resident, depth)?;
        assert_paged_matches_sparse(&graph, &sparse, &paged)?;
    }

    let mut last_deleted = None;
    for (kind, a, b) in ops {
        // Residency as the deltas see it: before the op (a deleted node's
        // own row is part of its delta).
        let resident = resident_mask(&graph, &reqs);
        // Mutate the graph, commit on all three: `(dense, sparse, paged)`
        // deltas, and whose records lead (a deleted node's own row).
        let (what, dc, sc, pc, own) = match kind {
            // ---- insert edge: a drawn one (0), or the last deleted (4) ----
            0 | 4 => {
                let live: Vec<NodeId> = graph.nodes().collect();
                if live.len() < 2 {
                    continue;
                }
                let drawn = (live[a as usize % live.len()], live[b as usize % live.len()]);
                let (u, v) = if kind == 4 {
                    last_deleted.take().unwrap_or(drawn)
                } else {
                    drawn
                };
                if u == v || graph.has_edge(u, v) || !graph.contains(u) || !graph.contains(v) {
                    continue;
                }
                graph.add_edge(u, v).expect("checked");
                (
                    "insert edge",
                    SlenBackend::commit_insert_edge(&mut dense, &graph, u, v, hint),
                    sparse.commit_insert_edge(&graph, u, v, hint),
                    paged.commit_insert_edge(&graph, u, v, hint),
                    None,
                )
            }
            // ---- delete edge ----
            1 => {
                let all: Vec<(NodeId, NodeId)> = graph.edges().collect();
                if all.is_empty() {
                    continue;
                }
                let (u, v) = all[a as usize % all.len()];
                graph.remove_edge(u, v).expect("listed");
                last_deleted = Some((u, v));
                (
                    "delete edge",
                    SlenBackend::commit_delete_edge(&mut dense, &graph, u, v, hint),
                    sparse.commit_delete_edge(&graph, u, v, hint),
                    paged.commit_delete_edge(&graph, u, v, hint),
                    None,
                )
            }
            // ---- insert node ----
            2 => {
                let label = label_ids[a as usize % label_ids.len()];
                let id = graph.add_node(label);
                let dc = SlenBackend::commit_insert_node(&mut dense, &graph, id, hint);
                prop_assert!(dc.is_empty(), "node insert delta empty");
                (
                    "insert node",
                    dc,
                    sparse.commit_insert_node(&graph, id, hint),
                    paged.commit_insert_node(&graph, id, hint),
                    None,
                )
            }
            // ---- delete node ----
            3 => {
                let live: Vec<NodeId> = graph.nodes().collect();
                if live.len() <= 2 {
                    continue;
                }
                let id = live[a as usize % live.len()];
                graph.remove_node(id).expect("listed");
                (
                    "delete node",
                    SlenBackend::commit_delete_node(&mut dense, &graph, id, hint),
                    sparse.commit_delete_node(&graph, id, hint),
                    paged.commit_delete_node(&graph, id, hint),
                    Some(id),
                )
            }
            _ => unreachable!("kind range"),
        };
        prop_assert_eq!(
            project(&dc, &resident, depth),
            sc.changed.clone(),
            "{} commit vs dense projection",
            what
        );
        prop_assert_eq!(&pc.changed, &sc.changed, "paged {} commit", what);
        assert_delta_order(&sc, own)?;
        let resident = resident_mask(&graph, &reqs);
        assert_distances_match(&graph, &dense, &sparse, &resident, depth)?;
        assert_paged_matches_sparse(&graph, &sparse, &paged)?;
    }
    // With any resident row, the cold cache plus the full pair scans above
    // guarantee spill-file traffic — the tiny budget is really being hit.
    if paged.resident_rows() > 0 {
        let io = SlenBackend::io_stats(&paged).expect("paged reports IO");
        prop_assert!(
            io.cache_misses > 0 && io.pages_read > 0,
            "2-page cache never touched the spill file: {:?}",
            io
        );
    }
    Ok(())
}

/// Apply one generated op to `graph` and commit it on every backend.
fn commit_on_all(
    graph: &mut DataGraph,
    backends: &mut [AnyBackend],
    label_ids: &[Label],
    (kind, a, b): (u8, u32, u32),
) {
    let live: Vec<NodeId> = graph.nodes().collect();
    let hint = RepairHint::Baseline;
    match kind {
        0 if live.len() >= 2 => {
            let u = live[a as usize % live.len()];
            let v = live[b as usize % live.len()];
            if u != v && graph.add_edge(u, v).is_ok() {
                for x in backends {
                    x.commit_insert_edge(graph, u, v, hint);
                }
            }
        }
        1 => {
            let all: Vec<(NodeId, NodeId)> = graph.edges().collect();
            if !all.is_empty() {
                let (u, v) = all[a as usize % all.len()];
                graph.remove_edge(u, v).expect("listed");
                for x in backends {
                    x.commit_delete_edge(graph, u, v, hint);
                }
            }
        }
        2 => {
            let id = graph.add_node(label_ids[a as usize % label_ids.len()]);
            for x in backends {
                x.commit_insert_node(graph, id, hint);
            }
        }
        3 if live.len() > 2 => {
            let id = live[a as usize % live.len()];
            graph.remove_node(id).expect("listed");
            for x in backends {
                x.commit_delete_node(graph, id, hint);
            }
        }
        _ => {}
    }
}

/// `any_within` against the member loop it replaces, for every source
/// slot (resident or not, live or tombstoned), set and bound. Takes the
/// oracle by value so a `&AnyBackend` argument exercises the `&T` forward.
fn assert_kernel_matches_member_loop<O: DistanceOracle>(
    oracle: O,
    what: &str,
    slots: usize,
    sets: &[NodeSet],
) -> Result<(), proptest::test_runner::TestCaseError> {
    let bounds = (1..=4).map(Bound::Hops).chain([Bound::Unbounded]);
    for bound in bounds {
        for set in sets {
            for u in (0..slots).map(NodeId::from_index) {
                prop_assert_eq!(
                    oracle.any_within(u, set, bound),
                    set.iter().any(|v| oracle.within(u, v, bound)),
                    "{}: any_within({:?}, {:?}, {:?})",
                    what,
                    u,
                    set,
                    bound
                );
            }
        }
    }
    Ok(())
}

proptest! {
    /// Finite bounds: the truncated-row regime.
    #[test]
    fn sparse_matches_dense_projection(case in raw_case()) {
        // Redraw depth 0 (unbounded) into the finite lane; the unbounded
        // fallback has its own block below.
        let (nodes, labels, edges, mask, depth_sel, ops) = case;
        let depth_sel = if depth_sel == 0 { 2 } else { depth_sel };
        check_case((nodes, labels, edges, mask, depth_sel, ops))?;
    }

    /// Unbounded fallback: full (untruncated) rows, candidate sources only.
    #[test]
    fn sparse_matches_dense_with_unbounded_rows(case in raw_case()) {
        let (nodes, labels, edges, mask, _, ops) = case;
        check_case((nodes, labels, edges, mask, 0, ops))?;
    }

    /// The pruning's edge cases: multi-parent diamonds, targets exactly at
    /// the horizon, `B = 1`, unbounded rows, cycles, sources nobody
    /// resident reaches.
    #[test]
    fn pruned_repair_matches_dense_projection_on_diamonds(case in diamond_case()) {
        check_case(case)?;
    }

    /// The re-settle next to long adjacency lists: a hub with in- and
    /// out-degree ≥ 16 inside and on the border of the affected sets.
    #[test]
    fn resettle_matches_dense_projection_around_a_hub(case in hub_case()) {
        check_case(case)?;
    }

    /// An edge deleted and put back: the insert undoes the re-settle
    /// record for record, on the rows it patched.
    #[test]
    fn delete_then_reinsert_matches_dense_projection(case in reinsert_case()) {
        check_case(case)?;
    }

    /// Widening requirements mid-stream (deeper bound + new label) keeps
    /// the projection exact — the path `subsequent_query` exercises when a
    /// batch contains pattern inserts.
    #[test]
    fn sync_requirements_preserves_projection(
        case in raw_case(),
        extra_depth in 1u8..7,
        widen_all in proptest::strategy::any::<bool>(),
    ) {
        let (nodes, labels, edges, mask, depth_sel, _) = case;
        let depth_sel = if depth_sel == 0 { 1 } else { depth_sel };
        let (graph, label_ids) = build_graph(nodes, labels, &edges);
        let reqs = requirements(&label_ids, mask, depth_sel);
        let dense = <IncrementalIndex as SlenBackend>::build(&graph, &reqs);
        let mut sparse = SparseIndex::build(&graph, &reqs);
        let mut paged = PagedIndex::with_config(&graph, &reqs, tiny_paged());

        let mut wide = reqs.clone();
        wide.absorb_bound(Bound::Hops(extra_depth as u32));
        if widen_all {
            for &l in &label_ids {
                wide.absorb_label(l);
            }
        }
        sparse.sync_requirements(&graph, &wide);
        paged.sync_requirements(&graph, &wide);
        let resident = resident_mask(&graph, &wide);
        assert_distances_match(&graph, &dense, &sparse, &resident, wide.depth())?;
        assert_paged_matches_sparse(&graph, &sparse, &paged)?;
    }

    /// Register/deregister cycles: narrowing to a different requirement
    /// set and back must leave both incremental backends equal to indexes
    /// built fresh at each step — the path the pattern-host session API
    /// exercises as patterns come and go.
    #[test]
    fn narrow_cycles_match_fresh_builds(
        case in raw_case(),
        narrow_mask in 1u8..16,
        narrow_depth in 1u8..4,
    ) {
        let (nodes, labels, edges, mask, depth_sel, _) = case;
        let depth_sel = if depth_sel == 0 { 5 } else { depth_sel };
        let (graph, label_ids) = build_graph(nodes, labels, &edges);
        let wide = requirements(&label_ids, mask | narrow_mask, depth_sel.max(narrow_depth));
        let narrow = requirements(&label_ids, narrow_mask, narrow_depth);

        let mut sparse = SparseIndex::build(&graph, &wide);
        let mut paged = PagedIndex::with_config(&graph, &wide, tiny_paged());

        // Deregister: shrink to the narrow set.
        sparse.narrow_requirements(&graph, &narrow);
        paged.narrow_requirements(&graph, &narrow);
        let fresh_narrow = SparseIndex::build(&graph, &narrow);
        prop_assert_eq!(paged.resident_rows(), fresh_narrow.resident_rows());
        assert_paged_matches_sparse(&graph, &fresh_narrow, &paged)?;
        assert_paged_matches_sparse(&graph, &sparse, &paged)?;

        // Re-register: grow back to the wide set.
        sparse.narrow_requirements(&graph, &wide);
        paged.narrow_requirements(&graph, &wide);
        let fresh_wide = SparseIndex::build(&graph, &wide);
        prop_assert_eq!(paged.resident_rows(), fresh_wide.resident_rows());
        assert_paged_matches_sparse(&graph, &fresh_wide, &paged)?;
        assert_paged_matches_sparse(&graph, &sparse, &paged)?;
    }

    /// The witness-probe kernel equals the member loop on every backend —
    /// the row scans of sparse and paged (under the 2-page cache, so most
    /// probes reload their row) as much as the default the dense ones keep
    /// — for finite and unbounded rows, non-resident sources and the empty
    /// set.
    #[test]
    fn any_within_equals_the_member_loop(
        case in raw_case(),
        masks in vec(proptest::strategy::any::<u64>(), 1..4),
    ) {
        let (nodes, labels, edges, mask, depth_sel, ops) = case;
        let (mut graph, label_ids) = build_graph(nodes, labels, &edges);
        let reqs = requirements(&label_ids, mask, depth_sel);
        let mut backends: Vec<AnyBackend> = [BackendKind::Partitioned, BackendKind::Sparse]
            .into_iter()
            .map(|kind| AnyBackend::of_kind(kind, &graph, &reqs))
            .collect();
        backends.push(AnyBackend::Paged(PagedIndex::with_config(
            &graph,
            &reqs,
            tiny_paged(),
        )));
        for op in ops {
            commit_on_all(&mut graph, &mut backends, &label_ids, op);
        }

        let slots = graph.slot_count();
        let mut sets = vec![NodeSet::new()];
        sets.extend(masks.iter().map(|&bits| {
            (0..slots)
                .filter(|i| bits >> (i % 64) & 1 == 1)
                .map(NodeId::from_index)
                .collect::<NodeSet>()
        }));
        for backend in &backends {
            assert_kernel_matches_member_loop(backend, backend.kind(), slots, &sets)?;
        }
        // A source without a row has no partner in any set.
        let resident = resident_mask(&graph, &reqs);
        let everyone: NodeSet = (0..slots).map(NodeId::from_index).collect();
        for u in (0..slots).filter(|&i| !resident[i]).map(NodeId::from_index) {
            for backend in &backends[2..] {
                prop_assert!(!backend.any_within(u, &everyone, Bound::Unbounded));
            }
        }
    }
}
