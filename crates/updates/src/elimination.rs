//! The pairwise elimination relations among a batch's updates.
//!
//! [`EliminationGraph::detect`] is a set-containment join. `a` covers a
//! non-empty `b` only if `a`'s coverage holds every node of `b`'s, in
//! particular `b`'s smallest, its *representative*. An index from
//! representative to batch positions therefore names the only candidates
//! `a` has to test: the updates whose representative `a`'s coverage
//! holds. An empty coverage is covered by every comparable update, and
//! Type III relations come from each data update's pre-verified list.
//! Each eliminator's relations are collected in a bitset over batch
//! positions, which emits them in order and needs no sort.
//!
//! Cost, for `n` updates whose coverages span `W` bitset words in all,
//! with `h` representative hits and `R` relations emitted:
//!
//! * the index: O(W + n log n), one sorted `(node, position)` vector of
//!   at most `n` entries;
//! * the probes: one word-by-word intersection of each coverage with the
//!   representatives, O(W) in all, and for each of the `h` hits a binary
//!   search and one bitset superset test;
//! * the empty coverages and the output: O(n²/64 + R), word-wide masks
//!   per eliminator;
//! * Type III: O(C) over the `C` entries of the cross lists.
//!
//! The pairwise loop it replaced ran a superset test on each of the
//! n(n − 1) ordered pairs; it is kept as the test oracle.

use gpnm_graph::{NodeId, NodeSet};

use crate::update::Update;

/// Which §IV-A relation type a pair falls under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RelationKind {
    /// Type I: single-graph, pattern (`UPa ⊒ UPb`).
    SingleGraphPattern,
    /// Type II: single-graph, data (`UDa ⊵ UDb`).
    SingleGraphData,
    /// Type III: cross-graph (`UDa ⇔ UPb`, recorded with the data update
    /// as eliminator: DER-III requires `Aff_N(UDa) ⊇ Can_N(UPb)`, and the
    /// EH-Tree parent's repair pass must cover its children's verify
    /// sets, so the larger coverage side parents).
    CrossGraph,
}

/// `eliminator` covers (and therefore eliminates) `eliminated`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Relation {
    /// Batch index of the eliminating update.
    pub eliminator: usize,
    /// Batch index of the eliminated update.
    pub eliminated: usize,
    /// Relation type.
    pub kind: RelationKind,
}

/// The per-update detection artifacts the relations are computed from.
#[derive(Debug, Clone)]
pub struct UpdateEffect {
    /// Position in the batch. A batch's effects must be listed in position
    /// order, so `effects[i].index == i`: [`EliminationGraph::detect`] and
    /// [`crate::EhTree::build`] index by it.
    pub index: usize,
    /// The update itself.
    pub update: Update,
    /// `Can_N` (pattern updates) or `Aff_N` (data updates).
    pub coverage: NodeSet,
    /// Whether this is an insertion-polarity update (Algorithm 1 only
    /// compares like-polarity pattern updates).
    pub insertion: bool,
    /// Pre-verified Type III eliminations: batch indices of pattern
    /// updates this (data) update cross-eliminates.
    pub cross_eliminates: Vec<usize>,
}

/// All pairwise elimination relations of a batch.
#[derive(Debug, Clone, Default)]
pub struct EliminationGraph {
    relations: Vec<Relation>,
    n: usize,
}

impl EliminationGraph {
    /// Detect every Type I/II/III relation among `effects`, ordered by
    /// `(eliminator, eliminated)`.
    ///
    /// Ties (equal coverage both ways) are broken towards the earlier batch
    /// index so the relation stays acyclic, which the EH-Tree construction
    /// relies on. `effects[i].index` must be `i`.
    pub fn detect(effects: &[UpdateEffect]) -> Self {
        debug_assert_positions(effects);
        let n = effects.len();
        let words = n.div_ceil(64);
        // Bitsets over batch positions, `words` words each: the empty
        // coverages of each class, then the positions one eliminator covers.
        let mut bits = vec![0u64; 4 * words];
        let (empty, covered) = bits.split_at_mut(3 * words);
        for e in effects.iter().filter(|e| e.coverage.is_empty()) {
            insert(&mut empty[Class::of(e) as usize * words..], e.index);
        }
        let index = Representatives::new(effects);
        let mut relations = Vec::new();
        for a in effects {
            let class = Class::of(a);
            // `∅` is covered by every comparable update; between two empty
            // coverages the earlier index wins.
            let empty = &empty[class as usize * words..][..words];
            for (i, (c, &e)) in covered.iter_mut().zip(empty).enumerate() {
                *c = if a.coverage.is_empty() {
                    e & after(a.index, i)
                } else {
                    e
                };
            }
            for b in index.held_by(&a.coverage) {
                let b = &effects[b];
                if b.index != a.index && Class::of(b) == class && covers(a, b) {
                    insert(covered, b.index);
                }
            }
            if class == Class::Data {
                for &b in &a.cross_eliminates {
                    if effects.get(b).is_some_and(|e| e.update.is_pattern()) {
                        insert(covered, b);
                    }
                }
            }
            for (i, &word) in covered.iter().enumerate() {
                let mut word = word;
                while word != 0 {
                    let b = i * 64 + word.trailing_zeros() as usize;
                    word &= word - 1;
                    let kind = match (class, effects[b].update.is_pattern()) {
                        (Class::Data, false) => RelationKind::SingleGraphData,
                        (Class::Data, true) => RelationKind::CrossGraph,
                        _ => RelationKind::SingleGraphPattern,
                    };
                    relations.push(Relation {
                        eliminator: a.index,
                        eliminated: b,
                        kind,
                    });
                }
            }
        }
        EliminationGraph { relations, n }
    }

    /// All detected relations, ordered by `(eliminator, eliminated)`.
    pub fn relations(&self) -> &[Relation] {
        &self.relations
    }

    /// Number of updates covered.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether no updates were analyzed.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }
}

/// Check the `effects[i].index == i` invariant in debug builds.
pub(crate) fn debug_assert_positions(effects: &[UpdateEffect]) {
    debug_assert!(
        effects.iter().enumerate().all(|(i, e)| e.index == i),
        "UpdateEffect::index must equal the effect's position in the batch"
    );
}

/// The inverted index of the containment join, over one node per
/// non-empty coverage: its smallest. `a ⊇ b` needs `a ∋ min(b)`, so the
/// updates whose representative `a` holds are the only ones `a` can cover.
struct Representatives {
    /// `(node, position)` per non-empty coverage, sorted.
    by_node: Vec<(u32, usize)>,
    /// The nodes of `by_node`.
    nodes: NodeSet,
}

impl Representatives {
    fn new(effects: &[UpdateEffect]) -> Self {
        let mut by_node: Vec<(u32, usize)> = effects
            .iter()
            .filter_map(|e| Some((e.coverage.iter().next()?.0, e.index)))
            .collect();
        by_node.sort_unstable();
        let nodes = by_node.iter().map(|&(v, _)| NodeId(v)).collect();
        Representatives { by_node, nodes }
    }

    /// Positions of the updates whose representative `coverage` holds.
    fn held_by<'s>(&'s self, coverage: &'s NodeSet) -> impl Iterator<Item = usize> + 's {
        coverage.intersection(&self.nodes).flat_map(move |v| {
            let from = self.by_node.partition_point(|&(x, _)| x < v.0);
            self.by_node[from..]
                .iter()
                .take_while(move |&&(x, _)| x == v.0)
                .map(|&(_, b)| b)
        })
    }
}

/// Which updates can cover each other through Types I/II: two data
/// updates, or two pattern updates of like polarity (Algorithm 1).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    Data,
    PatternInsertion,
    PatternDeletion,
}

impl Class {
    fn of(e: &UpdateEffect) -> Self {
        match (e.update.is_pattern(), e.insertion) {
            (false, _) => Class::Data,
            (true, true) => Class::PatternInsertion,
            (true, false) => Class::PatternDeletion,
        }
    }
}

/// Add position `i` to a bitset over batch positions.
fn insert(bits: &mut [u64], i: usize) {
    bits[i / 64] |= 1 << (i % 64);
}

/// The positions after `a` in word `i` of a bitset over batch positions.
fn after(a: usize, i: usize) -> u64 {
    match i.cmp(&(a / 64)) {
        std::cmp::Ordering::Less => 0,
        std::cmp::Ordering::Equal => !0 << (a % 64) << 1,
        std::cmp::Ordering::Greater => !0,
    }
}

/// Strict coverage with index tie-break: `a` covers `b` iff
/// `coverage(a) ⊇ coverage(b)` and, when the sets are equal, `a` comes
/// first in the batch.
fn covers(a: &UpdateEffect, b: &UpdateEffect) -> bool {
    if !a.coverage.is_superset_of(&b.coverage) {
        return false;
    }
    if b.coverage.is_superset_of(&a.coverage) {
        // Equal sets: earlier index wins to keep the relation acyclic.
        a.index < b.index
    } else {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::update::{DataUpdate, PatternUpdate};
    use crate::EhTree;
    use gpnm_graph::{Bound, NodeId, PatternNodeId};
    use proptest::prelude::*;

    /// The definition `EliminationGraph::detect` must reproduce: every
    /// ordered pair, in batch order.
    fn detect_pairwise(effects: &[UpdateEffect]) -> Vec<Relation> {
        let mut relations = Vec::new();
        for a in effects {
            for b in effects {
                if a.index == b.index {
                    continue;
                }
                let kind = match (a.update.is_pattern(), b.update.is_pattern()) {
                    // Type I: like-polarity pattern updates.
                    (true, true) => (a.insertion == b.insertion && covers(a, b))
                        .then_some(RelationKind::SingleGraphPattern),
                    // Type II: data updates.
                    (false, false) => covers(a, b).then_some(RelationKind::SingleGraphData),
                    // Type III: data eliminates pattern (pre-verified).
                    (false, true) => a
                        .cross_eliminates
                        .contains(&b.index)
                        .then_some(RelationKind::CrossGraph),
                    (true, false) => None,
                };
                if let Some(kind) = kind {
                    relations.push(Relation {
                        eliminator: a.index,
                        eliminated: b.index,
                        kind,
                    });
                }
            }
        }
        relations
    }

    fn effect(index: usize, update: Update, ids: &[u32], insertion: bool) -> UpdateEffect {
        UpdateEffect {
            index,
            update,
            coverage: ids.iter().map(|&i| NodeId(i)).collect(),
            insertion,
            cross_eliminates: Vec::new(),
        }
    }

    fn up(i: u32) -> Update {
        Update::Pattern(PatternUpdate::InsertEdge {
            from: PatternNodeId(0),
            to: PatternNodeId(i),
            bound: Bound::Hops(2),
        })
    }

    fn ud(i: u32) -> Update {
        Update::Data(DataUpdate::InsertEdge {
            from: NodeId(0),
            to: NodeId(i),
        })
    }

    #[test]
    fn type_i_requires_like_polarity() {
        let a = effect(0, up(1), &[1, 2, 3], true);
        let b = effect(1, up(2), &[1, 2], true);
        let c = UpdateEffect {
            insertion: false,
            ..effect(
                2,
                Update::Pattern(PatternUpdate::DeleteEdge {
                    from: PatternNodeId(0),
                    to: PatternNodeId(3),
                }),
                &[1],
                false,
            )
        };
        let g = EliminationGraph::detect(&[a, b, c]);
        let rels = g.relations();
        assert!(rels.iter().any(|r| r.eliminator == 0
            && r.eliminated == 1
            && r.kind == RelationKind::SingleGraphPattern));
        // Insert (0) covers delete's set {1} but polarity differs: no Type I.
        assert!(!rels.iter().any(|r| r.eliminated == 2));
    }

    #[test]
    fn type_ii_between_data_updates() {
        let a = effect(0, ud(1), &[1, 2, 3, 4], true);
        let b = effect(1, ud(2), &[2, 3], false);
        let g = EliminationGraph::detect(&[a, b]);
        assert_eq!(g.relations().len(), 1);
        assert_eq!(g.relations()[0].kind, RelationKind::SingleGraphData);
        assert_eq!(g.relations()[0].eliminator, 0);
    }

    #[test]
    fn equal_coverage_breaks_toward_earlier_index() {
        let a = effect(0, ud(1), &[5, 6], true);
        let b = effect(1, ud(2), &[5, 6], true);
        let g = EliminationGraph::detect(&[a, b]);
        assert_eq!(g.relations().len(), 1, "exactly one direction");
        assert_eq!(g.relations()[0].eliminator, 0);
        assert_eq!(g.relations()[0].eliminated, 1);
    }

    #[test]
    fn type_iii_uses_preverified_list() {
        let mut d = effect(0, ud(1), &[1, 2, 3], true);
        d.cross_eliminates.push(1);
        let p = effect(1, up(1), &[1, 2], true);
        let g = EliminationGraph::detect(&[d, p]);
        assert!(g
            .relations()
            .iter()
            .any(|r| r.kind == RelationKind::CrossGraph && r.eliminator == 0 && r.eliminated == 1));
        // Pattern updates never eliminate data updates.
        assert!(!g.relations().iter().any(|r| r.eliminated == 0));
    }

    #[test]
    fn tightest_eliminator_is_the_tree_parent() {
        let a = effect(0, ud(1), &[1, 2, 3], true);
        let b = effect(1, ud(2), &[1, 2], true);
        let c = effect(2, ud(3), &[1], true);
        let effects = [a, b, c];
        let g = EliminationGraph::detect(&effects);
        let elim_c: Vec<usize> = g
            .relations()
            .iter()
            .filter(|r| r.eliminated == 2)
            .map(|r| r.eliminator)
            .collect();
        assert_eq!(elim_c, vec![0, 1]);
        let tree = EhTree::build(&effects, &g);
        assert_eq!(tree.parent(2), Some(1), "the smaller of the two covers");
        assert_eq!(tree.parent(1), Some(0));
        assert_eq!(tree.roots(), &[0]);
    }

    /// One generated update: `(kind, shape, pool slot, mask, cross list)`.
    type Spec = (u8, u8, usize, u64, Vec<usize>);

    /// Effects from specs over a pool of base sets. Shapes: an empty
    /// coverage, a pool set verbatim (equal coverages, the tie-break), a
    /// masked subset of one (nesting), or a fresh set. Kinds: data, pattern
    /// insertion, pattern deletion; data updates carry cross lists whose
    /// entries may name any position, including themselves, data updates
    /// and positions past the batch.
    fn build_effects(pool: &[(u32, u64, u64)], specs: &[Spec]) -> Vec<UpdateEffect> {
        let set = |offset: u32, lo: u64, hi: u64| -> NodeSet {
            (0..128u32)
                .filter(|&i| {
                    if i < 64 {
                        lo >> i & 1 == 1
                    } else {
                        hi >> (i - 64) & 1 == 1
                    }
                })
                .map(|i| NodeId(offset + i))
                .collect()
        };
        specs
            .iter()
            .enumerate()
            .map(|(index, (kind, shape, slot, mask, cross))| {
                let (offset, lo, hi) = pool[slot % pool.len()];
                let coverage = match shape {
                    0 => NodeSet::new(),
                    1 => set(offset, lo, hi),
                    2 => set(offset, lo & mask, hi & mask.rotate_left(17)),
                    _ => set(offset / 2, *mask, mask.rotate_left(29) & mask),
                };
                let update = if *kind == 0 {
                    ud(index as u32)
                } else {
                    up(index as u32)
                };
                UpdateEffect {
                    index,
                    update,
                    coverage,
                    insertion: *kind != 2,
                    cross_eliminates: if *kind == 0 {
                        cross.clone()
                    } else {
                        Vec::new()
                    },
                }
            })
            .collect()
    }

    /// The EH-Tree parents as they were found before the one-pass build:
    /// a scan of every relation per update.
    fn parents_by_scan(effects: &[UpdateEffect], relations: &[Relation]) -> Vec<Option<usize>> {
        effects
            .iter()
            .map(|e| {
                relations
                    .iter()
                    .filter(|r| r.eliminated == e.index)
                    .map(|r| r.eliminator)
                    .min_by_key(|&i| (effects[i].coverage.len(), i))
            })
            .collect()
    }

    proptest! {
        /// The containment join emits the pairwise loop's relations element
        /// for element, and the one-pass EH-Tree picks the parents the
        /// per-update scan picked.
        #[test]
        fn join_equals_pairwise_and_tree_equals_scan(
            pool in proptest::collection::vec((0u32..200, any::<u64>(), any::<u64>()), 1..8),
            specs in proptest::collection::vec(
                (0u8..3, 0u8..4, 0usize..8, any::<u64>(),
                 proptest::collection::vec(0usize..300, 0..4)),
                0..257,
            ),
        ) {
            let effects = build_effects(&pool, &specs);
            let oracle = detect_pairwise(&effects);
            let graph = EliminationGraph::detect(&effects);
            prop_assert_eq!(graph.relations(), oracle.as_slice());

            let tree = EhTree::build(&effects, &graph);
            let parents = parents_by_scan(&effects, &oracle);
            let one_pass: Vec<Option<usize>> = (0..effects.len()).map(|i| tree.parent(i)).collect();
            prop_assert_eq!(one_pass, parents.clone());
            let mut roots: Vec<usize> = (0..effects.len()).filter(|&i| parents[i].is_none()).collect();
            roots.sort_by_key(|&i| std::cmp::Reverse(effects[i].coverage.len()));
            prop_assert_eq!(tree.roots(), roots.as_slice());
            prop_assert_eq!(tree.eliminated_count(), parents.iter().flatten().count());
        }
    }
}
