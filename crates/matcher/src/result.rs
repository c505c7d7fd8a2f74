//! The GPNM result: one node set per pattern node.

use std::sync::Arc;

use gpnm_graph::{NodeId, NodeSet, PatternGraph, PatternNodeId};

/// Per-pattern-node match sets — the paper's `N_pi` for every `pi ∈ GP`
/// (Table I is one of these, rendered).
///
/// ## Total match is a projection
///
/// §III-B's rule — `GP ⋠ GD` means every `N_pi` is empty — hides the
/// maximum simulation relation, it does not delete it. When some live
/// pattern node has no match the matcher moves the relation aside
/// (*withheld*) and leaves the visible sets empty. Everything that
/// **reports** reads the visible sets: [`set`](Self::set),
/// [`contains`](Self::contains), [`matches_of`](Self::matches_of),
/// [`total_matches`](Self::total_matches), [`is_empty`](Self::is_empty),
/// [`diff`](Self::diff) / `delta_from` and `==`. What **reasons** about
/// the standing simulation reads the relation:
/// [`relation_contains`](Self::relation_contains), and [`crate::repair`],
/// which puts the withheld sets back, repairs them and projects again.
///
/// Two rules keep a withheld relation exact. An edit of the visible sets
/// from outside ([`set_mut`](Self::set_mut)) discards it; and whoever
/// mutates the *pattern* under a standing result calls
/// [`forget_relation`](Self::forget_relation) unless its repair plan was
/// derived from the relation. A visibly-empty result that carries no
/// relation is re-matched by [`crate::repair`], never repaired.
///
/// ## Sets are shared until written
///
/// Each set sits behind an `Arc` and every write goes through
/// `Arc::make_mut`, so `clone` and [`visible`](Self::visible) cost one
/// reference count per slot, and a write copies only the set it touches,
/// and only while another result still shares it. A host publishes its
/// read views this way: an unchanged set is the same allocation in the
/// live result and in every view published since it was last written.
#[derive(Debug, Clone, Default)]
pub struct MatchResult {
    /// The visible sets, indexed by pattern slot; tombstoned pattern slots
    /// keep empty sets.
    sets: Vec<Arc<NodeSet>>,
    /// The maximum simulation relation while the total-match rule hides it
    /// (`sets` are then all empty and as many). `None` when `sets` *are*
    /// the relation, or when no relation is carried at all.
    withheld: Option<Vec<Arc<NodeSet>>>,
}

/// Equality is over the **visible** sets only: two results that report the
/// same matches are equal whether or not either carries a withheld
/// relation. [`MatchResult::relation_eq`] compares the relation.
impl PartialEq for MatchResult {
    fn eq(&self, other: &Self) -> bool {
        self.sets == other.sets
    }
}

impl Eq for MatchResult {}

impl MatchResult {
    /// An empty result sized for `pattern`.
    pub fn for_pattern(pattern: &PatternGraph) -> Self {
        MatchResult {
            sets: vec![Arc::default(); pattern.slot_count()],
            withheld: None,
        }
    }

    /// Number of pattern slots covered.
    pub fn slot_count(&self) -> usize {
        self.sets.len()
    }

    /// Grow to cover `slots` pattern slots (pattern node insertions).
    pub fn grow(&mut self, slots: usize) {
        if slots > self.sets.len() {
            let empty = Arc::<NodeSet>::default();
            self.sets.resize(slots, Arc::clone(&empty));
            if let Some(relation) = &mut self.withheld {
                relation.resize(slots, empty);
            }
        }
    }

    /// The match set of pattern node `p`.
    #[inline]
    pub fn set(&self, p: PatternNodeId) -> &NodeSet {
        &self.sets[p.index()]
    }

    /// Mutable match set of pattern node `p`. An edit from outside the
    /// matcher cannot keep a withheld relation in step, so this discards
    /// it (see the type's docs).
    #[inline]
    pub fn set_mut(&mut self, p: PatternNodeId) -> &mut NodeSet {
        self.withheld = None;
        Arc::make_mut(&mut self.sets[p.index()])
    }

    /// Whether data node `v` matches pattern node `p`.
    #[inline]
    pub fn contains(&self, p: PatternNodeId, v: NodeId) -> bool {
        self.sets.get(p.index()).is_some_and(|s| s.contains(v))
    }

    /// Whether `(p, v)` is in the maximum simulation relation this result
    /// stands for — [`contains`](Self::contains) unless the total-match
    /// rule withheld the relation. The question an update planner asks
    /// ("is `v` already simulated at `p`?"), as opposed to the one a
    /// reader asks.
    #[inline]
    pub fn relation_contains(&self, p: PatternNodeId, v: NodeId) -> bool {
        self.relation()
            .get(p.index())
            .is_some_and(|s| s.contains(v))
    }

    /// Whether `self` and `other` stand for the same relation: the
    /// withheld sets where the total-match rule hid them, the visible sets
    /// otherwise. Stricter than `==` on unmatched patterns — it is what
    /// catches a relation that went stale while nothing was visible.
    pub fn relation_eq(&self, other: &MatchResult) -> bool {
        self.relation() == other.relation()
    }

    /// The visible sets alone — what a read view or a subscriber's base
    /// needs; the relation is never handed to readers. It shares every set
    /// with `self` (one reference count per slot): a later write to `self`
    /// copies the set it touches, never the view's.
    pub fn visible(&self) -> MatchResult {
        MatchResult {
            sets: self.sets.clone(),
            withheld: None,
        }
    }

    /// Drop a withheld relation, leaving a visibly-empty result that
    /// [`crate::repair`] re-matches. For callers that change the pattern
    /// under a standing result with a plan derived from the visible sets.
    pub fn forget_relation(&mut self) {
        self.withheld = None;
    }

    /// Ascending iterator over the matchers of `p`. Empty for slots beyond
    /// the result's width (e.g. pattern nodes created after the query this
    /// result answered — the DER-I cascade probes those).
    pub fn matches_of(&self, p: PatternNodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.sets.get(p.index()).into_iter().flat_map(|s| s.iter())
    }

    /// Total number of `(pattern node, data node)` match pairs.
    pub fn total_matches(&self) -> usize {
        self.sets.iter().map(|s| s.len()).sum()
    }

    /// Whether every visible set is empty.
    pub fn is_empty(&self) -> bool {
        self.sets.iter().all(|s| s.is_empty())
    }

    /// Symmetric difference of the visible sets against `other` as
    /// `(pattern node, data node, added)` triples — the basis of SQuery
    /// vs IQuery reporting.
    pub fn diff<'a>(
        &'a self,
        other: &'a MatchResult,
    ) -> impl Iterator<Item = (PatternNodeId, NodeId, bool)> + 'a {
        let slots = self.sets.len().max(other.sets.len());
        (0..slots).flat_map(move |i| {
            let p = PatternNodeId::from_index(i);
            let (a, b) = (
                self.sets.get(i).map(|s| &**s),
                other.sets.get(i).map(|s| &**s),
            );
            let only_in = |x: Option<&'a NodeSet>, y: Option<&'a NodeSet>, added: bool| {
                x.into_iter()
                    .flat_map(NodeSet::iter)
                    .filter(move |&v| !y.is_some_and(|y| y.contains(v)))
                    .map(move |v| (p, v, added))
            };
            only_in(a, b, false).chain(only_in(b, a, true))
        })
    }

    /// The relation's sets: withheld if the total-match rule hid them,
    /// else the visible ones.
    pub(crate) fn relation(&self) -> &[Arc<NodeSet>] {
        self.withheld.as_deref().unwrap_or(&self.sets)
    }

    /// Whether the visible sets are the relation, i.e. the total-match
    /// rule is not withholding it.
    pub(crate) fn shows_relation(&self) -> bool {
        self.withheld.is_none()
    }

    /// Matcher-internal set access: the matcher edits the relation while
    /// it sits in `sets` (after [`restore_relation`](Self::restore_relation)),
    /// so there is nothing to discard.
    #[inline]
    pub(crate) fn slot_mut(&mut self, p: PatternNodeId) -> &mut NodeSet {
        debug_assert!(self.withheld.is_none(), "edit the restored relation");
        Arc::make_mut(&mut self.sets[p.index()])
    }

    /// Empty `p`'s set without copying it first.
    pub(crate) fn clear_slot(&mut self, p: PatternNodeId) {
        debug_assert!(self.withheld.is_none(), "edit the restored relation");
        self.sets[p.index()] = Arc::default();
    }

    /// Put a withheld relation back into the visible sets; returns
    /// whether there was one.
    pub(crate) fn restore_relation(&mut self) -> bool {
        match self.withheld.take() {
            Some(relation) => {
                self.sets = relation;
                true
            }
            None => false,
        }
    }

    /// The total-match projection: move the sets aside as the withheld
    /// relation and leave every visible set empty.
    pub(crate) fn withhold_relation(&mut self) {
        let empty = vec![Arc::default(); self.sets.len()];
        self.withheld = Some(std::mem::replace(&mut self.sets, empty));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpnm_graph::{LabelInterner, PatternGraph};

    fn pattern2() -> PatternGraph {
        let mut li = LabelInterner::new();
        let a = li.intern("A");
        let b = li.intern("B");
        let mut p = PatternGraph::new();
        p.add_node(a);
        p.add_node(b);
        p
    }

    #[test]
    fn insert_and_query() {
        let p = pattern2();
        let mut r = MatchResult::for_pattern(&p);
        r.set_mut(PatternNodeId(0)).insert(NodeId(7));
        assert!(r.contains(PatternNodeId(0), NodeId(7)));
        assert!(!r.contains(PatternNodeId(1), NodeId(7)));
        assert_eq!(r.total_matches(), 1);
        assert_eq!(
            r.matches_of(PatternNodeId(0)).collect::<Vec<_>>(),
            vec![NodeId(7)]
        );
    }

    #[test]
    fn diff_reports_adds_and_removes() {
        let p = pattern2();
        let mut a = MatchResult::for_pattern(&p);
        let mut b = MatchResult::for_pattern(&p);
        a.set_mut(PatternNodeId(0)).insert(NodeId(1));
        b.set_mut(PatternNodeId(0)).insert(NodeId(2));
        let mut d: Vec<_> = a.diff(&b).collect();
        d.sort_by_key(|&(p, v, add)| (p, v, add));
        assert_eq!(
            d,
            vec![
                (PatternNodeId(0), NodeId(1), false),
                (PatternNodeId(0), NodeId(2), true)
            ]
        );
    }

    #[test]
    fn grow_extends_slots() {
        let p = pattern2();
        let mut r = MatchResult::for_pattern(&p);
        assert_eq!(r.slot_count(), 2);
        r.grow(5);
        assert_eq!(r.slot_count(), 5);
        assert!(r.set(PatternNodeId(4)).is_empty());
        r.grow(3); // never shrinks
        assert_eq!(r.slot_count(), 5);
    }

    #[test]
    fn diff_handles_dimension_mismatch() {
        let p = pattern2();
        let mut a = MatchResult::for_pattern(&p);
        a.set_mut(PatternNodeId(1)).insert(NodeId(3));
        let mut b = a.clone();
        b.grow(3);
        b.set_mut(PatternNodeId(2)).insert(NodeId(9));
        let d: Vec<_> = a.diff(&b).collect();
        assert_eq!(d, vec![(PatternNodeId(2), NodeId(9), true)]);
    }

    #[test]
    fn withheld_relation_is_hidden_from_reports_and_dropped_by_edits() {
        let (p0, p1) = (PatternNodeId(0), PatternNodeId(1));
        let mut r = MatchResult::for_pattern(&pattern2());
        r.slot_mut(p0).insert(NodeId(1));
        let shown = r.clone();
        r.withhold_relation();
        // Reports read the (empty) visible sets...
        assert!(r.is_empty() && r.total_matches() == 0 && !r.contains(p0, NodeId(1)));
        assert_eq!(r.matches_of(p0).count(), 0);
        assert_eq!(
            shown.diff(&r).collect::<Vec<_>>(),
            vec![(p0, NodeId(1), false)]
        );
        assert_ne!(r, shown);
        // ...reasoning reads the relation.
        assert!(r.relation_contains(p0, NodeId(1)));
        assert!(r.relation_eq(&shown));
        // A reader's copy equals the result and carries no relation.
        let view = r.visible();
        assert_eq!(view, r);
        assert!(!view.relation_contains(p0, NodeId(1)));
        // Growth keeps both sides as wide as each other.
        r.grow(4);
        assert!(r.restore_relation());
        assert_eq!(r.slot_count(), 4);
        assert!(r.contains(p0, NodeId(1)));
        // An outside edit discards a withheld relation.
        r.withhold_relation();
        r.set_mut(p1).insert(NodeId(5));
        assert!(!r.relation_contains(p0, NodeId(1)));
        assert!(!r.restore_relation());
    }
}
