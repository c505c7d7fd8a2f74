//! A fixed-capacity bitset over data-graph node slots.
//!
//! Affected-node sets (`Aff_N`), candidate sets (`Can_N`) and per-pattern-
//! node match sets are all dense sets over the same slot space, and the
//! elimination detector's core operation is the subset test
//! `Aff_N(UDa) ⊇ Aff_N(UDb)` (paper §IV-B). A word-parallel bitset makes
//! membership O(1) and subset/union/intersection O(slots/64).

use crate::ids::NodeId;

const WORD_BITS: usize = 64;

/// A set of [`NodeId`]s backed by `u64` words.
#[derive(Clone, Default)]
pub struct NodeSet {
    words: Vec<u64>,
    /// Cached population count; kept exact by all mutators.
    len: usize,
}

/// Equality is *membership* equality: word vectors of different capacities
/// (a cleared set keeps its allocation; a fresh one has none) compare equal
/// when their members agree. The derived implementation would treat
/// trailing zero words as a difference.
impl PartialEq for NodeSet {
    fn eq(&self, other: &Self) -> bool {
        if self.len != other.len {
            return false;
        }
        let max = self.words.len().max(other.words.len());
        (0..max).all(|i| {
            self.words.get(i).copied().unwrap_or(0) == other.words.get(i).copied().unwrap_or(0)
        })
    }
}

impl Eq for NodeSet {}

impl std::hash::Hash for NodeSet {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.len.hash(state);
        // Strip trailing zero words so equal sets hash equally.
        let trimmed = self
            .words
            .iter()
            .rposition(|&w| w != 0)
            .map_or(0, |p| p + 1);
        self.words[..trimmed].hash(state);
    }
}

impl NodeSet {
    /// An empty set able to hold slots `0..capacity` without reallocating.
    pub fn with_capacity(capacity: usize) -> Self {
        NodeSet {
            words: vec![0; capacity.div_ceil(WORD_BITS)],
            len: 0,
        }
    }

    /// An empty set with zero capacity (grows on demand).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of members.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `n` is a member.
    #[inline]
    pub fn contains(&self, n: NodeId) -> bool {
        let w = n.index() / WORD_BITS;
        self.words
            .get(w)
            .is_some_and(|&word| word & (1u64 << (n.index() % WORD_BITS)) != 0)
    }

    /// Insert `n`; returns whether it was newly inserted.
    pub fn insert(&mut self, n: NodeId) -> bool {
        let w = n.index() / WORD_BITS;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let mask = 1u64 << (n.index() % WORD_BITS);
        let newly = self.words[w] & mask == 0;
        self.words[w] |= mask;
        self.len += newly as usize;
        newly
    }

    /// Remove `n`; returns whether it was present.
    pub fn remove(&mut self, n: NodeId) -> bool {
        let w = n.index() / WORD_BITS;
        if w >= self.words.len() {
            return false;
        }
        let mask = 1u64 << (n.index() % WORD_BITS);
        let was = self.words[w] & mask != 0;
        self.words[w] &= !mask;
        self.len -= was as usize;
        was
    }

    /// Remove all members.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.len = 0;
    }

    /// `self ⊇ other`.
    pub fn is_superset_of(&self, other: &NodeSet) -> bool {
        if other.len > self.len {
            return false;
        }
        for (i, &ow) in other.words.iter().enumerate() {
            let sw = self.words.get(i).copied().unwrap_or(0);
            if ow & !sw != 0 {
                return false;
            }
        }
        true
    }

    /// `self ⊆ other`.
    #[inline]
    pub fn is_subset_of(&self, other: &NodeSet) -> bool {
        other.is_superset_of(self)
    }

    /// In-place union.
    pub fn union_with(&mut self, other: &NodeSet) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        let mut len = 0usize;
        for (i, w) in self.words.iter_mut().enumerate() {
            *w |= other.words.get(i).copied().unwrap_or(0);
            len += w.count_ones() as usize;
        }
        self.len = len;
    }

    /// In-place intersection.
    pub fn intersect_with(&mut self, other: &NodeSet) {
        let mut len = 0usize;
        for (i, w) in self.words.iter_mut().enumerate() {
            *w &= other.words.get(i).copied().unwrap_or(0);
            len += w.count_ones() as usize;
        }
        self.len = len;
    }

    /// Whether the intersection with `other` is non-empty.
    pub fn intersects(&self, other: &NodeSet) -> bool {
        self.words
            .iter()
            .zip(other.words.iter())
            .any(|(&a, &b)| a & b != 0)
    }

    /// Iterate the members of both sets in ascending id order, a word at a
    /// time and without building the intersection.
    pub fn intersection<'a>(&'a self, other: &'a NodeSet) -> impl Iterator<Item = NodeId> + 'a {
        self.words
            .iter()
            .zip(&other.words)
            .enumerate()
            .flat_map(|(i, (&a, &b))| {
                let mut word = a & b;
                std::iter::from_fn(move || {
                    (word != 0).then(|| {
                        let bit = word.trailing_zeros() as usize;
                        word &= word - 1;
                        NodeId::from_index(i * WORD_BITS + bit)
                    })
                })
            })
    }

    /// Iterate members in ascending id order.
    pub fn iter(&self) -> NodeSetIter<'_> {
        NodeSetIter {
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }
}

impl std::fmt::Debug for NodeSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<NodeId> for NodeSet {
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        let mut s = NodeSet::new();
        for n in iter {
            s.insert(n);
        }
        s
    }
}

impl Extend<NodeId> for NodeSet {
    fn extend<I: IntoIterator<Item = NodeId>>(&mut self, iter: I) {
        for n in iter {
            self.insert(n);
        }
    }
}

/// Ascending-order iterator over a [`NodeSet`].
pub struct NodeSetIter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for NodeSetIter<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1; // clear lowest set bit
                return Some(NodeId::from_index(self.word_idx * WORD_BITS + bit));
            }
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Vec<NodeId> {
        v.iter().map(|&i| NodeId(i)).collect()
    }

    #[test]
    fn insert_contains_remove() {
        let mut s = NodeSet::new();
        assert!(s.insert(NodeId(3)));
        assert!(!s.insert(NodeId(3)));
        assert!(s.contains(NodeId(3)));
        assert!(!s.contains(NodeId(4)));
        assert_eq!(s.len(), 1);
        assert!(s.remove(NodeId(3)));
        assert!(!s.remove(NodeId(3)));
        assert!(s.is_empty());
    }

    #[test]
    fn grows_across_word_boundaries() {
        let mut s = NodeSet::new();
        s.insert(NodeId(0));
        s.insert(NodeId(63));
        s.insert(NodeId(64));
        s.insert(NodeId(1000));
        assert_eq!(s.len(), 4);
        assert_eq!(s.iter().collect::<Vec<_>>(), ids(&[0, 63, 64, 1000]));
    }

    #[test]
    fn subset_and_superset() {
        let a = NodeSet::from_iter(ids(&[1, 5, 70]));
        let b = NodeSet::from_iter(ids(&[5, 70]));
        assert!(a.is_superset_of(&b));
        assert!(b.is_subset_of(&a));
        assert!(!b.is_superset_of(&a));
        assert!(a.is_superset_of(&a));
        let empty = NodeSet::new();
        assert!(a.is_superset_of(&empty));
        assert!(empty.is_subset_of(&a));
    }

    #[test]
    fn superset_with_shorter_word_vec() {
        let small = NodeSet::from_iter(ids(&[1]));
        let large = NodeSet::from_iter(ids(&[1, 500]));
        assert!(!small.is_superset_of(&large));
        assert!(large.is_superset_of(&small));
    }

    #[test]
    fn union_and_intersection() {
        let mut a = NodeSet::from_iter(ids(&[1, 2, 65]));
        let b = NodeSet::from_iter(ids(&[2, 3, 200]));
        a.union_with(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), ids(&[1, 2, 3, 65, 200]));
        assert_eq!(a.len(), 5);
        let mut c = NodeSet::from_iter(ids(&[2, 65, 999]));
        assert_eq!(c.intersection(&a).collect::<Vec<_>>(), ids(&[2, 65]));
        assert_eq!(a.intersection(&c).collect::<Vec<_>>(), ids(&[2, 65]));
        c.intersect_with(&a);
        assert_eq!(c.iter().collect::<Vec<_>>(), ids(&[2, 65]));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn intersects_detects_overlap() {
        let a = NodeSet::from_iter(ids(&[10, 20]));
        let b = NodeSet::from_iter(ids(&[20, 30]));
        let c = NodeSet::from_iter(ids(&[30, 40]));
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
    }

    #[test]
    fn equality_ignores_trailing_capacity() {
        let mut a = NodeSet::with_capacity(1024);
        let mut b = NodeSet::new();
        a.insert(NodeId(5));
        b.insert(NodeId(5));
        assert_eq!(a, b, "capacity must not affect equality");
        let mut cleared = NodeSet::from_iter([NodeId(900)]);
        cleared.clear();
        assert_eq!(cleared, NodeSet::new(), "cleared == fresh empty");
        let mut removed = NodeSet::from_iter([NodeId(700)]);
        removed.remove(NodeId(700));
        assert_eq!(removed, NodeSet::new());
    }

    #[test]
    fn equal_sets_hash_equally() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        fn h(s: &NodeSet) -> u64 {
            let mut hasher = DefaultHasher::new();
            s.hash(&mut hasher);
            hasher.finish()
        }
        let mut a = NodeSet::with_capacity(4096);
        a.insert(NodeId(3));
        let b = NodeSet::from_iter([NodeId(3)]);
        assert_eq!(h(&a), h(&b));
    }

    #[test]
    fn debug_output_lists_members() {
        let s = NodeSet::from_iter(ids(&[1, 2]));
        assert_eq!(format!("{s:?}"), "{n1, n2}");
    }

    #[test]
    fn clear_resets() {
        let mut s = NodeSet::from_iter(ids(&[1, 2, 3]));
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
    }
}
