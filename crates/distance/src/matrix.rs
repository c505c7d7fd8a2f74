//! The dense `SLen` matrix.

use gpnm_graph::NodeId;

use crate::INF;

/// Row-major dense matrix of shortest path lengths between node slots.
///
/// `SLen` in the paper (§IV, Table III). Rows and columns are indexed by
/// data-graph *slots*, so the matrix stays aligned with the graph across
/// deletions (tombstoned slots have all-[`INF`] rows/columns) and grows by
/// whole rows/columns on node insertion.
#[derive(Clone, PartialEq, Eq)]
pub struct DistanceMatrix {
    n: usize,
    dist: Vec<u32>,
}

impl DistanceMatrix {
    /// An `n × n` matrix initialized to all-[`INF`] with a zero diagonal.
    pub fn new(n: usize) -> Self {
        let mut m = DistanceMatrix {
            n,
            dist: vec![INF; n * n],
        };
        for i in 0..n {
            m.dist[i * n + i] = 0;
        }
        m
    }

    /// An `n × n` matrix of all [`INF`], zero diagonal included — used for
    /// tombstone-aware builds where the diagonal is set per live node.
    pub fn all_inf(n: usize) -> Self {
        DistanceMatrix {
            n,
            dist: vec![INF; n * n],
        }
    }

    /// Matrix dimension (slot count).
    #[inline(always)]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Shortest path length from `u` to `v` ([`INF`] if unreachable).
    #[inline(always)]
    pub fn get(&self, u: NodeId, v: NodeId) -> u32 {
        self.dist[u.index() * self.n + v.index()]
    }

    /// Set the `u -> v` entry.
    #[inline(always)]
    pub fn set(&mut self, u: NodeId, v: NodeId, d: u32) {
        self.dist[u.index() * self.n + v.index()] = d;
    }

    /// The row of source `u` as a slice of length `n`.
    #[inline(always)]
    pub fn row(&self, u: NodeId) -> &[u32] {
        &self.dist[u.index() * self.n..(u.index() + 1) * self.n]
    }

    /// Mutable row of source `u`.
    #[inline(always)]
    pub fn row_mut(&mut self, u: NodeId) -> &mut [u32] {
        &mut self.dist[u.index() * self.n..(u.index() + 1) * self.n]
    }

    /// Overwrite the row of `u` with `values` (must have length `n`).
    pub fn set_row(&mut self, u: NodeId, values: &[u32]) {
        assert_eq!(values.len(), self.n, "row length mismatch");
        self.row_mut(u).copy_from_slice(values);
    }

    /// Grow the matrix to `new_n × new_n`, preserving existing entries.
    /// New entries are [`INF`]; new diagonal entries are 0.
    pub fn grow(&mut self, new_n: usize) {
        assert!(new_n >= self.n, "matrix cannot shrink");
        if new_n == self.n {
            return;
        }
        let old_n = self.n;
        let mut dist = vec![INF; new_n * new_n];
        for i in 0..old_n {
            dist[i * new_n..i * new_n + old_n]
                .copy_from_slice(&self.dist[i * old_n..(i + 1) * old_n]);
        }
        for i in old_n..new_n {
            dist[i * new_n + i] = 0;
        }
        self.n = new_n;
        self.dist = dist;
    }

    /// Set the row and column of `u` to [`INF`] (node deletion).
    pub fn clear_slot(&mut self, u: NodeId) {
        self.row_mut(u).fill(INF);
        let n = self.n;
        let col = u.index();
        for i in 0..n {
            self.dist[i * n + col] = INF;
        }
    }

    /// Number of finite entries (diagonal included).
    pub fn finite_entries(&self) -> usize {
        self.dist.iter().filter(|&&d| d != INF).count()
    }

    /// Heap footprint in bytes — the `|ND|²` space cost of §VII-B.
    /// Reports the vector's *capacity* (slot growth leaves slack behind),
    /// so memory admission compares against the real allocation.
    pub fn mem_bytes(&self) -> usize {
        self.dist.capacity() * std::mem::size_of::<u32>()
    }

    /// Compare against `other`, yielding `(u, v, old, new)` for every entry
    /// that differs. Both matrices must have equal dimension.
    pub fn diff<'a>(
        &'a self,
        other: &'a DistanceMatrix,
    ) -> impl Iterator<Item = (NodeId, NodeId, u32, u32)> + 'a {
        assert_eq!(self.n, other.n, "diff requires equal dimensions");
        let n = self.n;
        self.dist
            .iter()
            .zip(other.dist.iter())
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .map(move |(idx, (&a, &b))| {
                (
                    NodeId::from_index(idx / n),
                    NodeId::from_index(idx % n),
                    a,
                    b,
                )
            })
    }
}

impl std::fmt::Debug for DistanceMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "DistanceMatrix({}x{})", self.n, self.n)?;
        for i in 0..self.n {
            let row: Vec<String> = self
                .row(NodeId::from_index(i))
                .iter()
                .map(|&d| {
                    if d == INF {
                        "∞".to_owned()
                    } else {
                        d.to_string()
                    }
                })
                .collect();
            writeln!(f, "  [{}]", row.join(", "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_matrix_has_zero_diagonal() {
        let m = DistanceMatrix::new(3);
        for i in 0..3 {
            for j in 0..3 {
                let expected = if i == j { 0 } else { INF };
                assert_eq!(m.get(NodeId(i), NodeId(j)), expected);
            }
        }
    }

    #[test]
    fn set_get_row_roundtrip() {
        let mut m = DistanceMatrix::new(3);
        m.set(NodeId(0), NodeId(2), 7);
        assert_eq!(m.get(NodeId(0), NodeId(2)), 7);
        assert_eq!(m.row(NodeId(0)), &[0, INF, 7]);
        m.set_row(NodeId(1), &[9, 0, 1]);
        assert_eq!(m.get(NodeId(1), NodeId(0)), 9);
    }

    #[test]
    fn grow_preserves_and_extends() {
        let mut m = DistanceMatrix::new(2);
        m.set(NodeId(0), NodeId(1), 5);
        m.grow(4);
        assert_eq!(m.n(), 4);
        assert_eq!(m.get(NodeId(0), NodeId(1)), 5);
        assert_eq!(m.get(NodeId(0), NodeId(3)), INF);
        assert_eq!(m.get(NodeId(3), NodeId(3)), 0);
        assert_eq!(m.get(NodeId(2), NodeId(2)), 0);
    }

    #[test]
    fn clear_slot_wipes_row_and_column() {
        let mut m = DistanceMatrix::new(3);
        m.set(NodeId(0), NodeId(1), 2);
        m.set(NodeId(1), NodeId(2), 3);
        m.set(NodeId(2), NodeId(1), 4);
        m.clear_slot(NodeId(1));
        assert_eq!(m.get(NodeId(0), NodeId(1)), INF);
        assert_eq!(m.get(NodeId(1), NodeId(2)), INF);
        assert_eq!(m.get(NodeId(2), NodeId(1)), INF);
        assert_eq!(m.get(NodeId(1), NodeId(1)), INF);
        assert_eq!(m.get(NodeId(0), NodeId(0)), 0, "other slots untouched");
    }

    #[test]
    fn diff_reports_changed_entries() {
        let mut a = DistanceMatrix::new(2);
        let mut b = DistanceMatrix::new(2);
        a.set(NodeId(0), NodeId(1), 3);
        b.set(NodeId(0), NodeId(1), 2);
        let changes: Vec<_> = a.diff(&b).collect();
        assert_eq!(changes, vec![(NodeId(0), NodeId(1), 3, 2)]);
    }

    #[test]
    fn finite_entries_and_memory() {
        let mut m = DistanceMatrix::new(3);
        assert_eq!(m.finite_entries(), 3);
        m.set(NodeId(0), NodeId(1), 1);
        assert_eq!(m.finite_entries(), 4);
        // Capacity-based: a fresh `vec![INF; 9]` has exact capacity, so the
        // floor is tight here, but growth may leave slack above it.
        assert!(m.mem_bytes() >= 9 * 4);
    }
}
