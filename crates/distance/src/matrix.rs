//! The dense `SLen` matrix.
//!
//! Rows sit `stride ≥ n` cells apart, and the allocation holds `stride`
//! rows. The slack — columns `n..stride` of every row, and the rows not yet
//! used — is kept at [`INF`]. A node insert inside the stride therefore
//! appends one all-[`INF`] row and writes one diagonal cell, instead of
//! re-laying the whole `n²` matrix out (a 4 MiB copy per insert at 1 005
//! nodes). Growing past the stride re-lays it out once, at a new stride
//! with fresh headroom. The headroom is
//! `max(n / 32, 8)`: ≈3% more memory for a run of inserts that copies
//! nothing, and fixed — not an option anyone can set.

use gpnm_graph::NodeId;

use crate::INF;

/// Spare columns a matrix of dimension `n` is laid out with.
fn headroom(n: usize) -> usize {
    (n / 32).max(8)
}

/// Bytes a matrix of dimension `n` allocates: `stride` rows of `stride`
/// cells, `stride = n + headroom(n)`. The dense-build memory guard prices
/// this, not `n²`.
pub(crate) fn allocated_bytes(n: usize) -> u128 {
    let stride = (n + headroom(n)) as u128;
    stride * stride * std::mem::size_of::<u32>() as u128
}

/// Row-major dense matrix of shortest path lengths between node slots.
///
/// `SLen` in the paper (§IV, Table III). Rows and columns are indexed by
/// data-graph *slots*, so the matrix stays aligned with the graph across
/// deletions (tombstoned slots have all-[`INF`] rows/columns) and grows by
/// whole rows/columns on node insertion. Equality compares the `n × n`
/// view: two matrices laid out at different strides are equal when their
/// entries are.
pub struct DistanceMatrix {
    n: usize,
    /// Cells between the starts of consecutive rows (`≥ n`).
    stride: usize,
    /// `n` rows of `stride` cells; capacity for `stride` rows.
    dist: Vec<u32>,
}

impl DistanceMatrix {
    /// An `n × n` matrix initialized to all-[`INF`] with a zero diagonal.
    pub fn new(n: usize) -> Self {
        let mut m = DistanceMatrix::all_inf(n);
        for i in 0..n {
            m.dist[i * m.stride + i] = 0;
        }
        m
    }

    /// An `n × n` matrix of all [`INF`], zero diagonal included — used for
    /// tombstone-aware builds where the diagonal is set per live node.
    pub fn all_inf(n: usize) -> Self {
        let stride = n + headroom(n);
        let mut dist = Vec::with_capacity(stride * stride);
        dist.resize(n * stride, INF);
        DistanceMatrix { n, stride, dist }
    }

    /// Matrix dimension (slot count).
    #[inline(always)]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Shortest path length from `u` to `v` ([`INF`] if unreachable).
    #[inline(always)]
    pub fn get(&self, u: NodeId, v: NodeId) -> u32 {
        debug_assert!(v.index() < self.n);
        self.dist[u.index() * self.stride + v.index()]
    }

    /// Set the `u -> v` entry.
    #[inline(always)]
    pub fn set(&mut self, u: NodeId, v: NodeId, d: u32) {
        debug_assert!(v.index() < self.n);
        self.dist[u.index() * self.stride + v.index()] = d;
    }

    /// The row of source `u` as a slice of length `n`.
    #[inline(always)]
    pub fn row(&self, u: NodeId) -> &[u32] {
        let start = u.index() * self.stride;
        &self.dist[start..start + self.n]
    }

    /// Mutable row of source `u`.
    #[inline(always)]
    pub fn row_mut(&mut self, u: NodeId) -> &mut [u32] {
        let start = u.index() * self.stride;
        &mut self.dist[start..start + self.n]
    }

    /// Overwrite the row of `u` with `values` (must have length `n`).
    pub fn set_row(&mut self, u: NodeId, values: &[u32]) {
        assert_eq!(values.len(), self.n, "row length mismatch");
        self.row_mut(u).copy_from_slice(values);
    }

    /// Grow the matrix to `new_n × new_n`, preserving existing entries.
    /// New entries are [`INF`]; new diagonal entries are 0. Inside the
    /// stride this appends rows; past it, the matrix is laid out again at
    /// `new_n` plus fresh headroom.
    pub fn grow(&mut self, new_n: usize) {
        assert!(new_n >= self.n, "matrix cannot shrink");
        let old_n = self.n;
        if new_n > self.stride {
            let mut wider = DistanceMatrix::all_inf(new_n);
            for i in 0..old_n {
                let u = NodeId::from_index(i);
                wider.dist[i * wider.stride..][..old_n].copy_from_slice(self.row(u));
            }
            *self = wider;
        } else {
            self.dist.resize(new_n * self.stride, INF);
        }
        self.n = new_n;
        for i in old_n..new_n {
            self.dist[i * self.stride + i] = 0;
        }
    }

    /// The `n` rows, in slot order.
    fn rows(&self) -> impl Iterator<Item = &[u32]> + '_ {
        self.dist.chunks(self.stride).map(|row| &row[..self.n])
    }

    /// Number of finite entries (diagonal included).
    pub fn finite_entries(&self) -> usize {
        self.rows().flatten().filter(|&&d| d != INF).count()
    }

    /// Heap footprint in bytes — the `|ND|²` space cost of §VII-B, plus
    /// the headroom. Reports the vector's *capacity*, so memory admission
    /// compares against the real allocation.
    pub fn mem_bytes(&self) -> usize {
        self.dist.capacity() * std::mem::size_of::<u32>()
    }

    /// Compare against `other`, yielding `(u, v, old, new)` for every entry
    /// that differs, row by row. Both matrices must have equal dimension;
    /// their strides may differ.
    pub fn diff<'a>(
        &'a self,
        other: &'a DistanceMatrix,
    ) -> impl Iterator<Item = (NodeId, NodeId, u32, u32)> + 'a {
        assert_eq!(self.n, other.n, "diff requires equal dimensions");
        self.rows()
            .zip(other.rows())
            .enumerate()
            .flat_map(|(u, (a, b))| {
                let cells = a.iter().zip(b).enumerate();
                cells
                    .filter(|(_, (a, b))| a != b)
                    .map(move |(v, (&a, &b))| (NodeId::from_index(u), NodeId::from_index(v), a, b))
            })
    }
}

/// Keeps the capacity: a clone grows in place like the original (a derived
/// clone would allocate `n` rows only, and its first node insert would
/// reallocate).
impl Clone for DistanceMatrix {
    fn clone(&self) -> Self {
        let mut dist = Vec::with_capacity(self.dist.capacity());
        dist.extend_from_slice(&self.dist);
        DistanceMatrix {
            n: self.n,
            stride: self.stride,
            dist,
        }
    }
}

impl PartialEq for DistanceMatrix {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.rows().eq(other.rows())
    }
}

impl Eq for DistanceMatrix {}

impl std::fmt::Debug for DistanceMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "DistanceMatrix({}x{})", self.n, self.n)?;
        for row in self.rows() {
            let row: Vec<String> = row
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

    /// A matrix with an entry in every cell that can tell rows, columns and
    /// the diagonal apart: `d(i, j) = 100 i + j` off the diagonal.
    fn numbered(n: usize) -> DistanceMatrix {
        let mut m = DistanceMatrix::new(n);
        for i in 0..n {
            for j in (0..n).filter(|&j| j != i) {
                m.set(
                    NodeId::from_index(i),
                    NodeId::from_index(j),
                    (100 * i + j) as u32,
                );
            }
        }
        m
    }

    /// `numbered(old)` grown to `new`, checked cell by cell.
    fn assert_grown(m: &DistanceMatrix, old: usize, new: usize) {
        assert_eq!(m.n(), new);
        for i in 0..new {
            for j in 0..new {
                let expected = match (i == j, i < old && j < old) {
                    (true, _) => 0,
                    (false, true) => (100 * i + j) as u32,
                    (false, false) => INF,
                };
                let (u, v) = (NodeId::from_index(i), NodeId::from_index(j));
                assert_eq!(m.get(u, v), expected, "d({i}, {j})");
            }
        }
        assert_eq!(m.finite_entries(), old * old + (new - old));
    }

    #[test]
    fn growth_inside_the_headroom_appends_rows_in_place() {
        // 40 slots: headroom 8, stride 48.
        let mut m = numbered(40);
        let (stride, bytes) = (m.stride, m.mem_bytes());
        assert_eq!(stride, 48);
        assert_eq!(bytes as u128, allocated_bytes(40));
        let at = m.dist.as_ptr();
        for n in 41..=44 {
            m.grow(n);
            assert_grown(&m, 40, n);
        }
        // A clone keeps the capacity, so it grows in place too.
        let mut c = m.clone();
        let c_at = c.dist.as_ptr();
        for n in 45..=48 {
            m.grow(n);
            c.grow(n);
            assert_grown(&m, 40, n);
        }
        assert_eq!(c, m);
        for grown in [&m, &c] {
            assert_eq!(grown.stride, stride, "no re-layout");
            assert_eq!(grown.mem_bytes(), bytes);
        }
        assert_eq!(
            (m.dist.as_ptr(), c.dist.as_ptr()),
            (at, c_at),
            "no reallocation"
        );
    }

    #[test]
    fn growth_past_the_headroom_lays_the_matrix_out_once() {
        let mut m = numbered(40);
        m.grow(49);
        assert_eq!(m.stride, 49 + 8);
        assert_eq!(m.mem_bytes() as u128, allocated_bytes(49));
        assert_grown(&m, 40, 49);
        // Far past it, in one step.
        let mut m = numbered(40);
        m.grow(400);
        assert_eq!(m.stride, 400 + 12);
        assert_grown(&m, 40, 400);
    }

    #[test]
    fn equality_ignores_the_stride() {
        // Grown from 10 to 30 (one re-layout: stride 38) against built at
        // 30 (stride 38) against grown inside the stride from 22 (30).
        let mut a = DistanceMatrix::new(10);
        a.grow(30);
        let b = DistanceMatrix::new(30);
        let mut c = DistanceMatrix::new(22);
        c.grow(30);
        assert_eq!((a.stride, c.stride), (38, 30));
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_eq!(a.diff(&c).count(), 0);
        a.set(NodeId(29), NodeId(0), 4);
        assert_ne!(a, c);
        assert_eq!(
            c.diff(&a).collect::<Vec<_>>(),
            [(NodeId(29), NodeId(0), INF, 4)]
        );
        assert_ne!(DistanceMatrix::new(3), DistanceMatrix::new(4));
    }

    #[test]
    fn diff_reports_changed_entries() {
        let mut a = DistanceMatrix::new(2);
        let mut b = DistanceMatrix::new(2);
        a.set(NodeId(0), NodeId(1), 3);
        b.set(NodeId(0), NodeId(1), 2);
        let changes: Vec<_> = a.diff(&b).collect();
        assert_eq!(changes, vec![(NodeId(0), NodeId(1), 3, 2)]);
        // Row-major, across a stride, on the n × n view only.
        let (x, mut y) = (numbered(5), numbered(5));
        y.set(NodeId(4), NodeId(0), 1);
        y.set(NodeId(0), NodeId(4), 2);
        y.set(NodeId(2), NodeId(2), INF);
        let changes: Vec<_> = x.diff(&y).collect();
        assert_eq!(
            changes,
            [
                (NodeId(0), NodeId(4), 4, 2),
                (NodeId(2), NodeId(2), 0, INF),
                (NodeId(4), NodeId(0), 400, 1),
            ]
        );
    }

    #[test]
    fn finite_entries_and_memory() {
        let mut m = DistanceMatrix::new(3);
        assert_eq!(m.finite_entries(), 3);
        m.set(NodeId(0), NodeId(1), 1);
        assert_eq!(m.finite_entries(), 4);
        // Capacity-based: the allocation is `stride²` cells, headroom
        // included, whatever part of it holds rows yet.
        assert_eq!(m.mem_bytes() as u128, allocated_bytes(3));
        assert_eq!(allocated_bytes(3), 11 * 11 * 4);
    }

    #[test]
    fn finite_entries_ignore_the_slack() {
        // Slack cells hold INF, and the count reads the n × n view only: a
        // finite value planted in the slack is not an entry.
        let mut m = DistanceMatrix::new(4);
        assert_eq!(m.finite_entries(), 4);
        m.dist[m.stride - 1] = 7;
        assert_eq!(m.finite_entries(), 4);
        assert_eq!(m, DistanceMatrix::new(4), "nor does equality read it");
    }
}
