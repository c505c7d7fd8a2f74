//! The in-memory row store and [`SparseIndex`], the bounded-row backend
//! whose rows all live on the heap.
//!
//! The algorithm — what is resident, how rows are built and repaired — is
//! [`crate::rows`]; this module only says where a row is kept: a
//! slot-indexed `Vec<Option<SparseRow>>`, every store operation an index.
//! On a 100k-node power-law graph with a 6-node pattern over 60 labels that
//! is tens of MB instead of the dense matrix's 40 GB, which is what lets
//! the `gpnm` binary run 100k+-node end-to-end experiments.

use crate::rows::{grow_with_slack, BoundedRows, RowStore, SparseRow};

/// Heap-resident row storage: where [`SparseIndex`] keeps its rows. Opaque —
/// it exists as a name for the alias to mention.
#[derive(Debug, Clone, Default)]
pub struct MemStore {
    /// Slot-indexed resident rows (`None` = not a candidate source).
    rows: Vec<Option<SparseRow>>,
    /// How many of `rows` are `Some`, and the sum of their allocated
    /// words: kept by every write so the per-tick stats are O(1).
    resident: usize,
    word_capacity: usize,
}

impl MemStore {
    /// Swap `slot`'s row for `row`, keeping the two counters in step.
    fn replace(&mut self, slot: u32, row: Option<SparseRow>) {
        let old = std::mem::replace(&mut self.rows[slot as usize], row);
        if let Some(old) = old {
            self.resident -= 1;
            self.word_capacity -= old.capacity();
        }
        if let Some(new) = &self.rows[slot as usize] {
            self.resident += 1;
            self.word_capacity += new.capacity();
        }
    }
}

impl RowStore for MemStore {
    const KIND: &'static str = "sparse";

    fn slots(&self) -> usize {
        self.rows.len()
    }

    fn grow(&mut self, n: usize) {
        grow_with_slack(&mut self.rows, n, || None);
    }

    #[inline]
    fn is_resident(&self, slot: u32) -> bool {
        self.rows[slot as usize].is_some()
    }

    fn resident(&self) -> usize {
        self.resident
    }

    #[inline]
    fn fetch(&mut self, slot: u32) -> Option<&SparseRow> {
        self.rows[slot as usize].as_ref()
    }

    fn put(&mut self, slot: u32, row: SparseRow) {
        self.replace(slot, Some(row));
    }

    fn update(&mut self, slot: u32, f: impl FnOnce(&mut SparseRow)) {
        let row = self.rows[slot as usize]
            .as_mut()
            .expect("update of a non-resident row");
        let before = row.capacity();
        f(row);
        self.word_capacity = self.word_capacity - before + row.capacity();
    }

    fn remove(&mut self, slot: u32) {
        self.replace(slot, None);
    }

    fn clear(&mut self) {
        self.rows.iter_mut().for_each(|r| *r = None);
        self.resident = 0;
        self.word_capacity = 0;
    }

    #[inline]
    fn with_row<R>(&self, slot: u32, f: impl FnOnce(&SparseRow) -> R) -> Option<R> {
        self.rows.get(slot as usize)?.as_ref().map(f)
    }

    fn mem_bytes(&self) -> usize {
        // Capacity, not len: rows are patched in place and keep the
        // capacity of their high-water mark (a patch that shrinks, `remove`
        // and `truncate` shrink only `len`) plus the slack a growing patch
        // takes, and the slot vector itself over-allocates on growth. The
        // footprint is the real allocation — 4 bytes a target and a level
        // end — not the live entry count.
        self.rows.capacity() * std::mem::size_of::<Option<SparseRow>>()
            + self.word_capacity * std::mem::size_of::<u32>()
    }
}

/// Bounded-row sparse `SLen` index: [`BoundedRows`] with every row on the
/// heap — candidate rows only, truncated at the pattern's maximum finite
/// bound. The backend that unlocks 100k+-node graphs.
pub type SparseIndex = BoundedRows<MemStore>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{RepairHint, SlenBackend, SlenRequirements};
    use gpnm_graph::paper::fig1;

    #[test]
    fn growing_one_slot_past_capacity_reserves_slack_not_double() {
        let mut store = MemStore::default();
        store.grow(4096);
        let n = store.rows.capacity() + 1;
        store.grow(n);
        assert_eq!(store.slots(), n);
        assert!(
            store.rows.capacity() <= n + n / 64 + 16,
            "{} slots for n = {n}: doubled",
            store.rows.capacity()
        );
    }

    #[test]
    fn counters_match_a_recount_through_commits_and_a_retarget() {
        fn assert_recount(s: &SparseIndex) {
            let rows = || s.store.rows.iter().flatten();
            assert_eq!(s.store.resident, rows().count());
            let capacity: usize = rows().map(|r| r.capacity()).sum();
            assert_eq!(s.store.word_capacity, capacity);
        }
        let mut f = fig1();
        let reqs = SlenRequirements::of_pattern(&f.pattern);
        let mut s = SparseIndex::build(&f.graph, &reqs);
        assert_recount(&s); // `load`
        let hint = RepairHint::Baseline;
        f.graph.add_edge(f.se1, f.te2).unwrap();
        s.commit_insert_edge(&f.graph, f.se1, f.te2, hint);
        assert_recount(&s); // `update` growing rows
        f.graph.remove_edge(f.se2, f.te1).unwrap();
        s.commit_delete_edge(&f.graph, f.se2, f.te1, hint);
        assert_recount(&s); // `update` re-settling rows and shrinking one
        f.graph.remove_node(f.se1).unwrap();
        s.commit_delete_node(&f.graph, f.se1, hint);
        assert_recount(&s); // `remove`, `put` over the re-run rows
                            // PM's rows truncate 3 -> 2, SE's leave, TE's arrive.
        let mut pm_te = SlenRequirements::empty();
        for label in ["PM", "TE"] {
            pm_te.absorb_edge(f.interner.get(label).unwrap(), gpnm_graph::Bound::Hops(2));
        }
        s.narrow_requirements(&f.graph, &pm_te);
        assert_eq!(s.store.resident, 4);
        assert_recount(&s); // retarget: `remove` + `update` + `put`
        s.sync_requirements(&f.graph, &reqs);
        assert_recount(&s); // retarget: `put` over a row and into a gap
        s.rebuild(&f.graph, &reqs);
        assert_recount(&s); // `clear` + `load`
    }

    #[test]
    fn node_inserts_grow_the_index_through_the_same_path() {
        let mut f = fig1();
        let reqs = SlenRequirements::of_pattern(&f.pattern);
        let mut s = SparseIndex::build(&f.graph, &reqs);
        let label = f.interner.get("PM").unwrap();
        for _ in 0..64 {
            let id = f.graph.add_node(label);
            s.commit_insert_node(&f.graph, id, RepairHint::Baseline);
        }
        let n = f.graph.slot_count();
        assert_eq!(s.store.slots(), n);
        assert!(s.store.rows.capacity() <= n + n / 64 + 16);
        assert_eq!(s.resident_rows(), 4 + 64);
    }
}
