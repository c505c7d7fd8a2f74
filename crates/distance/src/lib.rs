//! Shortest-path-length (`SLen`) index for UA-GPNM.
//!
//! GPNM needs the shortest path length between arbitrary node pairs of the
//! data graph to check the bounded path lengths of pattern edges (paper
//! §III). This crate provides:
//!
//! * [`DistanceMatrix`] — the dense `SLen` matrix of §IV, built by
//!   [`apsp_matrix`]: a bit-parallel BFS over a [`gpnm_graph::CsrGraph`]
//!   snapshot that carries 64 sources per pass, one bit of a `u64` each.
//! * [`incremental`] — repair of the matrix under single edge/node updates,
//!   emitting an [`AffDelta`]: the changed pairs `AFF[u,v] = [a, b]` and the
//!   affected-node set `Aff_N` that drives DER-II elimination detection.
//! * [`backend`] — the [`SlenBackend`] trait: the repairable-index
//!   lifecycle (build, slot grow/tombstone, one commit per applied update
//!   returning its delta, bulk rebuild) the GPNM engine is generic over,
//!   plus the requirement model
//!   ([`SlenRequirements`]) that lets backends cover only the projection
//!   the matcher observes.
//! * [`BoundedRows`] — the bounded-row index: truncated BFS rows for
//!   pattern-labeled sources only, `O(candidate rows × bounded ball)`
//!   memory instead of `O(n²)`. One repair algorithm, generic over where
//!   the rows are kept; its two instantiations are the backends below.
//! * [`SparseIndex`] — bounded rows on the heap: the backend that unlocks
//!   100k+-node graphs.
//! * [`PagedIndex`] — bounded rows serialized into fixed-size pages of a
//!   spill file, with a byte-budgeted hot-row cache in front. Memory is
//!   `O(row directory + cache budget)` however many rows are resident —
//!   the backend for 10M+-node graphs under a hard memory ceiling.
//!
//! ## Choosing a backend
//!
//! There are two index representations, each chosen over alternatives
//! whose cost is written down here.
//!
//! **Dense `n × n` matrix** ([`IncrementalIndex`], `partitioned`).
//! Exact for every pair, `O(1)` lookups, delta-proportional repair; `4n²`
//! bytes plus ≈3% growth headroom, so it stops fitting around ~50k nodes
//! (42 GB at 100k). It is what the paper describes and what its figures
//! measure, so the paper-scale experiments use it. An insert touches its
//! affected sources × finite targets; a delete re-settles, in place, only
//! the entries whose every shortest path it took away — the decremental
//! step the bounded rows run, untruncated (the [`incremental`] module docs
//! have the argument and the cost); a node insert appends a row inside the
//! matrix's stride. The kind keeps the paper's §V name. The §V partition
//! method itself is test support: `tests/section_v` reproduces Tables
//! VIII/IX with it, and below is why no backend repairs through it.
//!
//! Rejected for the dense family: *recomputing a delete's candidate rows
//! by BFS, spread over the worker pool* — the paper's "processed
//! distributively" (§V), and this backend's `UA-GPNM` arm until the
//! re-settle replaced it. A query of the paper's own S-query workload
//! changes ≈2 400 entries, yet the BFS re-ran 26 k edges for every row
//! that reached a deleted node, and every node insert copied the whole
//! matrix: 32.9 ms a query, 0.53 ms with the re-settle and the stride
//! (medians of ten runs each, 2 cores). The re-settle runs on one thread
//! and [`RepairHint`] selects nothing. That is not because a delete is
//! too small to split: one re-settled row costs ≈0.38 µs, but a node
//! delete there re-settles all ≈1 000 rows that reach the node, a median
//! 381 µs (151–863 µs over 117 deletes), ≈80% of a query's `SLen` repair,
//! against 31–44 µs for a scoped thread spawn. Split into two
//! `WorkerPool::scope` lanes, one per half of those rows, it read
//! `paper_squery` `tick_p90_ms` lower in 10 of 10 pairs (by 1–19%,
//! median 8%), but `tick_p50_ms` 0.545 → 0.568 ms (worse in 7 of 10; 10 s
//! pairs on 2 cores) and `peak_rss_mb` 0.1–0.3 MiB higher, so it is not
//! taken (ROADMAP T). With the pool went the paper's `UA-GPNM-NoPar`
//! ablation, which isolated exactly this arm: the engine has one UA-GPNM,
//! and the kind has one type.
//! *Repairing deletion rows by composing partition-local distances
//! through the §V bridge graph* — this backend's former second arm,
//! selected only when at most 1/8 of the nodes are bridges. No graph in
//! play comes close. Bridge shares measure 0.67–1.0 on the five Table X
//! stand-ins (seeds 7, 11 and 42, full and 1/10 scale), 0.90 and 1.0 on
//! the two `experiment_shape` fixtures, 8/8 and 5/8 on the paper's Figs. 1
//! and 4, and 1 005/1 005 on `paper_squery`'s graph. So the arm never ran,
//! yet choosing it built a whole `PartitionedIndex` just to count
//! bridges (2.9–3.5 ms on email-EU-core, 22–23 ms on LiveJournal(sim), 2
//! cores). Every commit after that dirtied it, so a service rebuilt it on
//! every tick and a chained engine inside every timed `UA-GPNM` query. *A
//! separate `dense` kind*, and then *a runtime wrapper type beside the
//! index* — once the partition and the pool went, each differed from the
//! plain [`IncrementalIndex`] only in its `kind()` name; both folded into
//! it.
//!
//! **Bounded rows** ([`BoundedRows`]). Rows only for nodes whose label
//! some pattern edge leaves, each truncated at the deepest bound on those
//! edges — its label's *horizon* (a `*` edge gives that label untruncated
//! rows) — and keeping on that last level only the targets whose label
//! an edge reaching the horizon reads. The right choice past ~50k nodes. Repair is ball-local: an
//! update at `u` fetches only the resident rows inside `u`'s backward
//! ball (one BFS over the graph's own in-adjacency — no reverse rows, and
//! no CSR copy outside the bulk build) and re-runs only the rows that
//! change.
//! The representation and its repair algorithm exist once; the only choice
//! left is where rows live:
//!
//! * **sparse** ([`SparseIndex`]) — on the heap. Fastest; memory is
//!   `Σ_candidates |ball_B(x)|`.
//! * **paged** ([`PagedIndex`]) — in a spill file, hot rows cached under a
//!   byte budget. The same code, hence identical deltas and answers;
//!   choose it when even the sparse rows outgrow RAM, and size the working
//!   set with the service's `cache_budget_mb` (or
//!   [`PagedIndex::set_cache_budget`]). A cache much smaller than the
//!   working set pays a spill read per row touched.
//!
//! Rejected for the bounded-row family (details in the `rows` module
//! docs): *two copies of the algorithm, one per storage* — the tree's
//! shape until PR 13, ~330 duplicated code lines that drifted despite a
//! proptest suite proving them equal; *a `dyn` row store* — a virtual
//! call and no inlining on the `distance`/`any_within` path the matcher
//! runs by the hundred thousand per tick; *one store shape with a cache
//! inside the in-memory store too* — a clock bit, a budget and an eviction
//! path that can never fire, on the sparse workloads' hottest lookup;
//! *a candidate scan over every resident row* and *a CSR snapshot on the
//! repair path* — the tree's shape until PR 17, O(index) plus an O(N + E)
//! rebuild per update whatever the update touched; *a lock-free published
//! directory for the paged store's hot-row cache* — the tree's shape
//! until PR 24 (the `paged` module docs have the traffic that sized its
//! replacement, a plain struct behind one lock): 8 `unsafe` sites, 17
//! relaxed-ordering arguments and a model-checker suite for a path that runs
//! ≈10² times a 156 µs tick.
//!
//! The infinity sentinel is [`INF`] (`u32::MAX`); all arithmetic goes
//! through [`sat_add`] so infinity propagates instead of wrapping.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod aff;
mod any;
mod apsp;
pub mod backend;
pub mod incremental;
mod kind;
mod matrix;
mod oracle;
mod paged;
mod pager;
mod rows;
mod sparse;

pub use aff::AffDelta;
pub use any::AnyBackend;
pub use apsp::apsp_matrix;
pub use backend::{project_delta, IoStats, RepairHint, SlenBackend, SlenRequirements};
pub use incremental::IncrementalIndex;
pub use kind::{BackendKind, BudgetError, DEFAULT_MAX_INDEX_GB};
pub use matrix::DistanceMatrix;
pub use oracle::DistanceOracle;
pub use paged::{PagedConfig, PagedIndex, PagedStore};
pub use pager::DEFAULT_PAGE_SIZE;
pub use rows::BoundedRows;
pub use sparse::{MemStore, SparseIndex};

/// Infinity: no path. `u32::MAX`, so every finite distance compares below.
pub const INF: u32 = u32::MAX;

/// Saturating addition that treats [`INF`] as absorbing.
#[inline(always)]
pub fn sat_add(a: u32, b: u32) -> u32 {
    if a == INF || b == INF {
        INF
    } else {
        a.saturating_add(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sat_add_propagates_infinity() {
        assert_eq!(sat_add(INF, 0), INF);
        assert_eq!(sat_add(3, INF), INF);
        assert_eq!(sat_add(INF, INF), INF);
        assert_eq!(sat_add(2, 3), 5);
        assert_eq!(sat_add(u32::MAX - 1, 5), INF, "saturates to INF");
    }
}
