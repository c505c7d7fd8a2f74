//! Bounded rows: the one `SLen` repair algorithm behind [`crate::SparseIndex`]
//! and [`crate::PagedIndex`], generic over where the rows are kept.
//!
//! ## 1. Purpose
//!
//! GPNM only ever consults `SLen` through `within(v, v', f_e)` checks whose
//! source `v` carries a label that occurs in the pattern (the matcher seeds
//! sets from label candidates; DER-I candidates and DER-III re-checks range
//! over matched/label sets too), and whose bound `f_e` is one of the
//! pattern's bounded path lengths. So the index only needs, per
//! *candidate* node `x` (label ∈ pattern labels), the distances
//! `d(x, y) ≤ B` where `B` is the pattern's maximum finite bound — any
//! longer distance is indistinguishable from ∞ for every check the engine
//! performs. Patterns containing an unbounded (`*`) edge need full
//! reachability, so `B` falls back to [`INF`] and rows are untruncated
//! (still candidate-sources-only). Memory is `O(Σ_candidates |ball_B(x)|)`
//! instead of `O(n²)`.
//!
//! ## 2. Representation: one [`BoundedRows<S>`] over a `RowStore`
//!
//! Each resident row is a sorted `(target, dist)` vector (`SparseRow`)
//! filled by a BFS truncated at depth `B`. [`BoundedRows`] owns the
//! requirement set, the BFS scratch and a CSR snapshot for the bulk build,
//! and carries the only copy of the build, insert-edge, delete-edge,
//! delete-node and requirement-retarget routines plus the
//! only `impl SlenBackend` / `impl DistanceOracle`. *Where a row lives* is
//! the crate-private `RowStore` seam: resident? / fetch / put / update /
//! remove / clear / grow for the `&mut` repair paths, `with_row` for the
//! `&self` oracle probes, and the store's own accounting (`mem_bytes`,
//! `io_stats`, `KIND`). Two stores exist:
//!
//! * `MemStore` ([`crate::SparseIndex`]) — a slot-indexed
//!   `Vec<Option<SparseRow>>`; every operation is an index.
//! * `PagedStore` ([`crate::PagedIndex`]) — a row directory into a spill
//!   file behind a byte-budgeted hot-row cache; `put`/`update`
//!   write through, `fetch` fills the cache and evicts.
//!
//! The seam is sealed (`pub(crate)`): the repair routines rely on stores
//! returning exactly the row that was last put, which an outside
//! implementation could not be held to.
//!
//! **Why not two copies.** That was the tree until PR 13: `paged.rs`
//! re-implemented `sparse.rs` function for function (~330 code lines) with
//! a proptest suite kept to prove the copies agree. They drifted anyway
//! (the slot-growth fix for the `Vec::resize` doubling transient reached
//! one copy only; the `any_within` probe had to be threaded through both),
//! and every further repair optimization would have been written and
//! proven twice.
//!
//! **Why not `dyn RowStore`.** `distance`/`any_within` run by the hundred
//! thousand per tick; a virtual call there blocks inlining the in-memory
//! row lookup into the matcher's loops, and `update`/`with_row` take
//! closures, so a dyn-compatible seam would also box or double-dispatch
//! them. A type parameter costs nothing at run time and one extra
//! monomorphization at build time.
//!
//! **Why no cache inside the in-memory store.** Giving both stores the same
//! "cache over backing rows" shape would make the store contract uniform,
//! but the in-memory store's backing rows *are* its hot rows: a cache in
//! front adds a clock bit, a budget and an eviction path that can never
//! fire, on the lookup path the sparse workloads spend most of their
//! refresh time in.
//!
//! ## 3. Repair: an update costs its ball, not the index
//!
//! Repair is commit-only: each routine is handed the graph **after** the
//! update and the rows as they stood **before** it, returns the
//! [`AffDelta`] between the two and leaves the rows exact for the graph.
//! There is no what-if mode — DER-II's `Aff_N` *is* the delta the applied
//! update emits — so every argument below is stated for that one pairing.
//!
//! The dense delta-proportional repair carries over in truncated form, and
//! the edge routines start from the update's **backward ball** instead of
//! the index: a source `x` can only be affected by an update to `(u, v)`
//! if it reaches `u` inside the horizon, and `{x : d(x, u) + 1 ≤ B}` is
//! one BFS of depth `B − 1` from `u` over [`DataGraph::in_neighbors`]. The
//! ball is filtered by residency *before* any row is fetched and walked in
//! slot order, so deltas keep the order a slot-order pass over every row
//! gave them; the exact candidate predicates then run on the fetched (old)
//! rows.
//!
//! * *Edge insert `(u, v)`*: only resident sources `x` with
//!   `d_B(x, u) + 1 < d_B(x, v)` can change (the dense triangle-inequality
//!   pruning, applied to the truncated function), and candidate targets
//!   come from the truncated BFS row of `v` (a simple shortest path from
//!   `v` cannot use an edge *into* `v`, so the new edge does not alter that
//!   row) — run only as deep as a candidate can use it: one that enters at
//!   `through = d(x, u) + 1` reaches no target farther than `B − through`
//!   from `v`, so the row is BFSed at `B − min through` (an untruncated
//!   index runs it untruncated), a tenth of the depth-`B` row on the
//!   benchmark's churn workload. The ball is walked once, in slot order,
//!   so the minimum is not known up front: a candidate that enters nearer
//!   than every one before it re-runs the BFS deeper (1.7 runs per
//!   inserting commit there, the earlier ones inner shells of the last) —
//!   cheaper than fetching every candidate a second time. Improvements are
//!   written into the row where they stand; only genuinely new targets
//!   grow it, by exactly their number. An insert with no such source does
//!   no forward BFS and no write; one whose `u` no resident row reaches
//!   fetches nothing at all.
//! * *Edge delete `(u, v)`*: only resident sources with
//!   `d_B(x, u) + 1 == d_B(x, v)` can lose a path. A source whose `d(x, v)`
//!   exceeds `B` can only change beyond the truncation horizon — invisible
//!   to the engine by construction. Of the rest, only the *entries* that
//!   really change are re-settled, in place ("Re-settle only …" below).
//! * *Node delete*: resident sources whose row reaches the node, plus the
//!   node's own row; each such row is re-run by truncated BFS and diffed.
//!
//! **The ball, walked in the post-update graph, is a superset of the
//! candidates the old rows define.** Three arguments are needed, one per
//! way the two could differ:
//!
//! 1. *Insert.* Adding an edge only shortens distances, so the post-insert
//!    ball of `u` contains the pre-insert one, which contains every `x`
//!    whose old row has `d(x, u) ≤ B − 1`.
//! 2. *Delete edge.* A shortest path *to* `u` never uses an out-edge of
//!    `u` (it would pass through `u` before arriving there), so the
//!    backward ball of `u` is the same without `(u, v)` as it was with it.
//! 3. *Unbounded rows.* With `B = `[`INF`] the "ball" degrades to backward
//!    reachability — as large as the graph allows, still a superset, still
//!    exact.
//!
//! **Node delete is the one routine that still scans every resident
//! row — and the one that still re-runs whole rows.** The post-delete
//! graph holds neither half of what a local repair needs: not the node's
//! in-edges, so there is no ball to walk backwards from; and not its
//! out-edges, so the children a re-settle would start from cannot be
//! enumerated — finding them means testing a whole BFS level of each row,
//! which a prototype measured *slower* than the re-run at 100k nodes (30
//! node deletes 144 → 167 ms). The `RemovedNode` that lists both stops at
//! the `commit_delete_node` signature, which the benchmark's staged replay
//! calls directly and so pins. Passing it through is the follow-up
//! (ROADMAP, direction A): seeds for the backward ball from its in-edges,
//! seeds for the affected set from its out-edges — after which `scan`,
//! `rerun_rows`, `diff_rows` and `bfs` can all go. At 100k nodes this scan
//! is what remains of a repair tick.
//!
//! **Re-settle only the entries that change** (edge delete). A deleted
//! edge changes 9 entries of a 310-entry row on the benchmark's churn
//! workload; re-running the row's BFS to find them costs the row. The
//! repair is the decremental step of Ramalingam & Reps, truncated at `B`
//! and specialised to unit weights. For a candidate source `x` with old
//! row `d`:
//!
//! * *The affected set* `A` is the targets whose distance grows. It is
//!   defined level by level: `v` is affected iff no in-neighbour `w` left
//!   in the graph has `d(w) + 1 == d(v)`; a target `z` one level below an
//!   affected `y` (`d(z) == d(y) + 1`, `y → z`) is affected iff **every**
//!   in-neighbour one level up (`d(w) + 1 == d(z)`) is affected. Growing
//!   `A` from `v` through out-edges in FIFO order visits it in level
//!   order, so a level is final before the next is judged.
//! * *Non-affected entries stand.* By induction on `d`: a target with a
//!   standing parent one level up keeps a path of its old length (the
//!   parent's path does not use `(u, v)`, nor does the last hop), and no
//!   distance ever shrinks under a delete.
//! * *The settle.* Each affected target takes the best `d(w) + 1 ≤ B` over
//!   its standing in-neighbours, then a small heap settles the nearest
//!   tentative one and relaxes its affected children — Dijkstra over `A`
//!   alone, since a target can come back through another affected target
//!   (even one of its own children). What is left unsettled fell beyond
//!   `B` and leaves the row. Records go out ascending by target — the
//!   order a diff of the two rows lists them — so deltas are bit-identical
//!   to the re-run's.
//! * *The truncated row is enough.* A parent of `z` one level up sits at
//!   `d(z) − 1 ≤ B − 1`, and the predecessor on any new path of length
//!   `≤ B` sits at `≤ B − 1`: both are entries of the row (or affected,
//!   hence former entries). A neighbour the row does not list is farther
//!   than `B` and can hold nothing up.
//! * *The two lemmas of PR 17 are its first step.* "No standing parent of
//!   `v`" is the **alternative-parent** test: a candidate that fails it is
//!   fetched once and dropped, its whole row standing. A `v` at `d(v) == B`
//!   with no standing parent is the **horizon leaf**: its children lie
//!   beyond `B`, so `A = {v}`, and nothing standing is near enough to
//!   bring it back (that would be a parent at `B − 1`), so the record
//!   `(x, v, B, ∞)` is written and the entry removed without scattering
//!   the row at all. Node deletes keep the leaf in its old form.
//!
//! **Why not binary-search the row.** The level test reads `d` at every
//! in-neighbour of every child of every affected target; around a hub that
//! is hundreds of lookups at `log₂ |row|` probes each. Scattering the row
//! into the all-[`INF`] BFS scratch array once makes each an index, and
//! costs 2 × |row| sequential writes — a fraction of the BFS it replaces.
//! (The candidate and alternative-parent tests, a handful of lookups that
//! discard most ball rows, still search: they run before any scatter.)
//!
//! **Why not a second scratch array.** "Affected", "tentative" and
//! "standing" need no marks beside the distances: an affected cell is set
//! to [`INF`] the moment it is found, which is exactly how every test
//! should read it ("holds nothing up", "not reached yet"), and its old
//! distance rides in the small affected list. Every tentative value is the
//! length of a real path in the post-delete graph, so it can only ever
//! undercut an affected cell — a standing cell is already at its
//! distance, and a cell outside the row is farther than `B` — and the
//! settle needs no way to tell them apart. One O(n) array serves the
//! BFSs and the re-settle; it is all-[`INF`] between commits (asserted on
//! entry in debug builds, and after every commit by the tests).
//!
//! Nothing outside the delta's sources is written; an edge commit fetches
//! each ball row once — tested and repaired on the same fetch — and only
//! ever patches rows in place (`RowStore::update`; `put` is for builds,
//! re-targets and the node-delete re-run, which fetches a row twice: once
//! to test, once to diff). Deltas are the
//! dense deltas *projected* onto resident sources with distances `> B`
//! mapped to ∞ — exactly the projection the matcher observes, which the
//! backend-equivalence proptest suite asserts record-for-record against
//! [`crate::IncrementalIndex`] (and, between the two stores, proves the
//! paged store's serialisation, eviction and write-through transparent).
//!
//! **Why not scan every row** (the tree until PR 17). `row.get(u)` on each
//! resident row is correct and needs no in-adjacency, but it is O(index)
//! per update whatever the update touches: 22 of a 24 ms tick on the
//! benchmark's 210-update workload, and on the paged store a spill read
//! for every row the cache cannot hold (4 484 pages per 4-update tick,
//! 1 272 from the ball).
//!
//! **Why no CSR copy on the repair path.** Every BFS used to run over a
//! `CsrSnapshot` keyed on the graph version — which every committed update
//! moves, so each repairing update first paid an O(N + E) rebuild. Patching
//! the CSR in place (overflow adjacency plus periodic compaction) would
//! remove the rebuild at the cost of a second mutable graph representation
//! to keep exact. A repair's BFS walks [`DataGraph`]'s own adjacency, which
//! costs nothing to maintain. The snapshot survives for the bulk build
//! alone (build, rebuild, retarget), where the graph does not move between
//! BFSs: registering `k` patterns re-targets `k` times against one graph
//! version, and both alternatives measured — the bulk build over the live
//! adjacency, and a flat copy made per call — read the benchmark's
//! `setup_s` ≈20% worse (0.0102 → 0.0124 s and 0.0111 → 0.0135 s on the
//! default serving workload) against a 25% bound.
//!
//! **Why no reverse rows.** Storing, per node, who reaches it would make
//! the candidate set a lookup — and double the index and its repair. The
//! backward BFS reads adjacency the graph already keeps.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt::Debug;

use gpnm_graph::{Bound, CsrSnapshot, DataGraph, Label, NodeId, NodeSet};

use crate::aff::AffDelta;
use crate::backend::{IoStats, RepairHint, SlenBackend, SlenRequirements};
use crate::oracle::DistanceOracle;
use crate::{sat_add, INF};

/// One resident row: `(target slot, distance)` sorted by slot. The paged
/// store's on-disk rows are these vectors serialized.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct SparseRow {
    pub(crate) entries: Vec<(u32, u32)>,
}

impl SparseRow {
    #[inline]
    pub(crate) fn get(&self, slot: u32) -> Option<u32> {
        self.entries
            .binary_search_by_key(&slot, |e| e.0)
            .ok()
            .map(|i| self.entries[i].1)
    }

    /// Whether some entry within `bound` targets a member of `set`: one
    /// pass over the row against the bitset.
    #[inline]
    pub(crate) fn any_within(&self, set: &NodeSet, bound: Bound) -> bool {
        self.entries
            .iter()
            .any(|&(t, d)| bound.admits(d) && set.contains(NodeId(t)))
    }

    /// Drop `slot`'s entry, if any.
    pub(crate) fn remove(&mut self, slot: u32) {
        if let Ok(i) = self.entries.binary_search_by_key(&slot, |e| e.0) {
            self.entries.remove(i);
        }
    }

    /// Merge `updates` (sorted by slot, each an improvement or insertion)
    /// into the row, keeping it sorted. Improvements are written where
    /// they stand; only genuinely new targets grow the vector — by exactly
    /// their number — and are placed by one backward merge, which moves
    /// each old entry at most once.
    pub(crate) fn apply_sorted_updates(&mut self, updates: &[(u32, u32)]) {
        let mut fresh = 0;
        for &(y, d) in updates {
            match self.entries.binary_search_by_key(&y, |e| e.0) {
                Ok(i) => self.entries[i].1 = d,
                Err(_) => fresh += 1,
            }
        }
        if fresh == 0 {
            return;
        }
        // `i` entries are still where they were; `k..` is merged.
        let mut i = self.entries.len();
        let mut k = i + fresh;
        self.entries.reserve_exact(fresh);
        self.entries.resize(k, (0, 0));
        for &up in updates.iter().rev() {
            while i > 0 && self.entries[i - 1].0 > up.0 {
                i -= 1;
                k -= 1;
                self.entries[k] = self.entries[i];
            }
            if i > 0 && self.entries[i - 1].0 == up.0 {
                continue; // an improvement, written above
            }
            k -= 1;
            self.entries[k] = up;
            if k == i {
                break; // every new target is placed
            }
        }
    }

    /// Overwrite the distances of `changes`' targets — `(target, old, new)`
    /// sorted by slot, all present — in place; a new distance of [`INF`]
    /// drops the entry (stored distances are finite, so it doubles as the
    /// tombstone).
    pub(crate) fn settle(&mut self, changes: &[(u32, u32, u32)]) {
        let mut from = 0;
        let mut dropped = false;
        for &(y, _, new) in changes {
            let at = self.entries[from..].binary_search_by_key(&y, |e| e.0);
            let i = from + at.expect("a re-settled target is in the row");
            self.entries[i].1 = new;
            dropped |= new == INF;
            from = i + 1;
        }
        if dropped {
            self.entries.retain(|e| e.1 != INF);
        }
    }
}

/// BFS from `source` along `adjacent`, truncated at `depth` hops ([`INF`] =
/// untruncated): the one traversal of the index. Forward rows walk
/// `DataGraph::out_neighbors`, backward balls `DataGraph::in_neighbors` —
/// the live adjacency either way, so a BFS costs its ball and nothing per
/// graph version. `dist` is an all-[`INF`] scratch array; on return `queue`
/// lists the nodes reached, in BFS order, and `dist` holds their depths —
/// the caller reads what it needs and hands both to [`restore_scratch`].
fn bfs_visit<'g>(
    adjacent: impl Fn(NodeId) -> &'g [NodeId],
    source: NodeId,
    depth: u32,
    dist: &mut [u32],
    queue: &mut Vec<NodeId>,
) {
    debug_assert_eq!(dist[source.index()], INF, "scratch not restored");
    queue.clear();
    dist[source.index()] = 0;
    queue.push(source);
    let mut head = 0;
    while head < queue.len() {
        let u = queue[head];
        head += 1;
        let du = dist[u.index()];
        if du >= depth {
            continue; // at the truncation horizon: do not expand further
        }
        for &v in adjacent(u) {
            if dist[v.index()] == INF {
                dist[v.index()] = du + 1;
                queue.push(v);
            }
        }
    }
}

/// Put `dist` back to all-[`INF`] after a [`bfs_visit`] that reached `queue`.
fn restore_scratch(dist: &mut [u32], queue: &[NodeId]) {
    for &v in queue {
        dist[v.index()] = INF;
    }
}

/// The truncated BFS row of `source`: [`bfs_visit`] harvested into a sorted
/// [`SparseRow`], scratch restored.
pub(crate) fn bfs_truncated<'g>(
    adjacent: impl Fn(NodeId) -> &'g [NodeId],
    source: NodeId,
    depth: u32,
    dist: &mut [u32],
    queue: &mut Vec<NodeId>,
) -> SparseRow {
    bfs_visit(adjacent, source, depth, dist, queue);
    let mut entries: Vec<(u32, u32)> = queue.iter().map(|&v| (v.0, dist[v.index()])).collect();
    restore_scratch(dist, queue);
    entries.sort_unstable_by_key(|e| e.0);
    SparseRow { entries }
}

/// The edge-delete re-settle: its scratch, and after [`Resettle::run`] its
/// outcome.
#[derive(Debug, Clone, Default)]
struct Resettle {
    /// The affected set, in discovery (level) order while it grows; the
    /// entries that changed, `(target, old, new)` ascending by target,
    /// once settled — `new` = [`INF`] for one that fell beyond the horizon.
    affected: Vec<(u32, u32, u32)>,
    /// Tentative `(distance, target)`s of the settle, nearest first.
    heap: BinaryHeap<Reverse<(u32, u32)>>,
}

impl Resettle {
    /// Re-settle `row` — a source's row as it stood with an edge into `v`,
    /// at distance `dv` inside the horizon, that `graph` has lost and no
    /// standing parent replaces. The truncated, unit-weight decremental
    /// step of Ramalingam & Reps (module docs §3). `dist` is the
    /// all-[`INF`] scratch array, restored before returning.
    fn run(
        &mut self,
        graph: &DataGraph,
        row: &SparseRow,
        v: NodeId,
        dv: u32,
        depth: u32,
        dist: &mut [u32],
    ) {
        let Resettle { affected, heap } = self;
        let cells = || row.entries.iter().map(|e| e.0 as usize);
        debug_assert!(cells().all(|y| dist[y] == INF), "scratch not restored");
        for &(y, d) in &row.entries {
            dist[y as usize] = d;
        }
        // 1. The affected set, level by level from `v`. A cell reads INF from
        // the moment its target is affected, so "a standing in-neighbour one
        // level up" is one comparison; FIFO order is level order, so level
        // `dy` is final before the first child at `dy + 1` is judged.
        affected.clear();
        affected.push((v.0, dv, INF));
        dist[v.index()] = INF;
        let mut head = 0;
        while head < affected.len() {
            let (y, dy, _) = affected[head];
            head += 1;
            for &z in graph.out_neighbors(NodeId(y)) {
                let mut parents = graph.in_neighbors(z).iter();
                if dist[z.index()] == dy + 1 && !parents.any(|w| dist[w.index()] == dy) {
                    affected.push((z.0, dy + 1, INF));
                    dist[z.index()] = INF;
                }
            }
        }
        // 2. Settle it: each affected target enters at its nearest standing
        // in-neighbour, then the nearest unsettled one relaxes its affected
        // children. Every value written is the length of a real path, so only
        // an affected cell can ever exceed `d + 1` (a standing one is already
        // at its distance; one outside the row lies beyond `depth`).
        heap.clear();
        for &(y, _, _) in affected.iter() {
            let parents = graph.in_neighbors(NodeId(y)).iter();
            let near = parents.map(|w| dist[w.index()]).min().unwrap_or(INF);
            if near < depth {
                dist[y as usize] = near + 1;
                heap.push(Reverse((near + 1, y)));
            }
        }
        while let Some(Reverse((d, y))) = heap.pop() {
            if dist[y as usize] != d || d >= depth {
                continue; // superseded, or at the horizon
            }
            for &z in graph.out_neighbors(NodeId(y)) {
                if dist[z.index()] > d + 1 {
                    debug_assert!(affected.iter().any(|a| a.0 == z.0), "wrote a standing cell");
                    dist[z.index()] = d + 1;
                    heap.push(Reverse((d + 1, z.0)));
                }
            }
        }
        // 3. Read the outcome in the order a diff of the rows would list it.
        affected.sort_unstable_by_key(|a| a.0);
        for a in affected.iter_mut() {
            a.2 = dist[a.0 as usize];
        }
        for y in cells() {
            dist[y] = INF;
        }
    }
}

/// Record every difference between two sorted sparse rows of source `x`
/// (absent entries read as [`INF`]), in ascending target order.
pub(crate) fn diff_rows(x: NodeId, old: &SparseRow, new: &SparseRow, delta: &mut AffDelta) {
    let (a, b) = (&old.entries, &new.entries);
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => {
                delta.record(x, NodeId(a[i].0), a[i].1, INF);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                delta.record(x, NodeId(b[j].0), INF, b[j].1);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                if a[i].1 != b[j].1 {
                    delta.record(x, NodeId(a[i].0), a[i].1, b[j].1);
                }
                i += 1;
                j += 1;
            }
        }
    }
    for &(y, d) in &a[i..] {
        delta.record(x, NodeId(y), d, INF);
    }
    for &(y, d) in &b[j..] {
        delta.record(x, NodeId(y), INF, d);
    }
}

/// Grow a slot-aligned vector to `n` elements without the doubling
/// transient. `Vec::resize` grows by doubling, which at 10M+ slots
/// allocates a second quarter-GiB buffer while the old one is still
/// live — enough to blow a tight address-space budget on a single
/// node insert. Reserving ~1.5% headroom past `n` instead keeps a
/// long run of single-slot commits realloc-free and bounds the
/// transient to the exact new size.
pub(crate) fn grow_with_slack<T>(v: &mut Vec<T>, n: usize, fill: impl FnMut() -> T) {
    if n > v.capacity() {
        v.reserve_exact(n + n / 64 + 16 - v.len());
    }
    if v.len() < n {
        v.resize_with(n, fill);
    }
}

/// Where bounded rows live — the seam between the one repair algorithm
/// ([`BoundedRows`]) and its two storages. Slots are data-graph node slots.
///
/// Contract: after `put(s, r)` / `load(s, r)` / `update(s, f)`, `fetch(s)`
/// and `with_row(s, ..)` observe exactly that row until the next write to
/// `s`. The `&mut` methods are only called with slots below
/// [`RowStore::slots`], `update` only on a resident one; `with_row` accepts
/// any slot.
pub(crate) trait RowStore: Debug + Default + Send + Sync {
    /// Backend name the store gives its [`BoundedRows`] instantiation.
    const KIND: &'static str;

    /// Number of addressable slots.
    fn slots(&self) -> usize;

    /// Make slots `0..n` addressable (never shrinks).
    fn grow(&mut self, n: usize);

    /// Whether `slot` holds a row.
    fn is_resident(&self, slot: u32) -> bool;

    /// How many slots hold a row — a count the store keeps, not a pass
    /// over the slots (every tick's stats read it).
    fn resident(&self) -> usize;

    /// `slot`'s row on the exclusive repair path (a paged store faults it
    /// into its cache); `None` when `slot` holds no row.
    fn fetch(&mut self, slot: u32) -> Option<&SparseRow>;

    /// Replace (or create) `slot`'s row.
    fn put(&mut self, slot: u32, row: SparseRow);

    /// `put` into a just-[`RowStore::clear`]ed store: the build/rebuild
    /// bulk load. A store with a cache may leave it cold.
    fn load(&mut self, slot: u32, row: SparseRow) {
        self.put(slot, row);
    }

    /// Mutate resident `slot`'s row in place.
    fn update(&mut self, slot: u32, f: impl FnOnce(&mut SparseRow));

    /// Drop `slot`'s row, if any.
    fn remove(&mut self, slot: u32);

    /// Drop every row; the slot space stays.
    fn clear(&mut self);

    /// Run `f` over `slot`'s row on the shared read path — every oracle
    /// probe. `None` when `slot` holds no row.
    fn with_row<R>(&self, slot: u32, f: impl FnOnce(&SparseRow) -> R) -> Option<R>;

    /// In-memory footprint of the stored rows and their directories, from
    /// sums the store keeps — like [`RowStore::resident`], read every tick.
    fn mem_bytes(&self) -> usize;

    /// Cumulative paging counters; `None` for a store that never pages.
    fn io_stats(&self) -> Option<IoStats> {
        None
    }
}

/// Whether `reqs` makes nodes labeled `label` distance sources.
fn requires(reqs: &SlenRequirements, label: Option<Label>) -> bool {
    label.is_some_and(|l| reqs.labels().binary_search(&l).is_ok())
}

/// Every node `reqs` makes a distance source, label-major.
fn required_sources<'a>(
    reqs: &'a SlenRequirements,
    graph: &'a DataGraph,
) -> impl Iterator<Item = NodeId> + 'a {
    reqs.labels()
        .iter()
        .flat_map(|&l| graph.nodes_with_label(l).iter().copied())
}

/// Bounded-row `SLen` index over candidate sources only, generic over its
/// row storage. Use it through its two instantiations,
/// [`crate::SparseIndex`] (rows on the heap) and [`crate::PagedIndex`]
/// (rows in a spill file behind a hot-row cache); both run the same code
/// and emit identical deltas.
///
/// [`DistanceOracle::distance`] answers [`INF`] for any pair outside the
/// resident projection — sound for every consumer in this workspace
/// because they all source distance queries at pattern-labeled nodes and
/// compare them against the pattern's bounds only (the projection
/// [`SlenRequirements`] captures), but *not* a general-purpose APSP oracle.
#[derive(Debug, Clone)]
pub struct BoundedRows<S> {
    /// The covered requirement set (source labels + truncation depth) —
    /// the single source of truth for what is resident.
    reqs: SlenRequirements,
    pub(crate) store: S,
    /// Flat adjacency for the bulk build ([`BoundedRows::build_rows`]);
    /// no repair reads it.
    snapshot: CsrSnapshot,
    /// All-[`INF`] between commits: the BFS depth array and the cells a
    /// re-settle scatters a row into.
    dist_buf: Vec<u32>,
    queue_buf: Vec<NodeId>,
    resettle: Resettle,
}

// The private bound is the seal: `RowStore` is crate-private by design, so
// only this crate's two stores can instantiate the public surface.
#[allow(private_bounds)]
impl<S: RowStore> BoundedRows<S> {
    /// Index `graph` for `reqs`, keeping the rows in `store`.
    pub(crate) fn with_store(graph: &DataGraph, reqs: &SlenRequirements, store: S) -> Self {
        let mut index = BoundedRows {
            reqs: reqs.clone(),
            store,
            snapshot: CsrSnapshot::new(),
            dist_buf: Vec::new(),
            queue_buf: Vec::new(),
            resettle: Resettle::default(),
        };
        index.materialize_all(graph);
        index
    }

    /// The truncation depth currently honored ([`INF`] = untruncated).
    pub fn depth(&self) -> u32 {
        self.reqs.depth()
    }

    /// The source labels currently materialized.
    pub fn labels(&self) -> &[Label] {
        self.reqs.labels()
    }

    fn ensure_slots(&mut self, graph: &DataGraph) {
        let n = graph.slot_count();
        self.store.grow(n);
        grow_with_slack(&mut self.dist_buf, n, || INF);
    }

    /// One truncated BFS row at the current depth, over the live
    /// out-adjacency: what the node-delete re-run runs.
    fn bfs(&mut self, graph: &DataGraph, source: NodeId) -> SparseRow {
        bfs_truncated(
            |n| graph.out_neighbors(n),
            source,
            self.reqs.depth(),
            &mut self.dist_buf,
            &mut self.queue_buf,
        )
    }

    /// The backward ball of an edge's tail `u`: the resident slots `x` with
    /// `d(x, u) + 1 ≤ depth` in `graph` — the sources that reach across
    /// the edge inside the horizon — ascending. One truncated BFS over the
    /// live in-adjacency, filtered by residency straight off its queue:
    /// before any row is fetched, and before anything is sorted. (Depth 0
    /// leaves nobody.)
    fn backward_ball(&mut self, graph: &DataGraph, u: NodeId) -> Vec<u32> {
        let Some(radius) = self.reqs.depth().checked_sub(1) else {
            return Vec::new();
        };
        let (dist, queue) = (&mut self.dist_buf, &mut self.queue_buf);
        bfs_visit(|n| graph.in_neighbors(n), u, radius, dist, queue);
        restore_scratch(dist, queue);
        let slots = queue.iter().map(|x| x.0);
        let mut ball: Vec<u32> = slots.filter(|&s| self.store.is_resident(s)).collect();
        ball.sort_unstable();
        ball
    }

    /// The all-rows candidate pass: fetch every resident row but `except`'s
    /// exactly once, in slot order, and keep what `pick` selects.
    /// O(index) — only for the one caller that has no ball to walk (see
    /// [`BoundedRows::delete_node_delta`]).
    fn scan<T>(
        &mut self,
        except: NodeId,
        mut pick: impl FnMut(NodeId, &SparseRow) -> Option<T>,
    ) -> Vec<T> {
        let mut picked = Vec::new();
        for slot in (0..self.store.slots() as u32).filter(|&s| s != except.0) {
            let Some(row) = self.store.fetch(slot) else {
                continue;
            };
            if let Some(hit) = pick(NodeId(slot), row) {
                picked.push(hit);
            }
        }
        picked
    }

    /// Bulk build: one row per source, each handed to `keep`. The only
    /// reader of the CSR snapshot: hundreds of BFSs over one unchanging
    /// graph are worth a flat copy of its adjacency, and registering `k`
    /// patterns re-targets `k` times against one graph version, which the
    /// snapshot answers with one build.
    fn build_rows(
        &mut self,
        graph: &DataGraph,
        sources: Vec<NodeId>,
        mut keep: impl FnMut(&mut S, u32, SparseRow),
    ) {
        if sources.is_empty() {
            return;
        }
        let csr = self.snapshot.get(graph);
        for x in sources {
            let row = bfs_truncated(
                |n| csr.out_neighbors(n),
                x,
                self.reqs.depth(),
                &mut self.dist_buf,
                &mut self.queue_buf,
            );
            keep(&mut self.store, x.0, row);
        }
    }

    /// Recompute every row the requirement set implies, from scratch.
    fn materialize_all(&mut self, graph: &DataGraph) {
        self.ensure_slots(graph);
        self.store.clear();
        let sources = required_sources(&self.reqs, graph).collect();
        self.build_rows(graph, sources, S::load);
    }

    /// Re-aim coverage at exactly `target`. Rows whose label left are
    /// dropped; a shrunken horizon re-truncates in place (a depth-B row
    /// filtered to `d ≤ B'` *is* the depth-B' row, no BFS needed); a deeper
    /// horizon re-runs every surviving row, then newly required sources
    /// are materialized — puts in slot order first, label order second.
    fn retarget(&mut self, graph: &DataGraph, target: SlenRequirements) {
        self.ensure_slots(graph);
        if self.reqs == target {
            return;
        }
        let deeper = target.depth() > self.reqs.depth();
        let shallower = target.depth() < self.reqs.depth();
        self.reqs = target;
        let depth = self.reqs.depth();
        let mut todo: Vec<NodeId> = Vec::new();
        for slot in 0..self.store.slots() as u32 {
            if !self.store.is_resident(slot) {
                continue;
            }
            if !requires(&self.reqs, graph.label(NodeId(slot))) {
                self.store.remove(slot);
            } else if shallower {
                self.store
                    .update(slot, |row| row.entries.retain(|&(_, d)| d <= depth));
            } else if deeper {
                todo.push(NodeId(slot));
            }
        }
        todo.extend(required_sources(&self.reqs, graph).filter(|x| !self.store.is_resident(x.0)));
        self.build_rows(graph, todo, S::put);
    }

    /// Insert-edge repair: the truncated analogue of the dense
    /// affected-source × finite-target pruning. `graph` already holds
    /// `(u, v)`: the backward ball of `u` only grew with the insert
    /// (superset argument 1), and a simple shortest path from `v` never
    /// traverses an edge into `v`, so the BFS row of `v` is the one the
    /// old rows compose with.
    fn insert_edge_delta(&mut self, graph: &DataGraph, u: NodeId, v: NodeId) -> AffDelta {
        self.ensure_slots(graph);
        let depth = self.reqs.depth();
        let mut delta = AffDelta::new();
        // The BFS row of `v`, as deep as a candidate met so far can use:
        // `through + d(v, y) ≤ depth` leaves `depth − through` hops past
        // `v`. None until the first candidate, so the common no-candidate
        // insert runs no forward BFS — and an insert nobody resident
        // reaches fetches nothing at all. A later candidate that enters
        // nearer re-runs it deeper; the last run is at
        // `depth − min through`, and the shallower ones before it are the
        // inner shells of that ball.
        let mut vrow = SparseRow::default();
        let mut reach = None;
        let mut updates: Vec<(u32, u32)> = Vec::new();
        for slot in self.backward_ball(graph, u) {
            let Some(row) = self.store.fetch(slot) else {
                continue;
            };
            // Affected source: `d_B(x,u) + 1 < d_B(x,v)`, within the horizon.
            let Some(through) = row.get(u.0).map(|du| sat_add(du, 1)) else {
                continue;
            };
            if through > depth || through >= row.get(v.0).unwrap_or(INF) {
                continue;
            }
            let usable = if depth == INF { INF } else { depth - through };
            if reach < Some(usable) {
                let out = |n| graph.out_neighbors(n);
                vrow = bfs_truncated(out, v, usable, &mut self.dist_buf, &mut self.queue_buf);
                reach = Some(usable);
            }
            updates.clear();
            for &(y, dvy) in &vrow.entries {
                let cand = sat_add(through, dvy);
                if cand > depth {
                    continue;
                }
                let old = row.get(y).unwrap_or(INF);
                if cand < old {
                    delta.record(NodeId(slot), NodeId(y), old, cand);
                    updates.push((y, cand));
                }
            }
            if !updates.is_empty() {
                self.store
                    .update(slot, |row| row.apply_sorted_updates(&updates));
            }
        }
        delta
    }

    /// Bring `sources`' rows up to date after `gone` was deleted (an edge
    /// into it, or the node itself) from `graph`, recording and storing
    /// every change. A source flagged as a horizon leaf — its entry for
    /// `gone` sat exactly at the horizon — loses that entry and nothing
    /// else; the others are re-run by truncated BFS and diffed.
    fn rerun_rows(
        &mut self,
        graph: &DataGraph,
        sources: Vec<(NodeId, bool)>,
        gone: NodeId,
        delta: &mut AffDelta,
    ) {
        for (x, horizon_leaf) in sources {
            if horizon_leaf {
                delta.record(x, gone, self.reqs.depth(), INF);
                self.store.update(x.0, |row| row.remove(gone.0));
                continue;
            }
            let new_row = self.bfs(graph, x);
            let old_row = self.store.fetch(x.0).expect("source is resident");
            diff_rows(x, old_row, &new_row, delta);
            self.store.put(x.0, new_row);
        }
    }

    /// Delete-edge repair; `graph` has already lost `(u, v)`. A shortest
    /// path *to* `u` never uses an out-edge of `u`, so `u`'s backward ball
    /// is the one it had with the edge (superset argument 2).
    fn delete_edge_delta(&mut self, graph: &DataGraph, u: NodeId, v: NodeId) -> AffDelta {
        self.ensure_slots(graph);
        let depth = self.reqs.depth();
        let mut delta = AffDelta::new();
        for slot in self.backward_ball(graph, u) {
            let Some(row) = self.store.fetch(slot) else {
                continue;
            };
            // Resident sources whose shortest path to `v` may run through
            // the edge `(u, v)` — the truncated delete-candidate test —
            // less those with an alternative parent: an in-neighbour `v`
            // still has, at the distance `u` was, keeps `d(x, v)` and hence
            // the whole row (`v` is not affected, so nothing is).
            let Some(dv) = row.get(v.0) else {
                continue;
            };
            if row.get(u.0).map(|du| sat_add(du, 1)) != Some(dv) {
                continue;
            }
            let mut parents = graph.in_neighbors(v).iter();
            if parents.any(|w| row.get(w.0).is_some_and(|dw| dw + 1 == dv)) {
                continue;
            }
            let x = NodeId(slot);
            if dv == depth {
                // Horizon leaf: `v`'s children lie beyond the horizon and
                // nothing standing is near enough to re-settle it. (Stored
                // distances are finite, so no row of an untruncated index
                // has one.)
                delta.record(x, v, depth, INF);
                self.store.update(slot, |row| row.remove(v.0));
                continue;
            }
            self.resettle
                .run(graph, row, v, dv, depth, &mut self.dist_buf);
            let changes = &self.resettle.affected;
            for &(y, old, new) in changes {
                delta.record(x, NodeId(y), old, new);
            }
            self.store.update(slot, |row| row.settle(changes));
        }
        delta
    }

    /// Delete-node repair; `graph` has already lost `id` and with it the
    /// in-edges a backward ball would be walked over, so this is the one
    /// routine that keeps the slot-order scan of every resident row.
    fn delete_node_delta(&mut self, graph: &DataGraph, id: NodeId) -> AffDelta {
        self.ensure_slots(graph);
        let depth = self.reqs.depth();
        let sources = self.scan(id, |x, row| Some((x, row.get(id.0)? == depth)));
        let mut delta = AffDelta::new();
        // The node's own row: every entry becomes INF.
        if let Some(row) = self.store.fetch(id.0) {
            for &(y, d) in &row.entries {
                delta.record(id, NodeId(y), d, INF);
            }
            self.store.remove(id.0);
        }
        self.rerun_rows(graph, sources, id, &mut delta);
        delta
    }
}

#[allow(private_bounds)]
impl<S: RowStore> DistanceOracle for BoundedRows<S> {
    #[inline]
    fn distance(&self, u: NodeId, v: NodeId) -> u32 {
        self.store
            .with_row(u.0, |row| row.get(v.0))
            .flatten()
            .unwrap_or(INF)
    }

    /// One row access per call, however many members `set` has.
    #[inline]
    fn any_within(&self, u: NodeId, set: &NodeSet, bound: Bound) -> bool {
        self.store
            .with_row(u.0, |row| row.any_within(set, bound))
            .unwrap_or(false)
    }
}

#[allow(private_bounds)]
impl<S: RowStore> SlenBackend for BoundedRows<S> {
    fn kind(&self) -> &'static str {
        S::KIND
    }

    fn build(graph: &DataGraph, reqs: &SlenRequirements) -> Self {
        Self::with_store(graph, reqs, S::default())
    }

    fn rebuild(&mut self, graph: &DataGraph, reqs: &SlenRequirements) {
        // Absorb the widened requirements first: the single materialize
        // pass below then covers old and new coverage together.
        self.reqs.absorb(reqs);
        self.materialize_all(graph);
    }

    fn sync_requirements(&mut self, graph: &DataGraph, reqs: &SlenRequirements) {
        // Coverage is monotone here: aim at the union.
        let mut target = self.reqs.clone();
        target.absorb(reqs);
        self.retarget(graph, target);
    }

    fn narrow_requirements(&mut self, graph: &DataGraph, reqs: &SlenRequirements) {
        self.retarget(graph, reqs.clone());
    }

    fn commit_insert_edge(
        &mut self,
        graph: &DataGraph,
        u: NodeId,
        v: NodeId,
        _hint: RepairHint,
    ) -> AffDelta {
        debug_assert!(graph.has_edge(u, v), "commit before graph mutation");
        self.insert_edge_delta(graph, u, v)
    }

    fn commit_delete_edge(
        &mut self,
        graph: &DataGraph,
        u: NodeId,
        v: NodeId,
        _hint: RepairHint,
    ) -> AffDelta {
        debug_assert!(!graph.has_edge(u, v), "commit before graph mutation");
        self.delete_edge_delta(graph, u, v)
    }

    fn commit_insert_node(&mut self, graph: &DataGraph, id: NodeId, _hint: RepairHint) -> AffDelta {
        self.ensure_slots(graph);
        if requires(&self.reqs, graph.label(id)) {
            // An isolated newcomer's row is just itself at distance 0.
            self.store.put(
                id.0,
                SparseRow {
                    entries: vec![(id.0, 0)],
                },
            );
        }
        AffDelta::new()
    }

    fn commit_delete_node(&mut self, graph: &DataGraph, id: NodeId, _hint: RepairHint) -> AffDelta {
        debug_assert!(!graph.contains(id), "commit before graph mutation");
        self.delete_node_delta(graph, id)
    }

    fn resident_rows(&self) -> usize {
        self.store.resident()
    }

    fn mem_bytes(&self) -> usize {
        self.store.mem_bytes()
    }

    fn io_stats(&self) -> Option<IoStats> {
        self.store.io_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apsp::apsp_matrix;
    use crate::incremental::IncrementalIndex;
    use crate::paged::{tiny, PagedStore};
    use crate::sparse::MemStore;
    use crate::DistanceMatrix;
    use gpnm_graph::paper::{fig1, Fig1};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn fig1_rows<S: RowStore>(store: S) -> (Fig1, BoundedRows<S>) {
        let f = fig1();
        let reqs = SlenRequirements::of_pattern(&f.pattern);
        let index = BoundedRows::with_store(&f.graph, &reqs, store);
        (f, index)
    }

    /// The truncated-projection equality every test leans on — and, since
    /// it runs after every commit of every test, the scratch invariant.
    fn assert_projection<S: RowStore>(
        s: &BoundedRows<S>,
        graph: &DataGraph,
        dense: &DistanceMatrix,
    ) {
        assert_scratch_restored(s);
        let n = graph.slot_count();
        for i in 0..n {
            let x = NodeId::from_index(i);
            if !s.store.is_resident(x.0) {
                continue;
            }
            for j in 0..n {
                let y = NodeId::from_index(j);
                let d = dense.get(x, y);
                let expected = if d <= s.depth() { d } else { INF };
                assert_eq!(s.distance(x, y), expected, "d({x:?},{y:?})");
            }
        }
    }

    /// Same residency and the same answer for every pair.
    fn assert_same_index<A: RowStore, B: RowStore>(
        a: &BoundedRows<A>,
        b: &BoundedRows<B>,
        graph: &DataGraph,
    ) {
        assert_eq!(a.resident_rows(), b.resident_rows());
        assert_eq!(a.depth(), b.depth());
        let n = graph.slot_count();
        for i in 0..n {
            for j in 0..n {
                let (x, y) = (NodeId::from_index(i), NodeId::from_index(j));
                assert_eq!(a.distance(x, y), b.distance(x, y), "d({x:?},{y:?})");
            }
        }
    }

    /// The invariant every repair routine leans on: between commits the
    /// scratch array is all-`INF`.
    fn assert_scratch_restored<S: RowStore>(s: &BoundedRows<S>) {
        assert!(s.dist_buf.iter().all(|&d| d == INF), "dist_buf left dirty");
    }

    /// The store's running row count against a recount over its slots.
    fn assert_resident_count<S: RowStore>(s: &BoundedRows<S>) {
        let slots = 0..s.store.slots() as u32;
        let recount = slots.filter(|&slot| s.store.is_resident(slot)).count();
        assert_eq!(s.resident_rows(), recount);
    }

    fn wide_reqs(f: &Fig1) -> SlenRequirements {
        // Widen: DB becomes a pattern label; deepen: a bound of 6 arrives.
        let mut wide = SlenRequirements::of_pattern(&f.pattern);
        wide.absorb_label(f.interner.get("DB").unwrap());
        wide.absorb_bound(Bound::Hops(6));
        wide
    }

    fn build_matches_truncated_dense<S: RowStore>(store: S) {
        let (f, s) = fig1_rows(store);
        assert_eq!(s.kind(), S::KIND);
        // All four pattern labels cover 7 of the 8 nodes (DB1 is not a
        // pattern label).
        assert_eq!(s.resident_rows(), 7);
        assert_eq!(s.depth(), 4);
        assert_projection(&s, &f.graph, &apsp_matrix(&f.graph));
        assert_eq!(s.distance(f.db1, f.se1), INF, "non-resident row reads INF");
    }

    fn commits_track_dense_through_a_mixed_sequence<S: RowStore>(store: S) {
        let (mut f, mut s) = fig1_rows(store);
        let mut dense = IncrementalIndex::build(&f.graph);

        f.graph.add_edge(f.se1, f.te2).unwrap();
        dense.commit_insert_edge(f.se1, f.te2);
        s.commit_insert_edge(&f.graph, f.se1, f.te2, RepairHint::Baseline);
        assert_projection(&s, &f.graph, dense.matrix());

        f.graph.remove_edge(f.pm1, f.db1).unwrap();
        dense.commit_delete_edge(&f.graph, f.pm1, f.db1);
        s.commit_delete_edge(&f.graph, f.pm1, f.db1, RepairHint::Baseline);
        assert_projection(&s, &f.graph, dense.matrix());

        let label = f.interner.get("TE").unwrap();
        let id = f.graph.add_node(label);
        dense.commit_insert_node(f.graph.slot_count());
        s.commit_insert_node(&f.graph, id, RepairHint::Baseline);
        assert_eq!(s.distance(id, id), 0, "required newcomer is resident");
        assert_scratch_restored(&s);

        f.graph.add_edge(f.s1, id).unwrap();
        dense.commit_insert_edge(f.s1, id);
        s.commit_insert_edge(&f.graph, f.s1, id, RepairHint::Baseline);
        assert_projection(&s, &f.graph, dense.matrix());

        f.graph.remove_node(f.se1).unwrap();
        dense.commit_delete_node(&f.graph, f.se1);
        s.commit_delete_node(&f.graph, f.se1, RepairHint::Baseline);
        assert_projection(&s, &f.graph, dense.matrix());
        assert_eq!(s.distance(f.se1, f.se2), INF, "tombstone row dropped");
        assert_resident_count(&s);
    }

    fn sync_requirements_deepens_and_widens<S: RowStore>(store: S) {
        let (f, mut s) = fig1_rows(store);
        assert_eq!(s.resident_rows(), 7);
        s.sync_requirements(&f.graph, &wide_reqs(&f));
        assert_eq!(s.resident_rows(), 8);
        assert_eq!(s.depth(), 6);
        assert_projection(&s, &f.graph, &apsp_matrix(&f.graph));
        // Narrower requirements are a no-op (coverage is monotone).
        let narrow = SlenRequirements::of_pattern(&f.pattern);
        s.sync_requirements(&f.graph, &narrow);
        assert_eq!(s.resident_rows(), 8);
        assert_eq!(s.depth(), 6);
    }

    fn narrow_requirements_matches_a_fresh_build<S: RowStore>(store: S) {
        let (f, mut s) = fig1_rows(store);
        s.sync_requirements(&f.graph, &wide_reqs(&f));
        assert_eq!(s.resident_rows(), 8);
        assert_eq!(s.depth(), 6);
        // Narrow back to the bare pattern: rows drop, entries re-truncate,
        // and the result is indistinguishable from building fresh.
        let narrow = SlenRequirements::of_pattern(&f.pattern);
        s.narrow_requirements(&f.graph, &narrow);
        let fresh = BoundedRows::with_store(&f.graph, &narrow, MemStore::default());
        assert_same_index(&s, &fresh, &f.graph);
        assert_projection(&s, &f.graph, &apsp_matrix(&f.graph));
    }

    fn narrow_requirements_can_widen_too<S: RowStore>(store: S) {
        // "Narrow" re-targets: a requirement set that is wider on one axis
        // and absent on another still lands exactly.
        let (f, mut s) = fig1_rows(store);
        let mut only_db = SlenRequirements::empty();
        only_db.absorb_label(f.interner.get("DB").unwrap());
        only_db.absorb_bound(Bound::Hops(6));
        s.narrow_requirements(&f.graph, &only_db);
        assert_eq!(s.resident_rows(), 1, "only DB1's row survives");
        assert_eq!(s.depth(), 6);
        let fresh = BoundedRows::with_store(&f.graph, &only_db, MemStore::default());
        assert_same_index(&s, &fresh, &f.graph);
        assert_resident_count(&s);
    }

    fn unbounded_requirements_store_full_rows<S: RowStore>(store: S) {
        let f = fig1();
        let mut reqs = SlenRequirements::of_pattern(&f.pattern);
        reqs.absorb_bound(Bound::Unbounded);
        let s = BoundedRows::with_store(&f.graph, &reqs, store);
        assert_eq!(s.depth(), INF);
        let dense = apsp_matrix(&f.graph);
        assert_projection(&s, &f.graph, &dense);
        // PM1 reaches TE1 in 5 hops — beyond the bounded pattern's horizon
        // of 4, but a full row must resolve it.
        assert_eq!(s.distance(f.pm2, f.te1), dense.get(f.pm2, f.te1));
    }

    /// Every edge delete's re-settle against the path it replaced — a
    /// truncated BFS of every row, diffed against the old one (`bfs` +
    /// `diff_rows`, which node deletes still run) — record for record and
    /// row for row, on seeded random graphs with every node a source, at
    /// `Hops(1..=4)` and unbounded.
    fn edge_delete_resettle_equals_rerun_and_diff<S: RowStore>(store: impl Fn() -> S) {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut draw = |below: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % below as u64) as usize
        };
        // What the suite must have seen by the end: a target re-settled
        // inside the horizon at a larger distance, an affected subtree more
        // than one level deep, a target that falls beyond a finite horizon
        // from strictly inside it.
        let (mut farther, mut deep, mut beyond) = (false, false, false);
        for round in 0..60 {
            let bound = [1, 2, 3, 4, INF][round % 5];
            let mut reqs = SlenRequirements::empty();
            reqs.absorb_label(Label(0));
            reqs.absorb_bound(if bound == INF {
                Bound::Unbounded
            } else {
                Bound::Hops(bound)
            });
            let n = 6 + draw(8);
            let mut graph = DataGraph::new();
            let ids: Vec<NodeId> = (0..n).map(|_| graph.add_node(Label(0))).collect();
            for _ in 0..n + draw(2 * n) {
                let (a, b) = (ids[draw(n)], ids[draw(n)]);
                if a != b {
                    let _ = graph.add_edge(a, b);
                }
            }
            let mut s = BoundedRows::with_store(&graph, &reqs, store());
            loop {
                let edges: Vec<(NodeId, NodeId)> = graph.edges().collect();
                if edges.is_empty() {
                    break;
                }
                let (u, v) = edges[draw(edges.len())];
                let old_rows: Vec<SparseRow> = ids
                    .iter()
                    .map(|x| s.store.fetch(x.0).expect("every node is a source").clone())
                    .collect();
                graph.remove_edge(u, v).unwrap();
                let mut expected = AffDelta::new();
                let new_rows: Vec<SparseRow> = ids.iter().map(|&x| s.bfs(&graph, x)).collect();
                for (i, &x) in ids.iter().enumerate() {
                    diff_rows(x, &old_rows[i], &new_rows[i], &mut expected);
                }
                let delta = s.commit_delete_edge(&graph, u, v, RepairHint::Baseline);
                assert_eq!(
                    delta.changed, expected.changed,
                    "round {round}, ({u:?}, {v:?})"
                );
                for (i, x) in ids.iter().enumerate() {
                    assert_eq!(s.store.fetch(x.0), Some(&new_rows[i]), "row of {x:?}");
                }
                assert_scratch_restored(&s);
                for (i, &x) in ids.iter().enumerate() {
                    let of_x = || delta.changed.iter().filter(move |r| r.0 == x);
                    let dv = old_rows[i].get(v.0);
                    farther |= of_x().any(|r| r.3 != INF);
                    deep |= of_x().any(|r| dv.is_some_and(|dv| r.2 >= dv + 2));
                    beyond |= of_x().any(|r| r.3 == INF && r.2 < bound);
                }
            }
        }
        assert!(farther && deep && beyond, "{farther} {deep} {beyond}");
    }

    /// The settle step is a shortest-path search, not one look at the
    /// standing in-neighbours: `v` loses `u -> v`; its child `c` re-enters
    /// over the long way round (`x -> a -> b -> e -> c`), and only then does
    /// `v` come back — through `c -> v`, an affected node judged after it.
    #[test]
    fn a_target_resettles_through_its_own_affected_child() {
        let mut reqs = SlenRequirements::empty();
        reqs.absorb_label(Label(0));
        reqs.absorb_bound(Bound::Hops(5));
        let mut graph = DataGraph::new();
        let [x, u, v, c, a, b, e] = [0; 7].map(|_| graph.add_node(Label(0)));
        let edges = [
            (x, u),
            (u, v),
            (v, c),
            (c, v),
            (x, a),
            (a, b),
            (b, e),
            (e, c),
        ];
        for (from, to) in edges {
            graph.add_edge(from, to).unwrap();
        }
        let mut s = BoundedRows::with_store(&graph, &reqs, MemStore::default());
        graph.remove_edge(u, v).unwrap();
        let delta = s.commit_delete_edge(&graph, u, v, RepairHint::Baseline);
        let of_x: Vec<_> = delta.changed.iter().filter(|r| r.0 == x).collect();
        assert_eq!(of_x, [&(x, v, 2, 5), &(x, c, 3, 4)]);
        assert_projection(&s, &graph, &apsp_matrix(&graph));
    }

    /// Run the whole algorithm suite over one store.
    macro_rules! store_suite {
        ($name:ident, $store:expr) => {
            mod $name {
                use super::*;

                #[test]
                fn build_matches_truncated_dense() {
                    super::build_matches_truncated_dense($store);
                }
                #[test]
                fn commits_track_dense_through_a_mixed_sequence() {
                    super::commits_track_dense_through_a_mixed_sequence($store);
                }
                #[test]
                fn sync_requirements_deepens_and_widens() {
                    super::sync_requirements_deepens_and_widens($store);
                }
                #[test]
                fn narrow_requirements_matches_a_fresh_build() {
                    super::narrow_requirements_matches_a_fresh_build($store);
                }
                #[test]
                fn narrow_requirements_can_widen_too() {
                    super::narrow_requirements_can_widen_too($store);
                }
                #[test]
                fn unbounded_requirements_store_full_rows() {
                    super::unbounded_requirements_store_full_rows($store);
                }
                #[test]
                fn edge_delete_resettle_equals_rerun_and_diff() {
                    super::edge_delete_resettle_equals_rerun_and_diff(|| $store);
                }
            }
        };
    }

    store_suite!(mem, MemStore::default());
    // A 2-page cache, so nearly every fetch of the suite evicts.
    store_suite!(paged_tiny, PagedStore::new(tiny()));

    /// `apply_sorted_updates` on an exact-fit row of even targets `0..12`:
    /// the merged row, and how much the allocation grew.
    fn patched(updates: &[(u32, u32)]) -> (Vec<(u32, u32)>, usize) {
        let mut row = SparseRow {
            entries: (0..6).map(|i| (2 * i, 9)).collect(),
        };
        row.entries.shrink_to_fit();
        let before = row.entries.capacity();
        row.apply_sorted_updates(updates);
        (row.entries.clone(), row.entries.capacity() - before)
    }

    #[test]
    fn sorted_updates_grow_a_row_by_exactly_its_new_targets() {
        let evens = |dist: [u32; 6]| {
            (0..6)
                .map(|i| (2 * i, dist[i as usize]))
                .collect::<Vec<_>>()
        };
        // Pure improvements are written where they stand.
        let (row, grew) = patched(&[(0, 1), (4, 2), (10, 3)]);
        assert_eq!((row, grew), (evens([1, 9, 2, 9, 9, 3]), 0));
        // Pure insertions: middle, back, front.
        let (row, grew) = patched(&[(5, 1)]);
        assert_eq!(
            row,
            [(0, 9), (2, 9), (4, 9), (5, 1), (6, 9), (8, 9), (10, 9)]
        );
        assert_eq!(grew, 1);
        let (row, grew) = patched(&[(11, 1), (13, 2)]);
        assert_eq!(row[5..], [(10, 9), (11, 1), (13, 2)]);
        assert_eq!(grew, 2);
        let mut odd = SparseRow {
            entries: vec![(1, 9)],
        };
        odd.apply_sorted_updates(&[(0, 1)]);
        assert_eq!(odd.entries, [(0, 1), (1, 9)]);
        // A mix, new targets on both sides of every improvement.
        let (row, grew) = patched(&[(1, 1), (2, 2), (3, 3), (10, 4), (12, 5)]);
        let expected = [
            (0, 9),
            (1, 1),
            (2, 2),
            (3, 3),
            (4, 9),
            (6, 9),
            (8, 9),
            (10, 4),
            (12, 5),
        ];
        assert_eq!((row.as_slice(), grew), (&expected[..], 3));
        // Into an empty row, and nothing into a row.
        let mut empty = SparseRow::default();
        empty.apply_sorted_updates(&[(3, 1), (7, 2)]);
        assert_eq!(empty.entries, [(3, 1), (7, 2)]);
        assert_eq!(patched(&[]), (evens([9; 6]), 0));
    }

    #[test]
    fn settle_rewrites_in_place_and_drops_what_fell_beyond() {
        let mut row = SparseRow {
            entries: (0..6).map(|i| (2 * i, 2)).collect(),
        };
        row.settle(&[(2, 2, 3), (10, 2, 4)]);
        assert_eq!(row.entries[1], (2, 3));
        assert_eq!(row.entries[5], (10, 4));
        row.settle(&[(0, 2, INF), (4, 2, 3), (10, 4, INF)]);
        assert_eq!(row.entries, [(2, 3), (4, 3), (6, 2), (8, 2)]);
    }

    // ------------------------------------------------------------------
    // What the seam is for: a store that records how it is driven.
    // ------------------------------------------------------------------

    /// An in-memory store counting every call on the `&mut` repair path.
    #[derive(Debug, Default)]
    struct Recording {
        inner: MemStore,
        /// `fetch` calls per slot.
        fetches: Vec<u32>,
        /// The slot of every `put` / of every `update`, in call order.
        puts: Vec<u32>,
        updates: Vec<u32>,
        /// `put` + `update` + `remove` + `clear` calls.
        writes: usize,
        /// `is_resident` calls (it takes `&self`, hence the atomic).
        residency_checks: AtomicUsize,
    }

    impl Recording {
        fn reset(&mut self) {
            self.fetches.iter_mut().for_each(|c| *c = 0);
            self.puts.clear();
            self.updates.clear();
            self.writes = 0;
            *self.residency_checks.get_mut() = 0;
        }

        /// Fetch counts of the resident slots, in slot order.
        fn resident_fetches(&self) -> Vec<u32> {
            (0..self.inner.slots() as u32)
                .filter(|&s| self.inner.is_resident(s))
                .map(|s| self.fetches[s as usize])
                .collect()
        }
    }

    impl RowStore for Recording {
        const KIND: &'static str = "recording";

        fn slots(&self) -> usize {
            self.inner.slots()
        }
        fn grow(&mut self, n: usize) {
            self.inner.grow(n);
            self.fetches.resize(n, 0);
        }
        fn is_resident(&self, slot: u32) -> bool {
            // RELAXED: a single-threaded test's call counter.
            self.residency_checks.fetch_add(1, Ordering::Relaxed);
            self.inner.is_resident(slot)
        }
        fn resident(&self) -> usize {
            self.inner.resident()
        }
        fn fetch(&mut self, slot: u32) -> Option<&SparseRow> {
            let row = self.inner.fetch(slot)?;
            self.fetches[slot as usize] += 1;
            Some(row)
        }
        fn put(&mut self, slot: u32, row: SparseRow) {
            self.puts.push(slot);
            self.writes += 1;
            self.inner.put(slot, row);
        }
        fn update(&mut self, slot: u32, f: impl FnOnce(&mut SparseRow)) {
            self.updates.push(slot);
            self.writes += 1;
            self.inner.update(slot, f);
        }
        fn remove(&mut self, slot: u32) {
            self.writes += 1;
            self.inner.remove(slot);
        }
        fn clear(&mut self) {
            self.writes += 1;
            self.inner.clear();
        }
        fn with_row<R>(&self, slot: u32, f: impl FnOnce(&SparseRow) -> R) -> Option<R> {
            self.inner.with_row(slot, f)
        }
        fn mem_bytes(&self) -> usize {
            self.inner.mem_bytes()
        }
    }

    /// The locality contract of the edge repairs: since the last `reset`,
    /// every fetched slot is a resident `x` with `d(x, u) + 1 ≤ depth` in
    /// `graph` — inside the backward ball of the edge's tail `u` — and none
    /// was fetched more than once (tested and repaired on the same fetch).
    fn assert_ball_local(s: &BoundedRows<Recording>, graph: &DataGraph, u: NodeId) {
        let dense = apsp_matrix(graph);
        for (slot, &count) in s.store.fetches.iter().enumerate() {
            let x = NodeId::from_index(slot);
            assert!(count <= 1, "{x:?} fetched {count} times");
            if count > 0 {
                assert!(s.store.inner.is_resident(x.0));
                let d = dense.get(x, u);
                assert!(sat_add(d, 1) <= s.depth(), "{x:?} is outside the ball");
            }
        }
    }

    /// An edge commit patches rows where they stand: since the last
    /// `reset` it replaced none (no `put`), dropped none, and every
    /// `update` went to a source of the delta.
    fn assert_patches_only_sources(s: &BoundedRows<Recording>, delta: &AffDelta) {
        assert_eq!(s.store.puts, [] as [u32; 0], "an edge commit rebuilt a row");
        assert_writes_only_sources(s, delta, 0);
    }

    /// Nothing outside the delta's sources is written: since the last
    /// `reset`, every `put` / `update` went to a row the delta has a record
    /// for, and there was no other write but `removed` row drops.
    fn assert_writes_only_sources(s: &BoundedRows<Recording>, delta: &AffDelta, removed: usize) {
        for slot in s.store.puts.iter().chain(&s.store.updates) {
            let written = NodeId(*slot);
            assert!(
                delta.changed.iter().any(|r| r.0 == written),
                "{written:?} was written but did not change"
            );
        }
        let stored = s.store.puts.len() + s.store.updates.len();
        assert_eq!(s.store.writes, stored + removed);
    }

    /// Fetch counts are in slot order `PM1, PM2, SE1, SE2, S1, TE1, TE2`
    /// (DB1 has no row); distances per `gpnm_graph::paper::TABLE_III`.
    #[test]
    fn commits_fetch_only_the_backward_ball_and_write_only_their_sources() {
        // Everyone reaches SE1 within 3 hops, and `SE1 -> TE2` improves
        // every source but TE2 itself: each ball row is read once, and the
        // six candidates are patched in place on that same read.
        let (mut f, mut s) = fig1_rows(Recording::default());
        f.graph.add_edge(f.se1, f.te2).unwrap();
        s.store.reset();
        let delta = s.commit_insert_edge(&f.graph, f.se1, f.te2, RepairHint::Baseline);
        assert!(!delta.is_empty());
        assert_eq!(s.store.resident_fetches(), [1, 1, 1, 1, 1, 1, 1]);
        assert_ball_local(&s, &f.graph, f.se1);
        let improved = [f.pm1, f.pm2, f.se1, f.se2, f.s1, f.te1].map(|x| x.0);
        assert_eq!(s.store.updates, improved);
        assert_patches_only_sources(&s, &delta);
        assert_projection(&s, &f.graph, &apsp_matrix(&f.graph));

        // Nobody reaches PM1 but PM1, whose only path to DB1 was the edge.
        let (mut f, mut s) = fig1_rows(Recording::default());
        f.graph.remove_edge(f.pm1, f.db1).unwrap();
        s.store.reset();
        let delta = s.commit_delete_edge(&f.graph, f.pm1, f.db1, RepairHint::Baseline);
        assert!(!delta.is_empty());
        assert_eq!(s.store.resident_fetches(), [1, 0, 0, 0, 0, 0, 0]);
        assert_ball_local(&s, &f.graph, f.pm1);
        assert_eq!(s.store.updates, [f.pm1.0]);
        assert_patches_only_sources(&s, &delta);
        assert_projection(&s, &f.graph, &apsp_matrix(&f.graph));
    }

    #[test]
    fn insert_that_no_resident_row_reaches_fetches_nothing() {
        let (mut f, mut s) = fig1_rows(Recording::default());
        // DB is not a source label, so the newcomer gets no row — and no
        // resident row reaches it, so the edge out of it affects nobody.
        let db = f.graph.add_node(f.interner.get("DB").unwrap());
        s.commit_insert_node(&f.graph, db, RepairHint::Baseline);
        f.graph.add_edge(db, f.se1).unwrap();
        s.store.reset();
        let delta = s.commit_insert_edge(&f.graph, db, f.se1, RepairHint::Baseline);
        assert!(delta.is_empty());
        assert_eq!(s.store.writes, 0);
        assert_eq!(s.store.resident_fetches(), vec![0; 7], "an empty ball");
    }

    #[test]
    fn an_alternative_parent_is_fetched_once_and_never_rerun() {
        let (mut f, mut s) = fig1_rows(Recording::default());
        // `SE2 -> DB1`: PM2 and SE1 reach DB1 just as fast through S1, so
        // their rows stand; SE2 and TE1 have no other way and re-settle.
        // PM1 and S1 are in SE2's ball but do not route through the edge;
        // TE2 is 4 hops from SE2, outside the ball.
        f.graph.remove_edge(f.se2, f.db1).unwrap();
        s.store.reset();
        let delta = s.commit_delete_edge(&f.graph, f.se2, f.db1, RepairHint::Baseline);
        assert_eq!(s.store.resident_fetches(), [1, 1, 1, 1, 1, 1, 0]);
        assert_ball_local(&s, &f.graph, f.se2);
        assert_eq!(s.store.updates, [f.se2.0, f.te1.0]);
        assert_patches_only_sources(&s, &delta);
        assert!(delta.changed.iter().all(|r| r.0 == f.se2 || r.0 == f.te1));
        assert_projection(&s, &f.graph, &apsp_matrix(&f.graph));
    }

    #[test]
    fn a_horizon_leaf_gets_one_update_and_no_put() {
        let (mut f, mut s) = fig1_rows(Recording::default());
        // S1 reaches TE1 in exactly 4 = B hops, through `SE2 -> TE1`, TE1's
        // only in-edge: S1's row loses that one entry in place, without a
        // scatter. The four nearer sources re-settle.
        f.graph.remove_edge(f.se2, f.te1).unwrap();
        s.store.reset();
        let delta = s.commit_delete_edge(&f.graph, f.se2, f.te1, RepairHint::Baseline);
        let patched = [f.pm1, f.pm2, f.se1, f.se2, f.s1].map(|x| x.0);
        assert_eq!(s.store.updates, patched);
        assert_patches_only_sources(&s, &delta);
        assert!(
            s.snapshot.is_stale(&f.graph),
            "no repair read the bulk build's snapshot"
        );
        assert_eq!(s.store.resident_fetches(), [1, 1, 1, 1, 1, 1, 0]);
        // Its one record sits where the re-run's diff would have put it.
        let of_s1: Vec<_> = delta.changed.iter().filter(|r| r.0 == f.s1).collect();
        assert_eq!(of_s1, [&(f.s1, f.te1, 4, INF)]);
        assert_eq!(delta.changed.last(), Some(&(f.s1, f.te1, 4, INF)));
        assert_projection(&s, &f.graph, &apsp_matrix(&f.graph));

        // Node deletion has the same leaf: TE2 reaches SE2 in exactly 4.
        f.graph.remove_node(f.se2).unwrap();
        s.store.reset();
        s.commit_delete_node(&f.graph, f.se2, RepairHint::Baseline);
        assert_eq!(s.store.updates, [f.te2.0]);
        assert!(!s.store.puts.contains(&f.te2.0));
        assert_projection(&s, &f.graph, &apsp_matrix(&f.graph));
    }

    #[test]
    fn only_commit_delete_node_fetches_every_row() {
        // Nobody reaches PM1, but the graph has lost PM1's in-edges, so
        // there is no ball to find that out from: the scan reads every
        // other resident row once, then PM1's own, and re-runs nobody.
        let (mut f, mut s) = fig1_rows(Recording::default());
        f.graph.remove_node(f.pm1).unwrap();
        s.store.reset();
        let delta = s.commit_delete_node(&f.graph, f.pm1, RepairHint::Baseline);
        assert_eq!(s.store.fetches, [1, 1, 1, 1, 1, 1, 1, 0]);
        assert_eq!(s.store.puts, [] as [u32; 0], "nobody lost a path");
        assert_eq!(s.store.updates, [] as [u32; 0]);
        assert_writes_only_sources(&s, &delta, 1);
        assert!(delta.changed.iter().all(|r| r.0 == f.pm1));

        // Every other source reaches S1 within the horizon — TE1 exactly at
        // it, so that row is read once and patched in place, not re-run;
        // S1's own row is read once, after the scan and not by it.
        let (mut f, mut s) = fig1_rows(Recording::default());
        f.graph.remove_node(f.s1).unwrap();
        s.store.reset();
        let delta = s.commit_delete_node(&f.graph, f.s1, RepairHint::Baseline);
        assert_eq!(s.store.fetches, [2, 2, 2, 2, 1, 1, 2, 0]);
        assert_eq!(s.store.updates, [f.te1.0]);
        let rerun = [f.pm1, f.pm2, f.se1, f.se2, f.te2].map(|x| x.0);
        assert_eq!(s.store.puts, rerun);
        assert_writes_only_sources(&s, &delta, 1);
        assert_projection(&s, &f.graph, &apsp_matrix(&f.graph));
    }

    #[test]
    fn the_per_tick_stats_do_no_per_slot_work() {
        let (_, mut s) = fig1_rows(Recording::default());
        s.store.reset();
        assert_eq!(s.resident_rows(), 7);
        assert!(s.mem_bytes() > 0);
        assert_eq!(*s.store.residency_checks.get_mut(), 0);
        assert_eq!(s.store.resident_fetches(), vec![0; 7]);
    }

    #[test]
    fn sync_is_retarget_at_the_union_with_puts_in_slot_then_label_order() {
        let f = fig1();
        let reqs_of = |label: &str, hops: u32| {
            let mut reqs = SlenRequirements::empty();
            reqs.absorb_label(f.interner.get(label).unwrap());
            reqs.absorb_bound(Bound::Hops(hops));
            reqs
        };
        let te_only = reqs_of("TE", 2);
        let mut union = te_only.clone();
        union.absorb(&reqs_of("PM", 4));
        // Deeper: the surviving TE rows re-run in slot order; then the
        // newly required PM sources — although their slots come first.
        let expected = [f.te1.0, f.te2.0, f.pm1.0, f.pm2.0];

        let mut synced = BoundedRows::with_store(&f.graph, &te_only, Recording::default());
        synced.store.reset();
        synced.sync_requirements(&f.graph, &reqs_of("PM", 4));
        assert_eq!(synced.store.puts, expected);
        assert_eq!(synced.store.writes, 4, "no row dropped or re-truncated");

        let mut narrowed = BoundedRows::with_store(&f.graph, &te_only, Recording::default());
        narrowed.store.reset();
        narrowed.narrow_requirements(&f.graph, &union);
        assert_eq!(narrowed.store.puts, expected);
        assert_same_index(&synced, &narrowed, &f.graph);
        assert_eq!(synced.labels(), union.labels());
    }
}
