//! Bounded rows: the one `SLen` repair algorithm behind [`crate::SparseIndex`]
//! and [`crate::PagedIndex`], generic over where the rows are kept.
//!
//! ## 1. Purpose
//!
//! GPNM only ever consults `SLen` through `within(v, v', f_e)` checks whose
//! source `v` matches the source `u` of a pattern edge `e = (u, u', f_e)`
//! (DER-I candidates and DER-III re-checks range over the same
//! matched/label sets, reading the edge source's row), and whose bound is
//! `f_e`. So the index
//! only needs, per *source* node `x` — one whose label some pattern edge
//! leaves — the distances `d(x, y) ≤ h(x)`, where the *horizon* `h(x)` is
//! the deepest bound on the edges leaving `x`'s label: any longer distance
//! is indistinguishable from ∞ for every check that reads `x`'s row. A
//! label with an unbounded (`*`) edge out of it needs full reachability,
//! so its horizon is [`INF`] and its rows are untruncated. A sink label
//! gets no rows at all. Memory is `O(Σ_sources |ball_{h(x)}(x)|)` instead
//! of `O(n²)`; [`SlenRequirements`] holds the label → horizon map.
//!
//! **The label-pair projection.** A check `d(v, v') ≤ b` also has a
//! target: `v'` is labelled like the edge's `u'`. Below the horizon some
//! edge of `x`'s label may read any target (its bound may exceed the
//! distance), but *at* the horizon only the edges whose bound is the
//! horizon read, so a row keeps an entry `(x, y)` at distance `h(x)` only
//! when some pattern edge from `label(x)` to `label(y)` has bound `≥ h(x)`
//! — `label(y)` is one of the label's *kept labels*. On the benchmark's
//! workloads 78–81% of a full-level index lay on rows' last levels, and
//! only 3–4% of those had a kept label. Levels below the horizon stay
//! complete, and **only the last level may be cut**: it is the one level
//! no repair reads as a parent. Every repair test reads a parent one level
//! above its target (§3), so at distance `≤ h − 1`, and a target at `h`
//! has its children beyond `h`, out of every row. A cut level nearer than
//! the horizon would leave the level below it without the parents its
//! repairs test. An unbounded horizon has no last level and keeps every
//! label.
//!
//! Below, `B` is the horizon of the row at hand. **Why not one horizon
//! for every row** (the deepest bound of any pattern, on every pattern
//! label): on the benchmark's default serving workload 17% of those rows
//! were never read, and another 26% were kept 1–2 hops deeper than any
//! reader needed; dropping them cut that workload's `SLen` repair by a
//! third and its host tick by a fifth.
//!
//! ## 2. Representation: one [`BoundedRows<S>`] over a `RowStore`
//!
//! **A row is its targets grouped by distance.** Each resident row
//! (`SparseRow`) is one `Vec<u32>`: the targets at distance 0, then those
//! at 1, and so on to the row's last level (at most its horizon `B`, and
//! at `B` only the kept targets), each level ascending by slot, then one
//! end offset per level. No distance is
//! stored: a target's level is its distance. A BFS truncated at `B` fills
//! it straight from its queue, which is already in level order (each level
//! is sorted where it lies). 4 bytes a target plus 4 a level, against the
//! 8 of the `(target, dist)` pairs this replaced.
//!
//! **The keep test** (`Source::keeps_node`: is `label(y)` among the row's kept
//! labels?) runs wherever a target can land on the horizon, with the kept
//! labels looked up once per row through the label-indexed table
//! `horizon_table` builds:
//!
//! * *The bulk build* queues a node it first reaches at `B` only if the row
//!   keeps it. One it does not keep is a leaf no row holds, so the BFS
//!   never marks it. Filtering each finished row instead was measured at
//!   the benchmark's `setup_s` 15–64% worse than full last levels; the
//!   test inside the BFS, 0–31% better.
//! * *An insert* skips a candidate target at exactly `B` that the row does
//!   not keep, before searching the row for it (§3).
//! * *A re-settle* never writes a distance of exactly `B` for a target the
//!   row does not keep (§3).
//! * *The backward ball* (§3) admits a source whose path over the updated
//!   edge reaches the head at exactly `B` only if the row keeps the head.
//! * *A retarget* that cuts a horizon, or drops kept labels, filters the
//!   new last level in place (`retain_last_level`). One that deepens a
//!   horizon or adds a kept label re-runs the rows: the targets their last
//!   level now needs were never stored.
//!
//! * *The witness probe* (`any_within(set, b)`, the matcher's one question)
//!   reads the targets of levels `0..=b` — one prefix of the vector — and
//!   tests each against the bitset, with no distance read. The pair layout
//!   read every entry and tested its distance too; on the benchmark's
//!   default serving workload a probe scanned ≈125 entries, only 42% of
//!   them within the probe's bound, and the cost was the bytes read (a
//!   branch-free scan of the pairs gained 2–4% of the tick).
//! * *A one-level check* (`has_at(y, d)`, one binary search in level `d`)
//!   answers every repair test whose distance is known in advance: the
//!   delete candidate test (`v` one level below `u`), the alternative-parent
//!   and orphan tests, and `has_within(y, b)` (the levels up to `b`) for
//!   the insert candidate test. No repair searches a row for the update's
//!   tail: the backward ball already measured `d(x, u)` (§3). `get(y)`
//!   searches level after level, deepest first — a BFS ball keeps most of
//!   its targets on its last level, so a present target usually costs one
//!   search and an absent one costs them all. It is left to `distance()`
//!   and the insert path's per-target test, which needs the old distance
//!   of every target it improves.
//! * *A horizon cut* is an offset cut (`truncate`), and *a patch*
//!   (`patch`, every insert and re-settle) keeps the levels nearer than its
//!   nearest change in place and merges the rest back from a copy, whole
//!   runs at a time. A row that outgrows its allocation takes an eighth
//!   more than it needs, so most growing patches do not reallocate; the
//!   slack is counted in `mem_bytes` (`distance.index_mib`). Two
//!   alternatives were measured and not taken; do not re-run them. A
//!   patch that shifts the tail once, in place, instead of merging it
//!   back from a copy gained nothing: patch time went 44 → 46 µs a tick
//!   on `steady_multi` and 137 → 149 µs on `churn_adaptive`, so the cost
//!   is touching the row, not copying it. A one-entry removal for a
//!   single drop (`drop_entry`) instead of a patch took another 1.5–3%
//!   off `steady_multi`, but cost `paged_squeeze` 3–4% of its median
//!   tick and 7% of its p90.
//! * *Deltas stay ascending by (source, target)*, the order a diff of two
//!   rows lists them and the order every consumer and the equivalence
//!   suites hold them to: an insert walks `v`'s BFS as pairs sorted by
//!   target (one sort per BFS, as before, not one per source), a
//!   re-settle's changes come out of `Resettle` by target already, and a
//!   deleted node's own row is listed `by_target`.
//!
//! [`BoundedRows`] owns the
//! requirement set, the BFS scratch and a CSR copy for the bulk build,
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
//! every routine starts from the update's **backward ball** instead of
//! the index: a source `x` can only be affected by an update to `(u, v)`
//! if it reaches `u` inside its own horizon, and `{x : d(x, u) + 1 ≤
//! h(x)}` is one BFS from `u` over [`DataGraph::in_neighbors`], with each
//! node it reaches admitted against its own horizon: at `d(x, u) + 1 <
//! h(x)`, or at `= h(x)` when its row keeps the head (`v`, or a deleted
//! node). A source that reaches the head only on its horizon, unkept,
//! holds nothing the update can move: no entry for the head, whose
//! children lie beyond. A node delete has one such tail per in-edge, and
//! one BFS seeded with all of them at once. The ball is filtered *before*
//! any row is fetched and walked in slot order, so deltas keep the order a
//! slot-order pass over every row gave them; the exact candidate
//! predicates then run on the fetched (old) rows.
//!
//! **The walk's radius is the head's.** A row of label `L` admits a source
//! at `d(x, u) + 1 ≤ reach(L, head)`, where `reach` is `h(L)` when `L`
//! keeps the head's label at its horizon, `h(L) − 1` when it does not, and
//! [`INF`] for a full row. So the BFS goes `max_L reach(L, head) − 1`
//! deep, and not at all when every reach is 0. The rows that read the head
//! fix the radius, not the deepest bound of any pattern: on the
//! benchmark's churn workload 86% of the walks stop one level short of the
//! deepest horizon less one. `horizon_table` keeps the radius per kept
//! label, and one for every other head, so a commit pays one lookup. At
//! the radius itself the BFS queues only the nodes it admits (the bulk
//! build's keep test at a row's horizon): a walk there queues 2.5 nodes
//! instead of 35.5 for the same one admitted row. **The admitted set is
//! unchanged:** no node beyond the radius could be admitted, and short of
//! it the walk still crosses nodes of every label — a path runs through
//! any — so it meets every node that can be, at its BFS distance.
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
//!   cheaper than fetching every candidate a second time. `v`'s row is
//!   read level by level and stops at the first level that would land
//!   past `B`; a target that would land exactly on `B` is kept only if the
//!   row keeps its label, tested before the row is searched for it (on the
//!   benchmark's default serving workload most improvements were arrivals
//!   on the horizon, so most candidate rows now need no search, no record
//!   and no patch). Improvements move up a level and new targets arrive in
//!   one patch of the row (§2). An insert with no such source does
//!   no forward BFS and no write; one whose `u` no resident row reaches
//!   fetches nothing at all.
//! * *Edge delete `(u, v)`*: only resident sources with
//!   `d_B(x, u) + 1 == d_B(x, v)` can lose a path. A source whose `d(x, v)`
//!   exceeds `B` can only change beyond the truncation horizon — invisible
//!   to the engine by construction. Of the rest, only the *entries* that
//!   really change are re-settled, in place ("Re-settle only …" below).
//! * *Node delete* of `id`: the node's own row goes (every entry to ∞),
//!   and the candidates are the resident sources in the backward ball of
//!   its in-neighbours — the `in_edges` of the [`gpnm_graph::RemovedNode`]
//!   that [`DataGraph::last_removed`] keeps until the graph's next
//!   mutation. A candidate row with `d = d(x, id)` loses `id`'s entry; its
//!   other entries can only change below a child `z` of `id` (an
//!   `out_edges` head) at `d + 1` that has no other in-neighbour left at
//!   `d`. With no such child — or with `id` at the horizon, its children
//!   beyond it — the one entry is dropped in place; a row with `id` on its
//!   horizon but not kept there is no candidate at all (the ball leaves it
//!   out). Otherwise the row is
//!   re-settled, seeded with `id` at `d` and those children at `d + 1`:
//!   the seeding the dense index uses, which reads the children from
//!   `id`'s own matrix row instead. A bounded index holds that row only
//!   when `id` carries a pattern label, hence the record.
//!
//! **The ball measures `d(x, u)`.** The walk's depth at `x` is the
//! distance the row of `x` holds for the tail: a shortest path to `u`
//! never uses an out-edge of `u`, so adding or deleting `(u, v)` does not
//! move it; for a deleted node, the in-neighbour nearest `x` is reached
//! without passing through the node, so the walk's depth plus one is the
//! row's `d(x, id)`. The ball is admitted at `d + 1 ≤ h(x)`, so that entry
//! is in the row, and each commit reads it off the ball instead of
//! searching the row for it (asserted in debug builds). (A deleted node
//! `id` at `d + 1 = h(x)` is in the row too: the ball admits it there only
//! if the row keeps it.)
//!
//! **The ball, walked in the post-update graph, is a superset of the
//! candidates the old rows define.** Three arguments are needed, one per
//! way the two could differ:
//!
//! 1. *Insert.* Adding an edge only shortens distances, so the post-insert
//!    ball of `u` contains the pre-insert one, which contains every `x`
//!    whose old row has `d(x, u) ≤ h(x) − 1`.
//! 2. *Delete edge.* A shortest path *to* `u` never uses an out-edge of
//!    `u` (it would pass through `u` before arriving there), so the
//!    backward ball of `u` is the same without `(u, v)` as it was with it.
//! 3. *Unbounded rows.* With `B = `[`INF`] the "ball" degrades to backward
//!    reachability — as large as the graph allows, still a superset, still
//!    exact.
//! 4. *Delete node.* A shortest path from `x` to `id` of length `≤ B` ends
//!    in an in-edge `(w, id)`, and its prefix to `w` — `≤ B − 1` hops —
//!    does not pass through `id`, so the delete leaves it standing: `x` is
//!    in the post-delete ball of the old in-neighbours.
//!
//! **Why the removed node's edges come through the graph.** The
//! post-delete graph has lost both halves of what a local repair needs:
//! the in-edges the ball is walked back from, and the out-edges that name
//! the children to seed. Finding the children without them means testing
//! a whole BFS level of each row, which a prototype measured *slower* than
//! re-running the rows at 100k nodes (30 node deletes 144 → 167 ms). A
//! new parameter on `commit_delete_node` would change a signature every
//! host and the benchmark's staged replay call by name; the graph already
//! holds the record at the moment of the commit, so it keeps it until its
//! next mutation. The cost of the contract is that the commit must
//! directly follow its `remove_node`, which `delete_node_delta` `expect`s.
//!
//! **Re-settle only the entries that change** (edge and node delete). A deleted
//! edge changes 9 entries of a 310-entry row on the benchmark's churn
//! workload; re-running the row's BFS to find them costs the row. The
//! repair is the decremental step of Ramalingam & Reps, truncated at `B`
//! and specialised to unit weights. One routine, `Resettle`, runs it over a
//! dense distance array indexed by slot, with the affected set seeded by
//! its caller. Here the array is the BFS scratch: the row is scattered into
//! it, re-settled at depth `B` and restored. The dense index hands it a
//! matrix row as it stands, at depth [`INF`], with nothing to scatter or
//! restore. Both seed node deletes alike (above). For a candidate source
//! `x` with old row `d` (an edge delete's seed is `v`):
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
//!   (even one of its own children). A tentative distance of exactly `B`
//!   is written only for a target the row keeps. What is left unsettled
//!   fell beyond `B`, or onto it unkept, and leaves the row. Records go out
//!   ascending by target — the
//!   order a diff of the two rows lists them — so deltas are bit-identical
//!   to the re-run's.
//! * *The truncated row is enough.* A parent of `z` one level up sits at
//!   `d(z) − 1 ≤ B − 1`, and the predecessor on any new path of length
//!   `≤ B` sits at `≤ B − 1`: both are entries of the row (or affected,
//!   hence former entries) — the levels below the horizon are complete.
//!   A neighbour the row does not list is farther than `B`, or on `B`
//!   unkept, and can hold nothing up: a parent is read only one level
//!   above its child, so never at `B`.
//! * *The two lemmas of PR 17 are its first step.* "No standing parent of
//!   `v`" is the **alternative-parent** test: a candidate that fails it is
//!   fetched once and dropped, its whole row standing. A `v` at `d(v) == B`
//!   with no standing parent is the **horizon leaf**: its children lie
//!   beyond `B`, so `A = {v}`, and nothing standing is near enough to
//!   bring it back (that would be a parent at `B − 1`), so the record
//!   `(x, v, B, ∞)` is written and the entry removed without scattering
//!   the row at all. A node delete has the same leaf, with `id` in `v`'s
//!   place — and the same drop when `id`'s children all keep a parent.
//!
//! **Why not search the row.** The level test reads `d` at every
//! in-neighbour of every child of every affected target; around a hub that
//! is hundreds of lookups, each a search of one or more levels. Scattering
//! the row into the all-[`INF`] BFS scratch array once makes each an index,
//! and costs 2 × |row| sequential writes — a fraction of the BFS it
//! replaces. (The candidate and alternative-parent tests, a handful of
//! one-level checks that discard most ball rows, still search: they run
//! before any scatter.)
//!
//! **Why not a second scratch array.** "Affected", "tentative" and
//! "standing" need no marks beside the distances: an affected cell is set
//! to [`INF`] the moment it is found, which is exactly how every test
//! should read it ("holds nothing up", "not reached yet"), and its old
//! distance rides in the small affected list. Every tentative value is the
//! length of a real path in the post-delete graph, so it can only ever
//! undercut an affected cell — a standing cell is already at its
//! distance, and a cell outside the row is farther than `B`, or on it
//! unkept, where the keep test refuses to write — and the
//! settle needs no way to tell them apart. One O(n) array serves the
//! BFSs and the re-settle; it is all-[`INF`] between commits (asserted on
//! entry in debug builds, and after every commit by the tests).
//!
//! Nothing outside the delta's sources is written; a commit fetches each
//! ball row once — tested and repaired on the same fetch — plus, for a node
//! delete, the node's own row, and only ever patches rows in place
//! (`RowStore::update`; `put` is for builds and re-targets). Deltas are the
//! dense deltas *projected* onto resident sources with distances beyond
//! each source's horizon, and on it to an unkept target, mapped to ∞
//! ([`crate::project_delta`]) — exactly the projection the matcher
//! observes, which the
//! backend-equivalence proptest suite asserts record-for-record against
//! [`crate::IncrementalIndex`] (and, between the two stores, proves the
//! paged store's serialisation, eviction and write-through transparent).
//!
//! **Why not scan every row** (how every routine first found its
//! candidates). `row.get(u)` on each resident row is correct and needs no
//! in-adjacency, but it is O(index) per update whatever the update
//! touches: 22 of a 24 ms tick on the benchmark's 210-update workload, and
//! on the paged store a spill read for every row the cache cannot hold
//! (4 484 pages per 4-update tick, 1 272 from the ball). Node deletes
//! kept the scan, and re-ran every row that reached the node by BFS:
//! 709 µs of a ≈1.25 ms tick (p50) on the default serving workload.
//!
//! **Why no CSR copy on the repair path.** Every BFS used to run over a
//! CSR snapshot of the current graph — which every committed update
//! moves, so each repairing update first paid an O(N + E) rebuild. Patching
//! the CSR in place (overflow adjacency plus periodic compaction) would
//! remove the rebuild at the cost of a second mutable graph representation
//! to keep exact. A repair's BFS walks [`DataGraph`]'s own adjacency, which
//! costs nothing to maintain. The CSR survives for the bulk build alone
//! (build, rebuild, retarget), where the graph does not move between
//! BFSs. It is kept from one bulk build to the next until a commit drops
//! it: registering `k` patterns re-targets `k` times with no commit in
//! between, and both alternatives measured — the bulk build over the live
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

use gpnm_graph::{Bound, CsrGraph, DataGraph, Label, NodeId, NodeSet};

use crate::aff::AffDelta;
use crate::backend::{IoStats, RepairHint, SlenBackend, SlenRequirements, Source};
use crate::oracle::DistanceOracle;
use crate::{sat_add, INF};

/// One resident row: its targets grouped by distance, in one allocation.
/// `words` holds every target — level 0 first, each level ascending by
/// slot — followed by one end offset per level: `ends[d]` counts the
/// targets at distance `≤ d`. The last word is therefore the target count,
/// and the level count is `words.len()` less it; an empty row has no
/// words. The paged store's spill extents are these words serialized.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct SparseRow {
    words: Vec<u32>,
}

/// Reused scratch of [`SparseRow::patch`]: the moved tail of the row,
/// the moves as `(level, target, arrives)` and the level ends.
#[derive(Debug, Clone, Default)]
pub(crate) struct PatchBuf {
    tail: Vec<u32>,
    moves: Vec<(u32, u32, bool)>,
    ends: Vec<u32>,
}

impl SparseRow {
    /// The row a [`SparseRow::words`] image encodes.
    pub(crate) fn from_words(words: Vec<u32>) -> Self {
        SparseRow { words }
    }

    /// The row's one allocation, as stored: targets, then level ends.
    pub(crate) fn words(&self) -> &[u32] {
        &self.words
    }

    /// Words allocated, slack included.
    pub(crate) fn capacity(&self) -> usize {
        self.words.capacity()
    }

    /// `slot`'s row when nothing else is in reach: itself at distance 0.
    pub(crate) fn single(slot: u32) -> Self {
        SparseRow {
            words: vec![slot, 1],
        }
    }

    /// Number of targets.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.words.last().map_or(0, |&t| t as usize)
    }

    /// The level ends, one per level.
    #[inline]
    fn ends(&self) -> &[u32] {
        &self.words[self.len()..]
    }

    /// Every target, nearest level first.
    #[inline]
    pub(crate) fn targets(&self) -> &[u32] {
        &self.words[..self.len()]
    }

    /// `(distance, targets)` per level, nearest first.
    #[inline]
    pub(crate) fn levels(&self) -> impl Iterator<Item = (u32, &[u32])> {
        let mut start = 0;
        self.ends().iter().zip(0..).map(move |(&end, d)| {
            let level = &self.words[start..end as usize];
            start = end as usize;
            (d, level)
        })
    }

    /// `(target, distance)` ascending by target: the order a delta lists a
    /// row's records in.
    pub(crate) fn by_target(&self) -> Vec<(u32, u32)> {
        let mut entries: Vec<(u32, u32)> = self
            .levels()
            .flat_map(|(d, level)| level.iter().map(move |&y| (y, d)))
            .collect();
        entries.sort_unstable();
        entries
    }

    /// The targets at distance `d`, ascending by slot (empty past the last
    /// level).
    #[inline]
    fn level(&self, d: usize) -> &[u32] {
        let ends = self.ends();
        let Some(&end) = ends.get(d) else {
            return &[];
        };
        let start = d.checked_sub(1).map_or(0, |p| ends[p]);
        &self.words[start as usize..end as usize]
    }

    /// `slot`'s distance. Searches the levels deepest first: a BFS ball
    /// keeps most of its targets on its last level, so a target there
    /// costs one search, and only an absent one costs them all.
    #[inline]
    pub(crate) fn get(&self, slot: u32) -> Option<u32> {
        let levels = self.ends().len();
        let mut deepest_first = (0..levels).rev();
        let d = deepest_first.find(|&d| self.level(d).binary_search(&slot).is_ok())?;
        Some(d as u32)
    }

    /// Whether `slot` sits at exactly distance `d`: one level's search.
    #[inline]
    pub(crate) fn has_at(&self, slot: u32, d: u32) -> bool {
        self.level(d as usize).binary_search(&slot).is_ok()
    }

    /// Whether `slot` is within `b` hops: the levels `0..=b` searched.
    #[inline]
    pub(crate) fn has_within(&self, slot: u32, b: u32) -> bool {
        self.levels()
            .take_while(|&(d, _)| d <= b)
            .any(|(_, level)| level.binary_search(&slot).is_ok())
    }

    /// Whether some target within `bound` is a member of `set`: the levels
    /// `bound` admits are one prefix of the targets, tested against the
    /// bitset with no distance read.
    #[inline]
    pub(crate) fn any_within(&self, set: &NodeSet, bound: Bound) -> bool {
        let ends = self.ends();
        let Some(&all) = ends.last() else {
            return false;
        };
        let end = match bound {
            Bound::Hops(b) => ends.get(b as usize).copied().unwrap_or(all),
            Bound::Unbounded => all,
        };
        self.words[..end as usize]
            .iter()
            .any(|&t| set.contains(NodeId(t)))
    }

    /// Pop the end of every empty level at the end of the row.
    fn drop_empty_last_levels(&mut self) {
        while let Some(&last) = self.words.last() {
            let ends = self.ends();
            let before = ends.len().checked_sub(2).map_or(0, |p| ends[p]);
            if before != last {
                break;
            }
            self.words.pop();
        }
    }

    /// Cut the row at `depth` hops: an offset cut, no target read.
    pub(crate) fn truncate(&mut self, depth: u32) {
        let keep = depth as usize + 1;
        if self.ends().len() <= keep {
            return;
        }
        let total = self.len();
        let cut = self.words[total + keep - 1] as usize;
        self.words.copy_within(total..total + keep, cut);
        self.words.truncate(cut + keep);
        self.drop_empty_last_levels();
    }

    /// Keep at level `d`, when it is the row's last, only the targets
    /// `keep` admits: the kept-label filter of a horizon a retarget made
    /// shallower or narrower. One pass over the level, in place.
    pub(crate) fn retain_last_level(&mut self, d: u32, keep: impl Fn(u32) -> bool) {
        let levels = self.ends().len();
        if levels != d as usize + 1 {
            return;
        }
        let total = self.len();
        let start = d
            .checked_sub(1)
            .map_or(0, |p| self.words[total + p as usize] as usize);
        let mut end = start;
        for i in start..total {
            let y = self.words[i];
            if keep(y) {
                self.words[end] = y;
                end += 1;
            }
        }
        self.words.copy_within(total..total + levels, end);
        self.words.truncate(end + levels);
        *self.words.last_mut().expect("a level") = end as u32;
        self.drop_empty_last_levels();
    }

    /// Apply `changes` — `(target, old, new)`, one per target, each a real
    /// change, [`INF`] for "absent" on either side: a target moves from
    /// level `old` to level `new`, arrives, or leaves. Levels nearer
    /// than every change stay where they are; the rest of the row is
    /// copied aside and merged back level by level. A row that outgrows
    /// its allocation takes an eighth more than it needs, so a run of
    /// growing patches reallocates rarely (the slack shows in
    /// `distance.index_mib`).
    pub(crate) fn patch(&mut self, changes: &[(u32, u32, u32)], buf: &mut PatchBuf) {
        let PatchBuf { tail, moves, ends } = buf;
        moves.clear();
        let (mut arrivals, mut deepest) = (0, 0);
        for &(y, old, new) in changes {
            if old != INF {
                moves.push((old, y, false));
            }
            if new != INF {
                moves.push((new, y, true));
                arrivals += 1;
                deepest = deepest.max(new as usize + 1);
            }
        }
        // By level, and within one ascending by target: the order the
        // merge below meets them in.
        moves.sort_unstable();
        let Some(first) = moves.first().map(|m| m.0 as usize) else {
            return;
        };
        let total = self.len();
        ends.clear();
        ends.extend_from_slice(self.ends());
        if ends.len() < first {
            ends.resize(first, total as u32); // empty levels up to the first change
        }
        let levels = ends.len().max(deepest);
        let start = first
            .checked_sub(1)
            .map_or(0, |p| ends.get(p).map_or(total, |&e| e as usize));
        tail.clear();
        tail.extend_from_slice(&self.words[start..total]);
        self.words.truncate(start);
        let need = total - (moves.len() - arrivals) + arrivals + levels;
        if need > self.words.capacity() {
            self.words.reserve_exact(need + need / 8 - start);
        }
        // Each level: the runs between its moves copied whole, each arrival
        // placed, each departure skipped.
        let mut moves = moves.iter().peekable();
        let mut from = 0;
        for d in first..levels {
            let to = ends.get(d).map_or(tail.len(), |&e| e as usize - start);
            while let Some(&(_, y, arrives)) = moves.next_if(|m| m.0 == d as u32) {
                let run = tail[from..to].partition_point(|&t| t < y);
                self.words.extend_from_slice(&tail[from..from + run]);
                from += run;
                if arrives {
                    self.words.push(y);
                } else {
                    debug_assert_eq!(tail.get(from), Some(&y), "a departure off its level");
                    from += 1;
                }
            }
            self.words.extend_from_slice(&tail[from..to]);
            from = to;
            let end = self.words.len() as u32;
            match ends.get_mut(d) {
                Some(e) => *e = end,
                None => ends.push(end),
            }
        }
        self.words.extend_from_slice(ends);
        self.drop_empty_last_levels();
    }
}

/// BFS from the distinct `sources`, all at depth 0, along `adjacent`,
/// truncated at `depth` hops ([`INF`] = untruncated): the one traversal of
/// the index. Forward rows walk `DataGraph::out_neighbors` from one source,
/// backward balls `DataGraph::in_neighbors` from an edge's tail or a
/// deleted node's in-neighbours — the live adjacency either way, so a BFS
/// costs its ball and nothing per graph version. `dist` is an all-[`INF`]
/// scratch array; on return `queue` lists the nodes reached, in BFS order,
/// and `dist` holds their depths — the caller reads what it needs and
/// hands both to [`restore_scratch`]. A node first met at `depth` is
/// reached only if `leaf` admits it (a row's keep test at its horizon);
/// one it refuses is left unmarked, so a second parent tests it again.
fn bfs_visit<'g>(
    adjacent: impl Fn(NodeId) -> &'g [NodeId],
    sources: &[NodeId],
    depth: u32,
    leaf: impl Fn(NodeId) -> bool,
    dist: &mut [u32],
    queue: &mut Vec<NodeId>,
) {
    queue.clear();
    for &source in sources {
        debug_assert_eq!(dist[source.index()], INF, "scratch not restored");
        dist[source.index()] = 0;
        queue.push(source);
    }
    let mut head = 0;
    while head < queue.len() {
        let u = queue[head];
        head += 1;
        let du = dist[u.index()];
        if du >= depth {
            continue; // at the truncation horizon: do not expand further
        }
        for &v in adjacent(u) {
            if dist[v.index()] == INF && (du + 1 < depth || leaf(v)) {
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

/// The truncated BFS row of `source`: [`bfs_visit`] harvested into a
/// [`SparseRow`], scratch restored, its last level (at `depth`) holding
/// only the targets `leaf` keeps. The queue is already in level order, so
/// each level is one run of it, sorted where it lies.
pub(crate) fn bfs_truncated<'g>(
    adjacent: impl Fn(NodeId) -> &'g [NodeId],
    source: NodeId,
    depth: u32,
    leaf: impl Fn(NodeId) -> bool,
    dist: &mut [u32],
    queue: &mut Vec<NodeId>,
) -> SparseRow {
    bfs_visit(adjacent, &[source], depth, leaf, dist, queue);
    let levels = queue.last().map_or(0, |v| dist[v.index()] as usize + 1);
    let mut words = Vec::with_capacity(queue.len() + levels);
    words.extend(queue.iter().map(|v| v.0));
    let mut start = 0;
    for d in 0..levels as u32 {
        let run = queue[start..].iter().take_while(|v| dist[v.index()] == d);
        let end = start + run.count();
        words[start..end].sort_unstable();
        words.push(end as u32);
        start = end;
    }
    restore_scratch(dist, queue);
    SparseRow { words }
}

/// The decremental re-settle (module docs §3): its scratch, and after
/// [`Resettle::run`] its outcome. The one copy of the routine. It works on
/// a dense distance array indexed by slot: the bounded rows scatter a row
/// into their all-[`INF`] scratch array around it and run it at depth `B`;
/// the dense index hands it a matrix row as it stands, at depth [`INF`].
#[derive(Debug, Clone, Default)]
pub(crate) struct Resettle {
    /// The affected set, in discovery (level) order while it grows; the
    /// entries that changed, `(target, old, new)` ascending by target,
    /// once settled — `new` = [`INF`] for one that fell beyond the horizon.
    pub(crate) affected: Vec<(u32, u32, u32)>,
    /// Tentative `(distance, target)`s of the settle, nearest first.
    heap: BinaryHeap<Reverse<(u32, u32)>>,
}

impl Resettle {
    /// Begin a re-settle: nothing affected yet.
    pub(crate) fn clear(&mut self) {
        self.affected.clear();
    }

    /// Mark `y`, at old distance `dy`, affected: every parent it had one
    /// level up is gone or affected. Seeds go in ascending level order, and
    /// every affected target at a level must be seeded before the first
    /// seed one level below it.
    pub(crate) fn seed(&mut self, dist: &mut [u32], y: NodeId, dy: u32) {
        self.affected.push((y.0, dy, INF));
        dist[y.index()] = INF;
    }

    /// Re-settle `dist` — a source's distances as they stood before
    /// `graph` lost an edge or a node, with the targets that lost their
    /// last parent seeded. The unit-weight decremental step of Ramalingam &
    /// Reps, truncated at `depth` ([`INF`] = untruncated), writing a
    /// distance of exactly `depth` only for a target `keep` admits. Leaves
    /// `dist` exact for `graph` on every cell the row keeps, and
    /// [`Resettle::affected`] listing the changes: an affected target that
    /// settles at `depth` unkept leaves the row.
    pub(crate) fn run(
        &mut self,
        graph: &DataGraph,
        dist: &mut [u32],
        depth: u32,
        keep: impl Fn(NodeId) -> bool,
    ) {
        let Resettle { affected, heap } = self;
        // 1. The affected set, level by level from the seeds. A cell reads
        // INF from the moment its target is affected, so "a standing
        // in-neighbour one level up" is one comparison; FIFO order is level
        // order, so level `dy` is final before the first child at `dy + 1`
        // is judged.
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
        // at its distance; any other INF cell lies beyond `depth`, or at it
        // and unkept, or out of the source's reach before the delete and so
        // after it). No level-`depth` cell is ever read as a parent.
        heap.clear();
        for &(y, _, _) in affected.iter() {
            let parents = graph.in_neighbors(NodeId(y)).iter();
            let near = parents.map(|w| dist[w.index()]).min().unwrap_or(INF);
            if near < depth && (near + 1 < depth || keep(NodeId(y))) {
                dist[y as usize] = near + 1;
                heap.push(Reverse((near + 1, y)));
            }
        }
        while let Some(Reverse((d, y))) = heap.pop() {
            if dist[y as usize] != d || d >= depth {
                continue; // superseded, or at the horizon
            }
            for &z in graph.out_neighbors(NodeId(y)) {
                if dist[z.index()] > d + 1 && (d + 1 < depth || keep(z)) {
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

/// `reqs` indexed by label, built by [`horizon_table`] whenever the
/// requirements change: the per-node horizon (and kept labels) lookup of
/// the ball walk and of every row a commit or a build touches, and the
/// walk's radius per head label.
#[derive(Debug, Clone, Default)]
struct Horizons {
    by_label: Vec<Option<Source>>,
    /// The deepest `d(x, t) + 1` at which some row admits a source towards
    /// a head of each label some row keeps: the deepest horizon that keeps
    /// it, or `unkept` if that is deeper.
    reach: Vec<u32>,
    /// The same towards a head no row keeps: the deepest horizon less one
    /// ([`INF`] with a full-row label).
    unkept: u32,
}

impl Horizons {
    /// How deep the backward ball towards a `head`-labelled head must walk
    /// to meet every source some row admits: `None` when no row can admit
    /// one at all.
    fn radius(&self, head: Label) -> Option<u32> {
        let reach = self.reach.get(head.index()).copied().unwrap_or(self.unkept);
        reach.checked_sub(1)
    }
}

/// `reqs` as [`Horizons`]: O(labels + kept labels), so a commit pays one
/// index for its radius and never scans the sources.
fn horizon_table(reqs: &SlenRequirements) -> Horizons {
    let mut table = Horizons::default();
    for source in reqs.sources() {
        let h = source.horizon;
        grow_with_slack(&mut table.by_label, source.label.index() + 1, || None);
        table.by_label[source.label.index()] = Some(source.clone());
        let unkept = if h == INF { INF } else { h.saturating_sub(1) };
        table.unkept = table.unkept.max(unkept);
        for kept in &source.kept {
            grow_with_slack(&mut table.reach, kept.index() + 1, || 0);
            table.reach[kept.index()] = table.reach[kept.index()].max(h);
        }
    }
    let unkept = table.unkept;
    table.reach.iter_mut().for_each(|r| *r = (*r).max(unkept));
    table
}

/// `x`'s row requirement in `table`; `None` when `x` is no source.
fn horizon_of<'t>(table: &'t Horizons, graph: &DataGraph, x: NodeId) -> Option<&'t Source> {
    graph
        .label(x)
        .and_then(|l| table.by_label.get(l.index())?.as_ref())
}

/// The label of an updated edge's head: the edge joins live nodes.
fn head_label(graph: &DataGraph, v: NodeId) -> Label {
    graph.label(v).expect("an edge's head is a live node")
}

/// Every node `reqs` makes a distance source, label-major.
fn required_sources<'a>(
    reqs: &'a SlenRequirements,
    graph: &'a DataGraph,
) -> impl Iterator<Item = NodeId> + 'a {
    reqs.labels()
        .flat_map(move |l| graph.nodes_with_label(l).iter().copied())
}

/// Bounded-row `SLen` index over candidate sources only, generic over its
/// row storage. Use it through its two instantiations,
/// [`crate::SparseIndex`] (rows on the heap) and [`crate::PagedIndex`]
/// (rows in a spill file behind a hot-row cache); both run the same code
/// and emit identical deltas.
///
/// [`DistanceOracle::distance`] answers [`INF`] for any pair outside the
/// resident projection — a source without a row, a target beyond its
/// horizon, or one on it whose label no edge of the source's label reads
/// there. That is sound for every consumer in this workspace because they
/// all source distance queries at pattern-labeled nodes, aim them at
/// nodes labelled like the edge's target and compare them against the
/// pattern's bounds only (the projection [`SlenRequirements`] captures),
/// but it makes this *not* a general-purpose APSP oracle.
#[derive(Debug, Clone)]
pub struct BoundedRows<S> {
    /// The covered requirement set (source labels and their horizons) —
    /// the single source of truth for what is resident, and how deep.
    reqs: SlenRequirements,
    /// `reqs` as [`horizon_table`], rebuilt with it.
    horizons: Horizons,
    pub(crate) store: S,
    /// Flat adjacency for the bulk build ([`BoundedRows::build_rows`]),
    /// built on demand and dropped by every commit and rebuild: the
    /// callers commit every mutation of the graph, so a kept CSR is the
    /// graph's current adjacency. No repair reads it.
    csr: Option<CsrGraph>,
    /// All-[`INF`] between commits: the BFS depth array and the cells a
    /// re-settle scatters a row into.
    dist_buf: Vec<u32>,
    queue_buf: Vec<NodeId>,
    /// The last commit's backward ball, kept for its allocation.
    ball_buf: Vec<(u32, u32, u32)>,
    patch_buf: PatchBuf,
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
            horizons: horizon_table(reqs),
            store,
            csr: None,
            dist_buf: Vec::new(),
            queue_buf: Vec::new(),
            ball_buf: Vec::new(),
            patch_buf: PatchBuf::default(),
            resettle: Resettle::default(),
        };
        index.materialize_all(graph);
        index
    }

    fn ensure_slots(&mut self, graph: &DataGraph) {
        let n = graph.slot_count();
        self.store.grow(n);
        grow_with_slack(&mut self.dist_buf, n, || INF);
    }

    /// The backward ball of `tails` — an edge's tail, or every in-neighbour
    /// a deleted node had — towards a head labelled `head`: the sources `x`
    /// with `d(x, t) + 1 ≤ h(x)` in `graph` for some tail `t`, where `h(x)`
    /// is the horizon of `x`'s row, and with the head kept when the sum is
    /// `h(x)` — the sources that reach across one of the edges to a cell
    /// their row keeps — ascending by slot, each as `(x, h(x), d(x,
    /// tails))`. One BFS over the live in-adjacency, from all the tails at
    /// once, filtered straight off its queue: before any row is fetched,
    /// and before anything is sorted.
    ///
    /// The walk goes as deep as the head's radius (module docs §3): the
    /// deepest `d(x, t)` any row admits towards `head`, so no node it
    /// leaves out could be admitted. Short of the radius it crosses nodes
    /// of every label (a path passes through any), and at the radius it
    /// queues only the nodes it admits — the bulk build's keep test at a
    /// row's horizon. With no radius it walks nowhere. The ball is returned
    /// in the buffer the last commit's ball used: hand it back to
    /// `ball_buf` when done; `queue_buf` holds the nodes the walk visited.
    fn backward_ball(
        &mut self,
        graph: &DataGraph,
        tails: &[NodeId],
        head: Label,
    ) -> Vec<(u32, u32, u32)> {
        let mut ball = std::mem::take(&mut self.ball_buf);
        ball.clear();
        self.queue_buf.clear();
        let Some(radius) = self.horizons.radius(head) else {
            return ball;
        };
        let (dist, queue, horizons) = (&mut self.dist_buf, &mut self.queue_buf, &self.horizons);
        let reads = |x: NodeId, d: u32| {
            let source = horizon_of(horizons, graph, x)?;
            source.keeps(head, sat_add(d, 1)).then_some(source)
        };
        let leaf = |x| reads(x, radius).is_some();
        bfs_visit(|n| graph.in_neighbors(n), tails, radius, leaf, dist, queue);
        let admitted = |x: &NodeId| {
            let d = dist[x.index()];
            reads(*x, d).map(|source| (x.0, source.horizon, d))
        };
        ball.extend(queue.iter().filter_map(admitted));
        restore_scratch(dist, queue);
        ball.sort_unstable();
        ball
    }

    /// Bulk build: one row per source, at its horizon, each handed to
    /// `keep`. A node first reached at the horizon is queued only if the
    /// row keeps it: one it does not keep is a leaf no row holds, and
    /// testing it inside the BFS costs less than harvesting it and
    /// filtering after. The only reader of the CSR: hundreds of BFSs over
    /// one unchanging graph are worth a flat copy of its adjacency, and
    /// registering `k` patterns re-targets `k` times with no commit in
    /// between, which one copy answers.
    fn build_rows(
        &mut self,
        graph: &DataGraph,
        sources: Vec<NodeId>,
        mut keep: impl FnMut(&mut S, u32, SparseRow),
    ) {
        if sources.is_empty() {
            return;
        }
        let csr = self.csr.get_or_insert_with(|| CsrGraph::from_graph(graph));
        debug_assert_eq!(
            (csr.slot_count(), csr.edge_count()),
            (graph.slot_count(), graph.edge_count()),
            "the graph moved without a commit"
        );
        for x in sources {
            let source = horizon_of(&self.horizons, graph, x).expect("a source has a horizon");
            let h = source.horizon;
            let (dist, queue) = (&mut self.dist_buf, &mut self.queue_buf);
            let leaf = |y| source.keeps_node(graph, y, h);
            let row = bfs_truncated(|n| csr.out_neighbors(n), x, h, leaf, dist, queue);
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

    /// Re-aim coverage at exactly `target`, label by label. Rows whose
    /// label left are dropped. A label whose horizon shrank re-truncates
    /// its rows in place and filters their new last level (a depth-B row
    /// cut to `d ≤ B'` *is* the depth-B' row before its keep test, no BFS
    /// needed); one whose kept labels only shrank filters the last level in
    /// place. A label whose horizon grew, or whose kept labels gained one
    /// at the same horizon, re-runs its rows (their last level is missing
    /// targets no filter can bring back). Newly required sources are
    /// materialized last — puts in slot order first, label order second.
    fn retarget(&mut self, graph: &DataGraph, target: SlenRequirements) {
        self.ensure_slots(graph);
        if self.reqs == target {
            return;
        }
        self.reqs = target;
        let old = std::mem::replace(&mut self.horizons, horizon_table(&self.reqs));
        let mut todo: Vec<NodeId> = Vec::new();
        for slot in 0..self.store.slots() as u32 {
            if !self.store.is_resident(slot) {
                continue;
            }
            let x = NodeId(slot);
            let was = horizon_of(&old, graph, x).expect("a resident row has a horizon");
            let Some(now) = horizon_of(&self.horizons, graph, x) else {
                self.store.remove(slot);
                continue;
            };
            let gained = |l: &Label| was.kept.binary_search(l).is_err();
            let h = now.horizon;
            if h > was.horizon || h == was.horizon && now.kept.iter().any(gained) {
                todo.push(x);
            } else if now != was {
                let keep = |y| now.keeps_node(graph, NodeId(y), h);
                self.store.update(slot, |row| {
                    row.truncate(h);
                    row.retain_last_level(h, keep);
                });
            }
        }
        let sources = required_sources(&self.reqs, graph);
        todo.extend(sources.filter(|&x| !self.store.is_resident(x.0)));
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
        let mut delta = AffDelta::new();
        // The BFS row of `v`, as deep as a candidate met so far can use:
        // `through + d(v, y) ≤ h` leaves `h − through` hops past `v` for a
        // source with horizon `h`. None until the first candidate, so the
        // common no-candidate insert runs no forward BFS — and an insert
        // nobody resident reaches fetches nothing at all. A later candidate
        // that can use more re-runs it deeper; the last run is at the
        // largest `h − through`, and the shallower ones before it are the
        // inner shells of that ball.
        // Kept as `(target, d(v, target))` ascending by target, so each
        // source's improvements come out in the order a diff lists them.
        let mut vrow: Vec<(u32, u32)> = Vec::new();
        let mut reach = None;
        let mut updates: Vec<(u32, u32, u32)> = Vec::new();
        let ball = self.backward_ball(graph, &[u], head_label(graph, v));
        for &(slot, h, du) in &ball {
            let Some(row) = self.store.fetch(slot) else {
                continue;
            };
            let x = NodeId(slot);
            let source = horizon_of(&self.horizons, graph, x).expect("a ball row has a horizon");
            // Affected source: `d_h(x,u) + 1 < d_h(x,v)`, within its horizon
            // (the ball admitted `d(x, u) + 1 ≤ h`, and `v` kept at `h`).
            debug_assert!(row.has_at(u.0, du), "the ball's d(x, u) is the row's");
            let through = du + 1;
            if row.has_within(v.0, through) {
                continue;
            }
            let usable = if h == INF { INF } else { h - through };
            if reach < Some(usable) {
                let (dist, queue) = (&mut self.dist_buf, &mut self.queue_buf);
                let all = |_| true;
                bfs_visit(|n| graph.out_neighbors(n), &[v], usable, all, dist, queue);
                vrow.clear();
                vrow.extend(queue.iter().map(|&y| (y.0, dist[y.index()])));
                restore_scratch(dist, queue);
                vrow.sort_unstable();
                reach = Some(usable);
            }
            updates.clear();
            for &(y, dvy) in &vrow {
                // A candidate beyond the horizon, or on it and not kept,
                // is one the row never holds: skipped before the search.
                let cand = sat_add(through, dvy);
                if !source.keeps_node(graph, NodeId(y), cand) {
                    continue;
                }
                let old = row.get(y).unwrap_or(INF);
                if cand < old {
                    delta.record(x, NodeId(y), old, cand);
                    updates.push((y, old, cand));
                }
            }
            if updates.is_empty() {
                continue;
            }
            let buf = &mut self.patch_buf;
            self.store.update(slot, |row| row.patch(&updates, buf));
        }
        self.ball_buf = ball;
        delta
    }

    /// Delete-edge repair; `graph` has already lost `(u, v)`. A shortest
    /// path *to* `u` never uses an out-edge of `u`, so `u`'s backward ball
    /// is the one it had with the edge (superset argument 2).
    fn delete_edge_delta(&mut self, graph: &DataGraph, u: NodeId, v: NodeId) -> AffDelta {
        self.ensure_slots(graph);
        let mut delta = AffDelta::new();
        let ball = self.backward_ball(graph, &[u], head_label(graph, v));
        for &(slot, h, du) in &ball {
            let Some(row) = self.store.fetch(slot) else {
                continue;
            };
            // Resident sources whose shortest path to `v` may run through
            // the edge `(u, v)` — the truncated delete-candidate test, `v`
            // one level below `u` — less those with an alternative parent:
            // an in-neighbour `v` still has on `u`'s level keeps `d(x, v)`
            // and hence the whole row (`v` is not affected, so nothing is).
            debug_assert!(row.has_at(u.0, du), "the ball's d(x, u) is the row's");
            let dv = du + 1;
            if !row.has_at(v.0, dv) {
                continue;
            }
            let mut parents = graph.in_neighbors(v).iter();
            if parents.any(|w| row.has_at(w.0, du)) {
                continue;
            }
            let x = NodeId(slot);
            if dv == h {
                // Horizon leaf: `v`'s children lie beyond the horizon and
                // nothing standing is near enough to re-settle it. (Stored
                // distances are finite, so no row of an untruncated index
                // has one.)
                self.drop_entry(x, v, dv, &mut delta);
                continue;
            }
            let source = horizon_of(&self.horizons, graph, x).expect("a ball row has a horizon");
            let (dist, resettle) = (&mut self.dist_buf, &mut self.resettle);
            let keep = |y| source.keeps_node(graph, y, h);
            resettle_row(graph, row, h, keep, dist, resettle, [(v, dv)]);
            self.settle_row(x, &mut delta);
        }
        self.ball_buf = ball;
        delta
    }

    /// Delete-node repair; `graph` has already lost `id`, and its
    /// [`DataGraph::last_removed`] lists the edges that went with it: the
    /// in-edges are the tails of the candidates' backward ball (superset
    /// argument 4), the out-edges the children that may lose their last
    /// parent.
    ///
    /// `id` is in `Aff_N` whether or not it held a row: a node no source
    /// reaches still leaves every set it was a member of, and the dense
    /// index names it through its own `(id, id, 0 → ∞)` record.
    fn delete_node_delta(&mut self, graph: &DataGraph, id: NodeId) -> AffDelta {
        let removed = graph.last_removed().filter(|r| r.id == id).expect(
            "commit_delete_node(id) must directly follow the graph's remove_node(id): \
             the repair reads the node's edges from DataGraph::last_removed",
        );
        self.ensure_slots(graph);
        let mut delta = AffDelta::new();
        delta.affected.insert(id);
        // The node's own row: every entry becomes INF, recorded by target.
        if let Some(row) = self.store.fetch(id.0) {
            for (y, d) in row.by_target() {
                delta.record(id, NodeId(y), d, INF);
            }
            self.store.remove(id.0);
        }
        // A row with `id` at its horizon and not kept there holds nothing
        // about it (its children lie beyond): the ball leaves it out.
        let ball = self.backward_ball(graph, &removed.in_edges, removed.label);
        for &(slot, h, dw) in &ball {
            let Some(row) = self.store.fetch(slot) else {
                continue;
            };
            let d = dw + 1;
            debug_assert!(row.has_at(id.0, d), "the ball's d(x, id) is the row's");
            // The children one level below `id` with no other parent left
            // at `d` — the alternative-parent test, once per child. None
            // (at the horizon there are none: its children lie beyond it)
            // means the row loses `id`'s entry and nothing else.
            let orphaned = |z: &NodeId| {
                let mut parents = graph.in_neighbors(*z).iter();
                row.has_at(z.0, d + 1) && !parents.any(|w| row.has_at(w.0, d))
            };
            let orphans: Vec<NodeId> = removed.out_edges.iter().copied().filter(orphaned).collect();
            let x = NodeId(slot);
            if orphans.is_empty() {
                self.drop_entry(x, id, d, &mut delta);
                continue;
            }
            let seeds = std::iter::once((id, d)).chain(orphans.iter().map(|&z| (z, d + 1)));
            let source = horizon_of(&self.horizons, graph, x).expect("a ball row has a horizon");
            let (dist, resettle) = (&mut self.dist_buf, &mut self.resettle);
            let keep = |y| source.keeps_node(graph, y, h);
            resettle_row(graph, row, h, keep, dist, resettle, seeds);
            self.settle_row(x, &mut delta);
        }
        self.ball_buf = ball;
        delta
    }

    /// Record that source `x` lost its entry `(y, d)` and nothing else, and
    /// drop it from the row in place.
    fn drop_entry(&mut self, x: NodeId, y: NodeId, d: u32, delta: &mut AffDelta) {
        delta.record(x, y, d, INF);
        let buf = &mut self.patch_buf;
        self.store
            .update(x.0, |row| row.patch(&[(y.0, d, INF)], buf));
    }

    /// Record the changes [`resettle_row`] left in the re-settle scratch
    /// as `x`'s, and write them into its row in place.
    fn settle_row(&mut self, x: NodeId, delta: &mut AffDelta) {
        let (changes, buf) = (&self.resettle.affected, &mut self.patch_buf);
        for &(y, old, new) in changes {
            delta.record(x, NodeId(y), old, new);
        }
        self.store.update(x.0, |row| row.patch(changes, buf));
    }
}

/// Re-settle one bounded `row` (module docs §3): scatter it into the
/// all-[`INF`] scratch `dist`, seed `resettle` with the affected `(target,
/// old distance)`s — in the order [`Resettle::seed`] asks for — run it at
/// `depth` with the row's keep test and restore `dist`.
/// [`Resettle::affected`] then lists the row's changes, ascending by
/// target.
fn resettle_row(
    graph: &DataGraph,
    row: &SparseRow,
    depth: u32,
    keep: impl Fn(NodeId) -> bool,
    dist: &mut [u32],
    resettle: &mut Resettle,
    seeds: impl IntoIterator<Item = (NodeId, u32)>,
) {
    let cells = || row.targets().iter().map(|&y| y as usize);
    debug_assert!(cells().all(|y| dist[y] == INF), "scratch not restored");
    for (d, level) in row.levels() {
        for &y in level {
            dist[y as usize] = d;
        }
    }
    resettle.clear();
    for (y, d) in seeds {
        resettle.seed(dist, y, d);
    }
    resettle.run(graph, dist, depth, keep);
    for y in cells() {
        dist[y] = INF;
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

    /// The levels `bound` admits, and no deeper one.
    #[inline]
    fn within(&self, u: NodeId, v: NodeId, bound: Bound) -> bool {
        let b = match bound {
            Bound::Hops(b) => b,
            Bound::Unbounded => INF,
        };
        self.store
            .with_row(u.0, |row| row.has_within(v.0, b))
            .unwrap_or(false)
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
        // pass below then covers old and new coverage together. A rebuild
        // may follow mutations no commit saw, so the CSR goes too.
        self.reqs.absorb(reqs);
        self.horizons = horizon_table(&self.reqs);
        self.csr = None;
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
        self.csr = None;
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
        self.csr = None;
        self.delete_edge_delta(graph, u, v)
    }

    fn commit_insert_node(&mut self, graph: &DataGraph, id: NodeId, _hint: RepairHint) -> AffDelta {
        self.csr = None;
        self.ensure_slots(graph);
        if horizon_of(&self.horizons, graph, id).is_some() {
            // An isolated newcomer's row is just itself at distance 0.
            self.store.put(id.0, SparseRow::single(id.0));
        }
        AffDelta::new()
    }

    fn commit_delete_node(&mut self, graph: &DataGraph, id: NodeId, _hint: RepairHint) -> AffDelta {
        debug_assert!(!graph.contains(id), "commit before graph mutation");
        self.csr = None;
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
    use gpnm_graph::Label;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// `labels` of Fig. 1, each a source at `bound` that keeps every
    /// label of the graph at its horizon: the uniform requirement set the
    /// specs below count fetches and writes against (with the pattern's
    /// four labels at its deepest bound, 4). The pattern's own requirements
    /// give rows to PM and SE only — see
    /// `of_pattern_rows_sit_at_edge_sources_at_their_own_horizons` — and
    /// keep only the labels its edges read.
    fn uniform_reqs(f: &Fig1, bound: Bound, labels: &[&str]) -> SlenRequirements {
        let mut reqs = SlenRequirements::empty();
        for from in labels {
            for to in ALL_LABELS {
                reqs.absorb_edge(
                    f.interner.get(from).unwrap(),
                    f.interner.get(to).unwrap(),
                    bound,
                );
            }
        }
        reqs
    }

    const ALL_LABELS: [&str; 5] = ["PM", "SE", "S", "TE", "DB"];

    const PATTERN_LABELS: [&str; 4] = ["PM", "SE", "S", "TE"];

    fn fig1_rows<S: RowStore>(store: S) -> (Fig1, BoundedRows<S>) {
        let f = fig1();
        let reqs = uniform_reqs(&f, Bound::Hops(4), &PATTERN_LABELS);
        let index = BoundedRows::with_store(&f.graph, &reqs, store);
        (f, index)
    }

    /// Whether resident `x`'s row keeps target `y` at distance `d`, by the
    /// label-pair rule.
    fn keeps<S: RowStore>(
        s: &BoundedRows<S>,
        graph: &DataGraph,
        x: NodeId,
        y: NodeId,
        d: u32,
    ) -> bool {
        let (from, to) = (graph.label(x), graph.label(y));
        from.zip(to)
            .is_some_and(|(from, to)| s.reqs.keeps(from, to, d))
    }

    /// The truncated-projection equality every test leans on — each row cut
    /// at its own horizon, keeping there only the labels an edge reads —
    /// and, since it runs after every commit of every test, the scratch
    /// invariant.
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
                let expected = if keeps(s, graph, x, y, d) { d } else { INF };
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
        assert_eq!(a.reqs, b.reqs);
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
        // Widen: DB becomes a source; deepen: every label to a bound of 6.
        uniform_reqs(f, Bound::Hops(6), &["PM", "SE", "S", "TE", "DB"])
    }

    fn build_matches_truncated_dense<S: RowStore>(store: S) {
        let (f, s) = fig1_rows(store);
        assert_eq!(s.kind(), S::KIND);
        // All four pattern labels cover 7 of the 8 nodes (DB1 is not a
        // pattern label).
        assert_eq!(s.resident_rows(), 7);
        // Every label is kept at the horizon 4, so every walk is 3 deep.
        for l in ALL_LABELS {
            assert_eq!(s.horizons.radius(f.interner.get(l).unwrap()), Some(3));
        }
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
        assert_eq!(s.reqs, wide_reqs(&f));
        assert_projection(&s, &f.graph, &apsp_matrix(&f.graph));
        // Narrower requirements are a no-op (coverage is monotone).
        let narrow = SlenRequirements::of_pattern(&f.pattern);
        s.sync_requirements(&f.graph, &narrow);
        assert_eq!(s.resident_rows(), 8);
        assert_eq!(s.reqs, wide_reqs(&f));
    }

    fn narrow_requirements_matches_a_fresh_build<S: RowStore>(store: S) {
        let (f, mut s) = fig1_rows(store);
        s.sync_requirements(&f.graph, &wide_reqs(&f));
        assert_eq!(s.resident_rows(), 8);
        // Narrow back to the bare pattern: the sink labels' rows drop, PM's
        // re-truncate to 3 and SE's to 4, and the result is
        // indistinguishable from building fresh.
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
        let only_db = uniform_reqs(&f, Bound::Hops(6), &["DB"]);
        s.narrow_requirements(&f.graph, &only_db);
        assert_eq!(s.resident_rows(), 1, "only DB1's row survives");
        let db = f.interner.get("DB").unwrap();
        assert_eq!(
            (s.reqs.horizon(db), s.horizons.radius(db)),
            (Some(6), Some(5))
        );
        let fresh = BoundedRows::with_store(&f.graph, &only_db, MemStore::default());
        assert_same_index(&s, &fresh, &f.graph);
        assert_resident_count(&s);
    }

    fn unbounded_requirements_store_full_rows<S: RowStore>(store: S) {
        let f = fig1();
        // A `*` edge out of TE: TE's rows are full, PM's and SE's stay at 3
        // and 4.
        let mut reqs = SlenRequirements::of_pattern(&f.pattern);
        let [te, pm] = ["TE", "PM"].map(|l| f.interner.get(l).unwrap());
        reqs.absorb_edge(te, pm, Bound::Unbounded);
        let s = BoundedRows::with_store(&f.graph, &reqs, store);
        assert_eq!(s.reqs.horizon(te), Some(INF));
        assert_eq!(s.horizons.radius(pm), Some(INF - 1), "an unbounded walk");
        let dense = apsp_matrix(&f.graph);
        assert_projection(&s, &f.graph, &dense);
        // TE2 reaches TE1 in 5 hops — beyond every bounded horizon, but a
        // full row must resolve it.
        assert_eq!(dense.get(f.te2, f.te1), 5);
        assert_eq!(s.distance(f.te2, f.te1), 5);
    }

    /// Every delete's re-settle against the path it replaced — a truncated
    /// BFS of every row, diffed against the old one (the deleted node's own
    /// row, all of it going to ∞, leading) — record for record and row for
    /// row, on seeded random graphs with every node a source, at
    /// `Hops(1..=4)` and unbounded. Edge deletes take a random edge until
    /// none is left; node deletes a random node until two are left.
    fn delete_resettle_equals_rerun_and_diff<S: RowStore>(store: impl Fn() -> S, nodes: bool) {
        let mut draw = draws(0x9E37_79B9_7F4A_7C15);
        // What the suite must have seen by the end: a target re-settled
        // inside the horizon at a larger distance, an affected subtree more
        // than one level below the deleted head, a target that falls beyond
        // a finite horizon from strictly inside it.
        let (mut farther, mut deep, mut beyond) = (false, false, false);
        for round in 0..60 {
            let bound = [1, 2, 3, 4, INF][round % 5];
            let mut reqs = SlenRequirements::empty();
            reqs.absorb_edge(
                Label(0),
                Label(0),
                if bound == INF {
                    Bound::Unbounded
                } else {
                    Bound::Hops(bound)
                },
            );
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
            let (mut dist, mut queue) = (vec![INF; n], Vec::new());
            loop {
                let old_rows: Vec<Option<SparseRow>> =
                    ids.iter().map(|x| s.store.fetch(x.0).cloned()).collect();
                let (own, gone, delta) = if nodes {
                    let live: Vec<NodeId> = graph.nodes().collect();
                    if live.len() <= 2 {
                        break;
                    }
                    let id = live[draw(live.len())];
                    graph.remove_node(id).unwrap();
                    let delta = s.commit_delete_node(&graph, id, RepairHint::Baseline);
                    (Some(id), id, delta)
                } else {
                    let edges: Vec<(NodeId, NodeId)> = graph.edges().collect();
                    if edges.is_empty() {
                        break;
                    }
                    let (u, v) = edges[draw(edges.len())];
                    graph.remove_edge(u, v).unwrap();
                    (
                        None,
                        v,
                        s.commit_delete_edge(&graph, u, v, RepairHint::Baseline),
                    )
                };
                let out = |x| graph.out_neighbors(x);
                let new_rows: Vec<Option<SparseRow>> = ids
                    .iter()
                    .map(|&x| {
                        let live = graph.contains(x);
                        live.then(|| bfs_truncated(out, x, bound, |_| true, &mut dist, &mut queue))
                    })
                    .collect();
                let (empty, mut expected) = (SparseRow::default(), AffDelta::new());
                let others = ids.iter().copied().filter(|&x| Some(x) != own);
                for x in own.into_iter().chain(others) {
                    let [old, new] = [&old_rows, &new_rows].map(|r| r[x.index()].as_ref());
                    diff_rows(
                        x,
                        old.unwrap_or(&empty),
                        new.unwrap_or(&empty),
                        &mut expected,
                    );
                }
                let what = if nodes { "node" } else { "edge" };
                assert_eq!(
                    delta.changed, expected.changed,
                    "round {round}, {what} delete at {gone:?}"
                );
                for (i, x) in ids.iter().enumerate() {
                    assert_eq!(s.store.fetch(x.0), new_rows[i].as_ref(), "row of {x:?}");
                }
                assert_scratch_restored(&s);
                for (i, &x) in ids.iter().enumerate().filter(|&(_, &x)| Some(x) != own) {
                    let of_x = || delta.changed.iter().filter(move |r| r.0 == x);
                    let dv = old_rows[i].as_ref().and_then(|row| row.get(gone.0));
                    farther |= of_x().any(|r| r.3 != INF);
                    deep |= of_x().any(|r| dv.is_some_and(|dv| r.2 >= dv + 2));
                    beyond |= of_x().any(|r| r.3 == INF && r.2 < bound && r.1 != gone);
                }
            }
        }
        assert!(farther && deep && beyond, "{farther} {deep} {beyond}");
    }

    /// Draws below a bound from an xorshift stream seeded by `state`.
    fn draws(mut state: u64) -> impl FnMut(usize) -> usize {
        state |= 1; // xorshift never leaves zero
        move |below| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % below as u64) as usize
        }
    }

    /// The re-run-and-diff the re-settle is held against: every difference
    /// between two sorted rows of source `x` (absent entries read as
    /// [`INF`]), in ascending target order.
    fn diff_rows(x: NodeId, old: &SparseRow, new: &SparseRow, delta: &mut AffDelta) {
        let (a, b) = (&old.by_target(), &new.by_target());
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

    /// The settle step is a shortest-path search, not one look at the
    /// standing in-neighbours: `v` loses `u -> v`; its child `c` re-enters
    /// over the long way round (`x -> a -> b -> e -> c`), and only then does
    /// `v` come back — through `c -> v`, an affected node judged after it.
    #[test]
    fn a_target_resettles_through_its_own_affected_child() {
        let mut reqs = SlenRequirements::empty();
        reqs.absorb_edge(Label(0), Label(0), Bound::Hops(5));
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
                    super::delete_resettle_equals_rerun_and_diff(|| $store, false);
                }
                #[test]
                fn node_delete_resettle_equals_rerun_and_diff() {
                    super::delete_resettle_equals_rerun_and_diff(|| $store, true);
                }
            }
        };
    }

    store_suite!(mem, MemStore::default());
    // A 2-page cache, so nearly every fetch of the suite evicts.
    store_suite!(paged_tiny, PagedStore::new(tiny()));

    #[test]
    fn the_bulk_build_csr_lives_until_a_commit() {
        let (mut f, mut s) = fig1_rows(MemStore::default());
        let copy =
            |s: &BoundedRows<MemStore>| s.csr.as_ref().map(|c| c.out_neighbors(f.pm1).as_ptr());
        let built = copy(&s);
        assert!(built.is_some(), "the bulk build made a CSR");
        // Retargets with no commit in between reuse it.
        s.sync_requirements(&f.graph, &wide_reqs(&f));
        assert_eq!(copy(&s), built);
        // A commit drops it ...
        f.graph.add_edge(f.se1, f.te2).unwrap();
        s.commit_insert_edge(&f.graph, f.se1, f.te2, RepairHint::Baseline);
        assert!(s.csr.is_none());
        // ... so the next re-run of every row reads the moved graph.
        s.narrow_requirements(&f.graph, &SlenRequirements::of_pattern(&f.pattern));
        s.sync_requirements(&f.graph, &wide_reqs(&f));
        assert!(s.csr.is_some());
        assert_projection(&s, &f.graph, &apsp_matrix(&f.graph));
    }

    /// A level row laid out from `(target, dist)` pairs in any order: the
    /// layout [`SparseRow`] documents, written out independently.
    fn row_of(entries: &[(u32, u32)]) -> SparseRow {
        let mut by_level: Vec<(u32, u32)> = entries.iter().map(|&(y, d)| (d, y)).collect();
        by_level.sort_unstable();
        let levels = by_level.last().map_or(0, |e| e.0 + 1);
        let mut words: Vec<u32> = by_level.iter().map(|e| e.1).collect();
        for d in 0..levels {
            words.push(by_level.iter().filter(|e| e.0 <= d).count() as u32);
        }
        SparseRow::from_words(words)
    }

    /// Every question a row answers, asked of `row` and of the slot-sorted
    /// reference `pairs`: the layout, `get` / `has_at` / `has_within` for
    /// slots `0..64` at every distance `0..10`, and `any_within` against
    /// `set` at every bound `0..10` and at `*`.
    fn assert_row_is(row: &SparseRow, pairs: &[(u32, u32)], set: &NodeSet) {
        assert_eq!(row, &row_of(pairs), "layout of {pairs:?}");
        assert_eq!(row.by_target(), pairs);
        assert_eq!(row.len(), pairs.len());
        let of = |y: u32| pairs.iter().find(|e| e.0 == y).map(|e| e.1);
        for y in 0..64 {
            assert_eq!(row.get(y), of(y), "get({y})");
            for d in 0..10 {
                assert_eq!(row.has_at(y, d), of(y) == Some(d), "has_at({y}, {d})");
                let within = of(y).is_some_and(|dy| dy <= d);
                assert_eq!(row.has_within(y, d), within, "has_within({y}, {d})");
            }
        }
        let member = |&(y, _): &(u32, u32)| set.contains(NodeId(y));
        for b in 0..10 {
            let expected = pairs.iter().filter(|e| e.1 <= b).any(member);
            assert_eq!(row.any_within(set, Bound::Hops(b)), expected, "bound {b}");
        }
        let all = pairs.iter().any(member);
        assert_eq!(row.any_within(set, Bound::Unbounded), all, "bound *");
    }

    proptest::proptest! {
        /// A level row held to a slot-sorted `(target, dist)` reference: a
        /// truncated BFS row of a random graph at a random horizon (or
        /// untruncated), then random patches — improvements, arrivals,
        /// re-settles and departures in one call — single drops and
        /// horizon cuts. After the
        /// build and every step the row has the reference's layout and
        /// answers every query as the reference does.
        #[test]
        fn a_level_row_answers_like_a_sorted_pair_row(
            n in 1usize..48,
            edges in proptest::collection::vec((0usize..48, 0usize..48), 0..160),
            horizon in 0u32..7,
            ops in proptest::collection::vec((0u8..3, proptest::prelude::any::<u64>()), 0..24),
            members in proptest::prelude::any::<u64>(),
        ) {
            let depth = if horizon == 6 { INF } else { horizon };
            let mut graph = DataGraph::new();
            let ids: Vec<NodeId> = (0..n).map(|_| graph.add_node(Label(0))).collect();
            for (a, b) in edges {
                let _ = graph.add_edge(ids[a % n], ids[b % n]);
            }
            let set: NodeSet = (0..64).filter(|i| members >> i & 1 == 1).map(NodeId).collect();
            // The reference: a plain FIFO BFS, cut at `depth`.
            let mut reference = vec![(0u32, 0u32)];
            let mut head = 0;
            while head < reference.len() {
                let (x, dx) = reference[head];
                head += 1;
                for &y in graph.out_neighbors(NodeId(x)) {
                    if dx < depth && !reference.iter().any(|e| e.0 == y.0) {
                        reference.push((y.0, dx + 1));
                    }
                }
            }
            reference.sort_unstable();
            let (mut dist, mut queue) = (vec![INF; n], Vec::new());
            let out = |x| graph.out_neighbors(x);
            let mut row = bfs_truncated(out, ids[0], depth, |_| true, &mut dist, &mut queue);
            assert_row_is(&row, &reference, &set);
            let mut buf = PatchBuf::default();
            for (kind, seed) in ops {
                let mut draw = draws(seed);
                match kind {
                    0 => {
                        let mut changes: Vec<(u32, u32, u32)> = Vec::new();
                        for _ in 0..1 + draw(6) {
                            let y = draw(64) as u32;
                            let new = [0, 1, 2, 3, 4, 5, 6, 7, INF][draw(9)];
                            let old = reference.iter().find(|e| e.0 == y).map_or(INF, |e| e.1);
                            if old != new && !changes.iter().any(|c| c.0 == y) {
                                changes.push((y, old, new));
                            }
                        }
                        changes.sort_unstable();
                        row.patch(&changes, &mut buf);
                        reference.retain(|e| !changes.iter().any(|c| c.0 == e.0));
                        let stays = changes.iter().filter(|c| c.2 != INF);
                        reference.extend(stays.map(|c| (c.0, c.2)));
                        reference.sort_unstable();
                    }
                    1 if !reference.is_empty() => {
                        // A drop: one departure, as a horizon leaf makes.
                        let (y, d) = reference[draw(reference.len())];
                        row.patch(&[(y, d, INF)], &mut buf);
                        reference.retain(|e| e.0 != y);
                    }
                    _ => {
                        let h = draw(8) as u32;
                        row.truncate(h);
                        reference.retain(|e| e.1 <= h);
                    }
                }
                assert_row_is(&row, &reference, &set);
            }
        }
    }

    #[test]
    fn an_untruncated_chain_row_keeps_one_level_per_hop() {
        // 0 -> 1 -> ... -> 70: 71 levels of one target each.
        let mut graph = DataGraph::new();
        let ids: Vec<NodeId> = (0..71).map(|_| graph.add_node(Label(0))).collect();
        for w in ids.windows(2) {
            graph.add_edge(w[0], w[1]).unwrap();
        }
        let (mut dist, mut queue) = (vec![INF; 71], Vec::new());
        let row = bfs_truncated(
            |x| graph.out_neighbors(x),
            ids[0],
            INF,
            |_| true,
            &mut dist,
            &mut queue,
        );
        assert_eq!(row.levels().count(), 71);
        assert!(row.levels().all(|(d, level)| level == [d]));
        assert_eq!(row.words().len(), 71 + 71, "a target and a level end a hop");
        assert_eq!(row.get(70), Some(70));
        let last: NodeSet = [ids[70]].into_iter().collect();
        assert!(!row.any_within(&last, Bound::Hops(69)));
        assert!(row.any_within(&last, Bound::Hops(70)));
        assert!(row.any_within(&last, Bound::Unbounded));
        let mut reqs = SlenRequirements::empty();
        reqs.absorb_edge(Label(0), Label(0), Bound::Unbounded);
        let s = BoundedRows::with_store(&graph, &reqs, MemStore::default());
        assert_eq!(s.distance(ids[0], ids[70]), 70);
        assert_projection(&s, &graph, &apsp_matrix(&graph));
    }

    #[test]
    fn an_improvement_moves_a_target_up_two_levels_in_place() {
        let mut row = row_of(&[(0, 0), (1, 1), (2, 2), (3, 3), (5, 3)]);
        row.words.shrink_to_fit();
        let capacity = row.capacity();
        // 3 moves from level 3 to level 1, between 1 and nothing; level 3
        // keeps 5.
        row.patch(&[(3, 3, 1)], &mut PatchBuf::default());
        assert_eq!(row, row_of(&[(0, 0), (1, 1), (3, 1), (2, 2), (5, 3)]));
        assert_eq!(row.capacity(), capacity, "a move needs no new word");
        // The last target of level 3 moves up two as well: the level goes.
        row.patch(&[(5, 3, 1)], &mut PatchBuf::default());
        assert_eq!(row, row_of(&[(0, 0), (1, 1), (3, 1), (5, 1), (2, 2)]));
        assert_eq!(row.levels().count(), 3);
    }

    #[test]
    fn an_insert_records_its_improvements_by_target_not_by_level() {
        // `u -> v` brings `v` and, one level deeper, `a`, whose slot comes
        // first: each source's records list `a` before `v`.
        let mut reqs = SlenRequirements::empty();
        reqs.absorb_edge(Label(0), Label(0), Bound::Hops(3));
        let mut graph = DataGraph::new();
        let [x, u, a, v] = [0; 4].map(|_| graph.add_node(Label(0)));
        for (from, to) in [(x, u), (v, a)] {
            graph.add_edge(from, to).unwrap();
        }
        let mut s = BoundedRows::with_store(&graph, &reqs, MemStore::default());
        graph.add_edge(u, v).unwrap();
        let delta = s.commit_insert_edge(&graph, u, v, RepairHint::Baseline);
        let expected = [
            (x, a, INF, 3),
            (x, v, INF, 2),
            (u, a, INF, 2),
            (u, v, INF, 1),
        ];
        assert_eq!(delta.changed, expected);
        assert_projection(&s, &graph, &apsp_matrix(&graph));
    }

    #[test]
    fn a_resettle_that_empties_the_last_levels_drops_them() {
        // x -> u -> v -> w at horizon 3: deleting `u -> v` leaves `v` and
        // `w` no path, so levels 2 and 3 lose their last targets and go.
        let mut reqs = SlenRequirements::empty();
        reqs.absorb_edge(Label(0), Label(0), Bound::Hops(3));
        let mut graph = DataGraph::new();
        let [x, u, v, w] = [0; 4].map(|_| graph.add_node(Label(0)));
        for (a, b) in [(x, u), (u, v), (v, w)] {
            graph.add_edge(a, b).unwrap();
        }
        let mut s = BoundedRows::with_store(&graph, &reqs, MemStore::default());
        graph.remove_edge(u, v).unwrap();
        let delta = s.commit_delete_edge(&graph, u, v, RepairHint::Baseline);
        let of_x: Vec<_> = delta.changed.iter().filter(|r| r.0 == x).collect();
        assert_eq!(of_x, [&(x, v, 2, INF), &(x, w, 3, INF)]);
        assert_eq!(s.store.fetch(x.0), Some(&row_of(&[(x.0, 0), (u.0, 1)])));
        assert_projection(&s, &graph, &apsp_matrix(&graph));
    }

    #[test]
    fn a_paged_round_trip_keeps_an_empty_row_and_one_past_a_page() {
        // `tiny()` pages hold 64 words; the big row takes 100 targets over
        // four levels, 104 words.
        let big = row_of(&(0..100).map(|y| (y, y % 4)).collect::<Vec<_>>());
        let mut store = PagedStore::new(tiny());
        store.grow(2);
        store.load(0, SparseRow::default());
        store.load(1, big.clone());
        assert_eq!(
            store.with_row(0, SparseRow::clone),
            Some(SparseRow::default())
        );
        let before = store.io_stats().expect("paged reports IO").pages_read;
        assert_eq!(store.with_row(1, SparseRow::clone), Some(big.clone()));
        let after = store.io_stats().expect("paged reports IO").pages_read;
        assert!(
            after - before >= 2,
            "a row past a page reads its run of pages"
        );
        assert_eq!(store.fetch(1), Some(&big));
        let evens: NodeSet = (0..64).step_by(2).map(NodeId).collect();
        let probe = |b| store.with_row(1, |r| r.any_within(&evens, Bound::Hops(b)));
        assert_eq!(probe(0), Some(true));
    }

    #[test]
    fn a_patch_grows_a_row_into_slack_and_keeps_levels_sorted() {
        // Exact fit after the build; the first arrival reserves an eighth
        // more, and the arrivals after it land in that slack.
        let mut row = row_of(&(0..64).map(|y| (2 * y, y % 3)).collect::<Vec<_>>());
        row.words.shrink_to_fit();
        let mut buf = PatchBuf::default();
        row.patch(&[(1, INF, 1)], &mut buf);
        let grown = row.capacity();
        assert!(grown >= row.words().len() + 8, "{grown} words: no slack");
        for y in [3, 5, 7, 9, 11, 13] {
            row.patch(&[(y, INF, 2)], &mut buf);
        }
        assert_eq!(
            row.capacity(),
            grown,
            "arrivals within the slack reallocated"
        );
        let mut pairs: Vec<(u32, u32)> = (0..64).map(|y| (2 * y, y % 3)).collect();
        pairs.extend([(1, 1), (3, 2), (5, 2), (7, 2), (9, 2), (11, 2), (13, 2)]);
        pairs.sort_unstable();
        assert_eq!(row.by_target(), pairs);
        assert_eq!(row, row_of(&pairs));
        // A mix in one call: an arrival on a new level, an improvement, a
        // departure and a re-settle.
        row.patch(
            &[(0, 0, INF), (2, 1, 0), (4, 2, 3), (201, INF, 4)],
            &mut buf,
        );
        pairs.retain(|e| ![0, 2, 4].contains(&e.0));
        pairs.extend([(2, 0), (4, 3), (201, 4)]);
        pairs.sort_unstable();
        assert_eq!(row, row_of(&pairs));
        // Into an empty row, and an empty patch.
        let mut empty = SparseRow::default();
        empty.patch(&[(3, INF, 0), (7, INF, 1)], &mut buf);
        assert_eq!(empty, row_of(&[(3, 0), (7, 1)]));
        empty.patch(&[], &mut buf);
        assert_eq!(empty, row_of(&[(3, 0), (7, 1)]));
    }

    #[test]
    fn settle_rewrites_in_place_and_drops_what_fell_beyond() {
        let mut row = row_of(&(0..6).map(|i| (2 * i, 2)).collect::<Vec<_>>());
        let mut buf = PatchBuf::default();
        row.patch(&[(2, 2, 3), (10, 2, 4)], &mut buf);
        assert_eq!(
            row,
            row_of(&[(0, 2), (2, 3), (4, 2), (6, 2), (8, 2), (10, 4)])
        );
        row.patch(&[(0, 2, INF), (4, 2, 3), (10, 4, INF)], &mut buf);
        assert_eq!(row.by_target(), [(2, 3), (4, 3), (6, 2), (8, 2)]);
        assert_eq!(row.levels().count(), 4, "levels 0 and 1 stay, empty");
        row.patch(&[(6, 2, INF), (8, 2, INF)], &mut buf);
        assert_eq!(
            row.levels().count(),
            4,
            "only a last level goes when it empties"
        );
        row.truncate(2);
        assert_eq!(
            row,
            SparseRow::default(),
            "a cut drops the empty levels it ends on"
        );
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
    /// every fetched slot is a resident `x` whose row keeps `v` at
    /// `d(x, u) + 1` in `graph` — inside the backward ball of the edge
    /// `(u, v)`, at its own horizon and kept labels — and none was fetched
    /// more than once (tested and repaired on the same fetch).
    fn assert_ball_local(s: &BoundedRows<Recording>, graph: &DataGraph, u: NodeId, v: NodeId) {
        let dense = apsp_matrix(graph);
        for (slot, &count) in s.store.fetches.iter().enumerate() {
            let x = NodeId::from_index(slot);
            assert!(count <= 1, "{x:?} fetched {count} times");
            if count > 0 {
                assert!(s.store.inner.is_resident(x.0));
                let through = sat_add(dense.get(x, u), 1);
                assert!(keeps(s, graph, x, v, through), "{x:?} is outside the ball");
            }
        }
    }

    /// A commit patches rows where they stand: since the last `reset` it
    /// replaced none (no `put`), dropped none but `removed` rows, and every
    /// `update` went to a source of the delta.
    fn assert_patches_only_sources(s: &BoundedRows<Recording>, delta: &AffDelta, removed: usize) {
        assert_eq!(s.store.puts, [] as [u32; 0], "a commit rebuilt a row");
        assert_writes_only_sources(s, delta, removed);
    }

    /// The locality contract of a node delete: since the last `reset`, the
    /// slots fetched are exactly the deleted node's own row, when `own` (it
    /// had one), and the resident `x` whose row kept the node at `d(x, w) +
    /// 1` in `graph` for an in-neighbour `w` it had — its in-edges'
    /// backward ball — each once.
    fn assert_in_edges_ball_local(s: &BoundedRows<Recording>, graph: &DataGraph, own: bool) {
        let removed = graph.last_removed().expect("a node delete");
        let dense = apsp_matrix(graph);
        let near = |x, w| {
            let through = sat_add(dense.get(x, w), 1);
            graph
                .label(x)
                .is_some_and(|l| s.reqs.keeps(l, removed.label, through))
        };
        for (slot, &count) in s.store.fetches.iter().enumerate() {
            let x = NodeId::from_index(slot);
            let in_ball =
                s.store.inner.is_resident(x.0) && removed.in_edges.iter().any(|&w| near(x, w));
            let expected = in_ball || (x == removed.id && own);
            assert_eq!(count, u32::from(expected), "fetches of {x:?}");
        }
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
        assert_ball_local(&s, &f.graph, f.se1, f.te2);
        let improved = [f.pm1, f.pm2, f.se1, f.se2, f.s1, f.te1].map(|x| x.0);
        assert_eq!(s.store.updates, improved);
        assert_patches_only_sources(&s, &delta, 0);
        assert_projection(&s, &f.graph, &apsp_matrix(&f.graph));

        // Nobody reaches PM1 but PM1, whose only path to DB1 was the edge.
        let (mut f, mut s) = fig1_rows(Recording::default());
        f.graph.remove_edge(f.pm1, f.db1).unwrap();
        s.store.reset();
        let delta = s.commit_delete_edge(&f.graph, f.pm1, f.db1, RepairHint::Baseline);
        assert!(!delta.is_empty());
        assert_eq!(s.store.resident_fetches(), [1, 0, 0, 0, 0, 0, 0]);
        assert_ball_local(&s, &f.graph, f.pm1, f.db1);
        assert_eq!(s.store.updates, [f.pm1.0]);
        assert_patches_only_sources(&s, &delta, 0);
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
        assert_ball_local(&s, &f.graph, f.se2, f.db1);
        assert_eq!(s.store.updates, [f.se2.0, f.te1.0]);
        assert_patches_only_sources(&s, &delta, 0);
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
        assert_patches_only_sources(&s, &delta, 0);
        assert!(s.csr.is_none(), "no repair reads the bulk build's CSR");
        assert_eq!(s.store.resident_fetches(), [1, 1, 1, 1, 1, 1, 0]);
        // Its one record sits where the re-run's diff would have put it.
        let of_s1: Vec<_> = delta.changed.iter().filter(|r| r.0 == f.s1).collect();
        assert_eq!(of_s1, [&(f.s1, f.te1, 4, INF)]);
        assert_eq!(delta.changed.last(), Some(&(f.s1, f.te1, 4, INF)));
        assert_projection(&s, &f.graph, &apsp_matrix(&f.graph));

        // Node deletion has the same leaf: TE2 reaches SE2 in exactly 4,
        // and loses that one entry in place. Every other ball row is
        // patched in place too; none is rebuilt.
        f.graph.remove_node(f.se2).unwrap();
        s.store.reset();
        let delta = s.commit_delete_node(&f.graph, f.se2, RepairHint::Baseline);
        let patched = [f.pm1, f.pm2, f.se1, f.s1, f.te1, f.te2].map(|x| x.0);
        assert_eq!(s.store.updates, patched);
        assert_patches_only_sources(&s, &delta, 1);
        let of_te2: Vec<_> = delta.changed.iter().filter(|r| r.0 == f.te2).collect();
        assert_eq!(of_te2, [&(f.te2, f.se2, 4, INF)]);
        assert_projection(&s, &f.graph, &apsp_matrix(&f.graph));
    }

    /// Fetch counts are in slot order `PM1, PM2, SE1, SE2, S1, TE1, TE2,
    /// DB1` (DB1 has no row).
    #[test]
    fn a_node_delete_fetches_its_in_edges_ball_and_its_own_row() {
        // Nobody reaches PM1: no in-edge, no ball. PM1's own row is the one
        // read, and dropped.
        let (mut f, mut s) = fig1_rows(Recording::default());
        f.graph.remove_node(f.pm1).unwrap();
        s.store.reset();
        let delta = s.commit_delete_node(&f.graph, f.pm1, RepairHint::Baseline);
        assert_eq!(s.store.fetches, [1, 0, 0, 0, 0, 0, 0, 0]);
        assert_in_edges_ball_local(&s, &f.graph, true);
        assert_eq!(s.store.updates, [] as [u32; 0]);
        assert_patches_only_sources(&s, &delta, 1);
        assert!(delta.changed.iter().all(|r| r.0 == f.pm1));
        assert_projection(&s, &f.graph, &apsp_matrix(&f.graph));

        // SE2 had three in-neighbours — PM1, SE1, TE1 — and one BFS from
        // all three reaches every other source, TE2 exactly at the horizon.
        // Each row is read once and patched in place, SE2's own row read
        // once and dropped.
        let (mut f, mut s) = fig1_rows(Recording::default());
        f.graph.remove_node(f.se2).unwrap();
        s.store.reset();
        let delta = s.commit_delete_node(&f.graph, f.se2, RepairHint::Baseline);
        assert_eq!(s.store.fetches, [1, 1, 1, 1, 1, 1, 1, 0]);
        assert_in_edges_ball_local(&s, &f.graph, true);
        let patched = [f.pm1, f.pm2, f.se1, f.s1, f.te1, f.te2].map(|x| x.0);
        assert_eq!(s.store.updates, patched);
        assert_patches_only_sources(&s, &delta, 1);
        assert_projection(&s, &f.graph, &apsp_matrix(&f.graph));

        // S1's in-neighbours SE1 and TE2 are within reach of every other
        // source — TE1 exactly at the horizon.
        let (mut f, mut s) = fig1_rows(Recording::default());
        f.graph.remove_node(f.s1).unwrap();
        s.store.reset();
        let delta = s.commit_delete_node(&f.graph, f.s1, RepairHint::Baseline);
        assert_eq!(s.store.fetches, [1, 1, 1, 1, 1, 1, 1, 0]);
        assert_in_edges_ball_local(&s, &f.graph, true);
        let patched = [f.pm1, f.pm2, f.se1, f.se2, f.te1, f.te2].map(|x| x.0);
        assert_eq!(s.store.updates, patched);
        assert_patches_only_sources(&s, &delta, 1);
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
        let te_only = uniform_reqs(&f, Bound::Hops(2), &["TE"]);
        let deeper = uniform_reqs(&f, Bound::Hops(4), &["TE", "PM"]);
        let mut union = te_only.clone();
        union.absorb(&deeper);
        // Deeper: the surviving TE rows re-run in slot order; then the
        // newly required PM sources — although their slots come first.
        let expected = [f.te1.0, f.te2.0, f.pm1.0, f.pm2.0];

        let mut synced = BoundedRows::with_store(&f.graph, &te_only, Recording::default());
        synced.store.reset();
        synced.sync_requirements(&f.graph, &deeper);
        assert_eq!(synced.store.puts, expected);
        assert_eq!(synced.store.writes, 4, "no row dropped or re-truncated");

        let mut narrowed = BoundedRows::with_store(&f.graph, &te_only, Recording::default());
        narrowed.store.reset();
        narrowed.narrow_requirements(&f.graph, &union);
        assert_eq!(narrowed.store.puts, expected);
        assert_same_index(&synced, &narrowed, &f.graph);
        assert_eq!(synced.reqs, union);
    }

    #[test]
    fn a_retarget_moves_each_label_by_its_own_horizon() {
        // PM 3 -> 5 re-runs, SE 4 -> 2 truncates in place, S is new, TE
        // leaves; DB, never a source, stays without a row.
        let f = fig1();
        let mut from = uniform_reqs(&f, Bound::Hops(3), &["PM", "TE"]);
        from.absorb(&uniform_reqs(&f, Bound::Hops(4), &["SE"]));
        let mut to = uniform_reqs(&f, Bound::Hops(5), &["PM"]);
        to.absorb(&uniform_reqs(&f, Bound::Hops(2), &["SE", "S"]));
        let mut s = BoundedRows::with_store(&f.graph, &from, Recording::default());
        s.store.reset();
        s.narrow_requirements(&f.graph, &to);
        assert_eq!(s.store.updates, [f.se1.0, f.se2.0], "truncated in place");
        assert_eq!(s.store.puts, [f.pm1.0, f.pm2.0, f.s1.0], "re-run, then new");
        assert_eq!(s.store.writes, 2 + 3 + 2, "and TE's two rows dropped");
        let fresh = BoundedRows::with_store(&f.graph, &to, MemStore::default());
        assert_same_index(&s, &fresh, &f.graph);
        assert_projection(&s, &f.graph, &apsp_matrix(&f.graph));
        assert_resident_count(&s);
    }

    #[test]
    fn of_pattern_rows_sit_at_edge_sources_at_their_own_horizons() {
        // Fig. 1's edges leave PM (bound 3) and SE (bound 4): S and TE are
        // sinks, so four rows instead of seven, and PM's stop at 3.
        let f = fig1();
        let reqs = SlenRequirements::of_pattern(&f.pattern);
        let s = BoundedRows::with_store(&f.graph, &reqs, MemStore::default());
        assert_eq!(s.resident_rows(), 4);
        for x in [f.s1, f.te1, f.te2, f.db1] {
            assert!(!s.store.is_resident(x.0), "{x:?} has a row");
        }
        let dense = apsp_matrix(&f.graph);
        assert_projection(&s, &f.graph, &dense);
        assert_eq!(dense.get(f.te2, f.s1), 1);
        assert_eq!(s.distance(f.te2, f.s1), INF, "a sink's row is never read");
    }

    /// The per-row horizon on the repair path. `x` and `y` both sit one
    /// hop before `u`; `x`'s label reads its rows only to bound 1, `y`'s to
    /// bound 2. So `(u, v)` is within `y`'s horizon and past `x`'s: a commit
    /// of it fetches `y`'s row once and never `x`'s.
    #[test]
    fn a_source_past_its_own_horizon_is_not_fetched() {
        let (lx, ly, sink) = (Label(0), Label(1), Label(2));
        let mut reqs = SlenRequirements::empty();
        reqs.absorb_edge(lx, sink, Bound::Hops(1));
        reqs.absorb_edge(ly, sink, Bound::Hops(2));
        let mut graph = DataGraph::new();
        let (x, y) = (graph.add_node(lx), graph.add_node(ly));
        let [u, v] = [0; 2].map(|_| graph.add_node(sink));
        for (a, b) in [(x, u), (y, u)] {
            graph.add_edge(a, b).unwrap();
        }
        let mut s = BoundedRows::with_store(&graph, &reqs, Recording::default());
        assert_eq!(s.resident_rows(), 2, "sinks hold no row");

        graph.add_edge(u, v).unwrap();
        s.store.reset();
        let delta = s.commit_insert_edge(&graph, u, v, RepairHint::Baseline);
        assert_eq!(delta.changed, [(y, v, INF, 2)]);
        assert_eq!(s.store.resident_fetches(), [0, 1]);
        assert_ball_local(&s, &graph, u, v);
        assert_patches_only_sources(&s, &delta, 0);
        assert_projection(&s, &graph, &apsp_matrix(&graph));

        graph.remove_edge(u, v).unwrap();
        s.store.reset();
        let delta = s.commit_delete_edge(&graph, u, v, RepairHint::Baseline);
        assert_eq!(delta.changed, [(y, v, 2, INF)]);
        assert_eq!(s.store.resident_fetches(), [0, 1]);
        assert_patches_only_sources(&s, &delta, 0);
        assert_projection(&s, &graph, &apsp_matrix(&graph));

        // `u` is one hop from both: a node delete re-settles `x`'s row and
        // `y`'s alike, each fetched once.
        graph.remove_node(u).unwrap();
        s.store.reset();
        let delta = s.commit_delete_node(&graph, u, RepairHint::Baseline);
        assert_eq!(delta.changed, [(x, u, 1, INF), (y, u, 1, INF)]);
        assert_in_edges_ball_local(&s, &graph, false);
        assert_projection(&s, &graph, &apsp_matrix(&graph));
    }

    /// The walk of [`BoundedRows::backward_ball`] from `tails` towards a
    /// `head`-labelled head: the ball it admits, and the nodes it visited,
    /// ascending.
    fn walk<S: RowStore>(
        s: &mut BoundedRows<S>,
        graph: &DataGraph,
        tails: &[NodeId],
        head: Label,
    ) -> (Vec<(u32, u32, u32)>, Vec<NodeId>) {
        let ball = s.backward_ball(graph, tails, head);
        s.ball_buf = ball.clone();
        let mut visited = s.queue_buf.clone();
        visited.sort_unstable();
        assert_scratch_restored(s);
        (ball, visited)
    }

    /// The walk before per-head radii, held apart from the code under test:
    /// a plain FIFO BFS over the in-adjacency from every tail, as deep as
    /// the deepest horizon less one, each node admitted when its row keeps
    /// the head one hop past it.
    fn deepest_walk(
        reqs: &SlenRequirements,
        graph: &DataGraph,
        tails: &[NodeId],
        head: Label,
    ) -> Vec<(u32, u32, u32)> {
        let horizon = |x: NodeId| graph.label(x).and_then(|l| reqs.horizon(l));
        let deepest = reqs.labels().filter_map(|l| reqs.horizon(l)).max();
        let Some(radius) = deepest.and_then(|h| h.checked_sub(1)) else {
            return Vec::new();
        };
        let mut seen: Vec<(NodeId, u32)> = tails.iter().map(|&t| (t, 0)).collect();
        let mut at = 0;
        while at < seen.len() {
            let (x, dx) = seen[at];
            at += 1;
            for &w in graph.in_neighbors(x) {
                if dx < radius && !seen.iter().any(|e| e.0 == w) {
                    seen.push((w, dx + 1));
                }
            }
        }
        let keeps = |x: NodeId, d: u32| {
            let from = graph.label(x);
            from.is_some_and(|from| reqs.keeps(from, head, sat_add(d, 1)))
        };
        let mut ball: Vec<(u32, u32, u32)> = seen
            .into_iter()
            .filter(|&(x, d)| keeps(x, d))
            .map(|(x, d)| (x.0, horizon(x).expect("a keeping row has a horizon"), d))
            .collect();
        ball.sort_unstable();
        ball
    }

    /// Label A reads C at bound 3, B reads B at bound 1, D is no source.
    /// Towards a B head no row reads at 3, so the walk's radius is 1, not
    /// the deepest horizon less one: it visits the tail and, at depth 1,
    /// only the A node it admits — not the D and B nodes beside it, which
    /// no row admits there, nor anything at depth 2. Towards a C head the
    /// radius is 2; once B alone is a source, a head it does not keep
    /// has no walk at all.
    #[test]
    fn a_walk_towards_a_head_no_deepest_row_keeps_stops_at_its_radius() {
        let [a, b, c, d] = [0, 1, 2, 3].map(Label);
        let mut reqs = SlenRequirements::empty();
        reqs.absorb_edge(a, c, Bound::Hops(3));
        reqs.absorb_edge(b, b, Bound::Hops(1));
        let mut graph = DataGraph::new();
        let [a1, a2, a3] = [0; 3].map(|_| graph.add_node(a));
        let [u, s_, d2] = [0; 3].map(|_| graph.add_node(d));
        let b1 = graph.add_node(b);
        let edges = [(a1, a2), (a2, a3), (a3, u), (s_, u), (b1, u), (d2, s_)];
        for (from, to) in edges {
            graph.add_edge(from, to).unwrap();
        }
        let mut s = BoundedRows::with_store(&graph, &reqs, MemStore::default());
        assert_eq!(
            (s.horizons.radius(b), s.horizons.radius(c)),
            (Some(1), Some(2))
        );
        assert_eq!(s.horizons.radius(d), Some(1), "a head nobody keeps");

        let (ball, visited) = walk(&mut s, &graph, &[u], b);
        assert_eq!(ball, [(a3.0, 3, 1)]);
        assert_eq!(visited, [a3, u]);
        assert_eq!(ball, deepest_walk(&s.reqs, &graph, &[u], b));

        let (ball, visited) = walk(&mut s, &graph, &[u], c);
        assert_eq!(ball, [(a2.0, 3, 2), (a3.0, 3, 1)]);
        assert_eq!(visited, [a2, a3, u, s_, b1]);
        assert_eq!(ball, deepest_walk(&s.reqs, &graph, &[u], c));

        let mut only_b = SlenRequirements::empty();
        only_b.absorb_edge(b, b, Bound::Hops(1));
        s.narrow_requirements(&graph, &only_b);
        assert_eq!(
            (s.horizons.radius(a), s.horizons.radius(b)),
            (None, Some(0))
        );
        assert_eq!(walk(&mut s, &graph, &[u, s_], a), (vec![], vec![]));
        assert_eq!(
            walk(&mut s, &graph, &[b1, u], b),
            (vec![(b1.0, 1, 0)], vec![u, b1])
        );
    }

    proptest::proptest! {
        /// The trimmed walk against the deepest one, on random graphs of up
        /// to 60 nodes with tombstones and random requirement sets
        /// (horizons 1–4 and `*`, kept subsets from edges at and below a
        /// horizon, none at all), built directly or reached by a retarget:
        /// for every head label and a random tail set, both admit the same
        /// list, in the same order.
        #[test]
        fn the_trimmed_walk_admits_what_the_deepest_walk_admits(
            labels in proptest::collection::vec(0u32..5, 1..61),
            edges in proptest::collection::vec((0usize..60, 0usize..60), 0..180),
            dead in proptest::collection::vec(0usize..60, 0..6),
            first in proptest::collection::vec((0u32..5, 0u32..5, 1u32..=5), 0..6),
            then in proptest::collection::vec((0u32..5, 0u32..5, 1u32..=5), 0..6),
            tails in proptest::prelude::any::<u64>(),
        ) {
            let reqs_of = |edges: &[(u32, u32, u32)]| {
                let mut reqs = SlenRequirements::empty();
                for &(from, to, b) in edges {
                    let bound = if b == 5 { Bound::Unbounded } else { Bound::Hops(b) };
                    reqs.absorb_edge(Label(from), Label(to), bound);
                }
                reqs
            };
            let n = labels.len();
            let mut graph = DataGraph::new();
            let ids: Vec<NodeId> = labels.iter().map(|&l| graph.add_node(Label(l))).collect();
            for (x, y) in edges {
                let _ = graph.add_edge(ids[x % n], ids[y % n]);
            }
            for x in dead {
                let _ = graph.remove_node(ids[x % n]);
            }
            let tails: Vec<NodeId> = graph
                .nodes()
                .filter(|x| tails >> (x.index() % 64) & 1 == 1)
                .collect();
            let reqs = reqs_of(&then);
            let mut s = BoundedRows::with_store(&graph, &reqs_of(&first), MemStore::default());
            s.narrow_requirements(&graph, &reqs);
            let mut direct = BoundedRows::with_store(&graph, &reqs, MemStore::default());
            for head in (0..7).map(Label) {
                let expected = deepest_walk(&reqs, &graph, &tails, head);
                proptest::prop_assert_eq!(&walk(&mut s, &graph, &tails, head).0, &expected);
                proptest::prop_assert_eq!(&walk(&mut direct, &graph, &tails, head).0, &expected);
            }
        }
    }

    /// Fig. 1's PM edges read SE and S at bound 3. PM1 reaches S1 and PM2
    /// at 3: it keeps S1 and not PM2. Every target PM2 has at 3 (TE1, DB1)
    /// is unread, so its row ends at level 2. Below the horizon every label
    /// stays: PM1 keeps TE1, which no PM edge reads, at 2.
    #[test]
    fn a_row_keeps_at_its_horizon_only_the_labels_an_edge_reads() {
        let f = fig1();
        let reqs = SlenRequirements::of_pattern(&f.pattern);
        let s = BoundedRows::with_store(&f.graph, &reqs, MemStore::default());
        let dense = apsp_matrix(&f.graph);
        assert_eq!([f.pm2, f.s1, f.te1].map(|y| dense.get(f.pm1, y)), [3, 3, 2]);
        assert_eq!(
            [f.pm2, f.s1, f.te1].map(|y| s.distance(f.pm1, y)),
            [INF, 3, 2]
        );
        assert_eq!([f.te1, f.db1].map(|y| dense.get(f.pm2, y)), [3, 3]);
        assert_eq!(s.store.with_row(f.pm2.0, |r| r.levels().count()), Some(3));
        assert_projection(&s, &f.graph, &dense);
    }

    /// Label A reaches B at bound 2 and C at bound 3: its horizon is 3, and
    /// only C is kept there. `x`'s row holds B-labelled `q` at 2 and
    /// C-labelled `r` at 3, but not B-labelled `s` at 3.
    #[test]
    fn only_the_deepest_edge_target_is_kept_at_the_last_level() {
        let [a, b, c] = [0, 1, 2].map(Label);
        let mut reqs = SlenRequirements::empty();
        reqs.absorb_edge(a, b, Bound::Hops(2));
        reqs.absorb_edge(a, c, Bound::Hops(3));
        assert_eq!((reqs.horizon(a), reqs.kept(a)), (Some(3), &[c][..]));
        let mut graph = DataGraph::new();
        let x = graph.add_node(a);
        let [p, q, s_] = [0; 3].map(|_| graph.add_node(b));
        let r = graph.add_node(c);
        for (from, to) in [(x, p), (p, q), (q, r), (q, s_)] {
            graph.add_edge(from, to).unwrap();
        }
        let mut s = BoundedRows::with_store(&graph, &reqs, MemStore::default());
        let row = row_of(&[(x.0, 0), (p.0, 1), (q.0, 2), (r.0, 3)]);
        assert_eq!(s.store.fetch(x.0), Some(&row));
        assert_projection(&s, &graph, &apsp_matrix(&graph));
    }

    /// PM at 3 keeping SE, then SE and S, then SE again. The widening
    /// re-runs PM's rows (PM1 gains S1 at 3, which no filter could bring
    /// back); the narrowing filters their last level in place. Both land
    /// where a fresh build does.
    #[test]
    fn a_kept_set_widened_then_narrowed_at_one_horizon_equals_a_fresh_build() {
        let f = fig1();
        let [pm, se, s_] = ["PM", "SE", "S"].map(|l| f.interner.get(l).unwrap());
        let mut narrow = SlenRequirements::empty();
        narrow.absorb_edge(pm, se, Bound::Hops(3));
        let mut wide = narrow.clone();
        wide.absorb_edge(pm, s_, Bound::Hops(3));
        let mut s = BoundedRows::with_store(&f.graph, &narrow, Recording::default());
        assert_eq!(s.distance(f.pm1, f.s1), INF);

        s.store.reset();
        s.narrow_requirements(&f.graph, &wide);
        assert_eq!(
            s.store.puts,
            [f.pm1.0, f.pm2.0],
            "a kept set that grows re-runs"
        );
        assert_eq!(s.distance(f.pm1, f.s1), 3);
        let fresh = BoundedRows::with_store(&f.graph, &wide, MemStore::default());
        assert_same_index(&s, &fresh, &f.graph);
        assert_projection(&s, &f.graph, &apsp_matrix(&f.graph));

        s.store.reset();
        s.narrow_requirements(&f.graph, &narrow);
        assert_eq!(s.store.puts, [] as [u32; 0], "one that shrinks filters");
        assert_eq!(s.store.updates, [f.pm1.0, f.pm2.0]);
        let fresh = BoundedRows::with_store(&f.graph, &narrow, MemStore::default());
        assert_same_index(&s, &fresh, &f.graph);
        assert_projection(&s, &f.graph, &apsp_matrix(&f.graph));
    }

    /// Label A reads C at bound 2. `u -> v` brings B-labelled `v` to `x`
    /// at exactly 2, unread: nothing is recorded, fetched or written. At
    /// bound 3 the same insert brings `v` at 2 and, at 3, C-labelled `k`
    /// (kept) and B-labelled `w` (skipped before any search).
    #[test]
    fn an_insert_whose_new_targets_are_unread_at_the_horizon_records_and_writes_nothing() {
        let [a, b, c] = [0, 1, 2].map(Label);
        let mut graph = DataGraph::new();
        let x = graph.add_node(a);
        let [u, v, w] = [0; 3].map(|_| graph.add_node(b));
        let k = graph.add_node(c);
        for (from, to) in [(x, u), (v, w), (v, k)] {
            graph.add_edge(from, to).unwrap();
        }
        let reqs_at = |bound| {
            let mut reqs = SlenRequirements::empty();
            reqs.absorb_edge(a, c, Bound::Hops(bound));
            reqs
        };
        let mut shallow = BoundedRows::with_store(&graph, &reqs_at(2), Recording::default());
        let mut deep = BoundedRows::with_store(&graph, &reqs_at(3), Recording::default());
        graph.add_edge(u, v).unwrap();

        shallow.store.reset();
        let delta = shallow.commit_insert_edge(&graph, u, v, RepairHint::Baseline);
        assert!(delta.is_empty());
        assert_eq!(shallow.store.writes, 0);
        assert_eq!(shallow.store.resident_fetches(), [0]);
        assert_projection(&shallow, &graph, &apsp_matrix(&graph));

        deep.store.reset();
        let delta = deep.commit_insert_edge(&graph, u, v, RepairHint::Baseline);
        assert_eq!(delta.changed, [(x, v, INF, 2), (x, k, INF, 3)]);
        assert_eq!(deep.store.updates, [x.0]);
        assert_patches_only_sources(&deep, &delta, 0);
        assert_projection(&deep, &graph, &apsp_matrix(&graph));
    }

    /// Label A reads C at bound 3. Deleting `p -> t` leaves B-labelled `t`
    /// a path of 3 through `q -> r`: at the horizon and unread, so it
    /// leaves the row, and its C-labelled child `k` falls beyond. The
    /// records are the dense delta's, projected.
    #[test]
    fn an_unread_target_that_falls_to_the_horizon_leaves_the_row() {
        let [a, b, c] = [0, 1, 2].map(Label);
        let mut reqs = SlenRequirements::empty();
        reqs.absorb_edge(a, c, Bound::Hops(3));
        let mut graph = DataGraph::new();
        let x = graph.add_node(a);
        let [p, q, r, t] = [0; 4].map(|_| graph.add_node(b));
        let k = graph.add_node(c);
        for (from, to) in [(x, p), (p, t), (x, q), (q, r), (r, t), (t, k)] {
            graph.add_edge(from, to).unwrap();
        }
        let mut s = BoundedRows::with_store(&graph, &reqs, MemStore::default());
        let mut dense = IncrementalIndex::build(&graph);
        graph.remove_edge(p, t).unwrap();
        let delta = s.commit_delete_edge(&graph, p, t, RepairHint::Baseline);
        let dense_delta = dense.commit_delete_edge(&graph, p, t);
        assert!(dense_delta.changed.contains(&(x, t, 2, 3)));
        assert_eq!(delta.changed, [(x, t, 2, INF), (x, k, 3, INF)]);
        let label = |n: NodeId| graph.label(n);
        assert_eq!(
            crate::project_delta(&dense_delta, &reqs, label),
            delta.changed
        );
        assert_eq!(
            s.store.fetch(x.0),
            Some(&row_of(&[(x.0, 0), (p.0, 1), (q.0, 1), (r.0, 2)]))
        );
        assert_projection(&s, &graph, dense.matrix());
    }

    /// A deleted node is in its own `Aff_N` even when it held no row and
    /// no source reaches it: nothing else would name it to the plans.
    #[test]
    fn a_deleted_node_without_a_row_is_still_affected() {
        let (f, mut s) = {
            let f = fig1();
            let reqs = SlenRequirements::of_pattern(&f.pattern);
            let s = BoundedRows::with_store(&f.graph, &reqs, MemStore::default());
            (f, s)
        };
        let mut f = f;
        let te = f.interner.get("TE").unwrap();
        let lone = f.graph.add_node(te);
        s.commit_insert_node(&f.graph, lone, RepairHint::Baseline);
        assert!(!s.store.is_resident(lone.0), "TE is a sink");
        f.graph.remove_node(lone).unwrap();
        let delta = s.commit_delete_node(&f.graph, lone, RepairHint::Baseline);
        assert!(delta.is_empty());
        assert_eq!(delta.affected.iter().collect::<Vec<_>>(), [lone]);
    }
}
