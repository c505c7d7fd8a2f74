//! [`AnyBackend`]: one `SLen` backend type dispatching at runtime over the
//! three kinds a configuration can name (two index types, one of them in
//! two stores).
//!
//! The engine and service are generic over [`SlenBackend`], which gives
//! static dispatch when the backend is known at compile time. Callers that
//! pick the backend from configuration (the `gpnm` CLI, the service
//! builder) would otherwise have to monomorphize their whole call graph
//! three times per choice point; `AnyBackend` folds the choice into one
//! enum whose trait methods forward to the selected variant. Point lookups
//! pay one predictable branch — irrelevant next to the BFS work behind
//! every repair — and everything else inherits the variant's behavior
//! unchanged.

use gpnm_graph::{Bound, DataGraph, NodeId, NodeSet};

use crate::aff::AffDelta;
use crate::backend::{IoStats, RepairHint, SlenBackend, SlenRequirements};
use crate::incremental::IncrementalIndex;
use crate::kind::{BackendKind, BudgetError};
use crate::oracle::DistanceOracle;
use crate::paged::PagedIndex;
use crate::sparse::SparseIndex;

/// A runtime-selected `SLen` backend: partitioned, sparse, or paged.
// One AnyBackend exists per engine/service, so the size spread between
// variants costs a few hundred bytes total — boxing would instead tax
// every distance lookup with a second indirection.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum AnyBackend {
    /// Dense matrix ([`IncrementalIndex`]).
    Partitioned(IncrementalIndex),
    /// Bounded-row sparse index ([`SparseIndex`]).
    Sparse(SparseIndex),
    /// Out-of-core paged index ([`PagedIndex`]).
    Paged(PagedIndex),
}

macro_rules! on_backend {
    ($self:expr, $b:ident => $e:expr) => {
        match $self {
            AnyBackend::Partitioned($b) => $e,
            AnyBackend::Sparse($b) => $e,
            AnyBackend::Paged($b) => $e,
        }
    };
}

impl AnyBackend {
    /// Build the backend `kind` names over `graph`, covering `reqs`.
    pub fn of_kind(kind: BackendKind, graph: &DataGraph, reqs: &SlenRequirements) -> Self {
        match kind {
            BackendKind::Partitioned => AnyBackend::Partitioned(IncrementalIndex::build(graph)),
            BackendKind::Sparse => AnyBackend::Sparse(SparseIndex::build(graph, reqs)),
            BackendKind::Paged => AnyBackend::Paged(PagedIndex::build(graph, reqs)),
        }
    }

    /// Build the backend `kind` names from runtime configuration — the one
    /// construction path behind every host builder and `--backend` flag.
    /// It runs [`BackendKind::admit`] first (both budgets valid, no
    /// over-budget dense matrix), then builds, then sizes a paged
    /// hot-row cache to `cache_budget_mb` MiB, or leaves it at
    /// [`crate::PagedConfig`]'s default when unset.
    pub fn configured(
        kind: BackendKind,
        graph: &DataGraph,
        reqs: &SlenRequirements,
        max_index_gb: f64,
        cache_budget_mb: Option<f64>,
    ) -> Result<Self, BudgetError> {
        kind.admit(graph.slot_count(), max_index_gb, cache_budget_mb)?;
        let mut backend = Self::of_kind(kind, graph, reqs);
        if let (AnyBackend::Paged(paged), Some(mb)) = (&mut backend, cache_budget_mb) {
            paged.set_cache_budget((mb * (1u64 << 20) as f64) as usize);
        }
        Ok(backend)
    }

    /// Which [`BackendKind`] this value carries.
    pub fn backend_kind(&self) -> BackendKind {
        match self {
            AnyBackend::Partitioned(_) => BackendKind::Partitioned,
            AnyBackend::Sparse(_) => BackendKind::Sparse,
            AnyBackend::Paged(_) => BackendKind::Paged,
        }
    }
}

impl DistanceOracle for AnyBackend {
    #[inline]
    fn distance(&self, u: NodeId, v: NodeId) -> u32 {
        on_backend!(self, b => DistanceOracle::distance(b, u, v))
    }

    #[inline]
    fn within(&self, u: NodeId, v: NodeId, bound: Bound) -> bool {
        on_backend!(self, b => DistanceOracle::within(b, u, v, bound))
    }

    #[inline]
    fn any_within(&self, u: NodeId, set: &NodeSet, bound: Bound) -> bool {
        on_backend!(self, b => DistanceOracle::any_within(b, u, set, bound))
    }
}

impl SlenBackend for AnyBackend {
    fn kind(&self) -> &'static str {
        on_backend!(self, b => b.kind())
    }

    /// Builds the default variant ([`BackendKind::Partitioned`]); use
    /// [`AnyBackend::of_kind`] to choose.
    fn build(graph: &DataGraph, reqs: &SlenRequirements) -> Self {
        AnyBackend::of_kind(BackendKind::Partitioned, graph, reqs)
    }

    fn rebuild(&mut self, graph: &DataGraph, reqs: &SlenRequirements) {
        on_backend!(self, b => SlenBackend::rebuild(b, graph, reqs))
    }

    fn sync_requirements(&mut self, graph: &DataGraph, reqs: &SlenRequirements) {
        on_backend!(self, b => b.sync_requirements(graph, reqs))
    }

    fn narrow_requirements(&mut self, graph: &DataGraph, reqs: &SlenRequirements) {
        on_backend!(self, b => b.narrow_requirements(graph, reqs))
    }

    fn commit_insert_edge(
        &mut self,
        graph: &DataGraph,
        u: NodeId,
        v: NodeId,
        hint: RepairHint,
    ) -> AffDelta {
        on_backend!(self, b => SlenBackend::commit_insert_edge(b, graph, u, v, hint))
    }

    fn commit_delete_edge(
        &mut self,
        graph: &DataGraph,
        u: NodeId,
        v: NodeId,
        hint: RepairHint,
    ) -> AffDelta {
        on_backend!(self, b => SlenBackend::commit_delete_edge(b, graph, u, v, hint))
    }

    fn commit_insert_node(&mut self, graph: &DataGraph, id: NodeId, hint: RepairHint) -> AffDelta {
        on_backend!(self, b => SlenBackend::commit_insert_node(b, graph, id, hint))
    }

    fn commit_delete_node(&mut self, graph: &DataGraph, id: NodeId, hint: RepairHint) -> AffDelta {
        on_backend!(self, b => SlenBackend::commit_delete_node(b, graph, id, hint))
    }

    fn resident_rows(&self) -> usize {
        on_backend!(self, b => b.resident_rows())
    }

    fn mem_bytes(&self) -> usize {
        on_backend!(self, b => b.mem_bytes())
    }

    fn io_stats(&self) -> Option<IoStats> {
        on_backend!(self, b => b.io_stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apsp::apsp_matrix;
    use gpnm_graph::paper::fig1;

    #[test]
    fn every_kind_constructs_and_reports_itself() {
        let f = fig1();
        let reqs = SlenRequirements::of_pattern(&f.pattern);
        for kind in BackendKind::ALL {
            let b = AnyBackend::of_kind(kind, &f.graph, &reqs);
            assert_eq!(b.backend_kind(), kind);
            assert_eq!(b.kind(), kind.name());
            assert!(b.resident_rows() > 0);
        }
    }

    #[test]
    fn dispatched_commits_stay_exact() {
        let mut f = fig1();
        let reqs = SlenRequirements::of_pattern(&f.pattern);
        let mut b = AnyBackend::of_kind(BackendKind::Partitioned, &f.graph, &reqs);
        f.graph.add_edge(f.se1, f.te2).unwrap();
        let delta = b.commit_insert_edge(&f.graph, f.se1, f.te2, RepairHint::Baseline);
        assert!(!delta.is_empty());
        let dense = apsp_matrix(&f.graph);
        for i in 0..f.graph.slot_count() {
            for j in 0..f.graph.slot_count() {
                let (x, y) = (NodeId::from_index(i), NodeId::from_index(j));
                assert_eq!(b.distance(x, y), dense.get(x, y));
            }
        }
    }

    #[test]
    fn configured_admits_then_sizes_the_paged_cache() {
        let f = fig1();
        let reqs = SlenRequirements::of_pattern(&f.pattern);
        let default = crate::PagedConfig::default().cache_budget_bytes;
        for (mb, bytes) in [(None, default), (Some(0.5), 1 << 19)] {
            let b = AnyBackend::configured(BackendKind::Paged, &f.graph, &reqs, 4.0, mb).unwrap();
            let AnyBackend::Paged(paged) = b else {
                unreachable!("paged was asked for")
            };
            assert_eq!(paged.cache_budget(), bytes);
        }
        // The dense budget reaches only dense admission.
        let b = AnyBackend::configured(BackendKind::Paged, &f.graph, &reqs, 1.0e-9, None);
        assert!(b.is_ok());
        let b = AnyBackend::configured(BackendKind::Partitioned, &f.graph, &reqs, 1.0e-9, None);
        assert!(matches!(b, Err(BudgetError::DenseTooLarge { .. })));
        let b = AnyBackend::configured(BackendKind::Sparse, &f.graph, &reqs, 4.0, Some(f64::NAN));
        assert!(matches!(b, Err(BudgetError::Invalid { .. })));
    }

    #[test]
    fn default_build_is_partitioned() {
        let f = fig1();
        let reqs = SlenRequirements::of_pattern(&f.pattern);
        let b = <AnyBackend as SlenBackend>::build(&f.graph, &reqs);
        assert_eq!(b.backend_kind(), BackendKind::Partitioned);
    }
}
