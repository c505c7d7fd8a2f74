//! Runtime backend selection: [`BackendKind`] names the three `SLen`
//! backends, [`crate::AnyBackend`] dispatches over them dynamically.

/// Which `SLen` backend maintains distances — the configuration axis next
/// to the engine's `Strategy`.
///
/// * [`BackendKind::Partitioned`] — the dense `n × n` matrix, exact
///   everywhere, with deletion rows recomputed on the worker pool (the
///   paper's `UA-GPNM` setup); `4n²` bytes (≈40 GB at 100k nodes).
/// * [`BackendKind::Sparse`] — bounded rows for pattern-labeled sources
///   only; memory ∝ candidate rows × bounded ball, the only fit past
///   ~50k nodes.
/// * [`BackendKind::Paged`] — the sparse rows spilled to disk pages with a
///   byte-budgeted hot-row cache; memory ∝ row directory + cache budget,
///   for graphs whose sparse index itself outgrows RAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Dense matrix with pooled deletion repair (default).
    Partitioned,
    /// Bounded-row sparse index over candidate sources.
    Sparse,
    /// Out-of-core paged index: sparse rows on disk, hot rows cached.
    Paged,
}

impl BackendKind {
    /// All backends, smallest-memory last.
    pub const ALL: [BackendKind; 3] = [
        BackendKind::Partitioned,
        BackendKind::Sparse,
        BackendKind::Paged,
    ];

    /// CLI name (`--backend` value).
    pub fn name(&self) -> &'static str {
        match self {
            BackendKind::Partitioned => "partitioned",
            BackendKind::Sparse => "sparse",
            BackendKind::Paged => "paged",
        }
    }

    /// Whether this backend materializes a full `n × n` matrix (and so
    /// needs a memory guard on large graphs).
    pub fn is_dense(&self) -> bool {
        matches!(self, BackendKind::Partitioned)
    }

    /// Estimated heap bytes of this backend's distance storage for a graph
    /// with `nodes` slots — the basis of the dense-build memory guard.
    /// `None` means "proportional to the requirement set, not predictable
    /// from `nodes` alone" (the sparse backend).
    pub fn estimated_index_bytes(&self, nodes: usize) -> Option<u128> {
        self.is_dense().then(|| nodes as u128 * nodes as u128 * 4)
    }
}

impl std::str::FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "partitioned" => Ok(BackendKind::Partitioned),
            "sparse" => Ok(BackendKind::Sparse),
            "paged" => Ok(BackendKind::Paged),
            other => Err(format!(
                "unknown backend {other:?} (expected partitioned, sparse or paged)"
            )),
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_kinds_round_trip_through_names() {
        for kind in BackendKind::ALL {
            assert_eq!(kind.name().parse::<BackendKind>(), Ok(kind));
            assert_eq!(kind.to_string(), kind.name());
        }
        assert!("matrix".parse::<BackendKind>().is_err());
        // `dense` folded into `partitioned`; the refusal names what is left.
        let err = "dense".parse::<BackendKind>().unwrap_err();
        assert!(err.contains("partitioned, sparse or paged"), "{err}");
        assert!(BackendKind::Partitioned.is_dense());
        assert!(!BackendKind::Sparse.is_dense());
        assert!(!BackendKind::Paged.is_dense());
    }

    #[test]
    fn dense_estimate_is_quadratic() {
        assert_eq!(
            BackendKind::Partitioned.estimated_index_bytes(100_000),
            Some(40_000_000_000)
        );
        assert_eq!(BackendKind::Sparse.estimated_index_bytes(100_000), None);
        assert_eq!(BackendKind::Paged.estimated_index_bytes(100_000), None);
    }
}
