//! Runtime backend selection: [`BackendKind`] names the three `SLen`
//! backend kinds, [`crate::AnyBackend`] dispatches over them dynamically.
//! Each kind's [`crate::SlenBackend::kind`] is its [`BackendKind::name`], so
//! a reported kind parses back to the value that built it.
//! [`BackendKind::admit`] is the one budget check a runtime-configured
//! build runs, and [`BudgetError`] the refusal every entry point prints.

/// Which `SLen` backend maintains distances — the configuration axis next
/// to the engine's `Strategy`.
///
/// * [`BackendKind::Partitioned`] — the dense `n × n` matrix
///   ([`crate::IncrementalIndex`]), exact everywhere (the paper's `UA-GPNM`
///   setup); `4n²` bytes plus ≈3% growth headroom (≈42 GB at 100k nodes).
/// * [`BackendKind::Sparse`] — bounded rows for pattern-labeled sources
///   only; memory ∝ candidate rows × bounded ball, the only fit past
///   ~50k nodes.
/// * [`BackendKind::Paged`] — the sparse rows spilled to disk pages with a
///   byte-budgeted hot-row cache; memory ∝ row directory + cache budget,
///   for graphs whose sparse index itself outgrows RAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Dense matrix (default).
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

    /// The admission check every runtime-configured build runs first, and
    /// the only place the two budgets are read for validity:
    /// `max_index_gb` (GiB) must be a positive finite number and bounds
    /// the dense matrix alone; `cache_budget_mb` (MiB), when set, must be
    /// one too and sizes the paged hot-row cache alone. A dense build for
    /// `nodes` slots whose estimate exceeds `max_index_gb` is refused here
    /// rather than handed to the OOM killer; the estimate is what the
    /// build allocates, growth headroom included. The bounded-row kinds,
    /// whose size follows the requirement set rather than `nodes`, are
    /// never refused. [`crate::AnyBackend::configured`] runs it before it
    /// builds; callers that must refuse before they even produce the
    /// graph (a generator sized by a node count) run it alone.
    pub fn admit(
        &self,
        nodes: usize,
        max_index_gb: f64,
        cache_budget_mb: Option<f64>,
    ) -> Result<(), BudgetError> {
        // NaN would make the size comparison silently false — the exact
        // OOM the check exists to stop.
        let index_budget = ("max_index_gb", Some(max_index_gb));
        for (knob, value) in [index_budget, ("cache_budget_mb", cache_budget_mb)] {
            if let Some(value) = value.filter(|v| !(v.is_finite() && *v > 0.0)) {
                return Err(BudgetError::Invalid { knob, value });
            }
        }
        if self.is_dense() && crate::matrix::allocated_bytes(nodes) as f64 > max_index_gb * GIB {
            return Err(BudgetError::DenseTooLarge {
                nodes,
                max_index_gb,
            });
        }
        Ok(())
    }
}

const GIB: f64 = (1u64 << 30) as f64;

/// The `max_index_gb` every entry point uses when none is configured
/// ([`BackendKind::admit`]): a dense matrix estimated at up to 4 GiB is
/// admitted.
pub const DEFAULT_MAX_INDEX_GB: f64 = 4.0;

/// Why [`BackendKind::admit`] (and so [`crate::AnyBackend::configured`])
/// refused a configuration. The text names the remedy; it is what every
/// host and the `gpnm` CLI print.
#[derive(Debug, Clone, PartialEq)]
pub enum BudgetError {
    /// A budget is not a positive finite number.
    Invalid {
        /// `max_index_gb` or `cache_budget_mb`.
        knob: &'static str,
        /// The value given.
        value: f64,
    },
    /// The dense `n × n` matrix, growth headroom included, would exceed
    /// `max_index_gb`.
    DenseTooLarge {
        /// Node slots in the graph.
        nodes: usize,
        /// The configured ceiling, in GiB.
        max_index_gb: f64,
    },
}

impl std::fmt::Display for BudgetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            BudgetError::Invalid { knob, value } => {
                write!(f, "{knob} must be a positive finite number, got {value}")
            }
            BudgetError::DenseTooLarge {
                nodes,
                max_index_gb,
            } => write!(
                f,
                "refusing to build a dense SLen matrix for {nodes} nodes: {nodes}² × 4 B plus \
                 growth headroom ≈ {:.1} GiB exceeds max_index_gb {max_index_gb}. Use the sparse \
                 backend (`--backend sparse`, bounded rows for pattern-labeled nodes only), or \
                 raise max_index_gb if you really have the RAM.",
                crate::matrix::allocated_bytes(nodes) as f64 / GIB
            ),
        }
    }
}

impl std::error::Error for BudgetError {}

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
        // 100 000 rows and columns plus 3 125 of headroom, 4 bytes a cell:
        // admitted at exactly that budget, refused a byte below it.
        let bytes = 103_125u128 * 103_125 * 4;
        assert_eq!(crate::matrix::allocated_bytes(100_000), bytes);
        let dense = BackendKind::Partitioned;
        assert!(dense.admit(100_000, bytes as f64 / GIB, None).is_ok());
        assert!(dense
            .admit(100_000, (bytes - 1) as f64 / GIB, None)
            .is_err());
        // It is what a build allocates.
        let mut graph = gpnm_graph::DataGraph::new();
        for _ in 0..1_000 {
            graph.add_node(gpnm_graph::Label::from_index(0));
        }
        let built = crate::IncrementalIndex::build(&graph).matrix().mem_bytes() as u128;
        assert_eq!(built, crate::matrix::allocated_bytes(1_000));
    }

    #[test]
    fn admission_validates_both_budgets_and_refuses_only_dense() {
        let dense = BackendKind::Partitioned;
        assert_eq!(dense.admit(1_000, 4.0, None), Ok(()));
        let err = dense.admit(100_000, 4.0, None).unwrap_err();
        assert!(matches!(
            err,
            BudgetError::DenseTooLarge { nodes: 100_000, .. }
        ));
        let text = err.to_string();
        assert!(
            text.contains("refusing to build a dense SLen matrix"),
            "{text}"
        );
        assert!(text.contains("backend sparse"), "{text}");
        for kind in [BackendKind::Sparse, BackendKind::Paged] {
            assert_eq!(kind.admit(100_000, 1.0e-9, Some(0.5)), Ok(()));
        }
        // Both budgets are checked whatever the kind.
        for kind in BackendKind::ALL {
            for gb in [f64::NAN, f64::INFINITY, 0.0, -1.0] {
                let err = kind.admit(8, gb, None).unwrap_err();
                assert!(matches!(
                    err,
                    BudgetError::Invalid {
                        knob: "max_index_gb",
                        ..
                    }
                ));
            }
            for mb in [f64::NAN, 0.0, -2.0] {
                let err = kind.admit(8, 4.0, Some(mb)).unwrap_err();
                assert!(matches!(
                    err,
                    BudgetError::Invalid {
                        knob: "cache_budget_mb",
                        ..
                    }
                ));
            }
        }
        assert_eq!(
            BackendKind::Sparse
                .admit(8, 4.0, Some(0.0))
                .unwrap_err()
                .to_string(),
            "cache_budget_mb must be a positive finite number, got 0"
        );
    }
}
