//! Typed errors for every fallible service entry point.

use std::fmt;

use gpnm_distance::BudgetError;
use gpnm_engine::EngineError;
use gpnm_graph::GraphError;

use crate::PatternHandle;

/// Why a [`crate::GpnmService`] operation was refused.
///
/// Every failure surfaces *before* any state mutates: a rejected batch
/// leaves the graph, the backend and every registered pattern's result
/// exactly as they were, and the service stays usable.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// A data update in the batch is invalid against the current graph
    /// (duplicate edge, missing node, self-loop, …).
    InvalidBatch(GraphError),
    /// The batch contains a pattern update at this position. A service
    /// hosts *many* patterns, so a bare pattern update is ambiguous —
    /// re-register the changed pattern (or run a single-pattern
    /// [`gpnm_engine::GpnmEngine`]) instead.
    PatternUpdateInBatch {
        /// Index of the offending update within the batch.
        index: usize,
    },
    /// No pattern is registered under this handle (never issued, or
    /// already deregistered).
    UnknownHandle(PatternHandle),
    /// The pattern has no nodes: a standing query that can never match
    /// anything is almost certainly a caller bug.
    EmptyPattern,
    /// The builder's budgets were refused: one is not a positive finite
    /// number, or the dense backend's `n × n` matrix for this graph would
    /// exceed `max_index_gb` (see [`BudgetError`]).
    Budget(BudgetError),
    /// `read_view`/`subscribe` on a service whose read front-end is
    /// turned off ([`crate::ServiceBuilder::publishing`]`(false)`) —
    /// e.g. a cluster's shard replica, whose published state lives on
    /// the cluster so per-tick publication stays atomic across shards.
    ReadFrontDisabled,
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::InvalidBatch(e) => write!(f, "invalid update batch: {e}"),
            ServiceError::PatternUpdateInBatch { index } => write!(
                f,
                "update #{index} is a pattern update; a multi-pattern service takes \
                 data-only batches — re-register the changed pattern instead"
            ),
            ServiceError::UnknownHandle(h) => write!(f, "no pattern registered under {h}"),
            ServiceError::EmptyPattern => write!(f, "refusing to register an empty pattern"),
            ServiceError::Budget(e) => write!(f, "{e}"),
            ServiceError::ReadFrontDisabled => write!(
                f,
                "this service does not publish a read front-end (built with \
                 publishing(false)); read through its owning cluster instead"
            ),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::InvalidBatch(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for ServiceError {
    fn from(e: GraphError) -> Self {
        ServiceError::InvalidBatch(e)
    }
}

impl From<EngineError> for ServiceError {
    fn from(e: EngineError) -> Self {
        match e {
            EngineError::InvalidBatch(g) => ServiceError::InvalidBatch(g),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpnm_graph::NodeId;

    #[test]
    fn displays_are_actionable() {
        let e = ServiceError::PatternUpdateInBatch { index: 3 };
        assert!(e.to_string().contains("#3"));
        let e = ServiceError::Budget(BudgetError::DenseTooLarge {
            nodes: 100_000,
            max_index_gb: 4.0,
        });
        assert!(e.to_string().contains("backend sparse"));
        let e: ServiceError = GraphError::MissingNode(NodeId(1)).into();
        assert!(std::error::Error::source(&e).is_some());
    }
}
