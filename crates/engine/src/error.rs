//! Typed errors for engine entry points.

use std::fmt;

use gpnm_graph::GraphError;

/// Why an engine operation was refused.
///
/// Batch failures surface *before* any mutation: a rejected
/// [`crate::GpnmEngine::subsequent_query`] leaves graphs, `SLen` and the
/// result exactly as they were (asserted by the failure-injection suite).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The update batch failed validation or application against the
    /// current graphs.
    InvalidBatch(GraphError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::InvalidBatch(e) => write!(f, "invalid update batch: {e}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::InvalidBatch(e) => Some(e),
        }
    }
}

impl From<GraphError> for EngineError {
    fn from(e: GraphError) -> Self {
        EngineError::InvalidBatch(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpnm_graph::NodeId;

    #[test]
    fn display_and_source_carry_the_graph_error() {
        let e: EngineError = GraphError::MissingNode(NodeId(3)).into();
        assert!(e.to_string().contains("invalid update batch"));
        assert!(e.to_string().contains("does not exist"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
