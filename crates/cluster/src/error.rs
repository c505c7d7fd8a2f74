//! Typed errors for every fallible cluster entry point.

use std::fmt;

use gpnm_service::ServiceError;

use crate::ClusterHandle;

/// Why a [`crate::GpnmCluster`] operation was refused.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterError {
    /// A shard-level refusal (invalid batch, pattern update in a batch,
    /// empty pattern, index budget, …) surfaced through the cluster.
    Service(ServiceError),
    /// No pattern is registered under this handle (never issued, or
    /// already deregistered).
    UnknownHandle(ClusterHandle),
    /// A builder knob was given a nonsensical value (e.g. zero shards).
    InvalidConfig(String),
    /// A shard failed *during* the fan-out of a pre-validated batch. This
    /// indicates a bug (replicas are validated identically before the
    /// fan-out); the failing shard may have partially applied the batch,
    /// so the cluster should be considered poisoned.
    ShardFailed {
        /// The shard whose apply failed.
        shard: usize,
        /// The underlying service error.
        error: ServiceError,
    },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::Service(e) => write!(f, "{e}"),
            ClusterError::UnknownHandle(h) => write!(f, "no pattern registered under {h}"),
            ClusterError::InvalidConfig(msg) => {
                write!(f, "invalid cluster configuration: {msg}")
            }
            ClusterError::ShardFailed { shard, error } => write!(
                f,
                "shard {shard} failed mid-tick after validation passed ({error}); \
                 shard replicas may have diverged"
            ),
        }
    }
}

impl std::error::Error for ClusterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClusterError::Service(e) | ClusterError::ShardFailed { error: e, .. } => Some(e),
            _ => None,
        }
    }
}

impl From<ServiceError> for ClusterError {
    fn from(e: ServiceError) -> Self {
        ClusterError::Service(e)
    }
}

impl From<gpnm_graph::GraphError> for ClusterError {
    fn from(e: gpnm_graph::GraphError) -> Self {
        ClusterError::Service(ServiceError::InvalidBatch(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_actionable() {
        let e = ClusterError::ShardFailed {
            shard: 2,
            error: ServiceError::EmptyPattern,
        };
        assert!(e.to_string().contains("shard 2"));
        assert!(std::error::Error::source(&e).is_some());
        let e: ClusterError = ServiceError::EmptyPattern.into();
        assert_eq!(e, ClusterError::Service(ServiceError::EmptyPattern));
    }
}
