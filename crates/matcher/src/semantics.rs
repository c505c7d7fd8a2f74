//! The matching semantics argument, which selects nothing.

/// An argument of the batch matcher and the registration entry points
/// that selects nothing: every match is bounded graph simulation as Fan et
/// al. \[4\] define it, the paper's GPNM. A matcher of `u` needs a partner
/// for every *outgoing* pattern edge `(u, u')`; that reproduces the
/// paper's Table I.
///
/// The type stays in [`crate::match_graph`], `GpnmEngine::new`,
/// `PatternHost::register_pattern` and
/// `pipeline::refresh_pattern_strategy` only because the benchmark of
/// record (`gpnm-bench/`) passes it by name, until ROADMAP N deletes the
/// staged replay. No other function takes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MatchSemantics {
    /// Bounded graph simulation: the only value.
    #[default]
    Simulation,
}
