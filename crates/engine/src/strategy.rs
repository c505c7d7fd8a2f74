//! Strategy selection for subsequent queries.
//!
//! Two independent axes configure a run: the [`Strategy`] (which
//! elimination analysis answers `SQuery`) and the
//! [`gpnm_distance::BackendKind`] (which `SLen` backend maintains distances
//! underneath — see [`gpnm_distance::backend`] for the trait and the
//! per-backend trade-offs). Every strategy runs on every backend and
//! produces the same match results; they differ in time and memory.
//!
//! A [`Strategy`] is a [`crate::GpnmEngine`] choice — the paper's model,
//! where every surviving update costs a repair pass. The multi-pattern
//! hosts commit the whole batch first and refresh each pattern at the
//! final state under a [`RefreshStrategy`]: one merged pass, or a
//! re-match.

/// Which algorithm answers the subsequent query. See the crate docs for
/// the capability matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Recompute everything from scratch (correctness baseline).
    Scratch,
    /// INC-GPNM \[13\]: one incremental pass per update, no elimination
    /// analysis.
    IncGpnm,
    /// EH-GPNM \[14\]: single-graph eliminations among *data* updates only;
    /// every pattern update still gets its own pass.
    EhGpnm,
    /// UA-GPNM without the §V distributed `SLen` repair (ablation in the
    /// paper's evaluation).
    UaGpnmNoPar,
    /// The paper's full method: all three elimination types, EH-Tree, and
    /// `SLen` deletion repair spread over the worker pool
    /// ([`gpnm_distance::RepairHint::Accelerated`]).
    UaGpnm,
}

impl Strategy {
    /// All strategies, in the paper's fastest-to-slowest expected order.
    pub const ALL: [Strategy; 5] = [
        Strategy::UaGpnm,
        Strategy::UaGpnmNoPar,
        Strategy::EhGpnm,
        Strategy::IncGpnm,
        Strategy::Scratch,
    ];

    /// The four strategies the paper's evaluation compares (no Scratch).
    pub const PAPER: [Strategy; 4] = [
        Strategy::UaGpnm,
        Strategy::UaGpnmNoPar,
        Strategy::EhGpnm,
        Strategy::IncGpnm,
    ];

    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Scratch => "Scratch",
            Strategy::IncGpnm => "INC-GPNM",
            Strategy::EhGpnm => "EH-GPNM",
            Strategy::UaGpnmNoPar => "UA-GPNM-NoPar",
            Strategy::UaGpnm => "UA-GPNM",
        }
    }

    /// Whether this strategy detects any elimination relationships.
    pub fn eliminates(&self) -> bool {
        matches!(
            self,
            Strategy::EhGpnm | Strategy::UaGpnmNoPar | Strategy::UaGpnm
        )
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How one standing pattern's *refresh* runs inside a multi-pattern tick.
///
/// A host tick has a shared half (graph + `SLen` commit, DER-II
/// detection — paid once per tick) and a per-pattern half, which this
/// enum names. Both variants drive the result to the same fixed point
/// (the matcher's repair converges to the full match — the bitwise
/// contract the equivalence suites pin), so switching mid-stream changes
/// cost, never answers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum RefreshStrategy {
    /// One repair pass over the union of the EH-Tree survivors' plans —
    /// the default. Its cost is bounded by a re-match of the affected
    /// pattern nodes whatever the batch size.
    #[default]
    Eliminative,
    /// Throw the standing result away and re-match from the post-batch
    /// index — the per-pattern half of [`Strategy::Scratch`], and the
    /// reference the merged pass is checked against.
    Rematch,
}

impl RefreshStrategy {
    /// All refresh strategies.
    pub const ALL: [RefreshStrategy; 2] = [RefreshStrategy::Eliminative, RefreshStrategy::Rematch];

    /// Display name: the whole-engine strategy whose elimination analysis
    /// (or lack of one) the variant shares.
    pub fn name(&self) -> &'static str {
        match self {
            RefreshStrategy::Eliminative => "UA-GPNM",
            RefreshStrategy::Rematch => "Scratch",
        }
    }
}

impl std::fmt::Display for RefreshStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_paper_figures() {
        assert_eq!(Strategy::UaGpnm.name(), "UA-GPNM");
        assert_eq!(Strategy::UaGpnmNoPar.name(), "UA-GPNM-NoPar");
        assert_eq!(Strategy::EhGpnm.name(), "EH-GPNM");
        assert_eq!(Strategy::IncGpnm.name(), "INC-GPNM");
    }

    #[test]
    fn refresh_strategies_map_to_engine_strategies() {
        assert_eq!(RefreshStrategy::default(), RefreshStrategy::Eliminative);
        assert_eq!(RefreshStrategy::Eliminative.name(), Strategy::UaGpnm.name());
        assert_eq!(RefreshStrategy::Rematch.name(), Strategy::Scratch.name());
    }

    #[test]
    fn capability_flags() {
        assert!(Strategy::EhGpnm.eliminates());
        assert!(!Strategy::IncGpnm.eliminates());
        assert_eq!(Strategy::ALL.len(), 5);
        assert_eq!(Strategy::PAPER.len(), 4);
    }
}
