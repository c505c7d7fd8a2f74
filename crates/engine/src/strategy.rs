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
    /// The paper's full method: all three elimination types and the
    /// EH-Tree. The paper also evaluates a `UA-GPNM-NoPar` ablation without
    /// §V's distributed `SLen` maintenance; no backend distributes anything
    /// any more (a dense delete re-settles only the entries it changes,
    /// ≈0.4 µs a row against 31–44 µs for one scoped thread spawn), so the
    /// ablation would run this strategy's code and has no variant of its own.
    UaGpnm,
}

impl Strategy {
    /// All strategies, in the paper's fastest-to-slowest expected order.
    pub const ALL: [Strategy; 4] = [
        Strategy::UaGpnm,
        Strategy::EhGpnm,
        Strategy::IncGpnm,
        Strategy::Scratch,
    ];

    /// The three strategies the paper's evaluation compares (no Scratch),
    /// UA-GPNM first: the reports measure the others against it.
    pub const PAPER: [Strategy; 3] = [Strategy::UaGpnm, Strategy::EhGpnm, Strategy::IncGpnm];

    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Scratch => "Scratch",
            Strategy::IncGpnm => "INC-GPNM",
            Strategy::EhGpnm => "EH-GPNM",
            Strategy::UaGpnm => "UA-GPNM",
        }
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How one standing pattern's *refresh* runs inside a multi-pattern tick.
///
/// A host tick has a shared half (graph + `SLen` commit — paid once per
/// tick) and a per-pattern half, which this enum names. Both variants drive the result to the same fixed point
/// (the matcher's repair converges to the full match — the bitwise
/// contract the equivalence suites pin), so switching mid-stream changes
/// cost, never answers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum RefreshStrategy {
    /// One repair pass over the union of every update's plan — the
    /// default. No elimination analysis runs: an eliminated update's
    /// `Aff_N` lies inside its eliminator's, so the union is what the
    /// paper's survivors cover. Its cost is bounded by a re-match of the
    /// affected pattern nodes whatever the batch size.
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
    fn one_strategy_per_behaviour() {
        assert_eq!(Strategy::ALL.len(), 4);
        assert_eq!(Strategy::PAPER.len(), 3);
        assert_eq!(Strategy::PAPER[0], Strategy::UaGpnm);
        assert!(!Strategy::PAPER.contains(&Strategy::Scratch));
    }
}
