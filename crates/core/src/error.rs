//! Error types for team discovery.

use crate::skills::SkillId;

/// Errors raised by the team-formation algorithms.
#[derive(Debug, Clone, PartialEq)]
pub enum DiscoveryError {
    /// The project requires no skills.
    EmptyProject,
    /// A required skill has no holder anywhere in the network.
    UncoverableSkill(SkillId),
    /// No connected team covering the project exists (holders are spread
    /// across components with no common root).
    NoTeamFound,
    /// A tradeoff parameter was outside `[0, 1]` or NaN.
    InvalidTradeoff {
        /// `"gamma"` or `"lambda"`.
        name: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A replacement was requested for an expert who is not on the team.
    NotATeamMember(atd_graph::NodeId),
    /// Saving the PLL index (`Discovery::save_pll_index`) failed.
    /// Carries the formatted persistence error.
    IndexPersist(String),
    /// Loading the PLL index from `DiscoveryOptions::pll_index_path`
    /// failed: the file is missing, stale, corrupt or of a foreign
    /// format. Carries the formatted persistence error; the engine never
    /// falls back to a build.
    IndexLoad(String),
    /// The search was cancelled before completing — its `CancelToken`
    /// was cancelled explicitly or its deadline passed. The fail-fast
    /// entry points (`Discovery::top_k_with`) return no partial result;
    /// callers that want the best-so-far answer instead opt into
    /// `Discovery::top_k_anytime`, which never returns this error.
    Cancelled,
    /// The exact solver refused an instance whose DP would exceed its
    /// state cap.
    InstanceTooLarge {
        /// What was counted, e.g. `"2^skills * nodes"`.
        what: &'static str,
        /// The computed size (`u128::MAX` where the count overflows).
        size: u128,
        /// The cap it exceeds.
        limit: u128,
    },
}

impl std::fmt::Display for DiscoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiscoveryError::EmptyProject => write!(f, "project requires no skills"),
            DiscoveryError::UncoverableSkill(s) => {
                write!(f, "skill {s} has no holder in the network")
            }
            DiscoveryError::NoTeamFound => {
                write!(f, "no connected team covers the project")
            }
            DiscoveryError::NotATeamMember(n) => {
                write!(f, "expert {n} is not a member of the team")
            }
            DiscoveryError::InvalidTradeoff { name, value } => {
                write!(f, "tradeoff parameter {name}={value} must be in [0, 1]")
            }
            DiscoveryError::IndexPersist(msg) => {
                write!(f, "failed to persist PLL index: {msg}")
            }
            DiscoveryError::IndexLoad(msg) => {
                write!(f, "failed to load PLL index (load-only mode): {msg}")
            }
            DiscoveryError::Cancelled => {
                write!(f, "search cancelled before completion")
            }
            DiscoveryError::InstanceTooLarge { what, size, limit } => {
                write!(f, "exact search too large: {what} = {size} > limit {limit}")
            }
        }
    }
}

impl std::error::Error for DiscoveryError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(DiscoveryError::EmptyProject
            .to_string()
            .contains("no skills"));
        assert!(DiscoveryError::UncoverableSkill(SkillId(4))
            .to_string()
            .contains('4'));
        assert!(DiscoveryError::InvalidTradeoff {
            name: "gamma",
            value: 1.5
        }
        .to_string()
        .contains("gamma"));
        assert!(DiscoveryError::InstanceTooLarge {
            what: "states",
            size: 10,
            limit: 5
        }
        .to_string()
        .contains("limit"));
        assert!(DiscoveryError::Cancelled.to_string().contains("cancelled"));
        assert!(DiscoveryError::IndexLoad("nope".into())
            .to_string()
            .contains("load-only"));
    }
}
