//! The paper's objective functions (Definitions 2–6).
//!
//! All scores are computed on **normalized** quantities (see
//! [`crate::normalize`]) so that the tradeoff parameters `γ` and `λ` blend
//! comparable scales, exactly as the paper prescribes before Definition 4.

use atd_graph::NodeId;

use crate::error::DiscoveryError;
use crate::normalize::Normalization;
use crate::team::Team;

/// Validated tradeoff parameters `γ` (connector-vs-cost) and `λ`
/// (skill-holder-vs-rest).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ObjectiveWeights {
    gamma: f64,
    lambda: f64,
}

impl ObjectiveWeights {
    /// Validates `γ, λ ∈ [0, 1]`.
    pub fn new(gamma: f64, lambda: f64) -> Result<Self, DiscoveryError> {
        for (name, value) in [("gamma", gamma), ("lambda", lambda)] {
            if !(0.0..=1.0).contains(&value) || value.is_nan() {
                return Err(DiscoveryError::InvalidTradeoff { name, value });
            }
        }
        Ok(ObjectiveWeights { gamma, lambda })
    }

    /// The connector/cost tradeoff `γ`.
    #[inline]
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// The skill-holder tradeoff `λ`.
    #[inline]
    pub fn lambda(&self) -> f64 {
        self.lambda
    }
}

/// The normalized objective components of one team.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TeamScore {
    /// `CC(T)` — Definition 2 on normalized edge weights.
    pub cc: f64,
    /// `CA(T)` — Definition 3 (sum of `ā'` over connectors).
    pub ca: f64,
    /// `SA(T)` — Definition 5 (sum of `ā'` over skill-holder slots).
    pub sa: f64,
}

impl TeamScore {
    /// `CA-CC(T) = γ·CA + (1−γ)·CC` — Definition 4.
    #[inline]
    pub fn ca_cc(&self, gamma: f64) -> f64 {
        gamma * self.ca + (1.0 - gamma) * self.cc
    }

    /// `SA-CA-CC(T) = λ·SA + (1−λ)·CA-CC` — Definition 6.
    #[inline]
    pub fn sa_ca_cc(&self, gamma: f64, lambda: f64) -> f64 {
        lambda * self.sa + (1.0 - lambda) * self.ca_cc(gamma)
    }
}

/// `CC(T)`: sum of normalized tree edge weights (Definition 2).
pub fn communication_cost(norm: &Normalization, team: &Team) -> f64 {
    // `+ 0.0` canonicalizes the empty sum (Rust's f64 Sum identity is
    // -0.0) so singleton teams report CC = +0.0.
    team.tree
        .edges
        .iter()
        .map(|&(_, _, w)| norm.w_bar(w))
        .sum::<f64>()
        + 0.0
}

/// `CA(T)`: sum of `ā'` over the team's connectors (Definition 3).
pub fn connector_authority(norm: &Normalization, team: &Team) -> f64 {
    team.connectors()
        .iter()
        .map(|&c| norm.a_bar(c))
        .sum::<f64>()
        + 0.0
}

/// `SA(T)`: sum of `ā'` over skill-holder slots (Definition 5).
///
/// Definition 5 sums over the `n` skill-holder slots, one per required
/// skill, which is also what Algorithm 1's SA-CA-CC adjustment adds per
/// selection: an expert assigned two skills counts twice.
pub fn skill_holder_authority(norm: &Normalization, team: &Team) -> f64 {
    team.assignment
        .iter()
        .map(|&(_, c)| norm.a_bar(c))
        .sum::<f64>()
        + 0.0
}

/// Evaluates all three components at once.
pub fn score_team(norm: &Normalization, team: &Team) -> TeamScore {
    TeamScore {
        cc: communication_cost(norm, team),
        ca: connector_authority(norm, team),
        sa: skill_holder_authority(norm, team),
    }
}

/// Average raw authority of a node set (Figure 5a/5b metric; raw h-index,
/// not normalized).
pub fn average_authority(authorities: &[f64], nodes: &[NodeId]) -> f64 {
    if nodes.is_empty() {
        return 0.0;
    }
    nodes.iter().map(|&n| authorities[n.index()]).sum::<f64>() / nodes.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skills::SkillId;
    use atd_graph::{dijkstra, GraphBuilder, SubTree};

    /// Path 0 -1.0- 1 -3.0- 2 with authorities 4, 2, 1.
    fn fixture() -> (Normalization, Team) {
        let mut b = GraphBuilder::new();
        let n: Vec<NodeId> = [4.0, 2.0, 1.0].iter().map(|&a| b.add_node(a)).collect();
        b.add_edge(n[0], n[1], 1.0).unwrap();
        b.add_edge(n[1], n[2], 3.0).unwrap();
        let g = b.build().unwrap();
        let norm = Normalization::compute(&g);
        let sp = dijkstra(&g, n[0]);
        let tree = SubTree::from_paths(&g, n[0], &[sp.path_to(n[2]).unwrap()]).unwrap();
        let team = Team::new(tree, vec![(SkillId(0), n[0]), (SkillId(1), n[2])]);
        (norm, team)
    }

    #[test]
    fn cc_is_normalized_edge_sum() {
        let (norm, team) = fixture();
        // w_max = 3 -> w̄ = [1/3, 1]; CC = 4/3.
        assert!((communication_cost(&norm, &team) - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn ca_sums_connectors_only() {
        let (norm, team) = fixture();
        // a' = [0.25, 0.5, 1.0], max = 1.0 -> ā' as-is. Connector is node 1.
        assert!((connector_authority(&norm, &team) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sa_per_skill_vs_distinct() {
        let (norm, team) = fixture();
        // Holders: node 0 (ā'=0.25) and node 2 (ā'=1.0).
        let per_skill = skill_holder_authority(&norm, &team);
        assert!((per_skill - 1.25).abs() < 1e-12);

        // Same expert covering both skills: counted once per skill.
        let tree = SubTree::singleton(NodeId(0));
        let dup = Team::new(tree, vec![(SkillId(0), NodeId(0)), (SkillId(1), NodeId(0))]);
        let ps = skill_holder_authority(&norm, &dup);
        assert!((ps - 0.5).abs() < 1e-12);
    }

    #[test]
    fn combined_objectives_blend_linearly() {
        let s = TeamScore {
            cc: 2.0,
            ca: 1.0,
            sa: 0.5,
        };
        assert!((s.ca_cc(0.0) - 2.0).abs() < 1e-12, "γ=0 is pure CC");
        assert!((s.ca_cc(1.0) - 1.0).abs() < 1e-12, "γ=1 is pure CA");
        assert!((s.sa_ca_cc(0.6, 0.0) - s.ca_cc(0.6)).abs() < 1e-12);
        assert!((s.sa_ca_cc(0.6, 1.0) - 0.5).abs() < 1e-12, "λ=1 is pure SA");
        let mid = s.sa_ca_cc(0.6, 0.5);
        assert!((mid - (0.5 * 0.5 + 0.5 * (0.6 * 1.0 + 0.4 * 2.0))).abs() < 1e-12);
    }

    #[test]
    fn weights_validate_range() {
        assert!(ObjectiveWeights::new(0.0, 1.0).is_ok());
        assert!(ObjectiveWeights::new(-0.1, 0.5).is_err());
        assert!(ObjectiveWeights::new(0.5, 1.1).is_err());
        assert!(ObjectiveWeights::new(f64::NAN, 0.5).is_err());
        let w = ObjectiveWeights::new(0.6, 0.4).unwrap();
        assert_eq!(w.gamma(), 0.6);
        assert_eq!(w.lambda(), 0.4);
    }

    #[test]
    fn score_team_bundles_components() {
        let (norm, team) = fixture();
        let s = score_team(&norm, &team);
        assert!((s.cc - 4.0 / 3.0).abs() < 1e-12);
        assert!((s.ca - 0.5).abs() < 1e-12);
        assert!((s.sa - 1.25).abs() < 1e-12);
    }

    #[test]
    fn average_authority_of_sets() {
        let auth = [4.0, 2.0, 1.0];
        assert_eq!(average_authority(&auth, &[NodeId(0), NodeId(2)]), 2.5);
        assert_eq!(average_authority(&auth, &[]), 0.0);
    }
}
