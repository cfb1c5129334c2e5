//! Team-member replacement — the extension the paper's introduction cites
//! as prior work worth unifying with authority ("recommending replacements
//! when a team member becomes unavailable", Li et al., WWW 2015, the
//! paper's reference \[4\]), here solved under the paper's own objectives.
//!
//! Given a discovered team and a member who leaves, the finder runs
//! Algorithm 1's inner loop *restricted to the surviving team members as
//! candidate roots*, on the network with the leaver's edges removed: for
//! each surviving root, each required skill is re-assigned to its nearest
//! remaining holder under the strategy's adjusted DIST, the tree is
//! re-materialized, and candidates are ranked by the strategy's objective.
//! This uniformly handles both cases:
//!
//! * a departing **connector** usually leads to a pure re-route (the
//!   assignment still wins for every skill), and
//! * a departing **skill holder** is replaced by whoever now minimizes the
//!   objective — possibly several experts splitting the lost skills.
//!
//! The leaver is modeled by [`atd_graph::ExpertGraph::isolate_node`], so
//! replacement paths can never route through them.

use atd_graph::{ExpertGraph, NodeId, SubTree};

use crate::error::DiscoveryError;
use crate::normalize::Normalization;
use crate::objectives::score_team;
use crate::skills::SkillIndex;
use crate::strategy::Strategy;
use crate::team::{ScoredTeam, Team};
use crate::transform::authority_transform;

/// Finds replacements for departing team members.
pub struct ReplacementFinder<'g> {
    graph: &'g ExpertGraph,
    skills: &'g SkillIndex,
    norm: Normalization,
}

impl<'g> ReplacementFinder<'g> {
    /// Creates a finder over the network.
    pub fn new(graph: &'g ExpertGraph, skills: &'g SkillIndex) -> Self {
        ReplacementFinder {
            graph,
            skills,
            norm: Normalization::compute(graph),
        }
    }

    /// Recommends up to `k` repaired teams after `leaving` departs,
    /// ranked by `strategy`'s objective (best first).
    ///
    /// Errors: [`DiscoveryError::NotATeamMember`] if `leaving` is not on
    /// the team; [`DiscoveryError::NoTeamFound`] when no candidate can
    /// take over the lost skills or the remaining holders cannot be
    /// reconnected.
    pub fn recommend(
        &self,
        team: &Team,
        leaving: NodeId,
        strategy: Strategy,
        k: usize,
    ) -> Result<Vec<ScoredTeam>, DiscoveryError> {
        strategy.validate()?;
        if !team.members().contains(&leaving) {
            return Err(DiscoveryError::NotATeamMember(leaving));
        }
        if k == 0 {
            return Ok(Vec::new());
        }

        // Any skill that only the leaver can cover is irreplaceable.
        for &(s, _) in &team.assignment {
            let replaceable = self.skills.holders(s).iter().any(|&h| h != leaving);
            if !replaceable {
                return Err(DiscoveryError::NoTeamFound);
            }
        }

        // The network without the leaver, with the strategy's ranking
        // weights.
        let reduced = self.graph.isolate_node(leaving);
        let ranking = match strategy.gamma() {
            None => reduced.map_weights(|_, _, w| self.norm.w_bar(w)),
            Some(gamma) => authority_transform(&reduced, &self.norm, gamma),
        };

        // Candidate roots: the surviving team members (the team should
        // change minimally), plus — when the leaver was the root — the
        // remaining holders of the lost skills.
        let mut roots: Vec<NodeId> = team
            .members()
            .iter()
            .copied()
            .filter(|&m| m != leaving)
            .collect();
        for &(s, c) in &team.assignment {
            if c == leaving {
                roots.extend(
                    self.skills
                        .holders(s)
                        .iter()
                        .copied()
                        .filter(|&h| h != leaving),
                );
            }
        }
        roots.sort();
        roots.dedup();

        let mut repaired: Vec<ScoredTeam> = Vec::new();
        let mut seen: std::collections::HashSet<Vec<NodeId>> = std::collections::HashSet::new();
        for root in roots {
            let sp_full = atd_graph::dijkstra(&ranking, root);

            // Algorithm 1's inner loop on the reduced graph.
            let mut assignment = Vec::with_capacity(team.assignment.len());
            let mut feasible = true;
            for &(s, _) in &team.assignment {
                if self.skills.has_skill(root, s) {
                    assignment.push((s, root));
                    continue;
                }
                let mut best: Option<(f64, NodeId)> = None;
                for &v in self.skills.holders(s) {
                    if v == leaving {
                        continue;
                    }
                    let Some(d) = sp_full.distance(v) else {
                        continue;
                    };
                    let adj = match strategy {
                        Strategy::Cc => d,
                        Strategy::CaCc { gamma } => d - gamma * self.norm.a_bar(v),
                        Strategy::SaCaCc { gamma, lambda } => {
                            (1.0 - lambda) * (d - gamma * self.norm.a_bar(v))
                                + lambda * self.norm.a_bar(v)
                        }
                    };
                    let better = match best {
                        None => true,
                        Some((bc, bv)) => adj < bc || (adj == bc && v < bv),
                    };
                    if better {
                        best = Some((adj, v));
                    }
                }
                match best {
                    Some((_, v)) => assignment.push((s, v)),
                    None => {
                        feasible = false;
                        break;
                    }
                }
            }
            if !feasible {
                continue;
            }

            let holders: Vec<NodeId> = assignment.iter().map(|&(_, c)| c).collect();
            let tree = if holders.iter().all(|&h| h == root) {
                SubTree::singleton(root)
            } else {
                let paths: Option<Vec<_>> = holders.iter().map(|&h| sp_full.path_to(h)).collect();
                let Some(paths) = paths else { continue };
                let Ok(tree) = SubTree::from_paths(self.graph, root, &paths) else {
                    continue;
                };
                tree
            };
            debug_assert!(!tree.contains(leaving), "reduced graph excludes the leaver");

            let candidate = Team::new(tree, assignment);
            if !seen.insert(candidate.member_key()) {
                continue;
            }
            let score = score_team(&self.norm, &candidate);
            let objective = strategy.objective(&score);
            repaired.push(ScoredTeam {
                team: candidate,
                score,
                objective,
                algorithm_cost: objective,
            });
        }

        if repaired.is_empty() {
            return Err(DiscoveryError::NoTeamFound);
        }
        repaired.sort_by(|a, b| a.objective.total_cmp(&b.objective));
        repaired.truncate(k);
        Ok(repaired)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::Discovery;
    use crate::skills::{Project, SkillIndexBuilder};
    use atd_graph::GraphBuilder;

    /// Two holders of skill "a" (nodes 0, 4), one holder of "b" (node 2),
    /// connected through connector 1 (and alternative connector 3).
    ///
    /// ```text
    ///   0 ── 1 ── 2 ── 3 ── 4
    ///        └────────┘ (1-3 shortcut)
    /// ```
    fn fixture() -> (ExpertGraph, SkillIndex) {
        let mut b = GraphBuilder::new();
        let n: Vec<NodeId> = [4.0, 20.0, 6.0, 9.0, 12.0]
            .iter()
            .map(|&a| b.add_node(a))
            .collect();
        for i in 0..4 {
            b.add_edge(n[i], n[i + 1], 0.5).unwrap();
        }
        b.add_edge(n[1], n[3], 0.7).unwrap();
        let g = b.build().unwrap();
        let mut sb = SkillIndexBuilder::new();
        let sa = sb.intern("a");
        let sc = sb.intern("b");
        sb.grant(n[0], sa);
        sb.grant(n[4], sa);
        sb.grant(n[2], sc);
        (g, sb.build(5))
    }

    fn discovered_team(g: &ExpertGraph, idx: &SkillIndex) -> Team {
        let engine = Discovery::new(g.clone(), idx.clone()).unwrap();
        let project = Project::new(vec![idx.id_of("a").unwrap(), idx.id_of("b").unwrap()]);
        engine.best(&project, Strategy::Cc).unwrap().team
    }

    #[test]
    fn holder_replacement_swaps_in_another_holder() {
        let (g, idx) = fixture();
        let team = discovered_team(&g, &idx);
        let sa = idx.id_of("a").unwrap();
        let old = team.holder_of(sa).unwrap();
        let finder = ReplacementFinder::new(&g, &idx);
        let fixed = finder
            .recommend(
                &team,
                old,
                Strategy::SaCaCc {
                    gamma: 0.6,
                    lambda: 0.6,
                },
                3,
            )
            .unwrap();
        assert!(!fixed.is_empty());
        for st in &fixed {
            assert!(!st.team.members().contains(&old), "leaver must be gone");
            assert!(st.team.holder_of(sa).is_some(), "skill a still covered");
            st.team.tree.validate().unwrap();
        }
        // Results are ranked.
        for w in fixed.windows(2) {
            assert!(w[0].objective <= w[1].objective + 1e-12);
        }
    }

    #[test]
    fn connector_departure_repairs_the_team() {
        let (g, idx) = fixture();
        let team = discovered_team(&g, &idx);
        let Some(&connector) = team.connectors().first() else {
            panic!("fixture team should have a connector, got {team:?}");
        };
        let finder = ReplacementFinder::new(&g, &idx);
        let fixed = finder.recommend(&team, connector, Strategy::Cc, 2).unwrap();
        assert!(!fixed.is_empty());
        let project = Project::new(team.assignment.iter().map(|&(s, _)| s).collect());
        for st in &fixed {
            assert!(
                !st.team.members().contains(&connector),
                "leaver must be gone"
            );
            assert!(st.team.covers(&project), "coverage restored");
            st.team.tree.validate().unwrap();
        }
    }

    #[test]
    fn non_member_is_rejected() {
        let (g, idx) = fixture();
        let team = discovered_team(&g, &idx);
        let outsider = (0..5u32)
            .map(NodeId)
            .find(|n| !team.members().contains(n))
            .expect("someone is off the team");
        let finder = ReplacementFinder::new(&g, &idx);
        assert_eq!(
            finder.recommend(&team, outsider, Strategy::Cc, 1),
            Err(DiscoveryError::NotATeamMember(outsider))
        );
    }

    #[test]
    fn irreplaceable_holder_fails() {
        let (g, idx) = fixture();
        let team = discovered_team(&g, &idx);
        let sb = idx.id_of("b").unwrap();
        let only_holder = team.holder_of(sb).unwrap();
        let finder = ReplacementFinder::new(&g, &idx);
        assert_eq!(
            finder.recommend(&team, only_holder, Strategy::Cc, 1),
            Err(DiscoveryError::NoTeamFound),
            "nobody else holds skill b"
        );
    }

    #[test]
    fn k_zero_returns_empty() {
        let (g, idx) = fixture();
        let team = discovered_team(&g, &idx);
        let finder = ReplacementFinder::new(&g, &idx);
        let member = team.members()[0];
        assert!(finder
            .recommend(&team, member, Strategy::Cc, 0)
            .unwrap()
            .is_empty());
    }
}
