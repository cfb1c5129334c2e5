//! The `Random` baseline from the paper's evaluation (§4):
//! "randomly builds 10,000 teams and selects the one with the lowest
//! SA-CA-CC".

use rand::seq::SliceRandom;
use rand::Rng;

use atd_distance::DijkstraOracle;
use atd_graph::{ExpertGraph, NodeId, SubTree};

use crate::error::DiscoveryError;
use crate::normalize::Normalization;
use crate::objectives::{score_team, ObjectiveWeights};
use crate::skills::{Project, SkillIndex};
use crate::strategy::Strategy;
use crate::team::{ScoredTeam, Team};

/// Builds random covering teams and keeps the best by SA-CA-CC.
///
/// A trial samples one holder per skill uniformly from `C(si)`, anchors the
/// team at the first sampled holder, and routes shortest paths from that
/// root to every other holder. Shortest-path trees per root are memoized
/// ([`DijkstraOracle`]), so trials that reuse an anchor are cheap —
/// the 10,000-trial default from the paper completes quickly even on the
/// 40K-node graph.
pub struct RandomTeamFinder<'g> {
    graph: &'g ExpertGraph,
    skills: &'g SkillIndex,
    norm: Normalization,
    oracle: DijkstraOracle<'g>,
}

impl<'g> RandomTeamFinder<'g> {
    /// The paper's trial count.
    pub const PAPER_TRIALS: usize = 10_000;

    /// Creates a finder over `graph`/`skills` with default normalization.
    pub fn new(graph: &'g ExpertGraph, skills: &'g SkillIndex) -> Self {
        RandomTeamFinder {
            graph,
            skills,
            norm: Normalization::compute(graph),
            oracle: DijkstraOracle::new(graph),
        }
    }

    /// Builds one random covering team, or `None` when the sampled holders
    /// are disconnected.
    fn random_team(&self, project: &Project, rng: &mut impl Rng) -> Option<Team> {
        let mut assignment = Vec::with_capacity(project.len());
        for &s in project.skills() {
            let holders = self.skills.holders(s);
            debug_assert!(!holders.is_empty(), "validated before trials");
            let v = *holders.choose(rng).expect("non-empty holder set");
            assignment.push((s, v));
        }
        let root = assignment[0].1;
        let holders: Vec<NodeId> = assignment.iter().map(|&(_, v)| v).collect();

        let tree = if holders.iter().all(|&h| h == root) {
            SubTree::singleton(root)
        } else {
            let sp = self.oracle.tree(root);
            let mut paths = Vec::with_capacity(holders.len());
            for &h in &holders {
                paths.push(sp.path_to(h)?);
            }
            SubTree::from_paths(self.graph, root, &paths).ok()?
        };
        Some(Team::new(tree, assignment))
    }

    /// Runs `trials` random teams and returns the best under
    /// `SA-CA-CC(γ, λ)` (the paper's selection rule).
    pub fn best_of(
        &self,
        project: &Project,
        weights: ObjectiveWeights,
        trials: usize,
        rng: &mut impl Rng,
    ) -> Result<ScoredTeam, DiscoveryError> {
        let mut all = self.best_of_each(project, &[weights], trials, rng)?;
        Ok(all.remove(0))
    }

    /// Shares one pool of `trials` random teams across several `(γ, λ)`
    /// settings, returning the per-setting best. This is how the λ-sweep
    /// experiments amortize the paper's 10,000 trials instead of
    /// resampling per λ.
    pub fn best_of_each(
        &self,
        project: &Project,
        weights: &[ObjectiveWeights],
        trials: usize,
        rng: &mut impl Rng,
    ) -> Result<Vec<ScoredTeam>, DiscoveryError> {
        if project.is_empty() {
            return Err(DiscoveryError::EmptyProject);
        }
        for &s in project.skills() {
            if self.skills.holders(s).is_empty() {
                return Err(DiscoveryError::UncoverableSkill(s));
            }
        }
        assert!(!weights.is_empty(), "need at least one weight setting");

        let strategies: Vec<Strategy> = weights
            .iter()
            .map(|w| Strategy::SaCaCc {
                gamma: w.gamma(),
                lambda: w.lambda(),
            })
            .collect();
        let mut best: Vec<Option<ScoredTeam>> = vec![None; weights.len()];
        for _ in 0..trials {
            let Some(team) = self.random_team(project, rng) else {
                continue;
            };
            let score = score_team(&self.norm, &team);
            for (slot, strategy) in best.iter_mut().zip(&strategies) {
                let objective = strategy.objective(&score);
                if slot.as_ref().is_none_or(|b| objective < b.objective) {
                    *slot = Some(ScoredTeam {
                        team: team.clone(),
                        score,
                        objective,
                        algorithm_cost: objective,
                    });
                }
            }
        }
        best.into_iter()
            .map(|b| b.ok_or(DiscoveryError::NoTeamFound))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skills::SkillIndexBuilder;
    use atd_graph::GraphBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fixture() -> (ExpertGraph, SkillIndex) {
        let mut b = GraphBuilder::new();
        let n: Vec<NodeId> = (0..6).map(|i| b.add_node(1.0 + i as f64)).collect();
        for i in 0..5 {
            b.add_edge(n[i], n[i + 1], 0.5).unwrap();
        }
        b.add_edge(n[0], n[3], 1.5).unwrap();
        let g = b.build().unwrap();
        let mut sb = SkillIndexBuilder::new();
        let s0 = sb.intern("a");
        let s1 = sb.intern("b");
        sb.grant(n[0], s0);
        sb.grant(n[2], s0);
        sb.grant(n[4], s1);
        sb.grant(n[5], s1);
        (g, sb.build(6))
    }

    #[test]
    fn finds_a_covering_team() {
        let (g, idx) = fixture();
        let f = RandomTeamFinder::new(&g, &idx);
        let project = Project::new(vec![idx.id_of("a").unwrap(), idx.id_of("b").unwrap()]);
        let mut rng = StdRng::seed_from_u64(7);
        let best = f
            .best_of(
                &project,
                ObjectiveWeights::new(0.6, 0.6).unwrap(),
                100,
                &mut rng,
            )
            .unwrap();
        assert!(best.team.covers(&project));
        best.team.tree.validate().unwrap();
    }

    #[test]
    fn more_trials_never_hurt() {
        let (g, idx) = fixture();
        let f = RandomTeamFinder::new(&g, &idx);
        let project = Project::new(vec![idx.id_of("a").unwrap(), idx.id_of("b").unwrap()]);
        let w = ObjectiveWeights::new(0.6, 0.6).unwrap();
        let few = f
            .best_of(&project, w, 5, &mut StdRng::seed_from_u64(1))
            .unwrap();
        let many = f
            .best_of(&project, w, 500, &mut StdRng::seed_from_u64(1))
            .unwrap();
        assert!(many.objective <= few.objective + 1e-12);
    }

    #[test]
    fn deterministic_under_seed() {
        let (g, idx) = fixture();
        let f = RandomTeamFinder::new(&g, &idx);
        let project = Project::new(vec![idx.id_of("a").unwrap(), idx.id_of("b").unwrap()]);
        let w = ObjectiveWeights::new(0.5, 0.5).unwrap();
        let a = f
            .best_of(&project, w, 50, &mut StdRng::seed_from_u64(42))
            .unwrap();
        let b = f
            .best_of(&project, w, 50, &mut StdRng::seed_from_u64(42))
            .unwrap();
        assert_eq!(a.team.member_key(), b.team.member_key());
        assert_eq!(a.objective, b.objective);
    }

    #[test]
    fn rejects_empty_and_uncoverable() {
        let (g, idx) = fixture();
        let f = RandomTeamFinder::new(&g, &idx);
        let w = ObjectiveWeights::new(0.5, 0.5).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(
            f.best_of(&Project::new(vec![]), w, 10, &mut rng),
            Err(DiscoveryError::EmptyProject)
        );
    }

    #[test]
    fn disconnected_holders_give_no_team() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(1.0);
        let c = b.add_node(1.0);
        let g = b.build().unwrap();
        let mut sb = SkillIndexBuilder::new();
        let s0 = sb.intern("x");
        let s1 = sb.intern("y");
        sb.grant(a, s0);
        sb.grant(c, s1);
        let idx = sb.build(2);
        let f = RandomTeamFinder::new(&g, &idx);
        let project = Project::new(vec![s0, s1]);
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(
            f.best_of(
                &project,
                ObjectiveWeights::new(0.5, 0.5).unwrap(),
                20,
                &mut rng
            ),
            Err(DiscoveryError::NoTeamFound)
        );
    }
}
