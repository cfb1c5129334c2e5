//! Teams: the objects every algorithm returns (Definition 1).

use atd_graph::{NodeId, SubTree};

use crate::objectives::TeamScore;
use crate::skills::{Project, SkillId};

/// A team of experts (Definition 1): a connected subtree of the expert
/// network plus the skill → expert assignment.
///
/// The same expert may cover several skills; members on the tree that cover
/// no required skill are **connectors** (e.g. the senior professors in the
/// paper's Figure 1 who link the skill holders).
#[derive(Clone, Debug, PartialEq)]
pub struct Team {
    /// The team's tree (root = the node Algorithm 1 grew the team from).
    pub tree: SubTree,
    /// One `(skill, expert)` pair per required skill, in project order.
    pub assignment: Vec<(SkillId, NodeId)>,
    /// Distinct skill holders, ascending.
    holders: Vec<NodeId>,
    /// Distinct connectors (members that hold no assigned skill), ascending.
    connectors: Vec<NodeId>,
}

impl Team {
    /// Assembles a team from its tree and assignment, deriving the
    /// holder/connector partition.
    ///
    /// # Panics
    /// Panics (debug) if an assigned expert is not a tree member — that
    /// would mean the materialization lost a path.
    pub fn new(tree: SubTree, assignment: Vec<(SkillId, NodeId)>) -> Team {
        let mut holders: Vec<NodeId> = assignment.iter().map(|&(_, c)| c).collect();
        holders.sort();
        holders.dedup();
        debug_assert!(
            holders.iter().all(|&h| tree.contains(h)),
            "every skill holder must be a tree member"
        );
        let connectors: Vec<NodeId> = tree
            .nodes
            .iter()
            .copied()
            .filter(|n| holders.binary_search(n).is_err())
            .collect();
        Team {
            tree,
            assignment,
            holders,
            connectors,
        }
    }

    /// Distinct skill holders, ascending.
    #[inline]
    pub fn holders(&self) -> &[NodeId] {
        &self.holders
    }

    /// Distinct connectors, ascending.
    #[inline]
    pub fn connectors(&self) -> &[NodeId] {
        &self.connectors
    }

    /// All members (holders + connectors), ascending.
    #[inline]
    pub fn members(&self) -> &[NodeId] {
        &self.tree.nodes
    }

    /// Team size = number of members (paper's Figure 5c metric).
    #[inline]
    pub fn size(&self) -> usize {
        self.tree.size()
    }

    /// True if the assignment covers every skill of `project`.
    pub fn covers(&self, project: &Project) -> bool {
        project
            .skills()
            .iter()
            .all(|s| self.assignment.iter().any(|(t, _)| t == s))
    }

    /// The expert assigned to `skill`, if any.
    pub fn holder_of(&self, skill: SkillId) -> Option<NodeId> {
        self.assignment
            .iter()
            .find(|&&(s, _)| s == skill)
            .map(|&(_, c)| c)
    }

    /// A canonical key identifying the member set — used to deduplicate
    /// teams that differ only in which root generated them.
    pub fn member_key(&self) -> Vec<NodeId> {
        self.tree.nodes.clone()
    }
}

/// A team together with its evaluated objective scores.
#[derive(Clone, Debug, PartialEq)]
pub struct ScoredTeam {
    /// The team.
    pub team: Team,
    /// Exact normalized objective components (Definitions 2–5) recomputed
    /// on the materialized tree.
    pub score: TeamScore,
    /// The value of the strategy's objective for this team (what the team
    /// was ranked by when comparing materialized candidates).
    pub objective: f64,
    /// Algorithm 1's internal cost (sum of adjusted root→holder distances)
    /// — an upper bound on the realized objective, kept for diagnostics.
    /// `ExactTeamFinder` reports its DP's total here, and the other
    /// baselines the objective they minimize.
    pub algorithm_cost: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use atd_graph::{dijkstra, GraphBuilder};

    /// 0 - 1 - 2, assignment: skill 0 -> node 0, skill 1 -> node 2.
    fn team_on_path() -> Team {
        let mut b = GraphBuilder::new();
        let n: Vec<NodeId> = (0..3).map(|_| b.add_node(1.0)).collect();
        b.add_edge(n[0], n[1], 1.0).unwrap();
        b.add_edge(n[1], n[2], 1.0).unwrap();
        let g = b.build().unwrap();
        let sp = dijkstra(&g, n[0]);
        let tree = SubTree::from_paths(&g, n[0], &[sp.path_to(n[2]).unwrap()]).unwrap();
        Team::new(tree, vec![(SkillId(0), n[0]), (SkillId(1), n[2])])
    }

    #[test]
    fn partitions_holders_and_connectors() {
        let t = team_on_path();
        assert_eq!(t.holders(), &[NodeId(0), NodeId(2)]);
        assert_eq!(t.connectors(), &[NodeId(1)]);
        assert_eq!(t.size(), 3);
    }

    #[test]
    fn covers_checks_every_skill() {
        let t = team_on_path();
        assert!(t.covers(&Project::new(vec![SkillId(0), SkillId(1)])));
        assert!(t.covers(&Project::new(vec![SkillId(0)])));
        assert!(!t.covers(&Project::new(vec![SkillId(0), SkillId(9)])));
    }

    #[test]
    fn holder_of_finds_assignment() {
        let t = team_on_path();
        assert_eq!(t.holder_of(SkillId(1)), Some(NodeId(2)));
        assert_eq!(t.holder_of(SkillId(7)), None);
    }

    #[test]
    fn one_expert_covering_two_skills_is_a_single_holder() {
        let tree = SubTree::singleton(NodeId(5));
        let t = Team::new(tree, vec![(SkillId(0), NodeId(5)), (SkillId(1), NodeId(5))]);
        assert_eq!(t.holders(), &[NodeId(5)]);
        assert!(t.connectors().is_empty());
        assert_eq!(t.size(), 1);
    }

    #[test]
    fn member_key_identifies_member_set() {
        let t = team_on_path();
        assert_eq!(t.member_key(), vec![NodeId(0), NodeId(1), NodeId(2)]);
    }
}
