//! Problem 4 — pure skill-holder authority — which the paper observes is
//! solvable in polynomial time: "for each skill in P, we find an expert
//! with the highest a (lowest a'), and then produce a connected subgraph
//! containing the selected experts".

use atd_distance::DijkstraOracle;
use atd_graph::{ExpertGraph, NodeId, SubTree};

use crate::error::DiscoveryError;
use crate::normalize::Normalization;
use crate::objectives::score_team;
use crate::skills::{Project, SkillIndex};
use crate::team::{ScoredTeam, Team};

/// Solves Problem 4 exactly: the per-skill authority optimum, connected via
/// shortest paths from the most authoritative selected holder.
///
/// Note the caveat the paper itself raises — this ignores communication
/// cost and connector authority entirely, which is why Problem 5 exists.
pub fn best_sa_team(
    graph: &ExpertGraph,
    skills: &SkillIndex,
    project: &Project,
) -> Result<ScoredTeam, DiscoveryError> {
    if project.is_empty() {
        return Err(DiscoveryError::EmptyProject);
    }
    let norm = Normalization::compute(graph);

    // Per-skill argmin of ā' (ties to smaller node id — deterministic).
    let mut assignment = Vec::with_capacity(project.len());
    for &s in project.skills() {
        let holders = skills.holders(s);
        if holders.is_empty() {
            return Err(DiscoveryError::UncoverableSkill(s));
        }
        let best = holders
            .iter()
            .copied()
            .min_by(|&a, &b| norm.a_bar(a).total_cmp(&norm.a_bar(b)).then(a.cmp(&b)))
            .expect("non-empty");
        assignment.push((s, best));
    }

    // Anchor at the most authoritative holder and connect the rest.
    let root = assignment
        .iter()
        .map(|&(_, v)| v)
        .min_by(|&a, &b| norm.a_bar(a).total_cmp(&norm.a_bar(b)).then(a.cmp(&b)))
        .expect("non-empty project");
    let holders: Vec<NodeId> = assignment.iter().map(|&(_, v)| v).collect();

    let tree = if holders.iter().all(|&h| h == root) {
        SubTree::singleton(root)
    } else {
        let oracle = DijkstraOracle::with_cache_bound(graph, 1);
        let sp = oracle.tree(root);
        let mut paths = Vec::with_capacity(holders.len());
        for &h in &holders {
            paths.push(sp.path_to(h).ok_or(DiscoveryError::NoTeamFound)?);
        }
        SubTree::from_paths(graph, root, &paths).map_err(|_| DiscoveryError::NoTeamFound)?
    };

    let team = Team::new(tree, assignment);
    let score = score_team(&norm, &team);
    Ok(ScoredTeam {
        objective: score.sa,
        algorithm_cost: score.sa,
        team,
        score,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skills::SkillIndexBuilder;
    use atd_graph::GraphBuilder;

    fn fixture() -> (ExpertGraph, SkillIndex) {
        // Node authorities: 0:1, 1:50, 2:2, 3:40.
        let mut b = GraphBuilder::new();
        let n: Vec<NodeId> = [1.0, 50.0, 2.0, 40.0]
            .iter()
            .map(|&a| b.add_node(a))
            .collect();
        b.add_edge(n[0], n[1], 1.0).unwrap();
        b.add_edge(n[1], n[2], 1.0).unwrap();
        b.add_edge(n[2], n[3], 1.0).unwrap();
        let g = b.build().unwrap();
        let mut sb = SkillIndexBuilder::new();
        let s0 = sb.intern("a");
        let s1 = sb.intern("b");
        sb.grant(n[0], s0);
        sb.grant(n[1], s0); // authority 50 — must win skill a
        sb.grant(n[2], s1);
        sb.grant(n[3], s1); // authority 40 — must win skill b
        (g, sb.build(4))
    }

    #[test]
    fn picks_highest_authority_holder_per_skill() {
        let (g, idx) = fixture();
        let p = Project::new(vec![idx.id_of("a").unwrap(), idx.id_of("b").unwrap()]);
        let best = best_sa_team(&g, &idx, &p).unwrap();
        assert_eq!(
            best.team.holder_of(idx.id_of("a").unwrap()),
            Some(NodeId(1))
        );
        assert_eq!(
            best.team.holder_of(idx.id_of("b").unwrap()),
            Some(NodeId(3))
        );
        assert!(best.team.covers(&p));
        best.team.tree.validate().unwrap();
    }

    #[test]
    fn sa_is_minimal_among_assignments() {
        let (g, idx) = fixture();
        let p = Project::new(vec![idx.id_of("a").unwrap(), idx.id_of("b").unwrap()]);
        let norm = Normalization::compute(&g);
        let best = best_sa_team(&g, &idx, &p).unwrap();
        // Exhaustive check over the 2x2 assignments.
        for &ha in idx.holders(idx.id_of("a").unwrap()) {
            for &hb in idx.holders(idx.id_of("b").unwrap()) {
                let sa = norm.a_bar(ha) + norm.a_bar(hb);
                assert!(best.score.sa <= sa + 1e-12);
            }
        }
    }

    #[test]
    fn empty_project_rejected() {
        let (g, idx) = fixture();
        assert_eq!(
            best_sa_team(&g, &idx, &Project::new(vec![])),
            Err(DiscoveryError::EmptyProject)
        );
    }

    #[test]
    fn disconnected_best_holders_fail() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(10.0);
        let c = b.add_node(10.0);
        let g = b.build().unwrap();
        let mut sb = SkillIndexBuilder::new();
        let s0 = sb.intern("x");
        let s1 = sb.intern("y");
        sb.grant(a, s0);
        sb.grant(c, s1);
        let idx = sb.build(2);
        let p = Project::new(vec![s0, s1]);
        assert_eq!(best_sa_team(&g, &idx, &p), Err(DiscoveryError::NoTeamFound));
    }
}
