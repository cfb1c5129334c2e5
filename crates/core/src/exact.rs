//! The `Exact` baseline from the paper's evaluation (§4): the
//! SA-CA-CC-optimal team, computed by one group Steiner tree DP.
//!
//! ## The problem
//!
//! `SA-CA-CC(T) = λ·SA + (1−λ)γ·CA + (1−λ)(1−γ)·CC` makes the optimal team
//! a node-weighted group Steiner tree in which each required skill's
//! holders form one group. A tree pays
//!
//! * `λ·ā′(h)` per required skill, where `h` is the member assigned that
//!   skill: SA is counted once per skill, so a member assigned two skills
//!   pays twice;
//! * `(1−λ)(1−γ)·w̄` per edge;
//! * `(1−λ)γ·ā′(v)` per connector `v`, a member assigned no skill.
//!
//! ## The DP
//!
//! It has the structure of DPBF (Ding et al., ICDE 2007) plus one flag for
//! the node weights. The state `(S, v, f)` is the cheapest tree that
//! contains `v` and assigns every skill of `S`, a subset of the project, to
//! a member. The flag `f` says whether `v` itself holds an assigned skill.
//! A state's cost leaves out the root's connector cost. That cost is paid
//! when `v` stops being the root, and only if `f` is false.
//!
//! * *Base:* `({s}, h, true)` costs `λ·ā′(h)` for each holder `h` of `s`.
//! * *Merge:* two trees over disjoint skill sets join at a shared root, and
//!   their flags are or-ed.
//! * *Grow:* a multi-source Dijkstra per subset moves the root across an
//!   edge, paying the edge and the old root's connector cost. The new root
//!   holds no assigned skill.
//!
//! Subsets are taken in increasing order, so both halves of a merge are
//! final. For `t` skills on `n` nodes and `m` edges this takes
//! `O(3ᵗ·n + 2ᵗ·(m + n log n))` time. The answer is the cheapest state
//! over the whole project, plus the root's connector cost where it is
//! unassigned. The tree is rebuilt from back-pointers. Two branches can
//! overlap on parts that cost nothing (an edge or a connector whose factor
//! is 0), so the union of the branches is reduced to a minimum spanning
//! tree, which costs no more.
//!
//! ## The state cap
//!
//! The DP holds two states for each (skill subset, node) pair, `2ᵗ·n` pairs
//! in all, at 32 bytes a pair. A private cap of 2²⁵ pairs (1 GiB) admits a
//! 10-skill project on the paper's 29,634-node graph. A larger instance is
//! refused with [`DiscoveryError::InstanceTooLarge`] before anything is
//! allocated, and the count is computed without overflow for any number of
//! skills.

use std::collections::BinaryHeap;

use atd_graph::{ExpertGraph, MinHeapEntry, NodeId, SubTree, TotalF64};

use crate::error::DiscoveryError;
use crate::normalize::Normalization;
use crate::objectives::{score_team, ObjectiveWeights};
use crate::skills::{Project, SkillIndex};
use crate::team::{ScoredTeam, Team};

/// Cap on the DP's (skill subset, node) pairs.
const MAX_STATES: u128 = 1 << 25;

/// How a DP state got its cost, for rebuilding the tree.
#[derive(Clone, Copy)]
enum Step {
    /// One skill at one of its holders (also the value of unreached states).
    Base,
    /// Two trees joined at the root: the subset `sub` with flag `flags & 1`
    /// and the rest of the state's subset with flag `flags >> 1`.
    Merge { sub: u32, flags: u8 },
    /// The root moved here across the edge from this neighbour.
    Grow(NodeId),
}

/// The SA-CA-CC optimizer (the paper's `Exact`).
pub struct ExactTeamFinder<'g> {
    graph: &'g ExpertGraph,
    skills: &'g SkillIndex,
    norm: Normalization,
    weights: ObjectiveWeights,
}

impl<'g> ExactTeamFinder<'g> {
    /// Creates an exact finder over `graph` / `skills` for the tradeoffs
    /// `weights`.
    pub fn new(graph: &'g ExpertGraph, skills: &'g SkillIndex, weights: ObjectiveWeights) -> Self {
        ExactTeamFinder {
            graph,
            skills,
            norm: Normalization::compute(graph),
            weights,
        }
    }

    /// Finds the SA-CA-CC-optimal team for `project`.
    pub fn best(&self, project: &Project) -> Result<ScoredTeam, DiscoveryError> {
        let skills = project.skills();
        if skills.is_empty() {
            return Err(DiscoveryError::EmptyProject);
        }
        if let Some(&s) = skills.iter().find(|&&s| self.skills.holders(s).is_empty()) {
            return Err(DiscoveryError::UncoverableSkill(s));
        }
        let n = self.graph.num_nodes();
        let pairs = u32::try_from(skills.len())
            .ok()
            .and_then(|t| 2u128.checked_pow(t))
            .and_then(|subsets| subsets.checked_mul(n as u128))
            .unwrap_or(u128::MAX);
        if pairs > MAX_STATES {
            return Err(DiscoveryError::InstanceTooLarge {
                what: "2^skills * nodes",
                size: pairs,
                limit: MAX_STATES,
            });
        }

        let (gamma, lambda) = (self.weights.gamma(), self.weights.lambda());
        let edge_factor = (1.0 - lambda) * (1.0 - gamma);
        let connector_factor = (1.0 - lambda) * gamma;
        // A state pair's cost once `v` stops being the root, and the flag
        // that gives it (the assigned one on ties).
        let leave = |pair: [f64; 2], v: usize| {
            let open = pair[0] + connector_factor * self.norm.a_bar(NodeId::from_index(v));
            if pair[1] <= open {
                (pair[1], 1)
            } else {
                (open, 0)
            }
        };

        let full = (1usize << skills.len()) - 1;
        let mut cost = vec![[f64::INFINITY; 2]; (full + 1) * n];
        let mut back = vec![[Step::Base; 2]; (full + 1) * n];
        for (i, &s) in skills.iter().enumerate() {
            for &h in self.skills.holders(s) {
                cost[(1 << i) * n + h.index()][1] = lambda * self.norm.a_bar(h);
            }
        }
        let mut heap = BinaryHeap::new();
        for set in 1..=full {
            let base = set * n;
            let mut sub = (set - 1) & set;
            while sub > 0 {
                let rest = set ^ sub;
                if sub > rest {
                    for v in 0..n {
                        let (a, b) = (cost[sub * n + v], cost[rest * n + v]);
                        for flags in 0..4u8 {
                            let c = a[usize::from(flags & 1)] + b[usize::from(flags >> 1)];
                            let f = usize::from(flags != 0);
                            if c < cost[base + v][f] {
                                cost[base + v][f] = c;
                                back[base + v][f] = Step::Merge {
                                    sub: sub as u32,
                                    flags,
                                };
                            }
                        }
                    }
                }
                sub = (sub - 1) & set;
            }
            // Growing the whole project's trees cannot make them cheaper.
            if set == full {
                break;
            }
            for v in 0..n {
                let (c, _) = leave(cost[base + v], v);
                if c.is_finite() {
                    heap.push(MinHeapEntry {
                        dist: TotalF64::expect(c),
                        node: NodeId::from_index(v),
                    });
                }
            }
            while let Some(MinHeapEntry { dist, node }) = heap.pop() {
                let d = dist.get();
                if d > leave(cost[base + node.index()], node.index()).0 {
                    continue; // stale
                }
                for (u, w) in self.graph.neighbors(node) {
                    let c = d + edge_factor * self.norm.w_bar(w);
                    let slot = base + u.index();
                    if c < cost[slot][0] {
                        let before = leave(cost[slot], u.index()).0;
                        cost[slot][0] = c;
                        back[slot][0] = Step::Grow(node);
                        let after = leave(cost[slot], u.index()).0;
                        if after < before {
                            heap.push(MinHeapEntry {
                                dist: TotalF64::expect(after),
                                node: u,
                            });
                        }
                    }
                }
            }
        }

        let base = full * n;
        let Some((dp_cost, root, flag)) = (0..n)
            .map(|v| {
                let (c, f) = leave(cost[base + v], v);
                (c, v, f)
            })
            .filter(|&(c, _, _)| c.is_finite())
            .min_by(|a, b| a.0.total_cmp(&b.0))
        else {
            return Err(DiscoveryError::NoTeamFound);
        };

        let mut holder = vec![NodeId(0); skills.len()];
        let mut nodes = Vec::new();
        let mut arcs = Vec::new();
        let mut stack = vec![(full, root, flag)];
        while let Some((set, v, f)) = stack.pop() {
            nodes.push(NodeId::from_index(v));
            match back[set * n + v][f] {
                Step::Base => holder[set.trailing_zeros() as usize] = NodeId::from_index(v),
                Step::Merge { sub, flags } => {
                    let sub = sub as usize;
                    stack.push((sub, v, usize::from(flags & 1)));
                    stack.push((set ^ sub, v, usize::from(flags >> 1)));
                }
                Step::Grow(u) => {
                    arcs.push((u, NodeId::from_index(v)));
                    let (_, fu) = leave(cost[set * n + u.index()], u.index());
                    stack.push((set, u.index(), fu));
                }
            }
        }
        let tree = self.spanning_tree(NodeId::from_index(root), nodes, arcs);
        let team = Team::new(tree, skills.iter().copied().zip(holder).collect());
        let score = score_team(&self.norm, &team);
        Ok(ScoredTeam {
            team,
            objective: score.sa_ca_cc(gamma, lambda),
            score,
            algorithm_cost: dp_cost,
        })
    }

    /// A minimum spanning tree of the connected union of `nodes` and the
    /// graph edges `arcs` (Kruskal, ties broken by edge).
    fn spanning_tree(
        &self,
        root: NodeId,
        mut nodes: Vec<NodeId>,
        arcs: Vec<(NodeId, NodeId)>,
    ) -> SubTree {
        nodes.sort();
        nodes.dedup();
        let mut edges: Vec<(NodeId, NodeId, f64)> = arcs
            .into_iter()
            .map(|(u, v)| {
                let w = self.graph.edge_weight(u, v).expect("grown along an edge");
                (u.min(v), u.max(v), w)
            })
            .collect();
        edges.sort_by(|a, b| a.2.total_cmp(&b.2).then((a.0, a.1).cmp(&(b.0, b.1))));
        // Union-find over member positions.
        let mut parent: Vec<usize> = (0..nodes.len()).collect();
        edges.retain(|&(u, v, _)| {
            let [a, b] = [u, v].map(|x| {
                let mut i = nodes.binary_search(&x).expect("edge ends are members");
                while parent[i] != i {
                    i = parent[i];
                }
                i
            });
            parent[a] = b;
            a != b
        });
        edges.sort_by_key(|&(u, v, _)| (u, v));
        SubTree { root, nodes, edges }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::Discovery;
    use crate::skills::SkillIndexBuilder;
    use crate::strategy::Strategy;
    use atd_graph::GraphBuilder;

    fn diamond() -> (ExpertGraph, SkillIndex) {
        // 0 (skill a) connects to 3 (skill b) via cheap/low-authority 1 or
        // pricier/high-authority 2.
        let mut b = GraphBuilder::new();
        let n: Vec<NodeId> = [5.0, 1.0, 40.0, 5.0]
            .iter()
            .map(|&a| b.add_node(a))
            .collect();
        b.add_edge(n[0], n[1], 0.1).unwrap();
        b.add_edge(n[1], n[3], 0.1).unwrap();
        b.add_edge(n[0], n[2], 0.5).unwrap();
        b.add_edge(n[2], n[3], 0.5).unwrap();
        let g = b.build().unwrap();
        let mut sb = SkillIndexBuilder::new();
        let s0 = sb.intern("a");
        let s1 = sb.intern("b");
        sb.grant(n[0], s0);
        sb.grant(n[3], s1);
        (g, sb.build(4))
    }

    fn project(idx: &SkillIndex) -> Project {
        Project::new(vec![idx.id_of("a").unwrap(), idx.id_of("b").unwrap()])
    }

    fn weights(gamma: f64, lambda: f64) -> ObjectiveWeights {
        ObjectiveWeights::new(gamma, lambda).unwrap()
    }

    #[test]
    fn low_gamma_takes_cheap_route() {
        let (g, idx) = diamond();
        let f = ExactTeamFinder::new(&g, &idx, weights(0.05, 0.3));
        let best = f.best(&project(&idx)).unwrap();
        assert!(best.team.members().contains(&NodeId(1)), "cheap connector");
    }

    #[test]
    fn high_gamma_takes_authoritative_route() {
        let (g, idx) = diamond();
        let f = ExactTeamFinder::new(&g, &idx, weights(0.95, 0.3));
        let best = f.best(&project(&idx)).unwrap();
        assert!(
            best.team.members().contains(&NodeId(2)),
            "authoritative connector, got {:?}",
            best.team.members()
        );
    }

    #[test]
    fn exact_never_worse_than_greedy() {
        let (g, idx) = diamond();
        let p = project(&idx);
        let (gamma, lambda) = (0.6, 0.6);
        let exact = ExactTeamFinder::new(&g, &idx, weights(gamma, lambda))
            .best(&p)
            .unwrap();
        let engine = Discovery::new(g, idx).unwrap();
        let greedy = engine.best(&p, Strategy::SaCaCc { gamma, lambda }).unwrap();
        assert!(
            exact.objective <= greedy.objective + 1e-9,
            "exact {} must be <= greedy {}",
            exact.objective,
            greedy.objective
        );
    }

    #[test]
    fn internal_cost_matches_recomputed_objective() {
        let (g, idx) = diamond();
        let f = ExactTeamFinder::new(&g, &idx, weights(0.6, 0.4));
        let best = f.best(&project(&idx)).unwrap();
        // The DP's own total must equal Definition 6 on the rebuilt tree.
        assert!((best.algorithm_cost - best.objective).abs() < 1e-9);
        assert!((best.objective - best.score.sa_ca_cc(0.6, 0.4)).abs() < 1e-12);
        best.team.tree.validate().unwrap();
    }

    #[test]
    fn single_expert_covers_everything() {
        let mut b = GraphBuilder::new();
        let star = b.add_node(10.0);
        let other = b.add_node(1.0);
        b.add_edge(star, other, 1.0).unwrap();
        let g = b.build().unwrap();
        let mut sb = SkillIndexBuilder::new();
        let s0 = sb.intern("x");
        let s1 = sb.intern("y");
        sb.grant(star, s0);
        sb.grant(star, s1);
        let idx = sb.build(2);
        let best = ExactTeamFinder::new(&g, &idx, weights(0.6, 0.6))
            .best(&Project::new(vec![s0, s1]))
            .unwrap();
        assert_eq!(best.team.size(), 1);
        assert_eq!(best.score.cc, 0.0);
        assert_eq!(best.score.ca, 0.0);
    }

    #[test]
    fn disconnected_terminals_yield_no_team() {
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
        assert_eq!(
            ExactTeamFinder::new(&g, &idx, weights(0.5, 0.5)).best(&Project::new(vec![s0, s1])),
            Err(DiscoveryError::NoTeamFound)
        );
    }

    #[test]
    fn state_cap_refuses_before_allocating() {
        // 2^130 subsets overflow u128: the count saturates and is refused
        // rather than wrapping under the cap.
        let mut b = GraphBuilder::new();
        let path: Vec<NodeId> = (0..130).map(|_| b.add_node(1.0)).collect();
        for pair in path.windows(2) {
            b.add_edge(pair[0], pair[1], 1.0).unwrap();
        }
        let g = b.build().unwrap();
        let mut sb = SkillIndexBuilder::new();
        let skills: Vec<_> = path
            .iter()
            .map(|&v| {
                let s = sb.intern(&format!("s{}", v.index()));
                sb.grant(v, s);
                s
            })
            .collect();
        let idx = sb.build(path.len());
        assert_eq!(
            ExactTeamFinder::new(&g, &idx, weights(0.5, 0.5)).best(&Project::new(skills)),
            Err(DiscoveryError::InstanceTooLarge {
                what: "2^skills * nodes",
                size: u128::MAX,
                limit: MAX_STATES,
            })
        );
    }

    #[test]
    fn overlapping_branches_reduce_to_a_spanning_tree() {
        // A 4-node ring on which the optimum assigns a skill to every node.
        // At γ = 1 edges cost nothing, and with exactly these authorities
        // and λ the DP's branches close the ring (rounded ones do not).
        // The team keeps a minimum spanning tree of it, without the
        // heaviest edge (0, 3).
        let mut b = GraphBuilder::new();
        let n: Vec<NodeId> = [
            36.68782926640789,
            7.119622893911898,
            49.79268553698251,
            29.732349370007565,
        ]
        .iter()
        .map(|&a| b.add_node(a))
        .collect();
        for (i, w) in [0.3, 0.5, 0.7, 0.9].into_iter().enumerate() {
            b.add_edge(n[i], n[(i + 1) % 4], w).unwrap();
        }
        let g = b.build().unwrap();
        let mut sb = SkillIndexBuilder::new();
        let holders: [&[usize]; 6] = [&[0, 2], &[1, 3], &[0, 2, 3], &[1, 3], &[0], &[1]];
        let skills: Vec<_> = holders
            .iter()
            .enumerate()
            .map(|(s, hs)| {
                let id = sb.intern(&format!("s{s}"));
                for &h in *hs {
                    sb.grant(n[h], id);
                }
                id
            })
            .collect();
        let idx = sb.build(4);
        let best = ExactTeamFinder::new(&g, &idx, weights(1.0, 0.08518288027436338))
            .best(&Project::new(skills))
            .unwrap();
        best.team.tree.validate().unwrap();
        let edges: Vec<_> = best
            .team
            .tree
            .edges
            .iter()
            .map(|e| (e.0 .0, e.1 .0))
            .collect();
        assert_eq!(edges, [(0, 1), (1, 2), (2, 3)]);
        assert!(best.team.connectors().is_empty());
    }

    #[test]
    fn lambda_one_is_pure_sa() {
        let (g, idx) = diamond();
        let best = ExactTeamFinder::new(&g, &idx, weights(0.6, 1.0))
            .best(&project(&idx))
            .unwrap();
        // λ=1: connection is free; objective equals SA of the best holders.
        assert!((best.objective - best.score.sa).abs() < 1e-12);
    }
}
