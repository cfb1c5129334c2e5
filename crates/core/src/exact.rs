//! The `Exact` baseline from the paper's evaluation (§4): exhaustive search
//! for an SA-CA-CC-optimal team. The paper could only run it for 4–6 skills
//! ("did not terminate in reasonable time for 8 and 10 skills") — this
//! implementation hits the same wall, by design, and guards against it with
//! explicit budgets.
//!
//! ## How it is exact
//!
//! `SA-CA-CC(T) = λ·SA + (1−λ)γ·CA + (1−λ)(1−γ)·CC` decomposes into
//!
//! * an **assignment** term `λ·SA` that depends only on which holder covers
//!   which skill, and
//! * a **connection** term that, for a fixed terminal set (the distinct
//!   chosen holders), is a *node-weighted Steiner tree* problem: every tree
//!   edge pays `(1−λ)(1−γ)·w̄` and every non-terminal tree node (a
//!   connector) pays `(1−λ)γ·ā'`.
//!
//! The solver enumerates every skill→holder assignment (with branch-and-
//! bound pruning on the `λ·SA` partial sums) and solves the connection term
//! exactly with a **Dreyfus–Wagner** dynamic program extended to node
//! weights: node costs are charged on the arc *entering* a node, turning
//! the node-weighted undirected problem into a rooted arborescence problem
//! (`dp[S][v]` = min cost of a tree rooted at `v` spanning terminal set
//! `S`, excluding `v`'s own enter cost, which is added at the end unless
//! `v` is a terminal). Steiner results are memoized by terminal set, so
//! assignments that collapse to the same distinct-holder set are solved
//! once.

use std::collections::{BinaryHeap, HashMap};

use atd_graph::{dijkstra_with_targets, ExpertGraph, NodeId, SubTree, TotalF64};

use crate::error::DiscoveryError;
use crate::normalize::Normalization;
use crate::objectives::{score_team, ObjectiveWeights};
use crate::skills::{Project, SkillId, SkillIndex};
use crate::strategy::Strategy;
use crate::team::{ScoredTeam, Team};

/// Budgets and tradeoffs for the exact solver.
#[derive(Clone, Debug)]
pub struct ExactConfig {
    /// Objective tradeoffs (γ, λ).
    pub weights: ObjectiveWeights,
    /// Cap on `2^|terminals| · |V|` DP states per Steiner instance.
    pub max_dw_states: u128,
    /// Cap on the number of enumerated assignments.
    pub max_assignments: u128,
    /// Cap on distinct Steiner instances actually solved — the
    /// deterministic stand-in for the paper's "did not terminate in
    /// reasonable time" wall-clock limit.
    pub max_steiner_instances: usize,
}

impl ExactConfig {
    /// Default budgets: ~128M DP states, 1M assignments, 20K Steiner
    /// instances — roughly "a few seconds per project on a laptop-scale
    /// graph", failing loudly beyond.
    pub fn new(weights: ObjectiveWeights) -> Self {
        ExactConfig {
            weights,
            max_dw_states: 1 << 27,
            max_assignments: 1 << 20,
            max_steiner_instances: 20_000,
        }
    }
}

/// A memoized Steiner solution for one terminal set.
#[derive(Clone, Debug)]
struct SteinerResult {
    cost: f64,
    nodes: Vec<NodeId>,
    edges: Vec<(NodeId, NodeId)>,
}

/// Exhaustive SA-CA-CC optimizer (the paper's `Exact`).
pub struct ExactTeamFinder<'g> {
    graph: &'g ExpertGraph,
    skills: &'g SkillIndex,
    norm: Normalization,
    config: ExactConfig,
}

impl<'g> ExactTeamFinder<'g> {
    /// Creates an exact finder over `graph` / `skills`.
    pub fn new(graph: &'g ExpertGraph, skills: &'g SkillIndex, config: ExactConfig) -> Self {
        ExactTeamFinder {
            graph,
            skills,
            norm: Normalization::compute(graph),
            config,
        }
    }

    /// Finds the SA-CA-CC-optimal team for `project`.
    pub fn best(&self, project: &Project) -> Result<ScoredTeam, DiscoveryError> {
        if project.is_empty() {
            return Err(DiscoveryError::EmptyProject);
        }
        let mut holder_lists: Vec<(SkillId, Vec<NodeId>)> = Vec::with_capacity(project.len());
        let mut assignments: u128 = 1;
        for &s in project.skills() {
            let holders = self.skills.holders(s);
            if holders.is_empty() {
                return Err(DiscoveryError::UncoverableSkill(s));
            }
            // Ascending ā' puts authority-optimal assignments first, giving
            // the branch-and-bound an immediate strong incumbent.
            let mut sorted = holders.to_vec();
            sorted.sort_by(|&a, &b| {
                self.norm
                    .a_bar(a)
                    .total_cmp(&self.norm.a_bar(b))
                    .then(a.cmp(&b))
            });
            assignments = assignments.saturating_mul(sorted.len() as u128);
            holder_lists.push((s, sorted));
        }
        if assignments > self.config.max_assignments {
            return Err(DiscoveryError::InstanceTooLarge {
                what: "assignment combinations",
                size: assignments,
                limit: self.config.max_assignments,
            });
        }

        let lambda = self.config.weights.lambda();
        let gamma = self.config.weights.gamma();

        // Admissible pairwise lower bound on connection cost: distances in
        // the pure-edge metric `(1−λ)(1−γ)·w̄` (dropping node costs can only
        // underestimate, and terminals pay no node cost anyway). Any tree
        // containing two terminals costs at least their distance here, so
        // `λ·SA_partial + max_pairwise_lb ≥ incumbent` soundly prunes —
        // and an infinite entry proves the holders are disconnected.
        let mut candidates: Vec<NodeId> = holder_lists
            .iter()
            .flat_map(|(_, hs)| hs.iter().copied())
            .collect();
        candidates.sort();
        candidates.dedup();
        let pos: HashMap<NodeId, usize> = candidates
            .iter()
            .enumerate()
            .map(|(i, &h)| (h, i))
            .collect();
        let edge_factor = (1.0 - lambda) * (1.0 - gamma);
        let lb_graph = self
            .graph
            .map_weights(|_, _, w| edge_factor * self.norm.w_bar(w));
        let mut lb = vec![vec![f64::INFINITY; candidates.len()]; candidates.len()];
        for (i, &h) in candidates.iter().enumerate() {
            let sp = dijkstra_with_targets(&lb_graph, h, Some(&candidates));
            for (j, &g) in candidates.iter().enumerate() {
                lb[i][j] = sp.dist[g.index()];
            }
        }

        let mut search = Search {
            finder: self,
            holder_lists: &holder_lists,
            lambda,
            memo: HashMap::new(),
            best_total: f64::INFINITY,
            best: None,
            current: Vec::with_capacity(holder_lists.len()),
            budget_error: None,
            lb: &lb,
            pos: &pos,
            chosen_pos: Vec::with_capacity(holder_lists.len()),
            steiner_count: 0,
        };
        search.recurse(0, 0.0, 0.0)?;
        if let Some(err) = search.budget_error {
            return Err(err);
        }

        let (assignment, result) = search.best.ok_or(DiscoveryError::NoTeamFound)?;
        self.materialize(assignment, result)
    }

    fn materialize(
        &self,
        assignment: Vec<(SkillId, NodeId)>,
        steiner: SteinerResult,
    ) -> Result<ScoredTeam, DiscoveryError> {
        let root = assignment[0].1;
        let tree = if steiner.edges.is_empty() {
            SubTree::singleton(root)
        } else {
            let mut nodes = steiner.nodes.clone();
            nodes.sort();
            nodes.dedup();
            let mut edges: Vec<(NodeId, NodeId, f64)> = steiner
                .edges
                .iter()
                .map(|&(u, v)| {
                    let w = self
                        .graph
                        .edge_weight(u, v)
                        .expect("steiner edge exists in graph");
                    (u.min(v), u.max(v), w)
                })
                .collect();
            edges.sort_by_key(|&(u, v, _)| (u, v));
            edges.dedup_by_key(|&mut (u, v, _)| (u, v));
            let tree = SubTree { root, nodes, edges };
            tree.validate().map_err(|_| DiscoveryError::NoTeamFound)?;
            tree
        };

        let team = Team::new(tree, assignment);
        let score = score_team(&self.norm, &team);
        let strategy = Strategy::SaCaCc {
            gamma: self.config.weights.gamma(),
            lambda: self.config.weights.lambda(),
        };
        let objective = strategy.objective(&score);
        Ok(ScoredTeam {
            team,
            score,
            objective,
            algorithm_cost: objective,
        })
    }

    /// Node-weighted Dreyfus–Wagner over the whole graph.
    ///
    /// Returns `None` when the terminals are disconnected; an error when
    /// the state budget would be exceeded.
    fn steiner(&self, terminals: &[NodeId]) -> Result<Option<SteinerResult>, DiscoveryError> {
        let n = self.graph.num_nodes();
        let p = terminals.len();
        debug_assert!(p >= 1);
        if p == 1 {
            return Ok(Some(SteinerResult {
                cost: 0.0,
                nodes: vec![terminals[0]],
                edges: Vec::new(),
            }));
        }
        let states = (1u128 << p).saturating_mul(n as u128);
        if states > self.config.max_dw_states {
            return Err(DiscoveryError::InstanceTooLarge {
                what: "2^terminals * nodes",
                size: states,
                limit: self.config.max_dw_states,
            });
        }

        let gamma = self.config.weights.gamma();
        let lambda = self.config.weights.lambda();
        let edge_factor = (1.0 - lambda) * (1.0 - gamma);
        let node_factor = (1.0 - lambda) * gamma;

        let mut is_terminal = vec![false; n];
        for &t in terminals {
            is_terminal[t.index()] = true;
        }
        // Cost charged when the tree *enters* node v (connectors only).
        let enter = |v: NodeId| -> f64 {
            if is_terminal[v.index()] {
                0.0
            } else {
                node_factor * self.norm.a_bar(v)
            }
        };

        let full = (1usize << p) - 1;
        let size = (full + 1) * n;
        let mut dp = vec![f64::INFINITY; size];
        let mut choice = vec![Choice::Unreached; size];

        for (i, &t) in terminals.iter().enumerate() {
            dp[(1 << i) * n + t.index()] = 0.0;
            choice[(1 << i) * n + t.index()] = Choice::Leaf;
        }

        let mut heap: BinaryHeap<DwEntry> = BinaryHeap::new();
        for mask in 1..=full {
            let base = mask * n;
            // Merge step: combine two sub-arborescences at a common root.
            if mask & (mask - 1) != 0 {
                let mut sub = (mask - 1) & mask;
                while sub > 0 {
                    let other = mask ^ sub;
                    if sub < other {
                        sub = (sub - 1) & mask;
                        continue; // each split visited once
                    }
                    let (sb, ob) = (sub * n, other * n);
                    for v in 0..n {
                        let c = dp[sb + v] + dp[ob + v];
                        if c < dp[base + v] {
                            dp[base + v] = c;
                            choice[base + v] = Choice::Split(sub as u32);
                        }
                    }
                    sub = (sub - 1) & mask;
                }
            }

            // Relax step: move the root along arcs (multi-source Dijkstra
            // seeded with every finite dp[mask][·]).
            heap.clear();
            for v in 0..n {
                if dp[base + v].is_finite() {
                    heap.push(DwEntry {
                        dist: TotalF64::expect(dp[base + v]),
                        node: v as u32,
                    });
                }
            }
            while let Some(DwEntry { dist, node }) = heap.pop() {
                let v = node as usize;
                let d = dist.get();
                if d > dp[base + v] {
                    continue; // stale
                }
                let vn = NodeId(node);
                let pay_v = enter(vn);
                for (u, w) in self.graph.neighbors(vn) {
                    let cand = d + edge_factor * self.norm.w_bar(w) + pay_v;
                    let slot = base + u.index();
                    if cand < dp[slot] {
                        dp[slot] = cand;
                        choice[slot] = Choice::Step(node);
                        heap.push(DwEntry {
                            dist: TotalF64::expect(cand),
                            node: u.0,
                        });
                    }
                }
            }
        }

        // Best root, charging the root's own enter cost (it is "used" by
        // the tree even though no arc enters it).
        let base = full * n;
        let mut best: Option<(f64, usize)> = None;
        for v in 0..n {
            if dp[base + v].is_finite() {
                let total = dp[base + v] + enter(NodeId(v as u32));
                if best.is_none_or(|(bc, _)| total < bc) {
                    best = Some((total, v));
                }
            }
        }
        let Some((cost, root)) = best else {
            return Ok(None);
        };

        // Reconstruct the tree from the choice backpointers.
        let mut nodes: Vec<NodeId> = Vec::new();
        let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
        let mut stack = vec![(full, root)];
        while let Some((mask, v)) = stack.pop() {
            nodes.push(NodeId(v as u32));
            match choice[mask * n + v] {
                Choice::Leaf => {}
                Choice::Split(sub) => {
                    let sub = sub as usize;
                    stack.push((sub, v));
                    stack.push((mask ^ sub, v));
                }
                Choice::Step(parent) => {
                    edges.push((NodeId(v as u32), NodeId(parent)));
                    stack.push((mask, parent as usize));
                }
                Choice::Unreached => unreachable!("finite dp state must have a choice"),
            }
        }
        nodes.sort();
        nodes.dedup();
        edges.sort_by_key(|&(u, v)| (u.min(v), u.max(v)));
        edges.dedup_by_key(|&mut (u, v)| (u.min(v), u.max(v)));

        Ok(Some(SteinerResult { cost, nodes, edges }))
    }
}

/// DP backpointer.
#[derive(Clone, Copy, Debug)]
enum Choice {
    Unreached,
    Leaf,
    Split(u32),
    Step(u32),
}

#[derive(PartialEq, Eq)]
struct DwEntry {
    dist: TotalF64,
    node: u32,
}

impl Ord for DwEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .dist
            .cmp(&self.dist)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for DwEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Recursive assignment enumeration with SA- and distance-based pruning.
struct Search<'a, 'g> {
    finder: &'a ExactTeamFinder<'g>,
    holder_lists: &'a [(SkillId, Vec<NodeId>)],
    lambda: f64,
    memo: HashMap<Vec<NodeId>, Option<SteinerResult>>,
    best_total: f64,
    best: Option<(Vec<(SkillId, NodeId)>, SteinerResult)>,
    current: Vec<(SkillId, NodeId)>,
    budget_error: Option<DiscoveryError>,
    /// Pairwise lower-bound distances between candidate holders.
    lb: &'a Vec<Vec<f64>>,
    /// Candidate holder → row index in `lb`.
    pos: &'a HashMap<NodeId, usize>,
    /// `lb` row indices of holders chosen so far.
    chosen_pos: Vec<usize>,
    /// Distinct Steiner instances solved (budget accounting).
    steiner_count: usize,
}

impl Search<'_, '_> {
    fn recurse(
        &mut self,
        depth: usize,
        sa_so_far: f64,
        lb_so_far: f64,
    ) -> Result<(), DiscoveryError> {
        // Prune: the connection cost is bounded below by the widest
        // pairwise distance among chosen holders, and λ·SA only grows.
        if self.lambda * sa_so_far + lb_so_far >= self.best_total {
            return Ok(());
        }
        if depth == self.holder_lists.len() {
            let mut terminals: Vec<NodeId> = self.current.iter().map(|&(_, v)| v).collect();
            terminals.sort();
            terminals.dedup();

            let result = match self.memo.get(&terminals) {
                Some(cached) => cached.clone(),
                None => {
                    self.steiner_count += 1;
                    if self.steiner_count > self.finder.config.max_steiner_instances {
                        let e = DiscoveryError::InstanceTooLarge {
                            what: "distinct Steiner instances",
                            size: self.steiner_count as u128,
                            limit: self.finder.config.max_steiner_instances as u128,
                        };
                        self.budget_error = Some(e.clone());
                        return Err(e);
                    }
                    let computed = match self.finder.steiner(&terminals) {
                        Ok(r) => r,
                        Err(e) => {
                            // Record and stop enumerating — the instance is
                            // too large for exact search.
                            self.budget_error = Some(e.clone());
                            return Err(e);
                        }
                    };
                    self.memo.insert(terminals.clone(), computed.clone());
                    computed
                }
            };
            if let Some(steiner) = result {
                let total = self.lambda * sa_so_far + steiner.cost;
                if total < self.best_total {
                    self.best_total = total;
                    self.best = Some((self.current.clone(), steiner));
                }
            }
            return Ok(());
        }

        let (skill, holders) = &self.holder_lists[depth];
        let (skill, holders) = (*skill, holders.clone());
        for v in holders {
            let a = self.finder.norm.a_bar(v);
            if self.lambda * (sa_so_far + a) >= self.best_total {
                break; // ā'-ascending: everything after prunes too
            }
            let vp = self.pos[&v];
            let mut new_lb = lb_so_far;
            for &cp in &self.chosen_pos {
                new_lb = new_lb.max(self.lb[vp][cp]);
            }
            if self.lambda * (sa_so_far + a) + new_lb >= self.best_total {
                continue; // distance prune (also catches disconnection)
            }
            self.current.push((skill, v));
            self.chosen_pos.push(vp);
            self.recurse(depth + 1, sa_so_far + a, new_lb)?;
            self.chosen_pos.pop();
            self.current.pop();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::Discovery;
    use crate::skills::SkillIndexBuilder;
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

    #[test]
    fn low_gamma_takes_cheap_route() {
        let (g, idx) = diamond();
        let cfg = ExactConfig::new(ObjectiveWeights::new(0.05, 0.3).unwrap());
        let f = ExactTeamFinder::new(&g, &idx, cfg);
        let best = f.best(&project(&idx)).unwrap();
        assert!(best.team.members().contains(&NodeId(1)), "cheap connector");
    }

    #[test]
    fn high_gamma_takes_authoritative_route() {
        let (g, idx) = diamond();
        let cfg = ExactConfig::new(ObjectiveWeights::new(0.95, 0.3).unwrap());
        let f = ExactTeamFinder::new(&g, &idx, cfg);
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
        let cfg = ExactConfig::new(ObjectiveWeights::new(gamma, lambda).unwrap());
        let exact = ExactTeamFinder::new(&g, &idx, cfg).best(&p).unwrap();
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
        let cfg = ExactConfig::new(ObjectiveWeights::new(0.6, 0.4).unwrap());
        let f = ExactTeamFinder::new(&g, &idx, cfg);
        let best = f.best(&project(&idx)).unwrap();
        // The DP's internal total must equal Definition 6 on the tree.
        assert!((best.objective - best.score.sa_ca_cc(0.6, 0.4)).abs() < 1e-9);
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
        let cfg = ExactConfig::new(ObjectiveWeights::new(0.6, 0.6).unwrap());
        let best = ExactTeamFinder::new(&g, &idx, cfg)
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
        let cfg = ExactConfig::new(ObjectiveWeights::new(0.5, 0.5).unwrap());
        assert_eq!(
            ExactTeamFinder::new(&g, &idx, cfg).best(&Project::new(vec![s0, s1])),
            Err(DiscoveryError::NoTeamFound)
        );
    }

    #[test]
    fn assignment_budget_guard_trips() {
        let (g, idx) = diamond();
        let mut cfg = ExactConfig::new(ObjectiveWeights::new(0.5, 0.5).unwrap());
        cfg.max_assignments = 0;
        assert!(matches!(
            ExactTeamFinder::new(&g, &idx, cfg).best(&project(&idx)),
            Err(DiscoveryError::InstanceTooLarge { .. })
        ));
    }

    #[test]
    fn lambda_one_is_pure_sa() {
        let (g, idx) = diamond();
        let cfg = ExactConfig::new(ObjectiveWeights::new(0.6, 1.0).unwrap());
        let best = ExactTeamFinder::new(&g, &idx, cfg)
            .best(&project(&idx))
            .unwrap();
        // λ=1: connection is free; objective equals SA of the best holders.
        assert!((best.objective - best.score.sa).abs() < 1e-12);
    }
}
