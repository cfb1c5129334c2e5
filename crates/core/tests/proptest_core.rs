//! Cross-module properties of the team-formation layer on random expert
//! networks: coverage, tree validity, exact-vs-greedy dominance,
//! objective consistency, agreement with a reference Algorithm 1, and
//! agreement of Exact with a brute-force optimum.

use std::collections::HashSet;
use std::ops::Range;

use atd_core::exact::ExactTeamFinder;
use atd_core::greedy::Discovery;
use atd_core::normalize::Normalization;
use atd_core::objectives::{score_team, ObjectiveWeights};
use atd_core::random::RandomTeamFinder;
use atd_core::skills::{Project, SkillIndex, SkillIndexBuilder};
use atd_core::strategy::Strategy as Rank;
use atd_core::team::{ScoredTeam, Team};
use atd_core::transform::authority_transform;
use atd_graph::{dijkstra, ExpertGraph, GraphBuilder, NodeId, SubTree};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A connected-ish random instance: ring backbone + random chords, random
/// authorities, a few skills granted to random nodes.
#[derive(Debug, Clone)]
struct Instance {
    n: usize,
    chords: Vec<(u32, u32, f64)>,
    authorities: Vec<f64>,
    grants: Vec<(u32, u8)>,
    num_skills: u8,
}

/// 4–13 nodes and 2–3 skills.
fn instance() -> impl Strategy<Value = Instance> {
    instance_in(4..14, 2..4)
}

fn instance_in(nodes: Range<usize>, skills: Range<u8>) -> impl Strategy<Value = Instance> {
    (nodes, skills).prop_flat_map(|(n, num_skills)| {
        let chords = proptest::collection::vec((0..n as u32, 0..n as u32, 0.05f64..2.0), 0..12);
        let authorities = proptest::collection::vec(0.0f64..50.0, n);
        let grants =
            proptest::collection::vec((0..n as u32, 0..num_skills), num_skills as usize..10);
        (Just(n), chords, authorities, grants, Just(num_skills)).prop_map(
            |(n, chords, authorities, grants, num_skills)| Instance {
                n,
                chords,
                authorities,
                grants,
                num_skills,
            },
        )
    })
}

fn build(inst: &Instance) -> (ExpertGraph, SkillIndex, Project) {
    let mut b = GraphBuilder::new();
    let ids: Vec<NodeId> = inst.authorities.iter().map(|&a| b.add_node(a)).collect();
    // Ring backbone guarantees connectivity.
    for i in 0..inst.n {
        b.add_edge(ids[i], ids[(i + 1) % inst.n], 0.3 + (i % 5) as f64 * 0.2)
            .unwrap();
    }
    for &(u, v, w) in &inst.chords {
        if u != v {
            b.add_edge(NodeId(u), NodeId(v), w).unwrap();
        }
    }
    let g = b.build().unwrap();

    let mut sb = SkillIndexBuilder::new();
    let skill_ids: Vec<_> = (0..inst.num_skills)
        .map(|i| sb.intern(&format!("skill{i}")))
        .collect();
    // Guarantee coverage: skill i goes to node i as a floor.
    for (i, &s) in skill_ids.iter().enumerate() {
        sb.grant(ids[i % inst.n], s);
    }
    for &(node, skill) in &inst.grants {
        sb.grant(NodeId(node), skill_ids[(skill % inst.num_skills) as usize]);
    }
    let idx = sb.build(g.num_nodes());
    let project = Project::new(skill_ids);
    (g, idx, project)
}

/// A tradeoff in `[0, 1]` that is exactly 0 or exactly 1 half the time.
fn tradeoff() -> impl Strategy<Value = f64> {
    (0u8..4, 0.0f64..1.0).prop_map(|(edge, x)| match edge {
        0 => 0.0,
        1 => 1.0,
        _ => x,
    })
}

/// Candidates materialized per requested team (the engine's
/// `OVERSAMPLE`).
const OVERSAMPLE: usize = 4;

/// Two costs equal up to float summation order: within 1e-12 of the
/// larger magnitude, and never finer than 1e-12 absolute (an adjusted
/// cost near 0 is a difference of terms near 1).
fn near(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-12 * a.abs().max(b.abs()).max(1.0)
}

/// Algorithm 1 (arXiv 1611.02992, §3.2) written from the paper with no
/// PLL and no scatter. For every root and required skill it runs plain
/// Dijkstra on the ranking graph (`w̄` for CC, `G'` for CA-CC and
/// SA-CA-CC), applies the strategy's DIST adjustment and takes the
/// cheapest holder, the lower id on ties; a root holding the skill takes
/// it at DIST 0. It keeps the `k · OVERSAMPLE` cheapest roots by (cost,
/// id), grows each team along the root's shortest-path tree, scores it
/// on the original graph, drops repeated member sets and sorts by
/// (objective, cost).
///
/// Also says whether the last kept root and the first dropped one cost
/// the same up to [`near`].
fn reference_top_k(
    g: &ExpertGraph,
    idx: &SkillIndex,
    project: &Project,
    strategy: Rank,
    k: usize,
) -> (Vec<ScoredTeam>, bool) {
    let norm = Normalization::compute(g);
    let ranking = match strategy.gamma() {
        None => g.map_weights(|_, _, w| norm.w_bar(w)),
        Some(gamma) => authority_transform(g, &norm, gamma),
    };
    let adjust = |d: f64, v: NodeId| match strategy {
        Rank::Cc => d,
        Rank::CaCc { gamma } => d - gamma * norm.a_bar(v),
        Rank::SaCaCc { gamma, lambda } => {
            (1.0 - lambda) * (d - gamma * norm.a_bar(v)) + lambda * norm.a_bar(v)
        }
    };
    let mut roots = Vec::new();
    'roots: for root in (0..g.num_nodes()).map(NodeId::from_index) {
        let tree = dijkstra(&ranking, root);
        let mut cost = 0.0;
        let mut assignment = Vec::new();
        for &s in project.skills() {
            if idx.has_skill(root, s) {
                assignment.push((s, root));
                continue;
            }
            let cheapest = idx
                .holders(s)
                .iter()
                .filter_map(|&v| Some((adjust(tree.distance(v)?, v), v)))
                .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let Some((c, v)) = cheapest else {
                continue 'roots;
            };
            cost += c;
            assignment.push((s, v));
        }
        roots.push((cost, root, assignment, tree));
    }
    roots.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let limit = k * OVERSAMPLE;
    let tie_at_cut = roots.len() > limit && near(roots[limit - 1].0, roots[limit].0);
    roots.truncate(limit);

    let mut seen = HashSet::new();
    let mut teams = Vec::new();
    for (cost, root, assignment, tree) in roots {
        let holders: Vec<NodeId> = assignment.iter().map(|&(_, v)| v).collect();
        let sub = if holders.iter().all(|&h| h == root) {
            SubTree::singleton(root)
        } else {
            let paths: Vec<_> = holders.iter().map(|&h| tree.path_to(h).unwrap()).collect();
            SubTree::from_paths(g, root, &paths).unwrap()
        };
        let team = Team::new(sub, assignment);
        if !seen.insert(team.member_key()) {
            continue;
        }
        let score = score_team(&norm, &team);
        teams.push(ScoredTeam {
            objective: strategy.objective(&score),
            team,
            score,
            algorithm_cost: cost,
        });
    }
    teams.sort_by(|a, b| {
        a.objective
            .total_cmp(&b.objective)
            .then(a.algorithm_cost.total_cmp(&b.algorithm_cost))
    });
    teams.truncate(k);
    (teams, tie_at_cut)
}

/// The SA-CA-CC optimum by its definition, on a graph of at most 13
/// nodes. Every connected node subset is a candidate member set. Its CC is
/// a minimum spanning tree of the induced subgraph, and its node terms
/// come from every assignment of each skill to a holder inside the subset,
/// with every unassigned member paying as a connector.
fn brute_force_optimum(
    g: &ExpertGraph,
    idx: &SkillIndex,
    project: &Project,
    gamma: f64,
    lambda: f64,
) -> f64 {
    let n = g.num_nodes();
    assert!(n <= 13, "brute force over 2^{n} subsets");
    let norm = Normalization::compute(g);
    let a_bar = |v: usize| norm.a_bar(NodeId::from_index(v));
    let mut edges: Vec<(usize, usize, f64)> = g
        .edges()
        .map(|(u, v, w)| (u.index(), v.index(), norm.w_bar(w)))
        .collect();
    edges.sort_by(|a, b| a.2.total_cmp(&b.2));
    let inside = |set: u32, v: usize| set >> v & 1 == 1;

    let mut best = f64::INFINITY;
    for set in 1u32..1 << n {
        // Kruskal on the induced subgraph; a forest means disconnected.
        let mut component: Vec<usize> = (0..n).collect();
        let (mut cc, mut joined) = (0.0, 0);
        for &(u, v, w) in &edges {
            if !inside(set, u) || !inside(set, v) {
                continue;
            }
            let [ru, rv] = [u, v].map(|mut x| {
                while component[x] != x {
                    x = component[x];
                }
                x
            });
            if ru != rv {
                component[ru] = rv;
                cc += w;
                joined += 1;
            }
        }
        if joined + 1 != set.count_ones() {
            continue;
        }
        let holders: Vec<Vec<usize>> = project
            .skills()
            .iter()
            .map(|&s| {
                let hs = idx.holders(s).iter().map(|h| h.index());
                hs.filter(|&h| inside(set, h)).collect()
            })
            .collect();
        if holders.iter().any(Vec::is_empty) {
            continue;
        }
        // Every assignment, as an odometer over the holder lists.
        let mut pick = vec![0usize; holders.len()];
        loop {
            let chosen = || pick.iter().zip(&holders).map(|(&i, hs)| hs[i]);
            let sa: f64 = chosen().map(a_bar).sum();
            let assigned = chosen().fold(0u32, |m, h| m | 1 << h);
            let ca: f64 = (0..n)
                .filter(|&v| inside(set & !assigned, v))
                .map(a_bar)
                .sum();
            best = best.min(lambda * sa + (1.0 - lambda) * (gamma * ca + (1.0 - gamma) * cc));
            let Some(k) = (0..pick.len()).find(|&k| pick[k] + 1 < holders[k].len()) else {
                break;
            };
            pick[k] += 1;
            pick[..k].fill(0);
        }
    }
    best
}

/// Member sets, objectives and algorithm costs, for failure messages.
fn summary(teams: &[ScoredTeam]) -> Vec<(Vec<NodeId>, f64, f64)> {
    teams
        .iter()
        .map(|t| (t.team.member_key(), t.objective, t.algorithm_cost))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `Discovery::top_k` returns the reference Algorithm 1's teams for
    /// every strategy, `k ∈ {1, 3}` and `(γ, λ)` including 0 and 1: the
    /// same member sets in the same order with the same objective bits.
    /// `algorithm_cost` may differ by [`near`], since the PLL adds hub
    /// halves where Dijkstra adds along the path.
    ///
    /// Near-tie rule: where the reference's last kept root and first
    /// dropped root cost the same up to [`near`], summation order alone
    /// decides which makes the cut, and either answer is accepted. Each
    /// accepted case is printed to stderr so it can be counted.
    #[test]
    fn top_k_matches_reference_algorithm_1(
        inst in instance(),
        gamma in tradeoff(),
        lambda in tradeoff(),
    ) {
        let (g, idx, project) = build(&inst);
        let engine = Discovery::new(g.clone(), idx.clone()).unwrap();
        for strategy in [Rank::Cc, Rank::CaCc { gamma }, Rank::SaCaCc { gamma, lambda }] {
            for k in [1, 3] {
                let got = engine.top_k(&project, strategy, k).unwrap();
                let (want, tie_at_cut) = reference_top_k(&g, &idx, &project, strategy, k);
                let agree = got.len() == want.len()
                    && got.iter().zip(&want).all(|(x, y)| {
                        x.team.member_key() == y.team.member_key()
                            && x.objective.to_bits() == y.objective.to_bits()
                            && near(x.algorithm_cost, y.algorithm_cost)
                    });
                if agree {
                    continue;
                }
                prop_assert!(
                    tie_at_cut,
                    "{strategy}, k = {k}: engine {:?} != reference {:?} on {inst:?}",
                    summary(&got),
                    summary(&want)
                );
                eprintln!("near tie at the cut accepted: {strategy}, k = {k}");
            }
        }
    }

    /// Every strategy returns valid covering trees whose recomputed scores
    /// match an independent re-evaluation.
    #[test]
    fn greedy_teams_are_valid_and_consistent(inst in instance()) {
        let (g, idx, project) = build(&inst);
        let norm = Normalization::compute(&g);
        let engine = Discovery::new(g, idx).unwrap();
        for strategy in [
            Rank::Cc,
            Rank::CaCc { gamma: 0.6 },
            Rank::SaCaCc { gamma: 0.6, lambda: 0.6 },
        ] {
            let teams = engine.top_k(&project, strategy, 3).unwrap();
            prop_assert!(!teams.is_empty());
            for st in &teams {
                prop_assert!(st.team.covers(&project));
                st.team.tree.validate().unwrap();
                let rescore = score_team(&norm, &st.team);
                prop_assert!((rescore.cc - st.score.cc).abs() < 1e-9);
                prop_assert!((rescore.ca - st.score.ca).abs() < 1e-9);
                prop_assert!((rescore.sa - st.score.sa).abs() < 1e-9);
                prop_assert!(
                    (strategy.objective(&st.score) - st.objective).abs() < 1e-9
                );
            }
        }
    }

    /// Exact is never worse than greedy or random under SA-CA-CC — the
    /// defining property of the paper's Figure 3 comparison.
    #[test]
    fn exact_dominates_heuristics(inst in instance()) {
        let (g, idx, project) = build(&inst);
        let (gamma, lambda) = (0.6, 0.6);
        let weights = ObjectiveWeights::new(gamma, lambda).unwrap();

        let exact = ExactTeamFinder::new(&g, &idx, weights).best(&project).unwrap();

        let rnd = RandomTeamFinder::new(&g, &idx)
            .best_of(&project, weights, 60, &mut StdRng::seed_from_u64(11))
            .unwrap();
        prop_assert!(
            exact.objective <= rnd.objective + 1e-9,
            "exact {} > random {}",
            exact.objective,
            rnd.objective
        );

        let engine = Discovery::new(g, idx).unwrap();
        let greedy = engine.best(&project, Rank::SaCaCc { gamma, lambda }).unwrap();
        prop_assert!(
            exact.objective <= greedy.objective + 1e-9,
            "exact {} > greedy {}",
            exact.objective,
            greedy.objective
        );
    }

    /// `ExactTeamFinder::best` returns a tree of the graph that covers the
    /// project, and its SA-CA-CC objective is the brute-force optimum
    /// within 1e-9 relative: 2–3 skills on 4–13 nodes and 4–6 skills on
    /// 4–9 nodes, with `(γ, λ)` including 0 and 1.
    #[test]
    fn exact_matches_brute_force(
        inst in prop_oneof![instance_in(4..14, 2..4), instance_in(4..10, 4..7)],
        gamma in tradeoff(),
        lambda in tradeoff(),
    ) {
        let (g, idx, project) = build(&inst);
        let weights = ObjectiveWeights::new(gamma, lambda).unwrap();
        let exact = ExactTeamFinder::new(&g, &idx, weights).best(&project).unwrap();
        let tree = &exact.team.tree;
        tree.validate().unwrap();
        for &(u, v, w) in &tree.edges {
            prop_assert!(g.edge_weight(u, v) == Some(w), "edge ({u}, {v}) not in the graph");
        }
        prop_assert!(exact.team.covers(&project));
        for &(s, v) in &exact.team.assignment {
            prop_assert!(idx.has_skill(v, s) && tree.contains(v), "{v} cannot cover {s:?}");
        }
        let rescored = score_team(&Normalization::compute(&g), &exact.team).sa_ca_cc(gamma, lambda);
        let want = brute_force_optimum(&g, &idx, &project, gamma, lambda);
        for got in [exact.objective, rescored] {
            prop_assert!(
                (got - want).abs() <= 1e-9 * got.abs().max(want.abs()),
                "exact {got} != brute force {want} at γ = {gamma}, λ = {lambda} on {inst:?}"
            );
        }
    }

    /// The SA-CA-CC strategy achieves an SA-CA-CC score no worse than
    /// scoring CC's winner under SA-CA-CC would suggest... specifically,
    /// among materialized winners, the SA-CA-CC-driven search should not
    /// lose to the CC-driven search by more than numerical noise *on its
    /// own objective* in the top-k pool.
    #[test]
    fn objective_driven_search_beats_cc_on_its_objective(inst in instance()) {
        let (g, idx, project) = build(&inst);
        let engine = Discovery::new(g, idx).unwrap();
        let strategy = Rank::SaCaCc { gamma: 0.6, lambda: 0.6 };
        let ours = engine.top_k(&project, strategy, 5).unwrap();
        let cc = engine.top_k(&project, Rank::Cc, 5).unwrap();
        let best_ours = ours
            .iter()
            .map(|t| strategy.objective(&t.score))
            .fold(f64::INFINITY, f64::min);
        let best_cc_rescored = cc
            .iter()
            .map(|t| strategy.objective(&t.score))
            .fold(f64::INFINITY, f64::min);
        // The greedy is a heuristic: allow slack, but catch gross
        // inversions (ranking by the objective should usually help).
        prop_assert!(
            best_ours <= best_cc_rescored + 0.75,
            "SA-CA-CC search ({best_ours}) grossly lost to CC search \
             ({best_cc_rescored}) on its own objective"
        );
    }

    /// Pareto front of the strategy sweep contains no dominated team and
    /// covers the project.
    #[test]
    fn pareto_front_is_clean(inst in instance()) {
        let (g, idx, project) = build(&inst);
        let engine = Discovery::new(g, idx).unwrap();
        let front =
            atd_core::pareto::discover_pareto(&engine, &project, &[0.3, 0.7], 3).unwrap();
        prop_assert!(!front.is_empty());
        for a in &front {
            prop_assert!(a.team.covers(&project));
            for b in &front {
                if a.team.member_key() == b.team.member_key() { continue; }
                let dominates = a.score.cc <= b.score.cc
                    && a.score.ca <= b.score.ca
                    && a.score.sa <= b.score.sa
                    && (a.score.cc < b.score.cc
                        || a.score.ca < b.score.ca
                        || a.score.sa < b.score.sa);
                prop_assert!(!dominates, "front has a dominated member");
            }
        }
    }
}
