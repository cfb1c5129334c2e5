//! Integration tests for the paper's baselines across crates: Exact
//! lower-bounds every heuristic; Random converges toward the greedy with
//! enough trials; the Problem 4 polynomial solver is SA-optimal.

use rand::rngs::StdRng;
use rand::SeedableRng;
use team_discovery::core::exact::ExactTeamFinder;
use team_discovery::core::objectives::ObjectiveWeights;
use team_discovery::core::random::RandomTeamFinder;
use team_discovery::core::sa_only::best_sa_team;
use team_discovery::core::strategy::Strategy;
use team_discovery::core::DiscoveryError;
use team_discovery::dblp::graph_build::{BuildConfig, ExpertNetwork};
use team_discovery::dblp::synth::{SynthConfig, SynthCorpus};
use team_discovery::prelude::*;

fn network(seed: u64, authors: usize) -> ExpertNetwork {
    let synth = SynthCorpus::generate(&SynthConfig {
        num_authors: authors,
        seed,
        ..SynthConfig::default()
    });
    ExpertNetwork::build(synth.corpus, &BuildConfig::default()).expect("network")
}

fn pick_project(net: &ExpertNetwork, skills: usize, max_holders: usize) -> Project {
    let pool: Vec<_> = net
        .skills
        .skills_with_min_holders(2)
        .into_iter()
        .filter(|&s| net.skills.holders(s).len() <= max_holders)
        .collect();
    assert!(pool.len() >= skills, "workload pool too small");
    Project::new(pool[..skills].to_vec())
}

#[test]
fn exact_lower_bounds_greedy_and_random_on_dblp_graph() {
    let net = network(55, 300);
    let project = pick_project(&net, 3, 12);
    let (gamma, lambda) = (0.6, 0.6);
    let weights = ObjectiveWeights::new(gamma, lambda).unwrap();

    let exact = ExactTeamFinder::new(&net.graph, &net.skills, weights)
        .best(&project)
        .expect("exact");

    let engine = Discovery::new(net.graph.clone(), net.skills.clone()).expect("engine");
    let greedy = engine
        .best(&project, Strategy::SaCaCc { gamma, lambda })
        .expect("greedy");
    let random = RandomTeamFinder::new(&net.graph, &net.skills)
        .best_of(&project, weights, 300, &mut StdRng::seed_from_u64(5))
        .expect("random");

    assert!(exact.objective <= greedy.objective + 1e-9);
    assert!(exact.objective <= random.objective + 1e-9);
    assert!(exact.team.covers(&project));
    exact.team.tree.validate().unwrap();
}

#[test]
fn greedy_is_close_to_exact_like_figure3() {
    // The paper's headline: "SA-CA-CC produces results that are close to
    // those of Exact". Check the gap on several small projects.
    let net = network(77, 250);
    let engine = Discovery::new(net.graph.clone(), net.skills.clone()).expect("engine");
    let (gamma, lambda) = (0.6, 0.4);
    let weights = ObjectiveWeights::new(gamma, lambda).unwrap();

    let pool: Vec<_> = net
        .skills
        .skills_with_min_holders(2)
        .into_iter()
        .filter(|&s| net.skills.holders(s).len() <= 10)
        .collect();
    let mut checked = 0;
    let mut total_ratio = 0.0;
    for chunk in pool.chunks(3).take(4) {
        if chunk.len() < 3 {
            continue;
        }
        let project = Project::new(chunk.to_vec());
        let exact = match ExactTeamFinder::new(&net.graph, &net.skills, weights).best(&project) {
            Ok(e) => e,
            Err(DiscoveryError::NoTeamFound) => continue, // holders in different components
            Err(e) => panic!("exact failed on {project:?}: {e}"),
        };
        let Ok(greedy) = engine.best(&project, Strategy::SaCaCc { gamma, lambda }) else {
            continue;
        };
        assert!(exact.objective <= greedy.objective + 1e-9);
        if exact.objective > 1e-9 {
            total_ratio += greedy.objective / exact.objective;
            checked += 1;
        }
    }
    assert!(checked >= 2, "need at least two comparable projects");
    let avg_ratio = total_ratio / checked as f64;
    assert!(
        avg_ratio < 2.0,
        "greedy should stay in the same ballpark as exact (avg ratio {avg_ratio:.2})"
    );
}

#[test]
fn random_improves_with_trials_and_stays_behind_greedy_mostly() {
    let net = network(99, 300);
    let project = pick_project(&net, 4, 20);
    let weights = ObjectiveWeights::new(0.6, 0.6).unwrap();
    let finder = RandomTeamFinder::new(&net.graph, &net.skills);

    let few = finder
        .best_of(&project, weights, 10, &mut StdRng::seed_from_u64(1))
        .expect("few");
    let many = finder
        .best_of(&project, weights, 1000, &mut StdRng::seed_from_u64(1))
        .expect("many");
    assert!(many.objective <= few.objective + 1e-12);
}

#[test]
fn gamma_one_solves_problem_two_connector_authority() {
    // §3.2.2: "setting γ = 1 solves Problem 2, i.e., optimizes CA."
    // Exact at (γ=1, λ=0) is the CA optimum; the greedy CA-CC at γ=1 must
    // lower-bound it from above and produce teams whose connectors carry
    // high authority.
    let net = network(31, 280);
    let project = pick_project(&net, 3, 10);
    let weights = ObjectiveWeights::new(1.0, 0.0).unwrap();
    let exact = ExactTeamFinder::new(&net.graph, &net.skills, weights)
        .best(&project)
        .expect("exact CA optimum");
    let engine = Discovery::new(net.graph.clone(), net.skills.clone()).expect("engine");
    let greedy = engine
        .best(&project, Strategy::CaCc { gamma: 1.0 })
        .expect("greedy CA");
    // Objective under Problem 2 is CA alone.
    assert!(exact.score.ca <= greedy.score.ca + 1e-9);
    assert!(exact.team.covers(&project));
}

#[test]
fn replacement_repairs_discovered_teams_on_dblp_graph() {
    use team_discovery::core::replacement::ReplacementFinder;
    let net = network(62, 300);
    let project = pick_project(&net, 4, 20);
    let strategy = Strategy::SaCaCc {
        gamma: 0.6,
        lambda: 0.6,
    };
    let engine = Discovery::new(net.graph.clone(), net.skills.clone()).expect("engine");
    let best = engine.best(&project, strategy).expect("team");
    let finder = ReplacementFinder::new(&net.graph, &net.skills);

    let mut repaired_any = false;
    for &member in best.team.members() {
        match finder.recommend(&best.team, member, strategy, 2) {
            Ok(repairs) => {
                repaired_any = true;
                for r in &repairs {
                    assert!(!r.team.members().contains(&member));
                    assert!(r.team.covers(&project));
                    r.team.tree.validate().unwrap();
                }
            }
            Err(e) => {
                // Only acceptable failure: the member is irreplaceable or
                // the team disconnects without them.
                assert!(
                    matches!(e, DiscoveryError::NoTeamFound),
                    "unexpected error {e}"
                );
            }
        }
    }
    assert!(repaired_any, "at least one member should be replaceable");
}

#[test]
fn sa_only_solver_matches_exact_at_lambda_one() {
    let net = network(11, 250);
    let project = pick_project(&net, 3, 10);
    let sa = best_sa_team(&net.graph, &net.skills, &project);
    let exact = ExactTeamFinder::new(
        &net.graph,
        &net.skills,
        ObjectiveWeights::new(0.6, 1.0).unwrap(),
    )
    .best(&project);

    match (sa, exact) {
        (Ok(sa), Ok(exact)) => {
            // At λ=1 the objective is pure SA; the polynomial solver picks
            // per-skill argmins, which is exactly optimal.
            assert!(
                (sa.score.sa - exact.score.sa).abs() < 1e-9,
                "SA solver {} vs exact {}",
                sa.score.sa,
                exact.score.sa
            );
        }
        (Err(a), Err(b)) => assert_eq!(a, b, "both should fail the same way"),
        (a, b) => panic!("solver disagreement: {a:?} vs {b:?}"),
    }
}
