//! Shared fixture: a synthetic-DBLP expert network and deterministic
//! query workload, built without atd-eval (which depends on this crate).
// Each test binary uses a different subset of these helpers.
#![allow(dead_code)]

use atd_core::greedy::{Discovery, DiscoveryOptions};
use atd_core::{Project, SkillId, Strategy};
use atd_dblp::graph_build::{BuildConfig, ExpertNetwork};
use atd_dblp::synth::{SynthConfig, SynthCorpus};

/// Builds a test-scale network; `seed` varies the corpus so different
/// snapshots really differ.
pub fn network(seed: u64) -> ExpertNetwork {
    let cfg = SynthConfig {
        seed,
        ..SynthConfig::tiny()
    };
    let synth = SynthCorpus::generate(&cfg);
    ExpertNetwork::build(synth.corpus, &BuildConfig::default()).expect("synth network builds")
}

/// A deterministic single-threaded engine over `net`'s graph.
pub fn engine_from(net: &ExpertNetwork, options: DiscoveryOptions) -> Discovery {
    Discovery::with_options(net.graph.clone(), net.skills.clone(), options).expect("engine builds")
}

pub fn engine(net: &ExpertNetwork) -> Discovery {
    engine_from(net, DiscoveryOptions::default())
}

/// Deterministic projects over well-covered skills: consecutive pairs of
/// the most-held skills, so every project is coverable and non-trivial.
pub fn projects(net: &ExpertNetwork, count: usize) -> Vec<Project> {
    let mut by_holders: Vec<(usize, SkillId)> = (0..net.skills.num_skills())
        .map(|i| {
            let s = SkillId(i as u32);
            (net.skills.holders(s).len(), s)
        })
        .filter(|&(h, _)| h >= 2)
        .collect();
    by_holders.sort_by(|a, b| b.0.cmp(&a.0).then(a.1 .0.cmp(&b.1 .0)));
    assert!(
        by_holders.len() >= 3,
        "synth corpus must produce multi-holder skills"
    );
    (0..count)
        .map(|i| {
            let a = by_holders[i % by_holders.len()].1;
            let b = by_holders[(i + 1) % by_holders.len()].1;
            Project::new(if a == b { vec![a] } else { vec![a, b] })
        })
        .collect()
}

/// The strategy mix the tests cycle through.
pub fn strategies() -> [Strategy; 3] {
    [
        Strategy::Cc,
        Strategy::CaCc { gamma: 0.5 },
        Strategy::SaCaCc {
            gamma: 0.5,
            lambda: 0.5,
        },
    ]
}

/// Asserts two result lists are bit-identical (member keys and exact
/// float bits of both scores).
pub fn assert_bit_identical(a: &[atd_core::ScoredTeam], b: &[atd_core::ScoredTeam], context: &str) {
    assert_eq!(a.len(), b.len(), "{context}: result count");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.team.member_key(), y.team.member_key(), "{context}");
        assert_eq!(x.objective.to_bits(), y.objective.to_bits(), "{context}");
        assert_eq!(
            x.algorithm_cost.to_bits(),
            y.algorithm_cost.to_bits(),
            "{context}"
        );
    }
}
