#![warn(missing_docs)]

//! # team-discovery — authority-based team discovery in social networks
//!
//! Umbrella crate for the reproduction of *Authority-Based Team Discovery in
//! Social Networks* (Zihayat, An, Golab, Kargar, Szlichta — EDBT 2017).
//!
//! Given an expert network — an undirected graph whose nodes are experts
//! with an **authority** score (e.g. h-index) and whose edges carry a
//! **communication cost** — and a project (a set of required skills), the
//! library finds teams: connected subtrees whose members cover every skill.
//! Teams are ranked by one of three objectives:
//!
//! * **CC** — communication cost only (prior state of the art),
//! * **CA-CC** — connector authority blended with communication cost
//!   (tradeoff `γ`),
//! * **SA-CA-CC** — skill-holder authority blended with CA-CC
//!   (tradeoff `λ`).
//!
//! The combined objectives are NP-hard; the library implements the paper's
//! greedy Algorithm 1 over a pruned-landmark-labeling distance oracle, plus
//! the `Random` and `Exact` baselines used in the paper's evaluation and a
//! Pareto-front extension.
//!
//! ## Quickstart
//!
//! ```
//! use team_discovery::prelude::*;
//!
//! // Build a toy expert network: authority = h-index.
//! let mut b = GraphBuilder::new();
//! let ana = b.add_node(12.0);
//! let bob = b.add_node(3.0);
//! let carol = b.add_node(25.0); // a well-connected senior researcher
//! let dave = b.add_node(5.0);
//! b.add_edge(ana, carol, 0.4).unwrap();
//! b.add_edge(bob, carol, 0.5).unwrap();
//! b.add_edge(carol, dave, 0.3).unwrap();
//! b.add_edge(ana, bob, 0.9).unwrap();
//! let graph = b.build().unwrap();
//!
//! // Skills: who can do what.
//! let mut skills = SkillIndexBuilder::new();
//! let ml = skills.intern("machine-learning");
//! let db = skills.intern("databases");
//! skills.grant(ana, ml);
//! skills.grant(bob, db);
//! skills.grant(dave, db);
//! let skills = skills.build(graph.num_nodes());
//!
//! // Discover the best team for a two-skill project.
//! let engine = Discovery::new(graph, skills).unwrap();
//! let project = Project::new(vec![ml, db]);
//! let teams = engine
//!     .top_k(&project, Strategy::SaCaCc { gamma: 0.6, lambda: 0.6 }, 1)
//!     .unwrap();
//! assert!(teams[0].team.covers(&project));
//! ```
//!
//! See `examples/` for end-to-end scenarios including the full synthetic
//! DBLP pipeline, and `crates/eval` for the experiment harness that
//! regenerates every figure of the paper.

pub use atd_core as core;
pub use atd_dblp as dblp;
pub use atd_distance as distance;
pub use atd_graph as graph;

/// Convenience re-exports covering the common workflow.
pub mod prelude {
    pub use atd_core::exact::ExactTeamFinder;
    pub use atd_core::greedy::Discovery;
    pub use atd_core::objectives::{ObjectiveWeights, TeamScore};
    pub use atd_core::pareto::pareto_front;
    pub use atd_core::random::RandomTeamFinder;
    pub use atd_core::skills::{Project, SkillId, SkillIndex, SkillIndexBuilder};
    pub use atd_core::strategy::Strategy;
    pub use atd_core::team::{ScoredTeam, Team};
    pub use atd_dblp::graph_build::ExpertNetwork;
    pub use atd_dblp::synth::{SynthConfig, SynthCorpus};
    pub use atd_graph::{ExpertGraph, GraphBuilder, NodeId};
}
