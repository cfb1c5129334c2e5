#![warn(missing_docs)]

//! # atd-core — authority-based team discovery
//!
//! The primary contribution of *Authority-Based Team Discovery in Social
//! Networks* (Zihayat et al., EDBT 2017), implemented over the
//! [`atd_graph`] substrate and the [`atd_distance`] oracles.
//!
//! ## The problems
//!
//! Given an expert network `G` (edge weights = communication cost, node
//! weights = authority `a`, inverted to `a' = 1/a` so everything is a
//! minimization) and a project `P` (a set of required skills), find a
//! connected subtree `T` whose nodes cover `P`, minimizing:
//!
//! | Problem | Objective |
//! |---------|-----------|
//! | 1 (prior work) | `CC(T)` — sum of tree edge weights |
//! | 2 | `CA(T)` — sum of `a'` over **connectors** (non-holders) |
//! | 3 | `CA-CC = γ·CA + (1−γ)·CC` |
//! | 4 (poly-time) | `SA(T)` — sum of `a'` over skill holders |
//! | 5 | `SA-CA-CC = λ·SA + (1−λ)·CA-CC` |
//!
//! Problems 1, 2, 3, 5 are NP-hard (Theorems 1–3 of the paper); this crate
//! implements the paper's greedy Algorithm 1 ([`greedy::Discovery`])
//! together with the `G → G'` authority transform ([`transform`]) that lets
//! one algorithm serve all objectives, the paper's evaluation baselines
//! ([`random`], [`exact`]), the polynomial solver for Problem 4
//! ([`sa_only`]), and the Pareto-front extension sketched in the paper's
//! conclusion ([`pareto`]).

pub mod cancel;
pub mod error;
pub mod exact;
pub mod greedy;
pub mod normalize;
pub mod objectives;
pub mod pareto;
pub mod random;
pub mod replacement;
pub mod sa_only;
pub mod skills;
pub mod strategy;
pub mod team;
pub mod topk;
pub mod transform;

pub use cancel::CancelToken;
pub use error::DiscoveryError;
pub use exact::ExactTeamFinder;
pub use greedy::{Discovery, DiscoveryOptions, PartialResult, QueryScratch};
pub use normalize::Normalization;
pub use objectives::{ObjectiveWeights, TeamScore};
pub use pareto::pareto_front;
pub use random::RandomTeamFinder;
pub use skills::{Project, SkillId, SkillIndex, SkillIndexBuilder};
pub use strategy::Strategy;
pub use team::{ScoredTeam, Team};
pub use transform::authority_transform;
