#![warn(missing_docs)]

//! # atd-distance — shortest-path distance oracles
//!
//! Algorithm 1 of *Authority-Based Team Discovery in Social Networks*
//! evaluates `DIST(root, v)` for every candidate root × every holder of
//! every required skill. The paper answers these queries in (near) constant
//! time with *distance labeling / 2-hop cover* — specifically **pruned
//! landmark labeling** (Akiba, Iwata, Yoshida; SIGMOD 2013, the paper's
//! reference \[1\]). This crate implements:
//!
//! * [`PrunedLandmarkLabeling`] — a weighted-graph PLL index: for each node
//!   a small sorted list of `(hub, distance)` labels such that every
//!   shortest path is covered by some common hub. Labels live in one flat
//!   CSR [`LabelSet`] (per-node offsets into parallel hub-rank and
//!   distance arrays); pairwise queries are a merge-join over two label
//!   slices. Construction is the sequential algorithm, one pruned
//!   Dijkstra per hub in rank order, on the caller's thread.
//! * [`SourceScatter`] — the one-to-many query engine: scatter a source's
//!   label once, then answer each target in `O(|label(target)|)` with no
//!   merge. This is what makes Algorithm 1's root scan fast — one scatter
//!   per candidate root, `t·|C(s)|` direct-indexed lookups.
//! * [`DijkstraOracle`] — the ground-truth oracle (memoized single-source
//!   Dijkstra), used for validation, benchmarks and as a fallback for
//!   workloads with few distinct roots.
//! * [`DistanceOracle`] — the trait both implement, which the team-formation
//!   crate is generic over.
//! * [`persist`] — versioned on-disk persistence for a built index:
//!   `save_to` / `load_from` with a snapshot fingerprint and hardened
//!   untrusted-byte validation, so restart cost is `O(index bytes)`
//!   instead of `O(graph rebuild)`. Every caller handles a failed load
//!   or save itself (rebuild, a strict-load error, or a recorded
//!   warning); std already retries interrupted reads and writes.
//! * [`incremental`] — patches a built index after a distance-lowering
//!   graph delta, bit-identical to a rebuild on the new graph.
//!
//! Vertex ordering matters enormously for PLL label sizes; [`order`]
//! provides the degree-descending heuristic recommended by Akiba et al. for
//! social networks.

pub mod dijkstra_oracle;
pub mod incremental;
pub mod label;
pub mod oracle;
pub mod order;
pub mod persist;
pub mod pll;
pub mod scatter;

pub use dijkstra_oracle::DijkstraOracle;
pub use incremental::{refresh, IncrementalError, IncrementalReport};
pub use label::{LabelEntry, LabelRef, LabelSet, LabelSetBuilder, LabelStats};
pub use oracle::DistanceOracle;
pub use order::{degree_descending_order, VertexOrder};
pub use persist::{
    atomic_write, graph_fingerprint, sweep_orphaned_tmp_dir, PersistError, SnapshotFingerprint,
};
pub use pll::{BuildConfig, PrunedLandmarkLabeling};
pub use scatter::SourceScatter;
