//! The incremental maintainer's contract: for ANY random graph and ANY
//! random mutation sequence (edge relaxations and edge insertions, via
//! the real `GraphDelta` machinery), after every prefix of mutations the
//! incrementally refreshed index is **bit-identical** to a from-scratch
//! sequential build on the mutated graph — same ranks, same f64 bit
//! patterns, same label-plane bytes. When `refresh` refuses a delta
//! (order change, blown budget), the test rebuilds from scratch and
//! keeps composing — exactly the fallback contract of the serving layer.

use atd_distance::incremental::refresh;
use atd_distance::order::VertexOrder;
use atd_distance::{BuildConfig, DistanceOracle, PrunedLandmarkLabeling};
use atd_graph::{ExpertGraph, GraphBuilder, GraphDelta, NodeId};
use proptest::prelude::*;

fn random_graph() -> impl Strategy<Value = (usize, Vec<(u32, u32, f64)>)> {
    (3usize..20).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n as u32, 0..n as u32, 0.05f64..5.0), 1..40);
        (Just(n), edges)
    })
}

/// One mutation: lower an existing edge multiplicatively, or reinforce a
/// (possibly new) pair at a low cost.
fn mutations() -> impl Strategy<Value = Vec<(u32, u32, u32, f64, bool)>> {
    proptest::collection::vec(
        (
            0u32..1000,
            0u32..1000,
            0u32..1000,
            0.3f64..0.9,
            any::<bool>(),
        ),
        1..7,
    )
}

fn build(n: usize, edges: &[(u32, u32, f64)]) -> ExpertGraph {
    let mut b = GraphBuilder::new();
    for i in 0..n {
        b.add_node(1.0 + (i % 7) as f64);
    }
    for &(u, v, w) in edges {
        if u != v {
            b.add_edge(NodeId(u), NodeId(v), w).unwrap();
        }
    }
    b.build().unwrap()
}

/// Bitwise equality across entries AND label-plane bytes.
fn bit_identical(a: &PrunedLandmarkLabeling, b: &PrunedLandmarkLabeling) -> Result<(), String> {
    if a.num_nodes() != b.num_nodes() {
        return Err("node counts differ".into());
    }
    for v in 0..a.num_nodes() {
        let la: Vec<_> = a.labels().entries(v).collect();
        let lb: Vec<_> = b.labels().entries(v).collect();
        if la.len() != lb.len() {
            return Err(format!("node {v}: {} vs {} entries", la.len(), lb.len()));
        }
        for (i, (x, y)) in la.iter().zip(&lb).enumerate() {
            if x.hub_rank != y.hub_rank {
                return Err(format!(
                    "node {v} entry {i}: rank {} vs {}",
                    x.hub_rank, y.hub_rank
                ));
            }
            if x.dist.to_bits() != y.dist.to_bits() {
                return Err(format!("node {v} entry {i}: dist {} vs {}", x.dist, y.dist));
            }
        }
    }
    if a.stats().bytes != b.stats().bytes {
        return Err(format!(
            "label bytes differ: {} vs {}",
            a.stats().bytes,
            b.stats().bytes
        ));
    }
    Ok(())
}

/// Turns one mutation tuple into the next graph via `apply_delta`, or
/// `None` when the op degenerates (self-loop pick on an edgeless graph).
fn mutate(g: &ExpertGraph, m: (u32, u32, u32, f64, bool)) -> Option<ExpertGraph> {
    let (pick, a, b, factor, reinforce_pair) = m;
    let n = g.num_nodes() as u32;
    let mut delta = GraphDelta::new();
    if reinforce_pair {
        let (u, v) = (a % n, b % n);
        if u == v {
            return None;
        }
        delta.reinforce_edge(NodeId(u), NodeId(v), factor);
    } else {
        let edges: Vec<_> = g.edges().collect();
        if edges.is_empty() {
            return None;
        }
        let (u, v, w) = edges[pick as usize % edges.len()];
        delta.reinforce_edge(u, v, w * factor);
    }
    Some(g.apply_delta(&delta).expect("valid mutation"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// refresh == scratch rebuild, bitwise, after every mutation prefix.
    /// A generous hub budget keeps the incremental path engaged; refusals
    /// (e.g. an insertion that reshuffles the vertex order) fall back to
    /// a scratch build and composition continues from there.
    #[test]
    fn refresh_is_bit_identical_after_every_prefix(
        (n, edges) in random_graph(),
        muts in mutations(),
    ) {
        let config = BuildConfig {
            incremental_hub_budget: Some(10_000),
            ..BuildConfig::default()
        };
        let mut cur = build(n, &edges);
        let mut pll = PrunedLandmarkLabeling::build_with_config(
            &cur,
            VertexOrder::DegreeDescending,
            &config,
        );
        for &m in &muts {
            let Some(next) = mutate(&cur, m) else { continue };
            let scratch = PrunedLandmarkLabeling::build_with_config(
                &next,
                VertexOrder::DegreeDescending,
                &config,
            );
            match refresh(&pll, &cur, &next, VertexOrder::DegreeDescending, &config) {
                Ok((inc, _report)) => {
                    let res = bit_identical(&inc, &scratch);
                    prop_assert!(res.is_ok(), "{}", res.unwrap_err());
                    pll = inc;
                }
                Err(_) => pll = scratch,
            }
            cur = next;
        }
    }

    /// The default (tight) hub budget: whatever path each step takes,
    /// every pairwise distance answered by the composed index matches a
    /// scratch build exactly — the fallback contract end to end.
    #[test]
    fn default_budget_composition_answers_exactly(
        (n, edges) in random_graph(),
        muts in mutations(),
    ) {
        let config = BuildConfig::default();
        let mut cur = build(n, &edges);
        let mut pll = PrunedLandmarkLabeling::build_with_config(
            &cur,
            VertexOrder::DegreeDescending,
            &config,
        );
        for &m in &muts {
            let Some(next) = mutate(&cur, m) else { continue };
            pll = match refresh(&pll, &cur, &next, VertexOrder::DegreeDescending, &config) {
                Ok((inc, _)) => inc,
                Err(_) => PrunedLandmarkLabeling::build_with_config(
                    &next,
                    VertexOrder::DegreeDescending,
                    &config,
                ),
            };
            cur = next;
        }
        let scratch = PrunedLandmarkLabeling::build_with_config(
            &cur,
            VertexOrder::DegreeDescending,
            &config,
        );
        for u in cur.nodes() {
            for v in cur.nodes() {
                let a = pll.distance(u, v);
                let b = scratch.distance(u, v);
                prop_assert_eq!(
                    a.map(f64::to_bits),
                    b.map(f64::to_bits),
                    "({:?},{:?})", u, v
                );
            }
        }
    }
}
