//! The parallel builder's contract: for ANY thread count and batch size,
//! the batch-synchronous build produces a label set **bit-identical** to
//! the sequential algorithm's — same ranks, same distances down to the
//! f64 bit pattern — on arbitrary weighted graphs, including disconnected
//! ones. Plus the end-to-end check: those labels answer every pairwise
//! distance exactly like the Dijkstra oracle.

use atd_distance::order::VertexOrder;
use atd_distance::{BuildConfig, DijkstraOracle, DistanceOracle, PrunedLandmarkLabeling};
use atd_graph::{GraphBuilder, NodeId};
use proptest::prelude::*;

fn random_graph() -> impl Strategy<Value = (usize, Vec<(u32, u32, f64)>)> {
    (2usize..24).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n as u32, 0..n as u32, 0.01f64..5.0), 0..50);
        (Just(n), edges)
    })
}

fn build(n: usize, edges: &[(u32, u32, f64)]) -> atd_graph::ExpertGraph {
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

/// Bitwise label equality (ranks and f64 bit patterns per node).
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
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Parallel == sequential, bitwise, across thread counts {1, 2, 4} and
    /// a spread of batch sizes (1 = degenerate, small odd sizes stress the
    /// round-robin shard assignment, 64 covers the single-batch case).
    #[test]
    fn parallel_build_is_bit_identical((n, edges) in random_graph()) {
        let g = build(n, &edges);
        let seq = PrunedLandmarkLabeling::build_with_config(
            &g,
            VertexOrder::DegreeDescending,
            &BuildConfig::sequential(),
        );
        for &threads in &[1usize, 2, 4] {
            for &batch_size in &[1usize, 2, 3, 7, 64] {
                let par = PrunedLandmarkLabeling::build_with_config(
                    &g,
                    VertexOrder::DegreeDescending,
                    &BuildConfig { threads: Some(threads), batch_size, ..BuildConfig::default() },
                );
                let res = bit_identical(&seq, &par);
                prop_assert!(
                    res.is_ok(),
                    "threads={} batch_size={}: {}",
                    threads, batch_size, res.unwrap_err()
                );
            }
        }
    }

    /// The parallel build is not just self-consistent — it answers every
    /// pairwise query exactly like the ground-truth Dijkstra oracle.
    #[test]
    fn parallel_build_matches_dijkstra((n, edges) in random_graph()) {
        let g = build(n, &edges);
        let par = PrunedLandmarkLabeling::build_with_config(
            &g,
            VertexOrder::DegreeDescending,
            &BuildConfig { threads: Some(4), batch_size: 5, ..BuildConfig::default() },
        );
        let dij = DijkstraOracle::new(&g);
        for u in g.nodes() {
            for v in g.nodes() {
                match (par.distance(u, v), dij.distance(u, v)) {
                    (Some(x), Some(y)) =>
                        prop_assert!((x - y).abs() < 1e-9, "({u},{v}): {x} vs {y}"),
                    (x, y) => prop_assert_eq!(x, y, "({:?},{:?})", u, v),
                }
            }
        }
    }

    /// The authority ordering goes through the same parallel machinery.
    #[test]
    fn parallel_authority_order_is_bit_identical((n, edges) in random_graph()) {
        let g = build(n, &edges);
        let seq = PrunedLandmarkLabeling::build_with_config(
            &g,
            VertexOrder::AuthorityDescending,
            &BuildConfig::sequential(),
        );
        let par = PrunedLandmarkLabeling::build_with_config(
            &g,
            VertexOrder::AuthorityDescending,
            &BuildConfig { threads: Some(2), batch_size: 4, ..BuildConfig::default() },
        );
        let res = bit_identical(&seq, &par);
        prop_assert!(res.is_ok(), "{}", res.unwrap_err());
    }
}
