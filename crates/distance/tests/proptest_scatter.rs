//! The contract of the one-to-many query engine: scatter-based distances
//! are **bit-identical** to the pairwise merge-join on arbitrary weighted
//! graphs — same finite values, same `INFINITY` for disconnected pairs,
//! same `u == v` behavior — under every vertex ordering, on labels fresh
//! from the build or re-read from disk, and for every source in sequence
//! on one reused scratch (reload must fully erase the previous source).

use atd_distance::order::VertexOrder;
use atd_distance::{
    graph_fingerprint, DistanceOracle, LabelSet, PrunedLandmarkLabeling, SourceScatter,
};
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
        b.add_node(1.0 + (i % 5) as f64);
    }
    for &(u, v, w) in edges {
        if u != v {
            b.add_edge(NodeId(u), NodeId(v), w).unwrap();
        }
    }
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Scatter == merge-join, to the bit, on every ordered pair. Covers
    /// `u == v` and disconnected pairs (random sparse graphs regularly
    /// split into components).
    #[test]
    fn scatter_equals_merge_join((n, edges) in random_graph()) {
        let g = build(n, &edges);
        let pll = PrunedLandmarkLabeling::build(&g);
        let labels = pll.labels();
        let mut scatter = SourceScatter::for_labels(labels);
        for u in 0..g.num_nodes() {
            scatter.load(labels, u);
            for v in 0..g.num_nodes() {
                let one_to_many = scatter.distance(labels, v);
                let merge = labels.query(u, v);
                prop_assert_eq!(
                    one_to_many.to_bits(),
                    merge.to_bits(),
                    "({},{}): scatter {} vs merge-join {}",
                    u, v, one_to_many, merge
                );
            }
        }
    }

    /// The `Option`-level wrapper agrees with the oracle's pairwise
    /// `distance`, including `Some(0.0)` on the diagonal and `None` across
    /// components.
    #[test]
    fn query_one_to_many_equals_distance((n, edges) in random_graph()) {
        let g = build(n, &edges);
        let pll = PrunedLandmarkLabeling::build(&g);
        let mut scatter = pll.scatter();
        for u in g.nodes() {
            pll.load_source(&mut scatter, u);
            for v in g.nodes() {
                let batched = pll.query_one_to_many(&scatter, v);
                let pairwise = pll.distance(u, v);
                prop_assert_eq!(
                    batched.map(f64::to_bits),
                    pairwise.map(f64::to_bits),
                    "({},{}): batched {:?} vs pairwise {:?}",
                    u, v, batched, pairwise
                );
            }
        }
    }

    /// The one label storage (flat CSR) answers the same whether fresh
    /// from the build or re-read from its on-disk bytes: the scatter over
    /// either copy is bit-identical, and each matches the pairwise
    /// merge-join.
    #[test]
    fn scatter_is_storage_independent((n, edges) in random_graph()) {
        let g = build(n, &edges);
        let pll = PrunedLandmarkLabeling::build(&g);
        let built = pll.labels();
        let hash = graph_fingerprint(&g);
        let loaded = LabelSet::from_bytes(&built.to_bytes(hash), g.num_nodes(), hash)
            .unwrap_or_else(|err| panic!("{err}"));
        let mut sc_built = SourceScatter::for_labels(built);
        let mut sc_loaded = SourceScatter::for_labels(&loaded);
        for u in 0..g.num_nodes() {
            sc_built.load(built, u);
            sc_loaded.load(&loaded, u);
            for v in 0..g.num_nodes() {
                let a = sc_built.distance(built, v);
                let b = sc_loaded.distance(&loaded, v);
                prop_assert_eq!(
                    a.to_bits(), b.to_bits(),
                    "({},{}): built {} vs loaded {}", u, v, a, b
                );
                let pairwise = loaded.query(u, v);
                prop_assert_eq!(
                    pairwise.to_bits(), b.to_bits(),
                    "({},{}): loaded merge {} vs scatter {}", u, v, pairwise, b
                );
            }
        }
    }

    /// Ordering only changes label sizes, never one-to-many answers.
    #[test]
    fn scatter_is_order_independent((n, edges) in random_graph()) {
        let g = build(n, &edges);
        let base = PrunedLandmarkLabeling::build(&g);
        let alt =
            PrunedLandmarkLabeling::build_with_order(&g, VertexOrder::AuthorityDescending);
        let mut sc_base = base.scatter();
        let mut sc_alt = alt.scatter();
        for u in g.nodes() {
            base.load_source(&mut sc_base, u);
            alt.load_source(&mut sc_alt, u);
            for v in g.nodes() {
                let (a, b) = (
                    base.query_one_to_many(&sc_base, v),
                    alt.query_one_to_many(&sc_alt, v),
                );
                match (a, b) {
                    (Some(x), Some(y)) => prop_assert!(
                        (x - y).abs() < 1e-9,
                        "({},{}): {} vs {}", u, v, x, y
                    ),
                    (x, y) => prop_assert_eq!(x, y),
                }
            }
        }
    }
}
