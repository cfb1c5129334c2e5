//! Pruned landmark labeling (2-hop cover) for weighted graphs.
//!
//! Construction (Akiba et al., SIGMOD 2013, generalized to non-negative
//! edge weights): process vertices in a centrality order; for the vertex
//! `h` of rank `k`, run a **pruned Dijkstra** from `h`. When a node `u` is
//! settled at distance `d`, first ask the labels built so far whether some
//! earlier hub already certifies `dist(h, u) <= d`; if so, prune (neither
//! label `u` nor expand it). Otherwise append `(k, d)` to `u`'s label and
//! expand. The resulting labels form a 2-hop cover: for every pair
//! `(u, v)`, some hub on a shortest `u`–`v` path appears in both labels, so
//! the merge-join query returns the exact distance.
//!
//! The build runs on the caller's thread, one hub at a time in rank
//! order, as the algorithm is stated: parallelism belongs to callers with
//! independent work, such as the serve worker pool.

use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

use atd_graph::{ExpertGraph, MinHeapEntry, NodeId, TotalF64};

use crate::label::{LabelEntry, LabelSet, LabelSetBuilder, LabelStats};
use crate::oracle::DistanceOracle;
use crate::order::{compute_order, VertexOrder};
use crate::scatter::SourceScatter;

/// Index settings. Construction itself has none: the labels depend only
/// on the graph and the vertex order.
///
/// ```
/// use atd_distance::BuildConfig;
/// // A tight incremental-refresh budget: deltas touching more than 8
/// // hubs fall back to a full rebuild.
/// let config = BuildConfig {
///     incremental_hub_budget: Some(8),
///     ..BuildConfig::default()
/// };
/// assert_eq!(config.threads, None);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BuildConfig {
    /// No effect: the build runs on the caller's thread whatever this
    /// says. Kept so callers that set it still compile.
    pub threads: Option<usize>,
    /// Maximum affected hubs an incremental refresh
    /// ([`crate::incremental::refresh`]) may re-search before bailing out
    /// to a full rebuild. `None` picks `max(64, n / 2)` — per-hub patch
    /// cost tracks per-hub build cost, so incremental wins below roughly
    /// half the hubs (a single-edge relax on the 2270-node DBLP testbed
    /// touches ≈840 hubs and must stay on the incremental path).
    /// `Some(0)` forces the fallback for every label-touching delta.
    pub incremental_hub_budget: Option<usize>,
}

/// Reusable Dijkstra state: tentative distances, settled marks, touched
/// list, heap, and the hub-label scatter for prune queries.
pub(crate) struct SearchScratch {
    dist: Vec<f64>,
    settled: Vec<bool>,
    touched: Vec<usize>,
    heap: BinaryHeap<MinHeapEntry>,
    scatter: SourceScatter,
}

impl SearchScratch {
    pub(crate) fn new(n: usize) -> Self {
        SearchScratch {
            dist: vec![f64::INFINITY; n],
            settled: vec![false; n],
            touched: Vec::new(),
            heap: BinaryHeap::new(),
            scatter: SourceScatter::new(n),
        }
    }

    /// Restores `dist`/`settled` to their pristine state (only the
    /// entries the last search touched).
    fn reset(&mut self) {
        for &t in &self.touched {
            self.dist[t] = f64::INFINITY;
            self.settled[t] = false;
        }
        self.touched.clear();
    }
}

/// The label state a pruned search consults: loading one hub's label into
/// the scatter, and evaluating the prune test's cover distance for a
/// settled node. The build implements this on [`LabelSetBuilder`]; the
/// incremental refresh ([`crate::incremental`]) implements it on a
/// rank-bounded view of decoded labels. Both must evaluate the **exact
/// same float expressions** — `min over entries of
/// `scatter.hub_distance(rank) + dist`` — since this is the float-critical
/// core of the bit-identical contract (min accumulation is pure
/// comparison, so entry iteration order is free).
pub(crate) trait PruneLabels {
    /// Loads `hub`'s current label into `scatter` for O(1) rank lookups.
    fn load_scatter(&self, scatter: &mut SourceScatter, hub: usize);
    /// The tightest distance an already-committed hub certifies between
    /// the scattered hub and `node` (`f64::INFINITY` when uncovered).
    fn covered(&self, scatter: &SourceScatter, node: usize) -> f64;
}

impl PruneLabels for LabelSetBuilder {
    #[inline]
    fn load_scatter(&self, scatter: &mut SourceScatter, hub: usize) {
        scatter.load_entries(hub, self.entries(hub));
    }

    #[inline]
    fn covered(&self, scatter: &SourceScatter, node: usize) -> f64 {
        let mut covered = f64::INFINITY;
        for e in self.entries(node) {
            let via = scatter.hub_distance(e.hub_rank) + e.dist;
            if via < covered {
                covered = via;
            }
        }
        covered
    }
}

/// One pruned Dijkstra from `hub` against the label state in `labels`,
/// emitting surviving `(node, dist)` candidates in settle order.
///
/// This is the algorithm's float-critical core: the build and the
/// incremental refresh both run this exact routine, so both evaluate
/// identical expressions over identical values — the root of the
/// bit-identical guarantee.
pub(crate) fn pruned_dijkstra<L: PruneLabels>(
    g: &ExpertGraph,
    hub: NodeId,
    labels: &L,
    scratch: &mut SearchScratch,
    mut emit: impl FnMut(u32, f64),
) {
    let SearchScratch {
        dist,
        settled,
        touched,
        heap,
        scatter,
    } = scratch;

    // Scatter the hub's current label for O(|label(u)|) prune queries.
    labels.load_scatter(scatter, hub.index());
    heap.clear();
    dist[hub.index()] = 0.0;
    touched.push(hub.index());
    heap.push(MinHeapEntry {
        dist: TotalF64::ZERO,
        node: hub,
    });

    while let Some(MinHeapEntry { dist: d, node: u }) = heap.pop() {
        let ui = u.index();
        if settled[ui] {
            continue;
        }
        settled[ui] = true;
        let d = d.get();

        // Prune: if an earlier hub already certifies a distance <= d
        // between `hub` and `u`, this entry is redundant.
        if labels.covered(scatter, ui) <= d {
            continue;
        }

        emit(ui as u32, d);

        for (v, w) in g.neighbors(u) {
            let vi = v.index();
            if settled[vi] {
                continue;
            }
            let nd = d + w;
            if nd < dist[vi] {
                if !dist[vi].is_finite() {
                    touched.push(vi);
                }
                dist[vi] = nd;
                heap.push(MinHeapEntry {
                    dist: TotalF64::expect(nd),
                    node: v,
                });
            }
        }
    }
    scratch.reset();
}

/// A built pruned-landmark-labeling index.
///
/// Queries are exact shortest-path distances; see
/// [`PrunedLandmarkLabeling::build`] for construction.
#[derive(Debug)]
pub struct PrunedLandmarkLabeling {
    labels: LabelSet,
    num_nodes: usize,
    build_time: Duration,
}

impl PrunedLandmarkLabeling {
    /// Builds the index with the default (degree-descending) vertex order.
    pub fn build(g: &ExpertGraph) -> Self {
        Self::build_with_order(g, VertexOrder::DegreeDescending)
    }

    /// Builds the index with an explicit vertex order: one pruned
    /// Dijkstra per hub in rank order, each committing before the next
    /// begins.
    pub fn build_with_order(g: &ExpertGraph, order_kind: VertexOrder) -> Self {
        let start = Instant::now();
        let n = g.num_nodes();
        // Labels grow grouped by hub; the builder journals them into flat
        // arenas and converts to CSR at the end (no per-node Vecs).
        let mut labels = LabelSetBuilder::new(n);
        let mut scratch = SearchScratch::new(n);
        let mut journal: Vec<(u32, f64)> = Vec::new();
        for (k, &hub) in compute_order(g, order_kind).iter().enumerate() {
            journal.clear();
            pruned_dijkstra(g, hub, &labels, &mut scratch, |node, d| {
                journal.push((node, d));
            });
            for &(node, d) in &journal {
                labels.push(
                    node as usize,
                    LabelEntry {
                        hub_rank: k as u32,
                        dist: d,
                    },
                );
            }
        }
        PrunedLandmarkLabeling {
            labels: labels.finish(),
            num_nodes: n,
            build_time: start.elapsed(),
        }
    }

    /// [`build_with_order`](Self::build_with_order) for callers that
    /// carry a [`BuildConfig`]: no field of it changes construction.
    pub fn build_with_config(
        g: &ExpertGraph,
        order_kind: VertexOrder,
        _config: &BuildConfig,
    ) -> Self {
        Self::build_with_order(g, order_kind)
    }

    /// Wraps a label set deserialized by `persist.rs` (which has already
    /// validated it against the graph) or patched by `incremental.rs`: no
    /// construction happened, so `build_time` records the load or patch
    /// wall time.
    pub(crate) fn from_loaded_store(
        labels: LabelSet,
        load_time: Duration,
    ) -> PrunedLandmarkLabeling {
        PrunedLandmarkLabeling {
            num_nodes: labels.num_nodes(),
            labels,
            build_time: load_time,
        }
    }

    /// Label statistics (index size diagnostics).
    pub fn stats(&self) -> LabelStats {
        self.labels.stats()
    }

    /// Wall-clock construction time.
    pub fn build_time(&self) -> Duration {
        self.build_time
    }

    /// Raw query returning `f64::INFINITY` for disconnected pairs.
    #[inline]
    pub fn query_raw(&self, u: NodeId, v: NodeId) -> f64 {
        if u == v {
            return 0.0;
        }
        self.labels.query(u.index(), v.index())
    }

    /// The underlying CSR label set, for scatter queries and diagnostics.
    #[inline]
    pub fn labels(&self) -> &LabelSet {
        &self.labels
    }

    /// A one-to-many query scratch sized for this index. Allocate one per
    /// worker thread and reuse it across sources.
    pub fn scatter(&self) -> SourceScatter {
        SourceScatter::for_labels(&self.labels)
    }

    /// Loads `source` into `scatter`, after which
    /// [`query_one_to_many`](Self::query_one_to_many) answers
    /// `distance(source, ·)` in `O(|label(target)|)` each.
    #[inline]
    pub fn load_source(&self, scatter: &mut SourceScatter, source: NodeId) {
        scatter.load(&self.labels, source.index());
    }

    /// Distance from the loaded source to `target`; semantics identical to
    /// [`DistanceOracle::distance`] (`None` when disconnected, `Some(0.0)`
    /// when `target` is the loaded source).
    #[inline]
    pub fn query_one_to_many(&self, scatter: &SourceScatter, target: NodeId) -> Option<f64> {
        if scatter.source() == Some(target.index()) {
            return Some(0.0);
        }
        let d = scatter.distance(&self.labels, target.index());
        d.is_finite().then_some(d)
    }
}

impl DistanceOracle for PrunedLandmarkLabeling {
    #[inline]
    fn distance(&self, u: NodeId, v: NodeId) -> Option<f64> {
        let d = self.query_raw(u, v);
        d.is_finite().then_some(d)
    }

    fn num_nodes(&self) -> usize {
        self.num_nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atd_graph::{dijkstra, GraphBuilder};

    fn grid(rows: usize, cols: usize) -> ExpertGraph {
        let mut b = GraphBuilder::new();
        let ids: Vec<NodeId> = (0..rows * cols).map(|_| b.add_node(1.0)).collect();
        for r in 0..rows {
            for c in 0..cols {
                let i = r * cols + c;
                if c + 1 < cols {
                    b.add_edge(ids[i], ids[i + 1], 1.0 + (i % 3) as f64 * 0.5)
                        .unwrap();
                }
                if r + 1 < rows {
                    b.add_edge(ids[i], ids[i + cols], 1.0 + (i % 2) as f64)
                        .unwrap();
                }
            }
        }
        b.build().unwrap()
    }

    /// A 12-node chain with zero-weight edges and two chords: distance
    /// ties and zero-distance hub pairs. Zero weights occur in practice:
    /// identical co-author sets have Jaccard distance 0, and G′ weights
    /// are 0 at γ = 0 wherever w̄ = 0.
    fn zero_weight_chain() -> ExpertGraph {
        let mut b = GraphBuilder::new();
        let ids: Vec<NodeId> = (0..12).map(|_| b.add_node(1.0)).collect();
        for i in 0..11 {
            b.add_edge(ids[i], ids[i + 1], if i % 3 == 0 { 0.0 } else { 1.0 })
                .unwrap();
        }
        b.add_edge(ids[0], ids[6], 0.0).unwrap();
        b.add_edge(ids[3], ids[9], 2.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn matches_dijkstra_on_grid() {
        let grid_sources = vec![NodeId(0), NodeId(7), NodeId(24)];
        let chain = zero_weight_chain();
        let chain_sources = chain.nodes().collect();
        for (g, sources) in [(grid(5, 5), grid_sources), (chain, chain_sources)] {
            let pll = PrunedLandmarkLabeling::build(&g);
            for s in sources {
                let sp = dijkstra(&g, s);
                for v in g.nodes() {
                    let expect = sp.distance(v);
                    let got = pll.distance(s, v);
                    match (expect, got) {
                        (Some(a), Some(b)) => {
                            assert!((a - b).abs() < 1e-9, "dist({s},{v}) expected {a}, got {b}")
                        }
                        (a, b) => assert_eq!(a, b),
                    }
                }
            }
        }
    }

    #[test]
    fn self_distance_is_zero() {
        let g = grid(3, 3);
        let pll = PrunedLandmarkLabeling::build(&g);
        assert_eq!(pll.distance(NodeId(4), NodeId(4)), Some(0.0));
    }

    #[test]
    fn disconnected_pairs_are_none() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(1.0);
        let c = b.add_node(1.0);
        let d = b.add_node(1.0);
        b.add_edge(a, c, 1.0).unwrap();
        let g = b.build().unwrap();
        let pll = PrunedLandmarkLabeling::build(&g);
        assert_eq!(pll.distance(a, d), None);
        assert!(!pll.connected(a, d));
        assert_eq!(pll.distance(a, c), Some(1.0));
    }

    #[test]
    fn all_orders_agree() {
        let g = grid(4, 4);
        let base = PrunedLandmarkLabeling::build_with_order(&g, VertexOrder::DegreeDescending);
        for order in [VertexOrder::IdAscending, VertexOrder::AuthorityDescending] {
            let other = PrunedLandmarkLabeling::build_with_order(&g, order);
            for u in g.nodes() {
                for v in g.nodes() {
                    assert_eq!(
                        base.distance(u, v),
                        other.distance(u, v),
                        "order {order:?} disagrees on ({u},{v})"
                    );
                }
            }
        }
    }

    #[test]
    fn degree_order_produces_smaller_labels_than_id_order_on_star() {
        // On a star the hub must be labeled first for O(1) labels; id order
        // labels everything through the leaves.
        let mut b = GraphBuilder::new();
        let leaves: Vec<NodeId> = (0..20).map(|_| b.add_node(1.0)).collect();
        let hub = b.add_node(1.0);
        for &l in &leaves {
            b.add_edge(hub, l, 1.0).unwrap();
        }
        let g = b.build().unwrap();
        let good = PrunedLandmarkLabeling::build_with_order(&g, VertexOrder::DegreeDescending);
        let bad = PrunedLandmarkLabeling::build_with_order(&g, VertexOrder::IdAscending);
        assert!(
            good.stats().total_entries <= bad.stats().total_entries,
            "degree order should not be worse on a star: {:?} vs {:?}",
            good.stats(),
            bad.stats()
        );
    }

    /// The one label storage (flat CSR), whether fresh from the build or
    /// re-read from its on-disk bytes, answers every one-to-many query
    /// bit-identically to the pairwise merge-join of the built index.
    #[test]
    fn every_storage_scatter_agrees() {
        let g = grid(5, 4);
        let built = PrunedLandmarkLabeling::build(&g);
        let bytes = built.labels().to_bytes(0xfeed);
        let loaded = PrunedLandmarkLabeling::from_loaded_store(
            LabelSet::from_bytes(&bytes, g.num_nodes(), 0xfeed).unwrap(),
            Duration::ZERO,
        );
        for (name, pll) in [("built", &built), ("loaded", &loaded)] {
            let mut sc = pll.scatter();
            for u in g.nodes() {
                pll.load_source(&mut sc, u);
                for v in g.nodes() {
                    assert_eq!(
                        pll.query_one_to_many(&sc, v).map(f64::to_bits),
                        built.distance(u, v).map(f64::to_bits),
                        "{name} one-to-many ({u},{v})"
                    );
                }
            }
        }
    }

    #[test]
    fn single_node_graph() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(1.0);
        let g = b.build().unwrap();
        let pll = PrunedLandmarkLabeling::build(&g);
        assert_eq!(pll.distance(a, a), Some(0.0));
        assert_eq!(pll.num_nodes(), 1);
    }

    #[test]
    fn stats_are_populated() {
        let g = grid(3, 3);
        let pll = PrunedLandmarkLabeling::build(&g);
        let s = pll.stats();
        assert_eq!(s.nodes, 9);
        assert!(s.total_entries >= 9, "every node labels itself at least");
        assert!(s.avg_entries > 0.0);
        // CSR footprint: (9+1) u32 offsets + one u32 + one f64 per entry.
        assert_eq!(s.bytes, 10 * 4 + s.total_entries * (4 + 8));
    }
}
