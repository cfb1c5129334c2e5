//! Incremental maintenance of a built PLL index under graph deltas.
//!
//! `DurableService::publish_mutation` used to rebuild the whole PLL index
//! per mutation — O(rebuild) swap latency regardless of how small the
//! delta was. This module turns that into O(affected): given the old
//! index, the old graph, and the new graph, [`refresh`] re-runs the
//! pruned search for only the hubs whose label plane can have changed,
//! diffs each re-searched plane against the stored one, and patches the
//! touched per-node labels in place.
//!
//! ## Bit-identical by construction
//!
//! The crate-wide contract is that the refreshed index is **bit-identical**
//! to a from-scratch sequential build on the new graph — not merely a
//! correct 2-hop cover. The argument (spelled out in
//! `crates/distance/src/README.md` § Incremental maintenance):
//!
//! 1. Affected hubs are processed in **ascending rank** off a min-heap, so
//!    when hub `r` is re-searched every label of rank `< r` is already
//!    final. The re-search runs the exact `pruned_dijkstra` loop
//!    against a rank-bounded view of the final labels — the same state the
//!    sequential build sees at step `r`, hence the same emissions to the
//!    bit.
//! 2. The **seed set** (hubs of both endpoints' labels plus the endpoints'
//!    own ranks, per changed edge) and the **propagation rule** (for every
//!    node whose label changed at rank `r`: its own rank, the hubs of its
//!    label, and the hubs of all its new-graph neighbours' labels, ranks
//!    `> r` only) together cover every hub whose sequential plane differs:
//!    any divergence in a hub's search first manifests at a node it
//!    settled identically before, and that node (or its emitted
//!    predecessor) pins the hub into one of the enqueued sets.
//! 3. Unqueued hubs therefore keep planes identical to the sequential
//!    build, and [`LabelSet::patched`](crate::label::LabelSet) re-emits
//!    exactly the dirty nodes into the same CSR layout construction
//!    produces.
//!
//! Deltas the scheme cannot replay cheaply (node additions, edge
//! removals, weight increases, vertex-order changes, or blast radii past
//! [`BuildConfig::incremental_hub_budget`]) return an [`IncrementalError`]
//! and the caller falls back to a full rebuild — the serving layer counts
//! both paths (`ServeStats::incremental_applied` /
//! `full_rebuild_fallbacks`).

use std::time::Instant;

use atd_graph::{ExpertGraph, NodeId};

use crate::label::LabelEntry;
use crate::oracle::DistanceOracle;
use crate::order::{compute_order, VertexOrder};
use crate::pll::{
    pruned_dijkstra, BuildConfig, PruneLabels, PrunedLandmarkLabeling, SearchScratch,
};
use crate::scatter::SourceScatter;

/// Why an incremental refresh refused the delta; callers fall back to a
/// full rebuild.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IncrementalError {
    /// The node set grew or shrank; label planes are indexed by node.
    NodeCountChanged,
    /// An edge vanished — distances may increase, which pruned-search
    /// replay cannot express.
    EdgeRemoved,
    /// An edge weight rose — same problem as removal.
    WeightIncreased,
    /// The vertex order of the new graph differs from the old one, so hub
    /// ranks (and with them every label) shift wholesale.
    OrderChanged,
    /// The normalization scale changed, rescaling every edge weight
    /// (detected by the caller that owns normalization, e.g.
    /// `Discovery::try_incremental`).
    ScaleChanged,
    /// The delta's blast radius exceeded
    /// [`BuildConfig::incremental_hub_budget`]: `affected` hubs were
    /// queued against a budget of `budget`.
    HubBudgetExceeded {
        /// Affected hubs counted before bailing.
        affected: usize,
        /// The configured budget.
        budget: usize,
    },
}

impl std::fmt::Display for IncrementalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IncrementalError::NodeCountChanged => write!(f, "node count changed"),
            IncrementalError::EdgeRemoved => write!(f, "an edge was removed"),
            IncrementalError::WeightIncreased => write!(f, "an edge weight increased"),
            IncrementalError::OrderChanged => write!(f, "vertex order changed"),
            IncrementalError::ScaleChanged => write!(f, "normalization scale changed"),
            IncrementalError::HubBudgetExceeded { affected, budget } => write!(
                f,
                "delta affects {affected} hubs, over the incremental budget of {budget}"
            ),
        }
    }
}

impl std::error::Error for IncrementalError {}

/// What an accepted incremental refresh did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IncrementalReport {
    /// Hubs whose pruned search was re-run.
    pub affected_hubs: usize,
    /// Nodes whose label was patched.
    pub patched_nodes: usize,
    /// True when the delta left every label untouched (metadata-only, or
    /// re-searches that reproduced every stored plane).
    pub unchanged: bool,
}

/// The label view an incremental re-search prunes against: the decoded
/// final label lists, truncated to ranks strictly below the hub being
/// re-searched — exactly the state the sequential build's
/// [`LabelSetBuilder`](crate::label::LabelSetBuilder) holds at that step.
struct RankBounded<'a> {
    lists: &'a [Vec<LabelEntry>],
    bound: u32,
}

impl PruneLabels for RankBounded<'_> {
    fn load_scatter(&self, scatter: &mut SourceScatter, hub: usize) {
        scatter.load_entries(
            hub,
            self.lists[hub]
                .iter()
                .take_while(|e| e.hub_rank < self.bound)
                .copied(),
        );
    }

    fn covered(&self, scatter: &SourceScatter, node: usize) -> f64 {
        let mut covered = f64::INFINITY;
        for e in self.lists[node]
            .iter()
            .take_while(|e| e.hub_rank < self.bound)
        {
            let via = scatter.hub_distance(e.hub_rank) + e.dist;
            if via < covered {
                covered = via;
            }
        }
        covered
    }
}

/// Ascending-rank work queue over hub ranks, deduplicated.
struct HubQueue {
    heap: std::collections::BinaryHeap<std::cmp::Reverse<u32>>,
    queued: Vec<bool>,
}

impl HubQueue {
    fn new(n: usize) -> Self {
        HubQueue {
            heap: std::collections::BinaryHeap::new(),
            queued: vec![false; n],
        }
    }

    #[inline]
    fn push(&mut self, rank: u32) {
        if !self.queued[rank as usize] {
            self.queued[rank as usize] = true;
            self.heap.push(std::cmp::Reverse(rank));
        }
    }

    /// Enqueues every rank `> above` that `node`'s current label carries.
    #[inline]
    fn push_label_hubs(&mut self, work: &[Vec<LabelEntry>], node: usize, above: u32) {
        for e in &work[node] {
            if e.hub_rank > above {
                self.push(e.hub_rank);
            }
        }
    }

    #[inline]
    fn pop(&mut self) -> Option<u32> {
        self.heap.pop().map(|std::cmp::Reverse(r)| r)
    }
}

/// Classifies the edge-level difference between the two graphs.
/// `changed` collects edges whose weight bits differ (necessarily
/// decreases) plus brand-new edges, as endpoint pairs.
fn diff_edges(
    old_graph: &ExpertGraph,
    new_graph: &ExpertGraph,
) -> Result<(Vec<(NodeId, NodeId)>, bool), IncrementalError> {
    let mut changed = Vec::new();
    let mut structural = false;
    let mut old_it = old_graph.edges().peekable();
    let mut new_it = new_graph.edges().peekable();
    loop {
        match (old_it.peek().copied(), new_it.peek().copied()) {
            (None, None) => break,
            (Some(_), None) => return Err(IncrementalError::EdgeRemoved),
            (None, Some((u, v, _))) => {
                structural = true;
                changed.push((u, v));
                new_it.next();
            }
            (Some((ou, ov, ow)), Some((nu, nv, nw))) => {
                let okey = (ou, ov);
                let nkey = (nu, nv);
                match okey.cmp(&nkey) {
                    std::cmp::Ordering::Less => return Err(IncrementalError::EdgeRemoved),
                    std::cmp::Ordering::Greater => {
                        structural = true;
                        changed.push((nu, nv));
                        new_it.next();
                    }
                    std::cmp::Ordering::Equal => {
                        if nw.to_bits() != ow.to_bits() {
                            if nw > ow {
                                return Err(IncrementalError::WeightIncreased);
                            }
                            changed.push((nu, nv));
                        }
                        old_it.next();
                        new_it.next();
                    }
                }
            }
        }
    }
    Ok((changed, structural))
}

/// The hub budget used when [`BuildConfig::incremental_hub_budget`] is
/// `None`: patching a hub costs about as much as building it, so the
/// incremental path wins whenever fewer than ~half the hubs are touched.
/// (An earlier `max(16, n / 4)` default pushed realistic single-edge
/// relaxes — ≈840 affected hubs on the 2270-node DBLP testbed — to a
/// needless full rebuild.)
///
/// [`BuildConfig::incremental_hub_budget`]: crate::BuildConfig::incremental_hub_budget
pub fn default_hub_budget(n: usize) -> usize {
    (n / 2).max(64)
}

/// Refreshes `pll` (built on `old_graph` with `order_kind`) to index
/// `new_graph`, re-searching only affected hubs and patching only dirty
/// node labels. The result is bit-identical to
/// [`PrunedLandmarkLabeling::build_with_config`] on `new_graph` — same
/// entries, same label planes — or an [`IncrementalError`] when the
/// delta is outside the scheme (caller rebuilds).
///
/// `new_graph` may only add edges or lower weights relative to
/// `old_graph`; authorities are free to change (labels never read them,
/// though an authority-driven `order_kind` will trip
/// [`IncrementalError::OrderChanged`]).
pub fn refresh(
    pll: &PrunedLandmarkLabeling,
    old_graph: &ExpertGraph,
    new_graph: &ExpertGraph,
    order_kind: VertexOrder,
    config: &BuildConfig,
) -> Result<(PrunedLandmarkLabeling, IncrementalReport), IncrementalError> {
    let start = Instant::now();
    let n = old_graph.num_nodes();
    if new_graph.num_nodes() != n || pll.num_nodes() != n {
        return Err(IncrementalError::NodeCountChanged);
    }

    let (changed_edges, _structural) = diff_edges(old_graph, new_graph)?;
    if changed_edges.is_empty() {
        // Metadata-only delta (e.g. authority updates): labels are a pure
        // function of the weighted edge set, so the old store is already
        // the answer.
        return Ok((
            PrunedLandmarkLabeling::from_loaded_store(pll.labels().clone(), start.elapsed()),
            IncrementalReport {
                affected_hubs: 0,
                patched_nodes: 0,
                unchanged: true,
            },
        ));
    }

    // Hub ranks must be stable: labels store ranks, so any reordering
    // invalidates every plane at once. (Weight-only deltas keep degrees,
    // but added edges — or authority-driven orders — can reshuffle.)
    let order = compute_order(old_graph, order_kind);
    if order != compute_order(new_graph, order_kind) {
        return Err(IncrementalError::OrderChanged);
    }
    let mut rank_of = vec![0u32; n];
    for (k, h) in order.iter().enumerate() {
        rank_of[h.index()] = k as u32;
    }

    // Decode every label once; `work` is mutated into the final state.
    // `planes[r]` is hub r's stored emission plane, sorted by node
    // (ascending-v decode order keeps it sorted for free).
    let mut work: Vec<Vec<LabelEntry>> =
        (0..n).map(|v| pll.labels().entries(v).collect()).collect();
    let mut planes: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
    for (v, list) in work.iter().enumerate() {
        for e in list {
            planes[e.hub_rank as usize].push((v as u32, e.dist));
        }
    }

    let mut queue = HubQueue::new(n);
    for &(u, v) in &changed_edges {
        queue.push_label_hubs(&work, u.index(), 0);
        queue.push_label_hubs(&work, v.index(), 0);
        // Rank 0 is excluded by the `> above` filter but is a legitimate
        // seed; and a node covered at distance zero may not carry itself.
        if let Some(e) = work[u.index()].first() {
            queue.push(e.hub_rank);
        }
        if let Some(e) = work[v.index()].first() {
            queue.push(e.hub_rank);
        }
        queue.push(rank_of[u.index()]);
        queue.push(rank_of[v.index()]);
    }

    let budget = config
        .incremental_hub_budget
        .unwrap_or_else(|| default_hub_budget(n));
    let mut scratch = SearchScratch::new(n);
    let mut emitted: Vec<(u32, f64)> = Vec::new();
    let mut dirty_mark = vec![false; n];
    let mut dirty_nodes: Vec<usize> = Vec::new();
    let mut touched_this_hub: Vec<u32> = Vec::new();
    let mut processed = 0usize;

    while let Some(r) = queue.pop() {
        processed += 1;
        if processed > budget {
            return Err(IncrementalError::HubBudgetExceeded {
                affected: processed + queue.heap.len(),
                budget,
            });
        }
        let hub = order[r as usize];

        // Re-run hub r's full pruned search on the new graph against the
        // final rank-<r labels — bit-for-bit the sequential build's step.
        emitted.clear();
        {
            let view = RankBounded {
                lists: &work,
                bound: r,
            };
            pruned_dijkstra(new_graph, hub, &view, &mut scratch, |node, d| {
                emitted.push((node, d));
            });
        }
        // Emissions arrive in settle order; the diff below merge-joins by
        // node against the stored plane.
        emitted.sort_unstable_by_key(|&(node, _)| node);

        // Diff the re-searched plane against the stored one and patch
        // every differing node's label in place.
        touched_this_hub.clear();
        let old_plane = std::mem::take(&mut planes[r as usize]);
        let (mut i, mut j) = (0usize, 0usize);
        while i < old_plane.len() || j < emitted.len() {
            let old_node = old_plane.get(i).map(|&(x, _)| x);
            let new_node = emitted.get(j).map(|&(x, _)| x);
            if let Some(x) = old_node.filter(|&x| new_node.is_none_or(|y| x < y)) {
                // Entry vanished: the new search prunes this node.
                patch_label(&mut work[x as usize], r, None);
                touched_this_hub.push(x);
                i += 1;
            } else if new_node.is_some() && (old_node.is_none() || new_node < old_node) {
                // Entry appeared: the node is newly labeled by hub r.
                let (y, nd) = emitted[j];
                patch_label(&mut work[y as usize], r, Some(nd));
                touched_this_hub.push(y);
                j += 1;
            } else {
                let (x, od) = old_plane[i];
                let (_, nd) = emitted[j];
                if od.to_bits() != nd.to_bits() {
                    patch_label(&mut work[x as usize], r, Some(nd));
                    touched_this_hub.push(x);
                }
                i += 1;
                j += 1;
            }
        }
        planes[r as usize] = emitted.clone();

        // Propagate: a changed label at node x can flip prune tests of any
        // later hub whose search reaches x — all such hubs appear in x's
        // label, in a new-graph neighbour's label, or are x itself.
        for &x in &touched_this_hub {
            let xi = x as usize;
            if !dirty_mark[xi] {
                dirty_mark[xi] = true;
                dirty_nodes.push(xi);
            }
            if rank_of[xi] > r {
                queue.push(rank_of[xi]);
            }
            queue.push_label_hubs(&work, xi, r);
            for (y, _) in new_graph.neighbors(NodeId::from_index(xi)) {
                queue.push_label_hubs(&work, y.index(), r);
            }
        }
    }

    if dirty_nodes.is_empty() {
        return Ok((
            PrunedLandmarkLabeling::from_loaded_store(pll.labels().clone(), start.elapsed()),
            IncrementalReport {
                affected_hubs: processed,
                patched_nodes: 0,
                unchanged: true,
            },
        ));
    }

    dirty_nodes.sort_unstable();
    let labels = pll.labels().patched(&work, &dirty_nodes);
    Ok((
        PrunedLandmarkLabeling::from_loaded_store(labels, start.elapsed()),
        IncrementalReport {
            affected_hubs: processed,
            patched_nodes: dirty_nodes.len(),
            unchanged: false,
        },
    ))
}

/// Inserts, replaces, or removes (`dist == None`) the rank-`r` entry of
/// one node's label list, keeping it rank-ascending.
fn patch_label(list: &mut Vec<LabelEntry>, r: u32, dist: Option<f64>) {
    let pos = list.partition_point(|e| e.hub_rank < r);
    let present = list.get(pos).is_some_and(|e| e.hub_rank == r);
    match dist {
        Some(d) => {
            if present {
                list[pos].dist = d;
            } else {
                list.insert(
                    pos,
                    LabelEntry {
                        hub_rank: r,
                        dist: d,
                    },
                );
            }
        }
        None => {
            debug_assert!(present, "removing a label entry that is not there");
            if present {
                list.remove(pos);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atd_graph::GraphBuilder;

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

    /// Rebuilds `g` with one edge's weight replaced.
    fn reweighted(g: &ExpertGraph, eu: NodeId, ev: NodeId, w: f64) -> ExpertGraph {
        let mut b = GraphBuilder::new();
        for v in g.nodes() {
            b.add_node(g.authority(v));
        }
        for (u, v, ow) in g.edges() {
            let nw = if (u, v) == (eu, ev) { w } else { ow };
            b.add_edge(u, v, nw).unwrap();
        }
        b.build().unwrap()
    }

    fn assert_stores_identical(a: &PrunedLandmarkLabeling, b: &PrunedLandmarkLabeling, ctx: &str) {
        assert_eq!(a.num_nodes(), b.num_nodes(), "{ctx}: node counts");
        for v in 0..a.num_nodes() {
            let la: Vec<LabelEntry> = a.labels().entries(v).collect();
            let lb: Vec<LabelEntry> = b.labels().entries(v).collect();
            assert_eq!(la.len(), lb.len(), "{ctx}: label lens at {v}");
            for (x, y) in la.iter().zip(&lb) {
                assert_eq!(x.hub_rank, y.hub_rank, "{ctx}: rank at {v}");
                assert_eq!(
                    x.dist.to_bits(),
                    y.dist.to_bits(),
                    "{ctx}: dist bits at {v}"
                );
            }
        }
        let (sa, sb) = (a.stats(), b.stats());
        assert_eq!(sa.bytes, sb.bytes, "{ctx}: storage bytes");
    }

    #[test]
    fn lowered_edge_is_bit_identical_on_all_backends() {
        // The flat CSR `LabelSet` is the one label backend.
        let old = grid(5, 5);
        let new = reweighted(&old, NodeId(0), NodeId(1), 0.25);
        let config = BuildConfig::default();
        let pll =
            PrunedLandmarkLabeling::build_with_config(&old, VertexOrder::DegreeDescending, &config);
        let (inc, report) =
            refresh(&pll, &old, &new, VertexOrder::DegreeDescending, &config).unwrap();
        let scratch =
            PrunedLandmarkLabeling::build_with_config(&new, VertexOrder::DegreeDescending, &config);
        assert!(report.affected_hubs > 0);
        assert!(!report.unchanged);
        assert_stores_identical(&inc, &scratch, "lowered edge");
    }

    #[test]
    fn metadata_only_delta_is_a_clone() {
        let g = grid(4, 4);
        let config = BuildConfig::default();
        let pll =
            PrunedLandmarkLabeling::build_with_config(&g, VertexOrder::DegreeDescending, &config);
        let (inc, report) = refresh(&pll, &g, &g, VertexOrder::DegreeDescending, &config).unwrap();
        assert!(report.unchanged);
        assert_eq!(report.affected_hubs, 0);
        assert_stores_identical(&inc, &pll, "identical graph");
    }

    #[test]
    fn node_count_change_is_rejected() {
        let old = grid(3, 3);
        let new = grid(3, 4);
        let config = BuildConfig::default();
        let pll =
            PrunedLandmarkLabeling::build_with_config(&old, VertexOrder::DegreeDescending, &config);
        assert_eq!(
            refresh(&pll, &old, &new, VertexOrder::DegreeDescending, &config).unwrap_err(),
            IncrementalError::NodeCountChanged
        );
    }

    #[test]
    fn weight_increase_and_removal_are_rejected() {
        let old = grid(3, 3);
        let config = BuildConfig::default();
        let pll =
            PrunedLandmarkLabeling::build_with_config(&old, VertexOrder::DegreeDescending, &config);

        let raised = reweighted(&old, NodeId(0), NodeId(1), 99.0);
        assert_eq!(
            refresh(&pll, &old, &raised, VertexOrder::DegreeDescending, &config).unwrap_err(),
            IncrementalError::WeightIncreased
        );

        let mut b = GraphBuilder::new();
        for v in old.nodes() {
            b.add_node(old.authority(v));
        }
        for (u, v, w) in old.edges().skip(1) {
            b.add_edge(u, v, w).unwrap();
        }
        let removed = b.build().unwrap();
        assert_eq!(
            refresh(&pll, &old, &removed, VertexOrder::DegreeDescending, &config).unwrap_err(),
            IncrementalError::EdgeRemoved
        );
    }

    #[test]
    fn order_change_is_rejected() {
        // Adding edges to a low-degree node reshuffles the degree order.
        let old = grid(3, 3);
        let mut b = GraphBuilder::new();
        for v in old.nodes() {
            b.add_node(old.authority(v));
        }
        for (u, v, w) in old.edges() {
            b.add_edge(u, v, w).unwrap();
        }
        for far in [2u32, 5, 6, 7, 8] {
            b.add_edge(NodeId(0), NodeId(far), 3.0).unwrap();
        }
        let new = b.build().unwrap();
        let config = BuildConfig::default();
        let pll =
            PrunedLandmarkLabeling::build_with_config(&old, VertexOrder::DegreeDescending, &config);
        assert_eq!(
            refresh(&pll, &old, &new, VertexOrder::DegreeDescending, &config).unwrap_err(),
            IncrementalError::OrderChanged
        );
    }

    #[test]
    fn zero_budget_forces_fallback() {
        let old = grid(4, 4);
        let new = reweighted(&old, NodeId(0), NodeId(1), 0.25);
        let config = BuildConfig {
            incremental_hub_budget: Some(0),
            ..BuildConfig::default()
        };
        let pll =
            PrunedLandmarkLabeling::build_with_config(&old, VertexOrder::DegreeDescending, &config);
        match refresh(&pll, &old, &new, VertexOrder::DegreeDescending, &config) {
            Err(IncrementalError::HubBudgetExceeded { budget: 0, .. }) => {}
            other => panic!("expected HubBudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn added_edge_with_stable_order_is_bit_identical() {
        // Two stars whose centers are the unique top-2 by degree with a
        // margin; bridging the centers bumps both degrees by one without
        // disturbing the degree-descending order, so the refresh accepts
        // the added edge.
        let mut b = GraphBuilder::new();
        let ids: Vec<NodeId> = (0..9).map(|_| b.add_node(1.0)).collect();
        for (leaf, w) in [(2usize, 1.0), (3, 1.25), (4, 1.5), (5, 1.0)] {
            b.add_edge(ids[0], ids[leaf], w).unwrap();
        }
        for (leaf, w) in [(6usize, 1.0), (7, 1.25), (8, 1.5)] {
            b.add_edge(ids[1], ids[leaf], w).unwrap();
        }
        b.add_edge(ids[5], ids[6], 2.0).unwrap();
        let old = b.build().unwrap();

        let mut b = GraphBuilder::new();
        for v in old.nodes() {
            b.add_node(old.authority(v));
        }
        for (u, v, w) in old.edges() {
            b.add_edge(u, v, w).unwrap();
        }
        b.add_edge(ids[0], ids[1], 0.5).unwrap();
        let new = b.build().unwrap();

        let config = BuildConfig::default();
        let pll =
            PrunedLandmarkLabeling::build_with_config(&old, VertexOrder::DegreeDescending, &config);
        match refresh(&pll, &old, &new, VertexOrder::DegreeDescending, &config) {
            Ok((inc, report)) => {
                let scratch = PrunedLandmarkLabeling::build_with_config(
                    &new,
                    VertexOrder::DegreeDescending,
                    &config,
                );
                assert!(!report.unchanged);
                assert_stores_identical(&inc, &scratch, "added chord");
            }
            Err(IncrementalError::OrderChanged) => {
                panic!("bridging the top-2 degree nodes should keep the order")
            }
            Err(e) => panic!("unexpected {e}"),
        }
    }

    #[test]
    fn repeated_refreshes_compose() {
        let g0 = grid(4, 5);
        let config = BuildConfig::default();
        let mut pll =
            PrunedLandmarkLabeling::build_with_config(&g0, VertexOrder::DegreeDescending, &config);
        let mut cur = g0;
        for (step, (u, v, w)) in [
            (NodeId(0), NodeId(1), 0.75),
            (NodeId(5), NodeId(10), 0.5),
            (NodeId(0), NodeId(1), 0.25),
        ]
        .into_iter()
        .enumerate()
        {
            let next = reweighted(&cur, u, v, w);
            let (inc, _) =
                refresh(&pll, &cur, &next, VertexOrder::DegreeDescending, &config).unwrap();
            let scratch = PrunedLandmarkLabeling::build_with_config(
                &next,
                VertexOrder::DegreeDescending,
                &config,
            );
            assert_stores_identical(&inc, &scratch, &format!("step {step}"));
            pll = inc;
            cur = next;
        }
    }

    /// Pins the default-budget policy to the measurement that motivated
    /// it: a single-edge relax on the 2270-node DBLP testbed touches
    /// ≈840 hubs, which must resolve to the incremental path — not a
    /// full rebuild — under the `None` default.
    #[test]
    fn default_budget_keeps_testbed_single_relax_incremental() {
        assert_eq!(default_hub_budget(2270), 1135);
        assert!(
            default_hub_budget(2270) > 840,
            "an 840-hub single-edge relax on n=2270 must fit the default budget"
        );
        // Floor for tiny graphs, where a relax can touch every hub.
        assert_eq!(default_hub_budget(0), 64);
        assert_eq!(default_hub_budget(100), 64);
        assert_eq!(default_hub_budget(10_000), 5_000);
    }
}
