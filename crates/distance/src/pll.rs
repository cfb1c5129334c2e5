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
//! ## Batch-synchronous parallel construction
//!
//! Within one hub's search, pruning only ever consults labels of *strictly
//! lower* rank — a hub's own entries are invisible to its own prune tests.
//! The parallel builder exploits this: the vertex order is cut into rank
//! batches; within a batch every worker thread runs pruned Dijkstras for
//! its round-robin share of hubs against a **frozen snapshot** of the
//! labels committed by earlier batches, journaling surviving `(node, dist)`
//! candidates into a per-thread [`ShardedJournal`] shard. Because the
//! snapshot is missing same-batch lower-rank labels, each search prunes
//! *less* than the sequential build would — candidate lists are supersets
//! with never-larger distances.
//!
//! At the batch barrier the shards are merged in rank order: each hub's
//! candidates are **replayed** in settle order against the live merged
//! labels, re-evaluating the exact prune test the sequential build would
//! have run. Each candidate also carries its search-tree parent, which
//! makes the replay surgical:
//!
//! * parent clean → the candidate's settle distance is provably what the
//!   sequential search computes, so the prune test is exact: it either
//!   **commits** (clean) or is **dropped in place** (pruned — a leaf-side
//!   invalidation by a same-batch lower-rank hub, the common case);
//! * parent pruned or dirty → the candidate's true distance may differ
//!   (its recorded shortest path was cut), so it is marked **dirty**; the
//!   hub then runs a **repair search** — the same settle/prune/expand loop
//!   as the sequential build, but seeded from the clean frontier with
//!   clean and pruned nodes pre-settled, so it recomputes only the dirty
//!   region instead of re-running the whole hub.
//!
//! The repair search settles exactly the nodes the sequential search
//! would have settled beyond the clean set, at bitwise-identical
//! distances (every seeded relaxation is a sequential relaxation and
//! vice versa), so the final label set is **bit-identical to the
//! sequential build for every thread count and batch size** — enforced by
//! `tests/proptest_pll_parallel.rs`.
//!
//! Batch sizes ramp `1, 2, 4, …` up to [`BuildConfig::batch_size`] so the
//! earliest, most label-shaping hubs commit before wide batches begin —
//! keeping repairs (and their serial re-search cost) rare.

use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

use atd_graph::{ExpertGraph, MinHeapEntry, NodeId, TotalF64};

use crate::label::{LabelEntry, LabelSet, LabelSetBuilder, LabelStats, ShardedJournal};
use crate::oracle::DistanceOracle;
use crate::order::{compute_order, VertexOrder};
use crate::scatter::SourceScatter;

/// Construction settings for the batch-synchronous parallel builder.
///
/// Mirrors the root scan's `DiscoveryOptions::threads` pattern: `None`
/// means available parallelism, `Some(1)` is the exact sequential
/// algorithm (the degenerate case the parallel paths are differentially
/// tested against).
///
/// ```
/// use atd_distance::BuildConfig;
/// // Sequential build with a tight incremental-refresh budget:
/// let config = BuildConfig {
///     incremental_hub_budget: Some(8),
///     ..BuildConfig::sequential()
/// };
/// assert_eq!(config.threads, Some(1));
/// assert_eq!(BuildConfig::default().threads, None);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BuildConfig {
    /// Worker threads for batch searches (`None` = available parallelism).
    pub threads: Option<usize>,
    /// Upper bound on hubs per rank batch; batches ramp `1, 2, 4, …` up to
    /// this cap.
    pub batch_size: usize,
    /// Maximum affected hubs an incremental refresh
    /// ([`crate::incremental::refresh`]) may re-search before bailing out
    /// to a full rebuild. `None` picks `max(64, n / 2)` — per-hub patch
    /// cost tracks per-hub build cost, so incremental wins below roughly
    /// half the hubs (a single-edge relax on the 2270-node DBLP testbed
    /// touches ≈840 hubs and must stay on the incremental path).
    /// `Some(0)` forces the fallback for every label-touching delta.
    pub incremental_hub_budget: Option<usize>,
}

impl Default for BuildConfig {
    fn default() -> Self {
        BuildConfig {
            threads: None,
            batch_size: 64,
            incremental_hub_budget: None,
        }
    }
}

impl BuildConfig {
    /// The single-threaded configuration: the exact sequential algorithm,
    /// with no snapshot/journal machinery on the hot path.
    pub fn sequential() -> Self {
        BuildConfig {
            threads: Some(1),
            ..BuildConfig::default()
        }
    }

    fn resolved_threads(&self) -> usize {
        self.threads
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|p| p.get())
                    .unwrap_or(1)
            })
            .max(1)
    }
}

/// Timings and counters for one rank batch of the build.
#[derive(Clone, Copy, Debug, Default)]
pub struct BatchProfile {
    /// Hubs processed in this batch.
    pub hubs: usize,
    /// Candidate entries journaled by the (frozen-snapshot) searches.
    pub journaled: usize,
    /// Entries actually committed after the merge re-prune.
    pub committed: usize,
    /// Hubs whose candidate tree was cut by a same-batch lower-rank hub
    /// and needed a repair search over the dirty region.
    pub repairs: usize,
    /// Wall-clock of the search phase (parallel across workers).
    pub search: Duration,
    /// Wall-clock of the rank-order merge (replay + repair searches).
    pub merge: Duration,
}

/// Aggregate construction profile: what the build spent where.
#[derive(Clone, Debug, Default)]
pub struct BuildProfile {
    /// Resolved worker thread count.
    pub threads: usize,
    /// Configured batch-size cap.
    pub batch_size: usize,
    /// Per-batch timings, in batch order (a single entry for the
    /// sequential path).
    pub batches: Vec<BatchProfile>,
    /// Total hubs that needed a repair search.
    pub repaired_hubs: usize,
    /// Total candidates journaled across all batches.
    pub journaled_entries: usize,
    /// Total entries committed (= final label entry count).
    pub committed_entries: usize,
    /// Total search-phase wall-clock.
    pub search_time: Duration,
    /// Total merge-phase wall-clock.
    pub merge_time: Duration,
}

impl BuildProfile {
    fn record(&mut self, batch: BatchProfile) {
        self.repaired_hubs += batch.repairs;
        self.journaled_entries += batch.journaled;
        self.committed_entries += batch.committed;
        self.search_time += batch.search;
        self.merge_time += batch.merge;
        self.batches.push(batch);
    }
}

/// Reusable per-worker Dijkstra state: tentative distances, settled marks,
/// touched list, heap, and the hub-label scatter for prune queries.
pub(crate) struct SearchScratch {
    pub(crate) dist: Vec<f64>,
    pub(crate) parent: Vec<u32>,
    pub(crate) settled: Vec<bool>,
    pub(crate) touched: Vec<usize>,
    pub(crate) heap: BinaryHeap<MinHeapEntry>,
    pub(crate) scatter: SourceScatter,
}

impl SearchScratch {
    pub(crate) fn new(n: usize) -> Self {
        SearchScratch {
            dist: vec![f64::INFINITY; n],
            parent: vec![0; n],
            settled: vec![false; n],
            touched: Vec::new(),
            heap: BinaryHeap::new(),
            scatter: SourceScatter::new(n),
        }
    }

    /// Restores `dist`/`settled` to their pristine state (only the
    /// entries the last search touched).
    pub(crate) fn reset(&mut self) {
        for &t in &self.touched {
            self.dist[t] = f64::INFINITY;
            self.settled[t] = false;
        }
        self.touched.clear();
    }
}

/// The label state a pruned search consults: loading one hub's label into
/// the scatter, and evaluating the prune test's cover distance for a
/// settled node. The build paths implement this on [`LabelSetBuilder`];
/// the incremental refresh ([`crate::incremental`]) implements it on a
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
/// emitting surviving `(node, parent, dist)` candidates in settle order
/// (`parent` = the node's predecessor in the search tree, itself for the
/// hub).
///
/// This is the algorithm's float-critical core: the sequential build, the
/// parallel batch phase (frozen snapshot), and the merge repair all run
/// this exact routine, so every path evaluates identical expressions over
/// identical values — the root of the bit-identical guarantee.
pub(crate) fn pruned_dijkstra<L: PruneLabels>(
    g: &ExpertGraph,
    hub: NodeId,
    labels: &L,
    scratch: &mut SearchScratch,
    emit: impl FnMut(u32, u32, f64),
) {
    // Scatter the hub's current label for O(|label(u)|) prune queries.
    labels.load_scatter(&mut scratch.scatter, hub.index());

    scratch.heap.clear();
    scratch.dist[hub.index()] = 0.0;
    scratch.parent[hub.index()] = hub.index() as u32;
    scratch.touched.push(hub.index());
    scratch.heap.push(MinHeapEntry {
        dist: TotalF64::ZERO,
        node: hub,
    });

    run_pruned_search(g, labels, scratch, emit);
    scratch.reset();
}

/// The settle → prune-test → expand loop over a pre-seeded scratch (heap,
/// tentative distances, settled marks, and the hub scatter must already
/// be set up). Shared by the full search ([`pruned_dijkstra`]) and the
/// batch-merge repair search, which seeds it from the clean frontier
/// instead of the hub. Does NOT reset the scratch.
pub(crate) fn run_pruned_search<L: PruneLabels>(
    g: &ExpertGraph,
    labels: &L,
    scratch: &mut SearchScratch,
    mut emit: impl FnMut(u32, u32, f64),
) {
    let SearchScratch {
        dist,
        parent,
        settled,
        touched,
        heap,
        scatter,
    } = scratch;

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

        emit(ui as u32, parent[ui], d);

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
                parent[vi] = ui as u32;
                heap.push(MinHeapEntry {
                    dist: TotalF64::expect(nd),
                    node: v,
                });
            }
        }
    }
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
    profile: BuildProfile,
}

impl PrunedLandmarkLabeling {
    /// Builds the index with the default (degree-descending) vertex order
    /// and default [`BuildConfig`] (all available cores).
    pub fn build(g: &ExpertGraph) -> Self {
        Self::build_with_order(g, VertexOrder::DegreeDescending)
    }

    /// Builds the index with an explicit vertex order and the default
    /// [`BuildConfig`].
    pub fn build_with_order(g: &ExpertGraph, order_kind: VertexOrder) -> Self {
        Self::build_with_config(g, order_kind, &BuildConfig::default())
    }

    /// Builds the index with explicit order and construction settings.
    ///
    /// The result is bit-identical for every `threads` / `batch_size`
    /// combination (see the module docs for why).
    pub fn build_with_config(
        g: &ExpertGraph,
        order_kind: VertexOrder,
        config: &BuildConfig,
    ) -> Self {
        let start = Instant::now();
        let n = g.num_nodes();
        let order = compute_order(g, order_kind);
        let threads = config.resolved_threads().clamp(1, n.max(1));
        let cap = config.batch_size.max(1);

        // Labels grow grouped by hub; the builder journals them into flat
        // arenas and converts to CSR at the end (no per-node Vecs).
        let mut labels = LabelSetBuilder::new(n);
        let mut profile = BuildProfile {
            threads,
            batch_size: cap,
            ..BuildProfile::default()
        };

        if threads == 1 || cap == 1 || n < 2 {
            Self::build_sequential(g, &order, &mut labels, &mut profile);
        } else {
            Self::build_batched(g, &order, threads, cap, &mut labels, &mut profile);
        }

        PrunedLandmarkLabeling {
            labels: labels.finish(),
            num_nodes: n,
            build_time: start.elapsed(),
            profile,
        }
    }

    /// Wraps a label set deserialized by `persist.rs` (which has already
    /// validated it against the graph) or patched by `incremental.rs`: no
    /// construction happened, so the profile is empty and `build_time`
    /// records the load or patch wall time.
    pub(crate) fn from_loaded_store(
        labels: LabelSet,
        load_time: Duration,
    ) -> PrunedLandmarkLabeling {
        PrunedLandmarkLabeling {
            num_nodes: labels.num_nodes(),
            labels,
            build_time: load_time,
            profile: BuildProfile::default(),
        }
    }

    /// The exact sequential algorithm: one pruned Dijkstra per hub in rank
    /// order, each committing before the next begins.
    fn build_sequential(
        g: &ExpertGraph,
        order: &[NodeId],
        labels: &mut LabelSetBuilder,
        profile: &mut BuildProfile,
    ) {
        let t0 = Instant::now();
        let mut scratch = SearchScratch::new(g.num_nodes());
        let mut journal: Vec<(u32, f64)> = Vec::new();
        let mut total = 0usize;
        for (k, &hub) in order.iter().enumerate() {
            journal.clear();
            pruned_dijkstra(g, hub, labels, &mut scratch, |node, _parent, d| {
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
            total += journal.len();
        }
        profile.record(BatchProfile {
            hubs: order.len(),
            journaled: total,
            committed: total,
            repairs: 0,
            search: t0.elapsed(),
            merge: Duration::ZERO,
        });
    }

    /// The batch-synchronous parallel algorithm (see module docs).
    fn build_batched(
        g: &ExpertGraph,
        order: &[NodeId],
        threads: usize,
        cap: usize,
        labels: &mut LabelSetBuilder,
        profile: &mut BuildProfile,
    ) {
        /// Replay states per node while merging one hub's candidates.
        const NOT_SEEN: u8 = 0;
        const CLEAN: u8 = 1;
        const PRUNED: u8 = 2;

        let n = g.num_nodes();
        let mut journal = ShardedJournal::new(threads);
        let mut scratches: Vec<SearchScratch> =
            (0..threads).map(|_| SearchScratch::new(n)).collect();
        let mut refill: Vec<(u32, f64)> = Vec::new();
        let mut keep: Vec<(u32, f64)> = Vec::new();
        let mut dirt: Vec<u32> = Vec::new();
        let mut state: Vec<u8> = vec![NOT_SEEN; n];

        let mut start_rank = 0usize;
        let mut ramp = 1usize;
        while start_rank < order.len() {
            let size = ramp.min(cap).min(order.len() - start_rank);
            let batch = &order[start_rank..start_rank + size];
            let t_search = Instant::now();

            if size == 1 {
                // Ramp-up batch: search against the live labels directly;
                // trivially identical to the sequential step.
                let hub = batch[0];
                refill.clear();
                pruned_dijkstra(g, hub, labels, &mut scratches[0], |node, _parent, d| {
                    refill.push((node, d));
                });
                let search = t_search.elapsed();
                let t_merge = Instant::now();
                for &(node, d) in &refill {
                    labels.push(
                        node as usize,
                        LabelEntry {
                            hub_rank: start_rank as u32,
                            dist: d,
                        },
                    );
                }
                profile.record(BatchProfile {
                    hubs: 1,
                    journaled: refill.len(),
                    committed: refill.len(),
                    repairs: 0,
                    search,
                    merge: t_merge.elapsed(),
                });
            } else {
                // Search phase: every worker runs its round-robin share of
                // hubs against the frozen snapshot (immutable borrow).
                journal.clear();
                let frozen = &*labels;
                std::thread::scope(|scope| {
                    for (t, (shard, scratch)) in journal
                        .shards_mut()
                        .iter_mut()
                        .zip(scratches.iter_mut())
                        .enumerate()
                    {
                        scope.spawn(move || {
                            let mut i = t;
                            while i < size {
                                shard.begin_hub(i as u32);
                                pruned_dijkstra(g, batch[i], frozen, scratch, |node, parent, d| {
                                    shard.push(node, parent, d);
                                });
                                i += threads;
                            }
                        });
                    }
                });
                let search = t_search.elapsed();
                let journaled = journal.total_entries();

                // Merge phase: replay each hub's candidates in rank order
                // against the live labels. A candidate whose search-tree
                // parent stayed clean settles at provably the same
                // distance in the sequential build, so the replayed prune
                // test is exact — it commits or drops the candidate in
                // place. Candidates whose recorded shortest path got cut
                // (parent pruned or dirty) form the dirty region; a
                // repair search seeded from the clean frontier recomputes
                // exactly that region.
                let t_merge = Instant::now();
                let mut repairs = 0usize;
                let mut committed = 0usize;
                let mut cursor = journal.cursor();
                for (bi, &hub) in batch.iter().enumerate() {
                    let k32 = (start_rank + bi) as u32;
                    let cand = cursor.next_hub().expect("one journal span per batch hub");
                    debug_assert_eq!(cand.batch_idx as usize, bi);

                    let batch_base = start_rank as u32;
                    let scratch = &mut scratches[0];
                    // The frozen-snapshot search already proved every
                    // candidate uncovered by pre-batch labels, so the
                    // replay only has to test entries committed by
                    // same-batch lower-rank hubs — the rank >= batch_base
                    // prefix of the builder's newest-first chains. Load
                    // just that slice of the hub's label (the full label
                    // is reloaded if a repair search is needed).
                    scratch.scatter.load_entries(
                        hub.index(),
                        labels
                            .entries(hub.index())
                            .take_while(|e| e.hub_rank >= batch_base),
                    );
                    keep.clear();
                    dirt.clear();
                    for ((&node, &par), &d) in cand.nodes.iter().zip(cand.parents).zip(cand.dists) {
                        let ni = node as usize;
                        // Parents settle before children, so `state[par]`
                        // is already decided (the hub is its own parent).
                        if par != node && state[par as usize] != CLEAN {
                            dirt.push(node);
                            continue;
                        }
                        // Same-batch slice of the exact prune test
                        // `run_pruned_search` runs: `covered <= d` over
                        // the merged labels iff some same-batch entry
                        // certifies a path of length <= d (the frozen
                        // part was already proven > d).
                        let mut covered_by_batch = false;
                        for e in labels.entries(ni) {
                            if e.hub_rank < batch_base {
                                break;
                            }
                            if scratch.scatter.hub_distance(e.hub_rank) + e.dist <= d {
                                covered_by_batch = true;
                                break;
                            }
                        }
                        if covered_by_batch {
                            state[ni] = PRUNED;
                            scratch.settled[ni] = true;
                            scratch.touched.push(ni);
                        } else {
                            state[ni] = CLEAN;
                            scratch.settled[ni] = true;
                            scratch.dist[ni] = d;
                            scratch.touched.push(ni);
                            keep.push((node, d));
                        }
                    }

                    // Commit the clean part. Rank-k entries are invisible
                    // to later prune tests (a node settles at most once
                    // per hub), so committing before the repair is safe.
                    for &(node, d) in &keep {
                        labels.push(
                            node as usize,
                            LabelEntry {
                                hub_rank: k32,
                                dist: d,
                            },
                        );
                    }
                    committed += keep.len();

                    if !dirt.is_empty() {
                        // Repair: re-run the sequential settle loop with
                        // clean and pruned nodes pre-settled. Only dirty
                        // candidates can ever be expanded or labeled here
                        // (anything else the parallel search settled gets
                        // re-pruned unconditionally), and any sequential
                        // path into the dirty region first leaves the
                        // clean set by an edge into a dirty candidate —
                        // so seeding every clean→dirty relaxation, read
                        // off each dirty candidate's clean-settled
                        // neighbors, dominates all entry paths. Each seed
                        // is a relaxation the sequential search performs.
                        repairs += 1;
                        // The repair's prune tests walk full labels, so
                        // it needs the hub's full scatter.
                        scratch
                            .scatter
                            .load_entries(hub.index(), labels.entries(hub.index()));
                        scratch.heap.clear();
                        for &x in &dirt {
                            let xi = x as usize;
                            for (y, w) in g.neighbors(NodeId::from_index(xi)) {
                                let yi = y.index();
                                // Clean-settled neighbors carry exact
                                // distances; pruned ones stay INFINITY.
                                let nd = scratch.dist[yi] + w;
                                if scratch.settled[yi] && nd < scratch.dist[xi] {
                                    if !scratch.dist[xi].is_finite() {
                                        scratch.touched.push(xi);
                                    }
                                    scratch.dist[xi] = nd;
                                    scratch.parent[xi] = yi as u32;
                                    scratch.heap.push(MinHeapEntry {
                                        dist: TotalF64::expect(nd),
                                        node: NodeId::from_index(xi),
                                    });
                                }
                            }
                        }
                        refill.clear();
                        run_pruned_search(g, labels, scratch, |node, _parent, d| {
                            refill.push((node, d));
                        });
                        for &(node, d) in &refill {
                            labels.push(
                                node as usize,
                                LabelEntry {
                                    hub_rank: k32,
                                    dist: d,
                                },
                            );
                        }
                        committed += refill.len();
                    }

                    // Clear replay marks and Dijkstra scratch.
                    for &node in cand.nodes {
                        state[node as usize] = NOT_SEEN;
                    }
                    scratch.reset();
                }
                profile.record(BatchProfile {
                    hubs: size,
                    journaled,
                    committed,
                    repairs,
                    search,
                    merge: t_merge.elapsed(),
                });
            }

            start_rank += size;
            ramp = ramp.saturating_mul(2).min(cap);
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

    /// Per-batch construction profile (search/merge split, journaled vs
    /// committed entries, repair counts).
    pub fn build_profile(&self) -> &BuildProfile {
        &self.profile
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

    /// Asserts two indices carry bitwise-equal label sets.
    fn assert_bit_identical(a: &PrunedLandmarkLabeling, b: &PrunedLandmarkLabeling, ctx: &str) {
        assert_eq!(a.num_nodes(), b.num_nodes(), "{ctx}: node counts differ");
        for v in 0..a.num_nodes() {
            let la: Vec<_> = a.labels().entries(v).collect();
            let lb: Vec<_> = b.labels().entries(v).collect();
            assert_eq!(la.len(), lb.len(), "{ctx}: lens differ at {v}");
            for (x, y) in la.iter().zip(&lb) {
                assert_eq!(x.hub_rank, y.hub_rank, "{ctx}: ranks differ at {v}");
                assert_eq!(
                    x.dist.to_bits(),
                    y.dist.to_bits(),
                    "{ctx}: dist bits differ at node {v} ({} vs {})",
                    x.dist,
                    y.dist
                );
            }
        }
    }

    #[test]
    fn matches_dijkstra_on_grid() {
        let g = grid(5, 5);
        let pll = PrunedLandmarkLabeling::build(&g);
        for s in [NodeId(0), NodeId(7), NodeId(24)] {
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
    fn parallel_build_is_bit_identical_on_grids() {
        for (rows, cols) in [(4, 4), (6, 5)] {
            let g = grid(rows, cols);
            let seq = PrunedLandmarkLabeling::build_with_config(
                &g,
                VertexOrder::DegreeDescending,
                &BuildConfig::sequential(),
            );
            for threads in [2usize, 4] {
                for batch_size in [2usize, 3, 8, 64] {
                    let par = PrunedLandmarkLabeling::build_with_config(
                        &g,
                        VertexOrder::DegreeDescending,
                        &BuildConfig {
                            threads: Some(threads),
                            batch_size,
                            ..BuildConfig::default()
                        },
                    );
                    assert_bit_identical(
                        &seq,
                        &par,
                        &format!("{rows}x{cols} t={threads} b={batch_size}"),
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_build_is_bit_identical_with_zero_weight_edges() {
        // Zero-weight edges create distance ties and zero-distance hub
        // pairs — the nastiest case for the merge replay (a same-batch
        // hub can cover another hub's root at distance 0).
        let mut b = GraphBuilder::new();
        let ids: Vec<NodeId> = (0..12).map(|_| b.add_node(1.0)).collect();
        for i in 0..11 {
            b.add_edge(ids[i], ids[i + 1], if i % 3 == 0 { 0.0 } else { 1.0 })
                .unwrap();
        }
        b.add_edge(ids[0], ids[6], 0.0).unwrap();
        b.add_edge(ids[3], ids[9], 2.0).unwrap();
        let g = b.build().unwrap();
        let seq = PrunedLandmarkLabeling::build_with_config(
            &g,
            VertexOrder::DegreeDescending,
            &BuildConfig::sequential(),
        );
        for threads in [2usize, 4] {
            for batch_size in [2usize, 4, 12] {
                let par = PrunedLandmarkLabeling::build_with_config(
                    &g,
                    VertexOrder::DegreeDescending,
                    &BuildConfig {
                        threads: Some(threads),
                        batch_size,
                        ..BuildConfig::default()
                    },
                );
                assert_bit_identical(&seq, &par, &format!("zero-w t={threads} b={batch_size}"));
            }
        }
    }

    #[test]
    fn build_profile_is_populated() {
        let g = grid(5, 5);
        let par = PrunedLandmarkLabeling::build_with_config(
            &g,
            VertexOrder::DegreeDescending,
            &BuildConfig {
                threads: Some(2),
                batch_size: 8,
                ..BuildConfig::default()
            },
        );
        let p = par.build_profile();
        assert_eq!(p.threads, 2);
        assert_eq!(p.batch_size, 8);
        // Ramp: 1 + 2 + 4 + 8 + 8 + 2 = 25 hubs.
        assert_eq!(p.batches.iter().map(|b| b.hubs).sum::<usize>(), 25);
        assert!(p.batches.len() >= 4, "ramp should produce several batches");
        assert_eq!(p.committed_entries, par.stats().total_entries);
        assert!(
            p.journaled_entries >= p.committed_entries,
            "frozen-snapshot searches journal a superset"
        );

        let seq = PrunedLandmarkLabeling::build_with_config(
            &g,
            VertexOrder::DegreeDescending,
            &BuildConfig::sequential(),
        );
        let sp = seq.build_profile();
        assert_eq!(sp.threads, 1);
        assert_eq!(sp.batches.len(), 1);
        assert_eq!(sp.repaired_hubs, 0);
        assert_eq!(sp.committed_entries, seq.stats().total_entries);
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
