//! Algorithm 1 — the greedy team finder — and the [`Discovery`] engine
//! wrapping it.
//!
//! ## Algorithm 1 (paper, §3.2)
//!
//! For every node `r` of the network as a candidate **root**: for each
//! required skill `si`, pick the holder `v ∈ C(si)` minimizing the
//! (strategy-adjusted) `DIST(r, v)`; the root's team cost is the sum of the
//! chosen distances; keep the best `k` roots in a bounded list. `DIST` is
//! answered by a 2-hop-cover (pruned landmark labeling) oracle, making each
//! query near-constant and the whole scan `O(N · t · |Cmax|)`.
//!
//! The scan is batched per root: one reusable [`SourceScatter`] scratch
//! takes the root's label once and answers all `t · |C(si)|` holder
//! lookups as one-to-many scans over the flat CSR label store — the
//! root-side label walk is paid once per root instead of once per holder
//! query. The scan, like the index build, runs on the caller's thread;
//! a service answers independent queries side by side on its workers.
//!
//! ## One algorithm, three objectives
//!
//! * **CC** runs on the (normalized) original graph; `DIST` is the plain
//!   shortest-path distance.
//! * **CA-CC(γ)** runs on the transformed graph `G'`
//!   ([`crate::transform`]), replacing `DIST(r, v)` by
//!   `DIST(r, v) − γ·ā'(v)` (the holder `v` must not pay connector
//!   authority).
//! * **SA-CA-CC(γ, λ)** runs on the same `G'`, replacing `DIST(r, v)` by
//!   `(1−λ)·(DIST(r, v) − γ·ā'(v)) + λ·ā'(v)`.
//!
//! In every case, if the root itself holds `si`, `DIST` is zero and the
//! skill is assigned to the root.
//!
//! ## From root scan to teams
//!
//! The scan ranks `(root, assignment)` candidates by the algorithm cost
//! (sum of adjusted distances). The best candidates are then
//! **materialized**: one Dijkstra on the ranking graph from the root,
//! paths to all assigned holders, union = the team tree (shortest paths in
//! `G'` deliberately route through high-authority connectors). Exact
//! objective scores (Definitions 2–6) are recomputed on the materialized
//! tree against the *original* graph weights. Duplicated member sets
//! (different roots growing the same team) are deduplicated, which is why
//! the scan oversamples `k`.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use parking_lot::RwLock;

use atd_distance::{
    BuildConfig as PllBuildConfig, IncrementalError, IncrementalReport, LabelStats,
    PrunedLandmarkLabeling, SourceScatter, VertexOrder,
};
use atd_graph::{dijkstra_with_targets, ExpertGraph, NodeId, SubTree};

use crate::cancel::CancelToken;
use crate::error::DiscoveryError;
use crate::normalize::Normalization;
use crate::objectives::score_team;
use crate::skills::{Project, SkillIndex};
use crate::strategy::Strategy;
use crate::team::{ScoredTeam, Team};
use crate::topk::BoundedTopK;
use crate::transform::authority_transform;

/// Candidates materialized per requested team before deduplication.
const OVERSAMPLE: usize = 4;

/// Tuning knobs for the [`Discovery`] engine.
#[derive(Clone, Debug)]
pub struct DiscoveryOptions {
    /// Zero-guard for authority inversion (see [`Normalization`]).
    pub min_authority: f64,
    /// No effect: a query runs on the caller's thread whatever this
    /// says. Kept so callers that set it still compile.
    pub threads: Option<usize>,
    /// PLL index settings: the hub budget of incremental refreshes
    /// ([`Discovery::try_incremental`]). No setting changes the labels.
    pub pll_build: PllBuildConfig,
    /// Load the base (CC) PLL index from this file instead of building
    /// it. The file must hold an index saved for the same normalized
    /// graph ([`Discovery::save_pll_index`]); a missing, stale, corrupt
    /// or foreign-format file (format v1, or a storage tag other than
    /// flat CSR) fails construction with [`DiscoveryError::IndexLoad`]
    /// and never falls back to a build. This is the contract of a
    /// serving layer: a snapshot load must *fail* (keeping the old
    /// snapshot) rather than block on an unplanned multi-second build.
    /// Loaded and built indexes are bit-identical, so discovery results
    /// never depend on which path ran. Transformed (γ) indexes are
    /// always built in memory.
    pub pll_index_path: Option<PathBuf>,
    /// No effect: a set `pll_index_path` always means a strict load.
    /// Kept so callers that set it still compile.
    pub pll_load_only: bool,
}

impl Default for DiscoveryOptions {
    fn default() -> Self {
        DiscoveryOptions {
            min_authority: Normalization::DEFAULT_MIN_AUTHORITY,
            threads: None,
            pll_build: PllBuildConfig::default(),
            pll_index_path: None,
            pll_load_only: false,
        }
    }
}

/// A ranking graph (original-normalized or transformed) plus its distance
/// index.
struct RankingContext {
    graph: ExpertGraph,
    pll: PrunedLandmarkLabeling,
}

impl RankingContext {
    fn build(graph: ExpertGraph) -> Self {
        let pll = PrunedLandmarkLabeling::build_with_order(&graph, VertexOrder::default());
        RankingContext { graph, pll }
    }

    /// Loads the index for `graph` from `path`; any failure is
    /// [`DiscoveryError::IndexLoad`].
    fn load(graph: ExpertGraph, path: &Path) -> Result<Self, DiscoveryError> {
        let pll = PrunedLandmarkLabeling::load_from(path, &graph)
            .map_err(|e| DiscoveryError::IndexLoad(format!("{} ({e})", path.display())))?;
        Ok(RankingContext { graph, pll })
    }
}

/// One root-scan candidate: where to grow the team from and who covers
/// what.
#[derive(Clone, Debug)]
struct Candidate {
    root: NodeId,
    assignment: Vec<(crate::skills::SkillId, NodeId)>,
}

/// The stop policy of a search: what a cancel returns and how far the
/// root scan goes.
#[derive(Clone, Copy, Debug)]
enum Stop {
    /// A cancel returns [`DiscoveryError::Cancelled`]; the scan covers
    /// every root.
    FailFast,
    /// A cancel returns the best answer so far, once it holds a team;
    /// the scan covers the first `budget` roots (all of them when `None`).
    Anytime { budget: Option<usize> },
}

impl Stop {
    /// What a cancel seen mid-search does: fail, or keep what is in hand.
    fn on_cancel(self) -> Result<(), DiscoveryError> {
        match self {
            Stop::FailFast => Err(DiscoveryError::Cancelled),
            Stop::Anytime { .. } => Ok(()),
        }
    }
}

/// Best-so-far outcome of an **anytime** search
/// ([`Discovery::top_k_anytime`]).
///
/// Algorithm 1 improves monotonically as more rank-ordered roots are
/// scanned, so work done before a deadline expires is a bounded-quality
/// answer, not waste. The bound is explicit: the first `roots_scanned`
/// of `total_roots` candidate roots, in id order, were evaluated before
/// the search stopped, and `exhausted` says whether anything was left
/// undone.
///
/// **Determinism contract:** a result with `exhausted == true` is
/// bit-identical to [`Discovery::top_k`] on the same engine: both run the
/// same search. Two runs with the same explicit root budget produce
/// bit-identical partials. Two runs stopped by a
/// *wall-clock* deadline are **not** reproducible — the poll that trips
/// depends on timing — which is why degraded serving responses carry
/// their `roots_scanned` bound instead of pretending to be canonical.
#[derive(Debug, Clone)]
pub struct PartialResult {
    /// The best teams found so far, sorted by exact objective exactly as
    /// [`Discovery::top_k`] sorts a complete answer. A cancel stops the
    /// search only once it holds a team, so this is empty only when the
    /// search stopped on entry or no scanned root reaches every skill.
    /// The overrun past the cancel is the materializations the first
    /// team needs: one Dijkstra each, ~70 µs on the 2270-node testbed.
    pub teams: Vec<ScoredTeam>,
    /// Candidate roots evaluated before the search stopped.
    pub roots_scanned: usize,
    /// Total candidate roots in the network (the scan's full extent).
    pub total_roots: usize,
    /// `true` iff the search ran to completion — every root scanned and
    /// every surviving candidate materialized. Such a result is the
    /// complete, canonical answer.
    pub exhausted: bool,
}

impl PartialResult {
    /// Whether this answer is degraded (stopped early) rather than the
    /// complete canonical one.
    pub fn is_degraded(&self) -> bool {
        !self.exhausted
    }
}

/// Reusable per-caller query scratch for
/// [`Discovery::top_k_with`], so a long-lived serving worker pays the
/// scatter allocation once instead of once per request.
///
/// Holds one [`SourceScatter`] per ranking context (the base CC index,
/// plus one per `γ` a query has touched). A scratch is bound to nothing:
/// every use revalidates that the cached scatter's size matches the
/// engine's index and transparently reallocates when it doesn't, so one
/// scratch object can serve across hot-swapped index snapshots. After a
/// caught panic mid-query, drop the scratch (or call
/// [`QueryScratch::clear`]) — a half-loaded scatter must not be reused.
#[derive(Debug, Default)]
pub struct QueryScratch {
    /// Scatter per ranking context, keyed by `γ.to_bits()` (`u64::MAX`
    /// for the untransformed base index — `γ ∈ [0, 1]` never has those
    /// bits).
    scatters: HashMap<u64, SourceScatter>,
}

impl QueryScratch {
    /// An empty scratch; scatters are allocated lazily per context.
    pub fn new() -> QueryScratch {
        QueryScratch::default()
    }

    /// Drops all cached scatters (they re-allocate on next use).
    pub fn clear(&mut self) {
        self.scatters.clear();
    }

    /// The scatter for the context keyed by `key`, (re)allocated when
    /// missing or sized for a different index.
    fn scatter_for(&mut self, key: u64, pll: &PrunedLandmarkLabeling) -> &mut SourceScatter {
        let wanted = pll.labels().num_nodes();
        self.scatters
            .entry(key)
            .and_modify(|s| {
                if s.num_ranks() != wanted {
                    *s = pll.scatter();
                }
            })
            .or_insert_with(|| pll.scatter())
    }
}

/// The team-discovery engine: owns the expert network, its skill index,
/// normalization, and the distance indices (built lazily per `γ`).
pub struct Discovery {
    graph: Arc<ExpertGraph>,
    skills: Arc<SkillIndex>,
    norm: Normalization,
    options: DiscoveryOptions,
    /// Index for CC (normalized original weights).
    base: Arc<RankingContext>,
    /// Indices for CA-CC / SA-CA-CC, keyed by `γ.to_bits()`, one
    /// build-once cell each.
    transformed: RwLock<HashMap<u64, Arc<OnceLock<Arc<RankingContext>>>>>,
}

impl Discovery {
    /// Builds the engine with default options. This constructs the PLL
    /// index for the CC objective eagerly (the paper's indexing step).
    pub fn new(graph: ExpertGraph, skills: SkillIndex) -> Result<Self, DiscoveryError> {
        Self::with_options(graph, skills, DiscoveryOptions::default())
    }

    /// Builds the engine with explicit options.
    pub fn with_options(
        graph: ExpertGraph,
        skills: SkillIndex,
        options: DiscoveryOptions,
    ) -> Result<Self, DiscoveryError> {
        let norm = Normalization::compute_with_min_authority(&graph, options.min_authority);
        let base_graph = graph.map_weights(|_, _, w| norm.w_bar(w));
        let base = match options.pll_index_path.as_deref() {
            Some(path) => RankingContext::load(base_graph, path)?,
            None => RankingContext::build(base_graph),
        };
        Ok(Discovery {
            graph: Arc::new(graph),
            skills: Arc::new(skills),
            norm,
            options,
            base: Arc::new(base),
            transformed: RwLock::new(HashMap::new()),
        })
    }

    /// Derives an engine for `new_graph` by incrementally patching this
    /// engine's base PLL index instead of rebuilding it — valid only for
    /// deltas that keep the node set, the normalization scale, and the
    /// vertex order, and that only lower normalized distances (the
    /// typical reinforce-collaboration mutation). The resulting engine is
    /// **bit-identical** to `Discovery::with_options(new_graph, skills,
    /// options)` in its base index, so downstream `top_k` results carry
    /// the exact same float bits.
    ///
    /// On any [`IncrementalError`] the caller should fall back to a full
    /// rebuild; `self` is untouched either way. The returned engine holds
    /// no `pll_index_path` (it was never persisted) and an empty γ cache
    /// (transformed indexes depend on authorities, which the delta may
    /// have changed).
    pub fn try_incremental(
        &self,
        new_graph: ExpertGraph,
        skills: SkillIndex,
    ) -> Result<(Discovery, IncrementalReport), IncrementalError> {
        if new_graph.num_nodes() != self.graph.num_nodes() {
            return Err(IncrementalError::NodeCountChanged);
        }
        let norm =
            Normalization::compute_with_min_authority(&new_graph, self.options.min_authority);
        // w̄ = w / w_scale: a scale change rescales every normalized
        // weight at once, which no per-edge patch can express.
        if norm.w_scale().to_bits() != self.norm.w_scale().to_bits() {
            return Err(IncrementalError::ScaleChanged);
        }
        let new_base = new_graph.map_weights(|_, _, w| norm.w_bar(w));
        let (pll, report) = atd_distance::incremental::refresh(
            &self.base.pll,
            &self.base.graph,
            &new_base,
            VertexOrder::default(),
            &self.options.pll_build,
        )?;
        let mut options = self.options.clone();
        options.pll_index_path = None;
        Ok((
            Discovery {
                graph: Arc::new(new_graph),
                skills: Arc::new(skills),
                norm,
                options,
                base: Arc::new(RankingContext {
                    graph: new_base,
                    pll,
                }),
                transformed: RwLock::new(HashMap::new()),
            },
            report,
        ))
    }

    /// The original expert network.
    pub fn graph(&self) -> &ExpertGraph {
        &self.graph
    }

    /// The skill index.
    pub fn skills(&self) -> &SkillIndex {
        &self.skills
    }

    /// The normalization in effect.
    pub fn normalization(&self) -> &Normalization {
        &self.norm
    }

    /// Label statistics of the base (CC) distance index, including the
    /// byte footprint of its label planes.
    pub fn pll_stats(&self) -> LabelStats {
        self.base.pll.stats()
    }

    /// Whether the base (CC) index was loaded from
    /// `DiscoveryOptions::pll_index_path` instead of being built (an
    /// engine from [`Discovery::try_incremental`] was patched in memory).
    pub fn pll_index_loaded(&self) -> bool {
        self.options.pll_index_path.is_some()
    }

    /// Saves the base (CC) index to `path` in the versioned on-disk
    /// format (`atd_distance::persist`), fingerprinted with the
    /// normalized ranking graph so a later
    /// `DiscoveryOptions::pll_index_path` start can load it.
    pub fn save_pll_index(&self, path: &Path) -> Result<(), DiscoveryError> {
        self.base
            .pll
            .save_to(path, &self.base.graph)
            .map_err(|e| DiscoveryError::IndexPersist(format!("{} ({e})", path.display())))
    }

    /// Eagerly builds (and caches) the transformed index for `γ`. Useful
    /// for benchmarks that must separate index construction from query
    /// time.
    pub fn prepare_gamma(&self, gamma: f64) -> Result<(), DiscoveryError> {
        Strategy::CaCc { gamma }.validate()?;
        let _ = self.context_for(Some(gamma));
        Ok(())
    }

    /// The ranking context for `γ` (the base one for CC). A γ index is
    /// built once: callers that need it meanwhile wait for that build,
    /// while the map's lock is held only to fetch the γ's cell, so a
    /// build never blocks queries on another γ.
    fn context_for(&self, gamma: Option<f64>) -> Arc<RankingContext> {
        let Some(g) = gamma else {
            return Arc::clone(&self.base);
        };
        let cell = Arc::clone(self.transformed.write().entry(g.to_bits()).or_default());
        let ctx = cell.get_or_init(|| {
            Arc::new(RankingContext::build(authority_transform(
                &self.graph,
                &self.norm,
                g,
            )))
        });
        Arc::clone(ctx)
    }

    /// Applies the strategy's authority adjustment to a raw distance.
    #[inline]
    fn adjust(&self, strategy: Strategy, d: f64, v: NodeId) -> f64 {
        match strategy {
            Strategy::Cc => d,
            Strategy::CaCc { gamma } => d - gamma * self.norm.a_bar(v),
            Strategy::SaCaCc { gamma, lambda } => {
                (1.0 - lambda) * (d - gamma * self.norm.a_bar(v)) + lambda * self.norm.a_bar(v)
            }
        }
    }

    /// Runs Algorithm 1's inner loop for one root, returning the candidate
    /// and its algorithm cost (or `None` when some skill is unreachable
    /// from this root).
    ///
    /// The root's label is scattered into `scatter` **once**; all
    /// `t · |C(s)|` holder lookups are then one-to-many scans
    /// ([`PrunedLandmarkLabeling::query_one_to_many`]) instead of
    /// independent merge-joins, eliminating the repeated root-side label
    /// walk. Skill-holder lists are in ascending node-id order
    /// ([`SkillIndex`] builds them that way), so among equally cheap
    /// holders the lowest id wins. [`Discovery::scan_roots`] is its only
    /// caller.
    fn evaluate_root(
        &self,
        strategy: Strategy,
        pll: &PrunedLandmarkLabeling,
        scatter: &mut SourceScatter,
        project: &Project,
        root: NodeId,
    ) -> Option<(f64, Candidate)> {
        pll.load_source(scatter, root);
        let mut cost = 0.0;
        let mut assignment = Vec::with_capacity(project.len());
        for &s in project.skills() {
            // "If root contains skill si, DIST is set to zero and si is
            // assigned to root."
            if self.skills.has_skill(root, s) {
                assignment.push((s, root));
                continue;
            }
            let mut best: Option<(f64, NodeId)> = None;
            for &v in self.skills.holders(s) {
                if let Some(d) = pll.query_one_to_many(scatter, v) {
                    let adj = self.adjust(strategy, d, v);
                    let better = match best {
                        None => true,
                        // Deterministic tie-break on node id.
                        Some((bc, bv)) => adj < bc || (adj == bc && v < bv),
                    };
                    if better {
                        best = Some((adj, v));
                    }
                }
            }
            let (c, v) = best?;
            cost += c;
            assignment.push((s, v));
        }
        Some((cost, Candidate { root, assignment }))
    }

    /// Scans the roots in ascending id order for the best `limit`
    /// candidates by algorithm cost, ties broken by root id (the lower id
    /// is offered first and `BoundedTopK` keeps it), and returns them
    /// ascending together with the number of roots scanned. `cancel` is
    /// polled once per root; `stop` decides what a cancel returns and how
    /// far the scan goes.
    #[allow(clippy::too_many_arguments)]
    fn scan_roots(
        &self,
        strategy: Strategy,
        pll: &PrunedLandmarkLabeling,
        project: &Project,
        limit: usize,
        cancel: &CancelToken,
        scatter: &mut SourceScatter,
        stop: Stop,
    ) -> Result<(Vec<(f64, Candidate)>, usize), DiscoveryError> {
        let n = self.graph.num_nodes();
        let end = match stop {
            Stop::FailFast => n,
            Stop::Anytime { budget } => budget.unwrap_or(n).min(n),
        };
        let mut best = BoundedTopK::new(limit);
        let mut scanned = 0;
        for i in 0..end {
            if cancel.is_cancelled() {
                stop.on_cancel()?;
                break;
            }
            let root = NodeId::from_index(i);
            if let Some((cost, cand)) = self.evaluate_root(strategy, pll, scatter, project, root) {
                best.offer(cost, cand);
            }
            scanned += 1;
        }
        Ok((best.into_sorted(), scanned))
    }

    /// Materializes a candidate into a concrete team: one Dijkstra on the
    /// ranking graph, paths to all assigned holders, tree weights taken
    /// from the original graph.
    fn materialize(&self, ranking_graph: &ExpertGraph, cand: &Candidate) -> Option<Team> {
        let holders: Vec<NodeId> = cand.assignment.iter().map(|&(_, v)| v).collect();
        let tree = if holders.iter().all(|&h| h == cand.root) {
            SubTree::singleton(cand.root)
        } else {
            let sp = dijkstra_with_targets(ranking_graph, cand.root, Some(&holders));
            let mut paths = Vec::with_capacity(holders.len());
            for &h in &holders {
                paths.push(sp.path_to(h)?);
            }
            SubTree::from_paths(&self.graph, cand.root, &paths).ok()?
        };
        Some(Team::new(tree, cand.assignment.clone()))
    }

    /// Finds the top-`k` teams for `project` under `strategy`.
    ///
    /// The root scan ranks candidates by Algorithm 1's internal cost (the
    /// paper's list `L`); the oversampled survivors are materialized,
    /// deduplicated by member set, and the final top-`k` is ordered by the
    /// **exact recomputed objective** (ties broken by algorithm cost), so
    /// the first team is always the best one actually found.
    pub fn top_k(
        &self,
        project: &Project,
        strategy: Strategy,
        k: usize,
    ) -> Result<Vec<ScoredTeam>, DiscoveryError> {
        self.top_k_with(project, strategy, k, None, &CancelToken::never())
    }

    /// [`top_k`](Discovery::top_k) with the hooks a serving layer needs:
    /// a reusable per-caller [`QueryScratch`] (avoids the `O(n)` scatter
    /// allocation per query) and a [`CancelToken`]
    /// polled once on entry, once per scanned root and once per
    /// materialized candidate.
    ///
    /// Results are bit-identical to the plain entry point — scratch reuse
    /// and cancellation change *when* the search stops, never what a
    /// completed search returns. A cancelled call returns
    /// [`DiscoveryError::Cancelled`] and no partial teams.
    pub fn top_k_with(
        &self,
        project: &Project,
        strategy: Strategy,
        k: usize,
        scratch: Option<&mut QueryScratch>,
        cancel: &CancelToken,
    ) -> Result<Vec<ScoredTeam>, DiscoveryError> {
        Ok(self
            .search(project, strategy, k, scratch, cancel, Stop::FailFast)?
            .teams)
    }

    /// Anytime variant of [`top_k_with`](Discovery::top_k_with): deadline
    /// expiry (or an explicit cancel) returns the **best answer found so
    /// far** instead of [`DiscoveryError::Cancelled`].
    ///
    /// The scan runs in ascending root order, so `roots_scanned` is an
    /// exact prefix and a fixed `root_budget` yields bit-identical
    /// partials across runs. `root_budget` caps the scan to the first `n`
    /// roots (a serving layer's brownout knob); `None` scans everything
    /// the token allows. The token is polled at the same points as in
    /// [`top_k_with`](Discovery::top_k_with). A cancel ends the scan, but
    /// materialization goes on in rank order until one team is in hand
    /// (see [`PartialResult::teams`]).
    ///
    /// Outcomes:
    ///
    /// * ran to completion → `exhausted == true`, bit-identical to
    ///   [`top_k`](Discovery::top_k) on the same engine;
    /// * stopped early → `Ok` partial, `exhausted == false`, holding at
    ///   least one team when any scanned root reaches every skill;
    /// * stopped on entry, or before any scanned root yielded a team →
    ///   `Ok` partial with empty `teams` (still flagged unexhausted — the
    ///   caller knows the search barely started);
    /// * ran to completion finding nothing →
    ///   [`DiscoveryError::NoTeamFound`], exactly like `top_k`;
    /// * invalid input (empty project, uncoverable skill, bad γ/λ) →
    ///   the same validation errors as `top_k`, *never* a partial.
    pub fn top_k_anytime(
        &self,
        project: &Project,
        strategy: Strategy,
        k: usize,
        scratch: Option<&mut QueryScratch>,
        cancel: &CancelToken,
        root_budget: Option<usize>,
    ) -> Result<PartialResult, DiscoveryError> {
        let stop = Stop::Anytime {
            budget: root_budget,
        };
        self.search(project, strategy, k, scratch, cancel, stop)
    }

    /// The one query pipeline behind [`top_k_with`](Discovery::top_k_with)
    /// and [`top_k_anytime`](Discovery::top_k_anytime): validate, pick up
    /// the ranking context and scratch, scan the roots, then materialize,
    /// dedup, score and sort. `stop` decides only what a cancel returns
    /// and how far the scan goes.
    fn search(
        &self,
        project: &Project,
        strategy: Strategy,
        k: usize,
        scratch: Option<&mut QueryScratch>,
        cancel: &CancelToken,
        stop: Stop,
    ) -> Result<PartialResult, DiscoveryError> {
        strategy.validate()?;
        if project.is_empty() {
            return Err(DiscoveryError::EmptyProject);
        }
        for &s in project.skills() {
            if self.skills.holders(s).is_empty() {
                return Err(DiscoveryError::UncoverableSkill(s));
            }
        }
        let total_roots = self.graph.num_nodes();
        let mut result = PartialResult {
            teams: Vec::new(),
            roots_scanned: 0,
            total_roots,
            exhausted: true,
        };
        if k == 0 {
            return Ok(result);
        }
        if cancel.is_cancelled() {
            stop.on_cancel()?;
            result.exhausted = false;
            return Ok(result);
        }

        let ctx = self.context_for(strategy.gamma());
        let limit = k.saturating_mul(OVERSAMPLE);
        let key = strategy.gamma().map(f64::to_bits).unwrap_or(u64::MAX);
        let mut own_scratch = QueryScratch::new();
        let scatter = scratch
            .unwrap_or(&mut own_scratch)
            .scatter_for(key, &ctx.pll);
        let (ranked, scanned) =
            self.scan_roots(strategy, &ctx.pll, project, limit, cancel, scatter, stop)?;
        result.roots_scanned = scanned;
        result.exhausted = scanned == total_roots;

        let mut seen = HashSet::new();
        for (cost, cand) in ranked {
            if cancel.is_cancelled() {
                stop.on_cancel()?;
                result.exhausted = false;
                // An anytime answer holds a team before it stops, even
                // when the cancel came during the scan.
                if !result.teams.is_empty() {
                    break;
                }
            }
            let Some(team) = self.materialize(&ctx.graph, &cand) else {
                continue;
            };
            if !seen.insert(team.member_key()) {
                continue;
            }
            let score = score_team(&self.norm, &team);
            let objective = strategy.objective(&score);
            result.teams.push(ScoredTeam {
                team,
                score,
                objective,
                algorithm_cost: cost,
            });
        }
        if result.teams.is_empty() && result.exhausted {
            // A *complete* search that found nothing is NoTeamFound; an
            // early-stopped empty answer stays Ok so the caller sees how
            // little was scanned.
            return Err(DiscoveryError::NoTeamFound);
        }
        result.teams.sort_by(|a, b| {
            a.objective
                .total_cmp(&b.objective)
                .then(a.algorithm_cost.total_cmp(&b.algorithm_cost))
        });
        result.teams.truncate(k);
        Ok(result)
    }

    /// Convenience: the single best team.
    pub fn best(
        &self,
        project: &Project,
        strategy: Strategy,
    ) -> Result<ScoredTeam, DiscoveryError> {
        Ok(self
            .top_k(project, strategy, 1)?
            .into_iter()
            .next()
            .expect("top_k(1) returns one team on success"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skills::SkillIndexBuilder;
    use atd_graph::GraphBuilder;

    /// The paper's Figure-1-style fixture: two holder pairs joined through
    /// connectors of very different authority, equal raw edge weights.
    ///
    /// ```text
    ///   h_sn_a (SN, auth 9)  - senior (auth 139) - h_tm_a (TM, auth 11)
    ///   h_sn_b (SN, auth 5)  - junior (auth 12)  - h_tm_b (TM, auth 3)
    /// ```
    fn figure1() -> (
        ExpertGraph,
        SkillIndex,
        crate::skills::SkillId,
        crate::skills::SkillId,
    ) {
        let mut b = GraphBuilder::new();
        let h_sn_a = b.add_node(9.0);
        let senior = b.add_node(139.0);
        let h_tm_a = b.add_node(11.0);
        let h_sn_b = b.add_node(5.0);
        let junior = b.add_node(12.0);
        let h_tm_b = b.add_node(3.0);
        b.add_edge(h_sn_a, senior, 1.0).unwrap();
        b.add_edge(senior, h_tm_a, 1.0).unwrap();
        b.add_edge(h_sn_b, junior, 1.0).unwrap();
        b.add_edge(junior, h_tm_b, 1.0).unwrap();
        // A bridge so everything is one component (expensive to cross).
        b.add_edge(senior, junior, 1.0).unwrap();
        let g = b.build().unwrap();

        let mut sb = SkillIndexBuilder::new();
        let sn = sb.intern("social-networks");
        let tm = sb.intern("text-mining");
        sb.grant(h_sn_a, sn);
        sb.grant(h_sn_b, sn);
        sb.grant(h_tm_a, tm);
        sb.grant(h_tm_b, tm);
        let idx = sb.build(g.num_nodes());
        (g, idx, sn, tm)
    }

    fn engine() -> (Discovery, Project) {
        let (g, idx, sn, tm) = figure1();
        let project = Project::new(vec![sn, tm]);
        let d = Discovery::new(g, idx).unwrap();
        (d, project)
    }

    #[test]
    fn cc_cannot_distinguish_equal_cost_teams_but_authority_can() {
        let (d, project) = engine();
        // Under CC both teams cost the same; under SA-CA-CC the senior team
        // must win (this is exactly the paper's Figure 1 argument).
        let best = d
            .best(
                &project,
                Strategy::SaCaCc {
                    gamma: 0.6,
                    lambda: 0.6,
                },
            )
            .unwrap();
        assert!(
            best.team.members().contains(&NodeId(1)),
            "the 139-h-index connector should be on the winning team, got {:?}",
            best.team.members()
        );
        assert!(best.team.covers(&project));
    }

    #[test]
    fn every_strategy_returns_covering_trees() {
        let (d, project) = engine();
        for strategy in [
            Strategy::Cc,
            Strategy::CaCc { gamma: 0.6 },
            Strategy::SaCaCc {
                gamma: 0.6,
                lambda: 0.6,
            },
        ] {
            let teams = d.top_k(&project, strategy, 3).unwrap();
            assert!(!teams.is_empty(), "{strategy} found nothing");
            for st in &teams {
                assert!(st.team.covers(&project), "{strategy} returned non-cover");
                st.team.tree.validate().expect("valid tree");
            }
        }
    }

    #[test]
    fn try_incremental_matches_full_rebuild_bitwise() {
        let (g, idx, sn, tm) = figure1();
        let project = Project::new(vec![sn, tm]);
        let engine = Discovery::new(g.clone(), idx).unwrap();

        // A reinforce delta lowering one edge: degrees and w_max (other
        // unit edges remain) are untouched, so the incremental path must
        // accept it.
        let mut delta = atd_graph::GraphDelta::new();
        delta.reinforce_edge(NodeId(1), NodeId(2), 0.5);
        let new_graph = g.apply_delta(&delta).unwrap();

        let (_, idx2, _, _) = figure1();
        let (inc, report) = engine.try_incremental(new_graph.clone(), idx2).unwrap();
        assert!(report.affected_hubs > 0);

        let (_, idx3, _, _) = figure1();
        let scratch = Discovery::new(new_graph, idx3).unwrap();
        for strategy in [
            Strategy::Cc,
            Strategy::CaCc { gamma: 0.6 },
            Strategy::SaCaCc {
                gamma: 0.6,
                lambda: 0.6,
            },
        ] {
            let a = inc.top_k(&project, strategy, 3).unwrap();
            let b = scratch.top_k(&project, strategy, 3).unwrap();
            assert_eq!(a.len(), b.len(), "{strategy}: team counts");
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.team.member_key(), y.team.member_key(), "{strategy}");
                assert_eq!(
                    x.objective.to_bits(),
                    y.objective.to_bits(),
                    "{strategy}: objective bits"
                );
            }
        }

        // A raised weight must be refused: from the derived engine
        // (edge now 0.5), upserting 0.9 is a genuine increase while the
        // untouched unit edges keep w_scale stable.
        let mut up = atd_graph::GraphDelta::new();
        up.upsert_edge(NodeId(1), NodeId(2), 0.9);
        let raised = inc.graph().apply_delta(&up).unwrap();
        let (_, idx4, _, _) = figure1();
        match inc.try_incremental(raised, idx4) {
            Err(e) => assert_eq!(e, IncrementalError::WeightIncreased),
            Ok(_) => panic!("raised weight must not be accepted incrementally"),
        }
    }

    #[test]
    fn top_k_is_sorted_and_deduplicated() {
        let (d, project) = engine();
        let teams = d.top_k(&project, Strategy::Cc, 5).unwrap();
        for w in teams.windows(2) {
            assert!(w[0].objective <= w[1].objective);
        }
        let mut keys: Vec<_> = teams.iter().map(|t| t.team.member_key()).collect();
        keys.sort();
        let before = keys.len();
        keys.dedup();
        assert_eq!(before, keys.len(), "member sets must be unique");
    }

    #[test]
    fn root_holding_skill_assigns_itself() {
        let (d, _) = engine();
        let sn = d.skills().id_of("social-networks").unwrap();
        let project = Project::new(vec![sn]);
        let best = d.best(&project, Strategy::Cc).unwrap();
        // A single-skill project must be solved by a single holder, no
        // connectors and zero cost.
        assert_eq!(best.team.size(), 1);
        assert_eq!(best.score.cc, 0.0);
        assert_eq!(best.algorithm_cost, 0.0);
    }

    #[test]
    fn empty_project_is_rejected() {
        let (d, _) = engine();
        assert_eq!(
            d.top_k(&Project::new(vec![]), Strategy::Cc, 1),
            Err(DiscoveryError::EmptyProject)
        );
    }

    #[test]
    fn uncoverable_skill_is_rejected() {
        let (g, idx, sn, _) = figure1();
        let mut sb = SkillIndexBuilder::new();
        let s0 = sb.intern("social-networks");
        let ghost = sb.intern("quantum-basket-weaving");
        for &h in idx.holders(sn) {
            sb.grant(h, s0);
        }
        let idx2 = sb.build(g.num_nodes());
        let d = Discovery::new(g, idx2).unwrap();
        assert_eq!(
            d.top_k(&Project::new(vec![s0, ghost]), Strategy::Cc, 1),
            Err(DiscoveryError::UncoverableSkill(ghost))
        );
    }

    #[test]
    fn invalid_gamma_is_rejected() {
        let (d, project) = engine();
        assert!(matches!(
            d.top_k(&project, Strategy::CaCc { gamma: 2.0 }, 1),
            Err(DiscoveryError::InvalidTradeoff { .. })
        ));
    }

    #[test]
    fn k_zero_returns_empty() {
        let (d, project) = engine();
        assert!(d.top_k(&project, Strategy::Cc, 0).unwrap().is_empty());
    }

    #[test]
    fn persisted_index_round_trip_yields_identical_teams() {
        // Save, then start a second engine from the same path: it must
        // load (not rebuild) and answer every top-k query bit-identically;
        // a *different* graph against the same path must be refused as
        // stale.
        let dir = std::env::temp_dir().join(format!(
            "atd_persist_greedy_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let (g, idx, sn, tm) = figure1();
        let project = Project::new(vec![sn, tm]);
        let path = dir.join("index.atdl");
        let opts = || DiscoveryOptions {
            pll_index_path: Some(path.clone()),
            ..Default::default()
        };
        let first = Discovery::new(g.clone(), idx.clone()).unwrap();
        assert!(!first.pll_index_loaded(), "built in memory");
        first.save_pll_index(&path).unwrap();
        let second = Discovery::with_options(g.clone(), idx.clone(), opts()).unwrap();
        assert!(second.pll_index_loaded(), "must load");
        assert_eq!(second.pll_stats(), first.pll_stats());
        for strategy in [
            Strategy::Cc,
            Strategy::SaCaCc {
                gamma: 0.6,
                lambda: 0.6,
            },
        ] {
            let a = first.top_k(&project, strategy, 3).unwrap();
            let b = second.top_k(&project, strategy, 3).unwrap();
            assert_eq!(a.len(), b.len(), "{strategy}");
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.team.member_key(), y.team.member_key());
                assert_eq!(x.objective.to_bits(), y.objective.to_bits());
                assert_eq!(x.algorithm_cost.to_bits(), y.algorithm_cost.to_bits());
            }
        }
        // Same path, different snapshot: the saved index is stale.
        let mut b2 = GraphBuilder::new();
        let x = b2.add_node(1.0);
        let y = b2.add_node(2.0);
        b2.add_edge(x, y, 1.0).unwrap();
        let g2 = b2.build().unwrap();
        let mut sb = SkillIndexBuilder::new();
        let s = sb.intern("s");
        sb.grant(x, s);
        let idx2 = sb.build(g2.num_nodes());
        match Discovery::with_options(g2, idx2, opts()) {
            Err(DiscoveryError::IndexLoad(msg)) => assert!(msg.contains("index.atdl"), "{msg}"),
            other => panic!("stale file must be refused: {:?}", other.err()),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn storage_mismatch_on_disk_triggers_rebuild_in_requested_backend() {
        // CSR is the only backend an engine requests. A file carrying the
        // tag of a retired label layout (1–3 were the compressed and
        // dictionary layouts) is refused with a typed error instead of
        // being rebuilt.
        let dir = std::env::temp_dir().join(format!(
            "atd_persist_storage_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("index.atdl");
        let (g, idx, _, _) = figure1();
        let opts = || DiscoveryOptions {
            pll_index_path: Some(path.clone()),
            ..Default::default()
        };
        let csr = Discovery::new(g.clone(), idx.clone()).unwrap();
        csr.save_pll_index(&path).unwrap();
        let csr_bytes = std::fs::read(&path).unwrap();
        for tag in [1u8, 2, 3] {
            let mut bytes = csr_bytes.clone();
            bytes[6] = tag; // the header's storage tag byte
            std::fs::write(&path, &bytes).unwrap();
            match Discovery::with_options(g.clone(), idx.clone(), opts()) {
                Err(DiscoveryError::IndexLoad(msg)) => {
                    assert!(msg.contains("storage tag"), "tag {tag}: {msg}")
                }
                other => panic!("tag {tag}: {:?}", other.err()),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_pll_index_writes_a_loadable_file() {
        let dir = std::env::temp_dir().join(format!(
            "atd_persist_save_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("explicit.atdl");
        let (d, project) = engine();
        assert!(!d.pll_index_loaded());
        d.save_pll_index(&path).unwrap();
        let (g, idx, _, _) = figure1();
        let loaded = Discovery::with_options(
            g,
            idx,
            DiscoveryOptions {
                pll_index_path: Some(path.clone()),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(loaded.pll_index_loaded());
        let a = d.best(&project, Strategy::Cc).unwrap();
        let b = loaded.best(&project, Strategy::Cc).unwrap();
        assert_eq!(a.team.member_key(), b.team.member_key());
        assert_eq!(a.objective.to_bits(), b.objective.to_bits());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_only_mode_refuses_to_rebuild() {
        let dir = std::env::temp_dir().join(format!(
            "atd_load_only_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("index.atdl");
        let (g, idx, sn, tm) = figure1();
        let project = Project::new(vec![sn, tm]);
        // `pll_load_only` is a no-op: every load is strict.
        let opts = || DiscoveryOptions {
            pll_index_path: Some(path.clone()),
            pll_load_only: true,
            ..Default::default()
        };
        // No file yet: the load must fail rather than rebuild.
        match Discovery::with_options(g.clone(), idx.clone(), opts()) {
            Err(DiscoveryError::IndexLoad(_)) => {}
            other => panic!("expected IndexLoad, got {:?}", other.err()),
        }
        // Save, then the load succeeds and answers bit-identically.
        let built = Discovery::new(g.clone(), idx.clone()).unwrap();
        built.save_pll_index(&path).unwrap();
        let loaded = Discovery::with_options(g.clone(), idx.clone(), opts()).unwrap();
        assert!(loaded.pll_index_loaded());
        let a = built.best(&project, Strategy::Cc).unwrap();
        let b = loaded.best(&project, Strategy::Cc).unwrap();
        assert_eq!(a.team.member_key(), b.team.member_key());
        assert_eq!(a.objective.to_bits(), b.objective.to_bits());
        // Corrupt the file: the load fails, never rebuilds.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        match Discovery::with_options(g, idx, opts()) {
            Err(DiscoveryError::IndexLoad(_)) => {}
            other => panic!("corrupt file in load-only mode: {:?}", other.err()),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cancelled_token_aborts_before_and_during_search() {
        let (g, idx, sn, tm) = figure1();
        let project = Project::new(vec![sn, tm]);
        let d = Discovery::new(g, idx).unwrap();
        let token = CancelToken::new();
        token.cancel();
        assert_eq!(
            d.top_k_with(&project, Strategy::Cc, 1, None, &token),
            Err(DiscoveryError::Cancelled)
        );
        // An already-expired deadline behaves the same.
        let expired = CancelToken::with_timeout(std::time::Duration::ZERO);
        assert_eq!(
            d.top_k_with(&project, Strategy::Cc, 1, None, &expired),
            Err(DiscoveryError::Cancelled)
        );
        assert!(expired.deadline_elapsed());
        // A generous deadline completes normally and matches top_k.
        let relaxed = CancelToken::with_timeout(std::time::Duration::from_secs(3600));
        let a = d
            .top_k_with(&project, Strategy::Cc, 2, None, &relaxed)
            .unwrap();
        let b = d.top_k(&project, Strategy::Cc, 2).unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.team.member_key(), y.team.member_key());
            assert_eq!(x.objective.to_bits(), y.objective.to_bits());
        }
    }

    #[test]
    fn query_scratch_reuse_is_bit_identical() {
        // The serving layer's per-worker scratch: repeated queries across
        // strategies (distinct gamma planes) through one QueryScratch
        // must match the scratch-free path exactly.
        let (g, idx, sn, tm) = figure1();
        let project = Project::new(vec![sn, tm]);
        let d = Discovery::new(g, idx).unwrap();
        let mut scratch = QueryScratch::new();
        let never = CancelToken::never();
        for _round in 0..3 {
            for strategy in [
                Strategy::Cc,
                Strategy::CaCc { gamma: 0.6 },
                Strategy::SaCaCc {
                    gamma: 0.6,
                    lambda: 0.6,
                },
            ] {
                let a = d
                    .top_k_with(&project, strategy, 3, Some(&mut scratch), &never)
                    .unwrap();
                let b = d.top_k(&project, strategy, 3).unwrap();
                assert_eq!(a.len(), b.len(), "{strategy}");
                for (x, y) in a.iter().zip(&b) {
                    assert_eq!(x.team.member_key(), y.team.member_key());
                    assert_eq!(x.objective.to_bits(), y.objective.to_bits());
                    assert_eq!(x.algorithm_cost.to_bits(), y.algorithm_cost.to_bits());
                }
            }
        }
        scratch.clear();
        let again = d
            .top_k_with(&project, Strategy::Cc, 1, Some(&mut scratch), &never)
            .unwrap();
        let direct = d.top_k(&project, Strategy::Cc, 1).unwrap();
        assert_eq!(
            again[0].team.member_key(),
            direct[0].team.member_key(),
            "cleared scratch repopulates correctly"
        );
    }

    #[test]
    fn disconnected_skills_yield_no_team() {
        // Two components, one skill in each: no root reaches both.
        let mut b = GraphBuilder::new();
        let a0 = b.add_node(1.0);
        let a1 = b.add_node(1.0);
        let c0 = b.add_node(1.0);
        let c1 = b.add_node(1.0);
        b.add_edge(a0, a1, 1.0).unwrap();
        b.add_edge(c0, c1, 1.0).unwrap();
        let g = b.build().unwrap();
        let mut sb = SkillIndexBuilder::new();
        let sa = sb.intern("a");
        let sc = sb.intern("c");
        sb.grant(a0, sa);
        sb.grant(c0, sc);
        let idx = sb.build(g.num_nodes());
        let d = Discovery::new(g, idx).unwrap();
        assert_eq!(
            d.top_k(&Project::new(vec![sa, sc]), Strategy::Cc, 1),
            Err(DiscoveryError::NoTeamFound)
        );
    }

    #[test]
    fn anytime_returns_flagged_partial_at_every_poll_point() {
        // The search polls its token at fixed points: once on entry, once
        // per scanned root, once per materialized candidate. Sweep the
        // poll budget from zero upward so the countdown trips at EVERY
        // one of them — before the scan, mid-root-scan, and during
        // candidate materialization — and assert the anytime path hands
        // back a well-formed flagged partial each time while the
        // fail-fast path errors with Cancelled each time.
        let (d, project) = engine();
        let full = d.top_k(&project, Strategy::Cc, 3).unwrap();
        let n = d.graph().num_nodes();
        let mut completed_at = None;
        for polls in 0u64..1000 {
            let partial = d
                .top_k_anytime(
                    &project,
                    Strategy::Cc,
                    3,
                    None,
                    &CancelToken::after_polls(polls),
                    None,
                )
                .unwrap();
            assert_eq!(partial.total_roots, n);
            assert!(partial.roots_scanned <= n);
            if polls == 0 {
                assert_eq!(partial.roots_scanned, 0, "tripped before the scan");
            } else if (polls as usize) <= n {
                assert_eq!(
                    partial.roots_scanned,
                    polls as usize - 1,
                    "tripped mid-root-scan after the entry poll"
                );
            }
            if partial.roots_scanned > 0 {
                assert!(
                    !partial.teams.is_empty(),
                    "a partial over {} scanned roots holds a team",
                    partial.roots_scanned
                );
            }
            for w in partial.teams.windows(2) {
                assert!(w[0].objective <= w[1].objective, "partials stay sorted");
            }
            for st in &partial.teams {
                assert!(st.team.covers(&project), "partial teams are real teams");
                st.team.tree.validate().unwrap();
            }
            let fail_fast = d.top_k_with(
                &project,
                Strategy::Cc,
                3,
                None,
                &CancelToken::after_polls(polls),
            );
            if partial.exhausted {
                // Ran to completion: bit-identical to the plain entry
                // point, and the fail-fast path completes too (both
                // consume polls at the same points).
                assert_eq!(partial.teams.len(), full.len());
                for (x, y) in partial.teams.iter().zip(&full) {
                    assert_eq!(x.team.member_key(), y.team.member_key());
                    assert_eq!(x.objective.to_bits(), y.objective.to_bits());
                    assert_eq!(x.algorithm_cost.to_bits(), y.algorithm_cost.to_bits());
                }
                assert!(fail_fast.is_ok(), "fail-fast completes at poll {polls}");
                completed_at = Some(polls);
                break;
            }
            assert!(partial.is_degraded());
            assert_eq!(
                fail_fast,
                Err(DiscoveryError::Cancelled),
                "fail-fast must error at poll budget {polls}"
            );
        }
        let done = completed_at.expect("anytime search completes within the sweep");
        assert!(
            done as usize > n + 1,
            "completion takes the entry poll, {n} scan polls, and at least \
             one materialization poll — got {done}"
        );
    }

    #[test]
    fn anytime_root_budget_is_deterministic_and_flagged() {
        let (d, project) = engine();
        let n = d.graph().num_nodes();
        let mut scratch = QueryScratch::new();
        // A capped scan is flagged degraded with an exact roots_scanned
        // bound, and repeated runs at the same budget are bit-identical.
        for budget in 1..=n {
            let a = d
                .top_k_anytime(
                    &project,
                    Strategy::Cc,
                    3,
                    Some(&mut scratch),
                    &CancelToken::never(),
                    Some(budget),
                )
                .ok();
            let b = d
                .top_k_anytime(
                    &project,
                    Strategy::Cc,
                    3,
                    None,
                    &CancelToken::never(),
                    Some(budget),
                )
                .ok();
            match (&a, &b) {
                (Some(x), Some(y)) => {
                    assert_eq!(x.roots_scanned, budget.min(n));
                    assert_eq!(x.exhausted, budget == n);
                    assert_eq!(x.roots_scanned, y.roots_scanned);
                    assert_eq!(x.teams.len(), y.teams.len());
                    for (s, t) in x.teams.iter().zip(&y.teams) {
                        assert_eq!(s.team.member_key(), t.team.member_key());
                        assert_eq!(s.objective.to_bits(), t.objective.to_bits());
                        assert_eq!(s.algorithm_cost.to_bits(), t.algorithm_cost.to_bits());
                    }
                }
                (None, None) => {}
                other => panic!("same budget must give the same outcome: {other:?}"),
            }
        }
        // Full budget runs to exhaustion and equals top_k bitwise.
        let full = d
            .top_k_anytime(
                &project,
                Strategy::Cc,
                3,
                None,
                &CancelToken::never(),
                Some(n),
            )
            .unwrap();
        assert!(full.exhausted);
        let want = d.top_k(&project, Strategy::Cc, 3).unwrap();
        assert_eq!(full.teams.len(), want.len());
        for (x, y) in full.teams.iter().zip(&want) {
            assert_eq!(x.team.member_key(), y.team.member_key());
            assert_eq!(x.objective.to_bits(), y.objective.to_bits());
        }
    }

    #[test]
    fn anytime_validation_errors_are_never_partials() {
        let (d, project) = engine();
        let never = CancelToken::never();
        assert_eq!(
            d.top_k_anytime(&Project::new(vec![]), Strategy::Cc, 1, None, &never, None)
                .unwrap_err(),
            DiscoveryError::EmptyProject
        );
        assert!(matches!(
            d.top_k_anytime(
                &project,
                Strategy::CaCc { gamma: 2.0 },
                1,
                None,
                &never,
                None
            ),
            Err(DiscoveryError::InvalidTradeoff { .. })
        ));
        // k = 0 is a complete empty answer, not a degraded one.
        let empty = d
            .top_k_anytime(&project, Strategy::Cc, 0, None, &never, None)
            .unwrap();
        assert!(empty.exhausted && empty.teams.is_empty());
        // A complete search over a project nothing covers errors exactly
        // like top_k, while the same search stopped at zero polls stays a
        // well-formed empty partial.
        let cancelled = d
            .top_k_anytime(
                &project,
                Strategy::Cc,
                1,
                None,
                &CancelToken::after_polls(0),
                None,
            )
            .unwrap();
        assert!(cancelled.teams.is_empty() && !cancelled.exhausted);
    }

    #[test]
    fn prepare_gamma_caches_the_transform() {
        let (d, project) = engine();
        d.prepare_gamma(0.6).unwrap();
        assert!(d.prepare_gamma(2.0).is_err());
        // Query after prepare must agree with query that builds lazily.
        let a = d.best(&project, Strategy::CaCc { gamma: 0.6 }).unwrap();
        let b = d.best(&project, Strategy::CaCc { gamma: 0.6 }).unwrap();
        assert_eq!(a.team.member_key(), b.team.member_key());
    }

    #[test]
    fn concurrent_first_queries_share_one_gamma_index() {
        // Two first queries on one γ build its index once: both get the
        // same context, not one each.
        let side = 16;
        let mut b = GraphBuilder::new();
        let nodes: Vec<NodeId> = (0..side * side)
            .map(|i| b.add_node(1.0 + (i % 7) as f64))
            .collect();
        for r in 0..side {
            for c in 0..side {
                let u = nodes[r * side + c];
                if c + 1 < side {
                    b.add_edge(u, nodes[r * side + c + 1], 1.0).unwrap();
                }
                if r + 1 < side {
                    b.add_edge(u, nodes[(r + 1) * side + c], 1.0).unwrap();
                }
            }
        }
        let g = b.build().unwrap();
        let mut sb = SkillIndexBuilder::new();
        let s = sb.intern("s");
        sb.grant(nodes[0], s);
        let d = Discovery::new(g, sb.build(side * side)).unwrap();
        let barrier = std::sync::Barrier::new(2);
        let [a, b] = std::thread::scope(|scope| {
            let first = || {
                barrier.wait();
                d.context_for(Some(0.6))
            };
            let (x, y) = (scope.spawn(first), scope.spawn(first));
            [x.join().unwrap(), y.join().unwrap()]
        });
        assert!(Arc::ptr_eq(&a, &b), "one γ index per γ");
    }
}
