//! The durable publish path: mutations flow through the journal, and
//! the serving snapshot swaps only after the record is on disk.
//!
//! [`DurableService`] glues three pieces together:
//!
//! * an [`atd_store::Journal`] — the write-ahead log + generation store
//!   that makes every mutation crash-recoverable;
//! * a [`QueryService`] — the worker pool serving queries against the
//!   current immutable [`Snapshot`];
//! * a rebuild step that turns the journal's post-mutation graph into a
//!   fresh [`Discovery`] engine (padding the skill index for any authors
//!   the mutation added).
//!
//! The ordering contract of [`DurableService::publish_mutation`]:
//!
//! ```text
//!   validate + apply in memory        (a rejected delta writes nothing)
//!        │
//!   WAL append + fsync  ◄── the ACK point: the receipt returned to the
//!        │                  caller means "survives any crash from here"
//!   rebuild engine, swap snapshot     (queries now see the mutation)
//! ```
//!
//! A failure *before* the ack is a clean rejection — nothing durable,
//! nothing served. A failure *after* the ack (engine rebuild, snapshot
//! swap) is [`DurableError::SwapLagged`]: the mutation **is** durable
//! and recovery will serve it, but the live snapshot still answers from
//! the previous state until the next successful publish or a restart.
//! Acknowledged means recoverable, not necessarily visible-right-now —
//! the crash-consistency boundary and the freshness boundary are
//! deliberately distinct.
//!
//! After the ack, the post-mutation engine is derived **incrementally**
//! whenever the delta allows it: a [`DeltaClass::Metadata`] or
//! [`DeltaClass::EdgeRelax`] delta (no new nodes or edges, weights only
//! falling) with a current snapshot goes through
//! [`Discovery::try_incremental`], which patches only the affected label
//! planes and is bit-identical to the full rebuild. Anything else — a
//! structural delta, a stale snapshot after a previous `SwapLagged`, a
//! blown [`incremental_hub_budget`](atd_distance::BuildConfig) — falls
//! back to the full rebuild. [`ServeStats`](crate::ServeStats) counts
//! both paths (`incremental_applied` / `full_rebuild_fallbacks`).
//!
//! Restart ([`DurableService::open`]) recovers the newest valid
//! generation via [`Journal::open`], then builds the serving engine: a
//! clean checkpoint state (empty WAL tail) first tries a strict load of
//! the generation's persisted index file; a non-empty tail loads the
//! checkpoint index the same way and replays the WAL tail's deltas
//! incrementally on top of it (the journal has already verified every
//! record's sealed post-fingerprint; the engine re-checks the final
//! graph fingerprint). Any failure along that path — no persisted
//! index, an incremental refusal, a fingerprint mismatch — builds the
//! index in memory instead, leaving the generation's files untouched
//! (they are immutable once published).
//!
//! The `serve.wal_append` faultpoint guards the service-side entry to
//! the append, and `serve.incremental_patch` sits after the ack right
//! before the incremental patch (pairing with the store-side
//! `store.wal_append`, `store.checkpoint` and `store.manifest_publish`
//! points), so chaos tests can kill the publish path at every boundary
//! and assert that no acknowledged mutation is ever lost and the
//! service always restarts serving the exact acknowledged state.

use std::path::Path;
use std::sync::{Arc, Mutex};

use atd_core::{Discovery, DiscoveryError, DiscoveryOptions, SkillIndex};
use atd_distance::persist::graph_fingerprint;
use atd_graph::{DeltaClass, ExpertGraph, GraphDelta};
use atd_store::Journal;

use crate::faultpoint;
use crate::service::{QueryService, Request, ServeConfig, ServeResponse};
use crate::snapshot::Snapshot;
use crate::stats::Counters;
use crate::ServeError;

// Everything a caller needs to configure and observe the durable path,
// so depending on `atd-serve` alone suffices.
pub use atd_store::{AppendReceipt, JournalConfig, RecoveryReport, ReplayedTail, StoreError};

/// Configuration of a [`DurableService`]: journal durability, service
/// sizing, and the engine options used for every rebuild.
#[derive(Clone, Debug, Default)]
pub struct DurableConfig {
    /// Journal durability knobs (fsync policy, generation retention).
    pub journal: JournalConfig,
    /// Worker pool sizing for the query service.
    pub serve: ServeConfig,
    /// Engine options for every rebuild. `pll_index_path` is managed
    /// internally (pointed at the generation's index file during
    /// recovery, cleared for in-memory builds); a value set here is
    /// ignored.
    pub discovery: DiscoveryOptions,
    /// Auto-checkpoint after this many WAL records (`0` = only on
    /// explicit [`DurableService::checkpoint`] calls). Auto-checkpoints
    /// are best-effort: a failure leaves the WAL tail longer and the
    /// next publish retries.
    pub checkpoint_every: u64,
}

/// Failure modes of the durable publish path. The load-bearing
/// distinction is whether the mutation was acknowledged: `Store` and
/// `Engine` mean *nothing durable happened*; `SwapLagged` means the
/// mutation **is** durable (the receipt proves it) and only the live
/// snapshot is stale.
#[derive(Debug)]
pub enum DurableError {
    /// The journal rejected or failed the operation before the ack —
    /// the mutation is not durable and recovery will not resurrect it.
    Store(StoreError),
    /// Engine construction failed during recovery — the store is valid
    /// but no servable snapshot could be built from it.
    Engine(DiscoveryError),
    /// The mutation was acknowledged (see the receipt) but the snapshot
    /// swap failed; queries keep answering from the previous state
    /// until the next successful publish or a restart.
    SwapLagged {
        /// Proof of durability: the acknowledged record.
        receipt: AppendReceipt,
        /// Why the rebuild/swap failed.
        reason: String,
    },
}

impl std::fmt::Display for DurableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableError::Store(e) => write!(f, "journal error (not acknowledged): {e}"),
            DurableError::Engine(e) => write!(f, "engine build failed: {e}"),
            DurableError::SwapLagged { receipt, reason } => write!(
                f,
                "mutation durable (gen {} seq {}) but snapshot swap lagged: {reason}",
                receipt.generation, receipt.seq
            ),
        }
    }
}

impl std::error::Error for DurableError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurableError::Store(e) => Some(e),
            DurableError::Engine(e) => Some(e),
            DurableError::SwapLagged { .. } => None,
        }
    }
}

impl From<StoreError> for DurableError {
    fn from(e: StoreError) -> DurableError {
        DurableError::Store(e)
    }
}

/// A [`QueryService`] whose publish path runs through a durable
/// [`Journal`]. See the module docs for the ordering contract.
pub struct DurableService {
    service: QueryService,
    journal: Mutex<Journal>,
    /// The ingest-time skill index; padded per rebuild for any authors
    /// mutations added ([`SkillIndex::padded_to`]).
    skills: SkillIndex,
    discovery: DiscoveryOptions,
    checkpoint_every: u64,
}

impl std::fmt::Debug for DurableService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableService")
            .field("checkpoint_every", &self.checkpoint_every)
            .finish_non_exhaustive()
    }
}

impl DurableService {
    /// Opens (or initializes) the store at `dir`, recovers the newest
    /// valid generation, builds a serving engine from the recovered
    /// state, and starts the query service on it. `genesis` supplies
    /// the initial graph only for a brand-new directory; `skills` is
    /// the ingest-time skill index (new authors added by mutations hold
    /// no skills until a re-ingest).
    pub fn open(
        dir: &Path,
        skills: SkillIndex,
        config: DurableConfig,
        genesis: impl FnOnce() -> ExpertGraph,
    ) -> Result<(DurableService, RecoveryReport), DurableError> {
        let (mut journal, report) = Journal::open(dir, config.journal, genesis)?;
        let (engine, incremental_records, fell_back) =
            Self::recovery_engine(&mut journal, &skills, &config.discovery)
                .map_err(DurableError::Engine)?;
        let service = QueryService::start(engine, config.serve);
        for _ in 0..incremental_records {
            Counters::bump(&service.counters().incremental_applied);
        }
        if fell_back {
            Counters::bump(&service.counters().full_rebuild_fallbacks);
        }
        Ok((
            DurableService {
                service,
                journal: Mutex::new(journal),
                skills,
                discovery: config.discovery,
                checkpoint_every: config.checkpoint_every,
            },
            report,
        ))
    }

    /// Builds the engine for a freshly recovered journal. A clean
    /// checkpoint (empty WAL tail) first loads the generation's
    /// persisted index. A non-empty tail loads the index for the
    /// *checkpoint* graph and replays the tail's deltas incrementally on
    /// top ([`Discovery::try_incremental`] per record), then cross-checks
    /// the final graph fingerprint against the journal's. Every load is
    /// strict ([`DiscoveryError::IndexLoad`] instead of a build), and any
    /// failure — file missing because the checkpoint skipped the index,
    /// stale, corrupt, an incremental refusal — falls back to an
    /// in-memory build. The generation's files are only ever read: they
    /// are immutable once published.
    ///
    /// Returns `(engine, incrementally_replayed_records, fell_back)`;
    /// `fell_back` is only ever true for a non-empty tail (a clean
    /// checkpoint whose index does not load is a cold start, not a
    /// fallback).
    fn recovery_engine(
        journal: &mut Journal,
        skills: &SkillIndex,
        options: &DiscoveryOptions,
    ) -> Result<(Discovery, u64, bool), DiscoveryError> {
        if journal.tail_records() == 0 {
            let graph = journal.graph().clone();
            let padded = skills.padded_to(graph.num_nodes());
            let mut opts = options.clone();
            opts.pll_index_path = Some(journal.index_path());
            match Discovery::with_options(graph, padded, opts) {
                Ok(engine) => return Ok((engine, 0, false)),
                Err(DiscoveryError::IndexLoad(_)) => {}
                Err(other) => return Err(other),
            }
            return Ok((Self::rebuild_engine(journal, skills, options)?, 0, false));
        }

        if let Some(engine) = Self::incremental_tail_replay(journal, skills, options) {
            let replayed = journal.tail_records();
            return Ok((engine, replayed, false));
        }
        Ok((Self::rebuild_engine(journal, skills, options)?, 0, true))
    }

    /// The incremental half of recovery: load the checkpoint's
    /// persisted index, fold the replayed WAL tail through
    /// [`Discovery::try_incremental`], and verify the final fingerprint.
    /// `None` means "use the full-rebuild fallback" (with the reason
    /// deliberately swallowed — every refusal is legitimate and the
    /// fallback is always correct).
    fn incremental_tail_replay(
        journal: &mut Journal,
        skills: &SkillIndex,
        options: &DiscoveryOptions,
    ) -> Option<Discovery> {
        let tail = journal.take_replayed_tail()?;
        let mut opts = options.clone();
        opts.pll_index_path = Some(journal.index_path());
        let base_skills = skills.padded_to(tail.base_graph.num_nodes());
        let mut engine =
            Discovery::with_options(tail.base_graph.clone(), base_skills, opts).ok()?;
        let mut graph = tail.base_graph;
        for delta in &tail.deltas {
            graph = graph.apply_delta(delta).ok()?;
            let padded = skills.padded_to(graph.num_nodes());
            let (next, _report) = engine.try_incremental(graph.clone(), padded).ok()?;
            engine = next;
        }
        // The journal already verified each record's sealed
        // post-fingerprint; this re-derivation must land on the same tip.
        (graph_fingerprint(engine.graph()) == journal.graph_fingerprint()).then_some(engine)
    }

    /// Applies `delta` through the journal (durable ack), then derives
    /// the post-mutation engine — incrementally when the delta allows it
    /// (see the module docs), by full rebuild otherwise — and swaps the
    /// serving snapshot. `Ok` and [`DurableError::SwapLagged`] both mean
    /// the mutation is durable; every other error means it was rejected
    /// with no trace. The `serve.wal_append` faultpoint guards the
    /// entry; `serve.incremental_patch` sits post-ack before the patch.
    ///
    /// Publishes are serialized on the journal lock — the engine
    /// derivation cost is paid inside the critical section, but queries
    /// keep flowing against the pinned snapshot throughout.
    pub fn publish_mutation(&self, delta: &GraphDelta) -> Result<AppendReceipt, DurableError> {
        let mut journal = self.lock_journal();
        faultpoint::hit_io("serve.wal_append")
            .map_err(|e| DurableError::Store(StoreError::Io(e)))?;
        // Classify against the pre-append graph (append advances it) and
        // remember its fingerprint: the incremental path requires the
        // serving snapshot to *be* that state (a SwapLagged survivor
        // trails the journal and must take the rebuild path).
        let class = delta.classify(journal.graph());
        let pre_fp = journal.graph_fingerprint();
        let receipt = journal.append(delta)?;
        // ---- acknowledged: everything below must not un-ack it ----
        let engine = self
            .incremental_engine(&journal, class, pre_fp)
            .map(|engine| {
                Counters::bump(&self.service.counters().incremental_applied);
                Ok(engine)
            })
            .unwrap_or_else(|| {
                Counters::bump(&self.service.counters().full_rebuild_fallbacks);
                Self::rebuild_engine(&journal, &self.skills, &self.discovery)
            })
            .map_err(|e| DurableError::SwapLagged {
                receipt,
                reason: e.to_string(),
            })?;
        self.service.publish(engine);
        if self.checkpoint_every > 0 && journal.tail_records() >= self.checkpoint_every {
            // Best-effort: a failed auto-checkpoint keeps appending to
            // the current segment and the next publish retries.
            let _ = self.checkpoint_locked(&mut journal);
        }
        Ok(receipt)
    }

    /// The incremental half of the publish path: `None` routes to the
    /// full rebuild (structural delta, stale snapshot, or any
    /// [`Discovery::try_incremental`] refusal — budget, order or scale
    /// change). Bit-identity of the patched index makes the two paths
    /// observably identical except for latency and the stats counters.
    fn incremental_engine(
        &self,
        journal: &Journal,
        class: DeltaClass,
        pre_fp: u64,
    ) -> Option<Discovery> {
        if class == DeltaClass::Structural {
            return None;
        }
        let snapshot = self.service.current_snapshot();
        if graph_fingerprint(snapshot.engine().graph()) != pre_fp {
            return None;
        }
        faultpoint::hit("serve.incremental_patch");
        let graph = journal.graph().clone();
        let padded = self.skills.padded_to(graph.num_nodes());
        let (engine, _report) = snapshot.engine().try_incremental(graph, padded).ok()?;
        Some(engine)
    }

    /// An in-memory build over the journal's current graph, never
    /// touching the published generation's files: the post-mutation
    /// rebuild, and recovery's fallback.
    fn rebuild_engine(
        journal: &Journal,
        skills: &SkillIndex,
        options: &DiscoveryOptions,
    ) -> Result<Discovery, DiscoveryError> {
        let graph = journal.graph().clone();
        let skills = skills.padded_to(graph.num_nodes());
        let mut opts = options.clone();
        opts.pll_index_path = None;
        Discovery::with_options(graph, skills, opts)
    }

    /// Checkpoints the journal's current state as a new generation,
    /// persisting the serving snapshot's distance index alongside the
    /// graph dump when the snapshot is current (after a
    /// [`DurableError::SwapLagged`] it may trail the journal; the index
    /// is then skipped and recovery rebuilds it). Returns the new
    /// generation number.
    pub fn checkpoint(&self) -> Result<u64, StoreError> {
        let mut journal = self.lock_journal();
        self.checkpoint_locked(&mut journal)
    }

    fn checkpoint_locked(&self, journal: &mut Journal) -> Result<u64, StoreError> {
        let snapshot = self.service.current_snapshot();
        let snapshot_is_current =
            graph_fingerprint(snapshot.engine().graph()) == journal.graph_fingerprint();
        journal.checkpoint_with(|_, path| {
            if snapshot_is_current {
                snapshot
                    .engine()
                    .save_pll_index(path)
                    .map_err(|e| e.to_string())
            } else {
                Ok(())
            }
        })
    }

    /// Submits a query and waits for the answer (delegates to
    /// [`QueryService::query`]).
    pub fn query(&self, request: Request) -> Result<ServeResponse, ServeError> {
        self.service.query(request)
    }

    /// The underlying query service (submit/stats/queue introspection).
    pub fn service(&self) -> &QueryService {
        &self.service
    }

    /// Pins the currently serving snapshot.
    pub fn current_snapshot(&self) -> Arc<Snapshot> {
        self.service.current_snapshot()
    }

    /// The generation currently backing the journal.
    pub fn generation(&self) -> u64 {
        self.lock_journal().generation()
    }

    /// Fingerprint of the journal's current graph (checkpoint +
    /// acknowledged tail) — what a recovery must reproduce.
    pub fn graph_fingerprint(&self) -> u64 {
        self.lock_journal().graph_fingerprint()
    }

    /// Acknowledged records in the current generation's WAL tail.
    pub fn tail_records(&self) -> u64 {
        self.lock_journal().tail_records()
    }

    /// Drains the service and joins its workers. The journal needs no
    /// shutdown: every acknowledged record is already durable.
    pub fn shutdown(&mut self) {
        self.service.shutdown();
    }

    fn lock_journal(&self) -> std::sync::MutexGuard<'_, Journal> {
        // A panic while holding the lock (e.g. an injected fault in a
        // chaos test) poisons it; the journal's own invariants — ack
        // after durable, commit at the rename — hold regardless, so the
        // poison flag carries no extra information here.
        self.journal.lock().unwrap_or_else(|p| p.into_inner())
    }
}
