//! The journal: durable mutations + crash-recoverable generations.
//!
//! A [`Journal`] owns a store directory and moves it through exactly one
//! state machine:
//!
//! ```text
//!            ┌──────────────── open ────────────────┐
//!            │ no manifest?  → init generation 0    │
//!            │ manifest?     → newest active gen:   │
//!            │   load graph dump (fingerprint ✓)    │
//!            │   replay WAL tail (checksum ✓,       │
//!            │     sequence ✓, per-record           │
//!            │     post-fingerprint ✓)              │
//!            │   torn tail → truncate cleanly       │
//!            │   any defect → quarantine gen,       │
//!            │     try next-older active            │
//!            └──────────────────┬───────────────────┘
//!                               ▼
//!        append(delta):  apply → WAL write+fsync → ACK
//!                               │
//!        checkpoint():  write gen files (graph dump,
//!                       optional index, fresh WAL)
//!                               │
//!                       manifest tmp+rename  ◄── the commit point
//! ```
//!
//! The two invariants everything hangs off:
//!
//! * **Ack after durable.** [`Journal::append`] returns only after the
//!   record is on disk; an error means nothing was acknowledged, and a
//!   crash mid-append leaves a torn tail that recovery truncates —
//!   either way no *acknowledged* mutation is ever lost.
//! * **Commit at the rename.** A checkpoint writes every
//!   next-generation file first and publishes the manifest last. A
//!   crash before the rename leaves the old manifest ruling (the
//!   orphaned files are inert and get overwritten on the next attempt,
//!   because a failed generation's number is only reused while it never
//!   entered the manifest); a crash after it leaves the new generation
//!   fully live with an empty WAL.

use std::path::{Path, PathBuf};

use atd_distance::persist::{graph_fingerprint, sweep_orphaned_tmp_dir};
use atd_graph::{ExpertGraph, GraphDelta};

use crate::error::StoreError;
use crate::faultpoint;
use crate::graphio::{load_graph, save_graph};
use crate::manifest::{
    graph_file_name, index_file_name, wal_file_name, GenerationEntry, GenerationStatus, Manifest,
    MANIFEST_FILE,
};
use crate::wal::{read_segment_file, WalHeader, WalWriter};

/// Tuning knobs for a [`Journal`].
#[derive(Clone, Copy, Debug)]
pub struct JournalConfig {
    /// fsync WAL appends and generation files (the durability point of
    /// the ack). Turn off only in tests/benches that measure pure
    /// throughput — a crash can then lose acknowledged records the
    /// kernel had not flushed.
    pub sync_writes: bool,
    /// How many **active** generations to keep on disk, newest first
    /// (≥ 1; the freshly published one counts). Older active
    /// generations are pruned — files deleted, manifest entries dropped
    /// — after each successful checkpoint. Quarantined generations are
    /// never pruned.
    pub retain_generations: usize,
}

impl Default for JournalConfig {
    fn default() -> Self {
        JournalConfig {
            sync_writes: true,
            retain_generations: 2,
        }
    }
}

/// What `append` acknowledged: the record is durable at this point.
#[derive(Clone, Copy, Debug)]
pub struct AppendReceipt {
    /// Sequence number inside the current generation's WAL segment.
    pub seq: u64,
    /// The generation whose segment holds the record.
    pub generation: u64,
    /// Fingerprint of the graph after this mutation (what a recovery
    /// must reproduce).
    pub graph_fingerprint: u64,
}

/// How [`Journal::open`] arrived at a servable state.
#[derive(Clone, Debug)]
pub struct RecoveryReport {
    /// The generation now serving.
    pub generation: u64,
    /// WAL records replayed on top of its checkpoint.
    pub replayed_records: u64,
    /// Whether a torn tail was truncated off the segment.
    pub torn_tail_truncated: bool,
    /// Generations newly quarantined by this recovery (newest first).
    pub quarantined: Vec<u64>,
    /// Fingerprint of the recovered graph (checkpoint + replayed tail).
    pub graph_fingerprint: u64,
    /// True when the directory was empty and generation 0 was
    /// initialized from the genesis graph.
    pub initialized: bool,
    /// Orphaned `*.tmp.<pid>.<seq>` files swept on open.
    pub swept_tmp_files: usize,
}

/// The WAL tail recovery replayed to reach the servable graph: the
/// checkpoint graph it started from plus the acknowledged deltas in
/// replay order. Engine layers use this to rebuild derived state (e.g. a
/// distance index) *incrementally* from a persisted per-checkpoint
/// artifact instead of from scratch — the journal itself has already
/// verified every record's sealed post-fingerprint, so the deltas are
/// exactly the acknowledged history.
#[derive(Clone, Debug)]
pub struct ReplayedTail {
    /// The generation's checkpoint graph, before any tail record.
    pub base_graph: ExpertGraph,
    /// The replayed deltas, oldest first; applying them to `base_graph`
    /// reproduces [`Journal::graph`] bit-identically.
    pub deltas: Vec<GraphDelta>,
}

/// A recovered, append-able, checkpoint-able store. See the module docs
/// for the state machine.
#[derive(Debug)]
pub struct Journal {
    dir: PathBuf,
    config: JournalConfig,
    manifest: Manifest,
    generation: u64,
    graph: ExpertGraph,
    tip_fingerprint: u64,
    wal: WalWriter,
    tail_records: u64,
    replayed_tail: Option<ReplayedTail>,
}

/// One generation successfully validated during recovery.
struct Recovered {
    graph: ExpertGraph,
    tip_fingerprint: u64,
    replayed: u64,
    torn: bool,
    /// `Some(valid_len)` when the existing segment should be reopened
    /// at that length; `None` when the segment file itself was torn
    /// during creation and must be recreated.
    reopen_at: Option<u64>,
    /// Present when the replay had records (see [`ReplayedTail`]).
    tail: Option<ReplayedTail>,
}

impl Journal {
    /// Opens (or initializes) the store at `dir` and recovers to the
    /// newest valid generation. `genesis` supplies the initial graph
    /// only when the directory holds no manifest yet.
    ///
    /// Recovery walks active generations newest-first; any defect —
    /// missing or corrupt graph dump, stale or corrupt WAL segment, a
    /// replay whose fingerprint disagrees with what was acknowledged —
    /// quarantines that generation (status flip + manifest republish,
    /// files kept for forensics) and falls back to the next older one.
    /// [`StoreError::NoValidGeneration`] means nothing survived. A
    /// corrupt *manifest* is unrecoverable by design: it is tiny,
    /// rewritten atomically, and never appended to, so damage means the
    /// storage itself is untrustworthy.
    pub fn open(
        dir: &Path,
        config: JournalConfig,
        genesis: impl FnOnce() -> ExpertGraph,
    ) -> Result<(Journal, RecoveryReport), StoreError> {
        std::fs::create_dir_all(dir)?;
        let swept = sweep_orphaned_tmp_dir(dir);
        let manifest_path = dir.join(MANIFEST_FILE);
        if !manifest_path.exists() {
            return Self::init(dir, config, genesis(), swept);
        }

        let mut manifest = Manifest::load(&manifest_path)?;
        let mut quarantined = Vec::new();
        let active: Vec<GenerationEntry> = manifest
            .entries
            .iter()
            .rev()
            .filter(|e| e.status == GenerationStatus::Active)
            .copied()
            .collect();
        for entry in active {
            match Self::recover_generation(dir, &entry) {
                Ok(rec) => {
                    if !quarantined.is_empty() {
                        for &g in &quarantined {
                            manifest.quarantine(g);
                        }
                        manifest.publish(&manifest_path)?;
                    }
                    let wal_path = dir.join(wal_file_name(entry.generation));
                    let wal = match rec.reopen_at {
                        Some(valid_len) => WalWriter::reopen(
                            &wal_path,
                            valid_len,
                            rec.replayed,
                            config.sync_writes,
                        )?,
                        None => WalWriter::create(
                            &wal_path,
                            WalHeader {
                                base_generation: entry.generation,
                                base_fingerprint: entry.graph_fingerprint,
                            },
                            config.sync_writes,
                        )?,
                    };
                    let report = RecoveryReport {
                        generation: entry.generation,
                        replayed_records: rec.replayed,
                        torn_tail_truncated: rec.torn,
                        quarantined,
                        graph_fingerprint: rec.tip_fingerprint,
                        initialized: false,
                        swept_tmp_files: swept,
                    };
                    let journal = Journal {
                        dir: dir.to_path_buf(),
                        config,
                        manifest,
                        generation: entry.generation,
                        graph: rec.graph,
                        tip_fingerprint: rec.tip_fingerprint,
                        wal,
                        tail_records: rec.replayed,
                        replayed_tail: rec.tail,
                    };
                    return Ok((journal, report));
                }
                Err(_) => quarantined.push(entry.generation),
            }
        }
        // Nothing recovered: record the carnage, then fail typed.
        if !quarantined.is_empty() {
            for &g in &quarantined {
                manifest.quarantine(g);
            }
            manifest.publish(&manifest_path)?;
        }
        Err(StoreError::NoValidGeneration)
    }

    fn init(
        dir: &Path,
        config: JournalConfig,
        graph: ExpertGraph,
        swept: usize,
    ) -> Result<(Journal, RecoveryReport), StoreError> {
        let fp = graph_fingerprint(&graph);
        save_graph(&dir.join(graph_file_name(0)), &graph)?;
        let wal = WalWriter::create(
            &dir.join(wal_file_name(0)),
            WalHeader {
                base_generation: 0,
                base_fingerprint: fp,
            },
            config.sync_writes,
        )?;
        let manifest = Manifest {
            entries: vec![GenerationEntry {
                generation: 0,
                graph_fingerprint: fp,
                status: GenerationStatus::Active,
            }],
        };
        manifest.publish(&dir.join(MANIFEST_FILE))?;
        let report = RecoveryReport {
            generation: 0,
            replayed_records: 0,
            torn_tail_truncated: false,
            quarantined: Vec::new(),
            graph_fingerprint: fp,
            initialized: true,
            swept_tmp_files: swept,
        };
        Ok((
            Journal {
                dir: dir.to_path_buf(),
                config,
                manifest,
                generation: 0,
                graph,
                tip_fingerprint: fp,
                wal,
                tail_records: 0,
                replayed_tail: None,
            },
            report,
        ))
    }

    /// Validates one generation end to end: graph dump (checksum +
    /// fingerprint), WAL segment identity, and a self-verifying replay
    /// of the tail.
    fn recover_generation(dir: &Path, entry: &GenerationEntry) -> Result<Recovered, StoreError> {
        let graph = load_graph(
            &dir.join(graph_file_name(entry.generation)),
            entry.graph_fingerprint,
        )?;
        let read = read_segment_file(&dir.join(wal_file_name(entry.generation)))?;
        let Some(header) = read.header else {
            // Torn during segment creation: nothing was ever appended,
            // the checkpoint graph is the whole state.
            return Ok(Recovered {
                tip_fingerprint: entry.graph_fingerprint,
                graph,
                replayed: 0,
                torn: true,
                reopen_at: None,
                tail: None,
            });
        };
        if header.base_generation != entry.generation {
            return Err(StoreError::StaleSegment {
                what: "base generation",
            });
        }
        if header.base_fingerprint != entry.graph_fingerprint {
            return Err(StoreError::StaleSegment {
                what: "base fingerprint",
            });
        }
        let tail_base = (!read.records.is_empty()).then(|| graph.clone());
        let mut graph = graph;
        let mut tip = entry.graph_fingerprint;
        for rec in &read.records {
            graph = graph.apply_delta(&rec.delta)?;
            let fp = graph_fingerprint(&graph);
            if fp != rec.post_fingerprint {
                return Err(StoreError::ReplayMismatch {
                    seq: rec.seq,
                    expected: rec.post_fingerprint,
                    found: fp,
                });
            }
            tip = fp;
        }
        let tail = tail_base.map(|base_graph| ReplayedTail {
            base_graph,
            deltas: read.records.iter().map(|rec| rec.delta.clone()).collect(),
        });
        Ok(Recovered {
            graph,
            tip_fingerprint: tip,
            replayed: read.records.len() as u64,
            torn: read.torn,
            reopen_at: Some(read.valid_len),
            tail,
        })
    }

    /// Applies `delta`, makes the mutation durable, and acknowledges it.
    /// Order matters: the delta is validated and applied in memory
    /// first (a rejected op writes nothing), then the WAL record —
    /// sealed with the post-apply fingerprint — is written and fsynced,
    /// and only then does the in-memory state advance. An `Err` of any
    /// kind means the mutation is *not* acknowledged and recovery will
    /// not resurrect it. The `store.wal_append` faultpoint guards the
    /// write.
    pub fn append(&mut self, delta: &GraphDelta) -> Result<AppendReceipt, StoreError> {
        let next = self.graph.apply_delta(delta)?;
        let fp = graph_fingerprint(&next);
        faultpoint::hit_io("store.wal_append")?;
        let seq = self.wal.append(delta, fp)?;
        self.graph = next;
        self.tip_fingerprint = fp;
        self.tail_records = seq;
        Ok(AppendReceipt {
            seq,
            generation: self.generation,
            graph_fingerprint: fp,
        })
    }

    /// Checkpoints the current state as a new generation, without a
    /// persisted index (recovery will rebuild one).
    pub fn checkpoint(&mut self) -> Result<u64, StoreError> {
        self.checkpoint_with(|_, _| Ok(()))
    }

    /// Checkpoints the current state as a new generation: writes the
    /// graph dump, lets `save_index` persist a distance index at the
    /// generation's index path (e.g. via `LabelSet::save_to` /
    /// `Discovery::save_pll_index`), opens a fresh WAL segment, and
    /// **then** publishes the manifest — the atomic commit point.
    /// Afterwards, active generations beyond
    /// [`JournalConfig::retain_generations`] are pruned.
    ///
    /// Any failure before the publish aborts cleanly: the journal keeps
    /// appending to the old generation's segment and the next attempt
    /// overwrites the orphaned files. The `store.checkpoint` faultpoint
    /// sits between file creation and publish (the widest crash
    /// window); `store.manifest_publish` guards the rename itself.
    pub fn checkpoint_with(
        &mut self,
        save_index: impl FnOnce(&ExpertGraph, &Path) -> Result<(), String>,
    ) -> Result<u64, StoreError> {
        let gen = self.manifest.next_generation();
        let fp = self.tip_fingerprint;
        save_graph(&self.dir.join(graph_file_name(gen)), &self.graph)?;
        save_index(&self.graph, &self.dir.join(index_file_name(gen)))
            .map_err(StoreError::IndexPersist)?;
        let wal = WalWriter::create(
            &self.dir.join(wal_file_name(gen)),
            WalHeader {
                base_generation: gen,
                base_fingerprint: fp,
            },
            self.config.sync_writes,
        )?;
        faultpoint::hit("store.checkpoint");

        let mut manifest = self.manifest.clone();
        manifest.entries.push(GenerationEntry {
            generation: gen,
            graph_fingerprint: fp,
            status: GenerationStatus::Active,
        });
        let retain = self.config.retain_generations.max(1);
        let actives = manifest
            .entries
            .iter()
            .filter(|e| e.status == GenerationStatus::Active)
            .count();
        let mut prune = actives.saturating_sub(retain);
        let mut pruned = Vec::new();
        manifest.entries.retain(|e| {
            if e.status == GenerationStatus::Active && prune > 0 {
                prune -= 1;
                pruned.push(e.generation);
                false
            } else {
                true
            }
        });
        manifest.publish(&self.dir.join(MANIFEST_FILE))?;

        self.manifest = manifest;
        self.generation = gen;
        self.wal = wal;
        self.tail_records = 0;
        // The old generations' files are unreachable from the manifest
        // now; deleting them is mere disk hygiene and best-effort.
        for g in pruned {
            std::fs::remove_file(self.dir.join(graph_file_name(g))).ok();
            std::fs::remove_file(self.dir.join(index_file_name(g))).ok();
            std::fs::remove_file(self.dir.join(wal_file_name(g))).ok();
        }
        Ok(gen)
    }

    /// The current in-memory graph (checkpoint + acknowledged tail).
    pub fn graph(&self) -> &ExpertGraph {
        &self.graph
    }

    /// Fingerprint of [`graph`](Journal::graph).
    pub fn graph_fingerprint(&self) -> u64 {
        self.tip_fingerprint
    }

    /// The generation currently serving.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Acknowledged records in the current generation's WAL tail.
    pub fn tail_records(&self) -> u64 {
        self.tail_records
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The manifest as currently published.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// Path of the current generation's persisted index (whether the
    /// checkpoint's `save_index` wrote one is the caller's contract).
    pub fn index_path(&self) -> PathBuf {
        self.dir.join(index_file_name(self.generation))
    }

    /// Takes the WAL tail the opening recovery replayed, if any — the
    /// checkpoint graph plus the acknowledged deltas in order (see
    /// [`ReplayedTail`]). `None` when the open initialized a fresh store,
    /// the tail was empty, or the tail was already taken; appends after
    /// open do not refill it.
    pub fn take_replayed_tail(&mut self) -> Option<ReplayedTail> {
        self.replayed_tail.take()
    }
}
