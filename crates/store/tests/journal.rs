//! Journal lifecycle and crash-consistency tests (no fault injection —
//! crashes are simulated by truncating and corrupting the files
//! directly, the way a real kill or bit rot would leave them).
//!
//! The load-bearing assertion throughout: **recovery reproduces exactly
//! the acknowledged state** — the recovered graph fingerprint equals
//! the one `append` returned, bit for bit, no matter where the "crash"
//! landed.

use std::path::{Path, PathBuf};

use atd_distance::persist::graph_fingerprint;
use atd_graph::{ExpertGraph, GraphBuilder, GraphDelta, NodeId};
use atd_store::manifest::{graph_file_name, index_file_name, wal_file_name, MANIFEST_FILE};
use atd_store::{GenerationStatus, Journal, JournalConfig, StoreError};

fn genesis() -> ExpertGraph {
    let mut b = GraphBuilder::new();
    let n: Vec<NodeId> = (0..4).map(|i| b.add_node(1.0 + i as f64)).collect();
    b.add_edge(n[0], n[1], 0.3).unwrap();
    b.add_edge(n[1], n[2], 0.6).unwrap();
    b.add_edge(n[2], n[3], 0.9).unwrap();
    b.build().unwrap()
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "atd_journal_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Tests run without fsync: durability-at-the-syscall-level is what the
/// truncation simulations exercise, and fsync would only slow them.
fn nosync() -> JournalConfig {
    JournalConfig {
        sync_writes: false,
        ..JournalConfig::default()
    }
}

/// A deterministic pseudo-random publication: sometimes a new author,
/// plus reinforced pairwise edges among a few existing experts.
fn mutation(g: &ExpertGraph, seed: u64) -> GraphDelta {
    let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    let mut next = || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let n = g.num_nodes();
    let mut delta = GraphDelta::new();
    let mut authors: Vec<NodeId> = Vec::new();
    if next() % 2 == 0 {
        authors.push(delta.add_author((next() % 50) as f64 / 5.0, n));
    }
    for _ in 0..2 {
        let id = NodeId::from_index((next() % n as u64) as usize);
        if !authors.contains(&id) {
            authors.push(id);
        }
    }
    let cost = 0.05 + (next() % 90) as f64 / 100.0;
    delta.publication(&authors, cost);
    delta
}

fn copy_dir(src: &Path, dst: &Path) {
    std::fs::remove_dir_all(dst).ok();
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

fn flip_byte(path: &Path, offset_from_end: usize) {
    let mut bytes = std::fs::read(path).unwrap();
    let i = bytes.len() - 1 - offset_from_end;
    bytes[i] ^= 0x01;
    std::fs::write(path, &bytes).unwrap();
}

#[test]
fn init_then_reopen_round_trips() {
    let dir = tempdir("init");
    let fp0 = graph_fingerprint(&genesis());
    let (j, report) = Journal::open(&dir, nosync(), genesis).unwrap();
    assert!(report.initialized);
    assert_eq!(report.generation, 0);
    assert_eq!(report.graph_fingerprint, fp0);
    assert_eq!(j.graph_fingerprint(), fp0);
    assert!(dir.join(graph_file_name(0)).exists());
    assert!(dir.join(wal_file_name(0)).exists());
    assert!(dir.join(MANIFEST_FILE).exists());
    drop(j);
    // Reopen: genesis must not be consulted again.
    let (j, report) = Journal::open(&dir, nosync(), || unreachable!()).unwrap();
    assert!(!report.initialized);
    assert_eq!(report.replayed_records, 0);
    assert_eq!(j.graph_fingerprint(), fp0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn replay_reproduces_the_uninterrupted_run() {
    let dir = tempdir("replay");
    let (mut j, _) = Journal::open(&dir, nosync(), genesis).unwrap();
    let mut shadow = genesis();
    let mut acked = Vec::new();
    for seed in 0..12 {
        let delta = mutation(&shadow, seed);
        shadow = shadow.apply_delta(&delta).unwrap();
        let receipt = j.append(&delta).unwrap();
        assert_eq!(receipt.graph_fingerprint, graph_fingerprint(&shadow));
        acked.push(receipt);
    }
    drop(j); // clean kill: no checkpoint, just the WAL
    let (j, report) = Journal::open(&dir, nosync(), || unreachable!()).unwrap();
    assert_eq!(report.replayed_records, 12);
    assert!(!report.torn_tail_truncated);
    assert_eq!(j.graph_fingerprint(), graph_fingerprint(&shadow));
    assert_eq!(
        j.graph_fingerprint(),
        acked.last().unwrap().graph_fingerprint
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn kill_at_every_byte_offset_loses_no_acknowledged_mutation() {
    let dir = tempdir("torn_src");
    let (mut j, _) = Journal::open(&dir, nosync(), genesis).unwrap();
    let wal_path = dir.join(wal_file_name(0));
    let mut shadow = genesis();
    // fps[k] = acknowledged fingerprint after k records;
    // boundaries[k] = WAL byte length at that point.
    let mut fps = vec![graph_fingerprint(&shadow)];
    let mut boundaries = vec![std::fs::metadata(&wal_path).unwrap().len()];
    for seed in 0..6 {
        let delta = mutation(&shadow, seed);
        shadow = shadow.apply_delta(&delta).unwrap();
        j.append(&delta).unwrap();
        fps.push(graph_fingerprint(&shadow));
        boundaries.push(std::fs::metadata(&wal_path).unwrap().len());
    }
    drop(j);
    let total = *boundaries.last().unwrap();
    let crash = tempdir("torn_crash");
    for cut in boundaries[0]..=total {
        copy_dir(&dir, &crash);
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(crash.join(wal_file_name(0)))
            .unwrap();
        f.set_len(cut).unwrap();
        drop(f);
        let (j, report) = Journal::open(&crash, nosync(), || unreachable!()).unwrap();
        // The whole records below the cut survive; the torn one is gone.
        let k = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
        assert_eq!(report.replayed_records, k as u64, "cut at {cut}");
        assert_eq!(j.graph_fingerprint(), fps[k], "cut at {cut}");
        assert_eq!(
            report.torn_tail_truncated,
            boundaries[k] != cut,
            "cut at {cut}"
        );
        drop(j);
        // And the store is immediately append-able again.
        let (mut j, _) = Journal::open(&crash, nosync(), || unreachable!()).unwrap();
        j.append(&mutation(j.graph(), 99)).unwrap();
    }
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&crash).ok();
}

#[test]
fn checkpoint_rotates_and_recovery_continues_from_it() {
    let dir = tempdir("checkpoint");
    let (mut j, _) = Journal::open(&dir, nosync(), genesis).unwrap();
    let mut shadow = genesis();
    for seed in 0..5 {
        let delta = mutation(&shadow, seed);
        shadow = shadow.apply_delta(&delta).unwrap();
        j.append(&delta).unwrap();
    }
    let mut index_saves = Vec::new();
    let gen = j
        .checkpoint_with(|g, path| {
            index_saves.push((graph_fingerprint(g), path.to_path_buf()));
            std::fs::write(path, b"index standin").map_err(|e| e.to_string())
        })
        .unwrap();
    assert_eq!(gen, 1);
    assert_eq!(j.generation(), 1);
    assert_eq!(j.tail_records(), 0);
    assert_eq!(
        index_saves,
        vec![(graph_fingerprint(&shadow), dir.join(index_file_name(1)))]
    );
    for seed in 5..9 {
        let delta = mutation(&shadow, seed);
        shadow = shadow.apply_delta(&delta).unwrap();
        j.append(&delta).unwrap();
    }
    drop(j);
    let (j, report) = Journal::open(&dir, nosync(), || unreachable!()).unwrap();
    assert_eq!(report.generation, 1);
    assert_eq!(report.replayed_records, 4);
    assert_eq!(j.graph_fingerprint(), graph_fingerprint(&shadow));
    assert_eq!(j.index_path(), dir.join(index_file_name(1)));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn failed_index_save_aborts_the_checkpoint_cleanly() {
    let dir = tempdir("abort");
    let (mut j, _) = Journal::open(&dir, nosync(), genesis).unwrap();
    let mut shadow = genesis();
    let delta = mutation(&shadow, 1);
    shadow = shadow.apply_delta(&delta).unwrap();
    j.append(&delta).unwrap();
    let err = j
        .checkpoint_with(|_, _| Err("disk full".into()))
        .unwrap_err();
    assert!(matches!(err, StoreError::IndexPersist(_)));
    // Still on generation 0, still append-able, and recovery agrees.
    assert_eq!(j.generation(), 0);
    let d2 = mutation(&shadow, 2);
    shadow = shadow.apply_delta(&d2).unwrap();
    j.append(&d2).unwrap();
    drop(j);
    let (j, report) = Journal::open(&dir, nosync(), || unreachable!()).unwrap();
    assert_eq!(report.generation, 0);
    assert_eq!(j.graph_fingerprint(), graph_fingerprint(&shadow));
    // The aborted attempt's number was never published, so the next
    // checkpoint reuses it.
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn retention_prunes_old_active_generations() {
    let dir = tempdir("retain");
    let config = JournalConfig {
        sync_writes: false,
        retain_generations: 1,
    };
    let (mut j, _) = Journal::open(&dir, config, genesis).unwrap();
    let mut shadow = genesis();
    for round in 0..3u64 {
        let delta = mutation(&shadow, round);
        shadow = shadow.apply_delta(&delta).unwrap();
        j.append(&delta).unwrap();
        j.checkpoint().unwrap();
    }
    assert_eq!(j.generation(), 3);
    assert_eq!(j.manifest().entries.len(), 1);
    for old in 0..3 {
        assert!(!dir.join(graph_file_name(old)).exists(), "gen {old} graph");
        assert!(!dir.join(wal_file_name(old)).exists(), "gen {old} wal");
    }
    assert!(dir.join(graph_file_name(3)).exists());
    drop(j);
    let (j, report) = Journal::open(&dir, config, || unreachable!()).unwrap();
    assert_eq!(report.generation, 3);
    assert_eq!(j.graph_fingerprint(), graph_fingerprint(&shadow));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_newest_generation_is_quarantined_not_deleted() {
    let dir = tempdir("quarantine");
    let (mut j, _) = Journal::open(&dir, nosync(), genesis).unwrap();
    let mut shadow = genesis();
    for seed in 0..4 {
        let delta = mutation(&shadow, seed);
        shadow = shadow.apply_delta(&delta).unwrap();
        j.append(&delta).unwrap();
    }
    let at_checkpoint = graph_fingerprint(&shadow);
    j.checkpoint().unwrap();
    assert_eq!(j.generation(), 1);
    drop(j);
    // Bit rot in generation 1's graph dump payload.
    flip_byte(&dir.join(graph_file_name(1)), 3);

    let (j, report) = Journal::open(&dir, nosync(), || unreachable!()).unwrap();
    assert_eq!(report.generation, 0, "must fall back to the older gen");
    assert_eq!(report.quarantined, vec![1]);
    // Generation 0's WAL tail replays to exactly the state gen 1
    // checkpointed — nothing acknowledged is lost.
    assert_eq!(j.graph_fingerprint(), at_checkpoint);
    assert!(
        dir.join(graph_file_name(1)).exists(),
        "quarantined, not deleted"
    );
    let quarantined = j
        .manifest()
        .entries
        .iter()
        .find(|e| e.generation == 1)
        .unwrap();
    assert_eq!(quarantined.status, GenerationStatus::Quarantined);
    drop(j);
    // The quarantine is durable, and the damaged number is never reused:
    // the next checkpoint publishes generation 2.
    let (mut j, report) = Journal::open(&dir, nosync(), || unreachable!()).unwrap();
    assert!(report.quarantined.is_empty(), "already quarantined on disk");
    assert_eq!(j.checkpoint().unwrap(), 2);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mid_stream_wal_corruption_quarantines_the_generation() {
    let dir = tempdir("midstream");
    let (mut j, _) = Journal::open(&dir, nosync(), genesis).unwrap();
    let wal_path = dir.join(wal_file_name(0));
    let mut shadow = genesis();
    let mut boundaries = vec![std::fs::metadata(&wal_path).unwrap().len()];
    for seed in 0..3 {
        let delta = mutation(&shadow, seed);
        shadow = shadow.apply_delta(&delta).unwrap();
        j.append(&delta).unwrap();
        boundaries.push(std::fs::metadata(&wal_path).unwrap().len());
    }
    drop(j);
    // Flip a payload byte of the *first* record: fully-present record,
    // bad checksum — corruption, not a torn tail. The only generation
    // fails, so open reports no valid generation and the manifest
    // records the quarantine.
    let mut bytes = std::fs::read(&wal_path).unwrap();
    let i = boundaries[1] as usize - 1;
    bytes[i] ^= 0x01;
    std::fs::write(&wal_path, &bytes).unwrap();
    let err = Journal::open(&dir, nosync(), || unreachable!()).unwrap_err();
    assert!(matches!(err, StoreError::NoValidGeneration));
    let manifest = atd_store::Manifest::load(&dir.join(MANIFEST_FILE)).unwrap();
    assert_eq!(manifest.entries[0].status, GenerationStatus::Quarantined);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn open_sweeps_orphaned_tmp_files() {
    let dir = tempdir("sweep");
    // u32::MAX is beyond Linux's pid_max, so this writer is provably
    // dead. Our own pid could be a live writer thread and must survive;
    // no journal file has its name, so the open's own writes leave it be.
    let orphan = dir.join("gen-0.graph.tmp.4294967295.0");
    let live = dir.join(format!("live-writer.tmp.{}.0", std::process::id()));
    for f in [&orphan, &live] {
        std::fs::write(f, b"crashed half-write").unwrap();
    }
    let (_, report) = Journal::open(&dir, nosync(), genesis).unwrap();
    assert_eq!(report.swept_tmp_files, 1);
    assert!(!orphan.exists());
    assert!(live.exists(), "own-pid temp may be a live write; keep it");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rejected_mutations_write_nothing() {
    let dir = tempdir("reject");
    let (mut j, _) = Journal::open(&dir, nosync(), genesis).unwrap();
    let before = std::fs::metadata(dir.join(wal_file_name(0))).unwrap().len();
    let fp = j.graph_fingerprint();
    let mut bad = GraphDelta::new();
    bad.upsert_edge(NodeId::from_index(0), NodeId::from_index(99), 0.5);
    assert!(matches!(j.append(&bad), Err(StoreError::Graph(_))));
    assert_eq!(j.graph_fingerprint(), fp);
    assert_eq!(
        std::fs::metadata(dir.join(wal_file_name(0))).unwrap().len(),
        before,
        "a rejected delta must not touch the WAL"
    );
    std::fs::remove_dir_all(&dir).ok();
}
