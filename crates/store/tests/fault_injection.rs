//! Crash injection at the journal's faultpoints (`store.wal_append`,
//! `store.checkpoint`, `store.manifest_publish`): every boundary of the
//! append/checkpoint/publish path gets a deterministic fault, and every
//! time the invariants must hold — an error means *not acknowledged*,
//! a crash before the manifest rename means the old generation still
//! rules, and recovery always lands on exactly the acknowledged state.
//!
//! Each test arms only its own faultpoint (the registry is
//! process-global; `reset()` would race sibling tests). Every test's
//! appends and checkpoints still pass through the points its siblings
//! arm, so the tests take [`serial`] and run one at a time.
#![cfg(feature = "fault-injection")]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, PoisonError};

use atd_graph::{ExpertGraph, GraphBuilder, GraphDelta, NodeId};
use atd_store::faultpoint::{arm, disarm, Fault, FaultPlan};
use atd_store::{Journal, JournalConfig, StoreError};

/// Held for a whole test, so no sibling's append or checkpoint can
/// consume the fault this test armed. A failed test poisons the lock;
/// the rest still run.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn genesis() -> ExpertGraph {
    let mut b = GraphBuilder::new();
    let n: Vec<NodeId> = (0..3).map(|i| b.add_node(2.0 + i as f64)).collect();
    b.add_edge(n[0], n[1], 0.4).unwrap();
    b.add_edge(n[1], n[2], 0.7).unwrap();
    b.build().unwrap()
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "atd_store_fault_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn nosync() -> JournalConfig {
    JournalConfig {
        sync_writes: false,
        ..JournalConfig::default()
    }
}

fn edge_delta(u: usize, v: usize, w: f64) -> GraphDelta {
    let mut d = GraphDelta::new();
    d.upsert_edge(NodeId::from_index(u), NodeId::from_index(v), w);
    d
}

#[test]
fn append_io_fault_means_not_acknowledged() {
    let _serial = serial();
    let dir = tempdir("append");
    let (mut j, _) = Journal::open(&dir, nosync(), genesis).unwrap();
    let d1 = edge_delta(0, 2, 0.9);
    j.append(&d1).unwrap();
    let acked = j.graph_fingerprint();

    arm(
        "store.wal_append",
        FaultPlan::next(Fault::IoError("disk gone"), 1),
    );
    let err = j.append(&edge_delta(0, 1, 0.1)).unwrap_err();
    disarm("store.wal_append");
    assert!(matches!(err, StoreError::Io(_)));
    // The failed mutation is not acknowledged and left no trace: the
    // in-memory state is unchanged and recovery reproduces only the
    // acknowledged prefix.
    assert_eq!(j.graph_fingerprint(), acked);
    drop(j);
    let (mut j, report) = Journal::open(&dir, nosync(), || unreachable!()).unwrap();
    assert_eq!(report.replayed_records, 1);
    assert_eq!(j.graph_fingerprint(), acked);
    // The journal keeps accepting appends after the fault.
    j.append(&edge_delta(0, 1, 0.1)).unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn kill_between_checkpoint_files_and_publish_keeps_old_generation() {
    let _serial = serial();
    let dir = tempdir("checkpoint_kill");
    let (mut j, _) = Journal::open(&dir, nosync(), genesis).unwrap();
    j.append(&edge_delta(0, 2, 0.6)).unwrap();
    let acked = j.graph_fingerprint();

    // The process dies after writing every generation-1 file but before
    // the manifest rename: the widest crash window of a checkpoint.
    arm(
        "store.checkpoint",
        FaultPlan::next(Fault::Panic("kill -9"), 1),
    );
    let result = catch_unwind(AssertUnwindSafe(|| j.checkpoint()));
    disarm("store.checkpoint");
    assert!(result.is_err(), "injected kill must unwind");
    drop(j); // the "crashed" process never uses the handle again

    let (mut j, report) = Journal::open(&dir, nosync(), || unreachable!()).unwrap();
    assert_eq!(report.generation, 0, "old generation still rules");
    assert_eq!(report.replayed_records, 1);
    assert_eq!(j.graph_fingerprint(), acked, "acknowledged state intact");
    assert!(
        report.quarantined.is_empty(),
        "orphan files are inert, not corrupt"
    );
    // The next checkpoint overwrites the orphaned files and succeeds.
    assert_eq!(j.checkpoint().unwrap(), 1);
    drop(j);
    let (j, report) = Journal::open(&dir, nosync(), || unreachable!()).unwrap();
    assert_eq!(report.generation, 1);
    assert_eq!(j.graph_fingerprint(), acked);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn manifest_publish_io_fault_aborts_checkpoint_cleanly() {
    let _serial = serial();
    let dir = tempdir("publish");
    let (mut j, _) = Journal::open(&dir, nosync(), genesis).unwrap();
    j.append(&edge_delta(1, 2, 0.2)).unwrap();
    let acked = j.graph_fingerprint();

    arm(
        "store.manifest_publish",
        FaultPlan::next(Fault::IoError("rename refused"), 1),
    );
    let err = j.checkpoint().unwrap_err();
    disarm("store.manifest_publish");
    assert!(matches!(err, StoreError::Io(_)));
    // The journal did not advance and stays fully usable.
    assert_eq!(j.generation(), 0);
    assert_eq!(j.graph_fingerprint(), acked);
    j.append(&edge_delta(0, 1, 0.15)).unwrap();
    let acked2 = j.graph_fingerprint();
    assert_eq!(j.checkpoint().unwrap(), 1);
    drop(j);
    let (j, report) = Journal::open(&dir, nosync(), || unreachable!()).unwrap();
    assert_eq!(report.generation, 1);
    assert_eq!(j.graph_fingerprint(), acked2);
    std::fs::remove_dir_all(&dir).ok();
}
