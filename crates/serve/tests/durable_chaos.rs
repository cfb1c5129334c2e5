//! Kill-during-publish chaos: the durable publish path dies at every
//! faultpoint of the `serve.wal_append` → `store.wal_append` →
//! `store.checkpoint` → `store.manifest_publish` chain, and every time
//! the two acceptance invariants must hold — **no acknowledged mutation
//! is lost** (the recovered fingerprint and top-k query bits equal an
//! uninterrupted run's) and **the service always restarts serving**.
//!
//! Each test arms only its own faultpoint and disarms it; both
//! registries (serve's and store's) are process-global, so `reset()`
//! would race sibling tests. Every test's publishes and checkpoints
//! still pass through the points its siblings arm, so the tests take
//! [`serial`] and run one at a time.
#![cfg(feature = "fault-injection")]

mod common;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, PoisonError};

use atd_core::greedy::{Discovery, DiscoveryOptions};
use atd_distance::persist::graph_fingerprint;
use atd_graph::{ExpertGraph, GraphDelta, NodeId};
use atd_serve::{DurableConfig, DurableError, DurableService, Request, ServeConfig};
use atd_store::JournalConfig;

/// Held for a whole test, so no sibling's publish or checkpoint can
/// consume the fault this test armed. A failed test poisons the lock;
/// the rest still run.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "atd_serve_chaos_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn options() -> DiscoveryOptions {
    DiscoveryOptions::default()
}

fn config() -> DurableConfig {
    DurableConfig {
        journal: JournalConfig {
            sync_writes: false,
            ..Default::default()
        },
        serve: ServeConfig {
            workers: 2,
            queue_capacity: 64,
            default_deadline: None,
            ..ServeConfig::default()
        },
        discovery: options(),
        checkpoint_every: 0,
    }
}

fn delta(u: usize, v: usize, w: f64) -> GraphDelta {
    let mut d = GraphDelta::new();
    d.upsert_edge(NodeId::from_index(u), NodeId::from_index(v), w);
    d
}

/// Asserts the service answers bit-identically to an uninterrupted run
/// over `graph` — the "recovered state matches a non-crashed run"
/// acceptance check.
fn assert_serves_uninterrupted_state(
    service: &DurableService,
    graph: &ExpertGraph,
    skills: &atd_core::SkillIndex,
    projects: &[atd_core::Project],
    context: &str,
) {
    let reference = Discovery::with_options(
        graph.clone(),
        skills.padded_to(graph.num_nodes()),
        options(),
    )
    .expect("reference engine builds");
    for (i, project) in projects.iter().enumerate() {
        let strategy = common::strategies()[i % 3];
        let resp = service
            .query(Request::new(project.clone(), strategy, 3))
            .expect("recovered service serves");
        let want = reference.top_k(project, strategy, 3).unwrap();
        common::assert_bit_identical(&resp.teams, &want, &format!("{context}: {strategy}"));
    }
}

/// An I/O fault at either append-side faultpoint (the service's
/// `serve.wal_append` entry or the store's `store.wal_append` write
/// guard) rejects the mutation un-acknowledged, and a subsequent crash +
/// restart recovers exactly the acknowledged prefix.
#[test]
fn append_faults_reject_unacknowledged_and_recovery_keeps_the_acked_prefix() {
    let _serial = serial();
    for (tag, arm_point) in [
        ("serve_append", None),
        ("store_append", Some("store.wal_append")),
    ] {
        let net = common::network(31);
        let dir = tempdir(tag);
        let genesis = net.graph.clone();
        let (service, _) =
            DurableService::open(&dir, net.skills.clone(), config(), || genesis).unwrap();

        let d1 = delta(0, 1, 0.3);
        let r1 = service.publish_mutation(&d1).unwrap();

        match arm_point {
            None => atd_serve::faultpoint::arm(
                "serve.wal_append",
                atd_serve::FaultPlan::next(atd_serve::Fault::IoError("disk gone"), 1),
            ),
            Some(p) => atd_store::faultpoint::arm(
                p,
                atd_store::faultpoint::FaultPlan::next(
                    atd_store::faultpoint::Fault::IoError("disk gone"),
                    1,
                ),
            ),
        }
        let err = service.publish_mutation(&delta(0, 2, 0.7)).unwrap_err();
        match arm_point {
            None => atd_serve::faultpoint::disarm("serve.wal_append"),
            Some(p) => atd_store::faultpoint::disarm(p),
        }
        assert!(
            matches!(err, DurableError::Store(_)),
            "{tag}: an append fault must mean not-acknowledged, got {err:?}"
        );
        assert_eq!(service.graph_fingerprint(), r1.graph_fingerprint);

        // "kill -9": abandon the handle without a graceful shutdown.
        drop(service);

        let (mut service, report) =
            DurableService::open(&dir, net.skills.clone(), config(), || unreachable!()).unwrap();
        assert_eq!(report.replayed_records, 1, "{tag}");
        assert_eq!(report.graph_fingerprint, r1.graph_fingerprint, "{tag}");
        let acked = net.graph.apply_delta(&d1).unwrap();
        assert_serves_uninterrupted_state(
            &service,
            &acked,
            &net.skills,
            &common::projects(&net, 4),
            tag,
        );
        // The rejected mutation is still acceptable afterwards.
        service.publish_mutation(&delta(0, 2, 0.7)).unwrap();
        service.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A publisher killed mid-append (panic at `serve.wal_append`) leaves
/// the service serving; the poisoned journal lock is recovered and the
/// next publish succeeds.
#[test]
fn killed_publisher_thread_does_not_take_the_service_down() {
    let _serial = serial();
    let net = common::network(32);
    let dir = tempdir("killed_publisher");
    let genesis = net.graph.clone();
    let (mut service, _) =
        DurableService::open(&dir, net.skills.clone(), config(), || genesis).unwrap();
    let r1 = service.publish_mutation(&delta(0, 1, 0.45)).unwrap();

    atd_serve::faultpoint::arm(
        "serve.wal_append",
        atd_serve::FaultPlan::next(atd_serve::Fault::Panic("kill the publisher"), 1),
    );
    let result = catch_unwind(AssertUnwindSafe(|| {
        service.publish_mutation(&delta(0, 2, 0.9))
    }));
    atd_serve::faultpoint::disarm("serve.wal_append");
    assert!(result.is_err(), "injected panic must unwind");

    // Still serving, still acknowledging.
    assert_eq!(service.graph_fingerprint(), r1.graph_fingerprint);
    let acked = net.graph.apply_delta(&delta(0, 1, 0.45)).unwrap();
    assert_serves_uninterrupted_state(
        &service,
        &acked,
        &net.skills,
        &common::projects(&net, 3),
        "after killed publisher",
    );
    service.publish_mutation(&delta(0, 2, 0.9)).unwrap();
    service.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// The widest checkpoint crash window: every generation file written,
/// manifest rename never reached. The old generation still rules after
/// restart, every acknowledged mutation replays, and the next
/// checkpoint succeeds.
#[test]
fn kill_between_checkpoint_files_and_manifest_publish_recovers_acked_state() {
    let _serial = serial();
    let net = common::network(33);
    let dir = tempdir("checkpoint_kill");
    let genesis = net.graph.clone();
    let (service, _) =
        DurableService::open(&dir, net.skills.clone(), config(), || genesis).unwrap();
    let d1 = delta(1, 2, 0.6);
    let r1 = service.publish_mutation(&d1).unwrap();

    atd_store::faultpoint::arm(
        "store.checkpoint",
        atd_store::faultpoint::FaultPlan::next(atd_store::faultpoint::Fault::Panic("kill -9"), 1),
    );
    let result = catch_unwind(AssertUnwindSafe(|| service.checkpoint()));
    atd_store::faultpoint::disarm("store.checkpoint");
    assert!(result.is_err(), "injected kill must unwind");
    drop(service); // the "crashed" process never touches the handle again

    let (mut service, report) =
        DurableService::open(&dir, net.skills.clone(), config(), || unreachable!()).unwrap();
    assert_eq!(report.generation, 0, "old generation still rules");
    assert_eq!(report.replayed_records, 1);
    assert_eq!(report.graph_fingerprint, r1.graph_fingerprint);
    assert!(report.quarantined.is_empty(), "orphan files are inert");
    let acked = net.graph.apply_delta(&d1).unwrap();
    assert_serves_uninterrupted_state(
        &service,
        &acked,
        &net.skills,
        &common::projects(&net, 4),
        "checkpoint kill",
    );
    assert_eq!(service.checkpoint().unwrap(), 1);
    service.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A refused manifest rename aborts the checkpoint cleanly: the service
/// keeps serving and acknowledging on the old generation, and the
/// retried checkpoint lands.
#[test]
fn manifest_publish_fault_aborts_checkpoint_and_service_keeps_serving() {
    let _serial = serial();
    let net = common::network(34);
    let dir = tempdir("manifest_fault");
    let genesis = net.graph.clone();
    let (service, _) =
        DurableService::open(&dir, net.skills.clone(), config(), || genesis).unwrap();
    let r1 = service.publish_mutation(&delta(2, 3, 0.55)).unwrap();

    atd_store::faultpoint::arm(
        "store.manifest_publish",
        atd_store::faultpoint::FaultPlan::next(
            atd_store::faultpoint::Fault::IoError("rename refused"),
            1,
        ),
    );
    let err = service.checkpoint().unwrap_err();
    atd_store::faultpoint::disarm("store.manifest_publish");
    assert!(matches!(err, atd_store::StoreError::Io(_)));
    assert_eq!(service.generation(), 0);
    assert_eq!(service.graph_fingerprint(), r1.graph_fingerprint);

    let r2 = service.publish_mutation(&delta(0, 3, 0.8)).unwrap();
    assert_eq!(service.checkpoint().unwrap(), 1);
    drop(service);

    let (mut service, report) =
        DurableService::open(&dir, net.skills.clone(), config(), || unreachable!()).unwrap();
    assert_eq!(report.generation, 1);
    assert_eq!(report.graph_fingerprint, r2.graph_fingerprint);
    let acked = net
        .graph
        .apply_delta(&delta(2, 3, 0.55))
        .unwrap()
        .apply_delta(&delta(0, 3, 0.8))
        .unwrap();
    assert_serves_uninterrupted_state(
        &service,
        &acked,
        &net.skills,
        &common::projects(&net, 4),
        "after retried checkpoint",
    );
    service.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A publisher killed **mid-incremental-patch** (panic at
/// `serve.incremental_patch`, after the ack, before the label patch):
/// the mutation is durable, and recovery — which finds no persisted
/// index for the un-checkpointed generation — falls back to a full
/// rebuild whose fingerprint and top-k answers are bit-identical to an
/// uninterrupted run.
#[test]
fn kill_mid_incremental_patch_recovers_by_full_rebuild_bit_identically() {
    let _serial = serial();
    let net = common::network(36);
    let dir = tempdir("inc_patch_kill");
    let genesis = net.graph.clone();
    let (service, _) =
        DurableService::open(&dir, net.skills.clone(), config(), || genesis).unwrap();

    // A pure relaxation (cheapest positive non-max edge halved) — the
    // delta that routes through the incremental faultpoint.
    let w_max = net.graph.edges().map(|(_, _, w)| w).fold(0.0f64, f64::max);
    let (u, v, w) = net
        .graph
        .edges()
        .filter(|&(_, _, w)| w > 0.0 && w < w_max)
        .min_by(|a, b| a.2.total_cmp(&b.2))
        .expect("network has a positive non-max edge");
    let mut relax = GraphDelta::new();
    relax.reinforce_edge(u, v, w * 0.5);

    atd_serve::faultpoint::arm(
        "serve.incremental_patch",
        atd_serve::FaultPlan::next(atd_serve::Fault::Panic("kill mid-patch"), 1),
    );
    let result = catch_unwind(AssertUnwindSafe(|| service.publish_mutation(&relax)));
    atd_serve::faultpoint::disarm("serve.incremental_patch");
    assert!(result.is_err(), "injected mid-patch kill must unwind");

    // "kill -9": the crashed process never touches the handle again. The
    // append preceded the faultpoint, so the mutation IS acknowledged.
    drop(service);

    let (mut service, report) =
        DurableService::open(&dir, net.skills.clone(), config(), || unreachable!()).unwrap();
    let mutated = net.graph.apply_delta(&relax).unwrap();
    assert_eq!(report.replayed_records, 1, "the acked mutation replays");
    assert_eq!(report.graph_fingerprint, graph_fingerprint(&mutated));
    let stats = service.service().stats();
    assert_eq!(
        stats.full_rebuild_fallbacks, 1,
        "no checkpoint index exists, so recovery must take the rebuild fallback"
    );
    assert_eq!(stats.incremental_applied, 0);
    assert_serves_uninterrupted_state(
        &service,
        &mutated,
        &net.skills,
        &common::projects(&net, 4),
        "after mid-patch kill",
    );
    // The service is fully live: the same relaxation class publishes
    // incrementally now that nothing is armed.
    let w_max2 = mutated.edges().map(|(_, _, w)| w).fold(0.0f64, f64::max);
    let (u2, v2, w2) = mutated
        .edges()
        .filter(|&(_, _, w)| w > 0.0 && w < w_max2)
        .min_by(|a, b| a.2.total_cmp(&b.2))
        .unwrap();
    let mut relax2 = GraphDelta::new();
    relax2.reinforce_edge(u2, v2, w2 * 0.5);
    service.publish_mutation(&relax2).unwrap();
    assert_eq!(service.service().stats().incremental_applied, 1);
    service.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Crash at **every byte offset** of the WAL tail: replaying a
/// prefix-truncated segment always recovers a whole-record prefix of
/// the acknowledged mutations, the service restarts serving, and the
/// surviving prefix answers bit-identically to an uninterrupted run
/// over that prefix.
#[test]
fn truncated_wal_tail_at_every_boundary_restarts_serving_a_whole_prefix() {
    let _serial = serial();
    let net = common::network(35);
    let dir = tempdir("torn_tail");
    let genesis = net.graph.clone();
    let (mut service, _) =
        DurableService::open(&dir, net.skills.clone(), config(), || genesis).unwrap();
    let deltas = [delta(0, 1, 0.2), delta(1, 2, 0.3), delta(2, 3, 0.4)];
    for d in &deltas {
        service.publish_mutation(d).unwrap();
    }
    service.shutdown();
    drop(service);

    let wal_path = dir.join("wal-0.atdw");
    let full = std::fs::read(&wal_path).unwrap();
    let projects = common::projects(&net, 2);
    // Every 7th offset keeps the test fast while still crossing every
    // record's header, payload, and checksum bytes.
    for cut in (0..full.len()).step_by(7) {
        std::fs::write(&wal_path, &full[..cut]).unwrap();
        let (mut service, report) =
            DurableService::open(&dir, net.skills.clone(), config(), || unreachable!())
                .unwrap_or_else(|e| panic!("cut at {cut}: service must restart serving: {e}"));
        let n = report.replayed_records as usize;
        assert!(n <= deltas.len(), "cut at {cut}");
        let mut graph = net.graph.clone();
        for d in &deltas[..n] {
            graph = graph.apply_delta(d).unwrap();
        }
        assert_eq!(
            report.graph_fingerprint,
            graph_fingerprint(&graph),
            "cut at {cut}: surviving prefix must be unmodified"
        );
        assert_serves_uninterrupted_state(
            &service,
            &graph,
            &net.skills,
            &projects,
            &format!("cut at {cut}"),
        );
        service.shutdown();
    }
    std::fs::remove_dir_all(&dir).ok();
}
