//! Tier-1 durable publish path tests (no fault injection): mutations
//! acknowledged through the journal are served, survive a restart
//! bit-identically to an uninterrupted run, grown graphs get padded
//! skill indexes, and a checkpointed generation restarts off its
//! persisted index instead of rebuilding.

mod common;

use std::path::PathBuf;

use atd_core::greedy::{Discovery, DiscoveryOptions};
use atd_core::Project;
use atd_distance::persist::graph_fingerprint;
use atd_graph::{ExpertGraph, GraphDelta, NodeId};
use atd_serve::{DurableConfig, DurableService, Request, ServeConfig};
use atd_store::JournalConfig;

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "atd_serve_durable_{tag}_{}_{:?}",
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

/// The uninterrupted-run oracle: a direct engine over `graph` with the
/// same options and a padded skill index — exactly what recovery must
/// reproduce bit-for-bit.
fn reference_engine(graph: &ExpertGraph, skills: &atd_core::SkillIndex) -> Discovery {
    Discovery::with_options(
        graph.clone(),
        skills.padded_to(graph.num_nodes()),
        options(),
    )
    .expect("reference engine builds")
}

fn assert_serves_like(
    service: &DurableService,
    reference: &Discovery,
    projects: &[Project],
    context: &str,
) {
    for (i, project) in projects.iter().enumerate() {
        let strategy = common::strategies()[i % 3];
        let resp = service
            .query(Request::new(project.clone(), strategy, 3))
            .expect("query succeeds");
        let want = reference.top_k(project, strategy, 3).unwrap();
        common::assert_bit_identical(&resp.teams, &want, &format!("{context}: {strategy}"));
    }
}

#[test]
fn initial_open_serves_the_genesis_graph() {
    let net = common::network(21);
    let dir = tempdir("genesis");
    let genesis = net.graph.clone();
    let (mut service, report) =
        DurableService::open(&dir, net.skills.clone(), config(), || genesis).unwrap();
    assert!(report.initialized);
    assert_eq!(report.generation, 0);
    assert_eq!(report.graph_fingerprint, graph_fingerprint(&net.graph));

    let reference = reference_engine(&net.graph, &net.skills);
    assert_serves_like(&service, &reference, &common::projects(&net, 6), "genesis");
    service.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn acknowledged_mutations_are_served_and_survive_restart_bit_identically() {
    let net = common::network(22);
    let dir = tempdir("restart");
    let genesis = net.graph.clone();
    let (mut service, _) =
        DurableService::open(&dir, net.skills.clone(), config(), || genesis).unwrap();

    // Two acknowledged mutations: a reweighted collaboration and a new
    // publication among three existing authors.
    let mut d1 = GraphDelta::new();
    d1.upsert_edge(NodeId::from_index(0), NodeId::from_index(1), 0.33);
    let r1 = service.publish_mutation(&d1).unwrap();
    assert_eq!((r1.generation, r1.seq), (0, 1));

    let mut d2 = GraphDelta::new();
    d2.publication(
        &[
            NodeId::from_index(0),
            NodeId::from_index(2),
            NodeId::from_index(3),
        ],
        0.4,
    );
    let r2 = service.publish_mutation(&d2).unwrap();
    assert_eq!(r2.seq, 2);

    // The uninterrupted run: same deltas applied directly.
    let mutated = net
        .graph
        .apply_delta(&d1)
        .unwrap()
        .apply_delta(&d2)
        .unwrap();
    assert_eq!(r2.graph_fingerprint, graph_fingerprint(&mutated));
    let reference = reference_engine(&mutated, &net.skills);
    let projects = common::projects(&net, 6);
    assert_serves_like(&service, &reference, &projects, "before restart");

    service.shutdown();
    drop(service);

    // Restart: the WAL tail replays both mutations and the service
    // answers bit-identically to the run that never went down.
    let (mut service, report) =
        DurableService::open(&dir, net.skills.clone(), config(), || unreachable!()).unwrap();
    assert!(!report.initialized);
    assert_eq!(report.replayed_records, 2);
    assert_eq!(report.graph_fingerprint, r2.graph_fingerprint);
    assert_eq!(service.graph_fingerprint(), r2.graph_fingerprint);
    assert_serves_like(&service, &reference, &projects, "after restart");
    service.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn added_author_gets_a_padded_skill_index() {
    let net = common::network(23);
    let dir = tempdir("grow");
    let genesis = net.graph.clone();
    let (mut service, _) =
        DurableService::open(&dir, net.skills.clone(), config(), || genesis).unwrap();

    let before = net.graph.num_nodes();
    let mut delta = GraphDelta::new();
    let rookie = delta.add_author(1.5, before);
    delta.upsert_edge(NodeId::from_index(0), rookie, 0.25);
    delta.upsert_edge(NodeId::from_index(1), rookie, 0.35);
    service.publish_mutation(&delta).unwrap();

    let snapshot = service.current_snapshot();
    assert_eq!(snapshot.engine().graph().num_nodes(), before + 1);
    assert_eq!(snapshot.engine().skills().num_nodes(), before + 1);
    assert!(snapshot.engine().skills().skills_of(rookie).is_empty());

    // Queries still answer (the padded index keeps every lookup in
    // bounds even when a path routes through the new author).
    let mutated = net.graph.apply_delta(&delta).unwrap();
    let reference = reference_engine(&mutated, &net.skills);
    assert_serves_like(&service, &reference, &common::projects(&net, 6), "grown");
    service.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpointed_generation_restarts_off_its_persisted_index() {
    let net = common::network(24);
    let dir = tempdir("checkpoint");
    let genesis = net.graph.clone();
    let (mut service, _) =
        DurableService::open(&dir, net.skills.clone(), config(), || genesis).unwrap();

    let mut delta = GraphDelta::new();
    delta.upsert_edge(NodeId::from_index(1), NodeId::from_index(2), 0.2);
    let receipt = service.publish_mutation(&delta).unwrap();
    assert_eq!(service.checkpoint().unwrap(), 1);
    assert_eq!(service.tail_records(), 0);
    service.shutdown();
    drop(service);

    let (mut service, report) =
        DurableService::open(&dir, net.skills.clone(), config(), || unreachable!()).unwrap();
    assert_eq!(report.generation, 1);
    assert_eq!(report.replayed_records, 0);
    assert_eq!(report.graph_fingerprint, receipt.graph_fingerprint);
    assert!(
        service.current_snapshot().engine().pll_index_loaded(),
        "a clean checkpoint restart loads the generation's index instead of rebuilding"
    );

    let mutated = net.graph.apply_delta(&delta).unwrap();
    let reference = reference_engine(&mutated, &net.skills);
    assert_serves_like(
        &service,
        &reference,
        &common::projects(&net, 6),
        "checkpoint restart",
    );
    // The CA-CC and SA-CA-CC answers above built their γ indexes in
    // memory: the store holds its own files and nothing else.
    for entry in std::fs::read_dir(&dir).unwrap() {
        let name = entry.unwrap().file_name().into_string().unwrap();
        let store_file = name == "MANIFEST.atdm"
            || (name.starts_with("gen-") && (name.ends_with(".graph") || name.ends_with(".atdl")))
            || (name.starts_with("wal-") && name.ends_with(".atdw"));
        assert!(store_file, "{name} does not belong in the generation store");
    }
    service.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A pure relaxation delta: reinforces the graph's cheapest *strictly
/// positive* non-max edge at half its weight. Positive so halving really
/// changes bits (Jaccard weights can be exactly 0), below the max so the
/// normalization scale stays, and weight-only so degrees (and with them
/// the vertex order) stay — the delta the incremental publish path must
/// accept.
fn relax_delta(g: &ExpertGraph) -> (GraphDelta, ExpertGraph) {
    let w_max = g.edges().map(|(_, _, w)| w).fold(0.0f64, f64::max);
    let (u, v, w) = g
        .edges()
        .filter(|&(_, _, w)| w > 0.0 && w < w_max)
        .min_by(|a, b| a.2.total_cmp(&b.2))
        .expect("network has a positive non-max edge");
    let mut d = GraphDelta::new();
    d.reinforce_edge(u, v, w * 0.5);
    let next = g.apply_delta(&d).unwrap();
    (d, next)
}

#[test]
fn single_edge_relax_takes_the_incremental_path_bit_identically() {
    let net = common::network(27);
    let dir = tempdir("incremental");
    let genesis = net.graph.clone();
    let mut cfg = config();
    // The chain checks the patch mechanism; the hub-budget policy has a
    // test of its own (over_budget_delta_falls_back_...).
    cfg.discovery.pll_build.incremental_hub_budget = Some(usize::MAX);
    let (mut service, _) = DurableService::open(&dir, net.skills.clone(), cfg, || genesis).unwrap();
    assert_eq!(service.service().stats().incremental_applied, 0);
    assert_eq!(service.service().stats().full_rebuild_fallbacks, 0);

    // A chain of single-edge relaxations, round-robin over the eight
    // eligible edges with the lightest endpoints. Eligible means strictly
    // positive (halving changes bits) and below the max weight (the
    // normalization scale stays). Every link is patched in place on top
    // of the previous patch, never rebuilt, and the composed patches
    // must answer like an engine built from scratch.
    let w_max = net.graph.edges().map(|(_, _, w)| w).fold(0.0f64, f64::max);
    let mut edges: Vec<(NodeId, NodeId)> = net
        .graph
        .edges()
        .filter(|&(_, _, w)| w > 0.0 && w < w_max)
        .map(|(u, v, _)| (u, v))
        .collect();
    edges.sort_by_key(|&(u, v)| net.graph.degree(u) + net.graph.degree(v));
    edges.truncate(8);
    assert_eq!(edges.len(), 8, "network has 8 relaxable edges");
    let projects = common::projects(&net, 6);
    let mut relaxed = net.graph.clone();
    for i in 0..24u64 {
        let (u, v) = edges[i as usize % edges.len()];
        let mut delta = GraphDelta::new();
        delta.reinforce_edge(u, v, relaxed.edge_weight(u, v).unwrap() * 0.5);
        relaxed = relaxed.apply_delta(&delta).unwrap();
        let receipt = service.publish_mutation(&delta).unwrap();
        assert_eq!(receipt.graph_fingerprint, graph_fingerprint(&relaxed));
        let stats = service.service().stats();
        assert_eq!(
            stats.incremental_applied,
            i + 1,
            "relax {i} must patch in place"
        );
        assert_eq!(stats.full_rebuild_fallbacks, 0);
        if (i + 1) % 12 == 0 {
            assert_serves_like(
                &service,
                &reference_engine(&relaxed, &net.skills),
                &projects,
                &format!("{} incremental publishes", i + 1),
            );
        }
    }

    // A structural delta (new edge) routes to the full rebuild.
    let mut d2 = GraphDelta::new();
    d2.publication(
        &[
            NodeId::from_index(0),
            NodeId::from_index(2),
            NodeId::from_index(4),
        ],
        0.4,
    );
    service.publish_mutation(&d2).unwrap();
    let stats = service.service().stats();
    assert_eq!(stats.incremental_applied, 24);
    assert_eq!(stats.full_rebuild_fallbacks, 1, "structural must rebuild");
    let g2 = relaxed.apply_delta(&d2).unwrap();
    assert_serves_like(
        &service,
        &reference_engine(&g2, &net.skills),
        &projects,
        "structural publish",
    );
    service.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn over_budget_delta_falls_back_to_full_rebuild_bit_identically() {
    let net = common::network(28);
    let dir = tempdir("budget");
    let genesis = net.graph.clone();
    let mut cfg = config();
    // Zero hub budget: every label-touching delta blows the threshold.
    cfg.discovery.pll_build.incremental_hub_budget = Some(0);
    let (mut service, _) = DurableService::open(&dir, net.skills.clone(), cfg, || genesis).unwrap();

    let (d1, g1) = relax_delta(&net.graph);
    let r1 = service.publish_mutation(&d1).unwrap();
    let stats = service.service().stats();
    assert_eq!(stats.incremental_applied, 0);
    assert_eq!(
        stats.full_rebuild_fallbacks, 1,
        "a blown budget must fall back"
    );
    assert_eq!(r1.graph_fingerprint, graph_fingerprint(&g1));
    assert_serves_like(
        &service,
        &reference_engine(&g1, &net.skills),
        &common::projects(&net, 6),
        "over-budget fallback",
    );
    service.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recovery_replays_wal_tail_incrementally_off_the_checkpoint_index() {
    let net = common::network(29);
    let dir = tempdir("inc_recovery");
    let genesis = net.graph.clone();
    let (mut service, _) =
        DurableService::open(&dir, net.skills.clone(), config(), || genesis).unwrap();

    // Checkpoint after one relax (persists the index for generation 1),
    // then acknowledge a second relax that stays in the WAL tail.
    let (d1, g1) = relax_delta(&net.graph);
    service.publish_mutation(&d1).unwrap();
    assert_eq!(service.checkpoint().unwrap(), 1);
    let (d2, g2) = relax_delta(&g1);
    let r2 = service.publish_mutation(&d2).unwrap();
    service.shutdown();
    drop(service);

    // Restart: the tail record replays through the incremental path on
    // top of the checkpoint's loaded index — no full rebuild.
    let (mut service, report) =
        DurableService::open(&dir, net.skills.clone(), config(), || unreachable!()).unwrap();
    assert_eq!(report.generation, 1);
    assert_eq!(report.replayed_records, 1);
    assert_eq!(report.graph_fingerprint, r2.graph_fingerprint);
    let stats = service.service().stats();
    assert_eq!(
        stats.incremental_applied, 1,
        "the tail record must replay incrementally"
    );
    assert_eq!(stats.full_rebuild_fallbacks, 0);
    assert_serves_like(
        &service,
        &reference_engine(&g2, &net.skills),
        &common::projects(&net, 6),
        "incremental recovery",
    );
    service.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_newest_generation_is_quarantined_and_service_restarts_serving() {
    let net = common::network(26);
    let dir = tempdir("quarantine");
    let genesis = net.graph.clone();
    let (mut service, _) =
        DurableService::open(&dir, net.skills.clone(), config(), || genesis).unwrap();

    let mut delta = GraphDelta::new();
    delta.upsert_edge(NodeId::from_index(0), NodeId::from_index(3), 0.15);
    let receipt = service.publish_mutation(&delta).unwrap();
    assert_eq!(service.checkpoint().unwrap(), 1);
    service.shutdown();
    drop(service);

    // Bit-rot the generation-1 graph dump. Recovery must quarantine it
    // (keeping the file for forensics) and fall back to generation 0,
    // whose retained WAL still replays the acknowledged mutation.
    let gen1 = dir.join("gen-1.graph");
    let mut bytes = std::fs::read(&gen1).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&gen1, &bytes).unwrap();

    let (mut service, report) =
        DurableService::open(&dir, net.skills.clone(), config(), || unreachable!()).unwrap();
    assert_eq!(report.quarantined, vec![1]);
    assert_eq!(report.generation, 0, "serves the newest valid generation");
    assert_eq!(report.replayed_records, 1);
    assert_eq!(report.graph_fingerprint, receipt.graph_fingerprint);
    assert!(gen1.exists(), "quarantined files are kept, not deleted");

    let mutated = net.graph.apply_delta(&delta).unwrap();
    let reference = reference_engine(&mutated, &net.skills);
    assert_serves_like(
        &service,
        &reference,
        &common::projects(&net, 6),
        "quarantined restart",
    );
    service.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn auto_checkpoint_rolls_generations() {
    let net = common::network(25);
    let dir = tempdir("auto");
    let genesis = net.graph.clone();
    let mut cfg = config();
    cfg.checkpoint_every = 2;
    let (mut service, _) = DurableService::open(&dir, net.skills.clone(), cfg, || genesis).unwrap();

    for i in 0..4 {
        let mut d = GraphDelta::new();
        d.upsert_edge(
            NodeId::from_index(i),
            NodeId::from_index(i + 1),
            0.1 + i as f64 * 0.05,
        );
        service.publish_mutation(&d).unwrap();
    }
    // Two records per checkpoint: generation advanced twice, WAL empty.
    assert_eq!(service.generation(), 2);
    assert_eq!(service.tail_records(), 0);
    service.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
