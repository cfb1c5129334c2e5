//! The living graph, durably: acknowledge mutations through the
//! write-ahead journal, serve queries across hot swaps, checkpoint,
//! crash, and recover bit-identically.
//!
//! ```text
//! cargo run --release --example durable_service [authors] [mutations]
//! ```
//!
//! Defaults: 500 authors, 12 mutations. The example runs one full
//! lifecycle in a temp directory:
//!
//! 1. open the store (generation 0 initialized from the ingested graph),
//! 2. publish a stream of mutations — each acknowledged only after its
//!    WAL record is fsynced, each swapping in a fresh snapshot,
//! 3. checkpoint midway (graph dump + persisted distance index + WAL
//!    rotation, committed by one atomic manifest rename),
//! 4. "crash" (drop the service with a non-empty WAL tail),
//! 5. reopen: recovery loads the checkpoint, replays the tail, verifies
//!    every record's sealed fingerprint, and serves again — provably
//!    the same state the acknowledged stream built.

use std::time::Instant;

use atd_core::greedy::DiscoveryOptions;
use atd_core::{Project, SkillId, Strategy};
use atd_dblp::graph_build::{BuildConfig, ExpertNetwork};
use atd_dblp::synth::{SynthConfig, SynthCorpus};
use atd_graph::{GraphDelta, NodeId};
use atd_serve::{DurableConfig, DurableService, JournalConfig, Request, ServeConfig};

fn main() {
    let mut args = std::env::args().skip(1);
    let authors: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(500);
    let mutations: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(12);

    let synth = SynthCorpus::generate(&SynthConfig {
        num_authors: authors,
        seed: 11,
        ..SynthConfig::default()
    });
    let net = ExpertNetwork::build(synth.corpus, &BuildConfig::default()).expect("network builds");
    println!(
        "ingested network: {} experts, {} edges, {} skills",
        net.graph.num_nodes(),
        net.graph.num_edges(),
        net.skills.num_skills()
    );

    let dir = std::env::temp_dir().join(format!("atd_durable_example_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let config = DurableConfig {
        journal: JournalConfig::default(), // fsync on: acks are real
        serve: ServeConfig {
            workers: 2,
            queue_capacity: 128,
            default_deadline: None,
            ..ServeConfig::default()
        },
        discovery: DiscoveryOptions::default(),
        checkpoint_every: 0,
    };

    let genesis = net.graph.clone();
    let (service, report) =
        DurableService::open(&dir, net.skills.clone(), config.clone(), || genesis)
            .expect("store opens");
    println!(
        "opened store at {} (generation {}, initialized: {})",
        dir.display(),
        report.generation,
        report.initialized
    );

    // A two-skill project to watch evolve as the graph mutates.
    let mut by_holders: Vec<(usize, SkillId)> = (0..net.skills.num_skills())
        .map(|i| {
            let s = SkillId(i as u32);
            (net.skills.holders(s).len(), s)
        })
        .collect();
    by_holders.sort_by_key(|&(holders, _)| std::cmp::Reverse(holders));
    let project = Project::new(vec![by_holders[0].1, by_holders[1].1]);
    let strategy = Strategy::SaCaCc {
        gamma: 0.6,
        lambda: 0.6,
    };

    let n = net.graph.num_nodes();
    let t = Instant::now();
    let mut last_fp = 0u64;
    for i in 0..mutations {
        let mut delta = GraphDelta::new();
        let a = NodeId::from_index((i * 37) % n);
        let b = NodeId::from_index((i * 101 + 13) % n);
        if a == b {
            continue;
        }
        if i == mutations / 2 {
            // A new author joins a publication mid-stream.
            let rookie =
                delta.add_author(2.0, service.current_snapshot().engine().graph().num_nodes());
            delta.publication(&[a, b, rookie], 0.3);
        } else {
            delta.publication(&[a, b], 0.25 + (i as f64) * 0.01);
        }
        let receipt = service.publish_mutation(&delta).expect("mutation acks");
        last_fp = receipt.graph_fingerprint;
        if i + 1 == mutations / 2 {
            let generation = service.checkpoint().expect("checkpoint");
            println!("checkpoint -> generation {generation}");
        }
    }
    println!(
        "{mutations} mutations acknowledged + served in {:.1?} (tail: {} records)",
        t.elapsed(),
        service.tail_records()
    );
    let before = service
        .query(Request::new(project.clone(), strategy, 3))
        .expect("query before crash");

    // Crash: drop the running service with a non-empty WAL tail. Every
    // acknowledged mutation is already durable.
    drop(service);
    println!("\n-- crash (service dropped, WAL tail unflushed to a checkpoint) --\n");

    let t = Instant::now();
    let (service, report) = DurableService::open(&dir, net.skills.clone(), config, || {
        unreachable!("store exists; genesis is never called")
    })
    .expect("recovery serves");
    println!(
        "recovered in {:.1?}: generation {}, {} records replayed, torn tail: {}",
        t.elapsed(),
        report.generation,
        report.replayed_records,
        report.torn_tail_truncated
    );
    assert_eq!(
        report.graph_fingerprint, last_fp,
        "recovered graph must equal the last acknowledged state"
    );

    let after = service
        .query(Request::new(project, strategy, 3))
        .expect("query after recovery");
    assert_eq!(before.teams.len(), after.teams.len());
    for (x, y) in before.teams.iter().zip(&after.teams) {
        assert_eq!(x.team.member_key(), y.team.member_key());
        assert_eq!(x.objective.to_bits(), y.objective.to_bits());
    }
    println!(
        "top-{} answer after recovery is bit-identical to the pre-crash answer",
        after.teams.len()
    );
    for (rank, team) in after.teams.iter().enumerate() {
        println!(
            "  #{}: {} members, objective {:.4}",
            rank + 1,
            team.team.members().len(),
            team.objective
        );
    }

    std::fs::remove_dir_all(&dir).ok();
}
