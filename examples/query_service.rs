//! Run a mixed workload through the concurrent query service while a
//! background thread rebuilds and hot-swaps the index snapshot.
//!
//! ```text
//! cargo run --release --example query_service [authors] [workers] [swaps]
//! ```
//!
//! Defaults: 800 authors, 2 workers, 2 swaps. Prints latency
//! percentiles, the snapshot versions observed by clients, the requests
//! shed at admission or expired apart from hard errors, and the full
//! service counter set. Panics on any hard error or if the service's
//! outcome ledger does not balance.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use atd_core::greedy::Discovery;
use atd_core::{Project, SkillId, Strategy};
use atd_dblp::graph_build::{BuildConfig, ExpertNetwork};
use atd_dblp::synth::{SynthConfig, SynthCorpus};
use atd_serve::{QueryService, Request, ServeConfig, ServeError};

fn network(authors: usize, seed: u64) -> ExpertNetwork {
    let synth = SynthCorpus::generate(&SynthConfig {
        num_authors: authors,
        seed,
        ..SynthConfig::default()
    });
    ExpertNetwork::build(synth.corpus, &BuildConfig::default()).expect("network builds")
}

fn engine(net: &ExpertNetwork) -> Discovery {
    Discovery::new(net.graph.clone(), net.skills.clone()).expect("engine builds")
}

/// Two-skill projects over the best-covered skills.
fn workload(net: &ExpertNetwork, count: usize) -> Vec<Project> {
    let mut by_holders: Vec<(usize, SkillId)> = (0..net.skills.num_skills())
        .map(|i| {
            let s = SkillId(i as u32);
            (net.skills.holders(s).len(), s)
        })
        .filter(|&(h, _)| h >= 2)
        .collect();
    by_holders.sort_by(|a, b| b.0.cmp(&a.0).then(a.1 .0.cmp(&b.1 .0)));
    (0..count)
        .map(|i| {
            let a = by_holders[i % by_holders.len()].1;
            let b = by_holders[(i + 1) % by_holders.len()].1;
            Project::new(if a == b { vec![a] } else { vec![a, b] })
        })
        .collect()
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn main() {
    let mut args = std::env::args().skip(1);
    let authors: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(800);
    let workers: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(2);
    let swaps: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(2);

    println!("building initial network ({authors} authors)...");
    let t0 = Instant::now();
    let net = network(authors, 1);
    let projects = workload(&net, 10);
    let service = Arc::new(QueryService::start(
        engine(&net),
        ServeConfig {
            workers,
            queue_capacity: 256,
            default_deadline: Some(Duration::from_secs(10)),
            ..ServeConfig::default()
        },
    ));
    println!(
        "service up: {} nodes, {} workers, snapshot v{} ({:.1?})",
        net.graph.num_nodes(),
        workers,
        service.current_version(),
        t0.elapsed()
    );

    // Background rebuild-and-swap thread: each round builds a network
    // from a fresh seed (simulating "the co-authorship graph grew") and
    // publishes it while clients keep querying.
    let stop = Arc::new(AtomicBool::new(false));
    let swapper = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || {
            for round in 0..swaps {
                std::thread::sleep(Duration::from_millis(150));
                let next = network(authors, 2 + round as u64);
                let snap = service
                    .try_publish_with(|| Ok::<_, std::convert::Infallible>(engine(&next)))
                    .expect("healthy publish");
                println!("  [swap] published snapshot v{}", snap.version());
            }
        })
    };

    // Client threads: mixed strategies, a few aggressive deadlines mixed
    // in so the deadline counter moves.
    let strategies = [
        Strategy::Cc,
        Strategy::CaCc { gamma: 0.5 },
        Strategy::SaCaCc {
            gamma: 0.5,
            lambda: 0.5,
        },
    ];
    let mut clients = Vec::new();
    for c in 0..4usize {
        let service = Arc::clone(&service);
        let stop = Arc::clone(&stop);
        let projects = projects.clone();
        clients.push(std::thread::spawn(move || {
            let mut latencies = Vec::new();
            let mut versions = Vec::new();
            let mut failures = Vec::new();
            let mut i = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let mut req = Request::new(
                    projects[(c + i) % projects.len()].clone(),
                    strategies[i % 3],
                    3,
                );
                if i % 25 == 7 {
                    req.deadline = Some(Duration::from_micros(50)); // doomed
                }
                let sent = Instant::now();
                match service.query(req) {
                    Ok(resp) => {
                        latencies.push(sent.elapsed());
                        versions.push(resp.snapshot_version);
                    }
                    Err(e) => failures.push(e),
                }
                i += 1;
            }
            (latencies, versions, failures)
        }));
    }

    swapper.join().expect("swapper");
    std::thread::sleep(Duration::from_millis(100));
    stop.store(true, Ordering::Relaxed);

    let mut latencies = Vec::new();
    let mut versions = Vec::new();
    let mut failures = Vec::new();
    for h in clients {
        let (l, v, f) = h.join().expect("client");
        latencies.extend(l);
        versions.extend(v);
        failures.extend(f);
    }
    // Refusals at admission, the doomed requests' among them, are sheds
    // and not errors.
    let (expired, rest): (Vec<_>, Vec<_>) = failures
        .into_iter()
        .partition(|e| matches!(e, ServeError::DeadlineExceeded));
    let (shed, hard_errors): (Vec<_>, Vec<_>) = rest.into_iter().partition(|e| {
        matches!(
            e,
            ServeError::Overloaded { .. }
                | ServeError::DeadlineInfeasible { .. }
                | ServeError::BrownoutShed
        )
    });
    latencies.sort_unstable();
    versions.sort_unstable();
    versions.dedup();

    println!();
    println!(
        "workload: {} successful responses across snapshot versions {:?}; \
         {} shed at admission, {} expired, {} hard errors",
        latencies.len(),
        versions,
        shed.len(),
        expired.len(),
        hard_errors.len()
    );
    println!(
        "latency: p50 {:.2?}  p90 {:.2?}  p99 {:.2?}  max {:.2?}",
        percentile(&latencies, 0.50),
        percentile(&latencies, 0.90),
        percentile(&latencies, 0.99),
        latencies.last().copied().unwrap_or_default()
    );
    let stats = service.stats();
    println!("counters: {stats}");
    println!("final snapshot: v{}", service.current_version());
    assert!(
        hard_errors.is_empty(),
        "hard errors {hard_errors:?}: {stats}"
    );
    assert!(stats.reconciles(), "ledger out of balance: {stats}");
}
