//! Fault-injection stress test: many client threads hammer the service
//! while snapshots swap repeatedly and faults (worker-killing panics,
//! query panics, slow queries, corrupt snapshot loads) fire underneath.
//! Success responses must stay bit-identical to direct single-threaded
//! queries on the same snapshot version, and the process must never
//! crash.
//!
//! Run with: `cargo test -p atd-serve --features fault-injection`
#![cfg(feature = "fault-injection")]

mod common;

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use atd_core::greedy::{Discovery, DiscoveryOptions};
use atd_serve::{faultpoint, Fault, FaultPlan, QueryService, Request, ServeConfig, ServeError};

const CLIENTS: usize = 5;
const SWAPS: usize = 4;
const REQUESTS_PER_CLIENT: usize = 60;

/// The faultpoint registry is process-global; tests that arm it must not
/// overlap (the default test runner is multi-threaded).
fn serial() -> std::sync::MutexGuard<'static, ()> {
    use std::sync::OnceLock;
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|p| p.into_inner())
}

/// One fixture per snapshot version: the network, a direct
/// single-threaded engine (the bit-identity oracle), and its workload.
struct Fixture {
    net: atd_dblp::graph_build::ExpertNetwork,
    direct: Discovery,
}

fn fixture(seed: u64) -> Fixture {
    let net = common::network(seed);
    let direct = common::engine(&net);
    Fixture { net, direct }
}

#[test]
fn swaps_panics_slow_queries_and_corrupt_loads_never_break_identity() {
    let _guard = serial();
    faultpoint::reset();
    let dir = std::env::temp_dir().join(format!("atd_serve_stress_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // Versions 1..=SWAPS+1 each get their own synthetic network. The
    // oracle map lets clients verify any response against the direct
    // engine for the version that answered it.
    let fixtures: Vec<Fixture> = (0..=SWAPS as u64).map(|i| fixture(100 + i)).collect();
    let oracles: HashMap<u64, &Fixture> = fixtures
        .iter()
        .enumerate()
        .map(|(i, f)| (i as u64 + 1, f))
        .collect();

    let service = Arc::new(QueryService::start(
        common::engine(&fixtures[0].net),
        ServeConfig {
            workers: 4,
            queue_capacity: 128,
            default_deadline: Some(Duration::from_secs(5)),
            ..ServeConfig::default()
        },
    ));
    let stop = Arc::new(AtomicBool::new(false));
    let violations: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));

    // Client threads: issue requests continuously, verifying every
    // success against the oracle for the snapshot version that answered.
    let mut clients = Vec::new();
    for c in 0..CLIENTS {
        let service = Arc::clone(&service);
        let stop = Arc::clone(&stop);
        let violations = Arc::clone(&violations);
        // Clients verify against whichever version answers, so they need
        // projects valid in every fixture: build per-version workloads.
        let workloads: Vec<Vec<atd_core::Project>> = fixtures
            .iter()
            .map(|f| common::projects(&f.net, 8))
            .collect();
        clients.push(std::thread::spawn(move || {
            let mut outcomes = Outcomes::default();
            let mut i = 0;
            while i < REQUESTS_PER_CLIENT || !stop.load(Ordering::Relaxed) {
                // Target the currently serving version's workload; a swap
                // between load and answer means the response may come
                // from a newer version whose skill universe differs —
                // both success and typed query errors are acceptable,
                // but successes must match that version's oracle.
                let version = service.current_version();
                let workload = &workloads[(version as usize - 1) % workloads.len()];
                let project = workload[(c + i) % workload.len()].clone();
                let strategy = common::strategies()[i % 3];
                i += 1;
                match service.query(Request::new(project.clone(), strategy, 2)) {
                    Ok(resp) => {
                        outcomes.ok += 1;
                        outcomes.versions_seen.push(resp.snapshot_version);
                    }
                    Err(ServeError::DeadlineExceeded) => outcomes.deadline += 1,
                    Err(ServeError::QueryPanicked(_)) => outcomes.panicked += 1,
                    Err(ServeError::Overloaded { .. })
                    | Err(ServeError::DeadlineInfeasible { .. })
                    | Err(ServeError::BrownoutShed) => outcomes.shed += 1,
                    Err(ServeError::ResponseLost) => outcomes.lost += 1,
                    Err(ServeError::Query(_)) => outcomes.query_err += 1,
                    Err(ServeError::ShuttingDown) => {
                        violations
                            .lock()
                            .unwrap()
                            .push("ShuttingDown during steady state".into());
                        break;
                    }
                }
            }
            outcomes
        }));
    }

    // Verification clients: pin a snapshot, query through the service
    // repeatedly, and demand bit-identity whenever the answering version
    // is one they hold the oracle for.
    let mut verifiers = Vec::new();
    for v in 0..2usize {
        let service = Arc::clone(&service);
        let stop = Arc::clone(&stop);
        let violations = Arc::clone(&violations);
        let oracle_data: Vec<(u64, Vec<atd_core::Project>)> = oracles
            .iter()
            .map(|(&ver, f)| (ver, common::projects(&f.net, 4)))
            .collect();
        let directs: HashMap<u64, &Discovery> =
            oracles.iter().map(|(&ver, f)| (ver, &f.direct)).collect();
        // Safety: fixtures outlives every thread (joined below), but the
        // compiler can't see that through Arc/spawn — scope the borrow.
        let directs: HashMap<u64, Discovery> = directs
            .into_iter()
            .map(|(ver, d)| (ver, rebuild(d)))
            .collect();
        verifiers.push(std::thread::spawn(move || {
            let mut checked = 0u64;
            let mut i = 0usize;
            while !stop.load(Ordering::Relaxed) || checked == 0 {
                let (ver_hint, projects) = &oracle_data[i % oracle_data.len()];
                let project = projects[(v + i) % projects.len()].clone();
                let strategy = common::strategies()[(v + i) % 3];
                i += 1;
                if let Ok(resp) = service.query(Request::new(project.clone(), strategy, 2)) {
                    if resp.snapshot_version == *ver_hint {
                        let want = directs[ver_hint].top_k(&project, strategy, 2);
                        match want {
                            Ok(want) => {
                                let got = &resp.teams;
                                if got.len() != want.len()
                                    || got.iter().zip(&want).any(|(g, w)| {
                                        g.team.member_key() != w.team.member_key()
                                            || g.objective.to_bits() != w.objective.to_bits()
                                            || g.algorithm_cost.to_bits()
                                                != w.algorithm_cost.to_bits()
                                    })
                                {
                                    violations.lock().unwrap().push(format!(
                                        "version {ver_hint} response diverged from direct engine"
                                    ));
                                }
                                checked += 1;
                            }
                            Err(_) => { /* service raced a swap; skip */ }
                        }
                    }
                }
            }
            checked
        }));
    }

    // The swap/chaos driver: inject faults, then publish the next
    // snapshot — including one deterministic corrupt-file load failure
    // and one injected I/O failure — while clients run.
    let snapshot_path = dir.join("swap.atdl");
    for (round, fx) in fixtures.iter().enumerate().skip(1) {
        // Round-robin chaos: kill a worker, panic a query, slow a query.
        match round % 3 {
            0 => faultpoint::arm(
                "serve.worker",
                FaultPlan::next(Fault::Panic("chaos kill"), 1),
            ),
            1 => faultpoint::arm(
                "serve.request",
                FaultPlan::next(Fault::Panic("chaos query"), 2),
            ),
            _ => faultpoint::arm(
                "serve.request",
                FaultPlan::next(Fault::Delay(Duration::from_millis(20)), 3),
            ),
        }
        std::thread::sleep(Duration::from_millis(30));

        if round == 1 {
            // Deterministic corrupt-file swap failure: save a real index,
            // flip a byte, load it.
            fx.direct.save_pll_index(&snapshot_path).unwrap();
            let mut bytes = std::fs::read(&snapshot_path).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xff;
            std::fs::write(&snapshot_path, &bytes).unwrap();
            let failed = service.try_publish_with(|| {
                Discovery::with_options(
                    fx.net.graph.clone(),
                    fx.net.skills.clone(),
                    DiscoveryOptions {
                        pll_index_path: Some(snapshot_path.clone()),
                        ..Default::default()
                    },
                )
            });
            assert!(failed.is_err(), "corrupt snapshot must fail the swap");
        }
        if round == 2 {
            // Injected I/O failure inside the publish closure.
            faultpoint::arm(
                "serve.snapshot_load",
                FaultPlan::next(Fault::IoError("disk detached"), 1),
            );
            let failed =
                service.try_publish_with(|| Ok::<_, std::convert::Infallible>(rebuild(&fx.direct)));
            assert!(failed.is_err(), "injected io error must fail the swap");
        }

        // The real swap for this round always succeeds.
        let published = service
            .try_publish_with(|| Ok::<_, std::convert::Infallible>(rebuild(&fx.direct)))
            .expect("healthy publish succeeds");
        assert_eq!(published.version() as usize, round + 1);
        std::thread::sleep(Duration::from_millis(30));
    }

    stop.store(true, Ordering::Relaxed);
    let totals: Vec<Outcomes> = clients.into_iter().map(|h| h.join().unwrap()).collect();
    let checked: u64 = verifiers.into_iter().map(|h| h.join().unwrap()).sum();
    faultpoint::reset();

    let problems = violations.lock().unwrap();
    assert!(problems.is_empty(), "identity violations: {problems:?}");
    assert!(checked > 0, "verifiers must have checked real responses");

    let stats = service.stats();
    let ok: u64 = totals.iter().map(|o| o.ok).sum();
    assert!(ok > 0, "clients must have gotten successful answers");
    assert_eq!(
        stats.swaps as usize, SWAPS,
        "every healthy publish must have landed"
    );
    assert_eq!(stats.swap_failures, 2, "both induced swap failures counted");
    assert!(
        stats.panics_recovered >= 1,
        "query-panic chaos must have fired: {stats}"
    );
    assert!(
        stats.workers_respawned >= 1,
        "worker-kill chaos must have respawned: {stats}"
    );
    // Clients saw multiple snapshot versions over the run.
    let mut seen: Vec<u64> = totals
        .iter()
        .flat_map(|o| o.versions_seen.clone())
        .collect();
    seen.sort_unstable();
    seen.dedup();
    assert!(
        seen.len() >= 2,
        "responses must span several snapshot versions, saw {seen:?}"
    );
    // Every submission is accounted exactly once, even across worker
    // kills (lost replies) and mixed shed paths.
    assert!(
        stats.reconciles(),
        "submission ledger must balance at quiescence: {stats}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Rebuilds an engine equivalent to `d` (fresh Discovery for ownership
/// transfer into the service).
fn rebuild(d: &Discovery) -> Discovery {
    Discovery::new(d.graph().clone(), d.skills().clone()).expect("rebuild equivalent engine")
}

#[derive(Default)]
struct Outcomes {
    ok: u64,
    deadline: u64,
    panicked: u64,
    shed: u64,
    lost: u64,
    query_err: u64,
    versions_seen: Vec<u64>,
}

#[test]
fn injected_delay_trips_request_deadline() {
    let _guard = serial();
    faultpoint::reset();
    let net = common::network(200);
    let service = QueryService::start(
        common::engine(&net),
        ServeConfig {
            workers: 1,
            queue_capacity: 8,
            default_deadline: None,
            ..ServeConfig::default()
        },
    );
    let project = common::projects(&net, 1).remove(0);

    faultpoint::arm(
        "serve.request",
        FaultPlan::next(Fault::Delay(Duration::from_millis(80)), 1),
    );
    let mut slow = Request::new(project.clone(), common::strategies()[0], 1);
    slow.deadline = Some(Duration::from_millis(20));
    assert_eq!(
        service.query(slow).unwrap_err(),
        ServeError::DeadlineExceeded,
        "delay past the deadline must cancel the search"
    );
    // Next request is clean and fast.
    service
        .query(Request::new(project, common::strategies()[0], 1))
        .expect("service healthy after slow query");
    assert_eq!(service.stats().deadline_exceeded, 1);
    faultpoint::reset();
}

#[test]
fn overload_is_deterministic_with_a_blocked_worker() {
    let _guard = serial();
    faultpoint::reset();
    let net = common::network(201);
    let service = QueryService::start(
        common::engine(&net),
        ServeConfig {
            workers: 1,
            queue_capacity: 1,
            default_deadline: None,
            ..ServeConfig::default()
        },
    );
    let project = common::projects(&net, 1).remove(0);
    let mk = || Request::new(project.clone(), common::strategies()[0], 1);

    // Block the single worker for a while, then fill the queue: the
    // next submit MUST shed.
    faultpoint::arm(
        "serve.request",
        FaultPlan::next(Fault::Delay(Duration::from_millis(150)), 1),
    );
    let blocked = service.submit(mk()).expect("first request accepted");
    std::thread::sleep(Duration::from_millis(30)); // worker now sleeping
    let queued = service.submit(mk()).expect("queue holds one");
    let shed = service.submit(mk());
    assert!(
        matches!(shed, Err(ServeError::Overloaded { capacity: 1 })),
        "third submit must shed: {shed:?}"
    );
    blocked.wait().expect("blocked request completes");
    queued.wait().expect("queued request completes");
    let stats = service.stats();
    assert_eq!(stats.shed, 1);
    assert_eq!(stats.served, 2);
    assert_eq!(stats.submitted, 3);
    assert!(stats.reconciles(), "ledger balances: {stats}");
    faultpoint::reset();
}

#[test]
fn worker_killed_mid_job_loses_only_that_response() {
    let _guard = serial();
    faultpoint::reset();
    let net = common::network(202);
    let service = QueryService::start(
        common::engine(&net),
        ServeConfig {
            workers: 1,
            queue_capacity: 8,
            default_deadline: None,
            ..ServeConfig::default()
        },
    );
    let project = common::projects(&net, 1).remove(0);

    faultpoint::arm("serve.worker", FaultPlan::next(Fault::Panic("die"), 1));
    let doomed = service.submit(Request::new(project.clone(), common::strategies()[0], 1));
    let doomed = doomed.expect("submission accepted");
    assert_eq!(
        doomed.wait().unwrap_err(),
        ServeError::ResponseLost,
        "the in-flight job dies with its worker"
    );
    // The supervisor respawns the worker; subsequent requests succeed.
    let resp = service
        .query(Request::new(project, common::strategies()[0], 1))
        .expect("respawned worker serves");
    assert!(!resp.teams.is_empty());
    let stats = service.stats();
    assert!(stats.workers_respawned >= 1);
    assert_eq!(
        stats.responses_lost, 1,
        "the dropped reply is counted, keeping the ledger balanced"
    );
    assert!(stats.reconciles(), "ledger balances: {stats}");
    faultpoint::reset();
}
