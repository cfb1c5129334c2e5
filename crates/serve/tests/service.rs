//! Tier-1 service tests (no fault injection): correctness under
//! concurrency, deadlines, backpressure accounting, hot swaps, and
//! corrupt-snapshot containment.

mod common;

use std::sync::Arc;
use std::time::Duration;

use atd_core::greedy::DiscoveryOptions;
use atd_core::DiscoveryError;
use atd_serve::{QueryService, Request, ServeConfig, ServeError};

#[test]
fn concurrent_responses_are_bit_identical_to_direct_queries() {
    let net = common::network(7);
    let direct = common::engine(&net);
    let service = QueryService::start(
        common::engine(&net),
        ServeConfig {
            workers: 4,
            queue_capacity: 256,
            default_deadline: None,
            ..ServeConfig::default()
        },
    );
    let projects = common::projects(&net, 12);
    let service = Arc::new(service);

    let mut clients = Vec::new();
    for c in 0..4 {
        let service = Arc::clone(&service);
        let projects = projects.clone();
        clients.push(std::thread::spawn(move || {
            let mut answers = Vec::new();
            for (i, project) in projects.iter().enumerate() {
                let strategy = common::strategies()[(c + i) % 3];
                let resp = service
                    .query(Request::new(project.clone(), strategy, 3))
                    .expect("query succeeds");
                assert_eq!(resp.snapshot_version, 1);
                answers.push((project.clone(), strategy, resp));
            }
            answers
        }));
    }
    for client in clients {
        for (project, strategy, resp) in client.join().unwrap() {
            let want = direct.top_k(&project, strategy, 3).unwrap();
            common::assert_bit_identical(&resp.teams, &want, &format!("{strategy}"));
        }
    }
    let stats = service.stats();
    assert_eq!(stats.served, 4 * 12);
    assert_eq!(stats.shed, 0);
    assert_eq!(stats.panics_recovered, 0);
}

#[test]
fn zero_deadline_is_deadline_exceeded_and_does_not_stall_others() {
    let net = common::network(8);
    let service = QueryService::start(
        common::engine(&net),
        ServeConfig {
            workers: 2,
            queue_capacity: 64,
            default_deadline: None,
            ..ServeConfig::default()
        },
    );
    let project = common::projects(&net, 1).remove(0);

    let mut doomed = Request::new(project.clone(), common::strategies()[0], 2);
    doomed.deadline = Some(Duration::ZERO);
    assert_eq!(
        service.query(doomed).unwrap_err(),
        ServeError::DeadlineExceeded
    );

    // The pool is still healthy: an undeadlined request succeeds.
    let ok = service
        .query(Request::new(project, common::strategies()[0], 2))
        .expect("service still serves after a deadline shed");
    assert!(!ok.teams.is_empty());
    let stats = service.stats();
    // The doomed request expired while queued, so the worker fast-shed
    // it after dequeue — counted as shed_expired, not as a mid-search
    // deadline_exceeded.
    assert_eq!(stats.shed_expired, 1);
    assert_eq!(stats.deadline_exceeded, 0);
    assert_eq!(stats.served, 1);
    assert_eq!(stats.submitted, 2);
    assert!(stats.reconciles(), "ledger balances: {stats}");
}

#[test]
fn burst_sheds_cleanly_and_every_submission_is_accounted_for() {
    let net = common::network(9);
    let service = QueryService::start(
        common::engine(&net),
        ServeConfig {
            workers: 1,
            queue_capacity: 2,
            default_deadline: None,
            ..ServeConfig::default()
        },
    );
    let project = common::projects(&net, 1).remove(0);

    let mut handles = Vec::new();
    let mut shed_at_submit = 0u64;
    for _ in 0..100 {
        match service.submit(Request::new(project.clone(), common::strategies()[0], 1)) {
            Ok(h) => handles.push(h),
            Err(ServeError::Overloaded { capacity }) => {
                assert_eq!(capacity, 2);
                shed_at_submit += 1;
            }
            Err(other) => panic!("unexpected submit error: {other}"),
        }
        // Queue depth never exceeds the bound — this is the
        // flat-memory guarantee.
        assert!(service.queue_depth() <= 2);
    }
    let mut served = 0u64;
    for h in handles {
        h.wait().expect("accepted requests all complete");
        served += 1;
    }
    let stats = service.stats();
    assert_eq!(stats.shed, shed_at_submit);
    assert_eq!(stats.served, served);
    assert_eq!(served + shed_at_submit, 100, "no request vanished");
    assert_eq!(stats.submitted, 100);
    assert!(stats.reconciles(), "ledger balances: {stats}");
}

#[test]
fn hot_swap_changes_answers_and_versions_without_downtime() {
    let net_a = common::network(10);
    let net_b = common::network(11);
    let direct_a = common::engine(&net_a);
    let direct_b = common::engine(&net_b);
    let service = QueryService::start(common::engine(&net_a), ServeConfig::default());
    let project_a = common::projects(&net_a, 1).remove(0);
    let project_b = common::projects(&net_b, 1).remove(0);
    let strategy = common::strategies()[2];

    let r1 = service
        .query(Request::new(project_a.clone(), strategy, 2))
        .unwrap();
    assert_eq!(r1.snapshot_version, 1);
    common::assert_bit_identical(
        &r1.teams,
        &direct_a.top_k(&project_a, strategy, 2).unwrap(),
        "v1",
    );

    let snap = service.publish(common::engine(&net_b));
    assert_eq!(snap.version(), 2);
    assert_eq!(service.current_version(), 2);

    let r2 = service
        .query(Request::new(project_b.clone(), strategy, 2))
        .unwrap();
    assert_eq!(r2.snapshot_version, 2);
    common::assert_bit_identical(
        &r2.teams,
        &direct_b.top_k(&project_b, strategy, 2).unwrap(),
        "v2",
    );
    assert_eq!(service.stats().swaps, 1);
}

#[test]
fn corrupt_snapshot_file_fails_the_swap_and_old_snapshot_keeps_serving() {
    let dir = std::env::temp_dir().join(format!(
        "atd_serve_corrupt_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("snapshot.atdl");

    let net = common::network(12);
    let project = common::projects(&net, 1).remove(0);
    // Save a valid snapshot file, then corrupt it.
    common::engine(&net).save_pll_index(&path).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&path, &bytes).unwrap();

    let service = QueryService::start(common::engine(&net), ServeConfig::default());
    let before = service
        .query(Request::new(project.clone(), common::strategies()[0], 2))
        .unwrap();

    // A publish that loads the corrupt file must fail without
    // rebuilding and without disturbing the serving snapshot.
    let result = service.try_publish_with(|| {
        atd_core::Discovery::with_options(
            net.graph.clone(),
            net.skills.clone(),
            DiscoveryOptions {
                pll_index_path: Some(path.clone()),
                ..Default::default()
            },
        )
    });
    assert!(result.is_err(), "corrupt file must not publish");
    assert_eq!(service.current_version(), 1, "old snapshot still serving");
    assert_eq!(service.stats().swap_failures, 1);
    assert_eq!(service.stats().swaps, 0);

    let after = service
        .query(Request::new(project, common::strategies()[0], 2))
        .unwrap();
    assert_eq!(after.snapshot_version, 1);
    common::assert_bit_identical(&after.teams, &before.teams, "pre/post failed swap");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn query_errors_pass_through_typed() {
    let net = common::network(13);
    let service = QueryService::start(common::engine(&net), ServeConfig::default());
    let empty = Request::new(atd_core::Project::new(vec![]), common::strategies()[0], 1);
    assert_eq!(
        service.query(empty).unwrap_err(),
        ServeError::Query(DiscoveryError::EmptyProject)
    );
    assert_eq!(service.stats().query_errors, 1);
}

#[test]
fn shutdown_refuses_new_work() {
    let net = common::network(14);
    let mut service = QueryService::start(common::engine(&net), ServeConfig::default());
    let project = common::projects(&net, 1).remove(0);
    service
        .query(Request::new(project.clone(), common::strategies()[0], 1))
        .unwrap();
    service.shutdown();
    assert_eq!(
        service
            .submit(Request::new(project, common::strategies()[0], 1))
            .unwrap_err(),
        ServeError::ShuttingDown
    );
}
