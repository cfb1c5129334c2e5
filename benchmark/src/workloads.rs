//! The three workloads. Each runs its own phase for `--seconds` and a
//! fixed cross-section of the other two phases, so that every run
//! reports every end-to-end metric. The phases alternate in
//! [`ROUNDS`] rounds: on a host whose speed drifts over seconds, each
//! metric then draws its samples from the whole run instead of one
//! stretch of it.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use atd_core::Project;
use atd_eval::PAPER_GAMMA;
use atd_serve::{DurableService, QueryService, Snapshot};

use crate::inputs::{self, DeltaStream, RequestMix};
use crate::phases::{
    self, closed_loop, publish_loop, restart_loop, Ledger, PublishRun, ReadRun, RestartRun, Setup,
    Stop,
};
use crate::trace::Tracer;

/// Closed-loop clients of the read phase: one per core.
pub const CLIENTS: usize = 2;

/// Rounds each run's phases alternate in.
pub const ROUNDS: usize = 4;

/// Cross-section sizes, split over the rounds: reads for `restart` (one
/// full deck of the mix); publishes for `query` and `restart` (nine
/// relax deltas — the whole relax pool and one more — and three
/// structural; the fifth and tenth checkpoint); restarts for `query` and
/// `publish`.
pub const CROSS_READS: usize = inputs::DECK;
pub const CROSS_PUBLISHES: usize = 12;
pub const CROSS_RESTARTS: usize = 4;

/// Round `r`'s share of `total` operations.
fn share(total: usize, r: usize) -> Stop<'static> {
    Stop::Count(total * (r + 1) / ROUNDS - total * r / ROUNDS)
}

/// Floors for a timed phase on a very short `--seconds`, per round.
const MIN_READS: usize = 10;
const MIN_PUBLISHES: usize = 1;
const MIN_RESTARTS: usize = 1;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Query,
    Publish,
    Restart,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "query" => Some(Workload::Query),
            "publish" => Some(Workload::Publish),
            "restart" => Some(Workload::Restart),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Query => "query",
            Workload::Publish => "publish",
            Workload::Restart => "restart",
        }
    }
}

/// Everything a run measured, for the report and the traced replays.
pub struct Run {
    pub setup: Setup,
    pub mix: RequestMix,
    pub probe: Project,
    pub reads: ReadRun,
    /// The snapshot the reads were answered from.
    pub read_snapshot: Arc<Snapshot>,
    pub publishes: PublishRun,
    pub restarts: RestartRun,
    pub ledger: Ledger,
}

fn open_live(setup: &Setup) -> Result<DurableService, String> {
    let (durable, _) = DurableService::open(
        &setup.live_dir,
        setup.skills.clone(),
        phases::durable_config(),
        || panic!("the live store was initialized during set-up"),
    )
    .map_err(|e| format!("open the live store: {e}"))?;
    durable
        .current_snapshot()
        .engine()
        .prepare_gamma(PAPER_GAMMA)
        .map_err(|e| format!("γ index: {e}"))?;
    Ok(durable)
}

fn reconciles(service: &QueryService, what: &str, ledger: &mut Ledger) {
    let stats = service.stats();
    ledger.check(stats.reconciles(), || {
        format!("{what}: service ledger does not reconcile: {stats}")
    });
}

pub fn run(
    workload: Workload,
    seed: u64,
    seconds: u64,
    work: &Path,
    tr: &mut Tracer,
) -> Result<Run, String> {
    let mut setup = phases::setup(work, seed, tr)?;
    let mix = RequestMix::new(&setup.skills, seed);
    let probe = inputs::probe_project(&setup.skills, seed);
    let round = Duration::from_secs(seconds) / ROUNDS as u32;
    let mut ledger = Ledger::default();
    let mut reads = ReadRun::default();
    let mut publishes = PublishRun::default();
    let mut restarts = RestartRun::default();
    let mut stream = DeltaStream::new(&setup.graph, seed);

    let engine = setup.engine.take().expect("set-up leaves an engine");
    let mut service = QueryService::start(engine, phases::serve_config());
    let mut durable = open_live(&setup)?;
    if workload == Workload::Query {
        phases::query_gate(&service, &setup.spare, &mix, &mut ledger);
    }
    for r in 0..ROUNDS {
        match workload {
            Workload::Query => {
                let stop = Stop::For {
                    budget: round,
                    min: MIN_READS,
                };
                closed_loop(&mut reads, &service, &mix, CLIENTS, stop);
                let stop = share(CROSS_PUBLISHES, r);
                publish_loop(&mut publishes, &durable, &mut stream, &probe, stop);
                restart_loop(&mut restarts, &setup, &probe, share(CROSS_RESTARTS, r));
            }
            Workload::Publish => {
                let done = AtomicBool::new(false);
                std::thread::scope(|scope| {
                    let reader = scope.spawn(|| {
                        closed_loop(&mut reads, durable.service(), &mix, 1, Stop::Flag(&done))
                    });
                    let stop = Stop::For {
                        budget: round,
                        min: MIN_PUBLISHES,
                    };
                    publish_loop(&mut publishes, &durable, &mut stream, &probe, stop);
                    done.store(true, Ordering::SeqCst);
                    reader.join().expect("background reader panicked");
                });
                restart_loop(&mut restarts, &setup, &probe, share(CROSS_RESTARTS, r));
            }
            Workload::Restart => {
                let stop = Stop::For {
                    budget: round,
                    min: MIN_RESTARTS,
                };
                restart_loop(&mut restarts, &setup, &probe, stop);
                closed_loop(&mut reads, &service, &mix, CLIENTS, share(CROSS_READS, r));
                let stop = share(CROSS_PUBLISHES, r);
                publish_loop(&mut publishes, &durable, &mut stream, &probe, stop);
            }
        }
    }
    if workload == Workload::Publish {
        phases::publish_gate(&durable, &mix, &mut ledger);
    }
    reconciles(&service, "reads", &mut ledger);
    reconciles(durable.service(), "publishes", &mut ledger);
    // The publish workload reads from the durable service's snapshots.
    let read_snapshot = match workload {
        Workload::Publish => durable.current_snapshot(),
        _ => service.current_snapshot(),
    };
    service.shutdown();
    durable.shutdown();

    ledger.merge(reads.attempted, reads.failures.clone());
    ledger.merge(publishes.attempted, publishes.failures.clone());
    ledger.merge(restarts.attempted, restarts.failures.clone());
    Ok(Run {
        setup,
        mix,
        probe,
        reads,
        read_snapshot,
        publishes,
        restarts,
        ledger,
    })
}
