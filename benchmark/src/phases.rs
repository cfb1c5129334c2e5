//! The building blocks every workload is made of: the common set-up,
//! the closed read loop, the publish loop, the restart cycle, and the
//! correctness gates.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use atd_core::{Discovery, DiscoveryOptions, Project, ScoredTeam, SkillIndex};
use atd_distance::graph_fingerprint;
use atd_eval::PAPER_GAMMA;
use atd_graph::{ExpertGraph, GraphDelta};
use atd_serve::{
    DurableConfig, DurableService, JournalConfig, QueryService, Request, ServeConfig, ServeStats,
};
use atd_store::Journal;

use crate::inputs::{self, DeltaKind, DeltaStream, RequestMix, RequestSpec, K, STRATEGIES};
use crate::trace::Tracer;

/// Worker threads of every service: one per core of the 2-core host.
pub const WORKERS: usize = 2;

/// Auto-checkpoint period of the durable service. Against the 3-relax /
/// 1-structural delta pattern, most checkpoints land on relax publishes.
pub const CHECKPOINT_EVERY: u64 = 5;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Engine options of every engine: the worker pool owns the
/// parallelism, so neither the root scan nor the index build of an
/// engine rebuilt under live readers spawns threads of its own.
pub fn engine_options() -> DiscoveryOptions {
    let mut options = DiscoveryOptions {
        threads: Some(1),
        ..DiscoveryOptions::default()
    };
    options.pll_build.threads = Some(1);
    options
}

pub fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: WORKERS,
        ..ServeConfig::default()
    }
}

/// The product defaults (`sync_writes` on) plus the pinned engine.
pub fn durable_config() -> DurableConfig {
    DurableConfig {
        journal: JournalConfig::default(),
        serve: serve_config(),
        discovery: engine_options(),
        checkpoint_every: CHECKPOINT_EVERY,
    }
}

/// Operations attempted and failed, with the first few failures kept
/// for the report.
#[derive(Debug, Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Ledger {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail_counted(what());
        }
    }

    /// Counts a failure of an operation already counted as attempted.
    fn fail_counted(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    pub fn merge(&mut self, attempted: u64, failures: Vec<String>) {
        self.attempted += attempted;
        for f in failures {
            self.fail_counted(f);
        }
    }
}

/// When a loop ends.
#[derive(Clone, Copy, Debug)]
pub enum Stop<'a> {
    /// After `budget` from the loop's start, but not before `min`
    /// operations.
    For { budget: Duration, min: usize },
    /// After exactly this many operations.
    Count(usize),
    /// When the flag is raised.
    Flag(&'a AtomicBool),
}

impl Stop<'_> {
    fn done(&self, began: Instant, issued: usize) -> bool {
        match *self {
            Stop::For { budget, min } => issued >= min && began.elapsed() >= budget,
            Stop::Count(n) => issued >= n,
            Stop::Flag(flag) => flag.load(Ordering::SeqCst),
        }
    }
}

/// What the common set-up leaves behind.
pub struct Setup {
    pub graph: ExpertGraph,
    pub skills: SkillIndex,
    /// The last repetition's engine, γ index prepared, until the read
    /// phase takes it.
    pub engine: Option<Discovery>,
    /// The previous repetition's engine: built from its own corpus and
    /// network, the independent reference of the query gate.
    pub spare: Discovery,
    /// Checkpoint with the base index persisted, empty WAL tail.
    pub live_dir: PathBuf,
    /// The same checkpoint plus the seeded 8-record relax tail.
    pub restart_dir: PathBuf,
    pub restart_fingerprint: u64,
    /// Wall time of each repetition.
    pub seconds: Vec<f64>,
}

fn prepare_store(
    dir: &Path,
    graph: &ExpertGraph,
    engine: &Discovery,
    tail: &[GraphDelta],
) -> Result<u64, String> {
    let genesis = graph.clone();
    let (mut journal, _) = Journal::open(dir, JournalConfig::default(), move || genesis)
        .map_err(|e| format!("open {}: {e}", dir.display()))?;
    journal
        .checkpoint_with(|_, path| engine.save_pll_index(path).map_err(|e| e.to_string()))
        .map_err(|e| format!("checkpoint {}: {e}", dir.display()))?;
    for delta in tail {
        journal
            .append(delta)
            .map_err(|e| format!("append to {}: {e}", dir.display()))?;
    }
    Ok(journal.graph_fingerprint())
}

/// Corpus, network, engine with its γ index, and the two stores —
/// [`SETUP_REPS`] times, keeping the last two engines and the last
/// stores.
pub fn setup(work: &Path, seed: u64, tr: &mut Tracer) -> Result<Setup, String> {
    let mut seconds = Vec::new();
    let mut reps = Vec::new();
    for rep in 0..SETUP_REPS {
        let op = rep as u64;
        let dir = work.join(format!("setup-{rep}"));
        let start = Instant::now();
        let corpus = tr.span("dblp.synth", op, |_| inputs::synth_corpus());
        let net = tr.span("dblp.network", op, |_| inputs::network(corpus));
        let engine = tr
            .span("core.engine_build", op, |_| {
                Discovery::with_options(net.graph.clone(), net.skills.clone(), engine_options())
            })
            .map_err(|e| format!("engine build: {e}"))?;
        tr.span("core.prepare_gamma", op, |_| {
            engine.prepare_gamma(PAPER_GAMMA)
        })
        .map_err(|e| format!("γ index: {e}"))?;
        let tail = inputs::restart_tail(&net.graph, seed);
        tr.span("store.prepare", op, |_| {
            prepare_store(&dir.join("live"), &net.graph, &engine, &[])
        })?;
        let fingerprint = tr.span("store.prepare", op, |_| {
            prepare_store(&dir.join("restart"), &net.graph, &engine, &tail)
        })?;
        seconds.push(start.elapsed().as_secs_f64());
        reps.push((engine, net, dir, fingerprint));
        if reps.len() > 2 {
            let (.., old_dir, _) = reps.remove(0);
            std::fs::remove_dir_all(old_dir).ok();
        }
    }
    let (engine, net, dir, restart_fingerprint) = reps.pop().expect("SETUP_REPS ≥ 2");
    let (spare, ..) = reps.pop().expect("SETUP_REPS ≥ 2");
    Ok(Setup {
        graph: net.graph,
        skills: net.skills,
        engine: Some(engine),
        spare,
        live_dir: dir.join("live"),
        restart_dir: dir.join("restart"),
        restart_fingerprint,
        seconds,
    })
}

/// One answered read, timed by its client.
#[derive(Clone, Debug)]
pub struct ReadSample {
    pub index: usize,
    pub sent: Instant,
    pub submitted: Instant,
    pub done: Instant,
    /// `ServeResponse::latency`: dequeue to answer.
    pub service: Duration,
}

impl ReadSample {
    pub fn latency(&self) -> Duration {
        self.done - self.sent
    }
}

#[derive(Debug, Default)]
pub struct ReadRun {
    pub samples: Vec<ReadSample>,
    pub attempted: u64,
    pub failures: Vec<String>,
    /// Time the clients were sending, over every call.
    pub wall: Duration,
    /// Index of the next request of the mix to send.
    next: usize,
}

/// `clients` closed-loop clients sending the request mix (each sends
/// its next request when the previous one is answered) until `stop`;
/// appends to `run`, continuing the mix where the last call left it.
pub fn closed_loop(
    run: &mut ReadRun,
    service: &QueryService,
    mix: &RequestMix,
    clients: usize,
    stop: Stop<'_>,
) {
    let first = run.next;
    let next = AtomicUsize::new(first);
    let began = Instant::now();
    let per_client: Vec<(Vec<ReadSample>, u64, Vec<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let next = &next;
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    let mut attempted = 0;
                    let mut failures = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::SeqCst);
                        if stop.done(began, index - first) {
                            break;
                        }
                        let request = mix.request(index);
                        attempted += 1;
                        let sent = Instant::now();
                        let answer = service.submit(request).map(|h| (Instant::now(), h.wait()));
                        let done = Instant::now();
                        match answer {
                            Ok((submitted, Ok(resp))) if resp.degraded.is_none() => {
                                samples.push(ReadSample {
                                    index,
                                    sent,
                                    submitted,
                                    done,
                                    service: resp.latency,
                                });
                            }
                            Ok((_, Ok(_))) => {
                                failures.push(format!("read {index}: degraded answer"))
                            }
                            Ok((_, Err(e))) | Err(e) => failures.push(format!("read {index}: {e}")),
                        }
                    }
                    (samples, attempted, failures)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("read client panicked"))
            .collect()
    });
    run.wall += began.elapsed();
    // Stops are monotonic, so the requests sent are exactly the indices
    // from `first` on, one per attempt.
    run.next = first + per_client.iter().map(|c| c.1 as usize).sum::<usize>();
    for (samples, attempted, failures) in per_client {
        run.samples.extend(samples);
        run.attempted += attempted;
        run.failures.extend(failures);
    }
    run.samples.sort_by_key(|s| s.index);
}

/// One publish and its read-your-write answer.
#[derive(Clone, Debug)]
pub struct PublishSample {
    pub op: usize,
    pub kind: DeltaKind,
    pub start: Instant,
    pub published: Instant,
    pub visible: Instant,
    pub checkpointed: bool,
}

impl PublishSample {
    /// From the `publish_mutation` call to its return, or (`visible`) to
    /// the read-your-write answer.
    pub fn elapsed(&self, visible: bool) -> Duration {
        (if visible {
            self.visible
        } else {
            self.published
        }) - self.start
    }
}

#[derive(Debug, Default)]
pub struct PublishRun {
    pub samples: Vec<PublishSample>,
    /// Every delta sent, in order (the traced replay sends them again).
    pub deltas: Vec<(GraphDelta, DeltaKind)>,
    pub attempted: u64,
    pub failures: Vec<String>,
    pub stats: ServeStats,
}

/// Publishes the stream back to back; after each publish, asks for one
/// SA-CA-CC answer, which must come from the new snapshot. Appends to
/// `run`.
pub fn publish_loop(
    run: &mut PublishRun,
    durable: &DurableService,
    stream: &mut DeltaStream,
    probe: &Project,
    stop: Stop<'_>,
) {
    let began = Instant::now();
    let first = run.deltas.len();
    while !stop.done(began, run.deltas.len() - first) {
        let op = run.deltas.len();
        let (delta, kind) = stream.next(durable.current_snapshot().engine().graph());
        let generation = durable.generation();
        let request = Request::new(probe.clone(), STRATEGIES[2], K);
        run.attempted += 1;
        run.deltas.push((delta, kind));
        let start = Instant::now();
        if let Err(e) = durable.publish_mutation(&run.deltas[op].0) {
            run.failures
                .push(format!("{} publish {op}: {e}", kind.label()));
            break;
        }
        let published = Instant::now();
        let version = durable.current_snapshot().version();
        let answer = durable.query(request);
        let visible = Instant::now();
        match answer {
            Ok(resp) if resp.snapshot_version == version => run.samples.push(PublishSample {
                op,
                kind,
                start,
                published,
                visible,
                checkpointed: durable.generation() != generation,
            }),
            Ok(resp) => run.failures.push(format!(
                "publish {op}: read-your-write answered from v{} instead of v{version}",
                resp.snapshot_version
            )),
            Err(e) => run
                .failures
                .push(format!("publish {op}: read-your-write: {e}")),
        }
    }
    run.stats = durable.service().stats();
}

/// One restart: open, one answer per strategy, shut down.
#[derive(Clone, Debug)]
pub struct RestartSample {
    pub start: Instant,
    pub recovered: Instant,
    pub answered: Instant,
}

#[derive(Debug, Default)]
pub struct RestartRun {
    pub samples: Vec<RestartSample>,
    pub attempted: u64,
    pub failures: Vec<String>,
}

/// Restart cycles on the restart store until `stop`; appends to `run`.
pub fn restart_loop(run: &mut RestartRun, setup: &Setup, probe: &Project, stop: Stop<'_>) {
    let began = Instant::now();
    let expected = setup.restart_fingerprint;
    let first = run.attempted;
    while !stop.done(began, (run.attempted - first) as usize) {
        let cycle = run.attempted;
        run.attempted += 1;
        let skills = setup.skills.clone();
        let requests: Vec<Request> = STRATEGIES
            .iter()
            .map(|&s| Request::new(probe.clone(), s, K))
            .collect();
        let start = Instant::now();
        let opened = DurableService::open(&setup.restart_dir, skills, durable_config(), || {
            panic!("the restart store was initialized during set-up")
        });
        let recovered = Instant::now();
        let (mut durable, report) = match opened {
            Ok(opened) => opened,
            Err(e) => {
                run.failures.push(format!("restart {cycle}: open: {e}"));
                continue;
            }
        };
        let answers: Result<Vec<_>, _> = requests.into_iter().map(|r| durable.query(r)).collect();
        let answered = Instant::now();
        let served = durable.current_snapshot();
        let problem = if let Err(e) = answers {
            Some(format!("query: {e}"))
        } else if report.replayed_records != inputs::RELAX_POOL as u64 {
            Some(format!("replayed {} records", report.replayed_records))
        } else if report.graph_fingerprint != expected
            || durable.graph_fingerprint() != expected
            || graph_fingerprint(served.engine().graph()) != expected
        {
            Some("recovered fingerprint differs from the journal's".to_string())
        } else if !durable.service().stats().reconciles() {
            Some(format!(
                "ledger does not reconcile: {}",
                durable.service().stats()
            ))
        } else {
            None
        };
        durable.shutdown();
        match problem {
            Some(p) => run.failures.push(format!("restart {cycle}: {p}")),
            None => run.samples.push(RestartSample {
                start,
                recovered,
                answered,
            }),
        }
    }
}

fn same_teams(a: &[ScoredTeam], b: &[ScoredTeam]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.team.member_key() == y.team.member_key()
                && x.objective.to_bits() == y.objective.to_bits()
                && x.algorithm_cost.to_bits() == y.algorithm_cost.to_bits()
        })
}

/// Service answers, both entry points, against direct `top_k` on an
/// engine built separately: members, objective bits and cost bits must
/// match, and anytime answers must be exhausted.
pub fn query_gate(
    service: &QueryService,
    reference: &Discovery,
    mix: &RequestMix,
    ledger: &mut Ledger,
) {
    for spec in mix.coverage() {
        let project = mix.project(&spec);
        let strategy = STRATEGIES[spec.strategy];
        let want = reference.top_k(project, strategy, K);
        for anytime in [false, true] {
            let spec = RequestSpec { anytime, ..spec };
            let ok = match (service.query(mix.request_for(&spec)), &want) {
                (Ok(resp), Ok(want)) => resp.degraded.is_none() && same_teams(&resp.teams, want),
                _ => false,
            };
            ledger.check(ok, || {
                format!(
                    "query gate: {} {}-skill anytime={anytime} differs from direct top_k",
                    strategy.label(),
                    project.len(),
                )
            });
        }
    }
}

/// The final snapshot answers like an engine built from scratch on the
/// journal's graph.
pub fn publish_gate(durable: &DurableService, mix: &RequestMix, ledger: &mut Ledger) {
    let snapshot = durable.current_snapshot();
    let engine = snapshot.engine();
    ledger.check(
        graph_fingerprint(engine.graph()) == durable.graph_fingerprint(),
        || "publish gate: the serving graph is not the journal's".to_string(),
    );
    let scratch = match Discovery::with_options(
        engine.graph().clone(),
        engine.skills().clone(),
        engine_options(),
    ) {
        Ok(scratch) => scratch,
        Err(e) => {
            ledger.check(false, || format!("publish gate: scratch engine: {e}"));
            return;
        }
    };
    for spec in mix.coverage() {
        let project = mix.project(&spec);
        let strategy = STRATEGIES[spec.strategy];
        let ok = match (
            engine.top_k(project, strategy, K),
            scratch.top_k(project, strategy, K),
        ) {
            (Ok(a), Ok(b)) => same_teams(&a, &b),
            _ => false,
        };
        ledger.check(ok, || {
            format!(
                "publish gate: {} {}-skill answer differs from a from-scratch engine",
                strategy.label(),
                project.len()
            )
        });
    }
}
