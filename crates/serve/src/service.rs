//! The worker pool, request lifecycle, and snapshot publication.
//!
//! ```text
//!  clients ──submit()──▶ admission ──▶ BoundedQueue ──pop()──▶ worker 1..N ──reply──▶ client
//!                          │ shed?        │ full?                │ pins Arc<Snapshot>
//!                          ▼              ▼                      │ CancelToken(deadline)
//!               DeadlineInfeasible    Overloaded                 │ catch_unwind
//!               BrownoutShed                                     ▼
//!                                                          SnapshotCell ◀─publish()─ swap thread
//! ```
//!
//! Design rules, each backed by a test:
//!
//! * **One immutable snapshot, many readers.** Workers clone the current
//!   `Arc<Snapshot>` per request; swaps never stall or corrupt a running
//!   query (pinning).
//! * **Failure is an answer, not an outcome.** Every request ends in a
//!   `Result` — panics become [`ServeError::QueryPanicked`], deadlines
//!   become [`ServeError::DeadlineExceeded`], overload becomes
//!   [`ServeError::Overloaded`], predicted-hopeless deadlines become
//!   [`ServeError::DeadlineInfeasible`]. The process never dies.
//! * **Workers are cattle.** A worker thread that dies anyway (a panic
//!   outside the catch, e.g. the `serve.worker` faultpoint) is respawned
//!   by the supervisor; its queue is shared, so no request is stranded.
//! * **Degrade before refusing, refuse before failing.** Under overload
//!   the service first switches to flagged anytime answers
//!   ([`BrownoutTier::Brownout1`]), then sheds low-priority traffic
//!   ([`BrownoutTier::Brownout2`]) — see [`crate::admission`].
//! * **Every submission is accounted exactly once.** At quiescence
//!   `served + shed_at_admission + shed_expired + errors == submitted`
//!   ([`ServeStats::reconciles`](crate::ServeStats::reconciles)); a
//!   reply that can't be delivered is still counted (`responses_lost`).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use atd_core::{CancelToken, Discovery, Project, QueryScratch, ScoredTeam, Strategy};

use crate::admission::{
    AdmissionConfig, AdmissionController, BrownoutConfig, BrownoutController, BrownoutTier,
    BrownoutTransition, Priority, RequestShape,
};
use crate::error::ServeError;
use crate::faultpoint;
use crate::queue::{BoundedQueue, PushError};
use crate::snapshot::{Snapshot, SnapshotCell};
use crate::stats::{Counters, ServeStats};

/// Service sizing and defaults.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads answering queries.
    pub workers: usize,
    /// Bounded submission queue capacity; a full queue sheds with
    /// [`ServeError::Overloaded`].
    pub queue_capacity: usize,
    /// Deadline applied to requests that don't set their own.
    pub default_deadline: Option<Duration>,
    /// Adaptive admission control (predictive shedding, priority
    /// headroom). The default admits everything the queue can hold.
    pub admission: AdmissionConfig,
    /// Brownout degradation tiers. The default
    /// ([`BrownoutConfig::p99_target`] = `None`) disables brownout.
    pub brownout: BrownoutConfig,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 2,
            queue_capacity: 64,
            default_deadline: None,
            admission: AdmissionConfig::default(),
            brownout: BrownoutConfig::default(),
        }
    }
}

/// One team-discovery request.
#[derive(Debug, Clone)]
pub struct Request {
    /// The skills to cover.
    pub project: Project,
    /// Ranking strategy (CC / CA-CC / SA-CA-CC).
    pub strategy: Strategy,
    /// How many teams to return.
    pub k: usize,
    /// Per-request deadline override; `None` uses the service default.
    pub deadline: Option<Duration>,
    /// Opt into anytime serving: a deadline that expires mid-search
    /// returns the best-so-far answer flagged with a [`PartialBound`]
    /// instead of [`ServeError::DeadlineExceeded`]. The service also
    /// forces this on while browned out.
    pub anytime: bool,
    /// Priority class; see [`Priority`]. Defaults to [`Priority::Low`].
    pub priority: Priority,
}

impl Request {
    /// A low-priority, fail-fast request with the service's default
    /// deadline.
    pub fn new(project: Project, strategy: Strategy, k: usize) -> Request {
        Request {
            project,
            strategy,
            k,
            deadline: None,
            anytime: false,
            priority: Priority::Low,
        }
    }

    /// Sets the priority class.
    pub fn with_priority(mut self, priority: Priority) -> Request {
        self.priority = priority;
        self
    }

    /// Opts into anytime serving (best-so-far partials on deadline
    /// expiry instead of fail-fast).
    pub fn with_anytime(mut self) -> Request {
        self.anytime = true;
        self
    }
}

/// How much of the scan a degraded (anytime) response covered — the
/// response's explicit quality bound.
///
/// Determinism contract: two degraded responses for the same request are
/// bit-identical iff they scanned the same `roots_scanned` prefix (e.g.
/// the same brownout root budget). Partials cut by a *wall-clock*
/// deadline are **not** reproducible — the poll where time runs out
/// varies run to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartialBound {
    /// Candidate roots the truncated scan evaluated.
    pub roots_scanned: usize,
    /// Roots a full-fidelity scan would evaluate.
    pub total_roots: usize,
}

/// A successful answer.
#[derive(Debug, Clone)]
pub struct ServeResponse {
    /// The ranked teams. For full-fidelity responses
    /// ([`degraded`](ServeResponse::degraded) = `None`) these are
    /// bit-identical to a direct [`Discovery::top_k`] on the same
    /// snapshot; a degraded response ranks only the teams its truncated
    /// scan found.
    pub teams: Vec<ScoredTeam>,
    /// `Some` iff this answer came from a truncated anytime scan; carries
    /// the scan-coverage bound. `None` means full fidelity.
    pub degraded: Option<PartialBound>,
    /// Version of the snapshot that answered — clients observing a swap
    /// mid-stream can tell old answers from new.
    pub snapshot_version: u64,
    /// Wall-clock time from dequeue to answer.
    pub latency: Duration,
}

/// A pending response (one-shot receive).
#[derive(Debug)]
pub struct ResponseHandle {
    rx: mpsc::Receiver<Result<ServeResponse, ServeError>>,
}

impl ResponseHandle {
    /// Blocks until the worker answers. A worker that died before
    /// replying (and was respawned) surfaces as
    /// [`ServeError::ResponseLost`].
    pub fn wait(self) -> Result<ServeResponse, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::ResponseLost))
    }

    /// Non-blocking poll; `None` while the query is still running.
    pub fn try_wait(&self) -> Option<Result<ServeResponse, ServeError>> {
        match self.rx.try_recv() {
            Ok(r) => Some(r),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => Some(Err(ServeError::ResponseLost)),
        }
    }
}

/// Owns a job's reply sender and counts the reply as lost if it is
/// dropped unsent — which happens exactly when the worker thread dies
/// between dequeue and send (the `serve.worker` faultpoint, or a panic
/// outside the catch). Keeps `responses_lost` in the ledger so the
/// reconciliation invariant holds even across worker kills.
struct ReplyGuard {
    tx: Option<mpsc::Sender<Result<ServeResponse, ServeError>>>,
    counters: Arc<Counters>,
}

impl ReplyGuard {
    /// Delivers the answer (best-effort: the caller may have dropped the
    /// receiver) and disarms the guard.
    fn send(mut self, answer: Result<ServeResponse, ServeError>) {
        if let Some(tx) = self.tx.take() {
            let _ = tx.send(answer);
        }
    }

    /// Disarms without sending — for jobs handed back by the queue
    /// (shed/shutdown), whose outcome is already counted at admission.
    fn disarm(&mut self) {
        self.tx = None;
    }
}

impl Drop for ReplyGuard {
    fn drop(&mut self) {
        if self.tx.is_some() {
            Counters::bump(&self.counters.responses_lost);
        }
    }
}

struct Job {
    request: Request,
    shape: RequestShape,
    enqueued_at: Instant,
    deadline_at: Option<Instant>,
    reply: ReplyGuard,
}

struct Shared {
    queue: BoundedQueue<Job>,
    cell: SnapshotCell,
    counters: Arc<Counters>,
    admission: AdmissionController,
    brownout: BrownoutController,
    workers: usize,
    default_deadline: Option<Duration>,
    shutting_down: AtomicBool,
    next_version: AtomicU64,
}

/// The fault-tolerant concurrent query service. See the crate README for
/// the snapshot lifecycle and failure-mode table.
pub struct QueryService {
    shared: Arc<Shared>,
    supervisor: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for QueryService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryService")
            .field("stats", &self.stats())
            .field("snapshot_version", &self.current_version())
            .field("brownout_tier", &self.brownout_tier())
            .finish()
    }
}

impl QueryService {
    /// Starts the pool with `engine` as snapshot version 1.
    pub fn start(engine: Discovery, config: ServeConfig) -> QueryService {
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            queue: BoundedQueue::new(config.queue_capacity),
            cell: SnapshotCell::new(Arc::new(Snapshot::new(1, engine))),
            counters: Arc::new(Counters::default()),
            admission: AdmissionController::new(config.admission),
            brownout: BrownoutController::new(config.brownout),
            workers,
            default_deadline: config.default_deadline,
            shutting_down: AtomicBool::new(false),
            next_version: AtomicU64::new(2),
        });

        // The supervisor owns the worker handles: it spawns the initial
        // pool, then respawns any worker whose thread has finished while
        // the service is still up (the only way a worker exits early is
        // a panic outside catch_unwind).
        let sup_shared = Arc::clone(&shared);
        let supervisor = std::thread::Builder::new()
            .name("atd-serve-supervisor".into())
            .spawn(move || {
                let mut pool: Vec<JoinHandle<()>> = (0..workers)
                    .map(|i| spawn_worker(i, Arc::clone(&sup_shared)))
                    .collect();
                while !sup_shared.shutting_down.load(Ordering::Acquire) {
                    for (i, slot) in pool.iter_mut().enumerate() {
                        if slot.is_finished() {
                            let dead =
                                std::mem::replace(slot, spawn_worker(i, Arc::clone(&sup_shared)));
                            let _ = dead.join(); // collect the panic payload
                            Counters::bump(&sup_shared.counters.workers_respawned);
                        }
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                for h in pool {
                    let _ = h.join();
                }
            })
            .expect("spawn supervisor thread");

        QueryService {
            shared,
            supervisor: Some(supervisor),
        }
    }

    /// Submits a request through admission control. Returns immediately:
    /// `Ok` with a handle to wait on, or a typed refusal —
    /// [`ServeError::Overloaded`] (queue full, or low-priority headroom
    /// exhausted), [`ServeError::DeadlineInfeasible`] (predicted to miss
    /// its deadline), [`ServeError::BrownoutShed`] (low-priority during
    /// Brownout2), or [`ServeError::ShuttingDown`].
    ///
    /// High-priority requests ([`Priority::High`]) skip every predictive
    /// and brownout shed: only a genuinely full queue refuses them.
    pub fn submit(&self, request: Request) -> Result<ResponseHandle, ServeError> {
        faultpoint::hit("serve.admission");
        let shared = &*self.shared;
        let now = Instant::now();
        let deadline_at = request
            .deadline
            .or(shared.default_deadline)
            .map(|d| now + d);
        let shape = RequestShape::new(request.k, request.project.len(), request.strategy.gamma());

        if request.priority < Priority::High {
            if shared.brownout.tier() == BrownoutTier::Brownout2 {
                Counters::bump(&shared.counters.submitted);
                Counters::bump(&shared.counters.shed_priority);
                return Err(ServeError::BrownoutShed);
            }
            if shared.admission.config().predictive {
                if let Some(deadline) = deadline_at {
                    let remaining = deadline.saturating_duration_since(now);
                    if let Some(estimated) =
                        shared
                            .admission
                            .estimate(shape, shared.queue.len(), shared.workers)
                    {
                        if estimated > remaining {
                            Counters::bump(&shared.counters.submitted);
                            Counters::bump(&shared.counters.shed_infeasible);
                            return Err(ServeError::DeadlineInfeasible {
                                estimated,
                                remaining,
                            });
                        }
                    }
                }
            }
            let headroom = shared.admission.config().low_priority_headroom;
            if headroom > 0 && shared.queue.len() + headroom >= shared.queue.capacity() {
                Counters::bump(&shared.counters.submitted);
                Counters::bump(&shared.counters.shed_priority);
                return Err(ServeError::Overloaded {
                    capacity: shared.queue.capacity().saturating_sub(headroom),
                });
            }
        }

        let (tx, rx) = mpsc::channel();
        let job = Job {
            request,
            shape,
            enqueued_at: now,
            deadline_at,
            reply: ReplyGuard {
                tx: Some(tx),
                counters: Arc::clone(&shared.counters),
            },
        };
        match shared.queue.try_push(job) {
            Ok(()) => {
                Counters::bump(&shared.counters.submitted);
                Ok(ResponseHandle { rx })
            }
            Err((mut job, PushError::Full)) => {
                job.reply.disarm();
                Counters::bump(&shared.counters.submitted);
                Counters::bump(&shared.counters.shed);
                Err(ServeError::Overloaded {
                    capacity: shared.queue.capacity(),
                })
            }
            Err((mut job, PushError::Closed)) => {
                // Not counted as submitted: shutdown refusals are outside
                // the reconciliation ledger.
                job.reply.disarm();
                Err(ServeError::ShuttingDown)
            }
        }
    }

    /// Submit-and-wait convenience.
    pub fn query(&self, request: Request) -> Result<ServeResponse, ServeError> {
        self.submit(request)?.wait()
    }

    /// Publishes `engine` as the next snapshot version; in-flight
    /// requests finish on the snapshot they pinned. Returns the new
    /// snapshot.
    pub fn publish(&self, engine: Discovery) -> Arc<Snapshot> {
        let version = self.shared.next_version.fetch_add(1, Ordering::Relaxed);
        let snap = Arc::new(Snapshot::new(version, engine));
        self.shared.cell.swap(Arc::clone(&snap));
        Counters::bump(&self.shared.counters.swaps);
        snap
    }

    /// Fault-contained publication: `build` (typically a strict
    /// snapshot load from `pll_index_path`) runs under `catch_unwind`
    /// with the `serve.snapshot_load` faultpoint planted in front. Any
    /// failure — returned error or panic — increments `swap_failures`
    /// and leaves the current snapshot serving untouched.
    pub fn try_publish_with<F, E>(&self, build: F) -> Result<Arc<Snapshot>, ServeError>
    where
        F: FnOnce() -> Result<Discovery, E>,
        E: std::fmt::Display,
    {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            faultpoint::hit_io("serve.snapshot_load")
                .map_err(|e| e.to_string())
                .and_then(|()| build().map_err(|e| e.to_string()))
        }));
        match outcome {
            Ok(Ok(engine)) => Ok(self.publish(engine)),
            Ok(Err(msg)) => {
                Counters::bump(&self.shared.counters.swap_failures);
                Err(ServeError::QueryPanicked(format!(
                    "snapshot load failed: {msg}"
                )))
            }
            Err(payload) => {
                Counters::bump(&self.shared.counters.swap_failures);
                Err(ServeError::QueryPanicked(format!(
                    "snapshot load panicked: {}",
                    panic_message(&payload)
                )))
            }
        }
    }

    /// The version currently serving.
    pub fn current_version(&self) -> u64 {
        self.shared.cell.load().version()
    }

    /// Pins and returns the currently serving snapshot (for direct
    /// engine access, e.g. bit-identity checks in tests).
    pub fn current_snapshot(&self) -> Arc<Snapshot> {
        self.shared.cell.load()
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> ServeStats {
        self.shared.counters.snapshot()
    }

    /// The brownout tier currently in force.
    pub fn brownout_tier(&self) -> BrownoutTier {
        self.shared.brownout.tier()
    }

    /// The live counters, for sibling layers (the durable publish path
    /// records incremental-vs-rebuild outcomes here).
    pub(crate) fn counters(&self) -> &Counters {
        &self.shared.counters
    }

    /// Current submission-queue depth (diagnostic).
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.len()
    }

    /// Stops accepting work, drains the queue, and joins every thread.
    /// Called automatically on drop.
    pub fn shutdown(&mut self) {
        self.shared.shutting_down.store(true, Ordering::Release);
        self.shared.queue.close();
        if let Some(h) = self.supervisor.take() {
            let _ = h.join();
        }
    }
}

impl Drop for QueryService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn spawn_worker(index: usize, shared: Arc<Shared>) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("atd-serve-worker-{index}"))
        .spawn(move || worker_loop(&shared))
        .expect("spawn worker thread")
}

/// Feeds one finished request's end-to-end latency to the brownout state
/// machine and counts any tier transition it causes.
fn observe_brownout(shared: &Shared, total_latency: Duration) {
    match shared.brownout.observe(total_latency) {
        Some(BrownoutTransition::Entered(_)) => {
            Counters::bump(&shared.counters.brownout_entries);
        }
        Some(BrownoutTransition::Exited(_)) => {
            Counters::bump(&shared.counters.brownout_exits);
        }
        None => {}
    }
}

fn worker_loop(shared: &Shared) {
    // Per-worker scratch, reused across requests and revalidated against
    // each pinned snapshot (scatter sizes can change across swaps).
    let mut scratch = QueryScratch::new();
    while let Some(job) = shared.queue.pop() {
        // The `serve.worker` faultpoint sits OUTSIDE catch_unwind: an
        // armed panic here kills the worker thread itself, exercising
        // supervisor respawn. The job is already dequeued; its ReplyGuard
        // drops unsent with the thread → `responses_lost` is bumped and
        // the caller sees ResponseLost.
        faultpoint::hit("serve.worker");

        let started = Instant::now();
        let deadline_at = job.deadline_at;

        // Fast-shed: a request whose deadline passed while queued is
        // answered without touching the engine. Counted as shed_expired,
        // distinct from mid-search deadline_exceeded, so the two shed
        // paths can't double-account.
        if deadline_at.is_some_and(|d| Instant::now() >= d) {
            Counters::bump(&shared.counters.shed_expired);
            let queued_for = job.enqueued_at.elapsed();
            job.reply.send(Err(ServeError::DeadlineExceeded));
            observe_brownout(shared, queued_for);
            continue;
        }

        // Pin the snapshot for the whole request: concurrent swaps
        // cannot pull the engine out from under the query.
        let snap = shared.cell.load();
        let cancel = match deadline_at {
            Some(d) => CancelToken::with_deadline(d),
            None => CancelToken::never(),
        };

        // Brownout: force the anytime path with a reduced root budget so
        // every answer stays bounded even if its deadline is generous.
        let tier = shared.brownout.tier();
        let anytime = job.request.anytime || tier >= BrownoutTier::Brownout1;
        let root_budget = shared
            .brownout
            .root_budget(snap.engine().graph().num_nodes());

        let result = catch_unwind(AssertUnwindSafe(|| {
            faultpoint::hit("serve.request");
            if anytime {
                snap.engine()
                    .top_k_anytime(
                        &job.request.project,
                        job.request.strategy,
                        job.request.k,
                        Some(&mut scratch),
                        &cancel,
                        root_budget,
                    )
                    .map(|partial| {
                        let degraded = (!partial.exhausted).then_some(PartialBound {
                            roots_scanned: partial.roots_scanned,
                            total_roots: partial.total_roots,
                        });
                        (partial.teams, degraded)
                    })
            } else {
                snap.engine()
                    .top_k_with(
                        &job.request.project,
                        job.request.strategy,
                        job.request.k,
                        Some(&mut scratch),
                        &cancel,
                    )
                    .map(|teams| (teams, None))
            }
        }));

        let answer = match result {
            Ok(engine_result) => {
                // Every completed engine call — answer, deadline, or
                // query error — occupied this worker for exactly this
                // long; all of them train the admission model.
                shared.admission.record(job.shape, started.elapsed());
                match engine_result {
                    Ok((teams, degraded)) => {
                        Counters::bump(&shared.counters.served);
                        if degraded.is_some() {
                            Counters::bump(&shared.counters.degraded_served);
                        }
                        Ok(ServeResponse {
                            teams,
                            degraded,
                            snapshot_version: snap.version(),
                            latency: started.elapsed(),
                        })
                    }
                    Err(e) => {
                        let e = ServeError::from(e);
                        Counters::bump(match &e {
                            ServeError::DeadlineExceeded => &shared.counters.deadline_exceeded,
                            _ => &shared.counters.query_errors,
                        });
                        Err(e)
                    }
                }
            }
            Err(payload) => {
                // The panic may have unwound mid-scatter-load: the
                // scratch could hold a half-written plane, so drop it
                // wholesale rather than risk a poisoned distance.
                scratch = QueryScratch::new();
                Counters::bump(&shared.counters.panics_recovered);
                Err(ServeError::QueryPanicked(panic_message(&payload)))
            }
        };
        // Reply first, then feed the brownout window: the serve.brownout
        // faultpoint panics inside observe(), and a killed worker must
        // not take an already-computed answer down with it.
        let total_latency = job.enqueued_at.elapsed();
        job.reply.send(answer);
        observe_brownout(shared, total_latency);
    }
}
