//! The deadline-aware job system: one bounded queue drained by one executor
//! thread that owns the [`WorkerPool`], watched by one watchdog thread that
//! enforces deadlines and cancels stalled jobs.
//!
//! Design points:
//!
//! * **One pool, many connections.** `WorkerPool::map` takes `&mut self`
//!   (one round in flight per pool), so sweeps are serialized through the
//!   executor thread, which owns the pool and its whole `--threads` budget —
//!   each sweep then fans out across every pool worker. Connection threads
//!   never spawn workers; they enqueue and wait. The pool is built before
//!   the executor starts, so a thread-spawn failure is an error from
//!   [`JobManager::with_config`], never a job system without an executor.
//! * **Panics stay inside the job.** Every job runs under `catch_unwind`: a
//!   panicking sweep (worker panics propagate out of `pool.map`, and the
//!   pool stays usable) finalizes as a structured `500 panicked` and the
//!   executor moves on to the next job.
//! * **Bounded queue, 503 backpressure.** [`JobManager::submit_with`]
//!   refuses work beyond the configured depth, while the server is
//!   draining, and — admission control — when the EWMA-based wait estimate
//!   already exceeds the request's deadline. Every [`Reject`] maps to `503`
//!   with a `Retry-After` hint derived from the backlog.
//! * **Deadlines are enforced, not advisory.** The watchdog finalizes
//!   queued jobs whose deadline passes as structured `504`s without
//!   executing them, and fires the [`CancelToken`] of a running job past
//!   its deadline; the sweep stops cooperatively at its next tile / DP
//!   stride poll and reports partial progress (`scales_done` /
//!   `scales_total`). Cancelled jobs never populate the response cache.
//! * **Stalls are cancelled, not restarted.** The same watchdog fires the
//!   token of a running job that finishes no scale for the stall budget
//!   ([`CancelCause::Stalled`], a `504 stalled`). A job that ignores its
//!   token simply finishes late; queued jobs behind it still expire on
//!   their own deadlines. The watchdog sleeps until the nearest deadline or
//!   stall check and never polls on a fixed tick.
//! * **In-flight coalescing.** Jobs carry the request's content
//!   fingerprint; a submission whose fingerprint matches a queued or
//!   running job attaches to it instead of recomputing, so N concurrent
//!   clients posting the same trace cost one sweep and observe
//!   byte-identical bodies (they share the completed job's `Arc<str>`). An
//!   impatient coalesced waiter times out alone via
//!   [`JobManager::wait_until`]; the shared job keeps running.
//! * **Async retrieval.** Every submission gets a job id; `POST …?async=1`
//!   returns it immediately and `GET /v1/jobs/<id>` polls (or blocks with
//!   `?wait=1`) for the outcome. Finished jobs are retained up to
//!   [`RETAINED_JOBS`] before the oldest are dropped.
//! * **Drain.** Lame-duck drain stops admission, waits for the queue and
//!   the running job within its budget, then cuts the queue and cancels the
//!   running job.
//! * **Spill-on-complete ordering.** A completing job populates the cache
//!   from inside its work closure on the executor thread, which *enqueues*
//!   the disk spill (see [`crate::persist`]) before the outcome publishes
//!   to waiters — a report is never observable without also being on its
//!   way to durability. The disk write itself is asynchronous; the
//!   server's drain paths call `cache.flush` after [`JobManager::drain`]
//!   so every accepted job's spill is durable before exit.
//!
//! [`CancelToken`]: saturn_core::CancelToken

use crate::faults::FaultPlan;
use crate::metrics::{Metrics, MetricsSweepObserver};
use saturn_core::parallel::WorkerPool;
use saturn_core::{json_trace_from_env, SweepControl, SweepObserver};
use serde::Serialize;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Completed jobs kept for `GET /v1/jobs/<id>` before the oldest are
/// forgotten.
pub const RETAINED_JOBS: usize = 512;

/// Default stall budget: a running job that finishes no scale for this
/// long is token-cancelled.
pub const DEFAULT_STALL_BUDGET: Duration = Duration::from_secs(300);

/// Smoothing factor for the EWMA of job service seconds (weight of the
/// newest sample).
const EWMA_ALPHA: f64 = 0.3;

/// How long a drain waits for a cancelled straggler to observe its token
/// after the drain budget itself is spent.
const DRAIN_GRACE: Duration = Duration::from_secs(30);

/// The work of one job: runs on the executor thread against the pool and
/// its own [`JobCtx`], returns the HTTP status and serialized body of the
/// outcome.
pub type JobWork = Box<dyn FnOnce(&mut WorkerPool, &JobCtx) -> JobOutcome + Send>;

/// Terminal result of a job, served verbatim to every attached client.
#[derive(Clone, Debug)]
pub struct JobOutcome {
    /// HTTP status of the response (200, or a 4xx/5xx the job produced).
    pub status: u16,
    /// Serialized JSON body.
    pub body: Arc<str>,
}

/// Why a job's cancel token fired.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CancelCause {
    /// The request's deadline expired while queued or running.
    Deadline,
    /// The server is draining for shutdown.
    Drain,
    /// A fault-injection directive fired the token.
    Injected,
    /// The watchdog saw no sweep progress for the stall budget.
    Stalled,
}

/// Per-job cancellation and progress context, shared between the executor,
/// the watchdog, and waiting request handlers.
#[derive(Debug)]
pub struct JobCtx {
    /// Cancel token + progress counters threaded into the sweep.
    pub control: SweepControl,
    /// First cause to fire the token (0 = none); later causes lose the race.
    cause: AtomicU8,
}

impl JobCtx {
    fn new(observer: Arc<dyn SweepObserver>) -> Arc<JobCtx> {
        Arc::new(JobCtx {
            control: SweepControl::with_observer(observer),
            cause: AtomicU8::new(0),
        })
    }

    /// True once any cancel cause has been recorded.
    pub fn is_cancelled(&self) -> bool {
        self.cause.load(Ordering::Acquire) != 0
    }

    /// Fires the job's token, recording `cause` if none was recorded yet.
    pub fn cancel(&self, cause: CancelCause) {
        let code = match cause {
            CancelCause::Deadline => 1,
            CancelCause::Drain => 2,
            CancelCause::Injected => 3,
            CancelCause::Stalled => 4,
        };
        let _ = self.cause.compare_exchange(0, code, Ordering::AcqRel, Ordering::Acquire);
        self.control.cancel.cancel();
    }

    fn cause_text(&self) -> &'static str {
        match self.cause.load(Ordering::Acquire) {
            1 => "deadline exceeded",
            2 => "cancelled: server draining",
            3 => "cancelled: injected fault",
            4 => "cancelled: stalled with no sweep progress",
            _ => "cancelled",
        }
    }

    fn cause_code(&self) -> &'static str {
        match self.cause.load(Ordering::Acquire) {
            1 => "deadline_exceeded",
            2 => "draining",
            3 => "fault_injected",
            4 => "stalled",
            _ => "cancelled",
        }
    }

    /// The structured 504 outcome of a cancelled job, carrying how far the
    /// sweep got.
    pub fn cancelled_outcome(&self) -> JobOutcome {
        let (done, total) = self.control.progress.snapshot();
        JobOutcome {
            status: 504,
            body: Arc::from(timeout_body(self.cause_code(), self.cause_text(), done, total)),
        }
    }
}

/// The JSON body of a `504` (or of a client-side deadline expiry): the
/// standard [`crate::error_envelope`] carrying partial progress in whole
/// scales. Cancellations are retryable by definition — the request itself
/// was fine.
pub fn timeout_body(code: &str, error: &str, scales_done: u64, scales_total: u64) -> String {
    crate::error_envelope(code, error, true, Some((scales_done, scales_total)))
}

/// What kind of sweep a job runs — selects the fault-injection site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobKind {
    /// Occupancy sweep (`POST /v1/analyze`).
    Analyze,
    /// Validation sweep (`POST /v1/validate`).
    Validate,
    /// Anything else (tests).
    Other,
}

impl JobKind {
    fn site(self) -> crate::faults::FaultSite {
        match self {
            JobKind::Analyze => crate::faults::FaultSite::Analyze,
            JobKind::Validate => crate::faults::FaultSite::Validate,
            JobKind::Other => crate::faults::FaultSite::Job,
        }
    }
}

/// Lifecycle of a job.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum JobPhase {
    /// Waiting in the queue.
    Queued,
    /// Executing on the pool.
    Running,
    /// Finished; the outcome is available.
    Done,
}

/// `submit` refusal. Every variant maps to `503` with a `Retry-After`
/// hint computed from the backlog.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reject {
    /// The bounded queue is at capacity.
    QueueFull {
        /// Suggested client backoff, from the EWMA backlog estimate.
        retry_after_secs: u32,
    },
    /// Admission control: the estimated queue wait already exceeds the
    /// request's deadline, so executing it would only waste the pool.
    WouldExpire {
        /// The wait estimate that exceeded the deadline.
        estimated_wait_ms: u64,
        /// Suggested client backoff.
        retry_after_secs: u32,
    },
    /// The server is draining for shutdown and admits no new work.
    Draining,
}

struct JobRecord {
    phase: JobPhase,
    outcome: Option<JobOutcome>,
    fingerprint: Option<u128>,
    ctx: Arc<JobCtx>,
    deadline: Option<Instant>,
    kind: JobKind,
    /// When the job entered the queue — the executor turns this into the
    /// `saturn_queue_wait_seconds` sample when it pops the job.
    queued_at: Instant,
}

struct State {
    queue: VecDeque<(u64, JobWork)>,
    /// The job on the executor, if any.
    running: Option<u64>,
    /// `(scales_done, since)` of the running job: the count the watchdog
    /// last saw and when it first saw it. A whole stall budget past `since`
    /// with the same count means the job is stalled.
    progress_mark: Option<(u64, Instant)>,
    jobs: HashMap<u64, JobRecord>,
    /// fingerprint → id of the queued/running job computing it.
    inflight: HashMap<u128, u64>,
    /// Completion order, for bounding retention.
    finished: VecDeque<u64>,
    next_id: u64,
    draining: bool,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Pokes the executor when the queue grows (and at shutdown).
    work_available: Condvar,
    job_done: Condvar,
    /// Pokes the watchdog whenever its next wake-up may have moved earlier.
    watchdog_wake: Condvar,
    /// Lifecycle counters (executed / completed / cancelled / panicked /
    /// coalesced / rejected / deadline_rejected), the queue-depth and EWMA
    /// gauges, and the queue-wait and sweep histograms. `/v1/health`'s
    /// [`JobStats`] is a view over these same atomics, mutated only while
    /// `state`'s lock is held.
    metrics: Arc<Metrics>,
    /// Fault-injection plan consulted at the executor seams.
    faults: Option<Arc<FaultPlan>>,
    /// Stall budget of the watchdog (zero disables stall cancellation).
    stall_budget: Duration,
}

/// Queue counters, serialized into `/v1/health`.
#[derive(Clone, Debug, Serialize)]
pub struct JobStats {
    /// Jobs currently queued (not yet running).
    pub queued: usize,
    /// Configured queue bound.
    pub queue_depth: usize,
    /// Jobs currently executing (0 or 1).
    pub running: usize,
    /// Jobs executed to completion (any outcome).
    pub executed: u64,
    /// Jobs that finished with their own outcome (not cancelled, did not
    /// panic).
    pub completed: u64,
    /// Jobs cancelled by deadline, drain, stall, or injected fault
    /// (`504`s).
    pub cancelled: u64,
    /// Jobs whose work panicked (`500`s).
    pub panicked: u64,
    /// Submissions attached to an in-flight duplicate.
    pub coalesced: u64,
    /// Submissions refused with any [`Reject`].
    pub rejected: u64,
    /// Refusals by deadline admission control specifically.
    pub deadline_rejected: u64,
    /// EWMA of job service seconds (0 until the first job finishes) — the
    /// `saturn_job_ewma_seconds` gauge.
    pub ewma_job_secs: f64,
}

/// Outcome of [`JobManager::wait_until`].
#[derive(Clone, Debug)]
pub enum WaitOutcome {
    /// The job finished; here is its outcome.
    Done(JobOutcome),
    /// The caller's own deadline expired first; the job keeps running for
    /// any more patient (coalesced) waiters. Carries the job's progress at
    /// expiry.
    DeadlineExpired {
        /// Scales finished when the wait gave up.
        scales_done: u64,
        /// Scales planned in total.
        scales_total: u64,
    },
    /// No such job (expired from retention or never existed).
    Unknown,
}

/// Everything [`JobManager::with_config`] needs.
#[derive(Clone, Debug)]
pub struct JobsConfig {
    /// Pool parallelism (0 = all cores).
    pub threads: usize,
    /// Queue bound.
    pub queue_depth: usize,
    /// Stall budget of the watchdog ([`DEFAULT_STALL_BUDGET`]; zero
    /// disables stall cancellation).
    pub stall_budget: Duration,
    /// Fault-injection plan consulted at the executor seams.
    pub faults: Option<Arc<FaultPlan>>,
}

impl JobsConfig {
    /// Defaults: the default stall budget, no faults.
    pub fn new(threads: usize, queue_depth: usize) -> JobsConfig {
        JobsConfig { threads, queue_depth, stall_budget: DEFAULT_STALL_BUDGET, faults: None }
    }
}

/// Owner of the executor and watchdog threads and the job table.
pub struct JobManager {
    shared: Arc<Shared>,
    queue_depth: usize,
    /// Threaded into every job's [`SweepControl`]: folds tile spans into
    /// the registry and mirrors them to stderr under `SATURN_TRACE=json`.
    observer: Arc<dyn SweepObserver>,
    /// The executor and the watchdog, joined on drop.
    threads: Vec<JoinHandle<()>>,
}

impl JobManager {
    /// A pool of `threads` parallelism (0 = all cores) and a queue bounded
    /// at `queue_depth` waiting jobs. Panics if the threads cannot spawn.
    pub fn new(threads: usize, queue_depth: usize) -> Self {
        Self::with_config(JobsConfig::new(threads, queue_depth), None)
            .expect("cannot start the job system")
    }

    /// [`JobManager::new`] with a fault-injection plan consulted at the
    /// executor seams. Counts into a private registry.
    pub fn with_faults(
        threads: usize,
        queue_depth: usize,
        faults: Option<Arc<FaultPlan>>,
    ) -> Self {
        let mut config = JobsConfig::new(threads, queue_depth);
        config.faults = faults;
        Self::with_config(config, None).expect("cannot start the job system")
    }

    /// Builds the pool, then starts the executor that owns it and the
    /// watchdog. Any thread-spawn failure, the pool's workers included, is
    /// returned here. `metrics` is the shared registry where `/v1/metrics`
    /// and `/v1/health` must agree; `None` builds a private one.
    pub fn with_config(
        config: JobsConfig,
        metrics: Option<Arc<Metrics>>,
    ) -> std::io::Result<Self> {
        let metrics = metrics.unwrap_or_default();
        let observer: Arc<dyn SweepObserver> =
            Arc::new(MetricsSweepObserver::new(Arc::clone(&metrics), json_trace_from_env()));
        let pool = WorkerPool::try_new(config.threads)?;
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                running: None,
                progress_mark: None,
                jobs: HashMap::new(),
                inflight: HashMap::new(),
                finished: VecDeque::new(),
                next_id: 1,
                draining: false,
                shutdown: false,
            }),
            work_available: Condvar::new(),
            job_done: Condvar::new(),
            watchdog_wake: Condvar::new(),
            metrics,
            faults: config.faults,
            stall_budget: config.stall_budget,
        });
        // if a spawn fails, dropping `manager` stops and joins whatever
        // already started
        let mut manager = JobManager {
            shared,
            queue_depth: config.queue_depth,
            observer,
            threads: Vec::with_capacity(2),
        };
        let shared = Arc::clone(&manager.shared);
        manager.threads.push(
            std::thread::Builder::new()
                .name("saturn-executor".into())
                .spawn(move || executor_loop(&shared, pool))?,
        );
        let shared = Arc::clone(&manager.shared);
        manager.threads.push(
            std::thread::Builder::new()
                .name("saturn-watchdog".into())
                .spawn(move || watchdog_loop(&shared))?,
        );
        Ok(manager)
    }

    /// Enqueues `work` with no deadline; see [`JobManager::submit_with`].
    pub fn submit(&self, fingerprint: Option<u128>, work: JobWork) -> Result<u64, Reject> {
        self.submit_with(fingerprint, None, JobKind::Other, 0, work)
    }

    /// Enqueues `work`, or attaches to an in-flight job computing the same
    /// `fingerprint`. Returns the job id to wait on, or a [`Reject`] when
    /// the server is draining, the queue is full, or — with a `deadline` —
    /// the EWMA wait estimate already exceeds it. A deadline also arms the
    /// watchdog for the job itself; `scales_hint` pre-seeds the progress
    /// total so even a job cancelled before its sweep starts reports a
    /// meaningful `scales_total`.
    pub fn submit_with(
        &self,
        fingerprint: Option<u128>,
        deadline: Option<Duration>,
        kind: JobKind,
        scales_hint: u64,
        work: JobWork,
    ) -> Result<u64, Reject> {
        let metrics = &self.shared.metrics;
        let mut state = self.shared.state.lock().expect("job state poisoned");
        if state.draining || state.shutdown {
            metrics.jobs_rejected.inc();
            return Err(Reject::Draining);
        }
        if let Some(key) = fingerprint {
            if let Some(&id) = state.inflight.get(&key) {
                // a cancelled job is doomed to a 504 and will never fill the
                // cache; queue a fresh run instead of chaining new waiters
                // onto it (the insert below repoints `inflight` at the new
                // job, so the doomed one retires without touching the map)
                let doomed = state.jobs.get(&id).map(|r| r.ctx.is_cancelled()).unwrap_or(false);
                if !doomed {
                    metrics.jobs_coalesced.inc();
                    return Ok(id);
                }
            }
        }
        if state.queue.len() >= self.queue_depth {
            metrics.jobs_rejected.inc();
            return Err(Reject::QueueFull { retry_after_secs: retry_secs(&state, metrics) });
        }
        if let Some(budget) = deadline {
            let estimated = estimated_wait(&state, metrics);
            if estimated > budget {
                metrics.jobs_rejected.inc();
                metrics.jobs_deadline_rejected.inc();
                return Err(Reject::WouldExpire {
                    estimated_wait_ms: estimated.as_millis() as u64,
                    retry_after_secs: retry_secs(&state, metrics),
                });
            }
        }
        let id = state.next_id;
        state.next_id += 1;
        let ctx = JobCtx::new(Arc::clone(&self.observer));
        ctx.control.progress.set_total(scales_hint);
        let deadline_at = deadline.map(|budget| Instant::now() + budget);
        state.jobs.insert(
            id,
            JobRecord {
                phase: JobPhase::Queued,
                outcome: None,
                fingerprint,
                ctx,
                deadline: deadline_at,
                kind,
                queued_at: Instant::now(),
            },
        );
        if let Some(key) = fingerprint {
            state.inflight.insert(key, id);
        }
        state.queue.push_back((id, work));
        metrics.queue_depth.set(state.queue.len() as u64);
        drop(state);
        self.shared.work_available.notify_one();
        if deadline_at.is_some() {
            self.shared.watchdog_wake.notify_one();
        }
        Ok(id)
    }

    /// Current phase of a job (`None` for unknown/expired ids).
    pub fn phase(&self, id: u64) -> Option<JobPhase> {
        let state = self.shared.state.lock().expect("job state poisoned");
        state.jobs.get(&id).map(|j| j.phase)
    }

    /// The outcome of a finished job, without blocking.
    pub fn outcome(&self, id: u64) -> Option<JobOutcome> {
        let state = self.shared.state.lock().expect("job state poisoned");
        state.jobs.get(&id).and_then(|j| j.outcome.clone())
    }

    /// Blocks until job `id` finishes and returns its outcome (`None` for
    /// unknown/expired ids).
    pub fn wait(&self, id: u64) -> Option<JobOutcome> {
        match self.wait_until(id, None) {
            WaitOutcome::Done(outcome) => Some(outcome),
            _ => None,
        }
    }

    /// Blocks until job `id` finishes or `deadline` passes, whichever
    /// comes first. A caller whose deadline fires while the job continues
    /// (the job may be shared with more patient coalesced waiters, or
    /// about to be cancelled by the watchdog) gets the job's progress
    /// snapshot back instead of an outcome.
    pub fn wait_until(&self, id: u64, deadline: Option<Instant>) -> WaitOutcome {
        let mut state = self.shared.state.lock().expect("job state poisoned");
        loop {
            let Some(job) = state.jobs.get(&id) else { return WaitOutcome::Unknown };
            if let Some(outcome) = &job.outcome {
                return WaitOutcome::Done(outcome.clone());
            }
            match deadline {
                None => state = self.shared.job_done.wait(state).expect("job state poisoned"),
                Some(at) => {
                    let now = Instant::now();
                    if now >= at {
                        let (scales_done, scales_total) = job.ctx.control.progress.snapshot();
                        return WaitOutcome::DeadlineExpired { scales_done, scales_total };
                    }
                    state = self
                        .shared
                        .job_done
                        .wait_timeout(state, at - now)
                        .expect("job state poisoned")
                        .0;
                }
            }
        }
    }

    /// Stops admitting work and waits up to `budget` for the queue and the
    /// running job to finish. Whatever is still queued when the budget runs
    /// out is finalized as a drain `504` without executing; a still-running
    /// job has its token fired and gets a grace period to stop at its next
    /// cancellation poll. Returns the final stats.
    pub fn drain(&self, budget: Duration) -> JobStats {
        let give_up = Instant::now() + budget;
        let mut state = self.shared.state.lock().expect("job state poisoned");
        state.draining = true;
        while !idle(&state) {
            let now = Instant::now();
            if now >= give_up {
                break;
            }
            state = self
                .shared
                .job_done
                .wait_timeout(state, give_up - now)
                .expect("job state poisoned")
                .0;
        }
        if !idle(&state) {
            let cut: Vec<u64> = state.queue.drain(..).map(|(id, _)| id).collect();
            for id in cut {
                finalize_cancelled(&mut state, &self.shared.metrics, id, CancelCause::Drain);
            }
            self.shared.metrics.queue_depth.set(0);
            if let Some(job) = state.running.and_then(|id| state.jobs.get(&id)) {
                job.ctx.cancel(CancelCause::Drain);
            }
            self.shared.job_done.notify_all();
            let grace = Instant::now() + DRAIN_GRACE;
            while state.running.is_some() {
                let now = Instant::now();
                if now >= grace {
                    break;
                }
                state = self
                    .shared
                    .job_done
                    .wait_timeout(state, grace - now)
                    .expect("job state poisoned")
                    .0;
            }
        }
        stats_of(&state, &self.shared.metrics, self.queue_depth)
    }

    /// Queue counters.
    pub fn stats(&self) -> JobStats {
        let state = self.shared.state.lock().expect("job state poisoned");
        stats_of(&state, &self.shared.metrics, self.queue_depth)
    }
}

fn idle(state: &State) -> bool {
    state.queue.is_empty() && state.running.is_none()
}

/// [`JobStats`] as a view over the registry counters — the `/v1/health`
/// numbers ARE the `/v1/metrics` numbers, snapshotted under the state
/// lock.
fn stats_of(state: &State, metrics: &Metrics, queue_depth: usize) -> JobStats {
    JobStats {
        queued: state.queue.len(),
        queue_depth,
        running: usize::from(state.running.is_some()),
        executed: metrics.jobs_executed.get(),
        completed: metrics.jobs_completed.get(),
        cancelled: metrics.jobs_cancelled.get(),
        panicked: metrics.jobs_panicked.get(),
        coalesced: metrics.jobs_coalesced.get(),
        rejected: metrics.jobs_rejected.get(),
        deadline_rejected: metrics.jobs_deadline_rejected.get(),
        ewma_job_secs: metrics.job_ewma_seconds.get(),
    }
}

/// EWMA estimate of how long a newly queued job waits before it starts:
/// one full service time per job ahead of it (queued + running). Zero
/// until the first job finishes — a fresh server admits everything.
fn estimated_wait(state: &State, metrics: &Metrics) -> Duration {
    let backlog = state.queue.len() + usize::from(state.running.is_some());
    Duration::from_secs_f64(metrics.job_ewma_seconds.get() * backlog as f64)
}

/// `Retry-After` hint: the backlog estimate plus one service time (the
/// retry joins behind the current backlog), clamped to [1s, 1h].
fn retry_secs(state: &State, metrics: &Metrics) -> u32 {
    let secs =
        (estimated_wait(state, metrics).as_secs_f64() + metrics.job_ewma_seconds.get()).ceil();
    secs.clamp(1.0, 3600.0) as u32
}

/// Finalizes a job that will never execute (deadline expired in queue, or
/// drain cut the queue) as a cancelled `504`.
fn finalize_cancelled(state: &mut State, metrics: &Metrics, id: u64, cause: CancelCause) {
    let Some(job) = state.jobs.get_mut(&id) else { return };
    if job.outcome.is_some() {
        return;
    }
    job.ctx.cancel(cause);
    job.phase = JobPhase::Done;
    job.outcome = Some(job.ctx.cancelled_outcome());
    let fingerprint = job.fingerprint;
    metrics.jobs_cancelled.inc();
    retire(state, id, fingerprint);
}

/// Moves a finished job into the retention window and unregisters its
/// fingerprint (only while the coalescing map still points at this job).
fn retire(state: &mut State, id: u64, fingerprint: Option<u128>) {
    if let Some(key) = fingerprint {
        if state.inflight.get(&key) == Some(&id) {
            state.inflight.remove(&key);
        }
    }
    state.finished.push_back(id);
    while state.finished.len() > RETAINED_JOBS {
        let expired = state.finished.pop_front().expect("nonempty");
        state.jobs.remove(&expired);
    }
}

/// Runs queued jobs in FIFO order on `pool`, each under `catch_unwind`,
/// until shutdown.
fn executor_loop(shared: &Shared, mut pool: WorkerPool) {
    loop {
        let (id, work, ctx, kind) = {
            let mut state = shared.state.lock().expect("job state poisoned");
            loop {
                if state.shutdown {
                    return;
                }
                if let Some((id, work)) = state.queue.pop_front() {
                    let job = state.jobs.get_mut(&id).expect("queued job recorded");
                    job.phase = JobPhase::Running;
                    let (ctx, kind) = (Arc::clone(&job.ctx), job.kind);
                    shared.metrics.queue_wait_seconds.observe(job.queued_at.elapsed());
                    state.running = Some(id);
                    state.progress_mark =
                        Some((ctx.control.progress.snapshot().0, Instant::now()));
                    shared.metrics.queue_depth.set(state.queue.len() as u64);
                    break (id, work, ctx, kind);
                }
                state = shared.work_available.wait(state).expect("job state poisoned");
            }
        };
        // the running job's deadline and stall budget are now the
        // watchdog's to track
        shared.watchdog_wake.notify_one();
        let started = Instant::now();
        // Worker panics propagate out of `pool.map` (which stays usable);
        // catch them so one poisoned trace cannot take the executor down.
        let caught = catch_unwind(AssertUnwindSafe(|| {
            if let Some(plan) = &shared.faults {
                if plan.cancel_race() {
                    // adversarial schedule: the token fires before the
                    // sweep even starts; the job must still finalize cleanly
                    ctx.cancel(CancelCause::Injected);
                }
                plan.maybe_slow(kind.site());
                plan.maybe_panic(kind.site());
            }
            work(&mut pool, &ctx)
        }));
        let elapsed = started.elapsed();
        shared.metrics.sweep_seconds.observe(elapsed);
        let panicked = caught.is_err();
        let outcome = caught.unwrap_or_else(|_| JobOutcome {
            status: 500,
            body: Arc::from(crate::error_envelope("panicked", "analysis panicked", true, None)),
        });
        let mut state = shared.state.lock().expect("job state poisoned");
        let ewma = &shared.metrics.job_ewma_seconds;
        let secs = elapsed.as_secs_f64();
        let previous = ewma.get();
        ewma.set(if previous == 0.0 {
            secs
        } else {
            EWMA_ALPHA * secs + (1.0 - EWMA_ALPHA) * previous
        });
        state.running = None;
        state.progress_mark = None;
        shared.metrics.jobs_executed.inc();
        if panicked {
            shared.metrics.jobs_panicked.inc();
        } else if outcome.status == 504 {
            shared.metrics.jobs_cancelled.inc();
        } else {
            shared.metrics.jobs_completed.inc();
        }
        let job = state.jobs.get_mut(&id).expect("running job recorded");
        job.phase = JobPhase::Done;
        job.outcome = Some(outcome);
        let fingerprint = job.fingerprint;
        retire(&mut state, id, fingerprint);
        drop(state);
        shared.job_done.notify_all();
    }
}

/// Enforces deadlines and the stall budget: queued jobs past their deadline
/// are finalized as `504`s without executing; the running job has its
/// token fired (the executor then finalizes the cancelled outcome). Sleeps
/// until the nearest deadline or stall check, or until woken when there is
/// neither.
fn watchdog_loop(shared: &Shared) {
    let mut state = shared.state.lock().expect("job state poisoned");
    loop {
        if state.shutdown {
            return;
        }
        let now = Instant::now();
        let expired: Vec<u64> = state
            .queue
            .iter()
            .filter(|(id, _)| {
                state.jobs.get(id).and_then(|job| job.deadline).is_some_and(|at| at <= now)
            })
            .map(|(id, _)| *id)
            .collect();
        if !expired.is_empty() {
            state.queue.retain(|(id, _)| !expired.contains(id));
            shared.metrics.queue_depth.set(state.queue.len() as u64);
            for id in expired {
                finalize_cancelled(&mut state, &shared.metrics, id, CancelCause::Deadline);
            }
            shared.job_done.notify_all();
        }
        let queued_deadline = state
            .queue
            .iter()
            .filter_map(|(id, _)| state.jobs.get(id).and_then(|job| job.deadline))
            .min();
        let wake = queued_deadline
            .into_iter()
            .chain(check_running(&mut state, shared.stall_budget, now))
            .min();
        state = match wake {
            None => shared.watchdog_wake.wait(state).expect("job state poisoned"),
            Some(at) => {
                let pause =
                    at.saturating_duration_since(Instant::now()).max(Duration::from_millis(1));
                shared.watchdog_wake.wait_timeout(state, pause).expect("job state poisoned").0
            }
        };
    }
}

/// Fires the running job's token once its deadline passes or it finishes
/// no scale for a whole stall budget. Returns when the job next needs a
/// look: `None` when nothing runs or its token already fired.
fn check_running(state: &mut State, stall_budget: Duration, now: Instant) -> Option<Instant> {
    let job = state.jobs.get(&state.running?)?;
    if job.ctx.control.cancel.is_cancelled() {
        return None;
    }
    if job.deadline.is_some_and(|at| at <= now) {
        job.ctx.cancel(CancelCause::Deadline);
        return None;
    }
    if stall_budget.is_zero() {
        return job.deadline;
    }
    let done = job.ctx.control.progress.snapshot().0;
    let since = match state.progress_mark {
        Some((mark, since)) if mark == done => since,
        _ => now,
    };
    if now.duration_since(since) >= stall_budget {
        job.ctx.cancel(CancelCause::Stalled);
        return None;
    }
    let stall_check = since + stall_budget;
    let next = job.deadline.map_or(stall_check, |at| at.min(stall_check));
    state.progress_mark = Some((done, since));
    Some(next)
}

impl Drop for JobManager {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("job state poisoned");
            state.shutdown = true;
            self.shared.work_available.notify_all();
            self.shared.watchdog_wake.notify_all();
        }
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};

    fn ok(body: &str) -> JobOutcome {
        JobOutcome { status: 200, body: Arc::from(body) }
    }

    /// A reusable gate: jobs block in `hold` until the test `release`s.
    struct Gate {
        open: Mutex<bool>,
        cv: Condvar,
        entered: AtomicUsize,
    }

    impl Gate {
        fn new() -> Arc<Gate> {
            Arc::new(Gate {
                open: Mutex::new(false),
                cv: Condvar::new(),
                entered: AtomicUsize::new(0),
            })
        }

        fn hold(&self) {
            self.entered.fetch_add(1, AtomicOrdering::SeqCst);
            let mut open = self.open.lock().unwrap();
            while !*open {
                open = self.cv.wait(open).unwrap();
            }
        }

        fn release(&self) {
            *self.open.lock().unwrap() = true;
            self.cv.notify_all();
        }

        fn wait_entered(&self) {
            while self.entered.load(AtomicOrdering::SeqCst) == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }

    #[test]
    fn submit_wait_roundtrip() {
        let jobs = JobManager::new(1, 8);
        let id = jobs.submit(None, Box::new(|_pool, _ctx| ok("{\"x\":1}"))).unwrap();
        let outcome = jobs.wait(id).unwrap();
        assert_eq!(outcome.status, 200);
        assert_eq!(&*outcome.body, "{\"x\":1}");
        assert_eq!(jobs.phase(id), Some(JobPhase::Done));
        let stats = jobs.stats();
        assert_eq!(stats.executed, 1);
        assert_eq!(stats.completed, 1);
        assert!(stats.ewma_job_secs >= 0.0);
    }

    #[test]
    fn coalescing_shares_one_execution() {
        let jobs = JobManager::new(1, 8);
        // a blocker job keeps the executor busy so both submissions queue
        let gate = Gate::new();
        let g = Arc::clone(&gate);
        jobs.submit(
            None,
            Box::new(move |_pool, _ctx| {
                g.hold();
                ok("gate")
            }),
        )
        .unwrap();
        let a = jobs.submit(Some(42), Box::new(|_pool, _ctx| ok("first"))).unwrap();
        let b = jobs.submit(Some(42), Box::new(|_pool, _ctx| ok("second"))).unwrap();
        assert_eq!(a, b, "identical fingerprints coalesce");
        gate.release();
        let out_a = jobs.wait(a).unwrap();
        let out_b = jobs.wait(b).unwrap();
        assert!(Arc::ptr_eq(&out_a.body, &out_b.body), "one body serves both");
        assert_eq!(&*out_a.body, "first");
        assert_eq!(jobs.stats().coalesced, 1);
    }

    #[test]
    fn bounded_queue_rejects_when_full() {
        let jobs = JobManager::new(1, 1);
        let gate = Gate::new();
        let g = Arc::clone(&gate);
        jobs.submit(
            None,
            Box::new(move |_pool, _ctx| {
                g.hold();
                ok("gate")
            }),
        )
        .unwrap();
        // wait until the gate job leaves the queue and occupies the executor
        gate.wait_entered();
        let queued = jobs.submit(None, Box::new(|_pool, _ctx| ok("fits"))).unwrap();
        let refused = jobs.submit(None, Box::new(|_pool, _ctx| ok("rejected")));
        assert!(
            matches!(refused, Err(Reject::QueueFull { retry_after_secs }) if retry_after_secs >= 1)
        );
        assert_eq!(jobs.stats().rejected, 1);
        gate.release();
        assert_eq!(&*jobs.wait(queued).unwrap().body, "fits");
    }

    #[test]
    fn panicking_job_becomes_500_and_executor_survives() {
        let jobs = JobManager::new(1, 8);
        let id = jobs.submit(None, Box::new(|_pool, _ctx| panic!("boom"))).unwrap();
        let outcome = jobs.wait(id).unwrap();
        assert_eq!(outcome.status, 500);
        assert!(outcome.body.contains("panicked"));
        let next = jobs.submit(None, Box::new(|_pool, _ctx| ok("alive"))).unwrap();
        assert_eq!(&*jobs.wait(next).unwrap().body, "alive");
        let stats = jobs.stats();
        assert_eq!(stats.panicked, 1);
        assert_eq!(stats.completed, 1);
    }

    /// Clients key on `error.code`: every code the cancellation paths emit
    /// must be exactly one from the crate-docs registry table, carried in
    /// the standard envelope with partial progress.
    #[test]
    fn emitted_error_codes_match_the_documented_registry() {
        for (cause, code) in [
            (Some(CancelCause::Deadline), "deadline_exceeded"),
            (Some(CancelCause::Drain), "draining"),
            (Some(CancelCause::Injected), "fault_injected"),
            (Some(CancelCause::Stalled), "stalled"),
            (None, "cancelled"),
        ] {
            let jctx = JobCtx { control: SweepControl::new(), cause: AtomicU8::new(0) };
            match cause {
                Some(cause) => jctx.cancel(cause),
                // the token fired without a recorded cause: the fallback
                None => jctx.control.cancel.cancel(),
            }
            let outcome = jctx.cancelled_outcome();
            assert_eq!(outcome.status, 504);
            let v: serde_json::Value = serde_json::from_str(&outcome.body).unwrap();
            assert_eq!(v["error"]["code"].as_str(), Some(code));
            assert_eq!(v["error"]["retryable"].as_bool(), Some(true));
            assert!(v["error"]["scales_done"].as_u64().is_some(), "body: {}", outcome.body);
            assert!(v["error"]["scales_total"].as_u64().is_some());
        }
        // a caught panic emits the registered `panicked` code
        let jobs = JobManager::new(1, 4);
        let id = jobs.submit(None, Box::new(|_pool, _ctx| panic!("boom"))).unwrap();
        let outcome = jobs.wait(id).unwrap();
        let v: serde_json::Value = serde_json::from_str(&outcome.body).unwrap();
        assert_eq!((outcome.status, v["error"]["code"].as_str()), (500, Some("panicked")));
    }

    #[test]
    fn unknown_ids_are_none() {
        let jobs = JobManager::new(1, 2);
        assert!(jobs.phase(999).is_none());
        assert!(jobs.wait(999).is_none());
        assert!(jobs.outcome(999).is_none());
        assert!(matches!(jobs.wait_until(999, None), WaitOutcome::Unknown));
    }

    #[test]
    fn jobs_actually_use_the_pool() {
        let jobs = JobManager::new(3, 4);
        let id = jobs
            .submit(
                None,
                Box::new(|pool, _ctx| {
                    let items: Vec<u64> = (0..100).collect();
                    let sum: u64 = pool.map(&items, |_wid, &x| x * 2).into_iter().sum();
                    JobOutcome { status: 200, body: Arc::from(format!("{{\"sum\":{sum}}}")) }
                }),
            )
            .unwrap();
        assert_eq!(&*jobs.wait(id).unwrap().body, "{\"sum\":9900}");
    }

    #[test]
    fn queued_job_past_deadline_expires_without_executing() {
        let jobs = JobManager::new(1, 8);
        let gate = Gate::new();
        let g = Arc::clone(&gate);
        let blocker = jobs
            .submit(
                None,
                Box::new(move |_pool, _ctx| {
                    g.hold();
                    ok("gate")
                }),
            )
            .unwrap();
        gate.wait_entered();
        let ran = Arc::new(AtomicUsize::new(0));
        let r = Arc::clone(&ran);
        let doomed = jobs
            .submit_with(
                None,
                Some(Duration::from_millis(30)),
                JobKind::Other,
                7,
                Box::new(move |_pool, _ctx| {
                    r.fetch_add(1, AtomicOrdering::SeqCst);
                    ok("never")
                }),
            )
            .unwrap();
        // the watchdog must 504 the queued job while the blocker still runs
        let outcome = jobs.wait(doomed).expect("expired job still reports");
        assert_eq!(outcome.status, 504);
        assert!(outcome.body.contains("deadline exceeded"), "body: {}", outcome.body);
        assert!(outcome.body.contains("\"scales_done\": 0"), "body: {}", outcome.body);
        assert!(outcome.body.contains("\"scales_total\": 7"), "body: {}", outcome.body);
        assert_eq!(ran.load(AtomicOrdering::SeqCst), 0, "expired job must never execute");
        gate.release();
        assert_eq!(jobs.wait(blocker).unwrap().status, 200);
        assert_eq!(jobs.stats().cancelled, 1);
    }

    #[test]
    fn running_job_past_deadline_gets_its_token_fired() {
        let jobs = JobManager::new(1, 8);
        let id = jobs
            .submit_with(
                None,
                Some(Duration::from_millis(40)),
                JobKind::Other,
                3,
                Box::new(|_pool, ctx| {
                    // a cooperative sweep: spin until the token fires, as
                    // try_run_on would at its next poll point
                    while !ctx.control.cancel.is_cancelled() {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    ctx.cancelled_outcome()
                }),
            )
            .unwrap();
        let outcome = jobs.wait(id).expect("cancelled job still reports");
        assert_eq!(outcome.status, 504);
        assert!(outcome.body.contains("deadline exceeded"), "body: {}", outcome.body);
        let stats = jobs.stats();
        assert_eq!(stats.cancelled, 1);
        assert_eq!(stats.executed, 1);
    }

    #[test]
    fn admission_control_rejects_wait_that_exceeds_deadline() {
        let jobs = JobManager::new(1, 8);
        // seed the EWMA with a measured ~50ms job
        let seed = jobs
            .submit(
                None,
                Box::new(|_pool, _ctx| {
                    std::thread::sleep(Duration::from_millis(50));
                    ok("seed")
                }),
            )
            .unwrap();
        jobs.wait(seed).unwrap();
        assert!(jobs.stats().ewma_job_secs >= 0.045);
        // occupy the executor and put one job in the queue
        let gate = Gate::new();
        let g = Arc::clone(&gate);
        let blocker = jobs
            .submit(
                None,
                Box::new(move |_pool, _ctx| {
                    g.hold();
                    ok("gate")
                }),
            )
            .unwrap();
        gate.wait_entered();
        let queued = jobs.submit(None, Box::new(|_pool, _ctx| ok("queued"))).unwrap();
        // estimated wait is ~2 service times (~100ms) >> a 1ms deadline
        let refused = jobs.submit_with(
            None,
            Some(Duration::from_millis(1)),
            JobKind::Other,
            0,
            Box::new(|_pool, _ctx| ok("doomed")),
        );
        match refused {
            Err(Reject::WouldExpire { estimated_wait_ms, retry_after_secs }) => {
                assert!(estimated_wait_ms >= 50, "estimate {estimated_wait_ms}ms");
                assert!(retry_after_secs >= 1);
            }
            other => panic!("expected WouldExpire, got {other:?}"),
        }
        // a generous deadline sails through the same backlog
        let admitted = jobs
            .submit_with(
                None,
                Some(Duration::from_secs(60)),
                JobKind::Other,
                0,
                Box::new(|_pool, _ctx| ok("patient")),
            )
            .expect("generous deadline is admitted");
        gate.release();
        assert!(jobs.wait(blocker).is_some());
        assert!(jobs.wait(queued).is_some());
        assert!(jobs.wait(admitted).is_some());
        assert_eq!(jobs.stats().deadline_rejected, 1);
    }

    #[test]
    fn drain_finishes_backlog_then_refuses_new_work() {
        let jobs = JobManager::new(1, 8);
        let first = jobs
            .submit(
                None,
                Box::new(|_pool, _ctx| {
                    std::thread::sleep(Duration::from_millis(20));
                    ok("first")
                }),
            )
            .unwrap();
        let second = jobs.submit(None, Box::new(|_pool, _ctx| ok("second"))).unwrap();
        let stats = jobs.drain(Duration::from_secs(30));
        assert_eq!(stats.queued, 0);
        assert_eq!(stats.running, 0);
        assert_eq!(stats.completed, 2);
        assert_eq!(jobs.wait(first).unwrap().status, 200);
        assert_eq!(jobs.wait(second).unwrap().status, 200);
        assert!(matches!(
            jobs.submit(None, Box::new(|_pool, _ctx| ok("late"))),
            Err(Reject::Draining)
        ));
    }

    #[test]
    fn drain_budget_cancels_stragglers() {
        let jobs = JobManager::new(1, 8);
        let gate = Gate::new();
        let g = Arc::clone(&gate);
        let stubborn = jobs
            .submit(
                None,
                Box::new(move |_pool, ctx| {
                    g.entered.fetch_add(1, AtomicOrdering::SeqCst);
                    while !ctx.control.cancel.is_cancelled() {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    ctx.cancelled_outcome()
                }),
            )
            .unwrap();
        let queued = jobs.submit(None, Box::new(|_pool, _ctx| ok("never runs"))).unwrap();
        gate.wait_entered();
        let stats = jobs.drain(Duration::from_millis(50));
        assert_eq!(stats.running, 0, "straggler must stop within the grace period");
        let running_outcome = jobs.wait(stubborn).expect("cancelled job reports");
        assert_eq!(running_outcome.status, 504);
        assert!(running_outcome.body.contains("draining"), "body: {}", running_outcome.body);
        let queued_outcome = jobs.wait(queued).expect("cut queued job reports");
        assert_eq!(queued_outcome.status, 504);
        assert!(queued_outcome.body.contains("draining"), "body: {}", queued_outcome.body);
        assert_eq!(stats.cancelled, 2);
    }

    #[test]
    fn coalesced_waiter_with_short_deadline_times_out_alone() {
        let jobs = JobManager::new(1, 8);
        let gate = Gate::new();
        let g = Arc::clone(&gate);
        let id = jobs
            .submit(
                Some(0xc0a1),
                Box::new(move |_pool, ctx| {
                    ctx.control.progress.set_total(5);
                    ctx.control.progress.add_done(2);
                    g.hold();
                    ok("shared")
                }),
            )
            .unwrap();
        gate.wait_entered();
        // an impatient coalesced waiter gives up; the job itself continues
        let expired = jobs.wait_until(id, Some(Instant::now() + Duration::from_millis(20)));
        match expired {
            WaitOutcome::DeadlineExpired { scales_done, scales_total } => {
                assert_eq!(scales_done, 2);
                assert_eq!(scales_total, 5);
            }
            other => panic!("expected DeadlineExpired, got {other:?}"),
        }
        gate.release();
        assert_eq!(jobs.wait(id).unwrap().status, 200, "job outlives the impatient waiter");
    }

    #[test]
    fn injected_cancel_race_still_finalizes_cleanly() {
        let plan = Arc::new(FaultPlan::parse("cancel_race:1").unwrap());
        let jobs = JobManager::with_faults(1, 8, Some(plan));
        let id = jobs
            .submit(
                None,
                Box::new(|_pool, ctx| {
                    if ctx.control.cancel.is_cancelled() {
                        ctx.cancelled_outcome()
                    } else {
                        ok("unraced")
                    }
                }),
            )
            .unwrap();
        let outcome = jobs.wait(id).expect("raced job reports");
        assert_eq!(outcome.status, 504);
        assert!(outcome.body.contains("injected"), "body: {}", outcome.body);
        assert_eq!(jobs.stats().cancelled, 1);
    }

    #[test]
    fn stalled_job_is_cancelled_as_504_and_the_next_job_runs() {
        let mut config = JobsConfig::new(1, 8);
        config.stall_budget = Duration::from_millis(40);
        let jobs = JobManager::with_config(config, None).unwrap();
        let id = jobs
            .submit_with(
                None,
                None,
                JobKind::Other,
                6,
                Box::new(|_pool, ctx| {
                    // cooperative but stuck: polls its token, finishes no
                    // scale
                    while !ctx.is_cancelled() {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    ctx.cancelled_outcome()
                }),
            )
            .unwrap();
        let outcome = jobs.wait(id).expect("stalled job reports");
        assert_eq!(outcome.status, 504);
        let v: serde_json::Value = serde_json::from_str(&outcome.body).unwrap();
        assert_eq!(v["error"]["code"].as_str(), Some("stalled"), "body: {}", outcome.body);
        assert_eq!(v["error"]["scales_done"].as_u64(), Some(0));
        assert_eq!(v["error"]["scales_total"].as_u64(), Some(6));
        let next = jobs.submit(None, Box::new(|_pool, _ctx| ok("alive"))).unwrap();
        assert_eq!(&*jobs.wait(next).unwrap().body, "alive");
        let stats = jobs.stats();
        assert_eq!((stats.cancelled, stats.completed, stats.panicked), (1, 1, 0));
    }

    #[test]
    fn job_ignoring_its_stall_token_finishes_late_and_nothing_restarts() {
        let mut config = JobsConfig::new(1, 8);
        config.stall_budget = Duration::from_millis(40);
        let jobs = JobManager::with_config(config, None).unwrap();
        let gate = Gate::new();
        let g = Arc::clone(&gate);
        let stalled = Arc::new(AtomicUsize::new(0));
        let saw_stall = Arc::clone(&stalled);
        let hostile = jobs
            .submit(
                None,
                Box::new(move |_pool, ctx| {
                    // ignores its token entirely and reports no progress
                    g.hold();
                    let cause = ctx.cause_code();
                    saw_stall.store(usize::from(cause == "stalled"), AtomicOrdering::SeqCst);
                    ok("ignored")
                }),
            )
            .unwrap();
        gate.wait_entered();
        // a queued job behind the wedge still expires on its own deadline;
        // its deadline lies past the running job's stall check, so the
        // watchdog fires the stall token no later than this expiry
        let queued = jobs
            .submit_with(
                None,
                Some(Duration::from_millis(60)),
                JobKind::Other,
                0,
                Box::new(|_pool, _ctx| ok("never")),
            )
            .unwrap();
        let expired = jobs.wait(queued).expect("expired job reports");
        assert_eq!(expired.status, 504);
        assert!(expired.body.contains("deadline_exceeded"), "body: {}", expired.body);
        assert_eq!(jobs.phase(hostile), Some(JobPhase::Running), "the wedge outlives it");
        // the wedged job runs to completion, late, on the same executor
        gate.release();
        let outcome = jobs.wait(hostile).expect("hostile job reports");
        assert_eq!((outcome.status, &*outcome.body), (200, "ignored"));
        assert_eq!(stalled.load(AtomicOrdering::SeqCst), 1, "the stall token fired");
        let next = jobs.submit(None, Box::new(|_pool, _ctx| ok("alive"))).unwrap();
        assert_eq!(&*jobs.wait(next).unwrap().body, "alive");
        let stats = jobs.stats();
        assert_eq!((stats.completed, stats.cancelled, stats.panicked), (2, 1, 0));
    }
}
