//! The shot service: worker pool, admission queue, chunk scheduler,
//! and the fault-tolerance layer around them.
//!
//! # Execution model
//!
//! A submitted job first becomes one *plan task*: compile-or-hit the
//! cache, route an engine, stage the dataset header, and let the engine
//! cut the work into chunks. Chunks then become independent queue tasks
//! any worker may claim; a per-job reorder buffer (the job's emitter)
//! commits finished chunks to the sink in chunk order. This module only
//! schedules, retries, delivers and accounts: what an engine is — how it
//! cuts a job and what one chunk produces — lives in the `engine`
//! module, and a chunk here is a plain range in the engine's own unit.
//! Every trajectory engine keys its Philox streams by absolute plan
//! index, so *where* a plan is cut cannot change the delivered bytes;
//! the frame engine keys streams by chunk ordinal, so its geometry is a
//! pure function of the job spec. Either way the bytes are invariant
//! under scheduling — the property the determinism suite pins across
//! worker counts {1, 2, 4, 8}.
//!
//! Tree jobs are cut too, at most one chunk per worker, each walked over
//! the sub-trie of its own trajectories
//! ([`PtsPlanTree::from_plan_indices`](ptsbe_core::PtsPlanTree::from_plan_indices)),
//! so the one parallel layer — across trajectories, as in the source
//! paper's multi-device distribution — covers the prefix-sharing engines
//! as well. A dense tree job becomes contiguous plan-index ranges: a
//! range repeats only the shared identity spine of a low-noise trie, and
//! its records stream out in chunk order. An MPS tree job's plan forks
//! near the root into a few long chains, so a plan range would repeat a
//! whole chain; it is cut in *trie order*, between leaves
//! ([`PtsPlanTree::leaf_chunks`](ptsbe_core::PtsPlanTree::leaf_chunks)),
//! which repeats only what the two sides of a cut share (nothing for a
//! root fork). Such chunks are not plan-contiguous, so the emitter holds
//! them and writes them merged by plan index when the last one arrives.
//!
//! # Fault tolerance
//!
//! Because chunks are pure functions of (spec, chunk index) and the
//! emitter delivers exactly-once, every recovery action below is
//! output-neutral — a faulted run of a valid job produces dataset bytes
//! identical to the fault-free run:
//!
//! - **Chunk retry.** A panicking chunk attempt is retried in place
//!   with capped exponential backoff ([`RetryPolicy`]); the retry
//!   re-executes bitwise identically.
//! - **Escaped panics.** Every task a worker pops runs under
//!   `catch_unwind`. A panic that escapes the chunk's retry guard (a
//!   `worker-kill` fault, a panicking sink) is caught there: the worker
//!   requeues the task with its attempt ordinal bumped and keeps
//!   serving. A chunk that was already delivered before the panic is
//!   deduplicated by the emitter and the per-job accounting bitmap.
//! - **Engine degradation.** A chunk that exhausts its retry budget on
//!   the MPS engine re-routes the job once to a dense fallback
//!   (recorded as [`RouteReason::EngineFallback`](crate::router::RouteReason)),
//!   provided nothing reached the sink yet — guaranteed for MPS jobs,
//!   whose chunks are held behind a lazily-written header until the
//!   last one is in. The failing chunk bumps the job's route
//!   *generation* first; sibling chunks of the failed route still in
//!   flight are stale from that moment and leave no trace (no delivery,
//!   no accounting, no verdict, no second fallback).
//! - **Deadlines.** [`crate::JobSpec::deadline`] is enforced
//!   cooperatively at chunk boundaries; an expired job transitions
//!   [`JobStatus::TimedOut`] within one chunk of the expiry and its
//!   sink holds a valid plan-order prefix.
//! - **Transient sink writes** (`io::ErrorKind::Interrupted`: no bytes
//!   were written) are retried inside the emitter with a short capped
//!   backoff.
//!
//! All of it is exercised deterministically by the fault-injection
//! harness ([`crate::fault::FaultConfig`]), enabled per service via
//! [`ServiceConfig::faults`] or globally via the `PTSBE_FAULTS`
//! environment presets.
//!
//! # Backpressure
//!
//! Admission is bounded by [`ServiceConfig::queue_capacity`] *jobs*:
//! [`ShotService::submit`] blocks until a slot frees, and
//! [`ShotService::try_submit`] returns [`ServiceError::Saturated`]
//! instead. Chunk tasks live on an internal unbounded queue whose length
//! is bounded by `capacity × chunks-per-job`.
//!
//! # Cancellation
//!
//! [`crate::JobHandle::cancel`] flips a per-job flag. Workers check it
//! before planning and before every chunk; unexecuted chunks drain as
//! no-ops, already-written records remain (a valid plan-order prefix),
//! and the job terminates `Cancelled`. Terminal states are settled by a
//! compare-and-swap — the first terminal transition wins — so the
//! cancel/fail race cannot overwrite a `Failed` verdict or finalize a
//! sink twice.

use crate::cache::CompileCache;
use crate::engine::{ChunkOutput, EngineExec, EngineKind};
use crate::fault::{FaultConfig, FaultSink, InjectedFault};
use crate::job::{ChunkLedger, JobHandle, JobInner, JobSpec, JobStatus, ServiceError};
use crate::metrics::{MetricsSnapshot, ServiceMetrics};
use crate::router::{degrade_route, route_job, RouteError, RouteReason, Routed};
use ptsbe_core::BatchConfig;
use ptsbe_dataset::{DatasetHeader, RecordSink, TrajectoryRecord};
use ptsbe_math::Scalar;
use ptsbe_telemetry::{spanned, stage_span, task_scope, Stage, TelemetryConfig};
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::Duration;

/// Lock with poison healing: service-global locks (queue, admission)
/// guard state that is consistent at every await point, so a panic
/// between acquire and release cannot leave them torn — healing is safe
/// and keeps one panicking task from wedging the whole service.
/// Job-*scoped* state with real mid-operation invariants (the emitter)
/// is NOT healed; it surfaces a typed [`ServiceError::Internal`] instead
/// (see [`crate::job::JobInner::emitter`]).
fn lock_healed<X>(m: &Mutex<X>) -> MutexGuard<'_, X> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Chunk-retry policy: how many times a failed chunk attempt is retried
/// in place, and the capped exponential backoff between attempts.
/// Retries are output-neutral (chunks are pure functions of the spec),
/// so none of these knobs can influence dataset bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (`0` disables retry).
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per subsequent retry.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 3,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(100),
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `retry` (0-based), exponential with
    /// a cap.
    pub(crate) fn backoff(&self, retry: u32) -> Duration {
        self.backoff_cap
            .min(self.backoff_base.saturating_mul(1u32 << retry.min(16)))
    }
}

/// Service tuning knobs. Every field that can influence job *output* is
/// deliberately absent — outputs depend only on job specs (fault
/// injection and retry included: recovery is byte-neutral).
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads (`0` = available parallelism). Also the most
    /// chunks a tree job is cut into — plan ranges for the dense tree
    /// engine, trie-order leaf runs for the MPS one (output-neutral: see
    /// [`JobSpec::chunk_trajectories`]).
    pub workers: usize,
    /// Maximum concurrently admitted jobs (queued + running); submission
    /// blocks (or `try_submit` refuses) beyond it. Must be ≥ 1.
    pub queue_capacity: usize,
    /// Route the tree engine when the plan tree's sharing ratio reaches
    /// this fraction (prefix sharing pays for the walk's bookkeeping).
    pub sharing_threshold: f64,
    /// Route the MPS tree engine at/above this qubit count (a dense
    /// statevector of 30 qubits is 16 GiB at f64).
    pub mps_qubit_threshold: usize,
    /// Honest bond ceiling: when a job's own `max_bond` blows its
    /// cumulative truncation budget *because the cap was binding*, the
    /// router retries the probe at this ceiling and routes MPS there
    /// instead of refusing or degrading to a dense engine. Tight caps
    /// are a false economy — the ROADMAP measured χ=192 both slower
    /// (more per-bond truncations) and wrong (28% truncation error)
    /// against χ=256 on the encoded-MSD workload.
    pub mps_bond_ceiling: usize,
    /// Let executors fan out over rayon *inside* a chunk — across
    /// trajectories / subtrees / lane groups, and inside the dense
    /// kernels (per-gate sweeps of ≥ 14-qubit states). Output-neutral
    /// (executors are scheduling-deterministic and kernels key their
    /// summation order on the qubit count, not the thread count). `false`
    /// (the default) keeps each worker strictly single-core, which is
    /// right whenever the pool has enough chunks to fill the machine;
    /// for lone jobs of ≥ 20 qubits, where one gate sweep outweighs a
    /// thread spawn, set it to `true` or run fewer workers.
    pub executor_parallel: bool,
    /// Lane auto-sizing for the batch-major engine (L2 working-set
    /// target and lane bounds). Output-neutral: batch-major results are
    /// bitwise invariant under lane count (pinned by the core suite), so
    /// this only moves the throughput/streaming trade-off.
    pub batch: BatchConfig,
    /// Byte budget for the compile cache (`None` = unbounded). When the
    /// resident artifacts exceed it, least-recently-used entries are
    /// evicted; output-neutral by the same argument as cache warmth —
    /// an evicted artifact is simply recompiled on next use.
    pub cache_budget_bytes: Option<usize>,
    /// Chunk-retry policy (output-neutral).
    pub retry: RetryPolicy,
    /// Deterministic fault injection. `None` defers to the
    /// `PTSBE_FAULTS` environment presets (so the CI fault matrix can
    /// blanket a whole test suite); an explicit `Some` always wins, and
    /// `Some(FaultConfig::default())` pins faults *off* regardless of
    /// the environment.
    pub faults: Option<FaultConfig>,
    /// Telemetry selection (off / counters / spans). `None` defers to
    /// the `PTSBE_TELEMETRY` environment variable; an explicit `Some`
    /// always wins, and `Some(TelemetryConfig::off())` pins it off.
    /// Applied process-wide at [`ShotService::start`] (telemetry is a
    /// process global, like a logger). Output-neutral by construction:
    /// hooks only read clocks and bump atomics.
    pub telemetry: Option<TelemetryConfig>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            queue_capacity: 64,
            sharing_threshold: 0.5,
            mps_qubit_threshold: 30,
            mps_bond_ceiling: ptsbe_tensornet::MpsConfig::EXACT_MAX_BOND,
            executor_parallel: false,
            batch: BatchConfig::default(),
            cache_budget_bytes: None,
            retry: RetryPolicy::default(),
            faults: None,
            telemetry: None,
        }
    }
}

enum Task<T: Scalar> {
    Plan(Arc<JobInner<T>>),
    Chunk {
        job: Arc<JobInner<T>>,
        /// The route generation the chunk was cut under; once the job
        /// has moved on (engine degradation) the chunk is stale.
        generation: u32,
        index: usize,
        /// What the chunk covers, in the engine's own unit (plan
        /// indices; trie-order positions for the MPS tree engine; shot
        /// offsets for the frame engine).
        range: Range<usize>,
        /// Execution-attempt ordinal (bumped when a panic escapes the
        /// task, so a requeued chunk advances through the fault plan
        /// instead of deterministically panicking forever).
        attempt: u32,
    },
}

struct Shared<T: Scalar> {
    cfg: ServiceConfig,
    /// Resolved worker count (`cfg.workers`, or the machine's
    /// parallelism when that is 0).
    n_workers: usize,
    cache: CompileCache<T>,
    queue: Mutex<VecDeque<Task<T>>>,
    queue_cv: Condvar,
    /// Admitted (queued + running) job count, gated by `queue_capacity`.
    active: Mutex<usize>,
    admit_cv: Condvar,
    metrics: ServiceMetrics,
    shutdown: AtomicBool,
    /// Resolved fault plan (config override, else `PTSBE_FAULTS`).
    faults: Option<FaultConfig>,
}

/// The long-running data-collection service (see the crate docs for the
/// architecture). Dropping the service drains the queue gracefully:
/// every admitted job reaches a terminal state before workers exit.
pub struct ShotService<T: Scalar = f64> {
    shared: Arc<Shared<T>>,
    workers: Vec<thread::JoinHandle<()>>,
    next_id: AtomicU64,
}

impl<T: Scalar> ShotService<T> {
    /// Start the worker pool.
    pub fn start(cfg: ServiceConfig) -> Self {
        assert!(cfg.queue_capacity >= 1, "queue capacity must be at least 1");
        let n_workers = if cfg.workers == 0 {
            thread::available_parallelism().map_or(4, |n| n.get())
        } else {
            cfg.workers
        };
        let faults = cfg.faults.clone().or_else(FaultConfig::from_env);
        if faults.as_ref().is_some_and(FaultConfig::active) {
            crate::fault::silence_injected_panics();
        }
        let telemetry = cfg
            .telemetry
            .clone()
            .or_else(TelemetryConfig::from_env)
            .unwrap_or_default();
        ptsbe_telemetry::configure(&telemetry);
        let shared = Arc::new(Shared {
            cache: CompileCache::with_budget(cfg.cache_budget_bytes),
            cfg,
            n_workers,
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            active: Mutex::new(0),
            admit_cv: Condvar::new(),
            metrics: ServiceMetrics::new(),
            shutdown: AtomicBool::new(false),
            faults,
        });
        let workers = (0..n_workers)
            .map(|slot| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("ptsbe-svc-{slot}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn service worker")
            })
            .collect();
        Self {
            shared,
            workers,
            next_id: AtomicU64::new(1),
        }
    }

    /// Submit a job, blocking while the admission queue is full.
    ///
    /// # Errors
    /// [`ServiceError::InvalidJob`] on malformed specs,
    /// [`ServiceError::ShuttingDown`] after shutdown began.
    pub fn submit(
        &self,
        spec: JobSpec,
        sink: Box<dyn RecordSink>,
    ) -> Result<JobHandle<T>, ServiceError> {
        self.admit(spec, sink, true)
    }

    /// Submit without blocking.
    ///
    /// # Errors
    /// [`ServiceError::Saturated`] when the queue is at capacity, plus
    /// everything [`ShotService::submit`] returns.
    pub fn try_submit(
        &self,
        spec: JobSpec,
        sink: Box<dyn RecordSink>,
    ) -> Result<JobHandle<T>, ServiceError> {
        self.admit(spec, sink, false)
    }

    fn admit(
        &self,
        spec: JobSpec,
        sink: Box<dyn RecordSink>,
        block: bool,
    ) -> Result<JobHandle<T>, ServiceError> {
        validate(&spec)?;
        if self.shared.shutdown.load(Ordering::Acquire) {
            return Err(ServiceError::ShuttingDown);
        }
        {
            let mut active = lock_healed(&self.shared.active);
            while *active >= self.shared.cfg.queue_capacity {
                if !block {
                    return Err(ServiceError::Saturated);
                }
                active = self
                    .shared
                    .admit_cv
                    .wait(active)
                    .unwrap_or_else(|e| e.into_inner());
                if self.shared.shutdown.load(Ordering::Acquire) {
                    return Err(ServiceError::ShuttingDown);
                }
            }
            *active += 1;
            self.shared.metrics.note_active(*active);
        }
        // Sink-flake faults wrap the sink here, once, so every write the
        // emitter performs for this job passes through the flake plan.
        let sink = match &self.shared.faults {
            Some(f) if f.sink_flake > 0.0 => {
                Box::new(FaultSink::new(sink, f.clone(), spec.seed)) as Box<dyn RecordSink>
            }
            _ => sink,
        };
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let job = Arc::new(JobInner::new(id, spec, sink));
        self.shared
            .metrics
            .jobs_submitted
            .fetch_add(1, Ordering::Relaxed);
        lock_healed(&self.shared.queue).push_back(Task::Plan(Arc::clone(&job)));
        self.shared.queue_cv.notify_one();
        Ok(JobHandle { inner: job })
    }

    /// Compile/plan cache counters.
    pub fn cache_stats(&self) -> crate::cache::CacheStats {
        self.shared.cache.stats()
    }

    /// Service health snapshot.
    pub fn metrics(&self) -> MetricsSnapshot {
        MetricsSnapshot::from_counters(&self.shared.metrics, self.shared.cache.stats())
    }

    /// Worker count of the pool (stable for the service's lifetime: a
    /// panic that escapes a task is caught in the worker's loop, so no
    /// worker thread dies, even under worker-kill faults).
    pub fn n_workers(&self) -> usize {
        self.shared.n_workers
    }
}

impl<T: Scalar> Drop for ShotService<T> {
    fn drop(&mut self) {
        {
            // Published under the queue lock: a worker reads the flag
            // under it right before parking on `queue_cv`, so a store
            // outside it could land between that read and the park, and
            // the notify below would wake nobody.
            let _queue = lock_healed(&self.shared.queue);
            self.shared.shutdown.store(true, Ordering::Release);
        }
        self.shared.queue_cv.notify_all();
        self.shared.admit_cv.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

fn validate(spec: &JobSpec) -> Result<(), ServiceError> {
    let sites = spec.circuit.sites();
    for (i, t) in spec.plan.trajectories.iter().enumerate() {
        if t.choices.len() != sites.len() {
            return Err(ServiceError::InvalidJob(format!(
                "trajectory {i} assigns {} sites, circuit has {}",
                t.choices.len(),
                sites.len()
            )));
        }
        for (site, &k) in sites.iter().zip(&t.choices) {
            if k >= site.channel.n_ops() {
                return Err(ServiceError::InvalidJob(format!(
                    "trajectory {i} picks branch {k} at site {}, channel '{}' has {}",
                    site.id,
                    site.channel.name(),
                    site.channel.n_ops()
                )));
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Worker side.

/// Pop tasks until shutdown with an empty queue. A panic that escapes a
/// task — a `worker-kill` fault, or an organic one outside `run_chunk`'s
/// retry guard such as a panicking sink — is caught here: the task goes
/// back on the queue with its attempt ordinal bumped (so it advances
/// through the fault plan instead of panicking on the same decision
/// forever) and this thread keeps serving.
fn worker_loop<T: Scalar>(shared: &Arc<Shared<T>>) {
    loop {
        let mut task = {
            let mut q = lock_healed(&shared.queue);
            loop {
                if let Some(t) = q.pop_front() {
                    break t;
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                q = shared.queue_cv.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        if catch_unwind(AssertUnwindSafe(|| run_task(shared, &task))).is_ok() {
            continue;
        }
        if let Task::Chunk { attempt, .. } = &mut task {
            *attempt = attempt.saturating_add(1);
        }
        // Count first: a sibling may pick the requeued task up and
        // finish the job before this thread gets any further, and the
        // job's waiter must already see the count.
        shared
            .metrics
            .workers_respawned
            .fetch_add(1, Ordering::Relaxed);
        lock_healed(&shared.queue).push_back(task);
        shared.queue_cv.notify_one();
    }
}

fn run_task<T: Scalar>(shared: &Arc<Shared<T>>, task: &Task<T>) {
    match task {
        Task::Plan(job) => plan_job(shared, job),
        Task::Chunk {
            job,
            generation,
            index,
            range,
            attempt,
        } => {
            if let Some(f) = &shared.faults {
                if f.kill_worker(job.spec.seed, *index as u64, *attempt) {
                    // A panic *outside* run_chunk's retry guard.
                    crate::fault::raise("worker-kill");
                }
            }
            run_chunk(shared, job, *generation, *index, range, *attempt);
        }
    }
}

fn make_header<T: Scalar>(spec: &JobSpec, exec: &EngineExec<T>) -> DatasetHeader {
    DatasetHeader {
        workload: spec.name.clone(),
        n_qubits: spec.circuit.n_qubits(),
        n_measured: exec.n_measured(),
        backend: format!("{}-f{}", exec.kind().label(), 8 * std::mem::size_of::<T>()),
        seed: spec.seed,
    }
}

/// Compile (through the cache), route, stage the header, split into
/// chunks, and enqueue them.
fn plan_job<T: Scalar>(shared: &Arc<Shared<T>>, job: &Arc<JobInner<T>>) {
    if job.cancelled.load(Ordering::Acquire) {
        job.transition_terminal(JobStatus::Cancelled);
        finalize(shared, job);
        return;
    }
    if job.deadline_exceeded() {
        job.transition_terminal(JobStatus::TimedOut);
        finalize(shared, job);
        return;
    }
    job.set_running();
    // Submission → a worker picking the plan task up.
    stage_span(
        Stage::QueueWait,
        job.id,
        None,
        job.submitted_at,
        job.submitted_at.elapsed(),
    );
    let chunks = match route_and_install(shared, job) {
        Ok(chunks) => chunks,
        Err(msg) => {
            job.fail(msg);
            finalize(shared, job);
            return;
        }
    };
    if chunks.is_empty() {
        settle(shared, job);
        return;
    }
    enqueue_chunks(shared, job, 0, chunks);
}

/// Route the job (compiling through the cache), fold the verdict into
/// the service counters, and install it. The error is the job's failure
/// text.
fn route_and_install<T: Scalar>(
    shared: &Arc<Shared<T>>,
    job: &Arc<JobInner<T>>,
) -> Result<Vec<Range<usize>>, String> {
    let planned = catch_unwind(AssertUnwindSafe(|| {
        // Identity scope so the compile/plan spans recorded inside the
        // cache know which job they belong to.
        let _scope = task_scope(job.id, None);
        let circuit_hash = job.spec.circuit.content_hash();
        spanned(Stage::Route, || {
            route_job(&shared.cache, &shared.cfg, &job.spec, circuit_hash)
        })
    }));
    let routed = match planned {
        Ok(Ok(routed)) => routed,
        Ok(Err(RouteError::Refused(msg))) => {
            shared
                .metrics
                .mps_budget_refusals
                .fetch_add(1, Ordering::Relaxed);
            return Err(msg);
        }
        Ok(Err(RouteError::Invalid(msg))) => return Err(msg),
        Err(_) => return Err("planning panicked".to_string()),
    };
    let decision = &routed.0;
    if let Some(p) = &decision.truncation {
        shared.metrics.note_truncation(p);
    }
    if matches!(decision.reason, RouteReason::TruncationBudgetBlown { .. }) {
        shared
            .metrics
            .mps_probe_reroutes
            .fetch_add(1, Ordering::Relaxed);
    }
    install_route(shared, job, routed)
}

/// Make `routed` the job's engine: count it, install it, stage its
/// delivery (dataset header; merged or chunk-order), and return the
/// chunks it cuts the job into.
fn install_route<T: Scalar>(
    shared: &Arc<Shared<T>>,
    job: &Arc<JobInner<T>>,
    (decision, exec): Routed<T>,
) -> Result<Vec<Range<usize>>, String> {
    shared.metrics.engine_jobs[decision.engine.index()].fetch_add(1, Ordering::Relaxed);
    let header = make_header(&job.spec, &exec);
    let chunks = exec.chunks(&job.spec, &shared.cfg, shared.n_workers);
    let merge_after = exec.merged_delivery().then_some(chunks.len());
    *lock_healed(&job.routed) = Some((decision, Arc::new(exec)));
    match job.emitter() {
        Ok(mut em) => em
            .stage(header, merge_after)
            .map_err(|e| format!("sink begin failed: {e}"))?,
        Err(se) => return Err(se.to_string()),
    }
    Ok(chunks)
}

/// Open the ledger of route `generation`'s cut and queue its chunks.
fn enqueue_chunks<T: Scalar>(
    shared: &Arc<Shared<T>>,
    job: &Arc<JobInner<T>>,
    generation: u32,
    chunks: Vec<Range<usize>>,
) {
    *lock_healed(&job.ledger) = ChunkLedger {
        accounted: vec![false; chunks.len()],
        done: 0,
        trie_edges: vec![0; chunks.len()],
    };
    {
        let mut q = lock_healed(&shared.queue);
        for (index, range) in chunks.into_iter().enumerate() {
            q.push_back(Task::Chunk {
                job: Arc::clone(job),
                generation,
                index,
                range,
                attempt: 0,
            });
        }
    }
    shared.queue_cv.notify_all();
}

fn panic_message(index: usize, payload: Box<dyn std::any::Any + Send>, attempts: u32) -> String {
    let detail = if let Some(f) = payload.downcast_ref::<InjectedFault>() {
        format!(" (injected fault: {})", f.0)
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        format!(": {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!(": {s}")
    } else {
        String::new()
    };
    format!("chunk {index} panicked after {attempts} attempt(s){detail}")
}

fn run_chunk<T: Scalar>(
    shared: &Arc<Shared<T>>,
    job: &Arc<JobInner<T>>,
    generation: u32,
    index: usize,
    range: &Range<usize>,
    first_attempt: u32,
) {
    // Engine first, generation second: when the generation still matches
    // afterwards, the engine read above is that generation's (a
    // replacement is installed only after the bump).
    let exec = job.exec();
    if !job.is_current(generation) {
        return; // a chunk of a superseded route leaves no trace
    }
    let mut drain = job.cancelled.load(Ordering::Acquire) || job.status().is_terminal();
    if !drain && job.deadline_exceeded() {
        // Cooperative deadline enforcement: the first chunk boundary
        // past the expiry flips the job to TimedOut; every later chunk
        // sees the terminal state and drains as a no-op.
        shared
            .metrics
            .chunks_timed_out
            .fetch_add(1, Ordering::Relaxed);
        job.transition_terminal(JobStatus::TimedOut);
        drain = true;
    }
    let mut trie_edges = 0;
    if !drain {
        // Chunk identity scope: executor prep/sample hooks aggregate
        // here, and the sink/backoff spans inherit (job, chunk) ids.
        let _scope = task_scope(job.id, Some(index as u32));
        let seed = job.spec.seed;
        let retry = shared.cfg.retry;
        // Injected fatal engine failure: structural (not a panic), so it
        // skips the retry loop entirely and lands on the degradation
        // path — exactly like a real engine blowing up at runtime.
        let injected_fatal = |exec: &EngineExec<T>| {
            exec.dense_fallback_allowed()
                && shared
                    .faults
                    .as_ref()
                    .is_some_and(|f| f.mps_fatal_chunk(seed, index as u64))
        };
        let injected_delay = |attempt: u32| {
            let delay = shared.faults.as_ref();
            if let Some(d) = delay.and_then(|f| f.chunk_delay(seed, index as u64, attempt)) {
                thread::sleep(d);
            }
        };
        let mut attempt = first_attempt;
        let mut attempts_here = 0u32;
        let outcome: Result<ChunkOutput, String> = match &exec {
            None => Err("internal: chunk scheduled before its engine was installed".to_string()),
            Some(exec) if injected_fatal(exec) => {
                // A delayed chunk blows up late, like an engine that
                // fails mid-run: siblings have started by then.
                injected_delay(attempt);
                Err("injected fatal engine failure".to_string())
            }
            Some(exec) => loop {
                injected_delay(attempt);
                attempts_here += 1;
                let attempt_result = catch_unwind(AssertUnwindSafe(|| {
                    if let Some(f) = &shared.faults {
                        if f.panic_early(seed, index as u64, attempt) {
                            crate::fault::raise("chunk-panic-early");
                        }
                    }
                    let out = exec.run(&job.spec, index, range.clone(), &shared.cfg);
                    if let Some(f) = &shared.faults {
                        // The partial panic: the chunk's records exist, but
                        // the panic discards them before delivery — the
                        // retry must rebuild them bitwise identically.
                        if f.panic_late(seed, index as u64, attempt) {
                            crate::fault::raise("chunk-panic-late");
                        }
                    }
                    out
                }));
                match attempt_result {
                    Ok(out) => break Ok(out),
                    Err(payload) => {
                        if attempts_here <= retry.max_retries {
                            shared.metrics.chunk_retries.fetch_add(1, Ordering::Relaxed);
                            spanned(Stage::RetryBackoff, || {
                                thread::sleep(retry.backoff(attempts_here - 1));
                            });
                            attempt = attempt.saturating_add(1);
                            continue;
                        }
                        break Err(panic_message(index, payload, attempts_here));
                    }
                }
            },
        };
        match outcome {
            Ok(out) => {
                trie_edges = out.trie_edges;
                deliver(shared, job, generation, index, out.records);
            }
            Err(msg) => {
                if let Some(exec) = exec.as_deref().filter(|e| e.dense_fallback_allowed()) {
                    // The job was re-planned onto a fallback engine (or
                    // failed for good) here or by a sibling: this chunk
                    // is superseded — no accounting against the new plan.
                    degrade(shared, job, exec.kind(), generation, msg);
                    return;
                }
                job.fail(msg);
            }
        }
    }
    account_chunk(shared, job, generation, index, trie_edges);
}

/// Push a finished chunk through the job's emitter and fold the
/// delivery into job + service counters.
fn deliver<T: Scalar>(
    shared: &Arc<Shared<T>>,
    job: &Arc<JobInner<T>>,
    generation: u32,
    index: usize,
    records: Vec<TrajectoryRecord>,
) {
    let emitter = job.emitter();
    // Checked with the emitter held: the fallback of a superseded route
    // re-stages the emitter after the bump, so a push that gets past
    // this check lands in state that re-stage then drops.
    if !job.is_current(generation) {
        return;
    }
    for r in &records {
        if let Some(t) = &r.meta.truncation {
            shared.metrics.note_truncation(t);
        }
    }
    let pushed = match emitter {
        Ok(mut em) => spanned(Stage::SinkWrite, || {
            em.push(index, records)
                .map_err(|e| format!("sink write failed: {e}"))
        }),
        Err(se) => Err(se.to_string()),
    };
    match pushed {
        Ok(out) if out.duplicate => {
            // Redundant re-execution of an already-delivered chunk (a
            // panic escaped it between delivery and accounting): nothing
            // was written, nothing to count.
        }
        Ok(out) => {
            job.records_emitted
                .fetch_add(out.records, Ordering::Relaxed);
            job.shots_emitted.fetch_add(out.shots, Ordering::Relaxed);
            shared
                .metrics
                .records_emitted
                .fetch_add(out.records, Ordering::Relaxed);
            shared
                .metrics
                .shots_emitted
                .fetch_add(out.shots, Ordering::Relaxed);
            if out.write_retries > 0 {
                shared
                    .metrics
                    .sink_write_retries
                    .fetch_add(out.write_retries, Ordering::Relaxed);
            }
        }
        Err(msg) => {
            job.fail(msg);
        }
    }
}

/// Graceful engine degradation: a chunk of route `generation` failed
/// for good on engine `from` (the MPS engine — the only one that allows
/// a dense fallback). Exactly one of the route's failing chunks wins
/// [`JobInner::supersede`]; from that moment every sibling is stale, and
/// the winner alone decides the job: it re-plans the job once onto a
/// dense fallback (the route records the failed engine) *if nothing
/// reached the sink yet* — which an MPS job's merged delivery behind a
/// lazy header guarantees while any of its chunks can still fail — and
/// otherwise fails and settles it with `msg`. The fallback is dense, so
/// it gets no fallback of its own.
fn degrade<T: Scalar>(
    shared: &Arc<Shared<T>>,
    job: &Arc<JobInner<T>>,
    from: EngineKind,
    generation: u32,
    msg: String,
) {
    if !job.supersede(generation) {
        return; // a sibling got here first
    }
    let replan = || {
        if !job.emitter().is_ok_and(|em| em.untouched()) {
            return None;
        }
        let routed = catch_unwind(AssertUnwindSafe(|| {
            let circuit_hash = job.spec.circuit.content_hash();
            degrade_route(&shared.cache, &shared.cfg, &job.spec, circuit_hash, from)
        }));
        let chunks = install_route(shared, job, routed.ok()?.ok()?).ok()?;
        (!chunks.is_empty()).then_some(chunks)
    };
    match replan() {
        Some(chunks) => {
            shared
                .metrics
                .engine_fallbacks
                .fetch_add(1, Ordering::Relaxed);
            enqueue_chunks(shared, job, generation + 1, chunks);
        }
        None => {
            job.fail(msg);
            settle(shared, job);
        }
    }
}

/// Exactly-once chunk accounting: the ledger makes redundant
/// re-executions (a panic escaped the task after delivery) count once,
/// ignores chunks of a superseded route, and the chunk that completes it
/// settles the job.
fn account_chunk<T: Scalar>(
    shared: &Arc<Shared<T>>,
    job: &Arc<JobInner<T>>,
    generation: u32,
    index: usize,
    trie_edges: u64,
) {
    {
        let mut ledger = lock_healed(&job.ledger);
        // Checked with the ledger held, for the same reason as in
        // `deliver`: a re-cut replaces the ledger after the bump.
        if !job.is_current(generation) || ledger.accounted.get(index) != Some(&false) {
            return;
        }
        ledger.accounted[index] = true;
        ledger.trie_edges[index] = trie_edges;
        ledger.done += 1;
        if ledger.done != ledger.accounted.len() {
            return;
        }
    }
    settle(shared, job);
}

/// End-of-job settlement, reached once per job: the terminal transition
/// CASes the status — first terminal transition wins — and relies on the
/// emitter's idempotent finish, so the cancel/fail race can neither
/// overwrite a `Failed` verdict nor double-finalize the sink.
fn settle<T: Scalar>(shared: &Arc<Shared<T>>, job: &Arc<JobInner<T>>) {
    if !job.status().is_terminal() {
        if job.cancelled.load(Ordering::Acquire) {
            job.transition_terminal(JobStatus::Cancelled);
        } else {
            let finished = match job.emitter() {
                Ok(mut em) => em.finish().map_err(|e| format!("sink finish failed: {e}")),
                Err(se) => Err(se.to_string()),
            };
            match finished {
                Ok(()) => {
                    job.transition_terminal(JobStatus::Done);
                }
                Err(msg) => {
                    job.fail(msg);
                }
            }
        }
    }
    if job.status() != JobStatus::Done {
        // Flush what was delivered: a cancelled/failed/timed-out dataset
        // is a valid plan-order prefix, so IO errors here do not
        // reclassify the job (and finish is idempotent).
        if let Ok(mut em) = job.emitter() {
            let _ = em.finish();
        }
    }
    finalize(shared, job);
}

/// Terminal bookkeeping shared by every exit path: metrics, the waiter
/// handshake, and the admission slot release.
fn finalize<T: Scalar>(shared: &Arc<Shared<T>>, job: &Arc<JobInner<T>>) {
    *lock_healed(&job.wall) = Some(job.submitted_at.elapsed());
    let counter = match job.status() {
        JobStatus::Done => &shared.metrics.jobs_done,
        JobStatus::Cancelled => &shared.metrics.jobs_cancelled,
        JobStatus::TimedOut => &shared.metrics.jobs_timed_out,
        _ => &shared.metrics.jobs_failed,
    };
    counter.fetch_add(1, Ordering::Relaxed);
    {
        let (lock, cv) = &job.done;
        *lock_healed(lock) = true;
        cv.notify_all();
    }
    {
        let mut active = lock_healed(&shared.active);
        *active = active.saturating_sub(1);
    }
    shared.admit_cv.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A worker reads `shutdown` under the queue lock and then parks on
    /// `queue_cv`; `Drop` must publish the flag under the same lock, or
    /// its notify can fall between that read and the park and the join
    /// waits forever.
    #[test]
    fn shutdown_is_published_under_the_queue_lock() {
        let service: ShotService = ShotService::start(ServiceConfig {
            workers: 1,
            faults: Some(FaultConfig::default()),
            ..ServiceConfig::default()
        });
        let shared = Arc::clone(&service.shared);
        let queue = lock_healed(&shared.queue);
        let dropper = thread::spawn(move || drop(service));
        thread::sleep(Duration::from_millis(50));
        assert!(
            !shared.shutdown.load(Ordering::Acquire),
            "shutdown was published without the queue lock"
        );
        drop(queue);
        dropper.join().unwrap();
        assert!(shared.shutdown.load(Ordering::Acquire));
    }
}
