//! The shot service: worker pool, admission queue, chunk scheduler,
//! and the fault-tolerance layer around them.
//!
//! # Execution model
//!
//! A submitted job first becomes one *plan task*: compile-or-hit the
//! cache, route an engine, stage the dataset header, and split the work
//! into chunks. Chunks then become independent queue tasks any worker
//! may claim; a per-job reorder buffer ([`crate::job::Emitter`]) commits
//! finished chunks to the sink in chunk order. Every trajectory engine
//! keys its Philox streams by absolute plan index, so *where* a plan is
//! cut cannot change the delivered bytes; the frame engine keys streams
//! by chunk ordinal, so its geometry is a pure function of the job spec.
//! Either way the bytes are invariant under scheduling — the property
//! the determinism suite pins across worker counts {1, 2, 4, 8}.
//!
//! Tree jobs are cut too: a dense tree job becomes contiguous plan-index
//! ranges (at most one per worker, see `tree_auto_chunks`), each walked
//! over the sub-trie of its range
//! ([`PtsPlanTree::from_plan_range`](ptsbe_core::PtsPlanTree::from_plan_range)),
//! so the one parallel layer — across trajectories, as in the source
//! paper's multi-device distribution — covers the prefix-sharing engine
//! as well. A range repeats only the shared identity spine of a
//! low-noise trie; MPS tree jobs stay one chunk (their plans fork at the
//! root into a few long chains, so any range would repeat a whole
//! chain).
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
//! - **Worker supervision.** A supervisor thread detects worker-thread
//!   death (a panic escaping the chunk's `catch_unwind`), requeues the
//!   task the dead worker held, and respawns the worker. A chunk that
//!   was already delivered before its worker died is deduplicated by
//!   the emitter and the per-job accounting bitmap.
//! - **Engine degradation.** A chunk that exhausts its retry budget on
//!   the MPS engine re-routes the job once to a dense fallback
//!   (recorded as [`RouteReason::EngineFallback`](crate::router::RouteReason)),
//!   provided nothing reached the sink yet — guaranteed for MPS jobs,
//!   which run as the single chunk `Traj(0..n)` behind a lazily-written
//!   header.
//! - **Deadlines.** [`crate::JobSpec::deadline`] is enforced
//!   cooperatively at chunk boundaries; an expired job transitions
//!   [`JobStatus::TimedOut`] within one chunk of the expiry and its
//!   sink holds a valid plan-order prefix.
//! - **Transient sink writes** are retried inside the emitter (see
//!   [`crate::job::Emitter`]).
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
use crate::fault::{FaultConfig, FaultSink, InjectedFault};
use crate::job::{ChunkSpec, JobHandle, JobInner, JobSpec, JobStatus, ServiceError};
use crate::metrics::{MetricsSnapshot, ServiceMetrics};
use crate::router::{degrade_route, route_job, EngineExec, EngineKind, RouteDecision};
use ptsbe_core::{
    Backend, BatchConfig, BatchMajorExecutor, BatchResult, BatchedExecutor, PtsPlanTree, StatePool,
    TreeExecutor,
};
use ptsbe_dataset::{DatasetHeader, RecordSink, ShotWord, TrajectoryRecord};
use ptsbe_math::Scalar;
use ptsbe_rng::PhiloxRng;
use ptsbe_telemetry::{spanned, stage_span, task_scope, timer, Stage, TelemetryConfig};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::Duration;

/// Lock with poison healing: service-global locks (queue, admission,
/// worker table, in-flight registry) guard state that is consistent at
/// every await point, so a panic between acquire and release cannot
/// leave them torn — healing is safe and keeps one panicking worker
/// from wedging the whole service. Job-*scoped* state with real
/// mid-operation invariants (the emitter) is NOT healed; it surfaces a
/// typed [`ServiceError::Internal`] instead (see
/// [`crate::job::JobInner::emitter`]).
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
    /// plan ranges a dense tree job is cut into (output-neutral: see
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
        index: usize,
        chunk: ChunkSpec,
        /// Execution-attempt ordinal (preserved across a worker death so
        /// requeued chunks advance through the fault plan instead of
        /// deterministically re-dying forever).
        attempt: u32,
    },
}

impl<T: Scalar> Clone for Task<T> {
    fn clone(&self) -> Self {
        match self {
            Task::Plan(job) => Task::Plan(Arc::clone(job)),
            Task::Chunk {
                job,
                index,
                chunk,
                attempt,
            } => Task::Chunk {
                job: Arc::clone(job),
                index: *index,
                chunk: chunk.clone(),
                attempt: *attempt,
            },
        }
    }
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
    /// One slot per worker: the task that worker currently holds. The
    /// supervisor requeues a dead worker's slot so no claimed task is
    /// ever lost.
    in_flight: Mutex<Vec<Option<Task<T>>>>,
}

type WorkerTable = Arc<Mutex<Vec<Option<thread::JoinHandle<()>>>>>;

/// The long-running data-collection service (see the crate docs for the
/// architecture). Dropping the service drains the queue gracefully:
/// every admitted job reaches a terminal state before workers exit.
pub struct ShotService<T: Scalar = f64> {
    shared: Arc<Shared<T>>,
    workers: WorkerTable,
    supervisor: Option<thread::JoinHandle<()>>,
    next_id: AtomicU64,
}

impl<T: Scalar> ShotService<T> {
    /// Start the worker pool (plus its supervisor thread).
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
            in_flight: Mutex::new((0..n_workers).map(|_| None).collect()),
        });
        let workers: WorkerTable = Arc::new(Mutex::new(
            (0..n_workers)
                .map(|slot| Some(spawn_worker(&shared, slot)))
                .collect(),
        ));
        let supervisor = {
            let shared = Arc::clone(&shared);
            let table = Arc::clone(&workers);
            thread::Builder::new()
                .name("ptsbe-svc-supervisor".into())
                .spawn(move || supervisor_loop(shared, table))
                .expect("spawn service supervisor")
        };
        Self {
            shared,
            workers,
            supervisor: Some(supervisor),
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

    /// Worker count the pool maintains (the supervisor respawns dead
    /// workers, so this is stable even under worker-kill faults).
    pub fn n_workers(&self) -> usize {
        self.shared.n_workers
    }
}

impl<T: Scalar> Drop for ShotService<T> {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.queue_cv.notify_all();
        self.shared.admit_cv.notify_all();
        // Supervisor first: after it exits, the worker table is stable.
        if let Some(s) = self.supervisor.take() {
            let _ = s.join();
        }
        let handles: Vec<_> = lock_healed(&self.workers)
            .iter_mut()
            .filter_map(Option::take)
            .collect();
        for h in handles {
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

fn spawn_worker<T: Scalar>(shared: &Arc<Shared<T>>, slot: usize) -> thread::JoinHandle<()> {
    let shared = Arc::clone(shared);
    thread::Builder::new()
        .name(format!("ptsbe-svc-{slot}"))
        .spawn(move || worker_loop(shared, slot))
        .expect("spawn service worker")
}

/// Detect dead workers (a panic that escaped the chunk's
/// `catch_unwind`), requeue whatever task they held, and respawn them —
/// no claimed task is ever lost to a worker death.
fn supervisor_loop<T: Scalar>(shared: Arc<Shared<T>>, table: WorkerTable) {
    while !shared.shutdown.load(Ordering::Acquire) {
        thread::sleep(Duration::from_millis(2));
        let dead: Vec<(usize, thread::JoinHandle<()>)> = {
            let mut t = lock_healed(&table);
            let mut dead = Vec::new();
            for (slot, h) in t.iter_mut().enumerate() {
                if h.as_ref().is_some_and(thread::JoinHandle::is_finished) {
                    dead.push((slot, h.take().expect("checked some")));
                }
            }
            dead
        };
        for (slot, h) in dead {
            let _ = h.join(); // reap (and discard) the panic payload
            if let Some(task) = lock_healed(&shared.in_flight)[slot].take() {
                lock_healed(&shared.queue).push_back(task);
                shared.queue_cv.notify_one();
            }
            lock_healed(&table)[slot] = Some(spawn_worker(&shared, slot));
            shared
                .metrics
                .workers_respawned
                .fetch_add(1, Ordering::Relaxed);
        }
    }
}

fn worker_loop<T: Scalar>(shared: Arc<Shared<T>>, slot: usize) {
    loop {
        let task = {
            let mut q = lock_healed(&shared.queue);
            loop {
                if let Some(t) = q.pop_front() {
                    break Some(t);
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    break None;
                }
                q = shared.queue_cv.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        let Some(task) = task else { return };
        // Register the claim so the supervisor can requeue it if this
        // thread dies before clearing the slot.
        lock_healed(&shared.in_flight)[slot] = Some(task.clone());
        if let (
            Some(f),
            Task::Chunk {
                job,
                index,
                attempt,
                ..
            },
        ) = (&shared.faults, &task)
        {
            if f.kill_worker(job.spec.seed, *index as u64, *attempt) {
                // Bump the in-flight attempt first, so the requeued task
                // advances through the fault plan instead of re-dying on
                // the same decision forever.
                if let Some(Task::Chunk { attempt, .. }) =
                    lock_healed(&shared.in_flight)[slot].as_mut()
                {
                    *attempt += 1;
                }
                // A panic *outside* run_chunk's catch_unwind: this
                // worker thread dies here; the supervisor requeues the
                // bumped task and respawns the worker.
                crate::fault::raise("worker-kill");
            }
        }
        match task {
            Task::Plan(job) => plan_job(&shared, job),
            Task::Chunk {
                job,
                index,
                chunk,
                attempt,
            } => run_chunk(&shared, job, index, chunk, attempt),
        }
        lock_healed(&shared.in_flight)[slot] = None;
    }
}

fn make_header<T: Scalar>(spec: &JobSpec, engine: EngineKind, n_measured: usize) -> DatasetHeader {
    DatasetHeader {
        workload: spec.name.clone(),
        n_qubits: spec.circuit.n_qubits(),
        n_measured,
        backend: format!("{}-f{}", engine.label(), 8 * std::mem::size_of::<T>()),
        seed: spec.seed,
    }
}

/// Compile (through the cache), route, stage the header, split into
/// chunks, and enqueue them.
fn plan_job<T: Scalar>(shared: &Arc<Shared<T>>, job: Arc<JobInner<T>>) {
    if job.cancelled.load(Ordering::Acquire) {
        job.transition_terminal(JobStatus::Cancelled);
        finalize(shared, &job);
        return;
    }
    if job.deadline_exceeded() {
        job.transition_terminal(JobStatus::TimedOut);
        finalize(shared, &job);
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
    let planned = catch_unwind(AssertUnwindSafe(|| {
        // Identity scope so the compile/plan spans recorded inside the
        // cache know which job they belong to.
        let _scope = task_scope(job.id, None);
        let circuit_hash = job.spec.circuit.content_hash();
        spanned(Stage::Route, || {
            route_job(&shared.cache, &shared.cfg, &job.spec, circuit_hash)
        })
    }));
    let (decision, exec) = match planned {
        Ok(Ok(pair)) => pair,
        Ok(Err(msg)) => {
            if msg.starts_with(crate::router::MPS_REFUSAL_PREFIX) {
                shared
                    .metrics
                    .mps_budget_refusals
                    .fetch_add(1, Ordering::Relaxed);
            }
            job.fail(msg);
            finalize(shared, &job);
            return;
        }
        Err(_) => {
            job.fail("planning panicked".to_string());
            finalize(shared, &job);
            return;
        }
    };
    shared.metrics.engine_jobs[decision.engine.index()].fetch_add(1, Ordering::Relaxed);
    if let Some(p) = &decision.truncation {
        shared.metrics.note_truncation(p);
    }
    if matches!(
        decision.reason,
        crate::router::RouteReason::TruncationBudgetBlown { .. }
    ) {
        shared
            .metrics
            .mps_probe_reroutes
            .fetch_add(1, Ordering::Relaxed);
    }
    let header = make_header::<T>(&job.spec, decision.engine, exec.n_measured());
    let chunks = split_chunks(&job.spec, &decision, &exec, shared.n_workers);
    install_route(&job, decision, exec);
    let staged = match job.emitter() {
        Ok(mut em) => em
            .stage_header(header)
            .map_err(|e| format!("sink begin failed: {e}")),
        Err(se) => Err(se.to_string()),
    };
    if let Err(msg) = staged {
        job.fail(msg);
        finalize(shared, &job);
        return;
    }
    if chunks.is_empty() {
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
        finalize(shared, &job);
        return;
    }
    enqueue_chunks(shared, &job, chunks);
}

fn install_route<T: Scalar>(job: &Arc<JobInner<T>>, decision: RouteDecision, exec: EngineExec<T>) {
    *lock_healed(&job.route) = Some(decision);
    *lock_healed(&job.exec) = Some(Arc::new(exec));
}

fn enqueue_chunks<T: Scalar>(
    shared: &Arc<Shared<T>>,
    job: &Arc<JobInner<T>>,
    chunks: Vec<ChunkSpec>,
) {
    *lock_healed(&job.chunk_accounted) = vec![false; chunks.len()];
    job.chunks_done.store(0, Ordering::Release);
    job.chunks_total.store(chunks.len(), Ordering::Release);
    {
        let mut q = lock_healed(&shared.queue);
        for (index, chunk) in chunks.into_iter().enumerate() {
            q.push_back(Task::Chunk {
                job: Arc::clone(job),
                index,
                chunk,
                attempt: 0,
            });
        }
    }
    shared.queue_cv.notify_all();
}

/// Contiguous plan-index ranges of `per` trajectories covering `0..n`.
fn traj_ranges(n: usize, per: usize) -> Vec<ChunkSpec> {
    let per = per.max(1);
    (0..n)
        .step_by(per)
        .map(|s| ChunkSpec::Traj(s..(s + per).min(n)))
        .collect()
}

/// A split tree job may spend at most 1/this of its edges re-walking
/// the shared spine (each extra range repeats up to one root-to-leaf
/// path of `n_sites` edges).
const TREE_SPINE_BUDGET_DIV: usize = 4;
/// Amplitude updates (`edges · 2^n`) a range must keep to be worth a
/// queue task: 2^19 is about 2 ms of segment sweeps.
const TREE_MIN_CHUNK_SWEEP: u128 = 1 << 19;

/// How many plan ranges a dense tree job is cut into when the spec
/// leaves it to the service: never more than there are workers (so a
/// one-worker service repeats nothing), never so many that the repeated
/// spine exceeds a quarter of the trie, never chunks too small to pay
/// for their scheduling.
fn tree_auto_chunks(tree: &PtsPlanTree, n_qubits: usize, workers: usize) -> usize {
    let edges = tree.n_edges();
    let by_spine = 1 + edges / (TREE_SPINE_BUDGET_DIV * tree.n_sites()).max(1);
    let by_work = ((edges as u128) << n_qubits.min(64)) / TREE_MIN_CHUNK_SWEEP;
    (workers.min(by_spine) as u128).min(by_work).max(1) as usize
}

/// Chunk geometry. Frame chunks are a pure function of the spec (their
/// Philox streams are keyed by chunk ordinal); trajectory engines key
/// streams by absolute plan index, so their cuts are free to follow the
/// route decision and — for the dense tree engine — the worker count
/// without touching the delivered bytes.
fn split_chunks<T: Scalar>(
    spec: &JobSpec,
    decision: &RouteDecision,
    exec: &EngineExec<T>,
    workers: usize,
) -> Vec<ChunkSpec> {
    let n = spec.plan.trajectories.len();
    match exec {
        EngineExec::Frame(_) => {
            let total = spec.plan.total_shots();
            if total == 0 {
                return Vec::new();
            }
            let per = if spec.frame_chunk_shots == 0 {
                1 << 16
            } else {
                spec.frame_chunk_shots
            };
            let mut chunks = Vec::with_capacity(total.div_ceil(per));
            let mut start = 0usize;
            while start < total {
                let shots = per.min(total - start);
                chunks.push(ChunkSpec::Shots {
                    stream: chunks.len() as u64,
                    shots,
                });
                start += shots;
            }
            chunks
        }
        // One plan range per worker, each walked over its own sub-trie:
        // a range repeats only the trie's shared spine.
        EngineExec::Tree { tree, .. } => {
            let per = if spec.chunk_trajectories == 0 {
                n.div_ceil(tree_auto_chunks(tree, spec.circuit.n_qubits(), workers))
            } else {
                spec.chunk_trajectories
            };
            traj_ranges(n, per)
        }
        // MPS plans fork at the root into a few long chains, so any
        // range would repeat a whole chain: one chunk (which is also what
        // keeps `try_degrade`'s untouched-sink precondition).
        EngineExec::MpsTree { .. } => traj_ranges(n, n),
        EngineExec::BatchMajor(_) | EngineExec::Flat(_) => {
            // The decision's geometry already folded lanes, L2 target
            // and the spec override together (router::batch_geometry).
            let per = match decision.geometry {
                Some(g) => g.trajs_per_chunk,
                None if spec.chunk_trajectories == 0 => 64,
                None => spec.chunk_trajectories,
            };
            traj_ranges(n, per)
        }
    }
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
    job: Arc<JobInner<T>>,
    index: usize,
    chunk: ChunkSpec,
    first_attempt: u32,
) {
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
    if !drain {
        // Chunk identity scope: executor prep/sample hooks aggregate
        // here, and the sink/backoff spans inherit (job, chunk) ids.
        let _scope = task_scope(job.id, Some(index as u32));
        let seed = job.spec.seed;
        let retry = shared.cfg.retry;
        // Injected fatal engine failure: structural (not a panic), so it
        // skips the retry loop entirely and lands on the degradation
        // path — exactly like a real engine blowing up at runtime.
        let injected_fatal = shared.faults.as_ref().is_some_and(|f| {
            f.mps_fatal_chunk(seed, index as u64)
                && lock_healed(&job.route).as_ref().map(|r| r.engine) == Some(EngineKind::MpsTree)
        });
        let mut attempt = first_attempt;
        let mut attempts_here = 0u32;
        let outcome: Result<Vec<TrajectoryRecord>, String> = if injected_fatal {
            Err("injected fatal engine failure".to_string())
        } else {
            loop {
                if let Some(f) = &shared.faults {
                    if let Some(d) = f.chunk_delay(seed, index as u64, attempt) {
                        thread::sleep(d);
                    }
                }
                attempts_here += 1;
                let attempt_result = catch_unwind(AssertUnwindSafe(|| {
                    if let Some(f) = &shared.faults {
                        if f.panic_early(seed, index as u64, attempt) {
                            crate::fault::raise("chunk-panic-early");
                        }
                    }
                    let records = execute_chunk(shared, &job, &chunk)?;
                    if let Some(f) = &shared.faults {
                        // The partial panic: the chunk's records exist, but
                        // the panic discards them before delivery — the
                        // retry must rebuild them bitwise identically.
                        if f.panic_late(seed, index as u64, attempt) {
                            crate::fault::raise("chunk-panic-late");
                        }
                    }
                    Ok(records)
                }));
                match attempt_result {
                    Ok(Ok(records)) => break Ok(records),
                    // Structural errors (engine/chunk mismatch) are not
                    // transient; retrying cannot help.
                    Ok(Err(msg)) => break Err(msg),
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
            }
        };
        match outcome {
            Ok(records) => deliver(shared, &job, index, records),
            Err(msg) => {
                if try_degrade(shared, &job) {
                    // The job was re-planned onto a fallback engine and
                    // fresh chunks were queued; this chunk is
                    // superseded — no accounting against the new plan.
                    return;
                }
                job.fail(msg);
            }
        }
    }
    account_chunk(shared, &job, index);
}

/// Push a finished chunk through the reorder buffer and fold the
/// delivery into job + service counters.
fn deliver<T: Scalar>(
    shared: &Arc<Shared<T>>,
    job: &Arc<JobInner<T>>,
    index: usize,
    records: Vec<TrajectoryRecord>,
) {
    for r in &records {
        if let Some(t) = &r.meta.truncation {
            shared.metrics.note_truncation(t);
        }
    }
    let pushed = match job.emitter() {
        Ok(mut em) => spanned(Stage::SinkWrite, || {
            em.push(index, records)
                .map_err(|e| format!("sink write failed: {e}"))
        }),
        Err(se) => Err(se.to_string()),
    };
    match pushed {
        Ok(out) if out.duplicate => {
            // Redundant re-execution of an already-delivered chunk (a
            // worker died between delivery and accounting): nothing was
            // written, nothing to count.
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

/// Graceful engine degradation: when a chunk exhausts its retry budget
/// on the MPS engine *before anything reached the sink*, re-plan the
/// job once onto a dense fallback (the route records the failed
/// engine). MPS jobs run as the single chunk `Traj(0..n)` behind a lazy
/// header, so the untouched-sink precondition holds exactly when this
/// path is reachable.
fn try_degrade<T: Scalar>(shared: &Arc<Shared<T>>, job: &Arc<JobInner<T>>) -> bool {
    let from = match lock_healed(&job.route).as_ref().map(|r| r.engine) {
        Some(EngineKind::MpsTree) => EngineKind::MpsTree,
        _ => return false,
    };
    if job.degraded.swap(true, Ordering::AcqRel) {
        return false; // single-shot: the fallback gets no fallback
    }
    match job.emitter() {
        Ok(em) if em.untouched() => {}
        _ => return false,
    }
    let planned = catch_unwind(AssertUnwindSafe(|| {
        let circuit_hash = job.spec.circuit.content_hash();
        degrade_route(&shared.cache, &shared.cfg, &job.spec, circuit_hash, from)
    }));
    let (decision, exec) = match planned {
        Ok(Ok(pair)) => pair,
        _ => return false,
    };
    let header = make_header::<T>(&job.spec, decision.engine, exec.n_measured());
    let chunks = split_chunks(&job.spec, &decision, &exec, shared.n_workers);
    if chunks.is_empty() {
        return false;
    }
    shared
        .metrics
        .engine_fallbacks
        .fetch_add(1, Ordering::Relaxed);
    shared.metrics.engine_jobs[decision.engine.index()].fetch_add(1, Ordering::Relaxed);
    install_route(job, decision, exec);
    match job.emitter() {
        Ok(mut em) => {
            if em.stage_header(header).is_err() {
                return false;
            }
        }
        Err(_) => return false,
    }
    enqueue_chunks(shared, job, chunks);
    true
}

/// Exactly-once chunk accounting and end-of-job settlement. The bitmap
/// makes redundant re-executions (worker died between delivery and slot
/// clear) count once; the terminal settlement CASes the status — first
/// terminal transition wins — and relies on the emitter's idempotent
/// finish, so the cancel/fail race can neither overwrite a `Failed`
/// verdict nor double-finalize the sink.
fn account_chunk<T: Scalar>(shared: &Arc<Shared<T>>, job: &Arc<JobInner<T>>, index: usize) {
    {
        let mut acc = lock_healed(&job.chunk_accounted);
        if index >= acc.len() || acc[index] {
            return;
        }
        acc[index] = true;
    }
    let done = job.chunks_done.fetch_add(1, Ordering::AcqRel) + 1;
    if done != job.chunks_total.load(Ordering::Acquire) {
        return;
    }
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

/// Execute one chunk to records. Every stream key is absolute (plan
/// index or chunk ordinal), so results are independent of which worker
/// runs what when.
fn execute_chunk<T: Scalar>(
    shared: &Arc<Shared<T>>,
    job: &Arc<JobInner<T>>,
    chunk: &ChunkSpec,
) -> Result<Vec<TrajectoryRecord>, String> {
    let spec = &job.spec;
    let exec = lock_healed(&job.exec)
        .clone()
        .ok_or_else(|| "internal: chunk scheduled before its engine was installed".to_string())?;
    let parallel = shared.cfg.executor_parallel;
    let records = match (exec.as_ref(), chunk) {
        (EngineExec::Frame(entry), ChunkSpec::Shots { stream, shots }) => {
            let mut rng = PhiloxRng::for_trajectory(spec.seed, *stream);
            let result = {
                // Frame sampling has no prep phase; the whole draw is
                // the sample stage.
                let _t = timer(Stage::Sample);
                entry.sampler.sample(*shots, &mut rng)
            };
            // One record per shot block: frame sampling draws noise per
            // shot, so there is no per-trajectory provenance to attach —
            // the Stim trade, documented on the router. Building the
            // record feeds the sink, so it counts as the sink stage.
            spanned(Stage::SinkWrite, || {
                vec![TrajectoryRecord {
                    meta: ptsbe_core::assignment::TrajectoryMeta {
                        traj_id: *stream as usize,
                        nominal_prob: 1.0,
                        realized_prob: 1.0,
                        choices: Vec::new(),
                        errors: Vec::new(),
                        truncation: None,
                    },
                    shots: ShotWord::wrap(result.shots),
                }]
            })
        }
        (EngineExec::Flat(entry), ChunkSpec::Traj(range)) => {
            let ex = BatchedExecutor {
                seed: spec.seed,
                parallel,
            };
            to_records(ex.execute_slice(&entry.backend, &spec.circuit, &spec.plan, range.clone()))
        }
        (EngineExec::BatchMajor(entry), ChunkSpec::Traj(range)) => {
            let ex = BatchMajorExecutor {
                seed: spec.seed,
                parallel,
                lanes: 0,
                cfg: shared.cfg.batch,
            };
            to_records(ex.execute_slice(&entry.backend, &spec.circuit, &spec.plan, range.clone()))
        }
        (EngineExec::Tree { entry, tree }, ChunkSpec::Traj(range)) => {
            walk_range(spec, parallel, &entry.backend, &entry.pool, tree, range)
        }
        (EngineExec::MpsTree { entry, tree }, ChunkSpec::Traj(range)) => {
            walk_range(spec, parallel, &entry.backend, &entry.pool, tree, range)
        }
        _ => {
            return Err("internal: chunk shape does not match the routed engine".to_string());
        }
    };
    Ok(records)
}

/// One tree chunk: walk `plan.trajectories[range]` over its prefix trie
/// — the cached whole-plan trie when the range is the whole plan, else
/// the range's own sub-trie, built here (a fraction of a millisecond
/// against a chunk of tens) and timed as this chunk's `Stage::Plan`.
fn walk_range<B: Backend>(
    spec: &JobSpec,
    parallel: bool,
    backend: &B,
    pool: &StatePool<B::State>,
    whole: &PtsPlanTree,
    range: &std::ops::Range<usize>,
) -> Vec<TrajectoryRecord> {
    let sub;
    let tree = if range.len() == whole.n_trajectories() {
        whole
    } else {
        sub = spanned(Stage::Plan, || {
            PtsPlanTree::from_plan_range(&spec.plan, range.clone())
        });
        &sub
    };
    let ex = TreeExecutor {
        seed: spec.seed,
        parallel,
    };
    to_records(ex.execute_tree_pooled(backend, &spec.circuit, &spec.plan, tree, pool))
}

fn to_records(batch: BatchResult) -> Vec<TrajectoryRecord> {
    // Record building counts as the sink stage: it exists only to feed
    // the sink. Each trajectory's shot buffer is moved, not copied — a
    // bulk job's records are the executor's own allocations.
    spanned(Stage::SinkWrite, || {
        batch
            .trajectories
            .into_iter()
            .map(TrajectoryRecord::from)
            .collect()
    })
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
    use ptsbe_core::assignment::TrajectoryMeta;
    use ptsbe_core::be::TrajectoryResult;

    /// The memory shape of a bulk job (`sv-sample`: 2 M shots in four
    /// records): a record's shot buffer is the executor's allocation,
    /// not a copy of it.
    #[test]
    fn records_take_over_the_result_shot_buffers() {
        let batch = BatchResult {
            trajectories: (0..3)
                .map(|traj_id| TrajectoryResult {
                    meta: TrajectoryMeta {
                        traj_id,
                        nominal_prob: 1.0,
                        realized_prob: 1.0,
                        choices: vec![],
                        errors: vec![],
                        truncation: None,
                    },
                    shots: vec![traj_id as u128; 4096],
                })
                .collect(),
        };
        let before: Vec<usize> = batch
            .trajectories
            .iter()
            .map(|t| t.shots.as_ptr() as usize)
            .collect();
        let records = to_records(batch);
        let after: Vec<usize> = records.iter().map(|r| r.shots.as_ptr() as usize).collect();
        assert_eq!(after, before);
        assert_eq!(records[2].shots[4095], ShotWord(2));
    }
}
