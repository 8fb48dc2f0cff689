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
//! A low-sharing dense job (labelled batch-major) runs the same trie
//! walk, over the sub-trie of each plan range, but keeps the cut its
//! lane sweep had: a multiple of one equal share per worker, so a lone
//! job of a few heavy trajectories fills the pool too and its first
//! records stream early; the dense cuts share one floor of work per
//! chunk.
//!
//! A dense record's shots are one buffer per trajectory, 8 MB at 500 k
//! shots. Once the emitter has written it, delivery hands the buffer
//! back to the backend that filled it
//! ([`SvBackend::recycle_shots`](ptsbe_core::SvBackend::recycle_shots)),
//! outside the emitter lock, and the next counted draw fills memory that
//! is already faulted in. A cached backend keeps at most one delivered
//! chunk's records per worker parked after its jobs end. Frame and MPS
//! records are freed.
//!
//! # Fault tolerance
//!
//! Because chunks are pure functions of (spec, chunk index) and the
//! emitter delivers exactly-once, every recovery action below is
//! output-neutral — a faulted run of a valid job produces dataset bytes
//! identical to the fault-free run:
//!
//! - **Chunk retry.** Every task a worker pops runs under one
//!   `catch_unwind`, the only recovery path for a chunk attempt: an
//!   injected or engine panic, a `worker-kill` fault and a panicking
//!   sink all unwind to it. The worker keeps serving and requeues the
//!   chunk at the front of the queue with its attempt ordinal bumped, up
//!   to 3 times, after a backoff from 1 ms doubling to a 100 ms cap; the
//!   retry re-executes bitwise identically. A chunk that was already
//!   delivered before the panic is deduplicated by the emitter and the
//!   per-job ledger.
//! - **Fatal chunk failures.** A chunk that exhausts its retry budget,
//!   or whose engine fails structurally, fails the job with the chunk's
//!   message on every engine. There is no engine to fall back to: a job
//!   is routed to MPS only when no dense state fits. Sibling chunks
//!   drain as no-ops (or finish what they started), and the chunk that
//!   fills the ledger settles the job. An MPS job's held chunks never
//!   reach the sink, so its shard is header-only.
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
//! and the job terminates `Cancelled`. A job's status, cancel flag,
//! error and settlement live under one lifecycle lock, and the first
//! terminal transition wins, so the cancel/fail race cannot overwrite a
//! `Failed` verdict or finalize a sink twice.

use crate::cache::CompileCache;
use crate::engine::{EngineExec, EngineKind};
use crate::fault::{FaultConfig, FaultSink, InjectedFault};
use crate::job::{ChunkLedger, JobHandle, JobInner, JobSpec, JobStatus, ServiceError};
use crate::lock_healed;
use crate::metrics::{MetricsSnapshot, ServiceMetrics};
use crate::router::{route_job, RouteError};
use ptsbe_dataset::{DatasetHeader, RecordSink, ShotWord, TrajectoryRecord};
use ptsbe_math::Scalar;
use ptsbe_telemetry::{spanned, stage_span, task_scope, Stage, TelemetryConfig};
use std::any::Any;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

/// Retries of a panicking chunk after its first attempt. Retries are
/// output-neutral (chunks are pure functions of the spec); every
/// `PTSBE_FAULTS` preset, alone or stacked, stops panicking and killing
/// within this limit.
pub(crate) const CHUNK_MAX_RETRIES: u32 = 3;

/// Backoff before retrying a chunk whose attempt `retry` (0-based)
/// panicked: 1 ms, doubling per retry, capped at 100 ms.
fn retry_backoff(retry: u32) -> Duration {
    Duration::from_millis(100).min(Duration::from_millis(1).saturating_mul(1u32 << retry.min(16)))
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
    /// Honest bond ceiling: when a job's own `max_bond` blows its
    /// cumulative truncation budget *because the cap was binding*, the
    /// router retries the probe at this ceiling and routes MPS there
    /// instead of refusing the job. Tight caps are a false economy — the
    /// ROADMAP measured χ=192 both slower (more per-bond truncations)
    /// and wrong (28% truncation error) against χ=256 on the encoded-MSD
    /// workload.
    pub mps_bond_ceiling: usize,
    /// Let executors fan out over rayon *inside* a chunk — across
    /// trajectories or subtrees, and inside the dense
    /// kernels (per-gate sweeps of ≥ 14-qubit states). Output-neutral
    /// (executors are scheduling-deterministic and kernels key their
    /// summation order on the qubit count, not the thread count). `false`
    /// (the default) keeps each worker strictly single-core, which is
    /// right whenever the pool has enough chunks to fill the machine;
    /// for lone jobs of ≥ 20 qubits, where one gate sweep outweighs a
    /// thread spawn, set it to `true` or run fewer workers.
    pub executor_parallel: bool,
    /// Byte budget for the compile cache (`None` = unbounded). When the
    /// resident artifacts exceed it, least-recently-used entries are
    /// evicted; output-neutral by the same argument as cache warmth —
    /// an evicted artifact is simply recompiled on next use.
    pub cache_budget_bytes: Option<usize>,
    /// Deterministic fault injection. `None` defers to the
    /// `PTSBE_FAULTS` environment presets (so the CI fault matrix can
    /// blanket a whole test suite); an explicit `Some` always wins, and
    /// `Some(FaultConfig::default())` pins faults *off* regardless of
    /// the environment.
    pub faults: Option<FaultConfig>,
    /// Telemetry selection (off / spans). `None` defers to the
    /// `PTSBE_TELEMETRY` environment variable; an explicit `Some`
    /// always wins, and `Some(TelemetryConfig::off())` pins it off.
    /// Applied process-wide at [`ShotService::start`]: telemetry is a
    /// process global, like a logger, so the last service started sets
    /// the mode for every service in the process, those already running
    /// included. Output-neutral by construction: hooks only read clocks
    /// and bump atomics.
    pub telemetry: Option<TelemetryConfig>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            queue_capacity: 64,
            mps_bond_ceiling: ptsbe_tensornet::MpsConfig::EXACT_MAX_BOND,
            executor_parallel: false,
            cache_budget_bytes: None,
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
        /// What the chunk covers, in the engine's own unit (plan
        /// indices; trie-order positions for the MPS tree engine; shot
        /// offsets for the frame engine).
        range: Range<usize>,
        /// Execution-attempt ordinal: every fault decision is keyed on
        /// it, and each panicked attempt requeues the chunk with it
        /// bumped by one, so a retry advances through the fault plan and
        /// the budget ([`CHUNK_MAX_RETRIES`]) bounds how often.
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
    /// panicking task is caught in the worker's loop, so no worker
    /// thread dies, even under worker-kill faults).
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

/// Pop tasks until shutdown with an empty queue. Every task runs under
/// `catch_unwind`, the one recovery path for a panicking chunk attempt
/// (see [`recover`]), and this thread keeps serving either way.
fn worker_loop<T: Scalar>(shared: &Arc<Shared<T>>) {
    loop {
        let task = {
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
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| run_task(shared, &task))) {
            recover(shared, task, payload);
        }
    }
}

/// The one recovery path for a panicked task. A chunk within its budget
/// is counted first (a sibling may finish the job before this thread
/// gets further, and the waiter must see the count), backed off, and
/// requeued at the front with its attempt bumped; past its budget it
/// fails the job and is accounted, unless the ledger already holds it.
/// A plan task that panicked past `route_and_install`'s catch fails its
/// job.
fn recover<T: Scalar>(shared: &Arc<Shared<T>>, mut task: Task<T>, payload: Box<dyn Any + Send>) {
    match &mut task {
        Task::Plan(job) => {
            job.fail("planning panicked".to_string());
            finalize(shared, job);
        }
        Task::Chunk {
            job,
            index,
            attempt,
            ..
        } => {
            if *attempt < CHUNK_MAX_RETRIES {
                shared.metrics.chunk_retries.fetch_add(1, Ordering::Relaxed);
                let _scope = task_scope(job.id, Some(*index as u32));
                spanned(Stage::RetryBackoff, || {
                    thread::sleep(retry_backoff(*attempt))
                });
                *attempt += 1;
                lock_healed(&shared.queue).push_front(task);
                shared.queue_cv.notify_one();
            } else if lock_healed(&job.ledger).accounted.get(*index) == Some(&false) {
                job.fail(panic_message(*index, payload, *attempt + 1));
                account_chunk(shared, job, *index, 0);
            }
        }
    }
}

fn run_task<T: Scalar>(shared: &Arc<Shared<T>>, task: &Task<T>) {
    match task {
        Task::Plan(job) => plan_job(shared, job),
        Task::Chunk {
            job,
            index,
            range,
            attempt,
        } => run_chunk(shared, job, *index, range, *attempt),
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
    if job.lifecycle().cancelled {
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
    enqueue_chunks(shared, job, chunks);
}

/// Route the job (compiling through the cache) and make the verdict its
/// engine: count it, install it, stage its delivery (dataset header;
/// merged or chunk-order), and return the chunks it cuts the job into.
/// The error is the job's failure text.
fn route_and_install<T: Scalar>(
    shared: &Arc<Shared<T>>,
    job: &Arc<JobInner<T>>,
) -> Result<Vec<Range<usize>>, String> {
    let planned = catch_unwind(AssertUnwindSafe(|| {
        // Identity scope so the compile/plan spans recorded inside the
        // cache know which job they belong to.
        let _scope = task_scope(job.id, None);
        spanned(Stage::Route, || {
            let circuit_hash = job.spec.circuit.content_hash();
            route_job(
                &shared.cache,
                &shared.cfg,
                &job.spec,
                circuit_hash,
                shared.n_workers,
            )
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
    let (decision, exec) = job.routed.get_or_init(|| routed);
    if let Some(p) = &decision.truncation {
        shared.metrics.note_truncation(p);
    }
    shared.metrics.engine_jobs[decision.engine.index()].fetch_add(1, Ordering::Relaxed);
    let chunks = exec.chunks(&job.spec, shared.n_workers);
    let merge_after = exec.merged_delivery().then_some(chunks.len());
    job.emitter()
        .map_err(|se| se.to_string())?
        .stage(make_header(&job.spec, exec), merge_after);
    Ok(chunks)
}

/// Open the ledger of the job's cut and queue its chunks.
fn enqueue_chunks<T: Scalar>(
    shared: &Arc<Shared<T>>,
    job: &Arc<JobInner<T>>,
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

/// One attempt at chunk `index`, straight through: a panic anywhere in
/// it — an injected fault, the engine, the sink — unwinds to the worker
/// loop, which retries the chunk or fails the job (see [`recover`]).
fn run_chunk<T: Scalar>(
    shared: &Arc<Shared<T>>,
    job: &Arc<JobInner<T>>,
    index: usize,
    range: &Range<usize>,
    attempt: u32,
) {
    let faults = shared.faults.as_ref();
    let (seed, chunk) = (job.spec.seed, index as u64);
    if faults.is_some_and(|f| f.kill_worker(seed, chunk, attempt)) {
        crate::fault::raise("worker-kill");
    }
    let mut drain = {
        let life = job.lifecycle();
        life.cancelled || life.status.is_terminal()
    };
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
        // here, and the sink spans inherit (job, chunk) ids.
        let _scope = task_scope(job.id, Some(index as u32));
        if let Some(d) = faults.and_then(|f| f.chunk_delay(seed, chunk, attempt)) {
            thread::sleep(d);
        }
        match job.exec() {
            None => {
                job.fail("internal: chunk scheduled before its engine was installed".to_string());
            }
            // Injected fatal engine failure: structural (not a panic), so
            // it is not retried and fails the job — exactly like a real
            // engine blowing up at runtime. A delayed chunk blows up
            // late, like an engine that fails mid-run: siblings have
            // started by then.
            Some(exec)
                if exec.kind() == EngineKind::MpsTree
                    && faults.is_some_and(|f| f.mps_fatal_chunk(seed, chunk)) =>
            {
                job.fail("injected fatal engine failure".to_string());
            }
            Some(exec) => {
                if faults.is_some_and(|f| f.panic_early(seed, chunk, attempt)) {
                    crate::fault::raise("chunk-panic-early");
                }
                let out = exec.run(&job.spec, index, range.clone(), &shared.cfg);
                // The partial panic: the chunk's records exist, but the
                // panic discards them before delivery — the retry must
                // rebuild them bitwise identically.
                if faults.is_some_and(|f| f.panic_late(seed, chunk, attempt)) {
                    crate::fault::raise("chunk-panic-late");
                }
                trie_edges = out.trie_edges;
                deliver(shared, job, index, out.records);
            }
        }
    }
    account_chunk(shared, job, index, trie_edges);
}

/// Push a finished chunk through the job's emitter and fold the
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
    // One chunk's records per worker is all the next draws can take back.
    let keep = shared.n_workers * records.len();
    let mut pushed = match job.emitter() {
        Ok(mut em) => spanned(Stage::SinkWrite, || {
            em.push(index, records)
                .map_err(|e| format!("sink write failed: {e}"))
        }),
        Err(se) => Err(se.to_string()),
    };
    // After the emitter lock: written dense records' buffers go back to
    // the backend that filled them, up to `keep` parked; the rest are
    // freed here.
    let written = pushed
        .as_mut()
        .map(|out| std::mem::take(&mut out.written))
        .unwrap_or_default();
    if let Some(backend) = job.exec().and_then(EngineExec::dense_backend) {
        for rec in written {
            backend.recycle_shots(ShotWord::unwrap(rec.shots), keep);
        }
    }
    match pushed {
        Ok(out) if out.duplicate => {
            // Redundant re-execution of an already-delivered chunk (it
            // panicked between delivery and accounting): nothing was
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

/// Exactly-once chunk accounting: the ledger makes redundant
/// re-executions (a chunk that panicked after delivery) count once,
/// and the chunk that completes it settles the job.
fn account_chunk<T: Scalar>(
    shared: &Arc<Shared<T>>,
    job: &Arc<JobInner<T>>,
    index: usize,
    trie_edges: u64,
) {
    {
        let mut ledger = lock_healed(&job.ledger);
        if ledger.accounted.get(index) != Some(&false) {
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

/// End-of-job settlement, reached once per job: the first terminal
/// transition wins, under the job's lifecycle lock, and the emitter's
/// finish is idempotent, so the cancel/fail race can neither overwrite a
/// `Failed` verdict nor double-finalize the sink.
fn settle<T: Scalar>(shared: &Arc<Shared<T>>, job: &Arc<JobInner<T>>) {
    if job.lifecycle().cancelled {
        job.transition_terminal(JobStatus::Cancelled);
    } else if !job.status().is_terminal() {
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

/// Terminal bookkeeping shared by every exit path: the status counter
/// (before the waiter wakes, so its metrics already hold the job), the
/// waiter handshake, and the admission slot release.
fn finalize<T: Scalar>(shared: &Arc<Shared<T>>, job: &Arc<JobInner<T>>) {
    {
        let mut life = job.lifecycle();
        let counter = match life.status {
            JobStatus::Done => &shared.metrics.jobs_done,
            JobStatus::Cancelled => &shared.metrics.jobs_cancelled,
            JobStatus::TimedOut => &shared.metrics.jobs_timed_out,
            _ => &shared.metrics.jobs_failed,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        life.wall = Some(job.submitted_at.elapsed());
    }
    job.settled.notify_all();
    {
        let mut active = lock_healed(&shared.active);
        *active = active.saturating_sub(1);
    }
    shared.admit_cv.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EnginePolicy;
    use ptsbe_circuit::{channels, Circuit, NoiseModel, NoisyCircuit};
    use ptsbe_core::{BatchedExecutor, ProbabilisticPts, PtsPlan, PtsSampler, SvBackend};
    use ptsbe_dataset::{binary, BinarySink, SharedBuffer};
    use ptsbe_rng::PhiloxRng;
    use ptsbe_statevector::SamplingStrategy;

    /// Clifford gates and Pauli channels on `n` qubits, with a
    /// deterministic noiseless reference: every engine can run it.
    fn parity_circuit(n: usize) -> NoisyCircuit {
        let mut c = Circuit::new(n);
        c.x(0);
        for q in 1..n {
            c.cx(q - 1, q);
        }
        c.cz(0, n - 1);
        c.measure_all();
        NoiseModel::new()
            .with_default_1q(channels::bit_flip(0.05))
            .with_default_2q(channels::depolarizing(0.05))
            .apply(&c)
    }

    /// `n_samples` trajectories of 70 000 shots each: 1 MiB and more a
    /// record, counted draws on four qubits (from 2·2⁴ shots) and
    /// shot-by-shot ones on sixteen (below 2·2¹⁶).
    fn bulk_plan(nc: &NoisyCircuit, n_samples: usize) -> PtsPlan {
        ProbabilisticPts {
            n_samples,
            shots_per_trajectory: 70_000,
            dedup: false,
        }
        .sample_plan(nc, &mut PhiloxRng::new(5, 0))
    }

    fn run_binary(service: &ShotService, spec: JobSpec) -> Vec<u8> {
        let buf = SharedBuffer::new();
        let report = service
            .submit(spec, Box::new(BinarySink::new(buf.clone())))
            .unwrap()
            .wait();
        assert!(report.status.is_success(), "{report:?}");
        buf.bytes()
    }

    fn two_workers() -> ShotService {
        ShotService::start(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        })
    }

    fn dense_entry(service: &ShotService, nc: &NoisyCircuit) -> Arc<crate::cache::SvEntry<f64>> {
        service.shared.cache.sv(nc, nc.content_hash()).unwrap()
    }

    /// A counted dense job writes the same bytes cold, after another
    /// job has parked its shot buffers, and as the direct library call.
    #[test]
    fn recycled_shot_buffers_leave_the_bytes_unchanged() {
        let nc = parity_circuit(4);
        let plan = bulk_plan(&nc, 6);
        assert!(SamplingStrategy::Auto.is_counted(70_000, 1 << 4));
        let backend = SvBackend::<f64>::new(&nc, SamplingStrategy::Auto).unwrap();
        let library = BatchedExecutor {
            seed: 11,
            parallel: false,
        }
        .execute(&backend, &nc, &plan);
        for engine in [EngineKind::Tree, EngineKind::BatchMajor, EngineKind::Flat] {
            let spec = |seed| {
                let mut spec = JobSpec::new("recycled", nc.clone(), plan.clone(), seed)
                    .with_engine(EnginePolicy::Force(engine));
                spec.chunk_trajectories = 2;
                spec
            };
            let service = two_workers();
            let cold = run_binary(&service, spec(11));
            let parked = dense_entry(&service, &nc).backend.parked_shot_buffers();
            assert!(parked > 0, "{engine:?}: nothing parked after one job");
            assert_ne!(
                run_binary(&service, spec(12)),
                cold,
                "{engine:?}: seeds differ"
            );
            let parked = dense_entry(&service, &nc).backend.parked_shot_buffers();
            assert!(parked > 0, "{engine:?}: nothing parked after two jobs");
            let warm = run_binary(&service, spec(11));
            assert_eq!(warm, cold, "{engine:?}: warm bytes");
            let (_, records) = binary::decode(&warm).unwrap();
            assert_eq!(records.len(), library.trajectories.len());
            for (rec, want) in records.iter().zip(&library.trajectories) {
                assert_eq!(rec.meta.traj_id, want.meta.traj_id);
                assert_eq!(rec.meta.choices, want.meta.choices);
                let want = ShotWord::wrap(want.shots.clone());
                assert!(
                    rec.shots == want,
                    "{engine:?}: trajectory {}",
                    rec.meta.traj_id
                );
            }
        }
    }

    /// A finished job leaves at most one chunk's records per worker
    /// parked: a job cut into one-trajectory chunks trims what a job of
    /// six-trajectory chunks left on the same entry down to two.
    #[test]
    fn parked_shot_buffers_stay_within_a_chunk_per_worker() {
        let nc = parity_circuit(4);
        let plan = bulk_plan(&nc, 12);
        for engine in [EngineKind::Tree, EngineKind::BatchMajor, EngineKind::Flat] {
            let service = two_workers();
            for (chunk, bound) in [(6, 12), (1, 2), (1, 2)] {
                let mut spec = JobSpec::new("bounded", nc.clone(), plan.clone(), 1)
                    .with_engine(EnginePolicy::Force(engine));
                spec.chunk_trajectories = chunk;
                run_binary(&service, spec);
                let parked = dense_entry(&service, &nc).backend.parked_shot_buffers();
                assert!(
                    (1..=bound).contains(&parked),
                    "{engine:?}, chunks of {chunk}: {parked} parked"
                );
            }
        }
    }

    /// A shot-by-shot record is never parked, however large: no draw
    /// takes it back. Sixteen qubits at 70 000 shots a trajectory are
    /// below the counted regime's 2·2¹⁶.
    #[test]
    fn shot_by_shot_records_are_never_parked() {
        let nc = parity_circuit(16);
        let plan = bulk_plan(&nc, 2);
        assert!(!SamplingStrategy::Auto.is_counted(70_000, 1 << 16));
        let service = two_workers();
        for engine in [EngineKind::Tree, EngineKind::BatchMajor, EngineKind::Flat] {
            for seed in [1, 2] {
                let spec = JobSpec::new("cdf", nc.clone(), plan.clone(), seed)
                    .with_engine(EnginePolicy::Force(engine));
                run_binary(&service, spec);
                let parked = dense_entry(&service, &nc).backend.parked_shot_buffers();
                assert_eq!(parked, 0, "{engine:?}, seed {seed}");
            }
        }
    }

    /// Only the dense engines' records go back to a backend: the frame
    /// and MPS engines' records are freed, and a dense
    /// entry of the same circuit keeps what its own job parked.
    #[test]
    fn frame_and_mps_records_are_never_parked() {
        let nc = parity_circuit(4);
        let plan = bulk_plan(&nc, 6);
        let service = two_workers();
        let job = |engine| {
            JobSpec::new("parked", nc.clone(), plan.clone(), 3)
                .with_engine(EnginePolicy::Force(engine))
        };
        run_binary(&service, job(EngineKind::BatchMajor));
        let parked = dense_entry(&service, &nc).backend.parked_shot_buffers();
        assert!(parked > 0);
        let mut frame = job(EngineKind::Frame);
        frame.frame_chunk_shots = 1 << 17;
        run_binary(&service, frame);
        run_binary(&service, job(EngineKind::MpsTree));
        assert_eq!(
            dense_entry(&service, &nc).backend.parked_shot_buffers(),
            parked
        );
        let exec = |engine| {
            let handle =
                service.submit(job(engine), Box::new(BinarySink::new(SharedBuffer::new())));
            let handle = handle.unwrap();
            handle.wait();
            handle.inner.exec().map(|e| e.dense_backend().is_some())
        };
        assert_eq!(exec(EngineKind::Frame), Some(false));
        assert_eq!(exec(EngineKind::MpsTree), Some(false));
        assert_eq!(exec(EngineKind::Tree), Some(true));
    }

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
