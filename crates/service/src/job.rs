//! Jobs: what callers submit, what they hold while it runs, and what
//! they get back.

use crate::engine::{EngineExec, EngineKind};
use crate::router::{EnginePolicy, RouteDecision};
use ptsbe_circuit::NoisyCircuit;
use ptsbe_core::PtsPlan;
use ptsbe_dataset::{DatasetHeader, RecordSink, TrajectoryRecord};
use ptsbe_math::Scalar;
use ptsbe_tensornet::MpsConfig;
use std::collections::BTreeMap;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Service-level failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The admission queue is at capacity (`try_submit` only; `submit`
    /// blocks instead).
    Saturated,
    /// The job was rejected before admission (malformed plan, shape
    /// mismatch).
    InvalidJob(String),
    /// The service is shutting down and admits no new jobs.
    ShuttingDown,
    /// Service-internal invariant breakage surfaced as a typed error
    /// instead of a panic — today that means a poisoned job-scoped lock
    /// (a panic tore through a critical section whose state cannot be
    /// proven consistent, e.g. mid-write sink state).
    /// The affected *job* fails; the worker and every other job
    /// survive.
    Internal(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Saturated => write!(f, "admission queue is full"),
            ServiceError::InvalidJob(msg) => write!(f, "invalid job: {msg}"),
            ServiceError::ShuttingDown => write!(f, "service is shutting down"),
            ServiceError::Internal(msg) => write!(f, "internal service error: {msg}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Lifecycle of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Admitted, waiting for a worker.
    Queued,
    /// A worker is compiling/routing or executing chunks.
    Running,
    /// All chunks emitted and the sink finalized.
    Done,
    /// Compile, routing, execution, or sink IO failed (see
    /// [`JobReport::error`]).
    Failed,
    /// Cancelled before completion; the sink holds a plan-order prefix
    /// of the dataset.
    Cancelled,
    /// The job's deadline expired before every chunk was delivered.
    /// Enforced cooperatively at chunk boundaries; like cancellation,
    /// the sink holds a valid plan-order prefix of the dataset.
    TimedOut,
}

impl JobStatus {
    /// True for `Done`.
    pub fn is_success(self) -> bool {
        matches!(self, JobStatus::Done)
    }

    /// True once the job can no longer make progress.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobStatus::Done | JobStatus::Failed | JobStatus::Cancelled | JobStatus::TimedOut
        )
    }

    pub(crate) fn to_u8(self) -> u8 {
        match self {
            JobStatus::Queued => 0,
            JobStatus::Running => 1,
            JobStatus::Done => 2,
            JobStatus::Failed => 3,
            JobStatus::Cancelled => 4,
            JobStatus::TimedOut => 5,
        }
    }

    pub(crate) fn from_u8(v: u8) -> Self {
        match v {
            0 => JobStatus::Queued,
            1 => JobStatus::Running,
            2 => JobStatus::Done,
            3 => JobStatus::Failed,
            5 => JobStatus::TimedOut,
            _ => JobStatus::Cancelled,
        }
    }
}

impl std::fmt::Display for JobStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Failed => "failed",
            JobStatus::Cancelled => "cancelled",
            JobStatus::TimedOut => "timed-out",
        };
        write!(f, "{s}")
    }
}

/// One data-collection request: a noisy circuit, a PTS plan over it, an
/// execution seed, and knobs for routing and chunking. Circuit and plan
/// travel as `Arc`s so re-submitting (the warm-cache path) is free.
#[derive(Clone)]
pub struct JobSpec {
    /// Workload label (lands in the dataset header).
    pub name: String,
    /// The noisy circuit.
    pub circuit: Arc<NoisyCircuit>,
    /// The pre-sampled trajectory plan. For frame-routed jobs only the
    /// total shot budget is consumed (frame sampling draws noise per
    /// shot; per-trajectory provenance is traded for bulk throughput).
    pub plan: Arc<PtsPlan>,
    /// Execution seed: with worker count and cache state held irrelevant
    /// by construction, (spec, seed) fully determines the dataset bytes.
    pub seed: u64,
    /// Engine selection policy.
    pub engine: EnginePolicy,
    /// MPS configuration, used when the MPS tree engine is routed.
    pub mps: MpsConfig,
    /// Trajectories per chunk for the trajectory engines (`0` = auto).
    /// The flat, batch-major and dense tree engines cut plan ranges of
    /// exactly this many; the MPS tree engine cuts its trie between
    /// leaves, so there it is a *minimum* — a chunk closes at the first
    /// leaf boundary at or past it — and a one-worker service still runs
    /// one chunk (MPS chunks are delivered together, so a cut nobody runs
    /// in parallel would only re-walk shared prefixes).
    /// Output-neutral: trajectory-engine bytes are invariant under chunk
    /// geometry by construction — every trajectory draws from the Philox
    /// stream of its *absolute* plan index and the emitter commits
    /// records in plan order — so the auto rule is free to look at the
    /// worker count (both tree engines cut at most one chunk per worker).
    /// Only the frame engine's chunking is part of the byte contract (its
    /// streams are keyed by chunk ordinal; see
    /// [`JobSpec::frame_chunk_shots`]).
    pub chunk_trajectories: usize,
    /// Shots per chunk for the frame engine (`0` = auto).
    pub frame_chunk_shots: usize,
    /// Wall-clock budget from admission to the terminal state (`None` =
    /// unbounded). Enforced cooperatively at chunk boundaries: a job
    /// over its deadline stops scheduling chunks and terminates
    /// [`JobStatus::TimedOut`] within one chunk of the expiry, leaving a
    /// valid plan-order dataset prefix in the sink. Output-neutral for
    /// jobs that finish in time.
    pub deadline: Option<Duration>,
}

impl JobSpec {
    /// A spec with production defaults (auto routing, auto chunking, no
    /// deadline).
    pub fn new(
        name: impl Into<String>,
        circuit: impl Into<Arc<NoisyCircuit>>,
        plan: impl Into<Arc<PtsPlan>>,
        seed: u64,
    ) -> Self {
        Self {
            name: name.into(),
            circuit: circuit.into(),
            plan: plan.into(),
            seed,
            engine: EnginePolicy::Auto,
            mps: MpsConfig::default(),
            chunk_trajectories: 0,
            frame_chunk_shots: 0,
            deadline: None,
        }
    }

    /// Builder-style engine policy override.
    pub fn with_engine(mut self, engine: EnginePolicy) -> Self {
        self.engine = engine;
        self
    }

    /// Builder-style deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// Final account of a finished job.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// Service-assigned job id.
    pub job_id: u64,
    /// Terminal status.
    pub status: JobStatus,
    /// Routed engine (absent when the job failed before routing).
    pub engine: Option<EngineKind>,
    /// Human-readable routing rationale; tree routes also say how many
    /// chunks the walk was cut into (plan ranges for the dense tree
    /// engine, trie-order leaf runs for the MPS one).
    pub route_reason: String,
    /// Scheduler chunks the job was split into (0 when it never reached
    /// planning or had nothing to run; after engine degradation, the
    /// fallback's count).
    pub chunks: u64,
    /// Tree engines: the edges of the sub-trie each chunk walked, in
    /// chunk order (0 for a chunk that never ran) — with `chunks`, what
    /// reconstructs how evenly the walk was cut and how much shared
    /// prefix the cut repeated. Empty for the other engines.
    pub chunk_edges: Vec<u64>,
    /// Trajectory records delivered to the sink.
    pub records: u64,
    /// Shots delivered to the sink.
    pub shots: u64,
    /// Wall-clock time from admission to the terminal state.
    pub wall: Duration,
    /// Failure description, if any.
    pub error: Option<String>,
}

impl JobReport {
    /// Delivered shot throughput (0 when the wall time is degenerate).
    pub fn shots_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.shots as f64 / secs
    }
}

// ---------------------------------------------------------------------------
// Internals shared between the handle and the workers.

/// What one emitter push did (the caller folds these into metrics).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PushOutcome {
    /// Records written to the sink by this call (drained in-order runs).
    pub(crate) records: u64,
    /// Shots written to the sink by this call.
    pub(crate) shots: u64,
    /// Transient sink-write failures absorbed by retry.
    pub(crate) write_retries: u64,
    /// The chunk index was already delivered (a redundant re-execution
    /// after a panic escaped the task between delivery and accounting);
    /// nothing was written.
    pub(crate) duplicate: bool,
}

/// Plan-order reassembly buffer in front of the sink. Workers finish
/// chunks in any order; records reach the sink in plan order, which is
/// what pins the dataset bytes regardless of scheduling. Chunks that are
/// plan ranges (or shot blocks) stream out in chunk order as soon as
/// every earlier chunk has arrived. Chunks that are *not* plan-contiguous
/// (the MPS engine's trie-order cut) are staged as **merged**: all of
/// them are held, and written sorted by `traj_id` when the last arrives.
///
/// Fault-tolerance duties beyond reordering:
///
/// - **Exactly-once delivery.** A task requeued after an escaped panic
///   can re-execute a chunk that was already delivered (the panic came
///   *after* pushing but *before* accounting); a re-push of a delivered
///   index is detected and dropped, so at-least-once scheduling becomes
///   exactly-once sink delivery.
/// - **Lazy header.** The header is staged at plan time but written
///   with the first record batch (or at [`Emitter::finish`]): until
///   something is committed the sink holds zero bytes, which is what
///   lets engine degradation re-route a failed job and re-stage the
///   fallback engine's header. A merged job commits nothing until its
///   last chunk is in, so it stays re-routable for as long as any of
///   its chunks can still fail; re-staging drops what was held.
/// - **Transient-write retry.** Writes failing with
///   [`io::ErrorKind::Interrupted`] — the transient contract: *no bytes
///   were written* — are retried with a short capped backoff before the
///   error is allowed to fail the job.
/// - **Idempotent finish.** Terminal paths can race (the cancel/fail
///   window); the first [`Emitter::finish`] wins and later calls are
///   no-ops, so a sink is never finalized twice.
pub(crate) struct Emitter {
    sink: Box<dyn RecordSink>,
    header: Option<DatasetHeader>,
    header_written: bool,
    next: usize,
    pending: BTreeMap<usize, Vec<TrajectoryRecord>>,
    /// `Some(n)`: hold all `n` chunks and write them merged by
    /// `traj_id` when the last one arrives.
    merge_after: Option<usize>,
    finished: bool,
    /// Bounded retries for transient (`Interrupted`) sink writes.
    transient_retry_limit: u32,
}

impl Emitter {
    pub(crate) fn new(sink: Box<dyn RecordSink>) -> Self {
        Self {
            sink,
            header: None,
            header_written: false,
            next: 0,
            pending: BTreeMap::new(),
            merge_after: None,
            finished: false,
            transient_retry_limit: 8,
        }
    }

    /// Stage a route's delivery: its dataset header (written lazily with
    /// the first commit) and, for `merge_after: Some(n)`, merged delivery
    /// of its `n` chunks. Restaging is allowed until the header reaches
    /// the sink — the engine-degradation path replaces the failed
    /// engine's header with the fallback's and drops the chunks the
    /// failed engine's siblings had parked.
    pub(crate) fn stage(
        &mut self,
        header: DatasetHeader,
        merge_after: Option<usize>,
    ) -> io::Result<()> {
        if self.header_written {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "header already written",
            ));
        }
        self.header = Some(header);
        self.merge_after = merge_after;
        self.pending.clear();
        Ok(())
    }

    /// True when nothing — not even the header — has reached the sink.
    pub(crate) fn untouched(&self) -> bool {
        !self.header_written && self.next == 0
    }

    fn write_header_if_needed(&mut self) -> io::Result<u64> {
        if self.header_written {
            return Ok(0);
        }
        let header = self
            .header
            .take()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no header staged"))?;
        self.sink.begin(&header)?;
        self.header_written = true;
        Ok(0)
    }

    /// One sink write with bounded transient retry. The transient
    /// contract is `ErrorKind::Interrupted` ⇒ no bytes were written, so
    /// a retry cannot duplicate output.
    fn write_with_retry(&mut self, rec: &TrajectoryRecord, retries: &mut u64) -> io::Result<()> {
        let mut attempt = 0u32;
        loop {
            match self.sink.write(rec) {
                Ok(()) => return Ok(()),
                Err(e)
                    if e.kind() == io::ErrorKind::Interrupted
                        && attempt < self.transient_retry_limit =>
                {
                    *retries += 1;
                    std::thread::sleep(Duration::from_micros(50 << attempt.min(6)));
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Write `batch` to the sink (header first, if still staged).
    fn write_batch(&mut self, batch: &[TrajectoryRecord], out: &mut PushOutcome) -> io::Result<()> {
        self.write_header_if_needed()?;
        for rec in batch {
            self.write_with_retry(rec, &mut out.write_retries)?;
            out.shots += rec.shots.len() as u64;
        }
        out.records += batch.len() as u64;
        Ok(())
    }

    /// Park `records` as chunk `idx`, then write what is ready: every
    /// in-order chunk, or — for a merged route — everything once all
    /// chunks are parked, sorted by `traj_id`. Duplicate deliveries of an
    /// already-pushed index are dropped (see the exactly-once note on
    /// the type).
    pub(crate) fn push(
        &mut self,
        idx: usize,
        records: Vec<TrajectoryRecord>,
    ) -> io::Result<PushOutcome> {
        if idx < self.next || self.pending.contains_key(&idx) {
            return Ok(PushOutcome {
                duplicate: true,
                ..PushOutcome::default()
            });
        }
        self.pending.insert(idx, records);
        let mut out = PushOutcome::default();
        match self.merge_after {
            Some(n) if self.pending.len() < n => {}
            Some(n) => {
                let mut all: Vec<TrajectoryRecord> = std::mem::take(&mut self.pending)
                    .into_values()
                    .flatten()
                    .collect();
                all.sort_by_key(|r| r.meta.traj_id);
                self.write_batch(&all, &mut out)?;
                self.next = n;
            }
            None => {
                while let Some(batch) = self.pending.remove(&self.next) {
                    self.write_batch(&batch, &mut out)?;
                    self.next += 1;
                }
            }
        }
        Ok(out)
    }

    /// Finalize the sink (idempotent): flush the header if nothing was
    /// ever committed, then `finish` the sink exactly once.
    pub(crate) fn finish(&mut self) -> io::Result<()> {
        if self.finished {
            return Ok(());
        }
        self.write_header_if_needed()?;
        self.sink.finish()?;
        self.finished = true;
        Ok(())
    }
}

/// Per-chunk accounting of one installed route's cut. A chunk index
/// counts exactly once even when an escaped panic re-queues a chunk
/// that already completed (the exactly-once counterpart of the emitter's
/// delivery dedupe), and all of it sits under one lock so a re-cut
/// (engine degradation) replaces it atomically.
#[derive(Default)]
pub(crate) struct ChunkLedger {
    /// Whether chunk `i` has been accounted.
    pub(crate) accounted: Vec<bool>,
    /// How many have.
    pub(crate) done: usize,
    /// Trie edges chunk `i` walked (tree engines; 0 until it ran).
    pub(crate) trie_edges: Vec<u64>,
}

/// Shared job state (handle side + worker side).
pub(crate) struct JobInner<T: Scalar> {
    pub(crate) id: u64,
    pub(crate) spec: JobSpec,
    pub(crate) status: AtomicU8,
    pub(crate) cancelled: AtomicBool,
    /// The routing verdict and the engine it materialized, installed
    /// together at plan time (and replaced together on degradation).
    pub(crate) routed: Mutex<Option<(RouteDecision, Arc<EngineExec<T>>)>>,
    /// Which installed route is current: 0 for the planned one, bumped
    /// by [`JobInner::supersede`] the moment a failed chunk claims the
    /// degradation — *before* the fallback is routed — so every sibling
    /// chunk of the failed route is stale from then on. Every chunk task
    /// carries the generation it was cut under.
    pub(crate) generation: AtomicU32,
    pub(crate) emitter: Mutex<Emitter>,
    /// Exactly-once chunk accounting of the current generation's cut.
    pub(crate) ledger: Mutex<ChunkLedger>,
    pub(crate) records_emitted: AtomicU64,
    pub(crate) shots_emitted: AtomicU64,
    pub(crate) error: Mutex<Option<String>>,
    pub(crate) submitted_at: Instant,
    pub(crate) wall: Mutex<Option<Duration>>,
    pub(crate) done: (Mutex<bool>, Condvar),
}

impl<T: Scalar> JobInner<T> {
    pub(crate) fn new(id: u64, spec: JobSpec, sink: Box<dyn RecordSink>) -> Self {
        Self {
            id,
            spec,
            status: AtomicU8::new(JobStatus::Queued.to_u8()),
            cancelled: AtomicBool::new(false),
            routed: Mutex::new(None),
            generation: AtomicU32::new(0),
            emitter: Mutex::new(Emitter::new(sink)),
            ledger: Mutex::new(ChunkLedger::default()),
            records_emitted: AtomicU64::new(0),
            shots_emitted: AtomicU64::new(0),
            error: Mutex::new(None),
            submitted_at: Instant::now(),
            wall: Mutex::new(None),
            done: (Mutex::new(false), Condvar::new()),
        }
    }

    pub(crate) fn status(&self) -> JobStatus {
        JobStatus::from_u8(self.status.load(Ordering::Acquire))
    }

    /// Move to a non-terminal state (Queued → Running). Never overwrites
    /// a terminal state.
    pub(crate) fn set_running(&self) {
        let _ = self.status.compare_exchange(
            JobStatus::Queued.to_u8(),
            JobStatus::Running.to_u8(),
            Ordering::AcqRel,
            Ordering::Acquire,
        );
    }

    /// Atomically move to terminal state `s`; returns `false` (leaving
    /// the existing state untouched) if the job is already terminal.
    /// This is the fix for the cancellation/failure race: a chunk that
    /// observes `cancelled` after another worker recorded a sink
    /// failure must not overwrite `Failed` with `Cancelled` (or vice
    /// versa) — first terminal transition wins, always.
    pub(crate) fn transition_terminal(&self, s: JobStatus) -> bool {
        debug_assert!(s.is_terminal());
        let mut cur = self.status.load(Ordering::Acquire);
        loop {
            if JobStatus::from_u8(cur).is_terminal() {
                return false;
            }
            match self.status.compare_exchange_weak(
                cur,
                s.to_u8(),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return true,
                Err(observed) => cur = observed,
            }
        }
    }

    /// Record `msg` (first error wins) and transition to `Failed`.
    /// Returns `false` when the job was already terminal (the message is
    /// still recorded if no earlier error was).
    pub(crate) fn fail(&self, msg: String) -> bool {
        {
            let mut err = self.error.lock().unwrap_or_else(|e| e.into_inner());
            if err.is_none() {
                *err = Some(msg);
            }
        }
        self.transition_terminal(JobStatus::Failed)
    }

    /// True once the job's deadline (if any) has expired.
    pub(crate) fn deadline_exceeded(&self) -> bool {
        self.spec
            .deadline
            .is_some_and(|d| self.submitted_at.elapsed() > d)
    }

    /// The job-scoped emitter lock as a typed error instead of a panic:
    /// a poisoned emitter means a panic tore through a sink write, so
    /// the sink's state is unknowable — the job must fail, but the
    /// worker (and every other job) must survive.
    pub(crate) fn emitter(&self) -> Result<MutexGuard<'_, Emitter>, ServiceError> {
        self.emitter.lock().map_err(|_| {
            ServiceError::Internal(format!(
                "job {}: emitter lock poisoned (a panic interrupted a sink write)",
                self.id
            ))
        })
    }

    /// The current routing verdict, once made.
    pub(crate) fn route(&self) -> Option<RouteDecision> {
        let routed = self.routed.lock().unwrap_or_else(|e| e.into_inner());
        routed.as_ref().map(|(decision, _)| decision.clone())
    }

    /// The engine chunks run on, once routed.
    pub(crate) fn exec(&self) -> Option<Arc<EngineExec<T>>> {
        let routed = self.routed.lock().unwrap_or_else(|e| e.into_inner());
        routed.as_ref().map(|(_, exec)| Arc::clone(exec))
    }

    /// True while chunks cut under `generation` still belong to the
    /// job's current route. A stale chunk must leave no trace: it
    /// neither delivers, accounts, fails the job nor degrades it. The
    /// emitter and the ledger re-check under their own locks, which
    /// [`JobInner::supersede`]'s caller takes *after* the bump to
    /// re-stage them — so a chunk that passes there wrote into state the
    /// re-stage then replaces, and one that comes later sees the bump.
    pub(crate) fn is_current(&self, generation: u32) -> bool {
        self.generation.load(Ordering::Acquire) == generation
    }

    /// Claim the replacement of route `generation`: true for exactly one
    /// caller, after which every chunk of that generation is stale.
    pub(crate) fn supersede(&self, generation: u32) -> bool {
        self.generation
            .compare_exchange(
                generation,
                generation + 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
    }

    pub(crate) fn report(&self) -> JobReport {
        let wall = self
            .wall
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .unwrap_or_else(|| self.submitted_at.elapsed());
        let route = self.route();
        let unit = route.as_ref().and_then(|r| r.engine.trie_chunk_unit());
        let (chunks, chunk_edges) = {
            let ledger = self.ledger.lock().unwrap_or_else(|e| e.into_inner());
            let edges = unit.map(|_| ledger.trie_edges.clone());
            (ledger.accounted.len() as u64, edges.unwrap_or_default())
        };
        JobReport {
            job_id: self.id,
            status: self.status(),
            engine: route.as_ref().map(|r| r.engine),
            route_reason: route
                .as_ref()
                .map(|r| match unit {
                    Some(unit) => format!("{}; walked as {chunks} {unit} chunk(s)", r.reason),
                    None => r.reason.to_string(),
                })
                .unwrap_or_default(),
            chunks,
            chunk_edges,
            records: self.records_emitted.load(Ordering::Relaxed),
            shots: self.shots_emitted.load(Ordering::Relaxed),
            wall,
            error: self.error.lock().unwrap_or_else(|e| e.into_inner()).clone(),
        }
    }
}

/// Caller-side handle to an in-flight job.
pub struct JobHandle<T: Scalar> {
    pub(crate) inner: Arc<JobInner<T>>,
}

impl<T: Scalar> std::fmt::Debug for JobHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("id", &self.inner.id)
            .field("status", &self.inner.status())
            .finish()
    }
}

impl<T: Scalar> JobHandle<T> {
    /// Service-assigned job id.
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// Current lifecycle state.
    pub fn status(&self) -> JobStatus {
        self.inner.status()
    }

    /// The routing decision, once made. After engine degradation this
    /// is the *fallback* decision (its reason records the failed
    /// engine).
    pub fn route(&self) -> Option<RouteDecision> {
        self.inner.route()
    }

    /// Shots delivered to the sink so far.
    pub fn shots_emitted(&self) -> u64 {
        self.inner.shots_emitted.load(Ordering::Relaxed)
    }

    /// Request cancellation. Chunks not yet started are dropped;
    /// already-emitted records stay in the sink (a valid plan-order
    /// prefix). Idempotent; has no effect on terminal jobs.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// Block until the job reaches a terminal state and return its
    /// report.
    pub fn wait(&self) -> JobReport {
        let (lock, cv) = &self.inner.done;
        let mut done = lock.lock().unwrap_or_else(|e| e.into_inner());
        while !*done {
            done = cv.wait(done).unwrap_or_else(|e| e.into_inner());
        }
        drop(done);
        self.inner.report()
    }
}
