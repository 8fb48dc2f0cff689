//! Jobs: what callers submit, what they hold while it runs, and what
//! they get back.

use crate::engine::{EngineExec, EngineKind};
use crate::lock_healed;
use crate::router::{EnginePolicy, RouteDecision};
use ptsbe_circuit::NoisyCircuit;
use ptsbe_core::PtsPlan;
use ptsbe_dataset::{DatasetHeader, RecordSink, TrajectoryRecord};
use ptsbe_math::Scalar;
use ptsbe_tensornet::MpsConfig;
use std::collections::BTreeMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
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
    /// worker count (the tree engines cut at most one chunk per worker,
    /// the batch-major and flat ones a multiple of the workers they keep
    /// busy).
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
    /// Human-readable routing rationale; every engine but the frame one
    /// also says how many chunks the job was cut into ("walked as" plan
    /// ranges for the dense tree and batch-major engines and trie-order
    /// leaf runs for the MPS one, "swept as" plan ranges for the flat
    /// engine).
    pub route_reason: String,
    /// Scheduler chunks the job was split into (0 when it never reached
    /// planning or had nothing to run).
    pub chunks: u64,
    /// Engines that walk a trie (dense tree, batch-major, MPS tree): the
    /// edges of the sub-trie each chunk walked, in chunk order (0 for a
    /// chunk that never ran) — with `chunks`, what reconstructs how
    /// evenly the walk was cut and how much shared prefix the cut
    /// repeated. Empty for the frame and flat engines.
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
#[derive(Default)]
pub(crate) struct PushOutcome {
    /// Records written to the sink by this call (drained in-order runs).
    pub(crate) records: u64,
    /// Shots written to the sink by this call.
    pub(crate) shots: u64,
    /// Transient sink-write failures absorbed by retry.
    pub(crate) write_retries: u64,
    /// The chunk index was already delivered (a redundant re-execution
    /// after a panic between delivery and accounting); nothing was
    /// written.
    pub(crate) duplicate: bool,
    /// The records this call wrote, handed back so their shot buffers
    /// are freed or recycled after the emitter lock is released.
    pub(crate) written: Vec<TrajectoryRecord>,
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
/// - **Exactly-once delivery.** A chunk retried after a panic can
///   re-execute a chunk that was already delivered (the panic came
///   *after* pushing but *before* accounting); a re-push of a delivered
///   index is detected and dropped, so at-least-once scheduling becomes
///   exactly-once sink delivery.
/// - **Lazy header.** The header is staged at plan time but written
///   with the first record batch (or at [`Emitter::finish`]), so the
///   sink's `begin` runs on the same path as its writes: a failing
///   `begin` fails the job as a sink write (or finish) failure, and a
///   job that fails before committing anything leaves a header-only
///   shard.
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
}

/// Bounded retries for transient (`Interrupted`) sink writes.
const TRANSIENT_RETRY_LIMIT: u32 = 8;

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
        }
    }

    /// Stage the route's delivery, once, before any chunk runs: its
    /// dataset header (written lazily with the first commit) and, for
    /// `merge_after: Some(n)`, merged delivery of its `n` chunks.
    pub(crate) fn stage(&mut self, header: DatasetHeader, merge_after: Option<usize>) {
        self.header = Some(header);
        self.merge_after = merge_after;
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
                        && attempt < TRANSIENT_RETRY_LIMIT =>
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
    /// chunks are parked, sorted by `traj_id`; the written records come
    /// back in [`PushOutcome::written`]. Duplicate deliveries of an
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
                out.written = all;
            }
            None => {
                while let Some(batch) = self.pending.remove(&self.next) {
                    self.write_batch(&batch, &mut out)?;
                    self.next += 1;
                    out.written.extend(batch);
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

/// Per-chunk accounting of the job's cut. A chunk index counts exactly
/// once even when a panic requeues a chunk that already completed (the
/// exactly-once counterpart of the emitter's delivery dedupe); the chunk
/// that fills it settles the job.
#[derive(Default)]
pub(crate) struct ChunkLedger {
    /// Whether chunk `i` has been accounted.
    pub(crate) accounted: Vec<bool>,
    /// How many have.
    pub(crate) done: usize,
    /// Trie edges chunk `i` walked (tree engines; 0 until it ran).
    pub(crate) trie_edges: Vec<u64>,
}

/// A job's lifecycle, under one lock that is never held across sink IO,
/// engine code, or the emitter and ledger locks, so no sink or engine
/// panic can poison it.
pub(crate) struct Lifecycle {
    pub(crate) status: JobStatus,
    /// Cancel requested; the next boundary settles the job `Cancelled`
    /// unless another terminal state won first.
    pub(crate) cancelled: bool,
    /// The first failure message.
    pub(crate) error: Option<String>,
    /// Admission to settlement; `Some` once the job is settled.
    pub(crate) wall: Option<Duration>,
}

/// Shared job state (handle side + worker side).
pub(crate) struct JobInner<T: Scalar> {
    pub(crate) id: u64,
    pub(crate) spec: JobSpec,
    lifecycle: Mutex<Lifecycle>,
    /// Signalled when the job settles.
    pub(crate) settled: Condvar,
    /// The routing verdict and the engine it materialized, installed
    /// together, once, at plan time.
    pub(crate) routed: OnceLock<(RouteDecision, EngineExec<T>)>,
    pub(crate) emitter: Mutex<Emitter>,
    /// Exactly-once chunk accounting of the job's cut.
    pub(crate) ledger: Mutex<ChunkLedger>,
    pub(crate) records_emitted: AtomicU64,
    pub(crate) shots_emitted: AtomicU64,
    pub(crate) submitted_at: Instant,
}

impl<T: Scalar> JobInner<T> {
    pub(crate) fn new(id: u64, spec: JobSpec, sink: Box<dyn RecordSink>) -> Self {
        Self {
            id,
            spec,
            lifecycle: Mutex::new(Lifecycle {
                status: JobStatus::Queued,
                cancelled: false,
                error: None,
                wall: None,
            }),
            settled: Condvar::new(),
            routed: OnceLock::new(),
            emitter: Mutex::new(Emitter::new(sink)),
            ledger: Mutex::new(ChunkLedger::default()),
            records_emitted: AtomicU64::new(0),
            shots_emitted: AtomicU64::new(0),
            submitted_at: Instant::now(),
        }
    }

    /// The lifecycle lock (healed: its critical sections are plain field
    /// updates).
    pub(crate) fn lifecycle(&self) -> MutexGuard<'_, Lifecycle> {
        lock_healed(&self.lifecycle)
    }

    pub(crate) fn status(&self) -> JobStatus {
        self.lifecycle().status
    }

    /// Move Queued → Running. Never leaves a terminal state.
    pub(crate) fn set_running(&self) {
        let mut life = self.lifecycle();
        if life.status == JobStatus::Queued {
            life.status = JobStatus::Running;
        }
    }

    /// Move to terminal state `s`; returns `false` (leaving the existing
    /// state untouched) if the job is already terminal. First terminal
    /// transition wins, always: a chunk that observes the cancel after
    /// another worker recorded a sink failure must not overwrite
    /// `Failed` with `Cancelled`, nor the other way round.
    pub(crate) fn transition_terminal(&self, s: JobStatus) -> bool {
        debug_assert!(s.is_terminal());
        let mut life = self.lifecycle();
        if life.status.is_terminal() {
            return false;
        }
        life.status = s;
        true
    }

    /// Record `msg` (first error wins) and transition to `Failed`.
    /// Returns `false` when the job was already terminal (the message is
    /// still recorded if no earlier error was).
    pub(crate) fn fail(&self, msg: String) -> bool {
        self.lifecycle().error.get_or_insert(msg);
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

    /// The routing verdict, once made.
    pub(crate) fn route(&self) -> Option<RouteDecision> {
        self.routed.get().map(|(decision, _)| decision.clone())
    }

    /// The engine chunks run on, once routed.
    pub(crate) fn exec(&self) -> Option<&EngineExec<T>> {
        self.routed.get().map(|(_, exec)| exec)
    }

    pub(crate) fn report(&self) -> JobReport {
        let route = self.routed.get().map(|(decision, _)| decision);
        let (chunks, chunk_edges) = {
            let ledger = lock_healed(&self.ledger);
            let edges = route
                .filter(|r| r.engine.walks_trie())
                .map(|_| ledger.trie_edges.clone());
            (ledger.accounted.len() as u64, edges.unwrap_or_default())
        };
        let life = self.lifecycle();
        JobReport {
            job_id: self.id,
            status: life.status,
            engine: route.map(|r| r.engine),
            route_reason: route
                .map(|r| match r.engine.cut_words() {
                    Some((verb, unit)) => {
                        format!("{}; {verb} as {chunks} {unit} chunk(s)", r.reason)
                    }
                    None => r.reason.to_string(),
                })
                .unwrap_or_default(),
            chunks,
            chunk_edges,
            records: self.records_emitted.load(Ordering::Relaxed),
            shots: self.shots_emitted.load(Ordering::Relaxed),
            wall: life.wall.unwrap_or_else(|| self.submitted_at.elapsed()),
            error: life.error.clone(),
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

    /// The routing decision, once made.
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
        self.inner.lifecycle().cancelled = true;
    }

    /// Block until the job reaches a terminal state and return its
    /// report.
    pub fn wait(&self) -> JobReport {
        let inner = &self.inner;
        let mut life = inner.lifecycle();
        while life.wall.is_none() {
            life = inner.settled.wait(life).unwrap_or_else(|e| e.into_inner());
        }
        drop(life);
        inner.report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptsbe_circuit::{Circuit, NoiseModel};
    use ptsbe_dataset::MemorySink;

    const TERMINAL: [JobStatus; 4] = [
        JobStatus::Done,
        JobStatus::Failed,
        JobStatus::Cancelled,
        JobStatus::TimedOut,
    ];

    fn job() -> JobInner<f64> {
        let mut c = Circuit::new(1);
        c.h(0).measure_all();
        let plan = PtsPlan {
            trajectories: vec![],
        };
        let spec = JobSpec::new("lifecycle", NoiseModel::new().apply(&c), plan, 1);
        let (sink, _) = MemorySink::new();
        JobInner::new(1, spec, Box::new(sink))
    }

    #[test]
    fn set_running_never_leaves_a_terminal_state() {
        let queued = job();
        assert_eq!(queued.status(), JobStatus::Queued);
        queued.set_running();
        queued.set_running();
        assert_eq!(queued.status(), JobStatus::Running);
        for s in TERMINAL {
            let job = job();
            assert!(job.transition_terminal(s), "{s}");
            job.set_running();
            assert_eq!(job.status(), s);
        }
    }

    #[test]
    fn a_failure_after_a_cancel_keeps_cancelled_and_records_the_error() {
        let job = job();
        job.set_running();
        assert!(job.transition_terminal(JobStatus::Cancelled));
        assert!(!job.fail("disk full".to_string()));
        let report = job.report();
        assert_eq!(report.status, JobStatus::Cancelled);
        assert_eq!(report.error.as_deref(), Some("disk full"));
    }

    #[test]
    fn a_cancel_after_a_failure_keeps_failed_and_the_first_error() {
        let job = job();
        job.set_running();
        assert!(job.fail("disk full".to_string()));
        assert!(!job.transition_terminal(JobStatus::Cancelled));
        assert!(!job.fail("sink finish failed".to_string()));
        let report = job.report();
        assert_eq!(report.status, JobStatus::Failed);
        assert_eq!(report.error.as_deref(), Some("disk full"));
    }

    /// Eight threads, released together, race one terminal transition
    /// each: exactly one wins, and the status is the winner's.
    #[test]
    fn transition_terminal_returns_true_exactly_once() {
        for s in TERMINAL {
            let job = job();
            assert!(job.transition_terminal(s));
            for t in TERMINAL {
                assert!(!job.transition_terminal(t), "{s} then {t}");
            }
            assert_eq!(job.status(), s);
        }
        let job = Arc::new(job());
        job.set_running();
        let start = Arc::new(std::sync::Barrier::new(8));
        let racers: Vec<_> = (0..8)
            .map(|i| {
                let (job, start) = (Arc::clone(&job), Arc::clone(&start));
                std::thread::spawn(move || {
                    let s = TERMINAL[i % TERMINAL.len()];
                    start.wait();
                    job.transition_terminal(s).then_some(s)
                })
            })
            .collect();
        let winners: Vec<JobStatus> = racers
            .into_iter()
            .filter_map(|r| r.join().unwrap())
            .collect();
        assert_eq!(winners.len(), 1, "{winners:?}");
        assert_eq!(job.status(), winners[0]);
    }
}
