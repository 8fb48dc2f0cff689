//! Lock-free, allocation-light observability for the PTSBE stack.
//!
//! Three layers, all behind one process-global switch:
//!
//! - **Latency histograms** ([`LogHistogram`]): 64 power-of-two-ns
//!   buckets of `AtomicU64` cells, mergeable snapshots, p50/p90/p99/max
//!   queries. Every recorded stage interval lands here.
//! - **Span recorder** ([`Span`], [`TaskScope`]): per-job/per-chunk
//!   stage intervals in a bounded lock-free ring of
//!   [`DEFAULT_SPAN_CAPACITY`] spans, exportable as Chrome trace-event
//!   JSON (`chrome://tracing` / Perfetto) and JSONL.
//! - **Text exporters** ([`prometheus`], [`Summary`]): Prometheus-style
//!   text format and a human `Display` summary over generic [`Metric`]
//!   families plus the histograms — the service converts its own
//!   `MetricsSnapshot` into families, so this crate stays dependency-free.
//!
//! # The overhead contract
//!
//! Telemetry is configured per process ([`configure`], usually via
//! `ServiceConfig::telemetry` or the `PTSBE_TELEMETRY` env var) to one
//! of two modes: `Off` or `Spans` (histograms + ring). When off,
//! **every hook is one relaxed atomic load and a branch** — no clock
//! reads, no TLS writes, no allocation.
//! The cost of switching spans *on* is measured by the `perf`
//! benchmark's `telemetry.spans_overhead_frac`.
//!
//! Instrumentation never touches output bytes: hooks only read clocks
//! and bump atomics — they cannot perturb RNG streams, record contents,
//! or scheduling decisions, so the service's byte-identity suites hold
//! with telemetry on and off (pinned in CI with `PTSBE_TELEMETRY=spans`).

mod export;
mod hist;
mod span;

pub use export::{fmt_nanos, prometheus, Metric, MetricKind, Summary};
pub use hist::{bucket_bounds, bucket_index, HistSnapshot, LogHistogram, BUCKETS};
pub use span::{Span, TaskScope};

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Job id used for spans recorded outside any job context.
pub const NO_JOB: u64 = 0;

/// Span-ring capacity (spans, not bytes): once it wraps, the oldest
/// spans are overwritten and counted in
/// [`TelemetrySnapshot::dropped_spans`].
pub const DEFAULT_SPAN_CAPACITY: usize = 16_384;

/// How much the process records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(u8)]
pub enum TelemetryMode {
    /// Hooks compile to one relaxed load + branch; nothing is recorded.
    #[default]
    Off = 0,
    /// Histograms plus the span ring (Chrome-trace export).
    Spans = 2,
}

/// Pipeline stages the instrumentation distinguishes. Labels are the
/// stable strings used by every exporter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Stage {
    /// Job submission → a worker picking up its plan task.
    QueueWait = 0,
    /// Engine routing: compile-or-hit, traits, probe, decision.
    Route = 1,
    /// Backend compilation on a cache miss (nested inside `Route`).
    Compile = 2,
    /// Plan-tree construction: the whole-plan trie on a cache miss
    /// (nested inside `Route`, no chunk id), and the sub-trie a
    /// plan-range chunk of a split tree job builds for itself (inside
    /// the chunk envelope, carrying its chunk id).
    Plan = 3,
    /// State preparation work inside a chunk: segment advances and
    /// branch-point forks (aggregated per chunk).
    Prep = 4,
    /// Shot sampling from prepared states (aggregated per chunk).
    Sample = 5,
    /// Reorder-buffer push → sink write for one chunk's records.
    SinkWrite = 6,
    /// Backoff sleeps between chunk retry attempts.
    RetryBackoff = 7,
    /// One truncating SVD inside an MPS two-site update
    /// (histogram-only: it nests inside `Prep`, so emitting it as a
    /// span too would double-count the chunk decomposition).
    MpsSvd = 8,
    /// Whole-chunk envelope (emitted by [`TaskScope`] on drop).
    Chunk = 9,
}

impl Stage {
    /// Number of stages.
    pub const COUNT: usize = 10;

    /// Every stage, in index order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::QueueWait,
        Stage::Route,
        Stage::Compile,
        Stage::Plan,
        Stage::Prep,
        Stage::Sample,
        Stage::SinkWrite,
        Stage::RetryBackoff,
        Stage::MpsSvd,
        Stage::Chunk,
    ];

    /// Stable label (exporters, trace event names).
    pub fn label(self) -> &'static str {
        match self {
            Stage::QueueWait => "queue-wait",
            Stage::Route => "route",
            Stage::Compile => "compile",
            Stage::Plan => "plan",
            Stage::Prep => "prep",
            Stage::Sample => "sample",
            Stage::SinkWrite => "sink",
            Stage::RetryBackoff => "retry-backoff",
            Stage::MpsSvd => "mps-svd",
            Stage::Chunk => "chunk",
        }
    }

    /// Dense index (for per-stage arrays).
    pub fn index(self) -> usize {
        self as usize
    }

    pub(crate) fn from_index(i: u8) -> Option<Stage> {
        Stage::ALL.get(i as usize).copied()
    }

    /// Stages whose individual calls are too fine-grained for one span
    /// each (a sample call per prepared state, an advance per tree edge):
    /// they always feed the histogram, and inside a [`TaskScope`] their
    /// durations fold into one per-chunk span per stage.
    pub fn is_aggregated(self) -> bool {
        matches!(self, Stage::Prep | Stage::Sample)
    }

    /// Stages recorded into histograms only, never the span ring —
    /// they time work nested inside another stage's span.
    pub fn is_histogram_only(self) -> bool {
        matches!(self, Stage::MpsSvd)
    }
}

/// Process-wide telemetry selection (the service exposes it as
/// `ServiceConfig::telemetry`; `None` there defers to the
/// `PTSBE_TELEMETRY` environment variable).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// What to record.
    pub mode: TelemetryMode,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self::off()
    }
}

impl TelemetryConfig {
    /// Telemetry off (pins it off even when `PTSBE_TELEMETRY` is set,
    /// when used as an explicit `ServiceConfig::telemetry`).
    pub fn off() -> Self {
        Self {
            mode: TelemetryMode::Off,
        }
    }

    /// Histograms + span ring.
    pub fn spans() -> Self {
        Self {
            mode: TelemetryMode::Spans,
        }
    }

    /// Read `PTSBE_TELEMETRY` (`off`/`0`/`none`, `spans`/`trace`/`2`;
    /// unknown values warn and mean off). `None` when the variable is
    /// unset or empty.
    pub fn from_env() -> Option<Self> {
        let raw = std::env::var("PTSBE_TELEMETRY").ok()?;
        let trimmed = raw.trim();
        if trimmed.is_empty() {
            return None;
        }
        let mode = match trimmed.to_ascii_lowercase().as_str() {
            "off" | "0" | "none" => TelemetryMode::Off,
            "spans" | "trace" | "2" => TelemetryMode::Spans,
            other => {
                eprintln!(
                    "PTSBE_TELEMETRY: unknown mode '{other}' \
                     (expected off|spans); telemetry stays off"
                );
                TelemetryMode::Off
            }
        };
        Some(Self { mode })
    }
}

// ---------------------------------------------------------------------------
// The process-global recorder.

pub(crate) struct Telemetry {
    /// Timestamp origin for span `start_micros`.
    epoch: Instant,
    hists: [LogHistogram; Stage::COUNT],
    ring: span::SpanRing,
}

impl Telemetry {
    pub(crate) fn hist(&self, stage: Stage) -> &LogHistogram {
        &self.hists[stage.index()]
    }

    pub(crate) fn micros_since_epoch(&self, at: Instant) -> u64 {
        // `duration_since` saturates to zero for pre-epoch instants.
        u64::try_from(at.duration_since(self.epoch).as_micros()).unwrap_or(u64::MAX)
    }

    pub(crate) fn push_span(
        &self,
        stage: Stage,
        job: u64,
        chunk: Option<u32>,
        start: Instant,
        dur_nanos: u64,
    ) {
        self.ring
            .push(stage, job, chunk, self.micros_since_epoch(start), dur_nanos);
    }
}

static MODE: AtomicU8 = AtomicU8::new(0);
static GLOBAL: OnceLock<Telemetry> = OnceLock::new();

pub(crate) fn global() -> &'static Telemetry {
    GLOBAL.get_or_init(|| Telemetry {
        epoch: Instant::now(),
        hists: std::array::from_fn(|_| LogHistogram::new()),
        ring: span::SpanRing::new(DEFAULT_SPAN_CAPACITY),
    })
}

/// Select the process-wide telemetry mode. Telemetry is a process
/// global (like a logger): the most recent call wins. Mode changes
/// never invalidate already-recorded data.
pub fn configure(cfg: &TelemetryConfig) {
    if cfg.mode != TelemetryMode::Off {
        // Materialize now so the epoch predates every span.
        let _ = global();
    }
    MODE.store(cfg.mode as u8, Ordering::Relaxed);
}

/// Current mode (one relaxed load).
pub fn mode() -> TelemetryMode {
    if enabled() {
        TelemetryMode::Spans
    } else {
        TelemetryMode::Off
    }
}

/// Is anything being recorded? One relaxed atomic load — the entire
/// cost of every hook when telemetry is off.
#[inline]
pub fn enabled() -> bool {
    MODE.load(Ordering::Relaxed) != TelemetryMode::Off as u8
}

// ---------------------------------------------------------------------------
// Recording hooks.

/// RAII stage timer from [`timer`]: records on drop.
pub struct StageTimer {
    stage: Stage,
    start: Option<Instant>,
}

impl Drop for StageTimer {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            record_nanos(self.stage, span::duration_nanos(start.elapsed()));
        }
    }
}

/// Time a region: the returned guard records `stage` on drop. The hook
/// the executors and backends use — inert (no clock read) when
/// telemetry is off.
#[inline]
pub fn timer(stage: Stage) -> StageTimer {
    StageTimer {
        stage,
        start: if enabled() {
            Some(Instant::now())
        } else {
            None
        },
    }
}

/// Record a completed `stage` interval of `nanos`: histogram always;
/// aggregated stages fold into the active [`TaskScope`], other stages
/// become a ring span (identity from the scope).
fn record_nanos(stage: Stage, nanos: u64) {
    if !enabled() {
        return;
    }
    let g = global();
    g.hist(stage).record(nanos);
    if stage.is_histogram_only() {
        return;
    }
    if stage.is_aggregated() {
        // Outside any scope (e.g. a bare executor run on a rayon
        // thread) the histogram is the whole record.
        let _ = span::scope_accumulate(stage, nanos);
    } else {
        let (job, chunk) = span::current_ids();
        let start = Instant::now() - Duration::from_nanos(nanos);
        g.push_span(stage, job, chunk, start, nanos);
    }
}

/// Record a stage interval with an explicit job identity and start
/// instant (histogram, plus a ring span unless the stage is
/// histogram-only). The service calls this where it owns the timing
/// anchor — e.g. queue-wait from the job's submission instant.
pub fn stage_span(stage: Stage, job: u64, chunk: Option<u32>, start: Instant, dur: Duration) {
    if !enabled() {
        return;
    }
    let nanos = span::duration_nanos(dur);
    let g = global();
    g.hist(stage).record(nanos);
    if !stage.is_histogram_only() {
        g.push_span(stage, job, chunk, start, nanos);
    }
}

/// Run `f` timed as `stage`, with job/chunk identity taken from the
/// active [`TaskScope`]. Zero-cost when telemetry is off.
pub fn spanned<R>(stage: Stage, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let start = Instant::now();
    let out = f();
    let (job, chunk) = span::current_ids();
    stage_span(stage, job, chunk, start, start.elapsed());
    out
}

/// Bind a (job, chunk) identity to the current thread until the guard
/// drops — see [`TaskScope`]. `chunk: None` is a plan/route scope: it
/// supplies identity to nested hooks but emits no chunk envelope.
pub fn task_scope(job: u64, chunk: Option<u32>) -> TaskScope {
    span::enter(job, chunk)
}

// ---------------------------------------------------------------------------
// Snapshots.

/// Point-in-time copy of everything recorded: per-stage histograms plus
/// the readable contents of the span ring.
#[derive(Debug, Clone)]
pub struct TelemetrySnapshot {
    /// Mode at snapshot time.
    pub mode: TelemetryMode,
    /// Per-stage histograms, indexed by [`Stage::index`].
    pub hists: [HistSnapshot; Stage::COUNT],
    /// Readable spans, sorted by start time.
    pub spans: Vec<Span>,
    /// Spans overwritten by ring wrap since the last [`reset`].
    pub dropped_spans: u64,
}

impl TelemetrySnapshot {
    /// Histogram for one stage.
    pub fn stage(&self, stage: Stage) -> &HistSnapshot {
        &self.hists[stage.index()]
    }

    /// Total recorded time in one stage across all jobs.
    pub fn stage_total(&self, stage: Stage) -> Duration {
        Duration::from_nanos(self.stage(stage).sum_nanos)
    }

    /// Sum of span durations for (job, stage) — the per-job stage
    /// breakdown (0 when nothing was recorded).
    pub fn job_stage_nanos(&self, job: u64, stage: Stage) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.job == job && s.stage == stage)
            .map(|s| s.dur_nanos)
            .sum()
    }

    /// Spans belonging to one job.
    pub fn job_spans(&self, job: u64) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.job == job)
    }
}

/// Snapshot the process-global recorder.
pub fn snapshot() -> TelemetrySnapshot {
    let g = global();
    let (spans, dropped_spans) = g.ring.collect();
    TelemetrySnapshot {
        mode: mode(),
        hists: std::array::from_fn(|i| g.hists[i].snapshot()),
        spans,
        dropped_spans,
    }
}

/// Clear histograms and hide recorded spans (bench/test isolation).
/// Does not change the mode.
pub fn reset() {
    let g = global();
    for h in &g.hists {
        h.reset();
    }
    g.ring.reset();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole test module runs under one lock: telemetry is process
    /// global and libtest runs tests on concurrent threads.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn stage_indices_are_dense_and_labeled() {
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
            assert_eq!(Stage::from_index(i as u8), Some(*s));
            assert!(!s.label().is_empty());
        }
        assert_eq!(Stage::from_index(Stage::COUNT as u8), None);
        let labels: std::collections::HashSet<_> = Stage::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), Stage::COUNT, "labels must be unique");
    }

    #[test]
    fn env_parsing() {
        // from_env reads real process env; exercise the parser through
        // a scoped variable. Tests in this module are serialized.
        let _g = lock();
        std::env::set_var("PTSBE_TELEMETRY", "spans");
        assert_eq!(
            TelemetryConfig::from_env().map(|c| c.mode),
            Some(TelemetryMode::Spans)
        );
        // `counters` names no mode: unknown values mean off.
        std::env::set_var("PTSBE_TELEMETRY", "counters");
        assert_eq!(
            TelemetryConfig::from_env().map(|c| c.mode),
            Some(TelemetryMode::Off)
        );
        std::env::set_var("PTSBE_TELEMETRY", "0");
        assert_eq!(
            TelemetryConfig::from_env().map(|c| c.mode),
            Some(TelemetryMode::Off)
        );
        std::env::set_var("PTSBE_TELEMETRY", "bogus");
        assert_eq!(
            TelemetryConfig::from_env().map(|c| c.mode),
            Some(TelemetryMode::Off)
        );
        std::env::remove_var("PTSBE_TELEMETRY");
        assert_eq!(TelemetryConfig::from_env(), None);
    }

    #[test]
    fn off_mode_records_nothing() {
        let _g = lock();
        configure(&TelemetryConfig::off());
        reset();
        {
            let _t = timer(Stage::Sample);
        }
        spanned(Stage::Route, || ());
        stage_span(
            Stage::QueueWait,
            1,
            None,
            Instant::now(),
            Duration::from_millis(1),
        );
        let s = snapshot();
        assert_eq!(s.mode, TelemetryMode::Off);
        assert!(s.spans.is_empty());
        assert!(s.hists.iter().all(|h| h.count == 0));
    }

    #[test]
    fn spans_mode_scope_aggregates_and_envelopes() {
        let _g = lock();
        configure(&TelemetryConfig::spans());
        reset();
        {
            let _scope = task_scope(7, Some(3));
            for _ in 0..5 {
                let _t = timer(Stage::Prep);
                std::thread::sleep(Duration::from_micros(20));
            }
            let _t = timer(Stage::Sample);
        }
        let s = snapshot();
        configure(&TelemetryConfig::off());
        // Histograms saw every individual call…
        assert_eq!(s.stage(Stage::Prep).count, 5);
        assert_eq!(s.stage(Stage::Sample).count, 1);
        // …but the ring got ONE aggregated span per stage + the envelope.
        let prep: Vec<_> = s.spans.iter().filter(|x| x.stage == Stage::Prep).collect();
        assert_eq!(prep.len(), 1);
        assert_eq!(prep[0].job, 7);
        assert_eq!(prep[0].chunk, Some(3));
        assert_eq!(prep[0].dur_nanos, s.stage(Stage::Prep).sum_nanos);
        let chunk: Vec<_> = s.spans.iter().filter(|x| x.stage == Stage::Chunk).collect();
        assert_eq!(chunk.len(), 1);
        assert!(chunk[0].dur_nanos >= prep[0].dur_nanos);
        assert_eq!(s.job_stage_nanos(7, Stage::Prep), prep[0].dur_nanos);
    }

    #[test]
    fn plan_scope_emits_no_envelope() {
        let _g = lock();
        configure(&TelemetryConfig::spans());
        reset();
        {
            let _scope = task_scope(9, None);
            spanned(Stage::Compile, || ());
        }
        let s = snapshot();
        configure(&TelemetryConfig::off());
        assert!(s.spans.iter().all(|x| x.stage != Stage::Chunk));
        let compile: Vec<_> = s
            .spans
            .iter()
            .filter(|x| x.stage == Stage::Compile)
            .collect();
        assert_eq!(compile.len(), 1);
        assert_eq!(compile[0].job, 9, "identity must flow from the scope");
        assert_eq!(compile[0].chunk, None);
    }

    #[test]
    fn histogram_only_stage_stays_out_of_ring() {
        let _g = lock();
        configure(&TelemetryConfig::spans());
        reset();
        {
            let _scope = task_scope(4, Some(0));
            let _t = timer(Stage::MpsSvd);
        }
        let s = snapshot();
        configure(&TelemetryConfig::off());
        assert_eq!(s.stage(Stage::MpsSvd).count, 1);
        assert!(s.spans.iter().all(|x| x.stage != Stage::MpsSvd));
    }

    #[test]
    fn scopes_nest_and_restore() {
        let _g = lock();
        configure(&TelemetryConfig::spans());
        reset();
        {
            let _outer = task_scope(1, Some(0));
            {
                let _inner = task_scope(2, Some(1));
                let _t = timer(Stage::Sample);
            }
            // Back in the outer scope.
            let _t = timer(Stage::Sample);
        }
        let s = snapshot();
        configure(&TelemetryConfig::off());
        assert_eq!(
            s.job_spans(1).filter(|x| x.stage == Stage::Sample).count(),
            1
        );
        assert_eq!(
            s.job_spans(2).filter(|x| x.stage == Stage::Sample).count(),
            1
        );
    }
}
