//! Service-level counters: job lifecycle, delivery volume, per-engine
//! routing census, and admission pressure — plus the exporter surface
//! ([`MetricsSnapshot::prometheus`], [`MetricsSnapshot::summary`],
//! [`MetricsSnapshot::rate_since`]) built on `ptsbe_telemetry`.

use crate::cache::CacheStats;
use crate::engine::EngineKind;
use ptsbe_telemetry::{Metric, Summary};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// Internal atomic counters (one instance per service).
pub(crate) struct ServiceMetrics {
    pub(crate) started_at: Instant,
    pub(crate) jobs_submitted: AtomicU64,
    pub(crate) jobs_done: AtomicU64,
    pub(crate) jobs_failed: AtomicU64,
    pub(crate) jobs_cancelled: AtomicU64,
    pub(crate) records_emitted: AtomicU64,
    pub(crate) shots_emitted: AtomicU64,
    pub(crate) engine_jobs: [AtomicU64; EngineKind::ALL.len()],
    pub(crate) peak_active_jobs: AtomicUsize,
    /// MPS jobs re-routed to a dense engine after the truncation probe
    /// blew their cumulative budget.
    pub(crate) mps_probe_reroutes: AtomicU64,
    /// MPS jobs refused outright (budget blown, no dense fallback).
    pub(crate) mps_budget_refusals: AtomicU64,
    /// Largest per-trajectory truncation error delivered (f64 bits:
    /// non-negative IEEE floats order like their bit patterns, so
    /// `fetch_max` on bits is max on values).
    pub(crate) peak_trunc_error_bits: AtomicU64,
    /// Largest bond dimension any delivered MPS trajectory reached.
    pub(crate) peak_bond_reached: AtomicUsize,
    /// Jobs that reached the `TimedOut` terminal state.
    pub(crate) jobs_timed_out: AtomicU64,
    /// Chunk executions retried after a recoverable failure.
    pub(crate) chunk_retries: AtomicU64,
    /// Chunks abandoned at a deadline boundary (their job timed out).
    pub(crate) chunks_timed_out: AtomicU64,
    /// Tasks requeued after a panic escaped them (see
    /// [`MetricsSnapshot::workers_respawned`]).
    pub(crate) workers_respawned: AtomicU64,
    /// Jobs re-routed to their dense fallback engine after a fatal
    /// engine failure (graceful degradation).
    pub(crate) engine_fallbacks: AtomicU64,
    /// Transient sink-write failures absorbed by the emitter's retry.
    pub(crate) sink_write_retries: AtomicU64,
}

impl ServiceMetrics {
    pub(crate) fn new() -> Self {
        Self {
            started_at: Instant::now(),
            jobs_submitted: AtomicU64::new(0),
            jobs_done: AtomicU64::new(0),
            jobs_failed: AtomicU64::new(0),
            jobs_cancelled: AtomicU64::new(0),
            records_emitted: AtomicU64::new(0),
            shots_emitted: AtomicU64::new(0),
            engine_jobs: std::array::from_fn(|_| AtomicU64::new(0)),
            peak_active_jobs: AtomicUsize::new(0),
            mps_probe_reroutes: AtomicU64::new(0),
            mps_budget_refusals: AtomicU64::new(0),
            peak_trunc_error_bits: AtomicU64::new(0),
            peak_bond_reached: AtomicUsize::new(0),
            jobs_timed_out: AtomicU64::new(0),
            chunk_retries: AtomicU64::new(0),
            chunks_timed_out: AtomicU64::new(0),
            workers_respawned: AtomicU64::new(0),
            engine_fallbacks: AtomicU64::new(0),
            sink_write_retries: AtomicU64::new(0),
        }
    }

    pub(crate) fn note_active(&self, active: usize) {
        self.peak_active_jobs.fetch_max(active, Ordering::Relaxed);
    }

    /// Fold one delivered trajectory's truncation stats into the peaks.
    pub(crate) fn note_truncation(&self, t: &ptsbe_core::backend::TruncationStats) {
        self.peak_trunc_error_bits
            .fetch_max(t.trunc_error.max(0.0).to_bits(), Ordering::Relaxed);
        self.peak_bond_reached
            .fetch_max(t.max_bond_reached, Ordering::Relaxed);
    }
}

/// Jobs routed to each engine (a job that degraded to a fallback engine
/// counts once under each).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCensus([u64; EngineKind::ALL.len()]);

impl EngineCensus {
    /// Jobs routed to `kind`; iterate [`EngineKind::ALL`] for the whole
    /// census.
    pub fn get(&self, kind: EngineKind) -> u64 {
        self.0[kind.index()]
    }
}

/// Point-in-time snapshot of service health.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Jobs admitted since start.
    pub jobs_submitted: u64,
    /// Jobs finished successfully.
    pub jobs_done: u64,
    /// Jobs failed.
    pub jobs_failed: u64,
    /// Jobs cancelled.
    pub jobs_cancelled: u64,
    /// Records delivered to sinks.
    pub records_emitted: u64,
    /// Shots delivered to sinks.
    pub shots_emitted: u64,
    /// Per-engine routed-job counts.
    pub engines: EngineCensus,
    /// Highest concurrent admitted-job count observed.
    pub peak_active_jobs: usize,
    /// MPS jobs re-routed to a dense engine by the truncation probe.
    pub mps_probe_reroutes: u64,
    /// MPS jobs refused because their truncation budget was blown and
    /// no dense fallback was feasible.
    pub mps_budget_refusals: u64,
    /// Largest per-trajectory truncation error delivered (0 when no MPS
    /// trajectory has run).
    pub peak_trunc_error: f64,
    /// Largest bond dimension any delivered MPS trajectory reached.
    pub peak_bond_reached: usize,
    /// Jobs that terminated `TimedOut` (deadline expired).
    pub jobs_timed_out: u64,
    /// Chunk executions retried after a recoverable failure (injected or
    /// real panic, transient error). Retries are output-neutral: a
    /// retried chunk re-executes bitwise identically.
    pub chunk_retries: u64,
    /// Chunks abandoned at a deadline boundary.
    pub chunks_timed_out: u64,
    /// Tasks requeued after a panic escaped them — a `worker-kill`
    /// fault, or an organic panic outside the chunk retry guard such as
    /// a panicking sink. The worker catches the panic and keeps serving
    /// (no thread is respawned; the name predates that).
    pub workers_respawned: u64,
    /// Jobs that gracefully degraded to their dense fallback engine.
    pub engine_fallbacks: u64,
    /// Transient sink-write failures absorbed by bounded retry.
    pub sink_write_retries: u64,
    /// Compile/plan cache counters.
    pub cache: CacheStats,
    /// Service uptime in seconds.
    pub uptime_secs: f64,
}

/// Interval rates between two [`MetricsSnapshot`]s of the same service
/// (see [`MetricsSnapshot::rate_since`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RateWindow {
    /// Window length in seconds (0 when the snapshots coincide or are
    /// out of order).
    pub window_secs: f64,
    /// Shots delivered per second over the window.
    pub shots_per_sec: f64,
    /// Records delivered per second over the window.
    pub records_per_sec: f64,
    /// Jobs finished per second over the window.
    pub jobs_done_per_sec: f64,
}

impl MetricsSnapshot {
    /// Mean delivered-shot throughput over the **service lifetime**.
    ///
    /// Caveat: this is a lifetime mean, not a current rate — any idle
    /// period since start dilutes it, so after a burst-then-idle pattern
    /// it understates what the service actually sustained. For a
    /// current rate, keep a previous snapshot and use
    /// [`MetricsSnapshot::rate_since`].
    pub fn shots_per_sec(&self) -> f64 {
        if self.uptime_secs <= 0.0 {
            return 0.0;
        }
        self.shots_emitted as f64 / self.uptime_secs
    }

    /// Interval rates since an earlier snapshot of the same service:
    /// counter deltas divided by the uptime delta. Returns zero rates
    /// when `prev` is not earlier than `self` (clock-degenerate or
    /// swapped arguments) so a dashboard never divides by zero.
    pub fn rate_since(&self, prev: &MetricsSnapshot) -> RateWindow {
        let window = self.uptime_secs - prev.uptime_secs;
        if window <= 0.0 {
            return RateWindow::default();
        }
        let delta = |now: u64, then: u64| now.saturating_sub(then) as f64 / window;
        RateWindow {
            window_secs: window,
            shots_per_sec: delta(self.shots_emitted, prev.shots_emitted),
            records_per_sec: delta(self.records_emitted, prev.records_emitted),
            jobs_done_per_sec: delta(self.jobs_done, prev.jobs_done),
        }
    }

    /// Everything in this snapshot as Prometheus-style metric families
    /// (the input to [`ptsbe_telemetry::prometheus`] and
    /// [`Summary`]).
    pub fn families(&self) -> Vec<Metric> {
        let c = |name, help, v: u64| Metric::counter(name, help, v as f64);
        let mut out = vec![
            c(
                "ptsbe_jobs_submitted",
                "Jobs admitted since start.",
                self.jobs_submitted,
            ),
            c(
                "ptsbe_jobs_done",
                "Jobs finished successfully.",
                self.jobs_done,
            ),
            c("ptsbe_jobs_failed", "Jobs failed.", self.jobs_failed),
            c(
                "ptsbe_jobs_cancelled",
                "Jobs cancelled.",
                self.jobs_cancelled,
            ),
            c(
                "ptsbe_jobs_timed_out",
                "Jobs past their deadline.",
                self.jobs_timed_out,
            ),
            c(
                "ptsbe_records_emitted",
                "Records delivered to sinks.",
                self.records_emitted,
            ),
            c(
                "ptsbe_shots_emitted",
                "Shots delivered to sinks.",
                self.shots_emitted,
            ),
        ];
        for kind in EngineKind::ALL {
            let n = self.engines.get(kind) as f64;
            out.push(
                Metric::counter("ptsbe_engine_jobs", "Jobs routed per engine.", n)
                    .with_label("engine", kind.label()),
            );
        }
        out.extend([
            Metric::gauge(
                "ptsbe_peak_active_jobs",
                "Highest concurrent admitted-job count observed.",
                self.peak_active_jobs as f64,
            ),
            c(
                "ptsbe_chunk_retries",
                "Chunk executions retried.",
                self.chunk_retries,
            ),
            c(
                "ptsbe_chunks_timed_out",
                "Chunks abandoned at a deadline.",
                self.chunks_timed_out,
            ),
            c(
                "ptsbe_workers_respawned",
                "Tasks requeued after a panic escaped them.",
                self.workers_respawned,
            ),
            c(
                "ptsbe_engine_fallbacks",
                "Jobs degraded to a dense fallback.",
                self.engine_fallbacks,
            ),
            c(
                "ptsbe_sink_write_retries",
                "Transient sink writes retried.",
                self.sink_write_retries,
            ),
            c(
                "ptsbe_mps_probe_reroutes",
                "MPS jobs re-routed by the probe.",
                self.mps_probe_reroutes,
            ),
            c(
                "ptsbe_mps_budget_refusals",
                "MPS jobs refused on budget.",
                self.mps_budget_refusals,
            ),
            Metric::gauge(
                "ptsbe_peak_trunc_error",
                "Largest delivered truncation error.",
                self.peak_trunc_error,
            ),
            Metric::gauge(
                "ptsbe_peak_bond_reached",
                "Largest delivered MPS bond dimension.",
                self.peak_bond_reached as f64,
            ),
            c(
                "ptsbe_cache_compile_hits",
                "Compile-cache hits.",
                self.cache.compile_hits(),
            ),
            c(
                "ptsbe_cache_compile_misses",
                "Compile-cache misses.",
                self.cache.compile_misses(),
            ),
            c(
                "ptsbe_cache_evictions",
                "Compile-cache evictions.",
                self.cache.evictions,
            ),
            Metric::gauge(
                "ptsbe_cache_resident_bytes",
                "Approximate resident compile-cache bytes.",
                self.cache.resident_bytes as f64,
            ),
            Metric::gauge("ptsbe_uptime_seconds", "Service uptime.", self.uptime_secs),
        ]);
        out
    }

    /// Prometheus text exposition: every counter here plus the global
    /// per-stage latency histograms (empty unless telemetry is on).
    pub fn prometheus(&self) -> String {
        ptsbe_telemetry::prometheus(&self.families(), &ptsbe_telemetry::snapshot())
    }

    /// Human-readable report: counters table + per-stage latency table.
    /// `Display` it (`println!("{}", snap.summary())`).
    pub fn summary(&self) -> Summary {
        Summary {
            metrics: self.families(),
            snapshot: ptsbe_telemetry::snapshot(),
        }
    }

    pub(crate) fn from_counters(m: &ServiceMetrics, cache: CacheStats) -> Self {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        Self {
            jobs_submitted: load(&m.jobs_submitted),
            jobs_done: load(&m.jobs_done),
            jobs_failed: load(&m.jobs_failed),
            jobs_cancelled: load(&m.jobs_cancelled),
            records_emitted: load(&m.records_emitted),
            shots_emitted: load(&m.shots_emitted),
            engines: EngineCensus(std::array::from_fn(|i| load(&m.engine_jobs[i]))),
            peak_active_jobs: m.peak_active_jobs.load(Ordering::Relaxed),
            mps_probe_reroutes: load(&m.mps_probe_reroutes),
            mps_budget_refusals: load(&m.mps_budget_refusals),
            peak_trunc_error: f64::from_bits(m.peak_trunc_error_bits.load(Ordering::Relaxed)),
            peak_bond_reached: m.peak_bond_reached.load(Ordering::Relaxed),
            jobs_timed_out: load(&m.jobs_timed_out),
            chunk_retries: load(&m.chunk_retries),
            chunks_timed_out: load(&m.chunks_timed_out),
            workers_respawned: load(&m.workers_respawned),
            engine_fallbacks: load(&m.engine_fallbacks),
            sink_write_retries: load(&m.sink_write_retries),
            cache,
            uptime_secs: m.started_at.elapsed().as_secs_f64(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(uptime: f64, shots: u64, records: u64, done: u64) -> MetricsSnapshot {
        let m = ServiceMetrics::new();
        m.shots_emitted.store(shots, Ordering::Relaxed);
        m.records_emitted.store(records, Ordering::Relaxed);
        m.jobs_done.store(done, Ordering::Relaxed);
        let mut s = MetricsSnapshot::from_counters(&m, CacheStats::default());
        s.uptime_secs = uptime;
        s
    }

    #[test]
    fn rate_since_is_interval_not_lifetime() {
        let early = snap(10.0, 1_000, 10, 1);
        let late = snap(12.0, 5_000, 50, 3);
        // Lifetime mean is diluted by the 10 idle seconds…
        assert!((late.shots_per_sec() - 5_000.0 / 12.0).abs() < 1e-9);
        // …the interval rate is not.
        let r = late.rate_since(&early);
        assert!((r.window_secs - 2.0).abs() < 1e-9);
        assert!((r.shots_per_sec - 2_000.0).abs() < 1e-9);
        assert!((r.records_per_sec - 20.0).abs() < 1e-9);
        assert!((r.jobs_done_per_sec - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rate_since_degenerate_windows_are_zero() {
        let s = snap(10.0, 1_000, 10, 1);
        assert_eq!(s.rate_since(&s), RateWindow::default());
        // Swapped arguments (prev newer than self) must not panic or
        // produce negative rates.
        let newer = snap(11.0, 2_000, 20, 2);
        assert_eq!(s.rate_since(&newer), RateWindow::default());
    }

    #[test]
    fn families_cover_every_snapshot_field() {
        let s = snap(10.0, 1_000, 10, 1);
        let fams = s.families();
        let names: std::collections::HashSet<&str> = fams.iter().map(|m| m.name).collect();
        for expected in [
            "ptsbe_jobs_submitted",
            "ptsbe_jobs_done",
            "ptsbe_jobs_failed",
            "ptsbe_jobs_cancelled",
            "ptsbe_jobs_timed_out",
            "ptsbe_records_emitted",
            "ptsbe_shots_emitted",
            "ptsbe_engine_jobs",
            "ptsbe_peak_active_jobs",
            "ptsbe_chunk_retries",
            "ptsbe_chunks_timed_out",
            "ptsbe_workers_respawned",
            "ptsbe_engine_fallbacks",
            "ptsbe_sink_write_retries",
            "ptsbe_mps_probe_reroutes",
            "ptsbe_mps_budget_refusals",
            "ptsbe_peak_trunc_error",
            "ptsbe_peak_bond_reached",
            "ptsbe_cache_compile_hits",
            "ptsbe_cache_compile_misses",
            "ptsbe_cache_evictions",
            "ptsbe_cache_resident_bytes",
            "ptsbe_uptime_seconds",
        ] {
            assert!(names.contains(expected), "missing family {expected}");
        }
        // One engine_jobs sample per engine.
        assert_eq!(
            fams.iter()
                .filter(|m| m.name == "ptsbe_engine_jobs")
                .count(),
            5
        );
        let text = s.prometheus();
        assert!(text.contains("ptsbe_shots_emitted 1000\n"));
    }
}
