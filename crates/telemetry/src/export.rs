//! Exporters: Chrome trace-event JSON, JSONL spans, Prometheus text
//! format, and a human `Display` summary.
//!
//! The generic [`Metric`] family type is how callers feed their own
//! counters/gauges (the service converts its `MetricsSnapshot`) into
//! the text exporters without this crate depending on them.

use crate::{bucket_bounds, Stage, TelemetrySnapshot, DEFAULT_SPAN_CAPACITY};
use std::fmt;

/// Kind of a [`Metric`] family member (Prometheus semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically non-decreasing over the process lifetime.
    Counter,
    /// Point-in-time value that can go up and down.
    Gauge,
}

impl MetricKind {
    fn prom(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
        }
    }
}

/// One sample of a metric family: name + help + kind + labels + value.
/// Families (same name, different labels) should be contiguous in the
/// slice handed to [`prometheus`].
#[derive(Debug, Clone)]
pub struct Metric {
    /// Prometheus-style snake_case name (e.g. `ptsbe_jobs_done`).
    pub name: &'static str,
    /// One-line description emitted as `# HELP`.
    pub help: &'static str,
    /// Counter or gauge.
    pub kind: MetricKind,
    /// Label pairs, e.g. `("engine", "mps-tree")`.
    pub labels: Vec<(&'static str, String)>,
    /// The sample value.
    pub value: f64,
}

impl Metric {
    /// A label-less counter sample.
    pub fn counter(name: &'static str, help: &'static str, value: f64) -> Self {
        Self {
            name,
            help,
            kind: MetricKind::Counter,
            labels: Vec::new(),
            value,
        }
    }

    /// A label-less gauge sample.
    pub fn gauge(name: &'static str, help: &'static str, value: f64) -> Self {
        Self {
            name,
            help,
            kind: MetricKind::Gauge,
            labels: Vec::new(),
            value,
        }
    }

    /// Attach a label pair (builder-style).
    pub fn with_label(mut self, key: &'static str, value: impl Into<String>) -> Self {
        self.labels.push((key, value.into()));
        self
    }

    fn prom_line(&self, out: &mut String) {
        out.push_str(self.name);
        if !self.labels.is_empty() {
            out.push('{');
            for (i, (k, v)) in self.labels.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(k);
                out.push_str("=\"");
                // Prometheus label escaping: backslash, quote, newline.
                for c in v.chars() {
                    match c {
                        '\\' => out.push_str("\\\\"),
                        '"' => out.push_str("\\\""),
                        '\n' => out.push_str("\\n"),
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            out.push('}');
        }
        out.push(' ');
        if self.value.fract() == 0.0 && self.value.abs() < 1e15 {
            out.push_str(&format!("{}", self.value as i64));
        } else {
            out.push_str(&format!("{}", self.value));
        }
        out.push('\n');
    }
}

/// Render metric families plus the snapshot's stage histograms in the
/// Prometheus text exposition format. Histograms become
/// `ptsbe_stage_duration_seconds` with cumulative `le` buckets (seconds,
/// since Prometheus convention is base units) plus `_sum`/`_count`.
pub fn prometheus(metrics: &[Metric], snap: &TelemetrySnapshot) -> String {
    let mut out = String::new();
    let mut last_family: Option<&'static str> = None;
    for m in metrics {
        if last_family != Some(m.name) {
            out.push_str(&format!("# HELP {} {}\n", m.name, m.help));
            out.push_str(&format!("# TYPE {} {}\n", m.name, m.kind.prom()));
            last_family = Some(m.name);
        }
        m.prom_line(&mut out);
    }

    out.push_str("# HELP ptsbe_stage_duration_seconds Per-stage latency histogram.\n");
    out.push_str("# TYPE ptsbe_stage_duration_seconds histogram\n");
    for stage in Stage::ALL {
        let h = snap.stage(stage);
        if h.count == 0 {
            continue;
        }
        let label = stage.label();
        let mut cum = 0u64;
        for (i, &n) in h.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            cum += n;
            let le = bucket_bounds(i).1 as f64 / 1e9;
            out.push_str(&format!(
                "ptsbe_stage_duration_seconds_bucket{{stage=\"{label}\",le=\"{le}\"}} {cum}\n"
            ));
        }
        out.push_str(&format!(
            "ptsbe_stage_duration_seconds_bucket{{stage=\"{label}\",le=\"+Inf\"}} {}\n",
            h.count
        ));
        out.push_str(&format!(
            "ptsbe_stage_duration_seconds_sum{{stage=\"{label}\"}} {}\n",
            h.sum_nanos as f64 / 1e9
        ));
        out.push_str(&format!(
            "ptsbe_stage_duration_seconds_count{{stage=\"{label}\"}} {}\n",
            h.count
        ));
    }

    out.push_str("# HELP ptsbe_spans_dropped Spans overwritten by ring wrap since last reset.\n");
    out.push_str("# TYPE ptsbe_spans_dropped gauge\n");
    out.push_str(&format!("ptsbe_spans_dropped {}\n", snap.dropped_spans));
    out
}

impl TelemetrySnapshot {
    /// Chrome trace-event JSON (the `{"traceEvents": [...]}` object
    /// format): one complete (`"ph":"X"`) event per span, `ts`/`dur` in
    /// microseconds, thread rows keyed by recorder thread ordinal. Open
    /// in `chrome://tracing` or <https://ui.perfetto.dev>.
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"ptsbe\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"job\":{}",
                s.stage.label(),
                s.start_micros,
                // Round up so sub-µs spans stay visible.
                s.dur_nanos.div_ceil(1000),
                s.tid,
                s.job,
            ));
            if let Some(c) = s.chunk {
                out.push_str(&format!(",\"chunk\":{c}"));
            }
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }

    /// One JSON object per line per span — greppable/streamable form of
    /// the same data as [`TelemetrySnapshot::chrome_trace`].
    pub fn spans_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            out.push_str(&format!(
                "{{\"stage\":\"{}\",\"job\":{},\"chunk\":{},\"tid\":{},\
                 \"start_micros\":{},\"dur_nanos\":{}}}\n",
                s.stage.label(),
                s.job,
                s.chunk.map_or_else(|| "null".into(), |c| c.to_string()),
                s.tid,
                s.start_micros,
                s.dur_nanos,
            ));
        }
        out
    }
}

/// Human-readable report: a counters table from the supplied metric
/// families plus a per-stage latency table from the snapshot. This is
/// what `MetricsSnapshot::summary()` displays.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Metric families to list (order preserved).
    pub metrics: Vec<Metric>,
    /// Stage histograms/spans to tabulate.
    pub snapshot: TelemetrySnapshot,
}

/// Render nanoseconds with a human unit (ns/µs/ms/s).
pub fn fmt_nanos(nanos: u64) -> String {
    let n = nanos as f64;
    if nanos < 1_000 {
        format!("{nanos}ns")
    } else if nanos < 1_000_000 {
        format!("{:.1}µs", n / 1e3)
    } else if nanos < 1_000_000_000 {
        format!("{:.1}ms", n / 1e6)
    } else {
        format!("{:.2}s", n / 1e9)
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "── metrics ───────────────────────────────────────────")?;
        for m in &self.metrics {
            let mut name = m.name.to_string();
            if !m.labels.is_empty() {
                let labels: Vec<String> =
                    m.labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
                name.push_str(&format!("{{{}}}", labels.join(",")));
            }
            let value = if m.value.fract() == 0.0 && m.value.abs() < 1e15 {
                format!("{}", m.value as i64)
            } else {
                format!("{:.3}", m.value)
            };
            writeln!(f, "  {name:<44} {value:>14}")?;
        }
        let any = Stage::ALL.iter().any(|s| self.snapshot.stage(*s).count > 0);
        if any {
            writeln!(f, "── stage latency ─────────────────────────────────────")?;
            writeln!(
                f,
                "  {:<14} {:>9} {:>9} {:>9} {:>9} {:>9} {:>10}",
                "stage", "count", "p50", "p90", "p99", "max", "total"
            )?;
            for stage in Stage::ALL {
                let h = self.snapshot.stage(stage);
                if h.count == 0 {
                    continue;
                }
                writeln!(
                    f,
                    "  {:<14} {:>9} {:>9} {:>9} {:>9} {:>9} {:>10}",
                    stage.label(),
                    h.count,
                    fmt_nanos(h.p50()),
                    fmt_nanos(h.p90()),
                    fmt_nanos(h.p99()),
                    fmt_nanos(h.max_nanos),
                    fmt_nanos(h.sum_nanos),
                )?;
            }
            if self.snapshot.dropped_spans > 0 {
                writeln!(
                    f,
                    "  ({} spans dropped by wrap of the {DEFAULT_SPAN_CAPACITY}-span ring)",
                    self.snapshot.dropped_spans
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HistSnapshot, Span, TelemetryMode};

    fn snap_with(spans: Vec<Span>, route_samples: &[u64]) -> TelemetrySnapshot {
        let h = crate::LogHistogram::new();
        for &v in route_samples {
            h.record(v);
        }
        let mut hists = [HistSnapshot::empty(); Stage::COUNT];
        hists[Stage::Route.index()] = h.snapshot();
        TelemetrySnapshot {
            mode: TelemetryMode::Spans,
            hists,
            spans,
            dropped_spans: 3,
        }
    }
    use crate::Stage;

    #[test]
    fn chrome_trace_shape() {
        let snap = snap_with(
            vec![
                Span {
                    stage: Stage::Route,
                    job: 1,
                    chunk: None,
                    tid: 2,
                    start_micros: 10,
                    dur_nanos: 1_500,
                },
                Span {
                    stage: Stage::Sample,
                    job: 1,
                    chunk: Some(0),
                    tid: 3,
                    start_micros: 20,
                    dur_nanos: 2_000_000,
                },
            ],
            &[1_500],
        );
        let t = snap.chrome_trace();
        assert!(t.starts_with('{') && t.ends_with('}'));
        assert!(t.contains("\"traceEvents\":["));
        assert!(t.contains("\"name\":\"route\""));
        assert!(t.contains("\"ph\":\"X\""));
        // 1500 ns rounds up to 2 µs so the span stays visible.
        assert!(t.contains("\"ts\":10,\"dur\":2"));
        assert!(t.contains("\"chunk\":0"));
        let jsonl = snap.spans_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.contains("\"chunk\":null"));
        assert!(jsonl.contains("\"chunk\":0"));
    }

    #[test]
    fn prometheus_families_and_histogram() {
        let snap = snap_with(Vec::new(), &[500, 1_500, 3_000_000]);
        let metrics = vec![
            Metric::counter("ptsbe_jobs_done", "Jobs completed.", 7.0),
            Metric::counter("ptsbe_engine_jobs", "Jobs per engine.", 4.0)
                .with_label("engine", "frame"),
            Metric::counter("ptsbe_engine_jobs", "Jobs per engine.", 3.0)
                .with_label("engine", "mps-tree"),
            Metric::gauge("ptsbe_peak_active_jobs", "Peak concurrent jobs.", 2.0),
        ];
        let text = prometheus(&metrics, &snap);
        // HELP/TYPE once per family, not per sample.
        assert_eq!(text.matches("# TYPE ptsbe_engine_jobs counter").count(), 1);
        assert!(text.contains("ptsbe_engine_jobs{engine=\"frame\"} 4\n"));
        assert!(text.contains("ptsbe_engine_jobs{engine=\"mps-tree\"} 3\n"));
        assert!(text.contains("# TYPE ptsbe_stage_duration_seconds histogram"));
        assert!(
            text.contains("ptsbe_stage_duration_seconds_bucket{stage=\"route\",le=\"+Inf\"} 3\n")
        );
        assert!(text.contains("ptsbe_stage_duration_seconds_count{stage=\"route\"} 3\n"));
        assert!(text.contains("ptsbe_spans_dropped 3\n"));
        // Cumulative buckets end at count.
        let last_bucket = text
            .lines()
            .rfind(|l| l.starts_with("ptsbe_stage_duration_seconds_bucket{stage=\"route\""))
            .unwrap();
        assert!(last_bucket.ends_with(" 3"));
    }

    #[test]
    fn summary_display_lists_stages() {
        let snap = snap_with(Vec::new(), &[1_000, 2_000]);
        let s = Summary {
            metrics: vec![Metric::counter("ptsbe_jobs_done", "Jobs completed.", 2.0)],
            snapshot: snap,
        };
        let text = format!("{s}");
        assert!(text.contains("ptsbe_jobs_done"));
        assert!(text.contains("stage latency"));
        assert!(text.contains("route"));
        assert!(text.contains("spans dropped"));
    }

    #[test]
    fn fmt_nanos_units() {
        assert_eq!(fmt_nanos(12), "12ns");
        assert_eq!(fmt_nanos(1_500), "1.5µs");
        assert_eq!(fmt_nanos(2_500_000), "2.5ms");
        assert_eq!(fmt_nanos(3_210_000_000), "3.21s");
    }
}
