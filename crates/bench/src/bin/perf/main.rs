//! `perf` — the repository's one layered benchmark.
//!
//! ```text
//! perf --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload, one phase
//! perf all        [--seed n] [--seconds s] [--out dir] [--quick]  every workload, both phases
//! perf selfcheck  [--seed n] [--seconds s] [--quick]              two sets of measured runs, compared
//! ```
//!
//! The first form is the driver contract of `BENCHMARK.json`: its last
//! stdout line is one JSON object `{correct, attempted, failed,
//! metrics}`, with the end-to-end metrics for `--trace 0` and the
//! per-layer metrics for `--trace 1`. See `README.md`.

mod catalog;
mod check;
mod harness;
mod host;
mod jsonout;
mod measure;
mod procfs;
mod report;
mod sink;
mod stats;
mod traced;
mod tracer;
mod workloads;

use harness::Checks;
use jsonout::{Obj, Value};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 12;

/// Repetition counts of one invocation. Sizes are frozen in
/// `workloads.rs`; these are the counts that turn them into a run.
#[derive(Debug, Clone)]
pub struct Sizing {
    /// The measured loop runs until this much time has passed.
    pub seconds: f64,
    pub setup_reps: usize,
    /// Warm jobs thrown away before measuring (the second job on a
    /// fresh service is reproducibly slower than the third).
    pub warm_discard: usize,
    pub min_reps: usize,
    /// Layered replays after the discarded first one.
    pub t1_reps: u32,
    /// Warm jobs per traced service run.
    pub t2_warm: usize,
    /// svc-small batches on the load shape's service in the traced
    /// phase (≥ 1000 jobs for the p99).
    pub t2_batches: usize,
    pub probe_reps: usize,
    pub quick: bool,
}

impl Sizing {
    pub fn full(seconds: f64) -> Self {
        Self {
            seconds,
            setup_reps: 3,
            warm_discard: 2,
            min_reps: 7,
            t1_reps: 2,
            t2_warm: 2,
            t2_batches: 3,
            probe_reps: 3,
            quick: false,
        }
    }

    /// Smoke-test counts: one of everything, numbers not comparable.
    pub fn quick() -> Self {
        Self {
            seconds: 0.0,
            setup_reps: 1,
            warm_discard: 1,
            min_reps: 1,
            t1_reps: 1,
            t2_warm: 1,
            t2_batches: 1,
            probe_reps: 1,
            quick: true,
        }
    }

    fn to_value(&self) -> Value {
        let mut o = Obj::new();
        o.f64("seconds", self.seconds)
            .u64("setup_reps", self.setup_reps as u64)
            .u64("warm_discard", self.warm_discard as u64)
            .u64("min_reps", self.min_reps as u64)
            .u64("t1_reps", u64::from(self.t1_reps))
            .u64("t2_warm", self.t2_warm as u64)
            .u64("t2_batches", self.t2_batches as u64)
            .u64("probe_reps", self.probe_reps as u64);
        o.build()
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub mode: Mode,
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    pub out: Option<PathBuf>,
    pub trace_out: Option<PathBuf>,
}

#[derive(Debug, Clone, PartialEq)]
pub enum Mode {
    One { workload: String, trace: bool },
    All,
    Selfcheck,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

pub fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut trace = None;
    let mut sub = None;
    let mut args = Args {
        mode: Mode::All,
        seed: workloads::DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        quick: false,
        out: None,
        trace_out: None,
    };
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "all" | "selfcheck" if sub.is_none() && workload.is_none() => sub = Some(a.clone()),
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => {
                let v = value("--seed")?;
                args.seed = parse_u64(&v).ok_or_else(|| format!("bad --seed {v}"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                args.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds {v}"))?;
            }
            "--trace" => {
                trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                });
            }
            "--quick" => args.quick = true,
            "--out" => args.out = Some(PathBuf::from(value("--out")?)),
            "--trace-out" => args.trace_out = Some(PathBuf::from(value("--trace-out")?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    args.mode = match (sub.as_deref(), workload) {
        (None, Some(w)) => {
            if workloads::workload(&w, true).is_none() {
                return Err(format!(
                    "unknown workload {w}; one of {}",
                    workloads::WORKLOAD_NAMES.join(", ")
                ));
            }
            Mode::One {
                workload: w,
                trace: trace.unwrap_or(false),
            }
        }
        (Some("all"), None) => Mode::All,
        (Some("selfcheck"), None) => Mode::Selfcheck,
        (None, None) => return Err("name a workload (--workload) or a subcommand".into()),
        _ => return Err("--workload and a subcommand exclude each other".into()),
    };
    Ok(args)
}

/// What one invocation of the driver form produced.
pub struct OneRun {
    pub correct: bool,
    /// The driver's result line.
    pub line: String,
    /// The detailed per-workload record for the results file.
    pub detail: Value,
    pub chrome_trace: Option<String>,
}

fn metric_value(v: f64, unit: &str) -> Value {
    let mut o = Obj::new();
    o.f64("value", v).str("unit", unit);
    o.build()
}

/// Run one workload, one phase, in this process.
pub fn run_one(workload: &str, trace: bool, seed: u64, sizing: &Sizing) -> OneRun {
    let def = workloads::workload(workload, sizing.quick).expect("workload name was validated");
    let mut checks = Checks::default();
    let t0 = Instant::now();
    let mut metrics = Obj::new();
    let mut detailed = Obj::new();
    let mut phase_wall = Obj::new();
    let mut chrome_trace = None;
    let mut extra = Obj::new();
    if trace {
        let traced = traced::run(&def, seed, sizing, &mut checks);
        for m in catalog::PER_LAYER {
            let v = traced.layers.get(m.name);
            metrics.set(m.name, metric_value(v, m.unit));
            detailed.set(m.name, metric_value(v, m.unit));
        }
        for (name, s) in &traced.phase_wall {
            phase_wall.f64(name, *s);
        }
        let mut own = Obj::new();
        for (name, s) in traced.tracer.self_by_name() {
            own.f64(name, s);
        }
        extra
            .str("kernel_impl", ptsbe_statevector::KernelImpl::auto().label())
            .set("t1_self_seconds_all_reps", own.build());
        chrome_trace = Some(traced.tracer.chrome_trace());
    } else {
        let measured = measure::run(&def, seed, sizing, &mut checks);
        for (name, unit, summary) in measured.metrics() {
            metrics.set(name, metric_value(summary.median, unit));
            detailed.set(name, summary.to_value(unit));
        }
        for (name, s) in &measured.phase_wall {
            phase_wall.f64(name, *s);
        }
        if let Some((label, v)) = stats::highest_tail(&measured.all_job_s) {
            extra.f64(&format!("job_{label}_s"), v);
        }
        extra
            .u64("reps", measured.reps as u64)
            .f64("check.oracle_tvd", measured.oracle_tvd)
            .bool("truncated", measured.truncated)
            .f64("host_speed_median", stats::median(&measured.host_speed))
            .f64("host_steal_frac", measured.host_steal_frac)
            .f64("raw_job_p50_s", stats::median(&measured.raw_job_s))
            .f64("raw_setup_s", stats::median(&measured.raw_setup_s));
    }
    phase_wall.f64("total", t0.elapsed().as_secs_f64());

    let correct = checks.correct();
    let mut line = Obj::new();
    line.bool("correct", correct)
        .u64("attempted", checks.attempted)
        .u64("failed", checks.failed)
        .set("metrics", metrics.build());

    let mut detail = Obj::new();
    detail
        .str("workload", workload)
        .str("phase", if trace { "traced" } else { "measured" })
        .bool("comparable", !sizing.quick)
        .u64("seed", seed)
        .bool("correct", correct)
        .u64("ops_attempted", checks.attempted)
        .u64("ops_failed", checks.failed)
        .set("params", def.params())
        .set("sizing", sizing.to_value())
        .set("metrics", detailed.build())
        .set("extra", extra.build())
        .set("phase_wall_s", phase_wall.build())
        .set(
            "checks",
            Value::Array(
                checks
                    .named
                    .iter()
                    .map(|(name, ok, text)| {
                        let mut c = Obj::new();
                        c.str("name", name).bool("ok", *ok).str("detail", text);
                        c.build()
                    })
                    .collect(),
            ),
        );
    OneRun {
        correct,
        line: jsonout::compact(&line.build()),
        detail: detail.build(),
        chrome_trace,
    }
}

pub fn sizing_for(args: &Args) -> Sizing {
    if args.quick {
        Sizing::quick()
    } else {
        Sizing::full(args.seconds)
    }
}

/// Print every metric of a detailed record by name, with its unit.
fn print_metrics(detail: &Value) {
    let name = |k| match jsonout::get(detail, k) {
        Some(Value::String(s)) => s.clone(),
        _ => String::new(),
    };
    println!("# {} [{}]", name("workload"), name("phase"));
    if let Some(Value::Object(metrics)) = jsonout::get(detail, "metrics") {
        for (metric, v) in metrics {
            let value = jsonout::get_f64(v, "value").unwrap_or(0.0);
            let unit = catalog::unit_of(metric);
            match (
                jsonout::get_f64(v, "q1"),
                jsonout::get_f64(v, "q3"),
                jsonout::get_f64(v, "n"),
            ) {
                (Some(q1), Some(q3), Some(n)) if n > 1.0 => {
                    println!("{metric:<34} {value:>16.6} {unit:<8} (q1 {q1:.6}, q3 {q3:.6}, n {n})")
                }
                _ => println!("{metric:<34} {value:>16.6} {unit}"),
            }
        }
    }
    // The raw medians behind the host-speed correction, the host speed
    // itself, the rep count: whatever the phase put beside its metrics.
    if let Some(Value::Object(extra)) = jsonout::get(detail, "extra") {
        for (name, v) in extra {
            if let Value::Number(n) = v {
                println!("# {name:<32} {:>16.6}", n.as_f64());
            }
        }
    }
    if let Some(Value::Array(checks)) = jsonout::get(detail, "checks") {
        for c in checks {
            let ok = matches!(jsonout::get(c, "ok"), Some(Value::Bool(true)));
            if let (Some(Value::String(n)), Some(Value::String(d))) =
                (jsonout::get(c, "name"), jsonout::get(c, "detail"))
            {
                println!("# check {n}: {} — {d}", if ok { "ok" } else { "FAILED" });
            }
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perf: {msg}");
            return ExitCode::from(2);
        }
    };
    match &args.mode {
        Mode::One { workload, trace } => {
            let run = run_one(workload, *trace, args.seed, &sizing_for(&args));
            if args.quick {
                println!("# --quick: smoke-test sizes, numbers are NOT comparable");
            }
            print_metrics(&run.detail);
            let mut wrote = Ok(());
            if let Some(path) = &args.out {
                wrote = std::fs::write(path, jsonout::pretty(&run.detail));
            }
            if let (Ok(()), Some(path), Some(trace)) = (&wrote, &args.trace_out, &run.chrome_trace)
            {
                wrote = std::fs::write(path, trace);
            }
            if let Err(e) = wrote {
                eprintln!("perf: cannot write results: {e}");
                return ExitCode::from(2);
            }
            println!("{}", run.line);
            if run.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Mode::All => report::all(&args),
        Mode::Selfcheck => report::selfcheck(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_form_parses() {
        let a = parse_args(&argv(
            "--workload sv-shared --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            a.mode,
            Mode::One {
                workload: "sv-shared".into(),
                trace: true
            }
        );
        assert_eq!((a.seed, a.seconds, a.quick), (7, 10.0, false));
        assert_eq!(
            parse_args(&argv("--workload svc-small --seed 0x11"))
                .unwrap()
                .seed,
            17
        );
        assert_eq!(parse_args(&argv("all --quick")).unwrap().mode, Mode::All);
        assert_eq!(
            parse_args(&argv("selfcheck")).unwrap().mode,
            Mode::Selfcheck
        );
        for bad in [
            "",
            "--workload nope",
            "--workload sv-shared --trace 2",
            "--seed",
            "all --workload sv-shared",
            "--workload sv-shared --seconds -1",
            "--bogus",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?} must be refused");
        }
    }

    /// The whole harness, every workload, both phases, at smoke-test
    /// size: every metric of the catalogue is emitted, every check of
    /// the correctness gate runs and passes.
    #[test]
    fn quick_mode_exercises_every_workload_and_phase() {
        let sizing = Sizing::quick();
        for name in workloads::WORKLOAD_NAMES {
            for trace in [false, true] {
                let run = run_one(name, trace, workloads::DEFAULT_SEED, &sizing);
                let line = jsonout::parse(&run.line).expect("result line is JSON");
                assert!(
                    run.correct,
                    "{name} trace={trace}: {}",
                    jsonout::pretty(&run.detail)
                );
                let Value::Object(fields) = &line else {
                    panic!("result line is an object")
                };
                let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
                assert_eq!(jsonout::get_f64(&line, "failed"), Some(0.0));
                assert!(jsonout::get_f64(&line, "attempted").unwrap() >= 1.0);
                let Some(Value::Object(metrics)) = jsonout::get(&line, "metrics") else {
                    panic!("metrics object")
                };
                let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
                let expect: Vec<&str> = if trace {
                    catalog::PER_LAYER.iter().map(|m| m.name).collect()
                } else {
                    catalog::END_TO_END.iter().map(|m| m.name).collect()
                };
                assert_eq!(names, expect, "{name} trace={trace}");
                for (metric, v) in metrics {
                    let value = jsonout::get_f64(v, "value").unwrap();
                    assert!(value.is_finite(), "{name}: {metric} = {value}");
                    if !trace {
                        assert!(value > 0.0, "{name}: end-to-end {metric} must never be 0");
                    }
                }
                assert_eq!(run.chrome_trace.is_some(), trace);
                assert!(matches!(
                    jsonout::get(&run.detail, "comparable"),
                    Some(Value::Bool(false))
                ));
            }
        }
    }
}
