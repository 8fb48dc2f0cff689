//! `perf all` and `perf selfcheck`: run every workload as a child
//! process (one process per workload, so `VmHWM` belongs to it alone),
//! gather the per-workload records, print and write the results.

use crate::catalog::END_TO_END;
use crate::jsonout::{self, get, get_f64, Obj, Value};
use crate::stats::Summary;
use crate::workloads::WORKLOAD_NAMES;
use crate::{procfs, Args};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

fn out_dir(args: &Args) -> PathBuf {
    args.out
        .clone()
        .unwrap_or_else(|| PathBuf::from("crates/bench/src/bin/perf/results"))
}

/// `target-cpu` as the compiler saw it: the vector features this binary
/// was built with (`-C target-cpu=native` comes from the repository's
/// `.cargo/config.toml`).
fn target_features() -> String {
    let mut f: Vec<&str> = Vec::new();
    if cfg!(target_feature = "sse4.2") {
        f.push("sse4.2");
    }
    if cfg!(target_feature = "avx2") {
        f.push("avx2");
    }
    if cfg!(target_feature = "fma") {
        f.push("fma");
    }
    if cfg!(target_feature = "avx512f") {
        f.push("avx512f");
    }
    if f.is_empty() {
        "baseline".to_string()
    } else {
        f.join("+")
    }
}

fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(
            || "unknown (not a git checkout)".to_string(),
            |s| s.trim().to_string(),
        )
}

fn run_header(args: &Args) -> Value {
    let mut h = Obj::new();
    h.str("cpu_model", &procfs::cpu_model())
        .u64("nproc", procfs::nproc() as u64)
        .u64("workers", crate::harness::workers() as u64)
        .str("target_features", &target_features())
        .str("kernel_impl", ptsbe_statevector::KernelImpl::auto().label())
        .str("git_commit", &git_commit())
        .u64("seed", args.seed)
        .f64("seconds", args.seconds)
        .bool("comparable", !args.quick)
        .set("sizing", crate::sizing_for(args).to_value());
    h.build()
}

/// Every metric with its unit, direction, bound and definition (or, per
/// layer, the end-to-end metric it should move and where) — what
/// `BENCHMARK.json`'s fixed schema has no field for.
fn catalogue() -> Value {
    let table = |defs: &[crate::catalog::MetricDef]| {
        Value::Array(
            defs.iter()
                .map(|m| {
                    let mut o = Obj::new();
                    o.str("name", m.name)
                        .str("unit", m.unit)
                        .str("better", m.better);
                    if let Some(b) = m.bound {
                        o.f64("bound", b);
                    }
                    o.str("note", m.note);
                    o.build()
                })
                .collect(),
        )
    };
    let mut o = Obj::new();
    o.set("end_to_end", table(&END_TO_END))
        .set("per_layer", table(&crate::catalog::PER_LAYER));
    o.build()
}

/// Run one workload phase in a child process; returns its detailed
/// record (and whether it exited 0).
fn child(args: &Args, workload: &str, trace: bool, dir: &Path, tag: &str) -> Option<(Value, bool)> {
    let exe = std::env::current_exe().ok()?;
    let phase = if trace { "traced" } else { "measured" };
    let out = dir.join(format!("{workload}.{phase}{tag}.json"));
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&out);
    if trace {
        cmd.arg("--trace-out")
            .arg(dir.join(format!("{workload}.chrome-trace.json")));
    }
    if args.quick {
        cmd.arg("--quick");
    }
    let status = cmd.status().ok()?;
    let text = std::fs::read_to_string(&out).ok()?;
    let detail = jsonout::parse(&text).ok()?;
    Some((detail, status.success()))
}

pub fn all(args: &Args) -> ExitCode {
    let dir = out_dir(args);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perf: cannot create {}: {e}", dir.display());
        return ExitCode::from(2);
    }
    let t0 = Instant::now();
    let mut records = Vec::new();
    let mut all_correct = true;
    let mut phase_wall = Obj::new();
    for workload in WORKLOAD_NAMES {
        for trace in [false, true] {
            let t = Instant::now();
            match child(args, workload, trace, &dir, "") {
                Some((detail, ok)) => {
                    all_correct &= ok;
                    records.push(detail);
                }
                None => {
                    eprintln!("perf: {workload} (trace {trace}) produced no record");
                    all_correct = false;
                }
            }
            phase_wall.f64(
                &format!("{workload}.{}", if trace { "traced" } else { "measured" }),
                t.elapsed().as_secs_f64(),
            );
        }
    }
    phase_wall.f64("total", t0.elapsed().as_secs_f64());
    let mut summary = Obj::new();
    summary
        .bool("correct", all_correct)
        .u64("workloads", WORKLOAD_NAMES.len() as u64)
        .set("phase_wall_s", phase_wall.build())
        // This change defines the benchmark; it claims no gain.
        .set("claim", Value::Null);
    let mut doc = Obj::new();
    doc.set("header", run_header(args))
        .set("catalogue", catalogue())
        .set("results", Value::Array(records))
        .set("summary", summary.build());
    let path = dir.join("results.json");
    if let Err(e) = std::fs::write(&path, jsonout::pretty(&doc.build())) {
        eprintln!("perf: cannot write {}: {e}", path.display());
        return ExitCode::from(2);
    }
    println!(
        "# wrote {} and one Chrome trace per workload in {}",
        path.display(),
        dir.display()
    );
    if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perf: correctness gate FAILED (see the checks above)");
        ExitCode::from(1)
    }
}

/// A metric of a child's detailed record, as the summary it was
/// written from (single-valued metrics carry no quartiles).
fn side(detail: &Value, metric: &str) -> Option<Summary> {
    let m = get(get(detail, "metrics")?, metric)?;
    let median = get_f64(m, "value")?;
    Some(Summary {
        median,
        q1: get_f64(m, "q1").unwrap_or(median),
        q3: get_f64(m, "q3").unwrap_or(median),
        n: get_f64(m, "n").unwrap_or(1.0) as usize,
    })
}

/// How two measurements of one metric compare against its bound.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Agree,
    /// A within-run spread wider than the bound: no verdict possible.
    Unresolved,
    Disagree,
}

pub fn verdict(
    a_median: f64,
    a_spread: f64,
    b_median: f64,
    b_spread: f64,
    bound: f64,
) -> (f64, Verdict) {
    let rel = if a_median == 0.0 {
        0.0
    } else {
        (b_median - a_median).abs() / a_median.abs()
    };
    let v = if a_spread > bound || b_spread > bound {
        Verdict::Unresolved
    } else if rel > bound {
        Verdict::Disagree
    } else {
        Verdict::Agree
    };
    (rel, v)
}

/// Two sets of measured runs of the same code, order-alternated; every
/// end-to-end metric must agree within its own bound.
pub fn selfcheck(args: &Args) -> ExitCode {
    let dir = out_dir(args).join("selfcheck");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perf: cannot create {}: {e}", dir.display());
        return ExitCode::from(2);
    }
    let mut first = Vec::new();
    let mut second = Vec::new();
    let mut ok = true;
    for w in WORKLOAD_NAMES {
        let (detail, correct) = child(args, w, false, &dir, ".a").unwrap_or((Value::Null, false));
        ok &= correct;
        first.push(detail);
    }
    for w in WORKLOAD_NAMES.iter().rev() {
        let (detail, correct) = child(args, w, false, &dir, ".b").unwrap_or((Value::Null, false));
        ok &= correct;
        second.insert(0, detail);
    }
    println!(
        "# selfcheck: {:<14} {:<16} {:>14} {:>9} {:>14} {:>9} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "spread A", "median B", "spread B", "diff", "bound"
    );
    let mut disagreements = 0;
    let mut unresolved = 0;
    for ((w, a), b) in WORKLOAD_NAMES.iter().zip(&first).zip(&second) {
        for m in END_TO_END {
            let (Some(sa), Some(sb)) = (side(a, m.name), side(b, m.name)) else {
                println!("# selfcheck: {w}: {} missing", m.name);
                ok = false;
                continue;
            };
            // Both sets ran one seed, so a count has nothing to differ by.
            let bound = if m.exact {
                0.0
            } else {
                m.bound.expect("end-to-end metrics have bounds")
            };
            let (rel, v) = verdict(sa.median, sa.spread(), sb.median, sb.spread(), bound);
            match v {
                Verdict::Disagree => disagreements += 1,
                Verdict::Unresolved => unresolved += 1,
                Verdict::Agree => {}
            }
            println!(
                "  selfcheck: {w:<14} {:<16} {:>14.6} {:>8.2}% {:>14.6} {:>8.2}% {:>7.2}% {:>5.1}%  {}",
                m.name,
                sa.median,
                100.0 * sa.spread(),
                sb.median,
                100.0 * sb.spread(),
                100.0 * rel,
                100.0 * bound,
                match v {
                    Verdict::Agree => "agree",
                    Verdict::Unresolved => "UNRESOLVED (spread exceeds bound)",
                    Verdict::Disagree => "DISAGREE",
                }
            );
        }
    }
    println!("# selfcheck: {disagreements} disagreements, {unresolved} unresolved");
    if ok && disagreements == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        assert_eq!(verdict(100.0, 0.01, 104.0, 0.02, 0.10).1, Verdict::Agree);
        assert_eq!(verdict(100.0, 0.01, 89.0, 0.02, 0.10).1, Verdict::Disagree);
        assert_eq!(
            verdict(100.0, 0.15, 130.0, 0.02, 0.10).1,
            Verdict::Unresolved
        );
        let (rel, _) = verdict(200.0, 0.0, 210.0, 0.0, 0.10);
        assert!((rel - 0.05).abs() < 1e-12);
        assert_eq!(verdict(0.0, 0.0, 0.0, 0.0, 0.1), (0.0, Verdict::Agree));
        // An exact metric is compared with bound 0.
        assert_eq!(verdict(16.5, 0.0, 16.5, 0.0, 0.0).1, Verdict::Agree);
        assert_eq!(verdict(16.5, 0.0, 16.500001, 0.0, 0.0).1, Verdict::Disagree);
    }

    #[test]
    fn header_names_the_machine() {
        let args = crate::parse_args(&["all".to_string(), "--quick".to_string()]).unwrap();
        let h = run_header(&args);
        for key in [
            "cpu_model",
            "nproc",
            "workers",
            "target_features",
            "kernel_impl",
            "git_commit",
            "seed",
            "sizing",
        ] {
            assert!(get(&h, key).is_some(), "header lacks {key}");
        }
        assert!(matches!(get(&h, "comparable"), Some(Value::Bool(false))));
    }
}
