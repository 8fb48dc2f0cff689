//! The metric catalogue: every name the benchmark prints, with its unit,
//! direction and (end-to-end only) regression bound. `BENCHMARK.json`
//! carries the same tables for the driver; a test keeps the two equal.

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median a later change may lose
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
    /// A count: two runs of one commit with one seed must agree to the
    /// last digit (`perf selfcheck` demands it). `bound` then only covers
    /// what differs between seeds.
    pub exact: bool,
    /// Per-layer metrics: the end-to-end metric it should move, and
    /// where. End-to-end metrics: the definition.
    pub note: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
    note: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
        note,
    }
}

const fn exact(mut m: MetricDef) -> MetricDef {
    m.exact = true;
    m
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    note: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact: false,
        note,
    }
}

/// Wall-clock metrics are reported at the nominal speed of the host-speed
/// index (`host.rs`). The bounds are what the driver holds a later change
/// to, and it measures them across ten runs with ten seeds on a noisy
/// host: each is at least three times the widest spread seen there
/// (README, "Host noise"), which is why they are wider than the issue's
/// 10 % / 5 %.
pub const END_TO_END: [MetricDef; 7] = [
    e2e("setup_s", "s", "lower", 0.25,
        "build circuit + noise model, draw the PTS plan, ShotService::start, first (cold) job to Done; median of 3 fresh services"),
    e2e("shots_per_s", "shots/s", "higher", 0.25,
        "shots delivered to the sink / wall of a warm job (svc-small: batch shots / makespan); median of reps"),
    e2e("job_p50_s", "s", "lower", 0.25,
        "median submit -> wait wall of a warm job (svc-small: median over batches of the batch's median job)"),
    e2e("first_record_s", "s", "lower", 0.25,
        "submit -> first RecordSink::write; median over warm jobs"),
    e2e("peak_rss_mb", "MiB", "lower", 0.20,
        "VmHWM of the workload's process after the first set-up, the discarded warm jobs and the first 7 measured reps"),
    exact(e2e("bytes_per_shot", "B/shot", "lower", 0.001,
        "binary-sink bytes / shots of one warm job of every spec; a count: exact for one seed, and across seeds only the digits of the execution seed in the header differ")),
    e2e("alg1_speedup", "ratio", "higher", 0.25,
        "shots_per_s x seconds per Algorithm-1 shot (one state preparation per shot, single thread), baseline slices interleaved with warm reps; median of per-rep ratios of raw times"),
];

pub const STAGES: [(&str, ptsbe_service::Stage); 7] = [
    (
        "service.stage.queue-wait_s",
        ptsbe_service::Stage::QueueWait,
    ),
    ("service.stage.route_s", ptsbe_service::Stage::Route),
    ("service.stage.compile_s", ptsbe_service::Stage::Compile),
    ("service.stage.plan_s", ptsbe_service::Stage::Plan),
    ("service.stage.prep_s", ptsbe_service::Stage::Prep),
    ("service.stage.sample_s", ptsbe_service::Stage::Sample),
    ("service.stage.sink_s", ptsbe_service::Stage::SinkWrite),
];

const SETUP: &str = "setup_s, on the workload whose engine owns it; no warm metric anywhere";
const SHARING: &str =
    "shots_per_s on sv-shared, sv-divergent; not on sv-sample, frame-bulk (exact count)";
const EXEC: &str = "shots_per_s, job_p50_s on sv-shared, mps-brick32; not on frame-bulk";
const SV_PREP: &str = "shots_per_s on sv-shared; not on sv-sample";
const SV_BATCH: &str = "shots_per_s on sv-divergent; not on sv-shared";
const TN: &str = "shots_per_s, setup_s (probe) on mps-brick32; 0 elsewhere";
const MATH: &str = "via tensornet.prepare_s on mps-brick32; 0 elsewhere";
const DATASET: &str = "shots_per_s, first_record_s, bytes_per_shot on sv-sample, frame-bulk; not on sv-shared, mps-brick32";
const DATASET_OTHER: &str =
    "none today: the same layer used differently, so a binary-write gain that costs it shows";
const SERVICE: &str = "job_p50_s, first_record_s on svc-small (self_s everywhere)";
const STAGE: &str = "explains job_p50_s on every workload (the program's own spans)";
const PROC: &str =
    "shots_per_s, peak_rss_mb on sv-shared, sv-divergent, sv-sample; not on svc-small";

pub const PER_LAYER: [MetricDef; 69] = [
    layer("circuit.noise_apply_s", "s", "lower", SETUP),
    layer("core.pts_plan_s", "s", "lower", SETUP),
    layer("core.plan_tree_s", "s", "lower", SETUP),
    layer("statevector.compile_s", "s", "lower", SETUP),
    layer("tensornet.compile_s", "s", "lower", SETUP),
    layer("stabilizer.frame_build_s", "s", "lower", SETUP),
    layer("service.cold_job_s", "s", "lower", SETUP),
    layer("circuit.fusion_reduction", "ratio", "higher", SHARING),
    layer("core.tree_sharing_ratio", "ratio", "higher", SHARING),
    layer("core.prep_ops_saved", "count", "higher", SHARING),
    layer("core.unique_traj_frac", "ratio", "lower", SHARING),
    layer("core.exec_s", "s", "lower", EXEC),
    layer("core.exec_flat_s_per_traj", "s", "lower", EXEC),
    layer("core.advance_s", "s", "lower", EXEC),
    layer("core.advance_calls", "count", "lower", EXEC),
    layer("core.fork_calls", "count", "lower", EXEC),
    layer("core.sample_s", "s", "lower", EXEC),
    layer("core.sample_calls", "count", "lower", EXEC),
    layer("core.pool_recycle_ratio", "ratio", "higher", EXEC),
    layer("core.prep_share", "ratio", "lower", "share of service.job1w_s in state preparation; confirms which workload a prep change can move"),
    layer("core.sample_share", "ratio", "lower", "share of service.job1w_s in sampling; confirms which workload a sampling change can move"),
    layer("core.alg1_shot_s", "s", "lower", "alg1_speedup (its denominator) on every workload"),
    layer("statevector.prepare_s", "s", "lower", SV_PREP),
    layer("statevector.sweep_gb_per_s", "GB/s", "higher", SV_PREP),
    layer("statevector.advance_batch_s", "s", "lower", SV_BATCH),
    layer("statevector.advance_batch_share", "ratio", "lower", SV_BATCH),
    layer("statevector.batch_lanes", "count", "higher", SV_BATCH),
    layer("statevector.batch_vs_scalar", "ratio", "higher", SV_BATCH),
    layer("statevector.kernel_impl", "code", "higher", SV_BATCH),
    layer("statevector.sample_shots_per_s", "shots/s", "higher", "shots_per_s, alg1_speedup on sv-sample; not on sv-divergent"),
    layer("tensornet.prepare_s", "s", "lower", TN),
    layer("tensornet.sample_shots_per_s", "shots/s", "higher", TN),
    layer("tensornet.max_bond", "count", "lower", TN),
    layer("tensornet.trunc_error", "ratio", "lower", TN),
    layer("math.svd_qr_s", "s", "lower", MATH),
    layer("math.qr_cp_s", "s", "lower", MATH),
    layer("math.svd_small_s", "s", "lower", MATH),
    layer("stabilizer.frame_shots_per_s", "shots/s", "higher", "shots_per_s on frame-bulk; 0 on every other workload"),
    layer("dataset.record_build_s", "s", "lower", DATASET),
    layer("dataset.binary_write_mb_per_s", "MB/s", "higher", DATASET),
    layer("dataset.sink_share", "ratio", "lower", DATASET),
    layer("dataset.jsonl_write_mb_per_s", "MB/s", "higher", DATASET_OTHER),
    layer("dataset.binary_read_mb_per_s", "MB/s", "higher", DATASET_OTHER),
    layer("dataset.bytes_per_shot_jsonl", "B/shot", "lower", DATASET_OTHER),
    layer("service.job1w_s", "s", "lower", SERVICE),
    layer("service.self_s", "s", "lower", SERVICE),
    layer("service.layers_cover_frac", "ratio", "higher", SERVICE),
    layer("service.scaling_eff", "ratio", "higher", SERVICE),
    layer("service.chunks", "count", "higher", SERVICE),
    layer("service.chunk_retries", "count", "lower", SERVICE),
    layer("service.cache_hit_rate", "ratio", "higher", SERVICE),
    layer("service.warm_compile_misses", "count", "lower", SERVICE),
    layer("service.record_gap_p99_s", "s", "lower", SERVICE),
    layer("service.job_p99_s", "s", "lower", "tail of job_p50_s on svc-small only (needs >= 1000 samples); 0 elsewhere"),
    layer("service.stage.queue-wait_s", "s", "lower", STAGE),
    layer("service.stage.route_s", "s", "lower", STAGE),
    layer("service.stage.compile_s", "s", "lower", STAGE),
    layer("service.stage.plan_s", "s", "lower", STAGE),
    layer("service.stage.prep_s", "s", "lower", STAGE),
    layer("service.stage.sample_s", "s", "lower", STAGE),
    layer("service.stage.sink_s", "s", "lower", STAGE),
    layer("service.stage_cover_frac", "ratio", "higher", STAGE),
    layer("telemetry.spans_overhead_frac", "ratio", "lower", STAGE),
    layer("proc.user_cpu_s", "s", "lower", PROC),
    layer("proc.sys_cpu_s", "s", "lower", PROC),
    layer("proc.sys_cpu_frac", "ratio", "lower", PROC),
    layer("proc.minor_faults", "count", "lower", PROC),
    layer("check.oracle_tvd", "ratio", "lower", "correctness: TVD of the engine's <=8-qubit companion to the density-matrix oracle"),
    layer("check.replay_matches", "count", "higher", "correctness: 1 when the layered replay reproduced the service's record bytes (frame: per-bit marginals within 5 sigma)"),
];

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
        .map_or("", |m| m.unit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonout::{get, get_f64, Value};

    fn table<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
        match get(doc, key) {
            Some(Value::Array(items)) => items,
            _ => panic!("BENCHMARK.json lacks {key}"),
        }
    }

    fn text<'a>(v: &'a Value, key: &str) -> &'a str {
        match get(v, key) {
            Some(Value::String(s)) => s,
            _ => panic!("missing string field {key} in {v:?}"),
        }
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m.better == "lower" || m.better == "higher");
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        assert!(PER_LAYER.len() <= 128);
        for (name, _) in STAGES {
            assert_eq!(unit_of(name), "s");
        }
    }

    #[test]
    fn benchmark_json_matches_the_catalogue() {
        // The sources build under two manifests (this directory's own and
        // `ptsbe_bench`'s), so the repository root is "the nearest ancestor
        // that holds BENCHMARK.json".
        let json = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .find_map(|dir| std::fs::read_to_string(dir.join("BENCHMARK.json")).ok())
            .expect("BENCHMARK.json above the manifest directory");
        let doc = crate::jsonout::parse(&json).expect("BENCHMARK.json parses");
        let Value::Object(fields) = &doc else {
            panic!("BENCHMARK.json is not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let e2e = table(&doc, "end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(END_TO_END) {
            assert_eq!(text(j, "name"), m.name);
            assert_eq!(text(j, "unit"), m.unit);
            assert_eq!(text(j, "better"), m.better);
            assert_eq!(get_f64(j, "bound"), m.bound);
        }
        let layers = table(&doc, "per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(PER_LAYER) {
            assert_eq!(text(j, "name"), m.name);
            assert_eq!(text(j, "unit"), m.unit);
            assert_eq!(text(j, "better"), m.better);
        }
        let workloads = table(&doc, "workloads");
        let names: Vec<&str> = workloads.iter().map(|w| text(w, "name")).collect();
        assert_eq!(names, crate::workloads::WORKLOAD_NAMES);
        for w in workloads {
            let why = text(w, "why");
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
        assert_eq!(
            get_f64(&doc, "run_seconds"),
            Some(crate::RUN_SECONDS as f64)
        );
    }
}
