//! Telemetry integration: span coverage of a job's wall time, output
//! neutrality with telemetry on/off, the process-wide mode (the last
//! service started wins), and the metrics counters nothing else asserts
//! (peak_active_jobs, engine census).
//!
//! Telemetry is a process global (one mode, one span ring), and libtest
//! runs tests on concurrent threads — every test here serializes on
//! [`telemetry_lock`] and resets the recorder before use. Timing tests
//! pin `faults: Some(FaultConfig::default())` so the CI fault-matrix
//! presets can't inflate their wall clocks, and set `telemetry`
//! explicitly so a CI `PTSBE_TELEMETRY` env can't flip their mode.

use ptsbe_circuit::{channels, Circuit, NoiseModel, NoisyCircuit};
use ptsbe_core::{ProbabilisticPts, PtsPlan, PtsSampler};
use ptsbe_dataset::{JsonlSink, SharedBuffer};
use ptsbe_rng::PhiloxRng;
use ptsbe_service::{
    EngineKind, EnginePolicy, FaultConfig, JobSpec, ServiceConfig, ShotService, Stage,
    TelemetryConfig, TelemetryMode,
};
use std::sync::{Mutex, MutexGuard};

fn telemetry_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// A plan-tree-friendly workload big enough that fixed scheduling gaps
/// (≈ 0.3 ms a job) are small against the measured stages: ≈ 6 ms warm.
/// At 10 000 shots a trajectory it was that size until bulk sampling
/// became O(2ⁿ) and the JSONL writer stopped allocating per shot.
fn tree_workload() -> (NoisyCircuit, PtsPlan) {
    let n = 8;
    let mut c = Circuit::new(n);
    for layer in 0..6 {
        for q in 0..n {
            c.h(q);
        }
        for q in 0..n - 1 {
            c.cx(q, q + 1);
        }
        if layer % 2 == 0 {
            c.t(0);
        }
    }
    c.measure_all();
    let nc = NoiseModel::new()
        .with_default_2q(channels::depolarizing2(1e-3))
        .apply(&c);
    let mut rng = PhiloxRng::new(99, 0);
    let plan = ProbabilisticPts {
        n_samples: 60,
        shots_per_trajectory: 50_000,
        dedup: true,
    }
    .sample_plan(&nc, &mut rng);
    (nc, plan)
}

fn pinned_config(mode: TelemetryConfig) -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        faults: Some(FaultConfig::default()),
        telemetry: Some(mode),
        ..ServiceConfig::default()
    }
}

/// The tentpole acceptance criterion: with spans on, a warm job's stage
/// spans (queue-wait, route, compile, prep, sample, sink) sum to within
/// 10% of its measured wall time, and the Chrome trace export carries
/// them as complete events.
#[test]
fn warm_job_spans_sum_to_wall() {
    let _g = telemetry_lock();
    ptsbe_telemetry::reset();
    let (nc, plan) = tree_workload();
    let spec = JobSpec::new("telemetry-warm", nc, plan, 5);
    let service: ShotService = ShotService::start(pinned_config(TelemetryConfig::spans()));

    let buf = SharedBuffer::new();
    let cold = service
        .submit(spec.clone(), Box::new(JsonlSink::new(buf.clone())))
        .unwrap()
        .wait();
    assert!(cold.status.is_success(), "{cold:?}");
    let buf2 = SharedBuffer::new();
    let warm = service
        .submit(spec, Box::new(JsonlSink::new(buf2.clone())))
        .unwrap()
        .wait();
    assert!(warm.status.is_success(), "{warm:?}");

    let snap = ptsbe_telemetry::snapshot();
    assert_eq!(snap.mode, TelemetryMode::Spans);
    // Job ids are submission-ordered: cold = 1, warm = 2. A warm job
    // performs no compile/plan (the route span would double-count them
    // on a cold job, which is why the criterion is stated warm).
    assert_eq!(
        snap.job_stage_nanos(2, Stage::Compile),
        0,
        "warm job compiled"
    );
    assert_eq!(
        snap.job_stage_nanos(2, Stage::Plan),
        0,
        "warm job re-planned"
    );
    let stages = [
        Stage::QueueWait,
        Stage::Route,
        Stage::Compile,
        Stage::Prep,
        Stage::Sample,
        Stage::SinkWrite,
    ];
    let sum: u64 = stages.iter().map(|s| snap.job_stage_nanos(2, *s)).sum();
    let wall = warm.wall.as_nanos() as u64;
    let ratio = sum as f64 / wall as f64;
    assert!(
        (0.9..=1.1).contains(&ratio),
        "stage spans cover {:.1}% of the warm job's {:?} wall (spans sum {:?})",
        ratio * 100.0,
        warm.wall,
        std::time::Duration::from_nanos(sum),
    );

    // The same spans export as Chrome complete events.
    let trace = snap.chrome_trace();
    assert!(trace.contains("\"ph\":\"X\""));
    assert!(trace.contains("\"name\":\"sample\""));
    assert!(
        snap.dropped_spans == 0,
        "ring wrapped during a two-job test"
    );
}

/// A split tree job explains its own cut: every plan-range chunk
/// records the build of its sub-trie as a `plan` span under its chunk
/// id, next to the one chunk-less whole-plan build the router did.
#[test]
fn split_tree_chunks_record_their_sub_trie_builds() {
    let _g = telemetry_lock();
    ptsbe_telemetry::reset();
    let (nc, plan) = tree_workload();
    let n = plan.n_trajectories();
    let mut spec = JobSpec::new("telemetry-split", nc, plan, 5)
        .with_engine(EnginePolicy::Force(EngineKind::Tree));
    spec.chunk_trajectories = n.div_ceil(3);
    let service: ShotService = ShotService::start(pinned_config(TelemetryConfig::spans()));
    let report = service
        .submit(spec, Box::new(JsonlSink::new(SharedBuffer::new())))
        .unwrap()
        .wait();
    assert!(report.status.is_success(), "{report:?}");
    assert_eq!(report.engine, Some(EngineKind::Tree));
    assert_eq!(report.chunks, 3, "{}", report.route_reason);

    let snap = ptsbe_telemetry::snapshot();
    let mut plan_chunks: Vec<Option<u32>> = snap
        .job_spans(report.job_id)
        .filter(|s| s.stage == Stage::Plan)
        .map(|s| s.chunk)
        .collect();
    plan_chunks.sort_unstable();
    assert_eq!(plan_chunks, vec![None, Some(0), Some(1), Some(2)]);
}

/// So does a split MPS job: each trie-order chunk builds the sub-trie of
/// its leaf run under its own chunk id (two workers — one would not cut).
#[test]
fn split_mps_chunks_record_their_sub_trie_builds() {
    let _g = telemetry_lock();
    ptsbe_telemetry::reset();
    let (nc, _) = tree_workload();
    let mut rng = PhiloxRng::new(98, 0);
    let plan = ProbabilisticPts {
        n_samples: 400,
        shots_per_trajectory: 4,
        dedup: true,
    }
    .sample_plan(&nc, &mut rng);
    let cut = ptsbe_core::PtsPlanTree::from_plan(&plan).leaf_chunks_of_at_least(&plan, 4);
    assert!(cut.len() >= 3, "{} leaf runs", cut.len());
    let mut spec = JobSpec::new("telemetry-split-mps", nc, plan, 5)
        .with_engine(EnginePolicy::Force(EngineKind::MpsTree));
    spec.chunk_trajectories = 4;
    let service: ShotService = ShotService::start(ServiceConfig {
        workers: 2,
        ..pinned_config(TelemetryConfig::spans())
    });
    let report = service
        .submit(spec, Box::new(JsonlSink::new(SharedBuffer::new())))
        .unwrap()
        .wait();
    assert!(report.status.is_success(), "{report:?}");
    assert_eq!(report.engine, Some(EngineKind::MpsTree));
    assert_eq!(report.chunks, cut.len() as u64, "{}", report.route_reason);

    let snap = ptsbe_telemetry::snapshot();
    let mut plan_chunks: Vec<Option<u32>> = snap
        .job_spans(report.job_id)
        .filter(|s| s.stage == Stage::Plan)
        .map(|s| s.chunk)
        .collect();
    plan_chunks.sort_unstable();
    let mut want = vec![None];
    want.extend((0..cut.len() as u32).map(Some));
    assert_eq!(plan_chunks, want);
}

/// Instrumentation must never touch output bytes: the same spec yields
/// byte-identical JSONL with telemetry off and spans.
/// (Faults stay `None` here so the CI fault matrix blankets this test
/// too — recovery is byte-neutral and so must telemetry be under it.)
#[test]
fn dataset_bytes_invariant_under_telemetry_mode() {
    let _g = telemetry_lock();
    let (nc, plan) = tree_workload();
    let spec = JobSpec::new("telemetry-bytes", nc, plan, 7);
    let mut outputs = Vec::new();
    for mode in [TelemetryConfig::off(), TelemetryConfig::spans()] {
        ptsbe_telemetry::reset();
        let service: ShotService = ShotService::start(ServiceConfig {
            workers: 2,
            telemetry: Some(mode),
            ..ServiceConfig::default()
        });
        let buf = SharedBuffer::new();
        let report = service
            .submit(spec.clone(), Box::new(JsonlSink::new(buf.clone())))
            .unwrap()
            .wait();
        assert!(report.status.is_success(), "{report:?}");
        outputs.push(buf.bytes());
    }
    assert_eq!(outputs[0], outputs[1], "spans mode changed dataset bytes");
}

/// Telemetry is one process-wide switch, not a per-service setting: the
/// last `ShotService::start` sets it for every service in the process.
/// A service started with spans records nothing once a later service
/// pins telemetry off.
#[test]
fn the_last_started_service_sets_telemetry_for_the_process() {
    let _g = telemetry_lock();
    ptsbe_telemetry::reset();
    let (nc, plan) = tree_workload();
    let a: ShotService = ShotService::start(pinned_config(TelemetryConfig::spans()));
    let _b: ShotService = ShotService::start(pinned_config(TelemetryConfig::off()));
    let report = a
        .submit(
            JobSpec::new("telemetry-last-start", nc, plan, 11),
            Box::new(JsonlSink::new(SharedBuffer::new())),
        )
        .unwrap()
        .wait();
    assert!(report.status.is_success(), "{report:?}");
    let snap = ptsbe_telemetry::snapshot();
    assert_eq!(snap.mode, TelemetryMode::Off);
    assert!(snap.spans.is_empty(), "service A recorded spans");
    assert!(
        snap.hists.iter().all(|h| h.count == 0),
        "service A fed the histograms"
    );
}

/// In off mode nothing is recorded — the histograms and ring stay empty
/// across a whole service run.
#[test]
fn off_mode_records_nothing_through_the_service() {
    let _g = telemetry_lock();
    ptsbe_telemetry::reset();
    let (nc, plan) = tree_workload();
    let spec = JobSpec::new("telemetry-off", nc, plan, 3);
    let service: ShotService = ShotService::start(pinned_config(TelemetryConfig::off()));
    let buf = SharedBuffer::new();
    let report = service
        .submit(spec, Box::new(JsonlSink::new(buf.clone())))
        .unwrap()
        .wait();
    assert!(report.status.is_success());
    let snap = ptsbe_telemetry::snapshot();
    assert!(snap.spans.is_empty());
    assert!(snap.hists.iter().all(|h| h.count == 0));
}

/// `peak_active_jobs` under concurrent submission: all jobs are
/// admitted before the single worker can finish the first, so the peak
/// must reach the submission burst size.
#[test]
fn peak_active_jobs_tracks_concurrent_submissions() {
    let _g = telemetry_lock();
    let (nc, plan) = tree_workload();
    let nc = std::sync::Arc::new(nc);
    let plan = std::sync::Arc::new(plan);
    let service: ShotService = ShotService::start(ServiceConfig {
        queue_capacity: 16,
        ..pinned_config(TelemetryConfig::off())
    });
    let n_jobs = 4;
    let handles: Vec<_> = (0..n_jobs)
        .map(|i| {
            service
                .submit(
                    JobSpec::new(
                        format!("peak-{i}"),
                        std::sync::Arc::clone(&nc),
                        std::sync::Arc::clone(&plan),
                        i as u64,
                    ),
                    Box::new(JsonlSink::new(SharedBuffer::new())),
                )
                .unwrap()
        })
        .collect();
    // The peak is visible as soon as the last submit returns (admission
    // increments before the worker can settle anything).
    let peak_at_burst = service.metrics().peak_active_jobs;
    for h in handles {
        assert!(h.wait().status.is_success());
    }
    let peak_final = service.metrics().peak_active_jobs;
    // Jobs take ~10ms each on one worker; submission takes microseconds,
    // so at most one job can have settled mid-burst.
    assert!(
        peak_at_burst >= n_jobs - 1,
        "peak {peak_at_burst} after submitting {n_jobs} concurrently"
    );
    assert!(peak_final >= peak_at_burst);
    assert!(peak_final <= n_jobs, "peak above admitted count");
}

/// The per-engine census totals must match the per-job `RouteDecision`s
/// the reports carry.
#[test]
fn engine_census_matches_route_decisions() {
    let _g = telemetry_lock();
    // Frame workload: Clifford + Pauli noise + deterministic reference.
    let mut pc = Circuit::new(3);
    pc.cx(0, 1).cx(0, 2).measure_all();
    let parity = NoiseModel::new()
        .with_default_2q(channels::depolarizing(0.02))
        .apply(&pc);
    let mut rng = PhiloxRng::new(17, 0);
    let parity_plan = ProbabilisticPts {
        n_samples: 20,
        shots_per_trajectory: 50,
        dedup: true,
    }
    .sample_plan(&parity, &mut rng);
    // Statevector workload (non-Clifford).
    let (tnc, tplan) = tree_workload();

    let service: ShotService = ShotService::start(pinned_config(TelemetryConfig::off()));
    let mut reports = Vec::new();
    for (i, (nc, plan)) in [(parity, parity_plan), (tnc, tplan)]
        .into_iter()
        .enumerate()
    {
        for seed in 0..2u64 {
            let spec = JobSpec::new(format!("census-{i}-{seed}"), nc.clone(), plan.clone(), seed);
            reports.push(
                service
                    .submit(spec, Box::new(JsonlSink::new(SharedBuffer::new())))
                    .unwrap()
                    .wait(),
            );
        }
    }
    let count = |kind: EngineKind| reports.iter().filter(|r| r.engine == Some(kind)).count() as u64;
    let m = service.metrics();
    for kind in EngineKind::ALL {
        assert_eq!(m.engines.get(kind), count(kind), "{kind:?}");
    }
    let census_total: u64 = EngineKind::ALL.iter().map(|&k| m.engines.get(k)).sum();
    assert_eq!(
        census_total,
        reports.len() as u64,
        "census missed a routed job"
    );
    assert!(reports.iter().all(|r| r.status.is_success()));
    // The workloads were chosen to actually split across engines.
    assert_eq!(m.engines.get(EngineKind::Frame), 2);
    assert_eq!(census_total - m.engines.get(EngineKind::Frame), 2);
}
