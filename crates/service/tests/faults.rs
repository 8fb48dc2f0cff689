//! Fault-tolerance suite: every recovery path under deterministic
//! injected faults, pinned to the service's core contract — recovery is
//! byte-neutral. A faulted run of a valid job delivers dataset bytes
//! identical to the fault-free run.

use ptsbe_circuit::{channels, Circuit, NoiseModel, NoisyCircuit};
use ptsbe_core::{ProbabilisticPts, PtsPlan, PtsSampler};
use ptsbe_dataset::{
    BinarySink, DatasetHeader, JsonlSink, RecordSink, SharedBuffer, TrajectoryRecord,
};
use ptsbe_rng::PhiloxRng;
use ptsbe_service::{
    EngineKind, EnginePolicy, FaultConfig, JobReport, JobSpec, JobStatus, MetricsSnapshot,
    ServiceConfig, ShotService,
};
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn bell_circuit(p: f64) -> NoisyCircuit {
    let mut c = Circuit::new(2);
    c.h(0).cx(0, 1).measure_all();
    NoiseModel::new()
        .with_default_1q(channels::depolarizing(p))
        .with_default_2q(channels::depolarizing(p))
        .apply(&c)
}

/// Non-Clifford, saturated noise: Auto routes batch-major (low sharing),
/// which splits into many chunks — the interesting regime for retry,
/// kills, and deadlines.
fn t_circuit(p: f64) -> NoisyCircuit {
    let mut c = Circuit::new(3);
    c.h(0).t(0).cx(0, 1).t(1).cx(1, 2).measure_all();
    NoiseModel::new()
        .with_default_1q(channels::depolarizing(p))
        .with_default_2q(channels::depolarizing(p))
        .apply(&c)
}

fn plan_for(nc: &NoisyCircuit, n: usize, shots: usize, seed: u64) -> PtsPlan {
    let mut rng = PhiloxRng::new(seed, 0);
    ProbabilisticPts {
        n_samples: n,
        shots_per_trajectory: shots,
        dedup: false,
    }
    .sample_plan(nc, &mut rng)
}

/// A many-chunk job (batch-major, 3 trajectories per chunk).
fn chunked_spec(seed: u64) -> JobSpec {
    let nc = t_circuit(0.9);
    let plan = plan_for(&nc, 24, 4, 7);
    let mut spec = JobSpec::new("faults", nc, plan, seed);
    spec.chunk_trajectories = 3;
    spec
}

/// A dense tree job cut into eight 3-trajectory plan ranges, each
/// walked over its own sub-trie.
fn split_tree_spec(seed: u64) -> JobSpec {
    let nc = t_circuit(0.05);
    let plan = plan_for(&nc, 24, 4, 7);
    let mut spec = JobSpec::new("faults-tree", nc, plan, seed)
        .with_engine(EnginePolicy::Force(EngineKind::Tree));
    spec.chunk_trajectories = 3;
    spec
}

/// An MPS tree job cut in trie order into leaf runs of at least three
/// trajectories (saturated noise: nearly every trajectory is a leaf of
/// its own), whose chunks the emitter holds and merges.
fn split_mps_spec(seed: u64) -> JobSpec {
    let nc = t_circuit(0.9);
    let plan = plan_for(&nc, 24, 4, 7);
    let mut spec = JobSpec::new("faults-mps", nc, plan, seed)
        .with_engine(EnginePolicy::Force(EngineKind::MpsTree));
    spec.chunk_trajectories = 3;
    spec
}

/// Faults pinned OFF — explicit `Some(default)` beats any `PTSBE_FAULTS`
/// environment preset, so baselines stay fault-free even under the CI
/// fault matrix.
fn faultless(workers: usize) -> ServiceConfig {
    ServiceConfig {
        workers,
        faults: Some(FaultConfig::default()),
        ..ServiceConfig::default()
    }
}

fn faulted(f: FaultConfig, workers: usize) -> ServiceConfig {
    ServiceConfig {
        workers,
        faults: Some(f),
        ..ServiceConfig::default()
    }
}

/// How long one service lifecycle in [`run_with`] may take.
const WATCHDOG: Duration = Duration::from_secs(60);

/// One job on a fresh service. The whole lifecycle (start → submit →
/// wait → drop) runs on a helper thread, so a hang anywhere in it —
/// shutdown included — fails the test with the job's status and the
/// service's metrics instead of hanging the suite.
fn run_with(spec: JobSpec, cfg: ServiceConfig) -> (Vec<u8>, JobReport, MetricsSnapshot) {
    let (probe_tx, probe_rx) = mpsc::channel();
    let (settled_tx, settled_rx) = mpsc::channel();
    let (dropped_tx, dropped_rx) = mpsc::channel();
    let helper = std::thread::spawn(move || {
        let service: Arc<ShotService> = Arc::new(ShotService::start(cfg));
        let buf = SharedBuffer::new();
        let handle = Arc::new(
            service
                .submit(spec, Box::new(JsonlSink::new(buf.clone())))
                .unwrap(),
        );
        let _ = probe_tx.send((Arc::downgrade(&service), Arc::clone(&handle)));
        let _ = settled_tx.send((handle.wait(), service.metrics()));
        drop(service);
        let _ = dropped_tx.send(buf.bytes());
    });
    let deadline = Instant::now() + WATCHDOG;
    let left = || deadline.saturating_duration_since(Instant::now());
    let Ok((service, handle)) = probe_rx.recv() else {
        rethrow(helper)
    };
    let (report, metrics) = match settled_rx.recv_timeout(left()) {
        Ok(settled) => settled,
        Err(RecvTimeoutError::Disconnected) => rethrow(helper),
        Err(RecvTimeoutError::Timeout) => panic!(
            "job unsettled after {WATCHDOG:?}: status {}, metrics {:?}",
            handle.status(),
            service.upgrade().map(|s| s.metrics())
        ),
    };
    match dropped_rx.recv_timeout(left()) {
        Ok(bytes) => {
            helper.join().expect("the helper sent its result");
            (bytes, report, metrics)
        }
        Err(RecvTimeoutError::Disconnected) => rethrow(helper),
        Err(RecvTimeoutError::Timeout) => panic!(
            "service shutdown hung ({WATCHDOG:?} for the lifecycle): job status {}, metrics {metrics:?}",
            report.status
        ),
    }
}

/// Re-raise the panic that ended `helper` on the test thread.
fn rethrow(helper: std::thread::JoinHandle<()>) -> ! {
    match helper.join() {
        Err(payload) => std::panic::resume_unwind(payload),
        Ok(()) => unreachable!("the helper returns only after sending its result"),
    }
}

// ---------------------------------------------------------------------------
// Byte identity under every preset

#[test]
fn every_preset_delivers_identical_bytes() {
    presets_deliver_identical_bytes(chunked_spec);
}

/// Split tree chunks (one sub-trie per plan range) are retried, killed
/// and flaked like any other chunk, and recover as byte-neutrally.
#[test]
fn split_tree_chunks_recover_under_every_preset() {
    let (_, report, _) = run_with(split_tree_spec(42), faultless(2));
    assert_eq!(report.engine, Some(EngineKind::Tree));
    assert_eq!(report.chunks, 8, "{}", report.route_reason);
    presets_deliver_identical_bytes(split_tree_spec);
}

/// Trie-order MPS chunks recover like any other chunk — a retried,
/// requeued or late one lands in the emitter's held set under its own
/// index — and the merged delivery is as byte-neutral.
#[test]
fn split_mps_chunks_recover_under_every_preset() {
    let (_, report, _) = run_with(split_mps_spec(42), faultless(2));
    assert_eq!(report.engine, Some(EngineKind::MpsTree));
    assert!(report.chunks >= 6, "{}", report.route_reason);
    presets_deliver_identical_bytes(split_mps_spec);
}

fn presets_deliver_identical_bytes(spec: fn(u64) -> JobSpec) {
    let (baseline, report, _) = run_with(spec(42), faultless(2));
    assert!(report.status.is_success(), "{report:?}");
    assert!(!baseline.is_empty());

    let presets: &[(&str, FaultConfig)] = &[
        ("panic-storm", FaultConfig::panic_storm()),
        ("slow-chunk", FaultConfig::slow_chunk()),
        ("sink-flake", FaultConfig::sink_flake()),
        ("worker-kill", FaultConfig::worker_kill()),
        (
            "combined",
            FaultConfig::parse("panic-storm,sink-flake,worker-kill")
                .unwrap()
                .unwrap(),
        ),
    ];
    for (name, f) in presets {
        let (bytes, report, metrics) = run_with(spec(42), faulted(f.clone(), 3));
        assert!(
            report.status.is_success(),
            "{name}: job must recover, got {report:?}"
        );
        assert_eq!(
            bytes, baseline,
            "{name}: faulted bytes must match the fault-free run"
        );
        match *name {
            "panic-storm" => assert!(metrics.chunk_retries > 0, "storm must count retries"),
            "sink-flake" => assert!(
                metrics.sink_write_retries > 0,
                "flakes must count transient write retries"
            ),
            "worker-kill" => assert!(
                metrics.workers_respawned > 0,
                "kills must count respawned workers"
            ),
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Panics that escape a task

#[test]
fn killed_workers_respawn_without_losing_chunks() {
    // EVERY chunk's first attempt panics outside the retry guard: each
    // worker must catch it, requeue the chunk with its attempt bumped and
    // keep serving, and the finished dataset must still be byte-identical.
    let (baseline, _, _) = run_with(chunked_spec(5), faultless(1));
    let storm = FaultConfig {
        worker_kill: 1.0,
        kill_max_attempts: 1,
        ..FaultConfig::default()
    };
    let (bytes, report, metrics) = run_with(chunked_spec(5), faulted(storm, 2));
    assert_eq!(report.status, JobStatus::Done, "{report:?}");
    assert_eq!(bytes, baseline);
    assert!(
        metrics.workers_respawned >= 2,
        "every chunk killed a worker; got {} respawns",
        metrics.workers_respawned
    );
}

/// Sink that panics on its first record write.
struct PanickingSink {
    writes: usize,
}

impl RecordSink for PanickingSink {
    fn begin(&mut self, _header: &DatasetHeader) -> io::Result<()> {
        Ok(())
    }

    fn write(&mut self, _record: &TrajectoryRecord) -> io::Result<()> {
        self.writes += 1;
        assert!(self.writes > 1, "sink panics on its first write");
        Ok(())
    }

    fn finish(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// An organic panic outside the chunk retry guard: the sink panics
/// inside the job's emitter lock. That job fails with a typed internal
/// error (its emitter is poisoned, so its sink state is unknowable), and
/// the one worker survives to run the next job.
#[test]
fn a_panicking_sink_fails_its_job_and_the_worker_serves_on() {
    let service: ShotService = ShotService::start(faultless(1));
    let handle = service
        .submit(chunked_spec(17), Box::new(PanickingSink { writes: 0 }))
        .unwrap();
    let report = handle.wait();
    assert_eq!(report.status, JobStatus::Failed, "{report:?}");
    let error = report.error.as_deref().unwrap_or("");
    assert!(
        error.starts_with("internal service error:") && error.contains("emitter lock poisoned"),
        "{report:?}"
    );

    let buf = SharedBuffer::new();
    let next = service
        .submit(chunked_spec(17), Box::new(JsonlSink::new(buf.clone())))
        .unwrap()
        .wait();
    assert_eq!(next.status, JobStatus::Done, "{next:?}");
    assert!(!buf.bytes().is_empty());
}

// ---------------------------------------------------------------------------
// Deadlines

#[test]
fn deadline_exceeded_terminates_timed_out() {
    let spec = chunked_spec(9);
    let (_, full_report, _) = run_with(spec.clone(), faultless(1));
    let total_records = full_report.records;

    let crawl = FaultConfig {
        chunk_delay: 1.0,
        delay: Duration::from_millis(15),
        ..FaultConfig::default()
    };
    let spec = spec.with_deadline(Duration::from_millis(20));
    let (bytes, report, metrics) = run_with(spec, faulted(crawl, 1));
    assert_eq!(report.status, JobStatus::TimedOut, "{report:?}");
    assert_eq!(metrics.jobs_timed_out, 1);
    assert!(
        report.records < total_records,
        "a timed-out job must stop early ({} vs {total_records})",
        report.records
    );
    // Whatever was delivered before the expiry is a valid plan-order
    // prefix (possibly empty, if the deadline beat the planning task).
    if !bytes.is_empty() {
        ptsbe_dataset::jsonl::read(io::BufReader::new(bytes.as_slice())).unwrap();
    }
}

/// A split tree job stopped mid-way — by its deadline or by a cancel —
/// leaves whole plan ranges in plan order: the binary shard decodes as
/// a strict record prefix of the full run.
#[test]
fn stopped_split_tree_job_leaves_a_valid_plan_order_prefix() {
    let run = |spec: JobSpec, cfg: ServiceConfig, cancel_after_first_chunk: bool| {
        let service: ShotService = ShotService::start(cfg);
        let buf = SharedBuffer::new();
        let handle = service
            .submit(spec, Box::new(BinarySink::new(buf.clone())))
            .unwrap();
        if cancel_after_first_chunk {
            while handle.shots_emitted() == 0 && !handle.status().is_terminal() {
                std::thread::sleep(Duration::from_millis(1));
            }
            handle.cancel();
        }
        let report = handle.wait();
        (buf.bytes(), report)
    };
    let (full_bytes, full_report) = run(split_tree_spec(9), faultless(1), false);
    assert_eq!(full_report.status, JobStatus::Done);
    let (_, full) = ptsbe_dataset::binary::decode(full_bytes).unwrap();

    let crawl = FaultConfig {
        chunk_delay: 1.0,
        delay: Duration::from_millis(15),
        ..FaultConfig::default()
    };
    let timed = split_tree_spec(9).with_deadline(Duration::from_millis(50));
    for (label, spec, cancel, expect) in [
        ("deadline", timed, false, JobStatus::TimedOut),
        ("cancel", split_tree_spec(9), true, JobStatus::Cancelled),
    ] {
        let (bytes, report) = run(spec, faulted(crawl.clone(), 1), cancel);
        assert_eq!(report.status, expect, "{label}: {report:?}");
        assert!(report.records < full.len() as u64, "{label}: {report:?}");
        if bytes.is_empty() {
            continue; // the stop beat the first chunk
        }
        let len = bytes.len();
        let (_, records, prefix_len) = ptsbe_dataset::binary::decode_prefix(bytes).unwrap();
        assert_eq!(prefix_len, len, "{label}: torn frame in the shard");
        assert_eq!(records.len() as u64, report.records, "{label}");
        assert_eq!(records.len() % 3, 0, "{label}: a partial plan range");
        for (got, want) in records.iter().zip(&full) {
            assert_eq!(got.meta.traj_id, want.meta.traj_id, "{label}");
            assert_eq!(got.shots, want.shots, "{label}");
        }
    }
}

/// A split MPS job stopped mid-way commits nothing: its chunks are held
/// until the last one is in, so a deadline or a cancel leaves a valid
/// header-only shard (or no bytes at all), never part of a merge.
#[test]
fn stopped_split_mps_job_leaves_a_valid_empty_shard() {
    let crawl = FaultConfig {
        chunk_delay: 1.0,
        delay: Duration::from_millis(15),
        ..FaultConfig::default()
    };
    for (label, deadline, cancel, expect) in [
        ("deadline", Some(40), false, JobStatus::TimedOut),
        ("cancel", None, true, JobStatus::Cancelled),
    ] {
        let mut spec = split_mps_spec(9);
        spec.deadline = deadline.map(Duration::from_millis);
        let service: ShotService = ShotService::start(faulted(crawl.clone(), 2));
        let buf = SharedBuffer::new();
        let handle = service
            .submit(spec, Box::new(BinarySink::new(buf.clone())))
            .unwrap();
        if cancel {
            // Let the first pair of chunks park in the emitter.
            std::thread::sleep(Duration::from_millis(25));
            handle.cancel();
        }
        let report = handle.wait();
        assert_eq!(report.status, expect, "{label}: {report:?}");
        assert_eq!(report.records, 0, "{label}: {report:?}");
        let bytes = buf.bytes();
        if bytes.is_empty() {
            continue; // the stop beat the planning task
        }
        let len = bytes.len();
        let (header, records, prefix_len) = ptsbe_dataset::binary::decode_prefix(bytes).unwrap();
        assert_eq!(prefix_len, len, "{label}: torn frame in the shard");
        assert!(header.backend.starts_with("mps-tree"), "{label}");
        assert!(records.is_empty(), "{label}: part of a merge was written");
    }
}

// ---------------------------------------------------------------------------
// Engine degradation

#[test]
fn fatal_mps_failure_degrades_to_dense_fallback() {
    let nc = bell_circuit(0.02);
    let plan = plan_for(&nc, 20, 3, 3);
    let spec = JobSpec::new("degrade", nc, plan, 21);

    // Reference: the same spec Auto-routed on a default service lands on
    // a dense engine (2 qubits is far below the MPS threshold).
    let (dense_bytes, dense_report, _) = run_with(spec.clone(), faultless(2));
    assert!(dense_report.status.is_success());
    assert_ne!(dense_report.engine, Some(EngineKind::MpsTree));

    // Same spec, but the service is configured to prefer MPS for
    // everything — and MPS chunks fail fatally. The job must re-route
    // once onto the dense fallback and deliver identical bytes.
    let cfg = ServiceConfig {
        mps_qubit_threshold: 2,
        ..faulted(
            FaultConfig {
                mps_fatal: 1.0,
                ..FaultConfig::default()
            },
            2,
        )
    };
    let (bytes, report, metrics) = run_with(spec, cfg);
    assert_eq!(report.status, JobStatus::Done, "{report:?}");
    assert_eq!(
        report.engine, dense_report.engine,
        "{}",
        report.route_reason
    );
    assert!(
        report.route_reason.contains("degraded to a dense fallback"),
        "route must record the fallback: {}",
        report.route_reason
    );
    assert_eq!(metrics.engine_fallbacks, 1);
    assert_eq!(report.chunks, dense_report.chunks, "the fallback's cut");
    assert_eq!(bytes, dense_bytes, "degraded bytes must match a dense run");
}

/// Degradation stays exactly-once with several MPS chunks in flight:
/// whichever subset of them fails fatally — all, or some while healthy
/// siblings finish before, during and after the re-route (chunks are
/// slowed, so they fail together or arrive late) — the job falls back once,
/// reaches one terminal status, and its sink holds the dense run's bytes
/// with no record of the superseded plan.
#[test]
fn fatal_failure_of_split_mps_chunks_degrades_exactly_once() {
    let nc = bell_circuit(0.3);
    let plan = plan_for(&nc, 30, 3, 3);
    let mut spec = JobSpec::new("degrade-split", nc, plan, 21);
    spec.chunk_trajectories = 3;

    let (dense_bytes, dense_report, _) = run_with(spec.clone(), faultless(2));
    assert!(dense_report.status.is_success());
    assert_ne!(dense_report.engine, Some(EngineKind::MpsTree));

    // The same spec on a service that prefers MPS, fault-free: the job
    // this test degrades really is cut into several chunks.
    let prefers_mps = |cfg: ServiceConfig| ServiceConfig {
        mps_qubit_threshold: 2,
        ..cfg
    };
    let (_, mps_report, _) = run_with(spec.clone(), prefers_mps(faultless(2)));
    assert_eq!(mps_report.engine, Some(EngineKind::MpsTree));
    assert!(mps_report.chunks >= 4, "{}", mps_report.route_reason);

    // `chunk_delay` 1.0 makes the first chunk of every worker fail (or
    // finish) at the same moment; 0.5 staggers them.
    for (mps_fatal, chunk_delay) in [(1.0, 1.0), (1.0, 0.5), (0.6, 0.5), (0.3, 0.5)] {
        for workers in [2, 4] {
            for fault_seed in 0..4u64 {
                let faults = FaultConfig {
                    seed: 0xFA17 + fault_seed,
                    mps_fatal,
                    chunk_delay,
                    delay: Duration::from_millis(3),
                    ..FaultConfig::default()
                };
                let label = format!(
                    "mps_fatal {mps_fatal}, delay {chunk_delay}, {workers} workers, seed {fault_seed}"
                );
                let cfg = prefers_mps(faulted(faults, workers));
                let (bytes, report, metrics) = run_with(spec.clone(), cfg);
                if report.engine == Some(EngineKind::MpsTree) {
                    // This fault seed spared every chunk.
                    assert!(mps_fatal < 1.0, "{label}");
                    assert_eq!(report.status, JobStatus::Done, "{label}: {report:?}");
                    assert_eq!(metrics.engine_fallbacks, 0, "{label}");
                    continue;
                }
                assert_eq!(report.status, JobStatus::Done, "{label}: {report:?}");
                assert_eq!(report.engine, dense_report.engine, "{label}");
                assert!(
                    report.route_reason.contains("degraded to a dense fallback"),
                    "{label}: {}",
                    report.route_reason
                );
                assert_eq!(metrics.engine_fallbacks, 1, "{label}");
                assert_eq!((metrics.jobs_done, metrics.jobs_failed), (1, 0), "{label}");
                assert_eq!(report.chunks, dense_report.chunks, "{label}");
                assert_eq!(report.records, dense_report.records, "{label}");
                assert_eq!(bytes, dense_bytes, "{label}");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Cancellation / failure race

/// Sink whose N-th record write fails hard (not transiently), and which
/// counts `finish` calls so the suite can pin single-finalization.
struct FailingSink {
    writes: usize,
    fail_at: usize,
    finishes: Arc<AtomicUsize>,
}

impl RecordSink for FailingSink {
    fn begin(&mut self, _header: &DatasetHeader) -> io::Result<()> {
        Ok(())
    }

    fn write(&mut self, _record: &TrajectoryRecord) -> io::Result<()> {
        let n = self.writes;
        self.writes += 1;
        if n == self.fail_at {
            return Err(io::Error::other("disk full"));
        }
        Ok(())
    }

    fn finish(&mut self) -> io::Result<()> {
        self.finishes.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }
}

#[test]
fn cancel_cannot_overwrite_a_failed_verdict_or_double_flush() {
    let finishes = Arc::new(AtomicUsize::new(0));
    let service: ShotService = ShotService::start(faultless(1));
    let handle = service
        .submit(
            chunked_spec(13),
            Box::new(FailingSink {
                writes: 0,
                fail_at: 4,
                finishes: Arc::clone(&finishes),
            }),
        )
        .unwrap();
    let report = handle.wait();
    assert_eq!(report.status, JobStatus::Failed, "{report:?}");
    assert!(
        report.error.as_deref().unwrap_or("").contains("disk full"),
        "{report:?}"
    );

    // The race: a cancel arriving after the failure verdict (and after
    // partial sink delivery) must neither flip the status nor finalize
    // the sink a second time.
    handle.cancel();
    drop(service); // drain remaining chunks to their terminal no-ops
    assert_eq!(handle.status(), JobStatus::Failed);
    assert_eq!(
        finishes.load(Ordering::SeqCst),
        1,
        "the sink must be finalized exactly once"
    );
}

// ---------------------------------------------------------------------------
// Config/environment precedence

#[test]
fn explicit_fault_config_wins_over_env_presets() {
    let saved = std::env::var("PTSBE_FAULTS").ok();
    std::env::set_var("PTSBE_FAULTS", "panic-storm");

    // Config left unset: the environment preset applies.
    let cfg = ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    };
    let (_, report, metrics) = run_with(chunked_spec(8), cfg);
    assert!(report.status.is_success());
    assert!(metrics.chunk_retries > 0, "env preset must be active");

    // Explicit default config: faults pinned OFF despite the env.
    let (_, report, metrics) = run_with(chunked_spec(8), faultless(2));
    assert!(report.status.is_success());
    assert_eq!(metrics.chunk_retries, 0, "explicit config must win");

    match saved {
        Some(v) => std::env::set_var("PTSBE_FAULTS", v),
        None => std::env::remove_var("PTSBE_FAULTS"),
    }
}
