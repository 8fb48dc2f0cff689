//! Quickstart: PTSBE through the data-collection service.
//!
//! Builds a 4-qubit GHZ circuit with depolarizing noise, pre-samples
//! trajectories with the paper's Algorithm 2, and submits the workload
//! to the [`ShotService`] — which compiles once into its artifact cache,
//! routes the job to the fastest valid engine, and streams labeled
//! records into an in-memory sink. A second submission of the same spec
//! runs entirely from cache (the hit counters prove it).
//!
//! Run: `cargo run --release --example quickstart`

use ptsbe::prelude::*;
use std::sync::Arc;

fn main() {
    // 1. The noisy circuit (paper Fig. 2: coherent gates + noise sites).
    let n = 4;
    let mut c = Circuit::new(n);
    c.h(0);
    for q in 0..n - 1 {
        c.cx(q, q + 1);
    }
    c.measure_all();
    let noisy = NoiseModel::new()
        .with_default_1q(channels::depolarizing(0.01))
        .with_default_2q(channels::depolarizing2(0.02))
        .apply(&c);
    println!(
        "circuit: {} qubits, {} gates, {} noise sites",
        noisy.n_qubits(),
        c.gate_count(),
        noisy.n_sites()
    );

    // 2. PTS: pre-sample unique Kraus sets, each with a big shot budget.
    let mut rng = PhiloxRng::new(2025, 0);
    let sampler = ProbabilisticPts {
        n_samples: 500,
        shots_per_trajectory: 20_000,
        dedup: true,
    };
    let plan = sampler.sample_plan(&noisy, &mut rng);
    println!(
        "PTS plan: {} unique trajectories, {} total shots, coverage {:.4}",
        plan.n_trajectories(),
        plan.total_shots(),
        plan.coverage(&noisy)
    );

    // 3. The service: compile-cache + adaptive routing + worker pool.
    //    One spec, submitted twice — the second run is the warm path.
    //    Spans mode so the cold/warm comparison decomposes per stage
    //    (PTSBE_TELEMETRY still wins if set).
    let service: ShotService = ShotService::start(ServiceConfig {
        telemetry: Some(TelemetryConfig::from_env().unwrap_or_else(TelemetryConfig::spans)),
        ..ServiceConfig::default()
    });
    let spec = JobSpec::new("quickstart-ghz", Arc::new(noisy), Arc::new(plan), 7);

    let (sink, store) = MemorySink::new();
    let report = service
        .submit(spec.clone(), Box::new(sink))
        .expect("submit")
        .wait();
    println!(
        "\ncold job: engine = {} ({}), {} records / {} shots in {:.1} ms ({:.2e} shots/s)",
        report.engine.map(EngineKind::label).unwrap_or("?"),
        report.route_reason,
        report.records,
        report.shots,
        report.wall.as_secs_f64() * 1e3,
        report.shots_per_sec(),
    );

    let (sink2, _) = MemorySink::new();
    let warm = service
        .submit(spec, Box::new(sink2))
        .expect("submit")
        .wait();
    let stats = service.cache_stats();
    println!(
        "warm job: {:.1} ms — cache hits {} / misses {} (hit rate {:.0}%): zero recompilation",
        warm.wall.as_secs_f64() * 1e3,
        stats.compile_hits() + stats.tree_hits,
        stats.compile_misses() + stats.tree_misses,
        stats.hit_rate() * 100.0,
    );

    // Where did the wall time go? Job ids are assigned in submission
    // order (cold = 1, warm = 2); each job's spans decompose its wall.
    let telemetry = ptsbe::telemetry::snapshot();
    if telemetry.mode == TelemetryMode::Spans {
        println!("\nper-stage breakdown (cold vs. warm):");
        println!("  {:<14} {:>12} {:>12}", "stage", "cold", "warm");
        for stage in Stage::ALL {
            let cold = telemetry.job_stage_nanos(1, stage);
            let hot = telemetry.job_stage_nanos(2, stage);
            if cold == 0 && hot == 0 {
                continue;
            }
            println!(
                "  {:<14} {:>12} {:>12}",
                stage.label(),
                ptsbe::telemetry::fmt_nanos(cold),
                ptsbe::telemetry::fmt_nanos(hot),
            );
        }
        println!("  (warm has no compile/plan rows: the cache ate them)");
    }
    if let Ok(path) = std::env::var("PTSBE_TRACE_OUT") {
        std::fs::write(&path, telemetry.chrome_trace()).expect("write trace");
        println!("wrote Chrome trace to {path} (open in chrome://tracing or ui.perfetto.dev)");
    }

    // The full service report: every counter + stage latency table.
    println!("\n{}", service.metrics().summary());

    // 4. What came out: labeled data.
    let store = store.lock().unwrap();
    println!("\nfirst trajectories (provenance labels):");
    for t in store.records.iter().take(5) {
        let labels: Vec<String> = t
            .meta
            .errors
            .iter()
            .map(|e| format!("{}@q{:?}(op{})", e.label, e.qubits, e.op_index))
            .collect();
        println!(
            "  #{:<3} p={:.2e}  errors: [{}]  shots: {}",
            t.meta.traj_id,
            t.meta.realized_prob,
            labels.join(", "),
            t.shots.len()
        );
    }

    // 5. Physics check: the weighted outcome distribution still looks
    //    GHZ. Normalize by the plan's covered probability mass (like
    //    estimators::weighted_histogram does) so bins are probabilities.
    let mut hist = vec![0.0f64; 1 << n];
    let covered: f64 = store.records.iter().map(|t| t.meta.realized_prob).sum();
    for t in &store.records {
        let w = t.meta.realized_prob / (covered * t.shots.len() as f64);
        for s in &t.shots {
            hist[s.0 as usize] += w;
        }
    }
    println!("\nweighted distribution (top outcomes):");
    let mut idx: Vec<usize> = (0..hist.len()).collect();
    idx.sort_by(|&a, &b| hist[b].partial_cmp(&hist[a]).unwrap());
    for &i in idx.iter().take(4) {
        println!("  |{i:04b}⟩  p = {:.4}", hist[i]);
    }
}
