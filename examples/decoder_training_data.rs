//! Generating labeled decoder-training data (the paper's §2.3
//! application) through the data-collection service.
//!
//! Encodes logical |0⟩ in the Steane code under circuit-level
//! depolarizing noise and submits two dataset jobs to the
//! [`ShotService`]: the first compiles and caches the workload, the
//! second (a fresh seed for a second corpus shard) runs entirely from
//! the warm cache. Records stream into a JSONL sink as chunks
//! finish; the shard is then read back and a lookup decoder is evaluated
//! against the ground-truth labels — the full data-generation →
//! training-corpus → decoder-evaluation loop an AlphaQubit-style
//! pipeline would consume.
//!
//! Run: `cargo run --release --example decoder_training_data`

use ptsbe::dataset::{decoder_export, jsonl, SharedBuffer};
use ptsbe::prelude::*;
use ptsbe::qec::encoding_circuit;
use std::sync::Arc;

fn main() {
    // 1. Workload: Steane-encoded |0⟩ memory, transversal measurement.
    let code = codes::steane();
    let enc = encoding_circuit(&code);
    let mut c = enc.circuit.clone();
    c.measure_all();
    let p = 0.01;
    let noisy = NoiseModel::new()
        .with_default_1q(channels::depolarizing(p))
        .with_default_2q(channels::depolarizing(p))
        .apply(&c);
    println!(
        "workload: {} memory, {} gates, {} noise sites, p = {p}",
        code.name(),
        c.gate_count(),
        noisy.n_sites()
    );

    // 2. PTS plan shared by both shards.
    let mut rng = PhiloxRng::new(4242, 0);
    let plan = ProbabilisticPts {
        n_samples: 3_000,
        shots_per_trajectory: 200,
        dedup: true,
    }
    .sample_plan(&noisy, &mut rng);
    let noisy = Arc::new(noisy);
    let plan = Arc::new(plan);

    // 3. Two dataset shards through the service: shard 0 compiles,
    //    shard 1 reuses every cached artifact. Spans mode so the
    //    cold/warm comparison decomposes per stage.
    let service: ShotService = ShotService::start(ServiceConfig {
        telemetry: Some(TelemetryConfig::from_env().unwrap_or_else(TelemetryConfig::spans)),
        ..ServiceConfig::default()
    });
    let mut shard_bytes = Vec::new();
    let mut prev = service.metrics();
    for (shard, seed) in [(0u32, 4242u64), (1, 4243)] {
        let buf = SharedBuffer::new();
        let spec = JobSpec::new(
            format!("steane-memory-shard{shard}"),
            Arc::clone(&noisy),
            Arc::clone(&plan),
            seed,
        );
        let report = service
            .submit(spec, Box::new(JsonlSink::new(buf.clone())))
            .expect("submit")
            .wait();
        // Interval rate over just this shard (shots_per_sec() would be
        // a lifetime mean, diluted by everything before it).
        let now = service.metrics();
        let rate = now.rate_since(&prev);
        prev = now;
        println!(
            "shard {shard}: engine = {} ({}), {} records / {} shots, {:.1} ms ({:.2e} shots/s over this shard)",
            report.engine.map(EngineKind::label).unwrap_or("?"),
            report.route_reason,
            report.records,
            report.shots,
            report.wall.as_secs_f64() * 1e3,
            rate.shots_per_sec,
        );
        shard_bytes.push(buf.bytes());
    }
    let stats = service.cache_stats();
    println!(
        "cache after both shards: {} hits / {} misses — shard 1 recompiled nothing",
        stats.compile_hits() + stats.tree_hits,
        stats.compile_misses() + stats.tree_misses,
    );

    // Per-stage cold/warm decomposition (job ids follow submission
    // order: shard 0 = job 1, shard 1 = job 2).
    let telemetry = ptsbe::telemetry::snapshot();
    if telemetry.mode == TelemetryMode::Spans {
        println!("\nper-stage breakdown (shard 0 = cold, shard 1 = warm):");
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
    }
    println!("\n{}", service.metrics().summary());

    // 4. Read shard 0 back (round-trip through the streamed JSONL).
    let (header, loaded) =
        jsonl::read(std::io::BufReader::new(&shard_bytes[0][..])).expect("parse");
    println!(
        "shard 0: {:.1} KiB JSONL, backend '{}', {} records",
        shard_bytes[0].len() as f64 / 1024.0,
        header.backend,
        loaded.len()
    );

    // 5. Supervised examples: (measurement record, injected errors).
    let examples = decoder_export::export_examples(&loaded);
    println!("supervised examples: {}", examples.len());

    // 6. Decoder evaluation against ground truth. The label tells us
    //    whether the trajectory's errors flipped the logical state; the
    //    decoder must recover logical 0 whenever the physical error
    //    weight is within its correction radius.
    let decoder = LookupDecoder::new(&code);
    let mut correct = 0usize;
    let mut failures = 0usize;
    let mut rejected = 0usize;
    for ex in &examples {
        match decoder.decode(ex.shot.0) {
            Some(false) => correct += 1,
            Some(true) => failures += 1,
            None => rejected += 1,
        }
    }
    let total = examples.len() as f64;
    println!("\nlookup decoder on labeled shots (true logical = 0):");
    println!(
        "  recovered |0̄⟩ : {:>8}  ({:.3}%)",
        correct,
        100.0 * correct as f64 / total
    );
    println!(
        "  logical error : {:>8}  ({:.3e})",
        failures,
        failures as f64 / total
    );
    println!("  uncorrectable : {:>8}", rejected);

    // 7. The provenance advantage: error weights by trajectory (labels a
    //    physical experiment could never provide).
    let summary = ptsbe::dataset::summary::summarize(&loaded);
    println!(
        "\nper-trajectory error-weight census: {:?}",
        summary.weight_census
    );
    println!("plan probability coverage: {:.4}", summary.coverage);
}
