//! End-to-end dataset pipeline: generate → serialize (JSONL + binary) →
//! reload → decode — the "programmable data collection engine" loop.

use ptsbe::dataset::{binary, decoder_export, jsonl, record, summary};
use ptsbe::prelude::*;
use ptsbe::qec::encoding_circuit;

fn steane_memory_noisy(p: f64) -> NoisyCircuit {
    let code = codes::steane();
    let enc = encoding_circuit(&code);
    let mut c = enc.circuit.clone();
    c.measure_all();
    NoiseModel::new()
        .with_default_1q(channels::depolarizing(p))
        .with_default_2q(channels::depolarizing(p))
        .apply(&c)
}

#[test]
fn full_pipeline_jsonl_and_binary() {
    let noisy = steane_memory_noisy(0.01);
    let backend = SvBackend::<f64>::new(&noisy, SamplingStrategy::Auto).unwrap();
    let mut rng = PhiloxRng::new(930, 0);
    let plan = ProbabilisticPts {
        n_samples: 300,
        shots_per_trajectory: 64,
        dedup: true,
    }
    .sample_plan(&noisy, &mut rng);
    let result = BatchedExecutor::default().execute(&backend, &noisy, &plan);

    let header = DatasetHeader {
        workload: "steane-memory".into(),
        n_qubits: 7,
        n_measured: 7,
        backend: "statevector-f64".into(),
        seed: 930,
    };
    let records = record::records_from_batch(&result);

    // JSONL round trip.
    let mut buf = Vec::new();
    jsonl::write(&mut buf, &header, &records).unwrap();
    let (h2, loaded) = jsonl::read(std::io::BufReader::new(buf.as_slice())).unwrap();
    assert_eq!(h2, header);
    assert_eq!(loaded.len(), records.len());

    // Binary round trip.
    let bytes = binary::encode(&header, &records).unwrap();
    let (h3, loaded_bin) = binary::decode(bytes).unwrap();
    assert_eq!(h3, header);
    assert_eq!(loaded_bin.len(), records.len());
    for (a, b) in loaded.iter().zip(&loaded_bin) {
        assert_eq!(a.shots, b.shots);
        assert_eq!(a.meta.choices, b.meta.choices);
    }

    // Summaries agree with the in-memory result.
    let s = summary::summarize(&loaded);
    assert_eq!(s.n_trajectories, result.trajectories.len());
    assert_eq!(s.n_shots, result.total_shots());
    assert!((s.unique_fraction - result.unique_fraction()).abs() < 1e-12);
}

#[test]
fn labels_survive_and_decode_consistently() {
    let code = codes::steane();
    let noisy = steane_memory_noisy(0.02);
    let backend = SvBackend::<f64>::new(&noisy, SamplingStrategy::Auto).unwrap();
    let mut rng = PhiloxRng::new(931, 0);
    let plan = ProbabilisticPts {
        n_samples: 400,
        shots_per_trajectory: 32,
        dedup: true,
    }
    .sample_plan(&noisy, &mut rng);
    let result = BatchedExecutor::default().execute(&backend, &noisy, &plan);
    let records = record::records_from_batch(&result);
    let examples = decoder_export::export_examples(&records);
    assert_eq!(examples.len(), result.total_shots());

    // Error-free labeled shots must decode to logical 0 *exactly* (no
    // noise means bits form a codeword with trivial syndrome).
    let decoder = LookupDecoder::new(&code);
    let mut clean_checked = 0;
    for ex in examples.iter().filter(|e| e.errors.is_empty()) {
        let shot = ex.shot.0;
        assert_eq!(decoder.syndrome(shot), 0, "clean shot with syndrome");
        assert_eq!(decoder.decode(shot), Some(false));
        clean_checked += 1;
    }
    assert!(clean_checked > 0, "no clean trajectories sampled");
}

/// A bulk-sampled trajectory is a histogram: 200 000 shots of a 7-qubit
/// state are at most 128 runs on disk, and read back shot for shot.
#[test]
fn bulk_trajectory_round_trips_as_runs() {
    let noisy = steane_memory_noisy(0.01);
    let backend = SvBackend::<f64>::new(&noisy, SamplingStrategy::Auto).unwrap();
    let plan = ProbabilisticPts {
        n_samples: 1,
        shots_per_trajectory: 200_000,
        dedup: true,
    }
    .sample_plan(&noisy, &mut PhiloxRng::new(932, 0));
    let result = BatchedExecutor::default().execute(&backend, &noisy, &plan);
    let records = record::records_from_batch(&result);
    assert_eq!(records.len(), 1);
    assert_eq!(records[0].shots.len(), 200_000);
    let distinct: std::collections::BTreeSet<_> = records[0].shots.iter().map(|s| s.0).collect();
    assert!(distinct.len() > 1, "a codeword superposition");

    let header = DatasetHeader {
        workload: "steane-bulk".into(),
        n_qubits: 7,
        n_measured: 7,
        backend: "statevector-f64".into(),
        seed: 932,
    };
    let bytes = binary::encode(&header, &records).unwrap();
    let shotless = TrajectoryRecord {
        meta: records[0].meta.clone(),
        shots: vec![],
    };
    let framing = binary::encode(&header, &[shotless]).unwrap().len();
    // n_runs, then one (u64 word, u32 count) per distinct outcome.
    assert_eq!(bytes.len(), framing + 8 + 12 * distinct.len());
    let (h2, loaded) = binary::decode(&bytes).unwrap();
    assert_eq!(h2, header);
    assert_eq!(loaded[0].shots, records[0].shots);

    let mut text = Vec::new();
    jsonl::write(&mut text, &header, &records).unwrap();
    let (_, from_text) = jsonl::read(text.as_slice()).unwrap();
    assert_eq!(from_text[0].shots, records[0].shots);
}
