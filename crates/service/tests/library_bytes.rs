//! The service's records equal the direct library call, engine by
//! engine: whatever the service does between `submit` and the sink
//! (routing, cache, chunking, reorder) is anchored here to the executors
//! and samplers a caller could run by hand, not only to the service's
//! other engines.
//!
//! Every circuit is Clifford gates plus Pauli channels, so amplitudes
//! and branch weights are exact dyadic arithmetic and the comparison does
//! not depend on the platform's libm.

use ptsbe_circuit::{channels, Circuit, NoiseModel, NoisyCircuit};
use ptsbe_core::{BatchedExecutor, MpsBackend, ProbabilisticPts, PtsPlan, PtsSampler, SvBackend};
use ptsbe_dataset::{MemorySink, ShotWord, TrajectoryRecord};
use ptsbe_rng::PhiloxRng;
use ptsbe_service::{EngineKind, EnginePolicy, JobReport, JobSpec, ServiceConfig, ShotService};
use ptsbe_stabilizer::FrameSampler;
use ptsbe_statevector::SamplingStrategy;
use ptsbe_tensornet::MpsConfig;

const SEED: u64 = 0x5EED_0019;

/// Frame domain: no Hadamard before measurement, so the noiseless
/// reference is measurement-deterministic.
fn parity_circuit() -> NoisyCircuit {
    let mut c = Circuit::new(5);
    c.x(0).cx(0, 1).cx(1, 2).cx(2, 3).cx(3, 4).cz(0, 4);
    c.measure_all();
    NoiseModel::new()
        .with_default_1q(channels::bit_flip(0.05))
        .with_default_2q(channels::depolarizing(0.05))
        .apply(&c)
}

/// Clifford with a random reference (superpositions at measurement):
/// every engine but the frame sampler.
fn clifford_circuit() -> NoisyCircuit {
    let mut c = Circuit::new(5);
    c.h(0).cx(0, 1).s(1).h(2).cz(1, 2).cx(2, 3).sdg(3).h(4);
    c.cx(4, 0).y(2).swap(1, 3);
    c.measure_all();
    NoiseModel::new()
        .with_default_1q(channels::pauli(0.03, 0.02, 0.04))
        .with_default_2q(channels::depolarizing(0.08))
        .apply(&c)
}

fn plan_for(nc: &NoisyCircuit, n_samples: usize, shots: usize) -> PtsPlan {
    let mut rng = PhiloxRng::new(41, 0);
    ProbabilisticPts {
        n_samples,
        shots_per_trajectory: shots,
        dedup: false,
    }
    .sample_plan(nc, &mut rng)
}

fn run(spec: JobSpec, workers: usize) -> (Vec<TrajectoryRecord>, JobReport) {
    let service: ShotService = ShotService::start(ServiceConfig {
        workers,
        ..ServiceConfig::default()
    });
    let (sink, store) = MemorySink::new();
    let report = service.submit(spec, Box::new(sink)).unwrap().wait();
    assert!(report.status.is_success(), "{report:?}");
    let records = std::mem::take(&mut store.lock().unwrap().records);
    (records, report)
}

/// What a caller gets from the flat executor, as dataset records.
fn library_records<B: ptsbe_core::Backend>(
    backend: &B,
    nc: &NoisyCircuit,
    plan: &PtsPlan,
) -> Vec<TrajectoryRecord> {
    BatchedExecutor {
        seed: SEED,
        parallel: false,
    }
    .execute(backend, nc, plan)
    .trajectories
    .into_iter()
    .map(TrajectoryRecord::from)
    .collect()
}

fn assert_same_records(got: &[TrajectoryRecord], want: &[TrajectoryRecord], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: record count");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.meta.traj_id, i, "{what}: plan order at record {i}");
        assert_eq!(g.meta.traj_id, w.meta.traj_id, "{what}: traj_id {i}");
        assert_eq!(g.meta.choices, w.meta.choices, "{what}: choices {i}");
        assert_eq!(
            g.meta.realized_prob.to_bits(),
            w.meta.realized_prob.to_bits(),
            "{what}: realized_prob bits {i}"
        );
        assert_eq!(
            g.meta.nominal_prob.to_bits(),
            w.meta.nominal_prob.to_bits(),
            "{what}: nominal_prob bits {i}"
        );
        assert_eq!(g.meta.errors, w.meta.errors, "{what}: errors {i}");
        assert_eq!(
            g.meta.truncation, w.meta.truncation,
            "{what}: truncation {i}"
        );
        assert_eq!(g.shots, w.shots, "{what}: shots {i}");
    }
}

/// Frame chunk `i` is the bulk sampler on the Philox stream of the
/// chunk ordinal, over the reference the cache derives from the circuit
/// hash — one record per chunk, ragged tail included.
#[test]
fn frame_chunks_are_the_sampler_on_the_chunk_ordinal_stream() {
    let nc = parity_circuit();
    let plan = plan_for(&nc, 12, 102); // 1224 shots = 512 + 512 + 200
    assert_eq!(plan.total_shots(), 1224);
    let mut spec = JobSpec::new("frame", nc.clone(), plan, SEED);
    spec.frame_chunk_shots = 512;
    let (records, report) = run(spec, 2);
    assert_eq!(report.engine, Some(EngineKind::Frame));
    assert_eq!(report.chunks, 3);
    assert_eq!(report.shots, 1224);

    let sampler = FrameSampler::new(&nc, &mut PhiloxRng::new(nc.content_hash(), 0)).unwrap();
    assert_eq!(records.len(), 3);
    for (i, (rec, shots)) in records.iter().zip([512usize, 512, 200]).enumerate() {
        let want = sampler.sample(shots, &mut PhiloxRng::for_trajectory(SEED, i as u64));
        assert_eq!(rec.meta.traj_id, i);
        assert!(rec.meta.choices.is_empty() && rec.meta.errors.is_empty());
        assert_eq!(rec.meta.realized_prob.to_bits(), 1f64.to_bits());
        assert_eq!(rec.shots, ShotWord::wrap(want.shots), "chunk {i}");
    }
    // The two full chunks differ only by their stream key.
    assert_ne!(records[0].shots, records[1].shots);
}

/// A mid-circuit measurement makes the collapse draw part of the stream
/// every later site reads from (`x(0)`'s bit flip at p = 0.1 takes the
/// bit-sliced mask path, the rest the sparse one): the records still do
/// not depend on the worker count and equal the direct sampler call.
#[test]
fn frame_mid_circuit_measurement_is_worker_independent_and_equals_the_sampler() {
    let mut c = Circuit::new(2);
    c.x(0).measure(&[0]).cx(0, 1).measure(&[1]);
    let nc = NoiseModel::new()
        .with_default_1q(channels::bit_flip(0.1))
        .with_default_2q(channels::depolarizing2(0.02))
        .apply(&c);
    let plan = plan_for(&nc, 10, 130); // 1300 shots = 512 + 512 + 276
    let sampler = FrameSampler::new(&nc, &mut PhiloxRng::new(nc.content_hash(), 0)).unwrap();
    assert!(!sampler.reference_was_random());
    let want: Vec<Vec<ShotWord>> = [512usize, 512, 276]
        .into_iter()
        .enumerate()
        .map(|(i, shots)| {
            let mut rng = PhiloxRng::for_trajectory(SEED, i as u64);
            ShotWord::wrap(sampler.sample(shots, &mut rng).shots)
        })
        .collect();
    // Both record bits see noise, so the streams are really consumed.
    for bit in 0..2 {
        let ones = want[0].iter().filter(|w| (w.0 >> bit) & 1 == 1).count();
        assert!((1..512).contains(&ones), "bit {bit}: {ones} of 512");
    }
    for workers in [1, 2, 4] {
        let mut spec = JobSpec::new("frame-mid", nc.clone(), plan.clone(), SEED);
        spec.frame_chunk_shots = 512;
        let (records, report) = run(spec, workers);
        assert_eq!(report.engine, Some(EngineKind::Frame), "{workers} workers");
        let got: Vec<&Vec<ShotWord>> = records.iter().map(|r| &r.shots).collect();
        assert_eq!(got, want.iter().collect::<Vec<_>>(), "{workers} workers");
    }
}

/// The three dense engines, cut into small ragged chunks over two
/// workers, deliver what one flat `BatchedExecutor::execute` on a
/// freshly compiled backend returns — with the shots of a trajectory
/// below `Auto`'s switch to the counted sampler (2·2⁵) and above it.
#[test]
fn dense_engines_equal_the_flat_executor_on_a_fresh_backend() {
    let nc = clifford_circuit();
    for shots in [40, 400] {
        assert_eq!(
            SamplingStrategy::Auto.is_counted(shots, 1 << 5),
            shots == 400
        );
        let plan = plan_for(&nc, 23, shots);
        let backend = SvBackend::<f64>::new_with_fusion(&nc, SamplingStrategy::Auto, true).unwrap();
        let want = library_records(&backend, &nc, &plan);
        assert_eq!(want.len(), 23);
        for engine in [EngineKind::Tree, EngineKind::BatchMajor, EngineKind::Flat] {
            let mut spec = JobSpec::new("dense", nc.clone(), plan.clone(), SEED)
                .with_engine(EnginePolicy::Force(engine));
            spec.chunk_trajectories = 5; // 5 chunks, the last of 3
            let (records, report) = run(spec, 2);
            assert_eq!(report.engine, Some(engine));
            assert_eq!(report.chunks, 5, "{engine:?}");
            assert_same_records(&records, &want, engine.label());
        }
    }
}

/// The MPS tree engine — one pooled walk over the cached trie, and cut
/// in trie order into leaf runs of at least four trajectories whose
/// records the emitter merges back into plan order — against the flat
/// executor on a fresh `MpsBackend`.
#[test]
fn mps_tree_equals_the_flat_executor_on_a_fresh_backend() {
    let nc = clifford_circuit();
    let plan = plan_for(&nc, 17, 30);
    let config = MpsConfig::new(16);
    let backend =
        MpsBackend::<f64>::new_with_fusion(&nc, config, Default::default(), true).unwrap();
    let want = library_records(&backend, &nc, &plan);
    assert!(want.iter().all(|r| r.meta.truncation.is_some()));
    for chunk_trajectories in [0, 4] {
        let mut spec = JobSpec::new("mps", nc.clone(), plan.clone(), SEED)
            .with_engine(EnginePolicy::Force(EngineKind::MpsTree));
        spec.mps = config;
        spec.chunk_trajectories = chunk_trajectories;
        let (records, report) = run(spec, 2);
        assert_eq!(report.engine, Some(EngineKind::MpsTree));
        if chunk_trajectories == 0 {
            assert_eq!(report.chunks, 1, "{}", report.route_reason);
        } else {
            assert!((2..=4).contains(&report.chunks), "{}", report.route_reason);
        }
        assert_same_records(&records, &want, "mps-tree");
    }
}
