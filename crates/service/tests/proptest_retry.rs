//! Property: a retried chunk is byte-identical to its first attempt.
//!
//! Every case forces each of the four engines in turn and runs the same
//! spec twice — fault-free, and under a full panic storm (every chunk's
//! first two attempts panic, optionally *after* computing its records:
//! the partial panic, all the work and none of the delivery). The
//! delivered dataset bytes must match exactly: chunk execution is a pure
//! function of (spec, chunk index), so recovery cannot leave a
//! fingerprint.

use proptest::prelude::*;
use ptsbe_circuit::{channels, Circuit, NoiseModel, NoisyCircuit};
use ptsbe_core::{ProbabilisticPts, PtsPlanTree, PtsSampler};
use ptsbe_dataset::{JsonlSink, SharedBuffer};
use ptsbe_rng::PhiloxRng;
use ptsbe_service::{EngineKind, EnginePolicy, FaultConfig, JobSpec, ServiceConfig, ShotService};

fn parity_circuit(p: f64) -> NoisyCircuit {
    let mut c = Circuit::new(3);
    c.cx(0, 1).cx(0, 2).cx(0, 1).measure_all();
    NoiseModel::new()
        .with_default_2q(channels::depolarizing(p))
        .apply(&c)
}

fn bell_circuit(p: f64) -> NoisyCircuit {
    let mut c = Circuit::new(2);
    c.h(0).cx(0, 1).measure_all();
    NoiseModel::new()
        .with_default_1q(channels::depolarizing(p))
        .with_default_2q(channels::depolarizing(p))
        .apply(&c)
}

/// A spec forcing `engine`, sized so batch engines split into several
/// chunks — the dense tree engine into one sub-trie per three
/// trajectories, the MPS tree engine (on more than one worker) into
/// leaf runs of at least three (the frame engine keeps its
/// deterministic-reference circuit).
fn spec_for(engine: EngineKind, n: usize, shots: usize, seed: u64) -> JobSpec {
    let nc = match engine {
        EngineKind::Frame => parity_circuit(0.05),
        _ => bell_circuit(0.1),
    };
    let mut rng = PhiloxRng::new(seed, 0);
    let plan = ProbabilisticPts {
        n_samples: n,
        shots_per_trajectory: shots,
        dedup: false,
    }
    .sample_plan(&nc, &mut rng);
    let mut spec = JobSpec::new("retry-prop", nc, plan, seed ^ 0xABCD)
        .with_engine(EnginePolicy::Force(engine));
    spec.chunk_trajectories = 3;
    spec.frame_chunk_shots = 16;
    spec
}

/// Dataset bytes and the job's chunk count.
fn run(spec: JobSpec, faults: FaultConfig, workers: usize) -> Result<(Vec<u8>, u64), String> {
    let service: ShotService = ShotService::start(ServiceConfig {
        workers,
        faults: Some(faults),
        ..ServiceConfig::default()
    });
    let buf = SharedBuffer::new();
    let handle = service
        .submit(spec, Box::new(JsonlSink::new(buf.clone())))
        .map_err(|e| e.to_string())?;
    let report = handle.wait();
    if !report.status.is_success() {
        return Err(format!("{report:?}"));
    }
    Ok((buf.bytes(), report.chunks))
}

const ENGINES: [EngineKind; 4] = [
    EngineKind::Frame,
    EngineKind::Tree,
    EngineKind::BatchMajor,
    EngineKind::MpsTree,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn retried_chunks_are_byte_identical_on_every_engine(
        seed in 0u64..500,
        n in 4usize..14,
        shots in 1usize..4,
        partial in prop::bool::ANY,
    ) {
        let storm = FaultConfig {
            chunk_panic: 1.0,
            panic_max_attempts: 2,
            partial_panic: if partial { 1.0 } else { 0.0 },
            ..FaultConfig::default()
        };
        for engine in ENGINES {
            let spec = spec_for(engine, n, shots, seed);
            let (baseline, chunks_1w) = run(spec.clone(), FaultConfig::default(), 1)
                .map_err(TestCaseError::fail)?;
            let (faulted, chunks) = run(spec.clone(), storm.clone(), 2)
                .map_err(TestCaseError::fail)?;
            prop_assert!(!baseline.is_empty(), "{engine:?}: empty baseline");
            match engine {
                EngineKind::Tree => prop_assert_eq!(chunks, n.div_ceil(3) as u64),
                EngineKind::MpsTree => {
                    // One worker never cuts; two cut between the trie's
                    // leaves, each chunk but the last of >= 3 trajectories.
                    prop_assert_eq!(chunks_1w, 1);
                    let cut = PtsPlanTree::from_plan(&spec.plan)
                        .leaf_chunks_of_at_least(&spec.plan, 3);
                    prop_assert_eq!(chunks, cut.len() as u64);
                    prop_assert!(chunks <= n.div_ceil(3) as u64, "{chunks} chunks of {n}");
                }
                _ => {}
            }
            prop_assert_eq!(
                &faulted,
                &baseline,
                "{:?}: retried bytes diverged (partial={})",
                engine,
                partial
            );
        }
    }
}
