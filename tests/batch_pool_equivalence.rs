//! Cross-path equivalence: batch-major and pooled prefix-tree execution
//! must produce **bitwise identical** measurement bitstreams (and
//! realized probabilities) to the scalar flat executor, on both
//! backends, across the circuit zoo — fused kernels, Clifford fast
//! paths, Toffoli (k-qubit gather), general channels, duplicate
//! assignments, and both precisions.
//!
//! This is the contract that lets the executors be swapped freely: any
//! drift in arithmetic (kernel form, norm accumulation order, Philox
//! stream keying) shows up here as a hard failure, not a statistical
//! blur.

use ptsbe::prelude::*;
use ptsbe::tensornet::MpsConfig;

fn zoo() -> Vec<(&'static str, NoisyCircuit)> {
    let mut out = Vec::new();

    // GHZ + depolarizing everywhere (Clifford fast paths, segments of 1).
    let mut c = Circuit::new(4);
    c.h(0).cx(0, 1).cx(1, 2).cx(2, 3).measure_all();
    out.push((
        "ghz_depolarizing",
        NoiseModel::new()
            .with_default_1q(channels::depolarizing(0.08))
            .with_default_2q(channels::depolarizing(0.12))
            .apply(&c),
    ));

    // Magic-state-flavored layers, entangler-only noise: long 1q runs
    // feed the fuser, so the stream exercises D1/D2/P1/P2 kernels.
    let mut c = Circuit::new(5);
    for q in 0..5 {
        c.h(q).t(q);
    }
    c.cx(0, 1).cz(1, 2).swap(2, 3).cx(3, 4);
    for q in 0..5 {
        c.s(q).rz(q, 0.3 + q as f64);
    }
    c.cx(4, 0).measure_all();
    out.push((
        "fused_entangler_noise",
        NoiseModel::new()
            .with_default_2q(channels::depolarizing2(0.1))
            .apply(&c),
    ));

    // Amplitude damping: general channels with state-dependent branch
    // probabilities — the per-lane Kraus-normalization path.
    let mut c = Circuit::new(3);
    c.h(0).cx(0, 1).t(1).cx(1, 2).measure_all();
    out.push((
        "amplitude_damping",
        NoiseModel::new()
            .with_default_1q(channels::amplitude_damping(0.25))
            .with_default_2q(channels::amplitude_damping(0.2))
            .apply(&c),
    ));

    // Toffoli: the k-qubit gather kernel on the statevector path.
    let mut c = Circuit::new(3);
    c.h(0).h(1).ccx(0, 1, 2).measure_all();
    out.push((
        "toffoli_gather",
        NoiseModel::new()
            .with_default_1q(channels::depolarizing(0.1))
            .apply(&c),
    ));

    out
}

fn plan_with_shots(nc: &NoisyCircuit, seed: u64, shots: usize) -> PtsPlan {
    let mut rng = PhiloxRng::new(seed, 0);
    ProbabilisticPts {
        n_samples: 40,
        shots_per_trajectory: shots,
        dedup: false, // duplicates exercise shared leaves + ragged groups
    }
    .sample_plan(nc, &mut rng)
}

fn plan_for(nc: &NoisyCircuit, seed: u64) -> PtsPlan {
    plan_with_shots(nc, seed, 30)
}

/// Shots per trajectory on either side of `SamplingStrategy::Auto`'s
/// switch from the sorted merge to the counted sampler (`m ≥ 2·2ⁿ`; the
/// zoo is 3–5 qubits wide): 30 is the merge from 4 qubits up, 3 000 is
/// counted everywhere.
const SHOTS_BOTH_SAMPLERS: [usize; 2] = [30, 3_000];

fn assert_bitwise(label: &str, a: &ptsbe::core::BatchResult, b: &ptsbe::core::BatchResult) {
    assert_eq!(
        a.trajectories.len(),
        b.trajectories.len(),
        "{label}: length"
    );
    for (x, y) in a.trajectories.iter().zip(&b.trajectories) {
        assert_eq!(x.meta.traj_id, y.meta.traj_id, "{label}: stream key");
        assert_eq!(x.meta.choices, y.meta.choices, "{label}: assignment");
        assert_eq!(
            x.meta.realized_prob.to_bits(),
            y.meta.realized_prob.to_bits(),
            "{label}: realized probability must be bitwise identical"
        );
        assert_eq!(
            x.shots, y.shots,
            "{label}: bitstreams must be bitwise identical"
        );
    }
}

#[test]
fn batch_major_and_pooled_tree_match_flat_on_statevector() {
    for ((name, nc), shots) in zoo()
        .into_iter()
        .flat_map(|case| SHOTS_BOTH_SAMPLERS.map(|shots| (case.clone(), shots)))
    {
        let backend = SvBackend::<f64>::new(&nc, SamplingStrategy::Auto).unwrap();
        let plan = plan_with_shots(&nc, 0xA11CE, shots);
        let tree = PtsPlanTree::from_plan(&plan);
        let flat = BatchedExecutor {
            seed: 17,
            parallel: false,
        }
        .execute(&backend, &nc, &plan);

        for parallel in [false, true] {
            let pool = StatePool::new();
            let pooled_tree = TreeExecutor { seed: 17, parallel }
                .execute_tree_pooled(&backend, &nc, &plan, &tree, &pool);
            assert_bitwise(&format!("{name}/tree(par={parallel})"), &pooled_tree, &flat);
            let stats = pool.stats();
            assert_eq!(
                pool.parked(),
                stats.released - stats.recycled,
                "{name}: every released state is either parked or recycled, none lost"
            );
            for lanes in [1usize, 5, 16] {
                let batched = BatchMajorExecutor {
                    seed: 17,
                    parallel,
                    lanes,
                    ..Default::default()
                }
                .execute(&backend, &nc, &plan);
                assert_bitwise(
                    &format!("{name}/batch(lanes={lanes},par={parallel})"),
                    &batched,
                    &flat,
                );
            }
        }
    }
}

#[test]
fn batch_major_matches_flat_on_f32() {
    for ((name, nc), shots) in zoo()
        .into_iter()
        .flat_map(|case| SHOTS_BOTH_SAMPLERS.map(|shots| (case.clone(), shots)))
    {
        let backend = SvBackend::<f32>::new(&nc, SamplingStrategy::Auto).unwrap();
        let plan = plan_with_shots(&nc, 0xF32, shots);
        let flat = BatchedExecutor {
            seed: 23,
            parallel: false,
        }
        .execute(&backend, &nc, &plan);
        let batched = BatchMajorExecutor {
            seed: 23,
            parallel: false,
            lanes: 7,
            ..Default::default()
        }
        .execute(&backend, &nc, &plan);
        assert_bitwise(&format!("{name}/f32"), &batched, &flat);
    }
}

#[test]
fn pooled_tree_matches_flat_on_mps() {
    // MPS sampling mutates the state (gauge moves), so shared leaves
    // fork per duplicate — the per-leaf pooled fork/release path.
    for (name, nc) in zoo() {
        let config = MpsConfig::exact().with_max_bond(32);
        let backend =
            MpsBackend::<f64>::new(&nc, config, ptsbe::core::backend::MpsSampleMode::default())
                .unwrap();
        let plan = plan_for(&nc, 0x3B5);
        let tree = PtsPlanTree::from_plan(&plan);
        let flat = BatchedExecutor {
            seed: 29,
            parallel: false,
        }
        .execute(&backend, &nc, &plan);
        for parallel in [false, true] {
            let pool = StatePool::new();
            let pooled = TreeExecutor { seed: 29, parallel }
                .execute_tree_pooled(&backend, &nc, &plan, &tree, &pool);
            assert_bitwise(&format!("{name}/mps(par={parallel})"), &pooled, &flat);
            assert!(
                pool.stats().released > 0,
                "{name}: MPS leaves must release their tensors to the pool"
            );
        }
    }
}

#[test]
fn warm_pool_runs_are_reproducible() {
    // Re-running on an already-warm pool (buffers dirty with a previous
    // run's amplitudes) must not perturb a single bit.
    let (_, nc) = zoo().remove(1);
    let backend = SvBackend::<f64>::new(&nc, SamplingStrategy::Auto).unwrap();
    let plan = plan_for(&nc, 0x5EED);
    let tree = PtsPlanTree::from_plan(&plan);
    let exec = TreeExecutor {
        seed: 31,
        parallel: false,
    };
    let pool = StatePool::new();
    let first = exec.execute_tree_pooled(&backend, &nc, &plan, &tree, &pool);
    let second = exec.execute_tree_pooled(&backend, &nc, &plan, &tree, &pool);
    assert_bitwise("warm pool", &second, &first);
    let stats = pool.stats();
    assert!(stats.recycled > 0, "warm run must have reused buffers");
}
