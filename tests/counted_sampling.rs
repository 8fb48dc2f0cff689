//! The counted sampler (`sampling::sample_counts`, what
//! `SamplingStrategy::Auto` takes from `m ≥ 2·2ⁿ`) behind an executor
//! must reproduce the exact noisy distribution. (That every executor
//! gets the same bytes from it is `batch_pool_equivalence.rs`' duty.)

use ptsbe::prelude::*;

/// Five qubits, three noise sites: two depolarizing (unitary mixture)
/// and one amplitude damping (state-dependent branch probabilities, so
/// the realized-probability weights matter) — 4·4·2 = 32 trajectories.
fn noisy_circuit() -> NoisyCircuit {
    let mut c = Circuit::new(5);
    c.h(0).t(0).cx(0, 1).h(2).cx(1, 2).s(2);
    c.cx(2, 3).h(3).t(3).cx(3, 4).ry(4, 0.7).measure_all();
    NoiseModel::new()
        .with_gate_noise("t", channels::depolarizing(0.08))
        .with_gate_noise("s", channels::amplitude_damping(0.3))
        .apply(&c)
}

fn histogram_meets_the_oracle<T: ptsbe::math::Scalar>(precision: &str) {
    let nc = noisy_circuit();
    let shots = 50_000;
    let outcomes = 1usize << 5;
    assert!(SamplingStrategy::Auto.is_counted(shots, outcomes));
    let plan = ExhaustivePts {
        shots_per_trajectory: shots,
        max_trajectories: 32,
    }
    .sample_plan(&nc, &mut PhiloxRng::new(0xC0, 0));
    assert_eq!(plan.trajectories.len(), 32);
    let backend = SvBackend::<T>::new(&nc, SamplingStrategy::Auto).unwrap();
    let result = BatchedExecutor::default().execute(&backend, &nc, &plan);
    let exact = DensityMatrix::evolve(&nc).probabilities();
    let hist = estimators::weighted_histogram(&result, outcomes);
    // p̂(x) = Σ_α p_α · count_α(x)/m over all 32 trajectories, each
    // count_α a multinomial of m shots. Σ_x Var p̂(x) ≤ v := Σ p_α²/m, so
    // E[TVD] ≤ ½√(K·v) (Cauchy–Schwarz over the K outcomes); one shot of
    // trajectory α moves the TVD by at most p_α/m, so (McDiarmid) the TVD
    // exceeds its mean by √(v·ln(1/δ)/2) with probability ≤ δ = 1e-9.
    let v: f64 = result
        .trajectories
        .iter()
        .map(|t| t.meta.realized_prob * t.meta.realized_prob / shots as f64)
        .sum();
    let bound = 0.5 * (outcomes as f64 * v).sqrt() + (v * 1e9f64.ln() / 2.0).sqrt();
    let measured = stats::tvd(&hist, &exact);
    assert!(
        measured <= bound,
        "{precision}: tvd {measured:.5} vs bound {bound:.5}"
    );
    // The bound has teeth: it separates the noisy distribution from the
    // one the identity trajectory alone would give.
    let identity = result
        .trajectories
        .iter()
        .find(|t| t.meta.choices.iter().all(|&k| k == 0))
        .expect("an exhaustive plan holds the identity trajectory");
    let ideal = estimators::weighted_histogram(
        &ptsbe::core::BatchResult {
            trajectories: vec![identity.clone()],
        },
        outcomes,
    );
    let noiseless = stats::tvd(&ideal, &exact);
    assert!(
        noiseless > 2.0 * bound,
        "{precision}: noiseless tvd {noiseless} vs bound {bound}"
    );
}

#[test]
fn counted_histogram_meets_the_density_matrix_diagonal() {
    histogram_meets_the_oracle::<f64>("f64");
    histogram_meets_the_oracle::<f32>("f32");
}
