//! Bulk-sampling ablation: sorted-uniform inversion vs. multinomial
//! counts — the design choice behind Batched Execution's amortized shot
//! cost, and the measurement `SamplingStrategy::Auto`'s crossover is read
//! from (quoted in `ptsbe_statevector::sampling`'s module doc). The
//! uniform state is the counted sampler's worst case: every amplitude
//! carries mass, so none of the 2ⁿ binomials is skipped.
//!
//! The `shared_state` group is the tree executor's leaf: `k` trajectories
//! of 16 shots ending on one 14-qubit state (`sv-shared`'s shape), drawn
//! by `k` per-request `SvBackend::sample` calls against one
//! `SvBackend::sample_batch` call, which sums the state once for all `k`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ptsbe_circuit::{Circuit, NoiseModel};
use ptsbe_core::{Backend, SvBackend};
use ptsbe_math::gates;
use ptsbe_rng::PhiloxRng;
use ptsbe_statevector::{sampling, SamplingStrategy, StateVector};
use std::hint::black_box;

fn uniform_state(n: usize) -> StateVector<f64> {
    let mut sv = StateVector::zero_state(n);
    for q in 0..n {
        sv.apply_1q(&gates::h(), q);
    }
    sv
}

fn bench_sampling(c: &mut Criterion) {
    let n = 16;
    let sv = uniform_state(n);
    let mut group = c.benchmark_group("bulk_sampling_n16");
    group.sample_size(15);
    // 131 072 = 2·2ⁿ is where `Auto` switches.
    for m in [1_000usize, 100_000, 131_072, 500_000, 4_000_000] {
        group.bench_with_input(BenchmarkId::new("sorted_merge", m), &m, |b, &m| {
            let mut rng = PhiloxRng::new(1, 0);
            b.iter(|| sampling::sample_sorted_merge(black_box(&sv), m, &mut rng));
        });
        group.bench_with_input(BenchmarkId::new("counted", m), &m, |b, &m| {
            let mut rng = PhiloxRng::new(2, 0);
            b.iter(|| sampling::sample_counts(black_box(&sv), m, &mut rng));
        });
    }
    group.finish();
}

fn bench_shared_state(c: &mut Criterion) {
    let n = 14;
    let m = 16;
    let mut circuit = Circuit::new(n);
    circuit.measure_all();
    let backend =
        SvBackend::<f64>::new(&NoiseModel::new().apply(&circuit), SamplingStrategy::Auto).unwrap();
    let mut state = uniform_state(n);
    // One thread, as the service's executors run (`parallel: false`).
    let one_thread = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    let mut group = c.benchmark_group("shared_state_n14_m16");
    group.sample_size(30);
    for k in [1usize, 8, 64] {
        group.bench_with_input(BenchmarkId::new("per_request", k), &k, |b, &k| {
            b.iter(|| {
                one_thread.install(|| {
                    (0..k as u64)
                        .map(|i| backend.sample(&mut state, m, &mut PhiloxRng::new(3, i)))
                        .collect::<Vec<_>>()
                })
            });
        });
        group.bench_with_input(BenchmarkId::new("sample_batch", k), &k, |b, &k| {
            b.iter(|| {
                one_thread.install(|| {
                    let mut rngs: Vec<PhiloxRng> =
                        (0..k as u64).map(|i| PhiloxRng::new(3, i)).collect();
                    let mut requests: Vec<(usize, &mut PhiloxRng)> =
                        rngs.iter_mut().map(|rng| (m, rng)).collect();
                    backend.sample_batch(&mut state, &mut requests)
                })
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sampling, bench_shared_state);
criterion_main!(benches);
