//! Bulk-sampling ablation: sorted-uniform merge vs. multinomial counts —
//! the design choice behind Batched Execution's amortized shot cost, and
//! the measurement `SamplingStrategy::Auto`'s crossover is read from
//! (quoted in `ptsbe_statevector::sampling`'s module doc). The uniform
//! state is the counted sampler's worst case: every amplitude carries
//! mass, so none of the 2ⁿ binomials is skipped.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ptsbe_math::gates;
use ptsbe_rng::PhiloxRng;
use ptsbe_statevector::{sampling, StateVector};
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

criterion_group!(benches, bench_sampling);
criterion_main!(benches);
