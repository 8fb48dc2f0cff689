//! Statevector gate-kernel microbenchmarks: dense 1q/2q application vs.
//! the permutation fast paths, f32 vs. f64, the batch-major lane sweeps
//! against an equal number of per-state sweeps, and the per-gate thread
//! fan-out against a one-thread sweep around the fan-out threshold.

use criterion::{criterion_group, criterion_main, Criterion};
use ptsbe_math::gates;
use ptsbe_statevector::{KernelImpl, StateBatch, StateVector};
use std::hint::black_box;

fn bench_gates(c: &mut Criterion) {
    let n = 16;
    let mut group = c.benchmark_group("gate_kernels_n16");
    group.sample_size(20);

    let h64 = gates::h::<f64>();
    let cx64 = gates::cx::<f64>();
    group.bench_function("apply_1q_f64_low", |b| {
        let mut sv = StateVector::<f64>::zero_state(n);
        b.iter(|| sv.apply_1q(black_box(&h64), 0));
    });
    group.bench_function("apply_1q_f64_high", |b| {
        let mut sv = StateVector::<f64>::zero_state(n);
        b.iter(|| sv.apply_1q(black_box(&h64), n - 1));
    });
    group.bench_function("apply_2q_dense_f64", |b| {
        let mut sv = StateVector::<f64>::zero_state(n);
        b.iter(|| sv.apply_2q(black_box(&cx64), 3, 11));
    });
    group.bench_function("apply_cx_fastpath_f64", |b| {
        let mut sv = StateVector::<f64>::zero_state(n);
        b.iter(|| sv.apply_cx(black_box(3), 11));
    });
    group.bench_function("apply_cz_fastpath_f64", |b| {
        let mut sv = StateVector::<f64>::zero_state(n);
        b.iter(|| sv.apply_cz(black_box(3), 11));
    });

    let h32 = gates::h::<f32>();
    group.bench_function("apply_1q_f32_low", |b| {
        let mut sv = StateVector::<f32>::zero_state(n);
        b.iter(|| sv.apply_1q(black_box(&h32), 0));
    });
    group.finish();
}

/// Batch-major lane sweep vs. the same op applied to `B` separate
/// states: the constant-factor the amplitude-major layout buys.
fn bench_batch_vs_per_state(c: &mut Criterion) {
    let n = 10;
    let b = 8;
    let mut group = c.benchmark_group("batch_vs_per_state_n10x8");
    group.sample_size(20);

    let h = gates::h::<f64>();
    let cx_mat = gates::cx::<f64>();
    group.bench_function("per_state_1q", |bch| {
        let mut svs: Vec<StateVector<f64>> = (0..b).map(|_| StateVector::zero_state(n)).collect();
        bch.iter(|| {
            for s in svs.iter_mut() {
                s.apply_1q(black_box(&h), 4);
            }
        });
    });
    group.bench_function("batch_1q", |bch| {
        let mut batch = StateBatch::<f64>::zero_states(n, b);
        bch.iter(|| batch.apply_1q(black_box(&h), 4));
    });
    group.bench_function("per_state_2q_dense", |bch| {
        let mut svs: Vec<StateVector<f64>> = (0..b).map(|_| StateVector::zero_state(n)).collect();
        bch.iter(|| {
            for s in svs.iter_mut() {
                s.apply_2q(black_box(&cx_mat), 2, 7);
            }
        });
    });
    group.bench_function("batch_2q_dense", |bch| {
        let mut batch = StateBatch::<f64>::zero_states(n, b);
        bch.iter(|| batch.apply_2q(black_box(&cx_mat), 2, 7));
    });
    group.bench_function("per_state_cx", |bch| {
        let mut svs: Vec<StateVector<f64>> = (0..b).map(|_| StateVector::zero_state(n)).collect();
        bch.iter(|| {
            for s in svs.iter_mut() {
                s.apply_cx(black_box(2), 7);
            }
        });
    });
    group.bench_function("batch_cx", |bch| {
        let mut batch = StateBatch::<f64>::zero_states(n, b);
        bch.iter(|| batch.apply_cx(black_box(2), 7));
    });
    group.finish();
}

/// The same batch sweeps under each dispatch impl — scalar-reference
/// (per-lane Complex arithmetic, the old AoS-equivalent path) vs. the
/// SoA autovec wide loops vs. the hand-vectorized SoA kernels. All
/// three are bitwise identical; this group is the per-kernel-class
/// speedup ledger behind that free choice.
fn bench_kernel_dispatch(c: &mut Criterion) {
    let n = 10;
    let b = 8;
    let mut group = c.benchmark_group("kernel_dispatch_n10x8");
    group.sample_size(20);

    let h = gates::h::<f64>();
    let cx_mat = gates::cx::<f64>();
    for kernels in [KernelImpl::Scalar, KernelImpl::Soa, KernelImpl::Simd] {
        let tag = kernels.label();
        group.bench_function(format!("{tag}_1q"), |bch| {
            let mut batch = StateBatch::<f64>::zero_states_with(n, b, kernels);
            bch.iter(|| batch.apply_1q(black_box(&h), 4));
        });
        group.bench_function(format!("{tag}_2q_dense"), |bch| {
            let mut batch = StateBatch::<f64>::zero_states_with(n, b, kernels);
            bch.iter(|| batch.apply_2q(black_box(&cx_mat), 2, 7));
        });
        group.bench_function(format!("{tag}_cx"), |bch| {
            let mut batch = StateBatch::<f64>::zero_states_with(n, b, kernels);
            bch.iter(|| batch.apply_cx(black_box(2), 7));
        });
        group.bench_function(format!("{tag}_norm_sqr"), |bch| {
            let mut batch = StateBatch::<f64>::zero_states_with(n, b, kernels);
            batch.apply_1q(&h, 4);
            let mut out = vec![0.0f64; b];
            bch.iter(|| batch.norm_sqr_lanes(black_box(&mut out)));
        });
    }
    group.finish();
}

/// Where the per-gate fan-out starts paying: the same dense 2q sweep as
/// the kernel runs it on a bare thread (above
/// `PARALLEL_THRESHOLD_QUBITS` that is a thread spawn + join per gate)
/// and pinned to one thread. The qubit count where `fanout` overtakes
/// `one_thread` is what the threshold should be on this machine.
fn bench_fanout_break_even(c: &mut Criterion) {
    let mut group = c.benchmark_group("fanout_break_even");
    group.sample_size(20);

    let cx = gates::cx::<f64>();
    let one_thread = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("a one-thread pool always builds");
    for n in [14usize, 16, 18, 20] {
        group.bench_function(format!("apply_2q_dense_n{n}_fanout"), |b| {
            let mut sv = StateVector::<f64>::zero_state(n);
            b.iter(|| sv.apply_2q(black_box(&cx), 3, 11));
        });
        group.bench_function(format!("apply_2q_dense_n{n}_one_thread"), |b| {
            let mut sv = StateVector::<f64>::zero_state(n);
            one_thread.install(|| b.iter(|| sv.apply_2q(black_box(&cx), 3, 11)));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_gates,
    bench_batch_vs_per_state,
    bench_kernel_dispatch,
    bench_fanout_break_even
);
criterion_main!(benches);
