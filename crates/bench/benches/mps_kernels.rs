//! MPS kernel microbenchmarks: two-site updates with SVD truncation, the
//! cached vs. naive sampling modes (the Fig. 5 mechanism), and the leaf
//! tail of `perf`'s `mps-brick32` job.
//!
//! The `brick32_*` cases start from that workload's identity trajectory
//! (`msd_like(32, 16)`, `depolarizing2(1e-3)` on the entanglers,
//! `MpsConfig::adaptive(256, 1e-5, 1e-2)`; bond 64): `move_center(0)` is
//! the canonicalization before sampling (timed with the state clone that
//! undoes it), and `sample_batched_7x100` is the leaf's
//! `sample_shots_batched` over seven 100-shot requests on the
//! canonicalized state.

use criterion::{criterion_group, criterion_main, Criterion};
use ptsbe_bench::{msd_like, sample_shots_naive, with_entangler_depolarizing};
use ptsbe_math::gates;
use ptsbe_rng::PhiloxRng;
use ptsbe_tensornet::{compile_mps, prepare_mps, sample, Mps, MpsConfig};
use std::hint::black_box;

fn entangled_chain(n: usize, chi: usize) -> Mps<f64> {
    let config = MpsConfig::exact().with_max_bond(chi);
    let mut mps = Mps::zero_state(n, config);
    let mut rng = PhiloxRng::new(9, 0);
    for layer in 0..4 {
        for q in (layer % 2..n - 1).step_by(2) {
            let u = ptsbe_math::random::haar_unitary::<f64>(4, &mut rng);
            mps.apply_2q(&u, q, q + 1);
        }
    }
    mps
}

/// `mps-brick32`'s identity-trajectory state, as the job's chain leaves it.
fn brick32_identity() -> Mps<f64> {
    let nc = with_entangler_depolarizing(&msd_like(32, 16), 1e-3);
    let compiled = compile_mps::<f64>(&nc).expect("MPS-compatible circuit");
    let identity = nc
        .identity_assignment()
        .expect("identity branch everywhere");
    let config = MpsConfig::adaptive(256, 1e-5, 1e-2);
    prepare_mps(&compiled, &identity, config).0
}

fn bench_mps(c: &mut Criterion) {
    let mut group = c.benchmark_group("mps_kernels");
    group.sample_size(10);

    group.bench_function("two_site_update_n24_chi16", |b| {
        let mut mps = entangled_chain(24, 16);
        let cx = gates::cx::<f64>();
        b.iter(|| mps.apply_2q(black_box(&cx), 10, 11));
    });

    group.bench_function("sample_cached_n24_100shots", |b| {
        let mut mps = entangled_chain(24, 16);
        let mut rng = PhiloxRng::new(10, 0);
        b.iter(|| sample::sample_shots_cached(black_box(&mut mps), 100, &mut rng));
    });

    group.bench_function("sample_naive_n24_10shots", |b| {
        let mps = entangled_chain(24, 16);
        let mut rng = PhiloxRng::new(11, 0);
        b.iter(|| sample_shots_naive(black_box(&mps), 10, &mut rng));
    });

    let brick = brick32_identity();
    println!(
        "brick32 identity state: {} sites, max bond {}, center {}",
        brick.n_qubits(),
        brick.max_bond_reached(),
        brick.center()
    );
    group.bench_function("brick32_move_center0", |b| {
        b.iter(|| {
            let mut mps = brick.clone();
            mps.move_center(0);
            mps
        });
    });

    group.bench_function("brick32_sample_batched_7x100", |b| {
        let mut mps = brick.clone();
        mps.move_center(0);
        let mut traj = 0u64;
        b.iter(|| {
            let mut rngs: Vec<PhiloxRng> =
                (0..7).map(|t| PhiloxRng::for_trajectory(traj, t)).collect();
            traj += 1;
            let mut requests: Vec<(usize, &mut PhiloxRng)> =
                rngs.iter_mut().map(|r| (100, r)).collect();
            sample::sample_shots_batched(black_box(&mut mps), &mut requests)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_mps);
criterion_main!(benches);
