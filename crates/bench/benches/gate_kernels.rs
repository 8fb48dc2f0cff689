//! Statevector gate-kernel microbenchmarks: dense 1q/2q application vs.
//! the permutation fast paths, f32 vs. f64, the batch-major lane sweeps
//! against an equal number of per-state sweeps, the per-gate thread
//! fan-out against a one-thread sweep around the fan-out threshold, and
//! `sv-shared`'s compiled program replayed per op kind in each layout.

use criterion::{criterion_group, criterion_main, Criterion};
use ptsbe_circuit::{channels, Circuit, NoiseModel};
use ptsbe_math::gates;
use ptsbe_statevector::exec::{compile, CompiledOp};
use ptsbe_statevector::{advance_batch, KernelImpl, StateBatch, StateVector};
use std::hint::black_box;
use std::time::Duration;

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

/// One gate op on either layout (the bench-side copy of the crate's
/// private `apply_op!` table; sites are not replayed).
macro_rules! apply_gate {
    ($state:expr, $op:expr) => {
        match $op {
            CompiledOp::G1(m, q) => $state.apply_1q(m, *q),
            CompiledOp::G2(m, a, b) => $state.apply_2q(m, *a, *b),
            CompiledOp::D1(d, q) => $state.apply_diag_1q(d, *q),
            CompiledOp::D2(d, a, b) => $state.apply_diag_2q(d, *a, *b),
            CompiledOp::P1(p, ph, q) => $state.apply_perm_1q(p, ph, *q),
            CompiledOp::P2(p, ph, a, b) => $state.apply_perm_2q(p, ph, *a, *b),
            CompiledOp::Cx(c, t) => $state.apply_cx(*c, *t),
            CompiledOp::Cz(a, b) => $state.apply_cz(*a, *b),
            CompiledOp::Swap(a, b) => $state.apply_swap(*a, *b),
            CompiledOp::Gk(m, qs) => $state.apply_kq(m, qs),
            CompiledOp::Site(_) => {}
        }
    };
}

fn op_kind(op: &CompiledOp<f64>) -> &'static str {
    match op {
        CompiledOp::G1(..) => "G1",
        CompiledOp::G2(..) => "G2",
        CompiledOp::D1(..) => "D1",
        CompiledOp::D2(..) => "D2",
        CompiledOp::P1(..) => "P1",
        CompiledOp::P2(..) => "P2",
        CompiledOp::Cx(..) => "Cx",
        CompiledOp::Cz(..) => "Cz",
        CompiledOp::Swap(..) => "Swap",
        CompiledOp::Gk(..) => "Gk",
        CompiledOp::Site(_) => "Site",
    }
}

/// `perf`'s `sv-shared` program — the msd-like 14-qubit, depth-14
/// brickwork with depolarizing noise on the entanglers, compiled with
/// fusion on — replayed per op kind on a prepared identity-trajectory
/// state in each layout, one thread. Every job of that workload walks
/// these ops once per trie edge, so this table is where a change to a
/// gate kernel shows first; the last lines print it as µs per op (per
/// lane for the batch) and the whole program's sweep in ms.
fn bench_op_mix(c: &mut Criterion) {
    let (n, depth) = (14usize, 14usize);
    let mut circuit = Circuit::new(n);
    for q in 0..n {
        ptsbe_qec::msd::prepare_magic(&mut circuit, q);
    }
    for layer in 0..depth {
        for q in (layer % 2..n - 1).step_by(2) {
            circuit.cx(q, q + 1);
        }
        for q in 0..n {
            match (q + layer) % 3 {
                0 => {
                    circuit.t(q);
                }
                1 => {
                    circuit.h(q);
                }
                _ => {}
            }
        }
    }
    circuit.measure_all();
    let nc = NoiseModel::new()
        .with_default_2q(channels::depolarizing2(1.5e-3))
        .apply(&circuit);
    let compiled = compile::<f64>(&nc).expect("the msd-like circuit lowers");
    let ident = nc
        .identity_assignment()
        .expect("depolarizing noise has an identity branch");
    let gates: Vec<&CompiledOp<f64>> = compiled
        .ops()
        .iter()
        .filter(|op| !matches!(op, CompiledOp::Site(_)))
        .collect();
    let mut kinds: Vec<&'static str> = gates.iter().map(|op| op_kind(op)).collect();
    kinds.sort_unstable();
    kinds.dedup();

    let one_thread = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("a one-thread pool always builds");
    let mut group = c.benchmark_group("op_mix_n14");
    group.sample_size(20);
    // (layout, lanes, kind or "all", ops replayed, best time of one replay)
    let mut table: Vec<(&'static str, usize, &'static str, usize, Duration)> = Vec::new();
    one_thread.install(|| {
        for (layout, lanes) in [("aos", 1usize), ("batch_b1", 1), ("batch_b4", 4)] {
            for kind in kinds.iter().copied().chain(["all"]) {
                let ops: Vec<&CompiledOp<f64>> = gates
                    .iter()
                    .copied()
                    .filter(|op| kind == "all" || op_kind(op) == kind)
                    .collect();
                group.bench_function(format!("{layout}_{kind}_x{}", ops.len()), |b| {
                    if layout == "aos" {
                        let (mut sv, _) = ptsbe_statevector::exec::prepare(&compiled, &ident);
                        b.iter(|| {
                            for op in &ops {
                                apply_gate!(sv, black_box(*op));
                            }
                        });
                    } else {
                        let mut batch = StateBatch::<f64>::zero_states(n, lanes);
                        let choices: Vec<&[usize]> = vec![ident.as_slice(); lanes];
                        let mut realized = vec![1.0f64; lanes];
                        advance_batch(
                            &compiled,
                            &mut batch,
                            0..compiled.n_segments(),
                            &choices,
                            &mut realized,
                        );
                        b.iter(|| {
                            for op in &ops {
                                apply_gate!(batch, black_box(*op));
                            }
                        });
                    }
                    table.push((layout, lanes, kind, ops.len(), b.last_best));
                });
            }
        }
    });
    group.finish();
    if !table.is_empty() {
        println!(
            "op_mix_n14: best µs per op (per lane); `all` is the whole program in ms per lane"
        );
    }
    for (layout, lanes, kind, count, best) in table {
        let per_lane = best.as_secs_f64() / lanes as f64;
        if kind == "all" {
            println!("  {layout:<9} all  x{count:<4} {:>8.2} ms", per_lane * 1e3);
        } else {
            println!(
                "  {layout:<9} {kind:<4} x{count:<4} {:>8.1} µs",
                per_lane * 1e6 / count as f64
            );
        }
    }
}

criterion_group!(
    benches,
    bench_gates,
    bench_batch_vs_per_state,
    bench_kernel_dispatch,
    bench_fanout_break_even,
    bench_op_mix
);
criterion_main!(benches);
