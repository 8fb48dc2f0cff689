//! Statevector gate-kernel microbenchmarks: dense 1q/2q application vs.
//! the permutation fast paths, f32 vs. f64, the per-gate thread fan-out
//! against a one-thread sweep around the fan-out threshold, and
//! `sv-shared`'s compiled program replayed per op kind.

use criterion::{criterion_group, criterion_main, Criterion};
use ptsbe_circuit::{channels, Circuit, NoiseModel};
use ptsbe_math::gates;
use ptsbe_statevector::exec::{compile, CompiledOp};
use ptsbe_statevector::StateVector;
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

/// One gate op (the bench-side copy of `exec::advance_with`'s op
/// table; sites are not replayed).
fn apply_gate(sv: &mut StateVector<f64>, op: &CompiledOp<f64>) {
    match op {
        CompiledOp::G1(m, q) => sv.apply_1q(m, *q),
        CompiledOp::G2(m, a, b) => sv.apply_2q(m, *a, *b),
        CompiledOp::D1(d, q) => sv.apply_diag_1q(d, *q),
        CompiledOp::D2(d, a, b) => sv.apply_diag_2q(d, *a, *b),
        CompiledOp::P1(p, ph, q) => sv.apply_perm_1q(p, ph, *q),
        CompiledOp::P2(p, ph, a, b) => sv.apply_perm_2q(p, ph, *a, *b),
        CompiledOp::Cx(c, t) => sv.apply_cx(*c, *t),
        CompiledOp::Cz(a, b) => sv.apply_cz(*a, *b),
        CompiledOp::Swap(a, b) => sv.apply_swap(*a, *b),
        CompiledOp::Gk(m, qs) => sv.apply_kq(m, qs),
        CompiledOp::Site(_) => {}
    }
}

/// `op`'s kind, suffixed `<v` when its lowest qubit's run is shorter
/// than one AVX2 vector of `f64` complexes (qubit 0 or 1): the ops the
/// gate kernels run as gathered tiles rather than whole-vector runs.
fn op_kind(op: &CompiledOp<f64>) -> String {
    let (kind, low) = match op {
        CompiledOp::G1(_, q) => ("G1", *q),
        CompiledOp::G2(_, a, b) => ("G2", *a.min(b)),
        CompiledOp::D1(_, q) => ("D1", *q),
        CompiledOp::D2(_, a, b) => ("D2", *a.min(b)),
        CompiledOp::P1(_, _, q) => ("P1", *q),
        CompiledOp::P2(_, _, a, b) => ("P2", *a.min(b)),
        CompiledOp::Cx(a, b) => ("Cx", *a.min(b)),
        CompiledOp::Cz(a, b) => ("Cz", *a.min(b)),
        CompiledOp::Swap(a, b) => ("Swap", *a.min(b)),
        CompiledOp::Gk(_, qs) => ("Gk", qs.iter().copied().min().unwrap_or(0)),
        CompiledOp::Site(_) => ("Site", usize::MAX),
    };
    if low < 2 {
        format!("{kind}<v")
    } else {
        kind.to_string()
    }
}

/// `perf`'s `sv-shared` program — the msd-like 14-qubit, depth-14
/// brickwork with depolarizing noise on the entanglers, compiled with
/// fusion on — replayed per op kind on a prepared identity-trajectory
/// state, one thread, each kind split by whether its lowest qubit's run
/// fills a vector ([`op_kind`]). Every job of that workload walks these
/// ops once per trie edge, so this table is where a change to a gate
/// kernel shows first; the last lines print it as µs per op and the
/// whole program's sweep in ms.
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
    let mut kinds: Vec<String> = gates.iter().map(|op| op_kind(op)).collect();
    kinds.sort_unstable();
    kinds.dedup();

    let one_thread = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("a one-thread pool always builds");
    let mut group = c.benchmark_group("op_mix_n14");
    group.sample_size(20);
    // (kind or "all", ops replayed, best time of one replay)
    let mut table: Vec<(&str, usize, Duration)> = Vec::new();
    one_thread.install(|| {
        for kind in kinds.iter().map(String::as_str).chain(["all"]) {
            let ops: Vec<&CompiledOp<f64>> = gates
                .iter()
                .copied()
                .filter(|op| kind == "all" || op_kind(op) == kind)
                .collect();
            group.bench_function(format!("aos_{kind}_x{}", ops.len()), |b| {
                let (mut sv, _) = ptsbe_statevector::exec::prepare(&compiled, &ident);
                b.iter(|| {
                    for op in &ops {
                        apply_gate(&mut sv, black_box(*op));
                    }
                });
                table.push((kind, ops.len(), b.last_best));
            });
        }
    });
    group.finish();
    if !table.is_empty() {
        println!("op_mix_n14: best µs per op; `all` is the whole program in ms");
    }
    for (kind, count, best) in table {
        let secs = best.as_secs_f64();
        if kind == "all" {
            println!("  all    x{count:<4} {:>8.2} ms", secs * 1e3);
        } else {
            println!(
                "  {kind:<6} x{count:<4} {:>8.1} µs",
                secs * 1e6 / count as f64
            );
        }
    }
}

criterion_group!(benches, bench_gates, bench_fanout_break_even, bench_op_mix);
criterion_main!(benches);
