//! Pauli-frame bulk sampler vs. per-shot tableau — the Stim-style MHz
//! mechanism the paper cites (§2.3) — and the Bernoulli mask fill under it.

use criterion::{criterion_group, criterion_main, Criterion};
use ptsbe_bench::{steane_memory, with_depolarizing};
use ptsbe_circuit::{channels, Circuit, NoiseModel};
use ptsbe_qec::{codes::repetition, memory::MemoryExperiment};
use ptsbe_rng::{mask::fill_bernoulli_words, PhiloxRng};
use ptsbe_stabilizer::frame::{tableau_sample_one, FrameSampler};
use std::hint::black_box;

fn bench_frames(c: &mut Criterion) {
    let noisy = with_depolarizing(&steane_memory(), 1e-3);
    let mut rng = PhiloxRng::new(21, 0);
    let sampler = FrameSampler::new(&noisy, &mut rng).unwrap();

    let mut group = c.benchmark_group("frame_sampler_steane");
    group.sample_size(15);
    group.bench_function("bulk_100k_shots", |b| {
        let mut rng = PhiloxRng::new(22, 0);
        b.iter(|| black_box(&sampler).sample(100_000, &mut rng));
    });
    group.bench_function("tableau_1k_shots", |b| {
        let mut rng = PhiloxRng::new(23, 0);
        let program = sampler.program();
        b.iter(|| {
            let mut acc = 0u128;
            for _ in 0..1_000 {
                acc ^= tableau_sample_one(black_box(program), &mut rng);
            }
            acc
        });
    });
    group.finish();
}

/// One service chunk of perf's `frame-bulk` job: repetition(15) × 5
/// rounds (85 qubits, 85 measured bits), depolarizing 1e-3 on every gate,
/// 65 536 shots.
fn bench_frame_bulk_chunk(c: &mut Criterion) {
    let circuit = MemoryExperiment::new(&repetition(15), 5, false).circuit;
    let noisy = NoiseModel::new()
        .with_default_1q(channels::depolarizing(1e-3))
        .with_default_2q(channels::depolarizing2(1e-3))
        .apply(&circuit);
    let sampler = FrameSampler::new(&noisy, &mut PhiloxRng::new(24, 0)).unwrap();

    let mut group = c.benchmark_group("frame_sampler_frame_bulk");
    group.sample_size(15);
    group.bench_function("chunk_65536_shots", |b| {
        let mut rng = PhiloxRng::new(25, 0);
        b.iter(|| black_box(&sampler).sample(65_536, &mut rng));
    });
    group.finish();
}

/// The one shape whose measurement collapses still draw: 12 qubits × 9
/// rounds of H on every qubit, a CX chain and a mid-circuit `measure_all`
/// (a random reference, so the 96 collapses before the last round reach a
/// later record bit), depolarizing 1e-3 on every gate, 65 536 shots.
fn bench_live_collapses(c: &mut Criterion) {
    let mut circuit = Circuit::new(12);
    for _ in 0..9 {
        for q in 0..12 {
            circuit.h(q);
        }
        for q in 0..11 {
            circuit.cx(q, q + 1);
        }
        circuit.measure_all();
    }
    let noisy = NoiseModel::new()
        .with_default_1q(channels::depolarizing(1e-3))
        .with_default_2q(channels::depolarizing2(1e-3))
        .apply(&circuit);
    let sampler = FrameSampler::new(&noisy, &mut PhiloxRng::new(27, 0)).unwrap();

    let mut group = c.benchmark_group("frame_sampler_live_collapses");
    group.sample_size(15);
    group.bench_function("chunk_65536_shots", |b| {
        let mut rng = PhiloxRng::new(28, 0);
        b.iter(|| black_box(&sampler).sample(65_536, &mut rng));
    });
    group.finish();
}

/// ns per 64-bit mask word (one chunk's 1 024 words per fill). Below the
/// fill's cutoff (p < 0.05) this times the geometric-skip path, whose
/// cost grows with p; from 0.06 up the bit-sliced path, flat in p but
/// for p = 0.5. Where the first line crosses the second is where the
/// cutoff belongs.
fn bench_masks(c: &mut Criterion) {
    const WORDS: usize = 1024;
    let mut words = vec![0u64; WORDS];
    let mut group = c.benchmark_group("bernoulli_masks");
    group.sample_size(15);
    for p in [1e-3, 0.02, 0.04, 0.06, 0.1, 0.3, 0.5] {
        let mut rng = PhiloxRng::new(26, 0);
        let mut best_ns = 0.0;
        group.bench_function(format!("p={p}"), |b| {
            b.iter(|| fill_bernoulli_words(black_box(&mut words), WORDS * 64, p, &mut rng));
            best_ns = b.last_best.as_secs_f64() * 1e9;
        });
        println!(
            "{:>56} {:.2} ns per 64-bit word",
            "",
            best_ns / WORDS as f64
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_frames,
    bench_frame_bulk_chunk,
    bench_live_collapses,
    bench_masks
);
criterion_main!(benches);
