//! Flat vs. prefix-tree batched execution across noise rates, and fused
//! vs. unfused compilation on the fig4-style depolarizing workload.
//!
//! The trajectory tree amortizes state preparation over shared Kraus
//! prefixes, so its advantage grows as noise shrinks: at low `p` almost
//! every sampled trajectory is identity-dominated and the trie collapses
//! into a few long shared paths. Alongside wall time, this bench prints
//! each plan's `prep_ops_saved` ratio — the fraction of flat site-advances
//! the tree eliminates — so the structural win is visible next to the
//! timing.
//!
//! The `fused_vs_unfused` group layers the compile-time multiplier on
//! top: gate fusion shrinks the per-trajectory op stream once at compile
//! time, and every executor (flat or tree) inherits the reduction. Its
//! `FusionStats` line prints the op counts and kernel-class histogram
//! next to the timing rows.
//!
//! The `range_chunks` group measures what the service's plan-range split
//! of a tree job repeats (see [`bench_range_chunks`]).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ptsbe_bench::{msd_like, with_entangler_depolarizing};
use ptsbe_circuit::{channels, Circuit, NoiseModel, NoisyCircuit};
use ptsbe_core::{
    BatchedExecutor, ProbabilisticPts, PtsPlan, PtsPlanTree, PtsSampler, SvBackend, TreeExecutor,
};
use ptsbe_rng::PhiloxRng;
use ptsbe_statevector::SamplingStrategy;
use std::hint::black_box;

fn workload(p: f64) -> NoisyCircuit {
    let n = 10;
    let mut c = Circuit::new(n);
    c.h(0);
    for q in 0..n - 1 {
        c.cx(q, q + 1);
    }
    for q in 0..n {
        c.t(q);
    }
    for q in (0..n - 1).step_by(2) {
        c.cx(q, q + 1);
    }
    c.measure_all();
    NoiseModel::new()
        .with_default_1q(channels::depolarizing(p))
        .with_default_2q(channels::depolarizing(p))
        .apply(&c)
}

fn plan_for(nc: &NoisyCircuit, seed: u64) -> PtsPlan {
    let mut rng = PhiloxRng::new(seed, 0);
    ProbabilisticPts {
        n_samples: 200,
        shots_per_trajectory: 50,
        dedup: true,
    }
    .sample_plan(nc, &mut rng)
}

fn bench_flat_vs_tree(c: &mut Criterion) {
    let mut group = c.benchmark_group("flat_vs_tree");
    group.sample_size(10);
    for p in [1e-3, 1e-2, 1e-1] {
        let nc = workload(p);
        let plan = plan_for(&nc, 7_000 + (p * 1e4) as u64);
        let tree = PtsPlanTree::from_plan(&plan);
        println!(
            "p={p:<8} trajectories={:<4} trie_edges={:<5} flat_ops={:<5} \
             prep_ops_saved={} ({:.1}% of flat)",
            plan.n_trajectories(),
            tree.n_edges(),
            tree.flat_prep_ops(),
            tree.prep_ops_saved(),
            100.0 * tree.sharing_ratio(),
        );
        let backend = SvBackend::<f64>::new(&nc, SamplingStrategy::Auto).unwrap();

        group.bench_with_input(BenchmarkId::new("flat", p), &p, |b, _| {
            let exec = BatchedExecutor {
                seed: 1,
                parallel: false,
            };
            b.iter(|| exec.execute(black_box(&backend), &nc, &plan));
        });
        group.bench_with_input(BenchmarkId::new("tree", p), &p, |b, _| {
            let exec = TreeExecutor {
                seed: 1,
                parallel: false,
            };
            b.iter(|| exec.execute_tree(black_box(&backend), &nc, &plan, &tree));
        });
    }
    group.finish();
}

fn bench_fused_vs_unfused(c: &mut Criterion) {
    let mut group = c.benchmark_group("fused_vs_unfused");
    group.sample_size(10);
    // Fig4-style workload: MSD-like magic-state layers with depolarizing
    // noise on the entanglers (1q runs between sites fuse away).
    let n = 10;
    let circuit = msd_like(n, n);
    let p = 1e-3;
    let nc = with_entangler_depolarizing(&circuit, p);
    let plan = plan_for(&nc, 9_000);
    let tree = PtsPlanTree::from_plan(&plan);
    let fused = SvBackend::<f64>::new(&nc, SamplingStrategy::Auto).unwrap();
    let unfused = SvBackend::<f64>::new_with_fusion(&nc, SamplingStrategy::Auto, false).unwrap();
    println!(
        "fig4-style n={n} p={p} trajectories={} | FusionStats: {}",
        plan.n_trajectories(),
        fused.fusion_stats(),
    );
    let exec = BatchedExecutor {
        seed: 1,
        parallel: false,
    };
    group.bench_function(BenchmarkId::new("flat", "unfused"), |b| {
        b.iter(|| exec.execute(black_box(&unfused), &nc, &plan));
    });
    group.bench_function(BenchmarkId::new("flat", "fused"), |b| {
        b.iter(|| exec.execute(black_box(&fused), &nc, &plan));
    });
    let texec = TreeExecutor {
        seed: 1,
        parallel: false,
    };
    group.bench_function(BenchmarkId::new("tree", "fused"), |b| {
        b.iter(|| texec.execute_tree(black_box(&fused), &nc, &plan, &tree));
    });
    group.finish();
}

/// What cutting a tree job into `k` plan ranges costs: the service walks
/// one sub-trie per range, so every range re-walks the prefix it shares
/// with its neighbours. Prints the measured redundancy (Σ sub-trie edges
/// over whole-trie edges) next to the `1 + (k−1)·S/E` estimate the
/// service's cut rule budgets with (`S` sites = one full spine per extra
/// range: tight for the spine-shaped tries the router sends to the tree
/// engine, an under-count for tries that share at several depths), and
/// the max/mean chunk size — the imbalance a cost-aware cut
/// could still win back; the timing rows walk all `k` sub-tries in turn
/// (builds included), i.e. the total work of the split job.
fn bench_range_chunks(c: &mut Criterion) {
    let mut group = c.benchmark_group("range_chunks");
    group.sample_size(10);
    for p in [1e-3, 1e-2, 1e-1] {
        let nc = workload(p);
        let plan = plan_for(&nc, 7_000 + (p * 1e4) as u64);
        let n = plan.n_trajectories();
        let whole = PtsPlanTree::from_plan(&plan);
        let backend = SvBackend::<f64>::new(&nc, SamplingStrategy::Auto).unwrap();
        let exec = TreeExecutor {
            seed: 1,
            parallel: false,
        };
        for k in [1usize, 2, 4, 8] {
            let per = n.div_ceil(k).max(1);
            let ranges: Vec<_> = (0..n).step_by(per).map(|s| s..(s + per).min(n)).collect();
            let edges: Vec<usize> = ranges
                .iter()
                .map(|r| PtsPlanTree::from_plan_range(&plan, r.clone()).n_edges())
                .collect();
            let total: usize = edges.iter().sum();
            let mean = total as f64 / edges.len() as f64;
            println!(
                "p={p:<8} k={k} sub_trie_edges={total:<5} whole={:<5} redundancy={:.3} \
                 estimate={:.3} max/mean chunk={:.2}",
                whole.n_edges(),
                total as f64 / whole.n_edges() as f64,
                1.0 + ((k - 1) * whole.n_sites()) as f64 / whole.n_edges() as f64,
                *edges.iter().max().unwrap() as f64 / mean,
            );
            group.bench_with_input(BenchmarkId::new(format!("p{p}"), k), &k, |b, _| {
                b.iter(|| {
                    for r in &ranges {
                        let sub = PtsPlanTree::from_plan_range(&plan, r.clone());
                        black_box(exec.execute_tree(black_box(&backend), &nc, &plan, &sub));
                    }
                });
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_flat_vs_tree,
    bench_fused_vs_unfused,
    bench_range_chunks
);
criterion_main!(benches);
