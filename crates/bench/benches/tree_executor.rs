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
//! of a dense tree job repeats (see [`bench_range_chunks`]); the
//! `leaf_chunks` group does the same for the trie-order split of an MPS
//! tree job, and is where that cut's constants are calibrated (see
//! [`bench_leaf_chunks`]).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ptsbe_bench::{msd_like, with_entangler_depolarizing};
use ptsbe_circuit::{channels, Circuit, NoiseModel, NoisyCircuit};
use ptsbe_core::{
    Backend, BatchedExecutor, MpsBackend, ProbabilisticPts, PtsPlan, PtsPlanTree, PtsSampler,
    StatePool, SvBackend, TreeExecutor,
};
use ptsbe_rng::PhiloxRng;
use ptsbe_statevector::SamplingStrategy;
use ptsbe_tensornet::MpsConfig;
use std::hint::black_box;
use std::time::Instant;

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

/// The service's `MPS_SHOT_WEIGHT` (`crates/service/src/engine.rs`): the
/// edges one sampled shot weighs in the leaf cut's balance. The
/// `calibration` line below re-measures it.
const MPS_SHOT_WEIGHT: f64 = 0.29;

/// What cutting an MPS tree job into `k` trie-order chunks costs, on
/// `mps-brick32`'s circuit (`msd_like(32, 16)`, entangler noise, budget-
/// driven truncation) at two noise rates: 8 iid trajectories of 100
/// shots, the workload's plan shape. Prints, per `(p, k)`, Σ sub-trie
/// edges over the whole trie's (what the cut re-walks; 1.0 for a root
/// fork) and max/mean chunk cost under the cutter's own cost
/// (`edges + 0.29 · shots`: the makespan a balanced pool is left with);
/// the timing rows walk all `k` chunks in turn over one pool (sub-trie
/// builds included), i.e. the total work of the split job.
///
/// The `calibration` line is where `MPS_SHOT_WEIGHT` and
/// `MPS_MIN_CHUNK_WORK` come from: one identity chain timed edge by edge
/// gives seconds per edge and per `edge · χ³` unit at the bond the chain
/// reached; sampling its final state as the workload's identity leaf
/// does (seven 100-shot requests in one batched call) and as a lone
/// error leaf does (one 100-shot call) gives seconds per shot. Batched
/// shots share conditional-sampling prefixes, so the per-shot cost falls
/// with the leaf's size; the weight is the big leaf's, the one a cut has
/// to balance against.
fn bench_leaf_chunks(c: &mut Criterion) {
    let mut group = c.benchmark_group("leaf_chunks");
    group.sample_size(10);
    let circuit = msd_like(32, 16);
    let exec = TreeExecutor {
        seed: 1,
        parallel: false,
    };
    for p in [1e-3, 1e-2] {
        let nc = with_entangler_depolarizing(&circuit, p);
        let backend = MpsBackend::<f64>::new(
            &nc,
            MpsConfig::adaptive(256, 1e-5, 1e-2),
            Default::default(),
        )
        .unwrap();
        let plan = ProbabilisticPts {
            n_samples: 8,
            shots_per_trajectory: 100,
            dedup: false,
        }
        .sample_plan(&nc, &mut PhiloxRng::new(7_100 + (p * 1e4) as u64, 0));
        let whole = PtsPlanTree::from_plan(&plan);
        let order = whole.leaf_plan_indices();
        if p == 1e-3 {
            calibrate(&backend, &nc);
        }
        for k in [1usize, 2, 4] {
            let chunks = whole.leaf_chunks(&plan, k, MPS_SHOT_WEIGHT);
            let costs: Vec<f64> = chunks.iter().map(|c| c.cost(MPS_SHOT_WEIGHT)).collect();
            let edges: usize = chunks.iter().map(|c| c.edges).sum();
            let mean = costs.iter().sum::<f64>() / costs.len() as f64;
            println!(
                "p={p:<6} k={k} chunks={} sub_trie_edges={edges:<5} whole={:<5} \
                 redundancy={:.3} max/mean chunk cost={:.2}",
                chunks.len(),
                whole.n_edges(),
                edges as f64 / whole.n_edges() as f64,
                costs.iter().cloned().fold(0.0, f64::max) / mean,
            );
            let pool = StatePool::new();
            group.bench_with_input(BenchmarkId::new(format!("p{p}"), k), &k, |b, _| {
                b.iter(|| {
                    for c in &chunks {
                        let sub = PtsPlanTree::from_plan_indices(&plan, &order[c.range.clone()]);
                        black_box(exec.execute_tree_pooled(&backend, &nc, &plan, &sub, &pool));
                    }
                });
            });
        }
    }
    group.finish();
}

/// Time one identity chain of `backend` edge by edge, then sampling on
/// the state it ends in.
fn calibrate(backend: &MpsBackend<f64>, nc: &NoisyCircuit) {
    let choices = nc.identity_assignment().expect("depolarizing sites");
    let edges = choices.len();
    let mut state = backend.initial_state();
    let t0 = Instant::now();
    for site in 0..edges {
        backend.advance(&mut state, site..site + 1, &choices);
    }
    backend.advance(&mut state, edges..backend.n_segments(), &choices);
    let edge_s = t0.elapsed().as_secs_f64() / edges as f64;
    let bond = backend
        .truncation_stats(&state)
        .map_or(0, |t| t.max_bond_reached);
    // Each call pays its own canonicalisation sweep, as each leaf does.
    let mut lone = backend.fork(&state);
    let mut rngs: Vec<PhiloxRng> = (0..7).map(|i| PhiloxRng::for_trajectory(1, i)).collect();
    let mut requests: Vec<(usize, &mut PhiloxRng)> = rngs.iter_mut().map(|r| (100, r)).collect();
    let t0 = Instant::now();
    black_box(backend.sample_batch(&mut state, &mut requests));
    let batched_shot_s = t0.elapsed().as_secs_f64() / 700.0;
    let t0 = Instant::now();
    black_box(backend.sample(&mut lone, 100, &mut PhiloxRng::for_trajectory(1, 7)));
    let lone_shot_s = t0.elapsed().as_secs_f64() / 100.0;
    let unit_ns = edge_s * 1e9 / (bond as f64).powi(3);
    println!(
        "calibration: {edges} edges at bond {bond}: {:.3} ms/edge = {unit_ns:.2} ns per \
         edge·χ³ unit (2^23 units = {:.1} ms); {:.3} ms/shot in a 7 x 100-shot leaf, {:.3} \
         alone => shot weight {:.2} .. {:.2} (service uses {MPS_SHOT_WEIGHT})",
        edge_s * 1e3,
        unit_ns * (1u64 << 23) as f64 / 1e6,
        batched_shot_s * 1e3,
        lone_shot_s * 1e3,
        batched_shot_s / edge_s,
        lone_shot_s / edge_s,
    );
}

criterion_group!(
    benches,
    bench_flat_vs_tree,
    bench_fused_vs_unfused,
    bench_range_chunks,
    bench_leaf_chunks
);
criterion_main!(benches);
