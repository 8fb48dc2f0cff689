//! Service integration suite: routing, cache warmth, determinism across
//! worker counts and engines, cancellation, backpressure, failure paths.

use ptsbe_circuit::{channels, Circuit, NoiseModel, NoisyCircuit};
use ptsbe_core::{ProbabilisticPts, PtsPlan, PtsPlanTree, PtsSampler};
use ptsbe_dataset::{BinarySink, JsonlSink, MemorySink, SharedBuffer};
use ptsbe_rng::PhiloxRng;
use ptsbe_service::{
    EngineKind, EnginePolicy, JobSpec, JobStatus, ServiceConfig, ServiceError, ShotService,
};
use std::sync::Arc;

/// Clifford circuit whose noiseless reference is measurement-
/// deterministic (no Hadamards before measurement): the frame domain.
fn parity_circuit(p: f64) -> NoisyCircuit {
    let mut c = Circuit::new(3);
    c.cx(0, 1).cx(0, 2).cx(0, 1).measure_all();
    NoiseModel::new()
        .with_default_2q(channels::depolarizing(p))
        .apply(&c)
}

/// Clifford + Pauli noise but an intrinsically random reference (H then
/// measure): valid everywhere except the frame engine.
fn bell_circuit(p: f64) -> NoisyCircuit {
    let mut c = Circuit::new(2);
    c.h(0).cx(0, 1).measure_all();
    NoiseModel::new()
        .with_default_1q(channels::depolarizing(p))
        .with_default_2q(channels::depolarizing(p))
        .apply(&c)
}

/// The Bell pair of [`bell_circuit`] on a 30-qubit register whose other
/// 28 qubits sit idle: wide enough that the router sends it to the MPS
/// engine, and still only bond 2.
fn wide_bell_circuit(p: f64) -> NoisyCircuit {
    let mut c = Circuit::new(30);
    c.h(0).cx(0, 1).measure_all();
    NoiseModel::new()
        .with_default_1q(channels::depolarizing(p))
        .with_default_2q(channels::depolarizing(p))
        .apply(&c)
}

/// Non-Clifford workload (T gates): statevector engines only.
fn t_circuit(p: f64) -> NoisyCircuit {
    let mut c = Circuit::new(3);
    c.h(0).t(0).cx(0, 1).t(1).cx(1, 2).measure_all();
    NoiseModel::new()
        .with_default_1q(channels::depolarizing(p))
        .with_default_2q(channels::depolarizing(p))
        .apply(&c)
}

/// A CX chain at `PARALLEL_THRESHOLD_QUBITS` (14) qubits with
/// non-unitary 1q noise: the smallest register on which the dense
/// kernels' fan-out branches and blocked norm reductions are live, and
/// on which a tree job is heavy enough for the service to split it.
fn threshold_circuit() -> NoisyCircuit {
    let n = ptsbe_statevector::PARALLEL_THRESHOLD_QUBITS;
    let mut c = Circuit::new(n);
    c.h(0).t(0);
    for q in 1..n {
        c.cx(q - 1, q);
    }
    c.measure_all();
    NoiseModel::new()
        .with_default_1q(channels::amplitude_damping(0.2))
        .with_default_2q(channels::depolarizing(0.05))
        .apply(&c)
}

/// `mps-brick32`'s circuit family at a width the router sends to the
/// MPS engine: a magic-ish preparation on every qubit, then brickwork CX
/// + T/H layers, depolarizing noise on the entanglers only.
fn brick_circuit(n: usize, depth: usize, p: f64) -> NoisyCircuit {
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.h(q).t(q);
    }
    for layer in 0..depth {
        for q in (layer % 2..n - 1).step_by(2) {
            c.cx(q, q + 1);
        }
        for q in 0..n {
            match (q + layer) % 3 {
                0 => c.t(q),
                1 => c.h(q),
                _ => &mut c,
            };
        }
    }
    c.measure_all();
    NoiseModel::new()
        .with_default_2q(channels::depolarizing2(p))
        .apply(&c)
}

fn plan_for(nc: &NoisyCircuit, n: usize, shots: usize, dedup: bool, seed: u64) -> PtsPlan {
    let mut rng = PhiloxRng::new(seed, 0);
    ProbabilisticPts {
        n_samples: n,
        shots_per_trajectory: shots,
        dedup,
    }
    .sample_plan(nc, &mut rng)
}

fn one_worker() -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    }
}

/// Run `spec` to completion on a fresh service with `workers` workers,
/// into the sink `make_sink` builds over a shared buffer; returns the
/// emitted bytes and the report.
fn run_into(
    spec: JobSpec,
    workers: usize,
    make_sink: fn(SharedBuffer) -> Box<dyn ptsbe_dataset::RecordSink>,
) -> (Vec<u8>, ptsbe_service::JobReport) {
    let service: ShotService = ShotService::start(ServiceConfig {
        workers,
        ..ServiceConfig::default()
    });
    let buf = SharedBuffer::new();
    let report = service.submit(spec, make_sink(buf.clone())).unwrap().wait();
    (buf.bytes(), report)
}

fn run_jsonl(spec: JobSpec, workers: usize) -> (Vec<u8>, ptsbe_service::JobReport) {
    run_into(spec, workers, |buf| Box::new(JsonlSink::new(buf)))
}

fn run_binary(spec: JobSpec, workers: usize) -> (Vec<u8>, ptsbe_service::JobReport) {
    run_into(spec, workers, |buf| Box::new(BinarySink::new(buf)))
}

// ---------------------------------------------------------------------------
// Routing

#[test]
fn routes_clifford_pauli_deterministic_to_frame() {
    let nc = parity_circuit(0.05);
    let plan = plan_for(&nc, 10, 100, true, 11);
    let expected_shots = plan.total_shots() as u64;
    let (_, report) = run_jsonl(JobSpec::new("parity", nc, plan, 1), 2);
    assert!(report.status.is_success(), "{report:?}");
    assert_eq!(report.engine, Some(EngineKind::Frame));
    assert_eq!(report.shots, expected_shots);
}

#[test]
fn random_reference_rejects_frame_routing() {
    // Clifford + Pauli noise, but H makes the reference random: the
    // determinism gate must push the job onto a statevector engine.
    let nc = bell_circuit(0.01);
    let plan = plan_for(&nc, 50, 20, true, 12);
    let (_, report) = run_jsonl(JobSpec::new("bell", nc, plan, 1), 2);
    assert!(report.status.is_success());
    assert!(
        matches!(
            report.engine,
            Some(EngineKind::Tree) | Some(EngineKind::BatchMajor)
        ),
        "got {:?}",
        report.engine
    );
}

#[test]
fn sharing_ratio_splits_tree_and_batch_major() {
    // Low noise, dedup off: the plan is dominated by repeated identity
    // assignments whose full paths coincide => high sharing => tree.
    let nc = t_circuit(0.005);
    let plan = plan_for(&nc, 60, 10, false, 13);
    let (_, report) = run_jsonl(JobSpec::new("hi-share", nc, plan, 1), 2);
    assert!(report.status.is_success());
    assert_eq!(
        report.engine,
        Some(EngineKind::Tree),
        "{}",
        report.route_reason
    );

    // Saturated noise: assignments diverge at the first sites, sharing
    // collapses => batch-major.
    let nc = t_circuit(0.9);
    let plan = plan_for(&nc, 60, 10, false, 14);
    let (_, report) = run_jsonl(JobSpec::new("lo-share", nc, plan, 1), 2);
    assert!(report.status.is_success());
    assert_eq!(
        report.engine,
        Some(EngineKind::BatchMajor),
        "{}",
        report.route_reason
    );
}

/// A low-sharing job keeps its `BatchMajor` label and its plan-range
/// cut, and walks each range's sub-trie: the report says "walked as",
/// lists every range's trie edges, and the bytes do not move with the
/// cut.
#[test]
fn a_low_sharing_job_walks_the_trie_of_each_plan_range() {
    let n = ptsbe_statevector::PARALLEL_THRESHOLD_QUBITS;
    let mut c = Circuit::new(n);
    c.h(0).t(0);
    for q in 1..n {
        c.cx(q - 1, q);
    }
    c.measure_all();
    let nc = Arc::new(
        NoiseModel::new()
            .with_default_1q(channels::depolarizing(0.6))
            .with_default_2q(channels::depolarizing(0.6))
            .apply(&c),
    );
    let plan = Arc::new(plan_for(&nc, 40, 4, true, 16));
    assert_eq!(plan.n_trajectories(), 40);
    assert_eq!(nc.n_sites(), 28);
    let spec = JobSpec::new("lo-share-cut", Arc::clone(&nc), Arc::clone(&plan), 5);
    let mut reference = None;
    // The plan-range cut: 14 qubits give 4 lanes, so at most 32
    // trajectories a chunk, and 40 · 29 segments · 2¹⁴ amplitude
    // updates are nine 2²¹ shares, so the chunk count rounds up to a
    // multiple of the workers.
    for (workers, per) in [(1, 20), (2, 20), (4, 10)] {
        let (bytes, report) = run_binary(spec.clone(), workers);
        assert!(report.status.is_success(), "{report:?}");
        assert_eq!(report.engine, Some(EngineKind::BatchMajor));
        assert!(
            report.route_reason.starts_with("plan tree shares only"),
            "{}",
            report.route_reason
        );
        let cut: Vec<_> = (0..40).step_by(per).map(|s| s..s + per).collect();
        assert!(
            report
                .route_reason
                .ends_with(&format!("walked as {} plan-range chunk(s)", cut.len())),
            "{workers} workers: {}",
            report.route_reason
        );
        let edges: Vec<u64> = cut
            .iter()
            .map(|r| PtsPlanTree::from_plan_range(&plan, r.clone()).n_edges() as u64)
            .collect();
        assert_eq!(report.chunk_edges, edges, "{workers} workers");
        assert_eq!(&bytes, reference.get_or_insert_with(|| bytes.clone()));
    }
}

#[test]
fn wide_registers_route_to_mps_tree() {
    let nc = wide_bell_circuit(0.3);
    let plan = plan_for(&nc, 10, 5, false, 15);
    let service: ShotService = ShotService::start(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    });
    let (sink, store) = MemorySink::new();
    let mut spec = JobSpec::new("wide", nc, plan.clone(), 3);
    // An MPS tree job is cut between the leaves of its trie: at least
    // three trajectories a chunk, closed at the next leaf boundary.
    spec.chunk_trajectories = 3;
    let cut = PtsPlanTree::from_plan(&plan).leaf_chunks_of_at_least(&plan, 3);
    assert!(cut.len() > 1, "the plan must have leaves to cut between");
    let handle = service.submit(spec, Box::new(sink)).unwrap();
    let report = handle.wait();
    assert!(report.status.is_success(), "{report:?}");
    assert_eq!(report.engine, Some(EngineKind::MpsTree));
    assert_eq!(report.chunks, cut.len() as u64, "{}", report.route_reason);
    assert!(
        report
            .route_reason
            .ends_with(&format!("walked as {} trie-order chunk(s)", cut.len())),
        "{}",
        report.route_reason
    );
    let cut_edges: Vec<u64> = cut.iter().map(|c| c.edges as u64).collect();
    assert_eq!(report.chunk_edges, cut_edges);
    let store = store.lock().unwrap();
    assert_eq!(store.records.len(), plan.n_trajectories());
    // Trie-order chunks reach the sink merged back into plan order.
    for (i, r) in store.records.iter().enumerate() {
        assert_eq!(r.meta.traj_id, i);
    }
    assert!(store.finished);
    assert!(store
        .header
        .as_ref()
        .unwrap()
        .backend
        .starts_with("mps-tree"));
}

// ---------------------------------------------------------------------------
// Truncation-budget probe: refusal and the honest ceiling

/// An MPS job whose budget survives the identity probe keeps the MPS
/// engine, and the probe's stats land on the route decision.
#[test]
fn mps_job_within_budget_keeps_engine_and_records_probe() {
    let nc = wide_bell_circuit(0.02);
    let plan = plan_for(&nc, 8, 5, true, 31);
    let service: ShotService = ShotService::start(one_worker());
    let mut spec = JobSpec::new("in-budget", nc, plan, 7);
    spec.mps = ptsbe_tensornet::MpsConfig::adaptive(64, 1e-8, 0.5);
    let (sink, _) = MemorySink::new();
    let handle = service.submit(spec, Box::new(sink)).unwrap();
    let report = handle.wait();
    assert!(report.status.is_success(), "{report:?}");
    assert_eq!(report.engine, Some(EngineKind::MpsTree));
    let probe = handle.route().unwrap().truncation.expect("probe must run");
    assert!(!probe.budget_exhausted);
    assert_eq!(probe.trunc_error, 0.0, "a Bell pair cannot truncate");
}

/// A forced MPS job stays on MPS: with no ceiling headroom, a blown
/// budget is a refusal, not a silent engine swap.
#[test]
fn forced_mps_job_with_blown_budget_is_refused() {
    let nc = bell_circuit(0.02);
    let plan = plan_for(&nc, 8, 5, true, 33);
    let service: ShotService = ShotService::start(ServiceConfig {
        workers: 1,
        mps_bond_ceiling: 1,
        ..ServiceConfig::default()
    });
    let mut spec =
        JobSpec::new("refused", nc, plan, 7).with_engine(EnginePolicy::Force(EngineKind::MpsTree));
    spec.mps = ptsbe_tensornet::MpsConfig::adaptive(1, 1e-6, 1e-3);
    let (sink, _) = MemorySink::new();
    let handle = service.submit(spec, Box::new(sink)).unwrap();
    let report = handle.wait();
    assert_eq!(report.status, JobStatus::Failed);
    let err = report.error.as_deref().unwrap_or("");
    assert_eq!(
        err,
        "mps engine refused: identity-assignment probe truncation 5.000e-1 exceeds the \
         cumulative budget 1.000e-3 (bond ceiling 1 reached: true)"
    );
    assert_eq!(service.metrics().mps_budget_refusals, 1);
}

/// A noise site on three qubits is outside the MPS kernel set. Its
/// lowering refuses it, so a forced MPS job fails at routing — before
/// any chunk exists to panic in the hot loop and be retried.
#[test]
fn forced_mps_job_with_a_three_qubit_site_fails_at_routing() {
    use ptsbe_circuit::KrausChannel;
    use ptsbe_math::{gates, Matrix};
    let xxx = gates::x::<f64>().kron(&gates::x()).kron(&gates::x());
    let wide = KrausChannel::new(
        "mix3",
        vec![
            Matrix::identity(8).scaled_real(0.5f64.sqrt()),
            xxx.scaled_real(0.5f64.sqrt()),
        ],
    )
    .unwrap();
    let mut c = Circuit::new(3);
    c.h(0).cx(0, 1);
    c.noise(Arc::new(wide), &[0, 1, 2]);
    c.measure_all();
    let nc = NoisyCircuit::from_circuit(c);
    let plan = plan_for(&nc, 8, 5, false, 34);
    let service: ShotService = ShotService::start(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    });
    let spec = JobSpec::new("wide-site", nc, plan, 7)
        .with_engine(EnginePolicy::Force(EngineKind::MpsTree));
    let (sink, _) = MemorySink::new();
    let report = service.submit(spec, Box::new(sink)).unwrap().wait();
    assert_eq!(report.status, JobStatus::Failed);
    assert_eq!(
        report.error.as_deref(),
        Some("mps compile failed: 3-qubit gates and noise sites unsupported on MPS")
    );
    assert_eq!(service.metrics().chunk_retries, 0);
}

/// A shot is one 128-bit word, so a wider register has no engine: the
/// router sends it to MPS (too wide for a dense state, too many measured
/// bits for frames), whose lowering refuses it. It used to run and fold
/// bit 129 onto bit 1.
#[test]
fn registers_wider_than_a_shot_word_fail_at_routing() {
    let mut c = Circuit::new(130);
    c.x(1).x(129).t(0);
    c.measure_all();
    let nc = NoiseModel::new()
        .with_default_1q(channels::depolarizing(1e-3))
        .apply(&c);
    let plan = plan_for(&nc, 4, 5, true, 37);
    let service: ShotService = ShotService::start(one_worker());
    for policy in [EnginePolicy::Auto, EnginePolicy::Force(EngineKind::MpsTree)] {
        let spec = JobSpec::new("too-wide", nc.clone(), plan.clone(), 7).with_engine(policy);
        let (sink, store) = MemorySink::new();
        let report = service.submit(spec, Box::new(sink)).unwrap().wait();
        assert_eq!(report.status, JobStatus::Failed, "{policy:?}");
        assert_eq!(
            report.error.as_deref(),
            Some(
                "mps compile failed: 130-qubit registers unsupported on MPS \
                 (a shot is one 128-bit word)"
            ),
            "{policy:?}"
        );
        assert!(store.lock().unwrap().records.is_empty());
    }
    assert_eq!(service.metrics().chunk_retries, 0);
}

/// The auto router's refusal: a register too wide for a dense fallback
/// whose probe blows the budget with no ceiling headroom. The error text
/// is part of what operators grep for, so it is pinned whole.
#[test]
fn wide_auto_job_with_blown_budget_and_no_dense_fallback_is_refused() {
    let n = 30;
    let mut c = Circuit::new(n);
    c.h(0);
    for q in 1..n {
        c.cx(q - 1, q);
    }
    c.measure_all();
    let nc = NoiseModel::new()
        .with_default_1q(channels::depolarizing(0.02))
        .apply(&c);
    let plan = plan_for(&nc, 4, 2, true, 36);
    let service: ShotService = ShotService::start(ServiceConfig {
        workers: 1,
        mps_bond_ceiling: 1,
        ..ServiceConfig::default()
    });
    let mut spec = JobSpec::new("refused-wide", nc, plan, 7);
    spec.mps = ptsbe_tensornet::MpsConfig::adaptive(1, 1e-6, 1e-3);
    let (sink, _) = MemorySink::new();
    let report = service.submit(spec, Box::new(sink)).unwrap().wait();
    assert_eq!(report.status, JobStatus::Failed);
    assert_eq!(report.engine, None);
    assert_eq!(
        report.error.as_deref(),
        Some(
            "mps engine refused: identity-assignment probe truncation 5.000e-1 exceeds the \
             cumulative budget 1.000e-3, and 30 qubits is too wide for a dense fallback — raise \
             max_bond (ceiling 1 reached: true) or the budget"
        )
    );
    assert_eq!(service.metrics().mps_budget_refusals, 1);
}

/// The ROADMAP's χ=192-vs-256 lesson, scaled down: a binding bond cap
/// (χ=1 on a Bell pair) blows the truncation budget, but the blowout is
/// the cap's fault, not the circuit's — the router must route MPS at
/// the service's honest ceiling instead of refusing the job, and the
/// delivered data must be truncation-free.
#[test]
fn binding_bond_cap_routes_at_honest_ceiling() {
    let nc = wide_bell_circuit(0.02);
    let plan = plan_for(&nc, 8, 5, true, 34);
    let service: ShotService = ShotService::start(ServiceConfig {
        workers: 1,
        mps_bond_ceiling: 16,
        ..ServiceConfig::default()
    });
    let mut spec = JobSpec::new("honest-ceiling", nc, plan.clone(), 7);
    spec.mps = ptsbe_tensornet::MpsConfig::adaptive(1, 1e-6, 1e-3);
    let (sink, store) = MemorySink::new();
    let handle = service.submit(spec, Box::new(sink)).unwrap();
    let report = handle.wait();
    assert!(report.status.is_success(), "{report:?}");
    assert_eq!(
        report.engine,
        Some(EngineKind::MpsTree),
        "{}",
        report.route_reason
    );
    assert!(
        report.route_reason.contains("honest ceiling 16"),
        "{}",
        report.route_reason
    );
    let probe = handle.route().unwrap().truncation.expect("probe must run");
    assert!(!probe.budget_exhausted);
    assert_eq!(
        probe.trunc_error, 0.0,
        "at the honest ceiling the Bell pair is exact"
    );
    assert_eq!(store.lock().unwrap().records.len(), plan.n_trajectories());
    assert_eq!(service.metrics().mps_budget_refusals, 0);
}

/// `Force(MpsTree)` composes with the honest ceiling: raising the cap
/// keeps the job on the demanded engine, so it succeeds where the
/// no-headroom case above is refused.
#[test]
fn forced_mps_with_binding_cap_raises_instead_of_refusing() {
    let nc = bell_circuit(0.02);
    let plan = plan_for(&nc, 8, 5, true, 35);
    let service: ShotService = ShotService::start(one_worker());
    let mut spec = JobSpec::new("forced-honest", nc, plan, 7)
        .with_engine(EnginePolicy::Force(EngineKind::MpsTree));
    spec.mps = ptsbe_tensornet::MpsConfig::adaptive(1, 1e-6, 1e-3);
    let (sink, _) = MemorySink::new();
    let handle = service.submit(spec, Box::new(sink)).unwrap();
    let report = handle.wait();
    assert!(report.status.is_success(), "{report:?}");
    assert_eq!(report.engine, Some(EngineKind::MpsTree));
    assert!(
        report.route_reason.contains("bond cap 1 was binding"),
        "{}",
        report.route_reason
    );
    assert_eq!(service.metrics().mps_budget_refusals, 0);
}

// ---------------------------------------------------------------------------
// Cache warmth

#[test]
fn warm_repeat_job_does_zero_compile_or_plan_work() {
    let nc = Arc::new(t_circuit(0.01));
    let plan = Arc::new(plan_for(&nc, 40, 25, true, 16));
    let service: ShotService = ShotService::start(one_worker());

    let spec = JobSpec::new("warmth", Arc::clone(&nc), Arc::clone(&plan), 5);
    let cold_buf = SharedBuffer::new();
    let h = service
        .submit(spec.clone(), Box::new(JsonlSink::new(cold_buf.clone())))
        .unwrap();
    assert!(h.wait().status.is_success());
    let cold = service.cache_stats();
    assert!(cold.compile_misses() > 0, "cold run must compile");
    assert!(cold.tree_misses > 0, "cold run must build the plan tree");

    let warm_buf = SharedBuffer::new();
    let h = service
        .submit(spec, Box::new(JsonlSink::new(warm_buf.clone())))
        .unwrap();
    assert!(h.wait().status.is_success());
    let warm = service.cache_stats();
    assert_eq!(
        warm.compile_misses(),
        cold.compile_misses(),
        "warm repeat must not compile"
    );
    assert_eq!(
        warm.tree_misses, cold.tree_misses,
        "warm repeat must not rebuild the plan tree"
    );
    assert!(
        warm.compile_hits() > cold.compile_hits() && warm.tree_hits > cold.tree_hits,
        "warm repeat must hit: {warm:?} vs {cold:?}"
    );
    assert_eq!(
        cold_buf.bytes(),
        warm_buf.bytes(),
        "cache state must not change output bytes"
    );
}

/// A byte-budgeted cache must evict cold artifacts under pressure, and
/// eviction must be invisible in the output: re-running the evicted job
/// recompiles (a second miss) yet delivers byte-identical JSONL.
#[test]
fn capped_cache_evicts_cold_entries_without_changing_output() {
    // Two distinct workloads, both forced onto batch-major so only the
    // statevector shelf is populated. One bell-sized compiled artifact
    // is 1088 bytes; the budget fits exactly one.
    let nc_a = Arc::new(bell_circuit(0.01));
    let nc_b = Arc::new(bell_circuit(0.05));
    let plan_a = Arc::new(plan_for(&nc_a, 20, 10, false, 101));
    let plan_b = Arc::new(plan_for(&nc_b, 20, 10, false, 102));
    let service: ShotService = ShotService::start(ServiceConfig {
        workers: 1,
        cache_budget_bytes: Some(1600),
        ..ServiceConfig::default()
    });
    let run = |name: &str, nc: &Arc<NoisyCircuit>, plan: &Arc<PtsPlan>| {
        let buf = SharedBuffer::new();
        let spec = JobSpec::new(name, Arc::clone(nc), Arc::clone(plan), 7)
            .with_engine(EnginePolicy::Force(EngineKind::BatchMajor));
        let report = service
            .submit(spec, Box::new(JsonlSink::new(buf.clone())))
            .unwrap()
            .wait();
        assert!(report.status.is_success(), "{name}: {report:?}");
        buf.bytes()
    };

    let a_cold = run("cap-a", &nc_a, &plan_a);
    run("cap-b", &nc_b, &plan_b); // evicts A's artifact
    let a_again = run("cap-a", &nc_a, &plan_a); // recompiles A, evicts B

    let cache = service.metrics().cache;
    assert!(
        cache.evictions >= 2,
        "budget pressure must evict: {cache:?}"
    );
    assert_eq!(
        cache.sv_misses, 3,
        "the evicted artifact must be recompiled: {cache:?}"
    );
    assert!(
        cache.resident_bytes <= 1600,
        "resident bytes over budget: {cache:?}"
    );
    assert_eq!(
        a_cold, a_again,
        "eviction and recompilation must not change output bytes"
    );

    // Same jobs on an unbounded service: both stay resident, zero
    // evictions, and the repeat run is a pure hit.
    let unbounded: ShotService = ShotService::start(one_worker());
    for (name, nc, plan) in [
        ("u-a", &nc_a, &plan_a),
        ("u-b", &nc_b, &plan_b),
        ("u-a", &nc_a, &plan_a),
    ] {
        let buf = SharedBuffer::new();
        let spec = JobSpec::new(name, Arc::clone(nc), Arc::clone(plan), 7)
            .with_engine(EnginePolicy::Force(EngineKind::BatchMajor));
        assert!(unbounded
            .submit(spec, Box::new(JsonlSink::new(buf.clone())))
            .unwrap()
            .wait()
            .status
            .is_success());
    }
    let cache = unbounded.metrics().cache;
    assert_eq!(cache.evictions, 0, "{cache:?}");
    assert_eq!((cache.sv_misses, cache.sv_hits), (2, 1), "{cache:?}");
}

// ---------------------------------------------------------------------------
// Determinism

/// Same spec, worker counts {1, 2, 4, 8}: identical dataset bytes, JSONL
/// and `PTSB` (whose frames pick an encoding per record). Runs the
/// multi-chunk engines with small chunks so the reorder buffer actually
/// reassembles out-of-order completions. The 3-qubit dense jobs draw 20
/// shots per trajectory — past `Auto`'s 2·2ⁿ, the counted sampler — and
/// the flat one 10, the sorted merge.
#[test]
fn bytes_identical_across_worker_counts_all_engines() {
    let cases: Vec<(&str, JobSpec)> = vec![
        ("frame", {
            let nc = parity_circuit(0.08);
            let plan = plan_for(&nc, 8, 2000, false, 21);
            let mut s = JobSpec::new("d-frame", nc, plan, 77);
            s.frame_chunk_shots = 512; // 32 chunks
            s
        }),
        ("tree", {
            let nc = t_circuit(0.01);
            let plan = plan_for(&nc, 50, 20, false, 22);
            JobSpec::new("d-tree", nc, plan, 77).with_engine(EnginePolicy::Force(EngineKind::Tree))
        }),
        ("batch-major", {
            let nc = t_circuit(0.05);
            let plan = plan_for(&nc, 53, 20, false, 23); // ragged tail
            let mut s = JobSpec::new("d-batch", nc, plan, 77)
                .with_engine(EnginePolicy::Force(EngineKind::BatchMajor));
            s.chunk_trajectories = 7; // 8 chunks
            s
        }),
        ("flat", {
            let nc = t_circuit(0.05);
            let plan = plan_for(&nc, 30, 10, false, 24);
            let mut s = JobSpec::new("d-flat", nc, plan, 77)
                .with_engine(EnginePolicy::Force(EngineKind::Flat));
            s.chunk_trajectories = 4;
            s
        }),
    ];
    for (label, spec) in cases {
        for run in [run_jsonl, run_binary] {
            let (reference, report) = run(spec.clone(), 1);
            assert!(report.status.is_success(), "{label}: {report:?}");
            for workers in [2usize, 4, 8] {
                let (bytes, report) = run(spec.clone(), workers);
                assert!(report.status.is_success(), "{label}/{workers}");
                assert_eq!(
                    bytes, reference,
                    "{label}: dataset bytes must not depend on worker count ({workers})"
                );
            }
        }
    }
}

/// `executor_parallel` only moves where threads are spent — inside a
/// chunk (`true`) or one per worker all the way down to the kernels
/// (`false`). At `PARALLEL_THRESHOLD_QUBITS` qubits the dense kernels'
/// fan-out branches and blocked norm reductions are live, so this is the
/// case where the two settings take different code paths underneath.
#[test]
fn bytes_identical_across_executor_parallel_above_fanout_threshold() {
    let nc = Arc::new(threshold_circuit());
    let plan = Arc::new(plan_for(&nc, 12, 10, false, 41));
    for engine in [EngineKind::Tree, EngineKind::BatchMajor] {
        let mut spec = JobSpec::new("x-par", Arc::clone(&nc), Arc::clone(&plan), 13)
            .with_engine(EnginePolicy::Force(engine));
        spec.chunk_trajectories = 3;
        let mut reference: Option<Vec<u8>> = None;
        for executor_parallel in [false, true] {
            for workers in [1usize, 2] {
                let service: ShotService = ShotService::start(ServiceConfig {
                    workers,
                    executor_parallel,
                    ..ServiceConfig::default()
                });
                let buf = SharedBuffer::new();
                let report = service
                    .submit(spec.clone(), Box::new(BinarySink::new(buf.clone())))
                    .unwrap()
                    .wait();
                assert!(report.status.is_success(), "{engine:?}: {report:?}");
                let bytes = buf.bytes();
                let reference = reference.get_or_insert_with(|| bytes.clone());
                assert_eq!(
                    &bytes, reference,
                    "{engine:?}: executor_parallel={executor_parallel} workers={workers}"
                );
            }
        }
    }
}

/// A dense job heavy enough for the automatic rule is cut into plan
/// ranges — at most one per worker, none on a one-worker service — and
/// the cut never shows in the bytes. That holds for both dense cuts;
/// the batch-major plan stays within one chunk's cap (32 trajectories of
/// 14 qubits), so only the worker shares cut it.
#[test]
fn split_tree_job_bytes_identical_across_worker_counts() {
    let nc = Arc::new(threshold_circuit());
    for (engine, n) in [(EngineKind::Tree, 400), (EngineKind::BatchMajor, 32)] {
        let plan = Arc::new(plan_for(&nc, n, 4, false, 43));
        let spec = JobSpec::new("split-dense", Arc::clone(&nc), Arc::clone(&plan), 17)
            .with_engine(EnginePolicy::Force(engine));
        let (reference, report) = run_binary(spec.clone(), 1);
        assert!(report.status.is_success(), "{report:?}");
        assert_eq!(report.engine, Some(engine));
        assert_eq!(report.chunks, 1, "one worker must not split: {report:?}");
        assert!(
            report.route_reason.contains("1 plan-range chunk"),
            "{}",
            report.route_reason
        );
        for workers in [2usize, 4, 8] {
            let (bytes, report) = run_binary(spec.clone(), workers);
            assert!(report.status.is_success(), "{workers}: {report:?}");
            assert!(
                report.chunks > 1 && report.chunks <= workers as u64,
                "{engine:?} on {workers} workers: cut into {} chunks",
                report.chunks
            );
            assert!(
                report
                    .route_reason
                    .contains(&format!("{} plan-range chunk", report.chunks)),
                "{}",
                report.route_reason
            );
            assert_eq!(report.records, plan.n_trajectories() as u64);
            assert_eq!(
                bytes, reference,
                "{engine:?} split at {workers} workers changed bytes"
            );
        }
    }
}

/// An `mps-brick32`-shaped job (a 30-qubit brickwork circuit, Auto-routed
/// to the MPS engine) cut in trie order: the bytes are those of the
/// unsplit walk on any worker count, one worker never cuts, and the
/// report says how the walk was cut.
#[test]
fn split_mps_job_bytes_identical_across_worker_counts() {
    let nc = Arc::new(brick_circuit(30, 4, 2e-2));
    let plan = Arc::new(plan_for(&nc, 10, 20, false, 45));
    let mut unsplit = JobSpec::new("split-mps", Arc::clone(&nc), Arc::clone(&plan), 19);
    // Budget-driven truncation, as `mps-brick32` runs: the router's
    // identity probe then tells the cut rule the bond this depth reaches.
    unsplit.mps = ptsbe_tensornet::MpsConfig::adaptive(256, 1e-5, 1e-2);
    let mut split = unsplit.clone();
    split.chunk_trajectories = 3;
    let cut = PtsPlanTree::from_plan(&plan).leaf_chunks_of_at_least(&plan, 3);
    assert!(cut.len() >= 3, "{} chunks", cut.len());

    // Too little work for the automatic rule: the unsplit reference.
    let (reference, report) = run_binary(unsplit, 4);
    assert!(report.status.is_success(), "{report:?}");
    assert_eq!(report.engine, Some(EngineKind::MpsTree));
    assert_eq!(report.chunks, 1, "{}", report.route_reason);
    let (_, records) = ptsbe_dataset::binary::decode(&reference).unwrap();
    assert_eq!(records.len(), plan.n_trajectories());
    assert!(records.iter().all(|r| r.meta.truncation.is_some()));

    for workers in [1usize, 2, 4, 8] {
        let (bytes, report) = run_binary(split.clone(), workers);
        assert!(report.status.is_success(), "{workers}: {report:?}");
        assert_eq!(report.engine, Some(EngineKind::MpsTree));
        let expect = if workers == 1 { 1 } else { cut.len() as u64 };
        assert_eq!(report.chunks, expect, "{workers}: {}", report.route_reason);
        assert!(
            report
                .route_reason
                .contains(&format!("walked as {expect} trie-order chunk(s)")),
            "{}",
            report.route_reason
        );
        assert_eq!(report.chunk_edges.len() as u64, expect);
        if workers > 1 {
            let edges: Vec<u64> = cut.iter().map(|c| c.edges as u64).collect();
            assert_eq!(report.chunk_edges, edges, "{workers} workers");
        }
        assert_eq!(report.records, plan.n_trajectories() as u64);
        assert_eq!(bytes, reference, "split at {workers} workers changed bytes");
    }
}

/// `svc-small`'s MPS jobs — 32 qubits, depth 4-6, budget-driven
/// truncation, two dozen iid trajectories — are a few milliseconds of
/// bond-8 work: the automatic rule leaves them one chunk on any pool.
#[test]
fn shallow_wide_mps_jobs_stay_one_chunk() {
    for depth in [4usize, 5, 6] {
        let nc = brick_circuit(32, depth, 1e-3);
        let plan = plan_for(&nc, 24, 20, false, 46 + depth as u64);
        let mut spec = JobSpec::new("shallow-mps", nc, plan, 23);
        spec.mps = ptsbe_tensornet::MpsConfig::adaptive(256, 1e-5, 1e-2);
        let (_, report) = run_binary(spec, 4);
        assert!(report.status.is_success(), "{report:?}");
        assert_eq!(report.engine, Some(EngineKind::MpsTree));
        assert_eq!(report.chunks, 1, "depth {depth}: {}", report.route_reason);
    }
}

/// `chunk_trajectories` is honoured by the dense tree engine, and a
/// forced fine split (17 sub-tries of ≤ 3 trajectories) delivers the
/// unsplit walk's bytes.
#[test]
fn forced_tree_split_equals_unsplit() {
    let nc = Arc::new(t_circuit(0.02));
    let plan = Arc::new(plan_for(&nc, 50, 12, false, 44));
    let unsplit = JobSpec::new("forced-split", Arc::clone(&nc), Arc::clone(&plan), 3)
        .with_engine(EnginePolicy::Force(EngineKind::Tree));
    let mut split = unsplit.clone();
    split.chunk_trajectories = 3;
    let (reference, report) = run_binary(unsplit, 4);
    assert!(report.status.is_success(), "{report:?}");
    assert_eq!(report.chunks, 1, "a 3-qubit trie is too small to cut");
    for workers in [1usize, 4] {
        let (bytes, report) = run_binary(split.clone(), workers);
        assert!(report.status.is_success(), "{report:?}");
        assert_eq!(report.chunks, 17);
        assert_eq!(bytes, reference, "{workers} workers");
    }
}

/// Tree, batch-major and flat are bitwise-identical executors, so the
/// *records* they deliver for the same job must match exactly (headers
/// differ by engine label only).
#[test]
fn sv_engines_deliver_identical_records() {
    let nc = Arc::new(t_circuit(0.02));
    let plan = Arc::new(plan_for(&nc, 40, 15, false, 31));
    let mut stores = Vec::new();
    for engine in [EngineKind::Tree, EngineKind::BatchMajor, EngineKind::Flat] {
        let service: ShotService = ShotService::start(ServiceConfig {
            workers: 3,
            ..ServiceConfig::default()
        });
        let (sink, store) = MemorySink::new();
        let spec = JobSpec::new("x-engine", Arc::clone(&nc), Arc::clone(&plan), 9)
            .with_engine(EnginePolicy::Force(engine));
        let report = service.submit(spec, Box::new(sink)).unwrap().wait();
        assert!(report.status.is_success(), "{engine:?}: {report:?}");
        stores.push((engine, store));
    }
    let (_, reference) = &stores[0];
    let reference = reference.lock().unwrap();
    for (engine, store) in &stores[1..] {
        let store = store.lock().unwrap();
        assert_eq!(store.records.len(), reference.records.len());
        for (a, b) in store.records.iter().zip(reference.records.iter()) {
            assert_eq!(a.shots, b.shots, "{engine:?}: shots must match bitwise");
            assert_eq!(a.meta.choices, b.meta.choices, "{engine:?}");
            assert_eq!(
                a.meta.realized_prob.to_bits(),
                b.meta.realized_prob.to_bits(),
                "{engine:?}"
            );
        }
    }
}

/// Frame-routed jobs and tree-routed jobs draw from the same physical
/// distribution on deterministic-measurement Clifford circuits.
#[test]
fn frame_agrees_with_tree_on_deterministic_circuit() {
    let nc = Arc::new(parity_circuit(0.1));
    let service: ShotService = ShotService::start(ServiceConfig {
        workers: 4,
        ..ServiceConfig::default()
    });

    // Frame: bulk path, noise drawn per shot.
    let frame_plan = plan_for(&nc, 1, 120_000, true, 41);
    let (sink, frame_store) = MemorySink::new();
    let report = service
        .submit(
            JobSpec::new("agree-frame", Arc::clone(&nc), frame_plan, 51),
            Box::new(sink),
        )
        .unwrap()
        .wait();
    assert_eq!(report.engine, Some(EngineKind::Frame), "{report:?}");
    let frame_total = report.shots;

    // Tree: plan-exact path, one shot per sampled trajectory ⇒ the
    // empirical mix over trajectories is the channel distribution.
    let tree_plan = plan_for(&nc, 40_000, 3, false, 42);
    let (sink, tree_store) = MemorySink::new();
    let report = service
        .submit(
            JobSpec::new("agree-tree", Arc::clone(&nc), tree_plan, 52)
                .with_engine(EnginePolicy::Force(EngineKind::Tree)),
            Box::new(sink),
        )
        .unwrap()
        .wait();
    assert!(report.status.is_success(), "{report:?}");
    let tree_total = report.shots;

    let hist = |records: &[ptsbe_dataset::TrajectoryRecord], total: f64| {
        let mut h = [0.0f64; 8];
        for r in records {
            for s in &r.shots {
                h[s.0 as usize] += 1.0 / total;
            }
        }
        h
    };
    let f = hist(&frame_store.lock().unwrap().records, frame_total as f64);
    let t = hist(&tree_store.lock().unwrap().records, tree_total as f64);
    let tvd: f64 = f.iter().zip(&t).map(|(a, b)| (a - b).abs()).sum::<f64>() / 2.0;
    assert!(
        tvd < 0.02,
        "frame and tree engines disagree: TVD {tvd:.4}\nframe {f:?}\ntree  {t:?}"
    );
}

// ---------------------------------------------------------------------------
// Lifecycle: cancellation, backpressure, failures

#[test]
fn cancellation_terminates_queued_job_and_service_survives() {
    let service: ShotService = ShotService::start(one_worker());
    let nc = parity_circuit(0.01);

    // A long job to occupy the single worker...
    let big = plan_for(&nc, 1, 3_000_000, true, 61);
    let mut big_spec = JobSpec::new("blocker", nc.clone(), big, 1);
    big_spec.frame_chunk_shots = 1 << 14;
    let (sink, _) = MemorySink::new();
    let blocker = service.submit(big_spec, Box::new(sink)).unwrap();

    // ...then a queued job we cancel before it is planned.
    let small = plan_for(&nc, 5, 10, true, 62);
    let (sink, victim_store) = MemorySink::new();
    let victim = service
        .submit(JobSpec::new("victim", nc.clone(), small, 2), Box::new(sink))
        .unwrap();
    victim.cancel();

    let report = victim.wait();
    assert_eq!(report.status, JobStatus::Cancelled);
    assert_eq!(report.records, 0);
    assert!(victim_store.lock().unwrap().records.is_empty());
    assert!(blocker.wait().status.is_success());

    // The pool is healthy afterwards.
    let next = plan_for(&nc, 5, 10, true, 63);
    let (sink, _) = MemorySink::new();
    let report = service
        .submit(JobSpec::new("after", nc, next, 3), Box::new(sink))
        .unwrap()
        .wait();
    assert!(report.status.is_success());
    assert_eq!(service.metrics().jobs_cancelled, 1);
}

#[test]
fn try_submit_saturates_then_recovers() {
    let service: ShotService = ShotService::start(ServiceConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServiceConfig::default()
    });
    let nc = parity_circuit(0.01);
    let big = plan_for(&nc, 1, 5_000_000, true, 71);
    let mut spec = JobSpec::new("big", nc.clone(), big, 1);
    spec.frame_chunk_shots = 1 << 14;
    let (sink, _) = MemorySink::new();
    let first = service.submit(spec, Box::new(sink)).unwrap();

    let small = plan_for(&nc, 2, 5, true, 72);
    let (sink, _) = MemorySink::new();
    let err = service
        .try_submit(
            JobSpec::new("second", nc.clone(), small.clone(), 2),
            Box::new(sink),
        )
        .unwrap_err();
    assert_eq!(err, ServiceError::Saturated);

    assert!(first.wait().status.is_success());
    let (sink, _) = MemorySink::new();
    let report = service
        .submit(JobSpec::new("second", nc, small, 2), Box::new(sink))
        .unwrap()
        .wait();
    assert!(report.status.is_success());
}

#[test]
fn admission_respects_capacity_under_flood() {
    let service: ShotService = ShotService::start(ServiceConfig {
        workers: 4,
        queue_capacity: 3,
        ..ServiceConfig::default()
    });
    let nc = Arc::new(bell_circuit(0.02));
    let plan = Arc::new(plan_for(&nc, 10, 20, true, 81));
    let handles: Vec<_> = (0..12)
        .map(|i| {
            let (sink, _) = MemorySink::new();
            service
                .submit(
                    JobSpec::new(format!("flood-{i}"), Arc::clone(&nc), Arc::clone(&plan), i),
                    Box::new(sink),
                )
                .unwrap()
        })
        .collect();
    for h in &handles {
        assert!(h.wait().status.is_success());
    }
    let m = service.metrics();
    assert_eq!(m.jobs_done, 12);
    assert!(
        m.peak_active_jobs <= 3,
        "admission exceeded capacity: peak {}",
        m.peak_active_jobs
    );
}

#[test]
fn invalid_plan_rejected_at_submit() {
    let service: ShotService = ShotService::start(one_worker());
    let nc = bell_circuit(0.1);

    // Wrong assignment length.
    let mut plan = plan_for(&nc, 3, 5, true, 91);
    plan.trajectories[0].choices.pop();
    let (sink, _) = MemorySink::new();
    let err = service
        .submit(JobSpec::new("bad-len", nc.clone(), plan, 1), Box::new(sink))
        .unwrap_err();
    assert!(matches!(err, ServiceError::InvalidJob(_)), "{err:?}");

    // Branch index out of the channel's range: rejected at admission,
    // not discovered as a worker panic.
    let mut plan = plan_for(&nc, 3, 5, true, 91);
    plan.trajectories[0].choices[0] = 99;
    let (sink, _) = MemorySink::new();
    let err = service
        .submit(JobSpec::new("bad-branch", nc, plan, 1), Box::new(sink))
        .unwrap_err();
    match err {
        ServiceError::InvalidJob(msg) => assert!(msg.contains("branch 99"), "{msg}"),
        other => panic!("expected InvalidJob, got {other:?}"),
    }
}

#[test]
fn uncompilable_and_misrouted_jobs_fail_cleanly() {
    let service: ShotService = ShotService::start(one_worker());

    // Reset: no fixed-assignment backend accepts it.
    let mut c = Circuit::new(1);
    c.reset(0);
    c.measure_all();
    let nc = NoisyCircuit::from_circuit(c);
    let (sink, _) = MemorySink::new();
    let report = service
        .submit(
            JobSpec::new("reset", nc, PtsPlan::default(), 1),
            Box::new(sink),
        )
        .unwrap()
        .wait();
    assert_eq!(report.status, JobStatus::Failed);
    assert!(
        report.error.unwrap().contains("compile"),
        "error should name the compile"
    );

    // Forcing the frame engine onto a non-Clifford circuit fails with a
    // frame-specific reason.
    let nc = t_circuit(0.01);
    let plan = plan_for(&nc, 3, 5, true, 92);
    let (sink, _) = MemorySink::new();
    let report = service
        .submit(
            JobSpec::new("forced-frame", nc, plan, 1)
                .with_engine(EnginePolicy::Force(EngineKind::Frame)),
            Box::new(sink),
        )
        .unwrap()
        .wait();
    assert_eq!(report.status, JobStatus::Failed);
    assert!(report.error.unwrap().contains("frame"));
    assert_eq!(service.metrics().jobs_failed, 2);
}
