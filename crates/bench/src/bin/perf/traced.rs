//! The traced phase: per-layer numbers, never mixed into the
//! tracing-off ones.
//!
//! - **T2** runs jobs on a one-worker service (`service.job1w_s`, the
//!   reference record bytes) and on the load shape's service (scaling,
//!   cache and `/proc` counters).
//! - **T1** replays the same inputs layer by layer from here, single
//!   threaded, calling each crate's public functions in the order the
//!   service does, each call inside a bench-side span.
//! - **T3** runs jobs with the program's own span telemetry on and reads
//!   its stage totals.
//! - **T4** times micro-probes on the workload's own shapes.

use crate::catalog::{PER_LAYER, STAGES};
use crate::check::{max_marginal_sigma, oracle_tvd};
use crate::harness::{
    batch_jobs, chunk_count, run_batch, run_job, start_service, workers, Alg1, Checks,
    FRAME_CHUNK_SHOTS,
};
use crate::procfs;
use crate::sink::{ProbeSink, SinkOptions, SinkReport};
use crate::stats::{median, tail_percentile};
use crate::tracer::{TimedBackend, Tracer, ADVANCE, FORK, SAMPLE};
use crate::workloads::{build_circuit, noise_model, plan_rng, sample_plan, Spec, WorkloadDef};
use crate::Sizing;
use ptsbe_core::assignment::TrajectoryMeta;
use ptsbe_core::backend::MpsSampleMode;
use ptsbe_core::{
    Backend, BatchConfig, BatchMajorExecutor, BatchedExecutor, MpsBackend, PtsPlanTree, StatePool,
    SvBackend, TreeExecutor,
};
use ptsbe_dataset::record::{hex_shots, records_from_batch};
use ptsbe_dataset::{DatasetHeader, JsonlSink, RecordSink, TrajectoryRecord};
use ptsbe_rng::PhiloxRng;
use ptsbe_service::{EngineKind, ShotService, TelemetryConfig};
use ptsbe_stabilizer::FrameSampler;
use ptsbe_statevector::{KernelImpl, SamplingStrategy, StateBatch, StateVector};
use ptsbe_tensornet::Mps;
use std::collections::HashMap;
use std::time::Instant;

const EXEC: &str = "core.exec";
const RECORD_BUILD: &str = "dataset.record_build";
const BINARY_WRITE: &str = "dataset.binary_write";

/// Every per-layer metric by name; absent layers read 0.
pub struct Layers(HashMap<&'static str, f64>);

impl Layers {
    fn new() -> Self {
        Self(PER_LAYER.iter().map(|m| (m.name, 0.0)).collect())
    }

    fn set(&mut self, name: &'static str, value: f64) {
        let slot = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        *slot = if value.is_finite() { value } else { 0.0 };
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

pub struct Traced {
    pub layers: Layers,
    pub tracer: Tracer,
    pub phase_wall: Vec<(&'static str, f64)>,
}

// ---------------------------------------------------------------------------
// T1: the layered replay of one spec.

/// A spec compiled for replay, one variant per engine.
enum Engine {
    Tree {
        backend: SvBackend<f64>,
        tree: PtsPlanTree,
        pool: StatePool<StateVector<f64>>,
    },
    Batch {
        backend: SvBackend<f64>,
        per_chunk: usize,
    },
    Frame(FrameSampler),
    Mps {
        backend: MpsBackend<f64>,
        tree: PtsPlanTree,
        pool: StatePool<Mps<f64>>,
    },
}

/// Rebuild the spec's inputs and compile its engine inside spans (the
/// set-up layers), `reps` times; returns the last compilation.
fn compile_layers(
    spec: &Spec,
    spec_index: usize,
    per_chunk: usize,
    tracer: &Tracer,
    reps: std::ops::Range<u32>,
) -> Engine {
    let circuit = build_circuit(spec.recipe.circuit);
    let model = noise_model(spec.recipe.noise, 1.0);
    let mut engine = None;
    for rep in reps {
        tracer.set_rep(rep);
        let noisy = tracer.time("circuit.noise_apply", || model.apply(&circuit));
        let plan = tracer.time("core.pts_plan", || {
            sample_plan(spec.recipe.plan, &noisy, &mut plan_rng(spec_index))
        });
        debug_assert_eq!(plan.trajectories, spec.plan.trajectories);
        let sv = |tracer: &Tracer| {
            tracer.time("statevector.compile", || {
                SvBackend::<f64>::new_with_fusion(&noisy, SamplingStrategy::Auto, true)
                    .expect("dense workloads compile")
            })
        };
        let tree =
            |tracer: &Tracer| tracer.time("core.plan_tree", || PtsPlanTree::from_plan(&plan));
        engine = Some(match spec.recipe.expect {
            EngineKind::Tree => Engine::Tree {
                tree: tree(tracer),
                backend: sv(tracer),
                pool: StatePool::new(),
            },
            EngineKind::MpsTree => Engine::Mps {
                backend: tracer.time("tensornet.compile", || {
                    MpsBackend::<f64>::new_with_fusion(
                        &noisy,
                        spec.recipe.mps,
                        MpsSampleMode::default(),
                        true,
                    )
                    .expect("MPS workloads compile")
                }),
                tree: tree(tracer),
                pool: StatePool::new(),
            },
            EngineKind::Frame => Engine::Frame(tracer.time("stabilizer.frame_build", || {
                // The service keys the reference run's stream by the
                // circuit's content hash.
                let mut rng = PhiloxRng::new(noisy.content_hash(), 0);
                FrameSampler::new(&noisy, &mut rng).expect("frame workloads lower")
            })),
            _ => {
                // The router builds the tree to read its sharing ratio
                // before choosing lane sweeps.
                let _ = tree(tracer);
                Engine::Batch {
                    backend: sv(tracer),
                    per_chunk,
                }
            }
        });
    }
    engine.expect("at least one rep")
}

fn header_for(spec: &Spec, n_measured: usize) -> DatasetHeader {
    DatasetHeader {
        workload: spec.label.clone(),
        n_qubits: spec.circuit.n_qubits(),
        n_measured,
        backend: format!("{}-f64", spec.recipe.expect.label()),
        seed: spec.exec_seed,
    }
}

struct Replayed {
    report: SinkReport,
    /// Per-bit counts of the sampled shots (frame only, when asked).
    bit_counts: Vec<u64>,
    /// The records of the first delivered chunk, for the dataset probes.
    first_chunk: Vec<TrajectoryRecord>,
}

/// One layered replay of a warm job: executor → records → sink, chunk
/// by chunk as the service delivers them.
fn replay(engine: &Engine, spec: &Spec, tracer: &Tracer, marginals: bool) -> Replayed {
    let nc = spec.circuit.as_ref();
    let plan = spec.plan.as_ref();
    let seed = spec.exec_seed;
    let (mut sink, handle) = ProbeSink::plain();
    let mut bit_counts = Vec::new();
    let mut first_chunk = Vec::new();
    let mut deliver = |sink: &mut ProbeSink, records: Vec<TrajectoryRecord>| {
        tracer.time(BINARY_WRITE, || {
            for r in &records {
                sink.write(r).expect("counting sink cannot fail");
            }
        });
        if first_chunk.is_empty() {
            first_chunk = records;
        }
    };
    let begin = |sink: &mut ProbeSink, n_measured: usize| {
        tracer.time(BINARY_WRITE, || {
            sink.begin(&header_for(spec, n_measured))
                .expect("counting sink cannot fail");
        });
    };
    match engine {
        Engine::Tree {
            backend,
            tree,
            pool,
        } => {
            begin(&mut sink, backend.measured_qubits().len());
            let timed = TimedBackend {
                inner: backend,
                tracer,
            };
            let ex = TreeExecutor {
                seed,
                parallel: false,
            };
            let batch = tracer.time(EXEC, || {
                ex.execute_tree_pooled(&timed, nc, plan, tree, pool)
            });
            let records = tracer.time(RECORD_BUILD, || records_from_batch(&batch));
            deliver(&mut sink, records);
        }
        Engine::Mps {
            backend,
            tree,
            pool,
        } => {
            begin(&mut sink, backend.measured_qubits().len());
            let timed = TimedBackend {
                inner: backend,
                tracer,
            };
            let ex = TreeExecutor {
                seed,
                parallel: false,
            };
            let batch = tracer.time(EXEC, || {
                ex.execute_tree_pooled(&timed, nc, plan, tree, pool)
            });
            let records = tracer.time(RECORD_BUILD, || records_from_batch(&batch));
            deliver(&mut sink, records);
        }
        Engine::Batch { backend, per_chunk } => {
            begin(&mut sink, backend.measured_qubits().len());
            let ex = BatchMajorExecutor {
                seed,
                parallel: false,
                lanes: 0,
                cfg: BatchConfig::default(),
            };
            let n = plan.trajectories.len();
            for start in (0..n).step_by(*per_chunk) {
                let range = start..(start + per_chunk).min(n);
                let batch = tracer.time(EXEC, || ex.execute_slice(backend, nc, plan, range));
                let records = tracer.time(RECORD_BUILD, || records_from_batch(&batch));
                deliver(&mut sink, records);
            }
        }
        Engine::Frame(sampler) => {
            begin(&mut sink, sampler.n_measured());
            if marginals {
                bit_counts = vec![0u64; sampler.n_measured()];
            }
            let total = plan.total_shots();
            for (stream, start) in (0..total).step_by(FRAME_CHUNK_SHOTS).enumerate() {
                let shots = FRAME_CHUNK_SHOTS.min(total - start);
                let mut rng = PhiloxRng::for_trajectory(seed, stream as u64);
                let result = tracer.time(EXEC, || {
                    let _s = tracer.scope(SAMPLE);
                    sampler.sample(shots, &mut rng)
                });
                for &shot in &result.shots {
                    for (bit, count) in bit_counts.iter_mut().enumerate() {
                        *count += ((shot >> bit) & 1) as u64;
                    }
                }
                let records = tracer.time(RECORD_BUILD, || {
                    vec![TrajectoryRecord {
                        meta: TrajectoryMeta {
                            traj_id: stream,
                            nominal_prob: 1.0,
                            realized_prob: 1.0,
                            choices: Vec::new(),
                            errors: Vec::new(),
                            truncation: None,
                        },
                        shots: hex_shots(&result.shots),
                    }]
                });
                deliver(&mut sink, records);
            }
        }
    }
    tracer.time(BINARY_WRITE, || {
        sink.finish().expect("counting sink cannot fail")
    });
    Replayed {
        report: handle.report(),
        bit_counts,
        first_chunk,
    }
}

/// Per-layer numbers of one spec, keyed by catalogue name.
type SpecLayers = HashMap<&'static str, f64>;

/// T1 for one spec: compile layers, a discarded warm replay, then
/// `reps` replays; medians over the replays.
fn trace_spec(
    spec: &Spec,
    spec_index: usize,
    side: &ServiceSide,
    sizing: &Sizing,
    tracer: &Tracer,
    checks: &mut Checks,
) -> (SpecLayers, Engine, Vec<TrajectoryRecord>) {
    let per_chunk = side.per_chunk[spec_index];
    let reference = side.reference[spec_index].as_ref();
    let reference_bits = side.reference_bits.as_deref();
    let mut out = SpecLayers::new();
    // Every spec gets its own block of rep numbers, so span totals of a
    // mix's specs never add up: compile reps first, replays from +100.
    let base = spec_index as u32 * 1_000;
    let compile_reps = base..base + sizing.t1_reps.clamp(1, 3);
    let engine = compile_layers(spec, spec_index, per_chunk, tracer, compile_reps.clone());
    for (metric, span) in [
        ("circuit.noise_apply_s", "circuit.noise_apply"),
        ("core.pts_plan_s", "core.pts_plan"),
        ("core.plan_tree_s", "core.plan_tree"),
        ("statevector.compile_s", "statevector.compile"),
        ("tensornet.compile_s", "tensornet.compile"),
        ("stabilizer.frame_build_s", "stabilizer.frame_build"),
    ] {
        out.insert(metric, median(&tracer.totals(span, compile_reps.clone())));
    }

    // Static counts of the inputs.
    let tree = PtsPlanTree::from_plan(&spec.plan);
    let unique: std::collections::HashSet<&[usize]> = spec
        .plan
        .trajectories
        .iter()
        .map(|t| t.choices.as_slice())
        .collect();
    out.insert("core.tree_sharing_ratio", tree.sharing_ratio());
    out.insert("core.prep_ops_saved", tree.prep_ops_saved() as f64);
    out.insert(
        "core.unique_traj_frac",
        unique.len() as f64 / spec.plan.trajectories.len().max(1) as f64,
    );
    out.insert(
        "circuit.fusion_reduction",
        match &engine {
            Engine::Tree { backend, .. } | Engine::Batch { backend, .. } => {
                backend.fusion_stats().reduction()
            }
            Engine::Mps { backend, .. } => backend.fusion_stats().reduction(),
            Engine::Frame(_) => 0.0,
        },
    );

    // The first replay warms pools and is dropped.
    let first = base + 100;
    let pool_before = |e: &Engine| match e {
        Engine::Tree { pool, .. } => Some(pool.stats()),
        Engine::Mps { pool, .. } => Some(pool.stats()),
        _ => None,
    };
    let mut recycle = Vec::new();
    let mut matches = true;
    let mut sample_records = Vec::new();
    for rep in 0..=sizing.t1_reps {
        tracer.set_rep(first + rep);
        let before = pool_before(&engine);
        let want_bits = rep == 0 && reference_bits.is_some();
        let Replayed {
            report,
            bit_counts: bits,
            first_chunk,
        } = replay(&engine, spec, tracer, want_bits);
        sample_records = first_chunk;
        if let (Some(b), Some(a)) = (before, pool_before(&engine)) {
            let (recycled, fresh) = (a.recycled - b.recycled, a.fresh - b.fresh);
            if rep > 0 && recycled + fresh > 0 {
                recycle.push(recycled as f64 / (recycled + fresh) as f64);
            }
        }
        if report.shots != spec.total_shots() {
            matches = false;
            checks.check(
                "replay_shots",
                false,
                format!(
                    "replay of '{}' delivered {} shots",
                    spec.label, report.shots
                ),
            );
        }
        match (&engine, reference) {
            // Frame replays draw the service's streams only while both
            // chunk alike, so they are held to the distribution instead.
            (Engine::Frame(_), _) => {
                if let (true, Some(service_bits)) = (want_bits, reference_bits) {
                    let n = spec.total_shots();
                    let sigma = max_marginal_sigma(&bits, n, service_bits, n);
                    matches &= sigma <= 5.0;
                    checks.check(
                        "replay_marginals",
                        sigma <= 5.0,
                        format!(
                            "largest per-bit marginal gap, service vs replay: {sigma:.2} sigma"
                        ),
                    );
                }
            }
            (_, Some(service)) if report.body_digest != service.body_digest => {
                matches = false;
                checks.check(
                    "replay_digest",
                    false,
                    format!(
                        "'{}': replay record bytes {:#x} != service {:#x}",
                        spec.label, report.body_digest, service.body_digest
                    ),
                );
            }
            _ => {}
        }
    }
    out.insert("check.replay_matches", if matches { 1.0 } else { 0.0 });
    let reps = first + 1..first + 1 + sizing.t1_reps;
    let med = |name: &str| median(&tracer.totals(name, reps.clone()));
    let calls = |name: &str| tracer.total(name, first + 1).1 as f64;
    out.insert("core.exec_s", med(EXEC));
    out.insert("core.advance_s", med(ADVANCE));
    out.insert("core.advance_calls", calls(ADVANCE));
    out.insert("core.fork_s", med(FORK));
    out.insert("core.fork_calls", calls(FORK));
    out.insert("core.sample_s", med(SAMPLE));
    out.insert("core.sample_calls", calls(SAMPLE));
    out.insert("core.pool_recycle_ratio", median(&recycle));
    out.insert("dataset.record_build_s", med(RECORD_BUILD));
    out.insert("dataset.binary_write_s", med(BINARY_WRITE));
    (out, engine, sample_records)
}

// ---------------------------------------------------------------------------
// T4: micro-probes on the workload's own shapes.

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

fn median_of<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let (r, s) = timed(&mut f);
            std::hint::black_box(r);
            s
        })
        .collect();
    median(&samples)
}

fn kernel_code(k: KernelImpl) -> f64 {
    match k {
        KernelImpl::Scalar => 0.0,
        KernelImpl::Soa => 1.0,
        KernelImpl::Simd => 2.0,
    }
}

/// Dense probes: scalar prepare, one lane group of `advance_batch`,
/// bulk sampling, and the flat executor.
fn probe_dense(
    backend: &SvBackend<f64>,
    spec: &Spec,
    flat_trajs: usize,
    reps: usize,
    out: &mut SpecLayers,
) {
    let compiled = backend.compiled();
    let n = compiled.n_qubits();
    let identity = spec
        .circuit
        .identity_assignment()
        .expect("identity branch everywhere");
    let prepare_s = median_of(reps, || {
        ptsbe_statevector::exec::prepare(compiled, &identity)
    });
    out.insert("statevector.prepare_s", prepare_s);
    // Computed traffic: every gate op reads and writes the whole state.
    let gate_ops = compiled.ops().len() - compiled.sites().len();
    let state_bytes = 16.0 * (1u64 << n) as f64;
    out.insert(
        "statevector.sweep_gb_per_s",
        gate_ops as f64 * 2.0 * state_bytes / prepare_s / 1e9,
    );

    let lanes = BatchConfig::default().lanes_for::<f64>(n);
    let mut seen = std::collections::HashSet::new();
    let group: Vec<&[usize]> = spec
        .plan
        .trajectories
        .iter()
        .map(|t| t.choices.as_slice())
        .filter(|c| seen.insert(*c))
        .take(lanes)
        .collect();
    let batch_s = median_of(reps, || {
        let mut batch = StateBatch::<f64>::zero_states(n, group.len());
        let mut realized = vec![1.0f64; group.len()];
        ptsbe_statevector::advance_batch(
            compiled,
            &mut batch,
            0..compiled.n_segments(),
            &group,
            &mut realized,
        );
        realized
    });
    let scalar_s: f64 = group
        .iter()
        .map(|c| timed(|| ptsbe_statevector::exec::prepare(compiled, c)).1)
        .sum();
    out.insert("statevector.advance_batch_s", batch_s);
    out.insert("statevector.advance_batch_group", group.len() as f64);
    out.insert("statevector.batch_lanes", lanes as f64);
    out.insert("statevector.batch_vs_scalar", scalar_s / batch_s);
    out.insert("statevector.kernel_impl", kernel_code(KernelImpl::auto()));

    let (state, _) = ptsbe_statevector::exec::prepare(compiled, &identity);
    let m = spec.plan.trajectories[0].shots;
    let mut rng = PhiloxRng::new(spec.exec_seed, 0x5A);
    let sample_s = median_of(reps, || {
        ptsbe_statevector::sampling::sample_shots(&state, m, &mut rng, SamplingStrategy::Auto)
    });
    out.insert("statevector.sample_shots_per_s", m as f64 / sample_s);

    let k = flat_trajs.min(spec.plan.trajectories.len());
    if k > 0 {
        let flat = BatchedExecutor {
            seed: spec.exec_seed,
            parallel: false,
        };
        let (_, s) = timed(|| flat.execute_slice(backend, &spec.circuit, &spec.plan, 0..k));
        out.insert("core.exec_flat_s_per_traj", s / k as f64);
    }
}

/// MPS probes: one identity-trajectory preparation, bulk sampling from
/// it, and the dense factorizations at the state's own bond size.
fn probe_mps(
    backend: &MpsBackend<f64>,
    spec: &Spec,
    flat_trajs: usize,
    reps: usize,
    out: &mut SpecLayers,
) {
    let identity = spec
        .circuit
        .identity_assignment()
        .expect("identity branch everywhere");
    let ((mut state, _), prepare_s) = timed(|| backend.prepare(&identity));
    out.insert("tensornet.prepare_s", prepare_s);
    let stats = backend
        .truncation_stats(&state)
        .expect("MPS states report truncation");
    out.insert("tensornet.max_bond", stats.max_bond_reached as f64);
    out.insert("tensornet.trunc_error", stats.trunc_error);
    let m = spec.plan.trajectories[0].shots;
    let mut rng = PhiloxRng::new(spec.exec_seed, 0x5B);
    let sample_s = median_of(reps, || backend.sample(&mut state, m, &mut rng));
    out.insert("tensornet.sample_shots_per_s", m as f64 / sample_s);

    // Seeded matrices at the two-site update's own shape, 2χ × 2χ.
    let dim = 2 * stats.max_bond_reached.max(1);
    let mut rng = PhiloxRng::new(spec.exec_seed, 0x5C);
    let big = ptsbe_math::random::random_matrix::<f64>(dim, dim, &mut rng);
    let small = ptsbe_math::random::random_matrix::<f64>(32, 32, &mut rng);
    out.insert(
        "math.svd_qr_s",
        median_of(reps.min(2), || ptsbe_math::svd::svd_qr(&big)),
    );
    out.insert(
        "math.qr_cp_s",
        median_of(reps.min(2), || ptsbe_math::qr::qr_cp(&big)),
    );
    out.insert(
        "math.svd_small_s",
        median_of(reps * 4, || ptsbe_math::svd::svd(&small)),
    );

    if flat_trajs > 0 {
        let k = flat_trajs.min(spec.plan.trajectories.len());
        let flat = BatchedExecutor {
            seed: spec.exec_seed,
            parallel: false,
        };
        let (_, s) = timed(|| flat.execute_slice(backend, &spec.circuit, &spec.plan, 0..k));
        out.insert("core.exec_flat_s_per_traj", s / k as f64);
    }
}

fn probe_frame(sampler: &FrameSampler, spec: &Spec, reps: usize, out: &mut SpecLayers) {
    let shots = FRAME_CHUNK_SHOTS.min(spec.plan.total_shots());
    let mut rng = PhiloxRng::new(spec.exec_seed, 0x5D);
    let s = median_of(reps, || sampler.sample(shots, &mut rng));
    out.insert("stabilizer.frame_shots_per_s", shots as f64 / s);
}

/// Dataset probes on records the replay delivered (at most 50 000 shots
/// of each): the text format and the read path, neither of which a job
/// exercises.
fn probe_dataset(
    mut records: Vec<TrajectoryRecord>,
    spec: &Spec,
    reps: usize,
    out: &mut SpecLayers,
) {
    for r in &mut records {
        r.shots.truncate(50_000);
    }
    let n_shots: usize = records.iter().map(|r| r.shots.len()).sum();
    let header = header_for(spec, 0);
    let encoded = ptsbe_dataset::binary::encode(&header, &records).expect("records encode");
    let read_s = median_of(reps, || {
        ptsbe_dataset::binary::decode(encoded.clone()).expect("own bytes decode")
    });
    out.insert(
        "dataset.binary_read_mb_per_s",
        encoded.len() as f64 / 1e6 / read_s,
    );
    let mut jsonl_bytes = 0usize;
    let jsonl_s = median_of(reps, || {
        let mut sink = JsonlSink::new(Vec::new());
        sink.begin(&header).expect("in-memory write");
        for r in &records {
            sink.write(r).expect("in-memory write");
        }
        sink.finish().expect("in-memory write");
        jsonl_bytes = sink.into_inner().len();
    });
    out.insert(
        "dataset.jsonl_write_mb_per_s",
        jsonl_bytes as f64 / 1e6 / jsonl_s,
    );
    out.insert(
        "dataset.bytes_per_shot_jsonl",
        jsonl_bytes as f64 / n_shots.max(1) as f64,
    );
}

fn probes(
    engine: &Engine,
    records: Vec<TrajectoryRecord>,
    spec: &Spec,
    def: &WorkloadDef,
    sizing: &Sizing,
    out: &mut SpecLayers,
) {
    let reps = sizing.probe_reps;
    match engine {
        Engine::Tree { backend, .. } | Engine::Batch { backend, .. } => {
            probe_dense(backend, spec, def.flat_probe_trajs, reps, out);
        }
        Engine::Mps { backend, .. } => probe_mps(backend, spec, def.flat_probe_trajs, reps, out),
        Engine::Frame(sampler) => probe_frame(sampler, spec, reps, out),
    }
    probe_dataset(records, spec, reps, out);
    let mut alg1 = Alg1::new(spec);
    let shots: Vec<f64> = (0..reps.max(2))
        .map(|_| alg1.slice(def.alg1_shots))
        .collect();
    out.insert("core.alg1_shot_s", median(&shots));
}

// ---------------------------------------------------------------------------
// T2 / T3: the service side.

/// What the traced service runs of one workload produced.
#[derive(Default)]
struct ServiceSide {
    cold_job_s: f64,
    /// Warm job walls on one worker (mix: every job of the batch).
    job1w: Vec<f64>,
    makespan_1w: f64,
    gaps: Vec<f64>,
    /// Warm job walls on the load shape's service.
    job_nw: Vec<f64>,
    makespan_nw: f64,
    chunks: f64,
    proc: procfs::ProcStat,
    cache_hit_rate: f64,
    warm_misses: f64,
    chunk_retries: f64,
    /// Reference sink report per spec (record-bytes digest).
    reference: Vec<Option<SinkReport>>,
    reference_bits: Option<Vec<u64>>,
    per_chunk: Vec<usize>,
    /// Non-variant jobs per spec in the one-worker batch (mix weights).
    weights: Vec<f64>,
    stage_s: Vec<f64>,
    spans_job_s: f64,
}

/// T2 (and T3): the workload's batches on a one-worker service with one
/// client, then on the load shape's service. A single-job workload
/// repeats its one-job batch `t2_warm` times; a mix runs one batch on
/// one worker and `t2_batches` on the load shape's service.
fn service_side(
    def: &WorkloadDef,
    specs: &[Spec],
    seed: u64,
    sizing: &Sizing,
    checks: &mut Checks,
) -> ServiceSide {
    let n = specs.len();
    let single = def.mix.jobs_per_batch == 1;
    let (reps_1w, reps_nw) = if single {
        (sizing.t2_warm, sizing.t2_warm)
    } else {
        (1, sizing.t2_batches)
    };
    let mut side = ServiceSide {
        reference: vec![None; n],
        per_chunk: vec![64; n],
        weights: vec![0.0; n],
        ..ServiceSide::default()
    };
    let cold_jobs = |service: &ShotService, side: Option<&mut ServiceSide>, checks: &mut Checks| {
        let mut cold = 0.0;
        let mut routes = Vec::new();
        for spec in specs {
            let out = run_job(service, spec.job(), SinkOptions::default());
            checks.job(&out, spec);
            cold += out.wall.as_secs_f64();
            routes.push(out.route);
        }
        if let Some(side) = side {
            side.cold_job_s = cold / n as f64;
            for (i, (route, spec)) in routes.iter().zip(specs).enumerate() {
                if let Some(route) = route {
                    side.per_chunk[i] = route.geometry.map_or(64, |g| g.trajs_per_chunk);
                    side.chunks += chunk_count(route, spec) as f64 / n as f64;
                }
            }
        }
    };
    // Batch ids far from the measured phase's and from each other's, so
    // variants are never-seen on every service.
    let batch = |service: &ShotService, id: u64, clients: usize, opts, checks: &mut Checks| {
        let out = run_batch(
            service,
            specs,
            batch_jobs(&def.mix, n, seed, id),
            clients,
            opts,
        );
        out.check(specs, checks);
        out
    };
    {
        let service = start_service(1);
        cold_jobs(&service, Some(&mut side), checks);
        let timed_writes = SinkOptions {
            time_writes: true,
            bit_marginals: None,
        };
        let mut makespans = Vec::new();
        for b in 0..reps_1w {
            let out = batch(&service, 1_000 + b as u64, 1, timed_writes, checks);
            makespans.push(out.makespan.as_secs_f64());
            for (j, o) in out.jobs.iter().zip(out.outcomes) {
                side.job1w.push(o.wall.as_secs_f64());
                side.gaps.extend(
                    o.sink
                        .write_times
                        .windows(2)
                        .map(|w| (w[1] - w[0]).as_secs_f64()),
                );
                if j.variant.is_none() {
                    side.weights[j.spec] += 1.0;
                    side.reference[j.spec] = Some(o.sink);
                }
            }
        }
        side.makespan_1w = median(&makespans);
        if single && specs[0].recipe.expect == EngineKind::Frame {
            let marginals = SinkOptions {
                time_writes: false,
                bit_marginals: Some(specs[0].circuit.measured_qubits().len()),
            };
            let out = run_job(&service, specs[0].job(), marginals);
            checks.job(&out, &specs[0]);
            side.reference_bits = Some(out.sink.bit_counts);
        }
        // T3 on the same warm service: the program's process-global
        // telemetry switched to spans for these batches only. One
        // worker, so its stage totals compare directly with `job1w_s`.
        ptsbe_telemetry::configure(&TelemetryConfig::spans());
        ptsbe_telemetry::reset();
        let walls: Vec<f64> = (0..reps_1w)
            .flat_map(|b| {
                batch(
                    &service,
                    3_000 + b as u64,
                    1,
                    SinkOptions::default(),
                    checks,
                )
                .walls()
            })
            .collect();
        let snap = ptsbe_telemetry::snapshot();
        ptsbe_telemetry::configure(&TelemetryConfig::off());
        side.stage_s = STAGES
            .iter()
            .map(|(_, stage)| snap.stage_total(*stage).as_secs_f64() / walls.len().max(1) as f64)
            .collect();
        side.spans_job_s = mean(&walls);
    }
    {
        let service = start_service(workers());
        cold_jobs(&service, None, checks);
        let after_cold = service.cache_stats();
        let before = procfs::stat_now();
        let mut makespans = Vec::new();
        let mut variant_misses = 0;
        for b in 0..reps_nw {
            let out = batch(
                &service,
                2_000 + b as u64,
                def.clients(),
                SinkOptions::default(),
                checks,
            );
            makespans.push(out.makespan.as_secs_f64());
            variant_misses += out.variant_misses(specs);
            side.job_nw.extend(out.walls());
        }
        side.proc = procfs::stat_now().since(&before);
        side.makespan_nw = median(&makespans);
        let stats = service.cache_stats();
        side.cache_hit_rate = stats.hit_rate();
        side.warm_misses = ((stats.compile_misses() + stats.tree_misses)
            - (after_cold.compile_misses() + after_cold.tree_misses))
            as f64
            - variant_misses as f64;
        side.chunk_retries = service.metrics().chunk_retries as f64;
    }
    side
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

// ---------------------------------------------------------------------------

pub fn run(def: &WorkloadDef, seed: u64, sizing: &Sizing, checks: &mut Checks) -> Traced {
    let mut layers = Layers::new();
    let mut phase_wall = Vec::new();
    let tracer = Tracer::new(def.name);

    let t_phase = Instant::now();
    layers.set("check.oracle_tvd", oracle_tvd(def, seed, checks));
    phase_wall.push(("oracle", t_phase.elapsed().as_secs_f64()));

    let specs = def.build_specs(seed);
    let single = def.mix.jobs_per_batch == 1;

    // T2 and, on the same one-worker service, T3.
    let t_phase = Instant::now();
    let side = service_side(def, &specs, seed, sizing, checks);
    phase_wall.push(("t2_t3_service", t_phase.elapsed().as_secs_f64()));

    // T1 + T4 per spec; a mix reports the job-count-weighted mean.
    let t_phase = Instant::now();
    // Replay layers weigh each spec by the jobs it ran in the one-worker
    // batches; probe layers come from the first spec of each engine
    // family (a mix has three of each).
    let total_w: f64 = side.weights.iter().sum::<f64>().max(1.0);
    let mut folded = SpecLayers::new();
    let mut probed: Vec<EngineKind> = Vec::new();
    let mut t4_wall = 0.0;
    for (i, spec) in specs.iter().enumerate() {
        let (replayed, engine, records) = trace_spec(spec, i, &side, sizing, &tracer, checks);
        for (name, v) in replayed {
            *folded.entry(name).or_insert(0.0) += v * side.weights[i] / total_w;
        }
        if !probed.contains(&spec.recipe.expect) {
            probed.push(spec.recipe.expect);
            let t0 = Instant::now();
            let mut probe = SpecLayers::new();
            probes(&engine, records, spec, def, sizing, &mut probe);
            for (name, v) in probe {
                folded.entry(name).or_insert(v);
            }
            t4_wall += t0.elapsed().as_secs_f64();
        }
    }
    phase_wall.push(("t1_replay", t_phase.elapsed().as_secs_f64() - t4_wall));
    phase_wall.push(("t4_probes", t4_wall));
    for m in PER_LAYER {
        if let Some(v) = folded.get(m.name) {
            layers.set(m.name, *v);
        }
    }

    // Service-side layers.
    let job1w = mean(&side.job1w);
    let proc_jobs = side.job_nw.len().max(1) as f64;
    let f = |name: &str| folded.get(name).copied().unwrap_or(0.0);
    let layer_sum = f("core.exec_s") + f("dataset.record_build_s") + f("dataset.binary_write_s");
    layers.set("service.cold_job_s", side.cold_job_s);
    layers.set("service.job1w_s", job1w);
    layers.set("service.self_s", job1w - layer_sum);
    layers.set("service.layers_cover_frac", layer_sum / job1w);
    // One worker's makespan over `workers` times the load shape's, for
    // the same jobs (a mix's batches all hold `jobs_per_batch` jobs).
    layers.set(
        "service.scaling_eff",
        side.makespan_1w / (workers() as f64 * side.makespan_nw),
    );
    layers.set("service.chunks", side.chunks);
    layers.set("service.chunk_retries", side.chunk_retries);
    layers.set("service.cache_hit_rate", side.cache_hit_rate);
    layers.set("service.warm_compile_misses", side.warm_misses);
    layers.set(
        "service.record_gap_p99_s",
        tail_percentile(&side.gaps, 0.99).unwrap_or(0.0),
    );
    layers.set(
        "service.job_p99_s",
        if single {
            0.0
        } else {
            tail_percentile(&side.job_nw, 0.99).unwrap_or(0.0)
        },
    );
    for ((name, _), s) in STAGES.iter().zip(&side.stage_s) {
        layers.set(name, *s);
    }
    layers.set(
        "service.stage_cover_frac",
        side.stage_s.iter().sum::<f64>() / side.spans_job_s,
    );
    layers.set(
        "telemetry.spans_overhead_frac",
        side.spans_job_s / job1w - 1.0,
    );
    layers.set("proc.user_cpu_s", side.proc.user_cpu_s / proc_jobs);
    layers.set("proc.sys_cpu_s", side.proc.sys_cpu_s / proc_jobs);
    layers.set("proc.sys_cpu_frac", side.proc.sys_frac());
    layers.set(
        "proc.minor_faults",
        side.proc.minor_faults as f64 / proc_jobs,
    );

    // Shares of the one-worker job. The batch-major executor is not
    // generic over the backend, so its split comes from the probe: the
    // lane-group time scaled to the job's groups; what is left of the
    // executor after state preparation is sampling and provenance.
    let batch_major = specs
        .iter()
        .all(|s| s.recipe.expect == EngineKind::BatchMajor);
    if batch_major && single {
        let spec = &specs[0];
        let lanes = f("statevector.batch_lanes").max(1.0);
        let groups: f64 = (0..spec.plan.trajectories.len())
            .step_by(side.per_chunk[0])
            .map(|start| {
                let end = (start + side.per_chunk[0]).min(spec.plan.trajectories.len());
                let unique: std::collections::HashSet<&[usize]> = spec.plan.trajectories
                    [start..end]
                    .iter()
                    .map(|t| t.choices.as_slice())
                    .collect();
                (unique.len() as f64 / lanes).ceil()
            })
            .sum();
        let per_group = f("statevector.advance_batch_s")
            * (lanes / f("statevector.advance_batch_group").max(1.0));
        let prep = (per_group * groups).min(f("core.exec_s"));
        layers.set("core.advance_s", prep);
        layers.set("core.advance_calls", groups);
        layers.set("core.sample_s", f("core.exec_s") - prep);
        layers.set("core.sample_calls", spec.plan.trajectories.len() as f64);
        layers.set("statevector.advance_batch_share", prep / job1w);
    }
    layers.set(
        "core.prep_share",
        (layers.get("core.advance_s") + f("core.fork_s")) / job1w,
    );
    layers.set("core.sample_share", layers.get("core.sample_s") / job1w);
    layers.set(
        "dataset.sink_share",
        (f("dataset.record_build_s") + f("dataset.binary_write_s")) / job1w,
    );
    let written: f64 = side
        .reference
        .iter()
        .zip(&side.weights)
        .filter_map(|(r, w)| r.as_ref().map(|r| r.bytes as f64 * w / total_w))
        .sum();
    layers.set(
        "dataset.binary_write_mb_per_s",
        written / 1e6 / f("dataset.binary_write_s"),
    );

    Traced {
        layers,
        tracer,
        phase_wall,
    }
}
