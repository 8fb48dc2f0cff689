//! The workload matrix: six named workloads, each a recipe that turns the
//! frozen plan seed and `--seed` into the `NoisyCircuit` / `PtsPlan` /
//! execution seed the program runs. The program never sees the seeds or
//! the recipe, only what they made.
//!
//! Why each workload exists is recorded in `BENCHMARK.json` and
//! `README.md`; the sizes here are the frozen ones quoted there.

use crate::jsonout::{Obj, Value};
use ptsbe_circuit::{channels, Circuit, NoiseModel, NoisyCircuit};
use ptsbe_core::{ProbabilisticPts, PtsPlan, PtsSampler};
use ptsbe_rng::{PhiloxRng, Rng};
use ptsbe_service::{EngineKind, EnginePolicy, JobSpec};
use ptsbe_tensornet::MpsConfig;
use std::sync::Arc;

pub const DEFAULT_SEED: u64 = 0x11;

/// The seed every workload's PTS plan is drawn from. A plan *is* the
/// amount of work of a job (1000 `ProbabilisticPts` samples at p = 1e-3
/// hold Poisson(87) error trajectories whose unshared suffixes sum to a
/// prep cost with a 12 % standard deviation from draw to draw), so it is
/// frozen with the other sizes: every `--seed` runs the same plans, drawn
/// by the product's own sampler, and a count such as `bytes_per_shot`
/// means the same thing on every run. `--seed` drives what may vary
/// without changing the work: execution seeds, `svc-small`'s job order
/// and never-seen variants, the oracle companion's draws and the probe
/// matrices.
pub const PLAN_SEED: u64 = 0x11;

pub const WORKLOAD_NAMES: [&str; 6] = [
    "sv-shared",
    "sv-divergent",
    "sv-sample",
    "frame-bulk",
    "mps-brick32",
    "svc-small",
];

/// Gate content of a workload circuit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CircuitRecipe {
    /// Magic preparations on every qubit, then brickwork CX + T/H layers
    /// (the repository's stand-in for the paper's MSD circuit).
    MsdLike { n: usize, depth: usize },
    /// Brickwork CX only: Clifford, deterministic reference — the
    /// `bench_pr6`/`bench_pr9` frame shape.
    CxBrick { n: usize, depth: usize },
    /// Repetition-code memory experiment, Z checks only.
    RepetitionMemory { data: usize, rounds: usize },
}

/// Noise attached to the gates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NoiseRecipe {
    /// Two-qubit depolarizing on entanglers only.
    Entangler(f64),
    /// Depolarizing on every one- and two-qubit gate.
    Uniform(f64),
}

/// The `ProbabilisticPts` draw (Algorithm 2) a spec's plan comes from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanRecipe {
    pub n_samples: usize,
    pub shots: usize,
    pub dedup: bool,
}

impl PlanRecipe {
    const fn iid(n_samples: usize, shots: usize) -> Self {
        Self {
            n_samples,
            shots,
            dedup: false,
        }
    }

    const fn unique(n_samples: usize, shots: usize) -> Self {
        Self {
            n_samples,
            shots,
            dedup: true,
        }
    }

    /// One trajectory carrying the whole shot budget (frame jobs consume
    /// only the budget).
    const fn single(shots: usize) -> Self {
        Self::unique(1, shots)
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpecRecipe {
    pub label: &'static str,
    pub circuit: CircuitRecipe,
    pub noise: NoiseRecipe,
    pub plan: PlanRecipe,
    pub mps: MpsConfig,
    /// The engine the router must pick on its own.
    pub expect: EngineKind,
}

/// A generated job input plus what generating it cost.
#[derive(Clone)]
pub struct Spec {
    pub label: String,
    pub recipe: SpecRecipe,
    pub circuit: Arc<NoisyCircuit>,
    pub plan: Arc<PtsPlan>,
    pub exec_seed: u64,
}

impl Spec {
    pub fn job(&self) -> JobSpec {
        let mut job = JobSpec::new(
            self.label.clone(),
            Arc::clone(&self.circuit),
            Arc::clone(&self.plan),
            self.exec_seed,
        );
        job.mps = self.recipe.mps;
        job
    }

    pub fn job_forced(&self, engine: EngineKind) -> JobSpec {
        self.job().with_engine(EnginePolicy::Force(engine))
    }

    pub fn total_shots(&self) -> u64 {
        self.plan.total_shots() as u64
    }
}

pub fn build_circuit(recipe: CircuitRecipe) -> Circuit {
    match recipe {
        CircuitRecipe::MsdLike { n, depth } => {
            let mut c = Circuit::new(n);
            for q in 0..n {
                ptsbe_qec::msd::prepare_magic(&mut c, q);
            }
            for layer in 0..depth {
                let mut q = layer % 2;
                while q + 1 < n {
                    c.cx(q, q + 1);
                    q += 2;
                }
                for q in 0..n {
                    if (q + layer) % 3 == 0 {
                        c.t(q);
                    } else if (q + layer) % 3 == 1 {
                        c.h(q);
                    }
                }
            }
            c.measure_all();
            c
        }
        CircuitRecipe::CxBrick { n, depth } => {
            let mut c = Circuit::new(n);
            for layer in 0..depth {
                for q in 0..n - 1 {
                    if (q + layer) % 2 == 0 {
                        c.cx(q, q + 1);
                    }
                }
            }
            c.measure_all();
            c
        }
        CircuitRecipe::RepetitionMemory { data, rounds } => {
            ptsbe_qec::memory::MemoryExperiment::new(
                &ptsbe_qec::codes::repetition(data),
                rounds,
                false,
            )
            .circuit
        }
    }
}

/// `scale` multiplies the error rate: the never-seen circuit variants of
/// `svc-small` use `1 + k·1e-6`, which changes the content hash and
/// nothing an engine's cost depends on.
pub fn noise_model(recipe: NoiseRecipe, scale: f64) -> NoiseModel {
    match recipe {
        NoiseRecipe::Entangler(p) => {
            NoiseModel::new().with_default_2q(channels::depolarizing2(p * scale))
        }
        NoiseRecipe::Uniform(p) => NoiseModel::new()
            .with_default_1q(channels::depolarizing(p * scale))
            .with_default_2q(channels::depolarizing2(p * scale)),
    }
}

pub fn sample_plan(recipe: PlanRecipe, nc: &NoisyCircuit, rng: &mut PhiloxRng) -> PtsPlan {
    ProbabilisticPts {
        n_samples: recipe.n_samples,
        shots_per_trajectory: recipe.shots,
        dedup: recipe.dedup,
    }
    .sample_plan(nc, rng)
}

/// Philox stream ids: one per (workload spec, purpose), so no two draws
/// of a run share a stream.
fn stream(spec_index: usize, purpose: u64) -> u64 {
    0x5EED_0000 + (spec_index as u64) * 16 + purpose
}

/// The stream spec `spec_index`'s frozen plan is drawn from.
pub fn plan_rng(spec_index: usize) -> PhiloxRng {
    PhiloxRng::new(PLAN_SEED, stream(spec_index, 0))
}

pub fn build_spec(recipe: &SpecRecipe, seed: u64, spec_index: usize) -> Spec {
    let noisy = noise_model(recipe.noise, 1.0).apply(&build_circuit(recipe.circuit));
    let plan = sample_plan(recipe.plan, &noisy, &mut plan_rng(spec_index));
    Spec {
        label: recipe.label.to_string(),
        recipe: *recipe,
        circuit: Arc::new(noisy),
        plan: Arc::new(plan),
        exec_seed: PhiloxRng::new(seed, stream(spec_index, 1)).next_u64(),
    }
}

/// The same plan on a circuit whose error rate differs by `k` parts per
/// million: a content hash the service has never seen, so a compile and
/// a plan-tree miss, with engine cost unchanged.
pub fn variant_of(spec: &Spec, k: u64) -> Spec {
    let noisy = noise_model(spec.recipe.noise, 1.0 + k as f64 * 1e-6)
        .apply(&build_circuit(spec.recipe.circuit));
    Spec {
        circuit: Arc::new(noisy),
        ..spec.clone()
    }
}

/// One measured rep: a closed-loop batch of jobs drawn by seed from the
/// workload's specs. The five single-spec workloads run batches of one
/// job; `svc-small` runs 400 from 12 specs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MixRecipe {
    pub jobs_per_batch: usize,
    /// One job in this many is a never-seen circuit variant (0 = none).
    pub variant_every: usize,
}

const ONE_JOB: MixRecipe = MixRecipe {
    jobs_per_batch: 1,
    variant_every: 0,
};

#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadDef {
    pub name: &'static str,
    pub specs: Vec<SpecRecipe>,
    pub mix: MixRecipe,
    /// Algorithm-1 shots per baseline slice (per spec for a mix).
    pub alg1_shots: usize,
    /// Trajectories in the flat-executor probe of the traced phase.
    pub flat_probe_trajs: usize,
    /// ≤8-qubit companion checked against the density-matrix oracle.
    pub oracle: OracleRecipe,
}

/// The workload's circuit family at a size the density-matrix oracle
/// can evolve exactly, on the workload's engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OracleRecipe {
    pub label: &'static str,
    pub circuit: CircuitRecipe,
    pub noise: NoiseRecipe,
    pub engine: EngineKind,
    /// iid trajectories of 8 shots (frame: iid shots).
    pub samples: usize,
}

impl WorkloadDef {
    /// Closed-loop clients: one job at a time for the single-job
    /// workloads, one client per service worker for a mix.
    pub fn clients(&self) -> usize {
        if self.mix.jobs_per_batch == 1 {
            1
        } else {
            crate::harness::workers()
        }
    }

    pub fn build_specs(&self, seed: u64) -> Vec<Spec> {
        self.specs
            .iter()
            .enumerate()
            .map(|(i, r)| build_spec(r, seed, i))
            .collect()
    }

    /// The frozen parameters, for the results file.
    pub fn params(&self) -> Value {
        let mut o = Obj::new();
        o.set(
            "specs",
            Value::Array(self.specs.iter().map(spec_params).collect()),
        );
        o.u64("jobs_per_batch", self.mix.jobs_per_batch as u64)
            .u64("variant_every", self.mix.variant_every as u64)
            .u64("alg1_shots_per_slice", self.alg1_shots as u64)
            .u64("flat_probe_trajs", self.flat_probe_trajs as u64)
            .u64("plan_seed", PLAN_SEED)
            .str("oracle_companion", &format!("{:?}", self.oracle));
        o.build()
    }
}

fn spec_params(s: &SpecRecipe) -> Value {
    let mut o = Obj::new();
    o.str("label", s.label)
        .str("circuit", &format!("{:?}", s.circuit))
        .str("noise", &format!("{:?}", s.noise))
        .str("plan", &format!("{:?}", s.plan))
        .str("engine", s.expect.label());
    if s.expect == EngineKind::MpsTree {
        o.str(
            "mps",
            &format!(
                "max_bond {} per_update {:e} budget {:e}",
                s.mps.max_bond, s.mps.trunc_per_update, s.mps.trunc_budget
            ),
        );
    }
    o.build()
}

/// Budget-driven truncation: the bond ceiling is only a ceiling.
fn mps_adaptive() -> MpsConfig {
    MpsConfig::adaptive(256, 1e-5, 1e-2)
}

fn msd_spec(
    label: &'static str,
    n: usize,
    depth: usize,
    p: f64,
    plan: PlanRecipe,
    expect: EngineKind,
) -> SpecRecipe {
    SpecRecipe {
        label,
        circuit: CircuitRecipe::MsdLike { n, depth },
        noise: NoiseRecipe::Entangler(p),
        plan,
        mps: if expect == EngineKind::MpsTree {
            mps_adaptive()
        } else {
            MpsConfig::default()
        },
        expect,
    }
}

fn oracle_dense(label: &'static str, p: f64, engine: EngineKind, samples: usize) -> OracleRecipe {
    OracleRecipe {
        label,
        circuit: CircuitRecipe::MsdLike { n: 6, depth: 4 },
        noise: NoiseRecipe::Entangler(p),
        engine,
        samples,
    }
}

/// The workload `name` at benchmark (`quick = false`) or smoke-test
/// (`quick = true`: seconds, not comparable) size.
pub fn workload(name: &str, quick: bool) -> Option<WorkloadDef> {
    use EngineKind::{BatchMajor, Frame, MpsTree, Tree};
    let pick = |full: usize, small: usize| if quick { small } else { full };
    let def = match name {
        "sv-shared" => WorkloadDef {
            name: "sv-shared",
            mix: ONE_JOB,
            specs: vec![msd_spec(
                "sv-shared",
                pick(14, 8),
                pick(14, 6),
                // The issue's 1e-3 leaves one error trajectory in 11.5
                // samples, and the 14-qubit sampling calls of the other
                // 10.5 then take 18 % of the job — over the 15 % this
                // workload may spend outside state preparation. At 1.5e-3
                // it is one in 7.5.
                1.5e-3,
                PlanRecipe::iid(pick(240, 60), 16),
                Tree,
            )],
            alg1_shots: pick(6, 4),
            flat_probe_trajs: pick(16, 8),
            oracle: oracle_dense("oracle-tree", 2e-2, Tree, pick(4000, 600)),
        },
        "sv-divergent" => WorkloadDef {
            name: "sv-divergent",
            mix: ONE_JOB,
            specs: vec![msd_spec(
                "sv-divergent",
                pick(14, 8),
                pick(14, 6),
                // The smoke circuit has a quarter of the sites; it needs
                // more noise to stay clear of the router's threshold.
                if quick { 1.5e-1 } else { 5e-2 },
                // 97 samples hold one duplicate: 96 unique trajectories,
                // three 32-lane groups.
                PlanRecipe::unique(pick(97, 24), 16),
                BatchMajor,
            )],
            alg1_shots: pick(6, 4),
            flat_probe_trajs: pick(16, 8),
            oracle: oracle_dense("oracle-batch", 1e-1, BatchMajor, pick(4000, 600)),
        },
        "sv-sample" => WorkloadDef {
            name: "sv-sample",
            mix: ONE_JOB,
            specs: vec![msd_spec(
                "sv-sample",
                pick(16, 9),
                pick(16, 6),
                5e-3,
                // Four unique trajectories. Four plain draws straddle the
                // router's 0.5 sharing threshold (0.15..0.6 by draw); the
                // frozen one sits at 0.15 (a test pins it below 0.4).
                PlanRecipe::unique(pick(4, 6), pick(500_000, 4_000)),
                BatchMajor,
            )],
            alg1_shots: pick(2, 4),
            flat_probe_trajs: pick(4, 4),
            oracle: oracle_dense("oracle-batch", 1e-1, BatchMajor, pick(4000, 600)),
        },
        "frame-bulk" => WorkloadDef {
            name: "frame-bulk",
            mix: ONE_JOB,
            specs: vec![SpecRecipe {
                label: "frame-bulk",
                circuit: CircuitRecipe::RepetitionMemory {
                    data: pick(15, 5),
                    rounds: pick(5, 2),
                },
                noise: NoiseRecipe::Uniform(1e-3),
                // Six of the service's 65 536-shot frame chunks.
                plan: PlanRecipe::single(pick(393_216, 20_000)),
                mps: MpsConfig::default(),
                expect: Frame,
            }],
            alg1_shots: pick(200, 50),
            flat_probe_trajs: 0,
            oracle: OracleRecipe {
                label: "oracle-frame",
                circuit: CircuitRecipe::RepetitionMemory { data: 3, rounds: 2 },
                noise: NoiseRecipe::Uniform(2e-2),
                engine: Frame,
                samples: pick(200_000, 20_000),
            },
        },
        "mps-brick32" => WorkloadDef {
            name: "mps-brick32",
            mix: ONE_JOB,
            specs: vec![msd_spec(
                "mps-brick32",
                // The router sends registers of 30+ qubits to the MPS
                // engine; the smoke size must stay above that.
                pick(32, 30),
                pick(16, 4),
                1e-3,
                PlanRecipe::iid(pick(8, 4), 100),
                MpsTree,
            )],
            alg1_shots: pick(2, 1),
            flat_probe_trajs: 1,
            oracle: oracle_dense("oracle-mps", 2e-2, MpsTree, pick(1500, 300)),
        },
        "svc-small" => {
            let n = pick(10, 6);
            let mut specs = Vec::new();
            // (depth, width of the batch-major spec, labels)
            let variants = [
                (
                    8usize,
                    pick(n - 2, n),
                    [
                        "small-frame-a",
                        "small-tree-a",
                        "small-batch-a",
                        "small-mps-a",
                    ],
                ),
                (
                    10,
                    n,
                    [
                        "small-frame-b",
                        "small-tree-b",
                        "small-batch-b",
                        "small-mps-b",
                    ],
                ),
                (
                    12,
                    pick(n - 2, n),
                    [
                        "small-frame-c",
                        "small-tree-c",
                        "small-batch-c",
                        "small-mps-c",
                    ],
                ),
            ];
            for (depth, batch_width, labels) in variants {
                let depth = if quick { depth / 2 } else { depth };
                specs.push(SpecRecipe {
                    label: labels[0],
                    circuit: CircuitRecipe::CxBrick { n, depth },
                    noise: NoiseRecipe::Entangler(1e-2),
                    plan: PlanRecipe::single(pick(4000, 400)),
                    mps: MpsConfig::default(),
                    expect: Frame,
                });
                specs.push(msd_spec(
                    labels[1],
                    n,
                    depth,
                    1e-3,
                    PlanRecipe::iid(pick(200, 30), 20),
                    Tree,
                ));
                // Spec b keeps the bench_pr6/9 width: a 32-lane group of
                // 10-qubit states crosses the kernels' parallel threshold,
                // so each gate fans out over scoped threads and the job
                // costs tens of ms instead of ~3 — the mix's slow tail, and
                // where a fix of that fan-out shows. a and c are two qubits
                // narrower and stay serial. All three are noisier than
                // sv-divergent: on ~30-50 sites 5e-2 leaves sharing at
                // 0.42, too close to the router's 0.5 (the smoke circuit
                // has ~10 sites and needs 3e-1).
                specs.push(msd_spec(
                    labels[2],
                    batch_width,
                    depth,
                    if quick { 3e-1 } else { 1.5e-1 },
                    // The wide spec is one lane group, so that its fan-outs
                    // weigh about as much in a batch as everything else.
                    PlanRecipe::unique(if batch_width == 10 { 32 } else { pick(150, 20) }, 20),
                    BatchMajor,
                ));
                specs.push(msd_spec(
                    labels[3],
                    pick(32, 30),
                    depth / 2,
                    1e-3,
                    PlanRecipe::iid(pick(24, 6), 20),
                    MpsTree,
                ));
            }
            WorkloadDef {
                name: "svc-small",
                specs,
                mix: MixRecipe {
                    jobs_per_batch: pick(400, 48),
                    variant_every: 16,
                },
                alg1_shots: pick(32, 2),
                flat_probe_trajs: pick(16, 4),
                oracle: oracle_dense("oracle-tree", 2e-2, Tree, pick(4000, 600)),
            }
        }
        _ => return None,
    };
    Some(def)
}

/// The oracle companion's job: iid trajectories (`dedup: false`) forced
/// onto the workload's engine (a 6-qubit register would otherwise never
/// reach the MPS engine), frame jobs auto-routed.
pub fn build_oracle_spec(oracle: &OracleRecipe, seed: u64) -> Spec {
    let noisy = noise_model(oracle.noise, 1.0).apply(&build_circuit(oracle.circuit));
    // dedup:false gives iid trajectories, so the pooled importance-
    // weighted histogram is an unbiased estimate of the distribution.
    let pts = if oracle.engine == EngineKind::Frame {
        ProbabilisticPts {
            n_samples: 1,
            shots_per_trajectory: oracle.samples,
            dedup: true,
        }
    } else {
        ProbabilisticPts {
            n_samples: oracle.samples,
            shots_per_trajectory: 8,
            dedup: false,
        }
    };
    let plan = pts.sample_plan(&noisy, &mut PhiloxRng::new(seed, stream(200, 0)));
    Spec {
        label: oracle.label.to_string(),
        recipe: SpecRecipe {
            label: oracle.label,
            circuit: oracle.circuit,
            noise: oracle.noise,
            plan: PlanRecipe::single(0),
            mps: MpsConfig::exact(),
            expect: oracle.engine,
        },
        circuit: Arc::new(noisy),
        plan: Arc::new(plan),
        exec_seed: PhiloxRng::new(seed, stream(200, 1)).next_u64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptsbe_core::PtsPlanTree;

    /// `(trajectories, of which with errors)` of the frozen draws.
    const SV_SHARED_PLAN: (usize, usize) = (240, 31);
    const MPS_BRICK_PLAN: (usize, usize) = (8, 1);

    #[test]
    fn every_workload_exists_at_both_sizes() {
        for name in WORKLOAD_NAMES {
            for quick in [false, true] {
                let def = workload(name, quick).unwrap();
                assert_eq!(def.name, name);
                assert!(!def.specs.is_empty());
                assert!(build_circuit(def.oracle.circuit).n_qubits() <= 8);
            }
        }
        assert!(workload("nope", true).is_none());
        assert_eq!(workload("svc-small", false).unwrap().specs.len(), 12);
    }

    #[test]
    fn seed_moves_the_execution_seed_and_never_the_plan() {
        let def = workload("sv-shared", true).unwrap();
        let recipe = def.specs[0];
        let a = build_spec(&recipe, 7, 0);
        let b = build_spec(&recipe, 7, 0);
        let c = build_spec(&recipe, 8, 0);
        assert_eq!(a.exec_seed, b.exec_seed);
        assert_ne!(a.exec_seed, c.exec_seed);
        assert_eq!(a.circuit.content_hash(), c.circuit.content_hash());
        assert_eq!(a.plan.trajectories, c.plan.trajectories);
        // The oracle companion is drawn from --seed.
        let o7 = build_oracle_spec(&def.oracle, 7);
        let o8 = build_oracle_spec(&def.oracle, 8);
        assert_ne!(o7.plan.trajectories, o8.plan.trajectories);
    }

    /// The frozen plans have the properties their workloads exist for.
    #[test]
    fn frozen_plans_route_with_margin() {
        // The router sends sharing >= 0.5 to the tree engine and the rest
        // to batch-major.
        for quick in [false, true] {
            for name in WORKLOAD_NAMES {
                let def = workload(name, quick).unwrap();
                for (i, recipe) in def.specs.iter().enumerate() {
                    let spec = build_spec(recipe, DEFAULT_SEED, i);
                    let sharing = PtsPlanTree::from_plan(&spec.plan).sharing_ratio();
                    match recipe.expect {
                        EngineKind::Tree => {
                            assert!(sharing >= 0.6, "{}: {sharing}", recipe.label)
                        }
                        EngineKind::BatchMajor => {
                            assert!(sharing <= 0.4, "{}: {sharing}", recipe.label)
                        }
                        _ => {}
                    }
                }
            }
        }
        let count = |name: &str| {
            let def = workload(name, false).unwrap();
            let spec = build_spec(&def.specs[0], DEFAULT_SEED, 0);
            let identity = spec.circuit.identity_assignment().unwrap();
            let errors = spec
                .plan
                .trajectories
                .iter()
                .filter(|t| t.choices != identity)
                .count();
            (spec.plan.trajectories.len(), errors)
        };
        assert_eq!(count("sv-shared"), SV_SHARED_PLAN);
        assert_eq!(count("sv-divergent").0, 96);
        assert_eq!(count("sv-sample").0, 4);
        assert_eq!(count("mps-brick32"), MPS_BRICK_PLAN);
        assert_eq!(count("frame-bulk").0, 1);
    }

    #[test]
    fn variants_change_the_hash_and_keep_the_plan_valid() {
        let def = workload("svc-small", true).unwrap();
        for (i, recipe) in def.specs.iter().enumerate() {
            let spec = build_spec(recipe, 3, i);
            let v1 = variant_of(&spec, 1);
            let v2 = variant_of(&spec, 2);
            assert_ne!(spec.circuit.content_hash(), v1.circuit.content_hash());
            assert_ne!(v1.circuit.content_hash(), v2.circuit.content_hash());
            assert_eq!(spec.circuit.n_sites(), v1.circuit.n_sites());
            assert_eq!(spec.plan.trajectories, v1.plan.trajectories);
        }
    }
}
