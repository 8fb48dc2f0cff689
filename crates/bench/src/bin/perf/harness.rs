//! Pieces both phases share: the service configuration of the load
//! shape, one-job and closed-loop-batch drivers over the product path
//! (`ShotService::submit → wait` into the benchmark's sink), the
//! correctness ledger, and the Algorithm-1 baselines.

use crate::sink::{ProbeSink, SinkOptions, SinkReport};
use crate::workloads::{variant_of, MixRecipe, Spec};
use ptsbe_core::baseline::{baseline_one_mps, baseline_one_sv_into};
use ptsbe_rng::{PhiloxRng, Rng};
use ptsbe_service::{
    EngineKind, FaultConfig, JobReport, JobSpec, RouteDecision, ServiceConfig, ShotService,
    TelemetryConfig,
};
use ptsbe_statevector::StateVector;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Service worker count of the load shape: `min(nproc, 4)`.
pub fn workers() -> usize {
    crate::procfs::nproc().min(4)
}

/// The load shape's service: chunk-level parallelism only, faults and
/// (unless a traced phase says otherwise) telemetry pinned off, whatever
/// the environment holds.
pub fn service_config(workers: usize, telemetry: TelemetryConfig) -> ServiceConfig {
    ServiceConfig {
        workers,
        executor_parallel: false,
        faults: Some(FaultConfig::default()),
        telemetry: Some(telemetry),
        ..ServiceConfig::default()
    }
}

pub fn start_service(workers: usize) -> ShotService {
    ShotService::start(service_config(workers, TelemetryConfig::off()))
}

/// One job through the product path.
pub struct JobOutcome {
    /// `submit` → `wait` returning.
    pub wall: Duration,
    pub report: JobReport,
    pub sink: SinkReport,
    pub route: Option<RouteDecision>,
}

pub fn run_job(service: &ShotService, job: JobSpec, opts: SinkOptions) -> JobOutcome {
    let (sink, handle) = ProbeSink::new(opts);
    let t0 = Instant::now();
    let job_handle = service
        .submit(job, Box::new(sink))
        .expect("a running service admits valid jobs");
    let report = job_handle.wait();
    let wall = t0.elapsed();
    JobOutcome {
        wall,
        report,
        sink: handle.report(),
        route: job_handle.route(),
    }
}

/// The service's automatic frame chunk (`split_chunks`).
pub const FRAME_CHUNK_SHOTS: usize = 1 << 16;

/// Scheduler chunks a routed job was split into (the service's own
/// geometry, read back from the route decision).
pub fn chunk_count(route: &RouteDecision, spec: &Spec) -> u64 {
    match route.engine {
        EngineKind::Frame => spec.total_shots().div_ceil(FRAME_CHUNK_SHOTS as u64),
        EngineKind::Tree | EngineKind::MpsTree => 1,
        EngineKind::BatchMajor | EngineKind::Flat => {
            let per = route.geometry.map_or(64, |g| g.trajs_per_chunk) as u64;
            (spec.plan.trajectories.len() as u64).div_ceil(per)
        }
    }
}

/// The correctness ledger of one invocation: operations attempted and
/// failed, plus named checks for the results file.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub named: Vec<(String, bool, String)>,
}

impl Checks {
    /// Count one job; it fails unless it is `Done` on the engine its
    /// recipe names, with exactly the planned shots delivered and
    /// finalized.
    pub fn job(&mut self, out: &JobOutcome, spec: &Spec) -> bool {
        let expect = spec.recipe.expect;
        self.attempted += 1;
        let planned = spec.total_shots();
        let problem = if !out.report.status.is_success() {
            Some(format!(
                "status {} ({})",
                out.report.status,
                out.report.error.clone().unwrap_or_default()
            ))
        } else if out.report.engine != Some(expect) {
            Some(format!(
                "routed to {:?}, expected {}",
                out.report.engine.map(EngineKind::label),
                expect.label()
            ))
        } else if out.sink.shots != planned || out.report.shots != planned {
            Some(format!(
                "delivered {} shots (report {}), planned {planned}",
                out.sink.shots, out.report.shots
            ))
        } else if !out.sink.finished {
            Some("sink was never finished".to_string())
        } else {
            None
        };
        if let Some(p) = problem {
            self.failed += 1;
            self.named.push((format!("job:{}", spec.label), false, p));
            return false;
        }
        true
    }

    /// Record a named check: one more operation, failed unless `ok`.
    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        self.named.push((name.to_string(), ok, detail));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

// ---------------------------------------------------------------------------
// Algorithm-1 baselines (one state preparation per shot).

enum Alg1Kind {
    Sv {
        compiled: ptsbe_statevector::exec::Compiled<f64>,
        scratch: StateVector<f64>,
    },
    Mps {
        compiled: ptsbe_tensornet::MpsCompiled<f64>,
        config: ptsbe_tensornet::MpsConfig,
    },
    Tableau(ptsbe_stabilizer::convert::StabProgram),
}

/// The paper's Algorithm 1 for one spec, on the backend family its
/// engine belongs to: `baseline_one_sv` for the dense engines,
/// `baseline_one_mps` for the MPS engine, and the per-shot tableau
/// simulation for the frame engine.
pub struct Alg1 {
    kind: Alg1Kind,
    seed: u64,
    drawn: u64,
}

impl Alg1 {
    pub fn new(spec: &Spec) -> Self {
        let nc = spec.circuit.as_ref();
        let kind = match spec.recipe.expect {
            EngineKind::Frame => Alg1Kind::Tableau(
                ptsbe_stabilizer::convert::lower(nc).expect("frame workloads are Clifford+Pauli"),
            ),
            EngineKind::MpsTree => Alg1Kind::Mps {
                compiled: ptsbe_tensornet::compile_mps(nc).expect("MPS-compatible circuit"),
                config: spec.recipe.mps,
            },
            _ => {
                let compiled = ptsbe_statevector::exec::compile(nc).expect("BE-compatible circuit");
                let scratch = StateVector::zero_state(compiled.n_qubits());
                Alg1Kind::Sv { compiled, scratch }
            }
        };
        Self {
            kind,
            seed: spec.exec_seed ^ 0xA161,
            drawn: 0,
        }
    }

    /// Seconds per shot over `shots` consecutive Algorithm-1 shots.
    pub fn slice(&mut self, shots: usize) -> f64 {
        let t0 = Instant::now();
        let mut acc = 0u128;
        for _ in 0..shots {
            let mut rng = PhiloxRng::for_trajectory(self.seed, self.drawn);
            self.drawn += 1;
            acc ^= match &mut self.kind {
                Alg1Kind::Sv { compiled, scratch } => {
                    baseline_one_sv_into(compiled, &mut rng, scratch)
                }
                Alg1Kind::Mps { compiled, config } => baseline_one_mps(compiled, *config, &mut rng),
                Alg1Kind::Tableau(program) => {
                    ptsbe_stabilizer::frame::tableau_sample_one(program, &mut rng)
                }
            };
        }
        std::hint::black_box(acc);
        t0.elapsed().as_secs_f64() / shots.max(1) as f64
    }
}

// ---------------------------------------------------------------------------
// Closed-loop batches (svc-small).

/// One job of a batch: which base spec, and whether it runs as a
/// never-seen variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchJob {
    pub spec: usize,
    pub variant: Option<u64>,
}

/// The job list of batch `batch`: specs drawn uniformly by seed, every
/// `variant_every`-th job (if any) a variant whose id no earlier batch
/// used.
pub fn batch_jobs(mix: &MixRecipe, n_specs: usize, seed: u64, batch: u64) -> Vec<BatchJob> {
    let mut rng = PhiloxRng::new(seed, 0xBA7C_0000 + batch);
    (0..mix.jobs_per_batch)
        .map(|i| BatchJob {
            spec: rng.gen_index(n_specs),
            variant: (mix.variant_every > 0 && i % mix.variant_every == mix.variant_every - 1)
                .then(|| 1 + batch * mix.jobs_per_batch as u64 + i as u64),
        })
        .collect()
}

pub struct BatchOutcome {
    pub makespan: Duration,
    pub jobs: Vec<BatchJob>,
    /// Per job, in job-list order.
    pub outcomes: Vec<JobOutcome>,
}

impl BatchOutcome {
    pub fn shots(&self) -> u64 {
        self.outcomes.iter().map(|o| o.sink.shots).sum()
    }

    pub fn walls(&self) -> Vec<f64> {
        self.outcomes.iter().map(|o| o.wall.as_secs_f64()).collect()
    }

    /// Compile and plan-tree misses the batch's never-seen variants
    /// account for: two each, one for a frame job (it builds no tree).
    pub fn variant_misses(&self, specs: &[Spec]) -> u64 {
        self.jobs
            .iter()
            .filter(|j| j.variant.is_some())
            .map(|j| match specs[j.spec].recipe.expect {
                EngineKind::Frame => 1,
                _ => 2,
            })
            .sum()
    }

    /// Count every job in the ledger against its spec's engine.
    pub fn check(&self, specs: &[Spec], checks: &mut Checks) {
        for (j, o) in self.jobs.iter().zip(&self.outcomes) {
            checks.job(o, &specs[j.spec]);
        }
    }
}

/// Run one batch closed-loop: `clients` threads, each submitting its
/// next job only after its previous one completed. Variant specs are
/// generated before the clock starts — they are inputs, not work.
pub fn run_batch(
    service: &ShotService,
    specs: &[Spec],
    jobs: Vec<BatchJob>,
    clients: usize,
    opts: SinkOptions,
) -> BatchOutcome {
    let inputs: Vec<JobSpec> = jobs
        .iter()
        .map(|j| match j.variant {
            Some(k) => variant_of(&specs[j.spec], k).job(),
            None => specs[j.spec].job(),
        })
        .collect();
    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    let mut tagged: Vec<(usize, JobOutcome)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(input) = inputs.get(i) else { break };
                        mine.push((i, run_job(service, input.clone(), opts)));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let makespan = t0.elapsed();
    tagged.sort_by_key(|(i, _)| *i);
    BatchOutcome {
        makespan,
        jobs,
        outcomes: tagged.into_iter().map(|(_, o)| o).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{build_spec, workload};

    #[test]
    fn batch_job_lists_are_seeded_and_variants_never_repeat() {
        let mix = MixRecipe {
            jobs_per_batch: 64,
            variant_every: 16,
        };
        let a = batch_jobs(&mix, 12, 5, 0);
        assert_eq!(a, batch_jobs(&mix, 12, 5, 0));
        assert_ne!(a, batch_jobs(&mix, 12, 6, 0));
        assert_eq!(a.iter().filter(|j| j.variant.is_some()).count(), 4);
        assert!(a.iter().all(|j| j.spec < 12));
        let b = batch_jobs(&mix, 12, 5, 1);
        let ids = |v: &[BatchJob]| -> Vec<u64> { v.iter().filter_map(|j| j.variant).collect() };
        assert!(ids(&a).iter().all(|k| !ids(&b).contains(k)));
    }

    #[test]
    fn one_job_and_one_batch_through_the_service() {
        let def = workload("svc-small", true).unwrap();
        let (built, mix) = (def.build_specs(9), &def.mix);
        let service = start_service(2);
        let mut checks = Checks::default();
        let out = run_job(&service, built[1].job(), SinkOptions::default());
        assert!(checks.job(&out, &built[1]), "{:?}", checks.named);
        assert_eq!(chunk_count(out.route.as_ref().unwrap(), &built[1]), 1);
        // A job on another engine than its recipe names is a failed
        // operation.
        let mut elsewhere = built[1].clone();
        elsewhere.recipe.expect = EngineKind::Flat;
        assert!(!checks.job(&out, &elsewhere));
        assert_eq!((checks.attempted, checks.failed), (2, 1));

        let jobs = batch_jobs(mix, built.len(), 9, 0);
        let batch = run_batch(&service, &built, jobs.clone(), 2, SinkOptions::default());
        assert_eq!(batch.outcomes.len(), jobs.len());
        let planned: u64 = jobs.iter().map(|j| built[j.spec].total_shots()).sum();
        assert_eq!(batch.shots(), planned);
        batch.check(&built, &mut checks);
        assert_eq!(
            (checks.attempted, checks.failed),
            (2 + jobs.len() as u64, 1)
        );
        let variants = jobs.iter().filter(|j| j.variant.is_some()).count() as u64;
        assert!((variants..=2 * variants).contains(&batch.variant_misses(&built)));

        // A single-job workload is a batch of one, without variants.
        let single = workload("sv-shared", true).unwrap();
        assert_eq!(single.clients(), 1);
        let only = batch_jobs(&single.mix, 1, 9, 3);
        assert_eq!(
            only,
            vec![BatchJob {
                spec: 0,
                variant: None
            }]
        );
    }

    #[test]
    fn alg1_runs_on_every_backend_family() {
        for name in ["sv-shared", "frame-bulk", "mps-brick32"] {
            let def = workload(name, true).unwrap();
            let spec = build_spec(&def.specs[0], 4, 0);
            let per_shot = Alg1::new(&spec).slice(2);
            assert!(per_shot > 0.0 && per_shot.is_finite(), "{name}");
        }
    }
}
