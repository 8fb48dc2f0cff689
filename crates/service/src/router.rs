//! Adaptive executor routing.
//!
//! The router inspects the circuit and the (cached) plan tree and picks
//! the fastest engine whose validity domain contains the job:
//!
//! | order | engine       | precondition                                   | why it wins                          |
//! |-------|--------------|------------------------------------------------|--------------------------------------|
//! | 1     | `Frame`      | Clifford gates, Pauli-mixture channels, no     | bit-packed frames: 64 shots/word,    |
//! |       |              | reset, ≤128 measured bits, deterministic       | MHz-class bulk sampling (Stim's      |
//! |       |              | noiseless reference                            | domain, rebuilt in `ptsbe_stabilizer`)|
//! | 2     | `MpsTree`    | register of ≥ 30 qubits                        | statevector memory is 2^n; MPS is not|
//! | 3     | `Tree`       | plan-tree `sharing_ratio` ≥ 0.5                | prep work collapses to trie edges    |
//! | 4     | `BatchMajor` | everything else                                | the same trie walk, cut in plan      |
//! |       |              |                                                | ranges that stream early records     |
//!
//! Rows 3 and 4 run one executor, [`ptsbe_core::TreeExecutor`]'s trie
//! walk: the sharing ratio picks only the label and the chunk cut.
//!
//! The frame engine samples noise per shot instead of consuming the
//! plan's assignments: it trades per-trajectory Kraus provenance for raw
//! throughput (exactly Stim's trade). Jobs that need assignment-exact
//! provenance force a statevector engine via [`EnginePolicy::Force`].
//!
//! A job routed to MPS stays there: its register is too wide for a dense
//! state, so a blown truncation budget is a refusal and a fatal engine
//! failure fails the job.

use crate::cache::{CompileCache, MpsEntry};
use crate::engine::{EngineExec, EngineKind};
use crate::job::JobSpec;
use crate::service::ServiceConfig;
use ptsbe_circuit::NoisyCircuit;
use ptsbe_core::backend::TruncationStats;
use ptsbe_core::Backend;
use ptsbe_math::Scalar;

/// How a job chooses its engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EnginePolicy {
    /// Let the router decide (the table above).
    #[default]
    Auto,
    /// Require a specific engine; the job fails if the circuit is
    /// outside its validity domain.
    Force(EngineKind),
}

/// Why the router picked what it picked.
#[derive(Debug, Clone, PartialEq)]
pub enum RouteReason {
    /// Caller forced the engine.
    Forced,
    /// Clifford + Pauli noise + deterministic reference: frame domain.
    CliffordPauliDeterministic,
    /// Register too wide for a dense statevector.
    WideRegister {
        /// Qubit count that crossed the threshold.
        n_qubits: usize,
    },
    /// Plan tree shares enough prep work to prefer the tree walk.
    HighSharing {
        /// The tree's sharing ratio.
        sharing_ratio: f64,
    },
    /// Too little prefix sharing to cut the walk by trie edges; the job
    /// is cut into plan ranges instead.
    LowSharing {
        /// The tree's sharing ratio.
        sharing_ratio: f64,
    },
    /// The job's own bond cap was binding when its probe blew the
    /// truncation budget, so the router routed MPS at the service's
    /// honest bond ceiling instead of refusing or shrinking — a tighter
    /// cap is slower *and* wrong (every over-cap update truncates, and
    /// the discarded weight compounds).
    HonestCeiling {
        /// The bond cap the job asked for.
        requested: usize,
        /// The ceiling the job actually ran at.
        raised: usize,
    },
}

impl std::fmt::Display for RouteReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteReason::Forced => write!(f, "forced by job policy"),
            RouteReason::CliffordPauliDeterministic => write!(
                f,
                "Clifford gates + Pauli channels + deterministic reference"
            ),
            RouteReason::WideRegister { n_qubits } => {
                write!(
                    f,
                    "register of {n_qubits} qubits exceeds statevector budget"
                )
            }
            RouteReason::HighSharing { sharing_ratio } => {
                write!(
                    f,
                    "plan tree shares {:.1}% of prep work",
                    sharing_ratio * 100.0
                )
            }
            RouteReason::LowSharing { sharing_ratio } => {
                write!(
                    f,
                    "plan tree shares only {:.1}% of prep work",
                    sharing_ratio * 100.0
                )
            }
            RouteReason::HonestCeiling { requested, raised } => {
                write!(
                    f,
                    "bond cap {requested} was binding when the mps probe blew the truncation \
                     budget; routed at the honest ceiling {raised}"
                )
            }
        }
    }
}

/// The plan-range cut of a batch-major or flat job, recorded on the
/// route decision so operators can see how the job was cut on the
/// service's pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchGeometry {
    /// Trajectories per scheduler chunk: the size the scheduler cuts
    /// on the service's pool, so a plan of `n` trajectories runs as
    /// `⌈n / trajs_per_chunk⌉` chunks.
    pub trajs_per_chunk: usize,
}

impl std::fmt::Display for BatchGeometry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} traj/chunk", self.trajs_per_chunk)
    }
}

/// The routing verdict recorded on the job.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteDecision {
    /// Chosen engine.
    pub engine: EngineKind,
    /// Rationale.
    pub reason: RouteReason,
    /// The plan-range cut, when the batch-major or flat engine was
    /// chosen (the others record theirs in the job report).
    pub geometry: Option<BatchGeometry>,
    /// Identity-assignment truncation probe result, when the MPS engine
    /// was considered under a finite cumulative truncation budget.
    pub truncation: Option<TruncationStats>,
}

/// A routed job: the verdict plus the engine that will run it.
pub(crate) type Routed<T> = (RouteDecision, EngineExec<T>);

/// The router's choice before the pool is consulted: the engine, why,
/// and its truncation probe.
type Choice<T> = (EngineExec<T>, RouteReason, Option<TruncationStats>);

/// Why a job could not be routed. Either way the message becomes the
/// job's error text verbatim.
pub(crate) enum RouteError {
    /// The MPS probe blew the job's cumulative truncation budget and no
    /// other engine may take the job (counted as a budget refusal).
    Refused(String),
    /// The circuit is outside the (possibly forced) engine's validity
    /// domain, or failed to compile.
    Invalid(String),
}

impl From<String> for RouteError {
    fn from(msg: String) -> Self {
        RouteError::Invalid(msg)
    }
}

/// The verdict for running the job on `exec` over a pool of `workers`:
/// engine and plan-range cut are read off the engine itself, so they
/// cannot disagree with it or with the cut the scheduler makes.
fn routed<T: Scalar>(
    spec: &JobSpec,
    (exec, reason, truncation): Choice<T>,
    workers: usize,
) -> Routed<T> {
    let decision = RouteDecision {
        engine: exec.kind(),
        reason,
        geometry: exec.geometry(spec, workers),
        truncation,
    };
    (decision, exec)
}

/// Label a dense job `Tree` (and cut it by trie edges) when the plan
/// tree's sharing ratio reaches this fraction; below it the job is
/// labelled `BatchMajor` and cut into plan ranges.
const SHARING_THRESHOLD: f64 = 0.5;

/// Route the MPS tree engine at/above this qubit count (a dense
/// statevector of 30 qubits is 16 GiB at f64).
const MPS_QUBIT_THRESHOLD: usize = 30;

/// Run (or reuse) the identity-assignment truncation probe on a
/// compiled MPS entry: prepare the noise-free trajectory once under the
/// job's config and record what truncation the gate structure alone
/// costs. Cached on the entry, so repeat jobs pay nothing; `None` when
/// the circuit has no identity assignment to probe.
fn mps_probe<T: Scalar>(entry: &MpsEntry<T>, nc: &NoisyCircuit) -> Option<TruncationStats> {
    *entry.probe.get_or_init(|| {
        let choices = nc.identity_assignment()?;
        let (state, _) = entry.backend.prepare(&choices);
        entry.backend.truncation_stats(&state)
    })
}

/// Honest-ceiling retry: when a probe blows the budget *because the
/// job's bond cap was binding* (`max_bond_reached` hit the cap), the
/// truncation is an artifact of the cap, not the circuit — rebuild the
/// MPS entry at the service ceiling and re-probe. Returns the raised
/// route when the probe passes there; `None` when the cap was not the
/// problem, the ceiling is no higher, or the budget is blown even at
/// the ceiling (the caller refuses the job).
fn raise_to_honest_ceiling<T: Scalar>(
    cache: &CompileCache<T>,
    cfg: &ServiceConfig,
    spec: &JobSpec,
    circuit_hash: u64,
    probe: &TruncationStats,
) -> Option<Choice<T>> {
    if probe.max_bond_reached < spec.mps.max_bond || cfg.mps_bond_ceiling <= spec.mps.max_bond {
        return None;
    }
    let raised_cfg = spec.mps.with_max_bond(cfg.mps_bond_ceiling);
    let nc = spec.circuit.as_ref();
    // Cache keys hash every MpsConfig field, so the raised compile is a
    // separate (warm-reusable) entry from the refused one.
    let entry = cache.mps(nc, circuit_hash, raised_cfg).ok()?;
    let raised_probe = mps_probe(&entry, nc)?;
    if raised_probe.budget_exhausted {
        return None;
    }
    let tree = cache.plan_tree(circuit_hash, &spec.plan);
    let reason = RouteReason::HonestCeiling {
        requested: spec.mps.max_bond,
        raised: cfg.mps_bond_ceiling,
    };
    Some((
        EngineExec::MpsTree { entry, tree },
        reason,
        Some(raised_probe),
    ))
}

/// What the truncation probe says about running the job on `exec`.
enum ProbeVerdict<T: Scalar> {
    /// Within budget, or nothing to check (not an MPS engine, no
    /// cumulative budget, no identity assignment): keep the engine and
    /// record the probe.
    Keep(Option<TruncationStats>),
    /// The job's own bond cap caused the blowout: run MPS at the honest
    /// ceiling instead.
    Raised(Choice<T>),
    /// Blown even at the ceiling: the caller refuses the job.
    Blown(TruncationStats),
}

/// Check a freshly built engine against the job's cumulative truncation
/// budget, preferring the honest ceiling over giving MPS up: when the
/// job's own cap caused the blowout, the raised route is both faster and
/// accurate — and it still honors a `Force(MpsTree)`.
fn probe_budget<T: Scalar>(
    cache: &CompileCache<T>,
    cfg: &ServiceConfig,
    spec: &JobSpec,
    circuit_hash: u64,
    exec: &EngineExec<T>,
) -> ProbeVerdict<T> {
    let EngineExec::MpsTree { entry, .. } = exec else {
        return ProbeVerdict::Keep(None);
    };
    if spec.mps.trunc_budget <= 0.0 {
        return ProbeVerdict::Keep(None);
    }
    match mps_probe(entry, &spec.circuit) {
        Some(p) if p.budget_exhausted => {
            match raise_to_honest_ceiling(cache, cfg, spec, circuit_hash, &p) {
                Some(raised) => ProbeVerdict::Raised(raised),
                None => ProbeVerdict::Blown(p),
            }
        }
        probe => ProbeVerdict::Keep(probe),
    }
}

/// Route `spec`, materialize its engine from `cache`, and record the
/// plan-range cut it gets on a pool of `workers`.
///
/// # Errors
/// [`RouteError::Invalid`] when the (possibly forced) engine cannot
/// accept the circuit; [`RouteError::Refused`] when the MPS probe blows
/// the job's cumulative budget even at the honest ceiling.
pub(crate) fn route_job<T: Scalar>(
    cache: &CompileCache<T>,
    cfg: &ServiceConfig,
    spec: &JobSpec,
    circuit_hash: u64,
    workers: usize,
) -> Result<Routed<T>, RouteError> {
    let choice = choose_engine(cache, cfg, spec, circuit_hash)?;
    Ok(routed(spec, choice, workers))
}

/// The engine the job runs on (the table in the module docs).
fn choose_engine<T: Scalar>(
    cache: &CompileCache<T>,
    cfg: &ServiceConfig,
    spec: &JobSpec,
    circuit_hash: u64,
) -> Result<Choice<T>, RouteError> {
    let nc = spec.circuit.as_ref();
    match spec.engine {
        EnginePolicy::Force(engine) => {
            let exec = build_engine(cache, spec, circuit_hash, engine)?;
            match probe_budget(cache, cfg, spec, circuit_hash, &exec) {
                ProbeVerdict::Keep(truncation) => Ok((exec, RouteReason::Forced, truncation)),
                ProbeVerdict::Raised(raised) => Ok(raised),
                // The caller demanded MPS; silently handing the job to
                // another engine would violate `Force`, so refuse
                // outright.
                ProbeVerdict::Blown(p) => Err(RouteError::Refused(format!(
                    "mps engine refused: identity-assignment probe truncation {:.3e} exceeds \
                     the cumulative budget {:.3e} (bond ceiling {} reached: {})",
                    p.trunc_error,
                    spec.mps.trunc_budget,
                    spec.mps.max_bond,
                    p.max_bond_reached >= spec.mps.max_bond,
                ))),
            }
        }
        EnginePolicy::Auto => {
            // 1. Frame domain: structural pre-checks (the circuit-crate
            //    helpers, memoized by content hash — Pauli-mixture
            //    detection walks every channel branch, which a warm
            //    repeat job must not redo), then the cached lowering's
            //    determinism flag.
            let traits = cache.traits(nc, circuit_hash);
            if traits.is_clifford
                && traits.all_pauli_channels
                && !traits.has_reset
                && traits.n_measured <= 128
            {
                let entry = cache.frame(nc, circuit_hash)?;
                if entry.deterministic {
                    let reason = RouteReason::CliffordPauliDeterministic;
                    return Ok((EngineExec::Frame(entry), reason, None));
                }
            }
            // 2. Wide registers: dense amplitudes are off the table, so
            //    a probe that blows the job's cumulative truncation
            //    budget refuses it rather than deliver out-of-budget
            //    MPS data.
            if nc.n_qubits() >= MPS_QUBIT_THRESHOLD {
                let exec = build_engine(cache, spec, circuit_hash, EngineKind::MpsTree)?;
                return match probe_budget(cache, cfg, spec, circuit_hash, &exec) {
                    ProbeVerdict::Keep(truncation) => {
                        let reason = RouteReason::WideRegister {
                            n_qubits: nc.n_qubits(),
                        };
                        Ok((exec, reason, truncation))
                    }
                    ProbeVerdict::Raised(raised) => Ok(raised),
                    ProbeVerdict::Blown(p) => Err(RouteError::Refused(format!(
                        "mps engine refused: identity-assignment probe truncation {:.3e} \
                         exceeds the cumulative budget {:.3e}, and {} qubits is too wide for \
                         a dense fallback — raise max_bond (ceiling {} reached: {}) or the \
                         budget",
                        p.trunc_error,
                        spec.mps.trunc_budget,
                        nc.n_qubits(),
                        spec.mps.max_bond,
                        p.max_bond_reached >= spec.mps.max_bond,
                    ))),
                };
            }
            // 3. Sharing decides the dense label and cut.
            route_dense(cache, spec, circuit_hash)
        }
    }
}

/// The dense (statevector) route: both labels walk the plan tree; its
/// sharing ratio decides the label and how the walk is cut.
fn route_dense<T: Scalar>(
    cache: &CompileCache<T>,
    spec: &JobSpec,
    circuit_hash: u64,
) -> Result<Choice<T>, RouteError> {
    let tree = cache.plan_tree(circuit_hash, &spec.plan);
    let entry = cache.sv(&spec.circuit, circuit_hash)?;
    let sharing_ratio = tree.sharing_ratio();
    Ok(if sharing_ratio >= SHARING_THRESHOLD {
        let reason = RouteReason::HighSharing { sharing_ratio };
        (EngineExec::Tree { entry, tree }, reason, None)
    } else {
        let reason = RouteReason::LowSharing { sharing_ratio };
        (EngineExec::BatchMajor { entry, tree }, reason, None)
    })
}

fn build_engine<T: Scalar>(
    cache: &CompileCache<T>,
    spec: &JobSpec,
    circuit_hash: u64,
    engine: EngineKind,
) -> Result<EngineExec<T>, String> {
    let nc = spec.circuit.as_ref();
    let sv = || cache.sv(nc, circuit_hash);
    let tree = || cache.plan_tree(circuit_hash, &spec.plan);
    Ok(match engine {
        EngineKind::Frame => {
            let entry = cache.frame(nc, circuit_hash)?;
            if !entry.deterministic {
                return Err(
                    "frame engine refused: the noiseless reference has random measurements, \
                     so bulk frame samples would not be iid"
                        .to_string(),
                );
            }
            EngineExec::Frame(entry)
        }
        EngineKind::Tree => EngineExec::Tree {
            entry: sv()?,
            tree: tree(),
        },
        EngineKind::BatchMajor => EngineExec::BatchMajor {
            entry: sv()?,
            tree: tree(),
        },
        EngineKind::Flat => EngineExec::Flat(sv()?),
        EngineKind::MpsTree => EngineExec::MpsTree {
            entry: cache.mps(nc, circuit_hash, spec.mps)?,
            tree: tree(),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptsbe_circuit::{channels, Circuit, NoiseModel};
    use ptsbe_core::{PlannedTrajectory, PtsPlan};

    /// A T gate, then a CX chain over `n` qubits under depolarizing
    /// noise: outside the frame domain at any width.
    fn t_chain(n: usize) -> NoisyCircuit {
        let mut c = Circuit::new(n);
        c.h(0).t(0);
        for q in 1..n {
            c.cx(q - 1, q);
        }
        c.measure_all();
        NoiseModel::new()
            .with_default_2q(channels::depolarizing(0.01))
            .apply(&c)
    }

    /// The MPS boundary from both sides: routing compiles the op stream
    /// but allocates no state, so a 29-qubit dense route is cheap to ask
    /// for.
    #[test]
    fn auto_routes_mps_from_thirty_qubits_and_dense_below() {
        let cache = CompileCache::<f64>::new();
        let cfg = ServiceConfig::default();
        for n in [29, 30] {
            let nc = t_chain(n);
            let identity = PlannedTrajectory {
                choices: vec![0; nc.sites().len()],
                shots: 4,
            };
            let plan = PtsPlan {
                trajectories: vec![identity],
            };
            let spec = JobSpec::new("boundary", nc, plan, 1);
            let hash = spec.circuit.content_hash();
            let Ok((decision, _)) = route_job(&cache, &cfg, &spec, hash, 2) else {
                panic!("{n} qubits did not route");
            };
            if n < 30 {
                assert!(
                    matches!(decision.engine, EngineKind::Tree | EngineKind::BatchMajor),
                    "{n} qubits: {decision:?}"
                );
            } else {
                assert_eq!(decision.engine, EngineKind::MpsTree, "{n} qubits");
                assert_eq!(decision.reason, RouteReason::WideRegister { n_qubits: n });
            }
        }
    }
}
