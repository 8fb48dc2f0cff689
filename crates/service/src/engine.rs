//! The engine seam: the one module that knows what an engine *is*.
//!
//! An engine is the paper's batched-execution contract — *(compiled
//! artifact, slice of the pre-sampled plan, seed) → records in plan
//! order* — behind four questions the rest of the service asks without
//! ever naming a variant: what [`kind`](EngineExec::kind) it is, how its
//! work is cut ([`chunks`](EngineExec::chunks)), what one cut produces
//! ([`run`](EngineExec::run)), and whether a fatal failure may fall back
//! to a dense engine
//! ([`dense_fallback_allowed`](EngineExec::dense_fallback_allowed)). The
//! router builds an [`EngineExec`] from cached artifacts; the scheduler
//! only moves the ranges it hands out.
//!
//! A chunk is a `Range<usize>` in the engine's own unit. Trajectory
//! engines cut **plan indices**, and every trajectory draws from the
//! Philox stream of its absolute plan index, so where a plan is cut
//! cannot change the delivered bytes. The frame engine cuts **shot
//! offsets** and keys each chunk's stream by the chunk ordinal, so its
//! cut is a pure function of the job spec and part of the byte contract.

use crate::cache::{FrameEntry, MpsEntry, SvEntry};
use crate::job::JobSpec;
use crate::router::BatchGeometry;
use crate::service::ServiceConfig;
use ptsbe_core::assignment::TrajectoryMeta;
use ptsbe_core::{
    Backend, BatchMajorExecutor, BatchResult, BatchedExecutor, PtsPlanTree, StatePool, TreeExecutor,
};
use ptsbe_dataset::{ShotWord, TrajectoryRecord};
use ptsbe_math::Scalar;
use ptsbe_rng::PhiloxRng;
use ptsbe_telemetry::{spanned, timer, Stage};
use std::ops::Range;
use std::sync::Arc;

/// The engines the service can run a job on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Bit-packed Pauli-frame bulk sampler (stabilizer stack).
    Frame,
    /// Prefix-sharing tree executor over the pooled statevector backend.
    Tree,
    /// Batch-major (lane-swept) statevector executor.
    BatchMajor,
    /// Flat batched executor (one preparation per trajectory) — never
    /// auto-routed; available for baselines via `Force`.
    Flat,
    /// Prefix-sharing tree executor over the MPS backend.
    MpsTree,
}

impl EngineKind {
    /// Every engine, in census order.
    pub const ALL: [EngineKind; 5] = [
        EngineKind::Frame,
        EngineKind::Tree,
        EngineKind::BatchMajor,
        EngineKind::Flat,
        EngineKind::MpsTree,
    ];

    /// Stable label (dataset headers, metrics).
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::Frame => "frame",
            EngineKind::Tree => "sv-tree",
            EngineKind::BatchMajor => "sv-batch-major",
            EngineKind::Flat => "sv-flat",
            EngineKind::MpsTree => "mps-tree",
        }
    }

    /// Position in [`EngineKind::ALL`] (per-engine counter arrays).
    pub(crate) fn index(self) -> usize {
        self as usize
    }

    /// True for the engines that walk a prefix trie over plan ranges
    /// (their job reports say how many ranges the walk was cut into).
    pub(crate) fn walks_plan_ranges(self) -> bool {
        matches!(self, EngineKind::Tree | EngineKind::MpsTree)
    }
}

/// Everything a worker needs to execute chunks of a routed job, built
/// from cached artifacts.
pub(crate) enum EngineExec<T: Scalar> {
    Frame(Arc<FrameEntry>),
    Tree {
        entry: Arc<SvEntry<T>>,
        tree: Arc<PtsPlanTree>,
    },
    BatchMajor(Arc<SvEntry<T>>),
    Flat(Arc<SvEntry<T>>),
    MpsTree {
        entry: Arc<MpsEntry<T>>,
        tree: Arc<PtsPlanTree>,
    },
}

/// Shots per frame chunk when the spec leaves it to the service.
const FRAME_AUTO_CHUNK_SHOTS: usize = 1 << 16;

/// A split tree job may spend at most 1/this of its edges re-walking
/// the shared spine (each extra range repeats up to one root-to-leaf
/// path of `n_sites` edges).
const TREE_SPINE_BUDGET_DIV: usize = 4;
/// Amplitude updates (`edges · 2^n`) a range must keep to be worth a
/// queue task: 2^19 is about 2 ms of segment sweeps.
const TREE_MIN_CHUNK_SWEEP: u128 = 1 << 19;

/// How many plan ranges a dense tree job is cut into when the spec
/// leaves it to the service: never more than there are workers (so a
/// one-worker service repeats nothing), never so many that the repeated
/// spine exceeds a quarter of the trie, never chunks too small to pay
/// for their scheduling.
fn tree_auto_chunks(tree: &PtsPlanTree, n_qubits: usize, workers: usize) -> usize {
    let edges = tree.n_edges();
    let by_spine = 1 + edges / (TREE_SPINE_BUDGET_DIV * tree.n_sites()).max(1);
    let by_work = ((edges as u128) << n_qubits.min(64)) / TREE_MIN_CHUNK_SWEEP;
    (workers.min(by_spine) as u128).min(by_work).max(1) as usize
}

/// Contiguous ranges of `per` units covering `0..total`.
fn ranges(total: usize, per: usize) -> Vec<Range<usize>> {
    let per = per.max(1);
    (0..total)
        .step_by(per)
        .map(|s| s..(s + per).min(total))
        .collect()
}

/// Lane geometry of a lane-swept engine over `entry`: the one place the
/// lane count, the L2 target and the spec's chunk override are folded
/// together, so the decision metadata and the scheduler cannot disagree.
fn lane_geometry<T: Scalar>(
    entry: &SvEntry<T>,
    spec: &JobSpec,
    cfg: &ServiceConfig,
) -> BatchGeometry {
    let state_bytes = (2usize << entry.backend.n_qubits()) * std::mem::size_of::<T>();
    let lanes = cfg.batch.lanes_for_bytes(state_bytes);
    let trajs_per_chunk = if spec.chunk_trajectories == 0 {
        // A few lane groups per chunk: enough work to amortize
        // scheduling, enough chunks to stream and cancel.
        (lanes * 8).clamp(16, 512)
    } else {
        spec.chunk_trajectories
    };
    BatchGeometry {
        lanes,
        trajs_per_chunk,
        state_bytes,
        l2_target_bytes: cfg.batch.l2_target_bytes,
        kernels: ptsbe_statevector::KernelImpl::auto().label(),
    }
}

impl<T: Scalar> EngineExec<T> {
    pub(crate) fn kind(&self) -> EngineKind {
        match self {
            EngineExec::Frame(_) => EngineKind::Frame,
            EngineExec::Tree { .. } => EngineKind::Tree,
            EngineExec::BatchMajor(_) => EngineKind::BatchMajor,
            EngineExec::Flat(_) => EngineKind::Flat,
            EngineExec::MpsTree { .. } => EngineKind::MpsTree,
        }
    }

    /// Measured bits per record (dataset header field).
    pub(crate) fn n_measured(&self) -> usize {
        match self {
            EngineExec::Frame(e) => e.sampler.n_measured(),
            EngineExec::Tree { entry, .. }
            | EngineExec::BatchMajor(entry)
            | EngineExec::Flat(entry) => entry.backend.measured_qubits().len(),
            EngineExec::MpsTree { entry, .. } => entry.backend.measured_qubits().len(),
        }
    }

    /// Lane geometry recorded on the route decision; `None` for engines
    /// that do not sweep lanes.
    pub(crate) fn geometry(&self, spec: &JobSpec, cfg: &ServiceConfig) -> Option<BatchGeometry> {
        match self {
            EngineExec::BatchMajor(entry) | EngineExec::Flat(entry) => {
                Some(lane_geometry(entry, spec, cfg))
            }
            _ => None,
        }
    }

    /// Cut the job into chunks (see the module docs for the unit).
    /// `workers` is the pool size the cut may use; only the dense tree
    /// engine looks at it.
    pub(crate) fn chunks(
        &self,
        spec: &JobSpec,
        cfg: &ServiceConfig,
        workers: usize,
    ) -> Vec<Range<usize>> {
        let n = spec.plan.trajectories.len();
        match self {
            EngineExec::Frame(_) => {
                let per = if spec.frame_chunk_shots == 0 {
                    FRAME_AUTO_CHUNK_SHOTS
                } else {
                    spec.frame_chunk_shots
                };
                ranges(spec.plan.total_shots(), per)
            }
            // One plan range per worker, each walked over its own
            // sub-trie: a range repeats only the trie's shared spine.
            EngineExec::Tree { tree, .. } => {
                let per = if spec.chunk_trajectories == 0 {
                    n.div_ceil(tree_auto_chunks(tree, spec.circuit.n_qubits(), workers))
                } else {
                    spec.chunk_trajectories
                };
                ranges(n, per)
            }
            // MPS plans fork at the root into a few long chains, so any
            // range would repeat a whole chain: one chunk (which is also
            // what keeps the degradation path's untouched-sink
            // precondition).
            EngineExec::MpsTree { .. } => ranges(n, n),
            EngineExec::BatchMajor(entry) | EngineExec::Flat(entry) => {
                ranges(n, lane_geometry(entry, spec, cfg).trajs_per_chunk)
            }
        }
    }

    /// Execute chunk number `chunk_index`, covering `range`, to records.
    /// Every stream key is absolute (plan index or chunk ordinal), so the
    /// result is independent of which worker runs what when.
    pub(crate) fn run(
        &self,
        spec: &JobSpec,
        chunk_index: usize,
        range: Range<usize>,
        cfg: &ServiceConfig,
    ) -> Vec<TrajectoryRecord> {
        let (seed, parallel) = (spec.seed, cfg.executor_parallel);
        match self {
            EngineExec::Frame(entry) => {
                let mut rng = PhiloxRng::for_trajectory(seed, chunk_index as u64);
                let result = {
                    // Frame sampling has no prep phase; the whole draw is
                    // the sample stage.
                    let _t = timer(Stage::Sample);
                    entry.sampler.sample(range.len(), &mut rng)
                };
                // One record per shot block: frame sampling draws noise
                // per shot, so there is no per-trajectory provenance to
                // attach — the Stim trade, documented on the router.
                // Building the record feeds the sink, so it counts as the
                // sink stage.
                spanned(Stage::SinkWrite, || {
                    vec![TrajectoryRecord {
                        meta: TrajectoryMeta {
                            traj_id: chunk_index,
                            nominal_prob: 1.0,
                            realized_prob: 1.0,
                            choices: Vec::new(),
                            errors: Vec::new(),
                            truncation: None,
                        },
                        shots: ShotWord::wrap(result.shots),
                    }]
                })
            }
            EngineExec::Flat(entry) => {
                to_records(BatchedExecutor { seed, parallel }.execute_slice(
                    &entry.backend,
                    &spec.circuit,
                    &spec.plan,
                    range,
                ))
            }
            EngineExec::BatchMajor(entry) => to_records(
                BatchMajorExecutor {
                    seed,
                    parallel,
                    lanes: 0,
                    cfg: cfg.batch,
                }
                .execute_slice(&entry.backend, &spec.circuit, &spec.plan, range),
            ),
            EngineExec::Tree { entry, tree } => {
                walk_range(spec, parallel, &entry.backend, &entry.pool, tree, range)
            }
            EngineExec::MpsTree { entry, tree } => {
                walk_range(spec, parallel, &entry.backend, &entry.pool, tree, range)
            }
        }
    }

    /// Whether a fatal runtime failure of this engine may re-route the
    /// job to a dense fallback: only the MPS engine, whose single chunk
    /// behind a lazily-written header guarantees nothing reached the
    /// sink yet.
    pub(crate) fn dense_fallback_allowed(&self) -> bool {
        matches!(self, EngineExec::MpsTree { .. })
    }
}

/// One tree chunk: walk `plan.trajectories[range]` over its prefix trie
/// — the cached whole-plan trie when the range is the whole plan, else
/// the range's own sub-trie, built here (a fraction of a millisecond
/// against a chunk of tens) and timed as this chunk's `Stage::Plan`.
fn walk_range<B: Backend>(
    spec: &JobSpec,
    parallel: bool,
    backend: &B,
    pool: &StatePool<B::State>,
    whole: &PtsPlanTree,
    range: Range<usize>,
) -> Vec<TrajectoryRecord> {
    let sub;
    let tree = if range.len() == whole.n_trajectories() {
        whole
    } else {
        sub = spanned(Stage::Plan, || {
            PtsPlanTree::from_plan_range(&spec.plan, range)
        });
        &sub
    };
    let ex = TreeExecutor {
        seed: spec.seed,
        parallel,
    };
    to_records(ex.execute_tree_pooled(backend, &spec.circuit, &spec.plan, tree, pool))
}

fn to_records(batch: BatchResult) -> Vec<TrajectoryRecord> {
    // Record building counts as the sink stage: it exists only to feed
    // the sink. Each trajectory's shot buffer is moved, not copied — a
    // bulk job's records are the executor's own allocations.
    spanned(Stage::SinkWrite, || {
        batch
            .trajectories
            .into_iter()
            .map(TrajectoryRecord::from)
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptsbe_core::be::TrajectoryResult;

    /// The memory shape of a bulk job (`sv-sample`: 2 M shots in four
    /// records): a record's shot buffer is the executor's allocation,
    /// not a copy of it.
    #[test]
    fn records_take_over_the_result_shot_buffers() {
        let batch = BatchResult {
            trajectories: (0..3)
                .map(|traj_id| TrajectoryResult {
                    meta: TrajectoryMeta {
                        traj_id,
                        nominal_prob: 1.0,
                        realized_prob: 1.0,
                        choices: vec![],
                        errors: vec![],
                        truncation: None,
                    },
                    shots: vec![traj_id as u128; 4096],
                })
                .collect(),
        };
        let before: Vec<usize> = batch
            .trajectories
            .iter()
            .map(|t| t.shots.as_ptr() as usize)
            .collect();
        let records = to_records(batch);
        let after: Vec<usize> = records.iter().map(|r| r.shots.as_ptr() as usize).collect();
        assert_eq!(after, before);
        assert_eq!(records[2].shots[4095], ShotWord(2));
    }

    #[test]
    fn index_is_the_position_in_all() {
        for (i, kind) in EngineKind::ALL.into_iter().enumerate() {
            assert_eq!(kind.index(), i, "{kind:?}");
        }
    }

    #[test]
    fn ranges_cover_with_a_ragged_tail() {
        assert_eq!(ranges(10, 4), vec![0..4, 4..8, 8..10]);
        assert_eq!(ranges(8, 8), vec![0..8]);
        assert_eq!(ranges(3, 0), vec![0..1, 1..2, 2..3]);
        assert!(ranges(0, 4).is_empty());
    }
}
