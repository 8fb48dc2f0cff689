//! The engine seam: the one module that knows what an engine *is*.
//!
//! An engine is the paper's batched-execution contract — *(compiled
//! artifact, slice of the pre-sampled plan, seed) → records in plan
//! order* — behind three questions the rest of the service asks without
//! ever naming a variant: what [`kind`](EngineExec::kind) it is, how its
//! work is cut ([`chunks`](EngineExec::chunks)), and what one cut
//! produces ([`run`](EngineExec::run)). The router builds an [`EngineExec`] from cached artifacts; the scheduler
//! only moves the ranges it hands out.
//!
//! A chunk is a `Range<usize>` in the engine's own unit. The dense
//! trajectory engines cut **plan indices**; the MPS tree engine cuts
//! **positions of the plan's trie order** (the whole-plan trie's leaves
//! in depth-first order,
//! [`PtsPlanTree::leaf_plan_indices`]), closed only between leaves, and
//! maps them back to plan indices when a chunk runs. Either way every
//! trajectory draws from the Philox stream of its absolute plan index,
//! so where a plan is cut cannot change the delivered bytes. The frame
//! engine cuts **shot offsets** and keys each chunk's stream by the
//! chunk ordinal, so its cut is a pure function of the job spec and part
//! of the byte contract.
//!
//! Chunks in plan-index or shot units are delivered in chunk order as
//! they finish. Trie-order chunks are not plan-contiguous, so the job's
//! emitter holds them and writes them merged by plan index when the last
//! one arrives ([`EngineExec::merged_delivery`]).

use crate::cache::{FrameEntry, MpsEntry, SvEntry};
use crate::job::JobSpec;
use crate::router::BatchGeometry;
use crate::service::ServiceConfig;
use ptsbe_core::assignment::TrajectoryMeta;
use ptsbe_core::{
    Backend, BatchConfig, BatchMajorExecutor, BatchResult, BatchedExecutor, PtsPlan, PtsPlanTree,
    StatePool, TreeExecutor,
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

    /// What a chunk of a prefix-trie walk is called in a job report
    /// (the report says how many the walk was cut into, and how many
    /// trie edges each advanced through); `None` for the engines that
    /// walk no trie.
    pub(crate) fn trie_chunk_unit(self) -> Option<&'static str> {
        match self {
            EngineKind::Tree => Some("plan-range"),
            EngineKind::MpsTree => Some("trie-order"),
            _ => None,
        }
    }
}

/// What one executed chunk hands back to the scheduler.
pub(crate) struct ChunkOutput {
    /// The chunk's records, in plan order.
    pub(crate) records: Vec<TrajectoryRecord>,
    /// Edges of the trie the chunk walked (0 for the engines that walk
    /// none).
    pub(crate) trie_edges: u64,
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

/// Edges one shot of an MPS leaf weighs in the leaf cut's balance: at
/// χ = 64 on 32 qubits one trie edge (a segment's two-site updates) is
/// 0.54 ms and one conditionally sampled shot 0.154 ms (the
/// `tree_executor` bench's `leaf_chunks` group prints both).
const MPS_SHOT_WEIGHT: f64 = 0.29;
/// Two-site-update work (`edges · χ³`) an MPS chunk must keep to be
/// worth a walk of its own: 2^23 is about 17 ms at the 2 ns per unit
/// measured at χ = 64, and three orders of magnitude above a ~3 ms job
/// at χ = 8.
const MPS_MIN_CHUNK_WORK: u128 = 1 << 23;

/// The bond dimension an MPS job's states are expected to reach: what
/// the cached identity probe reached, else the most the register and
/// the configured cap allow.
fn mps_bond_estimate<T: Scalar>(entry: &MpsEntry<T>) -> usize {
    match entry.probe.get() {
        Some(Some(probe)) => probe.max_bond_reached,
        _ => {
            let half = (entry.backend.n_qubits() / 2) as u32;
            let by_width = 1usize.checked_shl(half).unwrap_or(usize::MAX);
            entry.backend.config().max_bond.min(by_width)
        }
    }
}

/// Cut an MPS tree job in trie order, between leaves
/// ([`PtsPlanTree::leaf_chunks`]). One worker walks the whole trie: its
/// chunks are delivered together anyway, so a cut would only re-walk
/// prefixes. Otherwise a non-zero `chunk_trajectories` (the spec's) is
/// a minimum chunk size closed at the next leaf boundary, and the
/// automatic rule cuts at most one chunk per worker and only while
/// every chunk keeps [`MPS_MIN_CHUNK_WORK`] at bond dimension `bond`.
fn mps_leaf_chunks(
    tree: &PtsPlanTree,
    plan: &PtsPlan,
    chunk_trajectories: usize,
    bond: usize,
    workers: usize,
) -> Vec<Range<usize>> {
    let chunks = if workers > 1 && chunk_trajectories != 0 {
        tree.leaf_chunks_of_at_least(plan, chunk_trajectories)
    } else {
        let work = (tree.n_edges() as u128).saturating_mul((bond as u128).saturating_pow(3));
        let k = (workers as u128).min(work / MPS_MIN_CHUNK_WORK) as usize;
        tree.leaf_chunks(plan, k, MPS_SHOT_WEIGHT)
    };
    chunks.into_iter().map(|c| c.range).collect()
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
/// lane count, the L2 target ([`BatchConfig::default`]) and the spec's
/// chunk override are folded together, so the decision metadata and the
/// scheduler cannot disagree.
fn lane_geometry<T: Scalar>(entry: &SvEntry<T>, spec: &JobSpec) -> BatchGeometry {
    let batch = BatchConfig::default();
    let state_bytes = (2usize << entry.backend.n_qubits()) * std::mem::size_of::<T>();
    let lanes = batch.lanes_for_bytes(state_bytes);
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
        l2_target_bytes: batch.l2_target_bytes,
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
    pub(crate) fn geometry(&self, spec: &JobSpec) -> Option<BatchGeometry> {
        match self {
            EngineExec::BatchMajor(entry) | EngineExec::Flat(entry) => {
                Some(lane_geometry(entry, spec))
            }
            _ => None,
        }
    }

    /// Cut the job into chunks (see the module docs for the unit).
    /// `workers` is the pool size the cut may use; only the two tree
    /// engines look at it.
    pub(crate) fn chunks(&self, spec: &JobSpec, workers: usize) -> Vec<Range<usize>> {
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
            // MPS plans fork near the root into a few long chains, so a
            // plan range would repeat a whole chain; a cut between the
            // trie's leaves repeats only what the two sides share.
            EngineExec::MpsTree { entry, tree } => mps_leaf_chunks(
                tree,
                &spec.plan,
                spec.chunk_trajectories,
                mps_bond_estimate(entry),
                workers,
            ),
            EngineExec::BatchMajor(entry) | EngineExec::Flat(entry) => {
                ranges(n, lane_geometry(entry, spec).trajs_per_chunk)
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
    ) -> ChunkOutput {
        let (seed, parallel) = (spec.seed, cfg.executor_parallel);
        let no_trie = |records| ChunkOutput {
            records,
            trie_edges: 0,
        };
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
                no_trie(spanned(Stage::SinkWrite, || {
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
                }))
            }
            EngineExec::Flat(entry) => no_trie(to_records(
                BatchedExecutor { seed, parallel }.execute_slice(
                    &entry.backend,
                    &spec.circuit,
                    &spec.plan,
                    range,
                ),
            )),
            EngineExec::BatchMajor(entry) => no_trie(to_records(
                BatchMajorExecutor {
                    seed,
                    parallel,
                    lanes: 0,
                    cfg: BatchConfig::default(),
                }
                .execute_slice(&entry.backend, &spec.circuit, &spec.plan, range),
            )),
            EngineExec::Tree { entry, tree } => {
                let indices: Vec<usize> = range.collect();
                walk_chunk(spec, parallel, &entry.backend, &entry.pool, tree, &indices)
            }
            EngineExec::MpsTree { entry, tree } => {
                let indices = &tree.leaf_plan_indices()[range];
                walk_chunk(spec, parallel, &entry.backend, &entry.pool, tree, indices)
            }
        }
    }

    /// Whether the job's chunks are held by its emitter and written
    /// merged by plan index when the last one arrives, instead of in
    /// chunk order as they finish: the MPS tree engine, whose trie-order
    /// chunks are not plan-contiguous.
    pub(crate) fn merged_delivery(&self) -> bool {
        matches!(self, EngineExec::MpsTree { .. })
    }
}

/// One tree chunk: walk the trajectories at plan `indices` over their
/// prefix trie — the cached whole-plan trie when the chunk is the whole
/// plan, else the chunk's own sub-trie, built here (a fraction of a
/// millisecond against a chunk of tens) and timed as this chunk's
/// `Stage::Plan`.
fn walk_chunk<B: Backend>(
    spec: &JobSpec,
    parallel: bool,
    backend: &B,
    pool: &StatePool<B::State>,
    whole: &PtsPlanTree,
    indices: &[usize],
) -> ChunkOutput {
    let sub;
    let tree = if indices.len() == whole.n_trajectories() {
        whole
    } else {
        sub = spanned(Stage::Plan, || {
            PtsPlanTree::from_plan_indices(&spec.plan, indices)
        });
        &sub
    };
    let ex = TreeExecutor {
        seed: spec.seed,
        parallel,
    };
    ChunkOutput {
        records: to_records(ex.execute_tree_pooled(backend, &spec.circuit, &spec.plan, tree, pool)),
        trie_edges: tree.n_edges() as u64,
    }
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

    /// `n` iid-style trajectories of `shots` shots over `sites` sites:
    /// all identity but the listed `(trajectory, site)` single errors.
    fn chain_plan(n: usize, sites: usize, shots: usize, errors: &[(usize, usize)]) -> PtsPlan {
        let mut trajectories = vec![
            ptsbe_core::PlannedTrajectory {
                choices: vec![0; sites],
                shots,
            };
            n
        ];
        for &(t, site) in errors {
            trajectories[t].choices[site] = 1;
        }
        PtsPlan { trajectories }
    }

    /// `mps-brick32`'s frozen plan: 8 trajectories of 100 shots over 248
    /// sites, trajectory 1 with one error at site 0 — two chains forking
    /// at the root, reaching bond 64.
    #[test]
    fn a_root_forked_mps_job_is_cut_between_its_two_chains() {
        let plan = chain_plan(8, 248, 100, &[(1, 0)]);
        let tree = PtsPlanTree::from_plan(&plan);
        assert_eq!(tree.n_edges(), 496);
        for workers in [2, 4, 8] {
            // Trie order: the seven identity trajectories, then the error.
            let cut = mps_leaf_chunks(&tree, &plan, 0, 64, workers);
            assert_eq!(cut, vec![0..7, 7..8], "{workers} workers");
        }
        assert_eq!(tree.leaf_plan_indices(), vec![0, 2, 3, 4, 5, 6, 7, 1]);
        // One worker walks the whole trie, whatever the spec asks for.
        assert_eq!(mps_leaf_chunks(&tree, &plan, 0, 64, 1), vec![0..8]);
        assert_eq!(mps_leaf_chunks(&tree, &plan, 1, 64, 1), vec![0..8]);
        // The same trie at a bond the circuit barely entangles is not
        // worth a second walk.
        assert_eq!(mps_leaf_chunks(&tree, &plan, 0, 8, 2), vec![0..8]);
    }

    /// `svc-small`'s MPS jobs (32 qubits, depth 4-6: ~124 sites, bond 8,
    /// 24 trajectories of which a few carry one error) are ~3 ms of work:
    /// they stay one chunk on any pool.
    #[test]
    fn shallow_mps_jobs_stay_one_chunk() {
        let plan = chain_plan(24, 124, 20, &[(3, 17), (11, 90), (19, 0)]);
        let tree = PtsPlanTree::from_plan(&plan);
        for workers in [1, 2, 4, 8] {
            assert_eq!(
                mps_leaf_chunks(&tree, &plan, 0, 8, workers),
                vec![0..24],
                "{workers} workers"
            );
        }
        // The spec's knob overrides the work threshold (how tests split
        // tiny circuits): a minimum, closed at the next leaf boundary, so
        // the 21 identity trajectories of one leaf stay together.
        let forced = mps_leaf_chunks(&tree, &plan, 1, 8, 2);
        assert_eq!(forced, vec![0..21, 21..22, 22..23, 23..24]);
        assert_eq!(mps_leaf_chunks(&tree, &plan, 22, 8, 2), vec![0..22, 22..24]);
    }

    #[test]
    fn ranges_cover_with_a_ragged_tail() {
        assert_eq!(ranges(10, 4), vec![0..4, 4..8, 8..10]);
        assert_eq!(ranges(8, 8), vec![0..8]);
        assert_eq!(ranges(3, 0), vec![0..1, 1..2, 2..3]);
        assert!(ranges(0, 4).is_empty());
    }
}
