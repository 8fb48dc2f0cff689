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
    Backend, BatchConfig, BatchResult, BatchedExecutor, PtsPlan, PtsPlanTree, StatePool, SvBackend,
    TreeExecutor,
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
    /// Low-sharing statevector jobs: the same trie walk as `Tree`, cut
    /// into plan ranges by trajectory count.
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

    /// How a job report names the engine's cut — "walked as 2
    /// plan-range chunk(s)" — as (verb, chunk unit); `None` for the frame
    /// engine, whose cut is a pure function of the spec.
    pub(crate) fn cut_words(self) -> Option<(&'static str, &'static str)> {
        match self {
            EngineKind::Tree | EngineKind::BatchMajor => Some(("walked", "plan-range")),
            EngineKind::MpsTree => Some(("walked", "trie-order")),
            EngineKind::Flat => Some(("swept", "plan-range")),
            EngineKind::Frame => None,
        }
    }

    /// Whether the engine walks a prefix trie (its report lists the
    /// edges each chunk walked).
    pub(crate) fn walks_trie(self) -> bool {
        matches!(
            self,
            EngineKind::Tree | EngineKind::BatchMajor | EngineKind::MpsTree
        )
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
    BatchMajor {
        entry: Arc<SvEntry<T>>,
        tree: Arc<PtsPlanTree>,
    },
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
/// Amplitude updates a dense chunk must keep to be worth a worker of
/// its own: `edges · 2ⁿ` for a tree range, `trajectories · segments ·
/// 2ⁿ` for a low-sharing range. 2^21 is a few milliseconds of segment
/// sweeps; it keeps `svc-small`'s low-sharing jobs (2^20.1–2^20.7)
/// whole, which read 2–21 % slower per job when split (`job_p50_s`,
/// four seeds).
const MIN_CHUNK_SWEEP: u128 = 1 << 21;

/// Per-worker shares a dense job of `work` amplitude updates is cut
/// into: at most `workers`, and none lighter than [`MIN_CHUNK_SWEEP`].
fn work_shares(work: u128, workers: usize) -> usize {
    (workers as u128).min(work / MIN_CHUNK_SWEEP).max(1) as usize
}

/// How many plan ranges a dense tree job of `edges` trie edges over
/// `n_sites` sites is cut into when the spec leaves it to the service:
/// never more than there are workers (so a one-worker service repeats
/// nothing), never so many that the repeated spine exceeds a quarter of
/// the trie, never chunks too small to pay for their scheduling.
fn tree_auto_chunks(edges: usize, n_sites: usize, n_qubits: usize, workers: usize) -> usize {
    let by_spine = 1 + edges / (TREE_SPINE_BUDGET_DIV * n_sites).max(1);
    work_shares((edges as u128) << n_qubits.min(64), workers.min(by_spine))
}

/// Trajectories per chunk of a low-sharing (or flat) dense job of `n`
/// trajectories through `segments` segments on `n_qubits` qubits,
/// `lanes` being [`BatchConfig::lanes_for`] of its state. A chunk holds
/// at most `(8·lanes).clamp(16, 512)` trajectories: enough work to
/// amortize scheduling, enough chunks to stream and cancel (the tree
/// cut would give `sv-divergent` one chunk per worker, and a later first
/// record). The chunk count is rounded up to a multiple of
/// the job's [`work_shares`] (every trajectory walks every segment), so
/// each worker sweeps an equal share.
fn lane_chunk_trajectories(
    n: usize,
    lanes: usize,
    segments: usize,
    n_qubits: usize,
    workers: usize,
) -> usize {
    let cap = (lanes * 8).clamp(16, 512);
    let shares = work_shares((n as u128 * segments as u128) << n_qubits.min(64), workers);
    let chunks = n.div_ceil(cap).div_ceil(shares) * shares;
    n.div_ceil(chunks.max(1))
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

/// The plan-range cut of a low-sharing or flat dense job over `entry`
/// on a pool of `workers`: the one place the lane count
/// ([`BatchConfig::lanes_for`]), the cut rule and the spec's chunk
/// override are folded together, so the decision metadata and the
/// scheduler cannot disagree.
fn range_geometry<T: Scalar>(entry: &SvEntry<T>, spec: &JobSpec, workers: usize) -> BatchGeometry {
    let backend = &entry.backend;
    let trajs_per_chunk = if spec.chunk_trajectories == 0 {
        let n = spec.plan.trajectories.len();
        let lanes = BatchConfig::default().lanes_for::<T>(backend.n_qubits());
        lane_chunk_trajectories(n, lanes, backend.n_segments(), backend.n_qubits(), workers)
    } else {
        spec.chunk_trajectories
    };
    BatchGeometry { trajs_per_chunk }
}

impl<T: Scalar> EngineExec<T> {
    pub(crate) fn kind(&self) -> EngineKind {
        match self {
            EngineExec::Frame(_) => EngineKind::Frame,
            EngineExec::Tree { .. } => EngineKind::Tree,
            EngineExec::BatchMajor { .. } => EngineKind::BatchMajor,
            EngineExec::Flat(_) => EngineKind::Flat,
            EngineExec::MpsTree { .. } => EngineKind::MpsTree,
        }
    }

    /// Measured bits per record (dataset header field).
    pub(crate) fn n_measured(&self) -> usize {
        match self {
            EngineExec::Frame(e) => e.sampler.n_measured(),
            EngineExec::Tree { entry, .. }
            | EngineExec::BatchMajor { entry, .. }
            | EngineExec::Flat(entry) => entry.backend.measured_qubits().len(),
            EngineExec::MpsTree { entry, .. } => entry.backend.measured_qubits().len(),
        }
    }

    /// The statevector backend whose counted sampler filled this
    /// engine's records, and takes their shot buffers back once written;
    /// `None` for the frame and MPS engines, whose records are freed.
    pub(crate) fn dense_backend(&self) -> Option<&SvBackend<T>> {
        match self {
            EngineExec::Tree { entry, .. }
            | EngineExec::BatchMajor { entry, .. }
            | EngineExec::Flat(entry) => Some(&entry.backend),
            EngineExec::Frame(_) | EngineExec::MpsTree { .. } => None,
        }
    }

    /// Plan-range cut recorded on the route decision, for a pool of
    /// `workers`; `None` for engines cut by another rule.
    pub(crate) fn geometry(&self, spec: &JobSpec, workers: usize) -> Option<BatchGeometry> {
        match self {
            EngineExec::BatchMajor { entry, .. } | EngineExec::Flat(entry) => {
                Some(range_geometry(entry, spec, workers))
            }
            _ => None,
        }
    }

    /// Cut the job into chunks (see the module docs for the unit).
    /// `workers` is the pool size the cut may use; only the frame engine
    /// ignores it, because its cut is part of the byte contract.
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
                    let (edges, sites) = (tree.n_edges(), tree.n_sites());
                    let k = tree_auto_chunks(edges, sites, spec.circuit.n_qubits(), workers);
                    n.div_ceil(k)
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
            // One equal share of plan ranges per worker, when the job
            // is heavy enough to pay for more than one.
            EngineExec::BatchMajor { entry, .. } | EngineExec::Flat(entry) => {
                ranges(n, range_geometry(entry, spec, workers).trajs_per_chunk)
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
            EngineExec::Tree { entry, tree } | EngineExec::BatchMajor { entry, tree } => {
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

    /// The lane cut of an `n`-trajectory, `segments`-segment f64 job on
    /// `n_qubits` qubits and `workers` workers, checked against what
    /// every cut must be: contiguous ranges covering `0..n`, none longer
    /// than the `(8·lanes).clamp(16, 512)` cap.
    fn lane_cut(n: usize, segments: usize, n_qubits: usize, workers: usize) -> Vec<Range<usize>> {
        let lanes = BatchConfig::default().lanes_for::<f64>(n_qubits);
        let per = lane_chunk_trajectories(n, lanes, segments, n_qubits, workers);
        let cut = ranges(n, per);
        let cap = (8 * lanes).clamp(16, 512);
        let covered: Vec<usize> = cut.iter().flat_map(|r| r.clone()).collect();
        assert_eq!(covered, (0..n).collect::<Vec<_>>(), "{cut:?}");
        assert!(
            cut.iter().all(|r| !r.is_empty() && r.len() <= cap),
            "{cut:?}"
        );
        cut
    }

    /// `sv-sample` (4 trajectories, 121 segments, 16 qubits: two lanes)
    /// and `sv-divergent` (97 trajectories, 92 segments, 14 qubits: four
    /// lanes) are one job each: the cut gives every worker an equal
    /// share.
    #[test]
    fn a_lone_heavy_lane_job_is_cut_into_equal_shares_per_worker() {
        for (workers, chunks) in [(1, 1), (2, 2), (4, 4)] {
            assert_eq!(lane_cut(4, 121, 16, workers).len(), chunks, "{workers}");
        }
        for workers in [1, 2] {
            let cut = lane_cut(97, 92, 14, workers);
            assert_eq!(cut.len(), 4, "{workers} workers: {cut:?}");
            assert!(cut.iter().all(|r| r.len() <= 25), "{cut:?}");
        }
    }

    /// `svc-small`'s lane jobs (2^20.1, 2^20.7 and 2^20.5 amplitude
    /// updates) are below the floor: one chunk on any pool.
    #[test]
    fn light_lane_jobs_stay_one_chunk() {
        for (n, segments, n_qubits) in [(150, 29, 8), (32, 46, 10), (150, 43, 8)] {
            for workers in [1, 2, 4, 8] {
                let cut = lane_cut(n, segments, n_qubits, workers);
                assert_eq!(
                    cut,
                    vec![0..n],
                    "({n}, {segments}, {n_qubits}) on {workers}"
                );
            }
        }
        assert!(lane_cut(0, 10, 8, 2).is_empty());
    }

    /// The floor both dense rules share leaves the benchmark's tree cuts
    /// as the tree rule's own 2^19 floor made them: `sv-shared`'s trie
    /// (1 463–1 495 edges over 91 sites, 14 qubits) one range per worker
    /// up to the spine budget, `svc-small`'s tries (10 qubits) whole.
    #[test]
    fn the_shared_floor_keeps_the_benchmark_tree_cuts() {
        for edges in [1463, 1495] {
            let cuts: Vec<usize> = [1, 2, 4, 8]
                .map(|workers| tree_auto_chunks(edges, 91, 14, workers))
                .into();
            assert_eq!(cuts, vec![1, 2, 4, 5], "{edges} edges");
        }
        for (edges, sites) in [(117, 36), (203, 45), (365, 54)] {
            for workers in [1, 2, 4, 8] {
                assert_eq!(tree_auto_chunks(edges, sites, 10, workers), 1);
            }
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
