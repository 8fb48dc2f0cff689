//! Batched Execution: the BE half of PTSBE.
//!
//! Two executors share this module:
//!
//! - [`BatchedExecutor`] (flat): prepares each trajectory's state from
//!   `|0…0⟩` exactly once, bulk-samples its `m_α` shots, and attaches
//!   provenance — the paper's Batched Execution.
//! - [`TreeExecutor`] (prefix-shared): builds a
//!   [`crate::plan::PtsPlanTree`] over the plan and walks it depth-first,
//!   advancing through each circuit segment once per *tree edge* and
//!   forking states only at branch points. Low-noise plans are dominated
//!   by trajectories sharing long identity prefixes, so the dominant cost
//!   drops from `O(trajectories × circuit_len)` gate applications to
//!   `O(trie_edges)` — while producing **bitwise identical** shots,
//!   because every leaf replays exactly the flat op sequence and keeps
//!   the Philox stream keyed by its original plan index. Each node's
//!   heaviest child is visited last and takes over the parent's state,
//!   so a walk keeps at most ⌊log₂ leaf nodes⌋ + 1 states live.
//!   Branch-point forks draw recycled buffers from a
//!   [`crate::pool::StatePool`] and finished leaves release theirs back,
//!   so the walk's hot loop is allocation-free in steady state.
//!
//! A plan with no shared prefixes is a trie whose branch points sit near
//! the root, so the tree walk is also the low-sharing dense executor:
//! [`BatchMajorExecutor`] keeps its name and entry points, and walks the
//! sub-trie of the range it is given.
//!
//! Both fan out over rayon (the CPU analog of the paper's
//! inter-trajectory multi-GPU distribution): the flat executor maps over
//! trajectories, the tree executor expands a bounded frontier of
//! independent subtrees and maps over those. With `parallel: false` an
//! execution is one thread all the way down — the statevector kernels'
//! own per-gate fan-out is switched off with it — so a caller that
//! parallelizes *across* executions keeps exactly one parallel layer.
//! Every trajectory is seeded with its own counter-based stream, so
//! results are reproducible regardless of scheduling.

use crate::assignment::TrajectoryMeta;
use crate::backend::{Backend, SvBackend};
use crate::plan::{PtsPlan, PtsPlanTree};
use crate::pool::StatePool;
use ptsbe_circuit::NoisyCircuit;
use ptsbe_math::Scalar;
use ptsbe_rng::PhiloxRng;
use rayon::prelude::*;

/// Order-preserving map over owned items — the single switch point both
/// executors route their parallelism through. `parallel` fans the
/// items out over rayon; otherwise they run in turn on the calling
/// thread *under a one-thread rayon budget*, so no kernel underneath
/// (gate sweeps, norms, Kraus probabilities, block-CDF sampling) fans
/// out either. Output-neutral: the kernels key their summation grouping
/// on the qubit count, never on the thread count.
fn fan_out<T, R, F>(parallel: bool, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync + Send,
{
    static ONE_THREAD: std::sync::OnceLock<rayon::ThreadPool> = std::sync::OnceLock::new();
    if parallel {
        items.into_par_iter().map(f).collect()
    } else {
        ONE_THREAD
            .get_or_init(|| {
                rayon::ThreadPoolBuilder::new()
                    .num_threads(1)
                    .build()
                    .expect("a one-thread pool always builds")
            })
            .install(|| items.into_iter().map(f).collect())
    }
}

/// One executed trajectory: provenance + its bulk-sampled shots.
#[derive(Debug, Clone)]
pub struct TrajectoryResult {
    /// Provenance (with `realized_prob` filled in from execution).
    pub meta: TrajectoryMeta,
    /// Measurement records (bit `t` = measured qubit `t`).
    pub shots: Vec<u128>,
}

/// The output of one batched execution run.
#[derive(Debug, Clone, Default)]
pub struct BatchResult {
    /// Executed trajectories, in plan order.
    pub trajectories: Vec<TrajectoryResult>,
}

impl BatchResult {
    /// Total shots across trajectories.
    pub fn total_shots(&self) -> usize {
        self.trajectories.iter().map(|t| t.shots.len()).sum()
    }

    /// Iterator over all shots (trajectory-major order).
    pub fn all_shots(&self) -> impl Iterator<Item = u128> + '_ {
        self.trajectories
            .iter()
            .flat_map(|t| t.shots.iter().copied())
    }

    /// Fraction of distinct records among all shots (the right axis of
    /// the paper's Fig. 4).
    pub fn unique_fraction(&self) -> f64 {
        crate::stats::unique_fraction(self.trajectories.iter().flat_map(|t| t.shots.iter()))
    }
}

/// The batched executor.
#[derive(Debug, Clone, Copy)]
pub struct BatchedExecutor {
    /// Run seed; trajectory `i` uses Philox stream `for_trajectory(seed, i)`.
    pub seed: u64,
    /// Run trajectories in parallel. `false` runs the whole execution
    /// under a one-thread rayon budget: no trajectory fan-out *and* no
    /// kernel fan-out underneath — for serial baselines, and for callers
    /// (the service's workers) that already own the parallelism.
    pub parallel: bool,
}

impl Default for BatchedExecutor {
    fn default() -> Self {
        Self {
            seed: 0x9E37_79B9,
            parallel: true,
        }
    }
}

impl BatchedExecutor {
    /// Execute a plan: one preparation per trajectory, bulk sampling, and
    /// provenance assembly.
    pub fn execute<B: Backend>(
        &self,
        backend: &B,
        nc: &NoisyCircuit,
        plan: &PtsPlan,
    ) -> BatchResult {
        self.execute_slice(backend, nc, plan, 0..plan.trajectories.len())
    }

    /// Execute only `plan.trajectories[range]`, keeping every
    /// trajectory's Philox stream keyed by its *absolute* plan index —
    /// the chunked-emission entry point the data-collection service
    /// schedules across its worker pool. Concatenating slice results in
    /// range order is bitwise identical to one whole-plan
    /// [`BatchedExecutor::execute`], for any slicing.
    ///
    /// # Panics
    /// Panics when `range` exceeds the plan.
    pub fn execute_slice<B: Backend>(
        &self,
        backend: &B,
        nc: &NoisyCircuit,
        plan: &PtsPlan,
        range: std::ops::Range<usize>,
    ) -> BatchResult {
        let base = range.start;
        let run_one = |(off, traj): (usize, &crate::plan::PlannedTrajectory)| {
            let idx = base + off;
            let (mut state, realized) = {
                let _t = ptsbe_telemetry::timer(ptsbe_telemetry::Stage::Prep);
                backend.prepare(&traj.choices)
            };
            let leaf = Leaf {
                nc,
                plan,
                seed: self.seed,
                realized,
            };
            let (_, result) = leaf
                .sample(backend, &mut state, &[idx])
                .pop()
                .expect("one trajectory in, one result out");
            result
        };
        let trajectories = fan_out(
            self.parallel,
            plan.trajectories[range].iter().enumerate().collect(),
            run_one,
        );
        BatchResult { trajectories }
    }
}

// ---------------------------------------------------------------------------
// Prefix-sharing trajectory-tree executor

/// The trajectory-tree executor: batched execution over a
/// [`PtsPlanTree`], sharing state preparation across trajectories with
/// common Kraus prefixes.
///
/// Produces output bitwise identical to [`BatchedExecutor`] with the same
/// `seed` on the same plan: every leaf's state is the result of exactly
/// the flat op sequence (segment advances compose associatively over the
/// same op order), every leaf's shots come from the Philox stream keyed
/// by its original plan index, and results are returned in plan order.
#[derive(Debug, Clone, Copy)]
pub struct TreeExecutor {
    /// Run seed; trajectory `i` uses Philox stream `for_trajectory(seed, i)`.
    pub seed: u64,
    /// Fan sibling subtrees out over rayon. `false` walks the tree on
    /// the calling thread under a one-thread rayon budget, kernels
    /// included (see [`BatchedExecutor::parallel`]).
    pub parallel: bool,
}

impl Default for TreeExecutor {
    fn default() -> Self {
        let flat = BatchedExecutor::default();
        Self {
            seed: flat.seed,
            parallel: flat.parallel,
        }
    }
}

impl TreeExecutor {
    /// Execute a plan through its prefix tree.
    pub fn execute<B: Backend>(
        &self,
        backend: &B,
        nc: &NoisyCircuit,
        plan: &PtsPlan,
    ) -> BatchResult {
        let tree = PtsPlanTree::from_plan(plan);
        self.execute_tree(backend, nc, plan, &tree)
    }

    /// Execute a plan through a pre-built prefix tree (lets callers reuse
    /// one tree across backends or report its sharing stats). Allocates a
    /// private [`StatePool`] per run; use
    /// [`TreeExecutor::execute_tree_pooled`] to keep the pool (and its
    /// fork counters) in the caller's hands.
    pub fn execute_tree<B: Backend>(
        &self,
        backend: &B,
        nc: &NoisyCircuit,
        plan: &PtsPlan,
        tree: &PtsPlanTree,
    ) -> BatchResult {
        let pool = StatePool::new();
        self.execute_tree_pooled(backend, nc, plan, tree, &pool)
    }

    /// Execute through a pre-built tree with a caller-owned state pool:
    /// the root and every branch-point fork draw recycled buffers from
    /// `pool` and finished leaves release theirs back, making the walk
    /// allocation-free in steady state and the pool's parked count
    /// constant across warm calls. The pool may be reused (warm) across
    /// calls; `pool.stats()` afterwards reports the recycled/fresh split.
    ///
    /// `tree` may cover only part of the plan
    /// ([`PtsPlanTree::from_plan_range`]): exactly its trajectories run,
    /// on their absolute-plan-index Philox streams, and come back in
    /// plan order — concatenating range walks in range order is bitwise
    /// the whole-plan walk (and [`BatchedExecutor::execute`]).
    pub fn execute_tree_pooled<B: Backend>(
        &self,
        backend: &B,
        nc: &NoisyCircuit,
        plan: &PtsPlan,
        tree: &PtsPlanTree,
        pool: &StatePool<B::State>,
    ) -> BatchResult {
        if tree.n_trajectories() == 0 {
            return BatchResult::default();
        }
        let ctx = TreeCtx {
            backend,
            nc,
            plan,
            tree,
            pool,
        };
        // The root comes out of the pool like every fork: the walk
        // releases one state per leaf, so it must also draw one per leaf.
        let state = backend.initial_state_pooled(pool);
        let mut frontier: Vec<(usize, B::State, f64)> = vec![(tree.root(), state, 1.0)];
        if self.parallel {
            // Expand a bounded frontier of independent subtrees breadth
            // first, then fan all of them out in ONE parallel map from
            // this (non-worker) thread. Fanning out per-node instead
            // would cap concurrency at the arity of the shallowest
            // branch point, since nested parallel calls degrade to
            // serial inside a worker.
            let target = rayon::current_num_threads().max(1) * 2;
            let mut at = 0usize;
            while frontier.len() < target && at < frontier.len() {
                if tree.node(frontier[at].0).children.is_empty() {
                    at += 1; // leaf: nothing to expand
                    continue;
                }
                let (node_idx, node_state, acc) = frontier.remove(at);
                let mut carrier = Some(node_state);
                for i in 0..tree.node(node_idx).children.len() {
                    frontier.push(ctx.fork_and_advance(node_idx, i, &mut carrier, acc));
                }
            }
        }
        // Serial: the frontier is the root alone, one walk of the whole
        // tree on this thread.
        let mut tagged: Vec<(usize, TrajectoryResult)> =
            fan_out(self.parallel, frontier, |(node_idx, node_state, acc)| {
                self.walk(&ctx, node_idx, node_state, acc)
            })
            .into_iter()
            .flatten()
            .collect();
        // Leaves surface in depth-first (sorted-assignment) order;
        // restore plan order for flat-executor equivalence.
        tagged.sort_unstable_by_key(|(idx, _)| *idx);
        BatchResult {
            trajectories: tagged.into_iter().map(|(_, t)| t).collect(),
        }
    }

    /// Depth-first walk of the subtree rooted at `node_idx`, whose state
    /// has been advanced through segments `0..node.depth` with partial
    /// probability `acc`. Iterative (an explicit frame stack, so depth is
    /// never bounded by the call stack — low-noise tries are one long
    /// single-child chain per shared prefix), with siblings processed one
    /// at a time, heaviest last: a branch point keeps its state live only
    /// while a lighter child is walked, so the live states are bounded by
    /// the halvings of the leaf count, not by the branch points on the
    /// path (an identity spine with single-error branches holds one
    /// state per branch point when walked spine first). Returns
    /// `(plan index, result)` pairs for every leaf underneath.
    fn walk<B: Backend>(
        &self,
        ctx: &TreeCtx<'_, B>,
        node_idx: usize,
        state: B::State,
        acc: f64,
    ) -> Vec<(usize, TrajectoryResult)> {
        let mut out = Vec::new();
        let mut stack = vec![WalkFrame {
            node_idx,
            carrier: Some(state),
            acc,
            next_child: 0,
        }];
        while let Some(top) = stack.last() {
            let node = ctx.tree.node(top.node_idx);
            if node.children.is_empty() {
                let frame = stack.pop().expect("frame present");
                let state = frame.carrier.expect("leaf state present");
                ctx.emit_leaf(self.seed, frame.node_idx, state, frame.acc, &mut out);
                continue;
            }
            if top.next_child == node.children.len() {
                stack.pop();
                continue;
            }
            let frame = stack.last_mut().expect("frame present");
            let i = frame.next_child;
            frame.next_child += 1;
            let acc = frame.acc;
            let job = {
                let node_idx = frame.node_idx;
                let carrier = &mut frame.carrier;
                ctx.fork_and_advance(node_idx, i, carrier, acc)
            };
            stack.push(WalkFrame {
                node_idx: job.0,
                carrier: Some(job.1),
                acc: job.2,
                next_child: 0,
            });
        }
        out
    }
}

/// One explicit DFS frame of [`TreeExecutor::walk`]: a node whose state
/// (`carrier`) is consumed by its last child.
struct WalkFrame<S> {
    node_idx: usize,
    carrier: Option<S>,
    acc: f64,
    next_child: usize,
}

/// Shared read-only context of one tree execution.
struct TreeCtx<'a, B: Backend> {
    backend: &'a B,
    nc: &'a NoisyCircuit,
    plan: &'a PtsPlan,
    tree: &'a PtsPlanTree,
    /// Recycles state buffers across forks and finished leaves.
    pool: &'a StatePool<B::State>,
}

impl<B: Backend> TreeCtx<'_, B> {
    /// Take the parent state out of `carrier` (the last sibling visited
    /// consumes the original allocation; earlier siblings fork it) and
    /// advance it one segment along the `i`-th child of `node_idx` in
    /// visiting order: the stored order with the heaviest child
    /// ([`PtsPlanTree::heaviest_child`]) moved to the end. Returns the
    /// child's `(node index, state, accumulated probability)` — the
    /// single code path both the serial walk and the parallel frontier
    /// expansion go through, so fork order and probability association
    /// can never diverge between them.
    fn fork_and_advance(
        &self,
        node_idx: usize,
        i: usize,
        carrier: &mut Option<B::State>,
        acc: f64,
    ) -> (usize, B::State, f64) {
        let node = self.tree.node(node_idx);
        let last = node.children.len() - 1;
        let heaviest = self.tree.heaviest_child(node_idx);
        let stored = if i == last {
            heaviest
        } else if i >= heaviest {
            i + 1
        } else {
            i
        };
        // Fork + advance are both state preparation from telemetry's
        // point of view: one Prep timer covers the pair.
        let _t = ptsbe_telemetry::timer(ptsbe_telemetry::Stage::Prep);
        let mut child_state = if i == last {
            carrier.take().expect("parent state consumed exactly once")
        } else {
            self.backend.fork_pooled(
                carrier.as_ref().expect("parent state still present"),
                self.pool,
            )
        };
        let (_branch, child_idx) = node.children[stored];
        let child = self.tree.node(child_idx);
        let choices = &self.plan.trajectories[child.rep].choices;
        let partial = self
            .backend
            .advance(&mut child_state, node.depth..node.depth + 1, choices);
        (child_idx, child_state, acc * partial)
    }

    /// Finish a leaf: apply the trailing gate segment (fires no site),
    /// then sample every trajectory ending here from the one prepared
    /// state, each on its own Philox stream.
    fn emit_leaf(
        &self,
        seed: u64,
        node_idx: usize,
        mut state: B::State,
        acc: f64,
        out: &mut Vec<(usize, TrajectoryResult)>,
    ) {
        let node = self.tree.node(node_idx);
        let choices = &self.plan.trajectories[node.rep].choices;
        let realized = acc * {
            let _t = ptsbe_telemetry::timer(ptsbe_telemetry::Stage::Prep);
            self.backend
                .advance(&mut state, node.depth..self.backend.n_segments(), choices)
        };
        let leaf = Leaf {
            nc: self.nc,
            plan: self.plan,
            seed,
            realized,
        };
        out.extend(leaf.sample(self.backend, &mut state, &node.leaves));
        // The leaf's own buffers go back to the arena for the next fork.
        self.backend.release(state, self.pool);
    }
}

/// The trajectories that end on one prepared state: Batched Execution's
/// sampling step, the one every executor goes through.
struct Leaf<'a> {
    nc: &'a NoisyCircuit,
    plan: &'a PtsPlan,
    seed: u64,
    /// The state's realized trajectory probability.
    realized: f64,
}

impl Leaf<'_> {
    /// Draw the shots of every trajectory in `leaves` (plan indices) from
    /// `state` in one [`Backend::sample_batch`] call, trajectory `i` on
    /// Philox stream `for_trajectory(seed, i)`, and attach provenance —
    /// `(plan index, result)` pairs in `leaves` order. A physically
    /// impossible trajectory (e.g. a damping branch on a qubit already in
    /// `|0⟩`) leaves a zero state, `realized == 0`: no shots exist.
    fn sample<B: Backend>(
        &self,
        backend: &B,
        state: &mut B::State,
        leaves: &[usize],
    ) -> Vec<(usize, TrajectoryResult)> {
        let trajs = &self.plan.trajectories;
        let shots = if self.realized > 0.0 {
            let mut rngs: Vec<PhiloxRng> = leaves
                .iter()
                .map(|&idx| PhiloxRng::for_trajectory(self.seed, idx as u64))
                .collect();
            let mut requests: Vec<(usize, &mut PhiloxRng)> = leaves
                .iter()
                .map(|&idx| trajs[idx].shots)
                .zip(rngs.iter_mut())
                .collect();
            let _t = ptsbe_telemetry::timer(ptsbe_telemetry::Stage::Sample);
            backend.sample_batch(state, &mut requests)
        } else {
            vec![Vec::new(); leaves.len()]
        };
        let truncation = backend.truncation_stats(state);
        leaves
            .iter()
            .zip(shots)
            .map(|(&idx, shots)| {
                let mut meta = TrajectoryMeta::from_assignment(self.nc, idx, &trajs[idx].choices);
                meta.realized_prob = self.realized;
                meta.truncation = truncation;
                (idx, TrajectoryResult { meta, shots })
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Low-sharing dense entry points

/// Lane-group geometry for [`ptsbe_statevector::batch::StateBatch`]
/// sweeps over split re/im amplitude planes. No executor sweeps lanes;
/// the service still sizes its low-sharing plan-range cut in these
/// lanes.
///
/// The per-group working set is `lanes` states of `2^n` amplitudes in
/// two scalar planes (`2 · 2^n · lanes · size_of::<T>()` bytes), swept
/// once per compiled op — so the group should fit the cache level the
/// sweeps stream from. More lanes amortize dispatch and matrix setup
/// further; past the cache budget the repeated sweeps turn
/// bandwidth-bound and lose the advantage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Working-set budget for one lane group's planes, in bytes.
    /// Defaults to 1 MiB (about half a typical per-core L2).
    pub l2_target_bytes: usize,
    /// Lane-count floor: below this, batching can't amortize anything.
    pub min_lanes: usize,
    /// Lane-count ceiling: split-plane kernels keep amortizing further
    /// than the interleaved layout did, so this defaults higher (32)
    /// than the old AoS tuning (16).
    pub max_lanes: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self {
            l2_target_bytes: 1 << 20,
            min_lanes: 2,
            max_lanes: 32,
        }
    }
}

impl BatchConfig {
    /// Lane count for a per-lane state footprint of `state_bytes` (both
    /// planes). Counts ≥ 8 are rounded down to a multiple of 8 so
    /// per-lane (Kraus-divergent) kernel rows fill whole AVX2 vectors
    /// (8 `f32` / 2×4 `f64`) with no tail.
    pub fn lanes_for_bytes(&self, state_bytes: usize) -> usize {
        let mut lanes =
            (self.l2_target_bytes / state_bytes.max(1)).clamp(self.min_lanes, self.max_lanes);
        if lanes >= 8 {
            lanes &= !7;
        }
        lanes
    }

    /// [`BatchConfig::lanes_for_bytes`] for an `n_qubits`-qubit state of
    /// scalar type `T` (split planes: `2 · 2^n · size_of::<T>()` bytes).
    pub fn lanes_for<T: Scalar>(&self, n_qubits: usize) -> usize {
        self.lanes_for_bytes(2 * (1usize << n_qubits) * std::mem::size_of::<T>())
    }
}

/// The low-sharing dense executor's entry points:
/// [`BatchMajorExecutor::execute_slice`] walks the prefix trie of its
/// range with [`TreeExecutor`], exactly as a tree chunk does. Bitwise
/// identical to [`BatchedExecutor`] with the same seed, for any slicing.
///
/// It does not sweep [`ptsbe_statevector::batch::StateBatch`] lanes: on
/// every plan shape the service routes here, the trie walk measured as
/// fast or faster with the same bits.
#[derive(Debug, Clone, Copy)]
pub struct BatchMajorExecutor {
    /// Run seed; trajectory `i` uses Philox stream `for_trajectory(seed, i)`.
    pub seed: u64,
    /// Fan sibling subtrees out over rayon (see [`TreeExecutor::parallel`]).
    pub parallel: bool,
    /// Ignored: the trie walk has no lanes. Kept so existing struct
    /// literals still build.
    pub lanes: usize,
    /// Ignored, like [`BatchMajorExecutor::lanes`].
    pub cfg: BatchConfig,
}

impl Default for BatchMajorExecutor {
    fn default() -> Self {
        let flat = BatchedExecutor::default();
        Self {
            seed: flat.seed,
            parallel: flat.parallel,
            lanes: 0,
            cfg: BatchConfig::default(),
        }
    }
}

impl BatchMajorExecutor {
    /// Execute a whole plan ([`BatchMajorExecutor::execute_slice`] over
    /// `0..n`).
    ///
    /// # Panics
    /// Panics when an assignment does not cover the site count exactly
    /// (same contract as [`Backend::prepare`]).
    pub fn execute<T: Scalar>(
        &self,
        backend: &SvBackend<T>,
        nc: &NoisyCircuit,
        plan: &PtsPlan,
    ) -> BatchResult {
        self.execute_slice(backend, nc, plan, 0..plan.trajectories.len())
    }

    /// Execute only `plan.trajectories[range]` through the range's own
    /// prefix trie ([`PtsPlanTree::from_plan_range`]), keying every
    /// trajectory's Philox stream by its *absolute* plan index.
    ///
    /// # Panics
    /// Panics when `range` exceeds the plan or an assignment does not
    /// cover the site count exactly.
    pub fn execute_slice<T: Scalar>(
        &self,
        backend: &SvBackend<T>,
        nc: &NoisyCircuit,
        plan: &PtsPlan,
        range: std::ops::Range<usize>,
    ) -> BatchResult {
        let n_sites = backend.compiled().sites().len();
        assert!(
            plan.trajectories[range.clone()]
                .iter()
                .all(|t| t.choices.len() == n_sites),
            "assignment length does not match site count"
        );
        let tree = PtsPlanTree::from_plan_range(plan, range);
        TreeExecutor {
            seed: self.seed,
            parallel: self.parallel,
        }
        .execute_tree(backend, nc, plan, &tree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SvBackend;
    use crate::pts::{ExhaustivePts, ProbabilisticPts, PtsSampler};
    use ptsbe_circuit::{channels, Circuit, NoiseModel};
    use ptsbe_rng::PhiloxRng;
    use ptsbe_statevector::{SamplingStrategy, StateVector};

    fn noisy_bell(p: f64) -> NoisyCircuit {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).measure_all();
        NoiseModel::new()
            .with_default_1q(channels::depolarizing(p))
            .with_default_2q(channels::depolarizing(p))
            .apply(&c)
    }

    #[test]
    fn executes_plan_with_provenance() {
        let nc = noisy_bell(0.1);
        let backend = SvBackend::<f64>::new(&nc, SamplingStrategy::Auto).unwrap();
        let mut rng = PhiloxRng::new(160, 0);
        let plan = ProbabilisticPts {
            n_samples: 50,
            shots_per_trajectory: 100,
            dedup: true,
        }
        .sample_plan(&nc, &mut rng);
        let result = BatchedExecutor::default().execute(&backend, &nc, &plan);
        assert_eq!(result.trajectories.len(), plan.n_trajectories());
        assert_eq!(result.total_shots(), plan.total_shots());
        for (t, p) in result.trajectories.iter().zip(&plan.trajectories) {
            assert_eq!(t.meta.choices, p.choices);
            assert_eq!(t.shots.len(), p.shots);
            // Unitary mixtures: realized == nominal exactly.
            assert!((t.meta.importance() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn parallel_and_serial_agree_exactly() {
        let nc = noisy_bell(0.2);
        let backend = SvBackend::<f64>::new(&nc, SamplingStrategy::Auto).unwrap();
        let mut rng = PhiloxRng::new(161, 0);
        let plan = ProbabilisticPts {
            n_samples: 30,
            shots_per_trajectory: 50,
            dedup: false,
        }
        .sample_plan(&nc, &mut rng);
        let par = BatchedExecutor {
            seed: 42,
            parallel: true,
        }
        .execute(&backend, &nc, &plan);
        let ser = BatchedExecutor {
            seed: 42,
            parallel: false,
        }
        .execute(&backend, &nc, &plan);
        for (a, b) in par.trajectories.iter().zip(&ser.trajectories) {
            assert_eq!(
                a.shots, b.shots,
                "per-trajectory streams must be deterministic"
            );
        }
    }

    /// [`SvBackend`] wrapper recording the rayon thread budget every
    /// `advance`/`prepare`/`sample` call runs under.
    struct BudgetProbe {
        inner: SvBackend<f64>,
        seen: std::sync::Mutex<Vec<usize>>,
    }

    impl BudgetProbe {
        fn record(&self) {
            self.seen.lock().unwrap().push(rayon::current_num_threads());
        }
    }

    impl Backend for BudgetProbe {
        type State = StateVector<f64>;

        fn n_qubits(&self) -> usize {
            self.inner.n_qubits()
        }
        fn measured_qubits(&self) -> &[usize] {
            self.inner.measured_qubits()
        }
        fn n_segments(&self) -> usize {
            self.inner.n_segments()
        }
        fn initial_state(&self) -> Self::State {
            self.inner.initial_state()
        }
        fn advance(
            &self,
            state: &mut Self::State,
            segments: std::ops::Range<usize>,
            choices: &[usize],
        ) -> f64 {
            self.record();
            self.inner.advance(state, segments, choices)
        }
        fn fork(&self, state: &Self::State) -> Self::State {
            self.inner.fork(state)
        }
        fn prepare(&self, choices: &[usize]) -> (Self::State, f64) {
            self.record();
            self.inner.prepare(choices)
        }
        fn sample<R: ptsbe_rng::Rng + ?Sized>(
            &self,
            state: &mut Self::State,
            shots: usize,
            rng: &mut R,
        ) -> Vec<u128> {
            self.record();
            self.inner.sample(state, shots, rng)
        }
        fn sample_batch<R: ptsbe_rng::Rng + ?Sized>(
            &self,
            state: &mut Self::State,
            requests: &mut [(usize, &mut R)],
        ) -> Vec<Vec<u128>> {
            // Per request: each `sample` records the budget it ran under.
            requests
                .iter_mut()
                .map(|(shots, rng)| self.sample(state, *shots, *rng))
                .collect()
        }
    }

    #[test]
    fn serial_executors_run_backend_under_one_thread_budget() {
        let nc = noisy_bell(0.2);
        let probe = BudgetProbe {
            inner: SvBackend::new(&nc, SamplingStrategy::Auto).unwrap(),
            seen: std::sync::Mutex::new(Vec::new()),
        };
        let mut rng = PhiloxRng::new(169, 0);
        let plan = ProbabilisticPts {
            n_samples: 20,
            shots_per_trajectory: 5,
            dedup: true,
        }
        .sample_plan(&nc, &mut rng);
        let run_both = || {
            let before = rayon::current_num_threads();
            BatchedExecutor {
                seed: 1,
                parallel: false,
            }
            .execute(&probe, &nc, &plan);
            assert_eq!(
                rayon::current_num_threads(),
                before,
                "flat leaked its budget"
            );
            TreeExecutor {
                seed: 1,
                parallel: false,
            }
            .execute(&probe, &nc, &plan);
            assert_eq!(
                rayon::current_num_threads(),
                before,
                "tree leaked its budget"
            );
        };
        // Bare thread, then inside a caller's wider pool: the flag wins
        // in both, and the caller's budget is back afterwards.
        run_both();
        rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap()
            .install(run_both);
        let seen = probe.seen.lock().unwrap();
        // Per context: one prepare + one sample per flat trajectory, then
        // at least one advance + one sample per tree leaf.
        assert!(seen.len() >= 2 * 4 * plan.n_trajectories());
        assert!(
            seen.iter().all(|&n| n == 1),
            "parallel: false must mean a one-thread budget, saw {seen:?}"
        );
    }

    /// GHZ-like circuit wide enough to cross
    /// `PARALLEL_THRESHOLD_QUBITS`: the kernels' rayon branches and the
    /// 4096-block norm reductions are live, which the 2-qubit cases above
    /// never reach. Amplitude damping is non-unitary on every branch, so
    /// each trajectory's `realized_prob` is a product of those norms.
    fn noisy_threshold_circuit() -> NoisyCircuit {
        let n = ptsbe_statevector::PARALLEL_THRESHOLD_QUBITS;
        let mut c = Circuit::new(n);
        c.h(0);
        for q in 1..n {
            c.cx(q - 1, q);
        }
        c.measure_all();
        NoiseModel::new()
            .with_default_1q(channels::amplitude_damping(0.2))
            .with_default_2q(channels::depolarizing(0.1))
            .apply(&c)
    }

    #[test]
    fn executors_agree_exactly_above_the_fanout_threshold() {
        let nc = noisy_threshold_circuit();
        let backend = SvBackend::<f64>::new(&nc, SamplingStrategy::Auto).unwrap();
        let mut rng = PhiloxRng::new(170, 0);
        let plan = ProbabilisticPts {
            n_samples: 12,
            shots_per_trajectory: 20,
            dedup: false,
        }
        .sample_plan(&nc, &mut rng);
        let reference = BatchedExecutor {
            seed: 9,
            parallel: false,
        }
        .execute(&backend, &nc, &plan);
        for parallel in [false, true] {
            let runs = [
                (
                    "flat",
                    BatchedExecutor { seed: 9, parallel }.execute(&backend, &nc, &plan),
                ),
                (
                    "tree",
                    TreeExecutor { seed: 9, parallel }.execute(&backend, &nc, &plan),
                ),
                (
                    "batch-major",
                    BatchMajorExecutor {
                        seed: 9,
                        parallel,
                        ..Default::default()
                    }
                    .execute(&backend, &nc, &plan),
                ),
            ];
            for (name, run) in &runs {
                assert_eq!(run.trajectories.len(), reference.trajectories.len());
                for (a, b) in run.trajectories.iter().zip(&reference.trajectories) {
                    assert_eq!(
                        a.meta.realized_prob.to_bits(),
                        b.meta.realized_prob.to_bits(),
                        "{name} par={parallel}: realized probability must be bitwise identical"
                    );
                    assert_eq!(a.shots, b.shots, "{name} par={parallel}");
                }
            }
        }
    }

    #[test]
    fn exhaustive_plan_reconstructs_full_distribution() {
        // Weighted combination over ALL trajectories must reproduce the
        // exact noisy distribution (density-matrix oracle).
        let nc = noisy_bell(0.3);
        let backend = SvBackend::<f64>::new(&nc, SamplingStrategy::Auto).unwrap();
        let mut rng = PhiloxRng::new(162, 0);
        let plan = ExhaustivePts {
            shots_per_trajectory: 4000,
            max_trajectories: 100,
        }
        .sample_plan(&nc, &mut rng);
        assert_eq!(plan.n_trajectories(), 64); // 4^3 sites
        let result = BatchedExecutor::default().execute(&backend, &nc, &plan);

        // Weighted histogram over outcomes.
        let mut est = [0.0f64; 4];
        for t in &result.trajectories {
            let w = t.meta.realized_prob / t.shots.len() as f64;
            for &s in &t.shots {
                est[s as usize] += w;
            }
        }
        let dm = ptsbe_densitymatrix::DensityMatrix::evolve(&nc);
        let exact = dm.probabilities();
        for i in 0..4 {
            assert!(
                (est[i] - exact[i]).abs() < 0.02,
                "outcome {i}: est {} vs exact {}",
                est[i],
                exact[i]
            );
        }
    }

    #[test]
    fn tree_executor_bitwise_matches_flat() {
        let nc = noisy_bell(0.15);
        let backend = SvBackend::<f64>::new(&nc, SamplingStrategy::Auto).unwrap();
        let mut rng = PhiloxRng::new(163, 0);
        let plan = ProbabilisticPts {
            n_samples: 60,
            shots_per_trajectory: 40,
            dedup: false, // duplicates exercise the shared-leaf batch path
        }
        .sample_plan(&nc, &mut rng);
        let flat = BatchedExecutor {
            seed: 7,
            parallel: true,
        }
        .execute(&backend, &nc, &plan);
        for parallel in [false, true] {
            let tree = TreeExecutor { seed: 7, parallel }.execute(&backend, &nc, &plan);
            assert_eq!(tree.trajectories.len(), flat.trajectories.len());
            for (a, b) in tree.trajectories.iter().zip(&flat.trajectories) {
                assert_eq!(a.meta.choices, b.meta.choices);
                assert_eq!(a.meta.traj_id, b.meta.traj_id);
                assert_eq!(
                    a.meta.realized_prob.to_bits(),
                    b.meta.realized_prob.to_bits(),
                    "realized probability must be bitwise identical"
                );
                assert_eq!(a.shots, b.shots, "shots must be bitwise identical");
            }
        }
    }

    /// [`MpsBackend`](crate::backend::MpsBackend) sampling through the
    /// sequential reference sweep
    /// ([`ptsbe_tensornet::sample::sample_shots_cached`]) instead of the
    /// lockstep sampler — the oracle the batched tree walk is pinned to.
    struct CachedSweep(crate::backend::MpsBackend<f64>);

    impl Backend for CachedSweep {
        type State = ptsbe_tensornet::Mps<f64>;

        fn n_qubits(&self) -> usize {
            self.0.n_qubits()
        }
        fn measured_qubits(&self) -> &[usize] {
            self.0.measured_qubits()
        }
        fn n_segments(&self) -> usize {
            self.0.n_segments()
        }
        fn initial_state(&self) -> Self::State {
            self.0.initial_state()
        }
        fn advance(
            &self,
            state: &mut Self::State,
            segments: std::ops::Range<usize>,
            choices: &[usize],
        ) -> f64 {
            self.0.advance(state, segments, choices)
        }
        fn fork(&self, state: &Self::State) -> Self::State {
            self.0.fork(state)
        }
        fn sample<R: ptsbe_rng::Rng + ?Sized>(
            &self,
            state: &mut Self::State,
            shots: usize,
            rng: &mut R,
        ) -> Vec<u128> {
            ptsbe_tensornet::sample::sample_shots_cached(state, shots, rng)
                .into_iter()
                .map(|full| ptsbe_rng::bits::extract_bits(full, self.measured_qubits()))
                .collect()
        }
        fn sample_batch<R: ptsbe_rng::Rng + ?Sized>(
            &self,
            state: &mut Self::State,
            requests: &mut [(usize, &mut R)],
        ) -> Vec<Vec<u128>> {
            // The sweep only canonicalizes, which changes no later draw.
            requests
                .iter_mut()
                .map(|(shots, rng)| self.sample(state, *shots, *rng))
                .collect()
        }
    }

    #[test]
    fn mps_tree_batched_bitwise_matches_sequential_flat() {
        // Lockstep sampling over the tree walk (shared leaf states, one
        // sample_batch call per leaf) must reproduce — bitwise — a flat
        // execution with the sequential cached sweep.
        use crate::backend::{MpsBackend, MpsSampleMode};
        use ptsbe_tensornet::MpsConfig;
        let nc = noisy_bell(0.15);
        let mut rng = PhiloxRng::new(168, 0);
        let plan = ProbabilisticPts {
            n_samples: 60,
            shots_per_trajectory: 40,
            dedup: false, // duplicates exercise the shared-leaf batch path
        }
        .sample_plan(&nc, &mut rng);
        let batched =
            MpsBackend::<f64>::new(&nc, MpsConfig::exact(), MpsSampleMode::Batched).unwrap();
        let sequential = CachedSweep(
            MpsBackend::<f64>::new(&nc, MpsConfig::exact(), MpsSampleMode::Batched).unwrap(),
        );
        let flat = BatchedExecutor {
            seed: 7,
            parallel: false,
        }
        .execute(&sequential, &nc, &plan);
        for parallel in [false, true] {
            let tree = TreeExecutor { seed: 7, parallel }.execute(&batched, &nc, &plan);
            assert_eq!(tree.trajectories.len(), flat.trajectories.len());
            for (a, b) in tree.trajectories.iter().zip(&flat.trajectories) {
                assert_eq!(a.meta.choices, b.meta.choices);
                assert_eq!(
                    a.meta.realized_prob.to_bits(),
                    b.meta.realized_prob.to_bits(),
                    "realized probability must be bitwise identical"
                );
                assert_eq!(a.shots, b.shots, "shots must be bitwise identical");
            }
        }
    }

    #[test]
    fn tree_executor_saves_prep_ops_on_shared_prefixes() {
        let nc = noisy_bell(0.05);
        let mut rng = PhiloxRng::new(164, 0);
        let plan = ProbabilisticPts {
            n_samples: 50,
            shots_per_trajectory: 10,
            dedup: true,
        }
        .sample_plan(&nc, &mut rng);
        let tree = crate::plan::PtsPlanTree::from_plan(&plan);
        // Low noise -> many trajectories share the identity prefix, so the
        // trie must perform strictly fewer site applications than flat.
        assert!(plan.n_trajectories() > 1);
        assert!(
            tree.n_edges() < tree.flat_prep_ops(),
            "expected sharing: {} edges vs {} flat ops",
            tree.n_edges(),
            tree.flat_prep_ops()
        );
        assert!(tree.prep_ops_saved() > 0);
    }

    #[test]
    fn tree_executor_handles_very_deep_tries() {
        // Thousands of noise sites make the shared-prefix chain thousands
        // of nodes long; the iterative walk must not be bounded by call
        // stack depth.
        let mut c = Circuit::new(2);
        for _ in 0..4000 {
            c.x(0);
        }
        c.measure_all();
        let nc = NoiseModel::new()
            .with_default_1q(channels::depolarizing(0.5))
            .apply(&c);
        assert!(nc.n_sites() >= 4000);
        let backend = SvBackend::<f64>::new(&nc, SamplingStrategy::Auto).unwrap();
        let ident = nc.identity_assignment().unwrap();
        let mut late_error = ident.clone();
        *late_error.last_mut().unwrap() = 1;
        let plan = crate::plan::PtsPlan {
            trajectories: vec![
                crate::plan::PlannedTrajectory {
                    choices: ident,
                    shots: 5,
                },
                crate::plan::PlannedTrajectory {
                    choices: late_error,
                    shots: 5,
                },
            ],
        };
        let flat = BatchedExecutor {
            seed: 3,
            parallel: false,
        }
        .execute(&backend, &nc, &plan);
        for parallel in [false, true] {
            let tree = TreeExecutor { seed: 3, parallel }.execute(&backend, &nc, &plan);
            for (a, b) in tree.trajectories.iter().zip(&flat.trajectories) {
                assert_eq!(a.shots, b.shots);
            }
        }
    }

    #[test]
    fn batch_major_bitwise_matches_flat_for_any_lane_count() {
        let nc = noisy_bell(0.15);
        let backend = SvBackend::<f64>::new(&nc, SamplingStrategy::Auto).unwrap();
        let mut rng = PhiloxRng::new(165, 0);
        let plan = ProbabilisticPts {
            n_samples: 37, // not a multiple of any lane width: ragged tail
            shots_per_trajectory: 25,
            dedup: false,
        }
        .sample_plan(&nc, &mut rng);
        let flat = BatchedExecutor {
            seed: 11,
            parallel: false,
        }
        .execute(&backend, &nc, &plan);
        for lanes in [0usize, 1, 3, 16, 64] {
            for parallel in [false, true] {
                let batched = BatchMajorExecutor {
                    seed: 11,
                    parallel,
                    lanes,
                    ..Default::default()
                }
                .execute(&backend, &nc, &plan);
                assert_eq!(batched.trajectories.len(), flat.trajectories.len());
                for (a, b) in batched.trajectories.iter().zip(&flat.trajectories) {
                    assert_eq!(a.meta.choices, b.meta.choices, "lanes={lanes}");
                    assert_eq!(
                        a.meta.traj_id, b.meta.traj_id,
                        "lanes={lanes} par={parallel}"
                    );
                    assert_eq!(
                        a.meta.realized_prob.to_bits(),
                        b.meta.realized_prob.to_bits(),
                        "lanes={lanes}: realized probability must be bitwise identical"
                    );
                    assert_eq!(a.shots, b.shots, "lanes={lanes}: shots must match bitwise");
                }
            }
        }
    }

    /// Sites on three qubits: the dense table lowers them and `advance`
    /// applies them through `apply_kq` — a mixture (identity branch
    /// skipped) and a general channel, bitwise across flat and tree. (The
    /// lane kernels' per-lane fallback for them is tested against
    /// `exec::prepare` in `ptsbe_statevector::batch`.)
    #[test]
    fn three_qubit_sites_bitwise_across_flat_and_tree() {
        use ptsbe_circuit::KrausChannel;
        use ptsbe_math::{gates, Matrix};
        let kron3 = |a: &Matrix<f64>, b: &Matrix<f64>, c: &Matrix<f64>| a.kron(b).kron(c);
        let (i2, x, z, h) = (Matrix::identity(2), gates::x(), gates::z(), gates::h());
        let mixture = KrausChannel::new(
            "mix3",
            vec![
                Matrix::identity(8).scaled_real(0.7f64.sqrt()),
                kron3(&x, &x, &x).scaled_real(0.2f64.sqrt()),
                kron3(&z, &h, &i2).scaled_real(0.1f64.sqrt()),
            ],
        )
        .unwrap();
        assert!(mixture.is_unitary_mixture());
        let damping = channels::amplitude_damping(0.3);
        let general = KrausChannel::new(
            "damp3",
            damping
                .ops()
                .iter()
                .map(|k| kron3(&i2, k, &i2))
                .collect::<Vec<_>>(),
        )
        .unwrap();
        assert!(!general.is_unitary_mixture());
        let mut c = Circuit::new(4);
        c.h(0).cx(0, 1).h(2).cx(2, 3);
        c.noise(std::sync::Arc::new(mixture), &[2, 0, 3]);
        c.t(1).cx(1, 2);
        c.noise(std::sync::Arc::new(general), &[1, 3, 0]);
        c.h(3).measure_all();
        let nc = NoiseModel::new()
            .with_default_2q(channels::depolarizing2(0.1))
            .apply(&c);
        let backend = SvBackend::<f64>::new(&nc, SamplingStrategy::Auto).unwrap();
        let mut rng = PhiloxRng::new(166, 0);
        let plan = ProbabilisticPts {
            n_samples: 40,
            shots_per_trajectory: 20,
            dedup: false,
        }
        .sample_plan(&nc, &mut rng);
        let wide_branches: std::collections::HashSet<_> = plan
            .trajectories
            .iter()
            .map(|t| (t.choices[2], t.choices[4]))
            .collect();
        assert!(
            wide_branches.len() >= 4,
            "plan must diverge on the wide sites"
        );
        let flat = BatchedExecutor {
            seed: 12,
            parallel: false,
        }
        .execute(&backend, &nc, &plan);
        let tree = TreeExecutor {
            seed: 12,
            parallel: false,
        }
        .execute(&backend, &nc, &plan);
        assert_eq!(tree.trajectories.len(), flat.trajectories.len());
        for (a, b) in tree.trajectories.iter().zip(&flat.trajectories) {
            assert_eq!(a.meta.choices, b.meta.choices);
            assert_eq!(
                a.meta.realized_prob.to_bits(),
                b.meta.realized_prob.to_bits()
            );
            assert_eq!(a.shots, b.shots);
        }
    }

    #[test]
    fn batch_config_lane_geometry() {
        let cfg = BatchConfig::default();
        // 10-qubit f64 state: 2 planes × 1024 × 8 B = 16 KiB per lane →
        // 1 MiB budget fits 64, capped at 32 (already a multiple of 8).
        assert_eq!(cfg.lanes_for::<f64>(10), 32);
        // 16-qubit f64 state: 1 MiB per lane → floor of 2.
        assert_eq!(cfg.lanes_for::<f64>(16), 2);
        // 13-qubit f64: 128 KiB per lane → 8 lanes exactly.
        assert_eq!(cfg.lanes_for::<f64>(13), 8);
        // 12-qubit f64: 64 KiB per lane → 16, a multiple of 8.
        assert_eq!(cfg.lanes_for::<f64>(12), 16);
        // Mid-range counts round down to a multiple of 8: 93 KiB-ish
        // budget → raw 11 lanes becomes 8.
        let odd = BatchConfig {
            l2_target_bytes: 11 * 16 * 1024,
            ..Default::default()
        };
        assert_eq!(odd.lanes_for::<f64>(10), 8);
        // f32 halves the footprint and doubles the lanes.
        assert_eq!(cfg.lanes_for::<f64>(15), 2);
        assert_eq!(cfg.lanes_for::<f32>(15), 4);
    }

    #[test]
    fn batch_major_empty_plan() {
        let nc = noisy_bell(0.1);
        let backend = SvBackend::<f64>::new(&nc, SamplingStrategy::Auto).unwrap();
        let result =
            BatchMajorExecutor::default().execute(&backend, &nc, &crate::plan::PtsPlan::default());
        assert!(result.trajectories.is_empty());
    }

    #[test]
    #[should_panic(expected = "assignment length does not match site count")]
    fn batch_major_rejects_a_short_assignment() {
        let nc = noisy_bell(0.1);
        let backend = SvBackend::<f64>::new(&nc, SamplingStrategy::Auto).unwrap();
        let plan = crate::plan::PtsPlan {
            trajectories: vec![crate::plan::PlannedTrajectory {
                choices: vec![0; nc.n_sites() - 1],
                shots: 1,
            }],
        };
        BatchMajorExecutor::default().execute(&backend, &nc, &plan);
    }

    #[test]
    fn tree_executor_recycles_fork_buffers() {
        let nc = noisy_bell(0.3); // high noise -> many branch points
        let backend = SvBackend::<f64>::new(&nc, SamplingStrategy::Auto).unwrap();
        let mut rng = PhiloxRng::new(166, 0);
        let plan = ProbabilisticPts {
            n_samples: 80,
            shots_per_trajectory: 5,
            dedup: true,
        }
        .sample_plan(&nc, &mut rng);
        let tree = crate::plan::PtsPlanTree::from_plan(&plan);
        let pool = crate::pool::StatePool::new();
        let result = TreeExecutor {
            seed: 5,
            parallel: false,
        }
        .execute_tree_pooled(&backend, &nc, &plan, &tree, &pool);
        assert_eq!(result.trajectories.len(), plan.n_trajectories());
        let stats = pool.stats();
        // Every leaf releases its state, so after the first branch point
        // the walk forks from recycled buffers.
        assert!(stats.released >= plan.n_trajectories());
        assert!(
            stats.recycled > 0 && stats.recycled > stats.fresh,
            "steady-state forks must reuse buffers: {stats:?}"
        );
        // A warm pool serves the next run entirely from recycled buffers.
        let before = pool.stats();
        let again = TreeExecutor {
            seed: 5,
            parallel: false,
        }
        .execute_tree_pooled(&backend, &nc, &plan, &tree, &pool);
        let after = pool.stats();
        assert_eq!(after.fresh, before.fresh, "warm pool must not allocate");
        for (a, b) in again.trajectories.iter().zip(&result.trajectories) {
            assert_eq!(a.shots, b.shots, "pooling must not perturb results");
        }
    }

    /// A walk draws exactly as many states from the pool as it releases
    /// (root included), so a long-lived pool stops growing after its
    /// first walk.
    #[test]
    fn warm_tree_walks_leave_the_pool_size_constant() {
        use crate::backend::{MpsBackend, MpsSampleMode};
        use ptsbe_tensornet::MpsConfig;
        /// `pool.parked()` after 1 and after 20 walks on one pool.
        fn parked_after<B: Backend>(backend: &B, nc: &NoisyCircuit, plan: &PtsPlan) -> [usize; 2] {
            let tree = PtsPlanTree::from_plan(plan);
            let pool = StatePool::new();
            let ex = TreeExecutor {
                seed: 5,
                parallel: false,
            };
            ex.execute_tree_pooled(backend, nc, plan, &tree, &pool);
            let first = pool.parked();
            for _ in 1..20 {
                ex.execute_tree_pooled(backend, nc, plan, &tree, &pool);
            }
            [first, pool.parked()]
        }
        let nc = noisy_bell(0.3);
        let mut rng = PhiloxRng::new(169, 0);
        let plan = ProbabilisticPts {
            n_samples: 40,
            shots_per_trajectory: 5,
            dedup: false,
        }
        .sample_plan(&nc, &mut rng);
        let sv = SvBackend::<f64>::new(&nc, SamplingStrategy::Auto).unwrap();
        let [first, last] = parked_after(&sv, &nc, &plan);
        assert!(first > 0);
        assert_eq!(first, last, "sv pool grew across warm walks");
        let mps = MpsBackend::<f64>::new(&nc, MpsConfig::exact(), MpsSampleMode::Batched).unwrap();
        let [first, last] = parked_after(&mps, &nc, &plan);
        assert!(first > 0);
        assert_eq!(first, last, "mps pool grew across warm walks");
    }

    /// A pooled root is `|0…0⟩` whatever the recycled buffer held.
    #[test]
    fn pooled_root_is_bitwise_the_initial_state() {
        let nc = noisy_bell(0.3);
        let backend = SvBackend::<f64>::new(&nc, SamplingStrategy::Auto).unwrap();
        let pool = StatePool::new();
        let (dirty, _) = backend.prepare(&vec![1; nc.n_sites()]);
        backend.release(dirty, &pool);
        // A buffer of another shape must come back reshaped, too.
        backend.release(StateVector::zero_state(5), &pool);
        let fresh = backend.initial_state();
        for _ in 0..3 {
            let root = backend.initial_state_pooled(&pool);
            assert_eq!(root.amplitudes(), fresh.amplitudes());
        }
        assert_eq!(pool.stats().recycled, 2);
    }

    #[test]
    fn tree_executor_empty_plan() {
        let nc = noisy_bell(0.1);
        let backend = SvBackend::<f64>::new(&nc, SamplingStrategy::Auto).unwrap();
        let result =
            TreeExecutor::default().execute(&backend, &nc, &crate::plan::PtsPlan::default());
        assert!(result.trajectories.is_empty());
    }

    #[test]
    fn unique_fraction_sane() {
        let nc = noisy_bell(0.0);
        let backend = SvBackend::<f64>::new(&nc, SamplingStrategy::Auto).unwrap();
        let plan = crate::plan::PtsPlan {
            trajectories: vec![crate::plan::PlannedTrajectory {
                choices: nc.identity_assignment().unwrap(),
                shots: 1000,
            }],
        };
        let result = BatchedExecutor::default().execute(&backend, &nc, &plan);
        // Bell circuit: only two outcomes -> unique fraction = 2/1000.
        assert!((result.unique_fraction() - 0.002).abs() < 1e-9);
    }
}
