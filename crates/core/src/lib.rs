//! Pre-Trajectory Sampling with Batched Execution (PTSBE) — the paper's
//! contribution.
//!
//! Conventional trajectory simulation (Algorithm 1 of the paper, rebuilt
//! in [`baseline`]) interleaves gate application with per-step noise
//! sampling: every shot pays a full O(2ⁿ) state preparation, and the
//! stochastic decisions disappear into the run. PTSBE splits the work:
//!
//! 1. **PTS** ([`pts`]): all stochastic decisions — which Kraus branch
//!    fires at which noise site — are drawn *before* any quantum state
//!    exists, by a pluggable sampling algorithm operating on the
//!    [`ptsbe_circuit::NoisyCircuit`] site list alone. Algorithm 2 of the
//!    paper is [`pts::ProbabilisticPts`]; proportional, probability-band,
//!    top-k enumeration, exhaustive, reweighted/twirled and correlated
//!    samplers implement §3.1's "straightforward expansions".
//! 2. **BE** ([`be`]): each planned trajectory is prepared *once* on a
//!    [`backend::Backend`] (statevector or MPS) and all of its `m_α`
//!    shots are drawn from the prepared state in bulk — the step whose
//!    amortization produces the paper's orders-of-magnitude speedups.
//!    Trajectories fan out embarrassingly parallel over rayon (the CPU
//!    stand-in for the paper's multi-GPU distribution), each on its own
//!    counter-based RNG stream.
//!
//! Batched execution goes one step beyond the paper with a *segmented*
//! backend contract: a compiled circuit with `S` noise sites exposes
//! `S + 1` segments (each ending at a site, plus the gate tail), and a
//! backend advances a state through any contiguous segment span —
//! `initial_state` / `advance` / `fork` in [`backend::Backend`]. The
//! [`be::TreeExecutor`] exploits this by folding a plan into a
//! [`plan::PtsPlanTree`] (a trie over Kraus assignments) and preparing
//! each shared prefix once, turning `O(trajectories × circuit_len)` gate
//! work into `O(trie_edges)` while staying bitwise identical to the flat
//! [`be::BatchedExecutor`]. Within each segment, backend compilation
//! additionally runs the gate-fusion pass (`ptsbe_circuit::fusion`),
//! collapsing adjacent-gate runs into classified ≤2-qubit kernels that
//! every trajectory — and every executor — reuses; the per-compilation
//! [`ptsbe_circuit::FusionStats`] report is the compile-time counterpart
//! of the tree's `prep_ops_saved`.
//!
//! Every trajectory carries provenance metadata ([`assignment`]) — the
//! error locations, Kraus indices, Pauli labels and joint probabilities —
//! turning the simulator from a "statistical black box into a
//! programmable data collection engine" (paper §1). For general (non
//! unitary-mixture) channels, pre-sampling uses nominal proposal weights
//! and BE records the exact realized probability, so [`estimators`] can
//! de-bias any strategic sampling via importance weights.

pub mod assignment;
pub mod backend;
pub mod baseline;
pub mod be;
pub mod estimators;
pub mod plan;
pub mod pool;
pub mod pts;
pub mod stats;

pub use assignment::{ErrorEvent, TrajectoryMeta};
pub use backend::{Backend, MpsBackend, SvBackend, TruncationStats};
pub use baseline::{run_baseline_mps, run_baseline_sv};
pub use be::{
    BatchConfig, BatchMajorExecutor, BatchResult, BatchedExecutor, TrajectoryResult, TreeExecutor,
};
pub use plan::{LeafChunk, PlannedTrajectory, PtsPlan, PtsPlanTree, PtsTreeNode};
pub use pool::{PoolStats, StatePool};
pub use pts::{
    BandPts, ConstrainedPts, CorrelatedPts, ExhaustivePts, ProbabilisticPts, ProportionalPts,
    PtsSampler, ReweightedPts, TopKPts,
};
