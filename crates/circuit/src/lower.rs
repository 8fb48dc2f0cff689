//! The segmented-program contract: one lowering walk, one definition of
//! a lowered program, one gate table per backend.
//!
//! Every fixed-assignment backend runs a [`NoisyCircuit`] the same way:
//! the op stream is split into *segments* delimited by noise sites —
//! segment `k < n_sites` is the gate run ending with (and including) site
//! `k`, the final segment is the gate tail after the last site — so the
//! trajectory-tree executor can replay only the suffix in which two
//! trajectories differ. [`lower`] is the one walk that builds that shape
//! (segment → fuse → classify); a backend supplies only its
//! [`GateTable`]: which ops its kernels run and which arities it takes.
//! What the walk guarantees, for every table:
//!
//! - gates after a measurement and resets are refused ([`LowerError`]);
//! - the fuser is flushed before every site, so no fused op spans one and
//!   Kraus branch points and Philox stream association are the same fused
//!   or not;
//! - site ids are dense in encounter order, so segment `k` fires site `k`;
//! - the site table ([`LoweredSite`]) is a function of the circuit alone.

use crate::fusion::{FusedOp, Fuser, FusionStats};
use crate::{ChannelKind, GateOp, NoiseSite, NoisyCircuit, NoisyOp};
use ptsbe_math::{Matrix, Scalar};
use ptsbe_rng::categorical::index_of;
use std::ops::Range;

/// What no fixed-assignment backend can lower.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LowerError {
    /// A gate or noise site after a measurement (batched execution needs
    /// terminal measurement so one prepared state serves every shot).
    MidCircuitMeasurement,
    /// Reset is stochastic and unsupported in fixed-assignment execution.
    UnsupportedReset,
}

impl std::fmt::Display for LowerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            LowerError::MidCircuitMeasurement => "batched execution requires terminal measurements",
            LowerError::UnsupportedReset => "reset is not supported in fixed-assignment execution",
        })
    }
}

impl std::error::Error for LowerError {}

/// One lowered noise site: matrices pre-converted, classification cached.
#[derive(Clone, Debug)]
pub struct LoweredSite<T: Scalar> {
    /// Site qubits, in channel-argument order.
    pub qubits: Vec<usize>,
    /// Unitary branches (for mixtures) or Kraus operators (general).
    pub mats: Vec<Matrix<T>>,
    /// True when branches are unitaries with state-independent probs.
    pub is_unitary_mixture: bool,
    /// Pre-sampling probabilities (exact for mixtures, nominal otherwise).
    pub probs: Vec<f64>,
    /// `skip_identity[k]`: branch `k` is an *exact* identity whose
    /// application is elided. Detected on the `f64` channel matrices, so
    /// every backend and precision skips the same branches and stays
    /// bitwise aligned. Only ever true for unitary mixtures — general
    /// channels renormalize, which is never a no-op. Under low-noise
    /// mixture workloads the identity branch dominates, so this removes
    /// the single most common dense apply from `advance`.
    pub skip_identity: Vec<bool>,
}

impl<T: Scalar> LoweredSite<T> {
    fn new(site: &NoiseSite) -> Self {
        let (mats, is_unitary_mixture) = match site.channel.kind() {
            ChannelKind::UnitaryMixture { unitaries, .. } => (unitaries.as_slice(), true),
            ChannelKind::General { .. } => (site.channel.ops(), false),
        };
        Self {
            qubits: site.qubits.clone(),
            mats: mats.iter().map(|m| Matrix::from_f64_matrix(m)).collect(),
            is_unitary_mixture,
            probs: site.channel.sampling_probs().to_vec(),
            skip_identity: site.channel.identity_skip_flags(),
        }
    }

    /// Whether branch `k`'s application can be elided entirely.
    #[inline]
    pub fn skips(&self, k: usize) -> bool {
        self.is_unitary_mixture && self.skip_identity[k]
    }
}

/// Who chooses the branch of a fired site: PTSBE fixes it ahead of time,
/// Algorithm 1 draws it at the site from a uniform variate. Each state
/// type has one apply-a-site function taking a `Pick`, so the two
/// algorithms cannot apply a chosen branch differently.
#[derive(Debug, Clone, Copy)]
pub enum Pick {
    /// The pre-sampled branch index.
    Fixed(usize),
    /// A uniform in `[0, 1)` to invert through the branch probabilities.
    Uniform(f64),
}

impl Pick {
    /// The branch index; `probs` (state-dependent for general channels)
    /// is evaluated only for a draw.
    #[inline]
    pub fn branch<P: AsRef<[f64]>>(self, probs: impl FnOnce() -> P) -> usize {
        match self {
            Pick::Fixed(k) => k,
            Pick::Uniform(r) => index_of(r, probs().as_ref()),
        }
    }
}

/// A [`NoisyCircuit`] lowered onto one backend's op set at precision `T`.
#[derive(Clone, Debug)]
pub struct Lowered<T: Scalar, Op> {
    n_qubits: usize,
    ops: Vec<Op>,
    sites: Vec<LoweredSite<T>>,
    measured: Vec<usize>,
    /// `seg_bounds[k]..seg_bounds[k + 1]` = op range of segment `k`.
    seg_bounds: Vec<usize>,
    fusion_stats: FusionStats,
}

impl<T: Scalar, Op> Lowered<T, Op> {
    /// Number of qubits.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }
    /// Lowered op stream.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }
    /// Lowered noise sites.
    pub fn sites(&self) -> &[LoweredSite<T>] {
        &self.sites
    }
    /// Mutable site access — exists for the unitary-mixture ablation
    /// benchmark (forcing the general-channel path); not a normal API.
    pub fn sites_mut(&mut self) -> &mut [LoweredSite<T>] {
        &mut self.sites
    }
    /// Terminal measurement qubits, record order.
    pub fn measured_qubits(&self) -> &[usize] {
        &self.measured
    }
    /// Number of segments (`n_sites + 1`; the last fires no site).
    pub fn n_segments(&self) -> usize {
        self.seg_bounds.len() - 1
    }
    /// The ops of a contiguous segment span — the one slice every
    /// `advance` flavour walks, so no two paths can disagree on op order.
    ///
    /// # Panics
    /// Panics when the range exceeds [`Lowered::n_segments`].
    pub fn segment_ops(&self, segments: Range<usize>) -> &[Op] {
        assert!(
            segments.end <= self.n_segments(),
            "segment range {segments:?} exceeds {} segments",
            self.n_segments()
        );
        &self.ops[self.seg_bounds[segments.start]..self.seg_bounds[segments.end]]
    }
    /// The fusion report (all-passthrough when lowered unfused).
    pub fn fusion_stats(&self) -> FusionStats {
        self.fusion_stats
    }
}

/// What a backend tells [`lower`] about itself.
pub trait GateTable<T: Scalar> {
    /// The backend's op set.
    type Op;
    /// The backend's error; [`lower`] raises [`LowerError`] through it.
    type Error: From<LowerError>;

    /// Lower one gate into `out`: [`OpStream::fuse`] each 1-/2-qubit
    /// piece the fuser may merge (only when `fuse`), [`OpStream::emit`]
    /// anything else — an unfused lowering, or a wider gate, which then
    /// acts as a fusion barrier.
    ///
    /// # Errors
    /// A gate the backend has no kernel for.
    fn gate(g: &GateOp, fuse: bool, out: &mut OpStream<Self::Op>) -> Result<(), Self::Error>;

    /// Lower one classified fused op.
    fn fused(op: &FusedOp) -> Self::Op;

    /// The op marking noise site `id`.
    ///
    /// # Errors
    /// A site arity the backend's kernels do not take.
    fn site(id: usize, qubits: &[usize]) -> Result<Self::Op, Self::Error>;
}

/// The op stream under construction, as a [`GateTable`] sees it.
pub struct OpStream<Op> {
    ops: Vec<Op>,
    fuser: Fuser,
    stats: FusionStats,
    fused: fn(&FusedOp) -> Op,
}

impl<Op> OpStream<Op> {
    /// Hand a 1-/2-qubit unitary (gate-argument basis) to the fuser.
    pub fn fuse(&mut self, m: &Matrix<f64>, qubits: &[usize]) {
        self.fuser.push(m, qubits);
    }

    /// Append `op` unchanged, after whatever the fuser holds.
    pub fn emit(&mut self, op: Op) {
        self.flush();
        self.stats.record_passthrough();
        self.ops.push(op);
    }

    fn flush(&mut self) {
        let (before, run) = self.fuser.finish();
        self.stats.record_run(before, &run);
        self.ops.extend(run.iter().map(self.fused));
    }
}

/// Lower `nc` onto the op set of `G`, fusing adjacent-gate runs within
/// each segment when `fuse` (the default every executor shares; unfused
/// is the reference pipeline the equivalence suites compare against).
///
/// # Errors
/// [`LowerError`] (as `G::Error`) for a gate or site after a measurement
/// and for resets; whatever `G` refuses.
pub fn lower<T: Scalar, G: GateTable<T>>(
    nc: &NoisyCircuit,
    fuse: bool,
) -> Result<Lowered<T, G::Op>, G::Error> {
    let mut out = OpStream {
        ops: Vec::with_capacity(nc.ops().len()),
        fuser: Fuser::new(),
        stats: FusionStats::default(),
        fused: G::fused,
    };
    let mut measured = Vec::new();
    let mut seen_measure = false;
    let mut seg_bounds = Vec::with_capacity(nc.n_sites() + 2);
    seg_bounds.push(0);
    for op in nc.ops() {
        match op {
            NoisyOp::Gate(_) | NoisyOp::Site(_) if seen_measure => {
                return Err(LowerError::MidCircuitMeasurement.into());
            }
            NoisyOp::Gate(g) => G::gate(g, fuse, &mut out)?,
            NoisyOp::Site(id) => {
                debug_assert_eq!(*id, seg_bounds.len() - 1, "site ids must be in op order");
                let site = G::site(*id, &nc.sites()[*id].qubits)?;
                out.flush();
                out.ops.push(site);
                seg_bounds.push(out.ops.len());
            }
            NoisyOp::Measure { qubits } => {
                seen_measure = true;
                measured.extend_from_slice(qubits);
            }
            NoisyOp::Reset { .. } => return Err(LowerError::UnsupportedReset.into()),
        }
    }
    out.flush();
    seg_bounds.push(out.ops.len());
    Ok(Lowered {
        n_qubits: nc.n_qubits(),
        ops: out.ops,
        sites: nc.sites().iter().map(LoweredSite::new).collect(),
        measured,
        seg_bounds,
        fusion_stats: out.stats,
    })
}
