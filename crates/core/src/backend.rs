//! The backend abstraction Batched Execution runs on.
//!
//! Mirrors the paper's Fig. 1: the PTS plan is handed to "the CUDA-Q
//! simulator using either a statevector or tensor network backend". Both
//! backends expose the same interface, organized around *segments*.
//!
//! # The segmented backend contract
//!
//! A compiled circuit with `S` noise sites is split into `S + 1` segments:
//! segment `k < S` is the gate run ending with (and including) site `k`;
//! segment `S` is the trailing gate run after the last site. That shape —
//! the lowering walk, the lowered-program and site types, the refusals —
//! is defined once for every backend in [`ptsbe_circuit::lower`]; both
//! backends here compile through it and differ only in their op sets. A
//! backend must support:
//!
//! - [`Backend::initial_state`]: the `|0…0⟩` register;
//! - [`Backend::advance`]: apply a contiguous segment range to a state,
//!   resolving each fired site through the branch assignment and
//!   returning the span's partial probability (the product of its sites'
//!   branch probabilities, in op order);
//! - [`Backend::fork`]: duplicate an in-flight state at a branch point.
//!
//! Two invariants make prefix-shared execution *bitwise* equivalent to
//! flat execution: advancing `0..n_segments` in one span applies exactly
//! the op sequence of a flat preparation, and advancing the same ops in
//! consecutive spans applies them in the same order (partial
//! probabilities multiply left-to-right, preserving the flat product's
//! association). [`Backend::prepare`] is provided as the degenerate
//! single-span path over this API.

use crate::pool::StatePool;
use ptsbe_circuit::{FusionStats, NoisyCircuit};
use ptsbe_math::Scalar;
use ptsbe_rng::Rng;
use ptsbe_statevector::{exec as sv_exec, sampling as sv_sampling, SamplingStrategy, StateVector};
use ptsbe_tensornet::{advance_mps, compile_mps_with, Mps, MpsCompiled, MpsConfig};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Truncation observability snapshot of a prepared state — what lossy
/// backends report through [`Backend::truncation_stats`] and what rides
/// along in trajectory metadata, route decisions, and service metrics.
/// Exact backends (statevector) report `None`; an MPS state reports its
/// accumulated fidelity loss and bond-ceiling pressure.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TruncationStats {
    /// Cumulative truncation error `1 − Π(1 − ε_i)` (see
    /// [`Mps::truncation_error`]).
    pub trunc_error: f64,
    /// Largest bond dimension the state has needed.
    pub max_bond_reached: usize,
    /// True when the state's configured cumulative truncation budget was
    /// blown — its samples no longer meet the requested fidelity.
    pub budget_exhausted: bool,
}

/// A trajectory-capable simulation backend (see the module docs for the
/// segmented contract).
pub trait Backend: Sync {
    /// The prepared quantum state.
    type State: Send;

    /// Number of qubits.
    fn n_qubits(&self) -> usize;

    /// Qubits measured by the circuit, in record order.
    fn measured_qubits(&self) -> &[usize];

    /// Number of segments (`n_sites + 1`; the final segment fires no
    /// site).
    fn n_segments(&self) -> usize;

    /// The `|0…0⟩` state all trajectories start from.
    fn initial_state(&self) -> Self::State;

    /// Advance `state` through `segments`, resolving fired noise sites
    /// via `choices[site_id]`; returns the span's partial trajectory
    /// probability. `choices` may be a prefix of a full assignment as
    /// long as it covers every site the span fires.
    fn advance(&self, state: &mut Self::State, segments: Range<usize>, choices: &[usize]) -> f64;

    /// Duplicate a state at a branch point of the trajectory tree.
    fn fork(&self, state: &Self::State) -> Self::State;

    /// Copy `src` into `dst`, reusing `dst`'s buffers where its
    /// allocations allow. `dst` may hold arbitrary stale contents; after
    /// the call it must be indistinguishable — bitwise — from
    /// [`Backend::fork`]`(src)`. The default discards `dst`'s buffers and
    /// clones (today's semantics); backends override it to make pooled
    /// forking allocation-free.
    fn fork_into(&self, src: &Self::State, dst: &mut Self::State) {
        *dst = self.fork(src);
    }

    /// Fork `state`, drawing the destination's buffers from `pool` when
    /// it has a released state to recycle (falls back to a plain
    /// allocating [`Backend::fork`] on an empty pool).
    fn fork_pooled(&self, state: &Self::State, pool: &StatePool<Self::State>) -> Self::State {
        match pool.acquire() {
            Some(mut dst) => {
                self.fork_into(state, &mut dst);
                dst
            }
            None => self.fork(state),
        }
    }

    /// [`Backend::initial_state`] on a buffer recycled from `pool` when
    /// one is parked — the root of a pooled tree walk. Every walk
    /// releases one state per leaf, so a root allocated outside the pool
    /// would park one more state per walk, forever. Bitwise
    /// indistinguishable from `initial_state()`; the default goes through
    /// [`Backend::fork_into`], backends whose `|0…0⟩` is as large as any
    /// other state override it to reset in place.
    fn initial_state_pooled(&self, pool: &StatePool<Self::State>) -> Self::State {
        match pool.acquire() {
            Some(mut dst) => {
                self.fork_into(&self.initial_state(), &mut dst);
                dst
            }
            None => self.initial_state(),
        }
    }

    /// Return a no-longer-needed state to `pool` so its buffers can serve
    /// a later [`Backend::fork_pooled`]. Backends whose states must not
    /// outlive a trajectory can override this to drop instead.
    fn release(&self, state: Self::State, pool: &StatePool<Self::State>) {
        pool.release(state);
    }

    /// Whether sampling mutates the state it samples from in a way a
    /// later draw could see. Nothing in the library reads it: every
    /// [`Backend::sample_batch`] must already equal one-request calls on
    /// fresh copies. Defaults to `false`, which both backends here are
    /// (the statevector sampler only reads amplitudes; the MPS sampler's
    /// one move, center → site 0, is an idempotent gauge move that never
    /// truncates).
    fn sample_mutates_state(&self) -> bool {
        false
    }

    /// Execute the circuit under a fixed branch assignment. Returns the
    /// prepared state and the realized joint trajectory probability
    /// `p_α`. The default is the degenerate single-span path over
    /// [`Backend::advance`].
    ///
    /// # Panics
    /// Panics when the assignment does not cover the site count exactly
    /// (`advance` alone accepts a longer-than-needed prefix; a full
    /// preparation must not).
    fn prepare(&self, choices: &[usize]) -> (Self::State, f64) {
        assert_eq!(
            choices.len(),
            self.n_segments() - 1,
            "assignment length does not match site count"
        );
        let mut state = self.initial_state();
        let realized = self.advance(&mut state, 0..self.n_segments(), choices);
        (state, realized)
    }

    /// Bulk-sample `shots` measurement records (bit `t` = measured qubit
    /// `t`): one request of [`Backend::sample_batch`].
    fn sample<R: Rng + ?Sized>(
        &self,
        state: &mut Self::State,
        shots: usize,
        rng: &mut R,
    ) -> Vec<u128> {
        self.sample_batch(state, &mut [(shots, rng)])
            .pop()
            .expect("one request in, one record vector out")
    }

    /// Sample several shot requests — each with its own RNG stream —
    /// from one prepared state, returning one record vector per request
    /// in order (bit `t` = measured qubit `t`): the one sampling call
    /// every executor makes, once per prepared state, for all the
    /// trajectories that end on it. `k` requests on one state must give,
    /// bit for bit, what `k` one-request calls on freshly prepared copies
    /// of it give; backends share per-state sampling work across
    /// requests.
    fn sample_batch<R: Rng + ?Sized>(
        &self,
        state: &mut Self::State,
        requests: &mut [(usize, &mut R)],
    ) -> Vec<Vec<u128>>;

    /// Truncation observability for a prepared state: `None` for exact
    /// backends, `Some` for lossy ones (MPS). Executors attach this to
    /// each emitted trajectory's metadata.
    fn truncation_stats(&self, _state: &Self::State) -> Option<TruncationStats> {
        None
    }
}

// ---------------------------------------------------------------------------

/// Statevector backend (the paper's `nvidia` target).
pub struct SvBackend<T: Scalar> {
    compiled: sv_exec::Compiled<T>,
    /// Bulk shot buffers handed back through [`SvBackend::recycle_shots`],
    /// reused last in, first out by the counted sampler.
    shots: StatePool<Vec<u128>>,
}

impl<T: Scalar> SvBackend<T> {
    /// Compile a noisy circuit for repeated trajectory execution (gate
    /// fusion on — the default every executor shares). `strategy` has
    /// one value, [`SamplingStrategy::Auto`].
    ///
    /// # Errors
    /// Propagates [`sv_exec::ExecError`] (mid-circuit measurement, reset).
    pub fn new(nc: &NoisyCircuit, strategy: SamplingStrategy) -> Result<Self, sv_exec::ExecError> {
        Self::new_with_fusion(nc, strategy, true)
    }

    /// Compile with gate fusion explicitly on or off. The unfused path is
    /// the reference pipeline `tests/fusion_equivalence.rs` compares
    /// against; production callers want [`SvBackend::new`].
    ///
    /// # Errors
    /// Propagates [`sv_exec::ExecError`] (mid-circuit measurement, reset).
    pub fn new_with_fusion(
        nc: &NoisyCircuit,
        _strategy: SamplingStrategy,
        fuse: bool,
    ) -> Result<Self, sv_exec::ExecError> {
        Ok(Self {
            compiled: sv_exec::compile_with(nc, fuse)?,
            shots: StatePool::new(),
        })
    }

    /// The compilation's fusion report (ops before/after, kernel-class
    /// histogram) — the compile-time counterpart of the plan tree's
    /// `prep_ops_saved`.
    pub fn fusion_stats(&self) -> FusionStats {
        self.compiled.fusion_stats()
    }

    /// The lowered circuit, for callers that drive the statevector
    /// crate's own entry points (`exec::prepare`, `exec::advance`,
    /// [`ptsbe_statevector::batch::advance_batch`]) over it directly.
    pub fn compiled(&self) -> &sv_exec::Compiled<T> {
        &self.compiled
    }

    /// Hand back a record's shot buffer once it has been written, so a
    /// later counted draw fills memory that is already faulted in
    /// instead of a fresh 8 MB per 500 k-shot trajectory. Only a record
    /// of the counted regime is parked — every such draw takes a parked
    /// buffer back, so no more are parked than were live at once — and
    /// only while fewer than `keep` are; anything else is dropped.
    pub fn recycle_shots(&self, shots: Vec<u128>, keep: usize) {
        let n_amps = 1usize << self.compiled.n_qubits();
        if SamplingStrategy::Auto.is_counted(shots.len(), n_amps) {
            self.shots.release_up_to(shots, keep);
        }
    }

    /// An empty buffer with room for `m` shots, for a counted draw: the
    /// last one parked when it is large enough (a smaller one is
    /// dropped, not grown), else a fresh one.
    fn shot_buffer(&self, m: usize) -> Vec<u128> {
        match self.shots.acquire() {
            Some(mut buf) if buf.capacity() >= m => {
                buf.clear();
                buf
            }
            _ => Vec::with_capacity(m),
        }
    }

    /// Shot buffers parked for reuse.
    pub fn parked_shot_buffers(&self) -> usize {
        self.shots.parked()
    }
}

impl<T: Scalar> Backend for SvBackend<T> {
    type State = StateVector<T>;

    fn n_qubits(&self) -> usize {
        self.compiled.n_qubits()
    }

    fn measured_qubits(&self) -> &[usize] {
        self.compiled.measured_qubits()
    }

    fn n_segments(&self) -> usize {
        self.compiled.n_segments()
    }

    fn initial_state(&self) -> Self::State {
        StateVector::zero_state(self.compiled.n_qubits())
    }

    fn advance(&self, state: &mut Self::State, segments: Range<usize>, choices: &[usize]) -> f64 {
        sv_exec::advance(&self.compiled, state, segments, choices)
    }

    fn fork(&self, state: &Self::State) -> Self::State {
        state.clone()
    }

    fn fork_into(&self, src: &Self::State, dst: &mut Self::State) {
        // Overwrites every amplitude in place — recycled buffers cannot
        // leak stale values.
        dst.copy_from(src);
    }

    fn initial_state_pooled(&self, pool: &StatePool<Self::State>) -> Self::State {
        match pool.acquire() {
            Some(mut dst) => {
                // Zero-fills the recycled allocation in place instead of
                // building a second 2^n buffer to copy from.
                dst.reinit(self.compiled.n_qubits());
                dst.amplitudes_mut()[0] = ptsbe_math::Complex::one();
                dst
            }
            None => self.initial_state(),
        }
    }

    fn sample_batch<R: Rng + ?Sized>(
        &self,
        state: &mut Self::State,
        requests: &mut [(usize, &mut R)],
    ) -> Vec<Vec<u128>> {
        // Every shot-by-shot request on this state resolves against one
        // cumulative distribution, summed once for all of them.
        let measured = self.compiled.measured_qubits();
        sv_sampling::sample_words_batch_with(
            state,
            requests,
            |index| ptsbe_rng::bits::extract_bits(u128::from(index), measured),
            |m| self.shot_buffer(m),
        )
    }
}

// ---------------------------------------------------------------------------

/// MPS sampling mode (paper Fig. 5 discussion): a single value, the
/// lockstep sampler. The sequential reference sweep it is pinned against
/// is [`ptsbe_tensornet::sample::sample_shots_cached`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MpsSampleMode {
    /// Canonicalize once, then advance every shot of every trajectory
    /// sharing a prepared state together, one site at a time: shots that
    /// share a bit prefix share its conditional contraction, and one pass
    /// over each site tensor serves every live prefix — the paper's
    /// non-degenerate batched sampling.
    #[default]
    Batched,
}

/// Tensor-network backend (the paper's `tensornet` target).
pub struct MpsBackend<T: Scalar> {
    compiled: MpsCompiled<T>,
    config: MpsConfig,
}

impl<T: Scalar> MpsBackend<T> {
    /// Compile a noisy circuit for MPS execution (gate fusion on — the
    /// default every executor shares). `mode` has one value,
    /// [`MpsSampleMode::Batched`].
    ///
    /// # Errors
    /// Propagates [`ptsbe_tensornet::MpsError`].
    pub fn new(
        nc: &NoisyCircuit,
        config: MpsConfig,
        mode: MpsSampleMode,
    ) -> Result<Self, ptsbe_tensornet::MpsError> {
        Self::new_with_fusion(nc, config, mode, true)
    }

    /// Compile with gate fusion explicitly on or off (the unfused path is
    /// the reference pipeline for the fusion equivalence suite).
    ///
    /// # Errors
    /// Propagates [`ptsbe_tensornet::MpsError`].
    pub fn new_with_fusion(
        nc: &NoisyCircuit,
        config: MpsConfig,
        _mode: MpsSampleMode,
        fuse: bool,
    ) -> Result<Self, ptsbe_tensornet::MpsError> {
        Ok(Self {
            compiled: compile_mps_with(nc, fuse)?,
            config,
        })
    }

    /// The compilation's fusion report (ops before/after, kernel-class
    /// histogram).
    pub fn fusion_stats(&self) -> FusionStats {
        self.compiled.fusion_stats()
    }

    /// The truncation configuration every state of this backend carries.
    pub fn config(&self) -> &MpsConfig {
        &self.config
    }
}

impl<T: Scalar> Backend for MpsBackend<T> {
    type State = Mps<T>;

    fn n_qubits(&self) -> usize {
        self.compiled.n_qubits()
    }

    fn measured_qubits(&self) -> &[usize] {
        self.compiled.measured_qubits()
    }

    fn n_segments(&self) -> usize {
        self.compiled.n_segments()
    }

    fn initial_state(&self) -> Self::State {
        Mps::zero_state(self.compiled.n_qubits(), self.config)
    }

    fn advance(&self, state: &mut Self::State, segments: Range<usize>, choices: &[usize]) -> f64 {
        advance_mps(&self.compiled, state, segments, choices)
    }

    fn fork(&self, state: &Self::State) -> Self::State {
        state.clone()
    }

    fn fork_into(&self, src: &Self::State, dst: &mut Self::State) {
        // Recycles the destination's site-tensor buffers; every entry is
        // overwritten, so stale amplitudes cannot survive.
        dst.copy_from(src);
    }

    fn sample_batch<R: Rng + ?Sized>(
        &self,
        state: &mut Self::State,
        requests: &mut [(usize, &mut R)],
    ) -> Vec<Vec<u128>> {
        // One lockstep sweep amortizes the conditional contractions
        // across every shot of every trajectory ending on this state.
        let raw = ptsbe_tensornet::sample::sample_shots_batched(state, requests);
        let measured = self.compiled.measured_qubits();
        raw.into_iter()
            .map(|shots| {
                shots
                    .into_iter()
                    .map(|full| ptsbe_rng::bits::extract_bits(full, measured))
                    .collect()
            })
            .collect()
    }

    fn truncation_stats(&self, state: &Self::State) -> Option<TruncationStats> {
        Some(TruncationStats {
            trunc_error: state.truncation_error(),
            max_bond_reached: state.max_bond_reached(),
            budget_exhausted: state.budget_exhausted(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptsbe_circuit::{channels, Circuit, NoiseModel};
    use ptsbe_rng::PhiloxRng;

    fn noisy_ghz(p: f64) -> NoisyCircuit {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2).measure_all();
        NoiseModel::new()
            .with_default_2q(channels::depolarizing(p))
            .apply(&c)
    }

    #[test]
    fn sv_and_mps_agree_per_trajectory() {
        let nc = noisy_ghz(0.1);
        let sv = SvBackend::<f64>::new(&nc, SamplingStrategy::Auto).unwrap();
        let mps = MpsBackend::<f64>::new(
            &nc,
            MpsConfig::exact().with_max_bond(16),
            MpsSampleMode::default(),
        )
        .unwrap();
        assert_eq!(sv.n_qubits(), 3);
        assert_eq!(sv.measured_qubits(), mps.measured_qubits());

        let mut choices = nc.identity_assignment().unwrap();
        choices[1] = 1;
        let (mut s1, p1) = sv.prepare(&choices);
        let (mut s2, p2) = mps.prepare(&choices);
        assert!((p1 - p2).abs() < 1e-10);

        let mut rng = PhiloxRng::new(150, 0);
        let a = sv.sample(&mut s1, 20_000, &mut rng);
        let b = mps.sample(&mut s2, 20_000, &mut rng);
        let count = |v: &[u128], s: u128| v.iter().filter(|&&x| x == s).count() as f64 / 20_000.0;
        for outcome in 0..8u128 {
            assert!(
                (count(&a, outcome) - count(&b, outcome)).abs() < 0.02,
                "outcome {outcome}"
            );
        }
    }

    #[test]
    fn only_counted_shot_buffers_are_parked_and_refilled() {
        let nc = noisy_ghz(0.1);
        let sv = SvBackend::<f64>::new(&nc, SamplingStrategy::Auto).unwrap();
        let (mut state, _) = sv.prepare(&nc.identity_assignment().unwrap());
        let draw = |state: &mut StateVector<f64>, m: usize| {
            let mut rng = PhiloxRng::new(152, 0);
            sv.sample_batch(state, &mut [(m, &mut rng)]).pop().unwrap()
        };
        // Three qubits: a draw is counted from 2·2³ = 16 shots.
        let first = draw(&mut state, 70_000);
        let want = first.clone();
        let at = first.as_ptr();
        sv.recycle_shots(first, 4);
        assert_eq!(sv.parked_shot_buffers(), 1);
        let again = draw(&mut state, 70_000);
        assert_eq!(again.as_ptr(), at, "the parked buffer is refilled");
        assert_eq!(again, want);
        assert_eq!(sv.parked_shot_buffers(), 0);
        // `sample`, one request of `sample_batch`, takes it back too.
        sv.recycle_shots(again, 4);
        assert_eq!(sv.parked_shot_buffers(), 1);
        let once = sv.sample(&mut state, 70_000, &mut PhiloxRng::new(152, 0));
        assert_eq!((once.as_ptr(), sv.parked_shot_buffers()), (at, 0));
        assert_eq!(once, want);
        // Too small for the next request: dropped, not grown.
        sv.recycle_shots(once, 4);
        let bigger = draw(&mut state, 90_000);
        assert_eq!((bigger.len(), sv.parked_shot_buffers()), (90_000, 0));
        // A shot-by-shot draw never takes a buffer back, so its record
        // is never parked, whatever its capacity.
        let mut cdf = draw(&mut state, 15);
        cdf.reserve(1 << 20);
        sv.recycle_shots(cdf, 4);
        assert_eq!(sv.parked_shot_buffers(), 0);
        // At most `keep` are parked.
        for _ in 0..3 {
            sv.recycle_shots(vec![0; 16], 2);
        }
        assert_eq!(sv.parked_shot_buffers(), 2);
    }

    /// Three qubits in superposition, measured as record bits
    /// `(q2, q0, q1)`, so the extraction reorders.
    fn skewed_subset() -> NoisyCircuit {
        let mut c = Circuit::new(3);
        c.h(0).ry(1, 0.7).cx(0, 2).ry(2, 0.3).measure(&[2, 0, 1]);
        NoiseModel::new()
            .with_default_2q(channels::depolarizing(0.1))
            .apply(&c)
    }

    /// The default `sample` is the sampler's own one-request draw with
    /// the measured bits extracted: below the counted threshold
    /// (2·2³ = 16 shots), at it and above it.
    #[test]
    fn sv_sample_matches_sample_shots_and_extraction() {
        let nc = skewed_subset();
        let sv = SvBackend::<f64>::new(&nc, SamplingStrategy::Auto).unwrap();
        let mut choices = nc.identity_assignment().unwrap();
        choices[0] = 2;
        let (mut state, _) = sv.prepare(&choices);
        for (seed, m) in [(0, 0), (1, 1), (2, 15), (3, 16), (4, 1_000)] {
            let mut rng = PhiloxRng::new(160, seed);
            let got = sv.sample(&mut state, m, &mut rng);
            let mut oracle = PhiloxRng::new(160, seed);
            let want: Vec<u128> =
                sv_sampling::sample_shots(&state, m, &mut oracle, SamplingStrategy::Auto)
                    .into_iter()
                    .map(|i| ptsbe_rng::bits::extract_bits(u128::from(i), sv.measured_qubits()))
                    .collect();
            assert_eq!(got, want, "{m} shots");
            assert_eq!(rng.next_u64(), oracle.next_u64(), "{m} shots: stream");
        }
    }

    #[test]
    fn mps_sample_matches_cached_sweep_and_extraction() {
        let nc = skewed_subset();
        let mps =
            MpsBackend::<f64>::new(&nc, MpsConfig::exact(), MpsSampleMode::default()).unwrap();
        let mut choices = nc.identity_assignment().unwrap();
        choices[0] = 3;
        for (seed, m) in [(0, 0), (1, 1), (2, 700)] {
            let (mut state, _) = mps.prepare(&choices);
            let (mut copy, _) = mps.prepare(&choices);
            let mut rng = PhiloxRng::new(161, seed);
            let got = mps.sample(&mut state, m, &mut rng);
            let mut oracle = PhiloxRng::new(161, seed);
            let want: Vec<u128> =
                ptsbe_tensornet::sample::sample_shots_cached(&mut copy, m, &mut oracle)
                    .into_iter()
                    .map(|full| ptsbe_rng::bits::extract_bits(full, mps.measured_qubits()))
                    .collect();
            assert_eq!(got, want, "{m} shots");
            assert_eq!(rng.next_u64(), oracle.next_u64(), "{m} shots: stream");
        }
    }

    #[test]
    fn measured_subset_extraction() {
        let mut c = Circuit::new(3);
        c.x(2).measure(&[2, 0]);
        let nc = NoiseModel::new().apply(&c);
        let sv = SvBackend::<f64>::new(&nc, SamplingStrategy::Auto).unwrap();
        let (mut st, _) = sv.prepare(&[]);
        let mut rng = PhiloxRng::new(151, 0);
        let shots = sv.sample(&mut st, 100, &mut rng);
        // Record bit 0 = qubit 2 (set), bit 1 = qubit 0 (clear).
        assert!(shots.iter().all(|&s| s == 0b01));
    }
}
