//! Batch entry points over `B` trajectory states, one [`StateVector`] per
//! lane.
//!
//! [`StateBatch`] holds `B` independent states and [`advance_batch`]
//! runs [`crate::exec::advance`] on each lane in turn, so a lane is
//! bit-identical to a [`StateVector`] advanced on its own under the same
//! assignment — by construction, under every [`crate::KernelImpl`].
//!
//! Batched Execution's saving is preparing each unique trajectory once
//! and drawing all of its shots from that one state; the prefix-trie
//! walk in `ptsbe_core` does that one `StateVector` per edge, and no
//! executor calls this module. It is kept as a small, stable batch API
//! for callers that time a group of whole-program advances.

use crate::exec::{advance, Compiled};
use crate::state::StateVector;
use ptsbe_math::Scalar;
use std::ops::Range;

/// `B` pure states of `n` qubits, one [`StateVector`] per lane.
#[derive(Clone, Debug)]
pub struct StateBatch<T: Scalar> {
    lanes: Vec<StateVector<T>>,
}

impl<T: Scalar> StateBatch<T> {
    /// `B` copies of `|0…0⟩`.
    ///
    /// # Panics
    /// Panics on zero lanes or more than 48 qubits (same guard as
    /// [`StateVector::zero_state`]).
    pub fn zero_states(n_qubits: usize, n_lanes: usize) -> Self {
        assert!(n_lanes > 0, "a batch needs at least one lane");
        Self {
            lanes: vec![StateVector::zero_state(n_qubits); n_lanes],
        }
    }

    /// Number of qubits per lane.
    pub fn n_qubits(&self) -> usize {
        self.lanes[0].n_qubits()
    }

    /// Number of lanes (trajectory states).
    pub fn n_lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Lane `i`'s state.
    ///
    /// # Panics
    /// Panics when `i` is not a lane.
    pub fn lane(&self, i: usize) -> &StateVector<T> {
        &self.lanes[i]
    }
}

/// Advance all lanes of a batch through segments
/// `segments.start..segments.end`, lane `l` under assignment
/// `choices[l]`, and multiply the partial probability each lane realizes
/// ([`advance`]'s return value) into `realized[l]`.
///
/// # Panics
/// Panics when lane counts disagree, the segment range is out of bounds,
/// or an assignment does not cover the sites its lane fires.
pub fn advance_batch<T: Scalar>(
    compiled: &Compiled<T>,
    batch: &mut StateBatch<T>,
    segments: Range<usize>,
    choices: &[&[usize]],
    realized: &mut [f64],
) {
    assert_eq!(
        batch.n_qubits(),
        compiled.n_qubits(),
        "qubit count mismatch"
    );
    assert_eq!(choices.len(), batch.n_lanes(), "one assignment per lane");
    assert_eq!(realized.len(), batch.n_lanes(), "one weight per lane");
    for ((sv, c), r) in batch.lanes.iter_mut().zip(choices).zip(realized) {
        *r *= advance(compiled, sv, segments.clone(), c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{compile, prepare};
    use ptsbe_circuit::{channels, Circuit, NoiseModel};

    #[test]
    fn advance_batch_matches_scalar_prepare_bitwise() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).t(1).cx(1, 2).measure_all();
        let nc = NoiseModel::new()
            .with_default_1q(channels::depolarizing(0.1))
            .with_default_2q(channels::depolarizing2(0.1))
            .apply(&c);
        let compiled = compile::<f64>(&nc).unwrap();
        let ident = nc.identity_assignment().unwrap();
        let mut with_err = ident.clone();
        with_err[1] = 2;
        let mut with_err2 = ident.clone();
        *with_err2.last_mut().unwrap() = 1;
        let lanes = [ident.as_slice(), with_err.as_slice(), with_err2.as_slice()];
        let mut batch = StateBatch::zero_states(3, lanes.len());
        let mut realized = vec![1.0f64; lanes.len()];
        advance_batch(
            &compiled,
            &mut batch,
            0..compiled.n_segments(),
            &lanes,
            &mut realized,
        );
        for (lane, choice) in lanes.iter().enumerate() {
            let (sv, p) = prepare(&compiled, choice);
            assert_eq!(realized[lane].to_bits(), p.to_bits(), "lane {lane} weight");
            for (a, b) in batch.lane(lane).amplitudes().iter().zip(sv.amplitudes()) {
                assert_eq!(a.re.to_bits(), b.re.to_bits(), "lane {lane}");
                assert_eq!(a.im.to_bits(), b.im.to_bits(), "lane {lane}");
            }
        }
    }
}
