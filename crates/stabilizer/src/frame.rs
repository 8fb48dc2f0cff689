//! Bit-packed Pauli-frame bulk sampler (Stim's reference-frame method,
//! paper §2.3: "a reference frame sampler to efficiently bulk sample noisy
//! simulation data at a rate of MHz").
//!
//! One exact tableau run produces the *reference* measurement record; then
//! every shot is represented as a Pauli frame — the Pauli difference
//! between that shot's state and the reference — packed 64 shots per
//! machine word. Clifford gates act on frames by XOR rules; Pauli noise
//! injects bit-masks; measurement outcomes are `reference ⊕ frame_x`.
//!
//! Exactness domain (same as Stim): when the noiseless reference circuit
//! has deterministic measurements, the sampled records are exact iid
//! samples of the noisy circuit. Intrinsically random reference
//! measurements are flagged via [`FrameResult::reference_was_random`] —
//! all shots then share the reference's coin flips (still valid for
//! detector-style differences).

use crate::convert::{lower, CliffordOp, PauliSite, StabOp, StabProgram};
use crate::pauli::Pauli;
use crate::tableau::Tableau;
use ptsbe_circuit::NoisyCircuit;
use ptsbe_rng::{categorical::index_of, mask::fill_bernoulli_words, Rng};

/// Frame-sampling failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The circuit contains a non-Clifford gate (named).
    NonClifford(&'static str),
    /// A noise channel is not a Pauli mixture.
    NonPauliChannel,
    /// Unsupported operation.
    Unsupported(&'static str),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::NonClifford(g) => write!(f, "non-Clifford gate '{g}'"),
            FrameError::NonPauliChannel => write!(f, "noise channel is not a Pauli mixture"),
            FrameError::Unsupported(w) => write!(f, "unsupported operation: {w}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Output of a bulk frame-sampling run.
#[derive(Debug, Clone)]
pub struct FrameResult {
    /// One record per shot; bit `t` = measured qubit `t` (record order).
    pub shots: Vec<u128>,
    /// Number of measured bits per record.
    pub n_bits: usize,
    /// True when any reference measurement was intrinsically random.
    pub reference_was_random: bool,
}

/// The bulk sampler: lowers a circuit once, then samples any number of
/// shots in 64-wide batches.
pub struct FrameSampler {
    program: StabProgram,
    /// `program.sites`' branch tables, in the form `sample` injects them.
    sites: Vec<FrameSite>,
    reference: Vec<bool>,
    reference_was_random: bool,
}

impl FrameSampler {
    /// Lower `nc` and run the noiseless reference simulation.
    pub fn new<R: Rng + ?Sized>(nc: &NoisyCircuit, rng: &mut R) -> Result<Self, FrameError> {
        let program = lower(nc)?;
        assert!(
            program.measured.len() <= 128,
            "frame sampler records are limited to 128 measured bits"
        );
        let mut tab = Tableau::zero_state(program.n_qubits);
        let mut reference = Vec::with_capacity(program.measured.len());
        let mut was_random = false;
        for op in &program.ops {
            match op {
                StabOp::Gate(g) => apply_tableau_gate(&mut tab, *g),
                StabOp::Site(_) => {} // reference is noiseless
                StabOp::Measure(qubits) => {
                    for &q in qubits {
                        let (outcome, random) = tab.measure(q, rng);
                        was_random |= random;
                        reference.push(outcome);
                    }
                }
            }
        }
        Ok(Self {
            sites: program.sites.iter().map(FrameSite::new).collect(),
            program,
            reference,
            reference_was_random: was_random,
        })
    }

    /// The lowered program (for inspection/benchmarks).
    pub fn program(&self) -> &StabProgram {
        &self.program
    }

    /// Whether any reference measurement was intrinsically random — the
    /// sampler's exactness gate: per-shot records are exact iid samples
    /// only when this is `false` (the service router refuses to route
    /// jobs here otherwise).
    pub fn reference_was_random(&self) -> bool {
        self.reference_was_random
    }

    /// Measured bits per record, in record order.
    pub fn n_measured(&self) -> usize {
        self.program.measured.len()
    }

    /// Sample `shots` measurement records.
    pub fn sample<R: Rng + ?Sized>(&self, shots: usize, rng: &mut R) -> FrameResult {
        let n = self.program.n_qubits;
        let nwords = shots.div_ceil(64);
        // Frame bits per qubit, packed across shots.
        let mut fx = vec![vec![0u64; nwords]; n];
        let mut fz = vec![vec![0u64; nwords]; n];
        let mut records = vec![0u128; shots];
        let mut bit_idx = 0usize;
        let mut scratch = vec![0u64; nwords];

        for op in &self.program.ops {
            match op {
                StabOp::Gate(g) => apply_frame_gate(&mut fx, &mut fz, *g),
                StabOp::Site(id) => {
                    let qubits = &self.program.sites[*id].qubits;
                    self.sites[*id].inject(qubits, &mut fx, &mut fz, shots, &mut scratch, rng);
                }
                StabOp::Measure(qubits) => {
                    for &q in qubits {
                        let ref_bit = self.reference[bit_idx];
                        // outcome(shot) = ref ⊕ fx[q](shot)
                        for (w, &word) in fx[q].iter().enumerate() {
                            let mut bits = word;
                            while bits != 0 {
                                let b = bits.trailing_zeros() as usize;
                                bits &= bits - 1;
                                let shot = w * 64 + b;
                                if shot < shots {
                                    records[shot] ^= 1u128 << bit_idx;
                                }
                            }
                        }
                        if ref_bit {
                            for rec in records.iter_mut() {
                                *rec ^= 1u128 << bit_idx;
                            }
                        }
                        // Collapse: randomize the Z frame on the measured
                        // qubit (Gidney, Stim §4.2) — one random word per
                        // 64 shots; only gates after this measurement can
                        // bring it into a later record bit.
                        fill_bernoulli_words(&mut scratch, shots, 0.5, rng);
                        for (dst, src) in fz[q].iter_mut().zip(&scratch) {
                            *dst ^= src;
                        }
                        bit_idx += 1;
                    }
                }
            }
        }
        FrameResult {
            shots: records,
            n_bits: self.program.measured.len(),
            reference_was_random: self.reference_was_random,
        }
    }
}

fn apply_tableau_gate(tab: &mut Tableau, g: CliffordOp) {
    match g {
        CliffordOp::H(q) => tab.h(q),
        CliffordOp::S(q) => tab.s(q),
        CliffordOp::Sdg(q) => tab.sdg(q),
        CliffordOp::Sx(q) => tab.sx(q),
        CliffordOp::Sxdg(q) => tab.sxdg(q),
        CliffordOp::Sy(q) => tab.sy(q),
        CliffordOp::Sydg(q) => tab.sydg(q),
        CliffordOp::X(q) => tab.x(q),
        CliffordOp::Y(q) => tab.y(q),
        CliffordOp::Z(q) => tab.z(q),
        CliffordOp::Cx(c, t) => tab.cx(c, t),
        CliffordOp::Cz(a, b) => tab.cz(a, b),
        CliffordOp::Swap(a, b) => tab.swap(a, b),
    }
}

/// Run a full per-shot tableau simulation of a lowered program — the slow
/// baseline E6 compares the frame sampler against.
pub fn tableau_sample_one<R: Rng + ?Sized>(program: &StabProgram, rng: &mut R) -> u128 {
    let mut tab = Tableau::zero_state(program.n_qubits);
    let mut record = 0u128;
    let mut bit = 0usize;
    for op in &program.ops {
        match op {
            StabOp::Gate(g) => apply_tableau_gate(&mut tab, *g),
            StabOp::Site(id) => {
                let site = &program.sites[*id];
                let r = rng.next_f64();
                let k = index_of(r, &site.probs);
                for (t, &q) in site.qubits.iter().enumerate() {
                    tab.apply_pauli(q, site.paulis[k][t]);
                }
            }
            StabOp::Measure(qubits) => {
                for &q in qubits {
                    let (outcome, _) = tab.measure(q, rng);
                    if outcome {
                        record |= 1u128 << bit;
                    }
                    bit += 1;
                }
            }
        }
    }
    record
}

/// Frame propagation rules (signs are irrelevant for frames).
fn apply_frame_gate(fx: &mut [Vec<u64>], fz: &mut [Vec<u64>], g: CliffordOp) {
    match g {
        // H: X ↔ Z.
        CliffordOp::H(q) | CliffordOp::Sy(q) | CliffordOp::Sydg(q) => {
            // √Y and √Y† also exchange X and Z (up to signs).
            fx[q].iter_mut().zip(fz[q].iter_mut()).for_each(|(x, z)| {
                std::mem::swap(x, z);
            });
        }
        // S/S†: X → Y (z ^= x).
        CliffordOp::S(q) | CliffordOp::Sdg(q) => {
            for (z, &x) in fz[q].iter_mut().zip(fx[q].iter()) {
                *z ^= x;
            }
        }
        // √X/√X†: Z → Y (x ^= z).
        CliffordOp::Sx(q) | CliffordOp::Sxdg(q) => {
            for (x, &z) in fx[q].iter_mut().zip(fz[q].iter()) {
                *x ^= z;
            }
        }
        // Paulis commute with frames.
        CliffordOp::X(_) | CliffordOp::Y(_) | CliffordOp::Z(_) => {}
        CliffordOp::Cx(c, t) => {
            // X on control propagates to target; Z on target to control.
            let (fxc, fxt) = two_mut(fx, c, t);
            for (t_, &c_) in fxt.iter_mut().zip(fxc.iter()) {
                *t_ ^= c_;
            }
            let (fzc, fzt) = two_mut(fz, c, t);
            for (c_, &t_) in fzc.iter_mut().zip(fzt.iter()) {
                *c_ ^= t_;
            }
        }
        CliffordOp::Cz(a, b) => {
            let (fxa, fxb) = two_mut(fx, a, b);
            // X_a → X_a Z_b and X_b → X_b Z_a.
            let (fza, fzb) = two_mut(fz, a, b);
            for i in 0..fxa.len() {
                fzb[i] ^= fxa[i];
                fza[i] ^= fxb[i];
            }
        }
        CliffordOp::Swap(a, b) => {
            fx.swap(a, b);
            fz.swap(a, b);
        }
    }
}

/// Split two distinct rows of a per-qubit table mutably.
fn two_mut(v: &mut [Vec<u64>], i: usize, j: usize) -> (&mut Vec<u64>, &mut Vec<u64>) {
    assert_ne!(i, j);
    if i < j {
        let (a, b) = v.split_at_mut(j);
        (&mut a[i], &mut b[0])
    } else {
        let (a, b) = v.split_at_mut(i);
        (&mut b[0], &mut a[j])
    }
}

/// A Pauli-mixture site as the sampler injects it: the all-error mass
/// that drives the shot mask, and the non-identity branches with their
/// weights among errors.
struct FrameSite {
    p_err: f64,
    /// Conditional branch weights; empty for a site that never errs.
    cond: Vec<f64>,
    /// Per branch of `cond`: which of the site's qubits (bit `t` = qubit
    /// `t` of the site) get their X / Z frame bit flipped.
    flips: Vec<(u8, u8)>,
}

impl FrameSite {
    fn new(site: &PauliSite) -> Self {
        assert!(site.qubits.len() <= 8, "branch masks hold 8 site qubits");
        let identity_idx = site
            .paulis
            .iter()
            .position(|ps| ps.iter().all(|&p| p == Pauli::I));
        let p_err: f64 = match identity_idx {
            Some(idx) => 1.0 - site.probs[idx],
            None => 1.0,
        };
        let mut cond = Vec::new();
        let mut flips = Vec::new();
        if p_err > 0.0 {
            for (i, &p) in site.probs.iter().enumerate() {
                if Some(i) != identity_idx && p > 0.0 {
                    cond.push(p / p_err);
                    let (mut x, mut z) = (0u8, 0u8);
                    for (t, pauli) in site.paulis[i].iter().enumerate() {
                        let (xb, zb) = pauli.bits();
                        x |= u8::from(xb) << t;
                        z |= u8::from(zb) << t;
                    }
                    flips.push((x, z));
                }
            }
        }
        Self { p_err, cond, flips }
    }

    /// Inject the site across all shots: a Bernoulli mask picks the erred
    /// shots, then each erred shot draws a branch (sparse iteration, so
    /// cost scales with the error rate).
    fn inject<R: Rng + ?Sized>(
        &self,
        qubits: &[usize],
        fx: &mut [Vec<u64>],
        fz: &mut [Vec<u64>],
        shots: usize,
        scratch: &mut [u64],
        rng: &mut R,
    ) {
        if self.cond.is_empty() {
            return;
        }
        fill_bernoulli_words(scratch, shots, self.p_err, rng);
        for (w, &word) in scratch.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let lane = bits & bits.wrapping_neg();
                bits ^= lane;
                let branch = if self.cond.len() == 1 {
                    0
                } else {
                    index_of(rng.next_f64(), &self.cond)
                };
                let (x, z) = self.flips[branch];
                for (t, &q) in qubits.iter().enumerate() {
                    if (x >> t) & 1 == 1 {
                        fx[q][w] ^= lane;
                    }
                    if (z >> t) & 1 == 1 {
                        fz[q][w] ^= lane;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptsbe_circuit::{channels, Circuit, NoiseModel};
    use ptsbe_rng::PhiloxRng;

    /// A deterministic-reference circuit: |0⟩ with X-flip noise, measured.
    fn flip_circuit(p: f64) -> NoisyCircuit {
        let mut c = Circuit::new(1);
        c.x(0).x(0); // identity, but gives the noise two attachment points
        c.measure_all();
        NoiseModel::new()
            .with_default_1q(channels::bit_flip(p))
            .apply(&c)
    }

    #[test]
    fn noiseless_reference_matches() {
        let mut c = Circuit::new(3);
        c.x(1).measure_all();
        let nc = NoiseModel::new().apply(&c);
        let mut rng = PhiloxRng::new(100, 0);
        let sampler = FrameSampler::new(&nc, &mut rng).unwrap();
        let result = sampler.sample(100, &mut rng);
        assert!(!result.reference_was_random);
        assert_eq!(result.n_bits, 3);
        assert!(result.shots.iter().all(|&s| s == 0b010));
    }

    #[test]
    fn flip_statistics() {
        let p = 0.2;
        let nc = flip_circuit(p);
        let mut rng = PhiloxRng::new(101, 0);
        let sampler = FrameSampler::new(&nc, &mut rng).unwrap();
        let shots = 200_000;
        let result = sampler.sample(shots, &mut rng);
        // Two independent flips each with prob p: P(1) = 2p(1-p).
        let expect = 2.0 * p * (1.0 - p);
        let ones = result.shots.iter().filter(|&&s| s == 1).count();
        let frac = ones as f64 / shots as f64;
        assert!((frac - expect).abs() < 0.005, "frac {frac} vs {expect}");
    }

    #[test]
    fn frame_sampler_matches_tableau_distribution() {
        // Repetition-code-style parity circuit with depolarizing noise.
        let mut c = Circuit::new(3);
        c.cx(0, 1).cx(0, 2).cx(0, 1).measure_all();
        let nc = NoiseModel::new()
            .with_default_2q(channels::depolarizing(0.15))
            .apply(&c);
        let mut rng = PhiloxRng::new(102, 0);
        let sampler = FrameSampler::new(&nc, &mut rng).unwrap();
        assert!(!sampler.reference_was_random);
        let shots = 100_000;
        let bulk = sampler.sample(shots, &mut rng);

        let program = sampler.program();
        let mut counts_bulk = [0usize; 8];
        for &s in &bulk.shots {
            counts_bulk[s as usize] += 1;
        }
        let mut counts_ref = [0usize; 8];
        for _ in 0..shots {
            counts_ref[tableau_sample_one(program, &mut rng) as usize] += 1;
        }
        for i in 0..8 {
            let a = counts_bulk[i] as f64 / shots as f64;
            let b = counts_ref[i] as f64 / shots as f64;
            assert!((a - b).abs() < 0.01, "outcome {i}: bulk {a} vs tableau {b}");
        }
    }

    #[test]
    fn random_reference_flagged() {
        let mut c = Circuit::new(1);
        c.h(0).measure_all();
        let nc = NoiseModel::new().apply(&c);
        let mut rng = PhiloxRng::new(103, 0);
        let sampler = FrameSampler::new(&nc, &mut rng).unwrap();
        let result = sampler.sample(10, &mut rng);
        assert!(result.reference_was_random);
    }

    /// Record bit 0 is a deterministic 1; record bit 1 is random only
    /// through the collapse after the first measurement, which every other
    /// test here (one terminal measurement) cannot see. The reference is
    /// random, so this is library level: the router refuses such jobs.
    fn assert_collapse_is_live(c: &Circuit, seed: u64) {
        let nc = NoiseModel::new().apply(c);
        let mut rng = PhiloxRng::new(seed, 0);
        let sampler = FrameSampler::new(&nc, &mut rng).unwrap();
        assert!(sampler.reference_was_random());
        let shots = 100_000;
        let bulk = sampler.sample(shots, &mut rng);
        assert_eq!(bulk.n_bits, 2);
        assert!(bulk.shots.iter().all(|&s| s & 1 == 1), "first bit moved");

        // sd of a frequency over 1e5 shots ≤ 0.0016: bounds are 5 sd.
        let second: Vec<bool> = bulk.shots.iter().map(|&s| s >> 1 == 1).collect();
        let freq = |hits: usize, of: usize| hits as f64 / of as f64;
        let ones = freq(second.iter().filter(|&&b| b).count(), shots);
        assert!((ones - 0.5).abs() < 0.008, "second bit {ones}");
        let mut tableau_ones = 0usize;
        for _ in 0..shots {
            let rec = tableau_sample_one(sampler.program(), &mut rng);
            assert_eq!(rec & 1, 1);
            tableau_ones += (rec >> 1) as usize;
        }
        let tableau_ones = freq(tableau_ones, shots);
        assert!(
            (ones - tableau_ones).abs() < 0.012,
            "bulk {ones} vs tableau {tableau_ones}"
        );
        // Shots that share a mask word, and the same lane of adjacent
        // words, flip independently.
        for gap in [1, 64] {
            let both = second.windows(gap + 1).filter(|w| w[0] && w[gap]).count();
            let both = freq(both, shots - gap);
            assert!((both - 0.25).abs() < 0.008, "shots {gap} apart: {both}");
        }
    }

    #[test]
    fn mid_circuit_collapse_randomizes_the_next_measurement() {
        let mut c = Circuit::new(1);
        c.x(0).measure(&[0]).h(0).measure(&[0]);
        assert_collapse_is_live(&c, 107);
    }

    #[test]
    fn mid_circuit_collapse_propagates_through_cx() {
        // The Z frame drawn on qubit 1 reaches qubit 0 as the control of
        // cx, and its record bit through the Hadamard.
        let mut c = Circuit::new(2);
        c.x(1).measure(&[1]).cx(0, 1).h(0).measure(&[0]);
        assert_collapse_is_live(&c, 108);
    }

    #[test]
    fn two_qubit_noise_propagates() {
        let mut c = Circuit::new(2);
        c.cx(0, 1).measure_all();
        let nc = NoiseModel::new()
            .with_default_2q(channels::depolarizing2(1.0))
            .apply(&c);
        let mut rng = PhiloxRng::new(104, 0);
        let sampler = FrameSampler::new(&nc, &mut rng).unwrap();
        let shots = 50_000;
        let result = sampler.sample(shots, &mut rng);
        // With p=1, the state gets a uniform non-identity 2q Pauli; X
        // components land in the record. Of 15 branches, those with X or Y
        // on a qubit flip its bit. Per qubit: 8 of 15 branches flip it.
        let expect = 8.0 / 15.0;
        for q in 0..2 {
            let ones = result.shots.iter().filter(|&&s| (s >> q) & 1 == 1).count();
            let frac = ones as f64 / shots as f64;
            assert!((frac - expect).abs() < 0.01, "qubit {q}: {frac}");
        }
    }

    #[test]
    fn sx_frame_rule_matches_tableau() {
        // sx · Z-error · sx on |0⟩: the noiseless reference is X|0⟩ = |1⟩
        // (deterministic), and the injected Z propagates through the second
        // √X into a Y frame, flipping the outcome to 0. Exercises the
        // fx ^= fz rule with a valid (deterministic) reference.
        let mut c2 = Circuit::new(1);
        c2.sx(0);
        c2.noise(std::sync::Arc::new(channels::phase_flip(1.0)), &[0]);
        c2.sx(0);
        c2.measure_all();
        let nc2 = ptsbe_circuit::NoisyCircuit::from_circuit(c2);
        let mut rng = PhiloxRng::new(105, 0);
        let sampler = FrameSampler::new(&nc2, &mut rng).unwrap();
        let bulk = sampler.sample(10_000, &mut rng);
        assert!(!bulk.reference_was_random);
        let ones_bulk = bulk.shots.iter().filter(|&&s| s == 1).count() as f64 / 10_000.0;
        let program = sampler.program();
        let mut ones_tab = 0usize;
        for _ in 0..10_000 {
            ones_tab += (tableau_sample_one(program, &mut rng) & 1) as usize;
        }
        let ones_tab = ones_tab as f64 / 10_000.0;
        assert_eq!(
            ones_bulk, 0.0,
            "Z through √X must flip the reference 1 to 0"
        );
        assert!(
            (ones_bulk - ones_tab).abs() < 0.02,
            "bulk {ones_bulk} vs tableau {ones_tab}"
        );
    }

    #[test]
    fn throughput_sanity_many_shots() {
        // 1e6 shots through a small circuit should complete fast (sparse
        // noise) — and produce the right marginal.
        let nc = flip_circuit(0.001);
        let mut rng = PhiloxRng::new(106, 0);
        let sampler = FrameSampler::new(&nc, &mut rng).unwrap();
        let shots = 1_000_000;
        let result = sampler.sample(shots, &mut rng);
        let ones = result.shots.iter().filter(|&&s| s == 1).count();
        let frac = ones as f64 / shots as f64;
        let expect = 2.0 * 0.001 * 0.999;
        assert!((frac - expect).abs() < 3e-4, "frac {frac}");
    }
}
