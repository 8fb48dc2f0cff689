//! Pauli-frame bulk sampler (Stim's reference-frame method, paper §2.3:
//! "a reference frame sampler to efficiently bulk sample noisy simulation
//! data at a rate of MHz").
//!
//! One exact tableau run produces the *reference* measurement record. Every
//! shot differs from it by a Pauli frame, and in a Clifford+Pauli circuit
//! the record bits a frame flips are a fixed linear function of the circuit
//! alone. So [`FrameSampler::new`] walks the program once, last op first,
//! carrying per qubit the `u128` sets of record bits that an X / Z frame on
//! it at that point would flip (the transposes of the Clifford frame rules;
//! a measurement of `q` into bit `b` adds `b` to the X set). Every random
//! event becomes a *draw* with the record mask it reaches: a noise site, one
//! mask per non-identity branch (the XOR of its qubits' sets), or the
//! collapse after each measured qubit (a fair coin on its Z frame, Gidney,
//! Stim §4.2). A chunk of shots is the reference word in every shot, XORed
//! with the mask of every event drawn: per draw the shots it hits, in
//! ascending order ([`ptsbe_rng::mask`]), then per hit a branch when there
//! is more than one, and one XOR. Nothing is propagated per chunk, and a
//! sparse draw costs per hit, not per shot: below the mask module's sparse
//! cutoff (p < 0.05, every noise site of a realistic circuit) the hits
//! arrive as positions straight from the geometric skips, so no word is
//! cleared or scanned; above it (live collapses at p = 0.5) a bit-sliced
//! word fill is scanned. A branch is found by binary search over the
//! running sums of its weights, which picks `index_of`'s branch for every
//! uniform (the weights are all positive); a `depolarizing2` site has 15.
//! Both forms draw what the word fill and the linear scan drew, in the same
//! order, so the records do not depend on them.
//!
//! Exactness domain (same as Stim): when the noiseless reference circuit
//! has deterministic measurements, the sampled records are exact iid
//! samples of the noisy circuit. Intrinsically random reference
//! measurements are flagged via [`FrameResult::reference_was_random`] —
//! all shots then share the reference's coin flips (still valid for
//! detector-style differences).
//!
//! A collapse whose mask is empty draws nothing, and under a deterministic
//! reference that is every collapse: right after measuring `q` the
//! reference state is stabilized by ±Z_q; each later reference measurement
//! being deterministic, none disturbs the state, so each measures an
//! observable in its stabilizer group, and pulled back to the collapse that
//! observable commutes with Z_q — the collapse's Z frame reaches no record
//! bit. A live collapse thus implies a later random reference measurement,
//! which the service router never routes here. With terminal measurements
//! every collapse comes after the last site, so the records equal bit for
//! bit those of propagating 64-shot frame words through every gate and
//! drawing every collapse (the tests' oracle) on the same stream; only a
//! dead mid-circuit collapse with draws after it moves the stream (a
//! different iid sample).
//!
//! Cost (`frame_sampler` bench, best of 15 in each of two alternated runs,
//! 2-vCPU x86-64 VM, per-chunk frame walk → masks):
//! `frame_sampler_frame_bulk/chunk_65536_shots` 2.05–2.11 → 0.76–0.79 ms,
//! `frame_sampler_steane/bulk_100k_shots` 0.56–0.60 → 0.20–0.21 ms, and
//! `frame_sampler_live_collapses/chunk_65536_shots` (96 live collapses, the
//! one shape where they still draw: each now XORs its mask into about half
//! the shots) 8.6–9.0 → 5.8–5.9 ms. Word-scanned draws with linear-CDF
//! branch picks → position lists with binary-search picks (best of 15 in
//! each of five alternated runs, same VM): `chunk_65536_shots` 0.76–0.78
//! → 0.374–0.375 ms, `bulk_100k_shots` 0.21–0.29 → 0.13–0.19 ms, and the
//! live collapses 6.12–6.15 → 5.12–5.18 ms (their collapses are word
//! scans either way; their noise sites are sparse draws).

use crate::convert::{lower, CliffordOp, PauliSite, StabOp, StabProgram};
use crate::pauli::Pauli;
use crate::tableau::Tableau;
use ptsbe_circuit::NoisyCircuit;
use ptsbe_rng::categorical::{index_of, index_of_sums};
use ptsbe_rng::mask::{fill_bernoulli_positions, fill_bernoulli_words, is_sparse};
use ptsbe_rng::Rng;

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

/// The bulk sampler: lowers a circuit and derives every event's record
/// mask once, then samples any number of shots.
pub struct FrameSampler {
    program: StabProgram,
    /// The noiseless reference record.
    reference: u128,
    reference_was_random: bool,
    /// Every draw a chunk makes, in program order.
    draws: Vec<Draw>,
}

/// One random event of a chunk: a Bernoulli fill at `p` picks the shots it
/// hits, and each hit shot XORs one of `masks` into its record — for a
/// fresh uniform `r` when there is more than one, the branch `index_of`
/// picks from the weights, found by binary search over `sums`.
struct Draw {
    p: f64,
    /// Running sums of the branch weights among hits (all positive),
    /// added in `index_of`'s order; empty for a collapse.
    sums: Vec<f64>,
    /// Per branch, the record bits it flips.
    masks: Vec<u128>,
}

impl Draw {
    /// The record bits one hit flips, drawing its branch from `rng` when
    /// there is a choice.
    #[inline]
    fn flip<R: Rng + ?Sized>(&self, rng: &mut R) -> u128 {
        if self.masks.len() == 1 {
            self.masks[0]
        } else {
            self.masks[index_of_sums(rng.next_f64(), &self.sums)]
        }
    }
}

impl FrameSampler {
    /// Lower `nc`, run the noiseless reference simulation and derive the
    /// draws.
    ///
    /// # Errors
    /// Conversion failures of [`lower`], and [`FrameError::Unsupported`]
    /// for more than 128 measured bits (a record is one `u128`).
    pub fn new<R: Rng + ?Sized>(nc: &NoisyCircuit, rng: &mut R) -> Result<Self, FrameError> {
        let program = lower(nc)?;
        if program.measured.len() > 128 {
            return Err(FrameError::Unsupported("more than 128 measured bits"));
        }
        let mut tab = Tableau::zero_state(program.n_qubits);
        let mut reference = 0u128;
        let mut bit = 0;
        let mut was_random = false;
        for op in &program.ops {
            match op {
                StabOp::Gate(g) => apply_tableau_gate(&mut tab, *g),
                StabOp::Site(_) => {} // reference is noiseless
                StabOp::Measure(qubits) => {
                    for &q in qubits {
                        let (outcome, random) = tab.measure(q, rng);
                        was_random |= random;
                        reference |= u128::from(outcome) << bit;
                        bit += 1;
                    }
                }
            }
        }
        Ok(Self {
            draws: derive_draws(&program),
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
        let mut records = vec![self.reference; shots];
        let mut hits = Vec::new();
        let mut words = Vec::new();
        for draw in &self.draws {
            if is_sparse(draw.p) {
                fill_bernoulli_positions(&mut hits, shots, draw.p, rng);
                for &shot in &hits {
                    records[shot] ^= draw.flip(rng);
                }
                continue;
            }
            words.resize(shots.div_ceil(64), 0);
            fill_bernoulli_words(&mut words, shots, draw.p, rng);
            for (w, &word) in words.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let shot = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    records[shot] ^= draw.flip(rng);
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

/// The backward pass: walk `program` last op first with `sx[q]` / `sz[q]`
/// the record bits an X / Z frame on `q` at that point would flip, and
/// return every draw that can flip one, in program order. The gate rules
/// transpose the forward frame rules (`H`: X ↔ Z; `S`: X → Y; `√X`: Z → Y;
/// `Cx`: X_c → X_c X_t, Z_t → Z_c Z_t; `Cz`: X_a → X_a Z_b; Paulis commute
/// with frames).
fn derive_draws(program: &StabProgram) -> Vec<Draw> {
    let mut sx = vec![0u128; program.n_qubits];
    let mut sz = vec![0u128; program.n_qubits];
    let mut bit = program.measured.len();
    let mut draws = Vec::new();
    for op in program.ops.iter().rev() {
        match op {
            StabOp::Gate(g) => match *g {
                CliffordOp::H(q) | CliffordOp::Sy(q) | CliffordOp::Sydg(q) => {
                    std::mem::swap(&mut sx[q], &mut sz[q]);
                }
                CliffordOp::S(q) | CliffordOp::Sdg(q) => sx[q] ^= sz[q],
                CliffordOp::Sx(q) | CliffordOp::Sxdg(q) => sz[q] ^= sx[q],
                CliffordOp::X(_) | CliffordOp::Y(_) | CliffordOp::Z(_) => {}
                CliffordOp::Cx(c, t) => {
                    sx[c] ^= sx[t];
                    sz[t] ^= sz[c];
                }
                CliffordOp::Cz(a, b) => {
                    sx[a] ^= sz[b];
                    sx[b] ^= sz[a];
                }
                CliffordOp::Swap(a, b) => {
                    sx.swap(a, b);
                    sz.swap(a, b);
                }
            },
            StabOp::Site(id) => draws.extend(site_draw(&program.sites[*id], &sx, &sz)),
            StabOp::Measure(qubits) => {
                for &q in qubits.iter().rev() {
                    bit -= 1;
                    if sz[q] != 0 {
                        draws.push(Draw {
                            p: 0.5,
                            sums: Vec::new(),
                            masks: vec![sz[q]],
                        });
                    }
                    sx[q] ^= 1 << bit;
                }
            }
        }
    }
    draws.reverse();
    draws
}

/// A site as a draw: `p` is its all-error mass, and each non-identity
/// branch of positive weight gets its share of it and the XOR of its
/// qubits' sets. `None` for a site that never errs.
fn site_draw(site: &PauliSite, sx: &[u128], sz: &[u128]) -> Option<Draw> {
    let identity = site
        .paulis
        .iter()
        .position(|ps| ps.iter().all(|&p| p == Pauli::I));
    let p = identity.map_or(1.0, |i| 1.0 - site.probs[i]);
    let mut draw = Draw {
        p,
        sums: Vec::new(),
        masks: Vec::new(),
    };
    let mut sum = 0.0;
    for (i, (&w, paulis)) in site.probs.iter().zip(&site.paulis).enumerate() {
        if p > 0.0 && w > 0.0 && Some(i) != identity {
            let mask = site.qubits.iter().zip(paulis).fold(0, |mask, (&q, pauli)| {
                let (x, z) = pauli.bits();
                mask ^ (if x { sx[q] } else { 0 }) ^ (if z { sz[q] } else { 0 })
            });
            sum += w / p;
            draw.sums.push(sum);
            draw.masks.push(mask);
        }
    }
    (!draw.masks.is_empty()).then_some(draw)
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

#[cfg(test)]
mod tests {
    use super::*;
    use ptsbe_circuit::{channels, Circuit, NoiseModel};
    use ptsbe_rng::PhiloxRng;
    use std::sync::Arc;

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

    #[test]
    fn more_than_128_measured_bits_is_an_error() {
        let mut c = Circuit::new(1);
        for _ in 0..128 {
            c.measure(&[0]);
        }
        let mut rng = PhiloxRng::new(109, 0);
        let nc = NoiseModel::new().apply(&c);
        assert_eq!(FrameSampler::new(&nc, &mut rng).unwrap().n_measured(), 128);
        c.measure(&[0]);
        let nc = NoiseModel::new().apply(&c);
        assert!(matches!(
            FrameSampler::new(&nc, &mut rng),
            Err(FrameError::Unsupported(_))
        ));
    }

    /// The reference `sample` is held to, by forward frame propagation:
    /// 64-shot frame words per qubit pushed through every gate, every site
    /// injected through its flip bytes, every record bit scattered from
    /// `fx` and XORed with its reference bit, every collapse drawn.
    mod oracle {
        use crate::convert::{CliffordOp, PauliSite, StabOp};
        use crate::frame::FrameSampler;
        use crate::pauli::Pauli;
        use ptsbe_rng::{categorical::index_of, mask::fill_bernoulli_words, Rng};

        /// `FrameSampler::sample`'s records by frame propagation. With
        /// `force = Some((k, word))` collapse `k`'s random words are set to
        /// `word` after they are drawn, so the stream does not move.
        pub(super) fn sample<R: Rng + ?Sized>(
            sampler: &FrameSampler,
            shots: usize,
            rng: &mut R,
            force: Option<(usize, u64)>,
        ) -> Vec<u128> {
            let program = &sampler.program;
            let sites: Vec<FrameSite> = program.sites.iter().map(FrameSite::new).collect();
            let n = program.n_qubits;
            let nwords = shots.div_ceil(64);
            let mut fx = vec![vec![0u64; nwords]; n];
            let mut fz = vec![vec![0u64; nwords]; n];
            let mut records = vec![0u128; shots];
            let mut bit_idx = 0usize;
            let mut scratch = vec![0u64; nwords];

            for op in &program.ops {
                match op {
                    StabOp::Gate(g) => apply_frame_gate(&mut fx, &mut fz, *g),
                    StabOp::Site(id) => {
                        let qubits = &program.sites[*id].qubits;
                        sites[*id].inject(qubits, &mut fx, &mut fz, shots, &mut scratch, rng);
                    }
                    StabOp::Measure(qubits) => {
                        for &q in qubits {
                            let ref_bit = (sampler.reference >> bit_idx) & 1 == 1;
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
                            fill_bernoulli_words(&mut scratch, shots, 0.5, rng);
                            if let Some((k, word)) = force {
                                if k == bit_idx {
                                    scratch.fill(word);
                                }
                            }
                            for (dst, src) in fz[q].iter_mut().zip(&scratch) {
                                *dst ^= src;
                            }
                            bit_idx += 1;
                        }
                    }
                }
            }
            records
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

        /// A Pauli-mixture site as the frame walk injects it: the all-error
        /// mass that drives the shot mask, and the non-identity branches
        /// with their weights among errors.
        struct FrameSite {
            p_err: f64,
            /// Conditional branch weights; empty for a site that never errs.
            cond: Vec<f64>,
            /// Per branch of `cond`: which of the site's qubits (bit `t` =
            /// qubit `t` of the site) get their X / Z frame bit flipped.
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

            /// Inject the site across all shots: a Bernoulli mask picks the
            /// erred shots, then each erred shot draws a branch.
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
    }

    const RATES: [f64; 4] = [1e-3, 0.02, 0.1, 0.5];

    /// A random Clifford+Pauli circuit on `n` qubits of `len` ops: every
    /// gate the lowering knows, and 1q / 2q sites of `bit_flip` (one
    /// branch), `phase_flip`, `depolarizing` and `depolarizing2` at each of
    /// `RATES`; with `mid`, single-qubit measurements along the way. Every
    /// qubit is measured at the end.
    fn random_circuit(rng: &mut PhiloxRng, n: usize, len: usize, mid: bool) -> NoisyCircuit {
        let mut c = Circuit::new(n);
        for _ in 0..len {
            let q = rng.gen_index(n);
            // A second qubit, distinct from `q` when there is one.
            let r = (q + 1 + rng.gen_index(n.max(2) - 1)) % n;
            let p = RATES[rng.gen_index(RATES.len())];
            let kinds = if n > 1 { 18 } else { 14 };
            match rng.gen_index(kinds) {
                0 => c.h(q),
                1 => c.s(q),
                2 => c.sdg(q),
                3 => c.sx(q),
                4 => c.sxdg(q),
                5 => c.sy(q),
                6 => c.sydg(q),
                7 => c.x(q),
                8 => c.y(q),
                9 => c.z(q),
                10 => c.noise(Arc::new(channels::bit_flip(p)), &[q]),
                11 => c.noise(Arc::new(channels::phase_flip(p)), &[q]),
                12 => c.noise(Arc::new(channels::depolarizing(p)), &[q]),
                13 if mid => c.measure(&[q]),
                13 => c.x(q),
                14 => c.cx(q, r),
                15 => c.cz(q, r),
                16 => c.swap(q, r),
                _ => c.noise(Arc::new(channels::depolarizing2(p)), &[q, r]),
            };
        }
        c.measure_all();
        NoisyCircuit::from_circuit(c)
    }

    /// Terminal measurements: the masks give the frame walk's records bit
    /// for bit on the same stream, in both fill regimes, on ragged and
    /// whole 64-shot words.
    #[test]
    fn masks_equal_the_frame_walk_bit_for_bit() {
        let mut gen = PhiloxRng::new(110, 0);
        let mut reference_ones = 0;
        for i in 0..240u64 {
            let n = 1 + gen.gen_index(6);
            let len = 1 + gen.gen_index(40);
            let nc = random_circuit(&mut gen, n, len, false);
            let sampler = FrameSampler::new(&nc, &mut PhiloxRng::new(i, 1)).unwrap();
            reference_ones += sampler.reference.count_ones();
            for shots in [1, 63, 64, 65, 4_000] {
                let got = sampler.sample(shots, &mut PhiloxRng::new(i, 2));
                let want = oracle::sample(&sampler, shots, &mut PhiloxRng::new(i, 2), None);
                assert_eq!(got.shots, want, "circuit {i}, {shots} shots");
            }
        }
        assert!(reference_ones > 0);
    }

    /// Collapse `k`'s record mask as the backward pass sees it: a one-branch
    /// Z site on the measured qubit right after the measurement (the only
    /// site, so the only draw with branch weights).
    fn collapse_mask(program: &StabProgram, k: usize) -> u128 {
        let mut probed = program.clone();
        probed.ops.retain(|op| !matches!(op, StabOp::Site(_)));
        let mut seen = 0;
        let at = probed
            .ops
            .iter()
            .position(|op| {
                if let StabOp::Measure(qubits) = op {
                    seen += qubits.len();
                }
                seen > k
            })
            .unwrap();
        probed.sites.push(PauliSite {
            qubits: vec![program.measured[k]],
            probs: vec![0.0, 1.0],
            paulis: vec![vec![Pauli::I], vec![Pauli::Z]],
        });
        probed
            .ops
            .insert(at + 1, StabOp::Site(probed.sites.len() - 1));
        let probe: Vec<Draw> = derive_draws(&probed)
            .into_iter()
            .filter(|d| !d.sums.is_empty())
            .collect();
        assert_eq!(probe.len(), 1);
        probe[0].masks[0]
    }

    /// Forcing one collapse's coins from all-zero to all-one changes every
    /// shot in exactly that collapse's mask bits, so a collapse the pass
    /// dropped (mask 0) changes nothing; and the live ones are the
    /// sampler's collapse draws, in order.
    #[test]
    fn forcing_a_collapse_flips_exactly_its_mask() {
        let mut gen = PhiloxRng::new(111, 0);
        let (mut live, mut dead) = (0, 0);
        for i in 0..200u64 {
            let n = 1 + gen.gen_index(4);
            let len = 1 + gen.gen_index(24);
            let nc = random_circuit(&mut gen, n, len, true);
            let sampler = FrameSampler::new(&nc, &mut PhiloxRng::new(i, 1)).unwrap();
            let shots = 130;
            let mut live_masks = Vec::new();
            for k in 0..sampler.n_measured() {
                let mask = collapse_mask(sampler.program(), k);
                let run = |word| {
                    oracle::sample(&sampler, shots, &mut PhiloxRng::new(i, 2), Some((k, word)))
                };
                let (ones, zeros) = (run(!0), run(0));
                for (a, b) in ones.iter().zip(&zeros) {
                    assert_eq!(a ^ b, mask, "circuit {i}, collapse {k}");
                }
                if mask == 0 {
                    dead += 1;
                } else {
                    live += 1;
                    live_masks.push(mask);
                }
            }
            let drawn: Vec<u128> = sampler
                .draws
                .iter()
                .filter(|d| d.sums.is_empty())
                .map(|d| d.masks[0])
                .collect();
            assert_eq!(drawn, live_masks, "circuit {i}");
        }
        assert!(live > 0 && dead > 0, "{live} live, {dead} dead");
    }

    /// A deterministic reference leaves no collapse live (module doc).
    #[test]
    fn deterministic_reference_has_no_live_collapse() {
        let mut gen = PhiloxRng::new(112, 0);
        let (mut deterministic, mut random_live) = (0, 0);
        for i in 0..3_000u64 {
            let n = 1 + gen.gen_index(4);
            let len = 1 + gen.gen_index(16);
            let nc = random_circuit(&mut gen, n, len, true);
            let sampler = FrameSampler::new(&nc, &mut PhiloxRng::new(i, 1)).unwrap();
            let collapses = sampler.draws.iter().filter(|d| d.sums.is_empty()).count();
            if sampler.reference_was_random() {
                random_live += usize::from(collapses > 0);
            } else {
                deterministic += 1;
                assert_eq!(collapses, 0, "circuit {i}");
            }
        }
        assert!(
            deterministic >= 100 && random_live >= 100,
            "{deterministic} deterministic, {random_live} random with a live collapse"
        );
    }

    /// A noisy mid-circuit circuit with a deterministic reference (the
    /// service's frame-engine shape): its collapses are dead, and the
    /// records match the per-shot tableau per outcome.
    #[test]
    fn dead_mid_circuit_collapse_matches_tableau_distribution() {
        let mut c = Circuit::new(2);
        c.x(0).measure(&[0]).cx(0, 1).measure(&[1]);
        let nc = NoiseModel::new()
            .with_default_1q(channels::bit_flip(0.1))
            .with_default_2q(channels::depolarizing2(0.02))
            .apply(&c);
        let mut rng = PhiloxRng::new(113, 0);
        let sampler = FrameSampler::new(&nc, &mut rng).unwrap();
        assert!(!sampler.reference_was_random());
        assert!(sampler.draws.iter().all(|d| !d.sums.is_empty()));
        let shots = 100_000;
        let bulk = sampler.sample(shots, &mut rng);
        let mut counts_bulk = [0usize; 4];
        for &s in &bulk.shots {
            counts_bulk[s as usize] += 1;
        }
        let mut counts_ref = [0usize; 4];
        for _ in 0..shots {
            counts_ref[tableau_sample_one(sampler.program(), &mut rng) as usize] += 1;
        }
        for i in 0..4 {
            let a = counts_bulk[i] as f64 / shots as f64;
            let b = counts_ref[i] as f64 / shots as f64;
            assert!((a - b).abs() < 0.01, "outcome {i}: bulk {a} vs tableau {b}");
        }
    }
}
