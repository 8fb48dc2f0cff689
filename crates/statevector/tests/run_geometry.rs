//! The run-structured gate kernels against their per-index forms.
//!
//! `Cx`, `Swap`, `Cz`, `D1` and `D2` sweep contiguous runs
//! (`quad_runs`: which of a quad's four runs swap, flip or scale), and
//! the dense `G1` / `G2` sweep them in tiles of consecutive pairs or
//! quads, gathered when a run is shorter than a vector. The forms that
//! test index bits per amplitude, or apply a dense gate one pair or quad
//! at a time, are the reference side here: for every qubit and every
//! ordered pair, run form == per-index form bit for bit, on
//! `StateVector`.

use ptsbe_math::random::haar_unitary;
use ptsbe_math::{vec_ops, Complex, Matrix};
use ptsbe_rng::PhiloxRng;
use ptsbe_statevector::StateVector;

type C = Complex<f64>;

// ----- predicate oracles (one amplitude at a time, index bits tested) -----

fn cx_pred(amps: &mut [C], control: usize, target: usize) {
    let (cm, tm) = (1usize << control, 1usize << target);
    for i in 0..amps.len() {
        // Visit each swapped pair once: control set, target clear.
        if i & cm != 0 && i & tm == 0 {
            amps.swap(i, i | tm);
        }
    }
}

fn swap_pred(amps: &mut [C], a: usize, b: usize) {
    let (am, bm) = (1usize << a, 1usize << b);
    for i in 0..amps.len() {
        if i & am != 0 && i & bm == 0 {
            amps.swap(i, i - am + bm);
        }
    }
}

fn cz_pred(amps: &mut [C], a: usize, b: usize) {
    let mask = (1usize << a) | (1usize << b);
    for (i, z) in amps.iter_mut().enumerate() {
        if i & mask == mask {
            *z = -*z;
        }
    }
}

fn d1_pred(amps: &mut [C], d: &[C; 2], q: usize) {
    for (i, z) in amps.iter_mut().enumerate() {
        *z *= d[(i >> q) & 1];
    }
}

fn d2_pred(amps: &mut [C], d: &[C; 4], a: usize, b: usize) {
    for (i, z) in amps.iter_mut().enumerate() {
        *z *= d[(((i >> a) & 1) << 1) | ((i >> b) & 1)];
    }
}

/// `G1` one pair at a time: `vec_ops::mat2_apply` on amplitudes `i` and
/// `i + 2^q` for every `i` with bit `q` clear.
fn g1_pair_by_pair(amps: &mut [C], m: &Matrix<f64>, q: usize) {
    let e = [m[(0, 0)], m[(0, 1)], m[(1, 0)], m[(1, 1)]];
    let s = 1usize << q;
    for i in (0..amps.len()).filter(|i| i & s == 0) {
        let (y0, y1) = vec_ops::mat2_apply(&e, amps[i], amps[i + s]);
        amps[i] = y0;
        amps[i + s] = y1;
    }
}

/// `G2` on qubits `(a, b)` one quad at a time: `vec_ops::mat4_apply` on
/// the amplitudes at `i`, `i + sl`, `i + sh`, `i + sh + sl` (`sh`, `sl`
/// the higher and lower qubit's bit) for every `i` with both bits clear,
/// with `m`'s gate basis `(bit_a << 1) | bit_b` read in that order.
fn g2_quad_by_quad(amps: &mut [C], m: &Matrix<f64>, a: usize, b: usize) {
    let (qh, ql) = (a.max(b), a.min(b));
    let (sh, sl) = (1usize << qh, 1usize << ql);
    // Quad position `k` = (high bit, low bit) -> gate-basis index.
    let basis = |k: usize| {
        let (h, l) = (k >> 1, k & 1);
        if a == qh {
            (h << 1) | l
        } else {
            (l << 1) | h
        }
    };
    let mm: [[C; 4]; 4] = std::array::from_fn(|r| std::array::from_fn(|c| m[(basis(r), basis(c))]));
    for i in (0..amps.len()).filter(|i| i & (sh | sl) == 0) {
        let at = [i, i + sl, i + sh, i + sh + sl];
        let y = vec_ops::mat4_apply(&mm, &at.map(|j| amps[j]));
        for (j, z) in at.into_iter().zip(y) {
            amps[j] = z;
        }
    }
}

// ----- harness -----

const D1: [(f64, f64); 2] = [(0.3, 0.9), (-0.8, 0.5)];
const D2: [(f64, f64); 4] = [(0.3, 0.9), (-0.8, 0.5), (0.1, -0.7), (0.6, 0.6)];

fn random_amps(n: usize, seed: u64) -> Vec<C> {
    let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        ((s >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    };
    (0..1usize << n).map(|_| C::new(next(), next())).collect()
}

fn bits(z: &C) -> (u64, u64) {
    (z.re.to_bits(), z.im.to_bits())
}

/// The state under test and its predicate-form mirror.
struct Mirrored {
    sv: StateVector<f64>,
    mirror: Vec<C>,
}

impl Mirrored {
    fn new(n: usize) -> Self {
        let mirror = random_amps(n, 1);
        Self {
            sv: StateVector::from_amplitudes(mirror.clone()),
            mirror,
        }
    }

    /// Apply one op in run form to the state and in predicate form to
    /// the mirror, then compare every amplitude's bits.
    fn step(
        &mut self,
        label: &str,
        on_sv: impl Fn(&mut StateVector<f64>),
        pred: impl Fn(&mut [C]),
    ) {
        on_sv(&mut self.sv);
        pred(&mut self.mirror);
        assert!(
            self.sv
                .amplitudes()
                .iter()
                .map(bits)
                .eq(self.mirror.iter().map(bits)),
            "{label}: StateVector differs from the predicate form"
        );
    }
}

/// Every qubit and every ordered pair of an `n`-qubit register.
fn every_qubit_and_ordered_pair(n: usize) {
    let d1 = D1.map(|(re, im)| C::new(re, im));
    let d2 = D2.map(|(re, im)| C::new(re, im));
    // Haar gates keep the state's norm, so hundreds of dense steps
    // neither overflow nor underflow.
    let mut rng = PhiloxRng::new(n as u64, 40);
    let u2 = haar_unitary::<f64>(2, &mut rng);
    let u4 = haar_unitary::<f64>(4, &mut rng);
    let mut m = Mirrored::new(n);
    let tag = |op: &str| format!("{op}, n = {n}");
    for q in 0..n {
        m.step(
            &tag(&format!("D1({q})")),
            |s| s.apply_diag_1q(&d1, q),
            |a| d1_pred(a, &d1, q),
        );
        m.step(
            &tag(&format!("G1({q})")),
            |s| s.apply_1q(&u2, q),
            |a| g1_pair_by_pair(a, &u2, q),
        );
    }
    for a in 0..n {
        for b in (0..n).filter(|&b| b != a) {
            m.step(
                &tag(&format!("Cx({a},{b})")),
                |s| s.apply_cx(a, b),
                |x| cx_pred(x, a, b),
            );
            m.step(
                &tag(&format!("Swap({a},{b})")),
                |s| s.apply_swap(a, b),
                |x| swap_pred(x, a, b),
            );
            m.step(
                &tag(&format!("Cz({a},{b})")),
                |s| s.apply_cz(a, b),
                |x| cz_pred(x, a, b),
            );
            m.step(
                &tag(&format!("D2({a},{b})")),
                |s| s.apply_diag_2q(&d2, a, b),
                |x| d2_pred(x, &d2, a, b),
            );
            m.step(
                &tag(&format!("G2({a},{b})")),
                |s| s.apply_2q(&u4, a, b),
                |x| g2_quad_by_quad(x, &u4, a, b),
            );
        }
    }
}

/// n = 1..=7 holds states smaller than one tile (which take the
/// per-element loops) and every gathered tile shape, including quads whose
/// tile spans several `2·sh` chunks.
#[test]
fn run_forms_match_predicate_forms_on_small_registers() {
    for n in 1..=7 {
        every_qubit_and_ordered_pair(n);
    }
}

/// At 14 qubits the sweeps may fan out: under a two-thread budget rayon
/// hands each thread whole `2·sh` chunks, or `PAR_PIECE` amplitudes of
/// shorter ones, so every run a kernel swaps or scales, and every tile it
/// gathers, lies inside one piece.
#[test]
fn run_forms_match_predicate_forms_when_sweeps_fan_out() {
    let n = ptsbe_statevector::PARALLEL_THRESHOLD_QUBITS;
    let two_threads = rayon::ThreadPoolBuilder::new()
        .num_threads(2)
        .build()
        .expect("a two-thread pool always builds");
    two_threads.install(|| every_qubit_and_ordered_pair(n));
}
