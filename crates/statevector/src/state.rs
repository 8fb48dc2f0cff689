//! The statevector type and its gate kernels.
//!
//! Amplitudes are interleaved [`Complex`] values. Every 1-/2-qubit kernel
//! sweeps contiguous *runs* of them (`kernels::quad_runs` cuts a
//! two-qubit gate's chunk into four): CX and SWAP exchange two of a
//! quad's four runs (`swap_with_slice`), CZ negates one, a diagonal
//! scales each by a constant, and the dense 1q/2q gates and the
//! diagonals hand their runs to [`crate::kernels`]' interleaved kernels,
//! which take AVX2/FMA tiles at every qubit under the `PTSBE_BATCH_KERNELS`
//! switch (bitwise identical to the per-element loops, which only states
//! smaller than one tile still take; runs shorter than a vector are
//! gathered into the tile's registers). The forms that test an index bit
//! per amplitude are gone from the crate; `tests/run_geometry.rs` keeps
//! them, and pair-by-pair / quad-by-quad dense forms, as the reference
//! side.
//!
//! What that is worth, on `perf`'s `sv-shared` program (14 qubits; 217
//! gate ops) replayed per op kind under a one-thread budget — `cargo bench
//! -p ptsbe_bench --bench gate_kernels -- op_mix`, best µs per op, median
//! of three alternated runs per build, 2-vCPU x86-64 VM with AVX2. A `<v`
//! kind's lowest qubit is 0 or 1, so its runs are shorter than a vector
//! at `f64`:
//!
//! | op kind    | per-element below a vector (before) | tiles at every qubit (after) |
//! |------------|-----------------|-----------------|
//! | `Cx` ×77   | 4.2             | 4.1             |
//! | `D1` ×54   | 7.4             | 7.3             |
//! | `D1<v` ×3  | 19.4            | 6.5             |
//! | `G1` ×66   | 8.8             | 8.8             |
//! | `G1<v` ×3  | 15.9            | 12.7            |
//! | `G2<v` ×10 | 76.7            | 16.9            |
//! | `P2<v` ×4  | 22.0            | 21.8            |
//! | whole program (ms) | 2.78 (1.98–2.91) | 1.46 (1.46–1.47) |
//!
//! The ten `G2<v`s (fused two-qubit gates on (0, 1) and (1, 2)) were a
//! third of the sweep. `perf`'s `alg1_speedup` moved with them, ten alternated pairs each:
//! up on `sv-shared` (×1.28) and `sv-divergent` (×1.32), whose
//! Algorithm-1 baselines are bound by the per-gate thread fan-out rather
//! than the kernels, and down on `svc-small` (×0.87, 142 → 123), whose
//! Algorithm-1 side is 8–10-qubit dense shots on these same kernels while
//! its PTSBE side is per-job service cost. `P2` (a permutation with
//! phases, per-element at every qubit) is the next per-element kernel in
//! the table.

use ptsbe_math::{vec_ops, Complex, Matrix, Scalar};
use rayon::prelude::*;

use crate::kernels::{cmul_il, diag2_il, mat2_il, mat4_il, quad_runs, IlPath};
use crate::PARALLEL_THRESHOLD_QUBITS;

/// Smallest piece (in amplitudes) a fanned-out gate sweep hands to a
/// kernel call; a power of two, so it is a whole number of any shorter
/// chunk, and `2^PARALLEL_THRESHOLD_QUBITS / PAR_PIECE` pieces still
/// cover every core of a small machine.
const PAR_PIECE: usize = 1 << 12;

/// An `n`-qubit pure state: `2^n` amplitudes, qubit `q` = bit `q` of the
/// basis index (LSB-first, matching [`ptsbe_math::gates`] conventions).
#[derive(Clone, Debug)]
pub struct StateVector<T: Scalar> {
    n_qubits: usize,
    amps: Vec<Complex<T>>,
}

impl<T: Scalar> StateVector<T> {
    /// |0…0⟩ on `n_qubits`.
    ///
    /// # Panics
    /// Panics when `n_qubits` exceeds 48 (array indices would overflow
    /// practical memory long before; the guard catches typos).
    pub fn zero_state(n_qubits: usize) -> Self {
        assert!(
            n_qubits <= 48,
            "statevector of {n_qubits} qubits is not addressable"
        );
        let mut amps = vec![Complex::zero(); 1usize << n_qubits];
        amps[0] = Complex::one();
        Self { n_qubits, amps }
    }

    /// Computational basis state |index⟩.
    pub fn basis_state(n_qubits: usize, index: u64) -> Self {
        let mut sv = Self::zero_state(n_qubits);
        assert!((index as usize) < sv.amps.len(), "basis index out of range");
        sv.amps[0] = Complex::zero();
        sv.amps[index as usize] = Complex::one();
        sv
    }

    /// Wrap raw amplitudes (must have power-of-two length).
    pub fn from_amplitudes(amps: Vec<Complex<T>>) -> Self {
        assert!(amps.len().is_power_of_two(), "amplitude count must be 2^n");
        Self {
            n_qubits: amps.len().trailing_zeros() as usize,
            amps,
        }
    }

    /// Overwrite `self` with `src`'s contents, reusing the existing
    /// amplitude allocation when its capacity allows — the pooled-fork
    /// path (`Backend::fork_into`). Amplitudes are copied verbatim, so a
    /// state forked into a recycled buffer is bitwise identical to a
    /// fresh clone.
    pub fn copy_from(&mut self, src: &Self) {
        self.n_qubits = src.n_qubits;
        self.amps.clone_from(&src.amps);
    }

    /// Reshape to `n_qubits` worth of zeroed amplitudes without giving up
    /// the allocation (scratch-buffer reuse in lane extraction and the
    /// Algorithm-1 baseline loop).
    pub fn reinit(&mut self, n_qubits: usize) {
        assert!(
            n_qubits <= 48,
            "statevector of {n_qubits} qubits is not addressable"
        );
        self.n_qubits = n_qubits;
        self.amps.clear();
        self.amps.resize(1usize << n_qubits, Complex::zero());
    }

    /// Reset to `|0…0⟩` in place (allocation-free re-preparation).
    pub fn reset_zero(&mut self) {
        self.amps.fill(Complex::zero());
        self.amps[0] = Complex::one();
    }

    /// Number of qubits.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Amplitude storage.
    pub fn amplitudes(&self) -> &[Complex<T>] {
        &self.amps
    }

    /// Mutable amplitude storage (tests and internal kernels).
    pub fn amplitudes_mut(&mut self) -> &mut [Complex<T>] {
        &mut self.amps
    }

    /// `⟨ψ|ψ⟩`.
    pub fn norm_sqr(&self) -> T {
        if self.use_parallel() {
            self.amps
                .par_chunks(4096)
                .map(|c| c.iter().map(|z| z.norm_sqr()).fold(T::ZERO, |a, b| a + b))
                .reduce(|| T::ZERO, |a, b| a + b)
        } else {
            vec_ops::norm_sqr(&self.amps)
        }
    }

    /// Normalize in place; returns the pre-normalization squared norm.
    pub fn normalize(&mut self) -> T {
        let n2 = self.norm_sqr();
        if n2 > T::ZERO {
            let inv = T::ONE / n2.sqrt();
            if self.use_parallel() {
                self.amps.par_iter_mut().for_each(|z| *z = z.scale(inv));
            } else {
                for z in &mut self.amps {
                    *z = z.scale(inv);
                }
            }
        }
        n2
    }

    /// Probability of measuring basis state `index`.
    pub fn probability(&self, index: u64) -> T {
        self.amps[index as usize].norm_sqr()
    }

    /// Full probability vector (2^n entries) — use only for small `n`;
    /// the samplers stream probabilities instead.
    pub fn probabilities(&self) -> Vec<T> {
        self.amps.iter().map(|z| z.norm_sqr()).collect()
    }

    /// `⟨ψ|φ⟩`.
    pub fn inner(&self, other: &Self) -> Complex<T> {
        assert_eq!(self.n_qubits, other.n_qubits);
        vec_ops::inner(&self.amps, &other.amps)
    }

    /// `|⟨ψ|φ⟩|²`.
    pub fn fidelity(&self, other: &Self) -> T {
        self.inner(other).norm_sqr()
    }

    /// Probability that qubit `q` measures 1.
    pub fn prob_one(&self, q: usize) -> T {
        assert!(q < self.n_qubits);
        let mask = 1usize << q;
        if self.use_parallel() {
            self.amps
                .par_iter()
                .enumerate()
                .map(|(i, z)| if i & mask != 0 { z.norm_sqr() } else { T::ZERO })
                .reduce(|| T::ZERO, |a, b| a + b)
        } else {
            self.amps
                .iter()
                .enumerate()
                .filter(|(i, _)| i & mask != 0)
                .map(|(_, z)| z.norm_sqr())
                .fold(T::ZERO, |a, b| a + b)
        }
    }

    /// `⟨ψ|Z_q|ψ⟩`.
    pub fn expectation_z(&self, q: usize) -> T {
        T::ONE - T::TWO * self.prob_one(q)
    }

    #[inline]
    fn use_parallel(&self) -> bool {
        self.n_qubits >= PARALLEL_THRESHOLD_QUBITS
    }

    // ----- gate kernels -------------------------------------------------
    //
    // Every 1-/2-qubit kernel sweeps contiguous *runs*: the amplitudes a
    // gate on qubit `q` pairs sit `2^q` apart, so a `2·2^q` chunk is a
    // `(lo, hi)` run pair, and a two-qubit gate's `2·sh` chunk is `sh/2sl`
    // quads of four `sl`-long runs ([`quad_runs`]). No kernel tests an index
    // bit per amplitude. Gate kernels are per-amplitude independent, so
    // chunking never changes a value; rayon splits at chunk boundaries.

    /// Run `kernel` — which accepts any whole number of `chunk`-amplitude
    /// chunks — over the state: once over everything below the fan-out
    /// threshold, else over pieces rayon may hand to different threads.
    /// A piece is one chunk, or [`PAR_PIECE`] amplitudes when chunks are
    /// shorter, so a low-qubit gate is not one kernel call per pair.
    fn sweep(&mut self, chunk: usize, kernel: impl Fn(&mut [Complex<T>]) + Sync + Send) {
        if self.use_parallel() {
            self.amps
                .par_chunks_mut(chunk.max(PAR_PIECE))
                .for_each(kernel);
        } else {
            kernel(&mut self.amps);
        }
    }

    /// Apply a single-qubit gate.
    pub fn apply_1q(&mut self, m: &Matrix<T>, q: usize) {
        assert!(q < self.n_qubits, "qubit {q} out of range");
        assert_eq!((m.rows(), m.cols()), (2, 2));
        let e = [m[(0, 0)], m[(0, 1)], m[(1, 0)], m[(1, 1)]];
        let stride = 1usize << q;
        let path = IlPath::auto();
        self.sweep(2 * stride, move |amps| mat2_il(path, &e, amps, stride));
    }

    /// Apply a two-qubit gate; matrix basis is `(bit_a << 1) | bit_b` for
    /// qubit arguments `(a, b)` per the [`ptsbe_math::gates`] convention.
    pub fn apply_2q(&mut self, m: &Matrix<T>, a: usize, b: usize) {
        assert!(a < self.n_qubits && b < self.n_qubits && a != b);
        assert_eq!((m.rows(), m.cols()), (4, 4));
        let (sh, sl) = (1usize << a.max(b), 1usize << a.min(b));
        let mm = local_2q_matrix(m, a, b);
        let path = IlPath::auto();
        self.sweep(2 * sh, move |amps| mat4_il(path, &mm, amps, sh, sl));
    }

    /// Diagonal single-qubit fast path: `amp[i] *= d[bit_q(i)]` — the
    /// factor is constant over each `2^q` run, so the sweep is two run
    /// scalings per pair block, no amplitude movement or gather.
    pub fn apply_diag_1q(&mut self, d: &[Complex<T>; 2], q: usize) {
        assert!(q < self.n_qubits, "qubit {q} out of range");
        let d = *d;
        let stride = 1usize << q;
        let path = IlPath::auto();
        self.sweep(2 * stride, move |amps| cmul_il(path, &d, amps, stride));
    }

    /// Diagonal two-qubit fast path; `d` is indexed in the gate basis
    /// `(bit_a << 1) | bit_b`.
    pub fn apply_diag_2q(&mut self, d: &[Complex<T>; 4], a: usize, b: usize) {
        assert!(a < self.n_qubits && b < self.n_qubits && a != b);
        let (sh, sl) = (1usize << a.max(b), 1usize << a.min(b));
        let ld = local_2q_diag(d, a, b);
        let path = IlPath::auto();
        self.sweep(2 * sh, move |amps| diag2_il(path, &ld, amps, sh, sl));
    }

    /// Single-qubit permutation fast path:
    /// `out[r] = phase[r] * in[perm[r]]` in the qubit's local basis — an
    /// index shuffle with phases, one multiply per amplitude.
    pub fn apply_perm_1q(&mut self, perm: &[usize; 2], phase: &[Complex<T>; 2], q: usize) {
        assert!(q < self.n_qubits, "qubit {q} out of range");
        assert!(perm[0] < 2 && perm[1] < 2);
        let stride = 1usize << q;
        let (perm, phase) = (*perm, *phase);
        self.sweep(2 * stride, move |amps| {
            for chunk in amps.chunks_exact_mut(2 * stride) {
                let (lo, hi) = chunk.split_at_mut(stride);
                for (a0, a1) in lo.iter_mut().zip(hi.iter_mut()) {
                    let x = [*a0, *a1];
                    *a0 = phase[0] * x[perm[0]];
                    *a1 = phase[1] * x[perm[1]];
                }
            }
        });
    }

    /// Two-qubit permutation fast path; `perm`/`phase` are in the gate
    /// basis `(bit_a << 1) | bit_b` with the semantics
    /// `out[r] = phase[r] * in[perm[r]]`.
    pub fn apply_perm_2q(
        &mut self,
        perm: &[usize; 4],
        phase: &[Complex<T>; 4],
        a: usize,
        b: usize,
    ) {
        assert!(a < self.n_qubits && b < self.n_qubits && a != b);
        assert!(perm.iter().all(|&p| p < 4));
        let (sh, sl) = (1usize << a.max(b), 1usize << a.min(b));
        let (lperm, lphase) = local_2q_perm(perm, phase, a, b);
        self.sweep_quads(sh, sl, move |[r0, r1, r2, r3]| {
            for j in 0..r0.len() {
                let x = [r0[j], r1[j], r2[j], r3[j]];
                r0[j] = lphase[0] * x[lperm[0]];
                r1[j] = lphase[1] * x[lperm[1]];
                r2[j] = lphase[2] * x[lperm[2]];
                r3[j] = lphase[3] * x[lperm[3]];
            }
        });
    }

    /// Hand `f` the four runs `[h0l0, h0l1, h1l0, h1l1]` of every quad.
    fn sweep_quads(
        &mut self,
        sh: usize,
        sl: usize,
        f: impl Fn([&mut [Complex<T>]; 4]) + Sync + Send,
    ) {
        self.sweep(2 * sh, move |amps| {
            for chunk in amps.chunks_exact_mut(2 * sh) {
                let mut base = 0usize;
                while base < sh {
                    f(quad_runs(chunk, base, sh, sl, 1));
                    base += 2 * sl;
                }
            }
        });
    }

    /// CNOT fast path (pure permutation, no arithmetic): one run swap
    /// per quad — the two control-set runs.
    pub fn apply_cx(&mut self, control: usize, target: usize) {
        assert!(control < self.n_qubits && target < self.n_qubits && control != target);
        let (sh, sl) = (1usize << control.max(target), 1usize << control.min(target));
        if control > target {
            self.sweep_quads(sh, sl, |[_, _, h1l0, h1l1]| h1l0.swap_with_slice(h1l1));
        } else {
            self.sweep_quads(sh, sl, |[_, h0l1, _, h1l1]| h0l1.swap_with_slice(h1l1));
        }
    }

    /// CZ fast path (diagonal): negate the doubly-set run of each quad.
    pub fn apply_cz(&mut self, a: usize, b: usize) {
        assert!(a < self.n_qubits && b < self.n_qubits && a != b);
        let (sh, sl) = (1usize << a.max(b), 1usize << a.min(b));
        self.sweep_quads(sh, sl, |[_, _, _, h1l1]| {
            for z in h1l1 {
                *z = -*z;
            }
        });
    }

    /// SWAP fast path: exchange the two singly-set runs of each quad.
    pub fn apply_swap(&mut self, a: usize, b: usize) {
        assert!(a < self.n_qubits && b < self.n_qubits && a != b);
        let (sh, sl) = (1usize << a.max(b), 1usize << a.min(b));
        self.sweep_quads(sh, sl, |[_, h0l1, h1l0, _]| h0l1.swap_with_slice(h1l0));
    }

    /// Apply a `k`-qubit gate (general bit-gather kernel; used for Toffoli
    /// and compiled multi-qubit unitaries).
    pub fn apply_kq(&mut self, m: &Matrix<T>, qubits: &[usize]) {
        let k = qubits.len();
        assert!((1..=16).contains(&k), "apply_kq supports 1..=16 qubits");
        assert_eq!(m.rows(), 1usize << k);
        for &q in qubits {
            assert!(q < self.n_qubits);
        }
        if k == 1 {
            return self.apply_1q(m, qubits[0]);
        }
        if k == 2 {
            return self.apply_2q(m, qubits[0], qubits[1]);
        }
        // Sorted copy for zero-bit enumeration; remember the basis mapping:
        // gate basis bit (k-1-t) corresponds to qubits[t] (first argument =
        // most significant, as in ptsbe_math::gates). k ≤ 16, so the copy
        // lives on the stack instead of allocating per call.
        let mut sorted_buf = [0usize; 16];
        sorted_buf[..k].copy_from_slice(qubits);
        sorted_buf[..k].sort_unstable();
        let sorted: &[usize] = &sorted_buf[..k];
        let dim = 1usize << k;
        // For each gate-basis index, the global offset it adds.
        let mut offsets = vec![0usize; dim];
        for (g, slot) in offsets.iter_mut().enumerate() {
            let mut off = 0usize;
            for (t, &q) in qubits.iter().enumerate() {
                let bit = (g >> (k - 1 - t)) & 1;
                off |= bit << q;
            }
            *slot = off;
        }
        let qh = *sorted.last().unwrap();
        let sh = 1usize << qh;
        let sorted = &sorted;
        let offsets = &offsets;
        let kernel = move |(ci, chunk): (usize, &mut [Complex<T>])| {
            let chunk_base = ci * 2 * sh;
            let free_bits = (qh + 1) - k; // free bit positions inside chunk
            let n_groups = 1usize << free_bits;
            let mut x = vec![Complex::<T>::zero(); dim];
            for gidx in 0..n_groups {
                // Expand gidx by inserting 0 at each gate-qubit position.
                let mut base = 0usize;
                let mut src = gidx;
                let mut next_q = 0usize;
                let mut qi = 0usize;
                for pos in 0..=qh {
                    if qi < sorted.len() && sorted[qi] == pos {
                        qi += 1;
                        continue;
                    }
                    let bit = src & 1;
                    src >>= 1;
                    base |= bit << pos;
                    next_q += 1;
                }
                let _ = next_q;
                // The chunk may start at a non-zero global base, but gate
                // qubits are all ≤ qh so offsets stay inside the chunk.
                let local = base & (2 * sh - 1);
                debug_assert_eq!(base, local);
                let _ = chunk_base;
                for (g, &off) in offsets.iter().enumerate() {
                    x[g] = chunk[local + off];
                }
                for (r, &_off) in offsets.iter().enumerate() {
                    let mut acc = Complex::zero();
                    for (c, &xc) in x.iter().enumerate() {
                        acc += m[(r, c)] * xc;
                    }
                    chunk[local + offsets[r]] = acc;
                }
            }
        };
        if self.use_parallel() {
            self.amps
                .par_chunks_mut(2 * sh)
                .enumerate()
                .for_each(kernel);
        } else {
            self.amps.chunks_mut(2 * sh).enumerate().for_each(kernel);
        }
    }

    // ----- measurement & reset ------------------------------------------

    /// Collapse qubit `q` to the given outcome with proper renormalization.
    /// Returns the probability the outcome had.
    pub fn collapse(&mut self, q: usize, outcome: bool) -> T {
        let p1 = self.prob_one(q);
        let p = if outcome { p1 } else { T::ONE - p1 };
        let mask = 1usize << q;
        let keep_set = outcome;
        if p > T::ZERO {
            let inv = T::ONE / p.sqrt();
            let fix = move |(i, z): (usize, &mut Complex<T>)| {
                if (i & mask != 0) == keep_set {
                    *z = z.scale(inv);
                } else {
                    *z = Complex::zero();
                }
            };
            if self.use_parallel() {
                self.amps.par_iter_mut().enumerate().for_each(fix);
            } else {
                self.amps.iter_mut().enumerate().for_each(fix);
            }
        }
        p
    }

    /// Project qubit `q` onto |0⟩ (measure-and-flip-if-1 semantics).
    pub fn reset(&mut self, q: usize, measured_one: bool) {
        if measured_one {
            self.collapse(q, true);
            self.apply_1q(&ptsbe_math::gates::x(), q);
        } else {
            self.collapse(q, false);
        }
    }
}

/// Remap a two-qubit gate matrix from the `(bit_a << 1) | bit_b` argument
/// basis to local positions `[hl]` (h = high-qubit bit, l = low-qubit
/// bit) — the gather order of the 2-qubit amplitude sweeps.
fn local_2q_matrix<T: Scalar>(m: &Matrix<T>, a: usize, b: usize) -> [[Complex<T>; 4]; 4] {
    let qh = a.max(b);
    let pos_to_basis = |h: usize, l: usize| -> usize {
        let bit_a = if a == qh { h } else { l };
        let bit_b = if b == qh { h } else { l };
        (bit_a << 1) | bit_b
    };
    let mut mm = [[Complex::<T>::zero(); 4]; 4];
    for (r, row) in mm.iter_mut().enumerate() {
        for (c, entry) in row.iter_mut().enumerate() {
            let (rh, rl) = (r >> 1, r & 1);
            let (ch, cl) = (c >> 1, c & 1);
            *entry = m[(pos_to_basis(rh, rl), pos_to_basis(ch, cl))];
        }
    }
    mm
}

/// Remap a gate-basis diagonal to local `[hl]` run order, mirroring
/// [`local_2q_matrix`].
fn local_2q_diag<T: Scalar>(d: &[Complex<T>; 4], a: usize, b: usize) -> [Complex<T>; 4] {
    let pick = |h: usize, l: usize| {
        let (bit_a, bit_b) = if a > b { (h, l) } else { (l, h) };
        d[(bit_a << 1) | bit_b]
    };
    [pick(0, 0), pick(0, 1), pick(1, 0), pick(1, 1)]
}

/// Remap a gate-basis permutation/phase pair to local `[hl]` positions,
/// mirroring [`local_2q_matrix`].
fn local_2q_perm<T: Scalar>(
    perm: &[usize; 4],
    phase: &[Complex<T>; 4],
    a: usize,
    b: usize,
) -> ([usize; 4], [Complex<T>; 4]) {
    let qh = a.max(b);
    let pos_to_basis = |h: usize, l: usize| -> usize {
        let bit_a = if a == qh { h } else { l };
        let bit_b = if b == qh { h } else { l };
        (bit_a << 1) | bit_b
    };
    let mut basis_to_pos = [0usize; 4];
    for h in 0..2 {
        for l in 0..2 {
            basis_to_pos[pos_to_basis(h, l)] = (h << 1) | l;
        }
    }
    let mut lperm = [0usize; 4];
    let mut lphase = [Complex::<T>::zero(); 4];
    for h in 0..2 {
        for l in 0..2 {
            let r_local = (h << 1) | l;
            let r_gate = pos_to_basis(h, l);
            lperm[r_local] = basis_to_pos[perm[r_gate]];
            lphase[r_local] = phase[r_gate];
        }
    }
    (lperm, lphase)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptsbe_math::gates;

    type Sv = StateVector<f64>;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-10, "{a} != {b}");
    }

    #[test]
    fn zero_state_normalized() {
        let sv = Sv::zero_state(3);
        assert_close(sv.norm_sqr(), 1.0);
        assert_close(sv.probability(0), 1.0);
    }

    #[test]
    fn basis_state_construction() {
        let sv = Sv::basis_state(3, 5);
        assert_close(sv.probability(5), 1.0);
        assert_close(sv.prob_one(0), 1.0); // 5 = 0b101
        assert_close(sv.prob_one(1), 0.0);
        assert_close(sv.prob_one(2), 1.0);
    }

    #[test]
    fn hadamard_makes_plus() {
        let mut sv = Sv::zero_state(1);
        sv.apply_1q(&gates::h(), 0);
        assert_close(sv.probability(0), 0.5);
        assert_close(sv.probability(1), 0.5);
        // H twice = identity.
        sv.apply_1q(&gates::h(), 0);
        assert_close(sv.probability(0), 1.0);
    }

    #[test]
    fn bell_state() {
        let mut sv = Sv::zero_state(2);
        sv.apply_1q(&gates::h(), 0);
        sv.apply_cx(0, 1);
        assert_close(sv.probability(0b00), 0.5);
        assert_close(sv.probability(0b11), 0.5);
        assert_close(sv.probability(0b01), 0.0);
        assert_close(sv.probability(0b10), 0.0);
    }

    #[test]
    fn cx_via_matrix_matches_fast_path() {
        for (c, t) in [(0usize, 1usize), (1, 0), (0, 2), (2, 0), (1, 2)] {
            let mut a = Sv::zero_state(3);
            let mut b = Sv::zero_state(3);
            // Arbitrary product state.
            a.apply_1q(&gates::ry(0.7), 0);
            a.apply_1q(&gates::ry(1.1), 1);
            a.apply_1q(&gates::rx(0.3), 2);
            b.amps.copy_from_slice(&a.amps);

            a.apply_cx(c, t);
            b.apply_2q(&gates::cx(), c, t);
            for i in 0..8 {
                assert!((a.amps[i] - b.amps[i]).abs() < 1e-12, "c={c} t={t} i={i}");
            }
        }
    }

    #[test]
    fn swap_and_cz_fast_paths() {
        for (a_, b_) in [(0usize, 1usize), (2, 0), (1, 2)] {
            let mut x = Sv::zero_state(3);
            x.apply_1q(&gates::ry(0.4), 0);
            x.apply_1q(&gates::rx(0.9), 1);
            x.apply_1q(&gates::h(), 2);
            let mut y = x.clone();

            x.apply_swap(a_, b_);
            y.apply_2q(&gates::swap(), a_, b_);
            for i in 0..8 {
                assert!((x.amps[i] - y.amps[i]).abs() < 1e-12);
            }

            let mut u = x.clone();
            let mut v = x.clone();
            u.apply_cz(a_, b_);
            v.apply_2q(&gates::cz(), a_, b_);
            for i in 0..8 {
                assert!((u.amps[i] - v.amps[i]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn two_qubit_gate_qubit_order_matters() {
        // CX(0,1) on |01⟩=|q1=0,q0=1⟩: control=q0 is 1 -> flips q1 -> |11⟩.
        let mut sv = Sv::basis_state(2, 0b01);
        sv.apply_2q(&gates::cx(), 0, 1);
        assert_close(sv.probability(0b11), 1.0);
        // CX(1,0) on |01⟩: control=q1 is 0 -> no-op.
        let mut sv = Sv::basis_state(2, 0b01);
        sv.apply_2q(&gates::cx(), 1, 0);
        assert_close(sv.probability(0b01), 1.0);
    }

    #[test]
    fn ghz_state() {
        let n = 5;
        let mut sv = Sv::zero_state(n);
        sv.apply_1q(&gates::h(), 0);
        for q in 0..n - 1 {
            sv.apply_cx(q, q + 1);
        }
        assert_close(sv.probability(0), 0.5);
        assert_close(sv.probability((1 << n) - 1), 0.5);
        assert_close(sv.norm_sqr(), 1.0);
    }

    #[test]
    fn toffoli_via_kq() {
        // |110⟩: controls q2,q1 set (ccx(2,1,0)) -> flips q0 -> |111⟩.
        let mut sv = Sv::basis_state(3, 0b110);
        sv.apply_kq(&gates::ccx(), &[2, 1, 0]);
        assert_close(sv.probability(0b111), 1.0);
        // |010⟩ unchanged.
        let mut sv = Sv::basis_state(3, 0b010);
        sv.apply_kq(&gates::ccx(), &[2, 1, 0]);
        assert_close(sv.probability(0b010), 1.0);
    }

    #[test]
    fn kq_matches_2q_kernel() {
        let mut rng = ptsbe_rng::PhiloxRng::new(7, 0);
        let u = ptsbe_math::random::haar_unitary::<f64>(4, &mut rng);
        for (a, b) in [(0usize, 1usize), (1, 0), (0, 2), (2, 1)] {
            let mut x = Sv::zero_state(3);
            x.apply_1q(&gates::ry(0.5), 0);
            x.apply_1q(&gates::ry(0.2), 1);
            x.apply_1q(&gates::ry(1.4), 2);
            let mut y = x.clone();
            x.apply_2q(&u, a, b);
            y.apply_kq(&u, &[a, b]);
            for i in 0..8 {
                assert!((x.amps[i] - y.amps[i]).abs() < 1e-12, "a={a} b={b}");
            }
        }
    }

    #[test]
    fn unitarity_preserves_norm() {
        let mut rng = ptsbe_rng::PhiloxRng::new(8, 0);
        let mut sv = Sv::zero_state(6);
        for step in 0..20 {
            let u = ptsbe_math::random::haar_unitary::<f64>(2, &mut rng);
            sv.apply_1q(&u, step % 6);
            let u2 = ptsbe_math::random::haar_unitary::<f64>(4, &mut rng);
            sv.apply_2q(&u2, step % 6, (step + 1) % 6);
        }
        assert_close(sv.norm_sqr(), 1.0);
    }

    #[test]
    fn parallel_threshold_kernels_match_serial() {
        // 15 qubits crosses PARALLEL_THRESHOLD_QUBITS; verify against a
        // 10-qubit serial run embedded in the low bits.
        let n = 15;
        let mut par = Sv::zero_state(n);
        let mut reference = Sv::zero_state(10);
        let ops: Vec<(usize, usize)> = vec![(0, 1), (3, 2), (5, 0), (7, 4), (9, 8)];
        for &(a, b) in &ops {
            par.apply_1q(&gates::h(), a);
            par.apply_cx(a, b);
            reference.apply_1q(&gates::h(), a);
            reference.apply_cx(a, b);
        }
        // Compare marginals on the low 10 qubits.
        for i in 0..(1usize << 10) {
            assert!(
                (par.amps[i] - reference.amps[i]).abs() < 1e-12,
                "amp {i} differs"
            );
        }
        assert_close(par.norm_sqr(), 1.0);
    }

    #[test]
    fn expectation_and_prob_one() {
        let mut sv = Sv::zero_state(2);
        assert_close(sv.expectation_z(0), 1.0);
        sv.apply_1q(&gates::x(), 0);
        assert_close(sv.expectation_z(0), -1.0);
        sv.apply_1q(&gates::h(), 1);
        assert_close(sv.expectation_z(1), 0.0);
        assert_close(sv.prob_one(1), 0.5);
    }

    #[test]
    fn collapse_renormalizes() {
        let mut sv = Sv::zero_state(2);
        sv.apply_1q(&gates::h(), 0);
        sv.apply_cx(0, 1);
        let p = sv.collapse(0, true);
        assert_close(p, 0.5);
        assert_close(sv.norm_sqr(), 1.0);
        assert_close(sv.probability(0b11), 1.0);
    }

    #[test]
    fn reset_forces_zero() {
        let mut sv = Sv::zero_state(1);
        sv.apply_1q(&gates::x(), 0);
        sv.reset(0, true);
        assert_close(sv.probability(0), 1.0);
        assert_close(sv.norm_sqr(), 1.0);
    }

    #[test]
    fn fidelity_of_rotated_states() {
        let mut a = Sv::zero_state(1);
        let mut b = Sv::zero_state(1);
        b.apply_1q(&gates::ry(0.6), 0);
        a.apply_1q(&gates::ry(0.2), 0);
        // |<a|b>|^2 = cos^2((0.6-0.2)/2)
        let expect = (0.2f64).cos().powi(2);
        assert_close(a.fidelity(&b), expect);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn qubit_bounds() {
        let mut sv = Sv::zero_state(2);
        sv.apply_1q(&gates::h(), 2);
    }

    // ----- fused kernel classes vs generic dense apply ------------------

    /// A random (unnormalized-phase) state to exercise every amplitude.
    fn random_state(n: usize, seed: u64) -> Sv {
        let mut rng = ptsbe_rng::PhiloxRng::new(seed, 0);
        let mut sv = Sv::zero_state(n);
        for q in 0..n {
            let u = ptsbe_math::random::haar_unitary::<f64>(2, &mut rng);
            sv.apply_1q(&u, q);
        }
        for q in 0..n - 1 {
            sv.apply_cx(q, q + 1);
            sv.apply_1q(&gates::t(), q);
        }
        sv
    }

    fn assert_states_close(a: &Sv, b: &Sv, label: &str) {
        for (i, (x, y)) in a.amps.iter().zip(&b.amps).enumerate() {
            assert!((*x - *y).abs() < 1e-12, "{label}: amp {i} differs");
        }
    }

    #[test]
    fn diag_1q_matches_dense_including_edge_qubits() {
        let n = 5;
        for q in [0, 2, n - 1] {
            let mut fast = random_state(n, 500 + q as u64);
            let mut dense = fast.clone();
            let d = [
                ptsbe_math::Complex::cis(0.3),
                ptsbe_math::Complex::cis(-1.1),
            ];
            let mut m = ptsbe_math::Matrix::<f64>::zeros(2, 2);
            m[(0, 0)] = d[0];
            m[(1, 1)] = d[1];
            fast.apply_diag_1q(&d, q);
            dense.apply_1q(&m, q);
            assert_states_close(&fast, &dense, &format!("diag1 q={q}"));
        }
    }

    #[test]
    fn diag_2q_matches_dense_on_all_pairs() {
        let n = 4;
        // Includes non-adjacent pairs, both argument orders, and the
        // top/bottom qubits.
        for (a, b) in [(0usize, 1usize), (1, 0), (0, 3), (3, 0), (1, 3), (2, 1)] {
            let mut fast = random_state(n, 600);
            let mut dense = fast.clone();
            let d = [
                ptsbe_math::Complex::cis(0.2),
                ptsbe_math::Complex::cis(1.7),
                ptsbe_math::Complex::cis(-0.4),
                ptsbe_math::Complex::cis(2.9),
            ];
            let mut m = ptsbe_math::Matrix::<f64>::zeros(4, 4);
            for i in 0..4 {
                m[(i, i)] = d[i];
            }
            fast.apply_diag_2q(&d, a, b);
            dense.apply_2q(&m, a, b);
            assert_states_close(&fast, &dense, &format!("diag2 a={a} b={b}"));
        }
    }

    #[test]
    fn perm_1q_matches_dense_including_edge_qubits() {
        let n = 5;
        // Y-like op: off-diagonal with phases.
        let perm = [1usize, 0];
        let phase = [
            ptsbe_math::Complex::cis(0.9),
            ptsbe_math::Complex::cis(-2.2),
        ];
        for q in [0, 3, n - 1] {
            let mut fast = random_state(n, 700 + q as u64);
            let mut dense = fast.clone();
            let mut m = ptsbe_math::Matrix::<f64>::zeros(2, 2);
            m[(0, perm[0])] = phase[0];
            m[(1, perm[1])] = phase[1];
            fast.apply_perm_1q(&perm, &phase, q);
            dense.apply_1q(&m, q);
            assert_states_close(&fast, &dense, &format!("perm1 q={q}"));
        }
    }

    #[test]
    fn perm_2q_matches_dense_on_all_pairs() {
        let n = 4;
        // A 4-cycle with phases: out[r] = phase[r] * in[perm[r]].
        let perm = [2usize, 0, 3, 1];
        let phase = [
            ptsbe_math::Complex::cis(0.1),
            ptsbe_math::Complex::cis(1.2),
            ptsbe_math::Complex::cis(-0.7),
            ptsbe_math::Complex::cis(2.4),
        ];
        let mut m = ptsbe_math::Matrix::<f64>::zeros(4, 4);
        for r in 0..4 {
            m[(r, perm[r])] = phase[r];
        }
        // Non-adjacent pairs, both argument orders, top/bottom qubits.
        for (a, b) in [(0usize, 1usize), (1, 0), (0, 3), (3, 0), (2, 0), (1, 3)] {
            let mut fast = random_state(n, 800);
            let mut dense = fast.clone();
            fast.apply_perm_2q(&perm, &phase, a, b);
            dense.apply_2q(&m, a, b);
            assert_states_close(&fast, &dense, &format!("perm2 a={a} b={b}"));
        }
    }

    #[test]
    fn copy_from_recycles_allocation_bitwise() {
        let src = random_state(6, 900);
        // Dirty destination of a different size: copy must fully overwrite
        // and adopt the source shape without allocating when capacity fits.
        let mut dst = random_state(6, 901);
        let cap_before = dst.amps.capacity();
        let ptr_before = dst.amps.as_ptr();
        dst.copy_from(&src);
        assert_eq!(dst.n_qubits(), 6);
        assert_eq!(dst.amps.capacity(), cap_before);
        assert_eq!(dst.amps.as_ptr(), ptr_before, "must reuse the buffer");
        for (a, b) in dst.amps.iter().zip(&src.amps) {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
        // Smaller source: shape shrinks, stale tail cannot survive.
        let small = random_state(3, 902);
        dst.copy_from(&small);
        assert_eq!(dst.n_qubits(), 3);
        assert_eq!(dst.amplitudes().len(), 8);
    }

    #[test]
    fn reinit_and_reset_zero_reuse_buffer() {
        let mut sv = random_state(5, 903);
        let ptr = sv.amps.as_ptr();
        sv.reset_zero();
        assert_eq!(sv.amps.as_ptr(), ptr);
        assert_close(sv.probability(0), 1.0);
        assert_close(sv.norm_sqr(), 1.0);
        sv.reinit(4);
        assert_eq!(sv.n_qubits(), 4);
        assert!(sv.amplitudes().iter().all(|z| *z == Complex::zero()));
    }

    #[test]
    fn fast_kernels_match_dense_above_parallel_threshold() {
        // Cross PARALLEL_THRESHOLD_QUBITS so the rayon branches of the
        // diagonal/permutation kernels are exercised too.
        let n = crate::PARALLEL_THRESHOLD_QUBITS + 1;
        let mut fast = Sv::zero_state(n);
        for q in 0..n {
            fast.apply_1q(&gates::h(), q);
        }
        let mut dense = fast.clone();
        let d = [
            ptsbe_math::Complex::cis(0.5),
            ptsbe_math::Complex::cis(-0.8),
        ];
        let mut dm = ptsbe_math::Matrix::<f64>::zeros(2, 2);
        dm[(0, 0)] = d[0];
        dm[(1, 1)] = d[1];
        fast.apply_diag_1q(&d, n - 1);
        dense.apply_1q(&dm, n - 1);

        let perm = [1usize, 0];
        let phase = [ptsbe_math::Complex::one(), ptsbe_math::Complex::one()];
        let mut pm = ptsbe_math::Matrix::<f64>::zeros(2, 2);
        pm[(0, 1)] = phase[0];
        pm[(1, 0)] = phase[1];
        fast.apply_perm_1q(&perm, &phase, 0);
        dense.apply_1q(&pm, 0);

        let cx_perm = [0usize, 1, 3, 2];
        let cx_phase = [ptsbe_math::Complex::one(); 4];
        fast.apply_perm_2q(&cx_perm, &cx_phase, n - 1, 0);
        dense.apply_2q(&gates::cx(), n - 1, 0);
        for i in (0..1usize << n).step_by(127) {
            assert!((fast.amps[i] - dense.amps[i]).abs() < 1e-12, "amp {i}");
        }
    }
}
