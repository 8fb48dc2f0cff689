//! Batch-major statevector execution: `B` trajectory states in split
//! re/im amplitude planes, every gate applied across all lanes per sweep.
//!
//! [`StateBatch`] stores the amplitudes of `B` trajectory states
//! *structure-of-arrays twice over*: amplitude-major across trajectories
//! **and** split into separate real and imaginary planes —
//! `re[i * B + lane]` / `im[i * B + lane]` hold amplitude `i` of lane
//! `lane`. A gate kernel walks the amplitude pairs exactly once and
//! processes all `B` lanes of each pair in contiguous inner loops over
//! the two planes. The split layout is what qsim-style simulators use to
//! saturate FMA units: complex arithmetic over split planes is pure
//! mul/`mul_add` chains with no re/im shuffles, so the compiler (or the
//! explicit AVX2 path) lowers it straight to packed FMA.
//!
//! The *arithmetic* for each contiguous run lives behind the
//! [`crate::kernels::BatchKernels`] dispatch trait (scalar-reference /
//! SoA-autovec / SoA-simd, chosen at construction, forced via
//! `PTSBE_BATCH_KERNELS`); this module owns the *geometry* — which runs
//! of the planes a gate touches, chunking, and the rayon fan-out. The
//! run decomposition itself (`kernels::quad_runs`: the four
//! runs of a two-qubit quad) is shared with [`StateVector`], which is
//! the `B = 1` case over interleaved complexes; CX / SWAP swap two of a
//! quad's runs per plane and CZ negates one, with no per-row predicate.
//! A GPU/accelerator backend can slot in as another `BatchKernels`
//! implementation without touching [`advance_batch`] or the executors.
//!
//! Bitwise contract: every kernel routes its per-lane arithmetic through
//! the same parts-level helpers ([`ptsbe_math::cplx_mul_parts`] /
//! [`ptsbe_math::cplx_mul_add_parts`]) as the scalar
//! [`crate::state::StateVector`] kernels, with the same operand order
//! and the same 4096-amplitude block grouping for norm accumulation. A
//! lane of a [`StateBatch`] advanced through [`advance_batch`] is
//! therefore bit-identical to a [`StateVector`] advanced through
//! [`crate::exec::advance`] under the same assignment — for *all three*
//! kernel implementations — the property `tests/batch_pool_equivalence`
//! and `tests/proptest_batch_kernels` enforce end-to-end.

use ptsbe_math::{cplx_mul_parts, Complex, Matrix, Scalar};
use rayon::prelude::*;
use std::ops::Range;

use crate::exec::{apply_op, apply_site, Compiled, CompiledSite};
use crate::kernels::{dispatch, quad_runs, BatchKernels, KernelImpl, LaneMats2, LaneMats4, Run};
use crate::state::{local_2q_diag, local_2q_matrix, local_2q_perm, StateVector};
use crate::PARALLEL_THRESHOLD_QUBITS;
use ptsbe_circuit::lower::Pick;

/// Rows per chunk for row-sweep operations (normalization).
const ROWS_PER_CHUNK: usize = 1 << 12;

/// `B` pure states of `n` qubits in split re/im amplitude planes.
#[derive(Clone, Debug)]
pub struct StateBatch<T: Scalar> {
    n_qubits: usize,
    n_lanes: usize,
    /// `re[i * n_lanes + lane]` = real part of amplitude `i`, lane `lane`.
    re: Vec<T>,
    /// Imaginary plane, same indexing.
    im: Vec<T>,
    /// Whether sweeps fan out over rayon, decided once at construction —
    /// `current_num_threads()` costs a syscall, far too hot for per-op.
    use_par: bool,
    /// Which kernel implementation processes runs (resolved, never a
    /// SIMD request on a machine that can't run it).
    kernels: KernelImpl,
}

impl<T: Scalar> StateBatch<T> {
    /// `B` copies of `|0…0⟩` with the default kernel implementation
    /// ([`KernelImpl::auto`]: `PTSBE_BATCH_KERNELS` when set, else SIMD
    /// where supported).
    ///
    /// # Panics
    /// Panics on zero lanes or more than 48 qubits (same guard as
    /// [`StateVector::zero_state`]).
    pub fn zero_states(n_qubits: usize, n_lanes: usize) -> Self {
        Self::zero_states_with(n_qubits, n_lanes, KernelImpl::auto())
    }

    /// [`StateBatch::zero_states`] with an explicit kernel
    /// implementation (downgraded via [`KernelImpl::resolve`] when the
    /// machine can't run it).
    pub fn zero_states_with(n_qubits: usize, n_lanes: usize, kernels: KernelImpl) -> Self {
        let mut batch = Self {
            n_qubits: 0,
            n_lanes: 0,
            re: Vec::new(),
            im: Vec::new(),
            use_par: false,
            kernels: kernels.resolve(),
        };
        batch.reinit(n_qubits, n_lanes);
        batch
    }

    /// Reset to `B` copies of `|0…0⟩` of the given shape, reusing the
    /// plane allocations when capacity allows (the pool-recycling path).
    /// Every element of both planes is overwritten, so a recycled batch
    /// can never leak a previous group's amplitudes.
    ///
    /// # Panics
    /// Same guards as [`StateBatch::zero_states`].
    pub fn reinit(&mut self, n_qubits: usize, n_lanes: usize) {
        assert!(n_lanes > 0, "a batch needs at least one lane");
        assert!(
            n_qubits <= 48,
            "statevector of {n_qubits} qubits is not addressable"
        );
        let len = (1usize << n_qubits) * n_lanes;
        self.re.clear();
        self.re.resize(len, T::ZERO);
        self.im.clear();
        self.im.resize(len, T::ZERO);
        self.re[..n_lanes].fill(T::ONE);
        self.n_qubits = n_qubits;
        self.n_lanes = n_lanes;
        self.use_par =
            len >= 1usize << PARALLEL_THRESHOLD_QUBITS && rayon::current_num_threads() > 1;
    }

    /// Number of qubits per lane.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Number of lanes (trajectory states).
    pub fn n_lanes(&self) -> usize {
        self.n_lanes
    }

    /// Which kernel implementation this batch dispatches to.
    pub fn kernel_impl(&self) -> KernelImpl {
        self.kernels
    }

    /// The raw split planes `(re, im)`, both indexed
    /// `[amp_index * n_lanes + lane]` (tests and transposition code).
    pub fn planes(&self) -> (&[T], &[T]) {
        (&self.re, &self.im)
    }

    /// Amplitude `i` of lane `lane`.
    #[inline]
    pub fn amplitude(&self, lane: usize, i: usize) -> Complex<T> {
        let j = i * self.n_lanes + lane;
        Complex::new(self.re[j], self.im[j])
    }

    /// Gather one lane into a contiguous [`StateVector`], reusing `dst`'s
    /// allocation (the bulk samplers and the scalar Kraus fallback both
    /// want contiguous interleaved amplitudes).
    pub fn extract_lane_into(&self, lane: usize, dst: &mut StateVector<T>) {
        assert!(lane < self.n_lanes);
        // The gather overwrites every element; only reshape (and pay the
        // zero fill) when the destination has the wrong size.
        if dst.n_qubits() != self.n_qubits || dst.amplitudes().len() != 1usize << self.n_qubits {
            dst.reinit(self.n_qubits);
        }
        let b = self.n_lanes;
        for (i, d) in dst.amplitudes_mut().iter_mut().enumerate() {
            let j = i * b + lane;
            *d = Complex::new(self.re[j], self.im[j]);
        }
    }

    /// Scatter a contiguous state back into one lane (inverse of
    /// [`StateBatch::extract_lane_into`]).
    pub fn load_lane(&mut self, lane: usize, src: &StateVector<T>) {
        assert!(lane < self.n_lanes);
        assert_eq!(src.n_qubits(), self.n_qubits, "lane shape mismatch");
        let b = self.n_lanes;
        for (i, s) in src.amplitudes().iter().enumerate() {
            let j = i * b + lane;
            self.re[j] = s.re;
            self.im[j] = s.im;
        }
    }

    /// The resolved run-kernel implementation.
    #[inline]
    fn kern(&self) -> &'static dyn BatchKernels<T> {
        dispatch(self.kernels)
    }

    // ----- sweep drivers ------------------------------------------------
    //
    // All gate kernels are built from sweeps over the amplitude-row axis
    // (a "row" = the `B` contiguous lane values of one amplitude index,
    // split across the two planes). Uniform (same-matrix-every-lane)
    // sweeps flatten the lane axis away entirely: the elements a 1-qubit
    // gate pairs sit `2^q · B` apart, so whole runs of `2^q · B`
    // contiguous plane elements feed one kernel call. Per-lane sweeps
    // (Kraus branch points) keep the row structure to know which lane
    // they are in. Gate kernels are per-amplitude independent, so
    // chunking never changes their values — parallelism can follow the
    // thread budget (sampled once at construction). Rayon splits at
    // chunk boundaries, so parallel and serial sweeps hand identical
    // element groups to identical kernel calls.

    /// Apply `f(re_chunk, im_chunk)` to matching plane chunks of
    /// `chunk` elements each.
    fn for_chunks<F>(&mut self, chunk: usize, f: F)
    where
        F: Fn(&mut [T], &mut [T]) + Sync + Send,
    {
        if self.use_par {
            let pairs: Vec<(&mut [T], &mut [T])> = self
                .re
                .chunks_mut(chunk)
                .zip(self.im.chunks_mut(chunk))
                .collect();
            pairs.into_par_iter().for_each(|(r, i)| f(r, i));
        } else {
            for (r, i) in self.re.chunks_mut(chunk).zip(self.im.chunks_mut(chunk)) {
                f(r, i);
            }
        }
    }

    /// Hand `f` the four `(re, im)` runs `[h0l0, h0l1, h1l0, h1l1]` of
    /// every quad of a two-qubit gate on bits `sh > sl`
    /// ([`quad_runs`] with `B` lanes per row).
    fn for_quads<F>(&mut self, sh: usize, sl: usize, f: F)
    where
        F: Fn([Run<'_, T>; 4]) + Sync + Send,
    {
        let bl = self.n_lanes;
        self.for_chunks(2 * sh * bl, move |re, im| {
            let mut base = 0usize;
            while base < sh {
                let [r0, r1, r2, r3] = quad_runs(re, base, sh, sl, bl);
                let [i0, i1, i2, i3] = quad_runs(im, base, sh, sl, bl);
                f([(r0, i0), (r1, i1), (r2, i2), (r3, i3)]);
                base += 2 * sl;
            }
        });
    }

    // ----- gate kernels -------------------------------------------------

    /// Dense single-qubit gate, same matrix on every lane.
    pub fn apply_1q(&mut self, m: &Matrix<T>, q: usize) {
        assert!(q < self.n_qubits, "qubit {q} out of range");
        assert_eq!((m.rows(), m.cols()), (2, 2));
        let e = [m[(0, 0)], m[(0, 1)], m[(1, 0)], m[(1, 1)]];
        let er = e.map(|z| z.re);
        let ei = e.map(|z| z.im);
        let half = (1usize << q) * self.n_lanes;
        let kern = self.kern();
        self.for_chunks(2 * half, move |re, im| {
            let (lo_re, hi_re) = re.split_at_mut(half);
            let (lo_im, hi_im) = im.split_at_mut(half);
            kern.mat2_run(&er, &ei, (lo_re, lo_im), (hi_re, hi_im));
        });
    }

    /// Per-lane dense single-qubit application (shared by the public
    /// masked/unmasked entry points).
    fn apply_1q_lanes_inner(&mut self, es: &[[Complex<T>; 4]], skip: Option<&[bool]>, q: usize) {
        assert!(q < self.n_qubits, "qubit {q} out of range");
        assert_eq!(es.len(), self.n_lanes);
        if let Some(s) = skip {
            assert_eq!(s.len(), self.n_lanes);
        }
        let lm = LaneMats2::from_entries(es);
        let skip: Option<Vec<bool>> = skip.map(<[bool]>::to_vec);
        let half = (1usize << q) * self.n_lanes;
        let kern = self.kern();
        self.for_chunks(2 * half, move |re, im| {
            let (lo_re, hi_re) = re.split_at_mut(half);
            let (lo_im, hi_im) = im.split_at_mut(half);
            kern.mat2_lanes_run(&lm, skip.as_deref(), (lo_re, lo_im), (hi_re, hi_im));
        });
    }

    /// Dense single-qubit gate with one matrix per lane (Kraus branch
    /// points where lanes chose different branches). `es[lane]` holds the
    /// row-major entries `[m00, m01, m10, m11]`.
    pub fn apply_1q_lanes(&mut self, es: &[[Complex<T>; 4]], q: usize) {
        self.apply_1q_lanes_inner(es, None, q);
    }

    /// [`StateBatch::apply_1q_lanes`] with a skip mask: lanes whose flag
    /// is set pass through untouched. This is how diverging Kraus branch
    /// points honor the exact-identity skip — a skipped lane's amplitudes
    /// keep their exact bits (applying an identity matrix would not:
    /// `0·x` terms can flip signed zeros), matching the scalar path that
    /// elides the same branch.
    pub fn apply_1q_lanes_masked(&mut self, es: &[[Complex<T>; 4]], skip: &[bool], q: usize) {
        self.apply_1q_lanes_inner(es, Some(skip), q);
    }

    /// Dense two-qubit gate, same matrix on every lane (gate basis
    /// `(bit_a << 1) | bit_b`).
    pub fn apply_2q(&mut self, m: &Matrix<T>, a: usize, b: usize) {
        assert!(a < self.n_qubits && b < self.n_qubits && a != b);
        assert_eq!((m.rows(), m.cols()), (4, 4));
        let (mr, mi) = split_mat4(&local_2q_matrix(m, a, b));
        let (sh, sl) = (1usize << a.max(b), 1usize << a.min(b));
        let kern = self.kern();
        self.for_quads(sh, sl, move |runs| kern.mat4_run(&mr, &mi, runs));
    }

    /// Per-lane dense two-qubit application (shared by the public
    /// masked/unmasked entry points).
    fn apply_2q_lanes_inner(
        &mut self,
        mms: &[[[Complex<T>; 4]; 4]],
        skip: Option<&[bool]>,
        a: usize,
        b: usize,
    ) {
        assert!(a < self.n_qubits && b < self.n_qubits && a != b);
        assert_eq!(mms.len(), self.n_lanes);
        if let Some(s) = skip {
            assert_eq!(s.len(), self.n_lanes);
        }
        let lm = LaneMats4::from_mats(mms);
        let skip: Option<Vec<bool>> = skip.map(<[bool]>::to_vec);
        let (sh, sl) = (1usize << a.max(b), 1usize << a.min(b));
        let kern = self.kern();
        self.for_quads(sh, sl, move |runs| {
            kern.mat4_lanes_run(&lm, skip.as_deref(), runs)
        });
    }

    /// Dense two-qubit gate with one matrix per lane; `mms[lane]` must
    /// already be in local `[hl]` order (see [`localize_2q`]).
    pub fn apply_2q_lanes(&mut self, mms: &[[[Complex<T>; 4]; 4]], a: usize, b: usize) {
        self.apply_2q_lanes_inner(mms, None, a, b);
    }

    /// [`StateBatch::apply_2q_lanes`] with a skip mask (see
    /// [`StateBatch::apply_1q_lanes_masked`]).
    pub fn apply_2q_lanes_masked(
        &mut self,
        mms: &[[[Complex<T>; 4]; 4]],
        skip: &[bool],
        a: usize,
        b: usize,
    ) {
        self.apply_2q_lanes_inner(mms, Some(skip), a, b);
    }

    /// Diagonal single-qubit fast path (pure phase multiply). The factor
    /// is constant over each `2^q · B` run, so the sweep is two flat
    /// plane scalings per pair block.
    pub fn apply_diag_1q(&mut self, d: &[Complex<T>; 2], q: usize) {
        assert!(q < self.n_qubits, "qubit {q} out of range");
        let (d0, d1) = ((d[0].re, d[0].im), (d[1].re, d[1].im));
        let half = (1usize << q) * self.n_lanes;
        let kern = self.kern();
        self.for_chunks(2 * half, move |re, im| {
            let (lo_re, hi_re) = re.split_at_mut(half);
            let (lo_im, hi_im) = im.split_at_mut(half);
            kern.cmul_run(d0, (lo_re, lo_im));
            kern.cmul_run(d1, (hi_re, hi_im));
        });
    }

    /// Diagonal two-qubit fast path, gate basis `(bit_a << 1) | bit_b`.
    pub fn apply_diag_2q(&mut self, d: &[Complex<T>; 4], a: usize, b: usize) {
        assert!(a < self.n_qubits && b < self.n_qubits && a != b);
        let ld = local_2q_diag(d, a, b).map(|z| (z.re, z.im));
        let (sh, sl) = (1usize << a.max(b), 1usize << a.min(b));
        let kern = self.kern();
        self.for_quads(sh, sl, move |runs| {
            for (d, run) in ld.into_iter().zip(runs) {
                kern.cmul_run(d, run);
            }
        });
    }

    /// Single-qubit permutation fast path:
    /// `out[r] = phase[r] * in[perm[r]]` in the qubit's local basis.
    pub fn apply_perm_1q(&mut self, perm: &[usize; 2], phase: &[Complex<T>; 2], q: usize) {
        assert!(q < self.n_qubits, "qubit {q} out of range");
        assert!(perm[0] < 2 && perm[1] < 2);
        let perm = *perm;
        let phr = phase.map(|z| z.re);
        let phi = phase.map(|z| z.im);
        let half = (1usize << q) * self.n_lanes;
        let kern = self.kern();
        self.for_chunks(2 * half, move |re, im| {
            let (lo_re, hi_re) = re.split_at_mut(half);
            let (lo_im, hi_im) = im.split_at_mut(half);
            kern.perm2_run(&perm, &phr, &phi, (lo_re, lo_im), (hi_re, hi_im));
        });
    }

    /// Two-qubit permutation fast path, gate basis `(bit_a << 1) | bit_b`.
    pub fn apply_perm_2q(
        &mut self,
        perm: &[usize; 4],
        phase: &[Complex<T>; 4],
        a: usize,
        b: usize,
    ) {
        assert!(a < self.n_qubits && b < self.n_qubits && a != b);
        assert!(perm.iter().all(|&p| p < 4));
        let (lperm, lphase) = local_2q_perm(perm, phase, a, b);
        let phr = lphase.map(|z| z.re);
        let phi = lphase.map(|z| z.im);
        let (sh, sl) = (1usize << a.max(b), 1usize << a.min(b));
        let kern = self.kern();
        self.for_quads(sh, sl, move |runs| kern.perm4_run(&lperm, &phr, &phi, runs));
    }

    /// CNOT fast path (no arithmetic — pure plane memmoves, identical
    /// under every kernel implementation): one run swap per quad and
    /// plane, the two control-set runs.
    pub fn apply_cx(&mut self, control: usize, target: usize) {
        assert!(control < self.n_qubits && target < self.n_qubits && control != target);
        let (sh, sl) = (1usize << control.max(target), 1usize << control.min(target));
        if control > target {
            self.for_quads(sh, sl, |[_, _, h1l0, h1l1]| swap_runs(h1l0, h1l1));
        } else {
            self.for_quads(sh, sl, |[_, h0l1, _, h1l1]| swap_runs(h0l1, h1l1));
        }
    }

    /// SWAP fast path: exchange the two singly-set runs of each quad.
    pub fn apply_swap(&mut self, a: usize, b: usize) {
        assert!(a < self.n_qubits && b < self.n_qubits && a != b);
        let (sh, sl) = (1usize << a.max(b), 1usize << a.min(b));
        self.for_quads(sh, sl, |[_, h0l1, h1l0, _]| swap_runs(h0l1, h1l0));
    }

    /// CZ fast path (sign flip on the doubly-set quarter — local quad
    /// position `[h1l1]`).
    pub fn apply_cz(&mut self, a: usize, b: usize) {
        assert!(a < self.n_qubits && b < self.n_qubits && a != b);
        let (sh, sl) = (1usize << a.max(b), 1usize << a.min(b));
        let kern = self.kern();
        self.for_quads(sh, sl, move |[_, _, _, h1l1]| kern.neg_run(h1l1));
    }

    /// General `k`-qubit gather kernel, same matrix on every lane
    /// (Toffoli and compiled multi-qubit unitaries). Mirrors
    /// [`StateVector::apply_kq`]'s enumeration and accumulation order
    /// (plain multiply + add per term, *not* fused), widened over the
    /// lane axis: each of the `2^k` gathered rows is a contiguous
    /// `B`-element slice of each plane.
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
        let mut sorted_buf = [0usize; 16];
        sorted_buf[..k].copy_from_slice(qubits);
        sorted_buf[..k].sort_unstable();
        let sorted: &[usize] = &sorted_buf[..k];
        let dim = 1usize << k;
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
        let b = self.n_lanes;
        let offsets = &offsets;
        // Split the matrix once; the inner accumulation reads plane
        // scalars, not Complex values.
        let dimsq = dim * dim;
        let mut mrv = vec![T::ZERO; dimsq];
        let mut miv = vec![T::ZERO; dimsq];
        for r in 0..dim {
            for c in 0..dim {
                let z = m[(r, c)];
                mrv[r * dim + c] = z.re;
                miv[r * dim + c] = z.im;
            }
        }
        let (mrv, miv) = (&mrv, &miv);
        self.for_chunks(2 * sh * b, move |chunk_re, chunk_im| {
            let free_bits = (qh + 1) - k;
            let n_groups = 1usize << free_bits;
            // Gather buffers: row-contiguous SoA copies of the 2^k rows
            // a group combines, plus one output row accumulator.
            let mut xr = vec![T::ZERO; dim * b];
            let mut xi = vec![T::ZERO; dim * b];
            let mut accr = vec![T::ZERO; b];
            let mut acci = vec![T::ZERO; b];
            for gidx in 0..n_groups {
                // Expand gidx by inserting 0 at each gate-qubit position.
                let mut base = 0usize;
                let mut src = gidx;
                let mut qi = 0usize;
                for pos in 0..=qh {
                    if qi < sorted.len() && sorted[qi] == pos {
                        qi += 1;
                        continue;
                    }
                    base |= (src & 1) << pos;
                    src >>= 1;
                }
                for (g, &off) in offsets.iter().enumerate() {
                    let s = (base + off) * b;
                    xr[g * b..(g + 1) * b].copy_from_slice(&chunk_re[s..s + b]);
                    xi[g * b..(g + 1) * b].copy_from_slice(&chunk_im[s..s + b]);
                }
                for (r, &off) in offsets.iter().enumerate() {
                    accr.fill(T::ZERO);
                    acci.fill(T::ZERO);
                    for c in 0..dim {
                        let (er, ei) = (mrv[r * dim + c], miv[r * dim + c]);
                        let (col_r, col_i) = (&xr[c * b..(c + 1) * b], &xi[c * b..(c + 1) * b]);
                        for j in 0..b {
                            let (tr, ti) = cplx_mul_parts(er, ei, col_r[j], col_i[j]);
                            accr[j] += tr;
                            acci[j] += ti;
                        }
                    }
                    let s = (base + off) * b;
                    chunk_re[s..s + b].copy_from_slice(&accr);
                    chunk_im[s..s + b].copy_from_slice(&acci);
                }
            }
        });
    }

    // ----- per-lane norms -----------------------------------------------

    /// Per-lane `⟨ψ|ψ⟩`, accumulated in the same 4096-amplitude block
    /// grouping (and the same precision `T`) as
    /// [`StateVector::norm_sqr`], so a lane's norm is bit-identical to
    /// the scalar path's.
    pub fn norm_sqr_lanes(&self, out: &mut [T]) {
        assert_eq!(out.len(), self.n_lanes);
        let b = self.n_lanes;
        let n_amps = 1usize << self.n_qubits;
        let block = if self.n_qubits >= PARALLEL_THRESHOLD_QUBITS {
            4096
        } else {
            n_amps
        };
        let kern = self.kern();
        out.fill(T::ZERO);
        let mut block_sum = vec![T::ZERO; b];
        for (rows_re, rows_im) in self.re.chunks(block * b).zip(self.im.chunks(block * b)) {
            block_sum.fill(T::ZERO);
            kern.norm_acc_rows(rows_re, rows_im, b, &mut block_sum);
            for (o, s) in out.iter_mut().zip(&block_sum) {
                *o += *s;
            }
        }
    }

    /// Normalize each lane given its pre-computed squared norm
    /// (zero-norm lanes are left untouched, like
    /// [`StateVector::normalize`]).
    pub fn normalize_lanes(&mut self, n2: &[T]) {
        assert_eq!(n2.len(), self.n_lanes);
        // Scaling by exactly 1 is a bitwise no-op for finite values, so
        // zero-norm lanes ride the same branch-free sweep.
        let inv: Vec<T> = n2
            .iter()
            .map(|&n| {
                if n > T::ZERO {
                    T::ONE / n.sqrt()
                } else {
                    T::ONE
                }
            })
            .collect();
        let b = self.n_lanes;
        let kern = self.kern();
        self.for_chunks(ROWS_PER_CHUNK * b, move |re, im| {
            kern.scale_rows((re, im), b, &inv);
        });
    }
}

/// Exchange two split-plane runs.
#[inline]
fn swap_runs<T>(x: Run<'_, T>, y: Run<'_, T>) {
    x.0.swap_with_slice(y.0);
    x.1.swap_with_slice(y.1);
}

/// Split a localized complex 4×4 into real/imaginary entry matrices.
fn split_mat4<T: Scalar>(mm: &[[Complex<T>; 4]; 4]) -> ([[T; 4]; 4], [[T; 4]; 4]) {
    let mr = mm.map(|row| row.map(|z| z.re));
    let mi = mm.map(|row| row.map(|z| z.im));
    (mr, mi)
}

/// Localize a two-qubit matrix for [`StateBatch::apply_2q_lanes`].
pub fn localize_2q<T: Scalar>(m: &Matrix<T>, a: usize, b: usize) -> [[Complex<T>; 4]; 4] {
    local_2q_matrix(m, a, b)
}

// ---------------------------------------------------------------------------
// Batch-major circuit execution

/// Advance all lanes of a batch through segments
/// `segments.start..segments.end`, resolving each fired noise site
/// through that lane's assignment (`choices[lane][site_id]`), and
/// multiply each lane's realized partial probability into
/// `realized[lane]` — the batch-major analog of
/// [`crate::exec::advance`], bit-identical per lane.
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
    let fired = segments.end.min(compiled.sites().len());
    for c in choices {
        assert!(
            c.len() >= fired,
            "assignment length {} does not cover sites fired by segments {segments:?}",
            c.len()
        );
    }
    let mut n2 = vec![T::ZERO; batch.n_lanes()];
    for op in compiled.segment_ops(segments) {
        apply_op!(batch, op, id => {
            let site = &compiled.sites()[*id];
            let k0 = choices[0][*id];
            let uniform = choices.iter().all(|c| c[*id] == k0);
            if site.qubits.len() > 2 {
                // Arity ≥ 3 sites take the scalar path per lane (the
                // noise-model zoo never produces them; correctness
                // beats speed on this branch).
                apply_site_via_scalar(batch, site, *id, choices, realized);
            } else if site.is_unitary_mixture {
                for (r, c) in realized.iter_mut().zip(choices) {
                    *r *= site.probs[c[*id]];
                }
                // A uniformly skippable branch (the low-noise common
                // case: every lane drew the identity) elides the
                // whole sweep; divergent groups skip per lane inside
                // the masked kernels.
                if !(uniform && site.skips(k0)) {
                    apply_site_mats(batch, site, choices, *id, uniform, k0);
                }
            } else {
                apply_site_mats(batch, site, choices, *id, uniform, k0);
                batch.norm_sqr_lanes(&mut n2);
                for (r, n) in realized.iter_mut().zip(&n2) {
                    *r *= n.to_f64();
                }
                batch.normalize_lanes(&n2);
            }
        });
    }
}

/// Apply each lane's chosen branch matrix of a 1-/2-qubit site.
fn apply_site_mats<T: Scalar>(
    batch: &mut StateBatch<T>,
    site: &CompiledSite<T>,
    choices: &[&[usize]],
    id: usize,
    uniform: bool,
    k0: usize,
) {
    match site.qubits.as_slice() {
        [q] => {
            if uniform {
                batch.apply_1q(&site.mats[k0], *q);
            } else {
                let es: Vec<[Complex<T>; 4]> = choices
                    .iter()
                    .map(|c| {
                        let m = &site.mats[c[id]];
                        [m[(0, 0)], m[(0, 1)], m[(1, 0)], m[(1, 1)]]
                    })
                    .collect();
                let skip: Vec<bool> = choices.iter().map(|c| site.skips(c[id])).collect();
                if skip.iter().any(|&s| s) {
                    batch.apply_1q_lanes_masked(&es, &skip, *q);
                } else {
                    batch.apply_1q_lanes(&es, *q);
                }
            }
        }
        [a, b] => {
            if uniform {
                batch.apply_2q(&site.mats[k0], *a, *b);
            } else {
                let mms: Vec<[[Complex<T>; 4]; 4]> = choices
                    .iter()
                    .map(|c| local_2q_matrix(&site.mats[c[id]], *a, *b))
                    .collect();
                let skip: Vec<bool> = choices.iter().map(|c| site.skips(c[id])).collect();
                if skip.iter().any(|&s| s) {
                    batch.apply_2q_lanes_masked(&mms, &skip, *a, *b);
                } else {
                    batch.apply_2q_lanes(&mms, *a, *b);
                }
            }
        }
        _ => unreachable!("arity > 2 handled by the scalar fallback"),
    }
}

/// Scalar-path fallback for ≥3-qubit sites: extract each lane, run the
/// scalar site application ([`apply_site`] — a skipped identity branch
/// round-trips the lane's exact bits), scatter back.
fn apply_site_via_scalar<T: Scalar>(
    batch: &mut StateBatch<T>,
    site: &CompiledSite<T>,
    id: usize,
    choices: &[&[usize]],
    realized: &mut [f64],
) {
    let mut scratch = StateVector::zero_state(0);
    for (lane, (c, r)) in choices.iter().zip(realized.iter_mut()).enumerate() {
        batch.extract_lane_into(lane, &mut scratch);
        *r *= apply_site(&mut scratch, site, Pick::Fixed(c[id]));
        batch.load_lane(lane, &scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{compile, prepare};
    use ptsbe_circuit::{channels, Circuit, NoiseModel};
    use ptsbe_math::gates;

    type Sv = StateVector<f64>;

    /// Distinct random product-ish states, one per lane, mirrored into a
    /// batch and a per-lane scalar vector.
    fn mirrored(n: usize, lanes: usize, seed: u64) -> (StateBatch<f64>, Vec<Sv>) {
        mirrored_with(n, lanes, seed, KernelImpl::auto())
    }

    fn mirrored_with(
        n: usize,
        lanes: usize,
        seed: u64,
        kernels: KernelImpl,
    ) -> (StateBatch<f64>, Vec<Sv>) {
        let mut rng = ptsbe_rng::PhiloxRng::new(seed, 0);
        let mut batch = StateBatch::zero_states_with(n, lanes, kernels);
        let mut svs = Vec::with_capacity(lanes);
        for lane in 0..lanes {
            let mut sv = Sv::zero_state(n);
            for q in 0..n {
                let u = ptsbe_math::random::haar_unitary::<f64>(2, &mut rng);
                sv.apply_1q(&u, q);
            }
            for q in 0..n - 1 {
                sv.apply_cx(q, q + 1);
            }
            batch.load_lane(lane, &sv);
            svs.push(sv);
        }
        (batch, svs)
    }

    fn assert_lanes_bitwise(batch: &StateBatch<f64>, svs: &[Sv], label: &str) {
        let mut scratch = Sv::zero_state(0);
        for (lane, sv) in svs.iter().enumerate() {
            batch.extract_lane_into(lane, &mut scratch);
            for (i, (a, b)) in scratch.amplitudes().iter().zip(sv.amplitudes()).enumerate() {
                assert_eq!(
                    (a.re.to_bits(), a.im.to_bits()),
                    (b.re.to_bits(), b.im.to_bits()),
                    "{label}: lane {lane} amp {i}"
                );
            }
        }
    }

    #[test]
    fn zero_states_and_lane_roundtrip() {
        let batch = StateBatch::<f64>::zero_states(3, 4);
        let mut sv = Sv::zero_state(0);
        for lane in 0..4 {
            batch.extract_lane_into(lane, &mut sv);
            assert_eq!(sv.n_qubits(), 3);
            assert!((sv.probability(0) - 1.0).abs() < 1e-15);
        }
    }

    #[test]
    fn dense_kernels_bitwise_match_scalar() {
        let (mut batch, mut svs) = mirrored(4, 3, 1000);
        let mut rng = ptsbe_rng::PhiloxRng::new(1001, 0);
        let u1 = ptsbe_math::random::haar_unitary::<f64>(2, &mut rng);
        let u2 = ptsbe_math::random::haar_unitary::<f64>(4, &mut rng);
        for q in [0, 3] {
            batch.apply_1q(&u1, q);
            svs.iter_mut().for_each(|s| s.apply_1q(&u1, q));
        }
        for (a, b) in [(0usize, 1usize), (3, 1), (2, 0)] {
            batch.apply_2q(&u2, a, b);
            svs.iter_mut().for_each(|s| s.apply_2q(&u2, a, b));
        }
        assert_lanes_bitwise(&batch, &svs, "dense");
    }

    #[test]
    fn every_kernel_impl_bitwise_matches_scalar() {
        for kernels in [KernelImpl::Scalar, KernelImpl::Soa, KernelImpl::Simd] {
            let (mut batch, mut svs) = mirrored_with(4, 5, 1500, kernels);
            let mut rng = ptsbe_rng::PhiloxRng::new(1501, 0);
            let u1 = ptsbe_math::random::haar_unitary::<f64>(2, &mut rng);
            let u2 = ptsbe_math::random::haar_unitary::<f64>(4, &mut rng);
            let d1 = [Complex::cis(0.3), Complex::cis(-1.1)];
            batch.apply_1q(&u1, 1);
            batch.apply_2q(&u2, 3, 0);
            batch.apply_diag_1q(&d1, 2);
            batch.apply_cz(0, 2);
            for s in svs.iter_mut() {
                s.apply_1q(&u1, 1);
                s.apply_2q(&u2, 3, 0);
                s.apply_diag_1q(&d1, 2);
                s.apply_cz(0, 2);
            }
            assert_lanes_bitwise(&batch, &svs, kernels.label());
        }
    }

    #[test]
    fn reinit_clears_stale_amplitudes() {
        let mut batch = StateBatch::<f64>::zero_states(4, 3);
        let mut rng = ptsbe_rng::PhiloxRng::new(1600, 0);
        let u = ptsbe_math::random::haar_unitary::<f64>(2, &mut rng);
        for q in 0..4 {
            batch.apply_1q(&u, q);
        }
        // Recycle into a smaller shape, then a larger one; every element
        // must be exactly |0…0⟩ both times.
        for (n, lanes) in [(3usize, 2usize), (5, 4)] {
            batch.reinit(n, lanes);
            assert_eq!(batch.n_qubits(), n);
            assert_eq!(batch.n_lanes(), lanes);
            let (re, im) = batch.planes();
            for (j, (&r, &i)) in re.iter().zip(im).enumerate() {
                let expect: f64 = if j < lanes { 1.0 } else { 0.0 };
                assert_eq!(r.to_bits(), expect.to_bits(), "re[{j}]");
                assert_eq!(i.to_bits(), 0.0f64.to_bits(), "im[{j}]");
            }
        }
    }

    #[test]
    fn per_lane_kernels_bitwise_match_scalar() {
        let (mut batch, mut svs) = mirrored(3, 3, 1100);
        let mut rng = ptsbe_rng::PhiloxRng::new(1101, 0);
        let ms: Vec<_> = (0..3)
            .map(|_| ptsbe_math::random::haar_unitary::<f64>(2, &mut rng))
            .collect();
        let es: Vec<[Complex<f64>; 4]> = ms
            .iter()
            .map(|m| [m[(0, 0)], m[(0, 1)], m[(1, 0)], m[(1, 1)]])
            .collect();
        batch.apply_1q_lanes(&es, 1);
        for (s, m) in svs.iter_mut().zip(&ms) {
            s.apply_1q(m, 1);
        }
        let m2s: Vec<_> = (0..3)
            .map(|_| ptsbe_math::random::haar_unitary::<f64>(4, &mut rng))
            .collect();
        let mms: Vec<_> = m2s.iter().map(|m| localize_2q(m, 2, 0)).collect();
        batch.apply_2q_lanes(&mms, 2, 0);
        for (s, m) in svs.iter_mut().zip(&m2s) {
            s.apply_2q(m, 2, 0);
        }
        assert_lanes_bitwise(&batch, &svs, "per-lane");
    }

    #[test]
    fn fast_paths_bitwise_match_scalar() {
        let (mut batch, mut svs) = mirrored(4, 2, 1200);
        let d1 = [Complex::cis(0.3), Complex::cis(-1.1)];
        let d2 = [
            Complex::cis(0.2),
            Complex::cis(1.7),
            Complex::cis(-0.4),
            Complex::cis(2.9),
        ];
        let perm1 = [1usize, 0];
        let ph1 = [Complex::cis(0.9), Complex::cis(-2.2)];
        let perm2 = [2usize, 0, 3, 1];
        let ph2 = [
            Complex::cis(0.1),
            Complex::cis(1.2),
            Complex::cis(-0.7),
            Complex::cis(2.4),
        ];
        batch.apply_diag_1q(&d1, 2);
        batch.apply_diag_2q(&d2, 3, 1);
        batch.apply_perm_1q(&perm1, &ph1, 0);
        batch.apply_perm_2q(&perm2, &ph2, 1, 3);
        batch.apply_cx(0, 2);
        batch.apply_cx(3, 1);
        batch.apply_cz(1, 2);
        batch.apply_swap(3, 0);
        for s in svs.iter_mut() {
            s.apply_diag_1q(&d1, 2);
            s.apply_diag_2q(&d2, 3, 1);
            s.apply_perm_1q(&perm1, &ph1, 0);
            s.apply_perm_2q(&perm2, &ph2, 1, 3);
            s.apply_cx(0, 2);
            s.apply_cx(3, 1);
            s.apply_cz(1, 2);
            s.apply_swap(3, 0);
        }
        assert_lanes_bitwise(&batch, &svs, "fast paths");
    }

    #[test]
    fn kq_gather_bitwise_matches_scalar() {
        let (mut batch, mut svs) = mirrored(4, 3, 1300);
        batch.apply_kq(&gates::ccx(), &[3, 0, 2]);
        for s in svs.iter_mut() {
            s.apply_kq(&gates::ccx(), &[3, 0, 2]);
        }
        assert_lanes_bitwise(&batch, &svs, "kq");
    }

    #[test]
    fn norms_bitwise_match_scalar_both_regimes() {
        for n in [5, PARALLEL_THRESHOLD_QUBITS] {
            let (batch, svs) = mirrored(n, 2, 1400 + n as u64);
            let mut n2 = vec![0.0f64; 2];
            batch.norm_sqr_lanes(&mut n2);
            for (lane, sv) in svs.iter().enumerate() {
                assert_eq!(
                    n2[lane].to_bits(),
                    sv.norm_sqr().to_bits(),
                    "n={n} lane {lane}"
                );
            }
        }
    }

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
        let mut scratch = Sv::zero_state(0);
        for (lane, choice) in lanes.iter().enumerate() {
            let (sv, p) = prepare(&compiled, choice);
            assert_eq!(realized[lane].to_bits(), p.to_bits(), "lane {lane} weight");
            batch.extract_lane_into(lane, &mut scratch);
            for (a, b) in scratch.amplitudes().iter().zip(sv.amplitudes()) {
                assert_eq!(a.re.to_bits(), b.re.to_bits(), "lane {lane}");
                assert_eq!(a.im.to_bits(), b.im.to_bits(), "lane {lane}");
            }
        }
    }

    #[test]
    fn advance_batch_general_channel_bitwise() {
        // Amplitude damping exercises the per-lane Kraus normalization.
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).measure_all();
        let nc = NoiseModel::new()
            .with_default_1q(channels::amplitude_damping(0.3))
            .with_default_2q(channels::amplitude_damping(0.3))
            .apply(&c);
        let compiled = compile::<f64>(&nc).unwrap();
        // Damping channels have no identity branch; branch 0 is "no decay".
        let no_decay = vec![0usize; nc.n_sites()];
        let mut damp = no_decay.clone();
        damp[1] = 1;
        let lanes = [no_decay.as_slice(), damp.as_slice()];
        let mut batch = StateBatch::zero_states(2, 2);
        let mut realized = vec![1.0f64; 2];
        advance_batch(
            &compiled,
            &mut batch,
            0..compiled.n_segments(),
            &lanes,
            &mut realized,
        );
        let mut scratch = Sv::zero_state(0);
        for (lane, choice) in lanes.iter().enumerate() {
            let (sv, p) = prepare(&compiled, choice);
            assert_eq!(realized[lane].to_bits(), p.to_bits());
            batch.extract_lane_into(lane, &mut scratch);
            for (a, b) in scratch.amplitudes().iter().zip(sv.amplitudes()) {
                assert_eq!(a.re.to_bits(), b.re.to_bits(), "lane {lane}");
                assert_eq!(a.im.to_bits(), b.im.to_bits(), "lane {lane}");
            }
        }
    }

    /// Sites on three qubits take the per-lane scalar fallback: a
    /// mixture (identity branch skipped) and a general channel, each lane
    /// bitwise `exec::prepare` of its assignment, weights included.
    #[test]
    fn advance_batch_three_qubit_sites_bitwise() {
        use ptsbe_circuit::KrausChannel;
        use ptsbe_math::Matrix;
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
        let compiled = compile::<f64>(&nc).unwrap();
        let wide: Vec<usize> = (0..compiled.sites().len())
            .filter(|&i| compiled.sites()[i].qubits.len() == 3)
            .collect();
        let [mix, damp] = wide[..] else {
            panic!("two wide sites expected, got {wide:?}");
        };
        // Every (mixture, damping) branch pair once, the 2q sites varied
        // alongside, then a lane that repeats the first.
        let mut assignments: Vec<Vec<usize>> = (0..6)
            .map(|k| {
                let mut choices = vec![0; compiled.sites().len()];
                choices[mix] = k % 3;
                choices[damp] = k / 3;
                choices[0] = (5 * k) % 16;
                choices
            })
            .collect();
        assignments.push(assignments[0].clone());
        let lanes: Vec<&[usize]> = assignments.iter().map(Vec::as_slice).collect();
        let mut batch = StateBatch::zero_states(4, lanes.len());
        let mut realized = vec![1.0f64; lanes.len()];
        advance_batch(
            &compiled,
            &mut batch,
            0..compiled.n_segments(),
            &lanes,
            &mut realized,
        );
        let mut scratch = Sv::zero_state(0);
        for (lane, choice) in lanes.iter().enumerate() {
            let (sv, p) = prepare(&compiled, choice);
            assert_eq!(realized[lane].to_bits(), p.to_bits(), "lane {lane} weight");
            batch.extract_lane_into(lane, &mut scratch);
            for (a, b) in scratch.amplitudes().iter().zip(sv.amplitudes()) {
                assert_eq!(a.re.to_bits(), b.re.to_bits(), "lane {lane}");
                assert_eq!(a.im.to_bits(), b.im.to_bits(), "lane {lane}");
            }
        }
    }
}
