//! Pluggable batch-kernel dispatch: the seam between [`crate::batch`]'s
//! sweep geometry and the arithmetic that runs inside each sweep.
//!
//! [`crate::batch::StateBatch`] owns *where* the work is (split re/im
//! amplitude planes, chunk/run decomposition, rayon fan-out); a
//! [`BatchKernels`] implementation owns *how* each contiguous run is
//! processed. Three implementations ship:
//!
//! | [`KernelImpl`] | label              | inner loop                        |
//! |----------------|--------------------|-----------------------------------|
//! | `Scalar`       | `scalar-reference` | per-element [`Complex`] ops       |
//! | `Soa`          | `soa-autovec`      | split-plane mul/`mul_add` chains  |
//! | `Simd`         | `soa-simd`         | `core::arch` AVX2/FMA fast paths  |
//!
//! All three are **bitwise identical**: they compose the same parts-level
//! primitives ([`ptsbe_math::cplx_mul_parts`] /
//! [`ptsbe_math::cplx_mul_add_parts`]) that the [`Complex`] operators
//! route through, and the AVX2 path mirrors the same compile-time
//! fused/unfused choice (see [`x86::FUSED`]). The selection is made once
//! at [`crate::batch::StateBatch`] construction — automatic (SIMD when
//! the CPU supports it), or forced via the `PTSBE_BATCH_KERNELS`
//! environment variable (`scalar` | `soa` | `simd`) for equivalence
//! testing. A GPU/accelerator backend later slots in as a fourth
//! implementation without touching `advance_batch` or the executors.

use ptsbe_math::{
    cplx_mul_add_parts, cplx_mul_parts, cplx_norm_sqr_parts, vec_ops, Complex, Scalar,
};

/// One contiguous run of a split-plane pair: `(re, im)` slices of equal
/// length.
pub type Run<'a, T> = (&'a mut [T], &'a mut [T]);

// ---------------------------------------------------------------------------
// Kernel selection

/// Which [`BatchKernels`] implementation a batch uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelImpl {
    /// Per-element reference loops over [`Complex`] values.
    Scalar,
    /// Explicit wide loops over split planes, left to the autovectorizer.
    Soa,
    /// AVX2/FMA `core::arch` fast paths for the hottest kernels
    /// (dense 1q/2q and the diagonal multiplies); everything else runs
    /// the `Soa` loops. Falls back to `Soa` off x86-64 or when the CPU
    /// lacks AVX2+FMA.
    Simd,
}

impl KernelImpl {
    /// Human-readable label (also surfaced in route-decision metadata).
    pub fn label(self) -> &'static str {
        match self {
            KernelImpl::Scalar => "scalar-reference",
            KernelImpl::Soa => "soa-autovec",
            KernelImpl::Simd => "soa-simd",
        }
    }

    /// True when the `Simd` implementation can actually run here.
    pub fn simd_supported() -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            x86::supported()
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    }

    /// Downgrade `Simd` to `Soa` when unsupported, so constructing a
    /// batch with any requested implementation is always safe.
    pub fn resolve(self) -> Self {
        match self {
            KernelImpl::Simd if !Self::simd_supported() => KernelImpl::Soa,
            other => other,
        }
    }

    /// Default selection: `PTSBE_BATCH_KERNELS` (`scalar`|`soa`|`simd`)
    /// when set, otherwise `Simd` where supported and `Soa` elsewhere.
    ///
    /// # Panics
    /// Panics on an unrecognized `PTSBE_BATCH_KERNELS` value — a typo in
    /// a CI matrix should fail loudly, not silently benchmark the wrong
    /// kernels.
    pub fn auto() -> Self {
        use std::sync::OnceLock;
        static CHOICE: OnceLock<KernelImpl> = OnceLock::new();
        *CHOICE.get_or_init(|| {
            match std::env::var("PTSBE_BATCH_KERNELS") {
                Ok(v) => match v.as_str() {
                    "scalar" => KernelImpl::Scalar,
                    "soa" => KernelImpl::Soa,
                    "simd" => KernelImpl::Simd,
                    other => panic!("PTSBE_BATCH_KERNELS must be scalar|soa|simd, got {other:?}"),
                },
                Err(_) => KernelImpl::Simd,
            }
            .resolve()
        })
    }
}

/// Resolve a (pre-[`KernelImpl::resolve`]d) selection to its
/// implementation.
pub(crate) fn dispatch<T: Scalar>(k: KernelImpl) -> &'static dyn BatchKernels<T> {
    match k {
        KernelImpl::Scalar => &ScalarKernels,
        KernelImpl::Soa => &SoaKernels,
        #[cfg(target_arch = "x86_64")]
        KernelImpl::Simd => &SimdKernels,
        #[cfg(not(target_arch = "x86_64"))]
        KernelImpl::Simd => &SoaKernels,
    }
}

// ---------------------------------------------------------------------------
// Per-lane matrix containers (entry-major SoA)

/// Per-lane 2×2 matrices in entry-major split planes:
/// `re[e * b + lane]` is the real part of entry `e` (row-major
/// `[m00, m01, m10, m11]`) of lane `lane`'s matrix — so a wide loop over
/// lanes loads every operand contiguously.
pub struct LaneMats2<T> {
    /// Lane count.
    pub b: usize,
    /// Real entry planes, `4 * b` values.
    pub re: Vec<T>,
    /// Imaginary entry planes, `4 * b` values.
    pub im: Vec<T>,
}

impl<T: Scalar> LaneMats2<T> {
    /// Transpose row-major per-lane entries into entry-major planes.
    pub fn from_entries(es: &[[Complex<T>; 4]]) -> Self {
        let b = es.len();
        let mut re = vec![T::ZERO; 4 * b];
        let mut im = vec![T::ZERO; 4 * b];
        for (lane, e) in es.iter().enumerate() {
            for (k, z) in e.iter().enumerate() {
                re[k * b + lane] = z.re;
                im[k * b + lane] = z.im;
            }
        }
        Self { b, re, im }
    }
}

/// Per-lane 4×4 matrices in entry-major split planes:
/// `re[(r * 4 + c) * b + lane]` (matrices already in local `[hl]` order).
pub struct LaneMats4<T> {
    /// Lane count.
    pub b: usize,
    /// Real entry planes, `16 * b` values.
    pub re: Vec<T>,
    /// Imaginary entry planes, `16 * b` values.
    pub im: Vec<T>,
}

impl<T: Scalar> LaneMats4<T> {
    /// Transpose per-lane localized matrices into entry-major planes.
    pub fn from_mats(mms: &[[[Complex<T>; 4]; 4]]) -> Self {
        let b = mms.len();
        let mut re = vec![T::ZERO; 16 * b];
        let mut im = vec![T::ZERO; 16 * b];
        for (lane, mm) in mms.iter().enumerate() {
            for (r, row) in mm.iter().enumerate() {
                for (c, z) in row.iter().enumerate() {
                    re[(r * 4 + c) * b + lane] = z.re;
                    im[(r * 4 + c) * b + lane] = z.im;
                }
            }
        }
        Self { b, re, im }
    }
}

// ---------------------------------------------------------------------------
// The dispatch trait

/// Run-level batch kernels: each method processes one contiguous
/// split-plane run (or run group) handed to it by a
/// [`crate::batch::StateBatch`] sweep. Implementations must be bitwise
/// identical to the scalar [`Complex`] arithmetic (or document a pinned
/// tolerance — none of the shipped implementations need one).
pub trait BatchKernels<T: Scalar>: Send + Sync {
    /// Implementation label, surfaced in geometry metadata.
    fn label(&self) -> &'static str;

    /// Dense 1q: `(lo, hi) ← M · (lo, hi)` elementwise over a run pair,
    /// matrix as entry planes `[m00, m01, m10, m11]`.
    fn mat2_run(&self, er: &[T; 4], ei: &[T; 4], lo: Run<'_, T>, hi: Run<'_, T>);

    /// Dense 2q over a quad of runs (matrix already in local `[hl]`
    /// order).
    fn mat4_run(&self, mr: &[[T; 4]; 4], mi: &[[T; 4]; 4], rows: [Run<'_, T>; 4]);

    /// Diagonal factor: `z *= d` over one run (plain complex multiply).
    fn cmul_run(&self, d: (T, T), run: Run<'_, T>);

    /// `z = -z` over one run (the CZ fast path).
    fn neg_run(&self, run: Run<'_, T>);

    /// 1q permutation: `out[r] = phase[r] · x[perm[r]]` elementwise over
    /// a run pair.
    fn perm2_run(
        &self,
        perm: &[usize; 2],
        phr: &[T; 2],
        phi: &[T; 2],
        lo: Run<'_, T>,
        hi: Run<'_, T>,
    );

    /// 2q permutation over a quad of runs (already localized).
    fn perm4_run(&self, perm: &[usize; 4], phr: &[T; 4], phi: &[T; 4], rows: [Run<'_, T>; 4]);

    /// Per-lane dense 1q over a run pair whose rows are `m.b` lanes
    /// wide; lanes whose `skip` flag is set keep their exact bits.
    fn mat2_lanes_run(
        &self,
        m: &LaneMats2<T>,
        skip: Option<&[bool]>,
        lo: Run<'_, T>,
        hi: Run<'_, T>,
    );

    /// Per-lane dense 2q over a quad of runs (see
    /// [`BatchKernels::mat2_lanes_run`]).
    fn mat4_lanes_run(&self, m: &LaneMats4<T>, skip: Option<&[bool]>, rows: [Run<'_, T>; 4]);

    /// Accumulate per-lane `|z|²` over a block of `b`-wide rows:
    /// `block_sum[lane] += re² + im²` in row order (the caller owns the
    /// scalar path's 4096-amplitude block grouping).
    fn norm_acc_rows(&self, re: &[T], im: &[T], b: usize, block_sum: &mut [T]);

    /// Per-lane real scale over `b`-wide rows: `z[lane] *= s[lane]`.
    fn scale_rows(&self, run: Run<'_, T>, b: usize, s: &[T]);
}

// ---------------------------------------------------------------------------
// Scalar reference implementation

/// Reference implementation: per-element loops over reconstructed
/// [`Complex`] values, routed through the identical helpers the scalar
/// [`crate::state::StateVector`] kernels use.
pub struct ScalarKernels;

impl<T: Scalar> BatchKernels<T> for ScalarKernels {
    fn label(&self) -> &'static str {
        "scalar-reference"
    }

    fn mat2_run(&self, er: &[T; 4], ei: &[T; 4], lo: Run<'_, T>, hi: Run<'_, T>) {
        let e = [0, 1, 2, 3].map(|k| Complex::new(er[k], ei[k]));
        let (lo_re, lo_im) = lo;
        let (hi_re, hi_im) = hi;
        for j in 0..lo_re.len() {
            let (y0, y1) = vec_ops::mat2_apply(
                &e,
                Complex::new(lo_re[j], lo_im[j]),
                Complex::new(hi_re[j], hi_im[j]),
            );
            lo_re[j] = y0.re;
            lo_im[j] = y0.im;
            hi_re[j] = y1.re;
            hi_im[j] = y1.im;
        }
    }

    fn mat4_run(&self, mr: &[[T; 4]; 4], mi: &[[T; 4]; 4], rows: [Run<'_, T>; 4]) {
        let mut mm = [[Complex::<T>::zero(); 4]; 4];
        for r in 0..4 {
            for c in 0..4 {
                mm[r][c] = Complex::new(mr[r][c], mi[r][c]);
            }
        }
        let [(r0, i0), (r1, i1), (r2, i2), (r3, i3)] = rows;
        for j in 0..r0.len() {
            let x = [
                Complex::new(r0[j], i0[j]),
                Complex::new(r1[j], i1[j]),
                Complex::new(r2[j], i2[j]),
                Complex::new(r3[j], i3[j]),
            ];
            let y = vec_ops::mat4_apply(&mm, &x);
            r0[j] = y[0].re;
            i0[j] = y[0].im;
            r1[j] = y[1].re;
            i1[j] = y[1].im;
            r2[j] = y[2].re;
            i2[j] = y[2].im;
            r3[j] = y[3].re;
            i3[j] = y[3].im;
        }
    }

    fn cmul_run(&self, d: (T, T), run: Run<'_, T>) {
        let dz = Complex::new(d.0, d.1);
        let (re, im) = run;
        for j in 0..re.len() {
            let y = Complex::new(re[j], im[j]) * dz;
            re[j] = y.re;
            im[j] = y.im;
        }
    }

    fn neg_run(&self, run: Run<'_, T>) {
        let (re, im) = run;
        for j in 0..re.len() {
            let y = -Complex::new(re[j], im[j]);
            re[j] = y.re;
            im[j] = y.im;
        }
    }

    fn perm2_run(
        &self,
        perm: &[usize; 2],
        phr: &[T; 2],
        phi: &[T; 2],
        lo: Run<'_, T>,
        hi: Run<'_, T>,
    ) {
        let phase = [Complex::new(phr[0], phi[0]), Complex::new(phr[1], phi[1])];
        let (lo_re, lo_im) = lo;
        let (hi_re, hi_im) = hi;
        for j in 0..lo_re.len() {
            let x = [
                Complex::new(lo_re[j], lo_im[j]),
                Complex::new(hi_re[j], hi_im[j]),
            ];
            let y0 = phase[0] * x[perm[0]];
            let y1 = phase[1] * x[perm[1]];
            lo_re[j] = y0.re;
            lo_im[j] = y0.im;
            hi_re[j] = y1.re;
            hi_im[j] = y1.im;
        }
    }

    fn perm4_run(&self, perm: &[usize; 4], phr: &[T; 4], phi: &[T; 4], rows: [Run<'_, T>; 4]) {
        let phase = [0, 1, 2, 3].map(|k| Complex::new(phr[k], phi[k]));
        let [(r0, i0), (r1, i1), (r2, i2), (r3, i3)] = rows;
        for j in 0..r0.len() {
            let x = [
                Complex::new(r0[j], i0[j]),
                Complex::new(r1[j], i1[j]),
                Complex::new(r2[j], i2[j]),
                Complex::new(r3[j], i3[j]),
            ];
            let y = [0, 1, 2, 3].map(|r| phase[r] * x[perm[r]]);
            r0[j] = y[0].re;
            i0[j] = y[0].im;
            r1[j] = y[1].re;
            i1[j] = y[1].im;
            r2[j] = y[2].re;
            i2[j] = y[2].im;
            r3[j] = y[3].re;
            i3[j] = y[3].im;
        }
    }

    fn mat2_lanes_run(
        &self,
        m: &LaneMats2<T>,
        skip: Option<&[bool]>,
        lo: Run<'_, T>,
        hi: Run<'_, T>,
    ) {
        let b = m.b;
        let (lo_re, lo_im) = lo;
        let (hi_re, hi_im) = hi;
        for row in 0..lo_re.len() / b {
            let off = row * b;
            for lane in 0..b {
                if skip.is_some_and(|s| s[lane]) {
                    continue;
                }
                let e = [0, 1, 2, 3].map(|k| Complex::new(m.re[k * b + lane], m.im[k * b + lane]));
                let j = off + lane;
                let (y0, y1) = vec_ops::mat2_apply(
                    &e,
                    Complex::new(lo_re[j], lo_im[j]),
                    Complex::new(hi_re[j], hi_im[j]),
                );
                lo_re[j] = y0.re;
                lo_im[j] = y0.im;
                hi_re[j] = y1.re;
                hi_im[j] = y1.im;
            }
        }
    }

    fn mat4_lanes_run(&self, m: &LaneMats4<T>, skip: Option<&[bool]>, rows: [Run<'_, T>; 4]) {
        let b = m.b;
        let [(r0, i0), (r1, i1), (r2, i2), (r3, i3)] = rows;
        for row in 0..r0.len() / b {
            let off = row * b;
            for lane in 0..b {
                if skip.is_some_and(|s| s[lane]) {
                    continue;
                }
                let mut mm = [[Complex::<T>::zero(); 4]; 4];
                for (r, mrow) in mm.iter_mut().enumerate() {
                    for (c, entry) in mrow.iter_mut().enumerate() {
                        let k = (r * 4 + c) * b + lane;
                        *entry = Complex::new(m.re[k], m.im[k]);
                    }
                }
                let j = off + lane;
                let x = [
                    Complex::new(r0[j], i0[j]),
                    Complex::new(r1[j], i1[j]),
                    Complex::new(r2[j], i2[j]),
                    Complex::new(r3[j], i3[j]),
                ];
                let y = vec_ops::mat4_apply(&mm, &x);
                r0[j] = y[0].re;
                i0[j] = y[0].im;
                r1[j] = y[1].re;
                i1[j] = y[1].im;
                r2[j] = y[2].re;
                i2[j] = y[2].im;
                r3[j] = y[3].re;
                i3[j] = y[3].im;
            }
        }
    }

    fn norm_acc_rows(&self, re: &[T], im: &[T], b: usize, block_sum: &mut [T]) {
        for (row_re, row_im) in re.chunks_exact(b).zip(im.chunks_exact(b)) {
            for (s, (r, i)) in block_sum.iter_mut().zip(row_re.iter().zip(row_im)) {
                *s += Complex::new(*r, *i).norm_sqr();
            }
        }
    }

    fn scale_rows(&self, run: Run<'_, T>, b: usize, s: &[T]) {
        let (re, im) = run;
        for (row_re, row_im) in re.chunks_exact_mut(b).zip(im.chunks_exact_mut(b)) {
            for (lane, f) in s.iter().enumerate() {
                let y = Complex::new(row_re[lane], row_im[lane]).scale(*f);
                row_re[lane] = y.re;
                row_im[lane] = y.im;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// SoA autovectorizing implementation

/// Explicit wide loops over split planes — shuffle-free mul/`mul_add`
/// chains the compiler lowers to packed FMA on its own.
pub struct SoaKernels;

impl<T: Scalar> BatchKernels<T> for SoaKernels {
    fn label(&self) -> &'static str {
        "soa-autovec"
    }

    fn mat2_run(&self, er: &[T; 4], ei: &[T; 4], lo: Run<'_, T>, hi: Run<'_, T>) {
        vec_ops::mat2_planes(er, ei, lo.0, lo.1, hi.0, hi.1);
    }

    fn mat4_run(&self, mr: &[[T; 4]; 4], mi: &[[T; 4]; 4], rows: [Run<'_, T>; 4]) {
        let [(r0, i0), (r1, i1), (r2, i2), (r3, i3)] = rows;
        vec_ops::mat4_planes(mr, mi, [r0, r1, r2, r3], [i0, i1, i2, i3]);
    }

    fn cmul_run(&self, d: (T, T), run: Run<'_, T>) {
        vec_ops::cmul_plane(d.0, d.1, run.0, run.1);
    }

    fn neg_run(&self, run: Run<'_, T>) {
        vec_ops::neg_plane(run.0, run.1);
    }

    fn perm2_run(
        &self,
        perm: &[usize; 2],
        phr: &[T; 2],
        phi: &[T; 2],
        lo: Run<'_, T>,
        hi: Run<'_, T>,
    ) {
        let (lo_re, lo_im) = lo;
        let (hi_re, hi_im) = hi;
        let n = lo_re.len();
        let (lo_re, lo_im) = (&mut lo_re[..n], &mut lo_im[..n]);
        let (hi_re, hi_im) = (&mut hi_re[..n], &mut hi_im[..n]);
        for j in 0..n {
            let xr = [lo_re[j], hi_re[j]];
            let xi = [lo_im[j], hi_im[j]];
            let (y0r, y0i) = cplx_mul_parts(phr[0], phi[0], xr[perm[0]], xi[perm[0]]);
            let (y1r, y1i) = cplx_mul_parts(phr[1], phi[1], xr[perm[1]], xi[perm[1]]);
            lo_re[j] = y0r;
            lo_im[j] = y0i;
            hi_re[j] = y1r;
            hi_im[j] = y1i;
        }
    }

    fn perm4_run(&self, perm: &[usize; 4], phr: &[T; 4], phi: &[T; 4], rows: [Run<'_, T>; 4]) {
        let [(r0, i0), (r1, i1), (r2, i2), (r3, i3)] = rows;
        let n = r0.len();
        let (r0, r1, r2, r3) = (&mut r0[..n], &mut r1[..n], &mut r2[..n], &mut r3[..n]);
        let (i0, i1, i2, i3) = (&mut i0[..n], &mut i1[..n], &mut i2[..n], &mut i3[..n]);
        for j in 0..n {
            let xr = [r0[j], r1[j], r2[j], r3[j]];
            let xi = [i0[j], i1[j], i2[j], i3[j]];
            let mut yr = [T::ZERO; 4];
            let mut yi = [T::ZERO; 4];
            for r in 0..4 {
                let (a, bq) = cplx_mul_parts(phr[r], phi[r], xr[perm[r]], xi[perm[r]]);
                yr[r] = a;
                yi[r] = bq;
            }
            r0[j] = yr[0];
            r1[j] = yr[1];
            r2[j] = yr[2];
            r3[j] = yr[3];
            i0[j] = yi[0];
            i1[j] = yi[1];
            i2[j] = yi[2];
            i3[j] = yi[3];
        }
    }

    fn mat2_lanes_run(
        &self,
        m: &LaneMats2<T>,
        skip: Option<&[bool]>,
        lo: Run<'_, T>,
        hi: Run<'_, T>,
    ) {
        let b = m.b;
        let (lo_re, lo_im) = lo;
        let (hi_re, hi_im) = hi;
        let (e0r, rest) = m.re.split_at(b);
        let (e1r, rest) = rest.split_at(b);
        let (e2r, e3r) = rest.split_at(b);
        let (e0i, rest) = m.im.split_at(b);
        let (e1i, rest) = rest.split_at(b);
        let (e2i, e3i) = rest.split_at(b);
        for row in 0..lo_re.len() / b {
            let off = row * b;
            let (lr, li) = (&mut lo_re[off..off + b], &mut lo_im[off..off + b]);
            let (hr, hi_) = (&mut hi_re[off..off + b], &mut hi_im[off..off + b]);
            for j in 0..b {
                if skip.is_some_and(|s| s[j]) {
                    continue;
                }
                let (x0r, x0i, x1r, x1i) = (lr[j], li[j], hr[j], hi_[j]);
                let (t0r, t0i) = cplx_mul_parts(e1r[j], e1i[j], x1r, x1i);
                let (y0r, y0i) = cplx_mul_add_parts(e0r[j], e0i[j], x0r, x0i, t0r, t0i);
                let (t1r, t1i) = cplx_mul_parts(e3r[j], e3i[j], x1r, x1i);
                let (y1r, y1i) = cplx_mul_add_parts(e2r[j], e2i[j], x0r, x0i, t1r, t1i);
                lr[j] = y0r;
                li[j] = y0i;
                hr[j] = y1r;
                hi_[j] = y1i;
            }
        }
    }

    fn mat4_lanes_run(&self, m: &LaneMats4<T>, skip: Option<&[bool]>, rows: [Run<'_, T>; 4]) {
        let b = m.b;
        let [(r0, i0), (r1, i1), (r2, i2), (r3, i3)] = rows;
        for row in 0..r0.len() / b {
            let off = row * b;
            for j in 0..b {
                if skip.is_some_and(|s| s[j]) {
                    continue;
                }
                let k = off + j;
                let xr = [r0[k], r1[k], r2[k], r3[k]];
                let xi = [i0[k], i1[k], i2[k], i3[k]];
                let mut yr = [T::ZERO; 4];
                let mut yi = [T::ZERO; 4];
                for r in 0..4 {
                    let e = |c: usize| (m.re[(r * 4 + c) * b + j], m.im[(r * 4 + c) * b + j]);
                    let (m0r, m0i) = e(0);
                    let (m1r, m1i) = e(1);
                    let (m2r, m2i) = e(2);
                    let (m3r, m3i) = e(3);
                    let (tr, ti) = cplx_mul_parts(m1r, m1i, xr[1], xi[1]);
                    let (ar, ai) = cplx_mul_add_parts(m0r, m0i, xr[0], xi[0], tr, ti);
                    let (ar, ai) = cplx_mul_add_parts(m2r, m2i, xr[2], xi[2], ar, ai);
                    let (fr, fi) = cplx_mul_add_parts(m3r, m3i, xr[3], xi[3], ar, ai);
                    yr[r] = fr;
                    yi[r] = fi;
                }
                r0[k] = yr[0];
                r1[k] = yr[1];
                r2[k] = yr[2];
                r3[k] = yr[3];
                i0[k] = yi[0];
                i1[k] = yi[1];
                i2[k] = yi[2];
                i3[k] = yi[3];
            }
        }
    }

    fn norm_acc_rows(&self, re: &[T], im: &[T], b: usize, block_sum: &mut [T]) {
        for (row_re, row_im) in re.chunks_exact(b).zip(im.chunks_exact(b)) {
            for (s, (r, i)) in block_sum.iter_mut().zip(row_re.iter().zip(row_im)) {
                *s += cplx_norm_sqr_parts(*r, *i);
            }
        }
    }

    fn scale_rows(&self, run: Run<'_, T>, b: usize, s: &[T]) {
        let (re, im) = run;
        for (row_re, row_im) in re.chunks_exact_mut(b).zip(im.chunks_exact_mut(b)) {
            for ((r, i), f) in row_re.iter_mut().zip(row_im.iter_mut()).zip(s) {
                *r *= *f;
                *i *= *f;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// AVX2/FMA implementation (x86-64)

/// `core::arch` AVX2/FMA fast paths for the hottest kernels, falling
/// back to [`SoaKernels`] loops everywhere else. Selected only when the
/// CPU reports `avx2` **and** `fma` (see [`KernelImpl::resolve`]).
#[cfg(target_arch = "x86_64")]
pub struct SimdKernels;

#[cfg(target_arch = "x86_64")]
mod simd_impl {
    use super::*;
    use std::any::TypeId;

    #[inline(always)]
    fn same<T: 'static, U: 'static>() -> bool {
        TypeId::of::<T>() == TypeId::of::<U>()
    }

    /// Reinterpret a slice of `T` as `U`; caller has proven `T == U`.
    #[inline(always)]
    fn cast_mut<T: 'static, U: 'static>(s: &mut [T]) -> &mut [U] {
        debug_assert!(same::<T, U>());
        unsafe { core::slice::from_raw_parts_mut(s.as_mut_ptr().cast(), s.len()) }
    }

    #[inline(always)]
    fn cast_ref<T: 'static, U: 'static>(x: &T) -> &U {
        debug_assert!(same::<T, U>());
        unsafe { &*(x as *const T).cast() }
    }

    impl<T: Scalar> BatchKernels<T> for SimdKernels {
        fn label(&self) -> &'static str {
            "soa-simd"
        }

        fn mat2_run(&self, er: &[T; 4], ei: &[T; 4], lo: Run<'_, T>, hi: Run<'_, T>) {
            if same::<T, f64>() {
                unsafe {
                    x86::f64w::mat2(
                        cast_ref(er),
                        cast_ref(ei),
                        cast_mut(lo.0),
                        cast_mut(lo.1),
                        cast_mut(hi.0),
                        cast_mut(hi.1),
                    )
                };
            } else if same::<T, f32>() {
                unsafe {
                    x86::f32w::mat2(
                        cast_ref(er),
                        cast_ref(ei),
                        cast_mut(lo.0),
                        cast_mut(lo.1),
                        cast_mut(hi.0),
                        cast_mut(hi.1),
                    )
                };
            } else {
                SoaKernels.mat2_run(er, ei, lo, hi);
            }
        }

        fn mat4_run(&self, mr: &[[T; 4]; 4], mi: &[[T; 4]; 4], rows: [Run<'_, T>; 4]) {
            if same::<T, f64>() {
                let [(r0, i0), (r1, i1), (r2, i2), (r3, i3)] = rows;
                unsafe {
                    x86::f64w::mat4(
                        cast_ref(mr),
                        cast_ref(mi),
                        [cast_mut(r0), cast_mut(r1), cast_mut(r2), cast_mut(r3)],
                        [cast_mut(i0), cast_mut(i1), cast_mut(i2), cast_mut(i3)],
                    )
                };
            } else if same::<T, f32>() {
                let [(r0, i0), (r1, i1), (r2, i2), (r3, i3)] = rows;
                unsafe {
                    x86::f32w::mat4(
                        cast_ref(mr),
                        cast_ref(mi),
                        [cast_mut(r0), cast_mut(r1), cast_mut(r2), cast_mut(r3)],
                        [cast_mut(i0), cast_mut(i1), cast_mut(i2), cast_mut(i3)],
                    )
                };
            } else {
                SoaKernels.mat4_run(mr, mi, rows);
            }
        }

        fn cmul_run(&self, d: (T, T), run: Run<'_, T>) {
            if same::<T, f64>() {
                unsafe {
                    x86::f64w::cmul(
                        *cast_ref(&d.0),
                        *cast_ref(&d.1),
                        cast_mut(run.0),
                        cast_mut(run.1),
                    )
                };
            } else if same::<T, f32>() {
                unsafe {
                    x86::f32w::cmul(
                        *cast_ref(&d.0),
                        *cast_ref(&d.1),
                        cast_mut(run.0),
                        cast_mut(run.1),
                    )
                };
            } else {
                SoaKernels.cmul_run(d, run);
            }
        }

        fn neg_run(&self, run: Run<'_, T>) {
            SoaKernels.neg_run(run);
        }

        fn perm2_run(
            &self,
            perm: &[usize; 2],
            phr: &[T; 2],
            phi: &[T; 2],
            lo: Run<'_, T>,
            hi: Run<'_, T>,
        ) {
            SoaKernels.perm2_run(perm, phr, phi, lo, hi);
        }

        fn perm4_run(&self, perm: &[usize; 4], phr: &[T; 4], phi: &[T; 4], rows: [Run<'_, T>; 4]) {
            SoaKernels.perm4_run(perm, phr, phi, rows);
        }

        fn mat2_lanes_run(
            &self,
            m: &LaneMats2<T>,
            skip: Option<&[bool]>,
            lo: Run<'_, T>,
            hi: Run<'_, T>,
        ) {
            SoaKernels.mat2_lanes_run(m, skip, lo, hi);
        }

        fn mat4_lanes_run(&self, m: &LaneMats4<T>, skip: Option<&[bool]>, rows: [Run<'_, T>; 4]) {
            SoaKernels.mat4_lanes_run(m, skip, rows);
        }

        fn norm_acc_rows(&self, re: &[T], im: &[T], b: usize, block_sum: &mut [T]) {
            SoaKernels.norm_acc_rows(re, im, b, block_sum);
        }

        fn scale_rows(&self, run: Run<'_, T>, b: usize, s: &[T]) {
            SoaKernels.scale_rows(run, b, s);
        }
    }
}

/// AVX2/FMA lowering of the hot run kernels.
///
/// Bitwise contract: every vector op is the exact IEEE operation of the
/// scalar form — packed mul/add/sub for the plain complex product, and
/// packed FMA *iff* this compilation's [`ptsbe_math::cplx_mul_add_parts`]
/// uses the fused form ([`x86::FUSED`] is the same `cfg!` switch). Tail
/// elements run the scalar parts helpers, so run length never changes a
/// bit either.
#[cfg(target_arch = "x86_64")]
pub mod x86 {
    use ptsbe_math::{cplx_mul_add_parts, cplx_mul_parts, Scalar};

    /// Whether this compilation contracts complex multiply-accumulate to
    /// hardware FMA — must match [`ptsbe_math::cplx_mul_add_parts`].
    pub const FUSED: bool = cfg!(target_feature = "fma");

    /// Runtime gate for [`super::SimdKernels`].
    pub fn supported() -> bool {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }

    macro_rules! avx2_width {
        ($name:ident, $t:ty, $v:ty, $w:expr,
         $loadu:ident, $storeu:ident, $set1:ident,
         $mul:ident, $add:ident, $sub:ident, $fmadd:ident, $fnmadd:ident) => {
            /// Width-specialized kernels (see module docs).
            pub mod $name {
                use super::*;
                use core::arch::x86_64::*;

                /// Plain complex product `(ar + i·ai)(br + i·bi)` —
                /// packed form of `cplx_mul_parts`.
                #[inline]
                #[target_feature(enable = "avx2", enable = "fma")]
                unsafe fn vmul(ar: $v, ai: $v, br: $v, bi: $v) -> ($v, $v) {
                    (
                        $sub($mul(ar, br), $mul(ai, bi)),
                        $add($mul(ar, bi), $mul(ai, br)),
                    )
                }

                /// Packed form of `cplx_mul_add_parts`, same `FUSED`
                /// branch (`fnmadd(a, b, c)` is exactly `fma(a, -b, c)`).
                #[inline]
                #[target_feature(enable = "avx2", enable = "fma")]
                unsafe fn vmuladd(ar: $v, ai: $v, br: $v, bi: $v, cr: $v, ci: $v) -> ($v, $v) {
                    if FUSED {
                        (
                            $fmadd(ar, br, $fnmadd(ai, bi, cr)),
                            $fmadd(ar, bi, $fmadd(ai, br, ci)),
                        )
                    } else {
                        (
                            $add($sub($mul(ar, br), $mul(ai, bi)), cr),
                            $add($add($mul(ar, bi), $mul(ai, br)), ci),
                        )
                    }
                }

                /// `z *= d` over a split-plane run.
                ///
                /// # Safety
                /// The CPU must support AVX2 and FMA (checked once by
                /// [`crate::kernels::KernelImpl::auto`] before this module is selected).
                #[target_feature(enable = "avx2", enable = "fma")]
                pub unsafe fn cmul(dr: $t, di: $t, re: &mut [$t], im: &mut [$t]) {
                    let n = re.len();
                    let vdr = $set1(dr);
                    let vdi = $set1(di);
                    let mut j = 0usize;
                    while j + $w <= n {
                        let xr = $loadu(re.as_ptr().add(j));
                        let xi = $loadu(im.as_ptr().add(j));
                        let (yr, yi) = vmul(xr, xi, vdr, vdi);
                        $storeu(re.as_mut_ptr().add(j), yr);
                        $storeu(im.as_mut_ptr().add(j), yi);
                        j += $w;
                    }
                    while j < n {
                        let (yr, yi) = cplx_mul_parts(re[j], im[j], dr, di);
                        re[j] = yr;
                        im[j] = yi;
                        j += 1;
                    }
                }

                /// Dense 1q over a split-plane run pair.
                ///
                /// # Safety
                /// The CPU must support AVX2 and FMA (checked once by
                /// [`crate::kernels::KernelImpl::auto`] before this module is selected).
                #[target_feature(enable = "avx2", enable = "fma")]
                pub unsafe fn mat2(
                    er: &[$t; 4],
                    ei: &[$t; 4],
                    lo_re: &mut [$t],
                    lo_im: &mut [$t],
                    hi_re: &mut [$t],
                    hi_im: &mut [$t],
                ) {
                    let n = lo_re.len();
                    let e0r = $set1(er[0]);
                    let e1r = $set1(er[1]);
                    let e2r = $set1(er[2]);
                    let e3r = $set1(er[3]);
                    let e0i = $set1(ei[0]);
                    let e1i = $set1(ei[1]);
                    let e2i = $set1(ei[2]);
                    let e3i = $set1(ei[3]);
                    let mut j = 0usize;
                    while j + $w <= n {
                        let x0r = $loadu(lo_re.as_ptr().add(j));
                        let x0i = $loadu(lo_im.as_ptr().add(j));
                        let x1r = $loadu(hi_re.as_ptr().add(j));
                        let x1i = $loadu(hi_im.as_ptr().add(j));
                        let (t0r, t0i) = vmul(e1r, e1i, x1r, x1i);
                        let (y0r, y0i) = vmuladd(e0r, e0i, x0r, x0i, t0r, t0i);
                        let (t1r, t1i) = vmul(e3r, e3i, x1r, x1i);
                        let (y1r, y1i) = vmuladd(e2r, e2i, x0r, x0i, t1r, t1i);
                        $storeu(lo_re.as_mut_ptr().add(j), y0r);
                        $storeu(lo_im.as_mut_ptr().add(j), y0i);
                        $storeu(hi_re.as_mut_ptr().add(j), y1r);
                        $storeu(hi_im.as_mut_ptr().add(j), y1i);
                        j += $w;
                    }
                    while j < n {
                        let (x0r, x0i, x1r, x1i) = (lo_re[j], lo_im[j], hi_re[j], hi_im[j]);
                        let (t0r, t0i) = cplx_mul_parts(er[1], ei[1], x1r, x1i);
                        let (y0r, y0i) = cplx_mul_add_parts(er[0], ei[0], x0r, x0i, t0r, t0i);
                        let (t1r, t1i) = cplx_mul_parts(er[3], ei[3], x1r, x1i);
                        let (y1r, y1i) = cplx_mul_add_parts(er[2], ei[2], x0r, x0i, t1r, t1i);
                        lo_re[j] = y0r;
                        lo_im[j] = y0i;
                        hi_re[j] = y1r;
                        hi_im[j] = y1i;
                        j += 1;
                    }
                }

                /// Dense 2q over four split-plane runs.
                ///
                /// # Safety
                /// The CPU must support AVX2 and FMA (checked once by
                /// [`crate::kernels::KernelImpl::auto`] before this module is selected).
                #[target_feature(enable = "avx2", enable = "fma")]
                pub unsafe fn mat4(
                    mr: &[[$t; 4]; 4],
                    mi: &[[$t; 4]; 4],
                    re: [&mut [$t]; 4],
                    im: [&mut [$t]; 4],
                ) {
                    let [r0, r1, r2, r3] = re;
                    let [i0, i1, i2, i3] = im;
                    let n = r0.len();
                    let zero = $set1(0.0);
                    let mut mvr = [[zero; 4]; 4];
                    let mut mvi = [[zero; 4]; 4];
                    for r in 0..4 {
                        for c in 0..4 {
                            mvr[r][c] = $set1(mr[r][c]);
                            mvi[r][c] = $set1(mi[r][c]);
                        }
                    }
                    let mut j = 0usize;
                    while j + $w <= n {
                        let xr = [
                            $loadu(r0.as_ptr().add(j)),
                            $loadu(r1.as_ptr().add(j)),
                            $loadu(r2.as_ptr().add(j)),
                            $loadu(r3.as_ptr().add(j)),
                        ];
                        let xi = [
                            $loadu(i0.as_ptr().add(j)),
                            $loadu(i1.as_ptr().add(j)),
                            $loadu(i2.as_ptr().add(j)),
                            $loadu(i3.as_ptr().add(j)),
                        ];
                        let mut yr = [zero; 4];
                        let mut yi = [zero; 4];
                        for r in 0..4 {
                            let (tr, ti) = vmul(mvr[r][1], mvi[r][1], xr[1], xi[1]);
                            let (ar, ai) = vmuladd(mvr[r][0], mvi[r][0], xr[0], xi[0], tr, ti);
                            let (ar, ai) = vmuladd(mvr[r][2], mvi[r][2], xr[2], xi[2], ar, ai);
                            let (fr, fi) = vmuladd(mvr[r][3], mvi[r][3], xr[3], xi[3], ar, ai);
                            yr[r] = fr;
                            yi[r] = fi;
                        }
                        $storeu(r0.as_mut_ptr().add(j), yr[0]);
                        $storeu(r1.as_mut_ptr().add(j), yr[1]);
                        $storeu(r2.as_mut_ptr().add(j), yr[2]);
                        $storeu(r3.as_mut_ptr().add(j), yr[3]);
                        $storeu(i0.as_mut_ptr().add(j), yi[0]);
                        $storeu(i1.as_mut_ptr().add(j), yi[1]);
                        $storeu(i2.as_mut_ptr().add(j), yi[2]);
                        $storeu(i3.as_mut_ptr().add(j), yi[3]);
                        j += $w;
                    }
                    while j < n {
                        let xr = [r0[j], r1[j], r2[j], r3[j]];
                        let xi = [i0[j], i1[j], i2[j], i3[j]];
                        let mut yr = [<$t as Scalar>::ZERO; 4];
                        let mut yi = [<$t as Scalar>::ZERO; 4];
                        for r in 0..4 {
                            let (tr, ti) = cplx_mul_parts(mr[r][1], mi[r][1], xr[1], xi[1]);
                            let (ar, ai) =
                                cplx_mul_add_parts(mr[r][0], mi[r][0], xr[0], xi[0], tr, ti);
                            let (ar, ai) =
                                cplx_mul_add_parts(mr[r][2], mi[r][2], xr[2], xi[2], ar, ai);
                            let (fr, fi) =
                                cplx_mul_add_parts(mr[r][3], mi[r][3], xr[3], xi[3], ar, ai);
                            yr[r] = fr;
                            yi[r] = fi;
                        }
                        r0[j] = yr[0];
                        r1[j] = yr[1];
                        r2[j] = yr[2];
                        r3[j] = yr[3];
                        i0[j] = yi[0];
                        i1[j] = yi[1];
                        i2[j] = yi[2];
                        i3[j] = yi[3];
                        j += 1;
                    }
                }
            }
        };
    }

    avx2_width!(
        f64w,
        f64,
        __m256d,
        4,
        _mm256_loadu_pd,
        _mm256_storeu_pd,
        _mm256_set1_pd,
        _mm256_mul_pd,
        _mm256_add_pd,
        _mm256_sub_pd,
        _mm256_fmadd_pd,
        _mm256_fnmadd_pd
    );
    avx2_width!(
        f32w,
        f32,
        __m256,
        8,
        _mm256_loadu_ps,
        _mm256_storeu_ps,
        _mm256_set1_ps,
        _mm256_mul_ps,
        _mm256_add_ps,
        _mm256_sub_ps,
        _mm256_fmadd_ps,
        _mm256_fnmadd_ps
    );
}
