//! The run kernels behind [`crate::state::StateVector`]'s dense and
//! diagonal gates, and the switch that picks their loop body.
//!
//! A gate sweeps contiguous runs of interleaved [`Complex`] amplitudes
//! (the geometry is `StateVector`'s; `quad_runs` cuts a two-qubit
//! gate's chunk into its four runs). `mat2_il` / `mat4_il` / `cmul_il` /
//! `diag2_il` below own the arithmetic inside each run:
//!
//! | [`KernelImpl`] | label              | interleaved runs                           |
//! |----------------|--------------------|--------------------------------------------|
//! | `Scalar`       | `scalar-reference` | per-element [`Complex`] ops                |
//! | `Soa`          | `soa-autovec`      | per-element [`Complex`] ops (as `Scalar`)  |
//! | `Simd`         | `soa-simd`         | AVX2/FMA once a run fills a vector         |
//!
//! The two loop bodies are **bitwise identical**: the AVX2 paths form
//! each product with the same packed multiply / multiply-add the
//! [`Complex`] operators' parts-level helpers
//! ([`ptsbe_math::cplx_mul_parts`] / [`ptsbe_math::cplx_mul_add_parts`])
//! use, with the same compile-time fused/unfused choice (see
//! [`x86::FUSED`]). An interleaved run is de-interleaved in registers,
//! so it vectorises only when it holds at least one vector of complexes
//! (4 at `f64`: qubit ≥ 2; 8 at `f32`: qubit ≥ 3); shorter runs take the
//! per-element loops under every selection. The selection is read per
//! gate from [`KernelImpl::auto`] — SIMD when the CPU supports it, or
//! forced via the `PTSBE_BATCH_KERNELS` environment variable (`scalar` |
//! `soa` | `simd`) for equivalence testing.

use ptsbe_math::{vec_ops, Complex, Scalar};

// ---------------------------------------------------------------------------
// Kernel selection

/// Which loop body the dense and diagonal run kernels take.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelImpl {
    /// Per-element reference loops over [`Complex`] values.
    Scalar,
    /// The same per-element loops as `Scalar`. The variant names the
    /// split-plane kernels this crate once had; it stays so that code
    /// matching on every variant (the perf harness's `kernel_impl`
    /// code) and `PTSBE_BATCH_KERNELS=soa` keep working.
    Soa,
    /// AVX2/FMA `core::arch` paths for the dense 1q/2q and diagonal
    /// runs that fill a vector; shorter runs take the per-element
    /// loops. Falls back to `Soa` off x86-64 or when the CPU lacks
    /// AVX2+FMA.
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

    /// Downgrade `Simd` to `Soa` when unsupported, so any requested
    /// selection is safe to run.
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
                Ok(v) => Self::parse(&v),
                Err(_) => KernelImpl::Simd,
            }
            .resolve()
        })
    }

    /// A `PTSBE_BATCH_KERNELS` value (see [`KernelImpl::auto`]).
    fn parse(v: &str) -> Self {
        match v {
            "scalar" => KernelImpl::Scalar,
            "soa" => KernelImpl::Soa,
            "simd" => KernelImpl::Simd,
            other => panic!("PTSBE_BATCH_KERNELS must be scalar|soa|simd, got {other:?}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Run geometry

/// The four `sl · b`-element runs of one two-qubit quad group starting
/// at row `base` (rows `base`, `base+sl`, `base+sh`, `base+sh+sl`, in
/// local `[hl]` order: h0l0, h0l1, h1l0, h1l1) within a `2·sh`-row
/// chunk. A row is `b` elements: one [`Complex`] of a
/// [`crate::state::StateVector`], or its two scalars in a flat view.
#[inline]
pub(crate) fn quad_runs<E>(
    chunk: &mut [E],
    base: usize,
    sh: usize,
    sl: usize,
    b: usize,
) -> [&mut [E]; 4] {
    let run = sl * b;
    let rest = &mut chunk[base * b..];
    let (r00, tail) = rest.split_at_mut(run);
    let (r01, tail) = tail.split_at_mut(run);
    let tail = &mut tail[(sh - 2 * sl) * b..];
    let (r10, tail) = tail.split_at_mut(run);
    let r11 = &mut tail[..run];
    [r00, r01, r10, r11]
}

// ---------------------------------------------------------------------------
// Interleaved run kernels (the `StateVector` layout)

#[inline(always)]
fn same<T: 'static, U: 'static>() -> bool {
    std::any::TypeId::of::<T>() == std::any::TypeId::of::<U>()
}

/// Which loop the interleaved runs of one `StateVector` gate take: the
/// AVX2 kernels, or the per-element loops. Resolved once per gate call.
#[derive(Clone, Copy, Debug)]
pub(crate) struct IlPath {
    /// Set only by [`IlPath::with`], after [`KernelImpl::resolve`] kept
    /// `Simd` — the AVX2+FMA check the `unsafe` kernels rest on. Private
    /// so no other code can claim it.
    simd: bool,
}

impl IlPath {
    /// The path for runs of `run` complexes under [`KernelImpl::auto`].
    pub(crate) fn for_run<T: Scalar>(run: usize) -> Self {
        Self::with::<T>(KernelImpl::auto(), run)
    }

    /// AVX2 iff `kernels` resolves to `Simd` here and a run holds at
    /// least one vector of complexes.
    fn with<T: Scalar>(kernels: KernelImpl, run: usize) -> Self {
        Self {
            simd: run >= Self::vector::<T>() && kernels.resolve() == KernelImpl::Simd,
        }
    }

    /// Complexes per AVX2 step: two 256-bit registers of interleaved
    /// `T`s (no width that has no AVX2 kernel ever reaches it).
    fn vector<T: Scalar>() -> usize {
        if same::<T, f64>() {
            4
        } else if same::<T, f32>() {
            8
        } else {
            usize::MAX
        }
    }
}

/// Dense 1q over interleaved amplitudes: `amps` is any whole number of
/// `2·stride` chunks, each a `(lo, hi)` run pair that becomes
/// `M · (lo, hi)` elementwise; `e` is row-major `[m00, m01, m10, m11]`.
#[inline]
pub(crate) fn mat2_il<T: Scalar>(
    path: IlPath,
    e: &[Complex<T>; 4],
    amps: &mut [Complex<T>],
    stride: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if path.simd {
        // SAFETY: `path.simd` is set only by `IlPath::with`, after
        // `KernelImpl::resolve` kept `Simd`, i.e. `x86::supported()` saw
        // AVX2 and FMA on this CPU.
        return unsafe { simd_impl::mat2_il(e, amps, stride) };
    }
    mat2_il_scalar(e, amps, stride);
}

/// Dense 2q over interleaved amplitudes: `amps` is any whole number of
/// `2·sh` chunks; `mm` in local `[hl]` order.
#[inline]
pub(crate) fn mat4_il<T: Scalar>(
    path: IlPath,
    mm: &[[Complex<T>; 4]; 4],
    amps: &mut [Complex<T>],
    sh: usize,
    sl: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if path.simd {
        // SAFETY: as in `mat2_il` — `path.simd` proves AVX2 and FMA.
        return unsafe { simd_impl::mat4_il(mm, amps, sh, sl) };
    }
    mat4_il_scalar(mm, amps, sh, sl);
}

/// Diagonal factors over interleaved amplitudes: `amps` is any whole
/// number of `2·run` chunks, whose first `run` amplitudes are multiplied
/// by `d[0]` and the rest by `d[1]` (plain complex multiply, `z · d`).
#[inline]
pub(crate) fn cmul_il<T: Scalar>(
    path: IlPath,
    d: &[Complex<T>; 2],
    amps: &mut [Complex<T>],
    run: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if path.simd {
        // SAFETY: as in `mat2_il` — `path.simd` proves AVX2 and FMA.
        return unsafe { simd_impl::cmul_il(d, amps, run) };
    }
    cmul_il_scalar(d, amps, run);
}

/// Two-qubit diagonal over interleaved amplitudes: `amps` is any whole
/// number of `2·sh` chunks; the four `sl`-long runs of each quad are
/// multiplied by `ld[0..4]` (local `[hl]` order).
#[inline]
pub(crate) fn diag2_il<T: Scalar>(
    path: IlPath,
    ld: &[Complex<T>; 4],
    amps: &mut [Complex<T>],
    sh: usize,
    sl: usize,
) {
    if path.simd {
        // Each half of a chunk is a one-qubit diagonal on the low qubit.
        let (d_h0, d_h1) = ([ld[0], ld[1]], [ld[2], ld[3]]);
        for chunk in amps.chunks_exact_mut(2 * sh) {
            let (h0, h1) = chunk.split_at_mut(sh);
            cmul_il(path, &d_h0, h0, sl);
            cmul_il(path, &d_h1, h1, sl);
        }
    } else {
        diag2_il_scalar(ld, amps, sh, sl);
    }
}

/// Per-element form of [`mat2_il`]: the fallback, and the reference the
/// AVX2 form is tested against.
fn mat2_il_scalar<T: Scalar>(e: &[Complex<T>; 4], amps: &mut [Complex<T>], stride: usize) {
    for chunk in amps.chunks_exact_mut(2 * stride) {
        let (lo, hi) = chunk.split_at_mut(stride);
        for (a0, a1) in lo.iter_mut().zip(hi.iter_mut()) {
            let (y0, y1) = vec_ops::mat2_apply(e, *a0, *a1);
            *a0 = y0;
            *a1 = y1;
        }
    }
}

/// Per-element form of [`mat4_il`].
fn mat4_il_scalar<T: Scalar>(
    mm: &[[Complex<T>; 4]; 4],
    amps: &mut [Complex<T>],
    sh: usize,
    sl: usize,
) {
    for chunk in amps.chunks_exact_mut(2 * sh) {
        // Enumerate positions with both gate bits clear.
        let mut base = 0usize;
        while base < sh {
            for k in base..base + sl {
                let x = [chunk[k], chunk[k + sl], chunk[k + sh], chunk[k + sh + sl]];
                let y = vec_ops::mat4_apply(mm, &x);
                chunk[k] = y[0];
                chunk[k + sl] = y[1];
                chunk[k + sh] = y[2];
                chunk[k + sh + sl] = y[3];
            }
            base += 2 * sl;
        }
    }
}

/// Per-element form of [`diag2_il`].
fn diag2_il_scalar<T: Scalar>(ld: &[Complex<T>; 4], amps: &mut [Complex<T>], sh: usize, sl: usize) {
    for chunk in amps.chunks_exact_mut(2 * sh) {
        let mut base = 0usize;
        while base < sh {
            for (run, d) in quad_runs(chunk, base, sh, sl, 1).into_iter().zip(ld) {
                for z in run {
                    *z *= *d;
                }
            }
            base += 2 * sl;
        }
    }
}

/// Per-element form of [`cmul_il`].
fn cmul_il_scalar<T: Scalar>(d: &[Complex<T>; 2], amps: &mut [Complex<T>], run: usize) {
    for chunk in amps.chunks_exact_mut(2 * run) {
        let (lo, hi) = chunk.split_at_mut(run);
        for z in lo {
            *z *= d[0];
        }
        for z in hi {
            *z *= d[1];
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod simd_impl {
    use super::*;
    use std::mem::{align_of, size_of};

    /// Reinterpret a `&T` as `&U`; panics unless they are the same type.
    #[inline(always)]
    fn cast_ref<T: 'static, U: 'static>(x: &T) -> &U {
        assert!(same::<T, U>());
        // SAFETY: `T` and `U` are the same type (asserted).
        unsafe { &*(x as *const T).cast() }
    }

    // `flat_mut` below reads `n` complexes as `2·n` scalars.
    const _: () = assert!(
        size_of::<Complex<f64>>() == 2 * size_of::<f64>()
            && align_of::<Complex<f64>>() == align_of::<f64>()
            && size_of::<Complex<f32>>() == 2 * size_of::<f32>()
            && align_of::<Complex<f32>>() == align_of::<f32>()
    );

    /// View interleaved complexes as their scalars
    /// `[re₀, im₀, re₁, im₁, …]`; panics unless `T` and `U` are the same
    /// type.
    #[inline(always)]
    fn flat_mut<T: 'static, U: 'static>(s: &mut [Complex<T>]) -> &mut [U] {
        assert!(same::<T, U>());
        // SAFETY: `T == U` (asserted). `Complex` is `#[repr(C)]` with
        // fields `re, im` of one type, so it is laid out as `[U; 2]`:
        // no padding, same alignment (the `const` assertion above pins
        // both for the two widths that reach here). `s.len()` complexes
        // are therefore exactly `2 · s.len()` initialised `U`s in one
        // allocation, and the exclusive borrow carries over.
        unsafe { core::slice::from_raw_parts_mut(s.as_mut_ptr().cast(), 2 * s.len()) }
    }

    /// AVX2 arm of [`super::mat2_il`].
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA: callers hold an [`IlPath`]
    /// whose flag [`KernelImpl::resolve`] (via [`x86::supported`]) let
    /// stand.
    #[inline]
    pub(super) unsafe fn mat2_il<T: Scalar>(
        e: &[Complex<T>; 4],
        amps: &mut [Complex<T>],
        stride: usize,
    ) {
        if same::<T, f64>() {
            x86::f64w::mat2_il(cast_ref(e), flat_mut(amps), stride);
        } else {
            x86::f32w::mat2_il(cast_ref(e), flat_mut(amps), stride);
        }
    }

    /// AVX2 arm of [`super::mat4_il`].
    ///
    /// # Safety
    /// As for [`mat2_il`]: AVX2 and FMA, proven by the caller's
    /// [`IlPath`].
    #[inline]
    pub(super) unsafe fn mat4_il<T: Scalar>(
        mm: &[[Complex<T>; 4]; 4],
        amps: &mut [Complex<T>],
        sh: usize,
        sl: usize,
    ) {
        if same::<T, f64>() {
            x86::f64w::mat4_il(cast_ref(mm), flat_mut(amps), sh, sl);
        } else {
            x86::f32w::mat4_il(cast_ref(mm), flat_mut(amps), sh, sl);
        }
    }

    /// AVX2 arm of [`super::cmul_il`].
    ///
    /// # Safety
    /// As for [`mat2_il`]: AVX2 and FMA, proven by the caller's
    /// [`IlPath`].
    #[inline]
    pub(super) unsafe fn cmul_il<T: Scalar>(
        d: &[Complex<T>; 2],
        amps: &mut [Complex<T>],
        run: usize,
    ) {
        if same::<T, f64>() {
            x86::f64w::cmul_il(cast_ref(d), flat_mut(amps), run);
        } else {
            x86::f32w::cmul_il(cast_ref(d), flat_mut(amps), run);
        }
    }
}

/// AVX2/FMA lowering of the interleaved run kernels.
///
/// Bitwise contract: every vector op is the exact IEEE operation of the
/// scalar form — packed mul/add/sub for the plain complex product, and
/// packed FMA *iff* this compilation's [`ptsbe_math::cplx_mul_add_parts`]
/// uses the fused form ([`x86::FUSED`] is the same `cfg!` switch). The
/// `_il` kernels de-interleave two registers into `re` / `im` vectors,
/// run the packed products, and re-interleave; they take whole vectors
/// only (asserted), and their callers send shorter runs to the scalar
/// loops, so run length never changes a bit.
#[cfg(target_arch = "x86_64")]
pub mod x86 {
    use super::quad_runs;
    use core::arch::x86_64::*;
    use ptsbe_math::Complex;

    /// Whether this compilation contracts complex multiply-accumulate to
    /// hardware FMA — must match [`ptsbe_math::cplx_mul_add_parts`].
    pub const FUSED: bool = cfg!(target_feature = "fma");

    /// Runtime gate for the AVX2 kernels.
    pub fn supported() -> bool {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }

    // Interleaved <-> split shuffles. Each `deint_*` takes two registers
    // of consecutive interleaved complexes and returns `(re, im)` vectors
    // in a permuted element order (the same permutation in both, so the
    // elementwise arithmetic between them is unaffected); `int_*` is its
    // exact inverse. Pure data movement: no bit of any element changes.

    /// `[r0 i0 r1 i1] [r2 i2 r3 i3]` → `[r0 r2 r1 r3] [i0 i2 i1 i3]`.
    ///
    /// # Safety
    /// The CPU must support AVX2 ([`supported`]).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn deint_pd(a: __m256d, b: __m256d) -> (__m256d, __m256d) {
        (_mm256_unpacklo_pd(a, b), _mm256_unpackhi_pd(a, b))
    }

    /// Inverse of [`deint_pd`] (the same two unpacks).
    ///
    /// # Safety
    /// The CPU must support AVX2 ([`supported`]).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn int_pd(re: __m256d, im: __m256d) -> (__m256d, __m256d) {
        (_mm256_unpacklo_pd(re, im), _mm256_unpackhi_pd(re, im))
    }

    /// `[r0 i0 r1 i1 | r2 i2 r3 i3] [r4 i4 r5 i5 | r6 i6 r7 i7]` →
    /// `[r0 r1 r4 r5 | r2 r3 r6 r7] [i0 i1 i4 i5 | i2 i3 i6 i7]`.
    ///
    /// # Safety
    /// The CPU must support AVX2 ([`supported`]).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn deint_ps(a: __m256, b: __m256) -> (__m256, __m256) {
        (
            _mm256_shuffle_ps::<0x88>(a, b),
            _mm256_shuffle_ps::<0xDD>(a, b),
        )
    }

    /// Inverse of [`deint_ps`].
    ///
    /// # Safety
    /// The CPU must support AVX2 ([`supported`]).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn int_ps(re: __m256, im: __m256) -> (__m256, __m256) {
        (_mm256_unpacklo_ps(re, im), _mm256_unpackhi_ps(re, im))
    }

    macro_rules! avx2_width {
        ($name:ident, $t:ty, $v:ty, $w:expr,
         $loadu:ident, $storeu:ident, $set1:ident,
         $mul:ident, $add:ident, $sub:ident, $fmadd:ident, $fnmadd:ident,
         $deint:ident, $int:ident) => {
            /// Width-specialized kernels (see module docs).
            pub mod $name {
                use super::*;

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

                /// Packed `vec_ops::mat2_apply`: `(y0, y1) = M·(x0, x1)`
                /// on `(re, im)` vector pairs, entries broadcast in
                /// `er` / `ei`.
                #[inline]
                #[target_feature(enable = "avx2", enable = "fma")]
                unsafe fn vmat2(
                    er: &[$v; 4],
                    ei: &[$v; 4],
                    x0: ($v, $v),
                    x1: ($v, $v),
                ) -> (($v, $v), ($v, $v)) {
                    let (t0r, t0i) = vmul(er[1], ei[1], x1.0, x1.1);
                    let y0 = vmuladd(er[0], ei[0], x0.0, x0.1, t0r, t0i);
                    let (t1r, t1i) = vmul(er[3], ei[3], x1.0, x1.1);
                    let y1 = vmuladd(er[2], ei[2], x0.0, x0.1, t1r, t1i);
                    (y0, y1)
                }

                /// Packed `vec_ops::mat4_apply` on four `(re, im)`
                /// vector pairs.
                #[inline]
                #[target_feature(enable = "avx2", enable = "fma")]
                unsafe fn vmat4(
                    mvr: &[[$v; 4]; 4],
                    mvi: &[[$v; 4]; 4],
                    xr: [$v; 4],
                    xi: [$v; 4],
                ) -> ([$v; 4], [$v; 4]) {
                    let mut yr = xr;
                    let mut yi = xi;
                    for r in 0..4 {
                        let (tr, ti) = vmul(mvr[r][1], mvi[r][1], xr[1], xi[1]);
                        let (ar, ai) = vmuladd(mvr[r][0], mvi[r][0], xr[0], xi[0], tr, ti);
                        let (ar, ai) = vmuladd(mvr[r][2], mvi[r][2], xr[2], xi[2], ar, ai);
                        let (fr, fi) = vmuladd(mvr[r][3], mvi[r][3], xr[3], xi[3], ar, ai);
                        yr[r] = fr;
                        yi[r] = fi;
                    }
                    (yr, yi)
                }

                /// Broadcast four matrix entries.
                #[inline]
                #[target_feature(enable = "avx2", enable = "fma")]
                unsafe fn splat4(e: &[$t; 4]) -> [$v; 4] {
                    [$set1(e[0]), $set1(e[1]), $set1(e[2]), $set1(e[3])]
                }

                /// Broadcast four complex entries as `(re, im)` planes.
                #[inline]
                #[target_feature(enable = "avx2", enable = "fma")]
                unsafe fn splat4c(e: &[Complex<$t>; 4]) -> ([$v; 4], [$v; 4]) {
                    (splat4(&e.map(|z| z.re)), splat4(&e.map(|z| z.im)))
                }

                /// Load one vector of interleaved complexes (`2·W`
                /// scalars at `p`) as `(re, im)`, element order as the
                /// width's `deint_*` shuffle gives it.
                ///
                /// # Safety
                /// AVX2 and FMA ([`supported`]); `p` must be valid for
                /// reading `2·W` scalars.
                #[inline]
                #[target_feature(enable = "avx2", enable = "fma")]
                unsafe fn load_il(p: *const $t) -> ($v, $v) {
                    $deint($loadu(p), $loadu(p.add($w)))
                }

                /// Store `(re, im)` from [`load_il`]'s order back as
                /// interleaved complexes.
                ///
                /// # Safety
                /// AVX2 and FMA ([`supported`]); `p` must be valid for
                /// writing `2·W` scalars.
                #[inline]
                #[target_feature(enable = "avx2", enable = "fma")]
                unsafe fn store_il(p: *mut $t, z: ($v, $v)) {
                    let (a, b) = $int(z.0, z.1);
                    $storeu(p, a);
                    $storeu(p.add($w), b);
                }

                /// Diagonal factors over interleaved chunks: `amps`
                /// (scalars `[re, im, …]`) is a whole number of `2·run`
                /// complex chunks; the first `run` complexes of each are
                /// multiplied by `d[0]`, the rest by `d[1]`.
                ///
                /// # Safety
                /// The CPU must support AVX2 and FMA: selected only
                /// through a `kernels::IlPath` that
                /// [`crate::kernels::KernelImpl::resolve`] ([`supported`]) let stand.
                ///
                /// # Panics
                /// Panics unless a run is a whole number of vectors and
                /// `amps` a whole number of chunks.
                #[inline]
                #[target_feature(enable = "avx2", enable = "fma")]
                pub unsafe fn cmul_il(d: &[Complex<$t>; 2], amps: &mut [$t], run: usize) {
                    let len = 2 * run;
                    assert!(len > 0 && len % (2 * $w) == 0 && amps.len() % (2 * len) == 0);
                    let d = d.map(|z| ($set1(z.re), $set1(z.im)));
                    for (k, half) in amps.chunks_exact_mut(len).enumerate() {
                        let (vdr, vdi) = d[k & 1];
                        let p = half.as_mut_ptr();
                        let mut j = 0usize;
                        // `len` is a multiple of `2·W` (asserted), so
                        // every step stays inside `half`.
                        while j < len {
                            let (xr, xi) = load_il(p.add(j));
                            store_il(p.add(j), vmul(xr, xi, vdr, vdi));
                            j += 2 * $w;
                        }
                    }
                }

                /// Dense 1q over interleaved chunks: `amps` (scalars) is
                /// a whole number of `2·stride` complex chunks, each a
                /// `(lo, hi)` run pair.
                ///
                /// # Safety
                /// The CPU must support AVX2 and FMA: selected only
                /// through a `kernels::IlPath` that
                /// [`crate::kernels::KernelImpl::resolve`] ([`supported`]) let stand.
                ///
                /// # Panics
                /// Panics unless a run is a whole number of vectors and
                /// `amps` a whole number of chunks.
                #[inline]
                #[target_feature(enable = "avx2", enable = "fma")]
                pub unsafe fn mat2_il(e: &[Complex<$t>; 4], amps: &mut [$t], stride: usize) {
                    let len = 2 * stride;
                    assert!(len > 0 && len % (2 * $w) == 0 && amps.len() % (2 * len) == 0);
                    let (ver, vei) = splat4c(e);
                    for chunk in amps.chunks_exact_mut(2 * len) {
                        let (lo, hi) = chunk.split_at_mut(len);
                        let (lo, hi) = (lo.as_mut_ptr(), hi.as_mut_ptr());
                        let mut j = 0usize;
                        // `len` is a multiple of `2·W` (asserted), so
                        // every step stays inside both `len`-long runs.
                        while j < len {
                            let (y0, y1) =
                                vmat2(&ver, &vei, load_il(lo.add(j)), load_il(hi.add(j)));
                            store_il(lo.add(j), y0);
                            store_il(hi.add(j), y1);
                            j += 2 * $w;
                        }
                    }
                }

                /// Dense 2q over interleaved chunks: `amps` (scalars) is
                /// a whole number of `2·sh` complex chunks, swept quad
                /// by quad over their four `sl`-complex runs.
                ///
                /// # Safety
                /// The CPU must support AVX2 and FMA: selected only
                /// through a `kernels::IlPath` that
                /// [`crate::kernels::KernelImpl::resolve`] ([`supported`]) let stand.
                ///
                /// # Panics
                /// Panics unless a run is a whole number of vectors,
                /// `sh` a whole number of run pairs and `amps` a whole
                /// number of chunks.
                #[inline]
                #[target_feature(enable = "avx2", enable = "fma")]
                pub unsafe fn mat4_il(
                    mm: &[[Complex<$t>; 4]; 4],
                    amps: &mut [$t],
                    sh: usize,
                    sl: usize,
                ) {
                    let len = 2 * sl;
                    assert!(
                        len > 0
                            && len % (2 * $w) == 0
                            && sh % (2 * sl) == 0
                            && amps.len() % (4 * sh) == 0
                    );
                    let rows = [
                        splat4c(&mm[0]),
                        splat4c(&mm[1]),
                        splat4c(&mm[2]),
                        splat4c(&mm[3]),
                    ];
                    let (mvr, mvi) = (rows.map(|r| r.0), rows.map(|r| r.1));
                    for chunk in amps.chunks_exact_mut(4 * sh) {
                        let mut base = 0usize;
                        while base < sh {
                            // Rows of two scalars: each run is `len` long.
                            let p = quad_runs(chunk, base, sh, sl, 2).map(|r| r.as_mut_ptr());
                            let mut j = 0usize;
                            // `len` is a multiple of `2·W` (asserted), so
                            // every step stays inside all four runs.
                            while j < len {
                                let x = [
                                    load_il(p[0].add(j)),
                                    load_il(p[1].add(j)),
                                    load_il(p[2].add(j)),
                                    load_il(p[3].add(j)),
                                ];
                                let (yr, yi) = vmat4(&mvr, &mvi, x.map(|z| z.0), x.map(|z| z.1));
                                for k in 0..4 {
                                    store_il(p[k].add(j), (yr[k], yi[k]));
                                }
                                j += 2 * $w;
                            }
                            base += 2 * sl;
                        }
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
        _mm256_fnmadd_pd,
        deint_pd,
        int_pd
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
        _mm256_fnmadd_ps,
        deint_ps,
        int_ps
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Amplitudes for `n` qubits: pseudo-random values salted with the
    /// IEEE corner cases a packed op could treat differently from a
    /// scalar one (signed zeros, denormals, infinities, NaN).
    fn salted<T: Scalar>(n: usize, seed: u64) -> Vec<Complex<T>> {
        let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let denormal = if same::<T, f32>() {
            f32::MIN_POSITIVE as f64 / 8.0
        } else {
            f64::MIN_POSITIVE / 8.0
        };
        let mut part = move || {
            let r = next();
            T::from_f64(match r % 23 {
                0 => 0.0,
                1 => -0.0,
                2 => denormal,
                3 => -denormal,
                4 => f64::INFINITY,
                5 => f64::NEG_INFINITY,
                6 => f64::NAN,
                _ => ((r >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0,
            })
        };
        (0..1usize << n)
            .map(|_| Complex::new(part(), part()))
            .collect()
    }

    /// Bit pattern of a scalar, with every NaN mapped to one key: which
    /// NaN an operation with two NaN operands (an input NaN meeting an
    /// `∞·0`) returns depends on the operand order the compiler picked,
    /// in scalar and packed code alike. Everything else — signed zeros,
    /// denormals, infinities — must match to the bit.
    fn key<T: Scalar>(x: T) -> u64 {
        let x = x.to_f64();
        if x.is_nan() {
            u64::MAX
        } else {
            x.to_bits()
        }
    }

    fn assert_bitwise<T: Scalar>(simd: &[Complex<T>], scalar: &[Complex<T>], label: &str) {
        for (i, (a, b)) in simd.iter().zip(scalar).enumerate() {
            assert_eq!(
                (key(a.re), key(a.im)),
                (key(b.re), key(b.im)),
                "{label}: amplitude {i}: {a:?} vs {b:?}"
            );
        }
    }

    /// The path a gate whose runs hold `run` complexes takes when SIMD is
    /// requested, checked against what this machine can do — so the
    /// tests below compare AVX2 with scalar wherever AVX2 can run, and
    /// scalar with itself elsewhere.
    fn simd_path<T: Scalar>(run: usize) -> IlPath {
        let path = IlPath::with::<T>(KernelImpl::Simd, run);
        assert_eq!(
            path.simd,
            KernelImpl::simd_supported() && run >= IlPath::vector::<T>()
        );
        path
    }

    fn interleaved_kernels_match_scalar<T: Scalar>() {
        let entries = salted::<T>(5, 99);
        let e: [Complex<T>; 4] = std::array::from_fn(|k| entries[k]);
        let mm: [[Complex<T>; 4]; 4] =
            std::array::from_fn(|r| std::array::from_fn(|c| entries[4 + 4 * r + c]));
        // Finite, non-salted matrices as well: a NaN entry would turn
        // the whole state into NaNs and hide everything else.
        let plain = |k: usize| {
            Complex::new(
                T::from_f64(0.3 + 0.11 * k as f64),
                T::from_f64(-0.7 + 0.13 * k as f64),
            )
        };
        let e_plain: [Complex<T>; 4] = std::array::from_fn(plain);
        let mm_plain: [[Complex<T>; 4]; 4] =
            std::array::from_fn(|r| std::array::from_fn(|c| plain(4 * r + c + 1)));
        // n ≤ 2 never vectorises; n = 6 reaches whole-vector runs at
        // both widths (q ≥ 2 at f64, q ≥ 3 at f32).
        for n in 1..=6usize {
            let amps = salted::<T>(n, n as u64);
            for q in 0..n {
                let stride = 1usize << q;
                let path = simd_path::<T>(stride);
                for (tag, e) in [("salted", &e), ("plain", &e_plain)] {
                    let (mut a, mut b) = (amps.clone(), amps.clone());
                    mat2_il(path, e, &mut a, stride);
                    mat2_il_scalar(e, &mut b, stride);
                    assert_bitwise(&a, &b, &format!("mat2 {tag} n={n} q={q}"));

                    let d = [e[1], e[2]];
                    let (mut a, mut b) = (amps.clone(), amps.clone());
                    cmul_il(path, &d, &mut a, stride);
                    cmul_il_scalar(&d, &mut b, stride);
                    assert_bitwise(&a, &b, &format!("cmul {tag} n={n} q={q}"));
                }
                for ql in 0..q {
                    let (sh, sl) = (stride, 1usize << ql);
                    let path = simd_path::<T>(sl);
                    for (tag, mm) in [("salted", &mm), ("plain", &mm_plain)] {
                        let (mut a, mut b) = (amps.clone(), amps.clone());
                        mat4_il(path, mm, &mut a, sh, sl);
                        mat4_il_scalar(mm, &mut b, sh, sl);
                        assert_bitwise(&a, &b, &format!("mat4 {tag} n={n} qh={q} ql={ql}"));

                        let (mut a, mut b) = (amps.clone(), amps.clone());
                        diag2_il(path, &mm[1], &mut a, sh, sl);
                        diag2_il_scalar(&mm[1], &mut b, sh, sl);
                        assert_bitwise(&a, &b, &format!("diag2 {tag} n={n} qh={q} ql={ql}"));
                    }
                }
            }
        }
    }

    /// Every `PTSBE_BATCH_KERNELS` value parses to its selection.
    #[test]
    fn kernel_switch_values_parse() {
        assert_eq!(KernelImpl::parse("scalar"), KernelImpl::Scalar);
        assert_eq!(KernelImpl::parse("soa"), KernelImpl::Soa);
        assert_eq!(KernelImpl::parse("simd"), KernelImpl::Simd);
    }

    #[test]
    #[should_panic(expected = "PTSBE_BATCH_KERNELS must be scalar|soa|simd, got \"avx\"")]
    fn kernel_switch_typo_panics() {
        KernelImpl::parse("avx");
    }

    #[test]
    fn interleaved_kernels_match_scalar_f64() {
        interleaved_kernels_match_scalar::<f64>();
    }

    #[test]
    fn interleaved_kernels_match_scalar_f32() {
        interleaved_kernels_match_scalar::<f32>();
    }

    #[test]
    fn interleaved_path_needs_simd_and_a_whole_vector() {
        for run in [1usize, 2, 4, 8, 1024] {
            for kernels in [KernelImpl::Scalar, KernelImpl::Soa] {
                assert!(!IlPath::with::<f64>(kernels, run).simd);
                assert!(!IlPath::with::<f32>(kernels, run).simd);
            }
            let on = KernelImpl::simd_supported();
            assert_eq!(
                IlPath::with::<f64>(KernelImpl::Simd, run).simd,
                on && run >= 4
            );
            assert_eq!(
                IlPath::with::<f32>(KernelImpl::Simd, run).simd,
                on && run >= 8
            );
        }
    }

    #[test]
    fn quad_runs_tile_a_chunk_in_hl_order() {
        // 2·sh = 16 rows of b = 3 elements, sl = 2: two quads.
        let (sh, sl, b) = (8usize, 2usize, 3usize);
        let mut chunk: Vec<usize> = (0..2 * sh * b).collect();
        let mut seen = vec![false; chunk.len()];
        for base in [0usize, 4] {
            let runs = quad_runs(&mut chunk, base, sh, sl, b);
            for (k, run) in runs.iter().enumerate() {
                let first_row = base + (k & 1) * sl + (k >> 1) * sh;
                assert_eq!(run.len(), sl * b);
                assert_eq!(run[0], first_row * b, "quad at {base}, run {k}");
                for &x in run.iter() {
                    assert!(!std::mem::replace(&mut seen[x], true));
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
    }
}
