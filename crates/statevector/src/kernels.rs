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
//! | `Simd`         | `soa-simd`         | AVX2/FMA tiles at every qubit              |
//!
//! The two loop bodies are **bitwise identical**: the AVX2 paths form
//! each product with the same packed multiply / multiply-add the
//! [`Complex`] operators' parts-level helpers
//! ([`ptsbe_math::cplx_mul_parts`] / [`ptsbe_math::cplx_mul_add_parts`])
//! use, with the same compile-time fused/unfused choice (see
//! [`x86::FUSED`]). An AVX2 step is a *tile*: one per-element step in
//! each lane of a register pair (4 lanes at `f64`, 8 at `f32`). A dense
//! kernel gathers one row of the tile's consecutive pairs or quads into
//! the pair — whole 256-bit loads once a run fills a register, 128- or
//! 64-bit pieces of shorter runs (qubit < 2 at `f64`, < 3 at `f32`) — and
//! scatters it back; a diagonal scales consecutive complexes by per-lane
//! factors. Under `Simd` a slice takes the tiles whenever it holds a
//! whole number of them, so only states smaller than one tile keep the
//! per-element loops (a `G1` tile is 8 complexes at `f64` and 16 at
//! `f32`, a `G2` tile twice that, a diagonal's half). The selection is read per gate from
//! [`KernelImpl::auto`] — SIMD when the CPU supports it, or forced via the
//! `PTSBE_BATCH_KERNELS` environment variable (`scalar` | `soa` | `simd`)
//! for equivalence testing.

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
    /// AVX2/FMA `core::arch` tiles for the dense 1q/2q and diagonal
    /// kernels at every qubit, gathering runs shorter than a vector; a
    /// state smaller than one tile takes the per-element loops. Falls
    /// back to `Soa` off x86-64 or when the CPU lacks AVX2+FMA.
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
/// AVX2 tiles, or the per-element loops. Resolved once per gate call.
#[derive(Clone, Copy, Debug)]
pub(crate) struct IlPath {
    /// Set only by [`IlPath::with`], after [`KernelImpl::resolve`] kept
    /// `Simd` — the AVX2+FMA check the `unsafe` kernels rest on. Private
    /// so no other code can claim it.
    simd: bool,
}

impl IlPath {
    /// The path under [`KernelImpl::auto`].
    pub(crate) fn auto() -> Self {
        Self::with(KernelImpl::auto())
    }

    /// AVX2 iff `kernels` resolves to `Simd` here.
    fn with(kernels: KernelImpl) -> Self {
        Self {
            simd: kernels.resolve() == KernelImpl::Simd,
        }
    }

    /// Whether a slice of `len` complexes takes the AVX2 tiles of a kernel
    /// whose per-element step reads `rows` amplitudes (2 for a pair, 4 for
    /// a quad, 1 for a diagonal): AVX2 must run here and the slice must
    /// be a whole number of tiles, one vector of such steps each.
    fn tiles<T: Scalar>(self, len: usize, rows: usize) -> bool {
        self.simd && len > 0 && len.is_multiple_of(rows * Self::vector::<T>())
    }

    /// Complexes per AVX2 register pair: two 256-bit registers of
    /// interleaved `T`s (0, which no slice fits, for a width without
    /// AVX2 kernels).
    fn vector<T: Scalar>() -> usize {
        if same::<T, f64>() {
            4
        } else if same::<T, f32>() {
            8
        } else {
            0
        }
    }
}

/// Dense 1q over interleaved amplitudes: `amps` is any whole number of
/// `2·stride` chunks, each a `(lo, hi)` run pair that becomes
/// `M · (lo, hi)` elementwise; `e` is row-major `[m00, m01, m10, m11]`.
/// `stride` is a power of two.
#[inline]
pub(crate) fn mat2_il<T: Scalar>(
    path: IlPath,
    e: &[Complex<T>; 4],
    amps: &mut [Complex<T>],
    stride: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if path.tiles::<T>(amps.len(), 2) {
        // SAFETY: `path.simd` is set only by `IlPath::with`, after
        // `KernelImpl::resolve` kept `Simd`, i.e. `x86::supported()` saw
        // AVX2 and FMA on this CPU.
        return unsafe { simd_impl::mat2_il(e, amps, stride) };
    }
    mat2_il_scalar(e, amps, stride);
}

/// Dense 2q over interleaved amplitudes: `amps` is any whole number of
/// `2·sh` chunks; `mm` in local `[hl]` order; `sh` and `sl` are powers of
/// two, `sh > sl`.
#[inline]
pub(crate) fn mat4_il<T: Scalar>(
    path: IlPath,
    mm: &[[Complex<T>; 4]; 4],
    amps: &mut [Complex<T>],
    sh: usize,
    sl: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if path.tiles::<T>(amps.len(), 4) {
        // SAFETY: as in `mat2_il` — `path.simd` proves AVX2 and FMA.
        return unsafe { simd_impl::mat4_il(mm, amps, sh, sl) };
    }
    mat4_il_scalar(mm, amps, sh, sl);
}

/// Diagonal factors over interleaved amplitudes: `amps` is any whole
/// number of `2·run` chunks, whose first `run` amplitudes are multiplied
/// by `d[0]` and the rest by `d[1]` (plain complex multiply, `z · d`).
/// `run` is a power of two.
#[inline]
pub(crate) fn cmul_il<T: Scalar>(
    path: IlPath,
    d: &[Complex<T>; 2],
    amps: &mut [Complex<T>],
    run: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if path.tiles::<T>(amps.len(), 1) {
        // SAFETY: as in `mat2_il` — `path.simd` proves AVX2 and FMA.
        return unsafe { simd_impl::cmul_il(d, amps, run) };
    }
    cmul_il_scalar(d, amps, run);
}

/// Two-qubit diagonal over interleaved amplitudes: `amps` is any whole
/// number of `2·sh` chunks; the four `sl`-long runs of each quad are
/// multiplied by `ld[0..4]` (local `[hl]` order); `sh` and `sl` are
/// powers of two, `sh > sl`.
#[inline]
pub(crate) fn diag2_il<T: Scalar>(
    path: IlPath,
    ld: &[Complex<T>; 4],
    amps: &mut [Complex<T>],
    sh: usize,
    sl: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if path.tiles::<T>(amps.len(), 1) {
        // SAFETY: as in `mat2_il` — `path.simd` proves AVX2 and FMA.
        return unsafe { simd_impl::diag2_il(ld, amps, sh, sl) };
    }
    diag2_il_scalar(ld, amps, sh, sl);
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

    /// AVX2 arm of [`super::diag2_il`].
    ///
    /// # Safety
    /// As for [`mat2_il`]: AVX2 and FMA, proven by the caller's
    /// [`IlPath`].
    #[inline]
    pub(super) unsafe fn diag2_il<T: Scalar>(
        ld: &[Complex<T>; 4],
        amps: &mut [Complex<T>],
        sh: usize,
        sl: usize,
    ) {
        if same::<T, f64>() {
            x86::f64w::diag2_il(cast_ref(ld), flat_mut(amps), sh, sl);
        } else {
            x86::f32w::diag2_il(cast_ref(ld), flat_mut(amps), sh, sl);
        }
    }
}

/// AVX2/FMA lowering of the interleaved run kernels.
///
/// Bitwise contract: every vector op is the exact IEEE operation of the
/// scalar form — packed mul/add/sub for the plain complex product, and
/// packed FMA *iff* this compilation's [`ptsbe_math::cplx_mul_add_parts`]
/// uses the fused form ([`x86::FUSED`] is the same `cfg!` switch). Each
/// lane of a step is one per-element step of the scalar form: the dense
/// kernels gather one row of `W` consecutive pairs or quads into a
/// register pair (whole-vector loads of runs that fill a register, 128-
/// or 64-bit piece loads of shorter ones), de-interleave it into `re` /
/// `im` vectors, run the packed products and scatter it back; the
/// diagonals multiply `W` consecutive complexes by a per-lane factor
/// vector. Loads, stores and shuffles only move bits, so run length never
/// changes one.
#[cfg(target_arch = "x86_64")]
pub mod x86 {
    use core::arch::x86_64::*;
    use ptsbe_math::Complex;
    use std::mem::size_of;

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

    /// `x` as it is: the `f64` width's no-op in place of the `f32`
    /// width's `__m256` <-> `__m256d` casts.
    #[inline(always)]
    fn as_is(x: __m256d) -> __m256d {
        x
    }

    // Tile geometry. A dense kernel's per-element step reads one *group*
    // of amplitudes: a pair (row offsets `0, s`) or a quad (`0, sl, sh,
    // sh + sl`). Group `t` of a sweep starts at complex `t` with a zero
    // bit inserted at each row-offset bit, and a *tile* is `W` consecutive
    // groups, `W` the lanes of a register pair. One row of a tile is
    // gathered register by register from contiguous pieces of
    // `min(s_low, W/2)` complexes, `s_low` the lowest row offset: one
    // 256-bit load per register once a run fills it, else two 128-bit or
    // four 64-bit loads. Tile starts are exactly the byte offsets whose
    // `fixed` bits are clear, so the sweep steps from one to the next
    // with a masked increment instead of inserting bits per tile.

    /// Where a sweep's tiles and their pieces sit, in bytes.
    #[derive(Clone, Copy)]
    struct Tiling {
        /// `!(g - 1)` for each row-offset bit `g` in bytes, lowest first;
        /// 0 (inserts nothing) where a pair has no second bit.
        masks: [usize; 2],
        /// The bits clear in every tile's start: those below the second
        /// tile's start, and the row-offset bits.
        fixed: usize,
        /// Pieces per register: 1, 2 or 4.
        parts: usize,
        /// Each register's pieces, from the tile's first group.
        offs: [[usize; 4]; 2],
    }

    impl Tiling {
        /// Tiles of `w` groups of `cb`-byte complexes whose row-offset bits
        /// are `gaps` (powers of two in complexes, lowest first; 0 for
        /// none).
        fn new(w: usize, gaps: [usize; 2], cb: usize) -> Self {
            let half = w / 2;
            let piece = gaps[0].min(half);
            let mut t = Self {
                masks: gaps.map(|g| if g == 0 { 0 } else { !(g * cb - 1) }),
                fixed: 0,
                parts: half / piece,
                offs: [[0; 4]; 2],
            };
            t.fixed = (t.spread(w * cb) - 1) | (gaps[0] * cb) | (gaps[1] * cb);
            for r in 0..2 {
                for k in 0..t.parts {
                    t.offs[r][k] = t.spread((r * half + k * piece) * cb);
                }
            }
            t
        }

        /// Byte offset `x` of a group counted as if groups were single
        /// complexes, with a zero bit inserted at each row-offset bit.
        fn spread(&self, x: usize) -> usize {
            let x = x + (x & self.masks[0]);
            x + (x & self.masks[1])
        }

        /// The start of the tile after the one at `at`: the next offset
        /// with every [`Tiling::fixed`] bit clear (`at` has none set, so
        /// `at + fixed` is `at | fixed`).
        #[inline(always)]
        fn next(&self, at: usize) -> usize {
            (at + self.fixed + 1) & !self.fixed
        }
    }

    /// One register of interleaved scalars from `parts` pieces, piece `k`
    /// at `p + offs[k] + at`: one 256-bit, two 128-bit or four 64-bit
    /// loads. Pure data movement, for `f64` and (cast) `f32` registers
    /// alike. (`at` is added last so that `p + offs[k]` stays fixed over
    /// a sweep and each address is one register plus `at`.)
    ///
    /// # Safety
    /// AVX2 ([`supported`]); each piece must be valid for reading
    /// `32 / parts` bytes.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn load_reg<const PARTS: usize>(p: *const u8, offs: &[usize; 4], at: usize) -> __m256d {
        let piece = |k: usize| p.add(offs[k]).add(at);
        match PARTS {
            1 => _mm256_loadu_pd(piece(0).cast()),
            2 => _mm256_loadu2_m128d(piece(1).cast(), piece(0).cast()),
            _ => _mm256_castsi256_pd(_mm256_set_epi64x(
                piece(3).cast::<i64>().read_unaligned(),
                piece(2).cast::<i64>().read_unaligned(),
                piece(1).cast::<i64>().read_unaligned(),
                piece(0).cast::<i64>().read_unaligned(),
            )),
        }
    }

    /// Inverse of [`load_reg`]: `v` back to its pieces.
    ///
    /// # Safety
    /// AVX2 ([`supported`]); each piece must be valid for writing
    /// `32 / parts` bytes.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn store_reg<const PARTS: usize>(p: *mut u8, offs: &[usize; 4], at: usize, v: __m256d) {
        let piece = |k: usize| p.add(offs[k]).add(at);
        match PARTS {
            1 => _mm256_storeu_pd(piece(0).cast(), v),
            2 => _mm256_storeu2_m128d(piece(1).cast(), piece(0).cast(), v),
            _ => {
                let v = _mm256_castpd_si256(v);
                let put = |k: usize, x: i64| piece(k).cast::<i64>().write_unaligned(x);
                put(0, _mm256_extract_epi64::<0>(v));
                put(1, _mm256_extract_epi64::<1>(v));
                put(2, _mm256_extract_epi64::<2>(v));
                put(3, _mm256_extract_epi64::<3>(v));
            }
        }
    }

    macro_rules! avx2_width {
        ($name:ident, $t:ty, $v:ty, $w:expr,
         $loadu:ident, $storeu:ident, $set1:ident,
         $mul:ident, $add:ident, $sub:ident, $fmadd:ident, $fnmadd:ident,
         $deint:ident, $int:ident, $from_pd:ident, $to_pd:ident) => {
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

                /// Gather one row of the tile at `at` ([`Tiling`]), the
                /// row starting at `p` in the sweep's first tile, as
                /// `(re, im)` in [`load_il`]'s element order.
                ///
                /// # Safety
                /// AVX2 and FMA ([`supported`]); every piece of the row
                /// must be valid for reading.
                #[inline]
                #[target_feature(enable = "avx2", enable = "fma")]
                unsafe fn load_row<const PARTS: usize>(
                    p: *const u8,
                    at: usize,
                    t: &Tiling,
                ) -> ($v, $v) {
                    $deint(
                        $from_pd(load_reg::<PARTS>(p, &t.offs[0], at)),
                        $from_pd(load_reg::<PARTS>(p, &t.offs[1], at)),
                    )
                }

                /// Scatter `(re, im)` from [`load_row`]'s order back.
                ///
                /// # Safety
                /// AVX2 and FMA ([`supported`]); every piece of the row
                /// must be valid for writing.
                #[inline]
                #[target_feature(enable = "avx2", enable = "fma")]
                unsafe fn store_row<const PARTS: usize>(
                    p: *mut u8,
                    at: usize,
                    t: &Tiling,
                    z: ($v, $v),
                ) {
                    let (a, b) = $int(z.0, z.1);
                    store_reg::<PARTS>(p, &t.offs[0], at, $to_pd(a));
                    store_reg::<PARTS>(p, &t.offs[1], at, $to_pd(b));
                }

                /// Diagonal factors, `W` consecutive complexes per step:
                /// complex `i` of `amps` (scalars `[re, im, …]`) is
                /// multiplied by `ld[2·[i & hi ≠ 0] + [i & lo ≠ 0]]`
                /// (`hi`, `lo` powers of two, or `hi = 0`).
                ///
                /// # Safety
                /// AVX2 and FMA ([`supported`]).
                ///
                /// # Panics
                /// Panics unless `amps` is a whole number of steps, and of
                /// `2·hi` and `2·lo` chunks.
                #[inline]
                #[target_feature(enable = "avx2", enable = "fma")]
                unsafe fn diag_il(ld: &[Complex<$t>; 4], amps: &mut [$t], hi: usize, lo: usize) {
                    let n = amps.len() / 2;
                    assert!(n > 0 && n % $w == 0 && n % (2 * hi.max(lo)) == 0);
                    // A step starts at a multiple of `W`: a bit of `hi` or
                    // `lo` below `W` takes the same pattern within every
                    // step, one at or above it is constant over the step.
                    // So step `b`'s factors are `f[sel(b)]`, and lane `i`
                    // of `f[s]` holds `ld[s ^ sel(i)]`.
                    let sel = |i: usize| 2 * usize::from(i & hi != 0) + usize::from(i & lo != 0);
                    let mut fs: [[$t; 2 * $w]; 4] = [[0.0; 2 * $w]; 4];
                    for (s, row) in fs.iter_mut().enumerate() {
                        for i in 0..$w {
                            let z = ld[s ^ sel(i)];
                            row[2 * i] = z.re;
                            row[2 * i + 1] = z.im;
                        }
                    }
                    let f = [
                        load_il(fs[0].as_ptr()),
                        load_il(fs[1].as_ptr()),
                        load_il(fs[2].as_ptr()),
                        load_il(fs[3].as_ptr()),
                    ];
                    // The factors stay over blocks of the lowest of `hi`,
                    // `lo` at or above `W` (a power of two that divides
                    // `n`, as `amps` is a whole number of its chunks), or
                    // over all of `amps`.
                    let block = [hi, lo]
                        .into_iter()
                        .filter(|&m| m >= $w)
                        .fold(n, usize::min);
                    let p = amps.as_mut_ptr();
                    for start in (0..n).step_by(block) {
                        let (fr, fi) = f[sel(start)];
                        // `block` and `n` are whole numbers of `W`-complex
                        // steps (asserted), so every step stays inside
                        // `amps`.
                        for b in (start..start + block).step_by($w) {
                            let (xr, xi) = load_il(p.add(2 * b));
                            store_il(p.add(2 * b), vmul(xr, xi, fr, fi));
                        }
                    }
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
                /// Panics unless `run` is a power of two and `amps` a
                /// whole number of chunks and of `W`-complex steps.
                #[inline]
                #[target_feature(enable = "avx2", enable = "fma")]
                pub unsafe fn cmul_il(d: &[Complex<$t>; 2], amps: &mut [$t], run: usize) {
                    assert!(run.is_power_of_two());
                    diag_il(&[d[0], d[1], d[0], d[1]], amps, 0, run);
                }

                /// Two-qubit diagonal over interleaved chunks: `amps`
                /// (scalars) is a whole number of `2·sh` complex chunks;
                /// the four `sl`-complex runs of each quad are multiplied
                /// by `ld[0..4]` (local `[hl]` order).
                ///
                /// # Safety
                /// The CPU must support AVX2 and FMA: selected only
                /// through a `kernels::IlPath` that
                /// [`crate::kernels::KernelImpl::resolve`] ([`supported`]) let stand.
                ///
                /// # Panics
                /// Panics unless `sh > sl` are powers of two and `amps`
                /// a whole number of chunks and of `W`-complex steps.
                #[inline]
                #[target_feature(enable = "avx2", enable = "fma")]
                pub unsafe fn diag2_il(
                    ld: &[Complex<$t>; 4],
                    amps: &mut [$t],
                    sh: usize,
                    sl: usize,
                ) {
                    assert!(sl.is_power_of_two() && sh.is_power_of_two() && sh > sl);
                    diag_il(ld, amps, sh, sl);
                }

                /// Dense 1q over interleaved chunks: `amps` (scalars) is
                /// a whole number of `2·stride` complex chunks, each a
                /// `(lo, hi)` run pair, swept a tile of `W` pairs at a
                /// time.
                ///
                /// # Safety
                /// The CPU must support AVX2 and FMA: selected only
                /// through a `kernels::IlPath` that
                /// [`crate::kernels::KernelImpl::resolve`] ([`supported`]) let stand.
                ///
                /// # Panics
                /// Panics unless `stride` is a power of two and `amps` a
                /// whole number of chunks and of tiles.
                #[inline]
                #[target_feature(enable = "avx2", enable = "fma")]
                pub unsafe fn mat2_il(e: &[Complex<$t>; 4], amps: &mut [$t], stride: usize) {
                    let n = amps.len() / 2;
                    assert!(
                        stride.is_power_of_two()
                            && n > 0
                            && n % (2 * stride) == 0
                            && n % (2 * $w) == 0
                    );
                    let t = Tiling::new($w, [stride, 0], size_of::<Complex<$t>>());
                    match t.parts {
                        1 => mat2_tiles::<1>(e, amps, stride, &t),
                        2 => mat2_tiles::<2>(e, amps, stride, &t),
                        _ => mat2_tiles::<4>(e, amps, stride, &t),
                    }
                }

                /// [`mat2_il`]'s loop, row loads of `PARTS` pieces.
                #[inline]
                #[target_feature(enable = "avx2", enable = "fma")]
                unsafe fn mat2_tiles<const PARTS: usize>(
                    e: &[Complex<$t>; 4],
                    amps: &mut [$t],
                    stride: usize,
                    t: &Tiling,
                ) {
                    let (ver, vei) = splat4c(e);
                    let hi = stride * size_of::<Complex<$t>>();
                    let p = amps.as_mut_ptr().cast::<u8>();
                    let (lo, hi) = (p, p.add(hi));
                    let mut at = 0usize;
                    // `amps` is a whole number of tiles (asserted by
                    // `mat2_il`), and tile starts run in increasing order.
                    for _ in 0..amps.len() / (4 * $w) {
                        let (y0, y1) = vmat2(
                            &ver,
                            &vei,
                            load_row::<PARTS>(lo, at, t),
                            load_row::<PARTS>(hi, at, t),
                        );
                        store_row::<PARTS>(lo, at, t, y0);
                        store_row::<PARTS>(hi, at, t, y1);
                        at = t.next(at);
                    }
                }

                /// Dense 2q over interleaved chunks: `amps` (scalars) is
                /// a whole number of `2·sh` complex chunks, swept a tile
                /// of `W` quads (rows `0, sl, sh, sh + sl`) at a time.
                ///
                /// # Safety
                /// The CPU must support AVX2 and FMA: selected only
                /// through a `kernels::IlPath` that
                /// [`crate::kernels::KernelImpl::resolve`] ([`supported`]) let stand.
                ///
                /// # Panics
                /// Panics unless `sh > sl` are powers of two and `amps`
                /// a whole number of chunks and of tiles.
                #[inline]
                #[target_feature(enable = "avx2", enable = "fma")]
                pub unsafe fn mat4_il(
                    mm: &[[Complex<$t>; 4]; 4],
                    amps: &mut [$t],
                    sh: usize,
                    sl: usize,
                ) {
                    let n = amps.len() / 2;
                    assert!(
                        sl.is_power_of_two()
                            && sh.is_power_of_two()
                            && sh > sl
                            && n > 0
                            && n % (2 * sh) == 0
                            && n % (4 * $w) == 0
                    );
                    let t = Tiling::new($w, [sl, sh], size_of::<Complex<$t>>());
                    match t.parts {
                        1 => mat4_tiles::<1>(mm, amps, sh, sl, &t),
                        2 => mat4_tiles::<2>(mm, amps, sh, sl, &t),
                        _ => mat4_tiles::<4>(mm, amps, sh, sl, &t),
                    }
                }

                /// [`mat4_il`]'s loop, row loads of `PARTS` pieces.
                #[inline]
                #[target_feature(enable = "avx2", enable = "fma")]
                unsafe fn mat4_tiles<const PARTS: usize>(
                    mm: &[[Complex<$t>; 4]; 4],
                    amps: &mut [$t],
                    sh: usize,
                    sl: usize,
                    t: &Tiling,
                ) {
                    let rows = [
                        splat4c(&mm[0]),
                        splat4c(&mm[1]),
                        splat4c(&mm[2]),
                        splat4c(&mm[3]),
                    ];
                    let (mvr, mvi) = (rows.map(|r| r.0), rows.map(|r| r.1));
                    let cb = size_of::<Complex<$t>>();
                    let p = amps.as_mut_ptr().cast::<u8>();
                    let r = [0, sl, sh, sh + sl].map(|r| p.add(r * cb));
                    let mut at = 0usize;
                    // `amps` is a whole number of tiles (asserted by
                    // `mat4_il`), and tile starts run in increasing order.
                    for _ in 0..amps.len() / (8 * $w) {
                        let x = [
                            load_row::<PARTS>(r[0], at, t),
                            load_row::<PARTS>(r[1], at, t),
                            load_row::<PARTS>(r[2], at, t),
                            load_row::<PARTS>(r[3], at, t),
                        ];
                        let (yr, yi) = vmat4(&mvr, &mvi, x.map(|z| z.0), x.map(|z| z.1));
                        for k in 0..4 {
                            store_row::<PARTS>(r[k], at, t, (yr[k], yi[k]));
                        }
                        at = t.next(at);
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
        int_pd,
        as_is,
        as_is
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
        int_ps,
        _mm256_castpd_ps,
        _mm256_castps_pd
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

    /// The path a gate takes when SIMD is requested, checked against what
    /// this machine can do — so the tests below compare AVX2 with scalar
    /// wherever AVX2 can run, and scalar with itself elsewhere.
    fn simd_path() -> IlPath {
        let path = IlPath::with(KernelImpl::Simd);
        assert_eq!(path.simd, KernelImpl::simd_supported());
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
        // Every qubit below the top one has runs shorter than a vector
        // at small n: states under one tile (n ≤ 2 at f64, n ≤ 3 at f32
        // for the 1q kernels) take the per-element loops, and n = 7
        // reaches every gathered tile shape at both widths (a quad tile
        // is 16 complexes at f64, 32 at f32) as well as whole-vector runs
        // (q ≥ 2 at f64, q ≥ 3 at f32).
        let path = simd_path();
        for n in 1..=7usize {
            let amps = salted::<T>(n, n as u64);
            for q in 0..n {
                let stride = 1usize << q;
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
    fn interleaved_path_needs_simd_and_a_whole_tile() {
        for kernels in [KernelImpl::Scalar, KernelImpl::Soa] {
            assert!(!IlPath::with(kernels).simd);
        }
        let path = IlPath::with(KernelImpl::Simd);
        let on = KernelImpl::simd_supported();
        assert_eq!(path.simd, on);
        // A tile is one register pair's lanes (4 at f64, 8 at f32) of
        // per-element steps of `rows` amplitudes, whatever the run length.
        for rows in [1usize, 2, 4] {
            for len in [1usize, 2, 4, 8, 16, 32, 64, 1024, 3 * 16, 6 * 32] {
                for kernels in [KernelImpl::Scalar, KernelImpl::Soa] {
                    assert!(!IlPath::with(kernels).tiles::<f64>(len, rows));
                    assert!(!IlPath::with(kernels).tiles::<f32>(len, rows));
                }
                assert_eq!(
                    path.tiles::<f64>(len, rows),
                    on && len % (4 * rows) == 0,
                    "f64 len={len} rows={rows}"
                );
                assert_eq!(
                    path.tiles::<f32>(len, rows),
                    on && len % (8 * rows) == 0,
                    "f32 len={len} rows={rows}"
                );
            }
            assert!(!path.tiles::<f64>(0, rows));
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
