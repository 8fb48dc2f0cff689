//! One-sided Jacobi SVD for complex matrices.
//!
//! The MPS backend truncates bond dimensions by SVD after every two-qubit
//! gate — exactly the kernel cuTensorNet delegates to cuSOLVER. One-sided
//! Jacobi is chosen for its simplicity, unconditional numerical robustness,
//! and high relative accuracy on small singular values (which matters when
//! deciding what entanglement to truncate).

use crate::complex::Complex;
use crate::matrix::Matrix;
use crate::scalar::Scalar;

/// Full SVD `A = U · diag(S) · Vh` with `U: m×k`, `S: k` (descending,
/// non-negative), `Vh: k×n`, `k = min(m, n)`.
pub struct Svd<T: Scalar> {
    /// Left singular vectors (columns), `m×k`.
    pub u: Matrix<T>,
    /// Singular values, descending.
    pub s: Vec<T>,
    /// Right singular vectors (rows, already conjugate-transposed), `k×n`.
    pub vh: Matrix<T>,
}

/// Maximum number of Jacobi sweeps before declaring convergence failure.
const MAX_SWEEPS: usize = 60;

/// Aspect ratio (max dim / min dim) at which [`svd_qr`] switches to the
/// QR-first reduction. One Householder pass costs ~m·n² flops while each
/// Jacobi sweep on the unreduced matrix costs ~m·n²; shrinking the long
/// side to `min(m, n)` before iterating pays for itself as soon as the
/// matrix is meaningfully rectangular.
const QR_FIRST_ASPECT: usize = 2;

/// Minimum `min(m, n)` at which [`svd_qr`] routes square and
/// near-square matrices through the rank-revealing (column-pivoted) QR
/// front end. Below this the Jacobi iteration is already cheap and the
/// pivoted pass would only add overhead.
const QRCP_MIN_DIM: usize = 64;

/// Thin SVD with a shape-aware front end. Matrices whose small side is
/// at least `QRCP_MIN_DIM` (64) go through the rank-revealing,
/// doubly-preconditioned route (`svd_qrcp`) regardless of aspect —
/// the dominant win on MPS two-site updates. Smaller matrices with
/// aspect ≥ `QR_FIRST_ASPECT` (2) factor the long dimension away with one
/// Householder QR pass and iterate only on the `k×k` core
/// (`k = min(m, n)`); small near-square inputs fall through to [`svd`]
/// untouched (bitwise identical).
///
/// Exact same contract as [`svd`]; results agree up to floating-point
/// round-off (not bitwise — the rotations act on a different matrix).
///
/// # Panics
/// Same convergence panic as [`svd`].
pub fn svd_qr<T: Scalar>(a: &Matrix<T>) -> Svd<T> {
    let m = a.rows();
    let n = a.cols();
    if m.min(n) >= QRCP_MIN_DIM {
        // Large matrices of any aspect: the rank-revealing front end
        // subsumes the plain QR-first reduction (its pivoted pass runs
        // on cache-friendly column-major storage, unlike `qr_thin`) and
        // additionally shrinks the iteration to the numerical rank.
        svd_qrcp(a)
    } else if n > 0 && m >= QR_FIRST_ASPECT * n {
        // A = Q R (Q: m×n isometry, R: n×n) ⇒ svd(R) = U S Vh gives
        // A = (Q U) S Vh.
        let qr = crate::qr::qr_thin(a);
        let core = svd(&qr.r);
        Svd {
            u: qr.q.mul_ref(&core.u),
            s: core.s,
            vh: core.vh,
        }
    } else if m > 0 && n >= QR_FIRST_ASPECT * m {
        // A† = Q R (Q: n×m, R: m×m) ⇒ A = R† Q†; svd(R†) = U S W gives
        // A = U S (W Q†).
        let qr = crate::qr::qr_thin(&a.dagger());
        let core = svd(&qr.r.dagger());
        Svd {
            u: core.u,
            s: core.s,
            vh: core.vh.mul_ref(&qr.q.dagger()),
        }
    } else {
        svd(a)
    }
}

/// Rank-revealing, doubly-preconditioned SVD for large matrices
/// (Drmač–Veselić): column-pivoted QR concentrates the mass in the
/// leading rows of `R`, the provably negligible trailing rows are
/// dropped (perturbation ≤ `16·eps·‖A‖_F`, i.e. `O(eps)` relative —
/// below the Jacobi convergence tolerance itself), and a *second*
/// pivoted QR pass of `R_top†` turns the remaining `rank×n` block into
/// a square triangular factor whose columns are already nearly
/// orthogonal — one-sided Jacobi then converges in a small handful of
/// sweeps instead of the ~log(1/eps) it needs on raw near-square input.
/// MPS two-site matrices are the motivating workload: their
/// `(2χ)×(2χ)` updates dominate encoded-state preparation.
///
/// Singular values below the drop threshold come back as exact `0.0`
/// with zero singular-vector columns — the same convention [`svd`] uses
/// for exactly-zero singular values.
fn svd_qrcp<T: Scalar>(a: &Matrix<T>) -> Svd<T> {
    let m = a.rows();
    let n = a.cols();
    if m < n {
        // A = U S Vh  <=>  A† = V S U†; one dagger keeps the tall-case
        // logic below free of aspect bookkeeping.
        let Svd { u, s, vh } = svd_qrcp(&a.dagger());
        return Svd {
            u: vh.dagger(),
            s,
            vh: u.dagger(),
        };
    }
    let k = n;
    let cp = crate::qr::qr_cp(a);

    // Numerical rank: keep the smallest leading row block of R whose
    // dropped suffix carries ≤ (16·eps)² of the total Frobenius mass.
    // Bounding the *actual* dropped mass (not the pivot diagonal, which
    // can underestimate on Kahan-style matrices) keeps this safe.
    let row_mass: Vec<T> = (0..k)
        .map(|i| {
            let mut acc = T::ZERO;
            for c in i..n {
                acc += cp.r[(i, c)].norm_sqr();
            }
            acc
        })
        .collect();
    let total: T = row_mass.iter().fold(T::ZERO, |a, &b| a + b);
    let tol_mass = total * T::eps() * T::eps() * T::from_f64(256.0);
    let mut rank = k;
    let mut suffix = T::ZERO;
    for i in (0..k).rev() {
        if suffix + row_mass[i] > tol_mass {
            break;
        }
        suffix += row_mass[i];
        rank = i;
    }
    if rank == 0 {
        return Svd {
            u: Matrix::zeros(m, k),
            s: vec![T::ZERO; k],
            vh: Matrix::zeros(k, n),
        };
    }

    let mut r_top = Matrix::zeros(rank, n);
    for i in 0..rank {
        for c in i..n {
            r_top[(i, c)] = cp.r[(i, c)];
        }
    }

    // Second preconditioning pass: R_top† · P₂ = Q₂ · R₂ gives
    // R_top[perm₂[j], :] = (Q₂ · R₂[:, j])†, so with the small SVD
    // R₂† = U₃ S V₃h the pieces compose as
    // R_top = Π₂ U₃ S (V₃h Q₂†),  Π₂[perm₂[j], j] = 1.
    // The core is full-rank square by construction (the suffix-mass cut
    // above trimmed the negligible directions), so the cheaper no-V
    // Jacobi variant applies.
    let cp2 = crate::qr::qr_cp(&r_top.dagger());
    let core = svd_tall_core(&cp2.r.dagger(), false);

    // A ≈ (Q₁ Π₂ U₃) S (V₃h Q₂† P₁†), padded back to the k-value
    // contract.
    let mut u_core = Matrix::zeros(rank, rank);
    for j in 0..rank {
        for c in 0..rank {
            u_core[(cp2.perm[j], c)] = core.u[(j, c)];
        }
    }
    let u_lead = cp.apply_q(&u_core);
    let mut u = Matrix::zeros(m, k);
    for r in 0..m {
        for c in 0..rank {
            u[(r, c)] = u_lead[(r, c)];
        }
    }
    let mut s = core.s;
    s.resize(k, T::ZERO);
    // Vh_core = (Q₂ · V₃h†)†, its columns un-permuted through P₁.
    let q2v = cp2.apply_q(&core.vh.dagger());
    let mut vh = Matrix::zeros(k, n);
    for i in 0..rank {
        for c in 0..n {
            vh[(i, cp.perm[c])] = q2v[(c, i)].conj();
        }
    }
    Svd { u, s, vh }
}

/// Compute the thin SVD of `a`.
///
/// # Panics
/// Panics if the iteration fails to converge within `MAX_SWEEPS` (60) sweeps
/// (practically unreachable for the well-scaled matrices produced by gate
/// applications).
pub fn svd<T: Scalar>(a: &Matrix<T>) -> Svd<T> {
    let m = a.rows();
    let n = a.cols();
    if m >= n {
        svd_tall(a)
    } else {
        // A = U S Vh  <=>  A† = V S U†.
        let Svd { u, s, vh } = svd_tall(&a.dagger());
        Svd {
            u: vh.dagger(),
            s,
            vh: u.dagger(),
        }
    }
}

/// One-sided Jacobi on a tall (m ≥ n) matrix: orthogonalize columns of a
/// working copy G = A·V by plane rotations, accumulating V.
///
/// G and V live as split re/im column planes (the structure-of-arrays
/// idiom of [`crate::vec_ops`]): the three O(m) kernels on the pair loop
/// — hermitian inner product, plane rotation, norm accumulation — become
/// shuffle-free mul/`mul_add` lane loops with [`LANES`] independent
/// accumulators, which breaks the reduction dependency chain and lets
/// the compiler pack them into SIMD FMAs. Lane-blocked reductions order
/// the sums differently from a sequential loop, so results move at
/// O(eps) relative to the old interleaved kernels — within the
/// tolerance every consumer (truncation decisions, canonicalization)
/// already budgets for the iteration itself.
fn svd_tall<T: Scalar>(a: &Matrix<T>) -> Svd<T> {
    svd_tall_core(a, true)
}

/// The Jacobi driver behind [`svd_tall`]. With `accumulate_v` the right
/// factor is accumulated rotation-by-rotation (full [`svd`] contract:
/// `Vh` rows stay unitary even on zero singular values). Without it the
/// V rotations — ~40% of the per-rotation work on square input — are
/// skipped and `Vh = S⁻¹·U†·A` is recovered with one small matmul at
/// the end; rows for exactly-zero singular values come back zero, so
/// this variant is reserved for callers that feed full-rank input (the
/// preconditioned core of [`svd_qrcp`]).
fn svd_tall_core<T: Scalar>(a: &Matrix<T>, accumulate_v: bool) -> Svd<T> {
    let m = a.rows();
    let n = a.cols();
    debug_assert!(m >= n);

    // Split-plane column-major working storage.
    let mut gre: Vec<Vec<T>> = Vec::with_capacity(n);
    let mut gim: Vec<Vec<T>> = Vec::with_capacity(n);
    for c in 0..n {
        let mut re = Vec::with_capacity(m);
        let mut im = Vec::with_capacity(m);
        for r in 0..m {
            let z = a[(r, c)];
            re.push(z.re);
            im.push(z.im);
        }
        gre.push(re);
        gim.push(im);
    }
    // Pristine copy of A's planes for the final `S⁻¹·U†·A` recovery.
    let (are, aim) = if accumulate_v {
        (Vec::new(), Vec::new())
    } else {
        (gre.clone(), gim.clone())
    };
    // V accumulated as split-plane columns too: rotations touch two
    // contiguous columns instead of striding a row-major matrix.
    let nv = if accumulate_v { n } else { 0 };
    let mut vre: Vec<Vec<T>> = (0..nv)
        .map(|c| {
            let mut col = vec![T::ZERO; n];
            col[c] = T::ONE;
            col
        })
        .collect();
    let mut vim: Vec<Vec<T>> = vec![vec![T::ZERO; n]; nv];
    // Cached column norms², maintained across rotations: each rotation
    // re-accumulates its two columns' norms from the freshly written
    // values, so the cache never drifts from a recomputed pass.
    let mut norms: Vec<T> = (0..n).map(|c| norm_sqr_planes(&gre[c], &gim[c])).collect();

    if n > 1 {
        let mut converged = false;
        let mut last_off = T::ZERO;
        for _sweep in 0..MAX_SWEEPS {
            let mut off_max = T::ZERO;
            // Columns whose norm is negligible against the dominant one
            // carry numerically-zero singular values; rotating against
            // them only churns round-off, so they count as converged.
            let scale = norms.iter().copied().fold(T::ZERO, Scalar::max);
            let floor = scale * T::eps() * T::eps() * T::from_f64(16.0);
            for i in 0..n - 1 {
                for j in i + 1..n {
                    let aii = norms[i];
                    let ajj = norms[j];
                    if aii <= floor || ajj <= floor {
                        continue;
                    }
                    let aij = inner_planes(&gre[i], &gim[i], &gre[j], &gim[j]);
                    let mag = aij.abs();
                    let rel = mag / (aii.sqrt() * ajj.sqrt());
                    off_max = off_max.max(rel);
                    if rel <= T::eps() {
                        continue;
                    }
                    // Complex Jacobi rotation annihilating g_i† g_j.
                    let phase = aij.scale(T::ONE / mag); // e^{i phi}
                    let tau = (ajj - aii) / (T::TWO * mag);
                    let t = {
                        let sign = if tau >= T::ZERO { T::ONE } else { -T::ONE };
                        sign / (tau.abs() + (T::ONE + tau * tau).sqrt())
                    };
                    let c = T::ONE / (T::ONE + t * t).sqrt();
                    let s = c * t;
                    let sp = phase.scale(s);

                    let (ir, jr) = pair_mut(&mut gre, i, j);
                    let (ii, ji) = pair_mut(&mut gim, i, j);
                    let (ni, nj) = rotate_planes(ir, ii, jr, ji, c, sp.re, sp.im);
                    norms[i] = ni;
                    norms[j] = nj;
                    if accumulate_v {
                        let (ir, jr) = pair_mut(&mut vre, i, j);
                        let (ii, ji) = pair_mut(&mut vim, i, j);
                        rotate_planes(ir, ii, jr, ji, c, sp.re, sp.im);
                    }
                }
            }
            if off_max <= T::from_f64(1e3) * T::eps() {
                converged = true;
                break;
            }
            last_off = off_max;
        }
        // Accept near-converged results: residual rotations below √eps
        // perturb singular values at relative O(eps) — harmless for the
        // truncation decisions this SVD feeds.
        assert!(
            converged || last_off <= T::eps().sqrt(),
            "svd: Jacobi iteration failed to converge (residual {last_off})"
        );
    }

    // Singular values and left vectors (cached norms² are what a fresh
    // pass over the planes would recompute).
    let mut order: Vec<usize> = (0..n).collect();
    let norms: Vec<T> = norms.into_iter().map(Scalar::sqrt).collect();
    order.sort_by(|&x, &y| norms[y].partial_cmp(&norms[x]).unwrap());

    let mut u = Matrix::zeros(m, n);
    let mut s = Vec::with_capacity(n);
    let mut vh = Matrix::zeros(n, n);
    for (slot, &src) in order.iter().enumerate() {
        let sigma = norms[src];
        s.push(sigma);
        if sigma > T::ZERO {
            let inv = T::ONE / sigma;
            for r in 0..m {
                u[(r, slot)] = Complex::new(gre[src][r], gim[src][r]).scale(inv);
            }
        }
        if accumulate_v {
            for c in 0..n {
                vh[(slot, c)] = Complex::new(vre[src][c], -vim[src][c]);
            }
        } else if sigma > T::ZERO {
            // vh_slot = u_slot†·A / σ = g_src†·A / σ².
            let inv_sq = (T::ONE / sigma) * (T::ONE / sigma);
            for c in 0..n {
                vh[(slot, c)] = inner_planes(&gre[src], &gim[src], &are[c], &aim[c]).scale(inv_sq);
            }
        }
    }
    Svd { u, s, vh }
}

/// Lane width of the blocked reductions: fills an AVX-512 `f64` register;
/// narrower ISAs split the block into as many registers as they need.
const LANES: usize = 8;

/// Deterministic tree reduction of one lane block.
#[inline(always)]
fn reduce_lanes<T: Scalar>(acc: [T; LANES]) -> T {
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
}

/// Mutable references to columns `i < j` of a column collection.
#[inline]
fn pair_mut<T>(cols: &mut [Vec<T>], i: usize, j: usize) -> (&mut [T], &mut [T]) {
    debug_assert!(i < j);
    let (left, right) = cols.split_at_mut(j);
    (&mut left[i], &mut right[0])
}

/// `Σ re² + im²` with lane-blocked accumulation.
fn norm_sqr_planes<T: Scalar>(re: &[T], im: &[T]) -> T {
    let mut acc = [T::ZERO; LANES];
    let mut rc = re.chunks_exact(LANES);
    let mut ic = im.chunks_exact(LANES);
    for (r, i) in (&mut rc).zip(&mut ic) {
        for l in 0..LANES {
            acc[l] = r[l].mul_add(r[l], i[l].mul_add(i[l], acc[l]));
        }
    }
    let mut tail = T::ZERO;
    for (r, i) in rc.remainder().iter().zip(ic.remainder()) {
        tail = r.mul_add(*r, i.mul_add(*i, tail));
    }
    reduce_lanes(acc) + tail
}

/// Hermitian inner product `Σ conj(x)·y` over split planes, lane-blocked.
fn inner_planes<T: Scalar>(xr: &[T], xi: &[T], yr: &[T], yi: &[T]) -> Complex<T> {
    let mut ar = [T::ZERO; LANES];
    let mut ai = [T::ZERO; LANES];
    let mut xrc = xr.chunks_exact(LANES);
    let mut xic = xi.chunks_exact(LANES);
    let mut yrc = yr.chunks_exact(LANES);
    let mut yic = yi.chunks_exact(LANES);
    for (((a, b), p), q) in (&mut xrc).zip(&mut xic).zip(&mut yrc).zip(&mut yic) {
        for l in 0..LANES {
            // conj(x)·y = (xr·yr + xi·yi) + i(xr·yi − xi·yr)
            ar[l] = a[l].mul_add(p[l], b[l].mul_add(q[l], ar[l]));
            ai[l] = b[l].mul_add(-p[l], a[l].mul_add(q[l], ai[l]));
        }
    }
    let mut tr = T::ZERO;
    let mut ti = T::ZERO;
    for (((a, b), p), q) in xrc
        .remainder()
        .iter()
        .zip(xic.remainder())
        .zip(yrc.remainder())
        .zip(yic.remainder())
    {
        tr = a.mul_add(*p, b.mul_add(*q, tr));
        ti = b.mul_add(-*p, a.mul_add(*q, ti));
    }
    Complex::new(reduce_lanes(ar) + tr, reduce_lanes(ai) + ti)
}

/// Jacobi rotation of two split-plane columns,
/// `x' = c·x − conj(sp)·y`, `y' = sp·x + c·y` (with `sp = s·e^{iφ}`),
/// returning the rotated columns' norms² accumulated from the freshly
/// written values (lane-blocked).
fn rotate_planes<T: Scalar>(
    xr: &mut [T],
    xi: &mut [T],
    yr: &mut [T],
    yi: &mut [T],
    c: T,
    spr: T,
    spi: T,
) -> (T, T) {
    #[inline(always)]
    fn step<T: Scalar>(a: T, b: T, p: T, q: T, c: T, spr: T, spi: T) -> (T, T, T, T) {
        // conj(sp)·y = (spr·p + spi·q) + i(spr·q − spi·p)
        let xnr = c.mul_add(a, -spr.mul_add(p, spi * q));
        let xni = c.mul_add(b, -spr.mul_add(q, -(spi * p)));
        // sp·x = (spr·a − spi·b) + i(spr·b + spi·a)
        let ynr = c.mul_add(p, spr.mul_add(a, -(spi * b)));
        let yni = c.mul_add(q, spr.mul_add(b, spi * a));
        (xnr, xni, ynr, yni)
    }
    let mut nx = [T::ZERO; LANES];
    let mut ny = [T::ZERO; LANES];
    let mut xrc = xr.chunks_exact_mut(LANES);
    let mut xic = xi.chunks_exact_mut(LANES);
    let mut yrc = yr.chunks_exact_mut(LANES);
    let mut yic = yi.chunks_exact_mut(LANES);
    for (((a, b), p), q) in (&mut xrc).zip(&mut xic).zip(&mut yrc).zip(&mut yic) {
        for l in 0..LANES {
            let (xnr, xni, ynr, yni) = step(a[l], b[l], p[l], q[l], c, spr, spi);
            nx[l] = xnr.mul_add(xnr, xni.mul_add(xni, nx[l]));
            ny[l] = ynr.mul_add(ynr, yni.mul_add(yni, ny[l]));
            a[l] = xnr;
            b[l] = xni;
            p[l] = ynr;
            q[l] = yni;
        }
    }
    let mut tx = T::ZERO;
    let mut ty = T::ZERO;
    for (((a, b), p), q) in xrc
        .into_remainder()
        .iter_mut()
        .zip(xic.into_remainder())
        .zip(yrc.into_remainder())
        .zip(yic.into_remainder())
    {
        let (xnr, xni, ynr, yni) = step(*a, *b, *p, *q, c, spr, spi);
        tx = xnr.mul_add(xnr, xni.mul_add(xni, tx));
        ty = ynr.mul_add(ynr, yni.mul_add(yni, ty));
        *a = xnr;
        *b = xni;
        *p = ynr;
        *q = yni;
    }
    (reduce_lanes(nx) + tx, reduce_lanes(ny) + ty)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::{haar_unitary, random_matrix};
    use ptsbe_rng::PhiloxRng;

    fn check_svd(a: &Matrix<f64>, tol: f64) {
        let Svd { u, s, vh } = svd(a);
        let k = a.rows().min(a.cols());
        assert_eq!(u.cols(), k);
        assert_eq!(s.len(), k);
        assert_eq!(vh.rows(), k);
        // Descending non-negative.
        for w in s.windows(2) {
            assert!(w[0] >= w[1], "singular values not sorted: {s:?}");
        }
        assert!(s.iter().all(|&x| x >= 0.0));
        // Reconstruction U diag(S) Vh == A.
        let mut usv = Matrix::zeros(a.rows(), a.cols());
        for r in 0..a.rows() {
            for c in 0..a.cols() {
                let mut acc = Complex::zero();
                for (kk, &sk) in s.iter().enumerate() {
                    acc += u[(r, kk)].scale(sk) * vh[(kk, c)];
                }
                usv[(r, c)] = acc;
            }
        }
        assert!(
            usv.max_abs_diff(a) < tol,
            "A != U S Vh (diff {})",
            usv.max_abs_diff(a)
        );
        // U, V isometries on the non-null space.
        let utu = u.dagger().mul_ref(&u);
        let vvt = vh.mul_ref(&vh.dagger());
        for i in 0..k {
            if s[i] > 1e-9 {
                assert!((utu[(i, i)].re - 1.0).abs() < tol);
                assert!((vvt[(i, i)].re - 1.0).abs() < tol);
            }
        }
    }

    #[test]
    fn random_square() {
        let mut rng = PhiloxRng::new(51, 0);
        for n in [1usize, 2, 3, 4, 8, 12] {
            let a = random_matrix::<f64>(n, n, &mut rng);
            check_svd(&a, 1e-9);
        }
    }

    #[test]
    fn random_tall_and_wide() {
        let mut rng = PhiloxRng::new(52, 0);
        for (m, n) in [(6usize, 2usize), (9, 4), (2, 6), (4, 9), (16, 1), (1, 16)] {
            let a = random_matrix::<f64>(m, n, &mut rng);
            check_svd(&a, 1e-9);
        }
    }

    #[test]
    fn unitary_has_unit_singular_values() {
        let mut rng = PhiloxRng::new(53, 0);
        let q = haar_unitary::<f64>(6, &mut rng);
        let Svd { s, .. } = svd(&q);
        for &sv in &s {
            assert!((sv - 1.0).abs() < 1e-10, "sv {sv}");
        }
    }

    #[test]
    fn known_diagonal() {
        let mut a = Matrix::<f64>::zeros(3, 3);
        a[(0, 0)] = Complex::from_f64(0.5, 0.0);
        a[(1, 1)] = Complex::from_f64(-2.0, 0.0);
        a[(2, 2)] = Complex::from_f64(0.0, 1.0);
        let Svd { s, .. } = svd(&a);
        assert!((s[0] - 2.0).abs() < 1e-12);
        assert!((s[1] - 1.0).abs() < 1e-12);
        assert!((s[2] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rank_deficient_matrix() {
        // Outer product => rank 1.
        let mut a = Matrix::<f64>::zeros(4, 3);
        for r in 0..4 {
            for c in 0..3 {
                a[(r, c)] = Complex::from_f64((r + 1) as f64 * (c + 1) as f64, 0.0);
            }
        }
        let Svd { s, .. } = svd(&a);
        assert!(s[0] > 1.0);
        assert!(
            s[1].abs() < 1e-9,
            "rank-1 matrix should have one nonzero sv"
        );
        assert!(s[2].abs() < 1e-9);
        check_svd(&a, 1e-9);
    }

    #[test]
    fn zero_matrix() {
        let a = Matrix::<f64>::zeros(3, 2);
        let Svd { s, .. } = svd(&a);
        assert!(s.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn f32_precision() {
        let mut rng = PhiloxRng::new(54, 0);
        let a64 = random_matrix::<f64>(5, 5, &mut rng);
        let a32 = Matrix::<f32>::from_f64_matrix(&a64);
        let Svd { u, s, vh } = svd(&a32);
        let mut usv = Matrix::<f32>::zeros(5, 5);
        for r in 0..5 {
            for c in 0..5 {
                let mut acc = Complex::zero();
                for (kk, &sk) in s.iter().enumerate() {
                    acc += u[(r, kk)].scale(sk) * vh[(kk, c)];
                }
                usv[(r, c)] = acc;
            }
        }
        assert!(usv.max_abs_diff(&a32) < 1e-4);
    }

    fn check_svd_qr(a: &Matrix<f64>, tol: f64) {
        let Svd { u, s, vh } = svd_qr(a);
        let k = a.rows().min(a.cols());
        assert_eq!(u.cols(), k);
        assert_eq!(s.len(), k);
        assert_eq!(vh.rows(), k);
        for w in s.windows(2) {
            assert!(w[0] >= w[1], "singular values not sorted: {s:?}");
        }
        let mut usv = Matrix::zeros(a.rows(), a.cols());
        for r in 0..a.rows() {
            for c in 0..a.cols() {
                let mut acc = Complex::zero();
                for (kk, &sk) in s.iter().enumerate() {
                    acc += u[(r, kk)].scale(sk) * vh[(kk, c)];
                }
                usv[(r, c)] = acc;
            }
        }
        assert!(
            usv.max_abs_diff(a) < tol,
            "A != U S Vh via svd_qr (diff {})",
            usv.max_abs_diff(a)
        );
        let utu = u.dagger().mul_ref(&u);
        let vvt = vh.mul_ref(&vh.dagger());
        for i in 0..k {
            if s[i] > 1e-9 {
                assert!((utu[(i, i)].re - 1.0).abs() < tol);
                assert!((vvt[(i, i)].re - 1.0).abs() < tol);
            }
        }
    }

    #[test]
    fn qr_first_tall_and_wide() {
        let mut rng = PhiloxRng::new(56, 0);
        for (m, n) in [
            (8usize, 2usize),
            (16, 4),
            (9, 3),
            (2, 8),
            (4, 16),
            (3, 9),
            (32, 1),
            (1, 32),
        ] {
            let a = random_matrix::<f64>(m, n, &mut rng);
            check_svd_qr(&a, 1e-9);
        }
    }

    #[test]
    fn qr_first_matches_plain_singular_values() {
        let mut rng = PhiloxRng::new(57, 0);
        for (m, n) in [(12usize, 4usize), (4, 12), (20, 5)] {
            let a = random_matrix::<f64>(m, n, &mut rng);
            let plain = svd(&a);
            let fast = svd_qr(&a);
            for (x, y) in plain.s.iter().zip(&fast.s) {
                assert!((x - y).abs() < 1e-10, "sv drift {x} vs {y}");
            }
        }
    }

    #[test]
    fn qr_first_square_is_passthrough() {
        // Near-square inputs skip the reduction entirely: bitwise equal.
        let mut rng = PhiloxRng::new(58, 0);
        for (m, n) in [(5usize, 5usize), (6, 4), (4, 6)] {
            let a = random_matrix::<f64>(m, n, &mut rng);
            let plain = svd(&a);
            let fast = svd_qr(&a);
            assert_eq!(plain.s, fast.s);
            assert_eq!(plain.u.max_abs_diff(&fast.u), 0.0);
            assert_eq!(plain.vh.max_abs_diff(&fast.vh), 0.0);
        }
    }

    #[test]
    fn qr_first_rank_deficient_and_zero() {
        let mut a = Matrix::<f64>::zeros(8, 3);
        for r in 0..8 {
            for c in 0..3 {
                a[(r, c)] = Complex::from_f64((r + 1) as f64 * (c + 1) as f64, 0.0);
            }
        }
        let Svd { s, .. } = svd_qr(&a);
        assert!(s[0] > 1.0);
        assert!(s[1].abs() < 1e-9);
        check_svd_qr(&a, 1e-9);
        let z = Matrix::<f64>::zeros(6, 2);
        let Svd { s, .. } = svd_qr(&z);
        assert!(s.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn frobenius_norm_preserved() {
        let mut rng = PhiloxRng::new(55, 0);
        let a = random_matrix::<f64>(7, 5, &mut rng);
        let Svd { s, .. } = svd(&a);
        let from_s: f64 = s.iter().map(|&x| x * x).sum::<f64>().sqrt();
        assert!((from_s - a.frobenius_norm()).abs() < 1e-9);
    }

    /// Near-square inputs at or above `QRCP_MIN_DIM` take the
    /// column-pivoted route; its singular values and reconstruction must
    /// agree with the dense Jacobi result to working precision.
    #[test]
    fn qrcp_full_rank_matches_dense() {
        let mut rng = PhiloxRng::new(59, 0);
        for (m, n) in [(64usize, 64usize), (96, 96), (80, 64), (64, 80)] {
            let a = random_matrix::<f64>(m, n, &mut rng);
            let scale = a.frobenius_norm();
            let plain = svd(&a);
            let fast = svd_qr(&a);
            for (x, y) in plain.s.iter().zip(&fast.s) {
                assert!((x - y).abs() < scale * 1e-10, "sv drift {x} vs {y}");
            }
            check_svd_qr(&a, scale * 1e-10);
        }
    }

    /// The motivating case: rank-deficient near-square matrices (the
    /// two-site MPS update whose true rank is at most the child bond).
    /// QRCP must find the rank, zero the tail exactly, and reproduce the
    /// nonzero spectrum.
    #[test]
    fn qrcp_rank_deficient_matches_dense() {
        let mut rng = PhiloxRng::new(60, 0);
        for (m, n, rank) in [(96usize, 96usize, 32usize), (64, 64, 48), (100, 72, 16)] {
            let l = random_matrix::<f64>(m, rank, &mut rng);
            let r = random_matrix::<f64>(rank, n, &mut rng);
            let a = l.mul_ref(&r);
            let scale = a.frobenius_norm();
            let plain = svd(&a);
            let fast = svd_qr(&a);
            for i in 0..rank {
                assert!(
                    (plain.s[i] - fast.s[i]).abs() < scale * 1e-10,
                    "sv drift at {i}: {} vs {}",
                    plain.s[i],
                    fast.s[i]
                );
            }
            // The detected null tail is *exactly* zero (padded), not noise.
            for i in rank..m.min(n) {
                assert_eq!(fast.s[i], 0.0, "tail sv {i} not exactly zero");
            }
            check_svd_qr(&a, scale * 1e-10);
        }
    }

    #[test]
    fn qrcp_zero_matrix() {
        let a = Matrix::<f64>::zeros(64, 64);
        let Svd { u, s, vh } = svd_qr(&a);
        assert!(s.iter().all(|&x| x == 0.0));
        assert!(u.max_abs_diff(&Matrix::zeros(64, 64)) == 0.0);
        assert!(vh.max_abs_diff(&Matrix::zeros(64, 64)) == 0.0);
    }
}
