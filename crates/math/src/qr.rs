//! Thin Householder QR for complex matrices.
//!
//! Used by the MPS backend for canonicalization sweeps (where only an
//! isometry factor is needed, never the full square Q) and by
//! [`crate::random`] to project Gaussian matrices onto the Haar measure.

use crate::complex::Complex;
use crate::matrix::Matrix;
use crate::scalar::Scalar;

/// Result of a thin QR factorization `A = Q · R` with `Q` an `m×k` isometry
/// (`Q†Q = I_k`, `k = min(m, n)`) and `R` a `k×n` upper-triangular factor
/// whose diagonal is real and non-negative (uniqueness convention).
pub struct Qr<T: Scalar> {
    /// Isometry factor, `m×k`.
    pub q: Matrix<T>,
    /// Upper-triangular factor, `k×n`.
    pub r: Matrix<T>,
}

/// Compute the thin QR factorization of `a`.
pub fn qr_thin<T: Scalar>(a: &Matrix<T>) -> Qr<T> {
    qr_thin_with(a, apply_reflector_left)
}

/// [`qr_thin`] with the reflector application passed in: the tests run
/// the same factorization through the column-sweep reference.
fn qr_thin_with<T: Scalar>(a: &Matrix<T>, reflect: ReflectLeft<T>) -> Qr<T> {
    let m = a.rows();
    let n = a.cols();
    let k = m.min(n);

    // Working copy that becomes R in its upper triangle.
    let mut work = a.clone();
    // Householder reflectors v_j (each of length m - j), applied as
    // H = I - 2 v v† with ||v|| = 1.
    let mut reflectors: Vec<Vec<Complex<T>>> = Vec::with_capacity(k);

    for j in 0..k {
        // Column slice x = work[j.., j].
        let mut v: Vec<Complex<T>> = (j..m).map(|r| work[(r, j)]).collect();
        let norm_x = vec_norm(&v);
        if norm_x <= T::tol() {
            reflectors.push(Vec::new());
            continue;
        }
        // alpha = -e^{i arg(x0)} ||x|| avoids cancellation.
        let x0 = v[0];
        let phase = if x0.abs() <= T::eps() {
            Complex::one()
        } else {
            x0.scale(T::ONE / x0.abs())
        };
        let alpha = -(phase.scale(norm_x));
        v[0] -= alpha;
        let vn = vec_norm(&v);
        if vn <= T::eps() {
            // x is already a (negative-phase) multiple of e1; no reflection
            // needed beyond fixing the sign below.
            reflectors.push(Vec::new());
            work[(j, j)] = alpha;
            continue;
        }
        let inv = T::ONE / vn;
        for c in &mut v {
            *c = c.scale(inv);
        }
        // Apply H to the trailing submatrix work[j.., j..].
        reflect(&mut work, &v, j, j);
        reflectors.push(v);
    }

    // Extract R (upper triangle of first k rows).
    let mut r = Matrix::zeros(k, n);
    for i in 0..k {
        for c in i..n {
            r[(i, c)] = work[(i, c)];
        }
    }

    // Build thin Q by applying reflectors in reverse order to I_{m×k}.
    let mut q = Matrix::zeros(m, k);
    for i in 0..k {
        q[(i, i)] = Complex::one();
    }
    for j in (0..k).rev() {
        if reflectors[j].is_empty() {
            continue;
        }
        // The reflector spans rows j.. and every column of Q.
        reflect(&mut q, &reflectors[j], j, 0);
    }

    // Normalize so the diagonal of R is real non-negative.
    for i in 0..k {
        let d = r[(i, i)];
        let mag = d.abs();
        if mag <= T::eps() {
            continue;
        }
        let ph = d.scale(T::ONE / mag); // e^{i arg d}
        let ph_conj = ph.conj();
        // R row i *= conj(phase); Q col i *= phase.
        for c in i..n {
            r[(i, c)] *= ph_conj;
        }
        for rr in 0..m {
            q[(rr, i)] *= ph;
        }
    }

    Qr { q, r }
}

/// Result of a column-pivoted (rank-revealing) thin QR factorization
/// `A · P = Q · R`, with `Q` held implicitly as its Householder
/// reflectors (apply it via [`QrCp::apply_q`]). Pivoting picks the
/// largest remaining column at every step, so the magnitudes of `R`'s
/// diagonal are non-increasing and the trailing rows of `R` collect the
/// numerically negligible directions — the property [`crate::svd::svd_qr`]
/// uses to shrink rank-deficient SVDs before the expensive iteration.
///
/// Unlike [`qr_thin`], the diagonal of `R` is *not* phase-normalized
/// (the SVD consumer doesn't care, and normalizing an implicit `Q` would
/// cost an extra pass).
pub struct QrCp<T: Scalar> {
    /// Householder reflectors `v_j` (unit norm, length `m - j`), in
    /// elimination order. Empty vectors are identity steps.
    reflectors: Vec<Vec<Complex<T>>>,
    /// Upper-triangular factor, `k×n`, columns already permuted.
    pub r: Matrix<T>,
    /// `perm[j]` = original column of `A` now at position `j`.
    pub perm: Vec<usize>,
    rows: usize,
}

impl<T: Scalar> QrCp<T> {
    /// Apply the implicit `Q` to the zero-padded extension of `x`:
    /// returns `Q · [x; 0]` (shape `m × x.cols()`), i.e. `x` expressed
    /// in the basis of `Q`'s leading columns. Reflectors acting entirely
    /// below `x`'s rows are provable no-ops on the padding and skipped.
    pub fn apply_q(&self, x: &Matrix<T>) -> Matrix<T> {
        let m = self.rows;
        let p = x.cols();
        let active = self.reflectors.len().min(x.rows());
        let mut cols: Vec<Vec<Complex<T>>> = (0..p)
            .map(|c| {
                let mut col = vec![Complex::zero(); m];
                for r in 0..x.rows() {
                    col[r] = x[(r, c)];
                }
                col
            })
            .collect();
        for j in (0..active).rev() {
            let v = &self.reflectors[j];
            if v.is_empty() {
                continue;
            }
            for col in &mut cols {
                reflect(v, &mut col[j..]);
            }
        }
        let mut out = Matrix::zeros(m, p);
        for (c, col) in cols.iter().enumerate() {
            for (r, z) in col.iter().enumerate() {
                out[(r, c)] = *z;
            }
        }
        out
    }
}

/// Apply `H = I - 2vv†` to one contiguous column slice (`v` unit norm).
#[inline]
fn reflect<T: Scalar>(v: &[Complex<T>], col: &mut [Complex<T>]) {
    let mut w = Complex::zero();
    for (vi, x) in v.iter().zip(col.iter()) {
        w += vi.conj() * *x;
    }
    let w2 = w.scale(T::TWO);
    for (vi, x) in v.iter().zip(col.iter_mut()) {
        *x -= *vi * w2;
    }
}

/// Column-pivoted thin QR `A · P = Q · R` (see [`QrCp`]).
///
/// Remaining-column norms are tracked by downdating with a cancellation
/// guard (recompute when the downdated estimate loses eight digits
/// against the column's start-of-factorization norm), the LINPACK
/// recipe.
pub fn qr_cp<T: Scalar>(a: &Matrix<T>) -> QrCp<T> {
    let m = a.rows();
    let n = a.cols();
    let k = m.min(n);

    // Column-major working copy: every Householder application below is
    // a pass over contiguous memory.
    let mut cols: Vec<Vec<Complex<T>>> = (0..n)
        .map(|c| (0..m).map(|r| a[(r, c)]).collect())
        .collect();
    let mut perm: Vec<usize> = (0..n).collect();
    let mut norms: Vec<T> = cols.iter().map(|col| col_norm_sqr(col)).collect();
    let mut ref_norms = norms.clone();
    let mut reflectors: Vec<Vec<Complex<T>>> = Vec::with_capacity(k);

    for j in 0..k {
        // Pivot: largest remaining column (by downdated estimate).
        let mut p = j;
        for c in j + 1..n {
            if norms[c] > norms[p] {
                p = c;
            }
        }
        if p != j {
            cols.swap(j, p);
            perm.swap(j, p);
            norms.swap(j, p);
            ref_norms.swap(j, p);
        }

        let mut v: Vec<Complex<T>> = cols[j][j..].to_vec();
        let norm_x = col_norm_sqr(&v).sqrt();
        if norm_x <= T::tol() {
            // Largest remaining column is negligible: the factorization
            // is complete, but keep the loop shape (identity steps).
            reflectors.push(Vec::new());
            continue;
        }
        let x0 = v[0];
        let phase = if x0.abs() <= T::eps() {
            Complex::one()
        } else {
            x0.scale(T::ONE / x0.abs())
        };
        let alpha = -(phase.scale(norm_x));
        v[0] -= alpha;
        let vn = col_norm_sqr(&v).sqrt();
        if vn <= T::eps() {
            reflectors.push(Vec::new());
            cols[j][j] = alpha;
            cols[j][j + 1..].fill(Complex::zero());
        } else {
            let inv = T::ONE / vn;
            for c in &mut v {
                *c = c.scale(inv);
            }
            cols[j][j] = alpha;
            cols[j][j + 1..].fill(Complex::zero());
            for col in cols.iter_mut().skip(j + 1) {
                reflect(&v, &mut col[j..]);
            }
            reflectors.push(v);
        }

        // Downdate the remaining norms by the row the reflector exposed.
        for c in j + 1..n {
            let head = cols[c][j].norm_sqr();
            let down = norms[c] - head;
            norms[c] = if down <= ref_norms[c] * T::from_f64(1e-8) {
                // Cancellation: recompute from what actually remains.
                let fresh = col_norm_sqr(&cols[c][j + 1..]);
                ref_norms[c] = fresh;
                fresh
            } else {
                down
            };
        }
    }

    let mut r = Matrix::zeros(k, n);
    for (c, col) in cols.iter().enumerate() {
        for i in 0..k.min(c + 1) {
            r[(i, c)] = col[i];
        }
    }
    QrCp {
        reflectors,
        r,
        perm,
        rows: m,
    }
}

fn col_norm_sqr<T: Scalar>(col: &[Complex<T>]) -> T {
    col.iter().map(|z| z.norm_sqr()).fold(T::ZERO, |a, b| a + b)
}

fn vec_norm<T: Scalar>(v: &[Complex<T>]) -> T {
    v.iter()
        .map(|z| z.norm_sqr())
        .fold(T::ZERO, |a, b| a + b)
        .sqrt()
}

/// Signature of [`apply_reflector_left`].
type ReflectLeft<T> = fn(&mut Matrix<T>, &[Complex<T>], usize, usize);

/// Apply `H = I - 2vv†` to rows `j..` of columns `c0..` of `x` (`v` unit
/// norm, one entry per row from `j`).
///
/// `x` is row-major, so both passes sweep rows: `w[c] += conj(v_r) ·
/// x[r][c]` accumulates every column at once (each column still sums in
/// ascending row order), then `x[r][c] -= v_r · 2w[c]`. Per element this
/// is the arithmetic of a column-by-column `w = v† · x[.., c]`, in the
/// same order, so the factors are bitwise those of a column sweep.
fn apply_reflector_left<T: Scalar>(x: &mut Matrix<T>, v: &[Complex<T>], j: usize, c0: usize) {
    let n = x.cols();
    let rows = x.as_slice().chunks_exact(n).skip(j);
    let mut w = vec![Complex::<T>::zero(); n - c0];
    for (vi, row) in v.iter().zip(rows) {
        let vc = vi.conj();
        for (wc, &xc) in w.iter_mut().zip(&row[c0..]) {
            *wc += vc * xc;
        }
    }
    for wc in &mut w {
        *wc = wc.scale(T::TWO);
    }
    let rows = x.as_mut_slice().chunks_exact_mut(n).skip(j);
    for (vi, row) in v.iter().zip(rows) {
        for (xc, &wc) in row[c0..].iter_mut().zip(&w) {
            *xc -= *vi * wc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::random_matrix;
    use ptsbe_rng::PhiloxRng;

    fn check_qr(a: &Matrix<f64>, tol: f64) {
        let Qr { q, r } = qr_thin(a);
        let k = a.rows().min(a.cols());
        assert_eq!(q.rows(), a.rows());
        assert_eq!(q.cols(), k);
        assert_eq!(r.rows(), k);
        assert_eq!(r.cols(), a.cols());
        // Reconstruction.
        assert!(q.mul_ref(&r).max_abs_diff(a) < tol, "A != QR");
        // Isometry.
        let qtq = q.dagger().mul_ref(&q);
        assert!(qtq.max_abs_diff(&Matrix::identity(k)) < tol, "Q†Q != I");
        // Upper triangular with real non-negative diagonal.
        for i in 0..k {
            for c in 0..i.min(r.cols()) {
                assert!(r[(i, c)].abs() < tol, "R not upper triangular");
            }
            if i < r.cols() {
                assert!(r[(i, i)].im.abs() < tol, "R diagonal not real");
                assert!(r[(i, i)].re >= -tol, "R diagonal negative");
            }
        }
    }

    #[test]
    fn square_random() {
        let mut rng = PhiloxRng::new(41, 0);
        for n in [1usize, 2, 3, 5, 8, 16] {
            let a = random_matrix::<f64>(n, n, &mut rng);
            check_qr(&a, 1e-10);
        }
    }

    #[test]
    fn tall_random() {
        let mut rng = PhiloxRng::new(42, 0);
        for (m, n) in [(4usize, 2usize), (8, 3), (16, 5), (7, 1)] {
            let a = random_matrix::<f64>(m, n, &mut rng);
            check_qr(&a, 1e-10);
        }
    }

    #[test]
    fn wide_random() {
        let mut rng = PhiloxRng::new(43, 0);
        for (m, n) in [(2usize, 4usize), (3, 8), (5, 16)] {
            let a = random_matrix::<f64>(m, n, &mut rng);
            check_qr(&a, 1e-10);
        }
    }

    #[test]
    fn rank_deficient() {
        // Two identical columns.
        let mut rng = PhiloxRng::new(44, 0);
        let col = random_matrix::<f64>(6, 1, &mut rng);
        let mut a = Matrix::zeros(6, 2);
        for r in 0..6 {
            a[(r, 0)] = col[(r, 0)];
            a[(r, 1)] = col[(r, 0)];
        }
        let Qr { q, r } = qr_thin(&a);
        assert!(q.mul_ref(&r).max_abs_diff(&a) < 1e-10);
    }

    #[test]
    fn zero_matrix() {
        let a = Matrix::<f64>::zeros(4, 3);
        let Qr { q, r } = qr_thin(&a);
        assert!(q.mul_ref(&r).max_abs_diff(&a) < 1e-12);
    }

    /// The column sweep [`apply_reflector_left`] replaced: each column's
    /// `w = v† · x[j.., c]` strides down the row-major matrix. Kept as the
    /// reference the row sweep must match bit for bit.
    fn column_sweep<T: Scalar>(x: &mut Matrix<T>, v: &[Complex<T>], j: usize, c0: usize) {
        let m = x.rows();
        for c in c0..x.cols() {
            let mut w = Complex::zero();
            for (vi, r) in v.iter().zip(j..m) {
                w += vi.conj() * x[(r, c)];
            }
            let w2 = w.scale(T::TWO);
            for (vi, r) in v.iter().zip(j..m) {
                let delta = *vi * w2;
                x[(r, c)] -= delta;
            }
        }
    }

    fn assert_same_bits<T: Scalar>(got: &Matrix<T>, want: &Matrix<T>, what: &str) {
        assert_eq!((got.rows(), got.cols()), (want.rows(), want.cols()));
        let bits = |m: &Matrix<T>| -> Vec<(u64, u64)> {
            // f32 -> f64 is exact and keeps the sign of zero, so this is
            // bit equality for either precision.
            m.as_slice()
                .iter()
                .map(|z| (z.re.to_f64().to_bits(), z.im.to_f64().to_bits()))
                .collect()
        };
        assert!(
            bits(got) == bits(want),
            "{what} differs from the column sweep's"
        );
    }

    /// `qr_thin`'s `Q` and `R` equal, bit for bit, the factors the same
    /// factorization gives through the column sweep.
    fn check_matches_column_sweep<T: Scalar>(a: &Matrix<T>) {
        let got = qr_thin(a);
        let want = qr_thin_with(a, column_sweep::<T>);
        let shape = format!("{}x{}", a.rows(), a.cols());
        assert_same_bits(&got.q, &want.q, &format!("Q of {shape}"));
        assert_same_bits(&got.r, &want.r, &format!("R of {shape}"));
    }

    fn row_sweep_shapes<T: Scalar>(seed: u64) {
        let mut rng = PhiloxRng::new(seed, 0);
        let shapes = [
            (1usize, 1usize),
            (1, 5),
            (7, 1),
            (5, 5),
            (16, 16),
            (8, 3),
            (128, 64),
            (3, 8),
            (24, 40),
        ];
        for (m, n) in shapes {
            let a = random_matrix::<T>(m, n, &mut rng);
            check_matches_column_sweep(&a);
            // Zero columns (and a repeated one that is zero below the
            // diagonal once its twin is eliminated) take the
            // empty-reflector steps.
            let mut holes = a.clone();
            for r in 0..m {
                holes[(r, 0)] = Complex::zero();
                if n > 2 {
                    holes[(r, n / 2)] = Complex::zero();
                    holes[(r, 2)] = holes[(r, 1)];
                }
            }
            check_matches_column_sweep(&holes);
        }
        check_matches_column_sweep(&Matrix::<T>::zeros(4, 3));
        check_matches_column_sweep(&Matrix::<T>::identity(6));
    }

    #[test]
    fn row_sweep_matches_column_sweep_f64() {
        row_sweep_shapes::<f64>(48);
    }

    #[test]
    fn row_sweep_matches_column_sweep_f32() {
        row_sweep_shapes::<f32>(49);
    }

    #[test]
    fn identity_fixed_point() {
        let a = Matrix::<f64>::identity(5);
        let Qr { q, r } = qr_thin(&a);
        assert!(q.max_abs_diff(&a) < 1e-12);
        assert!(r.max_abs_diff(&a) < 1e-12);
    }

    /// `A[:, perm[c]] == (Q·R)[:, c]`, Q implicit. Also checks R is upper
    /// triangular with non-increasing diagonal magnitudes (the pivoting
    /// contract the rank detection in `svd_qrcp` rests on).
    fn check_qr_cp(a: &Matrix<f64>, tol: f64) {
        let cp = qr_cp(a);
        let k = a.rows().min(a.cols());
        assert_eq!(cp.r.rows(), k);
        assert_eq!(cp.r.cols(), a.cols());
        let mut seen = vec![false; a.cols()];
        for &p in &cp.perm {
            assert!(!seen[p], "perm is not a permutation");
            seen[p] = true;
        }
        let recon = cp.apply_q(&cp.r);
        for c in 0..a.cols() {
            for r in 0..a.rows() {
                let diff = (recon[(r, c)] - a[(r, cp.perm[c])]).abs();
                assert!(diff < tol, "A·P != Q·R at ({r}, {c}): {diff:.3e}");
            }
        }
        let mut prev = f64::INFINITY;
        for i in 0..k {
            for c in 0..i {
                assert!(cp.r[(i, c)].abs() < tol, "R not upper triangular");
            }
            let d = cp.r[(i, i)].abs();
            assert!(
                d <= prev + tol,
                "pivoted diagonal not non-increasing: |r{i}{i}| = {d:.3e} > {prev:.3e}"
            );
            prev = d;
        }
        // Implicit Q is an isometry: apply it to I_k and check.
        let q = cp.apply_q(&Matrix::identity(k));
        let qtq = q.dagger().mul_ref(&q);
        assert!(qtq.max_abs_diff(&Matrix::identity(k)) < tol, "Q†Q != I");
    }

    #[test]
    fn qr_cp_random_shapes() {
        let mut rng = PhiloxRng::new(45, 0);
        for (m, n) in [
            (1usize, 1usize),
            (5, 5),
            (8, 3),
            (3, 8),
            (16, 16),
            (16, 24),
            (24, 16),
        ] {
            let a = random_matrix::<f64>(m, n, &mut rng);
            check_qr_cp(&a, 1e-10);
        }
    }

    #[test]
    fn qr_cp_rank_deficient_exposes_rank() {
        // Rank-3 12×12 matrix: the pivoted R must push everything past
        // row 3 down to machine noise, and still reconstruct A exactly.
        let mut rng = PhiloxRng::new(46, 0);
        let l = random_matrix::<f64>(12, 3, &mut rng);
        let r = random_matrix::<f64>(3, 12, &mut rng);
        let a = l.mul_ref(&r);
        check_qr_cp(&a, 1e-9);
        let cp = qr_cp(&a);
        let scale = cp.r[(0, 0)].abs();
        for i in 3..12 {
            assert!(
                cp.r[(i, i)].abs() < scale * 1e-12,
                "rank-3 input left |r{i}{i}| = {:.3e}",
                cp.r[(i, i)].abs()
            );
        }
    }

    #[test]
    fn qr_cp_zero_matrix() {
        let a = Matrix::<f64>::zeros(4, 3);
        let cp = qr_cp(&a);
        assert!(cp.r.max_abs_diff(&Matrix::zeros(3, 3)) < 1e-15);
        assert!(cp.apply_q(&cp.r).max_abs_diff(&a) < 1e-15);
    }

    #[test]
    fn qr_cp_apply_q_pads_short_input() {
        // apply_q must treat x as zero-padded to m rows: Q·[x; 0] with a
        // 2-row x against 6-row reflectors.
        let mut rng = PhiloxRng::new(47, 0);
        let a = random_matrix::<f64>(6, 4, &mut rng);
        let cp = qr_cp(&a);
        let x = random_matrix::<f64>(2, 3, &mut rng);
        let mut padded = Matrix::zeros(4, 3);
        for r in 0..2 {
            for c in 0..3 {
                padded[(r, c)] = x[(r, c)];
            }
        }
        let got = cp.apply_q(&x);
        let want = cp.apply_q(&padded);
        assert!(got.max_abs_diff(&want) < 1e-12);
    }
}
