//! Rank-3 MPS site tensors.

use ptsbe_math::{Complex, Matrix, Scalar};

/// A site tensor `A[l, p, r]` with physical dimension 2, stored row-major
/// as `data[(l*2 + p) * dr + r]`.
#[derive(Clone, Debug)]
pub struct Tensor3<T: Scalar> {
    /// Left bond dimension.
    pub dl: usize,
    /// Right bond dimension.
    pub dr: usize,
    /// Flat storage, `(dl*2) × dr` row-major.
    pub data: Vec<Complex<T>>,
}

impl<T: Scalar> Tensor3<T> {
    /// Zero tensor of the given bond dimensions.
    pub fn zeros(dl: usize, dr: usize) -> Self {
        Self {
            dl,
            dr,
            data: vec![Complex::zero(); dl * 2 * dr],
        }
    }

    /// Product-state tensor: bond dims 1, physical bit `bit`.
    pub fn product(bit: bool) -> Self {
        let mut t = Self::zeros(1, 1);
        t.data[usize::from(bit)] = Complex::one();
        t
    }

    /// Overwrite `self` with `src`'s shape and entries, reusing the
    /// existing storage allocation when its capacity allows (the
    /// pooled-fork path).
    pub fn copy_from(&mut self, src: &Self) {
        self.dl = src.dl;
        self.dr = src.dr;
        self.data.clone_from(&src.data);
    }

    /// Entry accessor.
    #[inline]
    pub fn get(&self, l: usize, p: usize, r: usize) -> Complex<T> {
        debug_assert!(l < self.dl && p < 2 && r < self.dr);
        self.data[(l * 2 + p) * self.dr + r]
    }

    /// Entry mutator.
    #[inline]
    pub fn set(&mut self, l: usize, p: usize, r: usize, v: Complex<T>) {
        debug_assert!(l < self.dl && p < 2 && r < self.dr);
        self.data[(l * 2 + p) * self.dr + r] = v;
    }

    /// View as a `(dl*2) × dr` matrix (grouping `(l,p)` as rows) — the
    /// shape used for left-canonicalization.
    pub fn to_matrix_lp_r(&self) -> Matrix<T> {
        Matrix::from_vec(self.dl * 2, self.dr, self.data.clone())
    }

    /// View as a `dl × (2*dr)` matrix (grouping `(p,r)` as columns) — the
    /// shape used for right-canonicalization.
    pub fn to_matrix_l_pr(&self) -> Matrix<T> {
        // data[(l*2+p)*dr + r] -> row l, col p*dr + r: needs a transpose of
        // the (l,p) grouping.
        let mut m = Matrix::zeros(self.dl, 2 * self.dr);
        for l in 0..self.dl {
            for p in 0..2 {
                for r in 0..self.dr {
                    m[(l, p * self.dr + r)] = self.get(l, p, r);
                }
            }
        }
        m
    }

    /// Rebuild from the `(dl*2) × dr` matrix view.
    pub fn from_matrix_lp_r(m: &Matrix<T>, dl: usize) -> Self {
        assert_eq!(m.rows(), dl * 2);
        Self {
            dl,
            dr: m.cols(),
            data: m.as_slice().to_vec(),
        }
    }

    /// Rebuild from the `dl × (2*dr)` matrix view.
    pub fn from_matrix_l_pr(m: &Matrix<T>, dr: usize) -> Self {
        assert_eq!(m.cols(), 2 * dr);
        let dl = m.rows();
        let mut t = Self::zeros(dl, dr);
        for l in 0..dl {
            for p in 0..2 {
                for r in 0..dr {
                    t.set(l, p, r, m[(l, p * dr + r)]);
                }
            }
        }
        t
    }

    /// Apply a 2×2 matrix to the physical index.
    pub fn apply_phys(&mut self, m: &Matrix<T>) {
        for l in 0..self.dl {
            for r in 0..self.dr {
                let a0 = self.get(l, 0, r);
                let a1 = self.get(l, 1, r);
                self.set(l, 0, r, m[(0, 0)] * a0 + m[(0, 1)] * a1);
                self.set(l, 1, r, m[(1, 0)] * a0 + m[(1, 1)] * a1);
            }
        }
    }

    /// Scale the two physical slices by `d0`/`d1` (a diagonal gate on the
    /// physical index — one multiply per entry, no gather).
    pub fn scale_phys(&mut self, d0: Complex<T>, d1: Complex<T>) {
        for l in 0..self.dl {
            for r in 0..self.dr {
                self.set(l, 0, r, d0 * self.get(l, 0, r));
                self.set(l, 1, r, d1 * self.get(l, 1, r));
            }
        }
    }

    /// Squared Frobenius norm.
    pub fn norm_sqr(&self) -> T {
        self.data
            .iter()
            .map(|z| z.norm_sqr())
            .fold(T::ZERO, |a, b| a + b)
    }

    /// Scale all entries by a real factor.
    pub fn scale(&mut self, s: T) {
        for z in &mut self.data {
            *z = z.scale(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptsbe_math::gates;

    #[test]
    fn product_tensor() {
        let t = Tensor3::<f64>::product(true);
        assert_eq!(t.get(0, 1, 0), Complex::one());
        assert_eq!(t.get(0, 0, 0), Complex::zero());
        assert!((t.norm_sqr() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn matrix_views_roundtrip() {
        let mut t = Tensor3::<f64>::zeros(3, 4);
        for l in 0..3 {
            for p in 0..2 {
                for r in 0..4 {
                    t.set(l, p, r, Complex::from_f64((l * 8 + p * 4 + r) as f64, 0.5));
                }
            }
        }
        let a = Tensor3::from_matrix_lp_r(&t.to_matrix_lp_r(), 3);
        let b = Tensor3::from_matrix_l_pr(&t.to_matrix_l_pr(), 4);
        for l in 0..3 {
            for p in 0..2 {
                for r in 0..4 {
                    assert_eq!(a.get(l, p, r), t.get(l, p, r));
                    assert_eq!(b.get(l, p, r), t.get(l, p, r));
                }
            }
        }
    }

    #[test]
    fn apply_phys_hadamard() {
        let mut t = Tensor3::<f64>::product(false);
        t.apply_phys(&gates::h());
        let s = std::f64::consts::FRAC_1_SQRT_2;
        assert!((t.get(0, 0, 0).re - s).abs() < 1e-12);
        assert!((t.get(0, 1, 0).re - s).abs() < 1e-12);
    }

    #[test]
    fn scale_and_norm() {
        let mut t = Tensor3::<f64>::product(false);
        t.scale(2.0);
        assert!((t.norm_sqr() - 4.0).abs() < 1e-12);
    }
}
