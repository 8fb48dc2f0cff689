//! Complex vector kernels shared by the statevector and MPS backends:
//! norms, inner products, and the per-element gate steps
//! ([`mat2_apply`] / [`mat4_apply`]) the statevector's run kernels are
//! built from.

use crate::complex::Complex;
use crate::scalar::Scalar;

/// Sum of squared moduli.
pub fn norm_sqr<T: Scalar>(v: &[Complex<T>]) -> T {
    v.iter().map(|z| z.norm_sqr()).fold(T::ZERO, |a, b| a + b)
}

/// Euclidean norm.
pub fn norm<T: Scalar>(v: &[Complex<T>]) -> T {
    norm_sqr(v).sqrt()
}

/// Normalize in place; returns the original norm. A zero vector is left
/// untouched (returns zero).
pub fn normalize<T: Scalar>(v: &mut [Complex<T>]) -> T {
    let n = norm(v);
    if n > T::ZERO {
        let inv = T::ONE / n;
        for z in v.iter_mut() {
            *z = z.scale(inv);
        }
    }
    n
}

/// `y_r = Σ_c e[2r + c] · x_c` for a 2×2 matrix in row-major entry order
/// `[m00, m01, m10, m11]` — the FMA-form inner step of every 1-qubit gate
/// kernel; the statevector's AVX2 path forms the same products.
#[inline(always)]
pub fn mat2_apply<T: Scalar>(
    e: &[Complex<T>; 4],
    x0: Complex<T>,
    x1: Complex<T>,
) -> (Complex<T>, Complex<T>) {
    (e[0].mul_add(x0, e[1] * x1), e[2].mul_add(x0, e[3] * x1))
}

/// `y_r = Σ_c m[r][c] · x_c` for a 4×4 matrix — the FMA-form inner step of
/// every dense 2-qubit gate kernel (see [`mat2_apply`]).
#[inline(always)]
pub fn mat4_apply<T: Scalar>(mm: &[[Complex<T>; 4]; 4], x: &[Complex<T>; 4]) -> [Complex<T>; 4] {
    let mut y = [Complex::zero(); 4];
    for (row, yr) in mm.iter().zip(y.iter_mut()) {
        let acc = row[0].mul_add(x[0], row[1] * x[1]);
        let acc = row[2].mul_add(x[2], acc);
        *yr = row[3].mul_add(x[3], acc);
    }
    y
}

/// Hermitian inner product `⟨a|b⟩ = Σ conj(a_i)·b_i`.
pub fn inner<T: Scalar>(a: &[Complex<T>], b: &[Complex<T>]) -> Complex<T> {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = Complex::zero();
    for (x, y) in a.iter().zip(b) {
        acc += x.conj() * *y;
    }
    acc
}

/// Fidelity between two pure states: `|⟨a|b⟩|²`.
pub fn fidelity<T: Scalar>(a: &[Complex<T>], b: &[Complex<T>]) -> T {
    inner(a, b).norm_sqr()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::C64;

    #[test]
    fn norms() {
        let v = [C64::new(3.0, 0.0), C64::new(0.0, 4.0)];
        assert_eq!(norm_sqr(&v), 25.0);
        assert_eq!(norm(&v), 5.0);
    }

    #[test]
    fn normalize_roundtrip() {
        let mut v = vec![C64::new(1.0, 1.0); 8];
        let n = normalize(&mut v);
        assert!((n - 4.0).abs() < 1e-12);
        assert!((norm(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn normalize_zero_vector() {
        let mut v = vec![C64::zero(); 4];
        assert_eq!(normalize(&mut v), 0.0);
        assert!(v.iter().all(|z| *z == C64::zero()));
    }

    #[test]
    fn mat_apply_helpers_match_naive_products() {
        let e = [
            C64::new(0.2, 0.3),
            C64::new(-1.0, 0.5),
            C64::new(0.0, -0.7),
            C64::new(1.4, 0.0),
        ];
        let (x0, x1) = (C64::new(0.6, -0.1), C64::new(-0.3, 0.8));
        let (y0, y1) = mat2_apply(&e, x0, x1);
        assert!((y0 - (e[0] * x0 + e[1] * x1)).abs() < 1e-15);
        assert!((y1 - (e[2] * x0 + e[3] * x1)).abs() < 1e-15);

        let mm = [[C64::new(0.1, 0.2); 4], e, e, [C64::i(); 4]];
        let x = [x0, x1, C64::one(), C64::new(0.0, -2.0)];
        let y = mat4_apply(&mm, &x);
        for (r, yr) in y.iter().enumerate() {
            let mut naive = C64::zero();
            for (c, &xc) in x.iter().enumerate() {
                naive += mm[r][c] * xc;
            }
            assert!((*yr - naive).abs() < 1e-14, "row {r}");
        }
    }

    #[test]
    fn inner_products() {
        let e0 = [C64::one(), C64::zero()];
        let e1 = [C64::zero(), C64::one()];
        assert_eq!(inner(&e0, &e1), C64::zero());
        assert_eq!(inner(&e0, &e0), C64::one());
        // Antilinearity in the first argument.
        let a = [C64::i(), C64::zero()];
        assert_eq!(inner(&a, &e0), C64::new(0.0, -1.0));
    }

    #[test]
    fn fidelity_bounds() {
        let plus = [
            C64::new(std::f64::consts::FRAC_1_SQRT_2, 0.0),
            C64::new(std::f64::consts::FRAC_1_SQRT_2, 0.0),
        ];
        let zero = [C64::one(), C64::zero()];
        assert!((fidelity(&plus, &zero) - 0.5).abs() < 1e-12);
        assert!((fidelity(&plus, &plus) - 1.0).abs() < 1e-12);
    }
}
