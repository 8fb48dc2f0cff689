//! Exact binomial variates.
//!
//! The counted bulk sampler (`ptsbe_statevector::sampling::sample_counts`)
//! splits a trajectory's `m` shots over the basis states with one
//! conditional binomial per amplitude, so its cost is a function of the
//! state size, not of `m`. Two exact methods cover the range, both on
//! `p ≤ 0.5` (the other half is the complement):
//!
//! - `n·p < 10`: sequential inversion of the pmf from `k = 0`
//!   (≈ `n·p` multiply-subtracts after one `exp`);
//! - otherwise BTRS, Hörmann's transformed rejection with squeeze
//!   ("The generation of binomial random variates", J. Stat. Comput.
//!   Simul. 46, 1993): ≈ 1.15 iterations of two uniforms each, whatever
//!   `n` is.
//!
//! No normal approximation anywhere: the χ² tests below hold both
//! branches to the exact pmf.

use crate::Rng;

/// Below this mean the inversion's `n·p` steps beat BTRS's logarithms;
/// BTRS's hat is only valid from here up.
const INVERSION_MAX_MEAN: f64 = 10.0;

/// Number of successes in `n` Bernoulli(`p`) trials. `p` is clamped to
/// `[0, 1]` and a NaN counts as 0; `p ≤ 0`, `p ≥ 1` and `n = 0` draw
/// nothing from `rng`.
pub fn binomial<R: Rng + ?Sized>(n: u64, p: f64, rng: &mut R) -> u64 {
    if n == 0 || p.is_nan() || p <= 0.0 {
        return 0;
    }
    if p >= 1.0 {
        return n;
    }
    if p > 0.5 {
        // 1 - p is exact for p in [0.5, 1].
        return n - binomial_lower_half(n, 1.0 - p, rng);
    }
    binomial_lower_half(n, p, rng)
}

fn binomial_lower_half<R: Rng + ?Sized>(n: u64, p: f64, rng: &mut R) -> u64 {
    if (n as f64) * p < INVERSION_MAX_MEAN {
        inversion(n, p, rng)
    } else {
        btrs(n, p, rng)
    }
}

/// Walk the pmf up from `k = 0`: `P(k+1) = P(k) · (n-k)/(k+1) · p/(1-p)`.
fn inversion<R: Rng + ?Sized>(n: u64, p: f64, rng: &mut R) -> u64 {
    let s = p / (1.0 - p);
    let a = (n as f64 + 1.0) * s;
    // (1-p)^n ≥ e^-14 here: no underflow.
    let mut pk = (n as f64 * (-p).ln_1p()).exp();
    let mut u = rng.next_f64();
    let mut k = 0u64;
    while u > pk && k < n {
        u -= pk;
        k += 1;
        pk *= a / k as f64 - s;
    }
    k
}

/// Stirling-series tail `ln k! - [ln √(2π) + (k+½) ln(k+1) - (k+1)]`.
fn stirling_tail(k: f64) -> f64 {
    const SMALL: [f64; 10] = [
        0.081_061_466_795_327_26,
        0.041_340_695_955_409_29,
        0.027_677_925_684_998_34,
        0.020_790_672_103_765_09,
        0.016_644_691_189_821_19,
        0.013_876_128_823_070_75,
        0.011_896_709_945_891_77,
        0.010_411_265_261_972_09,
        0.009_255_462_182_712_733,
        0.008_330_563_433_362_87,
    ];
    if k < 10.0 {
        return SMALL[k as usize];
    }
    let kp1sq = (k + 1.0) * (k + 1.0);
    (1.0 / 12.0 - (1.0 / 360.0 - 1.0 / 1260.0 / kp1sq) / kp1sq) / (k + 1.0)
}

/// Hörmann's BTRS; needs `n·p ≥ 10` and `p ≤ 0.5`.
fn btrs<R: Rng + ?Sized>(n: u64, p: f64, rng: &mut R) -> u64 {
    let nf = n as f64;
    let stddev = (nf * p * (1.0 - p)).sqrt();
    let b = 1.15 + 2.53 * stddev;
    let a = -0.0873 + 0.0248 * b + 0.01 * p;
    let c = nf * p + 0.5;
    let v_r = 0.92 - 4.2 / b;
    let r = p / (1.0 - p);
    let alpha = (2.83 + 5.1 / b) * stddev;
    let mode = ((nf + 1.0) * p).floor();
    loop {
        let u = rng.next_f64() - 0.5;
        let v = rng.next_f64();
        let us = 0.5 - u.abs();
        let k = ((2.0 * a / us + b) * u + c).floor();
        // The squeeze: inside the hat's flat centre, accept outright.
        if us >= 0.07 && v <= v_r {
            return k as u64;
        }
        if k < 0.0 || k > nf {
            continue;
        }
        let v = (v * alpha / (a / (us * us) + b)).ln();
        let bound = (mode + 0.5) * ((mode + 1.0) / (r * (nf - mode + 1.0))).ln()
            + (nf + 1.0) * ((nf - mode + 1.0) / (nf - k + 1.0)).ln()
            + (k + 0.5) * (r * (nf - k + 1.0) / (k + 1.0)).ln()
            + stirling_tail(mode)
            + stirling_tail(nf - mode)
            - stirling_tail(k)
            - stirling_tail(nf - k);
        if v <= bound {
            return k as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PhiloxRng;

    /// Exact pmf by the log-space recurrence from the mode outward
    /// (`lgamma`-free: only ratios of neighbouring terms).
    fn pmf(n: u64, p: f64) -> Vec<f64> {
        let len = n as usize + 1;
        let mode = (((n + 1) as f64) * p).floor().min(n as f64) as usize;
        let ratio = |k: usize| ((n as usize - k) as f64 / (k + 1) as f64) * (p / (1.0 - p));
        let mut w = vec![0.0f64; len];
        w[mode] = 1.0;
        for k in mode..n as usize {
            w[k + 1] = w[k] * ratio(k);
        }
        for k in (0..mode).rev() {
            w[k] = w[k + 1] / ratio(k);
        }
        let total: f64 = w.iter().sum();
        w.iter().map(|x| x / total).collect()
    }

    /// Pearson χ² of `draws` variates against the exact pmf, cells merged
    /// from both tails until each expects ≥ 8; returns (χ², cells − 1).
    fn chi2(n: u64, p: f64, draws: usize, seed: u64) -> (f64, usize) {
        let mut rng = PhiloxRng::new(seed, 0);
        let mut hist = vec![0usize; n as usize + 1];
        for _ in 0..draws {
            let k = binomial(n, p, &mut rng);
            assert!(k <= n, "binomial({n}, {p}) drew {k}");
            hist[k as usize] += 1;
        }
        let mut cells: Vec<(f64, f64)> = Vec::new(); // (expected, observed)
        let mut acc = (0.0, 0.0);
        for (e, &o) in pmf(n, p).iter().zip(&hist) {
            acc = (acc.0 + e * draws as f64, acc.1 + o as f64);
            if acc.0 >= 8.0 {
                cells.push(acc);
                acc = (0.0, 0.0);
            }
        }
        match cells.last_mut() {
            Some(last) => *last = (last.0 + acc.0, last.1 + acc.1),
            None => cells.push(acc),
        }
        let stat = cells.iter().map(|(e, o)| (o - e) * (o - e) / e).sum();
        (stat, cells.len() - 1)
    }

    /// χ²_{dof} upper bound at ≈ 5σ. Seeds are fixed, so this only has to
    /// leave room for another seed and still catch a wrong acceptance
    /// test: the statistics read ≈ dof, and with BTRS's `alpha` off by a
    /// third they read 900–1200 on 22–151 dof.
    fn chi2_limit(dof: usize) -> f64 {
        let d = dof as f64;
        d + 5.0 * (2.0 * d).sqrt() + 10.0
    }

    #[test]
    fn matches_the_exact_pmf_in_every_regime() {
        let cases: [(u64, f64); 12] = [
            (40, 0.001),       // n·p ≪ 1: inversion, almost always 0
            (500_000, 1e-6),   // huge n, n·p = 0.5
            (100, 0.1),        // n·p = 10: first BTRS mean
            (99, 0.1),         // n·p just under the switch: inversion
            (1_000, 0.0102),   // n·p ≈ 10, small p
            (20, 0.5),         // p = 0.5 exactly, inversion
            (64, 0.5),         // p = 0.5, BTRS
            (300, 0.499),      // p → 0.5 from below
            (300, 0.501),      // complement branch
            (2_000, 0.3),      // n·p ≫ 10
            (500_000, 0.0002), // n·p = 100 at large n
            (50, 0.97),        // complement of an inversion draw
        ];
        for (i, &(n, p)) in cases.iter().enumerate() {
            let (stat, dof) = chi2(n, p, 200_000, 900 + i as u64);
            assert!(
                stat < chi2_limit(dof),
                "binomial({n}, {p}): chi2 {stat:.1} over {dof} dof"
            );
        }
    }

    #[test]
    fn degenerate_arguments_draw_nothing() {
        let mut rng = PhiloxRng::new(5, 0);
        let mut untouched = rng.clone();
        assert_eq!(binomial(0, 0.3, &mut rng), 0);
        assert_eq!(binomial(17, 0.0, &mut rng), 0);
        assert_eq!(binomial(17, -1.0, &mut rng), 0);
        assert_eq!(binomial(17, f64::NAN, &mut rng), 0);
        assert_eq!(binomial(17, 1.0, &mut rng), 17);
        assert_eq!(binomial(17, 1.5, &mut rng), 17);
        assert_eq!(rng.next_u64(), untouched.next_u64());
    }

    #[test]
    fn single_trial_is_a_bernoulli() {
        let mut rng = PhiloxRng::new(6, 0);
        for p in [0.2, 0.5, 0.9] {
            let ones: u64 = (0..100_000).map(|_| binomial(1, p, &mut rng)).sum();
            let frac = ones as f64 / 100_000.0;
            // 5σ of a Bernoulli mean at 1e5 draws is < 0.008.
            assert!((frac - p).abs() < 0.008, "p {p}: {frac}");
        }
    }

    #[test]
    fn large_counts_keep_mean_and_variance() {
        // Past any pmf table: n = 4e9, the counted sampler's worst case.
        let (n, p) = (4_000_000_000u64, 0.25);
        let mut rng = PhiloxRng::new(7, 0);
        let draws = 20_000;
        let xs: Vec<f64> = (0..draws)
            .map(|_| binomial(n, p, &mut rng) as f64)
            .collect();
        let mean = xs.iter().sum::<f64>() / draws as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / draws as f64;
        let (want_mean, want_var) = (n as f64 * p, n as f64 * p * (1.0 - p));
        assert!((mean - want_mean).abs() < 5.0 * (want_var / draws as f64).sqrt());
        assert!(
            (var / want_var - 1.0).abs() < 0.06,
            "variance ratio {}",
            var / want_var
        );
    }
}
