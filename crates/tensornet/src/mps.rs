//! The MPS state: mixed-canonical gauge, gate application with SVD
//! truncation, Kraus-branch operations, and exact contraction helpers.

use crate::tensor::Tensor3;
use ptsbe_math::qr::qr_thin;
use ptsbe_math::svd::{svd, svd_qr};
use ptsbe_math::{Complex, Matrix, Scalar};

/// Truncation policy for two-site updates.
///
/// Two regimes share this struct:
///
/// - **Cap-driven** ([`MpsConfig::new`], the legacy policy): keep up to
///   `max_bond` singular values, discarding only those below the
///   relative `cutoff`. Accuracy is whatever the cap allows; no error
///   target is enforced.
/// - **Budget-driven** ([`MpsConfig::adaptive`]): each two-site update
///   grows `keep` until the *discarded relative mass* of that update is
///   below `trunc_per_update`; `max_bond` acts only as a hard ceiling.
///   The per-update allowance tightens automatically where weight
///   concentrates (high-entropy bonds keep more) and as the cumulative
///   `trunc_budget` depletes, so a run either stays inside its fidelity
///   budget or reports [`Mps::budget_exhausted`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MpsConfig {
    /// Hard cap on bond dimension χ.
    pub max_bond: usize,
    /// Relative singular-value cutoff: σᵢ < cutoff·σ₀ is discarded (and
    /// σᵢ < 64·ε·σ₀ always is, see [`MpsConfig::exact`]).
    pub cutoff: f64,
    /// Per-update truncation budget: the largest relative discarded mass
    /// a single two-site update may incur. `0.0` disables budget-driven
    /// truncation (cap-driven regime).
    pub trunc_per_update: f64,
    /// Cumulative truncation budget: the largest total
    /// [`Mps::truncation_error`] (`1 − fidelity` lower bound) the run may
    /// accumulate before [`Mps::budget_exhausted`] reports true. `0.0`
    /// disables the cumulative check.
    pub trunc_budget: f64,
}

/// Relative singular-value floor every config truncates at, whatever its
/// cutoff: σᵢ < 64·ε·σ₀ (ε the `f64` machine epsilon, ≈ 1.4·10⁻¹⁴) is
/// SVD round-off, not entanglement. Dropping it keeps
/// [`MpsConfig::exact`] lossless to rounding — a dropped value's share
/// of the mass, ≤ (64·ε)² ≈ 2·10⁻²⁸, vanishes in the `f64` sum, so
/// `trunc_error` stays 0 — while bonds follow the Schmidt rank instead
/// of padding up to the cap with numerical zeros.
const ROUNDING_FLOOR: f64 = 64.0 * f64::EPSILON;

impl MpsConfig {
    /// Default bond ceiling shared by [`MpsConfig::new`] and
    /// [`MpsConfig::default`].
    pub const DEFAULT_MAX_BOND: usize = 64;
    /// Default relative singular-value cutoff.
    pub const DEFAULT_CUTOFF: f64 = 1e-12;
    /// Bond ceiling used by [`MpsConfig::exact`] — generous enough that
    /// the small circuits exact contraction is meant for never hit it.
    pub const EXACT_MAX_BOND: usize = 256;

    /// Cap-driven policy: bond ceiling `max_bond`, default cutoff, no
    /// truncation budgets.
    pub fn new(max_bond: usize) -> Self {
        Self {
            max_bond,
            cutoff: Self::DEFAULT_CUTOFF,
            trunc_per_update: 0.0,
            trunc_budget: 0.0,
        }
    }

    /// Lossless contraction for small circuits: no cutoff past the
    /// round-off floor every config has (σᵢ < 64·ε·σ₀), no budgets,
    /// and a ceiling of [`MpsConfig::EXACT_MAX_BOND`]. This is *the* one
    /// constructor every exact-oracle test helper shares, so callers
    /// cannot silently disagree on capacity.
    pub fn exact() -> Self {
        Self {
            cutoff: 0.0,
            ..Self::new(Self::EXACT_MAX_BOND)
        }
    }

    /// Budget-driven policy: `max_bond` is only a ceiling; each two-site
    /// update keeps singular values until its discarded relative mass is
    /// below `per_update`, and the run-level [`Mps::truncation_error`] is
    /// held under `cumulative` (per-update allowances tighten as the
    /// budget depletes).
    pub fn adaptive(max_bond: usize, per_update: f64, cumulative: f64) -> Self {
        Self {
            trunc_per_update: per_update,
            trunc_budget: cumulative,
            ..Self::new(max_bond)
        }
    }

    /// Builder-style bond-ceiling override.
    pub fn with_max_bond(mut self, max_bond: usize) -> Self {
        self.max_bond = max_bond;
        self
    }

    /// Builder-style cutoff override.
    pub fn with_cutoff(mut self, cutoff: f64) -> Self {
        self.cutoff = cutoff;
        self
    }
}

impl Default for MpsConfig {
    fn default() -> Self {
        Self::new(Self::DEFAULT_MAX_BOND)
    }
}

/// Per-bond truncation/spectrum statistics, updated on every two-site
/// update crossing the bond ([`Mps::bond_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BondStats {
    /// Von Neumann entropy (nats) of the most recent kept spectrum.
    pub entropy: f64,
    /// Relative discarded mass accumulated at this bond.
    pub discarded: f64,
    /// Peak bond dimension kept at this bond.
    pub peak_dim: usize,
    /// Number of two-site updates that crossed this bond.
    pub updates: usize,
}

/// Matrix product state over `n` qubits (site `i` = qubit `i`).
///
/// Invariant: sites `< center` are left-canonical, sites `> center` are
/// right-canonical; the full state norm lives in the center tensor.
#[derive(Debug)]
pub struct Mps<T: Scalar> {
    tensors: Vec<Tensor3<T>>,
    center: usize,
    config: MpsConfig,
    /// Running lower bound on the squared fidelity kept through all
    /// truncations: `Π (1 − ε_i)` over per-update relative discarded
    /// masses `ε_i`. Starts at 1; exposed as
    /// `truncation_error() = 1 − kept_fidelity`.
    kept_fidelity: f64,
    /// Largest bond dimension reached over the state's history.
    max_bond_reached: usize,
    /// Per-bond spectrum/truncation stats (`bond_stats[i]` = bond between
    /// sites `i` and `i + 1`).
    bond_stats: Vec<BondStats>,
    /// Scratch for the two-site θ contraction — reused across every
    /// [`Mps::apply_2q`] instead of reallocated per gate. Not part of the
    /// state: clones start empty, `copy_from` keeps the destination's.
    theta: Vec<Complex<T>>,
    /// Scratch for the gated θ′ tensor (recovered from the SVD input
    /// matrix after each two-site update).
    theta2: Vec<Complex<T>>,
}

impl<T: Scalar> Clone for Mps<T> {
    fn clone(&self) -> Self {
        Self {
            tensors: self.tensors.clone(),
            center: self.center,
            config: self.config,
            kept_fidelity: self.kept_fidelity,
            max_bond_reached: self.max_bond_reached,
            bond_stats: self.bond_stats.clone(),
            // Scratch is per-instance working memory, not state.
            theta: Vec::new(),
            theta2: Vec::new(),
        }
    }
}

impl<T: Scalar> Mps<T> {
    /// |0…0⟩ on `n` qubits.
    pub fn zero_state(n: usize, config: MpsConfig) -> Self {
        assert!(n >= 1, "MPS needs at least one site");
        Self {
            tensors: (0..n).map(|_| Tensor3::product(false)).collect(),
            center: 0,
            config,
            kept_fidelity: 1.0,
            max_bond_reached: 1,
            bond_stats: vec![BondStats::default(); n.saturating_sub(1)],
            theta: Vec::new(),
            theta2: Vec::new(),
        }
    }

    /// A state from raw site tensors (exact config), in any gauge: the
    /// center sits at the last site, so `move_center` re-canonicalizes
    /// everything it sweeps.
    #[cfg(test)]
    pub(crate) fn from_tensors(tensors: Vec<Tensor3<T>>) -> Self {
        let n = tensors.len();
        Self {
            max_bond_reached: tensors.iter().map(|t| t.dr).max().unwrap_or(1),
            tensors,
            center: n - 1,
            config: MpsConfig::exact(),
            kept_fidelity: 1.0,
            bond_stats: vec![BondStats::default(); n - 1],
            theta: Vec::new(),
            theta2: Vec::new(),
        }
    }

    /// Overwrite `self` with `src`'s state, recycling this instance's
    /// tensor buffers (and keeping its scratch) instead of reallocating —
    /// the pooled-fork path (`Backend::fork_into`). Tensor entries are
    /// copied verbatim, so a state forked into a recycled instance is
    /// bitwise identical to a fresh clone.
    pub fn copy_from(&mut self, src: &Self) {
        self.tensors.truncate(src.tensors.len());
        let have = self.tensors.len();
        for (dst, s) in self.tensors.iter_mut().zip(&src.tensors) {
            dst.copy_from(s);
        }
        self.tensors.extend(src.tensors[have..].iter().cloned());
        self.center = src.center;
        self.config = src.config;
        self.kept_fidelity = src.kept_fidelity;
        self.max_bond_reached = src.max_bond_reached;
        self.bond_stats.clear();
        self.bond_stats.extend_from_slice(&src.bond_stats);
    }

    /// Number of qubits.
    pub fn n_qubits(&self) -> usize {
        self.tensors.len()
    }

    /// Truncation policy.
    pub fn config(&self) -> MpsConfig {
        self.config
    }

    /// Accumulated truncation error as `1 − F²_lb`, where `F²_lb =
    /// Π (1 − ε_i)` over per-update relative discarded masses `ε_i` is a
    /// lower bound on the squared fidelity between this state and the
    /// untruncated evolution. Exactly `0.0` when no update ever discarded
    /// mass. (The pre-adaptive accounting summed the `ε_i` — a quantity
    /// that is neither a fidelity bound nor bounded by 1; budgets are
    /// compared against this product form instead.)
    pub fn truncation_error(&self) -> f64 {
        1.0 - self.kept_fidelity
    }

    /// True when a cumulative truncation budget is configured and
    /// [`Mps::truncation_error`] has exceeded it — the state's samples
    /// can no longer be trusted to the requested fidelity.
    pub fn budget_exhausted(&self) -> bool {
        self.config.trunc_budget > 0.0 && self.truncation_error() > self.config.trunc_budget
    }

    /// Largest bond dimension the state has needed.
    pub fn max_bond_reached(&self) -> usize {
        self.max_bond_reached
    }

    /// Per-bond spectrum/truncation statistics (`[i]` = bond `i`,`i+1`).
    pub fn bond_stats(&self) -> &[BondStats] {
        &self.bond_stats
    }

    /// Current orthogonality center.
    pub fn center(&self) -> usize {
        self.center
    }

    /// Site tensor accessor (sampling internals).
    pub fn tensor(&self, i: usize) -> &Tensor3<T> {
        &self.tensors[i]
    }

    /// Current bond dimension between sites `i` and `i+1`.
    pub fn bond_dim(&self, i: usize) -> usize {
        self.tensors[i].dr
    }

    /// `⟨ψ|ψ⟩` — O(1) thanks to the canonical gauge.
    pub fn norm_sqr(&self) -> T {
        self.tensors[self.center].norm_sqr()
    }

    /// Normalize; returns the prior squared norm.
    pub fn normalize(&mut self) -> T {
        let n2 = self.norm_sqr();
        if n2 > T::ZERO {
            let inv = T::ONE / n2.sqrt();
            self.tensors[self.center].scale(inv);
        }
        n2
    }

    /// Move the orthogonality center to `target` by QR sweeps.
    pub fn move_center(&mut self, target: usize) {
        assert!(target < self.n_qubits());
        while self.center < target {
            let i = self.center;
            // Left-canonicalize A_i: (dl*2, dr) = Q R; carry R right.
            let m = self.tensors[i].to_matrix_lp_r();
            let qr = qr_thin(&m);
            let dl = self.tensors[i].dl;
            self.tensors[i] = Tensor3::from_matrix_lp_r(&qr.q, dl);
            // A_{i+1} ← R · A_{i+1}  (contract over its left bond).
            let next = &self.tensors[i + 1];
            let next_m = next.to_matrix_l_pr();
            let merged = qr.r.mul_ref(&next_m);
            self.tensors[i + 1] = Tensor3::from_matrix_l_pr(&merged, next.dr);
            self.center += 1;
        }
        while self.center > target {
            let i = self.center;
            // Right-canonicalize A_i: A = L · Q with Q's rows orthonormal.
            let m = self.tensors[i].to_matrix_l_pr();
            let qr = qr_thin(&m.dagger());
            // m = (Q R)† reversed: m† = Q R  =>  m = R† Q†.
            let l = qr.r.dagger();
            let q = qr.q.dagger();
            let dr = self.tensors[i].dr;
            self.tensors[i] = Tensor3::from_matrix_l_pr(&q, dr);
            // A_{i-1} ← A_{i-1} · L (contract over its right bond).
            let prev = &self.tensors[i - 1];
            let prev_m = prev.to_matrix_lp_r();
            let merged = prev_m.mul_ref(&l);
            let dl = prev.dl;
            self.tensors[i - 1] = Tensor3::from_matrix_lp_r(&merged, dl);
            self.center -= 1;
        }
    }

    /// Apply a single-qubit gate (or any 2×2 matrix) at site `q`.
    /// Non-unitary matrices are allowed; the caller handles normalization.
    pub fn apply_1q(&mut self, m: &Matrix<T>, q: usize) {
        assert!(q < self.n_qubits());
        self.move_center(q);
        self.tensors[q].apply_phys(m);
    }

    /// Debug-assert slack for "is this a unitary?" routing checks: far
    /// above `T::tol()` and long-run accumulated `Gate::unitary1`
    /// admission error (1e-9 each), far below a misrouted Kraus branch's
    /// O(1) deviation.
    fn unitarity_slack() -> T {
        T::from_f64(1e-6).max(T::tol() * T::from_f64(100.0))
    }

    /// Apply a *unitary* single-qubit gate at site `q` without moving the
    /// orthogonality center: a unitary on the physical leg preserves
    /// left/right canonical form (`Σ_p B_p†B_p = Σ_p A_p†(m†m)A_p = I`),
    /// so the gauge sweep [`Mps::apply_1q`] pays for non-unitary inputs
    /// is unnecessary. This is the MPS fast path the fused gate stream
    /// rides: fused gates are products of unitaries, hence unitary.
    pub fn apply_unitary_1q(&mut self, m: &Matrix<T>, q: usize) {
        assert!(q < self.n_qubits());
        // Routing sanity check, not a precision gate: Gate::unitary1
        // admits matrices up to 1e-9 from unitary and the fuser multiplies
        // runs of them, so the bound must sit well above accumulated
        // admission error while still catching a misrouted Kraus branch
        // (those deviate O(1)).
        debug_assert!(
            m.is_unitary(Self::unitarity_slack()),
            "gate must be unitary"
        );
        self.tensors[q].apply_phys(m);
    }

    /// Apply a diagonal unitary `diag(d0, d1)` at site `q`: scales the
    /// two physical slices in place — no gauge moves, no contraction.
    pub fn apply_diag_1q(&mut self, d0: Complex<T>, d1: Complex<T>, q: usize) {
        assert!(q < self.n_qubits());
        debug_assert!(
            (d0.norm_sqr() - T::ONE).abs() < Self::unitarity_slack()
                && (d1.norm_sqr() - T::ONE).abs() < Self::unitarity_slack(),
            "diagonal must be unitary to preserve the canonical gauge"
        );
        self.tensors[q].scale_phys(d0, d1);
    }

    /// Apply a two-qubit gate on sites `(a, b)`; non-adjacent pairs are
    /// applied directly via the gate's operator-Schmidt (MPO) form — no
    /// SWAP chains. Matrix basis is `(bit_a << 1) | bit_b`.
    pub fn apply_2q(&mut self, m: &Matrix<T>, a: usize, b: usize) {
        assert!(a != b && a < self.n_qubits() && b < self.n_qubits());
        let (lo, hi) = (a.min(b), a.max(b));
        let m_local = reorder_for_sites(m, a < b);
        if hi - lo == 1 {
            self.apply_2q_adjacent(&m_local, lo);
            return;
        }
        self.apply_2q_long_range(&m_local, lo, hi);
    }

    /// Effective per-update truncation budget for an update crossing bond
    /// `q`: the configured `trunc_per_update`, tightened (i) on bonds
    /// whose kept spectrum carries high entropy — where weight
    /// concentrates, discarding is costliest — and (ii) to at most half
    /// the remaining cumulative budget, so a run approaches
    /// `trunc_budget` geometrically instead of overshooting it in one
    /// update. `0.0` means budgets are off (or spent) and the cutoff/cap
    /// policy alone decides.
    fn effective_budget(&self, q: usize) -> f64 {
        let mut budget = self.config.trunc_per_update;
        if budget <= 0.0 {
            return 0.0;
        }
        budget /= 1.0 + self.bond_stats[q].entropy;
        if self.config.trunc_budget > 0.0 {
            let remaining = (self.config.trunc_budget - self.truncation_error()).max(0.0);
            budget = budget.min(remaining * 0.5);
        }
        budget
    }

    /// Apply a two-site gate on non-adjacent sites `lo < hi` directly via
    /// a truncating **zip-up sweep**: operator-Schmidt-decompose the 4×4
    /// matrix (`(p_lo << 1) | p_hi` basis) as `Σ_k A_k ⊗ B_k` (rank ≤ 4;
    /// 2 for CX/CZ), absorb the `A_k` at `lo`, then push the rank-wide
    /// MPO bond rightward one site at a time — contract the carry into
    /// the next (right-canonical) site tensor and SVD-truncate the
    /// crossed bond immediately — until `B_k` is absorbed at `hi`. The
    /// window's bonds are never inflated ×rank up front, so versus the
    /// older inflate-everything + gauge-repair + identity-sweep path this
    /// skips a full QR sweep over ×rank bonds and halves every SVD's
    /// width (`(2χ)×(χ·rank)` cores instead of `(2χ)×(2χ·rank)`). Ends
    /// with the center at `hi`.
    fn apply_2q_long_range(&mut self, m: &Matrix<T>, lo: usize, hi: usize) {
        debug_assert!(lo + 1 < hi && hi < self.n_qubits());
        let (a_ops, b_ops) = operator_schmidt(m);
        let rank = a_ops.len();
        if rank == 1 {
            // Product operator: two independent single-site applications
            // (gauge handled by `apply_1q`; no bond is touched).
            self.apply_1q(&a_ops[0], lo);
            self.apply_1q(&b_ops[0], hi);
            return;
        }
        // Bring the center to `lo` so every site in (lo, hi] is
        // right-canonical: identity-extended right-canonical tensors stay
        // isometric, which keeps the zip-up's per-bond truncation
        // decisions honest.
        self.move_center(lo);
        // Site lo: M[(l, p'), r·rank + k] = Σ_p A_k[p', p] T[l, p, r],
        // split immediately — the carry S·Vh keeps the norm and the open
        // MPO index.
        let mut carry = {
            let t = &self.tensors[lo];
            let (dl, dr) = (t.dl, t.dr);
            let mut mat = Matrix::<T>::zeros(dl * 2, dr * rank);
            for l in 0..dl {
                for po in 0..2 {
                    for pi in 0..2 {
                        for (k, ak) in a_ops.iter().enumerate() {
                            let g = ak[(po, pi)];
                            if g == Complex::zero() {
                                continue;
                            }
                            for r in 0..dr {
                                mat[(l * 2 + po, r * rank + k)] += g * t.get(l, pi, r);
                            }
                        }
                    }
                }
            }
            self.split_truncate(&mat, lo, dl)
        };
        // Middle sites carry the MPO index untouched:
        // N[(α, p), r·rank + k] = Σ_l C[α, l·rank + k] T[l, p, r].
        for j in lo + 1..hi {
            carry = {
                let t = &self.tensors[j];
                let (dl, dr) = (t.dl, t.dr);
                let alpha = carry.rows();
                debug_assert_eq!(carry.cols(), dl * rank);
                let mut mat = Matrix::<T>::zeros(alpha * 2, dr * rank);
                for a_idx in 0..alpha {
                    for l in 0..dl {
                        for k in 0..rank {
                            let c = carry[(a_idx, l * rank + k)];
                            if c == Complex::zero() {
                                continue;
                            }
                            for p in 0..2 {
                                for r in 0..dr {
                                    mat[(a_idx * 2 + p, r * rank + k)] += c * t.get(l, p, r);
                                }
                            }
                        }
                    }
                }
                self.split_truncate(&mat, j, alpha)
            };
        }
        // Site hi closes the MPO index against B_k:
        // out[α, p', r] = Σ_{l,k,p} C[α, l·rank + k] B_k[p', p] T[l, p, r].
        {
            let t = &self.tensors[hi];
            let (dl, dr) = (t.dl, t.dr);
            let alpha = carry.rows();
            debug_assert_eq!(carry.cols(), dl * rank);
            let mut out = Tensor3::<T>::zeros(alpha, dr);
            for a_idx in 0..alpha {
                for l in 0..dl {
                    for (k, bk) in b_ops.iter().enumerate() {
                        let c = carry[(a_idx, l * rank + k)];
                        if c == Complex::zero() {
                            continue;
                        }
                        for po in 0..2 {
                            for pi in 0..2 {
                                let g = bk[(po, pi)];
                                if g == Complex::zero() {
                                    continue;
                                }
                                let w = c * g;
                                for r in 0..dr {
                                    let cur = out.get(a_idx, po, r);
                                    out.set(a_idx, po, r, cur + w * t.get(l, pi, r));
                                }
                            }
                        }
                    }
                }
            }
            self.tensors[hi] = out;
        }
        self.center = hi;
    }

    /// Two-site update on `(q, q+1)` with matrix in `(p_lo << 1) | p_hi`
    /// basis; SVD-truncates the new bond.
    fn apply_2q_adjacent(&mut self, m: &Matrix<T>, q: usize) {
        assert!(q + 1 < self.n_qubits());
        self.move_center(q);
        // Take the θ scratch buffers up front (ends the &mut borrows
        // before the tensor reads below); they are handed back — via the
        // SVD input matrix for θ′ — at the end, so steady-state two-site
        // updates allocate nothing.
        let mut theta = std::mem::take(&mut self.theta);
        let mut theta2 = std::mem::take(&mut self.theta2);
        let a = &self.tensors[q];
        let b = &self.tensors[q + 1];
        let (dl, dr) = (a.dl, b.dr);
        let mid = a.dr;
        debug_assert_eq!(mid, b.dl, "bond mismatch between {q} and {}", q + 1);

        // theta[l, p1, p2, r] = Σ_k A[l,p1,k] B[k,p2,r], then gate applied
        // to (p1, p2).
        theta.clear();
        theta.resize(dl * 4 * dr, Complex::<T>::zero());
        for l in 0..dl {
            for p1 in 0..2 {
                for k in 0..mid {
                    let av = a.get(l, p1, k);
                    if av == Complex::zero() {
                        continue;
                    }
                    for p2 in 0..2 {
                        for r in 0..dr {
                            let idx = ((l * 2 + p1) * 2 + p2) * dr + r;
                            theta[idx] += av * b.get(k, p2, r);
                        }
                    }
                }
            }
        }
        // Gate: theta'[l, p1', p2', r] = Σ m[(p1'<<1)|p2', (p1<<1)|p2] theta[l,p1,p2,r]
        theta2.clear();
        theta2.resize(dl * 4 * dr, Complex::<T>::zero());
        for l in 0..dl {
            for pp in 0..4usize {
                for p in 0..4usize {
                    let g = m[(pp, p)];
                    if g == Complex::zero() {
                        continue;
                    }
                    let (p1, p2) = (p >> 1, p & 1);
                    let (q1, q2) = (pp >> 1, pp & 1);
                    for r in 0..dr {
                        let src = ((l * 2 + p1) * 2 + p2) * dr + r;
                        let dst = ((l * 2 + q1) * 2 + q2) * dr + r;
                        theta2[dst] += g * theta[src];
                    }
                }
            }
        }
        // Reshape to (dl*2) × (2*dr), split across bond q, and install
        // the carry as the new center tensor at q+1.
        let mat = Matrix::from_vec(dl * 2, 2 * dr, theta2);
        // Hand the scratch allocations back for the next two-site update.
        self.theta = theta;
        let carry = self.split_truncate(&mat, q, dl);
        self.theta2 = mat.into_vec();
        self.tensors[q + 1] = Tensor3::from_matrix_l_pr(&carry, dr);
        self.center = q + 1;
    }

    /// SVD-split a `(dl·2) × w` matrix across bond `q` under the standard
    /// truncation policy (cutoff, cap, per-update budget), install the
    /// left-canonical `U` factor as the site-`q` tensor, record the
    /// bond's truncation/spectrum statistics, and return the `keep × w`
    /// carry `S·Vh` (which owns the norm). Shared by the adjacent
    /// two-site update and the zip-up MPO sweep so both incur identical
    /// accounting. The SVD runs QR-first ([`svd_qr`]): rectangular
    /// inputs — wide gate splits, rank-extended zip-up columns, chain
    /// edges — reduce to a `min(m, w)` Jacobi core.
    fn split_truncate(&mut self, mat: &Matrix<T>, q: usize, dl: usize) -> Matrix<T> {
        let w = mat.cols();
        // The per-update SVD time is the MPS cost driver, so it gets its
        // own (histogram-only) telemetry stage — this is what decomposes
        // "prep is slow" into bonds × SVD cost.
        let dec = {
            let _t = ptsbe_telemetry::timer(ptsbe_telemetry::Stage::MpsSvd);
            svd_qr(mat)
        };
        // Truncate: cutoff (never below [`ROUNDING_FLOOR`]) and cap give
        // the hard-stop `keep` (the legacy cap-driven policy); under a
        // per-update budget, `keep` then grows from 1 only until the discarded relative mass drops below the
        // effective allowance, so weightless tails are dropped without
        // waiting for them to fall under `cutoff`.
        let total: f64 = dec.s.iter().map(|&s| (s * s).to_f64()).sum();
        let smax = dec.s.first().copied().unwrap_or(T::ZERO);
        let rel_cut = T::from_f64(self.config.cutoff.max(ROUNDING_FLOOR)) * smax;
        let mut keep = 0usize;
        for (i, &s) in dec.s.iter().enumerate() {
            if i >= self.config.max_bond || (i > 0 && s < rel_cut) {
                break;
            }
            keep = i + 1;
        }
        let mut keep = keep.max(1);
        let budget = self.effective_budget(q);
        if budget > 0.0 && total > 0.0 {
            let allowed = budget * total;
            let mut kept = 0.0f64;
            for k in 1..=keep {
                kept += (dec.s[k - 1] * dec.s[k - 1]).to_f64();
                if total - kept <= allowed {
                    keep = k;
                    break;
                }
            }
        }
        // Kept mass is re-summed over the final `keep` in spectrum order so
        // a no-discard update yields ε = 0 exactly (same floating-point sum
        // as `total`).
        let kept_mass: f64 = dec.s[..keep].iter().map(|&s| (s * s).to_f64()).sum();
        let eps = if total > 0.0 {
            ((total - kept_mass).max(0.0) / total.max(1e-300)).min(1.0)
        } else {
            0.0
        };
        self.kept_fidelity *= 1.0 - eps;
        self.max_bond_reached = self.max_bond_reached.max(keep);
        let stats = &mut self.bond_stats[q];
        stats.updates += 1;
        stats.discarded += eps;
        stats.peak_dim = stats.peak_dim.max(keep);
        if kept_mass > 0.0 {
            let mut entropy = 0.0f64;
            for &s in &dec.s[..keep] {
                let p = (s * s).to_f64() / kept_mass;
                if p > 0.0 {
                    entropy -= p * p.ln();
                }
            }
            stats.entropy = entropy;
        }

        // A_q = U[.., ..keep] (left-canonical); carry = S·Vh.
        let mut u_keep = Matrix::zeros(dl * 2, keep);
        for rr in 0..dl * 2 {
            for c in 0..keep {
                u_keep[(rr, c)] = dec.u[(rr, c)];
            }
        }
        self.tensors[q] = Tensor3::from_matrix_lp_r(&u_keep, dl);
        let mut sv = Matrix::zeros(keep, w);
        for rr in 0..keep {
            let s = dec.s[rr];
            for c in 0..w {
                sv[(rr, c)] = dec.vh[(rr, c)].scale(s);
            }
        }
        sv
    }

    /// Amplitude `⟨bits|ψ⟩` where bit `i` of `bits` selects site `i`'s
    /// physical index. O(n·χ²).
    pub fn amplitude(&self, bits: u128) -> Complex<T> {
        // Left vector starts at the 1-dim left boundary.
        let mut vec: Vec<Complex<T>> = vec![Complex::one()];
        for (i, t) in self.tensors.iter().enumerate() {
            let p = ((bits >> i) & 1) as usize;
            let mut next = vec![Complex::<T>::zero(); t.dr];
            for (l, &vl) in vec.iter().enumerate() {
                if vl == Complex::zero() {
                    continue;
                }
                for (r, nr) in next.iter_mut().enumerate() {
                    *nr += vl * t.get(l, p, r);
                }
            }
            vec = next;
        }
        debug_assert_eq!(vec.len(), 1);
        vec[0]
    }

    /// Reduced density matrix on sites `[q]` or `[q, q+1]` (the center
    /// must be movable; `&mut self` because the gauge shifts).
    pub fn local_density(&mut self, qubits: &[usize]) -> Matrix<T> {
        match qubits {
            [q] => {
                self.move_center(*q);
                let t = &self.tensors[*q];
                let mut rho = Matrix::zeros(2, 2);
                for p in 0..2 {
                    for pp in 0..2 {
                        let mut acc = Complex::zero();
                        for l in 0..t.dl {
                            for r in 0..t.dr {
                                acc += t.get(l, p, r) * t.get(l, pp, r).conj();
                            }
                        }
                        rho[(p, pp)] = acc;
                    }
                }
                rho
            }
            [a, b] if *b == a + 1 => {
                self.move_center(*a);
                let ta = &self.tensors[*a];
                let tb = &self.tensors[*b];
                let (dl, mid, dr) = (ta.dl, ta.dr, tb.dr);
                // theta[(l,p1,p2,r)]
                let mut theta = vec![Complex::<T>::zero(); dl * 4 * dr];
                for l in 0..dl {
                    for p1 in 0..2 {
                        for k in 0..mid {
                            let av = ta.get(l, p1, k);
                            for p2 in 0..2 {
                                for r in 0..dr {
                                    theta[((l * 2 + p1) * 2 + p2) * dr + r] +=
                                        av * tb.get(k, p2, r);
                                }
                            }
                        }
                    }
                }
                let mut rho = Matrix::zeros(4, 4);
                for p in 0..4usize {
                    for pp in 0..4usize {
                        let mut acc = Complex::zero();
                        for l in 0..dl {
                            for r in 0..dr {
                                let pi = ((l * 2 + (p >> 1)) * 2 + (p & 1)) * dr + r;
                                let pj = ((l * 2 + (pp >> 1)) * 2 + (pp & 1)) * dr + r;
                                acc += theta[pi] * theta[pj].conj();
                            }
                        }
                        rho[(p, pp)] = acc;
                    }
                }
                rho
            }
            _ => panic!("local_density supports 1 site or an adjacent pair"),
        }
    }

    /// Kraus branch probabilities `tr(K ρ_local K†)` for a 1- or 2-qubit
    /// channel. Two-qubit channels must act on adjacent sites (the
    /// executor routes non-adjacent channels through swaps).
    pub fn kraus_probabilities(&mut self, ops: &[Matrix<T>], qubits: &[usize]) -> Vec<f64> {
        match qubits {
            [q] => {
                let rho = self.local_density(&[*q]);
                ops.iter()
                    .map(|k| {
                        k.mul_ref(&rho)
                            .mul_ref(&k.dagger())
                            .trace()
                            .re
                            .to_f64()
                            .max(0.0)
                    })
                    .collect()
            }
            [a, b] => {
                let (lo, hi) = (*a.min(b), *a.max(b));
                assert_eq!(hi, lo + 1, "2-qubit channels must act on adjacent sites");
                let rho = self.local_density(&[lo, hi]);
                // rho is in (p_lo, p_hi) bit order; remap each op from the
                // channel's (first, second) argument order.
                let first_is_lo = *a == lo;
                ops.iter()
                    .map(|k| {
                        let k_local = reorder_for_sites(k, first_is_lo);
                        k_local
                            .mul_ref(&rho)
                            .mul_ref(&k_local.dagger())
                            .trace()
                            .re
                            .to_f64()
                            .max(0.0)
                    })
                    .collect()
            }
            _ => panic!("Kraus channels limited to 2 qubits"),
        }
    }

    /// Apply a (generally non-unitary) Kraus operator and renormalize;
    /// returns the realized branch probability.
    pub fn apply_kraus_normalized(&mut self, k: &Matrix<T>, qubits: &[usize]) -> f64 {
        match qubits {
            [q] => {
                self.apply_1q(k, *q);
                let p = self.norm_sqr().to_f64();
                self.normalize();
                p
            }
            [a, b] => {
                self.apply_2q(k, *a, *b);
                let p = self.norm_sqr().to_f64();
                self.normalize();
                p
            }
            _ => panic!("Kraus operators limited to 2 qubits"),
        }
    }

    /// Contract to a full statevector (test helper; n ≤ 20).
    pub fn to_statevector(&self) -> Vec<Complex<T>> {
        let n = self.n_qubits();
        assert!(n <= 20, "to_statevector is a test helper");
        (0..(1usize << n))
            .map(|bits| self.amplitude(bits as u128))
            .collect()
    }
}

/// Operator-Schmidt decomposition of a 4×4 two-site matrix in the
/// `(p_lo << 1) | p_hi` basis across the lo|hi split: returns
/// √s-weighted factor pairs with `m = Σ_k A_k ⊗ B_k`, rank ≤ 4
/// (2 for CX/CZ, 1 for product operators).
fn operator_schmidt<T: Scalar>(m: &Matrix<T>) -> (Vec<Matrix<T>>, Vec<Matrix<T>>) {
    // R[(a', a), (b', b)] = m[(a' << 1) | b', (a << 1) | b]; its SVD is
    // the operator-Schmidt decomposition.
    let mut rmat = Matrix::<T>::zeros(4, 4);
    for ap in 0..2 {
        for a in 0..2 {
            for bp in 0..2 {
                for b in 0..2 {
                    rmat[(ap * 2 + a, bp * 2 + b)] = m[((ap << 1) | bp, (a << 1) | b)];
                }
            }
        }
    }
    let dec = svd(&rmat);
    let smax = dec.s.first().copied().unwrap_or(T::ZERO);
    let op_cut = T::from_f64(1e-14) * smax;
    let rank = dec
        .s
        .iter()
        .take_while(|&&s| s > op_cut)
        .count()
        .clamp(1, 4);
    // A_k[a', a] = √s_k · U[(a', a), k];  B_k[b', b] = √s_k · Vh[k, (b', b)].
    let mut a_ops = Vec::with_capacity(rank);
    let mut b_ops = Vec::with_capacity(rank);
    for k in 0..rank {
        let root = dec.s[k].sqrt();
        let mut ak = Matrix::<T>::zeros(2, 2);
        let mut bk = Matrix::<T>::zeros(2, 2);
        for o in 0..2 {
            for i in 0..2 {
                ak[(o, i)] = dec.u[(o * 2 + i, k)].scale(root);
                bk[(o, i)] = dec.vh[(k, o * 2 + i)].scale(root);
            }
        }
        a_ops.push(ak);
        b_ops.push(bk);
    }
    (a_ops, b_ops)
}

/// Convert a gate matrix from the `(bit_first << 1) | bit_second`
/// convention to the site-local `(p_lo << 1) | p_hi` basis.
/// `first_is_lo` says whether the gate's first argument is the lower site.
fn reorder_for_sites<T: Scalar>(m: &Matrix<T>, first_is_lo: bool) -> Matrix<T> {
    if first_is_lo {
        return m.clone();
    }
    // Swap the two index bits on both rows and columns.
    let swap_bits = |i: usize| ((i & 1) << 1) | (i >> 1);
    let mut out = Matrix::zeros(4, 4);
    for r in 0..4 {
        for c in 0..4 {
            out[(swap_bits(r), swap_bits(c))] = m[(r, c)];
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptsbe_math::gates;
    use ptsbe_statevector::StateVector;

    fn exact() -> MpsConfig {
        MpsConfig::exact()
    }

    fn assert_matches_statevector(mps: &Mps<f64>, sv: &StateVector<f64>, tol: f64) {
        let amps = mps.to_statevector();
        // Compare up to global phase via fidelity.
        let fid = {
            let mut acc = Complex::<f64>::zero();
            for (a, b) in amps.iter().zip(sv.amplitudes()) {
                acc += a.conj() * *b;
            }
            acc.norm_sqr()
        };
        assert!((fid - 1.0).abs() < tol, "fidelity {fid}");
    }

    #[test]
    fn zero_state_amplitudes() {
        let mps = Mps::<f64>::zero_state(4, exact());
        assert!((mps.amplitude(0).re - 1.0).abs() < 1e-12);
        assert!(mps.amplitude(5).abs() < 1e-12);
        assert!((mps.norm_sqr() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn exact_bonds_follow_the_schmidt_rank_not_the_cap() {
        // S and CX bricks on |0…0⟩ stay a product state: every split's
        // trailing singular values are round-off, and the floor drops
        // them (with a zero cutoff alone every bond padded to the cap).
        let n = 40;
        let mut mps = Mps::<f64>::zero_state(n, exact().with_max_bond(64));
        for layer in 0..8 {
            for q in 0..n {
                mps.apply_1q(&gates::s(), q);
            }
            for q in (layer % 2..n - 1).step_by(2) {
                mps.apply_2q(&gates::cx(), q, q + 1);
            }
        }
        assert_eq!(mps.max_bond_reached(), 1);
        assert_eq!(mps.truncation_error(), 0.0);
        assert!((mps.amplitude(0).norm_sqr() - 1.0).abs() < 1e-12);
        // An entangled state keeps its full rank: GHZ bonds are 2.
        let mut ghz = Mps::<f64>::zero_state(8, exact());
        ghz.apply_1q(&gates::h(), 0);
        for q in 0..7 {
            ghz.apply_2q(&gates::cx(), q, q + 1);
        }
        assert_eq!(ghz.max_bond_reached(), 2);
        assert_eq!(ghz.truncation_error(), 0.0);
    }

    #[test]
    fn single_qubit_gates_match() {
        let mut mps = Mps::<f64>::zero_state(3, exact());
        let mut sv = StateVector::<f64>::zero_state(3);
        for (q, g) in [(0, gates::h::<f64>()), (1, gates::sx()), (2, gates::t())] {
            mps.apply_1q(&g, q);
            sv.apply_1q(&g, q);
        }
        assert_matches_statevector(&mps, &sv, 1e-10);
    }

    #[test]
    fn bell_state_via_mps() {
        let mut mps = Mps::<f64>::zero_state(2, exact());
        mps.apply_1q(&gates::h(), 0);
        mps.apply_2q(&gates::cx(), 0, 1);
        let a00 = mps.amplitude(0b00);
        let a11 = mps.amplitude(0b11);
        assert!((a00.norm_sqr() - 0.5).abs() < 1e-10);
        assert!((a11.norm_sqr() - 0.5).abs() < 1e-10);
        assert!(mps.amplitude(0b01).abs() < 1e-10);
        assert_eq!(mps.bond_dim(0), 2);
    }

    #[test]
    fn reversed_gate_arguments() {
        // cx(1, 0): control = site 1.
        let mut mps = Mps::<f64>::zero_state(2, exact());
        let mut sv = StateVector::<f64>::zero_state(2);
        mps.apply_1q(&gates::h(), 1);
        sv.apply_1q(&gates::h(), 1);
        mps.apply_2q(&gates::cx(), 1, 0);
        sv.apply_2q(&gates::cx(), 1, 0);
        assert_matches_statevector(&mps, &sv, 1e-10);
    }

    #[test]
    fn non_adjacent_gate_direct() {
        let mut mps = Mps::<f64>::zero_state(4, exact());
        let mut sv = StateVector::<f64>::zero_state(4);
        mps.apply_1q(&gates::h(), 0);
        sv.apply_1q(&gates::h(), 0);
        mps.apply_2q(&gates::cx(), 0, 3);
        sv.apply_cx(0, 3);
        assert_matches_statevector(&mps, &sv, 1e-10);
        // Bonds between untouched middle sites grew as needed and the
        // state stayed normalized.
        assert!((mps.norm_sqr() - 1.0).abs() < 1e-10);
        assert!(mps.truncation_error() < 1e-12);
    }

    #[test]
    fn long_range_random_gates_match_statevector() {
        // Dense (rank-4) gates at various distances, both argument
        // orders, on an already-entangled state — exercises the full
        // operator-Schmidt MPO path including gauge repair.
        let mut rng = ptsbe_rng::PhiloxRng::new(77, 0);
        let n = 7;
        let mut mps = Mps::<f64>::zero_state(n, exact());
        let mut sv = StateVector::<f64>::zero_state(n);
        for q in 0..n {
            mps.apply_1q(&gates::h(), q);
            sv.apply_1q(&gates::h(), q);
        }
        for (a, b) in [(0, 6), (6, 0), (2, 5), (5, 1), (0, 2), (4, 6)] {
            let u = ptsbe_math::random::haar_unitary::<f64>(4, &mut rng);
            mps.apply_2q(&u, a, b);
            sv.apply_2q(&u, a, b);
        }
        assert_matches_statevector(&mps, &sv, 1e-8);
        assert!(mps.truncation_error() < 1e-10);
    }

    #[test]
    fn long_range_rank_one_gate_is_product_path() {
        // Z⊗Z has operator-Schmidt rank 1: the direct path must not
        // inflate any bond.
        let mut mps = Mps::<f64>::zero_state(5, exact());
        let mut sv = StateVector::<f64>::zero_state(5);
        for q in 0..5 {
            mps.apply_1q(&gates::h(), q);
            sv.apply_1q(&gates::h(), q);
        }
        let mut zz = Matrix::<f64>::zeros(4, 4);
        for (i, d) in [1.0, -1.0, -1.0, 1.0].into_iter().enumerate() {
            zz[(i, i)] = Complex::from_f64(d, 0.0);
        }
        mps.apply_2q(&zz, 0, 4);
        sv.apply_2q(&zz, 0, 4);
        assert_matches_statevector(&mps, &sv, 1e-10);
        assert_eq!(mps.max_bond_reached(), 1);
    }

    #[test]
    fn long_range_kraus_via_mpo_matches_dense() {
        // A non-unitary operator across a distance (diagonal with
        // operator-Schmidt rank 2): the MPO path must agree with the
        // statevector oracle on the realized probability and state.
        let mut k = Matrix::<f64>::zeros(4, 4);
        for (i, d) in [1.0, 0.8, 0.6, 0.4].into_iter().enumerate() {
            k[(i, i)] = Complex::from_f64(d, 0.0);
        }
        let mut mps = Mps::<f64>::zero_state(4, exact());
        let mut sv = StateVector::<f64>::zero_state(4);
        for q in 0..4 {
            mps.apply_1q(&gates::h(), q);
            sv.apply_1q(&gates::h(), q);
        }
        mps.apply_2q(&gates::cx(), 0, 1);
        sv.apply_cx(0, 1);
        let p = mps.apply_kraus_normalized(&k, &[0, 3]);
        sv.apply_2q(&k, 0, 3);
        // ⟨ψ|K†K|ψ⟩ for the uniform-superposition input.
        let p_sv = sv.amplitudes().iter().map(|a| a.norm_sqr()).sum::<f64>();
        assert!((p - p_sv).abs() < 1e-10, "{p} vs {p_sv}");
        let scale = 1.0 / p_sv.sqrt();
        for bits in 0..16u128 {
            let a = mps.amplitude(bits);
            let b = sv.amplitudes()[bits as usize].scale(scale);
            assert!((a - b).abs() < 1e-10, "amp {bits}");
        }
    }

    #[test]
    fn adaptive_budget_truncates_and_bounds_error() {
        let mut rng = ptsbe_rng::PhiloxRng::new(505, 0);
        let n = 8;
        let budget = 1e-2;
        let cfg = MpsConfig::adaptive(64, 1e-3, budget);
        let mut mps = Mps::<f64>::zero_state(n, cfg);
        let mut lossless = Mps::<f64>::zero_state(n, MpsConfig::exact());
        for step in 0..40 {
            let u2 = ptsbe_math::random::haar_unitary::<f64>(4, &mut rng);
            let q = step % (n - 1);
            mps.apply_2q(&u2, q, q + 1);
            lossless.apply_2q(&u2, q, q + 1);
        }
        // The budget actually truncated (random circuits saturate bonds)…
        assert!(mps.max_bond_reached() < lossless.max_bond_reached());
        assert!(mps.truncation_error() > 0.0);
        // …but the cumulative fidelity budget held.
        assert!(!mps.budget_exhausted());
        assert!(mps.truncation_error() <= budget);
        // And the recorded error really is a fidelity lower bound.
        mps.normalize();
        let mut overlap = Complex::<f64>::zero();
        for bits in 0..(1u128 << n) {
            overlap += mps.amplitude(bits).conj() * lossless.amplitude(bits);
        }
        assert!(
            overlap.norm_sqr() >= 1.0 - budget - 1e-9,
            "fidelity {} below budget floor",
            overlap.norm_sqr()
        );
    }

    #[test]
    fn bond_stats_track_entropy_and_peaks() {
        let mut mps = Mps::<f64>::zero_state(3, exact());
        mps.apply_1q(&gates::h(), 0);
        mps.apply_2q(&gates::cx(), 0, 1);
        let stats = mps.bond_stats()[0];
        assert_eq!(stats.updates, 1);
        assert_eq!(stats.peak_dim, 2);
        // Bell pair: maximally mixed spectrum → entropy ln 2.
        assert!((stats.entropy - std::f64::consts::LN_2).abs() < 1e-9);
        assert_eq!(stats.discarded, 0.0);
        assert_eq!(mps.bond_stats()[1].updates, 0);
    }

    #[test]
    fn random_circuit_matches_statevector() {
        let mut rng = ptsbe_rng::PhiloxRng::new(110, 0);
        let n = 6;
        let mut mps = Mps::<f64>::zero_state(n, exact());
        let mut sv = StateVector::<f64>::zero_state(n);
        for step in 0..30 {
            let u1 = ptsbe_math::random::haar_unitary::<f64>(2, &mut rng);
            let q = step % n;
            mps.apply_1q(&u1, q);
            sv.apply_1q(&u1, q);
            let u2 = ptsbe_math::random::haar_unitary::<f64>(4, &mut rng);
            let a = (step * 3 + 1) % n;
            let mut b = (step * 5 + 2) % n;
            if a == b {
                b = (b + 1) % n;
            }
            mps.apply_2q(&u2, a, b);
            sv.apply_2q(&u2, a, b);
        }
        assert_matches_statevector(&mps, &sv, 1e-8);
        assert!(mps.truncation_error() < 1e-12);
    }

    #[test]
    fn move_center_preserves_state() {
        let mut mps = Mps::<f64>::zero_state(5, exact());
        mps.apply_1q(&gates::h(), 0);
        mps.apply_2q(&gates::cx(), 0, 1);
        mps.apply_2q(&gates::cx(), 1, 2);
        let before = mps.to_statevector();
        mps.move_center(4);
        mps.move_center(0);
        mps.move_center(2);
        let after = mps.to_statevector();
        for (a, b) in before.iter().zip(&after) {
            assert!((*a - *b).abs() < 1e-10);
        }
    }

    #[test]
    fn truncation_reduces_bond_and_records_error() {
        let mut rng = ptsbe_rng::PhiloxRng::new(111, 0);
        let n = 8;
        let mut mps = Mps::<f64>::zero_state(n, MpsConfig::exact().with_max_bond(2));
        for step in 0..20 {
            let u2 = ptsbe_math::random::haar_unitary::<f64>(4, &mut rng);
            mps.apply_2q(&u2, step % (n - 1), step % (n - 1) + 1);
        }
        assert!(mps.max_bond_reached() <= 2);
        assert!(
            mps.truncation_error() > 0.0,
            "random circuit must truncate at χ=2"
        );
    }

    #[test]
    fn ghz_needs_only_bond_2() {
        let n = 12;
        let mut mps = Mps::<f64>::zero_state(n, exact());
        mps.apply_1q(&gates::h(), 0);
        for q in 0..n - 1 {
            mps.apply_2q(&gates::cx(), q, q + 1);
        }
        assert_eq!(mps.max_bond_reached(), 2);
        assert!((mps.amplitude(0).norm_sqr() - 0.5).abs() < 1e-10);
        assert!((mps.amplitude((1 << n) - 1).norm_sqr() - 0.5).abs() < 1e-10);
        assert!(mps.truncation_error() < 1e-12);
    }

    #[test]
    fn local_density_of_bell_half() {
        let mut mps = Mps::<f64>::zero_state(2, exact());
        mps.apply_1q(&gates::h(), 0);
        mps.apply_2q(&gates::cx(), 0, 1);
        let rho = mps.local_density(&[0]);
        assert!((rho[(0, 0)].re - 0.5).abs() < 1e-10);
        assert!((rho[(1, 1)].re - 0.5).abs() < 1e-10);
        assert!(rho[(0, 1)].abs() < 1e-10);
    }

    #[test]
    fn kraus_probabilities_match_statevector_backend() {
        let ch = ptsbe_circuit::channels::amplitude_damping(0.3);
        let ops64: Vec<Matrix<f64>> = ch.ops().iter().map(|k| (**k).clone()).collect();
        let mut mps = Mps::<f64>::zero_state(3, exact());
        let mut sv = StateVector::<f64>::zero_state(3);
        mps.apply_1q(&gates::ry(0.8), 1);
        sv.apply_1q(&gates::ry(0.8), 1);
        mps.apply_2q(&gates::cx(), 1, 2);
        sv.apply_cx(1, 2);
        let p_mps = mps.kraus_probabilities(&ops64, &[1]);
        let p_sv = ptsbe_statevector::kraus::kraus_probabilities(&sv, &ops64, &[1]);
        for (a, b) in p_mps.iter().zip(&p_sv) {
            assert!((a - b).abs() < 1e-10, "{a} vs {b}");
        }
    }

    #[test]
    fn apply_kraus_normalized_probability() {
        let gamma: f64 = 0.4;
        let ch = ptsbe_circuit::channels::amplitude_damping(gamma);
        let k1 = (*ch.op(1)).clone();
        let mut mps = Mps::<f64>::zero_state(2, exact());
        mps.apply_1q(&gates::h(), 0);
        let p = mps.apply_kraus_normalized(&k1, &[0]);
        assert!((p - gamma / 2.0).abs() < 1e-10);
        assert!((mps.norm_sqr() - 1.0).abs() < 1e-10);
        assert!((mps.amplitude(0).norm_sqr() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn unitary_1q_fast_path_matches_gauge_moving_apply() {
        // Entangle first so every bond is non-trivial, then apply a gate
        // far from the center via both paths.
        let build = || {
            let mut m = Mps::<f64>::zero_state(4, exact());
            m.apply_1q(&gates::h(), 0);
            m.apply_2q(&gates::cx(), 0, 1);
            m.apply_2q(&gates::cx(), 1, 2);
            m.apply_2q(&gates::cx(), 2, 3);
            m.move_center(0);
            m
        };
        let mut fast = build();
        let mut slow = build();
        fast.apply_unitary_1q(&gates::sx(), 3);
        slow.apply_1q(&gates::sx(), 3);
        for bits in 0..16u128 {
            let d = (fast.amplitude(bits) - slow.amplitude(bits)).abs();
            assert!(d < 1e-10, "amp {bits} differs by {d}");
        }
        // The fast path must not have moved the center.
        assert_eq!(fast.center(), 0);
        // Canonical gauge preserved: a subsequent 2q+SVD pass stays
        // consistent with the statevector oracle.
        fast.apply_2q(&gates::cx(), 3, 0);
        slow.apply_2q(&gates::cx(), 3, 0);
        for bits in 0..16u128 {
            assert!((fast.amplitude(bits) - slow.amplitude(bits)).abs() < 1e-10);
        }
    }

    #[test]
    fn diag_1q_fast_path_matches_dense() {
        let mut fast = Mps::<f64>::zero_state(3, exact());
        let mut slow = fast.clone();
        for m in [&mut fast, &mut slow] {
            m.apply_1q(&gates::h(), 0);
            m.apply_2q(&gates::cx(), 0, 1);
            m.apply_2q(&gates::cx(), 1, 2);
        }
        let d0 = Complex::cis(0.4);
        let d1 = Complex::cis(-1.3);
        let mut dm = Matrix::<f64>::zeros(2, 2);
        dm[(0, 0)] = d0;
        dm[(1, 1)] = d1;
        fast.apply_diag_1q(d0, d1, 1);
        slow.apply_1q(&dm, 1);
        for bits in 0..8u128 {
            assert!((fast.amplitude(bits) - slow.amplitude(bits)).abs() < 1e-10);
        }
        assert!((fast.norm_sqr() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn copy_from_recycles_buffers_bitwise() {
        let entangle = |seed: u64| {
            let mut rng = ptsbe_rng::PhiloxRng::new(seed, 0);
            let mut m = Mps::<f64>::zero_state(4, exact());
            m.apply_1q(&gates::h(), 0);
            for q in 0..3 {
                let u = ptsbe_math::random::haar_unitary::<f64>(4, &mut rng);
                m.apply_2q(&u, q, q + 1);
            }
            m
        };
        let src = entangle(300);
        // Dirty destination with different entanglement structure.
        let mut dst = entangle(301);
        dst.copy_from(&src);
        let fresh = src.clone();
        for bits in 0..16u128 {
            let a = dst.amplitude(bits);
            let b = fresh.amplitude(bits);
            assert_eq!(a.re.to_bits(), b.re.to_bits(), "amp {bits}");
            assert_eq!(a.im.to_bits(), b.im.to_bits(), "amp {bits}");
        }
        assert_eq!(dst.center(), src.center());
        assert_eq!(dst.max_bond_reached(), src.max_bond_reached());
        // A recycled state must keep evolving identically to a clone.
        let mut dst2 = dst;
        let mut fresh2 = fresh;
        dst2.apply_2q(&gates::cx(), 1, 3);
        fresh2.apply_2q(&gates::cx(), 1, 3);
        for bits in 0..16u128 {
            assert!((dst2.amplitude(bits) - fresh2.amplitude(bits)).abs() < 1e-14);
        }
    }

    #[test]
    fn theta_scratch_reuse_is_invisible() {
        // Repeated two-site updates must give the same state whether the
        // scratch starts empty (fresh state) or warm (after prior gates).
        let mut warm = Mps::<f64>::zero_state(3, exact());
        warm.apply_1q(&gates::h(), 0);
        warm.apply_2q(&gates::cx(), 0, 1);
        let mut cold = warm.clone(); // clone starts with empty scratch
        warm.apply_2q(&gates::cx(), 1, 2);
        cold.apply_2q(&gates::cx(), 1, 2);
        for bits in 0..8u128 {
            let (a, b) = (warm.amplitude(bits), cold.amplitude(bits));
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
    }

    #[test]
    fn f32_mps_tracks_f64() {
        let mut a = Mps::<f64>::zero_state(4, exact());
        let mut b = Mps::<f32>::zero_state(4, exact());
        let h64 = gates::h::<f64>();
        let h32 = gates::h::<f32>();
        let cx64 = gates::cx::<f64>();
        let cx32 = gates::cx::<f32>();
        a.apply_1q(&h64, 0);
        b.apply_1q(&h32, 0);
        a.apply_2q(&cx64, 0, 2);
        b.apply_2q(&cx32, 0, 2);
        for bits in 0..16u128 {
            let x = a.amplitude(bits).norm_sqr();
            let y = b.amplitude(bits).norm_sqr();
            assert!((x - f64::from(y)).abs() < 1e-5);
        }
    }
}
