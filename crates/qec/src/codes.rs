//! The code zoo.
//!
//! The triangular 6.6.6 color-code generator reproduces the standard
//! family (`[[7,1,3]]` = Steane-equivalent, `[[19,1,5]]`, `[[37,1,7]]`, …) from
//! honeycomb geometry; construction and distance are verified by
//! `StabilizerCode` validation plus exhaustive distance search in tests.
//! The paper's distance-5 block is the 4.8.8 `[[17,1,5]]` code; this
//! workspace substitutes the verified 6.6.6 `[[19,1,5]]` (same distance, two
//! more qubits per block), which the generator produces without a
//! hand-entered stabilizer table.

use crate::code::StabilizerCode;
use ptsbe_stabilizer::{Pauli, PauliString};

/// The perfect `[[5,1,3]]` code (cyclic generators XZZXI).
pub fn five_one_three() -> StabilizerCode {
    let gens = ["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"]
        .iter()
        .map(|s| PauliString::from_str(s))
        .collect();
    StabilizerCode::new(
        "[[5,1,3]]",
        3,
        gens,
        PauliString::from_str("XXXXX"),
        PauliString::from_str("ZZZZZ"),
    )
}

/// The Steane `[[7,1,3]]` code (CSS from the `[7,4]` Hamming code).
pub fn steane() -> StabilizerCode {
    let supports = [[3usize, 4, 5, 6], [1, 2, 5, 6], [0, 2, 4, 6]];
    let mut gens = Vec::with_capacity(6);
    for pauli in [Pauli::X, Pauli::Z] {
        for sup in &supports {
            let mut p = PauliString::identity(7);
            for &q in sup {
                p.set(q, pauli);
            }
            gens.push(p);
        }
    }
    StabilizerCode::new(
        "Steane [[7,1,3]]",
        3,
        gens,
        PauliString::from_str("XXXXXXX"),
        PauliString::from_str("ZZZZZZZ"),
    )
}

/// Triangular 6.6.6 color code of odd distance `d` — `[[7,1,3]]` at d = 3,
/// `[[19,1,5]]` at d = 5, `[[37,1,7]]` at d = 7.
///
/// Construction: honeycomb faces from the triangular lattice `x, y ≥ 0`,
/// `x + y ≤ 3(d−1)/2`, with face centers on the sublattice
/// `(x + 2y) ≡ 1 (mod 3)`; qubits are the remaining lattice points, faces
/// collect a center's in-triangle neighbors. Each face yields one X and
/// one Z generator (self-dual CSS).
///
/// # Panics
/// Panics for even or zero `d`.
pub fn color_code(d: usize) -> StabilizerCode {
    assert!(d >= 3 && d % 2 == 1, "color_code: odd d >= 3 required");
    let s = 3 * (d - 1) / 2;
    let is_center = |x: i64, y: i64| (x + 2 * y).rem_euclid(3) == 1;
    let in_triangle = |x: i64, y: i64| x >= 0 && y >= 0 && x + y <= s as i64;
    // Qubits: non-center lattice points, in (x, y) lexicographic order.
    let mut verts: Vec<(i64, i64)> = Vec::new();
    for x in 0..=(s as i64) {
        for y in 0..=(s as i64) {
            if in_triangle(x, y) && !is_center(x, y) {
                verts.push((x, y));
            }
        }
    }
    let vidx = |p: (i64, i64)| verts.iter().position(|&v| v == p);
    let nbrs = [(1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1)];
    let mut faces: Vec<Vec<usize>> = Vec::new();
    for cx in -1..=(s as i64 + 1) {
        for cy in -1..=(s as i64 + 1) {
            if !is_center(cx, cy) {
                continue;
            }
            let mut f: Vec<usize> = nbrs
                .iter()
                .filter_map(|&(dx, dy)| vidx((cx + dx, cy + dy)))
                .collect();
            f.sort_unstable();
            if f.len() >= 3 {
                faces.push(f);
            }
        }
    }
    let n = verts.len();
    let mut gens = Vec::with_capacity(2 * faces.len());
    for pauli in [Pauli::X, Pauli::Z] {
        for f in &faces {
            let mut p = PauliString::identity(n);
            for &q in f {
                p.set(q, pauli);
            }
            gens.push(p);
        }
    }
    // Logical operators: the x = 0 triangle side (d qubits). Its X/Z
    // strings overlap every face evenly (verified by construction-time
    // validation) and anticommute with each other (odd weight d).
    let side: Vec<usize> = (0..n).filter(|&i| verts[i].0 == 0).collect();
    assert_eq!(side.len(), d, "color_code: side should hold d qubits");
    let mut lx = PauliString::identity(n);
    let mut lz = PauliString::identity(n);
    for &q in &side {
        lx.set(q, Pauli::X);
        lz.set(q, Pauli::Z);
    }
    StabilizerCode::new(format!("color 6.6.6 [[{n},1,{d}]]"), d, gens, lx, lz)
}

/// The n-qubit bit-flip repetition code (`[[n,1,1]]` against phase flips;
/// distance n against bit flips). Used as the minimal pedagogical code in
/// examples.
pub fn repetition(n: usize) -> StabilizerCode {
    assert!(n >= 2);
    let mut gens = Vec::with_capacity(n - 1);
    for i in 0..n - 1 {
        let mut p = PauliString::identity(n);
        p.set(i, Pauli::Z);
        p.set(i + 1, Pauli::Z);
        gens.push(p);
    }
    let mut lx = PauliString::identity(n);
    for q in 0..n {
        lx.set(q, Pauli::X);
    }
    let mut lz = PauliString::identity(n);
    lz.set(0, Pauli::Z);
    StabilizerCode::new(format!("repetition [[{n},1,1]]"), 1, gens, lx, lz)
}

/// Shor's `[[9,1,3]]` code.
pub fn shor9() -> StabilizerCode {
    let mut gens = Vec::new();
    // Z-type pairs inside each block of three.
    for b in 0..3 {
        for i in 0..2 {
            let mut p = PauliString::identity(9);
            p.set(3 * b + i, Pauli::Z);
            p.set(3 * b + i + 1, Pauli::Z);
            gens.push(p);
        }
    }
    // X-type block pairs.
    for b in 0..2 {
        let mut p = PauliString::identity(9);
        for q in 0..6 {
            p.set(3 * b + q, Pauli::X);
        }
        gens.push(p);
    }
    let mut lx = PauliString::identity(9);
    let mut lz = PauliString::identity(9);
    for q in 0..9 {
        // Shor: Z̄ = Z^⊗9 ... X̄ = X^⊗9; cheaper reps exist but these are
        // manifestly valid.
        lx.set(q, Pauli::X);
        lz.set(q, Pauli::Z);
    }
    StabilizerCode::new("Shor [[9,1,3]]", 3, gens, lx, lz)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn color_code_face_census() {
        let c3 = color_code(3);
        assert_eq!(c3.x_check_supports().len(), 3);
        let c5 = color_code(5);
        let faces = c5.x_check_supports();
        assert_eq!(faces.len(), 9);
        let mut sizes: Vec<usize> = faces.iter().map(|f| f.len()).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![4, 4, 4, 4, 4, 4, 6, 6, 6]);
    }

    #[test]
    fn color_code_logical_weight_is_d() {
        for d in [3usize, 5] {
            let c = color_code(d);
            assert_eq!(c.logical_x().weight(), d);
            assert_eq!(c.logical_z().weight(), d);
        }
    }

    #[test]
    fn color_code_d7_parameters() {
        let c = color_code(7);
        assert_eq!(c.n(), 37);
        // Distance verification for d=7 is too slow for CI; parameter and
        // commutation checks ran in the constructor.
    }

    #[test]
    fn repetition_corrects_bit_flips() {
        let c = repetition(3);
        assert_eq!(c.stabilizers().len(), 2);
        assert_eq!(c.logical_z().weight(), 1);
    }

    #[test]
    #[should_panic(expected = "odd d")]
    fn even_distance_rejected() {
        let _ = color_code(4);
    }
}
