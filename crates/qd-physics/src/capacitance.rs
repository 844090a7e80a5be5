//! The capacitance network description of a quantum dot array.
//!
//! All quantities are in reduced units: the elementary charge is 1, total
//! dot capacitances are of order 1, and gate lever arms are expressed in
//! electrons per volt so that `C_g · V` is directly an induced charge.

use crate::PhysicsError;

/// Capacitance model of an `n`-dot, `g`-gate device.
///
/// Stores the dot–dot capacitance matrix `C` (row-major `n × n`), its
/// inverse `E = C⁻¹` (the interaction kernel), and the gate lever-arm
/// matrix `C_g` (row-major `n × g`).
#[derive(Debug, Clone, PartialEq)]
pub struct CapacitanceModel {
    n_dots: usize,
    n_gates: usize,
    /// Dot–dot capacitance matrix, row-major `n × n`.
    c: Vec<f64>,
    /// Inverse of `c`, row-major `n × n`.
    e: Vec<f64>,
    /// Gate lever arms, row-major `n × g`, electrons per volt.
    cg: Vec<f64>,
}

impl CapacitanceModel {
    /// Largest supported dot count. Charge-state evaluation enumerates
    /// at least `2^n` configurations per gate-voltage point and keeps its
    /// per-dot scratch on the stack, sized by this bound.
    pub const MAX_DOTS: usize = 16;

    /// Builds the model from total dot capacitances, symmetric mutual
    /// capacitances and the gate lever-arm matrix.
    ///
    /// * `totals[i]` — total capacitance of dot `i` (must be positive).
    /// * `mutuals[(i, j)]` — mutual capacitance between dots `i < j`
    ///   (non-negative; entries not listed default to 0).
    /// * `lever_arms[i][j]` — coupling of gate `j` to dot `i`.
    ///
    /// # Errors
    ///
    /// * [`PhysicsError::BadDimensions`] for empty dots/gates or ragged
    ///   lever-arm rows.
    /// * [`PhysicsError::TooManyDots`] for more than [`Self::MAX_DOTS`]
    ///   dots.
    /// * [`PhysicsError::InvalidParameter`] for non-positive totals or
    ///   negative mutuals.
    /// * [`PhysicsError::SingularCapacitance`] if `C` is not invertible.
    pub fn new(
        totals: &[f64],
        mutuals: &[(usize, usize, f64)],
        lever_arms: &[Vec<f64>],
    ) -> Result<Self, PhysicsError> {
        let n = totals.len();
        if n == 0 {
            return Err(PhysicsError::BadDimensions { what: "dots" });
        }
        if n > Self::MAX_DOTS {
            return Err(PhysicsError::TooManyDots {
                dots: n,
                max: Self::MAX_DOTS,
            });
        }
        if lever_arms.len() != n {
            return Err(PhysicsError::BadDimensions {
                what: "lever-arm rows",
            });
        }
        let g = lever_arms[0].len();
        if g == 0 {
            return Err(PhysicsError::BadDimensions { what: "gates" });
        }
        if lever_arms.iter().any(|row| row.len() != g) {
            return Err(PhysicsError::BadDimensions {
                what: "lever-arm columns",
            });
        }
        if totals.iter().any(|&t| t <= 0.0 || !t.is_finite()) {
            return Err(PhysicsError::InvalidParameter {
                name: "totals",
                constraint: "every total capacitance must be positive and finite",
            });
        }

        let mut c = vec![0.0; n * n];
        for (i, &t) in totals.iter().enumerate() {
            c[i * n + i] = t;
        }
        for &(i, j, m) in mutuals {
            if i >= n || j >= n || i == j {
                return Err(PhysicsError::InvalidParameter {
                    name: "mutuals",
                    constraint: "indices must reference two distinct dots",
                });
            }
            if m < 0.0 || !m.is_finite() {
                return Err(PhysicsError::InvalidParameter {
                    name: "mutuals",
                    constraint: "mutual capacitance must be non-negative and finite",
                });
            }
            c[i * n + j] = -m;
            c[j * n + i] = -m;
        }

        let e = invert(&c, n).ok_or(PhysicsError::SingularCapacitance)?;
        let mut cg = Vec::with_capacity(n * g);
        for row in lever_arms {
            cg.extend_from_slice(row);
        }
        Ok(Self {
            n_dots: n,
            n_gates: g,
            c,
            e,
            cg,
        })
    }

    /// Number of dots.
    pub fn n_dots(&self) -> usize {
        self.n_dots
    }

    /// Number of plunger gates.
    pub fn n_gates(&self) -> usize {
        self.n_gates
    }

    /// Dot–dot capacitance matrix entry `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds.
    pub fn capacitance(&self, i: usize, j: usize) -> f64 {
        assert!(
            i < self.n_dots && j < self.n_dots,
            "dot index out of bounds"
        );
        self.c[i * self.n_dots + j]
    }

    /// Interaction kernel entry `E_{ij} = (C⁻¹)_{ij}`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds.
    pub fn interaction(&self, i: usize, j: usize) -> f64 {
        assert!(
            i < self.n_dots && j < self.n_dots,
            "dot index out of bounds"
        );
        self.e[i * self.n_dots + j]
    }

    /// Lever arm of gate `j` on dot `i` (electrons per volt).
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds.
    pub fn lever_arm(&self, i: usize, j: usize) -> f64 {
        assert!(
            i < self.n_dots && j < self.n_gates,
            "dot or gate index out of bounds"
        );
        self.cg[i * self.n_gates + j]
    }

    /// Induced charge vector `q = C_g · V` (electrons), one entry per dot.
    ///
    /// # Errors
    ///
    /// Returns [`PhysicsError::GateCountMismatch`] if `voltages.len()`
    /// differs from [`Self::n_gates`].
    pub fn induced_charge(&self, voltages: &[f64]) -> Result<Vec<f64>, PhysicsError> {
        let mut q = vec![0.0; self.n_dots];
        self.induced_charge_into(voltages, &mut q)?;
        Ok(q)
    }

    /// [`Self::induced_charge`] into `q` (length [`Self::n_dots`]): each
    /// `q_i` is accumulated from `0.0` over the gates in order.
    pub(crate) fn induced_charge_into(
        &self,
        voltages: &[f64],
        q: &mut [f64],
    ) -> Result<(), PhysicsError> {
        if voltages.len() != self.n_gates {
            return Err(PhysicsError::GateCountMismatch {
                expected: self.n_gates,
                got: voltages.len(),
            });
        }
        for (qi, row) in q.iter_mut().zip(self.cg.chunks_exact(self.n_gates)) {
            *qi = 0.0;
            for (&c, &v) in row.iter().zip(voltages) {
                *qi += c * v;
            }
        }
        Ok(())
    }

    /// Electrostatic energy `U(N, V) = ½ (N − q)ᵀ E (N − q)` of an integer
    /// occupation `occupations` at the given `voltages`.
    ///
    /// # Errors
    ///
    /// * [`PhysicsError::GateCountMismatch`] for a wrong-length voltage
    ///   vector.
    /// * [`PhysicsError::BadDimensions`] if `occupations.len()` differs
    ///   from [`Self::n_dots`].
    pub fn energy(&self, occupations: &[u32], voltages: &[f64]) -> Result<f64, PhysicsError> {
        if occupations.len() != self.n_dots {
            return Err(PhysicsError::BadDimensions {
                what: "occupations",
            });
        }
        let n = self.n_dots;
        let mut q = [0.0; Self::MAX_DOTS];
        self.induced_charge_into(voltages, &mut q[..n])?;
        let mut occupation = [0.0; Self::MAX_DOTS];
        for (o, &k) in occupation.iter_mut().zip(occupations) {
            *o = f64::from(k);
        }
        Ok(self.energy_at(&q[..n], &occupation[..n]))
    }

    /// `U = Σ_i Σ_j ½·d_i·E_ij·d_j` with `d = N − q`, for an occupation
    /// already in `f64` and a precomputed induced charge `q`. Each term is
    /// `((0.5 · d_i) · E_ij) · d_j`, accumulated from `0.0` row-major.
    /// Inline so the charge-state kernel's walks, which call it twice per
    /// configuration, can fuse it across codegen units.
    #[inline]
    pub(crate) fn energy_at(&self, q: &[f64], occupation: &[f64]) -> f64 {
        let mut u = 0.0;
        for ((&oi, &qi), row) in occupation
            .iter()
            .zip(q)
            .zip(self.e.chunks_exact(self.n_dots))
        {
            let half_di = 0.5 * (oi - qi);
            for ((&oj, &qj), &e) in occupation.iter().zip(q).zip(row) {
                u += half_di * e * (oj - qj);
            }
        }
        u
    }

    /// Analytic slope `dV_b / dV_a` of the charge-transition line on which
    /// dot `dot` gains its `(n → n+1)`-th electron, in the plane of gates
    /// `(gate_a, gate_b)` with all other gates held fixed.
    ///
    /// Derived from `d/dV [ U(N + e_dot) − U(N) ] = 0`:
    /// the boundary satisfies `Σ_j E_{dot,j} q_j = const`, so
    ///
    /// ```text
    /// slope = − (Σ_j E_{dot,j} C_g[j, gate_a]) / (Σ_j E_{dot,j} C_g[j, gate_b])
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`PhysicsError::InvalidParameter`] for out-of-range indices
    /// or if the denominator vanishes (line parallel to the `b` axis).
    pub fn transition_slope(
        &self,
        dot: usize,
        gate_a: usize,
        gate_b: usize,
    ) -> Result<f64, PhysicsError> {
        if dot >= self.n_dots || gate_a >= self.n_gates || gate_b >= self.n_gates {
            return Err(PhysicsError::InvalidParameter {
                name: "dot/gate",
                constraint: "indices must be in range",
            });
        }
        let coeff = |gate: usize| -> f64 {
            (0..self.n_dots)
                .map(|j| self.e[dot * self.n_dots + j] * self.cg[j * self.n_gates + gate])
                .sum()
        };
        let num = coeff(gate_a);
        let den = coeff(gate_b);
        if den.abs() < 1e-15 {
            return Err(PhysicsError::InvalidParameter {
                name: "gate_b",
                constraint: "transition line is parallel to the gate_b axis",
            });
        }
        Ok(-num / den)
    }
}

/// Inverts a small dense `n × n` matrix with Gauss–Jordan elimination.
/// Returns `None` if singular.
fn invert(m: &[f64], n: usize) -> Option<Vec<f64>> {
    let mut a = m.to_vec();
    let mut inv = vec![0.0; n * n];
    for i in 0..n {
        inv[i * n + i] = 1.0;
    }
    for col in 0..n {
        let mut pivot = col;
        for r in (col + 1)..n {
            if a[r * n + col].abs() > a[pivot * n + col].abs() {
                pivot = r;
            }
        }
        if a[pivot * n + col].abs() < 1e-12 {
            return None;
        }
        if pivot != col {
            for c in 0..n {
                a.swap(col * n + c, pivot * n + c);
                inv.swap(col * n + c, pivot * n + c);
            }
        }
        let diag = a[col * n + col];
        for c in 0..n {
            a[col * n + c] /= diag;
            inv[col * n + c] /= diag;
        }
        for r in 0..n {
            if r == col {
                continue;
            }
            let f = a[r * n + col];
            if f == 0.0 {
                continue;
            }
            for c in 0..n {
                a[r * n + c] -= f * a[col * n + c];
                inv[r * n + c] -= f * inv[col * n + c];
            }
        }
    }
    Some(inv)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_double() -> CapacitanceModel {
        CapacitanceModel::new(
            &[1.0, 1.0],
            &[(0, 1, 0.2)],
            &[vec![0.010, 0.002], vec![0.0025, 0.011]],
        )
        .unwrap()
    }

    #[test]
    fn dimensions_and_accessors() {
        let m = simple_double();
        assert_eq!(m.n_dots(), 2);
        assert_eq!(m.n_gates(), 2);
        assert_eq!(m.capacitance(0, 0), 1.0);
        assert_eq!(m.capacitance(0, 1), -0.2);
        assert!((m.lever_arm(1, 0) - 0.0025).abs() < 1e-15);
    }

    #[test]
    fn inverse_is_actual_inverse() {
        let m = simple_double();
        // C * E should be identity.
        for i in 0..2 {
            for j in 0..2 {
                let mut acc = 0.0;
                for k in 0..2 {
                    acc += m.capacitance(i, k) * m.interaction(k, j);
                }
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((acc - expect).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn rejects_singular_capacitance() {
        // Mutual equal to totals → singular.
        let r = CapacitanceModel::new(
            &[1.0, 1.0],
            &[(0, 1, 1.0)],
            &[vec![0.01, 0.0], vec![0.0, 0.01]],
        );
        assert_eq!(r, Err(PhysicsError::SingularCapacitance));
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(CapacitanceModel::new(&[], &[], &[]).is_err());
        assert!(CapacitanceModel::new(&[1.0], &[], &[vec![]]).is_err());
        assert!(CapacitanceModel::new(&[1.0, 1.0], &[], &[vec![0.01], vec![0.01, 0.02]]).is_err());
        assert!(CapacitanceModel::new(&[-1.0], &[], &[vec![0.01]]).is_err());
        assert!(
            CapacitanceModel::new(&[1.0, 1.0], &[(0, 0, 0.1)], &[vec![0.01], vec![0.01]]).is_err()
        );
        assert!(
            CapacitanceModel::new(&[1.0, 1.0], &[(0, 1, -0.1)], &[vec![0.01], vec![0.01]]).is_err()
        );
    }

    #[test]
    fn induced_charge_is_linear_in_voltage() {
        let m = simple_double();
        let q1 = m.induced_charge(&[10.0, 0.0]).unwrap();
        let q2 = m.induced_charge(&[20.0, 0.0]).unwrap();
        assert!((q2[0] - 2.0 * q1[0]).abs() < 1e-12);
        assert!((q2[1] - 2.0 * q1[1]).abs() < 1e-12);
    }

    #[test]
    fn induced_charge_rejects_wrong_gate_count() {
        let m = simple_double();
        assert!(matches!(
            m.induced_charge(&[1.0]),
            Err(PhysicsError::GateCountMismatch {
                expected: 2,
                got: 1
            })
        ));
    }

    #[test]
    fn energy_zero_when_charge_matches_induced() {
        let m = simple_double();
        // At V = 0 and N = 0 the energy is exactly zero.
        assert_eq!(m.energy(&[0, 0], &[0.0, 0.0]).unwrap(), 0.0);
        // Any occupied state at V = 0 costs energy.
        assert!(m.energy(&[1, 0], &[0.0, 0.0]).unwrap() > 0.0);
    }

    #[test]
    fn energy_is_convex_in_occupation_direction() {
        let m = simple_double();
        let v = [50.0, 50.0];
        let u0 = m.energy(&[0, 0], &v).unwrap();
        let u1 = m.energy(&[1, 0], &v).unwrap();
        let u2 = m.energy(&[2, 0], &v).unwrap();
        // Second difference positive: charging costs grow.
        assert!(u2 - u1 > u1 - u0);
    }

    #[test]
    fn transition_slopes_have_expected_signs_and_ordering() {
        let m = simple_double();
        // Near-vertical line: dot 0 loads as gate 0 sweeps (x-axis).
        let m_v = m.transition_slope(0, 0, 1).unwrap();
        // Near-horizontal line: dot 1 loads as gate 1 sweeps (y-axis).
        let m_h = m.transition_slope(1, 0, 1).unwrap();
        assert!(m_v < -1.0, "near-vertical slope {m_v} should be steep");
        assert!(
            m_h > -1.0 && m_h < 0.0,
            "near-horizontal slope {m_h} should be shallow"
        );
    }

    #[test]
    fn transition_slope_matches_numeric_energy_crossing() {
        let m = simple_double();
        // Find the V1 where U(0,0) = U(1,0) at two different V2 values and
        // compare the implied slope with the analytic one.
        let crossing = |v2: f64| -> f64 {
            let mut lo = 0.0;
            let mut hi = 200.0;
            for _ in 0..60 {
                let mid = 0.5 * (lo + hi);
                let d =
                    m.energy(&[1, 0], &[mid, v2]).unwrap() - m.energy(&[0, 0], &[mid, v2]).unwrap();
                if d > 0.0 {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            0.5 * (lo + hi)
        };
        let v1_a = crossing(0.0);
        let v1_b = crossing(10.0);
        // dV2/dV1 along the line:
        let numeric = 10.0 / (v1_b - v1_a);
        let analytic = m.transition_slope(0, 0, 1).unwrap();
        assert!(
            (numeric - analytic).abs() < 0.05 * analytic.abs(),
            "numeric {numeric} vs analytic {analytic}"
        );
    }

    #[test]
    fn three_dot_chain_inverts() {
        let m = CapacitanceModel::new(
            &[1.0, 1.1, 0.9],
            &[(0, 1, 0.15), (1, 2, 0.12)],
            &[
                vec![0.01, 0.002, 0.0005],
                vec![0.002, 0.011, 0.002],
                vec![0.0004, 0.0025, 0.0095],
            ],
        )
        .unwrap();
        assert_eq!(m.n_dots(), 3);
        // E must be symmetric for a symmetric C.
        for i in 0..3 {
            for j in 0..3 {
                assert!((m.interaction(i, j) - m.interaction(j, i)).abs() < 1e-12);
            }
        }
    }
}
