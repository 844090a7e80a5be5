//! Ground-state and thermally mixed charge configuration solvers.
//!
//! Given the electrostatic energy `U(N, V)` from the capacitance model, the
//! device's charge state at gate voltages `V` is the non-negative integer
//! occupation vector minimizing `U`. At finite electron temperature the
//! occupation is a Boltzmann mixture over nearby configurations, which is
//! what broadens transition lines in measured charge stability diagrams.
//!
//! # Evaluation kernel
//!
//! Every simulated pixel is evaluated here, by one allocation-free kernel
//! shared by [`ChargeStateSolver::thermal_occupation`],
//! [`ChargeStateSolver::ground_state`] and the device methods built on
//! them ([`crate::LinearArrayDevice::current`], `mean_occupation` and
//! `ground_state`). Per call it computes the induced charge `q = C_g·V`
//! once, then walks the configurations `{0..=max_electrons}^n` with an
//! odometer over a stack buffer (dot 0 fastest), recomputing each
//! configuration's energy instead of storing it.
//!
//! **Invariant:** the kernel performs the same `f64` operations, in the
//! same order, as the reference formulas, so every value it returns is
//! bit-identical to evaluating them directly:
//!
//! * `q_i = Σ_g C_g[i, g] · V_g`, accumulated from `0.0` in gate order;
//! * `U(N) = Σ_i Σ_j ((½ · d_i) · E_ij) · d_j` with `d = N − q`,
//!   accumulated from `0.0` row-major;
//! * configurations in odometer order; the ground state is the first
//!   configuration no later one undercuts;
//! * `u_min` folded from `+∞` with `f64::min`, in configuration order;
//! * weights `w = exp(−(U − u_min) / kT)`, with `Z` and `⟨N_i⟩`
//!   accumulated in configuration order and `⟨N_i⟩ / Z` last (`kT = 0`
//!   returns the ground state);
//! * a configuration whose exponent `x = −(U − u_min) / kT` is below
//!   −746 is skipped: there `exp(x)` is exactly `+0.0`, and adding `+0.0`
//!   to `Z` or `⟨N_i⟩` (never `−0.0`) leaves every bit alone. A NaN
//!   exponent fails the test and goes through `exp` as before. Most
//!   visits of a realized diagram are skipped this way;
//! * the sensor current `I₀ + ½·swing·tanh(φ / scale)` of
//!   [`crate::SensorModel::current`].
//!
//! Reordering any sum, fusing a multiply-add, storing a rescaled weight
//! or skipping exponents that `exp` maps to a subnormal would move the
//! last bit of realized diagrams and break the golden digests that pin
//! them.

use crate::{CapacitanceModel, PhysicsError};

/// Every Boltzmann exponent below this has `exp` exactly `+0.0`: `f64`
/// underflows to zero below about −745.13, and subnormal weights live
/// between there and −708.4, so the margin keeps them all.
const UNDERFLOW_EXPONENT: f64 = -746.0;

/// An integer charge configuration of the dot array, e.g. `(1, 0)` for one
/// electron in dot 1 and none in dot 2.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ChargeConfiguration {
    occupations: Vec<u32>,
}

impl ChargeConfiguration {
    /// Creates a configuration from per-dot occupations.
    pub fn new(occupations: Vec<u32>) -> Self {
        Self { occupations }
    }

    /// Per-dot electron counts.
    pub fn occupations(&self) -> &[u32] {
        &self.occupations
    }

    /// Total electron count.
    pub fn total(&self) -> u32 {
        self.occupations.iter().sum()
    }
}

impl std::fmt::Display for ChargeConfiguration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "(")?;
        for (i, n) in self.occupations.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{n}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<u32>> for ChargeConfiguration {
    fn from(occupations: Vec<u32>) -> Self {
        Self::new(occupations)
    }
}

/// Exhaustive solver over occupations `0..=max_electrons` per dot.
///
/// For the double-dot CSDs of the paper `max_electrons = 3` is ample: the
/// cropped diagrams only contain the first one or two transitions.
#[derive(Debug, Clone, PartialEq)]
pub struct ChargeStateSolver {
    max_electrons: u32,
}

impl ChargeStateSolver {
    /// Creates a solver that searches occupations up to `max_electrons`
    /// per dot.
    ///
    /// # Errors
    ///
    /// Returns [`PhysicsError::InvalidParameter`] if `max_electrons == 0`
    /// (the solver must at least distinguish empty from singly occupied).
    pub fn new(max_electrons: u32) -> Result<Self, PhysicsError> {
        if max_electrons == 0 {
            return Err(PhysicsError::InvalidParameter {
                name: "max_electrons",
                constraint: "must be at least 1",
            });
        }
        Ok(Self { max_electrons })
    }

    /// Upper bound on per-dot occupation searched by this solver.
    pub fn max_electrons(&self) -> u32 {
        self.max_electrons
    }

    /// The configuration minimizing `U(N, V)`.
    ///
    /// # Errors
    ///
    /// Propagates [`PhysicsError::GateCountMismatch`] from the model.
    pub fn ground_state(
        &self,
        model: &CapacitanceModel,
        voltages: &[f64],
    ) -> Result<ChargeConfiguration, PhysicsError> {
        let mut best = [0.0; CapacitanceModel::MAX_DOTS];
        let best = &mut best[..model.n_dots()];
        self.ground_state_into(model, voltages, best)?;
        Ok(ChargeConfiguration::new(
            best.iter().map(|&n| n as u32).collect(),
        ))
    }

    /// Thermal (Boltzmann) expectation of the occupation of every dot at
    /// electron temperature `kt` (same reduced energy units as `U`).
    ///
    /// `kt = 0` reduces to the ground state. The broadening this produces is
    /// what makes simulated transition lines a pixel or two wide instead of
    /// perfectly sharp — real devices look the same.
    ///
    /// # Errors
    ///
    /// * [`PhysicsError::InvalidParameter`] if `kt` is negative or not
    ///   finite.
    /// * Propagates [`PhysicsError::GateCountMismatch`] from the model.
    pub fn thermal_occupation(
        &self,
        model: &CapacitanceModel,
        voltages: &[f64],
        kt: f64,
    ) -> Result<Vec<f64>, PhysicsError> {
        if kt < 0.0 || !kt.is_finite() {
            return Err(PhysicsError::InvalidParameter {
                name: "kt",
                constraint: "must be non-negative and finite",
            });
        }
        let mut mean = vec![0.0; model.n_dots()];
        self.thermal_occupation_into(model, voltages, kt, &mut mean)?;
        Ok(mean)
    }

    /// [`Self::ground_state`] into `best` (one entry per dot), allocating
    /// nothing.
    fn ground_state_into(
        &self,
        model: &CapacitanceModel,
        voltages: &[f64],
        best: &mut [f64],
    ) -> Result<(), PhysicsError> {
        let mut q = [0.0; CapacitanceModel::MAX_DOTS];
        let q = &mut q[..model.n_dots()];
        model.induced_charge_into(voltages, q)?;
        let mut best_u = None;
        self.for_each_config(model.n_dots(), |occ| {
            let u = model.energy_at(q, occ);
            if !matches!(best_u, Some(bu) if bu <= u) {
                best_u = Some(u);
                best.copy_from_slice(occ);
            }
        });
        Ok(())
    }

    /// [`Self::thermal_occupation`] into `mean` (one entry per dot) for an
    /// already validated `kt`, allocating nothing: the per-pixel kernel.
    pub(crate) fn thermal_occupation_into(
        &self,
        model: &CapacitanceModel,
        voltages: &[f64],
        kt: f64,
        mean: &mut [f64],
    ) -> Result<(), PhysicsError> {
        if kt == 0.0 {
            return self.ground_state_into(model, voltages, mean);
        }
        let n_dots = model.n_dots();
        let mut q = [0.0; CapacitanceModel::MAX_DOTS];
        let q = &mut q[..n_dots];
        model.induced_charge_into(voltages, q)?;

        // Subtract the minimum energy before exponentiating for numerical
        // stability. Energies are recomputed in the second walk rather
        // than stored, so the scratch stays on the stack.
        let mut u_min = f64::INFINITY;
        self.for_each_config(n_dots, |occ| {
            u_min = u_min.min(model.energy_at(q, occ));
        });
        let mut z = 0.0;
        mean.fill(0.0);
        self.for_each_config(n_dots, |occ| {
            let x = -(model.energy_at(q, occ) - u_min) / kt;
            if x < UNDERFLOW_EXPONENT {
                return; // `exp(x)` is +0, and adding +0 changes nothing
            }
            let w = x.exp();
            z += w;
            for (m, &n) in mean.iter_mut().zip(occ) {
                *m += w * n;
            }
        });
        for m in mean.iter_mut() {
            *m /= z;
        }
        Ok(())
    }

    /// Visits every occupation vector in `{0..=max_electrons}^n_dots`, as
    /// `f64` counts, in odometer order (dot 0 fastest).
    fn for_each_config(&self, n_dots: usize, mut f: impl FnMut(&[f64])) {
        let max = f64::from(self.max_electrons);
        let mut occ = [0.0; CapacitanceModel::MAX_DOTS];
        let occ = &mut occ[..n_dots];
        'walk: loop {
            f(occ);
            // Slots at `max` wrap to zero until one can tick up; when
            // every slot wraps, the walk is complete.
            for slot in occ.iter_mut() {
                if *slot < max {
                    *slot += 1.0;
                    continue 'walk;
                }
                *slot = 0.0;
            }
            return;
        }
    }
}

impl Default for ChargeStateSolver {
    fn default() -> Self {
        Self { max_electrons: 3 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn model() -> CapacitanceModel {
        CapacitanceModel::new(
            &[1.0, 1.0],
            &[(0, 1, 0.2)],
            &[vec![0.010, 0.002], vec![0.0025, 0.011]],
        )
        .unwrap()
    }

    #[test]
    fn configuration_display_and_total() {
        let c = ChargeConfiguration::new(vec![1, 0, 2]);
        assert_eq!(c.to_string(), "(1, 0, 2)");
        assert_eq!(c.total(), 3);
        let from: ChargeConfiguration = vec![2, 2].into();
        assert_eq!(from.occupations(), &[2, 2]);
    }

    #[test]
    fn solver_rejects_zero_max() {
        assert!(ChargeStateSolver::new(0).is_err());
    }

    #[test]
    fn ground_state_origin_is_empty() {
        let s = ChargeStateSolver::default();
        let gs = s.ground_state(&model(), &[0.0, 0.0]).unwrap();
        assert_eq!(gs.occupations(), &[0, 0]);
    }

    #[test]
    fn ground_state_loads_dot1_with_gate1() {
        let s = ChargeStateSolver::default();
        // q1 crosses 0.5 electrons around V1 = 50 for lever arm 0.010.
        let gs = s.ground_state(&model(), &[70.0, 0.0]).unwrap();
        assert_eq!(gs.occupations(), &[1, 0]);
    }

    #[test]
    fn ground_state_loads_both_at_high_both() {
        let s = ChargeStateSolver::default();
        let gs = s.ground_state(&model(), &[75.0, 65.0]).unwrap();
        assert_eq!(gs.occupations(), &[1, 1]);
    }

    #[test]
    fn ground_state_monotone_in_gate_voltage() {
        let s = ChargeStateSolver::default();
        let m = model();
        let mut prev_total = 0;
        for step in 0..12 {
            let v = step as f64 * 25.0;
            let total = s.ground_state(&m, &[v, v]).unwrap().total();
            assert!(
                total >= prev_total,
                "total occupation decreased from {prev_total} to {total} at V = {v}"
            );
            prev_total = total;
        }
        assert!(prev_total >= 2);
    }

    #[test]
    fn thermal_occupation_zero_kt_equals_ground_state() {
        let s = ChargeStateSolver::default();
        let m = model();
        let v = [70.0, 0.0];
        let th = s.thermal_occupation(&m, &v, 0.0).unwrap();
        let gs = s.ground_state(&m, &v).unwrap();
        for (t, &g) in th.iter().zip(gs.occupations()) {
            assert_eq!(*t, g as f64);
        }
    }

    #[test]
    fn thermal_occupation_smooth_across_transition() {
        let s = ChargeStateSolver::default();
        let m = model();
        // Straddle the first dot-1 transition; with kt > 0 the occupation
        // passes through fractional values.
        let kt = 0.02;
        let mut prev = 0.0;
        let mut saw_fraction = false;
        for step in 0..200 {
            let v1 = step as f64 * 0.5;
            let occ = s.thermal_occupation(&m, &[v1, 0.0], kt).unwrap()[0];
            assert!(occ >= prev - 1e-9, "occupation must be monotone");
            if occ > 0.2 && occ < 0.8 {
                saw_fraction = true;
            }
            prev = occ;
        }
        assert!(saw_fraction, "finite kt must broaden the transition");
    }

    #[test]
    fn thermal_rejects_negative_kt() {
        let s = ChargeStateSolver::default();
        assert!(s.thermal_occupation(&model(), &[0.0, 0.0], -1.0).is_err());
        assert!(s
            .thermal_occupation(&model(), &[0.0, 0.0], f64::NAN)
            .is_err());
    }

    #[test]
    fn higher_kt_broadens_more() {
        let s = ChargeStateSolver::default();
        let m = model();
        // Measure the transition width as the voltage span where occupation
        // is between 0.1 and 0.9.
        let width = |kt: f64| -> f64 {
            let mut lo = None;
            let mut hi = None;
            for step in 0..400 {
                let v1 = step as f64 * 0.25;
                let occ = s.thermal_occupation(&m, &[v1, 0.0], kt).unwrap()[0];
                if occ > 0.1 && lo.is_none() {
                    lo = Some(v1);
                }
                if occ > 0.9 && hi.is_none() {
                    hi = Some(v1);
                }
            }
            hi.unwrap_or(100.0) - lo.unwrap_or(0.0)
        };
        assert!(width(0.04) > width(0.01));
    }

    /// The thermal weight loop without the underflow skip: every
    /// configuration goes through `exp`.
    fn unskipped_occupation(
        s: &ChargeStateSolver,
        m: &CapacitanceModel,
        v: &[f64],
        kt: f64,
    ) -> Vec<f64> {
        let q = m.induced_charge(v).unwrap();
        let mut u_min = f64::INFINITY;
        s.for_each_config(m.n_dots(), |occ| u_min = u_min.min(m.energy_at(&q, occ)));
        let mut z = 0.0;
        let mut mean = vec![0.0; m.n_dots()];
        s.for_each_config(m.n_dots(), |occ| {
            let w = (-(m.energy_at(&q, occ) - u_min) / kt).exp();
            z += w;
            for (mi, &n) in mean.iter_mut().zip(occ) {
                *mi += w * n;
            }
        });
        for mi in &mut mean {
            *mi /= z;
        }
        mean
    }

    proptest! {
        /// Skipping underflowing weights leaves every bit of the thermal
        /// occupation alone: at a random `kt` in `[1e-4, 1]`, and at the
        /// `kt` that puts the lowest excited configuration's exponent at
        /// `-edge`, on either side of −746 and past the subnormal range.
        #[test]
        fn underflow_skip_keeps_every_bit(
            arms in (0.002..0.02, 0.0..0.005, 0.0..0.005, 0.002..0.02),
            total_1 in 0.5..2.0,
            total_2 in 0.5..2.0,
            mutual in 0.0..0.4,
            v1 in -20.0..200.0,
            v2 in -20.0..200.0,
            log_kt in -4.0..0.0,
            edge in 690.0..770.0,
            max_electrons in 1u32..4,
        ) {
            let m = CapacitanceModel::new(
                &[total_1, total_2],
                &[(0, 1, mutual)],
                &[vec![arms.0, arms.1], vec![arms.2, arms.3]],
            );
            prop_assume!(m.is_ok());
            let m = m.unwrap();
            let s = ChargeStateSolver::new(max_electrons).unwrap();
            let v = [v1, v2];
            let q = m.induced_charge(&v).unwrap();
            let mut energies = Vec::new();
            s.for_each_config(2, |occ| energies.push(m.energy_at(&q, occ)));
            let u_min = energies.iter().copied().fold(f64::INFINITY, f64::min);
            let gap = energies
                .iter()
                .map(|u| u - u_min)
                .filter(|&g| g > 0.0)
                .fold(f64::INFINITY, f64::min);
            for kt in [10f64.powf(log_kt), gap / edge] {
                let got = s.thermal_occupation(&m, &v, kt).unwrap();
                let want = unskipped_occupation(&s, &m, &v, kt);
                prop_assert_eq!(
                    got.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    want.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    "kt {} at V {:?}", kt, v
                );
            }
        }
    }
}
