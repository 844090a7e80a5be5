//! Complete simulated devices: capacitance network + thermal charge-state
//! solver + charge sensor, with a builder for convenient construction.

use crate::charge_state::{ChargeConfiguration, ChargeStateSolver};
use crate::sensor::SensorModel;
use crate::{CapacitanceModel, PhysicsError};

/// Analytic ground truth for one adjacent plunger-gate pair: the two
/// transition-line slopes and the virtualization coefficients they imply.
///
/// This is what a perfect extraction would recover; the benchmark suite
/// uses it to score both the fast method and the Hough baseline
/// objectively (the paper relied on manual inspection instead).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairGroundTruth {
    /// Slope of the near-horizontal (0,0)→(0,1) line in the
    /// `(V_left, V_right)` plane.
    pub slope_h: f64,
    /// Slope of the near-vertical (0,0)→(1,0) line.
    pub slope_v: f64,
    /// `α₁₂ = −1 / slope_v`: the coefficient of `V_P2` in the virtual gate
    /// `V'_P1 = V_P1 + α₁₂ V_P2`.
    ///
    /// Note: the paper's §2.3 writes `α₁₂ = −m₁` with `m₁` the
    /// (0,0)→(0,1) slope, but its figure axes are transposed relative to
    /// its equations; the assignment here is the one that exactly maps the
    /// (0,0)→(1,0) line to a vertical line in virtual space. The *set* of
    /// coefficients is identical either way.
    pub alpha12: f64,
    /// `α₂₁ = −slope_h`: the coefficient of `V_P1` in the virtual gate
    /// `V'_P2 = α₂₁ V_P1 + V_P2`. See [`PairGroundTruth::alpha12`] for the
    /// convention note.
    pub alpha21: f64,
}

/// A simulated double quantum dot with a charge sensor — the device class
/// the paper's 12 benchmarks were measured on (double-dot configuration of
/// a Si/SiGe triple-dot chip).
#[derive(Debug, Clone)]
pub struct DoubleDotDevice {
    inner: LinearArrayDevice,
}

impl DoubleDotDevice {
    /// Noise-free sensor current (nA) at plunger voltages `voltages`
    /// = `[V_P1, V_P2]`.
    ///
    /// # Errors
    ///
    /// Returns [`PhysicsError::GateCountMismatch`] for a wrong-length
    /// voltage vector.
    pub fn current(&self, voltages: &[f64]) -> Result<f64, PhysicsError> {
        self.inner.current(voltages)
    }

    /// Ground-state charge configuration at `voltages`.
    ///
    /// # Errors
    ///
    /// Returns [`PhysicsError::GateCountMismatch`] for a wrong-length
    /// voltage vector.
    pub fn ground_state(&self, voltages: &[f64]) -> Result<ChargeConfiguration, PhysicsError> {
        self.inner.ground_state(voltages)
    }

    /// Analytic transition-line slopes and virtualization coefficients
    /// for the (single) plunger pair.
    ///
    /// # Errors
    ///
    /// Propagates capacitance-model errors (degenerate lever arms).
    pub fn ground_truth(&self) -> Result<PairGroundTruth, PhysicsError> {
        self.inner.pair_ground_truth(0)
    }

    /// The underlying capacitance model.
    pub fn capacitance_model(&self) -> &CapacitanceModel {
        self.inner.capacitance_model()
    }

    /// The sensor model.
    pub fn sensor(&self) -> &SensorModel {
        self.inner.sensor()
    }

    /// Electron temperature `kT` in reduced energy units.
    pub fn temperature(&self) -> f64 {
        self.inner.temperature()
    }

    /// View as the general linear-array device.
    pub fn as_array(&self) -> &LinearArrayDevice {
        &self.inner
    }
}

/// A simulated linear array of `n` dots with `n` plunger gates and a
/// shared charge sensor.
///
/// Virtual gate extraction on an `n`-dot array runs pairwise over the
/// `n − 1` adjacent plunger pairs (paper §2.3); [`Self::pair_ground_truth`]
/// exposes the analytic answer for each pair.
#[derive(Debug, Clone)]
pub struct LinearArrayDevice {
    model: CapacitanceModel,
    sensor: SensorModel,
    solver: ChargeStateSolver,
    temperature: f64,
}

impl LinearArrayDevice {
    /// Number of dots (equals the number of plunger gates).
    pub fn n_dots(&self) -> usize {
        self.model.n_dots()
    }

    /// Noise-free sensor current (nA) at the full gate-voltage vector.
    ///
    /// # Errors
    ///
    /// Returns [`PhysicsError::GateCountMismatch`] for a wrong-length
    /// voltage vector.
    pub fn current(&self, voltages: &[f64]) -> Result<f64, PhysicsError> {
        let mut occ = [0.0; CapacitanceModel::MAX_DOTS];
        let occ = &mut occ[..self.model.n_dots()];
        self.solver
            .thermal_occupation_into(&self.model, voltages, self.temperature, occ)?;
        self.sensor.current(occ, voltages)
    }

    /// Ground-state charge configuration at `voltages`.
    ///
    /// # Errors
    ///
    /// Returns [`PhysicsError::GateCountMismatch`] for a wrong-length
    /// voltage vector.
    pub fn ground_state(&self, voltages: &[f64]) -> Result<ChargeConfiguration, PhysicsError> {
        self.solver.ground_state(&self.model, voltages)
    }

    /// Thermal mean occupations at `voltages`.
    ///
    /// # Errors
    ///
    /// Returns [`PhysicsError::GateCountMismatch`] for a wrong-length
    /// voltage vector.
    pub fn mean_occupation(&self, voltages: &[f64]) -> Result<Vec<f64>, PhysicsError> {
        self.solver
            .thermal_occupation(&self.model, voltages, self.temperature)
    }

    /// Analytic ground truth for the adjacent pair `(pair, pair + 1)`,
    /// in the plane of gates `pair` (x-axis) and `pair + 1` (y-axis).
    ///
    /// # Errors
    ///
    /// Returns [`PhysicsError::InvalidParameter`] if `pair + 1` is not a
    /// valid dot index, or capacitance-model errors for degenerate lever
    /// arms.
    pub fn pair_ground_truth(&self, pair: usize) -> Result<PairGroundTruth, PhysicsError> {
        if pair + 1 >= self.model.n_dots() {
            return Err(PhysicsError::InvalidParameter {
                name: "pair",
                constraint: "pair + 1 must be a valid dot index",
            });
        }
        let slope_v = self.model.transition_slope(pair, pair, pair + 1)?;
        let slope_h = self.model.transition_slope(pair + 1, pair, pair + 1)?;
        Ok(PairGroundTruth {
            slope_h,
            slope_v,
            alpha12: -1.0 / slope_v,
            alpha21: -slope_h,
        })
    }

    /// Voltage `(V_left, V_right)` where the two first-transition lines of
    /// the adjacent pair `(pair, pair + 1)` intersect, with all other
    /// gates held at `bias` (their entries for the pair's own gates are
    /// ignored).
    ///
    /// Line `i` is the locus `Σ_j E_{ij} (C_g V)_j = E_{ii} / 2`
    /// (degeneracy of `N_i = 0` and `N_i = 1`); solving the two lines'
    /// 2×2 system in the pair plane gives the crossing used to centre
    /// measurement windows.
    ///
    /// # Errors
    ///
    /// Returns [`PhysicsError::InvalidParameter`] if `pair + 1` is not a
    /// valid dot index or the lines are parallel, and
    /// [`PhysicsError::GateCountMismatch`] for a wrong-length `bias`.
    pub fn pair_line_intersection(
        &self,
        pair: usize,
        bias: &[f64],
    ) -> Result<(f64, f64), PhysicsError> {
        let n = self.model.n_dots();
        if pair + 1 >= n {
            return Err(PhysicsError::InvalidParameter {
                name: "pair",
                constraint: "pair + 1 must be a valid dot index",
            });
        }
        if bias.len() != self.model.n_gates() {
            return Err(PhysicsError::GateCountMismatch {
                expected: self.model.n_gates(),
                got: bias.len(),
            });
        }
        let (gx, gy) = (pair, pair + 1);
        // β[dot][gate] = Σ_k E_{dot,k} C_g[k, gate].
        let beta = |dot: usize, gate: usize| -> f64 {
            (0..n)
                .map(|k| self.model.interaction(dot, k) * self.model.lever_arm(k, gate))
                .sum()
        };
        // Constant contribution of the fixed gates to each line equation.
        let fixed = |dot: usize| -> f64 {
            (0..self.model.n_gates())
                .filter(|&g| g != gx && g != gy)
                .map(|g| beta(dot, g) * bias[g])
                .sum()
        };
        let b = [[beta(gx, gx), beta(gx, gy)], [beta(gy, gx), beta(gy, gy)]];
        let c = [
            self.model.interaction(gx, gx) / 2.0 - fixed(gx),
            self.model.interaction(gy, gy) / 2.0 - fixed(gy),
        ];
        let det = b[0][0] * b[1][1] - b[0][1] * b[1][0];
        if det.abs() < 1e-15 {
            return Err(PhysicsError::InvalidParameter {
                name: "lever_arms",
                constraint: "transition lines are parallel",
            });
        }
        Ok((
            (c[0] * b[1][1] - c[1] * b[0][1]) / det,
            (b[0][0] * c[1] - b[1][0] * c[0]) / det,
        ))
    }

    /// The underlying capacitance model.
    pub fn capacitance_model(&self) -> &CapacitanceModel {
        &self.model
    }

    /// The sensor model.
    pub fn sensor(&self) -> &SensorModel {
        &self.sensor
    }

    /// Electron temperature `kT` in reduced energy units.
    pub fn temperature(&self) -> f64 {
        self.temperature
    }
}

/// Builder for [`DoubleDotDevice`] and [`LinearArrayDevice`].
///
/// Defaults give a well-behaved double dot whose CSD shows the canonical
/// two-line corner near `V ≈ (50, 45)` volts-reduced:
///
/// ```
/// use qd_physics::DeviceBuilder;
///
/// # fn main() -> Result<(), qd_physics::PhysicsError> {
/// let device = DeviceBuilder::double_dot().build()?;
/// let truth = device.ground_truth()?;
/// assert!(truth.slope_v < -1.0);          // near-vertical line is steep
/// assert!(truth.slope_h > -1.0 && truth.slope_h < 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DeviceBuilder {
    n_dots: usize,
    totals: Vec<f64>,
    mutual: f64,
    lever_arms: Option<Vec<Vec<f64>>>,
    temperature: f64,
    max_electrons: u32,
    sensor: Option<SensorModel>,
}

impl DeviceBuilder {
    /// Starts a double-dot (2 dots, 2 plunger gates) configuration.
    pub fn double_dot() -> Self {
        Self::linear_array(2)
    }

    /// Starts an `n`-dot linear-array configuration (`n` plunger gates,
    /// nearest-neighbour mutual capacitances).
    pub fn linear_array(n_dots: usize) -> Self {
        Self {
            n_dots,
            totals: vec![1.0; n_dots],
            mutual: 0.15,
            lever_arms: None,
            temperature: 0.012,
            max_electrons: 3,
            sensor: None,
        }
    }

    /// Sets total dot capacitances (one per dot).
    #[must_use]
    pub fn total_capacitances(mut self, totals: Vec<f64>) -> Self {
        self.totals = totals;
        self
    }

    /// Sets the nearest-neighbour mutual capacitance (uniform).
    #[must_use]
    pub fn mutual_capacitance(mut self, mutual: f64) -> Self {
        self.mutual = mutual;
        self
    }

    /// Sets the full lever-arm matrix for a double dot.
    #[must_use]
    pub fn lever_arms(mut self, arms: [[f64; 2]; 2]) -> Self {
        self.lever_arms = Some(arms.iter().map(|r| r.to_vec()).collect());
        self
    }

    /// Sets an arbitrary lever-arm matrix (row per dot, column per gate).
    #[must_use]
    pub fn lever_arm_matrix(mut self, arms: Vec<Vec<f64>>) -> Self {
        self.lever_arms = Some(arms);
        self
    }

    /// Sets the electron temperature `kT` (reduced units). Larger values
    /// broaden transition lines.
    #[must_use]
    pub fn temperature(mut self, kt: f64) -> Self {
        self.temperature = kt;
        self
    }

    /// Sets the per-dot occupation search bound.
    #[must_use]
    pub fn max_electrons(mut self, max: u32) -> Self {
        self.max_electrons = max;
        self
    }

    /// Sets a custom sensor model.
    #[must_use]
    pub fn sensor(mut self, sensor: SensorModel) -> Self {
        self.sensor = Some(sensor);
        self
    }

    /// Builds a [`DoubleDotDevice`].
    ///
    /// # Errors
    ///
    /// Returns [`PhysicsError::BadDimensions`] if the configuration is not
    /// 2-dot, plus any parameter validation error from the submodels.
    pub fn build(self) -> Result<DoubleDotDevice, PhysicsError> {
        if self.n_dots != 2 {
            return Err(PhysicsError::BadDimensions {
                what: "double dot requires 2 dots",
            });
        }
        Ok(DoubleDotDevice {
            inner: self.build_array()?,
        })
    }

    /// Builds a [`LinearArrayDevice`] of any size.
    ///
    /// # Errors
    ///
    /// Propagates parameter validation errors from the capacitance,
    /// sensor and solver submodels.
    pub fn build_array(self) -> Result<LinearArrayDevice, PhysicsError> {
        if self.temperature < 0.0 || !self.temperature.is_finite() {
            return Err(PhysicsError::InvalidParameter {
                name: "temperature",
                constraint: "must be non-negative and finite",
            });
        }
        let n = self.n_dots;
        let mutuals: Vec<(usize, usize, f64)> = (0..n.saturating_sub(1))
            .map(|i| (i, i + 1, self.mutual))
            .collect();
        let lever_arms = match self.lever_arms {
            Some(arms) => arms,
            None => default_lever_arms(n),
        };
        let model = CapacitanceModel::new(&self.totals, &mutuals, &lever_arms)?;
        let sensor = match self.sensor {
            Some(s) => s,
            None => SensorModel::with_defaults(n, n)?,
        };
        if sensor.n_dots() != n || sensor.n_gates() != model.n_gates() {
            return Err(PhysicsError::BadDimensions {
                what: "sensor shape",
            });
        }
        let solver = ChargeStateSolver::new(self.max_electrons)?;
        Ok(LinearArrayDevice {
            model,
            sensor,
            solver,
            temperature: self.temperature,
        })
    }
}

/// Default lever arms for an `n`-dot chain: strong diagonal coupling with
/// cross-coupling decaying by distance (≈20 % to the nearest neighbour,
/// ≈4 % two sites away), the typical pattern in Si/SiGe linear arrays.
fn default_lever_arms(n: usize) -> Vec<Vec<f64>> {
    let alpha = 0.010;
    (0..n)
        .map(|i| {
            (0..n)
                .map(|j| {
                    let d = i.abs_diff(j);
                    alpha * 0.22_f64.powi(d as i32)
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device() -> DoubleDotDevice {
        DeviceBuilder::double_dot().build().unwrap()
    }

    #[test]
    fn default_double_dot_builds() {
        let d = device();
        assert_eq!(d.capacitance_model().n_dots(), 2);
        assert_eq!(d.temperature(), 0.012);
    }

    #[test]
    fn current_drops_across_transition() {
        let d = device();
        let before = d.current(&[20.0, 20.0]).unwrap();
        let after = d.current(&[80.0, 20.0]).unwrap();
        assert!(
            after < before,
            "loading an electron must reduce sensor current ({after} !< {before})"
        );
    }

    #[test]
    fn ground_truth_slopes_are_ordered() {
        let t = device().ground_truth().unwrap();
        assert!(t.slope_v < -1.0);
        assert!(t.slope_h < 0.0 && t.slope_h > -1.0);
        assert!(t.alpha12 > 0.0 && t.alpha12 < 1.0);
        assert!(t.alpha21 > 0.0 && t.alpha21 < 1.0);
    }

    #[test]
    fn builder_rejects_non_double_for_build() {
        assert!(DeviceBuilder::linear_array(3).build().is_err());
    }

    #[test]
    fn builder_rejects_negative_temperature() {
        assert!(DeviceBuilder::double_dot()
            .temperature(-0.1)
            .build()
            .is_err());
    }

    #[test]
    fn custom_lever_arms_change_ground_truth() {
        let strong_cross = DeviceBuilder::double_dot()
            .lever_arms([[0.010, 0.004], [0.004, 0.010]])
            .build()
            .unwrap();
        let weak_cross = DeviceBuilder::double_dot()
            .lever_arms([[0.010, 0.001], [0.001, 0.010]])
            .build()
            .unwrap();
        let a_strong = strong_cross.ground_truth().unwrap().alpha12;
        let a_weak = weak_cross.ground_truth().unwrap().alpha12;
        assert!(
            a_strong > a_weak,
            "stronger cross-coupling → bigger α ({a_strong} !> {a_weak})"
        );
    }

    #[test]
    fn array_device_three_dots() {
        let d = DeviceBuilder::linear_array(3).build_array().unwrap();
        assert_eq!(d.n_dots(), 3);
        let t01 = d.pair_ground_truth(0).unwrap();
        let t12 = d.pair_ground_truth(1).unwrap();
        assert!(t01.slope_v < -1.0 && t12.slope_v < -1.0);
        assert!(d.pair_ground_truth(2).is_err());
    }

    #[test]
    fn oversized_arrays_are_a_typed_error() {
        let max = CapacitanceModel::MAX_DOTS;
        assert!(DeviceBuilder::linear_array(max).build_array().is_ok());
        assert_eq!(
            DeviceBuilder::linear_array(max + 1)
                .build_array()
                .unwrap_err(),
            PhysicsError::TooManyDots { dots: max + 1, max }
        );
    }

    #[test]
    fn array_current_responds_to_every_gate() {
        let d = DeviceBuilder::linear_array(3).build_array().unwrap();
        let base = d.current(&[0.0, 0.0, 0.0]).unwrap();
        for g in 0..3 {
            let mut v = [0.0, 0.0, 0.0];
            v[g] = 120.0;
            let i = d.current(&v).unwrap();
            assert_ne!(i, base, "gate {g} had no effect on the sensor");
        }
    }

    #[test]
    fn mean_occupation_fractional_near_transition() {
        let d = device();
        // Scan across the first transition and check a fractional value
        // appears (thermal broadening).
        let mut saw_fraction = false;
        for step in 0..300 {
            let v1 = step as f64 * 0.4;
            let occ = d.as_array().mean_occupation(&[v1, 10.0]).unwrap()[0];
            if occ > 0.25 && occ < 0.75 {
                saw_fraction = true;
                break;
            }
        }
        assert!(saw_fraction);
    }

    #[test]
    fn wrong_gate_count_is_rejected() {
        let d = device();
        assert!(d.current(&[1.0]).is_err());
        assert!(d.ground_state(&[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn pair_line_intersection_is_on_both_lines() {
        let d = DeviceBuilder::double_dot().build().unwrap();
        let (vx, vy) = d.as_array().pair_line_intersection(0, &[0.0, 0.0]).unwrap();
        // At the intersection, U(0,0) = U(1,0) = U(0,1).
        let m = d.capacitance_model();
        let u00 = m.energy(&[0, 0], &[vx, vy]).unwrap();
        let u10 = m.energy(&[1, 0], &[vx, vy]).unwrap();
        let u01 = m.energy(&[0, 1], &[vx, vy]).unwrap();
        assert!((u00 - u10).abs() < 1e-9, "u00 {u00} vs u10 {u10}");
        assert!((u00 - u01).abs() < 1e-9, "u00 {u00} vs u01 {u01}");
    }

    #[test]
    fn pair_line_intersection_shifts_with_bias() {
        let d = DeviceBuilder::linear_array(3).build_array().unwrap();
        let a = d.pair_line_intersection(0, &[0.0, 0.0, 0.0]).unwrap();
        let b = d.pair_line_intersection(0, &[0.0, 0.0, 80.0]).unwrap();
        // Raising gate 2 (strongly coupled to dot 1) lowers the voltage
        // gate 1 needs to load dot 1.
        assert!(b.1 < a.1, "{a:?} vs {b:?}");
        assert!(
            (a.0 - b.0).abs() > 1e-6,
            "gate-2 bias must move the crossing"
        );
        assert!(d.pair_line_intersection(2, &[0.0; 3]).is_err());
        assert!(d.pair_line_intersection(0, &[0.0; 2]).is_err());
    }

    #[test]
    fn ground_truth_matches_observed_csd_geometry() {
        // Trace the near-vertical transition empirically from the current
        // map and compare its slope with the analytic prediction.
        let d = device();
        let truth = d.ground_truth().unwrap();
        // For two y rows, find the x where dot-0 occupation crosses 0.5.
        let crossing = |v2: f64| -> f64 {
            let mut lo = 0.0;
            let mut hi = 150.0;
            for _ in 0..50 {
                let mid = 0.5 * (lo + hi);
                let occ = d.as_array().mean_occupation(&[mid, v2]).unwrap()[0];
                if occ < 0.5 {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            0.5 * (lo + hi)
        };
        let x_a = crossing(10.0);
        let x_b = crossing(30.0);
        let observed = (30.0 - 10.0) / (x_b - x_a);
        assert!(
            (observed - truth.slope_v).abs() < 0.1 * truth.slope_v.abs(),
            "observed {observed} vs analytic {}",
            truth.slope_v
        );
    }
}
