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
//! Every simulated pixel is evaluated here, allocation-free, behind one
//! dispatch in [`ChargeStateSolver::thermal_occupation`] and
//! [`ChargeStateSolver::ground_state`], which the device methods build on
//! ([`crate::LinearArrayDevice::current`], `mean_occupation` and
//! `ground_state`). Each dot holds `0..=`[`ChargeStateSolver::MAX_OCCUPATION`]
//! electrons, and each call computes the induced charge `q = C_g·V` once.
//! The dot count alone picks the kernel:
//!
//! * **Two dots** (every diagram the suite, the zoo and the daemon
//!   realize): the pair kernel. Its 16 configurations have fixed loop
//!   bounds, and each energy is computed once into a `[f64; 16]` that the
//!   `u_min` fold, the weights and the ground-state scan all read. `E` is
//!   read as a fixed 2×2, `E_01` and `E_10` separately (the computed
//!   inverse need not be bit-symmetric).
//! * **Any other count**: an odometer walk over `{0..=3}^n` on a stack
//!   buffer, recomputing each configuration's energy in the second walk
//!   rather than storing it. The walk is also the reference the pair
//!   kernel is tested against, bit for bit.
//!
//! **Invariant:** both kernels perform the same `f64` operations, in the
//! same order, as the reference formulas, so every value they return is
//! bit-identical to evaluating them directly:
//!
//! * `q_i = Σ_g C_g[i, g] · V_g`, accumulated from `0.0` in gate order;
//! * `U(N) = Σ_i Σ_j ((½ · d_i) · E_ij) · d_j` with `d = N − q`,
//!   accumulated from `0.0` row-major;
//! * configurations in odometer order (dot 0 fastest, so a pair's
//!   configuration `N_0 + 4·N_1`); the ground state is the first
//!   configuration no later one undercuts;
//! * `u_min` folded from `+∞` with `f64::min`, in configuration order;
//! * weights `w = exp(−(U − u_min) / kT)`, with `Z` and every `w · N_i`
//!   (`N_i = 0` included, so a NaN weight propagates) accumulated in
//!   configuration order and `⟨N_i⟩ / Z` last (`kT = 0` returns the
//!   ground state);
//! * a configuration whose exponent `x = −(U − u_min) / kT` is below
//!   −746 is skipped: there `exp(x)` is exactly `+0.0`, and adding `+0.0`
//!   to `Z` or `⟨N_i⟩` (never `−0.0`) leaves every bit alone. A NaN
//!   exponent fails the test and goes through `exp` as before. Most
//!   visits of a realized diagram are skipped this way;
//! * the sensor current `I₀ + ½·swing·tanh(φ / scale)` of
//!   [`crate::SensorModel::current`].
//!
//! Reordering any sum, fusing a multiply-add, storing a rescaled weight,
//! assuming `E` symmetric or skipping exponents that `exp` maps to a
//! subnormal would move the last bit of realized diagrams and break the
//! golden digests that pin them.

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

/// Exhaustive solver over occupations `0..=`[`Self::MAX_OCCUPATION`] per
/// dot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChargeStateSolver;

impl ChargeStateSolver {
    /// Largest per-dot occupation searched. Three electrons are ample for
    /// the paper's double-dot diagrams: the cropped windows only contain
    /// the first one or two transitions.
    pub const MAX_OCCUPATION: u32 = 3;

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
        match model.pair_interaction() {
            Some(e) => {
                best.copy_from_slice(&pair_ground_state(&pair_energies(model, e, voltages)?));
                Ok(())
            }
            None => walk_ground_state_into(model, voltages, best),
        }
    }

    /// [`Self::thermal_occupation`] into `mean` (one entry per dot) for an
    /// already validated `kt`, allocating nothing: the per-pixel kernel.
    #[inline]
    pub(crate) fn thermal_occupation_into(
        &self,
        model: &CapacitanceModel,
        voltages: &[f64],
        kt: f64,
        mean: &mut [f64],
    ) -> Result<(), PhysicsError> {
        match model.pair_interaction() {
            Some(e) => {
                let u = pair_energies(model, e, voltages)?;
                mean.copy_from_slice(&if kt == 0.0 {
                    pair_ground_state(&u)
                } else {
                    pair_thermal(&u, kt)
                });
                Ok(())
            }
            None => walk_thermal_into(model, voltages, kt, mean),
        }
    }
}

/// Occupation levels per dot, `0..=MAX_OCCUPATION`.
const LEVELS: usize = ChargeStateSolver::MAX_OCCUPATION as usize + 1;

/// Configurations of a two-dot model.
const PAIR_CONFIGS: usize = LEVELS * LEVELS;

/// `[N_0, N_1]` of pair configuration `k = N_0 + LEVELS·N_1`, the walk's
/// order.
#[inline(always)]
fn pair_occupation(k: usize) -> [f64; 2] {
    [(k % LEVELS) as f64, (k / LEVELS) as f64]
}

/// `U(N)` of every configuration of a two-dot model with interaction `e`,
/// in walk order: `q` once, then [`CapacitanceModel::energy_at`]'s
/// operations with fixed loop bounds.
#[inline]
fn pair_energies(
    model: &CapacitanceModel,
    e: [[f64; 2]; 2],
    voltages: &[f64],
) -> Result<[f64; PAIR_CONFIGS], PhysicsError> {
    let mut q = [0.0; 2];
    model.induced_charge_into(voltages, &mut q)?;
    Ok(std::array::from_fn(|k| {
        let n = pair_occupation(k);
        let d = [n[0] - q[0], n[1] - q[1]];
        let mut u = 0.0;
        for (&di, row) in d.iter().zip(&e) {
            let half_di = 0.5 * di;
            for (&eij, &dj) in row.iter().zip(&d) {
                u += half_di * eij * dj;
            }
        }
        u
    }))
}

/// The walk's thermal mean over a pair's energies `u`: the `u_min` fold,
/// the underflow skip, the weights and the division, in walk order.
#[inline]
fn pair_thermal(u: &[f64; PAIR_CONFIGS], kt: f64) -> [f64; 2] {
    let u_min = u.iter().fold(f64::INFINITY, |m, &uk| m.min(uk));
    let mut z = 0.0;
    let mut mean = [0.0; 2];
    for (k, &uk) in u.iter().enumerate() {
        let x = -(uk - u_min) / kt;
        if x < UNDERFLOW_EXPONENT {
            continue; // `exp(x)` is +0, and adding +0 changes nothing
        }
        let w = x.exp();
        z += w;
        for (m, n) in mean.iter_mut().zip(pair_occupation(k)) {
            *m += w * n;
        }
    }
    mean.map(|m| m / z)
}

/// The walk's ground state over a pair's energies `u`: the first
/// configuration no later one undercuts, where a NaN on either side of
/// the comparison replaces the best so far.
#[inline]
#[allow(clippy::neg_cmp_op_on_partial_ord)]
fn pair_ground_state(u: &[f64; PAIR_CONFIGS]) -> [f64; 2] {
    let mut best = 0;
    for (k, &uk) in u.iter().enumerate().skip(1) {
        if !(u[best] <= uk) {
            best = k;
        }
    }
    pair_occupation(best)
}

/// The general kernel's ground state: an odometer walk over every
/// configuration, into `best` (one entry per dot).
fn walk_ground_state_into(
    model: &CapacitanceModel,
    voltages: &[f64],
    best: &mut [f64],
) -> Result<(), PhysicsError> {
    let mut q = [0.0; CapacitanceModel::MAX_DOTS];
    let q = &mut q[..model.n_dots()];
    model.induced_charge_into(voltages, q)?;
    let mut best_u = None;
    for_each_config(model.n_dots(), |occ| {
        let u = model.energy_at(q, occ);
        if !matches!(best_u, Some(bu) if bu <= u) {
            best_u = Some(u);
            best.copy_from_slice(occ);
        }
    });
    Ok(())
}

/// The general kernel's thermal mean, into `mean` (one entry per dot),
/// for an already validated `kt`.
fn walk_thermal_into(
    model: &CapacitanceModel,
    voltages: &[f64],
    kt: f64,
    mean: &mut [f64],
) -> Result<(), PhysicsError> {
    if kt == 0.0 {
        return walk_ground_state_into(model, voltages, mean);
    }
    let n_dots = model.n_dots();
    let mut q = [0.0; CapacitanceModel::MAX_DOTS];
    let q = &mut q[..n_dots];
    model.induced_charge_into(voltages, q)?;

    // Subtract the minimum energy before exponentiating for numerical
    // stability. Energies are recomputed in the second walk rather than
    // stored, so the scratch stays on the stack.
    let mut u_min = f64::INFINITY;
    for_each_config(n_dots, |occ| {
        u_min = u_min.min(model.energy_at(q, occ));
    });
    let mut z = 0.0;
    mean.fill(0.0);
    for_each_config(n_dots, |occ| {
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

/// Visits every occupation vector in `{0..=MAX_OCCUPATION}^n_dots`, as
/// `f64` counts, in odometer order (dot 0 fastest).
fn for_each_config(n_dots: usize, mut f: impl FnMut(&[f64])) {
    let max = f64::from(ChargeStateSolver::MAX_OCCUPATION);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DeviceBuilder, LinearArrayDevice, SensorModel};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
    fn ground_state_origin_is_empty() {
        let s = ChargeStateSolver;
        let gs = s.ground_state(&model(), &[0.0, 0.0]).unwrap();
        assert_eq!(gs.occupations(), &[0, 0]);
    }

    #[test]
    fn ground_state_loads_dot1_with_gate1() {
        let s = ChargeStateSolver;
        // q1 crosses 0.5 electrons around V1 = 50 for lever arm 0.010.
        let gs = s.ground_state(&model(), &[70.0, 0.0]).unwrap();
        assert_eq!(gs.occupations(), &[1, 0]);
    }

    #[test]
    fn ground_state_loads_both_at_high_both() {
        let s = ChargeStateSolver;
        let gs = s.ground_state(&model(), &[75.0, 65.0]).unwrap();
        assert_eq!(gs.occupations(), &[1, 1]);
    }

    #[test]
    fn ground_state_monotone_in_gate_voltage() {
        let s = ChargeStateSolver;
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
        let s = ChargeStateSolver;
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
        let s = ChargeStateSolver;
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
        let s = ChargeStateSolver;
        assert!(s.thermal_occupation(&model(), &[0.0, 0.0], -1.0).is_err());
        assert!(s
            .thermal_occupation(&model(), &[0.0, 0.0], f64::NAN)
            .is_err());
    }

    #[test]
    fn higher_kt_broadens_more() {
        let s = ChargeStateSolver;
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
    fn unskipped_occupation(m: &CapacitanceModel, v: &[f64], kt: f64) -> Vec<f64> {
        let q = m.induced_charge(v).unwrap();
        let mut u_min = f64::INFINITY;
        for_each_config(m.n_dots(), |occ| u_min = u_min.min(m.energy_at(&q, occ)));
        let mut z = 0.0;
        let mut mean = vec![0.0; m.n_dots()];
        for_each_config(m.n_dots(), |occ| {
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

    /// Every configuration's energy at `v`, in walk order.
    fn walk_energies(m: &CapacitanceModel, v: &[f64]) -> Vec<f64> {
        let q = m.induced_charge(v).unwrap();
        let mut energies = Vec::new();
        for_each_config(m.n_dots(), |occ| energies.push(m.energy_at(&q, occ)));
        energies
    }

    /// The `kt` that puts the lowest excited configuration's Boltzmann
    /// exponent at `-edge`.
    fn edge_kt(energies: &[f64], edge: f64) -> f64 {
        let u_min = energies.iter().copied().fold(f64::INFINITY, f64::min);
        let gap = energies
            .iter()
            .map(|u| u - u_min)
            .filter(|&g| g > 0.0)
            .fold(f64::INFINITY, f64::min);
        gap / edge
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|x| x.to_bits()).collect()
    }

    /// Gate voltages the pair-kernel property mixes into ordinary ones:
    /// infinities, NaN, and magnitudes whose energies overflow.
    const HOSTILE_VOLTAGES: [f64; 5] = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 1e300, -1e300];

    /// A double dot with random totals, mutual capacitance, lever arms and
    /// sensor, at electron temperature `kt`.
    fn random_pair(rng: &mut StdRng, kt: f64) -> LinearArrayDevice {
        let mut draw = |lo: f64, hi: f64| rng.random_range(lo..hi);
        let sensor = SensorModel::new(
            draw(-10.0, 10.0),
            draw(0.1, 10.0),
            draw(0.5, 5.0),
            vec![draw(0.1, 2.0), draw(0.1, 2.0)],
            vec![draw(-0.01, 0.01), draw(-0.01, 0.01)],
        )
        .unwrap();
        DeviceBuilder::double_dot()
            .total_capacitances(vec![draw(0.5, 2.0), draw(0.5, 2.0)])
            .mutual_capacitance(draw(0.0, 0.4))
            .lever_arms([
                [draw(0.002, 0.02), draw(0.0, 0.005)],
                [draw(0.0, 0.005), draw(0.002, 0.02)],
            ])
            .temperature(kt)
            .sensor(sensor)
            .build_array()
            .unwrap()
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
        ) {
            let m = CapacitanceModel::new(
                &[total_1, total_2],
                &[(0, 1, mutual)],
                &[vec![arms.0, arms.1], vec![arms.2, arms.3]],
            );
            prop_assume!(m.is_ok());
            let m = m.unwrap();
            let v = [v1, v2];
            for kt in [10f64.powf(log_kt), edge_kt(&walk_energies(&m, &v), edge)] {
                let got = ChargeStateSolver.thermal_occupation(&m, &v, kt).unwrap();
                let want = unskipped_occupation(&m, &v, kt);
                prop_assert_eq!(bits(&got), bits(&want), "kt {} at V {:?}", kt, v);
            }
        }

        /// The two-dot kernel returns the general walk's bits through every
        /// entry point: `current`, `mean_occupation` and `ground_state` of
        /// the device, and the solver's `thermal_occupation` and
        /// `ground_state`. Models, sensors and voltages are random, with
        /// ±∞, NaN and ±1e300 mixed into the voltages; `kt` is log-uniform
        /// in `[1e-4, 1]`, at the underflow edge, and 0.
        #[test]
        fn pair_kernel_matches_the_walk(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let device_seed: u64 = rng.random();
            let base = random_pair(&mut StdRng::seed_from_u64(device_seed), 0.0);
            let m = base.capacitance_model();
            for point in 0..8 {
                let mut volt = || {
                    let pick = rng.random_range(0..4 * HOSTILE_VOLTAGES.len());
                    HOSTILE_VOLTAGES
                        .get(pick)
                        .copied()
                        .unwrap_or_else(|| rng.random_range(-20.0..200.0))
                };
                let v = [volt(), volt()];
                let log_kt = rng.random_range(-4.0..0.0);
                let edge = rng.random_range(690.0..770.0);
                let edge = edge_kt(&walk_energies(m, &v), edge);
                let mut kts = vec![10f64.powf(log_kt), 0.0];
                if edge.is_finite() && edge > 0.0 {
                    kts.push(edge);
                }
                let mut ground = [0.0; 2];
                walk_ground_state_into(m, &v, &mut ground).unwrap();
                let ground = ChargeConfiguration::new(ground.iter().map(|&n| n as u32).collect());
                prop_assert_eq!(
                    ChargeStateSolver.ground_state(m, &v).unwrap(),
                    ground.clone(),
                    "solver ground_state: seed {} point {} V {:?}", seed, point, v
                );
                prop_assert_eq!(
                    base.ground_state(&v).unwrap(),
                    ground,
                    "ground_state: seed {} point {} V {:?}", seed, point, v
                );
                for kt in kts {
                    let mut want = [0.0; 2];
                    walk_thermal_into(m, &v, kt, &mut want).unwrap();
                    let why = format!("seed {seed} point {point} V {v:?} kt {kt}");
                    prop_assert_eq!(
                        bits(&ChargeStateSolver.thermal_occupation(m, &v, kt).unwrap()),
                        bits(&want),
                        "solver: {}", why
                    );
                    // The same model and sensor at this temperature.
                    let device = random_pair(&mut StdRng::seed_from_u64(device_seed), kt);
                    prop_assert_eq!(
                        bits(&device.mean_occupation(&v).unwrap()),
                        bits(&want),
                        "mean_occupation: {}", why
                    );
                    prop_assert_eq!(
                        device.current(&v).unwrap().to_bits(),
                        device.sensor().current(&want, &v).unwrap().to_bits(),
                        "current: {}", why
                    );
                }
            }
        }
    }
}
