//! Property-based tests for the constant-interaction model: the physics
//! invariants the extraction algorithm relies on (§4.2 of the paper).

use proptest::prelude::*;
use qd_physics::{CapacitanceModel, ChargeStateSolver, DeviceBuilder};

/// A strategy over well-formed double-dot lever-arm matrices: dominant
/// diagonal with modest cross-coupling *and comparable plunger strengths*
/// — the regime of real devices and the premise of the paper's §4.2
/// slope prior. (A device whose two plungers differ by more than ~2x in
/// strength can legitimately violate the prior: with strong mutual
/// capacitance the "shallow" line then dips below slope −1.)
fn lever_arms() -> impl Strategy<Value = [[f64; 2]; 2]> {
    (
        0.006..0.015f64,
        0.0005..0.004f64,
        0.0005..0.004f64,
        0.006..0.015f64,
    )
        .prop_filter("diagonal must dominate", |(d0, c01, c10, d1)| {
            c01 < &(d0 * 0.35) && c10 < &(d1 * 0.35)
        })
        .prop_filter("plungers must be comparable", |(d0, _, _, d1)| {
            let ratio = d0 / d1;
            (0.6..=1.67).contains(&ratio)
        })
        .prop_map(|(d0, c01, c10, d1)| [[d0, c01], [c10, d1]])
}

proptest! {
    /// §4.2's physics prior: for any dominant-diagonal device the steep
    /// line is steeper than -1 and the shallow line lies in (-1, 0).
    #[test]
    fn transition_slopes_obey_the_physics_prior(
        arms in lever_arms(),
        mutual in 0.0..0.35f64,
    ) {
        let device = DeviceBuilder::double_dot()
            .lever_arms(arms)
            .mutual_capacitance(mutual)
            .build()
            .unwrap();
        let t = device.ground_truth().unwrap();
        prop_assert!(t.slope_v < -1.0, "steep slope {}", t.slope_v);
        prop_assert!(t.slope_h < 0.0 && t.slope_h > -1.0, "shallow slope {}", t.slope_h);
        prop_assert!(t.alpha12 > 0.0 && t.alpha12 < 1.0);
        prop_assert!(t.alpha21 > 0.0 && t.alpha21 < 1.0);
    }

    /// Total ground-state occupation is monotone along the main diagonal.
    #[test]
    fn occupation_monotone_in_voltage(
        arms in lever_arms(),
        mutual in 0.0..0.3f64,
        steps in 2usize..8,
    ) {
        let device = DeviceBuilder::double_dot()
            .lever_arms(arms)
            .mutual_capacitance(mutual)
            .build()
            .unwrap();
        let mut prev = 0;
        for i in 0..steps {
            let v = i as f64 * 40.0;
            let total = device.ground_state(&[v, v]).unwrap().total();
            prop_assert!(total >= prev, "occupation decreased at V = {v}");
            prev = total;
        }
    }

    /// Energy is invariant under exchanging a symmetric device's dots.
    #[test]
    fn symmetric_device_energy_symmetry(
        diag in 0.006..0.015f64,
        cross in 0.0005..0.0025f64,
        mutual in 0.0..0.3f64,
        v1 in 0.0..120.0f64,
        v2 in 0.0..120.0f64,
        n1 in 0u32..3,
        n2 in 0u32..3,
    ) {
        let m = CapacitanceModel::new(
            &[1.0, 1.0],
            &[(0, 1, mutual)],
            &[vec![diag, cross], vec![cross, diag]],
        )
        .unwrap();
        let e_ab = m.energy(&[n1, n2], &[v1, v2]).unwrap();
        let e_ba = m.energy(&[n2, n1], &[v2, v1]).unwrap();
        prop_assert!((e_ab - e_ba).abs() < 1e-9 * (1.0 + e_ab.abs()));
    }

    /// Thermal occupations are bounded by the searched range and approach
    /// the ground state as kT → 0.
    #[test]
    fn thermal_occupation_is_bounded_and_consistent(
        arms in lever_arms(),
        v1 in 0.0..120.0f64,
        v2 in 0.0..120.0f64,
        kt in 0.0005..0.05f64,
    ) {
        let device = DeviceBuilder::double_dot().lever_arms(arms).build().unwrap();
        let solver = ChargeStateSolver;
        let model = device.capacitance_model();
        let occ = solver.thermal_occupation(model, &[v1, v2], kt).unwrap();
        let max = f64::from(ChargeStateSolver::MAX_OCCUPATION);
        for &o in &occ {
            prop_assert!((0.0..=max).contains(&o), "occupation {o} out of range");
        }
        // Tiny kT reproduces the ground state.
        let cold = solver.thermal_occupation(model, &[v1, v2], 1e-6).unwrap();
        let gs = solver.ground_state(model, &[v1, v2]).unwrap();
        for (c, &g) in cold.iter().zip(gs.occupations()) {
            prop_assert!((c - g as f64).abs() < 1e-3);
        }
    }

    /// The analytic pair-line intersection is a genuine triple degeneracy.
    #[test]
    fn line_intersection_is_triple_point(
        arms in lever_arms(),
        mutual in 0.0..0.3f64,
    ) {
        let device = DeviceBuilder::double_dot()
            .lever_arms(arms)
            .mutual_capacitance(mutual)
            .build_array()
            .unwrap();
        let (vx, vy) = device.pair_line_intersection(0, &[0.0, 0.0]).unwrap();
        let m = device.capacitance_model();
        let u00 = m.energy(&[0, 0], &[vx, vy]).unwrap();
        let u10 = m.energy(&[1, 0], &[vx, vy]).unwrap();
        let u01 = m.energy(&[0, 1], &[vx, vy]).unwrap();
        prop_assert!((u00 - u10).abs() < 1e-7);
        prop_assert!((u00 - u01).abs() < 1e-7);
    }

    /// Sensor current decreases when any dot gains an electron.
    #[test]
    fn sensor_current_drops_per_electron(
        arms in lever_arms(),
        v1 in 0.0..80.0f64,
        v2 in 0.0..80.0f64,
    ) {
        let device = DeviceBuilder::double_dot().lever_arms(arms).build().unwrap();
        let s = device.sensor();
        let base = s.current(&[0.0, 0.0], &[v1, v2]).unwrap();
        prop_assert!(s.current(&[1.0, 0.0], &[v1, v2]).unwrap() < base);
        prop_assert!(s.current(&[0.0, 1.0], &[v1, v2]).unwrap() < base);
        prop_assert!(s.current(&[1.0, 1.0], &[v1, v2]).unwrap()
            < s.current(&[1.0, 0.0], &[v1, v2]).unwrap());
    }
}
