//! Extra coverage for the voltage-window arithmetic that every probe
//! passes through.

use qd_csd::VoltageGrid;
use qd_instrument::{CsdSource, CurrentSource, MeasurementSession, VoltageWindow};

#[test]
fn fractional_delta_windows_quantize_consistently() {
    // A 60 V span over 100 px has delta ≈ 0.606 — the benchmark regime.
    let w = VoltageWindow {
        x_min: -5.0,
        y_min: 12.0,
        x_max: -5.0 + 60.0,
        y_max: 12.0 + 60.0,
        delta: 60.0 / 99.0,
    };
    assert_eq!(w.width_px(), 100);
    assert_eq!(w.height_px(), 100);
    // Every exact pixel voltage must round-trip to its own index.
    for px in [0usize, 1, 49, 98, 99] {
        let v1 = w.x_min + px as f64 * w.delta;
        let (qx, _) = w.quantize(v1, w.y_min);
        assert_eq!(qx as usize, px, "pixel {px} mis-quantized");
    }
}

#[test]
fn quantize_midpoints_round_to_nearest() {
    let w = VoltageWindow {
        x_min: 0.0,
        y_min: 0.0,
        x_max: 9.0,
        y_max: 9.0,
        delta: 1.0,
    };
    assert_eq!(w.quantize(0.49, 0.0).0, 0);
    assert_eq!(w.quantize(0.51, 0.0).0, 1);
    assert_eq!(w.quantize(8.5, 0.0).0, 9); // ties round half-up via f64::round
}

#[test]
fn negative_origin_windows_work() {
    let grid = VoltageGrid::new(-30.0, -20.0, 0.5, 40, 40).expect("grid");
    let csd = qd_csd::Csd::from_fn(grid, |v1, v2| v1 * 10.0 + v2).expect("csd");
    let mut session = MeasurementSession::new(CsdSource::new(csd));
    // Probe exactly at a negative-voltage pixel.
    let i = session.get_current(-29.5, -19.0);
    assert_eq!(i, -29.5 * 10.0 + -19.0);
    assert_eq!(session.unique_pixels(), 1);
}

#[test]
fn window_from_grid_round_trips_through_source() {
    let grid = VoltageGrid::new(3.0, 7.0, 0.25, 21, 17).expect("grid");
    let csd = qd_csd::Csd::constant(grid, 1.0).expect("csd");
    let source = CsdSource::new(csd);
    let w = source.window();
    assert_eq!(w.x_min, 3.0);
    assert_eq!(w.y_min, 7.0);
    assert_eq!(w.width_px(), 21);
    assert_eq!(w.height_px(), 17);
    assert_eq!(w.len(), 21 * 17);
}

#[test]
fn coverage_accounts_only_unique_pixels() {
    let grid = VoltageGrid::new(0.0, 0.0, 1.0, 10, 10).expect("grid");
    let csd = qd_csd::Csd::constant(grid, 1.0).expect("csd");
    let mut session = MeasurementSession::new(CsdSource::new(csd));
    for _ in 0..5 {
        let _ = session.get_current(2.0, 2.0); // same pixel, 1 dwell
    }
    assert_eq!(session.probe_count(), 1);
    assert_eq!(session.unique_pixels(), 1);
    assert!((session.coverage() - 0.01).abs() < 1e-12);
}
