//! Property tests of `MeasurementSession` against a reference model, a
//! plain `HashMap` from pixel to first reading.
//!
//! The source's reading changes on every call, as under drift, so every
//! cache hit and every dwell-costing probe shows in the readings. Probe
//! voltages include out-of-window, ±∞ and NaN values, which clamp onto
//! the window's edge pixels.

use proptest::prelude::*;
use qd_instrument::{FnSource, MeasurementSession, ProbeSession, VoltageWindow};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// A `w × h`-pixel window: origin in ±50 V, pixel size 0.05–2 V.
fn windows() -> impl Strategy<Value = (VoltageWindow, i64, i64)> {
    (-50.0..50.0, -50.0..50.0, 0.05..2.0, 1i64..16, 1i64..16).prop_map(|(x, y, delta, w, h)| {
        let (x_max, y_max) = (x + (w - 1) as f64 * delta, y + (h - 1) as f64 * delta);
        let window = VoltageWindow {
            x_min: x,
            y_min: y,
            x_max,
            y_max,
            delta,
        };
        (window, w, h)
    })
}

/// One probe voltage on the axis `lo..=hi`: NaN, +∞ or −∞ for the first
/// three selectors, else anywhere from a quarter span below to a quarter
/// span above the axis.
fn voltage((kind, unit): (u8, f64), lo: f64, hi: f64) -> f64 {
    match kind {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        _ => lo + unit * (hi - lo),
    }
}

/// The model's index on an axis of `n` pixels: the nearest pixel, clamped
/// into the window, with NaN on the low edge.
fn model_index(v: f64, lo: f64, delta: f64, n: i64) -> i64 {
    let f = ((v - lo) / delta).round();
    if f.is_nan() {
        0
    } else {
        f.clamp(0.0, (n - 1) as f64) as i64
    }
}

proptest! {
    /// Every reading, count, scatter, coverage and dwell matches the
    /// first-probe model, and a probe budget trips at the model's probe.
    #[test]
    fn session_matches_a_first_probe_model(
        shape in windows(),
        probes in prop::collection::vec(((0u8..20, -0.25..1.25), (0u8..20, -0.25..1.25)), 0..200),
        cap in (0u8..2, 0usize..60),
    ) {
        let (window, w, h) = shape;
        prop_assert_eq!((window.width_px(), window.height_px()), (w as usize, h as usize));
        let mut calls = 0.0;
        let source = FnSource::new(move |_, _| { calls += 1.0; calls }, window);
        let budget = (cap.0 == 1).then_some(cap.1);
        let mut session = MeasurementSession::new(source);
        if let Some(b) = budget {
            session = session.with_probe_budget(b);
        }

        let mut model: HashMap<(i64, i64), f64> = HashMap::new();
        let mut order = Vec::new();
        for (i, &(c1, c2)) in probes.iter().enumerate() {
            let v1 = voltage(c1, window.x_min, window.x_max);
            let v2 = voltage(c2, window.y_min, window.y_max);
            let pixel = (
                model_index(v1, window.x_min, window.delta, w),
                model_index(v2, window.y_min, window.delta, h),
            );
            let cached = model.get(&pixel).copied();
            let trips = cached.is_none() && budget == Some(order.len());
            let read = catch_unwind(AssertUnwindSafe(|| session.get_current(v1, v2)));
            let Ok(reading) = read else {
                prop_assert!(trips, "probe {i} at {pixel:?} tripped the budget early");
                break;
            };
            prop_assert!(!trips, "probe {i} at {pixel:?} must trip the budget");
            let expected = cached.unwrap_or_else(|| {
                order.push(pixel);
                *model.entry(pixel).or_insert(order.len() as f64)
            });
            prop_assert_eq!(reading.to_bits(), expected.to_bits(), "probe {i} at {pixel:?}");
        }

        let n = order.len();
        prop_assert_eq!((session.probe_count(), session.unique_pixels()), (n, n));
        prop_assert_eq!(session.scatter(), order);
        prop_assert_eq!(session.coverage().to_bits(), (n as f64 / (w * h) as f64).to_bits());
        prop_assert_eq!(session.simulated_dwell(), Duration::from_millis(50) * n as u32);
        prop_assert_eq!(session.remaining_budget(), budget.map(|b| b.saturating_sub(n)));
    }
}
