//! The `PixelField` seam: a spec's lazy `DeviceField` and its realized
//! diagram are the same field, pixel for pixel and probe for probe.
//!
//! Specs come from `random_specs` and `zoo_specs` at random seeds, with
//! the window shrunk to 8–47 pixels a side so every case can afford a
//! full realization in a debug build. Probe voltages include
//! out-of-window, ±∞ and NaN values, which clamp onto edge pixels.

use fastvg::csd::PixelField;
use fastvg::dataset::{generate, random_specs, zoo_specs, BenchmarkSpec, DeviceField};
use fastvg::instrument::{BackendRegistry, ProbeSession, SourceScenario};
use proptest::prelude::*;
use std::sync::Arc;

/// Spec `k` of the seed's 3 random specs followed by its 12 zoo specs,
/// resized to `size` pixels a side.
fn spec_at(seed: u64, k: usize, size: usize) -> BenchmarkSpec {
    let mut specs = random_specs(3, seed);
    specs.extend(zoo_specs(1, seed).into_iter().map(|z| z.spec));
    let mut spec = specs.swap_remove(k % specs.len());
    spec.size = size;
    spec
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

proptest! {
    /// Every pixel of the lazy field, read in a scrambled order, has the
    /// bits of the realized diagram's pixel.
    #[test]
    fn device_field_pixels_are_the_realized_diagram(
        seed in 0u64..1_000_000,
        k in 0usize..15,
        size in 8usize..48,
    ) {
        let spec = spec_at(seed, k, size);
        let csd = generate(&spec).expect("spec realizes").csd;
        let field = DeviceField::new(&spec).expect("field builds where generate does");
        prop_assert_eq!(field.grid(), csd.grid());
        let (w, h) = csd.size();
        // A prime stride above the pixel count visits every pixel once,
        // out of raster order.
        let n = w * h;
        for i in 0..n {
            let p = (i * 7919) % n;
            let (x, y) = (p % w, p / w);
            prop_assert_eq!(
                field.at(x, y).to_bits(),
                csd.at(x, y).to_bits(),
                "seed {} spec {} pixel ({}, {})", seed, k, x, y
            );
        }
    }

    /// Sessions through `sim` and through every zoo `hwsim:` profile read
    /// the same bits, count the same probes and scatter the same pixels
    /// over the lazy field as over the realized diagram.
    #[test]
    fn sessions_over_either_field_are_bit_identical(
        seed in 0u64..1_000_000,
        k in 0usize..15,
        size in 8usize..48,
        probes in prop::collection::vec(((0u8..20, -0.25..1.25), (0u8..20, -0.25..1.25)), 0..120),
    ) {
        let spec = spec_at(seed, k, size);
        let csd = Arc::new(generate(&spec).expect("spec realizes").csd);
        let field = Arc::new(DeviceField::new(&spec).expect("field builds"));
        let registry = BackendRegistry::standard();
        let mut backends = vec!["sim".to_string()];
        backends.extend(zoo_specs(1, seed).into_iter().map(|z| z.backend));
        for spec_text in &backends {
            let backend = registry.resolve(spec_text).expect("zoo backends resolve");
            let open = |scenario: SourceScenario| {
                backend
                    .session(scenario.with_seed(spec.seed))
                    .expect("simulated backends open")
            };
            let mut lazy = open(SourceScenario::new(Arc::clone(&field)));
            let mut dense = open(SourceScenario::new(Arc::clone(&csd)));
            let window = dense.window();
            for &(c1, c2) in &probes {
                let v1 = voltage(c1, window.x_min, window.x_max);
                let v2 = voltage(c2, window.y_min, window.y_max);
                prop_assert_eq!(
                    lazy.get_current(v1, v2).to_bits(),
                    dense.get_current(v1, v2).to_bits(),
                    "{} seed {} spec {} at ({}, {})", spec_text, seed, k, v1, v2
                );
            }
            prop_assert_eq!(lazy.probe_count(), dense.probe_count(), "{}", spec_text);
            prop_assert_eq!(lazy.scatter(), dense.scatter(), "{}", spec_text);
        }
    }
}
