//! Golden bits for scenario realization.
//!
//! Table 1 and the zoo gate are statistical: a change that moved the
//! last bit of a few simulated currents would usually still pass them,
//! and the result cache would then replay answers that no longer match
//! a fresh run. These tests pin every realized value instead:
//! `fnv1a64` over the little-endian `f64::to_bits` of each value, in
//! spec order, against digests of the reference implementation.

use fastvg::dataset::{generate, paper_specs, zoo_specs, BenchmarkSpec, DEFAULT_ZOO_SEED};
use fastvg::physics::DeviceBuilder;
use fastvg::wire::fnv1a64;

/// Digest and count of every value, in order.
fn digest(values: impl IntoIterator<Item = f64>) -> (String, usize) {
    let mut bytes = Vec::new();
    let mut count = 0;
    for v in values {
        bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        count += 1;
    }
    (format!("{:016x}", fnv1a64(&bytes)), count)
}

fn realized<'a>(specs: impl IntoIterator<Item = &'a BenchmarkSpec>) -> Vec<f64> {
    specs
        .into_iter()
        .flat_map(|spec| generate(spec).expect("spec realizes").csd.data().to_vec())
        .collect()
}

#[test]
fn paper_suite_realizes_bit_identically() {
    let specs = paper_specs();
    assert_eq!(
        digest(realized(&specs)),
        ("dd01de42c1335fa1".to_string(), 191_907)
    );
}

#[test]
fn zoo_realizes_bit_identically() {
    let zoo = zoo_specs(1, DEFAULT_ZOO_SEED);
    assert_eq!(
        digest(realized(zoo.iter().map(|z| &z.spec))),
        ("d71401c84140b3b0".to_string(), 83_814)
    );
}

#[test]
fn triple_dot_currents_are_bit_identical() {
    let device = DeviceBuilder::linear_array(3)
        .build_array()
        .expect("default chain builds");
    let currents = (0..16).flat_map(|i| {
        let device = &device;
        (0..16).map(move |j| {
            device
                .current(&[8.0 * i as f64, 8.0 * j as f64, 40.0])
                .expect("3 gate voltages")
        })
    });
    assert_eq!(digest(currents), ("252cd31eec5d34f0".to_string(), 256));
}
