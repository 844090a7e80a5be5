//! Criterion micro-benchmarks of the physics substrate: per-probe device
//! evaluation (the cost of every simulated `getCurrent`), one full window
//! of it, ground-state search, thermal mixing, and full benchmark-diagram
//! generation.
//!
//! These quantify the simulator's own speed — relevant because the
//! extraction benchmarks evaluate the device once per probed pixel.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qd_dataset::generator::{build_device, window_for};
use qd_dataset::{generate, random_specs, BenchmarkSpec};
use qd_physics::{ChargeStateSolver, DeviceBuilder};
use std::hint::black_box;

fn bench_device_eval(c: &mut Criterion) {
    let device = DeviceBuilder::double_dot()
        .build_array()
        .expect("device builds");
    c.bench_function("physics/current_double_dot", |b| {
        b.iter(|| black_box(device.current(black_box(&[40.0, 45.0]))));
    });

    let triple = DeviceBuilder::linear_array(3)
        .build_array()
        .expect("device builds");
    c.bench_function("physics/current_triple_dot", |b| {
        b.iter(|| black_box(triple.current(black_box(&[40.0, 45.0, 35.0]))));
    });

    let solver = ChargeStateSolver;
    let model = device.capacitance_model();
    c.bench_function("physics/ground_state", |b| {
        b.iter(|| black_box(solver.ground_state(model, black_box(&[40.0, 45.0]))));
    });
    c.bench_function("physics/thermal_occupation", |b| {
        b.iter(|| black_box(solver.thermal_occupation(model, black_box(&[40.0, 45.0]), 0.002)));
    });
}

/// `current` over every pixel of a healthy 200-px window: the pixels a
/// cold Hough job realizes, with the mix of near-line and far-from-line
/// voltages (and so of skipped Boltzmann weights) a real window has.
fn bench_window(c: &mut Criterion) {
    let spec = random_specs(3, 1).pop().expect("three specs");
    assert_eq!(spec.size, 200, "random_specs cycles 63/100/200");
    let device = build_device(&spec).expect("healthy spec builds");
    let grid = window_for(&spec, &device).expect("healthy spec has a window");
    let voltages: Vec<[f64; 2]> = (0..grid.height())
        .flat_map(|y| (0..grid.width()).map(move |x| grid.voltage_of(x, y).into()))
        .collect();
    c.bench_function("physics/current_window_200x200", |b| {
        b.iter(|| {
            let mut sum = 0.0;
            for v in &voltages {
                sum += device.current(black_box(v)).expect("two gates");
            }
            black_box(sum)
        });
    });
}

fn bench_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("physics/generate_benchmark");
    group.sample_size(10);
    for size in [63usize, 100] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{size}x{size}")),
            &size,
            |b, &size| {
                let spec = BenchmarkSpec::clean(1, size);
                b.iter(|| black_box(generate(&spec)));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_device_eval, bench_window, bench_generation);
criterion_main!(benches);
