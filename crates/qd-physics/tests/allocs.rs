//! Heap traffic of per-pixel device evaluation.
//!
//! Realizing a diagram calls `current` once per pixel, so any allocation
//! there is paid tens of thousands of times per scenario. The kernel keeps
//! its scratch on the stack: allocations per call must not grow with the
//! number of charge configurations, and for `current` they are zero.

use qd_physics::{DeviceBuilder, LinearArrayDevice};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

thread_local! {
    // `const` initialization with no destructor: safe to touch from
    // inside the allocator.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator with a per-thread allocation counter, so other
/// test threads cannot pollute a measurement.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter bump allocates
// nothing and cannot unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

const CALLS: u64 = 64;

/// Mean allocations per call of `f` over a row of gate-voltage points.
fn allocs_per_call(n_gates: usize, mut f: impl FnMut(&[f64])) -> u64 {
    let points: Vec<Vec<f64>> = (0..CALLS)
        .map(|k| {
            let mut v = vec![40.0; n_gates];
            v[0] = 1.5 * k as f64;
            v
        })
        .collect();
    let before = ALLOCS.with(Cell::get);
    for v in &points {
        f(black_box(v));
    }
    (ALLOCS.with(Cell::get) - before) / CALLS
}

#[test]
fn per_pixel_allocations_do_not_scale_with_configurations() {
    let devices: [(&str, LinearArrayDevice); 2] = [
        (
            "double dot, 16 configurations (pair kernel)",
            DeviceBuilder::double_dot().build_array().unwrap(),
        ),
        (
            "triple dot, 64 configurations (odometer walk)",
            DeviceBuilder::linear_array(3).build_array().unwrap(),
        ),
    ];
    for (label, device) in &devices {
        let gates = device.n_dots();
        let current = allocs_per_call(gates, |v| {
            black_box(device.current(v).unwrap());
        });
        // The returned vector is the only allocation of the other two.
        let mean = allocs_per_call(gates, |v| {
            black_box(device.mean_occupation(v).unwrap());
        });
        let ground = allocs_per_call(gates, |v| {
            black_box(device.ground_state(v).unwrap());
        });
        assert_eq!(
            (current, mean, ground),
            (0, 1, 1),
            "{label}: allocations per current / mean_occupation / ground_state call"
        );
    }
}
