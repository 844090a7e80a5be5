//! Criterion micro-benchmarks of the baseline vision pipeline: Gaussian
//! blur, Sobel, Canny and the Hough transform on 100×100 and 200×200
//! diagrams — the compute that the paper's baseline spends after its full
//! acquisition, with the parameters the baseline (and so the daemon) runs:
//! `BaselineConfig::default()`'s absolute Canny thresholds and Hough peak
//! fraction.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fastvg_core::baseline::BaselineConfig;
use qd_dataset::paper_benchmark;
use qd_vision::blur::gaussian_blur;
use qd_vision::canny::canny;
use qd_vision::hough::hough_lines;
use qd_vision::sobel::sobel;
use std::hint::black_box;

fn bench_vision(c: &mut Criterion) {
    let config = BaselineConfig::default();
    for index in [6usize, 12] {
        let bench = paper_benchmark(index).expect("benchmark generates");
        let csd = bench.csd;
        let size = bench.spec.size;
        let id = |stage: &str| BenchmarkId::new(stage, format!("{size}x{size}"));

        c.bench_with_input(id("vision/gaussian_blur"), &csd, |b, csd| {
            b.iter(|| {
                black_box(gaussian_blur(
                    csd,
                    config.canny.blur_ksize,
                    config.canny.blur_sigma,
                ))
            });
        });
        c.bench_with_input(id("vision/sobel"), &csd, |b, csd| {
            b.iter(|| black_box(sobel(csd)));
        });
        c.bench_with_input(id("vision/canny"), &csd, |b, csd| {
            b.iter(|| black_box(canny(csd, config.canny)));
        });
        let edges = canny(&csd, config.canny).expect("edges");
        c.bench_with_input(id("vision/hough"), &edges, |b, edges| {
            b.iter(|| black_box(hough_lines(edges, config.hough)));
        });
    }
}

criterion_group!(benches, bench_vision);
criterion_main!(benches);
