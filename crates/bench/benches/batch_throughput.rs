//! Criterion macro-benchmark for the batch-extraction engine:
//! suite-level throughput, serial vs parallel, on the 12-benchmark suite.
//!
//! Two regimes are measured:
//!
//! * **`throttled/*`** — each probe pays a real 50 µs dwell (1/1000 of
//!   the paper's 50 ms instrument dwell) via
//!   [`qd_instrument::ThrottledSource`]. This is the production shape of
//!   the workload: extraction is latency-bound on the instrument, the
//!   host CPU is idle during dwells, and batching across devices
//!   overlaps those dwells. Speedup here is real even on a single core.
//! * **`compute/*`** — replayed sources with zero dwell, measuring pure
//!   algorithmic throughput. Speedup here tracks the machine's core
//!   count (≈ 1× on a 1-core container, ≈ N× on N cores) because every
//!   job is CPU-bound.
//!
//! Extraction results are bit-identical across all `jobs` values (the
//! workspace's `batch_determinism` test asserts this over the same
//! suite); only wall-clock differs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fastvg_core::batch::BatchExtractor;
use fastvg_core::extraction::FastExtractor;
use qd_dataset::{paper_suite_jobs, GeneratedBenchmark};
use qd_instrument::{CsdSource, MeasurementSession, ThrottledSource};
use std::hint::black_box;
use std::time::Duration;

/// Emulated per-probe instrument dwell: 1/1000 of the paper's 50 ms.
const DWELL: Duration = Duration::from_micros(50);

fn suite() -> Vec<GeneratedBenchmark> {
    paper_suite_jobs(mini_rayon::available_workers()).expect("paper suite generates")
}

fn bench_throttled(c: &mut Criterion) {
    let suite = suite();
    let mut group = c.benchmark_group("batch_throughput/throttled");
    group.sample_size(10);
    for jobs in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("jobs{jobs}")),
            &jobs,
            |b, &jobs| {
                let runner = BatchExtractor::new().with_jobs(jobs);
                b.iter(|| {
                    let outcomes = runner.run(&FastExtractor::new(), suite.len(), |i| {
                        MeasurementSession::new(ThrottledSource::new(
                            CsdSource::new(suite[i].csd.clone()),
                            DWELL,
                        ))
                    });
                    assert_eq!(outcomes.len(), suite.len());
                    black_box(outcomes)
                });
            },
        );
    }
    group.finish();
}

fn bench_compute(c: &mut Criterion) {
    let suite = suite();
    let mut group = c.benchmark_group("batch_throughput/compute");
    group.sample_size(10);
    for jobs in [1usize, 4] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("jobs{jobs}")),
            &jobs,
            |b, &jobs| {
                let runner = BatchExtractor::new().with_jobs(jobs);
                b.iter(|| {
                    let outcomes = runner.run(&FastExtractor::new(), suite.len(), |i| {
                        MeasurementSession::new(CsdSource::new(suite[i].csd.clone()))
                    });
                    black_box(outcomes)
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_throttled, bench_compute);
criterion_main!(benches);
