//! Determinism contract of the batch layer: `jobs = 1` and `jobs = 4`
//! must produce **bit-identical** extraction results over the full
//! 12-benchmark paper suite — same slopes, same α coefficients, same
//! probe counts, same probe scatters, for both methods. Only wall-clock
//! fields may differ.

use fastvg_bench::run_suite;
use fastvg_core::report::SuccessCriteria;
use qd_dataset::paper_suite_jobs;
use qd_instrument::SimBackend;

// Suite *generation* determinism is asserted where it lives, by
// `qd_dataset::suite::tests::parallel_suite_generation_is_bit_identical`;
// this file owns the extraction-level contract.

#[test]
fn batch_extraction_is_bit_identical_across_jobs() {
    let suite = paper_suite_jobs(4).expect("suite generates");
    let criteria = SuccessCriteria::default();

    let serial = run_suite(&SimBackend, &suite, &criteria, 1);
    let parallel = run_suite(&SimBackend, &suite, &criteria, 4);
    assert_eq!(serial.len(), 12);
    assert_eq!(parallel.len(), 12);

    for (s, p) in serial.iter().zip(&parallel) {
        let idx = s.fast.report.benchmark;

        // Fast extraction: scoring row, probe ledger and raw slopes.
        assert_eq!(s.fast.report.success, p.fast.report.success, "csd {idx}");
        assert_eq!(s.fast.report.probes, p.fast.report.probes, "csd {idx}");
        assert_eq!(
            s.fast.report.alpha12.to_bits(),
            p.fast.report.alpha12.to_bits(),
            "csd {idx}: fast alpha12 diverged"
        );
        assert_eq!(
            s.fast.report.alpha21.to_bits(),
            p.fast.report.alpha21.to_bits(),
            "csd {idx}: fast alpha21 diverged"
        );
        assert_eq!(
            s.fast.scatter, p.fast.scatter,
            "csd {idx}: probe scatter diverged"
        );
        if let (Some(a), Some(b)) = (&s.fast.result, &p.fast.result) {
            assert_eq!(a.slope_h.to_bits(), b.slope_h.to_bits(), "csd {idx}");
            assert_eq!(a.slope_v.to_bits(), b.slope_v.to_bits(), "csd {idx}");
            assert_eq!(a.transition_points, b.transition_points, "csd {idx}");
            assert_eq!(a.probes, b.probes, "csd {idx}");
        } else {
            assert_eq!(
                s.fast.result.is_none(),
                p.fast.result.is_none(),
                "csd {idx}"
            );
        }

        // Baseline: scoring row and probe counts.
        assert_eq!(
            s.baseline.report.success, p.baseline.report.success,
            "csd {idx}"
        );
        assert_eq!(
            s.baseline.report.probes, p.baseline.report.probes,
            "csd {idx}"
        );
        assert_eq!(
            s.baseline.report.alpha12.to_bits(),
            p.baseline.report.alpha12.to_bits(),
            "csd {idx}: baseline alpha12 diverged"
        );
        assert_eq!(
            s.baseline.report.alpha21.to_bits(),
            p.baseline.report.alpha21.to_bits(),
            "csd {idx}: baseline alpha21 diverged"
        );
    }

    // The suite-level summary the CI gate consumes is therefore
    // jobs-independent too.
    let successes =
        |runs: &[fastvg_bench::SuiteRun]| runs.iter().filter(|r| r.fast.report.success).count();
    assert_eq!(successes(&serial), successes(&parallel));
    assert_eq!(successes(&serial), 10, "paper: fast succeeds on 10/12");
}
