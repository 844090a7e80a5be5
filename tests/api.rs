//! Integration tests for the unified extraction API: trait-object
//! dispatch across every shipped method, pipeline/observer event
//! ordering and completeness, and the structured `ExtractError`
//! taxonomy.

use fastvg::prelude::*;
use std::error::Error as _;
use std::sync::{Arc, Mutex};

/// Every shipped method runs through `Box<dyn Extractor>` on a paper
/// benchmark and reports the unified outcome.
#[test]
fn trait_object_dispatch_covers_all_methods() {
    let bench = paper_benchmark(6).expect("benchmark generates");
    let methods: Vec<Box<dyn Extractor>> = vec![
        Box::new(FastExtractor::new()),
        Box::new(HoughBaseline::new()),
        Box::new(TuningLoop::new()),
    ];
    let criteria = SuccessCriteria::default();

    for method in &methods {
        let mut session = MeasurementSession::new(CsdSource::new(bench.csd.clone()));
        let report = extract_with(method.as_ref(), &mut session)
            .unwrap_or_else(|e| panic!("{} failed: {e}", method.method()));
        assert_eq!(report.method, method.method());
        assert!(
            criteria.judge(report.alpha12(), report.alpha21(), &bench.truth),
            "{}: alphas off truth ({:.3}, {:.3})",
            report.method,
            report.alpha12(),
            report.alpha21()
        );
        assert_eq!(report.probes, session.probe_count());
        assert!(!report.stages.is_empty(), "{}: no stages", report.method);
        assert_eq!(
            report.probes,
            report.stages.iter().map(|s| s.probes).sum::<usize>(),
            "{}: stage probe accounting must add up",
            report.method
        );
        // The typed trace rides inside the unified report.
        match report.method {
            Method::HoughBaseline => assert!(report.details.baseline().is_some()),
            _ => assert!(report.details.fast().is_some()),
        }
    }
}

/// The fast method probes a fraction of what the baseline probes — the
/// paper's headline — and the unified reports expose it uniformly.
#[test]
fn unified_reports_preserve_the_papers_contrast() {
    let bench = paper_benchmark(6).expect("benchmark generates");
    let run = |e: &dyn Extractor| {
        let mut session = MeasurementSession::new(CsdSource::new(bench.csd.clone()));
        extract_with(e, &mut session).expect("clean benchmark extracts")
    };
    let fast = run(&FastExtractor::new());
    let base = run(&HoughBaseline::new());
    assert!(fast.coverage < 0.25);
    assert!((base.coverage - 1.0).abs() < 1e-12);
    assert!(fast.probes * 4 < base.probes);
    assert!(fast.total_runtime() < base.total_runtime());
}

/// Observer event stream: starts with `on_start`, ends with
/// `on_complete`, stages nest and pair up, and exactly one costed probe
/// event fires per dwell-costing probe.
#[derive(Default)]
struct Recorder {
    events: Mutex<Vec<String>>,
}

impl Observer for Recorder {
    fn on_start(&self, method: Method) {
        self.events.lock().unwrap().push(format!("start {method}"));
    }
    fn on_stage_start(&self, stage: Stage) {
        self.events.lock().unwrap().push(format!("+{stage}"));
    }
    fn on_probe(&self, probe: &ProbeObservation) {
        if probe.costed {
            self.events.lock().unwrap().push("p".into());
        }
    }
    fn on_stage_end(&self, timing: &StageTiming) {
        self.events
            .lock()
            .unwrap()
            .push(format!("-{}", timing.stage));
    }
    fn on_attempt_start(&self, attempt: usize, total: usize) {
        self.events
            .lock()
            .unwrap()
            .push(format!("attempt {attempt}/{total}"));
    }
    fn on_complete(&self, _report: &ExtractionReport) {
        self.events.lock().unwrap().push("complete".into());
    }
    fn on_error(&self, _error: &ExtractError) {
        self.events.lock().unwrap().push("error".into());
    }
}

#[test]
fn observer_events_are_ordered_and_complete() {
    let bench = paper_benchmark(6).expect("benchmark generates");
    let recorder = Arc::new(Recorder::default());
    let pipeline = Pipeline::fast()
        .with_retry(TuningLoop::new())
        .with_observer(recorder.clone())
        .build();
    let mut session = MeasurementSession::new(CsdSource::new(bench.csd.clone()));
    let report = pipeline.run(&mut session).expect("pipeline extracts");

    let events = recorder.events.lock().unwrap();
    assert_eq!(events.first().map(String::as_str), Some("start Tuned Fast"));
    assert_eq!(events.get(1).map(String::as_str), Some("attempt 1/3"));
    assert_eq!(events.last().map(String::as_str), Some("complete"));

    let mut depth = 0usize;
    let mut costed = 0usize;
    let mut stage_pairs = 0usize;
    for e in events.iter() {
        if e == "p" {
            assert!(depth > 0, "probe event outside any stage");
            costed += 1;
        } else if e.starts_with('+') {
            depth += 1;
        } else if e.starts_with('-') {
            assert!(depth > 0, "stage end without matching start");
            depth -= 1;
            stage_pairs += 1;
        }
    }
    assert_eq!(depth, 0, "unbalanced stage events");
    assert_eq!(costed, report.probes, "one costed probe event per probe");
    assert_eq!(stage_pairs, report.stages.len());
    assert_eq!(report.attempts, 1, "clean data succeeds on rung 1");
}

#[test]
fn observer_sees_retries_and_errors_on_hopeless_data() {
    let grid = VoltageGrid::new(0.0, 0.0, 1.0, 64, 64).expect("grid");
    let flat = Csd::constant(grid, 1.0).expect("csd");
    let recorder = Arc::new(Recorder::default());
    let pipeline = Pipeline::tuned().with_observer(recorder.clone()).build();
    let mut session = MeasurementSession::new(CsdSource::new(flat));
    assert!(pipeline.run(&mut session).is_err());

    let events = recorder.events.lock().unwrap();
    assert_eq!(events.last().map(String::as_str), Some("error"));
    let attempts = events.iter().filter(|e| e.starts_with("attempt")).count();
    assert_eq!(attempts, 3, "all three rungs must be attempted");
}

/// The `ExtractError` taxonomy: constructors land in their category,
/// `Display` leads with it, and `source()` chains reach the originating
/// lower-crate errors.
#[test]
fn error_taxonomy_display_and_source_round_trip() {
    let cases: Vec<(ExtractError, ErrorCategory)> = vec![
        (ExtractError::window_too_small(20, 4), ErrorCategory::Probe),
        (
            ExtractError::degenerate_anchors((3, 3), (3, 3)),
            ErrorCategory::Geometry,
        ),
        (
            ExtractError::too_few_transition_points(0, 4),
            ErrorCategory::Geometry,
        ),
        (
            ExtractError::unphysical_slopes(0.5, -0.1),
            ErrorCategory::Fit,
        ),
        (ExtractError::low_contrast(0.1, 0.8), ErrorCategory::Verify),
    ];
    for (e, category) in &cases {
        assert_eq!(e.category(), *category, "{e}");
        assert!(
            e.to_string().starts_with(&category.to_string()),
            "display {e:?} must lead with {category}"
        );
        // Level 1 of the chain is the taxonomy sub-error whose message
        // is embedded in the top-level display.
        let inner = e.source().expect("taxonomy level present");
        assert!(
            e.to_string().contains(&inner.to_string()),
            "outer display should embed {inner}"
        );
    }

    // Real pipeline failures land in the right categories.
    let tiny_grid = VoltageGrid::new(0.0, 0.0, 1.0, 12, 12).expect("grid");
    let tiny = Csd::from_fn(tiny_grid, |v1, v2| v1 + v2).expect("csd");
    let mut session = MeasurementSession::new(CsdSource::new(tiny));
    let err = FastExtractor::new().extract(&mut session).unwrap_err();
    assert_eq!(err.category(), ErrorCategory::Probe);
    assert!(matches!(
        err,
        ExtractError::Probe(ProbeError::WindowTooSmall { min: _, got: 12 })
    ));

    let flat_grid = VoltageGrid::new(0.0, 0.0, 1.0, 64, 64).expect("grid");
    let flat = Csd::constant(flat_grid, 1.0).expect("csd");
    let mut session = MeasurementSession::new(CsdSource::new(flat));
    let err = FastExtractor::new().extract(&mut session).unwrap_err();
    assert_eq!(err.category(), ErrorCategory::Geometry);
}

/// Wrapped lower-crate errors chain through two `source()` levels to the
/// original error value.
#[test]
fn error_sources_chain_to_lower_crates() {
    let e = ExtractError::from(fastvg::vision::VisionError::NoEdges);
    assert_eq!(e.category(), ErrorCategory::Geometry);
    let level2 = e
        .source()
        .and_then(|s| s.source())
        .expect("two-level chain");
    assert!(level2
        .downcast_ref::<fastvg::vision::VisionError>()
        .is_some());

    let n = ExtractError::from(fastvg::numerics::NumericsError::EmptyInput);
    assert_eq!(n.category(), ErrorCategory::Fit);
    assert!(n
        .source()
        .and_then(|s| s.source())
        .and_then(|s| s.downcast_ref::<fastvg::numerics::NumericsError>())
        .is_some());
}

/// `BatchExtractor` accepts any extractor; results through the erased
/// batch path are bit-identical to a direct typed extraction.
#[test]
fn batch_runs_any_extractor_deterministically() {
    let suite: Vec<GeneratedBenchmark> = (3..=6)
        .map(|i| paper_benchmark(i).expect("benchmark generates"))
        .collect();
    let runner = BatchExtractor::new().with_jobs(2);
    let session = |i: usize| MeasurementSession::new(CsdSource::new(suite[i].csd.clone()));

    let batched = runner.run(&FastExtractor::new(), suite.len(), session);
    for (i, b) in batched.iter().enumerate() {
        let mut direct_session = session(i);
        let direct = FastExtractor::new().extract(&mut direct_session);
        assert_eq!(direct_session.probe_count(), b.probes);
        assert_eq!(direct_session.scatter(), b.scatter);
        match (&direct, &b.outcome) {
            (Ok(d), Ok(r)) => {
                assert_eq!(d.slope_h.to_bits(), r.slope_h.to_bits());
                assert_eq!(d.slope_v.to_bits(), r.slope_v.to_bits());
            }
            (Err(d), Err(r)) => assert_eq!(d.to_string(), r.to_string()),
            _ => panic!("direct and batched outcomes diverged"),
        }
    }

    // A retry-laddered pipeline drops into the same batch path.
    let pipeline = Pipeline::tuned().build();
    let outcomes = runner.run(&pipeline, suite.len(), session);
    assert!(outcomes.iter().all(|o| o.is_ok()));
}
