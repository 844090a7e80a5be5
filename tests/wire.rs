//! Tier-1 wire round-trips: every document the protocol transmits —
//! [`ExtractionReport`], every [`ExtractError`] category via
//! [`WireFailure`], benchmark specs — serializes and parses back
//! losslessly through `fastvg::wire::Json`, and hostile spec documents
//! are rejected or realize without a panic.

use fastvg::csd::PixelField;
use fastvg::dataset::wire::{MAX_SPEC_SIZE, MIN_SPEC_SIZE};
use fastvg::dataset::{DatasetError, DeviceField};
use fastvg::prelude::*;
use proptest::prelude::*;

fn session_for(bench: &GeneratedBenchmark) -> MeasurementSession<CsdSource> {
    MeasurementSession::new(CsdSource::new(bench.csd.clone()))
}

#[test]
fn every_method_report_round_trips_losslessly() {
    let bench = paper_benchmark(6).expect("paper benchmark");
    let methods: Vec<Box<dyn Extractor>> = vec![
        Box::new(FastExtractor::new()),
        Box::new(HoughBaseline::new()),
        Box::new(TuningLoop::new()),
    ];
    for method in &methods {
        let mut session = session_for(&bench);
        let report = extract_with(method.as_ref(), &mut session).expect("extraction");

        let text = report.to_json().dump();
        let back = ExtractionReport::from_json(&Json::parse(&text).unwrap()).unwrap();

        // Every transmitted field survives bit-for-bit.
        assert_eq!(back.method, report.method);
        assert_eq!(back.slope_h.to_bits(), report.slope_h.to_bits());
        assert_eq!(back.slope_v.to_bits(), report.slope_v.to_bits());
        assert_eq!(back.matrix, report.matrix);
        assert_eq!(back.alpha12().to_bits(), report.alpha12().to_bits());
        assert_eq!(back.probes, report.probes);
        assert_eq!(back.unique_pixels, report.unique_pixels);
        assert_eq!(back.coverage.to_bits(), report.coverage.to_bits());
        assert_eq!(back.simulated_dwell, report.simulated_dwell);
        assert_eq!(back.compute_time, report.compute_time);
        assert_eq!(back.attempts, report.attempts);
        assert_eq!(back.retry_failures, report.retry_failures);
        assert_eq!(back.stages, report.stages);
        assert_eq!(
            back.details,
            ExtractionDetails::Summary(report.details.summarize())
        );
        // A parsed report is a fixpoint: re-serialization is identical.
        assert_eq!(back.to_json().dump(), text, "{}", report.method);
    }
}

#[test]
fn every_error_category_round_trips_with_flattened_chain() {
    // One representative error per taxonomy category, including ones
    // whose source() chain reaches the lower crates.
    let errors: Vec<ExtractError> = vec![
        ExtractError::window_too_small(20, 5),
        ExtractError::degenerate_anchors((1, 2), (3, 4)),
        ExtractError::too_few_transition_points(1, 4),
        ExtractError::unphysical_slopes(0.5, -0.1),
        ExtractError::low_contrast(0.12, 0.8),
        ExtractError::from(fastvg::vision::VisionError::NoEdges),
        ExtractError::from(fastvg::numerics::NumericsError::EmptyInput),
    ];
    let mut seen = std::collections::HashSet::new();
    for error in &errors {
        let wire = error.to_wire();
        seen.insert(wire.category);

        // The chain flattens the full source() walk, message by message.
        let mut expected = Vec::new();
        let mut cursor = std::error::Error::source(error);
        while let Some(e) = cursor {
            expected.push(e.to_string());
            cursor = e.source();
        }
        assert_eq!(wire.chain, expected, "{error}");
        assert_eq!(wire.message, error.to_string());

        let text = wire.to_json().dump();
        let back = WireFailure::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, wire, "{error}");
        assert_eq!(back.to_json().dump(), text);
    }
    assert_eq!(seen.len(), 4, "all four categories exercised");
}

#[test]
fn specs_and_stage_timings_round_trip() {
    for spec in fastvg::dataset::paper_specs() {
        let text = spec.to_json().dump();
        let back = BenchmarkSpec::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.size, spec.size);
        assert_eq!(back.seed, spec.seed);
        assert_eq!(back.lever_arms, spec.lever_arms);
        assert_eq!(back.noise, spec.noise);
    }
    let timing = StageTiming {
        stage: Stage::RowSweep,
        probes: 321,
        elapsed: std::time::Duration::from_nanos(123_456_789),
    };
    let back = StageTiming::from_json(&Json::parse(&timing.to_json().dump()).unwrap()).unwrap();
    assert_eq!(back, timing);
}

#[test]
fn wire_tokens_are_stable() {
    // The protocol document pins these strings; breaking them breaks
    // deployed clients.
    assert_eq!(Method::FastExtraction.wire_name(), "fast");
    assert_eq!(Method::HoughBaseline.wire_name(), "hough");
    assert_eq!(Method::TunedFast.wire_name(), "tuned");
    assert_eq!(ErrorCategory::Probe.name(), "probe");
    assert_eq!(ErrorCategory::Geometry.name(), "geometry");
    assert_eq!(ErrorCategory::Fit.name(), "fit");
    assert_eq!(ErrorCategory::Verify.name(), "verify");
    assert_eq!(Stage::Anchors.name(), "anchors");
    assert_eq!(Stage::RowSweep.name(), "row-sweep");
}

/// SplitMix64 over one test case's seed: every draw of the case.
struct Draws(u64);

impl Draws {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn coin(&mut self) -> bool {
        self.next() >> 63 == 0
    }

    fn pick<T: Clone>(&mut self, from: &[T]) -> T {
        from[(self.next() % from.len() as u64) as usize].clone()
    }

    /// A float with uniformly random bits in `[0, hi]`: subnormals and
    /// every exponent up to `hi`'s, not just the decimal values a range
    /// would give.
    fn bits_up_to(&mut self, hi: f64) -> f64 {
        f64::from_bits(self.next() % (hi.to_bits() + 1))
    }

    /// A valid value for a spec member that must be positive.
    fn positive(&mut self) -> f64 {
        f64::from_bits(1 + self.next() % f64::MAX.to_bits())
    }

    /// A valid value in `[0, hi]`, `−0` included.
    fn non_negative(&mut self, hi: f64) -> f64 {
        if self.next().is_multiple_of(8) {
            -0.0
        } else {
            self.bits_up_to(hi)
        }
    }
}

/// `spec` with every float member redrawn from the whole range the wire
/// schema accepts.
fn redraw(mut spec: BenchmarkSpec, d: &mut Draws) -> BenchmarkSpec {
    spec.lever_arms = [
        [d.positive(), d.non_negative(f64::MAX)],
        [d.non_negative(f64::MAX), d.positive()],
    ];
    spec.mutual = d.non_negative(1.0);
    spec.temperature = d.positive();
    spec.contrast = d.positive();
    spec.noise = NoiseRecipe {
        white_sigma: d.non_negative(f64::MAX),
        drift_step: d.non_negative(f64::MAX),
        drift_relaxation: d.non_negative(1.0f64.next_down()),
        telegraph_amplitude: d.non_negative(f64::MAX),
        telegraph_probability: d.non_negative(1.0),
    };
    spec
}

/// Everything a spec transmits, floats as bits.
fn wire_bits(spec: &BenchmarkSpec) -> Vec<u64> {
    let n = &spec.noise;
    let floats = [
        spec.lever_arms[0][0],
        spec.lever_arms[0][1],
        spec.lever_arms[1][0],
        spec.lever_arms[1][1],
        spec.mutual,
        spec.temperature,
        spec.contrast,
        n.white_sigma,
        n.drift_step,
        n.drift_relaxation,
        n.telegraph_amplitude,
        n.telegraph_probability,
    ];
    [spec.index as u64, spec.size as u64, spec.seed]
        .into_iter()
        .chain(floats.iter().map(|v| v.to_bits()))
        .collect()
}

/// Extreme member values for hostile documents.
const EXTREMES: [f64; 12] = [
    0.0, -0.0, 1e-320, -1e-320, 1e300, -1e300, 1.7e308, -1.7e308, 0.5, -0.5, 1.0, 3.0,
];

/// A hostile spec document: every member present or not, each an extreme
/// value, `size` in and out of range or not an integer.
fn hostile_document(d: &mut Draws) -> Json {
    let mut doc = Json::object();
    // Half the documents get a size that passes, so the other members
    // decide whether they realize.
    let size = if d.coin() {
        Json::Int(d.pick(&[MIN_SPEC_SIZE, 24]) as i128)
    } else {
        d.pick(&[
            Json::Int(0),
            Json::Int(-1),
            Json::Int(MIN_SPEC_SIZE as i128 - 1),
            Json::Int(MAX_SPEC_SIZE as i128 + 1),
            Json::Int(1 << 40),
            Json::num(16.0),
            Json::num(2.5),
            Json::num(1e300),
            Json::num(-0.0),
        ])
    };
    doc = doc.field("size", size);
    let extreme = |d: &mut Draws| Json::num(d.pick(&EXTREMES));
    for key in ["mutual", "temperature", "contrast"] {
        if d.coin() {
            doc = doc.field(key, extreme(d));
        }
    }
    if d.coin() {
        let row = |d: &mut Draws| Json::Arr(vec![extreme(d), extreme(d)]);
        doc = doc.field("lever_arms", Json::Arr(vec![row(d), row(d)]));
    }
    if d.coin() {
        let mut noise = Json::object();
        for key in [
            "white_sigma",
            "drift_step",
            "drift_relaxation",
            "telegraph_amplitude",
            "telegraph_probability",
        ] {
            if d.coin() {
                noise = noise.field(key, extreme(d));
            }
        }
        doc = doc.field("noise", noise.build());
    }
    if d.coin() {
        doc = doc.field(
            "seed",
            d.pick(&[Json::Int(-1), Json::num(1.5), Json::Int(u64::MAX as i128)]),
        );
    }
    doc.build()
}

proptest! {
    /// Valid specs — the seed's random and zoo specs with every float
    /// member redrawn — survive `dump` → `from_json` with every bit, and
    /// their canonical form, which the daemon's cache fingerprints hash,
    /// is a fixed point.
    #[test]
    fn specs_round_trip_bit_for_bit(seed in 0u64..u64::MAX) {
        let mut d = Draws(seed);
        let mut specs = random_specs(3, seed);
        specs.extend(zoo_specs(1, seed).into_iter().map(|z| z.spec));
        for (k, spec) in specs.into_iter().enumerate() {
            let spec = redraw(spec, &mut d);
            let text = spec.to_json().dump();
            let back = BenchmarkSpec::from_json(&Json::parse(&text).expect("dump parses"));
            prop_assert!(back.is_ok(), "seed {} spec {}: {} rejected: {:?}", seed, k, text, back);
            prop_assert_eq!(
                wire_bits(&back.unwrap()),
                wire_bits(&spec),
                "seed {} spec {}: {}", seed, k, text
            );
            let canonical = spec.to_json().canonical();
            let again = BenchmarkSpec::from_json(&Json::parse(&canonical).expect("canonical parses"))
                .expect("canonical form is a valid spec");
            prop_assert_eq!(
                again.to_json().canonical(),
                canonical.clone(),
                "seed {} spec {}", seed, k
            );
        }
    }

    /// Hostile spec documents either fail `from_json` with `InvalidSpec`,
    /// or realize: `DeviceField::new` builds a field whose pixel lattice
    /// reads without a panic, or fails with a typed `DatasetError`.
    #[test]
    fn hostile_specs_are_rejected_or_realize(seed in 0u64..u64::MAX) {
        let mut d = Draws(seed);
        for k in 0..8 {
            let doc = hostile_document(&mut d);
            let spec = match BenchmarkSpec::from_json(&doc) {
                Err(DatasetError::InvalidSpec { .. }) => continue,
                Err(other) => {
                    return Err(TestCaseError::fail(format!(
                        "seed {seed} doc {k}: {} failed untyped: {other}",
                        doc.dump()
                    )));
                }
                Ok(spec) => spec,
            };
            let Ok(field) = DeviceField::new(&spec) else {
                continue; // a typed `DatasetError`
            };
            let (w, h) = (field.grid().width(), field.grid().height());
            prop_assert!(w == spec.size && h == spec.size, "seed {} doc {}", seed, k);
            for y in (0..h).step_by(h.div_ceil(16)) {
                for x in (0..w).step_by(w.div_ceil(16)) {
                    std::hint::black_box(field.at(x, y));
                }
            }
        }
    }
}
