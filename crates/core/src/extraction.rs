//! The end-to-end fast virtual gate extraction pipeline (§4).

use crate::anchors::{find_anchors, AnchorConfig, AnchorResult};
use crate::api::{ExtractionReport, Extractor, SessionView, Stage};
use crate::error::FitError;
use crate::fit::{fit_transition_lines_with, FitMethod, SlopeBounds, SlopeFit};
use crate::postprocess::postprocess;
use crate::report::Method;
use crate::sweep::{column_major_sweep, row_major_sweep, SweepConfig, SweepStep};
use crate::ExtractError;
use qd_csd::{Pixel, VirtualizationMatrix};
use qd_instrument::ProbeSession;
use std::time::{Duration, Instant};

/// Configuration of the fast extractor. The defaults reproduce the paper;
/// the switches exist for the ablation studies (DESIGN.md A1–A4).
#[derive(Debug, Clone, PartialEq)]
#[must_use = "a config does nothing until given to an extractor"]
pub struct ExtractorConfig {
    /// Anchor preprocessing settings (§4.4).
    pub anchors: AnchorConfig,
    /// Sweep settings (triangle shrinking on/off).
    pub sweep: SweepConfig,
    /// Run the bottom-to-top row-major sweep.
    pub row_sweep: bool,
    /// Run the left-to-right column-major sweep.
    pub column_sweep: bool,
    /// Apply the Alg. 3 erroneous-point filters before fitting.
    pub postprocess: bool,
    /// Physics bounds the fitted slopes must respect.
    pub bounds: SlopeBounds,
    /// Optimizer for the 2-piece-wise-linear fit (§4.3.3).
    pub fit_method: FitMethod,
    /// Minimum across-to-along contrast ratio of the fitted lines, or
    /// `None` to skip the check. An extension over the paper (which
    /// verified by eye): it rejects featureless ramps whose fitted
    /// "lines" are artefacts of the smooth background. Costs ~16 extra
    /// probes.
    pub contrast_threshold: Option<f64>,
    /// Minimum fraction of transition points that must lie within two
    /// pixels of either fitted line, or `None` to skip the check. Also
    /// an extension over the paper: broken instruments (dead pixels,
    /// telegraph bursts) produce scattered false transition points that
    /// can drag the fit off the genuine lines while still passing the
    /// physics bounds — such a fit has low evidential support. Costs no
    /// probes (pure post-fit analysis).
    pub min_line_support: Option<f64>,
    /// Maximum fraction of probed pixels that may read *exactly* zero
    /// current before the scan is rejected as dead-channel dominated,
    /// or `None` to skip the check. Dead DAC channels and stuck
    /// readouts sit on the zero rail bit-exactly, while genuine device
    /// currents (signal, noise, drift) essentially never do. On a
    /// caching session the audit re-reads only already-probed pixels,
    /// so it costs no probes.
    pub max_zero_fraction: Option<f64>,
}

impl Default for ExtractorConfig {
    fn default() -> Self {
        Self {
            anchors: AnchorConfig::default(),
            sweep: SweepConfig::default(),
            row_sweep: true,
            column_sweep: true,
            postprocess: true,
            bounds: SlopeBounds::default(),
            fit_method: FitMethod::default(),
            contrast_threshold: Some(0.8),
            min_line_support: Some(0.5),
            max_zero_fraction: Some(0.02),
        }
    }
}

/// The fast virtual gate extractor.
///
/// See the [crate-level documentation](crate) for the pipeline and a
/// runnable example.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FastExtractor {
    config: ExtractorConfig,
}

/// Everything the extraction produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtractionResult {
    /// Preprocessing outcome (anchors, diagonal probes, mask responses).
    pub anchors: AnchorResult,
    /// Points produced by the row-major sweep (pre-filter).
    pub row_points: Vec<Pixel>,
    /// Points produced by the column-major sweep (pre-filter).
    pub column_points: Vec<Pixel>,
    /// Per-step sweep traces (Figure 5).
    pub steps: Vec<SweepStep>,
    /// Transition points after post-processing — the fit input.
    pub transition_points: Vec<Pixel>,
    /// The slope fit.
    pub fit: SlopeFit,
    /// Shallow (0,0)→(0,1) line slope, `dV_P2/dV_P1`.
    pub slope_h: f64,
    /// Steep (0,0)→(1,0) line slope.
    pub slope_v: f64,
    /// The virtualization matrix built from the slopes.
    pub matrix: VirtualizationMatrix,
    /// Probes spent (dwell-costing `getCurrent` calls).
    pub probes: usize,
    /// Fraction of the window probed.
    pub coverage: f64,
    /// Simulated dwell time (probes × dwell).
    pub simulated_dwell: Duration,
    /// Wall-clock compute time of the algorithm itself (excludes dwell).
    pub compute_time: Duration,
}

impl ExtractionResult {
    /// Total simulated experiment runtime: dwell plus compute — the
    /// paper's "total runtime" column.
    pub fn total_runtime(&self) -> Duration {
        self.simulated_dwell + self.compute_time
    }

    /// Coefficient `α₁₂ = −1/slope_v` of the virtualization matrix.
    pub fn alpha12(&self) -> f64 {
        self.matrix.alpha12()
    }

    /// Coefficient `α₂₁ = −slope_h`.
    pub fn alpha21(&self) -> f64 {
        self.matrix.alpha21()
    }
}

impl FastExtractor {
    /// An extractor with the paper's default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// An extractor with a custom configuration (ablations).
    pub fn with_config(config: ExtractorConfig) -> Self {
        Self { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &ExtractorConfig {
        &self.config
    }

    /// Runs the full pipeline against a measurement session.
    ///
    /// The session keeps its probe ledger afterwards, so callers can draw
    /// Figure 7-style scatters or compute Table 1 statistics from it.
    /// This is the *typed* entry point; to drive the extractor
    /// method-agnostically (trait objects, observers, retry ladders) go
    /// through [`crate::api::Extractor`] / [`crate::api::Pipeline`].
    ///
    /// # Errors
    ///
    /// Any [`ExtractError`]; on noise-swamped data the typical failures
    /// are [`crate::GeometryError::DegenerateAnchors`] (preprocessing
    /// found no lines) and [`crate::FitError::UnphysicalSlopes`] (the
    /// fit collapsed).
    pub fn extract(
        &self,
        session: &mut dyn ProbeSession,
    ) -> Result<ExtractionResult, ExtractError> {
        self.extract_staged(&mut SessionView::detached(session))
    }

    /// The pipeline proper, with stage bracketing recorded in the view.
    pub(crate) fn extract_staged(
        &self,
        session: &mut SessionView<'_>,
    ) -> Result<ExtractionResult, ExtractError> {
        let started = Instant::now();
        let probes_before = session.probe_count();

        // §4.4: anchors.
        session.begin_stage(Stage::Anchors);
        let anchors = find_anchors(session, &self.config.anchors);
        session.end_stage();
        let anchors = anchors?;
        let region = anchors.region()?;

        // §4.3.2: sweeps.
        let mut steps = Vec::new();
        let mut row_points = Vec::new();
        let mut column_points = Vec::new();
        if self.config.row_sweep {
            session.begin_stage(Stage::RowSweep);
            let r = row_major_sweep(session, region, &self.config.sweep);
            session.end_stage();
            row_points = r.points;
            steps.extend(r.steps);
        }
        if self.config.column_sweep {
            session.begin_stage(Stage::ColumnSweep);
            let c = column_major_sweep(session, region, &self.config.sweep);
            session.end_stage();
            column_points = c.points;
            steps.extend(c.steps);
        }

        // Extension: probe-health audit. With the sweeps done the
        // ledger holds the bulk of the scan; if too much of it sits
        // bit-exactly on the zero rail the instrument — not the device
        // — dominates, and any fit downstream would be fiction. The
        // audit re-reads probed pixels through the session cache, so
        // it costs no probes.
        if let Some(threshold) = self.config.max_zero_fraction {
            let fraction = zero_rail_fraction(session);
            if fraction > threshold {
                return Err(ExtractError::stuck_at_zero(fraction, threshold));
            }
        }

        // Alg. 3: post-processing.
        session.begin_stage(Stage::Postprocess);
        let mut combined: Vec<Pixel> = row_points.iter().chain(&column_points).copied().collect();
        let transition_points = if self.config.postprocess {
            postprocess(&combined)
        } else {
            combined.sort();
            combined.dedup();
            combined
        };
        session.end_stage();

        // §4.3.3: fit and virtualization matrix.
        session.begin_stage(Stage::Fit);
        let fit = fit_transition_lines_with(
            anchors.a1,
            anchors.a2,
            &transition_points,
            &self.config.bounds,
            self.config.fit_method,
        );
        session.end_stage();
        let fit = fit?;
        let matrix = VirtualizationMatrix::from_slopes(fit.slope_h, fit.slope_v)
            .map_err(|e| ExtractError::Fit(FitError::Matrix(e)))?;

        // Extensions: post-fit verification (the paper verified by
        // eye). The free line-support check runs first, the probing
        // contrast check second.
        if self.config.min_line_support.is_some() || self.config.contrast_threshold.is_some() {
            session.begin_stage(Stage::Verify);
            let mut failure = None;
            if let Some(threshold) = self.config.min_line_support {
                let support = line_support(&fit, &transition_points);
                if support < threshold {
                    failure = Some(ExtractError::scattered_fit(support, threshold));
                }
            }
            if failure.is_none() {
                if let Some(threshold) = self.config.contrast_threshold {
                    let ratio = contrast_ratio(session, &anchors, &fit);
                    if ratio.is_nan() || ratio < threshold {
                        failure = Some(ExtractError::low_contrast(ratio, threshold));
                    }
                }
            }
            session.end_stage();
            if let Some(e) = failure {
                return Err(e);
            }
        }

        Ok(ExtractionResult {
            slope_h: fit.slope_h,
            slope_v: fit.slope_v,
            anchors,
            row_points,
            column_points,
            steps,
            transition_points,
            fit,
            matrix,
            probes: session.probe_count() - probes_before,
            coverage: session.coverage(),
            simulated_dwell: session.simulated_dwell(),
            compute_time: started.elapsed(),
        })
    }
}

impl Extractor for FastExtractor {
    fn method(&self) -> Method {
        Method::FastExtraction
    }

    fn extract(&self, session: &mut SessionView<'_>) -> Result<ExtractionReport, ExtractError> {
        match self.extract_staged(session) {
            Ok(result) => Ok(ExtractionReport::from_fast(result, session)),
            Err(e) => {
                let _ = session.take_stages();
                Err(e)
            }
        }
    }
}

/// Across-to-along contrast of the fitted lines: mean current drop when
/// stepping two pixels across each segment, divided by the standard
/// deviation of the current along the segments. Genuine transition
/// lines score ≫ 1; smooth ramps score ≪ 1.
/// Fraction of transition points within two pixels of either fitted
/// line (see `ExtractorConfig::min_line_support`). Genuine fits hug the
/// lines they were fitted to; a fit dragged off by scattered false
/// positives leaves most of its own evidence stranded.
fn line_support(fit: &SlopeFit, points: &[Pixel]) -> f64 {
    const RADIUS: f64 = 2.0;
    if points.is_empty() {
        return 0.0;
    }
    let (cx, cy) = fit.intersection;
    let near = |slope: f64, p: &Pixel| {
        let d =
            (slope * (p.x as f64 - cx) - (p.y as f64 - cy)).abs() / (1.0 + slope * slope).sqrt();
        d <= RADIUS
    };
    let hits = points
        .iter()
        .filter(|p| near(fit.slope_h, p) || near(fit.slope_v, p))
        .count();
    hits as f64 / points.len() as f64
}

/// Fraction of probed pixels whose reading is exactly `0.0` — the
/// dead-channel rail (see `ExtractorConfig::max_zero_fraction`). Every
/// re-read is a session cache hit: no dwell, no new ledger entry.
fn zero_rail_fraction<P: ProbeSession + ?Sized>(session: &mut P) -> f64 {
    let w = session.window();
    let scatter = session.scatter();
    if scatter.is_empty() {
        return 0.0;
    }
    let mut dead = 0usize;
    for &(x, y) in &scatter {
        let v1 = w.x_min + x as f64 * w.delta;
        let v2 = w.y_min + y as f64 * w.delta;
        if session.get_current(v1, v2) == 0.0 {
            dead += 1;
        }
    }
    dead as f64 / scatter.len() as f64
}

fn contrast_ratio<P: ProbeSession + ?Sized>(
    session: &mut P,
    anchors: &AnchorResult,
    fit: &SlopeFit,
) -> f64 {
    let w = session.window();
    let d = w.delta;
    let (cx, cy) = fit.intersection;
    let mut on_line = Vec::new();
    let mut drops = Vec::new();
    for (ax, ay) in [
        (anchors.a1.x as f64, anchors.a1.y as f64),
        (anchors.a2.x as f64, anchors.a2.y as f64),
    ] {
        // Unit normal of the segment pointing toward higher voltages
        // (up-right), where the current is lower past the line.
        let (sx, sy) = (cx - ax, cy - ay);
        let len = (sx * sx + sy * sy).sqrt().max(1e-9);
        let (mut nx, mut ny) = (-sy / len, sx / len);
        if nx + ny < 0.0 {
            nx = -nx;
            ny = -ny;
        }
        for t in [0.15, 0.35, 0.55, 0.75] {
            let px = ax + t * sx;
            let py = ay + t * sy;
            let (v1, v2) = (w.x_min + px * d, w.y_min + py * d);
            let here = session.get_current(v1, v2);
            let there = session.get_current(v1 + 2.5 * d * nx, v2 + 2.5 * d * ny);
            on_line.push(here);
            drops.push(here - there);
        }
    }
    let n = drops.len() as f64;
    let mean_drop = drops.iter().sum::<f64>() / n;
    let mean_line = on_line.iter().sum::<f64>() / n;
    let var_line = on_line.iter().map(|v| (v - mean_line).powi(2)).sum::<f64>() / n;
    mean_drop / (var_line.sqrt() + 1e-12)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qd_csd::{Csd, VoltageGrid};
    use qd_instrument::{CsdSource, MeasurementSession};

    /// Steep line slope -4 through (62, 0-ish), shallow slope -0.3.
    fn synthetic_session(size: usize) -> MeasurementSession<CsdSource> {
        let grid = VoltageGrid::new(0.0, 0.0, 1.0, size, size).unwrap();
        let s = size as f64 / 100.0;
        let csd = Csd::from_fn(grid, move |v1, v2| {
            let mut i = 8.0 - 0.002 * (v1 + v2);
            if v2 > -4.0 * (v1 - 62.0 * s) {
                i -= 1.0;
            }
            if v2 > 58.0 * s - 0.3 * v1 {
                i -= 0.8;
            }
            i
        })
        .unwrap();
        MeasurementSession::new(CsdSource::new(csd))
    }

    #[test]
    fn recovers_slopes_on_clean_diagram() {
        let mut session = synthetic_session(100);
        let r = FastExtractor::new().extract(&mut session).unwrap();
        assert!((r.slope_v + 4.0).abs() < 1.0, "slope_v {}", r.slope_v);
        assert!((r.slope_h + 0.3).abs() < 0.08, "slope_h {}", r.slope_h);
        // α coefficients follow.
        assert!((r.alpha12() - 0.25).abs() < 0.06, "alpha12 {}", r.alpha12());
        assert!((r.alpha21() - 0.3).abs() < 0.08, "alpha21 {}", r.alpha21());
    }

    #[test]
    fn probes_small_fraction_of_diagram() {
        let mut session = synthetic_session(100);
        let r = FastExtractor::new().extract(&mut session).unwrap();
        assert!(
            r.coverage < 0.20,
            "expected ≲20 % coverage, got {:.1} %",
            r.coverage * 100.0
        );
        assert_eq!(r.probes, session.probe_count());
    }

    #[test]
    fn runtime_accounting_adds_up() {
        let mut session = synthetic_session(63);
        let r = FastExtractor::new().extract(&mut session).unwrap();
        let dwell = Duration::from_millis(50) * r.probes as u32;
        assert_eq!(r.simulated_dwell, dwell);
        assert!(r.total_runtime() >= r.simulated_dwell);
    }

    #[test]
    fn works_across_paper_sizes() {
        for size in [63usize, 100, 200] {
            let mut session = synthetic_session(size);
            let r = FastExtractor::new().extract(&mut session);
            let r = r.unwrap_or_else(|e| panic!("size {size}: {e}"));
            assert!(r.slope_v < -1.0, "size {size}: slope_v {}", r.slope_v);
            assert!(
                r.slope_h > -1.0 && r.slope_h < 0.0,
                "size {size}: slope_h {}",
                r.slope_h
            );
        }
    }

    #[test]
    fn flat_diagram_fails_cleanly() {
        let grid = VoltageGrid::new(0.0, 0.0, 1.0, 64, 64).unwrap();
        let csd = Csd::constant(grid, 1.0).unwrap();
        let mut session = MeasurementSession::new(CsdSource::new(csd));
        assert!(FastExtractor::new().extract(&mut session).is_err());
    }

    #[test]
    fn row_only_configuration_degrades_gracefully() {
        // §4.3.2: the row-major sweep alone is unreliable for the shallow
        // line — above the intersection it follows the steep line's
        // continuation instead. On this geometry that surfaces as either
        // a (worse) fit or a clean UnphysicalSlopes rejection; both sweeps
        // together succeed (see recovers_slopes_on_clean_diagram).
        let mut session = synthetic_session(100);
        let cfg = ExtractorConfig {
            column_sweep: false,
            ..ExtractorConfig::default()
        };
        match FastExtractor::with_config(cfg).extract(&mut session) {
            Ok(r) => assert!(r.slope_v < -1.0),
            Err(e) => assert!(
                matches!(
                    e,
                    crate::ExtractError::Fit(crate::FitError::UnphysicalSlopes { .. })
                ),
                "unexpected failure mode: {e}"
            ),
        }
    }

    #[test]
    fn postprocess_reduces_point_count() {
        let mut s1 = synthetic_session(100);
        let with = FastExtractor::new().extract(&mut s1).unwrap();
        let mut s2 = synthetic_session(100);
        let cfg = ExtractorConfig {
            postprocess: false,
            ..ExtractorConfig::default()
        };
        let without = FastExtractor::with_config(cfg).extract(&mut s2).unwrap();
        assert!(with.transition_points.len() <= without.transition_points.len());
    }

    #[test]
    fn dead_pixel_scans_are_rejected_as_stuck_at_zero() {
        // The clean synthetic diagram with ~10% of pixels stuck on the
        // zero rail (deterministic hash selection): the probe-health
        // audit must reject the scan with a classified Probe error
        // before any fit is attempted.
        let grid = VoltageGrid::new(0.0, 0.0, 1.0, 100, 100).unwrap();
        let csd = Csd::from_fn(grid, |v1, v2| {
            let h = (v1 * 12.9898 + v2 * 78.233).sin() * 43758.5453;
            if h - h.floor() < 0.10 {
                return 0.0;
            }
            let mut i = 8.0 - 0.002 * (v1 + v2);
            if v2 > -4.0 * (v1 - 62.0) {
                i -= 1.0;
            }
            if v2 > 58.0 - 0.3 * v1 {
                i -= 0.8;
            }
            i
        })
        .unwrap();
        let mut session = MeasurementSession::new(CsdSource::new(csd.clone()));
        let err = FastExtractor::new().extract(&mut session).unwrap_err();
        assert!(
            matches!(
                err,
                crate::ExtractError::Probe(crate::ProbeError::StuckAtZero { .. })
            ),
            "unexpected failure mode: {err}"
        );

        // The audit is free: it re-reads only cached pixels, so with
        // the check disabled the same scan spends exactly as many
        // dwell-costing probes up to the audit point.
        let audited = session.probe_count();
        let mut unaudited = MeasurementSession::new(CsdSource::new(csd));
        let cfg = ExtractorConfig {
            max_zero_fraction: None,
            ..ExtractorConfig::default()
        };
        let _ = FastExtractor::with_config(cfg).extract(&mut unaudited);
        assert!(audited > 0 && audited <= unaudited.probe_count());
    }

    #[test]
    fn scattered_transition_points_fail_line_support() {
        // A fit through (50, 50) with points nowhere near either line
        // has no evidential support; points on the lines have full
        // support.
        let fit = SlopeFit {
            intersection: (50.0, 50.0),
            slope_h: -0.3,
            slope_v: -4.0,
            sse: 0.0,
            rms: 0.0,
        };
        let on_lines: Vec<Pixel> = (0..20usize)
            .map(|k| {
                let t = k as f64 - 10.0;
                if k % 2 == 0 {
                    Pixel::new((50.0 + t) as usize, (50.0 - 0.3 * t).round() as usize)
                } else {
                    Pixel::new((50.0 + t / 4.0).round() as usize, (50.0 - t) as usize)
                }
            })
            .collect();
        assert!(line_support(&fit, &on_lines) > 0.9);

        let scattered: Vec<Pixel> = (0..20usize)
            .map(|k| Pixel::new(10 + 4 * (k % 5), 90 - 7 * (k / 5)))
            .collect();
        assert!(line_support(&fit, &scattered) < 0.5);
        assert_eq!(line_support(&fit, &[]), 0.0);
    }

    #[test]
    fn result_exposes_trace_data() {
        let mut session = synthetic_session(100);
        let r = FastExtractor::new().extract(&mut session).unwrap();
        assert!(!r.steps.is_empty());
        assert!(!r.row_points.is_empty());
        assert!(!r.column_points.is_empty());
        assert!(!r.anchors.diagonal.is_empty());
        assert!(r.fit.rms < 3.0);
    }
}
