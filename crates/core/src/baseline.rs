//! The paper's baseline: full-CSD acquisition + Canny + Hough (§5.1).
//!
//! The baseline probes **every** pixel of the window (that is where its
//! cost comes from), then runs the classic vision pipeline to find the
//! two transition lines. Detected Hough lines are classified by slope —
//! steeper or shallower than −1 — and the strongest line of each class
//! wins; an optional Theil–Sen refinement snaps the quantized ρ–θ line to
//! its supporting edge pixels, matching what practical implementations do.

use crate::api::{ExtractionReport, Extractor, SessionView, Stage};
use crate::error::FitError;
use crate::fit::SlopeBounds;
use crate::report::Method;
use crate::ExtractError;
use qd_csd::{Csd, VirtualizationMatrix, VoltageGrid};
use qd_instrument::{ProbeSession, ScanPattern};
use qd_numerics::lsq::theil_sen;
use qd_vision::canny::{canny, CannyParams};
use qd_vision::hough::{hough_lines, HoughParams};
use qd_vision::HoughLine;
use std::time::{Duration, Instant};

/// How a detected Hough line's quantized ρ–θ slope is refined against
/// its supporting edge pixels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RefineMethod {
    /// Keep the raw Hough slope (θ-bin resolution).
    None,
    /// Theil–Sen median-slope fit over nearby edge pixels (robust to
    /// ~29 % stray pixels; the default).
    #[default]
    TheilSen,
    /// RANSAC consensus fit (robust past 50 % strays, at more compute).
    Ransac,
}

/// Configuration of the Hough baseline.
#[derive(Debug, Clone, PartialEq)]
#[must_use = "a config does nothing until given to an extractor"]
pub struct BaselineConfig {
    /// Canny parameters.
    pub canny: CannyParams,
    /// Hough parameters.
    pub hough: HoughParams,
    /// Slope refinement over nearby edge pixels
    /// (distance ≤ `refine_distance`).
    pub refine: RefineMethod,
    /// Pixel distance for refinement support.
    pub refine_distance: f64,
    /// Physics bounds on the final slopes.
    pub bounds: SlopeBounds,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        Self {
            // Absolute hysteresis thresholds, as in OpenCV's Canny(low,
            // high): calibrated once against a healthy charge-sensing
            // contrast (blurred Sobel magnitude ≈ 1.3–1.7 nA/px for the
            // suite's full-contrast lines). Faint diagrams fall below the
            // seed threshold and starve the line fit — the failure the
            // paper reports for its CSD 7.
            canny: CannyParams {
                absolute_thresholds: Some((0.45, 0.85)),
                ..CannyParams::default()
            },
            hough: HoughParams {
                max_lines: 8,
                peak_fraction: 0.25,
                ..HoughParams::default()
            },
            refine: RefineMethod::TheilSen,
            refine_distance: 2.0,
            bounds: SlopeBounds::default(),
        }
    }
}

/// The full-CSD Canny+Hough extractor.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HoughBaseline {
    config: BaselineConfig,
}

/// Result of a baseline extraction.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineResult {
    /// Shallow (0,0)→(0,1) line slope.
    pub slope_h: f64,
    /// Steep (0,0)→(1,0) line slope.
    pub slope_v: f64,
    /// The virtualization matrix built from the slopes.
    pub matrix: VirtualizationMatrix,
    /// All Hough lines considered, strongest first.
    pub lines: Vec<HoughLine>,
    /// Canny edge pixels found.
    pub edge_count: usize,
    /// Probes spent (always the full diagram).
    pub probes: usize,
    /// Simulated dwell time.
    pub simulated_dwell: Duration,
    /// Wall-clock compute time (blur + Canny + Hough + refinement).
    pub compute_time: Duration,
}

impl BaselineResult {
    /// Total simulated experiment runtime (dwell + compute).
    pub fn total_runtime(&self) -> Duration {
        self.simulated_dwell + self.compute_time
    }

    /// Coefficient `α₁₂ = −1/slope_v`.
    pub fn alpha12(&self) -> f64 {
        self.matrix.alpha12()
    }

    /// Coefficient `α₂₁ = −slope_h`.
    pub fn alpha21(&self) -> f64 {
        self.matrix.alpha21()
    }
}

impl HoughBaseline {
    /// A baseline with default parameters.
    pub fn new() -> Self {
        Self::default()
    }

    /// A baseline with custom parameters.
    pub fn with_config(config: BaselineConfig) -> Self {
        Self { config }
    }

    /// Runs the baseline: full acquisition, then vision.
    ///
    /// This is the *typed* entry point; to drive the baseline
    /// method-agnostically go through [`crate::api::Extractor`] /
    /// [`crate::api::Pipeline`].
    ///
    /// # Errors
    ///
    /// * [`crate::GeometryError::Vision`] if Canny/Hough find nothing.
    /// * [`crate::FitError::UnphysicalSlopes`] if no steep or no shallow
    ///   line class is present, or the best pair violates the physics
    ///   bounds.
    pub fn extract(&self, session: &mut dyn ProbeSession) -> Result<BaselineResult, ExtractError> {
        self.extract_staged(&mut SessionView::detached(session))
    }

    /// The baseline proper, with stage bracketing recorded in the view.
    pub(crate) fn extract_staged(
        &self,
        session: &mut SessionView<'_>,
    ) -> Result<BaselineResult, ExtractError> {
        let probes_before = session.probe_count();
        session.begin_stage(Stage::Acquire);
        let csd = acquire_full_csd(session);
        session.end_stage();
        let csd = csd?;
        let compute_started = Instant::now();

        session.begin_stage(Stage::Vision);
        let detected = self.detect_lines(&csd);
        session.end_stage();
        let (lines, edge_count, edges, steep, shallow) = detected?;

        let mut slope_v = steep.slope().unwrap_or(f64::NEG_INFINITY);
        let mut slope_h = shallow.slope().expect("shallow class always has a slope");
        if self.config.refine != RefineMethod::None {
            session.begin_stage(Stage::Refine);
            if let Some(m) = refine_slope(
                &edges,
                &steep,
                self.config.refine_distance,
                self.config.refine,
            ) {
                slope_v = m;
            }
            if let Some(m) = refine_slope(
                &edges,
                &shallow,
                self.config.refine_distance,
                self.config.refine,
            ) {
                slope_h = m;
            }
            session.end_stage();
        }

        session.begin_stage(Stage::Fit);
        let validated = self.validate_slopes(slope_h, slope_v);
        session.end_stage();
        let matrix = validated?;

        Ok(BaselineResult {
            slope_h,
            slope_v,
            matrix,
            lines,
            edge_count,
            probes: session.probe_count() - probes_before,
            simulated_dwell: session.simulated_dwell(),
            compute_time: compute_started.elapsed(),
        })
    }

    /// Canny + Hough + slope classification over the acquired diagram.
    #[allow(clippy::type_complexity)]
    fn detect_lines(
        &self,
        csd: &Csd,
    ) -> Result<
        (
            Vec<HoughLine>,
            usize,
            qd_vision::EdgeMap,
            HoughLine,
            HoughLine,
        ),
        ExtractError,
    > {
        let edges = canny(csd, self.config.canny)?;
        let edge_count = edges.edge_count();
        let lines = hough_lines(&edges, self.config.hough)?;

        // Classify by slope; vertical lines count as (very) steep.
        let is_steep = |l: &HoughLine| match l.slope() {
            None => true,
            Some(m) => m < self.config.bounds.steep_max,
        };
        let is_shallow = |l: &HoughLine| match l.slope() {
            None => false,
            Some(m) => m > self.config.bounds.shallow_min && m < self.config.bounds.shallow_max,
        };
        let steep = lines.iter().find(|l| is_steep(l));
        let shallow = lines.iter().find(|l| is_shallow(l));
        match (steep, shallow) {
            (Some(s), Some(h)) => {
                let (s, h) = (*s, *h);
                Ok((lines, edge_count, edges, s, h))
            }
            _ => Err(ExtractError::unphysical_slopes(
                shallow.and_then(|l| l.slope()).unwrap_or(f64::NAN),
                steep.and_then(|l| l.slope()).unwrap_or(f64::NAN),
            )),
        }
    }

    /// Physics-bounds validation plus matrix construction.
    fn validate_slopes(
        &self,
        slope_h: f64,
        slope_v: f64,
    ) -> Result<VirtualizationMatrix, ExtractError> {
        let b = &self.config.bounds;
        let steep_ok = slope_v < b.steep_max || slope_v == f64::NEG_INFINITY;
        let shallow_ok = slope_h > b.shallow_min && slope_h < b.shallow_max;
        if !(steep_ok && shallow_ok) {
            return Err(ExtractError::unphysical_slopes(slope_h, slope_v));
        }
        VirtualizationMatrix::from_slopes(slope_h, slope_v)
            .map_err(|e| ExtractError::Fit(FitError::Matrix(e)))
    }
}

impl Extractor for HoughBaseline {
    fn method(&self) -> Method {
        Method::HoughBaseline
    }

    fn extract(&self, session: &mut SessionView<'_>) -> Result<ExtractionReport, ExtractError> {
        match self.extract_staged(session) {
            Ok(result) => Ok(ExtractionReport::from_baseline(result, session)),
            Err(e) => {
                let _ = session.take_stages();
                Err(e)
            }
        }
    }
}

/// Probes every pixel of the session's window in row-major raster order
/// and assembles the full CSD — the acquisition step whose cost the fast
/// method avoids.
///
/// # Errors
///
/// Returns [`crate::ProbeError::Acquisition`] only on internal shape
/// mismatches.
pub fn acquire_full_csd<P: ProbeSession + ?Sized>(session: &mut P) -> Result<Csd, ExtractError> {
    acquire_full_csd_with(session, ScanPattern::RowMajorRaster)
}

/// Full acquisition with an explicit [`ScanPattern`]. On a live source
/// with drift the pattern changes the streak orientation in the acquired
/// image (probe *order* matters); on a replayed [`qd_csd::Csd`] all
/// patterns yield identical data.
///
/// # Errors
///
/// Returns [`crate::ProbeError::Acquisition`] only on internal shape
/// mismatches.
pub fn acquire_full_csd_with<P: ProbeSession + ?Sized>(
    session: &mut P,
    pattern: ScanPattern,
) -> Result<Csd, ExtractError> {
    let w = session.window();
    let (width, height) = (w.width_px(), w.height_px());
    let grid = VoltageGrid::new(w.x_min, w.y_min, w.delta, width, height)?;
    let mut csd = Csd::constant(grid, 0.0)?;
    for (x, y) in pattern.order(width, height) {
        let v1 = w.x_min + x as f64 * w.delta;
        let v2 = w.y_min + y as f64 * w.delta;
        let i = session.get_current(v1, v2);
        csd.set(x, y, i)?;
    }
    Ok(csd)
}

/// Refined slope through the edge pixels within `max_distance` of a
/// Hough line. Returns `None` for vertical lines or sparse support.
fn refine_slope(
    edges: &qd_vision::EdgeMap,
    line: &HoughLine,
    max_distance: f64,
    method: RefineMethod,
) -> Option<f64> {
    line.slope()?;
    let (mut xs, mut ys) = (Vec::new(), Vec::new());
    let (s, c) = line.theta.sin_cos();
    for p in edges.edge_pixels() {
        let d = (p.x as f64 * c + p.y as f64 * s - line.rho).abs();
        if d <= max_distance {
            xs.push(p.x as f64);
            ys.push(p.y as f64);
        }
    }
    if xs.len() < 8 {
        return None;
    }
    match method {
        RefineMethod::None => None,
        RefineMethod::TheilSen => theil_sen(&xs, &ys).ok().map(|l| l.slope),
        RefineMethod::Ransac => {
            qd_numerics::ransac::ransac_line(&xs, &ys, qd_numerics::ransac::RansacParams::default())
                .ok()
                .map(|f| f.line.slope)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qd_csd::{Csd, VoltageGrid};
    use qd_instrument::{CsdSource, MeasurementSession};

    fn synthetic_session(size: usize) -> MeasurementSession<CsdSource> {
        MeasurementSession::new(CsdSource::new(synthetic_csd(size)))
    }

    fn synthetic_csd(size: usize) -> Csd {
        let grid = VoltageGrid::new(0.0, 0.0, 1.0, size, size).unwrap();
        let s = size as f64 / 100.0;
        Csd::from_fn(grid, move |v1, v2| {
            let mut i = 8.0 - 0.002 * (v1 + v2);
            if v2 > -4.0 * (v1 - 62.0 * s) {
                i -= 1.0;
            }
            if v2 > 58.0 * s - 0.3 * v1 {
                i -= 0.8;
            }
            i
        })
        .unwrap()
    }

    #[test]
    fn baseline_probes_the_entire_diagram() {
        let mut session = synthetic_session(63);
        let r = HoughBaseline::new().extract(&mut session).unwrap();
        assert_eq!(r.probes, 63 * 63);
        assert!((session.coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn baseline_recovers_slopes() {
        let mut session = synthetic_session(100);
        let r = HoughBaseline::new().extract(&mut session).unwrap();
        assert!((r.slope_v + 4.0).abs() < 1.2, "slope_v {}", r.slope_v);
        assert!((r.slope_h + 0.3).abs() < 0.1, "slope_h {}", r.slope_h);
    }

    #[test]
    fn baseline_dwell_dominates_runtime() {
        let mut session = synthetic_session(63);
        let r = HoughBaseline::new().extract(&mut session).unwrap();
        // 3969 probes × 50 ms ≈ 198.45 s — the paper's baseline column.
        assert_eq!(r.simulated_dwell, Duration::from_millis(50) * 3969);
        assert!(r.total_runtime() >= r.simulated_dwell);
    }

    #[test]
    fn flat_diagram_fails() {
        let grid = VoltageGrid::new(0.0, 0.0, 1.0, 48, 48).unwrap();
        let csd = Csd::constant(grid, 1.0).unwrap();
        let mut session = MeasurementSession::new(CsdSource::new(csd));
        assert!(HoughBaseline::new().extract(&mut session).is_err());
    }

    #[test]
    fn single_line_diagram_fails_classification() {
        // Only a steep line, no shallow partner.
        let grid = VoltageGrid::new(0.0, 0.0, 1.0, 64, 64).unwrap();
        let csd = Csd::from_fn(
            grid,
            |v1, v2| {
                if v2 > -4.0 * (v1 - 40.0) {
                    2.0
                } else {
                    5.0
                }
            },
        )
        .unwrap();
        let mut session = MeasurementSession::new(CsdSource::new(csd));
        let r = HoughBaseline::new().extract(&mut session);
        assert!(matches!(
            r,
            Err(ExtractError::Fit(FitError::UnphysicalSlopes { .. }))
        ));
    }

    #[test]
    fn acquire_full_csd_reproduces_source() {
        let csd = synthetic_csd(32);
        let mut session = MeasurementSession::new(CsdSource::new(csd.clone()));
        let acquired = acquire_full_csd(&mut session).unwrap();
        assert_eq!(acquired.size(), (32, 32));
        assert_eq!(acquired, csd);
    }

    #[test]
    fn refinement_can_be_disabled() {
        let mut session = synthetic_session(100);
        let cfg = BaselineConfig {
            refine: RefineMethod::None,
            ..BaselineConfig::default()
        };
        let r = HoughBaseline::with_config(cfg)
            .extract(&mut session)
            .unwrap();
        assert!(r.slope_v < -1.0);

        // RANSAC refinement also recovers the slopes.
        let mut session2 = synthetic_session(100);
        let cfg = BaselineConfig {
            refine: RefineMethod::Ransac,
            ..BaselineConfig::default()
        };
        let r = HoughBaseline::with_config(cfg)
            .extract(&mut session2)
            .unwrap();
        assert!(
            (r.slope_v + 4.0).abs() < 1.2,
            "ransac slope_v {}",
            r.slope_v
        );
        assert!(
            (r.slope_h + 0.3).abs() < 0.1,
            "ransac slope_h {}",
            r.slope_h
        );
    }
}
