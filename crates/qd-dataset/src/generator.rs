//! Renders a [`BenchmarkSpec`] into a concrete charge stability diagram.
//!
//! The generator places the voltage window so the two first-transition
//! lines cross near (62 %, 58 %) of the window — the geometry of the
//! paper's cropped qflow diagrams, where the (0,0)/(0,1)/(1,0)/(1,1)
//! corner sits in the upper-right half and both lines exit through the
//! left and bottom edges. Noise is drawn in row-major probe order, so
//! drift accumulates across the raster exactly as it would during a real
//! full-CSD acquisition.
//!
//! A spec realizes two ways, through one pixel formula. [`DeviceField`]
//! draws the noise eagerly (it is one RNG stream in raster order) and
//! evaluates the device model only for the pixels that are read — what a
//! sparse extraction wants. [`generate`] builds the same field and reads
//! every pixel into a dense [`Csd`], so both are bit-identical.

use crate::{BenchmarkSpec, DatasetError};
use qd_csd::{Csd, PixelField, VoltageGrid};
use qd_physics::device::PairGroundTruth;
use qd_physics::noise::{CompositeNoise, DriftNoise, NoiseModel, TelegraphNoise, WhiteNoise};
use qd_physics::{DeviceBuilder, DoubleDotDevice, SensorModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Voltage span (reduced volts) of every generated window; pixel
/// granularity is `SPAN / size` so line *geometry* is resolution-
/// independent, matching how the paper's differently sized crops image
/// the same physical features.
pub const SPAN: f64 = 60.0;

/// Fractional window position of the transition-line intersection.
const INTERSECT_AT: (f64, f64) = (0.62, 0.58);

/// A generated benchmark: the diagram plus everything needed to score an
/// extraction against it.
#[derive(Debug, Clone)]
pub struct GeneratedBenchmark {
    /// The spec this was generated from.
    pub spec: BenchmarkSpec,
    /// The synthetic charge stability diagram (noise included).
    pub csd: Csd,
    /// Analytic ground truth from the capacitance model.
    pub truth: PairGroundTruth,
    /// The (noise-free) device, for live-probing experiments.
    pub device: DoubleDotDevice,
}

/// Builds the device a spec describes.
///
/// # Errors
///
/// Propagates [`qd_physics::PhysicsError`] for invalid parameters.
pub fn build_device(spec: &BenchmarkSpec) -> Result<DoubleDotDevice, DatasetError> {
    // Negative gate crosstalk tilts the background so the (0,0) corner is
    // the brightest region — the geometry the paper's §4.4 anchor
    // preprocessing assumes ("the brightest point … or 10 % width and
    // height", both near the lower-left). The tilt is strong enough that
    // the 10-point diagonal probe finds the lower-left reliably even at
    // the suite's noise levels, as it evidently does on the qflow chips.
    let sensor = SensorModel::new(
        5.0,
        4.0 * spec.contrast,
        3.0,
        vec![1.0, 1.0 / 1.35],
        vec![-0.008, -0.008],
    )?;
    let device = DeviceBuilder::double_dot()
        .lever_arms(spec.lever_arms)
        .mutual_capacitance(spec.mutual)
        .temperature(spec.temperature)
        .sensor(sensor)
        .build()?;
    Ok(device)
}

/// Computes the voltage window (grid) for a spec: the intersection of the
/// two first-transition lines is solved from the capacitance model and the
/// window is positioned so the crossing sits at 62 % / 58 % of the span.
///
/// # Errors
///
/// Returns [`DatasetError::InvalidSpec`] if the two transition lines are
/// parallel (degenerate lever arms).
pub fn window_for(
    spec: &BenchmarkSpec,
    device: &DoubleDotDevice,
) -> Result<VoltageGrid, DatasetError> {
    let m = device.capacitance_model();
    // Line i: Σ_j E_{ij} (C_g V)_j = E_ii / 2, i.e. b_i · V = c_i.
    let beta = |dot: usize, gate: usize| -> f64 {
        (0..2)
            .map(|k| m.interaction(dot, k) * m.lever_arm(k, gate))
            .sum()
    };
    let b = [[beta(0, 0), beta(0, 1)], [beta(1, 0), beta(1, 1)]];
    let c = [m.interaction(0, 0) / 2.0, m.interaction(1, 1) / 2.0];
    let det = b[0][0] * b[1][1] - b[0][1] * b[1][0];
    if det.abs() < 1e-15 {
        return Err(DatasetError::InvalidSpec {
            message: "transition lines are parallel; lever arms degenerate".into(),
        });
    }
    let vx = (c[0] * b[1][1] - c[1] * b[0][1]) / det;
    let vy = (b[0][0] * c[1] - b[1][0] * c[0]) / det;

    let delta = SPAN / spec.size as f64;
    let origin_x = vx - INTERSECT_AT.0 * SPAN;
    let origin_y = vy - INTERSECT_AT.1 * SPAN;
    Ok(VoltageGrid::new(
        origin_x, origin_y, delta, spec.size, spec.size,
    )?)
}

/// A spec's device as a [`PixelField`] that computes a pixel only when
/// it is read: `device.current` at the pixel's voltages plus the pixel's
/// noise sample. The noise for the whole window is drawn at construction
/// (it is one RNG stream in raster order); the device model, the
/// expensive part, runs per read. Reading every pixel reproduces
/// [`generate`]'s diagram bit for bit.
#[derive(Debug)]
pub struct DeviceField {
    device: DoubleDotDevice,
    grid: VoltageGrid,
    noise: Vec<f64>,
}

impl DeviceField {
    /// Builds the field for `spec`.
    ///
    /// # Errors
    ///
    /// Fails exactly where [`generate`] fails, with the same error: the
    /// device model ([`build_device`]), its ground truth, then the
    /// window ([`window_for`]).
    pub fn new(spec: &BenchmarkSpec) -> Result<Self, DatasetError> {
        Self::build(spec).map(|(field, _)| field)
    }

    /// The field plus the ground truth its checks computed.
    fn build(spec: &BenchmarkSpec) -> Result<(Self, PairGroundTruth), DatasetError> {
        let device = build_device(spec)?;
        let truth = device.ground_truth()?;
        let grid = window_for(spec, &device)?;

        let mut model = CompositeNoise::new();
        let r = &spec.noise;
        if r.white_sigma > 0.0 {
            model = model.with(WhiteNoise::new(r.white_sigma));
        }
        if r.drift_step > 0.0 {
            model = model.with(DriftNoise::new(r.drift_step, r.drift_relaxation));
        }
        if r.telegraph_amplitude > 0.0 && r.telegraph_probability > 0.0 {
            model = model.with(TelegraphNoise::new(
                r.telegraph_amplitude,
                r.telegraph_probability,
            ));
        }
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let noise = (0..grid.len()).map(|_| model.sample(&mut rng)).collect();
        Ok((
            Self {
                device,
                grid,
                noise,
            },
            truth,
        ))
    }
}

impl PixelField for DeviceField {
    fn grid(&self) -> &VoltageGrid {
        &self.grid
    }

    fn at(&self, x: usize, y: usize) -> f64 {
        assert!(
            self.grid.contains(x, y),
            "pixel ({x}, {y}) outside {}x{} field",
            self.grid.width(),
            self.grid.height()
        );
        let (v1, v2) = self.grid.voltage_of(x, y);
        let clean = self
            .device
            .current(&[v1, v2])
            .expect("2-gate voltage vector matches double-dot device");
        clean + self.noise[y * self.grid.width() + x]
    }
}

/// Generates the benchmark diagram for a spec: its [`DeviceField`] with
/// every pixel read.
///
/// # Errors
///
/// Propagates device-model and grid errors; see [`build_device`] and
/// [`window_for`].
pub fn generate(spec: &BenchmarkSpec) -> Result<GeneratedBenchmark, DatasetError> {
    let (field, truth) = DeviceField::build(spec)?;
    let grid = field.grid;
    let width = grid.width();
    let data = (0..grid.len())
        .map(|i| field.at(i % width, i / width))
        .collect();
    let csd = Csd::from_data(grid, data)?;
    Ok(GeneratedBenchmark {
        spec: spec.clone(),
        csd,
        truth,
        device: field.device,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NoiseRecipe;

    fn clean_spec() -> BenchmarkSpec {
        BenchmarkSpec::clean(1, 63)
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&clean_spec()).unwrap();
        let b = generate(&clean_spec()).unwrap();
        assert_eq!(a.csd, b.csd);
    }

    #[test]
    fn different_seeds_differ() {
        let mut s2 = clean_spec();
        s2.seed += 1;
        let a = generate(&clean_spec()).unwrap();
        let b = generate(&s2).unwrap();
        assert_ne!(a.csd, b.csd);
    }

    #[test]
    fn device_field_fails_where_generate_fails() {
        let mut singular = clean_spec();
        singular.lever_arms = [[0.01, 0.01], [0.01, 0.01]];
        // Builds, but only the ground-truth check sees the line parallel
        // to a gate axis.
        let mut axis_parallel = clean_spec();
        axis_parallel.lever_arms = [[1.0, 0.0], [0.0, 1.0]];
        axis_parallel.mutual = 0.0;
        assert!(build_device(&axis_parallel).is_ok());
        for spec in [singular, axis_parallel] {
            let want = generate(&spec).unwrap_err().to_string();
            assert_eq!(DeviceField::new(&spec).unwrap_err().to_string(), want);
        }
    }

    #[test]
    fn size_matches_spec() {
        let mut s = clean_spec();
        s.size = 100;
        let g = generate(&s).unwrap();
        assert_eq!(g.csd.size(), (100, 100));
    }

    #[test]
    fn intersection_lands_near_expected_fraction() {
        // Probe the noiseless device on the generated grid and find where
        // the two lines cross by looking at ground-state occupations at
        // the four corners of the window.
        let mut s = clean_spec();
        s.noise = NoiseRecipe::silent();
        let g = generate(&s).unwrap();
        let grid = g.csd.grid();
        let occ = |fx: f64, fy: f64| -> Vec<u32> {
            let x = (fx * (grid.width() - 1) as f64) as usize;
            let y = (fy * (grid.height() - 1) as f64) as usize;
            let (v1, v2) = grid.voltage_of(x, y);
            g.device
                .ground_state(&[v1, v2])
                .unwrap()
                .occupations()
                .to_vec()
        };
        assert_eq!(occ(0.05, 0.05), vec![0, 0], "lower-left must be (0,0)");
        assert_eq!(occ(0.95, 0.05), vec![1, 0], "lower-right must be (1,0)");
        assert_eq!(occ(0.05, 0.95), vec![0, 1], "upper-left must be (0,1)");
        assert_eq!(occ(0.95, 0.95), vec![1, 1], "upper-right must be (1,1)");
    }

    #[test]
    fn noiseless_diagram_steps_down_across_lines() {
        let mut s = clean_spec();
        s.noise = NoiseRecipe::silent();
        let g = generate(&s).unwrap();
        // Current in the (0,0) corner (bottom-left) exceeds the (1,1)
        // corner (top-right) by roughly two sensor steps.
        let (w, h) = g.csd.size();
        let low_corner = g.csd.at(2, 2);
        let high_corner = g.csd.at(w - 3, h - 3);
        assert!(
            low_corner - high_corner > 0.8,
            "expected visible double step, got {low_corner} - {high_corner}"
        );
    }

    #[test]
    fn truth_slopes_consistent_with_spec_lever_arms() {
        let g = generate(&clean_spec()).unwrap();
        assert!(g.truth.slope_v < -1.0);
        assert!(g.truth.slope_h > -1.0 && g.truth.slope_h < 0.0);
    }

    #[test]
    fn swamped_noise_hides_the_signal() {
        let mut s = clean_spec();
        s.noise = NoiseRecipe::swamped();
        let noisy = generate(&s).unwrap();
        s.noise = NoiseRecipe::silent();
        let clean = generate(&s).unwrap();
        // Residual standard deviation of (noisy - clean) should dwarf the
        // sensor step.
        let diffs: Vec<f64> = noisy
            .csd
            .data()
            .iter()
            .zip(clean.csd.data())
            .map(|(a, b)| a - b)
            .collect();
        let mean = diffs.iter().sum::<f64>() / diffs.len() as f64;
        let var = diffs.iter().map(|d| (d - mean).powi(2)).sum::<f64>() / diffs.len() as f64;
        assert!(var.sqrt() > 0.6, "noise std {}", var.sqrt());
    }

    #[test]
    fn contrast_scales_step_height() {
        let mut faint = clean_spec();
        faint.noise = NoiseRecipe::silent();
        faint.contrast = 0.3;
        let mut full = faint.clone();
        full.contrast = 1.0;
        let gf = generate(&faint).unwrap();
        let gu = generate(&full).unwrap();
        let span = |c: &Csd| {
            let (lo, hi) = c.min_max();
            hi - lo
        };
        assert!(span(&gf.csd) < span(&gu.csd) * 0.5);
    }

    use qd_csd::Csd;
}
