//! The `getCurrent` abstraction (paper Algorithm 1) and its
//! implementations.

use qd_csd::{Csd, PixelField, VoltageGrid};
use qd_physics::noise::NoiseModel;
use qd_physics::LinearArrayDevice;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The rectangular voltage window a source can be probed on, plus the
/// granularity `δ` (pixel size) measurements are quantized to.
///
/// Probes outside the window are clamped to its edge — a real instrument
/// would rail its DAC the same way.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VoltageWindow {
    /// Lowest `V_P1`.
    pub x_min: f64,
    /// Lowest `V_P2`.
    pub y_min: f64,
    /// Highest `V_P1`.
    pub x_max: f64,
    /// Highest `V_P2`.
    pub y_max: f64,
    /// Voltage granularity (the paper's pixel size `δ`).
    pub delta: f64,
}

impl VoltageWindow {
    /// The window spanned by a [`VoltageGrid`].
    pub fn from_grid(grid: &VoltageGrid) -> Self {
        let (x0, y0) = grid.origin();
        let (x1, y1) = grid.voltage_of(grid.width() - 1, grid.height() - 1);
        Self {
            x_min: x0,
            y_min: y0,
            x_max: x1,
            y_max: y1,
            delta: grid.delta(),
        }
    }

    /// Width in pixels (inclusive of both edges).
    pub fn width_px(&self) -> usize {
        ((self.x_max - self.x_min) / self.delta).round() as usize + 1
    }

    /// Height in pixels (inclusive of both edges).
    pub fn height_px(&self) -> usize {
        ((self.y_max - self.y_min) / self.delta).round() as usize + 1
    }

    /// Total pixels in the window.
    pub fn len(&self) -> usize {
        self.width_px() * self.height_px()
    }

    /// Whether the window is degenerate (never for valid grids).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Quantizes voltages to the integer pixel indices used for probe
    /// deduplication, clamping to the window.
    pub fn quantize(&self, v1: f64, v2: f64) -> (i64, i64) {
        let x = ((v1 - self.x_min) / self.delta).round() as i64;
        let y = ((v2 - self.y_min) / self.delta).round() as i64;
        (
            x.clamp(0, self.width_px() as i64 - 1),
            y.clamp(0, self.height_px() as i64 - 1),
        )
    }
}

/// A source of charge-sensor current readings — the paper's
/// `getCurrent(v1, v2)` (Algorithm 1) minus the dwell, which
/// [`crate::MeasurementSession`] accounts separately.
pub trait CurrentSource {
    /// Reads the sensor current at plunger voltages `(v1, v2)`.
    /// Out-of-window voltages clamp to the window edge.
    fn current(&mut self, v1: f64, v2: f64) -> f64;

    /// The voltage window this source is defined on.
    fn window(&self) -> VoltageWindow;
}

impl std::fmt::Debug for dyn CurrentSource + Send {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("dyn CurrentSource")
    }
}

/// Boxed sources probe like the source they wrap, so type-erased
/// sources from a [`crate::backend::SourceBackend`] slot into every
/// generic consumer (`MeasurementSession<Box<dyn CurrentSource + Send>>`
/// is the runtime-selected session type).
impl<S: CurrentSource + ?Sized> CurrentSource for Box<S> {
    fn current(&mut self, v1: f64, v2: f64) -> f64 {
        (**self).current(v1, v2)
    }

    fn window(&self) -> VoltageWindow {
        (**self).window()
    }
}

/// Probes a [`PixelField`] — a recorded or synthetic [`Csd`], or a field
/// that computes only the pixels read. This is how the paper evaluates
/// on the qflow dataset: "the `getCurrent` function will return a
/// current from a CSD in the dataset". Voltages round to the nearest
/// pixel and clamp to the field's grid.
#[derive(Debug, Clone)]
pub struct CsdSource<F = Csd> {
    field: F,
}

impl<F: PixelField> CsdSource<F> {
    /// Wraps a field.
    pub fn new(field: F) -> Self {
        Self { field }
    }
}

impl<F: PixelField> CurrentSource for CsdSource<F> {
    fn current(&mut self, v1: f64, v2: f64) -> f64 {
        let g = self.field.grid();
        let (fx, fy) = g.fractional_pixel_of(v1, v2);
        let x = (fx.round().clamp(0.0, (g.width() - 1) as f64)) as usize;
        let y = (fy.round().clamp(0.0, (g.height() - 1) as f64)) as usize;
        self.field.at(x, y)
    }

    fn window(&self) -> VoltageWindow {
        VoltageWindow::from_grid(self.field.grid())
    }
}

/// Live evaluation of a [`LinearArrayDevice`]: two chosen plunger gates are
/// swept while the remaining gates are held at fixed bias voltages, with an
/// optional stateful noise stack applied per probe.
///
/// This is the "real experiment" path: unlike [`CsdSource`] nothing is
/// precomputed, and noise depends on probe *order* (drift accumulates
/// between measurements exactly as it would on hardware).
pub struct PhysicsSource {
    device: LinearArrayDevice,
    gate_x: usize,
    gate_y: usize,
    bias: Vec<f64>,
    window: VoltageWindow,
    noise: Option<Box<dyn NoiseModel + Send>>,
    rng: StdRng,
}

impl std::fmt::Debug for PhysicsSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PhysicsSource")
            .field("gate_x", &self.gate_x)
            .field("gate_y", &self.gate_y)
            .field("window", &self.window)
            .field("noisy", &self.noise.is_some())
            .finish()
    }
}

impl PhysicsSource {
    /// Creates a source sweeping gates `gate_x` (maps to `v1`) and
    /// `gate_y` (maps to `v2`) of `device`, other gates pinned at `bias`,
    /// over `window`.
    ///
    /// # Panics
    ///
    /// Panics if the gate indices are out of range, equal, or `bias` has
    /// the wrong length — these are programming errors in harness code.
    pub fn new(
        device: LinearArrayDevice,
        gate_x: usize,
        gate_y: usize,
        bias: Vec<f64>,
        window: VoltageWindow,
    ) -> Self {
        let n = device.n_dots();
        assert!(
            gate_x < n && gate_y < n && gate_x != gate_y,
            "bad gate indices"
        );
        assert_eq!(bias.len(), n, "bias must have one entry per gate");
        Self {
            device,
            gate_x,
            gate_y,
            bias,
            window,
            noise: None,
            rng: StdRng::seed_from_u64(0),
        }
    }

    /// Attaches a noise stack, seeded for reproducibility.
    #[must_use]
    pub fn with_noise(mut self, noise: impl NoiseModel + Send + 'static, seed: u64) -> Self {
        self.noise = Some(Box::new(noise));
        self.rng = StdRng::seed_from_u64(seed);
        self
    }
}

impl CurrentSource for PhysicsSource {
    fn current(&mut self, v1: f64, v2: f64) -> f64 {
        let w = self.window;
        let v1 = v1.clamp(w.x_min, w.x_max);
        let v2 = v2.clamp(w.y_min, w.y_max);
        let mut volts = self.bias.clone();
        volts[self.gate_x] = v1;
        volts[self.gate_y] = v2;
        // The device model only fails on shape mismatches, which the
        // constructor has ruled out.
        let clean = self
            .device
            .current(&volts)
            .expect("gate vector shape verified at construction");
        match &mut self.noise {
            Some(n) => clean + n.sample(&mut self.rng),
            None => clean,
        }
    }

    fn window(&self) -> VoltageWindow {
        self.window
    }
}

/// Adapts a closure as a current source — handy in tests and examples.
pub struct FnSource<F> {
    f: F,
    window: VoltageWindow,
}

impl<F> std::fmt::Debug for FnSource<F> {
    fn fmt(&self, fmt: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fmt.debug_struct("FnSource")
            .field("window", &self.window)
            .finish()
    }
}

impl<F> FnSource<F>
where
    F: FnMut(f64, f64) -> f64,
{
    /// Wraps `f` with the given window.
    pub fn new(f: F, window: VoltageWindow) -> Self {
        Self { f, window }
    }
}

impl<F> CurrentSource for FnSource<F>
where
    F: FnMut(f64, f64) -> f64,
{
    fn current(&mut self, v1: f64, v2: f64) -> f64 {
        (self.f)(v1, v2)
    }

    fn window(&self) -> VoltageWindow {
        self.window
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qd_physics::{DeviceBuilder, WhiteNoise};

    fn grid() -> VoltageGrid {
        VoltageGrid::new(0.0, 0.0, 1.0, 16, 16).unwrap()
    }

    #[test]
    fn window_from_grid() {
        let w = VoltageWindow::from_grid(&grid());
        assert_eq!(w.x_min, 0.0);
        assert_eq!(w.x_max, 15.0);
        assert_eq!(w.width_px(), 16);
        assert_eq!(w.height_px(), 16);
        assert_eq!(w.len(), 256);
        assert!(!w.is_empty());
    }

    #[test]
    fn quantize_rounds_and_clamps() {
        let w = VoltageWindow::from_grid(&grid());
        assert_eq!(w.quantize(3.4, 3.6), (3, 4));
        assert_eq!(w.quantize(-10.0, 100.0), (0, 15));
    }

    #[test]
    fn csd_source_returns_pixel_values() {
        let csd = Csd::from_fn(grid(), |v1, v2| v1 * 100.0 + v2).unwrap();
        let mut s = CsdSource::new(csd);
        assert_eq!(s.current(3.0, 5.0), 305.0);
        // Rounding to nearest pixel.
        assert_eq!(s.current(3.4, 5.4), 305.0);
        assert_eq!(s.current(3.6, 5.6), 406.0);
    }

    #[test]
    fn csd_source_clamps_out_of_window() {
        let csd = Csd::from_fn(grid(), |v1, v2| v1 * 100.0 + v2).unwrap();
        let mut s = CsdSource::new(csd);
        assert_eq!(s.current(-5.0, -5.0), 0.0);
        assert_eq!(s.current(50.0, 50.0), 1515.0);
    }

    #[test]
    fn physics_source_matches_device() {
        let device = DeviceBuilder::double_dot().build_array().unwrap();
        let expected = device.current(&[10.0, 20.0]).unwrap();
        let w = VoltageWindow {
            x_min: 0.0,
            y_min: 0.0,
            x_max: 100.0,
            y_max: 100.0,
            delta: 1.0,
        };
        let mut s = PhysicsSource::new(device, 0, 1, vec![0.0, 0.0], w);
        assert_eq!(s.current(10.0, 20.0), expected);
    }

    #[test]
    fn physics_source_noise_is_reproducible() {
        let w = VoltageWindow {
            x_min: 0.0,
            y_min: 0.0,
            x_max: 100.0,
            y_max: 100.0,
            delta: 1.0,
        };
        let make = || {
            let device = DeviceBuilder::double_dot().build_array().unwrap();
            PhysicsSource::new(device, 0, 1, vec![0.0, 0.0], w).with_noise(WhiteNoise::new(0.1), 7)
        };
        let mut a = make();
        let mut b = make();
        for i in 0..20 {
            let v = i as f64;
            assert_eq!(a.current(v, v), b.current(v, v));
        }
    }

    #[test]
    fn physics_source_noise_depends_on_order() {
        // Drift noise: probing A,B differs from B,A at the second probe.
        use qd_physics::DriftNoise;
        let w = VoltageWindow {
            x_min: 0.0,
            y_min: 0.0,
            x_max: 100.0,
            y_max: 100.0,
            delta: 1.0,
        };
        let make = || {
            let device = DeviceBuilder::double_dot().build_array().unwrap();
            PhysicsSource::new(device, 0, 1, vec![0.0, 0.0], w)
                .with_noise(DriftNoise::new(0.5, 0.0), 3)
        };
        let mut fwd = make();
        let a1 = fwd.current(10.0, 10.0);
        let _b1 = fwd.current(20.0, 20.0);
        let mut rev = make();
        let _b2 = rev.current(20.0, 20.0);
        let a2 = rev.current(10.0, 10.0);
        assert_ne!(a1, a2, "drift must make probe order matter");
    }

    #[test]
    fn fn_source_delegates() {
        let w = VoltageWindow {
            x_min: 0.0,
            y_min: 0.0,
            x_max: 10.0,
            y_max: 10.0,
            delta: 1.0,
        };
        let mut s = FnSource::new(|a, b| a + b, w);
        assert_eq!(s.current(2.0, 3.0), 5.0);
        assert_eq!(s.window(), w);
    }

    #[test]
    #[should_panic(expected = "bad gate indices")]
    fn physics_source_rejects_equal_gates() {
        let device = DeviceBuilder::double_dot().build_array().unwrap();
        let w = VoltageWindow {
            x_min: 0.0,
            y_min: 0.0,
            x_max: 1.0,
            y_max: 1.0,
            delta: 1.0,
        };
        let _ = PhysicsSource::new(device, 0, 0, vec![0.0, 0.0], w);
    }
}
