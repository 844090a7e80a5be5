//! Register-level DAC hardware simulation: the `hwsim:<profile>`
//! backend.
//!
//! The `sim` backend probes a diagram through an *ideal* instrument:
//! every requested voltage is applied exactly, every probe costs the
//! same flat dwell, and the sensor never misbehaves. Real plunger gates
//! sit behind multi-channel DAC chips, and the drivers for those chips
//! (see the exemplars collected in `SNIPPETS.md`: 24-bit command words,
//! per-channel limit tables, vRef/gain output stages) impose a very
//! different contract:
//!
//! * **Quantization** — a channel outputs `offset + code · LSB` for a
//!   `bits`-wide code against its `vRef × gain` span; the requested
//!   voltage is rounded to the nearest representable code.
//! * **Clamping** — each channel carries a `[min_code, max_code]` limit
//!   table (protecting the device); requests outside it rail.
//! * **Bus latency** — changing a channel means clocking a command word
//!   (`CCCC AAAA DDDDDDDDDDDDDDDD`: command nibble, address nibble,
//!   16-bit data) plus an update strobe, and the analog output then
//!   slews to the new voltage at a finite rate. Probe cost is therefore
//!   a *function of the gate-voltage delta*: a large jump across the
//!   window pays slew time a one-pixel step does not.
//! * **Imperfections** — capacitive crosstalk between the two channels,
//!   1/f-style background drift of the sensor operating point
//!   ([`qd_physics::noise::PinkNoise`]), and dead pixels (stuck sensor
//!   readings) injected at a configurable rate.
//!
//! Everything is deterministic from the [`SourceScenario`] seed plus
//! the profile, so the `jobs=1 ≡ jobs=N` and record→replay bitwise
//! guarantees of the backend layer keep holding: dead pixels are a pure
//! hash of `(pixel, seed)`, drift advances one sample per dwell-costing
//! probe, and the bus/DAC models contain no randomness at all.
//!
//! Bus time is *virtual* (computed, never slept — like the session's
//! dwell) and has one rule: [`HwSimProfile::scatter_cost`] over a
//! session's probe scatter. The source itself keeps no ledger; the
//! `fastvg-zoo` harness reports per-scenario sweep cost this way.
//!
//! # Profile grammar
//!
//! ```text
//! hwsim:<preset>[,<key>=<value>]*
//! ```
//!
//! Presets (severity-ordered): `nominal`, `aged`, `worn`, `hostile`.
//! Keys: `bits` (6..=16), `xt` (crosstalk, 0..=0.25), `drift` (1/f σ in
//! nA, 0..=2), `dead` (dead-pixel fraction, 0..=0.5), `clip`
//! (per-channel limit-table margin, 0..=0.2), `slew` (V/ms, positive),
//! `twrite` / `tsettle` (dwell strings, e.g. `2us`). Hostile values are
//! rejected at the door ([`BackendError::InvalidSpec`]), like every
//! other spec surface in the workspace.

use crate::backend::{
    format_dwell, parse_dwell, BackendError, BoxedSource, SourceBackend, SourceScenario,
};
use crate::{CsdSource, CurrentSource, VoltageWindow};
use fastvg_wire::fnv1a64;
use qd_csd::PixelField;
use qd_physics::noise::{NoiseModel, PinkNoise};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

/// Command nibble: write a channel's input register (no output change).
pub const CMD_WRITE_INPUT: u32 = 0x1;
/// Command nibble: strobe input registers to the DAC outputs.
pub const CMD_UPDATE_DAC: u32 = 0x2;
/// Command nibble: write a channel and update it in one word.
pub const CMD_WRITE_UPDATE: u32 = 0x3;

/// The sensor current a dead pixel reads: a railed ADC, far below any
/// live charge-sensor level the generator produces.
pub const DEAD_PIXEL_CURRENT: f64 = 0.0;

fn invalid(message: impl Into<String>) -> BackendError {
    BackendError::InvalidSpec {
        message: message.into(),
    }
}

/// Packs one 24-bit DAC command word: a command nibble, a one-hot
/// channel address nibble, and 16 data bits — the layout of the
/// nanoDAC-style drivers in `SNIPPETS.md`.
pub fn command_word(cmd: u32, channel: u32, data: u16) -> u32 {
    debug_assert!(cmd <= 0xf, "command nibble");
    debug_assert!(channel < 4, "address nibble is one-hot over 4 channels");
    (cmd << 20) | ((0x1 << channel) << 16) | data as u32
}

/// One DAC output channel: the code→voltage transfer function plus the
/// channel's limit table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DacChannel {
    /// Reference voltage of the output stage.
    pub v_ref: f64,
    /// Output gain (span = `v_ref × gain`, the nanoDAC convention).
    pub gain: f64,
    /// Voltage at code 0.
    pub offset: f64,
    /// Voltage step per code.
    pub lsb: f64,
    /// Lowest code the limit table allows.
    pub min_code: u16,
    /// Highest code the limit table allows.
    pub max_code: u16,
}

impl DacChannel {
    /// Quantizes a requested voltage to the nearest representable code,
    /// railed into the channel's limit table.
    pub fn quantize(&self, v: f64) -> u16 {
        let code = ((v - self.offset) / self.lsb).round();
        let code = if code.is_finite() { code as i64 } else { 0 };
        code.clamp(self.min_code as i64, self.max_code as i64) as u16
    }

    /// The voltage a code actually outputs.
    pub fn dequantize(&self, code: u16) -> f64 {
        self.offset + code as f64 * self.lsb
    }

    /// The power-on code (mid-span of the limit table, like the
    /// per-channel default columns of real driver register maps).
    pub fn default_code(&self) -> u16 {
        self.min_code + (self.max_code - self.min_code) / 2
    }

    /// Lowest voltage the limit table admits.
    pub fn v_min(&self) -> f64 {
        self.dequantize(self.min_code)
    }

    /// Highest voltage the limit table admits.
    pub fn v_max(&self) -> f64 {
        self.dequantize(self.max_code)
    }
}

/// The two-channel DAC a profile realizes over a concrete voltage
/// window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DacModel {
    /// Code width in bits (6..=16).
    pub bits: u32,
    /// The plunger channels, `[0] ↦ v1`, `[1] ↦ v2`.
    pub channels: [DacChannel; 2],
}

impl DacModel {
    /// Quantizes a voltage pair to a code pair.
    pub fn quantize(&self, v1: f64, v2: f64) -> (u16, u16) {
        (self.channels[0].quantize(v1), self.channels[1].quantize(v2))
    }

    /// The voltages a code pair outputs.
    pub fn dequantize(&self, codes: (u16, u16)) -> (f64, f64) {
        (
            self.channels[0].dequantize(codes.0),
            self.channels[1].dequantize(codes.1),
        )
    }

    /// The power-on code pair.
    pub fn default_codes(&self) -> (u16, u16) {
        (
            self.channels[0].default_code(),
            self.channels[1].default_code(),
        )
    }
}

/// The named severity presets a profile starts from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HwSimPreset {
    /// An ideal 16-bit DAC: no crosstalk, drift or dead pixels.
    Nominal,
    /// A lightly degraded instrument (mild severity band).
    Aged,
    /// A visibly degraded instrument (moderate severity band).
    Worn,
    /// A failing instrument (severe severity band).
    Hostile,
}

impl HwSimPreset {
    /// Every preset, severity order.
    pub const ALL: [HwSimPreset; 4] = [
        HwSimPreset::Nominal,
        HwSimPreset::Aged,
        HwSimPreset::Worn,
        HwSimPreset::Hostile,
    ];

    /// The grammar name (`nominal`, …).
    pub fn name(self) -> &'static str {
        match self {
            HwSimPreset::Nominal => "nominal",
            HwSimPreset::Aged => "aged",
            HwSimPreset::Worn => "worn",
            HwSimPreset::Hostile => "hostile",
        }
    }

    fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|p| p.name() == name)
    }

    fn defaults(self) -> HwSimProfile {
        let us = Duration::from_micros;
        match self {
            HwSimPreset::Nominal => HwSimProfile {
                preset: self,
                bits: 16,
                crosstalk: 0.0,
                drift: 0.0,
                dead: 0.0,
                clip: 0.0,
                slew: 4.0,
                t_write: us(1),
                t_settle: us(20),
            },
            HwSimPreset::Aged => HwSimProfile {
                preset: self,
                bits: 14,
                crosstalk: 0.01,
                drift: 0.02,
                dead: 0.002,
                clip: 0.01,
                slew: 2.0,
                t_write: us(1),
                t_settle: us(50),
            },
            HwSimPreset::Worn => HwSimProfile {
                preset: self,
                bits: 12,
                crosstalk: 0.03,
                drift: 0.06,
                dead: 0.02,
                clip: 0.03,
                slew: 1.0,
                t_write: us(2),
                t_settle: us(200),
            },
            HwSimPreset::Hostile => HwSimProfile {
                preset: self,
                bits: 10,
                crosstalk: 0.08,
                drift: 0.15,
                dead: 0.12,
                clip: 0.06,
                slew: 0.5,
                t_write: us(5),
                t_settle: Duration::from_millis(1),
            },
        }
    }
}

/// A parsed, validated `hwsim` profile: a preset plus key overrides.
#[derive(Debug, Clone, PartialEq)]
pub struct HwSimProfile {
    /// The preset the profile started from.
    pub preset: HwSimPreset,
    /// DAC code width (6..=16).
    pub bits: u32,
    /// Inter-channel capacitive crosstalk fraction (0..=0.25).
    pub crosstalk: f64,
    /// 1/f background-drift standard deviation in nA (0..=2).
    pub drift: f64,
    /// Dead-pixel fraction (0..=0.5).
    pub dead: f64,
    /// Per-channel limit-table margin: the fraction of code range
    /// clamped off at each end (0..=0.2).
    pub clip: f64,
    /// Analog slew rate in volts per millisecond (positive).
    pub slew: f64,
    /// Bus time per command word.
    pub t_write: Duration,
    /// Fixed settle time per probe.
    pub t_settle: Duration,
}

impl HwSimProfile {
    /// A preset profile with no overrides.
    pub fn preset(preset: HwSimPreset) -> Self {
        preset.defaults()
    }

    /// Parses the profile grammar (everything after `hwsim:`):
    /// `<preset>[,<key>=<value>]*`.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::InvalidSpec`] on an unknown preset or
    /// key or an out-of-range value, and
    /// [`BackendError::DuplicateOption`] on a repeated key.
    pub fn parse(args: &str) -> Result<Self, BackendError> {
        let args = args.trim();
        if args.is_empty() {
            return Err(invalid(
                "hwsim needs a profile: hwsim:<preset>[,<key>=<value>…] \
                 (presets: nominal, aged, worn, hostile)",
            ));
        }
        let mut parts = args.split(',');
        let preset_name = parts.next().unwrap_or("").trim();
        let mut profile = HwSimPreset::from_name(preset_name)
            .ok_or_else(|| {
                invalid(format!(
                    "unknown hwsim preset {preset_name:?} (known: nominal, aged, worn, hostile)"
                ))
            })?
            .defaults();

        let mut seen: Vec<&str> = Vec::new();
        for part in parts {
            let part = part.trim();
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| invalid(format!("hwsim option {part:?} must be <key>=<value>")))?;
            if seen.contains(&key) {
                return Err(BackendError::DuplicateOption {
                    scheme: "hwsim".to_string(),
                    key: key.to_string(),
                });
            }
            seen.push(key);
            let f64_in = |name: &str, lo: f64, hi: f64| -> Result<f64, BackendError> {
                let v: f64 = value
                    .parse()
                    .ok()
                    .filter(|v: &f64| v.is_finite())
                    .ok_or_else(|| {
                        invalid(format!("hwsim {name}={value:?} must be a finite number"))
                    })?;
                if !(lo..=hi).contains(&v) {
                    return Err(invalid(format!("hwsim {name}={value} outside {lo}..={hi}")));
                }
                Ok(v)
            };
            match key {
                "bits" => {
                    let bits: u32 = value
                        .parse()
                        .map_err(|_| invalid(format!("hwsim bits={value:?} must be an integer")))?;
                    if !(6..=16).contains(&bits) {
                        return Err(invalid(format!("hwsim bits={bits} outside 6..=16")));
                    }
                    profile.bits = bits;
                }
                "xt" => profile.crosstalk = f64_in("xt", 0.0, 0.25)?,
                "drift" => profile.drift = f64_in("drift", 0.0, 2.0)?,
                "dead" => profile.dead = f64_in("dead", 0.0, 0.5)?,
                "clip" => profile.clip = f64_in("clip", 0.0, 0.2)?,
                "slew" => {
                    let v = f64_in("slew", 0.0, 1e6)?;
                    if v <= 0.0 {
                        return Err(invalid("hwsim slew must be positive"));
                    }
                    profile.slew = v;
                }
                "twrite" => profile.t_write = parse_dwell(value)?,
                "tsettle" => profile.t_settle = parse_dwell(value)?,
                other => {
                    return Err(invalid(format!(
                        "unknown hwsim option {other:?} \
                         (known: bits, xt, drift, dead, clip, slew, twrite, tsettle)"
                    )))
                }
            }
        }
        Ok(profile)
    }

    /// The canonical argument string: the preset name plus only the
    /// overridden keys, in fixed order. `parse(canonical_args())`
    /// reproduces the profile exactly — the [`SourceBackend::describe`]
    /// contract.
    pub fn canonical_args(&self) -> String {
        let d = self.preset.defaults();
        let mut out = self.preset.name().to_string();
        if self.bits != d.bits {
            out.push_str(&format!(",bits={}", self.bits));
        }
        if self.crosstalk != d.crosstalk {
            out.push_str(&format!(",xt={}", self.crosstalk));
        }
        if self.drift != d.drift {
            out.push_str(&format!(",drift={}", self.drift));
        }
        if self.dead != d.dead {
            out.push_str(&format!(",dead={}", self.dead));
        }
        if self.clip != d.clip {
            out.push_str(&format!(",clip={}", self.clip));
        }
        if self.slew != d.slew {
            out.push_str(&format!(",slew={}", self.slew));
        }
        if self.t_write != d.t_write {
            out.push_str(&format!(",twrite={}", format_dwell(self.t_write)));
        }
        if self.t_settle != d.t_settle {
            out.push_str(&format!(",tsettle={}", format_dwell(self.t_settle)));
        }
        out
    }

    /// Realizes the DAC this profile drives over a concrete voltage
    /// window: each channel's span covers the window plus a 2 % margin,
    /// the output stage picks the nanoDAC-style gain (2 for wide spans,
    /// 1 otherwise), and the limit tables pull `clip` of the code range
    /// in at both ends.
    pub fn dac_for(&self, window: &VoltageWindow) -> DacModel {
        let levels = (1u32 << self.bits) as f64;
        let top = (1u32 << self.bits) - 1;
        let channel = |lo: f64, hi: f64| -> DacChannel {
            let margin = 0.02 * (hi - lo);
            let offset = lo - margin;
            let range = (hi - lo) + 2.0 * margin;
            let gain = if range > 30.0 { 2.0 } else { 1.0 };
            let clipped = (self.clip * top as f64).round() as u16;
            DacChannel {
                v_ref: range / gain,
                gain,
                offset,
                lsb: range / levels,
                min_code: clipped,
                max_code: (top as u16).saturating_sub(clipped),
            }
        };
        DacModel {
            bits: self.bits,
            channels: [
                channel(window.x_min, window.x_max),
                channel(window.y_min, window.y_max),
            ],
        }
    }

    /// Command words one probe clocks: a `CMD_WRITE_INPUT` per changed
    /// channel plus one `CMD_UPDATE_DAC` strobe when anything changed
    /// (`None` = power-on, both channels written).
    pub fn bus_words(prev: Option<(u16, u16)>, next: (u16, u16)) -> u64 {
        let writes = match prev {
            None => 2,
            Some(p) => (p.0 != next.0) as u64 + (p.1 != next.1) as u64,
        };
        writes + (writes > 0) as u64
    }

    /// The virtual cost of one probe: fixed settle time, bus words, and
    /// the analog slew to the new output voltages. Monotone
    /// (non-decreasing) in the gate-voltage delta — the property that
    /// makes large sweeps expensive and one-pixel steps cheap.
    pub fn probe_cost(
        &self,
        dac: &DacModel,
        prev: Option<(u16, u16)>,
        next: (u16, u16),
    ) -> Duration {
        let from = prev.unwrap_or_else(|| dac.default_codes());
        let (f1, f2) = dac.dequantize(from);
        let (t1, t2) = dac.dequantize(next);
        let dv = (t1 - f1).abs().max((t2 - f2).abs());
        let slew = Duration::from_secs_f64(dv / (self.slew * 1000.0));
        self.t_settle + self.t_write * Self::bus_words(prev, next) as u32 + slew
    }

    /// The total bus cost of a dwell-costing probe sequence over
    /// `window`, starting from the power-on codes: the one bus-time
    /// rule. Pass a session's scatter (unique pixels in first-probe
    /// order); the session caches every pixel, so that is exactly the
    /// sequence of probes that reached the DAC.
    pub fn scatter_cost(&self, window: &VoltageWindow, pixels: &[(i64, i64)]) -> Duration {
        let dac = self.dac_for(window);
        let mut prev = None;
        let mut total = Duration::ZERO;
        for &(x, y) in pixels {
            let v1 = window.x_min + x as f64 * window.delta;
            let v2 = window.y_min + y as f64 * window.delta;
            let codes = dac.quantize(v1, v2);
            total += self.probe_cost(&dac, prev, codes);
            prev = Some(codes);
        }
        total
    }
}

/// Whether `(x, y)` is a dead pixel for `seed` at `fraction` — a pure
/// hash, so dead-pixel maps are identical across probe orders, jobs
/// counts and record→replay.
pub fn is_dead_pixel(x: i64, y: i64, seed: u64, fraction: f64) -> bool {
    if fraction <= 0.0 {
        return false;
    }
    let mut bytes = [0u8; 24];
    bytes[..8].copy_from_slice(&x.to_le_bytes());
    bytes[8..16].copy_from_slice(&y.to_le_bytes());
    bytes[16..].copy_from_slice(&seed.to_le_bytes());
    let unit = (fnv1a64(&bytes) >> 11) as f64 / (1u64 << 53) as f64;
    unit < fraction
}

/// A [`CurrentSource`] probing a scenario's field through the
/// simulated DAC register layer. Created by [`HwSimBackend::open`].
pub struct HwSimSource {
    inner: CsdSource<Box<dyn PixelField>>,
    window: VoltageWindow,
    profile: HwSimProfile,
    dac: DacModel,
    seed: u64,
    drift: Option<PinkNoise>,
    rng: StdRng,
}

impl std::fmt::Debug for HwSimSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HwSimSource")
            .field("profile", &self.profile.canonical_args())
            .finish()
    }
}

impl HwSimSource {
    /// A source over `scenario` through `profile`'s instrument. All
    /// stochastic behavior derives from `scenario.seed` and the
    /// profile, nothing else.
    pub fn new(profile: HwSimProfile, scenario: SourceScenario) -> Self {
        let window = VoltageWindow::from_grid(scenario.field.grid());
        let dac = profile.dac_for(&window);
        let salt = fnv1a64(profile.canonical_args().as_bytes());
        let drift = (profile.drift > 0.0).then(|| PinkNoise::new(profile.drift, 4, 0.05));
        Self {
            inner: CsdSource::new(scenario.field),
            window,
            dac,
            seed: scenario.seed,
            drift,
            rng: StdRng::seed_from_u64(scenario.seed ^ salt),
            profile,
        }
    }
}

impl CurrentSource for HwSimSource {
    fn current(&mut self, v1: f64, v2: f64) -> f64 {
        // Register layer: quantize + clamp.
        let (a1, a2) = self.dac.dequantize(self.dac.quantize(v1, v2));

        // Drift advances exactly once per dwell-costing probe, dead or
        // not, so the sample stream is a pure function of the probe
        // sequence.
        let drift = match &mut self.drift {
            Some(p) => p.sample(&mut self.rng),
            None => 0.0,
        };

        let (px, py) = self.window.quantize(a1, a2);
        if is_dead_pixel(px, py, self.seed, self.profile.dead) {
            return DEAD_PIXEL_CURRENT;
        }

        // Capacitive crosstalk, centered on the window so the effect is
        // a pure honeycomb shear rather than a global offset.
        let cx = 0.5 * (self.window.x_min + self.window.x_max);
        let cy = 0.5 * (self.window.y_min + self.window.y_max);
        let e1 = a1 + self.profile.crosstalk * (a2 - cy);
        let e2 = a2 + self.profile.crosstalk * (a1 - cx);
        self.inner.current(e1, e2) + drift
    }

    fn window(&self) -> VoltageWindow {
        self.window
    }
}

/// `hwsim:<profile>` — the scenario's field behind a register-level
/// DAC hardware model. See the module docs for the profile grammar.
#[derive(Debug, Clone, PartialEq)]
pub struct HwSimBackend {
    profile: HwSimProfile,
}

impl HwSimBackend {
    /// A backend applying `profile` to every opened scenario.
    pub fn new(profile: HwSimProfile) -> Self {
        Self { profile }
    }
}

impl SourceBackend for HwSimBackend {
    fn scheme(&self) -> &str {
        "hwsim"
    }

    fn describe(&self) -> String {
        format!("hwsim:{}", self.profile.canonical_args())
    }

    // dwell() stays ZERO: bus/settle/slew time is virtual
    // (scatter_cost), not a real sleep — compose with
    // `throttled:<dwell>+hwsim:<profile>` for wall-clock realism.

    fn open(&self, scenario: SourceScenario) -> Result<BoxedSource, BackendError> {
        Ok(Box::new(HwSimSource::new(self.profile.clone(), scenario)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BackendRegistry, ProbeSession};
    use qd_csd::{Csd, VoltageGrid};

    fn diagram() -> Csd {
        let grid = VoltageGrid::new(-10.0, 5.0, 1.0, 32, 32).unwrap();
        Csd::from_fn(grid, |v1, v2| 2.0 + 0.1 * v1 + 0.01 * v2).unwrap()
    }

    fn scenario() -> SourceScenario {
        SourceScenario::new(diagram())
            .with_label("hwsim-unit")
            .with_seed(99)
    }

    #[test]
    fn presets_parse_and_round_trip_canonically() {
        for preset in HwSimPreset::ALL {
            let p = HwSimProfile::parse(preset.name()).unwrap();
            assert_eq!(p, HwSimPreset::defaults(preset));
            assert_eq!(p.canonical_args(), preset.name());
            assert_eq!(HwSimProfile::parse(&p.canonical_args()).unwrap(), p);
        }
    }

    #[test]
    fn overrides_survive_the_canonical_round_trip() {
        let p = HwSimProfile::parse("aged,dead=0.25,bits=8,tsettle=3ms,slew=0.125").unwrap();
        assert_eq!(p.dead, 0.25);
        assert_eq!(p.bits, 8);
        assert_eq!(p.t_settle, Duration::from_millis(3));
        let again = HwSimProfile::parse(&p.canonical_args()).unwrap();
        assert_eq!(again, p);
    }

    #[test]
    fn hostile_profiles_are_rejected_at_the_door() {
        for bad in [
            "",                    // no preset
            "qpu0",                // unknown preset
            "nominal,dead=0.6",    // over the cap
            "nominal,dead=-0.1",   // negative
            "nominal,dead=NaN",    // not finite
            "nominal,bits=4",      // too coarse
            "nominal,bits=17",     // wider than the bus data field
            "nominal,xt=0.5",      // over the cap
            "nominal,slew=0",      // no slew
            "nominal,warp=9",      // unknown key
            "nominal,dead",        // not key=value
            "nominal,tsettle=50",  // dwell without unit
            "nominal,tsettle=11s", // dwell over the cap
        ] {
            let err = HwSimProfile::parse(bad).unwrap_err();
            assert!(
                matches!(err, BackendError::InvalidSpec { .. }),
                "{bad:?} -> {err}"
            );
        }
        // A repeated knob is its own named, matchable rejection — not a
        // silent last-wins, and not a generic InvalidSpec.
        let err = HwSimProfile::parse("nominal,dead=0.1,dead=0.2").unwrap_err();
        assert!(
            matches!(
                &err,
                BackendError::DuplicateOption { scheme, key }
                    if scheme == "hwsim" && key == "dead"
            ),
            "{err}"
        );
    }

    #[test]
    fn command_words_pack_like_the_exemplar_drivers() {
        assert_eq!(command_word(CMD_WRITE_INPUT, 0, 0xABCD), 0x11_ABCD);
        assert_eq!(command_word(CMD_UPDATE_DAC, 1, 0), 0x22_0000);
        assert_eq!(command_word(CMD_WRITE_UPDATE, 3, 0xFFFF), 0x38_FFFF);
    }

    #[test]
    fn dac_quantizes_clamps_and_round_trips() {
        let profile = HwSimProfile::parse("nominal,clip=0.1").unwrap();
        let window = VoltageWindow {
            x_min: -10.0,
            y_min: 5.0,
            x_max: 21.0,
            y_max: 36.0,
            delta: 1.0,
        };
        let dac = profile.dac_for(&window);
        let ch = dac.channels[0];
        assert!(ch.min_code > 0 && ch.max_code < 0xFFFF, "limit table bites");
        // Voltages inside the limit table round-trip within 1 LSB.
        for v in [ch.v_min() + 0.1, 0.0, 3.17, ch.v_max() - 0.1] {
            let back = ch.dequantize(ch.quantize(v));
            assert!((back - v).abs() <= ch.lsb, "{v} -> {back} (lsb {})", ch.lsb);
        }
        // Out-of-limit voltages rail to the table, not the code space.
        assert_eq!(ch.quantize(-1e9), ch.min_code);
        assert_eq!(ch.quantize(1e9), ch.max_code);
        assert!(ch.v_min() < ch.v_max());
    }

    #[test]
    fn probe_cost_grows_with_voltage_delta() {
        let profile = HwSimProfile::preset(HwSimPreset::Nominal);
        let window = VoltageWindow {
            x_min: 0.0,
            y_min: 0.0,
            x_max: 60.0,
            y_max: 60.0,
            delta: 1.0,
        };
        let dac = profile.dac_for(&window);
        let at = |v: f64| dac.quantize(v, 0.0);
        let from = Some(at(0.0));
        let mut last = Duration::ZERO;
        for v in [0.0, 1.0, 5.0, 20.0, 60.0] {
            let cost = profile.probe_cost(&dac, from, at(v));
            assert!(cost >= last, "cost must be monotone in delta");
            last = cost;
        }
        // A repeat probe clocks no words; a changed one pays the bus.
        assert_eq!(HwSimProfile::bus_words(from, at(0.0)), 0);
        assert_eq!(HwSimProfile::bus_words(from, at(5.0)), 2);
        assert_eq!(HwSimProfile::bus_words(None, at(0.0)), 3);
    }

    #[test]
    fn nominal_source_matches_the_diagram_within_quantization() {
        let s = scenario();
        let profile = HwSimProfile::preset(HwSimPreset::Nominal);
        let backend = HwSimBackend::new(profile.clone());
        assert_eq!(backend.describe(), "hwsim:nominal");
        let mut plain = CsdSource::new(diagram());
        let mut source = HwSimSource::new(profile, s);
        // A 16-bit DAC over a 31 V window has a ~0.5 mV LSB: every probe
        // lands on the same pixel the ideal source reads.
        for (v1, v2) in [(-10.0, 5.0), (0.25, 17.75), (21.0, 36.0)] {
            assert_eq!(source.current(v1, v2), plain.current(v1, v2));
        }
    }

    #[test]
    fn scatter_cost_prices_the_sessions_probe_order() {
        let backend = BackendRegistry::standard().resolve("hwsim:worn").unwrap();
        let profile = HwSimProfile::preset(HwSimPreset::Worn);
        let cost = |pixels: &[(i64, i64)]| {
            let mut session = backend.session(scenario()).unwrap();
            let w = session.window();
            for &(x, y) in pixels {
                let _ = session.get_current(w.x_min + x as f64, w.y_min + y as f64);
            }
            let before = profile.scatter_cost(&w, &session.scatter());
            // Cached re-probes never reach the DAC, so they cost nothing.
            for &(x, y) in pixels {
                let _ = session.get_current(w.x_min + x as f64, w.y_min + y as f64);
            }
            assert_eq!(profile.scatter_cost(&w, &session.scatter()), before);
            before
        };
        assert_eq!(cost(&[]), Duration::ZERO);
        // The same four pixels: one jump across the window versus three.
        let friendly = cost(&[(4, 4), (5, 4), (26, 27), (27, 27)]);
        let jumpy = cost(&[(4, 4), (27, 27), (5, 4), (26, 27)]);
        assert!(friendly > Duration::ZERO);
        assert!(friendly < jumpy, "{friendly:?} vs {jumpy:?}");
    }

    #[test]
    fn sources_are_deterministic_from_the_scenario_seed() {
        let profile = HwSimProfile::parse("hostile").unwrap();
        let run = || {
            let mut src = HwSimSource::new(profile.clone(), scenario());
            (0..40)
                .map(|i| {
                    src.current(-10.0 + i as f64 * 0.7, 5.0 + i as f64 * 0.3)
                        .to_bits()
                })
                .collect::<Vec<u64>>()
        };
        assert_eq!(run(), run(), "same seed, same probe order -> same bits");

        let other = HwSimSource::new(profile.clone(), scenario().with_seed(100));
        let mut a = HwSimSource::new(profile, scenario());
        let mut b = other;
        let va: Vec<u64> = (0..40)
            .map(|i| a.current(i as f64, i as f64).to_bits())
            .collect();
        let vb: Vec<u64> = (0..40)
            .map(|i| b.current(i as f64, i as f64).to_bits())
            .collect();
        assert_ne!(va, vb, "different seeds must differ");
    }

    #[test]
    fn dead_pixels_are_a_stable_map_at_the_configured_rate() {
        let n = 200i64;
        let frac = 0.1;
        let dead = (0..n)
            .flat_map(|x| (0..n).map(move |y| (x, y)))
            .filter(|&(x, y)| is_dead_pixel(x, y, 42, frac))
            .count();
        let rate = dead as f64 / (n * n) as f64;
        assert!((rate - frac).abs() < 0.02, "dead rate {rate}");
        // Stable: same inputs, same verdict; different seed, different map.
        assert_eq!(is_dead_pixel(3, 7, 42, frac), is_dead_pixel(3, 7, 42, frac));
        let differs =
            (0..n).any(|x| is_dead_pixel(x, 0, 42, frac) != is_dead_pixel(x, 0, 43, frac));
        assert!(differs);
    }

    #[test]
    fn dead_pixels_read_the_rail() {
        let s = scenario();
        let seed = s.seed;
        let mut src = HwSimSource::new(HwSimProfile::parse("nominal,dead=0.3").unwrap(), s);
        let w = src.window();
        let mut found = None;
        'scan: for x in 0..w.width_px() as i64 {
            for y in 0..w.height_px() as i64 {
                if is_dead_pixel(x, y, seed, 0.3) {
                    found = Some((x, y));
                    break 'scan;
                }
            }
        }
        let (x, y) = found.expect("30% dead must hit a 32x32 window");
        let v1 = w.x_min + x as f64 * w.delta;
        let v2 = w.y_min + y as f64 * w.delta;
        assert_eq!(src.current(v1, v2), DEAD_PIXEL_CURRENT);
    }

    #[test]
    fn crosstalk_shears_off_center_readings_only() {
        let mut ideal = HwSimSource::new(HwSimProfile::preset(HwSimPreset::Nominal), scenario());
        let mut sheared =
            HwSimSource::new(HwSimProfile::parse("nominal,xt=0.2").unwrap(), scenario());
        let w = ideal.window();
        let (cx, cy) = (0.5 * (w.x_min + w.x_max), 0.5 * (w.y_min + w.y_max));
        // Dead center: no shear.
        assert_eq!(sheared.current(cx, cy), ideal.current(cx, cy));
        // Window corner: visibly displaced reading.
        assert_ne!(
            sheared.current(w.x_min, w.y_max),
            ideal.current(w.x_min, w.y_max)
        );
    }
}
