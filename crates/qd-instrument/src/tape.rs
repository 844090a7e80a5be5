//! Probe tapes: newline-framed JSON recordings of `getCurrent` traffic.
//!
//! A *tape* is the serialized probe-level trace of one measurement run:
//! a header line describing the instrument (voltage window, per-probe
//! dwell, generation seed, free-form label) followed by one line per
//! dwell-costing probe (raw voltages, quantized pixel, sensor current).
//! Tapes are what make hardware-free regression fixtures possible — a
//! run recorded against any source (simulated, throttled, or a real
//! instrument behind a [`crate::CurrentSource`] adapter) can be replayed
//! bit-identically without the source, by [`ReplaySource`].
//!
//! The format is the workspace's usual newline-framed JSON
//! ([`fastvg_wire::Json`]); see `docs/BACKENDS.md` for the schema. Field
//! values round-trip exactly: voltages and currents are emitted in
//! shortest round-trip form, so `record → save → load → replay`
//! reproduces every reading bit-for-bit.

use crate::{CurrentSource, VoltageWindow};
use fastvg_wire::Json;
use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Duration;

/// Format version emitted in the header's `"fastvg_tape"` member.
pub const TAPE_VERSION: u64 = 1;

/// The largest window a tape header may declare: 4096² pixels. A
/// replaying session allocates a 4-byte table entry per window pixel, so
/// this caps it at 64 MB.
const MAX_WINDOW_PIXELS: f64 = (1u64 << 24) as f64;

/// A malformed, unreadable or unwritable tape.
#[derive(Debug)]
pub struct TapeError {
    /// What went wrong.
    pub message: String,
    /// The underlying I/O error, when the failure was I/O.
    pub source: Option<std::io::Error>,
}

impl TapeError {
    fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
            source: None,
        }
    }

    fn io(message: impl Into<String>, source: std::io::Error) -> Self {
        Self {
            message: message.into(),
            source: Some(source),
        }
    }
}

impl std::fmt::Display for TapeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The I/O cause is reported through `Error::source`, not
        // duplicated here.
        f.write_str(&self.message)
    }
}

impl std::error::Error for TapeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        self.source.as_ref().map(|e| e as _)
    }
}

/// The header line of a tape: everything about the run that is not a
/// probe.
#[derive(Debug, Clone, PartialEq)]
pub struct TapeHeader {
    /// Free-form run label (benchmark name, device id, …).
    pub label: String,
    /// The voltage window the recorded source was defined on.
    pub window: VoltageWindow,
    /// The per-probe dwell the recorded source emulated (zero for pure
    /// simulation).
    pub dwell: Duration,
    /// The generation seed of the recorded scenario (0 when unknown).
    pub seed: u64,
}

/// One recorded dwell-costing probe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TapeProbe {
    /// Raw requested plunger voltage `V_P1`.
    pub v1: f64,
    /// Raw requested plunger voltage `V_P2`.
    pub v2: f64,
    /// Quantized pixel of the probe (window coordinates).
    pub pixel: (i64, i64),
    /// Sensor current returned.
    pub value: f64,
}

/// A parsed probe tape: header plus the probe sequence, in probe order.
#[derive(Debug, Clone, PartialEq)]
pub struct Tape {
    /// The run description.
    pub header: TapeHeader,
    /// Every recorded probe, in the order it was measured.
    pub probes: Vec<TapeProbe>,
}

fn req_f64(json: &Json, key: &str) -> Result<f64, TapeError> {
    json.get(key)
        .and_then(Json::as_f64)
        .filter(|v| v.is_finite())
        .ok_or_else(|| TapeError::new(format!("tape: bad or missing \"{key}\"")))
}

fn header_json(header: &TapeHeader) -> Json {
    let w = header.window;
    Json::object()
        .field("fastvg_tape", TAPE_VERSION)
        .field("label", header.label.as_str())
        .field(
            "window",
            Json::object()
                .field("x_min", Json::num(w.x_min))
                .field("y_min", Json::num(w.y_min))
                .field("x_max", Json::num(w.x_max))
                .field("y_max", Json::num(w.y_max))
                .field("delta", Json::num(w.delta))
                .build(),
        )
        .field("dwell_ns", header.dwell.as_nanos())
        .field("seed", header.seed)
        .build()
}

fn probe_json(probe: &TapeProbe) -> Json {
    Json::object()
        .field("v1", Json::num(probe.v1))
        .field("v2", Json::num(probe.v2))
        .field("x", probe.pixel.0)
        .field("y", probe.pixel.1)
        .field("value", Json::num(probe.value))
        .build()
}

impl TapeHeader {
    fn from_json(json: &Json) -> Result<Self, TapeError> {
        let version = json
            .get("fastvg_tape")
            .and_then(Json::as_u64)
            .ok_or_else(|| TapeError::new("tape: first line is not a tape header"))?;
        if version != TAPE_VERSION {
            return Err(TapeError::new(format!(
                "tape: unsupported format version {version} (this build reads {TAPE_VERSION})"
            )));
        }
        let label = json
            .get("label")
            .and_then(Json::as_str)
            .ok_or_else(|| TapeError::new("tape: bad or missing \"label\""))?
            .to_string();
        let window = json
            .get("window")
            .ok_or_else(|| TapeError::new("tape: missing \"window\""))?;
        let window = VoltageWindow {
            x_min: req_f64(window, "x_min")?,
            y_min: req_f64(window, "y_min")?,
            x_max: req_f64(window, "x_max")?,
            y_max: req_f64(window, "y_max")?,
            delta: req_f64(window, "delta")?,
        };
        if window.delta <= 0.0 || window.x_max < window.x_min || window.y_max < window.y_min {
            return Err(TapeError::new("tape: degenerate voltage window"));
        }
        // In f64, so that no extent can overflow `width_px()` first.
        let extent = |lo: f64, hi: f64| ((hi - lo) / window.delta).round() + 1.0;
        if extent(window.x_min, window.x_max) * extent(window.y_min, window.y_max)
            > MAX_WINDOW_PIXELS
        {
            return Err(TapeError::new(format!(
                "tape: voltage window exceeds the {MAX_WINDOW_PIXELS} pixel cap (4096 x 4096)"
            )));
        }
        let dwell = json
            .get("dwell_ns")
            .and_then(Json::as_u64)
            .map(Duration::from_nanos)
            .ok_or_else(|| TapeError::new("tape: bad or missing \"dwell_ns\""))?;
        let seed = json
            .get("seed")
            .and_then(Json::as_u64)
            .ok_or_else(|| TapeError::new("tape: bad or missing \"seed\""))?;
        Ok(Self {
            label,
            window,
            dwell,
            seed,
        })
    }
}

impl TapeProbe {
    fn from_json(json: &Json) -> Result<Self, TapeError> {
        let coord = |key: &str| -> Result<i64, TapeError> {
            json.get(key)
                .and_then(Json::as_i64)
                .ok_or_else(|| TapeError::new(format!("tape: bad or missing probe \"{key}\"")))
        };
        Ok(Self {
            v1: req_f64(json, "v1")?,
            v2: req_f64(json, "v2")?,
            pixel: (coord("x")?, coord("y")?),
            value: req_f64(json, "value")?,
        })
    }
}

impl Tape {
    /// Serializes the tape to its newline-framed text form.
    pub fn to_text(&self) -> String {
        let mut out = header_json(&self.header).dump();
        out.push('\n');
        for probe in &self.probes {
            out.push_str(&probe_json(probe).dump());
            out.push('\n');
        }
        out
    }

    /// Parses a tape from its text form.
    ///
    /// # Errors
    ///
    /// Returns [`TapeError`] on a missing/malformed header, an
    /// unsupported format version, or any malformed probe line.
    pub fn parse(text: &str) -> Result<Self, TapeError> {
        let mut lines = text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty());
        let (_, first) = lines
            .next()
            .ok_or_else(|| TapeError::new("tape: empty file"))?;
        let header = Json::parse(first.trim())
            .map_err(|e| TapeError::new(format!("tape: malformed header line: {e}")))?;
        let header = TapeHeader::from_json(&header)?;
        let mut probes = Vec::new();
        for (n, line) in lines {
            let json = Json::parse(line.trim()).map_err(|e| {
                TapeError::new(format!("tape: malformed probe on line {}: {e}", n + 1))
            })?;
            probes.push(TapeProbe::from_json(&json)?);
        }
        Ok(Self { header, probes })
    }

    /// Reads and parses a tape file.
    ///
    /// # Errors
    ///
    /// Returns [`TapeError`] on I/O failures or malformed content.
    pub fn load(path: &Path) -> Result<Self, TapeError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| TapeError::io(format!("tape: cannot read {}", path.display()), e))?;
        Self::parse(&text)
    }

    /// Writes the tape to a file, creating parent directories as needed.
    ///
    /// # Errors
    ///
    /// Returns [`TapeError`] on I/O failures.
    pub fn save(&self, path: &Path) -> Result<(), TapeError> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(|e| {
                    TapeError::io(format!("tape: cannot create {}", parent.display()), e)
                })?;
            }
        }
        std::fs::write(path, self.to_text())
            .map_err(|e| TapeError::io(format!("tape: cannot write {}", path.display()), e))
    }
}

/// Wraps a [`CurrentSource`], taping every probe that reaches it.
///
/// Sits *below* the [`crate::MeasurementSession`] cache, so the tape
/// holds exactly the dwell-costing probes — the ones that would cost
/// real instrument time — in measurement order. The readings pass
/// through untouched; recording never changes extraction results.
///
/// Probes are streamed to the sink as they happen (header first), so a
/// crashed run still leaves a readable prefix. Call
/// [`RecordingSource::finish`] to flush and surface any deferred write
/// error; dropping the source flushes best-effort.
pub struct RecordingSource<S> {
    inner: S,
    sink: Box<dyn Write + Send>,
    probes: usize,
    write_error: Option<std::io::Error>,
    path: Option<PathBuf>,
}

impl<S: CurrentSource> std::fmt::Debug for RecordingSource<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecordingSource")
            .field("probes", &self.probes)
            .field("path", &self.path)
            .finish_non_exhaustive()
    }
}

impl<S: CurrentSource> RecordingSource<S> {
    /// Tapes `inner` to a new file at `path` (parent directories are
    /// created), writing the header immediately.
    ///
    /// # Errors
    ///
    /// Returns [`TapeError`] when the file cannot be created or the
    /// header cannot be written.
    pub fn create(
        inner: S,
        path: &Path,
        label: &str,
        dwell: Duration,
        seed: u64,
    ) -> Result<Self, TapeError> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(|e| {
                    TapeError::io(format!("tape: cannot create {}", parent.display()), e)
                })?;
            }
        }
        let file = std::fs::File::create(path)
            .map_err(|e| TapeError::io(format!("tape: cannot create {}", path.display()), e))?;
        let sink = Box::new(std::io::BufWriter::new(file));
        let mut source = Self::to_sink(inner, sink, label, dwell, seed)?;
        source.path = Some(path.to_path_buf());
        Ok(source)
    }

    /// Tapes `inner` to an arbitrary sink (in-memory buffers in tests).
    ///
    /// # Errors
    ///
    /// Returns [`TapeError`] when the header cannot be written.
    pub fn to_sink(
        inner: S,
        mut sink: Box<dyn Write + Send>,
        label: &str,
        dwell: Duration,
        seed: u64,
    ) -> Result<Self, TapeError> {
        let header = TapeHeader {
            label: label.to_string(),
            window: inner.window(),
            dwell,
            seed,
        };
        let mut line = header_json(&header).dump();
        line.push('\n');
        sink.write_all(line.as_bytes())
            .map_err(|e| TapeError::io("tape: cannot write header", e))?;
        Ok(Self {
            inner,
            sink,
            probes: 0,
            write_error: None,
            path: None,
        })
    }

    /// Probes taped so far.
    pub fn probes_recorded(&self) -> usize {
        self.probes
    }

    /// Flushes the sink and surfaces any write error deferred during
    /// recording.
    ///
    /// # Errors
    ///
    /// The first deferred write error, or the flush error.
    pub fn finish(mut self) -> Result<(), TapeError> {
        if let Some(e) = self.write_error.take() {
            return Err(TapeError::io("tape: deferred write error", e));
        }
        self.sink
            .flush()
            .map_err(|e| TapeError::io("tape: flush failed", e))
    }
}

impl<S: CurrentSource> CurrentSource for RecordingSource<S> {
    fn current(&mut self, v1: f64, v2: f64) -> f64 {
        let value = self.inner.current(v1, v2);
        let probe = TapeProbe {
            v1,
            v2,
            pixel: self.window().quantize(v1, v2),
            value,
        };
        let mut line = probe_json(&probe).dump();
        line.push('\n');
        if self.write_error.is_none() {
            if let Err(e) = self.sink.write_all(line.as_bytes()) {
                // Readings must keep flowing (the extraction is not the
                // tape's hostage), but a truncated tape must never pass
                // silently: shout immediately, and again on drop. The
                // error also stays retrievable through `finish`.
                eprintln!(
                    "tape: write failed after {} probes{}: {e} — recording truncated",
                    self.probes,
                    self.path
                        .as_deref()
                        .map(|p| format!(" ({})", p.display()))
                        .unwrap_or_default(),
                );
                self.write_error = Some(e);
            }
        }
        self.probes += 1;
        value
    }

    fn window(&self) -> VoltageWindow {
        self.inner.window()
    }
}

impl<S> Drop for RecordingSource<S> {
    fn drop(&mut self) {
        if let Some(e) = &self.write_error {
            eprintln!(
                "tape: dropping recording with an unreported write error{}: {e} — \
                 the tape is truncated",
                self.path
                    .as_deref()
                    .map(|p| format!(" ({})", p.display()))
                    .unwrap_or_default(),
            );
        } else if let Err(e) = self.sink.flush() {
            eprintln!(
                "tape: final flush failed{}: {e} — the tape may be truncated",
                self.path
                    .as_deref()
                    .map(|p| format!(" ({})", p.display()))
                    .unwrap_or_default(),
            );
        }
    }
}

/// How a [`ReplaySource`] serves probes off a tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplayMode {
    /// Probes must arrive in exactly the recorded pixel sequence; any
    /// divergence (wrong pixel, or more probes than the tape holds) is
    /// a hard error. This is the regression-fixture mode: it proves the
    /// consumer reproduces the recorded run bit-for-bit.
    #[default]
    Strict,
    /// Probes are served by pixel lookup in any order; only pixels the
    /// tape never recorded are errors. Useful when replaying a tape
    /// against a slightly different consumer (changed configuration,
    /// exploratory analysis).
    AnyOrder,
}

/// Plays a [`Tape`] back as a [`CurrentSource`] — the hardware-free
/// regression instrument.
///
/// In [`ReplayMode::Strict`] (the default) the source verifies that the
/// consumer probes exactly the recorded pixel sequence and **panics on
/// the first divergence** with a message naming the probe index and the
/// expected/actual pixels. Like the probe-budget tripwire on
/// [`crate::MeasurementSession`], this is a deliberate hard stop: a
/// diverged replay has no honest reading to return, and silently wrong
/// currents would corrupt the extraction it is supposed to pin down.
#[derive(Debug)]
pub struct ReplaySource {
    tape: Tape,
    mode: ReplayMode,
    cursor: usize,
    by_pixel: HashMap<(i64, i64), f64>,
}

impl ReplaySource {
    /// A replay source over a parsed tape.
    pub fn new(tape: Tape, mode: ReplayMode) -> Self {
        // First-probe-wins, matching the session cache: the value a
        // cached session saw for a pixel is the first one measured.
        let mut by_pixel = HashMap::with_capacity(tape.probes.len());
        for probe in &tape.probes {
            by_pixel.entry(probe.pixel).or_insert(probe.value);
        }
        Self {
            tape,
            mode,
            cursor: 0,
            by_pixel,
        }
    }

    /// Loads a tape file and wraps it.
    ///
    /// # Errors
    ///
    /// Returns [`TapeError`] on I/O failures or malformed content.
    pub fn load(path: &Path, mode: ReplayMode) -> Result<Self, TapeError> {
        Ok(Self::new(Tape::load(path)?, mode))
    }

    /// The tape being replayed.
    pub fn tape(&self) -> &Tape {
        &self.tape
    }

    /// Probes served so far (strict mode's cursor).
    pub fn position(&self) -> usize {
        self.cursor
    }

    /// Probes remaining on the tape in strict mode.
    pub fn remaining(&self) -> usize {
        self.tape.probes.len().saturating_sub(self.cursor)
    }
}

impl CurrentSource for ReplaySource {
    /// # Panics
    ///
    /// In [`ReplayMode::Strict`], panics on any probe-sequence
    /// divergence (wrong pixel or tape exhausted). In
    /// [`ReplayMode::AnyOrder`], panics when the probed pixel was never
    /// recorded.
    fn current(&mut self, v1: f64, v2: f64) -> f64 {
        let pixel = self.tape.header.window.quantize(v1, v2);
        match self.mode {
            ReplayMode::Strict => {
                let Some(expected) = self.tape.probes.get(self.cursor) else {
                    panic!(
                        "replay divergence at probe {}: tape {:?} has only {} probes \
                         but the consumer probed pixel {:?}",
                        self.cursor,
                        self.tape.header.label,
                        self.tape.probes.len(),
                        pixel,
                    );
                };
                assert!(
                    expected.pixel == pixel,
                    "replay divergence at probe {}: tape {:?} recorded pixel {:?}, \
                     consumer probed {:?}",
                    self.cursor,
                    self.tape.header.label,
                    expected.pixel,
                    pixel,
                );
                self.cursor += 1;
                expected.value
            }
            ReplayMode::AnyOrder => {
                self.cursor += 1;
                *self.by_pixel.get(&pixel).unwrap_or_else(|| {
                    panic!(
                        "replay miss: tape {:?} never recorded pixel {pixel:?}",
                        self.tape.header.label
                    )
                })
            }
        }
    }

    fn window(&self) -> VoltageWindow {
        self.tape.header.window
    }
}

/// An in-memory sink for [`RecordingSource::to_sink`], shareable with
/// the test that inspects the bytes afterwards.
#[derive(Debug, Clone, Default)]
pub struct SharedBuffer(std::sync::Arc<Mutex<Vec<u8>>>);

impl SharedBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bytes written so far.
    pub fn contents(&self) -> Vec<u8> {
        self.0.lock().expect("buffer poisoned").clone()
    }
}

impl Write for SharedBuffer {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .expect("buffer poisoned")
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FnSource, MeasurementSession};

    fn window() -> VoltageWindow {
        VoltageWindow {
            x_min: 0.0,
            y_min: 0.0,
            x_max: 9.0,
            y_max: 9.0,
            delta: 1.0,
        }
    }

    fn recorded_tape() -> Tape {
        let buffer = SharedBuffer::new();
        let source = RecordingSource::to_sink(
            FnSource::new(|a, b| 10.0 * a + b, window()),
            Box::new(buffer.clone()),
            "unit",
            Duration::from_millis(50),
            7,
        )
        .unwrap();
        let mut session = MeasurementSession::new(source);
        let _ = session.get_current(1.0, 2.0);
        let _ = session.get_current(3.0, 4.0);
        let _ = session.get_current(1.0, 2.0); // cache hit: not taped
        let _ = session.get_current(5.0, 6.0);
        drop(session);
        Tape::parse(std::str::from_utf8(&buffer.contents()).unwrap()).unwrap()
    }

    #[test]
    fn recording_tapes_only_dwell_costing_probes() {
        let tape = recorded_tape();
        assert_eq!(tape.header.label, "unit");
        assert_eq!(tape.header.seed, 7);
        assert_eq!(tape.header.dwell, Duration::from_millis(50));
        assert_eq!(tape.header.window, window());
        assert_eq!(tape.probes.len(), 3, "cache hits never reach the tape");
        assert_eq!(tape.probes[0].pixel, (1, 2));
        assert_eq!(tape.probes[0].value, 12.0);
        assert_eq!(tape.probes[2].pixel, (5, 6));
    }

    #[test]
    fn tape_text_round_trips() {
        let tape = recorded_tape();
        let text = tape.to_text();
        let back = Tape::parse(&text).unwrap();
        assert_eq!(back, tape);
        assert_eq!(back.to_text(), text, "stable re-emission");
    }

    #[test]
    fn tape_file_round_trips() {
        let tape = recorded_tape();
        let path = std::env::temp_dir().join(format!(
            "fastvg-tape-test-{}-{:?}.tape",
            std::process::id(),
            std::thread::current().id()
        ));
        tape.save(&path).unwrap();
        let back = Tape::load(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(back, tape);
    }

    #[test]
    fn strict_replay_reproduces_the_run() {
        let tape = recorded_tape();
        let mut replay = ReplaySource::new(tape, ReplayMode::Strict);
        assert_eq!(replay.remaining(), 3);
        assert_eq!(replay.current(1.0, 2.0), 12.0);
        assert_eq!(replay.current(3.0, 4.0), 34.0);
        assert_eq!(replay.current(5.0, 6.0), 56.0);
        assert_eq!(replay.position(), 3);
        assert_eq!(replay.remaining(), 0);
    }

    #[test]
    fn strict_replay_panics_on_divergence() {
        let tape = recorded_tape();
        let mut replay = ReplaySource::new(tape, ReplayMode::Strict);
        let _ = replay.current(1.0, 2.0);
        let diverged = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = replay.current(9.0, 9.0); // tape recorded (3,4) next
        }));
        let message = *diverged.unwrap_err().downcast::<String>().unwrap();
        assert!(message.contains("replay divergence"), "{message}");
        assert!(message.contains("(3, 4)"), "{message}");
    }

    #[test]
    fn strict_replay_panics_past_the_end() {
        let tape = recorded_tape();
        let mut replay = ReplaySource::new(tape, ReplayMode::Strict);
        let _ = replay.current(1.0, 2.0);
        let _ = replay.current(3.0, 4.0);
        let _ = replay.current(5.0, 6.0);
        let overrun = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = replay.current(1.0, 2.0);
        }));
        assert!(overrun.is_err(), "tape exhaustion must trip");
    }

    #[test]
    fn any_order_replay_serves_by_pixel() {
        let tape = recorded_tape();
        let mut replay = ReplaySource::new(tape, ReplayMode::AnyOrder);
        assert_eq!(replay.current(5.0, 6.0), 56.0);
        assert_eq!(replay.current(1.0, 2.0), 12.0);
        assert_eq!(replay.current(1.0, 2.0), 12.0); // re-probes fine
        let miss = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = replay.current(9.0, 9.0);
        }));
        assert!(miss.is_err(), "unrecorded pixels must trip");
    }

    #[test]
    fn malformed_tapes_are_rejected() {
        let header_only = recorded_tape()
            .to_text()
            .lines()
            .next()
            .unwrap()
            .to_string();
        let bad_probe = format!("{header_only}\n{{\"v1\": 1.0}}\n");
        // A 10⁹ × 10⁹-pixel window, whose pixel table could not be
        // allocated; the same header over a 10 × 10 window parses.
        let oversized = "{\"fastvg_tape\": 1, \"label\": \"x\", \"dwell_ns\": 0, \"seed\": 0, \
            \"window\": {\"x_min\": 0, \"y_min\": 0, \"x_max\": 1e6, \"y_max\": 1e6, \
            \"delta\": 0.001}}";
        assert!(Tape::parse(&oversized.replace("1e6", "0.009")).is_ok());
        for text in [
            "",
            "{}",
            "not json",
            "{\"fastvg_tape\": 99, \"label\": \"x\"}",
            bad_probe.as_str(), // good header, malformed probe line
            oversized,
        ] {
            let err = Tape::parse(text).unwrap_err();
            assert!(!err.to_string().is_empty(), "{text:?}");
        }
        let err = Tape::parse(oversized).unwrap_err().to_string();
        assert!(err.contains("16777216 pixel cap"), "{err}");
    }

    #[test]
    fn finish_surfaces_nothing_on_clean_runs() {
        let buffer = SharedBuffer::new();
        let mut source = RecordingSource::to_sink(
            FnSource::new(|a, b| a + b, window()),
            Box::new(buffer.clone()),
            "finish",
            Duration::ZERO,
            0,
        )
        .unwrap();
        let _ = source.current(1.0, 1.0);
        assert_eq!(source.probes_recorded(), 1);
        source.finish().unwrap();
        let tape = Tape::parse(std::str::from_utf8(&buffer.contents()).unwrap()).unwrap();
        assert_eq!(tape.probes.len(), 1);
        assert_eq!(tape.header.dwell, Duration::ZERO);
    }
}
