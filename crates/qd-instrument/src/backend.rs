//! Runtime probe-source selection: the object-safe [`SourceBackend`]
//! trait and the string-keyed [`BackendRegistry`].
//!
//! Before this module every harness hard-wired its probe source at
//! compile time (`MeasurementSession::new(CsdSource::new(csd))`), so
//! swapping in a throttled source, a recorded tape, or eventually real
//! hardware meant editing and recompiling every entry point. A
//! [`SourceBackend`] erases that choice behind one object-safe seam —
//! the same redesign the extraction layer got with
//! `fastvg_core::api::Extractor` — and the registry makes it
//! addressable from a CLI flag or a service request:
//!
//! | spec | backend |
//! |---|---|
//! | `sim` | replay the scenario's diagram directly ([`CsdSource`]) |
//! | `throttled:<dwell>` | `sim` behind a real per-probe sleep ([`crate::ThrottledSource`]) |
//! | `replay:<tape>` | play a recorded tape back, strictly ([`ReplaySource`]) |
//! | `record:<tape>` | `sim`, taping every probe to `<tape>` ([`RecordingSource`]) |
//! | `record:<tape>+<inner>` | any inner spec, taped |
//! | `hwsim:<profile>` | the diagram behind a register-level DAC model ([`crate::hwsim`]) |
//! | `multiplexed:<N>[+<inner>]` | any inner spec behind `N` shared probe channels ([`crate::mux`]) |
//!
//! `<dwell>` is an integer with a unit (`50us`, `2ms`, `1s`, `0`),
//! validated and capped at the door like `qd-dataset`'s wire specs.
//! Tape paths may contain `{label}`, substituted with the scenario's
//! (sanitized) label at open time so one spec fans out to per-benchmark
//! tapes.
//!
//! # Example
//!
//! ```
//! use qd_csd::{Csd, VoltageGrid};
//! use qd_instrument::backend::{BackendRegistry, SourceScenario};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let registry = BackendRegistry::standard();
//! let backend = registry.resolve("throttled:0")?;
//!
//! let grid = VoltageGrid::new(0.0, 0.0, 1.0, 32, 32)?;
//! let csd = Csd::from_fn(grid, |v1, v2| v1 + v2)?;
//! let mut session = backend.session(SourceScenario::new(csd))?;
//! assert_eq!(session.get_current(2.0, 3.0), 5.0);
//! # Ok(())
//! # }
//! ```

use crate::tape::{RecordingSource, ReplayMode, ReplaySource, TapeError};
use crate::{CsdSource, CurrentSource, MeasurementSession, ThrottledSource};
use qd_csd::Csd;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// A type-erased probe source, as produced by [`SourceBackend::open`].
pub type BoxedSource = Box<dyn CurrentSource + Send>;

/// Largest dwell a `throttled:<dwell>` spec accepts. Real charge-sensor
/// dwells are ~50 ms; 10 s leaves demo headroom without letting a typo
/// (or a hostile request) park a worker for hours per probe.
pub const MAX_BACKEND_DWELL: Duration = Duration::from_secs(10);

/// Errors resolving a backend spec or opening a source through one.
#[derive(Debug)]
#[non_exhaustive]
pub enum BackendError {
    /// The spec's scheme is not in the registry.
    UnknownScheme {
        /// The scheme that failed to resolve.
        scheme: String,
        /// The schemes the registry knows, for the error message.
        known: Vec<String>,
    },
    /// The spec's arguments are malformed or out of range.
    InvalidSpec {
        /// What was wrong.
        message: String,
    },
    /// The same knob appeared twice in one spec. Last-wins would let a
    /// typo silently override an earlier value
    /// (`hwsim:nominal,xt=0.1,xt=0.9`), so duplicates are a named,
    /// matchable rejection instead.
    DuplicateOption {
        /// The scheme whose arguments repeated the knob.
        scheme: String,
        /// The repeated key.
        key: String,
    },
    /// A tape could not be read, written or parsed.
    Tape(TapeError),
}

impl std::fmt::Display for BackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendError::UnknownScheme { scheme, known } => write!(
                f,
                "unknown backend scheme {scheme:?} (known: {})",
                known.join(", ")
            ),
            BackendError::InvalidSpec { message } => {
                write!(f, "invalid backend spec: {message}")
            }
            BackendError::DuplicateOption { scheme, key } => {
                write!(f, "duplicate {scheme} option {key:?}")
            }
            BackendError::Tape(e) => write!(f, "backend tape error: {e}"),
        }
    }
}

impl std::error::Error for BackendError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BackendError::Tape(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TapeError> for BackendError {
    fn from(e: TapeError) -> Self {
        BackendError::Tape(e)
    }
}

fn invalid(message: impl Into<String>) -> BackendError {
    BackendError::InvalidSpec {
        message: message.into(),
    }
}

/// What a backend opens a probe source *over*: the realized diagram
/// plus the metadata recorded into tape headers.
///
/// Every entry point realizes its scenario (a Table 1 benchmark, a wire
/// spec, an inline grid) into a [`Csd`] first; the backend then decides
/// how that diagram is probed — directly, throttled, taped, or not at
/// all (replay ignores the diagram and serves the tape).
#[derive(Debug, Clone)]
pub struct SourceScenario {
    /// The realized diagram.
    pub csd: Csd,
    /// Free-form run label (`bench03-fast`, a job id, …); substituted
    /// into `{label}` tape-path templates and recorded in tape headers.
    pub label: String,
    /// The generation seed behind the diagram (0 when not applicable);
    /// recorded in tape headers.
    pub seed: u64,
}

impl SourceScenario {
    /// A scenario over `csd` with the default label `"run"` and seed 0.
    pub fn new(csd: Csd) -> Self {
        Self {
            csd,
            label: "run".to_string(),
            seed: 0,
        }
    }

    /// Sets the run label (builder style).
    #[must_use]
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Sets the generation seed (builder style).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// An object-safe probe-source provider — the instrument-layer
/// counterpart of `fastvg_core::api::Extractor`.
///
/// Implementations decide how a realized scenario is measured. They are
/// shared across worker threads (`Send + Sync`) and each
/// [`SourceBackend::open`] call must produce an *independent* source:
/// batch layers open one per job, concurrently.
pub trait SourceBackend: Send + Sync {
    /// The registry scheme this backend answers to (`"sim"`, …).
    fn scheme(&self) -> &str;

    /// The canonical spec string describing this exact configuration
    /// (`"throttled:2ms"`); resolving it reproduces the backend.
    fn describe(&self) -> String;

    /// The real per-probe dwell this backend imposes
    /// ([`Duration::ZERO`] for pure simulation). Recorded into tape
    /// headers by recording wrappers.
    fn dwell(&self) -> Duration {
        Duration::ZERO
    }

    /// Opens a fresh probe source over `scenario`.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError`] when the source cannot be constructed
    /// (unreadable tape, unwritable tape path, …).
    fn open(&self, scenario: SourceScenario) -> Result<BoxedSource, BackendError>;

    /// Opens a source and wraps it in a [`MeasurementSession`] — the
    /// common consumer-side one-liner.
    ///
    /// # Errors
    ///
    /// Whatever [`SourceBackend::open`] returns.
    fn session(
        &self,
        scenario: SourceScenario,
    ) -> Result<MeasurementSession<BoxedSource>, BackendError> {
        Ok(MeasurementSession::new(self.open(scenario)?))
    }

    /// The shared [`crate::mux::ChannelPool`] behind this backend, if it
    /// multiplexes its sources over one — `None` for everything else.
    /// Lets observers (the serve daemon's `/metrics`, trace spans) read
    /// contention counters through the object-safe seam without
    /// downcasting.
    fn channel_pool(&self) -> Option<&crate::mux::ChannelPool> {
        None
    }
}

impl std::fmt::Debug for dyn SourceBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "dyn SourceBackend({})", self.describe())
    }
}

/// The compile-time-default backend: probe the scenario's diagram
/// directly through a [`CsdSource`] — exactly what every harness did
/// before backends existed, now as the registry's `sim` entry.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimBackend;

impl SourceBackend for SimBackend {
    fn scheme(&self) -> &str {
        "sim"
    }

    fn describe(&self) -> String {
        "sim".to_string()
    }

    fn open(&self, scenario: SourceScenario) -> Result<BoxedSource, BackendError> {
        Ok(Box::new(CsdSource::new(scenario.csd)))
    }
}

/// `throttled:<dwell>[+<inner>]` — any inner backend behind a real
/// per-probe sleep ([`ThrottledSource`]), making throughput harnesses
/// latency-bound like hardware.
#[derive(Debug)]
pub struct ThrottledBackend {
    dwell: Duration,
    inner: Arc<dyn SourceBackend>,
}

impl ThrottledBackend {
    /// Throttles `inner` to one probe per `dwell`.
    ///
    /// # Errors
    ///
    /// Rejects dwells above [`MAX_BACKEND_DWELL`].
    pub fn new(dwell: Duration, inner: Arc<dyn SourceBackend>) -> Result<Self, BackendError> {
        if dwell > MAX_BACKEND_DWELL {
            return Err(invalid(format!(
                "dwell {dwell:?} exceeds the {MAX_BACKEND_DWELL:?} cap"
            )));
        }
        Ok(Self { dwell, inner })
    }
}

impl SourceBackend for ThrottledBackend {
    fn scheme(&self) -> &str {
        "throttled"
    }

    fn describe(&self) -> String {
        let inner = self.inner.describe();
        if inner == "sim" {
            format!("throttled:{}", format_dwell(self.dwell))
        } else {
            format!("throttled:{}+{inner}", format_dwell(self.dwell))
        }
    }

    fn dwell(&self) -> Duration {
        self.dwell.max(self.inner.dwell())
    }

    fn open(&self, scenario: SourceScenario) -> Result<BoxedSource, BackendError> {
        Ok(Box::new(ThrottledSource::new(
            self.inner.open(scenario)?,
            self.dwell,
        )))
    }
}

/// `replay:<tape>` — serve probes off a recorded tape
/// ([`ReplaySource`]), strictly by default. The scenario's diagram is
/// ignored; the tape *is* the instrument.
#[derive(Debug)]
pub struct ReplayBackend {
    path: PathBuf,
    mode: ReplayMode,
}

impl ReplayBackend {
    /// Replays the tape at `path` (may contain `{label}`).
    pub fn new(path: impl Into<PathBuf>, mode: ReplayMode) -> Self {
        Self {
            path: path.into(),
            mode,
        }
    }
}

impl SourceBackend for ReplayBackend {
    fn scheme(&self) -> &str {
        "replay"
    }

    fn describe(&self) -> String {
        format!("replay:{}", self.path.display())
    }

    fn open(&self, scenario: SourceScenario) -> Result<BoxedSource, BackendError> {
        let path = resolve_tape_path(&self.path, &scenario.label);
        let source = ReplaySource::load(&path, self.mode)?;
        Ok(Box::new(source))
    }
}

/// `record:<tape>[+<inner>]` — any inner backend with every probe taped
/// to `<tape>` ([`RecordingSource`]).
#[derive(Debug)]
pub struct RecordBackend {
    path: PathBuf,
    inner: Arc<dyn SourceBackend>,
}

impl RecordBackend {
    /// Tapes `inner` to `path` (may contain `{label}`; without it,
    /// concurrent opens overwrite each other's tape — use the template
    /// whenever a batch opens more than one source).
    pub fn new(path: impl Into<PathBuf>, inner: Arc<dyn SourceBackend>) -> Self {
        Self {
            path: path.into(),
            inner,
        }
    }
}

impl SourceBackend for RecordBackend {
    fn scheme(&self) -> &str {
        "record"
    }

    fn describe(&self) -> String {
        format!("record:{}+{}", self.path.display(), self.inner.describe())
    }

    fn dwell(&self) -> Duration {
        self.inner.dwell()
    }

    fn open(&self, scenario: SourceScenario) -> Result<BoxedSource, BackendError> {
        let path = resolve_tape_path(&self.path, &scenario.label);
        let label = scenario.label.clone();
        let seed = scenario.seed;
        let dwell = self.inner.dwell();
        let inner = self.inner.open(scenario)?;
        let source = RecordingSource::create(inner, &path, &label, dwell, seed)?;
        Ok(Box::new(source))
    }
}

/// Replaces `{label}` in a tape path with the sanitized scenario label.
fn resolve_tape_path(template: &std::path::Path, label: &str) -> PathBuf {
    let text = template.to_string_lossy();
    if !text.contains("{label}") {
        return template.to_path_buf();
    }
    let sanitized: String = label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                c
            } else {
                '-'
            }
        })
        .collect();
    // "." and ".." survive the character filter but are path
    // components, not names — a {label} of ".." in a multi-component
    // template would escape the tape directory.
    let sanitized = if sanitized.is_empty() || sanitized.chars().all(|c| c == '.') {
        "run".to_string()
    } else {
        sanitized
    };
    PathBuf::from(text.replace("{label}", &sanitized))
}

/// Parses a dwell spec: an unsigned integer with a unit (`ns`, `us`,
/// `ms`, `s`), or a bare `0`. Values above [`MAX_BACKEND_DWELL`] are
/// rejected — hostile dwells are stopped at the door, like
/// `qd-dataset`'s wire-spec ranges.
///
/// # Errors
///
/// Returns [`BackendError::InvalidSpec`] on malformed or out-of-range
/// input.
pub fn parse_dwell(text: &str) -> Result<Duration, BackendError> {
    let text = text.trim();
    if text == "0" {
        return Ok(Duration::ZERO);
    }
    let split = text
        .find(|c: char| !c.is_ascii_digit())
        .filter(|&i| i > 0)
        .ok_or_else(|| {
            invalid(format!(
                "dwell {text:?} must be an unsigned integer with a unit (ns|us|ms|s), e.g. 50us"
            ))
        })?;
    let (digits, unit) = text.split_at(split);
    let value: u64 = digits
        .parse()
        .map_err(|_| invalid(format!("dwell value {digits:?} does not fit u64")))?;
    let dwell = match unit {
        "ns" => Duration::from_nanos(value),
        "us" => Duration::from_micros(value),
        "ms" => Duration::from_millis(value),
        "s" => Duration::from_secs(value),
        other => {
            return Err(invalid(format!(
                "dwell unit {other:?} must be one of ns|us|ms|s"
            )))
        }
    };
    if dwell > MAX_BACKEND_DWELL {
        return Err(invalid(format!(
            "dwell {dwell:?} exceeds the {MAX_BACKEND_DWELL:?} cap"
        )));
    }
    Ok(dwell)
}

/// Formats a dwell in the largest exact unit, inverse of
/// [`parse_dwell`].
pub(crate) fn format_dwell(dwell: Duration) -> String {
    let ns = dwell.as_nanos();
    if ns == 0 {
        "0".to_string()
    } else if ns.is_multiple_of(1_000_000_000) {
        format!("{}s", ns / 1_000_000_000)
    } else if ns.is_multiple_of(1_000_000) {
        format!("{}ms", ns / 1_000_000)
    } else if ns.is_multiple_of(1_000) {
        format!("{}us", ns / 1_000)
    } else {
        format!("{ns}ns")
    }
}

/// A factory resolving one scheme's argument string (everything after
/// the first `:`) into a backend. The registry itself is passed back in
/// so composite schemes (`record:…+<inner>`) can resolve their inner
/// spec recursively.
pub type BackendFactory = Box<
    dyn Fn(&str, &BackendRegistry) -> Result<Arc<dyn SourceBackend>, BackendError> + Send + Sync,
>;

/// The string-keyed backend registry: maps spec strings
/// (`scheme[:args]`) to [`SourceBackend`] instances.
///
/// [`BackendRegistry::standard`] ships the four built-in schemes;
/// embedders register additional ones (a hardware driver, a network
/// instrument) with [`BackendRegistry::register`] and every `--backend`
/// flag and service scenario picks them up — that is the seam the
/// redesign exists for.
pub struct BackendRegistry {
    factories: Vec<(String, BackendFactory)>,
}

impl std::fmt::Debug for BackendRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BackendRegistry")
            .field("schemes", &self.schemes())
            .finish()
    }
}

impl Default for BackendRegistry {
    fn default() -> Self {
        Self::standard()
    }
}

impl BackendRegistry {
    /// A registry with no schemes.
    pub fn empty() -> Self {
        Self {
            factories: Vec::new(),
        }
    }

    /// The built-in schemes: `sim`, `throttled`, `replay`, `record`,
    /// `hwsim`, `multiplexed`.
    pub fn standard() -> Self {
        let mut registry = Self::empty();
        registry.register("sim", |args, _| {
            if args.is_empty() {
                Ok(Arc::new(SimBackend) as Arc<dyn SourceBackend>)
            } else {
                Err(invalid(format!("sim takes no arguments, got {args:?}")))
            }
        });
        registry.register("throttled", |args, registry| {
            let (dwell, inner) = match args.split_once('+') {
                Some((dwell, inner)) => (dwell, registry.resolve(inner)?),
                None => (args, Arc::new(SimBackend) as Arc<dyn SourceBackend>),
            };
            Ok(Arc::new(ThrottledBackend::new(parse_dwell(dwell)?, inner)?) as _)
        });
        registry.register("replay", |args, _| {
            if args.is_empty() {
                return Err(invalid("replay needs a tape path: replay:<tape>"));
            }
            Ok(Arc::new(ReplayBackend::new(args, ReplayMode::Strict)) as _)
        });
        registry.register("record", |args, registry| {
            let (path, inner) = match args.split_once('+') {
                Some((path, inner)) => (path, registry.resolve(inner)?),
                None => (args, Arc::new(SimBackend) as Arc<dyn SourceBackend>),
            };
            if path.is_empty() {
                return Err(invalid("record needs a tape path: record:<tape>[+<inner>]"));
            }
            Ok(Arc::new(RecordBackend::new(path, inner)) as _)
        });
        registry.register("hwsim", |args, _| {
            let profile = crate::hwsim::HwSimProfile::parse(args)?;
            Ok(Arc::new(crate::hwsim::HwSimBackend::new(profile)) as _)
        });
        registry.register("multiplexed", |args, registry| {
            let (config, inner) = match args.split_once('+') {
                Some((config, inner)) => (config, registry.resolve(inner)?),
                None => (args, Arc::new(SimBackend) as Arc<dyn SourceBackend>),
            };
            let config = crate::mux::MuxConfig::parse(config)?;
            Ok(Arc::new(crate::mux::MultiplexedBackend::new(config, inner)?) as _)
        });
        registry
    }

    /// Registers (or replaces) a scheme.
    pub fn register(
        &mut self,
        scheme: impl Into<String>,
        factory: impl Fn(&str, &BackendRegistry) -> Result<Arc<dyn SourceBackend>, BackendError>
            + Send
            + Sync
            + 'static,
    ) {
        let scheme = scheme.into();
        self.factories.retain(|(s, _)| *s != scheme);
        self.factories.push((scheme, Box::new(factory)));
    }

    /// The registered schemes, in registration order.
    pub fn schemes(&self) -> Vec<&str> {
        self.factories.iter().map(|(s, _)| s.as_str()).collect()
    }

    /// Splits a spec string into `(scheme, args)` exactly the way
    /// [`BackendRegistry::resolve`] does: trim, then cut at the first
    /// `:` (no `:` means no args). This is the one scheme parser —
    /// request-level allowlists (the serve daemon) use it instead of
    /// re-implementing prefix matching.
    pub fn split_spec(spec: &str) -> (&str, &str) {
        let spec = spec.trim();
        match spec.split_once(':') {
            Some((scheme, args)) => (scheme, args),
            None => (spec, ""),
        }
    }

    /// Resolves a spec string (`scheme[:args]`) into a backend.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::UnknownScheme`] for unregistered schemes
    /// and whatever the scheme's factory returns for malformed
    /// arguments.
    pub fn resolve(&self, spec: &str) -> Result<Arc<dyn SourceBackend>, BackendError> {
        let (scheme, args) = Self::split_spec(spec);
        let factory = self
            .factories
            .iter()
            .find(|(s, _)| s == scheme)
            .map(|(_, f)| f)
            .ok_or_else(|| BackendError::UnknownScheme {
                scheme: scheme.to_string(),
                known: self.schemes().iter().map(|s| s.to_string()).collect(),
            })?;
        factory(args, self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qd_csd::VoltageGrid;

    fn scenario() -> SourceScenario {
        let grid = VoltageGrid::new(0.0, 0.0, 1.0, 16, 16).unwrap();
        let csd = Csd::from_fn(grid, |v1, v2| 100.0 * v1 + v2).unwrap();
        SourceScenario::new(csd).with_label("unit").with_seed(3)
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "fastvg-backend-{}-{:?}-{name}",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    #[test]
    fn sim_backend_probes_the_diagram() {
        let backend = BackendRegistry::standard().resolve("sim").unwrap();
        assert_eq!(backend.scheme(), "sim");
        assert_eq!(backend.describe(), "sim");
        assert_eq!(backend.dwell(), Duration::ZERO);
        let mut session = backend.session(scenario()).unwrap();
        assert_eq!(session.get_current(2.0, 5.0), 205.0);
        assert_eq!(session.probe_count(), 1);
    }

    #[test]
    fn throttled_spec_parses_and_round_trips() {
        let registry = BackendRegistry::standard();
        for (spec, dwell) in [
            ("throttled:0", Duration::ZERO),
            ("throttled:50us", Duration::from_micros(50)),
            ("throttled:2ms", Duration::from_millis(2)),
            ("throttled:1s", Duration::from_secs(1)),
            ("throttled:750ns", Duration::from_nanos(750)),
        ] {
            let backend = registry.resolve(spec).unwrap();
            assert_eq!(backend.dwell(), dwell, "{spec}");
            assert_eq!(backend.describe(), spec, "canonical form");
            // The canonical form resolves back to the same backend.
            let again = registry.resolve(&backend.describe()).unwrap();
            assert_eq!(again.dwell(), dwell);
        }
    }

    #[test]
    fn hostile_dwells_are_rejected_at_the_door() {
        let registry = BackendRegistry::standard();
        for spec in [
            "throttled:",
            "throttled:50",                       // no unit
            "throttled:-1ms",                     // negative
            "throttled:1.5ms",                    // fractional
            "throttled:11s",                      // over the cap
            "throttled:9999999999999999999999ms", // overflow
            "throttled:50xs",                     // unknown unit
            "throttled:ms",                       // no digits
        ] {
            let err = registry.resolve(spec).unwrap_err();
            assert!(
                matches!(err, BackendError::InvalidSpec { .. }),
                "{spec} -> {err}"
            );
        }
    }

    #[test]
    fn unknown_schemes_name_the_alternatives() {
        let err = BackendRegistry::standard()
            .resolve("hardware:qpu0")
            .unwrap_err();
        let text = err.to_string();
        assert!(text.contains("hardware"), "{text}");
        assert!(text.contains("sim"), "{text}");
        assert!(text.contains("replay"), "{text}");
    }

    #[test]
    fn sim_rejects_arguments() {
        assert!(BackendRegistry::standard().resolve("sim:fast").is_err());
    }

    #[test]
    fn record_then_replay_reproduces_readings() {
        let registry = BackendRegistry::standard();
        let path = tmp("roundtrip.tape");
        let spec = format!("record:{}", path.display());
        let recorder = registry.resolve(&spec).unwrap();
        assert_eq!(recorder.describe(), format!("{spec}+sim"));

        let mut session = recorder.session(scenario()).unwrap();
        let a = session.get_current(1.0, 2.0);
        let b = session.get_current(3.0, 4.0);
        drop(session); // flush

        let replayer = registry
            .resolve(&format!("replay:{}", path.display()))
            .unwrap();
        let mut session = replayer.session(scenario()).unwrap();
        assert_eq!(session.get_current(1.0, 2.0).to_bits(), a.to_bits());
        assert_eq!(session.get_current(3.0, 4.0).to_bits(), b.to_bits());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn label_templates_fan_out_tapes() {
        let dir = tmp("labels");
        let spec = format!("record:{}/{{label}}.tape", dir.display());
        let backend = BackendRegistry::standard().resolve(&spec).unwrap();
        for label in ["bench01-fast", "bench02-fast"] {
            let mut session = backend.session(scenario().with_label(label)).unwrap();
            let _ = session.get_current(0.0, 0.0);
        }
        assert!(dir.join("bench01-fast.tape").exists());
        assert!(dir.join("bench02-fast.tape").exists());
        // Hostile label characters are sanitized: '/' cannot survive
        // into the tape path, so the label stays one path component.
        let mut session = backend.session(scenario().with_label("../escape")).unwrap();
        let _ = session.get_current(0.0, 0.0);
        assert!(dir.join("..-escape.tape").exists());
        // A bare ".." label is a path *component* and must not survive
        // into the template (tapes/{label}/… would escape the dir).
        let mut session = backend.session(scenario().with_label("..")).unwrap();
        let _ = session.get_current(0.0, 0.0);
        assert!(dir.join("run.tape").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn record_wraps_throttled_and_tapes_its_dwell() {
        let path = tmp("throttled.tape");
        let spec = format!("record:{}+throttled:1ms", path.display());
        let backend = BackendRegistry::standard().resolve(&spec).unwrap();
        assert_eq!(backend.dwell(), Duration::from_millis(1));
        let mut session = backend.session(scenario()).unwrap();
        let _ = session.get_current(1.0, 1.0);
        drop(session);
        let tape = crate::tape::Tape::load(&path).unwrap();
        assert_eq!(tape.header.dwell, Duration::from_millis(1));
        assert_eq!(tape.header.seed, 3);
        assert_eq!(tape.header.label, "unit");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn replay_of_missing_tape_fails_cleanly() {
        let backend = BackendRegistry::standard()
            .resolve("replay:/nonexistent/no.tape")
            .unwrap();
        let err = backend.open(scenario()).unwrap_err();
        assert!(matches!(err, BackendError::Tape(_)), "{err}");
        // The I/O cause is reachable through the source chain.
        let mut cursor: Option<&(dyn std::error::Error + 'static)> =
            std::error::Error::source(&err);
        let mut found_io = false;
        while let Some(e) = cursor {
            found_io |= e.downcast_ref::<std::io::Error>().is_some();
            cursor = e.source();
        }
        assert!(found_io, "chain must reach the io::Error");
    }

    #[test]
    fn custom_schemes_can_be_registered() {
        let mut registry = BackendRegistry::standard();
        registry.register("null", |_, _| {
            #[derive(Debug)]
            struct NullBackend;
            impl SourceBackend for NullBackend {
                fn scheme(&self) -> &str {
                    "null"
                }
                fn describe(&self) -> String {
                    "null".to_string()
                }
                fn open(&self, scenario: SourceScenario) -> Result<BoxedSource, BackendError> {
                    let window = crate::VoltageWindow::from_grid(scenario.csd.grid());
                    Ok(Box::new(crate::FnSource::new(|_, _| 0.0, window)))
                }
            }
            Ok(Arc::new(NullBackend) as _)
        });
        assert!(registry.schemes().contains(&"null"));
        let mut session = registry
            .resolve("null")
            .unwrap()
            .session(scenario())
            .unwrap();
        assert_eq!(session.get_current(3.0, 3.0), 0.0);
    }

    #[test]
    fn boxed_sources_compose_with_sessions_and_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<BoxedSource>();
        assert_send::<MeasurementSession<BoxedSource>>();
    }
}
