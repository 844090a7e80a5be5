//! # fastvg — fast virtual gate extraction for silicon quantum dot devices
//!
//! Umbrella crate for the reproduction of Che et al., *"Fast Virtual Gate
//! Extraction For Silicon Quantum Dot Devices"* (DAC 2024,
//! arXiv:2409.15181). It re-exports the workspace crates under stable
//! names:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`prelude`] | — | **the stable public surface**: `Extractor`, `Pipeline`, `ExtractionReport`, sessions, configs |
//! | [`core`] | `fastvg-core` | the paper's algorithm, Hough baseline, unified `api`, batch layer |
//! | [`serve`] | `fastvg-serve` | the extraction service daemon: HTTP job queue, scheduler, result cache, metrics |
//! | [`router`] | `fastvg-router` | the fleet front-end: consistent-hash sharding, health-checked proxying, cache peering |
//! | [`wire`] | `fastvg-wire` | the shared JSON value/parser/serializer behind artifacts and the wire protocol |
//! | [`physics`] | `qd-physics` | constant-interaction device models |
//! | [`csd`] | `qd-csd` | charge stability diagrams & virtualization |
//! | [`instrument`] | `qd-instrument` | `getCurrent` sessions, virtual dwell, probe ledger |
//! | [`numerics`] | `qd-numerics` | fitting & convolution substrate |
//! | [`vision`] | `qd-vision` | from-scratch Canny + Hough |
//! | [`dataset`] | `qd-dataset` | the synthetic 12-benchmark suite |
//! | [`par`] | `mini-rayon` | scoped worker pool behind [`core::batch`] |
//!
//! See `examples/quickstart.rs` for a complete end-to-end run and
//! `crates/bench` for the harnesses regenerating every table and figure
//! of the paper.
//!
//! # Quickstart
//!
//! Every extraction method — the paper's fast §4 pipeline, the
//! Canny+Hough baseline, retry ladders — implements one object-safe
//! [`prelude::Extractor`] trait and returns one unified
//! [`prelude::ExtractionReport`]:
//!
//! ```
//! use fastvg::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let bench = paper_benchmark(6)?;
//! let mut session = MeasurementSession::new(CsdSource::new(bench.csd.clone()));
//!
//! let report = Pipeline::fast().build().run(&mut session)?;
//! assert!((report.alpha21() - bench.truth.alpha21).abs() < 0.08);
//! assert!(report.coverage < 0.25); // a fraction of the diagram probed
//! assert!(!report.stages.is_empty()); // per-stage probe/time accounting
//! # Ok(())
//! # }
//! ```
//!
//! Methods are interchangeable behind `Box<dyn Extractor>` — one code
//! path drives any of them (and [`prelude::BatchExtractor`] fans them
//! out over whole device fleets):
//!
//! ```
//! use fastvg::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let bench = paper_benchmark(6)?;
//! let methods: Vec<Box<dyn Extractor>> = vec![
//!     Box::new(FastExtractor::new()),
//!     Box::new(HoughBaseline::new()),
//!     Box::new(TuningLoop::new()),
//! ];
//! for method in &methods {
//!     let mut session = MeasurementSession::new(CsdSource::new(bench.csd.clone()));
//!     let report = extract_with(method.as_ref(), &mut session)?;
//!     assert!(report.slope_v < -1.0, "{}", report.method);
//! }
//! # Ok(())
//! # }
//! ```
//!
//! # Serving
//!
//! [`serve`] turns extraction into a long-running network service: a
//! `std::net`-only daemon with a bounded job queue over the batch pool,
//! a sharded result cache keyed by content fingerprints, and live
//! `/metrics`. See `docs/PROTOCOL.md` for the wire schema and the
//! README's *Serving* section for the curl-level quickstart;
//! `examples/serve.rs` boots one in-process. [`router`] scales the same
//! protocol to a fleet: N daemons behind one consistent-hash front-end
//! with health-checked failover and cross-daemon cache peering
//! (`docs/FLEET.md`).
//!
//! # Migration note (0.2 → 0.3)
//!
//! The 0.1 per-method entry points still work: `FastExtractor::extract`,
//! `HoughBaseline::extract` and `TuningLoop::run` keep returning their
//! typed results ([`prelude::ExtractionResult`] etc.), and those structs
//! also ride along inside [`prelude::ExtractionReport::details`]. The
//! Table 1 row struct `fastvg::core::report::ExtractionReport` was
//! renamed to [`prelude::ReportRow`] in 0.2; the deprecated
//! `report::ExtractionReport` alias has now been **removed** after its
//! one-release grace period — the name `ExtractionReport` everywhere
//! means the unified per-run report. Error matching moved to the
//! structured taxonomy: `ExtractError::UnphysicalSlopes { .. }` is now
//! `ExtractError::Fit(FitError::UnphysicalSlopes { .. })` (see
//! [`prelude::ExtractError`]).

#![forbid(unsafe_code)]

pub use fastvg_core as core;
pub use fastvg_router as router;
pub use fastvg_serve as serve;
pub use fastvg_wire as wire;
pub use mini_rayon as par;
pub use qd_csd as csd;
pub use qd_dataset as dataset;
pub use qd_instrument as instrument;
pub use qd_numerics as numerics;
pub use qd_physics as physics;
pub use qd_vision as vision;

/// The stable public surface: everything a tuning harness needs, in one
/// import.
///
/// ```
/// use fastvg::prelude::*;
/// let pipeline = Pipeline::fast().with_retry(TuningLoop::new()).build();
/// assert_eq!(pipeline.method(), Method::TunedFast);
/// ```
pub mod prelude {
    // The unified extraction API (the tentpole surface).
    pub use fastvg_core::api::{
        extract_with, DetailSummary, ExtractionDetails, ExtractionReport, Extractor, Observer,
        Pipeline, PipelineBuilder, ProbeObservation, SessionView, Stage, StageTiming,
    };
    // Methods, their configs and typed results.
    pub use fastvg_core::anchors::AnchorConfig;
    pub use fastvg_core::baseline::{BaselineConfig, BaselineResult, HoughBaseline, RefineMethod};
    pub use fastvg_core::batch::{BatchExtractor, BatchOutcome};
    pub use fastvg_core::extraction::{ExtractionResult, ExtractorConfig, FastExtractor};
    pub use fastvg_core::fit::{FitMethod, SlopeBounds};
    pub use fastvg_core::sweep::SweepConfig;
    pub use fastvg_core::tuning::{TuningLoop, TuningOutcome};
    pub use fastvg_core::virtual_gate::{extract_chain, ChainExtraction, WindowPlan};
    pub use fastvg_core::window_search::{locate_corner, plan_window_around};
    // Errors and scoring.
    pub use fastvg_core::report::{Method, ReportRow, SuccessCriteria};
    pub use fastvg_core::{
        ErrorCategory, ExtractError, FitError, GeometryError, ProbeError, RemoteError, VerifyError,
        WireError, WireFailure,
    };
    // The service layer and its wire format.
    pub use fastvg_router::{RouterConfig, RouterHandle, ShardSpec};
    pub use fastvg_serve::{Client, ClientConfig, RemoteExtractor, ServeConfig, ServiceHandle};
    pub use fastvg_wire::Json;
    // The measurement stack: sessions, sources, and the runtime
    // backend/tape seam.
    pub use qd_instrument::{
        BackendError, BackendRegistry, BoxedSource, ChannelPool, ChannelStats, CsdSource,
        CurrentSource, DacChannel, DacModel, FnSource, HwSimBackend, HwSimPreset, HwSimProfile,
        HwSimSource, MeasurementSession, MultiplexedBackend, MuxConfig, MuxPolicy, MuxStats,
        PhysicsSource, ProbeSession, RecordBackend, RecordingSource, ReplayBackend, ReplayMode,
        ReplaySource, ScanPattern, SessionWait, SimBackend, SourceBackend, SourceScenario, Tape,
        ThrottledBackend, ThrottledSource, VoltageWindow, PAPER_DWELL,
    };
    // Diagrams and devices.
    pub use qd_csd::{Csd, Pixel, VirtualizationMatrix, VoltageGrid};
    pub use qd_physics::DeviceBuilder;
    // The synthetic benchmark suite.
    pub use qd_dataset::{
        default_zoo, generate, load_suite, paper_benchmark, paper_suite, random_specs, save_suite,
        zoo_specs, BenchmarkSpec, GeneratedBenchmark, NoiseRecipe, Severity, ZooFamily,
        ZooScenario, DEFAULT_ZOO_SEED,
    };
}
