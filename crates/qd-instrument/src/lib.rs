//! Simulated measurement stack for quantum dot tuning experiments.
//!
//! The paper's Algorithm 1 is the whole instrument interface: set two gate
//! voltages, wait a dwell time (~50 ms on charge-sensor devices), read the
//! sensor current. Every speedup the paper reports comes from calling this
//! function fewer times. This crate reproduces that accounting:
//!
//! * [`CurrentSource`] — the `getCurrent(v1, v2)` abstraction, implemented
//!   by [`CsdSource`] (replay a recorded/synthetic diagram, what the paper
//!   does with qflow data) and [`PhysicsSource`] (live constant-interaction
//!   model with optional noise).
//! * [`MeasurementSession`] — a source plus one window-sized pixel table
//!   that is at once the measurement cache (re-probing a pixel costs
//!   nothing, as in the paper's simulated evaluation), the probe counts of
//!   Table 1 and the probed-pixel scatter of Figure 7. Its dwell is
//!   virtual, `probes ×` [`PAPER_DWELL`]; [`ThrottledSource`] is the
//!   source that paces probes in real time.
//! * [`SourceBackend`] + [`BackendRegistry`] — runtime probe-source
//!   selection behind one object-safe seam: `sim`, `throttled:<dwell>`,
//!   `replay:<tape>`, `record:<tape>[+inner]`, plus embedder-registered
//!   schemes (see [`backend`]).
//! * [`RecordingSource`] / [`ReplaySource`] — probe tapes: record every
//!   dwell-costing probe to newline-framed JSON and play it back
//!   bit-identically without the source (see [`tape`]).
//! * [`HwSimBackend`] — `hwsim:<profile>`: the diagram behind a
//!   register-level DAC hardware model (code quantization, limit
//!   tables, crosstalk, 1/f drift, dead pixels), deterministic from the
//!   scenario seed; its bus/slew time is [`HwSimProfile::scatter_cost`]
//!   over a session's scatter (see [`hwsim`]).
//! * [`MultiplexedBackend`] — `multiplexed:<N>[+inner]`: any inner
//!   backend behind a [`ChannelPool`] of `N` shared probe channels,
//!   with conflict-avoiding dwell-slot schedules (equi-difference CAC
//!   codewords, [`MuxPolicy::codewords`]; round-robin is weight 1) and
//!   contention counted in dwell slots (see [`mux`]).
//!
//! # Example
//!
//! ```
//! use qd_csd::{Csd, VoltageGrid};
//! use qd_instrument::{CsdSource, MeasurementSession};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let grid = VoltageGrid::new(0.0, 0.0, 1.0, 32, 32)?;
//! let csd = Csd::from_fn(grid, |v1, v2| if v1 + 0.25 * v2 < 20.0 { 5.0 } else { 3.0 })?;
//! let mut session = MeasurementSession::new(CsdSource::new(csd));
//!
//! let i = session.get_current(4.0, 4.0);
//! assert_eq!(i, 5.0);
//! assert_eq!(session.probe_count(), 1);
//! // A cached re-probe is free.
//! let _ = session.get_current(4.0, 4.0);
//! assert_eq!(session.probe_count(), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod hwsim;
mod ledger;
pub mod mux;
pub mod scan;
pub mod session;
pub mod source;
pub mod tape;
pub mod throttle;

pub use backend::{
    BackendError, BackendRegistry, BoxedSource, RecordBackend, ReplayBackend, SimBackend,
    SourceBackend, SourceScenario, ThrottledBackend,
};
pub use hwsim::{DacChannel, DacModel, HwSimBackend, HwSimPreset, HwSimProfile, HwSimSource};
pub use mux::{
    ChannelPool, ChannelStats, MultiplexedBackend, MuxConfig, MuxPolicy, MuxSource, MuxStats,
    SessionWait,
};
pub use scan::ScanPattern;
pub use session::{MeasurementSession, ProbeSession, PAPER_DWELL};
pub use source::{CsdSource, CurrentSource, FnSource, PhysicsSource, VoltageWindow};
pub use tape::{RecordingSource, ReplayMode, ReplaySource, Tape, TapeError, TapeHeader, TapeProbe};
pub use throttle::ThrottledSource;
