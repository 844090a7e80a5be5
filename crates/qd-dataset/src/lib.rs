//! Synthetic qflow-like benchmark suite.
//!
//! The paper evaluates on the 12 experimentally measured charge stability
//! diagrams of the qflow v2 dataset (Zwolak et al., PLoS One 2018),
//! cropped to the central region containing the (0,0)/(0,1)/(1,0)/(1,1)
//! charge states, at pixel resolutions 63×63, 100×100 and 200×200.
//!
//! That dataset is not redistributable here, so this crate *synthesizes*
//! an equivalent suite from the constant-interaction model in
//! [`qd_physics`]: 12 double-dot diagrams whose sizes match Table 1
//! row-for-row, with per-benchmark device parameters (lever arms, mutual
//! capacitance, temperature) and noise recipes (white + drift + telegraph)
//! chosen to reproduce the paper's qualitative outcomes:
//!
//! * benchmarks 1 and 2 are noise-swamped — **both** methods fail there in
//!   the paper;
//! * benchmark 7 has low edge contrast and heavy drift so Canny+Hough
//!   under-segments while the sweep method still succeeds;
//! * the rest are clean enough for both methods.
//!
//! Because the generator knows the capacitance matrix, every benchmark
//! carries exact ground-truth slopes/α coefficients, giving an objective
//! success criterion where the paper used manual inspection.
//!
//! # Example
//!
//! ```
//! use qd_dataset::paper_suite;
//!
//! # fn main() -> Result<(), qd_dataset::DatasetError> {
//! let suite = paper_suite()?;
//! assert_eq!(suite.len(), 12);
//! assert_eq!(suite[2].csd.size(), (63, 63));     // CSD 3 in Table 1
//! assert!(suite[0].spec.expect_fast_success == false); // CSD 1 is noise-swamped
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod archive;
pub mod generator;
pub mod spec;
pub mod suite;
pub mod wire;
pub mod zoo;

mod error;

pub use archive::{load_suite, save_suite, ArchivedBenchmark};
pub use error::DatasetError;
pub use generator::{generate, DeviceField, GeneratedBenchmark};
pub use spec::{BenchmarkSpec, NoiseRecipe};
pub use suite::{
    generate_suite, paper_benchmark, paper_specs, paper_suite, paper_suite_jobs, random_specs,
};
pub use zoo::{default_zoo, zoo_specs, Severity, ZooFamily, ZooScenario, DEFAULT_ZOO_SEED};
