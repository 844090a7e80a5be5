//! Charge stability diagram (CSD) data structures.
//!
//! A CSD is a 2-D map of charge-sensor current versus two plunger-gate
//! voltages. This crate provides:
//!
//! * [`VoltageGrid`] — the pixel ↔ voltage coordinate system (uniform
//!   granularity `δ`, the paper's "pixel size");
//! * [`Csd`] — the current map itself, with cropping, normalization and
//!   statistics;
//! * [`PixelField`] — the per-pixel read seam probe sources read through:
//!   a realized [`Csd`], or a field that computes only the pixels read;
//! * [`VirtualizationMatrix`] — the 2×2 virtual-gate transform of §2.3 and
//!   an affine resampler that renders a CSD in virtual coordinates
//!   (paper Fig. 3 right);
//! * [`render`] — ASCII/PGM rendering with point overlays, used by the
//!   figure-regeneration harnesses;
//! * [`io`] — CSV/PGM serialization round-trips.
//!
//! # Coordinate convention
//!
//! `x` is the column index and maps to `V_P1`; `y` is the row index and
//! maps to `V_P2`, increasing *upward* (row 0 is the bottom of the
//! diagram). All slopes are `dV_P2 / dV_P1`.
//!
//! # Example
//!
//! ```
//! use qd_csd::{Csd, VoltageGrid};
//!
//! # fn main() -> Result<(), qd_csd::CsdError> {
//! let grid = VoltageGrid::new(0.0, 0.0, 1.0, 64, 64)?;
//! // Synthesize a diagram with a step along a diagonal line.
//! let csd = Csd::from_fn(grid, |v1, v2| if v1 + 0.3 * v2 < 40.0 { 5.0 } else { 3.0 })?;
//! assert_eq!(csd.size(), (64, 64));
//! assert!(csd.at(0, 0) > csd.at(63, 63));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diagram;
pub mod field;
pub mod grid;
pub mod io;
pub mod render;
pub mod transform;

mod error;

pub use diagram::Csd;
pub use error::CsdError;
pub use field::PixelField;
pub use grid::{Pixel, VoltageGrid};
pub use transform::VirtualizationMatrix;
