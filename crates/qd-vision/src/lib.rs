//! From-scratch computer vision for charge stability diagrams.
//!
//! The paper's baseline (its §5.1) is the existing automation approach:
//! acquire a **full** CSD, then run Canny edge detection and a Hough
//! transform to find the transition lines (Mills et al. 2019, Oakes et al.
//! 2020 — implemented there with OpenCV). This crate reimplements that
//! pipeline in pure Rust:
//!
//! * [`blur`] — separable Gaussian smoothing;
//! * [`sobel`] — Sobel gradients, magnitude and direction;
//! * [`canny`] — non-maximum suppression + double-threshold hysteresis;
//! * [`hough`] — ρ–θ accumulator, peak extraction and line conversion.
//!
//! # Example
//!
//! ```
//! use qd_csd::{Csd, VoltageGrid};
//! use qd_vision::{canny::canny, hough::{hough_lines, HoughParams}};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let grid = VoltageGrid::new(0.0, 0.0, 1.0, 48, 48)?;
//! // A single steep step edge.
//! let csd = Csd::from_fn(grid, |v1, v2| if v2 > -4.0 * (v1 - 30.0) { 2.0 } else { 6.0 })?;
//! let edges = canny(&csd, Default::default())?;
//! let lines = hough_lines(&edges, HoughParams::default())?;
//! assert!(!lines.is_empty());
//! // The strongest line should be steep and negative.
//! let m = lines[0].slope().unwrap_or(f64::INFINITY);
//! assert!(m < -1.0 || m.is_infinite());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blur;
pub mod canny;
pub mod hough;
pub mod sobel;

mod error;

pub use canny::EdgeMap;
pub use error::VisionError;
pub use hough::HoughLine;
