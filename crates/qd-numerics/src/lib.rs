//! Small, dependency-free dense numerics used across the fast virtual gate
//! extraction stack.
//!
//! The crate bundles exactly the numerical building blocks the DAC'24
//! pipeline needs, implemented from scratch so the workspace has no heavy
//! numerics dependency:
//!
//! * [`conv`] — `same`-size 1-D and separable 2-D cross-correlation with
//!   replicate or zero boundaries (the Canny baseline's Gaussian blur).
//! * [`gaussian`] — Gaussian kernels and 1-D Gaussian weighting windows
//!   (used by the anchor-point preprocessing of the paper's §4.4).
//! * [`lsq`] — linear least squares, polynomial fits and a Theil–Sen
//!   robust slope estimator.
//! * [`nelder_mead`] — derivative-free simplex minimizer (stand-in for
//!   SciPy's `curve_fit` used in the paper's §4.3.3).
//! * [`levenberg`] — damped Gauss–Newton (Levenberg–Marquardt) for small
//!   dense nonlinear least-squares problems.
//! * [`piecewise`] — the 2-piece-wise-linear transition-line model.
//! * [`stats`] — mean / variance / median / percentile / argmax helpers.
//!
//! # Example
//!
//! ```
//! use qd_numerics::lsq::fit_line;
//!
//! # fn main() -> Result<(), qd_numerics::NumericsError> {
//! let xs = [0.0, 1.0, 2.0, 3.0];
//! let ys = [1.0, 3.0, 5.0, 7.0];
//! let line = fit_line(&xs, &ys)?;
//! assert!((line.slope - 2.0).abs() < 1e-12);
//! assert!((line.intercept - 1.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conv;
pub mod gaussian;
pub mod levenberg;
pub mod lsq;
pub mod nelder_mead;
pub mod piecewise;
pub mod ransac;
pub mod stats;

mod error;

pub use error::NumericsError;
