//! Gaussian kernels and windows.
//!
//! Two consumers:
//!
//! * the anchor preprocessing (§4.4) multiplies a 1-D mask-response array by
//!   a Gaussian window to damp spurious responses far from the expected
//!   transition location;
//! * the Canny baseline blurs the CSD with a 2-D (separable) Gaussian before
//!   Sobel differentiation, mirroring OpenCV's pipeline.

use crate::NumericsError;

/// Normalized 1-D Gaussian kernel of odd length `len` and standard
/// deviation `sigma` (in samples), centred on the middle tap.
///
/// The taps sum to exactly 1.
///
/// # Errors
///
/// Returns [`NumericsError::InvalidParameter`] if `len` is even or zero, or
/// if `sigma` is not strictly positive and finite.
///
/// ```
/// # fn main() -> Result<(), qd_numerics::NumericsError> {
/// let k = qd_numerics::gaussian::kernel1(5, 1.0)?;
/// assert_eq!(k.len(), 5);
/// assert!((k.iter().sum::<f64>() - 1.0).abs() < 1e-12);
/// assert!(k[2] > k[1] && k[1] > k[0]);
/// # Ok(())
/// # }
/// ```
pub fn kernel1(len: usize, sigma: f64) -> Result<Vec<f64>, NumericsError> {
    if len == 0 || len.is_multiple_of(2) {
        return Err(NumericsError::InvalidParameter {
            name: "len",
            constraint: "must be odd and non-zero",
        });
    }
    if !(sigma > 0.0 && sigma.is_finite()) {
        return Err(NumericsError::InvalidParameter {
            name: "sigma",
            constraint: "must be positive and finite",
        });
    }
    let half = (len / 2) as f64;
    let mut taps: Vec<f64> = (0..len)
        .map(|i| {
            let x = i as f64 - half;
            (-0.5 * (x / sigma) * (x / sigma)).exp()
        })
        .collect();
    let total: f64 = taps.iter().sum();
    for t in &mut taps {
        *t /= total;
    }
    Ok(taps)
}

/// Unnormalized Gaussian *window* of length `len` centred at sample index
/// `center` with standard deviation `sigma`; the peak value is 1.
///
/// This is the element-wise weighting used on the §4.4 mask-response arrays:
/// unlike [`kernel1`] it may be any length and its centre is arbitrary.
///
/// # Errors
///
/// Returns [`NumericsError::InvalidParameter`] if `len` is zero or `sigma`
/// is not strictly positive and finite.
pub fn window(len: usize, center: f64, sigma: f64) -> Result<Vec<f64>, NumericsError> {
    if len == 0 {
        return Err(NumericsError::InvalidParameter {
            name: "len",
            constraint: "must be non-zero",
        });
    }
    if !(sigma > 0.0 && sigma.is_finite()) {
        return Err(NumericsError::InvalidParameter {
            name: "sigma",
            constraint: "must be positive and finite",
        });
    }
    Ok((0..len)
        .map(|i| {
            let x = i as f64 - center;
            (-0.5 * (x / sigma) * (x / sigma)).exp()
        })
        .collect())
}

/// Evaluates the Gaussian probability density function.
pub fn pdf(x: f64, mu: f64, sigma: f64) -> f64 {
    let z = (x - mu) / sigma;
    (-(z * z) / 2.0).exp() / (sigma * (2.0 * std::f64::consts::PI).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel1_is_normalized_and_symmetric() {
        let k = kernel1(7, 1.5).unwrap();
        assert!((k.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        for i in 0..3 {
            assert!((k[i] - k[6 - i]).abs() < 1e-15);
        }
    }

    #[test]
    fn kernel1_peak_at_center() {
        let k = kernel1(9, 2.0).unwrap();
        let max = k.iter().cloned().fold(f64::MIN, f64::max);
        assert_eq!(k[4], max);
    }

    #[test]
    fn kernel1_rejects_bad_args() {
        assert!(kernel1(4, 1.0).is_err());
        assert!(kernel1(5, 0.0).is_err());
        assert!(kernel1(5, f64::NAN).is_err());
        assert!(kernel1(0, 1.0).is_err());
    }

    #[test]
    fn window_peak_is_one_at_center() {
        let w = window(11, 5.0, 2.0).unwrap();
        assert!((w[5] - 1.0).abs() < 1e-15);
        assert!(w[0] < w[5]);
    }

    #[test]
    fn window_offcenter() {
        let w = window(10, 2.0, 1.0).unwrap();
        assert!((w[2] - 1.0).abs() < 1e-15);
        assert!(w[9] < 1e-8);
    }

    #[test]
    fn window_rejects_bad_args() {
        assert!(window(0, 0.0, 1.0).is_err());
        assert!(window(5, 2.0, -1.0).is_err());
    }

    #[test]
    fn pdf_integrates_to_about_one() {
        let mut sum = 0.0;
        let dx = 0.01;
        let mut x = -8.0;
        while x <= 8.0 {
            sum += pdf(x, 0.0, 1.0) * dx;
            x += dx;
        }
        assert!((sum - 1.0).abs() < 1e-3);
    }

    #[test]
    fn pdf_symmetry_about_mean() {
        assert!((pdf(1.0, 3.0, 2.0) - pdf(5.0, 3.0, 2.0)).abs() < 1e-15);
    }
}
