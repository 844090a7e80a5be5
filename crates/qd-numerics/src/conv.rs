//! 1-D and separable 2-D cross-correlation on row-major buffers.
//!
//! The Canny baseline blurs with a separable Gaussian; [`separable2`]
//! runs it as one 1-D pass along the rows and one along the columns.
//! (The §4.4 anchor sweep evaluates its small masks with its own loop in
//! `fastvg-core`.)
//!
//! Images are row-major `&[f64]` with dimensions `(rows, cols)`, kernels
//! have odd length and are anchored at their centre, and out-of-bounds
//! samples follow a [`Boundary`] rule: *replicate* (clamp-to-edge)
//! padding matches OpenCV's default `BORDER_REPLICATE` closely enough for
//! the baseline comparison.

use crate::NumericsError;

/// Boundary handling for `same`-size convolutions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Boundary {
    /// Clamp coordinates to the nearest valid pixel (replicate padding).
    #[default]
    Replicate,
    /// Treat out-of-bounds pixels as zero.
    Zero,
}

/// `same`-size 1-D cross-correlation of `kernel` (odd length) over `signal`.
///
/// # Errors
///
/// Returns [`NumericsError::EmptyInput`] if `signal` is empty, or
/// [`NumericsError::InvalidParameter`] if the kernel length is even or zero.
pub fn correlate1(
    signal: &[f64],
    kernel: &[f64],
    boundary: Boundary,
) -> Result<Vec<f64>, NumericsError> {
    if signal.is_empty() {
        return Err(NumericsError::EmptyInput);
    }
    check_kernel1(kernel)?;
    let mut out = vec![0.0; signal.len()];
    correlate1_into(signal, kernel, boundary, |i, v| out[i] = v);
    Ok(out)
}

/// Separable `same`-size convolution: applies `row_kernel` along each row
/// then `col_kernel` along each column. Equivalent to convolving with the
/// outer product `col_kernel ⊗ row_kernel` but in `O(n·(kr + kc))`.
///
/// # Errors
///
/// Returns [`NumericsError::LengthMismatch`] if `image.len() != rows * cols`,
/// or, for a non-empty image, [`NumericsError::InvalidParameter`] if
/// either kernel length is even or zero.
pub fn separable2(
    image: &[f64],
    rows: usize,
    cols: usize,
    row_kernel: &[f64],
    col_kernel: &[f64],
    boundary: Boundary,
) -> Result<Vec<f64>, NumericsError> {
    if image.len() != rows * cols {
        return Err(NumericsError::LengthMismatch {
            left: image.len(),
            right: rows * cols,
        });
    }
    if rows == 0 || cols == 0 {
        return Ok(Vec::new());
    }
    check_kernel1(row_kernel)?;
    check_kernel1(col_kernel)?;
    let mut out = vec![0.0; rows * cols];
    for (r, row) in image.chunks_exact(cols).enumerate() {
        correlate1_into(row, row_kernel, boundary, |c, v| out[r * cols + c] = v);
    }
    let mut column = vec![0.0; rows];
    for c in 0..cols {
        for (r, slot) in column.iter_mut().enumerate() {
            *slot = out[r * cols + c];
        }
        correlate1_into(&column, col_kernel, boundary, |r, v| out[r * cols + c] = v);
    }
    Ok(out)
}

fn check_kernel1(kernel: &[f64]) -> Result<(), NumericsError> {
    if kernel.is_empty() || kernel.len().is_multiple_of(2) {
        return Err(NumericsError::InvalidParameter {
            name: "kernel",
            constraint: "length must be odd and non-zero",
        });
    }
    Ok(())
}

/// [`correlate1`] of a non-empty `signal` with a checked `kernel`, handing
/// each output sample to `emit(index, value)`. Each sum starts at `0.0`
/// and adds the taps in kernel order.
fn correlate1_into(
    signal: &[f64],
    kernel: &[f64],
    boundary: Boundary,
    mut emit: impl FnMut(usize, f64),
) {
    let n = signal.len() as isize;
    let half = (kernel.len() / 2) as isize;
    for i in 0..n {
        let mut acc = 0.0;
        for (k, &kv) in kernel.iter().enumerate() {
            let j = i + k as isize - half;
            let v = match boundary {
                Boundary::Replicate => signal[j.clamp(0, n - 1) as usize],
                Boundary::Zero => {
                    if j < 0 || j >= n {
                        0.0
                    } else {
                        signal[j as usize]
                    }
                }
            };
            acc += v * kv;
        }
        emit(i as usize, acc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correlate1_same_length() {
        let sig = vec![1.0, 2.0, 3.0, 4.0];
        let out = correlate1(&sig, &[0.5, 0.0, 0.5], Boundary::Replicate).unwrap();
        assert_eq!(out.len(), 4);
        assert!((out[1] - 2.0).abs() < 1e-15); // (1 + 3) / 2
        assert!((out[0] - 1.5).abs() < 1e-15); // (1 + 2) / 2 with replicate
    }

    #[test]
    fn correlate1_rejects_even_kernel() {
        assert!(correlate1(&[1.0], &[1.0, 2.0], Boundary::Zero).is_err());
    }

    #[test]
    fn separable_matches_outer_product_kernel() {
        let rows = 6;
        let cols = 7;
        let img: Vec<f64> = (0..rows * cols).map(|x| ((x * 13) % 17) as f64).collect();
        let rk = [0.25, 0.5, 0.25];
        let ck = [0.1, 0.8, 0.1];
        let sep = separable2(&img, rows, cols, &rk, &ck, Boundary::Replicate).unwrap();
        // The dense 3x3 kernel ck ⊗ rk, with replicate clamping.
        let at = |r: isize, c: isize| {
            let r = r.clamp(0, rows as isize - 1) as usize;
            let c = c.clamp(0, cols as isize - 1) as usize;
            img[r * cols + c]
        };
        for r in 0..rows as isize {
            for c in 0..cols as isize {
                let mut dense = 0.0;
                for (i, &cv) in ck.iter().enumerate() {
                    for (j, &rv) in rk.iter().enumerate() {
                        dense += cv * rv * at(r + i as isize - 1, c + j as isize - 1);
                    }
                }
                let got = sep[r as usize * cols + c as usize];
                assert!(
                    (got - dense).abs() < 1e-9,
                    "separable {got} != dense {dense}"
                );
            }
        }
    }

    #[test]
    fn zero_boundary_differs_at_edges_only() {
        let img = vec![1.0; 9];
        let box3 = [1.0; 3];
        let rep = separable2(&img, 3, 3, &box3, &box3, Boundary::Replicate).unwrap();
        let zero = separable2(&img, 3, 3, &box3, &box3, Boundary::Zero).unwrap();
        assert_eq!(rep[4], 9.0);
        assert_eq!(zero[4], 9.0);
        assert_eq!(zero[0], 4.0); // corner: only 2x2 in-bounds
        assert_eq!(rep[0], 9.0);
    }

    #[test]
    fn bad_shapes_are_rejected() {
        assert!(separable2(&[0.0; 5], 2, 3, &[1.0], &[1.0], Boundary::Zero).is_err());
        assert!(separable2(&[0.0; 6], 2, 3, &[1.0, 1.0], &[1.0], Boundary::Zero).is_err());
        assert!(separable2(&[0.0; 6], 2, 3, &[1.0], &[1.0, 1.0], Boundary::Zero).is_err());
    }
}
