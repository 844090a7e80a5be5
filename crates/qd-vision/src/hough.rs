//! Hough line transform on binary edge maps.
//!
//! Lines are parameterized as `ρ = x·cosθ + y·sinθ` with `θ ∈ [0, π)` and
//! signed `ρ`. Peaks in the accumulator (with neighbourhood suppression)
//! are returned strongest-first. Slopes are in the diagram's coordinate
//! convention (`y` upward), so the CSD transition lines come out negative.

use crate::{EdgeMap, VisionError};

/// Parameters for [`hough_lines`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HoughParams {
    /// Number of θ bins across `[0, π)`.
    pub n_theta: usize,
    /// ρ resolution in pixels.
    pub rho_resolution: f64,
    /// Minimum votes for a peak, as a fraction of the strongest peak.
    pub peak_fraction: f64,
    /// Maximum number of lines to return.
    pub max_lines: usize,
    /// Half-size of the suppression neighbourhood in (θ, ρ) bins.
    pub suppression_radius: usize,
}

impl Default for HoughParams {
    fn default() -> Self {
        Self {
            n_theta: 180,
            rho_resolution: 1.0,
            peak_fraction: 0.3,
            max_lines: 8,
            suppression_radius: 8,
        }
    }
}

/// A detected line in ρ–θ form with its vote count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HoughLine {
    /// Distance from the origin (pixels, signed).
    pub rho: f64,
    /// Normal angle in radians, `[0, π)`.
    pub theta: f64,
    /// Accumulator votes (supporting edge pixels).
    pub votes: usize,
}

impl HoughLine {
    /// Slope `dy/dx` of the line, or `None` if vertical
    /// (`sin θ ≈ 0`).
    pub fn slope(&self) -> Option<f64> {
        let s = self.theta.sin();
        if s.abs() < 1e-9 {
            None
        } else {
            Some(-self.theta.cos() / s)
        }
    }

    /// `y` intercept of the line, or `None` if vertical.
    pub fn intercept(&self) -> Option<f64> {
        let s = self.theta.sin();
        if s.abs() < 1e-9 {
            None
        } else {
            Some(self.rho / s)
        }
    }

    /// `y` coordinate at a given `x`, or `None` if vertical.
    pub fn y_at(&self, x: f64) -> Option<f64> {
        Some(self.slope()? * x + self.intercept()?)
    }
}

/// Runs the Hough transform and returns peak lines, strongest first.
///
/// Peaks are taken greedily: the cell with the most votes, ties to the
/// highest ρ–θ index (`θ_bin · n_rho + ρ_bin`), then the next strongest
/// cell outside every earlier peak's suppression square, until
/// `max_lines` lines or no cell with at least `peak_fraction` of the
/// maximum votes is left.
///
/// # Errors
///
/// * [`VisionError::InvalidParameter`] for a zero `n_theta`/`max_lines`,
///   non-positive `rho_resolution`, or `peak_fraction` outside `(0, 1]`.
/// * [`VisionError::NoEdges`] if the edge map is empty.
pub fn hough_lines(edges: &EdgeMap, params: HoughParams) -> Result<Vec<HoughLine>, VisionError> {
    if params.n_theta == 0 || params.max_lines == 0 {
        return Err(VisionError::InvalidParameter {
            name: "n_theta/max_lines",
            constraint: "must be non-zero",
        });
    }
    if params.rho_resolution.is_nan() || params.rho_resolution <= 0.0 {
        return Err(VisionError::InvalidParameter {
            name: "rho_resolution",
            constraint: "must be positive",
        });
    }
    if !(params.peak_fraction > 0.0 && params.peak_fraction <= 1.0) {
        return Err(VisionError::InvalidParameter {
            name: "peak_fraction",
            constraint: "must be in (0, 1]",
        });
    }
    let pixels = edges.edge_pixels();
    if pixels.is_empty() {
        return Err(VisionError::NoEdges);
    }

    let w = edges.width() as f64;
    let h = edges.height() as f64;
    let rho_max = (w * w + h * h).sqrt();
    let n_rho = (2.0 * rho_max / params.rho_resolution).ceil() as usize + 1;
    let n_theta = params.n_theta;
    let theta_of = |ti: usize| ti as f64 * std::f64::consts::PI / n_theta as f64;

    // Precompute sin/cos per θ bin.
    let trig: Vec<(f64, f64)> = (0..n_theta)
        .map(theta_of)
        .map(|t| (t.cos(), t.sin()))
        .collect();

    let mut acc = vec![0u32; n_theta * n_rho];
    for p in &pixels {
        let (x, y) = (p.x as f64, p.y as f64);
        for (ti, &(c, s)) in trig.iter().enumerate() {
            let rho = x * c + y * s;
            let ri = ((rho + rho_max) / params.rho_resolution).round() as usize;
            if ri < n_rho {
                acc[ti * n_rho + ri] += 1;
            }
        }
    }

    let max_votes = *acc.iter().max().expect("accumulator is non-empty");
    if max_votes == 0 {
        return Err(VisionError::NoEdges);
    }
    let threshold = ((max_votes as f64) * params.peak_fraction).ceil() as u32;

    // Greedy peak extraction with neighbourhood suppression: the next
    // peak is the strongest cell not yet suppressed, ties to the highest
    // index. Suppression only zeroes cells and a cell below the threshold
    // never becomes a peak, so one list of the cells at or above the
    // threshold, sorted once, yields the peaks in order.
    let mut candidates: Vec<usize> = (0..acc.len()).filter(|&i| acc[i] >= threshold).collect();
    candidates.sort_unstable_by(|&a, &b| acc[b].cmp(&acc[a]).then(b.cmp(&a)));
    let mut out = Vec::new();
    let r = params.suppression_radius as isize;
    for best_i in candidates {
        if out.len() == params.max_lines {
            break;
        }
        let best_v = acc[best_i];
        if best_v == 0 {
            continue; // suppressed by an earlier peak
        }
        let ti = (best_i / n_rho) as isize;
        let ri = (best_i % n_rho) as isize;
        out.push(HoughLine {
            rho: ri as f64 * params.rho_resolution - rho_max,
            theta: theta_of(ti as usize),
            votes: best_v as usize,
        });
        // θ wraps around π (a line at θ≈0 also appears near θ≈π with
        // negated ρ), so suppression applies on the wrapped coordinate:
        // each wrap mirrors ρ, so an odd number of wraps mirrors it.
        for dt in -r..=r {
            let t = (ti + dt).rem_euclid(n_theta as isize);
            let mirrored = (ti + dt).div_euclid(n_theta as isize) % 2 != 0;
            for dr in -r..=r {
                let mut rr = ri + dr;
                if mirrored {
                    rr = (n_rho as isize - 1) - rr;
                }
                if rr < 0 || rr >= n_rho as isize {
                    continue;
                }
                acc[t as usize * n_rho + rr as usize] = 0;
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canny::{canny, CannyParams};
    use qd_csd::{Csd, VoltageGrid};

    fn grid(w: usize, h: usize) -> VoltageGrid {
        VoltageGrid::new(0.0, 0.0, 1.0, w, h).unwrap()
    }

    fn edges_of(csd: &Csd) -> EdgeMap {
        canny(csd, CannyParams::default()).unwrap()
    }

    #[test]
    fn suppression_wider_than_the_theta_range_wraps_in_bounds() {
        // A radius of twice `n_theta` wraps θ more than once either way.
        let c = Csd::from_fn(grid(20, 20), |_, v2| if v2 < 10.0 { 3.0 } else { 1.0 }).unwrap();
        let params = HoughParams {
            n_theta: 4,
            suppression_radius: 8,
            ..HoughParams::default()
        };
        let lines = hough_lines(&edges_of(&c), params).unwrap();
        assert!(!lines.is_empty());
    }

    #[test]
    fn detects_horizontal_line() {
        let c = Csd::from_fn(grid(40, 40), |_, v2| if v2 < 20.0 { 3.0 } else { 1.0 }).unwrap();
        let lines = hough_lines(&edges_of(&c), HoughParams::default()).unwrap();
        assert!(!lines.is_empty());
        let m = lines[0].slope().expect("horizontal line has a slope");
        assert!(m.abs() < 0.05, "slope {m}");
        let y0 = lines[0].intercept().unwrap();
        assert!((y0 - 19.5).abs() <= 1.5, "intercept {y0}");
    }

    #[test]
    fn detects_vertical_line() {
        let c = Csd::from_fn(grid(40, 40), |v1, _| if v1 < 20.0 { 3.0 } else { 1.0 }).unwrap();
        let lines = hough_lines(&edges_of(&c), HoughParams::default()).unwrap();
        assert!(!lines.is_empty());
        // Vertical → theta ≈ 0 → slope None.
        assert!(lines[0].slope().is_none() || lines[0].slope().unwrap().abs() > 20.0);
    }

    #[test]
    fn detects_sloped_line_slope() {
        // Step across y = -0.5 x + 30 → slope -0.5.
        let c = Csd::from_fn(
            grid(60, 60),
            |v1, v2| {
                if v2 + 0.5 * v1 < 30.0 {
                    4.0
                } else {
                    1.0
                }
            },
        )
        .unwrap();
        let lines = hough_lines(&edges_of(&c), HoughParams::default()).unwrap();
        let m = lines[0].slope().unwrap();
        assert!((m + 0.5).abs() < 0.08, "slope {m}");
    }

    #[test]
    fn detects_two_crossing_lines() {
        // A CSD-like corner: steep line + shallow line.
        let c = Csd::from_fn(grid(80, 80), |v1, v2| {
            let above_steep = v2 > -4.0 * (v1 - 55.0);
            let above_shallow = v2 > 55.0 - 0.25 * v1;
            4.0 - if above_steep { 1.5 } else { 0.0 } - if above_shallow { 1.5 } else { 0.0 }
        })
        .unwrap();
        let lines = hough_lines(
            &edges_of(&c),
            HoughParams {
                max_lines: 4,
                peak_fraction: 0.2,
                ..HoughParams::default()
            },
        )
        .unwrap();
        assert!(lines.len() >= 2, "found {} lines", lines.len());
        let slopes: Vec<f64> = lines
            .iter()
            .map(|l| l.slope().unwrap_or(f64::NEG_INFINITY))
            .collect();
        assert!(
            slopes.iter().any(|&m| m < -1.0),
            "no steep line in {slopes:?}"
        );
        assert!(
            slopes.iter().any(|&m| m > -1.0 && m < 0.0),
            "no shallow line in {slopes:?}"
        );
    }

    #[test]
    fn votes_reflect_support() {
        let c = Csd::from_fn(grid(40, 40), |_, v2| if v2 < 20.0 { 3.0 } else { 1.0 }).unwrap();
        let lines = hough_lines(&edges_of(&c), HoughParams::default()).unwrap();
        // A full-width horizontal line should gather ≈ width votes.
        assert!(lines[0].votes >= 30, "votes {}", lines[0].votes);
    }

    #[test]
    fn empty_edge_map_errors() {
        let c = Csd::constant(grid(10, 10), 0.0).unwrap();
        let e = edges_of(&c);
        assert_eq!(
            hough_lines(&e, HoughParams::default()),
            Err(VisionError::NoEdges)
        );
    }

    #[test]
    fn rejects_bad_params() {
        let c = Csd::from_fn(grid(20, 20), |v1, _| v1).unwrap();
        let e = edges_of(&c);
        for bad in [
            HoughParams {
                n_theta: 0,
                ..HoughParams::default()
            },
            HoughParams {
                max_lines: 0,
                ..HoughParams::default()
            },
            HoughParams {
                rho_resolution: 0.0,
                ..HoughParams::default()
            },
            HoughParams {
                peak_fraction: 0.0,
                ..HoughParams::default()
            },
            HoughParams {
                peak_fraction: 1.5,
                ..HoughParams::default()
            },
        ] {
            assert!(hough_lines(&e, bad).is_err());
        }
    }

    #[test]
    fn y_at_evaluates_line() {
        let l = HoughLine {
            rho: 10.0,
            theta: std::f64::consts::FRAC_PI_2,
            votes: 1,
        };
        // θ = π/2 → horizontal line y = 10.
        assert!((l.y_at(100.0).unwrap() - 10.0).abs() < 1e-9);
        assert!((l.slope().unwrap()).abs() < 1e-9);
    }
}
