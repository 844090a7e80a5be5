//! Golden bits for the Hough baseline's vision pass.
//!
//! The baseline's answers hang on every edge pixel Canny keeps and on
//! which accumulator cells Hough takes as peaks, ties included. These
//! tests pin them over the paper suite and the zoo with the daemon's
//! `BaselineConfig::default()`: `fnv1a64` over each diagram's edge map,
//! each Hough line's `rho`/`theta` bits and votes, and the baseline's
//! `slope_h`/`slope_v` bits (or its error text), against digests of the
//! reference implementation. A property test holds `hough_lines` to the
//! reference peak loop on random edge maps and parameters.

use fastvg::core::baseline::{BaselineConfig, HoughBaseline};
use fastvg::csd::{Csd, VoltageGrid};
use fastvg::dataset::{generate, paper_specs, zoo_specs, BenchmarkSpec, DEFAULT_ZOO_SEED};
use fastvg::instrument::{CsdSource, MeasurementSession};
use fastvg::vision::canny::{canny, CannyParams};
use fastvg::vision::hough::{hough_lines, HoughLine, HoughParams};
use fastvg::vision::EdgeMap;
use fastvg::wire::fnv1a64;
use proptest::prelude::*;

/// `(digest, count)` of the edge maps (count: edge pixels), the Hough
/// lines (count: lines) and the baseline slopes (count: successes).
fn vision_digests<'a>(specs: impl IntoIterator<Item = &'a BenchmarkSpec>) -> [(String, usize); 3] {
    let config = BaselineConfig::default();
    let mut bytes = [Vec::new(), Vec::new(), Vec::new()];
    let mut counts = [0; 3];
    for spec in specs {
        let csd = generate(spec).expect("spec realizes").csd;
        let edges = canny(&csd, config.canny).expect("canny accepts a realized diagram");
        for y in 0..edges.height() {
            for x in 0..edges.width() {
                bytes[0].push(u8::from(edges.is_edge(x, y)));
            }
        }
        counts[0] += edges.edge_count();
        match hough_lines(&edges, config.hough) {
            Ok(lines) => {
                bytes[1].extend_from_slice(&(lines.len() as u64).to_le_bytes());
                for line in &lines {
                    bytes[1].extend_from_slice(&line.rho.to_bits().to_le_bytes());
                    bytes[1].extend_from_slice(&line.theta.to_bits().to_le_bytes());
                    bytes[1].extend_from_slice(&(line.votes as u64).to_le_bytes());
                }
                counts[1] += lines.len();
            }
            Err(e) => bytes[1].extend_from_slice(e.to_string().as_bytes()),
        }
        let mut session = MeasurementSession::new(CsdSource::new(csd));
        match HoughBaseline::with_config(config.clone()).extract(&mut session) {
            Ok(r) => {
                bytes[2].extend_from_slice(&r.slope_h.to_bits().to_le_bytes());
                bytes[2].extend_from_slice(&r.slope_v.to_bits().to_le_bytes());
                counts[2] += 1;
            }
            Err(e) => bytes[2].extend_from_slice(e.to_string().as_bytes()),
        }
    }
    [0, 1, 2].map(|k| (format!("{:016x}", fnv1a64(&bytes[k])), counts[k]))
}

#[test]
fn paper_suite_vision_is_bit_identical() {
    assert_eq!(
        vision_digests(&paper_specs()),
        [
            ("0c48e05f23b86fc4".to_string(), 27_453),
            ("472acfb1cf31781a".to_string(), 69),
            ("4553d1b8d7745b25".to_string(), 9),
        ]
    );
}

#[test]
fn zoo_vision_is_bit_identical() {
    let zoo = zoo_specs(1, DEFAULT_ZOO_SEED);
    assert_eq!(
        vision_digests(zoo.iter().map(|z| &z.spec)),
        [
            ("6b94fe2cc2cca27c".to_string(), 5_555),
            ("b136ca095dc49a64".to_string(), 74),
            ("a44cf563364c4659".to_string(), 10),
        ]
    );
}

/// The reference peak loop: a full rescan of the accumulator per peak
/// with `max_by_key` (the last maximal cell on ties), then a θ-wrapping
/// suppression square. Parameters are assumed valid.
fn reference_hough(edges: &EdgeMap, params: HoughParams) -> Vec<HoughLine> {
    let w = edges.width() as f64;
    let h = edges.height() as f64;
    let rho_max = (w * w + h * h).sqrt();
    let n_rho = (2.0 * rho_max / params.rho_resolution).ceil() as usize + 1;
    let n_theta = params.n_theta;
    let thetas: Vec<f64> = (0..n_theta)
        .map(|i| i as f64 * std::f64::consts::PI / n_theta as f64)
        .collect();
    let mut acc = vec![0u32; n_theta * n_rho];
    for p in edges.edge_pixels() {
        let (x, y) = (p.x as f64, p.y as f64);
        for (ti, t) in thetas.iter().enumerate() {
            let rho = x * t.cos() + y * t.sin();
            let ri = ((rho + rho_max) / params.rho_resolution).round() as usize;
            if ri < n_rho {
                acc[ti * n_rho + ri] += 1;
            }
        }
    }
    let max_votes = *acc.iter().max().expect("accumulator is non-empty");
    let threshold = ((max_votes as f64) * params.peak_fraction).ceil() as u32;
    let mut out = Vec::new();
    let r = params.suppression_radius as isize;
    while out.len() < params.max_lines {
        let (best_i, &best_v) = acc.iter().enumerate().max_by_key(|&(_, &v)| v).unwrap();
        if best_v < threshold || best_v == 0 {
            break;
        }
        let ti = (best_i / n_rho) as isize;
        let ri = (best_i % n_rho) as isize;
        out.push(HoughLine {
            rho: ri as f64 * params.rho_resolution - rho_max,
            theta: thetas[ti as usize],
            votes: best_v as usize,
        });
        for dt in -r..=r {
            // Wrap θ one period at a time, mirroring ρ at each wrap.
            let (mut t, mut mirrored) = (ti + dt, false);
            while t < 0 {
                t += n_theta as isize;
                mirrored = !mirrored;
            }
            while t >= n_theta as isize {
                t -= n_theta as isize;
                mirrored = !mirrored;
            }
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
    out
}

/// A `w × h` image of up to three random steps plus hashed noise of
/// amplitude `noise`, keyed on `seed`.
fn step_image(w: usize, h: usize, steps: &[(f64, f64, f64)], noise: f64, seed: u64) -> Csd {
    let grid = VoltageGrid::new(0.0, 0.0, 1.0, w, h).expect("valid grid");
    let diag = ((w * w + h * h) as f64).sqrt();
    Csd::from_fn(grid, |x, y| {
        let mut z = seed ^ ((x as u64) << 32 | y as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let unit = (z ^ (z >> 31)) as f64 / u64::MAX as f64;
        let level: f64 = steps
            .iter()
            .filter(|&&(angle, offset, _)| x * angle.cos() + y * angle.sin() < offset * diag)
            .map(|&(_, _, height)| height)
            .sum();
        level + noise * (2.0 * unit - 1.0)
    })
    .expect("finite image")
}

proptest! {
    /// `hough_lines` returns exactly the reference loop's lines, as bits,
    /// for Canny edge maps of random images under random parameters.
    #[test]
    fn hough_peaks_match_the_rescanning_loop(
        seed in 0u64..u64::MAX,
        w in 3usize..40,
        h in 3usize..40,
        steps in prop::collection::vec((0.0..std::f64::consts::PI, 0.0..1.0, 0.5..3.0), 0..4),
        noise in 0.0..0.6,
        n_theta in 1usize..40,
        max_lines in 1usize..12,
        peak_fraction in 0.01..1.0,
        suppression_radius in 0usize..120,
        rho_resolution in 0.5..2.5,
    ) {
        let edges = canny(&step_image(w, h, &steps, noise, seed), CannyParams::default())
            .expect("image is at least 3x3");
        let params = HoughParams {
            n_theta,
            rho_resolution,
            peak_fraction,
            max_lines,
            suppression_radius,
        };
        let bits = |lines: &[HoughLine]| -> Vec<(u64, u64, usize)> {
            lines.iter().map(|l| (l.rho.to_bits(), l.theta.to_bits(), l.votes)).collect()
        };
        if edges.edge_count() == 0 {
            prop_assert!(hough_lines(&edges, params).is_err(), "seed {}", seed);
        } else {
            let lines = hough_lines(&edges, params).expect("valid parameters");
            prop_assert_eq!(
                bits(&lines),
                bits(&reference_hough(&edges, params)),
                "seed {} size {}x{} params {:?}", seed, w, h, params
            );
        }
    }
}
