//! Live-device extraction: probe a physics model instead of a recorded
//! diagram, with observer hooks streaming progress as it happens.
//!
//! The paper evaluates on recorded CSDs; on real hardware the extraction
//! probes the device directly, noise depends on probe *order* (drift
//! accumulates between measurements), and an operator wants to see the
//! run progressing. This example attaches an `Observer` to a
//! `Pipeline` — stage transitions and a probe ticker stream live — then
//! renders the probed pixels as ASCII art over the (separately acquired)
//! full diagram.
//!
//! ```sh
//! cargo run --release --example live_device
//! ```

use fastvg::csd::render::AsciiRenderer;
use fastvg::physics::{CompositeNoise, DriftNoise, SensorModel, TelegraphNoise, WhiteNoise};
use fastvg::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Streams stage transitions and every 200th dwell-costing probe —
/// the live progress feed an unattended rig would ship to a dashboard.
struct ProgressTicker {
    costed: AtomicUsize,
}

impl Observer for ProgressTicker {
    fn on_stage_start(&self, stage: Stage) {
        println!("  [stage] {stage} ...");
    }

    fn on_stage_end(&self, timing: &StageTiming) {
        println!(
            "  [stage] {} done: {} probes, {:.1}ms",
            timing.stage,
            timing.probes,
            timing.elapsed.as_secs_f64() * 1e3
        );
    }

    fn on_probe(&self, probe: &ProbeObservation) {
        if !probe.costed {
            return;
        }
        let n = self.costed.fetch_add(1, Ordering::Relaxed) + 1;
        if n.is_multiple_of(200) {
            println!(
                "  [probe] #{n}: ({:+.1} V, {:+.1} V) -> {:.3} nA",
                probe.v1, probe.v2, probe.value
            );
        }
    }

    fn on_complete(&self, report: &ExtractionReport) {
        println!(
            "  [done] {} probes, slopes h {:+.3} / v {:+.3}",
            report.probes, report.slope_h, report.slope_v
        );
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Sharp lines (low electron temperature) and a visible background
    // tilt (negative sensor crosstalk) — the regime the paper's qflow
    // chips are measured in.
    let sensor = SensorModel::new(5.0, 4.0, 3.0, vec![1.0, 0.74], vec![-0.008, -0.008])?;
    let device = DeviceBuilder::double_dot()
        .mutual_capacitance(0.18)
        .temperature(0.0015)
        .sensor(sensor)
        .build_array()?;
    let truth = device.pair_ground_truth(0)?;

    // Plan a 100×100 window around the first-transition corner.
    let (ix, iy) = device.pair_line_intersection(0, &[0.0, 0.0])?;
    let span = 60.0;
    let window = VoltageWindow {
        x_min: ix - 0.62 * span,
        y_min: iy - 0.58 * span,
        x_max: ix + 0.38 * span,
        y_max: iy + 0.42 * span,
        delta: span / 99.0,
    };

    let noise = CompositeNoise::new()
        .with(WhiteNoise::new(0.03))
        .with(DriftNoise::new(0.002, 0.03))
        .with(TelegraphNoise::new(0.04, 0.01));
    let source =
        PhysicsSource::new(device.clone(), 0, 1, vec![0.0, 0.0], window).with_noise(noise, 42);
    let mut session = MeasurementSession::new(source);

    println!("probing live device (drift accumulates across probes)...");
    let pipeline = Pipeline::fast()
        .with_observer(ProgressTicker {
            costed: AtomicUsize::new(0),
        })
        .build();
    let report = pipeline.run(&mut session)?;

    println!(
        "\nprobes: {} ({:.2}% of the window), dwell {:.1}s",
        report.probes,
        100.0 * report.coverage,
        report.simulated_dwell.as_secs_f64()
    );
    println!(
        "slope_h {:+.4} (truth {:+.4})   slope_v {:+.4} (truth {:+.4})",
        report.slope_h, truth.slope_h, report.slope_v, truth.slope_v
    );
    println!("virtualization matrix: {}", report.matrix);

    // Render probed pixels over a noiseless reference diagram. The
    // method-specific trace (anchors) rides inside the unified report.
    let anchors = report
        .details
        .fast()
        .map(|r| r.anchors.clone())
        .expect("fast pipeline reports fast details");
    let grid = VoltageGrid::new(window.x_min, window.y_min, window.delta, 100, 100)?;
    let reference = Csd::from_fn(grid, |v1, v2| {
        device.current(&[v1, v2]).expect("valid gate vector")
    })?;
    let probed: Vec<Pixel> = session
        .scatter()
        .into_iter()
        .map(|(x, y)| Pixel::new(x as usize, y as usize))
        .collect();
    let art = AsciiRenderer::new()
        .max_width(100)
        .with_overlays(probed, 'o')
        .with_overlay(anchors.a1, 'A')
        .with_overlay(anchors.a2, 'B')
        .render(&reference);
    println!("\nprobed pixels (o), anchors (A, B) over the reference diagram:\n");
    println!("{art}");
    Ok(())
}
