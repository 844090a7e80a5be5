//! Regenerates the algorithm-internals figures of the paper:
//!
//! * **Figure 2** — an example double-dot CSD with its four charge-state
//!   regions (`fig2`);
//! * **Figure 4** — the critical triangular region confining both
//!   transition lines, spanned by the two anchor points (`fig4`);
//! * **Figure 5** — the row-major and column-major sweep traces on a
//!   small grid, showing the shrinking triangle (`fig5`);
//! * **Figure 6** — the post-processing stages: raw sweep points, the two
//!   filtered sets, and the joined result (`fig6`).
//!
//! ```sh
//! cargo run --release -p fastvg-bench --bin fig456 -- fig4
//! cargo run --release -p fastvg-bench --bin fig456          # all of them
//! cargo run --release -p fastvg-bench --bin fig456 -- --jobs 2
//! cargo run --release -p fastvg-bench --bin fig456 -- --out artifacts
//! ```
//!
//! Standard flags: `--jobs N` (the paper benchmarks the figures draw on
//! — CSD 6 for Figure 4, CSD 10 for Figure 6 — are rendered concurrently
//! through the batch layer; the figures themselves are order-sensitive
//! probe traces and stay serial), `--out DIR` (writes each figure's
//! ASCII art to `figN.txt`). The figures trace the *fast* pipeline's
//! internals, so `--method hough` has nothing to draw and exits with a
//! note.

use fastvg_bench::{session_on, Artifacts, BenchArgs, MethodFilter, Tee};
use fastvg_core::anchors::{find_anchors, AnchorConfig};
use fastvg_core::postprocess::{leftmost_per_row, lowest_per_column, postprocess};
use fastvg_core::report::Method;
use fastvg_core::sweep::{column_major_sweep, row_major_sweep, SweepConfig, SweepKind};
use qd_csd::render::AsciiRenderer;
use qd_csd::{Csd, Pixel, VoltageGrid};
use qd_dataset::{generate_suite, paper_specs, GeneratedBenchmark};
use qd_instrument::{SourceBackend, SourceScenario};
use qd_physics::DeviceBuilder;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = BenchArgs::parse();
    if args.method == MethodFilter::Hough {
        println!("fig456 traces the fast pipeline's internals; --method hough has nothing to draw");
        return Ok(());
    }
    let which: Option<String> = args.positionals().first().map(|s| s.to_string());
    let all = which.is_none();
    let is = |name: &str| all || which.as_deref() == Some(name);
    let artifacts = args.out.as_deref().map(Artifacts::at).transpose()?;

    // Pre-render whichever paper benchmarks the selected figures need,
    // in parallel.
    let mut wanted = Vec::new();
    if is("fig4") {
        wanted.push(6);
    }
    if is("fig6") {
        wanted.push(10);
    }
    let specs: Vec<_> = paper_specs()
        .into_iter()
        .filter(|s| wanted.contains(&s.index))
        .collect();
    let benches = generate_suite(&specs, args.jobs)?;
    let backend = args.resolve_backend();
    let by_index = |index: usize| -> &GeneratedBenchmark {
        benches
            .iter()
            .find(|b| b.spec.index == index)
            .expect("requested benchmark was pre-rendered")
    };

    let emit = |name: &str, tee: &mut Tee| -> std::io::Result<()> {
        if let Some(artifacts) = &artifacts {
            let path = artifacts.write(&format!("{name}.txt"), &tee.take())?;
            println!("artifact: {}", path.display());
        }
        Ok(())
    };

    let teeing = args.out.is_some();
    if is("fig2") {
        let mut tee = Tee::new(teeing);
        fig2(&mut tee)?;
        emit("fig2", &mut tee)?;
    }
    if is("fig4") {
        let mut tee = Tee::new(teeing);
        fig4(by_index(6), backend.as_ref(), &mut tee)?;
        emit("fig4", &mut tee)?;
    }
    if is("fig5") {
        let mut tee = Tee::new(teeing);
        fig5(backend.as_ref(), &mut tee)?;
        emit("fig5", &mut tee)?;
    }
    if is("fig6") {
        let mut tee = Tee::new(teeing);
        fig6(by_index(10), backend.as_ref(), &mut tee)?;
        emit("fig6", &mut tee)?;
    }
    if is("honeycomb") {
        let mut tee = Tee::new(teeing);
        honeycomb(&mut tee)?;
        emit("honeycomb", &mut tee)?;
    }
    Ok(())
}

/// Extra: the analytic honeycomb traced over a rendered diagram —
/// validates that the two-line model the extraction assumes near the
/// (0,0) corner is the local truth of the full cell structure.
fn honeycomb(tee: &mut Tee) -> Result<(), Box<dyn std::error::Error>> {
    use qd_physics::honeycomb::trace_honeycomb;
    use qd_physics::ChargeStateSolver;

    let device = DeviceBuilder::double_dot()
        .mutual_capacitance(0.2)
        .temperature(0.0015)
        .build()?;
    let (ix, iy) = device.as_array().pair_line_intersection(0, &[0.0, 0.0])?;
    let window = (ix - 35.0, iy - 32.0, ix + 25.0, iy + 28.0);
    let hc = trace_honeycomb(device.capacitance_model(), &ChargeStateSolver, window, 150)?;

    let grid = VoltageGrid::new(window.0, window.1, 0.6, 100, 100)?;
    let csd = Csd::from_fn(grid, |v1, v2| {
        device.current(&[v1, v2]).expect("2-gate vector")
    })?;
    // Rasterize each analytic segment into overlay pixels.
    let mut overlay = Vec::new();
    for seg in &hc.segments {
        let steps = (seg.length() / 0.6).ceil() as usize + 1;
        for i in 0..=steps {
            let t = i as f64 / steps as f64;
            let v1 = seg.start.0 + t * (seg.end.0 - seg.start.0);
            let v2 = seg.start.1 + t * (seg.end.1 - seg.start.1);
            if let Some(p) = grid.pixel_of(v1, v2) {
                overlay.push(p);
            }
        }
    }
    let mut renderer = AsciiRenderer::new()
        .max_width(100)
        .with_overlays(overlay, '+');
    for tp in &hc.triple_points {
        if let Some(p) = grid.pixel_of(tp.0, tp.1) {
            renderer = renderer.with_overlay(p, 'X');
        }
    }
    tee.line("=== Honeycomb: analytic boundaries (+) and triple points (X) ===");
    tee.line(renderer.render(&csd));
    tee.line(format!(
        "{} boundary segments, {} triple points in the window",
        hc.segments.len(),
        hc.triple_points.len()
    ));
    for seg in &hc.segments {
        tee.line(format!(
            "  {:?} -> {:?}: slope {}  length {:.1} V",
            seg.from,
            seg.to,
            seg.slope()
                .map(|m| format!("{m:+.3}"))
                .unwrap_or_else(|| "vertical".into()),
            seg.length()
        ));
    }
    Ok(())
}

/// Figure 2: an example double-dot CSD with labelled charge regions.
fn fig2(tee: &mut Tee) -> Result<(), Box<dyn std::error::Error>> {
    let device = DeviceBuilder::double_dot().temperature(0.0015).build()?;
    let (ix, iy) = device.as_array().pair_line_intersection(0, &[0.0, 0.0])?;
    let grid = VoltageGrid::new(ix - 35.0, iy - 32.0, 0.6, 100, 100)?;
    let csd = Csd::from_fn(grid, |v1, v2| {
        device.current(&[v1, v2]).expect("2-gate vector")
    })?;
    tee.line("=== Figure 2: double-dot charge stability diagram ===");
    tee.line(AsciiRenderer::new().max_width(100).render(&csd));
    for (fx, fy, label) in [
        (0.15, 0.15, "(0, 0)"),
        (0.85, 0.15, "(1, 0)"),
        (0.15, 0.85, "(0, 1)"),
        (0.85, 0.85, "(1, 1)"),
    ] {
        let (v1, v2) = grid.voltage_of((fx * 99.0) as usize, (fy * 99.0) as usize);
        let state = device.ground_state(&[v1, v2])?;
        tee.line(format!(
            "corner ({fx:.0}%, {fy:.0}%): charge state {state} — expected {label}",
            fx = fx * 100.0,
            fy = fy * 100.0
        ));
    }
    tee.line("");
    Ok(())
}

/// Figure 4: the critical region spanned by the anchors.
fn fig4(
    bench: &GeneratedBenchmark,
    backend: &dyn SourceBackend,
    tee: &mut Tee,
) -> Result<(), Box<dyn std::error::Error>> {
    let mut session = session_on(backend, bench, Method::FastExtraction);
    let anchors = find_anchors(&mut session, &AnchorConfig::default())?;
    let region = anchors.region()?;

    // Draw the triangle boundary.
    let mut boundary = Vec::new();
    for y in region.a2.y..=region.a1.y {
        if let Some((lo, hi)) = region.row_range(y) {
            boundary.push(Pixel::new(lo, y));
            boundary.push(Pixel::new(hi, y));
        }
    }
    for x in region.a1.x..=region.a2.x {
        boundary.push(Pixel::new(x, region.a1.y));
    }
    tee.line("=== Figure 4: critical triangular region (anchors A/B, boundary .) ===");
    let art = AsciiRenderer::new()
        .max_width(110)
        .with_overlays(boundary, '+')
        .with_overlay(anchors.a1, 'A')
        .with_overlay(anchors.a2, 'B')
        .render(&bench.csd);
    tee.line(art);
    tee.line(format!(
        "anchors: A = {} (shallow line), B = {} (steep line); right angle at {}",
        anchors.a1,
        anchors.a2,
        region.corner()
    ));
    tee.line(format!(
        "triangle covers {} of {} pixels ({:.1}%)\n",
        region.area_pixels(),
        bench.csd.grid().len(),
        100.0 * region.area_pixels() as f64 / bench.csd.grid().len() as f64
    ));
    Ok(())
}

/// Figure 5: sweep traces on a small 15x15 grid, as in the paper.
fn fig5(backend: &dyn SourceBackend, tee: &mut Tee) -> Result<(), Box<dyn std::error::Error>> {
    // A 15x15 toy CSD with a steep and a shallow line, like the paper's
    // illustration grid.
    let grid = VoltageGrid::new(0.0, 0.0, 1.0, 15, 15)?;
    let csd = Csd::from_fn(grid, |v1, v2| {
        let mut i = 4.0;
        if v2 > -3.5 * (v1 - 9.6) {
            i -= 1.0; // steep line
        }
        if v2 > 9.4 - 0.28 * v1 {
            i -= 0.8; // shallow line
        }
        i
    })?;
    let mut session = backend.session(SourceScenario::new(csd.clone()).with_label("fig5-rows"))?;
    let region = fastvg_core::triangle::CriticalRegion::new(Pixel::new(0, 13), Pixel::new(12, 3))
        .expect("anchors are up-left/down-right");

    tee.line("=== Figure 5 (a): row-major sweep ===");
    let rows = row_major_sweep(&mut session, region, &SweepConfig::default());
    for step in &rows.steps {
        assert_eq!(step.kind, SweepKind::RowMajor);
        let probed: Vec<String> = step.probed.iter().map(|p| p.to_string()).collect();
        tee.line(format!(
            "row {:>2}: probed {:<42} chose {}",
            step.line_index,
            probed.join(" "),
            step.chosen
        ));
    }
    tee.line("\n=== Figure 5 (b): column-major sweep ===");
    let mut session2 = backend.session(SourceScenario::new(csd.clone()).with_label("fig5-cols"))?;
    let cols = column_major_sweep(&mut session2, region, &SweepConfig::default());
    for step in &cols.steps {
        let probed: Vec<String> = step.probed.iter().map(|p| p.to_string()).collect();
        tee.line(format!(
            "col {:>2}: probed {:<42} chose {}",
            step.line_index,
            probed.join(" "),
            step.chosen
        ));
    }
    let art = AsciiRenderer::new()
        .with_overlays(rows.points.clone(), 'r')
        .with_overlays(cols.points.clone(), 'c')
        .with_overlay(region.a1, 'A')
        .with_overlay(region.a2, 'B')
        .render(&csd);
    tee.line(format!(
        "\nlocated points (r = row sweep, c = column sweep):\n{art}"
    ));
    Ok(())
}

/// Figure 6: post-processing stages on a real benchmark.
fn fig6(
    bench: &GeneratedBenchmark,
    backend: &dyn SourceBackend,
    tee: &mut Tee,
) -> Result<(), Box<dyn std::error::Error>> {
    let mut session = session_on(backend, bench, Method::FastExtraction);
    let anchors = find_anchors(&mut session, &AnchorConfig::default())?;
    let region = anchors.region()?;
    let rows = row_major_sweep(&mut session, region, &SweepConfig::default());
    let cols = column_major_sweep(&mut session, region, &SweepConfig::default());

    let combined: Vec<Pixel> = rows.points.iter().chain(&cols.points).copied().collect();
    let set1 = lowest_per_column(&combined);
    let set2 = leftmost_per_row(&combined);
    let joined = postprocess(&combined);

    tee.line("=== Figure 6: post-processing on CSD 10 ===");
    tee.line(format!(
        "raw points: {} (row sweep {}, column sweep {})",
        combined.len(),
        rows.points.len(),
        cols.points.len()
    ));
    tee.line(format!(
        "filtered set 1 (lowest per column): {}",
        set1.len()
    ));
    tee.line(format!(
        "filtered set 2 (leftmost per row):  {}",
        set2.len()
    ));
    tee.line(format!("joined: {}", joined.len()));

    let before = AsciiRenderer::new()
        .max_width(110)
        .with_overlays(rows.points.clone(), 'r')
        .with_overlays(cols.points.clone(), 'c')
        .render(&bench.csd);
    tee.line(format!(
        "\nbefore filtering (r = row sweep, c = column sweep):\n{before}"
    ));
    let after = AsciiRenderer::new()
        .max_width(110)
        .with_overlays(joined.clone(), 'o')
        .render(&bench.csd);
    tee.line(format!("after filtering + join:\n{after}"));
    Ok(())
}
