//! Regenerates **Figure 7** of the paper: the scatter of data points
//! probed by the fast extraction on benchmarks CSD 6 and CSD 10.
//!
//! Points cluster around the two transition lines, with the extra
//! diagonal/row/column probes of the anchor preprocessing visible — the
//! same structure as the paper's figure. Output is ASCII art plus a CSV
//! dump per benchmark.
//!
//! ```sh
//! cargo run --release -p fastvg-bench --bin fig7
//! ```

use fastvg_bench::run_method;
use fastvg_core::extraction::FastExtractor;
use fastvg_core::report::SuccessCriteria;
use qd_csd::render::AsciiRenderer;
use qd_csd::Pixel;
use qd_dataset::paper_benchmark;
use qd_instrument::SimBackend;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let criteria = SuccessCriteria::default();
    for index in [6usize, 10] {
        let bench = paper_benchmark(index)?;
        let run = run_method(
            &SimBackend,
            &FastExtractor::new(),
            std::slice::from_ref(&bench),
            &criteria,
            1,
        )
        .remove(0);
        println!(
            "=== Figure 7: probed points on CSD {index} ({} probes, {:.2}% of {}x{}) ===",
            run.report.probes,
            100.0 * run.report.coverage,
            bench.spec.size,
            bench.spec.size
        );

        let probed: Vec<Pixel> = run
            .scatter
            .iter()
            .map(|&(x, y)| Pixel::new(x as usize, y as usize))
            .collect();
        let mut renderer = AsciiRenderer::new()
            .max_width(110)
            .with_overlays(probed, 'o');
        if let Some(result) = &run.result {
            renderer = renderer
                .with_overlay(result.anchors.a1, 'A')
                .with_overlay(result.anchors.a2, 'B');
        }
        println!("{}", renderer.render(&bench.csd));

        // CSV for external plotting.
        println!("# csv: x,y (probe order)");
        let csv: Vec<String> = run
            .scatter
            .iter()
            .map(|(x, y)| format!("{x},{y}"))
            .collect();
        println!("{}", csv.join(" "));
        println!();
    }
    Ok(())
}
