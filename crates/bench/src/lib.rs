//! Shared harness code for the fastvg benchmark suite.
//!
//! The binaries in `src/bin` regenerate every table and figure of the
//! DAC'24 paper (see DESIGN.md §4 for the experiment index); this library
//! holds the code they share: driving extraction methods over benchmarks
//! — serially or batched across a worker pool — through the unified
//! [`fastvg_core::api::Extractor`] trait and a runtime-selected
//! [`qd_instrument::SourceBackend`], scoring outcomes into Table
//! 1-style rows, and the standard CLI surface
//! (`--method fast|hough` / `--jobs N` / `--backend SPEC` / `--out DIR`,
//! parsed by [`BenchArgs`]).
//!
//! # Batch execution
//!
//! All suite-level harnesses go through [`run_method`] / [`run_suite`],
//! which fan the benchmarks out over a
//! [`fastvg_core::batch::BatchExtractor`]. Results are bit-identical for
//! every `--jobs` value (the scoring below never depends on execution
//! order); only wall-clock changes.

use fastvg_core::api::{ExtractionDetails, Extractor};
use fastvg_core::baseline::HoughBaseline;
use fastvg_core::batch::{BatchExtractor, BatchOutcome};
use fastvg_core::extraction::{ExtractionResult, FastExtractor};
use fastvg_core::report::{Method, ReportRow, SuccessCriteria};
use qd_dataset::GeneratedBenchmark;
use qd_instrument::{
    BackendRegistry, BoxedSource, MeasurementSession, SourceBackend, SourceScenario,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Outcome of running one method on one benchmark: the report row plus
/// the session ledger scatter (for Figure 7).
pub struct MethodRun {
    /// Table 1-style row.
    pub report: ReportRow,
    /// Distinct probed pixels in first-probe order (empty for the
    /// baseline, which probes everything).
    pub scatter: Vec<(i64, i64)>,
    /// Full fast-extraction trace when the method succeeded outright.
    pub result: Option<ExtractionResult>,
}

/// Both methods' outcomes on one benchmark.
pub struct SuiteRun {
    /// The fast extraction outcome.
    pub fast: MethodRun,
    /// The Canny+Hough baseline outcome.
    pub baseline: MethodRun,
}

/// Resolves a `--backend` spec through the standard registry, exiting
/// with the resolver's message on malformed specs — operator errors in
/// harness invocations, like the rest of the CLI surface.
pub fn resolve_backend(spec: &str) -> Arc<dyn SourceBackend> {
    BackendRegistry::standard()
        .resolve(spec)
        .unwrap_or_else(|e| panic!("--backend {spec:?}: {e}"))
}

/// The backend scenario for one benchmark: its diagram, its generation
/// seed, and a `bench<NN>-<method>` label so `{label}` tape templates
/// fan out per benchmark and per method.
pub fn scenario_for(bench: &GeneratedBenchmark, method: Method) -> SourceScenario {
    SourceScenario::new(bench.csd.clone())
        .with_label(format!(
            "bench{:02}-{}",
            bench.spec.index,
            method.wire_name()
        ))
        .with_seed(bench.spec.seed)
}

/// A fresh session over a benchmark through a runtime-selected backend
/// (the harnesses' `--backend` flag).
///
/// # Panics
///
/// Panics when the backend cannot open a source (unreadable tape, …) —
/// an operator error in harness invocations.
pub fn session_on(
    backend: &dyn SourceBackend,
    bench: &GeneratedBenchmark,
    method: Method,
) -> MeasurementSession<BoxedSource> {
    backend
        .session(scenario_for(bench, method))
        .unwrap_or_else(|e| {
            panic!(
                "backend {} failed to open benchmark {}: {e}",
                backend.describe(),
                bench.spec.index
            )
        })
}

/// Scores a batched extraction outcome (any method) into a Table 1 row.
///
/// `method` labels the row when the outcome is an error (a successful
/// report carries its own method).
pub fn score(
    bench: &GeneratedBenchmark,
    criteria: &SuccessCriteria,
    method: Method,
    outcome: BatchOutcome,
) -> MethodRun {
    match outcome.outcome {
        Ok(run) => {
            let success = criteria.judge(run.alpha12(), run.alpha21(), &bench.truth);
            let report = ReportRow {
                benchmark: bench.spec.index,
                size: bench.spec.size,
                method: run.method,
                success,
                probes: run.probes,
                coverage: run.coverage,
                runtime: run.total_runtime(),
                alpha12: run.alpha12(),
                alpha21: run.alpha21(),
                failure: if success {
                    None
                } else {
                    Some(format!(
                        "alpha error exceeds tolerance (d12 {:.3}, d21 {:.3})",
                        (run.alpha12() - bench.truth.alpha12).abs(),
                        (run.alpha21() - bench.truth.alpha21).abs()
                    ))
                },
            };
            // The baseline probes everything; keep its (full-frame)
            // scatter out of the row to avoid hauling O(pixels) data.
            let scatter = if run.method == Method::HoughBaseline {
                Vec::new()
            } else {
                outcome.scatter
            };
            let result = match run.details {
                ExtractionDetails::Fast(r) => Some(*r),
                _ => None,
            };
            MethodRun {
                report,
                scatter,
                result,
            }
        }
        Err(e) => MethodRun {
            report: ReportRow::failed(
                bench.spec.index,
                bench.spec.size,
                method,
                outcome.probes,
                outcome.coverage,
                outcome.simulated_dwell,
                e.to_string(),
            ),
            scatter: if method == Method::HoughBaseline {
                Vec::new()
            } else {
                outcome.scatter
            },
            result: None,
        },
    }
}

/// Runs one extraction method over a benchmark suite through `backend`
/// with up to `jobs` concurrent sessions and scores each outcome — the
/// single code path behind every per-method harness (no per-method
/// dispatch needed).
pub fn run_method(
    backend: &dyn SourceBackend,
    extractor: &dyn Extractor,
    benches: &[GeneratedBenchmark],
    criteria: &SuccessCriteria,
    jobs: usize,
) -> Vec<MethodRun> {
    let outcomes = BatchExtractor::new()
        .with_jobs(jobs)
        .run(extractor, benches.len(), |i| {
            session_on(backend, &benches[i], extractor.method())
        });
    outcomes
        .into_iter()
        .zip(benches)
        .map(|(o, b)| score(b, criteria, extractor.method(), o))
        .collect()
}

/// Runs both methods (the paper's fast extractor and the Hough
/// baseline) over a benchmark suite through `backend` with up to `jobs`
/// concurrent sessions per method, returning scored rows in suite order.
pub fn run_suite(
    backend: &dyn SourceBackend,
    benches: &[GeneratedBenchmark],
    criteria: &SuccessCriteria,
    jobs: usize,
) -> Vec<SuiteRun> {
    let fast = run_method(backend, &FastExtractor::new(), benches, criteria, jobs);
    let base = run_method(backend, &HoughBaseline::new(), benches, criteria, jobs);
    fast.into_iter()
        .zip(base)
        .map(|(fast, baseline)| SuiteRun { fast, baseline })
        .collect()
}

/// Which extraction methods a harness should run
/// (`--method fast|hough|both`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MethodFilter {
    /// Fast extraction only.
    Fast,
    /// Canny+Hough baseline only.
    Hough,
    /// Both methods (the default).
    #[default]
    Both,
}

impl MethodFilter {
    /// Whether the fast extraction is selected.
    pub fn fast(self) -> bool {
        matches!(self, MethodFilter::Fast | MethodFilter::Both)
    }

    /// Whether the baseline is selected.
    pub fn hough(self) -> bool {
        matches!(self, MethodFilter::Hough | MethodFilter::Both)
    }

    /// The selected extractors, ready for the unified
    /// [`run_method`] path.
    pub fn extractors(self) -> Vec<Box<dyn Extractor>> {
        let mut out: Vec<Box<dyn Extractor>> = Vec::new();
        if self.fast() {
            out.push(Box::new(FastExtractor::new()));
        }
        if self.hough() {
            out.push(Box::new(HoughBaseline::new()));
        }
        out
    }
}

/// The standard CLI surface shared by all bench binaries:
/// `--method fast|hough` (default both), `--jobs N` (default: one worker
/// per core), `--backend SPEC` (probe-source selection, default `sim`),
/// `--out DIR` (artifact directory). Everything else lands in
/// [`BenchArgs::rest`] for the binary's own flags/positionals.
#[derive(Debug, Clone)]
pub struct BenchArgs {
    /// Worker cap for batch execution (0 = one per core).
    pub jobs: usize,
    /// Which methods to run.
    pub method: MethodFilter,
    /// Probe-backend spec (`sim`, `throttled:<dwell>`,
    /// `record:<tape>[+inner]`, `replay:<tape>`; tape paths may contain
    /// `{label}`, expanded to `bench<NN>-<method>`).
    pub backend: String,
    /// Artifact directory, if requested.
    pub out: Option<PathBuf>,
    /// Unconsumed arguments, in order.
    pub rest: Vec<String>,
}

impl Default for BenchArgs {
    fn default() -> Self {
        Self {
            jobs: 0,
            method: MethodFilter::default(),
            backend: "sim".to_string(),
            out: None,
            rest: Vec::new(),
        }
    }
}

impl BenchArgs {
    /// Parses the process arguments.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed flag values — these are
    /// operator errors in harness invocations.
    pub fn parse() -> Self {
        Self::from_args(std::env::args().skip(1))
    }

    /// Parses an explicit argument list (testable core of
    /// [`BenchArgs::parse`]).
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed flag values.
    pub fn from_args(args: impl Iterator<Item = String>) -> Self {
        let mut parsed = Self::default();
        let mut args = args;
        while let Some(a) = args.next() {
            let mut value_of = |inline: Option<&str>, flag: &str| -> String {
                match inline {
                    Some(v) => v.to_string(),
                    None => args
                        .next()
                        .unwrap_or_else(|| panic!("{flag} expects a value")),
                }
            };
            if a == "--jobs" || a.starts_with("--jobs=") {
                let v = value_of(a.strip_prefix("--jobs="), "--jobs");
                parsed.jobs = v
                    .parse()
                    .unwrap_or_else(|_| panic!("--jobs expects a number, got {v:?}"));
            } else if a == "--method" || a.starts_with("--method=") {
                let v = value_of(a.strip_prefix("--method="), "--method");
                parsed.method = match v.as_str() {
                    "fast" => MethodFilter::Fast,
                    "hough" | "baseline" => MethodFilter::Hough,
                    "both" => MethodFilter::Both,
                    other => panic!("--method expects fast|hough|both, got {other:?}"),
                };
            } else if a == "--backend" || a.starts_with("--backend=") {
                parsed.backend = value_of(a.strip_prefix("--backend="), "--backend");
            } else if a == "--out" || a.starts_with("--out=") {
                let v = value_of(a.strip_prefix("--out="), "--out");
                assert!(!v.starts_with("--"), "--out expects a directory path");
                parsed.out = Some(PathBuf::from(v));
            } else {
                parsed.rest.push(a);
            }
        }
        parsed
    }

    /// The artifact directory: `--out` if given, else `default`.
    pub fn out_dir(&self, default: &str) -> PathBuf {
        self.out.clone().unwrap_or_else(|| PathBuf::from(default))
    }

    /// Resolves the `--backend` spec — see [`resolve_backend`].
    pub fn resolve_backend(&self) -> Arc<dyn SourceBackend> {
        resolve_backend(&self.backend)
    }

    /// Whether a bare flag (e.g. `--gate`) appears in the leftovers.
    pub fn has_flag(&self, flag: &str) -> bool {
        self.rest.iter().any(|a| a == flag)
    }

    /// The leftovers with bare flags removed — the binary's positionals.
    pub fn positionals(&self) -> Vec<&str> {
        self.rest
            .iter()
            .filter(|a| !a.starts_with("--"))
            .map(String::as_str)
            .collect()
    }
}

/// An artifact sink: writes named text artifacts under a directory
/// (created on first use). Used by the bench binaries' `--out` flag.
#[derive(Debug)]
pub struct Artifacts {
    dir: PathBuf,
}

impl Artifacts {
    /// An artifact sink rooted at `dir`.
    ///
    /// # Errors
    ///
    /// I/O errors creating the directory.
    pub fn at(dir: &Path) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        Ok(Self {
            dir: dir.to_path_buf(),
        })
    }

    /// The root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Writes one artifact, returning its path.
    ///
    /// # Errors
    ///
    /// I/O errors writing the file.
    pub fn write(&self, name: &str, content: &str) -> std::io::Result<PathBuf> {
        let path = self.dir.join(name);
        std::fs::write(&path, content)?;
        Ok(path)
    }
}

/// Prints each line to stdout and (optionally) buffers it, so a binary
/// can tee its human-readable output into an `--out` artifact.
#[derive(Debug)]
pub struct Tee {
    buf: String,
    enabled: bool,
}

impl Tee {
    /// A tee; buffering only happens when `enabled` (i.e. `--out` was
    /// given), so the common path allocates nothing.
    pub fn new(enabled: bool) -> Self {
        Self {
            buf: String::new(),
            enabled,
        }
    }

    /// Prints one line (and buffers it when enabled).
    pub fn line(&mut self, s: impl AsRef<str>) {
        let s = s.as_ref();
        println!("{s}");
        if self.enabled {
            self.buf.push_str(s);
            self.buf.push('\n');
        }
    }

    /// The buffered text so far.
    pub fn buffer(&self) -> &str {
        &self.buf
    }

    /// Takes the buffered text, leaving the tee empty.
    pub fn take(&mut self) -> String {
        std::mem::take(&mut self.buf)
    }
}

/// Formats a duration as seconds with two decimals (Table 1 style).
pub fn fmt_secs(d: std::time::Duration) -> String {
    format!("{:.2}s", d.as_secs_f64())
}

/// Renders an `f64` as a CSV cell: six decimals, or an empty cell for
/// non-finite values (hard failures report NaN alphas), so strict float
/// parsers never see a literal `NaN`. Shared by every artifact writer so
/// the machine-readable outputs stay consistent.
pub fn csv_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        String::new()
    }
}

/// Appends one newline-terminated CSV record to `out`, quoted per RFC
/// 4180: a field containing `,`, `"`, CR or LF is wrapped in double
/// quotes with every inner `"` doubled. Every artifact CSV goes through
/// it, so a field such as the backend spec `hwsim:nominal,xt=0.1` stays
/// one column.
pub fn push_csv_row<S: AsRef<str>>(out: &mut String, fields: &[S]) {
    for (i, field) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let field = field.as_ref();
        if field.contains([',', '"', '\r', '\n']) {
            out.push('"');
            out.push_str(&field.replace('"', "\"\""));
            out.push('"');
        } else {
            out.push_str(field);
        }
    }
    out.push('\n');
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Splits one RFC 4180 record (without its line ending) into fields.
    fn parse_csv_record(record: &str) -> Vec<String> {
        let mut fields = vec![String::new()];
        let mut quoted = false;
        let mut chars = record.chars().peekable();
        while let Some(c) = chars.next() {
            let field = fields.last_mut().expect("at least one field");
            match c {
                '"' if quoted && chars.peek() == Some(&'"') => {
                    chars.next();
                    field.push('"');
                }
                '"' => quoted = !quoted,
                ',' if !quoted => fields.push(String::new()),
                c => field.push(c),
            }
        }
        fields
    }

    #[test]
    fn csv_rows_round_trip_every_zoo_backend_spec() {
        let mut quoted = 0;
        for scenario in qd_dataset::default_zoo(qd_dataset::DEFAULT_ZOO_SEED) {
            // The 13 columns of `robustness_matrix.csv`; the spec is the
            // fifth.
            let mut fields: Vec<String> = (0..13).map(|i| format!("col{i}")).collect();
            fields[4] = scenario.backend.clone();
            let mut row = String::new();
            push_csv_row(&mut row, &fields);
            quoted += usize::from(row.contains('"'));
            let parsed = parse_csv_record(row.strip_suffix('\n').expect("newline-terminated"));
            assert_eq!(parsed.len(), 13, "{row}");
            assert_eq!(parsed[4], scenario.backend, "{row}");
        }
        assert!(
            quoted > 0,
            "the zoo has specs with knobs, which need quoting"
        );

        let hostile = ["a\"b", "x,y", "line\nbreak", "cr\r", ""];
        let mut row = String::new();
        push_csv_row(&mut row, &hostile);
        assert_eq!(row, "\"a\"\"b\",\"x,y\",\"line\nbreak\",\"cr\r\",\n");
        assert_eq!(parse_csv_record(row.strip_suffix('\n').unwrap()), hostile);
    }

    fn args(list: &[&str]) -> BenchArgs {
        BenchArgs::from_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_standard_flags() {
        let a = args(&[
            "--jobs",
            "4",
            "--method",
            "fast",
            "--out",
            "artifacts",
            "--gate",
            "60",
        ]);
        assert_eq!(a.jobs, 4);
        assert_eq!(a.method, MethodFilter::Fast);
        assert_eq!(a.out.as_deref(), Some(Path::new("artifacts")));
        assert!(a.has_flag("--gate"));
        assert_eq!(a.positionals(), vec!["60"]);
    }

    #[test]
    fn parses_inline_forms_and_defaults() {
        let a = args(&["--jobs=2", "--method=hough", "--out=x"]);
        assert_eq!(a.jobs, 2);
        assert_eq!(a.method, MethodFilter::Hough);
        assert_eq!(a.out.as_deref(), Some(Path::new("x")));

        let d = args(&["shrink"]);
        assert_eq!(d.jobs, 0);
        assert_eq!(d.method, MethodFilter::Both);
        assert_eq!(d.backend, "sim");
        assert!(d.out.is_none());
        assert_eq!(d.rest, vec!["shrink"]);
        assert_eq!(d.out_dir("target/artifacts"), Path::new("target/artifacts"));
    }

    #[test]
    fn parses_and_resolves_backend_specs() {
        let a = args(&["--backend", "throttled:50us"]);
        assert_eq!(a.backend, "throttled:50us");
        assert_eq!(a.resolve_backend().describe(), "throttled:50us");
        let b = args(&["--backend=replay:tapes/{label}.tape"]);
        assert_eq!(b.resolve_backend().scheme(), "replay");
    }

    #[test]
    #[should_panic(expected = "--backend")]
    fn rejects_malformed_backend_specs() {
        let _ = args(&["--backend", "warp:9"]).resolve_backend();
    }

    #[test]
    fn method_filter_selects_extractors() {
        assert_eq!(MethodFilter::Both.extractors().len(), 2);
        let fast = MethodFilter::Fast.extractors();
        assert_eq!(fast.len(), 1);
        assert_eq!(fast[0].method(), Method::FastExtraction);
        let hough = MethodFilter::Hough.extractors();
        assert_eq!(hough[0].method(), Method::HoughBaseline);
    }

    #[test]
    #[should_panic(expected = "--method expects")]
    fn rejects_unknown_method() {
        let _ = args(&["--method", "slow"]);
    }
}
