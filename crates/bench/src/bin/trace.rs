//! `fastvg-trace` — merges span export files from the client, router
//! and daemons into end-to-end waterfalls and validates trace
//! connectivity.
//!
//! ```sh
//! # Print the 3 slowest waterfalls of a run's span files:
//! fastvg-trace client.jsonl router.jsonl shard0.jsonl shard1.jsonl
//! # Gate a fleet run's trace files (CI trace-smoke):
//! fastvg-trace --gate client.jsonl router.jsonl shard0.jsonl shard1.jsonl
//! ```
//!
//! Flags:
//!
//! * `FILE...` — newline-JSON span files (the `--trace-out` output of
//!   `fastvg-serve`, `fastvg-router` and `fastvg-loadgen`, or a traced
//!   `fastvg-perf` run's `runs/*.jsonl`), merged into one span set
//!   before grouping by trace id.
//! * `--gate` — exit non-zero unless the files hold at least one trace
//!   and every trace is a *connected single-root waterfall*: exactly
//!   one root span (no parent) and zero orphans (every parent id
//!   resolves inside the trace).
//! * `--top N` — print the N slowest waterfalls (default 3; `0`
//!   silences them).
//!
//! Per-layer latency numbers come from `fastvg-perf --trace 1`. See
//! `docs/OBSERVABILITY.md` for the span schema and how to read a
//! waterfall.

use fastvg_wire::Json;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// One parsed span line.
#[derive(Debug, Clone)]
struct SpanRec {
    trace: u64,
    span: u64,
    parent: Option<u64>,
    layer: String,
    name: String,
    start_us: u64,
    dur_us: u64,
    attrs: BTreeMap<String, String>,
}

fn parse_hex(value: &Json) -> Option<u64> {
    u64::from_str_radix(value.as_str()?, 16).ok()
}

/// Parses one span line of the `fastvg-obs` export schema.
fn parse_span(line: &str) -> Option<SpanRec> {
    let doc = Json::parse(line.trim()).ok()?;
    Some(SpanRec {
        trace: parse_hex(doc.get("trace")?)?,
        span: parse_hex(doc.get("span")?)?,
        parent: match doc.get("parent") {
            None | Some(Json::Null) => None,
            Some(p) => Some(parse_hex(p)?),
        },
        layer: doc.get("layer")?.as_str()?.to_string(),
        name: doc.get("name")?.as_str()?.to_string(),
        start_us: doc.get("start_us")?.as_u64()?,
        dur_us: doc.get("dur_us")?.as_u64()?,
        attrs: doc
            .get("attrs")
            .and_then(Json::as_obj)
            .map(|obj| {
                obj.iter()
                    .filter_map(|(k, v)| Some((k.clone(), v.as_str()?.to_string())))
                    .collect()
            })
            .unwrap_or_default(),
    })
}

/// Reads every file and groups spans by trace id. Exits non-zero on a
/// malformed line — a trace file that does not parse is itself a bug.
fn load_traces(files: &[PathBuf]) -> BTreeMap<u64, Vec<SpanRec>> {
    let mut traces: BTreeMap<u64, Vec<SpanRec>> = BTreeMap::new();
    for file in files {
        let text = std::fs::read_to_string(file)
            .unwrap_or_else(|e| panic!("read {}: {e}", file.display()));
        for (number, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let span = parse_span(line).unwrap_or_else(|| {
                eprintln!("{}:{}: malformed span line", file.display(), number + 1);
                std::process::exit(2);
            });
            traces.entry(span.trace).or_default().push(span);
        }
    }
    traces
}

/// Connectivity report for one trace.
#[derive(Debug)]
struct Connectivity {
    roots: usize,
    orphans: usize,
}

fn connectivity(spans: &[SpanRec]) -> Connectivity {
    let ids: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.span).collect();
    let roots = spans.iter().filter(|s| s.parent.is_none()).count();
    let orphans = spans
        .iter()
        .filter(|s| s.parent.is_some_and(|p| !ids.contains(&p)))
        .count();
    Connectivity { roots, orphans }
}

/// `--gate`: there must be a trace, and every trace must be a
/// single-root, zero-orphan waterfall.
fn gate(traces: &BTreeMap<u64, Vec<SpanRec>>) -> bool {
    if traces.is_empty() {
        eprintln!("gate: no traces in the span files; no process exported a span");
        return false;
    }
    let mut ok = true;
    for (trace, spans) in traces {
        let c = connectivity(spans);
        if c.roots != 1 || c.orphans != 0 {
            eprintln!(
                "gate: trace {trace:016x} is not a connected waterfall \
                 ({} roots, {} orphans, {} spans)",
                c.roots,
                c.orphans,
                spans.len()
            );
            ok = false;
        }
    }
    if ok {
        println!(
            "gate: {} trace(s), every one a connected single-root waterfall",
            traces.len()
        );
    }
    ok
}

/// Prints one trace as an indented waterfall, children ordered by
/// start time.
fn print_waterfall(spans: &[SpanRec]) {
    let mut children: BTreeMap<u64, Vec<&SpanRec>> = BTreeMap::new();
    let ids: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.span).collect();
    let mut roots: Vec<&SpanRec> = Vec::new();
    for span in spans {
        match span.parent {
            Some(p) if ids.contains(&p) => children.entry(p).or_default().push(span),
            _ => roots.push(span),
        }
    }
    for list in children.values_mut() {
        list.sort_by_key(|s| s.start_us);
    }
    roots.sort_by_key(|s| s.start_us);

    fn render(span: &SpanRec, depth: usize, children: &BTreeMap<u64, Vec<&SpanRec>>) {
        let attrs: Vec<String> = span.attrs.iter().map(|(k, v)| format!("{k}={v}")).collect();
        println!(
            "  {:indent$}[{:<6}] {:<14} {:>9.3}ms  {}",
            "",
            span.layer,
            span.name,
            span.dur_us as f64 / 1e3,
            attrs.join(" "),
            indent = depth * 2
        );
        for child in children.get(&span.span).map(Vec::as_slice).unwrap_or(&[]) {
            render(child, depth + 1, children);
        }
    }
    for root in roots {
        render(root, 0, &children);
    }
}

fn print_top(traces: &BTreeMap<u64, Vec<SpanRec>>, top: usize) {
    let mut slowest: Vec<(&u64, &Vec<SpanRec>)> = traces.iter().collect();
    slowest.sort_by_key(|(_, spans)| {
        std::cmp::Reverse(
            spans
                .iter()
                .filter(|s| s.parent.is_none())
                .map(|s| s.dur_us)
                .max()
                .unwrap_or(0),
        )
    });
    for (trace, spans) in slowest.into_iter().take(top) {
        let total = spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.dur_us)
            .max()
            .unwrap_or(0);
        println!(
            "trace {trace:016x}: {:.3}ms, {} spans",
            total as f64 / 1e3,
            spans.len()
        );
        print_waterfall(spans);
    }
}

fn main() {
    let mut files: Vec<PathBuf> = Vec::new();
    let mut do_gate = false;
    let mut top = 3usize;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--gate" => do_gate = true,
            "--top" => {
                top = args
                    .next()
                    .and_then(|n| n.parse().ok())
                    .expect("--top expects N")
            }
            other if other.starts_with("--") => panic!("unknown flag {other:?}"),
            file => files.push(file.into()),
        }
    }

    assert!(!files.is_empty(), "pass span files; see the crate docs");
    let traces = load_traces(&files);
    println!(
        "{} span file(s), {} trace(s), {} span(s)",
        files.len(),
        traces.len(),
        traces.values().map(Vec::len).sum::<usize>()
    );
    print_top(&traces, top);
    if do_gate && !gate(&traces) {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_rejects_an_empty_span_set() {
        assert!(!gate(&BTreeMap::new()), "zero traces must fail the gate");
        // One root span is the smallest set that passes.
        let root = parse_span(
            r#"{"trace":"0000000000000001","span":"0000000000000002","parent":null,
                "layer":"client","name":"request","start_us":1,"dur_us":2}"#,
        )
        .expect("span line parses");
        assert!(gate(&BTreeMap::from([(root.trace, vec![root])])));
    }
}
