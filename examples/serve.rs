//! Boot the extraction daemon in-process, drive it like a remote client,
//! and read its telemetry — the serving path end to end.
//!
//! ```sh
//! cargo run --release --example serve
//! ```
//!
//! For a standalone daemon use the binary instead:
//! `cargo run --release -p fastvg-serve -- --addr 127.0.0.1:8737`
//! (protocol in `docs/PROTOCOL.md`).

use fastvg::prelude::*;
use fastvg::serve::{start, ServeConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // An ephemeral port keeps the example parallel-safe (CI runs every
    // example); a real deployment would pin addr and capacities. `start`
    // validates every field before binding — hostile values fail here.
    let daemon = start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        max_connections: 1024,
        idle_timeout: std::time::Duration::from_secs(10),
        ..ServeConfig::default()
    })?;
    println!("daemon listening on http://{}", daemon.addr());

    // ClientConfig is the unified transport policy (loadgen and
    // RemoteExtractor use the same one).
    let mut client = ClientConfig::new()
        .connect_timeout(std::time::Duration::from_secs(5))
        .connect(&daemon.addr().to_string())?;

    // Synchronous extraction: POST a scenario with ?wait and get the
    // newline-framed result document back.
    let cold = client.post("/extract?wait", br#"{"benchmark": 6, "method": "fast"}"#)?;
    let doc = cold.json()?;
    let report = ExtractionReport::from_json(doc.get("report").expect("report"))?;
    println!(
        "cold run : cache={} slopes=({:.3}, {:.3}) probes={} stages={}",
        cold.header("x-fastvg-cache").unwrap_or("?"),
        report.slope_h,
        report.slope_v,
        report.probes,
        report.stages.len(),
    );

    // The same request again is a cache hit — and byte-identical.
    let hot = client.post("/extract?wait", br#"{"benchmark": 6, "method": "fast"}"#)?;
    println!(
        "hot run  : cache={} byte-identical={}",
        hot.header("x-fastvg-cache").unwrap_or("?"),
        hot.body == cold.body,
    );
    assert_eq!(hot.body, cold.body);

    // Asynchronous flow: submit, poll /jobs/<id>.
    let accepted = client.post("/extract", br#"{"spec": {"size": 100, "seed": 99}}"#)?;
    let id = accepted
        .json()?
        .get("job")
        .and_then(Json::as_u64)
        .expect("job id");
    println!("submitted: job {id} (status {})", accepted.status);
    loop {
        let polled = client.get(&format!("/jobs/{id}"))?;
        let doc = polled.json()?;
        match doc.get("status").and_then(Json::as_str) {
            Some(state @ ("queued" | "running")) => {
                println!("polling  : job {id} is {state}");
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            _ => {
                println!(
                    "finished : job {id} ok={}",
                    doc.get("ok").and_then(Json::as_bool).unwrap_or(false)
                );
                break;
            }
        }
    }

    // The daemon as a drop-in extractor: a RemoteExtractor implements
    // the same object-safe Extractor trait as the local methods, so the
    // one-liner entry point (and the whole batch layer) drives it
    // unchanged — and its report matches the local run bit-for-bit.
    let bench = paper_benchmark(6)?;
    let remote = RemoteExtractor::new(daemon.addr().to_string());
    let mut session = MeasurementSession::new(CsdSource::new(bench.csd.clone()));
    let served = extract_with(&remote, &mut session)?;
    let mut session = MeasurementSession::new(CsdSource::new(bench.csd.clone()));
    let local = extract_with(&FastExtractor::new(), &mut session)?;
    println!(
        "remote   : slopes=({:.3}, {:.3}) probes={} — matches local: {}",
        served.slope_h,
        served.slope_v,
        served.probes,
        served.slope_h.to_bits() == local.slope_h.to_bits() && served.probes == local.probes,
    );
    assert_eq!(served.slope_v.to_bits(), local.slope_v.to_bits());

    // Telemetry: queue/cache counters and per-stage latency histograms.
    let metrics = client.get("/metrics")?;
    let text = String::from_utf8(metrics.body)?;
    for line in text.lines().filter(|l| {
        l.starts_with("fastvg_jobs_total")
            || l.starts_with("fastvg_cache_requests_total")
            || l.starts_with("fastvg_connections")
    }) {
        println!("metrics  : {line}");
    }

    daemon.shutdown();
    daemon.join();
    println!("daemon stopped cleanly");
    Ok(())
}
