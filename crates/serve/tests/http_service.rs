//! End-to-end tests of the daemon over real sockets: protocol shapes,
//! cache-hit byte-identity, async job polling, inline grids, request
//! hardening, metrics, and graceful shutdown.

use fastvg_serve::{start, Client, ServeConfig, ServiceHandle};
use fastvg_wire::Json;
use std::time::Duration;

fn boot() -> ServiceHandle {
    boot_with(|_| {})
}

fn boot_with(tweak: impl FnOnce(&mut ServeConfig)) -> ServiceHandle {
    let mut config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        extract_jobs: 2,
        ..ServeConfig::default()
    };
    tweak(&mut config);
    start(config).expect("daemon boots on an ephemeral port")
}

fn connect(daemon: &ServiceHandle) -> Client {
    Client::connect(&daemon.addr().to_string()).expect("connect")
}

#[test]
fn cache_hits_are_byte_identical_to_cold_runs() {
    let daemon = boot();
    let mut client = connect(&daemon);

    // Cold run: computed on the pool, cached on the way out.
    let cold = client
        .post("/extract?wait", br#"{"benchmark": 4, "method": "fast"}"#)
        .unwrap();
    assert_eq!(cold.status, 200);
    assert_eq!(cold.header("x-fastvg-cache"), Some("miss"));
    assert_eq!(cold.header("x-fastvg-status"), Some("done"));
    let cold_doc = cold.json().unwrap();
    assert_eq!(cold_doc.get("ok").and_then(Json::as_bool), Some(true));
    let report = cold_doc.get("report").expect("report payload");
    assert_eq!(report.get("method").and_then(Json::as_str), Some("fast"));

    // Hit: exact same bytes, flagged as a hit.
    let hit = client
        .post("/extract?wait", br#"{"benchmark": 4, "method": "fast"}"#)
        .unwrap();
    assert_eq!(hit.status, 200);
    assert_eq!(hit.header("x-fastvg-cache"), Some("hit"));
    assert_eq!(hit.header("x-fastvg-status"), Some("done"));
    assert_eq!(hit.body, cold.body, "cache must replay stored bytes");

    // Semantically equal spellings share the entry: the full paper spec
    // for benchmark 4 fingerprints like {"benchmark": 4}.
    let spec = qd_dataset::paper_specs()
        .into_iter()
        .find(|s| s.index == 4)
        .unwrap()
        .to_json()
        .dump();
    let spelled = client
        .post(
            "/extract?wait",
            format!("{{\"spec\": {spec}, \"method\": \"fast\"}}").as_bytes(),
        )
        .unwrap();
    assert_eq!(spelled.header("x-fastvg-cache"), Some("hit"));
    assert_eq!(spelled.body, cold.body);

    // A different method is a different entry.
    let tuned = client
        .post("/extract?wait", br#"{"benchmark": 4, "method": "tuned"}"#)
        .unwrap();
    assert_eq!(tuned.header("x-fastvg-cache"), Some("miss"));

    let metrics = daemon.service().metrics();
    assert_eq!(metrics.cache_hits.get(), 2);
    assert_eq!(metrics.cache_misses.get(), 2);

    daemon.shutdown();
    daemon.join();
}

#[test]
fn async_submit_then_poll() {
    let daemon = boot();
    let mut client = connect(&daemon);

    let accepted = client.post("/extract", br#"{"benchmark": 3}"#).unwrap();
    assert_eq!(accepted.status, 202);
    let doc = accepted.json().unwrap();
    let id = doc.get("job").and_then(Json::as_u64).expect("job id");
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("queued"));

    // Poll until done.
    let mut result = None;
    for _ in 0..200 {
        let polled = client.get(&format!("/jobs/{id}")).unwrap();
        assert_eq!(polled.status, 200);
        let doc = polled.json().unwrap();
        match doc.get("status").and_then(Json::as_str) {
            Some("queued" | "running") => {
                std::thread::sleep(Duration::from_millis(25));
            }
            _ => {
                result = Some((polled, doc));
                break;
            }
        }
    }
    let (polled, doc) = result.expect("job finishes");
    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(polled.header("x-fastvg-cache"), Some("miss"));

    // The wire report parses back into the unified type.
    let report = fastvg_core::api::ExtractionReport::from_json(doc.get("report").unwrap()).unwrap();
    assert!(report.slope_v < -1.0);
    assert!(!report.stages.is_empty());

    // A waiting request for the same scenario replays those exact bytes.
    let waited = client
        .post("/extract?wait", br#"{"benchmark": 3}"#)
        .unwrap();
    assert_eq!(waited.header("x-fastvg-cache"), Some("hit"));
    assert_eq!(waited.body, polled.body);

    daemon.shutdown();
    daemon.join();
}

#[test]
fn inline_grids_and_custom_specs_extract() {
    let daemon = boot();
    let mut client = connect(&daemon);

    // A clean synthetic double-dot diagram, inlined as a grid.
    let size = 64usize;
    let mut data = Vec::with_capacity(size * size);
    for y in 0..size {
        for x in 0..size {
            let (v1, v2) = (x as f64, y as f64);
            let mut current = 8.0 - 0.002 * (v1 + v2);
            if v2 > -4.0 * (v1 - 0.62 * size as f64) {
                current -= 1.0;
            }
            if v2 > 0.58 * size as f64 - 0.3 * v1 {
                current -= 0.8;
            }
            data.push(format!("{current:.6}"));
        }
    }
    let body = format!(
        "{{\"grid\": {{\"x0\": 0, \"y0\": 0, \"delta\": 1, \"width\": {size}, \"height\": {size}, \"data\": [{}]}}}}",
        data.join(",")
    );
    let response = client.post("/extract?wait", body.as_bytes()).unwrap();
    assert_eq!(response.status, 200, "{:?}", response.json());
    let doc = response.json().unwrap();
    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));

    // Same grid, different whitespace → same cache entry.
    let respaced = body.replace(", ", ",  ");
    let hit = client.post("/extract?wait", respaced.as_bytes()).unwrap();
    assert_eq!(hit.header("x-fastvg-cache"), Some("hit"));
    assert_eq!(hit.body, response.body);

    // A custom spec request with an explicit seed replays bit-identically
    // across two *different* daemons (per-job seeds, not server state).
    let spec_body = br#"{"spec": {"size": 63, "seed": 424242}, "method": "fast"}"#;
    let first = client.post("/extract?wait", spec_body).unwrap();
    assert_eq!(first.header("x-fastvg-cache"), Some("miss"));
    let parse_slopes = |response: &fastvg_serve::ClientResponse| {
        let doc = response.json().unwrap();
        let report = doc.get("report").expect("report").clone();
        (
            report.get("slope_h").and_then(Json::as_f64).unwrap(),
            report.get("slope_v").and_then(Json::as_f64).unwrap(),
            report.get("probes").and_then(Json::as_u64).unwrap(),
        )
    };
    let other_daemon = boot();
    let mut other_client = connect(&other_daemon);
    let second = other_client.post("/extract?wait", spec_body).unwrap();
    assert_eq!(second.header("x-fastvg-cache"), Some("miss"));
    let (h1, v1, p1) = parse_slopes(&first);
    let (h2, v2, p2) = parse_slopes(&second);
    assert_eq!(
        h1.to_bits(),
        h2.to_bits(),
        "seeded replays are bit-identical"
    );
    assert_eq!(v1.to_bits(), v2.to_bits());
    assert_eq!(p1, p2);
    other_daemon.shutdown();
    other_daemon.join();

    daemon.shutdown();
    daemon.join();
}

#[test]
fn extraction_failures_carry_the_taxonomy() {
    let daemon = boot();
    let mut client = connect(&daemon);

    // A featureless diagram (constant current) cannot contain transition
    // lines: extraction must fail deterministically, with a category.
    let flat = format!(
        "{{\"grid\": {{\"x0\": 0, \"y0\": 0, \"delta\": 1, \"width\": 64, \"height\": 64, \"data\": [{}]}}}}",
        vec!["1.0"; 64 * 64].join(",")
    );
    let response = client.post("/extract?wait", flat.as_bytes()).unwrap();
    assert_eq!(response.status, 200, "failures are results, not 5xx");
    assert_eq!(response.header("x-fastvg-status"), Some("failed"));
    let doc = response.json().unwrap();
    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
    let error = doc.get("error").expect("error payload");
    let failure = fastvg_core::WireFailure::from_json(error).expect("taxonomy category");
    assert!(!failure.message.is_empty());

    // Failures are cached like results.
    let again = client.post("/extract?wait", flat.as_bytes()).unwrap();
    assert_eq!(again.header("x-fastvg-cache"), Some("hit"));
    assert_eq!(
        again.header("x-fastvg-status"),
        Some("failed"),
        "cached failures keep their structural outcome flag"
    );
    assert_eq!(again.body, response.body);

    daemon.shutdown();
    daemon.join();
}

#[test]
fn malformed_requests_are_rejected_not_crashed() {
    let daemon = boot();
    let mut client = connect(&daemon);

    let cases: &[(&[u8], u16)] = &[
        (b"not json", 400),
        (b"[]", 400),
        (b"{}", 400),
        (br#"{"benchmark": 13}"#, 400),
        (br#"{"benchmark": 0}"#, 400),
        (br#"{"benchmark": 3, "spec": {"size": 64}}"#, 400),
        (br#"{"benchmark": 3, "method": "slow"}"#, 400),
        (br#"{"spec": {"size": 4096}}"#, 400),
        (
            br#"{"grid": {"width": 8, "height": 8, "x0": 0, "y0": 0, "delta": 1, "data": [1]}}"#,
            400,
        ),
        (br#"{"grid": {"width": 8}, "seed": 1}"#, 400),
    ];
    for (body, expected) in cases {
        let response = client.post("/extract?wait", body).unwrap();
        assert_eq!(
            response.status,
            *expected,
            "{}",
            String::from_utf8_lossy(body)
        );
        let doc = response.json().unwrap();
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            doc.get("error")
                .and_then(|e| e.get("category"))
                .and_then(Json::as_str),
            Some("request")
        );
    }

    // Unknown routes and methods.
    assert_eq!(client.get("/nope").unwrap().status, 404);
    assert_eq!(client.get("/extract").unwrap().status, 405);
    assert_eq!(client.post("/healthz", b"").unwrap().status, 405);
    assert_eq!(client.get("/jobs/abc").unwrap().status, 400);
    assert_eq!(client.get("/jobs/999999").unwrap().status, 404);

    // The connection survived all of that (keep-alive), and the daemon
    // still serves.
    let ok = client
        .post("/extract?wait", br#"{"benchmark": 5}"#)
        .unwrap();
    assert_eq!(ok.status, 200);

    daemon.shutdown();
    daemon.join();
}

#[test]
fn oversized_bodies_get_413() {
    let daemon = boot_with(|config| config.max_body_bytes = 1024);
    let mut client = connect(&daemon);
    let big = format!(
        "{{\"grid\": {{\"width\": 8, \"height\": 8, \"x0\": 0, \"y0\": 0, \"delta\": 1, \"data\": [{}]}}}}",
        vec!["1.0"; 2000].join(",")
    );
    let response = client.post("/extract", big.as_bytes()).unwrap();
    assert_eq!(response.status, 413);
    daemon.shutdown();
    daemon.join();
}

#[test]
fn healthz_and_metrics_report_the_workload() {
    let daemon = boot();
    let mut client = connect(&daemon);

    let health = client.get("/healthz").unwrap();
    assert_eq!(health.status, 200);
    let doc = health.json().unwrap();
    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));

    let _ = client
        .post("/extract?wait", br#"{"benchmark": 8}"#)
        .unwrap();
    let _ = client
        .post("/extract?wait", br#"{"benchmark": 8}"#)
        .unwrap();

    let metrics = client.get("/metrics").unwrap();
    assert_eq!(metrics.status, 200);
    let text = String::from_utf8(metrics.body).unwrap();
    for needle in [
        "fastvg_requests_total{route=\"extract\"} 2",
        "fastvg_jobs_total{state=\"completed\"} 1",
        "fastvg_cache_requests_total{outcome=\"hit\"} 1",
        "fastvg_cache_requests_total{outcome=\"miss\"} 1",
        "fastvg_request_latency_seconds_count 2",
        "fastvg_stage_latency_seconds_bucket{stage=\"anchors\"",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }

    daemon.shutdown();
    daemon.join();
}

#[test]
fn concurrent_connections_share_the_daemon() {
    let daemon = boot();
    let addr = daemon.addr().to_string();

    // Four clients fire distinct benchmarks concurrently; then all four
    // fire the same ones again and must see hits with identical bytes.
    let first_pass: Vec<Vec<u8>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|k| {
                let addr = addr.clone();
                scope.spawn(move || {
                    let mut client = Client::connect(&addr).unwrap();
                    let body = format!("{{\"benchmark\": {}}}", 3 + k);
                    let response = client.post("/extract?wait", body.as_bytes()).unwrap();
                    assert_eq!(response.status, 200, "connection {k}");
                    assert_eq!(response.header("x-fastvg-cache"), Some("miss"));
                    response.body
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let second_pass: Vec<Vec<u8>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|k| {
                let addr = addr.clone();
                scope.spawn(move || {
                    let mut client = Client::connect(&addr).unwrap();
                    let body = format!("{{\"benchmark\": {}}}", 3 + k);
                    let response = client.post("/extract?wait", body.as_bytes()).unwrap();
                    assert_eq!(response.header("x-fastvg-cache"), Some("hit"));
                    response.body
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(first_pass, second_pass, "hits replay cold bytes");

    daemon.shutdown();
    daemon.join();
}

#[test]
fn shutdown_route_stops_the_daemon() {
    let daemon = boot();
    let mut client = connect(&daemon);
    let response = client.post("/shutdown", b"").unwrap();
    assert_eq!(response.status, 202);
    // join() returning proves the acceptor and workers drained.
    daemon.join();
}

/// The daemon-side fingerprint for an `/extract` body, computed through
/// the same [`fastvg_serve::ExtractParser`] the daemon (and the router)
/// use — tests never re-implement canonicalization.
fn fingerprint_of(body: &[u8]) -> (u64, String) {
    let parser = fastvg_serve::ExtractParser::new("sim").unwrap();
    let request = fastvg_serve::Request {
        method: "POST".into(),
        path: "/extract".into(),
        query: "wait".into(),
        headers: Vec::new(),
        body: body.to_vec(),
        read_us: 0,
    };
    let (job, _wait) = parser.parse(&request).expect("valid extract body");
    (job.fingerprint, job.canonical)
}

#[test]
fn cache_peering_serves_and_seeds_entries() {
    let warm = boot();
    let mut client = connect(&warm);
    let body = br#"{"benchmark": 6, "method": "fast"}"#;
    let (fp, canonical) = fingerprint_of(body);

    // Peer GET before any work: a miss, counted as such.
    let cold_probe = client.get(&format!("/cache/{fp}")).unwrap();
    assert_eq!(cold_probe.status, 404);

    let cold = client.post("/extract?wait", body).unwrap();
    assert_eq!(cold.status, 200);
    assert_eq!(cold.header("x-fastvg-cache"), Some("miss"));

    // Peer GET after: the stored bytes, framed exactly like a cache-hit
    // extract response so a router can relay it verbatim.
    let peek = client.get(&format!("/cache/{fp}")).unwrap();
    assert_eq!(peek.status, 200);
    assert_eq!(peek.header("x-fastvg-cache"), Some("hit"));
    assert_eq!(peek.header("x-fastvg-status"), Some("done"));
    assert_eq!(peek.body, cold.body, "peer reads replay stored bytes");

    // The verified form: canonical key in the body must match the entry.
    let verified = client
        .send("GET", &format!("/cache/{fp}"), canonical.as_bytes())
        .unwrap();
    assert_eq!(verified.status, 200);
    assert_eq!(verified.body, cold.body);
    let mismatched = client
        .send("GET", &format!("/cache/{fp}"), b"some other canonical key")
        .unwrap();
    assert_eq!(mismatched.status, 404, "collision-guard: wrong key misses");

    let metrics = warm.service().metrics();
    assert_eq!(metrics.cache_peer_hits.get(), 2);
    assert_eq!(metrics.cache_peer_misses.get(), 2);

    // Seed a second, empty daemon with the warm daemon's entry — the
    // router's PUT half of peering — and verify the seeded daemon now
    // answers the original request as a byte-identical cache hit.
    let empty = boot();
    let mut peer = connect(&empty);
    assert_eq!(peer.get(&format!("/cache/{fp}")).unwrap().status, 404);
    let seed = Json::object()
        .field("key", canonical.as_str())
        .field("ok", true)
        .field("body", String::from_utf8(cold.body.clone()).unwrap())
        .build()
        .dump();
    let put = peer.put(&format!("/cache/{fp}"), seed.as_bytes()).unwrap();
    assert_eq!(put.status, 200, "{}", String::from_utf8_lossy(&put.body));
    let hit = peer.post("/extract?wait", body).unwrap();
    assert_eq!(hit.status, 200);
    assert_eq!(hit.header("x-fastvg-cache"), Some("hit"));
    assert_eq!(hit.body, cold.body, "seeded entry is byte-identical");
    assert_eq!(empty.service().metrics().cache_seeds.get(), 1);

    // A fingerprint that does not hash the key is rejected, not stored.
    let bad = peer
        .put(&format!("/cache/{}", fp ^ 1), seed.as_bytes())
        .unwrap();
    assert_eq!(bad.status, 400);

    warm.shutdown();
    empty.shutdown();
    warm.join();
    empty.join();
}

#[test]
fn cache_peering_can_be_disabled() {
    let daemon = boot_with(|cfg| cfg.cache_peering = false);
    let mut client = connect(&daemon);
    assert_eq!(client.get("/cache/1").unwrap().status, 404);
    let put = client.put("/cache/1", b"{}").unwrap();
    assert_eq!(put.status, 404, "disabled peering hides the routes");
    let health = client.get("/healthz").unwrap().json().unwrap();
    assert_eq!(
        health.get("cache_peering").and_then(Json::as_bool),
        Some(false)
    );
    daemon.shutdown();
    daemon.join();
}

/// `body` with the value of every wall-clock field (`compute_time_ns`,
/// each stage's `elapsed_ns`) replaced by 0.
fn without_timing(body: &[u8]) -> String {
    let mut text = String::from_utf8(body.to_vec()).unwrap();
    for key in ["\"compute_time_ns\":", "\"elapsed_ns\":"] {
        let mut from = 0;
        while let Some(at) = text[from..].find(key) {
            let start = from + at + key.len();
            let len = text[start..]
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(text.len() - start);
            text.replace_range(start..start + len, "0");
            from = start;
        }
    }
    text
}

#[test]
fn a_recorded_spec_request_replays_to_the_same_result() {
    let dir = std::env::temp_dir().join(format!("fastvg-serve-tape-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let tape = dir.join("t.tape");
    let spec = qd_dataset::paper_specs()
        .into_iter()
        .find(|s| s.index == 6)
        .unwrap()
        .to_json()
        .dump();
    let body = format!("{{\"spec\": {spec}, \"method\": \"fast\"}}");
    let answer = |backend: String| {
        let daemon = boot_with(|cfg| cfg.backend = backend);
        let response = connect(&daemon)
            .post("/extract?wait", body.as_bytes())
            .unwrap();
        daemon.shutdown();
        daemon.join();
        assert_eq!(response.status, 200);
        assert_eq!(response.header("x-fastvg-cache"), Some("miss"));
        response.body
    };

    let recorded = answer(format!("record:{}", tape.display()));
    assert!(tape.exists(), "the record daemon wrote its tape");
    let replayed = answer(format!("replay:{}", tape.display()));
    let _ = std::fs::remove_dir_all(&dir);

    let doc = Json::parse(std::str::from_utf8(&recorded).unwrap().trim()).unwrap();
    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
    let masked = without_timing(&recorded);
    assert!(masked.contains("\"compute_time_ns\":0") && masked.contains("\"elapsed_ns\":0"));
    assert_eq!(masked, without_timing(&replayed));
}
