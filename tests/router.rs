//! Tier-1 fleet smoke: a router over two daemons is indistinguishable
//! from a single daemon (bitwise on the deterministic report fields,
//! byte-identical on cache hits), survives a mid-suite shard kill with
//! zero failed requests, and peers warm caches onto freshly joined
//! shards in 2- and 4-shard fleets. (The ring/health/proxy unit matrix
//! lives in `crates/router`.)

use fastvg::prelude::*;
use fastvg::router::{start as start_router, RouterConfig, ShardSpec};
use fastvg::serve::{start as start_daemon, ClientResponse, ServeConfig, ServiceHandle};
use std::time::Duration;

fn daemon() -> ServiceHandle {
    start_daemon(ServeConfig {
        addr: "127.0.0.1:0".into(),
        extract_jobs: 2,
        ..ServeConfig::default()
    })
    .expect("daemon boots")
}

fn router_over(shards: &[&ServiceHandle]) -> fastvg::router::RouterHandle {
    start_router(RouterConfig {
        addr: "127.0.0.1:0".into(),
        shards: shards
            .iter()
            .map(|d| ShardSpec::new(d.addr().to_string()))
            .collect(),
        // Fast enough that the kill sweep ejects the dead shard within
        // the test, slow enough not to spam probe traffic.
        health_interval: Duration::from_millis(200),
        ..RouterConfig::default()
    })
    .expect("router boots")
}

fn sweep(client: &mut Client) -> Vec<ClientResponseLite> {
    (1..=12)
        .map(|bench| {
            let body = format!("{{\"benchmark\": {bench}, \"method\": \"fast\"}}");
            let response = client
                .post("/extract?wait", body.as_bytes())
                .unwrap_or_else(|e| panic!("benchmark {bench} through fleet: {e}"));
            assert_eq!(response.status, 200, "benchmark {bench} must be served");
            ClientResponseLite::of(&response)
        })
        .collect()
}

struct ClientResponseLite {
    cache: String,
    status: String,
    /// Index of the shard that answered: the low byte of the router's
    /// global job id (`local << 8 | shard`).
    shard: Option<u64>,
    body: Vec<u8>,
}

impl ClientResponseLite {
    fn of(response: &ClientResponse) -> Self {
        ClientResponseLite {
            cache: response.header("x-fastvg-cache").unwrap_or("?").to_string(),
            status: response
                .header("x-fastvg-status")
                .unwrap_or("?")
                .to_string(),
            shard: response
                .header("x-fastvg-job")
                .and_then(|gid| gid.parse::<u64>().ok())
                .map(|gid| gid & 0xff),
            body: response.body.clone(),
        }
    }
}

/// The deterministic slice of a result document: outcome plus (for
/// successes) the exact slope bits and probe count. Wall-clock timing
/// fields legitimately differ between runs, so raw-byte comparison is
/// only valid for cache-replayed bodies.
fn deterministic_fields(body: &[u8]) -> (bool, Option<(u64, u64, u64)>) {
    let doc = Json::parse(String::from_utf8_lossy(body).trim_end()).expect("result document");
    let ok = doc.get("ok").and_then(Json::as_bool).expect("ok flag");
    let report = doc.get("report").map(|r| {
        let report = ExtractionReport::from_json(r).expect("report parses");
        (
            report.slope_h.to_bits(),
            report.slope_v.to_bits(),
            report.probes as u64,
        )
    });
    (ok, report)
}

#[test]
fn router_matches_direct_daemon_and_survives_shard_kill() {
    let a = daemon();
    let b = daemon();
    let fleet = router_over(&[&a, &b]);
    let mut via_router = Client::connect(&fleet.addr().to_string()).expect("connect router");

    // The router speaks the daemon's own healthz dialect, aggregated.
    let health = via_router.get("/healthz").expect("healthz");
    assert_eq!(health.status, 200);
    let doc = health.json().unwrap();
    assert_eq!(doc.get("role").and_then(Json::as_str), Some("router"));
    assert_eq!(doc.get("shards_total").and_then(Json::as_u64), Some(2));
    assert_eq!(doc.get("shards_healthy").and_then(Json::as_u64), Some(2));

    // Cold sweep through the router ≡ a direct daemon, benchmark by
    // benchmark, on every deterministic field.
    let cold = sweep(&mut via_router);
    let direct_daemon = daemon();
    let mut direct = Client::connect(&direct_daemon.addr().to_string()).expect("connect direct");
    let reference = sweep(&mut direct);
    for (bench, (through, alone)) in cold.iter().zip(&reference).enumerate() {
        assert_eq!(
            deterministic_fields(&through.body),
            deterministic_fields(&alone.body),
            "benchmark {} differs through the router",
            bench + 1
        );
        assert_eq!(through.status, alone.status, "benchmark {}", bench + 1);
    }
    direct_daemon.shutdown();

    // Hot sweep: every request is a fleet cache hit, byte-identical.
    let hot = sweep(&mut via_router);
    for (bench, (h, c)) in hot.iter().zip(&cold).enumerate() {
        assert_eq!(h.cache, "hit", "benchmark {} should be warm", bench + 1);
        assert_eq!(
            h.body,
            c.body,
            "benchmark {} hot body must be byte-identical",
            bench + 1
        );
    }

    // Kill one shard mid-suite: the router must keep answering every
    // request (failover + recompute on the survivor), with zero failures.
    // The victim is the shard that owns most of benchmarks 4..=12, as the
    // cold answers' job ids show. It owns at least five of those nine
    // keys and each costs it two strikes (owner probe + proxy attempt),
    // so the sweep ejects it after its second key wherever the ring
    // (which depends on the ephemeral ports) placed them.
    let owned_by_b = cold[3..].iter().filter(|r| r.shard == Some(1)).count();
    let (victim, survivor) = if 2 * owned_by_b > cold[3..].len() {
        (b, a)
    } else {
        (a, b)
    };
    let mut victim = Some(victim);
    let mut killed = Vec::new();
    for bench in 1..=12 {
        if bench == 4 {
            let victim = victim.take().expect("the victim is killed once");
            victim.shutdown();
            victim.join();
        }
        let body = format!("{{\"benchmark\": {bench}, \"method\": \"fast\"}}");
        let response = via_router
            .post("/extract?wait", body.as_bytes())
            .unwrap_or_else(|e| panic!("benchmark {bench} during shard kill: {e}"));
        assert_eq!(
            response.status, 200,
            "benchmark {bench} failed during the shard kill"
        );
        killed.push(ClientResponseLite::of(&response));
    }
    for (bench, (k, c)) in killed.iter().zip(&cold).enumerate() {
        assert_eq!(
            deterministic_fields(&k.body),
            deterministic_fields(&c.body),
            "benchmark {} changed after the shard kill",
            bench + 1
        );
        assert_eq!(k.status, c.status, "benchmark {}", bench + 1);
    }

    // The fleet view reflects the loss; the router itself stays healthy.
    let health = via_router.get("/healthz").expect("healthz after kill");
    assert_eq!(health.status, 200);
    let doc = health.json().unwrap();
    assert_eq!(doc.get("shards_healthy").and_then(Json::as_u64), Some(1));

    // One more sweep consolidates every key onto the survivor: entries
    // that lived only in the victim's cache (hits served before the kill)
    // are recomputed and cached there. The survivor's cache now holds all
    // 12 bodies.
    let consolidated = sweep(&mut via_router);

    fleet.shutdown();
    fleet.join(); // returning proves workers, prober and reactor drained

    // Cache peering: resharding onto a fleet with a brand-new empty
    // shard serves warm keys from the sibling (header `peer`), with
    // bodies byte-identical to the warm shard's stored bytes, and seeds
    // the new owner so the *next* sweep hits locally everywhere.
    let fresh = daemon();
    let refleet = router_over(&[&survivor, &fresh]);
    let mut via_refleet = Client::connect(&refleet.addr().to_string()).expect("connect refleet");
    let peered = sweep(&mut via_refleet);
    let peer_count = peered.iter().filter(|r| r.cache == "peer").count();
    assert!(
        peer_count > 0,
        "resharding 12 keys onto a new shard must peer some of them, got {:?}",
        peered.iter().map(|r| r.cache.as_str()).collect::<Vec<_>>()
    );
    for (bench, r) in peered.iter().enumerate() {
        assert!(
            r.cache == "peer" || r.cache == "hit",
            "benchmark {} recomputed despite a warm sibling (cache={})",
            bench + 1,
            r.cache
        );
        // The survivor's cache holds exactly the consolidated bodies, so
        // every relayed answer — owner hit or peer — must match them
        // byte-for-byte.
        assert_eq!(
            r.body,
            consolidated[bench].body,
            "benchmark {} peered body must be byte-identical to the warm shard's bytes",
            bench + 1
        );
    }
    let sealed = sweep(&mut via_refleet);
    for (bench, r) in sealed.iter().enumerate() {
        assert_eq!(
            r.cache,
            "hit",
            "benchmark {} owner should be seeded after peering",
            bench + 1
        );
    }

    // Peer traffic is observable on the router's metrics surface.
    let metrics = via_refleet.get("/metrics").expect("metrics");
    let text = String::from_utf8(metrics.body).unwrap();
    assert!(
        text.contains("fastvg_router_routed_total{cache=\"peer\"}"),
        "router metrics must expose peer routing"
    );

    refleet.shutdown();
    refleet.join();
    survivor.shutdown();
    fresh.shutdown();
    survivor.join();
    fresh.join();
}

/// Peering in a 4-shard fleet: a daemon warmed through a 1-shard router
/// joins three empty daemons, listed last. The sibling sweep walks the
/// healthy shards in config order, so every key an empty shard owns is
/// found only after probing the two other cold siblings first.
#[test]
fn four_shard_fleet_peers_past_cold_siblings() {
    let warm = daemon();
    let warm_fleet = router_over(&[&warm]);
    let warmed = sweep(&mut Client::connect(&warm_fleet.addr().to_string()).expect("connect"));
    warm_fleet.shutdown();
    warm_fleet.join();

    let empty = [daemon(), daemon(), daemon()];
    let fleet = router_over(&[&empty[0], &empty[1], &empty[2], &warm]);
    let mut via_fleet = Client::connect(&fleet.addr().to_string()).expect("connect fleet");
    let peered = sweep(&mut via_fleet);
    for (bench, (p, w)) in peered.iter().zip(&warmed).enumerate() {
        assert!(
            p.cache == "hit" || p.cache == "peer",
            "benchmark {} recomputed despite a warm sibling (cache={})",
            bench + 1,
            p.cache
        );
        assert_eq!(
            p.body,
            w.body,
            "benchmark {} must replay the warm sweep's bytes",
            bench + 1
        );
    }
    assert!(
        peered.iter().any(|r| r.cache == "peer"),
        "three empty owners out of four must peer some of 12 keys"
    );
    let sealed = sweep(&mut via_fleet);
    for (bench, r) in sealed.iter().enumerate() {
        assert_eq!(r.cache, "hit", "benchmark {} owner not seeded", bench + 1);
    }

    fleet.shutdown();
    fleet.join();
    for d in empty.into_iter().chain([warm]) {
        d.shutdown();
        d.join();
    }
}
