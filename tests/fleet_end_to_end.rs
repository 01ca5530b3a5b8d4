//! End-to-end fleet tests: replay byte-identity across `--jobs` and shard
//! counts, chaos (churn + drops) over many seeds with the "no acked result
//! lost" guarantee, and failover inside the live router, unseen by a plain
//! client.

use std::sync::Arc;

use greenness_faults::FaultPlan;
use greenness_fleet::{fleet_workload, run_fleet_replay, Fleet, FleetConfig};
use greenness_serve::{Client, Server};

/// A response's identity, id stripped: everything from `"ok":` on. Two
/// requests for the same cache key must agree on this byte-for-byte no
/// matter which shard answered or when.
fn ack_body(line: &str) -> &str {
    let at = line.find("\"ok\":").expect("response has an ok field");
    &line[at..]
}

/// A request's cache identity: the line minus its `"id":<n>,` member (ids
/// never enter the content address).
fn request_key(line: &str) -> String {
    let start = line.find("\"id\":").expect("request has an id");
    let end = start + line[start..].find(',').expect("id is not last") + 1;
    format!("{}{}", &line[..start], &line[end..])
}

#[test]
fn fleet_replay_is_byte_identical_across_jobs_under_faults() {
    let requests = fleet_workload(120, 32, 1.1, 42);
    let base = FleetConfig {
        jobs: 1,
        faults: Some(FaultPlan::with_seed(7)),
        ..FleetConfig::default()
    };
    let a = run_fleet_replay(base, &requests, 20_000.0);
    let b = run_fleet_replay(FleetConfig { jobs: 8, ..base }, &requests, 20_000.0);
    assert_eq!(
        a.responses, b.responses,
        "jobs must not leak into responses"
    );
    assert_eq!(
        a.fleet_metrics, b.fleet_metrics,
        "jobs must not leak into metrics"
    );
    assert_eq!(a.report, b.report, "jobs must not leak into the report");
    assert_eq!(a.reroutes, b.reroutes);
    assert!(
        a.reroutes > 0,
        "seed 7 must drop at least one shard connection"
    );
}

/// The router hands each shard the `Request` it already parsed instead of
/// the line. A shard's fault slot is taken per request handled, not per
/// parse, so every shard must still see the same arrivals, hits and injected
/// drops: these counter blocks were recorded on the tree where shards parsed
/// for themselves (`bench-serve --replay --shards 4 --requests 400 --universe
/// 32 --ring-seed 7 --fault-seed 7 --shard-metrics-out`).
#[test]
fn shards_count_the_same_requests_hits_and_drops_as_when_they_parsed_their_own() {
    let out = run_fleet_replay(
        FleetConfig {
            jobs: 1,
            ring_seed: 7,
            faults: Some(FaultPlan::with_seed(7)),
            ..FleetConfig::default()
        },
        &fleet_workload(400, 32, 1.1, 7),
        20_000.0,
    );
    let recorded = [
        r#"{"faults.serve.conn":3,"faults.serve.handler":3,"serve.cache.hits":36,"serve.cache.misses":5,"serve.ok":5,"serve.requests":41}"#,
        r#"{"faults.serve.conn":2,"serve.cache.hits":4,"serve.cache.misses":4,"serve.ok":4,"serve.requests":8}"#,
        r#"{"faults.serve.conn":10,"faults.serve.handler":5,"serve.cache.hits":53,"serve.cache.misses":6,"serve.ok":6,"serve.requests":59}"#,
        r#"{"faults.serve.conn":9,"faults.serve.handler":4,"serve.cache.hits":41,"serve.cache.misses":6,"serve.ok":6,"serve.requests":47}"#,
    ];
    for (shard, counters) in recorded.iter().enumerate() {
        let block =
            format!("{{\"label\": \"shard/{shard}\", \"metrics\": {{\"counters\":{counters},");
        assert!(
            out.shard_metrics.contains(&block),
            "shard {shard}: want {counters} in\n{}",
            out.shard_metrics
        );
    }
}

#[test]
fn fleet_replay_is_byte_identical_across_shard_counts() {
    // The fault-free, eviction-free regime: same ring seed, same workload —
    // the response log and the router's fleet.* registry cannot see the
    // shard count. (Per-shard debug metrics and the report's per-shard
    // sections legitimately can.)
    let requests = fleet_workload(200, 64, 1.1, 42);
    let narrow = run_fleet_replay(
        FleetConfig {
            shards: 2,
            ..FleetConfig::default()
        },
        &requests,
        20_000.0,
    );
    let wide = run_fleet_replay(
        FleetConfig {
            shards: 4,
            ..FleetConfig::default()
        },
        &requests,
        20_000.0,
    );
    assert_eq!(
        narrow.responses, wide.responses,
        "shard count must not leak into responses"
    );
    assert_eq!(
        narrow.fleet_metrics, wide.fleet_metrics,
        "shard count must not leak into fleet metrics"
    );
}

#[test]
fn chaos_churn_loses_no_acked_result_over_many_seeds() {
    let mut any_lost = 0u64;
    for seed in 0..24u64 {
        let requests = fleet_workload(120, 24, 1.1, seed);
        let fleet = Fleet::new(FleetConfig {
            faults: Some(FaultPlan {
                // Churn hard enough that most seeds kill at least once.
                fleet_churn_rate: 0.10,
                ..FaultPlan::with_seed(seed)
            }),
            ..FleetConfig::default()
        });
        // First ack per cache key; every later ack must match it.
        let mut acked: std::collections::HashMap<String, String> = std::collections::HashMap::new();
        for request in &requests {
            let out = fleet.handle_line(request);
            if !out.line.contains("\"ok\":true") {
                continue;
            }
            let key = request_key(request);
            let body = ack_body(&out.line).to_string();
            if let Some(first) = acked.get(&key) {
                assert_eq!(
                    first, &body,
                    "seed {seed}: an acked result changed under churn for {key}"
                );
            } else {
                acked.insert(key, body);
            }
        }
        // Post-churn audit: every previously acked result is still
        // retrievable, byte-for-byte, through whatever topology survived.
        for (i, request) in requests.iter().enumerate() {
            let key = request_key(request);
            let Some(first) = acked.get(&key) else {
                continue;
            };
            let reask = request.replacen(
                &format!("\"id\":{i},"),
                &format!("\"id\":{},", 1_000_000 + i),
                1,
            );
            let out = fleet.handle_line(&reask);
            assert!(
                out.line.contains("\"ok\":true"),
                "seed {seed}: acked key no longer answers: {}",
                out.line
            );
            assert_eq!(
                first,
                ack_body(&out.line),
                "seed {seed}: acked result lost or changed after churn"
            );
        }
        let m = fleet.metrics_clone();
        any_lost += m.counter("fleet.shard.lost");
        // Accounting never double-counts: every routed request is exactly
        // one of ok / err.
        assert_eq!(
            m.counter("fleet.ok") + m.counter("fleet.err"),
            m.counter("fleet.requests"),
            "seed {seed}"
        );
    }
    assert!(
        any_lost > 0,
        "24 chaos seeds at churn 0.10 must kill at least one shard somewhere"
    );
}

#[test]
fn the_router_fails_over_for_one_plain_client_without_double_counting() {
    // Shard connections drop (seed 3 fires several), but churn is off so
    // the topology holds still; the router must absorb every drop by
    // rerouting to a replica. The client is one plain connection that never
    // redials, so a drop that reached it would fail its roundtrip; no error
    // is ever surfaced, and reroutes land under retries.* only.
    let fleet = Arc::new(Fleet::new(FleetConfig {
        faults: Some(FaultPlan {
            fleet_churn_rate: 0.0,
            serve_drop_rate: 0.25,
            ..FaultPlan::with_seed(3)
        }),
        ..FleetConfig::default()
    }));
    let server = Server::start_with_service("127.0.0.1:0", Arc::clone(&fleet)).expect("bind");
    let mut client = Client::connect(&server.addr().to_string()).expect("connect");
    for (i, request) in fleet_workload(40, 16, 1.1, 9).iter().enumerate() {
        let response = client
            .roundtrip(request)
            .unwrap_or_else(|e| panic!("request {i}: a drop reached the client: {e}"));
        assert!(
            response.contains("\"ok\":true"),
            "request {i} failed: {response}"
        );
    }
    let m = fleet.metrics_clone();
    assert!(
        m.counter("retries.fleet.reroute") > 0,
        "drop rate 0.25 over 40 requests must reroute at least once"
    );
    assert_eq!(m.counter("fleet.err"), 0, "reroutes are not errors");
    assert_eq!(
        m.counter("fleet.ok"),
        m.counter("fleet.requests"),
        "every request acked exactly once"
    );
    server.shutdown();
    server.join();
}
