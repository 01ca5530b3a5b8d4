//! End-to-end coverage of the `greenness-serve` stack: every request type
//! over real TCP, warm-vs-cold byte identity, deterministic load shedding,
//! bounded wire-supplied sizes, graceful drain, and replay determinism
//! across `--jobs`.

use greenness_faults::FaultPlan;
use greenness_serve::json::Json;
use greenness_serve::{
    query, replay_workload, run_replay, Client, Server, Service, ServiceConfig, SCHEMA,
};

fn request(body: &str) -> String {
    format!("{{\"schema\":\"{SCHEMA}\",{body}}}")
}

fn parsed(line: &str) -> Json {
    Json::parse(line).unwrap_or_else(|e| panic!("response must parse ({e}): {line}"))
}

fn is_ok(doc: &Json) -> bool {
    doc.get("ok").and_then(Json::as_bool) == Some(true)
}

fn error_code(doc: &Json) -> String {
    doc.get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_str)
        .expect("error code present")
        .to_string()
}

#[test]
fn every_request_type_answers_over_tcp() {
    let server = Server::start("127.0.0.1:0", ServiceConfig::default()).expect("bind");
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");
    let bodies = [
        r#""id":1,"op":"run","params":{"pipeline":"insitu","case":1}"#,
        r#""id":2,"op":"compare","params":{"case":2}"#,
        r#""id":3,"op":"whatif","params":{"bytes":1073741824}"#,
        r#""id":4,"op":"advisor","params":{"pass_bytes":4294967296,"pattern":"random"}"#,
        r#""id":5,"op":"sweep","params":{"cases":[1,2]}"#,
    ];
    for (i, body) in bodies.iter().enumerate() {
        let line = client.roundtrip(&request(body)).expect("roundtrip");
        let doc = parsed(&line);
        assert!(is_ok(&doc), "request {body} failed: {line}");
        assert_eq!(doc.get("id").and_then(Json::as_u64), Some(i as u64 + 1));
    }
    // The sweep result carries the paper's headline direction: in-situ saves
    // energy on both cases.
    let sweep_line = client
        .roundtrip(&request(r#""id":6,"op":"sweep","params":{"cases":[1,2]}"#))
        .expect("roundtrip");
    let doc = parsed(&sweep_line);
    let comps = doc
        .get("result")
        .and_then(|r| r.get("comparisons"))
        .and_then(Json::as_arr)
        .expect("comparisons array");
    assert_eq!(comps.len(), 2);
    for c in comps {
        let savings = c
            .get("energy_savings_pct")
            .and_then(Json::as_f64)
            .expect("savings");
        assert!(savings > 0.0, "in-situ must save energy: {sweep_line}");
    }
    server.shutdown();
    server.join();
}

/// A wire-supplied resolution sizes a framebuffer, so it is bounded before
/// anything is computed from it: each oversized request gets exactly one
/// `bad_request` reply (the next reply read is the next request's, by id),
/// and the same connection and session keep working.
#[test]
fn oversized_steering_resolution_gets_one_error_reply_and_the_server_lives_on() {
    let server = Server::start("127.0.0.1:0", ServiceConfig::default()).expect("bind");
    let mut client = Client::connect(&server.addr().to_string()).expect("connect");
    let mut send = |id: u64, body: &str| {
        let line = client
            .roundtrip(&request(&format!(r#""id":{id},{body}"#)))
            .expect("one reply per line, connection still open");
        let doc = parsed(&line);
        assert_eq!(doc.get("id").and_then(Json::as_u64), Some(id), "{line}");
        doc
    };
    let attach = r#""op":"steer.attach","params":{"session":"w","interval":2,"timesteps":8}"#;
    assert!(is_ok(&send(1, attach)));
    let resolution = |width: u64, height: u64| {
        format!(
            r#""op":"steer.adjust","params":{{"session":"w","seq":1,"kind":"resolution","width":{width},"height":{height}}}"#
        )
    };
    // Over the 16 Mpx cap, then a product that overflows usize.
    assert_eq!(error_code(&send(2, &resolution(65536, 257))), "bad_request");
    assert_eq!(
        error_code(&send(3, &resolution(1 << 33, 1 << 33))),
        "bad_request"
    );
    assert!(is_ok(&send(4, &resolution(40, 30))));
    let render = r#""op":"steer.render","params":{"session":"w","seq":2,"steps":2}"#;
    assert!(is_ok(&send(5, render)));
    server.shutdown();
    server.join();
}

#[test]
fn warm_responses_are_byte_identical_and_hits_show_in_metrics() {
    let server = Server::start("127.0.0.1:0", ServiceConfig::default()).expect("bind");
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");
    let req = request(r#""id":42,"op":"compare","params":{"case":1}"#);
    let cold = client.roundtrip(&req).expect("cold");
    let warm = client.roundtrip(&req).expect("warm");
    assert_eq!(cold, warm, "warm response must be byte-identical to cold");
    // A retry with a different id and a deadline still hits (non-semantic
    // fields are stripped from the cache key) — only the echoed id differs.
    let retry = client
        .roundtrip(&request(
            r#""id":"retry","deadline_ms":5000,"op":"compare","params":{"case":1}"#,
        ))
        .expect("retry");
    let cold_doc = parsed(&cold);
    let retry_doc = parsed(&retry);
    assert_eq!(
        cold_doc.get("result").map(Json::to_string_raw),
        retry_doc.get("result").map(Json::to_string_raw)
    );
    let metrics = query(&addr, &request(r#""op":"metrics""#)).expect("metrics");
    let doc = parsed(&metrics);
    let counter = |name: &str| {
        doc.get("result")
            .and_then(|r| r.get("counters"))
            .and_then(|c| c.get(name))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    assert_eq!(counter("serve.cache.hits"), 2);
    assert_eq!(counter("serve.cache.misses"), 1);
    server.shutdown();
    server.join();
}

#[test]
fn load_is_shed_deterministically_when_slots_are_exhausted() {
    // Hold the only execution slot directly, so the shed path needs no
    // timing assumptions at all.
    let service = Service::new(ServiceConfig {
        slots: 1,
        queue_depth: 0,
        ..ServiceConfig::default()
    });
    let permit = service.gate().admit(None).expect("take the only slot");
    let shed = service.handle_line(&request(r#""id":1,"op":"run","params":{}"#));
    let doc = parsed(&shed.line());
    assert!(!is_ok(&doc));
    assert_eq!(error_code(&doc), "overloaded");
    drop(permit);
    let ok = service.handle_line(&request(r#""id":2,"op":"run","params":{}"#));
    assert!(is_ok(&parsed(&ok.line())), "freed slot must admit again");
}

#[test]
fn queued_requests_respect_their_deadline() {
    let service = Service::new(ServiceConfig {
        slots: 1,
        queue_depth: 4,
        ..ServiceConfig::default()
    });
    let _permit = service.gate().admit(None).expect("take the only slot");
    let out = service.handle_line(&request(
        r#""id":1,"deadline_ms":30,"op":"run","params":{}"#,
    ));
    let doc = parsed(&out.line());
    assert_eq!(error_code(&doc), "deadline_exceeded");
    let m = service.metrics_clone();
    assert_eq!(m.counter("serve.shed.deadline"), 1);
}

#[test]
fn draining_service_refuses_new_work_but_still_serves_cache_hits() {
    let service = Service::new(ServiceConfig::default());
    let req = request(r#""id":1,"op":"compare","params":{"case":3}"#);
    let cold = service.handle_line(&req);
    assert!(is_ok(&parsed(&cold.line())));
    service.gate().shutdown();
    // Warm request: answered from cache without touching the gate.
    let warm = service.handle_line(&req);
    assert_eq!(cold.line(), warm.line());
    // Cold request: turned away with the structured drain error.
    let fresh = service.handle_line(&request(r#""id":2,"op":"run","params":{"case":2}"#));
    assert_eq!(error_code(&parsed(&fresh.line())), "shutting_down");
}

#[test]
fn shutdown_op_drains_the_server_to_completion() {
    let server = Server::start("127.0.0.1:0", ServiceConfig::default()).expect("bind");
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");
    let ok = client
        .roundtrip(&request(r#""id":1,"op":"run","params":{}"#))
        .expect("work before drain");
    assert!(is_ok(&parsed(&ok)));
    let reply = client
        .roundtrip(&request(r#""id":2,"op":"shutdown""#))
        .expect("shutdown is acknowledged before the drain");
    assert!(is_ok(&parsed(&reply)));
    // join() returning proves the accept loop and all connection threads
    // exited; the test would hang here otherwise.
    server.join();
}

#[test]
fn dropped_connections_are_retried_transparently_over_tcp() {
    let server = Server::start(
        "127.0.0.1:0",
        ServiceConfig {
            faults: Some(FaultPlan::with_seed(3)),
            ..ServiceConfig::default()
        },
    )
    .expect("bind");
    let addr = server.addr().to_string();
    // What a reconnecting caller does: a dropped connection is redialled and
    // the request resent, a bounded number of times.
    let mut client = Client::connect(&addr).expect("connect");
    let mut drops = 0;
    for i in 0..25 {
        let line = request(&format!(r#""id":{i},"op":"advisor","params":{{}}"#));
        let reply = (0..8)
            .find_map(|_| match client.roundtrip(&line) {
                Ok(reply) => Some(reply),
                Err(_) => {
                    drops += 1;
                    client = Client::connect(&addr).expect("reconnect");
                    None
                }
            })
            .expect("a resend gets through within 8 attempts");
        assert!(is_ok(&parsed(&reply)), "{reply}");
    }
    assert!(drops > 0, "seed 3 must drop at least one connection");
    server.shutdown();
    server.join();
}

#[test]
fn replay_logs_and_metrics_are_schedule_independent() {
    let requests = replay_workload(15);
    let narrow = run_replay(
        ServiceConfig {
            jobs: 1,
            ..ServiceConfig::default()
        },
        &requests,
    );
    let wide = run_replay(
        ServiceConfig {
            jobs: 8,
            ..ServiceConfig::default()
        },
        &requests,
    );
    assert_eq!(narrow.responses, wide.responses);
    assert_eq!(narrow.metrics, wide.metrics);
    assert!(narrow.metrics.contains("greenness-metrics/v1"));
    assert!(narrow.metrics.contains("serve.virtual_s"));
}
