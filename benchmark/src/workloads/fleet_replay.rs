//! `fleet_replay` — 100 000 Zipf(1.1) requests over 4096 keys through a
//! 4-shard, 2-replica in-process fleet (`run_fleet_replay`, no sockets,
//! no faults).
//!
//! Why: router, ring, hot-key replication, per-shard caches,
//! metrics/histograms and reply assembly at a few µs per request with ~1 %
//! compute — it bypasses everything `serve_loopback`'s wire path stresses
//! and everything `paper_grid` computes.

use std::time::Instant;

use greenness_fleet::{fleet_workload, run_fleet_replay, Fleet, FleetConfig, Ring, Zipf};
use greenness_serve::json::Json;
use greenness_serve::{Service, ServiceConfig};

use super::{digest_of, keep_going, Checks, Ctx, Iter, Untraced, Workload};
use crate::report::Values;
use crate::spans::Recorder;

const UNIVERSE: usize = 4096;
const ZIPF_S: f64 = 1.1;
/// Open-loop arrival rate on the harness's *virtual* clock.
const RATE_RPS: f64 = 2000.0;

#[derive(Default)]
pub struct FleetReplay {
    seed: u64,
    requests: Vec<String>,
}

fn config(seed: u64) -> FleetConfig {
    FleetConfig {
        shards: 4,
        replicas: 2,
        jobs: 1,
        ring_seed: seed,
        faults: None,
        ..FleetConfig::default()
    }
}

fn count_not_ok(responses: &str) -> (u64, u64) {
    let mut n = 0u64;
    let mut bad = 0u64;
    for line in responses.lines() {
        n += 1;
        if !line.contains("\"ok\":true") {
            bad += 1;
        }
    }
    (n, bad)
}

/// The harness report's *virtual* fleet p99 (ms) and joules per million
/// requests.
fn virtual_figures(report: &str) -> (f64, f64) {
    let report = Json::parse(report).expect("the fleet report is JSON");
    let number = |v: Option<&Json>| v.and_then(Json::as_f64).unwrap_or(0.0);
    let latency = report.get("latency").and_then(|l| l.get("fleet"));
    let energy = report.get("energy");
    (
        number(latency.and_then(|f| f.get("p99_ms"))),
        number(energy.and_then(|e| e.get("j_per_million_requests"))),
    )
}

impl Workload for FleetReplay {
    fn setup(&mut self, ctx: &Ctx) {
        let n = if ctx.smoke { 10_000 } else { 100_000 };
        self.seed = ctx.seed;
        self.requests = fleet_workload(n, UNIVERSE, ZIPF_S, ctx.seed);
        // Warm-up: a tenth of the stream through a fleet of its own.
        std::hint::black_box(run_fleet_replay(
            config(ctx.seed),
            &self.requests[..n / 10],
            RATE_RPS,
        ));
    }

    fn iterate(&mut self, checks: &mut Checks) -> Iter {
        let t = Instant::now();
        let output = run_fleet_replay(config(self.seed), &self.requests, RATE_RPS);
        let wall_s = t.elapsed().as_secs_f64();
        let (n, bad) = count_not_ok(&output.responses);
        checks.bulk(n, bad, "fleet replies without \"ok\":true");
        checks.check(n == self.requests.len() as u64, || {
            format!("{n} replies for {} requests", self.requests.len())
        });
        let (p99, j_per_mreq) = virtual_figures(&output.report);
        Iter {
            wall_s,
            items: n,
            items_s: wall_s,
            digest: digest_of(&[
                output.responses.as_bytes(),
                output.fleet_metrics.as_bytes(),
                output.report.as_bytes(),
            ]),
            note: format!(
                "virtual: p99 {p99} ms, {j_per_mreq} J per million requests; {} reply bytes",
                output.responses.len()
            ),
        }
    }

    fn traced(
        &mut self,
        ctx: &Ctx,
        baseline: &Untraced,
        rec: &mut Recorder,
        checks: &mut Checks,
        out: &mut Values,
    ) {
        // The virtual figures of the real harness run (exact, repeatable).
        let output = run_fleet_replay(config(self.seed), &self.requests, RATE_RPS);
        let (p99, j_per_mreq) = virtual_figures(&output.report);
        out.set("fleet.virtual_p99_ms", p99);
        out.set("fleet.j_per_mreq", j_per_mreq);
        out.set("fleet.reply_mb", output.responses.len() as f64 / 1e6);

        // The very same `Fleet::handle_line` calls, first bare, then one
        // span per request; the difference is the tracing overhead.
        let n = self.requests.len() as f64;
        let started = Instant::now();
        let (mut bare, mut traced) = (Vec::new(), Vec::new());
        let mut router_metrics = None;
        while keep_going(started, bare.len(), 2, ctx.seconds / 2.0) {
            let plain = Fleet::new(config(self.seed));
            let t = Instant::now();
            for request in &self.requests {
                std::hint::black_box(plain.handle_line(request));
            }
            bare.push(t.elapsed().as_secs_f64());

            let fleet = Fleet::new(config(self.seed));
            let it = rec.enter("iteration");
            let t = Instant::now();
            let mut bad = 0u64;
            for request in &self.requests {
                let id = rec.enter("fleet.handle");
                let outcome = fleet.handle_line(request);
                rec.exit(id);
                bad += u64::from(!outcome.line.contains("\"ok\":true"));
            }
            traced.push(t.elapsed().as_secs_f64());
            rec.exit(it);
            checks.bulk(
                self.requests.len() as u64,
                bad,
                "traced fleet replies not ok",
            );
            router_metrics = Some(fleet.metrics_clone());
        }
        let bare_s = crate::stats::median(&bare);
        let traced_s = crate::stats::median(&traced);
        out.set("bench.trace_overhead_share", (traced_s - bare_s) / bare_s);
        let handle_us = rec.totals()["fleet.handle"].total_s() / traced.len() as f64 / n * 1e6;
        out.set("fleet.handle_us", handle_us);
        println!(
            "fleet_replay: harness {:.3} s untraced; bare loop {bare_s:.3} s, traced loop {traced_s:.3} s ({} pair(s))",
            baseline.wall_s,
            bare.len()
        );

        let m = router_metrics.expect("at least one traced pass ran");
        let (hits, misses) = (m.counter("fleet.hits"), m.counter("fleet.misses"));
        out.set(
            "fleet.hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        out.set("fleet.hot_keys", m.counter("fleet.replica.fills") as f64);

        // The same lines through one bare `Service` with the fleet's total
        // cache budget: what the router, ring and replication add on top.
        let shard = FleetConfig::default();
        let service = Service::new(ServiceConfig {
            jobs: 1,
            cache_bytes: shard.cache_bytes * 4,
            slots: shard.slots,
            queue_depth: shard.queue_depth,
            faults: None,
            session_slots: shard.session_slots,
        });
        let t = Instant::now();
        for request in &self.requests {
            std::hint::black_box(service.handle_line(request));
        }
        let service_us = t.elapsed().as_secs_f64() / n * 1e6;
        out.set("fleet.self_us", bare_s / n * 1e6 - service_us);

        // Ring and Zipf in isolation.
        let ring = Ring::new(self.seed, 4, shard.vnodes);
        let keys: Vec<[u8; 8]> = (0..UNIVERSE as u64).map(u64::to_le_bytes).collect();
        const PASSES: usize = 50;
        let calls = (PASSES * keys.len()) as f64;
        let t = Instant::now();
        for _ in 0..PASSES {
            for key in &keys {
                std::hint::black_box(ring.route(key));
            }
        }
        out.set("fleet.route_ns", t.elapsed().as_nanos() as f64 / calls);
        let t = Instant::now();
        for _ in 0..PASSES {
            for key in &keys {
                std::hint::black_box(ring.replicas(key, 2));
            }
        }
        out.set("fleet.replicas_ns", t.elapsed().as_nanos() as f64 / calls);
        let zipf = Zipf::new(UNIVERSE, ZIPF_S, self.seed);
        let t = Instant::now();
        for i in 0..calls as u64 {
            std::hint::black_box(zipf.rank(i));
        }
        out.set("fleet.zipf_ns", t.elapsed().as_nanos() as f64 / calls);
    }
}
