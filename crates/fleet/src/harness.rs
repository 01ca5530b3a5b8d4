//! The fleet replay harness: an open-loop, virtual-time load model over a
//! deterministic Zipfian workload.
//!
//! Requests are *scheduled* at a fixed rate on a virtual clock and driven
//! sequentially through the fleet; each shard is a single-server queue in
//! virtual time (a request starts at `max(shard free, scheduled)`), and
//! latency is measured from the **scheduled** send time — queueing delay is
//! charged to the fleet, never silently absorbed by a slow client, so the
//! percentiles are free of coordinated omission by construction. Because
//! the clock is virtual, a million-request run costs only as much wall time
//! as the cache misses it actually computes, and every number in the report
//! is byte-reproducible across runs, `--jobs` values, and machines.
//!
//! The energy ledger is the paper's static-energy argument at fleet scale:
//! every *live* shard burns the Table I static floor (~105 W) for every
//! virtual second of the run whether it serves or idles, while the dynamic
//! cost of actual compute rides on top at the Table II probe power (~10 W).
//! "Energy per million requests vs warm-shard count" falls straight out.

use greenness_platform::spec::HardwareSpec;
use greenness_trace::{fmt_f64, metrics_file_json, percentile_nearest_rank};

use crate::fleet::{ChurnEvent, Fleet, FleetConfig};
use crate::zipf::Zipf;

/// Router overhead per request, virtual seconds (hash + binary search).
const ROUTE_S: f64 = 2e-6;
/// Cache-hit service time: parse, probe, stream the payload.
const HIT_S: f64 = 20e-6;
/// Miss overhead on top of the op's own simulated compute seconds.
const MISS_OVERHEAD_S: f64 = 100e-6;
/// Service time of a structured error reply.
const ERR_S: f64 = 5e-6;
/// Cost of each reroute hop after an injected connection drop.
const REROUTE_S: f64 = 50e-6;
/// Dynamic power of active compute, watts — the paper's Table II I/O-probe
/// figure (~9% of the system total; the other ~91% is the static floor).
const DYNAMIC_W: f64 = 10.4;

/// Default key-universe size for the Zipfian workload. Small enough that
/// per-shard caches never evict at the default byte budget — the regime in
/// which the replay artifacts are byte-identical across shard counts.
pub const DEFAULT_UNIVERSE: usize = 256;
/// Default Zipf exponent (classic web-serving skew).
pub const DEFAULT_ZIPF_S: f64 = 1.1;
/// Default open-loop arrival rate, requests per virtual second.
pub const DEFAULT_RATE_RPS: f64 = 20_000.0;

/// The deterministic fleet workload: `n` request lines whose key popularity
/// is Zipf(`s`) over a `universe` of distinct parameter sets, drawn
/// statelessly from `seed`. Request ids are sequential; every other byte of
/// a request is a pure function of its drawn rank, so two requests with the
/// same rank share a cache key.
pub fn fleet_workload(n: usize, universe: usize, s: f64, seed: u64) -> Vec<String> {
    let zipf = Zipf::new(universe, s, seed);
    (0..n)
        .map(|i| {
            let rank = zipf.rank(i as u64);
            let body = match rank % 5 {
                0 => format!(
                    r#""op":"advisor","params":{{"pass_bytes":{},"passes":2,"pattern":"random"}}"#,
                    (rank + 1) * 1048576
                ),
                1 => format!(
                    r#""op":"advisor","params":{{"pattern":"sequential","passes":{},"min_keep_fraction":0.5}}"#,
                    rank % 20 + 1
                ),
                2 => format!(
                    r#""op":"whatif","params":{{"bytes":{}}}"#,
                    (rank + 1) * 1048576
                ),
                3 => format!(
                    r#""op":"run","params":{{"pipeline":"insitu","case":{}}}"#,
                    rank % 3 + 1
                ),
                _ => format!(r#""op":"compare","params":{{"case":{}}}"#, rank % 3 + 1),
            };
            format!(
                "{{\"schema\":\"{}\",\"id\":{i},{body}}}",
                greenness_serve::SCHEMA
            )
        })
        .collect()
}

/// Nearest-rank latency quantiles over raw samples, milliseconds.
struct LatencyQuantiles {
    count: usize,
    p50_ms: f64,
    p99_ms: f64,
    p999_ms: f64,
}

impl LatencyQuantiles {
    fn over(samples: &mut [f64]) -> LatencyQuantiles {
        samples.sort_by(f64::total_cmp);
        LatencyQuantiles {
            count: samples.len(),
            p50_ms: percentile_nearest_rank(samples, 0.50) * 1e3,
            p99_ms: percentile_nearest_rank(samples, 0.99) * 1e3,
            p999_ms: percentile_nearest_rank(samples, 0.999) * 1e3,
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"count\":{},\"p50_ms\":{},\"p99_ms\":{},\"p999_ms\":{}}}",
            self.count,
            fmt_f64(self.p50_ms),
            fmt_f64(self.p99_ms),
            fmt_f64(self.p999_ms)
        )
    }
}

/// Everything one fleet replay run produced.
pub struct FleetReplayOutput {
    /// All response lines, newline-terminated, in request order. Compared
    /// byte-for-byte across `--jobs` and across shard counts.
    pub responses: String,
    /// The router's `fleet.*` registry as a `greenness-metrics/v1` file —
    /// the second byte-compared artifact.
    pub fleet_metrics: String,
    /// Every shard's own registry (`shard/<id>` sections) — debug material,
    /// shard-count-dependent by construction, never byte-compared.
    pub shard_metrics: String,
    /// The open-loop latency/energy report (`greenness-fleet/v1` JSON).
    pub report: String,
    /// Reroute hops the router took around injected drops.
    pub reroutes: u64,
}

/// Drive `requests` through a fresh fleet on the open-loop virtual clock at
/// `rate_rps` and account latency and energy. Sequential by construction;
/// `config.jobs` only parallelizes inside shard `sweep` handlers and leaves
/// every output byte unchanged.
pub fn run_fleet_replay(
    config: FleetConfig,
    requests: &[String],
    rate_rps: f64,
) -> FleetReplayOutput {
    let rate = rate_rps.max(1e-9);
    let fleet = Fleet::new(config);
    let shards = config.shards as usize;

    let mut responses = String::with_capacity(requests.len() * 64);
    let mut free_at = vec![0.0f64; shards];
    let mut fleet_lat: Vec<f64> = Vec::with_capacity(requests.len());
    let mut shard_lat: Vec<Vec<f64>> = vec![Vec::new(); shards];
    // Energy ledger: virtual seconds each shard spent live, plus total
    // simulated compute seconds.
    let mut live_since = vec![Some(0.0f64); shards];
    let mut live_s = vec![0.0f64; shards];
    let mut compute_s = 0.0f64;
    let mut reroutes = 0u64;
    let mut last_finish = 0.0f64;

    for (i, request) in requests.iter().enumerate() {
        let scheduled = i as f64 / rate;
        let out = fleet.handle_line(request);
        responses.push_str(&out.line);
        responses.push('\n');
        reroutes += u64::from(out.reroutes);
        for event in &out.events {
            match *event {
                ChurnEvent::Lost(s) => {
                    let s = s as usize;
                    if let Some(since) = live_since[s].take() {
                        live_s[s] += scheduled - since;
                    }
                    // A lost shard's queue dies with it.
                    free_at[s] = scheduled;
                }
                ChurnEvent::Joined { shard: s, .. } => {
                    let s = s as usize;
                    if live_since[s].is_none() {
                        live_since[s] = Some(scheduled);
                    }
                    free_at[s] = free_at[s].max(scheduled);
                }
            }
        }
        let service_s = ROUTE_S
            + f64::from(out.reroutes) * REROUTE_S
            + match out.disposition {
                greenness_serve::Disposition::Hit => HIT_S,
                greenness_serve::Disposition::Miss => MISS_OVERHEAD_S + out.virtual_s,
                _ => ERR_S,
            };
        compute_s += out.virtual_s;
        let finish = match out.shard {
            Some(s) => {
                let s = s as usize;
                let start = free_at[s].max(scheduled);
                free_at[s] = start + service_s;
                let latency = free_at[s] - scheduled;
                shard_lat[s].push(latency);
                fleet_lat.push(latency);
                free_at[s]
            }
            None => {
                // Router-level replies (control, bad request) don't queue on
                // a shard and don't enter the latency ledger.
                scheduled + service_s
            }
        };
        last_finish = last_finish.max(finish);
    }

    let makespan = last_finish.max(requests.len() as f64 / rate);
    for (s, since) in live_since.iter().enumerate() {
        if let Some(since) = since {
            live_s[s] += makespan - since;
        }
    }

    let static_w = HardwareSpec::table1().static_w();
    let live_total_s: f64 = live_s.iter().sum();
    let static_j = live_total_s * static_w;
    let dynamic_j = compute_s * DYNAMIC_W;
    let total_j = static_j + dynamic_j;
    let n = requests.len().max(1) as f64;

    let mut latency = format!(
        "{{\"fleet\":{}",
        LatencyQuantiles::over(&mut fleet_lat).to_json()
    );
    for (s, lat) in shard_lat.iter_mut().enumerate() {
        latency.push_str(&format!(
            ",\"shard/{s}\":{}",
            LatencyQuantiles::over(lat).to_json()
        ));
    }
    latency.push('}');
    let report = format!(
        "{{\"schema\":\"greenness-fleet/v1\",\"requests\":{},\"shards\":{},\"replicas\":{},\"ring_seed\":{},\"rate_rps\":{},\"makespan_s\":{},\"latency\":{latency},\"energy\":{{\"static_w_per_shard\":{},\"dynamic_w\":{},\"live_shard_s\":{},\"compute_s\":{},\"static_j\":{},\"dynamic_j\":{},\"total_j\":{},\"j_per_million_requests\":{}}}}}",
        requests.len(),
        config.shards,
        config.replicas,
        config.ring_seed,
        fmt_f64(rate),
        fmt_f64(makespan),
        fmt_f64(static_w),
        fmt_f64(DYNAMIC_W),
        fmt_f64(live_total_s),
        fmt_f64(compute_s),
        fmt_f64(static_j),
        fmt_f64(dynamic_j),
        fmt_f64(total_j),
        fmt_f64(total_j / n * 1e6),
    );

    FleetReplayOutput {
        responses,
        fleet_metrics: metrics_file_json(&[("fleet".to_string(), fleet.metrics_clone())]),
        shard_metrics: metrics_file_json(&fleet.shard_metrics()),
        report,
        reroutes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_stateless_and_zipf_skewed() {
        let a = fleet_workload(100, 64, 1.1, 9);
        let b = fleet_workload(100, 64, 1.1, 9);
        assert_eq!(a, b);
        // Strip schema and id: the remaining op body is the cache-key
        // pre-image, and the hottest one must repeat — that's the skew.
        let bodies: Vec<&str> = a
            .iter()
            .map(|l| l.split_once(',').unwrap().1.split_once(',').unwrap().1)
            .collect();
        let mut counts = std::collections::HashMap::new();
        for b in &bodies {
            *counts.entry(*b).or_insert(0u32) += 1;
        }
        let max = counts.values().copied().max().unwrap();
        assert!(max >= 10, "hottest body repeated only {max}/100 times");
        let seeded = fleet_workload(100, 64, 1.1, 10);
        assert_ne!(a, seeded, "seed must change the draw");
    }

    #[test]
    fn replay_is_byte_identical_across_jobs() {
        let requests = fleet_workload(60, 32, 1.1, 42);
        let base = FleetConfig {
            jobs: 1,
            ..FleetConfig::default()
        };
        let a = run_fleet_replay(base, &requests, DEFAULT_RATE_RPS);
        let b = run_fleet_replay(FleetConfig { jobs: 8, ..base }, &requests, DEFAULT_RATE_RPS);
        assert_eq!(a.responses, b.responses);
        assert_eq!(a.fleet_metrics, b.fleet_metrics);
        assert_eq!(a.report, b.report, "virtual-time report must not see jobs");
    }

    #[test]
    fn report_carries_co_free_percentiles_and_energy() {
        let requests = fleet_workload(80, 16, 1.1, 7);
        let out = run_fleet_replay(FleetConfig::default(), &requests, 1000.0);
        for field in [
            "\"p50_ms\"",
            "\"p99_ms\"",
            "\"p999_ms\"",
            "\"shard/0\"",
            "\"shard/3\"",
            "\"j_per_million_requests\"",
            "\"static_j\"",
        ] {
            assert!(
                out.report.contains(field),
                "missing {field}:\n{}",
                out.report
            );
        }
        assert_eq!(out.responses.lines().count(), 80);
        assert!(out.responses.lines().all(|l| l.contains("\"ok\":true")));
    }

    #[test]
    fn the_report_parses_at_every_shard_count() {
        let requests = fleet_workload(20, 8, 1.1, 3);
        for shards in [0, 1, 3] {
            let out = run_fleet_replay(
                FleetConfig {
                    shards,
                    ..FleetConfig::default()
                },
                &requests,
                DEFAULT_RATE_RPS,
            );
            let report = greenness_trace::json::Json::parse(&out.report)
                .unwrap_or_else(|e| panic!("{shards} shard(s): {e}\n{}", out.report));
            let latency = report.get("latency").expect("a latency object");
            for s in 0..shards {
                assert!(latency.get(&format!("shard/{s}")).is_some(), "{shards}");
            }
        }
    }

    #[test]
    fn fewer_warm_shards_burn_less_static_energy() {
        // The paper's thesis at fleet scale: at fixed low load, energy per
        // request tracks the warm-shard count, because static watts
        // dominate compute. Cheap closed-form ops at a modest rate keep the
        // run schedule-dominated (makespan = n/rate for any shard count);
        // at saturation the ledger is work-conserving and this flattens.
        let requests: Vec<String> = (0..200)
            .map(|i| {
                format!(
                    "{{\"schema\":\"{}\",\"id\":{i},\"op\":\"advisor\",\"params\":{{\"passes\":{}}}}}",
                    greenness_serve::SCHEMA,
                    i % 16
                )
            })
            .collect();
        let j = |shards: u32| {
            let out = run_fleet_replay(
                FleetConfig {
                    shards,
                    ..FleetConfig::default()
                },
                &requests,
                DEFAULT_RATE_RPS,
            );
            let marker = "\"j_per_million_requests\":";
            let at = out.report.find(marker).expect("energy field") + marker.len();
            out.report[at..]
                .trim_end_matches(['}', '\n'])
                .parse::<f64>()
                .expect("parses")
        };
        let two = j(2);
        let eight = j(8);
        assert!(
            eight > two * 2.0,
            "8 warm shards ({eight} J/M) must cost far more than 2 ({two} J/M)"
        );
    }
}
