//! The `bench-serve` load harness: a deterministic replay mode plus closed-
//! and open-loop live load generation.
//!
//! **Replay** (`--replay`) is the determinism anchor: a fixed request
//! sequence driven straight through an in-process [`Service`] on one
//! thread, producing a response log and a metrics snapshot that are
//! byte-identical across runs *and* across `--jobs` values (the sweep
//! executor guarantees value determinism; the service keeps every
//! schedule-dependent quantity — wall-clock latency above all — out of its
//! own registry, recording simulated `serve.virtual_s` instead).
//!
//! **Live** modes drive a running server over TCP. Closed-loop: each
//! connection fires its next request when the previous response lands —
//! measures service capacity. Open-loop: requests are launched on a fixed
//! schedule and latency is measured from the *scheduled* send time, so
//! queueing delay is charged to the server (no coordinated omission).

use std::time::Instant;

use greenness_trace::{metrics_file_json, percentile_nearest_rank};

use crate::client::RetryClient;
use crate::json::Json;
use crate::protocol::{self, ErrorCode, SCHEMA};
use crate::service::{Disposition, Service, ServiceConfig};

/// Retry budget the live harness gives each connection per request.
const LOAD_RETRY_BUDGET: u32 = 8;

/// The fixed request mix. Templates repeat as the workload cycles, so any
/// run longer than one cycle exercises the cache.
const TEMPLATES: &[&str] = &[
    r#""op":"run","params":{"pipeline":"post","case":1}"#,
    r#""op":"compare","params":{"case":1}"#,
    r#""op":"run","params":{"pipeline":"insitu","case":1}"#,
    r#""op":"advisor","params":{"pass_bytes":4294967296,"passes":2,"pattern":"random"}"#,
    r#""op":"compare","params":{"case":1}"#,
    r#""op":"whatif","params":{"bytes":1073741824}"#,
    r#""op":"run","params":{"pipeline":"post","case":1}"#,
    r#""op":"sweep","params":{"cases":[1,2]}"#,
    r#""op":"compare","params":{"case":2}"#,
    r#""op":"advisor","params":{"pattern":"sequential","passes":10,"min_keep_fraction":0.2}"#,
];

/// The deterministic benchmark workload: `n` request lines with sequential
/// ids over the cycling template mix.
pub fn replay_workload(n: usize) -> Vec<String> {
    (0..n)
        .map(|i| {
            format!(
                "{{\"schema\":\"{SCHEMA}\",\"id\":{i},{}}}",
                TEMPLATES[i % TEMPLATES.len()]
            )
        })
        .collect()
}

/// What one replay run produced.
pub struct ReplayOutput {
    /// All response lines, newline-terminated, in request order.
    pub responses: String,
    /// The service metrics as a `greenness-metrics/v1` file.
    pub metrics: String,
    /// The registry behind `metrics`, for callers that read counters.
    pub registry: greenness_trace::MetricsRegistry,
    /// Requests re-driven after an injected connection drop (0 without a
    /// fault schedule).
    pub retries: u64,
}

/// Drive `requests` sequentially through a fresh in-process service.
/// Single-threaded by construction (request side); `config.jobs` still
/// parallelizes inside `sweep` requests without affecting any output byte.
/// With a fault schedule in `config`, a dropped request is retried like a
/// reconnecting client would, so the response log converges to one line per
/// request and stays byte-identical for a fixed fault seed.
pub fn run_replay(config: ServiceConfig, requests: &[impl AsRef<str>]) -> ReplayOutput {
    let service = Service::new(config);
    let budget = config.faults.map_or(0, |plan| plan.max_retries);
    let mut responses = String::new();
    let mut retries = 0u64;
    for request in requests {
        let mut attempt = 0u32;
        let line = loop {
            let outcome = service.handle_line(request.as_ref());
            if outcome.disposition != Disposition::Dropped {
                break outcome.line();
            }
            if attempt >= budget {
                break protocol::error_line(
                    "null",
                    ErrorCode::Internal,
                    "connection dropped; retry budget exhausted",
                );
            }
            attempt += 1;
            retries += 1;
        };
        responses.push_str(&line);
        responses.push('\n');
    }
    let registry = service.metrics_clone();
    let metrics = metrics_file_json(&[("serve".to_string(), registry.clone())]);
    ReplayOutput {
        responses,
        metrics,
        registry,
        retries,
    }
}

/// Live load-generation mode.
#[derive(Debug, Clone, Copy)]
pub enum LoadMode {
    /// Each connection sends its next request as soon as the previous
    /// response arrives.
    Closed,
    /// Requests launch on a fixed schedule at this aggregate rate.
    Open {
        /// Target request rate, requests per second.
        rate_rps: f64,
    },
}

/// Aggregated results of one live load run.
pub struct LoadReport {
    /// The mode that ran.
    pub mode: LoadMode,
    /// Requests sent.
    pub requests: usize,
    /// Connections used.
    pub conns: usize,
    /// Responses with `"ok":true`.
    pub ok: usize,
    /// Error responses (including shed requests — expected under open-loop
    /// overload).
    pub errors: usize,
    /// Reconnect-and-resend attempts after dropped connections. Counted
    /// separately from `errors`: a retried request that eventually succeeds
    /// is degradation, not failure.
    pub retries: u64,
    /// Wall-clock of the whole run, seconds.
    pub elapsed_s: f64,
    /// Client-side latency quantiles, milliseconds. Closed-loop: response
    /// minus send. Open-loop: response minus *scheduled* send.
    pub p50_ms: f64,
    /// 90th percentile latency, milliseconds.
    pub p90_ms: f64,
    /// 99th percentile latency, milliseconds.
    pub p99_ms: f64,
    /// `serve.cache.hits` after the run.
    pub cache_hits: u64,
    /// `serve.cache.misses` after the run.
    pub cache_misses: u64,
}

impl LoadReport {
    /// Cache hit rate over the run, in `[0, 1]`.
    fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// One-line JSON rendering for the CLI.
    pub fn to_json(&self) -> String {
        use greenness_trace::fmt_f64;
        let mode = match self.mode {
            LoadMode::Closed => "\"closed\"".to_string(),
            LoadMode::Open { rate_rps } => {
                format!("{{\"open\":{{\"rate_rps\":{}}}}}", fmt_f64(rate_rps))
            }
        };
        format!(
            "{{\"mode\":{mode},\"requests\":{},\"conns\":{},\"ok\":{},\"errors\":{},\"retries\":{},\"elapsed_s\":{},\"throughput_rps\":{},\"latency_ms\":{{\"p50\":{},\"p90\":{},\"p99\":{}}},\"cache\":{{\"hits\":{},\"misses\":{},\"hit_rate\":{}}}}}",
            self.requests,
            self.conns,
            self.ok,
            self.errors,
            self.retries,
            fmt_f64(self.elapsed_s),
            fmt_f64(self.requests as f64 / self.elapsed_s.max(1e-9)),
            fmt_f64(self.p50_ms),
            fmt_f64(self.p90_ms),
            fmt_f64(self.p99_ms),
            self.cache_hits,
            self.cache_misses,
            fmt_f64(self.hit_rate())
        )
    }
}

/// Drive `requests` benchmark requests at a live server over `conns`
/// connections and measure client-side latency.
pub fn run_load(
    addr: &str,
    requests: usize,
    conns: usize,
    mode: LoadMode,
) -> std::io::Result<LoadReport> {
    let conns = conns.clamp(1, requests.max(1));
    let workload = replay_workload(requests);
    let start = Instant::now();
    // Per connection: (ok, retries, latencies_ms).
    let mut per_conn: Vec<(usize, u64, Vec<f64>)> = Vec::new();

    std::thread::scope(|scope| -> std::io::Result<()> {
        let mut handles = Vec::new();
        for c in 0..conns {
            let workload = &workload;
            handles.push(
                scope.spawn(move || -> std::io::Result<(usize, u64, Vec<f64>)> {
                    let mut client = RetryClient::new(addr, LOAD_RETRY_BUDGET);
                    let mut ok = 0usize;
                    let mut latencies = Vec::new();
                    for (i, request) in workload.iter().enumerate() {
                        if i % conns != c {
                            continue;
                        }
                        let scheduled = match mode {
                            LoadMode::Closed => Instant::now(),
                            LoadMode::Open { rate_rps } => {
                                let at = start
                                    + std::time::Duration::from_secs_f64(
                                        i as f64 / rate_rps.max(1e-9),
                                    );
                                if let Some(wait) = at.checked_duration_since(Instant::now()) {
                                    std::thread::sleep(wait);
                                }
                                at
                            }
                        };
                        let response = client.roundtrip(request)?;
                        latencies.push(scheduled.elapsed().as_secs_f64() * 1e3);
                        if response.contains("\"ok\":true") {
                            ok += 1;
                        }
                    }
                    Ok((ok, client.retries, latencies))
                }),
            );
        }
        for handle in handles {
            // A worker panic is a harness bug, but it must surface as a
            // structured error, not take the whole process down with it.
            let joined = handle
                .join()
                .map_err(|_| std::io::Error::other("load worker thread panicked"))?;
            per_conn.push(joined?);
        }
        Ok(())
    })?;

    let elapsed_s = start.elapsed().as_secs_f64();
    let ok: usize = per_conn.iter().map(|(k, _, _)| k).sum();
    let retries: u64 = per_conn.iter().map(|(_, r, _)| r).sum();
    let (p50_ms, p90_ms, p99_ms) =
        latency_percentiles(per_conn.iter().map(|(_, _, ms)| ms.as_slice()));
    let (hits, misses) = fetch_cache_counters(addr)?;
    Ok(LoadReport {
        mode,
        requests,
        conns,
        ok,
        errors: requests - ok,
        retries,
        elapsed_s,
        p50_ms,
        p90_ms,
        p99_ms,
        cache_hits: hits,
        cache_misses: misses,
    })
}

/// The report's (p50, p90, p99) in ms: exact nearest-rank percentiles over
/// the merged raw per-connection samples, not the log-bucketed `Histogram`
/// estimate. At small n the bucket interpolation reported values no sample
/// ever had (p99 of a single sample came back below it) — exactly where a
/// latency report misleads the most.
fn latency_percentiles<'a>(per_conn: impl Iterator<Item = &'a [f64]>) -> (f64, f64, f64) {
    let mut latencies: Vec<f64> = per_conn.flatten().copied().collect();
    latencies.sort_by(f64::total_cmp);
    (
        percentile_nearest_rank(&latencies, 0.50),
        percentile_nearest_rank(&latencies, 0.90),
        percentile_nearest_rank(&latencies, 0.99),
    )
}

fn fetch_cache_counters(addr: &str) -> std::io::Result<(u64, u64)> {
    let line = crate::client::query(
        addr,
        &format!("{{\"schema\":\"{SCHEMA}\",\"op\":\"metrics\"}}"),
    )?;
    let doc =
        Json::parse(&line).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    let counter = |name: &str| {
        doc.get("result")
            .and_then(|r| r.get("counters"))
            .and_then(|c| c.get(name))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    Ok((counter("serve.cache.hits"), counter("serve.cache.misses")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_deterministic_and_repeats_templates() {
        let a = replay_workload(25);
        let b = replay_workload(25);
        assert_eq!(a, b);
        // Same template, different ids, ten positions apart.
        assert_ne!(a[0], a[10]);
        assert!(a[0].contains("\"id\":0"));
        assert!(a[10].contains("\"id\":10"));
    }

    #[test]
    fn replay_is_byte_identical_across_runs_and_jobs() {
        let requests = replay_workload(12);
        let base = ServiceConfig {
            jobs: 1,
            ..ServiceConfig::default()
        };
        let again = run_replay(base, &requests);
        let first = run_replay(base, &requests);
        assert_eq!(first.responses, again.responses);
        assert_eq!(first.metrics, again.metrics);
        let wide = run_replay(
            ServiceConfig {
                jobs: 8,
                ..ServiceConfig::default()
            },
            &requests,
        );
        assert_eq!(
            first.responses, wide.responses,
            "jobs must not leak into responses"
        );
        assert_eq!(
            first.metrics, wide.metrics,
            "jobs must not leak into metrics"
        );
    }

    #[test]
    fn faulted_replay_retries_drops_and_stays_byte_identical() {
        use greenness_faults::FaultPlan;
        let requests = replay_workload(12);
        let config = ServiceConfig {
            faults: Some(FaultPlan::with_seed(7)),
            jobs: 1,
            ..ServiceConfig::default()
        };
        let a = run_replay(config, &requests);
        let b = run_replay(ServiceConfig { jobs: 8, ..config }, &requests);
        assert_eq!(a.responses, b.responses, "jobs must not leak under faults");
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.retries, b.retries);
        assert!(a.retries > 0, "seed 7 must drop at least one request");
        // Every drop was retried to completion: one ok line per request.
        assert_eq!(a.responses.lines().count(), 12);
        assert!(a.responses.lines().all(|l| l.contains("\"ok\":true")));
    }

    #[test]
    fn report_percentiles_are_exact_over_merged_connections() {
        // One sample total (n = 1): every percentile IS that sample.
        let single: [&[f64]; 1] = [&[12.5]];
        assert_eq!(latency_percentiles(single.into_iter()), (12.5, 12.5, 12.5));
        // Four samples split unevenly across two connections, unsorted:
        // merged sorted = [1, 2, 3, 4]; nearest ranks are p50 → 2 (rank
        // ceil(0.5·4) = 2), p90 → 4 (rank ceil(3.6) = 4), p99 → 4 (rank
        // ceil(3.96) = 4 — the last element, never index 4).
        let split: [&[f64]; 2] = [&[4.0, 1.0], &[3.0, 2.0]];
        assert_eq!(latency_percentiles(split.into_iter()), (2.0, 4.0, 4.0));
        // No samples: all zeros rather than a panic.
        let empty: [&[f64]; 0] = [];
        assert_eq!(latency_percentiles(empty.into_iter()), (0.0, 0.0, 0.0));
    }

    #[test]
    fn replay_exercises_the_cache() {
        let requests = replay_workload(20); // two full template cycles
        let out = run_replay(ServiceConfig::default(), &requests);
        assert!(
            out.metrics.contains("\"serve.cache.hits\""),
            "hits counter missing:\n{}",
            out.metrics
        );
        assert_eq!(out.responses.lines().count(), 20);
        assert!(out.responses.lines().all(|l| l.contains("\"ok\":true")));
    }
}
