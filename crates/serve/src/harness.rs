//! The `bench-serve` replay harness, the determinism anchor: a fixed
//! request sequence driven straight through an in-process [`Service`] on
//! one thread, producing a response log and a metrics snapshot that are
//! byte-identical across runs *and* across `--jobs` values (the sweep
//! executor guarantees value determinism; the service keeps every
//! schedule-dependent quantity — wall-clock latency above all — out of its
//! own registry, recording simulated `serve.virtual_s` instead). Wall-clock
//! load over real sockets is the benchmark's `serve_loopback` workload.

use greenness_trace::metrics_file_json;

use crate::protocol::{self, ErrorCode, SCHEMA};
use crate::service::{Disposition, Service, ServiceConfig};

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
