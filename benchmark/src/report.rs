//! The benchmark's metric names — the same list `BENCHMARK.json` declares —
//! and the result line every run ends with.

use std::collections::BTreeMap;

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    /// Regression bound as a share of the parent's median (end-to-end only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, lower: bool, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        lower_is_better: lower,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, lower: bool) -> MetricDef {
    MetricDef {
        name,
        unit,
        lower_is_better: lower,
        bound: None,
    }
}

/// End-to-end metrics: reported by every workload with tracing off.
pub const END_TO_END: [MetricDef; 4] = [
    e2e("wall_s", "s", true, 0.25),
    e2e("req_per_s", "1/s", false, 0.25),
    e2e("peak_heap_mb", "MiB", true, 0.10),
    e2e("setup_s", "s", true, 0.25),
];

/// Per-layer metrics: reported by the traced pass. A workload that never
/// enters a layer reports 0 for that layer's metrics.
pub const PER_LAYER: [MetricDef; 96] = [
    layer("bench.trace_overhead_share", "ratio", true),
    layer("bench.fail_share", "ratio", true),
    layer("bench.peak_rss_mb", "MiB", true),
    layer("heatsim.step_s", "s", true),
    layer("heatsim.cells_per_s", "1/s", false),
    layer("heatsim.cell_updates", "count", true),
    layer("heatsim.serialize_s", "s", true),
    layer("viz.raster_s", "s", true),
    layer("viz.mpix_per_s", "Mpx/s", false),
    layer("viz.pixels", "count", true),
    layer("viz.ppm_s", "s", true),
    layer("storage.write_s", "s", true),
    layer("storage.read_s", "s", true),
    layer("storage.cache_ctl_s", "s", true),
    layer("storage.write_bytes", "count", true),
    layer("storage.read_bytes", "count", true),
    layer("storage.fsyncs", "count", true),
    layer("storage.cache_hit_ratio", "ratio", false),
    layer("storage.tier_cell_s.noop", "s", true),
    layer("storage.tier_cell_s.freq_recency", "s", true),
    layer("storage.tier_cell_s.energy_greedy", "s", true),
    layer("storage.tier_ops_per_s", "1/s", false),
    layer("storage.tier_promotes", "count", true),
    layer("storage.tier_demotes", "count", true),
    layer("platform.execute_ns", "ns", true),
    layer("platform.charge_s", "s", true),
    layer("platform.segments", "count", true),
    layer("power.measure_s", "s", true),
    layer("power.samples", "count", true),
    layer("trace.emit_s", "s", true),
    layer("trace.emit_mb_per_s", "MB/s", false),
    layer("trace.events", "count", true),
    layer("trace.journal_bytes", "count", true),
    layer("trace.summarize_s", "s", true),
    layer("trace.parse_mb_per_s", "MB/s", false),
    layer("trace.metrics_json_s", "s", true),
    layer("trace.histogram_observe_ns", "ns", true),
    layer("trace.blake2s_mb_per_s", "MB/s", false),
    layer("pool.speedup_jobs2", "ratio", false),
    layer("pool.efficiency_jobs2", "ratio", false),
    layer("core.manifest_s", "s", true),
    layer("core.unattributed_s", "s", true),
    layer("core.unattributed_share", "ratio", true),
    layer("core.replay_energy_match", "ratio", false),
    layer("core.sim_s_per_wall_s", "ratio", false),
    layer("core.savings_pct_case1", "%", false),
    layer("core.savings_pct_case2", "%", false),
    layer("core.savings_pct_case3", "%", false),
    layer("core.steering_advance_us", "us", true),
    layer("core.steering_whatif_us", "us", true),
    layer("cluster.cell_s.post", "s", true),
    layer("cluster.cell_s.insitu", "s", true),
    layer("cluster.cell_s.intransit", "s", true),
    layer("cluster.slab_step_s", "s", true),
    layer("cluster.ghost_bytes", "count", true),
    layer("cluster.fabric_transfer_ns", "ns", true),
    layer("cluster.pfs_write_s", "s", true),
    layer("cluster.pfs_read_s", "s", true),
    layer("codec.quant8_enc_mb_per_s", "MB/s", false),
    layer("codec.quant8_dec_mb_per_s", "MB/s", false),
    layer("codec.delta_enc_mb_per_s", "MB/s", false),
    layer("codec.delta_dec_mb_per_s", "MB/s", false),
    layer("codec.transpose_rle_enc_mb_per_s", "MB/s", false),
    layer("codec.transpose_rle_dec_mb_per_s", "MB/s", false),
    layer("codec.ratio.quant8", "ratio", false),
    layer("codec.ratio.delta", "ratio", false),
    layer("serve.rtt_p50_ms", "ms", true),
    layer("serve.rtt_p90_ms", "ms", true),
    layer("serve.rtt_p99_ms", "ms", true),
    layer("serve.cold_rtt_p50_ms", "ms", true),
    layer("serve.handle_warm_us", "us", true),
    layer("serve.handle_cold_ms", "ms", true),
    layer("serve.parse_us", "us", true),
    layer("serve.canonical_hash_us", "us", true),
    layer("serve.cache_get_ns", "ns", true),
    layer("serve.wire_us", "us", true),
    layer("serve.wire_share", "ratio", true),
    layer("serve.conn_setup_ms", "ms", true),
    layer("serve.reply_bytes", "B", true),
    layer("serve.warm_hit_ratio", "ratio", false),
    layer("serve.shed", "count", true),
    layer("fleet.handle_us", "us", true),
    layer("fleet.self_us", "us", true),
    layer("fleet.route_ns", "ns", true),
    layer("fleet.replicas_ns", "ns", true),
    layer("fleet.zipf_ns", "ns", true),
    layer("fleet.hit_ratio", "ratio", false),
    layer("fleet.hot_keys", "count", true),
    layer("fleet.reply_mb", "MB", true),
    layer("fleet.virtual_p99_ms", "ms", true),
    layer("fleet.j_per_mreq", "J", true),
    layer("steer.engine_op_us", "us", true),
    layer("steer.serve_self_us", "us", true),
    layer("steer.fleet_self_us", "us", true),
    layer("steer.delta_hit_ratio", "ratio", false),
    layer("steer.replayed", "count", true),
];

/// The workloads, in the order the all-workloads command runs them.
pub const WORKLOADS: [&str; 7] = [
    "paper_grid",
    "journal_audit",
    "cluster_grid",
    "tiered_placement",
    "serve_loopback",
    "fleet_replay",
    "steer_sessions",
];

/// Metric values of one pass, by declared name.
#[derive(Debug, Clone)]
pub struct Values {
    defs: &'static [MetricDef],
    values: BTreeMap<&'static str, f64>,
}

impl Values {
    /// Every metric of `defs`, all zero.
    pub fn zeroed(defs: &'static [MetricDef]) -> Values {
        Values {
            defs,
            values: defs.iter().map(|d| (d.name, 0.0)).collect(),
        }
    }

    /// Set a declared metric. Panics on an undeclared name — a typo in a
    /// workload must not silently drop a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .values
            .get_mut(name)
            .unwrap_or_else(|| panic!("metric '{name}' is not declared in report.rs"));
        *slot = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    pub fn all_finite(&self) -> bool {
        self.values.values().all(|v| v.is_finite())
    }

    /// `(definition, value)` in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (&MetricDef, f64)> + '_ {
        self.defs.iter().map(|d| (d, self.values[d.name]))
    }
}

/// What one run of one workload reports.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Values,
}

impl RunResult {
    /// The result object, one line: exactly the keys `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(d, v)| {
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{}\":{{\"value\":{v:?},\"unit\":\"{}\"}}", d.name, d.unit)
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }

    /// Parse a result line back (the all-workloads command reads its
    /// children's last lines).
    pub fn parse(line: &str, defs: &'static [MetricDef]) -> Result<RunResult, String> {
        use greenness_serve::json::Json;
        let doc = Json::parse(line)?;
        let correct = doc
            .get("correct")
            .and_then(Json::as_bool)
            .ok_or("result line lacks 'correct'")?;
        let attempted = doc
            .get("attempted")
            .and_then(Json::as_u64)
            .ok_or("result line lacks 'attempted'")?;
        let failed = doc
            .get("failed")
            .and_then(Json::as_u64)
            .ok_or("result line lacks 'failed'")?;
        let reported = doc.get("metrics").ok_or("result line lacks 'metrics'")?;
        let mut metrics = Values::zeroed(defs);
        for d in defs {
            let value = reported
                .get(d.name)
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("result line lacks metric '{}'", d.name))?;
            metrics.set(d.name, value);
        }
        Ok(RunResult {
            correct,
            attempted,
            failed,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greenness_serve::json::Json;

    fn name_ok(name: &str) -> bool {
        let head_ok = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        head_ok
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn declared(section: &str) -> Vec<(String, String, String, Option<f64>)> {
        benchmark_json()
            .get(section)
            .and_then(Json::as_arr)
            .expect("section is an array")
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).unwrap().to_string(),
                    m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                    m.get("better").and_then(Json::as_str).unwrap().to_string(),
                    m.get("bound").and_then(Json::as_f64),
                )
            })
            .collect()
    }

    fn coded(defs: &[MetricDef]) -> Vec<(String, String, String, Option<f64>)> {
        defs.iter()
            .map(|d| {
                let better = if d.lower_is_better { "lower" } else { "higher" };
                (
                    d.name.to_string(),
                    d.unit.to_string(),
                    better.to_string(),
                    d.bound,
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics_and_workloads() {
        assert_eq!(declared("end_to_end"), coded(&END_TO_END));
        assert_eq!(declared("per_layer"), coded(&PER_LAYER));
        let doc = benchmark_json();
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name_ok(d.name), "bad metric name {:?}", d.name);
            assert!(seen.insert(d.name), "metric {:?} declared twice", d.name);
            assert!(
                !d.unit.is_empty()
                    && d.unit.len() <= 16
                    && d.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {:?}",
                d.unit
            );
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.lower_is_better));
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b <= 0.25)));
        for w in WORKLOADS {
            assert!(name_ok(w));
        }
    }

    #[test]
    fn result_line_is_wellformed_and_round_trips() {
        for defs in [&END_TO_END[..], &PER_LAYER[..]] {
            let defs: &'static [MetricDef] = defs;
            let mut metrics = Values::zeroed(defs);
            for (i, d) in defs.iter().enumerate() {
                metrics.set(d.name, 0.5 + i as f64 * 1.25e-3);
            }
            let result = RunResult {
                correct: true,
                attempted: 1000,
                failed: 0,
                metrics,
            };
            let line = result.to_json();
            assert!(!line.contains('\n'));
            let doc = Json::parse(&line).expect("result line is JSON");
            let Json::Obj(members) = &doc else {
                panic!("result is an object")
            };
            let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let Some(Json::Obj(reported)) = doc.get("metrics") else {
                panic!("metrics is an object")
            };
            assert_eq!(reported.len(), defs.len(), "every declared name, no other");
            for (name, _) in reported {
                assert!(name_ok(name), "bad name {name:?} in output");
            }
            let back = RunResult::parse(&line, defs).expect("parses back");
            for (d, v) in result.metrics.iter() {
                assert_eq!(back.metrics.get(d.name), v);
            }
        }
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metric_names_are_refused() {
        Values::zeroed(&PER_LAYER).set("viz.rastr_s", 1.0);
    }
}
