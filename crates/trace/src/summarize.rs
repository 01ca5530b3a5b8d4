//! Journal post-processing: reconstruct per-phase power/energy tables from a
//! `greenness-trace/v1` journal and audit the journal's structure.
//!
//! The reconstruction replays the `"segment"` dump events (one per merged
//! timeline segment) with **the same arithmetic** `Timeline::phase_energy`
//! uses — per-channel `draw_w * secs` accumulated in segment order, with
//! `secs = dur_ns / 1e9` — so a well-formed journal reproduces the
//! simulator's per-phase energy bit-for-bit. The `"phase_summary"` events
//! the run emits from the live `Timeline` serve as the cross-check: any
//! disagreement beyond 1e-9 J is reported as an audit error.
//!
//! The audit also verifies span structure: every `begin` has a matching
//! `end` (innermost-first), timestamps are monotone non-decreasing within a
//! job, and job spans do not nest.

use std::borrow::Cow;

use crate::json::{FlatObject, Scalar};
use crate::TRACE_SCHEMA;

/// One row of the reconstructed per-phase table (aggregated over all jobs
/// in the journal).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseRow {
    /// Phase label, e.g. `"simulation"`.
    pub phase: String,
    /// Total wall (virtual) seconds spent in the phase.
    pub time_s: f64,
    /// Reconstructed system energy in joules.
    pub energy_j: f64,
    /// System energy as reported by the run's `phase_summary` audit events
    /// (`None` if the journal carries no summary for this phase).
    pub reported_j: Option<f64>,
}

impl PhaseRow {
    /// Mean system power over the phase.
    pub fn avg_power_w(&self) -> f64 {
        if self.time_s > 0.0 {
            self.energy_j / self.time_s
        } else {
            0.0
        }
    }
}

/// Result of summarizing a journal.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// Total event lines parsed (excluding the schema header).
    pub events: usize,
    /// Number of sweep-job spans (0 for a single-run journal).
    pub jobs: usize,
    /// Per-phase rows in first-appearance order.
    pub rows: Vec<PhaseRow>,
    /// Reconstructed total system energy across all phases and jobs.
    pub total_energy_j: f64,
    /// Structural and consistency violations found by the audit (empty for
    /// a healthy journal).
    pub audit_errors: Vec<String>,
    /// Spans whose begin/end pairing was checked.
    pub spans_checked: usize,
    /// (job, phase) pairs whose reconstructed energy was cross-checked
    /// against a `phase_summary` event.
    pub phases_checked: usize,
}

impl Summary {
    /// True when the audit found no violations.
    pub fn audit_ok(&self) -> bool {
        self.audit_errors.is_empty()
    }

    /// Render the per-phase table as aligned text.
    pub fn table(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "{:<14} {:>12} {:>16} {:>12}\n",
            "phase", "time [s]", "energy [J]", "avg [W]"
        ));
        for r in &self.rows {
            s.push_str(&format!(
                "{:<14} {:>12.3} {:>16.6} {:>12.3}\n",
                r.phase,
                r.time_s,
                r.energy_j,
                r.avg_power_w()
            ));
        }
        s.push_str(&format!(
            "{:<14} {:>12} {:>16.6}\n",
            "total", "", self.total_energy_j
        ));
        s
    }
}

/// Per-phase accumulator replaying segment events with `Timeline`'s exact
/// arithmetic.
#[derive(Debug, Clone, Default)]
struct PhaseAcc {
    dur_ns: u64,
    package_j: f64,
    dram_j: f64,
    disk_j: f64,
    net_j: f64,
    board_j: f64,
    reported_j: Option<f64>,
}

impl PhaseAcc {
    fn system_j(&self) -> f64 {
        // Same association order as EnergyBreakdown::system_j.
        self.package_j + self.dram_j + self.disk_j + self.net_j + self.board_j
    }
}

#[derive(Debug, Default)]
struct JobScope {
    // First-appearance ordered (phase label → accumulator).
    phases: Vec<(String, PhaseAcc)>,
}

impl JobScope {
    fn acc(&mut self, phase: &str) -> &mut PhaseAcc {
        if let Some(i) = self.phases.iter().position(|(p, _)| p == phase) {
            &mut self.phases[i].1
        } else {
            self.phases.push((phase.to_string(), PhaseAcc::default()));
            &mut self.phases.last_mut().expect("just pushed").1
        }
    }
}

/// Parse and audit a journal (schema header + JSONL event lines).
///
/// Returns `Err` only for unreadable input (missing/unknown schema header,
/// unparseable line); semantic problems land in [`Summary::audit_errors`].
pub fn summarize(journal: &str) -> Result<Summary, String> {
    // Lines are numbered from 1, blank ones included.
    let mut lines = (1usize..)
        .zip(journal.lines())
        .filter(|(_, l)| !l.trim().is_empty());
    let (_, header) = lines.next().ok_or("empty journal")?;
    // One pair buffer for the whole journal; what it holds borrows from
    // `journal`, so span names outlive the line they were read from.
    let mut kv = FlatObject::default();
    kv.scan(header)
        .map_err(|e| format!("bad schema header: {e}"))?;
    match kv.str("schema") {
        Some(s) if s == TRACE_SCHEMA => {}
        Some(s) => return Err(format!("unsupported schema {s:?} (want {TRACE_SCHEMA:?})")),
        None => return Err("journal missing schema header".to_string()),
    }

    let mut sum = Summary::default();
    // Span stack: (name, open t_ns).
    let mut stack: Vec<(Cow<'_, str>, u64)> = Vec::new();
    let mut last_t: u64 = 0;
    let mut scope = JobScope::default();
    let mut in_job = false;

    let close_scope = |sum: &mut Summary, scope: JobScope| {
        for (phase, acc) in scope.phases {
            let energy = acc.system_j();
            let time_s = acc.dur_ns as f64 / 1e9;
            if let Some(reported) = acc.reported_j {
                sum.phases_checked += 1;
                if (energy - reported).abs() > 1e-9 {
                    sum.audit_errors.push(format!(
                        "phase {phase:?}: reconstructed {energy} J disagrees with \
                         reported {reported} J by more than 1e-9"
                    ));
                }
            }
            sum.total_energy_j += energy;
            if let Some(row) = sum.rows.iter_mut().find(|r| r.phase == phase) {
                row.time_s += time_s;
                row.energy_j += energy;
                if let Some(r) = acc.reported_j {
                    *row.reported_j.get_or_insert(0.0) += r;
                }
            } else {
                sum.rows.push(PhaseRow {
                    phase,
                    time_s,
                    energy_j: energy,
                    reported_j: acc.reported_j,
                });
            }
        }
    };

    for (n, line) in lines {
        kv.scan(line).map_err(|e| format!("line {n}: {e}"))?;
        sum.events += 1;
        let t_ns = kv
            .num::<u64>("t_ns")
            .ok_or_else(|| format!("line {n}: missing t_ns"))?;
        let ev = kv
            .str("ev")
            .ok_or_else(|| format!("line {n}: missing ev"))?;
        let name = match kv.get("name") {
            Some(Scalar::Str(name)) => name,
            _ => return Err(format!("line {n}: missing name")),
        };

        // Each sweep job restarts virtual time at zero.
        let resets_clock = ev == "begin" && name == "job";
        if resets_clock {
            if !stack.is_empty() {
                let open = stack.last().map_or("", |(open, _)| open);
                sum.audit_errors
                    .push(format!("line {n}: job begins inside open span {open:?}"));
                stack.clear();
            }
            if in_job {
                close_scope(&mut sum, std::mem::take(&mut scope));
            }
            in_job = true;
            sum.jobs += 1;
            last_t = 0;
        } else if t_ns < last_t {
            sum.audit_errors.push(format!(
                "line {n}: timestamp {t_ns} precedes previous {last_t}"
            ));
        }
        last_t = last_t.max(t_ns);

        match ev {
            "begin" => stack.push((name.clone(), t_ns)),
            "end" => match stack.pop() {
                Some((open, t0)) => {
                    sum.spans_checked += 1;
                    if open != *name {
                        sum.audit_errors
                            .push(format!("line {n}: end {name:?} closes open span {open:?}"));
                    }
                    if t_ns < t0 {
                        sum.audit_errors.push(format!(
                            "line {n}: span {name:?} ends at {t_ns} before it began at {t0}"
                        ));
                    }
                    if name == "job" {
                        close_scope(&mut sum, std::mem::take(&mut scope));
                        in_job = false;
                    }
                }
                None => sum
                    .audit_errors
                    .push(format!("line {n}: end {name:?} without begin")),
            },
            "event" => match name.as_ref() {
                "segment" => {
                    let dur_ns = kv.num::<u64>("dur_ns").unwrap_or(0);
                    let secs = dur_ns as f64 / 1e9;
                    let w = |key: &str| kv.num::<f64>(key).unwrap_or(0.0);
                    let acc = scope.acc(kv.str("phase").unwrap_or("other"));
                    acc.dur_ns += dur_ns;
                    // Exactly Timeline::phase_energy's fold: per-channel
                    // draw × secs added in segment order.
                    acc.package_j += w("package_w") * secs;
                    acc.dram_j += w("dram_w") * secs;
                    acc.disk_j += w("disk_w") * secs;
                    acc.net_j += w("net_w") * secs;
                    acc.board_j += w("board_w") * secs;
                }
                "phase_summary" => {
                    let phase = kv.str("phase").unwrap_or("other");
                    scope.acc(phase).reported_j = kv.num::<f64>("system_j");
                }
                _ => {}
            },
            other => {
                sum.audit_errors
                    .push(format!("line {n}: unknown ev {other:?}"));
            }
        }
    }

    if !stack.is_empty() {
        let open: Vec<&str> = stack.iter().map(|(n, _)| n.as_ref()).collect();
        sum.audit_errors
            .push(format!("journal ends with open spans: {open:?}"));
    }
    close_scope(&mut sum, scope);
    Ok(sum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal_header;
    use crate::json::reference::{parse_flat_object, JsonValue};
    use greenness_core::config::PipelineConfig;
    use greenness_core::placement::{self, PlacementSetup};
    use greenness_core::sweep;
    use greenness_core::ExperimentSetup;
    use greenness_faults::FaultPlan;

    fn field_reference<'a>(kv: &'a [(String, JsonValue)], key: &str) -> Option<&'a JsonValue> {
        kv.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// `summarize` as it was over the owned parser, verbatim: every line becomes
    /// a `Vec<(String, JsonValue)>` and every `ev`, `name` and `phase` a fresh
    /// `String`. The oracle for the borrowed version above.
    fn summarize_reference(journal: &str) -> Result<Summary, String> {
        let mut lines = journal
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty());
        let (_, header) = lines.next().ok_or("empty journal")?;
        let header_kv = parse_flat_object(header).map_err(|e| format!("bad schema header: {e}"))?;
        match field_reference(&header_kv, "schema").and_then(JsonValue::as_str) {
            Some(s) if s == TRACE_SCHEMA => {}
            Some(s) => return Err(format!("unsupported schema {s:?} (want {TRACE_SCHEMA:?})")),
            None => return Err("journal missing schema header".to_string()),
        }

        let mut sum = Summary::default();
        // Span stack: (name, open t_ns).
        let mut stack: Vec<(String, u64)> = Vec::new();
        let mut last_t: u64 = 0;
        let mut scope = JobScope::default();
        let mut in_job = false;

        let close_scope = |sum: &mut Summary, scope: JobScope| {
            for (phase, acc) in scope.phases {
                let energy = acc.system_j();
                let time_s = acc.dur_ns as f64 / 1e9;
                if let Some(reported) = acc.reported_j {
                    sum.phases_checked += 1;
                    if (energy - reported).abs() > 1e-9 {
                        sum.audit_errors.push(format!(
                            "phase {phase:?}: reconstructed {energy} J disagrees with \
                             reported {reported} J by more than 1e-9"
                        ));
                    }
                }
                sum.total_energy_j += energy;
                if let Some(row) = sum.rows.iter_mut().find(|r| r.phase == phase) {
                    row.time_s += time_s;
                    row.energy_j += energy;
                    if let Some(r) = acc.reported_j {
                        *row.reported_j.get_or_insert(0.0) += r;
                    }
                } else {
                    sum.rows.push(PhaseRow {
                        phase,
                        time_s,
                        energy_j: energy,
                        reported_j: acc.reported_j,
                    });
                }
            }
        };

        for (lineno, line) in lines {
            let kv = parse_flat_object(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
            sum.events += 1;
            let t_ns = field_reference(&kv, "t_ns")
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("line {}: missing t_ns", lineno + 1))?;
            let ev = field_reference(&kv, "ev")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| format!("line {}: missing ev", lineno + 1))?
                .to_string();
            let name = field_reference(&kv, "name")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| format!("line {}: missing name", lineno + 1))?
                .to_string();

            // Each sweep job restarts virtual time at zero.
            let resets_clock = ev == "begin" && name == "job";
            if resets_clock {
                if !stack.is_empty() {
                    sum.audit_errors.push(format!(
                        "line {}: job begins inside open span {:?}",
                        lineno + 1,
                        stack.last().map(|(n, _)| n.clone()).unwrap_or_default()
                    ));
                    stack.clear();
                }
                if in_job {
                    close_scope(&mut sum, std::mem::take(&mut scope));
                }
                in_job = true;
                sum.jobs += 1;
                last_t = 0;
            } else if t_ns < last_t {
                sum.audit_errors.push(format!(
                    "line {}: timestamp {t_ns} precedes previous {last_t}",
                    lineno + 1
                ));
            }
            last_t = last_t.max(t_ns);

            match ev.as_str() {
                "begin" => stack.push((name, t_ns)),
                "end" => match stack.pop() {
                    Some((open, t0)) => {
                        sum.spans_checked += 1;
                        if open != name {
                            sum.audit_errors.push(format!(
                                "line {}: end {name:?} closes open span {open:?}",
                                lineno + 1
                            ));
                        }
                        if t_ns < t0 {
                            sum.audit_errors.push(format!(
                                "line {}: span {name:?} ends at {t_ns} before it began at {t0}",
                                lineno + 1
                            ));
                        }
                        if name == "job" {
                            close_scope(&mut sum, std::mem::take(&mut scope));
                            in_job = false;
                        }
                    }
                    None => sum
                        .audit_errors
                        .push(format!("line {}: end {name:?} without begin", lineno + 1)),
                },
                "event" => match name.as_str() {
                    "segment" => {
                        let phase = field_reference(&kv, "phase")
                            .and_then(JsonValue::as_str)
                            .unwrap_or("other")
                            .to_string();
                        let dur_ns = field_reference(&kv, "dur_ns")
                            .and_then(JsonValue::as_u64)
                            .unwrap_or(0);
                        let secs = dur_ns as f64 / 1e9;
                        let w = |key: &str| {
                            field_reference(&kv, key)
                                .and_then(JsonValue::as_f64)
                                .unwrap_or(0.0)
                        };
                        let acc = scope.acc(&phase);
                        acc.dur_ns += dur_ns;
                        // Exactly Timeline::phase_energy's fold: per-channel
                        // draw × secs added in segment order.
                        acc.package_j += w("package_w") * secs;
                        acc.dram_j += w("dram_w") * secs;
                        acc.disk_j += w("disk_w") * secs;
                        acc.net_j += w("net_w") * secs;
                        acc.board_j += w("board_w") * secs;
                    }
                    "phase_summary" => {
                        let phase = field_reference(&kv, "phase")
                            .and_then(JsonValue::as_str)
                            .unwrap_or("other")
                            .to_string();
                        let system = field_reference(&kv, "system_j").and_then(JsonValue::as_f64);
                        scope.acc(&phase).reported_j = system;
                    }
                    _ => {}
                },
                other => {
                    sum.audit_errors
                        .push(format!("line {}: unknown ev {other:?}", lineno + 1));
                }
            }
        }

        if !stack.is_empty() {
            let open: Vec<String> = stack.iter().map(|(n, _)| n.clone()).collect();
            sum.audit_errors
                .push(format!("journal ends with open spans: {open:?}"));
        }
        close_scope(&mut sum, scope);
        Ok(sum)
    }

    /// `summarize`, checked against the reference on the way: same `Err`, or
    /// the same `Summary` down to the last bit of every energy and the text
    /// of every audit error.
    fn summarize(journal: &str) -> Result<Summary, String> {
        let new = super::summarize(journal);
        assert_eq!(
            format!("{new:?}"),
            format!("{:?}", summarize_reference(journal))
        );
        new
    }

    /// Post-processing and in-situ on the small config, traced.
    fn pipeline_journal(faults: Option<FaultPlan>) -> String {
        let setup = ExperimentSetup {
            trace: true,
            faults,
            ..ExperimentSetup::default()
        };
        let jobs = sweep::config_grid(&setup, &[(1, PipelineConfig::small(1))]);
        let results = sweep::run_sweep(jobs, 1, &sweep::silent_progress()).expect("small runs");
        sweep::sweep_journal(&results).expect("tracing was on")
    }

    #[test]
    fn real_journals_summarize_like_the_reference() {
        let plain = pipeline_journal(None);
        let s = summarize(&plain).unwrap();
        assert!(s.audit_ok(), "{:?}", s.audit_errors);
        assert_eq!(s.jobs, 2);
        assert!(s.phases_checked >= 4 && s.total_energy_j > 0.0, "{s:?}");

        let faulted = pipeline_journal(Some(FaultPlan::with_seed(11)));
        assert!(
            faulted.contains("\"name\":\"fault."),
            "seed 11 injects faults"
        );
        assert!(summarize(&faulted).unwrap().audit_ok());

        let setup = PlacementSetup {
            trace: true,
            ..PlacementSetup::default()
        };
        // The first workload under each of the three policies.
        let jobs = placement::placement_grid()[..3].to_vec();
        let results = placement::run_placement(jobs, &setup, 1, &sweep::silent_progress())
            .expect("the placement grid runs");
        let tiered = placement::placement_journal(&results).expect("tracing was on");
        assert!(
            tiered.contains("\"name\":\"tier."),
            "tier events are journaled"
        );
        assert!(summarize(&tiered).unwrap().audit_ok());
    }

    /// A number the old parser let through and `unwrap_or(0.0)` then read as
    /// zero watts now stops the summary, naming the line.
    #[test]
    fn a_malformed_number_is_an_error_not_zero_joules() {
        let mut j = journal_header();
        j.push_str(&seg(0, 1_000_000_000, "read", 10.0).replace("10.0", "1-0.0"));
        assert_eq!(
            super::summarize(&j).unwrap_err(),
            "line 2: bad number at byte 100"
        );
        let old = summarize_reference(&j).unwrap();
        assert_eq!((old.rows[0].energy_j, old.audit_ok()), (0.0, true));
    }

    fn seg(t: u64, dur: u64, phase: &str, pkg: f64) -> String {
        format!(
            "{{\"t_ns\":{t},\"ev\":\"event\",\"name\":\"segment\",\"start_ns\":0,\
             \"dur_ns\":{dur},\"phase\":\"{phase}\",\"package_w\":{pkg:?},\
             \"dram_w\":0.0,\"disk_w\":0.0,\"net_w\":0.0,\"board_w\":0.0}}\n"
        )
    }

    #[test]
    fn reconstructs_energy_and_passes_audit() {
        let mut j = journal_header();
        j.push_str("{\"t_ns\":0,\"ev\":\"begin\",\"name\":\"run\"}\n");
        j.push_str(&seg(10, 2_000_000_000, "simulation", 100.0));
        j.push_str(&seg(10, 1_000_000_000, "write", 50.0));
        j.push_str(
            "{\"t_ns\":10,\"ev\":\"event\",\"name\":\"phase_summary\",\
             \"phase\":\"simulation\",\"system_j\":200.0}\n",
        );
        j.push_str("{\"t_ns\":10,\"ev\":\"end\",\"name\":\"run\"}\n");
        let s = summarize(&j).unwrap();
        assert!(s.audit_ok(), "{:?}", s.audit_errors);
        assert_eq!(s.rows.len(), 2);
        assert_eq!(s.rows[0].phase, "simulation");
        assert_eq!(s.rows[0].energy_j, 200.0);
        assert_eq!(s.rows[0].reported_j, Some(200.0));
        assert_eq!(s.rows[1].energy_j, 50.0);
        assert_eq!(s.total_energy_j, 250.0);
        assert_eq!(s.phases_checked, 1);
        assert_eq!(s.spans_checked, 1);
    }

    #[test]
    fn detects_unbalanced_spans_and_backwards_time() {
        let mut j = journal_header();
        j.push_str("{\"t_ns\":5,\"ev\":\"begin\",\"name\":\"run\"}\n");
        j.push_str("{\"t_ns\":6,\"ev\":\"begin\",\"name\":\"phase\"}\n");
        j.push_str("{\"t_ns\":3,\"ev\":\"end\",\"name\":\"measure\"}\n");
        let s = summarize(&j).unwrap();
        assert!(!s.audit_ok());
        assert!(s.audit_errors.iter().any(|e| e.contains("precedes")));
        assert!(s
            .audit_errors
            .iter()
            .any(|e| e.contains("closes open span")));
        assert!(s.audit_errors.iter().any(|e| e.contains("open spans")));
    }

    /// Every remaining audit message, line numbers across a blank line, and
    /// a span name that only matches once its escape is decoded.
    #[test]
    fn misplaced_jobs_ends_and_unknown_events_are_reported_by_line() {
        let mut j = journal_header();
        j.push_str("{\"t_ns\":5,\"ev\":\"begin\",\"name\":\"run\"}\n\n");
        j.push_str("{\"t_ns\":0,\"ev\":\"begin\",\"name\":\"job\"}\n");
        j.push_str("{\"t_ns\":9,\"ev\":\"begin\",\"name\":\"ph\\u0061se\"}\n");
        j.push_str("{\"t_ns\":7,\"ev\":\"end\",\"name\":\"phase\"}\n");
        j.push_str("{\"t_ns\":9,\"ev\":\"end\",\"name\":\"job\"}\n");
        j.push_str("{\"t_ns\":9,\"ev\":\"end\",\"name\":\"job\"}\n");
        j.push_str("{\"t_ns\":9,\"ev\":\"tick\",\"name\":\"x\"}\n");
        let s = summarize(&j).unwrap();
        assert_eq!(
            s.audit_errors,
            [
                "line 4: job begins inside open span \"run\"",
                "line 6: timestamp 7 precedes previous 9",
                "line 6: span \"phase\" ends at 7 before it began at 9",
                "line 8: end \"job\" without begin",
                "line 9: unknown ev \"tick\"",
            ]
        );
        assert_eq!((s.events, s.jobs, s.spans_checked), (7, 1, 2));
        assert_eq!(
            summarize(&j.replace("\"ev\":\"tick\",", "")).unwrap_err(),
            "line 9: missing ev"
        );
    }

    #[test]
    fn mismatched_summary_is_flagged() {
        let mut j = journal_header();
        j.push_str(&seg(0, 1_000_000_000, "read", 10.0));
        j.push_str(
            "{\"t_ns\":0,\"ev\":\"event\",\"name\":\"phase_summary\",\
             \"phase\":\"read\",\"system_j\":11.0}\n",
        );
        let s = summarize(&j).unwrap();
        assert!(s.audit_errors.iter().any(|e| e.contains("disagrees")));
    }

    #[test]
    fn job_spans_reset_the_clock_and_scope() {
        let mut j = journal_header();
        for id in 0..2 {
            j.push_str(&format!(
                "{{\"t_ns\":0,\"ev\":\"begin\",\"name\":\"job\",\"job\":{id}}}\n"
            ));
            j.push_str(&seg(0, 1_000_000_000, "simulation", 100.0));
            j.push_str(&format!(
                "{{\"t_ns\":1000000000,\"ev\":\"end\",\"name\":\"job\",\"job\":{id}}}\n"
            ));
        }
        let s = summarize(&j).unwrap();
        assert!(s.audit_ok(), "{:?}", s.audit_errors);
        assert_eq!(s.jobs, 2);
        assert_eq!(s.rows.len(), 1);
        assert_eq!(s.rows[0].energy_j, 200.0);
    }

    #[test]
    fn rejects_missing_schema() {
        assert!(summarize("").is_err());
        assert!(summarize("{\"schema\":\"something-else/v9\"}\n").is_err());
        assert!(summarize("{\"t_ns\":0,\"ev\":\"begin\",\"name\":\"run\"}\n").is_err());
    }
}
